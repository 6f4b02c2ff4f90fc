import numpy as np
import pytest

from beamest import (ArrayConfig, CazacConfig, ConfigurationError, ScenarioConfig,
                     build_lut, coarse_estimate, correlate, detect_paths,
                     detection_threshold, draw_realization, mu_to_theta_deg, synthesize)
from beamest.channel import ChannelRealization, PathParams
from beamest.coarse import Detection, PowerMatrix, lut_interpolate, wrap_diagonal

ARR = ArrayConfig(m=16)
CAZ = CazacConfig()
LUT = build_lut(ARR, 101)
G_DEFAULT = detection_threshold(1.0, 16)


def single_path(mu, tau, alpha=1.0 + 0.0j, pt=1.0, noise_var=0.0):
    return ChannelRealization(
        paths=(PathParams(alpha=alpha, theta_deg=mu_to_theta_deg(mu), mu=mu,
                          tau_symbols=tau),),
        pt=pt, noise_var=noise_var)


def noiseless_observation(mu, tau, alpha=1.0 + 0.0j, pt=1.0):
    return synthesize(single_path(mu, tau, alpha, pt), ARR, CAZ)


def test_correlate_on_grid_single_entry():
    k0, i0 = 5, 3
    pm = correlate(noiseless_observation(float(ARR.beam_phases[k0]), float(i0)))
    peak = pm.p[k0, (k0 + i0) % 16]
    assert peak == pytest.approx(4096.0, rel=1e-12)
    rest = pm.p.copy()
    rest[k0, (k0 + i0) % 16] = 0.0
    assert np.max(rest) < 1e-18 * 4096.0


def test_correlate_zero_input():
    y = noiseless_observation(0.0, 0.0)
    pm = correlate(type(y)(y=np.zeros_like(y.y), truth=y.truth, arr=ARR, caz=CAZ))
    assert np.all(pm.p == 0.0)


def test_correlate_noise_floor():
    real = ChannelRealization(
        paths=(PathParams(alpha=0j, theta_deg=0.0, mu=0.0, tau_symbols=0.0),),
        pt=0.0, noise_var=1.0)
    rng = np.random.default_rng(0)
    means = [np.mean(correlate(synthesize(real, ARR, CAZ, rng)).p) for _ in range(100)]
    assert np.mean(means) == pytest.approx(16.0, rel=0.1)


def test_wrap_diagonal_against_brute_force():
    rng = np.random.default_rng(1)
    for m in (4, 8, 16):
        p = rng.random((m, m))
        for i in range(1, m + 1):
            brute = np.array([p[k - 1, (i + k - 2) % m] for k in range(1, m + 1)])
            assert np.array_equal(wrap_diagonal(p, i), brute)


def test_detect_single_on_grid_path():
    # a peak on row 6, wrap-diagonal 4 (1-based) means delay 3, beam 5
    p = np.zeros((16, 16))
    p[5, (5 + 3) % 16] = 4096.0
    dets = detect_paths(PowerMatrix(p=p, z=np.sqrt(p).astype(complex)), G_DEFAULT)
    assert dets == [Detection(diag_index=4, row_index=6, peak_power=4096.0)]
    assert dets[0].diag_index - 1 == 3


def test_detect_two_paths_same_diagonal_single_entry():
    p = np.zeros((16, 16))
    p[5, (5 + 3) % 16] = 4096.0
    p[9, (9 + 3) % 16] = 2048.0
    dets = detect_paths(PowerMatrix(p=p, z=np.sqrt(p).astype(complex)), G_DEFAULT)
    assert len(dets) == 1
    assert dets[0].row_index == 6


def test_detect_false_alarm_rate():
    # pure noise, default threshold: most trials produce no detection at all
    real = ChannelRealization(
        paths=(PathParams(alpha=0j, theta_deg=0.0, mu=0.0, tau_symbols=0.0),),
        pt=0.0, noise_var=1.0)
    rng = np.random.default_rng(2)
    empty = 0
    for _ in range(1000):
        pm = correlate(synthesize(real, ARR, CAZ, rng))
        if not detect_paths(pm, G_DEFAULT):
            empty += 1
    assert empty >= 900


def test_detection_threshold_value():
    assert detection_threshold(1.0, 16, 1e-3) == pytest.approx(16 * np.log(16000.0))
    with pytest.raises(ConfigurationError):
        detection_threshold(1.0, 16, 0.0)


def test_lut_endpoints_and_monotonicity():
    assert LUT.ratios[0] == np.inf
    assert LUT.ratios[101] == 0.0
    finite = LUT.ratios[1:]
    assert np.all(np.diff(finite) < 0)
    assert LUT.delta_mu == pytest.approx(2 * np.pi / (16 * 101))


def test_lut_midpoint_symmetry():
    # an even interval count puts a grid point exactly midway: equal powers
    lut = build_lut(ARR, 100)
    assert lut.ratios[50] == pytest.approx(1.0, abs=1e-12)


def test_lut_regression_value():
    # direct evaluation of the two beam powers at offset 25/101 of a cell
    assert LUT.ratios[25] == pytest.approx(3.030144548000775, abs=1e-12)


def test_lut_interpolation_round_trip():
    # a ratio sitting exactly on a LUT node returns that node
    for l in (1, 25, 73, 100):
        assert lut_interpolate(LUT, float(LUT.ratios[l])) == pytest.approx(l, abs=1e-9)
    assert lut_interpolate(LUT, np.inf) == 0.0


def test_measured_ratio_monotone_over_cell():
    # noiseless power ratio strictly decreases as mu sweeps one beam cell
    from beamest.arrays import beam_gains
    mus = np.linspace(1e-9, 2 * np.pi / 16 - 1e-9, 1000)
    ratios = []
    for mu in mus:
        g = beam_gains(ARR, float(mu))
        ratios.append(np.sqrt(abs(g[0]) ** 2 / abs(g[1]) ** 2))
    assert np.all(np.diff(ratios) < 0)


def run_coarse(y, noise_var=1.0):
    pm = correlate(y)
    dets = detect_paths(pm, detection_threshold(noise_var, 16))
    return coarse_estimate(pm, dets, LUT, ARR, CAZ, noise_var)


def test_on_grid_exactness_via_guard():
    # on the grid both neighbours are exactly zero, so the guard snaps to it
    mu = float(ARR.beam_phases[7])
    est = run_coarse(noiseless_observation(mu, 2.0))
    assert est.r_hat == 1
    assert est.paths[0].mu_hat == mu
    assert est.paths[0].tau_int == 2
    assert est.paths[0].k_index == 7
    assert est.paths[0].feedback.delta_ratio == np.inf


def test_interpolation_near_cell_interior_point():
    mu = float(ARR.beam_phases[4]) + LUT.delta_mu * 37.5
    est = run_coarse(noiseless_observation(mu, 5.0))
    assert est.r_hat == 1
    assert abs(est.paths[0].mu_hat - mu) < 0.5 * LUT.delta_mu


def test_interpolation_error_envelope_noiseless():
    # sweep the interior of one cell in both directions off the peak beam
    offsets = np.linspace(0.05, 0.95, 19)
    worst = 0.0
    for sign in (+1.0, -1.0):
        for off in offsets:
            mu = float(np.mod(ARR.beam_phases[4] + sign * off * 2 * np.pi / 16, 2 * np.pi))
            est = run_coarse(noiseless_observation(mu, 5.0))
            assert est.r_hat == 1
            err = abs((est.paths[0].mu_hat - mu + np.pi) % (2 * np.pi) - np.pi)
            worst = max(worst, err)
    assert worst < 0.75 * LUT.delta_mu


def test_theta_conversion_branches():
    assert mu_to_theta_deg(3 * np.pi / 2) == pytest.approx(-30.0, abs=1e-12)
    assert mu_to_theta_deg(np.pi / 2) == pytest.approx(30.0, abs=1e-12)
    assert mu_to_theta_deg(0.0) == 0.0


def test_fractional_delay_duplicate_merged():
    # a half-symbol delay splits across two adjacent diagonals; the weaker
    # copy carries the same angle and must be dropped
    mu = float(ARR.beam_phases[4]) + 0.011
    pm = correlate(noiseless_observation(mu, 5.42, pt=100.0))
    dets = detect_paths(pm, detection_threshold(1.0, 16))
    assert len(dets) >= 2
    est = coarse_estimate(pm, dets, LUT, ARR, CAZ, 1.0)
    assert est.r_hat == 1
    assert est.paths[0].tau_int == 5


def test_distinct_angles_not_merged():
    # adjacent delays but beams far apart stay separate paths
    y1 = noiseless_observation(float(ARR.beam_phases[2]), 5.0)
    y2 = noiseless_observation(float(ARR.beam_phases[9]), 6.0, alpha=0.6 + 0.0j)
    y = type(y1)(y=y1.y + y2.y, truth=y1.truth, arr=ARR, caz=CAZ)
    est = run_coarse(y)
    assert est.r_hat == 2


def test_feedback_budget():
    mu = float(ARR.beam_phases[4]) + LUT.delta_mu * 20.2
    est = run_coarse(noiseless_observation(mu, 3.0))
    fb = est.paths[0].feedback
    assert isinstance(fb.delta_ratio, float)
    assert 0 <= fb.beam_index_bits < 16
    assert int(fb.beam_index_bits).bit_length() <= 4


def test_coarse_estimate_requires_detections():
    pm = correlate(noiseless_observation(0.0, 0.0))
    with pytest.raises(ConfigurationError):
        coarse_estimate(pm, [], LUT, ARR, CAZ, 1.0)


def test_coarse_aod_error_below_beamwidth_at_0db():
    # direct-path-only scenario at 0 dB: coarse spatial frequency stays inside
    # the beam cell on average
    cfg = ScenarioConfig(n_nlos=0, snr_db=0.0)
    sq = []
    for trial in range(200):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(3, trial)))
        real = draw_realization(cfg, rng)
        y = synthesize(real, ARR, CAZ, rng)
        pm = correlate(y)
        dets = detect_paths(pm, G_DEFAULT)
        if not dets:
            continue
        est = coarse_estimate(pm, dets, LUT, ARR, CAZ, 1.0)
        best = min(est.paths, key=lambda p: p.tau_int)
        err = abs((best.mu_hat - real.paths[0].mu + np.pi) % (2 * np.pi) - np.pi)
        sq.append(err ** 2)
    assert len(sq) > 150
    assert np.sqrt(np.mean(sq)) < 2 * np.pi / 16


def per_diagonal_detections(p, g):
    """Reference scan: one ``wrap_diagonal`` and one ``argmax`` per diagonal."""
    out = []
    for i in range(1, p.shape[0] + 1):
        diag = wrap_diagonal(p, i)
        k = int(np.argmax(diag))
        if diag[k] >= g:
            out.append(Detection(diag_index=i, row_index=k + 1, peak_power=float(diag[k])))
    return out


def test_detect_paths_matches_per_diagonal_scan():
    rng = np.random.default_rng(23)
    for m in (1, 2, 5, 16):
        for _ in range(40):
            # continuous powers, and small integers that tie within and across diagonals
            for p in (rng.exponential(16.0, (m, m)), rng.integers(0, 4, (m, m)).astype(float)):
                pm = PowerMatrix(p=p, z=np.sqrt(p).astype(complex))
                # a threshold equal to one diagonal's peak keeps that diagonal (>= g)
                peak = float(wrap_diagonal(p, int(rng.integers(1, m + 1))).max())
                for g in (peak, 0.5, 2.5, 40.0):
                    if g > 0:
                        assert detect_paths(pm, g) == per_diagonal_detections(p, g)
