import numpy as np
import pytest

from beamest import (ArrayConfig, CazacConfig, ConfigurationError, ScenarioConfig,
                     build_lut, coarse_estimate, correlate, detect_paths,
                     detection_threshold, draw_realization, mu_to_theta_deg, pilot_matrix,
                     synthesize)
from beamest.channel import ChannelRealization, PathParams, ReceiveMatrix
from beamest.coarse import Detection, lut_interpolate

ARR = ArrayConfig(m=16)
CAZ = CazacConfig()
LUT = build_lut(ARR, 101)
G_DEFAULT = detection_threshold(1.0, 16)
# (M, L): the default, fewer beams than pilot symbols, a pilot longer than the delay span
SIZES = ((16, 16), (8, 16), (16, 25))


def single_path(mu, tau, alpha=1.0 + 0.0j, pt=1.0, noise_var=0.0):
    return ChannelRealization(
        paths=(PathParams(alpha=alpha, theta_deg=mu_to_theta_deg(mu), mu=mu,
                          tau_symbols=tau),),
        pt=pt, noise_var=noise_var)


def noiseless_observation(mu, tau, alpha=1.0 + 0.0j, pt=1.0):
    return synthesize(single_path(mu, tau, alpha, pt), ARR, CAZ)


def test_correlate_on_grid_single_entry():
    # beam k0 at delay i0 lands on row k0, column i0
    k0, i0 = 5, 3
    pm = correlate(noiseless_observation(float(ARR.beam_phases[k0]), float(i0)))
    peak = pm[k0, i0]
    assert peak == pytest.approx(4096.0, rel=1e-12)
    rest = pm.copy()
    rest[k0, i0] = 0.0
    assert np.max(rest) < 1e-18 * 4096.0


def test_correlate_zero_input():
    y = noiseless_observation(0.0, 0.0)
    pm = correlate(type(y)(y=np.zeros_like(y.y), arr=ARR, caz=CAZ))
    assert np.all(pm == 0.0)


@pytest.mark.parametrize("m", [4, 16])
def test_correlate_equals_the_pilot_matrix_product_bit_for_bit(m):
    # Z = Y C^H over all L lags, C the L x L pilot matrix of every shift; beam
    # k's power at delay d is its entry at lag (d + k) mod L
    arr = ArrayConfig(m=m)
    rng = np.random.default_rng(m)
    for _ in range(5):
        y = rng.standard_normal((m, 16)) + 1j * rng.standard_normal((m, 16))
        lags = np.abs(y @ pilot_matrix(CAZ, 16, 0.0).conj().T) ** 2
        brute = np.array([[lags[k, (d + k) % 16] for d in range(16)] for k in range(m)])
        pm = correlate(ReceiveMatrix(y=y, arr=arr, caz=CAZ))
        assert pm.tobytes() == brute.tobytes()


def test_wrap_diagonal_against_brute_force():
    # column i (1-based) of the power matrix is wrap-diagonal i of the all-lag
    # power matrix: beam k (1-based) at lag (i + k - 2) mod L
    rng = np.random.default_rng(1)
    for m, ell in ((4, 16), (8, 16), (16, 16), (16, 25), (4, 9)):
        arr, caz = ArrayConfig(m=m), CazacConfig(length=ell)
        y = rng.standard_normal((m, ell)) + 1j * rng.standard_normal((m, ell))
        lags = np.abs(y @ pilot_matrix(caz, ell, 0.0).conj().T) ** 2
        pm = correlate(ReceiveMatrix(y=y, arr=arr, caz=caz))
        assert pm.shape == (m, ell)
        for i in range(1, ell + 1):
            brute = np.array([lags[k - 1, (i + k - 2) % ell] for k in range(1, m + 1)])
            assert pm[:, i - 1].tobytes() == brute.tobytes(), (m, ell, i)


NOISE_ONLY = ChannelRealization(
    paths=(PathParams(alpha=0j, theta_deg=0.0, mu=0.0, tau_symbols=0.0),),
    pt=0.0, noise_var=1.0)


def test_correlate_noise_floor():
    # a noise-only entry sums L unit-modulus pilot symbols: mean noise_var * L
    rng = np.random.default_rng(0)
    for m, ell in SIZES:
        arr, caz = ArrayConfig(m=m), CazacConfig(length=ell)
        means = [np.mean(correlate(synthesize(NOISE_ONLY, arr, caz, rng))) for _ in range(100)]
        assert np.mean(means) == pytest.approx(float(ell), rel=0.1)


def test_detect_single_on_grid_path():
    # a peak on row 6, column 4 (1-based) means delay 3, beam 5
    p = np.zeros((16, 16))
    p[5, 3] = 4096.0
    dets = detect_paths(p, G_DEFAULT)
    assert dets == [Detection(delay_index=4, row_index=6, peak_power=4096.0)]
    assert dets[0].delay_index - 1 == 3


def test_detect_two_paths_same_delay_single_entry():
    p = np.zeros((16, 16))
    p[5, 3] = 4096.0
    p[9, 3] = 2048.0
    dets = detect_paths(p, G_DEFAULT)
    assert len(dets) == 1
    assert dets[0].row_index == 6


def test_detect_false_alarm_rate():
    # pure noise, default threshold: most trials produce no detection at all
    rng = np.random.default_rng(2)
    for m, ell in SIZES:
        arr, caz = ArrayConfig(m=m), CazacConfig(length=ell)
        g = detection_threshold(1.0, m, ell=ell)
        empty = 0
        for _ in range(1000):
            pm = correlate(synthesize(NOISE_ONLY, arr, caz, rng))
            if not detect_paths(pm, g):
                empty += 1
        assert empty >= 900, (m, ell)


def test_detection_threshold_value():
    assert detection_threshold(1.0, 16, 1e-3) == pytest.approx(16 * np.log(16000.0))
    assert detection_threshold(1.0, 16, 1e-3, ell=16) == detection_threshold(1.0, 16, 1e-3)
    assert detection_threshold(2.0, 8, 1e-3, ell=16) == pytest.approx(32 * np.log(8000.0))
    with pytest.raises(ConfigurationError):
        detection_threshold(1.0, 16, 0.0)
    # a noise variance that is no positive finite number is refused by name,
    # with or without ell
    for noise in (0.0, -1.0, np.nan, np.inf):
        for ell in (None, 16):
            with pytest.raises(ConfigurationError, match="noise variance"):
                detection_threshold(noise, 16, ell=ell)


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
    assert est.paths[0].feedback.beam_index_bits == 7
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
    # a half-symbol delay splits across two adjacent delays; the weaker
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
    y = type(y1)(y=y1.y + y2.y, arr=ARR, caz=CAZ)
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


def test_coarse_estimate_refuses_a_matrix_not_m_by_l():
    # an M x M matrix at M < L is the shape of the shifted layout, whose
    # columns are not delays: it must be refused, not read
    arr = ArrayConfig(m=8)
    dets = [Detection(delay_index=1, row_index=1, peak_power=100.0)]
    with pytest.raises(ConfigurationError, match=r"\(8, 8\).*\(M, L\) = \(8, 16\)"):
        coarse_estimate(np.ones((8, 8)), dets, build_lut(arr, 101), arr, CAZ, 1.0)


def test_fewer_beams_than_pilot_symbols_keep_every_delay():
    # with M < L every one of the L lags is correlated: a path on beam 3 at
    # delay 10 of an 8-beam array and a 16-symbol pilot is found where it is
    arr = ArrayConfig(m=8)
    mu = float(arr.beam_phases[3])
    y = synthesize(single_path(mu, 10.0, pt=1e3, noise_var=1.0), arr, CAZ,
                   np.random.default_rng(0))
    pm = correlate(y)
    dets = detect_paths(pm, detection_threshold(1.0, 8, ell=16))
    assert [(d.delay_index - 1, d.row_index - 1) for d in dets] == [(10, 3)]
    est = coarse_estimate(pm, dets, build_lut(arr, 101), arr, CAZ, 1.0)
    assert [(q.tau_int, q.feedback.beam_index_bits) for q in est.paths] == [(10, 3)]


def test_one_strong_off_grid_path_at_four_beams_is_one_path():
    # at (M, L) = (4, 16) a strong path between beams and delays spreads
    # power over several delays; against the noise floor noise_var * L none
    # of them is taken for a second path
    arr = ArrayConfig(m=4)
    lut = build_lut(arr, 101)
    rng = np.random.default_rng(31)
    mu = float(arr.beam_phases[1]) + 0.3 * 2 * np.pi / 4
    for _ in range(20):
        y = synthesize(single_path(mu, 6.4, pt=1e3, noise_var=1.0), arr, CAZ, rng)
        pm = correlate(y)
        dets = detect_paths(pm, detection_threshold(1.0, 4, ell=16))
        est = coarse_estimate(pm, dets, lut, arr, CAZ, 1.0)
        assert est.r_hat == 1 and est.paths[0].tau_int == 6


def test_coarse_aod_error_below_beamwidth_at_0db():
    # direct-path-only scenario at 0 dB: coarse spatial frequency stays inside
    # the beam cell on average
    cfg = ScenarioConfig(n_nlos=0)
    sq = []
    for trial in range(200):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(3, trial)))
        real = draw_realization(cfg, rng).with_snr_db(0.0)
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


def per_column_detections(p, g):
    """Reference scan: one ``argmax`` per delay column."""
    out = []
    for d in range(p.shape[1]):
        k = int(np.argmax(p[:, d]))
        if p[k, d] >= g:
            out.append(Detection(delay_index=d + 1, row_index=k + 1, peak_power=float(p[k, d])))
    return out


def test_detect_paths_matches_per_column_scan():
    rng = np.random.default_rng(23)
    for m, ell in ((1, 1), (2, 4), (5, 9), (16, 16), (8, 25)):
        for _ in range(40):
            # continuous powers, and small integers that tie within and across columns
            for p in (rng.exponential(16.0, (m, ell)),
                      rng.integers(0, 4, (m, ell)).astype(float)):
                # a threshold equal to one column's peak keeps that column (>= g)
                peak = float(p[:, rng.integers(ell)].max())
                for g in (peak, 0.5, 2.5, 40.0):
                    if g > 0:
                        assert detect_paths(p, g) == per_column_detections(p, g)


@pytest.mark.parametrize("m", [4, 16])
def test_stacked_correlation_and_scan_equal_lone_calls_bit_for_bit(m):
    # a sweep chunk correlates its (B, M, L) observation stack in one matmul
    # and scans every observation's delay columns in one pass
    arr, rng = ArrayConfig(m=m), np.random.default_rng(29)
    scen = ScenarioConfig(n_nlos=2)
    ys = []
    for _ in range(9):
        real = draw_realization(scen, rng).with_snr_db(float(rng.uniform(-15.0, 25.0)))
        ys.append(synthesize(real, arr, CAZ, rng).y)
    ys.append(np.zeros_like(ys[0]))
    stacked = correlate(ReceiveMatrix(y=np.stack(ys), arr=arr, caz=CAZ))
    lone = [correlate(ReceiveMatrix(y=y, arr=arr, caz=CAZ)) for y in ys]
    assert stacked.shape == (len(ys), m, 16)
    assert stacked.tobytes() == np.stack(lone).tobytes()
    g = detection_threshold(1.0, m, ell=16)
    found = detect_paths(stacked, g)
    assert found == [detect_paths(p, g) for p in lone]
    assert any(found) and not all(found)
    # a stack of one is a list of one list
    assert detect_paths(stacked[:1], g) == [detect_paths(lone[0], g)]
