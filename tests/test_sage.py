import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from beamest import (ArrayConfig, CazacConfig, ConfigurationError, PathEstimate,
                     SageConfig, ScenarioConfig, build_lut, cazac_base, coarse_estimate,
                     correlate, detect_paths, detection_threshold, draw_realization,
                     expectation_step, maximize_mu, maximize_tau, run_sage,
                     run_sage_from, synthesize, update_alpha)
from beamest.channel import ChannelRealization, PathParams, ReceiveMatrix, spatial_frequency
from beamest.coarse import mu_to_theta_deg
from beamest.harness import config_from_dict
from beamest.sage import _max_change, _tau_bounds, mu_objective_value, tau_objective_value
from beamest import _kernels

ARR = ArrayConfig(m=16)
CAZ = CazacConfig()
LUT = build_lut(ARR, 101)


def make_real(params, pt=1.0, noise_var=0.0):
    paths = tuple(PathParams(alpha=a, theta_deg=mu_to_theta_deg(mu), mu=mu,
                             tau_symbols=tau) for a, mu, tau in params)
    return ChannelRealization(paths=paths, pt=pt, noise_var=noise_var)


def observe(params, pt=1.0, noise_var=0.0, rng=None):
    return synthesize(make_real(params, pt, noise_var), ARR, CAZ, rng)


def estimates_from(params, pt=1.0):
    return [PathEstimate(mu_hat=mu, tau_hat=tau, alpha_hat=np.sqrt(pt) * a)
            for a, mu, tau in params]


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SageConfig(beta=0.0)
    with pytest.raises(ConfigurationError):
        SageConfig(gamma_stop=0.0)
    with pytest.raises(ConfigurationError):
        SageConfig(grid_points=4)


@pytest.mark.parametrize("field, value", [
    ("tau_window_symbols", -1.0),   # would return an unrefined grid point
    ("tau_window_symbols", 0.0),
    ("mu_window", -0.2),            # would search an inverted window
    ("mu_window", 0.0),
    ("mu_window", np.pi + 1e-9),    # would wrap the window onto itself
    ("grid_points", 64.5),          # would fail later inside linspace
    ("max_iterations", 2.5),
])
def test_config_refuses_bad_windows_and_non_integer_counts(field, value):
    with pytest.raises(ConfigurationError, match=field):
        SageConfig(**{field: value})
    with pytest.raises(ConfigurationError, match="sage"):
        config_from_dict({"sage": {field: value}})


def test_expectation_step_single_path_is_observation():
    y = observe([(1.0 + 0j, 1.2, 0.0)])
    x = expectation_step(y, estimates_from([(1.0 + 0j, 1.2, 0.0)]), 0, SageConfig())
    assert np.array_equal(x, y.y)


def test_expectation_step_subtracts_other_paths_exactly():
    params = [(1.0 + 0j, 1.9, 0.0), (0.4 * np.exp(0.6j), 0.3, 6.4)]
    y = observe(params, pt=1.0)
    ests = estimates_from(params)
    for r in (0, 1):
        x = expectation_step(y, ests, r, SageConfig())
        alone = observe([params[r]], pt=1.0).y
        assert np.linalg.norm(x - alone) < 1e-10


def test_expectation_step_beta_blend():
    params = [(0.7 + 0.2j, 2.4, 3.0)]
    y = observe(params)
    ests = estimates_from(params)
    x = expectation_step(y, ests, 0, SageConfig(beta=0.5))
    recon = observe(params).y
    assert np.allclose(x, 0.5 * recon + 0.5 * y.y, atol=1e-12)


def test_maximize_tau_recovers_integer_delay():
    # a lone noise-free path peaks exactly on the integer, with zero slope on
    # either side, so no piece's interpolant falls away from it by more than
    # its error bound: the search zooms and still lands within refine_tol
    cfg = SageConfig()
    y = observe([(1.0 + 0j, 1.9, 3.0)])
    tau = maximize_tau(y.y, 1.9, cfg, 3.0, arr=ARR, caz=CAZ)
    assert abs(tau - 3.0) <= cfg.refine_tol


def test_maximize_tau_recovers_fractional_delay():
    y = observe([(1.0 + 0j, 4.0, 5.37)])
    tau = maximize_tau(y.y, 4.0, SageConfig(), 5.0, arr=ARR, caz=CAZ)
    assert abs(tau - 5.37) < 1e-4


def test_maximize_tau_objective_deterministic():
    y = observe([(1.0 + 0j, 4.0, 5.37)], noise_var=0.5, rng=np.random.default_rng(0))
    a = tau_objective_value(y.y, 4.0, 5.21, SageConfig(), arr=ARR, caz=CAZ)
    b = tau_objective_value(y.y, 4.0, 5.21, SageConfig(), arr=ARR, caz=CAZ)
    assert a == b


def test_maximize_tau_degenerate_input_returns_center():
    zero = np.zeros((16, 16), dtype=complex)
    assert maximize_tau(zero, 1.0, SageConfig(), 4.0, arr=ARR, caz=CAZ) == 4.0


def test_maximize_mu_on_grid():
    mu = float(ARR.beam_phases[6])
    y = observe([(1.0 + 0j, mu, 2.0)])
    cfg = SageConfig(refine_tol=1e-10)
    est = maximize_mu(y.y, 2.0, cfg, mu + 0.05, arr=ARR, caz=CAZ)
    assert abs(est - mu) < 1e-8


def test_maximize_mu_off_grid():
    mu = float(ARR.beam_phases[6]) + 0.4 * 2 * np.pi / 16
    y = observe([(1.0 + 0j, mu, 2.0)])
    est = maximize_mu(y.y, 2.0, SageConfig(), float(ARR.beam_phases[6]), arr=ARR, caz=CAZ)
    assert abs(est - mu) < 1e-6


def test_maximize_mu_window_wrap():
    mu_true = 0.05
    y = observe([(1.0 + 0j, mu_true, 0.0)])
    est = maximize_mu(y.y, 0.0, SageConfig(), 2 * np.pi - 0.1, arr=ARR, caz=CAZ)
    assert abs((est - mu_true + np.pi) % (2 * np.pi) - np.pi) < 1e-6
    assert 0.0 <= est < 2 * np.pi


def test_update_alpha_forward_backward():
    # pt = 4 with unit path gain: the combined-gain estimate is 2
    y = observe([(1.0 + 0j, 2.2, 4.5)], pt=4.0)
    alpha = update_alpha(y.y, 2.2, 4.5, arr=ARR, caz=CAZ)
    assert abs(alpha - 2.0) < 1e-10


def test_update_alpha_zero_and_scaling():
    zero = np.zeros((16, 16), dtype=complex)
    assert update_alpha(zero, 1.0, 3.0, arr=ARR, caz=CAZ) == 0.0
    y = observe([(0.8 - 0.3j, 1.1, 6.6)])
    base = update_alpha(y.y, 1.1, 6.6, arr=ARR, caz=CAZ)
    scaled = update_alpha((2.0 - 1.5j) * y.y, 1.1, 6.6, arr=ARR, caz=CAZ)
    assert abs(scaled - (2.0 - 1.5j) * base) < 1e-12


@pytest.mark.parametrize("pulse", [{}, {"rolloff": 0.0}, {"pulse_halfwidth": 20}])
@pytest.mark.parametrize("m, ell", [(16, 16), (8, 16), (16, 25), (4, 9)])
def test_element_lag_domain_is_unitary_with_rank_one_paths(m, ell, pulse):
    # Y -> Q / sqrt(L) is unitary (a unitary codebook, and base-pilot shifts
    # with perfect periodic autocorrelation), and a lone path alpha A(mu)
    # C(tau) maps to alpha s(mu) (L f_tau)^T; with pulse_halfwidth = 20 the
    # 40 taps fold onto L lags with collisions
    from beamest.arrays import beam_gains
    from beamest.channel import path_signal
    from beamest.sage import _element_lag, _path_terms, _pilots
    arr, caz = ArrayConfig(m=m), CazacConfig(length=ell, **pulse)

    def folded(taus):
        return _kernels.folded_taps(taus, caz.rolloff, caz.pulse_halfwidth, ell)
    rng = np.random.default_rng(m * ell)
    y = rng.standard_normal((3, m, ell)) + 1j * rng.standard_normal((3, m, ell))
    np.testing.assert_allclose(np.sum(np.abs(_element_lag(arr, caz, y)) ** 2, axis=(1, 2)),
                               ell * np.sum(np.abs(y) ** 2, axis=(1, 2)), rtol=1e-13)

    alphas = np.array([0.7 - 0.4j, -1.3 + 0.2j, 0.05j, 2.0])
    mus = np.array([2.345, 0.0, 6.2, 2 * np.pi / m * 3])
    taus = [0.37 * ell, 3.0, ell - 0.2, 0.0]
    x = path_signal(alphas, beam_gains(arr, mus), _pilots(caz, taus))
    terms = _path_terms(ell, alphas, _kernels._phase_rows(m, mus), folded(taus))
    q = _element_lag(arr, caz, x)
    assert np.max(np.abs(q - terms)) <= 1e-13 * np.max(np.abs(terms))

    # at an integer delay the folded taps are the unit vector e_(tau mod L)
    integers = np.arange(ell + 1)
    assert np.array_equal(folded(integers.astype(float)), np.eye(ell)[integers % ell])


def random_two_path(rng):
    th = rng.uniform(-60, 60, 2)
    mus = [spatial_frequency(t) for t in th]
    tau = rng.uniform(3.0, 15.0)
    gamma = rng.uniform(0.2, 0.9)
    phase = rng.uniform(0, 2 * np.pi)
    return [(1.0 + 0j, mus[0], 0.0), (gamma * np.exp(1j * phase), mus[1], float(tau))]


def run_pipeline(y, noise_var=1.0, sage_cfg=None):
    pm = correlate(y)
    dets = detect_paths(pm, detection_threshold(noise_var, 16))
    coarse = coarse_estimate(pm, dets, LUT, ARR, CAZ, noise_var)
    refined = run_sage(y, coarse, sage_cfg or SageConfig(), noise_var)
    return coarse, refined


def test_noiseless_two_path_recovery():
    rng = np.random.default_rng(11)
    for _ in range(5):
        params = random_two_path(rng)
        y = observe(params)
        coarse, refined = run_pipeline(y)
        assert coarse.r_hat == 2
        for truth_a, truth_mu, truth_tau in params:
            best = min(refined.paths, key=lambda p: abs(p.tau_hat - truth_tau))
            assert abs((best.mu_hat - truth_mu + np.pi) % (2 * np.pi) - np.pi) < 1e-6
            assert abs(best.tau_hat - truth_tau) < 1e-4
            assert abs(best.alpha_hat - truth_a) / abs(truth_a) < 1e-6


def test_refinement_is_ascent_on_own_objectives():
    rng = np.random.default_rng(3)
    params = random_two_path(rng)
    y = observe(params, noise_var=1.0, rng=rng)
    cfg = SageConfig()
    x = expectation_step(y, estimates_from(params), 1, cfg)
    center_tau = round(params[1][2])
    tau = maximize_tau(x, params[1][1], cfg, center_tau, arr=ARR, caz=CAZ)
    before = tau_objective_value(x, params[1][1], center_tau, cfg, arr=ARR, caz=CAZ)
    after = tau_objective_value(x, params[1][1], tau, cfg, arr=ARR, caz=CAZ)
    assert after >= before - 1e-9 * abs(before)
    mu = maximize_mu(x, tau, cfg, params[1][1], arr=ARR, caz=CAZ)
    before = mu_objective_value(x, tau, params[1][1], cfg, arr=ARR, caz=CAZ)
    after = mu_objective_value(x, tau, mu, cfg, arr=ARR, caz=CAZ)
    assert after >= before - 1e-9 * abs(before)


def test_fixed_point_at_truth():
    params = [(1.0 + 0j, 2.345, 0.0), (0.4 * np.exp(0.7j), 5.1, 7.63)]
    y = observe(params)
    cfg = SageConfig(refine_tol=1e-10)
    refined = run_sage_from(y, estimates_from(params), cfg)
    for (a, mu, tau), est in zip(params, refined.paths):
        assert abs((est.mu_hat - mu + np.pi) % (2 * np.pi) - np.pi) < 1e-8
        assert abs(est.tau_hat - tau) < 1e-8
        assert abs(est.alpha_hat - a) < 1e-7


def test_step_helpers_equal_one_loop_update():
    # the public helpers chain the loop's own steps.  With one path the hidden
    # observation is the observation itself, and the first path update of one
    # pass equals the chain bit for bit, not merely to rounding; with two, the
    # loop subtracts the other path's element-lag term where the helpers
    # transform the observation-domain residual, which agrees to rounding
    rng = np.random.default_rng(21)
    cfg = SageConfig(max_iterations=1)
    for n_nlos in (0, 1):
        for _ in range(50):
            real = draw_realization(ScenarioConfig(n_nlos=n_nlos), rng).with_snr_db(10.0)
            y = synthesize(real, ARR, CAZ, rng)
            start = [PathEstimate(mu_hat=p.mu + rng.uniform(-0.05, 0.05),
                                  tau_hat=p.tau_symbols + rng.uniform(-0.3, 0.3),
                                  alpha_hat=g * (1.0 + 0.1 * rng.standard_normal()))
                     for p, g in zip(real.paths, real.gains())]
            loop = run_sage_from(y, start, cfg).paths[0]
            x = expectation_step(y, start, 0, cfg)
            tau = maximize_tau(x, start[0].mu_hat, cfg, start[0].tau_hat, arr=ARR, caz=CAZ)
            mu = maximize_mu(x, tau, cfg, start[0].mu_hat, arr=ARR, caz=CAZ)
            alpha = update_alpha(x, mu, tau, arr=ARR, caz=CAZ)
            if n_nlos == 0:
                assert (loop.tau_hat, loop.mu_hat, loop.alpha_hat) == (tau, mu, alpha)
            else:
                assert abs(loop.tau_hat - tau) <= 1e-10
                assert abs((loop.mu_hat - mu + np.pi) % (2 * np.pi) - np.pi) <= 1e-10
                assert abs(loop.alpha_hat - alpha) <= 1e-10


def test_single_path_refinement_not_worse_than_coarse():
    rng = np.random.default_rng(5)
    real = draw_realization(ScenarioConfig(n_nlos=0), rng).with_snr_db(10.0)
    y = synthesize(real, ARR, CAZ, rng)
    coarse, refined = run_pipeline(y)
    cfg = SageConfig()
    init = coarse.paths[0]
    x = y.y  # single path: the hidden observation is the observation itself
    before = tau_objective_value(x, init.mu_hat, float(init.tau_int), cfg, arr=ARR, caz=CAZ)
    after = tau_objective_value(x, refined.paths[0].mu_hat, refined.paths[0].tau_hat,
                                cfg, arr=ARR, caz=CAZ)
    assert after >= before - 1e-9 * abs(before)


def test_monotone_likelihood_over_iterations():
    # with beta = 1 and exact coordinate maximizers the data log-likelihood
    # (up to constants, the negated residual power) never decreases
    from beamest.sage import _reconstructions

    def residual_power(y, current):
        total = np.zeros_like(y.y)
        for e in current:
            if e.alpha_hat != 0:
                total += _reconstructions(ARR, CAZ, [e])[0]
        return float(np.linalg.norm(y.y - total) ** 2)

    rng = np.random.default_rng(7)
    for _ in range(100):
        params = random_two_path(rng)
        pt = 10.0 ** (rng.uniform(0, 20) / 10)
        y = observe(params, pt=pt, noise_var=1.0, rng=rng)
        current = [PathEstimate(p.mu_hat, float(p.tau_int), 0j)
                   for p in run_pipeline(y)[0].paths]
        prev = residual_power(y, current)
        for _ in range(4):
            refined = run_sage_from(y, current, SageConfig(max_iterations=1))
            current = list(refined.paths)
            now = residual_power(y, current)
            assert now <= prev + 1e-6 * max(1.0, prev)
            prev = now


def test_run_sage_requires_paths():
    y = observe([(1.0 + 0j, 1.0, 0.0)])
    with pytest.raises(ConfigurationError):
        run_sage_from(y, [], SageConfig())


def test_noise_only_input_never_raises():
    real = ChannelRealization(
        paths=(PathParams(alpha=0j, theta_deg=0.0, mu=0.0, tau_symbols=0.0),),
        pt=0.0, noise_var=1.0)
    y = synthesize(real, ARR, CAZ, np.random.default_rng(13))
    init = [PathEstimate(mu_hat=1.0, tau_hat=2.0, alpha_hat=0j)]
    refined = run_sage_from(y, init, SageConfig())
    assert refined.iterations <= SageConfig().max_iterations
    assert all(np.isfinite(abs(p.alpha_hat)) for p in refined.paths)


def test_late_delay_window_reaches_wrap_region():
    # a delay beyond L-1 symbols is still representable: the pilot model is
    # periodic in the delay, so the window upper edge extends to L
    params = [(1.0 + 0j, 1.2, 0.0), (0.6 + 0j, 4.4, 15.6)]
    y = observe(params)
    tau = maximize_tau(y.y - observe([params[0]]).y, 4.4, SageConfig(), 15.0,
                       arr=ARR, caz=CAZ)
    assert abs(tau - 15.6) < 1e-4


def brute_force_maximizers(x, mu_t, tau_t, center, n_points=100000):
    """Independent oracle: dense scans of the raw search objectives."""
    from beamest.arrays import beam_gains
    from beamest.pilots import _conj_shifts
    from beamest.sage import _gathered, _pilots, _tau_bounds
    xg = _gathered(x)
    z = (beam_gains(ARR, mu_t).conj()[:, None] * xg).sum(axis=0)
    w = _conj_shifts(CAZ) @ z
    lo, hi = _tau_bounds(center, SageConfig(), 16)
    taus = np.linspace(lo, hi, n_points)
    vals = _kernels.tau_objective(w, taus, CAZ.rolloff, CAZ.pulse_halfwidth, 16)
    tau_best = float(taus[int(np.argmax(vals))])

    v = _pilots(CAZ, [tau_t])[0]
    q = (xg * v.conj()[None, :]).sum(axis=1)
    qt = 16 * np.fft.ifft(q)
    half = 2 * np.pi / 16
    mus = np.linspace(mu_t + 0.03 - half, mu_t + 0.03 + half, n_points)
    vals = _kernels.mu_objective(qt, mus)
    mu_best = float(np.mod(mus[int(np.argmax(vals))], 2 * np.pi))
    return tau_best, mu_best


@pytest.mark.parametrize("length, halfwidth", [(4, 8), (16, 8), (9, 8), (4, 2), (4, 3), (4, 4)])
def test_tau_objective_is_the_pilot_row_quotient(length, halfwidth):
    # the objective is |v^H z|^2 / ||v||^2 for w the pilot-shift correlation of
    # z; at (4, 8) taps 2L and 3L apart land on one shift too
    from beamest.pilots import _conj_shifts
    caz = CazacConfig(length=length, pulse_halfwidth=halfwidth)
    rng = np.random.default_rng(length + halfwidth)
    z = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    taus = np.linspace(0.0, length, 41)
    v = _kernels.pilot_rows(cazac_base(caz), taus, caz.rolloff, halfwidth)
    ref = np.abs(v.conj() @ z) ** 2 / np.sum(np.abs(v) ** 2, axis=1)
    got = _kernels.tau_objective(_conj_shifts(caz) @ z, taus, caz.rolloff, halfwidth, length)
    np.testing.assert_allclose(got, ref, rtol=1e-12)


@pytest.mark.parametrize("halfwidth", [8, 11])    # 11 > L/2: taps wrap onto each other
@pytest.mark.parametrize("rolloff", [0.0, 0.25, 0.3])
def test_tau_objective_array_matches_scalar_calls(rolloff, halfwidth):
    # the dense-scan oracles evaluate the objective over a whole grid in one
    # call; every grid point must equal the scalar call the searches make
    rng = np.random.default_rng(4)
    w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    integers = np.arange(-3.0, 20.0)             # one more tap in the support
    taus = [np.linspace(-3.0, 19.0, 1001), integers, integers + 1e-13]
    if rolloff > 0.0:                             # taps on the roll-off poles
        taus += [integers + 1.0 / (2 * rolloff), integers - 1.0 / (2 * rolloff)]
    taus = np.concatenate(taus)
    vec = _kernels.tau_objective(w, taus, rolloff, halfwidth, 16)
    ref = np.array([_kernels.tau_objective(w, t, rolloff, halfwidth, 16) for t in taus])
    assert vec.shape == taus.shape
    assert np.max(np.abs(vec - ref)) <= 1e-12 * np.max(ref)
    assert isinstance(_kernels.tau_objective(w, 3.2, rolloff, halfwidth, 16), float)

    # independent of the tap bookkeeping: fold each pilot row back onto the
    # L cyclic shifts of the base sequence, which are orthogonal
    cbase = cazac_base(CAZ)
    shifts = np.stack([np.roll(cbase, r) for r in range(16)], axis=1)
    g = np.array([shifts.conj().T @ _kernels.pilot_rows(cbase, [t], rolloff, halfwidth)[0]
                  for t in taus]) / 16
    folded = np.abs(g @ w) ** 2 / (16 * np.sum(np.abs(g) ** 2, axis=1))
    assert np.max(np.abs(vec - folded)) <= 1e-12 * np.max(folded)


def test_mu_objective_array_matches_scalar_calls():
    rng = np.random.default_rng(4)
    qt = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    mus = np.concatenate([np.linspace(-0.5, 0.5, 501),       # across the 2*pi wrap
                          np.linspace(2 * np.pi - 0.5, 2 * np.pi + 0.5, 501)])
    vec = _kernels.mu_objective(qt, mus)
    ref = np.array([_kernels.mu_objective(qt, m) for m in mus])
    assert vec.shape == mus.shape
    assert np.max(np.abs(vec - ref)) <= 1e-12 * np.max(ref)
    assert isinstance(_kernels.mu_objective(qt, 1.3), float)


def test_grid_plus_zoom_matches_brute_force():
    # 1e5-point scans as the independent maximizer oracle
    rng = np.random.default_rng(17)
    cfg = SageConfig(refine_tol=1e-9)
    worst_tau = 0.0
    worst_mu = 0.0
    for _ in range(10):
        params = random_two_path(rng)
        y = observe(params, pt=3.0, noise_var=1.0, rng=rng)
        x = expectation_step(y, estimates_from(params, pt=3.0), 1, cfg)
        mu_t, tau_t = params[1][1], params[1][2]
        center = round(tau_t)
        tau_brute, mu_brute = brute_force_maximizers(x, mu_t, tau_t, center)
        tau_hat = maximize_tau(x, mu_t, cfg, center, arr=ARR, caz=CAZ)
        mu_hat = maximize_mu(x, tau_t, cfg, mu_t + 0.03, arr=ARR, caz=CAZ)
        worst_tau = max(worst_tau, abs(tau_hat - tau_brute))
        worst_mu = max(worst_mu, abs((mu_hat - mu_brute + np.pi) % (2 * np.pi) - np.pi))
    assert worst_tau <= 1e-5
    assert worst_mu <= 1e-5


# the configurations the suite runs SAGE with: (SageConfig, ArrayConfig, CazacConfig)
LATTICE_CASES = {
    "defaults": (SageConfig(), ARR, CAZ),
    "grid8": (SageConfig(grid_points=8), ARR, CAZ),
    "tau0.5": (SageConfig(tau_window_symbols=0.5), ARR, CAZ),
    "tau2.5": (SageConfig(tau_window_symbols=2.5), ARR, CAZ),
    "mu0.1": (SageConfig(mu_window=0.1), ARR, CAZ),
    "mu0.3": (SageConfig(mu_window=0.3), ARR, CAZ),
    "mu0.6": (SageConfig(mu_window=0.6), ARR, CAZ),
    "mu_pi": (SageConfig(mu_window=np.pi), ARR, CAZ),
    "rolloff0": (SageConfig(), ARR, CazacConfig(rolloff=0.0)),
    "halfwidth20": (SageConfig(), ARR, CazacConfig(pulse_halfwidth=20)),
    "m8": (SageConfig(), ArrayConfig(m=8), CAZ),
    "l25": (SageConfig(), ARR, CazacConfig(length=25)),
    "l289": (SageConfig(), ARR, CazacConfig(length=289)),
}


def first_rounds(monkeypatch, search, *args):
    # the points and values each search's first round hands to the zoom, with
    # no zoom round run
    seen = []
    monkeypatch.setattr(_kernels, "_zoom_max",
                        lambda f, x, fx, tol, settled: seen.append((x, fx)) or x[0])
    search(*args)
    return tuple(zip(*seen))


@pytest.mark.parametrize("case", LATTICE_CASES)
def test_first_round_is_each_objective_on_its_lattice(monkeypatch, case):
    # both first rounds are table reads, calling no objective, whose values
    # equal the objectives at the same points bit for bit; each covers the
    # window [max(0, c - w), min(L, c + w)] or c +/- half (c wrapped into
    # [0, 2*pi)), rounded outward to its lattice, no coarser than a
    # grid_points grid on that window
    from beamest.sage import (_angle_statistics, _delay_statistics, _search_angles,
                              _search_delays)
    cfg, arr, caz = LATTICE_CASES[case]
    ell, m = caz.length, arr.m
    rng = np.random.default_rng(31)
    tau_centers = [0.0, 0.3, ell / 2 + 0.37, ell - 0.2, float(ell)]
    mu_centers = [0.0, 0.05, 3.0, 2 * np.pi - 0.02, 7.0, -0.3]
    # the statistics of random element-lag stacks, at random fixed parameters
    q = rng.standard_normal((11, m, ell)) + 1j * rng.standard_normal((11, m, ell))
    w = _delay_statistics(q[:5], rng.uniform(0, 2 * np.pi, 5))
    qt = _angle_statistics(caz, q[5:], rng.uniform(0, ell, 6))[1]
    tau_calls = counted(monkeypatch, "tau_objective")
    mu_calls = counted(monkeypatch, "mu_objective")
    txs, tfs = first_rounds(monkeypatch, _search_delays, caz, w, tau_centers, cfg)
    mxs, mfs = first_rounds(monkeypatch, _search_angles, arr, qt, mu_centers, cfg)
    assert tau_calls == mu_calls == []
    monkeypatch.undo()

    half = 2 * np.pi / m if cfg.mu_window is None else cfg.mu_window
    tau_w = cfg.tau_window_symbols
    windows = [(max(0.0, c - tau_w), min(ell, c + tau_w), min(tau_w, ell), x, fx,
                _kernels.tau_objective(w[b], x, caz.rolloff, caz.pulse_halfwidth, ell))
               for b, (c, x, fx) in enumerate(zip(tau_centers, txs, tfs))]
    windows += [(c % (2 * np.pi) - half, c % (2 * np.pi) + half, 2 * half, x, fx,
                 _kernels.mu_objective(qt[b], x))
                for b, (c, x, fx) in enumerate(zip(mu_centers, mxs, mfs))]
    for lo, hi, narrowest, x, fx, ref in windows:
        np.testing.assert_array_equal(fx, ref)
        step = x[1] - x[0]
        np.testing.assert_allclose(np.diff(x), step, rtol=1e-9)
        assert step <= narrowest / (cfg.grid_points - 1)
        assert x[0] <= lo < x[0] + step and x[-1] - step < hi <= x[-1]
    assert [txs[0][0], txs[-1][-1]] == [0.0, ell]


@pytest.mark.parametrize("field, value", [("tau_window_symbols", 1e-6), ("mu_window", 1e-6),
                                          ("grid_points", 10 ** 6)])
def test_search_refuses_a_lattice_table_past_its_bound(field, value):
    # a window far narrower than grid_points steps would need a table of
    # ~1e9 entries; the search refuses it before building anything
    cfg = SageConfig(**{field: value})
    y = observe([(1.0 + 0j, 2.0, 4.0)])
    if field != "mu_window":
        with pytest.raises(ConfigurationError, match=r"sage\.tau_window_symbols"):
            maximize_tau(y.y, 2.0, cfg, 4.0, arr=ARR, caz=CAZ)
    if field != "tau_window_symbols":
        with pytest.raises(ConfigurationError, match=r"sage\.mu_window"):
            maximize_mu(y.y, 4.0, cfg, 2.0, arr=ARR, caz=CAZ)


def test_angle_searches_across_the_wrap_equal_lone_searches():
    # windows that cross 0 or 2*pi, alone and in one batch, each as if alone
    from beamest.sage import _search_angles
    rng = np.random.default_rng(12)
    centers = [0.05, 2 * np.pi - 0.05, 6.3, -0.2, 3.0]
    q = rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16))
    cfg = SageConfig()
    lone = [_search_angles(ARR, q[b:b + 1], [c], cfg)[0] for b, c in enumerate(centers)]
    assert _search_angles(ARR, q, centers, cfg) == lone
    assert all(0.0 <= mu < 2 * np.pi for mu in lone)


@pytest.mark.parametrize("caz", [CAZ, CazacConfig(length=25), CazacConfig(pulse_halfwidth=20)],
                         ids=["l16", "l25", "halfwidth20"])
def test_delay_searches_across_window_starts_equal_lone_searches(caz):
    # windows starting at different integers read one table's rows rotated
    # by their starts; alone and in one batch, each is as if alone.  With
    # pulse_halfwidth = 20 the 40 taps fold onto the 16 lags with collisions
    from beamest.sage import _search_delays
    ell = caz.length
    rng = np.random.default_rng(ell + caz.pulse_halfwidth)
    centers = [0.0, 0.3, ell / 2 + 0.37, ell - 0.2, float(ell)]
    w = rng.standard_normal((5, ell)) + 1j * rng.standard_normal((5, ell))
    cfg = SageConfig()
    lone = [_search_delays(caz, w[b:b + 1], [c], cfg)[0] for b, c in enumerate(centers)]
    assert _search_delays(caz, w, centers, cfg) == lone
    # each within its window [max(0, c - 1), min(L, c + 1)], rounded outward
    # to the lattice 1/64
    step = 1.0 / 64
    assert all(max(0.0, c - 1.0) - step < tau < min(ell, c + 1.0) + step
               for c, tau in zip(centers, lone))


def test_delay_table_grows_linearly_in_the_pilot_length():
    # the table holds the folded taps across one window's reach and their
    # energies, L entries each per lattice row, so at a fixed window it
    # grows as L (a table over the full period would grow as L^2); a
    # default search runs at L = 400
    from beamest.sage import _delay_table
    cfg = SageConfig()
    sizes = {ell: sum(a.size for a in _delay_table(CazacConfig(length=ell), cfg)[4:])
             for ell in (16, 100, 400)}
    assert sizes[400] == 4 * sizes[100] == 25 * sizes[16]
    caz = CazacConfig(length=400)
    y = synthesize(make_real([(1.0 + 0j, 2.0, 123.4)]), ARR, caz)
    assert abs(maximize_tau(y.y, 2.0, cfg, 123.0, arr=ARR, caz=caz) - 123.4) < 1e-4


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_refinement_refuses_a_non_finite_observation(bad):
    # a NaN or inf in the observation would come back as a NaN gain with
    # converged = False; each entry refuses it where it takes the observation
    # to the element-lag domain, also in one slab of a batch.  The expectation
    # step's residual carries it to the helpers, which refuse it
    from beamest.sage import run_sage_batch
    clean = observe([(1.0 + 0j, 2.2, 4.0)])
    coarse = run_pipeline(clean)[0]
    y = replace(clean, y=clean.y.copy())
    y.y[3, 5] = bad
    start = [PathEstimate(mu_hat=2.2, tau_hat=4.0, alpha_hat=0j)]
    cfg = SageConfig()
    entries = [lambda: run_sage(y, coarse, cfg, 1.0),
               lambda: run_sage_from(y, start, cfg),
               lambda: run_sage_batch(replace(y, y=np.stack([clean.y, y.y])), [coarse] * 2, cfg),
               lambda: maximize_tau(expectation_step(y, start, 0, cfg), 2.2, cfg, 4.0,
                                    arr=ARR, caz=CAZ),
               lambda: maximize_tau(y.y, 2.2, cfg, 4.0, arr=ARR, caz=CAZ),
               lambda: maximize_mu(y.y, 4.0, cfg, 2.2, arr=ARR, caz=CAZ),
               lambda: update_alpha(y.y, 2.2, 4.0, arr=ARR, caz=CAZ)]
    for entry in entries:
        with pytest.raises(ConfigurationError, match="finite observation"):
            entry()
    # a non-finite initial gain is refused by name, not as the observation
    with pytest.raises(ConfigurationError, match="initial gain"):
        run_sage_from(clean, [replace(start[0], alpha_hat=complex(bad, 0.0))], cfg)


def returns_within(fn, seconds=20.0):
    # a search that cannot narrow its bracket would spin forever: fail instead
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "search did not return"
    return out[0]


def test_searches_stop_at_tolerance_below_float_spacing():
    # adjacent floats are 8.9e-16 apart near tau = 6.3 and 2.2e-16 near
    # mu = 1.46, so a 1e-16 bracket is out of reach
    rng = np.random.default_rng(23)
    y = observe([(1.0 + 0j, 1.48, 6.3)], pt=3.0, noise_var=1.0, rng=rng)
    fine = SageConfig(refine_tol=1e-16)
    ref = SageConfig(refine_tol=1e-9)
    tau = returns_within(lambda: maximize_tau(y.y, 1.48, fine, 6.0, arr=ARR, caz=CAZ))
    mu = returns_within(lambda: maximize_mu(y.y, 6.3, fine, 1.48, arr=ARR, caz=CAZ))
    assert abs(tau - maximize_tau(y.y, 1.48, ref, 6.0, arr=ARR, caz=CAZ)) <= 1e-8
    assert abs(mu - maximize_mu(y.y, 6.3, ref, 1.48, arr=ARR, caz=CAZ)) <= 1e-8
    # a peak past a clipped window end, down to the smallest positive tolerance
    for tol in (1e-16, 5e-324):
        for tau_true, center, edge in ((15.6, 0.5, 0.0), (0.3, 15.5, 16.0)):
            y = observe([(1.0 + 0j, 2.2, tau_true)])
            tau = returns_within(lambda: maximize_tau(
                y.y, 2.2, SageConfig(refine_tol=tol), center, arr=ARR, caz=CAZ))
            assert abs(tau - edge) <= 1e-8


@pytest.mark.parametrize("center", [-1.5, 17.25])
def test_delay_search_refuses_a_center_with_an_empty_window(center):
    # a center more than the half-width outside [0, L] leaves no window to
    # search
    y = observe([(1.0 + 0j, 2.2, 4.0)])
    with pytest.raises(ConfigurationError, match="outside"):
        maximize_tau(y.y, 2.2, SageConfig(), center, arr=ARR, caz=CAZ)


def test_delay_search_refuses_an_empty_window_before_a_vanishing_statistic():
    # an all-zero hidden observation has nothing to search, but a center more
    # than the half-width outside [0, L] is refused before that shortcut, in
    # the helper and in the loop, as it is on a nonzero observation
    start = PathEstimate(mu_hat=1.0, tau_hat=-5.0, alpha_hat=0j)
    for y in (observe([(1.0 + 0j, 1.0, 4.0)]).y, np.zeros((16, 16), dtype=complex)):
        with pytest.raises(ConfigurationError, match="outside"):
            maximize_tau(y, 1.0, SageConfig(), -5.0, arr=ARR, caz=CAZ)
        with pytest.raises(ConfigurationError, match="outside"):
            run_sage_from(ReceiveMatrix(y=y, arr=ARR, caz=CAZ), [start], SageConfig())


@pytest.mark.parametrize("center", [np.nan, np.inf, -np.inf])
def test_searches_refuse_a_non_finite_center(center):
    # max(0, nan) is 0, so a NaN delay window would search [0, L]; the angle
    # window's lattice rounding would fail on floor(nan).  An all-zero hidden
    # observation has nothing to search, but the center is refused before
    # that shortcut, in the helpers and in the loop
    zero = ReceiveMatrix(y=np.zeros((16, 16), dtype=complex), arr=ARR, caz=CAZ)
    for y in (observe([(1.0 + 0j, 2.2, 4.0)]), zero):
        with pytest.raises(ConfigurationError, match="delay search center"):
            maximize_tau(y.y, 2.2, SageConfig(), center, arr=ARR, caz=CAZ)
        with pytest.raises(ConfigurationError, match="angle search center"):
            maximize_mu(y.y, 4.0, SageConfig(), center, arr=ARR, caz=CAZ)
        for field, search in (("tau_hat", "delay"), ("mu_hat", "angle")):
            start = replace(PathEstimate(mu_hat=2.2, tau_hat=4.0, alpha_hat=0j),
                            **{field: center})
            with pytest.raises(ConfigurationError, match=f"{search} search center"):
                run_sage_from(y, [start], SageConfig())


@pytest.mark.parametrize("tau_true, center, edge", [(15.6, 0.5, 0.0),    # window [0, 1.5]
                                                    (0.3, 15.5, 16.0)])  # window [14.5, L]
def test_delay_search_returns_clipped_window_edge(tau_true, center, edge):
    # the peak lies across the cyclic wrap, just past the clipped edge
    cfg = SageConfig()
    assert edge in _tau_bounds(center, cfg, 16)
    y = observe([(1.0 + 0j, 2.2, tau_true)])
    tau = maximize_tau(y.y, 2.2, cfg, center, arr=ARR, caz=CAZ)
    assert abs(tau - edge) <= cfg.refine_tol


@pytest.mark.parametrize("side", [-1, 1])
def test_angle_search_returns_window_edge(monkeypatch, side):
    # the peak sits 0.6 rad from the center, beyond the 2*pi/16 half-window,
    # whose end is rounded outward to the lattice 2*pi/(16 * 32); the
    # lattice read alone finds it, its interpolant sloping out of the window
    cfg = SageConfig()
    y = observe([(1.0 + 0j, 2.0, 4.0)])
    center = 2.0 - side * 0.6
    step = 2 * np.pi / (16 * 32)
    end = center + side * 2 * np.pi / 16
    edge = (np.ceil if side > 0 else np.floor)(end / step) * step
    assert 0.0 <= side * (edge - end) < step
    calls = counted(monkeypatch, "mu_objective")
    mu = maximize_mu(y.y, 4.0, cfg, center, arr=ARR, caz=CAZ)
    assert abs(mu - edge) <= cfg.refine_tol
    assert len(calls) == 0


def stop_statistic(previous, current, cfg=SageConfig()):
    return _max_change(previous, current, cfg, ARR.m)


def test_stop_statistic_is_unchanged_when_mu_is_mirrored():
    # theta -> -theta maps mu -> 2*pi - mu; a path just right of the wrap
    # must be held to the same test as its mirror image just left of it
    prev = [PathEstimate(mu_hat=0.0027, tau_hat=0.0, alpha_hat=1.0 + 0j),
            PathEstimate(mu_hat=1.1, tau_hat=7.5, alpha_hat=0.3j)]
    cur = [replace(prev[0], mu_hat=0.0027 + 2e-5), prev[1]]
    mirrored = [[replace(e, mu_hat=2 * np.pi - e.mu_hat) for e in ests] for ests in (prev, cur)]
    stat = stop_statistic(prev, cur)
    assert stat == pytest.approx(2e-5 / (2 * np.pi / ARR.m), rel=1e-9)
    assert stop_statistic(*mirrored) == pytest.approx(stat, rel=1e-9)


def test_line_of_sight_delay_jitter_counts_as_converged():
    # the line-of-sight delay is 0 by construction: search jitter around it is
    # no reason for another iteration
    prev = [PathEstimate(mu_hat=2.3, tau_hat=1e-4, alpha_hat=0.8 - 0.1j)]
    cur = [replace(prev[0], tau_hat=1e-4 - 1e-7)]
    assert stop_statistic(prev, cur) <= SageConfig().gamma_stop


def test_late_delay_move_counts_as_not_converged():
    # 2e-3 symbols is 2e-3 of the delay window wherever the path sits,
    # although it is only 1.7e-4 of tau_hat = 12
    prev = [PathEstimate(mu_hat=2.3, tau_hat=12.0, alpha_hat=0.8 - 0.1j)]
    cur = [replace(prev[0], tau_hat=12.0 + 2e-3)]
    assert stop_statistic(prev, cur) > SageConfig().gamma_stop


@pytest.mark.parametrize("tau_window, mu_window", [(1.0, None), (0.5, 0.1), (2.5, 0.3)])
def test_stop_statistic_counts_in_search_half_widths(tau_window, mu_window):
    cfg = SageConfig(tau_window_symbols=tau_window, mu_window=mu_window)
    mu_half = 2 * np.pi / ARR.m if mu_window is None else mu_window
    start = PathEstimate(mu_hat=2.0 - mu_half - 0.2, tau_hat=8.0 - tau_window - 0.5,
                         alpha_hat=1.0 + 0j)
    assert stop_statistic([start], [replace(start, tau_hat=start.tau_hat + 1e-3)],
                          cfg) == pytest.approx(1e-3 / tau_window, rel=1e-9)
    assert stop_statistic([start], [replace(start, mu_hat=start.mu_hat - 1e-3)],
                          cfg) == pytest.approx(1e-3 / mu_half, rel=1e-9)
    # each search, started beyond its reach of the peak, stops at its window
    # edge, rounded outward to its lattice: a move of one half-width, which
    # the stop test reads as 1, plus the rounding.  The delay edge 7.5 is on
    # the lattice; the angle lattice is 2*pi/(M * Q), Q the smallest power
    # of two putting grid_points - 1 steps in the window
    q = 2 ** math.ceil(math.log2((cfg.grid_points - 1) * np.pi / (ARR.m * mu_half)))
    step = 2 * np.pi / (ARR.m * q)
    mu_edge = math.ceil((start.mu_hat + mu_half) / step) * step
    assert 0.0 <= mu_edge - (start.mu_hat + mu_half) < step
    y = observe([(1.0 + 0j, 2.0, 8.0)])
    tau = maximize_tau(y.y, 2.0, cfg, start.tau_hat, arr=ARR, caz=CAZ)
    mu = maximize_mu(y.y, 8.0, cfg, start.mu_hat, arr=ARR, caz=CAZ)
    for moved, half, reading in ((replace(start, tau_hat=tau), tau_window, 1.0),
                                 (replace(start, mu_hat=mu), mu_half,
                                  (mu_edge - start.mu_hat) / mu_half)):
        assert stop_statistic([start], [moved], cfg) == pytest.approx(
            reading, abs=2 * cfg.refine_tol / half)


def counted(monkeypatch, name):
    # count the array calls a search makes into one of its objectives
    calls = []
    inner = getattr(_kernels, name)
    monkeypatch.setattr(_kernels, name, lambda *a: calls.append(1) or inner(*a))
    return calls


def dense_argmax(f, lo, hi, n_points=100000):
    # 1e5-point scan of the window, then another across the best cell, both
    # within the window
    xs = np.linspace(lo, hi, n_points)
    best = xs[int(np.argmax(f(xs)))]
    step = xs[1] - xs[0]
    xs = np.linspace(max(best - step, lo), min(best + step, hi), n_points)
    return float(xs[int(np.argmax(f(xs)))])


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_searches_need_few_objective_calls(monkeypatch, seed):
    # a smooth peak is placed by the lattice round's interpolant: the grid
    # call plus a few more at most
    rng = np.random.default_rng(seed)
    cfg = SageConfig()
    assert cfg.refine_tol == 1e-7
    params = random_two_path(rng)
    y = observe(params, pt=10.0, noise_var=1.0, rng=rng)
    x = expectation_step(y, estimates_from(params, pt=10.0), 1, cfg)
    mu_t, tau_t = params[1][1], params[1][2]
    center = round(tau_t)

    tau_calls = counted(monkeypatch, "tau_objective")
    tau_hat = maximize_tau(x, mu_t, cfg, center, arr=ARR, caz=CAZ)
    mu_calls = counted(monkeypatch, "mu_objective")
    mu_hat = maximize_mu(x, tau_hat, cfg, mu_t + 0.03, arr=ARR, caz=CAZ)
    assert len(tau_calls) <= 6
    assert len(mu_calls) <= 6
    monkeypatch.undo()

    from beamest.arrays import beam_gains
    from beamest.pilots import _conj_shifts
    from beamest.sage import _gathered, _pilots
    xg = _gathered(x)
    w = _conj_shifts(CAZ) @ (beam_gains(ARR, mu_t).conj()[:, None] * xg).sum(axis=0)
    lo, hi = _tau_bounds(center, cfg, 16)
    tau_ref = dense_argmax(
        lambda t: _kernels.tau_objective(w, t, CAZ.rolloff, CAZ.pulse_halfwidth, 16), lo, hi)
    qt = 16 * np.fft.ifft((xg * _pilots(CAZ, [tau_hat])[0].conj()[None, :]).sum(axis=1))
    half = 2 * np.pi / 16
    mu_ref = dense_argmax(lambda m: _kernels.mu_objective(qt, m),
                          mu_t + 0.03 - half, mu_t + 0.03 + half)
    assert abs(tau_hat - tau_ref) <= 1e-6
    assert abs((mu_hat - mu_ref + np.pi) % (2 * np.pi) - np.pi) <= 1e-6


def zoom_from_grid(f, tol):
    # a search on [0, 1] whose first round is a 64-point grid, evaluated, as
    # the searches' is, in one call
    x = np.linspace(0.0, 1.0, 64)
    return _kernels._zoom_max(f, x, f(x), tol, _kernels._lattice_settled)


@pytest.mark.parametrize("c", [0.3, 0.123456789, 0.71])
@pytest.mark.parametrize("left", [1.0, 4.0, 50.0])
def test_zoom_finds_peak_far_from_parabolic(c, left):
    # |x - c| ** 1.5 has no curvature at c, and the slopes differ either side:
    # the lattice round cannot settle it, and the zoom must still close in
    # on c
    calls = []

    def f(x):
        calls.append(1)
        d = np.asarray(x) - c
        return -np.where(d < 0, left, 1.0) * np.abs(d) ** 1.5

    tol = 1e-7
    x = zoom_from_grid(f, tol)
    assert abs(x - c) <= tol
    assert len(calls) <= 20


@pytest.mark.parametrize("c", [0.3141, 0.5, 0.87])
def test_zoom_stops_once_the_parabola_vertex_settles(c):
    # on an exact parabola the grid's 7th differences vanish, so the vertex
    # of its interpolant is the peak: the search returns that vertex with no
    # call after the grid's, long before its bracket shrinks to tol
    calls = []

    def f(x):
        calls.append(1)
        return -(x - c) ** 2

    tol = 1e-7
    x = zoom_from_grid(f, tol)
    assert abs(x - c) <= 1e-12
    assert len(calls) == 1


def test_lattice_round_needs_a_concave_interpolant():
    # two equal peaks 0.3 grid steps either side of a grid point: the grid's
    # best point is that point, where the interpolant (the quartic itself,
    # its 7th differences zero) is stationary but convex.  The search must
    # zoom on to a peak, not return the point between them
    step = 1.0 / 63
    for c, a in ((20 * step, 0.3 * step), (41 * step, 0.2 * step)):
        x = zoom_from_grid(lambda x: -((x - c) ** 2 - a * a) ** 2, 1e-7)
        assert min(abs(x - c - a), abs(x - c + a)) <= 1e-7


# (true delay, search center, where): the center puts the window at [0, 1]
# or at [L - 1, L], and the path's delay, on the cycle of length L, lies past
# the clipped end, on it, or just inside it, before and past the first grid
# point
WINDOW_END_CASES = [(15.7, 0.0, "past"), (0.0, 0.0, "on"), (0.004, 0.0, "inside"),
                    (0.03, 0.0, "inside"), (0.3, 16.0, "past"), (0.0, 16.0, "on"),
                    (15.996, 16.0, "inside"), (15.97, 16.0, "inside")]


def test_delay_search_at_a_clipped_window_end_matches_dense_scan(monkeypatch):
    from beamest.sage import _delay_statistics, _element_lag, _search_delays
    cfg = SageConfig()
    stats, refs = [], []
    for tau_true, center, _ in WINDOW_END_CASES:
        y = observe([(1.0 + 0j, 2.2, tau_true)])
        w = _delay_statistics(_element_lag(ARR, CAZ, y.y[None]), [2.2])
        lo, hi = _tau_bounds(center, cfg, 16)
        assert {lo, hi} & {0.0, 16.0}
        stats.append(w)
        refs.append(dense_argmax(lambda t: _kernels.tau_objective(
            w[0], t, CAZ.rolloff, CAZ.pulse_halfwidth, 16), lo, hi))
    calls = counted(monkeypatch, "tau_objective")
    lone, lone_calls = [], []
    for w, (_, center, _) in zip(stats, WINDOW_END_CASES):
        start = len(calls)
        lone.extend(_search_delays(CAZ, w, [center], cfg))
        lone_calls.append(len(calls) - start)
    start = len(calls)
    centers = [center for _, center, _ in WINDOW_END_CASES]
    batch = _search_delays(CAZ, np.concatenate(stats), centers, cfg)
    assert batch == lone
    assert len(calls) - start == sum(lone_calls)
    for tau, ref in zip(lone, refs):
        assert abs(tau - ref) <= cfg.refine_tol
    # a peak past the end closes on the lattice read, which calls no
    # objective: its interpolant slopes out of the window
    assert [n for n, case in zip(lone_calls, WINDOW_END_CASES) if case[2] == "past"] == [0, 0]


# (offset in lattice steps of 1/64 symbol, search center): a path at delay
# 8 + offset / 64, beside a weaker one 3.7 symbols later whose tail moves the
# peak off the lattice.  Each window holds the integer 8 inside it; the peak
# lies on it (its best lattice point is 8) or within one lattice step of it
INTEGER_CASES = [(-1.0, 8.0), (-0.6, 8.0), (-0.2, 8.0), (0.0, 8.0), (0.3, 8.0), (0.9, 8.0),
                 (1.0, 8.0), (-0.2, 7.6), (0.0, 7.6), (0.3, 8.5), (1.0, 8.5)]


@pytest.mark.parametrize("offset, center", INTEGER_CASES)
def test_delay_search_beside_an_integer_settles_on_the_lattice(monkeypatch, offset, center):
    # the pulse truncation kinks the delay objective at an integer delay, so
    # the lattice round reads only the smooth pieces either side of it: a
    # peak on or beside the integer settles with no objective call, within
    # refine_tol of a dense scan
    from beamest.sage import _delay_statistics, _element_lag, _search_delays
    cfg = SageConfig()
    y = observe([(1.0 + 0j, 2.2, 8.0 + offset / 64), (0.3 + 0.2j, 1.1, 11.7)])
    w = _delay_statistics(_element_lag(ARR, CAZ, y.y[None]), [2.2])
    lo, hi = _tau_bounds(center, cfg, 16)
    assert lo < 8.0 < hi
    ref = dense_argmax(lambda t: _kernels.tau_objective(
        w[0], t, CAZ.rolloff, CAZ.pulse_halfwidth, 16), lo, hi)
    calls = counted(monkeypatch, "tau_objective")
    tau = _search_delays(CAZ, w, [center], cfg)[0]
    assert len(calls) == 0
    assert abs(tau - ref) <= cfg.refine_tol


def chunked(f, n=8):
    # a dense scan's objective in a few calls, so that long pilots stay small
    return lambda x: np.concatenate([f(c) for c in np.array_split(x, n)])


@pytest.mark.parametrize("case", LATTICE_CASES)
def test_lattice_round_settles_within_tolerance_of_a_fine_search(monkeypatch, case):
    # a search that the lattice round settles, with no objective call after
    # it, lies within refine_tol of the same search run to 1e-13; a settled
    # search of a placed path also lies within refine_tol of a dense scan.
    # The searches: those of the lattice test on random statistics, the paths
    # of WINDOW_END_CASES placed past, on and just inside a clipped end, and
    # those of INTEGER_CASES on and beside an integer delay
    from beamest.sage import (_angle_statistics, _delay_statistics, _element_lag,
                              _search_angles, _search_delays)
    cfg, arr, caz = LATTICE_CASES[case]
    ell, m = caz.length, arr.m
    rng = np.random.default_rng(47)
    q = rng.standard_normal((11, m, ell)) + 1j * rng.standard_normal((11, m, ell))
    ends = [(tau if tau < 8 else ell - 16 + tau, center * ell / 16)
            for tau, center, _ in WINDOW_END_CASES]

    def delay_stats(draws):
        return np.concatenate([_delay_statistics(_element_lag(
            arr, caz, synthesize(make_real(paths), arr, caz).y[None]), [2.2]) for paths in draws])
    w_ends = delay_stats([[(1.0 + 0j, 2.2, tau)] for tau, _ in ends])
    w_ints = delay_stats([[(1.0 + 0j, 2.2, 8.0 + offset / 64), (0.3 + 0.2j, 1.1, 11.7)]
                          for offset, _ in INTEGER_CASES])
    # per batch of searches, each search's objective, first round and rule
    batches = []
    monkeypatch.setattr(_kernels, "_zoom_max", lambda f, x, fx, tol, settled:
                        batches[-1].append((f, x, fx, settled)) or x[0])
    for search, *args in (
            (_search_delays, caz, _delay_statistics(q[:5], rng.uniform(0, 2 * np.pi, 5)),
             [0.0, 0.3, ell / 2 + 0.37, ell - 0.2, float(ell)]),
            (_search_angles, arr, _angle_statistics(caz, q[5:], rng.uniform(0, ell, 6))[1],
             [0.0, 0.05, 3.0, 2 * np.pi - 0.02, 7.0, -0.3]),
            (_search_delays, caz, w_ends, [center for _, center in ends]),
            (_search_delays, caz, w_ints, [center for _, center in INTEGER_CASES])):
        batches.append([])
        search(*args, cfg)
    monkeypatch.undo()

    tol = cfg.refine_tol
    settled = {"interior": 0, "end": 0}
    for r, searches in enumerate(batches):
        for b, (f, x, fx, rule) in enumerate(searches):
            calls = []

            def g(t, f=f):
                calls.append(1)
                return f(t)
            out = _kernels._zoom_max(g, x, fx, tol, rule)
            if calls:
                continue
            settled["end" if out in (x[0], x[-1]) else "interior"] += 1
            assert abs(out - _kernels._zoom_max(g, x, fx, 1e-13, rule)) <= tol
            if r >= 2:
                w = (w_ends, w_ints)[r - 2][b]
                ref = dense_argmax(chunked(lambda t: _kernels.tau_objective(
                    w, t, caz.rolloff, caz.pulse_halfwidth, ell)), x[0], x[-1], 20001)
                assert abs(out - ref) <= tol
    # an 8-point grid is too coarse for the 7th differences to settle a peak
    # inside the window
    assert settled["end"] > 0 and (settled["interior"] > 0 or cfg.grid_points < 64)


def test_acceptance_block_search_calls(monkeypatch):
    # the 100 lone trials of the acceptance workload's first block at seed 5
    # (the benchmark's accept_sweep inputs), with an exact count of the
    # searches' objective calls and of the SAGE iterations they take
    from beamest import RunConfig, run_trial
    block_seed = int(np.random.SeedSequence((5, 0)).generate_state(1)[0])
    cfg = RunConfig(scenario=ScenarioConfig(n_nlos=1, delta_nlos_range_m=(4.5, 22.5),
                                            seed=block_seed),
                    snr_sweep_db=(-10.0, 0.0, 10.0, 20.0), trials=25)
    tau_calls = counted(monkeypatch, "tau_objective")
    mu_calls = counted(monkeypatch, "mu_objective")
    iterations = sum(run_trial(cfg, s, t).sage_iterations for s in range(4) for t in range(25))
    assert iterations == 242
    assert (len(tau_calls), len(mu_calls)) == (0, 0)


def test_searches_stop_within_tolerance_of_a_fine_search(monkeypatch):
    # every search of the acceptance workload's first block at seed 5 (lone
    # trials) and of one high-SNR two-path block lies within refine_tol of
    # the same search run to a 1e-13 tolerance: a stop on the predicted
    # error of an interpolant's vertex must not cost accuracy.  Two more
    # trials hold delay peaks beside an integer delay, where the objective
    # kinks
    from beamest import RunConfig, run_trial
    zoom = _kernels._zoom_max
    gaps = []

    def checked(f, x, fx, tol, settled):
        out = zoom(f, x, fx, tol, settled)
        gaps.append(abs(out - zoom(f, x, fx, 1e-13, settled)))
        return out
    monkeypatch.setattr(_kernels, "_zoom_max", checked)

    def block(scenario, snrs, trials, seed):
        # block seed[1] of a benchmark workload run at seed seed[0]
        block_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
        return RunConfig(scenario=replace(scenario, seed=block_seed), snr_sweep_db=snrs,
                         trials=trials)
    accept = (ScenarioConfig(n_nlos=1, delta_nlos_range_m=(4.5, 22.5)),
              (-10.0, 0.0, 10.0, 20.0), 25)
    multipath_hi_snr = (ScenarioConfig(), (20.0, 30.0), 10)
    for workload in (accept, multipath_hi_snr):
        cfg = block(*workload, (5, 0))
        for s in range(len(cfg.snr_sweep_db)):
            for t in range(cfg.trials):
                run_trial(cfg, s, t)
    # at 20 dB: accept_sweep's block 7 at seed 21, trial 4, and
    # multipath_hi_snr's block 2 at seed 41, trial 5
    run_trial(block(*accept, (21, 7)), 3, 4)
    run_trial(block(*multipath_hi_snr, (41, 2)), 0, 5)
    assert len(gaps) > 1000
    assert max(gaps) <= SageConfig().refine_tol


def _ragged_problems(rng):
    """Observations with 1, 2 and 3 paths from perturbed starts, plus an
    all-zero observation, whose delay statistic vanishes at every update."""
    ys, initials, orders = [], [], []
    for n_nlos, snr_db in ((0, 5.0), (1, 25.0), (2, 30.0), (2, 10.0), (1, 0.0), (2, 20.0)):
        real = draw_realization(ScenarioConfig(n_nlos=n_nlos), rng).with_snr_db(snr_db)
        ys.append(synthesize(real, ARR, CAZ, rng))
        initials.append([PathEstimate(mu_hat=p.mu + rng.uniform(-0.1, 0.1),
                                      tau_hat=float(round(p.tau_symbols)), alpha_hat=0j)
                         for p in real.paths])
        orders.append(rng.permutation(real.r).tolist())
    ys.append(ReceiveMatrix(y=np.zeros_like(ys[0].y), arr=ARR, caz=CAZ))
    initials.append([PathEstimate(mu_hat=1.0, tau_hat=2.0, alpha_hat=0j)])
    orders.append([0])
    return ys, initials, orders


# at refine_tol = 1e-10 the lattice round settles few searches, so the
# batch's searches also run through the zoom
@pytest.mark.parametrize("beta, refine_tol", [
    pytest.param(1.0, 1e-7, id="1.0"), pytest.param(0.6, 1e-7, id="0.6"),
    pytest.param(1.0, 1e-10, id="1.0-tol1e-10"), pytest.param(0.6, 1e-10, id="0.6-tol1e-10")])
def test_lockstep_batch_equals_lone_runs(beta, refine_tol):
    from beamest.sage import _lockstep
    cfg = SageConfig(beta=beta, max_iterations=12, refine_tol=refine_tol)
    ys, initials, orders = _ragged_problems(np.random.default_rng(17))
    lone = [run_sage_from(y, init, cfg, order) for y, init, order in zip(ys, initials, orders)]
    stack = ReceiveMatrix(y=np.stack([y.y for y in ys]), arr=ARR, caz=CAZ)
    batch = _lockstep(stack, initials, orders, cfg)
    assert repr(batch) == repr(lone)
    # the batch is ragged in path count and in when each problem leaves it
    assert {len(r.paths) for r in lone} == {1, 2, 3}
    assert len({r.iterations for r in lone if r.converged}) >= 2
    assert any(not r.converged for r in lone[:-1])
    zero = lone[-1]
    assert (zero.iterations, zero.converged) == (cfg.max_iterations, False)
    assert zero.paths == tuple(initials[-1])


def test_batch_of_copies_calls_each_objective_as_its_copies_do(monkeypatch):
    # each problem of a batch searches on its own: B copies of one problem
    # make B times the objective calls of one, and each copy's result is the
    # lone problem's.  At refine_tol = 1e-10 the lattice round settles few
    # searches, so both searches zoom
    from beamest.sage import run_sage_batch
    rng = np.random.default_rng(8)
    real = draw_realization(ScenarioConfig(n_nlos=2), rng).with_snr_db(15.0)
    y = synthesize(real, ARR, CAZ, rng)
    coarse = run_pipeline(y)[0]
    cfg = SageConfig(refine_tol=1e-10)
    tau_calls = counted(monkeypatch, "tau_objective")
    mu_calls = counted(monkeypatch, "mu_objective")
    lone = run_sage(y, coarse, cfg, 1.0)
    n_tau, n_mu = len(tau_calls), len(mu_calls)
    batch = run_sage_batch(replace(y, y=np.stack([y.y] * 4)), [coarse] * 4, cfg)
    assert repr(batch) == repr([lone] * 4)
    assert lone.iterations >= 2 and n_tau > lone.iterations * len(lone.paths)
    assert n_mu > 0
    assert (len(tau_calls) - n_tau, len(mu_calls) - n_mu) == (4 * n_tau, 4 * n_mu)


def test_run_sage_batch_checks_its_stack():
    from beamest.sage import run_sage_batch
    rng = np.random.default_rng(8)
    real = draw_realization(ScenarioConfig(n_nlos=1), rng).with_snr_db(15.0)
    y = synthesize(real, ARR, CAZ, rng)
    coarse = run_pipeline(y)[0]
    # a lone (M, L) observation is no stack
    with pytest.raises(ConfigurationError, match=r"\(16, 16\)"):
        run_sage_batch(y, [coarse], SageConfig())
    # the stack's leading length must match the estimates, and the error names both
    with pytest.raises(ConfigurationError, match=r"\(3, 16, 16\) and 2 estimates"):
        run_sage_batch(replace(y, y=np.stack([y.y] * 3)), [coarse] * 2, SageConfig())
    # an empty stack with no estimates refines nothing
    empty = replace(y, y=np.zeros((0, ARR.m, CAZ.length), complex))
    assert run_sage_batch(empty, [], SageConfig()) == []
