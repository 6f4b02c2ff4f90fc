import threading

import numpy as np
import pytest

from beamest import (ArrayConfig, CazacConfig, ConfigurationError, PathEstimate,
                     SageConfig, ScenarioConfig, build_lut, cazac_base, coarse_estimate,
                     correlate, detect_paths, detection_threshold, draw_realization,
                     expectation_step, maximize_mu, maximize_tau, run_sage,
                     run_sage_from, synthesize, update_alpha)
from beamest.channel import ChannelRealization, PathParams, spatial_frequency
from beamest.coarse import mu_to_theta_deg
from beamest.harness import config_from_dict
from beamest.sage import _tau_bounds, mu_objective_value, tau_objective_value
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
    y = observe([(1.0 + 0j, 1.9, 3.0)])
    tau = maximize_tau(y.y, 1.9, SageConfig(), 3.0, arr=ARR, caz=CAZ)
    assert abs(tau - 3.0) < 1e-6


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
    refined = run_sage_from(y, estimates_from(params), cfg, noise_var=1.0)
    for (a, mu, tau), est in zip(params, refined.paths):
        assert abs((est.mu_hat - mu + np.pi) % (2 * np.pi) - np.pi) < 1e-8
        assert abs(est.tau_hat - tau) < 1e-8
        assert abs(est.alpha_hat - a) < 1e-7


def test_single_path_refinement_not_worse_than_coarse():
    rng = np.random.default_rng(5)
    real = draw_realization(ScenarioConfig(n_nlos=0, snr_db=10.0), rng)
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
    from beamest.sage import _Workspace
    ws = _Workspace(ARR, CAZ)

    def residual_power(y, current):
        total = np.zeros_like(y.y)
        for e in current:
            if e.alpha_hat != 0:
                total += ws.reconstruct(e)
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
            refined = run_sage_from(y, current, SageConfig(max_iterations=1), 1.0)
            current = list(refined.paths)
            now = residual_power(y, current)
            assert now <= prev + 1e-6 * max(1.0, prev)
            prev = now


def test_run_sage_requires_paths():
    y = observe([(1.0 + 0j, 1.0, 0.0)])
    with pytest.raises(ConfigurationError):
        run_sage_from(y, [], SageConfig(), 1.0)


def test_noise_only_input_never_raises():
    real = ChannelRealization(
        paths=(PathParams(alpha=0j, theta_deg=0.0, mu=0.0, tau_symbols=0.0),),
        pt=0.0, noise_var=1.0)
    y = synthesize(real, ARR, CAZ, np.random.default_rng(13))
    init = [PathEstimate(mu_hat=1.0, tau_hat=2.0, alpha_hat=0j)]
    refined = run_sage_from(y, init, SageConfig(), 1.0)
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
    from beamest.sage import _Workspace, _tau_bounds
    ws = _Workspace(ARR, CAZ)
    xg = ws.gathered(x)
    z = (beam_gains(ARR, mu_t).conj()[:, None] * xg).sum(axis=0)
    w = ws.corr @ z
    lo, hi = _tau_bounds(center, SageConfig(), 16)
    taus = np.linspace(lo, hi, n_points)
    vals = _kernels.tau_objective(w, taus, CAZ.rolloff, CAZ.pulse_halfwidth, 16)
    tau_best = float(taus[int(np.argmax(vals))])

    v = ws.pilot_row(tau_t)
    q = (xg * v.conj()[None, :]).sum(axis=1)
    qt = 16 * np.fft.ifft(q)
    half = 2 * np.pi / 16
    mus = np.linspace(mu_t + 0.03 - half, mu_t + 0.03 + half, n_points)
    vals = _kernels.mu_objective(qt, mus)
    mu_best = float(np.mod(mus[int(np.argmax(vals))], 2 * np.pi))
    return tau_best, mu_best


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
    g = np.array([shifts.conj().T @ _kernels.pilot_row(cbase, t, rolloff, halfwidth)
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
def test_angle_search_returns_window_edge(side):
    # the peak sits 0.6 rad from the center, beyond the 2*pi/16 half-window
    cfg = SageConfig()
    y = observe([(1.0 + 0j, 2.0, 4.0)])
    center = 2.0 - side * 0.6
    mu = maximize_mu(y.y, 4.0, cfg, center, arr=ARR, caz=CAZ)
    assert abs(mu - (center + side * 2 * np.pi / 16)) <= cfg.refine_tol


def counted(monkeypatch, name):
    # count the array calls a search makes into one of its objectives
    calls = []
    inner = getattr(_kernels, name)
    monkeypatch.setattr(_kernels, name, lambda *a: calls.append(1) or inner(*a))
    return calls


def dense_argmax(f, lo, hi, n_points=100000):
    # 1e5-point scan of the window, then another across the best cell
    xs = np.linspace(lo, hi, n_points)
    best = xs[int(np.argmax(f(xs)))]
    step = xs[1] - xs[0]
    xs = np.linspace(best - step, best + step, n_points)
    return float(xs[int(np.argmax(f(xs)))])


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_searches_need_few_objective_calls(monkeypatch, seed):
    # a smooth peak is found by parabolic vertex rounds: the grid call plus a
    # few more, where even 16-point zoom rounds needed nine
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
    from beamest.sage import _Workspace
    ws = _Workspace(ARR, CAZ)
    xg = ws.gathered(x)
    w = ws.corr @ (beam_gains(ARR, mu_t).conj()[:, None] * xg).sum(axis=0)
    lo, hi = _tau_bounds(center, cfg, 16)
    tau_ref = dense_argmax(
        lambda t: _kernels.tau_objective(w, t, CAZ.rolloff, CAZ.pulse_halfwidth, 16), lo, hi)
    qt = 16 * np.fft.ifft((xg * ws.pilot_row(tau_hat).conj()[None, :]).sum(axis=1))
    half = 2 * np.pi / 16
    mu_ref = dense_argmax(lambda m: _kernels.mu_objective(qt, m),
                          mu_t + 0.03 - half, mu_t + 0.03 + half)
    assert abs(tau_hat - tau_ref) <= 1e-6
    assert abs((mu_hat - mu_ref + np.pi) % (2 * np.pi) - np.pi) <= 1e-6


@pytest.mark.parametrize("c", [0.3, 0.123456789, 0.71])
@pytest.mark.parametrize("left", [1.0, 4.0, 50.0])
def test_zoom_finds_peak_far_from_parabolic(c, left):
    # |x - c| ** 1.5 has no curvature at c, and the slopes differ either side:
    # the vertex rounds miss, and the search must still close in on c
    calls = []

    def f(x):
        calls.append(1)
        d = np.asarray(x) - c
        return -np.where(d < 0, left, 1.0) * np.abs(d) ** 1.5

    tol = 1e-7
    x = _kernels._zoom_max(f, 0.0, 1.0, 64, tol)
    assert abs(x - c) <= tol
    assert len(calls) <= 20


def test_cached_workspace_is_read_only_and_equals_fresh():
    from beamest.sage import _Workspace, _workspace
    ws = _workspace(ARR, CAZ)
    assert _workspace(ArrayConfig(m=16), CazacConfig()) is ws
    ell = CAZ.length
    cbase = cazac_base(CAZ)
    np.testing.assert_array_equal(ws.cbase, cbase)
    np.testing.assert_array_equal(
        ws.gather, (np.arange(ell)[None, :] + np.arange(ARR.m)[:, None]) % ell)
    np.testing.assert_array_equal(
        ws.corr, cbase[(np.arange(ell)[None, :] - np.arange(ell)[:, None]) % ell].conj())
    fresh = _Workspace(ARR, CAZ)
    for name in ("cbase", "gather", "corr"):
        np.testing.assert_array_equal(getattr(ws, name), getattr(fresh, name))
        with pytest.raises(ValueError):
            getattr(ws, name)[0, ...] = 0
    x = np.arange(ARR.m * ell, dtype=complex).reshape(ARR.m, ell)
    expected = [[x[k, (s + k) % ell] for s in range(ell)] for k in range(ARR.m)]
    np.testing.assert_array_equal(ws.gathered(x), np.array(expected))
