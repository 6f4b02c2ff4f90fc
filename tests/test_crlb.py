import math
from dataclasses import replace

import numpy as np
import pytest

from beamest import (ArrayConfig, CazacConfig, ConfigurationError, crlb_bounds,
                     fisher_matrix, parameter_index)
from beamest.channel import ChannelRealization, PathParams, spatial_frequency
from beamest.coarse import mu_to_theta_deg
from beamest.crlb import COND_LIMIT, fisher_at_power
from beamest.pilots import cazac_base, _stack_shifted
from beamest import _kernels
from beamest.arrays import beam_gains, dft_codebook

ARR = ArrayConfig(m=16)
CAZ = CazacConfig()


def make_real(params, pt=1.0, noise_var=1.0):
    paths = tuple(PathParams(alpha=a, theta_deg=mu_to_theta_deg(mu), mu=mu,
                             tau_symbols=tau) for a, mu, tau in params)
    return ChannelRealization(paths=paths, pt=pt, noise_var=noise_var)


def reference_rc_deriv(x, rolloff):
    """dh/dx by its own formula, as written before h and h' shared one pass."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-7
    z = (np.pi * x) ** 2
    sp = np.where(small, -(np.pi ** 2) * x / 3.0 * (1.0 - z / 10.0),
                  (np.cos(np.pi * x) - np.sinc(x)) / np.where(small, 1.0, x))
    if rolloff == 0.0:
        return sp
    x0 = 1.0 / (2.0 * rolloff)
    sing = np.abs(np.abs(x) - x0) < 1e-8
    den = np.where(sing, 1.0, 1.0 - (2.0 * rolloff * x) ** 2)
    g = np.cos(rolloff * np.pi * x) / den
    gp = (-rolloff * np.pi * np.sin(rolloff * np.pi * x) * den
          + np.cos(rolloff * np.pi * x) * 8.0 * rolloff ** 2 * x) / den ** 2
    u = np.abs(x) - x0
    g = np.where(sing, (np.pi / 4.0) * (1.0 - rolloff * u), g)
    gp = np.where(sing, np.sign(x) * (np.pi / 4.0)
                  * (-rolloff + 2.0 * rolloff ** 2 * u * (1.0 - np.pi ** 2 / 6.0)), gp)
    return sp * g + np.sinc(x) * gp


def reference_row_deriv(cbase, tau, rolloff, halfwidth):
    """d/dtau of the pilot row, one tap per integer u with |u - tau| <= halfwidth."""
    ell = cbase.shape[0]
    u = np.arange(math.ceil(tau - halfwidth), math.floor(tau + halfwidth) + 1)
    taps = -reference_rc_deriv(u - tau, rolloff)
    idx = (np.arange(ell)[:, None] - u[None, :]) % ell
    return (cbase[idx] * taps[None, :]).sum(axis=1)


def model_jacobian(real, arr, caz):
    """Partial derivatives of the noiseless observation, shape (M, L, 4R): the oracle.

    Slices follow the parameter order: d/dRe{g_r} = A_r C_r, d/dIm{g_r} =
    j A_r C_r, d/dmu_r = g_r A'_r C_r, d/dtau_r = g_r A_r C'_r.
    """
    n = real.r
    gains = real.gains()
    cbase = cazac_base(caz)
    jac = np.empty((arr.m, caz.length, 4 * n), dtype=complex)
    m = np.arange(arr.m)
    for r, p in enumerate(real.paths):
        a = beam_gains(arr, p.mu)
        a_d = (1j * m * np.exp(1j * m * p.mu)) @ dft_codebook(arr)
        c = _stack_shifted(_kernels.pilot_rows(cbase, [p.tau_symbols], caz.rolloff,
                                               caz.pulse_halfwidth)[0], arr.m)
        c_d = _stack_shifted(reference_row_deriv(cbase, p.tau_symbols, caz.rolloff,
                                                 caz.pulse_halfwidth), arr.m)
        ac = a[:, None] * c
        jac[:, :, parameter_index("re", r, n)] = ac
        jac[:, :, parameter_index("im", r, n)] = 1j * ac
        jac[:, :, parameter_index("mu", r, n)] = gains[r] * a_d[:, None] * c
        jac[:, :, parameter_index("tau", r, n)] = gains[r] * a[:, None] * c_d
    return jac


def forward_model(gains, mus, taus):
    """Noiseless observation for explicit combined gains (the FD oracle)."""
    y = np.zeros((ARR.m, CAZ.length), dtype=complex)
    cbase = cazac_base(CAZ)
    for g, mu, tau in zip(gains, mus, taus):
        row0 = _kernels.pilot_rows(cbase, [tau], CAZ.rolloff, CAZ.pulse_halfwidth)[0]
        y += g * beam_gains(ARR, mu)[:, None] * _stack_shifted(row0, ARR.m)
    return y


def fd_jacobian(real):
    """Central finite differences of the forward model in all 4R parameters."""
    n = real.r
    gains = list(real.gains())
    mus = [p.mu for p in real.paths]
    taus = [p.tau_symbols for p in real.paths]
    out = np.empty((ARR.m, CAZ.length, 4 * n), dtype=complex)
    for r in range(n):
        hg = 1e-6 * max(1.0, abs(gains[r]))
        for kind, col in (("re", hg), ("im", hg * 1j)):
            plus, minus = list(gains), list(gains)
            plus[r] = gains[r] + col
            minus[r] = gains[r] - col
            d = (forward_model(plus, mus, taus) - forward_model(minus, mus, taus)) / (2 * hg)
            out[:, :, parameter_index(kind, r, n)] = d
        for kind, vec in (("mu", mus), ("tau", taus)):
            h = 1e-6
            plus, minus = list(vec), list(vec)
            plus[r] = vec[r] + h
            minus[r] = vec[r] - h
            if kind == "mu":
                d = (forward_model(gains, plus, taus) - forward_model(gains, minus, taus)) / (2 * h)
            else:
                d = (forward_model(gains, mus, plus) - forward_model(gains, mus, minus)) / (2 * h)
            out[:, :, parameter_index(kind, r, n)] = d
    return out


def random_real(rng, n_paths):
    params = [(1.0 + 0j, spatial_frequency(rng.uniform(-60, 60)), 0.0)]
    for _ in range(n_paths - 1):
        params.append((rng.uniform(0.2, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                       spatial_frequency(rng.uniform(-60, 60)),
                       rng.uniform(3.0, 15.0)))
    return make_real(params, pt=10 ** (rng.uniform(-1, 2) / 1.0), noise_var=1.0)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(0)
    for n_paths in (1, 2, 3):
        real = random_real(rng, n_paths)
        an = model_jacobian(real, ARR, CAZ)
        fd = fd_jacobian(real)
        assert np.linalg.norm(an - fd) / np.linalg.norm(fd) < 1e-4


def test_jacobian_alpha_slices_related_by_j():
    real = random_real(np.random.default_rng(1), 2)
    jac = model_jacobian(real, ARR, CAZ)
    for r in range(2):
        re = jac[:, :, parameter_index("re", r, 2)]
        im = jac[:, :, parameter_index("im", r, 2)]
        assert np.array_equal(im, 1j * re)


def test_jacobian_on_grid_single_row():
    real = make_real([(1.0 + 0j, float(ARR.beam_phases[4]), 0.0)])
    jac = model_jacobian(real, ARR, CAZ)
    slice_re = jac[:, :, parameter_index("re", 0, 1)]
    nonzero_rows = np.where(np.abs(slice_re).sum(axis=1) > 1e-9)[0]
    assert list(nonzero_rows) == [4]


def test_fisher_symmetric_psd():
    real = random_real(np.random.default_rng(2), 3)
    f = fisher_matrix(real, ARR, CAZ)
    assert np.allclose(f, f.T, atol=1e-10)
    eig = np.linalg.eigvalsh(f)
    assert eig.min() >= -1e-8 * np.linalg.norm(f)


def test_fisher_on_grid_gain_entry():
    # on-grid single path, zero delay, unit power: the gain-gain entry is
    # (2/sigma^2) * tr{C^H A^H A C} = 2 * M * L = 512 for M = L = 16
    real = make_real([(1.0 + 0j, float(ARR.beam_phases[3]), 0.0)])
    f = fisher_matrix(real, ARR, CAZ)
    idx = parameter_index("re", 0, 1)
    assert f[idx, idx] == pytest.approx(512.0, rel=1e-10)


def test_fisher_noise_scaling():
    real = random_real(np.random.default_rng(3), 2)
    f1 = fisher_matrix(real, ARR, CAZ)
    real2 = make_real([(p.alpha, p.mu, p.tau_symbols) for p in real.paths],
                      pt=real.pt, noise_var=2.0)
    f2 = fisher_matrix(real2, ARR, CAZ)
    assert np.allclose(f2, 0.5 * f1, rtol=1e-12)


def test_bounds_diagonal_inverse():
    f = np.diag([4.0, 16.0, 25.0, 100.0])
    report = crlb_bounds(f)
    assert report.invertible
    assert np.allclose(report.bounds, [0.5, 0.25, 0.2, 0.1])


def test_bounds_on_grid_gain_decoupled():
    # the full-inverse oracle confirms the on-grid gain entry decouples
    real = make_real([(1.0 + 0j, float(ARR.beam_phases[3]), 0.0)])
    f = fisher_matrix(real, ARR, CAZ)
    report = crlb_bounds(f)
    oracle = np.sqrt(np.linalg.inv(f)[0, 0])
    assert report.bounds[parameter_index("re", 0, 1)] == pytest.approx(oracle, rel=1e-12)
    assert oracle == pytest.approx(1.0 / np.sqrt(512.0), rel=1e-9)


def test_bounds_flag_near_singular():
    # two nearly coincident paths make the information matrix unidentifiable
    mu = spatial_frequency(10.0)
    real = make_real([(1.0 + 0j, mu, 0.0), (1.0 + 0j, mu + 1e-9, 1e-9)])
    report = crlb_bounds(fisher_matrix(real, ARR, CAZ))
    assert not report.invertible
    assert not np.any(np.isfinite(report.bounds))


def test_bounds_reject_non_finite():
    with pytest.raises(ValueError):
        crlb_bounds(np.array([[np.nan]]))


def test_fisher_requires_positive_noise():
    real = make_real([(1.0 + 0j, 1.0, 0.0)], noise_var=0.0)
    with pytest.raises(ConfigurationError):
        fisher_matrix(real, ARR, CAZ)


def test_snr_scaling_of_mu_tau_bounds():
    # scaling only the transmit power by s^2 scales the mu and tau bounds by
    # exactly 1/s, couplings included
    real = random_real(np.random.default_rng(4), 2)
    low = crlb_bounds(fisher_matrix(real, ARR, CAZ)).bounds
    high = crlb_bounds(fisher_matrix(real.with_snr_db(
        10 * np.log10(real.pt / real.noise_var) + 6.0205999132796240), ARR, CAZ)).bounds
    for kind in ("mu", "tau"):
        for r in range(2):
            i = parameter_index(kind, r, 2)
            assert high[i] == pytest.approx(low[i] / 2.0, rel=1e-9)


@pytest.mark.parametrize("n_paths", [1, 3])
def test_unit_power_information_scales_to_any_snr(n_paths):
    # F(P_T) = D F0 D / sigma^2 with D = diag(1, 1, sqrt(P_T), sqrt(P_T)) per block
    rng = np.random.default_rng(40 + n_paths)
    real = random_real(rng, n_paths)
    f0 = fisher_matrix(replace(real, pt=1.0, noise_var=1.0), ARR, CAZ)
    for pt, noise_var in ((real.pt, 1.0), (1e-3, 0.25), (250.0, 3.0)):
        direct = fisher_matrix(replace(real, pt=pt, noise_var=noise_var), ARR, CAZ)
        scaled = fisher_at_power(f0, pt, noise_var)
        assert np.max(np.abs(scaled - direct)) <= 1e-12 * np.max(np.abs(direct))
        assert np.array_equal(scaled, scaled.T)
    with pytest.raises(ConfigurationError):
        fisher_at_power(f0, 1.0, 0.0)


# delays on and off the grid, at the roll-off poles |u - tau| = 1/(2 beta)
# (2 for beta = 0.25 from integer delays, 1.25 for beta = 0.4 from 3.75 and
# 0.25), past L - 1, negative, and a hair off an integer
DELAYS = (0.0, 1.0, 5.0, 15.0, 3.75, 0.25, 2.5, 7.3, 15.6, 17.2, -0.4, 4.0 + 1e-13)
PULSES = [CAZ, CazacConfig(rolloff=0.4), CazacConfig(rolloff=0.0),
          CazacConfig(rolloff=1.0), CazacConfig(pulse_halfwidth=11)]
PULSE_IDS = ["default", "rolloff0.4", "rolloff0", "rolloff1", "halfwidth11-wraps"]


@pytest.mark.parametrize("n_paths", [1, 2, 3])
@pytest.mark.parametrize("arr,caz", [(ARR, CAZ), (ARR, CazacConfig(rolloff=0.4)),
                                     (ARR, CazacConfig(pulse_halfwidth=11)),
                                     (ArrayConfig(m=4), CAZ)],
                         ids=["default", "rolloff-poles", "halfwidth11-wraps", "m4-below-L"])
def test_fisher_equals_jacobian_oracle(n_paths, arr, caz):
    # F = 2 Re(J^H J) / sigma^2 of the explicit Jacobian, for every delay of
    # DELAYS taken in groups of n_paths
    rng = np.random.default_rng(60 + n_paths)
    for i in range(0, len(DELAYS), n_paths):
        taus = DELAYS[i:i + n_paths]
        params = [(rng.uniform(0.2, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                   rng.uniform(0, 2 * np.pi), tau) for tau in taus]
        real = make_real(params, pt=rng.uniform(0.5, 50.0), noise_var=rng.uniform(0.5, 2.0))
        flat = model_jacobian(real, arr, caz).reshape(arr.m * caz.length, -1)
        oracle = (2.0 / real.noise_var) * np.real(flat.conj().T @ flat)
        f = fisher_matrix(real, arr, caz)
        assert np.max(np.abs(f - oracle)) <= 1e-12 * np.max(np.abs(oracle)), taus
        assert np.array_equal(f, f.T)


@pytest.mark.parametrize("caz", PULSES, ids=PULSE_IDS)
def test_batched_rows_equal_per_delay_calls(caz):
    cbase = cazac_base(caz)
    rows = _kernels.pilot_rows(cbase, DELAYS, caz.rolloff, caz.pulse_halfwidth)
    rows_d, derivs = _kernels.pilot_rows_and_derivs(cbase, DELAYS, caz.rolloff,
                                                    caz.pulse_halfwidth)
    assert rows.shape == rows_d.shape == derivs.shape == (len(DELAYS), caz.length)
    # the derivative kernel's extra masked tap adds an exact zero: equal rows
    assert np.array_equal(rows_d, rows)
    for r, tau in enumerate(DELAYS):
        one, one_d = _kernels.pilot_rows_and_derivs(cbase, [tau], caz.rolloff,
                                                    caz.pulse_halfwidth)
        assert np.array_equal(one_d[0], derivs[r])
        assert np.array_equal(one[0], rows[r])
        assert np.array_equal(_kernels.pilot_rows(
            cbase, [tau], caz.rolloff, caz.pulse_halfwidth)[0], rows[r])
        ref = reference_row_deriv(cbase, tau, caz.rolloff, caz.pulse_halfwidth)
        assert np.max(np.abs(derivs[r] - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("caz", PULSES, ids=PULSE_IDS)
def test_integer_delays_are_exact_shifts(caz):
    # no integer-delay branch: one tap is exactly 1 and the others exactly 0
    cbase = cazac_base(caz)
    shifts = [-3, 0, 1, 4, 15, 16, 21]
    taus = [float(k) for k in shifts] + [4.0 + 1e-13, 4.0 - 1e-13]
    rows = _kernels.pilot_rows(cbase, taus, caz.rolloff, caz.pulse_halfwidth)
    for row, k in zip(rows, shifts + [4, 4]):
        assert np.array_equal(row, np.roll(cbase, k))


@pytest.mark.parametrize("caz", PULSES, ids=PULSE_IDS)
def test_rc_deriv_samples_keep_their_values(caz):
    poles = [0.5 / caz.rolloff, -0.5 / caz.rolloff] if caz.rolloff > 0 else []
    x = np.concatenate([np.linspace(-12.0, 12.0, 2401), np.subtract.outer(
        np.arange(-12, 13), DELAYS).ravel(), poles, [1e-9, -1e-9, 0.0]])
    h, hp = _kernels.rc_samples_and_derivs(x, caz.rolloff)
    assert np.array_equal(hp, reference_rc_deriv(x, caz.rolloff))
    assert np.array_equal(h, _kernels.rc_samples(x, caz.rolloff))
    assert np.array_equal(h, _kernels.rc_samples(x, caz.rolloff))


def _symmetric_with_eigenvalues(eig, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(eig), len(eig))))
    mat = (q * eig) @ q.T
    return 0.5 * (mat + mat.T)


@pytest.mark.parametrize("kind", ["cond1e8", "cond1e11", "cond1e13", "cond1e15",
                                  "singular", "indefinite"])
def test_eigenvalue_gate_matches_svd_condition(kind):
    # the information matrix is symmetric PSD, so lambda_max / lambda_min from
    # eigvalsh is its 2-norm condition; rounding can leave a singular one
    # slightly indefinite, which both gates flag
    eig = {"cond1e8": np.logspace(3, -5, 12), "cond1e11": np.logspace(3, -8, 12),
           "cond1e13": np.logspace(3, -10, 12), "cond1e15": np.logspace(3, -12, 12),
           "singular": np.r_[np.logspace(3, 0, 10), 0.0, 0.0],
           "indefinite": np.r_[np.logspace(3, 0, 11), -1e-11]}[kind]
    for seed in range(5):
        mat = _symmetric_with_eigenvalues(eig, seed)
        svd_cond = np.linalg.cond(mat)
        report = crlb_bounds(mat)
        assert report.invertible == (svd_cond < COND_LIMIT), (kind, seed, svd_cond)
        if report.invertible:
            assert report.condition_number == pytest.approx(svd_cond, rel=1e-3)
            assert np.all(np.isfinite(report.bounds))
        else:
            assert not np.any(np.isfinite(report.bounds))


def test_stacked_bounds_equal_per_matrix_calls():
    # well-conditioned, gated (cond >= 1e12), singular and slightly indefinite
    # members in one stack; the gate and the inverse act member by member
    kinds = {"cond1e8": np.logspace(3, -5, 12), "cond1e13": np.logspace(3, -10, 12),
             "singular": np.r_[np.logspace(3, 0, 10), 0.0, 0.0],
             "cond1e11": np.logspace(3, -8, 12),
             "indefinite": np.r_[np.logspace(3, 0, 11), -1e-11]}
    mats = [_symmetric_with_eigenvalues(eig, seed) for seed in range(3) for eig in kinds.values()]
    stacked = crlb_bounds(np.stack(mats))
    assert stacked.bounds.shape == (len(mats), 12)
    assert 0 < stacked.invertible.sum() < len(mats)
    for i, mat in enumerate(mats):
        single = crlb_bounds(mat)
        assert type(single.condition_number) is float and type(single.invertible) is bool
        assert stacked.invertible[i] == single.invertible
        assert stacked.condition_number[i] == single.condition_number
        assert np.array_equal(stacked.bounds[i], single.bounds, equal_nan=True)
    # a stack whose members all pass, and one whose members all fail
    for members in (mats[0::5], mats[2::5]):
        report = crlb_bounds(np.stack(members))
        for i, mat in enumerate(members):
            assert np.array_equal(report.bounds[i], crlb_bounds(mat).bounds,
                                  equal_nan=True)


def test_stacked_fisher_at_power_equals_per_point_calls():
    real = random_real(np.random.default_rng(47), 3)
    f0 = fisher_matrix(replace(real, pt=1.0, noise_var=1.0), ARR, CAZ)
    pts = 10.0 ** (np.arange(-30.0, 31.0, 6.0) / 10.0)
    for noise in (0.25, np.linspace(0.5, 2.0, pts.size)):
        stack = fisher_at_power(f0, pts, noise)
        assert stack.shape == (pts.size, 12, 12)
        for i, pt in enumerate(pts):
            point_noise = float(np.broadcast_to(noise, pts.shape)[i])
            assert np.array_equal(stack[i], fisher_at_power(f0, float(pt), point_noise))
            # the per-point weights as written before the stack: d_i d_j first
            a = 1.0 / math.sqrt(point_noise)
            d = np.array([a] * 6 + [a * math.sqrt(pt)] * 6)
            assert np.array_equal(stack[i], d[:, None] * d * f0)
    with pytest.raises(ConfigurationError):
        fisher_at_power(f0, pts, np.r_[np.ones(pts.size - 1), 0.0])


def test_eigenvalue_gate_flags_indefinite_and_rejects_non_finite():
    # no information matrix is markedly indefinite; the SVD condition (1 here)
    # would pass this one, the eigenvalue gate flags it
    report = crlb_bounds(np.diag([1.0, -1.0]))
    assert not report.invertible and report.condition_number == math.inf
    for bad in (np.nan, np.inf, -np.inf):
        mat = np.eye(4)
        mat[1, 2] = mat[2, 1] = bad
        with pytest.raises(ValueError):
            crlb_bounds(mat)


def test_parameter_index_round_trip():
    n = 3
    seen = set()
    for kind in ("re", "im", "mu", "tau"):
        for r in range(n):
            seen.add(parameter_index(kind, r, n))
    assert seen == set(range(4 * n))
    with pytest.raises(IndexError):
        parameter_index("mu", 3, 3)
