from dataclasses import replace

import numpy as np
import pytest

from beamest import (ArrayConfig, CazacConfig, ConfigurationError, crlb_bounds,
                     crlb_monte_carlo_average, fisher_matrix, model_jacobian,
                     parameter_index)
from beamest.channel import ChannelRealization, PathParams, spatial_frequency
from beamest.coarse import mu_to_theta_deg
from beamest.crlb import FisherMatrix, fisher_at_power
from beamest.pilots import cazac_base, _stack_shifted
from beamest import _kernels
from beamest.arrays import beam_gains

ARR = ArrayConfig(m=16)
CAZ = CazacConfig()


def make_real(params, pt=1.0, noise_var=1.0):
    paths = tuple(PathParams(alpha=a, theta_deg=mu_to_theta_deg(mu), mu=mu,
                             tau_symbols=tau) for a, mu, tau in params)
    return ChannelRealization(paths=paths, pt=pt, noise_var=noise_var)


def forward_model(gains, mus, taus):
    """Noiseless observation for explicit combined gains (the FD oracle)."""
    y = np.zeros((ARR.m, CAZ.length), dtype=complex)
    cbase = cazac_base(CAZ)
    for g, mu, tau in zip(gains, mus, taus):
        row0 = _kernels.pilot_row(cbase, tau, CAZ.rolloff, CAZ.pulse_halfwidth)
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
    f = fisher_matrix(real, ARR, CAZ).f
    assert np.allclose(f, f.T, atol=1e-10)
    eig = np.linalg.eigvalsh(f)
    assert eig.min() >= -1e-8 * np.linalg.norm(f)


def test_fisher_on_grid_gain_entry():
    # on-grid single path, zero delay, unit power: the gain-gain entry is
    # (2/sigma^2) * tr{C^H A^H A C} = 2 * M * L = 512 for M = L = 16
    real = make_real([(1.0 + 0j, float(ARR.beam_phases[3]), 0.0)])
    f = fisher_matrix(real, ARR, CAZ).f
    idx = parameter_index("re", 0, 1)
    assert f[idx, idx] == pytest.approx(512.0, rel=1e-10)


def test_fisher_noise_scaling():
    real = random_real(np.random.default_rng(3), 2)
    f1 = fisher_matrix(real, ARR, CAZ).f
    real2 = make_real([(p.alpha, p.mu, p.tau_symbols) for p in real.paths],
                      pt=real.pt, noise_var=2.0)
    f2 = fisher_matrix(real2, ARR, CAZ).f
    assert np.allclose(f2, 0.5 * f1, rtol=1e-12)


def test_bounds_diagonal_inverse():
    f = FisherMatrix(f=np.diag([4.0, 16.0, 25.0, 100.0]))
    report = crlb_bounds(f)
    assert report.invertible
    assert np.allclose(report.bounds, [0.5, 0.25, 0.2, 0.1])


def test_bounds_on_grid_gain_decoupled():
    # the full-inverse oracle confirms the on-grid gain entry decouples
    real = make_real([(1.0 + 0j, float(ARR.beam_phases[3]), 0.0)])
    f = fisher_matrix(real, ARR, CAZ).f
    report = crlb_bounds(FisherMatrix(f=f))
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
        crlb_bounds(FisherMatrix(f=np.array([[np.nan]])))


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
        direct = fisher_matrix(replace(real, pt=pt, noise_var=noise_var), ARR, CAZ).f
        scaled = fisher_at_power(f0, pt, noise_var).f
        assert np.max(np.abs(scaled - direct)) <= 1e-12 * np.max(np.abs(direct))
        assert np.array_equal(scaled, scaled.T)
    with pytest.raises(ConfigurationError):
        fisher_at_power(f0, 1.0, 0.0)


def test_monte_carlo_average_identities():
    rng = np.random.default_rng(5)
    real = random_real(rng, 2)
    single = crlb_monte_carlo_average([real], ARR, CAZ)
    assert single.used == 1 and single.skipped == 0
    direct = crlb_bounds(fisher_matrix(real, ARR, CAZ)).bounds
    assert np.allclose(single.bounds, direct, rtol=1e-12)
    double = crlb_monte_carlo_average([real, real], ARR, CAZ)
    assert np.allclose(double.bounds, direct, rtol=1e-12)


def test_monte_carlo_average_decreases_with_snr():
    rng = np.random.default_rng(6)
    reals = [random_real(rng, 2) for _ in range(5)]
    prev = None
    for snr in (0.0, 10.0, 20.0):
        avg = crlb_monte_carlo_average(reals, ARR, CAZ, snr_db=snr)
        if prev is not None:
            assert np.all(avg.bounds <= prev + 1e-15)
        prev = avg.bounds


def test_monte_carlo_average_counts_skips():
    rng = np.random.default_rng(7)
    good = random_real(rng, 2)
    mu = spatial_frequency(10.0)
    bad = make_real([(1.0 + 0j, mu, 0.0), (1.0 + 0j, mu + 1e-9, 1e-9)])
    avg = crlb_monte_carlo_average([good, bad], ARR, CAZ)
    assert avg.used == 1 and avg.skipped == 1
    with pytest.raises(ArithmeticError):
        crlb_monte_carlo_average([bad], ARR, CAZ)
    with pytest.raises(ConfigurationError):
        crlb_monte_carlo_average([], ARR, CAZ)
    with pytest.raises(ConfigurationError):
        crlb_monte_carlo_average([good, make_real([(1 + 0j, 1.0, 0.0)])], ARR, CAZ)


def test_parameter_index_round_trip():
    n = 3
    seen = set()
    for kind in ("re", "im", "mu", "tau"):
        for r in range(n):
            seen.add(parameter_index(kind, r, n))
    assert seen == set(range(4 * n))
    with pytest.raises(IndexError):
        parameter_index("mu", 3, 3)
