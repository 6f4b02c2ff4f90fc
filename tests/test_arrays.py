import numpy as np
import pytest

from beamest import (ArrayConfig, ConfigurationError, ScatteringMatrix2x2,
                     butler_matrix, dft_beam, dft_codebook, hybrid_coupler,
                     steering_vector)
from beamest.arrays import (_cached_codebook, beam_gains, mu_to_theta_deg, spatial_frequency,
                            theta_slope_deg_per_rad, wrapped_distance)


def test_beam_phases_exact():
    cfg = ArrayConfig(m=16)
    assert np.array_equal(cfg.beam_phases, 2 * np.pi * np.arange(16) / 16)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ArrayConfig(m=0)


def test_angle_round_trip():
    # one-degree grid over (-90, 90]; -90 and 90 are both endfire, mu = pi
    for theta in np.linspace(-89.0, 90.0, 180):
        assert abs(mu_to_theta_deg(spatial_frequency(theta)) - theta) <= 1e-12
    assert spatial_frequency(-90.0) == spatial_frequency(90.0) == np.pi


def test_angle_slope_is_derivative_of_inverse():
    h = 1e-6
    for theta in np.linspace(-80.0, 80.0, 17):
        mu = spatial_frequency(theta)
        diff = (mu_to_theta_deg(mu + h) - mu_to_theta_deg(mu - h)) / (2.0 * h)
        assert theta_slope_deg_per_rad(theta) == pytest.approx(diff, rel=1e-7)


def test_wrapped_distance():
    rng = np.random.default_rng(0)
    for a, b in rng.uniform(-10.0, 10.0, size=(200, 2)).tolist():
        d = wrapped_distance(a, b)
        assert 0.0 <= d <= np.pi
        assert d == pytest.approx(wrapped_distance(b, a), abs=1e-12)
        assert wrapped_distance(a, a + 2.0 * np.pi) == pytest.approx(0.0, abs=1e-12)
    assert wrapped_distance(0.1, 2.0 * np.pi - 0.1) == pytest.approx(0.2, abs=1e-12)


def test_spatial_frequency_keeps_the_spacing_formula_bits():
    # the general ULA formula 2*pi*(d/lambda)*sin(theta) at d = lambda/2
    def reference(theta_deg, spacing_over_lambda=0.5):
        mu = 2.0 * np.pi * spacing_over_lambda * np.sin(np.radians(theta_deg))
        return float(np.mod(mu, 2.0 * np.pi))

    thetas = np.concatenate([np.linspace(-90.0, 90.0, 721),
                             np.random.default_rng(1).uniform(-90.0, 90.0, 1000)])
    for theta in thetas:
        assert spatial_frequency(theta) == reference(theta)
        assert spatial_frequency(float(theta)) == reference(float(theta))


def test_steering_vector_zero_phase():
    cfg = ArrayConfig(m=4)
    assert np.allclose(steering_vector(cfg, 0.0), np.ones(4))


def test_steering_vector_alternating():
    cfg = ArrayConfig(m=2)
    assert np.allclose(steering_vector(cfg, np.pi), [1.0, -1.0])


def test_steering_vector_half_wavelength_30_degrees():
    # mu = 2*pi*(d/lambda)*sin(30 deg) = pi/2 at half-wavelength spacing
    cfg = ArrayConfig(m=16)
    mu = 2 * np.pi * 0.5 * np.sin(np.radians(30.0))
    v = steering_vector(cfg, mu)
    assert v[0] == 1.0
    assert abs(v[1] - (-1j)) < 1e-12


def test_dft_beam_first_column():
    cfg = ArrayConfig(m=4)
    assert np.allclose(dft_beam(cfg, 0), 0.5 * np.ones(4))


@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_dft_beam_unit_norm(m):
    cfg = ArrayConfig(m=m)
    for k in range(m):
        assert abs(np.linalg.norm(dft_beam(cfg, k)) - 1.0) < 1e-12


def test_dft_beam_index_error():
    cfg = ArrayConfig(m=8)
    with pytest.raises(IndexError):
        dft_beam(cfg, 8)
    with pytest.raises(IndexError):
        dft_beam(cfg, -1)


def test_matched_beam_inner_product():
    cfg = ArrayConfig(m=16)
    a = steering_vector(cfg, cfg.beam_phases[3])
    w = dft_beam(cfg, 3)
    assert abs(abs(np.vdot(a, w)) - 4.0) < 1e-12


@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_beam_orthogonality(m):
    cfg = ArrayConfig(m=m)
    codebook = dft_codebook(cfg)
    for j in range(m):
        inner = steering_vector(cfg, cfg.beam_phases[j]).conj() @ codebook
        expected = np.zeros(m)
        expected[j] = np.sqrt(m)
        assert np.allclose(np.abs(inner), expected, atol=1e-12)


def test_beam_gains_total_power_is_m():
    # the codebook is unitary, so the beam gains of any mu carry power M
    cfg = ArrayConfig(m=16)
    for mu in (0.0, 0.123, 1.0, 5.5):
        assert abs(np.sum(np.abs(beam_gains(cfg, mu)) ** 2) - 16.0) < 1e-9


@pytest.mark.parametrize("scalar", [float, np.float64])
def test_beam_gains_stack_rows_equal_lone_calls_bit_for_bit(scalar):
    # one expression serves a scalar mu, (M,), and a 1-D array, (S, M)
    cfg = ArrayConfig(m=16)
    mus = np.random.default_rng(3).uniform(0.0, 2 * np.pi, 40)
    stacked = beam_gains(cfg, mus)
    lone = np.stack([beam_gains(cfg, scalar(mu)) for mu in mus])
    assert stacked.shape == (40, 16) and lone.shape == (40, 16)
    assert stacked.tobytes() == lone.tobytes()
    assert beam_gains(cfg, list(mus)).tobytes() == stacked.tobytes()


def test_hybrid_coupler_pinned_entries():
    h = hybrid_coupler().entries
    expected = (-1 / np.sqrt(2)) * np.array([[1j, 1.0], [1.0, 1j]])
    assert np.allclose(h, expected, atol=1e-15)


def test_scattering_power_conservation():
    h = hybrid_coupler().entries
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert abs(np.linalg.norm(h @ a) - np.linalg.norm(a)) < 1e-12


def test_scattering_rejects_lossy_matrix():
    with pytest.raises(ConfigurationError):
        ScatteringMatrix2x2(0.5 * np.eye(2))


@pytest.mark.parametrize("m", [2, 8])
def test_butler_gram_identity(m):
    b = butler_matrix(ArrayConfig(m=m))
    assert np.linalg.norm(b.conj().T @ b - np.eye(m)) < 1e-12


@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_butler_columns_match_dft_beams(m):
    # every synthesized column must equal some beam up to a unit-modulus phase
    cfg = ArrayConfig(m=m)
    b = butler_matrix(cfg)
    matched_beams = set()
    for col in b.T:
        hits = [k for k in range(m)
                if abs(abs(np.vdot(dft_beam(cfg, k), col)) - 1.0) < 1e-10]
        assert len(hits) == 1
        matched_beams.add(hits[0])
    assert matched_beams == set(range(m))


def test_butler_requires_power_of_two():
    with pytest.raises(ConfigurationError):
        butler_matrix(ArrayConfig(m=12))


def test_cached_codebook_is_read_only_copy():
    cfg = ArrayConfig(m=8)
    cached = _cached_codebook(cfg)
    assert _cached_codebook(ArrayConfig(m=8)) is cached
    np.testing.assert_array_equal(cached, dft_codebook(cfg))
    with pytest.raises(ValueError):
        cached[0, 0] = 0.0
    fresh = dft_codebook(cfg)       # the public codebook stays writable
    fresh[0, 0] = 0.0
    assert cached[0, 0] != 0.0
