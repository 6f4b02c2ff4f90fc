"""Uniform linear array geometry, DFT beamforming codebook and Butler synthesis.

The array is half-wavelength spaced, so a departure angle theta has the
spatial frequency mu = pi sin(theta); the angle helpers here are the one
place that convention is written.

The probing codebook is the set of columns of the unitary M-point DFT matrix;
:func:`butler_matrix` builds the same beamformer structurally out of 90-degree
hybrid couplers, fixed phase shifters and butterfly permutations, which is how
the codebook is realised in analog hardware without adaptive phase shifters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, require_integers


@dataclass(frozen=True)
class ArrayConfig:
    """Half-wavelength sub-array geometry and beam grid.

    Parameters
    ----------
    m : int
        Antennas per sub-array (power of two required for Butler synthesis).
    """

    m: int

    def __post_init__(self):
        require_integers(self, "m")
        if self.m < 1:
            raise ConfigurationError(f"array size must be positive, got {self.m}")

    @property
    def beam_phases(self) -> np.ndarray:
        """Beam grid phases 2*pi*k/M for k = 0..M-1."""
        return 2.0 * np.pi * np.arange(self.m) / self.m


def spatial_frequency(theta_deg: float) -> float:
    """mu = pi*sin(theta), wrapped into [0, 2*pi)."""
    mu = np.pi * np.sin(np.radians(theta_deg))
    return float(np.mod(mu, 2.0 * np.pi))


def mu_to_theta_deg(mu: float) -> float:
    """Convert a spatial frequency in [0, 2*pi) to a departure angle in degrees."""
    mu = float(np.mod(mu, 2.0 * np.pi))
    nu = mu if mu <= np.pi else mu - 2.0 * np.pi
    return float(np.degrees(np.arcsin(nu / np.pi)))


def theta_slope_deg_per_rad(theta_deg: float) -> float:
    """d theta[deg] / d mu[rad] along theta = arcsin(mu / pi)."""
    return 180.0 / (np.pi ** 2 * math.cos(math.radians(theta_deg)))


def wrapped_distance(a: float, b: float) -> float:
    """Distance between two spatial frequencies on the 2*pi circle, in [0, pi]."""
    return abs((a - b + np.pi) % (2.0 * np.pi) - np.pi)


@dataclass(frozen=True)
class ScatteringMatrix2x2:
    """Reduced scattering matrix of a lossless 4-port network.

    Unitarity (power conservation) is enforced at construction.
    """

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        s = np.asarray(self.entries, dtype=complex)
        if s.shape != (2, 2):
            raise ConfigurationError(f"scattering matrix must be 2x2, got {s.shape}")
        if np.linalg.norm(s @ s.conj().T - np.eye(2)) > 1e-12:
            raise ConfigurationError("scattering matrix is not unitary (lossy network)")
        object.__setattr__(self, "entries", s)


def hybrid_coupler() -> ScatteringMatrix2x2:
    """Reduced 2x2 scattering matrix of a matched 90-degree hybrid coupler."""
    return ScatteringMatrix2x2((-1.0 / np.sqrt(2.0)) * np.array([[1j, 1.0], [1.0, 1j]]))


def steering_vector(cfg: ArrayConfig, mu: float) -> np.ndarray:
    """ULA steering vector [1, e^{-j*mu}, ..., e^{-j(M-1)mu}] for spatial frequency mu."""
    return np.exp(-1j * np.arange(cfg.m) * mu)


def dft_beam(cfg: ArrayConfig, k: int) -> np.ndarray:
    """Unit-norm beamforming vector equal to column k of the unitary DFT matrix."""
    if not 0 <= k < cfg.m:
        raise IndexError(f"beam index {k} out of range 0..{cfg.m - 1}")
    return steering_vector(cfg, cfg.beam_phases[k]) / np.sqrt(cfg.m)


def dft_codebook(cfg: ArrayConfig) -> np.ndarray:
    """All M beams stacked as columns; equals the unitary M-point DFT matrix."""
    m = np.arange(cfg.m)
    return np.exp(-2j * np.pi * np.outer(m, m) / cfg.m) / np.sqrt(cfg.m)


@lru_cache(maxsize=8)
def _cached_codebook(cfg: ArrayConfig) -> np.ndarray:
    """Read-only :func:`dft_codebook`, built once per array configuration."""
    out = dft_codebook(cfg)
    out.setflags(write=False)
    return out


def beam_gains(cfg: ArrayConfig, mu) -> np.ndarray:
    """Diagonal of A(mu): inner products a(mu)^H w_k for every beam k.

    A scalar mu gives (M,) and a 1-D array of S spatial frequencies one row
    each, (S, M).  Every row is its own vector-matrix product, so it equals
    its lone call bit for bit.
    """
    phases = np.exp(1j * np.arange(cfg.m) * np.asarray(mu, dtype=float)[..., None])
    return np.matmul(phases[..., None, :], _cached_codebook(cfg))[..., 0, :]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def butler_matrix(cfg: ArrayConfig) -> np.ndarray:
    """Synthesize the M-beam network from hybrids, fixed shifters and permutations.

    The network is the radix-2 butterfly: each 2x2 butterfly is one hybrid
    coupler flanked by fixed 90-degree shifters (which turns the coupler into
    the 2-point DFT up to a global phase), stages are glued with fixed twiddle
    shifters w^i, w = exp(-2j*pi/M), and an even/odd sorting permutation.
    The product equals the unitary DFT matrix up to per-column unit-modulus
    phases and a column permutation; callers should verify by column matching
    rather than relying on a specific port order.
    """
    if not _is_power_of_two(cfg.m):
        raise ConfigurationError(
            f"Butler synthesis requires a power-of-two array size, got {cfg.m}")

    hybrid = hybrid_coupler().entries
    quarter = np.diag([1.0, 1j])
    # 1j * D @ H @ D == 2-point DFT; the global phase is unobservable
    butterfly2 = 1j * quarter @ hybrid @ quarter

    def build(m: int) -> np.ndarray:
        if m == 1:
            return np.ones((1, 1), dtype=complex)
        if m == 2:
            return butterfly2.copy()
        half = build(m // 2)
        sub = np.zeros((m, m), dtype=complex)
        sub[: m // 2, : m // 2] = half
        sub[m // 2:, m // 2:] = half
        sort = np.zeros((m, m))
        order = list(range(0, m, 2)) + list(range(1, m, 2))
        sort[np.arange(m), order] = 1.0
        tw = np.exp(-2j * np.pi / m) ** np.arange(m // 2)
        eye = np.eye(m // 2)
        stage = np.block([[eye, np.diag(tw)], [eye, -np.diag(tw)]]) / np.sqrt(2.0)
        return stage @ sub @ sort

    return build(cfg.m)
