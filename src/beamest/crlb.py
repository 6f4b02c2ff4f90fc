"""Fisher information of the forward model and the resulting error bounds.

The real parameter vector stacks, per path, the combined gain's real and
imaginary parts, the spatial frequency and the delay, in the block order
[Re gains | Im gains | mu | tau] (4R entries).  The information matrix is
F_ij = (2 / sigma^2) Re tr{ dS/d eta_i ^H  dS/d eta_j } with
S = sum_r g_r A(mu_r) C(tau_r), g_r = sqrt(P_T) alpha_r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arrays import ArrayConfig, beam_gains, beam_gain_derivs
from .channel import ChannelRealization
from .errors import ConfigurationError
from .pilots import CazacConfig, _cached_base, _stack_shifted
from . import _kernels

COND_LIMIT = 1e12


@dataclass(frozen=True)
class FisherMatrix:
    """4R x 4R information matrix in the block order [Re g | Im g | mu | tau]."""

    f: np.ndarray = field(repr=False)

    @property
    def n_paths(self) -> int:
        return self.f.shape[0] // 4


@dataclass(frozen=True)
class CrlbReport:
    """Per-parameter square-root bounds, or a non-invertible flag."""

    bounds: np.ndarray
    condition_number: float
    invertible: bool


def parameter_index(kind: str, r: int, n_paths: int) -> int:
    """Index of a parameter in the stacked vector; kind in {re, im, mu, tau}."""
    offset = {"re": 0, "im": 1, "mu": 2, "tau": 3}[kind]
    if not 0 <= r < n_paths:
        raise IndexError(f"path index {r} out of range 0..{n_paths - 1}")
    return offset * n_paths + r


def model_jacobian(real: ChannelRealization, arr: ArrayConfig, caz: CazacConfig) -> np.ndarray:
    """Partial derivatives of the noiseless observation, shape (M, L, 4R).

    Slices follow the parameter order: d/dRe{g_r} = A_r C_r, d/dIm{g_r} =
    j A_r C_r, d/dmu_r = g_r A'_r C_r, d/dtau_r = g_r A_r C'_r.
    """
    n = real.r
    gains = real.gains()
    cbase = _cached_base(caz)
    jac = np.empty((arr.m, caz.length, 4 * n), dtype=complex)
    for r, p in enumerate(real.paths):
        if not (np.isfinite(p.mu) and np.isfinite(p.tau_symbols) and np.isfinite(gains[r])):
            raise ValueError(f"non-finite parameters on path {r}")
        a = beam_gains(arr, p.mu)
        a_d = beam_gain_derivs(arr, p.mu)
        row0 = _kernels.pilot_row(cbase, p.tau_symbols, caz.rolloff, caz.pulse_halfwidth)
        row0_d = _kernels.pilot_row_deriv(cbase, p.tau_symbols, caz.rolloff, caz.pulse_halfwidth)
        c = _stack_shifted(row0, arr.m)
        c_d = _stack_shifted(row0_d, arr.m)
        ac = a[:, None] * c
        jac[:, :, parameter_index("re", r, n)] = ac
        jac[:, :, parameter_index("im", r, n)] = 1j * ac
        jac[:, :, parameter_index("mu", r, n)] = gains[r] * a_d[:, None] * c
        jac[:, :, parameter_index("tau", r, n)] = gains[r] * a[:, None] * c_d
    return jac


def fisher_matrix(real: ChannelRealization, arr: ArrayConfig, caz: CazacConfig) -> FisherMatrix:
    """Assemble the 4R x 4R information matrix from the model Jacobian."""
    if real.noise_var <= 0:
        raise ConfigurationError("the information matrix needs a positive noise variance")
    jac = model_jacobian(real, arr, caz)
    flat = jac.reshape(-1, jac.shape[2])
    f = (2.0 / real.noise_var) * np.real(flat.conj().T @ flat)
    return FisherMatrix(f=0.5 * (f + f.T))


def fisher_at_power(f0: FisherMatrix, pt: float, noise_var: float) -> FisherMatrix:
    """Information matrix at transmit power ``pt`` from the unit-power, unit-noise one.

    Only the delay and angle derivatives carry the gain sqrt(P_T), so
    F(P_T) = D F0 D / sigma^2 with D = diag(1, 1, sqrt(P_T), sqrt(P_T)) per
    block; one Jacobian serves a whole SNR sweep.  The weights d_i d_j are
    formed first, so the result is exactly symmetric.
    """
    if noise_var <= 0:
        raise ConfigurationError("the information matrix needs a positive noise variance")
    n = 2 * f0.n_paths
    a = 1.0 / math.sqrt(noise_var)
    d = np.array([a] * n + [a * math.sqrt(pt)] * n)
    return FisherMatrix(f=d[:, None] * d * f0.f)


def crlb_bounds(f: FisherMatrix) -> CrlbReport:
    """Square roots of the inverse information diagonal, gated on conditioning.

    Near-singular matrices (condition number beyond 1e12, e.g. two nearly
    coincident paths) are flagged non-invertible instead of producing
    pseudo-inverse bounds that understate the uncertainty.
    """
    mat = f.f
    if not np.all(np.isfinite(mat)):
        raise ValueError("information matrix has non-finite entries")
    cond = float(np.linalg.cond(mat))
    if not np.isfinite(cond) or cond >= COND_LIMIT:
        return CrlbReport(bounds=np.full(mat.shape[0], np.nan),
                          condition_number=cond, invertible=False)
    inv = np.linalg.inv(mat)
    diag = np.clip(np.diag(inv), 0.0, None)
    return CrlbReport(bounds=np.sqrt(diag), condition_number=cond, invertible=True)
