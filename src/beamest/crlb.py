"""Fisher information of the forward model and the resulting error bounds.

The real parameter vector stacks, per path, the combined gain's real and
imaginary parts, the spatial frequency and the delay, in the block order
[Re gains | Im gains | mu | tau] (4R entries).  The information matrix is
F_ij = (2 / sigma^2) Re tr{ dS/d eta_i ^H  dS/d eta_j } with
S = sum_r g_r A(mu_r) C(tau_r), g_r = sqrt(P_T) alpha_r.

No Jacobian is built.  With A_r = diag(a(mu_r)) and row k of C_r the pilot
row v(tau_r) shifted by k, tr{(A_i C_i)^H A_j C_j} = (a_i^H a_j)(v_i^H v_j).
Every derivative lies in the 3R-vector basis a_r (x) v_r, a'_r (x) v_r,
a_r (x) v'_r, whose Gram matrix K is the Hadamard product of the Gram of
[a | a'] (2R beam-gain rows) and the Gram of [v | v'] (2R pilot rows),
indexed into that basis.  With W the 3R x 4R matrix that places 1 and j on
the gain columns and g_r on the angle and delay columns,
F = (2 / sigma^2) Re(W^H K W).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arrays import ArrayConfig, _cached_codebook
from .channel import ChannelRealization
from .errors import ConfigurationError
from .pilots import CazacConfig, _cached_base
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


def fisher_matrix(real: ChannelRealization, arr: ArrayConfig, caz: CazacConfig) -> FisherMatrix:
    """Assemble the 4R x 4R information matrix from the Gram factorization."""
    if real.noise_var <= 0:
        raise ConfigurationError("the information matrix needs a positive noise variance")
    n = real.r
    gains = real.gains()
    mus = np.array([p.mu for p in real.paths])
    taus = np.array([p.tau_symbols for p in real.paths])
    finite = np.isfinite(mus) & np.isfinite(taus) & np.isfinite(gains)
    if not finite.all():
        raise ValueError(f"non-finite parameters on path {int(np.argmin(finite))}")
    m = np.arange(arr.m)
    phases = np.exp(1j * mus[:, None] * m)
    # rows a_r then a'_r, and v_r then v'_r
    a = np.concatenate([phases, 1j * m * phases]) @ _cached_codebook(arr)
    v = np.concatenate(_kernels.pilot_rows_and_derivs(
        _cached_base(caz), taus, caz.rolloff, caz.pulse_halfwidth))
    # each column of the Jacobian is w_c (a_ia[c] (x) v_iv[c]), in the block
    # order [Re g | Im g | mu | tau]
    r = np.arange(n)
    ia = np.concatenate([r, r, r + n, r])
    iv = np.concatenate([r, r, r, r + n])
    w = np.concatenate([np.ones(n), np.full(n, 1j), gains, gains])
    gram_a = a.conj() @ a.T
    gram_v = v.conj() @ v.T
    k = gram_a[np.ix_(ia, ia)] * gram_v[np.ix_(iv, iv)]
    f = (2.0 / real.noise_var) * np.real(w.conj()[:, None] * k * w)
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

    The 2-norm condition number of the symmetric matrix is lambda_max /
    lambda_min from its eigenvalues.  Near-singular matrices (condition
    number beyond 1e12, e.g. two nearly coincident paths) and matrices with
    lambda_min <= 0 (an information matrix is positive semi-definite, so
    that is a singular one rounded below zero) are flagged non-invertible
    instead of producing pseudo-inverse bounds that understate the
    uncertainty.
    """
    mat = f.f
    if not np.all(np.isfinite(mat)):
        raise ValueError("information matrix has non-finite entries")
    eig = np.linalg.eigvalsh(mat)
    cond = float(eig[-1] / eig[0]) if eig[0] > 0 else math.inf
    if cond >= COND_LIMIT:
        return CrlbReport(bounds=np.full(mat.shape[0], np.nan),
                          condition_number=cond, invertible=False)
    inv = np.linalg.inv(mat)
    diag = np.clip(np.diag(inv), 0.0, None)
    return CrlbReport(bounds=np.sqrt(diag), condition_number=cond, invertible=True)
