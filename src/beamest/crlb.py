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

The SNR points of one realization differ only in transmit power and noise,
so their matrices are scaled copies of one unit-power, unit-noise matrix,
formed and bounded as one (P, 4R, 4R) stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .arrays import ArrayConfig, _cached_codebook
from .channel import ChannelRealization, delayed_pilots
from .errors import ConfigurationError
from .pilots import CazacConfig

COND_LIMIT = 1e12


@dataclass(frozen=True)
class CrlbReport:
    """Per-parameter square-root bounds, or a non-invertible flag.

    For a stack of P matrices the bounds are (P, 4R) and the condition
    numbers and flags are length-P arrays, one entry per member.
    """

    bounds: np.ndarray
    condition_number: float | np.ndarray
    invertible: bool | np.ndarray


def parameter_index(kind: str, r: int, n_paths: int) -> int:
    """Index of a parameter in the stacked vector; kind in {re, im, mu, tau}."""
    offset = {"re": 0, "im": 1, "mu": 2, "tau": 3}[kind]
    if not 0 <= r < n_paths:
        raise IndexError(f"path index {r} out of range 0..{n_paths - 1}")
    return offset * n_paths + r


@lru_cache(maxsize=16)
def _gram_index(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only flat indices that lay the 2R x 2R Gram matrices of [a | a'] and
    [v | v'] onto the 4R Jacobian columns [Re g | Im g | mu | tau]."""
    r = np.arange(n)
    out = []
    for idx in (np.concatenate([r, r, r + n, r]), np.concatenate([r, r, r, r + n])):
        flat = idx[:, None] * (2 * n) + idx
        flat.setflags(write=False)
        out.append(flat)
    return tuple(out)


def fisher_matrix(real: ChannelRealization, arr: ArrayConfig, caz: CazacConfig,
                  rows: Optional[np.ndarray] = None) -> np.ndarray:
    """Assemble the 4R x 4R information matrix, in the block order
    [Re g | Im g | mu | tau], from the Gram factorization.

    ``rows`` may hold the realization's (2R, L) pilot rows [v | v'] from
    :func:`beamest.channel.delayed_pilots`; without them they are computed here.
    """
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
    v = delayed_pilots([real], caz)[0] if rows is None else rows
    # each column of the Jacobian is w_c (a_ia[c] (x) v_iv[c]), in the block
    # order [Re g | Im g | mu | tau]
    ia, iv = _gram_index(n)
    w = np.concatenate([np.ones(n), np.full(n, 1j), gains, gains])
    gram_a = a.conj() @ a.T
    gram_v = v.conj() @ v.T
    k = np.take(gram_a, ia) * np.take(gram_v, iv)
    f = (2.0 / real.noise_var) * np.real(w.conj()[:, None] * k * w)
    return 0.5 * (f + f.T)


@lru_cache(maxsize=16)
def _power_columns(n: int) -> np.ndarray:
    """Read-only mask of the 4R columns whose derivatives carry sqrt(P_T): mu and tau."""
    out = np.arange(4 * n) >= 2 * n
    out.setflags(write=False)
    return out


def fisher_at_power(f0: np.ndarray, pt, noise_var) -> np.ndarray:
    """Information matrix at transmit power ``pt`` from the unit-power, unit-noise one.

    Only the delay and angle derivatives carry the gain sqrt(P_T), so
    F(P_T) = D F0 D / sigma^2 with D = diag(1, 1, sqrt(P_T), sqrt(P_T)) per
    block; one Jacobian serves a whole SNR sweep.  The weights d_i d_j are
    formed first, so the result is exactly symmetric.  Scalar ``pt`` and
    ``noise_var`` give one 4R x 4R matrix; arrays of P powers and/or noise
    variances give the (P, 4R, 4R) stack, each member equal to its own
    scalar call.
    """
    noise_var = np.asarray(noise_var, dtype=float)
    if min(noise_var.flat) <= 0:
        raise ConfigurationError("the information matrix needs a positive noise variance")
    a = 1.0 / np.sqrt(noise_var)
    d = np.where(_power_columns(f0.shape[-1] // 4), (a * np.sqrt(pt))[..., None], a[..., None])
    return d[..., :, None] * d[..., None, :] * f0


def crlb_bounds(mat: np.ndarray) -> CrlbReport:
    """Square roots of the inverse information diagonal, gated on conditioning.

    The 2-norm condition number of the symmetric matrix is lambda_max /
    lambda_min from its eigenvalues.  Near-singular matrices (condition
    number beyond 1e12, e.g. two nearly coincident paths) and matrices with
    lambda_min <= 0 (an information matrix is positive semi-definite, so
    that is a singular one rounded below zero) are flagged non-invertible
    instead of producing pseudo-inverse bounds that understate the
    uncertainty.

    A (P, 4R, 4R) stack is gated and inverted member by member, with one
    ``eigvalsh`` over the stack and one ``inv`` over the members that pass;
    each member's report equals that of its own 2-D call bit for bit.
    """
    if not np.isfinite(mat).all():
        raise ValueError("information matrix has non-finite entries")
    eig = np.linalg.eigvalsh(mat)
    lo, hi = eig[..., 0], eig[..., -1]
    # all(x.flat) costs a fraction of x.all() on the few flags of a trial
    positive = lo > 0
    if all(positive.flat):
        cond = hi / lo
    else:
        cond = np.divide(hi, lo, out=np.full(np.shape(lo), math.inf), where=positive)
    ok = cond < COND_LIMIT
    if all(ok.flat):
        bounds = _sqrt_inverse_diagonal(mat)
    else:
        bounds = np.full(mat.shape[:-1], np.nan)
        if any(ok.flat):
            bounds[ok] = _sqrt_inverse_diagonal(mat[ok])
    if mat.ndim == 2:
        return CrlbReport(bounds=bounds, condition_number=float(cond), invertible=bool(ok))
    return CrlbReport(bounds=bounds, condition_number=cond, invertible=ok)


def _sqrt_inverse_diagonal(mat: np.ndarray) -> np.ndarray:
    diag = np.diagonal(np.linalg.inv(mat), axis1=-2, axis2=-1)
    return np.sqrt(np.maximum(diag, 0.0))
