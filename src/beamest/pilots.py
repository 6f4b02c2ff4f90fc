"""Constant-amplitude pilot sequences and raised-cosine fractional delays.

The base sequence is a length-L polyphase construction (L a perfect square)
whose cyclic shifts are mutually orthogonal; each probing beam k transmits the
base sequence cyclically shifted by k.  Non-integer path delays are modelled
by raised-cosine interpolation of the wrapped sequence, truncated to
``pulse_halfwidth`` symbols either side.  Only this module builds the
per-beam shift layout (row k shifted by k): ``_shift_index``,
``_stack_shifted`` and ``_conj_shifts`` lay rows out as C(tau),
``_unshift_index`` undoes the shift, and ``_lag_correlation`` correlates an
observation with every pilot shift, the beam shifts undone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from . import _kernels
from .errors import ConfigurationError, is_real, require_integers, require_reals


@dataclass(frozen=True)
class CazacConfig:
    """Pilot sequence and pulse-shaping parameters.

    Parameters
    ----------
    length : int
        Sequence length L; must be a perfect square.
    rolloff : float
        Raised-cosine roll-off in [0, 1].
    pulse_halfwidth : int
        Truncation of the pulse support, in symbols either side.
    """

    length: int = 16
    rolloff: float = 0.25
    pulse_halfwidth: int = 8

    def __post_init__(self):
        require_integers(self, "length", "pulse_halfwidth")
        require_reals(self, "rolloff")
        if self.length < 1 or isqrt(self.length) ** 2 != self.length:
            raise ConfigurationError(
                f"sequence length must be a perfect square, got {self.length}")
        if not 0.0 <= self.rolloff <= 1.0:
            raise ConfigurationError(f"roll-off must lie in [0, 1], got {self.rolloff}")
        if self.pulse_halfwidth < 1:
            raise ConfigurationError(
                f"pulse halfwidth must be at least 1 symbol, got {self.pulse_halfwidth}")


def cazac_base(cfg: CazacConfig) -> np.ndarray:
    """Base constant-amplitude sequence c(n), n = 0..L-1.

    c(n) = exp(j*(2*pi/sqrt(L))*(mod(n, sqrt(L)) + 1)*(floor(n / sqrt(L)) + 1) + j*pi/4).
    For L = 16 every entry is a QPSK symbol (+-1 +-j)/sqrt(2).
    """
    ell = cfg.length
    root = isqrt(ell)
    n = np.arange(ell)
    phase = 2.0 * np.pi / root * (np.mod(n, root) + 1) * (n // root + 1) + np.pi / 4.0
    return np.exp(1j * phase)


@lru_cache(maxsize=8)
def _cached_base(cfg: CazacConfig) -> np.ndarray:
    """Read-only :func:`cazac_base`, built once per pilot configuration."""
    out = cazac_base(cfg)
    out.setflags(write=False)
    return out


# from 2**52 symbols on, a double holds no fraction of a symbol to
# interpolate, and past 2**63 the tap index would overflow
_MAX_DELAY = 2.0 ** 52


def _check_rows_and_delay(m: int, tau: float) -> None:
    """Refuse a row count below 1, or a delay that is NaN, infinite or at
    least 2**52 symbols in magnitude."""
    if m < 1:
        raise ConfigurationError(f"row count must be positive, got {m}")
    if not is_real(tau) or abs(tau) >= _MAX_DELAY:
        raise ConfigurationError(
            f"delay must be a finite number of symbols below 2**52 in magnitude, got {tau!r}")


def pilot_matrix(cfg: CazacConfig, m: int, tau: float) -> np.ndarray:
    """M x L pilot matrix at delay ``tau`` symbols; row k is the k-shifted sequence.

    At integer delays each row is an exact cyclic shift (the pulse is 1 at the
    origin and 0 at every other sample); fractional delays interpolate with the
    raised-cosine pulse, wrapping sequence indices cyclically.  A row count
    below 1 or a non-finite or huge delay raises :class:`ConfigurationError`.
    """
    _check_rows_and_delay(m, tau)
    row0 = _kernels.pilot_rows(_cached_base(cfg), [tau], cfg.rolloff, cfg.pulse_halfwidth)[0]
    return _stack_shifted(row0, m)


def pilot_matrix_derivative(cfg: CazacConfig, m: int, tau: float) -> np.ndarray:
    """Entrywise derivative of :func:`pilot_matrix` with respect to the delay,
    which takes the same arguments."""
    _check_rows_and_delay(m, tau)
    row0 = _kernels.pilot_rows_and_derivs(_cached_base(cfg), [tau], cfg.rolloff,
                                          cfg.pulse_halfwidth)[1][0]
    return _stack_shifted(row0, m)


@lru_cache(maxsize=16)
def _shift_index(m: int, ell: int) -> np.ndarray:
    """Read-only beam-shift index (s - k) mod L, row k = 0..m-1, column s = 0..L-1."""
    idx = (np.arange(ell)[None, :] - np.arange(m)[:, None]) % ell
    idx.setflags(write=False)
    return idx


def _stack_shifted(row0: np.ndarray, m: int) -> np.ndarray:
    """m x L matrix whose row k is ``row0`` cyclically shifted by k; a (..., L)
    stack of rows gives one matrix per row, (..., m, L)."""
    return row0.take(_shift_index(m, row0.shape[-1]), axis=-1)


@lru_cache(maxsize=16)
def _unshift_index(m: int, n: int) -> np.ndarray:
    """Read-only flat index k*n + (s + k) mod n, row k, column s of an m x n matrix:
    the gather undoing the per-beam shift, at (M, L) for :func:`_lag_correlation`
    (column d at delay d) and for SAGE's data-domain X_g."""
    rows = np.arange(m)[:, None]
    idx = rows * n + (np.arange(n)[None, :] + rows) % n
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=8)
def _conj_shifts(cfg: CazacConfig) -> np.ndarray:
    """Read-only L x L conjugated base-pilot shifts, row d = conj(c((s - d) mod L)),
    one per correlation lag; its first M rows are C(0)^H transposed."""
    out = _stack_shifted(_cached_base(cfg), cfg.length).conj()
    out.setflags(write=False)
    return out


def _lag_correlation(x: np.ndarray, cfg: CazacConfig) -> np.ndarray:
    """P[k, d] = sum_s X_g[k, s] conj(c((s - d) mod L)) of one (M, L) observation,
    or of each slab of a (B, M, L) stack (one ``matmul``, each slab equal to
    its lone call bit for bit): each beam's row correlated with every cyclic
    shift of the base pilot, its own shift undone, so column d is delay d.
    X_g[k, s] = X[k, (s + k) mod L] is the observation gathered with
    :func:`_unshift_index`; the gather is taken after the correlation."""
    z = x @ _conj_shifts(cfg).T
    return z.reshape(z.shape[:-2] + (-1,)).take(_unshift_index(*z.shape[-2:]), axis=-1)


@lru_cache(maxsize=8)
def sidelobe_power_ratios(cfg: CazacConfig) -> np.ndarray:
    """Worst-case pulse sidelobe-to-mainlobe power ratio per integer delay offset.

    Entry d-1 bounds how much post-correlation power a single path at any
    fractional delay can deposit d symbols away from its strongest integer
    sample, relative to that strongest sample.  Used by the coarse stage to
    recognise detections that are explainable as pulse sidelobes.  Cached per
    configuration, so the array is read-only.
    """
    fs = np.linspace(0.0, 1.0, 201)[:-1]
    main = np.maximum(_kernels.rc_samples(-fs, cfg.rolloff) ** 2,
                      _kernels.rc_samples(1.0 - fs, cfg.rolloff) ** 2)
    out = np.empty(cfg.pulse_halfwidth)
    for d in range(1, cfg.pulse_halfwidth + 1):
        upper = _kernels.rc_samples(d - fs, cfg.rolloff) ** 2
        lower = _kernels.rc_samples(d + fs, cfg.rolloff) ** 2
        out[d - 1] = np.max(np.maximum(upper, lower) / main)
    out.setflags(write=False)
    return out
