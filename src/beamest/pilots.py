"""Constant-amplitude pilot sequences and raised-cosine fractional delays.

The base sequence is a length-L polyphase construction (L a perfect square)
whose cyclic shifts are mutually orthogonal; each probing beam k transmits the
base sequence cyclically shifted by k.  Non-integer path delays are modelled
by raised-cosine interpolation of the wrapped sequence, truncated to
``pulse_halfwidth`` symbols either side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt
from numbers import Integral

import numpy as np

from . import _kernels
from .errors import ConfigurationError


@dataclass(frozen=True)
class CazacConfig:
    """Pilot sequence and pulse-shaping parameters.

    Parameters
    ----------
    length : int
        Sequence length L; must be a perfect square.
    ts : float
        Symbol period in seconds.
    rolloff : float
        Raised-cosine roll-off in [0, 1].
    pulse_halfwidth : int
        Truncation of the pulse support, in symbols either side.
    """

    length: int = 16
    ts: float = 5e-9
    rolloff: float = 0.25
    pulse_halfwidth: int = 8

    def __post_init__(self):
        if self.length < 1 or isqrt(self.length) ** 2 != self.length:
            raise ConfigurationError(
                f"sequence length must be a perfect square, got {self.length}")
        if self.ts <= 0:
            raise ConfigurationError(f"symbol period must be positive, got {self.ts}")
        if not 0.0 <= self.rolloff <= 1.0:
            raise ConfigurationError(f"roll-off must lie in [0, 1], got {self.rolloff}")
        if not isinstance(self.pulse_halfwidth, Integral):
            raise ConfigurationError(
                f"pulse halfwidth must be an integer number of symbols, got {self.pulse_halfwidth!r}")
        if self.pulse_halfwidth < 1:
            raise ConfigurationError(
                f"pulse halfwidth must be at least 1 symbol, got {self.pulse_halfwidth}")


@dataclass(frozen=True)
class PilotMatrix:
    """Stacked pilot rows evaluated at a common delay (in symbols)."""

    c: np.ndarray = field(repr=False)
    delay: float = 0.0


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


def pilot_matrix(cfg: CazacConfig, m: int, tau: float) -> PilotMatrix:
    """M x L pilot matrix at delay ``tau`` symbols; row k is the k-shifted sequence.

    At integer delays each row is an exact cyclic shift (the pulse is 1 at the
    origin and 0 at every other sample); fractional delays interpolate with the
    raised-cosine pulse, wrapping sequence indices cyclically.
    """
    if m < 1:
        raise ConfigurationError(f"row count must be positive, got {m}")
    row0 = _kernels.pilot_row(_cached_base(cfg), tau, cfg.rolloff, cfg.pulse_halfwidth)
    return PilotMatrix(c=_stack_shifted(row0, m), delay=float(tau))


def pilot_matrix_derivative(cfg: CazacConfig, m: int, tau: float) -> np.ndarray:
    """Entrywise derivative of :func:`pilot_matrix` with respect to the delay."""
    if m < 1:
        raise ConfigurationError(f"row count must be positive, got {m}")
    row0 = _kernels.pilot_row_deriv(_cached_base(cfg), tau, cfg.rolloff, cfg.pulse_halfwidth)
    return _stack_shifted(row0, m)


def _stack_shifted(row0: np.ndarray, m: int) -> np.ndarray:
    ell = row0.shape[0]
    idx = (np.arange(ell)[None, :] - np.arange(m)[:, None]) % ell
    return row0[idx]


def rc_pulse(cfg: CazacConfig, t: float) -> float:
    """Raised-cosine pulse h(t), t in seconds; removable singularities by limits."""
    return float(_kernels.rc_samples(np.array([t / cfg.ts]), cfg.rolloff)[0])


def rc_pulse_derivative(cfg: CazacConfig, t: float) -> float:
    """Analytic dh/dt in 1/seconds, with limits at t = 0 and the roll-off poles."""
    return float(_kernels.rc_deriv_samples(np.array([t / cfg.ts]), cfg.rolloff)[0]) / cfg.ts


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
