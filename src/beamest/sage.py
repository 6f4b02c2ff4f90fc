"""Maximum-likelihood refinement by space-alternating expectation maximization.

Each path owns a hidden single-path observation; the expectation step
attributes to path r the residual after subtracting every other path's
reconstruction, and the maximization step updates that path's delay, spatial
frequency and complex gain one coordinate at a time.  The two 1-D searches
evaluate a coarse grid and then zoom into the bracket around its best point,
each round evaluating, in one array call, a few points around the vertex of
the parabola through the best point and its neighbours.

The trace objectives reduce to small vector forms.  Writing X_g[k, s] =
X[k, (s + k) mod L] (undoing the per-beam pilot shift) and v for the delayed
base pilot row:

* tr{C(tau)^H A(mu)^H X} = sum_s conj(v_tau(s)) * z(s),
  z(s) = sum_k conj(A_kk) X_g[k, s];
* tr{C^H A^H A C} = M * ||v_tau||^2, since the beam gains of any spatial
  frequency have total power M (the codebook is unitary).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .arrays import ArrayConfig, beam_gains
from .channel import ReceiveMatrix
from .coarse import CoarseEstimate
from .errors import ConfigurationError, NumericalDegeneracyError
from .pilots import CazacConfig, _cached_base, _stack_shifted


@dataclass(frozen=True)
class SageConfig:
    """Refinement controls.

    ``mu_window`` is the half-width of the spatial-frequency search window;
    ``None`` means one beam spacing (2*pi/M), matching the coarse stage's
    localisation guarantee.  ``tau_window_symbols`` is the half-width of the
    delay window around the integer initialisation.
    """

    beta: float = 1.0
    gamma_stop: float = 1e-3
    max_iterations: int = 20
    tau_window_symbols: float = 1.0
    mu_window: Optional[float] = None
    grid_points: int = 64
    refine_tol: float = 1e-7

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ConfigurationError(f"beta must lie in (0, 1], got {self.beta}")
        if self.gamma_stop <= 0:
            raise ConfigurationError(f"stopping threshold must be positive, got {self.gamma_stop}")
        for name in ("max_iterations", "grid_points"):
            if not isinstance(getattr(self, name), Integral):
                raise ConfigurationError(
                    f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.max_iterations < 1:
            raise ConfigurationError(f"need at least one iteration, got {self.max_iterations}")
        if not self.tau_window_symbols > 0:
            raise ConfigurationError(
                f"tau_window_symbols must be positive, got {self.tau_window_symbols}")
        if self.mu_window is not None and not self.mu_window > 0:
            raise ConfigurationError(f"mu_window must be positive, got {self.mu_window}")
        if self.grid_points < 8:
            raise ConfigurationError(f"grid needs at least 8 points, got {self.grid_points}")
        if self.refine_tol <= 0:
            raise ConfigurationError(f"refinement tolerance must be positive, got {self.refine_tol}")


@dataclass(frozen=True)
class PathEstimate:
    """Refined parameters of one path; ``alpha_hat`` is the combined gain sqrt(P_T)*alpha."""

    mu_hat: float
    tau_hat: float
    alpha_hat: complex


@dataclass(frozen=True)
class RefinedEstimate:
    paths: Tuple[PathEstimate, ...]
    iterations: int
    converged: bool


class _Workspace:
    """Per-configuration quantities shared by the searches; its arrays are read-only."""

    def __init__(self, arr: ArrayConfig, caz: CazacConfig):
        self.arr = arr
        self.caz = caz
        self.cbase = _cached_base(caz)
        ell = caz.length
        self.ell = ell
        self.rows = np.arange(arr.m)[:, None]
        # gather matrix undoing the per-beam shift: Xg[k, s] = X[k, (s + k) % L]
        self.gather = (np.arange(ell)[None, :] + self.rows) % ell
        # conj pilot shifts for integer-lag correlation: corr[d, s] = conj(c((s - d) % L))
        idx = (np.arange(ell)[None, :] - np.arange(ell)[:, None]) % ell
        self.corr = self.cbase[idx].conj()
        for a in (self.rows, self.gather, self.corr):
            a.setflags(write=False)

    def gathered(self, x: np.ndarray) -> np.ndarray:
        return x[self.rows, self.gather]

    def pilot_row(self, tau: float) -> np.ndarray:
        return _kernels.pilot_row(self.cbase, tau, self.caz.rolloff, self.caz.pulse_halfwidth)

    def reconstruct(self, est: PathEstimate) -> np.ndarray:
        row0 = self.pilot_row(est.tau_hat)
        return est.alpha_hat * beam_gains(self.arr, est.mu_hat)[:, None] \
            * _stack_shifted(row0, self.arr.m)


# one workspace per (array, pilot) configuration, shared by every run and step helper
_workspace = lru_cache(maxsize=8)(_Workspace)


def _tau_bounds(center: float, cfg: SageConfig, ell: int) -> Tuple[float, float]:
    # delays live on a cycle of length L; the window is clipped to [0, L)
    lo = max(0.0, center - cfg.tau_window_symbols)
    hi = min(float(ell), center + cfg.tau_window_symbols)
    return lo, hi


def expectation_step(y: ReceiveMatrix, estimates: Sequence[PathEstimate], r: int,
                     cfg: SageConfig) -> np.ndarray:
    """Expected hidden observation of path r given the current estimates.

    With beta = 1 this is the observation minus every other path's
    reconstruction; general beta blends in (1 - beta) of path r's own
    reconstruction.
    """
    ws = _workspace(y.arr, y.caz)
    others = np.zeros_like(y.y)
    for i, est in enumerate(estimates):
        if i != r and est.alpha_hat != 0:
            others += ws.reconstruct(est)
    residual = y.y - others
    if cfg.beta == 1.0:
        return residual
    return (1.0 - cfg.beta) * ws.reconstruct(estimates[r]) + cfg.beta * residual


def _objective_scale(cfg: SageConfig, noise_var: float, m: int) -> float:
    return 1.0 / (cfg.beta * noise_var * m)


def maximize_tau(x_hat: np.ndarray, mu_fixed: float, cfg: SageConfig, search_center: float,
                 *, arr: ArrayConfig, caz: CazacConfig, noise_var: float = 1.0) -> float:
    """Delay maximizing |tr{C(tau)^H A(mu)^H X}| ** 2 / (beta sigma^2 tr{C^H A^H A C}).

    The search covers ``search_center`` +/- the configured window, clipped to
    [0, L); the bracket around the best point of a ``grid_points`` grid is
    zoomed until it is no wider than ``refine_tol``.  An all-zero hidden
    observation returns the center unchanged.
    """
    ws = _workspace(arr, caz)
    z = (beam_gains(arr, mu_fixed).conj()[:, None] * ws.gathered(x_hat)).sum(axis=0)
    if not np.any(z):
        return float(search_center)
    w = ws.corr @ z
    lo, hi = _tau_bounds(search_center, cfg, ws.ell)
    tau = _kernels.search_tau(w, caz.rolloff, caz.pulse_halfwidth, ws.ell,
                              lo, hi, cfg.grid_points, cfg.refine_tol)
    return float(tau)


def maximize_mu(x_hat: np.ndarray, tau_fixed: float, cfg: SageConfig, search_center: float,
                *, arr: ArrayConfig, caz: CazacConfig, noise_var: float = 1.0) -> float:
    """Spatial frequency maximizing the same objective at a fixed delay.

    Searches ``search_center`` +/- the window (default one beam spacing); the
    result is wrapped into [0, 2*pi).
    """
    ws = _workspace(arr, caz)
    v = ws.pilot_row(tau_fixed)
    q = (ws.gathered(x_hat) * v.conj()[None, :]).sum(axis=1)
    if not np.any(q):
        return float(np.mod(search_center, 2.0 * np.pi))
    qt = arr.m * np.fft.ifft(q)
    half = cfg.mu_window if cfg.mu_window is not None else 2.0 * np.pi / arr.m
    mu = _kernels.search_mu(qt, search_center, half, cfg.grid_points, cfg.refine_tol)
    return float(np.mod(mu, 2.0 * np.pi))


def tau_objective_value(x_hat: np.ndarray, mu_fixed: float, tau: float, cfg: SageConfig,
                        *, arr: ArrayConfig, caz: CazacConfig, noise_var: float = 1.0) -> float:
    """The delay-search objective evaluated at one point (for ascent checks)."""
    ws = _workspace(arr, caz)
    z = (beam_gains(arr, mu_fixed).conj()[:, None] * ws.gathered(x_hat)).sum(axis=0)
    w = ws.corr @ z
    raw = _kernels.tau_objective(w, tau, caz.rolloff, caz.pulse_halfwidth, ws.ell)
    return raw * _objective_scale(cfg, noise_var, arr.m)


def mu_objective_value(x_hat: np.ndarray, tau_fixed: float, mu: float, cfg: SageConfig,
                       *, arr: ArrayConfig, caz: CazacConfig, noise_var: float = 1.0) -> float:
    """The spatial-frequency objective evaluated at one point (for ascent checks)."""
    ws = _workspace(arr, caz)
    v = ws.pilot_row(tau_fixed)
    q = (ws.gathered(x_hat) * v.conj()[None, :]).sum(axis=1)
    qt = arr.m * np.fft.ifft(q)
    raw = _kernels.mu_objective(qt, mu)
    norm = float(np.sum(np.abs(v) ** 2))
    return raw * _objective_scale(cfg, noise_var, arr.m) / norm


def update_alpha(x_hat: np.ndarray, mu_fixed: float, tau_fixed: float,
                 *, arr: ArrayConfig, caz: CazacConfig) -> complex:
    """Closed-form combined gain tr{C^H A^H X} / tr{C^H A^H A C}."""
    ws = _workspace(arr, caz)
    v = ws.pilot_row(tau_fixed)
    gains = beam_gains(arr, mu_fixed)
    num = (gains.conj()[:, None] * ws.gathered(x_hat) * v.conj()[None, :]).sum()
    den = arr.m * float(np.sum(np.abs(v) ** 2))
    if den < 1e-30:
        raise NumericalDegeneracyError("vanishing pilot energy in the gain update")
    return complex(num / den)


def run_sage_from(y: ReceiveMatrix, initial: Sequence[PathEstimate], cfg: SageConfig,
                  noise_var: float, order: Optional[Sequence[int]] = None) -> RefinedEstimate:
    """Iterate expectation/maximization passes from explicit initial estimates.

    ``order`` fixes the within-pass update order (defaults to the given order).
    One iteration is a full update of every path; the loop stops when the
    largest relative parameter change across paths falls below the stopping
    threshold, with an absolute fallback where a parameter sits at zero.
    """
    if not initial:
        raise ConfigurationError("refinement needs at least one initial path")
    ws = _workspace(y.arr, y.caz)
    m = y.arr.m
    est: List[PathEstimate] = list(initial)
    recon: List[np.ndarray] = [
        ws.reconstruct(e) if e.alpha_hat != 0 else np.zeros_like(y.y) for e in est
    ]
    if order is None:
        order = range(len(est))
    half_mu = cfg.mu_window if cfg.mu_window is not None else 2.0 * np.pi / m

    iterations = 0
    converged = False
    for _ in range(cfg.max_iterations):
        iterations += 1
        previous = list(est)
        for r in order:
            total = np.zeros_like(y.y)
            for i in range(len(est)):
                if i != r:
                    total += recon[i]
            x_hat = y.y - total
            if cfg.beta != 1.0:
                x_hat = (1.0 - cfg.beta) * recon[r] + cfg.beta * x_hat
            xg = ws.gathered(x_hat)

            gains = beam_gains(y.arr, est[r].mu_hat)
            z = (gains.conj()[:, None] * xg).sum(axis=0)
            if not np.any(z):
                continue
            w = ws.corr @ z
            lo, hi = _tau_bounds(est[r].tau_hat, cfg, ws.ell)
            tau = _kernels.search_tau(
                w, y.caz.rolloff, y.caz.pulse_halfwidth, ws.ell,
                lo, hi, cfg.grid_points, cfg.refine_tol)

            v = ws.pilot_row(tau)
            q = (xg * v.conj()[None, :]).sum(axis=1)
            qt = m * np.fft.ifft(q)
            mu = _kernels.search_mu(qt, est[r].mu_hat, half_mu,
                                    cfg.grid_points, cfg.refine_tol)
            mu = float(np.mod(mu, 2.0 * np.pi))

            gains = beam_gains(y.arr, mu)
            num = complex(np.dot(gains.conj(), q))
            den = m * float(np.sum(np.abs(v) ** 2))
            alpha = num / den
            est[r] = PathEstimate(mu_hat=mu, tau_hat=float(tau), alpha_hat=alpha)
            recon[r] = alpha * gains[:, None] * _stack_shifted(v, m)

        if _max_relative_change(previous, est) <= cfg.gamma_stop:
            converged = True
            break

    return RefinedEstimate(paths=tuple(est), iterations=iterations, converged=converged)


def _max_relative_change(previous: Sequence[PathEstimate], current: Sequence[PathEstimate],
                          zero_eps: float = 1e-9) -> float:
    """max of the three per-path stopping statistics, absolute when the base is ~0."""
    worst = 0.0
    for p, c in zip(previous, current):
        dmu = abs((p.mu_hat - c.mu_hat + np.pi) % (2.0 * np.pi) - np.pi)
        t1 = dmu / abs(c.mu_hat) if abs(c.mu_hat) > zero_eps else dmu
        dtau = abs(p.tau_hat - c.tau_hat)
        t2 = dtau / abs(c.tau_hat) if abs(c.tau_hat) > zero_eps else dtau
        dg = abs(p.alpha_hat - c.alpha_hat)
        t3 = dg / abs(c.alpha_hat) if abs(c.alpha_hat) > 1e-30 else np.inf
        worst = max(worst, t1, t2, t3)
    return worst


def run_sage(y: ReceiveMatrix, init: CoarseEstimate, cfg: SageConfig,
             noise_var: float) -> RefinedEstimate:
    """Refine a coarse estimate: init at the coarse parameters with zero gains.

    Paths are updated strongest-first (by coarse peak power) within each pass;
    the returned path order matches ``init.paths``.
    """
    if init.r_hat < 1 or not init.paths:
        raise ConfigurationError("refinement needs a coarse estimate with at least one path")
    initial = [PathEstimate(mu_hat=p.mu_hat, tau_hat=float(p.tau_int), alpha_hat=0.0 + 0.0j)
               for p in init.paths]
    order = np.argsort([-p.peak_power for p in init.paths], kind="stable")
    return run_sage_from(y, initial, cfg, noise_var, order=[int(i) for i in order])
