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

``run_sage_from`` and the public step helpers call one copy of each step of a
path update: ``_hidden_observation``, then the ``_Workspace`` methods for the
delay statistic z -> w and its search, the beam statistic q and the angle
search over M * ifft(q), the gain quotient and the reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .arrays import ArrayConfig, beam_gains
from .channel import ReceiveMatrix, path_signal
from .coarse import CoarseEstimate
from .errors import (ConfigurationError, NumericalDegeneracyError, is_real, require_integers,
                     require_reals)
from .pilots import CazacConfig, _cached_base, _stack_shifted

# below this a delay or spatial frequency counts as zero: its change stops absolutely
_CHANGE_ZERO_EPS = 1e-9


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
        require_integers(self, "max_iterations", "grid_points")
        require_reals(self, "beta", "gamma_stop", "tau_window_symbols", "refine_tol")
        if self.mu_window is not None and not is_real(self.mu_window):
            raise ConfigurationError(
                f"mu_window must be None or a real number, got {self.mu_window!r}")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigurationError(f"beta must lie in (0, 1], got {self.beta}")
        if self.gamma_stop <= 0:
            raise ConfigurationError(f"stopping threshold must be positive, got {self.gamma_stop}")
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
    """Per-configuration quantities and the steps of one path update; arrays are read-only."""

    def __init__(self, arr: ArrayConfig, caz: CazacConfig):
        self.arr = arr
        self.caz = caz
        self.cbase = _cached_base(caz)
        self.ell = ell = caz.length
        self.rows = np.arange(arr.m)[:, None]
        # gather matrix undoing the per-beam shift: Xg[k, s] = X[k, (s + k) % L]
        self.gather = (np.arange(ell)[None, :] + self.rows) % ell
        # conj pilot shifts for integer-lag correlation: corr[d, s] = conj(c((s - d) % L))
        self.corr = _stack_shifted(self.cbase, ell).conj()
        for a in (self.rows, self.gather, self.corr):
            a.setflags(write=False)

    def gathered(self, x: np.ndarray) -> np.ndarray:
        return x[self.rows, self.gather]

    def pilot(self, tau: float) -> np.ndarray:
        """The base pilot row delayed by ``tau`` symbols."""
        return _kernels.pilot_rows(self.cbase, [tau], self.caz.rolloff,
                                   self.caz.pulse_halfwidth)[0]

    def reconstruct(self, est: PathEstimate) -> np.ndarray:
        return path_signal(est.alpha_hat, beam_gains(self.arr, est.mu_hat),
                           self.pilot(est.tau_hat))

    def reconstructions(self, estimates: Sequence[PathEstimate], y: np.ndarray) -> List[np.ndarray]:
        return [self.reconstruct(e) if e.alpha_hat != 0 else np.zeros_like(y) for e in estimates]

    def delay_statistic(self, xg: np.ndarray, mu: float) -> Optional[np.ndarray]:
        """w[d] = sum_s corr[d, s] z(s), z(s) = sum_k conj(A_kk(mu)) X_g[k, s]; None if z = 0."""
        z = (beam_gains(self.arr, mu).conj()[:, None] * xg).sum(axis=0)
        return self.corr @ z if np.any(z) else None

    def search_delay(self, w: np.ndarray, center: float, cfg: SageConfig) -> float:
        lo, hi = _tau_bounds(center, cfg, self.ell)
        return float(_kernels.search_tau(w, self.caz.rolloff, self.caz.pulse_halfwidth,
                                         self.ell, lo, hi, cfg.grid_points, cfg.refine_tol))

    def beam_statistic(self, xg: np.ndarray, tau: float) -> Tuple[np.ndarray, np.ndarray]:
        """The pilot row v(tau) and q[k] = sum_s X_g[k, s] conj(v(s))."""
        v = self.pilot(tau)
        return v, (xg * v.conj()[None, :]).sum(axis=1)

    def angle_spectrum(self, q: np.ndarray) -> np.ndarray:
        return self.arr.m * np.fft.ifft(q)

    def search_angle(self, q: np.ndarray, center: float, cfg: SageConfig) -> float:
        """Angle search around ``center``, wrapped to [0, 2*pi); a vanishing q keeps the center."""
        half = cfg.mu_window if cfg.mu_window is not None else 2.0 * np.pi / self.arr.m
        mu = _kernels.search_mu(self.angle_spectrum(q), center, half, cfg.grid_points,
                                cfg.refine_tol) if np.any(q) else center
        return float(np.mod(mu, 2.0 * np.pi))

    def gain(self, q: np.ndarray, v: np.ndarray, gains: np.ndarray) -> complex:
        """tr{C^H A^H X} / tr{C^H A^H A C}, the numerator being A(mu)^H q."""
        den = self.arr.m * _pilot_energy(v)
        if den < 1e-30:
            raise NumericalDegeneracyError("vanishing pilot energy in the gain update")
        return complex(np.dot(gains.conj(), q)) / den


# one workspace per (array, pilot) configuration, shared by every run and step helper
_workspace = lru_cache(maxsize=8)(_Workspace)


def _tau_bounds(center: float, cfg: SageConfig, ell: int) -> Tuple[float, float]:
    # delays live on a cycle of length L; the window is clipped to [0, L)
    lo = max(0.0, center - cfg.tau_window_symbols)
    hi = min(float(ell), center + cfg.tau_window_symbols)
    return lo, hi


def _pilot_energy(v: np.ndarray) -> float:
    return float(np.sum(np.abs(v) ** 2))


def _objective_scale(cfg: SageConfig, m: int) -> float:
    return 1.0 / (cfg.beta * m)


def _hidden_observation(y: np.ndarray, recon: Sequence[np.ndarray], r: int,
                        beta: float) -> np.ndarray:
    """The residual after every other path, blended with path r's own by beta."""
    x_hat = y - sum((x for i, x in enumerate(recon) if i != r), np.zeros_like(y))
    return x_hat if beta == 1.0 else (1.0 - beta) * recon[r] + beta * x_hat


def expectation_step(y: ReceiveMatrix, estimates: Sequence[PathEstimate], r: int,
                     cfg: SageConfig) -> np.ndarray:
    """Expected hidden observation of path r given the current estimates.

    With beta = 1 this is the observation minus every other path's
    reconstruction; general beta blends in (1 - beta) of path r's own
    reconstruction.
    """
    ws = _workspace(y.arr, y.caz)
    return _hidden_observation(y.y, ws.reconstructions(estimates, y.y), r, cfg.beta)


def maximize_tau(x_hat: np.ndarray, mu_fixed: float, cfg: SageConfig, search_center: float,
                 *, arr: ArrayConfig, caz: CazacConfig) -> float:
    """Delay maximizing |tr{C(tau)^H A(mu)^H X}| ** 2 / (beta tr{C^H A^H A C}).

    The search covers ``search_center`` +/- the configured window, clipped to
    [0, L); the bracket around the best point of a ``grid_points`` grid is
    zoomed until it is no wider than ``refine_tol``.  An all-zero hidden
    observation returns the center unchanged.
    """
    ws = _workspace(arr, caz)
    w = ws.delay_statistic(ws.gathered(x_hat), mu_fixed)
    return float(search_center) if w is None else ws.search_delay(w, search_center, cfg)


def maximize_mu(x_hat: np.ndarray, tau_fixed: float, cfg: SageConfig, search_center: float,
                *, arr: ArrayConfig, caz: CazacConfig) -> float:
    """Spatial frequency maximizing the same objective at a fixed delay.

    Searches ``search_center`` +/- the window (default one beam spacing); the
    result is wrapped into [0, 2*pi).
    """
    ws = _workspace(arr, caz)
    _, q = ws.beam_statistic(ws.gathered(x_hat), tau_fixed)
    return ws.search_angle(q, search_center, cfg)


def tau_objective_value(x_hat: np.ndarray, mu_fixed: float, tau: float, cfg: SageConfig,
                        *, arr: ArrayConfig, caz: CazacConfig) -> float:
    """The delay-search objective evaluated at one point (for ascent checks)."""
    ws = _workspace(arr, caz)
    w = ws.delay_statistic(ws.gathered(x_hat), mu_fixed)
    if w is None:
        return 0.0
    raw = _kernels.tau_objective(w, tau, caz.rolloff, caz.pulse_halfwidth, ws.ell)
    return raw * _objective_scale(cfg, arr.m)


def mu_objective_value(x_hat: np.ndarray, tau_fixed: float, mu: float, cfg: SageConfig,
                       *, arr: ArrayConfig, caz: CazacConfig) -> float:
    """The spatial-frequency objective evaluated at one point (for ascent checks)."""
    ws = _workspace(arr, caz)
    v, q = ws.beam_statistic(ws.gathered(x_hat), tau_fixed)
    raw = _kernels.mu_objective(ws.angle_spectrum(q), mu)
    return raw * _objective_scale(cfg, arr.m) / _pilot_energy(v)


def update_alpha(x_hat: np.ndarray, mu_fixed: float, tau_fixed: float,
                 *, arr: ArrayConfig, caz: CazacConfig) -> complex:
    """Closed-form combined gain tr{C^H A^H X} / tr{C^H A^H A C}."""
    ws = _workspace(arr, caz)
    v, q = ws.beam_statistic(ws.gathered(x_hat), tau_fixed)
    return ws.gain(q, v, beam_gains(arr, mu_fixed))


def run_sage_from(y: ReceiveMatrix, initial: Sequence[PathEstimate], cfg: SageConfig,
                  order: Optional[Sequence[int]] = None) -> RefinedEstimate:
    """Iterate expectation/maximization passes from explicit initial estimates.

    ``order`` fixes the within-pass update order (defaults to the given order).
    One iteration is a full update of every path; the loop stops when the
    largest relative parameter change across paths falls below the stopping
    threshold, with an absolute fallback where a parameter sits at zero.
    """
    if not initial:
        raise ConfigurationError("refinement needs at least one initial path")
    ws = _workspace(y.arr, y.caz)
    est: List[PathEstimate] = list(initial)
    recon = ws.reconstructions(est, y.y)
    if order is None:
        order = range(len(est))

    for iterations in range(1, cfg.max_iterations + 1):
        previous = list(est)
        for r in order:
            xg = ws.gathered(_hidden_observation(y.y, recon, r, cfg.beta))
            w = ws.delay_statistic(xg, est[r].mu_hat)
            if w is None:
                continue
            tau = ws.search_delay(w, est[r].tau_hat, cfg)
            v, q = ws.beam_statistic(xg, tau)
            mu = ws.search_angle(q, est[r].mu_hat, cfg)
            gains = beam_gains(y.arr, mu)
            alpha = ws.gain(q, v, gains)
            est[r] = PathEstimate(mu_hat=mu, tau_hat=tau, alpha_hat=alpha)
            recon[r] = path_signal(alpha, gains, v)

        converged = _max_relative_change(previous, est) <= cfg.gamma_stop
        if converged:
            break

    return RefinedEstimate(paths=tuple(est), iterations=iterations, converged=converged)


def _max_relative_change(previous: Sequence[PathEstimate],
                         current: Sequence[PathEstimate]) -> float:
    """max of the three per-path stopping statistics, absolute when the base is ~0."""
    worst = 0.0
    for p, c in zip(previous, current):
        dmu = abs((p.mu_hat - c.mu_hat + np.pi) % (2.0 * np.pi) - np.pi)
        t1 = dmu / abs(c.mu_hat) if abs(c.mu_hat) > _CHANGE_ZERO_EPS else dmu
        dtau = abs(p.tau_hat - c.tau_hat)
        t2 = dtau / abs(c.tau_hat) if abs(c.tau_hat) > _CHANGE_ZERO_EPS else dtau
        dg = abs(p.alpha_hat - c.alpha_hat)
        t3 = dg / abs(c.alpha_hat) if abs(c.alpha_hat) > 1e-30 else np.inf
        worst = max(worst, t1, t2, t3)
    return worst


def run_sage(y: ReceiveMatrix, init: CoarseEstimate, cfg: SageConfig,
             noise_var: float) -> RefinedEstimate:
    """Refine a coarse estimate: init at the coarse parameters with zero gains.

    Paths are updated strongest-first (by coarse peak power) within each pass;
    the returned path order matches ``init.paths``.  ``noise_var`` is not read.
    """
    if not init.paths:
        raise ConfigurationError("refinement needs a coarse estimate with at least one path")
    initial = [PathEstimate(mu_hat=p.mu_hat, tau_hat=float(p.tau_int), alpha_hat=0.0 + 0.0j)
               for p in init.paths]
    order = np.argsort([-p.peak_power for p in init.paths], kind="stable")
    return run_sage_from(y, initial, cfg, order=[int(i) for i in order])
