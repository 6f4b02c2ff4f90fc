"""Maximum-likelihood refinement by space-alternating expectation maximization.

Each path owns a hidden single-path observation; the expectation step
attributes to path r the residual after subtracting every other path's
reconstruction, and the maximization step updates that path's delay, spatial
frequency and complex gain one coordinate at a time.  The two 1-D searches
evaluate a coarse grid and then zoom into the bracket around its best point,
each round evaluating, in one array call, a few points around the vertex of
the parabola through the best point and its neighbours, or, when the best
point is the search window's end, points spaced geometrically toward that
end.  A search stops when its bracket is no wider than ``refine_tol`` or
when two successive parabola vertices lie within ``refine_tol`` of each
other (``_kernels._zoom_max``).

The trace objectives reduce to small vector forms.  Writing X_g[k, s] =
X[k, (s + k) mod L] (undoing the per-beam pilot shift with the gather
``pilots._unshift_index``) and v for the delayed base pilot row:

* tr{C(tau)^H A(mu)^H X} = sum_s conj(v_tau(s)) * z(s),
  z(s) = sum_k conj(A_kk) X_g[k, s];
* tr{C^H A^H A C} = M * ||v_tau||^2, since the beam gains of any spatial
  frequency have total power M (the codebook is unitary).

One engine, ``_lockstep``, refines B independent problems (observations
with their own initial paths and update orders) in lockstep: iteration i,
update slot j advances every problem still iterating that has a j-th path,
and a problem leaves the batch when it converges or reaches
``max_iterations``.  The hidden observations go through the update as one
(B, M, L) stack; the delay statistic z -> w, the beam statistic q and
M * ifft(q), the pilot rows, the gains and the reconstructions are one array
expression each for the batch (the initial reconstructions one call over
every (problem, path) pair), and each search round is one objective call
over the points of every problem still searching (``_kernels._zoom_max``).
Every value is computed per problem with the operations a lone problem uses
(a matrix-vector product stays one BLAS call per problem), so a problem's
result does not depend on its batch.  ``run_sage_batch`` refines many coarse
estimates; ``run_sage``, ``run_sage_from`` and the public step helpers are
batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .arrays import ArrayConfig, beam_gains, wrapped_distance
from .channel import ReceiveMatrix, path_signal
from .coarse import CoarseEstimate
from .errors import (ConfigurationError, NumericalDegeneracyError, is_real, require_integers,
                     require_reals)
from .pilots import CazacConfig, _cached_base, _conj_shifts, _unshift_index


@dataclass(frozen=True)
class SageConfig:
    """Refinement controls.

    ``mu_window`` is the half-width of the spatial-frequency search window;
    ``None`` means one beam spacing (2*pi/M), matching the coarse stage's
    localisation guarantee.  ``tau_window_symbols`` is the half-width of the
    delay window around the integer initialisation.  Refinement stops once no
    path's delay or spatial frequency moved by more than ``gamma_stop`` times
    its search half-width in an iteration, nor its gain by more than
    ``gamma_stop`` times |alpha_hat|.  Each 1-D search starts on a
    ``grid_points`` grid and stops once its bracket is no wider than
    ``refine_tol``, or once a parabola vertex lies within ``refine_tol`` of
    the vertex before it, and returns that vertex.
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


def _gathered(x: np.ndarray) -> np.ndarray:
    """X_g of one (M, L) observation or of each slab of an (S, M, L) stack,
    gathered with ``pilots._unshift_index``.

    The result is C-ordered, as later steps rely on: a matrix-vector
    product over a strided vector, or a sum whose reduced axis is the
    innermost in memory, rounds differently.
    """
    return x.reshape(x.shape[:-2] + (-1,)).take(_unshift_index(*x.shape[-2:]), axis=-1)


def _pilots(caz: CazacConfig, taus: Sequence[float]) -> np.ndarray:
    return _kernels.pilot_rows(_cached_base(caz), taus, caz.rolloff, caz.pulse_halfwidth)


def _reconstructions(arr: ArrayConfig, caz: CazacConfig,
                     estimates: Sequence[PathEstimate]) -> np.ndarray:
    """The (n, M, L) path terms of ``estimates``; a zero gain gives exact zeros."""
    out = np.zeros((len(estimates), arr.m, caz.length), dtype=complex)
    live = [e.alpha_hat != 0 for e in estimates]
    if any(live):
        alpha, mu, tau = zip(*((e.alpha_hat, e.mu_hat, e.tau_hat)
                               for e, keep in zip(estimates, live) if keep))
        out[live] = path_signal(alpha, beam_gains(arr, mu), _pilots(caz, tau))
    return out


def _delay_statistics(arr: ArrayConfig, caz: CazacConfig, xg: np.ndarray,
                      mus: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """w[b, d] = sum_s corr[d, s] z_b(s), z_b(s) = sum_k conj(A_kk(mu_b)) X_g[b, k, s],
    with corr[d, s] = conj(c((s - d) mod L)) (``pilots._conj_shifts``), and
    whether z_b is nonzero (a zero z_b has no delay to search)."""
    z = (beam_gains(arr, mus).conj()[:, :, None] * xg).sum(axis=1)
    return np.matmul(_conj_shifts(caz), z[:, :, None])[..., 0], z.any(axis=1)


def _search_delays(caz: CazacConfig, w: np.ndarray, centers: Sequence[float],
                   cfg: SageConfig) -> List[float]:
    lo, hi = zip(*(_tau_bounds(c, cfg, caz.length) for c in centers))
    return [float(t) for t in _kernels.search_tau(
        w, caz.rolloff, caz.pulse_halfwidth, caz.length, lo, hi,
        cfg.grid_points, cfg.refine_tol)]


def _beam_statistics(caz: CazacConfig, xg: np.ndarray,
                     taus: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """The pilot rows v_b(tau_b) and q[b, k] = sum_s X_g[b, k, s] conj(v_b(s))."""
    v = _pilots(caz, taus)
    return v, (xg * v.conj()[:, None, :]).sum(axis=2)


def _angle_spectra(q: np.ndarray) -> np.ndarray:
    """M * ifft(q) of each (B, M) row of beam statistics."""
    return q.shape[-1] * np.fft.ifft(q)


def _search_angles(arr: ArrayConfig, q: np.ndarray, centers: Sequence[float],
                   cfg: SageConfig) -> List[float]:
    """Angle searches around ``centers``, wrapped to [0, 2*pi); a vanishing
    q_b keeps its center."""
    half = _mu_half_window(cfg, arr.m)
    mus = list(centers)
    moving = [b for b, m in enumerate(q.any(axis=1).tolist()) if m]
    if moving:
        found = _kernels.search_mu(
            _angle_spectra(q if len(moving) == len(mus) else q[moving]),
            [mus[b] - half for b in moving], [mus[b] + half for b in moving],
            cfg.grid_points, cfg.refine_tol)
        for b, mu in zip(moving, found):
            mus[b] = mu
    return np.mod(mus, 2.0 * np.pi).tolist()


def _gain_quotients(arr: ArrayConfig, q: np.ndarray, v: np.ndarray,
                    gains: np.ndarray) -> List[complex]:
    """tr{C^H A^H X} / tr{C^H A^H A C} per problem, the numerator being A(mu)^H q."""
    den = (arr.m * (np.abs(v) ** 2).sum(axis=1)).tolist()
    if min(den) < 1e-30:
        raise NumericalDegeneracyError("vanishing pilot energy in the gain update")
    num = np.matmul(gains.conj()[:, None, :], q[:, :, None])[:, 0, 0]
    return [n / d for n, d in zip(num.tolist(), den)]


def _mu_half_window(cfg: SageConfig, m: int) -> float:
    """Half-width of the spatial-frequency search window (default one beam spacing)."""
    return cfg.mu_window if cfg.mu_window is not None else 2.0 * np.pi / m


def _tau_bounds(center: float, cfg: SageConfig, ell: int) -> Tuple[float, float]:
    # delays live on a cycle of length L; the window is clipped to [0, L], so
    # a delay past L - 1 is still found (the pilot model is periodic in it)
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
    return _hidden_observation(y.y, _reconstructions(y.arr, y.caz, estimates), r, cfg.beta)


def maximize_tau(x_hat: np.ndarray, mu_fixed: float, cfg: SageConfig, search_center: float,
                 *, arr: ArrayConfig, caz: CazacConfig) -> float:
    """Delay maximizing |tr{C(tau)^H A(mu)^H X}| ** 2 / (beta tr{C^H A^H A C}).

    The search covers ``search_center`` +/- the configured window, clipped to
    [0, L]; the bracket around the best point of a ``grid_points`` grid is
    zoomed until it is no wider than ``refine_tol`` or two successive
    parabola vertices lie within ``refine_tol``.  A maximum on a clipped end
    (the line-of-sight delay 0, or a peak past the window) closes in one
    round after the grid.  An all-zero hidden observation returns the center
    unchanged.
    """
    w, moving = _delay_statistics(arr, caz, _gathered(x_hat[None]), [mu_fixed])
    return _search_delays(caz, w, [search_center], cfg)[0] if moving[0] else float(search_center)


def maximize_mu(x_hat: np.ndarray, tau_fixed: float, cfg: SageConfig, search_center: float,
                *, arr: ArrayConfig, caz: CazacConfig) -> float:
    """Spatial frequency maximizing the same objective at a fixed delay.

    Searches ``search_center`` +/- the window (default one beam spacing) with
    the stop rules of :func:`maximize_tau`; the result is wrapped into
    [0, 2*pi).
    """
    _, q = _beam_statistics(caz, _gathered(x_hat[None]), [tau_fixed])
    return _search_angles(arr, q, [search_center], cfg)[0]


def tau_objective_value(x_hat: np.ndarray, mu_fixed: float, tau: float, cfg: SageConfig,
                        *, arr: ArrayConfig, caz: CazacConfig) -> float:
    """The delay-search objective evaluated at one point (for ascent checks)."""
    w, moving = _delay_statistics(arr, caz, _gathered(x_hat[None]), [mu_fixed])
    if not moving[0]:
        return 0.0
    raw = _kernels.tau_objective(w[0], tau, caz.rolloff, caz.pulse_halfwidth, caz.length)
    return raw * _objective_scale(cfg, arr.m)


def mu_objective_value(x_hat: np.ndarray, tau_fixed: float, mu: float, cfg: SageConfig,
                       *, arr: ArrayConfig, caz: CazacConfig) -> float:
    """The spatial-frequency objective evaluated at one point (for ascent checks)."""
    v, q = _beam_statistics(caz, _gathered(x_hat[None]), [tau_fixed])
    raw = _kernels.mu_objective(_angle_spectra(q)[0], mu)
    return raw * _objective_scale(cfg, arr.m) / _pilot_energy(v[0])


def update_alpha(x_hat: np.ndarray, mu_fixed: float, tau_fixed: float,
                 *, arr: ArrayConfig, caz: CazacConfig) -> complex:
    """Closed-form combined gain tr{C^H A^H X} / tr{C^H A^H A C}."""
    v, q = _beam_statistics(caz, _gathered(x_hat[None]), [tau_fixed])
    return _gain_quotients(arr, q, v, beam_gains(arr, [mu_fixed]))[0]


def _update_paths(arr: ArrayConfig, caz: CazacConfig, ys: Sequence[np.ndarray],
                  recon: List[np.ndarray], est: List[List[PathEstimate]], idx: List[int],
                  slots: List[int], cfg: SageConfig) -> None:
    """Update path ``slots[i]`` of problem ``idx[i]`` for every i, in place.

    One call per step for all of them: the delay statistics and searches, the
    beam statistics and angle searches, the gains and the reconstructions,
    from the (S, M, L) stack of hidden observations.  A problem whose delay
    statistic vanishes keeps that path unchanged.
    """
    xg = _gathered(np.array([_hidden_observation(ys[p], recon[p], r, cfg.beta)
                             for p, r in zip(idx, slots)]))
    old = [est[p][r] for p, r in zip(idx, slots)]
    w, moving = _delay_statistics(arr, caz, xg, [e.mu_hat for e in old])
    if not moving.all():
        keep = moving.tolist()
        idx, slots, old = ([a for a, k in zip(seq, keep) if k] for seq in (idx, slots, old))
        if not idx:
            return
        xg, w = xg[moving], w[moving]
    taus = _search_delays(caz, w, [e.tau_hat for e in old], cfg)
    v, q = _beam_statistics(caz, xg, taus)
    mus = _search_angles(arr, q, [e.mu_hat for e in old], cfg)
    gains = beam_gains(arr, mus)
    alphas = _gain_quotients(arr, q, v, gains)
    signals = path_signal(alphas, gains, v)
    for p, r, mu, tau, alpha, signal in zip(idx, slots, mus, taus, alphas, signals):
        est[p][r] = PathEstimate(mu_hat=mu, tau_hat=tau, alpha_hat=alpha)
        recon[p][r] = signal


def _lockstep(ys: Sequence[ReceiveMatrix], initials: Sequence[Sequence[PathEstimate]],
              orders: Sequence[Sequence[int]], cfg: SageConfig) -> List[RefinedEstimate]:
    """Refine B independent problems in lockstep, each as if alone.

    Iteration i updates slot j of every problem still iterating that has a
    j-th path in its ``order``, all in one :func:`_update_paths` call.  A
    problem leaves the batch once its largest parameter change, relative to
    the search windows and to the gain (:func:`_max_change`), falls to the
    stopping threshold, or after ``max_iterations``.
    """
    if not ys:
        return []
    for init in initials:
        if not init:
            raise ConfigurationError("refinement needs at least one initial path")
    arr, caz = ys[0].arr, ys[0].caz
    if any(obs.arr != arr or obs.caz != caz for obs in ys[1:]):
        raise ConfigurationError("a refinement batch needs one array and pilot configuration")
    est = [list(init) for init in initials]
    recon = np.split(_reconstructions(arr, caz, [e for init in est for e in init]),
                     np.cumsum([len(init) for init in est[:-1]]))
    obs_y = [obs.y for obs in ys]
    results: List[Optional[RefinedEstimate]] = [None] * len(ys)
    active = list(range(len(ys)))
    for iterations in range(1, cfg.max_iterations + 1):
        previous = [list(est[p]) for p in active]
        for j in range(max(len(orders[p]) for p in active)):
            idx = [p for p in active if j < len(orders[p])]
            _update_paths(arr, caz, obs_y, recon, est, idx, [orders[p][j] for p in idx], cfg)
        still = []
        for p, prev in zip(active, previous):
            converged = _max_change(prev, est[p], cfg, arr.m) <= cfg.gamma_stop
            if converged or iterations == cfg.max_iterations:
                results[p] = RefinedEstimate(paths=tuple(est[p]), iterations=iterations,
                                             converged=converged)
            else:
                still.append(p)
        active = still
        if not active:
            break
    return results


def run_sage_from(y: ReceiveMatrix, initial: Sequence[PathEstimate], cfg: SageConfig,
                  order: Optional[Sequence[int]] = None) -> RefinedEstimate:
    """Iterate expectation/maximization passes from explicit initial estimates.

    ``order`` fixes the within-pass update order (defaults to the given order).
    One iteration is a full update of every path; the loop stops when the
    largest parameter change across paths, relative to the search windows
    and to the gain, falls to the stopping threshold.  This is the lockstep
    engine's batch of one.
    """
    return _lockstep([y], [initial], [range(len(initial)) if order is None else order], cfg)[0]


def _max_change(previous: Sequence[PathEstimate], current: Sequence[PathEstimate],
                cfg: SageConfig, m: int) -> float:
    """The stopping statistic: the largest per-path change of one iteration.

    A delay change counts in units of the delay search half-width and a
    wrapped spatial-frequency change in units of the angle search
    half-width, so the test does not depend on where a path sits (a delay
    near 0, or mu near the 2*pi wrap); a gain change counts relative to
    |alpha_hat|, and a gain still at 0 never counts as converged.
    """
    mu_half = _mu_half_window(cfg, m)
    worst = 0.0
    for p, c in zip(previous, current):
        dmu = wrapped_distance(p.mu_hat, c.mu_hat) / mu_half
        dtau = abs(p.tau_hat - c.tau_hat) / cfg.tau_window_symbols
        dg = abs(p.alpha_hat - c.alpha_hat)
        dgain = dg / abs(c.alpha_hat) if abs(c.alpha_hat) > 1e-30 else np.inf
        worst = max(worst, dmu, dtau, dgain)
    return worst


def run_sage(y: ReceiveMatrix, init: CoarseEstimate, cfg: SageConfig,
             noise_var: float) -> RefinedEstimate:
    """Refine a coarse estimate: init at the coarse parameters with zero gains.

    Paths are updated strongest-first (by coarse peak power) within each pass;
    the returned path order matches ``init.paths``.  ``noise_var`` is not read.
    This is :func:`run_sage_batch`'s batch of one.
    """
    return run_sage_batch([y], [init], cfg)[0]


def run_sage_batch(ys: Sequence[ReceiveMatrix], inits: Sequence[CoarseEstimate],
                   cfg: SageConfig) -> List[RefinedEstimate]:
    """:func:`run_sage` on each (observation, coarse estimate) pair, refined in
    lockstep; result b equals ``run_sage(ys[b], inits[b], cfg, ...)`` bit for bit."""
    initials, orders = [], []
    for init in inits:
        if not init.paths:
            raise ConfigurationError(
                "refinement needs a coarse estimate with at least one path")
        initials.append([PathEstimate(mu_hat=p.mu_hat, tau_hat=float(p.tau_int),
                                      alpha_hat=0.0 + 0.0j) for p in init.paths])
        order = np.argsort([-p.peak_power for p in init.paths], kind="stable")
        orders.append([int(i) for i in order])
    return _lockstep(ys, initials, orders, cfg)
