"""Maximum-likelihood refinement by space-alternating expectation maximization.

Each path owns a hidden single-path observation; the expectation step
attributes to path r the residual after subtracting every other path's
reconstruction, and the maximization step updates that path's delay, spatial
frequency and complex gain one coordinate at a time.  The two 1-D searches
read their first round from a per-configuration table on a fixed lattice
(delays at multiples of 1/Q symbol, spatial frequencies at multiples of
2*pi/(M*Q)), each window rounded outward to the lattice.  A search stops on
that round when the degree-6 interpolant through the seven lattice points
nearest the best one places the maximizer within ``refine_tol``, its error
bounded by the 7th divided differences of the lattice values: at the
interpolant's vertex, or at a window end it slopes out of
(``_kernels._lattice_settled``).  The pulse truncation kinks the delay
objective at every integer delay, so a delay search reads only the lattice
points between the two integers around its best point; a best point on an
integer is read on both sides of it (``_kernels._delay_settled``).
Otherwise the search zooms: each round evaluates, in one array call, 16
even points across the bracket around its best point, until the bracket is
no wider than ``refine_tol`` (``_kernels._zoom_max``).

The update runs in the element-lag domain.  With P[k, d] = sum_s X_g[k, s]
conj(c((s - d) mod L)) the lag correlation of an observation X (X_g[k, s] =
X[k, (s + k) mod L], each beam's pilot shift undone; ``pilots._lag_correlation``,
whose |.|^2 is the coarse stage's power matrix) and W the DFT codebook,
Q = conj(W) P.  The codebook is unitary and the base pilot has perfect
periodic autocorrelation, so X -> Q / sqrt(L) is unitary, and one path
alpha A(mu) C(tau) is the rank-one term alpha s(mu) (L f_tau)^T, with
s(mu)[m] = exp(j m mu) and f_tau[d] = sum over u = d (mod L) of h(u - tau),
the pulse taps folded onto the L lags (``_kernels.folded_taps``; an integer
delay's f_tau is the unit vector e_tau).  The trace objectives are then
small vector forms of the hidden observation's Q:

* tr{C(tau)^H A(mu)^H X} = w . f_tau = exp(-j m mu) . q~, with the delay
  statistic w = exp(-j m mu) Q and the angle spectrum q~ = Q f_tau;
* tr{C^H A^H A C} = M ||v_tau||^2 = M L ||f_tau||^2.

SAGE updates one path at a time, so it batches only across independent
observations.  One engine, ``_lockstep``, refines the B problems of one
(B, M, L) observation stack, each with its own initial paths and update
order, in lockstep: iteration i, update slot j advances every problem still
iterating that has a j-th path, and a problem leaves the batch when it
converges or reaches ``max_iterations``.  The observation stack is taken to
the element-lag domain once, and every path keeps its rank-one term there;
the hidden observations (Q minus the other paths' terms) go through the
update as one stack, and the delay statistics, the folded taps, the angle
spectra, the gains and the new terms are one array expression each for the
batch, with no pilot row, beam gain or FFT in the update (the initial terms
are one transform of the reconstructions of every (problem, path) pair).
The line searches are the exception: each problem's delay and angle search
runs alone on its own statistic, reading a lattice table looked up once per
step.  Every value is computed per problem with the operations a lone
problem uses (a matrix-vector product stays one BLAS call per problem), so
a problem's result does not depend on its batch.  ``run_sage_batch``
refines one coarse estimate per slab; ``run_sage`` and ``run_sage_from``
work on stacks of one.  The public step helpers take an observation-domain
hidden observation, as :func:`expectation_step` returns it, transform it
once and call the loop's own step functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .arrays import ArrayConfig, _cached_codebook, beam_gains, wrapped_distance
from .channel import ReceiveMatrix, path_signal
from .coarse import CoarseEstimate
from .errors import (ConfigurationError, NumericalDegeneracyError, is_real, require_integers,
                     require_reals)
from .pilots import CazacConfig, _cached_base, _lag_correlation, _unshift_index


@dataclass(frozen=True)
class SageConfig:
    """Refinement controls.

    ``mu_window`` is the half-width of the spatial-frequency search window,
    at most pi; ``None`` means one beam spacing (2*pi/M), matching the coarse
    stage's localisation guarantee.  ``tau_window_symbols`` is the half-width
    of the delay window around the current delay, clipped to [0, L].
    Refinement stops once no path's delay or spatial frequency moved by more
    than ``gamma_stop`` times its search half-width in an iteration, nor its
    gain by more than ``gamma_stop`` times |alpha_hat|.

    Each 1-D search starts on a lattice: delays at multiples of 1/Q symbol
    and spatial frequencies at multiples of 2*pi/(M*Q_mu), each Q the
    smallest power of two that makes the lattice no coarser than a
    ``grid_points`` grid across the narrowest window (for delays, a window
    clipped at 0 or L).  Each window, [max(0, tau - w), min(L, tau + w)] or
    mu +/- the half-width, is rounded outward to the lattice, so it covers
    the unrounded window and keeps 0 and L as exact ends.  A search whose
    lattice table would hold more than 2**22 entries (a window far narrower
    than ``grid_points`` steps, or a very large array or pilot) raises
    :class:`ConfigurationError`.  A search stops on its lattice round when
    the degree-6 interpolant of the seven lattice points nearest the best one
    places the maximizer within ``refine_tol`` (an error bound from the 7th
    divided differences), returning the interpolant's vertex or the window
    end it slopes out of; a delay search reads only the lattice points
    between consecutive integer delays, where its objective is smooth.
    Otherwise it zooms in even rounds until its bracket is no wider than
    ``refine_tol``, and returns the bracket midpoint.
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
        if self.mu_window is not None and not 0 < self.mu_window <= np.pi:
            # a wider window would wrap onto itself around the circle
            raise ConfigurationError(f"mu_window must lie in (0, pi], got {self.mu_window}")
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
    gathered with ``pilots._unshift_index``: row k of X with beam k's pilot
    shift undone, X_g[k, s] = X[k, (s + k) mod L].  The refinement never
    forms it; it states the data-domain objectives that checks compare the
    element-lag forms against.
    """
    return x.reshape(x.shape[:-2] + (-1,)).take(_unshift_index(*x.shape[-2:]), axis=-1)


def _pilots(caz: CazacConfig, taus: Sequence[float]) -> np.ndarray:
    return _kernels.pilot_rows(_cached_base(caz), taus, caz.rolloff, caz.pulse_halfwidth)


def _reconstructions(arr: ArrayConfig, caz: CazacConfig,
                     estimates: Sequence[PathEstimate]) -> np.ndarray:
    """The (n, M, L) observation-domain path terms of ``estimates``; a zero
    gain gives exact zeros."""
    out = np.zeros((len(estimates), arr.m, caz.length), dtype=complex)
    live = [e.alpha_hat != 0 for e in estimates]
    if any(live):
        alpha, mu, tau = zip(*((e.alpha_hat, e.mu_hat, e.tau_hat)
                               for e, keep in zip(estimates, live) if keep))
        out[live] = path_signal(alpha, beam_gains(arr, mu), _pilots(caz, tau))
    return out


def _element_lag(arr: ArrayConfig, caz: CazacConfig, x: np.ndarray) -> np.ndarray:
    """Q = conj(W) P of each slab of the (S, M, L) observation stack ``x``, P
    its lag correlation (``pilots._lag_correlation``) and W the DFT codebook:
    element m, lag d.  One path alpha A(mu) C(tau) maps to
    alpha s(mu) (L f_tau)^T (:func:`_path_terms`).  Every entry point of the
    refinement transforms its observation here, and a NaN or inf in it, which
    would turn every statistic, search and gain into NaN, is refused."""
    if not np.isfinite(x).all():
        raise ConfigurationError("refinement needs a finite observation; it holds NaN or inf")
    return np.matmul(_cached_codebook(arr).conj(), _lag_correlation(x, caz))


def _path_terms(ell: int, alphas: np.ndarray, phases: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The (S, M, L) element-lag terms alpha_b s(mu_b) (L f_b)^T, from the phase
    rows exp(-j m mu_b) (``_kernels._phase_rows``) and the folded taps f_b."""
    return (alphas[:, None] * phases.conj())[:, :, None] * (ell * f)[:, None, :]


# the most entries a search's lattice table may hold (64 MiB of complex
# phase rows): a window far narrower than grid_points steps, or a very large
# array, would need a finer or longer table
_MAX_LATTICE_ENTRIES = 2 ** 22


def _lattice_density(cfg: SageConfig, field: str, span: float,
                     entries: Callable[[int], float]) -> int:
    """The smallest power of two Q whose lattice spacing 1/Q is no coarser than
    that of ``grid_points`` even points across ``span``.

    A table of ``entries(Q)`` entries above ``_MAX_LATTICE_ENTRIES`` is
    refused, naming the window ``field``.
    """
    q = 1
    while q * span < cfg.grid_points - 1:
        q *= 2
    if entries(q) > _MAX_LATTICE_ENTRIES:
        raise ConfigurationError(
            f"sage.{field} = {getattr(cfg, field)} with grid_points = {cfg.grid_points} needs "
            f"a search lattice of {entries(q):.3g} table entries, above "
            f"{_MAX_LATTICE_ENTRIES}; widen the window or lower grid_points")
    return q


@lru_cache(maxsize=8)
def _delay_table(caz: CazacConfig, cfg: SageConfig) -> _kernels.DelayLattice:
    """The delay searches' lattice table, 1/Q as fine as a ``grid_points`` grid
    on the narrowest window (one clipped at 0 or L); a window rounded outward
    to it ends within min(L, ceil(2 * tau_window_symbols) + 2) symbols of its
    integer start."""
    ell = caz.length
    reach = min(ell, math.ceil(2.0 * cfg.tau_window_symbols) + 2)
    density = _lattice_density(cfg, "tau_window_symbols", min(cfg.tau_window_symbols, ell),
                               lambda q: 2 * ell * (reach * q + 1))
    return _kernels.delay_lattice(caz.rolloff, caz.pulse_halfwidth, ell, density, reach)


@lru_cache(maxsize=8)
def _angle_table(arr: ArrayConfig, cfg: SageConfig) -> _kernels.AngleLattice:
    """The angle searches' lattice table, 2*pi/(M*Q) as fine as a ``grid_points``
    grid on the window: about M * Q * (1 + half / pi) rows of M phases."""
    half = _mu_half_window(cfg, arr.m)
    density = _lattice_density(cfg, "mu_window", arr.m * half / np.pi,
                               lambda q: q * arr.m ** 2 * (1.0 + half / np.pi))
    return _kernels.angle_lattice(arr.m, density, half)


def _search_delays(caz: CazacConfig, w: np.ndarray, centers: Sequence[float],
                   cfg: SageConfig) -> List[float]:
    """Delay searches of the (B, L) statistics ``w``, row b around the finite
    ``centers[b]``, each window rounded outward to the lattice of
    :func:`_delay_table`."""
    lattice = _delay_table(caz, cfg)
    step = 1.0 / lattice.density
    return [float(_kernels.search_tau(row, lattice, *_kernels.lattice_window(
                *_tau_bounds(c, cfg, caz.length), step), cfg.refine_tol))
            for row, c in zip(w, centers)]


def _delay_statistics(q: np.ndarray, mus: Sequence[float]) -> np.ndarray:
    """w_b = exp(-j m mu_b) Q_b, the (B, L) delay statistics of the (B, M, L)
    element-lag stack ``q``."""
    return np.matmul(_kernels._phase_rows(q.shape[1], mus)[:, None, :], q)[:, 0, :]


def _delay_step(caz: CazacConfig, q: np.ndarray, mus: Sequence[float],
                centers: Sequence[float], cfg: SageConfig) -> Tuple[List[float], np.ndarray]:
    """The delay searches of the (B, M, L) element-lag stack ``q`` at the
    spatial frequencies ``mus``, around the finite ``centers``, and which
    problems' statistics are nonzero; a vanishing statistic keeps its
    center."""
    taus = [float(c) for c in centers]
    w = _delay_statistics(q, mus)
    moving = w.any(axis=1)
    keep = moving.nonzero()[0].tolist()
    if keep:
        found = _search_delays(caz, w.take(keep, axis=0), [taus[b] for b in keep], cfg)
        for b, tau in zip(keep, found):
            taus[b] = tau
    return taus, moving


def _angle_statistics(caz: CazacConfig, q: np.ndarray,
                      taus: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """The folded taps f_b = f(tau_b) and the angle spectra q~_b = Q_b f_b of
    the (B, M, L) element-lag stack ``q``, (B, L) and (B, M)."""
    f = _kernels.folded_taps(taus, caz.rolloff, caz.pulse_halfwidth, caz.length)
    return f, np.matmul(q, f[:, :, None])[:, :, 0]


def _search_angles(arr: ArrayConfig, qt: np.ndarray, centers: Sequence[float],
                   cfg: SageConfig) -> List[float]:
    """Angle searches of the (B, M) spectra ``qt`` around the finite
    ``centers``, wrapped to [0, 2*pi); a vanishing q~_b keeps its center.

    Each window is the wrapped center +/- the half-width, rounded outward to
    the lattice of :func:`_angle_table`.
    """
    mus = list(centers)
    moving = [b for b, m in enumerate(qt.any(axis=1).tolist()) if m]
    if moving:
        lattice = _angle_table(arr, cfg)
        half = _mu_half_window(cfg, arr.m)
        for b in moving:
            c = mus[b] % (2.0 * np.pi)
            mus[b] = _kernels.search_mu(qt[b], lattice, *_kernels.lattice_window(
                c - half, c + half, lattice.step), cfg.refine_tol)
    return [float(mu) % (2.0 * np.pi) for mu in mus]


def _pilot_energies(caz: CazacConfig, f: np.ndarray) -> np.ndarray:
    """||v(tau_b)||^2 = L ||f_b||^2 per row of folded taps (the base pilot's
    cyclic shifts are orthogonal, each of energy L)."""
    return caz.length * (f * f).sum(axis=1)


def _gains(caz: CazacConfig, qt: np.ndarray, f: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """tr{C^H A^H X} / tr{C^H A^H A C} per problem: exp(-j m mu_b) q~_b over
    M L ||f_b||^2, from the phase rows exp(-j m mu_b)."""
    den = qt.shape[1] * _pilot_energies(caz, f)
    if den.min() < 1e-30:
        raise NumericalDegeneracyError("vanishing pilot energy in the gain update")
    return np.matmul(phases[:, None, :], qt[:, :, None])[:, 0, 0] / den


def _mu_half_window(cfg: SageConfig, m: int) -> float:
    """Half-width of the spatial-frequency search window (default one beam spacing)."""
    return cfg.mu_window if cfg.mu_window is not None else 2.0 * np.pi / m


def _finite_center(center: float, search: str) -> None:
    """Refuse a ``center`` that is not a finite number: max(0, nan) is 0, and
    a NaN window would search [0, L] or stop the lattice rounding.  The
    entry points check it; a search takes its centers as checked."""
    if not is_real(center):
        raise ConfigurationError(f"{search} search center must be a finite number, got {center!r}")


def _tau_bounds(center: float, cfg: SageConfig, ell: int) -> Tuple[float, float]:
    # delays live on a cycle of length L; the window is clipped to [0, L], so
    # a delay past L - 1 is still found (the pilot model is periodic in it).
    # The search rounds it outward to its lattice
    lo = max(0.0, center - cfg.tau_window_symbols)
    hi = min(float(ell), center + cfg.tau_window_symbols)
    if not lo <= hi:
        raise ConfigurationError(f"delay search center {center} lies more than "
                                 f"tau_window_symbols = {cfg.tau_window_symbols} outside [0, {ell}]")
    return lo, hi


def _hidden_observation(y: np.ndarray, terms: Sequence[np.ndarray], r: int,
                        beta: float) -> np.ndarray:
    """The residual after every other path's term, blended with path r's own
    by beta; the same in the observation and the element-lag domain."""
    x_hat = y - sum((x for i, x in enumerate(terms) if i != r), np.zeros_like(y))
    return x_hat if beta == 1.0 else (1.0 - beta) * terms[r] + beta * x_hat


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

    In the element-lag domain Q of ``x_hat`` the numerator is |w . f_tau|^2,
    w = exp(-j m mu) Q, and the denominator beta M L ||f_tau||^2.  The
    search covers ``search_center`` +/- the configured window, clipped to
    [0, L] and rounded outward to the delay lattice (:class:`SageConfig`).
    The search usually stops on the lattice round, whose interpolant between
    the integer delays either side of the best lattice point places the
    peak, or a peak past a clipped end (the line-of-sight delay 0), within
    ``refine_tol``; otherwise the bracket around the best lattice point is
    zoomed in even rounds until it is no wider than ``refine_tol``.  A
    non-finite ``x_hat`` or center, or a center more than the window outside
    [0, L], raises :class:`ConfigurationError`; an all-zero hidden
    observation then returns the center unchanged.
    """
    _finite_center(search_center, "delay")
    _tau_bounds(search_center, cfg, caz.length)
    q = _element_lag(arr, caz, x_hat[None])
    return _delay_step(caz, q, [mu_fixed], [search_center], cfg)[0][0]


def maximize_mu(x_hat: np.ndarray, tau_fixed: float, cfg: SageConfig, search_center: float,
                *, arr: ArrayConfig, caz: CazacConfig) -> float:
    """Spatial frequency maximizing the same objective at a fixed delay.

    Its numerator is |exp(-j m mu) q~|^2, q~ = Q f_tau the angle spectrum.
    Searches ``search_center``, wrapped into [0, 2*pi), +/- the window
    (default one beam spacing), rounded outward to the angle lattice, with
    the stop rules of :func:`maximize_tau`, its interpolant read across the
    whole window (at the defaults every angle search of the acceptance
    workload stops on the lattice round); the result is wrapped into
    [0, 2*pi).  A non-finite center or ``x_hat`` raises
    :class:`ConfigurationError`; an all-zero hidden observation returns the
    center.
    """
    _finite_center(search_center, "angle")
    qt = _angle_statistics(caz, _element_lag(arr, caz, x_hat[None]), [tau_fixed])[1]
    return _search_angles(arr, qt, [search_center], cfg)[0]


def tau_objective_value(x_hat: np.ndarray, mu_fixed: float, tau: float, cfg: SageConfig,
                        *, arr: ArrayConfig, caz: CazacConfig) -> float:
    """The delay-search objective evaluated at one point (for ascent checks)."""
    w = _delay_statistics(_element_lag(arr, caz, x_hat[None]), [mu_fixed])
    if not w.any():
        return 0.0
    raw = _kernels.tau_objective(w[0], tau, caz.rolloff, caz.pulse_halfwidth, caz.length)
    return raw / (cfg.beta * arr.m)


def mu_objective_value(x_hat: np.ndarray, tau_fixed: float, mu: float, cfg: SageConfig,
                       *, arr: ArrayConfig, caz: CazacConfig) -> float:
    """The spatial-frequency objective evaluated at one point (for ascent checks)."""
    f, qt = _angle_statistics(caz, _element_lag(arr, caz, x_hat[None]), [tau_fixed])
    raw = _kernels.mu_objective(qt[0], mu)
    return raw / (cfg.beta * _pilot_energies(caz, f)[0])


def update_alpha(x_hat: np.ndarray, mu_fixed: float, tau_fixed: float,
                 *, arr: ArrayConfig, caz: CazacConfig) -> complex:
    """Closed-form combined gain tr{C^H A^H X} / tr{C^H A^H A C}, which is
    exp(-j m mu) q~ / (M L ||f_tau||^2) in the element-lag domain.  A
    non-finite ``x_hat`` raises :class:`ConfigurationError`."""
    f, qt = _angle_statistics(caz, _element_lag(arr, caz, x_hat[None]), [tau_fixed])
    return complex(_gains(caz, qt, f, _kernels._phase_rows(arr.m, [mu_fixed]))[0])


def _update_paths(arr: ArrayConfig, caz: CazacConfig, qs: np.ndarray,
                  terms: List[np.ndarray], est: List[List[PathEstimate]], idx: List[int],
                  slots: List[int], cfg: SageConfig) -> None:
    """Update path ``slots[i]`` of problem ``idx[i]`` for every i, in place.

    One call per step for all of them, on the (S, M, L) stack of element-lag
    hidden observations: the delay statistics and searches, the angle
    spectra and searches, the gains and the path terms.  A problem whose
    delay statistic vanishes keeps that path unchanged.
    """
    q = np.array([_hidden_observation(qs[p], terms[p], r, cfg.beta)
                  for p, r in zip(idx, slots)])
    old = [est[p][r] for p, r in zip(idx, slots)]
    taus, moving = _delay_step(caz, q, [e.mu_hat for e in old], [e.tau_hat for e in old], cfg)
    if not moving.all():
        keep = moving.tolist()
        idx, slots, old, taus = ([a for a, k in zip(seq, keep) if k]
                                 for seq in (idx, slots, old, taus))
        if not idx:
            return
        q = q[moving]
    f, qt = _angle_statistics(caz, q, taus)
    mus = _search_angles(arr, qt, [e.mu_hat for e in old], cfg)
    phases = _kernels._phase_rows(arr.m, mus)
    alphas = _gains(caz, qt, f, phases)
    new = _path_terms(caz.length, alphas, phases, f)
    for p, r, mu, tau, alpha, term in zip(idx, slots, mus, taus, alphas.tolist(), new):
        est[p][r] = PathEstimate(mu_hat=mu, tau_hat=tau, alpha_hat=alpha)
        terms[p][r] = term


def _lockstep(y: ReceiveMatrix, initials: Sequence[Sequence[PathEstimate]],
              orders: Sequence[Sequence[int]], cfg: SageConfig) -> List[RefinedEstimate]:
    """Refine the B problems of the (B, M, L) stack ``y`` in lockstep, each as if alone.

    The stack is taken to the element-lag domain once (:func:`_element_lag`).
    Iteration i updates slot j of every problem still iterating that has a
    j-th path in its ``order``, all in one :func:`_update_paths` call.  A
    problem leaves the batch once its largest parameter change, relative to
    the search windows and to the gain (:func:`_max_change`), falls to the
    stopping threshold, or after ``max_iterations``.  A non-finite
    observation, initial delay, spatial frequency or gain, or an initial
    delay more than the delay window outside [0, L], raises
    :class:`ConfigurationError` first.
    """
    if not initials:
        return []
    arr, caz = y.arr, y.caz
    for init in initials:
        if not init:
            raise ConfigurationError("refinement needs at least one initial path")
        for e in init:
            _finite_center(e.tau_hat, "delay")
            _tau_bounds(e.tau_hat, cfg, caz.length)
            _finite_center(e.mu_hat, "angle")
            if not np.isfinite(e.alpha_hat):
                raise ConfigurationError(f"initial gain must be finite, got {e.alpha_hat!r}")
    qs = _element_lag(arr, caz, y.y)
    est = [list(init) for init in initials]
    recon = _reconstructions(arr, caz, [e for init in est for e in init])
    terms = np.split(_element_lag(arr, caz, recon), np.cumsum([len(i) for i in est[:-1]]))
    results: List[Optional[RefinedEstimate]] = [None] * len(est)
    active = list(range(len(est)))
    for iterations in range(1, cfg.max_iterations + 1):
        previous = [list(est[p]) for p in active]
        for j in range(max(len(orders[p]) for p in active)):
            idx = [p for p in active if j < len(orders[p])]
            _update_paths(arr, caz, qs, terms, est, idx, [orders[p][j] for p in idx], cfg)
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
    engine's stack of one.
    """
    return _lockstep(ReceiveMatrix(y=y.y[None], arr=y.arr, caz=y.caz), [initial],
                     [range(len(initial)) if order is None else order], cfg)[0]


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
    This is :func:`run_sage_batch`'s stack of one.
    """
    return run_sage_batch(ReceiveMatrix(y=y.y[None], arr=y.arr, caz=y.caz), [init], cfg)[0]


def run_sage_batch(y: ReceiveMatrix, inits: Sequence[CoarseEstimate],
                   cfg: SageConfig) -> List[RefinedEstimate]:
    """:func:`run_sage` on each slab of the (B, M, L) observation stack ``y``
    with its coarse estimate ``inits[b]``, refined in lockstep; result b equals
    ``run_sage`` on slab b alone, bit for bit."""
    if y.y.ndim != 3 or len(y.y) != len(inits):
        raise ConfigurationError(f"refinement needs a (B, M, L) observation stack and B coarse "
                                 f"estimates, got shape {y.y.shape} and {len(inits)} estimates")
    initials, orders = [], []
    for init in inits:
        if not init.paths:
            raise ConfigurationError(
                "refinement needs a coarse estimate with at least one path")
        initials.append([PathEstimate(mu_hat=p.mu_hat, tau_hat=float(p.tau_int),
                                      alpha_hat=0.0 + 0.0j) for p in init.paths])
        order = np.argsort([-p.peak_power for p in init.paths], kind="stable")
        orders.append([int(i) for i in order])
    return _lockstep(y, initials, orders, cfg)
