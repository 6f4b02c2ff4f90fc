"""Hot numeric kernels, in numpy.

The raised-cosine pulse evaluation, delayed pilot rows and the 1-D peak
searches inside the refinement stage dominate the Monte-Carlo runtime.  One
kernel, batched over delays, builds the delayed pilot (:func:`pilot_rows`);
the delay derivatives and the taps folded onto the L lags (:func:`folded_taps`),
on which the refinement's update and the delay objective run, share its tap
support.  Each search maximizes one statistic over one window, and its
objective takes a whole array of points per call, reduced by one
matrix-vector product against that statistic, so a search round costs a
handful of numpy calls rather than one call per point.  A search's first
round covers its window on a fixed lattice (delays at multiples of 1/Q
symbol, spatial frequencies at multiples of 2*pi/(M*Q)) and reads a table
built once per configuration: the folded taps at the offsets j/Q across one
window's reach, which a window reads rotated by its integer start
(:func:`delay_lattice`), and the phase rows of every lattice point a window
can reach (:func:`angle_lattice`).  So that round evaluates no pulse or
exponential and equals the objective at its points bit for bit, and most
searches stop on it: its values hold the local derivatives that place a
smooth peak within the tolerance (:func:`_lattice_settled`).  The delay
objective is smooth only between integer delays, where the pulse taps keep
their support, so a delay search reads its lattice values one such piece at
a time (:func:`_delay_settled`).  A search the lattice round cannot settle
zooms in even rounds (:func:`_zoom_max`).

All delay arguments are in symbol units (t / T_s).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

# points evaluated evenly across the bracket in a zoom round
_ZOOM_POINTS = 16

# below this distance an argument counts as sitting on an exact sample /
# singular point and the analytic limit is used instead of the raw quotient
_INT_EPS = 1e-12
_SING_EPS = 1e-8
_ZERO_EPS = 1e-7
_FLOAT_EPS = float(np.finfo(float).eps)


def _rc_factors(x, rolloff):
    """The pieces of h(x) = sinc(x) g(x) that h and dh/dx share.

    g(x) = cos(beta pi x) / (1 - (2 beta x)^2) takes its limit on the poles
    |x| = 1/(2 beta).  Returns sinc(x) and g, and for g' the pole mask, the
    denominator (1 on a pole), cos(beta pi x) and |x| - 1/(2 beta); without
    roll-off g = 1 and the last four are None.
    """
    # np.sinc(x) without its per-call dtype lookup: sin(pi x) / (pi x), the
    # float epsilon standing in for pi x = 0
    px = np.pi * x
    px = np.where(px, px, _FLOAT_EPS)
    s = np.sin(px) / px
    if rolloff <= 0.0:
        return s, np.ones_like(x), None, None, None, None
    dx0 = np.abs(x) - 1.0 / (2.0 * rolloff)
    sing = np.abs(dx0) < _SING_EPS
    den = np.where(sing, 1.0, 1.0 - (2.0 * rolloff * x) ** 2)
    cb = np.cos(rolloff * np.pi * x)
    g = np.where(sing, (np.pi / 4.0) * (1.0 - rolloff * dx0), cb / den)
    return s, g, sing, den, cb, dx0


def _exact_on_samples(x, h):
    """``h`` with the pulse's exact 1 at x = 0 and 0 at the other integers."""
    xr = np.rint(x)
    exact = np.where(np.abs(xr) < 0.5, 1.0, 0.0)
    return np.where(np.abs(x - xr) < _INT_EPS, exact, h)


def rc_samples(x, rolloff):
    """Raised-cosine pulse h(x) with removable singularities by their limits."""
    x = np.asarray(x, dtype=float)
    s, g = _rc_factors(x, rolloff)[:2]
    return _exact_on_samples(x, s * g)


def rc_samples_and_derivs(x, rolloff):
    """h(x) and dh/dx, limits at x = 0 and the roll-off poles.

    One pass: h and h' share sinc(x), cos(beta pi x) and the roll-off
    denominator, and h equals :func:`rc_samples` bit for bit.
    """
    x = np.asarray(x, dtype=float)
    s, g, sing, den, cb, dx0 = _rc_factors(x, rolloff)
    # sinc'(x) = (cos(pi x) - sinc(x)) / x, by its series near 0
    small = np.abs(x) < _ZERO_EPS
    z = (np.pi * x) ** 2
    sp = np.where(small, -(np.pi ** 2) * x / 3.0 * (1.0 - z / 10.0),
                  (np.cos(np.pi * x) - s) / np.where(small, 1.0, x))
    h = _exact_on_samples(x, s * g)
    if sing is None:
        return h, sp * g
    gp = (-rolloff * np.pi * np.sin(rolloff * np.pi * x) * den
          + cb * 8.0 * rolloff ** 2 * x) / den ** 2
    gp_s = np.sign(x) * (np.pi / 4.0) * (-rolloff + 2.0 * rolloff ** 2 * dx0
                                         * (1.0 - np.pi ** 2 / 6.0))
    return h, sp * g + s * np.where(sing, gp_s, gp)


def _support(t, halfwidth, n):
    """Tap positions u = ceil(t - halfwidth) + k, k = 0..n-1, one row per delay."""
    return np.ceil(t - halfwidth).astype(np.intp) + np.arange(n)


def _delayed(cbase, u, taps):
    """sum_k taps[..., r, k] * cbase[(s - u[r, k]) mod L], shaped (..., R, L)."""
    ell = cbase.shape[0]
    idx = (np.arange(ell)[:, None] - u[:, None, :]) % ell
    return (cbase[idx] * taps[..., None, :]).sum(axis=-1)


def pilot_rows(cbase, taus, rolloff, halfwidth):
    """Base pilot delayed by each of ``taus`` symbols with cyclic wrap-around, (R, L).

    Row r sums the 2*halfwidth taps u = ceil(tau_r - halfwidth) + k, the
    whole truncated support of a fractional delay.  An integer delay has one
    more tap, at u = tau + halfwidth, where the pulse is exactly zero; its
    other taps are an exact 1 at u = tau and exact zeros, so its row is the
    exact cyclic shift of the base sequence.
    """
    t = np.asarray(taus, dtype=float)[:, None]
    u = _support(t, halfwidth, 2 * halfwidth)
    return _delayed(cbase, u, rc_samples(u - t, rolloff))


def pilot_rows_and_derivs(cbase, taus, rolloff, halfwidth):
    """Pilot rows v(tau_r) and their delay derivatives dv/dtau_r, (R, L) each.

    The taps are those of :func:`pilot_rows` plus one at
    u = ceil(tau_r - halfwidth) + 2*halfwidth, masked to the truncated support
    u <= tau_r + halfwidth: an integer delay keeps it, since the pulse's
    derivative is not zero at the support's end.  The masked tap adds an
    exact zero after the others, so the rows equal :func:`pilot_rows` bit for
    bit.
    """
    t = np.asarray(taus, dtype=float)[:, None]
    u = _support(t, halfwidth, 2 * halfwidth + 1)
    h, hp = rc_samples_and_derivs(u - t, rolloff)
    taps = np.stack([h, -hp]) * (u <= np.floor(t + halfwidth))
    rows = _delayed(cbase, u, taps)
    return rows[0], rows[1]


def folded_taps(taus, rolloff, halfwidth, ell):
    """The taps of :func:`pilot_rows` folded onto the L lags, (R, L):
    f_r[d] = sum over u = d (mod L) of h(u - tau_r).

    The delayed pilot row is v(tau_r)[s] = sum_d f_r[d] c((s - d) mod L).
    An integer delay's row is the unit vector at tau_r mod L, exactly; taps
    L apart (2*halfwidth > L) are summed in order of position.
    """
    t = np.asarray(taus, dtype=float)[:, None]
    u = _support(t, halfwidth, 2 * halfwidth)
    lags = u % ell + ell * np.arange(t.shape[0])[:, None]
    return np.bincount(lags.ravel(), rc_samples(u - t, rolloff).ravel(),
                       t.size * ell).reshape(t.shape[0], ell)


def tau_objective(w, tau, rolloff, halfwidth, ell):
    """Delay-search objective |f_tau . w|^2 / (L ||f_tau||^2), f_tau the folded
    taps (:func:`folded_taps`).

    This is |v(tau)^H z|^2 / ||v(tau)||^2 for w the pilot-shift correlation
    of z, since the base pilot's cyclic shifts are orthogonal, each of
    energy L.  ``tau`` is a scalar or a 1-D array; an array is evaluated as
    one (N x L) matrix of folded taps.
    """
    t = np.asarray(tau, dtype=float)
    f = folded_taps(t.reshape(-1), rolloff, halfwidth, ell)
    out = abs(np.dot(f, w)) ** 2 / (ell * (f ** 2).sum(axis=1))
    return out.reshape(t.shape) if t.ndim else out[0]


def mu_objective(qt, mu):
    """Angle-search objective |sum_m exp(-j m mu) qt[m]|^2 / M.

    ``mu`` is a scalar or a 1-D array; an array is evaluated as one (N x M)
    phase matrix.
    """
    m = qt.shape[-1]
    return abs(np.dot(_phase_rows(m, mu), qt)) ** 2 / m


def _phase_rows(m, mu):
    """exp(-j m mu) for m = 0..M-1, one row per spatial frequency of ``mu``."""
    return np.exp(-1j * np.arange(m) * np.asarray(mu, dtype=float)[..., None])


class DelayLattice(NamedTuple):
    """:func:`tau_objective`'s pieces at the delays j / density, j = 0 .. reach * density.

    Row j of ``taps`` holds the folded taps f at j / density.  A delay
    n + j / density has row j's taps rotated n lags, bit for bit: the pulse
    taps are the same numbers and fold in the same order.  ``energy[n % L, j]``
    is L ||f||^2 of that rotated row, summed in the rotated order, as
    :func:`tau_objective` sums it.
    """

    rolloff: float
    halfwidth: int
    ell: int
    density: int
    taps: np.ndarray
    energy: np.ndarray


def delay_lattice(rolloff, halfwidth, ell, density, reach):
    """Read-only :class:`DelayLattice` over ``reach`` symbols, built by
    :func:`tau_objective`'s own tap and energy code; it holds
    2 * L * (reach * density + 1) entries."""
    taps = folded_taps(np.arange(reach * density + 1) / density, rolloff, halfwidth, ell)
    energy = ell * np.stack([(np.roll(taps, n, axis=1) ** 2).sum(axis=1) for n in range(ell)])
    for a in (taps, energy):
        a.setflags(write=False)
    return DelayLattice(rolloff, halfwidth, ell, density, taps, energy)


class AngleLattice(NamedTuple):
    """Phase rows exp(-j m mu_k) at mu_k = k * step, k = first .. first + len(mu) - 1."""

    step: float
    first: int
    mu: np.ndarray
    phases: np.ndarray


def lattice_window(lo, hi, step):
    """The lattice indices of the smallest window [k_lo * step, k_hi * step]
    holding [lo, hi]."""
    a, b = math.floor(lo / step), math.ceil(hi / step)
    return a - (a * step > lo), b + (b * step < hi)


def angle_lattice(m, density, half):
    """Read-only :class:`AngleLattice` at step 2*pi / (M * density), built
    with :func:`mu_objective`'s phase expression.

    It covers every lattice window (:func:`lattice_window`) of half-width
    ``half`` around a center in [0, 2*pi].
    """
    step = 2.0 * np.pi / (m * density)
    first, last = lattice_window(-half, 2.0 * np.pi + half, step)
    mu = np.arange(first, last + 1) * step
    out = AngleLattice(step, first, mu, _phase_rows(m, mu))
    for a in out[2:]:
        a.setflags(write=False)
    return out


def _interpolant_rows(k):
    """For the best point at position k = 0..6 of seven lattice points, u = -k
    .. 6 - k lattice steps from it: for the seven starting at position o =
    0..2 of nine consecutive lattice points, rows[o] maps the nine values to
    the coefficients of the seven points' interpolant's p'(u) and p''(u),
    highest power first, and to the 7th divided differences over the first
    eight and the last eight of the nine; and the coefficients of Pi'(u),
    Pi(u) the product of (u - u_j) over the seven points.

    720 = 6! clears the denominators of the inverse Vandermonde matrix, so
    the weights are the exact rationals, rounded once.
    """
    u = np.arange(7.0) - k
    c = np.rint(np.linalg.inv(np.vander(u)) * 720.0) / 720.0
    d1 = np.arange(6.0, 0.0, -1.0)[:, None] * c[:6]
    d2 = np.arange(5.0, 0.0, -1.0)[:, None] * d1[:5]
    diff7 = np.array([math.comb(7, j) * (-1.0) ** (7 - j) for j in range(8)]) / 5040.0
    rows = np.zeros((3, 13, 9))
    for o in range(3):
        rows[o, :11, o:o + 7] = np.vstack([d1, d2])
    rows[:, 11, :8] = rows[:, 12, 1:] = diff7
    return rows, np.polyder(np.poly(u)).tolist()


_INTERPOLANT = [_interpolant_rows(k) for k in range(7)]


def _horner(c, u):
    """The polynomial with coefficients ``c``, highest power first, at ``u``."""
    y = 0.0
    for a in c:
        y = y * u + a
    return y


def _lattice_settled(x, fx, tol):
    """The maximizer read from a first round on a uniform lattice, or None
    unless its values place it within ``tol``.

    p is the degree-6 interpolant through the seven points nearest the best
    point x_i, clipped to the window.  Its error in p' is about
    |D7| |Pi'(u)|, D7 the larger 7th divided difference over two sets of
    eight consecutive points: the seven with the eighth point either side,
    or, where the window ends at the seven, the seven with the next point
    inward and the eight one point further in, so that D7 never rests on a
    single set.  A best point on a window end is returned,
    exactly, when p' there points out of the window by more than that error.
    Otherwise p's vertex v, found by Newton steps from x_i until a step is
    below ``tol`` / 1000, lies within |D7| |Pi'(v)| / |p''(v)| of the
    maximizer, and v is returned when it lies in x_i's bracket, p''(v) < 0
    and that bound is within ``tol``.  Lattice values are rounded at about
    1e-16 of the peak, far below the 7th differences of a smooth peak.
    """
    n = x.size
    if n < 9:
        return None
    i = int(fx.argmax())
    s = min(max(i - 3, 0), n - 7)
    # nine points: the seven and an eighth either side, or two more on one
    # side where the window ends on the other
    a = min(max(s - 1, 0), n - 9)
    rows, dpi = _INTERPOLANT[i - s]
    r = (rows[s - a] @ fx[a:a + 9]).tolist()
    p1, p2 = r[:6], r[6:11]
    d7 = max(abs(r[11]), abs(r[12]))
    if (i == 0 and p1[-1] < -d7 * abs(dpi[-1])) or (i == n - 1 and p1[-1] > d7 * abs(dpi[-1])):
        return x[i]
    # the bracket in lattice steps from x_i
    lo, hi = -float(i > 0), float(i < n - 1)
    h = (x[s + 6] - x[s]) / 6.0
    u, step = 0.0, math.inf
    for _ in range(8):
        curv = _horner(p2, u)
        if not curv < 0.0 or not lo <= u <= hi:
            return None
        if abs(step) * h <= 1e-3 * tol:
            return x[i] + u * h if h * d7 * abs(_horner(dpi, u)) <= -curv * tol else None
        step = _horner(p1, u) / curv
        u -= step
    return None


def _even(lo, hi, n):
    """``np.linspace(lo, hi, n)`` bit for bit: k * step + lo, and hi exact."""
    x = np.arange(n) * ((hi - lo) / (n - 1)) + lo
    x[-1] = hi
    return x


def _delay_settled(density, x, fx, tol):
    """:func:`_lattice_settled` for a delay window on the lattice 1/density,
    read only where the delay objective is smooth: between two consecutive
    integer delays, where every pulse tap keeps its support.

    A best point x_i off the integers is read on the lattice points between
    the integers either side of it, within the window.  A best point on an
    integer is read on the piece either side (a window end stands in for a
    piece that the window does not hold).  A piece gives x_i when its
    interpolant falls away from x_i by more than its error bound, and then
    the search returns the other piece's result: x_i itself when both fall
    away, the other piece's vertex, or None, to zoom.
    """
    def piece(a, b):
        return _lattice_settled(x[a:b], fx[a:b], tol)

    i = int(fx.argmax())
    # lattice steps from the integer delay at or below x_i
    r = (round(float(x[0]) * density) + i) % density
    if r:
        return piece(max(i - r, 0), i - r + density + 1)
    t = x[i]
    left = t if i == 0 else piece(max(i - density, 0), i + 1)
    right = t if i == x.size - 1 else piece(i, i + density + 1)
    return right if left == t else left if right == t else None


def _zoom_max(f, x, fx, tol, settled):
    """Maximize the objective ``f`` over the window [x[0], x[-1]].

    ``x`` are the points of the search's first round, evenly spaced and
    increasing, and ``fx`` their values.  When the first-round rule
    ``settled(x, fx, tol)`` places the maximizer within ``tol`` from those
    values (:func:`_lattice_settled` or :func:`_delay_settled`), the search
    stops there, with no call to ``f``.  Otherwise it zooms: each round
    evaluates ``f`` at ``_ZOOM_POINTS`` even points across the bracket, the
    pair of neighbours of the last round's best point (the point itself
    standing in for a missing neighbour at a window end), until the bracket
    is no wider than ``tol``, returning its midpoint, or a round no longer
    narrows it, which happens once ``tol`` is below the float spacing at the
    maximizer.
    """
    best = settled(x, fx, tol)
    width = math.inf
    while best is None:
        i = int(fx.argmax())
        a, b = x[max(i - 1, 0)], x[min(i + 1, x.size - 1)]
        if b - a <= tol or b - a >= width:
            best = 0.5 * (a + b)
        else:
            width = b - a
            x = _even(a, b, _ZOOM_POINTS)
            fx = f(x)
    return best


def search_tau(w, lattice, k_lo, k_hi, tol):
    """The delay maximizing :func:`tau_objective` of the statistic ``w`` over
    the window [k_lo, k_hi] / density of the :class:`DelayLattice` ``lattice``.

    The first round is one matrix-vector product, of the lattice's rows over
    the window, rotated by its integer start: the product
    :func:`tau_objective` takes (``take`` keeps the rotated rows
    C-contiguous, as :func:`folded_taps` returns them).  The later rounds
    call :func:`tau_objective`.
    """
    rolloff, halfwidth, ell, density = lattice[:4]
    n, j = divmod(k_lo, density)
    window = slice(j, k_hi - n * density + 1)
    f = lattice.taps[window].take(np.arange(ell) - n % ell, axis=1)
    fx = abs(np.dot(f, w)) ** 2 / lattice.energy[n % ell, window]
    return _zoom_max(lambda t: tau_objective(w, t, rolloff, halfwidth, ell),
                     np.arange(k_lo, k_hi + 1) / density, fx, tol,
                     functools.partial(_delay_settled, density))


def search_mu(qt, lattice, k_lo, k_hi, tol):
    """The spatial frequency maximizing :func:`mu_objective` of the spectrum
    ``qt`` over the window [k_lo, k_hi] * step of the :class:`AngleLattice`
    ``lattice``.

    The first round is one matrix-vector product, of the lattice's phase
    rows over the window: the product :func:`mu_objective` takes.  The later
    rounds call :func:`mu_objective`.
    """
    window = slice(k_lo - lattice.first, k_hi - lattice.first + 1)
    fx = abs(np.dot(lattice.phases[window], qt)) ** 2 / qt.shape[-1]
    return _zoom_max(lambda x: mu_objective(qt, x), lattice.mu[window], fx, tol,
                     _lattice_settled)


def active_backend() -> str:
    """Name of the kernel implementation, recorded in run provenance."""
    return "numpy"
