"""Hot numeric kernels, in numpy.

The raised-cosine pulse evaluation, delayed pilot rows and the 1-D peak
searches inside the refinement stage dominate the Monte-Carlo runtime.  One
kernel, batched over delays, builds the delayed pilot (:func:`pilot_rows`);
the delay derivatives and the delay objective share its tap support.  The
search objectives take a whole array of points per call, so each search
costs a handful of numpy calls rather than one call per point.

All delay arguments are in symbol units (t / T_s).
"""

from __future__ import annotations

import math

import numpy as np

# points evaluated evenly across the bracket in a zoom round without a vertex
_ZOOM_POINTS = 16
# ratio of the bracket width to the stencil spacing around a parabola vertex
_VERTEX_SHRINK = 256.0

# below this distance an argument counts as sitting on an exact sample /
# singular point and the analytic limit is used instead of the raw quotient
_INT_EPS = 1e-12
_SING_EPS = 1e-8
_ZERO_EPS = 1e-7


def _rc_factors(x, rolloff):
    """The pieces of h(x) = sinc(x) g(x) that h and dh/dx share.

    g(x) = cos(beta pi x) / (1 - (2 beta x)^2) takes its limit on the poles
    |x| = 1/(2 beta).  Returns sinc(x) and g, and for g' the pole mask, the
    denominator (1 on a pole), cos(beta pi x) and |x| - 1/(2 beta); without
    roll-off g = 1 and the last four are None.
    """
    s = np.sinc(x)
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


def tau_objective(w, tau, rolloff, halfwidth, ell):
    """Delay-search objective |sum_u h(u - tau) w[u mod L]|^2 / ||v(tau)||^2.

    ``tau`` is a scalar or a 1-D array; an array is evaluated as one
    (N x 2*halfwidth) tap matrix, ``halfwidth`` being a whole number of
    symbols.  Row n holds the taps
    u = ceil(tau_n - halfwidth) ... ceil(tau_n - halfwidth) + 2*halfwidth - 1,
    the taps of :func:`pilot_rows`.
    """
    t = np.asarray(tau, dtype=float)[..., None]
    u = _support(t, halfwidth, 2 * halfwidth)
    taps = rc_samples(u - t, rolloff)
    num = abs((taps * w[u % ell]).sum(axis=-1)) ** 2
    # ||v||^2 = L * sum of tap products over pairs congruent mod L
    energy = (taps ** 2).sum(axis=-1)
    for i in range(taps.shape[-1] - ell):
        energy = energy + 2.0 * taps[..., i] * taps[..., i + ell]
    return num / (ell * energy)


def mu_objective(qt, mu):
    """Angle-search objective |sum_m exp(-j m mu) qt[m]|^2 / M.

    ``mu`` is a scalar or a 1-D array; an array is evaluated as one (N x M)
    phase matrix.
    """
    m = qt.shape[0]
    ph = np.exp(-1j * np.arange(m) * np.asarray(mu, dtype=float)[..., None])
    return abs(np.dot(ph, qt)) ** 2 / m


def _vertex_stencil(x, y, tol):
    """Zoom points around the vertex of the parabola through three points.

    ``y[1]`` is the highest of the three values, so the vertex ``v`` lies
    within half a gap of ``x[1]`` (three equal values have none, and ``x[1]``
    stands in).  Returns the bracket ends ``x[0], x[2]`` and ``v - e, v, v + e``
    with ``e = max((x[2] - x[0]) / _VERTEX_SHRINK, tol / 4)``, or None when
    these five points are not strictly increasing: the stencil would need
    clipping at a bracket end, or ``e`` is below the float spacing at ``v``.
    """
    d0, d2 = x[1] - x[0], x[2] - x[1]
    g0, g2 = y[1] - y[0], y[1] - y[2]
    den = d0 * g2 + d2 * g0
    v = x[1] if den == 0.0 else x[1] + 0.5 * (d2 * d2 * g0 - d0 * d0 * g2) / den
    e = max((x[2] - x[0]) / _VERTEX_SHRINK, 0.25 * tol)
    if x[0] < v - e < v < v + e < x[2]:
        return np.array([x[0], v - e, v, v + e, x[2]])
    return None


def _zoom_max(f, lo, hi, n_grid, tol):
    """Maximize ``f`` over [lo, hi] by a grid, then by zooming into its bracket.

    ``f`` takes a 1-D array of points.  The bracket is the pair of neighbours
    of the best point of the last call (the point itself standing in for a
    missing neighbour at a window edge).  Each zoom round fits a parabola
    through the best point and its two neighbours and evaluates, in one call,
    the bracket ends and three points packed around the parabola's vertex
    (:func:`_vertex_stencil`); on a smooth peak the next bracket is
    ``_VERTEX_SHRINK / 2`` times narrower, from function values alone
    (successive parabolic interpolation).  A round evaluates ``_ZOOM_POINTS``
    even points across the bracket instead when the best point is a bracket
    end, when the stencil does not fit, or when the last round did not halve
    the bracket, which bounds the cost of a peak far from parabolic to about
    twice that of even rounds alone.  It stops when the bracket is no wider
    than ``tol``, or when a round no longer narrows it, which happens once
    ``tol`` is below the float spacing at the maximizer.  Returns the bracket
    midpoint.
    """
    xs = np.linspace(lo, hi, n_grid)
    fs = f(xs)
    width = math.inf
    while True:
        i = int(np.argmax(fs))
        a = xs[max(i - 1, 0)]
        b = xs[min(i + 1, xs.size - 1)]
        if b - a <= tol or b - a >= width:
            break
        # a vertex that did not halve the bracket sits on a poor parabola
        trusted = 2.0 * (b - a) <= width
        width = b - a
        stencil = None
        if trusted and 0 < i < xs.size - 1:
            stencil = _vertex_stencil(xs[i - 1:i + 2], fs[i - 1:i + 2], tol)
        xs = np.linspace(a, b, _ZOOM_POINTS) if stencil is None else stencil
        fs = f(xs)
    return 0.5 * (a + b)


def search_tau(w, rolloff, halfwidth, ell, lo, hi, n_grid, tol):
    """Delay in [lo, hi] maximizing :func:`tau_objective`."""
    return _zoom_max(lambda t: tau_objective(w, t, rolloff, halfwidth, ell),
                     lo, hi, n_grid, tol)


def search_mu(qt, center, half_window, n_grid, tol):
    """Spatial frequency within ``center`` +/- ``half_window`` maximizing
    :func:`mu_objective`."""
    return _zoom_max(lambda x: mu_objective(qt, x),
                     center - half_window, center + half_window, n_grid, tol)


def active_backend() -> str:
    """Name of the kernel implementation, recorded in run provenance."""
    return "numpy"
