"""Hot numeric kernels, in numpy.

The raised-cosine pulse evaluation, delayed pilot rows and the 1-D peak
searches inside the refinement stage dominate the Monte-Carlo runtime.  One
kernel, batched over delays, builds the delayed pilot (:func:`pilot_rows`);
the delay derivatives and the delay objective share its tap support.  The
search objectives take a whole array of points per call, each point against
its own row of a stack of statistics, and the searches advance a batch of
problems in lockstep, so a search round costs a handful of numpy calls for
the whole batch rather than one call per point or per problem.

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


def tau_objective(w, tau, rolloff, halfwidth, ell, rows=None):
    """Delay-search objective |sum_u h(u - tau) w[u mod L]|^2 / ||v(tau)||^2.

    ``tau`` is a scalar or a 1-D array; an array is evaluated as one
    (N x 2*halfwidth) tap matrix, ``halfwidth`` being a whole number of
    symbols.  Row n holds the taps
    u = ceil(tau_n - halfwidth) ... ceil(tau_n - halfwidth) + 2*halfwidth - 1,
    the taps of :func:`pilot_rows`.  With ``rows`` given, ``w`` is a (B, L)
    stack of statistics and the (N, 1) index ``rows`` picks each point's row.
    Every point is evaluated elementwise, so its value does not depend on the
    other points of the call.
    """
    t = np.asarray(tau, dtype=float)[..., None]
    u = _support(t, halfwidth, 2 * halfwidth)
    taps = rc_samples(u - t, rolloff)
    wu = w[u % ell] if rows is None else w[rows, u % ell]
    num = abs((taps * wu).sum(axis=-1)) ** 2
    # ||v||^2 = L * sum of tap products over pairs congruent mod L
    energy = (taps ** 2).sum(axis=-1)
    n = taps.shape[-1]
    for d in range(ell, n, ell):
        for i in range(n - d):
            energy = energy + 2.0 * taps[..., i] * taps[..., i + d]
    return num / (ell * energy)


def mu_objective(qt, mu, rows=None):
    """Angle-search objective |sum_m exp(-j m mu) qt[m]|^2 / M.

    ``mu`` is a scalar or a 1-D array; an array is evaluated as one (N x M)
    phase matrix.  With ``rows`` given, ``qt`` is a (B, M) stack of spectra
    and ``rows`` picks each point's, as in :func:`tau_objective`; the points
    of one row must be consecutive.  Each run of one row takes one
    matrix-vector product, the product a call for that row alone would
    take: a product over several rows' points would round differently.
    """
    m = qt.shape[-1]
    ph = np.exp(-1j * np.arange(m) * np.asarray(mu, dtype=float)[..., None])
    if rows is None:
        s = np.dot(ph, qt)
    else:
        r = rows[:, 0]
        cuts = [0, *(np.flatnonzero(r[1:] != r[:-1]) + 1).tolist(), r.size]
        s = np.concatenate([np.dot(ph[a:b], qt[r[a]]) for a, b in zip(cuts, cuts[1:])])
    return abs(s) ** 2 / m


def _vertex(x, y):
    """The vertex of the parabola through three points, ``y[1]`` the highest.

    The vertex lies within half a gap of ``x[1]``; three equal values have
    none, and ``x[1]`` stands in.
    """
    d0, d2 = x[1] - x[0], x[2] - x[1]
    g0, g2 = y[1] - y[0], y[1] - y[2]
    den = d0 * g2 + d2 * g0
    return x[1] if den == 0.0 else x[1] + 0.5 * (d2 * d2 * g0 - d0 * d0 * g2) / den


def _vertex_stencil(a, b, v, tol):
    """The bracket ends ``a, b`` and ``v - e, v, v + e`` around a vertex ``v``.

    ``e = max((b - a) / _VERTEX_SHRINK, tol / 4)``.  Returns None when these
    five points are not strictly increasing: the stencil would need clipping
    at a bracket end, or ``e`` is below the float spacing at ``v``.
    """
    e = max((b - a) / _VERTEX_SHRINK, 0.25 * tol)
    if a < v - e < v < v + e < b:
        return np.array([a, v - e, v, v + e, b])
    return None


def _toward_end(end, other, tol):
    """Points from ``other`` toward a window ``end``, increasing.

    Their distances from ``end`` are ``|other - end| * 4**-k``, k = 0, 1, ...,
    down to the first no larger than ``tol / 2`` (or than the float spacing
    at ``end``, if that is larger), and ``end`` itself, so a maximum on the
    end leaves a bracket no wider than ``tol / 2``.
    """
    w = other - end
    floor = max(0.5 * tol, math.ulp(end))
    k = max(1, math.ceil(0.5 * (math.log2(abs(w)) - math.log2(floor))))
    x = [other, *(end + w * 0.25 ** j for j in range(1, k + 1)), end]
    return np.array(x if w < 0.0 else x[::-1])


def _even(lo, hi, n):
    """``np.linspace(lo, hi, n)`` bit for bit: k * step + lo, and hi exact."""
    x = np.arange(n) * ((hi - lo) / (n - 1)) + lo
    x[-1] = hi
    return x


def _zoom_max(f, lo, hi, n_grid, tol):
    """Maximize B independent objectives in lockstep, each over its [lo[b], hi[b]].

    ``f(x, rows)`` evaluates flat points ``x``, those of problem b consecutive
    and marked by ``rows`` as in :func:`tau_objective`; when one problem is
    left, ``rows`` is its index b and ``x`` its points alone.  Each round is
    one call for every problem still searching; per problem the search runs
    as if alone.  It starts on a grid and then zooms into the bracket, the
    pair of neighbours of the best point of the last round (the point itself
    standing in for a missing neighbour at an end).  A round picks its
    points by where that best point lies:

    * on the window end ``lo[b]`` or ``hi[b]`` (a peak on or past a clipped
      window): points spaced geometrically toward that end
      (:func:`_toward_end`), so a maximum on the end closes in this one
      round and one just inside it leaves a narrow bracket;
    * inside the bracket: the bracket ends and three points packed around
      the vertex of the parabola through the best point and its neighbours
      (:func:`_vertex_stencil`); on a smooth peak the next bracket is
      ``_VERTEX_SHRINK / 2`` times narrower, from function values alone
      (successive parabolic interpolation);
    * otherwise, ``_ZOOM_POINTS`` even points across the bracket: when the
      best point is a bracket end inside the window, when the stencil does
      not fit, or when the last round neither halved the bracket nor was a
      window-end round, which bounds the cost of a peak far from parabolic
      to about twice that of even rounds alone.

    A problem stops when its bracket is no wider than ``tol``, returning the
    bracket midpoint; when a new parabola vertex lies within ``tol`` of the
    vertex the last round was packed around (Brent's step test), returning
    the new vertex; or when a round no longer narrows the bracket, which
    happens once ``tol`` is below the float spacing at the maximizer.
    """
    xs = [_even(a, b, n_grid) for a, b in zip(lo, hi)]
    fs = [None] * len(xs)
    width = [math.inf] * len(xs)
    # the vertex the last round was packed around, or None after another round
    vertex = [None] * len(xs)
    at_end = [False] * len(xs)
    best = [0.0] * len(xs)
    active = list(range(len(xs)))
    while active:
        if len(active) == 1:
            fs[active[0]] = f(xs[active[0]], active[0])
        else:
            values = f(np.concatenate([xs[p] for p in active]),
                       np.repeat(active, [xs[p].size for p in active])[:, None])
            start = 0
            for p in active:
                fs[p] = values[start:start + xs[p].size]
                start += xs[p].size
        searching = []
        for p in active:
            x, fx = xs[p], fs[p]
            i = int(fx.argmax())
            last = x.size - 1
            a = x[max(i - 1, 0)]
            b = x[min(i + 1, last)]
            if b - a <= tol or b - a >= width[p]:
                best[p] = 0.5 * (a + b)
                continue
            # a vertex that did not halve the bracket sits on a poor parabola
            trusted = 2.0 * (b - a) <= width[p] or at_end[p]
            width[p] = b - a
            at_end[p] = (i == 0 and x[0] == lo[p]) or (i == last and x[last] == hi[p])
            points = None
            if at_end[p]:
                points = _toward_end(x[i], b if i == 0 else a, tol)
            elif trusted and 0 < i < last:
                v = _vertex(x[i - 1:i + 2], fx[i - 1:i + 2])
                if vertex[p] is not None and abs(v - vertex[p]) <= tol:
                    best[p] = v
                    continue
                points = _vertex_stencil(a, b, v, tol)
            vertex[p] = None if points is None or at_end[p] else points[2]
            xs[p] = _even(a, b, _ZOOM_POINTS) if points is None else points
            searching.append(p)
        active = searching
    return best


def search_tau(w, rolloff, halfwidth, ell, lo, hi, n_grid, tol):
    """Delays maximizing :func:`tau_objective`, row b of the (B, L) ``w`` over
    [lo[b], hi[b]]."""
    def f(t, rows):
        if isinstance(rows, int):
            return tau_objective(w[rows], t, rolloff, halfwidth, ell)
        return tau_objective(w, t, rolloff, halfwidth, ell, rows)
    return _zoom_max(f, lo, hi, n_grid, tol)


def search_mu(qt, lo, hi, n_grid, tol):
    """Spatial frequencies maximizing :func:`mu_objective`, row b of the (B, M)
    ``qt`` over [lo[b], hi[b]]."""
    def f(x, rows):
        return mu_objective(qt[rows], x) if isinstance(rows, int) else mu_objective(qt, x, rows)
    return _zoom_max(f, lo, hi, n_grid, tol)


def active_backend() -> str:
    """Name of the kernel implementation, recorded in run provenance."""
    return "numpy"
