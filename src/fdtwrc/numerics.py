"""Numerical kernels shared by all solvers: row-wise vdot and norm, the
null-space basis of complex vectors and a grid + golden-section 1-D
maximizer, for one function or for many in lockstep; plus the real roots
of one cubic, which no solver calls (see ``real_cubic_roots``).
"""

import math

import numpy as np

__all__ = [
    "null_space_basis",
    "real_cubic_roots",
    "maximize_1d",
    "maximize_1d_lockstep",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _vdots(x, y):
    """``np.vdot`` of each row of x with y (or of x with each row of y), bit
    for bit: numpy's matmul of 1 x m by m x 1 slices makes one BLAS dot call
    per row, so a row's value does not depend on the other rows, which a
    matrix-vector product over the rows does not ensure."""
    return (np.conj(x)[..., None, :] @ y[..., :, None])[..., 0, 0]


def _norms(x):
    """``np.linalg.norm`` of each row of a complex array, bit for bit: as in
    norm, one dot per row on the strided real and imaginary views
    (``np.add.reduce`` and ``einsum`` sum in other orders)."""
    re, im = x.real, x.imag
    return np.sqrt((re[..., None, :] @ re[..., :, None]
                    + im[..., None, :] @ im[..., :, None])[..., 0, 0])


def null_space_basis(v):
    """Orthonormal basis of the null space of V^H, for a length-M vector v
    (one column), an M x k matrix V of k < M linearly independent columns,
    or a stack (..., M, k) of such matrices.

    Returns an M x (M-k) matrix N (stacked like V) with V^H N = 0 and
    N^H N = I.  Computed from a unitary (QR) completion of V, so it is
    numerically stable; the phase of the basis columns is unspecified.  The
    columns' independence is the caller's to ensure: only an all-zero V is
    refused.  A stack is completed by one stacked QR call, which gives each
    matrix the bits of its own call.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim == 1:
        v = v[:, None]
    m, k = v.shape[-2:]
    if m <= k:
        raise ValueError("null space basis needs more rows than columns")
    if v.ndim == 2:
        smallest = largest = np.linalg.norm(v)
    else:
        norms = np.linalg.norm(v, axis=(-2, -1))
        smallest, largest = norms.min(), norms.max()
    if smallest <= 1e-300 or not np.isfinite(largest):
        raise ValueError("cannot form the null space of a zero vector")
    q, _ = np.linalg.qr(v, mode="complete")
    # the first k columns of q span V, the rest span {x : V^H x = 0}
    return q[..., k:]


def real_cubic_roots(c3, c2, c1, c0):
    """All real roots of c3 x^3 + c2 x^2 + c1 x + c0, sorted ascending.

    Degrades to the quadratic/linear problem when leading coefficients are
    at most 1e-12 of the largest |coefficient|.  Roots are ``np.roots``'
    companion-matrix eigenvalues (trailing zero coefficients give exact
    zero roots); eigenvalues with relative imaginary part at most 1e-8 are
    accepted as real and polished by two Newton steps (``np.polyval`` of
    the polynomial and its ``np.polyder``), and a root within 1e-8 relative
    of the previous one is dropped.  An all-zero or non-finite polynomial
    raises ValueError.

    No solver calls it: the sum-rate power step solves its stationarity
    condition as the quadratic it is.  It stays for the benchmark's
    per-layer tracer, which wraps it by name.
    """
    coeffs = [float(c) for c in (c3, c2, c1, c0)]
    if not all(map(math.isfinite, coeffs)) or not any(coeffs):
        raise ValueError("all-zero (or non-finite) polynomial has no defined roots")
    scale = max(map(abs, coeffs))
    while abs(coeffs[0]) <= 1e-12 * scale:
        coeffs = coeffs[1:]
    der = np.polyder(coeffs)
    roots = []
    for z in np.roots(coeffs).tolist():
        if abs(z.imag) <= 1e-8 * max(1.0, abs(z.real)):
            x = z.real
            for _ in range(2):
                d = np.polyval(der, x)
                if d == 0.0:
                    break
                x = x - np.polyval(coeffs, x) / d
            roots.append(float(x))
    roots.sort()
    out = []
    for x in roots:
        if not out or abs(x - out[-1]) > 1e-8 * max(1.0, abs(x)):
            out.append(x)
    return out


def _golden_steps(a, b, tol, best, lookahead):
    """Golden-section refinement for a maximum on [a, b], as a generator:
    it yields a tuple of the points whose values it needs, is sent their
    values (a sequence) and returns the first best value among ``best`` and
    the points it evaluates, in their order, as (x_best, f_best).

    Without ``lookahead`` each tuple holds one step's point.  With it, each
    holds the point the search needs (the first one both starting points)
    together with the two points that the next step may need, one for each
    outcome of its comparison.  The values are cached, so one request
    serves two steps, and the points used and the result are those of the
    search without lookahead.
    """
    x_best, f_best = best
    cache = {}

    def value(x, a, b, x1, x2):
        # f at the step's point x, given the bracket and points after the step
        nonlocal x_best, f_best
        if not lookahead:
            y = (yield (x,))[0]
        else:
            if x not in cache:
                # the new point of the next step after f1 >= f2, and after f1 < f2
                spare = ((x2 - _GOLDEN * (x2 - a), x1 + _GOLDEN * (b - x1))
                         if b - a > tol else ())
                xs = (x, x2, *spare) if x == x1 and x2 not in cache else (x, *spare)
                cache.update(zip(xs, (yield xs)))
            y = cache[x]
        if y > f_best:
            x_best, f_best = x, y
        return y

    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = yield from value(x1, a, b, x1, x2)
    f2 = yield from value(x2, a, b, x1, x2)
    while (b - a) > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = yield from value(x1, a, b, x1, x2)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = yield from value(x2, a, b, x1, x2)
    return x_best, f_best


def maximize_1d_lockstep(f, n, lo, hi, tol, grid_points, lookahead):
    """Maximize n scalar functions of one variable on [lo < hi] together.

    ``f(owners, xs)`` returns the values at the points ``xs`` (an ndarray),
    point i belonging to function ``owners[i]``.  The first call is the
    grid of ``grid_points`` samples for every function, with ``owners``
    None: it returns n x grid_points values, or n * grid_points in
    function-major order.  Then each function whose grid has a finite
    maximum is refined around its best grid point, down to interval width
    ``tol``, by ``_golden_steps`` (``lookahead`` as there).  Every call
    after the grid holds the points that all refining functions request
    at that step, in function order, so a function whose bracket is
    narrower (a best grid point at an end) or whose search has ended adds
    none.  A function whose grid values are all -inf is not refined.
    Returns one (x_best, f_best) per function: the first point with the
    largest value, in the order its search uses them, so never below any
    of its grid values.  A function's result does not depend on the others
    as long as a value of f does not.
    """
    grid_points = max(2, int(grid_points))
    xs = np.linspace(lo, hi, grid_points)
    ys = np.asarray(f(None, xs), dtype=float).reshape(n, grid_points)
    best, searches = [], {}
    for k, row in enumerate(ys):
        i = int(np.argmax(row))
        best.append((float(xs[i]), float(row[i])))
        a = float(xs[max(i - 1, 0)])
        b = float(xs[min(i + 1, grid_points - 1)])
        if row[i] != -math.inf and b - a > tol:
            steps = _golden_steps(a, b, tol, best[k], lookahead)
            searches[k] = (steps, next(steps))
    while searches:
        owners = np.concatenate([np.full(len(wanted), k) for k, (_, wanted) in searches.items()])
        values = f(owners, np.array([x for _, wanted in searches.values() for x in wanted]))
        offset = 0
        for k, (steps, wanted) in list(searches.items()):
            got = values[offset:offset + len(wanted)]
            offset += len(wanted)
            try:
                searches[k] = (steps, steps.send(got))
            except StopIteration as stop:
                best[k] = stop.value
                del searches[k]
    return [(x, float(y)) for x, y in best]


def maximize_1d(f, lo, hi, tol=1e-8, grid_points=201):
    """Maximize a scalar function on [lo, hi].

    Dense-grid scan (``grid_points`` samples) followed by golden-section
    refinement around the best grid point, down to interval width ``tol``:
    ``maximize_1d_lockstep`` for one function.  When every grid value is
    -inf (an infeasible grid) there is no refinement.  The grid is
    evaluated with a single call on the ndarray of grid points; every
    refinement step, and the single evaluation of a degenerate interval,
    calls ``f`` with a Python float.  So ``f`` must take both an ndarray
    and a float; a formula built from numpy ufuncs and float arithmetic
    gives the same value for x as for element x of an array (squares by
    ``np.square``: ``** 2`` on a numpy scalar calls pow, which can differ).
    Returns ``(x_best, f(x_best))``: the first point with the largest
    value, in the order the search uses them, so never below any grid
    value.
    """
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if hi == lo:
        return lo, float(f(lo))

    def one(owners, xs):
        return f(xs) if owners is None else [f(float(xs[0]))]

    [best] = maximize_1d_lockstep(one, 1, lo, hi, tol, grid_points, False)
    return best
