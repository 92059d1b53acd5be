"""Numerical kernels shared by all solvers: squared moduli, row-wise vdot and
norm, the null-space basis of complex vectors, a grid + golden-section 1-D
maximizer of one or many functions in lockstep that says where it found
each maximum, and the real roots of one cubic, which no solver calls.
"""

import math
from itertools import repeat

import numpy as np

__all__ = [
    "null_space_basis",
    "real_cubic_roots",
    "maximize_1d",
    "maximize_1d_lockstep",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_LOOKAHEAD_STEPS = 3  # the golden steps after the needed one that a request serves


def _vdots(x, y):
    """``np.vdot`` of each row of x with y (or of x with each row of y), bit
    for bit: numpy's matmul of 1 x m by m x 1 slices makes one BLAS dot call
    per row, so a row's value does not depend on the other rows, which a
    matrix-vector product over the rows does not ensure."""
    return (np.conj(x)[..., None, :] @ y[..., :, None])[..., 0, 0]


def _abs2(z):
    """|z|^2 = re^2 + im^2 of a complex array or scalar, the one arithmetic of
    squared moduli: correctly rounded, so an entry's bits never depend on its batch."""
    return z.real * z.real + z.imag * z.imag


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


def _golden_steps(a, b, tol, best):
    """Golden-section refinement for a maximum on [a, b], as a generator.

    Each request it yields holds the point the search needs (the first one
    both starting points) and every point that the next ``_LOOKAHEAD_STEPS``
    steps may need, two for each outcome of each comparison: 1 + 2 + 4 + 8
    = 15 (the first 16).  It is sent (values, call, start): their values,
    point j's evaluated at index start + j of call ``call``.  The values are
    cached, so a request serves four steps, and the points the search uses
    and its result are those of one point a step.  Returns the first best
    among ``best`` and the points used, in their order, as (x_best, f_best,
    (call, index)), where x_best was evaluated; ``best`` has that form.
    """
    x_best, f_best, at = best
    cache = {}

    def spare(a, b, x1, x2, depth):
        # the next depth steps' points from [a, b] and x1 < x2: after f1 >= f2, then f1 < f2
        if depth == 0 or b - a <= tol:
            return ()
        lo, hi = x2 - _GOLDEN * (x2 - a), x1 + _GOLDEN * (b - x1)
        return (lo, hi, *spare(a, x2, lo, x1, depth - 1), *spare(x1, b, x2, hi, depth - 1))

    def value(x, a, b, x1, x2):
        # f at the step's point x, given the bracket and points after the step
        nonlocal x_best, f_best, at
        if x not in cache:
            xs = (x, x2) if x == x1 and x2 not in cache else (x,)
            xs += spare(a, b, x1, x2, _LOOKAHEAD_STEPS)
            ys, call, start = yield xs
            cache.update(zip(xs, zip(ys, repeat(call), range(start, start + len(xs)))))
        y, call, i = cache[x]
        if y > f_best:
            x_best, f_best, at = x, y, (call, i)
        return y

    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
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
    return x_best, f_best, at


def _check_search(lo, hi, tol, grid_points):
    """Refuse what would never end (tol <= 0) or silently mislead: NaN, an
    infinite or empty interval, fewer than two grid points."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"need finite lo <= hi, got [{lo}, {hi}]")
    if not (tol > 0.0 and grid_points >= 2):
        raise ValueError(f"need tol > 0 and grid_points >= 2, got {tol} and {grid_points}")


def maximize_1d_lockstep(f, n, lo, hi, tol, grid_points):
    """Maximize n scalar functions of one variable on [lo, hi] together.

    ``f(owners, xs)`` returns the values at the points ``xs`` (an ndarray),
    point i belonging to function ``owners[i]``.  The first call, call 0,
    is the grid of ``grid_points`` samples for every function, with
    ``owners`` None: it returns n x grid_points values, or n * grid_points
    in function-major order.  Then each function whose grid has a finite
    maximum is refined around its best grid point, down to interval width
    ``tol``, by ``_golden_steps``: a call serves four golden steps.  Every
    later call holds the points that all refining functions request, in
    function order, so a function whose search has ended adds none, and
    one whose bracket is narrower (a best grid point at an end) ends
    sooner.  Returns one (x_best, f_best, call, index) per function: the
    first point with the largest value, in the order its search uses them
    (so never below any of its grid values), and where it was evaluated.
    A function's result does not depend on the others as long as a value
    of f does not.  Bad arguments raise ValueError before any call.
    """
    _check_search(lo, hi, tol, grid_points)
    grid_points = int(grid_points)
    xs = np.linspace(lo, hi, grid_points)
    ys = np.asarray(f(None, xs), dtype=float).reshape(n, grid_points)
    best, searches = [], {}
    for k, row in enumerate(ys):
        i = int(np.argmax(row))
        best.append((float(xs[i]), float(row[i]), (0, k * grid_points + i)))
        a, b = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, grid_points - 1)])
        if row[i] != -math.inf and b - a > tol:
            steps = _golden_steps(a, b, tol, best[k])
            searches[k] = (steps, next(steps))
    call = 0
    while searches:
        call += 1
        owners = np.concatenate([np.full(len(wanted), k) for k, (_, wanted) in searches.items()])
        values = f(owners, np.array([x for _, wanted in searches.values() for x in wanted]))
        offset = 0
        for k, (steps, wanted) in list(searches.items()):
            got = values[offset:offset + len(wanted)]
            try:
                searches[k] = (steps, steps.send((got, call, offset)))
            except StopIteration as stop:
                best[k] = stop.value
                del searches[k]
            offset += len(wanted)
    return [(x, float(y), *where) for x, y, where in best]


def maximize_1d(f, lo, hi, tol=1e-8, grid_points=201):
    """Maximize a scalar function on [lo, hi].

    Dense-grid scan (``grid_points`` samples) followed by golden-section
    refinement around the best grid point, down to interval width ``tol``:
    ``maximize_1d_lockstep`` for one function, whose arguments it checks
    alike.  When every grid value is -inf (an infeasible grid) there is no
    refinement.  The grid is evaluated with a single call on the ndarray
    of grid points; each point of a refinement request, and the single
    evaluation of a degenerate interval, by a call of ``f`` with a Python
    float.  So ``f`` must take both an ndarray and a float; a formula built
    from numpy ufuncs and float arithmetic gives the same value for x as
    for element x of an array (squares by ``np.square``: ``** 2`` on a
    numpy scalar calls pow, which can differ).  Returns
    ``(x_best, f(x_best))``: the first point with the largest value, in
    the order the search uses them, so never below any grid value.
    """
    _check_search(lo, hi, tol, grid_points)
    if hi == lo:
        return lo, float(f(lo))

    def each(owners, xs):
        return f(xs) if owners is None else [f(x) for x in xs.tolist()]

    return maximize_1d_lockstep(each, 1, lo, hi, tol, grid_points)[0][:2]
