"""Numerical kernels shared by all solvers: the null-space basis of complex
vectors, real cubic roots and a grid + golden-section 1-D maximizer.
"""

import math

import numpy as np

__all__ = [
    "null_space_basis",
    "real_cubic_roots",
    "maximize_1d",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def null_space_basis(v):
    """Orthonormal basis of the null space of V^H, for a length-M vector v
    (one column) or an M x k matrix V of k < M linearly independent columns.

    Returns an M x (M-k) matrix N with V^H N = 0 and N^H N = I.  Computed
    from a unitary (QR) completion of V, so it is numerically stable; the
    phase of the basis columns is unspecified.  The columns' independence
    is the caller's to ensure: only an all-zero V is refused.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim == 1:
        v = v[:, None]
    m, k = v.shape
    if m <= k:
        raise ValueError("null space basis needs more rows than columns")
    nv = np.linalg.norm(v)
    if nv <= 1e-300 or not np.isfinite(nv):
        raise ValueError("cannot form the null space of a zero vector")
    q, _ = np.linalg.qr(v, mode="complete")
    # the first k columns of q span V, the rest span {x : V^H x = 0}
    return q[:, k:]


def _horner(coeffs, x):
    # np.polyval's loop, on Python floats
    y = 0.0
    for c in coeffs:
        y = y * x + c
    return y


def _polish_root(coeffs, x, steps=2):
    # a couple of Newton steps against the polynomial we actually solved;
    # the derivative's coefficients are np.polyder's
    n = len(coeffs) - 1
    der = [c * (n - k) for k, c in enumerate(coeffs[:-1])]
    for _ in range(steps):
        d = _horner(der, x)
        if d == 0.0:
            break
        x = x - _horner(coeffs, x) / d
    return x


def real_cubic_roots(c3, c2, c1, c0):
    """All real roots of c3 x^3 + c2 x^2 + c1 x + c0, sorted ascending.

    Degrades to the quadratic/linear problem when leading coefficients are
    negligible relative to the largest coefficient.  Roots come from the
    eigenvalues of the companion matrix that ``np.roots`` builds (trailing
    zero coefficients give exact zero roots); eigenvalues with relative
    imaginary part below 1e-8 are accepted as real and polished by Newton
    iterations.  Equal, bit for bit, to ``np.roots`` plus a
    ``np.polyval``/``np.polyder`` polish, in scalar arithmetic.
    """
    coeffs = [float(c3), float(c2), float(c1), float(c0)]
    if not all(map(math.isfinite, coeffs)) or not any(coeffs):
        raise ValueError("all-zero (or non-finite) polynomial has no defined roots")
    scale = max(map(abs, coeffs))
    lead = 0
    while lead < 3 and abs(coeffs[lead]) <= 1e-12 * scale:
        lead += 1
    trimmed = coeffs[lead:]
    if len(trimmed) == 1:
        return []  # nonzero constant: no roots
    n = len(trimmed)
    while trimmed[n - 1] == 0.0:
        n -= 1
    raw = []
    if n > 1:
        companion = np.diag(np.ones(n - 2), -1)
        companion[0, :] = [-c / trimmed[0] for c in trimmed[1:n]]
        raw = np.linalg.eigvals(companion).tolist()
    raw += [0.0] * (len(trimmed) - n)
    roots = []
    for z in raw:
        if abs(z.imag) <= 1e-8 * max(1.0, abs(z.real)):
            roots.append(_polish_root(trimmed, z.real))
    roots.sort()
    out = []
    for x in roots:
        if not out or abs(x - out[-1]) > 1e-8 * max(1.0, abs(x)):
            out.append(x)
    return out


def _golden_max(f, a, b, tol, best):
    """Golden-section refinement for a maximum on [a, b]; keeps best seen."""
    x_best, f_best = best
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        if f1 > f_best:
            x_best, f_best = x1, f1
        if f2 > f_best:
            x_best, f_best = x2, f2
    return x_best, f_best


def maximize_1d(f, lo, hi, tol=1e-8, grid_points=201, vectorized=False):
    """Maximize a scalar function on [lo, hi].

    Dense-grid scan (``grid_points`` samples) followed by golden-section
    refinement around the best grid point, down to interval width ``tol``.
    When every grid value is -inf (an infeasible grid) there is no
    refinement.  Every refinement step, and the single evaluation of a
    degenerate interval, calls ``f`` with a Python float.  With
    ``vectorized=True`` the grid is evaluated with a single call on the
    ndarray of grid points, so ``f`` must take both an ndarray and a float;
    a formula built from numpy ufuncs and float arithmetic gives the same
    value for x as for element x of an array (squares by ``np.square``:
    ``** 2`` on a numpy scalar calls pow, which can differ).  Returns
    ``(x_best, f(x_best))``; the result is never below any grid value.
    """
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if hi == lo:
        return lo, float(f(lo))
    grid_points = max(2, int(grid_points))
    xs = np.linspace(lo, hi, grid_points)
    if vectorized:
        ys = np.asarray(f(xs), dtype=float)
    else:
        ys = np.array([f(x) for x in xs], dtype=float)
    i = int(np.argmax(ys))
    x_best, f_best = float(xs[i]), float(ys[i])
    if f_best == -math.inf:
        return x_best, f_best
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, grid_points - 1)])
    if b - a > tol:
        x_best, f_best = _golden_max(f, a, b, tol, (x_best, f_best))
    return x_best, float(f_best)
