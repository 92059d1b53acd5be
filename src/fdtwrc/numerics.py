"""Numerical kernels shared by all solvers: the null-space basis of a
complex vector, real cubic roots and a grid + golden-section 1-D maximizer.
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
    """Orthonormal basis of the null space of the row vector v^H.

    Returns an M x (M-1) matrix N with v^H N = 0 and N^H N = I.  Computed
    from a unitary (QR) completion of v, so it is numerically stable; the
    phase of the basis columns is unspecified.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    m = v.size
    if m < 2:
        raise ValueError("null space basis needs a vector of length >= 2")
    nv = np.linalg.norm(v)
    if nv <= 1e-300 or not np.isfinite(nv):
        raise ValueError("cannot form the null space of a zero vector")
    q, _ = np.linalg.qr(v[:, None], mode="complete")
    # first column of q spans v, the rest span {x : v^H x = 0}
    return q[:, 1:]


def _polish_root(coeffs, x, steps=2):
    # a couple of Newton steps against the polynomial we actually solved
    der = np.polyder(coeffs)
    for _ in range(steps):
        d = np.polyval(der, x)
        if d == 0.0:
            break
        x = x - np.polyval(coeffs, x) / d
    return x


def real_cubic_roots(c3, c2, c1, c0):
    """All real roots of c3 x^3 + c2 x^2 + c1 x + c0, sorted ascending.

    Degrades to the quadratic/linear problem when leading coefficients are
    negligible relative to the largest coefficient.  Roots come from the
    companion-matrix eigenvalues; eigenvalues with relative imaginary part
    below 1e-8 are accepted as real and polished by Newton iterations.
    """
    coeffs = np.array([c3, c2, c1, c0], dtype=float)
    scale = np.max(np.abs(coeffs))
    if scale == 0.0 or not np.isfinite(scale):
        raise ValueError("all-zero (or non-finite) polynomial has no defined roots")
    trimmed = coeffs.copy()
    lead = 0
    while lead < 3 and abs(trimmed[lead]) <= 1e-12 * scale:
        lead += 1
    trimmed = trimmed[lead:]
    if trimmed.size == 1:
        return []  # nonzero constant: no roots
    raw = np.roots(trimmed)
    roots = []
    for z in raw:
        if abs(z.imag) <= 1e-8 * max(1.0, abs(z.real)):
            roots.append(_polish_root(trimmed, float(z.real)))
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
    refinement.  With ``vectorized=True`` the grid is evaluated with a
    single array call.  Returns ``(x_best, f(x_best))``; the result is never
    below any grid value.
    """
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if hi == lo:
        y = float(f(np.array([lo]))[0]) if vectorized else float(f(lo))
        return lo, y
    grid_points = max(2, int(grid_points))
    xs = np.linspace(lo, hi, grid_points)
    if vectorized:
        ys = np.asarray(f(xs), dtype=float)
        fs = lambda x: float(f(np.array([x]))[0])
    else:
        ys = np.array([f(x) for x in xs], dtype=float)
        fs = f
    i = int(np.argmax(ys))
    best = (float(xs[i]), float(ys[i]))
    if best[1] == -math.inf:
        return best
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, grid_points - 1)])
    if b - a > tol:
        best = _golden_max(fs, a, b, tol, best)
    return best
