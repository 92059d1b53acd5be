"""The grid + golden-section search one point a step: the reference that
``numerics.maximize_1d_lockstep``, which requests four golden steps' points
at a time, must match in the points it uses and in its answers."""

import math

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_one_point_a_step(f, n, lo, hi, tol, grid_points):
    """``maximize_1d_lockstep``'s search of n functions, one after another,
    with one golden point per call of f.

    ``f(owners, xs)`` is called as there: first once for the grid of every
    function (owners None), then with one point of one function per call.
    Returns one (x_best, f_best) per function: the first point with the
    largest value among its grid and the golden points, in their order.
    """
    xs = np.linspace(lo, hi, grid_points)
    ys = np.asarray(f(None, xs), dtype=float).reshape(n, grid_points)
    found = []
    for k, row in enumerate(ys):
        i = int(np.argmax(row))
        x_best, f_best = float(xs[i]), float(row[i])
        a, b = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, grid_points - 1)])

        def value(x):
            nonlocal x_best, f_best
            y = f(np.array([k]), np.array([x]))[0]
            if y > f_best:
                x_best, f_best = x, y
            return y

        if row[i] != -math.inf and b - a > tol:
            x1, x2 = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
            f1, f2 = value(x1), value(x2)
            while b - a > tol:
                if f1 >= f2:
                    b, x2, f2 = x2, x1, f1
                    x1 = b - GOLDEN * (b - a)
                    f1 = value(x1)
                else:
                    a, x1, f1 = x1, x2, f2
                    x2 = a + GOLDEN * (b - a)
                    f2 = value(x2)
        found.append((x_best, float(f_best)))
    return found
