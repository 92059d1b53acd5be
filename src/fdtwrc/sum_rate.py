"""Sum-rate maximization: exact Pareto-frontier transmit beamformer in
reduced coordinates, binary/active-constraint power allocation, and the
alternating loop (shared with the rate region) with the 1-D combiner
search.

Given the combiner and the powers, the objective depends on w_t only through
the two quadratic forms s_a = |h_ra^H w_t|^2 and s_b = |h_rb^H w_t|^2.  The
joint range of two Hermitian forms over the unit sphere is convex
(Hausdorff-Toeplitz) and the sum rate increases in both forms, so its
maximum lies on the upper frontier of that range.  ``solve_txbf_p2`` finds
it by a 1-D search along the frontier and rebuilds a unit vector achieving
the chosen pair in closed form.  ``dc_step`` is the paper's convex DC
subproblem over the same (s_a, s_b) set; it is not on the solver path and
is kept as the reference that the oracle tests check.
"""

import math

import numpy as np

from .model import receive_gains
from .numerics import maximize_1d, real_cubic_roots
from .rate_region import (
    _LN2,
    _alpha_search,
    _alternate,
    _combiners,
    _null_z,
    _p_prime,
    boundary_range,
)

__all__ = [
    "dc_objective",
    "dc_linearized_objective",
    "dc_step",
    "solve_txbf_p2",
    "solve_power_p2",
    "optimize_fixed_alpha_p2",
    "max_sum_rate",
]

# interval width in q at which the frontier search stops
_FRONTIER_TOL = 1e-6


def _sum_rate_bits(e_a, e_b, k_a, k_b, s_a, s_b):
    return (np.log2(1.0 + e_a * s_a / (s_a + k_a))
            + np.log2(1.0 + e_b * s_b / (s_b + k_b)))


def _coeffs(channels, rx_a, rx_b, p_a, p_b):
    e_a = p_b * rx_b
    e_b = p_a * rx_a
    k_a = p_a * abs(channels.h_aa) ** 2 + 1.0
    k_b = p_b * abs(channels.h_bb) ** 2 + 1.0
    return e_a, e_b, k_a, k_b


def dc_objective(channels, w_r, p_a, p_b, s_a, s_b):
    """Sum rate as a function of the two quadratic forms of w_t."""
    e_a, e_b, k_a, k_b = _coeffs(channels, *receive_gains(channels, w_r), p_a, p_b)
    return float(_sum_rate_bits(e_a, e_b, k_a, k_b, s_a, s_b))


def dc_linearized_objective(channels, w_r, p_a, p_b, s_a, s_b, anchor):
    """Concave surrogate: f(s) minus the tangent of g(s) at the anchor.

    g is concave (log of affine), so the tangent over-estimates it and the
    surrogate is a global lower bound of the true objective, tight at the
    anchor; that is what makes the DC iteration monotone.
    """
    e_a, e_b, k_a, k_b = _coeffs(channels, *receive_gains(channels, w_r), p_a, p_b)
    s_a_k, s_b_k = anchor
    f_val = np.log2((e_a + 1.0) * s_a + k_a) + np.log2((e_b + 1.0) * s_b + k_b)
    g_lin = (math.log2(s_a_k + k_a) + math.log2(s_b_k + k_b)
             + (s_a - s_a_k) / (_LN2 * (s_a_k + k_a))
             + (s_b - s_b_k) / (_LN2 * (s_b_k + k_b)))
    return f_val - g_lin


def dc_step(channels, ctx, p_a, p_b, anchor, config):
    """One convex DC subproblem: maximize the linearized objective over the
    reachable (s_a, s_b) set of the combiner whose ``_tx_context`` is
    ``ctx``, at the full budget ``_p_prime``, then rebuild a beamformer
    achieving the point.

    The surrogate is concave and separable enough that the s_a maximizer on
    a slice is a clamped stationary point; the slice search over s_b uses
    the dense-grid + golden 1-D maximizer.  A candidate that does not
    improve the true objective is rejected and the anchor returned.
    """
    e_a, e_b, k_a, k_b = _coeffs(channels, ctx.rx_a, ctx.rx_b, p_a, p_b)
    p_prime = _p_prime(config.p_r_max, p_a, p_b, ctx.rx_a, ctx.rx_b)
    grid_points = config.grid_points
    s_a_k, s_b_k = anchor
    lam_a = 1.0 / (_LN2 * (s_a_k + k_a))
    lam_b = 1.0 / (_LN2 * (s_b_k + k_b))
    s_a_star = s_a_k + k_a * e_a / (e_a + 1.0)  # stationary point of the surrogate
    s_b_top = p_prime * ctx.nb2
    top_a = p_prime * ctx.na2

    def surrogate(s_b):
        q = np.clip(s_b / s_b_top, 0.0, 1.0)
        lo, hi = boundary_range(ctx.r, q, ctx.n)
        s_a = np.clip(s_a_star, top_a * lo, top_a * hi)
        return (np.log2((e_a + 1.0) * s_a + k_a) + np.log2((e_b + 1.0) * s_b + k_b)
                - lam_a * s_a - lam_b * s_b)

    if s_b_top > 0:
        s_b_best, _ = maximize_1d(surrogate, 0.0, s_b_top,
                                  tol=max(1e-12, 1e-3 * s_b_top),
                                  grid_points=grid_points, vectorized=True)
    else:
        s_b_best = 0.0
    q = min(s_b_best / s_b_top, 1.0) if s_b_top > 0 else 0.0
    lo, hi = boundary_range(ctx.r, q, ctx.n)
    s_a_best = float(min(max(s_a_star, top_a * lo), top_a * hi))
    f_new = float(_sum_rate_bits(e_a, e_b, k_a, k_b, s_a_best, s_b_best))
    f_old = float(_sum_rate_bits(e_a, e_b, k_a, k_b, s_a_k, s_b_k))
    if f_new < f_old - 1e-12:
        s_a_best, s_b_best = s_a_k, s_b_k
        q = s_b_best / s_b_top if s_b_top > 0 else 0.0
    t = math.sqrt(min(max(s_a_best / top_a, 0.0), 1.0)) if top_a > 0 else 0.0
    z = _null_z(ctx.d1, ctx.d2, ctx.r, ctx.phi, ctx.n, q, t)
    return s_a_best, s_b_best, math.sqrt(p_prime) * (ctx.n_t @ z)


def solve_txbf_p2(channels, ctx, p_a, p_b, config, w_t_init=None):
    """Transmit beamformer maximizing the sum rate at fixed powers, for the
    combiner whose ``_tx_context`` is ``ctx``.

    Null dimension 1: the direction is forced and the sum rate is
    nondecreasing in the transmit power, so the full budget is the answer.
    Otherwise the sum rate increases in both quadratic forms, so its
    maximum over the convex reachable (s_a, s_b) set lies on the upper
    frontier s_a = s_a_max(q), q = s_b / s_b_max at full budget; a 1-D
    search over q in [0, 1] therefore solves the inner problem exactly.
    The search evaluates the frontier on the ndarray of grid points and on
    a Python float at each golden step; the formula is numpy ufuncs and
    float arithmetic, so a step's value has the same bits as an array
    element would.  The frontier point is returned only when its sum rate
    exceeds that of the start point (the unconstrained-direction cold
    start, or the warm start when it scores higher), so a warm-started
    call never scores below its warm start.  ``dc_step`` is the paper's DC
    iteration over the same set, kept as the oracle-tested reference.
    """
    p_prime = _p_prime(config.p_r_max, p_a, p_b, ctx.rx_a, ctx.rx_b)
    if ctx.n == 1:
        return math.sqrt(p_prime) * ctx.n_t[:, 0]
    e_a, e_b, k_a, k_b = _coeffs(channels, ctx.rx_a, ctx.rx_b, p_a, p_b)

    def state(z):
        s_a = p_prime * abs(np.vdot(ctx.a_t, z)) ** 2
        s_b = p_prime * abs(np.vdot(ctx.b_t, z)) ** 2
        return float(_sum_rate_bits(e_a, e_b, k_a, k_b, s_a, s_b))

    # start point: unconstrained direction (z along the null-space image of
    # h_ra, or of h_rb if that is zero), replaced by the warm start when
    # that scores higher
    z_start = (ctx.d2 if ctx.d2 is not None
               else _null_z(ctx.d1, ctx.d2, ctx.r, ctx.phi, ctx.n, 1.0))
    start = state(z_start)
    if w_t_init is not None:
        zi = ctx.n_t.conj().T @ w_t_init
        nz = np.linalg.norm(zi)
        if nz > 1e-150:
            warm = state(zi / nz)
            if warm > start:
                z_start, start = zi / nz, warm

    s_b_top = p_prime * ctx.nb2
    top_a = p_prime * ctx.na2

    def frontier(q):
        s_a = top_a * boundary_range(ctx.r, q)[1]
        return _sum_rate_bits(e_a, e_b, k_a, k_b, s_a, q * s_b_top)

    q_best, _ = maximize_1d(frontier, 0.0, 1.0, tol=_FRONTIER_TOL,
                            grid_points=config.grid_points, vectorized=True)
    z = _null_z(ctx.d1, ctx.d2, ctx.r, ctx.phi, ctx.n, q_best)
    z_best = z if state(z) > start else z_start
    return math.sqrt(p_prime) * (ctx.n_t @ z_best)


def _stationarity_cubic(lins):
    """Coefficients, in descending powers, of
    sum_i s_i b_i prod_{j != i} (a_j + b_j x) with signs s = (+, -, +, -),
    for the four (a_j, b_j) in ``lins``.

    Float arithmetic in ``np.convolve``'s order (one product or a sum of two
    per coefficient), so each coefficient equals the
    ``np.convolve(term, [b_j, a_j])`` assembly bit for bit.
    """
    num = [0.0] * 4
    for i, (sgn, (_, bi)) in enumerate(zip((1.0, -1.0, 1.0, -1.0), lins)):
        term = [sgn * bi]
        for j, (aj, bj) in enumerate(lins):
            if j != i:
                term = ([term[0] * bj] + [x * bj + y * aj for x, y in zip(term[1:], term)]
                        + [term[-1] * aj])
        num = [u + v for u, v in zip(num, term)]
    return num


def solve_power_p2(channels, w_t, ctx, config):
    """Source powers maximizing the sum rate at a fixed beamformer and the
    combiner whose ``_tx_context`` is ``ctx``.

    Candidates: the three binary corners, the endpoints of the
    active-budget curve p_a(p_b), and the real roots of the stationarity
    condition on that curve (a cubic assembled numerically from the
    derivative of the two rate terms).  Returns
    (p_a, p_b, value) for the best feasible candidate, value being its sum
    rate in ``sinr_pair``'s arithmetic.  The corner (0, 0) scores 0 and is
    feasible whenever any candidate is, so (0.0, 0.0, 0.0) is returned
    when no candidate scores higher, feasible or not.
    """
    tx_a, tx_b = abs(np.vdot(channels.h_ra, w_t)) ** 2, abs(np.vdot(channels.h_rb, w_t)) ** 2
    rx_a, rx_b = ctx.rx_a, ctx.rx_b
    haa2 = abs(channels.h_aa) ** 2
    hbb2 = abs(channels.h_bb) ** 2
    nt2 = float(np.vdot(w_t, w_t).real)
    pa_max, pb_max, pr_max = config.p_a_max, config.p_b_max, config.p_r_max
    budget = pr_max / nt2 - 1.0 if nt2 > 0 else math.inf  # cap on p_a rx_a + p_b rx_b

    def sum_rate(p_a, p_b):
        ga = p_b * tx_a * rx_b / (tx_a + p_a * haa2 + 1.0)
        gb = p_a * tx_b * rx_a / (tx_b + p_b * hbb2 + 1.0)
        return math.log2(1.0 + ga) + math.log2(1.0 + gb)

    cands = [(pa_max, pb_max), (pa_max, 0.0), (0.0, pb_max)]
    if budget > 0 and rx_a > 1e-300 and rx_b > 1e-300:
        pb_min = max(0.0, (budget - rx_a * pa_max) / rx_b)
        pb_max_c = min(pb_max, budget / rx_b)
        if pb_min <= pb_max_c + 1e-15:
            pa_of = lambda pb: min(max((budget - pb * rx_b) / rx_a, 0.0), pa_max)
            cands.append((pa_of(pb_min), pb_min))
            cands.append((pa_of(pb_max_c), pb_max_c))
            # stationarity of y(p_b) on the curve: sum of four rational terms
            a2 = tx_a + 1.0 + haa2 * budget / rx_a
            b2 = -haa2 * rx_b / rx_a
            a1, b1 = a2, b2 + tx_a * rx_b
            a4, b4 = tx_b + 1.0, hbb2
            a3, b3 = a4 + tx_b * budget, b4 - tx_b * rx_b
            num = _stationarity_cubic([(a1, b1), (a2, b2), (a3, b3), (a4, b4)])
            if np.max(np.abs(num)) > 0:
                for root in real_cubic_roots(*num):
                    if pb_min < root < pb_max_c:
                        cands.append((pa_of(root), root))
    elif budget > 0 and rx_b > 1e-300:
        cands.append((0.0, min(pb_max, budget / rx_b)))
    elif budget > 0 and rx_a > 1e-300:
        cands.append((min(pa_max, budget / rx_a), 0.0))
    best = (0.0, 0.0, 0.0)
    for p_a, p_b in cands:
        p_a = min(max(p_a, 0.0), pa_max)
        p_b = min(max(p_b, 0.0), pb_max)
        if p_a * rx_a + p_b * rx_b <= budget * (1.0 + 1e-12) + 1e-12:  # relay budget
            val = sum_rate(p_a, p_b)
            if val > best[2]:
                best = (p_a, p_b, val)
    return best


def optimize_fixed_alpha_p2(channels, alpha, config, combiners=None):
    """Alternate the transmit beamformer and the power rule for one combiner.

    Starts at full source powers; the beamformer solve is warm-started with
    the previous beamformer so the recorded sum-rate trace never decreases.
    """
    return _alternate(
        channels, alpha, combiners, config, [(config.p_a_max, config.p_b_max)],
        beam=lambda ctx, p, w_t: solve_txbf_p2(channels, ctx, p[0], p[1], config, w_t_init=w_t),
        power=lambda w_t, ctx: solve_power_p2(channels, w_t, ctx, config))


def max_sum_rate(channels, config):
    """Best sum-rate operating point over the combiner parameter grid plus
    golden refinement, reading one ``_combiners`` table."""
    combiners = _combiners(channels)
    return _alpha_search(lambda a: optimize_fixed_alpha_p2(channels, a, config, combiners), config)
