"""Sum-rate maximization: exact Pareto-frontier transmit beamformer in
reduced coordinates and binary/active-constraint power allocation, both
for a batch of combiners, run by ``rate_region``'s alternating loop and
1-D combiner search.

Given the combiner and the powers, the objective depends on w_t only through
the two quadratic forms s_a = |h_ra^H w_t|^2 and s_b = |h_rb^H w_t|^2.  The
joint range of two Hermitian forms over the unit sphere is convex
(Hausdorff-Toeplitz) and the sum rate increases in both forms, so its
maximum lies on the upper frontier of that range.  ``solve_txbf_p2`` finds
it by a 1-D search along the frontier and rebuilds a unit vector achieving
the chosen pair in closed form.  ``dc_step`` is the paper's convex DC
subproblem over the same (s_a, s_b) set, on a one-row ``_TxBatch``; it is
not on the solver path and is kept as the reference that the oracle tests
check.

The frontier search, the power step and the re-solves of the combiners
whose powers moved each run as a few numpy calls over a ``_TxBatch`` of
combiners, whose rows carry their realization's channel data and a
null-space basis of one width whatever their rank, so ``max_sum_rates``
searches the combiners of several realizations, and of their
zero-loopback copies, in one lockstep; the power step's stationary
points on the relay-budget curve are the roots of a quadratic, solved for
all rows in closed form.
"""

import functools
import math

import numpy as np

from .model import receive_gains
from .numerics import _vdots, maximize_1d
from .rate_region import (
    _LN2,
    _abs2,
    _alpha_search,
    _alternate_batch,
    _boundary_z,
    _combiner_table,
    _p_prime,
    _row_z,
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
    "max_sum_rates",
]

# grid spacing in q at which the frontier search stops
_FRONTIER_TOL = 1e-6
# float64 elements of one rows x levels temporary of the frontier search:
# 64 KiB, below the 128 KiB at which glibc's malloc maps a block of its own.
# Larger temporaries are mapped and unmapped (or trimmed off the heap) on
# every call, and their pages fault in afresh each time.
_FRONTIER_BLOCK = 8192
# distance, relative to the power box, within which a power candidate is a
# box corner
_CORNER_TOL = 1e-12


def _rate_gain(e_a, e_b, k_a, k_b, s_a, s_b):
    """(1 + gamma_a)(1 + gamma_b) at the quadratic forms (s_a, s_b): two to
    the sum rate, which searches compare without taking logarithms."""
    return ((1.0 + e_a) * s_a + k_a) / (s_a + k_a) * (((1.0 + e_b) * s_b + k_b) / (s_b + k_b))


def _sum_rate_bits(e_a, e_b, k_a, k_b, s_a, s_b):
    return np.log2(_rate_gain(e_a, e_b, k_a, k_b, s_a, s_b))


def _coeffs(haa2, hbb2, rx_a, rx_b, p_a, p_b):
    e_a = p_b * rx_b
    e_b = p_a * rx_a
    k_a = p_a * haa2 + 1.0
    k_b = p_b * hbb2 + 1.0
    return e_a, e_b, k_a, k_b


def _si2(channels):
    return abs(channels.h_aa) ** 2, abs(channels.h_bb) ** 2


def dc_objective(channels, w_r, p_a, p_b, s_a, s_b):
    """Sum rate as a function of the two quadratic forms of w_t."""
    e_a, e_b, k_a, k_b = _coeffs(*_si2(channels), *receive_gains(channels, w_r), p_a, p_b)
    return float(_sum_rate_bits(e_a, e_b, k_a, k_b, s_a, s_b))


def dc_linearized_objective(channels, w_r, p_a, p_b, s_a, s_b, anchor):
    """Concave surrogate: f(s) minus the tangent of g(s) at the anchor.

    g is concave (log of affine), so the tangent over-estimates it and the
    surrogate is a global lower bound of the true objective, tight at the
    anchor; that is what makes the DC iteration monotone.
    """
    e_a, e_b, k_a, k_b = _coeffs(*_si2(channels), *receive_gains(channels, w_r), p_a, p_b)
    s_a_k, s_b_k = anchor
    f_val = np.log2((e_a + 1.0) * s_a + k_a) + np.log2((e_b + 1.0) * s_b + k_b)
    g_lin = (math.log2(s_a_k + k_a) + math.log2(s_b_k + k_b)
             + (s_a - s_a_k) / (_LN2 * (s_a_k + k_a))
             + (s_b - s_b_k) / (_LN2 * (s_b_k + k_b)))
    return f_val - g_lin


def dc_step(channels, ctx, p_a, p_b, anchor, config):
    """One convex DC subproblem: maximize the linearized objective over the
    reachable (s_a, s_b) set of the combiner of the one-row ``_TxBatch``
    ``ctx``, at the full budget ``_p_prime``, then rebuild a beamformer
    achieving the point.

    The surrogate is concave and separable enough that the s_a maximizer on
    a slice is a clamped stationary point; the slice search over s_b uses
    the dense-grid + golden 1-D maximizer.  A candidate that does not
    improve the true objective is rejected and the anchor returned.
    """
    (rx_a, rx_b), (na2, nb2) = ctx.rx[0].tolist(), ctx.n2[0].tolist()
    r, n = float(ctx.r[0]), int(ctx.rank[0])
    e_a, e_b, k_a, k_b = _coeffs(*_si2(channels), rx_a, rx_b, p_a, p_b)
    p_prime = _p_prime(config.p_r_max, p_a, p_b, rx_a, rx_b)
    grid_points = config.grid_points
    s_a_k, s_b_k = anchor
    lam_a = 1.0 / (_LN2 * (s_a_k + k_a))
    lam_b = 1.0 / (_LN2 * (s_b_k + k_b))
    s_a_star = s_a_k + k_a * e_a / (e_a + 1.0)  # stationary point of the surrogate
    s_b_top = p_prime * nb2
    top_a = p_prime * na2

    def surrogate(s_b):
        q = np.clip(s_b / s_b_top, 0.0, 1.0)
        lo, hi = boundary_range(r, q, n)
        s_a = np.clip(s_a_star, top_a * lo, top_a * hi)
        return (np.log2((e_a + 1.0) * s_a + k_a) + np.log2((e_b + 1.0) * s_b + k_b)
                - lam_a * s_a - lam_b * s_b)

    if s_b_top > 0:
        s_b_best, _ = maximize_1d(surrogate, 0.0, s_b_top,
                                  tol=max(1e-12, 1e-3 * s_b_top),
                                  grid_points=grid_points)
    else:
        s_b_best = 0.0
    q = min(s_b_best / s_b_top, 1.0) if s_b_top > 0 else 0.0
    lo, hi = boundary_range(r, q, n)
    s_a_best = float(min(max(s_a_star, top_a * lo), top_a * hi))
    f_new = float(_sum_rate_bits(e_a, e_b, k_a, k_b, s_a_best, s_b_best))
    f_old = float(_sum_rate_bits(e_a, e_b, k_a, k_b, s_a_k, s_b_k))
    if f_new < f_old - 1e-12:
        s_a_best, s_b_best = s_a_k, s_b_k
        q = s_b_best / s_b_top if s_b_top > 0 else 0.0
    t = math.sqrt(min(max(s_a_best / top_a, 0.0), 1.0)) if top_a > 0 else 0.0
    z = _row_z(ctx, 0, q, t)
    return s_a_best, s_b_best, math.sqrt(p_prime) * (ctx.n_t[0] @ z)


@functools.cache
def _zoom_grids(points):
    """The level offsets of ``_frontier_argmax``'s grids: [0, 1] itself,
    then for each further grid the offsets from the last best level,
    spaced 2h / (points - 1) on [-h, h] with h the last grid's spacing."""
    grids = [np.linspace(0.0, 1.0, points)]
    h = 1.0 / (points - 1)
    while h > _FRONTIER_TOL:
        grids.append(np.linspace(-h, h, points))
        h = 2.0 * h / (points - 1)
    for grid in grids:
        grid.setflags(write=False)
    return grids


def _frontier_argmax(e_a, e_b, k_a, k_b, top_a, top_b, r, grid_points):
    """Each row's frontier level q in [0, 1] of largest sum rate.

    Zoomed grids, all rows at once: ``grid_points`` levels on [0, 1], then
    as many on [q - h, q + h] (clipped to [0, 1]) around the best level q
    of the last grid, whose spacing is h, until the spacing is at most
    ``_FRONTIER_TOL`` (three grids at 201 points: spacings 5e-3, 5e-5 and
    5e-7).  Returns each row's best level on the last grid; ties go to the
    lowest level.  The last grid holds levels within its spacing of every
    earlier best, so no earlier best is lost by more than the frontier's
    change over that spacing.  The rows run in blocks of at most
    ``_FRONTIER_BLOCK // grid_points``; a row's level does not depend on
    its block.
    """
    block = max(1, _FRONTIER_BLOCK // grid_points)
    if r.shape[0] > block:
        args = (e_a, e_b, k_a, k_b, top_a, top_b, r)
        return np.concatenate([
            _frontier_argmax(*(x[i:i + block] for x in args), grid_points)
            for i in range(0, r.shape[0], block)])
    e_a, e_b, k_a, k_b, top_a, top_b, r = (x[:, None] for x in (e_a, e_b, k_a, k_b,
                                                                top_a, top_b, r))
    rows = np.arange(r.shape[0])
    first, *zooms = _zoom_grids(grid_points)
    qs = first
    for offsets in [None, *zooms]:
        if offsets is not None:
            qs = np.minimum(np.maximum(q[:, None] + offsets, 0.0), 1.0)
        vals = _rate_gain(e_a, e_b, k_a, k_b, top_a * boundary_range(r, qs)[1], qs * top_b)
        i = np.argmax(vals, axis=1)
        q = qs[i] if offsets is None else qs[rows, i]
    return q


def solve_txbf_p2(ctx, p_a, p_b, config, w_t_init=None):
    """Transmit beamformers maximizing the sum rate at fixed powers, for a
    batch of combiners: ``ctx`` is a ``_TxBatch`` with one row per combiner,
    ``p_a``/``p_b`` arrays of its powers and ``w_t_init`` None or the rows'
    warm starts; returns one beamformer per row (K x m_t).

    A rank-1 row's direction is forced and the sum rate is nondecreasing
    in the transmit power, so the full budget is its answer; the other
    rows are solved as a batch of their own.  At rank 2 and up the
    sum rate increases in both quadratic forms, so its maximum over the
    convex reachable (s_a, s_b) set lies on the upper frontier
    s_a = s_a_max(q), q = s_b / s_b_max at full budget; a 1-D search over q
    in [0, 1] therefore solves the inner problem exactly.  The search
    (``_frontier_argmax``) runs zoomed grids over all rows at once, down to
    a spacing of ``_FRONTIER_TOL`` in q.  A row's frontier point is
    returned only when its sum rate exceeds that of its start point (the
    unconstrained-direction cold start, or the warm start when it scores
    higher), so a warm-started row never scores below its warm start.
    ``dc_step`` is the paper's DC iteration over the same set, kept as the
    oracle-tested reference.
    """
    rx_a, rx_b = ctx.rx[:, 0], ctx.rx[:, 1]
    p_prime = _p_prime(config.p_r_max, p_a, p_b, rx_a, rx_b)
    free = np.flatnonzero(ctx.rank > 1)
    if free.size < len(p_prime):  # the rank-1 rows' forced direction at full budget
        w_t = np.sqrt(p_prime)[:, None] * ctx.n_t[:, :, 0]
        if free.size:
            w_t[free] = solve_txbf_p2(ctx.take(free), p_a[free], p_b[free], config,
                                      None if w_t_init is None else w_t_init[free])
        return w_t
    e_a, e_b, k_a, k_b = _coeffs(*ctx.si2.T, rx_a, rx_b, p_a, p_b)
    top = p_prime[:, None] * ctx.n2
    q = _frontier_argmax(e_a, e_b, k_a, k_b, top[:, 0], top[:, 1], ctx.r, config.grid_points)

    # candidates: the start point (z along the null-space image of h_ra, or
    # of h_rb if that is zero), the warm start and the frontier point; the
    # first of the highest scoring wins, so the warm start replaces the
    # start and the frontier point both only when it scores higher
    z = np.zeros((len(p_prime), ctx.d.shape[1], 3), dtype=complex)
    z[:, :, 0] = ctx.d[:, :, 0]
    if not ctx.has[:, 0].all():
        for k in np.flatnonzero(~ctx.has[:, 0]):
            z[k, :, 0] = _row_z(ctx, k, 1.0)
    usable = np.zeros(len(p_prime), dtype=bool)
    if w_t_init is not None:
        zi = (np.conj(ctx.n_t).transpose(0, 2, 1) @ w_t_init[:, :, None])[:, :, 0]
        nz = np.linalg.norm(zi, axis=1)
        usable = nz > 1e-150
        z[:, :, 1] = zi / np.where(usable, nz, 1.0)[:, None]
    z[:, :, 2] = _boundary_z(ctx, q)
    s = p_prime[:, None, None] * np.square(np.abs(ctx.f @ z))  # K x 2 x 3: s_a, s_b
    score = _rate_gain(e_a[:, None], e_b[:, None], k_a[:, None], k_b[:, None], s[:, 0], s[:, 1])
    score[:, 1] = np.where(usable, score[:, 1], -math.inf)
    z_best = z[np.arange(len(p_prime)), :, np.argmax(score, axis=1)]
    return np.sqrt(p_prime)[:, None] * (ctx.n_t @ z_best[:, :, None])[:, :, 0]


def _snap_to_corner(p, p_max):
    """The box bound, 0 or p_max, within ``_CORNER_TOL`` p_max of each power
    of the array p, and NaN where p is near neither."""
    return np.where(np.abs(p - p_max) <= _CORNER_TOL * p_max, p_max,
                    np.where(p <= _CORNER_TOL * p_max, 0.0, np.nan))


def _stationary_points(tx_a, tx_b, rx_a, rx_b, budget, haa2, hbb2):
    """Real roots, K x 2 with NaN for a missing one, of ``solve_power_p2``'s
    stationarity quadratic on the budget curve, for all rows at once.

    The pairs' factors are computed without cancellation:
    a2 (b0 - b1) = a2 tx_a rx_b and e d - h c = -tx_b (rx_b d + h budget).
    With coefficients A x^2 + B x + C, the roots are q/A and C/q for
    q = -(B + sign(B) sqrt(B^2 - 4AC)) / 2, which is free of cancellation
    too.  A leading coefficient at most 1e-12 of the row's largest
    |coefficient| is dropped, leaving a linear equation (root -C/B) or
    none; complex and non-finite roots are NaN.
    """
    a2 = tx_a + 1.0 + haa2 * budget / rx_a
    b1 = -haa2 * rx_b / rx_a
    b0 = b1 + tx_a * rx_b
    d = tx_b + 1.0
    c, e, h = d + tx_b * budget, hbb2 - tx_b * rx_b, hbb2
    pair_a, pair_b = a2 * tx_a * rx_b, -tx_b * (rx_b * d + h * budget)
    quad = np.array([pair_a * e * h + pair_b * b0 * b1,
                     pair_a * (c * h + d * e) + pair_b * a2 * (b0 + b1),
                     pair_a * c * d + pair_b * a2 * a2])
    small = np.abs(quad) <= 1e-12 * np.abs(quad).max(axis=0)
    quad[0, small[0]] = 0.0
    quad[1, small[0] & small[1]] = 0.0
    qa, qb, qc = quad
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * qa * qc), qb))
        roots = np.stack([q / qa, qc / q], axis=1)
    return np.where(np.isfinite(roots), roots, np.nan)


def solve_power_p2(w_t, ctx, config):
    """Source powers maximizing the sum rate at fixed beamformers, for a
    batch of combiners: ``w_t`` holds one beamformer per row of the
    ``_TxBatch`` ``ctx``.  Returns arrays (p_a, p_b, value), value being
    each row's sum rate in ``sinr_pair``'s arithmetic, bit for bit.

    Candidates: the three binary corners, the endpoints of the
    active-budget curve p_a(p_b), and the stationary points on that curve.
    Along the curve p_a rx_a = budget - x rx_b with x = p_b, so
    1 + gamma_a = (a2 + b0 x) / (a2 + b1 x) and
    1 + gamma_b = (c + e x) / (d + h x), with h = |h_bb|^2,
    b1 = -|h_aa|^2 rx_b / rx_a, b0 = b1 + tx_a rx_b,
    a2 = tx_a + 1 + |h_aa|^2 budget / rx_a, d = tx_b + 1,
    c = d + tx_b budget and e = h - tx_b rx_b.  The derivative of the log
    of their product, times the four factors, is
    sum_i s_i b_i prod_{j != i} (a_j + b_j x) with signs s = (+, -, +, -);
    its x^3 coefficient is (1 - 1 + 1 - 1) b0 b1 e h = 0.  Each source's
    two terms share a constant, so the stationary points are the roots of
    the quadratic a2 (b0 - b1)(c + e x)(d + h x)
    + (e d - h c)(a2 + b0 x)(a2 + b1 x) (``_stationary_points``).

    Candidates are scored for all rows at once, and the first best feasible
    one wins.  A winner off the corners that lies within ``_CORNER_TOL`` of
    the power box's size from a corner is that corner: the budget-curve
    arithmetic can land a few ulps inside it, and a fixed point at a corner
    must return the corner's exact powers for the alternation to see it.
    The corner (0, 0) scores 0 and is feasible whenever any candidate is,
    so (0.0, 0.0, 0.0) is returned when no candidate scores higher,
    feasible or not.
    """
    tx_a, tx_b = _abs2(_vdots(ctx.h_t, w_t[:, None, :])).T
    nt2 = _vdots(w_t, w_t).real
    rx_a, rx_b = ctx.rx.T
    haa2, hbb2 = ctx.si2.T
    pa_max, pb_max, pr_max = config.p_a_max, config.p_b_max, config.p_r_max
    k = len(nt2)
    # cap on p_a rx_a + p_b rx_b (inf where w_t is zero)
    if nt2.all():
        budget = pr_max / nt2 - 1.0
    else:
        budget = np.divide(pr_max, nt2, out=np.full(k, math.inf), where=nt2 > 0) - 1.0

    # columns 0-2 are the corners, 3-4 the curve's ends (3 also the
    # candidate of a single receive gain), 5-6 the stationary points; a
    # missing candidate is NaN, which no comparison passes
    live, gain_a, gain_b = budget > 0, rx_a > 1e-300, rx_b > 1e-300
    both = live & gain_a & gain_b
    bud, ra, rb = budget, rx_a, rx_b
    if not both.all():  # the other rows get harmless stand-ins
        bud, ra, rb = np.where(both, bud, 0.0), np.where(both, ra, 1.0), np.where(both, rb, 1.0)
    pa, pb = np.empty((k, 7)), np.empty((k, 7))
    pa[:, :3], pb[:, :3] = (pa_max, pa_max, 0.0), (pb_max, 0.0, pb_max)
    pb[:, 3] = pb_lo = np.maximum(0.0, (bud - ra * pa_max) / rb)
    pb[:, 4] = pb_hi = np.minimum(pb_max, bud / rb)
    curve = both & (pb_lo <= pb_hi + 1e-15)
    # a zero w_t's infinite budget is off the curve
    roots = _stationary_points(tx_a, tx_b, ra, rb, np.where(curve, bud, 0.0), haa2, hbb2)
    inside = curve[:, None] & (pb_lo[:, None] < roots) & (roots < pb_hi[:, None])
    pb[:, 5:] = np.where(inside, roots, np.nan)
    if not curve.all():
        pb[~curve, 3:5] = np.nan
    pa[:, 3:] = (bud[:, None] - pb[:, 3:] * rb[:, None]) / ra[:, None]
    if (live & (gain_a != gain_b)).any():  # a single receive gain: one candidate
        single_a, single_b = live & gain_a & ~gain_b, live & gain_b & ~gain_a
        pa[single_a, 3], pb[single_a, 3] = budget[single_a] / rx_a[single_a], 0.0
        pa[single_b, 3], pb[single_b, 3] = 0.0, budget[single_b] / rx_b[single_b]
    pa = np.minimum(np.maximum(pa, 0.0), pa_max)
    pb = np.minimum(np.maximum(pb, 0.0), pb_max)
    ok = pa * rx_a[:, None] + pb * rx_b[:, None] <= (budget * (1.0 + 1e-12) + 1e-12)[:, None]
    # candidates are ranked by (1 + gamma_a)(1 + gamma_b); the winner's
    # value is recomputed below in sinr_pair's arithmetic
    t_a, t_b, si_a, si_b = (x[:, None] for x in (tx_a, tx_b, haa2, hbb2))
    score = np.where(ok, (1.0 + pb * (tx_a * rx_b)[:, None] / (t_a + pa * si_a + 1.0))
                     * (1.0 + pa * (tx_b * rx_a)[:, None] / (t_b + pb * si_b + 1.0)), -math.inf)
    at = np.arange(k), score.argmax(axis=1)
    p_a, p_b = pa[at], pb[at]
    off = at[1] >= 3
    if off.any():
        snap_a, snap_b = _snap_to_corner(p_a, pa_max), _snap_to_corner(p_b, pb_max)
        snap = off & ~np.isnan(snap_a) & ~np.isnan(snap_b)
        p_a, p_b = np.where(snap, snap_a, p_a), np.where(snap, snap_b, p_b)
    # sinr_pair's arithmetic, elementwise; numpy's log2 may differ from
    # libm's in the last bit, so each winner's logarithms are math.log2's
    win = score[at] > 1.0
    g_a = p_b * tx_a * rx_b / (tx_a + p_a * haa2 + 1.0)
    g_b = p_a * tx_b * rx_a / (tx_b + p_b * hbb2 + 1.0)
    value = np.zeros(k)
    value[win] = [math.log2(a) + math.log2(b)
                  for a, b in zip((1.0 + g_a[win]).tolist(), (1.0 + g_b[win]).tolist())]
    return tuple(np.where(value > 0.0, np.stack([p_a, p_b, value]), 0.0))


def _p2_batch(channels, alpha, combiners, config):
    """``optimize_fixed_alpha_p2`` at the combiners ``alpha`` of the
    realizations ``channels``, whose table rows are ``combiners``."""
    return _alternate_batch(
        channels, alpha, combiners, config, [(config.p_a_max, config.p_b_max)],
        beam=lambda ctx, p_a, p_b, w_t: (solve_txbf_p2(ctx, p_a, p_b, config, w_t), None),
        power=lambda w_t, ctx: (*solve_power_p2(w_t, ctx, config), None))


def optimize_fixed_alpha_p2(channels, alpha, config):
    """Alternate the transmit beamformer and the power rule at each combiner
    of ``alpha`` (``_alternate_batch``), from full source powers.  The
    beamformer solves are warm-started with the previous beamformer, so a
    combiner's sum-rate trace never decreases; it stops when the sum rate
    improves by less than conv_tol, when the power step keeps the powers,
    or at iter_max.  Every combiner is feasible.
    """
    alphas = np.atleast_1d(np.asarray(alpha, dtype=float))
    return _p2_batch([channels] * alphas.size, alpha,
                     _combiner_table(channels)(alphas), config)


def max_sum_rates(realizations, config):
    """``max_sum_rate`` of each realization of a sequence, all searched in
    one lockstep: the grid is one batch of every realization's grid
    combiners and each pair of golden steps one batch of every refining
    realization's three (the step's combiner and the next step's two
    candidates), each batch one ``_TxBatch`` whatever its rows' null
    dimensions.
    The realizations share one ``_combiner_table``; only the winners'
    OperatingPoints are built, and each is the one its realization gets
    alone."""
    table = _combiner_table(*realizations)
    n = len(realizations)

    def evaluate(owners, alphas):
        if owners is None:  # the grid of every realization
            owners, alphas = np.repeat(np.arange(n), alphas.size), np.tile(alphas, n)
        points = _p2_batch([realizations[i] for i in owners.tolist()], alphas,
                           table(alphas, owners), config)
        return points.values, points.point

    return _alpha_search(evaluate, n, config)


def max_sum_rate(channels, config):
    """Best sum-rate operating point over the combiner parameter grid plus
    golden refinement: ``max_sum_rates`` of one realization."""
    [point] = max_sum_rates([channels], config)
    return point
