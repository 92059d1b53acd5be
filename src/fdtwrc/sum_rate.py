"""Sum-rate maximization: exact Pareto-frontier transmit beamformer in
reduced coordinates and binary/active-constraint power allocation, both
for a batch of combiners, run by ``rate_region``'s alternating loop and
1-D combiner search.

Given the combiner and the powers, the objective depends on w_t only through
the two quadratic forms s_a = |h_ra^H w_t|^2 and s_b = |h_rb^H w_t|^2.  The
joint range of two Hermitian forms over the unit sphere is convex
(Hausdorff-Toeplitz) and the sum rate increases in both forms, so its
maximum lies on the upper frontier of that range, along which the sum
rate is concave.  ``solve_txbf_p2`` finds it by one golden-section search
along the frontier, of a fixed step count, and rebuilds a unit vector
achieving the chosen pair in closed form.  ``dc_step`` is the paper's
convex DC subproblem over the same (s_a, s_b) set, on a one-row
``_TxBatch``; it is on no solver path and stays because the benchmark
tracer wraps it and the oracle tests check it (its objective and
surrogate are in the tests' ``reference_dc`` module).

The frontier search, the power step and the re-solves of the combiners
whose powers moved each run over all rows of a ``_TxBatch`` of combiners
at once, whose rows carry their realization's channel data and a
null-space basis of one width whatever their rank, so ``max_sum_rates``
searches the combiners of several realizations, and of their
zero-loopback copies, in one lockstep; the power step's stationary
points on the relay-budget curve are the roots of a quadratic, solved for
all rows in closed form.
"""

import math

import numpy as np

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
    "dc_step",
    "solve_txbf_p2",
    "solve_power_p2",
    "optimize_fixed_alpha_p2",
    "max_sum_rate",
    "max_sum_rates",
]

# golden-section steps of the frontier search: its bracket on t ends at 0.618^36 < 3e-8
_FRONTIER_STEPS = 36
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
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


def _frontier_argmax(e_a, e_b, k_a, k_b, top_a, top_b, r):
    """Each row's frontier level q in [0, 1] of largest sum rate.

    With q = cos^2 b and r = cos theta, the frontier is
    s_a = top_a cos^2(b - theta) (``boundary_range``'s hi) and
    s_b = top_b cos^2 b.  It is the upper boundary of the convex reachable
    (s_a, s_b) set, so s_a is concave in q; L(s) = log(1 + e s / (s + k))
    is concave and nondecreasing, so L_a(s_a(q)) + L_b(top_b q), the sum
    rate along the frontier, is concave in q.  It is therefore unimodal in
    t = tan(b / 2) in [0, 1], along which q = ((1 - t^2) / (1 + t^2))^2
    decreases.  A golden-section search over t (Kiefer 1953), all rows at
    once, keeps a maximizer in its bracket, which shrinks by
    G = (sqrt(5) - 1) / 2 a step: each step scores x = t + d, the mirror of
    the best point t in the bracket, keeps the better of the two, and goes
    on past x (d -> G d) if x scored higher or turns back past t
    (d -> -G d) if not (a tie puts both on the top plateau).  After
    ``_FRONTIER_STEPS`` steps t, or an end t = 0 (q = 1) or t = 1 (q = 0)
    that scores at least as high, is the row's level.  The arithmetic is
    + - x / and sqrt, which are correctly rounded, so a row's level does not
    depend on the other rows of its call (np.cos's SIMD and scalar paths
    may differ).
    """
    # K x 2: A's and B's terms side by side (t, d and f twice), one array op for both
    c0, c1, a, e = (np.stack(pair, axis=1) for pair in (
        (r, np.ones_like(r)), (2.0 * np.sqrt(np.maximum(0.0, 1.0 - r * r)), np.zeros_like(r)),
        (top_a / k_a, top_b / k_b), (1.0 + e_a, 1.0 + e_b)))

    def gain(t):  # _rate_gain at each row's level t, in both columns
        n = (c1 - c0 * t) * t + c0  # (1 + t^2) (cos(b - theta), cos b)
        s, u = a * (n * n), t * t + 1.0
        u *= u
        ratio = (e * s + u) / (s + u)
        return ratio * ratio[:, ::-1]

    t, d = np.full_like(c0, _GOLDEN), np.full_like(c0, 1.0 - 2.0 * _GOLDEN)
    f = gain(t)
    for _ in range(_FRONTIER_STEPS):
        x = t + d
        f_x = gain(x)
        better = f_x > f
        t, f = np.where(better, x, t), np.maximum(f, f_x)
        d = np.where(better, d, -d) * _GOLDEN
    for end in (0.0, 1.0):
        f_end = gain(np.full_like(t, end))
        t, f = np.where(f_end >= f, end, t), np.maximum(f, f_end)
    t = t[:, 0]
    c = (1.0 - t * t) / (1.0 + t * t)
    return c * c


def solve_txbf_p2(ctx, p_a, p_b, config, w_t_init=None):
    """Transmit beamformers maximizing the sum rate at fixed powers, for a
    batch of combiners: ``ctx`` is a ``_TxBatch`` with one row per combiner,
    ``p_a``/``p_b`` arrays of its powers and ``w_t_init`` None or the rows'
    warm starts; returns one beamformer per row (K x m_t).

    The sum rate increases in both quadratic forms, so its maximum over
    the convex reachable (s_a, s_b) set lies on the upper frontier
    s_a = s_a_max(q), q = s_b / s_b_max at full budget, along which it is
    concave in q; ``_frontier_argmax``'s golden-section search along it
    solves the inner problem to rounding, and ``_boundary_z`` builds the
    frontier point (a rank-1 row's one direction).  A warm-started row
    keeps its warm start, at full budget, unless the frontier point scores
    strictly higher, so its sum rate never falls below its warm start's.
    ``dc_step`` is the paper's DC iteration over the same set, kept as the
    oracle-tested reference.
    """
    rx_a, rx_b = ctx.rx[:, 0], ctx.rx[:, 1]
    p_prime = _p_prime(config.p_r_max, p_a, p_b, rx_a, rx_b)
    e_a, e_b, k_a, k_b = _coeffs(*ctx.si2.T, rx_a, rx_b, p_a, p_b)
    top = p_prime[:, None] * ctx.n2
    z = _boundary_z(ctx, _frontier_argmax(e_a, e_b, k_a, k_b, top[:, 0], top[:, 1], ctx.r))
    if w_t_init is not None:
        zi = (np.conj(ctx.n_t).transpose(0, 2, 1) @ w_t_init[:, :, None])[:, :, 0]
        nz = np.linalg.norm(zi, axis=1)
        usable = nz > 1e-150
        zi /= np.where(usable, nz, 1.0)[:, None]
        # K x 2 x 2: s_a, s_b of the warm start and the frontier point
        s = p_prime[:, None, None] * np.square(np.abs(ctx.f @ np.stack([zi, z], axis=2)))
        score = _rate_gain(*(x[:, None] for x in (e_a, e_b, k_a, k_b)), s[:, 0], s[:, 1])
        z = np.where((usable & (score[:, 0] >= score[:, 1]))[:, None], zi, z)
    return np.sqrt(p_prime)[:, None] * (ctx.n_t @ z[:, :, None])[:, :, 0]


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
