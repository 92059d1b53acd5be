"""Sum-rate maximization: exact Pareto-frontier transmit beamformer in
reduced coordinates, binary/active-constraint power allocation, the
alternating loop and the 1-D combiner search, all evaluated on batches of
combiners.

Given the combiner and the powers, the objective depends on w_t only through
the two quadratic forms s_a = |h_ra^H w_t|^2 and s_b = |h_rb^H w_t|^2.  The
joint range of two Hermitian forms over the unit sphere is convex
(Hausdorff-Toeplitz) and the sum rate increases in both forms, so its
maximum lies on the upper frontier of that range.  ``solve_txbf_p2`` finds
it by a 1-D search along the frontier and rebuilds a unit vector achieving
the chosen pair in closed form.  ``dc_step`` is the paper's convex DC
subproblem over the same (s_a, s_b) set; it is not on the solver path and
is kept as the reference that the oracle tests check.

The combiner search evaluates its ``alpha_grid`` grid as one batch: the
combiner table (``_combiner_table``), the frontier search, the power step
and the re-solves of the combiners whose powers moved each run as a few
numpy calls over arrays with one row per combiner (``_TxBatch``).  Its
golden refinement evaluates three combiners per call, which serve two
steps.  The power step's stationary points on the relay-budget curve are
the roots of a quadratic, solved for all rows in closed form.  A float
alpha is a batch of one: there is no other code path.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import _combiner_basis, make_operating_point, receive_gains
from .numerics import maximize_1d, null_space_basis
from .rate_region import (
    _LN2,
    _alpha_search,
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

# grid spacing in q at which the frontier search stops
_FRONTIER_TOL = 1e-6
# distance, relative to the power box, within which a power candidate is a
# box corner
_CORNER_TOL = 1e-12


def _rate_gain(e_a, e_b, k_a, k_b, s_a, s_b):
    """(1 + gamma_a)(1 + gamma_b) at the quadratic forms (s_a, s_b): two to
    the sum rate, which searches compare without taking logarithms."""
    return ((1.0 + e_a) * s_a + k_a) / (s_a + k_a) * (((1.0 + e_b) * s_b + k_b) / (s_b + k_b))


def _sum_rate_bits(e_a, e_b, k_a, k_b, s_a, s_b):
    return np.log2(_rate_gain(e_a, e_b, k_a, k_b, s_a, s_b))


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
                                  grid_points=grid_points)
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


@dataclass
class _TxBatch:
    """The ``_TxContext`` of K combiners that share the null dimension n, as
    arrays with a leading axis of length K, the two sources' quantities side
    by side (A's first).

    n_t is K x m_t x n.  f is K x 2 x n with rows a_t^H and b_t^H, so that
    ``f @ z`` gives both images' inner products with z; n2 holds their
    squared norms (na2, nb2) and d (K x n x 2) their unit directions as
    columns (d2, d1).  A missing direction is a zero column of d with a
    False entry in ``has`` and a zero squared norm; r and phi are then 0,
    as in ``_TxContext``.  rx holds the receive gains (rx_a, rx_b).
    """

    n_t: np.ndarray
    f: np.ndarray
    n2: np.ndarray
    d: np.ndarray
    has: np.ndarray
    r: np.ndarray
    phi: np.ndarray
    n: int
    rx: np.ndarray

    def take(self, rows):
        """The batch of the given rows."""
        return _TxBatch(self.n_t[rows], self.f[rows], self.n2[rows], self.d[rows],
                        self.has[rows], self.r[rows], self.phi[rows], self.n, self.rx[rows])


def _tx_geometry(h_t, n_t):
    """``_tx_context``'s images, squared norms, directions, r and phi for a
    stack of null-space bases n_t (K x m_t x n), where h_t is the m_t x 2
    matrix [h_ra, h_rb]; returns the ``_TxBatch`` fields but ``rx``, by name."""
    images = np.conj(n_t).transpose(0, 2, 1) @ h_t  # K x n x 2: a_t, b_t
    n2 = np.sum(np.square(images.real) + np.square(images.imag), axis=1)
    has = n2 > 1e-300
    d = images / np.sqrt(np.where(has, n2, 1.0))[:, None, :] * has[:, None, :]
    inner = np.sum(np.conj(d[:, :, 0]) * d[:, :, 1], axis=1)
    both = has[:, 0] & has[:, 1]
    r = np.minimum(np.abs(inner), 1.0) * both
    phi = np.angle(inner) * both
    return dict(n_t=n_t, f=np.conj(images).transpose(0, 2, 1), n2=n2 * has, d=d, has=has,
                r=r, phi=phi, n=n_t.shape[2])


def _repeat(geo, k):
    """``_tx_geometry`` fields of one basis repeated for k combiners."""
    return geo if k == 1 else {name: x if name == "n" else np.repeat(x, k, axis=0)
                               for name, x in geo.items()}


def _combiner_table(channels):
    """P2's combiner table of one realization.

    ``table(alphas)`` takes a 1-D array of combiner parameters and returns
    ``[(rows, w_r, batch)]``: the combiners ``w_r`` of those rows and their
    ``_TxBatch``, one entry per null dimension (one entry, whose rows are
    None, unless the loopback row w_r^H H_rr vanishes at some of the
    combiners but not all).
    Each combiner is ``receive_combiner``'s mix of ``_combiner_basis``'s two
    directions, which are computed once per table, and each null-space
    basis is ``relay_null_basis``'s, from one stacked QR call.  With a zero
    loopback every basis is the identity, so the images, norms, directions,
    r and phi are computed once per table and only the receive gains per
    combiner.  The receive gains are ``receive_gains``'s, row by row, so a
    point's objective recomputed by ``make_operating_point`` has the bits
    that the power step scored.
    """
    u_par, u_perp = _combiner_basis(channels)
    h_t = np.stack([channels.h_ra, channels.h_rb], axis=1)
    eye = np.eye(channels.m_t, dtype=complex)[None]
    free = None if channels.h_rr.any() else _tx_geometry(h_t, eye)
    h_rr_conj = np.conj(channels.h_rr)
    threshold = 1e-12 * max(1.0, np.linalg.norm(channels.h_rr))

    def table(alphas):
        if not np.all((alphas >= 0.0) & (alphas <= 1.0)):
            raise ValueError("alpha must lie in [0, 1]")
        if u_perp is None:
            w_r = np.repeat(u_par[None], alphas.size, axis=0)
        else:
            w_r = alphas[:, None] * u_par + np.sqrt(1.0 - alphas)[:, None] * u_perp
            w_r /= np.linalg.norm(w_r, axis=1, keepdims=True)
        rx = np.array([receive_gains(channels, w) for w in w_r])
        if free is not None:
            return [(None, w_r, _TxBatch(**_repeat(free, alphas.size), rx=rx))]
        v = (w_r[:, None, :] @ h_rr_conj)[:, 0]  # rows v^T with v = H_rr^H w_r
        vanish = np.linalg.norm(v, axis=1) <= threshold
        if not vanish.any():
            geo = _tx_geometry(h_t, null_space_basis(v[:, :, None]))
            return [(None, w_r, _TxBatch(**geo, rx=rx))]
        groups = []  # the combiners whose loopback row vanishes keep every direction
        for rows in (np.flatnonzero(~vanish), np.flatnonzero(vanish)):
            if rows.size:
                geo = (_repeat(_tx_geometry(h_t, eye), rows.size) if vanish[rows[0]]
                       else _tx_geometry(h_t, null_space_basis(v[rows, :, None])))
                groups.append((rows, w_r[rows], _TxBatch(**geo, rx=rx[rows])))
        return groups

    return table


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
    change over that spacing.
    """
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


def _boundary_z(ctx, q):
    """``_null_z``'s boundary vector (t=None) of each row of ``ctx`` at its
    level q in [0, 1]: the rows with both directions and 1 - r^2 >= 1e-10
    at once, in ``_null_z``'s formula, and the others by ``_null_z``
    itself."""
    one_minus_r2 = 1.0 - ctx.r * ctx.r
    gen = ctx.has[:, 0] & ctx.has[:, 1] & (one_minus_r2 >= 1e-10)
    g = np.sqrt((1.0 - q) / np.where(gen, one_minus_r2, 1.0))
    b = (ctx.r * g - np.sqrt(q)) * np.exp(1j * (math.pi - ctx.phi))
    z = b[:, None] * ctx.d[:, :, 1] + g[:, None] * ctx.d[:, :, 0]
    if gen.all():
        return z / np.linalg.norm(z, axis=1, keepdims=True)
    z[gen] /= np.linalg.norm(z[gen], axis=1, keepdims=True)
    for k in np.flatnonzero(~gen):
        z[k] = _null_z(*_directions(ctx, k), float(ctx.r[k]), float(ctx.phi[k]), ctx.n,
                       float(q[k]))
    return z


def _directions(ctx, k):
    """Row k's (d1, d2) as ``_TxContext`` holds them (None when missing)."""
    return (ctx.d[k, :, 1] if ctx.has[k, 1] else None,
            ctx.d[k, :, 0] if ctx.has[k, 0] else None)


def solve_txbf_p2(channels, ctx, p_a, p_b, config, w_t_init=None):
    """Transmit beamformers maximizing the sum rate at fixed powers, for a
    batch of combiners: ``ctx`` is a ``_TxBatch`` with one row per combiner,
    ``p_a``/``p_b`` arrays of its powers and ``w_t_init`` None or the rows'
    warm starts; returns one beamformer per row (K x m_t).

    Null dimension 1: the direction is forced and the sum rate is
    nondecreasing in the transmit power, so the full budget is the answer.
    Otherwise the sum rate increases in both quadratic forms, so its
    maximum over the convex reachable (s_a, s_b) set lies on the upper
    frontier s_a = s_a_max(q), q = s_b / s_b_max at full budget; a 1-D
    search over q in [0, 1] therefore solves the inner problem exactly.
    The search (``_frontier_argmax``) runs zoomed grids over all rows at
    once, down to a spacing of ``_FRONTIER_TOL`` in q.  A row's frontier
    point is returned only when its sum rate exceeds that of its start
    point (the unconstrained-direction cold start, or the warm start when
    it scores higher), so a warm-started row never scores below its warm
    start.  ``dc_step`` is the paper's DC iteration over the same set,
    kept as the oracle-tested reference.
    """
    rx_a, rx_b = ctx.rx[:, 0], ctx.rx[:, 1]
    p_prime = _p_prime(config.p_r_max, p_a, p_b, rx_a, rx_b)
    if ctx.n == 1:
        return np.sqrt(p_prime)[:, None] * ctx.n_t[:, :, 0]
    e_a, e_b, k_a, k_b = _coeffs(channels, rx_a, rx_b, p_a, p_b)
    top = p_prime[:, None] * ctx.n2
    q = _frontier_argmax(e_a, e_b, k_a, k_b, top[:, 0], top[:, 1], ctx.r, config.grid_points)

    # candidates: the start point (z along the null-space image of h_ra, or
    # of h_rb if that is zero), the warm start and the frontier point; the
    # first of the highest scoring wins, so the warm start replaces the
    # start and the frontier point both only when it scores higher
    z = np.zeros((len(p_prime), ctx.n, 3), dtype=complex)
    z[:, :, 0] = ctx.d[:, :, 0]
    if not ctx.has[:, 0].all():
        for k in np.flatnonzero(~ctx.has[:, 0]):
            z[k, :, 0] = _null_z(_directions(ctx, k)[0], None, 0.0, 0.0, ctx.n, 1.0)
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
    """The box bound, 0 or p_max, within ``_CORNER_TOL`` p_max of the power
    p, or None when p is near neither."""
    if abs(p - p_max) <= _CORNER_TOL * p_max:
        return p_max
    return 0.0 if p <= _CORNER_TOL * p_max else None


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


def solve_power_p2(channels, w_t, ctx, config):
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
    h_ra, h_rb = channels.h_ra, channels.h_rb
    tx_a, tx_b, nt2 = np.array([(abs(np.vdot(h_ra, w)) ** 2, abs(np.vdot(h_rb, w)) ** 2,
                                 np.vdot(w, w).real) for w in w_t]).T
    rx_a, rx_b = ctx.rx.T
    haa2 = abs(channels.h_aa) ** 2
    hbb2 = abs(channels.h_bb) ** 2
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
    rx_a, rx_b, tx_a, tx_b = (x[:, None] for x in (rx_a, rx_b, tx_a, tx_b))
    ok = pa * rx_a + pb * rx_b <= (budget * (1.0 + 1e-12) + 1e-12)[:, None]  # relay budget
    # candidates are ranked by (1 + gamma_a)(1 + gamma_b); the winner's
    # value is recomputed below in sinr_pair's arithmetic
    score = np.where(ok, (1.0 + pb * (tx_a * rx_b) / (tx_a + pa * haa2 + 1.0))
                     * (1.0 + pa * (tx_b * rx_a) / (tx_b + pb * hbb2 + 1.0)), -math.inf)
    out = np.zeros((k, 3))
    for row, (j, s_row, cand_a, cand_b, ta, tb, r_a, r_b) in enumerate(zip(
            score.argmax(axis=1).tolist(), score.tolist(), pa.tolist(), pb.tolist(),
            tx_a[:, 0].tolist(), tx_b[:, 0].tolist(), rx_a[:, 0].tolist(), rx_b[:, 0].tolist())):
        if not s_row[j] > 1.0:
            continue
        p_a, p_b = cand_a[j], cand_b[j]
        if j >= 3:
            snapped = _snap_to_corner(p_a, pa_max), _snap_to_corner(p_b, pb_max)
            if None not in snapped:
                p_a, p_b = snapped
        # sinr_pair's arithmetic
        g_a = p_b * ta * r_b / (ta + p_a * haa2 + 1.0)
        g_b = p_a * tb * r_a / (tb + p_b * hbb2 + 1.0)
        value = math.log2(1.0 + g_a) + math.log2(1.0 + g_b)
        if value > 0.0:
            out[row] = p_a, p_b, value
    return out[:, 0], out[:, 1], out[:, 2]


@dataclass
class _P2Points:
    """``optimize_fixed_alpha_p2``'s outcome at a batch of combiners: each
    one's combiner, beamformer, the powers it stopped at and its trace.
    ``values`` holds each trace's last value, and ``point(i)`` builds
    combiner i's OperatingPoint."""

    channels: object
    alphas: np.ndarray
    w_r: np.ndarray
    w_t: np.ndarray
    powers: np.ndarray
    traces: list

    @property
    def values(self):
        return np.array([trace[-1] for trace in self.traces])

    def point(self, i):
        return make_operating_point(self.channels, self.w_t[i], self.w_r[i],
                                    float(self.alphas[i]), float(self.powers[i, 0]),
                                    float(self.powers[i, 1]), self.traces[i])


def _alternate_rows(channels, ctx, config):
    """The alternating loop at every row of the ``_TxBatch`` ``ctx``, from
    full source powers; returns (w_t, powers, traces), one row each.

    Each row stops on its own when its sum rate improves by less than
    conv_tol, when its power step returns exactly the powers its
    beamformer was solved at, or at iter_max: ``rate_region._alternate``'s
    rules.  The second stop changes no answer, as the beamformer solved
    again at the same powers is the same frontier point up to rounding.
    Only the rows still running are solved at each step, as one batch.  A row that stops keeps its
    traced powers and the beamformer they were scored with; a row that
    hits iter_max keeps the beamformer re-solved after its last traced
    iteration, so its objective can exceed its last traced value.
    """
    k = len(ctx.rx)
    powers = np.empty((k, 2))
    powers[:] = config.p_a_max, config.p_b_max
    w_t = solve_txbf_p2(channels, ctx, powers[:, 0], powers[:, 1], config)
    traces = [[] for _ in range(k)]
    prev = np.zeros(k)
    live, rows = slice(None), list(range(k))  # the running rows
    for _ in range(config.iter_max):
        p_a, p_b, value = solve_power_p2(channels, w_t[live], ctx, config)
        for row, val in zip(rows, value.tolist()):
            traces[row].append(val)
        kept = (p_a == powers[live, 0]) & (p_b == powers[live, 1])
        going = ~((value - prev[live] < config.conv_tol) | kept)
        powers[live, 0], powers[live, 1] = p_a, p_b
        if not going.any():
            break
        if not going.all():
            rows = [row for row, go in zip(rows, going.tolist()) if go]
            live, ctx, value = np.array(rows), ctx.take(going), value[going]
        prev[live] = value
        w_t[live] = solve_txbf_p2(channels, ctx, powers[live, 0], powers[live, 1], config,
                                  w_t_init=w_t[live])
    return w_t, powers, traces


def optimize_fixed_alpha_p2(channels, alpha, config, combiners=None):
    """Alternate the transmit beamformer and the power rule at each combiner
    of a batch.

    ``alpha`` is a 1-D array of combiner parameters, whose combiners come
    from ``combiners``, a ``_combiner_table`` of the realization (None: a
    fresh one); returns their ``_P2Points``.  A float ``alpha`` is a batch
    of one and returns its OperatingPoint.  Each combiner starts at full
    source powers; its beamformer solves are warm-started with the previous
    beamformer, so its recorded sum-rate trace never decreases.  It stops
    when the sum rate improves by less than conv_tol, when the power step
    keeps the powers, or at iter_max (``_alternate_rows``).
    """
    alphas = np.atleast_1d(np.asarray(alpha, dtype=float))
    groups = (combiners or _combiner_table(channels))(alphas)
    if len(groups) == 1:
        _, w_r, ctx = groups[0]
        w_t, powers, traces = _alternate_rows(channels, ctx, config)
    else:
        w_r = np.empty((alphas.size, channels.m_r), dtype=complex)
        w_t = np.empty((alphas.size, channels.m_t), dtype=complex)
        powers, traces = np.empty((alphas.size, 2)), [None] * alphas.size
        for rows, group_w_r, ctx in groups:
            w_r[rows] = group_w_r
            w_t[rows], powers[rows], group_traces = _alternate_rows(channels, ctx, config)
            for row, trace in zip(rows.tolist(), group_traces):
                traces[row] = trace
    points = _P2Points(channels, alphas, w_r, w_t, powers, traces)
    return points if np.ndim(alpha) else points.point(0)


def max_sum_rate(channels, config):
    """Best sum-rate operating point over the combiner parameter grid plus
    golden refinement.  The grid is one batch of ``optimize_fixed_alpha_p2``
    and each pair of golden steps a batch of three (the step's combiner and
    the next step's two candidates), all reading one ``_combiner_table``;
    only the winner's OperatingPoint is built."""
    table = _combiner_table(channels)

    def evaluate(alphas):
        points = optimize_fixed_alpha_p2(channels, alphas, config, table)
        return points.values, points.point

    return _alpha_search(evaluate, config, lookahead=True)
