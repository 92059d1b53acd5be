"""Sum-rate maximization: exact Pareto-frontier transmit beamformer in
reduced coordinates, binary/active-constraint power allocation, and the
alternating loop with the 1-D combiner search.

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

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import combiner_or_endpoint, make_operating_point, relay_null_basis
from .numerics import maximize_1d, real_cubic_roots
from .rate_region import _alpha_search, boundary_unit_vector

__all__ = [
    "DCState",
    "ReducedCoords",
    "dc_objective",
    "dc_linearized_objective",
    "feasible_set_bounds",
    "dc_step",
    "solve_txbf_p2",
    "solve_power_p2",
    "optimize_fixed_alpha_p2",
    "max_sum_rate",
]

_LN2 = math.log(2.0)
# interval width in q at which the frontier search stops
_FRONTIER_TOL = 1e-6


@dataclass
class DCState:
    """One transmit-beamformer state: quadratic-form values, budget and objective."""

    s_a: float
    s_b: float
    p_prime: float
    f_value: float
    k: int


@dataclass
class ReducedCoords:
    """Coordinates of a unit null-space vector z relative to (d1, d2).

    z = b e^{-j phi} d1 + g e^{j psi} d2 + sqrt(delta2) u0 with real b, g;
    psi is used only when the null space is two-dimensional, delta2 is the
    norm-squared residual carried by a direction orthogonal to span{d1, d2}.
    """

    b: float
    g: float
    psi: float
    delta2: float


def _sum_rate_bits(e_a, e_b, k_a, k_b, s_a, s_b):
    return (np.log2(1.0 + e_a * s_a / (s_a + k_a))
            + np.log2(1.0 + e_b * s_b / (s_b + k_b)))


def _rx_gains(channels, w_r):
    return (abs(np.vdot(w_r, channels.h_ar)) ** 2,
            abs(np.vdot(w_r, channels.h_br)) ** 2)


def _coeffs(channels, w_r, p_a, p_b):
    rx_a, rx_b = _rx_gains(channels, w_r)
    e_a = p_b * rx_b
    e_b = p_a * rx_a
    k_a = p_a * abs(channels.h_aa) ** 2 + 1.0
    k_b = p_b * abs(channels.h_bb) ** 2 + 1.0
    return e_a, e_b, k_a, k_b, rx_a, rx_b


def dc_objective(channels, w_r, p_a, p_b, s_a, s_b):
    """Sum rate as a function of the two quadratic forms of w_t."""
    e_a, e_b, k_a, k_b, _, _ = _coeffs(channels, w_r, p_a, p_b)
    return float(_sum_rate_bits(e_a, e_b, k_a, k_b, s_a, s_b))


def dc_linearized_objective(channels, w_r, p_a, p_b, s_a, s_b, anchor):
    """Concave surrogate: f(s) minus the tangent of g(s) at the anchor.

    g is concave (log of affine), so the tangent over-estimates it and the
    surrogate is a global lower bound of the true objective, tight at the
    anchor; that is what makes the DC iteration monotone.
    """
    e_a, e_b, k_a, k_b, _, _ = _coeffs(channels, w_r, p_a, p_b)
    s_a_k, s_b_k = anchor
    f_val = np.log2((e_a + 1.0) * s_a + k_a) + np.log2((e_b + 1.0) * s_b + k_b)
    g_lin = (math.log2(s_a_k + k_a) + math.log2(s_b_k + k_b)
             + (s_a - s_a_k) / (_LN2 * (s_a_k + k_a))
             + (s_b - s_b_k) / (_LN2 * (s_b_k + k_b)))
    return f_val - g_lin


@dataclass
class _TxContext:
    """Per-(channels, w_r) reduction reused across dc steps."""

    n_t: np.ndarray
    a_t: np.ndarray
    b_t: np.ndarray
    na2: float
    nb2: float
    d1: np.ndarray | None
    d2: np.ndarray | None
    r: float
    phi: float
    n: int


def _tx_context(channels, w_r, n_t=None):
    if n_t is None:
        n_t = relay_null_basis(channels, w_r)
    a_t = n_t.conj().T @ channels.h_ra
    b_t = n_t.conj().T @ channels.h_rb
    na2 = float(np.vdot(a_t, a_t).real)
    nb2 = float(np.vdot(b_t, b_t).real)
    d2 = a_t / math.sqrt(na2) if na2 > 1e-300 else None
    d1 = b_t / math.sqrt(nb2) if nb2 > 1e-300 else None
    if d1 is not None and d2 is not None:
        inner = complex(np.vdot(d2, d1))
        r = min(abs(inner), 1.0)
        phi = cmath.phase(inner) if abs(inner) > 0 else 0.0
    else:
        r, phi = 0.0, 0.0
    return _TxContext(n_t, a_t, b_t, na2, nb2, d1, d2, r, phi, n_t.shape[1])


def _sa_bounds(ctx, p_prime, q, tight_dim2):
    """Reachable range of s_a on the slice |d1^H z|^2 = q.

    The generic bounds are [max(0, c-cc)^2, (c+cc)^2] (scaled); with a
    two-dimensional null space the residual mass is pinned to the d2-plane
    and only [|c-cc|^2, (c+cc)^2] is reachable.
    """
    if ctx.na2 <= 1e-300:
        return 0.0, 0.0
    q = min(max(q, 0.0), 1.0)
    c = ctx.r * math.sqrt(q)
    cc = math.sqrt(max(0.0, (1.0 - q) * (1.0 - ctx.r**2)))
    top = p_prime * ctx.na2
    hi = top * (c + cc) ** 2
    if tight_dim2 and ctx.n == 2:
        lo = top * (c - cc) ** 2
    else:
        lo = top * max(0.0, c - cc) ** 2
    return lo, hi


def feasible_set_bounds(channels, w_r, p_prime, s_b, null_dim=None):
    """Range of s_a compatible with a given s_b under the ZF and budget
    constraints; pass null_dim=2 for the exact two-dimensional range."""
    ctx = _tx_context(channels, w_r)
    s_b_top = p_prime * ctx.nb2
    if s_b < -1e-9 * max(1.0, s_b_top) or s_b > s_b_top * (1.0 + 1e-9) + 1e-12:
        raise ValueError(f"s_b={s_b} outside [0, {s_b_top}]")
    q = s_b / s_b_top if s_b_top > 0 else 0.0
    return _sa_bounds(ctx, p_prime, q, tight_dim2=(null_dim == 2))


def _orth_to(vectors, dim):
    """A unit vector orthogonal to the given (independent-ish) vectors."""
    cols = [v for v in vectors if v is not None]
    if not cols:
        e = np.zeros(dim, dtype=complex)
        e[0] = 1.0
        return e
    m = np.stack(cols, axis=1)
    q, _ = np.linalg.qr(m, mode="complete")
    k = np.linalg.matrix_rank(m, tol=1e-9)
    return q[:, k]


def _reconstruct(ctx, p_prime, q, s_a):
    """Unit z with |d1^H z|^2 = q and |d2^H z|^2 = s_a / (p_prime ||a_t||^2).

    Returns (z, ReducedCoords).  Boundary targets reduce to the closed-form
    boundary vector; interior targets spend the residual mass either on a
    direction orthogonal to span{d1, d2} (null dimension >= 3) or on the
    relative phase psi (dimension 2).
    """
    n = ctx.n
    if n == 1:
        return np.ones(1, dtype=complex), ReducedCoords(0.0, 1.0, 0.0, 0.0)
    q = min(max(q, 0.0), 1.0)
    if ctx.na2 <= 1e-300:
        d1 = ctx.d1 if ctx.d1 is not None else _orth_to([], n)
        u = _orth_to([d1], n)
        z = math.sqrt(q) * d1 + math.sqrt(1.0 - q) * u
        return z, ReducedCoords(math.sqrt(q), 0.0, 0.0, 1.0 - q)
    top_a = p_prime * ctx.na2
    t = math.sqrt(min(max(s_a / top_a, 0.0), 1.0)) if top_a > 0 else 0.0
    if ctx.nb2 <= 1e-300:
        u = _orth_to([ctx.d2], n)
        z = t * ctx.d2 + math.sqrt(max(0.0, 1.0 - t * t)) * u
        return z, ReducedCoords(0.0, t, 0.0, 1.0 - t * t)
    r, phi = ctx.r, ctx.phi
    cp = math.sqrt(max(0.0, 1.0 - r * r))
    c = r * math.sqrt(q)
    cc = math.sqrt(1.0 - q) * cp
    if cp < 1e-8:
        z = boundary_unit_vector(ctx.d1, ctx.d2, q)
        gg = math.sqrt((1.0 - q) / max(1.0 - r * r, 1e-10)) if r < 1.0 else 0.0
        return z, ReducedCoords(math.sqrt(q) - r * gg, gg, 0.0, 0.0)
    if t >= c + cc - 1e-12:
        g = math.sqrt((1.0 - q) / (1.0 - r * r))
        z = boundary_unit_vector(ctx.d1, ctx.d2, q)
        return z, ReducedCoords(math.sqrt(q) - r * g, g, 0.0, 0.0)
    e2 = (ctx.d2 - (r * cmath.exp(-1j * phi)) * ctx.d1) / cp
    sq = math.sqrt(q)
    if n >= 3:
        m = (t - c) / cp if t >= c else -(c - t) / cp
        m = min(max(m, -math.sqrt(1.0 - q)), math.sqrt(1.0 - q))
        delta2 = max(0.0, 1.0 - q - m * m)
        u0 = _orth_to([ctx.d1, ctx.d2], n)
        z = sq * cmath.exp(-1j * phi) * ctx.d1 + m * e2 + math.sqrt(delta2) * u0
        coords = ReducedCoords(sq - r * m / cp, m / cp, 0.0, delta2)
    else:
        m = math.sqrt(1.0 - q)
        denom = 2.0 * c * m * cp
        if denom <= 1e-300:
            cos_psi = 1.0
        else:
            cos_psi = (t * t - c * c - (m * cp) ** 2) / denom
        psi = math.acos(min(max(cos_psi, -1.0), 1.0))
        z = sq * cmath.exp(-1j * phi) * ctx.d1 + (m * cmath.exp(1j * psi)) * e2
        b = math.sqrt(max(0.0, (1.0 - t * t) / (1.0 - r * r)))
        g = math.sqrt(max(0.0, (1.0 - q) / (1.0 - r * r)))
        coords = ReducedCoords(b, g, psi, 0.0)
    nz = np.linalg.norm(z)
    return z / nz, coords


def dc_step(channels, w_r, p_a, p_b, anchor, config, ctx=None, p_prime=None):
    """One convex DC subproblem: maximize the linearized objective over the
    reachable (s_a, s_b) set, then rebuild a beamformer achieving the point.

    The surrogate is concave and separable enough that the s_a maximizer on
    a slice is a clamped stationary point; the slice search over s_b uses
    the dense-grid + golden 1-D maximizer.  A candidate that does not
    improve the true objective is rejected and the anchor returned.
    """
    if ctx is None:
        ctx = _tx_context(channels, w_r)
    e_a, e_b, k_a, k_b, rx_a, rx_b = _coeffs(channels, w_r, p_a, p_b)
    if p_prime is None:
        p_prime = _p_prime(config.p_r_max, p_a, p_b, rx_a, rx_b)
    grid_points = config.grid_points
    s_a_k, s_b_k = anchor
    lam_a = 1.0 / (_LN2 * (s_a_k + k_a))
    lam_b = 1.0 / (_LN2 * (s_b_k + k_b))
    s_a_star = s_a_k + k_a * e_a / (e_a + 1.0)  # stationary point of the surrogate
    s_b_top = p_prime * ctx.nb2
    top_a = p_prime * ctx.na2

    def surrogate(s_b_arr):
        s_b_arr = np.asarray(s_b_arr, dtype=float)
        q = s_b_arr / s_b_top if s_b_top > 0 else np.zeros_like(s_b_arr)
        np.clip(q, 0.0, 1.0, out=q)
        c = ctx.r * np.sqrt(q)
        cc = np.sqrt(np.maximum(0.0, (1.0 - q) * (1.0 - ctx.r**2)))
        hi = top_a * (c + cc) ** 2
        lo = top_a * (c - cc) ** 2 if ctx.n == 2 else top_a * np.maximum(0.0, c - cc) ** 2
        s_a = np.clip(s_a_star, lo, hi)
        val = (np.log2((e_a + 1.0) * s_a + k_a) + np.log2((e_b + 1.0) * s_b_arr + k_b)
               - lam_a * s_a - lam_b * s_b_arr)
        return val

    if s_b_top > 0:
        s_b_best, _ = maximize_1d(surrogate, 0.0, s_b_top,
                                  tol=max(1e-12, 1e-3 * s_b_top),
                                  grid_points=grid_points, vectorized=True)
    else:
        s_b_best = 0.0
    q = s_b_best / s_b_top if s_b_top > 0 else 0.0
    lo, hi = _sa_bounds(ctx, p_prime, q, tight_dim2=True)
    s_a_best = min(max(s_a_star, lo), hi)
    f_new = float(_sum_rate_bits(e_a, e_b, k_a, k_b, s_a_best, s_b_best))
    f_old = float(_sum_rate_bits(e_a, e_b, k_a, k_b, s_a_k, s_b_k))
    if f_new < f_old - 1e-12:
        s_a_best, s_b_best = s_a_k, s_b_k
        q = s_b_best / s_b_top if s_b_top > 0 else 0.0
    z, _ = _reconstruct(ctx, p_prime, q, s_a_best)
    w_t = math.sqrt(p_prime) * (ctx.n_t @ z)
    return s_a_best, s_b_best, w_t


def _p_prime(p_r_max, p_a, p_b, rx_a, rx_b):
    return p_r_max / (p_a * rx_a + p_b * rx_b + 1.0)


def solve_txbf_p2(channels, w_r, p_a, p_b, config, w_t_init=None, ctx=None,
                  return_states=False):
    """Transmit beamformer maximizing the sum rate at fixed powers/combiner.

    Null dimension 1: the direction is forced and only the transmit power
    is searched on (0, budget].  Otherwise the sum rate increases in both
    quadratic forms, so its maximum over the convex reachable (s_a, s_b)
    set lies on the upper frontier s_a = s_a_max(q), q = s_b / s_b_max at
    full budget; a 1-D search over q in [0, 1] therefore solves the inner
    problem exactly.  The result is compared with the start point (the
    unconstrained-direction cold start, or the warm start when it scores
    higher) and the better one is returned, so a warm-started call never
    scores below its warm start.  With ``return_states`` the states are
    ``[start, frontier]`` when the frontier wins and ``[start]`` otherwise.
    ``dc_step`` is the paper's DC iteration over the same set, kept as the
    oracle-tested reference.
    """
    if ctx is None:
        ctx = _tx_context(channels, w_r)
    e_a, e_b, k_a, k_b, rx_a, rx_b = _coeffs(channels, w_r, p_a, p_b)
    p_prime = _p_prime(config.p_r_max, p_a, p_b, rx_a, rx_b)
    ga = ctx.na2  # |n^H h_ra|^2 per unit transmit power, n the forced direction
    gb = ctx.nb2

    if ctx.n == 1:
        def f(pt):
            return _sum_rate_bits(e_a, e_b, k_a, k_b, pt * ga, pt * gb)
        pt_best, _ = maximize_1d(f, 0.0, p_prime, tol=max(1e-12, 1e-6 * p_prime),
                                 grid_points=config.grid_points, vectorized=True)
        w_t = math.sqrt(pt_best) * ctx.n_t[:, 0]
        states = [DCState(pt_best * ga, pt_best * gb, p_prime,
                          float(f(np.array([pt_best]))[0]), 0)]
        return (w_t, states) if return_states else w_t

    def state(z, k):
        s_a = p_prime * abs(np.vdot(ctx.a_t, z)) ** 2
        s_b = p_prime * abs(np.vdot(ctx.b_t, z)) ** 2
        return DCState(s_a, s_b, p_prime,
                       float(_sum_rate_bits(e_a, e_b, k_a, k_b, s_a, s_b)), k)

    # start point: unconstrained direction (z along the null-space image of
    # h_ra, or of h_rb if that is zero), replaced by the warm start when
    # that scores higher
    z_start = (ctx.d2 if ctx.d2 is not None
               else ctx.d1 if ctx.d1 is not None else _orth_to([], ctx.n))
    start = state(z_start, 0)
    if w_t_init is not None:
        zi = ctx.n_t.conj().T @ w_t_init
        nz = np.linalg.norm(zi)
        if nz > 1e-150:
            warm = state(zi / nz, 0)
            if warm.f_value > start.f_value:
                z_start, start = zi / nz, warm

    s_b_top = p_prime * ctx.nb2
    top_a = p_prime * ctx.na2

    def frontier(q):
        c = ctx.r * np.sqrt(q)
        cc = np.sqrt(np.maximum(0.0, (1.0 - q) * (1.0 - ctx.r**2)))
        return _sum_rate_bits(e_a, e_b, k_a, k_b, top_a * (c + cc) ** 2, q * s_b_top)

    q_best, _ = maximize_1d(frontier, 0.0, 1.0, tol=_FRONTIER_TOL,
                            grid_points=config.grid_points, vectorized=True)
    z, _ = _reconstruct(ctx, p_prime, q_best, _sa_bounds(ctx, p_prime, q_best, True)[1])
    front = state(z, 1)
    if front.f_value > start.f_value:
        z_best, states = z, [start, front]
    else:
        z_best, states = z_start, [start]
    w_t = math.sqrt(p_prime) * (ctx.n_t @ z_best)
    return (w_t, states) if return_states else w_t


def _poly_mul(p, q):
    return np.convolve(p, q)


def solve_power_p2(channels, w_t, w_r, config):
    """Source powers maximizing the sum rate at a fixed beamformer.

    Candidates: the binary corners filtered by relay-budget feasibility,
    the endpoints of the active-budget curve p_a(p_b), and the real roots
    of the stationarity condition on that curve (a cubic assembled
    numerically from the derivative of the two rate terms).
    """
    rx_a, rx_b = _rx_gains(channels, w_r)
    tx_a = abs(np.vdot(channels.h_ra, w_t)) ** 2
    tx_b = abs(np.vdot(channels.h_rb, w_t)) ** 2
    haa2 = abs(channels.h_aa) ** 2
    hbb2 = abs(channels.h_bb) ** 2
    nt2 = float(np.vdot(w_t, w_t).real)
    pa_max, pb_max, pr_max = config.p_a_max, config.p_b_max, config.p_r_max
    budget = pr_max / nt2 - 1.0 if nt2 > 0 else math.inf  # cap on p_a rx_a + p_b rx_b

    def feasible(p_a, p_b):
        return p_a * rx_a + p_b * rx_b <= budget * (1.0 + 1e-12) + 1e-12

    def sum_rate(p_a, p_b):
        ga = p_b * tx_a * rx_b / (tx_a + p_a * haa2 + 1.0)
        gb = p_a * tx_b * rx_a / (tx_b + p_b * hbb2 + 1.0)
        return math.log2(1.0 + ga) + math.log2(1.0 + gb)

    cands = [(0.0, 0.0)]
    for c in ((pa_max, pb_max), (pa_max, 0.0), (0.0, pb_max)):
        if feasible(*c):
            cands.append(c)
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
            lins = [(a1, b1), (a2, b2), (a3, b3), (a4, b4)]
            signs = (1.0, -1.0, 1.0, -1.0)
            num = np.zeros(4)
            for i, (sgn, (_, bi)) in enumerate(zip(signs, lins)):
                term = np.array([sgn * bi])
                for j, (aj, bj) in enumerate(lins):
                    if j != i:
                        term = _poly_mul(term, np.array([bj, aj]))  # descending powers
                num[-term.size:] += term
            if np.max(np.abs(num)) > 0:
                for root in real_cubic_roots(*num):
                    if pb_min < root < pb_max_c:
                        cands.append((pa_of(root), root))
    elif budget > 0 and rx_b > 1e-300:
        cands.append((0.0, min(pb_max, budget / rx_b)))
    elif budget > 0 and rx_a > 1e-300:
        cands.append((min(pa_max, budget / rx_a), 0.0))
    best, best_val = (0.0, 0.0), -math.inf
    for p_a, p_b in cands:
        p_a = min(max(p_a, 0.0), pa_max)
        p_b = min(max(p_b, 0.0), pb_max)
        if not feasible(p_a, p_b):
            continue
        val = sum_rate(p_a, p_b)
        if val > best_val:
            best, best_val = (p_a, p_b), val
    return best


def optimize_fixed_alpha_p2(channels, alpha, config, fixed_powers=None):
    """Alternate the transmit beamformer and the power rule for one combiner.

    Starts at full source powers; the beamformer solve is warm-started with
    the previous beamformer so the recorded sum-rate trace never decreases.
    """
    w_r = combiner_or_endpoint(channels, alpha)
    ctx = _tx_context(channels, w_r)
    powers = tuple(fixed_powers) if fixed_powers is not None else (config.p_a_max, config.p_b_max)
    trace = []
    prev = 0.0
    w_t = None
    for _ in range(config.iter_max):
        w_t = solve_txbf_p2(channels, w_r, powers[0], powers[1], config,
                            w_t_init=w_t, ctx=ctx)
        if fixed_powers is None:
            powers = solve_power_p2(channels, w_t, w_r, config)
        val = dc_objective(channels, w_r, powers[0], powers[1],
                           abs(np.vdot(channels.h_ra, w_t)) ** 2,
                           abs(np.vdot(channels.h_rb, w_t)) ** 2)
        trace.append(val)
        if val - prev < config.conv_tol or fixed_powers is not None:
            break
        prev = val
    return make_operating_point(channels, w_t, w_r, alpha, powers[0], powers[1], trace)


def max_sum_rate(channels, config):
    """Best sum-rate operating point over the combiner parameter grid plus
    golden refinement."""
    return _alpha_search(lambda a: optimize_fixed_alpha_p2(channels, a, config), config)
