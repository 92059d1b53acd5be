"""Rate-region machinery: closed-form transmit beamformer, closed-form
power allocation (the largest feasible p_b on the line where B's SINR
target binds), the alternating loop, the 1-D combiner search that the
sum-rate solver shares, and the boundary sweep over source B's target rate
up to its largest value, which the beamformer's gates give in closed form.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    make_operating_point,
    receive_combiner,
    receive_gains,
    relay_null_basis,
)
from .numerics import maximize_1d, null_space_basis

__all__ = [
    "Infeasible",
    "boundary_range",
    "solve_txbf_p1",
    "solve_power_p1",
    "optimize_fixed_alpha_p1",
    "max_rate_given_rb",
    "rate_region",
]

_LN2 = math.log(2.0)


class Infeasible(Exception):
    """A solver subproblem has an empty feasible set.

    ``stage`` names the failing step:

    - 'sinr_gate': source A cannot push enough SINR to B at its current power;
    - 'beam_power_gate': the ZF null space cannot carry the required gain
      within the relay budget;
    - 'power_polygon': empty power-allocation polygon;
    - 'alpha_grid': no combiner setting on the grid is feasible.
    """

    def __init__(self, stage, message=""):
        super().__init__(message or stage)
        self.stage = stage


@dataclass
class _TxContext:
    """ZF null-space reduction of one (channels, w_r) pair, shared by the
    rate-region (P1) and sum-rate (P2) transmit beamformers.

    rx_a/rx_b are the combiner's ``receive_gains``, computed once per
    combiner.  w_t = sqrt(budget) n_t z with unit z; a_t/b_t are the
    null-space images of h_ra/h_rb, na2/nb2 their squared norms and d2/d1
    their unit directions.  An image with squared norm at most 1e-300 has
    no direction: its d is None and its squared norm 0, so every gate and
    search reads the same decision.  r = |d2^H d1| and phi its argument
    (both 0 when a direction is missing); n is the null-space dimension.
    """

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
    rx_a: float
    rx_b: float


def _tx_context(channels, w_r):
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
    return _TxContext(n_t, a_t, b_t, na2 if d2 is not None else 0.0,
                      nb2 if d1 is not None else 0.0, d1, d2, r, phi, n_t.shape[1],
                      *receive_gains(channels, w_r))


def _combiners(channels):
    """One realization's combiner table, alpha -> (w_r, its ``_tx_context``): each
    built on first use, its arrays read-only, as all points at that alpha share them."""
    @functools.cache
    def combiner(alpha):
        w_r = receive_combiner(channels, alpha)
        ctx = _tx_context(channels, w_r)
        for arr in (w_r, ctx.n_t, ctx.a_t, ctx.b_t, ctx.d1, ctx.d2):
            if arr is not None:
                arr.setflags(write=False)
        return w_r, ctx
    return combiner


def _p_prime(p_r_max, p_a, p_b, rx_a, rx_b):
    """Norm-squared budget of w_t that spends the relay power exactly."""
    return p_r_max / (p_a * rx_a + p_b * rx_b + 1.0)


def _orth_to(*vectors):
    """A unit vector orthogonal to the given linearly independent vectors."""
    return null_space_basis(np.stack(vectors, axis=1))[:, 0]


def boundary_range(r, q, null_dim=None):
    """Range (lo, hi) of |d2^H z|^2 over unit z with |d1^H z|^2 = q, r = |d2^H d1|.

    With c = r sqrt(q) and cc = sqrt((1-q)(1-r^2)), hi = (c + cc)^2 (the
    boundary-vector value) and lo = max(0, c - cc)^2; in a two-dimensional
    null space the residual mass is pinned to the (d1, d2) plane and lo is
    (c - cc)^2.  Without ``null_dim`` only hi is computed (lo is None).
    Elementwise for an array q in [0, 1], and for an array r broadcastable
    against it (one r per row of a batch); a float q gives the same bits as
    that element of an array (``np.square``, not the scalar ``** 2``, which
    calls pow).
    """
    c = r * np.sqrt(q)
    cc = np.sqrt((1.0 - q) * np.maximum(0.0, 1.0 - r**2))
    hi = np.square(c + cc)
    if null_dim is None:
        return None, hi
    return np.square((c - cc) if null_dim == 2 else np.maximum(0.0, c - cc)), hi


def _null_z(d1, d2, r, phi, n, q, t=None):
    """Unit z in the n-dimensional null space with |d1^H z|^2 = q and
    |d2^H z| = t; t=None asks for the boundary maximum
    sqrt(boundary_range(r, q)[1]).  The P1 boundary, the P2 frontier and
    ``dc_step``'s points are all built here.

    With cp = sqrt(1 - r^2), e1 = e^{-j phi} d1 and the unit
    e2 = (d2 - r e^{-j phi} d1) / cp orthogonal to d1, d2 = r e1 + cp e2,
    so z = sqrt(q) e1 + m e2 + s e3 (e3 orthogonal to both) has
    |d1^H z|^2 = q and |d2^H z| = |r sqrt(q) + cp m|.  The boundary is
    m = sqrt(1 - q), s = 0, computed as z = (r g - sqrt(q)) e^{j(pi - phi)} d1
    + g d2 with g = sqrt((1 - q) / (1 - r^2)).  Below it a null space of
    dimension >= 3 takes the real m = (t - r sqrt(q)) / cp and puts the rest
    of the mass on e3; in dimension 2 the mass is pinned to the (d1, d2)
    plane and m = sqrt(1 - q) e^{j psi}, whose phase psi sets |d2^H z|.  A
    direction that is None (the caller passes r = phi = 0) is replaced by
    one orthogonal to the other (d1 by the first coordinate vector when
    both are missing).  Collinear directions (1 - r^2 < 1e-10) pin
    |d2^H z| to r sqrt(q), up to sqrt(1 - r^2), and the leftover mass goes
    to a direction orthogonal to d1.  Dimension 1 has one direction, which
    is returned whatever the targets.
    """
    if n == 1:
        return np.ones(1, dtype=complex)
    q = min(max(q, 0.0), 1.0)
    if d1 is None:
        d1 = np.eye(n, dtype=complex)[0] if d2 is None else _orth_to(d2)
    if d2 is None:
        d2 = _orth_to(d1)
    one_minus_r2 = 1.0 - r * r
    if one_minus_r2 < 1e-10:
        z = math.sqrt(q) * cmath.exp(-1j * phi) * d1 + math.sqrt(1.0 - q) * _orth_to(d1)
    elif t is None or t >= math.sqrt(boundary_range(r, q)[1]) - 1e-12:
        g = math.sqrt((1.0 - q) / one_minus_r2)
        b = (r * g - math.sqrt(q)) * cmath.exp(1j * (math.pi - phi))
        z = b * d1 + g * d2
    else:
        cp = math.sqrt(one_minus_r2)
        c = r * math.sqrt(q)
        e2 = (d2 - (r * cmath.exp(-1j * phi)) * d1) / cp
        z = math.sqrt(q) * cmath.exp(-1j * phi) * d1
        if n >= 3:
            m = (t - c) / cp if t >= c else -(c - t) / cp
            m = min(max(m, -math.sqrt(1.0 - q)), math.sqrt(1.0 - q))
            z = z + m * e2 + math.sqrt(max(0.0, 1.0 - q - m * m)) * _orth_to(d1, d2)
        else:
            m = math.sqrt(1.0 - q)
            denom = 2.0 * c * m * cp
            cos_psi = 1.0 if denom <= 1e-300 else (t * t - c * c - (m * cp) ** 2) / denom
            z = z + (m * cmath.exp(1j * math.acos(min(max(cos_psi, -1.0), 1.0)))) * e2
    return z / np.linalg.norm(z)


def _p1_gates(channels, ctx, p_a, p_b, gamma_b, p_r_max):
    """The two gates of the P1 beamformer, from the combiner's receive gains
    and ||b_t||^2 alone (both read from ``ctx``).

    Returns (gb_bar, p_bar): B's required transmit gain |h_rb^H w_t|^2 and
    the budget ||w_t||^2 that spends the relay power.  Raises Infeasible
    ('sinr_gate' or 'beam_power_gate') when no transmit beamformer meets
    B's SINR threshold gamma_b at powers (p_a, p_b).
    """
    if gamma_b <= 0.0:
        gb_bar = 0.0
    else:
        margin = p_a * ctx.rx_a - gamma_b
        if margin <= 0.0:
            raise Infeasible("sinr_gate")
        gb_bar = gamma_b * (p_b * abs(channels.h_bb) ** 2 + 1.0) / margin
    p_bar = _p_prime(p_r_max, p_a, p_b, ctx.rx_a, ctx.rx_b)
    if p_bar * ctx.nb2 < gb_bar * (1.0 - 1e-12):
        raise Infeasible("beam_power_gate")
    return gb_bar, p_bar


def solve_txbf_p1(channels, ctx, p_a, p_b, gamma_b, p_r_max):
    """Transmit beamformer maximizing the gain toward A under the B-SINR
    threshold, the relay power budget (met with equality) and ZF, for the
    combiner whose ``_tx_context`` is ``ctx``.

    The threshold becomes |b_t^H z|^2 >= gamma_b_bar / p_bar on the unit
    null-space vector z; when the unconstrained maximizer z = d2 misses it,
    both constraints bind and z is the boundary vector at that level.
    Raises Infeasible with the failing gate in ``stage``.
    """
    gb_bar, p_bar = _p1_gates(channels, ctx, p_a, p_b, gamma_b, p_r_max)
    scale = math.sqrt(p_bar)
    if ctx.d2 is None:
        q = 1.0  # no direction reaches A: B's direction has the most slack
    else:
        w_t = scale * (ctx.n_t @ ctx.d2)  # unconstrained maximizer at full budget
        if abs(np.vdot(channels.h_rb, w_t)) ** 2 >= gb_bar * (1.0 - 1e-12):
            return w_t
        q = min(gb_bar / (p_bar * ctx.nb2), 1.0)
    return scale * (ctx.n_t @ _null_z(ctx.d1, ctx.d2, ctx.r, ctx.phi, ctx.n, q))


def solve_power_p1(channels, w_t, ctx, gamma_b, config):
    """Source powers maximizing A's SINR subject to B's SINR threshold, the
    relay budget and the power box, in closed form.  Returns (p_a, p_b,
    gamma_a): the powers and A's SINR there, the objective maximized.

    With w_t's gains T_a, T_b and R_a, R_b of the combiner's ``ctx``, A's SINR
    p_b T_a R_b / (T_a + p_a |h_aa|^2 + 1) never increases in p_a, so at
    each p_b the best p_a is the smallest one that meets B's target:
    p_a = c + k p_b with c = gamma_b (T_b + 1) / (T_b R_a) and
    k = gamma_b |h_bb|^2 / (T_b R_a), both 0 when gamma_b = 0.  Along that
    line the objective is p_b K / (a + b p_b) with K = T_a R_b,
    a = T_a + 1 + c |h_aa|^2 > 0 and b = k |h_aa|^2 >= 0, which increases
    in p_b.  Lowering p_a keeps the box and the relay budget, so the line
    is feasible on an interval of p_b starting at 0, and the optimum is
    its end: the least of p_b_max, the crossing with p_a = p_a_max and the
    crossing with the relay-budget line.  When even p_b = 0 is infeasible
    the polygon is empty and Infeasible('power_polygon') is raised.

    The box and the relay line are met within 1e-9 relative.  The corner
    p_b_max therefore wins whenever it is feasible within that tolerance,
    which matters because the beamformer spends the budget exactly at the
    current powers.  Objective ties, within 1e-12 max(1, value), go to the
    lowest p_a (by more than 1e-12), then the highest p_b.  The polygon's
    lowest p_a is c, at p_b = 0 where A's SINR is 0; so (c, 0, 0.0) is
    returned when the optimum's SINR is below 1e-12 (a combiner orthogonal
    to h_br, say) and its p_a exceeds c by more than 1e-12.
    """
    tx_a, tx_b = abs(np.vdot(channels.h_ra, w_t)) ** 2, abs(np.vdot(channels.h_rb, w_t)) ** 2
    p_a_max, p_b_max = config.p_a_max, config.p_b_max
    if gamma_b > 0:
        den = tx_b * ctx.rx_a
        if den <= 0.0:
            raise Infeasible("power_polygon")
        c = gamma_b * (tx_b + 1.0) / den
        k = gamma_b * abs(channels.h_bb) ** 2 / den
    else:
        c = k = 0.0
    # relay power: r_a p_a + r_b p_b <= cap
    nt2 = float(np.vdot(w_t, w_t).real)
    r_a, r_b, cap = nt2 * ctx.rx_a, nt2 * ctx.rx_b, config.p_r_max - nt2
    relay_top = cap + 1e-9 * max(r_a * p_a_max, r_b * p_b_max, abs(cap), 1.0)
    p_a_top = p_a_max * (1.0 + 1e-9) + 1e-9
    if c > p_a_top or r_a * c > relay_top:
        raise Infeasible("power_polygon")
    p_b = p_b_max
    if c + k * p_b > p_a_top:
        p_b = (p_a_max - c) / k
    if r_a * (c + k * p_b) + r_b * p_b > relay_top:
        p_b = (cap - r_a * c) / (r_a * k + r_b)
    p_b = min(max(p_b, 0.0), p_b_max)
    p_a = min(c + k * p_b, p_a_max)
    gamma_a = p_b * tx_a * ctx.rx_b / (tx_a + p_a * abs(channels.h_aa) ** 2 + 1.0)
    if gamma_a < 1e-12 and p_a - min(c, p_a_max) > 1e-12:
        return min(c, p_a_max), 0.0, 0.0
    return p_a, p_b, gamma_a


def _alternate(channels, alpha, combiners, config, starts, beam, power):
    """The alternating loop of P1 for one combiner setting (P2 runs the same
    stop rules on a batch of combiners in ``sum_rate._alternate_rows``).

    The combiner and its context ``ctx`` come from the ``_combiners`` table
    (None: a fresh one).  ``beam(ctx, powers, w_t)`` solves the beamformer at
    the given powers (``w_t`` is the previous one, None on the first solve)
    and may raise Infeasible; ``power(w_t, ctx)`` is the power step, which
    returns (p_a, p_b, value) with value the objective it maximized.
    The first solve uses the first start power it accepts (the last
    start's Infeasible propagates).  Each iteration then runs the power
    step, traces its value and stops when the value improves by less than
    conv_tol or when the step returns exactly the powers the beamformer was
    solved at; otherwise the beamformer is re-solved at the new powers.
    That second stop changes no answer: at the same powers P1's beamformer
    (which ignores its warm start) returns the same bits, so a re-solve
    would only repeat the step.  A point that stops is returned at the
    traced powers and beamformer.  When iter_max is hit the returned
    beamformer is the one re-solved after the last traced iteration, so
    the point's objective can exceed ``trace[-1]``.
    """
    w_r, ctx = (combiners or _combiners(channels))(alpha)
    for powers in starts:
        try:
            w_t = beam(ctx, powers, None)
            break
        except Infeasible:
            if powers is starts[-1]:
                raise
    trace, prev, step = [], 0.0, powers
    for _ in range(config.iter_max):
        *step, val = power(w_t, ctx)
        trace.append(val)
        if val - prev < config.conv_tol or tuple(step) == tuple(powers):
            break
        prev, powers = val, step
        w_t = beam(ctx, powers, w_t)
    return make_operating_point(channels, w_t, w_r, alpha, step[0], step[1], trace)


def optimize_fixed_alpha_p1(channels, alpha, gamma_b, config, combiners=None):
    """Alternate the beamformer and power solves for one combiner setting.

    Starts from full source powers (falling back to (p_a_max, 0) if the
    first beamformer solve is infeasible) and stops when A's SINR improves
    by less than conv_tol, when the power step keeps the powers, or at
    iter_max.  The trace of per-iteration SINR values is nondecreasing.
    """
    return _alternate(
        channels, alpha, combiners, config,
        [(config.p_a_max, config.p_b_max), (config.p_a_max, 0.0)],
        beam=lambda ctx, p, _: solve_txbf_p1(channels, ctx, p[0], p[1], gamma_b, config.p_r_max),
        power=lambda w_t, ctx: solve_power_p1(channels, w_t, ctx, gamma_b, config))


def _alpha_search(evaluate, config, lookahead=False):
    """Grid + golden search over the combiner parameter, refined to a width
    of 1e-3.

    ``evaluate(alphas)`` takes a sequence of combiner parameters and
    returns ``(values, point)``: ``values[i]`` is the objective at
    ``alphas[i]`` (-inf where infeasible) and ``point(i)`` builds its
    OperatingPoint.  The grid is one call on its array, and each golden
    step a call on its one alpha, or with ``lookahead`` a call on an array
    of three alphas that serves two steps (``maximize_1d``).  Only the
    point of the best feasible combiner, the first one searched among
    equals, is built.
    """
    points = {}

    def objective(alphas):
        if isinstance(alphas, float):  # a golden step without lookahead
            values, point = evaluate((alphas,))
            points[alphas] = point, 0
            return values[0]
        values, point = evaluate(alphas)
        points.update((alpha, (point, i)) for i, alpha in enumerate(alphas.tolist()))
        return values

    alpha, value = maximize_1d(objective, 0.0, 1.0, tol=1e-3, grid_points=config.alpha_grid,
                               lookahead=lookahead)
    if value == -math.inf:
        raise Infeasible("alpha_grid", "no feasible combiner setting on the grid")
    point, i = points[alpha]
    return point(i)


def _each(solve):
    """``_alpha_search``'s evaluator from a one-combiner ``solve(alpha)``
    that returns an OperatingPoint or raises Infeasible."""
    def evaluate(alphas):
        points = []
        for alpha in alphas:
            try:
                points.append(solve(float(alpha)))
            except Infeasible:
                points.append(None)
        return [-math.inf if pt is None else pt.trace[-1] for pt in points], points.__getitem__
    return evaluate


def _gamma_b_max(combiners, config):
    """B's largest SINR target at which ``max_rate_given_rb`` succeeds.

    ``_alpha_search`` raises only when every grid combiner raises, and
    ``optimize_fixed_alpha_p1`` raises only when its first beamformer solve
    fails ``_p1_gates`` at both start powers: past the gates the start
    beamformer meets B's target, and each later power and beamformer step
    keeps a feasible point (up to the solvers' tolerances).  The gates at
    (p_a_max, 0) dominate those at (p_a_max, p_b_max), and there they pass
    exactly when gamma_b <= p_a_max rx_a s_b / (s_b + 1) with
    s_b = p_bar ||b_t||^2 and p_bar = p_r_max / (p_a_max rx_a + 1): B's SINR
    when A sends at full power, B is silent and the whole relay budget goes
    on the b_t direction.  The result is the largest of these SINRs over
    the grid combiners of the ``_combiners`` table, backed off by 1e-9
    relative because the gate's margin p_a rx_a - gamma_b cancels near it.
    """
    p_a = config.p_a_max
    best = 0.0
    for alpha in np.linspace(0.0, 1.0, config.alpha_grid):
        _, ctx = combiners(float(alpha))
        s_b = _p_prime(config.p_r_max, p_a, 0.0, ctx.rx_a, ctx.rx_b) * ctx.nb2
        best = max(best, p_a * ctx.rx_a * s_b / (s_b + 1.0))
    return best * (1.0 - 1e-9)


def max_rate_given_rb(channels, r_b, config, combiners=None):
    """Best operating point for A subject to B achieving rate r_b.

    B's SINR threshold 2**r_b - 1 is computed with expm1, so a tiny target
    (a weak B link) keeps its relative accuracy.  ``combiners`` is a ``_combiners``
    table that ``rate_region`` shares (None: built afresh); no answer depends on it.
    """
    if r_b < 0:
        raise ValueError("r_b must be nonnegative")
    gamma_b = math.expm1(r_b * _LN2)
    return _alpha_search(
        _each(lambda a: optimize_fixed_alpha_p1(channels, a, gamma_b, config, combiners)), config)


def region_sweep(solve_targets, r_b_max, n_points):
    """Generic boundary sweep used by the proposed scheme and the baselines.

    ``solve_targets(targets)`` returns an OperatingPoint, or None where
    infeasible, for each of a list of B targets; ``r_b_max`` is B's largest
    target, at which it succeeds.  The boundary is sampled at n_points
    targets from 0 to r_b_max and non-monotone raw sweeps are repaired by
    carrying dominating higher-target points down.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    targets = [float(r_b) for r_b in np.linspace(0.0, r_b_max, n_points)]
    entries = list(zip(targets, solve_targets(targets)))
    # monotone repair: replace points dominated by a higher-target point
    best = None
    for k in range(len(entries) - 1, -1, -1):
        r_b, pt = entries[k]
        if pt is not None and (best is None or pt.rate_a > best.rate_a):
            best = pt
        elif best is not None and (pt is None or pt.rate_a < best.rate_a - 1e-12):
            entries[k] = (r_b, best)
    return entries


def _rate_or_none(channels, r_b, config, combiners):
    try:
        return max_rate_given_rb(channels, r_b, config, combiners=combiners)
    except Infeasible:
        return None


def rate_region(channels, n_points, config):
    """Boundary of the achievable (rate_a, rate_b) region as a list of
    (r_b target, OperatingPoint-or-None) pairs, swept from r_b = 0 up to
    B's largest feasible target, log2(1 + ``_gamma_b_max``) (by log1p, which
    keeps a tiny endpoint exact enough for the point solve to meet it)."""
    combiners = _combiners(channels)
    return region_sweep(
        lambda targets: [_rate_or_none(channels, r_b, config, combiners) for r_b in targets],
        math.log1p(_gamma_b_max(combiners, config)) / _LN2, n_points)
