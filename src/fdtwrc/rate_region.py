"""Rate-region machinery and the pieces that the sum-rate solver shares: the
combiner table (one ZF null-space reduction per receive combiner, for a
batch of combiners), the boundary vector, the alternating loop over the
rows of a batch and the 1-D combiner search.  On top of them: the P1
transmit beamformer and power allocation (the largest feasible p_b on the
line where B's SINR target binds), both in closed form and for all rows
at once, and the boundary sweep over source B's target rate up to its
largest value, which the beamformer's gates give in closed form.

A batch row carries the channel data that the steps read (``_TxBatch``)
and an m_t-column null-space basis, zero past the row's own rank, so one
batch, and one combiner-table call, can hold the combiners of several
channel realizations of both null dimensions: m_t - 1 under ZF, m_t where
the loopback row vanishes (every combiner of a zero-loopback realization).
P1's solver (``_max_rates``) runs one combiner search for all the B
targets of a sequence of realizations in lockstep.  Its rows are
(realization, target, combiner) triples, with B's target per row in the
P1 steps: the grid is one batch of ``alpha_grid`` combiners per target,
whose table rows are built once per realization and taken once per
target, and each pair of golden steps is one batch of the three (the
first time four) combiners of every target still refining.  A row's bits
do not depend on its batch, so each target's answer is the one it gets
alone; ``rate_region`` and ``max_rate_given_rb`` are one-realization cases
of ``rate_regions`` and ``_max_rates``, and the sum-rate search runs the
same lockstep for one objective per realization.  A float alpha is a
batch of one: there is no other code path.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import _combiner_basis, make_operating_point
from .numerics import _norms, _vdots, maximize_1d_lockstep, null_space_basis

__all__ = [
    "Infeasible",
    "boundary_range",
    "solve_txbf_p1",
    "solve_power_p1",
    "optimize_fixed_alpha_p1",
    "max_rate_given_rb",
    "rate_region",
    "rate_regions",
]

_LN2 = math.log(2.0)


class Infeasible(Exception):
    """A solver problem has an empty feasible set.  ``stage`` names what
    failed: 'combiner' (``optimize_fixed_alpha_p1`` at a float alpha found
    no feasible point) or 'alpha_grid' (no combiner on the grid is
    feasible).  The P1 steps return a per-row feasibility mask instead.
    """

    def __init__(self, stage, message=""):
        super().__init__(message or stage)
        self.stage = stage


@dataclass
class _TxBatch:
    """The ZF null-space reduction of K combiners, as arrays with a leading
    axis of length K, the two sources' quantities side by side (A's first).

    w_t = sqrt(budget) n_t z with unit z in the null space.  n_t is
    K x m_t x m_t: a row's orthonormal null-space basis fills its first
    ``rank`` columns (m_t - 1, or m_t where the loopback row vanishes) and
    the others are zero, so every row's products have one width whatever
    the batch holds.  f is K x 2 x m_t with rows a_t^H and b_t^H, the
    null-space images of h_ra and h_rb, so that ``f @ z`` gives both
    images' inner products with z; n2 holds their squared norms (na2, nb2)
    and d (K x m_t x 2) their unit directions as columns (d2, d1).  Images,
    directions and every z built here vanish past the row's rank.  An image
    with squared norm at most 1e-300 has no direction: a zero column of d
    with a False entry in ``has`` and a zero squared norm, so that every
    gate and search reads the same decision.  r = |d2^H d1| and phi its
    argument, both 0 when a direction is missing.  rx holds the receive
    gains (rx_a, rx_b).  Each row also carries its realization's channel
    data that the steps read: h_t (K x 2 x m_t, rows h_ra and h_rb) and si2
    (|h_aa|^2, |h_bb|^2, in the scalar arithmetic of ``sinr_pair``), so the
    rows of one batch may come from different realizations.
    """

    n_t: np.ndarray
    f: np.ndarray
    n2: np.ndarray
    d: np.ndarray
    has: np.ndarray
    r: np.ndarray
    phi: np.ndarray
    rank: np.ndarray
    rx: np.ndarray
    h_t: np.ndarray
    si2: np.ndarray

    def take(self, rows):
        """The batch of the given rows, an array of row indices."""
        return type(self)(**{name: x.take(rows, axis=0) for name, x in vars(self).items()})


@dataclass
class _P1Batch(_TxBatch):
    """A ``_TxBatch`` whose rows also carry B's SINR target, one per row."""

    gamma_b: np.ndarray


def _abs2(z):
    """|z|^2 of each entry of a complex array, in the scalar arithmetic of
    ``receive_gains`` and ``effective_gains`` (abs, then ``** 2``), which
    numpy's array abs and square do not reproduce bit for bit."""
    return np.array([abs(v) ** 2 for v in z.ravel().tolist()]).reshape(z.shape)


def _tx_geometry(h_t, n_t):
    """The images, squared norms, directions, r and phi of a stack of
    null-space bases n_t (K x m_t x m_t), where h_t holds each row's
    m_t x 2 matrix [h_ra, h_rb]; returns those ``_TxBatch`` fields by
    name."""
    images = np.conj(n_t).transpose(0, 2, 1) @ h_t  # K x m_t x 2: a_t, b_t
    n2 = (np.square(images.real) + np.square(images.imag)).sum(axis=1)
    has = n2 > 1e-300
    d = images / np.sqrt(np.where(has, n2, 1.0))[:, None, :] * has[:, None, :]
    inner = (np.conj(d[:, :, 0]) * d[:, :, 1]).sum(axis=1)
    both = has[:, 0] & has[:, 1]
    r = np.minimum(np.abs(inner), 1.0) * both
    phi = np.angle(inner) * both
    return dict(n_t=n_t, f=np.conj(images).transpose(0, 2, 1), n2=n2 * has, d=d, has=has,
                r=r, phi=phi)


def _combiner_table(*realizations):
    """The combiner table of one or more realizations of one config, shared
    by both problems.

    ``table(alphas, owners=None)`` takes a 1-D array of combiner
    parameters, the i-th one of realization ``owners[i]`` (None: all of the
    first), and returns ``(w_r, batch)``: their combiners and their
    ``_TxBatch``, one row each, in order.  A row's null space has rank
    m_t - 1, or m_t where the loopback row w_r^H H_rr vanishes (at every
    combiner of a zero-loopback realization).  This is the one place a
    receive combiner is built: w_r(alpha) = alpha u_par + sqrt(1 - alpha)
    u_perp, rescaled to unit norm, from its realization's two
    ``_combiner_basis`` directions (computed once per table); where h_ar is
    parallel to h_br every alpha gives the alpha = 1 endpoint.  Each
    null-space basis is ``relay_null_basis``'s, from one stacked QR call
    for the ZF rows.  The receive gains have ``receive_gains``'s bits
    (``_vdots``, ``_abs2``), so ``make_operating_point`` recomputes the
    bits that the power step scored.  A row's bits do not depend on the
    other rows of its call.
    """
    k = len(realizations)
    m_t = realizations[0].m_t
    h_ar, h_br, h_ra, h_rb, h_rr = (np.array([getattr(ch, name) for ch in realizations])
                                    for name in ("h_ar", "h_br", "h_ra", "h_rb", "h_rr"))
    # a realization with one direction mixes it with itself; its rows are
    # then set to that direction
    u_par, u_perp, single = _combiner_basis(h_ar, h_br)
    h_t = np.stack([h_ra, h_rb], axis=2)
    rows_h = np.stack([h_ra, h_rb], axis=1)  # the rows h_ra, h_rb
    si2 = _abs2(np.array([(ch.h_aa, ch.h_bb) for ch in realizations]))
    h_r = np.stack([h_ar, h_br], axis=1)
    h_rr_conj = np.conj(h_rr)
    threshold = 1e-12 * np.maximum(1.0, _norms(h_rr.reshape(k, -1)))

    def table(alphas, owners=None):
        if not np.all((alphas >= 0.0) & (alphas <= 1.0)):
            raise ValueError("alpha must lie in [0, 1]")
        owners = np.zeros(alphas.size, dtype=int) if owners is None else owners
        w_r = alphas[:, None] * u_par[owners] + np.sqrt(1.0 - alphas)[:, None] * u_perp[owners]
        w_r /= np.linalg.norm(w_r, axis=1, keepdims=True)
        alone = single[owners]
        if alone.any():
            w_r[alone] = u_par[owners[alone]]
        rx = np.stack([_abs2(_vdots(w_r, h_r[owners, j])) for j in (0, 1)], axis=1)
        v = (w_r[:, None, :] @ h_rr_conj[owners])[:, 0]  # rows v^T with v = H_rr^H w_r
        # the combiners whose loopback row vanishes keep every direction
        vanish = np.linalg.norm(v, axis=1) <= threshold[owners]
        n_t = np.zeros((alphas.size, m_t, m_t), dtype=complex)
        n_t[vanish] = np.eye(m_t)
        if not vanish.all():
            n_t[~vanish, :, :-1] = null_space_basis(v[~vanish, :, None])
        return w_r, _TxBatch(**_tx_geometry(h_t[owners], n_t), rank=m_t - 1 + vanish,
                             rx=rx, h_t=rows_h[owners], si2=si2[owners])

    return table


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
    sqrt(boundary_range(r, q)[1]).  ``_boundary_z``'s special rows and
    ``dc_step``'s points are built here, by ``_row_z``.

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


def _boundary_z(ctx, q):
    """``_null_z``'s boundary vector (t=None) of each row of ``ctx`` at its
    level q in [0, 1]: the rows with both directions and 1 - r^2 >= 1e-10
    at once, in ``_null_z``'s formula, a rank-1 row's one direction, and
    the others by ``_row_z``."""
    one_minus_r2 = 1.0 - ctx.r * ctx.r
    gen = ctx.has[:, 0] & ctx.has[:, 1] & (one_minus_r2 >= 1e-10)
    g = np.sqrt((1.0 - q) / np.where(gen, one_minus_r2, 1.0))
    b = (ctx.r * g - np.sqrt(q)) * np.exp(1j * (math.pi - ctx.phi))
    z = b[:, None] * ctx.d[:, :, 1] + g[:, None] * ctx.d[:, :, 0]
    if gen.all():
        return z / np.linalg.norm(z, axis=1, keepdims=True)
    z[gen] /= np.linalg.norm(z[gen], axis=1, keepdims=True)
    one = ctx.rank == 1
    z[one] = np.eye(z.shape[1])[0]
    for k in np.flatnonzero(~gen & ~one):
        z[k] = _row_z(ctx, k, float(q[k]))
    return z


def _row_z(ctx, k, q, t=None):
    """``_null_z`` at row k of ``ctx``, within its rank: its unit directions
    d1 = d[:, 1] and d2 = d[:, 0] (None where missing) cut to the rank, and
    the answer zero past it."""
    n = int(ctx.rank[k])
    z = np.zeros(ctx.d.shape[1], dtype=complex)
    z[:n] = _null_z(ctx.d[k, :n, 1] if ctx.has[k, 1] else None,
                    ctx.d[k, :n, 0] if ctx.has[k, 0] else None,
                    float(ctx.r[k]), float(ctx.phi[k]), n, q, t)
    return z


def _p1_gates(ctx, p_a, p_b, gamma_b, p_r_max):
    """The two gates of the P1 beamformer at each row of the ``_TxBatch``
    ``ctx``, from the row's receive gains and ||b_t||^2 alone, with B's
    SINR target gamma_b per row (or one float for all rows).  Returns
    (gb_bar, p_bar, ok): B's required transmit gain |h_rb^H w_t|^2 (0 where
    gamma_b <= 0, inf where the SINR gate fails, p_a rx_a <= gamma_b), the
    budget ||w_t||^2 that spends the relay power, and where a beamformer
    meets B's SINR threshold gamma_b: the beam-power gate
    p_bar ||b_t||^2 >= gb_bar.
    """
    rx_a, rx_b = ctx.rx.T
    p_bar = _p_prime(p_r_max, p_a, p_b, rx_a, rx_b)
    margin = p_a * rx_a - gamma_b
    gb_bar = np.divide(gamma_b * (p_b * ctx.si2[:, 1] + 1.0), margin,
                       out=np.full(len(rx_a), math.inf), where=margin > 0.0)
    gb_bar = np.where(np.asarray(gamma_b) > 0.0, gb_bar, 0.0)
    return gb_bar, p_bar, p_bar * ctx.n2[:, 1] >= gb_bar * (1.0 - 1e-12)


def solve_txbf_p1(ctx, p_a, p_b, gamma_b, p_r_max):
    """Transmit beamformers maximizing the gain toward A under the B-SINR
    threshold, the relay power budget (met with equality) and ZF, for a
    batch of combiners: ``ctx`` is a ``_TxBatch`` with one row per
    combiner, ``p_a``/``p_b`` arrays of its powers and ``gamma_b`` B's
    SINR target per row (or one float).  Returns (w_t, ok): one beamformer
    per row (K x m_t) and the rows where ``_p1_gates`` pass; a row that
    fails them holds no answer.  A row's bits do not depend on the others.

    The threshold becomes |b_t^H z|^2 >= gamma_b_bar / p_bar on the unit
    null-space vector z; when the unconstrained maximizer z = d2 misses it
    (or A has no direction), both constraints bind and z is the boundary
    vector at that level.
    """
    gb_bar, p_bar, ok = _p1_gates(ctx, p_a, p_b, gamma_b, p_r_max)
    scale = np.sqrt(p_bar)
    w_t = scale[:, None] * (ctx.n_t @ ctx.d[:, :, :1])[:, :, 0]  # maximizer at full budget
    gb_min = gb_bar * (1.0 - 1e-12)
    bound = ok & ~(ctx.has[:, 0] & (np.square(np.abs(_vdots(ctx.h_t[:, 1], w_t))) >= gb_min))
    rows = bound.nonzero()[0]
    if rows.size:
        sub = ctx if rows.size == len(bound) else ctx.take(rows)
        # q = 1 where no direction reaches A: B's direction has the most slack
        q = np.minimum(np.divide(gb_bar[rows], p_bar[rows] * sub.n2[:, 1], out=np.ones(rows.size),
                                 where=sub.has[:, 0]), 1.0)
        w_t[rows] = scale[rows, None] * (sub.n_t @ _boundary_z(sub, q)[:, :, None])[:, :, 0]
    return w_t, ok


def solve_power_p1(w_t, ctx, gamma_b, config):
    """Source powers maximizing A's SINR subject to B's SINR threshold, the
    relay budget and the power box, in closed form, for a batch of
    combiners: ``w_t`` holds one beamformer per row of the ``_TxBatch``
    ``ctx`` and ``gamma_b`` B's SINR target per row (or one float).  Returns
    arrays (p_a, p_b, gamma_a, ok): the powers, A's SINR there (the
    objective maximized, in ``sinr_pair``'s arithmetic, bit for bit) and
    the rows whose power polygon is not empty; a row outside ``ok`` holds
    no answer.  All rows are solved at once, by elementwise arithmetic, so
    a row's bits do not depend on the others.

    With w_t's gains T_a, T_b and the row's receive gains R_a, R_b, A's
    SINR p_b T_a R_b / (T_a + p_a |h_aa|^2 + 1) never increases in p_a, so
    at each p_b the best p_a is the smallest one that meets B's target:
    p_a = c + k p_b with c = gamma_b (T_b + 1) / (T_b R_a) and
    k = gamma_b |h_bb|^2 / (T_b R_a), both 0 when gamma_b = 0.  Along that
    line the objective is p_b K / (a + b p_b) with K = T_a R_b,
    a = T_a + 1 + c |h_aa|^2 > 0 and b = k |h_aa|^2 >= 0, which increases
    in p_b.  Lowering p_a keeps the box and the relay budget, so the line
    is feasible on an interval of p_b starting at 0, and the optimum is
    its end: the least of p_b_max, the crossing with p_a = p_a_max and the
    crossing with the relay-budget line.  When even p_b = 0 is infeasible
    (or T_b R_a = 0 with gamma_b > 0) the polygon is empty.

    The box and the relay line are met within 1e-9 relative, the line's
    slack scaled by its budget (not by its terms at the box's far corner,
    which can exceed the budget many times over).  The corner p_b_max
    therefore wins whenever it is feasible within that tolerance,
    which matters because the beamformer spends the budget exactly at the
    current powers.  Objective ties, within 1e-12 max(1, value), go to the
    lowest p_a (by more than 1e-12), then the highest p_b.  The polygon's
    lowest p_a is c, at p_b = 0 where A's SINR is 0; so (c, 0, 0.0) is
    returned when the optimum's SINR is below 1e-12 (a combiner orthogonal
    to h_br, say) and its p_a exceeds c by more than 1e-12.
    """
    haa2, hbb2 = ctx.si2.T
    p_a_max, p_b_max = config.p_a_max, config.p_b_max
    p_a_top = p_a_max * (1.0 + 1e-9) + 1e-9
    # sinr_pair's gains T_a, T_b, and ||w_t||^2
    tx_a, tx_b = _abs2(_vdots(ctx.h_t, w_t[:, None, :])).T
    nt2 = _vdots(w_t, w_t).real
    rx_a, rx_b = ctx.rx.T
    den = tx_b * rx_a
    use = (gamma_b > 0.0) & (den > 0.0)
    c = np.divide(gamma_b * (tx_b + 1.0), den, out=np.zeros(len(den)), where=use)
    k = np.divide(gamma_b * hbb2, den, out=np.zeros(len(den)), where=use)
    # relay power: r_a p_a + r_b p_b <= cap
    r_a, r_b, cap = nt2 * rx_a, nt2 * rx_b, config.p_r_max - nt2
    relay_top = cap + 1e-9 * np.maximum(np.abs(cap), 1.0)
    ok = (use | (gamma_b <= 0.0)) & (c <= p_a_top) & (r_a * c <= relay_top)
    p_b = np.full(len(den), p_b_max)
    over = c + k * p_b > p_a_top
    if over.any():
        np.divide(p_a_max - c, k, out=p_b, where=over & ok)
    over = r_a * (c + k * p_b) + r_b * p_b > relay_top
    if over.any():
        np.divide(cap - r_a * c, r_a * k + r_b, out=p_b, where=over & ok)
    p_b = np.minimum(np.maximum(p_b, 0.0), p_b_max)
    p_a = np.minimum(c + k * p_b, p_a_max)
    gamma_a = p_b * tx_a * rx_b / (tx_a + p_a * haa2 + 1.0)
    low = np.minimum(c, p_a_max)
    zero = (gamma_a < 1e-12) & (p_a - low > 1e-12)
    if zero.any():
        p_a = np.where(zero, low, p_a)
        p_b, gamma_a = (np.where(zero, 0.0, x) for x in (p_b, gamma_a))
    if not ok.all():
        p_a, p_b, gamma_a = (np.where(ok, x, 0.0) for x in (p_a, p_b, gamma_a))
    return p_a, p_b, gamma_a, ok


@dataclass
class _Points:
    """The alternation's outcome at a batch of combiners: each one's
    realization, combiner, beamformer, the powers it stopped at, its trace
    and whether it found a feasible point (``ok``).  ``values`` holds each
    trace's last value (-inf at an infeasible combiner), and ``point(i)``
    builds combiner i's OperatingPoint (Infeasible('combiner') at an
    infeasible one)."""

    channels: list
    alphas: np.ndarray
    w_r: np.ndarray
    w_t: np.ndarray
    powers: np.ndarray
    traces: list
    ok: np.ndarray

    @property
    def values(self):
        return np.array([trace[-1] if ok else -math.inf
                         for trace, ok in zip(self.traces, self.ok.tolist())])

    def point(self, i):
        if not self.ok[i]:
            raise Infeasible("combiner", f"no feasible point at alpha = {self.alphas[i]}")
        return make_operating_point(self.channels[i], self.w_t[i], self.w_r[i],
                                    float(self.alphas[i]), float(self.powers[i, 0]),
                                    float(self.powers[i, 1]), self.traces[i])


def _alternate_rows(ctx, config, starts, beam, power):
    """The alternating loop of both problems at every row of the
    ``_TxBatch`` ``ctx``; returns (w_t, powers, ok, traces), one row each.

    ``beam(ctx, p_a, p_b, w_t)`` solves a batch's beamformers at the given
    power arrays (``w_t`` holds the previous ones, None on the first solve)
    and ``power(w_t, ctx)`` is the power step, which returns (p_a, p_b,
    value), value being the objective it maximized.  Each also returns a
    feasibility mask, or None when every row is feasible.

    A row starts from the first power pair of ``starts`` at which its
    beamformer is feasible; a row feasible at none is infeasible.  Each
    iteration runs the power step, traces its value and stops the row when
    the value improves by less than conv_tol or when the step returns
    exactly the powers the beamformer was solved at (the accepted start on
    the first iteration); otherwise the beamformer is re-solved at the new
    powers.  That second stop changes no answer: at the same powers P1's
    beamformer (which ignores its warm start) returns the same bits and
    P2's the same frontier point up to rounding.  A row whose power step is
    infeasible is infeasible.  A row whose re-solved beamformer is
    infeasible stops at its last traced point, which is feasible: the
    powers of its last power step and the beamformer they were scored
    with.  Only the running rows are solved, as one batch.  A row that
    stops keeps its traced powers and the beamformer they were scored
    with; at iter_max it keeps the beamformer re-solved after its last
    traced iteration, so its objective can exceed its last traced value.
    """
    k = len(ctx.rx)
    powers = np.empty((k, 2))
    powers[:] = starts[0]
    w_t, ok = beam(ctx, powers[:, 0], powers[:, 1], None)
    ok = np.ones(k, dtype=bool) if ok is None else ok
    for start in starts[1:]:
        retry = (~ok).nonzero()[0]
        if retry.size:
            powers[retry] = start
            w_t[retry], ok[retry] = beam(ctx.take(retry), powers[retry, 0], powers[retry, 1], None)
    traces = [[] for _ in range(k)]
    rows = ok.nonzero()[0]  # the running rows, with their powers, beamformers and last values
    pa, pb, w, prev = powers[rows, 0], powers[rows, 1], w_t[rows], np.zeros(rows.size)
    if rows.size < k:
        ctx = ctx.take(rows)

    def keep(running):
        # the rows outside the mask ``running`` stop at (pa, pb, w)
        nonlocal rows, ctx, pa, pb, w, prev
        done = rows[~running]
        powers[done, 0], powers[done, 1], w_t[done] = pa[~running], pb[~running], w[~running]
        going = running.nonzero()[0]
        rows, ctx, pa, pb, w, prev = (rows[going], ctx.take(going), pa[going], pb[going],
                                      w[going], prev[going])

    for _ in range(config.iter_max if rows.size else 0):
        p_a, p_b, value, fine = power(w, ctx)
        for row, val in zip(rows.tolist(), value.tolist()):
            traces[row].append(val)
        stop = (value - prev < config.conv_tol) | ((p_a == pa) & (p_b == pb))
        if fine is not None and not fine.all():
            ok[rows] &= fine
            stop |= ~fine
        pa, pb, prev = p_a, p_b, value
        if stop.any():
            keep(~stop)
            if not rows.size:
                break
        w_new, fine = beam(ctx, pa, pb, w)
        if fine is not None and not fine.all():
            keep(fine)
            w_new = w_new[fine]
        w = w_new
    powers[rows, 0], powers[rows, 1], w_t[rows] = pa, pb, w
    return w_t, powers, ok, traces


def _alternate_batch(channels, alpha, combiners, config, starts, beam, power):
    """``_alternate_rows`` at each combiner of ``alpha``, whose table rows
    are ``combiners`` (a ``_combiner_table``'s answer at those combiners)
    and whose realizations are ``channels``, one per combiner.
    An array ``alpha`` gives its ``_Points``; a float is a batch of one and
    gives its OperatingPoint (Infeasible('combiner') if none)."""
    w_r, ctx = combiners
    w_t, powers, ok, traces = _alternate_rows(ctx, config, starts, beam, power)
    points = _Points(channels, np.atleast_1d(np.asarray(alpha, dtype=float)), w_r, w_t, powers,
                     traces, ok)
    return points if np.ndim(alpha) else points.point(0)


def _p1_batch(channels, alpha, gamma_b, combiners, config):
    """``optimize_fixed_alpha_p1`` at the combiners ``alpha`` of the
    realizations ``channels``, whose table rows are ``combiners``, with B's
    SINR target ``gamma_b`` per combiner (an array of alpha's size)."""
    w_r, ctx = combiners
    return _alternate_batch(
        channels, alpha, (w_r, _P1Batch(**vars(ctx), gamma_b=gamma_b)), config,
        [(config.p_a_max, config.p_b_max), (config.p_a_max, 0.0)],
        beam=lambda ctx, p_a, p_b, _: solve_txbf_p1(ctx, p_a, p_b, ctx.gamma_b, config.p_r_max),
        power=lambda w_t, ctx: solve_power_p1(w_t, ctx, ctx.gamma_b, config))


def optimize_fixed_alpha_p1(channels, alpha, gamma_b, config):
    """Alternate the beamformer and power solves at each combiner of
    ``alpha`` (``_alternate_batch``), from full source powers, falling back
    to (p_a_max, 0) where the first beamformer solve is infeasible, all at
    B's SINR target ``gamma_b``.  A combiner stops when A's SINR
    improves by less than conv_tol, when the power step keeps the powers,
    when the re-solved beamformer is infeasible, or at iter_max; its trace
    of SINR values is nondecreasing.
    """
    alphas = np.atleast_1d(np.asarray(alpha, dtype=float))
    return _p1_batch([channels] * alphas.size, alpha, np.full(alphas.size, float(gamma_b)),
                     _combiner_table(channels)(alphas), config)


def _alpha_search(evaluate, n, config):
    """Grid + golden search over the combiner parameter, refined to a width
    of 1e-3, for n objectives in lockstep (``maximize_1d_lockstep``).

    ``evaluate(owners, alphas)`` takes an array of combiner parameters, the
    i-th one for objective ``owners[i]`` (owners None: the grid for every
    objective, objective-major), and returns ``(values, point)``:
    ``values[i]`` is the objective at row i (-inf where infeasible) and
    ``point(i)`` builds its OperatingPoint.  The grid is one call and each
    pair of golden steps one call on the three (the first time four)
    alphas of every objective still refining.  Returns each objective's
    best point, the first one searched among equals, or None where its
    whole grid is infeasible; only those points are built.
    """
    points = {}

    def objective(owners, alphas):
        values, point = evaluate(owners, alphas)
        if owners is None:
            owners, alphas = np.repeat(np.arange(n), alphas.size), np.tile(alphas, n)
        points.update(((k, alpha), (point, i))
                      for i, (k, alpha) in enumerate(zip(owners.tolist(), alphas.tolist())))
        return values

    best = []
    for k, (alpha, value) in enumerate(
            maximize_1d_lockstep(objective, n, 0.0, 1.0, 1e-3, config.alpha_grid, True)):
        point, i = points[k, alpha]
        best.append(None if value == -math.inf else point(i))
    return best


def _grid(table, config, n=1):
    """The rows of ``table``, a ``_combiner_table``, at the combiner
    search's grid of ``alpha_grid`` alphas, for each of its first n
    realizations in turn."""
    alphas = np.linspace(0.0, 1.0, config.alpha_grid)
    return table(np.tile(alphas, n), np.repeat(np.arange(n), alphas.size))


def _gamma_b_max(grid, config):
    """B's largest SINR target at which ``max_rate_given_rb`` succeeds, for
    each realization of ``grid``, the search's grid rows (``_grid``).

    The combiner search yields no point only when every grid combiner is
    infeasible, and ``optimize_fixed_alpha_p1`` finds a combiner infeasible
    only when its first beamformer solve fails ``_p1_gates`` at both start
    powers: past the gates the start beamformer meets B's target, each
    power step keeps a feasible point (up to the solvers' tolerances) and
    a re-solved beamformer that fails the gates leaves the row at its last
    feasible point (``_alternate_rows``).  The gates at (p_a_max, 0)
    dominate those at (p_a_max, p_b_max), and there they pass exactly when
    gamma_b <= p_a_max rx_a s_b / (s_b + 1) with s_b = p_bar ||b_t||^2 and
    p_bar = p_r_max / (p_a_max rx_a + 1): B's SINR when A sends at full
    power, B is silent and the whole relay budget goes on the b_t
    direction.  The result is the largest of these SINRs over a
    realization's grid rows, backed off by 1e-9 relative because the
    gate's margin p_a rx_a - gamma_b cancels near it.
    """
    p_a, (_, ctx) = config.p_a_max, grid
    rx_a, rx_b = ctx.rx[:, 0], ctx.rx[:, 1]
    s_b = _p_prime(config.p_r_max, p_a, 0.0, rx_a, rx_b) * ctx.n2[:, 1]
    best = (p_a * rx_a * s_b / (s_b + 1.0)).reshape(-1, config.alpha_grid).max(axis=1)
    return best * (1.0 - 1e-9)


def _max_rates(realizations, r_bs, config, table, grid):
    """P1's solver: for each realization and each of its B rates
    ``r_bs[i]``, A's best operating point subject to B achieving the rate,
    or None where no grid combiner is feasible.  ``table`` is the
    realizations' ``_combiner_table`` and ``grid`` its grid rows
    (``_grid``).  One combiner search (``_alpha_search``) runs for all
    (realization, target) pairs in lockstep: its rows are (realization,
    target, combiner) triples with B's target per row, so the grid is one
    batch of P1 alternations (``_p1_batch``) on each realization's grid
    rows, taken once per target, and each pair of golden steps one batch
    of every refining pair's combiners.  A target's point does not depend
    on the other targets or realizations.

    B's SINR threshold 2**r_b - 1 is computed with expm1, so a tiny target
    (a weak B link) keeps its relative accuracy.
    """
    if any(r_b < 0 for targets in r_bs for r_b in targets):
        raise ValueError("r_b must be nonnegative")
    gammas = np.array([math.expm1(r_b * _LN2) for targets in r_bs for r_b in targets])
    n = gammas.size
    owner = np.repeat(np.arange(len(r_bs)), [len(targets) for targets in r_bs])

    def evaluate(owners, alphas):
        if owners is None:  # the grid of every target: its realization's grid rows
            g, (w_r, ctx) = alphas.size, grid
            rows = (owner[:, None] * g + np.arange(g)).ravel()
            combiners = w_r[rows], ctx.take(rows)
            owners, alphas = np.repeat(np.arange(n), g), np.tile(alphas, n)
        else:
            combiners = table(alphas, owner[owners])
        points = _p1_batch([realizations[i] for i in owner[owners].tolist()], alphas,
                           gammas[owners], combiners, config)
        return points.values, points.point

    points = iter(_alpha_search(evaluate, n, config))
    return [[next(points) for _ in targets] for targets in r_bs]


def max_rate_given_rb(channels, r_b, config):
    """Best operating point for A subject to B achieving rate r_b:
    ``_max_rates`` at one target, raising Infeasible('alpha_grid') where
    it finds none.
    """
    table = _combiner_table(channels)
    [[point]] = _max_rates([channels], [[r_b]], config, table, _grid(table, config))
    if point is None:
        raise Infeasible("alpha_grid", "no feasible combiner setting on the grid")
    return point


def _sweep_targets(r_b_max, n_points):
    """The boundary sweep's n_points B targets, from 0 to r_b_max."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    return [float(r_b) for r_b in np.linspace(0.0, r_b_max, n_points)]


def _repair(entries):
    """A raw sweep's (target, point-or-None) entries, made monotone by
    carrying dominating higher-target points down.  From the top, each
    point is compared with the last point kept (every higher target's
    point is feasible at a lower target): it is kept when its rate_a
    exceeds that point's by more than 1e-9 of the sweep's largest rate_a,
    or when its rate_b is higher and its rate_a not lower by more than
    1e-12; otherwise it takes that point.  So rate_a values that differ
    only by rounding, which is all they do where A's rate is about zero,
    are decided by rate_b, and the repaired rate_a never rises by more
    than 1e-12 from one target to the next.
    """
    entries = list(entries)
    tol = 1e-9 * max([pt.rate_a for _, pt in entries if pt is not None], default=0.0)
    best = None
    for k in range(len(entries) - 1, -1, -1):
        r_b, pt = entries[k]
        if pt is not None and (best is None or pt.rate_a > best.rate_a + tol or (
                pt.rate_b > best.rate_b and pt.rate_a >= best.rate_a - 1e-12)):
            best = pt
        elif best is not None:
            entries[k] = (r_b, best)
    return entries


def region_sweep(solve_targets, r_b_max, n_points):
    """Generic boundary sweep of one realization.  ``rate_regions`` and
    ``hd_anc_regions`` sweep the same targets and repair the same way, for
    a sequence of realizations at once; this one-realization form is not
    on their path and stays because the perfbench tracer wraps it.

    ``solve_targets(targets)`` returns an OperatingPoint, or None where
    infeasible, for each of a list of B targets; ``r_b_max`` is B's largest
    target, at which it succeeds.  The boundary is sampled at n_points
    targets from 0 to r_b_max, and non-monotone raw sweeps are repaired
    (``_repair``).
    """
    targets = _sweep_targets(r_b_max, n_points)
    return _repair(zip(targets, solve_targets(targets)))


def rate_regions(realizations, n_points, config):
    """``rate_region`` of each realization of a sequence, whose points are
    solved together: the realizations share one ``_combiner_table``, whose
    grid rows are built once, and the points of all of them are one
    lockstep ``_max_rates``.  Each region is the one its realization gets
    alone."""
    table = _combiner_table(*realizations)
    grid = _grid(table, config, len(realizations))
    ends = [math.log1p(gamma) / _LN2 for gamma in _gamma_b_max(grid, config).tolist()]
    targets = [_sweep_targets(end, n_points) for end in ends]
    points = _max_rates(realizations, targets, config, table, grid)
    return [_repair(zip(*pair)) for pair in zip(targets, points)]


def rate_region(channels, n_points, config):
    """Boundary of the achievable (rate_a, rate_b) region as a list of
    (r_b target, OperatingPoint-or-None) pairs, swept from r_b = 0 up to
    B's largest feasible target, log2(1 + ``_gamma_b_max``) (by log1p, which
    keeps a tiny endpoint exact enough for the point solve to meet it), and
    repaired as in ``region_sweep``: ``rate_regions`` of one realization."""
    [entries] = rate_regions([channels], n_points, config)
    return entries
