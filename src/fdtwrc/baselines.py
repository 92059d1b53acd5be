"""Benchmark schemes: two-phase HD analog network coding, two-phase one-way
FD relaying, the no-relay-SI upper bound, and the local-CSI variant.

HD has no self-interference and full fixed powers, so only the relay matrix
is optimized, over its useful subspaces: the benchmark the reported gains
are measured against.  There each HD SINR is a rank-one quotient of
Hermitian forms (``_HdSetup``).  ``hd_anc_solves`` maximizes the HD sum
rate by a Newton ascent; an HD region sweep runs up to B's closed-form
largest SINR and solves every boundary point exactly through a 1-D dual,
all points in one batch.  No HD step is random.  Both HD solvers take a
sequence of realizations and step all of them in one lockstep, each
realization leaving it at its own stop, so each gets its answer alone.

The upper bound runs the proposed solvers on realizations with the relay
loopback zeroed (no ZF restriction, source SI kept), in one lockstep with
the realizations themselves, whose proposed points it falls back on; one-way
FD and local CSI are one stacked computation per sequence of realizations.
"""

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    OperatingPoint,
    PowerAllocation,
    RelayBeamformer,
    make_operating_point,
    zero_loopback,
)
from .numerics import _norms, _vdots
# _alpha_search and max_sum_rate are not called here; they stay bound
# because the perfbench tracer test requires it to wrap these bindings
from .rate_region import (
    _LN2,
    _abs2,
    _alpha_search,
    _combiner_table,
    _p_prime,
    _repair,
    _sweep_targets,
)
from .sum_rate import max_sum_rate, max_sum_rates

__all__ = [
    "SchemeId",
    "parse_scheme",
    "hd_anc_solve",
    "hd_anc_solves",
    "hd_anc_region",
    "hd_anc_regions",
    "fd_oneway_direction_rate",
    "fd_oneway_regions",
    "fd_oneway_sum_rates",
    "upper_bound_solve",
    "upper_bound_solves",
    "local_csi_solves",
    "local_csi_sum_rate",
]


class SchemeId(enum.Enum):
    """The five schemes; each value is the scheme's CLI and table name."""

    PROPOSED_FD = "proposed"
    HD_ANC = "hd"
    FD_ONEWAY = "fd2"
    FD_UPPER_BOUND = "ub"
    LOCAL_CSI = "localcsi"


def parse_scheme(name):
    try:
        return SchemeId(name.strip().lower())
    except ValueError:
        raise ValueError(f"unknown scheme {name!r}; choose from "
                         f"{sorted(s.value for s in SchemeId)}") from None


@dataclass
class _HdSetup:
    """The HD relay optimization of K realizations, reduced to the useful
    subspaces, as arrays with a leading axis of length K.

    Any component of the relay matrix outside span{h_ra, h_rb} (transmit
    side) or span{h_ar, h_br} (receive side) burns power without touching
    either SINR, so the full-matrix optimum is U X V^H with a small X: u
    and v are those orthonormal bases, a_t, b_t the images of h_ra, h_rb
    under u^H and a_r, b_r those of h_ar, h_br under v^H.  Each HD SINR is
    then a rank-one quotient of Hermitian forms in y, the reduced relay
    matrix in relay-power coordinates: vec(X) = k y (row-major vec), X's
    relay power is ||y||^2 and

        gamma_a(y) = p_b p_r |c_a^H y|^2 / y^H (I + p_r t_a) y,

    and gamma_b likewise with a and b (and p_a, p_b) swapped.
    """

    u: np.ndarray
    v: np.ndarray
    a_t: np.ndarray
    b_t: np.ndarray
    a_r: np.ndarray
    b_r: np.ndarray
    k: np.ndarray
    c_a: np.ndarray
    c_b: np.ndarray
    t_a: np.ndarray
    t_b: np.ndarray


def _hd_setup(realizations, config):
    """The ``_HdSetup`` of a sequence of realizations, by stacked QR,
    Cholesky and products, each realization's in the arithmetic of its own.
    Only the four source links enter: HD has neither source SI nor
    loopback.

    Proof of the forms.  ``_hd_gammas`` rescales X to the budget, s = p_r /
    power(X) with power(X) = p_a ||X a_r||^2 + p_b ||X b_r||^2 + ||X||_F^2,
    so gamma_a = p_b |a_t^H X b_r|^2 s / (||X^H a_t||^2 s + 1); multiplying
    through by power(X) / s gives p_b p_r |a_t^H X b_r|^2 /
    (p_r ||X^H a_t||^2 + power(X)).  For x = vec(X), row-major,
    a_t^H X b_r = (a_t kron conj(b_r))^H x, ||X^H a_t||^2 =
    x^H (a_t a_t^H kron I) x and power(X) = x^H (I kron R) x with
    R = I + p_a conj(a_r) a_r^T + p_b conj(b_r) b_r^T.  R = C C^H is
    positive definite, so x = (I kron C^-H) y turns power(X) into ||y||^2
    and the rest into c_a and t_a; B's SINR is the same with a and b
    swapped.  Both denominators are at least ||y||^2 > 0, for p_r = 0 too.
    """
    h_ra, h_rb, h_ar, h_br = (np.array([getattr(ch, name) for ch in realizations])
                              for name in ("h_ra", "h_rb", "h_ar", "h_br"))
    u, _ = np.linalg.qr(np.stack([h_ra, h_rb], axis=2))
    v, _ = np.linalg.qr(np.stack([h_ar, h_br], axis=2))

    def images(q, h):  # q^H h per realization
        return (q.conj().transpose(0, 2, 1) @ h[:, :, None])[:, :, 0]

    a_t, b_t, a_r, b_r = images(u, h_ra), images(u, h_rb), images(v, h_ar), images(v, h_br)
    kt, kr = a_t.shape[1], a_r.shape[1]
    r = (np.eye(kr) + config.p_a_max * (a_r.conj()[:, :, None] * a_r[:, None, :])
         + config.p_b_max * (b_r.conj()[:, :, None] * b_r[:, None, :]))
    k = _kron(np.eye(kt), np.linalg.inv(np.linalg.cholesky(r)).conj().transpose(0, 2, 1))
    k_h = k.conj().transpose(0, 2, 1)

    def transmit_form(t):
        return k_h @ _kron(t[:, :, None] * t.conj()[:, None, :], np.eye(kr)) @ k

    def image(t, s):  # k^H (t kron s)
        return (k_h @ (t[:, :, None] * s[:, None, :]).reshape(len(t), -1, 1))[:, :, 0]

    return _HdSetup(u, v, a_t, b_t, a_r, b_r, k, image(a_t, b_r.conj()), image(b_t, a_r.conj()),
                    transmit_form(a_t), transmit_form(b_t))


def _hd_gammas(x, setup, i, config):
    """Per-phase SINR pair for a batch of reduced relay matrices x of
    realization i of ``setup``, each rescaled to use the full relay power
    budget (scaling up helps both)."""
    p_a, p_b, p_r = config.p_a_max, config.p_b_max, config.p_r_max
    a_t, b_t, a_r, b_r = setup.a_t[i], setup.b_t[i], setup.a_r[i], setup.b_r[i]
    xa = np.einsum("nij,j->ni", x, a_r)
    xb = np.einsum("nij,j->ni", x, b_r)
    power = (p_a * np.sum(np.abs(xa) ** 2, axis=1)
             + p_b * np.sum(np.abs(xb) ** 2, axis=1)
             + np.sum(np.abs(x) ** 2, axis=(1, 2)))
    scale2 = p_r / power
    at_x = np.einsum("i,nij->nj", a_t.conj(), x)  # a_t^H X
    bt_x = np.einsum("i,nij->nj", b_t.conj(), x)
    gamma_a = (p_b * np.abs(np.einsum("nj,j->n", at_x, b_r)) ** 2 * scale2
               / (np.sum(np.abs(at_x) ** 2, axis=1) * scale2 + 1.0))
    gamma_b = (p_a * np.abs(np.einsum("nj,j->n", bt_x, a_r)) ** 2 * scale2
               / (np.sum(np.abs(bt_x) ** 2, axis=1) * scale2 + 1.0))
    return gamma_a, gamma_b, scale2


def _kron(a, b):
    """``np.kron`` of the last two axes of a and b, products alike, for
    stacks."""
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def _hd_gamma_b_max(setup, config):
    """B's largest SINR in each realization of ``setup``, p_a p_r c_b^H
    D_b^-1 c_b with D_b = I + p_r t_b.

    Proof: by Cauchy-Schwarz in the D_b inner product, |c_b^H y|^2 =
    |(D_b^-1 c_b)^H D_b y|^2 <= (c_b^H D_b^-1 c_b)(y^H D_b y), with equality
    at y = D_b^-1 c_b.
    """
    d_b = np.eye(setup.c_b.shape[1]) + config.p_r_max * setup.t_b
    return config.p_a_max * config.p_r_max * _vdots(
        setup.c_b, np.linalg.solve(d_b, setup.c_b[:, :, None])[:, :, 0]).real


def _bloch(h):
    """(h0, h) with w^H h w = h0 + h . r for each 2 x 2 Hermitian matrix
    of a stack, where w w^H = (I + r . sigma) / 2 (sigma: the Pauli
    matrices; unit w in C^2 is a unit r in R^3)."""
    return (0.5 * (h[..., 0, 0] + h[..., 1, 1]).real,
            np.stack([h[..., 0, 1].real, -h[..., 0, 1].imag,
                      0.5 * (h[..., 0, 0] - h[..., 1, 1]).real], axis=-1))


def _norm(v, keepdims=False):
    """``np.linalg.norm(v, axis=-1)``, in its arithmetic, without its
    dispatch."""
    return np.sqrt(np.add.reduce((v.conj() * v).real, axis=-1, keepdims=keepdims))


def _unit(v, fallback):
    """v / |v| along the last axis, ``fallback`` where v = 0."""
    n = _norm(v, keepdims=True)
    return np.where(n > 0.0, v / np.where(n > 0.0, n, 1.0), fallback)


def _best_in_plane(p, q):
    """max w^H p w subject to w^H q w >= 0 over unit w in C^2, for stacks
    of 2 x 2 Hermitian p and q.  Returns (w, value, nu): the maximizer, its
    value (-inf where no unit w meets the constraint) and the constraint's
    multiplier.

    Proof.  In Bloch form (``_bloch``) the problem is max p0 + p . r
    subject to q0 + q . r >= 0 over unit r in R^3.  The map r -> (p . r,
    q . r) has rank at most 2, so the sphere and the ball have the same
    image and |r| <= 1 may replace |r| = 1.  If r = p / |p| meets the
    constraint, it is optimal.  Otherwise the constraint binds (a maximizer
    strictly inside the half-space would be a local, hence the global,
    maximizer over the ball, p / |p|), and on the disk {q . r = -q0,
    |r| <= 1}, centred at a q/|q| with a = -q0 / |q| and of radius
    b = sqrt(1 - a^2), the linear objective peaks at the centre plus b
    times the unit part e of p orthogonal to q (any unit e orthogonal to q
    when p is parallel to q).  The disk is empty when q0 + |q| < 0.  With
    the ball's multiplier kappa = |p_perp| / b, stationarity p + nu q =
    kappa r gives nu = (kappa a - p . q/|q|) / |q|.
    """
    p0, pv = _bloch(p)
    q0, qv = _bloch(q)
    ez = np.array([0.0, 0.0, 1.0])
    qn = _norm(qv)
    q_hat = _unit(qv, ez)
    r_free = _unit(pv, q_hat)
    free = q0 + np.sum(qv * r_free, axis=-1) >= 0.0
    a = np.clip(-q0 / np.where(qn > 0.0, qn, 1.0), -1.0, 1.0)
    perp = pv - np.sum(pv * q_hat, axis=-1, keepdims=True) * q_hat
    # twice: one pass leaves a rounding-sized component along q when p is
    # nearly parallel to q, and that component moves the constraint
    perp = perp - np.sum(perp * q_hat, axis=-1, keepdims=True) * q_hat
    # q_hat x (1, 0, 0) where |q_hat_x| < 0.9, else q_hat x (0, 1, 0), in
    # np.cross's arithmetic
    q_x, q_y, q_z = q_hat[..., 0], q_hat[..., 1], q_hat[..., 2]
    b_x = (np.abs(q_x) < 0.9) + 0.0
    b_y = 1.0 - b_x
    other = np.stack([q_y * 0.0 - q_z * b_y, q_z * b_x - q_x * 0.0,
                      q_x * b_y - q_y * b_x], axis=-1)
    e = _unit(perp, _unit(other, ez))
    b = np.sqrt(1.0 - a * a)
    r = np.where(free[..., None], r_free, a[..., None] * q_hat + b[..., None] * e)
    value = np.where(free | (q0 + qn >= 0.0), p0 + np.sum(pv * r, axis=-1), -np.inf)
    kappa = _norm(perp) / np.where(b > 0.0, b, np.inf)
    nu = np.where(free, 0.0, (kappa * a - np.sum(pv * q_hat, axis=-1))
                  / np.where(qn > 0.0, qn, np.inf))
    # back from r to w, dividing by the larger of 1 + r_z and 1 - r_z
    up = r[..., 2:] >= 0.0
    w = np.where(up, np.stack([1.0 + r[..., 2], r[..., 0] + 1j * r[..., 1]], axis=-1),
                 np.stack([r[..., 0] - 1j * r[..., 1], 1.0 - r[..., 2]], axis=-1))
    return w / np.sqrt(2.0 * (1.0 + np.abs(r[..., 2:]))), value, nu


# step caps of the dual and sum-rate Newton loops, well above the steps
# their convergence tests stop them at
_HD_DUAL_STEPS = 60
_HD_NEWTON_STEPS = 40


def _hd_region_points(setup, config, thresholds):
    """For each SINR threshold t, the y that maximizes gamma_a subject to
    gamma_b >= t, and its gamma_a; (None, -inf) where t exceeds
    ``_hd_gamma_b_max``.  A row's answer does not depend on the others.

    Proof.  Whiten by D_a = I + p_r t_a = L L^H, v = L^H y: gamma_a =
    g_a |alpha^H v|^2 / ||v||^2 and gamma_b = s_b |beta^H v|^2 / v^H G v
    with unit alpha, beta along L^-1 c_a, L^-1 c_b, g_a = p_b p_r
    ||L^-1 c_a||^2, s_b = p_a p_r ||L^-1 c_b||^2 and G = I + p_r L^-1
    (t_b - t_a) L^-H (formed from the difference, so that G keeps its
    accuracy when D_a and D_b are large).  If alpha meets the target it is
    optimal.  Otherwise t > 0 and s_b > 0, and with tau = t / s_b and
    M = beta beta^H - tau G the row is

        max |alpha^H v|^2  subject to  ||v|| = 1,  v^H M v >= 0.

    The joint numerical range {(v^H alpha alpha^H v, v^H M v) : ||v|| = 1}
    is convex (Toeplitz-Hausdorff, for any dimension, 2 included), so the
    Lagrangian dual has no gap: the optimum is min over mu >= 0 of
    g(mu) = lambda_max(alpha alpha^H + mu M), a convex function with
    g'(mu) = v1^H M v1 and g''(mu) = 2 sum_j |vj^H M v1|^2 / (l1 - lj)
    from its eigenpairs (l_j, v_j) where l1 is simple.  It is minimized by
    Newton steps kept inside the bracket that the slopes' signs give
    (bisection inside it, doubling while no slope has been positive),
    from the multiplier of the plane span{alpha, v_b}, v_b = G^-1 beta
    being B's maximizer.  Primal: every step solves the problem exactly on
    the span of the top two eigenvectors (``_best_in_plane``), which at
    mu* holds a maximizer whether l1 is simple (v1, with g' = 0) or double
    (a mix of v1 and v2 with v^H M v = 0 reaches l1); the best such point,
    or v_b, is kept, so every answer is feasible.  A row stops when its
    point is within 1e-13 relative of g(mu), a bound on the optimum by weak
    duality, or when the Newton step stalls.

    ``thresholds`` holds one list of thresholds per realization of
    ``setup``.  The whitening is per realization, and the dual steps of all
    realizations' rows are one batch; a list of (y, gamma_a) pairs is
    returned per realization.
    """
    p_r = config.p_r_max
    n = setup.c_a.shape[1]
    gamma_b_max = _hd_gamma_b_max(setup, config)
    # per realization: (ell_inv, g_a, feasible, its dual rows, v, value);
    # per dual row of all realizations: aa, m, best_v, best, mu
    whites, aa, m, best_v, best, mu = [], [], [], [], [], []
    for i, t in enumerate(thresholds):
        ell_inv = np.linalg.inv(np.linalg.cholesky(np.eye(n) + p_r * setup.t_a[i]))
        a_w, b_w = ell_inv @ setup.c_a[i], ell_inv @ setup.c_b[i]
        alpha, beta = a_w / np.linalg.norm(a_w), b_w / np.linalg.norm(b_w)
        g_a = config.p_b_max * p_r * float(np.vdot(a_w, a_w).real)
        s_b = config.p_a_max * p_r * float(np.vdot(b_w, b_w).real)
        g = np.eye(n) + p_r * (ell_inv @ (setup.t_b[i] - setup.t_a[i]) @ ell_inv.conj().T)
        g = 0.5 * (g + g.conj().T)
        t = np.asarray(t, dtype=float)
        feasible = t <= gamma_b_max[i]
        rows = np.flatnonzero(feasible & (s_b * abs(np.vdot(beta, alpha)) ** 2
                                          < t * np.vdot(alpha, g @ alpha).real))
        whites.append((ell_inv, g_a, feasible, rows, np.tile(alpha, (t.size, 1)),
                       np.where(feasible, 1.0, -np.inf)))
        if not rows.size:
            continue
        aa_k = np.outer(alpha, alpha.conj())
        m_k = np.outer(beta, beta.conj()) - (t[rows] / s_b)[:, None, None] * g
        v_b = np.linalg.solve(g, beta)
        v_b /= np.linalg.norm(v_b)
        plane, _ = np.linalg.qr(np.stack([alpha, v_b], axis=1))
        w, best_k, nu = _best_in_plane(plane.conj().T @ aa_k @ plane,
                                       plane.conj().T @ m_k @ plane)
        at_b = abs(np.vdot(alpha, v_b)) ** 2
        aa.append(np.broadcast_to(aa_k, m_k.shape))
        m.append(m_k)
        best_v.append(np.where((best_k > at_b)[:, None], w @ plane.T, v_b))
        best.append(np.maximum(best_k, at_b))
        mu.append(np.where(nu > 0.0, nu, 1.0))
    if aa:
        aa, m, best_v, best, mu = (np.concatenate(x) for x in (aa, m, best_v, best, mu))
        lo, hi = np.zeros(mu.size), np.full(mu.size, np.inf)
        # the rows still stepping; a row leaves at its own stop
        live, out_v, out_best = np.arange(mu.size), best_v.copy(), best.copy()
        for _ in range(_HD_DUAL_STEPS):
            lam, vec = np.linalg.eigh(aa + mu[:, None, None] * m)
            mv = vec.conj().transpose(0, 2, 1) @ m @ vec
            top2 = vec[:, :, -2:]
            w, val, _ = _best_in_plane(top2.conj().transpose(0, 2, 1) @ aa @ top2,
                                       mv[:, -2:, -2:])
            gain = val > best
            best_v = np.where(gain[:, None], (top2 @ w[:, :, None])[:, :, 0], best_v)
            best = np.where(gain, val, best)
            done = lam[:, -1] - best <= 1e-13 * lam[:, -1]
            slope = mv[:, -1, -1].real
            spread = lam[:, -1:] - lam[:, :-1]
            curv = 2.0 * np.sum(np.abs(mv[:, :-1, -1]) ** 2 / np.maximum(
                spread, 1e-15 * np.abs(lam).max(axis=1, keepdims=True) + 1e-300), axis=1)
            lo = np.where(slope < 0.0, mu, lo)
            hi = np.where(slope < 0.0, hi, mu)
            newton = mu - slope / np.where(curv > 0.0, curv, np.inf)
            step = np.where((lo < newton) & (newton < hi), newton,
                            np.where(np.isfinite(hi), 0.5 * (lo + hi), 2.0 * mu + 1.0))
            done |= np.abs(step - mu) <= 1e-10 * mu
            if done.any():
                out_v[live[done]], out_best[live[done]] = best_v[done], best[done]
                go = ~done
                live, aa, m, best_v, best, lo, hi, step = (
                    x[go] for x in (live, aa, m, best_v, best, lo, hi, step))
                if not live.size:
                    break
            mu = step
        out_v[live], out_best[live] = best_v, best
        best_v, best = out_v, out_best
    out, start = [], 0
    for ell_inv, g_a, feasible, rows, v, value in whites:
        if rows.size:
            v[rows], value[rows] = best_v[start:start + rows.size], best[start:start + rows.size]
            start += rows.size
        y = v @ ell_inv.conj()  # rows of L^-H v
        out.append([(None, -math.inf) if not ok else (y_k, g_a * val)
                    for ok, y_k, val in zip(feasible, y, value)])
    return out


def _hd_real(h):
    """The real 2n x 2n form of (a stack of) complex n x n matrices."""
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


def _hd_max_sum_rates(setup, config):
    """For each realization of ``setup``, a y that maximizes ln(1 + gamma_a) +
    ln(1 + gamma_b), and that value.

    Newton ascent in real coordinates z = (Re y, Im y), from six starts in
    lockstep: D_a^-1 c_a and D_b^-1 c_b (each SINR's own maximizer, by
    ``_hd_gamma_b_max``'s argument) and their four unit-phase sums
    y_a + i^j y_b (unit y_a, y_b).  Each SINR is a quotient N / D of
    quadratic forms in z, so, with gamma' = 2 (N z - gamma D z) / (z^T D z),
    its Hessian is (2 N - 2 gamma D - gamma' (2 D z)^T - (2 D z) gamma'^T) /
    (z^T D z), and those of ln(1 + gamma) follow by the chain rule.  The
    objective is constant along z (scale) and J z (phase, y -> i y), so
    both directions are projected out of the gradient and Hessian; the step
    divides each remaining Hessian eigendirection's gradient component by
    the eigenvalue's magnitude (the Newton step where the Hessian is
    negative definite, an ascent direction elsewhere).  A start moves to the
    best of the step scaled by 1, 1/2, ..., 1/2048 only if that raises its
    objective, so each start's value never falls; a realization stops when
    each of its starts' Newton decrement is below 1e-14 relative.  The
    problem is not concave, so this is a local method: the starts cover
    both single-user optima and the phases between them.

    All realizations' starts step in one lockstep, their (N, D) pairs
    stacked K x 2n x 2n; a realization leaves it at its own stop, so its
    answer does not depend on the others.
    """
    c_a, c_b = setup.c_a, setup.c_b
    n = c_a.shape[1]
    p_r = config.p_r_max
    eye = np.eye(n)
    d_a, d_b = eye + p_r * setup.t_a, eye + p_r * setup.t_b
    # (N, D) of each SINR, K x 2n x 2n each
    pairs = [(_hd_real(config.p_b_max * p_r * (c_a[:, :, None] * c_a.conj()[:, None, :])),
              _hd_real(d_a)),
             (_hd_real(config.p_a_max * p_r * (c_b[:, :, None] * c_b.conj()[:, None, :])),
              _hd_real(d_b))]
    y_a, y_b = [], []
    for k in range(len(c_a)):
        ya, yb = np.linalg.solve(d_a[k], c_a[k]), np.linalg.solve(d_b[k], c_b[k])
        y_a.append(ya / np.linalg.norm(ya))
        y_b.append(yb / np.linalg.norm(yb))
    y_a, y_b = np.array(y_a)[:, None], np.array(y_b)[:, None]
    y = _unit(np.concatenate([y_a, y_b] + [y_a + 1j ** j * y_b for j in range(4)], axis=1), y_a)
    z = np.concatenate([y.real, y.imag], axis=-1)  # K x 6 x 2n
    turn = _hd_real(1j * eye)
    eye2 = np.eye(2 * n)
    ladder = 0.5 ** np.arange(12)

    def quotients(z, pairs):
        # per SINR: z N, z D, z^T N z and z^T D z, for z of shape K x ... x 2n
        at = (slice(None),) + (None,) * (z.ndim - 3)
        out = []
        for num, den in pairs:
            zn, zd = z @ num[at], z @ den[at]
            out.append((zn, zd, (z * zn).sum(axis=-1), (z * zd).sum(axis=-1)))
        return out

    def objective(z, pairs):
        return sum(np.log1p(nz / dz) for _, _, nz, dz in quotients(z, pairs))

    f = objective(z, pairs)
    # the realizations still stepping, and everyone's final starts
    live, z_out, f_out = np.arange(len(c_a)), z.copy(), f.copy()
    for _ in range(_HD_NEWTON_STEPS):
        grad = np.zeros_like(z)
        hess = np.zeros(z.shape + (2 * n,))
        for (zn, zd, nz, dz), (num, den) in zip(quotients(z, pairs), pairs):
            gamma = (nz / dz)[..., None]
            dg = 2.0 * (zn - gamma * zd) / dz[..., None]
            d2g = (2.0 * num[:, None] - 2.0 * gamma[..., None] * den[:, None]
                   - 2.0 * dg[..., :, None] * zd[..., None, :]
                   - 2.0 * zd[..., :, None] * dg[..., None, :]) / dz[..., None, None]
            g1 = 1.0 + gamma
            grad += dg / g1
            hess += d2g / g1[..., None] - dg[..., :, None] * dg[..., None, :] / g1[..., None] ** 2
        jz = z @ turn.T
        proj = eye2 - z[..., :, None] * z[..., None, :] - jz[..., :, None] * jz[..., None, :]
        grad = (proj @ grad[..., None])[..., 0]
        lam, vec = np.linalg.eigh(proj @ hess @ proj)
        floor = 1e-12 * np.abs(lam).max(axis=-1, keepdims=True) + 1e-300
        coef = (grad[..., None, :] @ vec)[..., 0, :] / np.maximum(np.abs(lam), floor)
        d = (vec @ coef[..., None])[..., 0]
        stop = ((grad * d).sum(axis=-1) <= 1e-14 * (1.0 + f)).all(axis=1)
        if stop.any():
            z_out[live[stop]], f_out[live[stop]] = z[stop], f[stop]
            go = ~stop
            live, z, f, d = live[go], z[go], f[go], d[go]
            pairs = [(num[go], den[go]) for num, den in pairs]
            if not live.size:
                break
        cand = _unit(z[..., None, :] + ladder[:, None] * d[..., None, :], z[..., None, :])
        # each start's best rung
        f_cand = objective(cand, pairs).reshape(-1, ladder.size)
        cand = cand.reshape(-1, ladder.size, 2 * n)
        rows, pick = np.arange(f.size), f_cand.argmax(axis=1)
        f_pick = f_cand[rows, pick].reshape(f.shape)
        rise = f_pick > f
        z = np.where(rise[..., None], cand[rows, pick].reshape(z.shape), z)
        f = np.where(rise, f_pick, f)
    z_out[live], f_out[live] = z, f
    return [(zk[best, :n] + 1j * zk[best, n:], float(fk[best]))
            for zk, fk, best in zip(z_out, f_out, np.argmax(f_out, axis=1).tolist())]


def _hd_point(y, setup, i, config, trace_value):
    """The OperatingPoint of reduced relay matrix y in relay-power
    coordinates in realization i of ``setup``; its beamformer carries the
    full relay matrix w_full only."""
    x = (setup.k[i] @ y).reshape(setup.a_t.shape[1], setup.a_r.shape[1])
    gamma_a, gamma_b, scale2 = _hd_gammas(x[None], setup, i, config)
    gamma_a, gamma_b = float(gamma_a[0]), float(gamma_b[0])
    w_full = math.sqrt(float(scale2[0])) * (setup.u[i] @ x @ setup.v[i].conj().T)
    return OperatingPoint(
        beamformer=RelayBeamformer(w_t=None, w_r=None, alpha=math.nan, w_full=w_full),
        powers=PowerAllocation(p_a=config.p_a_max, p_b=config.p_b_max, p_r=config.p_r_max),
        gamma_a=gamma_a, gamma_b=gamma_b, rate_a=0.5 * math.log2(1.0 + gamma_a),
        rate_b=0.5 * math.log2(1.0 + gamma_b), trace=[trace_value], pre_log=0.5)


def hd_anc_solves(realizations, config):
    """Two-phase HD analog network coding benchmark, at its best sum rate,
    for each realization of a sequence.

    Both sources use full power and there is no self-interference, so only
    the relay matrix is optimized, over its useful subspaces, by
    ``_hd_max_sum_rates``' Newton ascent, one lockstep for all the
    realizations; rates carry the 1/2 pre-log of the two transmission
    phases.
    """
    setup = _hd_setup(realizations, config)
    return [_hd_point(y, setup, i, config, trace_value=0.5 * value / _LN2)
            for i, (y, value) in enumerate(_hd_max_sum_rates(setup, config))]


def hd_anc_solve(channels, config):
    """``hd_anc_solves`` of one realization."""
    [pt] = hd_anc_solves([channels], config)
    return pt


def _hd_points(setup, targets, config):
    """The HD region points of the realizations of ``setup`` at lists of B
    targets, one list per realization: per realization, an OperatingPoint
    per target, or None where the target exceeds B's largest SINR.  Every
    target is solved exactly, all in one batch (``_hd_region_points``).
    B's target r_b lives in the halved-rate domain, so the per-phase SINR
    threshold is 2**(2 r_b) - 1, computed with expm1 so that a tiny
    threshold survives the round trip, and backed off by 1e-9 relative.
    """
    thresholds = [[math.expm1(2.0 * r_b * _LN2) * (1.0 - 1e-9) for r_b in ts] for ts in targets]
    return [[None if y is None else _hd_point(y, setup, i, config, trace_value=val)
             for y, val in pts]
            for i, pts in enumerate(_hd_region_points(setup, config, thresholds))]


def hd_anc_regions(realizations, n_points, config):
    """HD region sweep of each realization of a sequence, of ``_hd_points``'
    exact solve from r_b = 0 up to B's largest target, with all the
    realizations' points in one batch.  B's largest target is the
    closed-form ``_hd_gamma_b_max``, backed off by 1e-9 relative so that
    the endpoint is solved, and halved-rate by log1p."""
    setup = _hd_setup(realizations, config)
    targets = [_sweep_targets(0.5 * math.log1p(gamma * (1.0 - 1e-9)) / _LN2, n_points)
               for gamma in _hd_gamma_b_max(setup, config).tolist()]
    return [_repair(zip(*pair)) for pair in zip(targets, _hd_points(setup, targets, config))]


def hd_anc_region(channels, n_points, config):
    """``hd_anc_regions`` of one realization."""
    [entries] = hd_anc_regions([channels], n_points, config)
    return entries


def _fd_oneway_rates(realizations, config):
    """The one-way FD rates (R_A, R_B), B -> A and A -> B at a full-power
    source, of each realization of a sequence, by the better of receive ZF
    (beam matched to h_out, combiner off H_rr h_out) and transmit ZF
    (combiner matched to h_in, beam off H_rr^H h_in).  x off v is x - v (v^H
    x) / ||v||^2, x itself where ||v||^2 <= 1e-24.  Every step is row-wise."""
    h_ar, h_br, h_ra, h_rb, h_rr = (np.array([getattr(ch, name) for ch in realizations])
                                    for name in ("h_ar", "h_br", "h_ra", "h_rb", "h_rr"))

    def off2(x, v):  # ||x off v||^2
        n2 = _vdots(v, v).real
        x = x - v * (_vdots(v, x) / np.where(n2 > 1e-24, n2, np.inf))[:, None]
        return _vdots(x, x).real

    p_r, snrs = config.p_r_max, []
    for p_src, h_in, h_out in ((config.p_b_max, h_br, h_ra), (config.p_a_max, h_ar, h_rb)):
        gains = ((off2(h_in, (h_rr @ h_out[:, :, None])[:, :, 0]), _vdots(h_out, h_out).real),
                 (_vdots(h_in, h_in).real, off2(h_out, (h_in[:, None, :] @ np.conj(h_rr))[:, 0])))
        snrs.append(np.maximum(*(p_src * g_in * p_r * g_out / (p_src * g_in + p_r * g_out + 1.0)
                                 for g_in, g_out in gains)))
    return [(math.log2(1.0 + s_a), math.log2(1.0 + s_b))
            for s_a, s_b in np.stack(snrs, axis=1).tolist()]


def fd_oneway_direction_rate(channels, direction, config):
    """R_A ("B_to_A") or R_B ("A_to_B") of ``_fd_oneway_rates``, one realization."""
    if direction not in ("B_to_A", "A_to_B"):
        raise ValueError(f"unknown direction {direction!r}")
    return _fd_oneway_rates([channels], config)[0][direction == "A_to_B"]


def fd_oneway_regions(realizations, n_points, config):
    """Time-sharing segment ((1-f) R_A, f R_B) of each realization of a
    sequence, for n_points fractions f from 0 (the A-max end) to 1."""
    fractions = np.linspace(0.0, 1.0, n_points)
    return [[((1.0 - f) * r_a, f * r_b) for f in fractions]
            for r_a, r_b in _fd_oneway_rates(realizations, config)]


def fd_oneway_sum_rates(realizations, config):
    """Rate pair (R_A, R_B) of the sum-rate-optimal time share of the one-way
    scheme, for each realization of a sequence.

    The sum rate is linear along the time-sharing segment, so its maximum
    sits at an end: only the better direction is served.  The equal split
    reproduces neither the reported gain of this benchmark over the HD
    scheme (1.09 vs 1.22) nor the relay-SNR crossover near 5 dB; the
    optimal share does.
    """
    return [(r_a, 0.0) if r_a >= r_b else (0.0, r_b)
            for r_a, r_b in _fd_oneway_rates(realizations, config)]


def _upper_bound_points(realizations, points):
    """ub's point of each realization of a sequence from ``points``,
    ``max_sum_rates`` of the realizations followed by their zero-loopback
    copies: the copy's point, or the realization's proposed point rescored
    with the loopback zeroed where that is higher (it is feasible there and
    scores the same rates), so the bound dominates the proposed scheme per
    realization by construction."""
    k = len(realizations)
    ub = points[k:]
    for i, (channels, pt, own) in enumerate(zip(realizations, points[:k], ub)):
        if pt.sum_rate > own.sum_rate:
            ub[i] = make_operating_point(
                zero_loopback(channels), pt.beamformer.w_t, pt.beamformer.w_r,
                pt.beamformer.alpha, pt.powers.p_a, pt.powers.p_b, trace=pt.trace)
    return ub


def upper_bound_solves(realizations, config):
    """Sum-rate solver with the relay loopback zeroed (ZF constraint gone),
    for each realization of a sequence.  Source SI stays.  One lockstep
    ``max_sum_rates`` solves the realizations and their zero-loopback
    copies together, and ``_upper_bound_points`` keeps the better of each
    copy's point and its realization's proposed point."""
    return _upper_bound_points(realizations, max_sum_rates(
        [*realizations, *map(zero_loopback, realizations)], config))


def upper_bound_solve(channels, config):
    """``upper_bound_solves`` of one realization."""
    [pt] = upper_bound_solves([channels], config)
    return pt


def local_csi_solves(realizations, config, seeds):
    """Receive-CSI-only operation, (w_t, w_r, (R_A, R_B)) for each
    realization of a sequence: full source powers, the balanced combiner
    (``_combiner_table``'s row at alpha = 0.5) and a ZF transmit direction
    drawn from the realization's seed, at full relay power.  Only the draws
    are per realization; the rates are ``sinr_pair``'s, bit for bit."""
    k, p_a, p_b = len(realizations), config.p_a_max, config.p_b_max
    w_r, ctx = _combiner_table(*realizations)(np.full(k, 0.5), np.arange(k))
    m_t = ctx.n_t.shape[1]
    # a row of rank n draws n real parts, then n imaginary parts
    x = np.zeros((k, 2 * m_t))
    for row, seed, n in zip(x, seeds, ctx.rank.tolist()):
        np.random.default_rng([int(seed), 0x10CA1]).standard_normal(out=row[:2 * n])
    j = np.arange(m_t)
    v = (np.where(j < ctx.rank[:, None], x[:, :m_t], 0.0)
         + 1j * np.take_along_axis(x, ctx.rank[:, None] + j, axis=1))
    z = v / _norms(v)[:, None]
    (rx_a, rx_b), (haa2, hbb2) = ctx.rx.T, ctx.si2.T
    budget = _p_prime(config.p_r_max, p_a, p_b, rx_a, rx_b)
    w_t = np.sqrt(budget)[:, None] * (ctx.n_t @ z[:, :, None])[:, :, 0]
    tx_a, tx_b = _abs2(_vdots(ctx.h_t, w_t[:, None, :])).T
    gammas = np.stack([p_b * tx_a * rx_b / (tx_a + p_a * haa2 + 1.0),
                       p_a * tx_b * rx_a / (tx_b + p_b * hbb2 + 1.0)], axis=1)
    return [(w_t_i, w_r_i, (math.log2(1.0 + g_a), math.log2(1.0 + g_b)))
            for w_t_i, w_r_i, (g_a, g_b) in zip(w_t, w_r, gammas.tolist())]


def local_csi_sum_rate(channels, config, seed):
    """``local_csi_solves`` of one realization, as an OperatingPoint traced by its sum rate."""
    [(w_t, w_r, _)] = local_csi_solves([channels], config, [seed])
    pt = make_operating_point(channels, w_t, w_r, 0.5, config.p_a_max, config.p_b_max, trace=[])
    return replace(pt, trace=[pt.sum_rate])
