"""Benchmark schemes: two-phase HD analog network coding, two-phase one-way
FD relaying, the no-relay-SI upper bound, and the local-CSI variant.

HD has no self-interference and full fixed powers, so only the relay matrix
is optimized, over its useful subspaces: the benchmark the reported gains
are measured against.  ``hd_anc_solve`` maximizes the HD sum rate; an HD
region sweep runs up to B's largest target, the best scored start's, and
solves all its boundary points in one lockstep search.  The
upper bound reuses the proposed solvers on a realization whose relay
loopback is zeroed, which removes the ZF restriction while keeping source
SI.
"""

import copy
import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    OperatingPoint,
    PowerAllocation,
    RelayBeamformer,
    make_operating_point,
    receive_combiner,
    receive_gains,
    relay_null_basis,
    strip_source_si,
    zero_loopback,
)
# _alpha_search is not called here; it stays bound because the perfbench
# tracer test requires it to wrap this module's binding
from .rate_region import (
    _LN2,
    _alpha_search,
    _p_prime,
    rate_region,
    region_sweep,
)
from .sum_rate import max_sum_rate

__all__ = [
    "SchemeId",
    "parse_scheme",
    "hd_anc_solve",
    "hd_anc_region",
    "fd_oneway_direction_rate",
    "fd_oneway_region",
    "fd_oneway_sum_rate",
    "upper_bound_solve",
    "upper_bound_region",
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


# the HD search: seeded start matrices, hill-climbing stages, candidates per stage
_HD_STARTS = 3000
_HD_STAGES = 80
_HD_BATCH = 192


@dataclass
class _HdReduced:
    """HD relay optimization reduced to the useful subspaces.

    Any component of the relay matrix outside span{h_ra, h_rb} (transmit
    side) or span{h_ar, h_br} (receive side) burns power without touching
    either SINR, so the full-matrix optimum is U X V^H with a small X.
    """

    u: np.ndarray
    v: np.ndarray
    a_t: np.ndarray
    b_t: np.ndarray
    a_r: np.ndarray
    b_r: np.ndarray


def _hd_reduce(channels):
    u, _ = np.linalg.qr(np.stack([channels.h_ra, channels.h_rb], axis=1))
    v, _ = np.linalg.qr(np.stack([channels.h_ar, channels.h_br], axis=1))
    return _HdReduced(
        u=u, v=v,
        a_t=u.conj().T @ channels.h_ra, b_t=u.conj().T @ channels.h_rb,
        a_r=v.conj().T @ channels.h_ar, b_r=v.conj().T @ channels.h_br)


def _hd_gammas(x, red, config):
    """Per-phase SINR pair for a batch of reduced relay matrices, each
    rescaled to use the full relay power budget (scaling up helps both)."""
    p_a, p_b, p_r = config.p_a_max, config.p_b_max, config.p_r_max
    xa = np.einsum("nij,j->ni", x, red.a_r)
    xb = np.einsum("nij,j->ni", x, red.b_r)
    power = (p_a * np.sum(np.abs(xa) ** 2, axis=1)
             + p_b * np.sum(np.abs(xb) ** 2, axis=1)
             + np.sum(np.abs(x) ** 2, axis=(1, 2)))
    scale2 = p_r / power
    at_x = np.einsum("i,nij->nj", red.a_t.conj(), x)  # a_t^H X
    bt_x = np.einsum("i,nij->nj", red.b_t.conj(), x)
    gamma_a = (p_b * np.abs(np.einsum("nj,j->n", at_x, red.b_r)) ** 2 * scale2
               / (np.sum(np.abs(at_x) ** 2, axis=1) * scale2 + 1.0))
    gamma_b = (p_a * np.abs(np.einsum("nj,j->n", bt_x, red.a_r)) ** 2 * scale2
               / (np.sum(np.abs(bt_x) ** 2, axis=1) * scale2 + 1.0))
    return gamma_a, gamma_b, scale2


def _hd_starts(red, config, seed=0):
    """The _HD_STARTS seeded start matrices of ``_hd_search``, their SINR
    pairs and the generator that continues their stream, as (x, gamma_a,
    gamma_b, rng).  ``_hd_search`` copies the generator, so the starts can
    be scored once and searched from again."""
    kt, kr = red.a_t.size, red.a_r.size
    rng = np.random.default_rng(seed)
    shape = (_HD_STARTS, kt, kr)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    gamma_a, gamma_b, _ = _hd_gammas(x, red, config)
    return x, gamma_a, gamma_b, rng


def _hd_search(red, config, value_fn, n_rows, starts):
    """Random-restart hill climbing over the reduced relay matrix from the
    scored ``_hd_starts``, for n_rows objectives in lockstep; deterministic
    for given starts.

    value_fn(gamma_a, gamma_b, rows) scores SINR arrays of shape (N,) (the
    shared starts) or (len(rows), N) for the objectives ``rows`` as a
    (len(rows), N) array, or (N,) for one row (-inf marks an infeasible
    candidate).  Every row climbs from its own
    best start with its own step size, but all rows share each stage's
    random step draw, so a row's result does not depend on the others.
    A row no start makes finite is dropped before the first stage.
    Returns a (best_x, best_value) pair per row, (None, -inf) if dropped.
    """
    kt, kr = red.a_t.size, red.a_r.size
    x, ga, gb, rng = starts
    rng = copy.deepcopy(rng)
    vals = value_fn(ga, gb, np.arange(n_rows)).reshape(n_rows, -1)
    first = np.argmax(vals, axis=1)
    rows = [k for k in range(n_rows) if np.isfinite(vals[k, first[k]])]
    found = [(None, -math.inf)] * n_rows
    if not rows:
        return found
    best_val = [float(vals[k, first[k]]) for k in rows]
    best_x = x[first[rows]]
    sigma = np.full(len(rows), 0.5)
    shape = (_HD_BATCH, kt, kr)
    for _ in range(_HD_STAGES):
        step = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        cand = best_x[:, None] + sigma[:, None, None, None] * step
        ga, gb, _ = _hd_gammas(cand.reshape(-1, kt, kr), red, config)
        vals = value_fn(ga.reshape(len(rows), -1), gb.reshape(len(rows), -1), rows)
        for i, j in enumerate(vals.argmax(axis=1).tolist()):
            if vals[i, j] > best_val[i]:
                best_val[i], best_x[i] = float(vals[i, j]), cand[i, j]
            else:
                sigma[i] *= 0.8
    for i, k in enumerate(rows):
        found[k] = (best_x[i], best_val[i])
    return found


def _hd_point(channels, x, red, config, trace_value):
    gamma_a, gamma_b, scale2 = _hd_gammas(x[None], red, config)
    gamma_a, gamma_b = float(gamma_a[0]), float(gamma_b[0])
    w_full = math.sqrt(float(scale2[0])) * (red.u @ x @ red.v.conj().T)
    # dominant rank-one factors, for reporting only
    uu, ss, vh = np.linalg.svd(w_full)
    beam = RelayBeamformer(w_t=ss[0] * uu[:, 0], w_r=vh[0].conj(), alpha=math.nan,
                           w_full=w_full)
    rate_a = 0.5 * math.log2(1.0 + gamma_a)
    rate_b = 0.5 * math.log2(1.0 + gamma_b)
    return OperatingPoint(
        beamformer=beam,
        powers=PowerAllocation(p_a=config.p_a_max, p_b=config.p_b_max, p_r=config.p_r_max),
        gamma_a=gamma_a, gamma_b=gamma_b, rate_a=rate_a, rate_b=rate_b,
        trace=[trace_value], pre_log=0.5)


def hd_anc_solve(channels, config):
    """Two-phase HD analog network coding benchmark, at its best sum rate.

    Both sources use full power and there is no self-interference, so only
    the relay matrix is optimized, over its useful subspaces; rates carry
    the 1/2 pre-log of the two transmission phases.
    """
    hd_channels = strip_source_si(zero_loopback(channels))
    red = _hd_reduce(hd_channels)

    def value(ga, gb, rows):
        return np.log2(1.0 + ga) + np.log2(1.0 + gb)

    (x, val), = _hd_search(red, config, value, 1, _hd_starts(red, config))
    return _hd_point(hd_channels, x, red, config, trace_value=0.5 * val)


def _hd_region(channels, config):
    """HD region solve over a list of B targets and B's largest target, as
    (solve_targets, r_b_max).

    ``solve_targets(targets)`` runs one lockstep ``_hd_search`` that
    maximizes A's SINR at each target and returns an OperatingPoint per
    target, or None where no start meets it.  B's target r_b lives in the
    halved-rate domain, so the per-phase SINR threshold is 2**(2 r_b) - 1,
    computed with expm1 (and the endpoint with log1p) so that a tiny
    threshold survives the round trip; a threshold is backed off by 1e-9
    relative.  The channels are reduced and the starts scored once, and B's
    largest target is the best start's, the largest at which one start
    meets the target.
    """
    hd_channels = strip_source_si(zero_loopback(channels))
    red = _hd_reduce(hd_channels)
    starts = _hd_starts(red, config)

    def solve_targets(targets):
        thresholds = np.array([math.expm1(2.0 * r_b * _LN2) * (1.0 - 1e-9)
                               for r_b in targets])

        def value(ga, gb, rows):
            return np.where(gb >= thresholds[rows, None], ga, -np.inf)

        return [None if x is None else _hd_point(hd_channels, x, red, config, trace_value=val)
                for x, val in _hd_search(red, config, value, len(targets), starts)]

    return solve_targets, 0.5 * math.log1p(float(np.max(starts[2]))) / _LN2


def hd_anc_region(channels, n_points, config):
    """HD region sweep of ``_hd_region``'s lockstep solve from r_b = 0 up to
    B's largest target."""
    return region_sweep(*_hd_region(channels, config), n_points)


def _complement_projector_or_identity(v):
    """I - v v^H / ||v||^2, degrading to I when the vector vanishes."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    n2 = float(np.vdot(v, v).real)
    eye = np.eye(v.size, dtype=complex)
    if n2 <= 1e-24:
        return eye
    return eye - np.outer(v, v.conj()) / n2


def fd_oneway_direction_rate(channels, direction, config):
    """One-way FD relaying rate for one direction with a full-power source.

    Both closed forms (receive-side and transmit-side ZF of the relay
    loopback) are evaluated and the better one is kept.
    """
    if direction == "B_to_A":
        p_src, h_in, h_out = config.p_b_max, channels.h_br, channels.h_ra
    elif direction == "A_to_B":
        p_src, h_in, h_out = config.p_a_max, channels.h_ar, channels.h_rb
    else:
        raise ValueError(f"unknown direction {direction!r}")
    # (input, output) gains of receive ZF (transmit beam matched to h_out,
    # combiner nulling H_rr h_out) and of transmit ZF (combiner matched to
    # h_in, transmit beam nulling H_rr^H h_in)
    d = _complement_projector_or_identity(channels.h_rr @ h_out)
    b = _complement_projector_or_identity(channels.h_rr.conj().T @ h_in)
    gains = ((float(np.linalg.norm(d @ h_in) ** 2), float(np.vdot(h_out, h_out).real)),
             (float(np.vdot(h_in, h_in).real), float(np.linalg.norm(b @ h_out) ** 2)))
    p_r = config.p_r_max
    return math.log2(1.0 + max(p_src * g_in * p_r * g_out / (p_src * g_in + p_r * g_out + 1.0)
                               for g_in, g_out in gains))


def fd_oneway_region(channels, n_points, config):
    """Time-sharing segment ((1-f) R_A, f R_B) for n_points fractions f from
    0 (the A-max end) to 1."""
    r_a = fd_oneway_direction_rate(channels, "B_to_A", config)
    r_b = fd_oneway_direction_rate(channels, "A_to_B", config)
    return [((1.0 - f) * r_a, f * r_b) for f in np.linspace(0.0, 1.0, n_points)]


def fd_oneway_sum_rate(channels, config):
    """Rate pair (R_A, R_B) of the sum-rate-optimal time share of the one-way
    scheme.

    The sum rate is linear along the time-sharing segment, so its maximum
    sits at an end: only the better direction is served.  The equal split
    reproduces neither the reported gain of this benchmark over the HD
    scheme (1.09 vs 1.22) nor the relay-SNR crossover near 5 dB; the
    optimal share does.
    """
    r_a = fd_oneway_direction_rate(channels, "B_to_A", config)
    r_b = fd_oneway_direction_rate(channels, "A_to_B", config)
    return (r_a, 0.0) if r_a >= r_b else (0.0, r_b)


def upper_bound_solve(channels, config, proposed):
    """Sum-rate solver with the relay loopback zeroed (ZF constraint gone).

    Source SI stays.  ``proposed``, the ZF-constrained solution
    ``max_sum_rate(channels, config)``, is also evaluated (it is feasible
    here and scores the same rates), and the better of the two is
    returned, so the bound dominates the proposed scheme per realization
    by construction.
    """
    ub_channels = zero_loopback(channels)
    pt = max_sum_rate(ub_channels, config)
    if proposed.sum_rate > pt.sum_rate:
        pt = make_operating_point(
            ub_channels, proposed.beamformer.w_t, proposed.beamformer.w_r,
            proposed.beamformer.alpha, proposed.powers.p_a, proposed.powers.p_b,
            trace=proposed.trace)
    return pt


def upper_bound_region(channels, n_points, config):
    """The proposed region sweep with the relay loopback zeroed."""
    return rate_region(zero_loopback(channels), n_points, config)


def local_csi_sum_rate(channels, config, seed):
    """Receive-CSI-only operation: full source powers, a fixed balanced
    combiner, and a seeded arbitrary ZF transmit direction at full relay
    power."""
    w_r = receive_combiner(channels, 0.5)
    n_t = relay_null_basis(channels, w_r)
    rng = np.random.default_rng([np.uint64(seed) & np.uint64(0xFFFFFFFFFFFFFFFF), 0x10CA1])
    v = rng.standard_normal(n_t.shape[1]) + 1j * rng.standard_normal(n_t.shape[1])
    z = v / np.linalg.norm(v)
    p_a, p_b = config.p_a_max, config.p_b_max
    budget = _p_prime(config.p_r_max, p_a, p_b, *receive_gains(channels, w_r))
    w_t = math.sqrt(budget) * (n_t @ z)
    pt = make_operating_point(channels, w_t, w_r, 0.5, p_a, p_b, trace=[])
    return replace(pt, trace=[pt.sum_rate])
