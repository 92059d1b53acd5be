"""Independent reference for the HD baseline: a seeded random-restart hill
climb over the reduced relay matrix.

It scores 3000 seeded start matrices, then climbs from the best for 80
stages of 192 random candidates each.  It uses none of the quotient
forms or the dual that ``fdtwrc.baselines`` solves HD with; it reads
only the subspace reduction of ``_hd_setup`` and the SINR evaluator, so
the exact solvers can be checked against it: their sum rate, and their
rate for A at each of B's targets, should never fall below the climb's.
"""

import copy
import math

import numpy as np

from fdtwrc.baselines import _hd_gammas, _hd_setup

_LN2 = math.log(2.0)

# the HD search: seeded start matrices, hill-climbing stages, candidates per stage
_HD_STARTS = 3000
_HD_STAGES = 80
_HD_BATCH = 192


def _hd_starts(red, config, seed=0):
    """The _HD_STARTS seeded start matrices of ``_hd_search``, their SINR
    pairs and the generator that continues their stream, as (x, gamma_a,
    gamma_b, rng).  ``_hd_search`` copies the generator, so the starts can
    be scored once and searched from again."""
    kt, kr = red.a_t.shape[1], red.a_r.shape[1]
    rng = np.random.default_rng(seed)
    shape = (_HD_STARTS, kt, kr)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    gamma_a, gamma_b, _ = _hd_gammas(x, red, 0, config)
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
    kt, kr = red.a_t.shape[1], red.a_r.shape[1]
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
        ga, gb, _ = _hd_gammas(cand.reshape(-1, kt, kr), red, 0, config)
        vals = value_fn(ga.reshape(len(rows), -1), gb.reshape(len(rows), -1), rows)
        for i, j in enumerate(vals.argmax(axis=1).tolist()):
            if vals[i, j] > best_val[i]:
                best_val[i], best_x[i] = float(vals[i, j]), cand[i, j]
            else:
                sigma[i] *= 0.8
    for i, k in enumerate(rows):
        found[k] = (best_x[i], best_val[i])
    return found


def _rates(x, red, config):
    gamma_a, gamma_b, _ = _hd_gammas(x[None], red, 0, config)
    return (0.5 * math.log2(1.0 + float(gamma_a[0])),
            0.5 * math.log2(1.0 + float(gamma_b[0])))


def reference_sum_rate(channels, config, seed=0):
    """The climb's HD sum rate, in bits with the 1/2 pre-log."""
    red = _hd_setup([channels], config)

    def value(ga, gb, rows):
        return np.log2(1.0 + ga) + np.log2(1.0 + gb)

    (x, _), = _hd_search(red, config, value, 1, _hd_starts(red, config, seed))
    return sum(_rates(x, red, config))


def reference_region(channels, config, targets, seed=0):
    """The climb's (rate_a, rate_b) at each of B's targets r_b (bits, 1/2
    pre-log), or None where no start meets the target.  A target's SINR
    threshold 2**(2 r_b) - 1 is backed off by 1e-9 relative, as the
    solver's is."""
    red = _hd_setup([channels], config)
    thresholds = np.array([math.expm1(2.0 * r_b * _LN2) * (1.0 - 1e-9) for r_b in targets])

    def value(ga, gb, rows):
        return np.where(gb >= thresholds[rows, None], ga, -np.inf)

    found = _hd_search(red, config, value, len(targets), _hd_starts(red, config, seed))
    return [None if x is None else _rates(x, red, config) for x, _ in found]


def reference_b_max(channels, config, seed=0):
    """B's largest target as the climb's sweep set it: the best scored
    start's rate for B, log1p-halved."""
    red = _hd_setup([channels], config)
    return 0.5 * math.log1p(float(np.max(_hd_starts(red, config, seed)[2]))) / _LN2
