"""One-combiner calls of the batched P1 and P2 steps, for tests that solve a
single combiner: the combiner and its one-row ``_TxBatch`` come from
``_combiner_table``, as in the solvers, and each step's row 0 is returned."""

import math

import numpy as np

from fdtwrc.rate_region import (
    Infeasible,
    _combiner_table,
    _p1_gates,
    solve_power_p1,
    solve_txbf_p1,
)
from fdtwrc.sum_rate import solve_power_p2, solve_txbf_p2


def combiner_row(ch, alpha):
    """Combiner alpha's w_r and its one-row ``_TxBatch``."""
    w_r, batch = _combiner_table(ch)(np.array([alpha]))
    return w_r[0], batch


def txbf_row(batch, p_a, p_b, cfg, w_t_init=None):
    """``solve_txbf_p2``'s beamformer at float powers, as a vector."""
    warm = None if w_t_init is None else np.asarray(w_t_init)[None]
    return solve_txbf_p2(batch, np.array([p_a]), np.array([p_b]), cfg, w_t_init=warm)[0]


def power_row(w_t, batch, cfg):
    """``solve_power_p2``'s (p_a, p_b, value) for one beamformer, as floats."""
    return tuple(float(x[0]) for x in solve_power_p2(np.asarray(w_t)[None], batch, cfg))


def txbf_p1_row(batch, p_a, p_b, gamma_b, p_r_max):
    """``solve_txbf_p1``'s beamformer at float powers, as a vector.  Raises
    Infeasible with the gate that fails: 'sinr_gate' where ``_p1_gates``
    asks for an infinite gain, else 'beam_power_gate'."""
    p_a, p_b = np.array([p_a]), np.array([p_b])
    w_t, ok = solve_txbf_p1(batch, p_a, p_b, gamma_b, p_r_max)
    if not ok[0]:
        gb_bar = _p1_gates(batch, p_a, p_b, gamma_b, p_r_max)[0][0]
        raise Infeasible("sinr_gate" if gb_bar == math.inf else "beam_power_gate")
    return w_t[0]


def power_p1_row(w_t, batch, gamma_b, cfg):
    """``solve_power_p1``'s (p_a, p_b, gamma_a) for one beamformer, as
    floats.  Raises Infeasible('power_polygon') where the polygon is empty."""
    p_a, p_b, gamma_a, ok = solve_power_p1(np.asarray(w_t)[None], batch, gamma_b, cfg)
    if not ok[0]:
        raise Infeasible("power_polygon")
    return float(p_a[0]), float(p_b[0]), float(gamma_a[0])
