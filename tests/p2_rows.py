"""One-combiner calls of the batched P2 steps, for tests that solve a single
combiner: the combiner and its one-row ``_TxBatch`` come from
``_combiner_table``, as in ``max_sum_rate``, and each step's row 0 is
returned."""

import numpy as np

from fdtwrc.sum_rate import _combiner_table, solve_power_p2, solve_txbf_p2


def p2_row(ch, alpha):
    """Combiner alpha's w_r and its one-row ``_TxBatch``."""
    [(_, w_r, batch)] = _combiner_table(ch)(np.array([alpha]))
    return w_r[0], batch


def txbf_row(ch, batch, p_a, p_b, cfg, w_t_init=None):
    """``solve_txbf_p2``'s beamformer at float powers, as a vector."""
    warm = None if w_t_init is None else np.asarray(w_t_init)[None]
    return solve_txbf_p2(ch, batch, np.array([p_a]), np.array([p_b]), cfg, w_t_init=warm)[0]


def power_row(ch, w_t, batch, cfg):
    """``solve_power_p2``'s (p_a, p_b, value) for one beamformer, as floats."""
    return tuple(float(x[0]) for x in solve_power_p2(ch, np.asarray(w_t)[None], batch, cfg))
