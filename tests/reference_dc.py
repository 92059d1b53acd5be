"""Scalar references that the tests check the solvers against: the paper's
DC objective and its linearized surrogate (the objective of ``dc_step``),
the ZF residual, and a one-realization receive combiner.

The combiner is the scalar formula that ``_combiner_table`` computes for a
batch; the table's bits may differ from it in the last place, so it is a
reference up to rounding only.  Tests that need a solver's own combiner
take it from ``one_row.combiner_row``.
"""

import math

import numpy as np

from fdtwrc.model import _combiner_basis, receive_gains
from fdtwrc.rate_region import _LN2
from fdtwrc.sum_rate import _coeffs, _si2, _sum_rate_bits


def receive_combiner(channels, alpha):
    """Receive combiner mixing the h_br direction with its complement.

    w_r(alpha) = alpha * u_par + sqrt(1-alpha) * u_perp, with the unit
    directions of ``_combiner_basis``.  The raw combination has norm
    sqrt(alpha^2 + 1 - alpha) <= 1; it is rescaled to unit norm.  When h_ar
    is parallel to h_br every alpha gives the alpha = 1 endpoint.  Raises
    DegenerateGeometryError when h_br is zero.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    [u_par], [u_perp], [single] = _combiner_basis(channels.h_ar[None], channels.h_br[None])
    if single:
        return u_par
    w = alpha * u_par + math.sqrt(1.0 - alpha) * u_perp
    return w / np.linalg.norm(w)


def zf_residual(channels, w_t, w_r):
    """|w_r^H H_rr w_t|; zero when the loopback is nulled."""
    return abs(np.conj(w_r) @ channels.h_rr @ w_t)


def dc_objective(channels, w_r, p_a, p_b, s_a, s_b):
    """Sum rate as a function of the two quadratic forms of w_t."""
    e_a, e_b, k_a, k_b = _coeffs(*_si2(channels), *receive_gains(channels, w_r), p_a, p_b)
    return float(_sum_rate_bits(e_a, e_b, k_a, k_b, s_a, s_b))


def dc_linearized_objective(channels, w_r, p_a, p_b, s_a, s_b, anchor):
    """Concave surrogate: f(s) minus the tangent of g(s) at the anchor.

    g is concave (log of affine), so the tangent over-estimates it and the
    surrogate is a global lower bound of the true objective, tight at the
    anchor; that is what makes the DC iteration monotone.
    """
    e_a, e_b, k_a, k_b = _coeffs(*_si2(channels), *receive_gains(channels, w_r), p_a, p_b)
    s_a_k, s_b_k = anchor
    f_val = np.log2((e_a + 1.0) * s_a + k_a) + np.log2((e_b + 1.0) * s_b + k_b)
    g_lin = (math.log2(s_a_k + k_a) + math.log2(s_b_k + k_b)
             + (s_a - s_a_k) / (_LN2 * (s_a_k + k_a))
             + (s_b - s_b_k) / (_LN2 * (s_b_k + k_b)))
    return f_val - g_lin
