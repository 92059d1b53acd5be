import importlib
import math
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from fdtwrc.baselines import upper_bound_solve
from fdtwrc.model import (
    SystemConfig,
    receive_combiner,
    receive_gains,
    relay_null_basis,
    relay_output_power,
    sample_channels,
    sinr_pair,
    zero_loopback,
    zf_residual,
)
from fdtwrc.numerics import null_space_basis
from fdtwrc import sum_rate
from fdtwrc.oracles import dc_grid_oracle
from fdtwrc.numerics import _vdots
from fdtwrc.rate_region import (
    Infeasible,
    _abs2,
    _combiner_table,
    _gamma_b_max,
    _grid,
    boundary_range,
    max_rate_given_rb,
    optimize_fixed_alpha_p1,
    rate_region,
)
from fdtwrc.sum_rate import (
    _frontier_argmax,
    _stationary_points,
    _sum_rate_bits,
    dc_linearized_objective,
    dc_objective,
    dc_step,
    max_sum_rate,
    optimize_fixed_alpha_p2,
    solve_power_p2,
    solve_txbf_p2,
)
from one_row import combiner_row, power_row, txbf_row

CFG = SystemConfig()
rate_region_module = importlib.import_module("fdtwrc.rate_region")


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def unit(v):
    return v / np.linalg.norm(v)


def draw(seed, m_t=3, m_r=3, **cfg_kw):
    cfg = replace(CFG, m_t=m_t, m_r=m_r, **cfg_kw)
    ch = sample_channels(cfg, seed)
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0, 1)
    p_a, p_b = rng.uniform(0.5, cfg.p_a_max, size=2)
    return cfg, ch, alpha, p_a, p_b


def instance(seed, m_t=3, m_r=3, **cfg_kw):
    cfg, ch, alpha, p_a, p_b = draw(seed, m_t, m_r, **cfg_kw)
    return cfg, ch, receive_combiner(ch, alpha), p_a, p_b


def p2_instance(seed, m_t=3, m_r=3, **cfg_kw):
    """``instance``'s draw, with the combiner table's w_r and its one-row
    batch: (cfg, ch, w_r, batch, p_a, p_b)."""
    cfg, ch, alpha, p_a, p_b = draw(seed, m_t, m_r, **cfg_kw)
    return (cfg, ch, *combiner_row(ch, alpha), p_a, p_b)


class TestDcObjective:
    def test_zeros(self):
        _, ch, w_r, p_a, p_b = instance(0)
        assert dc_objective(ch, w_r, p_a, p_b, 0.0, 0.0) == 0.0
        assert dc_objective(ch, w_r, 0.0, 0.0, 3.0, 4.0) == 0.0

    def test_f_minus_g_identity(self):
        rng = np.random.default_rng(1)
        _, ch, w_r, p_a, p_b = instance(1)
        rx_a = abs(np.vdot(w_r, ch.h_ar)) ** 2
        rx_b = abs(np.vdot(w_r, ch.h_br)) ** 2
        k_a = p_a * abs(ch.h_aa) ** 2 + 1.0
        k_b = p_b * abs(ch.h_bb) ** 2 + 1.0
        for _ in range(200):
            s_a, s_b = rng.uniform(0, 20, size=2)
            f_val = (math.log2((p_b * rx_b + 1) * s_a + k_a)
                     + math.log2((p_a * rx_a + 1) * s_b + k_b))
            g_val = math.log2(s_a + k_a) + math.log2(s_b + k_b)
            direct = dc_objective(ch, w_r, p_a, p_b, s_a, s_b)
            assert abs(direct - (f_val - g_val)) <= 1e-12 * max(1.0, abs(direct))


class TestDcLinearized:
    def test_tangency_at_anchor(self):
        _, ch, w_r, p_a, p_b = instance(2)
        anchor = (3.0, 1.5)
        lin = dc_linearized_objective(ch, w_r, p_a, p_b, *anchor, anchor)
        true = dc_objective(ch, w_r, p_a, p_b, *anchor)
        assert abs(lin - true) < 1e-12

    def test_gradient_matches_finite_differences(self):
        _, ch, w_r, p_a, p_b = instance(3)
        anchor = (2.0, 4.0)
        h = 1e-6
        for dim in (0, 1):
            lo = list(anchor)
            hi = list(anchor)
            lo[dim] -= h
            hi[dim] += h
            g_lin = (dc_linearized_objective(ch, w_r, p_a, p_b, *hi, anchor)
                     - dc_linearized_objective(ch, w_r, p_a, p_b, *lo, anchor)) / (2 * h)
            g_true = (dc_objective(ch, w_r, p_a, p_b, *hi)
                      - dc_objective(ch, w_r, p_a, p_b, *lo)) / (2 * h)
            assert abs(g_lin - g_true) < 1e-4

    def test_surrogate_is_global_lower_bound(self):
        # g is concave, so its tangent over-estimates it and the surrogate
        # under-estimates the true objective everywhere (tight at the anchor);
        # this is the minorization that makes the DC iteration monotone
        rng = np.random.default_rng(4)
        _, ch, w_r, p_a, p_b = instance(4)
        anchor = (rng.uniform(0, 10), rng.uniform(0, 10))
        for _ in range(1000):
            s_a, s_b = rng.uniform(0, 30, size=2)
            lin = dc_linearized_objective(ch, w_r, p_a, p_b, s_a, s_b, anchor)
            true = dc_objective(ch, w_r, p_a, p_b, s_a, s_b)
            assert lin <= true + 1e-12


def s_a_bounds(batch, p_prime, q):
    """Range of s_a = p_prime |a_t^H z|^2 over unit null-space z with
    |d1^H z|^2 = q, for a null space of dimension 3 or more, at the
    combiner of a one-row batch."""
    lo, hi = boundary_range(batch.r[0], q, 3)
    return p_prime * batch.n2[0, 0] * lo, p_prime * batch.n2[0, 0] * hi


class TestFeasibleSetBounds:
    def test_q_one_collapses(self):
        batch = p2_instance(5)[3]
        p_prime = 2.0
        lo, hi = s_a_bounds(batch, p_prime, 1.0)
        target = p_prime * batch.n2[0, 0] * batch.r[0] ** 2
        assert abs(lo - target) < 1e-9 * max(1.0, target)
        assert abs(hi - target) < 1e-9 * max(1.0, target)

    def test_orthogonal_case(self):
        # loopback zeroed so the null space is all of C^4; h_ra orthogonal
        # to h_rb gives r = 0 and the full [0, budget * |a|^2] range at q=0
        cfg = replace(CFG, m_t=4)
        ch = sample_channels(cfg, 6)
        ch = replace(ch, h_rr=np.zeros_like(ch.h_rr),
                     h_ra=np.array([1.0, 0, 0, 0], dtype=complex),
                     h_rb=np.array([0, 1.0, 0, 0], dtype=complex))
        lo, hi = s_a_bounds(combiner_row(ch, 0.5)[1], 3.0, 0.0)
        assert lo == 0.0
        assert abs(hi - 3.0) < 1e-9

    def test_against_constrained_sampling_oracle(self):
        # null dimension 3 so the generic bounds apply
        batch = p2_instance(8, m_t=4)[3]
        n = int(batch.rank[0])
        d2, d1 = batch.d[0, :n].T
        rng = np.random.default_rng(8)
        p_prime = 2.5
        for q in (0.15, 0.5, 0.85):
            lo, hi = s_a_bounds(batch, p_prime, q)
            # envelope of the bounds over the sampling window |q' - q| < 0.01
            win = [s_a_bounds(batch, p_prime, qq) for qq in (q - 0.01, q, q + 0.01)]
            lo_min = min(w[0] for w in win)
            hi_max = max(w[1] for w in win)
            z = crandn(rng, 400_000, n)
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            qs = np.abs(z @ d1.conj()) ** 2
            sel = np.abs(qs - q) < 0.01
            s_a = p_prime * np.abs(z[sel] @ d2.conj()) ** 2 * batch.n2[0, 0]
            assert s_a.min() >= lo_min - 1e-9
            assert s_a.min() <= lo + 0.05 * (hi - lo + 1e-9)
            assert s_a.max() <= hi_max + 1e-9
            assert s_a.max() >= hi - 0.05 * (hi - lo + 1e-9)


class TestDcStep:
    def test_fixed_point(self):
        cfg, ch, w_r, batch, p_a, p_b = p2_instance(9)
        anchor = (0.0, 0.0)
        for _ in range(300):
            s_a, s_b, _ = dc_step(ch, batch, p_a, p_b, anchor, cfg)
            if abs(s_a - anchor[0]) < 1e-10 and abs(s_b - anchor[1]) < 1e-10:
                break
            anchor = (s_a, s_b)
        # an anchor optimal for its own linearization reproduces itself
        s_a2, s_b2, _ = dc_step(ch, batch, p_a, p_b, anchor, cfg)
        assert abs(s_a2 - anchor[0]) < 1e-6 * max(1.0, anchor[0])
        assert abs(s_b2 - anchor[1]) < 1e-6 * max(1.0, anchor[1])

    def test_matches_grid_oracle(self):
        for seed in range(20):
            cfg, ch, w_r, batch, p_a, p_b = p2_instance(100 + seed)
            rng = np.random.default_rng(seed)
            q0 = rng.uniform(0, 1)
            na2, nb2 = batch.n2[0]
            anchor = (na2 * q0, nb2 * q0 * 0.5)
            s_a, s_b, _ = dc_step(ch, batch, p_a, p_b, anchor, cfg)
            val = dc_linearized_objective(ch, w_r, p_a, p_b, s_a, s_b, anchor)
            oracle = dc_grid_oracle(ch, w_r, p_a, p_b, anchor, cfg, n=700)
            assert val >= oracle.best_value - 1e-4 * max(1.0, abs(oracle.best_value))

    def test_improvement_and_reconstruction(self):
        for seed in range(25):
            cfg, ch, w_r, batch, p_a, p_b = p2_instance(200 + seed)
            rng = np.random.default_rng(seed)
            z0 = np.zeros(cfg.m_t, dtype=complex)  # zero past the rank, as the basis
            z0[:int(batch.rank[0])] = unit(crandn(rng, int(batch.rank[0])))
            rx_a = abs(np.vdot(w_r, ch.h_ar)) ** 2
            rx_b = abs(np.vdot(w_r, ch.h_br)) ** 2
            p_prime = cfg.p_r_max / (p_a * rx_a + p_b * rx_b + 1.0)
            # f's rows are a_t^H and b_t^H
            anchor = tuple(p_prime * np.abs(batch.f[0] @ z0) ** 2)
            s_a, s_b, w_t = dc_step(ch, batch, p_a, p_b, anchor, cfg)
            assert (dc_objective(ch, w_r, p_a, p_b, s_a, s_b)
                    >= dc_objective(ch, w_r, p_a, p_b, *anchor) - 1e-12)
            # reconstruction: norm budget and quadratic forms reproduced
            nt2 = float(np.vdot(w_t, w_t).real)
            assert abs(nt2 - p_prime) <= 1e-8 * max(1.0, p_prime)
            assert abs(abs(np.vdot(ch.h_ra, w_t)) ** 2 - s_a) <= 1e-8 * max(1.0, s_a)
            assert abs(abs(np.vdot(ch.h_rb, w_t)) ** 2 - s_b) <= 1e-8 * max(1.0, s_b)
            assert zf_residual(ch, w_t, w_r) <= 1e-9 * max(1.0, np.linalg.norm(ch.h_rr) * np.linalg.norm(w_t))


class TestSolveTxbfP2:
    def test_m2_matches_dense_grid(self):
        for seed in range(8):
            cfg, ch, w_r, batch, p_a, p_b = p2_instance(300 + seed, m_t=2, m_r=2)
            na2, nb2 = batch.n2[0]
            w_t = txbf_row(batch, p_a, p_b, cfg)
            val = dc_objective(ch, w_r, p_a, p_b,
                               abs(np.vdot(ch.h_ra, w_t)) ** 2,
                               abs(np.vdot(ch.h_rb, w_t)) ** 2)
            rx_a = abs(np.vdot(w_r, ch.h_ar)) ** 2
            rx_b = abs(np.vdot(w_r, ch.h_br)) ** 2
            p_prime = cfg.p_r_max / (p_a * rx_a + p_b * rx_b + 1.0)
            pt = np.linspace(0, p_prime, 100_001)
            dense = np.max(np.log2(1 + p_b * rx_b * pt * na2 / (pt * na2 + p_a * abs(ch.h_aa) ** 2 + 1))
                           + np.log2(1 + p_a * rx_a * pt * nb2 / (pt * nb2 + p_b * abs(ch.h_bb) ** 2 + 1)))
            assert val >= dense - 1e-6 * max(1.0, dense)

    def test_no_zf_equals_zero_loopback_run(self):
        cfg, ch, alpha, p_a, p_b = draw(10, sigma2_r=0.0)
        assert np.all(ch.h_rr == 0)
        w_r, batch = combiner_row(ch, alpha)
        w_t = txbf_row(batch, p_a, p_b, cfg)
        ch0 = zero_loopback(ch)
        w_t2 = txbf_row(combiner_row(ch0, alpha)[1], p_a, p_b, cfg)
        v1 = dc_objective(ch, w_r, p_a, p_b, abs(np.vdot(ch.h_ra, w_t)) ** 2,
                          abs(np.vdot(ch.h_rb, w_t)) ** 2)
        v2 = dc_objective(ch, w_r, p_a, p_b, abs(np.vdot(ch.h_ra, w_t2)) ** 2,
                          abs(np.vdot(ch.h_rb, w_t2)) ** 2)
        assert abs(v1 - v2) < 1e-6

    def test_not_below_cold_start(self):
        for seed in range(25):
            cfg, ch, w_r, batch, p_a, p_b = p2_instance(400 + seed)
            w_t = txbf_row(batch, p_a, p_b, cfg)
            cold = math.sqrt(_full_budget(cfg, ch, w_r, p_a, p_b)) * (batch.n_t[0] @ batch.d[0, :, 0])
            val = _txbf_value(ch, w_r, p_a, p_b, w_t)
            assert val >= _txbf_value(ch, w_r, p_a, p_b, cold) * (1.0 - 1e-12)

    def test_budget_and_zf(self):
        for seed in range(15):
            cfg, ch, w_r, batch, p_a, p_b = p2_instance(500 + seed)
            w_t = txbf_row(batch, p_a, p_b, cfg)
            p_r = relay_output_power(ch, w_t, w_r, p_a, p_b)
            assert p_r <= cfg.p_r_max + 1e-8
            assert abs(p_r - cfg.p_r_max) < 1e-7
            assert zf_residual(ch, w_t, w_r) <= 1e-9 * max(1.0, np.linalg.norm(ch.h_rr) * np.linalg.norm(w_t))

    @pytest.mark.parametrize("alpha", [1e-8, 0.0])
    def test_null_dimension_one_spends_full_budget(self, alpha):
        # A silent (p_a = 0) and a near-zero (alpha = 1e-8) or zero
        # (alpha = 0) combiner gain for B leave the objective flat to
        # rounding in the transmit power; the relay must still spend its
        # whole budget
        cfg = SystemConfig(m_t=2, m_r=2, p_a_max=1.0, p_b_max=1.0, p_r_max=1.0,
                           sigma2_r=1.0, gain_br=2.0)
        ch = sample_channels(cfg, 0)
        w_r, batch = combiner_row(ch, alpha)
        w_t = txbf_row(batch, 0.0, 1.0, cfg)
        assert abs(relay_output_power(ch, w_t, w_r, 0.0, 1.0) - cfg.p_r_max) <= 1e-12


def _txbf_value(ch, w_r, p_a, p_b, w_t):
    return dc_objective(ch, w_r, p_a, p_b, abs(np.vdot(ch.h_ra, w_t)) ** 2,
                        abs(np.vdot(ch.h_rb, w_t)) ** 2)


def _full_budget(cfg, ch, w_r, p_a, p_b):
    rx_a = abs(np.vdot(w_r, ch.h_ar)) ** 2
    rx_b = abs(np.vdot(w_r, ch.h_br)) ** 2
    return cfg.p_r_max / (p_a * rx_a + p_b * rx_b + 1.0)


# 60 inner problems each at null dimension 2 (m_t = 3) and 3 (m_t = 4)
EXACTNESS_CASES = [(1000 + seed, m_t) for m_t in (3, 4) for seed in range(60)]


class TestSolveTxbfP2Exactness:
    """The frontier search solves the inner problem: it matches or beats the
    paper's DC iteration and a brute-force sample of the reduced sphere."""

    def test_not_below_converged_dc_iteration(self):
        for seed, m_t in EXACTNESS_CASES:
            cfg, ch, w_r, batch, p_a, p_b = p2_instance(seed, m_t=m_t)
            assert batch.rank.tolist() == [m_t - 1]
            p_prime = _full_budget(cfg, ch, w_r, p_a, p_b)
            # the unconstrained-direction cold start, z along the image of h_ra
            na2, nb2 = batch.n2[0]
            anchor = (p_prime * na2, p_prime * nb2 * batch.r[0] ** 2)
            prev = dc_objective(ch, w_r, p_a, p_b, *anchor)
            for _ in range(1000):
                anchor = dc_step(ch, batch, p_a, p_b, anchor, cfg)[:2]
                val = dc_objective(ch, w_r, p_a, p_b, *anchor)
                if val - prev < cfg.conv_tol:
                    break
                prev = val
            w_t = txbf_row(batch, p_a, p_b, cfg)
            assert _txbf_value(ch, w_r, p_a, p_b, w_t) >= val - 1e-9

    def test_not_below_sampled_directions(self):
        for seed, m_t in EXACTNESS_CASES:
            cfg, ch, w_r, batch, p_a, p_b = p2_instance(seed, m_t=m_t)
            rx_a = abs(np.vdot(w_r, ch.h_ar)) ** 2
            rx_b = abs(np.vdot(w_r, ch.h_br)) ** 2
            p_prime = _full_budget(cfg, ch, w_r, p_a, p_b)
            n_t = relay_null_basis(ch, w_r)
            z = crandn(np.random.default_rng(seed), 20_000, n_t.shape[1])
            w = math.sqrt(p_prime) * (z / np.linalg.norm(z, axis=1, keepdims=True)) @ n_t.T
            s_a = np.abs(w @ ch.h_ra.conj()) ** 2
            s_b = np.abs(w @ ch.h_rb.conj()) ** 2
            sampled = np.max(
                np.log2(1 + p_b * rx_b * s_a / (s_a + p_a * abs(ch.h_aa) ** 2 + 1))
                + np.log2(1 + p_a * rx_a * s_b / (s_b + p_b * abs(ch.h_bb) ** 2 + 1)))
            w_t = txbf_row(batch, p_a, p_b, cfg)
            assert _txbf_value(ch, w_r, p_a, p_b, w_t) >= sampled - 1e-9

    def test_warm_start_never_lost(self):
        for seed, m_t in EXACTNESS_CASES:
            cfg, ch, w_r, batch, p_a, p_b = p2_instance(seed, m_t=m_t)
            rng = np.random.default_rng(seed)
            n_t = batch.n_t[0]
            p_prime = _full_budget(cfg, ch, w_r, p_a, p_b)
            cold = txbf_row(batch, p_a, p_b, cfg)
            # warm starts below the budget: a random direction, the cold answer
            # itself (a tie with the frontier) and the cold answer nudged off it
            z_cold = unit(n_t.conj().T @ cold)
            nudged = unit(z_cold + 1e-4 * crandn(rng, n_t.shape[1]))
            for z0 in (unit(crandn(rng, n_t.shape[1])), z_cold, nudged):
                w0 = 0.5 * math.sqrt(p_prime) * (n_t @ z0)
                at_budget = math.sqrt(p_prime) * (n_t @ z0)
                w_t = txbf_row(batch, p_a, p_b, cfg, w_t_init=w0)
                val = _txbf_value(ch, w_r, p_a, p_b, w_t)
                assert val >= _txbf_value(ch, w_r, p_a, p_b, at_budget) - 1e-12
                assert val >= _txbf_value(ch, w_r, p_a, p_b, cold) - 1e-12


class TestSolvePowerP2:
    def test_full_power_wins_with_weak_si(self):
        cfg = replace(CFG, p_r_max=1000.0, sigma2_a=1e-6, sigma2_b=1e-6)
        ch = sample_channels(cfg, 11)
        w_r, batch = combiner_row(ch, 0.5)
        n_t = relay_null_basis(ch, w_r)
        w_t = 0.3 * (n_t @ unit(crandn(np.random.default_rng(0), n_t.shape[1])))
        p_a, p_b, _ = power_row(w_t, batch, cfg)
        # enumerate the three binary candidates explicitly
        def sr(pa, pb):
            g_a = pb * abs(np.vdot(ch.h_ra, w_t)) ** 2 * abs(np.vdot(w_r, ch.h_br)) ** 2 / (
                abs(np.vdot(ch.h_ra, w_t)) ** 2 + pa * abs(ch.h_aa) ** 2 + 1)
            g_b = pa * abs(np.vdot(ch.h_rb, w_t)) ** 2 * abs(np.vdot(w_r, ch.h_ar)) ** 2 / (
                abs(np.vdot(ch.h_rb, w_t)) ** 2 + pb * abs(ch.h_bb) ** 2 + 1)
            return math.log2(1 + g_a) + math.log2(1 + g_b)
        cands = [(cfg.p_a_max, cfg.p_b_max), (cfg.p_a_max, 0.0), (0.0, cfg.p_b_max)]
        best = max(cands, key=lambda c: sr(*c))
        assert best == (cfg.p_a_max, cfg.p_b_max)
        assert (p_a, p_b) == best

    def test_zero_si_slack_budget_full_power(self):
        # with no source SI and a slack relay budget the argmax is the corner
        cfg = replace(CFG, p_r_max=1e6)
        ch = sample_channels(cfg, 30)
        ch = replace(ch, h_aa=0j, h_bb=0j)
        w_r, batch = combiner_row(ch, 0.5)
        n_t = relay_null_basis(ch, w_r)
        w_t = 0.2 * (n_t @ unit(crandn(np.random.default_rng(3), n_t.shape[1])))
        assert power_row(w_t, batch, cfg)[:2] == (cfg.p_a_max, cfg.p_b_max)

    def test_degenerate_budget(self):
        cfg, ch, w_r, batch, _, _ = p2_instance(12)
        n_t = relay_null_basis(ch, w_r)
        z = unit(crandn(np.random.default_rng(1), n_t.shape[1]))
        w_t = math.sqrt(cfg.p_r_max) * (n_t @ z)  # P_R / ||w_t||^2 = 1
        assert power_row(w_t, batch, cfg) == (0.0, 0.0, 0.0)

    def test_against_curve_grid_oracle(self):
        for seed in range(30):
            cfg, ch, w_r, batch, p_a0, p_b0 = p2_instance(600 + seed)
            w_t = txbf_row(batch, p_a0, p_b0, cfg)
            p_a, p_b, _ = power_row(w_t, batch, cfg)
            rx_a = abs(np.vdot(w_r, ch.h_ar)) ** 2
            rx_b = abs(np.vdot(w_r, ch.h_br)) ** 2
            tx_a = abs(np.vdot(ch.h_ra, w_t)) ** 2
            tx_b = abs(np.vdot(ch.h_rb, w_t)) ** 2
            nt2 = float(np.vdot(w_t, w_t).real)
            budget = cfg.p_r_max / nt2 - 1.0

            def sr(pa, pb):
                g_a = pb * tx_a * rx_b / (tx_a + pa * abs(ch.h_aa) ** 2 + 1)
                g_b = pa * tx_b * rx_a / (tx_b + pb * abs(ch.h_bb) ** 2 + 1)
                return np.log2(1 + g_a) + np.log2(1 + g_b)

            val = float(sr(p_a, p_b))
            # oracle: binary candidates plus a dense sweep of the active curve
            best = 0.0
            for ca, cb in ((cfg.p_a_max, cfg.p_b_max), (cfg.p_a_max, 0.0), (0.0, cfg.p_b_max)):
                if ca * rx_a + cb * rx_b <= budget + 1e-12:
                    best = max(best, float(sr(ca, cb)))
            pb_hi = min(cfg.p_b_max, budget / rx_b)
            pb_lo = max(0.0, (budget - rx_a * cfg.p_a_max) / rx_b)
            if pb_lo <= pb_hi:
                pbs = np.linspace(pb_lo, pb_hi, 2000)
                pas = np.clip((budget - pbs * rx_b) / rx_a, 0.0, cfg.p_a_max)
                best = max(best, float(np.max(sr(pas, pbs))))
            assert val >= best - 1e-5 * max(1.0, best)

    @pytest.mark.parametrize("seed, loopback, alpha", [(16, True, 0.45), (11, False, 0.55)])
    def test_corner_fixed_point_returns_the_corner(self, seed, loopback, alpha):
        # at these combiners the beamformer solved at (10, 10) keeps full
        # powers, but the budget curve through that corner, in the power
        # step's arithmetic, ends a few ulps inside it; the step must return
        # the corner itself, so the loop stops after one step
        ch = sample_channels(CFG, seed)
        ch = ch if loopback else zero_loopback(ch)
        _, batch = combiner_row(ch, alpha)
        w_t = txbf_row(batch, 10.0, 10.0, CFG)
        budget = CFG.p_r_max / float(np.vdot(w_t, w_t).real) - 1.0
        rx_a, rx_b = batch.rx[0]
        ends = ((budget - 10.0 * rx_a) / rx_b, (budget - 10.0 * rx_b) / rx_a)
        assert any(0.0 < abs(end - 10.0) <= 1e-12 for end in ends)
        assert power_row(w_t, batch, CFG)[:2] == (10.0, 10.0)
        pt = optimize_fixed_alpha_p2(ch, alpha, CFG)
        assert len(pt.trace) == 1 and (pt.powers.p_a, pt.powers.p_b) == (10.0, 10.0)

    def test_box_and_relay_feasibility(self):
        for seed in range(25):
            cfg, ch, w_r, batch, p_a0, p_b0 = p2_instance(700 + seed)
            w_t = txbf_row(batch, p_a0, p_b0, cfg)
            p_a, p_b, value = power_row(w_t, batch, cfg)
            assert -1e-9 <= p_a <= cfg.p_a_max + 1e-9
            assert -1e-9 <= p_b <= cfg.p_b_max + 1e-9
            assert relay_output_power(ch, w_t, w_r, p_a, p_b) <= cfg.p_r_max * (1 + 1e-9) + 1e-9
            # the objective it maximized, bit for bit
            g_a, g_b = sinr_pair(ch, w_t, w_r, p_a, p_b)
            assert value == math.log2(1.0 + g_a) + math.log2(1.0 + g_b)


def convolve_cubic(lins):
    """``np.convolve`` assembly of the stationarity cubic
    sum_i s_i b_i prod_{j != i} (a_j + b_j x), signs (+, -, +, -), for the
    four (a_j, b_j) in ``lins``, in the arithmetic of their type: its four
    coefficients in descending powers."""
    num = np.zeros(4, dtype=object)
    for i, (sgn, (_, bi)) in enumerate(zip((1, -1, 1, -1), lins)):
        term = np.array([sgn * bi], dtype=object)
        for j, (aj, bj) in enumerate(lins):
            if j != i:
                term = np.convolve(term, np.array([bj, aj], dtype=object))
        num[-term.size:] += term
    return num


def cubic_real_roots(tx_a, tx_b, rx_a, rx_b, budget, haa2, hbb2):
    """The real roots, ascending, of the stationarity cubic of a curve row
    of ``solve_power_p2``, assembled by ``convolve_cubic`` in exact rational
    arithmetic from the row's float inputs.  Its x^3 coefficient must be
    exactly 0.  Leading coefficients at most 1e-12 of the largest are
    dropped; the sign of B^2 - 4AC is exact, and the roots are ``np.roots``'
    of the quadratic's coefficients rounded to floats.  (In floats the
    assembly can cancel to zero: at a combiner with a rounding-level gain
    and a beamformer orthogonal to h_rb, a term of 1e-31 is added to two
    of +-0.08 that cancel exactly.)"""
    tx_a, tx_b, rx_a, rx_b, budget, haa2, hbb2 = map(
        Fraction, (tx_a, tx_b, rx_a, rx_b, budget, haa2, hbb2))
    a2, b1 = tx_a + 1 + haa2 * budget / rx_a, -haa2 * rx_b / rx_a
    d = tx_b + 1
    lins = [(a2, b1 + tx_a * rx_b), (a2, b1), (d + tx_b * budget, hbb2 - tx_b * rx_b), (d, hbb2)]
    c3, a, b, c = convolve_cubic(lins)
    assert c3 == 0
    scale = max(abs(a), abs(b), abs(c))
    if abs(a) <= Fraction(1, 10**12) * scale:
        return [] if abs(b) <= Fraction(1, 10**12) * scale else [float(-c / b)]
    if b * b < 4 * a * c:
        return []
    return sorted(np.roots([float(a), float(b), float(c)]).real.tolist())


def recorded_rows(monkeypatch):
    """A list that collects each row solve_power_p2 hands to
    ``_stationary_points``, as (its seven inputs, its roots)."""
    rows = []
    solve = sum_rate._stationary_points

    def record(*inputs):
        roots = solve(*inputs)
        rows.extend(zip(np.stack(np.broadcast_arrays(*inputs), axis=1).tolist(), roots.tolist()))
        return roots

    monkeypatch.setattr(sum_rate, "_stationary_points", record)
    return rows


def assert_cubic_roots(rows):
    """Each row's stationary points are the cubic's real roots: as many, and
    each within 1e-9 relative.  Returns how many rows have 0, 1 and 2."""
    counts = [0, 0, 0]
    for inputs, roots in rows:
        got = sorted(x for x in roots if x == x)
        ref = cubic_real_roots(*inputs)
        assert len(got) == len(ref), inputs
        for x, y in zip(got, ref):
            assert abs(x - y) <= 1e-9 * max(1.0, abs(y)), (inputs, got, ref)
        counts[len(got)] += 1
    return counts


def random_config(rng):
    p_src = 10.0 ** rng.uniform(-1.0, 6.0)
    return replace(CFG, m_t=int(rng.integers(2, 7)), m_r=int(rng.integers(1, 7)),
                   p_a_max=p_src, p_b_max=p_src, p_r_max=10.0 ** rng.uniform(-1.0, 6.0),
                   sigma2_a=rng.uniform(0.0, 1.0), sigma2_b=rng.uniform(0.0, 1.0),
                   sigma2_r=rng.uniform(0.0, 1.0), gain_br=10.0 ** rng.uniform(-2.0, 2.0))


def _power_p2_per_row(w_t, ctx, cfg):
    """``solve_power_p2`` with its winners picked, snapped to a corner and
    scored one row at a time in Python floats: the reference that its array
    form must equal bit for bit.  The candidates are built as there.
    Returns (p_a, p_b, value) and the number of rows snapped."""
    tx_a, tx_b = _abs2(_vdots(ctx.h_t, w_t[:, None, :])).T
    nt2 = _vdots(w_t, w_t).real
    rx_a, rx_b = ctx.rx.T
    haa2, hbb2 = ctx.si2.T
    pa_max, pb_max, k = cfg.p_a_max, cfg.p_b_max, len(nt2)
    budget = np.divide(cfg.p_r_max, nt2, out=np.full(k, math.inf), where=nt2 > 0) - 1.0
    live, gain_a, gain_b = budget > 0, rx_a > 1e-300, rx_b > 1e-300
    both = live & gain_a & gain_b
    bud, ra, rb = (np.where(both, budget, 0.0), np.where(both, rx_a, 1.0),
                   np.where(both, rx_b, 1.0))
    pa, pb = np.empty((k, 7)), np.empty((k, 7))
    pa[:, :3], pb[:, :3] = (pa_max, pa_max, 0.0), (pb_max, 0.0, pb_max)
    pb[:, 3] = pb_lo = np.maximum(0.0, (bud - ra * pa_max) / rb)
    pb[:, 4] = pb_hi = np.minimum(pb_max, bud / rb)
    curve = both & (pb_lo <= pb_hi + 1e-15)
    roots = _stationary_points(tx_a, tx_b, ra, rb, np.where(curve, bud, 0.0), haa2, hbb2)
    inside = curve[:, None] & (pb_lo[:, None] < roots) & (roots < pb_hi[:, None])
    pb[:, 5:] = np.where(inside, roots, np.nan)
    pb[~curve, 3:5] = np.nan
    pa[:, 3:] = (bud[:, None] - pb[:, 3:] * rb[:, None]) / ra[:, None]
    single_a, single_b = live & gain_a & ~gain_b, live & gain_b & ~gain_a
    pa[single_a, 3], pb[single_a, 3] = budget[single_a] / rx_a[single_a], 0.0
    pa[single_b, 3], pb[single_b, 3] = 0.0, budget[single_b] / rx_b[single_b]
    pa = np.minimum(np.maximum(pa, 0.0), pa_max)
    pb = np.minimum(np.maximum(pb, 0.0), pb_max)
    c_rx_a, c_rx_b, c_tx_a, c_tx_b, c_haa2, c_hbb2 = (x[:, None] for x in (
        rx_a, rx_b, tx_a, tx_b, haa2, hbb2))
    ok = pa * c_rx_a + pb * c_rx_b <= (budget * (1.0 + 1e-12) + 1e-12)[:, None]
    score = np.where(ok, (1.0 + pb * (c_tx_a * c_rx_b) / (c_tx_a + pa * c_haa2 + 1.0))
                     * (1.0 + pa * (c_tx_b * c_rx_a) / (c_tx_b + pb * c_hbb2 + 1.0)), -math.inf)

    def snap(p, p_max):
        if abs(p - p_max) <= sum_rate._CORNER_TOL * p_max:
            return p_max
        return 0.0 if p <= sum_rate._CORNER_TOL * p_max else None

    out, snapped = np.zeros((k, 3)), 0
    for row, (j, s_row, cand_a, cand_b, ta, tb, r_a, r_b, si_a, si_b) in enumerate(zip(
            score.argmax(axis=1).tolist(), score.tolist(), pa.tolist(), pb.tolist(),
            tx_a.tolist(), tx_b.tolist(), rx_a.tolist(), rx_b.tolist(), haa2.tolist(),
            hbb2.tolist())):
        if not s_row[j] > 1.0:
            continue
        p_a, p_b = cand_a[j], cand_b[j]
        if j >= 3 and None not in (snap(p_a, pa_max), snap(p_b, pb_max)):
            p_a, p_b = snap(p_a, pa_max), snap(p_b, pb_max)
            snapped += 1
        g_a = p_b * ta * r_b / (ta + p_a * si_a + 1.0)
        g_b = p_a * tb * r_a / (tb + p_b * si_b + 1.0)
        value = math.log2(1.0 + g_a) + math.log2(1.0 + g_b)
        if value > 0.0:
            out[row] = p_a, p_b, value
    return (out[:, 0], out[:, 1], out[:, 2]), snapped


class TestPowerP2Winners:
    def test_array_scoring_equals_per_row_scoring(self):
        # random configs and combiners, at the beamformers the solver
        # reaches from full powers (budget spent: the curve's ends snap to
        # the corner) and at random ones, zero and huge ones included
        rng = np.random.default_rng(28)
        snapped = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for _ in range(60):
                cfg = random_config(rng)
                chs = [sample_channels(cfg, int(s)) for s in rng.integers(0, 2**31, 3)]
                chs[2] = zero_loopback(chs[2])
                owners = np.repeat(np.arange(3), 8)
                _, batch = _combiner_table(*chs)(rng.uniform(0.0, 1.0, owners.size), owners)
                full = np.full(owners.size, cfg.p_a_max), np.full(owners.size, cfg.p_b_max)
                w_solved = solve_txbf_p2(batch, *full, cfg)
                w_random = crandn(rng, owners.size, cfg.m_t) * 10.0 ** rng.uniform(
                    -3.0, 3.0, (owners.size, 1))
                w_random[0] = 0.0
                for w_t in (w_solved, w_random):
                    got = solve_power_p2(w_t, batch, cfg)
                    ref, n = _power_p2_per_row(w_t, batch, cfg)
                    snapped += n
                    assert [x.tobytes() for x in got] == [x.tobytes() for x in ref]
        assert snapped > 0


class TestStationaryPoints:
    """The power step's closed-form quadratic against the real roots of the
    stationarity cubic assembled with ``np.convolve``."""

    def test_match_cubic_roots_on_solver_coefficients(self, monkeypatch):
        rows = recorded_rows(monkeypatch)
        rng = np.random.default_rng(24)
        cases = [(CFG, seed) for seed in range(5000, 5040)]
        cases += [(random_config(rng), int(rng.integers(2**31))) for _ in range(20)]
        for cfg, seed in cases:
            ch = sample_channels(cfg, seed)
            upper_bound_solve(ch, cfg)
        counts = assert_cubic_roots(rows)
        assert counts[2] > 1000 and counts[0] > 0

    def test_zero_source_si_is_linear(self, monkeypatch):
        # |h_aa| = |h_bb| = 0 makes the x^2 coefficient vanish
        rows = recorded_rows(monkeypatch)
        cfg = replace(CFG, sigma2_a=0.0, sigma2_b=0.0)
        for seed in range(5):
            max_sum_rate(sample_channels(cfg, seed), cfg)
        counts = assert_cubic_roots(rows)
        assert counts[1] > 0 and counts[2] == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_relay_budget_has_no_root(self, monkeypatch):
        # w_t = 0 gives tx_a = tx_b = 0: both pairs vanish and the quadratic
        # is zero
        rows = recorded_rows(monkeypatch)
        cfg = replace(CFG, p_r_max=0.0)
        assert max_sum_rate(sample_channels(cfg, 18), cfg).sum_rate == 0.0
        assert rows and assert_cubic_roots(rows) == [len(rows), 0, 0]

    def test_degree_drops(self):
        # rows (tx_a, tx_b, rx_a, rx_b, budget, |h_aa|^2, |h_bb|^2): a
        # quadratic, a linear row (no source SI), a nonzero constant (no
        # source SI, w_t orthogonal to h_ra) and the zero polynomial (w_t = 0)
        rows = np.array([[2.0, 0.7, 1.2, 0.8, 6.0, 0.3, 0.2],
                         [2.0, 0.5, 1.2, 0.8, 6.0, 0.0, 0.0],
                         [0.0, 0.5, 1.2, 0.8, 6.0, 0.0, 0.0],
                         [0.0, 0.0, 1.2, 0.8, 6.0, 0.3, 0.2]])
        got = _stationary_points(*rows.T)
        for row, roots in zip(rows.tolist(), got.tolist()):
            ref = cubic_real_roots(*row)
            assert sorted(x for x in roots if x == x) == pytest.approx(ref, rel=1e-12)
        assert [int(np.sum(~np.isnan(r))) for r in got] == [2, 1, 0, 0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_single_receive_gain(self):
        # a combiner that hears only A (rx_b = 0): A's rate is 0 and B's
        # rises in p_a and falls in p_b, so the step spends the relay budget
        # on p_a alone
        cfg, ch, _, batch, p_a, p_b = p2_instance(19)
        batch = replace(batch, rx=batch.rx * [100.0, 0.0])
        w_t = txbf_row(batch, p_a, p_b, cfg)
        budget = cfg.p_r_max / float(np.vdot(w_t, w_t).real) - 1.0
        assert budget / batch.rx[0, 0] < cfg.p_a_max
        got = power_row(w_t, batch, cfg)
        assert got[:2] == (pytest.approx(budget / batch.rx[0, 0], rel=1e-12), 0.0)
        assert got[2] > 0.0


class TestScalarKernels:
    def test_frontier_rows_match_batches_of_one(self):
        # the zoomed-grid frontier search treats its rows independently: a
        # batch returns, bit for bit, the levels its rows return alone; 100
        # rows span three of its row blocks, the last one partial
        rng = np.random.default_rng(23)
        cols = rng.uniform(0.0, 50.0, (6, 100))
        r = rng.uniform(0.0, 1.0, 100)
        r[:4] = (0.0, 1.0, 1.0 - 1e-12, 0.5)
        cols[4:, 5] = 0.0  # a silent direction: a flat frontier
        q = _frontier_argmax(*cols, r, CFG.grid_points)
        assert np.all((q >= 0.0) & (q <= 1.0))
        for k in range(100):
            alone = _frontier_argmax(*cols[:, k:k + 1], r[k:k + 1], CFG.grid_points)
            assert alone.tobytes() == q[k:k + 1].tobytes()

    def test_frontier_memory_does_not_grow_with_rows(self):
        # the search runs its rows in blocks, so a lockstep of 16
        # realizations' combiners needs no more memory than one block
        block = sum_rate._FRONTIER_BLOCK // CFG.grid_points
        rng = np.random.default_rng(24)

        def peak(rows):
            cols, r = rng.uniform(0.0, 50.0, (6, rows)), rng.uniform(0.0, 1.0, rows)
            tracemalloc.start()
            try:
                _frontier_argmax(*cols, r, CFG.grid_points)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(16 * CFG.alpha_grid) < 1.25 * peak(block)

    @pytest.mark.parametrize("null_dim", [None, 2, 3])
    def test_frontier_float_matches_array_element(self, null_dim):
        # dc_step's slice search evaluates the boundary at a float q in its
        # golden steps; it must give the bits a one-element array gives
        rng = np.random.default_rng(21)
        for _ in range(3000):
            r = float(rng.uniform(0.0, 1.0))
            q = float(rng.uniform(0.0, 1.0))
            e_a, e_b, k_a, k_b, top_a, top_b = rng.uniform(0.0, 50.0, 6)
            lo_f, hi_f = boundary_range(r, q, null_dim)
            lo_v, hi_v = boundary_range(r, np.array([q]), null_dim)
            assert np.float64(hi_f).tobytes() == hi_v[0].tobytes()
            if null_dim is not None:
                assert np.float64(lo_f).tobytes() == lo_v[0].tobytes()
            f_val = _sum_rate_bits(e_a, e_b, k_a, k_b, top_a * hi_f, q * top_b)
            v_val = _sum_rate_bits(e_a, e_b, k_a, k_b, top_a * hi_v, np.array([q]) * top_b)
            assert np.float64(f_val).tobytes() == v_val[0].tobytes()


class TestCombinerTable:
    def test_rows_match_tx_context(self):
        # the batched combiners and null-space reductions are those of
        # receive_combiner and relay_null_basis, up to rounding (directions
        # up to a common phase)
        for seed, kw in ((40, {}), (41, {"m_t": 4, "m_r": 2}), (42, {"sigma2_r": 0.0})):
            cfg = replace(CFG, **kw)
            ch = sample_channels(cfg, seed)
            alphas = np.linspace(0.0, 1.0, 7)
            w_r, batch = _combiner_table(ch)(alphas)
            n = cfg.m_t if kw == {"sigma2_r": 0.0} else cfg.m_t - 1
            assert batch.rank.tolist() == [n] * alphas.size
            for k, alpha in enumerate(alphas):
                ref_w_r = receive_combiner(ch, alpha)
                n_t = relay_null_basis(ch, ref_w_r)
                a_t, b_t = n_t.conj().T @ ch.h_ra, n_t.conj().T @ ch.h_rb
                na2, nb2 = np.vdot(a_t, a_t).real, np.vdot(b_t, b_t).real
                d2, d1 = a_t / np.sqrt(na2), b_t / np.sqrt(nb2)
                assert np.allclose(w_r[k], ref_w_r, rtol=0.0, atol=1e-13)
                scale = 1e-12 * sum(float(np.vdot(h, h).real)
                                    for h in (ch.h_ar, ch.h_br, ch.h_ra, ch.h_rb))
                assert np.allclose(batch.n2[k], (na2, nb2), rtol=1e-12, atol=scale)
                assert np.allclose(batch.rx[k], receive_gains(ch, ref_w_r), rtol=1e-12, atol=scale)
                assert abs(batch.r[k] - abs(np.vdot(d2, d1))) <= 1e-12
                # same span, and the images' inner products are the same
                assert np.allclose(batch.n_t[k] @ batch.n_t[k].conj().T,
                                   n_t @ n_t.conj().T, atol=1e-12)
                assert not batch.n_t[k, :, n:].any() and not batch.d[k, n:].any()
                assert abs(np.vdot(batch.d[k, :n, 0], batch.d[k, :n, 1]) - np.vdot(d2, d1)) <= 1e-12

    def test_zero_loopback_rows_keep_every_direction(self, monkeypatch):
        # with the loopback zeroed every null space is the whole space: each
        # row has rank m_t and the identity basis, and a table call builds
        # its images, norms, directions, r and phi once, for all its rows
        calls = []
        geometry = rate_region_module._tx_geometry
        monkeypatch.setattr(rate_region_module, "_tx_geometry",
                            lambda *args: calls.append(1) or geometry(*args))
        ch = zero_loopback(sample_channels(CFG, 43))
        table = _combiner_table(ch)
        for alphas in (np.linspace(0.0, 1.0, 21), np.array([0.3]), np.array([0.1, 0.9])):
            calls.clear()
            _, batch = table(alphas)
            assert batch.rank.tolist() == [CFG.m_t] * alphas.size
            assert np.array_equal(batch.n_t, np.broadcast_to(np.eye(CFG.m_t), batch.n_t.shape))
            assert len(calls) == 1
        assert upper_bound_solve(sample_channels(CFG, 43), CFG).sum_rate > 0
        entries = rate_region(ch, 9, CFG)
        assert entries[-1][1] is not None

    def test_mixed_null_dimensions(self):
        # h_br in the left null space of H_rr (m_r > m_t): at alpha = 1 the
        # combiner is h_br's direction and its loopback row vanishes, so that
        # combiner keeps the whole transmit space while the others lose one
        # dimension; one batch holds both ranks and matches each combiner
        # solved alone, for both problems
        cfg = replace(CFG, m_t=2, m_r=3)
        ch = sample_channels(cfg, 44)
        left_null = null_space_basis(ch.h_rr)[:, 0]
        ch = replace(ch, h_br=left_null * 0.8)
        alphas = np.linspace(0.0, 1.0, 5)
        _, batch = _combiner_table(ch)(alphas)
        assert batch.rank.tolist() == [1, 1, 1, 1, 2]
        points = optimize_fixed_alpha_p2(ch, alphas, cfg)
        for k, alpha in enumerate(alphas):
            alone = optimize_fixed_alpha_p2(ch, float(alpha), cfg)
            assert alone.trace == points.traces[k]
            assert np.array_equal(alone.beamformer.w_t, points.w_t[k])
            assert zf_residual(ch, alone.beamformer.w_t, alone.beamformer.w_r) <= 1e-12
        assert max_sum_rate(ch, cfg).sum_rate >= max(points.values) * (1.0 - 1e-12)
        # B's target at a tenth of its largest value: every combiner is
        # feasible; at half of it the alpha = 1 combiner is not
        for share, feasible in ((0.1, [True] * 5), (0.5, [True] * 4 + [False])):
            gamma_b = share * _gamma_b_max(_grid(_combiner_table(ch), cfg), cfg)[0]
            points = optimize_fixed_alpha_p1(ch, alphas, gamma_b, cfg)
            assert points.ok.tolist() == feasible
            for k, alpha in enumerate(alphas):
                if not feasible[k]:
                    with pytest.raises(Infeasible):
                        optimize_fixed_alpha_p1(ch, float(alpha), gamma_b, cfg)
                    continue
                alone = optimize_fixed_alpha_p1(ch, float(alpha), gamma_b, cfg)
                assert alone.trace == points.traces[k]
                assert np.array_equal(alone.beamformer.w_t, points.w_t[k])
                assert zf_residual(ch, alone.beamformer.w_t, alone.beamformer.w_r) <= 1e-12
            assert max_rate_given_rb(ch, math.log2(1.0 + gamma_b), cfg).gamma_a >= (
                max(points.values) * (1.0 - 1e-12))


class TestAlternationP2:
    def test_zero_si_keeps_full_power(self):
        cfg = replace(CFG, sigma2_a=0.0, sigma2_b=0.0, sigma2_r=0.0)
        ch = sample_channels(cfg, 13)
        pt = optimize_fixed_alpha_p2(ch, 0.5, cfg)
        assert pt.powers.p_a == cfg.p_a_max
        assert pt.powers.p_b == cfg.p_b_max

    def test_huge_conv_tol_single_iteration(self, monkeypatch):
        monkeypatch.setattr(SystemConfig, "conv_tol", 1e9)
        ch = sample_channels(CFG, 14)
        pt = optimize_fixed_alpha_p2(ch, 0.5, CFG)
        assert len(pt.trace) == 1

    def test_deterministic_golden_trace(self):
        ch = sample_channels(CFG, 15)
        pt1 = optimize_fixed_alpha_p2(ch, 0.35, CFG)
        pt2 = optimize_fixed_alpha_p2(ch, 0.35, CFG)
        assert pt1.trace == pt2.trace
        assert pt1.sum_rate == pt2.sum_rate
        assert np.all(np.diff(pt1.trace) >= -1e-9)

    def test_trace_monotone_random(self):
        for seed in range(20):
            ch = sample_channels(CFG, 800 + seed)
            alpha = np.random.default_rng(seed).uniform(0, 1)
            pt = optimize_fixed_alpha_p2(ch, alpha, CFG)
            assert np.all(np.diff(pt.trace) >= -1e-9)
            assert abs(pt.rate_a - math.log2(1 + pt.gamma_a)) < 1e-12
            assert abs(pt.rate_b - math.log2(1 + pt.gamma_b)) < 1e-12


class TestMaxSumRate:
    def test_dominates_grid_endpoints(self):
        ch = sample_channels(CFG, 16)
        pt = max_sum_rate(ch, CFG)
        for alpha in np.linspace(0, 1, CFG.alpha_grid):
            end = optimize_fixed_alpha_p2(ch, float(alpha), CFG)
            assert pt.sum_rate >= end.sum_rate - 1e-9

    def test_zero_relay_budget(self):
        cfg = replace(CFG, p_r_max=0.0)
        ch = sample_channels(cfg, 17)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert max_sum_rate(ch, cfg).sum_rate == 0.0
            assert upper_bound_solve(ch, cfg).sum_rate == 0.0

    def test_structural_invariants(self):
        for seed in range(10):
            ch = sample_channels(CFG, 900 + seed)
            pt = max_sum_rate(ch, CFG)
            assert pt.powers.p_r <= CFG.p_r_max + 1e-8
            assert 0 <= pt.powers.p_a <= CFG.p_a_max + 1e-9
            assert 0 <= pt.powers.p_b <= CFG.p_b_max + 1e-9
            assert zf_residual(ch, pt.beamformer.w_t, pt.beamformer.w_r) <= 1e-9 * max(
                1.0, np.linalg.norm(ch.h_rr) * np.linalg.norm(pt.beamformer.w_t))


# max_sum_rate(sample_channels(CFG, seed), CFG).sum_rate for seeds 0..7, as
# computed before the solver's golden steps and power-step cubic moved to
# scalar arithmetic; a speed-up of the solver must not move them
PINNED_SUM_RATES = [
    4.428751047072099,
    3.17878257727453,
    2.7516907062783535,
    3.7642135003966093,
    5.008144288057904,
    4.8690276375575605,
    4.4528001343887755,
    4.427437654630337,
]


@pytest.mark.parametrize("seed", range(len(PINNED_SUM_RATES)))
def test_pinned_sum_rate(seed):
    got = max_sum_rate(sample_channels(CFG, seed), CFG).sum_rate
    assert got == pytest.approx(PINNED_SUM_RATES[seed], rel=1e-9, abs=0.0)
