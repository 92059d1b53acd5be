import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fdtwrc.baselines import upper_bound_solve
from fdtwrc.model import (
    SystemConfig,
    receive_combiner,
    relay_null_basis,
    relay_output_power,
    sample_channels,
    sinr_pair,
    zero_loopback,
    zf_residual,
)
from fdtwrc.oracles import dc_grid_oracle
from fdtwrc.rate_region import _tx_context, boundary_range
from fdtwrc.sum_rate import (
    _stationarity_cubic,
    _sum_rate_bits,
    dc_linearized_objective,
    dc_objective,
    dc_step,
    max_sum_rate,
    optimize_fixed_alpha_p2,
    solve_power_p2,
    solve_txbf_p2,
)

CFG = SystemConfig()


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def unit(v):
    return v / np.linalg.norm(v)


def instance(seed, m_t=3, m_r=3, **cfg_kw):
    cfg = replace(CFG, m_t=m_t, m_r=m_r, **cfg_kw)
    ch = sample_channels(cfg, seed)
    rng = np.random.default_rng(seed)
    w_r = receive_combiner(ch, rng.uniform(0, 1))
    p_a, p_b = rng.uniform(0.5, cfg.p_a_max, size=2)
    return cfg, ch, w_r, p_a, p_b


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


def s_a_bounds(ctx, p_prime, q):
    """Range of s_a = p_prime |a_t^H z|^2 over unit null-space z with
    |d1^H z|^2 = q, for a null space of dimension 3 or more."""
    lo, hi = boundary_range(ctx.r, q, 3)
    return p_prime * ctx.na2 * lo, p_prime * ctx.na2 * hi


class TestFeasibleSetBounds:
    def test_q_one_collapses(self):
        _, ch, w_r, p_a, p_b = instance(5)
        ctx = _tx_context(ch, w_r)
        p_prime = 2.0
        lo, hi = s_a_bounds(ctx, p_prime, 1.0)
        target = p_prime * ctx.na2 * ctx.r**2
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
        w_r = receive_combiner(ch, 0.5)
        lo, hi = s_a_bounds(_tx_context(ch, w_r), 3.0, 0.0)
        assert lo == 0.0
        assert abs(hi - 3.0) < 1e-9

    def test_against_constrained_sampling_oracle(self):
        # null dimension 3 so the generic bounds apply
        cfg, ch, w_r, _, _ = instance(8, m_t=4)
        ctx = _tx_context(ch, w_r)
        rng = np.random.default_rng(8)
        p_prime = 2.5
        for q in (0.15, 0.5, 0.85):
            lo, hi = s_a_bounds(ctx, p_prime, q)
            # envelope of the bounds over the sampling window |q' - q| < 0.01
            win = [s_a_bounds(ctx, p_prime, qq) for qq in (q - 0.01, q, q + 0.01)]
            lo_min = min(w[0] for w in win)
            hi_max = max(w[1] for w in win)
            z = crandn(rng, 400_000, ctx.n)
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            qs = np.abs(z @ ctx.d1.conj()) ** 2
            sel = np.abs(qs - q) < 0.01
            s_a = p_prime * np.abs(z[sel] @ ctx.d2.conj()) ** 2 * ctx.na2
            assert s_a.min() >= lo_min - 1e-9
            assert s_a.min() <= lo + 0.05 * (hi - lo + 1e-9)
            assert s_a.max() <= hi_max + 1e-9
            assert s_a.max() >= hi - 0.05 * (hi - lo + 1e-9)


class TestDcStep:
    def test_fixed_point(self):
        cfg, ch, w_r, p_a, p_b = instance(9)
        ctx = _tx_context(ch, w_r)
        anchor = (0.0, 0.0)
        for _ in range(300):
            s_a, s_b, _ = dc_step(ch, ctx, p_a, p_b, anchor, cfg)
            if abs(s_a - anchor[0]) < 1e-10 and abs(s_b - anchor[1]) < 1e-10:
                break
            anchor = (s_a, s_b)
        # an anchor optimal for its own linearization reproduces itself
        s_a2, s_b2, _ = dc_step(ch, ctx, p_a, p_b, anchor, cfg)
        assert abs(s_a2 - anchor[0]) < 1e-6 * max(1.0, anchor[0])
        assert abs(s_b2 - anchor[1]) < 1e-6 * max(1.0, anchor[1])

    def test_matches_grid_oracle(self):
        for seed in range(20):
            cfg, ch, w_r, p_a, p_b = instance(100 + seed)
            ctx = _tx_context(ch, w_r)
            rng = np.random.default_rng(seed)
            q0 = rng.uniform(0, 1)
            anchor = (ctx.na2 * q0, ctx.nb2 * q0 * 0.5)
            s_a, s_b, _ = dc_step(ch, ctx, p_a, p_b, anchor, cfg)
            val = dc_linearized_objective(ch, w_r, p_a, p_b, s_a, s_b, anchor)
            oracle = dc_grid_oracle(ch, w_r, p_a, p_b, anchor, cfg, n=700)
            assert val >= oracle.best_value - 1e-4 * max(1.0, abs(oracle.best_value))

    def test_improvement_and_reconstruction(self):
        for seed in range(25):
            cfg, ch, w_r, p_a, p_b = instance(200 + seed)
            ctx = _tx_context(ch, w_r)
            rng = np.random.default_rng(seed)
            z0 = unit(crandn(rng, ctx.n))
            rx_a = abs(np.vdot(w_r, ch.h_ar)) ** 2
            rx_b = abs(np.vdot(w_r, ch.h_br)) ** 2
            p_prime = cfg.p_r_max / (p_a * rx_a + p_b * rx_b + 1.0)
            anchor = (p_prime * abs(np.vdot(ctx.a_t, z0)) ** 2,
                      p_prime * abs(np.vdot(ctx.b_t, z0)) ** 2)
            s_a, s_b, w_t = dc_step(ch, ctx, p_a, p_b, anchor, cfg)
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
            cfg, ch, w_r, p_a, p_b = instance(300 + seed, m_t=2, m_r=2)
            ctx = _tx_context(ch, w_r)
            w_t = solve_txbf_p2(ch, ctx, p_a, p_b, cfg)
            val = dc_objective(ch, w_r, p_a, p_b,
                               abs(np.vdot(ch.h_ra, w_t)) ** 2,
                               abs(np.vdot(ch.h_rb, w_t)) ** 2)
            rx_a = abs(np.vdot(w_r, ch.h_ar)) ** 2
            rx_b = abs(np.vdot(w_r, ch.h_br)) ** 2
            p_prime = cfg.p_r_max / (p_a * rx_a + p_b * rx_b + 1.0)
            pt = np.linspace(0, p_prime, 100_001)
            dense = np.max(np.log2(1 + p_b * rx_b * pt * ctx.na2 / (pt * ctx.na2 + p_a * abs(ch.h_aa) ** 2 + 1))
                           + np.log2(1 + p_a * rx_a * pt * ctx.nb2 / (pt * ctx.nb2 + p_b * abs(ch.h_bb) ** 2 + 1)))
            assert val >= dense - 1e-6 * max(1.0, dense)

    def test_no_zf_equals_zero_loopback_run(self):
        cfg, ch, w_r, p_a, p_b = instance(10, sigma2_r=0.0)
        assert np.all(ch.h_rr == 0)
        w_t = solve_txbf_p2(ch, _tx_context(ch, w_r), p_a, p_b, cfg)
        ch0 = zero_loopback(ch)
        w_t2 = solve_txbf_p2(ch0, _tx_context(ch0, w_r), p_a, p_b, cfg)
        v1 = dc_objective(ch, w_r, p_a, p_b, abs(np.vdot(ch.h_ra, w_t)) ** 2,
                          abs(np.vdot(ch.h_rb, w_t)) ** 2)
        v2 = dc_objective(ch, w_r, p_a, p_b, abs(np.vdot(ch.h_ra, w_t2)) ** 2,
                          abs(np.vdot(ch.h_rb, w_t2)) ** 2)
        assert abs(v1 - v2) < 1e-6

    def test_not_below_cold_start(self):
        for seed in range(25):
            cfg, ch, w_r, p_a, p_b = instance(400 + seed)
            ctx = _tx_context(ch, w_r)
            w_t = solve_txbf_p2(ch, ctx, p_a, p_b, cfg)
            cold = math.sqrt(_full_budget(cfg, ch, w_r, p_a, p_b)) * (ctx.n_t @ ctx.d2)
            val = _txbf_value(ch, w_r, p_a, p_b, w_t)
            assert val >= _txbf_value(ch, w_r, p_a, p_b, cold) * (1.0 - 1e-12)

    def test_budget_and_zf(self):
        for seed in range(15):
            cfg, ch, w_r, p_a, p_b = instance(500 + seed)
            w_t = solve_txbf_p2(ch, _tx_context(ch, w_r), p_a, p_b, cfg)
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
        w_r = receive_combiner(ch, alpha)
        w_t = solve_txbf_p2(ch, _tx_context(ch, w_r), 0.0, 1.0, cfg)
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
            cfg, ch, w_r, p_a, p_b = instance(seed, m_t=m_t)
            ctx = _tx_context(ch, w_r)
            assert ctx.n == m_t - 1
            p_prime = _full_budget(cfg, ch, w_r, p_a, p_b)
            # the unconstrained-direction cold start, z along the image of h_ra
            anchor = (p_prime * ctx.na2, p_prime * ctx.nb2 * ctx.r**2)
            prev = dc_objective(ch, w_r, p_a, p_b, *anchor)
            for _ in range(1000):
                anchor = dc_step(ch, ctx, p_a, p_b, anchor, cfg)[:2]
                val = dc_objective(ch, w_r, p_a, p_b, *anchor)
                if val - prev < cfg.conv_tol:
                    break
                prev = val
            w_t = solve_txbf_p2(ch, ctx, p_a, p_b, cfg)
            assert _txbf_value(ch, w_r, p_a, p_b, w_t) >= val - 1e-9

    def test_not_below_sampled_directions(self):
        for seed, m_t in EXACTNESS_CASES:
            cfg, ch, w_r, p_a, p_b = instance(seed, m_t=m_t)
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
            w_t = solve_txbf_p2(ch, _tx_context(ch, w_r), p_a, p_b, cfg)
            assert _txbf_value(ch, w_r, p_a, p_b, w_t) >= sampled - 1e-9

    def test_warm_start_never_lost(self):
        for seed, m_t in EXACTNESS_CASES:
            cfg, ch, w_r, p_a, p_b = instance(seed, m_t=m_t)
            rng = np.random.default_rng(seed)
            ctx = _tx_context(ch, w_r)
            n_t = ctx.n_t
            p_prime = _full_budget(cfg, ch, w_r, p_a, p_b)
            cold = solve_txbf_p2(ch, ctx, p_a, p_b, cfg)
            # warm starts below the budget: a random direction, the cold answer
            # itself (a tie with the frontier) and the cold answer nudged off it
            z_cold = unit(n_t.conj().T @ cold)
            nudged = unit(z_cold + 1e-4 * crandn(rng, n_t.shape[1]))
            for z0 in (unit(crandn(rng, n_t.shape[1])), z_cold, nudged):
                w0 = 0.5 * math.sqrt(p_prime) * (n_t @ z0)
                at_budget = math.sqrt(p_prime) * (n_t @ z0)
                w_t = solve_txbf_p2(ch, ctx, p_a, p_b, cfg, w_t_init=w0)
                val = _txbf_value(ch, w_r, p_a, p_b, w_t)
                assert val >= _txbf_value(ch, w_r, p_a, p_b, at_budget) - 1e-12
                assert val >= _txbf_value(ch, w_r, p_a, p_b, cold) - 1e-12


class TestSolvePowerP2:
    def test_full_power_wins_with_weak_si(self):
        cfg = replace(CFG, p_r_max=1000.0, sigma2_a=1e-6, sigma2_b=1e-6)
        ch = sample_channels(cfg, 11)
        w_r = receive_combiner(ch, 0.5)
        n_t = relay_null_basis(ch, w_r)
        w_t = 0.3 * (n_t @ unit(crandn(np.random.default_rng(0), n_t.shape[1])))
        p_a, p_b, _ = solve_power_p2(ch, w_t, _tx_context(ch, w_r), cfg)
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
        w_r = receive_combiner(ch, 0.5)
        n_t = relay_null_basis(ch, w_r)
        w_t = 0.2 * (n_t @ unit(crandn(np.random.default_rng(3), n_t.shape[1])))
        assert solve_power_p2(ch, w_t, _tx_context(ch, w_r), cfg)[:2] == (cfg.p_a_max, cfg.p_b_max)

    def test_degenerate_budget(self):
        cfg, ch, w_r, _, _ = instance(12)
        n_t = relay_null_basis(ch, w_r)
        z = unit(crandn(np.random.default_rng(1), n_t.shape[1]))
        w_t = math.sqrt(cfg.p_r_max) * (n_t @ z)  # P_R / ||w_t||^2 = 1
        assert solve_power_p2(ch, w_t, _tx_context(ch, w_r), cfg) == (0.0, 0.0, 0.0)

    def test_against_curve_grid_oracle(self):
        for seed in range(30):
            cfg, ch, w_r, p_a0, p_b0 = instance(600 + seed)
            w_t = solve_txbf_p2(ch, _tx_context(ch, w_r), p_a0, p_b0, cfg)
            p_a, p_b, _ = solve_power_p2(ch, w_t, _tx_context(ch, w_r), cfg)
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

    def test_box_and_relay_feasibility(self):
        for seed in range(25):
            cfg, ch, w_r, p_a0, p_b0 = instance(700 + seed)
            w_t = solve_txbf_p2(ch, _tx_context(ch, w_r), p_a0, p_b0, cfg)
            p_a, p_b, value = solve_power_p2(ch, w_t, _tx_context(ch, w_r), cfg)
            assert -1e-9 <= p_a <= cfg.p_a_max + 1e-9
            assert -1e-9 <= p_b <= cfg.p_b_max + 1e-9
            assert relay_output_power(ch, w_t, w_r, p_a, p_b) <= cfg.p_r_max * (1 + 1e-9) + 1e-9
            # the objective it maximized, bit for bit
            g_a, g_b = sinr_pair(ch, w_t, w_r, p_a, p_b)
            assert value == math.log2(1.0 + g_a) + math.log2(1.0 + g_b)


def convolve_cubic(lins):
    """np.convolve assembly of the stationarity cubic (descending powers)."""
    num = np.zeros(4)
    for i, (sgn, (_, bi)) in enumerate(zip((1.0, -1.0, 1.0, -1.0), lins)):
        term = np.array([sgn * bi])
        for j, (aj, bj) in enumerate(lins):
            if j != i:
                term = np.convolve(term, np.array([bj, aj]))
        num[-term.size:] += term
    return num


class TestScalarKernels:
    def test_stationarity_cubic_matches_convolve(self):
        rng = np.random.default_rng(20)
        for _ in range(5000):
            lins = [tuple(rng.standard_normal(2) * 10.0 ** rng.uniform(-4, 4, size=2))
                    for _ in range(4)]
            if rng.random() < 0.2:
                lins[rng.integers(4)] = (float(rng.standard_normal()), 0.0)
            got = np.array(_stationarity_cubic(lins))
            assert got.tobytes() == convolve_cubic(lins).tobytes(), lins

    def test_stationarity_cubic_on_solver_coefficients(self):
        # the (a_j, b_j) that solve_power_p2 builds, from real beamformers
        for seed in range(40):
            cfg, ch, w_r, p_a, p_b = instance(1100 + seed)
            w_t = solve_txbf_p2(ch, _tx_context(ch, w_r), p_a, p_b, cfg)
            rx_a = abs(np.vdot(w_r, ch.h_ar)) ** 2
            rx_b = abs(np.vdot(w_r, ch.h_br)) ** 2
            tx_a = abs(np.vdot(ch.h_ra, w_t)) ** 2
            tx_b = abs(np.vdot(ch.h_rb, w_t)) ** 2
            haa2, hbb2 = abs(ch.h_aa) ** 2, abs(ch.h_bb) ** 2
            budget = cfg.p_r_max / float(np.vdot(w_t, w_t).real) - 1.0
            a2, b2 = tx_a + 1.0 + haa2 * budget / rx_a, -haa2 * rx_b / rx_a
            a4, b4 = tx_b + 1.0, hbb2
            lins = [(a2, b2 + tx_a * rx_b), (a2, b2), (a4 + tx_b * budget, b4 - tx_b * rx_b),
                    (a4, b4)]
            assert np.array(_stationarity_cubic(lins)).tobytes() == convolve_cubic(lins).tobytes()

    @pytest.mark.parametrize("null_dim", [None, 2, 3])
    def test_frontier_float_matches_array_element(self, null_dim):
        # a golden step evaluates the frontier at a float q; it must give the
        # bits a one-element array gave
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
            assert upper_bound_solve(ch, cfg, max_sum_rate(ch, cfg)).sum_rate == 0.0

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
