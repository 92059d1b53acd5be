from dataclasses import replace

import numpy as np
import pytest

from fdtwrc.model import (
    SystemConfig,
    relay_null_basis,
    sample_channels,
    sinr_pair,
)
from fdtwrc.oracles import (
    dc_grid_oracle,
    grid_power_oracle,
    lagrangian_boundary_oracle,
    sampled_beamformer_oracle,
)
from one_row import combiner_row

CFG = SystemConfig()


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def unit(v):
    return v / np.linalg.norm(v)


class TestGridPowerOracle:
    def test_minimum_grid_size(self):
        ch = sample_channels(CFG, 0)
        w_r = combiner_row(ch, 0.5)[0]
        with pytest.raises(ValueError):
            grid_power_oracle(ch, np.ones(3, dtype=complex), w_r, "p2", 10, CFG)

    def test_refinement_monotone(self):
        ch = sample_channels(CFG, 1)
        w_r = combiner_row(ch, 0.5)[0]
        w_t = 0.5 * unit(crandn(np.random.default_rng(0), CFG.m_t))
        prev = -np.inf
        for n in (100, 200, 400):
            rep = grid_power_oracle(ch, w_t, w_r, "p2", n, CFG)
            assert rep.best_value >= prev - 1e-12
            prev = rep.best_value

    def test_infeasible_marker(self):
        ch = sample_channels(CFG, 2)
        w_r = combiner_row(ch, 0.5)[0]
        w_t = 10.0 * unit(crandn(np.random.default_rng(1), CFG.m_t))  # power > budget
        rep = grid_power_oracle(ch, w_t, w_r, "p2", 100, CFG)
        assert rep.best_value == -np.inf

    def test_single_feasible_point(self):
        # budget exactly consumed by the noise term: only (0, 0) is feasible
        ch = sample_channels(CFG, 20)
        w_r = combiner_row(ch, 0.5)[0]
        w_t = np.sqrt(CFG.p_r_max) * unit(crandn(np.random.default_rng(4), CFG.m_t))
        rep = grid_power_oracle(ch, w_t, w_r, "p2", 100, CFG)
        assert rep.best_point == (0.0, 0.0)
        assert rep.best_value == 0.0

    def test_deterministic(self):
        ch = sample_channels(CFG, 3)
        w_r = combiner_row(ch, 0.4)[0]
        w_t = 0.4 * unit(crandn(np.random.default_rng(2), CFG.m_t))
        a = grid_power_oracle(ch, w_t, w_r, "p1", 150, CFG, gamma_b=0.2)
        b = grid_power_oracle(ch, w_t, w_r, "p1", 150, CFG, gamma_b=0.2)
        assert a.best_value == b.best_value
        assert a.best_point == b.best_point


class TestSampledBeamformerOracle:
    def test_sample_floor(self):
        ch = sample_channels(CFG, 4)
        w_r = combiner_row(ch, 0.5)[0]
        with pytest.raises(ValueError):
            sampled_beamformer_oracle(ch, w_r, {"p_a": 1, "p_b": 1, "p_r_max": 10},
                                      "gain_a", 100, seed=0)

    def test_infeasible_constraints_give_minus_inf(self):
        ch = sample_channels(CFG, 5)
        w_r = combiner_row(ch, 0.5)[0]
        rep = sampled_beamformer_oracle(
            ch, w_r, {"p_a": 1.0, "p_b": 1.0, "p_r_max": 10.0, "gamma_b": 1e9},
            "gain_a", 10_000, seed=0)
        assert rep.best_value == -np.inf

    def test_deterministic_given_seed(self):
        ch = sample_channels(CFG, 6)
        w_r = combiner_row(ch, 0.5)[0]
        cons = {"p_a": 2.0, "p_b": 3.0, "p_r_max": 10.0, "gamma_b": 0.1}
        a = sampled_beamformer_oracle(ch, w_r, cons, "gain_a", 10_000, seed=7)
        b = sampled_beamformer_oracle(ch, w_r, cons, "gain_a", 10_000, seed=7)
        assert a.best_value == b.best_value

    def test_active_threshold_matches_boundary_oracle(self):
        # criterion-5 instance (seed 49): 2-D null space, B's threshold binds;
        # the optimum is p_bar |a_t|^2 max |d2^H z|^2 on |d1^H z|^2 = q
        rng = np.random.default_rng(49)
        ch = sample_channels(CFG, 49)
        w_r = combiner_row(ch, rng.uniform(0, 1))[0]
        p_a, p_b = rng.uniform(1, 10, size=2)
        rx_a = abs(np.vdot(w_r, ch.h_ar)) ** 2
        rx_b = abs(np.vdot(w_r, ch.h_br)) ** 2
        gamma_b = rng.uniform(0.05, 0.5) * p_a * rx_a
        n_t = relay_null_basis(ch, w_r)
        assert n_t.shape[1] == 2
        a_t = n_t.conj().T @ ch.h_ra
        b_t = n_t.conj().T @ ch.h_rb
        p_bar = CFG.p_r_max / (p_a * rx_a + p_b * rx_b + 1.0)
        s_b_min = gamma_b * (p_b * abs(ch.h_bb) ** 2 + 1.0) / (p_a * rx_a - gamma_b)
        q = s_b_min / (p_bar * np.linalg.norm(b_t) ** 2)
        assert 0.0 < q < 1.0
        expected = p_bar * np.linalg.norm(a_t) ** 2 * lagrangian_boundary_oracle(
            unit(b_t), unit(a_t), q).best_value
        # the unconstrained optimum z = a_t/|a_t| misses B's threshold
        assert p_bar * abs(np.vdot(b_t, unit(a_t))) ** 2 < s_b_min
        rep = sampled_beamformer_oracle(
            ch, w_r, {"p_a": p_a, "p_b": p_b, "p_r_max": CFG.p_r_max, "gamma_b": gamma_b},
            "gain_a", 20_000, seed=49)
        assert abs(rep.best_value - expected) <= 1e-9 * expected
        (w_t,) = rep.best_point
        _, g_b = sinr_pair(ch, w_t, w_r, p_a, p_b)
        assert g_b >= gamma_b * (1 - 1e-12)

    @pytest.mark.parametrize("case", ["no_threshold", "negative_threshold",
                                      "unreachable_sinr", "zero_b_channel", "q_above_one"])
    def test_threshold_phase_edges_keep_phase_one(self, case):
        ch = sample_channels(CFG, 12)
        w_r = combiner_row(ch, 0.5)[0]
        rx_a = abs(np.vdot(w_r, ch.h_ar)) ** 2
        cons = {"p_a": 2.0, "p_b": 3.0, "p_r_max": 10.0}
        if case == "negative_threshold":
            cons["gamma_b"] = -1.0
        elif case == "unreachable_sinr":
            cons["gamma_b"] = 2.0 * rx_a
        elif case == "zero_b_channel":
            ch = replace(ch, h_rb=np.zeros_like(ch.h_rb))
            cons["gamma_b"] = 0.5 * rx_a
        elif case == "q_above_one":
            cons["gamma_b"] = 2.0 * rx_a * (1 - 1e-9)
        rep = sampled_beamformer_oracle(ch, w_r, cons, "gain_a", 10_000, seed=3)
        assert not np.isnan(rep.best_value)
        assert rep.samples == 10_000 + 60 * 64  # phase 2 skipped
        if case in ("no_threshold", "negative_threshold"):
            assert np.isfinite(rep.best_value)
        else:
            assert rep.best_value == -np.inf

    def test_phase_invariance_of_objective(self):
        # duplicate phase-rotated samples give identical objective values
        ch = sample_channels(CFG, 7)
        w_r = combiner_row(ch, 0.5)[0]
        rng = np.random.default_rng(8)
        z = unit(crandn(rng, CFG.m_t))
        g1 = abs(np.vdot(ch.h_ra, z)) ** 2
        g2 = abs(np.vdot(ch.h_ra, z * np.exp(1j * 1.234))) ** 2
        assert abs(g1 - g2) < 1e-14


class TestLagrangianBoundaryOracle:
    def test_q_one(self):
        rng = np.random.default_rng(9)
        d1, d2 = unit(crandn(rng, 3)), unit(crandn(rng, 3))
        r = abs(np.vdot(d2, d1))
        rep = lagrangian_boundary_oracle(d1, d2, 1.0)
        assert abs(rep.best_value - r * r) < 1e-9

    def test_orthogonal(self):
        d1 = np.array([1.0, 0, 0], dtype=complex)
        d2 = np.array([0, 1.0, 0], dtype=complex)
        for q in (0.0, 0.3, 0.9):
            rep = lagrangian_boundary_oracle(d1, d2, q)
            assert abs(rep.best_value - (1.0 - q)) < 1e-9


class TestDcGridOracle:
    def test_requires_two_dimensional_null_space(self):
        cfg = SystemConfig(m_t=4, m_r=3)
        ch = sample_channels(cfg, 10)
        w_r = combiner_row(ch, 0.5)[0]
        with pytest.raises(ValueError):
            dc_grid_oracle(ch, w_r, 1.0, 1.0, (0.0, 0.0), cfg)

    def test_deterministic(self):
        ch = sample_channels(CFG, 11)
        w_r = combiner_row(ch, 0.5)[0]
        a = dc_grid_oracle(ch, w_r, 1.0, 2.0, (0.5, 0.5), CFG, n=200)
        b = dc_grid_oracle(ch, w_r, 1.0, 2.0, (0.5, 0.5), CFG, n=200)
        assert a.best_value == b.best_value
