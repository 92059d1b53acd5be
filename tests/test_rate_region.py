import cmath
import importlib
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fdtwrc.baselines import (
    SchemeId,
    _hd_points,
    _hd_setup,
    hd_anc_region,
    upper_bound_solve,
    upper_bound_solves,
)
from fdtwrc.harness import ExperimentSpec, run_experiment
from fdtwrc.model import (
    SystemConfig,
    db_to_linear,
    effective_gains,
    relay_null_basis,
    relay_output_power,
    sample_channels,
    sinr_pair,
    zero_loopback,
)
from fdtwrc.numerics import null_space_basis
from fdtwrc.oracles import grid_power_oracle, lagrangian_boundary_oracle, sampled_beamformer_oracle
from fdtwrc.rate_region import (
    Infeasible,
    _alpha_search,
    _alternate_rows,
    _combiner_table,
    _grid,
    _max_rates,
    _null_z,
    boundary_range,
    max_rate_given_rb,
    optimize_fixed_alpha_p1,
    rate_region,
    rate_regions,
    region_sweep,
    solve_power_p1,
    solve_txbf_p1,
)
from fdtwrc.sum_rate import max_sum_rate, max_sum_rates, optimize_fixed_alpha_p2
from one_row import combiner_row, power_p1_row, txbf_p1_row
from reference_dc import zf_residual

CFG = SystemConfig()
rate_region_module = importlib.import_module("fdtwrc.rate_region")


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def unit(v):
    return v / np.linalg.norm(v)


def boundary_unit_vector(d1, d2, q):
    """Unit z with |d1^H z|^2 = q maximizing |d2^H z|^2, for unit d1, d2."""
    inner = complex(np.vdot(d2, d1))
    r = abs(inner)
    return _null_z(d1, d2, r, cmath.phase(inner) if r > 0 else 0.0, d1.size, q)


class TestBoundaryUnitVector:
    def test_constraint_saturates_at_q_one(self):
        rng = np.random.default_rng(0)
        d1, d2 = unit(crandn(rng, 3)), unit(crandn(rng, 3))
        z = boundary_unit_vector(d1, d2, 1.0)
        assert abs(abs(np.vdot(d1, z)) - 1.0) < 1e-10  # z = d1 up to phase
        r = abs(np.vdot(d2, d1))
        assert abs(abs(np.vdot(d2, z)) ** 2 - r * r) < 1e-10

    def test_orthogonal_directions_q_zero(self):
        d1 = np.array([1.0, 0, 0], dtype=complex)
        d2 = np.array([0, 1.0, 0], dtype=complex)
        z = boundary_unit_vector(d1, d2, 0.0)
        assert abs(abs(np.vdot(d2, z)) ** 2 - 1.0) < 1e-12

    def test_matches_lagrangian_oracle(self):
        rng = np.random.default_rng(1)
        for k in range(60):
            d1, d2 = unit(crandn(rng, 3)), unit(crandn(rng, 3))
            q = rng.uniform(0, 1) if k else 0.4
            z = boundary_unit_vector(d1, d2, q)
            assert abs(np.linalg.norm(z) - 1.0) < 1e-10
            assert abs(abs(np.vdot(d1, z)) ** 2 - q) < 1e-10
            achieved = abs(np.vdot(d2, z)) ** 2
            r = abs(np.vdot(d2, d1))
            assert abs(achieved - boundary_range(r, q)[1]) < 1e-10
            oracle = lagrangian_boundary_oracle(d1, d2, q)
            assert abs(achieved - oracle.best_value) < 1e-8

    def test_collinear_branch(self):
        rng = np.random.default_rng(2)
        d1 = unit(crandn(rng, 3))
        d2 = d1 * np.exp(1j * 0.7)
        z = boundary_unit_vector(d1, d2, 0.3)
        assert abs(np.linalg.norm(z) - 1.0) < 1e-10
        assert abs(abs(np.vdot(d1, z)) ** 2 - 0.3) < 1e-10


def random_txbf_instance(seed, gamma_b_scale=0.3):
    """(ch, w_r, batch, p_a, p_b, gamma_b): a realization, a random combiner
    with its one-row batch, powers and a B target below A's uplink."""
    rng = np.random.default_rng(seed)
    ch = sample_channels(CFG, seed)
    w_r, batch = combiner_row(ch, rng.uniform(0, 1))
    p_a, p_b = rng.uniform(1, 10, size=2)
    rx_a = abs(np.vdot(w_r, ch.h_ar)) ** 2
    gamma_b = gamma_b_scale * rng.uniform(0.1, 1.0) * p_a * rx_a
    return ch, w_r, batch, p_a, p_b, gamma_b


class TestSolveTxbfP1:
    def test_unconstrained_maximizer_aligned_with_h_ra(self):
        # no loopback: the null basis is the identity, so the gamma_b = 0
        # solution is the matched beam at full relay power
        ch = zero_loopback(sample_channels(CFG, 3))
        w_r, batch = combiner_row(ch, 0.5)
        w_t = txbf_p1_row(batch, 2.0, 3.0, 0.0, CFG.p_r_max)
        assert abs(abs(np.vdot(unit(ch.h_ra), unit(w_t))) - 1.0) < 1e-10
        assert abs(relay_output_power(ch, w_t, w_r, 2.0, 3.0) - CFG.p_r_max) < 1e-8

    def test_step1_gate(self):
        ch, w_r, batch, p_a, p_b, _ = random_txbf_instance(4)
        rx_a = abs(np.vdot(w_r, ch.h_ar)) ** 2
        with pytest.raises(Infeasible) as exc:
            txbf_p1_row(batch, p_a, p_b, 2.0 * p_a * rx_a, CFG.p_r_max)
        assert exc.value.stage == "sinr_gate"

    def test_postconditions(self):
        for seed in range(40):
            ch, w_r, batch, p_a, p_b, gamma_b = random_txbf_instance(100 + seed)
            try:
                w_t = txbf_p1_row(batch, p_a, p_b, gamma_b, CFG.p_r_max)
            except Infeasible:
                continue
            assert zf_residual(ch, w_t, w_r) <= 1e-9 * max(1.0, np.linalg.norm(ch.h_rr) * np.linalg.norm(w_t))
            p_r = relay_output_power(ch, w_t, w_r, p_a, p_b)
            assert abs(p_r - CFG.p_r_max) < 1e-8
            _, gb = sinr_pair(ch, w_t, w_r, p_a, p_b)
            assert gb >= gamma_b * (1 - 1e-8)

    def test_matches_sampling_oracle(self):
        for seed in range(20):
            ch, w_r, batch, p_a, p_b, gamma_b = random_txbf_instance(200 + seed)
            try:
                w_t = txbf_p1_row(batch, p_a, p_b, gamma_b, CFG.p_r_max)
            except Infeasible:
                continue
            gains = effective_gains(ch, w_t, w_r)
            oracle = sampled_beamformer_oracle(
                ch, w_r,
                {"p_a": p_a, "p_b": p_b, "p_r_max": CFG.p_r_max, "gamma_b": gamma_b},
                "gain_a", 20_000, seed=seed)
            assert gains.tx_gain_a >= oracle.best_value * (1 - 1e-4)
            assert gains.tx_gain_a <= oracle.best_value * (1 + 1e-4) + 1e-9

    def test_step3_step4_continuity(self):
        # manufacture a threshold exactly at the step-3 solution's B-gain:
        # both paths must agree there
        ch, w_r, batch, p_a, p_b, _ = random_txbf_instance(5)
        w_t3 = txbf_p1_row(batch, p_a, p_b, 0.0, CFG.p_r_max)
        b_gain = abs(np.vdot(ch.h_rb, w_t3)) ** 2
        # invert the threshold transform to hit gamma_b_bar == b_gain
        rx_a = abs(np.vdot(w_r, ch.h_ar)) ** 2
        sig_b = p_b * abs(ch.h_bb) ** 2 + 1.0
        gamma_b = p_a * rx_a * b_gain / (sig_b + b_gain)
        for eps in (-1e-9, 1e-9):
            w_t = txbf_p1_row(batch, p_a, p_b, gamma_b * (1 + eps), CFG.p_r_max)
            assert abs(abs(np.vdot(ch.h_ra, w_t)) ** 2
                       - abs(np.vdot(ch.h_ra, w_t3)) ** 2) < 1e-6


class TestSolvePowerP1:
    def test_forced_case_2a_with_zero_si(self):
        ch = sample_channels(CFG, 6)
        ch = replace(ch, h_aa=0j, h_bb=0j)
        w_r, batch = combiner_row(ch, 0.5)
        n_t = batch.n_t[0]
        w_t = 0.05 * (n_t @ unit(crandn(np.random.default_rng(0), n_t.shape[1])))
        g = effective_gains(ch, w_t, w_r)
        gamma_b = 0.01 * CFG.p_a_max * g.tx_gain_b * g.rx_gain_a / (g.tx_gain_b + 1.0)
        p_a, p_b, _ = power_p1_row(w_t, batch, gamma_b, CFG)
        assert p_b == CFG.p_b_max
        expected_pa = gamma_b * (g.tx_gain_b + 1.0) / (g.tx_gain_b * g.rx_gain_a)
        assert abs(p_a - expected_pa) < 1e-9 * max(1.0, expected_pa)

    def test_empty_polygon(self):
        ch, w_r, batch, p_a, p_b, _ = random_txbf_instance(7)
        w_t = txbf_p1_row(batch, p_a, p_b, 0.0, CFG.p_r_max)
        g = effective_gains(ch, w_t, w_r)
        # B-SINR target beyond what p_a = p_a_max can deliver
        gamma_b = 2.0 * CFG.p_a_max * g.tx_gain_b * g.rx_gain_a / (g.tx_gain_b + 1.0)
        with pytest.raises(Infeasible):
            power_p1_row(w_t, batch, gamma_b, CFG)

    def test_against_grid_oracle(self):
        hits = 0
        for seed in range(30):
            ch, w_r, batch, p_a, p_b, gamma_b = random_txbf_instance(300 + seed)
            try:
                w_t = txbf_p1_row(batch, p_a, p_b, gamma_b, CFG.p_r_max)
                pa, pb, _ = power_p1_row(w_t, batch, gamma_b, CFG)
            except Infeasible:
                continue
            hits += 1
            g = effective_gains(ch, w_t, w_r)
            val = pb * g.tx_gain_a * g.rx_gain_b / (g.tx_gain_a + pa * abs(ch.h_aa) ** 2 + 1.0)
            oracle = grid_power_oracle(ch, w_t, w_r, "p1", 400, CFG, gamma_b=gamma_b)
            # one-sided: the exact vertex solution dominates the grid up to
            # the grid's own resolution-driven slack
            lip = g.tx_gain_a * g.rx_gain_b * (1.0 + CFG.p_b_max * abs(ch.h_aa) ** 2)
            assert val >= oracle.best_value - 2.0 * lip * oracle.resolution - 1e-9
        assert hits >= 15

    @pytest.mark.parametrize("case", ["default", "mixed_null"])
    def test_rows_alone_equal_rows_in_a_batch(self, case):
        # the lockstep region sweep gives every row its own target: each
        # row's beamformer and powers at per-row gamma_b (0, inside A's
        # uplink and beyond it) must be the bits that the row gets alone
        ch, cfg = TABLE_CASES[case]()
        rng = np.random.default_rng(50)
        _, batch = _combiner_table(ch)(rng.uniform(0.0, 1.0, 40))
        k = len(batch.rx)
        gamma_b = cfg.p_a_max * batch.rx[:, 0] * rng.uniform(0.0, 1.2, k)
        gamma_b[rng.uniform(size=k) < 0.3] = 0.0
        p_a, p_b = rng.uniform(0.0, 1.0, (2, k)) * [[cfg.p_a_max], [cfg.p_b_max]]
        w_t, ok = solve_txbf_p1(batch, p_a, p_b, gamma_b, cfg.p_r_max)
        w_t[0] = 0.0  # a zero beamformer leaves only the relay's own noise
        powers = solve_power_p1(w_t, batch, gamma_b, cfg)
        assert 0.0 in gamma_b and not all(powers[3])
        for i in range(k):
            alone = batch.take(np.array([i]))
            w_i, ok_i = solve_txbf_p1(alone, p_a[i:i + 1], p_b[i:i + 1], gamma_b[i:i + 1],
                                      cfg.p_r_max)
            assert ok_i[0] == ok[i]
            if i:
                assert w_i.tobytes() == w_t[i:i + 1].tobytes()
            got = solve_power_p1(w_t[i:i + 1], alone, gamma_b[i:i + 1], cfg)
            assert [x.tobytes() for x in got] == [x[i:i + 1].tobytes() for x in powers]


class TestAlternationP1:
    def test_gamma_zero_golden_trace(self):
        ch = sample_channels(CFG, 8)
        pt1 = optimize_fixed_alpha_p1(ch, 0.5, 0.0, CFG)
        pt2 = optimize_fixed_alpha_p1(ch, 0.5, 0.0, CFG)
        assert pt1.trace == pt2.trace  # bit-stable
        assert len(pt1.trace) <= 3
        assert pt1.powers.p_b == CFG.p_b_max
        diffs = np.diff(pt1.trace)
        assert np.all(diffs >= -1e-9)

    def test_zero_si_matches_upper_bound_machinery(self):
        cfg = replace(CFG, sigma2_a=0.0, sigma2_b=0.0, sigma2_r=0.0)
        ch = sample_channels(cfg, 9)
        pt = optimize_fixed_alpha_p1(ch, 0.7, 0.0, cfg)
        pt_ub = optimize_fixed_alpha_p1(zero_loopback(ch), 0.7, 0.0, cfg)
        assert abs(pt.gamma_a - pt_ub.gamma_a) < 1e-9 * max(1.0, pt_ub.gamma_a)

    def test_infeasible_target(self):
        ch = sample_channels(CFG, 10)
        cap = CFG.p_a_max * float(np.vdot(ch.h_ar, ch.h_ar).real)
        with pytest.raises(Infeasible):
            optimize_fixed_alpha_p1(ch, 0.5, 10.0 * cap, CFG)

    def test_trace_monotone_random(self):
        for seed in range(25):
            ch = sample_channels(CFG, 400 + seed)
            rng = np.random.default_rng(seed)
            try:
                pt = optimize_fixed_alpha_p1(ch, rng.uniform(0, 1), rng.uniform(0, 3), CFG)
            except Infeasible:
                continue
            assert np.all(np.diff(pt.trace) >= -1e-9)


# wrapper of the shared alternating loop -> call at a combiner
ALTERNATING = {
    "p1": lambda ch, alpha: optimize_fixed_alpha_p1(ch, alpha, 1.0, CFG),
    "p2": lambda ch, alpha: optimize_fixed_alpha_p2(ch, alpha, CFG),
}


# wrapper -> (channel config, seed, alpha) whose first three power steps all
# move the powers, so only iter_max ends the loop.  At 0 dB SI, seed 143's P2
# steps walk the relay-budget curve: (10, 10) -> (10, 0) -> (9.657, 1.260)
# -> (9.637, 1.337) -> (9.636, 1.338)
ITER_MAX_INPUTS = {
    "p1": (CFG, 16, 0.5),
    "p2": (replace(CFG, sigma2_a=1.0, sigma2_b=1.0, sigma2_r=1.0), 143, 0.35),
}


def stubbed_alternate(steps, starts=((10.0, 10.0),), refused=()):
    """The shared row loop ``_alternate_rows`` on one combiner with stub
    steps.  The beamformer stub marks the row infeasible at the powers in
    ``refused`` and otherwise records the powers it is solved at; the power
    stub returns ``steps`` in turn, with the rising values 1, 2, ... so that
    conv_tol never stops the loop.  Returns the row's trace and powers (None
    where infeasible), the recorded beamformer powers and the number of
    power calls."""
    solved, values = [], []

    def beam(ctx, p_a, p_b, w_t):
        powers = (float(p_a[0]), float(p_b[0]))
        w_t = ctx.n_t[:, :, 0].copy()
        if powers in refused:
            return w_t, np.array([False])
        solved.append(powers)
        return w_t, np.array([True])

    def power(w_t, ctx):
        values.append(float(len(values) + 1))
        p_a, p_b = steps[len(values) - 1]
        return np.array([p_a]), np.array([p_b]), np.array([values[-1]]), np.array([True])

    batch = combiner_row(sample_channels(CFG, 16), 0.5)[1]
    _, powers, ok, traces = _alternate_rows(batch, CFG, list(starts), beam, power)
    return traces[0], tuple(powers[0].tolist()) if ok[0] else None, solved, len(values)


class TestAlternate:
    @pytest.mark.parametrize("name", sorted(ALTERNATING))
    def test_iter_max_bounds_the_trace(self, name, monkeypatch):
        monkeypatch.setattr(SystemConfig, "iter_max", 3)
        monkeypatch.setattr(SystemConfig, "conv_tol", -math.inf)
        cfg, seed, alpha = ITER_MAX_INPUTS[name]
        pt = ALTERNATING[name](sample_channels(cfg, seed), alpha)
        assert len(pt.trace) == 3
        # the beamformer re-solved after the last scored iteration is returned
        value = pt.gamma_a if name == "p1" else pt.sum_rate
        assert value >= pt.trace[-1] * (1.0 - 1e-9)

    def test_kept_start_powers_stop_after_one_step(self):
        trace, powers, solved, power_calls = stubbed_alternate([(10.0, 10.0)])
        assert solved == [(10.0, 10.0)] and power_calls == 1
        assert trace == [1.0] and powers == (10.0, 10.0)

    def test_one_move_then_hold_resolves_once(self):
        trace, powers, solved, power_calls = stubbed_alternate([(10.0, 4.0), (10.0, 4.0)])
        assert solved == [(10.0, 10.0), (10.0, 4.0)] and power_calls == 2
        assert trace == [1.0, 2.0] and powers == (10.0, 4.0)

    def test_stop_compares_with_the_accepted_start(self):
        # P1's start list: full powers are refused, (p_a_max, 0) is accepted,
        # and a power step keeping (p_a_max, 0) stops the loop although it
        # differs from starts[0]
        trace, powers, solved, power_calls = stubbed_alternate(
            [(10.0, 0.0)], starts=[(10.0, 10.0), (10.0, 0.0)], refused={(10.0, 10.0)})
        assert solved == [(10.0, 0.0)] and power_calls == 1
        assert trace == [1.0]


class TestAlphaSearch:
    def test_all_infeasible_gives_none_after_the_grid(self):
        alphas = []

        def evaluate(batch):
            alphas.extend(batch.tolist())
            return np.full(batch.size, -math.inf), None

        assert _alpha_search(lambda _, batch: evaluate(batch), 1, CFG) == [None]
        assert alphas == list(np.linspace(0.0, 1.0, CFG.alpha_grid))


class TestMaxRateGivenRb:
    def test_zero_target_dominates_alpha_one_endpoint(self):
        ch = sample_channels(CFG, 11)
        pt = max_rate_given_rb(ch, 0.0, CFG)
        end = optimize_fixed_alpha_p1(ch, 1.0, 0.0, CFG)
        assert pt.rate_a >= end.rate_a - 1e-9

    def test_infeasible_above_capacity(self):
        ch = sample_channels(CFG, 12)
        cap = math.log2(1.0 + CFG.p_a_max * float(np.vdot(ch.h_ar, ch.h_ar).real))
        with pytest.raises(Infeasible):
            max_rate_given_rb(ch, cap + 1.0, CFG)

    def test_rate_b_honors_target(self):
        for seed in range(15):
            ch = sample_channels(CFG, 500 + seed)
            r_b = np.random.default_rng(seed).uniform(0.2, 1.5)
            try:
                pt = max_rate_given_rb(ch, r_b, CFG)
            except Infeasible:
                continue
            assert pt.rate_b >= r_b - 1e-6

    def test_against_composite_oracle(self):
        # coarse exhaustive oracle: alpha grid x beam sampling x power grid
        rng = np.random.default_rng(13)
        for seed in range(3):
            ch = sample_channels(CFG, 600 + seed)
            r_b = 0.8
            pt = max_rate_given_rb(ch, r_b, CFG)
            gamma_b = 2.0**r_b - 1.0
            best = 0.0
            for alpha in np.linspace(0, 1, 9):
                w_r = combiner_row(ch, alpha)[0]
                n_t = relay_null_basis(ch, w_r)
                zs = rng.standard_normal((400, n_t.shape[1])) + 1j * rng.standard_normal((400, n_t.shape[1]))
                zs /= np.linalg.norm(zs, axis=1, keepdims=True)
                for pa in np.linspace(0.05 * CFG.p_a_max, CFG.p_a_max, 12):
                    for pb in np.linspace(0.05 * CFG.p_b_max, CFG.p_b_max, 12):
                        rx_a = abs(np.vdot(w_r, ch.h_ar)) ** 2
                        rx_b = abs(np.vdot(w_r, ch.h_br)) ** 2
                        budget = CFG.p_r_max / (pa * rx_a + pb * rx_b + 1.0)
                        w_ts = math.sqrt(budget) * (n_t @ zs.T).T
                        sa = np.abs(w_ts @ ch.h_ra.conj()) ** 2
                        sb = np.abs(w_ts @ ch.h_rb.conj()) ** 2
                        gb = pa * sb * rx_a / (sb + pb * abs(ch.h_bb) ** 2 + 1.0)
                        ga = pb * sa * rx_b / (sa + pa * abs(ch.h_aa) ** 2 + 1.0)
                        ok = gb >= gamma_b
                        if np.any(ok):
                            best = max(best, float(np.max(ga[ok])))
            assert pt.gamma_a >= best * (1 - 0.02)


class TestRateRegion:
    def test_two_point_endpoints(self):
        ch = sample_channels(CFG, 14)
        entries = rate_region(ch, 2, CFG)
        assert len(entries) == 2
        assert entries[0][0] == 0.0
        assert entries[0][1].rate_a >= entries[1][1].rate_a - 1e-9
        assert entries[1][1].rate_a >= 0.0
        assert entries[1][0] > 0.5  # a nontrivial highest feasible target

    def test_boundary_structure(self):
        ch = sample_channels(CFG, 15)
        entries = rate_region(ch, 7, CFG)
        rates_a = [pt.rate_a for _, pt in entries if pt is not None]
        assert len(rates_a) == 7
        assert np.all(np.diff(rates_a) <= 1e-6)
        for r_b, pt in entries:
            assert pt.rate_b >= r_b - 1e-6
            assert pt.powers.p_r <= CFG.p_r_max + 1e-8
            assert zf_residual(ch, pt.beamformer.w_t, pt.beamformer.w_r) <= 1e-9 * max(
                1.0, np.linalg.norm(ch.h_rr) * np.linalg.norm(pt.beamformer.w_t))

    def test_high_snr_endpoint_meets_target(self):
        # 48 dB sources: a power vertex missing B's SINR threshold by 1.5e-8
        # relative passed a tolerance scaled by p_b_max, so the endpoint
        # point fell 1.5e-9 bits short of its target
        cfg = replace(CFG, m_t=2, m_r=7, p_a_max=db_to_linear(48.0),
                      p_b_max=db_to_linear(48.0), p_r_max=1.0, sigma2_a=0.0,
                      sigma2_b=1.0, sigma2_r=0.0, gain_br=1.0)
        for r_b, pt in rate_region(sample_channels(cfg, 0), 4, cfg):
            assert pt.rate_b >= r_b - 1e-9

    def test_symmetry_statistic(self):
        # symmetric fading: the two endpoint rates agree on average
        end_a, end_b = [], []
        for t in range(60):
            ch = sample_channels(CFG, 700 + t)
            entries = rate_region(ch, 2, CFG)
            end_a.append(entries[0][1].rate_a)
            end_b.append(entries[1][1].rate_b)
        ratio = np.mean(end_a) / np.mean(end_b)
        assert 0.75 < ratio < 1.25


class TestRegionSweep:
    @staticmethod
    def _sweep(raw):
        """region_sweep over stub points (rate_a, rate_b), None where None."""
        points = [None if r is None else SimpleNamespace(rate_a=r[0], rate_b=r[1]) for r in raw]
        entries = region_sweep(lambda targets: points, 2.8, len(points))
        return [None if pt is None else (pt.rate_a, pt.rate_b) for _, pt in entries]

    def test_rounding_level_rate_a_is_decided_by_rate_b(self):
        # the end of a sweep where A's rate is zero up to rounding: the
        # endpoint (rate_b 2.673) dominates the point below it (2.339)
        # whichever of their rate_a values rounding makes larger
        head = [(3.1, 0.0), (2.2, 0.7), (1.1, 1.4)]
        for rate_a in (1.48e-11, 1.50e-11, 1.52e-11):
            got = self._sweep(head + [(rate_a, 2.339), (1.50e-11, 2.673)])
            assert got == head + [(1.50e-11, 2.673)] * 2

    def test_kept_and_carried_points(self):
        top = 3.1
        # None takes the point above it; a higher rate_b at an equal rate_a
        # and a rate_a higher by more than 1e-9 of the largest keep their own
        assert self._sweep([(top, 0.0), None, (1.0, 2.9)]) == [(top, 0.0), (1.0, 2.9), (1.0, 2.9)]
        assert self._sweep([(top, 0.0), (1.0, 2.95), (1.0, 2.9)]) == [
            (top, 0.0), (1.0, 2.95), (1.0, 2.9)]
        assert self._sweep([(top, 0.0), (1.0 + 4e-9, 2.7), (1.0, 2.9)]) == [
            (top, 0.0), (1.0 + 4e-9, 2.7), (1.0, 2.9)]
        # within the tolerance the higher rate_b wins; below by more than
        # 1e-12 the higher-target point is carried down whatever its rate_b
        assert self._sweep([(top, 0.0), (1.0 + 2e-9, 2.7), (1.0, 2.9)]) == [
            (top, 0.0), (1.0, 2.9), (1.0, 2.9)]
        assert self._sweep([(top, 0.0), (1.0 - 2e-12, 2.95), (1.0, 2.9)]) == [
            (top, 0.0), (1.0, 2.9), (1.0, 2.9)]


def _point_bits(pt):
    """Every field of an operating point, arrays as bytes."""
    if pt is None:
        return None
    b = pt.beamformer
    return (pt.rate_a, pt.rate_b, pt.gamma_a, pt.gamma_b, pt.powers.p_a, pt.powers.p_b,
            pt.powers.p_r, b.alpha, b.w_t.tobytes(), b.w_r.tobytes(), tuple(pt.trace))


def ub_regions(chs, n_points, cfg):
    """ub's region sweeps: ``rate_regions`` of the zero-loopback copies."""
    return rate_regions([zero_loopback(ch) for ch in chs], n_points, cfg)


def ub_region(ch, n_points, cfg):
    """ub's region sweep of one realization: ``rate_region`` of its copy."""
    return rate_region(zero_loopback(ch), n_points, cfg)


def _standalone_or_none(ch, r_b, cfg):
    try:
        return max_rate_given_rb(ch, r_b, cfg)
    except Infeasible:
        return None


def _mixed_null_channels():
    """``test_mixed_null_dimensions``'s realization: h_br in the left null
    space of H_rr (m_t = 2, m_r = 3), so that the alpha = 1 combiner keeps
    the whole transmit space and the others lose one dimension."""
    cfg = replace(CFG, m_t=2, m_r=3)
    ch = sample_channels(cfg, 44)
    return replace(ch, h_br=null_space_basis(ch.h_rr)[:, 0] * 0.8), cfg


M6 = replace(CFG, m_t=6, m_r=6)

# case -> (realization, config) of the combiner-table row tests
TABLE_CASES = {
    "default": lambda: (sample_channels(CFG, 45), CFG),
    "m6": lambda: (sample_channels(M6, 46), M6),
    "m_r1": lambda: (sample_channels(replace(CFG, m_r=1), 47), replace(CFG, m_r=1)),
    "zero_loopback": lambda: (zero_loopback(sample_channels(CFG, 48)), CFG),
    "mixed_null": _mixed_null_channels,
}

# case -> [(realization, config)] of the lockstep-against-standalone tests;
# "above_endpoint" also asks for a target past B's largest
STANDALONE_CASES = {
    "default": lambda: [(sample_channels(CFG, s), CFG) for s in (20, 21)],
    "m_r1": lambda: [(sample_channels(replace(CFG, m_r=1), s), replace(CFG, m_r=1))
                     for s in (20, 21)],
    "m6": lambda: [(sample_channels(M6, 20), M6)],
    "zero_loopback": lambda: [(zero_loopback(sample_channels(CFG, 20)), CFG)],
    "mixed_null": lambda: [_mixed_null_channels()],
    "above_endpoint": lambda: [(sample_channels(CFG, 22), CFG)],
}


class TestCombinerTable:
    """A region sweep shares one combiner table across its points and its
    endpoint.  The table keeps no per-alpha state: a row's bits do not
    depend on the batch it sits in, so no answer depends on the sharing."""

    @pytest.mark.parametrize("case", sorted(TABLE_CASES))
    def test_rows_alone_equal_rows_in_a_batch(self, case):
        # _gamma_b_max reads the grid rows of one call and the point solves
        # those of others, and test_points_equal_standalone_solves compares a
        # sweep with fresh tables: both rest on bit-identical rows
        ch, cfg = TABLE_CASES[case]()
        rng = np.random.default_rng(49)
        alphas = np.concatenate([np.linspace(0.0, 1.0, cfg.alpha_grid), rng.uniform(0.0, 1.0, 12)])
        w_r, batch = _combiner_table(ch)(alphas)
        for k in range(alphas.size):
            w_alone, alone = _combiner_table(ch)(alphas[k:k + 1])
            row = batch.take(np.array([k]))
            assert w_alone[0].tobytes() == w_r[k].tobytes()
            for name in ("n_t", "f", "n2", "d", "has", "r", "phi", "rank", "rx"):
                assert getattr(alone, name).tobytes() == getattr(row, name).tobytes(), name

    @pytest.mark.parametrize("case", sorted(STANDALONE_CASES))
    def test_points_equal_standalone_solves(self, case):
        # rate_region solves its targets in lockstep, as (target, combiner)
        # rows of shared batches; each target's point must be the one that
        # max_rate_given_rb finds for it alone, with a fresh table
        for ch, cfg in STANDALONE_CASES[case]():
            entries = rate_region(ch, 9, cfg)
            r_bs = [r_b for r_b, _ in entries]
            if case == "above_endpoint":
                r_bs.append(1.05 * r_bs[-1])
            alone = [_standalone_or_none(ch, r_b, cfg) for r_b in r_bs]
            table = _combiner_table(ch)
            [lockstep] = _max_rates([ch], [r_bs], cfg, table, _grid(table, cfg))
            assert [_point_bits(pt) for pt in lockstep] == [_point_bits(pt) for pt in alone]
            assert (alone[-1] is None) == (case == "above_endpoint")
            # the same sweep (targets, repair) from the standalone points
            ref = region_sweep(lambda targets: alone[:len(targets)], r_bs[8], 9)
            assert [(r_b, _point_bits(pt)) for r_b, pt in entries] == [
                (r_b, _point_bits(pt)) for r_b, pt in ref]

    def test_ragged_golden_brackets(self, monkeypatch):
        # seed 21's nine targets have their best grid combiner at alpha = 1,
        # inside the grid and at alpha = 0: the end targets refine a bracket
        # of one grid step, so they request fewer points from the shared
        # golden batches, and each target's point is still its own
        ch = sample_channels(CFG, 21)
        r_bs = [r_b for r_b, _ in rate_region(ch, 9, CFG)]
        grids, batches = [], []
        lockstep = rate_region_module.maximize_1d_lockstep

        def spy(f, n, *args):
            def recorded(owners, alphas):
                values = f(owners, alphas)
                if owners is None:
                    grids.append(np.asarray(values).reshape(n, -1))
                else:
                    batches.append(np.bincount(owners, minlength=n))
                return values
            return lockstep(recorded, n, *args)

        monkeypatch.setattr(rate_region_module, "maximize_1d_lockstep", spy)
        table = _combiner_table(ch)
        [points] = _max_rates([ch], [r_bs], CFG, table, _grid(table, CFG))
        best = grids[0].argmax(axis=1)
        ends = (best == 0) | (best == CFG.alpha_grid - 1)
        assert 0 in best and CFG.alpha_grid - 1 in best and not ends.all()
        requested = np.sum(batches, axis=0)
        assert requested[ends].max() < requested[~ends].min()
        monkeypatch.undo()
        assert [_point_bits(pt) for pt in points] == [
            _point_bits(_standalone_or_none(ch, r_b, CFG)) for r_b in r_bs]


def _chunk():
    """A harness task's realizations at the default config: a zero-loopback
    one (null dimension m_t) among ordinary ones (null dimension m_t - 1)."""
    chs = [sample_channels(CFG, s) for s in (30, 31, 32, 33)]
    chs[1] = zero_loopback(chs[1])
    return chs


class TestLockstepRealizations:
    """The lockstep solvers search several realizations' combiners in shared
    batches; each realization must get its standalone answer bit for bit."""

    @pytest.mark.parametrize("case", ["default", "mixed_null"])
    def test_table_rows(self, case):
        # one table call for the combiners of several realizations gives
        # each row the bits of its realization's own table, whatever the
        # null dimension: mixed_null's alpha = 1 combiner keeps every
        # direction, and so does every combiner of a zero-loopback one
        if case == "default":
            chs = _chunk()
        else:
            ch, cfg = _mixed_null_channels()
            chs = [ch, sample_channels(cfg, 34), zero_loopback(sample_channels(cfg, 35))]
        rng = np.random.default_rng(51)
        alphas = np.concatenate([np.tile(np.linspace(0.0, 1.0, CFG.alpha_grid), len(chs)),
                                 rng.uniform(0.0, 1.0, 12)])
        owners = np.concatenate([np.repeat(np.arange(len(chs)), CFG.alpha_grid),
                                 rng.integers(0, len(chs), 12)])
        w_r, batch = _combiner_table(*chs)(alphas, owners)
        assert len(set(batch.rank.tolist())) == 2
        for k in range(alphas.size):
            w_alone, alone = _combiner_table(chs[owners[k]])(alphas[k:k + 1])
            assert w_r[k].tobytes() == w_alone[0].tobytes()
            for name, x in vars(alone).items():
                assert x.tobytes() == getattr(batch, name)[k:k + 1].tobytes(), name

    def test_sum_rate_searches(self):
        chs = _chunk()
        proposed = max_sum_rates(chs, CFG)
        assert [_point_bits(pt) for pt in proposed] == [
            _point_bits(max_sum_rate(ch, CFG)) for ch in chs]
        assert [_point_bits(pt) for pt in upper_bound_solves(chs, CFG)] == [
            _point_bits(upper_bound_solve(ch, CFG)) for ch in chs]

    @pytest.mark.parametrize("sweeps, sweep", [(rate_regions, rate_region),
                                               (ub_regions, ub_region)])
    def test_region_sweeps(self, sweeps, sweep):
        chs = _chunk()
        assert [[(r_b, _point_bits(pt)) for r_b, pt in entries] for entries in sweeps(chs, 5, CFG)] == [
            [(r_b, _point_bits(pt)) for r_b, pt in sweep(ch, 5, CFG)] for ch in chs]

    def test_point_solves_with_an_infeasible_grid(self):
        # a ragged set of targets, one of them 5% past its realization's
        # endpoint: that target's whole grid is infeasible (None) while the
        # other targets of its realization and of the others refine
        chs = _chunk()
        ends = [rate_region(ch, 2, CFG)[-1][0] for ch in chs]
        r_bs = [[0.5 * end] for end in ends]
        r_bs[2] += [0.9 * ends[2], 1.05 * ends[2]]
        table = _combiner_table(*chs)
        points = _max_rates(chs, r_bs, CFG, table, _grid(table, CFG, len(chs)))
        assert points[2][2] is None and all(pt is not None for pt in points[0] + points[3])
        assert [[_point_bits(pt) for pt in pts] for pts in points] == [
            [_point_bits(_standalone_or_none(ch, r_b, CFG)) for r_b in targets]
            for ch, targets in zip(chs, r_bs)]


def _pairing_case(cfg, seed, first=None):
    """Two realizations of cfg from seed on, the first one replaced by
    ``first`` when given."""
    return [first or sample_channels(cfg, seed), sample_channels(cfg, seed + 1)], cfg


# case -> (two realizations, config) of the pairing tests: m_t 2..8 with
# m_r 1..3, no loopback (each realization equals its zero-loopback copy),
# and mixed_null's table, whose loopback row vanishes at alpha = 1 only
PAIRING_CASES = {
    **{f"m_t{m}": lambda m=m: _pairing_case(replace(CFG, m_t=m, m_r=1 + m % 3), 60 + 2 * m)
       for m in range(2, 9)},
    "no_loopback": lambda: _pairing_case(replace(CFG, sigma2_r=0.0), 80),
    "mixed_null": lambda: _pairing_case(_mixed_null_channels()[1], 82, _mixed_null_channels()[0]),
}


class TestPairing:
    """proposed and ub solve a task's realizations and their zero-loopback
    copies in one lockstep, whose batches mix rows of rank m_t - 1 and m_t.
    A row's products have width m_t whatever its rank, so a realization's
    answers are the same bytes alone, next to its copy, in a mixed batch,
    and whether or not ub runs."""

    @pytest.mark.parametrize("case", sorted(PAIRING_CASES))
    def test_solvers(self, case):
        chs, cfg = PAIRING_CASES[case]()
        both = chs + [zero_loopback(ch) for ch in chs]
        alone = [_point_bits(max_sum_rate(ch, cfg)) for ch in both]
        for i in range(2):  # a realization next to its copy
            assert [_point_bits(pt) for pt in max_sum_rates(both[i::2], cfg)] == alone[i::2]
        mixed = [3, 0, 2, 1]  # ranks m_t, m_t - 1, m_t, m_t - 1 (under ZF)
        assert [_point_bits(pt) for pt in max_sum_rates([both[i] for i in mixed], cfg)] == [
            alone[i] for i in mixed]
        ub = [_point_bits(pt) for pt in upper_bound_solves(chs, cfg)]
        assert ub == [_point_bits(upper_bound_solve(ch, cfg)) for ch in chs]
        assert all(u[0] + u[1] >= p[0] + p[1] for u, p in zip(ub, alone))
        assert [[(r_b, _point_bits(pt)) for r_b, pt in entries]
                for entries in rate_regions([both[i] for i in mixed], 3, cfg)] == [
            [(r_b, _point_bits(pt)) for r_b, pt in rate_region(both[i], 3, cfg)] for i in mixed]

    @pytest.mark.parametrize("m_t", range(2, 9))
    def test_harness_runs(self, m_t):
        # a run's proposed and ub samples do not depend on whether the
        # other scheme is run
        cfg = replace(CFG, m_t=m_t, m_r=1 + m_t % 3)
        proposed, ub = SchemeId.PROPOSED_FD, SchemeId.FD_UPPER_BOUND
        for kind, sweep in (("sumrate_vs_source_snr", (10.0,)), ("rate_region", (0.0, 1.0))):
            samples = {}
            for schemes in ((proposed,), (ub,), (proposed, ub)):
                spec = ExperimentSpec(kind=kind, schemes=schemes, sweep=sweep, trials=2,
                                      seed=90 + m_t, base=cfg)
                for key, v in run_experiment(spec, workers=1, keep_samples=True).samples.items():
                    samples.setdefault(key, set()).add(v.tobytes())
            assert len(samples) == 2 * len(sweep)
            assert all(len(v) == 1 for v in samples.values()), kind


def _bisect_on_point_solver(point_solver, cap, steps=24):
    """Reference: B's largest feasible target found by bisection in which
    every probe is a full point solve.  Returns the final (lo, hi)."""
    def solves(r_b):
        try:
            point_solver(r_b)
            return True
        except Infeasible:
            return False

    lo, hi = 0.0, cap
    if solves(hi):
        return hi, hi
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if solves(mid) else (lo, mid)
    return lo, hi


def _endpoint_cases():
    rng = np.random.default_rng(2718)
    random_cases = []
    for k in range(40):
        p_a, p_b, p_r = rng.uniform(-10.0, 40.0, 3)
        si = 10.0 ** rng.uniform(-4.0, 0.0, 3)
        cfg = replace(CFG, m_t=int(rng.integers(2, 6)), m_r=int(rng.integers(1, 6)),
                      p_a_max=db_to_linear(p_a), p_b_max=db_to_linear(p_b),
                      p_r_max=db_to_linear(p_r), sigma2_a=si[0], sigma2_b=si[1],
                      sigma2_r=si[2], gain_br=db_to_linear(rng.uniform(-20.0, 20.0)))
        random_cases.append((cfg, 3000 + k))
    # a weak B link: B's largest SINR target is far below 1e-7, where
    # a log2(1 + gamma), 2**r_b - 1 round trip loses more than the 1e-9 back-off
    weak_cases = [(replace(CFG, gain_br=db_to_linear(g)), 4100 + k)
                  for k, g in enumerate((-100.0, -110.0, -120.0, -130.0))]
    return [(CFG, 2900 + t) for t in range(20)] + random_cases + weak_cases


def _hd_one_target(ch, cfg, r_b):
    """The HD region solve at one target, raising Infeasible where it
    returns None, as the proposed point solver does."""
    [[pt]] = _hd_points(_hd_setup([ch], cfg), [[r_b]], cfg)
    if pt is None:
        raise Infeasible("hd_region_target")
    return pt


# scheme -> (region sweep, point solver, pre-log of B's rate cap)
REGION_SCHEMES = {
    "proposed": (lambda ch, cfg, n: rate_region(ch, n, cfg),
                 lambda ch, cfg, r_b: max_rate_given_rb(ch, r_b, cfg), 1.0),
    "ub": (lambda ch, cfg, n: ub_region(ch, n, cfg),
           lambda ch, cfg, r_b: max_rate_given_rb(zero_loopback(ch), r_b, cfg), 1.0),
    "hd_full": (lambda ch, cfg, n: hd_anc_region(ch, n, cfg),
                _hd_one_target, 0.5),
}


class TestRegionEndpoint:
    """The sweep's closed-form endpoint lies in the final bracket of a
    bisection in which every probe is a full point solve; the point solve
    succeeds at the endpoint and fails 1e-8 relative above it."""

    @pytest.mark.parametrize("scheme", sorted(REGION_SCHEMES))
    def test_matches_bisection_over_point_solver(self, scheme):
        region, solve, pre_log = REGION_SCHEMES[scheme]
        positive = 0
        for cfg, seed in _endpoint_cases():
            ch = sample_channels(cfg, seed)
            cap = pre_log * math.log2(1.0 + cfg.p_a_max * float(np.vdot(ch.h_ar, ch.h_ar).real))
            (r_b_max, pt), = region(ch, cfg, 2)[1:]
            lo, hi = _bisect_on_point_solver(lambda r_b: solve(ch, cfg, r_b), cap)
            assert lo <= r_b_max <= hi, (cfg, seed)
            assert pt is not None and pt.rate_b >= r_b_max - 1e-6
            if r_b_max > 0.0:
                positive += 1
                with pytest.raises(Infeasible):
                    solve(ch, cfg, r_b_max * (1.0 + 1e-8))
        assert positive >= 20


# per default-config seed 0..7: max_rate_given_rb(...).rate_a at half of B's
# largest target, then the 3-point rate_region's endpoint target and the
# endpoint's rate_b, as computed before the P1 boundary vector and the P2
# frontier vector moved to one construction; a refactor must not move them
PINNED_REGION = [
    (3.3849058787391826, 2.086668372288081, 2.0866683722880808),
    (0.9012294370331201, 3.2264215920647454, 3.2264215920647454),
    (0.8268630675140421, 2.751690705049865, 2.751690705049865),
    (1.5723739851675493, 3.863415784549863, 3.8634157845498627),
    (3.528678869562893, 2.8767604291836526, 2.8767604291836526),
    (3.4014734950563357, 2.7366915369931264, 2.736691536993126),
    (2.7078903363971865, 3.4018585244767667, 3.4018585244767663),
    (2.6592272602596347, 3.2105248817370624, 3.210524881737062),
]


@pytest.mark.parametrize("seed", range(len(PINNED_REGION)))
def test_pinned_region(seed):
    ch = sample_channels(CFG, seed)
    (r_b_max, end), = rate_region(ch, 3, CFG)[2:]
    half = max_rate_given_rb(ch, 0.5 * r_b_max, CFG).rate_a
    got = (half, r_b_max, end.rate_b)
    assert got == pytest.approx(PINNED_REGION[seed], rel=1e-9, abs=0.0)
