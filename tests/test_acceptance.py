"""Acceptance suite: the seven end-to-end criteria.

Each test prints one PASS/FAIL line (run with -s to see them live).  The
Monte Carlo criteria use the paired-trial harness with fixed seeds; the
oracle criteria compare the closed-form solvers against the brute-force
references on freshly randomized instances.
"""

import cmath
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fdtwrc.baselines import SchemeId
from fdtwrc.harness import ExperimentSpec, run_experiment
from fdtwrc.model import (
    SystemConfig,
    effective_gains,
    relay_output_power,
    sample_channels,
    sinr_pair,
)
from fdtwrc.oracles import (
    dc_grid_oracle,
    grid_power_oracle,
    lagrangian_boundary_oracle,
    sampled_beamformer_oracle,
)
from fdtwrc.rate_region import Infeasible, _null_z, optimize_fixed_alpha_p1
from fdtwrc.sum_rate import dc_step, optimize_fixed_alpha_p2
from one_row import combiner_row, power_p1_row, power_row, txbf_p1_row, txbf_row
from reference_dc import dc_linearized_objective, dc_objective, zf_residual

pytestmark = pytest.mark.acceptance

BASE = SystemConfig()
ALL4 = (SchemeId.PROPOSED_FD, SchemeId.HD_ANC, SchemeId.FD_ONEWAY, SchemeId.FD_UPPER_BOUND)


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def unit(v):
    return v / np.linalg.norm(v)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def row(table, sweep_value, scheme):
    return next(r for r in table.rows
                if r.sweep_value == sweep_value and r.scheme == scheme)


def zf_ok(ch, w_t, w_r):
    return zf_residual(ch, w_t, w_r) <= 1e-9 * max(
        1.0, np.linalg.norm(ch.h_rr) * np.linalg.norm(w_t))


def test_criterion_1_gain_reproduction():
    t0 = time.perf_counter()
    spec = ExperimentSpec(kind="sumrate_vs_source_snr", schemes=ALL4,
                          sweep=(10.0,), trials=1000, seed=20240, base=BASE)
    table = run_experiment(spec)
    elapsed = time.perf_counter() - t0
    g_prop = row(table, 10.0, "proposed").gain_vs_hd
    g_fd2 = row(table, 10.0, "fd2").gain_vs_hd
    ok = 1.41 <= g_prop <= 1.71 and 1.10 <= g_fd2 <= 1.34 and elapsed <= 600.0
    report(1, ok, f"proposed/hd={g_prop:.3f} in [1.41,1.71], "
                  f"fd2/hd={g_fd2:.3f} in [1.10,1.34], runtime={elapsed:.0f}s<=600s")
    assert 1.41 <= g_prop <= 1.71, g_prop
    assert 1.10 <= g_fd2 <= 1.34, g_fd2
    assert elapsed <= 600.0, elapsed


def test_criterion_2_high_relay_power():
    spec = ExperimentSpec(kind="sumrate_vs_relay_snr", schemes=ALL4,
                          sweep=(20.0,), trials=1000, seed=20241, base=BASE)
    table = run_experiment(spec)
    g_prop = row(table, 20.0, "proposed").gain_vs_hd
    prop = row(table, 20.0, "proposed").mean_sum
    ub = row(table, 20.0, "ub").mean_sum
    ok = 1.55 <= g_prop <= 1.85 and prop >= 0.95 * ub
    report(2, ok, f"proposed/hd={g_prop:.3f} in [1.55,1.85], "
                  f"proposed/ub={prop / ub:.4f}>=0.95")
    assert 1.55 <= g_prop <= 1.85, g_prop
    assert prop >= 0.95 * ub, (prop, ub)


def test_criterion_3_crossover_orderings():
    relay = ExperimentSpec(kind="sumrate_vs_relay_snr",
                           schemes=(SchemeId.PROPOSED_FD, SchemeId.FD_ONEWAY),
                           sweep=(10.0, 15.0, 20.0), trials=300, seed=20242, base=BASE)
    t_relay = run_experiment(relay)
    relay_ok = all(row(t_relay, v, "proposed").mean_sum >= row(t_relay, v, "fd2").mean_sum
                   for v in (10.0, 15.0, 20.0))

    si = ExperimentSpec(kind="sumrate_vs_si",
                        schemes=(SchemeId.PROPOSED_FD, SchemeId.HD_ANC, SchemeId.FD_ONEWAY),
                        sweep=(5.0,), trials=300, seed=20243, base=BASE)
    t_si = run_experiment(si)
    hd = row(t_si, 5.0, "hd").mean_sum
    si_ok = (row(t_si, 5.0, "proposed").mean_sum >= hd
             and row(t_si, 5.0, "fd2").mean_sum >= hd)

    sat = ExperimentSpec(kind="sumrate_vs_source_snr", schemes=(SchemeId.PROPOSED_FD,),
                         sweep=(15.0, 25.0), trials=300, seed=20244, base=BASE)
    t_sat = run_experiment(sat)
    m15 = row(t_sat, 15.0, "proposed").mean_sum
    m25 = row(t_sat, 25.0, "proposed").mean_sum
    sat_ok = m25 < 1.15 * m15
    report(3, relay_ok and si_ok and sat_ok,
           f"relay ordering@10/15/20dB={relay_ok}, FD>=HD@SI+5dB={si_ok}, "
           f"saturation m25/m15={m25 / m15:.3f}<1.15")
    assert relay_ok
    assert si_ok
    assert sat_ok, (m15, m25)


def test_criterion_4_antenna_sweep():
    spec = ExperimentSpec(kind="sumrate_vs_antennas",
                          schemes=(SchemeId.PROPOSED_FD, SchemeId.HD_ANC),
                          sweep=(2.0, 3.0, 4.0, 5.0, 6.0), trials=250, seed=20245,
                          base=BASE)
    table = run_experiment(spec)
    rows = [row(table, m, "proposed") for m in (2.0, 3.0, 4.0, 5.0, 6.0)]
    mono_ok = all(rows[i + 1].mean_sum >= rows[i].mean_sum
                  - math.hypot(rows[i].se_sum, rows[i + 1].se_sum)
                  for i in range(4))
    gains = [r.gain_vs_hd for r in rows[1:]]
    gain_ok = all(1.40 <= g <= 1.70 for g in gains)
    report(4, mono_ok and gain_ok,
           f"means={[round(r.mean_sum, 2) for r in rows]}, nondecreasing={mono_ok}, "
           f"gains(M>=3)={[round(g, 3) for g in gains]} in [1.40,1.70]")
    assert mono_ok
    assert gain_ok, gains


def _txbf_instance(seed):
    rng = np.random.default_rng(seed)
    ch = sample_channels(BASE, seed)
    w_r, batch = combiner_row(ch, rng.uniform(0, 1))
    p_a, p_b = rng.uniform(1, 10, size=2)
    rx_a = abs(np.vdot(w_r, ch.h_ar)) ** 2
    gamma_b = rng.uniform(0.05, 0.5) * p_a * rx_a
    return ch, w_r, batch, p_a, p_b, gamma_b


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(99)

    # boundary vector vs the Lagrangian phase-sweep oracle
    boundary_worst = 0.0
    for _ in range(100):
        d1, d2 = unit(crandn(rng, 3)), unit(crandn(rng, 3))
        q = rng.uniform(0, 1)
        inner = complex(np.vdot(d2, d1))
        r = abs(inner)
        z = _null_z(d1, d2, r, cmath.phase(inner) if r > 0 else 0.0, d1.size, q)
        achieved = abs(np.vdot(d2, z)) ** 2
        oracle = lagrangian_boundary_oracle(d1, d2, q).best_value
        boundary_worst = max(boundary_worst, abs(achieved - oracle))
    boundary_ok = boundary_worst <= 1e-8

    # transmit beamformer vs sampling + refinement
    txbf_worst, done = 0.0, 0
    seed = 0
    while done < 100:
        seed += 1
        ch, w_r, batch, p_a, p_b, gamma_b = _txbf_instance(seed)
        try:
            w_t = txbf_p1_row(batch, p_a, p_b, gamma_b, BASE.p_r_max)
        except Infeasible:
            continue
        done += 1
        val = effective_gains(ch, w_t, w_r).tx_gain_a
        oracle = sampled_beamformer_oracle(
            ch, w_r, {"p_a": p_a, "p_b": p_b, "p_r_max": BASE.p_r_max,
                      "gamma_b": gamma_b}, "gain_a", 20_000, seed=seed).best_value
        txbf_worst = max(txbf_worst, abs(val - oracle) / max(1.0, oracle))
    txbf_ok = txbf_worst <= 1e-4

    # power allocations vs the exhaustive grids, within resolution bounds
    def grid_slack(ch, w_t, w_r, objective, gamma_b, rep):
        eps = rep.resolution
        pa, pb = rep.best_point
        g = effective_gains(ch, w_t, w_r)

        def obj(pa_, pb_):
            ga = pb_ * g.tx_gain_a * g.rx_gain_b / (g.tx_gain_a + pa_ * abs(ch.h_aa) ** 2 + 1)
            if objective == "p1":
                return ga
            gb = pa_ * g.tx_gain_b * g.rx_gain_a / (g.tx_gain_b + pb_ * abs(ch.h_bb) ** 2 + 1)
            return math.log2(1 + ga) + math.log2(1 + gb)

        base_val = obj(pa, pb)
        slope = (abs(obj(min(pa + eps, BASE.p_a_max), pb) - base_val)
                 + abs(obj(pa, min(pb + eps, BASE.p_b_max)) - base_val)) / eps
        return 2.0 * slope * eps + 1e-9

    p1_ok, p2_ok, done1, done2 = True, True, 0, 0
    seed = 1000
    while done1 < 100 or done2 < 100:
        seed += 1
        ch, w_r, batch, p_a, p_b, gamma_b = _txbf_instance(seed)
        try:
            w_t = txbf_p1_row(batch, p_a, p_b, gamma_b, BASE.p_r_max)
        except Infeasible:
            continue
        if done1 < 100:
            try:
                pa1, pb1, _ = power_p1_row(w_t, batch, gamma_b, BASE)
            except Infeasible:
                pa1 = None
            if pa1 is not None:
                done1 += 1
                g = effective_gains(ch, w_t, w_r)
                val = pb1 * g.tx_gain_a * g.rx_gain_b / (
                    g.tx_gain_a + pa1 * abs(ch.h_aa) ** 2 + 1.0)
                rep = grid_power_oracle(ch, w_t, w_r, "p1", 400, BASE, gamma_b=gamma_b)
                if np.isfinite(rep.best_value):
                    slack = grid_slack(ch, w_t, w_r, "p1", gamma_b, rep)
                    p1_ok &= val >= rep.best_value - slack
        if done2 < 100:
            done2 += 1
            pa2, pb2, _ = power_row(w_t, batch, BASE)
            ga, gb = sinr_pair(ch, w_t, w_r, pa2, pb2)
            val = math.log2(1 + ga) + math.log2(1 + gb)
            rep = grid_power_oracle(ch, w_t, w_r, "p2", 400, BASE)
            if np.isfinite(rep.best_value):
                slack = grid_slack(ch, w_t, w_r, "p2", None, rep)
                p2_ok &= val >= rep.best_value - slack

    # dc step vs the (level, phase) grid oracle
    dc_worst = 0.0
    for k in range(100):
        ch, w_r, batch, p_a, p_b, _ = _txbf_instance(3000 + k)
        rng_k = np.random.default_rng(k)
        n = int(batch.rank[0])
        z0 = np.zeros(BASE.m_t, dtype=complex)  # zero past the rank, as the basis
        z0[:n] = unit(crandn(rng_k, n))
        rx_a = abs(np.vdot(w_r, ch.h_ar)) ** 2
        rx_b = abs(np.vdot(w_r, ch.h_br)) ** 2
        p_prime = BASE.p_r_max / (p_a * rx_a + p_b * rx_b + 1.0)
        # the rows of f are a_t^H and b_t^H
        anchor = (p_prime * abs(batch.f[0, 0] @ z0) ** 2,
                  p_prime * abs(batch.f[0, 1] @ z0) ** 2)
        s_a, s_b, _ = dc_step(ch, batch, p_a, p_b, anchor, BASE)
        val = dc_linearized_objective(ch, w_r, p_a, p_b, s_a, s_b, anchor)
        oracle = dc_grid_oracle(ch, w_r, p_a, p_b, anchor, BASE, n=900).best_value
        dc_worst = max(dc_worst, abs(val - oracle) / max(1.0, abs(oracle)))
    dc_ok = dc_worst <= 1e-4

    ok = boundary_ok and txbf_ok and p1_ok and p2_ok and dc_ok
    report(5, ok, f"boundary worst={boundary_worst:.1e}<=1e-8, "
                  f"txbf worst rel={txbf_worst:.1e}<=1e-4, power p1 ok={p1_ok}, "
                  f"power p2 ok={p2_ok}, dc worst rel={dc_worst:.1e}<=1e-4")
    assert boundary_ok, boundary_worst
    assert txbf_ok, txbf_worst
    assert p1_ok
    assert p2_ok
    assert dc_ok, dc_worst


def test_criterion_6_structural_invariants():
    calls = 0
    rng = np.random.default_rng(7)

    # transmit beamformer P1: ZF residual, relay power equality, threshold
    for seed in range(3000):
        ch, w_r, batch, p_a, p_b, gamma_b = _txbf_instance(50_000 + seed)
        try:
            w_t = txbf_p1_row(batch, p_a, p_b, gamma_b, BASE.p_r_max)
        except Infeasible:
            calls += 1
            continue
        calls += 1
        assert zf_ok(ch, w_t, w_r)
        assert abs(relay_output_power(ch, w_t, w_r, p_a, p_b) - BASE.p_r_max) <= 1e-8
        _, gb = sinr_pair(ch, w_t, w_r, p_a, p_b)
        assert gb >= gamma_b * (1 - 1e-8)

    # power allocation P1: box, relay cap, threshold
    for seed in range(2500):
        ch, w_r, batch, p_a, p_b, gamma_b = _txbf_instance(60_000 + seed)
        try:
            w_t = txbf_p1_row(batch, p_a, p_b, gamma_b, BASE.p_r_max)
            pa, pb, _ = power_p1_row(w_t, batch, gamma_b, BASE)
        except Infeasible:
            calls += 1
            continue
        calls += 1
        assert -1e-9 <= pa <= BASE.p_a_max + 1e-9
        assert -1e-9 <= pb <= BASE.p_b_max + 1e-9
        assert relay_output_power(ch, w_t, w_r, pa, pb) <= BASE.p_r_max + 1e-8
        _, gb = sinr_pair(ch, w_t, w_r, pa, pb)
        assert gb >= gamma_b * (1 - 1e-8)

    # transmit beamformer P2: ZF, relay power cap, never below the cold start
    for seed in range(1500):
        ch, w_r, batch, p_a, p_b, _ = _txbf_instance(70_000 + seed)
        w_t = txbf_row(batch, p_a, p_b, BASE)
        calls += 1
        assert zf_ok(ch, w_t, w_r)
        assert relay_output_power(ch, w_t, w_r, p_a, p_b) <= BASE.p_r_max + 1e-8
        if batch.has[0, 0]:
            rx_a, rx_b = batch.rx[0]
            p_prime = BASE.p_r_max / (p_a * rx_a + p_b * rx_b + 1.0)
            cold = math.sqrt(p_prime) * (batch.n_t[0] @ batch.d[0, :, 0])
            val, val_cold = (dc_objective(ch, w_r, p_a, p_b, abs(np.vdot(ch.h_ra, w)) ** 2,
                                          abs(np.vdot(ch.h_rb, w)) ** 2) for w in (w_t, cold))
            assert val >= val_cold * (1.0 - 1e-12)

    # power allocation P2: box and relay cap
    for seed in range(2000):
        ch, w_r, batch, p_a, p_b, _ = _txbf_instance(80_000 + seed)
        w_t = txbf_row(batch, p_a, p_b, BASE)
        pa, pb, _ = power_row(w_t, batch, BASE)
        calls += 1
        assert -1e-9 <= pa <= BASE.p_a_max + 1e-9
        assert -1e-9 <= pb <= BASE.p_b_max + 1e-9
        assert relay_output_power(ch, w_t, w_r, pa, pb) <= BASE.p_r_max * (1 + 1e-9) + 1e-9

    # alternating solvers: traces, rate consistency, all feasibility
    for seed in range(300):
        ch = sample_channels(BASE, 90_000 + seed)
        alpha = rng.uniform(0, 1)
        try:
            pt = optimize_fixed_alpha_p1(ch, alpha, rng.uniform(0, 2), BASE)
        except Infeasible:
            calls += 1
            continue
        calls += 1
        assert np.all(np.diff(pt.trace) >= -1e-9)
        assert abs(pt.rate_a - math.log2(1 + pt.gamma_a)) <= 1e-12
        assert abs(pt.rate_b - math.log2(1 + pt.gamma_b)) <= 1e-12
        assert pt.powers.p_r <= BASE.p_r_max + 1e-8
        assert zf_ok(ch, pt.beamformer.w_t, pt.beamformer.w_r)
    for seed in range(300):
        ch = sample_channels(BASE, 95_000 + seed)
        pt = optimize_fixed_alpha_p2(ch, rng.uniform(0, 1), BASE)
        calls += 1
        assert np.all(np.diff(pt.trace) >= -1e-9)
        assert abs(pt.rate_a - math.log2(1 + pt.gamma_a)) <= 1e-12
        assert abs(pt.rate_b - math.log2(1 + pt.gamma_b)) <= 1e-12
        assert pt.powers.p_r <= BASE.p_r_max + 1e-8
        assert 0 <= pt.powers.p_a <= BASE.p_a_max + 1e-9
        assert 0 <= pt.powers.p_b <= BASE.p_b_max + 1e-9
        assert zf_ok(ch, pt.beamformer.w_t, pt.beamformer.w_r)

    # per-trial scheme ordering on full pipelines
    spec = ExperimentSpec(
        kind="sumrate_vs_source_snr",
        schemes=(SchemeId.PROPOSED_FD, SchemeId.FD_UPPER_BOUND, SchemeId.LOCAL_CSI),
        sweep=(10.0,), trials=150, seed=20246, base=BASE)
    table = run_experiment(spec, keep_samples=True)
    ub = np.array(table.samples[(10.0, "ub")])
    prop = np.array(table.samples[(10.0, "proposed")])
    lc = np.array(table.samples[(10.0, "localcsi")])
    calls += 3 * len(prop)
    order_ok = bool(np.all(ub >= prop - 1e-6) and np.all(prop >= lc - 1e-6))

    report(6, order_ok and calls >= 10_000,
           f"{calls} randomized calls, per-trial ub>=proposed>=localcsi={order_ok}")
    assert calls >= 10_000, calls
    assert order_ok


def _radial(points, theta):
    """Radial reach of the staircase region through the boundary points."""
    best = 0.0
    pts = [(points[0][0], 0.0)] + list(points) + [(0.0, points[-1][1])]
    for (x1, y1), (x2, y2) in zip(pts[:-1], pts[1:]):
        dx, dy = x2 - x1, y2 - y1
        den = dy * math.cos(theta) - dx * math.sin(theta)
        if abs(den) < 1e-12:
            continue
        s = (dy * x1 - dx * y1) / den
        if s <= 0:
            continue
        px, py = s * math.cos(theta), s * math.sin(theta)
        tpar = ((px - x1) * dx + (py - y1) * dy) / (dx * dx + dy * dy + 1e-300)
        if -1e-9 <= tpar <= 1 + 1e-9:
            best = max(best, s)
    return best


def test_criterion_7_region_dominance():
    fractions = tuple(np.linspace(0.0, 1.0, 9))
    spec = ExperimentSpec(kind="rate_region",
                          schemes=(SchemeId.PROPOSED_FD, SchemeId.HD_ANC),
                          sweep=fractions, trials=100, seed=20247, base=BASE)
    table = run_experiment(spec)
    prop = [(row(table, f, "proposed").mean_ra, row(table, f, "proposed").mean_rb)
            for f in fractions]
    hd = [(row(table, f, "hd").mean_ra, row(table, f, "hd").mean_rb)
          for f in fractions]
    thetas = [k * math.pi / 2 / 19 for k in range(1, 19)]
    margins = [_radial(prop, th) - _radial(hd, th) for th in thetas]
    enclosure_ok = all(m >= -1e-9 for m in margins)

    asym_base = replace(BASE, gain_br=0.1)
    spec_a = ExperimentSpec(kind="rate_region", schemes=(SchemeId.PROPOSED_FD,),
                            sweep=fractions, trials=100, seed=20247, base=asym_base)
    table_a = run_experiment(spec_a)
    asym = [(row(table_a, f, "proposed").mean_ra, row(table_a, f, "proposed").mean_rb)
            for f in fractions]
    factor_a = asym[0][0] / prop[0][0]   # A-endpoint rate retention
    factor_b = asym[-1][1] / prop[-1][1]  # B-endpoint rate retention
    asym_ok = factor_b < factor_a

    report(7, enclosure_ok and asym_ok,
           f"enclosure min margin={min(margins):.4f}>=0, "
           f"asym retention A={factor_a:.3f} > B={factor_b:.3f}")
    assert enclosure_ok, min(margins)
    assert asym_ok, (factor_a, factor_b)
