"""Property tests of the null-space vector builder, the transmit-beamformer,
power, sum-rate and rate-region solvers, and of the per-realization scheme
ordering, over randomized system configurations.

Configurations span m_t in [2, 8], m_r in [1, 8], source and relay SNRs from
-10 to 60 dB, residual SI variances from 0 to 1 (linear) and an asymmetric
B-side link gain.  RuntimeWarnings are errors, so a 0/0 or an overflow that
min/max clamping would hide fails the test.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdtwrc.baselines import hd_anc_solve, local_csi_sum_rate, upper_bound_solve
from fdtwrc.model import (
    SystemConfig,
    db_to_linear,
    effective_gains,
    receive_combiner,
    relay_output_power,
    sample_channels,
    sinr_pair,
    strip_source_si,
    zero_loopback,
    zf_residual,
)
from fdtwrc.oracles import grid_power_oracle
from fdtwrc.rate_region import (
    Infeasible,
    _combiners,
    _gamma_b_max,
    _null_z,
    _tx_context,
    boundary_range,
    max_rate_given_rb,
    optimize_fixed_alpha_p1,
    rate_region,
    solve_power_p1,
    solve_txbf_p1,
)
from fdtwrc.sum_rate import max_sum_rate, optimize_fixed_alpha_p2, solve_txbf_p2

configs = st.builds(
    lambda m_t, m_r, p_src_db, p_relay_db, si, gain_br_db: replace(
        SystemConfig(), m_t=m_t, m_r=m_r,
        p_a_max=db_to_linear(p_src_db), p_b_max=db_to_linear(p_src_db),
        p_r_max=db_to_linear(p_relay_db),
        sigma2_a=si[0], sigma2_b=si[1], sigma2_r=si[2],
        gain_br=db_to_linear(gain_br_db)),
    st.integers(2, 8), st.integers(1, 8),
    st.floats(-10.0, 60.0), st.floats(-10.0, 60.0),
    st.tuples(*[st.floats(0.0, 1.0)] * 3),
    st.floats(-20.0, 20.0),
)


def zf_ok(ch, w_t, w_r):
    return zf_residual(ch, w_t, w_r) <= 1e-9 * max(
        1.0, np.linalg.norm(ch.h_rr) * np.linalg.norm(w_t))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cfg=configs, seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.0, 1.0),
       power_share=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_sum_rate_invariants(cfg, seed, alpha, power_share):
    ch = sample_channels(cfg, seed)
    w_r = receive_combiner(ch, alpha)
    p_a, p_b = power_share[0] * cfg.p_a_max, power_share[1] * cfg.p_b_max

    w_t = solve_txbf_p2(ch, _tx_context(ch, w_r), p_a, p_b, cfg)
    assert zf_ok(ch, w_t, w_r)
    p_r = relay_output_power(ch, w_t, w_r, p_a, p_b)
    assert abs(p_r - cfg.p_r_max) <= 1e-8 * max(1.0, cfg.p_r_max)
    assert np.all(np.isfinite(sinr_pair(ch, w_t, w_r, p_a, p_b)))

    pt = max_sum_rate(ch, cfg)
    assert np.isfinite(pt.sum_rate) and pt.sum_rate >= 0.0
    assert zf_ok(ch, pt.beamformer.w_t, pt.beamformer.w_r)
    assert pt.powers.p_r <= cfg.p_r_max * (1.0 + 1e-9) + 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cfg=configs, seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.0, 1.0),
       power_share=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       target_share=st.floats(0.0, 1.5))
def test_txbf_p1_invariants(cfg, seed, alpha, power_share, target_share):
    ch = sample_channels(cfg, seed)
    w_r = receive_combiner(ch, alpha)
    p_a, p_b = power_share[0] * cfg.p_a_max, power_share[1] * cfg.p_b_max
    # B's SINR target as a share of what A's full uplink could carry; above
    # 1 the SINR gate must refuse it
    gamma_b = target_share * p_a * abs(np.vdot(w_r, ch.h_ar)) ** 2
    try:
        w_t = solve_txbf_p1(ch, _tx_context(ch, w_r), p_a, p_b, gamma_b, cfg.p_r_max)
    except Infeasible as exc:
        assert exc.stage in {"sinr_gate", "beam_power_gate"}
        return
    assert zf_ok(ch, w_t, w_r)
    p_r = relay_output_power(ch, w_t, w_r, p_a, p_b)
    assert abs(p_r - cfg.p_r_max) <= 1e-8 * max(1.0, cfg.p_r_max)
    _, g_b = sinr_pair(ch, w_t, w_r, p_a, p_b)
    assert g_b >= gamma_b * (1.0 - 1e-8)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(cfg=configs, seed=st.integers(0, 2**32 - 1))
def test_rate_region_invariants(cfg, seed):
    ch = sample_channels(cfg, seed)
    entries = rate_region(ch, 4, cfg)
    targets = [r_b for r_b, _ in entries]
    assert targets[0] == 0.0
    assert np.all(np.diff(targets) >= 0.0)
    assert entries[-1][1] is not None
    if targets[-1] > 0.0:  # the endpoint is B's largest target to 1e-8
        with pytest.raises(Infeasible):
            max_rate_given_rb(ch, targets[-1] * (1.0 + 1e-8), cfg)
    for r_b, pt in entries:
        assert pt.rate_b >= r_b - 1e-9
    rates_a = [pt.rate_a for _, pt in entries]
    assert np.all(np.diff(rates_a) <= 1e-12)  # the sweep's repair tolerance


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cfg=configs, seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.0, 1.0),
       power_share=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       target_share=st.floats(0.0, 1.5))
def test_power_p1_against_grid_oracle(cfg, seed, alpha, power_share, target_share):
    ch = sample_channels(cfg, seed)
    w_r = receive_combiner(ch, alpha)
    p_a, p_b = power_share[0] * cfg.p_a_max, power_share[1] * cfg.p_b_max
    try:
        w_t = solve_txbf_p1(ch, _tx_context(ch, w_r), p_a, p_b, 0.0, cfg.p_r_max)
    except Infeasible:
        return
    g = effective_gains(ch, w_t, w_r)
    # B's target as a share of what p_a_max carries at p_b = 0; above 1 no
    # power pair meets it
    gamma_b = target_share * cfg.p_a_max * g.tx_gain_b * g.rx_gain_a / (g.tx_gain_b + 1.0)
    oracle = grid_power_oracle(ch, w_t, w_r, "p1", 400, cfg, gamma_b=gamma_b)
    try:
        pa, pb, value = solve_power_p1(ch, w_t, _tx_context(ch, w_r), gamma_b, cfg)
    except Infeasible:
        assert oracle.best_value == -np.inf
        return
    assert 0.0 <= pa <= cfg.p_a_max and 0.0 <= pb <= cfg.p_b_max
    nt2 = float(np.vdot(w_t, w_t).real)
    load = nt2 * (cfg.p_a_max * g.rx_gain_a + cfg.p_b_max * g.rx_gain_b)
    assert relay_output_power(ch, w_t, w_r, pa, pb) <= cfg.p_r_max + 1e-8 * max(1.0, cfg.p_r_max, load)
    g_a, g_b = sinr_pair(ch, w_t, w_r, pa, pb)
    assert value == g_a  # the objective it maximized, bit for bit
    assert g_b >= gamma_b * (1.0 - 1e-8)
    lip = g.tx_gain_a * g.rx_gain_b * (1.0 + cfg.p_b_max * abs(ch.h_aa) ** 2)
    assert g_a >= oracle.best_value - 2.0 * lip * oracle.resolution - 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cfg=configs, seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.0, 1.0),
       target_share=st.floats(0.0, 1.0))
def test_converged_trace_ends_at_the_point_objective(cfg, seed, alpha, target_share):
    # a loop that stops before iter_max returns the point its last power
    # step scored, so the traced objective is the point's own, exactly
    ch = sample_channels(cfg, seed)
    pt = optimize_fixed_alpha_p2(ch, alpha, cfg)
    if len(pt.trace) < SystemConfig.iter_max:
        assert pt.trace[-1] == pt.sum_rate
    gamma_b = target_share * _gamma_b_max(_combiners(ch), cfg)
    try:
        pt = optimize_fixed_alpha_p1(ch, alpha, gamma_b, cfg)
    except Infeasible:
        return
    if len(pt.trace) < SystemConfig.iter_max:
        assert pt.trace[-1] == pt.gamma_a


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(cfg=configs, seed=st.integers(0, 2**32 - 1))
def test_scheme_ordering_per_realization(cfg, seed):
    # ub drops the ZF restriction from the proposed problem, and localcsi is
    # one feasible point of it (full powers, balanced combiner).  With no SI
    # and no loopback the proposed solver keeps full powers and, halved, is
    # the rank-one HD scheme, which the full-matrix HD search must reach
    ch = sample_channels(cfg, seed)
    proposed = max_sum_rate(ch, cfg)
    ub = upper_bound_solve(ch, cfg, proposed)
    local = local_csi_sum_rate(ch, cfg, seed)
    assert ub.sum_rate >= proposed.sum_rate - 1e-9
    assert proposed.sum_rate >= local.sum_rate - 1e-9
    rank_one = max_sum_rate(strip_source_si(zero_loopback(ch)), cfg)
    assert (rank_one.powers.p_a, rank_one.powers.p_b) == (cfg.p_a_max, cfg.p_b_max)
    assert (hd_anc_solve(ch, cfg).sum_rate
            >= 0.5 * rank_one.sum_rate - 1e-6 * max(1.0, rank_one.sum_rate))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["generic", "collinear", "no_d1", "no_d2", "neither"]),
       q=st.floats(0.0, 1.0), share=st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_null_z_meets_its_targets(n, seed, kind, q, share):
    # d1, d2 as _tx_context hands them over: unit directions, None when
    # missing, r = phi = 0 unless both are present; t is placed at ``share``
    # of the slice's |d2^H z|^2 range, or None for the boundary maximum
    rng = np.random.default_rng(seed)
    pair = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    d1, d2 = pair / np.linalg.norm(pair, axis=1, keepdims=True)
    if kind == "collinear":
        d2 = d1 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    d1 = None if kind in ("no_d1", "neither") else d1
    d2 = None if kind in ("no_d2", "neither") else d2
    r, phi = 0.0, 0.0
    if d1 is not None and d2 is not None:
        inner = complex(np.vdot(d2, d1))
        r, phi = min(abs(inner), 1.0), np.angle(inner)
    lo, hi = boundary_range(r, q, n)
    t = None if share is None else float(np.sqrt(lo + share * (hi - lo)))

    z = _null_z(d1, d2, r, phi, n, q, t)
    assert abs(np.linalg.norm(z) - 1.0) <= 1e-10
    if d1 is not None:
        assert abs(abs(np.vdot(d1, z)) ** 2 - q) <= 1e-10
    if d2 is not None:
        # collinear directions pin |d2^H z| to r sqrt(q), which the slice
        # brackets within sqrt(1 - r^2)
        tol = 1e-10 + (2.0 * np.sqrt(1.0 - r * r) if kind == "collinear" else 0.0)
        assert abs(abs(np.vdot(d2, z)) - (np.sqrt(hi) if t is None else t)) <= tol
