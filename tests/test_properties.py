"""Property tests of the transmit-beamformer, power, sum-rate and
rate-region solvers, and of the per-realization scheme ordering, over
randomized system configurations.

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

from fdtwrc.baselines import local_csi_sum_rate, upper_bound_solve
from fdtwrc.model import (
    SystemConfig,
    combiner_or_endpoint,
    db_to_linear,
    effective_gains,
    relay_output_power,
    sample_channels,
    sinr_pair,
    zf_residual,
)
from fdtwrc.oracles import grid_power_oracle
from fdtwrc.rate_region import (
    Infeasible,
    max_rate_given_rb,
    rate_region,
    solve_power_p1,
    solve_txbf_p1,
)
from fdtwrc.sum_rate import max_sum_rate, solve_txbf_p2

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
    w_r = combiner_or_endpoint(ch, alpha)
    p_a, p_b = power_share[0] * cfg.p_a_max, power_share[1] * cfg.p_b_max

    w_t, states = solve_txbf_p2(ch, w_r, p_a, p_b, cfg, return_states=True)
    assert zf_ok(ch, w_t, w_r)
    vals = [s.f_value for s in states]
    p_r = relay_output_power(ch, w_t, w_r, p_a, p_b)
    assert abs(p_r - cfg.p_r_max) <= 1e-8 * max(1.0, cfg.p_r_max)
    assert np.all(np.isfinite(vals))
    assert np.all(np.diff(vals) >= -1e-9)

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
    w_r = combiner_or_endpoint(ch, alpha)
    p_a, p_b = power_share[0] * cfg.p_a_max, power_share[1] * cfg.p_b_max
    # B's SINR target as a share of what A's full uplink could carry; above
    # 1 the SINR gate must refuse it
    gamma_b = target_share * p_a * abs(np.vdot(w_r, ch.h_ar)) ** 2
    try:
        w_t = solve_txbf_p1(ch, w_r, p_a, p_b, gamma_b, cfg.p_r_max)
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
    w_r = combiner_or_endpoint(ch, alpha)
    p_a, p_b = power_share[0] * cfg.p_a_max, power_share[1] * cfg.p_b_max
    try:
        w_t = solve_txbf_p1(ch, w_r, p_a, p_b, 0.0, cfg.p_r_max)
    except Infeasible:
        return
    g = effective_gains(ch, w_t, w_r)
    # B's target as a share of what p_a_max carries at p_b = 0; above 1 no
    # power pair meets it
    gamma_b = target_share * cfg.p_a_max * g.tx_gain_b * g.rx_gain_a / (g.tx_gain_b + 1.0)
    oracle = grid_power_oracle(ch, w_t, w_r, "p1", 400, cfg, gamma_b=gamma_b)
    try:
        pa, pb = solve_power_p1(ch, w_t, w_r, gamma_b, cfg)
    except Infeasible:
        assert oracle.best_value == -np.inf
        return
    assert 0.0 <= pa <= cfg.p_a_max and 0.0 <= pb <= cfg.p_b_max
    nt2 = float(np.vdot(w_t, w_t).real)
    load = nt2 * (cfg.p_a_max * g.rx_gain_a + cfg.p_b_max * g.rx_gain_b)
    assert relay_output_power(ch, w_t, w_r, pa, pb) <= cfg.p_r_max + 1e-8 * max(1.0, cfg.p_r_max, load)
    g_a, g_b = sinr_pair(ch, w_t, w_r, pa, pb)
    assert g_b >= gamma_b * (1.0 - 1e-8)
    lip = g.tx_gain_a * g.rx_gain_b * (1.0 + cfg.p_b_max * abs(ch.h_aa) ** 2)
    assert g_a >= oracle.best_value - 2.0 * lip * oracle.resolution - 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(cfg=configs, seed=st.integers(0, 2**32 - 1))
def test_scheme_ordering_per_realization(cfg, seed):
    # ub drops the ZF restriction from the proposed problem, and localcsi is
    # one feasible point of it (full powers, balanced combiner)
    ch = sample_channels(cfg, seed)
    proposed = max_sum_rate(ch, cfg)
    ub = upper_bound_solve(ch, cfg, proposed=proposed)
    local = local_csi_sum_rate(ch, cfg, seed)
    assert ub.sum_rate >= proposed.sum_rate - 1e-9
    assert proposed.sum_rate >= local.sum_rate - 1e-9
