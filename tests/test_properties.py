"""Property tests of the null-space vector builder, the transmit-beamformer,
power, sum-rate and rate-region solvers, and of the per-realization scheme
ordering, over randomized system configurations.

Configurations span m_t in [2, 8], m_r in [1, 8], source and relay SNRs from
-10 to 60 dB, residual SI variances from 0 to 1 (linear) and an asymmetric
B-side link gain; ``test_every_scheme_on_the_config_space`` draws the three
power budgets independently from 0 to 70 dB and SI variances from -40 to
+10 dB.  RuntimeWarnings are errors, so a 0/0 or an overflow that min/max
clamping would hide fails the test.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdtwrc.baselines import (
    fd_oneway_sum_rates,
    hd_anc_region,
    hd_anc_regions,
    hd_anc_solve,
    hd_anc_solves,
    local_csi_sum_rate,
    upper_bound_solve,
    upper_bound_solves,
)
from fdtwrc.model import (
    SystemConfig,
    db_to_linear,
    effective_gains,
    relay_output_power,
    sample_channels,
    sinr_pair,
    zero_loopback,
)
from fdtwrc.oracles import grid_power_oracle
from fdtwrc.rate_region import (
    Infeasible,
    _combiner_table,
    _gamma_b_max,
    _grid,
    _null_z,
    boundary_range,
    max_rate_given_rb,
    optimize_fixed_alpha_p1,
    rate_region,
    rate_regions,
)
from fdtwrc.sum_rate import (
    max_sum_rate,
    max_sum_rates,
    optimize_fixed_alpha_p2,
    solve_power_p2,
    solve_txbf_p2,
)
from one_row import combiner_row, power_p1_row, txbf_p1_row, txbf_row
from reference_dc import zf_residual
from reference_hd import reference_region, reference_sum_rate

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
    w_r, batch = combiner_row(ch, alpha)
    p_a, p_b = power_share[0] * cfg.p_a_max, power_share[1] * cfg.p_b_max

    w_t = txbf_row(batch, p_a, p_b, cfg)
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
    w_r, batch = combiner_row(ch, alpha)
    p_a, p_b = power_share[0] * cfg.p_a_max, power_share[1] * cfg.p_b_max
    # B's SINR target as a share of what A's full uplink could carry; above
    # 1 the SINR gate must refuse it
    gamma_b = target_share * p_a * abs(np.vdot(w_r, ch.h_ar)) ** 2
    try:
        w_t = txbf_p1_row(batch, p_a, p_b, gamma_b, cfg.p_r_max)
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
# two endpoints that the alternation lost when a re-solved beamformer failed
# the gates after a power step moved a power by its 1e-9 slack
@example(cfg=SystemConfig(m_t=2, m_r=5, p_a_max=3771963.2951136506, p_b_max=0.01378563198493276,
                          p_r_max=534182.9760282678, sigma2_a=1.6796936730109986e-08,
                          sigma2_b=1.2425807102690115e-05, sigma2_r=562.2995079777406,
                          gain_br=7689371153.57009), seed=1110516712)
@example(cfg=SystemConfig(m_t=2, m_r=3, p_a_max=5117.369373427507, p_b_max=37055.76810114421,
                          p_r_max=23860.501523146275, sigma2_a=0.0007075320597072103,
                          sigma2_b=0.01656777773460842, sigma2_r=0.002763823209462929,
                          gain_br=58.49965860859409), seed=1806957627)
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
    w_r, batch = combiner_row(ch, alpha)
    p_a, p_b = power_share[0] * cfg.p_a_max, power_share[1] * cfg.p_b_max
    try:
        w_t = txbf_p1_row(batch, p_a, p_b, 0.0, cfg.p_r_max)
    except Infeasible:
        return
    g = effective_gains(ch, w_t, w_r)
    # B's target as a share of what p_a_max carries at p_b = 0; above 1 no
    # power pair meets it
    gamma_b = target_share * cfg.p_a_max * g.tx_gain_b * g.rx_gain_a / (g.tx_gain_b + 1.0)
    oracle = grid_power_oracle(ch, w_t, w_r, "p1", 400, cfg, gamma_b=gamma_b)
    try:
        pa, pb, value = power_p1_row(w_t, batch, gamma_b, cfg)
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
    gamma_b = target_share * _gamma_b_max(_grid(_combiner_table(ch), cfg), cfg)[0]
    try:
        pt = optimize_fixed_alpha_p1(ch, alpha, gamma_b, cfg)
    except Infeasible:
        return
    if len(pt.trace) < SystemConfig.iter_max:
        assert pt.trace[-1] == pt.gamma_a


def stopped_on_kept_powers(trace):
    """Whether an alternation with this trace stopped because its last power
    step kept the powers, or (P1 only) because the beamformer re-solved at
    its new powers failed the gates: it ended before iter_max, and its last
    gain over the previous value (0 before the first) is too large for
    conv_tol to have stopped it.  A conv_tol stop can follow a power move (a
    first value below conv_tol, say), so it need not be a power fixed
    point."""
    gain = trace[-1] - (trace[-2] if len(trace) > 1 else 0.0)
    return len(trace) < SystemConfig.iter_max and gain >= SystemConfig.conv_tol


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cfg=configs, seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.0, 1.0),
       target_share=st.floats(0.0, 1.0))
# a P1 loop whose beamformer, re-solved at B's near-zero target after a
# power move, fails the beam-power gate: it stops at its last traced point
@example(cfg=SystemConfig(m_t=2, m_r=1, p_a_max=1.0, p_b_max=1.0, p_r_max=12589.254117941662,
                          sigma2_a=0.0, sigma2_b=0.0, sigma2_r=1.0, gain_br=3.1622776601683795),
         seed=0, alpha=0.0, target_share=8.875091588238756e-250)
def test_stopped_point_is_a_power_fixed_point(cfg, seed, alpha, target_share):
    # a loop that stopped on kept powers stopped at a power fixed point: one
    # more beamformer solve at the point's powers and one more power step
    # return those powers and the traced value (P2 up to rounding, P1 bit
    # for bit, since P1's beamformer ignores its warm start).  A P1 loop
    # whose beamformer fails the gates at the point's powers stopped at its
    # last traced point instead: the kept beamformer's power step returns
    # the point's powers and the traced value
    ch = sample_channels(cfg, seed)
    table = _combiner_table(ch)
    _, batch = table(np.array([alpha]))
    pt = optimize_fixed_alpha_p2(ch, alpha, cfg)
    if stopped_on_kept_powers(pt.trace):
        p_a, p_b = pt.powers.p_a, pt.powers.p_b
        w_t = solve_txbf_p2(batch, np.array([p_a]), np.array([p_b]), cfg,
                            w_t_init=pt.beamformer.w_t[None])
        powers_a, powers_b, values = solve_power_p2(w_t, batch, cfg)
        assert [powers_a[0], powers_b[0]] == [p_a, p_b]
        assert abs(values[0] - pt.trace[-1]) <= 1e-12 * pt.trace[-1]
    gamma_b = target_share * _gamma_b_max(_grid(table, cfg), cfg)[0]
    try:
        pt = optimize_fixed_alpha_p1(ch, alpha, gamma_b, cfg)
    except Infeasible:
        return
    if stopped_on_kept_powers(pt.trace):
        p_a, p_b = pt.powers.p_a, pt.powers.p_b
        try:
            w_t = txbf_p1_row(batch, p_a, p_b, gamma_b, cfg.p_r_max)
            assert np.array_equal(w_t, pt.beamformer.w_t)
        except Infeasible:  # the gates fail at the point's powers
            w_t = pt.beamformer.w_t
        assert power_p1_row(w_t, batch, gamma_b, cfg) == (p_a, p_b, pt.trace[-1])


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
    ub = upper_bound_solve(ch, cfg)
    local = local_csi_sum_rate(ch, cfg, seed)
    assert ub.sum_rate >= proposed.sum_rate - 1e-9
    assert proposed.sum_rate >= local.sum_rate - 1e-9
    rank_one = max_sum_rate(replace(zero_loopback(ch), h_aa=0j, h_bb=0j), cfg)
    assert (rank_one.powers.p_a, rank_one.powers.p_b) == (cfg.p_a_max, cfg.p_b_max)
    assert (hd_anc_solve(ch, cfg).sum_rate
            >= 0.5 * rank_one.sum_rate - 1e-6 * max(1.0, rank_one.sum_rate))


# corner cases of P2's batched solver, each applied to a random config
P2_EDGES = {
    "none": lambda cfg: cfg,
    "null_dim_1": lambda cfg: replace(cfg, m_t=2),  # the forced direction
    "single_rx_antenna": lambda cfg: replace(cfg, m_r=1),  # one combiner for every alpha
    "zero_loopback": lambda cfg: cfg,  # ub's channels: the identity null space
    "no_relay_power": lambda cfg: replace(cfg, p_r_max=0.0),  # w_t = 0, budget inf
    "weak_b_link": lambda cfg: replace(cfg, gain_br=1e-90),
    "si_0db": lambda cfg: replace(cfg, sigma2_a=1.0, sigma2_b=1.0, sigma2_r=1.0),  # powers move
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=70, deadline=None, derandomize=True, database=None)
@given(cfg=configs, seed=st.integers(0, 2**32 - 1), edge=st.sampled_from(sorted(P2_EDGES)),
       extra=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
@example(cfg=SystemConfig(), seed=143, edge="si_0db", extra=[0.35])
@example(cfg=SystemConfig(), seed=16, edge="none", extra=[0.45])
def test_batch_equals_batches_of_one(cfg, seed, edge, extra):
    # P2's batched alternation treats its combiners independently: a batch
    # of K combiners gives the powers, values and beamformers of K batches
    # of one, including the rows that re-solve after their powers move, and
    # the combiner search never ends below its best grid combiner
    cfg = P2_EDGES[edge](cfg)
    ch = sample_channels(cfg, seed)
    if edge == "zero_loopback":
        ch = zero_loopback(ch)
    alphas = np.concatenate([np.linspace(0.0, 1.0, cfg.alpha_grid), extra])
    batch = optimize_fixed_alpha_p2(ch, alphas, cfg)
    for k, alpha in enumerate(alphas):
        one = optimize_fixed_alpha_p2(ch, alphas[k:k + 1], cfg)
        assert np.array_equal(one.powers[0], batch.powers[k])
        assert len(one.trace(0)) == len(batch.trace(k))
        assert np.allclose(one.trace(0), batch.trace(k), rtol=1e-12, atol=0.0)
        w_t = batch.w_t[k]
        assert np.linalg.norm(one.w_t[0] - w_t) <= 1e-12 * np.linalg.norm(w_t)
        pt = optimize_fixed_alpha_p2(ch, float(alpha), cfg)
        assert pt.trace == batch.trace(k) and np.array_equal(pt.beamformer.w_t, w_t)
    best_grid = max(batch.values[:cfg.alpha_grid])
    assert max_sum_rate(ch, cfg).sum_rate >= best_grid * (1.0 - 1e-12)


# the valid config space: each power budget on its own from 0 to 70 dB, SI
# variances from -40 to +10 dB
wide_configs = st.builds(
    lambda m_t, m_r, power_db, si_db, gain_br_db: SystemConfig(
        m_t=m_t, m_r=m_r, p_a_max=db_to_linear(power_db[0]), p_b_max=db_to_linear(power_db[1]),
        p_r_max=db_to_linear(power_db[2]), sigma2_a=db_to_linear(si_db[0]),
        sigma2_b=db_to_linear(si_db[1]), sigma2_r=db_to_linear(si_db[2]),
        gain_br=db_to_linear(gain_br_db)),
    st.integers(2, 6), st.integers(1, 6), st.tuples(*[st.floats(0.0, 70.0)] * 3),
    st.tuples(*[st.floats(-40.0, 10.0)] * 3), st.floats(-20.0, 20.0),
)


def assert_point_within_limits(scheme, ch, pt, cfg, r_b=None):
    """Finite rates, powers in the box, relay power within the budget, ZF
    for the schemes that keep it (ub's points belong to the zero-loopback
    realization; HD's relay power is its matrix's) and, at B's target r_b,
    B's rate at or above it within the thresholds' 1e-9 back-off.  HD's
    targets are not checked: from about 60 dB of relay power its region
    solve misses them by more than the back-off (up to 3.4e-9 relative in
    SINR), since its dual tests feasibility in coordinates whitened by
    I + p_r t_a, where rounding grows with their condition number."""
    assert math.isfinite(pt.rate_a) and math.isfinite(pt.rate_b)
    if r_b is not None and scheme != "hd":
        assert pt.rate_b >= r_b * (1.0 - 1e-9)
    p_r = pt.powers.p_r
    if scheme == "hd":
        w = pt.beamformer.w_full
        p_r = (cfg.p_a_max * np.linalg.norm(w @ ch.h_ar) ** 2
               + cfg.p_b_max * np.linalg.norm(w @ ch.h_br) ** 2 + np.linalg.norm(w) ** 2)
    assert 0.0 <= pt.powers.p_a <= cfg.p_a_max and 0.0 <= pt.powers.p_b <= cfg.p_b_max
    assert p_r <= cfg.p_r_max * (1.0 + 1e-9) + 1e-9
    if scheme in ("proposed", "localcsi"):
        assert zf_ok(ch, pt.beamformer.w_t, pt.beamformer.w_r)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cfg=wide_configs, seeds=st.tuples(*[st.integers(0, 2**32 - 1)] * 2))
# a region endpoint whose P1 power step raised p_b off 0 within a relay
# slack scaled by r_b p_b_max, 984 times the budget: 5.4e-7 over budget
@example(cfg=SystemConfig(m_t=2, m_r=1, p_a_max=12.91757269367988, p_b_max=23602.937609793753,
                          p_r_max=594093.7095150496, sigma2_a=0.12138909647049545,
                          sigma2_b=9.584411726730105, sigma2_r=8.537393841981908,
                          gain_br=0.7335950930980641), seeds=(319090216, 2015952592))
def test_every_scheme_on_the_config_space(cfg, seeds):
    # two realizations solved together, as in a harness task: every
    # scheme's sum rate, and 3-point regions of proposed, hd and ub with a
    # solved endpoint and every B target met within the 1e-9 back-off
    chs = [sample_channels(cfg, seed) for seed in seeds]
    proposed = max_sum_rates(chs, cfg)
    points = {"proposed": proposed, "hd": hd_anc_solves(chs, cfg),
              "ub": upper_bound_solves(chs, cfg),
              "localcsi": [local_csi_sum_rate(ch, cfg, seed) for ch, seed in zip(chs, seeds)]}
    for scheme, pts in points.items():
        for ch, pt in zip(chs, pts):
            assert_point_within_limits(scheme, ch, pt, cfg)
    for pair in fd_oneway_sum_rates(chs, cfg):
        assert all(map(math.isfinite, pair))
    regions = {"proposed": rate_regions(chs, 3, cfg), "hd": hd_anc_regions(chs, 3, cfg),
               "ub": rate_regions([zero_loopback(ch) for ch in chs], 3, cfg)}
    for scheme, sweeps in regions.items():
        for ch, entries in zip(chs, sweeps):
            assert entries[-1][1] is not None
            for r_b, pt in entries:
                assert_point_within_limits(scheme, ch, pt, cfg, r_b)


def hd_random_case(k):
    """Realization and config k of the HD exactness sample: m_t and m_r in
    2..5, source and relay powers in 10^[-0.5, 2], gain_br in 10^[-1, 0.5]."""
    rng = np.random.default_rng([17, k])
    cfg = replace(SystemConfig(), m_t=int(rng.integers(2, 6)), m_r=int(rng.integers(2, 6)),
                  p_a_max=float(10.0 ** rng.uniform(-0.5, 2.0)),
                  p_b_max=float(10.0 ** rng.uniform(-0.5, 2.0)),
                  p_r_max=float(10.0 ** rng.uniform(-0.5, 2.0)),
                  gain_br=float(10.0 ** rng.uniform(-1.0, 0.5)))
    return sample_channels(cfg, 9000 + k), cfg


def hd_margins(k):
    """On HD case k: the exact sum rate minus the reference climb's, the
    exact region's rate_a minus the climb's at each target where the climb
    finds a point, and gamma_b over its threshold 2**(2 r_b) - 1 backed off
    by 1e-9 at each target above 0."""
    ch, cfg = hd_random_case(k)
    sum_gap = hd_anc_solve(ch, cfg).sum_rate - reference_sum_rate(ch, cfg)
    entries = hd_anc_region(ch, 9, cfg)
    refs = reference_region(ch, cfg, [r_b for r_b, _ in entries])
    rate_gaps = [pt.rate_a - ref[0] for (_, pt), ref in zip(entries, refs) if ref is not None]
    ratios = [pt.gamma_b / (math.expm1(2.0 * r_b * math.log(2.0)) * (1.0 - 1e-9))
              for r_b, pt in entries if r_b > 0.0]
    return sum_gap, rate_gaps, ratios


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", range(24))
def test_hd_reaches_the_reference_climb(k):
    # the exact HD solvers never fall below the seeded climb they replace,
    # and every region point meets its target up to rounding
    sum_gap, rate_gaps, ratios = hd_margins(k)
    assert sum_gap >= -1e-6
    assert min(rate_gaps) >= -1e-6
    assert min(ratios) >= 1.0 - 1e-9


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["generic", "collinear", "no_d1", "no_d2", "neither"]),
       q=st.floats(0.0, 1.0), share=st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_null_z_meets_its_targets(n, seed, kind, q, share):
    # d1, d2 as _directions hands them over: unit directions, None when
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
