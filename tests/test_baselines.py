import math
from dataclasses import replace

import numpy as np
import pytest

from fdtwrc.baselines import (
    SchemeId,
    _hd_reduce,
    _hd_region,
    _hd_search,
    _hd_starts,
    fd_oneway_direction_rate,
    fd_oneway_region,
    fd_oneway_sum_rate,
    hd_anc_region,
    hd_anc_solve,
    local_csi_sum_rate,
    parse_scheme,
    upper_bound_solve,
)
from fdtwrc.model import (
    SystemConfig,
    sample_channels,
    strip_source_si,
    zero_loopback,
    zf_residual,
)
from fdtwrc.rate_region import Infeasible, max_rate_given_rb
from fdtwrc.sum_rate import max_sum_rate

CFG = SystemConfig()


class TestSchemeId:
    def test_parse_round_trip(self):
        for name in ("proposed", "hd", "fd2", "ub", "localcsi"):
            assert parse_scheme(name).value == name

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            parse_scheme("nope")


class TestHdAnc:
    def test_full_dominates_rank_one(self):
        # the rank-one HD scheme at full powers: with no source SI each SINR
        # grows with the partner's power, so the proposed sum-rate solver on
        # the zero-SI, no-loopback realization keeps full powers, and half
        # its sum rate is that scheme's
        for seed in range(15):
            ch = sample_channels(CFG, 100 + seed)
            r1 = max_sum_rate(strip_source_si(zero_loopback(ch)), CFG)
            assert (r1.powers.p_a, r1.powers.p_b) == (CFG.p_a_max, CFG.p_b_max)
            assert hd_anc_solve(ch, CFG).sum_rate >= 0.5 * r1.sum_rate - 1e-6

    def test_full_search_seed_stability(self):
        ch = sample_channels(CFG, 1)
        red = _hd_reduce(strip_source_si(zero_loopback(ch)))
        value = lambda ga, gb: np.log2(1 + ga) + np.log2(1 + gb)
        _, v0 = _hd_search(red, CFG, value, _hd_starts(red, CFG, seed=0))
        _, v1 = _hd_search(red, CFG, value, _hd_starts(red, CFG, seed=123))
        assert abs(v0 - v1) < 1e-3 * max(1.0, v0)

    def test_half_prelog_identity(self):
        # doubling the reported rate and inverting the log recovers the
        # per-phase SINR
        ch = sample_channels(CFG, 2)
        hd = hd_anc_solve(ch, CFG)
        assert hd.pre_log == 0.5
        assert abs(2.0 ** (2.0 * hd.rate_a) - 1.0 - hd.gamma_a) < 1e-9 * (1 + hd.gamma_a)
        assert abs(2.0 ** (2.0 * hd.rate_b) - 1.0 - hd.gamma_b) < 1e-9 * (1 + hd.gamma_b)

    def test_gammas_recomputable_from_full_matrix(self):
        ch = sample_channels(CFG, 3)
        hd = hd_anc_solve(ch, CFG)
        w = hd.beamformer.w_full
        ga = (CFG.p_b_max * abs(ch.h_ra.conj() @ w @ ch.h_br) ** 2
              / (np.linalg.norm(ch.h_ra.conj() @ w) ** 2 + 1.0))
        assert abs(ga - hd.gamma_a) < 1e-9 * (1 + hd.gamma_a)
        p_r = (CFG.p_a_max * np.linalg.norm(w @ ch.h_ar) ** 2
               + CFG.p_b_max * np.linalg.norm(w @ ch.h_br) ** 2
               + float(np.trace(w @ w.conj().T).real))
        assert abs(p_r - CFG.p_r_max) < 1e-8

    def test_region_endpoint_matches_unconstrained_solve(self):
        ch = sample_channels(CFG, 4)
        pt = _hd_region(ch, CFG)[0](0.0)
        # rate_a = 1/2 log2(1 + gamma) with gamma from the full-power form
        assert abs(pt.rate_a - 0.5 * math.log2(1.0 + pt.gamma_a)) < 1e-12
        assert pt.rate_b >= 0.0

    def test_region_sweep_structure(self):
        ch = sample_channels(CFG, 5)
        entries = hd_anc_region(ch, 5, CFG)
        rates_a = [pt.rate_a for _, pt in entries if pt is not None]
        assert len(rates_a) >= 4
        assert np.all(np.diff(rates_a) <= 1e-6)
        for r_b, pt in entries:
            if pt is not None:
                assert pt.rate_b >= r_b - 2e-3  # stochastic search slack

    def test_region_infeasible_target(self):
        ch = sample_channels(CFG, 6)
        cap = 0.5 * math.log2(1.0 + CFG.p_a_max * float(np.vdot(ch.h_ar, ch.h_ar).real))
        with pytest.raises(Infeasible):
            _hd_region(ch, CFG)[0](cap + 0.5)


class TestFdOneway:
    def test_no_loopback_collapse(self):
        ch = zero_loopback(sample_channels(CFG, 7))
        cfg = CFG
        rate = fd_oneway_direction_rate(ch, "B_to_A", cfg)
        x = cfg.p_b_max * float(np.vdot(ch.h_br, ch.h_br).real)
        y = cfg.p_r_max * float(np.vdot(ch.h_ra, ch.h_ra).real)
        assert abs(rate - math.log2(1.0 + x * y / (x + y + 1.0))) < 1e-10

    def test_direct_substitution_one_third(self):
        cfg = replace(CFG, m_t=2, m_r=2, p_a_max=1.0, p_b_max=1.0, p_r_max=1.0)
        ch = sample_channels(cfg, 8)
        ch = replace(ch, h_br=np.array([1.0, 0.0], dtype=complex),
                     h_ra=np.array([1.0, 0.0], dtype=complex),
                     h_rr=np.zeros((2, 2), dtype=complex))
        rate = fd_oneway_direction_rate(ch, "B_to_A", cfg)
        assert abs(rate - math.log2(1.0 + 1.0 / 3.0)) < 1e-12

    def test_formulas_match_rank_one_model(self):
        # rebuild both ZF choices explicitly and evaluate the one-way SINR
        rng = np.random.default_rng(9)
        for seed in range(20):
            ch = sample_channels(CFG, 200 + seed)
            p_b, p_r = CFG.p_b_max, CFG.p_r_max
            # receive ZF: w_t along h_ra, w_r = unit projection of h_br away
            # from H_rr h_ra, relay scaled to the power budget
            u = ch.h_rr @ ch.h_ra
            d = np.eye(CFG.m_r) - np.outer(u, u.conj()) / np.vdot(u, u).real
            w_r = d @ ch.h_br
            w_r = w_r / np.linalg.norm(w_r)
            w_t = ch.h_ra.copy()
            beta2 = p_r / (np.vdot(w_t, w_t).real * (p_b * abs(np.vdot(w_r, ch.h_br)) ** 2 + 1.0))
            w_t = math.sqrt(beta2) * w_t
            assert abs(np.conj(w_r) @ ch.h_rr @ w_t) < 1e-9
            num = p_b * abs(np.vdot(ch.h_ra, w_t)) ** 2 * abs(np.vdot(w_r, ch.h_br)) ** 2
            den = abs(np.vdot(ch.h_ra, w_t)) ** 2 + 1.0
            gamma_direct = num / den
            gamma_claimed = (p_b * np.linalg.norm(d @ ch.h_br) ** 2 * p_r * np.linalg.norm(ch.h_ra) ** 2
                             / (p_b * np.linalg.norm(d @ ch.h_br) ** 2
                                + p_r * np.linalg.norm(ch.h_ra) ** 2 + 1.0))
            assert abs(gamma_direct - gamma_claimed) < 1e-10 * max(1.0, gamma_claimed)
            # transmit ZF: w_r along h_br, w_t = unit projection of h_ra away
            # from H_rr^H h_br, relay scaled to the power budget
            v = ch.h_rr.conj().T @ ch.h_br
            b = np.eye(CFG.m_t) - np.outer(v, v.conj()) / np.vdot(v, v).real
            w_r2 = ch.h_br / np.linalg.norm(ch.h_br)
            w_t2 = b @ ch.h_ra
            beta2 = p_r / (np.vdot(w_t2, w_t2).real
                           * (p_b * abs(np.vdot(w_r2, ch.h_br)) ** 2 + 1.0))
            w_t2 = math.sqrt(beta2) * w_t2
            assert abs(np.conj(w_r2) @ ch.h_rr @ w_t2) < 1e-9
            num2 = p_b * abs(np.vdot(ch.h_ra, w_t2)) ** 2 * abs(np.vdot(w_r2, ch.h_br)) ** 2
            den2 = abs(np.vdot(ch.h_ra, w_t2)) ** 2 + 1.0
            gamma_tzf_claimed = (
                p_b * np.linalg.norm(ch.h_br) ** 2 * p_r * np.linalg.norm(b @ ch.h_ra) ** 2
                / (p_b * np.linalg.norm(ch.h_br) ** 2
                   + p_r * np.linalg.norm(b @ ch.h_ra) ** 2 + 1.0))
            assert abs(num2 / den2 - gamma_tzf_claimed) < 1e-10 * max(1.0, gamma_tzf_claimed)
        del rng

    def test_phase_invariance(self):
        ch = sample_channels(CFG, 10)
        rng = np.random.default_rng(11)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=5))
        rotated = replace(
            ch,
            h_ar=ch.h_ar * phases[0], h_br=ch.h_br * phases[1],
            h_ra=ch.h_ra * phases[2], h_rb=ch.h_rb * phases[3],
            h_rr=ch.h_rr * phases[4])
        for direction in ("B_to_A", "A_to_B"):
            assert abs(fd_oneway_direction_rate(ch, direction, CFG)
                       - fd_oneway_direction_rate(rotated, direction, CFG)) < 1e-10

    def test_region_segment(self):
        ch = sample_channels(CFG, 12)
        pts = fd_oneway_region(ch, 5, CFG)
        r_a = fd_oneway_direction_rate(ch, "B_to_A", CFG)
        r_b = fd_oneway_direction_rate(ch, "A_to_B", CFG)
        assert np.allclose(pts[0], (r_a, 0.0))   # fraction 0: the A-max end
        assert np.allclose(pts[-1], (0.0, r_b))  # fraction 1
        assert np.allclose(pts[2], (0.5 * r_a, 0.5 * r_b))

    def test_sum_rate_variants(self):
        ch = sample_channels(CFG, 13)
        r_a = fd_oneway_direction_rate(ch, "B_to_A", CFG)
        r_b = fd_oneway_direction_rate(ch, "A_to_B", CFG)
        pair = fd_oneway_sum_rate(ch, CFG)
        assert pair == ((r_a, 0.0) if r_a >= r_b else (0.0, r_b))
        assert sum(pair) == max(r_a, r_b)
        assert sum(pair) >= 0.5 * (r_a + r_b)  # never below the equal split

    def test_half_share_symmetric_statistic(self):
        vals_sum, vals_a = [], []
        for t in range(300):
            ch = sample_channels(CFG, 3000 + t)
            r_a = fd_oneway_direction_rate(ch, "B_to_A", CFG)
            vals_sum.append(0.5 * (r_a + fd_oneway_direction_rate(ch, "A_to_B", CFG)))
            vals_a.append(r_a)
        assert abs(np.mean(vals_sum) - np.mean(vals_a)) < 0.1

    def test_beats_half_of_one_way_capacities(self):
        ch = zero_loopback(sample_channels(CFG, 14))
        r_a = fd_oneway_direction_rate(ch, "B_to_A", CFG)
        r_b = fd_oneway_direction_rate(ch, "A_to_B", CFG)
        assert sum(fd_oneway_sum_rate(ch, CFG)) >= 0.5 * (r_a + r_b) >= 0.5 * min(r_a, r_b)


class TestUpperBound:
    def test_identical_when_loopback_already_zero(self):
        cfg = replace(CFG, sigma2_r=0.0)
        ch = sample_channels(cfg, 15)
        prop = max_sum_rate(ch, cfg)
        ub = upper_bound_solve(ch, cfg, proposed=prop)
        assert abs(ub.sum_rate - prop.sum_rate) < 1e-12

    def test_dominates_proposed(self):
        for seed in range(8):
            ch = sample_channels(CFG, 300 + seed)
            prop = max_sum_rate(ch, CFG)
            ub = upper_bound_solve(ch, CFG, proposed=prop)
            assert ub.sum_rate >= prop.sum_rate - 1e-6

    def test_region_point(self):
        ch = sample_channels(CFG, 16)
        pt = max_rate_given_rb(zero_loopback(ch), 0.5, CFG)
        assert pt.rate_b >= 0.5 - 1e-6


class TestLocalCsi:
    def test_construction_invariants(self):
        for seed in range(20):
            ch = sample_channels(CFG, 400 + seed)
            pt = local_csi_sum_rate(ch, CFG, seed=seed)
            assert zf_residual(ch, pt.beamformer.w_t, pt.beamformer.w_r) <= 1e-9 * max(
                1.0, np.linalg.norm(ch.h_rr) * np.linalg.norm(pt.beamformer.w_t))
            assert abs(pt.powers.p_r - CFG.p_r_max) < 1e-8
            assert pt.powers.p_a == CFG.p_a_max
            assert pt.powers.p_b == CFG.p_b_max

    def test_dominated_by_proposed(self):
        for seed in range(6):
            ch = sample_channels(CFG, 500 + seed)
            prop = max_sum_rate(ch, CFG)
            lc = local_csi_sum_rate(ch, CFG, seed=seed)
            assert lc.sum_rate <= prop.sum_rate + 1e-6

    def test_deterministic_in_seed(self):
        ch = sample_channels(CFG, 17)
        a = local_csi_sum_rate(ch, CFG, seed=42)
        b = local_csi_sum_rate(ch, CFG, seed=42)
        c = local_csi_sum_rate(ch, CFG, seed=43)
        assert a.sum_rate == b.sum_rate
        assert a.sum_rate != c.sum_rate

    def test_high_snr_degradation(self):
        lo_cfg = replace(CFG, p_a_max=10.0, p_b_max=10.0)
        hi_cfg = replace(CFG, p_a_max=1000.0, p_b_max=1000.0)
        lo, hi, prop_lo, prop_hi = [], [], [], []
        for t in range(40):
            ch = sample_channels(CFG, 600 + t)
            lo.append(local_csi_sum_rate(ch, lo_cfg, seed=t).sum_rate)
            hi.append(local_csi_sum_rate(ch, hi_cfg, seed=t).sum_rate)
            prop_lo.append(max_sum_rate(ch, lo_cfg).sum_rate)
            prop_hi.append(max_sum_rate(ch, hi_cfg).sum_rate)
        # full-power operation collapses at high SNR; the power-controlled
        # scheme does not
        assert np.mean(hi) < np.mean(lo)
        assert np.mean(prop_hi) >= np.mean(prop_lo) - 0.1
