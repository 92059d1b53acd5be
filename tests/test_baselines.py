import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fdtwrc.baselines import (
    _hd_gamma_b_max,
    _hd_max_sum_rates,
    _hd_points,
    _hd_region_points,
    _hd_setup,
    fd_oneway_direction_rate,
    fd_oneway_regions,
    fd_oneway_sum_rates,
    hd_anc_region,
    hd_anc_regions,
    hd_anc_solve,
    hd_anc_solves,
    local_csi_solves,
    local_csi_sum_rate,
    parse_scheme,
    upper_bound_solve,
)
from fdtwrc.model import (
    SystemConfig,
    sample_channels,
    sample_realizations,
    zero_loopback,
)
from fdtwrc.rate_region import _combiner_table, _p_prime, max_rate_given_rb
from fdtwrc.sum_rate import max_sum_rate
from reference_dc import zf_residual
from reference_hd import reference_region, reference_sum_rate

CFG = SystemConfig()


def _hd_region(ch, cfg):
    """``_hd_points`` of one realization, as a function of its list of B
    targets, and B's largest target (the sweep's last)."""
    setup = _hd_setup([ch], cfg)
    return (lambda targets: _hd_points(setup, [targets], cfg)[0]), hd_anc_region(ch, 2, cfg)[-1][0]


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
            r1 = max_sum_rate(replace(zero_loopback(ch), h_aa=0j, h_bb=0j), CFG)
            assert (r1.powers.p_a, r1.powers.p_b) == (CFG.p_a_max, CFG.p_b_max)
            assert hd_anc_solve(ch, CFG).sum_rate >= 0.5 * r1.sum_rate - 1e-6

    def test_repeat_calls_are_bit_identical(self):
        # the HD path has no randomness: two calls return the same bits
        for cfg, seed in ((CFG, 1), (replace(CFG, m_r=1), 9)):
            ch = sample_channels(cfg, seed)
            p, q = hd_anc_solve(ch, cfg), hd_anc_solve(ch, cfg)
            assert self._same_point(p, q)
            for (r, p), (s, q) in zip(hd_anc_region(ch, 9, cfg), hd_anc_region(ch, 9, cfg)):
                assert r == s and self._same_point(p, q)

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
        pt, = _hd_region(ch, CFG)[0]([0.0])
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
                # a kept candidate has gamma_b >= (2**(2 r_b) - 1)(1 - 1e-9),
                # so rate_b >= r_b + 0.5 log2(1 - 1e-9), about r_b - 7.2e-10
                assert pt.rate_b >= r_b - 1e-9

    def test_region_infeasible_target(self):
        ch = sample_channels(CFG, 6)
        cap = 0.5 * math.log2(1.0 + CFG.p_a_max * float(np.vdot(ch.h_ar, ch.h_ar).real))
        assert _hd_region(ch, CFG)[0]([cap + 0.5]) == [None]

    @staticmethod
    def _same_point(p, q):
        return (p.rate_a, p.rate_b, p.gamma_a, p.gamma_b, p.trace,
                p.beamformer.w_full.tobytes()) == (
            q.rate_a, q.rate_b, q.gamma_a, q.gamma_b, q.trace,
            q.beamformer.w_full.tobytes())

    def test_lockstep_rows_equal_their_one_target_solves(self):
        # the rows of one batched dual solve share only the realization's
        # forms, so each point is bit for bit its own one-target solve
        for cfg, seed in ((CFG, 7), (replace(CFG, m_r=1), 8)):
            ch = sample_channels(cfg, seed)
            solve, r_b_max = _hd_region(ch, cfg)
            targets = [float(t) for t in np.linspace(0.0, r_b_max, 9)]
            for r_b, pt in zip(targets, solve(targets)):
                one, = solve([r_b])
                assert pt is not None and self._same_point(pt, one)

    def test_infeasible_row_leaves_the_others_unchanged(self):
        ch = sample_channels(CFG, 6)
        cap = 0.5 * math.log2(1.0 + CFG.p_a_max * float(np.vdot(ch.h_ar, ch.h_ar).real))
        solve, r_b_max = _hd_region(ch, CFG)
        feasible = [0.0, 0.5 * r_b_max, r_b_max]
        alone = solve(feasible)
        mixed = solve(feasible[:2] + [cap + 0.5] + feasible[2:])
        assert mixed[2] is None
        for p, q in zip(alone, mixed[:2] + mixed[3:]):
            assert p is not None and self._same_point(p, q)


def _point_bytes(pt):
    """The bytes of an HD point's rates, SINRs, trace and relay matrix."""
    return (np.array([pt.rate_a, pt.rate_b, pt.gamma_a, pt.gamma_b, *pt.trace]).tobytes()
            + pt.beamformer.w_full.tobytes())


def _twin(ch):
    """ch with B's links set to A's: both SINRs peak at one relay matrix,
    which every Newton start already holds, so the ascent stops at its
    first test."""
    return replace(ch, h_rb=ch.h_ra.copy(), h_br=ch.h_ar.copy())


class TestHdLockstep:
    """A chunk of realizations solved in one lockstep gives each one the
    bytes of its solve alone."""

    CONFIGS = {"default": CFG, "m_t=m_r=2": replace(CFG, m_t=2, m_r=2), "m_r=1": replace(CFG, m_r=1)}
    CHUNKS = (1, 4, 16)

    @staticmethod
    def _realizations(cfg):
        # the twins stop at their first Newton test, amid slower neighbours
        chs = [sample_channels(cfg, 5200 + s) for s in range(16)]
        for k in (1, 9, 14):
            chs[k] = _twin(chs[k])
        return chs

    @classmethod
    def _chunked(cls, solve, items):
        return {size: [out for i in range(0, len(items), size) for out in solve(items[i:i + size])]
                for size in cls.CHUNKS}

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_newton_rows_and_points(self, name):
        cfg = self.CONFIGS[name]
        chs = self._realizations(cfg)
        alone = [np.append(y, value).tobytes() for ch in chs
                 for y, value in _hd_max_sum_rates(_hd_setup([ch], cfg), cfg)]
        for rows in self._chunked(lambda c: _hd_max_sum_rates(_hd_setup(c, cfg), cfg),
                                  chs).values():
            assert [np.append(y, value).tobytes() for y, value in rows] == alone
        alone = [_point_bytes(hd_anc_solve(ch, cfg)) for ch in chs]
        for pts in self._chunked(lambda c: hd_anc_solves(c, cfg), chs).values():
            assert [_point_bytes(pt) for pt in pts] == alone

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_region_rows_and_points(self, name):
        cfg = self.CONFIGS[name]
        chs = self._realizations(cfg)
        # nine thresholds up to B's largest SINR and one past it
        thresholds = [[_hd_gamma_b_max(_hd_setup([ch], cfg), cfg)[0] * x
                       for x in (*np.linspace(0.0, 1.0, 9), 1.5)] for ch in chs]

        def row_bytes(rows):
            return [(None if y is None else y.tobytes(), np.float64(value).tobytes())
                    for y, value in rows]

        alone = [row_bytes(_hd_region_points(_hd_setup([ch], cfg), cfg, [t])[0])
                 for ch, t in zip(chs, thresholds)]
        for rows in self._chunked(
                lambda ct: _hd_region_points(_hd_setup([c for c, _ in ct], cfg), cfg,
                                             [t for _, t in ct]),
                list(zip(chs, thresholds))).values():
            assert [row_bytes(r) for r in rows] == alone

        def region_bytes(entries):
            return [(r_b, None if pt is None else _point_bytes(pt)) for r_b, pt in entries]

        alone = [region_bytes(hd_anc_region(ch, 9, cfg)) for ch in chs]
        for regions in self._chunked(lambda c: hd_anc_regions(c, 9, cfg), chs).values():
            assert [region_bytes(e) for e in regions] == alone

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_chunks_mix_fast_and_slow_ascents(self, name, monkeypatch):
        # one eigh per Newton iteration: a twin stops at its first test,
        # the ordinary realizations of its chunk of 4 take several steps
        cfg = self.CONFIGS[name]
        eigh, calls = np.linalg.eigh, []

        def counting(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        steps = []
        for ch in self._realizations(cfg)[:4]:
            calls.clear()
            _hd_max_sum_rates(_hd_setup([ch], cfg), cfg)
            steps.append(len(calls))
        assert steps[1] == 1 and min(steps[:1] + steps[2:]) >= 3


# configurations at the edge of the HD forms: no relay power (the quotients'
# p_r factor vanishes), a silent source (one SINR is zero), a single relay
# receive antenna (the reduced matrix is 2 x 1), more receive than transmit
# antennas, and a B link at 1e-99 (every B-side form near underflow)
DEGENERATE_HD = {
    "p_r_max=0": replace(CFG, p_r_max=0.0),
    "p_a_max=0": replace(CFG, p_a_max=0.0),
    "p_b_max=0": replace(CFG, p_b_max=0.0),
    "m_r=1": replace(CFG, m_r=1),
    "m_t=2,m_r=6": replace(CFG, m_t=2, m_r=6),
    "gain_br=1e-99": replace(CFG, gain_br=1e-99),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_HD))
def test_degenerate_hd_inputs(name):
    # no RuntimeWarning, finite answers, and nothing below the reference
    # climb's sum rate or its rate for A at the same targets
    cfg = DEGENERATE_HD[name]
    ch = sample_channels(cfg, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        total = hd_anc_solve(ch, cfg).sum_rate
        entries = hd_anc_region(ch, 9, cfg)
    assert math.isfinite(total) and total >= reference_sum_rate(ch, cfg) - 1e-6
    refs = reference_region(ch, cfg, [r_b for r_b, _ in entries])
    for (r_b, pt), ref in zip(entries, refs):
        assert math.isfinite(r_b) and pt is not None
        assert math.isfinite(pt.rate_a) and math.isfinite(pt.rate_b)
        if ref is not None:
            assert pt.rate_a >= ref[0] - 1e-6


# per seed 0..7 (seeds 0-5 at the default config, 6 at m_r = 1, 7 at
# m_t = 2, m_r = 6): hd_anc_solve's sum rate and the (rate_a, rate_b) pairs
# of the 9-point hd_anc_region, as computed by the Newton sum-rate ascent
# and the exact dual region solve up to the closed-form endpoint; the HD
# path has no randomness, so a refactor must not move them
PINNED_HD = [
    (2.7202989940030546,
     [(2.0083326055268813, 0.040606004194604764),
      (2.0069226521514736, 0.13048747657936535),
      (2.002024957698288, 0.2609749531784829),
      (1.9938612371442646, 0.39146242979408385),
      (1.980735435559547, 0.5219499064234402),
      (1.9583237746214213, 0.6524373830642767),
      (1.9139892886952263, 0.7829248597146936),
      (1.7895340320353275, 0.913412336373105),
      (0.1906867544279971, 1.0438998130381887)]),
    (2.058541973807465,
     [(0.8794963488620625, 0.011413473942397724),
      (0.8762102550135367, 0.2006334930266734),
      (0.8699137738189586, 0.4012669860958742),
      (0.8601428645745619, 0.6019004791972777),
      (0.8446850032939409, 0.8025339723230623),
      (0.8187150587918418, 1.0031674654673093),
      (0.7698918532254782, 1.2038009586255358),
      (0.6540059459489677, 1.404434451794348),
      (0.00257367616701123, 1.6050679449711749)]),
    (2.09662656419632,
     [(1.0003829739635965, 0.3206485343732162),
      (1.0003829739635965, 0.3206485343732162),
      (0.9999619438993718, 0.3806241648248041),
      (0.9931457271468894, 0.5709362472863964),
      (0.9767193741993985, 0.7612483297708749),
      (0.9459594724985446, 0.9515604122729321),
      (0.8885687421827025, 1.1418724947884917),
      (0.7644094314495506, 1.3321845773144225),
      (0.14043641271285612, 1.522496659848319)]),
    (2.844591562560974,
     [(1.6428791228893322, 0.0033142784061559673),
      (1.6334222492246107, 0.2396420856772474),
      (1.6175931508791754, 0.4792841714121315),
      (1.59334464856323, 0.718926257188359),
      (1.555400442247796, 0.9585683429942452),
      (1.4930712242115005, 1.1982104288214046),
      (1.3810613373091776, 1.4378525146638255),
      (1.138209768204613, 1.6774946005171936),
      (0.004973664743451844, 1.9171366863784138)]),
    (3.138301019480667,
     [(2.0878080797118144, 0.20650362028386235),
      (2.0878080797118144, 0.20650362028386235),
      (2.085997979978227, 0.3618772855465604),
      (2.079415974965374, 0.5428159283652181),
      (2.0664197279412204, 0.7237545712053733),
      (2.0422915897244867, 0.904693214062257),
      (1.993972747679212, 1.0856318569321572),
      (1.8691201616767588, 1.266570499812187),
      (0.2541318593054968, 1.447509142700099)]),
    (2.8691104120949866,
     [(2.0309566901397744, 0.18138088044527714),
      (2.0309566901397744, 0.18138088044527714),
      (2.0268027186006754, 0.34085337515025915),
      (2.0134106797611464, 0.5112800627665794),
      (1.9874492809561577, 0.6817067504028113),
      (1.9393008889440004, 0.8521334380547656),
      (1.8429018475723868, 1.0225601257191348),
      (1.6069190380527754, 1.1929868133933053),
      (0.1701804389626548, 1.3634135010752149)]),
    (2.7513577736278325,
     [(1.8176911273132785, 0.26932008622638365),
      (1.8176911273132785, 0.26932008622638365),
      (1.8169525616196855, 0.34261079636181063),
      (1.8094186168794117, 0.5139161945842522),
      (1.7918120665761013, 0.6852215928267394),
      (1.7579818539038967, 0.8565269910850356),
      (1.6922364851267193, 1.0278323893557981),
      (1.5425023876917627, 1.1991377876363924),
      (0.5057022379368569, 1.3704431859247401)]),
    (3.057440839713518,
     [(2.2543133718501815, 0.1493139573401635),
      (2.253608465868048, 0.196386448264905),
      (2.238464514448607, 0.39277289657078424),
      (2.2042362649495884, 0.5891593449078742),
      (2.1447311262270174, 0.7855457932687342),
      (2.04569459784213, 0.9819322416477004),
      (1.8762117993853904, 1.178318690040457),
      (1.5493957306429476, 1.3747051384437172),
      (0.141307146204898, 1.5710915868549775)]),
]


def _pinned_hd_case(seed):
    cfg = {6: replace(CFG, m_r=1), 7: replace(CFG, m_t=2, m_r=6)}.get(seed, CFG)
    return sample_channels(cfg, seed), cfg


@pytest.mark.parametrize("seed", range(len(PINNED_HD)))
def test_pinned_hd(seed):
    ch, cfg = _pinned_hd_case(seed)
    sum_rate, pairs = PINNED_HD[seed]
    assert hd_anc_solve(ch, cfg).sum_rate == pytest.approx(sum_rate, rel=1e-12, abs=0.0)
    got = [(pt.rate_a, pt.rate_b) for _, pt in hd_anc_region(ch, 9, cfg)]
    assert len(got) == len(pairs)
    for g, p in zip(got, pairs):
        assert g == pytest.approx(p, rel=1e-12, abs=0.0)


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
        [pts] = fd_oneway_regions([ch], 5, CFG)
        r_a = fd_oneway_direction_rate(ch, "B_to_A", CFG)
        r_b = fd_oneway_direction_rate(ch, "A_to_B", CFG)
        assert np.allclose(pts[0], (r_a, 0.0))   # fraction 0: the A-max end
        assert np.allclose(pts[-1], (0.0, r_b))  # fraction 1
        assert np.allclose(pts[2], (0.5 * r_a, 0.5 * r_b))

    def test_sum_rate_variants(self):
        ch = sample_channels(CFG, 13)
        r_a = fd_oneway_direction_rate(ch, "B_to_A", CFG)
        r_b = fd_oneway_direction_rate(ch, "A_to_B", CFG)
        [pair] = fd_oneway_sum_rates([ch], CFG)
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
        assert sum(fd_oneway_sum_rates([ch], CFG)[0]) >= 0.5 * (r_a + r_b) >= 0.5 * min(r_a, r_b)


def _projector_rate(ch, direction, cfg):
    """The one-way FD rate in its first form: projector matrices
    I - v v^H / ||v||^2 (I where ||v||^2 <= 1e-24) applied to the links."""
    def projector(v):
        n2 = float(np.vdot(v, v).real)
        eye = np.eye(v.size, dtype=complex)
        return eye if n2 <= 1e-24 else eye - np.outer(v, v.conj()) / n2

    p_src, h_in, h_out = ((cfg.p_b_max, ch.h_br, ch.h_ra) if direction == "B_to_A"
                          else (cfg.p_a_max, ch.h_ar, ch.h_rb))
    d, b = projector(ch.h_rr @ h_out), projector(ch.h_rr.conj().T @ h_in)
    gains = ((float(np.linalg.norm(d @ h_in) ** 2), float(np.vdot(h_out, h_out).real)),
             (float(np.vdot(h_in, h_in).real), float(np.linalg.norm(b @ h_out) ** 2)))
    p_r = cfg.p_r_max
    return math.log2(1.0 + max(p_src * g_in * p_r * g_out / (p_src * g_in + p_r * g_out + 1.0)
                               for g_in, g_out in gains))


def _stacked_case(k):
    """Random config k and 16 realizations of it, with their seeds: m_t in
    2..8, m_r in 1..8 (1 in every fourth config), powers in 10^[-1, 5], SI
    variances in 10^[-8, 1] (sigma2_r = 0 in every fifth config), gain_br
    in 10^[-3, 1]; every third realization has its loopback zeroed, so a
    call mixes both null dimensions in one combiner-table batch."""
    rng = np.random.default_rng([26, k])
    cfg = SystemConfig(
        m_t=int(rng.integers(2, 9)), m_r=1 if k % 4 == 0 else int(rng.integers(1, 9)),
        p_a_max=10.0 ** rng.uniform(-1, 5), p_b_max=10.0 ** rng.uniform(-1, 5),
        p_r_max=10.0 ** rng.uniform(-1, 5), sigma2_a=10.0 ** rng.uniform(-8, 1),
        sigma2_b=10.0 ** rng.uniform(-8, 1),
        sigma2_r=0.0 if k % 5 == 0 else 10.0 ** rng.uniform(-8, 1),
        gain_br=10.0 ** rng.uniform(-3, 1))
    seeds = [int(s) for s in rng.integers(0, 2**63, size=16)]
    chs = [sample_channels(cfg, s) for s in seeds]
    return cfg, [zero_loopback(ch) if i % 3 == 2 else ch for i, ch in enumerate(chs)], seeds


@pytest.mark.parametrize("block", range(4))
def test_stacked_closed_forms_match_one_realization(block):
    # fd2 and localcsi solve a task's realizations in one stacked call: each
    # realization's answer is the bytes of its call alone, fd2 is the
    # projector-matrix formula up to rounding, and localcsi's rate pair is
    # its OperatingPoint's, bit for bit
    for k in range(50 * block, 50 * block + 50):
        cfg, chs, seeds = _stacked_case(k)
        fd_pairs, fd_regions = fd_oneway_sum_rates(chs, cfg), fd_oneway_regions(chs, 3, cfg)
        local = local_csi_solves(chs, cfg, seeds)
        for i, (ch, seed) in enumerate(zip(chs, seeds)):
            assert np.array(fd_pairs[i]).tobytes() == np.array(fd_oneway_sum_rates([ch], cfg)[0]).tobytes()
            assert (np.array(fd_regions[i]).tobytes()
                    == np.array(fd_oneway_regions([ch], 3, cfg)[0]).tobytes())
            for direction in ("B_to_A", "A_to_B"):
                ref = _projector_rate(ch, direction, cfg)
                assert fd_oneway_direction_rate(ch, direction, cfg) == pytest.approx(
                    ref, rel=1e-13, abs=0.0), (k, i, direction)
            [(w_t, w_r, rates)] = local_csi_solves([ch], cfg, [seed])
            assert w_t.tobytes() == local[i][0].tobytes() and w_r.tobytes() == local[i][1].tobytes()
            assert np.array(rates).tobytes() == np.array(local[i][2]).tobytes()
            pt = local_csi_sum_rate(ch, cfg, seed)
            assert np.array([pt.rate_a, pt.rate_b]).tobytes() == np.array(rates).tobytes()


class TestUpperBound:
    def test_identical_when_loopback_already_zero(self):
        cfg = replace(CFG, sigma2_r=0.0)
        ch = sample_channels(cfg, 15)
        prop = max_sum_rate(ch, cfg)
        ub = upper_bound_solve(ch, cfg)
        assert abs(ub.sum_rate - prop.sum_rate) < 1e-12

    def test_dominates_proposed(self):
        for seed in range(8):
            ch = sample_channels(CFG, 300 + seed)
            prop = max_sum_rate(ch, CFG)
            ub = upper_bound_solve(ch, CFG)
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

    @pytest.mark.parametrize("m_t", [2, 3, 6])
    def test_draws_match_uint64_two_call_form(self, m_t):
        # the ZF direction is drawn from Python-int seeds with one call; the
        # same bits as the former np.uint64 seed and two standard_normal
        # calls, for seeds with the top bit set, in a stack of 16 (null
        # dimension m_t - 1, or m_t in the zero-loopback rows)
        cfg = replace(CFG, m_t=m_t)
        rng = np.random.default_rng(27)
        seeds = [2**64 - 1, 2**63, *(int(s) for s in rng.integers(2**63, 2**64, 14,
                                                                   dtype=np.uint64))]
        chs = [zero_loopback(ch) if i % 4 == 3 else ch
               for i, ch in enumerate(sample_realizations(cfg, range(16)))]
        for ch, seed, (w_t, _, _) in zip(chs, seeds, local_csi_solves(chs, cfg, seeds)):
            _, ctx = _combiner_table(ch)(np.array([0.5]))
            n = int(ctx.rank[0])
            draw = np.random.default_rng([np.uint64(seed) & np.uint64(2**64 - 1), 0x10CA1])
            v = draw.standard_normal(n) + 1j * draw.standard_normal(n)
            budget = _p_prime(cfg.p_r_max, cfg.p_a_max, cfg.p_b_max, *ctx.rx.T)
            z = np.zeros((1, m_t, 1), dtype=complex)  # zero past the rank, as the table's basis
            z[0, :n, 0] = v / np.linalg.norm(v)
            ref = np.sqrt(budget)[:, None] * (ctx.n_t @ z)[:, :, 0]
            assert w_t.tobytes() == ref[0].tobytes(), seed

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
