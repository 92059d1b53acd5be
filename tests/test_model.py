import math
from dataclasses import replace

import numpy as np
import pytest

from fdtwrc.model import (
    DegenerateGeometryError,
    SystemConfig,
    _combiner_basis,
    channels_from_json,
    channels_to_json,
    db_to_linear,
    effective_gains,
    make_operating_point,
    receive_combiner,
    relay_null_basis,
    relay_output_power,
    sample_channels,
    sample_realizations,
    sinr_pair,
    zf_residual,
)

CFG = SystemConfig()
FLOAT_FIELDS = ("p_a_max", "p_b_max", "p_r_max", "sigma2_a", "sigma2_b", "sigma2_r", "gain_br")


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def unit(v):
    return v / np.linalg.norm(v)


class TestConfig:
    def test_defaults_match_reference_setup(self):
        assert (CFG.m_t, CFG.m_r) == (3, 3)
        assert CFG.p_a_max == CFG.p_b_max == CFG.p_r_max == 10.0
        assert CFG.sigma2_a == CFG.sigma2_b == CFG.sigma2_r == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(m_t=1)
        with pytest.raises(ValueError):
            SystemConfig(p_a_max=-1.0)

    @pytest.mark.parametrize("value", [2.5, 3.0, "3", True])
    @pytest.mark.parametrize("name", ["m_t", "m_r"])
    def test_non_integer_count_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            SystemConfig(**{name: value})

    @pytest.mark.parametrize("value", ["10", None, 1j, False])
    @pytest.mark.parametrize("name", ["p_a_max", "sigma2_r", "gain_br"])
    def test_non_real_float_field_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            SystemConfig(**{name: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = SystemConfig(m_t=np.int64(4), m_r=np.int32(2))
        assert (cfg.m_t, cfg.m_r) == (4, 2)

    @pytest.mark.parametrize("name", ["alpha_grid", "iter_max", "conv_tol", "grid_points"])
    def test_search_constants_are_not_fields(self, name):
        assert getattr(SystemConfig(), name) == getattr(SystemConfig, name)
        with pytest.raises(TypeError):
            SystemConfig(**{name: getattr(SystemConfig, name)})

    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_negative_float_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
            SystemConfig(**{name: -1.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_float_rejected(self, name, value):
        # NaN slips through every "< 0" check, and an infinite budget or
        # variance yields NaN rates, so neither may reach a solver
        with pytest.raises(ValueError, match=name):
            SystemConfig(**{name: value})

    def test_zero_b_link_gain_rejected(self):
        # h_br = 0 leaves the receive combiner undefined, so the config is
        # refused up front instead of failing inside a run
        with pytest.raises(ValueError, match="gain_br"):
            SystemConfig(gain_br=0.0)

    def test_b_link_gain_floor(self):
        # below 1e-100 the B-side squared norms underflow toward subnormals,
        # where the combiner turns NaN, so such a gain is refused as well
        with pytest.raises(ValueError, match="gain_br"):
            SystemConfig(gain_br=1e-300)
        assert SystemConfig(gain_br=1e-100).gain_br == 1e-100

    def test_db_round_trip(self):
        for x in (0.01, 1.0, 100.0):
            assert abs(db_to_linear(10.0 * math.log10(x)) - x) <= 1e-12 * x


class TestSampleChannels:
    def test_zero_variance_gives_exact_zero(self):
        ch = sample_channels(replace(CFG, sigma2_r=0.0), 1)
        assert np.all(ch.h_rr == 0)

    def test_deterministic(self):
        a = sample_channels(CFG, 123)
        b = sample_channels(CFG, 123)
        assert np.array_equal(a.h_ar, b.h_ar)
        assert np.array_equal(a.h_rr, b.h_rr)
        assert a.h_aa == b.h_aa

    def test_entry_variance(self):
        # law of large numbers on |h_ar| entries over many draws
        total, count = 0.0, 0
        for t in range(100_000):
            ch = sample_channels(CFG, t)
            total += float(np.sum(np.abs(ch.h_ar) ** 2))
            count += ch.m_r
        assert abs(total / count - 1.0) < 0.02

    def test_gain_br_scaling(self):
        cfg = replace(CFG, gain_br=0.1)
        tot_b = sum(float(np.mean(np.abs(sample_channels(cfg, t).h_br) ** 2))
                    for t in range(4000)) / 4000
        assert abs(tot_b - 0.1) < 0.01

    @pytest.mark.parametrize("cfg", [
        CFG, SystemConfig(m_t=8, m_r=1, sigma2_a=0.3, sigma2_b=2e-3, sigma2_r=0.05),
        SystemConfig(m_t=2, m_r=5, sigma2_a=0.0, sigma2_b=0.0, sigma2_r=0.0, gain_br=1e-90)])
    def test_one_draw_matches_per_channel_draws(self, cfg):
        # the sampler slices one draw of all the normals; the same bits as
        # drawing the real and imaginary parts channel by channel (14 calls),
        # whether a seed is drawn alone or in a stack of 600 (with the top
        # seed bit set in the last 100)
        def per_channel(seed):
            rng = np.random.default_rng(seed)
            g_br = math.sqrt(cfg.gain_br)
            return (crandn(rng, cfg.m_r), g_br * crandn(rng, cfg.m_r), crandn(rng, cfg.m_t),
                    g_br * crandn(rng, cfg.m_t), complex(math.sqrt(cfg.sigma2_a) * crandn(rng)),
                    complex(math.sqrt(cfg.sigma2_b) * crandn(rng)),
                    math.sqrt(cfg.sigma2_r) * crandn(rng, cfg.m_r, cfg.m_t))

        seeds = [*range(500), *range(2**64 - 100, 2**64)]
        for seed, stacked in zip(seeds, sample_realizations(cfg, seeds)):
            for ch in (sample_channels(cfg, seed), stacked):
                for name, ref in zip(("h_ar", "h_br", "h_ra", "h_rb", "h_aa", "h_bb", "h_rr"),
                                     per_channel(seed)):
                    got = getattr(ch, name)
                    assert np.shape(got) == np.shape(ref) and np.array_equal(got, ref), (seed, name)
                    assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), (seed, name)
                    assert type(got) is type(ref), (seed, name)

    def test_shapes_and_validation(self):
        cfg = replace(CFG, m_t=4, m_r=2)
        ch = sample_channels(cfg, 9).validate()
        assert ch.h_ar.shape == (2,)
        assert ch.h_ra.shape == (4,)
        assert ch.h_rr.shape == (2, 4)


class TestReceiveCombiner:
    def test_alpha_one_points_along_h_br(self):
        ch = sample_channels(CFG, 7)
        w = receive_combiner(ch, 1.0)
        assert abs(abs(np.vdot(unit(ch.h_br), w)) - 1.0) < 1e-10

    def test_alpha_zero_is_orthogonal_complement_direction(self):
        ch = sample_channels(CFG, 8)
        w = receive_combiner(ch, 0.0)
        assert abs(np.vdot(ch.h_br, w)) < 1e-10 * np.linalg.norm(ch.h_br)
        assert abs(np.linalg.norm(w) - 1.0) < 1e-10

    def test_hand_evaluated_projectors(self):
        ch = sample_channels(replace(CFG, m_r=2, m_t=2), 1)
        ch = replace(ch, h_br=np.array([1.0, 0.0], dtype=complex),
                     h_ar=np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))
        w = receive_combiner(ch, 0.5)
        assert np.allclose(w * math.sqrt(0.75), [0.5, math.sqrt(0.5)])
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12

    def test_norm_below_one_before_renormalization(self):
        ch = sample_channels(CFG, 11)
        # the unit combiner's components along u_par and u_perp are the raw
        # weights alpha and sqrt(1 - alpha) over the raw norm
        inner = np.vdot(unit(ch.h_br), ch.h_ar)
        u_par = unit(ch.h_br) * inner / abs(inner)
        u_perp = unit(ch.h_ar - u_par * np.vdot(u_par, ch.h_ar))
        for alpha in (0.2, 0.5, 0.8):
            w = receive_combiner(ch, alpha)
            norm = math.sqrt(alpha**2 + 1.0 - alpha)
            assert norm < 1.0
            assert abs(np.vdot(u_par, w) * norm - alpha) < 1e-10
            assert abs(np.vdot(u_perp, w) * norm - math.sqrt(1.0 - alpha)) < 1e-10

    def test_parallel_channels_give_endpoint(self):
        # with m_r = 1, h_ar is parallel to h_br and every alpha gives the
        # alpha = 1 endpoint, phased along h_br^H h_ar
        ch = sample_channels(replace(CFG, m_r=1), 3)
        inner = np.vdot(ch.h_br, ch.h_ar)
        for alpha in (0.0, 0.5, 1.0):
            w = receive_combiner(ch, alpha)
            assert np.allclose(w, unit(ch.h_br) * inner / abs(inner), rtol=0.0, atol=1e-12)

    def test_zero_h_br_raises(self):
        ch = sample_channels(CFG, 3)
        with pytest.raises(DegenerateGeometryError):
            receive_combiner(replace(ch, h_br=np.zeros_like(ch.h_br)), 0.5)
        # one zero h_br in a stack
        h_ar = np.array([sample_channels(CFG, s).h_ar for s in (4, 5, 6)])
        h_br = np.array([sample_channels(CFG, s).h_br for s in (4, 5, 6)])
        h_br[1] = 0.0
        with pytest.raises(DegenerateGeometryError):
            _combiner_basis(h_ar, h_br)

    @pytest.mark.parametrize("m_r", [1, 2, 3, 5, 8])
    def test_stacked_basis_matches_per_realization(self, m_r):
        # each row of the stacked basis has the bytes of the former
        # one-realization form, on 130 realizations per m_r: drawn ones, and
        # rows with h_ar built orthogonal to h_br (u_par falls back to h_br),
        # parallel to it (one direction) or a tiny B link
        def per_realization(h_ar, h_br):
            nb = np.linalg.norm(h_br)
            inner = np.vdot(h_br, h_ar)
            par = h_br * (inner / nb**2)
            perp = h_ar - par
            perp_norm = np.linalg.norm(perp)
            if perp_norm < 1e-10:
                return (h_br / nb) * (inner / abs(inner) if abs(inner) > 0 else 1.0), None
            par_norm = np.linalg.norm(par)
            if par_norm > 1e-12 * np.linalg.norm(h_ar):
                u_par = par / par_norm
            else:
                u_par = h_br / nb
            return u_par, perp / perp_norm

        chs = sample_realizations(replace(CFG, m_r=m_r), range(1000 * m_r, 1000 * m_r + 130))
        h_ar = np.array([ch.h_ar for ch in chs])
        h_br = np.array([ch.h_br for ch in chs])
        for k in range(0, 130, 5):
            b = h_br[k]
            if k % 3 == 0:
                h_ar[k] = h_ar[k] - b * (np.vdot(b, h_ar[k]) / np.vdot(b, b))
            elif k % 3 == 1:
                h_ar[k] = (0.3 - 2.0j) * b
            else:
                h_br[k] = 1e-140 * b
        u_par, u_perp, single = _combiner_basis(h_ar, h_br)
        parallel = (np.arange(130) % 5 == 0) & (np.arange(130) % 3 == 1)
        assert np.array_equal(single, parallel | (m_r == 1))
        for k in range(130):
            ref_par, ref_perp = per_realization(h_ar[k], h_br[k])
            assert single[k] == (ref_perp is None), k
            assert u_par[k].tobytes() == ref_par.tobytes(), k
            assert u_perp[k].tobytes() == (ref_par if ref_perp is None else ref_perp).tobytes(), k


class TestSignalModel:
    def test_sinr_trivial_cases(self):
        ch = sample_channels(CFG, 13)
        w_r = receive_combiner(ch, 0.4)
        w_t = crandn(np.random.default_rng(0), CFG.m_t)
        gamma_a, _ = sinr_pair(ch, w_t, w_r, 1.0, 0.0)
        assert gamma_a == 0.0

    def test_sinr_direct_substitution(self):
        # h_aa = 0, |h_ra^H w_t|^2 = 1, |w_r^H h_br|^2 = 1, p_b = 1 -> 1/2
        ch = sample_channels(replace(CFG, m_t=2, m_r=2), 14)
        ch = replace(ch, h_ra=np.array([1.0, 0.0], dtype=complex),
                     h_br=np.array([1.0, 0.0], dtype=complex), h_aa=0j)
        w_t = np.array([1.0, 0.0], dtype=complex)
        w_r = np.array([1.0, 0.0], dtype=complex)
        gamma_a, _ = sinr_pair(ch, w_t, w_r, 2.0, 1.0)
        assert abs(gamma_a - 0.5) < 1e-12

    def test_rank_one_matches_full_matrix_formulas(self):
        rng = np.random.default_rng(15)
        for k in range(100):
            ch = sample_channels(CFG, 1000 + k)
            w_r = unit(crandn(rng, CFG.m_r))
            w_t = crandn(rng, CFG.m_t)
            p_a, p_b = rng.uniform(0, 10, size=2)
            w = np.outer(w_t, w_r.conj())  # rank-one relay matrix W = w_t w_r^H
            ga_full = (p_b * abs(ch.h_ra.conj() @ w @ ch.h_br) ** 2
                       / (np.linalg.norm(ch.h_ra.conj() @ w) ** 2
                          + p_a * abs(ch.h_aa) ** 2 + 1.0))
            gb_full = (p_a * abs(ch.h_rb.conj() @ w @ ch.h_ar) ** 2
                       / (np.linalg.norm(ch.h_rb.conj() @ w) ** 2
                          + p_b * abs(ch.h_bb) ** 2 + 1.0))
            ga, gb = sinr_pair(ch, w_t, w_r, p_a, p_b)
            assert abs(ga - ga_full) <= 1e-12 * max(1.0, ga_full)
            assert abs(gb - gb_full) <= 1e-12 * max(1.0, gb_full)
            p_full = (p_a * np.linalg.norm(w @ ch.h_ar) ** 2
                      + p_b * np.linalg.norm(w @ ch.h_br) ** 2
                      + np.trace(w @ w.conj().T).real)
            p_r1 = relay_output_power(ch, w_t, w_r, p_a, p_b)
            assert abs(p_r1 - p_full) <= 1e-12 * max(1.0, p_full)

    def test_relay_power_trivial(self):
        ch = sample_channels(CFG, 16)
        w_r = receive_combiner(ch, 0.3)
        assert relay_output_power(ch, np.zeros(CFG.m_t, dtype=complex), w_r, 1, 1) == 0.0
        w_t = crandn(np.random.default_rng(1), CFG.m_t)
        nt2 = float(np.vdot(w_t, w_t).real)
        assert abs(relay_output_power(ch, w_t, w_r, 0.0, 0.0) - nt2) < 1e-12 * nt2

    def test_zf_residual(self):
        ch = sample_channels(CFG, 17)
        assert zf_residual(replace(ch, h_rr=np.zeros_like(ch.h_rr)),
                           np.ones(CFG.m_t), np.ones(CFG.m_r)) == 0.0
        w_r = receive_combiner(ch, 0.6)
        n_t = relay_null_basis(ch, w_r)
        w_t = n_t @ crandn(np.random.default_rng(2), n_t.shape[1])
        assert zf_residual(ch, w_t, w_r) <= 1e-10 * np.linalg.norm(w_t)
        # generic pair: value equals the direct arithmetic
        w_t2 = crandn(np.random.default_rng(3), CFG.m_t)
        direct = abs(np.conj(w_r) @ ch.h_rr @ w_t2)
        assert zf_residual(ch, w_t2, w_r) == direct

    def test_effective_gains(self):
        ch = sample_channels(CFG, 18)
        w_r = receive_combiner(ch, 0.5)
        perp_to_h_ra = np.linalg.qr(ch.h_ra[:, None], mode="complete")[0][:, 1]
        g = effective_gains(ch, perp_to_h_ra, w_r)
        assert g.tx_gain_a < 1e-20
        g2 = effective_gains(ch, np.ones(CFG.m_t, dtype=complex), unit(ch.h_ar))
        assert abs(g2.rx_gain_a - np.linalg.norm(ch.h_ar) ** 2) < 1e-12 * g2.rx_gain_a
        # SINRs recomputed from gains match the direct evaluation
        w_t = crandn(np.random.default_rng(4), CFG.m_t)
        gains = effective_gains(ch, w_t, w_r)
        ga, gb = sinr_pair(ch, w_t, w_r, 2.0, 3.0)
        ga_from_gains = (3.0 * gains.tx_gain_a * gains.rx_gain_b
                         / (gains.tx_gain_a + 2.0 * abs(ch.h_aa) ** 2 + 1.0))
        assert abs(ga - ga_from_gains) <= 1e-12 * max(1.0, ga)

    def test_sinr_monotone_in_powers(self):
        ch = sample_channels(CFG, 19)
        w_r = receive_combiner(ch, 0.45)
        w_t = crandn(np.random.default_rng(5), CFG.m_t)
        pbs = np.linspace(0.1, 10, 25)
        gammas = [sinr_pair(ch, w_t, w_r, 1.0, pb)[0] for pb in pbs]
        assert np.all(np.diff(gammas) > 0)
        pas = np.linspace(0.0, 10, 25)
        gammas_a = [sinr_pair(ch, w_t, w_r, pa, 1.0)[0] for pa in pas]
        assert np.all(np.diff(gammas_a) <= 1e-15)


class TestSerialization:
    def test_json_round_trip(self):
        ch = sample_channels(CFG, 21)
        back = channels_from_json(channels_to_json(ch))
        for name in ("h_ar", "h_br", "h_ra", "h_rb", "h_rr"):
            assert np.array_equal(getattr(ch, name), getattr(back, name))
        assert ch.h_aa == back.h_aa and ch.h_bb == back.h_bb

    @pytest.mark.parametrize("name, value", [
        ("h_br", np.ones(2, dtype=complex)),
        ("h_rb", np.ones(4, dtype=complex)),
        ("h_rr", np.ones((3, 2), dtype=complex)),
        ("h_ar", np.ones((3, 1), dtype=complex)),
        ("h_ra", np.array([1.0, complex(math.nan, 0.0), 1.0])),
        ("h_rr", np.full((3, 3), complex(0.0, math.inf))),
        ("h_aa", complex(math.nan, 0.0)),
        ("h_bb", complex(0.0, math.inf)),
    ])
    def test_bad_realization_rejected(self, name, value):
        # a ValueError, not an assert, so the check also holds under python -O
        ch = replace(sample_channels(CFG, 23), **{name: value})
        with pytest.raises(ValueError, match=name):
            ch.validate()
        if name != "h_ar":  # json stores h_ar's values, not its shape
            with pytest.raises(ValueError):
                channels_from_json(channels_to_json(ch))

    def test_operating_point_report(self):
        ch = sample_channels(CFG, 22)
        w_r = receive_combiner(ch, 0.5)
        w_t = crandn(np.random.default_rng(6), CFG.m_t)
        pt = make_operating_point(ch, w_t, w_r, 0.5, 1.0, 2.0, trace=[0.1, 0.2])
        rep = pt.to_report()
        assert rep["iterations"] == 2
        assert abs(rep["sum_rate"] - (rep["rate_a"] + rep["rate_b"])) < 1e-12
        assert abs(pt.rate_a - math.log2(1 + pt.gamma_a)) < 1e-12
