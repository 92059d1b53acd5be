import numpy as np
import pytest

from fdtwrc.numerics import maximize_1d, null_space_basis, real_cubic_roots


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


class TestNullSpaceBasis:
    def test_canonical(self):
        n = null_space_basis(np.array([1.0, 0.0], dtype=complex))
        assert n.shape == (2, 1)
        assert abs(abs(n[1, 0]) - 1.0) < 1e-12  # spans e2 up to phase
        assert abs(n[0, 0]) < 1e-12

    def test_symmetric_vector(self):
        v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        n = null_space_basis(v)
        target = np.array([1.0, -1.0]) / np.sqrt(2)
        assert abs(abs(np.vdot(target, n[:, 0])) - 1.0) < 1e-10

    def test_random_postconditions(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            v = crandn(rng, 4)
            n = null_space_basis(v)
            assert n.shape == (4, 3)
            assert np.linalg.norm(v.conj() @ n) <= 1e-10 * np.linalg.norm(v)
            assert np.linalg.norm(n.conj().T @ n - np.eye(3)) <= 1e-10

    def test_errors(self):
        with pytest.raises(ValueError):
            null_space_basis(np.zeros(3, dtype=complex))
        with pytest.raises(ValueError):
            null_space_basis(np.array([1.0 + 0j]))


class TestRealCubicRoots:
    def test_depressed_cubic(self):
        assert np.allclose(real_cubic_roots(1, 0, -1, 0), [-1.0, 0.0, 1.0])

    def test_quadratic_fallback(self):
        assert np.allclose(real_cubic_roots(0, 1, -3, 2), [1.0, 2.0])

    def test_factored_cubic(self):
        assert np.allclose(real_cubic_roots(1, -6, 11, -6), [1.0, 2.0, 3.0])

    def test_all_zero_raises(self):
        with pytest.raises(ValueError):
            real_cubic_roots(0, 0, 0, 0)

    def test_residuals_small(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            c = rng.uniform(-10, 10, size=4)
            scale = np.max(np.abs(c))
            if scale == 0:
                continue
            for x in real_cubic_roots(*c):
                assert abs(np.polyval(c, x)) <= 1e-8 * scale * max(1.0, abs(x)) ** 3

    def test_sign_changes_bracketed(self):
        rng = np.random.default_rng(5)
        xs = np.linspace(-100.0, 100.0, 2001)
        for _ in range(1000):
            c = rng.uniform(-10, 10, size=4)
            if np.max(np.abs(c)) == 0:
                continue
            roots = real_cubic_roots(*c)
            ys = np.polyval(c, xs)
            sign_flip = np.nonzero(np.sign(ys[:-1]) * np.sign(ys[1:]) < 0)[0]
            for i in sign_flip:
                lo, hi = xs[i], xs[i + 1]
                assert any(lo - 1e-9 <= r <= hi + 1e-9 for r in roots), (c, lo, hi)


class TestMaximize1d:
    def test_parabola(self):
        x, v = maximize_1d(lambda x: -((x - 0.3) ** 2), 0.0, 1.0, tol=1e-6)
        assert abs(x - 0.3) < 1e-6
        assert v <= 0.0

    def test_constant(self):
        x, v = maximize_1d(lambda x: 2.5, 0.0, 1.0, tol=1e-6)
        assert v == 2.5
        assert 0.0 <= x <= 1.0

    def test_empty_interval(self):
        with pytest.raises(ValueError):
            maximize_1d(lambda x: x, 1.0, 0.0)

    def test_degenerate_interval(self):
        assert maximize_1d(lambda x: x * 2, 0.5, 0.5) == (0.5, 1.0)

    def test_result_dominates_grid(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            c = rng.uniform(-3, 3, size=5)
            f = lambda x: float(np.polyval(c, x))
            x, v = maximize_1d(f, -2.0, 2.0, tol=1e-5)
            grid = np.linspace(-2.0, 2.0, 201)
            assert v >= np.polyval(c, grid).max() - 1e-12

    def test_vectorized_matches_scalar(self):
        f_s = lambda x: -((x - 1.1) ** 2) + 0.5
        f_v = lambda xs: -((xs - 1.1) ** 2) + 0.5
        rs = maximize_1d(f_s, 0.0, 3.0, tol=1e-7)
        rv = maximize_1d(f_v, 0.0, 3.0, tol=1e-7, vectorized=True)
        assert rs == rv

    def test_sum_rate_profile_against_dense_grid(self):
        # fixed small-instance sum-rate profile in the transmit power
        def profile(p):
            s_a, s_b = 2.1 * p, 0.8 * p
            return (np.log2(1 + 3.0 * s_a / (s_a + 1.4))
                    + np.log2(1 + 1.7 * s_b / (s_b + 1.1)))

        x, v = maximize_1d(profile, 0.0, 10.0, tol=1e-7, vectorized=True)
        dense = np.linspace(0.0, 10.0, 100_001)
        v_dense = profile(dense).max()
        assert v >= v_dense - 1e-9
        assert abs(v - v_dense) <= 1e-7 * max(1.0, abs(v_dense))
