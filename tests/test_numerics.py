import numpy as np
import pytest

from fdtwrc.numerics import maximize_1d, maximize_1d_lockstep, null_space_basis, real_cubic_roots


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

    def test_matrix_postconditions(self):
        rng = np.random.default_rng(4)
        for m, k in ((3, 2), (5, 2), (6, 3)):
            v = crandn(rng, m, k)
            n = null_space_basis(v)
            assert n.shape == (m, m - k)
            assert np.linalg.norm(v.conj().T @ n) <= 1e-10 * np.linalg.norm(v)
            assert np.linalg.norm(n.conj().T @ n - np.eye(m - k)) <= 1e-10
        v = crandn(rng, 4)
        assert np.array_equal(null_space_basis(v[:, None]), null_space_basis(v))

    def test_stack_matches_single_calls(self):
        rng = np.random.default_rng(5)
        v = crandn(rng, 7, 4, 1)
        stacked = null_space_basis(v)
        assert stacked.shape == (7, 4, 3)
        for k in range(7):
            assert np.array_equal(stacked[k], null_space_basis(v[k]))
        with pytest.raises(ValueError):
            null_space_basis(np.concatenate([v, np.zeros((1, 4, 1))]))

    def test_errors(self):
        with pytest.raises(ValueError):
            null_space_basis(np.zeros(3, dtype=complex))
        with pytest.raises(ValueError):
            null_space_basis(np.array([1.0 + 0j]))
        with pytest.raises(ValueError):
            null_space_basis(np.ones((2, 2), dtype=complex))


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

    def test_non_finite_raises(self):
        for bad in ([1.0, np.nan, 0.0, 1.0], [np.inf, 1.0, 1.0, 1.0]):
            with pytest.raises(ValueError):
                real_cubic_roots(*bad)

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


def np_real_cubic_roots(c3, c2, c1, c0):
    """The np.roots + np.polyder/np.polyval reference of real_cubic_roots."""
    coeffs = np.array([c3, c2, c1, c0], dtype=float)
    scale = np.max(np.abs(coeffs))
    lead = 0
    while lead < 3 and abs(coeffs[lead]) <= 1e-12 * scale:
        lead += 1
    trimmed = coeffs[lead:]
    if trimmed.size == 1:
        return []
    der = np.polyder(trimmed)
    roots = []
    for z in np.roots(trimmed):
        if abs(z.imag) <= 1e-8 * max(1.0, abs(z.real)):
            x = float(z.real)
            for _ in range(2):
                d = np.polyval(der, x)
                if d == 0.0:
                    break
                x = x - np.polyval(trimmed, x) / d
            roots.append(x)
    roots.sort()
    out = []
    for x in roots:
        if not out or abs(x - out[-1]) > 1e-8 * max(1.0, abs(x)):
            out.append(x)
    return out


def random_cubic(rng):
    """Coefficients with zero, tiny leading, repeated-root and wide-range cases."""
    kind = rng.integers(4)
    if kind == 0:  # integer roots, often repeated
        c = np.poly(rng.integers(-3, 4, size=3)) * rng.uniform(0.1, 10.0)
    elif kind == 1:  # wide dynamic range
        c = rng.standard_normal(4) * 10.0 ** rng.uniform(-6, 6, size=4)
    else:
        c = rng.uniform(-10, 10, size=4)
    c[rng.random(4) < 0.25] = 0.0
    if rng.random() < 0.2:
        c[0] = 1e-13 * np.max(np.abs(c))  # negligible leading coefficient
    if not np.any(c):
        c[1] = 1.0
    return [float(x) for x in c]


class TestRealCubicRootsMatchesNumpy:
    def test_bit_identical_to_np_roots_and_polish(self):
        rng = np.random.default_rng(10)
        zero_const = 0
        for _ in range(4000):
            c = random_cubic(rng)
            zero_const += c[3] == 0.0
            got = real_cubic_roots(*c)
            ref = np_real_cubic_roots(*c)
            assert np.array(got, dtype=float).tobytes() == np.array(ref, dtype=float).tobytes(), c
        assert zero_const > 500

    def test_zero_constant_gives_zero_root(self):
        for c in ([1.0, -3.0, 2.0, 0.0], [0.0, 2.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]):
            got = real_cubic_roots(*c)
            assert 0.0 in got
            assert got == np_real_cubic_roots(*c)


class TestMaximize1d:
    def test_parabola(self):
        x, v = maximize_1d(lambda x: -((x - 0.3) ** 2), 0.0, 1.0, tol=1e-6)
        assert abs(x - 0.3) < 1e-6
        assert v <= 0.0

    def test_constant(self):
        x, v = maximize_1d(lambda x: np.full_like(x, 2.5), 0.0, 1.0, tol=1e-6)
        assert v == 2.5
        assert 0.0 <= x <= 1.0

    def test_empty_interval(self):
        with pytest.raises(ValueError):
            maximize_1d(lambda x: x, 1.0, 0.0)

    def test_all_infeasible_grid_is_not_refined(self):
        calls = []

        def f(x):
            calls.extend(np.atleast_1d(x).tolist())
            return np.full_like(x, -np.inf)

        x, v = maximize_1d(f, 0.0, 1.0, tol=1e-6, grid_points=9)
        assert len(calls) == 9
        assert v == -np.inf and 0.0 <= x <= 1.0

    def test_degenerate_interval(self):
        assert maximize_1d(lambda x: x * 2, 0.5, 0.5) == (0.5, 1.0)

    def test_result_dominates_grid(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            c = rng.uniform(-3, 3, size=5)
            f = lambda x: np.polyval(c, x)
            x, v = maximize_1d(f, -2.0, 2.0, tol=1e-5)
            grid = np.linspace(-2.0, 2.0, 201)
            assert v >= np.polyval(c, grid).max() - 1e-12

    def test_sum_rate_profile_against_dense_grid(self):
        # fixed small-instance sum-rate profile in the transmit power
        def profile(p):
            s_a, s_b = 2.1 * p, 0.8 * p
            return (np.log2(1 + 3.0 * s_a / (s_a + 1.4))
                    + np.log2(1 + 1.7 * s_b / (s_b + 1.1)))

        x, v = maximize_1d(profile, 0.0, 10.0, tol=1e-7)
        dense = np.linspace(0.0, 10.0, 100_001)
        v_dense = profile(dense).max()
        assert v >= v_dense - 1e-9
        assert abs(v - v_dense) <= 1e-7 * max(1.0, abs(v_dense))

    def test_vectorized_grid_on_array_refinement_on_floats(self):
        kinds = []

        def f(x):
            kinds.append(type(x))
            return np.log2(1.0 + 3.0 * x / (x + 0.7)) - np.square(x - 0.4)

        maximize_1d(f, 0.0, 1.0, tol=1e-9, grid_points=21)
        assert kinds[0] is np.ndarray
        assert len(kinds) > 10 and all(k is float for k in kinds[1:])
        kinds.clear()
        maximize_1d(f, 0.25, 0.25)
        assert kinds == [float]

    def test_vectorized_matches_one_element_array_refinement(self):
        # golden steps used to evaluate f(np.array([x]))[0]; calling f on the
        # float itself must select the same points and return the same answer
        rng = np.random.default_rng(11)
        for _ in range(200):
            r, e_a, e_b, k_b, top = rng.uniform(0.0, 1.0, 5) * [1.0, 40.0, 40.0, 3.0, 8.0]

            def f(q, r=r, e_a=e_a, e_b=e_b, k_b=k_b, top=top):
                s_a = top * np.square(r * np.sqrt(q) + np.sqrt((1.0 - q) * (1.0 - r * r)))
                s_b = q * top
                return (np.log2(1.0 + e_a * s_a / (s_a + 1.0))
                        + np.log2(1.0 + e_b * s_b / (s_b + k_b)))

            new = maximize_1d(f, 0.0, 1.0, tol=1e-6, grid_points=21)
            old = maximize_1d(lambda x: f(x) if isinstance(x, np.ndarray)
                              else float(f(np.array([x]))[0]), 0.0, 1.0, tol=1e-6,
                              grid_points=21)
            assert new == old

    def test_lookahead_uses_the_same_points_in_half_the_calls(self):
        # lookahead evaluates each golden step's point with the next step's
        # two possible points; the points the search uses, their order and
        # the result are those without it
        rng = np.random.default_rng(13)
        for _ in range(100):
            c = rng.uniform(-3, 3, size=6)
            plain, batched, calls = [], [], []

            def f_plain(x):
                plain.extend(np.atleast_1d(x).tolist())
                return np.polyval(c, x)

            def f_batched(xs):
                calls.append(len(xs))
                batched.extend(xs.tolist())
                return np.polyval(c, xs)

            ref = maximize_1d(f_plain, -1.0, 1.0, tol=1e-4, grid_points=21)
            got = maximize_1d(f_batched, -1.0, 1.0, tol=1e-4, grid_points=21, lookahead=True)
            assert got == ref
            assert set(plain) <= set(batched)
            assert calls[0] == 21 and max(calls[1:]) <= 4
            assert len(calls) - 1 <= (len(plain) - 21) // 2 + 1


class TestMaximize1dLockstep:
    def test_each_function_as_alone(self):
        # polynomials, one increasing (best grid point at hi), one decreasing
        # (at lo) and one infeasible: in lockstep each function uses the
        # points, and gets the result, of its own lookahead search
        rng = np.random.default_rng(17)
        coeffs = [rng.uniform(-3, 3, size=6) for _ in range(5)]
        coeffs += [np.array([1.0, 0.0]), np.array([-1.0, 0.0]), None]

        def value(c, xs):
            return np.full(len(xs), -np.inf) if c is None else np.polyval(c, xs)

        seen = [[] for _ in coeffs]
        calls = []

        def f(owners, xs):
            if owners is None:
                return np.array([value(c, xs) for c in coeffs])
            calls.append(len(xs))
            for k, x in zip(owners.tolist(), xs.tolist()):
                seen[k].append(x)
            return np.concatenate([value(coeffs[k], [x]) for k, x in zip(owners, xs)])

        got = maximize_1d_lockstep(f, len(coeffs), -1.0, 1.0, 1e-4, 21, True)
        calls_alone = []
        for k, c in enumerate(coeffs):
            alone, sizes = [], []

            def g(xs, c=c, alone=alone, sizes=sizes):
                if len(xs) < 21:
                    alone.extend(xs.tolist())
                    sizes.append(len(xs))
                return value(c, xs)

            assert got[k] == maximize_1d(g, -1.0, 1.0, tol=1e-4, grid_points=21, lookahead=True)
            assert seen[k] == alone
            calls_alone.append(len(sizes))
        assert got[5][0] == 1.0 and got[6][0] == -1.0 and got[7][1] == -np.inf
        assert seen[7] == [] and len(seen[5]) < len(seen[0])
        # one call per step of the longest search
        assert len(calls) == max(calls_alone)
