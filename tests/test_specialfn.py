import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from cmtomo.reconstruct import _gauss_legendre, _job_sizes
from cmtomo.specialfn import (
    cosine_blocks,
    hermite_functions,
    hermite_sq_density_factor,
    laguerre_gauss,
    laguerre_gauss_levels,
)

SQRT_PI = math.sqrt(math.pi)


def hermite_int_coeffs(n):
    """Exact integer coefficients of H_n, index = power of y (oracle)."""
    a = [1]
    prev = None
    for k in range(n):
        b = [0] * (len(a) + 1)
        for p, c in enumerate(a):
            b[p + 1] += 2 * c
        if k >= 1:
            for p, c in enumerate(prev):
                b[p] -= 2 * k * c
        prev, a = a, b
    return a


def exact_hermite(n, y):
    """H_n(y) for integer y by the integer recurrence (oracle)."""
    prev, cur = 1, 2 * y
    for k in range(1, n):
        prev, cur = cur, 2 * y * cur - 2 * k * prev
    return cur if n else prev


def squared_factor(n, h, y):
    """H_n(y)^2 e^{-y^2} / (2^n n! sqrt(pi)) from a known value h = H_n(y)."""
    return h * h * math.exp(-y * y) / (2 ** n * math.factorial(n) * SQRT_PI)


class TestHermiteEval:
    """Known H_n values, seen through the squared density factor."""

    def test_h0_is_one(self):
        assert hermite_sq_density_factor(0, 3.7) == pytest.approx(squared_factor(0, 1.0, 3.7), rel=1e-14)

    def test_h1(self):
        assert hermite_sq_density_factor(1, 1.5) == pytest.approx(squared_factor(1, 3.0, 1.5), rel=1e-14)

    def test_h3(self):
        # H_3(y) = 8 y^3 - 12 y
        assert hermite_sq_density_factor(3, 2.0) == pytest.approx(squared_factor(3, 40.0, 2.0), rel=1e-14)

    @pytest.mark.parametrize("n", [2, 5, 9, 17])
    def test_matches_integer_coefficients(self, n):
        coeffs = hermite_int_coeffs(n)
        for y in (-2.3, 0.0, 0.4, 3.1):
            exact = sum(c * y ** p for p, c in enumerate(coeffs))
            assert hermite_sq_density_factor(n, y) == pytest.approx(squared_factor(n, exact, y), rel=1e-12)

    def test_overflow_signaled(self):
        # H_400(25) is an exact integer too large for a double; the factor
        # built from it stays finite and matches the bigint value
        h = exact_hermite(400, 25)
        with pytest.raises(OverflowError):
            float(h)
        log_want = 2 * math.log(abs(h)) - 625 - 400 * math.log(2) - math.lgamma(401) - math.log(SQRT_PI)
        assert hermite_sq_density_factor(400, 25.0) == pytest.approx(math.exp(log_want), rel=1e-11)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            hermite_sq_density_factor(-1, 0.0)


class TestDensityFactor:
    def test_vacuum_at_zero(self):
        assert hermite_sq_density_factor(0, 0.0) == pytest.approx(1.0 / SQRT_PI, rel=1e-14)

    def test_level_one(self):
        want = 2.0 * math.exp(-1.0) / SQRT_PI
        assert hermite_sq_density_factor(1, 1.0) == pytest.approx(want, rel=1e-14)

    def test_level_50_at_zero_bigint_oracle(self):
        # H_{2m}(0) = (-1)^m (2m)!/m!  =>  factor = C(2m, m) / (2^{2m} sqrt(pi))
        want = math.comb(50, 25) / (2 ** 50 * SQRT_PI)
        assert hermite_sq_density_factor(50, 0.0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 199, 500])
    def test_parity(self, n):
        ys = np.linspace(0.1, 12.0, 23)
        left = hermite_sq_density_factor(n, -ys)
        right = hermite_sq_density_factor(n, ys)
        np.testing.assert_allclose(left, right, rtol=0, atol=0)

    def test_normalization_sweep(self):
        # one recurrence pass gives every level on the shared grid
        ys = np.arange(-40.0, 40.0, 0.02)
        funcs = hermite_functions(200, ys)
        integrals = np.trapezoid(funcs * funcs, dx=0.02, axis=1)
        np.testing.assert_allclose(integrals, 1.0, atol=1e-9)

    def test_no_overflow_large_n(self):
        vals = hermite_sq_density_factor(500, np.linspace(-45, 45, 301))
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= 0)


def exact_laguerre(n, u):
    """L_n(u) = sum_k C(n, k) (-u)^k / k! in exact rationals (oracle)."""
    u = Fraction(u)
    return float(sum(Fraction(math.comb(n, k)) * (-u) ** k / math.factorial(k) for k in range(n + 1)))


class TestLaguerreGauss:
    @pytest.mark.parametrize("n", [0, 1, 30, 1000])
    def test_matches_exact_rationals(self, n):
        # u = 2^-14 sits where the plain three-term recurrence loses n^2 eps
        us = [0.0, 2.0 ** -14, 0.5, 3.0, 50.0]
        want = [exact_laguerre(n, u) * math.exp(-0.5 * u) for u in us]
        np.testing.assert_allclose(laguerre_gauss(n, np.array(us)), want, rtol=0, atol=1e-14)

    def test_far_tail_underflows_to_zero(self):
        # e^{-u/2} alone underflows past u ~ 1490; the carried scale keeps
        # the product finite and it tends to 0
        vals = laguerre_gauss(1000, np.array([4000.0, 2e4, 1e6]))
        assert np.all(np.isfinite(vals))
        assert vals[-1] == 0.0


def mp_laguerre_function(n, d, u):
    """sqrt(n!/(n+d)!) u^{d/2} e^{-u/2} L_n^{(d)}(u) to 50 digits (oracle),
    the alternating sum taken with enough guard digits for its cancellation."""
    with mp.workdps(50 + 130):
        x = mp.mpf(u)
        series = mp.fsum((-1) ** j * mp.binomial(n + d, n - j) * x ** j / mp.factorial(j) for j in range(n + 1))
        value = mp.sqrt(mp.factorial(n) / mp.factorial(n + d)) * x ** (mp.mpf(d) / 2) * mp.exp(-x / 2) * series
    return float(value)


class TestLaguerreGaussLevels:
    LEVELS = [0, 1, 2, 7, 19, 33, 60]
    OFFSETS = [0, 1, 2, 5, 13, 26, 40]
    US = np.array([1e-3, 0.1, 1.0, 7.5, 30.0, 100.0, 240.0, 600.0, 2000.0])

    def test_matches_50_digit_values(self):
        got = list(laguerre_gauss_levels(101, self.US, range(41)))
        for n in self.LEVELS:
            for d in self.OFFSETS:
                want = [mp_laguerre_function(n, d, u) for u in self.US]
                np.testing.assert_allclose(got[n][d], want, rtol=0, atol=1e-14, err_msg=f"n {n} d {d}")

    def test_shapes_walk_the_subdiagonals(self):
        # step j holds the offsets d walked with j + d < levels
        shapes = [f.shape for f in laguerre_gauss_levels(6, self.US, range(4))]
        assert shapes == [(4, 9), (4, 9), (4, 9), (3, 9), (2, 9), (1, 9)]
        shapes = [f.shape for f in laguerre_gauss_levels(6, self.US, [0, 2, 4])]
        assert shapes == [(3, 9), (3, 9), (2, 9), (2, 9), (1, 9), (1, 9)]

    def test_offset_zero_is_laguerre_gauss(self):
        for n, f in enumerate(laguerre_gauss_levels(31, self.US, range(5))):
            assert np.array_equal(f[0], laguerre_gauss(n, self.US))

    def test_zero_argument(self):
        # f_n^(d)(0) is 1 at d = 0 and 0 for every d > 0
        for f in laguerre_gauss_levels(12, np.array([0.0]), range(12)):
            assert f[0, 0] == 1.0 and np.all(f[1:] == 0.0)

    def test_far_tail_underflows_to_zero(self):
        # u^{d/2} e^{-u/2} alone underflows past u ~ 1500; the carried scale
        # keeps every value finite and they tend to 0
        us = np.array([4000.0, 2e4, 1e6])
        for f in laguerre_gauss_levels(300, us, range(60)):
            assert np.all(np.isfinite(f)) and np.all(np.abs(f) <= 1.0)
        assert np.all(f[:, -1] == 0.0)

    @pytest.mark.parametrize("dim", [8, 12, 16, 33, 64, 128, 256])
    def test_even_walk_keeps_the_full_walks_even_rows(self, dim):
        # reconstruction walks the even offsets only; each offset's
        # recurrence and rescaling are elementwise, so its rows keep every
        # bit, at u over the radial nodes of a dim-level reconstruction
        sizes = _job_sizes(dim)
        k_nodes = 0.5 * (_gauss_legendre(sizes.radial_nodes)[0] + 1.0) * sizes.frame_radius
        us = 0.5 * k_nodes * k_nodes
        full = laguerre_gauss_levels(dim, us, range(dim))
        even = laguerre_gauss_levels(dim, us, range(0, dim, 2))
        for n, (f, g) in enumerate(zip(full, even, strict=True)):
            assert g.tobytes() == f[0::2].tobytes(), n


class TestCosineBlocks:
    # (dx, count, largest |k|): phases up to ~2e5 rad, counts that are
    # and are not powers of two
    CASES = [(0.061, 1024, 30.0), (2.44, 4096, 20.0), (0.01, 8192, 1e3),
             (0.01, 65536, 305.0), (0.1, 1000, 1e3), (0.5, 2, 3.0), (0.1, 1, 5.0)]

    @pytest.mark.parametrize("entries", [1, 500, 2 ** 16])
    @pytest.mark.parametrize("dx, count, k_max", CASES)
    def test_matches_direct_cosines(self, dx, count, k_max, entries):
        k = np.random.default_rng(count).uniform(-k_max, k_max, 37)
        xs = dx * np.arange(count)
        starts, blocks = zip(*cosine_blocks(dx, count, k, entries))
        # consecutive row blocks, each within the budget or one row wide
        assert starts == tuple(np.cumsum([0] + [len(b) for b in blocks[:-1]]))
        assert all(b.size <= max(entries, len(k)) for b in blocks)
        got = np.concatenate(blocks)
        assert got.shape == (count, len(k))
        # a few eps of the largest phase in each column, as the direct table rounds
        bound = 4.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(xs)) * np.abs(k))
        assert np.all(np.abs(got - np.cos(np.outer(xs, k))) <= bound)

    @pytest.mark.parametrize("count, entries, fine", [(1, 2 ** 16, 1), (2, 2 ** 16, 1), (8, 2 ** 16, 2),
                                                      (1024, 2 ** 16, 32), (1000, 2 ** 16, 16),
                                                      (1024, 100, 8), (1024, 7, 1)])
    def test_trig_count(self, monkeypatch, count, entries, fine):
        # (count/P + P) cosines and as many sines per k, P = 2**floor(log2(count)/2)
        # halved until a block of P rows fits the budget
        formed = {"cos": [], "sin": []}

        def counting(name, original):
            def call(a, *args, **kwargs):
                formed[name].append(np.size(a))
                return original(a, *args, **kwargs)
            return call

        for name in formed:
            monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
        for _ in cosine_blocks(0.01, count, np.linspace(-3.0, 3.0, 7), entries):
            pass
        assert sum(formed["cos"]) == sum(formed["sin"]) == (-(-count // fine) + fine) * 7
