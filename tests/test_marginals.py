import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from cmtomo.clt import per_mode_moments
from cmtomo.convolution import marginals_for_system
from cmtomo.errors import NumericalError
from cmtomo.marginals import (
    Grid,
    MarginalDensity,
    centered_grid,
    char_function,
    evenodd_var_closed,
    fock_abs3_dimensionless,
    grid_policy,
    marginal_density,
    moments,
    oracle_marginal,
    tomogram,
    tomogram_oracle,
    variance,
)
from cmtomo.states import (ODD_ALPHA_MIN, CoherentEven, CoherentOdd, Fock, ModeGroup, SystemSpec, cat_weight,
                           fock_expansion)

SQRT_PI = math.sqrt(math.pi)
CAT = {"even": CoherentEven, "odd": CoherentOdd}


def exact_abs3_bigint(n):
    """E|y|^3 under the level-n density by exact integer arithmetic.

    Expand H_n with integer coefficients, square, and use the half-range
    moments  2 * integral_0^inf y^{2j+3} e^{-y^2} dy = (j+1)!.
    """
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
    sq = [0] * (2 * len(a) - 1)
    for i, ci in enumerate(a):
        for j, cj in enumerate(a):
            sq[i + j] += ci * cj
    total = 0
    for p, c in enumerate(sq):
        if c:
            total += c * math.factorial(p // 2 + 1)
    # as a fraction: both integers pass the largest double past n ~ 150
    return float(Fraction(total, 2 ** n * math.factorial(n))) / SQRT_PI


class TestGrids:
    def test_count_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            Grid(dx=0.1, count=100)

    def test_grid_is_centred_by_type(self):
        g = Grid(dx=0.25, count=16)
        assert [f.name for f in dataclasses.fields(Grid)] == ["dx", "count"]
        assert g.x0 == -2.0
        assert g.xs.tobytes() == (-2.0 + 0.25 * np.arange(16)).tobytes()

    def test_centered_grid_symmetric(self):
        g = centered_grid(3.0, 0.01)
        assert g.count & (g.count - 1) == 0
        assert g.xs[0] == pytest.approx(-g.xs[-1] - g.dx, rel=1e-12)

    def test_lattice_grids_share_nodes(self):
        small = centered_grid(2.0, 0.013)
        big = centered_grid(7.0, 0.013)
        assert small.dx == big.dx == 0.013
        mask = (big.xs >= small.xs[0] - 1e-12) & (big.xs <= small.xs[-1] + 1e-12)
        inner = big.xs[mask]
        assert len(inner) == small.count
        np.testing.assert_allclose(inner, small.xs, atol=1e-14)


class TestFockTomogram:
    def test_vacuum_peak(self):
        assert tomogram(Fock(0), 1.0, 0.0, 1.0, 0.0) == pytest.approx(1 / SQRT_PI, rel=1e-14)

    def test_level_one_value(self):
        # rho = 1, hbar = 2: (1/sqrt(2)) * 2 y^2 e^{-y^2}/sqrt(pi) at y = 1/sqrt(2)
        want = math.exp(-0.5) / (math.sqrt(2.0) * SQRT_PI)
        assert tomogram(Fock(1), 0.6, 0.8, 2.0, 1.0) == pytest.approx(want, rel=1e-12)

    def test_normalization_level_five(self):
        d = marginal_density(Fock(5), 1.0, 0.0, 1.0)
        assert np.trapezoid(d.values, dx=d.grid.dx) == pytest.approx(1.0, abs=1e-8)

    def test_normalization_level_1000(self):
        # the Gaussian factor alone underflows past |y| ~ 38.6, inside this
        # level's support; the log-scaled recurrence keeps the whole mass
        d = marginal_density(Fock(1000), 1.0, 0.0, 1.0)
        assert d.meta["pre_rescale_integral"] == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_frame_rejected(self):
        with pytest.raises(ValueError):
            tomogram(Fock(0), 0.0, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("frame", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-0.6, 0.8)])
    def test_scale_collapse_equal_hbar_rho(self, frame):
        # depends on (mu, nu, hbar) only through hbar * (mu^2 + nu^2)
        xs = np.linspace(-5, 5, 101)
        base = tomogram(Fock(4), 1.0, 0.0, 1.0, xs)
        mu, nu = frame
        np.testing.assert_allclose(tomogram(Fock(4), mu, nu, 1.0, xs), base, rtol=0, atol=1e-15)

    def test_scale_collapse_across_hbar(self):
        xs = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(
            tomogram(Fock(4), 0.5, 0.0, 4.0, xs),
            tomogram(Fock(4), 1.0, 0.0, 1.0, xs),
            rtol=1e-12,
        )


class TestMoments:
    def test_vacuum_moments_gaussian_oracle(self):
        d = marginal_density(Fock(0), 1.0, 0.0, 1.0)
        m = moments(d)
        sigma = math.sqrt(0.5)
        assert m.mean == pytest.approx(0.0, abs=1e-12)
        assert m.var == pytest.approx(0.5, abs=1e-10)
        # Gaussian absolute third moment 2 sqrt(2/pi) sigma^3 = 1/sqrt(pi)
        assert m.abs3 == pytest.approx(2 * math.sqrt(2 / math.pi) * sigma ** 3, rel=1e-7)

    def test_fock1_variance(self):
        m = moments(marginal_density(Fock(1), 1.0, 0.0, 1.0))
        assert m.var == pytest.approx(1.5, abs=1e-10)

    @pytest.mark.parametrize("n", [0, 1, 5, 20, 50])
    @pytest.mark.parametrize("rho_frame", [(1.0, 0.0), (0.6, 0.8)])
    def test_variance_matches_closed_form(self, n, rho_frame):
        mu, nu = rho_frame
        for hbar in (0.01, 1.0, 10.0):
            m = moments(marginal_density(Fock(n), mu, nu, hbar))
            want = variance(Fock(n), mu, nu, hbar)
            assert m.var == pytest.approx(want, rel=1e-8)
            assert abs(m.mean) < 1e-9 * math.sqrt(want)


class TestAbs3:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 20, 50, 100, 401, 500])
    def test_dimensionless_moment_bigint_oracle(self, n):
        assert fock_abs3_dimensionless(n) == pytest.approx(exact_abs3_bigint(n), rel=1e-13)

    @staticmethod
    def fock_abs3(n, mu, nu, hbar):
        """abs3 of the level-n tomogram at (mu, nu), as the CLI forms it."""
        sys = SystemSpec((ModeGroup(Fock(n), mu, nu),), hbar=hbar)
        return per_mode_moments(sys, marginals_for_system(sys))[0].abs3

    def test_scaling_is_exact(self):
        base = self.fock_abs3(7, 1.0, 0.0, 1.0)
        for mu, nu, hbar in [(0.6, 0.8, 2.0), (2.0, 0.0, 0.3), (0.9, -1.1, 5.0)]:
            got = self.fock_abs3(7, mu, nu, hbar)
            s3 = (hbar * (mu * mu + nu * nu)) ** 1.5
            assert got / base == pytest.approx(s3, rel=1e-9)

    def test_bound_ratio_sup_attained(self):
        # abs3 / (n^{3/2} (hbar rho)^{3/2}) at hbar rho = 1
        ratios = [fock_abs3_dimensionless(n) / n ** 1.5 for n in range(1, 101)]
        sup = max(ratios)
        assert math.isfinite(sup)
        # the growth envelope abs3 ~ n^{3/2} makes the ratio settle, so the
        # supremum over n <= 100 sits at small n, not at the edge
        assert ratios.index(sup) < 99

    def test_grid_abs3_agrees_with_exact(self):
        d = marginal_density(Fock(3), 1.0, 0.0, 1.0)
        assert moments(d).abs3 == pytest.approx(fock_abs3_dimensionless(3), rel=1e-7)


class TestEvenOddTomogram:
    def test_alpha_zero_is_vacuum(self):
        d = marginal_density(CoherentEven(0.0), 1.0, 0.0, 1.0)
        want = tomogram(Fock(0), 1.0, 0.0, 1.0, d.grid.xs)
        np.testing.assert_allclose(d.values, want, atol=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 1 + 0.5j, 1.5 * np.exp(1j * np.pi / 4)])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("frame", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)])
    def test_matches_oracle(self, alpha, parity, frame):
        mu, nu = frame
        for hbar in (1.0, 0.4):
            mode = CAT[parity](alpha)
            d = marginal_density(mode, mu, nu, hbar)
            o = oracle_marginal(mode, mu, nu, hbar)
            np.testing.assert_allclose(d.values, o.values, atol=1e-9)

    def test_even_cat_interference_zeros_on_nu_axis(self):
        # real alpha, nu-axis frame: density ~ cos^2(sqrt(2) a X), zero at pi/(2 sqrt(2) a)
        alpha = 2.0
        d = marginal_density(CoherentEven(alpha), 0.0, 1.0, 1.0)
        node = math.pi / (2 * math.sqrt(2) * alpha)
        vals = tomogram(CoherentEven(alpha), 0.0, 1.0, 1.0, np.array([node]))
        assert vals[0] == pytest.approx(0.0, abs=1e-14)
        assert d.values.min() < 1e-12 * d.values.max()

    def test_odd_density_vanishes_at_origin(self):
        for frame in [(0.0, 1.0), (1.0, 0.0), (0.6, 0.8)]:
            d = marginal_density(CoherentOdd(1.5), frame[0], frame[1], 1.0)
            assert float(np.interp(0.0, d.grid.xs, d.values)) < 1e-13

    def test_even_function_of_x_for_real_alpha_mu_axis(self):
        # node 0 (x = -count/2 dx) has no mirror on the half-open grid
        d = marginal_density(CoherentEven(1.2), 1.0, 0.0, 1.0)
        np.testing.assert_allclose(d.values[1:], d.values[1:][::-1], atol=1e-12)

    def test_rescale_metadata(self):
        # the integral is recorded; nothing is rescaled by it
        d = marginal_density(CoherentEven(1.0), 1.0, 0.0, 1.0)
        assert d.meta["pre_rescale_integral"] == pytest.approx(1.0, abs=1e-6)
        assert "rescale" not in d.meta

    @pytest.mark.parametrize("mode", [CoherentEven(2.0), Fock(3)], ids=["even", "fock"])
    def test_normalization_error_on_bad_grid(self, mode):
        # a grid covering half the support misses mass: a numerical error,
        # for a cat as for a number state
        g = centered_grid(0.4, 0.01)
        with pytest.raises(NumericalError, match="is not 1 within 1e-8"):
            marginal_density(mode, 1.0, 0.0, 1.0, grid=g)

    def test_odd_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            marginal_density(CoherentOdd(0.0), 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("phase", [1.0, 0.6 + 0.8j])
    @pytest.mark.parametrize("frame", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)])
    @pytest.mark.parametrize("hbar", [1.0, 1e-3, 1e3])
    def test_smallest_odd_alpha_tracks_oracle(self, phase, frame, hbar):
        # at the bound the closed form's rounding error, about 1e-16/|alpha|
        # of the peak, stays below the O(|alpha|^2) departure from |1>
        alpha = ODD_ALPHA_MIN * phase
        mu, nu = frame
        d = marginal_density(CoherentOdd(alpha), mu, nu, hbar)
        o = oracle_marginal(CoherentOdd(alpha), mu, nu, hbar)
        assert np.max(np.abs(d.values - o.values)) < 0.55 * abs(alpha) ** 2 * np.max(o.values)

    @pytest.mark.parametrize("phase", [1.0, 0.6 + 0.8j])
    @pytest.mark.parametrize("frame", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)])
    @pytest.mark.parametrize("hbar", [1.0, 1e-3, 1e3])
    def test_small_odd_alpha_exact_to_rounding(self, phase, frame, hbar):
        # the odd factor expm1(-2a)^2 + 4 e^{-2a} sin^2 b does not cancel as
        # z -> 0; the cancelling |1 - e^{-2z}|^2 erred by 1.03e-11 of the peak here
        alpha = 1e-5 * phase
        mu, nu = frame
        d = marginal_density(CoherentOdd(alpha), mu, nu, hbar)
        o = oracle_marginal(CoherentOdd(alpha), mu, nu, hbar)
        assert np.max(np.abs(d.values - o.values)) <= 1e-14 * np.max(o.values)


def product_form_cat(alpha, parity, mu, nu, hbar, X):
    """The even/odd closed form as e^A times |e^z +- e^{-z}|^2, each factor
    exponentiated on its own: inf * 0 once |Re alpha| reaches ~5."""
    sign = 1.0 if parity == "even" else -1.0
    alpha = complex(alpha)
    rho = mu * mu + nu * nu
    n_sq = 1.0 / (2.0 * (1.0 + sign * math.exp(-2.0 * abs(alpha) ** 2)))
    quad = nu * (alpha ** 2 / (nu - 1j * mu) + np.conj(alpha) ** 2 / (nu + 1j * mu))
    pref = np.exp(-0.5 * (2.0 * alpha.real) ** 2 - X * X / (hbar * rho) + quad.real)
    z = 1j * math.sqrt(2.0) * alpha * X / (math.sqrt(hbar) * (1j * mu - nu))
    return n_sq / (SQRT_PI * math.sqrt(hbar * rho)) * pref * np.abs(np.exp(z) + sign * np.exp(-z)) ** 2


class TestEvenOddLogDomain:
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0, 1 + 0.5j, -1.5 + 1j, 3j, 2.1 - 2.1j])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_matches_product_form_where_finite(self, alpha, parity):
        for mu, nu in [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-0.8, 0.6), (2.0, 1.0)]:
            for hbar in (1.0, 0.4):
                xs = marginal_density(CAT[parity](alpha), mu, nu, hbar).grid.xs
                want = product_form_cat(alpha, parity, mu, nu, hbar, xs)
                got = tomogram(CAT[parity](alpha), mu, nu, hbar, xs)
                assert np.all(np.isfinite(want))
                # relative, except near the density's zeros and in the
                # far tails, where both forms round at the peak's scale
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * want.max())
                # subnormal values are flushed to 0
                assert not np.any((got > 0) & (got < np.finfo(float).tiny))

    @pytest.mark.parametrize("alpha", [5.0, -6.0, 4 + 3j, 12.0])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_large_real_alpha_finite_unit_integral(self, alpha, parity):
        for mu, nu in [(1.0, 0.0), (0.6, 0.8)]:
            d = marginal_density(CAT[parity](alpha), mu, nu, 1.0)
            assert np.all(np.isfinite(d.values))
            assert d.meta["pre_rescale_integral"] == pytest.approx(1.0, abs=1e-9)


def complex_form_cat(alpha, parity, mu, nu, hbar, X):
    """The even/odd closed form in complex arithmetic, as
    e^{A + 2 Re z'} |1 +- e^{-2z'}|^2 with z' = +-z signed so that Re z' >= 0,
    and the odd factor as |expm1(-2z')|^2: the form the real one replaced."""
    sign = 1 if parity == "even" else -1
    alpha = complex(alpha)
    rho = mu * mu + nu * nu
    n_sq = 1.0 / (2.0 * cat_weight(CAT[parity](alpha)))
    X = np.asarray(X, dtype=float)
    quad = nu * (alpha ** 2 / (nu - 1j * mu) + np.conj(alpha) ** 2 / (nu + 1j * mu))
    z = 1j * math.sqrt(2.0) * alpha * X / (math.sqrt(hbar) * (1j * mu - nu))
    z = np.where(z.real < 0, -z, z)
    log_pref = -0.5 * (2.0 * alpha.real) ** 2 - (X * X) / (hbar * rho) + quad.real
    inner = np.abs(1.0 + np.exp(-2.0 * z) if sign > 0 else np.expm1(-2.0 * z)) ** 2
    vals = n_sq / (SQRT_PI * math.sqrt(hbar * rho)) * np.exp(log_pref + 2.0 * z.real) * inner
    return np.where(vals < np.finfo(float).tiny, 0.0, vals)


def extended_product_form_cat(alpha, parity, mu, nu, hbar, X):
    """e^A (e^{2 Re z} + e^{-2 Re z} +- 2 cos(2 Im z)), the squared modulus of
    e^z +- e^{-z} times e^A, in np.longdouble with every exponent formed apart."""
    ld = np.longdouble
    sign = 1 if parity == "even" else -1
    ar, ai, mu, nu, hbar = (ld(v) for v in (alpha.real, alpha.imag, mu, nu, hbar))
    rho = mu * mu + nu * nu
    X = np.asarray(X, dtype=float).astype(ld)
    # A = -2 Re(alpha)^2 - X^2 / (hbar rho) + 2 nu Re(alpha^2 (nu + i mu)) / rho and
    # z = sqrt(2) alpha (mu - i nu) X / (sqrt(hbar) rho)
    A = -2 * ar * ar - X * X / (hbar * rho) + 2 * nu * ((ar * ar - ai * ai) * nu - 2 * ar * ai * mu) / rho
    scale = np.sqrt(ld(2)) / (np.sqrt(hbar) * rho)
    re_z, im_z = scale * (ar * mu + ai * nu) * X, scale * (ai * mu - ar * nu) * X
    n_sq = 1 / (2 * (1 + sign * np.exp(-2 * (ar * ar + ai * ai))))
    vals = np.exp(A + 2 * re_z) + np.exp(A - 2 * re_z) + 2 * sign * np.exp(A) * np.cos(2 * im_z)
    return n_sq / (np.sqrt(ld(np.pi)) * np.sqrt(hbar * rho)) * vals


EPS = np.finfo(float).eps


class TestRealArithmeticCatDensity:
    FRAMES = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-0.28, 0.96)]

    @pytest.mark.parametrize("alpha", [1e-5, 1.0, 0.6 + 0.8j, 1.5j, 5.0, 40.0])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_no_less_accurate_than_complex_form(self, alpha, parity):
        # against the oracle, or where it cannot expand the state (past its
        # 512-level cap, and e^{-|alpha|^2 / 2} underflows past |alpha| ~ 38)
        # against an extended-precision product form.  Both forms round the same arguments, so
        # at rounding level they may trade a few units of the peak.  The
        # complex form's exponent loses digits as |alpha|^2 grows (up to
        # 2.7e-14 of the peak at |alpha| = 5 and 1.3e-12 at 40); the real
        # form's completed square does not (under 7e-15)
        if abs(alpha) > 5 and np.finfo(np.longdouble).precision < 18:
            pytest.skip("np.longdouble is no wider than float here")
        mode = CAT[parity](alpha)
        for mu, nu in self.FRAMES:
            for hbar in (1e-3, 1.0, 1e3):
                grid = centered_grid(*grid_policy(mode, mu, nu, hbar))
                if abs(alpha) > 5:
                    # every node's error is formed alike; 8192 of up to 2^18 nodes keep it quick
                    xs = grid.xs[::max(1, grid.count // 8192)]
                    want = extended_product_form_cat(complex(alpha), parity, mu, nu, hbar, xs)
                else:
                    xs = grid.xs
                    o = oracle_marginal(mode, mu, nu, hbar)
                    want = o.values * o.meta["pre_rescale_integral"]
                got = tomogram(mode, mu, nu, hbar, xs)
                peak = float(np.max(want))
                err = float(np.max(np.abs(got - want))) / peak
                err_complex = float(np.max(np.abs(complex_form_cat(alpha, parity, mu, nu, hbar, xs) - want))) / peak
                assert err <= err_complex + 8 * EPS, (mu, nu, hbar, err, err_complex)
                assert err <= 1e-14, (mu, nu, hbar, err)
                assert not np.any((got > 0) & (got < np.finfo(float).tiny))


class TestTomogramOracle:
    def test_vacuum_anchor(self):
        psi = fock_expansion(Fock(0), D=4)
        g = centered_grid(8.0, 0.01)
        d = tomogram_oracle(psi, 1.0, 0.0, 1.0, g)
        np.testing.assert_allclose(d.values, tomogram(Fock(0), 1.0, 0.0, 1.0, g.xs), atol=1e-10)

    @pytest.mark.parametrize("frame", [(1.0, 0.0), (0.6, 0.8), (0.0, -1.0)])
    def test_level3_anchor(self, frame):
        mu, nu = frame
        psi = fock_expansion(Fock(3), D=6)
        g = centered_grid(16.0, 0.01)
        d = tomogram_oracle(psi, mu, nu, 1.0, g)
        np.testing.assert_allclose(d.values, tomogram(Fock(3), mu, nu, 1.0, g.xs), atol=1e-8)

    def test_even_cat_mutual_consistency(self):
        d = marginal_density(CoherentEven(2.0), 0.6, 0.8, 1.0)
        o = oracle_marginal(CoherentEven(2.0), 0.6, 0.8, 1.0)
        np.testing.assert_allclose(d.values, o.values, atol=1e-6)

    def test_oracle_detects_small_grid(self):
        psi = fock_expansion(Fock(5), D=8)
        g = centered_grid(1.0, 0.01)
        with pytest.raises(NumericalError):
            tomogram_oracle(psi, 1.0, 0.0, 1.0, g)


# the five unit phases below keep |alpha| at or above ODD_ALPHA_MIN in doubles
PIN_PHASES = (1.0, 0.6 + 0.8j, -0.8 + 0.6j, -0.28 - 0.96j, 0.96 - 0.28j)


class TestCatGridFloor:
    """An even cat on (0, 1) has variance below the vacuum's; its grid still
    spans the vacuum tails, so every grid integral is exact to rounding."""

    MODE = CoherentEven(0.5)

    def test_grid_integrals_exact(self):
        m = marginal_density(self.MODE, 0.0, 1.0, 1.0)
        assert abs(m.meta["pre_rescale_integral"] - 1.0) <= 1e-14
        assert abs(moments(m).var / variance(self.MODE, 0.0, 1.0, 1.0) - 1.0) <= 1e-14
        ks = np.linspace(0.0, 4.0, 41)
        cf = [np.trapezoid(m.values * np.cos(k * m.grid.xs), dx=m.grid.dx) for k in ks]
        assert np.max(np.abs(cf - char_function(self.MODE, 0.0, 1.0, 1.0, ks))) <= 1e-14

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 0.96 - 0.28j])
    @pytest.mark.parametrize("frame", [(0.0, 1.0), (0.6, 0.8)])
    def test_half_width_reaches_past_the_peaks(self, alpha, frame):
        # 8 vacuum deviations beyond the coherent peak <X>_alpha, and never
        # less than 8 sigma
        mu, nu = frame
        mode = CoherentEven(alpha)
        half, _ = grid_policy(mode, mu, nu, 1.0)
        peak = math.sqrt(2.0) * abs(mu * mode.alpha.real + nu * mode.alpha.imag)
        assert half >= max(peak + 8.0 * math.sqrt(0.5), 8.0 * math.sqrt(variance(mode, mu, nu, 1.0)))

    def test_vacuum_cat_keeps_the_vacuum_grid(self):
        assert grid_policy(CoherentEven(0.0), 0.6, 0.8, 0.3)[0] == grid_policy(Fock(0), 0.6, 0.8, 0.3)[0]

    @pytest.mark.parametrize("kind", ["even", "odd"])
    def test_policy_grid_integral_is_one(self, kind):
        # nothing rescales a cat's density, so its closed form must integrate
        # to 1 on the policy grid: 450 cats per parity, |alpha| from
        # ODD_ALPHA_MIN to 30, hbar from 1e-150 to 1e150.  Worst measured:
        # 2.7e-15 here, 6.9e-15 over 28,800 cats of the same frames and hbar
        # (72 moduli by 8 phases)
        worst = 0.0
        for size in np.geomspace(ODD_ALPHA_MIN, 30.0, 6):
            for phase in PIN_PHASES[:3]:
                for mu, nu in [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (3.0, -4.0), (0.01, 0.02)]:
                    for hbar in (1e-150, 1e-3, 1.0, 7.0, 1e150):
                        d = marginal_density(CAT[kind](size * phase), mu, nu, hbar)
                        worst = max(worst, abs(d.meta["pre_rescale_integral"] - 1.0))
        assert worst <= 1e-14


class TestVarianceClosedForms:
    @pytest.mark.parametrize("kind", ["even", "odd"])
    def test_cat_variance_matches_oracle_quadrature(self, kind):
        # the closed form that sigma^2 and the output grid read, against the
        # oracle density's quadrature, over 360 cases per parity
        worst = 0.0
        for size in (1e-5, 0.1, 0.5, 1.0, 2.0, 3.0):
            for phase in PIN_PHASES:
                mode = CAT[kind](size * phase)
                for mu, nu in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-0.28, 0.96)):
                    for hbar in (0.01, 1.0, 7.0):
                        quad = moments(oracle_marginal(mode, mu, nu, hbar)).var
                        worst = max(worst, abs(variance(mode, mu, nu, hbar) / quad - 1.0))
        assert worst <= 1e-12

    def test_vacuum_limit_agrees(self):
        # alpha -> 0: published expression must reduce to the vacuum variance
        got = evenodd_var_closed(CoherentEven(0.0), 1.0, 0.0, 1.0)
        d = marginal_density(CoherentEven(0.0), 1.0, 0.0, 1.0)
        assert got == pytest.approx(moments(d).var, abs=1e-8)
        assert got == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_even_real_alpha_mu_axis_agrees(self, alpha):
        got = evenodd_var_closed(CoherentEven(alpha), 1.0, 0.0, 1.0)
        d = marginal_density(CoherentEven(alpha), 1.0, 0.0, 1.0)
        assert got == pytest.approx(moments(d).var, rel=1e-8)

    def test_odd_disagrees_with_quadrature(self):
        # the published odd-case expression does not match the density it
        # claims to describe; the report records this, nothing corrects it
        alpha = 1.0
        formula = evenodd_var_closed(CoherentOdd(alpha), 1.0, 0.0, 1.0)
        quad = moments(marginal_density(CoherentOdd(alpha), 1.0, 0.0, 1.0)).var
        assert abs(formula - quad) / quad > 0.05

    def test_complex_alpha_tilted_frame_disagrees(self):
        alpha = 1 + 0.5j
        formula = evenodd_var_closed(CoherentEven(alpha), 0.6, 0.8, 1.0)
        quad = moments(marginal_density(CoherentEven(alpha), 0.6, 0.8, 1.0)).var
        assert abs(formula - quad) / quad > 0.01


HOMOGENEITY_CASES = [
    ("fock3", lambda mu, nu, hbar, X: tomogram(Fock(3), mu, nu, hbar, X)),
    ("evencat", lambda mu, nu, hbar, X: tomogram(CoherentEven(1.0), mu, nu, hbar, X)),
    ("oddcat", lambda mu, nu, hbar, X: tomogram(CoherentOdd(0.8 + 0.3j), mu, nu, hbar, X)),
]


class TestHomogeneity:
    @pytest.mark.parametrize("lam", [0.5, 2.0, -3.0])
    @pytest.mark.parametrize("name,density", HOMOGENEITY_CASES, ids=[c[0] for c in HOMOGENEITY_CASES])
    def test_scaling_law(self, lam, name, density):
        mu, nu, hbar = 0.8, -0.6, 1.0
        X = np.linspace(-6.0, 6.0, 241)
        base = density(mu, nu, hbar, X)
        scaled = density(lam * mu, lam * nu, hbar, lam * X)
        np.testing.assert_allclose(scaled, base / abs(lam), atol=1e-9)


class TestMarginalDispatch:
    def test_dispatch_matches_direct(self):
        # the gridded density is the pointwise form, bit for bit, for every mode
        for mode in (Fock(2), CoherentEven(1.0), CoherentOdd(0.8 + 0.3j)):
            d = marginal_density(mode, 0.6, 0.8, 1.0)
            assert d.meta["mode"] == mode
            want = tomogram(mode, 0.6, 0.8, 1.0, d.grid.xs)
            assert d.values.tobytes() == want.tobytes()

    def test_density_validation(self):
        g = centered_grid(1.0, 0.1)
        with pytest.raises(NumericalError):
            MarginalDensity(grid=g, values=np.full(g.count, -1.0))
        with pytest.raises(NumericalError):
            MarginalDensity(grid=g, values=np.full(g.count, 7.0))

    def test_density_rejects_nan(self):
        g = centered_grid(1.0, 0.1)
        with pytest.raises(NumericalError):
            MarginalDensity(grid=g, values=np.full(g.count, np.nan))
