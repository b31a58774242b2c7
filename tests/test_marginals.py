import math

import numpy as np
import pytest

from cmtomo.errors import NormalizationMismatchWarning, NumericalError
from cmtomo.marginals import (
    Grid,
    MarginalDensity,
    centered_grid,
    evenodd_pointwise,
    evenodd_tomogram,
    evenodd_var_closed,
    fock_abs3_bound_check,
    fock_abs3_dimensionless,
    fock_marginal,
    fock_tomogram,
    fock_var_closed,
    marginal_density,
    moments,
    oracle_marginal,
    tomogram_oracle,
)
from cmtomo.states import ODD_ALPHA_MIN, CoherentEven, CoherentOdd, Fock, fock_expansion

SQRT_PI = math.sqrt(math.pi)


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
    return total / (2 ** n * math.factorial(n) * SQRT_PI)


class TestGrids:
    def test_count_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            Grid(x0=0.0, dx=0.1, count=100)

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
        assert fock_tomogram(0, 1.0, 0.0, 1.0, 0.0) == pytest.approx(1 / SQRT_PI, rel=1e-14)

    def test_level_one_value(self):
        # rho = 1, hbar = 2: (1/sqrt(2)) * 2 y^2 e^{-y^2}/sqrt(pi) at y = 1/sqrt(2)
        want = math.exp(-0.5) / (math.sqrt(2.0) * SQRT_PI)
        assert fock_tomogram(1, 0.6, 0.8, 2.0, 1.0) == pytest.approx(want, rel=1e-12)

    def test_normalization_level_five(self):
        d = fock_marginal(5, 1.0, 0.0, 1.0)
        assert np.trapezoid(d.values, dx=d.grid.dx) == pytest.approx(1.0, abs=1e-8)

    def test_normalization_level_1000(self):
        # the Gaussian factor alone underflows past |y| ~ 38.6, inside this
        # level's support; the log-scaled recurrence keeps the whole mass
        d = fock_marginal(1000, 1.0, 0.0, 1.0)
        assert d.meta["pre_rescale_integral"] == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_frame_rejected(self):
        with pytest.raises(ValueError):
            fock_tomogram(0, 0.0, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("frame", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-0.6, 0.8)])
    def test_scale_collapse_equal_hbar_rho(self, frame):
        # depends on (mu, nu, hbar) only through hbar * (mu^2 + nu^2)
        xs = np.linspace(-5, 5, 101)
        base = fock_tomogram(4, 1.0, 0.0, 1.0, xs)
        mu, nu = frame
        np.testing.assert_allclose(fock_tomogram(4, mu, nu, 1.0, xs), base, rtol=0, atol=1e-15)

    def test_scale_collapse_across_hbar(self):
        xs = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(
            fock_tomogram(4, 0.5, 0.0, 4.0, xs),
            fock_tomogram(4, 1.0, 0.0, 1.0, xs),
            rtol=1e-12,
        )


class TestMoments:
    def test_vacuum_moments_gaussian_oracle(self):
        d = fock_marginal(0, 1.0, 0.0, 1.0)
        m = moments(d)
        sigma = math.sqrt(0.5)
        assert m.mean == pytest.approx(0.0, abs=1e-12)
        assert m.var == pytest.approx(0.5, abs=1e-10)
        # Gaussian absolute third moment 2 sqrt(2/pi) sigma^3 = 1/sqrt(pi)
        assert m.abs3 == pytest.approx(2 * math.sqrt(2 / math.pi) * sigma ** 3, rel=1e-7)

    def test_fock1_variance(self):
        m = moments(fock_marginal(1, 1.0, 0.0, 1.0))
        assert m.var == pytest.approx(1.5, abs=1e-10)

    @pytest.mark.parametrize("n", [0, 1, 5, 20, 50])
    @pytest.mark.parametrize("rho_frame", [(1.0, 0.0), (0.6, 0.8)])
    def test_variance_matches_closed_form(self, n, rho_frame):
        mu, nu = rho_frame
        for hbar in (0.01, 1.0, 10.0):
            m = moments(fock_marginal(n, mu, nu, hbar))
            want = fock_var_closed(n, mu, nu, hbar)
            assert m.var == pytest.approx(want, rel=1e-8)
            assert abs(m.mean) < 1e-9 * math.sqrt(want)


class TestAbs3:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 20, 50, 100])
    def test_dimensionless_moment_bigint_oracle(self, n):
        assert fock_abs3_dimensionless(n) == pytest.approx(exact_abs3_bigint(n), rel=1e-13)

    def test_scaling_is_exact(self):
        base = fock_abs3_bound_check(7, 1.0, 0.0, 1.0)["abs3"]
        for mu, nu, hbar in [(0.6, 0.8, 2.0), (2.0, 0.0, 0.3), (0.9, -1.1, 5.0)]:
            got = fock_abs3_bound_check(7, mu, nu, hbar)["abs3"]
            s3 = (hbar * (mu * mu + nu * nu)) ** 1.5
            assert got / base == pytest.approx(s3, rel=1e-9)

    def test_bound_ratio_sup_attained(self):
        ratios = [fock_abs3_bound_check(n, 1.0, 0.0, 1.0)["bound_ratio"] for n in range(1, 101)]
        sup = max(ratios)
        assert math.isfinite(sup)
        # the growth envelope abs3 ~ n^{3/2} makes the ratio settle, so the
        # supremum over n <= 100 sits at small n, not at the edge
        assert ratios.index(sup) < 99

    def test_grid_abs3_agrees_with_exact(self):
        d = fock_marginal(3, 1.0, 0.0, 1.0)
        assert moments(d).abs3 == pytest.approx(fock_abs3_dimensionless(3), rel=1e-7)


class TestEvenOddTomogram:
    def test_alpha_zero_is_vacuum(self):
        d = evenodd_tomogram(0.0, "even", 1.0, 0.0, 1.0)
        want = fock_tomogram(0, 1.0, 0.0, 1.0, d.grid.xs)
        np.testing.assert_allclose(d.values, want, atol=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 1 + 0.5j, 1.5 * np.exp(1j * np.pi / 4)])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("frame", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)])
    def test_matches_oracle(self, alpha, parity, frame):
        mu, nu = frame
        for hbar in (1.0, 0.4):
            d = evenodd_tomogram(alpha, parity, mu, nu, hbar)
            mode = CoherentEven(alpha) if parity == "even" else CoherentOdd(alpha)
            o = oracle_marginal(mode, mu, nu, hbar, grid=d.grid)
            np.testing.assert_allclose(d.values, o.values, atol=1e-9)

    def test_even_cat_interference_zeros_on_nu_axis(self):
        # real alpha, nu-axis frame: density ~ cos^2(sqrt(2) a X), zero at pi/(2 sqrt(2) a)
        alpha = 2.0
        d = evenodd_tomogram(alpha, "even", 0.0, 1.0, 1.0)
        node = math.pi / (2 * math.sqrt(2) * alpha)
        vals = evenodd_pointwise(alpha, "even", 0.0, 1.0, 1.0, np.array([node]))
        assert vals[0] == pytest.approx(0.0, abs=1e-14)
        assert d.values.min() < 1e-12 * d.values.max()

    def test_odd_density_vanishes_at_origin(self):
        for frame in [(0.0, 1.0), (1.0, 0.0), (0.6, 0.8)]:
            d = evenodd_tomogram(1.5, "odd", frame[0], frame[1], 1.0)
            assert float(np.interp(0.0, d.grid.xs, d.values)) < 1e-13

    def test_even_function_of_x_for_real_alpha_mu_axis(self):
        # node 0 (x = -count/2 dx) has no mirror on the half-open grid
        d = evenodd_tomogram(1.2, "even", 1.0, 0.0, 1.0)
        np.testing.assert_allclose(d.values[1:], d.values[1:][::-1], atol=1e-12)

    def test_rescale_metadata(self):
        d = evenodd_tomogram(1.0, "even", 1.0, 0.0, 1.0)
        assert d.meta["pre_rescale_integral"] == pytest.approx(1.0, abs=1e-6)
        assert d.meta["rescale"] == pytest.approx(1.0, abs=1e-6)

    def test_normalization_warning_on_bad_grid(self):
        # a grid covering half the support misses mass: warning, not error
        g = centered_grid(0.4, 0.01)
        with pytest.warns(NormalizationMismatchWarning):
            evenodd_tomogram(2.0, "even", 1.0, 0.0, 1.0, grid=g)

    def test_odd_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            evenodd_tomogram(0.0, "odd", 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("phase", [1.0, 0.6 + 0.8j])
    @pytest.mark.parametrize("frame", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)])
    @pytest.mark.parametrize("hbar", [1.0, 1e-3, 1e3])
    def test_smallest_odd_alpha_tracks_oracle(self, phase, frame, hbar):
        # at the bound the closed form's rounding error, about 1e-16/|alpha|
        # of the peak, stays below the O(|alpha|^2) departure from |1>
        alpha = ODD_ALPHA_MIN * phase
        mu, nu = frame
        d = evenodd_tomogram(alpha, "odd", mu, nu, hbar)
        o = oracle_marginal(CoherentOdd(alpha), mu, nu, hbar, grid=d.grid)
        assert np.max(np.abs(d.values - o.values)) < 0.55 * abs(alpha) ** 2 * np.max(o.values)

    def test_unknown_parity_rejected(self):
        with pytest.raises(ValueError):
            evenodd_tomogram(1.0, "mixed", 1.0, 0.0, 1.0)


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
                xs = evenodd_tomogram(alpha, parity, mu, nu, hbar).grid.xs
                want = product_form_cat(alpha, parity, mu, nu, hbar, xs)
                got = evenodd_pointwise(alpha, parity, mu, nu, hbar, xs)
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
            d = evenodd_tomogram(alpha, parity, mu, nu, 1.0)
            assert np.all(np.isfinite(d.values))
            assert d.meta["pre_rescale_integral"] == pytest.approx(1.0, abs=1e-9)


class TestTomogramOracle:
    def test_vacuum_anchor(self):
        psi = fock_expansion(Fock(0), D=4)
        g = centered_grid(8.0, 0.01)
        d = tomogram_oracle(psi, 1.0, 0.0, 1.0, g)
        np.testing.assert_allclose(d.values, fock_tomogram(0, 1.0, 0.0, 1.0, g.xs), atol=1e-10)

    @pytest.mark.parametrize("frame", [(1.0, 0.0), (0.6, 0.8), (0.0, -1.0)])
    def test_level3_anchor(self, frame):
        mu, nu = frame
        psi = fock_expansion(Fock(3), D=6)
        g = centered_grid(16.0, 0.01)
        d = tomogram_oracle(psi, mu, nu, 1.0, g)
        np.testing.assert_allclose(d.values, fock_tomogram(3, mu, nu, 1.0, g.xs), atol=1e-8)

    def test_even_cat_mutual_consistency(self):
        d = evenodd_tomogram(2.0, "even", 0.6, 0.8, 1.0)
        o = oracle_marginal(CoherentEven(2.0), 0.6, 0.8, 1.0, grid=d.grid)
        np.testing.assert_allclose(d.values, o.values, atol=1e-6)

    def test_oracle_detects_small_grid(self):
        psi = fock_expansion(Fock(5), D=8)
        g = centered_grid(1.0, 0.01)
        with pytest.raises(NumericalError):
            tomogram_oracle(psi, 1.0, 0.0, 1.0, g)


class TestVarianceClosedForms:
    def test_vacuum_limit_agrees(self):
        # alpha -> 0: published expression must reduce to the vacuum variance
        got = evenodd_var_closed(0.0, "even", 1.0, 0.0, 1.0)
        d = evenodd_tomogram(0.0, "even", 1.0, 0.0, 1.0)
        assert got == pytest.approx(moments(d).var, abs=1e-8)
        assert got == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_even_real_alpha_mu_axis_agrees(self, alpha):
        got = evenodd_var_closed(alpha, "even", 1.0, 0.0, 1.0)
        d = evenodd_tomogram(alpha, "even", 1.0, 0.0, 1.0)
        assert got == pytest.approx(moments(d).var, rel=1e-8)

    def test_odd_disagrees_with_quadrature(self):
        # the published odd-case expression does not match the density it
        # claims to describe; the report records this, nothing corrects it
        alpha = 1.0
        formula = evenodd_var_closed(alpha, "odd", 1.0, 0.0, 1.0)
        quad = moments(evenodd_tomogram(alpha, "odd", 1.0, 0.0, 1.0)).var
        assert abs(formula - quad) / quad > 0.05

    def test_complex_alpha_tilted_frame_disagrees(self):
        alpha = 1 + 0.5j
        formula = evenodd_var_closed(alpha, "even", 0.6, 0.8, 1.0)
        quad = moments(evenodd_tomogram(alpha, "even", 0.6, 0.8, 1.0)).var
        assert abs(formula - quad) / quad > 0.01


HOMOGENEITY_CASES = [
    ("fock3", lambda mu, nu, hbar, X: fock_tomogram(3, mu, nu, hbar, X)),
    ("evencat", lambda mu, nu, hbar, X: evenodd_pointwise(1.0, "even", mu, nu, hbar, X)),
    ("oddcat", lambda mu, nu, hbar, X: evenodd_pointwise(0.8 + 0.3j, "odd", mu, nu, hbar, X)),
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
        d1 = marginal_density(Fock(2), 1.0, 0.0, 1.0)
        d2 = fock_marginal(2, 1.0, 0.0, 1.0)
        np.testing.assert_allclose(d1.values, d2.values, atol=0)

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
