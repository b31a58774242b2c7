import math

import numpy as np
import pytest

from cmtomo import clt, convolution
from cmtomo.clt import (
    gaussian_distance,
    gaussian_mass_within,
    hbar_scan,
    lyapunov_ratio,
    mass_within,
    n_scan,
    per_mode_moments,
    summed_density,
)
from cmtomo.convolution import common_grid, convolve_cycled, convolve_fft, marginals_for_system
from cmtomo.errors import NumericalError
from cmtomo.marginals import Moments, moments, variance
from cmtomo.states import CoherentEven, CoherentOdd, Fock, ModeGroup, SystemSpec, hbar_for_fixed_energy, unit_frames
from conftest import frame_at, system_at

SQRT_PI = math.sqrt(math.pi)


def iid(mode, N, hbar=1.0, mu=1.0, nu=0.0):
    """N copies of mode, each measured along mu x + nu p at hbar."""
    return system_at((ModeGroup(mode, mu, nu, N),), hbar)


def on_x(modes, hbar, mu=None, nu=None):
    """A system of modes at hbar, on the frames mu, nu (default: each along x)."""
    modes = tuple(modes)
    return system_at(SystemSpec.from_modes(modes, mu or [1.0] * len(modes), nu or [0.0] * len(modes)).groups, hbar)


def s_n(sys):
    return lyapunov_ratio(per_mode_moments(sys, marginals_for_system(sys)), sys.counts)


def cm_of(sys):
    return convolve_fft(marginals_for_system(sys), sys.counts)


class TestLyapunovRatio:
    def test_iid_vacuum_closed_form(self):
        # abs3 of the vacuum tomogram is 1/sqrt(pi); var is 1/2:
        # S_N = N (1/sqrt(pi)) / (N/2)^{3/2}
        for N in (4, 16, 100):
            want = N * (1 / SQRT_PI) / (N / 2) ** 1.5
            assert s_n(iid(Fock(0), N)) == pytest.approx(want, rel=1e-12)

    def test_vacuum_n4_value(self):
        got = s_n(iid(Fock(0), 4))
        assert got == pytest.approx(2 ** 1.5 / SQRT_PI / 2, rel=1e-12)

    def test_quarter_rate(self):
        vals = {}
        for N in (4, 16):
            vals[N] = s_n(iid(Fock(2), N))
        assert vals[16] / vals[4] == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("modes", [
        (Fock(0), Fock(1), Fock(3), Fock(2), Fock(1), Fock(0), Fock(2), Fock(5)),
    ])
    def test_hbar_invariance(self, modes):
        mu = [1.0, 0.6, 0.0, 0.8, 1.2, 0.9, -1.0, 0.7]
        nu = [0.0, 0.8, 1.0, -0.7, 0.3, 0.9, 0.5, -0.9]
        values = [s_n(on_x(modes, hbar, mu, nu)) for hbar in (10.0, 1.0, 0.01)]
        assert abs(values[0] / values[1] - 1) < 1e-12
        assert abs(values[2] / values[1] - 1) < 1e-12

    @staticmethod
    def unit_moments(groups):
        """The per-mode moments on the groups' unit frames, which here are
        the frames themselves: the extreme radii's geometric mean is 1."""
        unit, s_ref = unit_frames(groups, 1.0)
        assert unit == tuple(groups) and s_ref == 1.0
        sys = SystemSpec(unit)
        return per_mode_moments(sys, None), sys.counts

    def test_variance_sum_past_the_double_range_fails(self):
        # Var x sums to ~4e207, whose 3/2 power overflows
        pm, counts = self.unit_moments([ModeGroup(Fock(1000), 1e99, 0.0, 2 ** 22 - 1),
                                        ModeGroup(Fock(0), 1e-99, 0.0)])
        with pytest.raises(NumericalError, match=r"S_N = .* leaves the double range"):
            lyapunov_ratio(pm, counts)

    def test_abs3_past_the_double_range_fails(self):
        # the radius 1e206 to the power 3/2 overflows one mode's E|x|^3
        pm, counts = self.unit_moments([ModeGroup(Fock(1000), 1e103, 0.0), ModeGroup(Fock(0), 1e-103, 0.0)])
        assert pm[0].abs3 == math.inf and math.isfinite(pm[0].var)
        with pytest.raises(NumericalError, match=r"S_N = .* leaves the double range"):
            lyapunov_ratio(pm, counts)

    def test_rejects_zero_variance(self):
        with pytest.raises(ValueError):
            lyapunov_ratio([Moments(mean=0.0, var=0.0, abs3=1.0)], [3])

    def test_counts_must_match_moments(self):
        with pytest.raises(ValueError):
            lyapunov_ratio([Moments(mean=0.0, var=1.0, abs3=1.0)] * 2, [3])


def sigma2(sys):
    """Variance of the summed observable, as the CLI forms it."""
    return summed_density(sys)[1]


class TestSigma2:
    def test_two_modes(self):
        assert sigma2(on_x((Fock(0), Fock(1)), 1.0)) == pytest.approx(2.0, rel=1e-14)

    def test_linear_in_hbar(self):
        a = sigma2(iid(Fock(1), 3, hbar=1.0))
        b = sigma2(iid(Fock(1), 3, hbar=0.5))
        assert b / a == pytest.approx(0.5, rel=1e-14)

    def test_energy_bracket(self):
        from cmtomo.states import energy

        for modes in [(Fock(0), Fock(2), Fock(1)), (Fock(4),) * 5]:
            sys = on_x(modes, 0.8, [1.0] * len(modes), [0.4] * len(modes))
            E = energy(sys, 0.8)
            assert 0.5 * E <= sigma2(sys) <= 2.0 * E

    def test_cat_modes_use_the_closed_variance(self):
        sys = on_x((CoherentEven(1.0), Fock(1)), 1.0)
        assert sigma2(sys) == variance(CoherentEven(1.0), 1.0, 0.0) + 1.5

    def test_repeated_modes_share_one_evaluation(self):
        sys = on_x((Fock(1), CoherentEven(1.0), Fock(1), Fock(2), CoherentEven(1.0)), 0.5,
                   [1.0, 1.0, 1.0, 0.6, 1.0], [0.0, 0.0, 0.0, 0.8, 0.0])
        pm = per_mode_moments(sys, marginals_for_system(sys))
        assert sys.counts == [2, 2, 1] and len(pm) == 3
        assert pm[1].mean == 0.0
        assert pm[1].var == variance(CoherentEven(1.0), *frame_at(1.0, 0.0, 0.5))
        assert pm[1].abs3 == moments(marginals_for_system(sys)[1]).abs3
        assert pm[2].var == pytest.approx(0.5 * 2.5, rel=1e-15)


class TestGaussianDistance:
    def test_exact_gaussian_is_zero(self):
        # a Gaussian sampled on the grid against the same construction
        cm = cm_of(iid(Fock(0), 2))
        xs = cm.grid.xs
        gauss = np.exp(-xs ** 2 / 2) / math.sqrt(2 * math.pi)
        cm2 = type(cm)(grid=cm.grid, values=gauss / np.trapezoid(gauss, dx=cm.grid.dx))
        dist = gaussian_distance(cm2, 1.0)
        assert dist["ks"] < 1e-9
        assert dist["tv"] < 1e-9

    def test_fock1_against_analytic_cdf_oracle(self):
        # closed CDFs: F(x) = -x e^{-x^2}/sqrt(pi) + (1+erf(x))/2 for the
        # level-1 density, Phi(x/sqrt(1.5)) for the matched Gaussian
        xs = np.linspace(-12, 12, 400001)
        F = -xs * np.exp(-xs ** 2) / SQRT_PI + (1 + np.array([math.erf(v) for v in xs])) / 2
        G = (1 + np.array([math.erf(v / math.sqrt(3.0)) for v in xs])) / 2
        ks_oracle = float(np.max(np.abs(F - G)))
        f = 2 * xs ** 2 * np.exp(-xs ** 2) / SQRT_PI
        g = np.exp(-xs ** 2 / 3) / math.sqrt(3 * math.pi)
        tv_oracle = float(0.5 * np.trapezoid(np.abs(f - g), xs))

        cm = cm_of(iid(Fock(1), 1))
        dist = gaussian_distance(cm, 1.5)
        assert dist["ks"] == pytest.approx(ks_oracle, abs=1e-4)
        assert dist["tv"] == pytest.approx(tv_oracle, abs=1e-4)
        # frozen oracle values for reference
        assert ks_oracle == pytest.approx(0.12216293, abs=1e-6)
        assert tv_oracle == pytest.approx(0.30085912, abs=1e-6)

    def test_ks_non_increasing_with_doubling(self):
        vals = []
        for N in (1, 2, 4, 8, 16):
            sys = iid(Fock(1), N, hbar=1.0 / N)
            vals.append(gaussian_distance(cm_of(sys), sigma2(sys))["ks"])
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_ks_at_large_n_matches_long_double_cdfs(self):
        # Fock 1 at E = 10, N = 65,536 on 262,144 nodes: KS ~ 5e-7, where
        # two O(1) CDFs subtracted in double lose ~1e-8 of it; the same two
        # sampled curves, each integrated in long double, are the reference
        groups = [ModeGroup(Fock(1), 1.0, 0.0, 65536)]
        _, sig2, _, cm = summed_density(system_at(groups, hbar_for_fixed_energy(10.0, groups)))
        assert cm.grid.count == 262144
        xs, dx = cm.grid.xs, np.longdouble(cm.grid.dx)
        gauss = np.exp(-xs * xs / (2.0 * sig2)) / math.sqrt(2.0 * math.pi * sig2)

        def cdf(values):
            v = values.astype(np.longdouble)
            return np.concatenate([[np.longdouble(0)], np.cumsum((v[1:] + v[:-1]) * np.longdouble(0.5) * dx)])

        want = float(np.max(np.abs(cdf(cm.values) - cdf(gauss))))
        assert gaussian_distance(cm, sig2)["ks"] == pytest.approx(want, rel=1e-11, abs=0)


class TestNScan:
    def test_fixed_energy_schedule(self):
        reports = n_scan([1], [(1.0, 0.0)], E=10.0, N_list=[4, 8, 16, 32, 64], r=0.5, R=2.0)
        s_values = [r.S_N for r in reports]
        # consecutive ratios ~ 1/sqrt(2) within 20 percent
        for a, b in zip(s_values, s_values[1:]):
            assert b / a == pytest.approx(1 / math.sqrt(2), rel=0.2)
        # S_N sqrt(N) constant: pure 1/sqrt(N) rate law
        rate = [r.S_N * math.sqrt(r.N) for r in reports]
        assert max(rate) / min(rate) - 1 < 1e-6
        # sigma2 pinned to E rho by the energy constraint
        for r in reports:
            assert r.sigma2 == pytest.approx(10.0, rel=1e-12)
            assert r.hbar == pytest.approx(10.0 / (1.5 * r.N), rel=1e-14)
            assert r.rE <= r.sigma2 <= r.RE
        assert reports[-1].ks < reports[0].ks / 3

    def test_bounded_levels_pattern(self):
        reports = n_scan([0, 1, 2], [(1.0, 0.0), (0.6, 0.8)], E=6.0,
                         N_list=[6, 12, 24], r=0.5, R=2.0)
        for r in reports:
            assert r.rE <= r.sigma2 <= r.RE
        assert reports[-1].S_N < reports[0].S_N

    def test_large_n_distances_finite(self):
        # the first N of each scan at which the unscaled spectrum product
        # used to overflow into nan KS/TV
        single = n_scan([1], [(1.0, 0.0)], E=10.0, N_list=[256], r=0.5, R=2.0)
        pairs = [(math.sqrt(rho), 0.0) for rho in (0.6, 1.0, 1.5)]
        mixed = n_scan([0, 1, 2, 3], pairs, E=10.0, N_list=[128], r=0.3, R=3.0)
        for rep in single + mixed:
            assert math.isfinite(rep.ks) and math.isfinite(rep.tv)
            assert rep.ks < 0.01

    def test_frame_radius_bounds(self):
        # each group's mu^2 + nu^2 must lie in (r, R), with r > 0
        def scan(mu, r, R):
            return n_scan([1, 2], [(1.0, 0.0), (mu, 0.0)], E=10.0, N_list=[3], r=r, R=R)

        assert scan(1.0, 0.5, 2.0)[0].N == 3
        for mu, r, R in [(2.0, 0.5, 2.0), (1.0, 2.0, 0.5), (1.0, 0.0, 2.0), (1.0, -0.5, 2.0)]:
            with pytest.raises(ValueError, match="need 0 < r < mu"):
                scan(mu, r, R)


class TestEdgeworthRate:
    """The single-level Fock-1 scan at fixed energy against the leading
    Edgeworth term (Petrov, Sums of Independent Random Variables, ch. VI).

    Every tomogram is even, so kappa3 = 0 and the leading correction is
    -(gamma2/24) He3(z) phi(z) with gamma2 = -4/(3N) for Fock 1.  Hence
    KS N -> (4/3) 0.0229412 and TV N -> (4/3) 0.0583458, with the next
    term O(1/N) relative; the measured (ratio - 1) N is 0.28-0.41.
    """

    KS_N = 0.0305882
    TV_N = 0.0777944
    N_LIST = [64, 256, 1024, 4096, 16384]

    @pytest.fixture(scope="class")
    def reports(self):
        return n_scan([1], [(1.0, 0.0)], E=10.0, N_list=self.N_LIST, r=0.5, R=2.0)

    def test_ks_and_tv_match_leading_term(self, reports):
        assert [r.N for r in reports] == self.N_LIST
        for r in reports:
            assert abs(r.ks * r.N / self.KS_N - 1) <= 0.5 / r.N
            assert abs(r.tv * r.N / self.TV_N - 1) <= 0.5 / r.N

    def test_berry_esseen_bound(self, reports):
        for r in reports:
            assert r.ks <= 0.56 * r.S_N

    def test_scan_at_65536(self):
        (r,) = n_scan([1], [(1.0, 0.0)], E=10.0, N_list=[65536], r=0.5, R=2.0)
        assert r.sigma2 == pytest.approx(10.0, rel=1e-12)
        # the six-digit constant limits the check to ~1e-5 relative here
        assert abs(r.ks * r.N / self.KS_N - 1) <= 5e-5
        assert abs(r.tv * r.N / self.TV_N - 1) <= 5e-5
        assert r.ks <= 0.56 * r.S_N


class TestSumsOverGroups:
    """S_N and sigma^2 sum once per group, count times its moment: as
    accurate as math.fsum over the modes, where a running sum over N
    modes drifts by about N eps."""

    @pytest.mark.parametrize("N", [65536, 262144])
    def test_s_n_matches_fsum_over_modes(self, N):
        (r,) = n_scan([1], [(1.0, 0.0)], E=10.0, N_list=[N], r=0.5, R=2.0)
        sys = iid(Fock(1), N, hbar=r.hbar)
        (m,) = per_mode_moments(sys, marginals_for_system(sys))
        var = math.fsum([m.var] * N)
        assert abs(r.S_N / (math.fsum([m.abs3] * N) / var ** 1.5) - 1) <= 1e-14
        assert abs(r.sigma2 / var - 1) <= 1e-14

    def test_scan_groups_follow_both_patterns(self, monkeypatch):
        # mode i takes level i mod 2 and frame i mod 3: six groups at N = 14,
        # counts 3, 3, 2, 2, 2, 2, in the modes' first-appearance order
        seen = []
        original = clt._report_for

        def spy(unit, hbar, *args):
            seen.append((unit, hbar))
            return original(unit, hbar, *args)

        monkeypatch.setattr(clt, "_report_for", spy)
        # radii 1: the unit frames are the frames
        frames = [(1.0, 0.0), (0.6, 0.8), (0.0, 1.0)]
        n_scan([0, 1], frames, E=10.0, N_list=[14, 1], r=0.5, R=2.0)
        assert seen[0][0].groups == tuple(ModeGroup(Fock(i % 2), *frames[i % 3], count)
                                          for i, count in enumerate([3, 3, 2, 2, 2, 2]))
        assert seen[1][0].groups == (ModeGroup(Fock(0), 1.0, 0.0),)
        assert seen[0][1] == 10.0 / (14 / 2 + 7)


class TestScansAtUnitHbar:
    """Both scans take their densities at a unit hbar, 1 for frame radii
    near 1: `n_scan` builds and transforms each pattern group once per
    spacing, `hbar_scan` convolves once.  hbar and the energy bracket
    are closed forms at each point's own hbar, and sigma^2 is the unit
    value times s_ref^2."""

    # levels 2 0 1 on radii 1 and 0.6^2 + 0.8^2: the first group alone,
    # at N = 1, has a coarser spacing than every other point
    PATTERN = [ModeGroup(Fock(2), 1.0, 0.0), ModeGroup(Fock(0), 0.6, 0.8), ModeGroup(Fock(1), 1.0, 0.0),
               ModeGroup(Fock(2), 0.6, 0.8), ModeGroup(Fock(0), 1.0, 0.0), ModeGroup(Fock(1), 0.6, 0.8)]

    def test_s_n_does_not_depend_on_energy(self):
        # at its own hbar S_N differed by 6.3e-15 between these energies
        (a,) = n_scan([1], [(1.0, 0.0)], E=10.0, N_list=[65536], r=0.5, R=2.0)
        (b,) = n_scan([1], [(1.0, 0.0)], E=1e-200, N_list=[65536], r=0.5, R=2.0)
        assert repr(a.S_N) == repr(b.S_N)
        assert (a.ks, a.tv) == (b.ks, b.tv)

    def test_points_match_one_convolution_each(self, monkeypatch):
        # unsorted N, points with N < P = 6, and N = 1 on its own spacing,
        # which takes a second pass through the same code
        lattices = []
        original = convolution._spectrum_products

        def spy(marginals, counts, grid):
            lattices.append((grid, len(counts)))
            return original(marginals, counts, grid)

        monkeypatch.setattr(convolution, "_spectrum_products", spy)
        n_list = [13, 1, 4, 6, 9, 2]
        order, _, got = zip(*convolve_cycled(self.PATTERN, n_list))
        monkeypatch.undo()
        # the first pass takes every point of the fine spacing, in n_list order
        assert order == (0, 2, 3, 4, 5, 1)
        got = [got[order.index(i)] for i in range(len(n_list))]
        fine, coarse = got[0].grid.dx, got[1].grid.dx
        assert coarse > fine and all(d.grid.dx == fine for i, d in enumerate(got) if i != 1)
        assert lattices == [(got[0].grid, 6), (got[1].grid, 1)]
        for N, d in zip(n_list, got):
            sys = SystemSpec.cycled(self.PATTERN, N)
            want = convolve_fft(marginals_for_system(sys), sys.counts)
            assert d.grid == want.grid
            assert np.max(np.abs(d.values - want.values)) <= 4e-15 * np.max(want.values)
        # a point alone in its pass with N <= P is convolve_fft's one point, bit for bit
        for N in range(1, len(self.PATTERN) + 1):
            ((i, sys, d),) = convolve_cycled(self.PATTERN, [N])
            assert i == 0 and sys == SystemSpec.cycled(self.PATTERN, N)
            want = convolve_fft(marginals_for_system(sys), sys.counts)
            assert d.grid == want.grid and d.values.tobytes() == want.values.tobytes(), N

    def test_scan_points_in_any_order(self):
        levels, frames = [2, 0, 1], [(1.0, 0.0), (0.6, 0.8)]
        one_by_one = [n_scan(levels, frames, E=10.0, N_list=[N], r=0.5, R=2.0)[0] for N in (13, 1, 4, 6)]
        together = n_scan(levels, frames, E=10.0, N_list=[13, 1, 4, 6], r=0.5, R=2.0)
        for a, b in zip(one_by_one, together):
            assert (a.N, a.hbar, a.S_N, a.sigma2, a.rE, a.RE) == (b.N, b.hbar, b.S_N, b.sigma2, b.rE, b.RE)
            assert a.ks == pytest.approx(b.ks, rel=1e-12) and a.tv == pytest.approx(b.tv, rel=1e-12)

    def own_hbar_counts(self, levels, frames, n_list, monkeypatch):
        """(count n_scan inverts on, count common_grid gives at the point's own hbar) per point."""
        seen = []
        original = clt.gaussian_distance

        def spy(d, sigma2):
            seen.append(d.grid.count)
            return original(d, sigma2)

        monkeypatch.setattr(clt, "gaussian_distance", spy)
        reports = n_scan(levels, frames, E=10.0, N_list=n_list, r=0.3, R=3.0)
        monkeypatch.undo()
        pattern = [ModeGroup(Fock(levels[i % len(levels)]), *frames[i % len(frames)])
                   for i in range(math.lcm(len(levels), len(frames)))]
        own = []
        for rep in reports:
            sys = system_at(SystemSpec.cycled(pattern, rep.N).groups, rep.hbar)
            own.append(common_grid(marginals_for_system(sys), sys.counts).count)
        return seen, own

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 1, 2, 0)])
    @pytest.mark.parametrize("theta", [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])
    def test_benchmark_grids_unchanged(self, monkeypatch, order, theta):
        # the benchmark's mixed and single-level scans at every angle it draws,
        # each in one pass: no point takes a pass of its own spacing
        frames = [(math.sqrt(rho) * math.cos(theta), math.sqrt(rho) * math.sin(theta)) for rho in (0.6, 1.0, 1.5)]
        original = convolution._spectrum_products
        for levels, scan_frames, n_list in ((list(order), frames, [4, 8, 16, 32, 64]),
                                            ([1], frames[1:2], [4, 8, 16, 32, 64, 128])):
            passes = []

            def spy(marginals, counts, grid):
                passes.append(grid)
                return original(marginals, counts, grid)

            monkeypatch.setattr(convolution, "_spectrum_products", spy)
            seen, own = self.own_hbar_counts(levels, scan_frames, n_list, monkeypatch)
            assert seen == own
            assert len(passes) == 1

    def test_random_frame_grids_unchanged(self, monkeypatch):
        # TestClosedFormGrid's frames: the count at the unit hbar is the one
        # at each point's own hbar
        for theta in np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, 200):
            seen, own = self.own_hbar_counts([1], [(math.cos(theta), math.sin(theta))], [4, 16, 64, 256],
                                             monkeypatch)
            assert seen == own == [1024 * math.isqrt(N) for N in (4, 16, 64, 256)], theta

    def test_hbar_scan_convolves_once(self, monkeypatch):
        sys = SystemSpec((ModeGroup(Fock(1), 0.6, 0.8, 8), ModeGroup(CoherentEven(1 + 0.5j), 1.0, 0.0, 4)))
        hbars = [1.0, 0.1, 0.01, 0.001]
        inverses = []
        irfft = np.fft.irfft

        def counting(a, n=None, *args, **kwargs):
            inverses.append(n)
            return irfft(a, n, *args, **kwargs)

        monkeypatch.setattr(convolution.np.fft, "irfft", counting)
        reports = hbar_scan(sys, hbars, epsilon=0.1)
        monkeypatch.undo()
        assert len(inverses) == 1
        sig2_unit = summed_density(SystemSpec(unit_frames(sys.groups, 1.0)[0]))[1]
        for hbar, rep in zip(hbars, reports):
            _, sig2, _, cm = summed_density(system_at(sys.groups, hbar))
            # sigma^2 is the unit value times s_ref^2, as `cm` writes it: the
            # closed form at hbar up to rounding
            s_ref = unit_frames(sys.groups, hbar)[1]
            assert rep.sigma2 == sig2_unit * s_ref * s_ref and rep.sigma2 == pytest.approx(sig2, rel=4e-16)
            assert rep.gaussian_predicted_mass == gaussian_mass_within(rep.sigma2, 0.1)
            want = mass_within(cm, 0.1)
            if hbar == 1.0:
                assert rep.mass_in_epsilon == want
            assert abs(rep.mass_in_epsilon - want) <= 1e-15

    def test_far_frame_radii_run_at_a_power_of_two(self):
        # at hbar = 1 a radius of 1e250 would put E|x|^3 past the double
        # range; the unit hbar takes it near 1, and the scale-free columns
        # are those of radius 1 at the same rho E
        (far,) = n_scan([0, 1], [(1e125, 0.0)], E=1e-150, N_list=[64], r=1e249, R=1e251)
        (near,) = n_scan([0, 1], [(1.0, 0.0)], E=1e100, N_list=[64], r=0.5, R=2.0)
        assert far.S_N == pytest.approx(near.S_N, rel=1e-15)
        assert far.ks == pytest.approx(near.ks, rel=1e-9) and far.tv == pytest.approx(near.tv, rel=1e-9)
        # hbar (mu^2 + nu^2) is 1e190 and 1e188 in both scans, sigma ~ 2.4e95 at the first
        far_scan = hbar_scan(SystemSpec((ModeGroup(Fock(1), 1e150, 0.0, 4),)), [1e-110, 1e-112], 2e95)
        near_scan = hbar_scan(SystemSpec((ModeGroup(Fock(1), 1.0, 0.0, 4),)), [1e190, 1e188], 2e95)
        for a, b in zip(far_scan, near_scan):
            assert 0.5 < a.mass_in_epsilon <= 1.0
            assert a.mass_in_epsilon == pytest.approx(b.mass_in_epsilon, abs=1e-15)

    def test_epsilon_below_the_unit_range_holds_no_mass(self):
        (rep,) = hbar_scan(SystemSpec((ModeGroup(Fock(1), 1.0, 0.0, 4),)), [1e200], 1e-300)
        assert rep.mass_in_epsilon == 0.0


class TestHbarScan:
    def test_fock_schedule_against_erf_oracle(self):
        reports = hbar_scan(iid(Fock(1), 8), [1.0, 0.1, 0.01, 0.001], epsilon=0.1)
        masses = [r.mass_in_epsilon for r in reports]
        assert all(b > a for a, b in zip(masses, masses[1:]))
        for r in reports:
            assert abs(r.mass_in_epsilon - gaussian_mass_within(r.sigma2, 0.1)) < 0.02
            assert r.sigma2 / r.hbar == pytest.approx(12.0, rel=1e-12)
        # final point: sigma2 = 0.012, erf(0.1/sqrt(0.024)) ~ 0.6387
        assert reports[-1].sigma2 == pytest.approx(0.012, rel=1e-12)
        assert reports[-1].gaussian_predicted_mass == pytest.approx(math.erf(0.1 / math.sqrt(0.024)), rel=1e-12)

    def test_cat_system_concentrates(self):
        reports = hbar_scan(iid(CoherentEven(1 + 0.5j), 4), [1.0, 0.1, 0.01, 0.001], epsilon=0.1)
        masses = [r.mass_in_epsilon for r in reports]
        assert all(b > a for a, b in zip(masses, masses[1:]))
        assert masses[-1] > 0.5

    def test_requires_decreasing_list(self):
        with pytest.raises(ValueError):
            hbar_scan(iid(Fock(1), 1), [0.1, 1.0], epsilon=0.1)


class TestCatRateBound:
    def test_sn_sqrt_n_bounded_for_cat_family(self):
        # mixed amplitudes, bounded |alpha| and frame radius: the rate
        # S_N sqrt(N) must stay bounded as N grows
        pattern = [CoherentEven(1.0), CoherentOdd(0.5 + 0.5j), CoherentEven(1.5)]
        frames = [(1.0, 0.0), (0.6, 0.8), (0.0, 1.0)]
        rates = []
        for N in (4, 16, 64, 256):
            sys = SystemSpec(tuple(ModeGroup(mode, *frame, N // 3 + (i < N % 3))
                                   for i, (mode, frame) in enumerate(zip(pattern, frames))))
            pm = per_mode_moments(sys, marginals_for_system(sys))
            rates.append(lyapunov_ratio(pm, sys.counts) * math.sqrt(N))
        assert max(rates) <= 2.0 * min(rates)


class TestCatGaussianization:
    """Gaussianization of the cat family at fixed energy E = 10.

    Every tomogram is even, so KS N tends to a constant with the next term
    O(1/N) relative (TestEdgeworthRate); over these families the measured
    (ratio - 1) N is at most 1.25 in magnitude.
    """

    FAMILIES = {
        "even1": [(CoherentEven(1.0), (1.0, 0.0))],
        "odd": [(CoherentOdd(0.8 + 0.6j), (0.6, 0.8))],
        "even1.5": [(CoherentEven(1.5), (0.0, 1.0))],
        "quarters": [(Fock(0), (1.0, 0.0)), (CoherentEven(1.0), (1.0, 0.0)),
                     (CoherentOdd(0.8), (1.0, 0.0)), (Fock(3), (1.0, 0.0))],
    }

    @pytest.mark.parametrize("family", FAMILIES)
    def test_ks_falls_as_one_over_n(self, family):
        pattern = self.FAMILIES[family]
        reports = []
        for N in (64, 256, 1024, 4096):
            groups = [ModeGroup(mode, *frame, N // len(pattern)) for mode, frame in pattern]
            sys = system_at(groups, hbar_for_fixed_energy(10.0, groups))
            _, sig2, s_n, cm = summed_density(sys)
            reports.append((N, s_n, gaussian_distance(cm, sig2)["ks"]))
        for _, s_n, ks in reports:
            assert ks <= 0.56 * s_n
        for (n_a, _, ks_a), (n_b, _, ks_b) in zip(reports, reports[1:]):
            assert abs(ks_b * n_b / (ks_a * n_a) - 1) <= 4 / n_a


class TestMassWithin:
    def test_gaussian_mass_matches_erf(self):
        # trapezoid CDF bias is O(dx^2) ~ 1e-5 at dx = sigma/64, far
        # inside the 0.02 contract tolerance of the scans
        got = mass_within(cm_of(iid(Fock(0), 2)), 0.7)
        assert got == pytest.approx(math.erf(0.7 / math.sqrt(2.0)), abs=1e-4)

    def test_rejects_nonpositive_epsilon(self):
        cm = cm_of(iid(Fock(0), 1))
        with pytest.raises(ValueError):
            mass_within(cm, 0.0)
