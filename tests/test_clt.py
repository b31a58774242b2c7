import math

import numpy as np
import pytest

from cmtomo.clt import (
    _report_for,
    gaussian_distance,
    gaussian_mass_within,
    hbar_scan,
    lyapunov_ratio,
    mass_within,
    n_scan,
    per_mode_moments,
    summed_density,
)
from cmtomo.convolution import convolve_fft, marginals_for_system
from cmtomo.marginals import Moments, moments, variance
from cmtomo.states import CoherentEven, CoherentOdd, Fock, ModeGroup, SystemSpec, hbar_for_fixed_energy

SQRT_PI = math.sqrt(math.pi)


def iid(mode, N, hbar=1.0, mu=1.0, nu=0.0):
    """N copies of mode, each measured along mu x + nu p."""
    return SystemSpec((ModeGroup(mode, mu, nu, N),), hbar)


def on_x(modes, hbar, mu=None, nu=None):
    """A system of modes, on the frames mu, nu (default: each along x)."""
    modes = tuple(modes)
    return SystemSpec.from_modes(modes, mu or [1.0] * len(modes), nu or [0.0] * len(modes), hbar)


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
            E = energy(sys)
            assert 0.5 * E <= sigma2(sys) <= 2.0 * E

    def test_cat_modes_use_the_closed_variance(self):
        sys = on_x((CoherentEven(1.0), Fock(1)), 1.0)
        assert sigma2(sys) == variance(CoherentEven(1.0), 1.0, 0.0, 1.0) + 1.5

    def test_repeated_modes_share_one_evaluation(self):
        sys = on_x((Fock(1), CoherentEven(1.0), Fock(1), Fock(2), CoherentEven(1.0)), 0.5,
                   [1.0, 1.0, 1.0, 0.6, 1.0], [0.0, 0.0, 0.0, 0.8, 0.0])
        pm = per_mode_moments(sys, marginals_for_system(sys))
        assert sys.counts == [2, 2, 1] and len(pm) == 3
        assert pm[1].mean == 0.0
        assert pm[1].var == variance(CoherentEven(1.0), 1.0, 0.0, 0.5)
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
        from cmtomo import clt

        seen = []
        original = clt._report_for

        def spy(sys, r, R):
            seen.append(sys)
            return original(sys, r, R)

        monkeypatch.setattr(clt, "_report_for", spy)
        frames = [(1.0, 0.0), (0.6, 0.8), (0.0, 1.0)]
        n_scan([0, 1], frames, E=10.0, N_list=[14, 1], r=0.5, R=2.0)
        assert seen[0].groups == tuple(ModeGroup(Fock(i % 2), *frames[i % 3], count)
                                       for i, count in enumerate([3, 3, 2, 2, 2, 2]))
        assert seen[1].groups == (ModeGroup(Fock(0), 1.0, 0.0),)
        assert seen[0].hbar == 10.0 / (14 / 2 + 7)


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
                                   for i, (mode, frame) in enumerate(zip(pattern, frames))), hbar=1.0)
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
            sys = SystemSpec(groups, hbar_for_fixed_energy(10.0, groups))
            reports.append(_report_for(sys, 0.5, 2.0))
        for r in reports:
            assert r.ks <= 0.56 * r.S_N
        for a, b in zip(reports, reports[1:]):
            assert abs(b.ks * b.N / (a.ks * a.N) - 1) <= 4 / a.N


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
