import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtomo import convolution
from cmtomo.convolution import (
    CenterOfMassDensity,
    _bin_counts,
    _cf_product_at,
    _distinct,
    _inverse_cdf,
    _mode_stream,
    _phase_sum,
    _raise_to,
    backend_agreement,
    cf_grid_for,
    cf_product,
    common_grid,
    convolve_fft,
    cumulative_trapezoid,
    marginals_for_system,
    sample_sum,
)
from cmtomo.errors import GridSizeError
from cmtomo.marginals import (
    centered_grid,
    char_function,
    char_function_reach,
    evenodd_pointwise,
    fock_marginal,
    fock_tomogram,
    grid_policy,
    moments,
)
from cmtomo.states import CoherentEven, CoherentOdd, Fock, FrameSpec, SystemSpec, hbar_for_fixed_energy


def iid_system(mode, N, hbar=1.0, mu=1.0, nu=0.0):
    sys = SystemSpec(modes=(mode,) * N, hbar=hbar)
    rho = mu * mu + nu * nu
    frame = FrameSpec(mu=(mu,) * N, nu=(nu,) * N, r=0.5 * rho, R=2.0 * rho)
    return sys, frame


MIXED_SYS = SystemSpec(
    modes=(Fock(1), CoherentEven(1 + 0.5j), CoherentOdd(0.8), Fock(0)), hbar=0.7
)
MIXED_FRAME = FrameSpec(
    mu=(1.0, 0.6, 0.0, -0.8), nu=(0.0, 0.8, 1.0, 0.6), r=0.5, R=2.0
)


def trapezoid_weights(grid):
    w = np.full(grid.count, grid.dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def mode_cf(m, ks):
    """char_function of the mode a marginal was built from, at its frame."""
    return char_function(m.meta["mode"], m.meta["mu"], m.meta["nu"], m.meta["hbar"], ks)


def direct_phase_sum(xs, v, a, sign):
    """sum_j v[j] exp(sign i a x_j) with one exp per (a, x_j) entry, in row blocks."""
    return np.concatenate([np.exp(sign * 1j * np.outer(a[i:i + 256], xs)) @ v
                           for i in range(0, len(a), 256)])


class TestConvolveFft:
    def test_two_vacua_gaussian(self):
        sys, frame = iid_system(Fock(0), 2)
        cm = convolve_fft(marginals_for_system(sys, frame))
        got = float(np.interp(0.0, cm.grid.xs, cm.values))
        assert got == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-6)
        assert moments(cm).var == pytest.approx(1.0, rel=1e-9)

    def test_single_marginal_identity(self):
        sys, frame = iid_system(Fock(1), 1)
        (m,) = marginals_for_system(sys, frame)
        cm = convolve_fft([m])
        back = np.interp(m.grid.xs, cm.grid.xs, cm.values)
        np.testing.assert_allclose(back, m.values, atol=1e-9)

    def test_three_mode_variance(self):
        sys = SystemSpec(modes=(Fock(0), Fock(1), Fock(2)), hbar=1.0)
        frame = FrameSpec(mu=(1.0,) * 3, nu=(0.0,) * 3, r=0.5, R=2.0)
        cm = convolve_fft(marginals_for_system(sys, frame))
        assert moments(cm).var == pytest.approx(4.5, rel=1e-6)

    @pytest.mark.parametrize("N", [1, 2, 8, 64])
    def test_variance_additivity(self, N):
        sys, frame = iid_system(Fock(1), N, hbar=2.0 / N)
        marg = marginals_for_system(sys, frame)
        cm = convolve_fft(marg)
        want = sum(moments(m).var for m in marg)
        assert moments(cm).var == pytest.approx(want, rel=1e-6)
        assert abs(moments(cm).mean) < 1e-8

    def test_mixed_modes_variance_additivity(self):
        marg = marginals_for_system(MIXED_SYS, MIXED_FRAME)
        cm = convolve_fft(marg)
        want = sum(moments(m).var for m in marg)
        assert moments(cm).var == pytest.approx(want, rel=1e-6)
        assert cm.meta["clamped_mass"] < 1e-9

    def test_homogeneity_of_sum_density(self):
        lam = 2.0
        sys = SystemSpec(modes=(Fock(1), Fock(2)), hbar=1.0)
        f1 = FrameSpec(mu=(1.0, 0.6), nu=(0.0, 0.8), r=0.5, R=2.0)
        f2 = FrameSpec(mu=(lam, lam * 0.6), nu=(0.0, lam * 0.8), r=0.5 * lam ** 2, R=2.0 * lam ** 2)
        cm1 = convolve_fft(marginals_for_system(sys, f1))
        cm2 = convolve_fft(marginals_for_system(sys, f2))
        probe = np.linspace(-4, 4, 201)
        v1 = np.interp(probe, cm1.grid.xs, cm1.values)
        v2 = np.interp(lam * probe, cm2.grid.xs, cm2.values)
        np.testing.assert_allclose(v2, v1 / lam, atol=1e-6)

    def test_grid_cap(self):
        sys, frame = iid_system(Fock(0), 2)
        marg = marginals_for_system(sys, frame)
        with pytest.raises(GridSizeError):
            common_grid(marg, max_count=64)


def expanded_fft(marginals, grid, dtype=complex):
    """The product of one dx-scaled rfft per mode, inverted as convolve_fft does.

    The product accumulates in `dtype`.  In long double the reference's
    own rounding over N factors stays well below the 1e-15 under test.
    """
    count = grid.count
    M = 2 * count
    spec = np.ones(M // 2 + 1, dtype=dtype)
    for m in marginals:
        g = np.zeros(M)
        g[M // 2 - count // 2: M // 2 + count // 2] = np.interp(grid.xs, m.grid.xs, m.values,
                                                                 left=0.0, right=0.0)
        spec *= np.fft.rfft(np.fft.ifftshift(g)) * grid.dx
    out = np.fft.irfft(spec.astype(complex), n=M)
    out = np.fft.fftshift(out)[M // 2 - count // 2: M // 2 + count // 2]
    out = np.clip(out / grid.dx, 0.0, None)
    return out / np.trapezoid(out, dx=grid.dx)


# (mode, frame direction) pairs with mu^2 + nu^2 = 1
MODE_POOL = (
    (Fock(0), (1.0, 0.0)), (Fock(1), (0.6, 0.8)), (Fock(3), (0.0, 1.0)),
    (CoherentEven(1 + 0.5j), (1.0, 0.0)), (CoherentOdd(0.8), (0.6, 0.8)), (CoherentEven(1.5), (0.0, 1.0)),
)


class TestMultiplicities:
    """Repeated modes enter the FFT and CF products once, raised to their count."""

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(counts=st.dictionaries(st.integers(0, len(MODE_POOL) - 1), st.integers(1, 64),
                                  min_size=1, max_size=3),
           order=st.randoms(use_true_random=False))
    def test_count_form_equals_expanded_product(self, counts, order):
        picks = [i for i, c in counts.items() for _ in range(c)]
        order.shuffle(picks)
        sys = SystemSpec(modes=tuple(MODE_POOL[i][0] for i in picks), hbar=1.0)
        frame = FrameSpec(mu=tuple(MODE_POOL[i][1][0] for i in picks),
                          nu=tuple(MODE_POOL[i][1][1] for i in picks), r=0.5, R=2.0)
        marg = marginals_for_system(sys, frame)
        grid = common_grid(marg)
        want = expanded_fft(marg, grid, dtype=np.clongdouble)
        got = convolve_fft(marg, grid=grid).values
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(want)

    def test_distinct_modes_bit_for_bit(self):
        # every count is 1: the spectra multiply in as they are
        marg = marginals_for_system(MIXED_SYS, MIXED_FRAME)
        grid = common_grid(marg)
        assert convolve_fft(marg, grid=grid).values.tobytes() == expanded_fft(marg, grid).tobytes()

    def test_one_rfft_per_distinct_marginal(self, monkeypatch):
        sys = SystemSpec(modes=(Fock(1), CoherentEven(1 + 0.5j)) * 5 + (Fock(1),), hbar=0.5)
        frame = FrameSpec(mu=(1.0,) * 10 + (0.6,), nu=(0.0,) * 10 + (0.8,), r=0.5, R=2.0)
        marg = marginals_for_system(sys, frame)
        lengths = []
        original = np.fft.rfft

        def counting(a, *args, **kwargs):
            lengths.append(len(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(convolution.np.fft, "rfft", counting)
        cm = convolve_fft(marg)
        assert lengths == [2 * cm.grid.count] * 3

    def test_common_grid_weights_moments_by_count(self):
        sys, frame = iid_system(Fock(2), 37, hbar=0.3)
        marg = marginals_for_system(sys, frame)
        one = moments(marg[0])
        half = abs(37 * one.mean) + 8.0 * math.sqrt(37 * one.var)
        assert common_grid(marg) == centered_grid(half, marg[0].grid.dx)

    def test_cf_count_form_equals_expanded_product(self):
        sys = SystemSpec(modes=(Fock(1), CoherentEven(1 + 0.5j)) * 6, hbar=0.5)
        frame = FrameSpec(mu=(1.0,) * 12, nu=(0.0,) * 12, r=0.5, R=2.0)
        marg = marginals_for_system(sys, frame)
        grid = common_grid(marg)
        k_grid = cf_grid_for(marg, grid)
        total = np.ones(k_grid.count)
        for m in marg:
            total *= mode_cf(m, k_grid.xs)
        want = _phase_sum(k_grid, total * trapezoid_weights(k_grid), grid.xs, -1.0).real
        want = np.clip(want / (2.0 * math.pi), 0.0, None)
        want /= np.trapezoid(want, dx=grid.dx)
        np.testing.assert_allclose(cf_product(marg, grid=grid).values, want, rtol=0, atol=1e-12)


def dx_spectrum(m, grid):
    """One marginal's dx-scaled rfft, as convolve_fft forms it."""
    count = grid.count
    M = 2 * count
    g = np.zeros(M)
    g[M // 2 - count // 2: M // 2 + count // 2] = np.interp(grid.xs, m.grid.xs, m.values, left=0.0, right=0.0)
    return np.fft.rfft(np.fft.ifftshift(g)) * grid.dx


def polar_power(f, count):
    """f**count in double-precision polar form over every entry."""
    phase = count * np.angle(f)
    mag = np.abs(f) ** count
    out = np.empty_like(f)
    out.real = mag * np.cos(phase)
    out.imag = mag * np.sin(phase)
    return out


def long_double_power(f, count):
    """f**count in long-double polar form."""
    fl = f.astype(np.clongdouble)
    mag = np.abs(fl) ** count
    phase = count * np.angle(fl)
    return mag * np.cos(phase) + 1j * (mag * np.sin(phase))


def spectrum_density(spec, grid):
    """convolve_fft's inverse of a product spectrum: clamped at 0, unit integral."""
    count = grid.count
    M = 2 * count
    out = np.fft.irfft(spec.astype(complex), n=M)
    out = np.fft.fftshift(out)[M // 2 - count // 2: M // 2 + count // 2]
    out = np.clip(out / grid.dx, 0.0, None)
    return out / np.trapezoid(out, dx=grid.dx)


def multiset_marginals(groups, hbar):
    """Marginals of (mode, (mu, nu), count) groups, each mode repeated count times."""
    picks = [(mode, frame) for mode, frame, count in groups for _ in range(count)]
    sys = SystemSpec(modes=tuple(mode for mode, _ in picks), hbar=hbar)
    frame = FrameSpec(mu=tuple(f[0] for _, f in picks), nu=tuple(f[1] for _, f in picks), r=0.5, R=2.0)
    return marginals_for_system(sys, frame)


# counts far past the hypothesis test's 64
FAR_COUNTS = {
    "fock1-x4096": ((Fock(1), (1.0, 0.0), 4096),),
    "even-x1000": ((CoherentEven(1 + 0.5j), (1.0, 0.0), 1000),),
    "mixed": ((Fock(1), (0.6, 0.8), 700), (CoherentEven(1 + 0.5j), (1.0, 0.0), 300),
              (CoherentOdd(0.8), (0.0, 1.0), 3), (Fock(3), (0.0, 1.0), 2)),
}
_TINY = np.finfo(float).tiny


class TestGatedPower:
    """_raise_to keeps the polar form where |f| >= 1/2 and powers the rest by squaring."""

    @pytest.mark.parametrize("name", sorted(FAR_COUNTS))
    def test_far_counts_match_long_double_polar(self, name):
        marg = multiset_marginals(FAR_COUNTS[name], hbar=0.5)
        grid = common_grid(marg)
        spec = np.ones(grid.count + 1, dtype=np.clongdouble)
        for m, count in _distinct(marg):
            f = dx_spectrum(m, grid)
            want = long_double_power(f, count)
            got = _raise_to(f.copy(), count)
            big = np.abs(f) >= 0.5
            assert got[big].tobytes() == polar_power(f, count)[big].tobytes()
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
            # entries below 1/2 whose power would underflow are set to 0
            assert np.all(got[~big & (np.abs(f) < _TINY ** (1.0 / count))] == 0)
            spec *= want
        want = spectrum_density(spec, grid)
        got = convolve_fft(marg, grid=grid).values
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(want)

    @pytest.mark.parametrize("count", [2, 3])
    def test_spectrum_straddling_the_cut(self, count):
        # the fringes of a cat across the frame carry its spectrum above and
        # below |f| = 1/2 several times
        marg = multiset_marginals(((CoherentEven(1.5), (0.0, 1.0), count),), hbar=1.0)
        grid = common_grid(marg)
        f = dx_spectrum(marg[0], grid)
        mod = np.abs(f)
        big = mod >= 0.5
        squared = ~big & (mod >= _TINY ** (1.0 / count))
        assert np.count_nonzero(big) >= 10 and np.count_nonzero(squared & (mod > 0.1)) >= 10
        got = _raise_to(f.copy(), count)
        assert got[big].tobytes() == polar_power(f, count)[big].tobytes()
        direct = f * f if count == 2 else f * f * f
        assert got[squared].tobytes() == direct[squared].tobytes()
        assert np.all(got[~big & ~squared] == 0)
        want = long_double_power(f, count)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_real_factors_use_plain_power(self):
        k = np.linspace(0.0, 6.0, 101)
        f = char_function(Fock(2), 1.0, 0.0, 1.0, k)
        assert _raise_to(f.copy(), 7).tobytes() == (f ** 7).tobytes()


class TestCfProduct:
    def test_vacuum_cf_closed_form(self):
        ks = np.linspace(-8, 8, 161)
        got = char_function(Fock(0), 1.0, 0.0, 1.0, ks)
        np.testing.assert_allclose(got, np.exp(-ks ** 2 / 4), atol=1e-8)

    def test_fock1_cf_closed_form(self):
        # symbolic integration of 2 y^2 e^{-y^2}/sqrt(pi) against e^{iky}
        ks = np.linspace(-8, 8, 161)
        got = char_function(Fock(1), 1.0, 0.0, 1.0, ks)
        want = (1 - ks ** 2 / 2) * np.exp(-ks ** 2 / 4)
        np.testing.assert_allclose(got, want, atol=1e-7)

    def test_char_function_matches_direct_sum_off_lattice(self):
        ks = np.linspace(-8, 8, 161)
        for m in marginals_for_system(MIXED_SYS, MIXED_FRAME):
            want = direct_phase_sum(m.grid.xs, m.values * trapezoid_weights(m.grid), ks, 1.0)
            np.testing.assert_allclose(mode_cf(m, ks), want, rtol=0, atol=1e-12)

    def test_matches_per_entry_reference_inverse(self):
        marg = marginals_for_system(MIXED_SYS, MIXED_FRAME)
        grid = common_grid(marg)
        k_grid = cf_grid_for(marg, grid)
        ks = k_grid.xs
        total = np.ones(k_grid.count, dtype=complex)
        for m in marg:
            total *= direct_phase_sum(m.grid.xs, m.values * trapezoid_weights(m.grid), ks, 1.0)
        want = direct_phase_sum(ks, total * trapezoid_weights(k_grid), grid.xs, -1.0).real
        want = np.clip(want / (2.0 * math.pi), 0.0, None)
        want /= np.trapezoid(want, dx=grid.dx)
        np.testing.assert_allclose(cf_product(marg, grid=grid).values, want, rtol=0, atol=1e-12)

    def test_one_forward_transform_per_distinct_marginal(self, monkeypatch):
        sys, frame = iid_system(CoherentEven(1 + 0.5j), 4, hbar=0.7)
        marg = marginals_for_system(sys, frame)
        k_grid = cf_grid_for(marg, common_grid(marg))
        monkeypatch.setattr(convolution, "cf_grid_for", lambda marginals, out_grid: k_grid)
        seen = []

        def counting(mode, mu, nu, hbar, k):
            seen.append(mode)
            return char_function(mode, mu, nu, hbar, k)

        monkeypatch.setattr(convolution, "char_function", counting)
        cf_product(marg)
        assert len(seen) == 1 and seen[0] is marg[0].meta["mode"]

    def test_matches_fft_three_modes(self):
        sys = SystemSpec(modes=(Fock(0), Fock(1), Fock(2)), hbar=1.0)
        frame = FrameSpec(mu=(1.0,) * 3, nu=(0.0,) * 3, r=0.5, R=2.0)
        marg = marginals_for_system(sys, frame)
        cm = convolve_fft(marg)
        cf = cf_product(marg, grid=cm.grid)
        tv = 0.5 * np.trapezoid(np.abs(cm.values - cf.values), dx=cm.grid.dx)
        assert tv < 1e-6

    def test_matches_fft_mixed_modes(self):
        marg = marginals_for_system(MIXED_SYS, MIXED_FRAME)
        cm = convolve_fft(marg)
        cf = cf_product(marg, grid=cm.grid)
        tv = 0.5 * np.trapezoid(np.abs(cm.values - cf.values), dx=cm.grid.dx)
        assert tv < 1e-6


CF_FRAMES = ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8))
CF_MODES = tuple(Fock(n) for n in (0, 1, 5, 30, 1000)) + tuple(
    kind(a) for a in (0.5, 1 + 0.5j, 3 + 4j, 5.0, 40.0) for kind in (CoherentEven, CoherentOdd))


class TestCharFunction:
    """The closed-form characteristic functions against quadrature of the densities."""

    @pytest.mark.parametrize("hbar", [1.0, 0.3])
    @pytest.mark.parametrize("mu,nu", CF_FRAMES)
    # the small odd cats pin the odd form, whose terms would otherwise cancel
    # to O(|alpha|^2) and lose eps/|alpha|^2
    @pytest.mark.parametrize("mode", CF_MODES + (CoherentOdd(1e-5), CoherentOdd(1e-3 * (0.6 + 0.8j))), ids=repr)
    def test_matches_trapezoid_direct_sum(self, mode, mu, nu, hbar):
        # the density on a grid reaching 10 s past its farthest bump, at the
        # policy spacing; the trapezoid sum of a smooth density that small at
        # its ends is exact to rounding for every k well below pi/dx
        s = math.sqrt(hbar * (mu * mu + nu * nu))
        if isinstance(mode, Fock):
            reach = math.sqrt(2.0 * mode.n + 1.0)
        else:
            reach = math.sqrt(2.0) * abs(mode.alpha)
        grid = centered_grid((reach + 10.0) * s, grid_policy(mode, mu, nu, hbar)[1])
        if isinstance(mode, Fock):
            values = fock_tomogram(mode.n, mu, nu, hbar, grid.xs)
        else:
            values = evenodd_pointwise(mode.alpha, mode.parity, mu, nu, hbar, grid.xs)
        k_max = (2.0 * reach + 13.0) / s
        # the shift puts a node near k = 0, where a plain Laguerre
        # recurrence loses n^2 eps
        ks = np.linspace(-k_max, k_max, 33) + 0.0123 / s
        want = direct_phase_sum(grid.xs, values * trapezoid_weights(grid), ks, 1.0)
        got = char_function(mode, mu, nu, hbar, ks)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("hbar", [1.0, 0.3])
    def test_fock_1000_bounded_far_out(self, hbar):
        s = math.sqrt(hbar)
        ks = np.linspace(0.0, 200.0 / s, 4001)
        got = char_function(Fock(1000), 1.0, 0.0, hbar, ks)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got)) <= 1.0 + 1e-12
        assert got[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mu,nu", CF_FRAMES)
    @pytest.mark.parametrize("mode", CF_MODES + (CoherentOdd(0.05), CoherentOdd(0.3), Fock(200)), ids=repr)
    def test_below_floor_past_reach(self, mode, mu, nu):
        reach = char_function_reach(mode, mu, nu, 0.3, 1e-17)
        s = math.sqrt(0.3 * (mu * mu + nu * nu))
        ks = reach + np.linspace(0.0, 40.0 / s, 8001)
        assert np.max(np.abs(char_function(mode, mu, nu, 0.3, ks))) < 1e-17


def far_k(system):
    """A k past the farthest bump of every mode's characteristic function."""
    sys, frame = system
    out = 0.0
    for mode, mu, nu in zip(sys.modes, frame.mu, frame.nu):
        r = math.sqrt(2.0 * mode.n + 1.0) if isinstance(mode, Fock) else math.sqrt(2.0) * abs(mode.alpha)
        out = max(out, (2.0 * r + 20.0) / math.sqrt(sys.hbar * (mu * mu + nu * nu)))
    return out


FIXED_ENERGY_MODES = [Fock(1), CoherentEven(1.0)]


class TestCfAtScale:
    """Backend two at the paper's large N, its k-grid cut and its independence."""

    @pytest.mark.parametrize("mode", FIXED_ENERGY_MODES, ids=repr)
    def test_fixed_energy_65536_modes(self, mode):
        N = 65536
        sys, frame = iid_system(mode, N, hbar=hbar_for_fixed_energy(10.0, [mode] * N))
        marg = marginals_for_system(sys, frame)
        cm = convolve_fft(marg)
        cf = cf_product(marg, grid=cm.grid)
        assert 0.5 * np.trapezoid(np.abs(cm.values - cf.values), dx=cm.grid.dx) < 1e-6

    @pytest.mark.parametrize("system", [
        iid_system(Fock(1), 65536, hbar=10.0 / (1.5 * 65536)),
        iid_system(CoherentEven(1.0), 4096, hbar=0.01),
        iid_system(Fock(30), 1),
        iid_system(CoherentOdd(40.0), 1, mu=0.6, nu=0.8),
        iid_system(CoherentOdd(40.0), 1, mu=0.0, nu=1.0),
        iid_system(CoherentEven(40.0), 2, mu=0.0, nu=1.0),
        (MIXED_SYS, MIXED_FRAME),
    ], ids=["fock1x65536", "even1x4096", "fock30", "odd40", "odd40-p", "even40x2-p", "mixed"])
    def test_product_below_floor_at_outer_nodes(self, system):
        marg = marginals_for_system(*system)
        k_grid = cf_grid_for(marg, common_grid(marg))
        groups = _distinct(marg)
        product = _cf_product_at(groups, k_grid.xs)
        assert abs(product[0]) < 1e-17 and abs(product[-1]) < 1e-17
        # and the cut is tight: a grid half as long would drop nodes at or
        # above the floor
        assert np.max(np.abs(product[3 * k_grid.count // 4 - 1:])) >= 1e-17
        # no lattice node past the grid, out beyond every bump, reaches it
        beyond = k_grid.dx * np.arange(k_grid.count // 2, int(far_k(system) / k_grid.dx) + 1)
        assert np.all(np.abs(_cf_product_at(groups, beyond)) < 1e-17)

    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("mode", [CoherentEven(40.0), CoherentOdd(40.0)], ids=repr)
    def test_large_cat_fringes_across_the_frame(self, mode, N):
        # at frame (0, 1) the cat's cross-term bump sits at k = 2 sqrt(2) 40,
        # far past where the diagonal term has fallen below the floor; the
        # fringes it encodes must survive the cut
        marg = marginals_for_system(*iid_system(mode, N, mu=0.0, nu=1.0))
        cm = convolve_fft(marg)
        cf = cf_product(marg, grid=cm.grid)
        assert 0.5 * np.trapezoid(np.abs(cm.values - cf.values), dx=cm.grid.dx) < 1e-6

    def test_shares_no_fft_with_backend_one(self, monkeypatch):
        marg = marginals_for_system(MIXED_SYS, MIXED_FRAME)
        grid = common_grid(marg)
        want = cf_product(marg, grid=grid).values

        class NoFft:
            def __getattr__(self, name):
                raise AssertionError(f"backend two called np.fft.{name}")

        monkeypatch.setattr(convolution.np, "fft", NoFft())
        assert cf_product(marg, grid=grid).values.tobytes() == want.tobytes()

    def test_marginal_without_mode_rejected(self):
        m = fock_marginal(1, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="mode"):
            cf_product([m])


class TestSampleSum:
    def test_deterministic_for_fixed_seed(self):
        sys, frame = iid_system(Fock(1), 3)
        a = sample_sum(sys, frame, 5000, seed=123)
        b = sample_sum(sys, frame, 5000, seed=123)
        assert a.tobytes() == b.tobytes()

    def test_seed_changes_stream(self):
        sys, frame = iid_system(Fock(1), 3)
        a = sample_sum(sys, frame, 5000, seed=123)
        b = sample_sum(sys, frame, 5000, seed=124)
        assert a.tobytes() != b.tobytes()

    def test_vacuum_variance(self):
        sys, frame = iid_system(Fock(0), 1)
        s = sample_sum(sys, frame, 10 ** 6, seed=7)
        assert s.var() == pytest.approx(0.5, abs=2e-3)
        assert s.mean() == pytest.approx(0.0, abs=2e-3)

    def test_ks_against_fft_cdf(self):
        sys = SystemSpec(modes=(Fock(0), Fock(1), Fock(2)), hbar=1.0)
        frame = FrameSpec(mu=(1.0,) * 3, nu=(0.0,) * 3, r=0.5, R=2.0)
        marg = marginals_for_system(sys, frame)
        cm = convolve_fft(marg)
        samples = np.sort(sample_sum(sys, frame, 10 ** 6, seed=99, marginals=marg))
        cdf = cumulative_trapezoid(cm.values, cm.grid.dx)
        cdf /= cdf[-1]
        emp = np.searchsorted(samples, cm.grid.xs, side="right") / len(samples)
        ks = float(np.max(np.abs(emp - cdf)))
        assert ks < 0.005

    def test_cat_modes_sampleable(self):
        sys = SystemSpec(modes=(CoherentEven(1.5), CoherentOdd(1.0)), hbar=1.0)
        frame = FrameSpec(mu=(0.0, 1.0), nu=(1.0, 0.0), r=0.5, R=2.0)
        marg = marginals_for_system(sys, frame)
        s = sample_sum(sys, frame, 200000, seed=5, marginals=marg)
        want = sum(moments(m).var for m in marg)
        assert s.var() == pytest.approx(want, rel=0.02)


class TestInverseCdf:
    # 16 nodes: a leading flat run at 0 ending in a subnormal step (its
    # slope overflows), a flat run at a guide bucket edge, four nodes and
    # another flat run inside the bucket [0.25, 0.3125), so the binary
    # search fallback runs there, and a trailing flat run at 1
    CDF = np.array([0.0, 0.0, 0.0, 5e-324, 0.1, 0.25, 0.25, 0.26,
                    0.27, 0.27, 0.29, 0.6, 0.9, 1.0, 1.0, 1.0])
    XS = -2.0 + 0.25 * np.arange(16)

    def test_matches_interp_bit_for_bit(self):
        nodes = self.CDF[self.CDF < 1.0]
        u = np.concatenate([
            [0.0, 5e-324, 0.295, 1.0 - 2.0 ** -53],
            nodes,                                    # u equal to node values
            np.nextafter(nodes[1:], 0.0),             # just below them
            np.arange(16) / 16.0,                     # guide bucket edges
            np.random.default_rng(0).random(100_000),
        ])
        got = _inverse_cdf(self.CDF, self.XS)(u)
        want = np.interp(u, self.CDF, self.XS)
        assert got.tobytes() == want.tobytes()

    def test_sample_sum_matches_per_mode_interp(self):
        sys = SystemSpec(modes=(Fock(3), CoherentEven(1 + 0.5j), Fock(3), CoherentOdd(0.8),
                                CoherentEven(1 + 0.5j)), hbar=0.7)
        frame = FrameSpec(mu=(0.6, 1.0, 0.6, 0.0, 1.0), nu=(0.8, 0.0, 0.8, 1.0, 0.0), r=0.5, R=2.0)
        marg = marginals_for_system(sys, frame)
        n = 3 * 2 ** 16 + 5                           # a partial last chunk
        want = np.zeros(n)
        for i, m in enumerate(marg):
            cdf = cumulative_trapezoid(m.values, m.grid.dx)
            cdf /= cdf[-1]
            want += np.interp(_mode_stream(11, i).random(n), cdf, m.grid.xs)
        got = sample_sum(sys, frame, n, seed=11, marginals=marg)
        assert got.tobytes() == want.tobytes()

    def test_one_table_per_distinct_marginal(self, monkeypatch):
        sys, frame = iid_system(CoherentEven(1 + 0.5j), 4, hbar=0.7)
        marg = marginals_for_system(sys, frame)
        seen = []
        original = convolution._inverse_cdf

        def counting(cdf, xs):
            seen.append(xs)
            return original(cdf, xs)

        monkeypatch.setattr(convolution, "_inverse_cdf", counting)
        sample_sum(sys, frame, 1000, seed=1, marginals=marg)
        assert len(seen) == 1


class TestBackendAgreement:
    def setup_method(self):
        sys, frame = iid_system(Fock(1), 2)
        marg = marginals_for_system(sys, frame)
        self.cm = convolve_fft(marg)
        self.samples = sample_sum(sys, frame, 200000, seed=3, marginals=marg)

    def test_identical_densities(self):
        agree = backend_agreement(self.cm, self.cm, self.samples)
        assert agree["tv_fft_cf"] == 0.0
        assert agree["ks_fft_mc"] < 0.005
        assert agree["tv_fft_mc"] < 0.01

    def test_shifted_cf_density_detected(self):
        grid = self.cm.grid
        shifted = np.roll(self.cm.values, 1)
        shifted /= np.trapezoid(shifted, dx=grid.dx)
        cf = CenterOfMassDensity(grid=grid, values=shifted)
        assert backend_agreement(self.cm, cf, self.samples)["tv_fft_cf"] > 1e-6

    def test_bin_counts_match_histogram(self):
        edges = np.linspace(-3.0, 3.0, 97)
        samples = np.concatenate([
            np.random.default_rng(4).normal(size=50_000) * 1.5,
            edges, edges[[0, -1, -1]], [-7.0, 7.0],   # on every edge, twice at the ends
        ])
        want, _ = np.histogram(samples, bins=edges)
        got = _bin_counts(np.sort(samples), edges)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(_bin_counts(np.sort(samples), edges[::16]),
                                      np.histogram(samples, bins=edges[::16])[0])

    def test_density_mc_is_cell_histogram(self):
        xs, dx = self.cm.grid.xs, self.cm.grid.dx
        edges = np.concatenate([xs - 0.5 * dx, [xs[-1] + 0.5 * dx]])
        want = np.histogram(self.samples, bins=edges)[0] / (len(self.samples) * dx)
        got = backend_agreement(self.cm, self.cm, self.samples)["density_mc"]
        assert got.tobytes() == want.tobytes()

    def test_cumulative_trapezoid(self):
        np.testing.assert_allclose(cumulative_trapezoid(np.array([1.0, 3.0, 5.0]), 0.5), [0.0, 1.0, 3.0])
