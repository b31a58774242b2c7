import copy
import math
import threading
import tracemalloc
from collections import Counter
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtomo import convolution
from cmtomo.clt import per_mode_moments, summed_density
from cmtomo.convolution import (
    MC_SAMPLES_MAX,
    _cf_product_at,
    _inverse_cdf,
    _mode_stream,
    _raise_to,
    backend_agreement,
    cf_grid_for,
    cf_product,
    common_grid,
    convolve_cycled,
    convolve_fft,
    cumulative_trapezoid,
    marginals_for_system,
    sample_sum,
)
from cmtomo.errors import GridSizeError, NumericalError
from cmtomo.marginals import (
    Grid,
    MarginalDensity,
    centered_grid,
    char_function,
    char_function_reach,
    grid_policy,
    marginal_density,
    moments,
    tomogram,
    variance,
)
from cmtomo.states import (FOCK_LEVEL_MAX, N_MAX, CoherentEven, CoherentOdd, Fock, ModeGroup, SystemSpec, energy,
                           hbar_for_fixed_energy, mode_mean_occupation)


def iid_system(mode, N, hbar=1.0, mu=1.0, nu=0.0):
    """N copies of mode, each measured along mu x + nu p."""
    return SystemSpec((ModeGroup(mode, mu, nu, N),), hbar)


def system(modes, hbar, mu=None, nu=None):
    """A system of modes, on the frames mu, nu (default: each along x)."""
    return SystemSpec.from_modes(modes, mu or [1.0] * len(modes), nu or [0.0] * len(modes), hbar)


def fft_of(sys):
    return convolve_fft(marginals_for_system(sys), sys.counts)


def expand(marginals, counts):
    """Each marginal repeated its count times: one entry per mode, in group order."""
    return [m for m, count in zip(marginals, counts) for _ in range(count)]


def interp_draws(sys, marg, n, seed):
    """n sums of one serial np.interp inverse-CDF stream per mode, in group order."""
    want = np.zeros(n)
    for i, m in enumerate(expand(marg, sys.counts)):
        cdf = cumulative_trapezoid(m.values, m.grid.dx)
        cdf /= cdf[-1]
        want += np.interp(_mode_stream(seed, i).random(n), cdf, m.grid.xs)
    return want


def assert_counts_of(got, draws):
    """got holds exactly the counts of draws on got.grid: #{s <= x_j} and
    #{s < x_j} at the nodes, and np.histogram over the cells around them."""
    xs, dx = got.grid.xs, got.grid.dx
    ordered = np.sort(draws)
    assert len(got) == len(draws)
    assert got.at_or_below.dtype == got.below.dtype == got.cells.dtype == np.int64
    np.testing.assert_array_equal(got.at_or_below, np.searchsorted(ordered, xs, side="right"))
    np.testing.assert_array_equal(got.below, np.searchsorted(ordered, xs, side="left"))
    edges = np.concatenate([xs - 0.5 * dx, [xs[-1] + 0.5 * dx]])
    np.testing.assert_array_equal(got.cells, np.histogram(draws, bins=edges)[0])


def table_draws(monkeypatch, table, n, seed):
    """Make a one-mode system draw u-th entries of table; return the n
    draws that the stream of seed gives."""
    monkeypatch.setattr(convolution, "_inverse_cdf",
                        lambda cdf, nodes: lambda u: table[(u * table.size).astype(np.intp)])
    return table[(_mode_stream(seed, 0).random(n) * table.size).astype(np.intp)]


def grid_point_draws(monkeypatch, grid, n, seed):
    """table_draws from the grid's nodes and cell edges (the outer edges
    twice), two points outside the grid and normal values."""
    xs, dx = grid.xs, grid.dx
    edges = np.concatenate([xs - 0.5 * dx, [xs[-1] + 0.5 * dx]])
    table = np.concatenate([xs, edges, edges[[0, -1, -1]], [xs[0] - 1.0, xs[-1] + 1.0],
                            np.random.default_rng(4).normal(size=5000)])
    return table_draws(monkeypatch, table, n, seed)


def use_grid(monkeypatch, grid):
    """Make every backend invert or count onto grid, not common_grid's."""
    monkeypatch.setattr(convolution, "common_grid", lambda marginals, counts: grid)


def cell_moments(got):
    """Mean and variance of the draws binned to the grid nodes (every draw
    must lie in a cell); binning adds about dx^2 / 12 to the variance."""
    assert got.cells.sum() == len(got)
    p = got.cells / len(got)
    xs = got.grid.xs
    mean = float(p @ xs)
    return mean, float(p @ (xs - mean) ** 2)


MIXED_SYS = system((Fock(1), CoherentEven(1 + 0.5j), CoherentOdd(0.8), Fock(0)), 0.7,
                   [1.0, 0.6, 0.0, -0.8], [0.0, 0.8, 1.0, 0.6])


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
    step = max(1, 2 ** 20 // len(xs))
    return np.concatenate([np.exp(sign * 1j * np.outer(a[i:i + step], xs)) @ v
                           for i in range(0, len(a), step)])


class TestConvolveFft:
    def test_two_vacua_gaussian(self):
        cm = fft_of(iid_system(Fock(0), 2))
        got = float(np.interp(0.0, cm.grid.xs, cm.values))
        assert got == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-6)
        assert moments(cm).var == pytest.approx(1.0, rel=1e-9)

    def test_single_marginal_identity(self):
        (m,) = marginals_for_system(iid_system(Fock(1), 1))
        cm = convolve_fft([m], [1])
        back = np.interp(m.grid.xs, cm.grid.xs, cm.values)
        np.testing.assert_allclose(back, m.values, atol=1e-9)

    def test_three_mode_variance(self):
        cm = fft_of(system((Fock(0), Fock(1), Fock(2)), 1.0))
        assert moments(cm).var == pytest.approx(4.5, rel=1e-6)

    @pytest.mark.parametrize("N", [1, 2, 8, 64])
    def test_variance_additivity(self, N):
        sys = iid_system(Fock(1), N, hbar=2.0 / N)
        marg = marginals_for_system(sys)
        cm = convolve_fft(marg, sys.counts)
        want = N * moments(marg[0]).var
        assert moments(cm).var == pytest.approx(want, rel=1e-6)
        assert abs(moments(cm).mean) < 1e-8

    def test_mixed_modes_variance_additivity(self):
        marg = marginals_for_system(MIXED_SYS)
        cm = convolve_fft(marg, MIXED_SYS.counts)
        want = sum(moments(m).var for m in marg)
        assert moments(cm).var == pytest.approx(want, rel=1e-6)
        assert cm.meta["clamped_mass"] < 1e-9

    def test_homogeneity_of_sum_density(self):
        lam = 2.0
        cm1 = fft_of(system((Fock(1), Fock(2)), 1.0, [1.0, 0.6], [0.0, 0.8]))
        cm2 = fft_of(system((Fock(1), Fock(2)), 1.0, [lam, lam * 0.6], [0.0, lam * 0.8]))
        probe = np.linspace(-4, 4, 201)
        v1 = np.interp(probe, cm1.grid.xs, cm1.values)
        v2 = np.interp(lam * probe, cm2.grid.xs, cm2.values)
        np.testing.assert_allclose(v2, v1 / lam, atol=1e-6)

    def test_grid_cap(self, monkeypatch):
        sys = iid_system(Fock(0), 2)
        marg = marginals_for_system(sys)
        # the cap is read at call time: the grid needs 2048 nodes
        monkeypatch.setattr("cmtomo.marginals._MAX_GRID", 2048)
        assert common_grid(marg, sys.counts).count == 2048
        monkeypatch.setattr("cmtomo.marginals._MAX_GRID", 1024)
        with pytest.raises(GridSizeError, match="more than 1024 points"):
            common_grid(marg, sys.counts)


def expanded_fft(marginals, grid, dtype=float):
    """The product of one dx-scaled real spectrum per entry of marginals,
    one per mode, inverted as convolve_fft does.

    The product accumulates in `dtype`.  In long double the reference's
    own rounding over N factors stays well below the 1e-15 under test.
    """
    spec = np.ones(grid.count // 2 + 1, dtype=dtype)
    for m in marginals:
        spec *= dx_spectrum(m, grid)
    return spectrum_density(spec, grid)


# (mode, frame direction) pairs with mu^2 + nu^2 = 1
MODE_POOL = (
    (Fock(0), (1.0, 0.0)), (Fock(1), (0.6, 0.8)), (Fock(3), (0.0, 1.0)),
    (CoherentEven(1 + 0.5j), (1.0, 0.0)), (CoherentOdd(0.8), (0.6, 0.8)), (CoherentEven(1.5), (0.0, 1.0)),
)


MULTISETS = st.dictionaries(st.integers(0, len(MODE_POOL) - 1), st.integers(1, 64), min_size=1, max_size=3)


def shuffled_picks(counts, order):
    """counts[i] copies of MODE_POOL[i] in a shuffled order, so equal modes interleave."""
    picks = [MODE_POOL[i] for i, count in counts.items() for _ in range(count)]
    order.shuffle(picks)
    return picks


def picks_system(picks, hbar):
    return system(tuple(mode for mode, _ in picks), hbar, [f[0] for _, f in picks], [f[1] for _, f in picks])


def per_pick(picks, sys, values):
    """values[g] of each pick's group g: one entry per mode, in pick order."""
    index = {(g.mode, (g.mu, g.nu)): i for i, g in enumerate(sys.groups)}
    return [values[index[pick]] for pick in picks]


class TestMultiplicities:
    """A system is a multiset of groups: every layer's group form equals its
    per-mode form over the shuffled, interleaved modes."""

    @settings(max_examples=15)
    @given(counts=MULTISETS, order=st.randoms(use_true_random=False))
    def test_from_modes_holds_the_multiset(self, counts, order):
        picks = shuffled_picks(counts, order)
        sys = picks_system(picks, hbar=1.0)
        assert [(g.mode, (g.mu, g.nu)) for g in sys.groups] == list(dict.fromkeys(picks))
        assert Counter(picks) == {(g.mode, (g.mu, g.nu)): g.count for g in sys.groups}
        assert sys.n_modes == len(picks)

    @settings(max_examples=15)
    @given(counts=MULTISETS, order=st.randoms(use_true_random=False))
    def test_count_form_equals_expanded_product(self, counts, order):
        picks = shuffled_picks(counts, order)
        sys = picks_system(picks, hbar=1.0)
        marg = marginals_for_system(sys)
        grid = common_grid(marg, sys.counts)
        modes = per_pick(picks, sys, marg)
        want = expanded_fft(modes, grid, dtype=np.longdouble)
        got = convolve_fft(marg, sys.counts).values
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(want)
        # backend two: one closed-form characteristic function per mode on the lattice
        ks = cf_grid_for(grid).dx * np.arange(grid.count // 2 + 1)
        spec = np.ones(grid.count // 2 + 1)
        for m in modes:
            spec *= mode_cf(m, ks)
        want = spectrum_density(spec, grid)
        got = cf_product(marg, sys.counts).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)

    @settings(max_examples=15)
    @given(counts=MULTISETS, order=st.randoms(use_true_random=False))
    def test_moments_and_sums_equal_fsum_over_modes(self, counts, order):
        picks = shuffled_picks(counts, order)
        sys = picks_system(picks, hbar=0.7)
        marg = marginals_for_system(sys)
        pm = per_mode_moments(sys, marg)
        assert len(pm) == len(sys.groups)
        for g, m, got in zip(sys.groups, marg, pm):
            assert got.mean == 0.0
            assert got.var == variance(g.mode, g.mu, g.nu, sys.hbar)
            if not isinstance(g.mode, Fock):
                assert got.abs3 == moments(m).abs3
        modes = per_pick(picks, sys, pm)
        var = math.fsum(m.var for m in modes)
        _, sigma2, s_n, _ = summed_density(sys)
        assert sigma2 == pytest.approx(var, rel=1e-14, abs=0)
        assert s_n == pytest.approx(math.fsum(m.abs3 for m in modes) / var ** 1.5, rel=1e-14, abs=0)
        e = sys.hbar * math.fsum(0.5 + mode_mean_occupation(mode) for mode, _ in picks)
        assert energy(sys) == pytest.approx(e, rel=1e-14, abs=0)

    @settings(max_examples=15, deadline=None)
    @given(counts=MULTISETS, order=st.randoms(use_true_random=False))
    def test_sample_sum_draws_one_stream_per_mode_in_group_order(self, counts, order):
        sys = picks_system(shuffled_picks(counts, order), hbar=1.0)
        marg = marginals_for_system(sys)
        grid = common_grid(marg, sys.counts)
        n = 3000
        assert_counts_of(sample_sum(sys, n, 5, marg), interp_draws(sys, marg, n, 5))

    def test_distinct_modes_bit_for_bit(self):
        # every count is 1: the spectra multiply in as they are
        marg = marginals_for_system(MIXED_SYS)
        grid = common_grid(marg, MIXED_SYS.counts)
        got = convolve_fft(marg, MIXED_SYS.counts).values
        assert got.tobytes() == expanded_fft(marg, grid).tobytes()

    def test_one_rfft_per_distinct_marginal(self, monkeypatch):
        sys = system((Fock(1), CoherentEven(1 + 0.5j)) * 5 + (Fock(1),), 0.5, [1.0] * 10 + [0.6], [0.0] * 10 + [0.8])
        marg = marginals_for_system(sys)
        lengths = []
        original = np.fft.rfft

        def counting(a, *args, **kwargs):
            lengths.append(len(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(convolution.np.fft, "rfft", counting)
        cm = convolve_fft(marg, sys.counts)
        assert sys.counts == [5, 5, 1]
        assert lengths == [cm.grid.count] * 3

    def test_common_grid_weights_half_widths_by_count(self):
        # 37 copies widen the marginal's half-width by sqrt(37): 1024 nodes
        # become 8192, where counts added linearly would give 65,536
        sys = iid_system(Fock(2), 37, hbar=0.3)
        marg = marginals_for_system(sys)
        half, dx = grid_policy(Fock(2), 1.0, 0.0, 0.3)
        grid = common_grid(marg, sys.counts)
        assert marg[0].grid.count == 1024
        assert grid == centered_grid(math.sqrt(37) * half, dx)
        assert grid.count == 8192
        assert centered_grid(37 * half, dx).count == 65536

    def test_counts_must_match_marginals(self):
        marg = marginals_for_system(MIXED_SYS)
        for backend in (common_grid, convolve_fft, cf_product):
            with pytest.raises(ValueError):
                backend(marg, [1, 1])

    def test_cf_count_form_equals_expanded_product(self):
        sys = system((Fock(1), CoherentEven(1 + 0.5j)) * 6, 0.5)
        marg = marginals_for_system(sys)
        grid = common_grid(marg, sys.counts)
        k_grid = cf_grid_for(grid)
        total = np.ones(k_grid.count)
        for m in expand(marg, sys.counts):
            total *= mode_cf(m, k_grid.xs)
        want = direct_phase_sum(k_grid.xs, total * trapezoid_weights(k_grid), grid.xs, -1.0).real
        want = np.clip(want / (2.0 * math.pi), 0.0, None)
        want /= np.trapezoid(want, dx=grid.dx)
        np.testing.assert_allclose(cf_product(marg, sys.counts).values, want, rtol=0, atol=1e-12)


def dx_spectrum(m, grid):
    """One marginal's dx-scaled real spectrum of length count, as
    convolve_fft forms it: its values placed by index on the centred
    output nodes of its own spacing, the real part of their rfft."""
    g = np.zeros(grid.count)
    start = (grid.count - m.grid.count) // 2
    g[start:start + m.grid.count] = m.values
    return np.fft.rfft(np.fft.ifftshift(g)).real * grid.dx


def padded_dx_spectrum(m, grid):
    """One marginal's dx-scaled real spectrum zero-padded to 2 count: the
    same characteristic function on a lattice twice as fine."""
    count = grid.count
    g = np.zeros(2 * count)
    g[count // 2: 3 * count // 2] = np.interp(grid.xs, m.grid.xs, m.values, left=0.0, right=0.0)
    return np.fft.rfft(np.fft.ifftshift(g)).real * grid.dx


def subset_power(f, count):
    """f**count for real f as `_raise_to` defines it, computed on subsets:
    a plain power gathered where |f| >= 1/2, binary powering on a gathered
    copy of the entries from the underflow threshold to 1/2, and 0
    elsewhere."""
    mod = np.abs(f)
    big = np.flatnonzero(mod >= 0.5)
    small = np.flatnonzero((mod < 0.5) & (mod >= _TINY ** (1.0 / count)))
    g = f[small]
    base = g.copy()
    for bit in bin(count)[3:]:
        g *= g
        if bit == "1":
            g *= base
    out = np.zeros_like(f)
    out[small] = g
    out[big] = f[big] ** count
    return out


def padded_fft_spectrum(marginals, counts, grid):
    """Backend one's product spectrum periodized over twice the output
    extent: zero-padded rffts of length 2 count."""
    spec = np.ones(grid.count + 1)
    for m, count in zip(marginals, counts):
        f = padded_dx_spectrum(m, grid)
        spec *= f if count == 1 else subset_power(f, count)
    return spec


def padded_cf_spectrum(marginals, counts, grid):
    """Backend two's product on the lattice of twice the output extent,
    dk = 2 pi / (2 count dx), out to the smallest reach."""
    dk = math.pi / (grid.count * grid.dx)
    reach = min(char_function_reach(*convolution._mode_args(m), 1e-17) for m in marginals)
    ks = dk * np.arange(min(int(reach / dk) + 1, grid.count) + 1)
    spec = np.zeros(grid.count + 1)
    spec[:len(ks)] = np.prod([mode_cf(m, ks) ** count for m, count in zip(marginals, counts)], axis=0)
    return spec


def unit_density(values, grid):
    """values / dx clamped at 0 and scaled to unit integral."""
    out = np.clip(values / grid.dx, 0.0, None)
    return out / np.trapezoid(out, dx=grid.dx)


def padded_densities(spec, grid):
    """The sum of a 2 count product spectrum on the output grid: its
    centred count nodes (nothing folded back), and those nodes with the
    other half of the period added (the fold a count-length inverse makes)."""
    count = grid.count
    out = np.fft.irfft(spec, n=2 * count)
    kept = unit_density(np.fft.fftshift(out)[count // 2: 3 * count // 2], grid)
    folded = unit_density(np.fft.fftshift(out[:count] + out[count:]), grid)
    return kept, folded


def long_double_power(f, count):
    """f**count for real f, in long double."""
    return f.astype(np.longdouble) ** count


def spectrum_density(spec, grid):
    """convolve_fft's inverse of a product spectrum: clamped at 0, unit integral."""
    out = np.fft.fftshift(np.fft.irfft(spec.astype(complex), n=grid.count))
    out = np.clip(out / grid.dx, 0.0, None)
    return out / np.trapezoid(out, dx=grid.dx)


def multiset_system(groups, hbar):
    """The system of (mode, (mu, nu), count) groups."""
    return SystemSpec(tuple(ModeGroup(mode, *frame, count) for mode, frame, count in groups), hbar)


# counts far past the hypothesis test's 64
FAR_COUNTS = {
    "fock1-x4096": ((Fock(1), (1.0, 0.0), 4096),),
    "even-x1000": ((CoherentEven(1 + 0.5j), (1.0, 0.0), 1000),),
    "mixed": ((Fock(1), (0.6, 0.8), 700), (CoherentEven(1 + 0.5j), (1.0, 0.0), 300),
              (CoherentOdd(0.8), (0.0, 1.0), 3), (Fock(3), (0.0, 1.0), 2)),
}
_TINY = np.finfo(float).tiny


class TestClosedFormGrid:
    """The output grid is the marginals' own grid rule with the closed-form
    variances added: no grid moment decides it."""

    def test_half_widths_add_in_quadrature(self):
        marg = marginals_for_system(MIXED_SYS)
        halves = [grid_policy(g.mode, g.mu, g.nu, MIXED_SYS.hbar)[0] for g in MIXED_SYS.groups]
        half = math.sqrt(sum(count * h ** 2 for h, count in zip(halves, MIXED_SYS.counts)))
        assert common_grid(marg, MIXED_SYS.counts) == centered_grid(half, min(m.grid.dx for m in marg))

    def test_takes_no_grid_moment(self, monkeypatch):
        marg = marginals_for_system(MIXED_SYS)
        want = common_grid(marg, MIXED_SYS.counts)

        def boom(*args, **kwargs):
            raise AssertionError("common_grid took a grid moment")

        monkeypatch.setattr("cmtomo.marginals.moments", boom)
        monkeypatch.setattr(np, "trapezoid", boom)
        assert common_grid(marg, MIXED_SYS.counts) == want

    def test_needs_marginals_that_record_their_mode(self):
        m = marginals_for_system(iid_system(Fock(1), 1))[0]
        with pytest.raises(ValueError, match="meta"):
            common_grid([MarginalDensity(grid=m.grid, values=m.values)], [1])

    def test_no_knife_edge_on_random_frames(self):
        # N identical Fock-1 modes need exactly sqrt(N) times the marginal's
        # 1024 nodes: the closed forms land on the boundary exactly, on the
        # small side, where grid moments doubled the grid in 39-50% of
        # these cases
        thetas = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, 200)
        for N in (4, 16, 64, 256):
            for theta in thetas:
                for hbar in (1.0, 10.0 / (1.5 * N)):
                    sys = iid_system(Fock(1), N, hbar, math.cos(theta), math.sin(theta))
                    marg = marginals_for_system(sys)
                    assert marg[0].grid.count == 1024
                    assert common_grid(marg, sys.counts).count == 1024 * math.isqrt(N), (N, theta, hbar)

    def test_squeezed_cat_sum_spans_its_marginal(self):
        # the even cat's interference squeezes its variance below the
        # vacuum's; the one-mode sum still spans the marginal's whole grid
        m = marginal_density(CoherentEven(0.5), 0.0, 1.0, 1.0)
        cm = convolve_fft([m], [1])
        assert cm.grid.count >= m.grid.count and cm.grid.dx == m.grid.dx


class TestGatedPower:
    """_raise_to takes a plain power where |f| >= 1/2 and powers the rest
    by squaring; backend two's real factors take a plain power."""

    @pytest.mark.parametrize("name", sorted(FAR_COUNTS))
    def test_far_counts_match_long_double_power(self, name):
        sys = multiset_system(FAR_COUNTS[name], hbar=0.5)
        marg = marginals_for_system(sys)
        grid = common_grid(marg, sys.counts)
        spec = np.ones(grid.count // 2 + 1, dtype=np.longdouble)
        for m, count in zip(marg, sys.counts):
            f = dx_spectrum(m, grid)
            want = long_double_power(f, count)
            got = _raise_to(f.copy(), count)
            big = np.abs(f) >= 0.5
            assert got[big].tobytes() == (f ** count)[big].tobytes()
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
            # entries below 1/2 whose power would underflow are set to 0
            assert np.all(got[~big & (np.abs(f) < _TINY ** (1.0 / count))] == 0)
            spec *= want
        want = spectrum_density(spec, grid)
        got = convolve_fft(marg, sys.counts).values
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(want)

    @pytest.mark.parametrize("count", [2, 3])
    def test_spectrum_straddling_the_cut(self, count):
        # the fringes of a cat across the frame carry its spectrum above and
        # below |f| = 1/2 several times
        sys = multiset_system(((CoherentEven(1.5), (0.0, 1.0), count),), hbar=1.0)
        marg = marginals_for_system(sys)
        grid = common_grid(marg, sys.counts)
        # the count-length spectrum has only 8 entries above 1/2; the one
        # periodized over 2 count samples the same curve twice as densely
        f = padded_dx_spectrum(marg[0], grid)
        mod = np.abs(f)
        big = mod >= 0.5
        squared = ~big & (mod >= _TINY ** (1.0 / count))
        assert np.count_nonzero(big) >= 10 and np.count_nonzero(squared & (mod > 0.1)) >= 10
        got = _raise_to(f.copy(), count)
        assert got[big].tobytes() == (f ** count)[big].tobytes()
        direct = f * f if count == 2 else f * f * f
        assert got[squared].tobytes() == direct[squared].tobytes()
        assert np.all(got[~big & ~squared] == 0)
        want = long_double_power(f, count)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_real_factors_use_plain_power(self):
        k = np.linspace(0.0, 6.0, 101)
        f = char_function(Fock(2), 1.0, 0.0, 1.0, k)
        m = marginal_density(Fock(2), 1.0, 0.0, 1.0)
        assert _cf_product_at([m], [7], k).tobytes() == (f ** 7).tobytes()


class TestOutputPeriod:
    """Both spectral backends periodize over the output grid itself: count
    nodes, one set of buffers per call."""

    def assert_near_padded(self, sys):
        # against the same product periodized over twice the extent: equal
        # to rounding once its outer half is folded back, and that fold, the
        # sum's density past the grid, is small; it is largest, ~3e-13 of the
        # peak, for the even cat on the p axis, whose 8 sigma grid stops
        # inside its Gaussian envelope
        marg = marginals_for_system(sys)
        grid = common_grid(marg, sys.counts)
        bound = max(4e-15, sys.n_modes * 2e-16)
        for backend, padded in ((convolve_fft, padded_fft_spectrum), (cf_product, padded_cf_spectrum)):
            kept, folded = padded_densities(padded(marg, sys.counts, grid), grid)
            got = backend(marg, sys.counts).values
            peak = np.max(kept)
            assert np.max(np.abs(got - folded)) <= bound * peak
            assert np.max(np.abs(folded - kept)) <= 1e-12 * peak
            assert 0.5 * np.trapezoid(np.abs(folded - kept), dx=grid.dx) <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(counts=MULTISETS)
    def test_multisets_match_twice_the_period(self, counts):
        self.assert_near_padded(multiset_system([(*MODE_POOL[i], count) for i, count in counts.items()], 1.0))

    @pytest.mark.parametrize("name", sorted(FAR_COUNTS))
    def test_far_counts_match_twice_the_period(self, name):
        self.assert_near_padded(multiset_system(FAR_COUNTS[name], hbar=0.5))

    @pytest.mark.parametrize("length", [4097, 4098])
    @pytest.mark.parametrize("count", [2, 3, 7, 64, 1000, 1021])
    def test_raise_to_equals_subset_powering(self, length, count):
        # moduli spread over [0, 1], with runs exactly at 1/2, at the
        # underflow threshold and one ulp below it, and either sign
        rng = np.random.default_rng(count + length)
        mod = rng.random(length) ** 4
        cut = _TINY ** (1.0 / count)
        for value in (0.5, cut, np.nextafter(cut, 0.0), 1.0):
            mod[rng.random(length) < 0.05] = value
        f = mod * rng.choice([-1.0, 1.0], length)
        small = (mod < 0.5) & (mod >= cut)
        for part in (small, mod >= 0.5, mod < cut):
            assert np.count_nonzero(part & (f < 0)) >= 2 and np.count_nonzero(part & (f > 0)) >= 2
        assert np.count_nonzero(mod == 0.5) and np.count_nonzero(mod == cut)
        got = _raise_to(f.copy(), count)
        assert got.tobytes() == subset_power(f, count).tobytes()
        want = long_double_power(f, count)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_every_transform_has_the_output_length(self, monkeypatch):
        marg = marginals_for_system(MIXED_SYS)
        grid = common_grid(marg, MIXED_SYS.counts)
        lengths = []
        rfft, irfft = np.fft.rfft, np.fft.irfft

        def forward(a, *args, **kwargs):
            lengths.append(len(a))
            return rfft(a, *args, **kwargs)

        def backward(a, n=None, *args, **kwargs):
            lengths.append(n)
            return irfft(a, n, *args, **kwargs)

        monkeypatch.setattr(convolution.np.fft, "rfft", forward)
        monkeypatch.setattr(convolution.np.fft, "irfft", backward)
        convolve_fft(marg, MIXED_SYS.counts)
        assert lengths == [grid.count] * (len(marg) + 1)
        lengths.clear()
        cf_product(marg, MIXED_SYS.counts)
        assert lengths == [grid.count]
        assert cf_grid_for(grid).count == grid.count
        assert cf_grid_for(grid).dx * (grid.count // 2) == pytest.approx(math.pi / grid.dx, rel=1e-15)

    def test_buffers_bounded_across_groups(self):
        # twelve groups, four modes each, on their own 32,768-node grid:
        # one set of count-length buffers for the call, not fresh arrays
        # per group
        sys = SystemSpec(tuple(ModeGroup(Fock(n), 1.0, 0.0, 4) for n in range(12)), 1.0)
        marg = marginals_for_system(sys)
        assert common_grid(marg, sys.counts).count == 32768
        tracemalloc.start()
        try:
            convolve_fft(marg, sys.counts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


class TestConvolveCycled:
    """`convolve_cycled` transforms a scan's pattern once, keeping a
    running product and one copy per remainder a point needs."""

    # twelve frames with mu^2 + nu^2 exactly 1: Fock 3 has one marginal on all of them
    FRAMES = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)] + [
        (a * x, b * y) for x, y in ((0.6, 0.8), (0.8, 0.6)) for a, b in ((1, 1), (-1, 1), (1, -1), (-1, -1))]

    def test_buffers_do_not_grow_with_the_group_count(self):
        # N = 4096 on 65,536 nodes: 341 copies of twelve groups and one more
        # of the first four, against 4096 copies of one group.  The twelve
        # keep one remainder more (the product of the first four); a
        # spectrum kept per group would add eleven
        spectrum = (65536 // 2 + 1) * 8
        peaks = []
        for pattern in ([ModeGroup(Fock(3), 1.0, 0.0)], [ModeGroup(Fock(3), mu, nu) for mu, nu in self.FRAMES]):
            tracemalloc.start()
            try:
                ((_, d),) = convolve_cycled(pattern, 1.0, [4096])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert d.grid.count == 65536
            peaks.append(peak)
        assert len(self.FRAMES) == 12 and all(mu * mu + nu * nu == 1.0 for mu, nu in self.FRAMES)
        assert peaks[1] < peaks[0] + 2 * spectrum


class TestIndexPlacement:
    """Backend one copies each marginal onto the output nodes by index: it
    interpolates nothing and takes no marginal on another spacing."""

    def test_other_spacing_rejected(self):
        # each mode's own default grid: Fock 3 oscillates faster, so its
        # spacing is the finer one, and the vacuum's is rejected
        marg = [marginal_density(Fock(0), 1.0, 0.0, 1.0), marginal_density(Fock(3), 1.0, 0.0, 1.0)]
        assert marg[0].grid.dx != marg[1].grid.dx
        with pytest.raises(ValueError, match="marginals_for_system"):
            convolve_fft(marg, [1, 1])

    def test_no_interpolation_and_no_nodes(self, monkeypatch):
        marg = marginals_for_system(MIXED_SYS)
        want = convolve_fft(marg, MIXED_SYS.counts)

        def refuse(*args, **kwargs):
            raise AssertionError("backend one formed or interpolated grid nodes")

        monkeypatch.setattr(np, "interp", refuse)
        monkeypatch.setattr(Grid, "xs", property(refuse))
        got = convolve_fft(marg, MIXED_SYS.counts)
        monkeypatch.undo()
        assert got.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("scale", [1, 4])
    def test_equals_interpolation_onto_output_nodes(self, scale):
        # on its policy grid and on one four times wider, whose outer nodes
        # the output grid lacks: the spectrum the old np.interp onto the
        # output nodes gave, to rounding
        sys = iid_system(CoherentEven(1 + 0.5j), 3)
        (m,) = marginals_for_system(sys)
        grid = common_grid([m], sys.counts)
        if scale > 1:
            m = marginal_density(m.meta["mode"], 1.0, 0.0, 1.0, grid=Grid(m.grid.dx, scale * grid.count))
        g = np.interp(grid.xs, m.grid.xs, m.values, left=0.0, right=0.0)
        want = _raise_to(np.fft.rfft(np.fft.ifftshift(g)).real * grid.dx, 3)
        (got,) = convolution._spectrum_products([m], sys.counts, grid)
        assert np.max(np.abs(got - want)) <= 1e-15


class TestRealSpectrum:
    """Every mode is a parity eigenstate, so its spectrum is real: backend
    one keeps the rfft's real part, powers in real arithmetic, and its
    density is even to rounding."""

    @pytest.mark.parametrize("name", sorted(FAR_COUNTS) + ["fock1-x65536-E10"])
    def test_density_is_even(self, name):
        if name in FAR_COUNTS:
            sys = multiset_system(FAR_COUNTS[name], hbar=0.5)
        else:
            sys = iid_system(Fock(1), 65536, hbar=hbar_for_fixed_energy(10.0, [ModeGroup(Fock(1), 1.0, 0.0, 65536)]))
        d = fft_of(sys).values
        # node j lies at (j - count/2) dx: past the first, nodes j and count - j are x and -x
        tail = d[1:]
        assert np.max(np.abs(tail - tail[::-1])) <= 1e-15 * np.max(d)

    def test_powering_and_product_are_real(self):
        assert _raise_to(np.array([-0.9, -0.3, 0.2, 0.7, 1.0]), 5).dtype == np.float64
        assert _raise_to(np.array([-0.9, 0.7]), 1).dtype == np.float64
        sys = multiset_system(FAR_COUNTS["mixed"], hbar=0.5)
        marg = marginals_for_system(sys)
        grid = common_grid(marg, sys.counts)
        *_, spec = convolution._spectrum_products(marg, sys.counts, grid)
        assert spec.dtype == np.float64 and spec.shape == (grid.count // 2 + 1,)


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
        for m in marginals_for_system(MIXED_SYS):
            want = direct_phase_sum(m.grid.xs, m.values * trapezoid_weights(m.grid), ks, 1.0)
            np.testing.assert_allclose(mode_cf(m, ks), want, rtol=0, atol=1e-12)

    def test_matches_per_entry_reference_inverse(self):
        marg = marginals_for_system(MIXED_SYS)
        grid = common_grid(marg, MIXED_SYS.counts)
        k_grid = cf_grid_for(grid)
        ks = k_grid.xs
        total = np.ones(k_grid.count, dtype=complex)
        for m in marg:
            total *= direct_phase_sum(m.grid.xs, m.values * trapezoid_weights(m.grid), ks, 1.0)
        want = direct_phase_sum(ks, total * trapezoid_weights(k_grid), grid.xs, -1.0).real
        want = np.clip(want / (2.0 * math.pi), 0.0, None)
        want /= np.trapezoid(want, dx=grid.dx)
        np.testing.assert_allclose(cf_product(marg, MIXED_SYS.counts).values, want, rtol=0, atol=1e-12)

    def test_one_forward_transform_per_distinct_marginal(self, monkeypatch):
        sys = iid_system(CoherentEven(1 + 0.5j), 4, hbar=0.7)
        marg = marginals_for_system(sys)
        k_grid = cf_grid_for(common_grid(marg, sys.counts))
        monkeypatch.setattr(convolution, "cf_grid_for", lambda out_grid: k_grid)
        seen = []

        def counting(mode, mu, nu, hbar, k):
            seen.append(mode)
            return char_function(mode, mu, nu, hbar, k)

        monkeypatch.setattr(convolution, "char_function", counting)
        cf_product(marg, sys.counts)
        assert len(seen) == 1 and seen[0] is marg[0].meta["mode"]

    def test_matches_fft_three_modes(self):
        sys = system((Fock(0), Fock(1), Fock(2)), 1.0)
        marg = marginals_for_system(sys)
        cm = convolve_fft(marg, sys.counts)
        cf = cf_product(marg, sys.counts)
        tv = 0.5 * np.trapezoid(np.abs(cm.values - cf.values), dx=cm.grid.dx)
        assert tv < 1e-6

    def test_matches_fft_mixed_modes(self):
        marg = marginals_for_system(MIXED_SYS)
        cm = convolve_fft(marg, MIXED_SYS.counts)
        cf = cf_product(marg, MIXED_SYS.counts)
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
        values = tomogram(mode, mu, nu, hbar, grid.xs)
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


def far_k(sys):
    """A k past the farthest bump of every mode's characteristic function."""
    out = 0.0
    for g in sys.groups:
        r = math.sqrt(2.0 * g.mode.n + 1.0) if isinstance(g.mode, Fock) else math.sqrt(2.0) * abs(g.mode.alpha)
        out = max(out, (2.0 * r + 20.0) / math.sqrt(sys.hbar * (g.mu * g.mu + g.nu * g.nu)))
    return out


FIXED_ENERGY_MODES = [Fock(1), CoherentEven(1.0)]


class TestCfAtScale:
    """Backend two at the paper's large N, its lattice guard and its independence."""

    @pytest.mark.parametrize("mode", FIXED_ENERGY_MODES, ids=repr)
    def test_fixed_energy_65536_modes(self, mode):
        N = 65536
        sys = iid_system(mode, N, hbar=hbar_for_fixed_energy(10.0, [ModeGroup(mode, 1.0, 0.0, N)]))
        marg = marginals_for_system(sys)
        cm = convolve_fft(marg, sys.counts)
        cf = cf_product(marg, sys.counts)
        assert 0.5 * np.trapezoid(np.abs(cm.values - cf.values), dx=cm.grid.dx) < 1e-6

    @pytest.mark.parametrize("system", [
        iid_system(Fock(1), 65536, hbar=10.0 / (1.5 * 65536)),
        iid_system(CoherentEven(1.0), 4096, hbar=0.01),
        iid_system(Fock(30), 1),
        iid_system(CoherentOdd(40.0), 1, mu=0.6, nu=0.8),
        iid_system(CoherentOdd(40.0), 1, mu=0.0, nu=1.0),
        iid_system(CoherentEven(40.0), 2, mu=0.0, nu=1.0),
        MIXED_SYS,
    ], ids=["fock1x65536", "even1x4096", "fock30", "odd40", "odd40-p", "even40x2-p", "mixed"])
    def test_reach_inside_nyquist(self, system):
        marg = marginals_for_system(system)
        grid = common_grid(marg, system.counts)
        k_grid = cf_grid_for(grid)
        reach = min(char_function_reach(*convolution._mode_args(m), 1e-17) for m in marg)
        assert reach <= math.pi / grid.dx
        # no lattice node past the reach, out to the Nyquist node and beyond every bump, reaches the floor
        last = max(k_grid.count // 2, int(far_k(system) / k_grid.dx))
        beyond = k_grid.dx * np.arange(int(reach / k_grid.dx) + 1, last + 1)
        assert np.all(np.abs(_cf_product_at(marg, system.counts, beyond)) < 1e-17)

    def test_policy_keeps_every_reach_inside_nyquist(self):
        # no supported mode's reach passes 0.51 of its own policy Nyquist
        # node pi / dx (measured: 0.5071 at Fock 18, 0.348 over the cats).
        # The output grid takes the finest spacing and cf_product the least
        # reach, which is at most that mode's, so no system reaches the guard.
        # reach dx is scale-free, so hbar = 1 and frame radii 1/2, 1, 2 do.
        def margin(mode, mu, nu):
            return char_function_reach(mode, mu, nu, 1.0, 1e-17) * grid_policy(mode, mu, nu, 1.0)[1] / math.pi

        assert max(margin(Fock(n), 1.0, 0.0) for n in range(FOCK_LEVEL_MAX + 1)) <= 0.51
        frames = [(rho * math.cos(j * math.pi / 9), rho * math.sin(j * math.pi / 9))
                  for j, rho in zip(range(9), [1.0, 0.5, 2.0] * 3)]
        worst = 0.0
        for size in np.concatenate([[0.0], np.geomspace(1e-5, 7.9e4, 199)]):
            for j in range(7):
                alpha = complex(size * math.cos(j * math.pi / 7), size * math.sin(j * math.pi / 7))
                for mode in (CoherentEven(alpha), CoherentOdd(alpha)) if size else (CoherentEven(alpha),):
                    worst = max(worst, max(margin(mode, mu, nu) for mu, nu in frames))
        assert worst <= 0.51

    def test_reach_past_nyquist_fails(self, monkeypatch):
        # the vacuum's characteristic function reaches k ~ 14.5 at hbar 1;
        # a grid of spacing 0.5 resolves k up to 2 pi only
        marg = marginals_for_system(iid_system(Fock(0), 1))
        use_grid(monkeypatch, Grid(dx=0.5, count=32))
        with pytest.raises(NumericalError, match="Nyquist"):
            cf_product(marg, [1])

    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("mode", [CoherentEven(40.0), CoherentOdd(40.0)], ids=repr)
    def test_large_cat_fringes_across_the_frame(self, mode, N):
        # at frame (0, 1) the cat's cross-term bump sits at k = 2 sqrt(2) 40,
        # far past where the diagonal term has fallen below the floor; the
        # fringes it encodes must survive the cut
        marg = marginals_for_system(iid_system(mode, N, mu=0.0, nu=1.0))
        cm = convolve_fft(marg, [N])
        cf = cf_product(marg, [N])
        assert 0.5 * np.trapezoid(np.abs(cm.values - cf.values), dx=cm.grid.dx) < 1e-6

    def test_reads_no_marginal_grid(self, monkeypatch):
        # the same meta with every marginal value NaN, on the grid of the
        # real values: the closed forms alone make the product
        marg = marginals_for_system(MIXED_SYS)
        counts = MIXED_SYS.counts
        want = cf_product(marg, counts)
        blank = [copy.copy(m) for m in marg]
        for b in blank:
            b.values = np.full(b.grid.count, np.nan)   # set after the constructor, which rejects NaN
        use_grid(monkeypatch, want.grid)
        assert cf_product(blank, counts).values.tobytes() == want.values.tobytes()

    def test_marginal_without_mode_rejected(self):
        # every marginal_density result records its mode; a hand-built density does not
        d = marginal_density(Fock(1), 1.0, 0.0, 1.0)
        m = MarginalDensity(grid=d.grid, values=d.values)
        with pytest.raises(ValueError, match="mode"):
            cf_product([m], [1])


class TestSampleSum:
    def test_deterministic_for_fixed_seed(self):
        sys = iid_system(Fock(1), 3)
        marg = marginals_for_system(sys)
        a = sample_sum(sys, 5000, 123, marg)
        b = sample_sum(sys, 5000, 123, marg)
        for field in ("at_or_below", "below", "cells"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()

    def test_seed_changes_stream(self):
        sys = iid_system(Fock(1), 3)
        marg = marginals_for_system(sys)
        a = sample_sum(sys, 5000, 123, marg)
        b = sample_sum(sys, 5000, 124, marg)
        assert a.cells.tobytes() != b.cells.tobytes()

    @pytest.mark.parametrize("n", [0, -1, MC_SAMPLES_MAX + 1])
    def test_count_outside_bounds_rejected_before_marginals(self, monkeypatch, n):
        monkeypatch.setattr(convolution, "common_grid", None)
        with pytest.raises(ValueError, match=f"sample count must lie in 1..{MC_SAMPLES_MAX}"):
            sample_sum(iid_system(Fock(0), 1), n, 0, [])

    def test_vacuum_variance(self):
        # pooled over eight seeds, 1.5e-3 is 6 standard errors of the mean
        # and of the variance; one seed at 2e-3 failed about 2% of seeds
        sys = iid_system(Fock(0), 1)
        marg = marginals_for_system(sys)
        moments_by_seed = [cell_moments(sample_sum(sys, 10 ** 6, seed, marg)) for seed in range(7, 15)]
        mean, var = np.mean(moments_by_seed, axis=0)
        assert var == pytest.approx(0.5, abs=1.5e-3)
        assert mean == pytest.approx(0.0, abs=1.5e-3)

    def test_ks_against_fft_cdf(self):
        sys = system((Fock(0), Fock(1), Fock(2)), 1.0)
        marg = marginals_for_system(sys)
        cm = convolve_fft(marg, sys.counts)
        got = sample_sum(sys, 10 ** 6, 99, marg)
        cdf = cumulative_trapezoid(cm.values, cm.grid.dx)
        cdf /= cdf[-1]
        ks = float(np.max(np.abs(got.at_or_below / len(got) - cdf)))
        assert ks < 0.005

    def test_cat_modes_sampleable(self):
        sys = system((CoherentEven(1.5), CoherentOdd(1.0)), 1.0, [0.0, 1.0], [1.0, 0.0])
        marg = marginals_for_system(sys)
        _, var = cell_moments(sample_sum(sys, 200000, 5, marg))
        want = sum(moments(m).var for m in marg)
        assert var == pytest.approx(want, rel=0.02)

    def test_memory_bounded_by_grid_and_workers(self, monkeypatch):
        # two workers count 2^22 draws in a few spans' worth of memory; an
        # array of the draws alone would take 32 MiB
        sys = iid_system(Fock(1), 2)
        marg = marginals_for_system(sys)
        monkeypatch.setattr(convolution.os, "sched_getaffinity", lambda pid: {0, 1})
        tracemalloc.start()
        try:
            got = sample_sum(sys, 2 ** 22, 1, marg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(got) == got.at_or_below[-1] == 2 ** 22
        assert peak < 12 * 2 ** 20


class TestModeStream:
    # jumps that are not multiples of 4, one past a block, and past a span
    @pytest.mark.parametrize("k", [1, 3, 2 ** 15 + 1, 3 * 2 ** 17 + 7])
    def test_advance_skips_exactly_k_draws(self, k):
        serial = _mode_stream(9, 2).random(k + 1000)
        jumped = _mode_stream(9, 2)
        jumped.bit_generator.advance(k)
        assert jumped.random(1000).tobytes() == serial[k:].tobytes()

    def test_distinct_pairs_give_distinct_streams(self):
        # the pairs that a [seed, index] entropy list would merge, (5, 1)
        # with (2^32 + 5, 0) and (0, 1) with (2^32, 0), and extreme values
        pairs = [(0, 0), (0, 1), (1, 0), (5, 1), (2 ** 32 + 5, 0), (2 ** 32, 0), (2 ** 32, 1),
                 (2 ** 64 - 1, 0), (2 ** 64 - 1, N_MAX - 1), (0, N_MAX - 1)]
        starts = {_mode_stream(seed, index).random(4).tobytes() for seed, index in pairs}
        assert len(starts) == len(pairs)


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

    # sample counts on both sides of the block and span sizes, and partial
    # last blocks and spans
    @pytest.mark.parametrize("n", [1, 3, 2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1, 3 * 2 ** 15 + 5,
                                   convolution._MC_SPAN - 1, convolution._MC_SPAN + 1])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_sample_sum_matches_per_mode_interp(self, monkeypatch, n, cpus):
        # each worker jumps every mode's stream to each span of its run: the
        # counts are those of one serial stream per mode, summed in group
        # order, whatever the worker count
        sys = system((Fock(3), CoherentEven(1 + 0.5j), Fock(3), CoherentOdd(0.8), CoherentEven(1 + 0.5j)), 0.7,
                     [0.6, 1.0, 0.6, 0.0, 1.0], [0.8, 0.0, 0.8, 1.0, 0.0])
        marg = marginals_for_system(sys)
        grid = common_grid(marg, sys.counts)
        streams = []

        def counting(seed, index):
            streams.append(index)
            return _mode_stream(seed, index)

        monkeypatch.setattr(convolution.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(convolution, "_mode_stream", counting)
        got = sample_sum(sys, n, 11, marg)
        assert_counts_of(got, interp_draws(sys, marg, n, 11))
        # one stream per mode and span of each worker's run of whole blocks
        chunk, span = convolution._MC_CHUNK, max(convolution._MC_SPAN, grid.count)
        blocks = -(-n // chunk)
        workers = min(cpus, blocks)
        bounds = [min(w * blocks // workers * chunk, n) for w in range(workers + 1)]
        spans = sum(-(-(hi - lo) // span) for lo, hi in zip(bounds, bounds[1:]))
        assert Counter(streams) == {i: spans for i in range(sys.n_modes)}

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_grid_longer_than_a_span(self, monkeypatch, cpus):
        # a span grows to the grid's length, and the nodes are searched
        # _MC_SPAN at a time
        sys = iid_system(Fock(1), 2)
        marg = marginals_for_system(sys)
        count = 2 * convolution._MC_SPAN
        use_grid(monkeypatch, Grid(dx=12.0 / count, count=count))
        monkeypatch.setattr(convolution.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        n = count + 3 * convolution._MC_CHUNK + 5
        assert_counts_of(sample_sum(sys, n, 6, marg), interp_draws(sys, marg, n, 6))

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_draws_on_nodes_and_cell_edges(self, monkeypatch, cpus):
        # draws that sit exactly on nodes and cell edges, twice on the outer
        # edges, and outside the grid: nodes count them as <= and < do, cells
        # as np.histogram does, half-open but for the closed last cell
        sys = iid_system(Fock(1), 1)
        marg = marginals_for_system(sys)
        grid = common_grid(marg, sys.counts)
        monkeypatch.setattr(convolution.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        n = 3 * convolution._MC_CHUNK + 7
        draws = grid_point_draws(monkeypatch, grid, n, 2)
        assert_counts_of(sample_sum(sys, n, 2, marg), draws)

    @pytest.mark.parametrize("where", ["below", "first_cell", "past", "last_cell", "middle"])
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_tally_searches_only_the_nodes_a_span_covers(self, monkeypatch, where, cpus):
        # every span's draws lie below the first node (in its cell or under
        # it), past the last node (in its closed cell or over it), or over a
        # middle slice of _MC_SPAN + 1 nodes of a grid twice that long: the
        # nodes past either end of a span take none or all of it unsearched
        sys = iid_system(Fock(1), 1)
        marg = marginals_for_system(sys)
        if where == "middle":
            grid = Grid(dx=12.0 / (2 * convolution._MC_SPAN), count=2 * convolution._MC_SPAN)
            use_grid(monkeypatch, grid)
        else:
            grid = common_grid(marg, sys.counts)
        xs, dx = grid.xs, grid.dx
        lower, last_edge = xs - 0.5 * dx, xs[-1] + 0.5 * dx
        noise = np.random.default_rng(8).random(5000)
        a, b = grid.count // 4, 3 * grid.count // 4
        table = {
            "below": lower[0] - 1.0 - noise,
            "first_cell": np.concatenate([lower[0] - noise, np.linspace(lower[0], xs[0], 50, endpoint=False)]),
            "past": last_edge + 1.0 + noise,
            "last_cell": np.concatenate([last_edge + noise, np.linspace(last_edge, xs[-1], 50, endpoint=False)]),
            "middle": np.concatenate([xs[a:b + 1], lower[a:b + 1], xs[a] + (xs[b] - xs[a]) * noise]),
        }[where]
        monkeypatch.setattr(convolution.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        n = (grid.count if where == "middle" else 0) + 3 * convolution._MC_CHUNK + 7
        draws = table_draws(monkeypatch, table, n, 2)
        assert_counts_of(sample_sum(sys, n, 2, marg), draws)

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # eight workers count neighbouring runs while the interpreter
        # switches threads every microsecond
        sys_spec = MIXED_SYS
        marg = marginals_for_system(sys_spec)
        n = 8 * convolution._MC_CHUNK + 5
        monkeypatch.setattr(convolution.os, "sched_getaffinity", lambda pid: set(range(8)))
        interval = getswitchinterval()
        setswitchinterval(1e-6)
        try:
            got = sample_sum(sys_spec, n, 21, marg)
        finally:
            setswitchinterval(interval)
        assert_counts_of(got, interp_draws(sys_spec, marg, n, 21))

    def test_worker_failure_raised_in_caller(self, monkeypatch):
        def failing(seed, index):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("worker")
            return _mode_stream(seed, index)

        sys = iid_system(Fock(1), 2)
        monkeypatch.setattr(convolution.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(convolution, "_mode_stream", failing)
        with pytest.raises(MemoryError, match="worker"):
            sample_sum(sys, 3 * 2 ** 15, 1, marginals_for_system(sys))

    def test_one_table_per_distinct_marginal(self, monkeypatch):
        sys = iid_system(CoherentEven(1 + 0.5j), 4, hbar=0.7)
        marg = marginals_for_system(sys)
        seen = []
        original = convolution._inverse_cdf

        def counting(cdf, xs):
            seen.append(xs)
            return original(cdf, xs)

        monkeypatch.setattr(convolution, "_inverse_cdf", counting)
        sample_sum(sys, 1000, 1, marg)
        assert len(seen) == 1


class TestBackendAgreement:
    def setup_method(self):
        self.sys = iid_system(Fock(1), 2)
        self.marg = marginals_for_system(self.sys)
        self.cm = convolve_fft(self.marg, self.sys.counts)
        self.counts = sample_sum(self.sys, 200000, 3, self.marg)

    def test_identical_densities(self):
        agree = backend_agreement(self.cm, self.cm, self.counts)
        assert agree["tv_fft_cf"] == 0.0
        assert agree["ks_fft_mc"] < 0.005
        assert agree["tv_fft_mc"] < 0.01

    def test_shifted_cf_density_detected(self):
        grid = self.cm.grid
        shifted = np.roll(self.cm.values, 1)
        shifted /= np.trapezoid(shifted, dx=grid.dx)
        cf = MarginalDensity(grid=grid, values=shifted)
        assert backend_agreement(self.cm, cf, self.counts)["tv_fft_cf"] > 1e-6

    @pytest.mark.parametrize("on_grid", [False, True])
    def test_distances_are_those_of_the_draws(self, monkeypatch, on_grid):
        # the counts give KS and the coarse TV exactly as the draws do:
        # ECDF at the nodes, np.histogram over every 16th node; also for
        # draws on the nodes and cell edges themselves
        if on_grid:
            one = iid_system(Fock(1), 1)
            draws = grid_point_draws(monkeypatch, self.cm.grid, 200000, 3)
            use_grid(monkeypatch, self.cm.grid)
            counts = sample_sum(one, 200000, 3, marginals_for_system(one))
        else:
            draws, counts = interp_draws(self.sys, self.marg, 200000, 3), self.counts
        xs, n = self.cm.grid.xs, draws.size
        cdf = cumulative_trapezoid(self.cm.values, self.cm.grid.dx)
        cdf /= cdf[-1]
        ks = float(np.max(np.abs(np.searchsorted(np.sort(draws), xs, side="right") / n - cdf)))
        coarse = np.histogram(draws, bins=xs[::16])[0]
        tv = 0.5 * float(np.sum(np.abs(coarse / n - np.diff(np.interp(xs[::16], xs, cdf)))))
        agree = backend_agreement(self.cm, self.cm, counts)
        assert agree["ks_fft_mc"] == ks
        assert agree["tv_fft_mc"] == tv

    def test_density_mc_is_cell_histogram(self):
        xs, dx = self.cm.grid.xs, self.cm.grid.dx
        edges = np.concatenate([xs - 0.5 * dx, [xs[-1] + 0.5 * dx]])
        draws = interp_draws(self.sys, self.marg, 200000, 3)
        want = np.histogram(draws, bins=edges)[0] / (draws.size * dx)
        got = backend_agreement(self.cm, self.cm, self.counts)["density_mc"]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dx_factor, count_factor", [(0.5, 2), (1.0, 2)], ids=["finer", "wider"])
    def test_counts_on_another_grid_rejected(self, monkeypatch, dx_factor, count_factor):
        # a grid is centred by type, so another grid has another dx or count
        grid = self.cm.grid
        use_grid(monkeypatch, Grid(dx=grid.dx * dx_factor, count=grid.count * count_factor))
        counts = sample_sum(self.sys, 1000, 3, self.marg)
        with pytest.raises(ValueError, match="another grid"):
            backend_agreement(self.cm, self.cm, counts)

    def test_cumulative_trapezoid(self):
        np.testing.assert_allclose(cumulative_trapezoid(np.array([1.0, 3.0, 5.0]), 0.5), [0.0, 1.0, 3.0])
