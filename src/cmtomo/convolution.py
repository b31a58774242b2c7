"""Density of the summed quadrature observable over independent modes.

For a product state the center-of-mass tomogram is the N-fold
convolution of the single-mode tomograms.  Three mutually checking
backends compute it: spectral (FFT) convolution, a characteristic-
function product inverted onto the output grid, and seeded inverse-CDF
Monte-Carlo sampling of the sum.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .marginals import (Grid, MarginalDensity, centered_grid, char_function, char_function_reach, grid_policy,
                        marginal_density)
from .states import ModeGroup, SystemSpec

# modulus below which the characteristic-function product is cut off
_CF_FLOOR = 1e-17
_TINY = np.finfo(float).tiny
# Monte-Carlo draws per inverse-CDF lookup and per block a worker owns
_MC_CHUNK = 2 ** 15
# fewest Monte-Carlo draws a worker sums, sorts and counts at once, if
# its run is that long; a multiple of _MC_CHUNK
_MC_SPAN = 2 ** 17
# most Monte-Carlo draws one call takes, and most mode-draws (modes times
# draws, 8-15 ns of wall each with two workers on a 2-vCPU VM); they
# bound the time of a call.  Its memory grows with the draw count only
# through the quantile tables, 8 G bytes per group for G of order
# 16 sqrt(draws) (`_table_size`): at most 2 MiB per group
MC_SAMPLES_MAX = 2 ** 27
MC_MODE_DRAWS_MAX = 2 ** 30


def marginals_for_system(sys: SystemSpec) -> list[MarginalDensity]:
    """One gridded tomogram per mode group, in group order, at the group's
    frame at hbar = 1 (a command passes its system on `unit_frames`).

    All grids share the finest per-group policy spacing, the one spacing
    `convolve_fft` accepts: a grid is centred by type, so each marginal's
    nodes are nodes of the output grid, and backend one places its values
    there by index.
    """
    dx = min(grid_policy(g.mode, g.mu, g.nu)[1] for g in sys.groups)
    return list(_marginals_on(sys.groups, dx))


def _marginals_on(groups, dx: float):
    """Each group's tomogram on its policy half-width at spacing dx, built
    as it is taken."""
    for g in groups:
        half = grid_policy(g.mode, g.mu, g.nu)[0]
        yield marginal_density(g.mode, g.mu, g.nu, grid=centered_grid(half, dx))


def common_grid(marginals: list[MarginalDensity], counts: list[int]) -> Grid:
    """Output grid covering the sum: `_sum_grid` of the groups the
    marginals record, counts[i] copies of marginals[i].

    Each backend takes its grid from here, and each `convolve_cycled`
    point from `_sum_grid` on its own groups; nothing else chooses one.
    """
    if not marginals:
        raise ValueError("need at least one marginal")
    return _sum_grid([ModeGroup(*_mode_args(m), count) for m, count in zip(marginals, counts, strict=True)])


def _sum_grid(groups) -> Grid:
    """The groups' `grid_policy` half-widths added in quadrature,
    sqrt(sum count half^2), at their finest policy spacing, the one
    `marginals_for_system` builds on.  It reads closed forms, no grid
    moment; every mode is a parity eigenstate, so the sum's mean is zero."""
    policies = [grid_policy(g.mode, g.mu, g.nu) for g in groups]
    return centered_grid(math.sqrt(sum(g.count * half ** 2 for g, (half, _) in zip(groups, policies))),
                         min(dx for _, dx in policies))


def _raise_to(f: np.ndarray, count: int) -> np.ndarray:
    """f**count for real f, in place; f itself for count 1.

    Entries with |f| >= 1/2 take a plain power.  Every other entry is
    raised by binary powering, squarings and multiplies: it errs by
    about count eps |f|^count <= count 2^-count eps <= eps/2 of a unit
    peak, and it cannot overflow.  Where |f|^count would fall below the
    smallest normal double the entry is set to 0 before the powering,
    so no product forms a subnormal, whose arithmetic is some twenty
    times slower.  The powering runs over every entry in place; few
    entries of a dx-scaled spectrum reach modulus 1/2, so only those pay
    for a power, which then overwrites their powered values.
    """
    if count == 1:
        return f
    mod = np.abs(f)
    big = np.flatnonzero(mod >= 0.5)
    top = f[big] ** count
    f[mod < _TINY ** (1.0 / count)] = 0.0
    base = f.copy()
    for bit in bin(count)[3:]:
        f *= f
        if bit == "1":
            f *= base
    f[big] = top
    return f


def convolve_fft(marginals: list[MarginalDensity], counts: list[int]) -> MarginalDensity:
    """Backend one: counts[i] copies of each marginals[i] convolved on
    `common_grid`'s grid, the one-point case of `_fft_points`.

    Each marginal must share the output grid's spacing, as those of
    `marginals_for_system` do, and another spacing raises ValueError.
    """
    grid = common_grid(marginals, counts)
    (density,) = _fft_points(marginals, counts, grid, [(1, 0, grid)])
    return density


def convolve_cycled(pattern: list[ModeGroup], n_list: list[int]):
    """`convolve_fft` of each system `SystemSpec.cycled(pattern, N)`,
    N in n_list, on the pattern's frames as given.  Yields (i, system,
    density) for N = n_list[i] one point at a time, in pass order, so no
    caller holds every density.

    A point's grid is `_sum_grid` of its system's groups.  N modes hold
    q = N // P copies of each of the P pattern groups and one more of
    the first r = N % P.  The points of one output spacing share one
    `_fft_points` pass over the first min(P, max N) groups; a point
    whose groups set another spacing (N < P, without the finest group)
    takes its own.
    """
    period = len(pattern)
    systems = [SystemSpec.cycled(pattern, n) for n in n_list]
    grids = [_sum_grid(sys.groups) for sys in systems]
    for dx in dict.fromkeys(g.dx for g in grids):
        members = [i for i, g in enumerate(grids) if g.dx == dx]
        length = min(period, max(n_list[i] for i in members))
        lattice = Grid(dx, max(grids[i].count for i in members))
        points = [(*divmod(n_list[i], length), grids[i]) for i in members]
        densities = _fft_points(_marginals_on(pattern[:length], dx), [1] * length, lattice, points)
        for i, density in zip(members, densities):
            yield i, systems[i], density


def _fft_points(marginals, counts: list[int], lattice: Grid, points):
    """Backend one: the density of each point (q, r, grid), in point
    order, of q copies of the whole product, counts[i] copies of each
    marginals[i], times one more of the first r marginals, on grid.

    The marginals are placed and transformed once, on the lattice
    (`_spectrum_products`), which periodizes each over its extent; a
    grid covers +- 8 sigma of its sum, so the wrap-around folds back no
    more than it leaves out.  The running product F_r is copied at each
    remainder r a point needs, and the full product F raised to q
    (`_raise_to`: no product overflows at any N), in place by the last
    point to raise it if it reads F at full stride, so one point holds F
    once.  Every count is a power of two, so a point of count c reads
    the spectra at stride C/c of the lattice's count C: the DFT of each
    marginal periodized over c dx, where the point's own lattice leaves
    out the marginal's nodes past its grid.  Those nodes lie past the
    marginal's policy half-width, so the two agree to rounding.
    `_inverse` takes each point back on its grid, failing on more than
    1e-9 of clamped mass.  A pass holds one running product and one
    copy per remainder needed, whatever the number of marginals.
    """
    needed = {r for _, r, _ in points}
    prefixes = {}
    for r, product in enumerate(_spectrum_products(marginals, counts, lattice), start=1):
        if r in needed:
            prefixes[r] = product.copy()
    raising = sum(1 for q, _, _ in points if q)
    for q, r, grid in points:
        step = lattice.count // grid.count
        if q:
            raising -= 1
            full = product[::step]
            spec = _raise_to(full if raising == 0 and step == 1 else full.copy(), q)
            if r:
                spec *= prefixes[r][::step]
        else:
            spec = prefixes[r][::step]
        yield _inverse(spec, grid, 1e-9)


def _spectrum_products(marginals, counts: list[int], grid: Grid):
    """The running product of dx-scaled spectra, each raised to its
    count, at k_j = 2 pi j / (count dx), j = 0..count/2: one real array,
    yielded after each marginal and updated in place.

    A marginal on the output spacing has its node x = 0 at index
    count/2 of its own grid, so its halves x >= 0 and x < 0 are copied
    into one zeroed buffer at its start and its end, ifftshift order;
    output nodes past the marginal's hold 0, and marginal nodes past the
    output grid are left out.  After its rfft the two slices are zeroed
    again for the next marginal.  A parity
    eigenstate's marginal is even, so its samples in that order are
    even under j -> count - j and their transform is real: the rfft's
    imaginary part is rounding only, and is dropped.  The marginals may
    be an iterator, so they can be built one at a time."""
    count, half = grid.count, grid.count // 2
    placed = np.zeros(count)
    spectrum = np.empty(half + 1, dtype=complex)
    product = np.ones(half + 1)
    for m, repeats in zip(marginals, counts, strict=True):
        if m.grid.dx != grid.dx:
            raise ValueError(f"marginal spacing {m.grid.dx!r} is not the output grid's {grid.dx!r}; "
                             "convolve_fft takes the marginals of marginals_for_system")
        mid = m.grid.count // 2
        width = min(mid, half)
        placed[:width] = m.values[mid:mid + width]
        placed[count - width:] = m.values[mid - width:mid]
        np.fft.rfft(placed, out=spectrum)
        placed[:width] = 0.0
        placed[count - width:] = 0.0
        product *= _raise_to(spectrum.real * grid.dx, repeats)
        yield product


def _inverse(spec: np.ndarray, grid: Grid, clamp_limit: float) -> MarginalDensity:
    """The density on a centered grid whose characteristic function E e^{-i k X}
    is spec at k_j = 2 pi j / (count dx), j = 0..count/2.

    One irfft of length count, divided by dx and rotated to the grid's
    order, so the sum is periodized over the output extent.  Negative
    values are clamped at 0; more than clamp_limit of clamped mass fails
    the run.  The rest is renormalized to unit integral, in place.
    """
    out = np.fft.fftshift(np.fft.irfft(spec, n=grid.count))
    out /= grid.dx
    # 0.0 minus the sum: with no negative node the empty sum records +0.0, not -0.0
    clamped = 0.0 - float(out[out < 0].sum()) * grid.dx
    if clamped > clamp_limit:
        raise NumericalError(f"clamped negative mass {clamped:.3e} exceeds {clamp_limit}")
    np.clip(out, 0.0, None, out=out)
    out /= np.trapezoid(out, dx=grid.dx)
    return MarginalDensity(grid=grid, values=out, meta={"clamped_mass": clamped})


def _mode_args(m: MarginalDensity) -> tuple:
    """(mode, mu, nu) of a marginal, as the closed forms take them."""
    meta = m.meta
    if "mode" not in meta:
        raise ValueError("the backends need marginals from marginal_density, which record meta['mode']")
    return meta["mode"], meta["mu"], meta["nu"]


def _cf_product_at(marginals: list[MarginalDensity], counts: list[int], ks: np.ndarray) -> np.ndarray:
    """Product of the closed-form characteristic functions at ks, one
    evaluation per marginal raised to its count.  The values are real,
    so a plain power raises them."""
    total = np.ones(len(ks))
    for m, repeats in zip(marginals, counts, strict=True):
        total *= char_function(*_mode_args(m), ks) ** repeats
    return total


def cf_grid_for(grid: Grid) -> Grid:
    """The lattice k_j = j dk, j = -count/2..count/2 - 1, dk = 2 pi / (count dx),
    that an irfft of length count pairs with an output grid; its
    Nyquist node (count/2) dk is pi / dx.
    """
    dk = 2.0 * math.pi / (grid.count * grid.dx)
    return Grid(dk, grid.count)


def cf_product(marginals: list[MarginalDensity], counts: list[int]) -> MarginalDensity:
    """Backend two: product of closed-form characteristic functions, inverted on a lattice.

    Independence makes the characteristic function of the sum the
    pointwise product of the modes' `char_function`s, one per marginal
    raised to its count; it reads no marginal values.  The product
    is real and even in k, and below _CF_FLOOR past the smallest
    `char_function_reach`, every factor being at most one in modulus.
    It is evaluated up to that reach on the count/2 + 1 nodes k >= 0 of
    the `cf_grid_for` lattice of `common_grid`'s grid, and `_inverse`
    takes it back, failing on more than 1e-6 of clamped mass.  A reach
    past the Nyquist node pi / dx, beyond which the lattice sees
    nothing, fails the run.
    """
    grid = common_grid(marginals, counts)
    half = grid.count // 2
    k_grid = cf_grid_for(grid)
    reach = min(char_function_reach(*_mode_args(m), _CF_FLOOR) for m in marginals)
    nyquist = k_grid.dx * half
    if reach > nyquist:
        raise NumericalError(f"characteristic function reaches k = {reach:.6g}, past the output grid's "
                             f"Nyquist node pi / dx = {nyquist:.6g}")
    # past the reach the product is below _CF_FLOOR and is left at 0
    ks = k_grid.dx * np.arange(min(int(reach / k_grid.dx) + 1, half) + 1)
    spec = np.zeros(half + 1)
    spec[:len(ks)] = _cf_product_at(marginals, counts, ks)
    return _inverse(spec, grid, 1e-6)


def _mode_stream(seed: int, index: int) -> np.random.Generator:
    """Mode index's substream: PCG64DXSM seeded by SeedSequence([index, seed]).
    One generator step makes one double, so bit_generator.advance(k)
    skips exactly k draws.  The index (below N_MAX < 2^32, one 32-bit
    word) comes first: SeedSequence pads its entropy words with zeros,
    so [seed, index] would give (2^32 + 5, 0) the stream of (5, 1)."""
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence([index, seed])))


def _table_size(n_samples: int) -> int:
    """G, the smallest power of two at least 16 sqrt(n_samples): 16 at
    one draw, 2^14 at 10^6 and 2^18 at MC_SAMPLES_MAX.  A quantile table
    of G buckets moves the sampled CDF by at most 1/G, a sixteenth of the
    Kolmogorov-Smirnov noise 1/sqrt(n_samples) of the draws."""
    size = 16
    while size * size < 256 * n_samples:
        size *= 2
    return size


def _inverse_cdf(cdf: np.ndarray, xs: np.ndarray, size: int):
    """Quantile-table inverse of a CDF sampled at the nodes xs.

    cdf rises from 0 to 1.  The table holds Q_b = np.interp(b/G, cdf, xs)
    for b = 0..G, G = size a power of two.  The returned function maps
    draws u in [0, 1), overwriting them, to Q_b + (u G - b)(Q_{b+1} - Q_b)
    with b = floor(u G): two gathers of neighbouring entries per draw,
    equal bit for bit to np.interp(u G, arange(G + 1.0), Q), as u G, b
    and u G - b are exact.  The sampled law's CDF equals the linear
    inverse's at every b/G and lies within 1/G of it everywhere.
    """
    quantiles = np.interp(np.arange(size + 1) / size, cdf, xs)
    lower, upper = quantiles[:-1], quantiles[1:]

    # every lookup gathers with take, about half the cost of fancy indexing
    def invert(u: np.ndarray) -> np.ndarray:
        u *= size
        bucket = u.astype(np.intp)
        u -= bucket
        base = lower.take(bucket)
        step = upper.take(bucket)
        step -= base
        u *= step
        u += base
        return u

    return invert


@dataclass(frozen=True, eq=False)
class SampleCounts:
    """Counts of n Monte-Carlo draws of the sum against an output grid.

    at_or_below[j] = #{s <= x_j} and below[j] = #{s < x_j} at the grid
    nodes x_j; cells[j] counts the draws in [x_j - dx/2, x_j + dx/2),
    the last cell closed, as np.histogram bins them.  len() is n.
    """

    grid: Grid
    n: int
    at_or_below: np.ndarray
    below: np.ndarray
    cells: np.ndarray

    def __len__(self) -> int:
        return self.n


def sample_sum(sys: SystemSpec, n_samples: int, seed: int, marginals: list[MarginalDensity]) -> SampleCounts:
    """Backend three: n_samples draws of the summed observable, counted on
    `common_grid`'s grid.

    marginals are `marginals_for_system(sys)`.  Each mode draws through
    the inverse CDF of its gridded tomogram (cumulative trapezoid, linear
    inverse) from its own PCG64DXSM substream (`_mode_stream`); mode i
    is the i-th in group order.  One quantile table of
    G = `_table_size(n_samples)` buckets is built per group
    (`_inverse_cdf`): the sampled law's CDF lies within
    1/G <= 1/(16 sqrt(n_samples)) of the linear inverse's.  The sample
    indices are cut into blocks of _MC_CHUNK draws, each drawn into one
    buffer of its worker and looked up there in place, so the lookup
    temporaries stay in cache, and the blocks into one contiguous run
    per worker thread: one worker per CPU this process may run on, at
    most one per block.  A worker takes its run a span of
    max(_MC_SPAN, grid.count) draws at a time (both are powers of two,
    so a span is whole blocks): it jumps each mode's stream to the
    span, adds the modes in order, sorts the sums, binary-searches in
    them the nodes and cell edges that lie between the first and the
    last sum, and adds the counts to one set of integer tallies, under a
    lock; the nodes past either end take none or all of the span
    unsearched.  A span at least as long as
    the grid keeps the searches within the cost of the sort.
    Every draw and every sum is the same, bit for bit, for any worker
    count, and integer counts do not depend on how the draws were split.
    Memory is O(grid + workers x span + groups x G): a table holds 8 G
    bytes, 128 KiB at 10^6 draws and 2 MiB at MC_SAMPLES_MAX.  numpy
    releases the interpreter lock in the draws, the sort, the searches
    and most of the lookups' array operations.
    """
    if not 0 < n_samples <= MC_SAMPLES_MAX:
        raise ValueError(f"sample count must lie in 1..{MC_SAMPLES_MAX}, got {n_samples}")
    if sys.n_modes * n_samples > MC_MODE_DRAWS_MAX:
        raise ValueError(f"{sys.n_modes} modes x {n_samples} samples exceed {MC_MODE_DRAWS_MAX} mode-draws")
    grid = common_grid(marginals, sys.counts)
    size = _table_size(n_samples)
    order = []
    for m, repeats in zip(marginals, sys.counts, strict=True):
        cdf = cumulative_trapezoid(m.values, m.grid.dx)
        cdf /= cdf[-1]
        order += [_inverse_cdf(cdf, m.grid.xs, size)] * repeats
    xs, count, dx = grid.xs, grid.count, grid.dx
    # the cells' lower edges x_j - dx/2, which never exceed their nodes
    lower = xs - 0.5 * dx
    # #{s <= x_j}, #{s < x_j}, and #{s < x_j - dx/2} then #{s <= x_last + dx/2};
    # one set for every worker, so memory does not grow with the grid
    # times the worker count
    at_or_below = np.zeros(count, dtype=np.int64)
    below = np.zeros(count, dtype=np.int64)
    edges = np.zeros(count + 1, dtype=np.int64)
    last_edge = xs[-1] + 0.5 * dx
    lock = threading.Lock()
    span_size = max(_MC_SPAN, count)
    failed = []

    def tally(span: np.ndarray) -> None:
        """Add the counts of the sorted span.  Nodes below its first draw
        count none of it and nodes whose cell starts past its last draw
        count all of it; only the nodes between are searched, _MC_SPAN at
        a time."""
        first = int(np.searchsorted(xs, span[0], side="left"))
        past = int(np.searchsorted(lower, span[-1], side="right"))
        for a in range(first, past, _MC_SPAN):
            b = min(a + _MC_SPAN, past)
            le = np.searchsorted(span, xs[a:b], side="right")
            lt = np.searchsorted(span, xs[a:b], side="left")
            cell = np.searchsorted(span, lower[a:b], side="left")
            with lock:
                at_or_below[a:b] += le
                below[a:b] += lt
                edges[a:b] += cell
        last = np.searchsorted(span, last_edge, side="right")
        with lock:
            at_or_below[past:] += span.size
            below[past:] += span.size
            edges[past:-1] += span.size
            edges[-1] += last

    def run(lo: int, hi: int) -> None:
        try:
            buffer = np.empty(min(span_size, hi - lo))
            block = np.empty(min(_MC_CHUNK, hi - lo))
            for start in range(lo, hi, span_size):
                span = buffer[:min(span_size, hi - start)]
                span.fill(0.0)
                for i, invert in enumerate(order):
                    stream = _mode_stream(seed, i)
                    stream.bit_generator.advance(start)
                    for a in range(0, span.size, _MC_CHUNK):
                        b = min(a + _MC_CHUNK, span.size)
                        span[a:b] += invert(stream.random(out=block[:b - a]))
                span.sort()
                tally(span)
        except Exception as exc:      # raised in the calling thread once every worker is done
            failed.append(exc)

    blocks = -(-n_samples // _MC_CHUNK)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, blocks)
    bounds = [min(w * blocks // workers * _MC_CHUNK, n_samples) for w in range(workers + 1)]
    threads = [threading.Thread(target=run, args=bounds[w:w + 2]) for w in range(1, workers)]
    for t in threads:
        t.start()
    try:
        run(bounds[0], bounds[1])
    finally:
        for t in threads:
            t.join()
    if failed:
        raise failed[0]
    return SampleCounts(grid=grid, n=n_samples, at_or_below=at_or_below, below=below, cells=np.diff(edges))


def cumulative_trapezoid(values: np.ndarray, dx: float) -> np.ndarray:
    """Running trapezoid integral of gridded values, 0 at the first node."""
    mid = 0.5 * (values[1:] + values[:-1]) * dx
    return np.concatenate([[0.0], np.cumsum(mid)])


def backend_agreement(cm: MarginalDensity, cf: MarginalDensity, counts: SampleCounts) -> dict:
    """Distances between the three backends on the FFT density's grid,
    and the sample density on that grid.

    tv_fft_cf: total variation between the FFT and CF densities.
    ks_fft_mc: Kolmogorov-Smirnov distance between the sample ECDF and
    the FFT density's cumulative trapezoid, at the grid nodes.
    tv_fft_mc: total variation between sample counts and FFT cell
    probabilities on cells 16 grid steps wide, which keeps the
    histogram noise floor well under the 0.01 contract.
    density_mc: sample counts in the cells [x - dx/2, x + dx/2] around
    the grid nodes, divided by the sample count and dx.
    counts are `sample_sum`'s, taken on the FFT density's grid.
    """
    if counts.grid != cm.grid:
        raise ValueError("the sample counts were taken on another grid")
    xs, dx = cm.grid.xs, cm.grid.dx
    n = len(counts)
    cdf = cumulative_trapezoid(cm.values, dx)
    cdf /= cdf[-1]
    # cells [x_16i, x_16(i+1)), the last closed
    coarse = np.diff(np.append(counts.below[::16][:-1], counts.at_or_below[::16][-1]))
    probs = np.diff(np.interp(xs[::16], xs, cdf))
    return {
        "tv_fft_cf": 0.5 * float(np.trapezoid(np.abs(cm.values - cf.values), dx=dx)),
        "ks_fft_mc": float(np.max(np.abs(counts.at_or_below / n - cdf))),
        "tv_fft_mc": 0.5 * float(np.sum(np.abs(coarse / n - probs))),
        "density_mc": counts.cells / (n * dx),
    }
