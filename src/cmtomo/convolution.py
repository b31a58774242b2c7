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
# draws, 15-28 ns of wall each with two workers on a 2-vCPU VM); they
# bound the time of a call, not its memory, which does not grow with the
# draw count
MC_SAMPLES_MAX = 2 ** 27
MC_MODE_DRAWS_MAX = 2 ** 30


def marginals_for_system(sys: SystemSpec) -> list[MarginalDensity]:
    """One gridded tomogram per mode group, in group order.

    All grids share the finest per-group policy spacing, the one spacing
    `convolve_fft` accepts: a grid is centred by type, so each marginal's
    nodes are nodes of the output grid, and backend one places its values
    there by index.
    """
    dx = min(grid_policy(g.mode, g.mu, g.nu, sys.hbar)[1] for g in sys.groups)
    return list(_marginals_on(sys.groups, sys.hbar, dx))


def _marginals_on(groups, hbar: float, dx: float):
    """Each group's tomogram on its policy half-width at spacing dx, built
    as it is taken."""
    for g in groups:
        half = grid_policy(g.mode, g.mu, g.nu, hbar)[0]
        yield marginal_density(g.mode, g.mu, g.nu, hbar, grid=centered_grid(half, dx))


def common_grid(marginals: list[MarginalDensity], counts: list[int]) -> Grid:
    """Output grid covering the sum: the groups' `grid_policy` half-widths
    added in quadrature, sqrt(sum count half^2), at the finest marginal spacing.

    Each backend takes its grid from here, and `convolve_cycled` from the
    same rule on its points' groups; nothing else chooses one.  It
    reads closed forms, no grid moment; every mode is a parity eigenstate,
    so the sum's mean is zero.  Marginals from `marginals_for_system`
    share this spacing, so their nodes are output nodes.
    """
    if not marginals:
        raise ValueError("need at least one marginal")
    return _sum_grid([grid_policy(*_mode_args(m))[0] for m in marginals], counts,
                     min(m.grid.dx for m in marginals))


def _sum_grid(halves: list[float], counts: list[int], dx: float) -> Grid:
    """The grid of spacing dx over the half-widths added in quadrature, count times each."""
    return centered_grid(math.sqrt(sum(count * half ** 2 for half, count in zip(halves, counts, strict=True))), dx)


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
    """Spectral convolution of counts[i] copies of each marginals[i] on `common_grid`'s grid.

    Each marginal must share the output grid's spacing, as those of
    `marginals_for_system` do, and another spacing raises ValueError.
    It is copied by index onto the output nodes in ifftshift order (the
    node x = 0 first) and transformed by one rfft of length count, so
    the sum is periodized over the output grid's own period count dx;
    the grid covers +- 8 sigma of the sum, so the wrap-around folds back
    no more than it leaves out.  Its spectrum is real
    (`_spectrum_products`) and scaled by dx, so every factor is a
    discrete characteristic function bounded near one, and raised to its
    count in real arithmetic (`_raise_to`), so the product cannot
    overflow at any N.  The cost is two slice copies and one rfft of
    length count per marginal, whatever the number of modes, through
    one real and one complex buffer per call.  `_inverse` takes the
    product back, failing on more than 1e-9 of clamped mass.
    """
    grid = common_grid(marginals, counts)
    for product in _spectrum_products(marginals, counts, grid):
        pass
    return _inverse(product, grid, 1e-9)


def convolve_cycled(pattern: list[ModeGroup], hbar: float, n_list: list[int]):
    """`convolve_fft` of each system `SystemSpec.cycled(pattern, N, hbar)`,
    N in n_list, building and transforming each pattern group once per
    pass, not once per N.  Yields (i, density of N = n_list[i]) one
    point at a time, in pass order, so no caller holds every density.

    With P pattern groups, N modes hold q = N // P copies of every group
    and one more of the first r = N % P, so the spectrum product is
    F^q F_r, where F_r is the product of the first r groups' spectra and
    F = F_P.  The points that share one output spacing dx share a pass:
    it places and transforms the groups in pattern order on the lattice
    of the widest of their output grids, count C, keeps the running
    product (`_spectrum_products`) and copies it at each r a point
    needs.  A point whose groups set another spacing (N < P, without
    the finest group) takes its own pass.  Every count is a power of
    two, so a point of count c reads the spectra at stride C/c: the DFT
    of length c of each marginal periodized over c dx, where
    `convolve_fft` leaves out the marginal's nodes past the point's
    grid.  Either way those nodes lie past the marginal's policy
    half-width, so the two agree to rounding.  Each point is inverted
    on its own grid (`_inverse`).  A pass holds one running product
    and one copy per remainder needed, whatever P.
    """
    period = len(pattern)
    grids = []
    for n in n_list:
        sys = SystemSpec.cycled(pattern, n, hbar)
        policies = [grid_policy(g.mode, g.mu, g.nu, hbar) for g in sys.groups]
        grids.append(_sum_grid([half for half, _ in policies], sys.counts, min(dx for _, dx in policies)))
    for dx in dict.fromkeys(g.dx for g in grids):
        members = [i for i, g in enumerate(grids) if g.dx == dx]
        splits = {i: divmod(n_list[i], period) for i in members}
        length = period if any(q for q, _ in splits.values()) else max(r for _, r in splits.values())
        lattice = Grid(dx, max(grids[i].count for i in members))
        needed = {r for _, r in splits.values()}
        prefixes = {}
        for r, product in enumerate(_spectrum_products(_marginals_on(pattern[:length], hbar, dx), [1] * length,
                                                       lattice), start=1):
            if r in needed and r < length:
                prefixes[r] = product.copy()
        prefixes[length] = product
        # the last point to raise F at full stride raises it in place, so a
        # one-point scan holds F once, as convolve_fft holds its product
        raising = sum(1 for q, _ in splits.values() if q)
        for i in members:
            q, r = splits[i]
            step = lattice.count // grids[i].count
            if q:
                raising -= 1
                full = prefixes[period][::step]
                spec = _raise_to(full if raising == 0 and step == 1 else full.copy(), q)
                if r:
                    spec *= prefixes[r][::step]
            else:
                spec = prefixes[r][::step]
            yield i, _inverse(spec, grids[i], 1e-9)


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
    """(mode, mu, nu, hbar) of a marginal, as the closed forms take them."""
    meta = m.meta
    if "mode" not in meta:
        raise ValueError("the backends need marginals from marginal_density, which record meta['mode']")
    return meta["mode"], meta["mu"], meta["nu"], meta["hbar"]


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


def _inverse_cdf(cdf: np.ndarray, xs: np.ndarray):
    """Guide-table inverse of a CDF sampled at the nodes xs.

    cdf must rise from exactly 0 to exactly 1 over a power-of-two count
    G of nodes.  The returned function maps draws u in [0, 1) to values
    equal bit for bit to np.interp(u, cdf, xs): it finds the unique node
    j with cdf[j] <= u < cdf[j+1] (the node np.interp picks, also on
    flat runs and at u = 0) and applies numpy's slope formula.  Bucket
    b of the guide table holds the last node with cdf <= b/G, so
    floor(u G) starts each draw at or below j; one vectorised step
    forward settles most draws and a binary search the few left over.
    Expected cost is O(1) per draw against log2(G) branches for the
    search alone.
    """
    count = cdf.size
    guide = np.searchsorted(cdf, np.arange(count) / count, side="right") - 1
    np.minimum(guide, count - 2, out=guide)
    upper = cdf[1:]
    with np.errstate(divide="ignore", over="ignore"):
        slope = np.diff(xs) / np.diff(cdf)
    # no draw lands on a flat run; the only one that can meet a slope
    # that overflowed is u = 0 = cdf[j], which np.interp returns as xs[j]
    slope[np.isinf(slope)] = 0.0

    # every lookup gathers with take, about half the cost of fancy indexing
    def invert(u: np.ndarray) -> np.ndarray:
        j = guide.take((u * count).astype(np.intp))
        j += upper.take(j) <= u
        short = np.flatnonzero(upper.take(j) <= u)
        if short.size:
            j[short] = np.searchsorted(cdf, u[short], side="right") - 1
        return slope.take(j) * (u - cdf.take(j)) + xs.take(j)

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
    is the i-th in group order.  One
    guide table is built per group (`_inverse_cdf`).  The sample indices
    are cut into blocks of _MC_CHUNK draws, so the lookup temporaries
    stay in cache, and the blocks into one contiguous run per worker
    thread: one worker per CPU this process may run on, at most one per
    block.  A worker takes its run a span of max(_MC_SPAN, grid.count)
    draws at a time (both are powers of two, so a span is whole blocks):
    it jumps each mode's stream to the span, adds the modes in order,
    sorts the sums, binary-searches in them the nodes and cell edges
    that lie between the first and the last sum, and adds the counts to
    one set of integer tallies, under a lock; the nodes past either end
    take none or all of the span unsearched.  A span at least as long as
    the grid keeps the searches within the cost of the sort.
    Every draw and every sum is the same, bit for bit, for any worker
    count, and integer counts do not depend on how the draws were split.
    Memory is O(grid + workers x span), whatever n_samples.  numpy
    releases the interpreter lock in the draws, the sort, the searches
    and most of the lookups' array operations.
    """
    if not 0 < n_samples <= MC_SAMPLES_MAX:
        raise ValueError(f"sample count must lie in 1..{MC_SAMPLES_MAX}, got {n_samples}")
    if sys.n_modes * n_samples > MC_MODE_DRAWS_MAX:
        raise ValueError(f"{sys.n_modes} modes x {n_samples} samples exceed {MC_MODE_DRAWS_MAX} mode-draws")
    grid = common_grid(marginals, sys.counts)
    order = []
    for m, repeats in zip(marginals, sys.counts, strict=True):
        cdf = cumulative_trapezoid(m.values, m.grid.dx)
        cdf /= cdf[-1]
        order += [_inverse_cdf(cdf, m.grid.xs)] * repeats
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
            for start in range(lo, hi, span_size):
                span = buffer[:min(span_size, hi - start)]
                span.fill(0.0)
                for i, invert in enumerate(order):
                    stream = _mode_stream(seed, i)
                    stream.bit_generator.advance(start)
                    for a in range(0, span.size, _MC_CHUNK):
                        b = min(a + _MC_CHUNK, span.size)
                        span[a:b] += invert(stream.random(b - a))
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
