"""Density of the summed quadrature observable over independent modes.

For a product state the center-of-mass tomogram is the N-fold
convolution of the single-mode tomograms.  Three mutually checking
backends compute it: spectral (FFT) convolution, a characteristic-
function product inverted onto the output grid, and seeded inverse-CDF
Monte-Carlo sampling of the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridSizeError, NumericalError
from .marginals import (Grid, MarginalDensity, centered_grid, char_function, char_function_reach, grid_policy,
                        marginal_density, moments)
from .states import FrameSpec, SystemSpec

_MAX_GRID = 2 ** 22
_CLAMP_LIMIT = 1e-9
# modulus below which the characteristic-function product is cut off
_CF_FLOOR = 1e-17
_TINY = np.finfo(float).tiny
# Monte-Carlo draws per inverse-CDF lookup
_MC_CHUNK = 2 ** 16


@dataclass
class CenterOfMassDensity:
    """Gridded density of sum_i (mu_i q_i + nu_i p_i), unit integral."""

    grid: Grid
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.count,):
            raise ValueError("value count must match the grid")
        if not np.all(np.isfinite(self.values)):
            raise NumericalError("density has non-finite values")
        if np.any(self.values < 0):
            raise NumericalError("density has negative values")
        total = float(np.trapezoid(self.values, dx=self.grid.dx))
        if not abs(total - 1.0) <= 1e-7:
            raise NumericalError(f"density integral {total} is not 1 within 1e-7")


def marginals_for_system(sys: SystemSpec, frame: FrameSpec) -> list[MarginalDensity]:
    """One gridded tomogram per mode, in mode order; identical (mode, frame)
    pairs share one object.

    All grids share the finest per-mode policy spacing on a common
    lattice, so downstream resampling onto the convolution grid is
    lossless.
    """
    if len(frame.mu) != sys.n_modes:
        raise ValueError("frame length must match the number of modes")
    keys = [(sys.modes[i], frame.mu[i], frame.nu[i]) for i in range(sys.n_modes)]
    distinct = list(dict.fromkeys(keys))
    policies = {k: grid_policy(k[0], k[1], k[2], sys.hbar) for k in distinct}
    dx = min(p[1] for p in policies.values())
    built = {}
    for key in distinct:
        mode, mu, nu = key
        built[key] = marginal_density(mode, mu, nu, sys.hbar, grid=centered_grid(policies[key][0], dx))
    return [built[k] for k in keys]


def _distinct(marginals: list[MarginalDensity]) -> list[tuple[MarginalDensity, int]]:
    """(marginal, count) per distinct object, in first-appearance order."""
    groups: dict[int, list] = {}
    for m in marginals:
        groups.setdefault(id(m), [m, 0])[1] += 1
    return [(m, count) for m, count in groups.values()]


def common_grid(marginals: list[MarginalDensity], max_count: int = _MAX_GRID) -> Grid:
    """Output grid covering the sum: total mean +- 8 total sigma.

    The spacing is the finest marginal spacing, so marginals produced by
    the default grid policy land exactly on output nodes and resampling
    is lossless.  Moments are taken once per distinct marginal and
    weighted by its count.
    """
    groups = _distinct(marginals)
    stats = [(moments(m), count) for m, count in groups]
    mean = sum(count * s.mean for s, count in stats)
    sigma = math.sqrt(sum(count * s.var for s, count in stats))
    dx = min(m.grid.dx for m, _ in groups)
    half = abs(mean) + 8.0 * sigma
    return centered_grid(half, dx, max_count=max_count)


def _raise_to(f: np.ndarray, count: int) -> np.ndarray:
    """f**count, complex f in place; f itself for count 1.

    Complex entries with |f| >= 1/2 take the polar form
    |f|^count e^{i count arg f}.  Every other entry is raised by binary
    powering, squarings and multiplies: it errs by about
    count eps |f|^count <= count 2^-count eps <= eps/2 of a unit peak,
    and it cannot overflow.  Where |f|^count would fall below the
    smallest normal double the entry is set to 0, so no product forms a
    subnormal, whose arithmetic is some twenty times slower.  Few
    entries of a dx-scaled spectrum reach modulus 1/2, so only those
    pay for an angle, a power, a cosine and a sine.
    """
    if count == 1:
        return f
    if not np.iscomplexobj(f):
        return f ** count
    mod = np.abs(f)
    big = np.flatnonzero(mod >= 0.5)
    phase = count * np.angle(f[big])
    mag = mod[big] ** count
    small = np.flatnonzero((mod < 0.5) & (mod >= _TINY ** (1.0 / count)))
    g = f[small]
    base = g.copy()
    for bit in bin(count)[3:]:
        g *= g
        if bit == "1":
            g *= base
    f.fill(0.0)
    f[small] = g
    f.real[big] = mag * np.cos(phase)
    f.imag[big] = mag * np.sin(phase)
    return f


def _resample(m: MarginalDensity, grid: Grid) -> np.ndarray:
    return np.interp(grid.xs, m.grid.xs, m.values, left=0.0, right=0.0)


def convolve_fft(marginals: list[MarginalDensity], grid: Grid | None = None) -> CenterOfMassDensity:
    """Spectral convolution of the marginals on a shared centered grid.

    Each distinct marginal is resampled once and zero-padded to twice
    the output length.  Its spectrum is scaled by dx, so every factor is
    a discrete characteristic function bounded near one, and raised to
    the marginal's count (`_raise_to`), so the product cannot overflow
    at any N.  The power keeps the polar form where |f| >= 1/2 and
    squares elsewhere, erring there by at most about eps/2 of the unit
    peak; entries whose power underflows are 0.  The cost is one
    resample and one rfft of length 2 count per distinct marginal,
    whatever the number of modes.  The inverse is divided by dx once
    and clamped at 0; more than 1e-9 of clamped mass fails the run.
    """
    if not marginals:
        raise ValueError("need at least one marginal")
    if grid is None:
        grid = common_grid(marginals)
    count = grid.count
    M = 2 * count
    g = np.zeros(M)
    spec = None
    for m, repeats in _distinct(marginals):
        g[M // 2 - count // 2: M // 2 + count // 2] = _resample(m, grid)
        f = np.fft.rfft(np.fft.ifftshift(g))
        f *= grid.dx
        f = _raise_to(f, repeats)
        if spec is None:
            spec = f
        else:
            spec *= f
    out = np.fft.irfft(spec, n=M) / grid.dx
    out = np.fft.fftshift(out)[M // 2 - count // 2: M // 2 + count // 2]
    clamped = float(-out[out < 0].sum() * grid.dx)
    if clamped > _CLAMP_LIMIT:
        raise NumericalError(f"clamped negative mass {clamped:.3e} exceeds {_CLAMP_LIMIT}")
    out = np.clip(out, 0.0, None)
    out /= np.trapezoid(out, dx=grid.dx)
    meta = {"backend": "fft", "clamped_mass": clamped, "n_modes": len(marginals)}
    return CenterOfMassDensity(grid=grid, values=out, meta=meta)


def _phase_sum(grid: Grid, v: np.ndarray, a: np.ndarray, sign: float) -> np.ndarray:
    """sum_j v[j] e^{sign i a x_j} over the nodes x_j of `grid`, for every a.

    With Q = 2**floor(log2(count) / 2), node j = b Q + q sits at
    x_{bQ} + q dx, so each phase is a coarse factor e^{sign i a x_{bQ}}
    times a fine factor e^{sign i a q dx}.  Only len(a) (count/Q + Q)
    exponentials are formed; the q sum is a matrix product and the b
    sum a row-wise reduction, len(a) count multiply-adds in all.  The
    fine factor enters as its cosine and sine, so a real v costs two
    real matrix products, half of one complex product.  Rows of a go in
    blocks of _MAX_GRID // count to bound memory.
    """
    fine_len = 1 << (grid.count.bit_length() - 1) // 2
    coarse_x = grid.xs[::fine_len]
    fine_x = grid.dx * np.arange(fine_len)
    blocks = v.reshape(len(coarse_x), fine_len).T
    out = np.empty(len(a), dtype=complex)
    step = max(1, _MAX_GRID // grid.count)
    for i in range(0, len(a), step):
        aa = sign * a[i:i + step, None]
        fine = aa * fine_x[None, :]
        coarse = np.exp(1j * aa * coarse_x[None, :])
        inner = np.cos(fine) @ blocks + 1j * (np.sin(fine) @ blocks)
        out[i:i + step] = np.einsum("ij,ij->i", coarse, inner)
    return out


def _trapezoid_weights(grid: Grid) -> np.ndarray:
    w = np.full(grid.count, grid.dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _mode_args(m: MarginalDensity) -> tuple:
    """(mode, mu, nu, hbar) of a marginal, as `char_function` takes them."""
    meta = m.meta
    if "mode" not in meta:
        raise ValueError("backend two needs marginals from marginal_density, which record meta['mode']")
    return meta["mode"], meta["mu"], meta["nu"], meta["hbar"]


def _cf_product_at(groups: list[tuple[MarginalDensity, int]], ks: np.ndarray) -> np.ndarray:
    """Product of the closed-form characteristic functions at ks, one
    evaluation per distinct marginal raised to its count."""
    total = np.ones(len(ks))
    for m, repeats in groups:
        total *= _raise_to(char_function(*_mode_args(m), ks), repeats)
    return total


def cf_grid_for(marginals: list[MarginalDensity], out_grid: Grid) -> Grid:
    """Frequency grid on which the characteristic-function product is resolved.

    The spacing dk keeps the inverse's periodization beyond twice the
    output extent.  Every factor is at most one in modulus, so the
    product is below _CF_FLOOR past the smallest `char_function_reach`
    of the distinct marginals.  The product is evaluated once on the dk
    lattice up to that reach, and the grid reaches one node past the
    last node where it is at least _CF_FLOOR, so both outer nodes lie
    below the floor.  The trapezoid inverse sees only lattice values, so
    what the cut drops is bounded by _CF_FLOOR K dk.
    """
    dk = 2.0 * math.pi / (2.2 * (out_grid.extent + out_grid.dx * out_grid.count))
    groups = _distinct(marginals)
    reach = min(char_function_reach(*_mode_args(m), _CF_FLOOR) for m, _ in groups)
    # the product is even in k, so the lattice is taken on k >= 0 only; its
    # last node lies past the reach unless the grid cap stops it first
    nodes = min(int(reach / dk) + 1, _MAX_GRID // 2)
    mag = np.abs(_cf_product_at(groups, dk * np.arange(nodes + 1)))
    last = int(np.flatnonzero(mag >= _CF_FLOOR)[-1])
    if last == nodes:
        raise GridSizeError(f"frequency grid would need more than {_MAX_GRID} points")
    # nodes run from -(count/2) dk to (count/2 - 1) dk with count >= 2 (last + 2)
    return centered_grid((last + 2) * dk, dk, max_count=_MAX_GRID)


def cf_product(marginals: list[MarginalDensity], grid: Grid | None = None) -> CenterOfMassDensity:
    """Backend two: product of closed-form characteristic functions, inverted directly.

    Independence makes the characteristic function of the sum the
    pointwise product of the modes' `char_function`s, evaluated once per
    distinct marginal and raised to its count; no marginal grid is read.
    The inverse transform is an explicit trapezoid sum over the K nodes
    of the `cf_grid_for` k-grid onto the n output nodes (no FFT shared
    with backend one), block-factored by `_phase_sum`: n (K/Q + Q)
    exponentials, Q ~ sqrt(K), and an n x K matrix product.
    """
    if not marginals:
        raise ValueError("need at least one marginal")
    if grid is None:
        grid = common_grid(marginals)
    k_grid = cf_grid_for(marginals, grid)
    # the product is real and even in k: evaluated on k = 0..count/2 dk and
    # mirrored onto the nodes -count/2 dk..-dk
    half = k_grid.count // 2
    total = _cf_product_at(_distinct(marginals), k_grid.dx * np.arange(half + 1))
    v = np.concatenate([total[half:0:-1], total[:half]]) * _trapezoid_weights(k_grid)
    # subnormal tail values carry nothing but slow the matrix products
    # about twofold; they are flushed to 0
    v[np.abs(v) < _TINY] = 0.0
    out = _phase_sum(k_grid, v, grid.xs, -1.0).real
    out /= 2.0 * math.pi
    clamped = float(-out[out < 0].sum() * grid.dx)
    if clamped > 1e-6:
        raise NumericalError(f"inverse transform negative mass {clamped:.3e}")
    out = np.clip(out, 0.0, None)
    out /= np.trapezoid(out, dx=grid.dx)
    meta = {"backend": "cf", "clamped_mass": clamped, "n_modes": len(marginals)}
    return CenterOfMassDensity(grid=grid, values=out, meta=meta)


def _mode_stream(seed: int, index: int) -> np.random.Generator:
    """Counter-based substream for one mode: identical for any thread count."""
    key = np.array([np.uint64(seed), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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

    def invert(u: np.ndarray) -> np.ndarray:
        j = guide[(u * count).astype(np.intp)]
        j += upper[j] <= u
        short = np.flatnonzero(upper[j] <= u)
        if short.size:
            j[short] = np.searchsorted(cdf, u[short], side="right") - 1
        return slope[j] * (u - cdf[j]) + xs[j]

    return invert


def sample_sum(sys: SystemSpec, frame: FrameSpec, n_samples: int, seed: int,
               marginals: list[MarginalDensity] | None = None) -> np.ndarray:
    """Backend three: n_samples draws of the summed observable.

    Each mode draws through the inverse CDF of its gridded tomogram
    (cumulative trapezoid, linear inverse) from its own counter-based
    substream, so results are reproducible bit for bit for a fixed seed
    regardless of execution interleaving.  One guide table is built per
    distinct marginal object (`_inverse_cdf`), and draws go in chunks
    of _MC_CHUNK so the lookup temporaries stay in cache.
    """
    if n_samples <= 0:
        raise ValueError("sample count must be positive")
    if marginals is None:
        marginals = marginals_for_system(sys, frame)
    out = np.zeros(n_samples)
    inverses = {}
    for m, _ in _distinct(marginals):
        cdf = cumulative_trapezoid(m.values, m.grid.dx)
        cdf /= cdf[-1]
        inverses[id(m)] = _inverse_cdf(cdf, m.grid.xs)
    for i, m in enumerate(marginals):
        invert = inverses[id(m)]
        stream = _mode_stream(seed, i)
        for start in range(0, n_samples, _MC_CHUNK):
            stop = min(start + _MC_CHUNK, n_samples)
            out[start:stop] += invert(stream.random(stop - start))
    return out


def cumulative_trapezoid(values: np.ndarray, dx: float) -> np.ndarray:
    """Running trapezoid integral of gridded values, 0 at the first node."""
    mid = 0.5 * (values[1:] + values[:-1]) * dx
    return np.concatenate([[0.0], np.cumsum(mid)])


def _bin_counts(sorted_samples: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """np.histogram(samples, bins=edges)[0] for samples sorted ascending.

    Bins are half-open [a, b) except the last, which is closed, so the
    last edge is searched from the right; no sample is sorted again.
    """
    cum = np.concatenate([np.searchsorted(sorted_samples, edges[:-1], side="left"),
                          np.searchsorted(sorted_samples, edges[-1:], side="right")])
    return np.diff(cum)


def backend_agreement(cm: CenterOfMassDensity, cf: CenterOfMassDensity, samples: np.ndarray) -> dict:
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
    The samples are sorted once; every count is a binary search.
    """
    xs, dx = cm.grid.xs, cm.grid.dx
    samples = np.sort(samples)
    cdf = cumulative_trapezoid(cm.values, dx)
    cdf /= cdf[-1]
    ecdf = np.searchsorted(samples, xs, side="right") / len(samples)
    coarse = xs[::16]
    counts = _bin_counts(samples, coarse)
    probs = np.diff(np.interp(coarse, xs, cdf))
    cells = np.concatenate([xs - 0.5 * dx, [xs[-1] + 0.5 * dx]])
    return {
        "tv_fft_cf": 0.5 * float(np.trapezoid(np.abs(cm.values - cf.values), dx=dx)),
        "ks_fft_mc": float(np.max(np.abs(ecdf - cdf))),
        "tv_fft_mc": 0.5 * float(np.sum(np.abs(counts / len(samples) - probs))),
        "density_mc": _bin_counts(samples, cells) / (len(samples) * dx),
    }
