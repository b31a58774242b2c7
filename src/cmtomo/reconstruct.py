"""Recover a truncated density matrix from a single-mode tomogram.

The matrix does not depend on hbar, which only rescales the frames to
sqrt(hbar) (mu, nu), so no function here takes hbar: the state is the
frame integral, at hbar = 1, of e^{iX} U(mu, nu) against the unit-scale
tomogram `marginals.tomogram` gives, with U = exp(-i(mu Q + nu P)) and
a constant 1/(2 pi); the scalar X integral is the tomogram's
characteristic function at 1.  The integral over frames runs in polar
coordinates (k, theta) up to a radius cutoff, and three identities and
the parity of the tomogram reduce it to closed-form matrix elements and
one tomogram evaluation per job:

* cos(theta) Q + sin(theta) P = D Q D^dagger with D = diag(e^{i theta m}),
  so entry (m, n) of each angle's term is <m|e^{-ikQ}|n> e^{i theta (m-n)};
* e^{-ikQ} is the displacement D(b), b = -ik / sqrt(2), whose elements
  are closed forms (Cahill and Glauber, Phys. Rev. 177, 1857 (1969)):
  <m|D(b)|n> = (-i)^|m-n| f_min(m,n)^(|m-n|)(k^2 / 2), with the
  normalized Laguerre functions of `specialfn.laguerre_gauss_levels`.
  They are exact in the dim x dim block: no basis is padded and nothing
  is diagonalized;
* a tomogram is homogeneous in its frame, w(l X; l mu, l nu) =
  w(X; mu, nu) / |l| for every real l != 0.  For l > 0 the X integral at
  every radius is a Fourier sum of the unit-frame tomogram on one grid.
  For l = -1 the tomogram at theta + pi is the one at theta with X
  reversed, so the angular node count is even and the angles in
  [0, pi) serve the whole circle.

Every state reconstructed here is a parity eigenstate, or a mixture of
them, so every row is even in X: w(-X; mu, nu) = w(X; mu, nu).  Its X
integral is then real and the same at theta and theta + pi: twice the
cosine integral over y >= 0.  Angle theta + pi weighs offset d = m - n
by (-1)^d against theta, so odd offsets cancel and each even one sums
twice the integral at theta; the result is Hermitian.  So one call
evaluates the rows of every angle in [0, pi) on the half grid y >= 0,
and their cosine integrals are real matrix products with the half-grid
cosine table, built and multiplied one block of x nodes at a time
(`specialfn.cosine_blocks`).  The Gauss-Legendre radial rule comes from
Newton's method on the Legendre recurrence, once per node count and
process.

Every true tomogram is homogeneous; a callable that is not homogeneous,
or not even in X, will be reconstructed wrongly.

Every size follows from dim (`_job_sizes`); none is an option.  The
frame radius K is the reach of level dim - 1, integrated with
max(96, 3 dim + 32) radial and 2 dim + 32 angular nodes (fewer margin
nodes from dim 496, none at 511) over the power-of-two X grid of at
least max(512, 32 dim) intervals; an accuracy sweep over number states
and cats at dims 2-80 holds every entry within 1e-12 of the state's
unit-trace dim x dim block (tests/test_reconstruct.py).  The largest X phase
is 10 sqrt(dim + 1/2) K, 1.7e4 rad at dim 511, inside the 1e5 rad
cosine_blocks is tested to.  Size contract: every table a job builds
whole holds at most 2^22 entries, checked before the first table is
allocated, and every block of the X cosine table at most 2^16; the
half-grid tomogram rows bind first, so a larger dim (past 511) raises
GridSizeError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import GridSizeError, NumericalError
from .marginals import _MAX_GRID, char_function_reach
from .specialfn import cosine_blocks, laguerre_gauss_levels
from .states import Fock, FockExpansion

# |characteristic function| at the outermost radial node above which the
# frame radius cuts off part of the state
_CUTOFF_CHAR_MAX = 1e-4
# half-width of the unit-frame X grid in standard deviations of the
# widest state inside the truncation
_X_SIGMAS = 10.0
# entries of each block of the X cosine table (512 KB)
_X_BLOCK_ENTRIES = 1 << 16


@dataclass
class DensityMatrix:
    """Hermitian unit-trace matrix in the level basis, with audit metadata."""

    dim: int
    entries: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.shape != (self.dim, self.dim):
            raise ValueError("entries must be dim x dim")
        if not np.all(np.isfinite(self.entries)):
            raise NumericalError("density matrix has non-finite entries")
        if np.max(np.abs(self.entries - self.entries.conj().T)) > 1e-8:
            raise NumericalError("density matrix is not Hermitian within 1e-8")
        if abs(np.trace(self.entries).real - 1.0) > 1e-6:
            raise NumericalError("density matrix trace is not 1 within 1e-6")


def _legendre_theta(count: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_count(cos theta) and its derivative in theta, for 0 < theta <= pi/2.

    The three-term recurrence runs on t = 1 - cos theta = 2 sin^2(theta/2)
    and the differences D_j = P_j - P_{j-1}: (j+1) D_{j+1} =
    j D_j - (2j+1) t P_j and P_{j+1} = P_j + D_{j+1}.  Near x = 1, where
    the plain form in x cancels, every term keeps its relative accuracy.
    The derivative is -sin(theta) P' = count (D - t P) / sin(theta), from
    (1 - x^2) P'_n = n (P_{n-1} - x P_n).
    """
    t = 2.0 * np.sin(0.5 * theta) ** 2
    p = np.ones_like(theta)
    diff = np.zeros_like(theta)
    work = np.empty_like(theta)
    for j in range(count):
        np.multiply(t, p, out=work)
        work *= (2 * j + 1) / (j + 1)
        diff *= j / (j + 1)
        diff -= work
        p += diff
    return p, count * (diff - t * p) / np.sin(theta)


def _legendre_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The count-node Gauss-Legendre rule on [-1, 1], nodes ascending.

    Newton's method runs on the angles theta of the nodes x = cos theta in
    (0, pi/2], three steps from Tricomi's estimates (Hale and Townsend,
    SIAM J. Sci. Comput. 35, A652 (2013)), each an O(count) recurrence per
    node (`_legendre_theta`); the other half mirrors them.  A weight is
    2 / (dP/dtheta)^2 = 2 (1 - x^2) / P'(x)^2 at the converged angle, so
    no 1 - x^2 cancels near the ends.  A last Newton step in x on the
    plain recurrence gives each node to an ulp or two, near x = 0 too,
    where cos theta is only as good as eps absolutely.
    """
    half = (count + 1) // 2
    theta = math.pi * (4.0 * np.arange(1, half + 1) - 1.0) / (4 * count + 2)
    theta += (1.0 - 1.0 / count) / (8.0 * count * count) / np.tan(theta)
    for _ in range(3):
        p, dp = _legendre_theta(count, theta)
        theta -= p / dp
    weights = 2.0 / _legendre_theta(count, theta)[1] ** 2
    x = np.cos(theta)
    prev, p = np.ones_like(x), x.copy()
    for j in range(1, count):
        prev, p = p, ((2 * j + 1) * x * p - j * prev) / (j + 1)
    x -= p * (1.0 - x * x) / (count * (prev - x * p))
    odd = count % 2
    if odd:
        x[-1] = 0.0
    return (np.concatenate((-x, x[::-1][odd:])),
            np.concatenate((weights, weights[::-1][odd:])))


@functools.cache
def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The count-node Gauss-Legendre rule on [-1, 1], built once per
    process; the arrays are read-only because every caller shares them."""
    nodes, weights = _legendre_rule(count)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


class _JobSizes(NamedTuple):
    frame_radius: float
    radial_nodes: int
    angular_nodes: int
    x_count: int


def _job_sizes(dim: int) -> _JobSizes:
    """Every quadrature size of a job, taken from dim.

    The frame radius K is the reach of level dim - 1 at floor 1e-12
    (`char_function_reach`), 2 sqrt(2 dim - 1) + 2 sqrt(ln 1e12); the
    radial rule grows with K, max(96, 3 dim + 32) nodes, the floor
    resolving the levels past dim whose mass the pre-rescale trace
    measures.  The angular Fourier sum over n nodes aliases offset d onto
    d +- n, and the offsets of a dim x dim matrix span 2 dim - 1 values;
    n = 2 dim + 32 also keeps a state's levels past dim from aliasing
    onto the block, with the 32 margin nodes cut where the tomogram rows
    would pass _MAX_GRID (dims 496-511).  The X grid has the smallest
    power of two at least max(512, 32 dim) intervals.  At these sizes the
    accuracy sweep of tests/test_reconstruct.py, number states and cats at
    dims 2-80, comes back within 1e-12 of each state's unit-trace block;
    without the 32 radial nodes Fock 31 at dim 32 is off by 1.1e-4.  Raises
    GridSizeError, before anything is allocated and before K is formed,
    if any table the job builds whole would hold more entries than a grid
    may have nodes (_MAX_GRID).  The X cosine table is never whole: its
    blocks hold at most _X_BLOCK_ENTRIES entries.
    """
    radial = max(96, 3 * dim + 32)
    x_count = 1 << (max(512, 32 * dim) - 1).bit_length()
    angular = max(2 * dim, min(2 * dim + 32, 2 * (_MAX_GRID // (x_count // 2 + 1))))
    half = angular // 2
    tables = {
        "tomogram rows (angular_nodes/2 x (x_count/2 + 1))": half * (x_count // 2 + 1),
        "X integrals (angular_nodes/2 x radial_nodes)": half * radial,
        "Laguerre functions (dim x radial_nodes)": dim * radial,
        "density matrix (dim^2)": dim * dim,
    }
    for name, entries in tables.items():
        if entries > _MAX_GRID:
            raise GridSizeError(f"reconstruction table {name} would hold more than {_MAX_GRID} "
                                f"entries (dim {dim}, x_count {x_count})")
    K = char_function_reach(Fock(dim - 1), 1.0, 0.0, 1e-12)
    return _JobSizes(K, radial, angular, x_count)


def _cosine_integrals(rows: np.ndarray, dy: float, k: np.ndarray) -> np.ndarray:
    """Twice the trapezoid of each row times cos(y k) over the half grid
    y = j dy, j < rows.shape[1], whose end node and y = 0 count half: the
    X integral of every even row at every radius k, shape (len(rows),
    len(k)).  The cosine table, weights folded in, is built and multiplied
    in one block of x nodes at a time (`specialfn.cosine_blocks`), so no
    part of it holds more than _X_BLOCK_ENTRIES entries."""
    count = rows.shape[1]
    trap = np.full(count, 2.0 * dy)
    trap[[0, -1]] *= 0.5
    out = np.zeros((len(rows), len(k)))
    part = np.empty_like(out)
    for start, block in cosine_blocks(dy, count, k, _X_BLOCK_ENTRIES):
        stop = start + len(block)
        block *= trap[start:stop, None]
        out += np.matmul(rows[:, start:stop], block, out=part)
    return out


def reconstruct_single_mode(tomogram: Callable, dim: int) -> DensityMatrix:
    """Integrate e^{iX} U(mu, nu) w(X, mu, nu) over X and all frames.

    tomogram(y, mu, nu) must return the normalized density of the
    observable mu q + nu p at hbar = 1 (a tomogram w at hbar enters as
    s w(s y; mu, nu), s = sqrt(hbar)), and it must be even in X, as every
    parity eigenstate's tomogram and every mixture of them is.  It is called
    once per job: y is the half grid y >= 0 (x_count/2 + 1 nodes from
    exactly 0.0), and mu, nu are (angular_nodes/2, 1) columns holding
    the unit frames (cos theta, sin theta) at theta = j 2 pi /
    angular_nodes in [0, pi).  It returns the (angular_nodes/2,
    x_count/2 + 1) table of every frame's row, as `marginals.tomogram`
    does for array frames.
    dim must contain the true state's support.  The result is
    trace-rescaled.  Truncation leakage is a flag in the metadata, not
    an error: meta["truncation_leakage"] is set when the pre-rescale
    trace is off by more than 5% or the characteristic function at the
    outermost radial node exceeds _CUTOFF_CHAR_MAX at some angle, and
    meta holds both values.
    """
    K, radial, angular, x_count = _job_sizes(dim)

    gl_nodes, gl_weights = _gauss_legendre(radial)
    k_nodes = 0.5 * (gl_nodes + 1.0) * K
    k_weights = 0.5 * gl_weights * K
    half = angular // 2
    d_theta = 2.0 * math.pi / angular

    # unit-frame X grid: any state inside the truncation has variance at
    # most dim + 1/2 there; radius k uses this grid scaled by k.  Rows are
    # even, so one call on the half grid y >= 0 at the unit frames of
    # [0, pi) gives every row, and their cosine integrals over the whole
    # grid are twice the half grid's trapezoid
    count = x_count // 2 + 1
    dy = 2.0 * _X_SIGMAS * math.sqrt(dim + 0.5) / x_count
    ys = np.arange(count) * dy
    mus = np.array([[math.cos(j * d_theta)] for j in range(half)])
    nus = np.array([[math.sin(j * d_theta)] for j in range(half)])
    # the X integral at theta and at theta + pi
    cos_int = _cosine_integrals(tomogram(ys, mus, nus), dy, k_nodes)
    cutoff_char = float(np.max(np.abs(cos_int[:, -1])))

    # angular Fourier sum for the even offsets d = m - n >= 0, with the
    # element phase (-i)^d folded in: twice the cosine integrals times
    # (-1)^{d/2}.  Odd offsets, whose sine integrals vanish, stay zero
    offsets = np.arange(0, dim, 2)
    fourier = np.exp(1j * np.outer(offsets, np.arange(half) * d_theta))
    C = (fourier @ cos_int) * (np.where(offsets % 4 == 0, 2.0, -2.0)[:, None]
                               * (k_weights * k_nodes * (d_theta / (2 * math.pi))))

    # column n of the lower triangle: entry (n + d, n) sums C[d/2] times the
    # element modulus f_n^(d)(k^2 / 2); the upper triangle is its conjugate
    rho_m = np.zeros((dim, dim), dtype=complex)
    for n, f in enumerate(laguerre_gauss_levels(dim, 0.5 * k_nodes * k_nodes, offsets)):
        rho_m[n::2, n] = np.einsum("dr,dr->d", C[:len(f)], f)
    rho_m += np.tril(rho_m, -1).conj().T
    pre_trace = float(np.trace(rho_m).real)
    if pre_trace <= 0:
        raise NumericalError(f"pre-rescale trace {pre_trace} is not positive")
    leakage = abs(pre_trace - 1.0) > 0.05 or cutoff_char > _CUTOFF_CHAR_MAX
    meta = {"pre_rescale_trace": pre_trace, "truncation_leakage": leakage,
            "cutoff_char_function": cutoff_char, "frame_radius": K, "working_dim": dim}
    return DensityMatrix(dim=dim, entries=rho_m / pre_trace, meta=meta)


def fidelity(rho: DensityMatrix, psi: FockExpansion) -> float:
    """<psi| rho |psi>, clipped only by the caller's tolerance checks."""
    v = np.zeros(rho.dim, dtype=complex)
    upto = min(rho.dim, psi.truncation + 1)
    v[:upto] = psi.coefficients[:upto]
    val = np.real(v.conj() @ rho.entries @ v)
    return float(val)
