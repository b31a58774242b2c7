"""Recover a truncated density matrix from a single-mode tomogram.

The state is the frame integral of e^{iX} U(mu, nu) against the
tomogram, with U = exp(-i(mu Q + nu P)) and a constant hbar/(2 pi); the
scalar X integral is the tomogram's characteristic function at 1.  The
integral over frames runs in polar coordinates (k, theta) up to a
radius cutoff, and three identities reduce it to closed-form matrix
elements and one tomogram evaluation per pair of opposite angles:

* cos(theta) Q + sin(theta) P = D Q D^dagger with D = diag(e^{i theta m}),
  so entry (m, n) of each angle's term is <m|e^{-ikQ}|n> e^{i theta (m-n)};
* e^{-ikQ} is the displacement D(b), b = -ik sqrt(hbar/2), whose elements
  are closed forms (Cahill and Glauber, Phys. Rev. 177, 1857 (1969)):
  <m|D(b)|n> = (-i)^|m-n| f_min(m,n)^(|m-n|)(hbar k^2 / 2), with the
  normalized Laguerre functions of `specialfn.laguerre_gauss_levels`.
  They are exact in the dim x dim block: no basis is padded and nothing
  is diagonalized;
* a tomogram is homogeneous in its frame, w(l X; l mu, l nu) =
  w(X; mu, nu) / |l| for every real l != 0.  For l > 0 the X integral at
  every radius is a Fourier sum of the unit-frame tomogram on one grid.
  For l = -1 the tomogram at theta + pi is the one at theta with X
  reversed, so the angular node count is even and each call, on an X
  grid closed under X -> -X, serves both: the trapezoid over that grid
  makes the X integral at theta + pi the conjugate of the one at theta.
  Offset d = m - n then sums twice the real part for even d and twice
  i times the imaginary part for odd d, and the result is Hermitian.

Every true tomogram is homogeneous; a callable that is not will be
reconstructed wrongly.

Each row folds into its even and odd parts on y >= 0, whose cosine and
sine integrals are two real matrix products with a half-grid phase table
from `specialfn.phase_table`.  The Gauss-Legendre radial rule is built
once per node count and process.

Every size follows from dim and hbar (`_job_sizes`); none is an option.
The frame radius is the reach of level dim - 1 and scales as
1/sqrt(hbar), the X grid as sqrt(hbar), so hbar cancels from every
phase and Laguerre argument and the largest X phase is
10 sqrt(dim + 1/2) sqrt(hbar) K, 8.9e3 rad at dim 256, inside the
1e5 rad phase_table is tested to.  Size contract: every table a job
builds holds at most 2^22 entries, checked before the first table is
allocated; a larger dim (past 256) raises GridSizeError.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import GridSizeError, NumericalError, TruncationLeakageWarning
from .marginals import _MAX_GRID, char_function_reach
from .specialfn import laguerre_gauss_levels, phase_table
from .states import Fock, FockExpansion

# |characteristic function| at the outermost radial node above which the
# frame radius cuts off part of the state
_CUTOFF_CHAR_MAX = 1e-4
# half-width of the unit-frame X grid in standard deviations of the
# widest state inside the truncation
_X_SIGMAS = 10.0


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


@functools.cache
def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The count-node Gauss-Legendre rule on [-1, 1], built once per
    process; the arrays are read-only because every caller shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(count)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


class _JobSizes(NamedTuple):
    frame_radius: float
    radial_nodes: int
    angular_nodes: int
    x_count: int


def _job_sizes(dim: int, hbar: float) -> _JobSizes:
    """Every quadrature size of a job, taken from dim and hbar.

    The frame radius K is the reach of level dim - 1 at floor 1e-12
    (`char_function_reach`), (2 sqrt(2 dim - 1) + 2 sqrt(ln 1e12)) /
    sqrt(hbar); the radial rule grows with K, max(160, 3 dim) nodes.
    The angular Fourier sum over n nodes aliases offset d onto d +- n,
    and the offsets of a dim x dim matrix span 2 dim - 1 values, so n is
    max(128, 2 dim).  The X grid has the smallest power of two at least
    max(1024, 32 dim) intervals.  Raises GridSizeError, before anything
    is allocated and before K is formed, if any table the job builds
    would hold more entries than a grid may have nodes (_MAX_GRID).
    """
    radial = max(160, 3 * dim)
    angular = max(128, 2 * dim)
    x_count = 1 << (max(1024, 32 * dim) - 1).bit_length()
    half = angular // 2
    tables = {
        "tomogram rows (angular_nodes/2 x (x_count + 1))": half * (x_count + 1),
        "X phase table ((x_count/2 + 1) x radial_nodes)": (x_count // 2 + 1) * radial,
        "X integrals (angular_nodes/2 x radial_nodes)": half * radial,
        "Gauss-Legendre rule (radial_nodes^2)": radial * radial,
        "Laguerre functions (dim x radial_nodes)": dim * radial,
        "density matrix (dim^2)": dim * dim,
    }
    for name, entries in tables.items():
        if entries > _MAX_GRID:
            raise GridSizeError(f"reconstruction table {name} would hold more than {_MAX_GRID} "
                                f"entries (dim {dim}, x_count {x_count})")
    K = char_function_reach(Fock(dim - 1), 1.0, 0.0, hbar, 1e-12)
    return _JobSizes(K, radial, angular, x_count)


def reconstruct_single_mode(tomogram: Callable, dim: int, hbar: float) -> DensityMatrix:
    """Integrate e^{iX} U(mu, nu) w(X, mu, nu) over X and all frames.

    tomogram(X: ndarray, mu, nu) must return the normalized density of
    the observable mu q + nu p; it is called only at angles in [0, pi).
    dim must contain the true state's support.  The result is
    trace-rescaled.  Truncation leakage (a warning, not an error, and a
    flag in the metadata) is flagged when the pre-rescale trace is off
    by more than 5% or the characteristic function at the outermost
    radial node exceeds _CUTOFF_CHAR_MAX at some angle.
    """
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    K, radial, angular, x_count = _job_sizes(dim, hbar)

    gl_nodes, gl_weights = _gauss_legendre(radial)
    k_nodes = 0.5 * (gl_nodes + 1.0) * K
    k_weights = 0.5 * gl_weights * K
    half = angular // 2
    d_theta = 2.0 * math.pi / angular

    # unit-frame x-grid, closed under X -> -X: any state inside the
    # truncation has variance at most hbar (dim + 1/2) there; radius k
    # uses this grid scaled by k.  Each row folds into its even and odd
    # parts on the half grid y >= 0, with trapezoid weights
    dy = 2.0 * _X_SIGMAS * math.sqrt(hbar * (dim + 0.5)) / x_count
    ys = (np.arange(x_count + 1) - x_count / 2) * dy
    rows = np.array([tomogram(ys, math.cos(j * d_theta), math.sin(j * d_theta)) for j in range(half)])
    pos, neg = rows[:, x_count // 2:], rows[:, x_count // 2::-1]
    count = x_count // 2 + 1
    trap = np.full(count, dy)
    trap[[0, -1]] *= 0.5    # the end node, and y = 0, which both halves of the even part count
    # the X integral at theta is cos_int + i sin_int, at theta + pi its conjugate
    phases = phase_table(dy, count, k_nodes)
    cos_int = (pos + neg) @ (trap[:, None] * phases.real)
    sin_int = (pos - neg) @ (trap[:, None] * phases.imag)
    cutoff_char = float(np.max(np.hypot(cos_int[:, -1], sin_int[:, -1])))

    # angular Fourier sum for offset d = m - n >= 0, with the element
    # phase (-i)^d folded in: even d sums the cosine integrals and odd d
    # the sine ones, times 2 (-1)^{floor(d/2)}
    offsets = np.arange(dim)
    fourier = np.exp(1j * np.outer(offsets, np.arange(half) * d_theta))
    C = np.empty((dim, len(k_nodes)), dtype=complex)
    C[0::2] = fourier[0::2] @ cos_int
    C[1::2] = fourier[1::2] @ sin_int
    C *= np.where(offsets % 4 < 2, 2.0, -2.0)[:, None] * (k_weights * k_nodes * (d_theta * hbar / (2 * math.pi)))

    # column n of the lower triangle: entry (n + d, n) sums C[d] times the
    # element modulus f_n^(d)(hbar k^2 / 2); the upper triangle is its conjugate
    rho_m = np.zeros((dim, dim), dtype=complex)
    for n, f in enumerate(laguerre_gauss_levels(dim, 0.5 * hbar * k_nodes * k_nodes, dim)):
        rho_m[n:, n] = np.einsum("dr,dr->d", C[:dim - n], f)
    rho_m += np.tril(rho_m, -1).conj().T
    pre_trace = float(np.trace(rho_m).real)
    fired = []
    if abs(pre_trace - 1.0) > 0.05:
        fired.append(f"pre-rescale trace {pre_trace:.6g} is off 1 by more than 5%")
    if cutoff_char > _CUTOFF_CHAR_MAX:
        fired.append(f"characteristic function {cutoff_char:.3g} at the frame cutoff is above {_CUTOFF_CHAR_MAX:g}")
    if fired:
        warnings.warn(f"support leaks out of dim={dim} or the frame radius: {'; '.join(fired)}",
                      TruncationLeakageWarning)
    if pre_trace <= 0:
        raise NumericalError(f"pre-rescale trace {pre_trace} is not positive")
    meta = {"pre_rescale_trace": pre_trace, "truncation_leakage": bool(fired),
            "cutoff_char_function": cutoff_char, "frame_radius": K, "working_dim": dim}
    return DensityMatrix(dim=dim, entries=rho_m / pre_trace, meta=meta)


def fidelity(rho: DensityMatrix, psi: FockExpansion) -> float:
    """<psi| rho |psi>, clipped only by the caller's tolerance checks."""
    v = np.zeros(rho.dim, dtype=complex)
    upto = min(rho.dim, psi.truncation + 1)
    v[:upto] = psi.coefficients[:upto]
    val = np.real(v.conj() @ rho.entries @ v)
    return float(val)
