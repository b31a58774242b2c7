"""Recover a truncated density matrix from a single-mode tomogram.

The state is the frame integral of e^{iX} U(mu, nu) against the
tomogram, with U = exp(-i(mu Q + nu P)) and a constant hbar/(2 pi); the
scalar X integral is the tomogram's characteristic function at 1.  The
integral over frames runs in polar coordinates (k, theta) up to a
radius cutoff, and two identities reduce it to one eigendecomposition
and one tomogram evaluation per pair of opposite angles:

* the rotated generator is a phase conjugation of Q alone,
  cos(theta) Q + sin(theta) P = D Q D^dagger with D = diag(e^{i theta m}),
  so the eigenvectors of the real symmetric Q serve every angle and
  entry (m, n) of each angle's term carries the phase e^{i theta (m-n)};
* a tomogram is homogeneous in its frame, w(l X; l mu, l nu) =
  w(X; mu, nu) / |l| for every real l != 0.  For l > 0 the X grid at
  radius k is the unit-frame grid scaled by k, so the X integral at
  every radius is a Fourier sum of the unit-frame tomogram on one grid.
  For l = -1 the tomogram at theta + pi is the one at theta with X
  reversed, so the angular node count is even and each call, on the X
  grid closed under X -> -X by one extra node, fills two rows.

Every true tomogram is homogeneous; a callable that is not will be
reconstructed wrongly.

The X grid is uniform, so its phase table e^{i y k} over the x_count
nodes and the radial nodes comes from `specialfn.phase_table`:
(x_count/P + P) exponentials per radial node, P ~ sqrt(x_count), not
x_count.  Its cosine and sine enter the X integral as two real matrix
products with the real tomogram block.  The Gauss-Legendre radial rule
is built once per node count and process.

Truncation contract: the exponentials are evaluated in a padded working
basis large enough to hold every displacement reached by the radial
cutoff, then cropped; without the padding the exponential of the
truncated generator is wrong in exactly the entries being accumulated.

Size contract: every table a job builds holds at most 2^22 entries,
checked before the first is allocated; a larger job raises
GridSizeError.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GridSizeError, NumericalError, TruncationLeakageWarning
from .marginals import _MAX_GRID
from .specialfn import phase_table
from .states import FockExpansion


class CutoffError(ValueError):
    """An invalid ReconstructionCutoffs field, named by `field`."""

    def __init__(self, name: str, problem: str) -> None:
        super().__init__(f"{name} {problem}")
        self.field = name


@dataclass(frozen=True)
class ReconstructionCutoffs:
    """Quadrature cutoffs; None picks scale-aware defaults."""

    frame_radius: float | None = None     # default 10/sqrt(hbar)
    radial_nodes: int = 160
    angular_nodes: int = 128
    x_sigmas: float = 10.0
    x_points: int = 1024

    def __post_init__(self) -> None:
        for name in ("radial_nodes", "angular_nodes", "x_points"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise CutoffError(name, f"must be a positive integer, got {value!r}")
        for name in ("frame_radius", "x_sigmas"):
            value = getattr(self, name)
            if value is None and name == "frame_radius":
                continue
            if not (isinstance(value, (int, float, np.integer, np.floating)) and 0 < value < math.inf):
                raise CutoffError(name, f"must be positive and finite, got {value!r}")
        if self.angular_nodes % 2:
            # opposite frames share one tomogram call (see the module docstring)
            raise CutoffError("angular_nodes", f"must be even, got {self.angular_nodes!r}")


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


def quadrature_matrices(dim: int, hbar: float) -> tuple[np.ndarray, np.ndarray]:
    """Truncated position and momentum matrices Q, P in the level basis.

    Q_{k,k+1} = sqrt(hbar (k+1)/2); P_{k,k+1} = -i sqrt(hbar (k+1)/2).
    [Q, P] = i hbar I on all but the final basis level.
    """
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    off = np.sqrt(hbar * (np.arange(1, dim)) / 2.0)
    Q = np.diag(off, 1) + np.diag(off, -1)
    P = np.diag(-1j * off, 1) + np.diag(1j * off, -1)
    return Q.astype(complex), P


@functools.cache
def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The count-node Gauss-Legendre rule on [-1, 1], built once per
    process; the arrays are read-only because every caller shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(count)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _job_sizes(dim: int, hbar: float, cutoffs: ReconstructionCutoffs) -> tuple[float, int, int]:
    """(frame radius K, working dimension W, X node count) of a job.

    Raises GridSizeError, before anything is allocated, if any table the
    job builds would hold more entries than a grid may have nodes
    (_MAX_GRID).
    """
    K = cutoffs.frame_radius if cutoffs.frame_radius is not None else 10.0 / math.sqrt(hbar)
    xi_max_sq = hbar * K * K / 2.0   # phase-space displacement reach of the cutoff
    # the working basis grows with the displacement reach of the cutoff; a
    # reach past float range (K^2 overflowing) fails the W^2 check below
    pad = xi_max_sq + 6.0 * math.sqrt(xi_max_sq) + 2.0 * math.sqrt(dim * xi_max_sq)
    W = dim + math.ceil(pad) + 8 if pad < math.inf else math.inf
    x_count = int(cutoffs.x_points)
    while x_count < 32 * dim:
        x_count *= 2
    angular, radial = cutoffs.angular_nodes, cutoffs.radial_nodes
    tables = {
        "angular_nodes x x_count (tomogram rows)": angular * x_count,
        "x_count x radial_nodes (X phase table)": x_count * radial,
        "angular_nodes x radial_nodes (X integrals)": angular * radial,
        "radial_nodes^2 (Gauss-Legendre rule)": radial * radial,
        "W^2 (working-basis Q)": W * W,
        "radial_nodes x W (eigenvalue phases)": radial * W,
        "dim^2 x W (assembly)": dim * dim * W,
    }
    for name, entries in tables.items():
        if entries > _MAX_GRID:
            raise GridSizeError(f"reconstruction table {name} would hold more than {_MAX_GRID} "
                                f"entries (dim {dim}, W {W:.6g}, x_count {x_count})")
    return K, W, x_count


def reconstruct_single_mode(tomogram: Callable, dim: int, hbar: float,
                            cutoffs: ReconstructionCutoffs | None = None) -> DensityMatrix:
    """Integrate e^{iX} U(mu, nu) w(X, mu, nu) over X and all frames.

    tomogram(X: ndarray, mu, nu) must return the normalized density of
    the observable mu q + nu p; it is called only at angles in [0, pi).
    dim must contain the true state's support.  The result is Hermitized
    and trace-rescaled; a pre-rescale trace off by more than 5% flags
    truncation leakage (warning, not an error) in the metadata.
    """
    if cutoffs is None:
        cutoffs = ReconstructionCutoffs()
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    K, W, x_count = _job_sizes(dim, hbar, cutoffs)

    gl_nodes, gl_weights = _gauss_legendre(cutoffs.radial_nodes)
    k_nodes = 0.5 * (gl_nodes + 1.0) * K
    k_weights = 0.5 * gl_weights * K
    n_theta = cutoffs.angular_nodes
    d_theta = 2.0 * math.pi / n_theta
    thetas = np.arange(n_theta) * d_theta

    # unit-frame x-grid: any state inside the truncation has variance at
    # most hbar (dim + 1/2) there; radius k uses this grid scaled by k.
    # The tomogram also gets one node at +x_count/2 dy, which closes the
    # grid under X -> -X
    sigma_unit = math.sqrt(hbar * (dim + 0.5))
    dy = 2.0 * cutoffs.x_sigmas * sigma_unit / x_count
    ys = (np.arange(x_count + 1) - x_count / 2) * dy
    trap = np.full(x_count, dy)
    trap[[0, -1]] *= 0.5

    half = n_theta // 2
    w1 = np.empty((n_theta, x_count))
    for j, theta in enumerate(thetas[:half]):
        row = tomogram(ys, math.cos(theta), math.sin(theta))
        w1[j] = row[:-1]
        # w(X; -mu, -nu) = w(-X; mu, nu): the row at theta + pi, reversed
        w1[j + half] = row[:0:-1]
    # the trapezoid X integral at each (angle, radius), with its quadrature
    # weight, as two real matrix products against the weighted cosine and
    # sine; each weighted part is a contiguous temporary, freed after its product
    phases = phase_table(ys[0], dy, x_count, k_nodes)
    radial = k_weights * k_nodes * d_theta
    coefs = (w1 @ (trap[:, None] * phases.real) + 1j * (w1 @ (trap[:, None] * phases.imag))) * radial
    # angular Fourier sum for each offset d = m - n of the cropped block
    offsets = np.arange(1 - dim, dim)
    C = np.exp(1j * np.outer(offsets, thetas)) @ coefs

    lam, V = np.linalg.eigh(quadrature_matrices(W, hbar)[0].real)
    G = C @ np.exp(-1j * np.outer(k_nodes, lam))
    Vd = V[:dim]
    levels = np.arange(dim)
    acc = np.einsum("ml,nl,mnl->mn", Vd, Vd, G[levels[:, None] - levels[None, :] + dim - 1])
    rho_m = acc * hbar / (2.0 * math.pi)
    rho_m = 0.5 * (rho_m + rho_m.conj().T)
    pre_trace = float(np.trace(rho_m).real)
    leakage = abs(pre_trace - 1.0) > 0.05
    if leakage:
        warnings.warn(
            f"pre-rescale trace {pre_trace:.6g}: state support leaks out of dim={dim}",
            TruncationLeakageWarning,
        )
    if pre_trace <= 0:
        raise NumericalError(f"pre-rescale trace {pre_trace} is not positive")
    rho_m = rho_m / pre_trace
    meta = {"pre_rescale_trace": pre_trace, "truncation_leakage": leakage,
            "frame_radius": K, "working_dim": W}
    return DensityMatrix(dim=dim, entries=rho_m, meta=meta)


def fidelity(rho: DensityMatrix, psi: FockExpansion) -> float:
    """<psi| rho |psi>, clipped only by the caller's tolerance checks."""
    v = np.zeros(rho.dim, dtype=complex)
    upto = min(rho.dim, psi.truncation + 1)
    v[:upto] = psi.coefficients[:upto]
    val = np.real(v.conj() @ rho.entries @ v)
    return float(val)
