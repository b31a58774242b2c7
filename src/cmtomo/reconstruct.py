"""Recover a truncated density matrix from a single-mode tomogram.

The state is the frame integral of e^{iX} U(mu, nu) against the
tomogram, with U = exp(-i(mu Q + nu P)) and a constant hbar/(2 pi); the
scalar X integral is the tomogram's characteristic function at 1.  The
integral over frames runs in polar coordinates up to a radius cutoff;
because the generator at fixed angle is the same Hermitian matrix for
every radius, one eigendecomposition per angle yields all radial
exponentials at once, each equal to the Pade scaling-and-squaring
result to machine precision.

Truncation contract: the exponentials are evaluated in a padded working
basis large enough to hold every displacement reached by the radial
cutoff, then cropped; without the padding the exponential of the
truncated generator is wrong in exactly the entries being accumulated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericalError, TruncationLeakageWarning
from .states import FockExpansion


@dataclass(frozen=True)
class ReconstructionCutoffs:
    """Quadrature cutoffs; None picks scale-aware defaults."""

    frame_radius: float | None = None     # default 10/sqrt(hbar)
    radial_nodes: int = 160
    angular_nodes: int = 128
    x_sigmas: float = 10.0
    x_points: int = 1024


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

def reconstruct_single_mode(tomogram: Callable, dim: int, hbar: float,
                            cutoffs: ReconstructionCutoffs | None = None) -> DensityMatrix:
    """Integrate e^{iX} U(mu, nu) w(X, mu, nu) over X and all frames.

    tomogram(X: ndarray, mu, nu) must return the normalized density of
    the observable mu q + nu p; dim must contain the true state's
    support.  The result is Hermitized and trace-rescaled; a pre-rescale
    trace off by more than 5% flags truncation leakage (warning, not an
    error) in the metadata.
    """
    if cutoffs is None:
        cutoffs = ReconstructionCutoffs()
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    K = cutoffs.frame_radius if cutoffs.frame_radius is not None else 10.0 / math.sqrt(hbar)
    xi_max_sq = hbar * K * K / 2.0   # phase-space displacement reach of the cutoff
    # the working basis grows with the displacement reach of the cutoff
    pad = int(math.ceil(xi_max_sq + 6.0 * math.sqrt(xi_max_sq) + 2.0 * math.sqrt(dim * xi_max_sq))) + 8
    W = dim + pad

    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(cutoffs.radial_nodes)
    k_nodes = 0.5 * (gl_nodes + 1.0) * K
    k_weights = 0.5 * gl_weights * K
    n_theta = cutoffs.angular_nodes
    d_theta = 2.0 * math.pi / n_theta

    Qw, Pw = quadrature_matrices(W, hbar)
    # x-grid scale: any state inside the truncation has variance at most
    # hbar rho (dim + 1/2) in the frame of radius sqrt(rho)
    sigma_unit = math.sqrt(hbar * (dim + 0.5))
    x_count = cutoffs.x_points
    while x_count < 32 * dim:
        x_count *= 2

    theta_terms = np.empty((n_theta, W, W), dtype=complex)
    for j in range(n_theta):
        theta = j * d_theta
        mu0, nu0 = math.cos(theta), math.sin(theta)
        lam, V = np.linalg.eigh(mu0 * Qw + nu0 * Pw)
        coefs = np.empty(len(k_nodes), dtype=complex)
        for i, k in enumerate(k_nodes):
            sigma = k * sigma_unit
            half = cutoffs.x_sigmas * sigma
            dx = 2.0 * half / x_count
            xs = (np.arange(x_count) - x_count / 2) * dx
            w = np.asarray(tomogram(xs, k * mu0, k * nu0), dtype=float)
            coefs[i] = k_weights[i] * d_theta * k * np.trapezoid(np.exp(1j * xs) * w, dx=dx)
        g = (coefs[:, None] * np.exp(-1j * np.outer(k_nodes, lam))).sum(axis=0)
        theta_terms[j] = (V * g) @ V.conj().T

    acc = theta_terms.sum(axis=0)
    rho_m = acc[:dim, :dim] * hbar / (2.0 * math.pi)
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
