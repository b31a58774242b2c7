"""Quadrature (symplectic) and center-of-mass tomograms of oscillator states.

Single-mode tomograms of number states and even/odd coherent
superpositions, their N-mode convolutions, Gaussianization and
classical-limit scans, and single-mode density-matrix reconstruction.
"""

__version__ = "0.1.0"

from .clt import CltReport, HbarReport, gaussian_distance, hbar_scan, lyapunov_ratio, mass_within, n_scan
from .convolution import SampleCounts, cf_product, convolve_fft, marginals_for_system, sample_sum
from .errors import (
    CalibrationError,
    CmtomoError,
    ConfigError,
    ConvergenceError,
    GridSizeError,
    NormalizationMismatchWarning,
    NumericalError,
    TruncationLeakageWarning,
)
from .marginals import (
    Grid,
    MarginalDensity,
    Moments,
    char_function,
    evenodd_var_closed,
    marginal_density,
    moments,
    tomogram,
    tomogram_oracle,
    variance,
)
from .reconstruct import DensityMatrix, fidelity, reconstruct_single_mode
from .report import quadrature_matrices
from .specialfn import hermite_sq_density_factor
from .states import (
    CoherentEven,
    CoherentOdd,
    Fock,
    FockExpansion,
    ModeGroup,
    ModeSpec,
    SystemSpec,
    energy,
    fock_expansion,
    hbar_for_fixed_energy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
