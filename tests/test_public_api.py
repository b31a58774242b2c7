import cmtomo


def test_public_names_are_pinned():
    # every name `from cmtomo import *` binds, submodules included; a
    # rename or removal in the public API must change this list
    assert cmtomo.__all__ == [
        "CalibrationError", "CltReport", "CmtomoError", "CoherentEven", "CoherentOdd",
        "ConfigError", "ConvergenceError", "DensityMatrix", "Fock", "FockExpansion", "Grid",
        "GridSizeError", "HbarReport", "MarginalDensity", "ModeGroup", "ModeSpec", "Moments",
        "NormalizationMismatchWarning", "NumericalError", "SampleCounts", "SystemSpec",
        "TruncationLeakageWarning", "cf_product", "char_function", "clt", "convolution",
        "convolve_fft", "energy", "errors", "evenodd_var_closed", "fidelity", "fock_expansion",
        "gaussian_distance", "hbar_for_fixed_energy", "hbar_scan", "hermite_sq_density_factor",
        "lyapunov_ratio", "marginal_density", "marginals", "marginals_for_system", "mass_within",
        "moments", "n_scan", "quadrature_matrices", "reconstruct", "reconstruct_single_mode",
        "report", "sample_sum", "specialfn", "states", "tomogram", "tomogram_oracle", "variance",
    ]
