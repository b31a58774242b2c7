import ast
import inspect
from pathlib import Path

import cmtomo


def test_public_names_are_pinned():
    # every name `from cmtomo import *` binds, submodules included; a
    # rename or removal in the public API must change this list
    assert cmtomo.__all__ == [
        "CalibrationError", "CltReport", "CmtomoError", "CoherentEven", "CoherentOdd",
        "ConfigError", "ConvergenceError", "DensityMatrix", "Fock", "FockExpansion", "Grid",
        "GridSizeError", "HbarReport", "MarginalDensity", "ModeGroup", "ModeSpec", "Moments",
        "NumericalError", "SampleCounts", "SystemSpec", "cf_product", "char_function", "clt",
        "convolution", "convolve_fft", "energy", "errors", "evenodd_var_closed", "fidelity",
        "fock_expansion", "gaussian_distance", "hbar_for_fixed_energy", "hbar_scan",
        "hermite_sq_density_factor", "lyapunov_ratio", "marginal_density", "marginals",
        "marginals_for_system", "mass_within", "moments", "n_scan", "quadrature_matrices",
        "reconstruct", "reconstruct_single_mode", "report", "sample_sum", "specialfn", "states",
        "tomogram", "tomogram_oracle", "variance",
    ]


# str(inspect.signature(...)) of every public function and of every public
# class but the exceptions, whose signatures are the builtin ones; a new
# parameter, a new default or a field added to a report type shows here
SIGNATURES = {
    "CltReport": ("(N: 'int', hbar: 'float', S_N: 'float', sigma2: 'float', rE: 'float', RE: 'float', "
                  "ks: 'float', tv: 'float') -> None"),
    "CoherentEven": "(alpha: 'complex') -> None",
    "CoherentOdd": "(alpha: 'complex') -> None",
    "DensityMatrix": "(dim: 'int', entries: 'np.ndarray', meta: 'dict' = <factory>) -> None",
    "Fock": "(n: 'int') -> None",
    "FockExpansion": "(coefficients: 'np.ndarray', truncation: 'int') -> None",
    "Grid": "(dx: 'float', count: 'int') -> None",
    "HbarReport": ("(hbar: 'float', sigma2: 'float', mass_in_epsilon: 'float', "
                   "gaussian_predicted_mass: 'float') -> None"),
    "MarginalDensity": "(grid: 'Grid', values: 'np.ndarray', meta: 'dict' = <factory>) -> None",
    "ModeGroup": "(mode: 'ModeSpec', mu: 'float', nu: 'float', count: 'int' = 1) -> None",
    "Moments": "(mean: 'float', var: 'float', abs3: 'float') -> None",
    "SampleCounts": ("(grid: 'Grid', n: 'int', at_or_below: 'np.ndarray', below: 'np.ndarray', "
                     "cells: 'np.ndarray') -> None"),
    "SystemSpec": "(groups: 'tuple', hbar: 'float') -> None",
    "cf_product": "(marginals: 'list[MarginalDensity]', counts: 'list[int]') -> 'MarginalDensity'",
    "char_function": "(mode: 'ModeSpec', mu: 'float', nu: 'float', hbar: 'float', k) -> 'np.ndarray'",
    "convolve_fft": "(marginals: 'list[MarginalDensity]', counts: 'list[int]') -> 'MarginalDensity'",
    "energy": "(sys: 'SystemSpec') -> 'float'",
    "evenodd_var_closed": ("(mode: 'CoherentEven | CoherentOdd', mu: 'float', nu: 'float', "
                           "hbar: 'float') -> 'float'"),
    "fidelity": "(rho: 'DensityMatrix', psi: 'FockExpansion') -> 'float'",
    "fock_expansion": "(mode: 'ModeSpec', D: 'int | None' = None) -> 'FockExpansion'",
    "gaussian_distance": "(d: 'MarginalDensity', sigma2: 'float') -> 'dict'",
    "hbar_for_fixed_energy": "(E: 'float', groups) -> 'float'",
    "hbar_scan": "(sys_base: 'SystemSpec', hbar_list, epsilon: 'float') -> 'list[HbarReport]'",
    "hermite_sq_density_factor": "(n: 'int', y)",
    "lyapunov_ratio": "(per_mode_moments: 'list[Moments]', counts: 'list[int]') -> 'float'",
    "marginal_density": ("(mode: 'ModeSpec', mu: 'float', nu: 'float', hbar: 'float', "
                         "grid: 'Grid | None' = None) -> 'MarginalDensity'"),
    "marginals_for_system": "(sys: 'SystemSpec') -> 'list[MarginalDensity]'",
    "mass_within": "(d: 'MarginalDensity', epsilon: 'float') -> 'float'",
    "moments": "(d) -> 'Moments'",
    "n_scan": ("(modes_schedule, frame_schedule, E: 'float', N_list, r: 'float', "
               "R: 'float') -> 'list[CltReport]'"),
    "quadrature_matrices": "(dim: 'int', hbar: 'float') -> 'tuple[np.ndarray, np.ndarray]'",
    "reconstruct_single_mode": "(tomogram: 'Callable', dim: 'int', hbar: 'float') -> 'DensityMatrix'",
    "sample_sum": ("(sys: 'SystemSpec', n_samples: 'int', seed: 'int', "
                   "marginals: 'list[MarginalDensity]') -> 'SampleCounts'"),
    "tomogram": "(mode: 'ModeSpec', mu: 'float', nu: 'float', hbar: 'float', X)",
    "tomogram_oracle": ("(psi: 'FockExpansion', mu: 'float', nu: 'float', hbar: 'float', "
                        "grid: 'Grid') -> 'MarginalDensity'"),
    "variance": "(mode: 'ModeSpec', mu: 'float', nu: 'float', hbar: 'float') -> 'float'",
}


def test_public_signatures_are_pinned():
    objects = {name: getattr(cmtomo, name) for name in cmtomo.__all__}
    got = {name: str(inspect.signature(obj)) for name, obj in objects.items()
           if inspect.isfunction(obj) or (inspect.isclass(obj) and not issubclass(obj, BaseException))}
    assert got == SIGNATURES


def test_library_emits_and_silences_no_warning():
    # every diagnostic is returned in metadata and written to a header, so
    # no module raises a warning or filters one away
    calls = {"warn", "warn_explicit", "simplefilter", "filterwarnings"}
    found = []
    for path in sorted(Path(cmtomo.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in calls
                    and isinstance(node.value, ast.Name) and node.value.id == "warnings"):
                found.append(f"{path.name}:{node.lineno} warnings.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "warnings":
                found.append(f"{path.name}:{node.lineno} from warnings import")
    assert found == []
