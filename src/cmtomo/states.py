"""Mode and system descriptions, Fock-basis expansions, energy bookkeeping.

Units: oscillator mass and frequency are 1 throughout; the action scale
hbar stays explicit so the classical limit hbar -> 0 can be scanned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConvergenceError

_DEFAULT_TRUNCATION_CAP = 512
_TAIL_BOUND = 1e-12
# Smallest supported odd |alpha|.  The closed-form odd density forms
# |1 - e^{-2z}|^2 with z = O(|alpha|) and errs by about 1e-16/|alpha| of
# its peak.  Near |alpha| = 6e-6 that error reaches the state's whole
# departure from the number state |1>, 0.55 |alpha|^2 of the peak; the
# bound is the decade above.
ODD_ALPHA_MIN = 1e-5


@dataclass(frozen=True)
class Fock:
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise ValueError("Fock level must be a nonnegative integer")


@dataclass(frozen=True)
class CoherentEven:
    alpha: complex
    parity = "even"

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))


@dataclass(frozen=True)
class CoherentOdd:
    alpha: complex
    parity = "odd"

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))
        if abs(self.alpha) < ODD_ALPHA_MIN:
            # zero norm at alpha = 0; rounding swamps the state below the bound
            raise ValueError(f"odd coherent states require |alpha| >= {ODD_ALPHA_MIN:g}, got {abs(self.alpha):.6g}")


ModeSpec = Union[Fock, CoherentEven, CoherentOdd]


@dataclass(frozen=True)
class SystemSpec:
    """An ordered product of independent single-mode states."""

    modes: tuple
    hbar: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", tuple(self.modes))
        if len(self.modes) == 0:
            raise ValueError("a system needs at least one mode")
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError("hbar must be positive and finite")

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def describe(self) -> str:
        parts = []
        for m in self.modes:
            if isinstance(m, Fock):
                parts.append(f"fock {m.n}")
            else:
                parts.append(f"{m.parity} {m.alpha.real:.17g} {m.alpha.imag:.17g}")
        return f"hbar={self.hbar:.17g}; " + "; ".join(parts)


@dataclass(frozen=True)
class FrameSpec:
    """Per-mode quadrature directions (mu_i, nu_i) with radius bounds r, R."""

    mu: tuple
    nu: tuple
    r: float
    R: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", tuple(float(v) for v in self.mu))
        object.__setattr__(self, "nu", tuple(float(v) for v in self.nu))
        if len(self.mu) != len(self.nu):
            raise ValueError("mu and nu must have the same length")
        if not (0 < self.r < self.R):
            raise ValueError("need 0 < r < R")
        for i, (m, n) in enumerate(zip(self.mu, self.nu)):
            rho = m * m + n * n
            if not (self.r < rho < self.R):
                raise ValueError(
                    f"frame radius mu^2+nu^2 = {rho:.6g} at mode {i} outside ({self.r:.6g}, {self.R:.6g})"
                )

    def describe(self) -> str:
        mus = " ".join(f"{v:.17g}" for v in self.mu)
        nus = " ".join(f"{v:.17g}" for v in self.nu)
        return f"mu={mus}; nu={nus}; r={self.r:.17g}; R={self.R:.17g}"


@dataclass
class FockExpansion:
    """Unit-norm amplitudes c_0..c_D of a pure state in the level basis."""

    coefficients: np.ndarray
    truncation: int

    def __post_init__(self) -> None:
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if self.coefficients.shape != (self.truncation + 1,):
            raise ValueError("coefficient count must equal truncation + 1")
        norm = np.linalg.norm(self.coefficients)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"expansion norm {norm} is not 1 within 1e-10")

    def mean_occupation(self) -> float:
        return float(np.sum(np.arange(self.truncation + 1) * np.abs(self.coefficients) ** 2))


def coherent_amplitudes(alpha: complex, D: int) -> np.ndarray:
    """Coherent-state amplitudes e^{-|a|^2/2} alpha^k / sqrt(k!), k = 0..D.

    The Gaussian prefactor keeps every value bounded by one, so the
    cumulative product cannot overflow for any reachable alpha.
    """
    amp = np.ones(D + 1, dtype=complex)
    amp[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for k in range(1, D + 1):
        amp[k] = amp[k - 1] * alpha / math.sqrt(k)
    return amp


def coherent_expansion(alpha: complex, D: int) -> FockExpansion:
    """Truncated expansion of a coherent state, renormalized to unit norm."""
    amp = coherent_amplitudes(alpha, D)
    norm = np.linalg.norm(amp)
    if norm == 0.0:
        raise ConvergenceError(f"coherent amplitudes underflow for alpha={alpha}")
    return FockExpansion(coefficients=amp / norm, truncation=D)


def cat_weight(alpha: complex, parity: str) -> float:
    """1 + e^{-2|a|^2} (even) or 1 - e^{-2|a|^2} (odd): the squared norm
    of |a> +- |-a>, over 2.

    The odd weight is -expm1(-2|a|^2), which keeps full relative
    precision as |a| -> 0 where 1 - e^{-2|a|^2} would round to 0.
    """
    a2 = abs(alpha) ** 2
    if parity == "even":
        return 1.0 + math.exp(-2.0 * a2)
    if a2 == 0.0:
        raise ValueError("odd superposition undefined at alpha = 0")
    return -math.expm1(-2.0 * a2)


def _cat_tail(alpha: complex, parity: str, D: int) -> float:
    """Relative weight above level D, from the exact even/odd series sums."""
    # e^{-a2} cosh(a2) and e^{-a2} sinh(a2), overflow-free
    total = 0.5 * cat_weight(alpha, parity)
    probs = np.abs(coherent_amplitudes(alpha, D)) ** 2
    partial = probs[0::2].sum() if parity == "even" else probs[1::2].sum()
    return max(0.0, 1.0 - partial / total)


def fock_expansion(mode: ModeSpec, D: int | None = None, cap: int = _DEFAULT_TRUNCATION_CAP) -> FockExpansion:
    """Level-basis expansion of a mode, with auto-grown truncation.

    The truncation doubles until the pre-normalization tail weight drops
    below 1e-12; even (odd) superpositions carry exactly zero amplitude
    on odd (even) levels.
    """
    if isinstance(mode, Fock):
        size = mode.n if D is None else D
        if size < mode.n:
            raise ValueError("truncation below the populated level")
        c = np.zeros(size + 1, dtype=complex)
        c[mode.n] = 1.0
        return FockExpansion(coefficients=c, truncation=size)

    parity = mode.parity
    alpha = mode.alpha
    if D is None:
        a2 = abs(alpha) ** 2
        D = max(8, int(math.ceil(a2 + 10.0 * math.sqrt(a2 + 1.0))))
        if D > cap:
            raise ConvergenceError(
                f"truncation cap {cap} below the level support needed for alpha={alpha}"
            )
        while _cat_tail(alpha, parity, D) >= _TAIL_BOUND:
            D *= 2
            if D > cap:
                raise ConvergenceError(
                    f"truncation cap {cap} reached before tail bound for alpha={alpha}"
                )
    elif _cat_tail(alpha, parity, D) >= _TAIL_BOUND:
        raise ConvergenceError(f"tail above level {D} exceeds 1e-12 for alpha={alpha}")

    amp = coherent_amplitudes(alpha, D)
    c = np.zeros(D + 1, dtype=complex)
    if parity == "even":
        c[0::2] = amp[0::2]
    else:
        c[1::2] = amp[1::2]
    c = c / np.linalg.norm(c)
    return FockExpansion(coefficients=c, truncation=D)


def mode_mean_occupation(mode: ModeSpec) -> float:
    """<n> in closed form: n, |a|^2 tanh|a|^2 (even) or |a|^2 coth|a|^2 (odd)."""
    if isinstance(mode, Fock):
        return float(mode.n)
    a2 = abs(mode.alpha) ** 2
    if mode.parity == "even":
        return a2 * math.tanh(a2)
    return a2 / math.tanh(a2)


def energy(sys: SystemSpec) -> float:
    """Total oscillator energy hbar * sum_i (1/2 + <n>_i)."""
    occ = sum(mode_mean_occupation(m) for m in sys.modes)
    return sys.hbar * (0.5 * sys.n_modes + occ)


def hbar_for_fixed_energy(E: float, modes) -> float:
    """The unique hbar giving total energy E: every <n>_i is independent of
    hbar, so hbar = E / sum_i (1/2 + <n>_i)."""
    if E <= 0:
        raise ValueError("energy must be positive")
    modes = tuple(modes)
    if not modes:
        raise ValueError("need at least one mode")
    return E / (0.5 * len(modes) + sum(mode_mean_occupation(m) for m in modes))
