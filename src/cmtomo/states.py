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

# most levels an auto-grown cat expansion may hold
_TRUNCATION_CAP = 512
_TAIL_BOUND = 1e-12
# Smallest supported odd |alpha|.  The odd density, normalization and
# characteristic function are formed without cancellation and are exact
# to rounding at any |alpha|, but smaller moduli are not tested through
# the oracle and the report rows.  At the bound the state departs from
# the number state |1> by 0.55 |alpha|^2 = 5.5e-11 of the peak.
ODD_ALPHA_MIN = 1e-5
# Largest supported cat |alpha|.  A cat grid resolves the interference
# fringes, of wavelength pi s / (sqrt(2) |alpha|), across the envelope:
# at least 81 |alpha| nodes on any frame, so no cat past |alpha| = 5.2e4
# fits the 2**22-node grid cap.  The bound is the next power of ten and
# keeps |alpha|^2 and the densities' exponents far from overflow.
ALPHA_MAX = 1e5
# Highest supported Fock level: the Hermite and Laguerre recurrences are
# checked against high-precision values up to it.
FOCK_LEVEL_MAX = 1000
# Largest supported mode count.  No numerical layer's cost grows with N;
# the header text and the Monte-Carlo streams, one per mode, do.
N_MAX = 2 ** 22


@dataclass(frozen=True)
class Fock:
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise ValueError("Fock level must be a nonnegative integer")
        if self.n > FOCK_LEVEL_MAX:
            raise ValueError(f"Fock level must be at most {FOCK_LEVEL_MAX}, got {self.n}")


def check_alpha(alpha: complex) -> None:
    """Reject a cat amplitude with a non-finite part or |alpha| > ALPHA_MAX."""
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError(f"alpha must be finite, got {alpha}")
    # hypot, not abs: abs raises OverflowError once |alpha| passes the largest double
    size = math.hypot(alpha.real, alpha.imag)
    if size > ALPHA_MAX:
        raise ValueError(f"cat states require |alpha| <= {ALPHA_MAX:g}, got {size:.6g}")


@dataclass(frozen=True)
class CoherentEven:
    alpha: complex
    parity = "even"
    sign = 1            # |alpha> + sign |-alpha>

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))
        check_alpha(self.alpha)


@dataclass(frozen=True)
class CoherentOdd:
    alpha: complex
    parity = "odd"
    sign = -1

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))
        check_alpha(self.alpha)
        if abs(self.alpha) < ODD_ALPHA_MIN:
            # zero norm at alpha = 0; rounding swamps the state below the bound
            raise ValueError(f"odd coherent states require |alpha| >= {ODD_ALPHA_MIN:g}, got {abs(self.alpha):.6g}")


ModeSpec = Union[Fock, CoherentEven, CoherentOdd]


@dataclass(frozen=True)
class ModeGroup:
    """count independent copies of one mode, each measured along mu x + nu p."""

    mode: ModeSpec
    mu: float
    nu: float
    count: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.count, (int, np.integer)) or self.count < 1:
            raise ValueError(f"a mode group needs a positive integer count, got {self.count!r}")


def _mode_text(mode: ModeSpec) -> str:
    if isinstance(mode, Fock):
        return f"fock {mode.n}"
    return f"{mode.parity} {mode.alpha.real:.17g} {mode.alpha.imag:.17g}"


@dataclass(frozen=True)
class SystemSpec:
    """A product of independent single-mode states, as a multiset of groups:
    equal (mode, mu, nu) merge into the first of them, in first-appearance order."""

    groups: tuple
    hbar: float

    def __post_init__(self) -> None:
        merged: dict = {}
        for g in self.groups:
            key = (g.mode, g.mu, g.nu)
            merged[key] = merged.get(key, 0) + g.count
        object.__setattr__(self, "groups", tuple(ModeGroup(*key, count) for key, count in merged.items()))
        if not self.groups:
            raise ValueError("a system needs at least one mode")
        if self.n_modes > N_MAX:
            raise ValueError(f"a system holds at most N_MAX = {N_MAX} modes, got {self.n_modes}")
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError("hbar must be positive and finite")

    @classmethod
    def from_modes(cls, modes, mu, nu, hbar: float) -> "SystemSpec":
        """The system of per-mode sequences: mode i measured along mu[i] x + nu[i] p."""
        modes, mu, nu = tuple(modes), tuple(mu), tuple(nu)
        if not len(modes) == len(mu) == len(nu):
            raise ValueError("modes, mu and nu must have the same length")
        return cls(tuple(ModeGroup(*key) for key in zip(modes, mu, nu)), hbar)

    @classmethod
    def cycled(cls, pattern, n_modes: int, hbar: float) -> "SystemSpec":
        """n_modes modes, mode i the (mode, mu, nu) of pattern[i mod P]: the
        first n_modes mod P groups of the pattern take one copy more than
        the rest, which take n_modes // P."""
        period = len(pattern)
        return cls(tuple(ModeGroup(g.mode, g.mu, g.nu, n_modes // period + (i < n_modes % period))
                         for i, g in enumerate(pattern[:n_modes])), hbar)

    @property
    def n_modes(self) -> int:
        return sum(self.counts)

    @property
    def counts(self) -> list[int]:
        return [g.count for g in self.groups]

    def _per_mode(self, text, sep: str) -> str:
        """text(group) once per mode, in group order, joined by sep."""
        return sep.join(sep.join([text(g)] * g.count) for g in self.groups)

    def describe(self) -> str:
        return f"hbar={self.hbar:.17g}; " + self._per_mode(lambda g: _mode_text(g.mode), "; ")

    def describe_frame(self, r: float, R: float) -> str:
        mus = self._per_mode(lambda g: f"{g.mu:.17g}", " ")
        nus = self._per_mode(lambda g: f"{g.nu:.17g}", " ")
        return f"mu={mus}; nu={nus}; r={r:.17g}; R={R:.17g}"


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


def cat_weight(mode: CoherentEven | CoherentOdd) -> float:
    """1 + e^{-2|a|^2} (even) or 1 - e^{-2|a|^2} (odd): the squared norm
    of |a> +- |-a>, over 2.

    The odd weight is -expm1(-2|a|^2), which keeps full relative
    precision as |a| -> 0 where 1 - e^{-2|a|^2} would round to 0.
    """
    a2 = abs(mode.alpha) ** 2
    if mode.sign > 0:
        return 1.0 + math.exp(-2.0 * a2)
    return -math.expm1(-2.0 * a2)


def _cat_tail(mode: CoherentEven | CoherentOdd, D: int) -> float:
    """Relative weight above level D, from the exact even/odd series sums."""
    # e^{-a2} cosh(a2) and e^{-a2} sinh(a2), overflow-free
    total = 0.5 * cat_weight(mode)
    probs = np.abs(coherent_amplitudes(mode.alpha, D)) ** 2
    partial = probs[0::2].sum() if mode.sign > 0 else probs[1::2].sum()
    return max(0.0, 1.0 - partial / total)


def fock_expansion(mode: ModeSpec, D: int | None = None) -> FockExpansion:
    """Level-basis expansion of a mode, with auto-grown truncation.

    The truncation doubles until the pre-normalization tail weight drops
    below 1e-12, up to _TRUNCATION_CAP levels; even (odd) superpositions
    carry exactly zero amplitude on odd (even) levels.
    """
    if isinstance(mode, Fock):
        size = mode.n if D is None else D
        if size < mode.n:
            raise ValueError("truncation below the populated level")
        c = np.zeros(size + 1, dtype=complex)
        c[mode.n] = 1.0
        return FockExpansion(coefficients=c, truncation=size)

    alpha = mode.alpha
    if D is None:
        a2 = abs(alpha) ** 2
        D = max(8, int(math.ceil(a2 + 10.0 * math.sqrt(a2 + 1.0))))
        if D > _TRUNCATION_CAP:
            raise ConvergenceError(
                f"truncation cap {_TRUNCATION_CAP} below the level support needed for alpha={alpha}"
            )
        while _cat_tail(mode, D) >= _TAIL_BOUND:
            D *= 2
            if D > _TRUNCATION_CAP:
                raise ConvergenceError(
                    f"truncation cap {_TRUNCATION_CAP} reached before tail bound for alpha={alpha}"
                )
    elif _cat_tail(mode, D) >= _TAIL_BOUND:
        raise ConvergenceError(f"tail above level {D} exceeds 1e-12 for alpha={alpha}")

    amp = coherent_amplitudes(alpha, D)
    c = np.zeros(D + 1, dtype=complex)
    lowest = 0 if mode.sign > 0 else 1
    c[lowest::2] = amp[lowest::2]
    c = c / np.linalg.norm(c)
    return FockExpansion(coefficients=c, truncation=D)


def mode_mean_occupation(mode: ModeSpec) -> float:
    """<n> in closed form: n, |a|^2 tanh|a|^2 (even) or |a|^2 coth|a|^2 (odd)."""
    if isinstance(mode, Fock):
        return float(mode.n)
    a2 = abs(mode.alpha) ** 2
    if mode.sign > 0:
        return a2 * math.tanh(a2)
    return a2 / math.tanh(a2)


def energy(sys: SystemSpec) -> float:
    """Total oscillator energy hbar * sum_i (1/2 + <n>_i)."""
    return sys.hbar * (0.5 * sys.n_modes + sum(g.count * mode_mean_occupation(g.mode) for g in sys.groups))


def hbar_for_fixed_energy(E: float, groups) -> float:
    """The unique hbar giving mode groups total energy E: every <n>_i is
    independent of hbar, so hbar = E / sum_i (1/2 + <n>_i)."""
    if E <= 0:
        raise ValueError("energy must be positive")
    return E / energy(SystemSpec(tuple(groups), 1.0))
