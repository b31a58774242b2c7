"""Single-mode quadrature distributions (symplectic tomograms) and moments.

A tomogram w(X, mu, nu) is the probability density of the observable
mu*q + nu*p in a given state.  Three routes are implemented:

* closed forms for number states and even/odd coherent superpositions,
* an independent amplitude oracle built from the level expansion, used
  to cross-check every closed form,
* grid moments and exact quadrature moments for the limit analyses.

All densities obey the scaling law
w(lam*X, lam*mu, lam*nu) = w(X, mu, nu)/|lam|.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CalibrationError, GridSizeError, NormalizationMismatchWarning, NumericalError
from .specialfn import hermite_functions, hermite_sq_density_factor, laguerre_gauss
from .states import (
    CoherentEven,
    CoherentOdd,
    Fock,
    FockExpansion,
    ModeSpec,
    cat_weight,
    coherent_expansion,
    fock_expansion,
)

_SQRT_PI = math.sqrt(math.pi)
_MAX_GRID = 2 ** 22
_TINY = np.finfo(float).tiny
# levels the oracle expansion carries beyond the 1e-12 tail policy
_ORACLE_EXTRA_LEVELS = 24


@dataclass(frozen=True)
class Grid:
    """Uniform grid x0 + j*dx, j = 0..count-1, power-of-two count, centred by type: x0 = -(count/2) dx."""

    dx: float
    count: int

    def __post_init__(self) -> None:
        if self.dx <= 0:
            raise ValueError("grid spacing must be positive")
        if self.count < 2 or self.count & (self.count - 1):
            raise ValueError("grid count must be a power of two")

    @property
    def x0(self) -> float:
        return -(self.count // 2) * self.dx

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.count)


def centered_grid(half_width: float, dx: float) -> Grid:
    """Smallest power-of-two grid of this exact spacing with count*dx >= 2*half_width,
    of at most _MAX_GRID nodes.

    Nodes sit at integer multiples of dx, from -(count/2) dx upward, so
    grids sharing one dx land on a common lattice: every node of the
    narrower is a node of the wider, at an index offset by half their
    count difference.
    """
    if half_width <= 0 or dx <= 0:
        raise ValueError("grid parameters must be positive")
    count = 2
    while count * dx < 2.0 * half_width:
        count *= 2
        if count > _MAX_GRID:
            raise GridSizeError(f"grid would need more than {_MAX_GRID} points")
    return Grid(dx, count)


@dataclass
class MarginalDensity:
    """A density on a uniform grid, unit trapezoid integral: a single-mode
    tomogram or the center-of-mass density of N modes."""

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
        if not abs(total - 1.0) <= 1e-8:
            raise NumericalError(f"density integral {total} is not 1 within 1e-8")


@dataclass(frozen=True)
class Moments:
    mean: float
    var: float
    abs3: float


def _scale(mu: float, nu: float, hbar: float) -> float:
    rho = mu * mu + nu * nu
    if rho <= 0:
        raise ValueError("mu and nu cannot both vanish")
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    return math.sqrt(hbar * rho)


@lru_cache(maxsize=1024)
def fock_abs3_dimensionless(n: int) -> float:
    """E|y|^3 under the dimensionless level-n density h_n(y)^2, exactly.

    With lam = 2n + 1 the Hermite function obeys h'' = (y^2 - lam) h.
    Integrating y^k (h'^2)' and y^k (h h')' by parts over y >= 0 ties the
    half-line moments A_k = int_0^inf y^k h^2 dy to the values at 0:
    A_1 = (lam h(0)^2 + h'(0)^2) / 2 and 3 A_3 = 2 lam A_1 + h(0)^2 / 2,
    and E|y|^3 = 2 A_3.  For even n, h'(0) = 0 and h_n(0)^2 is the
    product of the ratios h_j(0)^2 / h_{j-2}(0)^2 = (j - 1) / j from
    h_0(0)^2 = 1/sqrt(pi); for odd n, h(0) = 0 and
    h_n'(0)^2 = 2n h_{n-1}(0)^2.  Every factor is below one, so nothing
    overflows or cancels at any level: within 2.2e-15 of exact rational
    values to n = 1000, where numpy's Gauss-Laguerre rule overflows past
    n ~ 350.
    """
    lam = 2.0 * n + 1.0
    h0_sq = 1.0 / _SQRT_PI
    for j in range(2, n - n % 2 + 1, 2):
        h0_sq *= (j - 1) / j
    dh0_sq = 0.0
    if n % 2:
        h0_sq, dh0_sq = 0.0, 2.0 * n * h0_sq
    a1 = 0.5 * (lam * h0_sq + dh0_sq)
    return 2.0 * (2.0 * lam * a1 + 0.5 * h0_sq) / 3.0


def _cat_norm_sq(mode: CoherentEven | CoherentOdd) -> float:
    """|N_+-|^2 for the even/odd superposition of |alpha> and |-alpha>.

    Written as 1/(2(1 +- e^{-2|a|^2})) so no exponential can overflow,
    with the odd 1 - e^{-2|a|^2} taken without cancellation (`cat_weight`).
    """
    return 1.0 / (2.0 * cat_weight(mode))


def _cat_tomogram(mode: CoherentEven | CoherentOdd, mu: float, nu: float, hbar: float, X) -> np.ndarray:
    """Closed-form quadrature density of an even/odd coherent superposition.

    In t = X/s, s = sqrt(hbar (mu^2 + nu^2)), the density is
    e^{-(t^2 + u^2)} |e^{z} +- e^{-z}|^2 / (sqrt(pi) s) times the squared
    normalization, with z = (u + iv) t, where u is the scaled centre of
    |alpha>'s quadrature and v its scaled momentum along the frame; its
    shape in t does not depend on hbar.  With a = |u t| and b = v t,
    |e^{z} +- e^{-z}|^2 = e^{2a} |1 +- e^{-2(a + ib)}|^2, and the factor is
    a sum of non-negative real terms,
    |1 + e^{-2(a+ib)}|^2 = expm1(-2a)^2 + 4 e^{-2a} cos^2 b (even) and
    |1 - e^{-2(a+ib)}|^2 = expm1(-2a)^2 + 4 e^{-2a} sin^2 b (odd),
    so nothing cancels at any |alpha| and no complex transcendental is
    formed.  The exponents are combined before exponentiating, as
    e^{-(|t| - |u|)^2} expm1(-2a)^2 + 4 e^{-(t^2 + u^2)} trig^2: neither
    exponent is positive, so a large |alpha| cannot form inf * 0, and the
    completed square keeps full accuracy at the peaks |t| = |u|.
    """
    alpha = mode.alpha
    s = _scale(mu, nu, hbar)
    root_rho = math.sqrt(mu * mu + nu * nu)
    n_sq = _cat_norm_sq(mode)
    t = np.asarray(X, dtype=float) / s
    u = math.sqrt(2.0) * (alpha.real * mu + alpha.imag * nu) / root_rho
    v = math.sqrt(2.0) * (alpha.imag * mu - alpha.real * nu) / root_rho
    a = np.abs(u * t)
    trig = np.cos(v * t) if mode.sign > 0 else np.sin(v * t)
    vals = n_sq / (_SQRT_PI * s) * (np.exp(-(np.abs(t) - abs(u)) ** 2) * np.expm1(-2.0 * a) ** 2
                                    + 4.0 * np.exp(-(t * t + u * u)) * trig ** 2)
    # subnormal values carry no probability but slow every later matrix
    # product and FFT that reads them; they are returned as 0
    return np.where(vals < _TINY, 0.0, vals)


def tomogram(mode: ModeSpec, mu: float, nu: float, hbar: float, X):
    """Closed-form quadrature density of the mode at X along mu x + nu p,
    a float for a scalar X.

    The number state |n> gives hermite_sq_density_factor(n, X/s)/s with
    s^2 = hbar*(mu^2+nu^2), which depends on the frame only through that
    combination; a cat gives `_cat_tomogram`.
    """
    if isinstance(mode, Fock):
        s = _scale(mu, nu, hbar)
        out = hermite_sq_density_factor(mode.n, np.asarray(X, dtype=float) / s) / s
    else:
        out = _cat_tomogram(mode, mu, nu, hbar, X)
    if np.isscalar(X):
        return float(out)
    return out


def variance(mode: ModeSpec, mu: float, nu: float, hbar: float) -> float:
    """Exact variance of the mode's tomogram: hbar*(mu^2+nu^2)*(1/2 + n)
    for |n>, and the level-basis algebra for a cat."""
    rho = mu * mu + nu * nu
    if isinstance(mode, Fock):
        return hbar * rho * (0.5 + mode.n)
    a, b = mode.alpha.real, mode.alpha.imag
    e = math.exp(-2.0 * abs(mode.alpha) ** 2)
    return _cat_norm_sq(mode) * hbar * (
        cat_weight(mode) * rho
        + 4.0 * (a * mu + b * nu) ** 2
        - mode.sign * 4.0 * e * (b * mu - a * nu) ** 2
    )


def evenodd_var_closed(mode: CoherentEven | CoherentOdd, mu: float, nu: float, hbar: float) -> float:
    """Published closed-form variance of the even/odd tomogram, as printed.

    Kept verbatim (modulo squaring the normalization constant) for the
    discrepancy report; the trusted variance is the quadrature moment of
    the oracle density, which this expression does not always match.
    """
    a, b = mode.alpha.real, mode.alpha.imag
    e = math.exp(-2.0 * abs(mode.alpha) ** 2)
    rho = mu * mu + nu * nu
    return _cat_norm_sq(mode) * hbar * (
        (1.0 + e) * rho
        + 4.0 * (a * mu + b * nu) ** 2
        - mode.sign * 4.0 * e * (b * mu + a * nu) ** 2
    )


def grid_policy(mode: ModeSpec, mu: float, nu: float, hbar: float) -> tuple[float, float]:
    """(half_width, dx) the default grid policy assigns to this mode:
    8 sigma each side and dx <= sigma/64, finer where the density oscillates.

    A cat's density lies under two vacuum Gaussians centred on
    +-<X>_alpha (`_cat_tomogram`), and interference can squeeze its
    variance below what those tails need, so its half-width reaches at
    least 8 vacuum deviations past |<X>_alpha|."""
    s = _scale(mu, nu, hbar)
    sigma = math.sqrt(variance(mode, mu, nu, hbar))
    dx = sigma / 64.0
    if isinstance(mode, Fock):
        # the fastest H_n^2 oscillation (wavelength ~ pi/sqrt(2n+1) in y)
        # keeps >= 8 points
        return 8.0 * sigma, min(dx, s * math.pi / (8.0 * math.sqrt(2.0 * mode.n + 1.0)))
    if abs(mode.alpha) > 0:
        # resolve interference fringes: wavelength pi*s/(sqrt(2)|alpha|)
        dx = min(dx, math.pi * s / (16.0 * math.sqrt(2.0) * abs(mode.alpha)))
    # the vacuum deviation from its closed variance, which an alpha = 0 cat
    # matches bit for bit, so its grid stays the vacuum's
    peak = math.sqrt(2.0 * hbar) * abs(mu * mode.alpha.real + nu * mode.alpha.imag)
    return max(8.0 * sigma, peak + 8.0 * math.sqrt(variance(Fock(0), mu, nu, hbar))), dx


def marginal_density(mode: ModeSpec, mu: float, nu: float, hbar: float,
                     grid: Grid | None = None) -> MarginalDensity:
    """The mode's closed-form tomogram on a grid, grid_policy's by default.

    The metadata record the mode, the frame, hbar, the rescale factor and
    the pre-rescale integral.  A cat is rescaled to unit integral; a
    pre-rescale integral further than 5% from one raises
    NormalizationMismatchWarning but the computation proceeds.  A number
    state is left unscaled (rescale 1).
    """
    if grid is None:
        grid = centered_grid(*grid_policy(mode, mu, nu, hbar))
    vals = tomogram(mode, mu, nu, hbar, grid.xs)
    pre = float(np.trapezoid(vals, dx=grid.dx))
    meta = {"mode": mode, "mu": mu, "nu": nu, "hbar": hbar, "rescale": 1.0, "pre_rescale_integral": pre}
    if isinstance(mode, Fock):
        return MarginalDensity(grid=grid, values=vals, meta=meta)
    if pre <= 0:
        raise NumericalError("closed-form density integrated to a nonpositive value")
    if abs(pre - 1.0) > 0.05:
        warnings.warn(
            f"pre-rescale integral {pre:.6g} differs from 1 by more than 5%",
            NormalizationMismatchWarning,
        )
    meta["rescale"] = 1.0 / pre
    return MarginalDensity(grid=grid, values=vals / pre, meta=meta)


def tomogram_amplitudes(psi: FockExpansion, mu: float, nu: float, hbar: float, X) -> np.ndarray:
    """Probability amplitude <X; mu, nu | psi> of the quadrature observable.

    The level-k amplitude is e^{-ik theta} h_k(X/s)/sqrt(s) with
    theta = atan2(nu, mu) and s^2 = hbar (mu^2+nu^2): its squared
    modulus reproduces the number-state tomogram and the phase is fixed
    by the coherent-state (Gaussian) case.  See calibrate_oracle.
    """
    s = _scale(mu, nu, hbar)
    theta = math.atan2(nu, mu)
    X = np.asarray(X, dtype=float)
    funcs = hermite_functions(psi.truncation, X / s)
    phased = psi.coefficients * np.exp(-1j * theta * np.arange(psi.truncation + 1))
    return np.tensordot(phased, funcs, axes=(0, 0)) / math.sqrt(s)


@lru_cache(maxsize=512)
def calibrate_oracle(mu: float, nu: float, hbar: float) -> None:
    """Verify the amplitude route at this frame; raise CalibrationError if off.

    Anchors: |amplitude|^2 of pure levels 0 and 3 against the closed
    form, and mean/variance of a displaced Gaussian (coherent state)
    against sqrt(2 hbar)(mu Re a + nu Im a) and hbar rho / 2.
    """
    s = _scale(mu, nu, hbar)
    probe = centered_grid(10.0 * s * math.sqrt(3.5), s / 16.0)
    for k in (0, 3):
        c = np.zeros(k + 1, dtype=complex)
        c[k] = 1.0
        psi = FockExpansion(coefficients=c, truncation=k)
        got = np.abs(tomogram_amplitudes(psi, mu, nu, hbar, probe.xs)) ** 2
        want = tomogram(Fock(k), mu, nu, hbar, probe.xs)
        err = float(np.max(np.abs(got - want)))
        if err > 1e-8:
            raise CalibrationError(
                f"level-{k} anchor off by {err:.3e} at frame ({mu}, {nu}), hbar={hbar}"
            )
    a = 0.7 + 0.3j
    psi = coherent_expansion(a, 40)
    mean_want = math.sqrt(2.0 * hbar) * (mu * a.real + nu * a.imag)
    sigma = math.sqrt(hbar * (mu * mu + nu * nu) / 2.0)
    grid = centered_grid(abs(mean_want) + 10.0 * sigma, sigma / 64.0)
    dens = np.abs(tomogram_amplitudes(psi, mu, nu, hbar, grid.xs)) ** 2
    mean_got = float(np.trapezoid(grid.xs * dens, dx=grid.dx))
    var_got = float(np.trapezoid((grid.xs - mean_got) ** 2 * dens, dx=grid.dx))
    if abs(mean_got - mean_want) > 1e-8 or abs(var_got - sigma * sigma) > 1e-8:
        raise CalibrationError(
            f"coherent anchor off at frame ({mu}, {nu}): mean {mean_got} vs {mean_want}, "
            f"var {var_got} vs {sigma * sigma}"
        )


def tomogram_oracle(psi: FockExpansion, mu: float, nu: float, hbar: float, grid: Grid) -> MarginalDensity:
    """Tomogram of an arbitrary pure expansion via the amplitude route.

    Independent of the closed forms above except through the calibration
    anchors, which are checked (once per frame) before first use.
    """
    calibrate_oracle(mu, nu, hbar)
    vals = np.abs(tomogram_amplitudes(psi, mu, nu, hbar, grid.xs)) ** 2
    total = float(np.trapezoid(vals, dx=grid.dx))
    if abs(total - 1.0) > 1e-6:
        raise NumericalError(
            f"oracle density integrates to {total}; grid too small for the state"
        )
    meta = {"mu": mu, "nu": nu, "hbar": hbar, "rescale": 1.0 / total, "pre_rescale_integral": total}
    return MarginalDensity(grid=grid, values=vals / total, meta=meta)


def moments(d) -> Moments:
    """Trapezoid mean, variance and absolute third moment over the grid."""
    xs = d.grid.xs
    dx = d.grid.dx
    mean = float(np.trapezoid(xs * d.values, dx=dx))
    var = float(np.trapezoid((xs - mean) ** 2 * d.values, dx=dx))
    abs3 = float(np.trapezoid(np.abs(xs) ** 3 * d.values, dx=dx))
    return Moments(mean=mean, var=var, abs3=abs3)


def char_function(mode: ModeSpec, mu: float, nu: float, hbar: float, k) -> np.ndarray:
    """E e^{ikX} under the mode's tomogram at frame (mu, nu), in closed form.

    Every mode here is a parity eigenstate, so its tomogram is even in X
    and the value is real.  A number state gives e^{-u/2} L_n(u) with
    u = k^2 s^2 / 2, s^2 = hbar (mu^2 + nu^2), from the scaled Laguerre
    recurrence.  A superposition N(|a> + c|-a>) gives <cat|D(b)|cat>
    with b = i k sqrt(hbar/2) (mu + i nu): the sum of c_g c_d <g|D(b)|d>
    over g, d in {a, -a}, where <g|D(b)|d> has modulus
    e^{-|g - b - d|^2/2} (Cahill and Glauber, Phys. Rev. 177, 1857
    (1969)).  The two diagonal terms pair into
    2 e^{-|b|^2/2} cos(k <X>_a), with <X>_a = sqrt(2 hbar)(mu Re a + nu Im a),
    and the two cross terms are real and positive, e^{-|2a - b|^2/2} and
    e^{-|2a + b|^2/2}.
    The odd superposition subtracts the cross terms, which cancel the
    diagonal ones to O(|a|^2) as |a| -> 0.  With w = 1 - e^{-2|a|^2} and
    c = |2 Re(conj(a) b)| it is rearranged exactly into
    e^{-|b|^2/2} (1 - 2 sin^2(k <X>_a / 2) / w)
    - e^{-|b|^2/2 - 2|a|^2 + c} (1 - e^{-c})^2 / (2w),
    whose parts are each O(1) near a -> 0 and differ only near the
    genuine zeros; the second exponent is -|2a -+ b|^2/2.
    No exponent is positive, so nothing overflows at any |a| or k.
    """
    k = np.asarray(k, dtype=float)
    s = _scale(mu, nu, hbar)
    if isinstance(mode, Fock):
        return laguerre_gauss(mode.n, 0.5 * (k * s) ** 2)
    alpha = mode.alpha
    mean = math.sqrt(2.0 * hbar) * (mu * alpha.real + nu * alpha.imag)
    if mode.sign > 0:
        beta = 1j * math.sqrt(0.5 * hbar) * complex(mu, nu) * k
        diag = 2.0 * np.exp(-0.25 * (k * s) ** 2) * np.cos(k * mean)
        cross = np.exp(-0.5 * np.abs(2.0 * alpha - beta) ** 2) + np.exp(-0.5 * np.abs(2.0 * alpha + beta) ** 2)
        return _cat_norm_sq(mode) * (diag + cross)
    w = cat_weight(mode)
    c = np.abs(k) * math.sqrt(2.0 * hbar) * abs(mu * alpha.imag - nu * alpha.real)
    near = np.exp(-0.25 * (k * s) ** 2) * (1.0 - 2.0 * np.sin(0.5 * k * mean) ** 2 / w)
    far = np.exp(-0.25 * (k * s) ** 2 - 2.0 * abs(alpha) ** 2 + c) * np.expm1(-c) ** 2 / (2.0 * w)
    return near - far


def char_function_reach(mode: ModeSpec, mu: float, nu: float, hbar: float, floor: float) -> float:
    """A k beyond which |char_function| stays below floor.

    The closed forms are not monotone in k: a cat's cross terms are a
    bump at |b| = 2|a|, far out for large |a|.  The reach is
    (2 r + 2 sqrt(ln(c / floor))) / s.  A cat has r = sqrt(2)|a| and
    c = 4|N|^2: for |b| = k s / sqrt(2) >= 2|a| the terms of
    char_function sum to at most 4|N|^2 e^{-(|b| - 2|a|)^2 / 2}, so the
    bound is rigorous.  A number state has r = sqrt(2n+1), its classical
    turning point, and c = 1, the vacuum's Gaussian; past the turning
    point the modulus falls faster for larger n.  At floor = 1e-17 it is
    below the floor within 10.6 / s of the turning point for every
    n <= 1000, against the 12.5 / s allowed here.
    """
    if isinstance(mode, Fock):
        r, c = math.sqrt(2.0 * mode.n + 1.0), 1.0
    else:
        r, c = math.sqrt(2.0) * abs(mode.alpha), 4.0 * _cat_norm_sq(mode)
    return (2.0 * r + 2.0 * math.sqrt(math.log(c / floor))) / _scale(mu, nu, hbar)


def oracle_marginal(mode: ModeSpec, mu: float, nu: float, hbar: float) -> MarginalDensity:
    """Oracle-route tomogram for a mode, on the closed form's default grid.

    The expansion runs past the 1e-12 tail policy so the amplitude-level
    truncation error sits well below 1e-9.
    """
    psi = fock_expansion(mode, D=fock_expansion(mode).truncation + _ORACLE_EXTRA_LEVELS)
    return tomogram_oracle(psi, mu, nu, hbar, centered_grid(*grid_policy(mode, mu, nu, hbar)))
