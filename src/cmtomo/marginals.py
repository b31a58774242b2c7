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
from .specialfn import _orthonormal_poly_pair, hermite_functions, hermite_sq_density_factor, laguerre_gauss
from .states import (
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
    """Uniform grid x0 + j*dx, j = 0..count-1, with power-of-two count."""

    x0: float
    dx: float
    count: int

    def __post_init__(self) -> None:
        if self.dx <= 0:
            raise ValueError("grid spacing must be positive")
        if self.count < 2 or self.count & (self.count - 1):
            raise ValueError("grid count must be a power of two")

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.count)

    @property
    def extent(self) -> float:
        return self.dx * (self.count - 1)


def centered_grid(half_width: float, dx: float, max_count: int = _MAX_GRID) -> Grid:
    """Smallest power-of-two grid of this exact spacing with count*dx >= 2*half_width.

    Nodes sit at integer multiples of dx, from -(count/2) dx upward, so
    grids sharing one dx land on a common lattice and linear resampling
    between them is lossless.
    """
    if half_width <= 0 or dx <= 0:
        raise ValueError("grid parameters must be positive")
    count = 2
    while count * dx < 2.0 * half_width:
        count *= 2
        if count > max_count:
            raise GridSizeError(f"grid would need more than {max_count} points")
    return Grid(x0=-(count // 2) * dx, dx=dx, count=count)


@dataclass
class MarginalDensity:
    """A gridded single-mode quadrature density, unit trapezoid integral."""

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


def fock_tomogram(n: int, mu: float, nu: float, hbar: float, X):
    """Quadrature density of the number state |n>.

    Equals hermite_sq_density_factor(n, X/s)/s with s^2 = hbar*(mu^2+nu^2);
    it depends on the frame only through that combination.
    """
    s = _scale(mu, nu, hbar)
    out = hermite_sq_density_factor(n, np.asarray(X, dtype=float) / s) / s
    if np.isscalar(X):
        return float(out)
    return out


def fock_var_closed(n: int, mu: float, nu: float, hbar: float) -> float:
    """Closed-form variance hbar*(mu^2+nu^2)*(1/2 + n)."""
    return hbar * (mu * mu + nu * nu) * (0.5 + n)


@lru_cache(maxsize=1024)
def fock_abs3_dimensionless(n: int) -> float:
    """E|y|^3 under the dimensionless level-n density, exactly.

    Halving the range and substituting u = y^2 turns the integrand into
    u * H_n^2(sqrt(u)) e^{-u} (a degree n+1 polynomial against e^{-u}),
    so a Gauss-Laguerre rule with n//2 + 2 nodes integrates it exactly.
    """
    u, weights = np.polynomial.laguerre.laggauss(n // 2 + 2)
    # p_n(sqrt(u))^2 with p_n = H_n/sqrt(2^n n! sqrt(pi)), assembled in log
    # scale: the rule weights carry e^{-u} while p_n^2 grows like e^{+u}
    p1, _, ls = _orthonormal_poly_pair(n, np.sqrt(u))
    with np.errstate(divide="ignore"):
        log_term = np.log(weights) + np.log(u) + 2.0 * np.log(np.abs(p1)) + 2.0 * ls
    return float(np.sum(np.exp(log_term)))


def fock_abs3_bound_check(n: int, mu: float, nu: float, hbar: float) -> dict:
    """Absolute third moment of the level-n tomogram and its growth ratio.

    bound_ratio divides by n^{3/2} (hbar rho)^{3/2}; for n = 0 the ratio
    is taken against (hbar rho)^{3/2} alone.
    """
    s = _scale(mu, nu, hbar)
    abs3 = s ** 3 * fock_abs3_dimensionless(n)
    denom = s ** 3 if n == 0 else n ** 1.5 * s ** 3
    return {"abs3": abs3, "bound_ratio": abs3 / denom}


def _fock_policy(n: int, mu: float, nu: float, hbar: float) -> tuple[float, float]:
    s = _scale(mu, nu, hbar)
    sigma = math.sqrt(fock_var_closed(n, mu, nu, hbar))
    # dx <= sigma/64, further capped so the fastest H_n^2 oscillation
    # (wavelength ~ pi/sqrt(2n+1) in y) keeps >= 8 points
    dx = min(sigma / 64.0, s * math.pi / (8.0 * math.sqrt(2.0 * n + 1.0)))
    return 8.0 * sigma, dx


def fock_marginal(n: int, mu: float, nu: float, hbar: float, grid: Grid | None = None) -> MarginalDensity:
    if grid is None:
        grid = centered_grid(*_fock_policy(n, mu, nu, hbar))
    vals = fock_tomogram(n, mu, nu, hbar, grid.xs)
    meta = {"kind": f"fock {n}", "mu": mu, "nu": nu, "hbar": hbar, "rescale": 1.0,
            "pre_rescale_integral": float(np.trapezoid(vals, dx=grid.dx))}
    return MarginalDensity(grid=grid, values=vals, meta=meta)


def _cat_norm_sq(alpha: complex, parity: str) -> float:
    """|N_+-|^2 for the even/odd superposition of |alpha> and |-alpha>.

    Written as 1/(2(1 +- e^{-2|a|^2})) so no exponential can overflow,
    with the odd 1 - e^{-2|a|^2} taken without cancellation (`cat_weight`).
    """
    return 1.0 / (2.0 * cat_weight(alpha, parity))


def _check_parity(parity: str) -> int:
    if parity == "even":
        return 1
    if parity == "odd":
        return -1
    raise ValueError("parity must be 'even' or 'odd'")


def evenodd_pointwise(alpha: complex, parity: str, mu: float, nu: float, hbar: float, X) -> np.ndarray:
    """Closed-form quadrature density of an even/odd coherent superposition.

    The interference exponent carries sqrt(hbar) so that the density in
    X (which scales like sqrt(hbar)) keeps a hbar-independent shape in
    the scaled variable; the normalization constant enters squared.
    The exponents are combined before exponentiating, as
    e^{A + 2|Re z|} |1 +- e^{-2 z'}|^2 with z' = z signed so that
    Re z' = |Re z|, so a large |Re alpha| cannot form inf * 0.
    """
    sign = _check_parity(parity)
    alpha = complex(alpha)
    s = _scale(mu, nu, hbar)
    rho = mu * mu + nu * nu
    n_sq = _cat_norm_sq(alpha, parity)
    X = np.asarray(X, dtype=float)
    quad = nu * (alpha ** 2 / (nu - 1j * mu) + np.conj(alpha) ** 2 / (nu + 1j * mu))
    z = 1j * math.sqrt(2.0) * alpha * X / (math.sqrt(hbar) * (1j * mu - nu))
    z = np.where(z.real < 0, -z, z)
    log_pref = -0.5 * (2.0 * alpha.real) ** 2 - (X * X) / (hbar * rho) + quad.real
    inner = np.abs(1.0 + sign * np.exp(-2.0 * z)) ** 2
    vals = n_sq / (_SQRT_PI * s) * np.exp(log_pref + 2.0 * z.real) * inner
    # subnormal values carry no probability but slow every later matrix
    # product and FFT that reads them; they are returned as 0
    return np.where(vals < _TINY, 0.0, vals)


def _cat_var_exact(alpha: complex, parity: str, mu: float, nu: float, hbar: float) -> float:
    """Variance of the even/odd tomogram from the level-basis algebra."""
    sign = _check_parity(parity)
    a, b = alpha.real, alpha.imag
    e = math.exp(-2.0 * abs(alpha) ** 2)
    rho = mu * mu + nu * nu
    n_sq = _cat_norm_sq(alpha, parity)
    return n_sq * hbar * (
        cat_weight(alpha, parity) * rho
        + 4.0 * (a * mu + b * nu) ** 2
        - sign * 4.0 * e * (b * mu - a * nu) ** 2
    )


def evenodd_var_closed(alpha: complex, parity: str, mu: float, nu: float, hbar: float) -> float:
    """Published closed-form variance of the even/odd tomogram, as printed.

    Kept verbatim (modulo squaring the normalization constant) for the
    discrepancy report; the trusted variance is the quadrature moment of
    the oracle density, which this expression does not always match.
    """
    sign = _check_parity(parity)
    a, b = alpha.real, alpha.imag
    e = math.exp(-2.0 * abs(alpha) ** 2)
    rho = mu * mu + nu * nu
    n_sq = _cat_norm_sq(alpha, parity)
    return n_sq * hbar * (
        (1.0 + e) * rho
        + 4.0 * (a * mu + b * nu) ** 2
        - sign * 4.0 * e * (b * mu + a * nu) ** 2
    )


def _cat_policy(alpha: complex, parity: str, mu: float, nu: float, hbar: float) -> tuple[float, float]:
    s = _scale(mu, nu, hbar)
    sigma = math.sqrt(_cat_var_exact(alpha, parity, mu, nu, hbar))
    dx = sigma / 64.0
    if abs(alpha) > 0:
        # resolve interference fringes: wavelength pi*s/(sqrt(2)|alpha|)
        dx = min(dx, math.pi * s / (16.0 * math.sqrt(2.0) * abs(alpha)))
    return 8.0 * sigma, dx


def grid_policy(mode: ModeSpec, mu: float, nu: float, hbar: float) -> tuple[float, float]:
    """(half_width, dx) the default grid policy assigns to this mode."""
    if isinstance(mode, Fock):
        return _fock_policy(mode.n, mu, nu, hbar)
    return _cat_policy(mode.alpha, mode.parity, mu, nu, hbar)


def evenodd_tomogram(alpha: complex, parity: str, mu: float, nu: float, hbar: float,
                     grid: Grid | None = None) -> MarginalDensity:
    """Gridded even/odd superposition tomogram, rescaled to unit integral.

    The applied rescale factor and the pre-rescale integral are reported
    in the metadata; a pre-rescale integral further than 5% from one
    raises NormalizationMismatchWarning but the computation proceeds.
    """
    if grid is None:
        grid = centered_grid(*_cat_policy(alpha, parity, mu, nu, hbar))
    vals = evenodd_pointwise(alpha, parity, mu, nu, hbar, grid.xs)
    pre = float(np.trapezoid(vals, dx=grid.dx))
    if pre <= 0:
        raise NumericalError("closed-form density integrated to a nonpositive value")
    if abs(pre - 1.0) > 0.05:
        warnings.warn(
            f"pre-rescale integral {pre:.6g} differs from 1 by more than 5%",
            NormalizationMismatchWarning,
        )
    meta = {"kind": f"{parity} {alpha.real:.17g} {alpha.imag:.17g}",
            "mu": mu, "nu": nu, "hbar": hbar,
            "rescale": 1.0 / pre, "pre_rescale_integral": pre}
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
        want = fock_tomogram(k, mu, nu, hbar, probe.xs)
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
    meta = {"kind": "oracle", "mu": mu, "nu": nu, "hbar": hbar,
            "rescale": 1.0 / total, "pre_rescale_integral": total}
    return MarginalDensity(grid=grid, values=vals / total, meta=meta)


def moments(d) -> Moments:
    """Trapezoid mean, variance and absolute third moment over the grid."""
    xs = d.grid.xs
    dx = d.grid.dx
    mean = float(np.trapezoid(xs * d.values, dx=dx))
    var = float(np.trapezoid((xs - mean) ** 2 * d.values, dx=dx))
    abs3 = float(np.trapezoid(np.abs(xs) ** 3 * d.values, dx=dx))
    return Moments(mean=mean, var=var, abs3=abs3)


def marginal_density(mode: ModeSpec, mu: float, nu: float, hbar: float,
                     grid: Grid | None = None) -> MarginalDensity:
    """Dispatch a mode to its closed-form gridded tomogram, recorded as meta['mode']."""
    if isinstance(mode, Fock):
        d = fock_marginal(mode.n, mu, nu, hbar, grid)
    else:
        d = evenodd_tomogram(mode.alpha, mode.parity, mu, nu, hbar, grid)
    d.meta["mode"] = mode
    return d


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
    if _check_parity(mode.parity) > 0:
        beta = 1j * math.sqrt(0.5 * hbar) * complex(mu, nu) * k
        diag = 2.0 * np.exp(-0.25 * (k * s) ** 2) * np.cos(k * mean)
        cross = np.exp(-0.5 * np.abs(2.0 * alpha - beta) ** 2) + np.exp(-0.5 * np.abs(2.0 * alpha + beta) ** 2)
        return _cat_norm_sq(alpha, mode.parity) * (diag + cross)
    w = cat_weight(alpha, mode.parity)
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
        r, c = math.sqrt(2.0) * abs(mode.alpha), 4.0 * _cat_norm_sq(mode.alpha, mode.parity)
    return (2.0 * r + 2.0 * math.sqrt(math.log(c / floor))) / _scale(mu, nu, hbar)


def oracle_marginal(mode: ModeSpec, mu: float, nu: float, hbar: float,
                    grid: Grid | None = None) -> MarginalDensity:
    """Oracle-route tomogram for a mode, on the closed form's default grid.

    The expansion runs past the 1e-12 tail policy so the amplitude-level
    truncation error sits well below 1e-9.
    """
    if grid is None:
        grid = centered_grid(*grid_policy(mode, mu, nu, hbar))
    psi = fock_expansion(mode, D=fock_expansion(mode).truncation + _ORACLE_EXTRA_LEVELS)
    return tomogram_oracle(psi, mu, nu, hbar, grid)
