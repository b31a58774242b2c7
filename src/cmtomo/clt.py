"""Gaussianization and classical-limit experiments for the summed observable.

Two scans: growing the mode count N at fixed total energy (the summed
distribution approaches a Gaussian, controlled by the Lyapunov ratio
S_N), and shrinking hbar at fixed N (the distribution concentrates at
zero).  S_N is scale-free, hence independent of hbar by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolution import convolve_cycled, convolve_fft, cumulative_trapezoid, marginals_for_system
from .errors import NumericalError
from .marginals import MarginalDensity, Moments, fock_abs3_dimensionless, variance
from .states import Fock, ModeGroup, SystemSpec, energy, hbar_for_fixed_energy


@dataclass(frozen=True)
class CltReport:
    """One scan point: Lyapunov ratio, variance bracket, Gaussian distances."""

    N: int
    hbar: float
    S_N: float
    sigma2: float
    rE: float
    RE: float
    ks: float
    tv: float


@dataclass(frozen=True)
class HbarReport:
    """A classical-limit scan point: sigma^2 = sum_j Var x_j and the mass
    inside [-epsilon, epsilon], computed and as N(0, sigma^2) predicts it."""

    hbar: float
    sigma2: float
    mass_in_epsilon: float
    gaussian_predicted_mass: float


def lyapunov_ratio(per_mode_moments: list[Moments], counts: list[int]) -> float:
    """(sum_j E|x_j|^3) / (sum_j Var x_j)^{3/2}, counts[g] modes sharing moments g.

    The sums carry hbar to the powers 3/2 and 3; where one of them leaves
    the double range the ratio fails the run (NumericalError)."""
    var_total = 0.0
    abs3_total = 0.0
    for m, count in zip(per_mode_moments, counts, strict=True):
        if not m.var > 0:
            raise ValueError("every per-mode variance must be positive")
        var_total += count * m.var
        abs3_total += count * m.abs3
    try:
        s_n = abs3_total / var_total ** 1.5
    except (OverflowError, ZeroDivisionError):
        s_n = math.nan
    if not (math.isfinite(s_n) and s_n > 0):
        raise NumericalError(f"S_N = sum E|x|^3 / (sum Var x)^1.5 = {abs3_total:.6g} / {var_total:.6g}^1.5 "
                             "leaves the double range")
    return s_n


def per_mode_moments(sys: SystemSpec, marginals: list[MarginalDensity] | None) -> list[Moments]:
    """Mean/variance/absolute third moment of each group's mode, in group order.

    Every mode is a parity eigenstate: mean 0, and the closed `variance`
    that `common_grid` reads.  A number state takes the exact third moment
    and reads no marginal, so a system of number states may pass None for
    the marginals; a cat takes the grid quadrature of E|x|^3 over its
    marginal from marginals_for_system(sys), the one `moments` takes.
    """
    out = []
    for g, m in zip(sys.groups, [None] * len(sys.groups) if marginals is None else marginals, strict=True):
        if isinstance(g.mode, Fock):
            try:
                abs3 = (sys.hbar * (g.mu * g.mu + g.nu * g.nu)) ** 1.5 * fock_abs3_dimensionless(g.mode.n)
            except OverflowError:       # S_N then fails the run
                abs3 = math.inf
        else:
            abs3 = float(np.trapezoid(np.abs(m.grid.xs) ** 3 * m.values, dx=m.grid.dx))
        out.append(Moments(mean=0.0, var=variance(g.mode, g.mu, g.nu, sys.hbar), abs3=abs3))
    return out


def _sigma2(sys: SystemSpec) -> float:
    """sigma^2 = sum_j Var x_j from the closed variances, once per group;
    NumericalError where it leaves the double range."""
    sigma2 = float(sum(g.count * variance(g.mode, g.mu, g.nu, sys.hbar) for g in sys.groups))
    if not math.isfinite(sigma2):
        raise NumericalError(f"sigma^2 = sum Var x overflows at hbar = {sys.hbar:g}")
    return sigma2


def summed_density(sys: SystemSpec) -> tuple[list[MarginalDensity], float, float, MarginalDensity]:
    """The marginals, sigma^2 = sum_j Var x_j, S_N and the FFT density of the sum."""
    marginals = marginals_for_system(sys)
    sigma2 = _sigma2(sys)
    s_n = lyapunov_ratio(per_mode_moments(sys, marginals), sys.counts)
    return marginals, sigma2, s_n, convolve_fft(marginals, sys.counts)


def _unit_hbar(groups) -> float:
    """The hbar at which a scan computes what does not depend on hbar:
    1, or where the frame radii rho = mu^2 + nu^2 stray far from 1, the
    power of two nearest 1 / sqrt(rho_min rho_max).

    Every mode is fixed by its level or by a dimensionless alpha, so its
    tomogram at hbar is the one at this unit with X scaled by
    sqrt(hbar / unit).  The unit depends on the frames alone, and each
    hbar rho lies within sqrt(rho_max / rho_min) of 1, inside the double
    range wherever the configured hbar rho are."""
    rhos = [g.mu * g.mu + g.nu * g.nu for g in groups]
    return math.ldexp(1.0, -round(0.5 * (math.log2(min(rhos)) + math.log2(max(rhos)))))


def gaussian_distance(d: MarginalDensity, sigma2: float) -> dict:
    """Kolmogorov-Smirnov and total-variation distance to N(0, sigma2).

    Both read the difference of the density and the Gaussian on the
    density's grid.  KS is the largest modulus of its cumulative
    trapezoid: the difference of the two trapezoid CDFs, formed without
    subtracting two CDF values of order one, which would cost a small
    distance its last digits at large N.  TV is half the trapezoid of
    its modulus.
    """
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    xs = d.grid.xs
    dx = d.grid.dx
    g = np.exp(-xs * xs / (2.0 * sigma2)) / math.sqrt(2.0 * math.pi * sigma2)
    diff = d.values - g
    ks = float(np.max(np.abs(cumulative_trapezoid(diff, dx))))
    tv = float(0.5 * np.trapezoid(np.abs(diff), dx=dx))
    return {"ks": ks, "tv": tv}


def mass_within(d: MarginalDensity, epsilon: float) -> float:
    """Probability mass of the density inside [-epsilon, epsilon]."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return _mass_inside(cumulative_trapezoid(d.values, d.grid.dx), d.grid.xs, epsilon)


def _mass_inside(cdf: np.ndarray, xs: np.ndarray, epsilon: float) -> float:
    """The mass inside [-epsilon, epsilon] of a CDF sampled at the nodes xs."""
    hi = float(np.interp(epsilon, xs, cdf, left=0.0, right=cdf[-1]))
    lo = float(np.interp(-epsilon, xs, cdf, left=0.0, right=cdf[-1]))
    return hi - lo


def gaussian_mass_within(sigma2: float, epsilon: float) -> float:
    """erf mass of N(0, sigma2) inside [-epsilon, epsilon]."""
    return math.erf(epsilon / math.sqrt(2.0 * sigma2))


def _report_for(sys: SystemSpec, r: float, R: float, unit: float, density: MarginalDensity) -> CltReport:
    """One fixed-energy scan point: hbar, sigma^2 and the energy bracket
    [rE, RE] in closed form at the system's own hbar; S_N, KS and TV, which
    do not depend on hbar, at the unit hbar, whose FFT density is given."""
    unit_sys = SystemSpec(sys.groups, unit)
    dist = gaussian_distance(density, _sigma2(unit_sys))
    e_total = energy(sys)
    return CltReport(
        N=sys.n_modes,
        hbar=sys.hbar,
        S_N=lyapunov_ratio(per_mode_moments(unit_sys, None), unit_sys.counts),
        sigma2=_sigma2(sys),
        rE=r * e_total,
        RE=R * e_total,
        ks=dist["ks"],
        tv=dist["tv"],
    )


def n_scan(modes_schedule, frame_schedule, E: float, N_list,
           r: float, R: float) -> list[CltReport]:
    """Fixed-energy scan over the mode count.

    modes_schedule: cycled pattern of number-state levels (bounded sup).
    frame_schedule: cycled pattern of (mu, nu) pairs with r < mu^2+nu^2 < R.
    Mode i takes level i mod L and frame i mod P, so a point holds at most
    lcm(L, P) groups, whatever N.  For each N the scale is
    hbar = E / (N/2 + sum n_i), the unique value holding the total energy at E.
    Each point's density is taken at the scan's unit hbar (`_unit_hbar`),
    where the groups are the same at every N: `convolve_cycled` builds and
    transforms each of them once for the whole scan.
    """
    levels = [int(n) for n in modes_schedule]
    pairs = [(float(m), float(n)) for (m, n) in frame_schedule]
    n_values = [int(n) for n in N_list]
    period = math.lcm(len(levels), len(pairs))
    pattern = [ModeGroup(Fock(levels[i % len(levels)]), *pairs[i % len(pairs)]) for i in range(period)]
    # every group some point holds needs 0 < r < mu^2 + nu^2 < R
    for g in pattern[:max(n_values, default=0)]:
        rho = g.mu * g.mu + g.nu * g.nu
        if not 0 < r < rho < R:
            raise ValueError(f"need 0 < r < mu^2+nu^2 < R, got r = {r:.6g}, {rho:.6g}, R = {R:.6g}")
    unit = _unit_hbar(pattern)
    reports: list = [None] * len(n_values)
    for i, density in convolve_cycled(pattern, unit, n_values):
        groups = SystemSpec.cycled(pattern, n_values[i], unit).groups
        reports[i] = _report_for(SystemSpec(groups, hbar_for_fixed_energy(E, groups)), r, R, unit, density)
    return reports


def hbar_scan(sys_base: SystemSpec, hbar_list, epsilon: float) -> list[HbarReport]:
    """Classical-limit scan: the summed density at each hbar.

    hbar_list must be strictly decreasing; the reported mass inside
    [-epsilon, epsilon] then grows toward one as the summed variance
    (linear in hbar) collapses.  The system is convolved once, at its
    unit hbar (`_unit_hbar`): the mass inside epsilon at hbar is the
    unit density's mass inside epsilon sqrt(unit / hbar).  sigma^2 is the
    closed form at each hbar.
    """
    values = [float(h) for h in hbar_list]
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ValueError("hbar_list must be strictly decreasing")
    unit = _unit_hbar(sys_base.groups)
    unit_sys = SystemSpec(sys_base.groups, unit)
    cm = convolve_fft(marginals_for_system(unit_sys), unit_sys.counts)
    cdf = cumulative_trapezoid(cm.values, cm.grid.dx)
    xs = cm.grid.xs

    def point(hbar: float) -> HbarReport:
        sigma2 = _sigma2(SystemSpec(sys_base.groups, hbar))
        # an epsilon that underflows in unit X holds no mass
        mass = _mass_inside(cdf, xs, epsilon * math.sqrt(unit / hbar))
        return HbarReport(hbar=hbar, sigma2=sigma2, mass_in_epsilon=mass,
                          gaussian_predicted_mass=gaussian_mass_within(sigma2, epsilon))

    return [point(hbar) for hbar in values]
