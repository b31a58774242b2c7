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

from .convolution import convolve_fft, cumulative_trapezoid, marginals_for_system
from .errors import NumericalError
from .marginals import MarginalDensity, Moments, fock_abs3_dimensionless, moments, variance
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


def per_mode_moments(sys: SystemSpec, marginals: list[MarginalDensity]) -> list[Moments]:
    """Mean/variance/absolute third moment of each group's mode, in group order.

    Every mode is a parity eigenstate: mean 0, and the closed `variance`
    that `common_grid` reads.  A number state takes the exact third moment,
    a cat the grid quadrature of its marginal from marginals_for_system(sys).
    """
    out = []
    for g, m in zip(sys.groups, marginals, strict=True):
        if isinstance(g.mode, Fock):
            try:
                abs3 = (sys.hbar * (g.mu * g.mu + g.nu * g.nu)) ** 1.5 * fock_abs3_dimensionless(g.mode.n)
            except OverflowError:       # S_N then fails the run
                abs3 = math.inf
        else:
            abs3 = moments(m).abs3
        out.append(Moments(mean=0.0, var=variance(g.mode, g.mu, g.nu, sys.hbar), abs3=abs3))
    return out


def summed_density(sys: SystemSpec) -> tuple[list[MarginalDensity], float, float, MarginalDensity]:
    """The marginals, sigma^2 = sum_j Var x_j, S_N and the FFT density of the sum."""
    marginals = marginals_for_system(sys)
    pm = per_mode_moments(sys, marginals)
    sigma2 = float(sum(count * m.var for m, count in zip(pm, sys.counts)))
    if not math.isfinite(sigma2):
        raise NumericalError(f"sigma^2 = sum Var x overflows at hbar = {sys.hbar:g}")
    return marginals, sigma2, lyapunov_ratio(pm, sys.counts), convolve_fft(marginals, sys.counts)


def gaussian_distance(d: MarginalDensity, sigma2: float) -> dict:
    """Kolmogorov-Smirnov and total-variation distance to N(0, sigma2).

    Both cumulative distributions are built with the same cumulative
    trapezoid on the density's grid, so the comparison is free of
    quadrature bias between the two curves.
    """
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    xs = d.grid.xs
    dx = d.grid.dx
    g = np.exp(-xs * xs / (2.0 * sigma2)) / math.sqrt(2.0 * math.pi * sigma2)
    cd = cumulative_trapezoid(d.values, dx)
    cg = cumulative_trapezoid(g, dx)
    ks = float(np.max(np.abs(cd - cg)))
    tv = float(0.5 * np.trapezoid(np.abs(d.values - g), dx=dx))
    return {"ks": ks, "tv": tv}


def mass_within(d: MarginalDensity, epsilon: float) -> float:
    """Probability mass of the density inside [-epsilon, epsilon]."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    cdf = cumulative_trapezoid(d.values, d.grid.dx)
    xs = d.grid.xs
    hi = float(np.interp(epsilon, xs, cdf, left=0.0, right=cdf[-1]))
    lo = float(np.interp(-epsilon, xs, cdf, left=0.0, right=cdf[-1]))
    return hi - lo


def gaussian_mass_within(sigma2: float, epsilon: float) -> float:
    """erf mass of N(0, sigma2) inside [-epsilon, epsilon]."""
    return math.erf(epsilon / math.sqrt(2.0 * sigma2))


def _report_for(sys: SystemSpec, r: float, R: float) -> CltReport:
    """One fixed-energy scan point, once every frame radius mu^2 + nu^2 is checked to lie in (r, R), r > 0."""
    for g in sys.groups:
        rho = g.mu * g.mu + g.nu * g.nu
        if not 0 < r < rho < R:
            raise ValueError(f"need 0 < r < mu^2+nu^2 < R, got r = {r:.6g}, {rho:.6g}, R = {R:.6g}")
    _, sigma2, s_n, cm = summed_density(sys)
    dist = gaussian_distance(cm, sigma2)
    e_total = energy(sys)
    return CltReport(
        N=sys.n_modes,
        hbar=sys.hbar,
        S_N=s_n,
        sigma2=sigma2,
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
    """
    levels = [int(n) for n in modes_schedule]
    pairs = [(float(m), float(n)) for (m, n) in frame_schedule]
    period = math.lcm(len(levels), len(pairs))

    def point(N: int) -> CltReport:
        groups = [ModeGroup(Fock(levels[i % len(levels)]), *pairs[i % len(pairs)],
                            count=N // period + (i < N % period))
                  for i in range(min(N, period))]
        sys = SystemSpec(groups, hbar_for_fixed_energy(E, groups))
        return _report_for(sys, r, R)

    return [point(N) for N in N_list]


def hbar_scan(sys_base: SystemSpec, hbar_list, epsilon: float) -> list[HbarReport]:
    """Classical-limit scan: the summed density at each hbar.

    hbar_list must be strictly decreasing; the reported mass inside
    [-epsilon, epsilon] then grows toward one as the summed variance
    (linear in hbar) collapses.
    """
    values = [float(h) for h in hbar_list]
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ValueError("hbar_list must be strictly decreasing")

    def point(hbar: float) -> HbarReport:
        _, sigma2, _, cm = summed_density(SystemSpec(sys_base.groups, hbar))
        return HbarReport(hbar=hbar, sigma2=sigma2, mass_in_epsilon=mass_within(cm, epsilon),
                          gaussian_predicted_mass=gaussian_mass_within(sigma2, epsilon))

    return [point(hbar) for hbar in values]
