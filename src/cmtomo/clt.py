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
from .states import Fock, ModeGroup, SystemSpec, energy, hbar_for_fixed_energy, unit_frames


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

    The sums grow as the frames' scale to the powers 2 and 3; where one
    of them leaves the double range the ratio fails (NumericalError).
    `unit_frames` centres only the geometric mean of the extreme radii, so
    frames that span too many octaves still leave it: Fock 1000 on
    (1e103, 0) beside Fock 0 on (1e-103, 0) overflows abs3."""
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
    """Mean/variance/absolute third moment of each group's mode, in group
    order, at the group's frame at hbar = 1.

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
                abs3 = (g.mu * g.mu + g.nu * g.nu) ** 1.5 * fock_abs3_dimensionless(g.mode.n)
            except OverflowError:       # S_N then fails the call
                abs3 = math.inf
        else:
            abs3 = float(np.trapezoid(np.abs(m.grid.xs) ** 3 * m.values, dx=m.grid.dx))
        out.append(Moments(mean=0.0, var=variance(g.mode, g.mu, g.nu), abs3=abs3))
    return out


def _sigma2(sys: SystemSpec, s_ref: float = 1.0) -> float:
    """sigma^2 = sum_j Var x_j from the closed variances at hbar = 1, once
    per group, times s_ref^2, which is how a scan on unit frames writes
    it; NumericalError where it leaves the double range."""
    sigma2 = float(sum(g.count * variance(g.mode, g.mu, g.nu) for g in sys.groups))
    sigma2 = sigma2 * s_ref * s_ref
    if not math.isfinite(sigma2):
        raise NumericalError(f"sigma^2 = sum Var x overflows the double range, s_ref = {s_ref:g}")
    return sigma2


def summed_density(sys: SystemSpec) -> tuple[list[MarginalDensity], float, float, MarginalDensity]:
    """The marginals, sigma^2 = sum_j Var x_j, S_N and the FFT density of
    the sum, at hbar = 1.  `cm` passes the system on its unit frames
    (`unit_frames`)."""
    marginals = marginals_for_system(sys)
    sigma2 = _sigma2(sys)
    s_n = lyapunov_ratio(per_mode_moments(sys, marginals), sys.counts)
    return marginals, sigma2, s_n, convolve_fft(marginals, sys.counts)


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


def _report_for(unit: SystemSpec, hbar: float, s_ref: float, r: float, R: float,
                density: MarginalDensity) -> CltReport:
    """One fixed-energy scan point at hbar, on the system's unit frames
    (`unit_frames`), whose FFT density is given: S_N, KS and TV are
    scale-free, sigma^2 is the unit value times s_ref^2, [rE, RE] the
    unit energy times hbar times r and R."""
    dist = gaussian_distance(density, _sigma2(unit))
    e_total = energy(unit, hbar)
    return CltReport(
        N=unit.n_modes,
        hbar=hbar,
        S_N=lyapunov_ratio(per_mode_moments(unit, None), unit.counts),
        sigma2=_sigma2(unit, s_ref),
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
    Each point's density is taken on the pattern's unit frames
    (`unit_frames`), where the groups are the same at every N:
    `convolve_cycled` builds and transforms each of them once per output
    spacing, and yields each point's system with its density.
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
    unit_pattern = unit_frames(pattern, 1.0)[0]
    reports: list = [None] * len(n_values)
    for i, unit, density in convolve_cycled(unit_pattern, n_values):
        hbar = hbar_for_fixed_energy(E, unit.groups)
        reports[i] = _report_for(unit, hbar, unit_frames(pattern, hbar)[1], r, R, density)
    return reports


def hbar_scan(sys_base: SystemSpec, hbar_list, epsilon: float) -> list[HbarReport]:
    """Classical-limit scan: the summed density at each hbar.

    hbar_list must be strictly decreasing; the reported mass inside
    [-epsilon, epsilon] then grows toward one as the summed variance
    (linear in hbar) collapses.  The system is convolved once, on its
    unit frames (`unit_frames`); at each hbar, with s_ref its reference
    scale, the mass inside epsilon is the unit density's inside
    epsilon / s_ref and sigma^2 the unit value times s_ref^2.
    """
    values = [float(h) for h in hbar_list]
    if any(b >= a for a, b in zip(values, values[1:])) or not all(0 < h < math.inf for h in values):
        raise ValueError("hbar_list must be strictly decreasing, each entry positive and finite")
    unit = SystemSpec(unit_frames(sys_base.groups, 1.0)[0])
    cm = convolve_fft(marginals_for_system(unit), unit.counts)
    cdf = cumulative_trapezoid(cm.values, cm.grid.dx)

    def point(hbar: float) -> HbarReport:
        s_ref = unit_frames(sys_base.groups, hbar)[1]
        sigma2 = _sigma2(unit, s_ref)
        # an epsilon that underflows in unit X holds no mass
        mass = _mass_inside(cdf, cm.grid.xs, epsilon / s_ref)
        return HbarReport(hbar=hbar, sigma2=sigma2, mass_in_epsilon=mass,
                          gaussian_predicted_mass=gaussian_mass_within(sigma2, epsilon))

    return [point(hbar) for hbar in values]
