"""The distance to the Gaussian against an exact reference.

`mp_distance(groups, x)` is D(x) = F_N(x) - Phi(x / sigma), the CDF of the
sum of the groups' quadratures at hbar = 1 less that of N(0, sigma^2),
from the Gil-Pelaez inversion of the sum's characteristic function
(J. Gil-Pelaez, "Note on the inversion theorem", Biometrika 38 (1951)
481-482).  Every mode is a parity eigenstate, so phi_N is real and even:

    D(x) = (1/pi) int_0^inf sin(kx)/k [phi_N(k) - e^{-sigma^2 k^2/2}] dk.

It is evaluated in mpmath at 40 digits, in t = k sigma, with breakpoints
at t = 0, 1, 2, 4, 8, 16 and 40.  phi_N is the product of each group's
characteristic function raised to its count, written here from the
states and not read from the library: (e^{-u/2} L_n(u))^count with
u = rho k^2 / 2 for the number state |n> on a frame of radius
rho = mu^2 + nu^2, and for a cat the four coherent-state matrix elements
of the displacement e^{ikX}.  sigma^2 and the fourth cumulant are
derivatives of log phi at k = 0.

The library's KS is the modulus of its trapezoid CDF difference at one
grid node x*; at x* it is checked against |D(x*)| on both spectral
backends, for the families of the paper's scans up to N = 4096.  At
larger N the same ratio, KS / |D(x*)| - 1, measured on a 2-vCPU x86-64
VM, is

    N        Fock 1 on (1, 0)        mixed Fock 0-3, rho 0.6 1 1.5   even cat alpha = 1 on (1, 0)
             backend 1   backend 2   backend 1   backend 2           backend 1   backend 2
    2^18     +4.0e-5     -1.5e-5     -8.4e-6     +9.7e-6             +2.1e-6     +9.8e-5
    2^20     +6.6e-4     -2.4e-4     -2.7e-4     +5.3e-5             +1.8e-4     +1.3e-3
    2^22     -4.6e-3     -1.1e-3     (grid cap, exit 3)              -8.9e-3     +1.2e-2

while D(x*) / Edgeworth - 1 falls as 0.28/N (Fock 1, cat) and 0.68/N
(mixed): the drift is the spectra's rounding raised N-fold, in both
backends, not the reference's.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp
import numpy as np
import pytest

from cmtomo import (CoherentEven, CoherentOdd, Fock, ModeGroup, SystemSpec, cf_product, gaussian_distance,
                    marginals_for_system, variance)
from cmtomo.convolution import convolve_cycled, cumulative_trapezoid

DPS = 40
BREAKS = (0, 1, 2, 4, 8, 16, 40)


def _laguerre(n: int, u):
    """L_n(u) by the three-term recurrence."""
    lo, hi = mp.mpf(1), 1 - u
    if n == 0:
        return lo
    for k in range(1, n):
        lo, hi = hi, ((2 * k + 1 - u) * hi - k * lo) / (k + 1)
    return hi


def _char(g: ModeGroup):
    """k -> E e^{ikX} of one mode of the group at hbar = 1."""
    mu, nu = mp.mpf(g.mu), mp.mpf(g.nu)
    if isinstance(g.mode, Fock):
        n, rho = g.mode.n, mu * mu + nu * nu

        def number(k):
            u = rho * k * k / 2
            return mp.exp(-u / 2) * _laguerre(n, u)
        return number

    # e^{ikX} = D(b), b = ik (mu + i nu) / sqrt 2, and
    # <c|D(b)|d> = exp((b d* - b* d)/2 - |c|^2/2 - |b + d|^2/2 + c* (b + d))
    a = mp.mpc(g.mode.alpha.real, g.mode.alpha.imag)
    terms = ((a, 1), (-a, g.mode.sign))
    norm = 2 * (1 + g.mode.sign * mp.exp(-2 * abs(a) ** 2))
    direction = mp.mpc(mu, nu) / mp.sqrt(2)

    def cat(k):
        b = 1j * k * direction
        total = mp.fsum(sc * sd * mp.exp((b * mp.conj(d) - mp.conj(b) * d) / 2 - abs(c) ** 2 / 2
                                         - abs(b + d) ** 2 / 2 + mp.conj(c) * (b + d))
                        for c, sc in terms for d, sd in terms)
        return mp.re(total) / norm
    return cat


@functools.cache
def cumulants(groups: tuple) -> tuple:
    """(sigma^2, kappa_4) of the sum: minus the second and the fourth
    derivative of log phi_N at k = 0."""
    with mp.workdps(DPS):
        var = kappa4 = mp.mpf(0)
        for g in groups:
            char = _char(g)
            var -= g.count * mp.diff(char, 0, 2)
            kappa4 += g.count * mp.diff(lambda k: mp.log(char(k)), 0, 4)
        return var, kappa4


@functools.cache
def mp_distance(groups: tuple, x: float):
    """D(x) = F_N(x) - Phi(x / sigma) of the groups at hbar = 1."""
    with mp.workdps(DPS):
        chars = [(_char(g), g.count) for g in groups]
        sigma = mp.sqrt(cumulants(groups)[0])
        z = mp.mpf(x) / sigma

        def integrand(t):
            k = t / sigma
            return mp.sin(t * z) / t * (mp.fprod(char(k) ** count for char, count in chars) - mp.exp(-t * t / 2))
        return mp.quad(integrand, BREAKS, method="gauss-legendre") / mp.pi


def edgeworth(groups: tuple, x: float):
    """The leading Edgeworth term of D(x): -(gamma_2 / 24) He_3(z) phi(z),
    z = x / sigma, gamma_2 = kappa_4 / sigma^4 (kappa_3 = 0)."""
    with mp.workdps(DPS):
        var, kappa4 = cumulants(groups)
        z = mp.mpf(x) / mp.sqrt(var)
        return -kappa4 / var ** 2 / 24 * (z ** 3 - 3 * z) * mp.npdf(z)


_PAIRS = [(math.sqrt(rho), 0.0) for rho in (0.6, 1.0, 1.5)]
FAMILIES = {
    "fock1": [ModeGroup(Fock(1), 1.0, 0.0)],
    # the mixed scan: levels 0 1 2 3 over rho 0.6 1 1.5, mode i taking
    # level i mod 4 and frame i mod 3
    "mixed": [ModeGroup(Fock(i % 4), *_PAIRS[i % 3]) for i in range(12)],
    "cat": [ModeGroup(CoherentEven(1.0), 1.0, 0.0)],
}
POINTS = [("fock1", 16), ("fock1", 256), ("fock1", 4096), ("mixed", 4096), ("cat", 4096)]


@functools.cache
def library_ks(family: str, n: int, backend: str) -> tuple:
    """(groups, KS, KS node x*) of N modes cycling a family at hbar = 1:
    backend 1 is the scans' `convolve_cycled`, backend 2 `cf_product`."""
    pattern = FAMILIES[family]
    sys = SystemSpec.cycled(pattern, n)
    if backend == "fft":
        ((_, _, density),) = convolve_cycled(pattern, [n])
    else:
        density = cf_product(marginals_for_system(sys), sys.counts)
    sigma2 = float(sum(g.count * variance(g.mode, g.mu, g.nu) for g in sys.groups))
    xs = density.grid.xs
    gauss = np.exp(-xs * xs / (2.0 * sigma2)) / math.sqrt(2.0 * math.pi * sigma2)
    node = int(np.argmax(np.abs(cumulative_trapezoid(density.values - gauss, density.grid.dx))))
    return sys.groups, gaussian_distance(density, sigma2)["ks"], float(xs[node])


@pytest.mark.parametrize("backend", ["fft", "cf"])
@pytest.mark.parametrize("family, n", POINTS)
def test_ks_matches_reference_at_its_node(family, n, backend):
    groups, ks, node = library_ks(family, n, backend)
    # the trapezoid CDF errs by O(dx^2 / sigma_N^2) = O(1/N) of KS; the
    # measured worst is 1.1e-4 / N (cat, backend 1, N = 4096)
    assert abs(ks / abs(mp_distance(groups, node)) - 1) <= 2e-4 / n


@pytest.mark.parametrize("family, n", POINTS)
def test_reference_approaches_edgeworth(family, n):
    groups, _, node = library_ks(family, n, "fft")
    # the next Edgeworth order is O(1/N) relative; the measured worst is
    # 0.68 / N (mixed, N = 4096)
    assert abs(mp_distance(groups, node) / edgeworth(groups, node) - 1) <= 1 / n


@pytest.mark.parametrize("n, rho", [(0, 1.0), (1, 0.6), (3, 1.5)])
def test_number_state_cumulants(n, rho):
    g = ModeGroup(Fock(n), math.sqrt(rho), 0.0, 5)
    with mp.workdps(DPS):
        var, kappa4 = cumulants((g,))
        rho = mp.mpf(g.mu) ** 2
        # kappa_4 = -(3/2) n (n + 1) rho^2 per mode
        want = -5 * mp.mpf(3) / 2 * n * (n + 1) * rho ** 2
        assert abs(var / (5 * rho * (n + mp.mpf(1) / 2)) - 1) <= mp.mpf(10) ** -30
        assert abs(kappa4 - want) <= mp.mpf(10) ** -30 * (1 + abs(want))


def _closed_form_density(g: ModeGroup):
    """The tomogram of one mode of the group at hbar = 1 from its
    wavefunction.  X = sqrt(rho) X_theta with mu + i nu = sqrt(rho) e^{i theta},
    and X_theta is distributed as x in the state rotated by -theta: |n>
    stays |n>, and |alpha> + sign |-alpha> becomes |beta> + sign |-beta>,
    beta = alpha e^{-i theta}, whose coherent wavefunctions are
    pi^{-1/4} exp(-x^2/2 + sqrt(2) beta x - beta^2/2 - |beta|^2/2)."""
    s = mp.sqrt(mp.mpf(g.mu) ** 2 + mp.mpf(g.nu) ** 2)
    if isinstance(g.mode, Fock):
        n = g.mode.n
        unit = lambda x: mp.exp(-x * x) * mp.hermite(n, x) ** 2 / (mp.sqrt(mp.pi) * 2 ** n * mp.factorial(n))
    else:
        beta = mp.mpc(g.mode.alpha.real, g.mode.alpha.imag) * mp.conj(mp.mpc(g.mu, g.nu)) / s
        sign = g.mode.sign
        norm = 2 * (1 + sign * mp.exp(-2 * abs(beta) ** 2))

        def coherent(b, x):
            return mp.exp(-x * x / 2 + mp.sqrt(2) * b * x - b * b / 2 - abs(b) ** 2 / 2) / mp.pi ** (mp.mpf(1) / 4)
        unit = lambda x: abs(coherent(beta, x) + sign * coherent(-beta, x)) ** 2 / norm
    return lambda X: unit(X / s) / s


@pytest.mark.parametrize("group, x", [
    (ModeGroup(Fock(1), 1.0, 0.0), -0.9),
    (ModeGroup(Fock(3), math.sqrt(1.5), 0.0), 0.4),
    (ModeGroup(CoherentEven(1.0), 1.0, 0.0), -1.3),
    (ModeGroup(CoherentOdd(1 + 0.5j), 0.6, 0.8), 0.7),
], ids=["fock1", "fock3", "even", "odd"])
def test_single_mode_reference_matches_closed_form_cdf(group, x):
    groups = (group,)
    with mp.workdps(DPS):
        # the density is below 1e-60 past 16
        cdf = mp.quad(_closed_form_density(group), [-16, -8, -4, -2, 0, x], method="gauss-legendre")
        assert abs(mp.ncdf(x / mp.sqrt(cumulants(groups)[0])) + mp_distance(groups, x) - cdf) <= mp.mpf(10) ** -30
