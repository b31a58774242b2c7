"""Audit table: published closed forms against independently computed values.

Every row carries the closed-form value as printed (normalization
constants entering squared), the oracle value computed from the level
basis or by quadrature, and their ratio.  Nothing is corrected or
suppressed: rows that disagree are the point of the report.

Rows are computed at hbar = 1 on each frame's unit frame
(`states.unit_frames`) and written times s_ref (x rows) or s_ref^2 (x^2
and variance rows): every form is homogeneous in its frame and in hbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .marginals import evenodd_var_closed, marginal_density, moments, oracle_marginal
from .states import CoherentEven, CoherentOdd, ModeGroup, coherent_expansion, fock_expansion, unit_frames

DEFAULT_ALPHAS = (
    0.0 + 0.0j,
    0.5 + 0.0j,
    1.0 + 0.0j,
    2.0 + 0.0j,
    complex(0.5 * math.cos(math.pi / 4), 0.5 * math.sin(math.pi / 4)),
    complex(math.cos(math.pi / 4), math.sin(math.pi / 4)),
    complex(2.0 * math.cos(math.pi / 4), 2.0 * math.sin(math.pi / 4)),
)
DEFAULT_FRAMES = ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8))


@dataclass(frozen=True)
class ReportRow:
    quantity: str
    alpha: complex
    parity: str          # 'even', 'odd', or '-' for parity-free quantities
    mu: float
    nu: float
    hbar: float
    published_value: float
    oracle_value: float

    @property
    def ratio(self) -> float:
        if abs(self.oracle_value) < 1e-300:
            return float("nan")
        return self.published_value / self.oracle_value


def quadrature_matrices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated position and momentum matrices Q, P at hbar = 1.

    Q_{k,k+1} = sqrt((k+1)/2); P_{k,k+1} = -i sqrt((k+1)/2).
    [Q, P] = i I on all but the final basis level.
    """
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    off = np.sqrt(np.arange(1, dim) / 2.0)
    Q = np.diag(off, 1) + np.diag(off, -1)
    P = np.diag(-1j * off, 1) + np.diag(1j * off, -1)
    return Q.astype(complex), P


def _coherent_pair_elements(alpha: complex, mu: float, nu: float):
    """<alpha|x|alpha>, <-alpha|x|alpha>, <alpha|x^2|alpha>, <-alpha|x^2|alpha>
    at hbar = 1, computed in a truncated level basis (the oracle side)."""
    a2 = abs(alpha) ** 2
    D = int(math.ceil(a2 + 12.0 * math.sqrt(a2 + 1.0))) + 10
    plus = coherent_expansion(alpha, D).coefficients
    minus = coherent_expansion(-alpha, D).coefficients
    Q, P = quadrature_matrices(D + 1)
    x = mu * Q + nu * P
    x2 = x @ x
    return (
        complex(plus.conj() @ x @ plus),
        complex(minus.conj() @ x @ plus),
        complex(plus.conj() @ x2 @ plus),
        complex(minus.conj() @ x2 @ plus),
    )


def _printed_elements(alpha: complex, mu: float, nu: float):
    """The same four elements from the printed closed-form expressions."""
    a, b = alpha.real, alpha.imag
    e = math.exp(-2.0 * abs(alpha) ** 2)
    rho = mu * mu + nu * nu
    s2 = math.sqrt(2.0)
    x_diag = s2 * (a * mu + b * nu)
    x_cross = 1j * s2 * e * (b * mu + a * nu)
    x2_diag = 0.5 * rho + 2.0 * (a * mu + b * nu) ** 2
    x2_cross = e * (0.5 * rho - 2.0 * (b * mu + a * nu) ** 2)
    return x_diag, x_cross, x2_diag, complex(x2_cross)


def discrepancy_rows(alphas, frames, hbar: float) -> list[ReportRow]:
    rows: list[ReportRow] = []
    for alpha in alphas:
        even = CoherentEven(alpha)
        # the oracle's level expansion raises ConvergenceError past its
        # truncation cap; taken first, it also keeps a large |alpha| from
        # building the D x D matrices of _coherent_pair_elements, D ~ |alpha|^2
        fock_expansion(even)
        modes = (even,) if abs(alpha) == 0 else (even, CoherentOdd(alpha))
        for mu, nu in frames:
            (unit,), s = unit_frames((ModeGroup(even, mu, nu),), hbar)
            x_diag_p, x_cross_p, x2_diag_p, x2_cross_p = _printed_elements(alpha, unit.mu, unit.nu)
            x_diag_o, x_cross_o, x2_diag_o, x2_cross_o = _coherent_pair_elements(alpha, unit.mu, unit.nu)
            # (quantity, parity, published, oracle, scale) at the unit frame
            cells = [("x_diag", "-", x_diag_p, x_diag_o.real, s),
                     ("x_cross_re", "-", x_cross_p.real, x_cross_o.real, s),
                     ("x_cross_im", "-", x_cross_p.imag, x_cross_o.imag, s),
                     ("x2_diag", "-", x2_diag_p, x2_diag_o.real, s * s),
                     ("x2_cross_re", "-", x2_cross_p.real, x2_cross_o.real, s * s),
                     ("x2_cross_im", "-", x2_cross_p.imag, x2_cross_o.imag, s * s)]
            for mode in modes:
                cells.append(("integral", mode.parity, marginal_density(mode, unit.mu, unit.nu).integral, 1.0, 1.0))
                cells.append(("variance", mode.parity, evenodd_var_closed(mode, unit.mu, unit.nu),
                              moments(oracle_marginal(mode, unit.mu, unit.nu)).var, s * s))
            rows.extend(ReportRow(quantity, alpha, parity, mu, nu, hbar, published * scale, oracle * scale)
                        for quantity, parity, published, oracle, scale in cells)
    return rows


COLUMNS = ["quantity", "alpha_re", "alpha_im", "parity", "mu", "nu", "hbar",
           "published_value", "oracle_value", "ratio"]


def format_rows(rows: list[ReportRow]) -> list[str]:
    """One CSV line per row, in COLUMNS order, floats to 17 digits."""
    return [f"{r.quantity},{r.alpha.real:.17g},{r.alpha.imag:.17g},{r.parity},"
            f"{r.mu:.17g},{r.nu:.17g},{r.hbar:.17g},"
            f"{r.published_value:.17g},{r.oracle_value:.17g},{r.ratio:.17g}"
            for r in rows]
