"""Command-line surface: experiment configs in, CSV/text artifacts out.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
All file writes are whole-file atomic (temp file + rename) and fully
deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

from . import __version__
from .clt import CltReport, hbar_scan, lyapunov_ratio, n_scan, per_mode_moments
from .config import (
    RawConfig,
    get_float,
    get_float_list,
    get_int,
    get_int_list,
    parse_config_file,
    parse_frame,
    parse_system,
)
from .convolution import backend_agreement, cf_product, convolve_fft, marginals_for_system, sample_sum
from .errors import CmtomoError, ConfigError, NormalizationMismatchWarning, NumericalError, TruncationLeakageWarning
from .marginals import evenodd_pointwise, fock_tomogram, marginal_density
from .reconstruct import CutoffError, ReconstructionCutoffs, fidelity, reconstruct_single_mode
from .report import DEFAULT_ALPHAS, DEFAULT_FRAMES, discrepancy_rows, format_report
from .states import ODD_ALPHA_MIN, Fock, fock_expansion


def _fmt(x) -> str:
    return format(float(x), ".17g")


# printf form of _fmt, for formatting a whole row with one % operation
_FIELD = "%.17g"


def _rows(*columns: list) -> list[str]:
    """CSV lines of equal-length float columns, each field as _fmt writes it.

    Pass the columns as lists (ndarray.tolist()): formatting Python floats
    with one row template is about twice as fast as a _fmt call per cell.
    """
    template = ",".join([_FIELD] * len(columns))
    return [template % row for row in zip(*columns)]


def _write_atomic(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config_digest(raw: RawConfig, args) -> str:
    parts = []
    for section in sorted(raw.sections):
        for key in sorted(raw.sections[section]):
            for value, _ in raw.sections[section][key]:
                parts.append(f"[{section}] {key} = {value}")
    parts.append(f"seed = {args.seed}")
    parts.append(f"epsilon = {args.epsilon}")
    parts.append(f"all_backends = {args.all_backends}")
    parts.append(f"mc_samples = {args.mc_samples}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _header(raw: RawConfig, args, extra: list[str]) -> list[str]:
    lines = [f"cmtomo {__version__}", f"config sha256 {_config_digest(raw, args)}"]
    lines.extend(extra)
    return lines


def _csv(header: list[str], columns: list[str], rows: list[str],
         footer: list[str] | None = None) -> str:
    out = [f"# {line}" for line in header]
    out.append(",".join(columns))
    out.extend(rows)
    if footer:
        out.extend(f"# {line}" for line in footer)
    return "\n".join(out) + "\n"


def _single_mode(raw: RawConfig):
    sys_spec = parse_system(raw)
    if sys_spec.n_modes != 1:
        raw.fail(raw.last_line("system", "mode"), f"this command needs exactly one mode, got {sys_spec.n_modes}")
    frame = parse_frame(raw, 1, required=False)
    if frame is None:
        mu, nu = 1.0, 0.0
    else:
        mu, nu = frame.mu[0], frame.nu[0]
    return sys_spec, mu, nu


def cmd_marginal(raw: RawConfig, args) -> int:
    sys_spec, mu, nu = _single_mode(raw)
    mode = sys_spec.modes[0]
    dens = marginal_density(mode, mu, nu, sys_spec.hbar)
    header = _header(raw, args, [
        f"mode {sys_spec.describe()}",
        f"mu {_fmt(mu)} nu {_fmt(nu)} hbar {_fmt(sys_spec.hbar)}",
        f"rescale_factor {_fmt(dens.meta['rescale'])}",
        f"pre_rescale_integral {_fmt(dens.meta['pre_rescale_integral'])}",
    ])
    rows = _rows(dens.grid.xs.tolist(), dens.values.tolist())
    _write_atomic(args.out, _csv(header, ["X", "density"], rows))
    return 0


def cmd_cm(raw: RawConfig, args) -> int:
    sys_spec = parse_system(raw)
    frame = parse_frame(raw, sys_spec.n_modes)
    marginals = marginals_for_system(sys_spec, frame)
    pm = per_mode_moments(sys_spec, frame, marginals)
    sigma2 = sum(m.var for m in pm)
    s_n = lyapunov_ratio(pm)
    cm = convolve_fft(marginals)
    columns = ["X", "density"]
    data = [cm.values]
    footer: list[str] = []
    if args.all_backends:
        cf = cf_product(marginals, grid=cm.grid)
        mc = sample_sum(sys_spec, frame, args.mc_samples, args.seed, marginals=marginals)
        agree = backend_agreement(cm, cf, mc)
        columns += ["density_cf", "density_mc"]
        data += [cf.values, agree["density_mc"]]
        footer = [f"{key} {_fmt(agree[key])}" for key in ("tv_fft_cf", "tv_fft_mc", "ks_fft_mc")]
    header = _header(raw, args, [
        f"system {sys_spec.describe()}",
        f"frame {frame.describe()}",
        f"sigma2 {_fmt(sigma2)}",
        f"S_N {_fmt(s_n)}",
        f"clamped_mass {_fmt(cm.meta['clamped_mass'])}",
    ])
    rows = _rows(cm.grid.xs.tolist(), *(col.tolist() for col in data))
    _write_atomic(args.out, _csv(header, columns, rows, footer))
    return 0


def _report_rows_csv(reports: list[CltReport], columns: list[str]) -> list[str]:
    template = ",".join("%d" if c == "N" else _FIELD for c in columns)
    rows = []
    for rep in reports:
        lookup = {
            "N": rep.N, "hbar": rep.hbar, "S_N": rep.S_N, "sigma2": rep.sigma2,
            "rE": rep.rE, "RE": rep.RE, "ks": rep.ks_distance, "tv": rep.tv_distance,
            "mass_in_epsilon": rep.mass_in_epsilon,
            "gaussian_predicted_mass": rep.gaussian_mass,
        }
        rows.append(template % tuple(lookup[c] for c in columns))
    return rows


def cmd_clt_scan(raw: RawConfig, args) -> int:
    if "scan" not in raw.sections:
        raise ConfigError(f"{raw.source}: missing [scan] section")
    E = get_float(raw, "scan", "E", required=True)
    n_list = get_int_list(raw, "scan", "N_list", default=[4, 8, 16, 32, 64])
    levels = get_int_list(raw, "scan", "n_pattern", default=[1])
    rho_pattern = get_float_list(raw, "scan", "rho_pattern", default=[1.0])
    if not n_list or min(n_list) < 1:
        raw.fail(raw.last_line("scan", "N_list"), f"N_list entries must be at least 1, got {n_list}")
    if not rho_pattern or not all(0 < rho < math.inf for rho in rho_pattern):
        raw.fail(raw.last_line("scan", "rho_pattern"),
                 f"rho_pattern entries must be positive and finite, got {rho_pattern}")
    theta = get_float(raw, "scan", "theta", default=0.0)
    if not math.isfinite(theta):
        raw.fail(raw.last_line("scan", "theta"), f"theta must be finite, got {theta}")
    pairs = [(math.sqrt(rho) * math.cos(theta), math.sqrt(rho) * math.sin(theta))
             for rho in rho_pattern]
    # every point's FrameSpec needs r < mu^2 + nu^2 < R for each pair
    radii = [mu * mu + nu * nu for mu, nu in pairs]
    r = get_float(raw, "scan", "r", default=0.5 * min(rho_pattern))
    big_r = get_float(raw, "scan", "R", default=2.0 * max(rho_pattern))
    if not 0 < r < min(radii):
        raw.fail(raw.last_line("scan", "r"),
                 f"r must lie in (0, {min(radii):.6g}), below every frame radius, got {r}")
    if not max(radii) < big_r:
        raw.fail(raw.last_line("scan", "R"), f"R must exceed every frame radius {max(radii):.6g}, got {big_r}")
    if not 0 < E < math.inf:
        raw.fail(raw.last_line("scan", "E"), f"E (scan energy) must be positive and finite, got {E}")
    if not levels or any(n < 0 for n in levels):
        raw.fail(raw.last_line("scan", "n_pattern"),
                 f"n_pattern levels must be nonnegative and at least one, got {levels}")
    reports = n_scan(levels, pairs, E, n_list, r=r, R=big_r, epsilon=args.epsilon)
    header = _header(raw, args, [
        f"scan fixed-energy E {_fmt(E)} epsilon {_fmt(args.epsilon)}",
    ])
    columns = ["N", "hbar", "S_N", "sigma2", "rE", "RE", "ks", "tv"]
    _write_atomic(args.out, _csv(header, columns, _report_rows_csv(reports, columns)))
    return 0


def cmd_hbar_scan(raw: RawConfig, args) -> int:
    sys_spec = parse_system(raw)
    frame = parse_frame(raw, sys_spec.n_modes)
    hbar_list = get_float_list(raw, "scan", "hbar_list", default=[1.0, 0.1, 0.01, 0.001])
    line = raw.last_line("scan", "hbar_list")
    if not hbar_list:
        raw.fail(line, "hbar_list is empty")
    if not all(0 < h < math.inf for h in hbar_list):
        raw.fail(line, f"hbar_list entries must be positive and finite, got {hbar_list}")
    if any(b >= a for a, b in zip(hbar_list, hbar_list[1:])):
        raw.fail(line, f"hbar_list must be strictly decreasing, got {hbar_list}")
    epsilon = get_float(raw, "scan", "epsilon", default=args.epsilon)
    if not 0 < epsilon < math.inf:
        raw.fail(raw.last_line("scan", "epsilon"), f"epsilon must be positive and finite, got {epsilon}")
    reports = hbar_scan(sys_spec, frame, hbar_list, epsilon)
    header = _header(raw, args, [
        f"system {sys_spec.describe()}",
        f"frame {frame.describe()}",
        f"epsilon {_fmt(epsilon)}",
    ])
    columns = ["hbar", "sigma2", "mass_in_epsilon", "gaussian_predicted_mass"]
    _write_atomic(args.out, _csv(header, columns, _report_rows_csv(reports, columns)))
    return 0


def cmd_reconstruct(raw: RawConfig, args) -> int:
    sys_spec, mu, nu = _single_mode(raw)
    mode = sys_spec.modes[0]
    hbar = sys_spec.hbar
    dim = get_int(raw, "reconstruct", "dim", default=8)
    try:
        cut = ReconstructionCutoffs(
            frame_radius=get_float(raw, "reconstruct", "frame_radius", default=None),
            radial_nodes=get_int(raw, "reconstruct", "radial_nodes", default=160),
            angular_nodes=get_int(raw, "reconstruct", "angular_nodes", default=128),
            x_sigmas=get_float(raw, "reconstruct", "x_sigmas", default=10.0),
            x_points=get_int(raw, "reconstruct", "x_points", default=1024),
        )
    except CutoffError as exc:
        raw.fail(raw.last_line("reconstruct", exc.field), str(exc))
    if dim < 2:
        raw.fail(raw.last_line("reconstruct", "dim"), f"reconstruct dim must be at least 2, got {dim}")

    if isinstance(mode, Fock):
        def tomogram(X, m, n):
            return fock_tomogram(mode.n, m, n, hbar, X)
    else:
        def tomogram(X, m, n):
            return evenodd_pointwise(mode.alpha, mode.parity, m, n, hbar, X)

    # leakage is reported through the output flag, not a console warning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationLeakageWarning)
        rho = reconstruct_single_mode(tomogram, dim, hbar, cut)
    warned = rho.meta["truncation_leakage"]
    psi = fock_expansion(mode)
    fid = fidelity(rho, psi)
    lines = [f"# {line}" for line in _header(raw, args, [
        f"mode {sys_spec.describe()}",
        f"dim {dim}",
        f"pre_rescale_trace {_fmt(rho.meta['pre_rescale_trace'])}",
        f"truncation_leakage {'yes' if warned else 'no'}",
        f"fidelity {_fmt(fid)}",
    ])]
    lines.append("m,n,re,im")
    for m_i in range(dim):
        for n_i in range(dim):
            val = rho.entries[m_i, n_i]
            lines.append(f"{m_i},{n_i},{_fmt(val.real)},{_fmt(val.imag)}")
    _write_atomic(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_discrepancy_report(raw: RawConfig, args) -> int:
    alphas = list(DEFAULT_ALPHAS)
    frames = list(DEFAULT_FRAMES)
    hbar = 1.0
    if "report" in raw.sections:
        entries = raw.all("report", "alpha")
        if entries:
            alphas = []
            for value, lineno in entries:
                toks = value.split()
                if len(toks) != 2:
                    raw.fail(lineno, "alpha takes two reals (Re, Im)")
                try:
                    alpha = complex(float(toks[0]), float(toks[1]))
                except ValueError:
                    raw.fail(lineno, f"invalid alpha: {value!r}")
                # every nonzero alpha also gets an odd-parity row
                if 0 < abs(alpha) < ODD_ALPHA_MIN:
                    raw.fail(lineno, f"alpha must be 0 or of modulus at least {ODD_ALPHA_MIN:g} "
                                     f"(odd coherent states), got {value!r}")
                alphas.append(alpha)
        entries = raw.all("report", "frame")
        if entries:
            frames = []
            for value, lineno in entries:
                toks = value.split()
                if len(toks) != 2:
                    raw.fail(lineno, "frame takes two reals (mu, nu)")
                try:
                    frames.append((float(toks[0]), float(toks[1])))
                except ValueError:
                    raw.fail(lineno, f"invalid frame: {value!r}")
        hbar = get_float(raw, "report", "hbar", default=1.0)
        if not 0 < hbar < math.inf:
            raw.fail(raw.last_line("report", "hbar"), f"hbar must be positive and finite, got {hbar}")
    # the report tabulates the pre-rescale integrals that this warning flags
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NormalizationMismatchWarning)
        rows = discrepancy_rows(alphas, frames, hbar)
    _write_atomic(args.out, format_report(rows, _header(raw, args, ["closed forms vs oracle values"])))
    return 0


_COMMANDS = {
    "marginal": cmd_marginal,
    "cm": cmd_cm,
    "clt-scan": cmd_clt_scan,
    "hbar-scan": cmd_hbar_scan,
    "reconstruct": cmd_reconstruct,
    "discrepancy-report": cmd_discrepancy_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmtomo",
        description="Quadrature and center-of-mass tomograms of oscillator states",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", default=None, help="output path (overrides [run] out)")
    parser.add_argument("--seed", type=int, default=None, help="64-bit sampling seed")
    parser.add_argument("--epsilon", type=float, default=None,
                        help="half-width for the concentrated-mass diagnostics")
    parser.add_argument("--all-backends", action="store_true",
                        help="emit every convolution backend plus cross-check footers")
    parser.add_argument("--mc-samples", type=int, default=10 ** 6,
                        help="Monte-Carlo sample count for --all-backends")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        raw = parse_config_file(args.config)
        if args.out is None:
            args.out = raw.last("run", "out")
        if args.out is None:
            raise ConfigError(f"{raw.source}: no output path (--out or [run] out)")
        if args.seed is None:
            seed = raw.last("run", "seed")
            args.seed = int(seed) if seed is not None else 0
        if args.seed < 0 or args.seed > 2 ** 64 - 1:
            raise ConfigError("seed must fit in 64 unsigned bits")
        if args.epsilon is None:
            args.epsilon = get_float(raw, "run", "epsilon", default=0.1)
            if not 0 < args.epsilon < math.inf:
                raw.fail(raw.last_line("run", "epsilon"),
                         f"epsilon must be positive and finite, got {args.epsilon}")
        elif not 0 < args.epsilon < math.inf:
            raise ConfigError(f"--epsilon must be positive and finite, got {args.epsilon}")
        if args.mc_samples <= 0:
            raise ConfigError(f"--mc-samples must be positive, got {args.mc_samples}")
        return _COMMANDS[args.command](raw, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, CmtomoError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
