"""Command-line surface: experiment configs in, CSV/text artifacts out.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
All file writes are whole-file atomic (temp file + rename) and fully
deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path

try:
    # CPython's own SHA-256 (_sha2 from 3.12, _sha256 before): hashlib
    # would map OpenSSL's libcrypto into every process, about 3 MB
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

from . import __version__
from ._blas import one_blas_thread
from ._malloc import keep_freed_memory
from .clt import hbar_scan, n_scan, summed_density
from .config import (
    SCALE_MAX,
    SCALE_MIN,
    RawConfig,
    get_alphas,
    get_directions,
    get_float,
    get_frame_bounds,
    get_int,
    get_int_list,
    get_positive,
    get_positive_list,
    get_scale,
    get_scale_list,
    get_seed,
    parse_config_file,
    parse_frame,
    parse_system,
)
from .convolution import MC_MODE_DRAWS_MAX, MC_SAMPLES_MAX, backend_agreement, cf_product, sample_sum
from .errors import CmtomoError, ConfigError, NumericalError
from .marginals import marginal_density, tomogram
from .reconstruct import fidelity, reconstruct_single_mode
from .report import COLUMNS, DEFAULT_ALPHAS, DEFAULT_FRAMES, discrepancy_rows, format_rows
from .states import FOCK_LEVEL_MAX, N_MAX, SystemSpec, fock_expansion, unit_frames


def _fmt(x) -> str:
    return format(float(x), ".17g")


# printf form of _fmt, for formatting a whole row with one % operation
_FIELD = "%.17g"
# rows formatted and written at a time, so a large grid's text is never
# held whole
_ROW_BLOCK = 4096


def _rows(*columns: list) -> list[str]:
    """CSV lines of equal-length float (or integer) columns, each field as
    _fmt writes it (an integer below 2^53 in its %d digits).

    Pass the columns as lists (ndarray.tolist()): formatting Python floats
    with one row template is about twice as fast as a _fmt call per cell.
    """
    template = ",".join([_FIELD] * len(columns))
    return [template % row for row in zip(*columns)]


def _row_blocks(s_ref: float, xs, *densities) -> Iterator[list[str]]:
    """_rows of a result on unit frames (`unit_frames`) at the configured
    hbar: the X column times s_ref and each density column over s_ref,
    _ROW_BLOCK rows at a time."""
    for lo in range(0, len(xs), _ROW_BLOCK):
        hi = lo + _ROW_BLOCK
        yield _rows((xs[lo:hi] * s_ref).tolist(), *((d[lo:hi] / s_ref).tolist() for d in densities))


def _write_atomic(args, pieces: Iterable[str]) -> None:
    """Write the text pieces to a temp file beside args.out, then rename it
    over args.out; on any error the temp file is removed, and an OSError
    is a config error that names the path and where it was set
    (args.out_at).  The artifact takes the mode a newly created file
    would, 0o666 under the umask, not mkstemp's 0o600."""
    path = Path(args.out)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.writelines(pieces)
            # the umask can only be read by setting it; it is put back at once
            umask = os.umask(0o022)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path} ({args.out_at}): {exc}") from exc


def _unwritable(path: str | Path) -> str | None:
    """Why path cannot be written, where that shows before anything is
    computed: it is a directory, or its nearest existing ancestor is not
    one; else None."""
    path = Path(path)
    if path.is_dir():
        return "it is a directory"
    for parent in path.parents:
        if parent.exists():
            return None if parent.is_dir() else f"{parent} is not a directory"
    return None


def _config_digest(raw: RawConfig, args) -> str:
    parts = []
    for section in sorted(raw.sections):
        for key in sorted(raw.sections[section]):
            for value, _ in raw.sections[section][key]:
                parts.append(f"[{section}] {key} = {value}")
    parts.append(f"seed = {args.seed}")
    parts.append(f"all_backends = {args.all_backends}")
    parts.append(f"mc_samples = {args.mc_samples}")
    return _sha256("\n".join(parts).encode()).hexdigest()


def _header(raw: RawConfig, args, extra: list[str]) -> list[str]:
    lines = [f"cmtomo {__version__}", f"config sha256 {_config_digest(raw, args)}"]
    lines.extend(extra)
    return lines


def _csv(header: list[str], columns: list[str], blocks: Iterable[list[str]],
         footer: list[str] | None = None) -> Iterator[str]:
    """The CSV text in pieces: the header comments and column line, one
    piece per block of rows, the footer comments; every line ends in a
    newline."""
    yield "".join(f"# {line}\n" for line in header) + ",".join(columns) + "\n"
    for rows in blocks:
        if rows:
            yield "\n".join(rows) + "\n"
    if footer:
        yield "".join(f"# {line}\n" for line in footer)


def _single_mode(raw: RawConfig, frame: bool):
    sys_spec, hbar = parse_system(raw, frame)
    if sys_spec.n_modes != 1:
        raw.fail(raw.last_line("system", "mode"), f"this command needs exactly one mode, got {sys_spec.n_modes}")
    return sys_spec, hbar


def cmd_marginal(raw: RawConfig, args) -> int:
    sys_spec, hbar = _single_mode(raw, frame=True)
    parse_frame(raw, sys_spec, [hbar], required=False)
    g = sys_spec.groups[0]
    (unit,), s_ref = unit_frames(sys_spec.groups, hbar)
    dens = marginal_density(unit.mode, unit.mu, unit.nu)
    header = _header(raw, args, [
        f"mode {sys_spec.describe(hbar)}",
        f"mu {_fmt(g.mu)} nu {_fmt(g.nu)} hbar {_fmt(hbar)}",
        f"pre_rescale_integral {_fmt(dens.integral)}",
    ])
    _write_atomic(args, _csv(header, ["X", "density"], _row_blocks(s_ref, dens.grid.xs, dens.values)))
    return 0


def cmd_cm(raw: RawConfig, args) -> int:
    sys_spec, hbar = parse_system(raw)
    r, big_r = parse_frame(raw, sys_spec, [hbar])
    if args.all_backends and sys_spec.n_modes * args.mc_samples > MC_MODE_DRAWS_MAX:
        raw.fail(raw.last_line("system", "mode"),
                 f"--all-backends draws every mode: {sys_spec.n_modes} modes x --mc-samples {args.mc_samples} "
                 f"exceed 2^30 = {MC_MODE_DRAWS_MAX} mode-draws")
    groups, s_ref = unit_frames(sys_spec.groups, hbar)
    unit = SystemSpec(groups)
    marginals, sigma2, s_n, cm = summed_density(unit)
    columns = ["X", "density"]
    data = [cm.values]
    footer: list[str] = []
    if args.all_backends:
        cf = cf_product(marginals, unit.counts)
        mc = sample_sum(unit, args.mc_samples, args.seed, marginals)
        agree = backend_agreement(cm, cf, mc)
        columns += ["density_cf", "density_mc"]
        data += [cf.values, agree["density_mc"]]
        footer = [f"{key} {_fmt(agree[key])}" for key in ("tv_fft_cf", "tv_fft_mc", "ks_fft_mc")]
    header = _header(raw, args, [
        f"system {sys_spec.describe(hbar)}",
        f"frame {sys_spec.describe_frame(r, big_r)}",
        f"sigma2 {_fmt(sigma2 * s_ref * s_ref)}",
        f"S_N {_fmt(s_n)}",
        f"clamped_mass {_fmt(cm.meta['clamped_mass'])}",
    ])
    _write_atomic(args, _csv(header, columns, _row_blocks(s_ref, cm.grid.xs, *data), footer))
    return 0


def cmd_clt_scan(raw: RawConfig, args) -> int:
    E = get_scale(raw, "scan", "E", required=True)
    n_list = get_int_list(raw, "scan", "N_list", default=[4, 8, 16, 32, 64])
    if not n_list or not all(1 <= n <= N_MAX for n in n_list):
        raw.fail(raw.last_line("scan", "N_list"), f"N_list entries must lie in 1..N_MAX = {N_MAX}, got {n_list}")
    levels = get_int_list(raw, "scan", "n_pattern", default=[1])
    if not levels or not all(0 <= n <= FOCK_LEVEL_MAX for n in levels):
        raw.fail(raw.last_line("scan", "n_pattern"),
                 f"n_pattern needs at least one level, each from 0 to {FOCK_LEVEL_MAX}, got {levels}")
    rho_pattern = get_positive_list(raw, "scan", "rho_pattern", default=[1.0])
    # a point's sigma^2 lies between rho E for the least and the greatest rho
    for rho in (min(rho_pattern), max(rho_pattern)):
        if not SCALE_MIN <= rho * E <= SCALE_MAX:
            raw.fail(raw.last_line("scan", "rho_pattern"), f"rho_pattern entry {rho!r} at E = {E!r} has "
                     f"rho E = {rho * E!r}, which must lie in [{SCALE_MIN:g}, {SCALE_MAX:g}]")
    theta = get_float(raw, "scan", "theta", default=0.0)
    if not math.isfinite(theta):
        raw.fail(raw.last_line("scan", "theta"), f"theta must be finite, got {theta}")
    pairs = [(math.sqrt(rho) * math.cos(theta), math.sqrt(rho) * math.sin(theta))
             for rho in rho_pattern]
    # every point needs r < mu^2 + nu^2 < R for each pair
    r, big_r = get_frame_bounds(raw, "scan", [mu * mu + nu * nu for mu, nu in pairs], rho_pattern,
                                raw.last_line("scan", "rho_pattern"))
    if not math.isfinite(big_r * E):
        raw.fail(raw.last_line("scan", "R"), f"R E must be finite, got R = {big_r!r}, E = {E!r}")
    reports = n_scan(levels, pairs, E, n_list, r=r, R=big_r)
    header = _header(raw, args, [f"scan fixed-energy E {_fmt(E)}"])
    columns = ["N", "hbar", "S_N", "sigma2", "rE", "RE", "ks", "tv"]
    rows = _rows(*([getattr(rep, c) for rep in reports] for c in columns))
    _write_atomic(args, _csv(header, columns, [rows]))
    return 0


def cmd_hbar_scan(raw: RawConfig, args) -> int:
    sys_spec, hbar = parse_system(raw)
    hbar_list = get_scale_list(raw, "scan", "hbar_list", default=[1.0, 0.1, 0.01, 0.001])
    if any(b >= a for a, b in zip(hbar_list, hbar_list[1:])):
        raw.fail(raw.last_line("scan", "hbar_list"), f"hbar_list must be strictly decreasing, got {hbar_list}")
    # the scan runs at each hbar_list entry; [system] hbar only labels it
    r, big_r = parse_frame(raw, sys_spec, hbar_list)
    epsilon = get_positive(raw, "scan", "epsilon", default=0.1)
    reports = hbar_scan(sys_spec, hbar_list, epsilon)
    header = _header(raw, args, [
        f"system {sys_spec.describe(hbar)}",
        f"frame {sys_spec.describe_frame(r, big_r)}",
        f"epsilon {_fmt(epsilon)}",
    ])
    columns = ["hbar", "sigma2", "mass_in_epsilon", "gaussian_predicted_mass"]
    rows = _rows(*([getattr(rep, c) for rep in reports] for c in columns))
    _write_atomic(args, _csv(header, columns, [rows]))
    return 0


# reconstruct and discrepancy-report hold OpenBLAS to one thread: a second
# buys their small matrix products almost no wall time, then spins idle on
# a core.  The other commands multiply no matrices and keep its threads.
@one_blas_thread()
def cmd_reconstruct(raw: RawConfig, args) -> int:
    sys_spec, hbar = _single_mode(raw, frame=False)
    mode = sys_spec.groups[0].mode
    # every size follows from dim; a key that set one before is named
    for key in raw.section("reconstruct"):
        if key != "dim":
            raw.fail(raw.last_line("reconstruct", key),
                     f"[reconstruct] takes only dim; {key} is not read, the cutoffs follow dim")
    dim = get_int(raw, "reconstruct", "dim", default=8)
    if dim < 2:
        raw.fail(raw.last_line("reconstruct", "dim"), f"reconstruct dim must be at least 2, got {dim}")

    rho = reconstruct_single_mode(lambda X, m, n: tomogram(mode, m, n, X), dim)  # hbar only labels it
    psi = fock_expansion(mode)
    fid = fidelity(rho, psi)
    header = _header(raw, args, [
        f"mode {sys_spec.describe(hbar)}",
        f"dim {dim}",
        f"pre_rescale_trace {_fmt(rho.meta['pre_rescale_trace'])}",
        f"cutoff_char_function {_fmt(rho.meta['cutoff_char_function'])}",
        f"truncation_leakage {'yes' if rho.meta['truncation_leakage'] else 'no'}",
        f"fidelity {_fmt(fid)}",
    ])
    rows = _rows([m for m in range(dim) for _ in range(dim)], list(range(dim)) * dim,
                 rho.entries.real.ravel().tolist(), rho.entries.imag.ravel().tolist())
    _write_atomic(args, _csv(header, ["m", "n", "re", "im"], [rows]))
    return 0


@one_blas_thread()
def cmd_discrepancy_report(raw: RawConfig, args) -> int:
    # the report reads [report] only; a [system] key, such as an hbar meant
    # for it, is named, not silently ignored
    for key in raw.section("system"):
        raw.fail(raw.last_line("system", key),
                 f"discrepancy-report reads no [system] key; {key} is not read, set [report] hbar for its hbar")
    alphas = get_alphas(raw, "report", "alpha") or list(DEFAULT_ALPHAS)
    hbar = get_scale(raw, "report", "hbar", default=1.0)
    frames = get_directions(raw, "report", "frame", hbar) or list(DEFAULT_FRAMES)
    rows = discrepancy_rows(alphas, frames, hbar)
    header = _header(raw, args, ["closed forms vs oracle values"])
    _write_atomic(args, _csv(header, COLUMNS, [format_rows(rows)]))
    return 0


_COMMANDS = {
    "marginal": cmd_marginal,
    "cm": cmd_cm,
    "clt-scan": cmd_clt_scan,
    "hbar-scan": cmd_hbar_scan,
    "reconstruct": cmd_reconstruct,
    "discrepancy-report": cmd_discrepancy_report,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process for every main call."""
    parser = argparse.ArgumentParser(
        prog="cmtomo",
        description="Quadrature and center-of-mass tomograms of oscillator states",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", default=None, help="output path (overrides [run] out)")
    parser.add_argument("--seed", type=int, default=None, help="64-bit sampling seed")
    parser.add_argument("--all-backends", action="store_true",
                        help="emit every convolution backend plus cross-check footers")
    parser.add_argument("--mc-samples", type=int, default=10 ** 6,
                        help="Monte-Carlo sample count for --all-backends, at most 2^27, and at most "
                             "2^30 / N for N modes; it bounds the run time, and memory grows with its square "
                             "root only, 2 MiB per group of equal modes at 2^27")
    return parser


def main(argv=None) -> int:
    # set here, not at import: a library caller keeps its own allocator policy
    keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        raw = parse_config_file(args.config)
        args.out_at = "--out"
        if args.out is None:
            args.out = raw.last("run", "out")
            args.out_at = f"{raw.source}:{raw.last_line('run', 'out')}, [run] out"
        if args.out is None:
            raise ConfigError(f"{raw.source}: no output path (--out or [run] out)")
        reason = _unwritable(args.out)
        if reason is not None:
            raise ConfigError(f"cannot write {args.out} ({args.out_at}): {reason}")
        args.seed = get_seed(raw, args.seed)
        if args.mc_samples <= 0:
            raise ConfigError(f"--mc-samples must be positive, got {args.mc_samples}")
        if args.mc_samples > MC_SAMPLES_MAX:
            raise ConfigError(f"--mc-samples must be at most {MC_SAMPLES_MAX} (2^27), got {args.mc_samples}")
        return _COMMANDS[args.command](raw, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, CmtomoError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
