"""Flat key = value experiment configuration with [section] headers.

Grammar (documented in the README):

* blank lines and lines starting with '#' are ignored,
* '[name]' opens a section; keys before any section are an error,
* 'key = value' assigns; repeated [system] 'mode' and [report] 'alpha'
  and 'frame' keys accumulate in order, every other repeated key keeps
  the last assignment,
* mode lines: 'mode = fock N', 'mode = even RE IM', 'mode = odd RE IM',
  with an optional trailing 'xCOUNT' suffix, the group's mode count,
* list values are whitespace-separated numbers.

Each rule that more than one section or command applies is written
once, here, and every section it serves reads through it; a rule of
one command only sits beside that command in cli.py.  Errors carry
file and line so a bad field is directly addressable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .states import N_MAX, CoherentEven, CoherentOdd, Fock, ModeGroup, ModeSpec, SystemSpec


@dataclass
class RawConfig:
    """Parsed but unvalidated sections: {section: {key: [(value, line)]}}."""

    sections: dict
    source: str

    def section(self, name: str) -> dict:
        return self.sections.get(name, {})

    def last(self, section: str, key: str):
        entries = self.all(section, key)
        return entries[-1][0] if entries else None

    def last_line(self, section: str, key: str) -> int:
        entries = self.all(section, key)
        return entries[-1][1] if entries else 0

    def all(self, section: str, key: str) -> list:
        return self.section(section).get(key, [])

    def fail(self, line: int, message: str):
        raise ConfigError(f"{self.source}:{line}: {message}")


def parse_config_text(text: str, source: str = "<config>") -> RawConfig:
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if not current:
                raise ConfigError(f"{source}:{lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        if current is None:
            raise ConfigError(f"{source}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()   # keys are case-sensitive: the frame bounds are r and R
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        sections[current].setdefault(key, []).append((value, lineno))
    return RawConfig(sections=sections, source=source)


def parse_config_file(path: str | Path) -> RawConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def _get(raw: RawConfig, section: str, key: str, convert, what: str, default, required: bool):
    """The last value of a key, converted; its default when absent, or an
    error when it is required.  A value convert rejects names its line."""
    value = raw.last(section, key)
    if value is None:
        if required:
            raise ConfigError(f"{raw.source}: missing required key '{key}' in [{section}]")
        return default
    try:
        return convert(value)
    except ValueError:
        raw.fail(raw.last_line(section, key), f"'{key}' must be {what}, got {value!r}")


def get_float(raw: RawConfig, section: str, key: str, default=None, required=False):
    return _get(raw, section, key, float, "a number", default, required)


def get_int(raw: RawConfig, section: str, key: str, default=None, required=False):
    return _get(raw, section, key, int, "an integer", default, required)


def get_seed(raw: RawConfig, flag: int | None) -> int:
    """--seed, else [run] seed, else 0; out of 64 unsigned bits, it names its source."""
    seed = get_int(raw, "run", "seed", default=0) if flag is None else flag
    if not 0 <= seed < 2 ** 64:
        message = f"seed must fit in 64 unsigned bits, got {seed}"
        if flag is not None:
            raise ConfigError("--" + message)
        raw.fail(raw.last_line("run", "seed"), message)
    return seed


def get_float_list(raw: RawConfig, section: str, key: str, default=None, required=False):
    return _get(raw, section, key, lambda v: [float(t) for t in v.split()], "a list of numbers", default, required)


def get_int_list(raw: RawConfig, section: str, key: str, default=None, required=False):
    return _get(raw, section, key, lambda v: [int(t) for t in v.split()], "a list of integers", default, required)


# the supported range of hbar ([system] hbar, [report] hbar, each [scan]
# hbar_list entry), of the scan energy [scan] E and of the scale hbar
# (mu^2 + nu^2) of each [frame] and [report] frame direction, inclusive
SCALE_MIN = 1e-200
SCALE_MAX = 1e200


def _check_scale(raw: RawConfig, section: str, key: str, values: list[float]) -> None:
    for v in values:
        if not SCALE_MIN <= v <= SCALE_MAX:
            raw.fail(raw.last_line(section, key), f"{key} must lie in [{SCALE_MIN:g}, {SCALE_MAX:g}], got {v!r}")


def get_scale(raw: RawConfig, section: str, key: str, default=None, required=False) -> float:
    """hbar or E: a number in [SCALE_MIN, SCALE_MAX]."""
    value = get_float(raw, section, key, default, required)
    _check_scale(raw, section, key, [value])
    return value


def get_scale_list(raw: RawConfig, section: str, key: str, default: list) -> list[float]:
    """At least one hbar, each in [SCALE_MIN, SCALE_MAX]."""
    values = get_float_list(raw, section, key, default)
    if not values:
        raw.fail(raw.last_line(section, key), f"{key} needs at least one entry")
    _check_scale(raw, section, key, values)
    return values


def get_positive(raw: RawConfig, section: str, key: str, default=None, required=False) -> float:
    """A number that must be positive and finite."""
    value = get_float(raw, section, key, default, required)
    if not 0 < value < math.inf:
        raw.fail(raw.last_line(section, key), f"{key} must be positive and finite, got {value}")
    return value


def get_positive_list(raw: RawConfig, section: str, key: str, default: list) -> list[float]:
    """At least one number, each positive and finite."""
    values = get_float_list(raw, section, key, default)
    if not values or not all(0 < v < math.inf for v in values):
        raw.fail(raw.last_line(section, key), f"{key} needs at least one entry, each positive and finite, got {values}")
    return values


def _pair_lines(raw: RawConfig, section: str, key: str, names: str):
    """(x, y, value, line) of each 'x y' line of a key."""
    for value, lineno in raw.all(section, key):
        try:
            x, y = (float(tok) for tok in value.split())
        except ValueError:
            raw.fail(lineno, f"{key} takes two reals ({names}), got {value!r}")
        yield x, y, value, lineno


def get_alphas(raw: RawConfig, section: str, key: str) -> list[complex]:
    """Cat amplitudes 'RE IM', one per line.  Each must make an even cat
    and, unless 0, an odd one, as a mode line would."""
    alphas = []
    for re, im, value, lineno in _pair_lines(raw, section, key, "Re, Im"):
        alpha = complex(re, im)
        try:
            CoherentEven(alpha)
            if alpha:
                CoherentOdd(alpha)
        except ValueError as exc:
            raw.fail(lineno, f"{key} {value!r}: {exc}")
        alphas.append(alpha)
    return alphas


def _frame_radius(raw: RawConfig, mu: float, nu: float, line: int, where: str) -> float:
    """mu^2 + nu^2 of one frame direction, which must be positive and finite."""
    rho = mu * mu + nu * nu
    if not 0 < rho < math.inf:
        raw.fail(line, f"degenerate frame {where}: mu^2 + nu^2 = {rho}, "
                       "entries must be finite and the sum positive and finite")
    return rho


def _check_frame_scale(raw: RawConfig, mu: float, nu: float, rho: float, hbar: float, line: int) -> None:
    """hbar (mu^2 + nu^2) must lie in [SCALE_MIN, SCALE_MAX], where grids and moments are finite."""
    scale = hbar * rho
    if not SCALE_MIN <= scale <= SCALE_MAX:
        raw.fail(line, f"frame (mu, nu) = ({mu:g}, {nu:g}) at hbar = {hbar:g} has hbar (mu^2 + nu^2) = "
                       f"{scale:g}, which must lie in [{SCALE_MIN:g}, {SCALE_MAX:g}]")


def get_directions(raw: RawConfig, section: str, key: str, hbar: float) -> list[tuple[float, float]]:
    """Frame directions 'mu nu', one per line, under the [frame] rule at hbar."""
    frames = []
    for mu, nu, value, lineno in _pair_lines(raw, section, key, "mu, nu"):
        _check_frame_scale(raw, mu, nu, _frame_radius(raw, mu, nu, lineno, repr(value)), hbar, lineno)
        frames.append((mu, nu))
    return frames


def get_frame_bounds(raw: RawConfig, section: str, radii: list[float], nominal: list[float], line: int):
    """r and R of a section, by default half the least and twice the
    greatest nominal radius; every frame radius must lie in (r, R), and R
    must be finite.  The nominal radii are the radii as configured
    ([scan] rho_pattern, of which the radii formed from sqrt(rho) and
    theta are rounded copies), on the given line, which a failing
    default names."""
    r = get_float(raw, section, "r", default=0.5 * min(nominal))
    big_r = get_float(raw, section, "R", default=2.0 * max(nominal))
    if not 0 < r < min(radii):
        raw.fail(raw.last_line(section, "r") or line,
                 f"r must lie in (0, {min(radii):.6g}), below every frame radius, got {r}")
    if not max(radii) < big_r < math.inf:
        raw.fail(raw.last_line(section, "R") or line,
                 f"R must be finite and exceed every frame radius {max(radii):.6g}, got {big_r}")
    return r, big_r


def _parse_mode(raw: RawConfig, value: str, lineno: int) -> tuple[ModeSpec, int]:
    """(mode, count) of one mode line."""
    tokens = value.split()
    count = 1
    digits = tokens[-1][1:] if tokens and tokens[-1][:1].lower() == "x" else ""
    # isdigit alone admits superscripts such as '²', which int rejects
    if digits.isascii() and digits.isdigit():
        count = int(digits)
        tokens = tokens[:-1]
        if count < 1:
            raw.fail(lineno, "mode repetition must be at least x1")
    if not tokens:
        raw.fail(lineno, "empty mode line")
    kind = tokens[0].lower()
    try:
        if kind == "fock":
            if len(tokens) != 2:
                raw.fail(lineno, "fock mode takes one integer level")
            mode: ModeSpec = Fock(int(tokens[1]))
        elif kind in ("even", "odd"):
            if len(tokens) != 3:
                raw.fail(lineno, f"{kind} mode takes two reals (Re alpha, Im alpha)")
            alpha = complex(float(tokens[1]), float(tokens[2]))
            mode = CoherentEven(alpha) if kind == "even" else CoherentOdd(alpha)
        else:
            raw.fail(lineno, f"unknown mode kind {kind!r} (expected fock/even/odd)")
    except ConfigError:
        raise
    except ValueError as exc:
        raw.fail(lineno, f"invalid mode line: {exc}")
    return mode, count


def _frame_list(raw: RawConfig, key: str, default: float, n_modes: int) -> list[float]:
    """[frame] mu or nu: one finite value, broadcast, or one per mode."""
    values = get_float_list(raw, "frame", key, default=[default])
    if len(values) not in (1, n_modes):
        raw.fail(raw.last_line("frame", key), f"frame {key} must have 1 or {n_modes} entries, got {len(values)}")
    if not all(math.isfinite(v) for v in values):
        raw.fail(raw.last_line("frame", key), f"frame {key} entries must be finite, got {values}")
    return values


def parse_system(raw: RawConfig, frame: bool = True) -> tuple[SystemSpec, float]:
    """[system] mode lines, one group each, on the [frame] directions, which
    are not read without frame (every mode then lies on mu 1, nu 0), and
    [system] hbar."""
    if "system" not in raw.sections:
        raise ConfigError(f"{raw.source}: missing [system] section")
    lines: list[tuple[ModeSpec, int]] = []
    n_modes = 0
    for value, lineno in raw.all("system", "mode"):
        lines.append(_parse_mode(raw, value, lineno))
        n_modes += lines[-1][1]
        if n_modes > N_MAX:
            raw.fail(lineno, f"the mode lines hold more than N_MAX = {N_MAX} modes")
    if not lines:
        raise ConfigError(f"{raw.source}: [system] needs at least one mode line")
    hbar = get_scale(raw, "system", "hbar", default=1.0)
    mu = _frame_list(raw, "mu", 1.0, n_modes) if frame else [1.0]
    nu = _frame_list(raw, "nu", 0.0, n_modes) if frame else [0.0]
    if len(mu) == len(nu) == 1:
        return SystemSpec(tuple(ModeGroup(mode, mu[0], nu[0], count) for mode, count in lines)), hbar
    modes = [mode for mode, count in lines for _ in range(count)]
    return SystemSpec.from_modes(modes, mu * (n_modes // len(mu)), nu * (n_modes // len(nu))), hbar


def parse_frame(raw: RawConfig, sys_spec: SystemSpec, hbars: list[float],
                required: bool = True) -> tuple[float, float]:
    """The bounds (r, R) of [frame], by the rule of get_frame_bounds over
    the system's frame radii, each of which must be positive and finite.
    Every frame, at each of hbars, meets `_check_frame_scale`; its scale is
    least at the least hbar and radius and greatest at the greatest.
    Without the section the defaults hold, unless it is required."""
    if required and "frame" not in raw.sections:
        raise ConfigError(f"{raw.source}: missing [frame] section")
    line = max(raw.last_line("frame", "mu"), raw.last_line("frame", "nu"))
    rhos = [_frame_radius(raw, g.mu, g.nu, line, f"(mu, nu) = ({g.mu:g}, {g.nu:g})") for g in sys_spec.groups]
    for hbar, i in ((min(hbars), rhos.index(min(rhos))), (max(hbars), rhos.index(max(rhos)))):
        _check_frame_scale(raw, sys_spec.groups[i].mu, sys_spec.groups[i].nu, rhos[i], hbar, line)
    return get_frame_bounds(raw, "frame", rhos, rhos, line)
