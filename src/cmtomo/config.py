"""Flat key = value experiment configuration with [section] headers.

Grammar (documented in the README):

* blank lines and lines starting with '#' are ignored,
* '[name]' opens a section; keys before any section are an error,
* 'key = value' assigns; repeated 'mode' keys accumulate in order,
  every other repeated key keeps the last assignment,
* mode lines: 'mode = fock N', 'mode = even RE IM', 'mode = odd RE IM',
  with an optional trailing 'xCOUNT' repetition suffix,
* list values are whitespace-separated numbers.

Errors carry file and line so a bad field is directly addressable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .states import CoherentEven, CoherentOdd, Fock, FrameSpec, ModeSpec, SystemSpec


@dataclass
class RawConfig:
    """Parsed but unvalidated sections: {section: {key: [(value, line)]}}."""

    sections: dict
    source: str

    def section(self, name: str) -> dict:
        return self.sections.get(name, {})

    def has(self, section: str, key: str) -> bool:
        return key in self.section(section)

    def last(self, section: str, key: str, default=None):
        entries = self.section(section).get(key)
        if not entries:
            return default
        return entries[-1][0]

    def last_line(self, section: str, key: str) -> int:
        entries = self.section(section).get(key)
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


def get_float(raw: RawConfig, section: str, key: str, default=None, required=False):
    value = raw.last(section, key)
    if value is None:
        if required:
            raise ConfigError(f"{raw.source}: missing required key '{key}' in [{section}]")
        return default
    try:
        return float(value)
    except ValueError:
        raw.fail(raw.last_line(section, key), f"'{key}' must be a number, got {value!r}")


def get_int(raw: RawConfig, section: str, key: str, default=None, required=False):
    value = raw.last(section, key)
    if value is None:
        if required:
            raise ConfigError(f"{raw.source}: missing required key '{key}' in [{section}]")
        return default
    try:
        return int(value)
    except ValueError:
        raw.fail(raw.last_line(section, key), f"'{key}' must be an integer, got {value!r}")


def get_float_list(raw: RawConfig, section: str, key: str, default=None, required=False):
    value = raw.last(section, key)
    if value is None:
        if required:
            raise ConfigError(f"{raw.source}: missing required key '{key}' in [{section}]")
        return default
    try:
        return [float(tok) for tok in value.split()]
    except ValueError:
        raw.fail(raw.last_line(section, key), f"'{key}' must be a list of numbers, got {value!r}")


def get_int_list(raw: RawConfig, section: str, key: str, default=None, required=False):
    value = raw.last(section, key)
    if value is None:
        if required:
            raise ConfigError(f"{raw.source}: missing required key '{key}' in [{section}]")
        return default
    try:
        return [int(tok) for tok in value.split()]
    except ValueError:
        raw.fail(raw.last_line(section, key), f"'{key}' must be a list of integers, got {value!r}")


def _parse_mode(raw: RawConfig, value: str, lineno: int) -> list[ModeSpec]:
    tokens = value.split()
    count = 1
    if tokens and tokens[-1].lower().startswith("x") and tokens[-1][1:].isdigit():
        count = int(tokens[-1][1:])
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
    return [mode] * count


def parse_system(raw: RawConfig, required: bool = True) -> SystemSpec | None:
    if "system" not in raw.sections:
        if required:
            raise ConfigError(f"{raw.source}: missing [system] section")
        return None
    modes: list[ModeSpec] = []
    for value, lineno in raw.all("system", "mode"):
        modes.extend(_parse_mode(raw, value, lineno))
    if not modes:
        raise ConfigError(f"{raw.source}: [system] needs at least one mode line")
    hbar = get_float(raw, "system", "hbar", default=1.0)
    try:
        return SystemSpec(modes=tuple(modes), hbar=hbar)
    except ValueError as exc:
        raw.fail(raw.last_line("system", "hbar") or 0, str(exc))


def _frame_direction(raw: RawConfig, key: str, default: float, n_modes: int) -> list[float]:
    """[frame] mu or nu, one finite value broadcast or one per mode."""
    values = get_float_list(raw, "frame", key, default=[default])
    if len(values) == 1:
        values = values * n_modes
    if len(values) != n_modes:
        raw.fail(raw.last_line("frame", key), f"frame {key} must have 1 or {n_modes} entries, got {len(values)}")
    if not all(math.isfinite(v) for v in values):
        raw.fail(raw.last_line("frame", key), f"frame {key} entries must be finite, got {values}")
    return values


def parse_frame(raw: RawConfig, n_modes: int, required: bool = True) -> FrameSpec | None:
    if "frame" not in raw.sections:
        if required:
            raise ConfigError(f"{raw.source}: missing [frame] section")
        return None
    mu = _frame_direction(raw, "mu", 1.0, n_modes)
    nu = _frame_direction(raw, "nu", 0.0, n_modes)
    rhos = [m * m + n * n for m, n in zip(mu, nu)]
    bad = [i for i, rho in enumerate(rhos) if not 0 < rho < math.inf]
    if bad:
        # both keys enter mu^2 + nu^2; the later of their lines is named
        raw.fail(max(raw.last_line("frame", "mu"), raw.last_line("frame", "nu")),
                 f"degenerate frame: mu^2 + nu^2 = {rhos[bad[0]]} at mode {bad[0]}, "
                 "must be positive and finite")
    r = get_float(raw, "frame", "r", default=0.5 * min(rhos))
    big_r = get_float(raw, "frame", "R", default=2.0 * max(rhos))
    if not 0 < r < min(rhos):
        raw.fail(raw.last_line("frame", "r"),
                 f"frame r must lie in (0, {min(rhos):.6g}), below every frame radius, got {r}")
    if not max(rhos) < big_r:
        raw.fail(raw.last_line("frame", "R"),
                 f"frame R must exceed every frame radius {max(rhos):.6g}, got {big_r}")
    return FrameSpec(mu=tuple(mu), nu=tuple(nu), r=r, R=big_r)
