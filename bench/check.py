"""Artifact checker: one verdict per operation, at the acceptance tolerances.

An operation is one scan point (one CSV row) for `clt-scan` and
`hbar-scan`, and one job for every other command.  It fails when the
command did not exit 0, when its part of the artifact holds a
non-finite number, or when a tolerance below is missed:

* scans: rE <= sigma2 <= RE on every row;
* the single-level `clt-scan`: S_N * sqrt(N) equal to the first row's
  value within 1e-6 (relative);
* `hbar-scan`: mass_in_epsilon strictly increasing down the rows and
  within 0.02 of erf(epsilon / sqrt(2 sigma2));
* `cm --all-backends` footers: tv_fft_cf < 1e-6, ks_fft_mc < 0.005,
  tv_fft_mc < 0.01;
* `reconstruct`: fidelity at least the job's threshold (0.99 for Fock
  states, 0.98 for cats) and `truncation_leakage no`;
* `discrepancy-report`: the ratio column is nan exactly where the
  oracle value is 0 (report.py leaves that ratio undefined by design);
  every other field is finite.
"""

from __future__ import annotations

import math
import re

_NONFINITE = re.compile(r"(?<![\w.])[+-]?(nan|inf|infinity)(?![\w.])", re.IGNORECASE)


def nonfinite(text: str) -> bool:
    """True if the text holds a token that parses as nan or +-inf."""
    return _NONFINITE.search(text) is not None


def _parse(text: str):
    """Split an artifact into comment lines, column names and data rows."""
    comments, columns, rows = [], None, []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif columns is None:
            columns = line.split(",")
        elif line:
            rows.append(dict(zip(columns, line.split(","))))
    return comments, columns or [], rows


def _keyed(comments: list[str]) -> dict:
    out = {}
    for line in comments:
        key, _, value = line.partition(" ")
        out.setdefault(key, value)
    return out


def _header_fault(comments: list[str]) -> str | None:
    for line in comments:
        if not line.startswith("config sha256") and nonfinite(line):
            return f"non-finite header/footer line: {line!r}"
    return None


def _row_fault(row: dict) -> str | None:
    bad = [k for k, v in row.items() if nonfinite(v)]
    return f"non-finite {','.join(bad)}" if bad else None


def _check_scan(kind: str, comments, rows) -> list[str | None]:
    verdicts = []
    rate0 = None
    epsilon = float(_keyed(comments).get("epsilon", "nan"))
    prev_mass = None
    for row in rows:
        fault = _row_fault(row)
        if fault is None and kind in ("clt", "clt-single"):
            sigma2 = float(row["sigma2"])
            if not float(row["rE"]) <= sigma2 <= float(row["RE"]):
                fault = f"sigma2 {sigma2} outside [rE, RE]"
            elif kind == "clt-single":
                rate = float(row["S_N"]) * math.sqrt(int(row["N"]))
                rate0 = rate if rate0 is None else rate0
                if abs(rate / rate0 - 1.0) > 1e-6:
                    fault = f"S_N*sqrt(N) {rate} drifts from {rate0}"
        elif fault is None and kind == "hbar":
            mass = float(row["mass_in_epsilon"])
            want = math.erf(epsilon / math.sqrt(2.0 * float(row["sigma2"])))
            if prev_mass is not None and not mass > prev_mass:
                fault = f"mass {mass} not above previous {prev_mass}"
            elif not abs(mass - want) < 0.02:
                fault = f"mass {mass} off erf {want} by >= 0.02"
        if kind == "hbar" and fault is None:
            prev_mass = float(row["mass_in_epsilon"])
        verdicts.append(fault)
    return verdicts


def _check_cm(comments, rows) -> str | None:
    if not rows:
        return "no data rows"
    for row in rows:
        fault = _row_fault(row)
        if fault:
            return fault
    keyed = _keyed(comments)
    limits = {"tv_fft_cf": 1e-6, "ks_fft_mc": 0.005, "tv_fft_mc": 0.01}
    for key, limit in limits.items():
        if key not in keyed:
            return f"missing footer {key}"
        value = float(keyed[key])
        if not value < limit:
            return f"{key} {value} not below {limit}"
    return None


def _check_reconstruct(comments, rows, min_fidelity: float) -> str | None:
    if not rows:
        return "no matrix rows"
    for row in rows:
        fault = _row_fault(row)
        if fault:
            return fault
    keyed = _keyed(comments)
    if keyed.get("truncation_leakage") != "no":
        return f"truncation_leakage {keyed.get('truncation_leakage')}"
    fid = float(keyed.get("fidelity", "nan"))
    if not fid >= min_fidelity:
        return f"fidelity {fid} below {min_fidelity}"
    return None


def _check_report(rows) -> str | None:
    if not rows:
        return "no report rows"
    for row in rows:
        rest = {k: v for k, v in row.items() if k != "ratio"}
        fault = _row_fault(rest)
        if fault:
            return fault
        undefined = abs(float(row["oracle_value"])) < 1e-300
        if nonfinite(row["ratio"]) != undefined:
            return f"ratio {row['ratio']} with oracle value {row['oracle_value']}"
    return None


def check_artifact(kind: str, text: str, ops: int, min_fidelity: float = 0.0) -> list[str | None]:
    """One verdict per operation: None if it passed, else the reason."""
    comments, _, rows = _parse(text)
    header = _header_fault(comments)
    if header is not None:
        return [header] * ops
    checks = {
        "cm": lambda: _check_cm(comments, rows),
        "reconstruct": lambda: _check_reconstruct(comments, rows, min_fidelity),
        "report": lambda: _check_report(rows),
    }
    if kind not in checks and kind not in ("clt", "clt-single", "hbar"):
        raise ValueError(f"unknown checker kind {kind!r}")
    try:
        if kind in checks:
            return [checks[kind]()] * ops
        verdicts = _check_scan(kind, comments, rows)[:ops]
    except (KeyError, ValueError) as exc:
        return [f"unparseable artifact: {exc!r}"] * ops
    return verdicts + ["missing scan row"] * (ops - len(verdicts))


def judge(job, rc, text: str | None, digest: str | None, reference: str | None) -> list[str | None]:
    """Verdicts for one job of one pass.

    rc is the exit code of `cli.main`, or a description of the exception
    that escaped it; reference is the artifact digest of an earlier run
    of the same code and seed, if any.
    """
    if rc != 0:
        return [f"exit {rc}"] * job.ops
    if text is None:
        return ["exit 0 without an artifact"] * job.ops
    if reference is not None and digest != reference:
        return ["artifact differs from an earlier run of the same code and seed"] * job.ops
    return check_artifact(job.check, text, job.ops, job.min_fidelity)
