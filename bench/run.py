"""cmtomo benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload gaussianize --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 22

Workloads (see workloads.py): gaussianize, crosscheck, reconstruct.
With --trace 0 the last stdout line reports the end-to-end metrics
(setup_s, wall_s, cpu_s, peak_rss_mb, ok_frac); with --trace 1 it
reports the per-layer metrics of traced passes (see tracing.py), the
import breakdown from `python -X importtime`, and the tracing overhead.
The lines before it print the same metrics with units, and fail_frac.

Set-up: a warm-up import, then several fresh interpreters that each run
`import cmtomo.cli`; setup_s is their median.  Measurement: one child
process runs the job list pass after pass (child.py); wall_s and cpu_s
are medians over passes, peak_rss_mb is the child's ru_maxrss.  Every
artifact is checked (check.py); the checker is self-checked first
(selfcheck.py).  Operations known to fail at this commit
(workloads.KNOWN_DEFECTS) are kept out of the measured job lists; they
are run once per run, untimed, and reported beside the result.  A full
record of the run, with per-pass values, config and artifact digests and
metadata, is written to bench/results/.

Host-speed scaling: on a shared virtual machine the same work can take
a third longer from one minute to the next, in CPU time as well as in
wall time.  probe.py runs beside the measured processes for the whole
run and times a fixed Python loop every 20 ms.  Each set-up sample and
each pass is scaled by the host speed during it: the mean over its probe
samples of PROBE_REF_S over the loop time.  The work done in an
interval is the integral of the host speed over it, so the speed is
averaged, not the loop time.  setup_s, wall_s and cpu_s are thus
seconds at the probe's reference speed.
The probe never imports cmtomo: a change to the library moves scaled and
unscaled times alike.  Unscaled times are printed and kept in the record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from check import judge  # noqa: E402
from selfcheck import selfcheck  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, generate  # noqa: E402

SETUP_SAMPLES = 7
# median probe loop time on the 2-vCPU 2.0 GHz Xeon VM the bounds were set on
PROBE_REF_S = 3.1e-4
CHILD_TIMEOUT_S = 160
THREAD_ENV_PREFIXES = ("OMP_", "OPENBLAS_", "MKL_", "BLIS_", "VECLIB_", "NUMEXPR_", "GOTO_")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _fresh_import(extra: list[str]) -> tuple[float, float, str]:
    """Start and wall time of a fresh interpreter importing cmtomo.cli, and its stderr."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *extra, "-c", "import cmtomo.cli"], cwd=ROOT,
                          env=_env(), capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import cmtomo.cli failed: {proc.stderr.strip()[-400:]}")
    return t0, elapsed, proc.stderr


def _speed(probe: list, start: float, end: float) -> float:
    """Mean of PROBE_REF_S over the probe loop times inside [start, end]."""
    inside = [d for t, d in probe if start <= t <= end] or [d for _, d in probe]
    return statistics.fmean(PROBE_REF_S / d for d in inside)


def _importtime(stderr: str) -> dict[str, float]:
    """Import time split from `-X importtime`.

    total is the sum of all self times and cmtomo_self the self times of
    cmtomo modules.  scipy is the cumulative time of scipy imports not
    nested in another scipy import: what dropping scipy would save.
    numpy is the same for numpy imports outside scipy.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip().split(".")[0], int(self_us) * 1e-6, int(cumulative_us) * 1e-6))
    out = {"import.total_s": 0.0, "import.numpy_s": 0.0, "import.scipy_s": 0.0, "import.cmtomo_self_s": 0.0}
    ancestors: list[tuple[int, str]] = []
    # importtime prints a module after its nested imports; reversed, parents come first
    for depth, top, self_s, cumulative_s in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        outer = {package for _, package in ancestors}
        out["import.total_s"] += self_s
        if top == "cmtomo":
            out["import.cmtomo_self_s"] += self_s
        elif top == "scipy" and "scipy" not in outer:
            out["import.scipy_s"] += cumulative_s
        elif top == "numpy" and not outer & {"numpy", "scipy"}:
            out["import.numpy_s"] += cumulative_s
        ancestors.append((depth, top))
    return out


def _fingerprint() -> str:
    """Digest of the library and benchmark sources: 'the same code'."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _run_child(manifest: dict, work: Path) -> dict:
    path = work / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1))
    with open(work / "child.stdout", "w") as out, open(work / "child.stderr", "w") as err:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(path)], cwd=ROOT,
                              env=_env(), stdout=out, stderr=err, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        tail = (work / "child.stderr").read_text()[-800:]
        raise RuntimeError(f"workload child exited {proc.returncode}: {tail}")
    return json.loads(Path(manifest["result"]).read_text())


def _judge_passes(jobs, passes, stored: dict) -> tuple[list[dict], dict]:
    """Verdicts per pass and job.  The first pass is compared with the
    digests stored by an earlier run of the same code and seed; later
    passes with the first."""
    by_name = {job.name: job for job in jobs}
    reference = dict(stored)
    checked: dict[tuple, list] = {}
    failures, digests = [], {}
    for index, record in enumerate(passes):
        for entry in record["jobs"]:
            job = by_name[entry["job"]]
            text, digest = None, None
            if entry["artifact"]:
                data = Path(entry["artifact"]).read_bytes()
                text, digest = data.decode(errors="replace"), _sha256(data)
            digests.setdefault(job.name, []).append(digest)
            rc = entry["rc"] if entry["error"] is None else f"exception: {entry['error'].strip().splitlines()[-1]}"
            key = (job.name, rc, digest, reference.get(job.name))
            if key not in checked:
                checked[key] = judge(job, rc, text, digest, reference.get(job.name))
            verdicts = checked[key]
            if rc == 0 and digest is not None:
                reference.setdefault(job.name, digest)
            entry["failed"] = sum(v is not None for v in verdicts)
            for op, reason in enumerate(verdicts):
                if reason is not None:
                    failures.append({"pass": index, "job": job.name, "op": op, "reason": reason})
    return failures, digests


def _stored_digests(key: str) -> dict:
    path = RESULTS / "digests.json"
    return json.loads(path.read_text()).get(key, {}) if path.is_file() else {}


def _store_digests(key: str, digests: dict) -> None:
    path = RESULTS / "digests.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    stored = table.setdefault(key, {})
    for name, values in digests.items():
        if values[0] is not None:
            stored.setdefault(name, values[0])
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(table, indent=1, sort_keys=True))
    os.replace(tmp, path)


def _write_configs(jobs, work: Path) -> tuple[dict, list]:
    """Config files of the jobs under work/configs: their digests and manifest entries."""
    (work / "configs").mkdir(parents=True)
    digests, entries = {}, []
    for job in jobs:
        cfg = work / "configs" / f"{job.name}.cfg"
        cfg.write_text(job.config)
        digests[job.name] = _sha256(job.config.encode())
        entries.append({"name": job.name, "argv": job.argv(str(cfg), "{out}")})
    return digests, entries


def _probe_known_defects(workload: str, work: Path) -> list[dict]:
    """Runs the workload's known-defect jobs once, untimed, in a child of
    their own (so they leave peak_rss_mb alone), and returns one entry per
    probed operation with its verdict.  They are not counted in
    attempted or failed."""
    jobs = KNOWN_DEFECTS.get(workload, [])
    if not jobs:
        return []
    _, entries = _write_configs(jobs, work)
    manifest = {"src": str(SRC), "work": str(work), "jobs": entries, "seconds": 0,
                "min_passes": 1, "trace": 0, "result": str(work / "child.json"), "spans": None}
    passes = _run_child(manifest, work)["passes"]
    failures, _ = _judge_passes(jobs, passes, {})
    failed = {(f["job"], f["op"]): f["reason"] for f in failures}
    return [{"job": job.name, "op": op, "failed": (job.name, op) in failed,
             "reason": failed.get((job.name, op))}
            for job in jobs for op in range(job.ops)]


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    problems = selfcheck()
    if problems:
        raise SystemExit("checker self-check failed:\n  " + "\n  ".join(problems))
    jobs = generate(workload, seed)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = RESULTS / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    config_digests, manifest_jobs = _write_configs(jobs, work)

    probe_path = work / "probe.json"
    probe = subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(probe_path)], cwd=ROOT)
    try:
        _fresh_import([])   # warm-up: byte-compiles the sources on a first run
        setup = [_fresh_import(["-X", "importtime"] if trace else []) for _ in range(SETUP_SAMPLES)]
        manifest = {"src": str(SRC), "work": str(work), "jobs": manifest_jobs, "seconds": seconds,
                    "trace": int(trace), "result": str(work / "child.json"),
                    "spans": str(RESULTS / f"{tag}-spans.jsonl")}
        child = _run_child(manifest, work)
    finally:
        probe.terminate()
        probe.wait(timeout=30)
    known_defects = _probe_known_defects(workload, work / "known-defects")
    samples_probe = json.loads(probe_path.read_text())
    passes = child["passes"]
    setup_speed = [_speed(samples_probe, t0, t0 + elapsed) for t0, elapsed, _ in setup]
    speed = [_speed(samples_probe, p["start"], p["start"] + p["wall_s"]) for p in passes]
    scaled_wall = [p["wall_s"] * v for p, v in zip(passes, speed)]

    digest_key = f"{workload}:{seed}:{_fingerprint()}"
    failures, artifact_digests = _judge_passes(jobs, passes, _stored_digests(digest_key))
    _store_digests(digest_key, artifact_digests)
    attempted = sum(job.ops for job in jobs) * len(passes)
    failed = len(failures)

    untraced = [p for p in passes if not p["traced"]]
    if trace:
        spans = [json.loads(line) for line in Path(manifest["spans"]).read_text().splitlines()]
        per_pass = []
        for index, record in enumerate(passes):
            if record["traced"]:
                prefix = f"pass{index}/"
                per_pass.append(layer_metrics([s for s in spans if s[2].startswith(prefix)]))
        samples = {name: [p[name] for p in per_pass] for name in per_pass[0]}
        imports = [_importtime(stderr) for _, _, stderr in setup]
        samples.update({name: [i[name] for i in imports] for name in imports[0]})
        samples["trace.overhead_s"] = [
            statistics.median(w for w, p in zip(scaled_wall, passes) if p["traced"])
            - statistics.median(w for w, p in zip(scaled_wall, passes) if not p["traced"])]
        samples["host.probe_s"] = [d for _, d in samples_probe]
    else:
        samples = {
            "setup_s": [elapsed * v for (_, elapsed, _), v in zip(setup, setup_speed)],
            "wall_s": scaled_wall,
            "cpu_s": [p["cpu_s"] * v for p, v in zip(passes, speed)],
            "peak_rss_mb": [child["peak_rss_mb"]],
            "ok_frac": [1.0 - failed / attempted],
        }
    metrics = {name: statistics.median(values) for name, values in samples.items()}

    record = {
        "workload": workload,
        "why": WORKLOADS[workload].why,
        "seed_varies": WORKLOADS[workload].seed_varies,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "metadata": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "platform": platform.platform(),
            "python": child["python"],
            "numpy": child["numpy"],
            "scipy": child["scipy"],
            "blas": child["blas"],
            "thread_env": {k: v for k, v in sorted(os.environ.items())
                           if k.startswith(THREAD_ENV_PREFIXES)},
            "git_commit": _git_commit(),
            "code_fingerprint": digest_key.rsplit(":", 1)[1],
        },
        "counts": {"setup_samples": len(setup), "passes": len(passes),
                   "traced_passes": len(passes) - len(untraced), "jobs": len(jobs),
                   "ops_per_pass": sum(job.ops for job in jobs)},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "known_defects": known_defects,
        "config_sha256": config_digests,
        "artifact_sha256": artifact_digests,
        "unscaled": {"setup_s": [elapsed for _, elapsed, _ in setup],
                     "wall_s": [p["wall_s"] for p in untraced],
                     "cpu_s": [p["cpu_s"] for p in untraced]},
        "speed": {"setup": setup_speed, "passes": speed},
        "samples": samples,
        "metrics": metrics,
        "passes": passes,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    return record


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _report(workload: str, trace: bool, record: dict, units: dict[str, str]) -> None:
    """Metrics with units, fail_frac and the first failures, then the result line."""
    for name, value in record["metrics"].items():
        print(f"{workload} {name} {value:.6g} {units[name]}")
    if not trace:
        unscaled = ", ".join(f"{name} {statistics.median(values):.6g} s"
                             for name, values in record["unscaled"].items())
        print(f"{workload} unscaled medians: {unscaled}")
    fail_frac = record["failed"] / record["attempted"]
    print(f"{workload} fail_frac {fail_frac:.6g} ratio "
          f"({record['failed']} of {record['attempted']} operations)")
    for failure in record["failures"][:10]:
        print(f"  failed: pass {failure['pass']} {failure['job']} op {failure['op']}: {failure['reason']}")
    defects = record["known_defects"]
    if defects:
        still = [d for d in defects if d["failed"]]
        print(f"{workload} known defects: {len(still)} of {len(defects)} probed operations still fail "
              "(run once, untimed, not counted in attempted)")
        for d in still:
            print(f"  known defect: {d['job']} op {d['op']}: {d['reason']}")
        if len(still) < len(defects):
            print(f"  {len(defects) - len(still)} known-defect operations now pass: "
                  "the measured N axes can be extended")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help="'all' runs every workload untraced, then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cmtomo" / "cli.py").is_file():
        print(f"no cmtomo source tree at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        plan = [(workload, trace) for workload in WORKLOADS for trace in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    units = _units()
    for workload, trace in plan:
        try:
            record = run(workload, args.seed, args.seconds, trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark run failed: {exc}", file=sys.stderr)
            return 1
        _report(workload, trace, record, units)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
