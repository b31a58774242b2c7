"""Runs one workload's job list through `cmtomo.cli.main`, pass after pass.

Usage: python3 bench/child.py MANIFEST.json

One process, one client, jobs in sequence: a closed loop.  Passes repeat
until the manifest's `seconds` have elapsed, with at least two passes so
artifacts of one seed are compared within the run (or the manifest's
`min_passes`).  With tracing on, untraced and traced passes alternate;
the wrappers are installed only for the traced ones.  The result, and
the spans of traced passes, go to the paths named in the manifest.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

MIN_PASSES = 2


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _blas() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {key: deps[key] for key in ("blas", "lapack") if key in deps}
    except (KeyError, TypeError, ValueError):
        return {}


def main(manifest_path: str) -> int:
    manifest = json.loads(Path(manifest_path).read_text())
    sys.path.insert(0, manifest["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy
    import scipy
    import cmtomo.cli as cli
    from tracing import Tracer

    work = Path(manifest["work"])
    jobs = manifest["jobs"]
    tracer = Tracer() if manifest["trace"] else None
    min_passes = manifest.get("min_passes", MIN_PASSES)
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < manifest["seconds"]:
        index = len(passes)
        traced = tracer is not None and index % 2 == 1
        out_dir = work / f"pass{index}"
        out_dir.mkdir(parents=True, exist_ok=True)
        if traced:
            tracer.install()
        records = []
        t0, c0 = time.perf_counter(), _cpu()
        for job in jobs:
            out = out_dir / f"{job['name']}.out"
            argv = [a if a != "{out}" else str(out) for a in job["argv"]]
            first_span = len(tracer.spans) if traced else None
            if traced:
                tracer.job = f"pass{index}/{job['name']}"
            j0 = time.perf_counter()
            rc, error = None, None
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                error = traceback.format_exc()
            elapsed = time.perf_counter() - j0
            if traced and first_span < len(tracer.spans) and out.exists():
                tracer.spans[first_span][6]["bytes"] = out.stat().st_size
            records.append({"job": job["name"], "rc": rc, "error": error, "wall_s": elapsed,
                            "artifact": str(out) if out.exists() else None})
        wall, cpu = time.perf_counter() - t0, _cpu() - c0
        if traced:
            tracer.uninstall()
        passes.append({"traced": traced, "start": t0, "wall_s": wall, "cpu_s": cpu, "jobs": records})

    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
    }
    Path(manifest["result"]).write_text(json.dumps(result, indent=1, default=str))
    if tracer is not None:
        with open(manifest["spans"], "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span, default=float) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
