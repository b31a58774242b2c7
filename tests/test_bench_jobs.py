"""The benchmark's jobs pass the benchmark's own artifact checker.

bench/workloads.py builds each workload's list of CLI jobs and
bench/check.py gives one verdict per operation of what a job writes.
This runs every job of seed 1, and the known-defect jobs, through
`cli.main`, so an operation that the benchmark would count as failed
fails here first.
"""

import importlib.util
import sys
from pathlib import Path

from cmtomo import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_seed_one_jobs_pass_the_checker(tmp_path, monkeypatch):
    workloads, check = load("workloads", monkeypatch), load("check", monkeypatch)
    jobs = [job for name in workloads.WORKLOADS for job in workloads.generate(name, 1)]
    jobs += [job for defects in workloads.KNOWN_DEFECTS.values() for job in defects]
    monkeypatch.chdir(tmp_path)
    failed = {}
    for job in jobs:
        cfg, out = tmp_path / f"{job.name}.cfg", tmp_path / f"{job.name}.out"
        cfg.write_text(job.config)
        assert cli.main(job.argv(str(cfg), str(out))) == 0, job.name
        verdicts = check.check_artifact(job.check, out.read_text(), job.ops, job.min_fidelity)
        assert len(verdicts) == job.ops
        if any(verdicts):
            failed[job.name] = verdicts
    assert not failed
