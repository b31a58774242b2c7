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

import numpy as np

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


def test_gaussianize_builds_and_transforms_each_group_once(tmp_path, monkeypatch):
    # the two scans hold 1 + 12 distinct groups and the classical-limit
    # system 2: one marginal and one rfft each, where building them at every
    # point took 62 of each; the classical-limit scan inverts once
    from cmtomo import convolution

    workloads = load("workloads", monkeypatch)
    counts = {}
    build, rfft, irfft = convolution.marginal_density, np.fft.rfft, np.fft.irfft

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for job in workloads.generate("gaussianize", 5):
        counts.clear()
        monkeypatch.setattr(convolution, "marginal_density", counted("marginals", build))
        monkeypatch.setattr(np.fft, "rfft", counted("rffts", rfft))
        monkeypatch.setattr(np.fft, "irfft", counted("irffts", irfft))
        cfg, out = tmp_path / f"{job.name}.cfg", tmp_path / f"{job.name}.out"
        cfg.write_text(job.config)
        assert cli.main(job.argv(str(cfg), str(out))) == 0, job.name
        monkeypatch.undo()
        groups = {"clt-single": 1, "clt-mixed": 12, "hbar-scan": 2}[job.name]
        points = {"clt-single": 6, "clt-mixed": 5, "hbar-scan": 1}[job.name]
        assert counts == {"marginals": groups, "rffts": groups, "irffts": points}, job.name
