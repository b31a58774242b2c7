"""The benchmark's tracer still finds and wraps the library functions it names.

bench/tracing.py wraps cmtomo functions by module and name and reads
sizes off their arguments and results; a rename or a changed argument
shape breaks the traced benchmark passes.  This drives five commands
through the installed tracer, checks every per-layer metric, and runs
them again untraced for the same bytes.
"""

import importlib.util
import math
from pathlib import Path

from cmtomo import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CM = ("[system]\nhbar = 0.7\nmode = fock 1 x3\nmode = even 1.0 0.5 x2\n"
      "[frame]\nmu = 1.0\nnu = 0.0\nr = 0.5\nR = 2.0\n")
SCAN = "[scan]\nE = 10\nN_list = 4 8\nn_pattern = 0 1\nrho_pattern = 1.0\nr = 0.5\nR = 2\n"
HBAR = CM + "[scan]\nhbar_list = 1 0.1\nepsilon = 0.1\n"
DIM = 12
RECONSTRUCT = f"[system]\nhbar = 0.5\nmode = odd 0.6 0.8\n[reconstruct]\ndim = {DIM}\n"
REPORT = "[report]\nalpha = 1 0.5\nframe = 0.6 0.8\nhbar = 0.7\n"


def test_traced_commands_give_finite_layer_metrics(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    runs = [("cm", CM, ["--all-backends", "--mc-samples", "5000"]), ("clt-scan", SCAN, []),
            ("hbar-scan", HBAR, []), ("reconstruct", RECONSTRUCT, []), ("discrepancy-report", REPORT, [])]
    tracer.install()
    try:
        for command, text, flags in runs:
            cfg = tmp_path / f"{command}.cfg"
            cfg.write_text(text)
            tracer.job = command
            assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / f"{command}.csv"), *flags]) == 0
    finally:
        tracer.uninstall()
    # tracing never changes an output byte
    for command, _, flags in runs:
        out = tmp_path / f"{command}.untraced.csv"
        assert cli.main([command, "--config", str(tmp_path / f"{command}.cfg"), "--out", str(out), *flags]) == 0
        assert out.read_bytes() == (tmp_path / f"{command}.csv").read_bytes(), command
    metrics = tracing.layer_metrics(tracer.spans)
    assert all(math.isfinite(v) for v in metrics.values()), metrics
    # every layer the five commands pass through left a span with its sizes
    for key in ("config.parse_s", "marginals.modes", "marginals.grid_points", "convolution.fft_calls",
                "convolution.fft_spectra", "convolution.cf_transforms", "convolution.cf_k_points",
                "convolution.mc_draws", "clt.moments_s", "clt.points", "reconstruct.total_s",
                "reconstruct.tomogram_s", "report.rows_s", "report.rows"):
        assert metrics[key] > 0, key
    assert metrics["convolution.mc_draws"] == 5000 * 5
    # the tracer times the callable reconstruct_single_mode takes first: one
    # tomogram call per reconstruct job
    assert metrics["reconstruct.tomogram_calls"] == sum(command == "reconstruct" for command, _, _ in runs)
    assert metrics["reconstruct.working_dim"] == DIM
    assert metrics["reconstruct.fidelity_min"] > 0.99
