"""Span recording around the public functions the CLI calls.

`Tracer.install()` replaces each traced function with a wrapper in every
`cmtomo` module namespace that binds it (both `cmtomo.cli` and
`cmtomo.clt` bind `convolve_fft`, and `clt._report_for` looks up
`gaussian_distance` in `cmtomo.clt`), and `uninstall()` puts the
originals back.  Spans are kept in memory as
[id, name, job, parent, start, end, counts]; the caller writes them out.
The span stack assumes one thread, which holds for `--threads 1`.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# (module, function) -> (span name, function computing size counts)
_TRACED = {
    ("cmtomo.cli", "main"): ("cli.main", None),
    ("cmtomo.config", "parse_config_file"): ("config.parse", None),
    ("cmtomo.config", "parse_system"): ("config.parse", None),
    ("cmtomo.config", "parse_frame"): ("config.parse", None),
    ("cmtomo.convolution", "marginals_for_system"): ("marginals.build", lambda a, k, r: {
        "modes": len(r),
        "distinct": len({id(m) for m in r}),
        "grid_points": sum({id(m): m.grid.count for m in r}.values()),
    }),
    ("cmtomo.convolution", "convolve_fft"): ("convolution.fft", lambda a, k, r: {
        "spectra": len(a[0]), "fft_len": 2 * r.grid.count,
    }),
    ("cmtomo.convolution", "cf_product"): ("convolution.cf", lambda a, k, r: {
        "transforms": len(a[0]),
        "distinct": len({id(m) for m in a[0]}),
        "marginal_points": sum(m.grid.count for m in a[0]),
        "out_points": r.grid.count,
    }),
    ("cmtomo.convolution", "cf_grid_for"): ("convolution.cf_grid", lambda a, k, r: {
        "k_points": r.count,
    }),
    ("cmtomo.convolution", "sample_sum"): ("convolution.mc", lambda a, k, r: {
        "draws": len(r) * a[0].n_modes,
    }),
    ("cmtomo.clt", "per_mode_moments"): ("clt.moments", None),
    ("cmtomo.clt", "lyapunov_ratio"): ("clt.moments", None),
    ("cmtomo.clt", "gaussian_distance"): ("clt.distance", lambda a, k, r: {
        "nonfinite": int(not (math.isfinite(r["ks"]) and math.isfinite(r["tv"]))),
    }),
    ("cmtomo.clt", "mass_within"): ("clt.mass", None),
    ("cmtomo.clt", "n_scan"): ("clt.scan", lambda a, k, r: {"points": len(r)}),
    ("cmtomo.clt", "hbar_scan"): ("clt.scan", lambda a, k, r: {"points": len(r)}),
    ("cmtomo.reconstruct", "reconstruct_single_mode"): ("reconstruct.total", lambda a, k, r: {
        "working_dim": r.meta["working_dim"],
    }),
    ("cmtomo.reconstruct", "fidelity"): ("reconstruct.fidelity", lambda a, k, r: {"value": r}),
    ("cmtomo.report", "discrepancy_rows"): ("report.rows", lambda a, k, r: {"rows": len(r)}),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: str | None = None
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), name, self.job, parent, time.perf_counter(), None, {}]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, sizes):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                if name == "reconstruct.total":
                    args = (tracer._timed_tomogram(args[0], span),) + args[1:]
                result = fn(*args, **kwargs)
                if sizes is not None:
                    span[6].update(sizes(args, kwargs, result))
                return result
            finally:
                tracer._close(span)

        return wrapper

    @staticmethod
    def _timed_tomogram(tomogram, span: list):
        """Per-call time and count summed on the reconstruction span."""
        counts = span[6]
        counts["tomogram_s"] = 0.0
        counts["tomogram_calls"] = 0

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return tomogram(*args, **kwargs)
            finally:
                counts["tomogram_s"] += time.perf_counter() - t0
                counts["tomogram_calls"] += 1

        return timed

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cmtomo" or n.startswith("cmtomo."))]
        for (home, attr), (name, sizes) in _TRACED.items():
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(name, original, sizes)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over one traced pass of a workload's job list.

    A call that raised has a span but no size counts; it counts as 0.
    """
    def spans_of(name):
        return [s for s in spans if s[1] == name]

    def busy(name):
        return sum(s[5] - s[4] for s in spans_of(name))

    def summed(name, key):
        return sum(s[6].get(key, 0) for s in spans_of(name))

    def ratio(a, b):
        return a / b if b else 0.0

    by_id = {s[0]: s for s in spans}
    k_of = {s[3]: s[6].get("k_points", 0) for s in spans_of("convolution.cf_grid")}
    main_self = sum(s[5] - s[4] for s in spans_of("cli.main"))
    main_self -= sum(s[5] - s[4] for s in spans
                     if s[3] is not None and by_id[s[3]][1] == "cli.main")
    fidelities = [s[6]["value"] for s in spans_of("reconstruct.fidelity") if "value" in s[6]]
    modes = summed("marginals.build", "modes")
    transforms = summed("convolution.cf", "transforms")
    return {
        "config.parse_s": busy("config.parse"),
        "marginals.build_s": busy("marginals.build"),
        "marginals.modes": modes,
        "marginals.distinct": summed("marginals.build", "distinct"),
        "marginals.distinct_ratio": ratio(summed("marginals.build", "distinct"), modes),
        "marginals.grid_points": summed("marginals.build", "grid_points"),
        "convolution.fft_s": busy("convolution.fft"),
        "convolution.fft_calls": len(spans_of("convolution.fft")),
        "convolution.fft_spectra": summed("convolution.fft", "spectra"),
        "convolution.fft_len_max": max((s[6].get("fft_len", 0) for s in spans_of("convolution.fft")), default=0),
        "convolution.cf_s": busy("convolution.cf"),
        "convolution.cf_transforms": transforms,
        "convolution.cf_distinct_ratio": ratio(summed("convolution.cf", "distinct"), transforms),
        "convolution.cf_k_points": sum(k_of.values()),
        "convolution.cf_phase_entries": sum(
            k_of.get(s[0], 0) * (s[6].get("marginal_points", 0) + s[6].get("out_points", 0))
            for s in spans_of("convolution.cf")),
        "convolution.mc_s": busy("convolution.mc"),
        "convolution.mc_draws": summed("convolution.mc", "draws"),
        "clt.moments_s": busy("clt.moments"),
        "clt.distance_s": busy("clt.distance") + busy("clt.mass"),
        "clt.points": len(spans_of("clt.distance")),
        "clt.nonfinite_points": summed("clt.distance", "nonfinite"),
        "reconstruct.total_s": busy("reconstruct.total"),
        "reconstruct.tomogram_s": summed("reconstruct.total", "tomogram_s"),
        "reconstruct.tomogram_calls": summed("reconstruct.total", "tomogram_calls"),
        "reconstruct.rest_s": busy("reconstruct.total") - summed("reconstruct.total", "tomogram_s"),
        "reconstruct.working_dim": max((s[6].get("working_dim", 0) for s in spans_of("reconstruct.total")),
                                       default=0),
        "reconstruct.fidelity_min": min(fidelities, default=0.0),
        "report.rows_s": busy("report.rows"),
        "report.rows": summed("report.rows", "rows"),
        "cli.self_s": main_self,
        "cli.bytes_written": summed("cli.main", "bytes"),
    }
