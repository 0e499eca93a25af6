"""Per-layer timing for the traced run, kept outside rqcx.

The tracer replaces public functions on rqcx's module objects with timing
wrappers, so calls made through those modules (``oracle.qs_oracle`` from the
CLI, ``kernels.cmi_table`` from the oracle, ``lambda_of_t`` from dynamics) are
timed and counted.  No rqcx file changes.  A span's time includes the spans
it encloses; ``top`` holds the time spent in outermost spans during the
current operation, which the CLI's self time is measured against.
"""

from __future__ import annotations

import functools
import resource
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.clear()

    def clear(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.depth = 0
        self.top = 0.0

    def wrap(self, module, attr, key, after=None, faults=False, also=()):
        """Time module.attr under `key`; `after(args, result)` may add counts."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if faults else 0
            self.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.depth -= 1
                self.seconds[key] += dt
                self.calls[key] += 1
                if self.depth == 0:
                    self.top += dt
            if faults:
                self.counts["minflt"] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt
            if after is not None:
                after(args, result)
            return result

        for mod in (module, *also):
            setattr(mod, attr, traced)


def install(rq) -> Tracer:
    """Wrap the public entry points of every rqcx layer the workloads reach."""
    tr = Tracer()

    def settings(args, _result):
        tr.counts["settings"] += np.size(args[2])

    def events(_args, result):
        tr.counts["events"] += len(result)

    tr.wrap(rq.kernels, "cmi_table", "kernels", after=settings)
    tr.wrap(rq.kernels, "cmi_flat", "kernels", after=settings)
    tr.wrap(rq.oracle, "laqc_oracle", "oracle.laqc", faults=True)
    tr.wrap(rq.oracle, "qs_oracle", "oracle.qs", faults=True)
    tr.wrap(rq.oracle, "optimize_cmi", "oracle.cs", faults=True)
    tr.wrap(rq.measures, "measure_set", "measures.measure_set")
    # dynamics imported these names from noise; wrap both bindings
    tr.wrap(rq.noise, "lambda_of_t", "noise.lambda", also=(rq.dynamics,))
    tr.wrap(rq.noise, "lambda_zeros", "noise.zeros", also=(rq.dynamics,))
    tr.wrap(rq.dynamics, "trajectory", "dynamics.trajectory")
    tr.wrap(rq.dynamics, "detect_events", "dynamics.detect_events", after=events)
    tr.wrap(rq.dynamics, "surface", "dynamics.surface")
    return tr


def layer_metrics(tr: Tracer, ops: int, cli_self: dict, output_bytes: int) -> dict:
    """Per-operation layer figures over a traced run of `ops` operations.

    cli_self maps a format to the list of (operation time - time in traced
    library calls) of its operations.
    """
    s, n = tr.seconds, ops
    oracle_s = s["oracle.laqc"] + s["oracle.qs"] + s["oracle.cs"]
    settings = tr.counts["settings"]
    calls = tr.calls["measures.measure_set"]
    out = {
        "kernels.busy_ms": (1e3 * s["kernels"] / n, "ms"),
        "kernels.settings": (settings / n, "count"),
        "kernels.ns_per_setting": (1e9 * s["kernels"] / settings if settings else 0.0, "ns"),
        "oracle.laqc_ms": (1e3 * s["oracle.laqc"] / n, "ms"),
        "oracle.qs_ms": (1e3 * s["oracle.qs"] / n, "ms"),
        "oracle.cs_ms": (1e3 * s["oracle.cs"] / n, "ms"),
        "oracle.self_ms": (1e3 * (oracle_s - s["kernels"]) / n, "ms"),
        "oracle.minflt": (tr.counts["minflt"] / n, "count"),
        "measures.measure_set_us": (1e6 * s["measures.measure_set"] / calls if calls else 0.0, "us"),
        "noise.lambda_calls": (tr.calls["noise.lambda"] / n, "count"),
        "noise.lambda_ms": (1e3 * s["noise.lambda"] / n, "ms"),
        "noise.zeros_ms": (1e3 * s["noise.zeros"] / n, "ms"),
        "dynamics.trajectory_ms": (1e3 * s["dynamics.trajectory"] / n, "ms"),
        "dynamics.detect_events_ms": (1e3 * s["dynamics.detect_events"] / n, "ms"),
        "dynamics.events_found": (tr.counts["events"] / n, "count"),
        "dynamics.surface_ms": (1e3 * s["dynamics.surface"] / n, "ms"),
        "cli.output_bytes": (output_bytes / n, "B"),
    }
    for fmt in ("csv", "json"):
        vals = cli_self.get(fmt, [])
        out[f"cli.self_ms.{fmt}"] = (1e3 * sum(vals) / len(vals) if vals else 0.0, "ms")
    return out
