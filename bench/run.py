#!/usr/bin/env python3
"""Benchmark for rqcx: one caller, a closed loop, every output checked.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root; it imports rqcx from ./src.  Each operation
starts after the previous one returns.  A run builds the workload's round of
operations from the seed, then repeats whole rounds until `--seconds` have
passed.  The last line of
standard output is one JSON object: correct, attempted, failed and metrics
(the end-to-end metrics with --trace 0, the per-layer ones with --trace 1).
A summary goes to standard error.  See bench/README.md.

Times are reported at reference speed.  The virtual CPUs of the machine this
was built on change speed by up to 1.7x for minutes at a time, with
neighbouring load.  So a fixed kernel is timed right before every operation,
and the operation's wall time is scaled by (reference time / kernel time).
The kernel suits the workload's work: a pure-Python loop, row formatting
for the surfaces, or numpy tables for the oracle.  It does not touch rqcx, so rqcx cannot move it; a change
that makes an operation 10 % faster moves the figure by 10 %.  Wall-clock
figures are printed on standard error beside them.
"""

import os

# One BLAS thread: numpy's OpenBLAS otherwise spreads the oracle's small
# matrix products over both cores and their time swings from run to run.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 5  # set-up repetitions; setup_s is their median
MODULES = ("cli", "dynamics", "kernels", "measures", "noise", "oracle", "states")


SRC = ROOT / "src"


def import_rqcx():
    """A fresh import of rqcx from ./src, so each set-up pays the import again."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "rqcx" or m.startswith("rqcx.")]:
        del sys.modules[name]
    rq = types.SimpleNamespace(**{m: importlib.import_module(f"rqcx.{m}") for m in MODULES})
    if Path(rq.cli.__file__).resolve().parent != (SRC / "rqcx").resolve():
        raise SystemExit(f"error: imported rqcx from {rq.cli.__file__}, not from {SRC}")
    return rq


_X = np.linspace(-0.3, 0.3, 512)
_W = np.linspace(-0.3, 0.3, 512 * 512).reshape(512, 512)


def python_loop():
    s = 0.0
    for i in range(1, 6001):
        s += math.log(i) * math.sqrt(i)
    return s


_VALUES = [i / 7.0 for i in range(1, 1501)]


def format_rows():
    """Row dicts formatted as 17-digit CSV, like the CLI's emitter."""
    rows = [{"param": v, "t": 0.5 * v, "value": 1.0001 * v} for v in _VALUES]
    return len("\n".join(",".join(f"{r[c]:.17g}" for c in ("param", "t", "value")) for r in rows))


def numpy_tables():
    """Broadcast arithmetic and log2 over fresh 512x512 temporaries, like the oracle's CMI tables."""
    p = 0.25 * (1.0 + _X[:, None] + _X[None, :] + _W)
    q = 0.25 * (1.0 - _X[:, None] + _X[None, :] - _W)
    return float((p * np.log2(p) + q * np.log2(q)).sum())


# calibration kernel -> its time at reference speed, near its fastest on the build machine
CALIBRATION = {
    "python": (python_loop, 1.0e-3),
    "format": (format_rows, 5.0e-3),
    "numpy": (numpy_tables, 3.0e-3),
}


def speed(kind):
    """Reference time over the median of three timings of the calibration kernel now."""
    kernel, reference = CALIBRATION[kind]
    times = []
    for _ in range(3):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return reference / statistics.median(times)


def setup(wl):
    """Import rqcx afresh, make the operations' rqcx inputs, warm up on the first operation.

    The round's inputs and references were drawn once before; they are the
    benchmark's own work, which no change to rqcx can move, so they are not
    timed.  Returns the wall time and the time at reference speed.
    """
    factor = speed(wl.calibration)
    t0 = perf_counter()
    wl.bind(import_rqcx())
    result = wl.execute(wl.ops[0])
    dt = perf_counter() - t0
    problems = wl.check(wl.ops[0], result)
    if problems and not workloads.is_known_fault(wl.ops[0], problems):
        raise SystemExit(f"error: warm-up operation {wl.ops[0].label} failed its check: {problems[0].text}")
    return dt, dt * factor


def tail(times):
    """(q, value): the highest quantile with at least ten samples beyond it, nearest rank.

    None below forty samples, where that quantile would be no tail.
    """
    if len(times) < 40:
        return None
    q = 1.0 - 10.0 / len(times)
    return q, sorted(times)[math.ceil(q * len(times)) - 1]


def run(wl, seconds, tracer=None):
    """Whole rounds until `seconds` have passed; at least one."""
    times, walls, items, cli_self, out_bytes = [], [], 0, {}, 0
    failed, unexpected = 0, []
    rounds = 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds:
        for op in wl.ops:
            factor = speed(wl.calibration)
            if tracer is not None:
                tracer.top = 0.0
            t0 = perf_counter()
            try:
                result = wl.execute(op)
            except Exception as exc:  # an op that raises is a failed op, not a crashed run
                result = exc
            dt = perf_counter() - t0
            walls.append(dt)
            times.append(dt * factor)
            if isinstance(result, Exception):
                problems = [workloads.Problem("", "exception", repr(result))]
            else:
                problems = wl.check(op, result)
            if problems:
                failed += 1
                if not workloads.is_known_fault(op, problems):
                    unexpected.append((op.label, problems))
            else:
                items += op.items
            if tracer is not None and op.fmt != "lib":
                cli_self.setdefault(op.fmt, []).append(dt - tracer.top)
                out_bytes += wl.out.stat().st_size if wl.out.exists() else 0
        rounds += 1
    return types.SimpleNamespace(
        times=times, walls=walls, items=items, failed=failed, unexpected=unexpected,
        rounds=rounds, cli_self=cli_self, out_bytes=out_bytes,
    )


# One small CLI call into each traced layer.  A traced run makes them after
# its own operations, on a cleared tracer, and a figure that reads exactly 0
# because the workload never enters its layer is taken from them instead: a
# time that reads the same on every run cannot be told from a broken timer.
# The workload's own figures never include them.  Together they take about
# 0.03 s.
PROBE = (
    ["measures", "--state", "werner", "--param", "0.5"],
    ["oracle", "--state", "mnms", "--param", "0.5", "--grid", "8", "--refine", "1", "--format", "json"],
    ["events", "--state", "mems", "--param", "0.5", "--noise", "moun", "--steps", "60"],
    ["surface", "--state", "werner", "--param-grid", "0:1:2", "--time-grid", "0:1:2"],
)


def probe(wl, tracer):
    """Per-call layer figures of the PROBE calls, on a cleared tracer."""
    tracer.clear()
    cli_self, out_bytes = {}, 0
    for argv in PROBE:
        tracer.top = 0.0
        t0 = perf_counter()
        wl.out.unlink(missing_ok=True)
        code = wl.rq.cli.main(argv + ["--out", str(wl.out)])
        dt = perf_counter() - t0
        if code != 0 or not wl.out.is_file():
            raise SystemExit(f"error: probe {' '.join(argv)} exited {code}")
        cli_self.setdefault("json" if "json" in argv else "csv", []).append(dt - tracer.top)
        out_bytes += wl.out.stat().st_size
    return tracing.layer_metrics(tracer, len(PROBE), cli_self, out_bytes)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rqcx" / "__init__.py").is_file():
        raise SystemExit(f"error: no rqcx sources under {SRC}")
    cls = workloads.WORKLOADS[args.workload]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # still remove the scratch files
    workdir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = cls(args.seed, workdir)
        setup_walls, setup_times = [], []
        for _ in range(SETUPS):
            wall, dt = setup(wl)
            setup_walls.append(wall)
            setup_times.append(dt)
        tracer = tracing.install(wl.rq) if args.trace else None
        res = run(wl, args.seconds, tracer)
        if tracer is not None:
            metrics = tracing.layer_metrics(tracer, len(res.times), res.cli_self, res.out_bytes)
            probed = probe(wl, tracer)
            metrics = {name: probed[name] if fig[0] == 0 else fig for name, fig in metrics.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = len(res.times)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_p50_ms": (1e3 * statistics.median(res.times), "ms"),
            "items_per_s": (res.items / sum(res.times), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    for label, problems in res.unexpected[:5]:
        for p in problems[:3]:
            print(f"FAILED {label}: {p.text}", file=sys.stderr)
    print(
        f"{args.workload}: seed {args.seed}, {res.rounds} rounds of {len(wl.ops)} ops, "
        f"{attempted} attempted, {res.failed} failed ({res.failed - len(res.unexpected)} known fault), "
        f"median op {1e3 * statistics.median(res.times):.6g} ms at reference speed, "
        f"{1e3 * statistics.median(res.walls):.6g} ms wall, "
        f"BLAS threads {BLAS_THREADS}, trace {args.trace}",
        file=sys.stderr,
    )
    print(
        f"  wall clock: setup {statistics.median(setup_walls):.6g} s, "
        f"{res.items / sum(res.walls):.6g} items/s",
        file=sys.stderr,
    )
    op_tail = tail(res.times)  # printed only: too unsteady to gate on (README)
    if op_tail:
        q, value = op_tail
        print(f"  op tail: {1e3 * value:.6g} ms at the {100 * q:.1f}th percentile of {attempted}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not res.unexpected,
        "attempted": attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
