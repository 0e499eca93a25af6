"""The benchmark harness still runs against this source tree.

bench/run.py imports rqcx afresh and bench/tracing.py rebinds the module
attributes it times, so a rename of a traced name breaks the benchmark.  A
CLI that stops calling a traced name breaks it quietly: that layer's figure
reads 0.  So every traced key must be called under bench/run.PROBE, except
dynamics.trajectory, which PROBE never reaches (it has no `evolve` call).
The check runs in a child process: the fresh import drops rqcx from
sys.modules, and the tracer's rebinding would leak into the other tests.

The traced oracle.self_ms is the time in the three oracle stages less the
kernel time, so it holds only if no stage span opens inside another and
every kernel call runs inside exactly one stage span.  The child checks both
under PROBE's oracle call.

Every CLI flag the workloads pass must still parse, so a flag cannot be
removed while the benchmark still sends it.
"""

import importlib
import pathlib
import subprocess
import sys

import pytest

from rqcx import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import run, tracing

keys = []
wrap = tracing.Tracer.wrap


def recording_wrap(self, module, attr, key, *args, **kwargs):
    keys.append(key)
    return wrap(self, module, attr, key, *args, **kwargs)


tracing.Tracer.wrap = recording_wrap
rq = run.import_rqcx()
tracer = tracing.install(rq)

stages, nested, outside = [], [], []


def stage_span(fn, name):
    def span(*args, **kwargs):
        if stages:
            nested.append((stages[-1], name))
        stages.append(name)
        try:
            return fn(*args, **kwargs)
        finally:
            stages.pop()
    return span


def kernel_call(fn, name):
    def call(*args, **kwargs):
        if len(stages) != 1:
            outside.append((name, list(stages)))
        return fn(*args, **kwargs)
    return call


for name in ("optimize_cmi", "laqc_oracle", "qs_oracle"):
    setattr(rq.oracle, name, stage_span(getattr(rq.oracle, name), name))
for name in ("cmi_table", "cmi_flat"):
    setattr(rq.kernels, name, kernel_call(getattr(rq.kernels, name), name))
for i, argv in enumerate(run.PROBE):
    code = rq.cli.main(argv + ["--out", f"{sys.argv[2]}/probe{i}.out"])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
uncalled = sorted({key for key in keys if tracer.calls[key] == 0} - {"dynamics.trajectory"})
if uncalled:
    raise SystemExit(f"traced keys with no call under PROBE: {uncalled}")
if nested:
    raise SystemExit(f"oracle stage spans opened inside another: {nested[:5]}")
if outside:
    raise SystemExit(f"kernel calls outside exactly one oracle stage span: {outside[:5]}")
if tracer.calls["kernels"] == 0:
    raise SystemExit("no kernel call under PROBE")
"""


def test_probe_calls_run_under_the_tracer(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT / "bench"), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_workload_argv_parse(tmp_path, monkeypatch):
    pytest.importorskip("scipy")  # bench/refs.py, which builds the references, needs it
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    parser = cli.build_parser()
    parsed, failed = 0, []
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        for op in workload(1, workdir).ops:
            if not op.argv:  # state_scan calls the library, not the CLI
                continue
            try:
                assert parser.parse_args(op.argv).command == op.argv[0]
            except SystemExit:
                failed.append(op.argv)
            parsed += 1
    assert failed == []
    assert parsed > 0
