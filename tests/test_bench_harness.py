"""The benchmark harness still runs against this source tree.

bench/run.py imports rqcx afresh and bench/tracing.py rebinds the module
attributes it times, so a rename of a traced name breaks the benchmark.  A
CLI that stops calling a traced name breaks it quietly: that layer's figure
reads 0.  So every traced key must be called under bench/run.PROBE, except
dynamics.trajectory, which PROBE never reaches (it has no `evolve` call).
The check runs in a child process: the fresh import drops rqcx from
sys.modules, and the tracer's rebinding would leak into the other tests.

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
for i, argv in enumerate(run.PROBE):
    code = rq.cli.main(argv + ["--out", f"{sys.argv[2]}/probe{i}.out"])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
uncalled = sorted({key for key in keys if tracer.calls[key] == 0} - {"dynamics.trajectory"})
if uncalled:
    raise SystemExit(f"traced keys with no call under PROBE: {uncalled}")
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
