"""The README's library example runs as written against this checkout."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs():
    # the first python block of the README, in a child process that turns
    # every warning into an error and imports rqcx from src
    text = (ROOT / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("MeasureSet(")
