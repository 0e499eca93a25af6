"""Byte-for-byte output of every subcommand, in both formats.

The files under tests/golden/ were written by the earlier row-dict emitter
(``f"{v:.17g}"`` cells for CSV, ``json.dumps(rows, indent=2)`` for JSON), so
these tests pin the output contract across changes to how rows are emitted.
The ``events_rtn``, ``events_moun`` and ``events_coarse*`` files were written
when events came to be placed by their closed-form conditions (revival peaks
at k pi/omega, deaths on the envelope zeros and the margin's roots), so they
also pin event times and values.  The ``oracle_default*`` files were written
before the oracle's two maximum searches came to share one grid stage and the
CMI kernel came to run in blocks.  Each file is named ``<case>.<format>``.
"""

from pathlib import Path

import pytest

from rqcx import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "validate_werner": ["validate", "--state", "werner", "--param", "0.5"],
    "validate_file": [
        "validate", "--state", "file", "--state-file", str(GOLDEN / "violating_state.json"),
    ],
    "measures_mems": ["measures", "--state", "mems", "--param", "0.8"],
    "measures_mnms": ["measures", "--state", "mnms", "--param", "0.5"],
    "evolve_rtn": [
        "evolve", "--state", "werner", "--param", "0.8",
        "--noise", "rtn", "--a-over-gamma", "4", "--tmax", "1.5", "--steps", "25",
    ],
    "evolve_moun": [
        "evolve", "--state", "mnms", "--param", "0.5",
        "--noise", "moun", "--Gamma-over-gamma", "1", "--tmax", "3", "--steps", "40",
    ],
    "evolve_markov": [
        "evolve", "--state", "mems", "--param", "0.6",
        "--noise", "markov", "--lambda-over-gamma", "0.5", "--tmax", "2", "--steps", "21",
    ],
    "events_rtn": [
        "events", "--state", "werner", "--param", "1",
        "--noise", "rtn", "--a-over-gamma", "4", "--tmax", "3",
    ],
    "events_markov": [
        "events", "--state", "mems", "--param", "0.8",
        "--noise", "markov", "--tmax", "2", "--steps", "50",
    ],
    "events_moun": [
        "events", "--state", "werner", "--param", "0.7", "--noise", "moun", "--Gamma-over-gamma", "1",
    ],
    "events_coarse": [
        "events", "--state", "mnms", "--param", "0.8",
        "--noise", "rtn", "--a-over-gamma", "4", "--steps", "40",
    ],
    # each concurrence crossing is alone in its sample interval, and some of
    # those intervals also hold an envelope extremum: their sample brackets
    # must be bisected as they are
    "events_coarse_werner": [
        "events", "--state", "werner", "--param", "0.8",
        "--noise", "rtn", "--a-over-gamma", "4", "--steps", "30",
    ],
    "events_none": [
        "events", "--state", "werner", "--param", "0",
        "--noise", "markov", "--tmax", "2", "--steps", "20",
    ],
    "surface_werner": [
        "surface", "--state", "werner", "--param-grid", "0:1:20", "--time-grid", "0:3:30",
        "--noise", "rtn", "--measure-a", "concurrence", "--measure-b", "qs",
    ],
    "surface_mems": [
        "surface", "--state", "mems", "--param-grid", "0:1:7", "--time-grid", "0:2:11",
        "--noise", "moun", "--measure-a", "laqc", "--measure-b", "qs",
    ],
    # the cs column and a Markov surface
    "surface_mnms_markov": [
        "surface", "--state", "mnms", "--param-grid", "0:1:9", "--time-grid", "0:2:13",
        "--noise", "markov", "--lambda-over-gamma", "1", "--measure-a", "cs", "--measure-b", "laqc",
    ],
    "oracle_mems": ["oracle", "--state", "mems", "--param", "0.8", "--grid", "8", "--refine", "2"],
    # the default search resolution, on a family and on a random X state
    "oracle_default": ["oracle", "--state", "mems", "--param", "0.4", "--grid", "32", "--refine", "4"],
    "oracle_default_file": [
        "oracle", "--state", "file", "--state-file", str(GOLDEN / "random_xstate.json"),
        "--grid", "32", "--refine", "4",
    ],
    "crossover": ["crossover"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(capsys, case, fmt):
    code = cli.main(CASES[case] + ["--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / f"{case}.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_file_matches_golden(tmp_path, fmt):
    path = tmp_path / f"surface.{fmt}"
    code = cli.main(CASES["surface_werner"] + ["--format", fmt, "--out", str(path)])
    assert code == 0
    assert path.read_bytes() == (GOLDEN / f"surface_werner.{fmt}").read_bytes()
