"""Byte-for-byte output of every subcommand, in both formats.

The files under tests/golden/ were written by the earlier row-dict emitter
(``f"{v:.17g}"`` cells for CSV, ``json.dumps(rows, indent=2)`` for JSON), so
these tests pin the output contract across changes to how rows are emitted.
The ``events_rtn``, ``events_moun`` and ``events_coarse*`` files were written
when events came to be placed by their closed-form conditions (revival peaks
at k pi/omega, deaths on the envelope zeros and the margin's roots), so they
also pin event times and values.  The ``events_rtn`` and ``events_coarse*``
files were rewritten later, when the envelope zeros came to be
returned at their closed form, unpolished, and concurrence deaths came to be
bisected on Lambda^2 minus the death level: rows and kinds stayed, times
moved by at most 4.4e-16.  The ``events_moun`` and ``events_coarse_werner``
files were rewritten again when each noise model came to find its own
crossings of the death level (Markov in closed form, RTN and MOUN by Newton
lanes) in place of the bisection: only concurrence death rows moved, by at
most 2.6e-10 in ``events_moun`` and 8.9e-10 in ``events_coarse_werner``.  The ``oracle_default*`` files were written
before the oracle's two maximum searches came to share one grid stage and the
CMI kernel came to run in blocks, and ``oracle_werner`` (eight tied stage-1
leaders) before the leaders came to be refined as one batch.  The
``oracle_mems`` files were rewritten when the phase stage came to scan its
full phase table instead of the diagonal phase pairs; only the last digits
of the qs row moved.  The ``oracle_werner`` files were rewritten when g1
and g2 came to be computed as u(T)/2, by the float operations the sweep
engine uses: the ``closed_form`` column went from 0.39015969528359951 to
0.39015969528359956 on all three rows, ``abs_error`` followed, and the
``oracle`` column stayed byte-identical.  The ``oracle_default_file``,
``oracle_mems`` and ``oracle_werner`` files were rewritten when every oracle
stage came to run on (lanes, nA, nB) tables, with real phase directions:
``oracle`` values moved by at most 4.4e-16 (``abs_error`` followed), and
``oracle_default`` stayed byte-identical.  The ``crossover`` files were
rewritten when crossover_z came to solve by safeguarded Newton in place of
bisection: z* went from 0.42149947141453142 (1.9e-13 from the root) to
0.42149947141471866 (1.6e-16 from it).  The ``oracle_werner`` files were
rewritten when every w the oracle reads came to be formed by one elementwise
formula in place of matrix products, whose rounding varied with the
OpenBLAS kernel: only the ``cs`` row moved, from 0.39015969528359928 to
0.39015969528359973 (``abs_error`` 2.8e-16 to 1.7e-16).  Each file is named
``<case>.<format>``.
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
    # those intervals also hold an envelope extremum; the crossings come from
    # the monotone pieces of the envelope, whatever the samples
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
    # eight tied stage-1 leaders, each carried into the phase stage
    "oracle_werner": ["oracle", "--state", "werner", "--param", "0.7", "--grid", "32", "--refine", "4"],
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
