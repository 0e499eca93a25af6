import argparse
import collections
import contextlib
import errno
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rqcx import cli, dynamics, measures, oracle, stateio, states
from rqcx.families import FAMILY_KINDS, FamilySpec, make_state
from rqcx.measures import measure_set
from rqcx.noise import Markov, Moun, Rtn, lambda_of_t, lambda_zeros
from rqcx.states import InvalidStateError, XStateParams


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    assert lines[0].startswith("# ")
    columns = lines[0][2:].split(",")
    rows = [dict(zip(columns, ln.split(","))) for ln in lines[1:]]
    return columns, rows


class TestMeasures:
    def test_bell_family(self, capsys):
        code, out, _ = run_cli(capsys, "measures", "--state", "werner", "--param", "1")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["concurrence"]) == pytest.approx(1.0)
        assert float(rows[0]["laqc"]) == pytest.approx(1.0)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "measures", "--state", "mnms", "--param", "0.5", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data[0]["laqc"] == pytest.approx(0.18872187554086717)

    def test_missing_param_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "measures", "--state", "werner")
        assert code == 1
        assert "param" in err


class TestStateFiles:
    def make_file(self, tmp_path, doc):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_abcdrs_document(self, capsys, tmp_path):
        path = self.make_file(tmp_path, {"abcdrs": [0.5, 0.0, 0.0, 0.5, 0.5, 0.0]})
        code, out, _ = run_cli(capsys, "measures", "--state", "file", "--state-file", path)
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["concurrence"]) == pytest.approx(1.0)

    @pytest.mark.parametrize("command", ["measures", "evolve", "events", "oracle"])
    def test_matrix_document_is_checked_once(self, capsys, monkeypatch, tmp_path, command):
        # the matrix's X parameters go unchecked to the command, which checks
        # them once, as measure_set does; both bindings of check_xstate count
        calls = collections.Counter()
        for module in (states, measures):
            def counted(*args, _fn=module.check_xstate, **kwargs):
                calls["check_xstate"] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, "check_xstate", counted)
        rows = [[0.4, 0, 0, 0.2], [0, 0.1, 0.05, 0], [0, 0.05, 0.2, 0], [0.2, 0, 0, 0.3]]
        path = self.make_file(tmp_path, {"matrix": [[[v, 0.0] for v in row] for row in rows]})
        code, _, err = run_cli(capsys, command, "--state", "file", "--state-file", path)
        assert (code, err) == (0, "")
        assert dict(calls) == {"check_xstate": 1}

    def test_bloch_document(self, capsys, tmp_path):
        doc = {"bloch": {"t30": 0.0, "t03": 0.0, "t11": -0.5, "t22": -0.5, "t33": -0.5}}
        code, out, _ = run_cli(
            capsys, "measures", "--state", "file", "--state-file", self.make_file(tmp_path, doc)
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["laqc"]) == pytest.approx(0.18872187554086717)

    def test_matrix_document(self, capsys, tmp_path):
        mat = [[[0.25, 0.0] if i == j else [0.0, 0.0] for j in range(4)] for i in range(4)]
        code, out, _ = run_cli(
            capsys,
            "measures",
            "--state",
            "file",
            "--state-file",
            self.make_file(tmp_path, {"matrix": mat}),
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["cs"]) == pytest.approx(0.0, abs=1e-12)

    def test_two_keys_rejected(self, capsys, tmp_path):
        doc = {"abcdrs": [0.25] * 4 + [0, 0], "bloch": {}}
        code, _, err = run_cli(
            capsys, "measures", "--state", "file", "--state-file", self.make_file(tmp_path, doc)
        )
        assert code == 1
        assert "exactly one" in err

    def test_validate_reports_violations(self, capsys, tmp_path):
        path = self.make_file(tmp_path, {"abcdrs": [0.5, 0.0, 0.0, 0.5, 0.6, 0.0]})
        code, out, _ = run_cli(capsys, "validate", "--state", "file", "--state-file", path)
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["check"] == "valid" and rows[0]["ok"] == "0"
        assert any(r["check"] == "r_coherence_bound" for r in rows)

    def test_validate_reports_an_unphysical_bloch_document(self, capsys, tmp_path):
        # t11 = 1.5 reconstructs r = s = 3/8 over weights of 1/4: validate
        # reports it as it reports the same state given as abcdrs, and the
        # other commands reject it at their own single check
        doc = {"bloch": {"t30": 0, "t03": 0, "t11": 1.5, "t22": 0, "t33": 0}}
        state = ["--state", "file", "--state-file", self.make_file(tmp_path, doc)]
        code, out, err = run_cli(capsys, "validate", *state)
        assert (code, err) == (0, "")
        assert parse_csv(out)[1] == [
            {"check": "valid", "ok": "0", "magnitude": "0"},
            {"check": "r_coherence_bound", "ok": "0", "magnitude": "0.125"},
            {"check": "s_coherence_bound", "ok": "0", "magnitude": "0.125"},
        ]
        code, out, err = run_cli(capsys, "measures", *state)
        assert (code, out) == (1, "")
        assert err.startswith("error: unphysical X state: ") and err.count("\n") == 1

    def test_tolerance_edge_state_gets_one_verdict(self, capsys, tmp_path):
        # every weight is inside its 1e-12 tolerance, but t30 is about 1 + 4.4e-12
        path = self.make_file(tmp_path, {"abcdrs": [0.5, 0.5000000000026, -0.9e-12, -0.9e-12, 0, 0]})
        state = ["--state", "file", "--state-file", path]
        code, out, _ = run_cli(capsys, "validate", *state)
        assert code == 0
        _, rows = parse_csv(out)
        assert (rows[0]["check"], rows[0]["ok"]) == ("valid", "0")
        assert ("coefficient_range", "0") in [(r["check"], r["ok"]) for r in rows]
        errors = []
        for command in ("measures", "evolve", "events"):
            code, out, err = run_cli(capsys, command, *state)
            assert code == 1 and out == ""
            errors.append(err)
        with pytest.raises(InvalidStateError) as exc:
            measure_set(XStateParams(0.5, 0.5000000000026, -0.9e-12, -0.9e-12, 0.0, 0.0))
        assert errors == [f"error: {exc.value}\n"] * 3

    @pytest.mark.parametrize("entry", [(0, 0), (0, 3), (0, 1)], ids=["diagonal", "x-coherence", "off-x"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_matrix_document(self, capsys, tmp_path, entry, value):
        mat = [[[0.25, 0.0] if i == j else [0.0, 0.0] for j in range(4)] for i in range(4)]
        mat[entry[0]][entry[1]][0] = value
        state = ["--state", "file", "--state-file", self.make_file(tmp_path, {"matrix": mat})]
        code, out, err = run_cli(capsys, "validate", *state)
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert [(r["check"], r["ok"]) for r in rows] == [("valid", "0"), ("finite_values", "0")]
        for argv in (["measures"], ["oracle", "--grid", "8"]):
            code, out, err = run_cli(capsys, *argv, *state)
            assert (code, out) == (1, "")
            assert err == "error: matrix entries must be finite\n"

    # rho[3, 0] is not rho[0, 3]* in the first, the diagonal is complex in the second
    @pytest.mark.parametrize(
        "entries, validate_csv",
        [
            ({(0, 0): 0.5, (3, 3): 0.5, (0, 3): 0.5}, "# check,ok,magnitude\nvalid,0,0\nhermitian,0,0.5\n"),
            (
                {(0, 0): 0.5 + 0.3j, (3, 3): 0.5 - 0.3j},
                "# check,ok,magnitude\nvalid,0,0\nhermitian,0,0.59999999999999998\n",
            ),
        ],
        ids=["one-sided-coherence", "complex-diagonal"],
    )
    def test_non_hermitian_matrix_document(self, capsys, tmp_path, entries, validate_csv):
        mat = [[[0.0, 0.0] for _ in range(4)] for _ in range(4)]
        for (i, j), value in entries.items():
            mat[i][j] = [value.real, value.imag]
        state = ["--state", "file", "--state-file", self.make_file(tmp_path, {"matrix": mat})]
        assert run_cli(capsys, "validate", *state) == (0, validate_csv, "")
        for argv in (["measures"], ["oracle", "--grid", "8"], ["evolve"]):
            code, out, err = run_cli(capsys, *argv, *state)
            assert (code, out) == (1, "")
            assert err.startswith("error: matrix is not Hermitian") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "diagonal, coherence, check",
        [
            ((0.4, 0.1, 0.1, 0.4), 0.4 + 5e-11, "r_coherence_bound"),
            ((0.5, 0.5000000000026, -0.9e-12, -0.9e-12), 0.0, "coefficient_range"),
        ],
        ids=["coherence-bound", "coefficient-range"],
    )
    def test_matrix_at_a_tolerance_edge_gets_one_verdict(self, capsys, tmp_path, diagonal, coherence, check):
        rho = np.diag(np.array(diagonal, dtype=complex))
        rho[0, 3] = rho[3, 0] = coherence
        # inside the eigenvalue tolerance, outside the 1e-12 parameter bounds
        assert states.validate_density_matrix(rho).valid
        mat = [[[z.real, z.imag] for z in row] for row in rho.tolist()]
        state = ["--state", "file", "--state-file", self.make_file(tmp_path, {"matrix": mat})]
        code, out, _ = run_cli(capsys, "validate", *state)
        _, rows = parse_csv(out)
        assert code == 0 and (rows[0]["check"], rows[0]["ok"]) == ("valid", "0")
        assert (check, "0") in [(r["check"], r["ok"]) for r in rows]
        code, out, err = run_cli(capsys, "measures", *state)
        assert (code, out) == (1, "")
        assert err.startswith("error: unphysical") and check in err

    @pytest.mark.parametrize(
        "entry, value, check",
        [((0, 1), 0.1, "x_shape"), ((0, 3), 0.1 + 0.1j, "real_coherences")],
        ids=["off-x", "complex-coherence"],
    )
    def test_matrix_off_the_x_class_gets_one_verdict(self, capsys, tmp_path, entry, value, check):
        # a valid density matrix that the closed-form commands cannot take
        rho = np.diag(np.array((0.25, 0.25, 0.25, 0.25), dtype=complex))
        rho[entry] = value
        rho[entry[::-1]] = np.conj(value)
        assert states.validate_density_matrix(rho).valid
        mat = [[[z.real, z.imag] for z in row] for row in rho.tolist()]
        state = ["--state", "file", "--state-file", self.make_file(tmp_path, {"matrix": mat})]
        code, out, _ = run_cli(capsys, "validate", *state)
        assert code == 0
        assert parse_csv(out)[1] == [
            {"check": "valid", "ok": "0", "magnitude": "0"},
            {"check": check, "ok": "0", "magnitude": f"{0.1:.17g}"},
        ]
        for command in ("measures", "oracle", "evolve", "events"):
            code, out, err = run_cli(capsys, command, *state)
            assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1

    def test_validate_accepts_good_state(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--state", "werner", "--param", "0.5")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["ok"] == "1" and len(rows) == 1

    @pytest.mark.parametrize(
        "abcdrs, as_matrix",
        [
            ([0.25, 0.25, 0.25, 0.25, 0.1, 0.1], False),
            ([0.5, 0.5000000000026, -0.9e-12, -0.9e-12, 0, 0], False),
            ([0.5, 0.0, 0.0, 0.5, 0.6, 0.0], False),
            ([0.25, 0.25, 0.25, 0.25, 0.1, 0.1], True),
        ],
        ids=["valid", "bloch-violation", "state-violation", "valid-matrix"],
    )
    def test_validate_builds_one_report(self, capsys, monkeypatch, tmp_path, abcdrs, as_matrix):
        # the parameters are checked once, by check_xstate (both bindings
        # count), whose report xstate_report returns, and the rows are
        # measure_set's report; an X-shaped matrix document is checked as
        # its parameters
        calls = collections.Counter()
        for module in (states, measures):
            def counted(*args, _fn=module.check_xstate, **kwargs):
                calls["check_xstate"] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, "check_xstate", counted)
        if as_matrix:
            a, b, c, d, r, s = abcdrs
            rows = [[a, 0, 0, r], [0, b, s, 0], [0, s, c, 0], [r, 0, 0, d]]
            doc = {"matrix": [[[v, 0.0] for v in row] for row in rows]}
        else:
            doc = {"abcdrs": abcdrs}
        path = self.make_file(tmp_path, doc)
        code, out, _ = run_cli(capsys, "validate", "--state", "file", "--state-file", path)
        assert code == 0
        assert dict(calls) == {"check_xstate": 1}
        _, rows = parse_csv(out)
        try:
            measure_set(XStateParams(*map(float, abcdrs)))
            violations = ()
        except InvalidStateError as exc:
            violations = exc.report.violations
        assert [(r["check"], r["ok"], float(r["magnitude"])) for r in rows[1:]] == [
            (name, "0", magnitude) for name, magnitude in violations
        ]


def _matrix_doc(entries):
    """A matrix document: zero but for entries, a map (i, j) -> complex."""
    mat = [[[0.0, 0.0] for _ in range(4)] for _ in range(4)]
    for (i, j), z in entries.items():
        mat[i][j] = [complex(z).real, complex(z).imag]
    return {"matrix": mat}


_DIAGONAL = {(k, k): 0.25 for k in range(4)}
# one document of each kind for every verdict the reader or check_xstate gives
VERDICT_DOCS = {
    "abcdrs-valid": {"abcdrs": [0.4, 0.1, 0.2, 0.3, 0.3, 0.1]},
    "abcdrs-coherence": {"abcdrs": [0.5, 0.0, 0.0, 0.5, 0.6, 0.0]},
    "abcdrs-coefficient-range": {"abcdrs": [0.5, 0.5000000000026, -0.9e-12, -0.9e-12, 0, 0]},
    "bloch-valid": {"bloch": {"t30": 0, "t03": 0, "t11": -0.5, "t22": -0.5, "t33": -0.5}},
    "bloch-coherence": {"bloch": {"t30": 0, "t03": 0, "t11": 1.5, "t22": 0, "t33": 0}},
    "matrix-valid": _matrix_doc({(0, 0): 0.4, (1, 1): 0.1, (2, 2): 0.2, (3, 3): 0.3,
                                 (0, 3): 0.2, (3, 0): 0.2, (1, 2): 0.05, (2, 1): 0.05}),
    # X-shaped and Hermitian, not positive: validate reported positive_semidefinite
    "matrix-not-density": _matrix_doc({(0, 0): 0.5, (3, 3): 0.5, (0, 3): 0.6, (3, 0): 0.6}),
    "matrix-trace-two": _matrix_doc({(k, k): 0.5 for k in range(4)}),
    "matrix-non-hermitian": _matrix_doc({(0, 0): 0.5, (3, 3): 0.5, (0, 3): 0.5}),
    "matrix-off-x": _matrix_doc({**_DIAGONAL, (0, 1): 0.1, (1, 0): 0.1}),
    "matrix-complex-coherence": _matrix_doc({**_DIAGONAL, (0, 3): 0.1 + 0.1j, (3, 0): 0.1 - 0.1j}),
    "matrix-nan": _matrix_doc({**_DIAGONAL, (0, 0): math.nan}),
    "matrix-inf-imaginary": _matrix_doc({**_DIAGONAL, (0, 3): complex(0.0, math.inf)}),
    # finite entries whose difference from the adjoint, or whose modulus, passes the float range
    "matrix-huge-non-hermitian": _matrix_doc({**_DIAGONAL, (0, 1): 1e308, (1, 0): -1e308}),
    "matrix-huge-off-x": _matrix_doc({**_DIAGONAL, (0, 1): complex(1e308, 1e308), (1, 0): complex(1e308, -1e308)}),
}


@pytest.mark.parametrize("doc", VERDICT_DOCS.values(), ids=VERDICT_DOCS)
def test_validate_reports_the_check_the_other_commands_make(capsys, tmp_path, doc):
    """rqcx validate's rows after "valid" are the report of the InvalidStateError that
    load_state_document or check_xstate raises on the way to measure_set, and none when
    neither raises: one reader and one check for every command."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    try:
        measure_set(stateio.load_state_document(path))
        want = ()
    except InvalidStateError as exc:
        want = exc.report.violations
    state = ["--state", "file", "--state-file", str(path)]
    code, out, err = run_cli(capsys, "validate", *state)
    assert (code, err) == (0, "")
    rows = parse_csv(out)[1]
    assert (rows[0]["check"], rows[0]["ok"]) == ("valid", str(int(not want)))
    assert [(r["check"], r["ok"], float(r["magnitude"])) for r in rows[1:]] == [
        (name, "0", magnitude) for name, magnitude in want
    ]
    code, out, err = run_cli(capsys, "measures", *state)
    assert code == (1 if want else 0) and (out == "") == bool(want)


_MEASURE_NAMES = ("concurrence", "laqc", "qs", "cs")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "state",
    [
        ["--state", "werner", "--param", "0.7"],
        ["--state", "mems", "--param", "0.8"],
        ["--state", "mnms", "--param", "0.5"],
        ["--state", "file", "--state-file", str(pathlib.Path(__file__).parent / "golden" / "random_xstate.json")],
    ],
    ids=["werner", "mems", "mnms", "file"],
)
def test_measures_equal_the_first_evolve_row(capsys, state, fmt):
    """The four cells of rqcx measures are the measure cells of the t = 0 row of rqcx evolve."""
    cells = []
    for command in ("measures", "evolve"):
        code, out, _ = run_cli(capsys, command, *state, "--format", fmt)
        assert code == 0
        if fmt == "json":
            row = {k: json.dumps(v) for k, v in json.loads(out)[0].items()}
        else:
            row = parse_csv(out)[1][0]
        cells.append([row[name] for name in _MEASURE_NAMES])
    assert cells[0] == cells[1]


class TestEvolveAndEvents:
    def test_evolve_csv_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, _, _ = run_cli(
            capsys,
            "evolve",
            "--state", "werner", "--param", "0.8",
            "--noise", "rtn", "--a-over-gamma", "4",
            "--tmax", "1.0", "--steps", "50",
            "--out", str(out_path),
        )
        assert code == 0
        columns, rows = parse_csv(out_path.read_text())
        assert columns == ["t", "lambda", "concurrence", "laqc", "qs", "cs"]
        assert len(rows) == 50
        # bit-exact round trip of the emitted decimals
        from rqcx.dynamics import trajectory
        from rqcx.noise import Rtn

        ref = trajectory(make_state(FamilySpec("werner", 0.8)), Rtn(4.0), np.linspace(0, 1, 50))
        for row, lam, laqc in zip(rows, ref.lam, ref.laqc):
            assert float(row["lambda"]) == lam
            assert float(row["laqc"]) == laqc

    def test_events_first_death(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "events",
            "--state", "werner", "--param", "1",
            "--noise", "rtn", "--a-over-gamma", "4", "--tmax", "3",
        )
        assert code == 0
        _, rows = parse_csv(out)
        deaths = [r for r in rows if r["kind"] == "sudden_death"]
        assert float(deaths[0]["t"]) == pytest.approx(0.21369, abs=1e-4)

    def test_revival_threshold_flag(self, capsys):
        args = [
            "events",
            "--state", "werner", "--param", "1",
            "--noise", "rtn", "--a-over-gamma", "4", "--tmax", "3",
        ]
        _, out_low, _ = run_cli(capsys, *args, "--revival-threshold", "1e-6")
        _, out_high, _ = run_cli(capsys, *args, "--revival-threshold", "0.05")
        n_low = sum(1 for r in parse_csv(out_low)[1] if r["kind"] == "revival_peak")
        n_high = sum(1 for r in parse_csv(out_high)[1] if r["kind"] == "revival_peak")
        assert n_low > n_high

    def test_events_pass_only_the_window_end(self, capsys, monkeypatch):
        args = ["events", "--state", "werner", "--param", "0.8", "--noise", "rtn", "--tmax", "2.7"]
        _, expected, _ = run_cli(capsys, *args, "--steps", "600")
        ends = []

        def recorded(state, noise, t_end, threshold, _fn=dynamics.detect_events):
            ends.append(t_end)
            return _fn(state, noise, t_end, threshold)

        monkeypatch.setattr(dynamics, "detect_events", recorded)
        code, out, _ = run_cli(capsys, *args, "--steps", "10000000")
        assert code == 0
        assert out == expected
        assert ends == [2.7]

    @pytest.mark.parametrize("a", ["1.6e7", "1e8"])
    def test_events_at_zero_spacings_below_the_probe(self, capsys, a):
        # pi/omega is 9.8e-8 at a/gamma 1.6e7 and 1.6e-8 at 1e8, below the 1e-7
        # sign-change probe, which must stay between neighbouring zeros
        code, out, err = run_cli(
            capsys, "events", "--state", "werner", "--param", "0.9", "--a-over-gamma", a, "--tmax", "1e-6",
        )
        assert (code, err) == (0, "")
        deaths = [float(r["t"]) for r in parse_csv(out)[1] if (r["kind"], r["measure"]) == ("sudden_death", "laqc")]
        assert deaths == lambda_zeros(Rtn(float(a)), 1e-6).tolist()

    @pytest.mark.parametrize("a", ["1e8", "1e9"])
    def test_concurrence_deaths_at_fast_rates(self, capsys, a):
        # pi/omega is 1.6e-8 at a/gamma 1e8 and 1.6e-9 at 1e9, near or below
        # the 1e-9 death tolerance: each death is solved to its piece's scale
        code, out, err = run_cli(
            capsys, "events", "--state", "werner", "--param", "0.9", "--a-over-gamma", a, "--tmax", "1e-6",
        )
        assert (code, err) == (0, "")
        rows = [r for r in parse_csv(out)[1] if (r["kind"], r["measure"]) == ("sudden_death", "concurrence")]
        assert len(rows) > 10
        assert max(float(r["value"]) for r in rows) <= 1e-12

    @pytest.mark.parametrize("kind, param, lines", [("mems", "0.8", 46), ("mnms", "0.8", 46), ("werner", "0.9", 30)])
    def test_events_do_not_depend_on_the_window_length(self, capsys, kind, param, lines):
        # MEMS and MNMS at 0.8 have kappa = 0: their concurrence dies on every
        # envelope zero, and a death is reported only where the concurrence
        # at the extremum before it exceeds the threshold
        outs = {run_cli(capsys, "events", "--state", kind, "--param", param, "--tmax", tmax) for tmax in ("10", "100", "1000", "100000")}
        assert len(outs) == 1
        code, out, err = outs.pop()
        assert (code, err, out.count("\n")) == (0, "", lines)

    @pytest.mark.parametrize("steps, message", [("1", "--steps must be at least 2")])
    def test_events_step_floor(self, capsys, steps, message):
        code, out, err = run_cli(capsys, "events", "--state", "werner", "--param", "0.8", "--steps", steps)
        assert code == 1
        assert out == ""
        assert message in err

    def test_events_take_two_steps(self, capsys):
        # --steps 2 passes the check evolve makes, and the events ignore it
        args = ["events", "--state", "werner", "--param", "0.8"]
        _, expected, _ = run_cli(capsys, *args, "--steps", "600")
        assert run_cli(capsys, *args, "--steps", "2") == (0, expected, "")

    @pytest.mark.parametrize("command", ["events", "evolve"])
    def test_validates_a_state_as_measure_set_does(self, capsys, monkeypatch, command):
        # one check per state: the defects of the state and of the state its
        # Bloch vector reconstructs, and no report for a valid state
        calls = collections.Counter()
        counted_names = (
            (measures, "check_xstate"),
            (states, "_x_defects"),
            (states, "_report"),
        )
        for module, name in counted_names:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        measure_set(make_state(FamilySpec("mems", 0.8)))
        expected = dict(calls)
        assert expected == {"check_xstate": 1, "_x_defects": 2}
        calls.clear()
        code, _, _ = run_cli(capsys, command, "--state", "mems", "--param", "0.8", "--steps", "60")
        assert code == 0
        assert dict(calls) == expected
        # the counters see the report builder: a rejected state builds one
        # report, from the defects already computed
        calls.clear()
        with pytest.raises(InvalidStateError):
            measure_set(XStateParams(0.5, 0.5 + 2.6e-12, -0.9e-12, -0.9e-12, 0.0, 0.0))
        assert dict(calls) == {"check_xstate": 1, "_x_defects": 2, "_report": 1}


class TestSurfaceOracleCrossover:
    def test_surface_shape_and_order(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "surface",
            "--state", "mnms",
            "--param-grid", "0:1:4", "--time-grid", "0:1:3",
            "--noise", "rtn", "--a-over-gamma", "4",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 12
        # row-major: param varies slowest
        assert [float(r["param"]) for r in rows[:3]] == [0.0, 0.0, 0.0]
        assert float(rows[0]["value"]) >= -1e-12

    def test_oracle_subcommand(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "oracle",
            "--state", "werner", "--param", "0.5",
            "--grid", "16", "--refine", "3",
        )
        assert code == 0
        _, rows = parse_csv(out)
        by_measure = {r["measure"]: r for r in rows}
        assert set(by_measure) == {"laqc", "qs", "cs"}
        assert float(by_measure["laqc"]["abs_error"]) < 2e-3

    def test_oracle_checks_the_matrix_once(self, capsys, monkeypatch):
        # one oracle_set call serves all three measures: the matrix is checked
        # once and its Fano table computed once; every binding counts
        calls = collections.Counter()
        for module, name in ((states, "validate_density_matrix"), (states, "fano_coefficients"),
                             (oracle, "fano_coefficients")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        code, _, err = run_cli(capsys, "oracle", "--state", "mems", "--param", "0.4", "--grid", "32", "--refine", "4")
        assert (code, err) == (0, "")
        assert dict(calls) == {"validate_density_matrix": 1, "fano_coefficients": 1}

    @pytest.mark.parametrize(
        "flags, message",
        [(["--refine", "-1"], "refine must be at least 0"), (["--grid", "65"], "grid must be at most 64"),
         (["--refine", "65"], "refine must be at most 64")],
        ids=["refine", "grid", "refine-ceiling"],
    )
    def test_oracle_search_bounds_exit_one(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "oracle", "--state", "werner", "--param", "0.5", *flags)
        assert code == 1
        assert out == ""
        assert message in err

    def test_crossover_value(self, capsys):
        code, out, _ = run_cli(capsys, "crossover")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["z_star"]) == pytest.approx(0.421499471, abs=1e-6)

    def test_python_dash_m(self):
        # an uninstalled checkout runs the command as python -m rqcx
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "rqcx", "crossover"], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        _, rows = parse_csv(proc.stdout)
        assert float(rows[0]["z_star"]) == pytest.approx(0.421499471, abs=1e-9)


def flag(key):
    return "--" + key.replace("_", "-")


# a value for every option, none of them its default
OPTION_VALUES = {
    "out": "out.txt",
    "format": "json",
    "state": "werner",
    "param": 0.75,
    "state_file": "state.json",
    "noise": "markov",
    "a_over_gamma": 2.5,
    "Gamma_over_gamma": 2.0,
    "lambda_over_gamma": 0.5,
    "tmax": 1.5,
    "steps": 7,
    "revival_threshold": 0.05,
    "param_grid": "0:1:3",
    "time_grid": "0:1:4",
    "measure_a": "laqc",
    "measure_b": "cs",
    "grid": 10,
    "refine": 1,
}
# the other options of a small run of each subcommand
RUN_BASE = {
    "surface": {"state": "mnms", "param_grid": "0:1:2", "time_grid": "0:1:2"},
    "oracle": {"state": "mnms", "param": 0.25, "grid": 8, "refine": 1},
    "evolve": {"state": "mnms", "param": 0.25, "steps": 5},
    "events": {"state": "mnms", "param": 0.25, "steps": 5},
    "crossover": {},
}
# what an option needs to take effect
OPTION_NEEDS = {
    "Gamma_over_gamma": {"noise": "moun"},
    "lambda_over_gamma": {"noise": "markov"},
    "state_file": {"state": "file"},
}
TAKEN = [(command, key) for command in cli._COMMANDS for key, opt in cli._OPTIONS.items() if command in opt.commands]


class TestConfigAndErrors:
    @pytest.mark.parametrize("command, key", TAKEN, ids=[f"{c}-{k}" for c, k in TAKEN])
    def test_flag_and_config_key_agree(self, capsys, tmp_path, monkeypatch, command, key):
        monkeypatch.chdir(tmp_path)
        pathlib.Path("state.json").write_text(json.dumps({"abcdrs": [0.4, 0.1, 0.2, 0.3, 0.3, 0.1]}))
        base = RUN_BASE.get(command, {"state": "mnms", "param": 0.25})
        opts = {**base, **OPTION_NEEDS.get(key, {}), key: OPTION_VALUES[key]}
        others = [text for k, v in opts.items() if k != key for text in (flag(k), str(v))]
        pathlib.Path("cfg.json").write_text(json.dumps({key: opts[key]}))
        results = []
        for given in ([flag(key), str(opts[key])], ["--config", "cfg.json"]):
            pathlib.Path("out.txt").unlink(missing_ok=True)
            code, out, err = run_cli(capsys, command, *others, *given)
            written = pathlib.Path("out.txt").read_text() if key == "out" else None
            results.append((code, out, err, written))
        assert results[0] == results[1]
        assert results[0][0] == 0

    def test_each_subcommand_takes_its_table_rows(self):
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(cli._COMMANDS)
        for command, parser in sub.choices.items():
            flags = {text for action in parser._actions for text in action.option_strings} - {"-h", "--help"}
            rows = {flag(key) for c, key in TAKEN if c == command}
            assert flags == {"--config"} | rows

    @pytest.mark.parametrize(
        "model, rate, value",
        [(Rtn, "a_over_gamma", 2.5), (Moun, "Gamma_over_gamma", 2.0), (Markov, "lambda_over_gamma", 0.5)],
        ids=["rtn", "moun", "markov"],
    )
    def test_noise_kind_through_config(self, capsys, tmp_path, model, rate, value):
        kind = model.__name__.lower()
        argv = ["evolve", "--state", "werner", "--param", "0.8", "--steps", "9"]
        cfg = tmp_path / "noise.json"
        cfg.write_text(json.dumps({"noise": kind, rate: value}))
        by_config = run_cli(capsys, *argv, "--config", str(cfg))
        assert by_config == run_cli(capsys, *argv, "--noise", kind, flag(rate), str(value))
        assert by_config[0] == 0
        _, rows = parse_csv(by_config[1])
        assert [float(r["lambda"]) for r in rows] == lambda_of_t(model(value), np.linspace(0.0, 3.0, 9)).tolist()

    def test_surface_rejects_a_state_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"state": "file"}))
        for given in (["--state", "file"], ["--config", str(cfg)]):
            assert run_cli(capsys, "surface", *given) == (1, "", "error: surface needs --state werner|mnms|mems\n")

    @pytest.mark.parametrize("target, reason", [("", errno.EISDIR), ("missing/out.csv", errno.ENOENT)],
                             ids=["directory", "missing-parent"])
    def test_unwritable_out_exits_one(self, capsys, tmp_path, target, reason):
        path = tmp_path / target
        surface = ["surface", "--state", "mems", "--param-grid", "0:1:3", "--time-grid", "0:1:4"]
        for argv in (["crossover"], [*surface, "--format", "csv"], [*surface, "--format", "json"]):
            code, out, err = run_cli(capsys, *argv, "--out", str(path))
            assert (code, out) == (1, "")
            assert err == f"error: cannot write {path}: {os.strerror(reason)}\n"

    def test_linalg_failure_exits_two(self, capsys, monkeypatch):
        def surface(*args):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(dynamics, "surface", surface)
        code, out, err = run_cli(capsys, "surface", "--state", "werner")
        assert (code, out, err) == (2, "", "numeric failure: Eigenvalues did not converge\n")

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"state": "werner", "param": 0.5, "format": "json"}))
        code, out, _ = run_cli(capsys, "measures", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)[0]["concurrence"] == pytest.approx(0.25)
        # explicit flag beats the file
        code, out, _ = run_cli(capsys, "measures", "--config", str(cfg), "--param", "1")
        assert json.loads(out)[0]["concurrence"] == pytest.approx(1.0)

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stat": "werner"}))
        code, _, err = run_cli(capsys, "measures", "--config", str(cfg))
        assert code == 1

    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "measures", "--bogus")
        assert code == 1
        assert "usage" in err

    def test_failed_parse_leaves_the_shared_parser_usable(self, capsys, monkeypatch):
        build, builds = cli.build_parser, []

        def counted():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._shared_parser.cache_clear()
        valid = ("events", "--state", "werner", "--param", "0.8", "--steps", "40")
        code, want, err = run_cli(capsys, *valid)
        assert (code, err) == (0, "")
        # the failing call sets other options before --steps fails to parse
        code, out, err = run_cli(capsys, "events", "--state", "mems", "--param", "0.3", "--tmax", "5", "--steps", "x")
        assert (code, out) == (1, "")
        assert "invalid int value" in err
        assert run_cli(capsys, *valid) == (0, want, "")
        assert len(builds) == 1

    def test_out_of_memory_exits_one(self, capsys, monkeypatch):
        def surface(*args):
            raise MemoryError("Unable to allocate 2.98 GiB for an array with shape (20000, 20000)")

        monkeypatch.setattr(dynamics, "surface", surface)
        code, out, err = run_cli(capsys, "surface", "--state", "werner")
        assert code == 1
        assert out == ""
        assert err == "error: this surface run does not fit in memory\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_of_memory_while_formatting_writes_no_file(self, capsys, tmp_path, monkeypatch, fmt):
        float_cells, calls = cli._float_cells, []

        def failing(*args):
            # the field, both axes and a few blocks succeed first
            calls.append(1)
            if len(calls) > 6:
                raise MemoryError
            return float_cells(*args)

        monkeypatch.setattr(cli, "_float_cells", failing)
        path = tmp_path / "surface.out"
        code, out, err = run_cli(capsys, "surface", "--state", "werner", "--format", fmt, "--out", str(path))
        assert (code, out, err) == (1, "", "error: this surface run does not fit in memory\n")
        assert len(calls) == 7 and not path.exists()

    def test_closed_stdout_pipe_exits_one(self):
        # the reader takes one line and closes the pipe, as `rqcx surface | head -1` does
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-m", "rqcx", "surface", "--state", "werner"]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"# param,t,value\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_unknown_subcommand_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "transmogrify")
        assert code == 1

    def test_overdamped_rtn_is_input_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "evolve",
            "--state", "werner", "--param", "0.5",
            "--noise", "rtn", "--a-over-gamma", "0.2",
        )
        assert code == 1
        assert "RTN" in err

    def test_bad_grid_string(self, capsys):
        code, _, _ = run_cli(
            capsys, "surface", "--state", "mnms", "--param-grid", "nope",
            "--noise", "moun",
        )
        assert code == 1


class TestInputBoundary:
    WERNER = ["--state", "werner", "--param", "0.5"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", *WERNER, "--tmax", "inf", "--steps", "3"],
            ["evolve", *WERNER, "--tmax", "nan"],
            ["evolve", *WERNER, "--tmax", "0"],
            ["evolve", *WERNER, "--tmax", "-1"],
            ["evolve", *WERNER, "--steps", "0"],
            ["evolve", *WERNER, "--steps", "1"],
            ["events", *WERNER, "--tmax", "inf"],
            ["events", *WERNER, "--steps", "1"],
            ["evolve", *WERNER, "--noise", "rtn", "--a-over-gamma", "inf"],
            ["evolve", *WERNER, "--noise", "markov", "--lambda-over-gamma", "inf"],
            ["surface", "--state", "mnms", "--time-grid", "0:inf:3"],
            ["surface", "--state", "mnms", "--param-grid", "nan:1:3"],
            ["surface", "--state", "mnms", "--param-grid=-inf:1:3"],
            ["events", *WERNER, "--revival-threshold", "nan"],
            ["events", *WERNER, "--revival-threshold", "inf"],
            ["events", *WERNER, "--revival-threshold", "-1"],
            *(["surface", "--state", "mnms", f"{flag}={grid}"]
              for flag in ("--param-grid", "--time-grid") for grid in ("0:1:1", "1:0:3", "0:1:0", "0:1:-2")),
            ["evolve", "--state", "mems", "--param", "0.5", "--noise", "rtn", "--a-over-gamma", "1e308",
             "--tmax", "1", "--steps", "3"],
            ["surface", "--state", "mems", "--noise", "rtn", "--a-over-gamma", "1e308"],
            ["events", *WERNER, "--noise", "rtn", "--a-over-gamma", "1e154"],
            ["events", *WERNER, "--tmax", "1e308"],
            # omega t past 2**52, where cos(omega t) is rounding noise
            ["evolve", *WERNER, "--noise", "rtn", "--a-over-gamma", "1e154"],
            ["surface", "--state", "mnms", "--noise", "rtn", "--a-over-gamma", "1e154"],
        ],
        ids=[
            "tmax-inf", "tmax-nan", "tmax-zero", "tmax-negative", "steps-zero", "steps-one",
            "events-tmax-inf", "events-steps-one", "rtn-rate-inf", "markov-rate-inf",
            "grid-max-inf", "grid-min-nan", "grid-min-neg-inf",
            "threshold-nan", "threshold-inf", "threshold-negative",
            *(f"{axis}-grid-{case}" for axis in ("param", "time")
              for case in ("one-point", "decreasing", "no-points", "negative-count")),
            "rtn-omega-inf", "surface-rtn-omega-inf", "rtn-ladder-past-memory", "tmax-ladder-past-memory",
            "rtn-rate-1e154", "surface-rtn-rate-1e154",
        ],
    )
    def test_bad_input_exits_one_quietly(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "argv",
        [
            ["surface", "--state", "mnms", "--time-grid", "0:1e308:3"],
            ["evolve", *WERNER, "--noise", "markov", "--lambda-over-gamma", "1e308"],
            ["events", "--state", "werner", "--param", "0.9", "--noise", "rtn", "--a-over-gamma", "1e154",
             "--tmax", "1e-150"],
            ["events", *WERNER, "--noise", "markov", "--lambda-over-gamma", "5e-324", "--tmax", "50"],
            ["events", "--state", "werner", "--param", "0.9", "--noise", "moun", "--Gamma-over-gamma", "5e-324"],
            ["events", *WERNER, "--noise", "moun", "--Gamma-over-gamma", "2.2e-308", "--tmax", "1e-12"],
            ["events", "--state", "werner", "--param", "0.9", "--noise", "moun", "--Gamma-over-gamma", "1e-300",
             "--tmax", "1e308"],
        ],
        ids=[
            "surface-time-1e308", "markov-rate-1e308", "events-rtn-rate-1e154", "events-markov-rate-5e-324",
            "events-moun-rate-5e-324", "events-moun-rate-2.2e-308", "events-moun-rate-1e-300",
        ],
    )
    def test_envelope_at_the_edge_of_its_range(self, capsys, argv):
        # e^-t (RTN) and e^(-lambda t) (Markov) are 0 there: no cos(inf), and
        # no overflow in the exponent; RTN's omega is factored, so (2a)^2
        # does not overflow, and where omega^2 does, a crossing's first lane
        # starts from 0; a Markov or MOUN crossing past the float range lies
        # past the window
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert err == ""
        assert "nan" not in out.lower()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("axis", ["param", "time"])
    def test_grid_shape_error_names_the_grid(self, capsys, axis):
        # the shape is checked once, by dynamics.SweepSpec
        for grid, problem in (("0:1:1", "needs at least 2 points"), ("0:1:0", "needs at least 2 points"),
                              ("0:1:-2", "needs at least 2 points"), ("1:0:3", "must be increasing")):
            code, _, err = run_cli(capsys, "surface", "--state", "mnms", f"--{axis}-grid={grid}")
            assert (code, err) == (1, f"error: {axis} grid {problem}\n")

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["events", *WERNER], {"revival_threshold": None}),
            (["evolve", *WERNER], {"tmax": [1]}),
            (["oracle", *WERNER], {"grid": 32.5}),
            (["evolve", *WERNER], {"steps": True}),
            (["events", *WERNER], {"a_over_gamma": "4"}),
            (["measures"], {"state": "werner", "param": None}),
            (["surface", "--state", "mnms"], {"param_grid": 5}),
            (["measures", *WERNER], {"format": "xml"}),
            (["evolve", *WERNER], {"noise": "RTN"}),
            (["events", *WERNER], {"noise": "pink"}),
            (["surface", "--state", "mnms"], {"measure_a": "Laqc"}),
            (["measures"], {"state": "bogus"}),
            (["evolve", *WERNER], {"tmax": 10**400}),
        ],
        ids=[
            "threshold-null", "tmax-list", "grid-float", "steps-bool", "rate-string", "param-null", "grid-number",
            "format-unknown", "noise-upper-case", "noise-unknown", "measure-upper-case", "state-unknown",
            "tmax-past-float-range",
        ],
    )
    def test_wrong_config_type_exits_one(self, capsys, tmp_path, argv, doc):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"abcdrs": [0.5, None, 0, 0.5, 0, 0]},
            {"abcdrs": [0.5, "0", 0, 0.5, 0, 0]},
            {"abcdrs": [0.5, False, 0, 0.5, 0, 0]},
            {"bloch": {"t30": 0, "t03": 0, "t11": "-0.5", "t22": -0.5, "t33": -0.5}},
            {"bloch": [0, 0, -0.5, -0.5, -0.5]},
            {"matrix": [[[0.25, None]] * 4] * 4},
            {"matrix": [[[0.25, 0]] * 4] * 3 + [[[0.25, 0]] * 3 + [["0.25", 0]]]},
        ],
        ids=["abcdrs-null", "abcdrs-string", "abcdrs-bool", "bloch-string", "bloch-list", "matrix-null", "matrix-string"],
    )
    def test_wrong_state_file_type_exits_one(self, capsys, tmp_path, doc):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "measures", "--state", "file", "--state-file", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["measures", "validate"])
    @pytest.mark.parametrize(
        "doc",
        [
            {"abcdrs": [10**400, 0, 0, 0, 0, 0]},
            {"bloch": {"t30": 0, "t03": 0, "t11": -0.5, "t22": -0.5, "t33": 10**400}},
            {"matrix": [[[0.25, 0]] * 4] * 3 + [[[0.25, 0]] * 3 + [[10**400, 0]]]},
        ],
        ids=["abcdrs", "bloch", "matrix"],
    )
    def test_integer_past_the_float_range_exits_one(self, capsys, tmp_path, command, doc):
        # JSON integers have no range; float() of this one overflows, which
        # is the caller's input, not a numeric failure
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, "--state", "file", "--state-file", str(path))
        assert (code, out) == (1, "")
        key = next(iter(doc))
        assert err == f"error: '{key}' holds an integer past the float range\n"

    def test_coarse_grid_events_match_fine_grid(self, capsys):
        argv = ["events", "--state", "werner", "--param", "0.6667", "--tmax", "3"]
        found = {}
        for steps in ("8", "600"):
            code, out, _ = run_cli(capsys, *argv, "--steps", steps)
            assert code == 0
            found[steps] = [r for r in parse_csv(out)[1] if r["measure"] in ("laqc", "qs")]
        assert len(found["8"]) == len(found["600"]) > 0
        for coarse, fine in zip(found["8"], found["600"]):
            assert (coarse["kind"], coarse["measure"]) == (fine["kind"], fine["measure"])
            assert float(coarse["t"]) == pytest.approx(float(fine["t"]), abs=1e-9)
            assert float(coarse["value"]) == pytest.approx(float(fine["value"]), abs=1e-9)

    @pytest.mark.parametrize("a, steps", [("4", "12"), ("10", "30")])
    def test_coarse_grid_keeps_concurrence_deaths(self, capsys, a, steps):
        # each concurrence death has its revival inside the same sample interval
        argv = ["events", "--state", "werner", "--param", repr(2.0 / 3.0), "--a-over-gamma", a, "--tmax", "3"]
        deaths = {}
        for n in (steps, "600"):
            code, out, _ = run_cli(capsys, *argv, "--steps", n)
            assert code == 0
            rows = parse_csv(out)[1]
            deaths[n] = [float(r["t"]) for r in rows if (r["kind"], r["measure"]) == ("sudden_death", "concurrence")]
        assert len(deaths[steps]) == len(deaths["600"]) >= 2
        for coarse, fine in zip(deaths[steps], deaths["600"]):
            assert coarse == pytest.approx(fine, abs=1e-7)

    def test_coarse_grid_keeps_death_after_small_revival(self, capsys):
        # the last laqc/qs revival (1.03e-4) barely clears the threshold and no
        # sample of the 12-step grid sees it; the death after it must be kept
        argv = [
            "events", "--state", "werner", "--param", "0.6206931880817418",
            "--a-over-gamma", "2.4382261913270877", "--tmax", "3.330135403594978",
        ]
        deaths = {}
        for steps in ("12", "20000"):
            code, out, _ = run_cli(capsys, *argv, "--steps", steps)
            assert code == 0
            rows = parse_csv(out)[1]
            deaths[steps] = {
                name: [float(r["t"]) for r in rows if (r["kind"], r["measure"]) == ("sudden_death", name)]
                for name in ("laqc", "qs")
            }
        for name in ("laqc", "qs"):
            assert len(deaths["12"][name]) == len(deaths["20000"][name]) == 4
            for coarse, fine in zip(deaths["12"][name], deaths["20000"][name]):
                assert coarse == pytest.approx(fine, abs=1e-9)


# numeric option values: the ends of the float range, both zeros, one ulp past
# 1/2 (RTN's threshold), the non-finite values and -1, then a few ordinary ones
EDGE_NUMBERS = ("0", "-0", "5e-324", "2.2e-308", "1e-300", repr(0.5 + 2**-53), "1e154", "1e300", "1e308",
                "inf", "-inf", "nan", "-1")
ORDINARY_NUMBERS = ("0.5", "0.9", "1", "3", "4")
# The caps bound each run's memory and time: --grid at most 16, --steps and
# grid counts at most 300, and a/gamma * tmax of an RTN events run at most 2e4,
# so that no RTN ladder passes about 1.3e4 entries
INT_VALUES = {
    "steps": ("-1", "0", "1", "2", "3", "300"),
    "grid": ("-1", "0", "1", "2", "8", "16", "65"),
    "refine": ("-1", "0", "1", "4", "64", "65"),
}
GRID_COUNTS = ("-2", "0", "1", "2", "3", "40", "300")
RTN_WINDOW_CAP = 2e4


def _option_value(key, opt):
    """A strategy for the text of one option's value."""
    if key == "state_file":
        return st.sampled_from([f"@{name}" for name in VERDICT_DOCS])
    if opt.choices:
        return st.sampled_from(opt.choices)
    if opt.type is int:
        return st.sampled_from(INT_VALUES[key])
    numbers = st.sampled_from(EDGE_NUMBERS) | st.sampled_from(ORDINARY_NUMBERS)
    if key.endswith("_grid"):
        # as drawn, so bad and reversed grids come up, or in increasing order
        ends = st.tuples(numbers, numbers)
        ordered = ends.map(lambda ends: ends if "nan" in ends else sorted(ends, key=float))
        grids = st.tuples(ends | ordered, st.sampled_from(GRID_COUNTS)).map(lambda g: ":".join((*g[0], g[1])))
        return grids | st.just("nope")
    return numbers


def _rtn_window(argv):
    """a/gamma * tmax of an events run under RTN, with the defaults where a flag is absent, else 0."""
    opts = dict(arg[2:].split("=", 1) for arg in argv[1:])
    if argv[0] != "events" or opts.get("noise", "rtn") != "rtn":
        return 0.0
    a, tmax = float(opts.get("a-over-gamma", 4.0)), float(opts.get("tmax", 3.0))
    return a * tmax if a > 0.0 and tmax > 0.0 else 0.0  # a NaN or negative value is rejected first


@st.composite
def cli_argvs(draw):
    """An argv of any subcommand, each option as --flag=value: a small run that
    passes every input check, with up to three of its options then set to any
    drawn value."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    taken = {key: opt for key, opt in cli._OPTIONS.items() if command in opt.commands and key != "out"}
    opts = {}
    if command in cli._STATE and draw(st.integers(0, 3)) == 0:
        opts.update(state="file", state_file=draw(_option_value("state_file", None)))
    elif "state" in taken:
        opts["state"] = draw(st.sampled_from(FAMILY_KINDS))
        if command != "surface":
            opts["param"] = draw(st.sampled_from(("0", "0.3", "0.5", "0.9", "1")))
    if "noise" in taken:
        opts["noise"] = draw(st.sampled_from(taken["noise"].choices))
    opts.update({"surface": {"param_grid": "0:1:20", "time_grid": "0:3:30"}, "oracle": {"grid": "8"},
                 "evolve": {"steps": "60"}}.get(command, {}))
    for key in draw(st.lists(st.sampled_from(sorted(taken)), max_size=3, unique=True)):
        opts[key] = draw(_option_value(key, taken[key]))
    return [command] + [f"--{key.replace('_', '-')}={value}" for key, value in opts.items()]


@pytest.fixture(scope="module")
def state_docs(tmp_path_factory):
    """Each of VERDICT_DOCS written to a file: its name -> its path."""
    root = tmp_path_factory.mktemp("docs")
    for name, doc in VERDICT_DOCS.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    return {f"@{name}": str(root / f"{name}.json") for name in VERDICT_DOCS}


WERNER_09 = ["--state=werner", "--param=0.9"]


@settings(max_examples=1000)
@given(argv=cli_argvs().filter(lambda argv: _rtn_window(argv) <= RTN_WINDOW_CAP))
@example(argv=["events", *WERNER_09, "--noise=rtn", "--a-over-gamma=1e154", "--tmax=1e-150"])
@example(argv=["evolve", "--state=mems", "--param=0.5", "--noise=rtn", "--a-over-gamma=1e308", "--tmax=1",
               "--steps=3"])
@example(argv=["surface", "--state=mems", "--noise=rtn", "--a-over-gamma=1e308", "--param-grid=0:1:3",
               "--time-grid=0:1:3"])
@example(argv=["events", "--state=werner", "--param=0.5", "--noise=markov", "--lambda-over-gamma=5e-324",
               "--tmax=50"])
@example(argv=["events", *WERNER_09, "--noise=moun", "--Gamma-over-gamma=5e-324"])
@example(argv=["events", "--state=werner", "--param=0.5", "--noise=moun", "--Gamma-over-gamma=2.2e-308",
               "--tmax=1e-12"])
@example(argv=["events", *WERNER_09, "--noise=moun", "--Gamma-over-gamma=1e-300", "--tmax=1e308"])
@example(argv=["measures", "--state=file", "--state-file=@matrix-inf-imaginary"])
@example(argv=["validate", "--state=file", "--state-file=@matrix-huge-non-hermitian"])
@example(argv=["oracle", "--state=file", "--state-file=@matrix-huge-off-x", "--grid=8"])
@example(argv=["events", "--state=werner", "--param=0.5", "--noise=rtn", "--a-over-gamma=1e154"])
@example(argv=["events", "--state=werner", "--param=0.5", "--tmax=1e308"])
def test_every_argv_exits_zero_or_one_quietly(state_docs, argv):
    """Any argv of the seven subcommands, over edge values of every option, exits 0
    or 1 with no traceback and no RuntimeWarning; an exit-0 output holds no nan
    unless an input was nan.  Each example is a fault this property found in
    earlier code; an @name value is the path of VERDICT_DOCS[name]."""
    _main_quietly(state_docs, argv, nan_given=any("nan" in arg for arg in argv))


def _main_quietly(state_docs, argv, nan_given):
    """cli.main's exit code, stdout and stderr on argv, each @name value the path of
    VERDICT_DOCS[name], once the run is seen to exit 0 or 1 with no traceback and no
    RuntimeWarning, and, at exit 0, with no nan in its output unless nan_given."""
    flags = [arg.split("=", 1) for arg in argv[1:]]
    argv = argv[:1] + [f"{key}={state_docs.get(value, value)}" for key, value in flags]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = cli.main(argv)
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1), err
    assert "Traceback" not in err
    assert not [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    if code == 1:
        assert out == "" and "error:" in err
    else:
        assert err == ""
        assert nan_given or "nan" not in out.lower()
    return code, out, err


# config values no flag can give: JSON's own types, a number string, a
# float literal past the range (inf once parsed) and an integer past it
JSON_ONLY = ("true", "null", '"4"', "[1]", "1e400", str(10**400))


def _config_text(key, text):
    """The JSON text of option key's flag value text: a float row's as json.dumps(float(text)),
    so -0 stays -0.0 and inf and nan become Infinity and NaN, an int row's as a JSON integer,
    and a str row's as a JSON string."""
    kind = cli._OPTIONS[key].type
    return json.dumps(kind(text) if kind in (float, int) else text)


@st.composite
def config_argvs(draw):
    """A draw of cli_argvs, as the all-flags argv, with a drawn subset of its options moved into
    a config document: (argv, the argv of the flags left, {key: JSON text}, whether every moved
    value came from the flag pools).  About one moved value in four becomes a JSON_ONLY value."""
    argv = draw(cli_argvs().filter(lambda argv: _rtn_window(argv) <= RTN_WINDOW_CAP))
    flags = [arg[2:].split("=", 1) for arg in argv[1:]]
    moved = draw(st.sets(st.sampled_from(range(len(flags))))) if flags else set()
    left, config, pooled = argv[:1], {}, True
    for k, (flag, value) in enumerate(flags):
        if k not in moved:
            left.append(f"--{flag}={value}")
        elif draw(st.integers(0, 3)) == 0:
            config[flag.replace("-", "_")] = draw(st.sampled_from(JSON_ONLY))
            pooled = False
        else:
            config[flag.replace("-", "_")] = _config_text(flag.replace("-", "_"), value)
    return argv, left, config, pooled


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    """A path for the config document of each example of the config property."""
    return tmp_path_factory.mktemp("config") / "run.json"


@settings(max_examples=1000)
@given(case=config_argvs())
def test_every_config_exits_zero_or_one_quietly(state_docs, config_path, case):
    """cli_argvs' draws with a drawn subset of their options moved into a --config file,
    some as values only JSON can give, exit 0 or 1 as the flags do: no traceback, no
    RuntimeWarning, and no nan in an exit-0 output unless an input was nan.  Where every
    moved value came from the flag pools, the run's exit code and output bytes are the
    all-flags argv's.  A config's @name text is the path of VERDICT_DOCS[name]."""
    argv, left, config, pooled = case
    doc = "{" + ", ".join(f"{json.dumps(key)}: {text}" for key, text in config.items()) + "}"
    for name, path in state_docs.items():
        doc = doc.replace(json.dumps(name), json.dumps(path))
    config_path.write_text(doc)
    nan_given = any("nan" in arg for arg in argv)
    got = _main_quietly(state_docs, [*left, f"--config={config_path}"], nan_given)
    if pooled:
        assert got == _main_quietly(state_docs, argv, nan_given)


def assert_same_text(got, want):
    """got == want, compared by SHA-256 digest; a mismatch names the first differing byte.

    A plain == on two 10 MB texts makes pytest build a diff of them, which takes minutes.
    """
    got, want = got.encode(), want.encode()
    if hashlib.sha256(got).digest() == hashlib.sha256(want).digest():
        return
    k = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
    lo = max(k - 40, 0)
    pytest.fail(
        f"outputs differ from byte {k} (lengths {len(got)} and {len(want)}):\n"
        f"  got  {got[lo:k + 40]!r}\n  want {want[lo:k + 40]!r}",
        pytrace=False,
    )


def reference_bytes(columns, fmt):
    """The row-dict emitter the column emitter replaced."""
    names = list(columns)
    values = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns.values()]
    rows = [dict(zip(names, row)) for row in zip(*values)]
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"

    def cell(v):
        return f"{v:.17g}" if isinstance(v, float) else str(v)

    lines = ["# " + ",".join(names)] + [",".join(cell(r[c]) for c in names) for r in rows]
    return "\n".join(lines) + "\n"


def emitted(columns, fmt):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(columns, {"format": fmt, "out": None})
    return buf.getvalue()


SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2e-308, 0.1, 1e22, -1.5]


# any float, the specials, and subnormals of either sign
FLOATS = st.floats() | st.sampled_from(SPECIAL_FLOATS) | st.floats(-2.2e-308, 2.2e-308)


@st.composite
def column_sets(draw):
    n = draw(st.integers(0, 12))
    names = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4, unique=True))
    columns = {}
    for name in names:
        kind = draw(st.sampled_from(["float-array", "float-list", "str", "int"]))
        if kind.startswith("float"):
            if draw(st.booleans()):
                # a small pool drawn from, so columns repeat values
                pool = draw(st.lists(FLOATS, min_size=1, max_size=5))
                col = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
            else:
                # mostly distinct values
                col = draw(st.lists(FLOATS, min_size=n, max_size=n))
            columns[name] = np.array(col, dtype=float) if kind == "float-array" else col
        elif kind == "str":
            columns[name] = draw(st.lists(st.text(max_size=5), min_size=n, max_size=n))
        else:
            columns[name] = draw(st.lists(st.integers(), min_size=n, max_size=n))
    return columns


class TestEmitter:
    @settings(max_examples=300)
    @given(column_sets())
    def test_matches_row_dict_emitter(self, columns):
        for fmt in ("csv", "json"):
            assert emitted(columns, fmt) == reference_bytes(columns, fmt)

    @pytest.mark.parametrize("fmt, negative_zero", [("csv", "\n-0,0,1\n"), ("json", '"x": -0.0,')])
    def test_special_floats(self, fmt, negative_zero):
        col = np.array(SPECIAL_FLOATS + SPECIAL_FLOATS[::-1])
        columns = {"x": col, "y": (-col).tolist(), "name": [str(i) for i in range(col.size)]}
        text = emitted(columns, fmt)
        assert text == reference_bytes(columns, fmt)
        assert negative_zero in text

    @pytest.mark.parametrize("fmt, expected", [("csv", "# a,b\n"), ("json", "[]\n")])
    def test_zero_rows(self, fmt, expected):
        columns = {"a": np.empty(0), "b": []}
        assert emitted(columns, fmt) == expected == reference_bytes(columns, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("distinct", [6, 7], ids=["half", "half-plus-one"])
    def test_distinct_value_boundary(self, fmt, distinct):
        # 12 rows with 6 or 7 distinct values; 0.0 and -0.0 print differently
        pool = [0.0, -0.0, -math.inf, 5e-324, 0.1, 1e22, math.nan][:distinct]
        col = np.array([pool[i % distinct] for i in range(12)])
        columns = {"x": col, "y": col[::-1].tolist(), "i": list(range(12))}
        assert emitted(columns, fmt) == reference_bytes(columns, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_full_surface(self, capsys, fmt):
        # the default 200x600 grid: param and t repeat their values, value has
        # 119400 distinct ones
        code, out, _ = run_cli(
            capsys,
            "surface", "--state", "mems", "--param-grid", "0:1:200", "--time-grid", "0:3:600",
            "--noise", "rtn", "--a-over-gamma", "4", "--format", fmt,
        )
        assert code == 0
        spec = dynamics.SweepSpec("mems", np.linspace(0, 1, 200), Rtn(4.0), np.linspace(0, 3, 600))
        params, ts, values = dynamics.surface(spec, "concurrence", "qs")
        columns = {"param": np.repeat(params, ts.size), "t": np.tile(ts, params.size), "value": values.ravel()}
        assert_same_text(out, reference_bytes(columns, fmt))


@st.composite
def surface_tables(draw):
    """(params, ts, values) with 1 to 6 params and times, each from FLOATS."""
    p, t = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    params, ts, values = (np.array(draw(st.lists(FLOATS, min_size=n, max_size=n))) for n in (p, t, p * t))
    return params, ts, values.reshape(p, t)


class TestSurfaceEmitter:
    @settings(max_examples=300)
    @given(surface_tables())
    # a single param row, and a single time column
    @example((np.array([-0.0]), np.array([0.0, math.inf, 5e-324]), np.array([[math.nan, -0.0, -2.2e-308]])))
    @example((np.array([math.nan, 1e22]), np.array([-math.inf]), np.array([[0.1], [math.inf]])))
    def test_blocks_match_expanded_columns(self, table):
        params, ts, values = table
        columns = {"param": np.repeat(params, ts.size), "t": np.tile(ts, params.size), "value": values.ravel()}
        for fmt in ("csv", "json"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                cli._emit_surface(params, ts, values, {"format": fmt, "out": None})
            text = buf.getvalue()
            assert text == reference_bytes(columns, fmt)
            if fmt == "json" and np.isnan(values).any():
                assert '"value": NaN\n' in text
