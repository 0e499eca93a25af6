import collections
import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqcx import cli, dynamics, states
from rqcx.families import FamilySpec, make_state
from rqcx.measures import measure_set
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

    def test_validate_accepts_good_state(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--state", "werner", "--param", "0.5")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["ok"] == "1" and len(rows) == 1


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
        grids = []

        def recorded(state, noise, tgrid, threshold, _fn=dynamics.detect_events):
            grids.append(np.array(tgrid))
            return _fn(state, noise, tgrid, threshold)

        monkeypatch.setattr(dynamics, "detect_events", recorded)
        code, out, _ = run_cli(capsys, *args, "--steps", "10000000")
        assert code == 0
        assert out == expected
        assert len(grids) == 1
        assert grids[0].size == 3
        assert grids[0][-1] == 2.7

    @pytest.mark.parametrize(
        "steps, message",
        [("1", "--steps must be at least 2"), ("2", "event detection needs at least 3 trajectory rows")],
    )
    def test_events_step_floor(self, capsys, steps, message):
        code, out, err = run_cli(capsys, "events", "--state", "werner", "--param", "0.8", "--steps", steps)
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("command", ["events", "evolve"])
    def test_validates_a_state_as_measure_set_does(self, capsys, monkeypatch, command):
        calls = collections.Counter()
        for name in ("validate_xstate", "validate_bloch"):
            def counted(*args, _fn=getattr(states, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(states, name, counted)
        measure_set(make_state(FamilySpec("mems", 0.8)))
        expected = dict(calls)
        assert expected == {"validate_xstate": 2, "validate_bloch": 1}
        calls.clear()
        code, _, _ = run_cli(capsys, command, "--state", "mems", "--param", "0.8", "--steps", "60")
        assert code == 0
        assert dict(calls) == expected


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

    @pytest.mark.parametrize(
        "flags, message",
        [(["--refine", "-1"], "refine must be at least 0"), (["--grid", "65"], "grid must be at most 64")],
        ids=["refine", "grid"],
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


class TestConfigAndErrors:
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
            ["events", *WERNER, "--steps", "2"],
            ["evolve", *WERNER, "--noise", "rtn", "--a-over-gamma", "inf"],
            ["evolve", *WERNER, "--noise", "markov", "--lambda-over-gamma", "inf"],
            ["surface", "--state", "mnms", "--time-grid", "0:inf:3"],
            ["surface", "--state", "mnms", "--param-grid", "nan:1:3"],
            ["surface", "--state", "mnms", "--param-grid=-inf:1:3"],
        ],
        ids=[
            "tmax-inf", "tmax-nan", "tmax-zero", "tmax-negative", "steps-zero", "steps-one",
            "events-tmax-inf", "events-steps-two", "rtn-rate-inf", "markov-rate-inf",
            "grid-max-inf", "grid-min-nan", "grid-min-neg-inf",
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
        "argv, doc",
        [
            (["events", *WERNER], {"revival_threshold": None}),
            (["evolve", *WERNER], {"tmax": [1]}),
            (["oracle", *WERNER], {"grid": 32.5}),
            (["evolve", *WERNER], {"steps": True}),
            (["events", *WERNER], {"a_over_gamma": "4"}),
            (["measures"], {"state": "werner", "param": None}),
            (["surface", "--state", "mnms"], {"param_grid": 5}),
        ],
        ids=["threshold-null", "tmax-list", "grid-float", "steps-bool", "rate-string", "param-null", "grid-number"],
    )
    def test_wrong_config_type_exits_one(self, capsys, tmp_path, argv, doc):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

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


@st.composite
def column_sets(draw):
    n = draw(st.integers(0, 12))
    names = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4, unique=True))
    columns = {}
    for name in names:
        kind = draw(st.sampled_from(["float-array", "float-list", "str", "int"]))
        if kind.startswith("float"):
            # a small pool drawn from, so columns repeat values
            values = st.floats() | st.sampled_from(SPECIAL_FLOATS)
            pool = draw(st.lists(values, min_size=1, max_size=5))
            col = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
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
