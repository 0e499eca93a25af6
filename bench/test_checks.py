"""The benchmark's references and checks, tested on honest and doctored outputs.

    python3 -m pytest -q bench/test_checks.py

Each check must pass rqcx's real output and reject it once one value moves
just past the check's tolerance, or once one event is dropped.
"""

import sys
from types import SimpleNamespace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import refs  # noqa: E402
import workloads as wl  # noqa: E402

PAST = 1.5  # "just past": one and a half times a tolerance


def test_branch_information_is_half_u():
    x = np.linspace(-1.0, 1.0, 101)
    zero = np.zeros_like(x)
    assert np.max(np.abs(refs.axis_information(zero, zero, x) - 0.5 * refs.u(x))) < 1e-14


def test_x_concurrence_matches_wootters():
    rng = np.random.default_rng(0)
    for kind in ("generic", "rank_deficient", "diagonal", "bell_boundary"):
        for _ in range(20):
            st = wl.random_state(rng, kind)
            want = refs.wootters_concurrence(refs.density_matrix(*st))
            assert abs(float(refs.measures(*st)["concurrence"]) - want) < 1e-6


def test_rtn_zeros_are_envelope_zeros():
    for a in (1.0, 4.0, 10.0):
        zeros = refs.rtn_zeros(a, 3.0)
        assert len(zeros) > 0 and np.all(np.diff(zeros) > 0)
        assert np.max(np.abs(refs.envelope(("rtn", a), zeros))) < 1e-13
        lam = refs.envelope(("rtn", a), np.linspace(0.0, 3.0, 20001))
        assert np.count_nonzero(np.sign(lam[:-1]) != np.sign(lam[1:])) == len(zeros)


def test_family_closed_forms():
    # the paper's family curves: LAQC = u(x)/2 for all three, C = x for MNMS and MEMS
    for kind in wl.FAMILIES:
        for x in (0.1, 0.5, 0.8, 1.0):
            m = refs.measures(*wl.family_state(kind, x))
            assert abs(float(m["laqc"]) - 0.5 * float(refs.u(x))) < 1e-14
            want_c = max(0.0, (3 * x - 1) / 2) if kind == "werner" else x
            assert abs(float(m["concurrence"]) - want_c) < 1e-14


# ---- oracle_concordance


def _oracle_rows(ref):
    return [{"measure": m, "oracle": ref[m], "closed_form": ref[m], "abs_error": 0.0} for m in ("laqc", "qs", "cs")]


def test_oracle_check():
    ref = {m: float(v) for m, v in refs.measures(*wl.family_state("mems", 0.8)).items()}
    assert wl.check_oracle(_oracle_rows(ref), ref) == []
    for k, m in enumerate(("laqc", "qs", "cs")):
        for column, delta in (
            ("closed_form", PAST * wl.EXACT_TOL),
            ("oracle", -PAST * wl.ORACLE_TOL),
            ("oracle", PAST * wl.ORACLE_TOL),
        ):
            rows = _oracle_rows(ref)
            rows[k][column] += delta
            rows[k]["abs_error"] = abs(rows[k]["oracle"] - rows[k]["closed_form"])
            assert wl.check_oracle(rows, ref), (m, column, delta)
        if m != "qs":  # a search over measurements cannot beat the true maximum
            rows = _oracle_rows(ref)
            rows[k]["oracle"] += PAST * wl.EXACT_TOL
            rows[k]["abs_error"] = abs(rows[k]["oracle"] - rows[k]["closed_form"])
            assert wl.check_oracle(rows, ref), m
    assert wl.check_oracle(_oracle_rows(ref)[:2], ref)


# ---- figure_surface


def test_surface_check():
    ref = wl.surface_reference("mnms", ("rtn", 4.0), "concurrence", "qs")
    params, ts, values = ref
    table = np.column_stack((np.repeat(params, ts.size), np.tile(ts, params.size), values.ravel()))
    assert wl.check_surface(table, ref, ("concurrence", "qs"), "mnms") == []
    moved = table.copy()
    moved[12345, 2] += PAST * wl.EXACT_TOL
    assert wl.check_surface(moved, ref, ("concurrence", "qs"), "mnms")
    assert wl.check_surface(table[:-1], ref, ("concurrence", "qs"), "mnms")


def test_surface_parsers_agree():
    text = "# param,t,value\n0,0,0.5\n0,1.5,-1.2500000000000002\n"
    rows = '[{"param": 0.0, "t": 0.0, "value": 0.5}, {"param": 0.0, "t": 1.5, "value": -1.2500000000000002}]'
    cols = ("param", "t", "value")
    assert np.array_equal(wl.numeric_table(text, "csv", cols), wl.numeric_table(rows, "json", cols))


# ---- state_scan


def test_state_check():
    rng = np.random.default_rng(1)
    states = [wl.random_state(rng, kind) for kind, n in wl.STATE_MIX for _ in range(n // 10)]
    m = refs.measures(*np.array(states).T)
    want = np.stack([m[k] for k in wl.MEASURES], axis=1)
    assert wl.check_states(want.copy(), want) == []
    for j in range(4):
        got = want.copy()
        got[7, j] += PAST * wl.EXACT_TOL
        assert wl.check_states(got, want), wl.MEASURES[j]
    assert wl.check_states(want[:-1], want)


# ---- event_scan: checked on rqcx's own output


def _events(tmp_path, kind, x, noise, rate, steps=600):
    from rqcx import cli

    flag = {"rtn": "--a-over-gamma", "moun": "--Gamma-over-gamma", "markov": "--lambda-over-gamma"}[noise]
    out = tmp_path / "events.csv"
    argv = ["events", "--state", kind, "--param", repr(x), "--noise", noise, flag, repr(rate),
            "--steps", str(steps), "--out", str(out)]
    assert cli.main(argv) == 0
    return wl.records(out.read_text(), "csv"), wl.event_reference(wl.family_state(kind, x), (noise, rate), steps)


CASES = [
    ("werner", 0.7, "rtn", 4.0),
    ("mnms", 0.5, "rtn", 10.0),
    ("mems", 0.9, "rtn", 4.0),
    ("werner", 0.6, "moun", 1.0),
    ("mems", 0.4, "markov", 1.5),
]


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_event_check(tmp_path, case):
    rows, ref = _events(tmp_path, *case)
    assert rows and wl.check_events(rows, ref) == []
    for k in range(len(rows)):
        assert wl.check_events(rows[:k] + rows[k + 1:], ref), f"dropping {rows[k]} went unnoticed"
    for k, row in enumerate(rows):
        doctored = [dict(r) for r in rows]
        if row["kind"] == "sudden_death":
            tol = wl.ROOT_TOL if row["measure"] == "concurrence" else wl.ZERO_TOL
            doctored[k]["t"] += PAST * tol
        elif row["kind"] == "revival_peak":
            doctored[k]["value"] += PAST * 1e-9
        else:
            doctored[k]["value"] += PAST * wl.EXACT_TOL
        assert wl.check_events(doctored, ref), f"moving {row} went unnoticed"


def test_coarse_grid_miss_is_the_known_fault(tmp_path):
    for kind, x, noise, rate, steps in wl.COARSE_FAULTS:
        rows, ref = _events(tmp_path, kind, x, noise, rate, steps)
        problems = wl.check_events(rows, ref)
        op = wl.Op("coarse", "csv", 1, ref, fault="known")
        assert problems and wl.is_known_fault(op, problems)
        assert not wl.is_known_fault(wl.Op("seeded", "csv", 1, ref), problems)


def test_stale_output_is_not_checked(tmp_path):
    # an operation that exits 0 without writing must not be judged on the previous operation's file
    oracle = wl.OracleConcordance(0, tmp_path)
    oracle.bind(SimpleNamespace(cli=SimpleNamespace(main=lambda argv: 0)))
    op = oracle.ops[0]
    oracle.out.write_text("# measure,oracle,closed_form,abs_error\n")
    result = oracle.execute(op)
    assert [p.code for p in oracle.check(op, result)] == ["shape"]
