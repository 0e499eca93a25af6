"""Acceptance gate: one test per criterion, each printing a PASS line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from conftest import random_xstate
from rqcx.dynamics import SweepSpec, detect_events, surface, trajectory
from rqcx.families import (
    FamilySpec,
    crossover_z,
    family_concurrence_closed,
    family_laqc_closed,
    make_state,
    werner_concurrence_rtn,
)
from rqcx.measures import concurrence_general, concurrence_x, measure_set
from rqcx.noise import Moun, Rtn, apply_common_bath, evolve_bloch, lambda_of_t, lambda_zeros
from rqcx.oracle import (
    basis_vectors,
    complementary_basis,
    laqc_oracle,
    optimize_cmi,
    post_measurement_probs,
    qs_oracle,
    LocalMeasurement,
)
from rqcx.states import (
    XStateParams,
    bloch_from_matrix,
    validate_density_matrix,
    xstate_to_bloch,
    xstate_to_matrix,
)

RTN4 = Rtn(4.0)


def _report(num, text):
    print(f"PASS  criterion {num}: {text}")


def test_criterion_1_crossover_reproduction():
    crossover_z()  # warm-up
    start = time.perf_counter()
    z_star = crossover_z()
    elapsed = time.perf_counter() - start
    assert abs(z_star - 0.421499471) < 1e-6
    assert elapsed < 0.010
    _report(1, f"z* = {z_star:.9f} (|dz| < 1e-6), runtime {elapsed * 1e3:.2f} ms")


def test_criterion_2_rtn_frequency_and_first_death():
    w = RTN4.omega
    assert abs(w - 3.0 * np.sqrt(7.0)) < 1e-12
    t1 = lambda_zeros(RTN4, 1.0)[0]
    assert t1 == pytest.approx((np.pi - np.arctan(w)) / w, abs=1e-12)
    assert t1 == pytest.approx(0.21369, abs=1e-5)
    assert abs(lambda_of_t(RTN4, t1)) < 1e-12
    _report(2, f"omega = 3*sqrt(7), first zero {t1:.5f} with |Lambda| < 1e-12")


def test_criterion_3_channel_equivalence():
    rng = np.random.default_rng(3)
    lams = np.linspace(-1.0, 1.0, 10)
    worst = 0.0
    for _ in range(1000):
        p = random_xstate(rng)
        rho = xstate_to_matrix(p)
        b = xstate_to_bloch(p)
        lam = float(lams[rng.integers(0, 10)])
        out = apply_common_bath(rho, lam)
        assert validate_density_matrix(out).valid
        got = bloch_from_matrix(out)
        want = evolve_bloch(b, lam)
        worst = max(
            worst,
            max(abs(getattr(got, f) - getattr(want, f)) for f in ("t30", "t03", "t11", "t22", "t33")),
        )
    assert worst < 1e-13
    _report(3, f"Kraus channel vs closed form, max Bloch deviation {worst:.2e} < 1e-13")


def test_criterion_4_concurrence_oracle_equivalence():
    rng = np.random.default_rng(4)
    worst = 0.0
    for k in range(1000):
        p = random_xstate(rng, rank_deficient=(k % 4 == 0))
        worst = max(worst, abs(concurrence_general(xstate_to_matrix(p)) - concurrence_x(p)))
    assert worst < 1e-10
    bells = (
        XStateParams(0.5, 0.0, 0.0, 0.5, 0.5, 0.0),
        XStateParams(0.5, 0.0, 0.0, 0.5, -0.5, 0.0),
        XStateParams(0.0, 0.5, 0.5, 0.0, 0.0, 0.5),
        XStateParams(0.0, 0.5, 0.5, 0.0, 0.0, -0.5),
    )
    for bell in bells:
        assert concurrence_x(bell) == pytest.approx(1.0, abs=1e-12)
        assert concurrence_general(xstate_to_matrix(bell)) == pytest.approx(1.0, abs=1e-12)
    _report(4, f"closed form vs eigenvalue construction, max deviation {worst:.2e} < 1e-10")


def test_criterion_5_family_closed_forms():
    worst = 0.0
    for kind in ("werner", "mnms", "mems"):
        for p in np.linspace(0.0, 1.0, 200):
            spec = FamilySpec(kind, float(p))
            st = make_state(spec)
            ms = measure_set(st)
            worst = max(worst, abs(ms.laqc - family_laqc_closed(spec)))
            worst = max(worst, abs(ms.concurrence - family_concurrence_closed(spec)))
    assert worst < 1e-13
    worst_rtn = 0.0
    for z in np.linspace(0.0, 1.0, 50):
        b = xstate_to_bloch(make_state(FamilySpec("werner", float(z))))
        for lam in np.linspace(-1.0, 1.0, 41):
            from rqcx.states import bloch_to_xstate

            direct = concurrence_x(bloch_to_xstate(evolve_bloch(b, float(lam))))
            worst_rtn = max(worst_rtn, abs(direct - werner_concurrence_rtn(float(z), float(lam))))
    assert worst_rtn < 1e-13
    _report(5, f"family grids max dev {worst:.2e}; Werner dephasing form dev {worst_rtn:.2e}")


def test_criterion_6_measurement_oracle_concordance():
    worst = 0.0
    for kind in ("werner", "mnms", "mems"):
        for p in np.linspace(0.0, 1.0, 20):
            st = make_state(FamilySpec(kind, float(p)))
            rho = xstate_to_matrix(st)
            ms = measure_set(st)
            worst = max(worst, abs(laqc_oracle(rho, 32, 4).value - ms.laqc))
            worst = max(worst, abs(qs_oracle(rho, 32, 4).value - ms.qs))
            worst = max(worst, abs(optimize_cmi(rho, "max", 32, 4).value - ms.cs))
    assert worst < 2e-3
    rng = np.random.default_rng(6)
    for _ in range(5):
        w = rng.random(4)
        w /= w.sum()
        diag = XStateParams(*(float(v) for v in w), 0.0, 0.0)
        assert laqc_oracle(xstate_to_matrix(diag)).value < 1e-6
    _report(6, f"oracle vs closed forms on 60 family samples, worst |dv| = {worst:.2e} < 2e-3")


def test_criterion_7_inequality_suite():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        ms = measure_set(random_xstate(rng))
        assert ms.laqc >= ms.qs - 1e-12
    for kind in ("mnms", "mems"):
        spec = SweepSpec(kind, np.linspace(0.0, 1.0, 60), RTN4, np.linspace(0.0, 3.0, 200))
        _, _, values = surface(spec, "concurrence", "qs")
        assert values.min() >= -1e-12
    slice_spec = SweepSpec("werner", np.array([0.3, 0.31]), RTN4, np.linspace(0.0, 3.0, 400))
    _, _, slice_vals = surface(slice_spec, "concurrence", "qs")
    assert slice_vals[0].max() <= 1e-12
    _report(7, "laqc >= qs on 10k states; C - Qs sign constraints on family surfaces")


def test_criterion_8_event_structure_at_figure_scale():
    tgrid = np.linspace(0.0, 3.0, 600)
    st = make_state(FamilySpec("werner", 2.0 / 3.0))
    events = detect_events(st, RTN4, tgrid, threshold=1e-4)
    conc_revivals = [e for e in events if e.kind == "revival_peak" and e.measure == "concurrence"]
    laqc_revivals = [e for e in events if e.kind == "revival_peak" and e.measure == "laqc"]
    assert len(conc_revivals) == 1
    assert len(laqc_revivals) >= 2
    moun = Moun(1.0)
    for spec in (FamilySpec("werner", 1.0), FamilySpec("mnms", 0.7)):
        stm = make_state(spec)
        ev = detect_events(stm, moun, tgrid, threshold=1e-4)
        assert not [e for e in ev if e.kind == "sudden_death"]
        laqc_vals = trajectory(stm, moun, tgrid).laqc
        assert np.all(np.diff(laqc_vals) <= 1e-15)
    _report(
        8,
        f"RTN Werner z=2/3: {len(conc_revivals)} concurrence revival, "
        f"{len(laqc_revivals)} laqc revivals; MOUN: no deaths, monotone laqc",
    )


def test_criterion_9_mub_and_probability_invariants():
    rng = np.random.default_rng(9)
    for _ in range(100):
        base = basis_vectors(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        comp = complementary_basis(base, rng.uniform(0, 2 * np.pi))
        for i in range(2):
            for j in range(2):
                assert abs(np.vdot(base[:, i], comp[:, j])) ** 2 == pytest.approx(0.5, abs=1e-12)
    for _ in range(100):
        rho = xstate_to_matrix(random_xstate(rng))
        m = LocalMeasurement(
            rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi),
            rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi),
        )
        table = post_measurement_probs(rho, m)
        assert min(table) >= 0.0
        assert sum(table) == pytest.approx(1.0, abs=1e-12)
    _report(9, "MUB overlaps = 1/2 and probability tables normalized at 1e-12")
