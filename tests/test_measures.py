import math
from dataclasses import astuple
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from conftest import bloch, random_xstate
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import classical_mutual_info, concurrence_general, family_laqc, post_measurement_probs, u

from rqcx.dynamics import trajectory
from rqcx.families import FamilySpec, make_state
from rqcx.measures import (
    MeasureSet,
    _middle_of_three,
    _StateMeasures,
    _u,
    measure_set,
)
from rqcx.noise import Markov, Moun, Rtn
from rqcx.states import (
    BlochX,
    InvalidStateError,
    ValidationReport,
    XStateParams,
    bloch_params,
    check_xstate,
    xstate_matrix,
    xstate_report,
)

BELL_PHI_PLUS = XStateParams(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)


def werner(z):
    return measure_set(make_state(FamilySpec("werner", z)))


def bloch_measures(b):
    """The measures of a Bloch vector, by the route `rqcx measures` takes for a {"bloch": ...} document."""
    return measure_set(bloch_params(b))


class TestU:
    def test_zero(self):
        assert _u(0.0) == 0.0

    def test_endpoint_uses_zero_log_zero(self):
        assert float(_u(1.0)) == pytest.approx(2.0, abs=1e-15)
        assert float(_u(-1.0)) == pytest.approx(2.0, abs=1e-15)

    def test_half(self):
        assert float(_u(0.5)) == pytest.approx(1.5 * np.log2(1.5) - 0.5, abs=1e-15)
        assert float(_u(0.5)) == pytest.approx(0.37744375108173434, abs=1e-15)

    def test_even(self, rng):
        x = rng.uniform(-1, 1, 100)
        np.testing.assert_allclose(_u(x), _u(-x), atol=1e-15)

    @given(st.floats(-1.0, 1.0, allow_subnormal=True))
    @example(1.0)
    @example(-1.0)
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-2.2250738585072e-308)
    @settings(max_examples=500)
    def test_matches_reference(self, x):
        # the same formula, taken by math.log2 on plain floats
        assert abs(float(_u(x)) - u(x)) <= 1e-15


class TestBranches:
    def test_werner_branches_all_equal(self):
        # laqc = max(g1, g2), qs the middle branch and cs the largest
        for z in (0.2, 0.5, 0.9):
            p = make_state(FamilySpec("werner", z))
            ms = measure_set(p)
            expect = family_laqc(z)
            for value in (ms.laqc, ms.qs, ms.cs, _StateMeasures(p)._g3):
                assert value == pytest.approx(expect, abs=1e-14)

    def test_maximally_mixed_branches_vanish(self):
        # every branch is clamped at 0, so a zero cs bounds all three
        ms = bloch_measures(BlochX(0.0, 0.0, 0.0, 0.0, 0.0))
        assert ms.cs == ms.laqc == 0.0

    def test_mems_origin_g3(self):
        # diagonal state diag(1/3, 1/3, 0, 1/3): a purely classical correlation,
        # so g1 = g2 = 0 and cs is g3
        ms = measure_set(make_state(FamilySpec("mems", 0.0)))
        expect = np.log2(4.0 / 3.0) - u(1.0 / 3.0)
        assert ms.cs == pytest.approx(expect, abs=1e-13)
        assert ms.cs == pytest.approx(0.25162916738782265, abs=1e-12)
        assert ms.laqc == 0.0
        assert ms.qs == 0.0

    def test_g3_equals_computational_basis_cmi(self, rng):
        # dual route: branch formula vs explicit measurement statistics
        from rqcx.oracle import LocalMeasurement

        m = LocalMeasurement(0.0, 0.0, 0.0, 0.0)
        for _ in range(50):
            p = random_xstate(rng)
            table = post_measurement_probs(xstate_matrix(p), m)
            assert _StateMeasures(p)._g3 == pytest.approx(
                classical_mutual_info(table), abs=1e-12
            )


class TestLaqc:
    def test_singlet_is_one(self):
        assert werner(1.0).laqc == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_states_vanish(self):
        assert bloch_measures(BlochX(0.3, -0.1, 0.0, 0.0, 0.2)).laqc == 0.0

    def test_mnms_half(self):
        ms = measure_set(make_state(FamilySpec("mnms", 0.5)))
        assert ms.laqc == pytest.approx(0.18872187554086717, abs=1e-14)

    def test_zero_iff_classical(self, rng):
        # a classical (diagonal) state has both coherence coefficients 0
        for _ in range(300):
            p = random_xstate(rng)
            b = bloch(p)
            assert (measure_set(p).laqc < 1e-12) == (abs(b.t11) <= 1e-12 and abs(b.t22) <= 1e-12)


class TestWuMeasures:
    def test_werner_family_collapses(self):
        for z in (0.1, 0.5, 0.9):
            ms = werner(z)
            expect = family_laqc(z)
            assert ms.cs == pytest.approx(expect, abs=1e-14)
            assert ms.qs == pytest.approx(expect, abs=1e-14)
            assert ms.laqc == pytest.approx(expect, abs=1e-14)

    def test_mems_small_x(self):
        p = make_state(FamilySpec("mems", 0.1))
        ms = measure_set(p)
        assert ms.cs == pytest.approx(_StateMeasures(p)._g3, abs=1e-14)
        assert ms.qs == pytest.approx(family_laqc(0.1), abs=1e-14)
        assert ms.qs == pytest.approx(0.007225546012191789, abs=1e-14)

    def test_maximally_mixed(self):
        ms = bloch_measures(BlochX(0.0, 0.0, 0.0, 0.0, 0.0))
        assert ms.cs == ms.qs == 0.0

    def test_laqc_dominates_qs_10k(self, rng):
        for _ in range(10_000):
            ms = measure_set(random_xstate(rng))
            assert ms.laqc >= ms.qs - 1e-12

    def test_coherence_sign_invariance(self, rng):
        for _ in range(200):
            p = random_xstate(rng)
            for flip_r, flip_s in ((-1, 1), (1, -1), (-1, -1)):
                q = XStateParams(p.a, p.b, p.c, p.d, flip_r * p.r, flip_s * p.s)
                ms_p, ms_q = measure_set(p), measure_set(q)
                for name in ("laqc", "cs", "qs"):
                    assert getattr(ms_p, name) == pytest.approx(getattr(ms_q, name), abs=1e-12)


class TestConcurrence:
    def test_werner_threshold(self):
        assert werner(1.0 / 3.0).concurrence == 0.0
        assert werner(0.2).concurrence == 0.0
        z = 0.8
        assert werner(z).concurrence == pytest.approx(0.5 * (3 * z - 1), abs=1e-15)

    def test_bell_state(self):
        assert measure_set(BELL_PHI_PLUS).concurrence == pytest.approx(1.0, abs=1e-15)
        assert concurrence_general(xstate_matrix(BELL_PHI_PLUS)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_linear_families(self):
        for kind in ("mnms", "mems"):
            for x in (0.1, 0.5, 0.8, 1.0):
                p = make_state(FamilySpec(kind, x))
                assert measure_set(p).concurrence == pytest.approx(x, abs=1e-14)
                assert concurrence_general(xstate_matrix(p)) == pytest.approx(x, abs=1e-10)

    def test_maximally_mixed_vanishes(self):
        assert concurrence_general(np.eye(4) / 4.0) == 0.0

    def test_oracle_equivalence_1000(self, rng):
        worst = 0.0
        for k in range(1000):
            p = random_xstate(rng, rank_deficient=(k % 5 == 0))
            diff = abs(concurrence_general(xstate_matrix(p)) - measure_set(p).concurrence)
            worst = max(worst, diff)
        assert worst < 1e-10


def test_measure_set_consistency(rng):
    # a state and its Bloch vector, read back through the Bloch route, give the same measures
    for _ in range(50):
        p = random_xstate(rng)
        ms = measure_set(p)
        via_bloch = bloch_measures(bloch(p))
        for name in ("concurrence", "laqc", "qs", "cs"):
            assert getattr(via_bloch, name) == pytest.approx(getattr(ms, name), abs=1e-14)
        assert ms.cs >= ms.laqc >= ms.qs


def test_measures_are_lipschitz_away_from_endpoints(rng):
    eps = 1e-6
    for _ in range(100):
        p = random_xstate(rng)
        b = bloch(p)
        if max(abs(b.t11), abs(b.t22), abs(b.t33)) > 0.95:
            continue
        shifted = BlochX(b.t30, b.t03, b.t11 + eps, b.t22 - eps, b.t33)
        try:
            moved = bloch_measures(shifted)
        except Exception:
            continue
        ms = measure_set(p)
        for name in ("laqc", "cs", "qs"):
            assert abs(getattr(moved, name) - getattr(ms, name)) <= 10.0 * 2 * eps


# ---- reference code: each branch evaluated and validated on its own, with
# numpy validation of the state and of its Bloch vector.  g1 and g2 are
# u(T11)/2 and u(T22)/2 as the paper writes them, clamped at 0; g3 is the
# alpha..delta sum of the per-branch path the one-pass kernel replaced.
# `_ref_bloch_measures` is the reference of the Bloch route.

_REF_TOL = 1e-12


def _ref_validate_xstate(p):
    fields = (p.a, p.b, p.c, p.d, p.r, p.s)
    if not all(np.isfinite(fields)):
        return [("finite_values", float("inf"))]
    violations = []
    neg = -min(p.a, p.b, p.c, p.d)
    if neg > _REF_TOL:
        violations.append(("weight_nonnegative", neg))
    drift = abs(p.a + p.b + p.c + p.d - 1.0)
    if drift > _REF_TOL:
        violations.append(("unit_trace", drift))
    r_excess = abs(p.r) - np.sqrt(max(p.a, 0.0) * max(p.d, 0.0))
    if r_excess > _REF_TOL:
        violations.append(("r_coherence_bound", float(r_excess)))
    s_excess = abs(p.s) - np.sqrt(max(p.b, 0.0) * max(p.c, 0.0))
    if s_excess > _REF_TOL:
        violations.append(("s_coherence_bound", float(s_excess)))
    return violations


def _ref_bloch(p):
    """The Bloch vector of p, unchecked."""
    return BlochX(
        t30=p.a + p.b - p.c - p.d,
        t03=p.a - p.b + p.c - p.d,
        t11=2.0 * (p.s + p.r),
        t22=2.0 * (p.s - p.r),
        t33=p.a - p.b - p.c + p.d,
    )


def _ref_raw_xstate(b):
    """The X state with Bloch vector b, unchecked."""
    return XStateParams(
        a=0.25 * (1.0 + b.t30 + b.t03 + b.t33),
        b=0.25 * (1.0 + b.t30 - b.t03 - b.t33),
        c=0.25 * (1.0 - b.t30 + b.t03 - b.t33),
        d=0.25 * (1.0 - b.t30 - b.t03 + b.t33),
        r=0.25 * (b.t11 - b.t22),
        s=0.25 * (b.t11 + b.t22),
    )


def _ref_validate_bloch(b):
    coeffs = (b.t30, b.t03, b.t11, b.t22, b.t33)
    if not all(np.isfinite(coeffs)):
        return [("finite_values", float("inf"))]
    violations = []
    over = max(abs(t) for t in coeffs) - 1.0
    if over > _REF_TOL:
        violations.append(("coefficient_range", float(over)))
    return violations + _ref_validate_xstate(_ref_raw_xstate(b))


def _ref_require_valid(p):
    if _ref_validate_xstate(p):
        raise InvalidStateError("unphysical X state")


def _ref_require_valid_bloch(b):
    if _ref_validate_bloch(b):
        raise InvalidStateError("unphysical Bloch coefficients")


def _ref_xlog2x(v):
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape)
    mask = ~(v <= 0.0)
    out[mask] = v[mask] * np.log2(v[mask])
    return out


def _ref_u(x):
    x = np.asarray(x, dtype=float)
    return _ref_xlog2x(1.0 + x) + _ref_xlog2x(1.0 - x)


def _ref_u_func(x):
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > 1.0 + 1e-12):
        raise ValueError("u(x) requires |x| <= 1")
    val = _ref_u(np.clip(arr, -1.0, 1.0))
    return float(val) if val.ndim == 0 else val


def _ref_g_branch(i, b):
    _ref_require_valid_bloch(b)
    if i in (1, 2):
        return max(0.5 * float(_ref_u(b.t11 if i == 1 else b.t22)), 0.0)
    t_i0, t_0i, t_ii = b.t30, b.t03, b.t33
    arr = np.array(
        [
            1.0 + t_i0 + t_0i + t_ii,
            1.0 + t_i0 - t_0i - t_ii,
            1.0 - t_i0 + t_0i - t_ii,
            1.0 - t_i0 - t_0i + t_ii,
        ]
    )
    if arr.min() < -1e-10:
        raise ValueError(f"branch {i} has negative log argument")
    arr = np.clip(arr, 0.0, None)
    g = 0.25 * float(_ref_xlog2x(arr).sum()) - 0.5 * (_ref_u_func(t_0i) + _ref_u_func(t_i0))
    return max(g, 0.0)


def _ref_concurrence_x(p):
    _ref_require_valid(p)
    c1 = 2.0 * (abs(p.r) - np.sqrt(max(p.b, 0.0) * max(p.c, 0.0)))
    c2 = 2.0 * (abs(p.s) - np.sqrt(max(p.a, 0.0) * max(p.d, 0.0)))
    return float(max(0.0, c1, c2))


def _ref_measure_set(p):
    _ref_require_valid(p)
    b = _ref_bloch(p)
    g = sorted((_ref_g_branch(1, b), _ref_g_branch(2, b), _ref_g_branch(3, b)))
    laqc_value = max(_ref_g_branch(1, b), _ref_g_branch(2, b))
    return (_ref_concurrence_x(p), laqc_value, g[1], g[2])


def _ref_bloch_measures(b):
    """The Bloch route: reconstruct the state, validate it, and take its measure set."""
    p = _ref_raw_xstate(b)
    _ref_require_valid(p)
    return _ref_measure_set(p)


def _ref_g3_scalar(t30, t03, t33):
    vals = np.array(
        [
            1.0 + t30 + t03 + t33,
            1.0 + t30 - t03 - t33,
            1.0 - t30 + t03 - t33,
            1.0 - t30 - t03 + t33,
        ]
    )
    vals = np.clip(vals, 0.0, None)
    g = 0.25 * float(_ref_xlog2x(vals).sum()) - 0.5 * float(_ref_u(t30) + _ref_u(t03))
    return max(g, 0.0)


def _bits(values):
    """Each float as hex text: equal exactly when the values are equal and share the sign bit."""
    return [float(v).hex() for v in values]


_KINDS = ("random", "rank_deficient", "diagonal", "bell_boundary")


def _state(kind, rng):
    """A valid X state of one of the kinds the scalar path sees."""
    if kind == "random":
        return random_xstate(rng)
    if kind == "rank_deficient":
        return random_xstate(rng, rank_deficient=True)
    if kind == "diagonal":
        w = rng.dirichlet(np.ones(4))
        return XStateParams(*(float(v) for v in w), 0.0, 0.0)
    eps = float(rng.uniform(0.0, 0.05))
    a = 0.5 * (1.0 - eps)
    return XStateParams(a, 0.5 * eps, 0.5 * eps, a, float(rng.choice((-1.0, 1.0))) * a, 0.0)


def _outcome(fn, *args):
    """("ok", bits of the values) or ("raises", exception type)."""
    try:
        value = fn(*args)
    except ValueError as exc:
        return ("raises", type(exc))
    if isinstance(value, MeasureSet):
        value = (value.concurrence, value.laqc, value.qs, value.cs)
    return ("ok", _bits(np.atleast_1d(value)))


def _ref_two_step_check(p):
    """The check measure_set and _StateMeasures made before check_xstate, by
    the reference validators: the state, then its Bloch vector.  It raises
    "unphysical X state: <rows>" with the state's rows, or "unphysical Bloch
    coefficients: <rows>" with its Bloch vector's."""
    what, violations = "unphysical X state", _ref_validate_xstate(p)
    if not violations:
        what, violations = "unphysical Bloch coefficients", _ref_validate_bloch(_ref_bloch(p))
    if violations:
        raise InvalidStateError(f"{what}: {tuple(violations)}", ValidationReport(tuple(violations)))


def _rows(violations):
    """Each (name, magnitude) with the magnitude's type and exact bits."""
    return [(name, type(m), float(m).hex()) for name, m in violations]


def _error(fn, *args):
    """(message, violations) of the InvalidStateError fn raises, or None if it raises none."""
    try:
        fn(*args)
    except InvalidStateError as exc:
        return str(exc), exc.report.violations
    return None


_EXTREME_STATES = [
    XStateParams(1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    XStateParams(0.25, 0.25, 0.25, 0.25, 0.0, 0.0),
    XStateParams(0.5, 0.0, 0.0, 0.5, 0.5, 0.0),
    XStateParams(0.5, 0.0, 0.0, 0.5, -0.5, 0.0),
    XStateParams(0.0, 0.5, 0.5, 0.0, 0.0, 0.5),
    XStateParams(0.5, 0.5, 0.0, 0.0, 0.0, 0.0),
    XStateParams(1.0 / 3.0, 1.0 / 3.0, 0.0, 1.0 / 3.0, 1.0 / 3.0, 0.0),
]


class TestOnePassKernel:
    """The one-pass kernel against the reference branches."""

    @settings(max_examples=400)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(_KINDS))
    def test_bit_identical_to_per_branch_path(self, seed, kind):
        p = _state(kind, np.random.default_rng(seed))
        b = bloch(p)
        ms = measure_set(p)
        assert _bits((ms.concurrence, ms.laqc, ms.qs, ms.cs)) == _bits(_ref_measure_set(p))
        assert _outcome(bloch_measures, b) == _outcome(_ref_bloch_measures, b)
        g3 = _StateMeasures(p)._g3
        assert _bits([g3]) == _bits([_ref_g3_scalar(b.t30, b.t03, b.t33)])

    @pytest.mark.parametrize("p", _EXTREME_STATES)
    def test_bit_identical_on_pure_and_extreme_states(self, p):
        assert _outcome(measure_set, p) == _outcome(_ref_measure_set, p)
        b = bloch(p)
        assert _outcome(bloch_measures, b) == _outcome(_ref_bloch_measures, b)
        assert _bits([_StateMeasures(p)._g3]) == _bits([_ref_g3_scalar(b.t30, b.t03, b.t33)])



_ANY_STATE = st.one_of(
    st.tuples(st.integers(0, 2**32 - 1), st.sampled_from(_KINDS)).map(
        lambda sk: _state(sk[1], np.random.default_rng(sk[0]))
    ),
    st.tuples(st.sampled_from(["werner", "mnms", "mems"]), st.floats(0.0, 1.0)).map(
        lambda fp: make_state(FamilySpec(*fp))
    ),
    st.sampled_from(_EXTREME_STATES),
)


class TestOneEngine:
    """measure_set and the sweep engine give the same bits at Lambda = 1."""

    @settings(max_examples=400)
    @given(
        p=_ANY_STATE,
        rates=st.tuples(st.floats(0.55, 12.0), st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
        tmax=st.floats(0.1, 6.0),
        steps=st.integers(2, 50),
    )
    def test_measure_set_is_the_sweep_at_lambda_one(self, p, rates, tmax, steps):
        names = ("concurrence", "laqc", "qs", "cs")
        ms = measure_set(p)
        want = np.array([getattr(ms, name) for name in names])
        at_one = _StateMeasures(p)(np.array([1.0]))
        rows = [np.array([at_one[name][0] for name in names])]
        for noise in (Rtn(rates[0]), Moun(rates[1]), Markov(rates[2])):
            traj = trajectory(p, noise, np.linspace(0.0, tmax, steps))
            assert traj.lam[0] == 1.0
            rows.append(np.array([getattr(traj, name)[0] for name in names]))
        for got in rows:
            # the int64 view compares value and sign of zero
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=200)
    @given(ps=st.lists(_ANY_STATE, min_size=1, max_size=8), lam=st.floats(-1.0, 1.0))
    def test_the_list_form_is_measure_set_row_by_row(self, ps, lam):
        # dynamics.surface builds the list form; at Lambda = 1 each row is
        # measure_set's, and at any Lambda the one-state form's
        names = ("concurrence", "laqc", "qs", "cs")
        envelope = np.array([1.0, lam])
        rows = _StateMeasures(ps)(envelope)
        for i, p in enumerate(ps):
            ms = measure_set(p)
            want = np.array([getattr(ms, name) for name in names])
            got = np.array([rows[name][i, 0] for name in names])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            one = _StateMeasures(p)(envelope)
            for name in names:
                assert np.array_equal(rows[name][i].view(np.int64), one[name].view(np.int64)), name


_TOL = 1e-12
_BELOW, _ABOVE = 0.9 * _TOL, 1.1 * _TOL


def _crossing_states():
    """(label, whether the earlier path rejects it, state): each pair sits
    just inside and just outside one tolerance of check_xstate's X step."""
    cases = []
    for label, rejects, x in (("inside", False, _BELOW), ("outside", True, _ABOVE)):
        cases += [
            (f"negative weight {label}", rejects, XStateParams(-x, 0.5 + x, 0.25, 0.25, 0.0, 0.0)),
            (f"trace drift up {label}", rejects, XStateParams(0.25 + x, 0.25, 0.25, 0.25, 0.1, 0.1)),
            (f"trace drift down {label}", rejects, XStateParams(0.25, 0.25, 0.25 - x, 0.25, 0.1, 0.1)),
            (f"r bound {label}", rejects, XStateParams(0.4, 0.1, 0.1, 0.4, 0.4 + x, 0.0)),
            (f"s bound {label}", rejects, XStateParams(0.1, 0.4, 0.4, 0.1, 0.0, -(0.4 + x))),
        ]
    for value in (float("nan"), float("inf"), -float("inf")):
        for k in range(6):
            fields = [0.25, 0.25, 0.25, 0.25, 0.0, 0.0]
            fields[k] = value
            cases.append((f"field {k} = {value}", True, XStateParams(*fields)))
    # t30 beyond 1 with negative weights inside their tolerance: the state passes,
    # its Bloch vector fails coefficient_range
    cases.append(("t30 past 1", True, XStateParams(0.5, 0.5 + 2.6e-12, -0.9e-12, -0.9e-12, 0.0, 0.0)))
    return cases


def _crossing_blochs():
    """Bloch vectors just inside and just outside coefficient_range, and non-finite ones.

    One coefficient at +-(1 + x) leaves every reconstructed weight and
    coherence within 1e-12 of its bound, so coefficient_range decides.
    """
    cases = []
    for label, rejects, x in (("inside", False, _BELOW), ("outside", True, _ABOVE)):
        for k in range(5):
            for sign in (1.0, -1.0):
                coeffs = [0.0] * 5
                coeffs[k] = sign * (1.0 + x)
                cases.append((f"t[{k}] = {sign:+.0f}(1 + tol) {label}", rejects, BlochX(*coeffs)))
    for value in (float("nan"), float("inf"), -float("inf")):
        for k in range(5):
            coeffs = [0.0] * 5
            coeffs[k] = value
            cases.append((f"t[{k}] = {value}", True, BlochX(*coeffs)))
    return cases


def _nudged(p, field, shift):
    fields = [p.a, p.b, p.c, p.d, p.r, p.s]
    fields[field] += shift
    return XStateParams(*fields)


def _with_field(p, field, value):
    fields = [p.a, p.b, p.c, p.d, p.r, p.s]
    fields[field] = value
    return XStateParams(*fields)


# +-(0.5 to 2) tolerances
_NUDGES = st.one_of(st.floats(0.5, 2.0), st.floats(-2.0, -0.5))
# valid states, states nudged across a tolerance and states with a NaN or inf field
_REPORT_STATES = st.one_of(
    _ANY_STATE,
    st.builds(_nudged, _ANY_STATE, st.integers(0, 5), _NUDGES.map(lambda x: x * _TOL)),
    st.builds(_with_field, _ANY_STATE, st.integers(0, 5), st.sampled_from((float("nan"), float("inf"), -float("inf")))),
)


class TestAcceptReject:
    """measure_set, on a state or through the Bloch route, rejects exactly what the reference path rejects."""

    @pytest.mark.parametrize("label, rejects, p", _crossing_states(), ids=lambda v: v if isinstance(v, str) else "")
    def test_states_across_each_tolerance(self, label, rejects, p):
        want = _outcome(_ref_measure_set, p)
        assert (want[0] == "raises") == rejects, label
        got = _outcome(measure_set, p)
        assert got == want
        if rejects:
            assert got[1] is InvalidStateError
        # the same message and report as the two-step check, on every entry point
        error = _error(_ref_two_step_check, p)
        assert (error is not None) == rejects
        for fn in (check_xstate, measure_set, _StateMeasures):
            assert _error(fn, p) == error, fn.__name__

    @pytest.mark.parametrize("label, rejects, p", [c for c in _crossing_states() if c[1]], ids=lambda v: v if isinstance(v, str) else "")
    def test_a_list_with_one_invalid_state(self, label, rejects, p):
        good = [make_state(FamilySpec("werner", 0.5)), BELL_PHI_PLUS]
        want = _error(_ref_two_step_check, p)
        assert want is not None
        for at in range(len(good) + 1):
            assert _error(_StateMeasures, good[:at] + [p] + good[at:]) == want

    @pytest.mark.parametrize("label, rejects, b", _crossing_blochs(), ids=lambda v: v if isinstance(v, str) else "")
    def test_bloch_vectors_across_each_tolerance(self, label, rejects, b):
        want = _outcome(_ref_bloch_measures, b)
        assert (want[0] == "raises") == rejects, label
        got = _outcome(bloch_measures, b)
        assert got == want
        if rejects:
            assert got[1] is InvalidStateError

    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(_KINDS),
        field=st.integers(0, 5),
        scale=st.floats(0.5, 2.0),
        sign=st.sampled_from((-1.0, 1.0)),
    )
    def test_perturbed_states_match(self, seed, kind, field, scale, sign):
        q = _nudged(_state(kind, np.random.default_rng(seed)), field, sign * scale * _TOL)
        assert _outcome(measure_set, q) == _outcome(_ref_measure_set, q)
        assert _error(measure_set, q) == _error(_ref_two_step_check, q)
        b = _ref_bloch(q)
        assert _outcome(bloch_measures, b) == _outcome(_ref_bloch_measures, b)

    @settings(max_examples=500)
    @given(p=_REPORT_STATES, k=st.integers(0, 4), nudge=_NUDGES)
    def test_reports_match_the_reference(self, p, k, nudge):
        """xstate_report gives the reference's two-step rows, to the bit, on a
        state and on its Bloch vector nudged across a tolerance, read through
        bloch_params as a Bloch document is (as Python floats)."""
        b = _ref_bloch(p)
        coeffs = [b.t30, b.t03, b.t11, b.t22, b.t33]
        coeffs[k] += nudge * _TOL
        for q in (p, bloch_params(BlochX(*map(float, coeffs)))):
            want = _ref_validate_xstate(q) or _ref_validate_bloch(_ref_bloch(q))
            assert _rows(xstate_report(q).violations) == _rows(want)


class TestOrdering:
    @settings(max_examples=500)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(_KINDS))
    def test_cs_laqc_qs_order(self, seed, kind):
        p = _state(kind, np.random.default_rng(seed))
        ms = measure_set(p)
        assert ms.cs >= ms.laqc >= ms.qs >= 0.0
        assert ms.concurrence >= 0.0


def _ref_middle_of_three(g1, g2, g3):
    """The earlier form: stack to (3, ...) and sort along the strided first axis."""
    return np.sort(np.stack(np.broadcast_arrays(g1, g2, g3)), axis=0)[1]


class TestMiddleOfThree:
    """The middle of three equals the earlier form to the bit on branch values:
    finite, nonnegative and never -0.0, which the engine gives (see the last test)."""

    SPECIAL = (0.0, 5e-324, 1e-300, 0.25, 0.5, 1.0, 2.0)

    @pytest.mark.parametrize("shape", [(7,), (5, 9)])
    def test_random_broadcasts(self, rng, shape):
        # g3 is one value per state: a scalar, or an (n, 1) column; the pool
        # makes ties
        pool = np.array(self.SPECIAL)
        g1 = np.where(rng.random(shape) < 0.3, rng.choice(pool, shape), rng.random(shape))
        g2 = np.where(rng.random(shape) < 0.3, rng.choice(pool, shape), rng.random(shape))
        for g3 in (0.5, 0.0, rng.choice(pool, shape[:-1] + (1,)), rng.random(shape[:-1] + (1,))):
            want = _ref_middle_of_three(g1, g2, g3)
            got = _middle_of_three(g1, g2, g3)
            assert got.shape == want.shape == shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=300)
    @given(ps=st.lists(_ANY_STATE, min_size=1, max_size=4), lams=st.lists(st.floats(-1.0, 1.0), max_size=16))
    def test_the_engine_gives_no_nan_or_negative_zero(self, ps, lams):
        lam = np.array([1.0, -1.0, 0.0, -0.0, 1e-300, -5e-324, *lams])
        for m in (_StateMeasures(ps)(lam), _StateMeasures(ps[0])(lam)):
            for name, values in m.items():
                assert not np.isnan(values).any(), name
                if name != "concurrence":
                    assert not (np.signbit(values) & (values == 0.0)).any(), name


def _dyadic_xstate(rng):
    """A valid X state whose fields are multiples of 1/64, exact in float32 too."""
    w = rng.multinomial(64, [0.25] * 4)
    r = int(rng.integers(-1, 2)) * int(rng.integers(0, math.isqrt(int(w[0] * w[3])) + 1))
    s = int(rng.integers(-1, 2)) * int(rng.integers(0, math.isqrt(int(w[1] * w[2])) + 1))
    return XStateParams(*(v / 64.0 for v in (*w.tolist(), r, s)))


_NUMERIC_TYPES = (lambda v: Decimal(repr(float(v))), Fraction, np.float32, np.float64, float)


class TestNumericFields:
    """A field of any numeric type gives the measures of its float: measure_set and the
    sweep engine read only check_xstate's tuple, never a field of the state."""

    def _assert_float_bits(self, p):
        plain = XStateParams(*(float(v) for v in astuple(p)))
        assert xstate_report(p) == xstate_report(plain)
        if not xstate_report(p).valid:
            return False
        assert _bits(astuple(measure_set(p))) == _bits(astuple(measure_set(plain)))
        tgrid = np.linspace(0.0, 3.0, 7)
        for noise in (Rtn(4.0), Moun(1.0)):
            got, want = trajectory(p, noise, tgrid), trajectory(plain, noise, tgrid)
            assert [_bits(col) for col in got] == [_bits(col) for col in want]
        return True

    @pytest.mark.parametrize(
        "fields",
        [
            (0.5, 0.0, 0.0, 0.5, Decimal("0.25"), 0.0),
            (1, 0, 0, 0, 0, 0),
            (0, 0, 0, 1, 0, 0),
            (0.5, 0, 0, 0.5, 0, Fraction(0)),
            (Fraction(1, 2), 0, 0, Fraction(1, 2), Fraction(-1, 2), 0),
            (np.float32(0.25), np.float32(0.25), 0.25, 0.25, np.float32(0.125), np.float32(-0.125)),
        ],
        ids=["decimal-r", "int-00", "int-11", "int-and-fraction", "fraction-bell", "float32"],
    )
    def test_fields_of_each_type(self, fields):
        assert self._assert_float_bits(XStateParams(*fields))

    @pytest.mark.parametrize("kind", range(len(_NUMERIC_TYPES)), ids=["decimal", "fraction", "float32", "float64", "float"])
    def test_random_states_of_one_type_per_field(self, rng, kind):
        valid = 0
        for k in range(100):
            p = _dyadic_xstate(rng) if k % 2 else random_xstate(rng, k % 4 == 1)
            # the given type in a random half of the fields, any other in the rest
            types = [_NUMERIC_TYPES[kind if rng.random() < 0.5 else rng.integers(len(_NUMERIC_TYPES))] for _ in range(6)]
            valid += self._assert_float_bits(XStateParams(*(t(v) for t, v in zip(types, astuple(p)))))
        assert valid >= 50
