import re

import numpy as np
import pytest
from conftest import random_xstate
from hypothesis import given, settings
from hypothesis import strategies as st

from rqcx.dynamics import _StateMeasures
from rqcx.families import FamilySpec, make_state
from rqcx.measures import (
    MeasureSet,
    _branches,
    branch_values,
    concurrence_general,
    concurrence_x,
    cs,
    g_branch,
    laqc,
    measure_set,
    qs,
    u_func,
)
from rqcx.states import (
    BlochX,
    InvalidStateError,
    XStateParams,
    bloch_to_xstate,
    is_classical,
    xstate_to_bloch,
    xstate_to_matrix,
)

BELL_PHI_PLUS = XStateParams(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)


def werner_bloch(z):
    return xstate_to_bloch(make_state(FamilySpec("werner", z)))


class TestU:
    def test_zero(self):
        assert u_func(0.0) == 0.0

    def test_endpoint_uses_zero_log_zero(self):
        assert u_func(1.0) == pytest.approx(2.0, abs=1e-15)
        assert u_func(-1.0) == pytest.approx(2.0, abs=1e-15)

    def test_half(self):
        assert u_func(0.5) == pytest.approx(1.5 * np.log2(1.5) - 0.5, abs=1e-15)
        assert u_func(0.5) == pytest.approx(0.37744375108173434, abs=1e-15)

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            u_func(1.001)

    def test_even(self, rng):
        x = rng.uniform(-1, 1, 100)
        np.testing.assert_allclose(u_func(x), u_func(-x), atol=1e-15)


class TestBranches:
    def test_branch_sum_is_four(self, rng):
        for _ in range(300):
            b = xstate_to_bloch(random_xstate(rng))
            for i in (1, 2, 3):
                v = branch_values(i, b)
                assert v.alpha + v.beta + v.gamma + v.delta == pytest.approx(4.0, abs=1e-14)

    def test_werner_branches_all_equal(self):
        for z in (0.2, 0.5, 0.9):
            b = werner_bloch(z)
            expect = 0.5 * u_func(z)
            for i in (1, 2, 3):
                assert g_branch(i, b) == pytest.approx(expect, abs=1e-14)

    def test_maximally_mixed_branches_vanish(self):
        b = BlochX(0.0, 0.0, 0.0, 0.0, 0.0)
        assert all(g_branch(i, b) == 0.0 for i in (1, 2, 3))

    def test_mems_origin_g3(self):
        # diagonal state diag(1/3, 1/3, 0, 1/3): a purely classical correlation
        b = xstate_to_bloch(make_state(FamilySpec("mems", 0.0)))
        expect = np.log2(4.0 / 3.0) - u_func(1.0 / 3.0)
        assert g_branch(3, b) == pytest.approx(expect, abs=1e-13)
        assert g_branch(3, b) == pytest.approx(0.25162916738782265, abs=1e-12)
        assert g_branch(1, b) == 0.0
        assert g_branch(2, b) == 0.0

    def test_g3_equals_computational_basis_cmi(self, rng):
        # dual route: branch formula vs explicit measurement statistics
        from rqcx.oracle import LocalMeasurement, classical_mutual_info, post_measurement_probs

        m = LocalMeasurement(0.0, 0.0, 0.0, 0.0)
        for _ in range(50):
            p = random_xstate(rng)
            table = post_measurement_probs(xstate_to_matrix(p), m)
            assert g_branch(3, xstate_to_bloch(p)) == pytest.approx(
                classical_mutual_info(table), abs=1e-12
            )


class TestLaqc:
    def test_singlet_is_one(self):
        assert laqc(werner_bloch(1.0)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_states_vanish(self):
        assert laqc(BlochX(0.3, -0.1, 0.0, 0.0, 0.2)) == 0.0

    def test_mnms_half(self):
        b = xstate_to_bloch(make_state(FamilySpec("mnms", 0.5)))
        assert laqc(b) == pytest.approx(0.18872187554086717, abs=1e-14)

    def test_zero_iff_classical(self, rng):
        for _ in range(300):
            p = random_xstate(rng)
            b = xstate_to_bloch(p)
            assert (laqc(b) < 1e-12) == is_classical(b, 1e-12)


class TestWuMeasures:
    def test_werner_family_collapses(self):
        for z in (0.1, 0.5, 0.9):
            b = werner_bloch(z)
            expect = 0.5 * u_func(z)
            assert cs(b) == pytest.approx(expect, abs=1e-14)
            assert qs(b) == pytest.approx(expect, abs=1e-14)
            assert laqc(b) == pytest.approx(expect, abs=1e-14)

    def test_mems_small_x(self):
        b = xstate_to_bloch(make_state(FamilySpec("mems", 0.1)))
        assert cs(b) == pytest.approx(g_branch(3, b), abs=1e-14)
        assert qs(b) == pytest.approx(0.5 * u_func(0.1), abs=1e-14)
        assert qs(b) == pytest.approx(0.007225546012191789, abs=1e-14)

    def test_maximally_mixed(self):
        b = BlochX(0.0, 0.0, 0.0, 0.0, 0.0)
        assert cs(b) == qs(b) == 0.0

    def test_laqc_dominates_qs_10k(self, rng):
        for _ in range(10_000):
            b = xstate_to_bloch(random_xstate(rng))
            assert laqc(b) >= qs(b) - 1e-12

    def test_coherence_sign_invariance(self, rng):
        for _ in range(200):
            p = random_xstate(rng)
            for flip_r, flip_s in ((-1, 1), (1, -1), (-1, -1)):
                q = XStateParams(p.a, p.b, p.c, p.d, flip_r * p.r, flip_s * p.s)
                for f in (laqc, cs, qs):
                    assert f(xstate_to_bloch(p)) == pytest.approx(
                        f(xstate_to_bloch(q)), abs=1e-12
                    )


class TestConcurrence:
    def test_werner_threshold(self):
        assert concurrence_x(make_state(FamilySpec("werner", 1.0 / 3.0))) == 0.0
        assert concurrence_x(make_state(FamilySpec("werner", 0.2))) == 0.0
        z = 0.8
        assert concurrence_x(make_state(FamilySpec("werner", z))) == pytest.approx(
            0.5 * (3 * z - 1), abs=1e-15
        )

    def test_bell_state(self):
        assert concurrence_x(BELL_PHI_PLUS) == pytest.approx(1.0, abs=1e-15)
        assert concurrence_general(xstate_to_matrix(BELL_PHI_PLUS)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_linear_families(self):
        for kind in ("mnms", "mems"):
            for x in (0.1, 0.5, 0.8, 1.0):
                p = make_state(FamilySpec(kind, x))
                assert concurrence_x(p) == pytest.approx(x, abs=1e-14)
                assert concurrence_general(xstate_to_matrix(p)) == pytest.approx(x, abs=1e-10)

    def test_maximally_mixed_vanishes(self):
        assert concurrence_general(np.eye(4) / 4.0) == 0.0

    def test_oracle_equivalence_1000(self, rng):
        worst = 0.0
        for k in range(1000):
            p = random_xstate(rng, rank_deficient=(k % 5 == 0))
            diff = abs(concurrence_general(xstate_to_matrix(p)) - concurrence_x(p))
            worst = max(worst, diff)
        assert worst < 1e-10


def test_measure_set_consistency(rng):
    for _ in range(50):
        p = random_xstate(rng)
        ms = measure_set(p)
        b = xstate_to_bloch(p)
        assert ms.concurrence == concurrence_x(p)
        assert ms.laqc == laqc(b)
        assert ms.qs == qs(b)
        assert ms.cs == cs(b)
        assert ms.laqc >= ms.qs - 1e-15


def test_measures_are_lipschitz_away_from_endpoints(rng):
    eps = 1e-6
    for _ in range(100):
        p = random_xstate(rng)
        b = xstate_to_bloch(p)
        if max(abs(b.t11), abs(b.t22), abs(b.t33)) > 0.95:
            continue
        shifted = BlochX(b.t30, b.t03, b.t11 + eps, b.t22 - eps, b.t33)
        try:
            bloch_to_xstate(shifted)
        except Exception:
            continue
        for f in (laqc, cs, qs):
            assert abs(f(shifted) - f(b)) <= 10.0 * 2 * eps


# ---- the per-branch scalar path that the one-pass kernel replaced, kept as
# reference code: each branch evaluated and validated on its own, numpy
# validation of the state and of its Bloch vector.

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


def _ref_validate_bloch(b):
    coeffs = (b.t30, b.t03, b.t11, b.t22, b.t33)
    if not all(np.isfinite(coeffs)):
        return [("finite_values", float("inf"))]
    violations = []
    over = max(abs(t) for t in coeffs) - 1.0
    if over > _REF_TOL:
        violations.append(("coefficient_range", float(over)))
    p = XStateParams(
        a=0.25 * (1.0 + b.t30 + b.t03 + b.t33),
        b=0.25 * (1.0 + b.t30 - b.t03 - b.t33),
        c=0.25 * (1.0 - b.t30 + b.t03 - b.t33),
        d=0.25 * (1.0 - b.t30 - b.t03 + b.t33),
        r=0.25 * (b.t11 - b.t22),
        s=0.25 * (b.t11 + b.t22),
    )
    return violations + _ref_validate_xstate(p)


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
    t_i0, t_0i = (b.t30, b.t03) if i == 3 else (0.0, 0.0)
    t_ii = {1: b.t11, 2: b.t22, 3: b.t33}[i]
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


def _ref_laqc(b):
    _ref_require_valid_bloch(b)
    return max(_ref_g_branch(1, b), _ref_g_branch(2, b))


def _ref_cs(b):
    _ref_require_valid_bloch(b)
    return max(_ref_g_branch(i, b) for i in (1, 2, 3))


def _ref_qs(b):
    _ref_require_valid_bloch(b)
    return sorted((_ref_g_branch(1, b), _ref_g_branch(2, b), _ref_g_branch(3, b)), reverse=True)[1]


def _ref_concurrence_x(p):
    _ref_require_valid(p)
    c1 = 2.0 * (abs(p.r) - np.sqrt(max(p.b, 0.0) * max(p.c, 0.0)))
    c2 = 2.0 * (abs(p.s) - np.sqrt(max(p.a, 0.0) * max(p.d, 0.0)))
    return float(max(0.0, c1, c2))


def _ref_measure_set(p):
    _ref_require_valid(p)
    b = BlochX(
        t30=p.a + p.b - p.c - p.d,
        t03=p.a - p.b + p.c - p.d,
        t11=2.0 * (p.s + p.r),
        t22=2.0 * (p.s - p.r),
        t33=p.a - p.b - p.c + p.d,
    )
    g = sorted((_ref_g_branch(1, b), _ref_g_branch(2, b), _ref_g_branch(3, b)))
    laqc_value = max(_ref_g_branch(1, b), _ref_g_branch(2, b))
    return (_ref_concurrence_x(p), laqc_value, g[1], g[2])


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


class TestOnePassKernel:
    """The one-pass kernel against the per-branch path it replaced."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(_KINDS))
    def test_bit_identical_to_per_branch_path(self, seed, kind):
        p = _state(kind, np.random.default_rng(seed))
        b = xstate_to_bloch(p)
        ms = measure_set(p)
        assert _bits((ms.concurrence, ms.laqc, ms.qs, ms.cs)) == _bits(_ref_measure_set(p))
        for i in (1, 2, 3):
            assert _bits([g_branch(i, b)]) == _bits([_ref_g_branch(i, b)])
        for new, ref in ((laqc, _ref_laqc), (qs, _ref_qs), (cs, _ref_cs)):
            assert _bits([new(b)]) == _bits([ref(b)])
        g3 = _StateMeasures(p)._g3
        assert _bits([g3]) == _bits([_ref_g3_scalar(b.t30, b.t03, b.t33)])

    @pytest.mark.parametrize(
        "p",
        [
            XStateParams(1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            XStateParams(0.25, 0.25, 0.25, 0.25, 0.0, 0.0),
            XStateParams(0.5, 0.0, 0.0, 0.5, 0.5, 0.0),
            XStateParams(0.5, 0.0, 0.0, 0.5, -0.5, 0.0),
            XStateParams(0.0, 0.5, 0.5, 0.0, 0.0, 0.5),
            XStateParams(0.5, 0.5, 0.0, 0.0, 0.0, 0.0),
            XStateParams(1.0 / 3.0, 1.0 / 3.0, 0.0, 1.0 / 3.0, 1.0 / 3.0, 0.0),
        ],
    )
    def test_bit_identical_on_pure_and_extreme_states(self, p):
        assert _outcome(measure_set, p) == _outcome(_ref_measure_set, p)
        b = xstate_to_bloch(p)
        for new, ref in ((laqc, _ref_laqc), (qs, _ref_qs), (cs, _ref_cs)):
            assert _outcome(new, b) == _outcome(ref, b)
        assert _bits([_StateMeasures(p)._g3]) == _bits([_ref_g3_scalar(b.t30, b.t03, b.t33)])

    @pytest.mark.parametrize(
        "b, message",
        [
            (BlochX(0.0, 0.0, 1.5, 0.0, 0.0), "branch 1 has negative log argument -5.000e-01"),
            (BlochX(0.0, 0.0, 0.0, -1.2, 1.3), "branch 2 has negative log argument -2.000e-01"),
            (BlochX(0.6, 0.6, 0.0, 0.0, 0.0), "branch 3 has negative log argument -2.000e-01"),
            (BlochX(1.0 + 5e-12, 0.0, 0.0, 0.0, 0.0), "u(x) requires |x| <= 1"),
        ],
    )
    def test_kernel_keeps_branch_and_domain_checks(self, b, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            _branches(b)


_TOL = 1e-12
_BELOW, _ABOVE = 0.9 * _TOL, 1.1 * _TOL


def _crossing_states():
    """(label, whether the earlier path rejects it, state): each pair sits
    just inside and just outside one tolerance of validate_xstate."""
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


class TestAcceptReject:
    """measure_set and the wrappers reject exactly what the earlier path rejected."""

    @pytest.mark.parametrize("label, rejects, p", _crossing_states(), ids=lambda v: v if isinstance(v, str) else "")
    def test_states_across_each_tolerance(self, label, rejects, p):
        want = _outcome(_ref_measure_set, p)
        assert (want[0] == "raises") == rejects, label
        got = _outcome(measure_set, p)
        assert got == want
        if rejects:
            assert got[1] is InvalidStateError

    @pytest.mark.parametrize("label, rejects, b", _crossing_blochs(), ids=lambda v: v if isinstance(v, str) else "")
    def test_bloch_vectors_across_each_tolerance(self, label, rejects, b):
        ref = {g_branch: _ref_g_branch, laqc: _ref_laqc, qs: _ref_qs, cs: _ref_cs}
        for new, old in ref.items():
            args = (1, b) if new is g_branch else (b,)
            want = _outcome(old, *args)
            assert (want[0] == "raises") == rejects, label
            got = _outcome(new, *args)
            assert got == want
            if got[0] == "raises":
                assert got[1] is InvalidStateError

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(_KINDS),
        field=st.integers(0, 5),
        scale=st.floats(0.5, 2.0),
        sign=st.sampled_from((-1.0, 1.0)),
    )
    def test_perturbed_states_match(self, seed, kind, field, scale, sign):
        p = _state(kind, np.random.default_rng(seed))
        fields = [p.a, p.b, p.c, p.d, p.r, p.s]
        fields[field] += sign * scale * _TOL
        q = XStateParams(*fields)
        assert _outcome(measure_set, q) == _outcome(_ref_measure_set, q)
        b = BlochX(q.a + q.b - q.c - q.d, q.a - q.b + q.c - q.d, 2.0 * (q.s + q.r), 2.0 * (q.s - q.r), q.a - q.b - q.c + q.d)
        for new, old in ((laqc, _ref_laqc), (qs, _ref_qs), (cs, _ref_cs)):
            assert _outcome(new, b) == _outcome(old, b)


class TestOrdering:
    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(_KINDS))
    def test_cs_laqc_qs_order(self, seed, kind):
        p = _state(kind, np.random.default_rng(seed))
        ms = measure_set(p)
        assert ms.cs >= ms.laqc >= ms.qs >= 0.0
        assert ms.concurrence >= 0.0
        b = xstate_to_bloch(p)
        assert cs(b) >= laqc(b) >= qs(b) >= 0.0
