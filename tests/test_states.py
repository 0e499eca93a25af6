import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bloch, random_density_matrix, random_xstate
from reference import apply_common_bath, bloch_from_matrix
from rqcx.families import FamilySpec, make_state
from rqcx.measures import measure_set
from rqcx.states import (
    EIG_TOL,
    BlochX,
    InvalidStateError,
    ValidationReport,
    XStateParams,
    bloch_params,
    check_xstate,
    fano_coefficients,
    matrix_params,
    require_density_matrix,
    validate_density_matrix,
    xstate_matrix,
    xstate_report,
)

MIXED = XStateParams(0.25, 0.25, 0.25, 0.25, 0.0, 0.0)
BELL_PHI_PLUS = XStateParams(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)


class TestValidation:
    def test_maximally_mixed_is_valid(self):
        assert xstate_report(MIXED).valid

    def test_coherence_bound_violation_reported(self):
        report = xstate_report(XStateParams(0.5, 0.0, 0.0, 0.5, 0.6, 0.0))
        assert not report.valid
        names = [name for name, _ in report.violations]
        assert "r_coherence_bound" in names
        mag = dict(report.violations)["r_coherence_bound"]
        assert mag == pytest.approx(0.1, abs=1e-12)

    def test_werner_half_is_valid(self):
        assert xstate_report(make_state(FamilySpec("werner", 0.5))).valid

    def test_trace_violation_reported(self):
        report = xstate_report(XStateParams(0.5, 0.5, 0.5, 0.5, 0.0, 0.0))
        assert ("unit_trace", 1.0) in [(n, pytest.approx(m)) for n, m in report.violations]

    def test_nan_rejected(self):
        assert not xstate_report(XStateParams(float("nan"), 0.5, 0.25, 0.25, 0, 0)).valid


def _state(route, fields, kind):
    """The X state of fields, each of type kind: six X parameters, or five Bloch coefficients read by bloch_params."""
    values = [kind(v) for v in fields]
    return XStateParams(*values) if route == "params" else bloch_params(BlochX(*values))


def _bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


class TestNumpyScalars:
    """Numpy-scalar fields are read as floats: the report and the bits of Python floats."""

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("route, slot", [("params", k) for k in range(6)] + [("bloch", k) for k in range(5)])
    def test_non_finite_field_gets_its_report(self, route, slot, value):
        # value in one slot and -value in the next, so inf meets -inf in the
        # sums; the suite turns numpy's RuntimeWarning into an error
        fields = [0.25, 0.25, 0.25, 0.25, 0.0, 0.0] if route == "params" else [0.1, 0.0, 0.0, 0.0, 0.0]
        fields[slot], fields[(slot + 1) % len(fields)] = value, -value
        for kind in (np.float64, float):
            assert xstate_report(_state(route, fields, kind)) == ValidationReport((("finite_values", np.inf),))

    @pytest.mark.parametrize("route", ["params", "bloch"])
    def test_finite_fields_give_the_float_bits(self, rng, route):
        for k in range(200):
            p = random_xstate(rng, k % 2 == 1)
            fields = astuple(p) if route == "params" else astuple(bloch(p))
            scalar, plain = _state(route, fields, np.float64), _state(route, fields, float)
            assert _bits(astuple(scalar)) == _bits(astuple(plain))
            assert _bits(check_xstate(scalar)) == _bits(check_xstate(plain))
            assert _bits(astuple(measure_set(scalar))) == _bits(astuple(measure_set(plain)))


class TestTextFields:
    """A text field, which float() would parse, is a TypeError on every entry point."""

    @pytest.mark.parametrize("kind", [str, lambda v: str(v).encode(), lambda v: bytearray(str(v).encode())],
                             ids=["str", "bytes", "bytearray"])
    @pytest.mark.parametrize("slot", range(6))
    def test_text_field_is_a_type_error(self, slot, kind):
        fields = [0.25, 0.25, 0.25, 0.25, 0.0, 0.0]
        fields[slot] = kind(fields[slot])
        p = XStateParams(*fields)
        for entry in (xstate_report, check_xstate, measure_set):
            with pytest.raises(TypeError, match="X-state fields must be numbers"):
                entry(p)

    @pytest.mark.parametrize("kind", [str, lambda v: str(v).encode(), lambda v: bytearray(str(v).encode())],
                             ids=["str", "bytes", "bytearray"])
    @pytest.mark.parametrize("slot", range(5))
    def test_text_bloch_coefficient_is_a_type_error(self, slot, kind):
        fields = [0.1, 0.0, 0.0, 0.0, 0.0]
        fields[slot] = kind(fields[slot])
        with pytest.raises(TypeError, match="Bloch coefficients must be numbers, not"):
            bloch_params(BlochX(*fields))

    def test_every_field_text(self):
        p = XStateParams("0.25", "0.25", "0.25", "0.25", "0", "0")
        with pytest.raises(TypeError, match="not str"):
            xstate_report(p)
        with pytest.raises(TypeError, match="not str"):
            measure_set(p)


class TestBlochConversion:
    def test_maximally_mixed_maps_to_zero(self):
        b = bloch(MIXED)
        assert b == BlochX(0.0, 0.0, 0.0, 0.0, 0.0)

    def test_mnms_bloch_pattern(self):
        for x in (0.2, 0.5, 1.0):
            b = bloch(make_state(FamilySpec("mnms", x)))
            assert b.t30 == pytest.approx(0.0, abs=1e-15)
            assert b.t03 == pytest.approx(0.0, abs=1e-15)
            assert b.t11 == pytest.approx(x, abs=1e-15)
            assert b.t22 == pytest.approx(-x, abs=1e-15)
            assert b.t33 == pytest.approx(1.0, abs=1e-15)

    def test_mems_antisymmetric_local_coefficients(self):
        from rqcx.families import mems_chi

        for x in (0.0, 0.3, 2.0 / 3.0, 0.9):
            b = bloch(make_state(FamilySpec("mems", x)))
            assert b.t30 == pytest.approx(1.0 - 2.0 * mems_chi(x), abs=1e-15)
            assert b.t03 == pytest.approx(-b.t30, abs=1e-15)

    def test_werner_canonical_bloch(self):
        z = 0.5
        p = bloch_params(BlochX(0.0, 0.0, -z, -z, -z))
        w = make_state(FamilySpec("werner", z))
        for field in ("a", "b", "c", "d", "r", "s"):
            assert getattr(p, field) == pytest.approx(getattr(w, field), abs=1e-15)

    def test_round_trip_10k(self, rng):
        worst = 0.0
        for _ in range(10_000):
            p = random_xstate(rng)
            q = bloch_params(bloch(p))
            worst = max(
                worst,
                max(abs(getattr(p, f) - getattr(q, f)) for f in ("a", "b", "c", "d", "r", "s")),
            )
        assert worst < 1e-14

    def test_unphysical_bloch_rejected(self):
        # reconstructs a = d = 0 with r = 1/2: coherence without support
        with pytest.raises(InvalidStateError):
            check_xstate(bloch_params(BlochX(0.0, 0.0, 1.0, -1.0, -1.0)))

    @pytest.mark.parametrize(
        "b, rows",
        [
            (BlochX(1.0 + 1.1e-12, 0.0, 0.0, 0.0, 0.0), [("coefficient_range", (1.0 + 1.1e-12) - 1.0)]),
            (BlochX(0.0, 0.0, 1.0, -1.0, -1.0), [("r_coherence_bound", 0.5)]),
            (BlochX(np.nan, 0, 0, 0, 0), [("finite_values", np.inf)]),
        ],
        ids=["coefficient-past-one", "coherence-without-support", "nan"],
    )
    def test_rejects_what_validate_bloch_reports(self, b, rows):
        # t30 = 1 + 1.1e-12 reconstructs c = d = -2.75e-13, inside the X
        # tolerances, yet lies past the coefficient range.  A Bloch document
        # is read by bloch_params and checked once, by check_xstate, whose
        # report xstate_report returns.
        p = bloch_params(b)
        with pytest.raises(InvalidStateError) as err:
            check_xstate(p)
        assert err.value.report.violations == tuple((name, pytest.approx(m, rel=1e-3)) for name, m in rows)
        assert err.value.report == xstate_report(p)


class TestMatrixForm:
    def test_maximally_mixed_matrix(self):
        np.testing.assert_allclose(xstate_matrix(MIXED), np.eye(4) / 4.0)

    def test_bell_state_is_projector(self):
        rho = xstate_matrix(BELL_PHI_PLUS)
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-14)

    def test_mems_literal_matrix(self):
        # chi = x/2 = 0.4 on the upper branch
        rho = xstate_matrix(make_state(FamilySpec("mems", 0.8)))
        expected = 0.5 * np.array(
            [
                [0.8, 0, 0, 0.8],
                [0, 2 - 1.6, 0, 0],
                [0, 0, 0, 0],
                [0.8, 0, 0, 0.8],
            ]
        )
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_invalid_input_rejected_with_report(self):
        # xstate_matrix builds the matrix unchecked; check_xstate is the check
        with pytest.raises(InvalidStateError) as err:
            check_xstate(XStateParams(0.5, 0.0, 0.0, 0.5, 0.6, 0.0))
        assert err.value.report is not None and not err.value.report.valid

    def test_matrix_invariants_hold_for_random_states(self, rng):
        for _ in range(1000):
            rho = xstate_matrix(random_xstate(rng))
            assert validate_density_matrix(rho).valid

    @settings(max_examples=1000)
    @given(
        weights=st.tuples(*[st.floats(0.0, 1.0)] * 4),
        zeros=st.tuples(*[st.booleans()] * 4),
        fractions=st.tuples(*[st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)] * 2),
        signs=st.tuples(*[st.sampled_from((1.0, -1.0))] * 2),
        nudges=st.tuples(*[st.floats(-1e-12, 1e-12)] * 7),
    )
    @example(weights=(0.0, 0.0, 1.0, 0.5), zeros=(False,) * 4, fractions=(0.0, 0.0), signs=(1.0, 1.0),
             nudges=(0.0, 0.0, 0.0, 0.0, 1e-12, 0.0, 0.0))
    @example(weights=(1.0,) * 4, zeros=(False, True, True, False), fractions=(1.0, 1.0), signs=(1.0, 1.0),
             nudges=(-1e-12, -1e-12, -1e-12, -1e-12, 1e-12, 1e-12, 1e-12))
    @example(weights=(1.0,) * 4, zeros=(True, False, False, True), fractions=(1.0, 1.0), signs=(-1.0, -1.0),
             nudges=(-1e-12, -1e-12, -1e-12, -1e-12, 1e-12, 1e-12, -1e-12))
    @example(weights=(1.0, 1e-300, 1e-300, 1.0), zeros=(False,) * 4, fractions=(1.0, 1.0), signs=(1.0, -1.0),
             nudges=(0.0, 0.0, 0.0, 0.0, 1e-12, 1e-12, 1e-12))
    def test_every_accepted_state_is_a_density_matrix(self, weights, zeros, fractions, signs, nudges):
        # rqcx oracle checks its state once, with check_xstate, and builds the
        # oracle's matrix unchecked, so every state check_xstate accepts must
        # be a density matrix: Hermitian, positive semidefinite within EIG_TOL
        # (validate_density_matrix's eigvalsh test), and of unit trace.  Both
        # checks sum the trace ((a + b) + c) + d, so a drift at STRUCT_TOL reads
        # the same in each (the first @example: summed (a + b) + (c + d), it
        # reads a few ulps past).  The draws sit at the edges of check_xstate's
        # tolerance: zero weights moved by up to 1e-12 either way, the trace
        # moved by up to 1e-12 and coherences at or up to 1e-12 past their
        # bounds
        w = np.where(zeros, 0.0, weights)
        w = w / w.sum() if w.sum() > 0.0 else np.full(4, 0.25)
        a, b, c, d = (nudge if zero else float(v) for v, zero, nudge in zip(w, zeros, nudges))
        a += nudges[4]  # the trace
        r = signs[0] * fractions[0] * math.sqrt(max(a, 0.0) * max(d, 0.0)) + nudges[5]
        s = signs[1] * fractions[1] * math.sqrt(max(b, 0.0) * max(c, 0.0)) + nudges[6]
        p = XStateParams(a, b, c, d, r, s)
        try:
            check_xstate(p)
        except InvalidStateError:
            return  # rqcx oracle exits 1 on it, with check_xstate's line
        rho = xstate_matrix(p)
        assert validate_density_matrix(rho).violations == ()
        assert np.linalg.eigvalsh(rho).min() >= -EIG_TOL

    def test_matrix_round_trip(self, rng):
        for _ in range(100):
            p = random_xstate(rng)
            q = matrix_params(xstate_matrix(p))
            assert q == p

    def test_non_x_matrix_rejected(self, rng):
        with pytest.raises(InvalidStateError):
            matrix_params(random_density_matrix(rng))

    @pytest.mark.parametrize(
        "entry, value",
        [((3, 0), 0.0), ((3, 0), 0.25 + 1.1e-12), ((0, 0), 0.25 + 0.3j), ((1, 2), 0.1j)],
        ids=["one-sided-r", "r-past-tol", "complex-diagonal", "imaginary-s"],
    )
    def test_non_hermitian_matrix_rejected(self, entry, value):
        # matrix_params applies validate_density_matrix's Hermiticity test
        rho = xstate_matrix(XStateParams(0.25, 0.25, 0.25, 0.25, 0.25, 0.0))
        near = rho.copy()
        rho[entry] = value
        with pytest.raises(InvalidStateError, match="not Hermitian") as err:
            matrix_params(rho)
        assert err.value.report.violations == validate_density_matrix(rho).violations[:1]
        # inside the tolerance the matrix is still accepted
        near[entry] += 0.4e-12j
        matrix_params(near)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 3), (0, 1)], ids=["diagonal", "x-coherence", "off-x"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entry_rejected(self, entry, value):
        rho = xstate_matrix(MIXED)
        rho[entry] = value
        report = validate_density_matrix(rho)
        assert report.violations == (("finite_values", np.inf),)
        for check in (require_density_matrix, matrix_params):
            with pytest.raises(InvalidStateError) as err:
                check(rho)
            assert err.value.report == report


class TestFano:
    def test_maximally_mixed_table(self):
        table = fano_coefficients(np.eye(4) / 4.0)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(table, expected, atol=1e-15)

    def test_bell_state_signature(self):
        table = fano_coefficients(xstate_matrix(BELL_PHI_PLUS))
        assert table[1, 1] == pytest.approx(1.0, abs=1e-14)
        assert table[2, 2] == pytest.approx(-1.0, abs=1e-14)
        assert table[3, 3] == pytest.approx(1.0, abs=1e-14)

    def test_agrees_with_xstate_path(self, rng):
        # check_xstate's linear map and the Fano table, each against the Pauli traces
        for _ in range(200):
            p = random_xstate(rng)
            rho = xstate_matrix(p)
            want = bloch_from_matrix(rho)
            table = fano_coefficients(rho)
            slots = BlochX(table[3, 0], table[0, 3], table[1, 1], table[2, 2], table[3, 3])
            for b in (bloch(p), slots):
                for field in ("t30", "t03", "t11", "t22", "t33"):
                    assert abs(getattr(b, field) - getattr(want, field)) < 1e-13

    def test_only_x_slots_populated(self, rng):
        mask = np.zeros((4, 4), dtype=bool)
        for mu, nu in ((0, 0), (3, 0), (0, 3), (1, 1), (2, 2), (3, 3)):
            mask[mu, nu] = True
        for _ in range(50):
            table = fano_coefficients(xstate_matrix(random_xstate(rng)))
            assert np.max(np.abs(table[~mask])) < 1e-12


class TestIsClassical:
    """A classical (diagonal) state has t11 = t22 = 0: its laqc and qs vanish, its cs need not."""

    def test_diagonal_correlated_state(self):
        ms = measure_set(bloch_params(BlochX(0.2, -0.2, 0.0, 0.0, 0.5)))
        assert ms.laqc == ms.qs == ms.concurrence == 0.0
        assert ms.cs > 0.1

    def test_werner_is_not_classical(self):
        b = bloch(make_state(FamilySpec("werner", 0.5)))
        assert min(abs(b.t11), abs(b.t22)) > 0.1
        assert measure_set(bloch_params(b)).laqc > 0.1

    def test_fully_dephased_state_is_classical(self, rng):
        # the Kraus channel at Lambda = 0 keeps only the diagonal
        for _ in range(20):
            out = apply_common_bath(xstate_matrix(random_xstate(rng)), 0.0)
            d = bloch_from_matrix(out)
            assert abs(d.t11) <= 1e-12 and abs(d.t22) <= 1e-12
            assert measure_set(matrix_params(out)).laqc == 0.0
