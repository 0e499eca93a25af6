import numpy as np
import pytest

from conftest import random_density_matrix, random_xstate
from rqcx.families import FamilySpec, make_state
from rqcx.measures import measure_set
from rqcx.states import (
    BlochX,
    InvalidStateError,
    XStateParams,
    bloch_from_matrix,
    bloch_to_xstate,
    fano_coefficients,
    matrix_to_xstate,
    require_density_matrix,
    validate_bloch,
    validate_density_matrix,
    validate_xstate,
    xstate_to_bloch,
    xstate_to_matrix,
)

MIXED = XStateParams(0.25, 0.25, 0.25, 0.25, 0.0, 0.0)
BELL_PHI_PLUS = XStateParams(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)


class TestValidation:
    def test_maximally_mixed_is_valid(self):
        assert validate_xstate(MIXED).valid

    def test_coherence_bound_violation_reported(self):
        report = validate_xstate(XStateParams(0.5, 0.0, 0.0, 0.5, 0.6, 0.0))
        assert not report.valid
        names = [name for name, _ in report.violations]
        assert "r_coherence_bound" in names
        mag = dict(report.violations)["r_coherence_bound"]
        assert mag == pytest.approx(0.1, abs=1e-12)

    def test_werner_half_is_valid(self):
        assert validate_xstate(make_state(FamilySpec("werner", 0.5))).valid

    def test_trace_violation_reported(self):
        report = validate_xstate(XStateParams(0.5, 0.5, 0.5, 0.5, 0.0, 0.0))
        assert ("unit_trace", 1.0) in [(n, pytest.approx(m)) for n, m in report.violations]

    def test_nan_rejected(self):
        assert not validate_xstate(XStateParams(float("nan"), 0.5, 0.25, 0.25, 0, 0)).valid


class TestBlochConversion:
    def test_maximally_mixed_maps_to_zero(self):
        b = xstate_to_bloch(MIXED)
        assert b == BlochX(0.0, 0.0, 0.0, 0.0, 0.0)

    def test_mnms_bloch_pattern(self):
        for x in (0.2, 0.5, 1.0):
            b = xstate_to_bloch(make_state(FamilySpec("mnms", x)))
            assert b.t30 == pytest.approx(0.0, abs=1e-15)
            assert b.t03 == pytest.approx(0.0, abs=1e-15)
            assert b.t11 == pytest.approx(x, abs=1e-15)
            assert b.t22 == pytest.approx(-x, abs=1e-15)
            assert b.t33 == pytest.approx(1.0, abs=1e-15)

    def test_mems_antisymmetric_local_coefficients(self):
        from rqcx.families import mems_chi

        for x in (0.0, 0.3, 2.0 / 3.0, 0.9):
            b = xstate_to_bloch(make_state(FamilySpec("mems", x)))
            assert b.t30 == pytest.approx(1.0 - 2.0 * mems_chi(x), abs=1e-15)
            assert b.t03 == pytest.approx(-b.t30, abs=1e-15)

    def test_werner_canonical_bloch(self):
        z = 0.5
        p = bloch_to_xstate(BlochX(0.0, 0.0, -z, -z, -z))
        w = make_state(FamilySpec("werner", z))
        for field in ("a", "b", "c", "d", "r", "s"):
            assert getattr(p, field) == pytest.approx(getattr(w, field), abs=1e-15)

    def test_round_trip_10k(self, rng):
        worst = 0.0
        for _ in range(10_000):
            p = random_xstate(rng)
            q = bloch_to_xstate(xstate_to_bloch(p))
            worst = max(
                worst,
                max(abs(getattr(p, f) - getattr(q, f)) for f in ("a", "b", "c", "d", "r", "s")),
            )
        assert worst < 1e-14

    def test_unphysical_bloch_rejected(self):
        # reconstructs a = d = 0 with r = 1/2: coherence without support
        with pytest.raises(InvalidStateError):
            bloch_to_xstate(BlochX(0.0, 0.0, 1.0, -1.0, -1.0))

    @pytest.mark.parametrize(
        "b",
        [BlochX(1.0 + 1.1e-12, 0.0, 0.0, 0.0, 0.0), BlochX(0.0, 0.0, 1.0, -1.0, -1.0), BlochX(np.nan, 0, 0, 0, 0)],
        ids=["coefficient-past-one", "coherence-without-support", "nan"],
    )
    def test_rejects_what_validate_bloch_reports(self, b):
        # t30 = 1 + 1.1e-12 reconstructs c = d = -2.75e-13, inside the X
        # tolerances, yet lies past the coefficient range
        report = validate_bloch(b)
        assert not report.valid
        with pytest.raises(InvalidStateError) as err:
            bloch_to_xstate(b)
        assert err.value.report == report


class TestMatrixForm:
    def test_maximally_mixed_matrix(self):
        np.testing.assert_allclose(xstate_to_matrix(MIXED), np.eye(4) / 4.0)

    def test_bell_state_is_projector(self):
        rho = xstate_to_matrix(BELL_PHI_PLUS)
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-14)

    def test_mems_literal_matrix(self):
        # chi = x/2 = 0.4 on the upper branch
        rho = xstate_to_matrix(make_state(FamilySpec("mems", 0.8)))
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
        with pytest.raises(InvalidStateError) as err:
            xstate_to_matrix(XStateParams(0.5, 0.0, 0.0, 0.5, 0.6, 0.0))
        assert err.value.report is not None and not err.value.report.valid

    def test_matrix_invariants_hold_for_random_states(self, rng):
        for _ in range(1000):
            rho = xstate_to_matrix(random_xstate(rng))
            assert validate_density_matrix(rho).valid

    def test_matrix_round_trip(self, rng):
        for _ in range(100):
            p = random_xstate(rng)
            q = matrix_to_xstate(xstate_to_matrix(p))
            assert q == p

    def test_non_x_matrix_rejected(self, rng):
        with pytest.raises(InvalidStateError):
            matrix_to_xstate(random_density_matrix(rng))

    @pytest.mark.parametrize(
        "entry, value",
        [((3, 0), 0.0), ((3, 0), 0.25 + 1.1e-12), ((0, 0), 0.25 + 0.3j), ((1, 2), 0.1j)],
        ids=["one-sided-r", "r-past-tol", "complex-diagonal", "imaginary-s"],
    )
    def test_non_hermitian_matrix_rejected(self, entry, value):
        # matrix_to_xstate applies validate_density_matrix's Hermiticity test
        rho = xstate_to_matrix(XStateParams(0.25, 0.25, 0.25, 0.25, 0.25, 0.0))
        near = rho.copy()
        rho[entry] = value
        with pytest.raises(InvalidStateError, match="not Hermitian") as err:
            matrix_to_xstate(rho)
        assert err.value.report.violations == validate_density_matrix(rho).violations[:1]
        # inside the tolerance the matrix is still accepted
        near[entry] += 0.4e-12j
        matrix_to_xstate(near)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 3), (0, 1)], ids=["diagonal", "x-coherence", "off-x"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entry_rejected(self, entry, value):
        rho = xstate_to_matrix(MIXED)
        rho[entry] = value
        report = validate_density_matrix(rho)
        assert report.violations == (("finite_values", np.inf),)
        for check in (require_density_matrix, matrix_to_xstate):
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
        table = fano_coefficients(xstate_to_matrix(BELL_PHI_PLUS))
        assert table[1, 1] == pytest.approx(1.0, abs=1e-14)
        assert table[2, 2] == pytest.approx(-1.0, abs=1e-14)
        assert table[3, 3] == pytest.approx(1.0, abs=1e-14)

    def test_agrees_with_xstate_path(self, rng):
        for _ in range(200):
            p = random_xstate(rng)
            b = xstate_to_bloch(p)
            m = bloch_from_matrix(xstate_to_matrix(p))
            for field in ("t30", "t03", "t11", "t22", "t33"):
                assert abs(getattr(b, field) - getattr(m, field)) < 1e-13

    def test_only_x_slots_populated(self, rng):
        mask = np.zeros((4, 4), dtype=bool)
        for mu, nu in ((0, 0), (3, 0), (0, 3), (1, 1), (2, 2), (3, 3)):
            mask[mu, nu] = True
        for _ in range(50):
            table = fano_coefficients(xstate_to_matrix(random_xstate(rng)))
            assert np.max(np.abs(table[~mask])) < 1e-12


class TestIsClassical:
    """A classical (diagonal) state has t11 = t22 = 0: its laqc and qs vanish, its cs need not."""

    def test_diagonal_correlated_state(self):
        ms = measure_set(bloch_to_xstate(BlochX(0.2, -0.2, 0.0, 0.0, 0.5)))
        assert ms.laqc == ms.qs == ms.concurrence == 0.0
        assert ms.cs > 0.1

    def test_werner_is_not_classical(self):
        b = xstate_to_bloch(make_state(FamilySpec("werner", 0.5)))
        assert min(abs(b.t11), abs(b.t22)) > 0.1
        assert measure_set(bloch_to_xstate(b)).laqc > 0.1

    def test_fully_dephased_state_is_classical(self, rng):
        from rqcx.noise import evolve_bloch

        for _ in range(20):
            b = xstate_to_bloch(random_xstate(rng))
            d = evolve_bloch(b, 0.0)
            assert abs(d.t11) <= 1e-12 and abs(d.t22) <= 1e-12
            assert measure_set(bloch_to_xstate(d)).laqc == 0.0
