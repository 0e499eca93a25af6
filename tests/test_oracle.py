import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density_matrix, random_xstate
from rqcx import kernels
from rqcx.families import FamilySpec, make_state
from rqcx.measures import cs, laqc, measure_set, qs, u_func
from rqcx.oracle import (
    GRID_MAX,
    LocalMeasurement,
    _fano_parts,
    _grid_directions,
    _grid_stage,
    basis_vectors,
    classical_mutual_info,
    complementary_basis,
    laqc_oracle,
    optimize_cmi,
    post_measurement_probs,
    qs_oracle,
)
from rqcx.states import XStateParams, xstate_to_bloch, xstate_to_matrix

MIXED = np.eye(4) / 4.0
BELL = xstate_to_matrix(XStateParams(0.5, 0.0, 0.0, 0.5, 0.5, 0.0))
Z_BASIS_BOTH = LocalMeasurement(0.0, 0.0, 0.0, 0.0)


class TestProbabilities:
    def test_maximally_mixed_uniform(self, rng):
        for _ in range(10):
            m = LocalMeasurement(*rng.uniform(0, np.pi, 4))
            table = post_measurement_probs(MIXED, m)
            np.testing.assert_allclose(list(table), [0.25] * 4, atol=1e-12)

    def test_bell_correlations_in_z(self):
        table = post_measurement_probs(BELL, Z_BASIS_BOTH)
        assert table.p00 == pytest.approx(0.5, abs=1e-12)
        assert table.p11 == pytest.approx(0.5, abs=1e-12)
        assert table.p01 == pytest.approx(0.0, abs=1e-12)
        assert table.p10 == pytest.approx(0.0, abs=1e-12)

    def test_werner_z_basis(self):
        rho = xstate_to_matrix(make_state(FamilySpec("werner", 0.5)))
        table = post_measurement_probs(rho, Z_BASIS_BOTH)
        assert table.p01 == pytest.approx(0.375, abs=1e-12)
        assert table.p10 == pytest.approx(0.375, abs=1e-12)
        assert table.p00 == pytest.approx(0.125, abs=1e-12)
        assert table.p11 == pytest.approx(0.125, abs=1e-12)

    def test_tables_normalized_on_random_settings(self, rng):
        for _ in range(100):
            rho = random_density_matrix(rng)
            m = LocalMeasurement(
                rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi),
                rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi),
            )
            table = post_measurement_probs(rho, m)
            assert min(table) >= 0.0
            assert sum(table) == pytest.approx(1.0, abs=1e-12)


class TestClassicalMutualInfo:
    def test_uniform_is_zero(self):
        assert classical_mutual_info([0.25, 0.25, 0.25, 0.25]) == 0.0

    def test_perfect_bit(self):
        assert classical_mutual_info([0.5, 0.0, 0.0, 0.5]) == pytest.approx(1.0, abs=1e-15)

    def test_werner_value(self):
        got = classical_mutual_info([0.125, 0.375, 0.375, 0.125])
        h = -0.25 * np.log2(0.25) - 0.75 * np.log2(0.75)
        assert got == pytest.approx(1.0 - h, abs=1e-14)
        assert got == pytest.approx(0.5 * u_func(0.5), abs=1e-14)


class TestComplementaryBases:
    def test_phase_zero_gives_x_basis(self):
        comp = complementary_basis(np.eye(2, dtype=complex), 0.0)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert abs(abs(np.vdot(comp[:, 0], plus)) - 1.0) < 1e-12

    def test_phase_half_pi_gives_y_basis(self):
        comp = complementary_basis(np.eye(2, dtype=complex), np.pi / 2.0)
        y_plus = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        assert abs(abs(np.vdot(comp[:, 0], y_plus)) - 1.0) < 1e-12

    def test_mub_property_random(self, rng):
        for _ in range(100):
            base = basis_vectors(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            comp = complementary_basis(base, rng.uniform(0, 2 * np.pi))
            for i in range(2):
                for j in range(2):
                    overlap = abs(np.vdot(base[:, i], comp[:, j])) ** 2
                    assert overlap == pytest.approx(0.5, abs=1e-12)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError):
            complementary_basis(np.array([[1.0, 1.0], [0.0, 0.0]]), 0.0)


class TestOptimizeCmi:
    def test_maximally_mixed_max_is_zero(self):
        assert optimize_cmi(MIXED, "max").value < 1e-9

    def test_werner_max_matches_cs(self):
        st = make_state(FamilySpec("werner", 0.5))
        res = optimize_cmi(xstate_to_matrix(st), "max")
        assert res.value == pytest.approx(cs(xstate_to_bloch(st)), abs=1e-3)

    def test_mems_origin_max(self):
        st = make_state(FamilySpec("mems", 0.0))
        res = optimize_cmi(xstate_to_matrix(st), "max")
        assert res.value == pytest.approx(0.25162916738782265, abs=1e-3)

    def test_bounds_sampled_settings(self, rng):
        # the refined extrema bound samples up to the optimizer's own accuracy
        rho = xstate_to_matrix(random_xstate(rng))
        lo = optimize_cmi(rho, "min").value
        hi = optimize_cmi(rho, "max").value
        for _ in range(100):
            m = LocalMeasurement(
                rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi),
                rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi),
            )
            val = classical_mutual_info(post_measurement_probs(rho, m))
            assert lo - 1e-9 <= val <= hi + 2e-3

    def test_setting_reproduces_value(self):
        rho = xstate_to_matrix(make_state(FamilySpec("mems", 0.4)))
        res = optimize_cmi(rho, "max")
        val = classical_mutual_info(post_measurement_probs(rho, res.setting))
        assert val == pytest.approx(res.value, abs=1e-10)

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            optimize_cmi(MIXED, "max", grid=4)

    def test_grid_ceiling(self):
        with pytest.raises(ValueError, match="at most"):
            optimize_cmi(MIXED, "max", grid=GRID_MAX + 1)

    @pytest.mark.parametrize(
        "search",
        [lambda rho, r: optimize_cmi(rho, "max", 8, r), lambda rho, r: laqc_oracle(rho, 8, r),
         lambda rho, r: qs_oracle(rho, 8, r)],
        ids=["optimize_cmi", "laqc_oracle", "qs_oracle"],
    )
    def test_negative_refine_rejected(self, search):
        with pytest.raises(ValueError, match="refine"):
            search(MIXED, -1)
        assert search(MIXED, 0).refinement_depth == 0

    def test_deterministic(self):
        rho = xstate_to_matrix(make_state(FamilySpec("mnms", 0.3)))
        r1 = optimize_cmi(rho, "max")
        r2 = optimize_cmi(rho, "max")
        assert r1 == r2


def _full_sphere_leader(parts, grid, sign):
    """First tied leader of the full grid x grid sphere scan, every direction repeated as it falls."""
    ra, rb, tt = parts
    thetas = np.linspace(0.0, np.pi, grid)
    phis = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    t, p = np.repeat(thetas, grid), np.tile(phis, grid)
    n = np.column_stack((np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)))
    flat = (sign * kernels.cmi_table(n @ ra, n @ rb, n @ tt @ n.T)).ravel()
    k = int(np.flatnonzero(flat >= flat.max() - 1e-9)[0])
    ia, ib = divmod(k, n.shape[0])
    return np.array([t[ia], p[ia], t[ib], p[ib]]), sign * float(flat[k])


class TestGridStage:
    def test_distinct_directions_at_grid_32(self):
        dirs, _, _ = _grid_directions(32)
        assert dirs.shape == (481, 3)
        overlap = np.abs(dirs @ dirs.T)
        np.fill_diagonal(overlap, 0.0)
        # |n_i . n_j| = 1 would mean equal or antipodal directions
        assert overlap.max() < 1.0 - 1e-6

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_full_sphere_scan(self, rng, sign):
        rhos = [xstate_to_matrix(make_state(FamilySpec(kind, x)))
                for kind, x in (("werner", 0.5), ("mnms", 0.3), ("mems", 0.4))]
        rhos += [xstate_to_matrix(random_xstate(rng)), random_density_matrix(rng)]
        for rho in rhos:
            parts = _fano_parts(rho)
            angles, value = _grid_stage(parts, 32, sign)[0]
            full_angles, full_value = _full_sphere_leader(parts, 32, sign)
            assert value == pytest.approx(full_value, abs=1e-12)
            np.testing.assert_array_equal(angles, full_angles)


_unit = st.floats(0.0, 1.0)


@settings(max_examples=200)
@given(
    weights=st.tuples(_unit, _unit, _unit, _unit).filter(lambda w: sum(w) > 1e-3),
    coherences=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    angles=st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi),
                     st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi)),
)
def test_cmi_unchanged_by_flipping_a_direction(weights, coherences, angles):
    # n -> -n is (theta, phi) -> (pi - theta, phi + pi); the grid scan keeps one of each pair
    a, b, c, d = (v / sum(weights) for v in weights)
    r, s = coherences[0] * np.sqrt(a * d), coherences[1] * np.sqrt(b * c)
    rho = xstate_to_matrix(XStateParams(a, b, c, d, r, s))
    ta, pa, tb, pb = angles
    value = classical_mutual_info(post_measurement_probs(rho, LocalMeasurement(ta, pa, tb, pb)))
    flip_a = LocalMeasurement(np.pi - ta, pa + np.pi, tb, pb)
    flip_b = LocalMeasurement(ta, pa, np.pi - tb, pb + np.pi)
    for m in (flip_a, flip_b):
        assert classical_mutual_info(post_measurement_probs(rho, m)) == pytest.approx(value, abs=1e-12)


class TestLaqcOracle:
    def test_werner(self):
        st = make_state(FamilySpec("werner", 0.5))
        res = laqc_oracle(xstate_to_matrix(st))
        assert res.value == pytest.approx(0.18872187554086717, abs=1e-3)

    def test_diagonal_state_yields_zero(self):
        rho = xstate_to_matrix(XStateParams(0.4, 0.1, 0.2, 0.3, 0.0, 0.0))
        assert laqc_oracle(rho).value < 1e-6

    def test_mems_large_x(self):
        st = make_state(FamilySpec("mems", 0.9))
        res = laqc_oracle(xstate_to_matrix(st))
        assert res.value == pytest.approx(0.5 * u_func(0.9), abs=1e-3)

    def test_mub_setting_returned(self):
        from rqcx.oracle import ComplementarySetting

        res = laqc_oracle(BELL)
        assert isinstance(res.setting, ComplementarySetting)
        assert res.value == pytest.approx(1.0, abs=1e-6)


class TestQsOracle:
    def test_werner_equals_cs_oracle(self):
        rho = xstate_to_matrix(make_state(FamilySpec("werner", 0.5)))
        assert qs_oracle(rho).value == pytest.approx(
            optimize_cmi(rho, "max").value, abs=1e-6
        )

    def test_mems_small_x(self):
        rho = xstate_to_matrix(make_state(FamilySpec("mems", 0.1)))
        assert qs_oracle(rho).value == pytest.approx(0.5 * u_func(0.1), abs=1e-3)

    def test_maximally_mixed(self):
        assert qs_oracle(MIXED).value < 1e-9

    def test_dominated_by_laqc_on_random_states(self, rng):
        for _ in range(5):
            rho = xstate_to_matrix(random_xstate(rng))
            assert laqc_oracle(rho).value >= qs_oracle(rho).value - 2e-3


def test_oracles_match_closed_forms_on_random_states(rng):
    for _ in range(5):
        st = random_xstate(rng)
        rho = xstate_to_matrix(st)
        ms = measure_set(st)
        assert laqc_oracle(rho).value == pytest.approx(ms.laqc, abs=2e-3)
        assert qs_oracle(rho).value == pytest.approx(ms.qs, abs=2e-3)
        assert optimize_cmi(rho, "max").value == pytest.approx(ms.cs, abs=2e-3)
