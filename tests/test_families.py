import numpy as np
import pytest

from reference import family_concurrence, family_laqc, u, werner_concurrence_dephased

from rqcx.families import FamilySpec, crossover_z, make_state, mems_chi
from rqcx.measures import _StateMeasures, measure_set
from rqcx.states import XStateParams, xstate_report


class TestGenerators:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            FamilySpec("ghz", 0.5)

    def test_out_of_range_param_rejected(self):
        with pytest.raises(ValueError):
            FamilySpec("werner", 1.2)

    def test_werner_zero_is_maximally_mixed(self):
        st = make_state(FamilySpec("werner", 0.0))
        assert st == XStateParams(0.25, 0.25, 0.25, 0.25, 0.0, 0.0)

    def test_mnms_one_is_bell_state(self):
        assert make_state(FamilySpec("mnms", 1.0)) == XStateParams(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)

    def test_mems_chi_branches_meet(self):
        x = 2.0 / 3.0
        assert mems_chi(x - 1e-12) == pytest.approx(mems_chi(x), abs=1e-12)
        assert mems_chi(x) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_every_generated_state_is_valid(self):
        for kind in ("werner", "mnms", "mems"):
            for p in np.linspace(0.0, 1.0, 200):
                assert xstate_report(make_state(FamilySpec(kind, float(p)))).valid


class TestClosedForms:
    def test_laqc_against_generic_on_grids(self):
        for kind in ("werner", "mnms", "mems"):
            for p in np.linspace(0.0, 1.0, 200):
                spec = FamilySpec(kind, float(p))
                got = measure_set(make_state(spec)).laqc
                assert abs(got - family_laqc(float(p))) < 1e-13

    def test_concurrence_against_generic_on_grids(self):
        for kind in ("werner", "mnms", "mems"):
            for p in np.linspace(0.0, 1.0, 200):
                spec = FamilySpec(kind, float(p))
                got = measure_set(make_state(spec)).concurrence
                assert abs(got - family_concurrence(kind, float(p))) < 1e-13

    def test_spot_values(self):
        # the references and the library both give the known values (None: not pinned)
        spots = [("werner", 1.0, 1.0, 1.0), ("werner", 1.0 / 3.0, None, 0.0), ("mnms", 0.5, 0.18872187554086717, 0.5),
                 ("mems", 0.0, 0.0, 0.0), ("mems", 0.8, None, 0.8)]
        for kind, x, laqc, concurrence in spots:
            ms = measure_set(make_state(FamilySpec(kind, x)))
            if laqc is not None:
                assert family_laqc(x) == pytest.approx(laqc, abs=1e-15)
                assert ms.laqc == pytest.approx(laqc, abs=1e-15)
            assert family_concurrence(kind, x) == pytest.approx(concurrence, abs=1e-15)
            assert ms.concurrence == pytest.approx(concurrence, abs=1e-15)


class TestWernerUnderDephasing:
    @staticmethod
    def _concurrence(z, lam):
        return float(_StateMeasures(make_state(FamilySpec("werner", z)))(np.array([lam]))["concurrence"][0])

    def test_reduces_to_static_form_at_unity(self):
        for z in np.linspace(0.0, 1.0, 50):
            assert werner_concurrence_dephased(float(z), 1.0) == pytest.approx(
                family_concurrence("werner", float(z)), abs=1e-15
            )
            assert self._concurrence(float(z), 1.0) == pytest.approx(family_concurrence("werner", float(z)), abs=1e-15)

    def test_fully_dephased_is_separable(self):
        for z in np.linspace(0.0, 1.0, 50):
            assert werner_concurrence_dephased(float(z), 0.0) == 0.0
            assert self._concurrence(float(z), 0.0) == 0.0

    def test_direct_value(self):
        assert werner_concurrence_dephased(2.0 / 3.0, np.sqrt(0.5)) == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert self._concurrence(2.0 / 3.0, np.sqrt(0.5)) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_matches_evolved_state_on_grid(self):
        lams = np.linspace(-1.0, 1.0, 21)
        for z in np.linspace(0.0, 1.0, 40):
            evolved = _StateMeasures(make_state(FamilySpec("werner", float(z))))(lams)["concurrence"]
            for lam, conc in zip(lams, evolved):
                assert abs(conc - werner_concurrence_dephased(float(z), float(lam))) < 1e-13


class TestCrossover:
    def test_residual_vanishes(self):
        z = crossover_z()
        assert abs(0.5 * u(z) - 0.5 * (3.0 * z - 1.0)) < 1e-9

    def test_value(self):
        assert crossover_z() == pytest.approx(0.421499471, abs=1e-6)

    def test_bracketing_signs(self):
        assert 0.5 * u(0.40) > 0.5 * (3 * 0.40 - 1.0)
        assert 0.5 * u(0.45) < 0.5 * (3 * 0.45 - 1.0)


class TestOrderings:
    def test_mnms_mems_concurrence_dominates_laqc(self):
        for kind in ("mnms", "mems"):
            for p in np.linspace(0.0, 1.0, 200):
                spec = FamilySpec(kind, float(p))
                ms = measure_set(make_state(spec))
                assert ms.concurrence >= ms.laqc - 1e-12

    def test_werner_ordering_flips_at_crossover(self):
        # strict ordering on each side of z*; both measures meet again at z = 1
        z_star = crossover_z()
        for z in np.linspace(0.05, 0.999, 100):
            ms = measure_set(make_state(FamilySpec("werner", float(z))))
            if z < z_star - 1e-6:
                assert ms.laqc > ms.concurrence
            elif z > z_star + 1e-6:
                assert ms.laqc < ms.concurrence
