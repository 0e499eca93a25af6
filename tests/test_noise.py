import numpy as np
import pytest

from conftest import random_xstate
from rqcx.noise import (
    Markov,
    Moun,
    Rtn,
    apply_common_bath,
    evolve_bloch,
    kraus_pair,
    lambda_of_t,
    lambda_zeros,
)
from rqcx.states import (
    bloch_from_matrix,
    validate_density_matrix,
    xstate_to_bloch,
    xstate_to_matrix,
)

RTN4 = Rtn(4.0)


class TestModels:
    def test_rtn_omega(self):
        assert RTN4.omega == pytest.approx(3.0 * np.sqrt(7.0), abs=1e-12)

    def test_rtn_overdamped_rejected(self):
        with pytest.raises(ValueError):
            Rtn(0.4)

    def test_nonpositive_rates_rejected(self):
        for bad in (Moun, Markov):
            with pytest.raises(ValueError):
                bad(0.0)

    @pytest.mark.parametrize("model", [Rtn, Moun, Markov])
    @pytest.mark.parametrize("rate", [np.inf, np.nan])
    def test_nonfinite_rates_rejected(self, model, rate):
        with pytest.raises(ValueError, match="finite"):
            model(rate)


class TestEnvelope:
    def test_unity_at_time_zero(self):
        for model in (RTN4, Moun(1.0), Markov(1.0)):
            assert lambda_of_t(model, 0.0) == 1.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            lambda_of_t(RTN4, -0.1)

    @pytest.mark.parametrize("t", [np.nan, np.inf, [0.0, np.nan]])
    def test_nonfinite_time_rejected(self, t):
        with pytest.raises(ValueError, match="time must be finite and nonnegative"):
            lambda_of_t(RTN4, t)

    def test_rtn_first_zero(self):
        w = RTN4.omega
        t1 = (np.pi - np.arctan(w)) / w
        assert t1 == pytest.approx(0.21369, abs=1e-5)
        assert abs(lambda_of_t(RTN4, t1)) < 1e-12

    def test_moun_positive_and_decreasing(self):
        grid = np.linspace(0.0, 50.0, 4000)
        lam = lambda_of_t(Moun(1.0), grid)
        assert np.all(lam > 0.0)
        assert np.all(np.diff(lam) < 0.0)

    def test_bounded_by_one(self):
        grid = np.linspace(0.0, 50.0, 20000)
        assert np.max(np.abs(lambda_of_t(RTN4, grid))) <= 1.0 + 1e-12
        lam_moun = lambda_of_t(Moun(1.0), grid)
        assert np.all((lam_moun > 0.0) & (lam_moun <= 1.0))


class TestKraus:
    @pytest.mark.parametrize("lam", [1.0, 0.5, 0.0, -0.5, -1.0])
    def test_completeness(self, lam):
        k0, k1 = kraus_pair(lam)
        np.testing.assert_allclose(
            k0.conj().T @ k0 + k1.conj().T @ k1, np.eye(2), atol=1e-12
        )

    def test_identity_channel(self):
        k0, k1 = kraus_pair(1.0)
        np.testing.assert_allclose(k0, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(k1, np.zeros((2, 2)), atol=1e-15)

    def test_pure_sigma_z_at_minus_one(self):
        k0, k1 = kraus_pair(-1.0)
        np.testing.assert_allclose(k0, np.zeros((2, 2)), atol=1e-15)
        np.testing.assert_allclose(k1, np.diag([1.0, -1.0]), atol=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            kraus_pair(1.1)


class TestChannel:
    def test_identity_at_lambda_one(self, rng):
        rho = xstate_to_matrix(random_xstate(rng))
        np.testing.assert_allclose(apply_common_bath(rho, 1.0), rho, atol=1e-15)

    def test_full_dephasing_keeps_diagonal(self, rng):
        rho = xstate_to_matrix(random_xstate(rng))
        out = apply_common_bath(rho, 0.0)
        np.testing.assert_allclose(out, np.diag(np.diag(rho)), atol=1e-15)

    def test_matches_closed_form_and_preserves_x_shape(self, rng):
        worst = 0.0
        off_mask = np.ones((4, 4), dtype=bool)
        for idx in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1)):
            off_mask[idx] = False
        for _ in range(300):
            p = random_xstate(rng)
            lam = float(rng.uniform(-1.0, 1.0))
            out = apply_common_bath(xstate_to_matrix(p), lam)
            assert validate_density_matrix(out).valid
            assert np.max(np.abs(out[off_mask])) < 1e-14
            got = bloch_from_matrix(out)
            want = evolve_bloch(xstate_to_bloch(p), lam)
            worst = max(
                worst,
                max(
                    abs(getattr(got, f) - getattr(want, f))
                    for f in ("t30", "t03", "t11", "t22", "t33")
                ),
            )
        assert worst < 1e-13

    def test_invalid_density_matrix_rejected(self):
        with pytest.raises(ValueError):
            apply_common_bath(np.eye(4), 0.5)  # trace 4


class TestZeros:
    def test_moun_and_markov_have_none(self):
        assert lambda_zeros(Moun(1.0), 50.0) == []
        assert lambda_zeros(Markov(1.0), 50.0) == []

    def test_rtn_zero_ladder(self):
        zeros = lambda_zeros(RTN4, 3.0)
        w = RTN4.omega
        assert len(zeros) == 8
        assert zeros[0] == pytest.approx(0.21369, abs=1e-5)
        spacings = np.diff(zeros)
        np.testing.assert_allclose(spacings, np.pi / w, atol=1e-9)
        for t in zeros:
            assert abs(lambda_of_t(RTN4, t)) < 1e-12

    def test_window_short_of_first_zero(self):
        assert lambda_zeros(RTN4, 0.2) == []

    @pytest.mark.parametrize("t_max", [0.0, -1.0, np.inf, np.nan])
    def test_window_must_be_finite_and_positive(self, t_max):
        with pytest.raises(ValueError, match="t_max"):
            lambda_zeros(RTN4, t_max)

    def test_sign_alternates_between_zeros(self):
        zeros = lambda_zeros(RTN4, 3.0)
        edges = [0.0] + zeros
        mids = [(lo + hi) / 2.0 for lo, hi in zip(edges[:-1], edges[1:])]
        signs = [np.sign(lambda_of_t(RTN4, m)) for m in mids]
        assert signs == [(-1.0) ** k for k in range(len(mids))]


def test_evolve_bloch_examples():
    from rqcx.families import FamilySpec, make_state
    from rqcx.measures import measure_set
    from rqcx.states import bloch_to_xstate

    b = xstate_to_bloch(make_state(FamilySpec("werner", 2.0 / 3.0)))
    assert evolve_bloch(b, 1.0) == b
    dephased = evolve_bloch(b, 0.0)
    assert abs(dephased.t11) <= 1e-15 and abs(dephased.t22) <= 1e-15
    evolved = evolve_bloch(b, np.sqrt(0.5))
    assert measure_set(bloch_to_xstate(evolved)).concurrence == pytest.approx(1.0 / 6.0, abs=1e-13)
