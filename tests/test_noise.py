import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_xstate
from reference import apply_common_bath, bloch_from_matrix, kraus_pair, rtn_omega
from test_dynamics import DEATH_TOL, _margin_deaths, _slope
from rqcx import noise, search
from rqcx.families import FamilySpec, make_state
from rqcx.measures import _StateMeasures
from rqcx.noise import (
    Markov,
    Moun,
    Rtn,
    lambda_of_t,
    lambda_zeros,
)
from rqcx.states import check_xstate, validate_density_matrix, xstate_matrix

RTN4 = Rtn(4.0)


@st.composite
def _rtn_windows(draw):
    """(Rtn(a), t_max): a/gamma log-uniform in [0.51, 1e9], t_max up to 700
    and up to about 2000 zeros (omega t_max / pi)."""
    model = Rtn(float(np.exp(draw(st.floats(np.log(0.51), np.log(1e9))))))
    return model, draw(st.floats(1e-3, 1.0)) * min(700.0, 2000.0 * np.pi / model.omega)


class TestModels:
    def test_rtn_omega(self):
        assert RTN4.omega == pytest.approx(3.0 * np.sqrt(7.0), abs=1e-12)

    @pytest.mark.parametrize("a", [0.5 + 1e-6, 0.5 + 1e-9, 0.5 + 1e-12, 0.6, 4.0, 1e3, 1e154])
    def test_rtn_omega_near_threshold_and_far_past_it(self, a):
        # sqrt((2a)^2 - 1) cancels as 2a nears 1 (5e-10 relative at 0.5 +
        # 1e-9) and overflows past 2a ~ 1.3e154; the factored form does
        # neither
        ref = rtn_omega(a)
        assert abs(Rtn(a).omega - ref) <= 2.5e-16 * ref

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

    @pytest.mark.parametrize("a", [9e307, 1e308, 1.7976931348623157e308])
    def test_rtn_omega_past_the_float_range_rejected(self, a):
        # 2a overflows to inf, and so would omega and every envelope value
        with pytest.raises(ValueError, match=re.escape(f"a/gamma = {a} puts omega past the float range")):
            Rtn(a)
        assert np.isfinite(Rtn(8.9e307).omega)

    @pytest.mark.parametrize("a, t", [(1e154, 3.0), (4.0, 1e308), (1e2, 1e7)])
    def test_rtn_ladder_past_memory_rejected(self, a, t):
        # more than 2**27 extrema (one float64 ladder past 1 GiB) is refused
        # before numpy is asked for the array, naming both flags that set it
        model = Rtn(a)
        ladders = [model.zeros, model.extrema]
        if a > 1e9:  # crossings cut the window at ln(1/kappa)/2, so only a large coupling gets there
            ladders.append(lambda t: model.crossings(0.5, t))
        for ladder in ladders:
            with pytest.raises(ValueError, match=r"--tmax.*--a-over-gamma"):
                ladder(t)


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


def _envelope_ref(model, t):
    """Each envelope as lambda_of_t wrote it out before the models held their closed forms."""
    if isinstance(model, Rtn):
        w = model.omega
        return np.exp(-t) * (np.cos(w * t) + np.sin(w * t) / w)
    if isinstance(model, Moun):
        return np.exp(-0.5 * model.Gamma_over_gamma * (t + np.expm1(-t)))
    return np.exp(-model.lambda_over_gamma * t)


_MODELS = st.one_of(
    st.floats(0.5, 1e3, exclude_min=True).map(Rtn),
    st.floats(1e-3, 1e3).map(Moun),
    st.floats(1e-3, 1e3).map(Markov),
)


@settings(max_examples=300)
@given(model=_MODELS, t=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=40))
def test_envelope_equals_the_reference_to_the_bit(model, t):
    t = np.array(t)
    # the int64 view compares value and sign of zero
    assert np.array_equal(lambda_of_t(model, t).view(np.int64), _envelope_ref(model, t).view(np.int64))
    # a scalar time takes the 0-d path and comes back as a float
    scalar = lambda_of_t(model, t[0])
    assert type(scalar) is float
    assert np.float64(scalar).view(np.int64) == _envelope_ref(model, np.asarray(t[0])).view(np.int64)


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
        rho = xstate_matrix(random_xstate(rng))
        np.testing.assert_allclose(apply_common_bath(rho, 1.0), rho, atol=1e-15)

    def test_full_dephasing_keeps_diagonal(self, rng):
        rho = xstate_matrix(random_xstate(rng))
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
            out = apply_common_bath(xstate_matrix(p), lam)
            assert validate_density_matrix(out).valid
            assert np.max(np.abs(out[off_mask])) < 1e-14
            got = bloch_from_matrix(out)
            # the closed form keeps t30, t03 and t33 and scales t11 and t22 by Lambda^2
            t30, t03, t11, t22, t33 = check_xstate(p)[:5]
            want = (t30, t03, lam * lam * t11, lam * lam * t22, t33)
            worst = max(worst, max(abs(g - w) for g, w in zip((got.t30, got.t03, got.t11, got.t22, got.t33), want)))
        assert worst < 1e-13

    def test_invalid_density_matrix_rejected(self):
        with pytest.raises(ValueError):
            apply_common_bath(np.eye(4), 0.5)  # trace 4


class TestZeros:
    def test_moun_and_markov_have_none(self):
        for model in (Moun(1.0), Markov(1.0)):
            zeros = lambda_zeros(model, 50.0)
            assert isinstance(zeros, np.ndarray) and zeros.dtype == np.float64 and zeros.size == 0

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
        assert lambda_zeros(RTN4, 0.2).tolist() == []

    @pytest.mark.parametrize("t_max", [0.0, -1.0, np.inf, np.nan])
    def test_window_must_be_finite_and_positive(self, t_max):
        with pytest.raises(ValueError, match="t_max"):
            lambda_zeros(RTN4, t_max)

    def test_sign_alternates_between_zeros(self):
        zeros = lambda_zeros(RTN4, 3.0)
        edges = np.concatenate(([0.0], zeros))
        mids = [(lo + hi) / 2.0 for lo, hi in zip(edges[:-1], edges[1:])]
        signs = [np.sign(lambda_of_t(RTN4, m)) for m in mids]
        assert signs == [(-1.0) ** k for k in range(len(mids))]

    @settings(max_examples=200)
    @given(case=_rtn_windows())
    @example(case=(Rtn(1.6e7), 1e-6))
    def test_every_zero_is_a_sign_change(self, case):
        # each closed-form zero is simple (Lambda' != 0 there), so Lambda
        # changes sign across it: at the midpoints between consecutive
        # zeros, t = 0 the first edge, the signs alternate from +1, and so
        # do they a quarter of the shortest gap before and after each zero
        model, t_max = case
        zeros = lambda_zeros(model, t_max)
        assert zeros.size <= 2100
        edges = np.concatenate(([0.0], zeros))
        alternating = (-1.0) ** np.arange(zeros.size)
        assert np.array_equal(np.sign(lambda_of_t(model, 0.5 * (edges[:-1] + edges[1:]))), alternating)
        if zeros.size:
            h = 0.25 * np.diff(edges).min()
            assert np.array_equal(np.sign(lambda_of_t(model, zeros - h)), alternating)
            assert np.array_equal(np.sign(lambda_of_t(model, zeros + h)), -alternating)


def test_channel_examples():
    # the sweep engine's channel on Werner 2/3 at Lambda = 1, 0 and sqrt(1/2)
    from rqcx.families import FamilySpec, make_state
    from rqcx.measures import measure_set

    p = make_state(FamilySpec("werner", 2.0 / 3.0))
    got = _StateMeasures(p)(np.array([1.0, 0.0, np.sqrt(0.5)]))
    ms = measure_set(p)
    assert [got[name][0] for name in ("concurrence", "laqc", "qs", "cs")] == [ms.concurrence, ms.laqc, ms.qs, ms.cs]
    assert got["concurrence"][1] == got["laqc"][1] == got["qs"][1] == 0.0
    assert got["concurrence"][2] == pytest.approx(1.0 / 6.0, abs=1e-13)


class TestExtrema:
    def test_moun_and_markov_have_none(self):
        for model in (Moun(1.0), Markov(1.0)):
            extrema = model.extrema(50.0)
            assert isinstance(extrema, np.ndarray) and extrema.size == 0

    def test_rtn_extrema_at_k_pi_over_omega(self):
        w = RTN4.omega
        extrema = RTN4.extrema(3.0)
        assert extrema.tolist() == [k * np.pi / w for k in range(1, extrema.size + 1)]
        assert extrema[-1] < 3.0 <= (extrema.size + 1) * np.pi / w
        # Lambda' = -exp(-t) (omega + 1/omega) sin(omega t) changes sign at each
        h = 1e-6
        slope = np.diff(lambda_of_t(RTN4, np.stack([extrema - h, extrema, extrema + h])), axis=0)
        assert np.all(slope[0] * slope[1] < 0.0)

    def test_window_end_is_excluded(self):
        w = RTN4.omega
        assert RTN4.extrema(2.0 * np.pi / w).tolist() == [np.pi / w]
        assert RTN4.extrema(np.pi / w).size == 0

    def test_extrema_lie_between_the_zeros(self):
        # zero k < extremum k < zero k + 1: each piece of Lambda between two
        # neighbouring critical points is monotone
        zeros = lambda_zeros(RTN4, 6.0)
        extrema = RTN4.extrema(6.0)
        assert extrema.size <= len(zeros) <= extrema.size + 1
        for k, t in enumerate(extrema):
            assert zeros[k] < t < np.append(zeros, np.inf)[k + 1]


_RATED = st.one_of(
    st.floats(0.5, 20.0, exclude_min=True).map(Rtn),
    st.floats(0.1, 5.0).map(Moun),
    st.floats(0.1, 5.0).map(Markov),
)
_LEVELS = st.floats(np.log(1e-12), np.log(1.0 - 1e-9)).map(np.exp).map(float)


class TestLadders:
    """A ladder does not depend on its window: a longer window, cut, gives the shorter one's ladder."""

    @settings(max_examples=300)
    @given(
        a=st.floats(0.55, 1e3),
        window=st.tuples(st.floats(0.0, 50.0, exclude_min=True), st.floats(0.0, 50.0, exclude_min=True)),
    )
    # t one ulp past the 165th extremum, where t omega/pi rounds to just under 165
    @example(a=10.0, window=(25.950597938826014, 50.0))
    def test_a_longer_window_cut_gives_the_same_ladder(self, a, window):
        t, t_long = sorted(window)
        assume(t < t_long)
        model = Rtn(a)
        zeros, extrema = model.zeros(t_long), model.extrema(t_long)
        assert np.array_equal(zeros[zeros <= t].view(np.int64), model.zeros(t).view(np.int64))
        assert np.array_equal(extrema[extrema < t].view(np.int64), model.extrema(t).view(np.int64))

    @settings(max_examples=100)
    @given(model=_RATED, t_end=st.floats(0.0, 50.0, exclude_min=True))
    def test_ladders_are_float_arrays(self, model, t_end):
        for ladder in (lambda_zeros(model, t_end), model.extrema(t_end)):
            assert isinstance(ladder, np.ndarray) and ladder.dtype == np.float64 and ladder.ndim == 1

    @settings(max_examples=200)
    @given(window=_rtn_windows())
    def test_extrema_build_no_piece_table(self, window):
        # the extrema k pi/omega before t, from the extremum ladder alone, so
        # zeros and extrema together build one piece table
        model, t = window
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Rtn, "_pieces", lambda self, t, _fn=Rtn._pieces: calls.append(t) or _fn(self, t))
            extrema = model.extrema(t)
            lambda_zeros(model, t)
        assert calls == [t]
        w = model.omega
        assert extrema.tolist() == [k * np.pi / w for k in range(1, extrema.size + 1)]
        assert extrema.size == 0 or extrema[-1] < t
        assert (extrema.size + 1) * np.pi / w >= t


class TestCrossings:
    """Each model's crossings of a level kappa are where Lambda^2 falls through it."""

    @settings(max_examples=300)
    @given(model=_RATED, kappa=_LEVELS, t_end=st.floats(0.5, 50.0))
    def test_crossings_solve_lambda_squared_equals_kappa(self, model, kappa, t_end):
        t = model.crossings(kappa, t_end)
        assert isinstance(t, np.ndarray) and np.all(np.diff(t) > 0.0)
        assert np.all((0.0 < t) & (t <= t_end))
        lam = lambda_of_t(model, t)
        # 1e-12 relative, plus how far Lambda^2 moves over 4 ulps of t: where
        # it is steep beside a small kappa, no float t comes closer
        slack = 4.0 * np.abs(2.0 * lam * _slope(model, t)) * np.spacing(t)
        assert np.all(np.abs(lam**2 - kappa) <= 1e-12 * kappa + slack)
        if isinstance(model, Markov):
            closed = -np.log(kappa) / (2.0 * model.lambda_over_gamma)
            assert t.tolist() == ([closed] if closed <= t_end else [])

    @settings(max_examples=300)
    @given(model=_RATED, kappa=_LEVELS, t_end=st.floats(0.5, 50.0))
    def test_crossings_match_the_margin_bisection(self, model, kappa, t_end):
        # Lambda^2/kappa - 1 has the sign of Lambda^2 - kappa and is -1 on a
        # zero, so the touching-zero rule never applies
        reference = _margin_deaths(
            lambda t: lambda_of_t(model, t) ** 2 / kappa - 1.0,
            lambda_zeros(model, t_end),
            model.extrema(t_end),
            t_end,
        )
        t = model.crossings(kappa, t_end)
        assert t.size == reference.size
        assert np.all(np.abs(t - reference) <= DEATH_TOL)

    @pytest.mark.parametrize("a", [0.6, 4.0, 20.0])
    @pytest.mark.parametrize("kappa", [1e-12, 1e-4, 0.5])
    def test_rtn_stops_at_the_envelope_bound(self, a, kappa):
        # |Lambda| = e^-t at each piece start: no crossing lies past
        # ln(1/kappa)/2 plus one piece, which is under 50 here
        model = Rtn(a)
        near = model.crossings(kappa, 50.0)
        assert near.size
        assert np.array_equal(model.crossings(kappa, 1e5), near)


    def test_rtn_first_piece_past_the_square_of_omega(self):
        # omega^2 overflows past omega ~ 1.3e154: the first lane then starts
        # from t0 = 0, and its crossing still solves Lambda^2 = kappa
        model = Rtn(1e154)
        t = model.crossings(0.5, 1e-150)
        assert t.size and np.all(np.diff(t) > 0.0) and t[-1] <= 1e-150
        assert np.abs(lambda_of_t(model, t[:1]) ** 2 - 0.5) <= 1e-9

    @pytest.mark.parametrize("gamma", [1e-300, 1e-200, 1e-155])
    def test_moun_crossing_where_the_quadratic_bound_overflows(self, gamma):
        # c = ln(1/kappa)/Gamma is past 1e154, so c(c + 8) overflows; the root
        # of g(t) = t + e^-t - 1 = c lies in (c, c + 1], as t - 1 <= g(t) < t
        kappa = _StateMeasures(make_state(FamilySpec("werner", 0.9))).death_level()
        model, c = Moun(gamma), -np.log(kappa) / gamma
        t = model.crossings(kappa, 1e308)
        assert t.size == 1 and c <= t[0] <= c + 1.0
        assert t[0] == pytest.approx(c + 1.0, rel=1e-10)
        # the window (0, c] holds no root
        assert model.crossings(kappa, c).size == 0

    @pytest.mark.parametrize("model", [Moun(5e-324), Markov(5e-324)], ids=["moun", "markov"])
    def test_crossing_past_every_window(self, model):
        # ln(1/kappa) over the rate overflows: no crossing, and no warning
        for t_end in (1e-12, 50.0, 1e308):
            assert model.crossings(0.5, t_end).size == 0


def _whole_piece_crossings(model, kappa, t_end):
    """Rtn.crossings with every lane on its whole piece, the first one too; returns the roots and their tolerances."""
    t_stop = min(t_end, -0.5 * np.log(kappa))
    k = np.arange(0.0, np.floor(t_stop * model.omega / np.pi) + 1.0)
    start, end = model._extremum(k), model._zero(k)
    lam = model.envelope(np.append(start, t_end))
    keep = (lam[:-1] ** 2 > kappa) & ((end <= t_end) | (lam[-1] ** 2 <= kappa))

    def fall(t):
        lam = model.envelope(t)
        return np.abs(lam) - np.sqrt(kappa), np.sign(lam) * model._slope(t)

    lo, hi = start[keep], np.minimum(end[keep], t_end)
    return search.newton(fall, lo, hi, 1e-10 * (hi - lo)), 1e-10 * (hi - lo)


class TestRtnFirstPiece:
    """The first piece's lane starts from the quadratic bound 1 - (1 + omega^2) t^2/2 <= Lambda."""

    @staticmethod
    def _count_rounds(monkeypatch):
        rounds = [0]

        def counted(f, lo, hi, tol):
            def g(t):
                rounds[0] += 1
                return f(t)

            return search.newton(g, lo, hi, tol)

        monkeypatch.setattr(noise, "newton", counted)
        return rounds

    @pytest.mark.parametrize("a", [0.6, 4.0, 10.0])
    @pytest.mark.parametrize("gap", [1e-6, 1e-9, 1e-12, 1e-15])
    def test_few_rounds_near_kappa_one(self, monkeypatch, a, gap):
        # from the first zero, Newton took up to 29 rounds at gap 1e-15
        rounds = self._count_rounds(monkeypatch)
        t = Rtn(a).crossings(1.0 - gap, 3.0)
        assert t.size == 1 and 0.0 < t[0]
        assert rounds[0] <= 10

    @pytest.mark.parametrize("a", [0.6, 4.0, 10.0])
    def test_level_whose_root_rounds_to_one(self, a):
        # sqrt(kappa) is 1.0 for the largest kappa below 1, so t0 is 0; the
        # lane then runs on the whole piece and still finds a time past 0
        t = Rtn(a).crossings(float(np.nextafter(1.0, 0.0)), 3.0)
        assert t.size == 1 and 0.0 < t[0] < 1e-7

    @settings(max_examples=300)
    @given(
        a=st.floats(0.5, 20.0, exclude_min=True),
        gap=st.floats(np.log(1e-9), np.log(0.7)).map(np.exp).map(float),
        t_end=st.floats(0.05, 50.0),
    )
    def test_roots_match_the_whole_piece_lanes(self, a, gap, t_end):
        # near kappa = 1 the crossing sits at rounding level, so below gap 1e-9
        # only the round count is compared.  Above it, the roots agree within
        # the lanes' tolerance plus how far t moves while Lambda (near 1)
        # moves by 4 ulps: where a short cut piece makes the tolerance tiny,
        # no float t is closer
        model, kappa = Rtn(a), 1.0 - gap
        t = model.crossings(kappa, t_end)
        ref, tol = _whole_piece_crossings(model, kappa, t_end)
        assert t.size == ref.size
        assert np.all(np.abs(t - ref) <= tol + 4.0 * np.spacing(1.0) / np.abs(model._slope(ref)))
        # every piece after the first is the same lane as before
        np.testing.assert_array_equal(t[1:], ref[1:])
