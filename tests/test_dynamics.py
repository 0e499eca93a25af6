import numpy as np
import pytest
from conftest import random_xstate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rqcx import search
from rqcx.dynamics import (
    SweepSpec,
    _concurrence_deaths,
    detect_events,
    surface,
    trajectory,
)
from rqcx.families import FamilySpec, make_state
from rqcx.measures import _StateMeasures, measure_set
from rqcx.noise import Markov, Moun, Rtn, lambda_of_t, lambda_zeros
from rqcx.states import XStateParams

RTN4 = Rtn(4.0)
# the accuracy every concurrence death is held to, and the tolerance of the
# margin bisection below
DEATH_TOL = 1e-9
_MEASURES = ("concurrence", "laqc", "qs", "cs")


def _grid(tmax=3.0, steps=600):
    return np.linspace(0.0, tmax, steps)


def _margin_along(state, noise):
    """The signed concurrence margin of a state as a function of an array of times."""
    measures = _StateMeasures(state)
    return lambda t: measures._margin(np.atleast_1d(lambda_of_t(noise, t)) ** 2)


def _kappa(p):
    """min(sqrt(bc)/|r|, sqrt(ad)/|s|) over the terms whose coherence exceeds its root, or None."""
    terms = ((abs(p.r), np.sqrt(max(p.b, 0.0) * max(p.c, 0.0))), (abs(p.s), np.sqrt(max(p.a, 0.0) * max(p.d, 0.0))))
    quotients = [root / coh for coh, root in terms if coh > root]
    return min(quotients) if quotients else None


def _concurrence_death_times(state, noise, tmax):
    events = detect_events(state, noise, tmax, threshold=0.0)
    return [e.t for e in events if e.kind == "sudden_death" and e.measure == "concurrence"]


class TestTrajectory:
    def test_first_row_matches_static_measures(self):
        st = make_state(FamilySpec("mems", 0.7))
        traj = trajectory(st, RTN4, _grid())
        ms = measure_set(st)
        assert traj.t[0] == 0.0 and traj.lam[0] == 1.0
        assert traj.concurrence[0] == pytest.approx(ms.concurrence, abs=1e-15)
        assert traj.laqc[0] == pytest.approx(ms.laqc, abs=1e-15)
        assert traj.qs[0] == pytest.approx(ms.qs, abs=1e-15)
        assert traj.cs[0] == pytest.approx(ms.cs, abs=1e-15)

    def test_laqc_vanishes_exactly_at_envelope_zero(self):
        st = make_state(FamilySpec("werner", 1.0))
        t1 = lambda_zeros(RTN4, 1.0)[0]
        traj = trajectory(st, RTN4, [0.0, t1, 1.0])
        assert traj.laqc[1] < 1e-25
        assert traj.qs[1] < 1e-25

    def test_mnms_under_moun_decays_monotonically(self):
        st = make_state(FamilySpec("mnms", 0.5))
        vals = trajectory(st, Moun(1.0), _grid()).laqc
        assert np.all(np.diff(vals) < 0.0)

    def test_scalar_time_is_a_grid_of_one(self):
        traj = trajectory(make_state(FamilySpec("mems", 0.7)), RTN4, 0.5)
        assert [col.shape for col in traj] == [(1,)] * 6
        assert traj == trajectory(make_state(FamilySpec("mems", 0.7)), RTN4, [0.5])

    @pytest.mark.parametrize("tgrid", ["1", b"1", bytearray(b"01"), ["0", "1"], np.array(["0", "1"])],
                             ids=["str", "bytes", "bytearray", "str-list", "str-array"])
    def test_text_grid_refused(self, tgrid):
        with pytest.raises(TypeError, match="^tgrid must be a number or an array of numbers, not text$"):
            trajectory(make_state(FamilySpec("mems", 0.7)), RTN4, tgrid)

    def test_rows_respect_measure_ordering(self):
        st = make_state(FamilySpec("mems", 0.4))
        traj = trajectory(st, RTN4, _grid(steps=100))
        for laqc, qs, cs in zip(traj.laqc, traj.qs, traj.cs):
            assert laqc >= qs - 1e-12
            assert cs >= qs - 1e-12


class TestEvents:
    @pytest.mark.parametrize("t_end", ["3", b"3", bytearray(b"3"), np.array(["3"])],
                             ids=["str", "bytes", "bytearray", "str-array"])
    def test_text_window_refused(self, t_end):
        with pytest.raises(TypeError, match="^t_end must be a number or an array of numbers, not text$"):
            detect_events(make_state(FamilySpec("werner", 1.0)), RTN4, t_end)

    @pytest.mark.parametrize("threshold", ["0.1", b"0", bytearray(b"0"), np.array(["0.1"])],
                             ids=["str", "bytes", "bytearray", "str-array"])
    def test_text_threshold_refused(self, threshold):
        # refused before the finiteness check, which numpy cannot make on text
        with pytest.raises(TypeError, match="^threshold must be a number or an array of numbers, not text$"):
            detect_events(make_state(FamilySpec("werner", 1.0)), RTN4, 3.0, threshold)

    @pytest.mark.parametrize("t_end", [0.0, -1.0, np.nan, np.inf])
    def test_window_end_must_be_finite_and_positive(self, t_end):
        st = make_state(FamilySpec("werner", 0.8))
        with pytest.raises(ValueError, match="finite and positive"):
            detect_events(st, RTN4, t_end)

    @pytest.mark.parametrize("param, tables", [(0.2, 1), (0.9, 2)], ids=["no-death-level", "crossings"])
    def test_one_piece_table_for_zeros_and_extrema(self, monkeypatch, param, tables):
        # Werner 0.2 has no concurrence, so its events need only the zeros and
        # extrema, one RTN piece table; Werner 0.9's concurrence deaths need the
        # crossings, which build their own
        calls = []
        monkeypatch.setattr(Rtn, "_pieces", lambda self, t, _fn=Rtn._pieces: calls.append(t) or _fn(self, t))
        detect_events(make_state(FamilySpec("werner", param)), RTN4, 3.0)
        assert len(calls) == tables and calls[0] == 3.0

    def test_moun_produces_no_sudden_death(self):
        st = make_state(FamilySpec("mnms", 0.7))
        events = detect_events(st, Moun(1.0), 3.0)
        assert not [e for e in events if e.kind == "sudden_death"]
        assert {e.kind for e in events} <= {"asymptotic"}

    def test_singlet_rtn_first_death_time(self):
        st = make_state(FamilySpec("werner", 1.0))
        events = detect_events(st, RTN4, 3.0)
        deaths = [e for e in events if e.kind == "sudden_death" and e.measure == "laqc"]
        assert deaths[0].t == pytest.approx(0.21369, abs=1e-5)
        assert deaths[0].value < 1e-9
        # every reported death sits on an envelope zero; deaths stop once the
        # preceding revival falls under the reporting threshold
        zs = lambda_zeros(RTN4, 3.0)
        assert 3 <= len(deaths) <= len(zs)
        for death in deaths:
            assert min(abs(death.t - tz) for tz in zs) < 1e-9

    def test_werner_two_thirds_event_structure(self):
        st = make_state(FamilySpec("werner", 2.0 / 3.0))
        events = detect_events(st, RTN4, 3.0, threshold=1e-4)
        conc_revivals = [
            e for e in events if e.kind == "revival_peak" and e.measure == "concurrence"
        ]
        laqc_revivals = [e for e in events if e.kind == "revival_peak" and e.measure == "laqc"]
        assert len(conc_revivals) == 1
        assert len(laqc_revivals) >= 2

    def test_concurrence_death_is_not_an_envelope_zero(self):
        st = make_state(FamilySpec("werner", 2.0 / 3.0))
        events = detect_events(st, RTN4, 3.0)
        conc_death = [
            e for e in events if e.kind == "sudden_death" and e.measure == "concurrence"
        ][0]
        # dies where the envelope passes 1/2, before the envelope zero
        assert conc_death.t < 0.2
        assert conc_death.value < 1e-9
        from rqcx.noise import lambda_of_t

        assert abs(lambda_of_t(RTN4, conc_death.t)) == pytest.approx(0.5, abs=1e-8)

    def test_grid_resolution_stability(self):
        # a caller may pass the last time of any grid, or the window end as any real number
        st = make_state(FamilySpec("werner", 2.0 / 3.0))
        events = detect_events(st, RTN4, 3.0)
        assert len(events) > 0
        for t_end in (3, np.float64(3.0), *(_grid(steps=steps)[-1] for steps in (3, 1200, 20000))):
            assert detect_events(st, RTN4, t_end) == events

    def test_revival_peaks_are_local_maxima_of_rows(self):
        st = make_state(FamilySpec("werner", 1.0))
        traj = trajectory(st, RTN4, _grid())
        events = detect_events(st, RTN4, 3.0)
        ts = traj.t
        for e in events:
            if e.kind != "revival_peak":
                continue
            vals = getattr(traj, e.measure)
            k = int(np.argmin(np.abs(ts - e.t)))
            window = vals[max(0, k - 40) : k + 40]
            assert e.value >= window.max() - 1e-6


_STATES = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda seed: random_xstate(np.random.default_rng(seed))),
    st.integers(0, 2**32 - 1).map(lambda seed: random_xstate(np.random.default_rng(seed), rank_deficient=True)),
    st.tuples(st.sampled_from(["werner", "mnms", "mems"]), st.floats(0.0, 1.0)).map(
        lambda fp: make_state(FamilySpec(*fp))
    ),
)
_NOISES = st.one_of(
    st.floats(0.55, 12.0).map(Rtn),
    st.floats(0.2, 5.0).map(Moun),
    st.floats(0.2, 5.0).map(Markov),
)


class TestNeverNegative:
    """Every swept measure is clamped at 0, as measure_set clamps it."""

    def test_werner_samples_around_the_first_rtn_zero(self):
        # g1 and g2 of u(L^2 T)/2 round below 0 on about a quarter of these
        z = lambda_zeros(RTN4, 1.0)[0]
        traj = trajectory(make_state(FamilySpec("werner", 0.8)), RTN4, np.linspace(z - 1e-7, z + 1e-7, 200001))
        for name in _MEASURES:
            assert np.all(getattr(traj, name) >= 0.0), name

    @settings(max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rank_deficient=st.booleans(),
        noise=st.floats(0.55, 12.0).map(Rtn),
        half_width=st.floats(1e-12, 1e-3),
        steps=st.integers(3, 401),
    )
    def test_grids_straddling_each_zero(self, seed, rank_deficient, noise, half_width, steps):
        state = random_xstate(np.random.default_rng(seed), rank_deficient)
        zeros = lambda_zeros(noise, 6.0)
        t = np.concatenate([np.linspace(z - half_width, z + half_width, steps) for z in zeros])
        traj = trajectory(state, noise, t)
        for name in _MEASURES:
            assert np.all(getattr(traj, name) >= 0.0), name


class TestClosedFormEvents:
    """Events sit where the closed-form conditions put them, whatever the time grid."""

    @settings(max_examples=150)
    @given(state=_STATES, noise=_NOISES, tmax=st.floats(0.5, 6.0), stretch=st.floats(1.0, 3.0))
    def test_events_depend_only_on_the_window_end(self, state, noise, tmax, stretch):
        """A longer window reports the same events up to tmax, so nothing past it moves them.

        A concurrence death's Newton lane starts at the end of its piece,
        which the window end may cut, so the deaths agree to DEATH_TOL; every
        other event agrees to the bit.
        """
        events = [e for e in detect_events(state, noise, tmax) if e.kind != "asymptotic"]
        longer = detect_events(state, noise, tmax * stretch)
        longer = [e for e in longer if e.kind != "asymptotic" and e.t <= tmax]
        assert [(e.kind, e.measure) for e in events] == [(e.kind, e.measure) for e in longer]
        for e, f in zip(events, longer):
            if (e.kind, e.measure) == ("sudden_death", "concurrence"):
                assert abs(e.t - f.t) <= DEATH_TOL
            else:
                assert e == f

    # RTN first: its zeros and extrema carry most of what is checked
    @settings(max_examples=300)
    @given(state=_STATES, noise=st.one_of(st.floats(0.55, 12.0).map(Rtn), _NOISES), tmax=st.floats(0.5, 6.0))
    def test_events_sit_on_the_closed_form_points(self, state, noise, tmax):
        events = detect_events(state, noise, tmax)
        zeros = lambda_zeros(noise, tmax)
        margin = _margin_along(state, noise)

        for e in events:
            if e.kind == "sudden_death" and e.measure != "concurrence":
                assert e.t in zeros
            elif e.kind == "sudden_death" and e.t in zeros:
                # kappa = 0: the margin reaches zero without changing sign
                assert abs(margin(e.t)[0]) < 1e-12
            elif e.kind == "sudden_death":
                assert margin(e.t - 1e-8)[0] > 0.0 >= margin(e.t + 1e-8)[0]
            elif e.kind == "revival_peak":
                w = noise.omega
                assert abs(e.t - round(e.t * w / np.pi) * np.pi / w) <= 1e-15
                lo = max(z for z in zeros if z < e.t)
                hi = min([z for z in zeros if z > e.t] + [tmax])
                sampled = getattr(trajectory(state, noise, np.linspace(lo, hi, 2001)), e.measure)
                assert e.value >= sampled.max() - 1e-15

    # RTN first: only it revives
    @settings(max_examples=300)
    @given(
        state=_STATES,
        noise=st.one_of(st.floats(0.55, 12.0).map(Rtn), _NOISES),
        tmax=st.floats(0.5, 6.0),
        threshold=st.sampled_from((0.0, 1e-4, 1e-2)),
    )
    # kappa = 0: the concurrence dies on every zero, and past t = 4.6 its
    # value at the extremum before falls under the threshold
    @example(state=make_state(FamilySpec("mems", 0.8)), noise=RTN4, tmax=6.0, threshold=1e-4)
    def test_each_death_is_the_first_or_follows_a_revival(self, state, noise, tmax, threshold):
        events = detect_events(state, noise, tmax, threshold)
        zeros = lambda_zeros(noise, tmax)
        first = {"laqc": zeros[:1].tolist(), "qs": zeros[:1].tolist()}
        first["concurrence"] = _concurrence_deaths(_StateMeasures(state), noise, zeros, tmax)[:1].tolist()
        for name, firsts in first.items():
            mine = [e for e in events if e.measure == name]
            for k, e in enumerate(mine):
                if e.kind == "sudden_death":
                    assert (k == 0 and [e.t] == firsts) or (k > 0 and mine[k - 1].kind == "revival_peak"), (name, e)


class TestConcurrenceDeaths:
    """The concurrence dies where Lambda^2 falls through kappa, and only there."""

    # RTN first: its zeros and extrema give the most pieces
    @settings(max_examples=300)
    @given(state=_STATES, noise=st.one_of(st.floats(0.55, 12.0).map(Rtn), _NOISES), tmax=st.floats(0.5, 6.0))
    def test_deaths_are_where_lambda_squared_falls_through_kappa(self, state, noise, tmax):
        deaths = _concurrence_death_times(state, noise, tmax)
        zeros = lambda_zeros(noise, tmax)
        kappa = _kappa(state)
        if kappa is None:
            assert deaths == []
            return
        if kappa == 0.0:
            assert deaths == zeros.tolist()
            return
        assert deaths == sorted(deaths)
        for t in deaths:
            before, after = lambda_of_t(noise, np.array([max(t - DEATH_TOL, 0.0), t + DEATH_TOL])) ** 2
            # Lambda^2 is 0 on a zero, so a zero just after t also ends the fall
            assert before > kappa
            assert after <= kappa or any(t < z <= t + DEATH_TOL for z in zeros)
        # no fall is missed: each one a fine grid sees lies next to a death
        ts = np.linspace(0.0, tmax, 20001)
        alive = lambda_of_t(noise, ts) ** 2 > kappa
        for i in np.flatnonzero(alive[:-1] & ~alive[1:]):
            assert any(ts[i] - DEATH_TOL <= t <= ts[i + 1] + DEATH_TOL for t in deaths)

    @settings(max_examples=300)
    @given(state=_STATES, noise=st.one_of(st.floats(0.55, 12.0).map(Rtn), _NOISES), tmax=st.floats(0.5, 6.0))
    # a subnormal coherence: the margin underflows 7e-8 before the zero
    @example(state=make_state(FamilySpec("mnms", 2.225073858507203e-309)), noise=Rtn(1.0), tmax=2.0)
    def test_deaths_match_the_margin_bisection(self, state, noise, tmax):
        zeros = lambda_zeros(noise, tmax)
        extrema = noise.extrema(tmax)
        deaths = _concurrence_deaths(_StateMeasures(state), noise, zeros, tmax)
        margin = _margin_along(state, noise)
        reference = _margin_deaths(margin, zeros, extrema, tmax)
        if _kappa(state) == 0.0:
            # the touching-zero rule of the margin bisection misses zeros where
            # the margin stays under 1e-12 a step of 1e-3 away; each zero it
            # does report is a death here too.  Only a subnormal coherence c
            # may add a root short of a zero, where 2 c Lambda^2 underflows to
            # 0 while Lambda^2 is still positive.
            extra = np.setdiff1d(reference, deaths)
            if extra.size:
                assert 0.0 < min(c for c in (abs(state.r), abs(state.s)) if c) < np.finfo(float).tiny
            assert np.all(margin(extra) == 0.0) and np.all(lambda_of_t(noise, extra) != 0.0)
        else:
            assert deaths.size == reference.size
            assert np.all(np.abs(deaths - reference) <= DEATH_TOL)

    def test_subnormal_coherence_runs_without_warning(self):
        # |s| = 1.1e-311 lies under sqrt(ad), so no quotient divides by it
        state = make_state(FamilySpec("werner", 2.2e-311))
        trajectory(state, RTN4, _grid())
        assert not [e for e in detect_events(state, RTN4, 3.0) if e.measure == "concurrence"]

    @pytest.mark.parametrize("a", [0.6, 1.0, 4.0])
    def test_late_touching_zeros_are_deaths(self, a):
        # bc = 0 gives kappa = 0: the concurrence 2|r|Lambda^2 dies on every
        # zero, also where it stays under 1e-12 nearby
        state = XStateParams(a=0.05, b=0.0, c=0.12, d=0.83, r=-3.3e-4, s=0.0)
        assert _concurrence_death_times(state, Rtn(a), 6.0) == lambda_zeros(Rtn(a), 6.0).tolist()

    @pytest.mark.parametrize("a", [0.6, 1.0, 4.0])
    def test_kappa_below_the_computed_zero_value(self, a):
        # kappa is about 2e-40, below Lambda^2 as computed on every zero
        # (2e-36 and up), yet each zero still ends a fall through kappa
        state = XStateParams(a=0.3, b=1e-80, c=0.3, d=0.4, r=0.3, s=0.0)
        deaths = _concurrence_death_times(state, Rtn(a), 6.0)
        zeros = lambda_zeros(Rtn(a), 6.0)
        assert len(deaths) == len(zeros)
        assert all(0.0 <= z - t <= DEATH_TOL for t, z in zip(deaths, zeros))


class TestSurface:
    def test_sweep_grid_validation(self):
        with pytest.raises(ValueError):
            SweepSpec("mnms", np.array([0.5]), RTN4, np.linspace(0, 3, 10))
        with pytest.raises(ValueError):
            SweepSpec("mnms", np.linspace(1, 0, 5), RTN4, np.linspace(0, 3, 10))

    @pytest.mark.parametrize("grid", [["0", "1"], np.array(["0", "1"]), np.array([b"0", b"1"]), bytearray(b"01")],
                             ids=["str-list", "str-array", "bytes-array", "bytearray"])
    @pytest.mark.parametrize("which", ["param", "time"])
    def test_text_grid_refused(self, grid, which):
        grids = {"param_grid": np.linspace(0, 1, 5), "time_grid": np.linspace(0, 3, 7), f"{which}_grid": grid}
        with pytest.raises(TypeError, match=f"^{which}_grid must be a number or an array of numbers, not text$"):
            SweepSpec("mnms", noise=RTN4, **grids)

    def test_unknown_measure_rejected(self):
        spec = SweepSpec("mnms", np.linspace(0, 1, 5), RTN4, np.linspace(0, 3, 7))
        with pytest.raises(ValueError):
            surface(spec, "concurrence", "discord")

    def test_time_zero_column_matches_static_difference(self):
        spec = SweepSpec("werner", np.linspace(0, 1, 9), RTN4, np.linspace(0, 3, 11))
        params, tgrid, values = surface(spec, "concurrence", "qs")
        for i, p in enumerate(params):
            ms = measure_set(make_state(FamilySpec("werner", float(p))))
            assert values[i, 0] == pytest.approx(ms.concurrence - ms.qs, abs=1e-13)

    def test_mnms_difference_never_negative(self):
        spec = SweepSpec("mnms", np.linspace(0, 1, 60), RTN4, np.linspace(0, 3, 200))
        _, _, values = surface(spec, "concurrence", "qs")
        assert values.min() >= -1e-12

    def test_werner_low_z_slice_never_positive(self):
        spec = SweepSpec("werner", np.array([0.3, 0.31]), RTN4, np.linspace(0, 3, 400))
        _, _, values = surface(spec, "concurrence", "qs")
        assert values.max() <= 1e-12

    def test_werner_half_z_switches_sign_once(self):
        spec = SweepSpec("werner", np.array([0.5, 0.6]), RTN4, np.linspace(0, 3, 1200))
        _, tgrid, values = surface(spec, "concurrence", "qs")
        diff = values[0]
        assert diff[0] > 0
        switch = np.flatnonzero(diff < -1e-9)
        assert switch.size > 0
        assert np.all(diff[switch[0] :] <= 1e-12)


def test_event_records_from_file_state():
    # a hand-built X state behaves like its family twin
    st = XStateParams(0.25, 0.25, 0.25, 0.25, 0.2, -0.1)
    events = detect_events(st, RTN4, 3.0)
    kinds = {e.kind for e in events}
    assert "sudden_death" in kinds


def test_nan_envelope_gives_nan_measures():
    m = _StateMeasures(make_state(FamilySpec("werner", 0.8)))(np.array([np.nan, 0.5]))
    for name in ("concurrence", "laqc", "qs", "cs"):
        assert np.isnan(m[name][0])
        assert np.isfinite(m[name][1])


# Scalar searches, one function call per step and one bracket at a time:
# _newton_root is the reference of the lane search.  Below them, the
# concurrence deaths as they were found before kappa: margin roots by
# _bisect_root, plus a touching-zero rule for zeros where the margin reaches 0
# without changing sign.

def _bisect_root(f, lo, hi, tol=1e-9):
    f_lo = f(lo)
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _newton_root(f, lo, hi, tol):
    x = hi
    for _ in range(100):
        y, dy = (v[0] for v in f(np.array([x])))
        if y > 0.0:
            lo = x
        else:
            hi = x
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            delta = y / dy
        step = x - delta
        if abs(delta) <= tol or hi - lo <= tol:
            return min(max(step, lo), hi)
        x = step if lo < step < hi else 0.5 * (lo + hi)
    return x


def _slope(noise, t):
    """Lambda'(t) for each noise model."""
    lam = lambda_of_t(noise, t)
    if isinstance(noise, Rtn):
        w = noise.omega
        return -np.exp(-t) * (w + 1.0 / w) * np.sin(w * t)
    if isinstance(noise, Moun):
        return 0.5 * noise.Gamma_over_gamma * np.expm1(-t) * lam
    return -noise.lambda_over_gamma * lam


def _fall(noise, kappa):
    """Lambda^2 - kappa along a noise model and its slope 2 Lambda Lambda', for arrays of times."""

    def f(t):
        lam = lambda_of_t(noise, t)
        return lam**2 - kappa, 2.0 * lam * _slope(noise, t)

    return f


def _margin_deaths(margin, zeros, extrema, t_end):
    """The concurrence deaths as roots of the margin, with the touching-zero rule."""
    zs = np.array(zeros, dtype=float)
    near = np.concatenate((zs, np.maximum(0.0, zs - 1e-3), np.minimum(t_end, zs + 1e-3)))
    on_zero, before, after = np.split(margin(near), 3)
    touching = (np.abs(on_zero) < 1e-12) & (before > 1e-12) & (after > 1e-12)
    t = np.sort(np.concatenate(([0.0], zs[~touching], extrema, [t_end])))
    alive = margin(t) > 0.0
    k = np.flatnonzero(alive[:-1] & ~alive[1:])
    roots = [_bisect_root(lambda x: float(margin(np.array([x]))[0]), lo, hi, DEATH_TOL) for lo, hi in zip(t[k], t[k + 1])]
    return np.sort(np.concatenate((roots, zs[touching])))


_BRACKETS = st.lists(st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 4.0)), min_size=1, max_size=8)


def _ordered(brackets):
    return [(min(p), max(p)) for p in brackets]


class TestLaneSearches:
    """Each lane of a lane search equals the scalar search on its bracket, bit for bit."""

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), noise=_NOISES, brackets=_BRACKETS, data=st.data())
    def test_per_lane_tolerances(self, seed, noise, brackets, data):
        """Each Newton lane equals the scalar Newton loop with its own tol."""
        state = random_xstate(np.random.default_rng(seed))
        kappa = _kappa(state) or 0.5
        fall = _fall(noise, kappa)
        lo, hi = np.array(_ordered(brackets)).T
        tols = data.draw(st.lists(st.floats(1e-14, 1e-3), min_size=lo.size, max_size=lo.size))
        lanes = search.newton(fall, lo, hi, np.array(tols))
        for k in range(lo.size):
            scalar = _newton_root(fall, float(lo[k]), float(hi[k]), tols[k])
            assert np.float64(lanes[k]).view(np.int64) == np.float64(scalar).view(np.int64)

    def test_subnormal_bracket(self):
        # the slope at a subnormal time is subnormal, so y/dy overflows; the
        # lane closes at once and, like the scalar loop, raises no warning
        fall = _fall(Rtn(1.0), 0.5)
        lanes = search.newton(fall, [0.0], [2.225073858507e-311], 1e-14)
        scalar = _newton_root(fall, 0.0, 2.225073858507e-311, 1e-14)
        assert lanes.tolist() == [scalar] == [2.225073858507e-311]

    def test_crossover_single_lane(self):
        from rqcx.families import crossover_z

        # the root to 40 digits: 0.4214994714147185082036347573395291107358
        assert abs(crossover_z() - 0.42149947141471851) <= 4e-16

    def test_newton_lane_above_at_hi_returns_hi(self):
        # f(hi) > 0 puts the lane's first point on lo, so its bracket closes at hi
        up = search.newton(lambda t: (np.ones_like(t), -np.ones_like(t)), [0.0, 2.0], [1.0, 3.0], 1e-9)
        assert up.tolist() == [1.0, 3.0]

    def test_empty_lanes(self):
        assert search.newton(lambda t: (np.sin(t), np.cos(t)), [], [], 1e-9).size == 0


_PARAMS = st.lists(
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 2.0 / 3.0, 1.0])), min_size=2, max_size=12, unique=True
).map(sorted)


@settings(max_examples=120)
@given(
    family=st.sampled_from(["werner", "mnms", "mems"]),
    params=_PARAMS,
    noise=_NOISES,
    t0=st.floats(0.0, 1.0),
    span=st.floats(0.05, 6.0),
    steps=st.integers(2, 80),
)
def test_surface_rows_are_trajectory_differences_to_the_bit(family, params, noise, t0, span, steps):
    """One broadcast over all parameters gives each parameter's own trajectory, bit for bit."""
    tgrid = np.linspace(t0, t0 + span, steps)
    spec = SweepSpec(family, np.array(params), noise, tgrid)
    trajs = [trajectory(make_state(FamilySpec(family, p)), noise, tgrid) for p in params]
    for a in _MEASURES:
        for b in _MEASURES:
            values = surface(spec, a, b)[2]
            assert values.shape == (len(params), steps)
            for row, traj in zip(values, trajs):
                ref = getattr(traj, a) - getattr(traj, b)
                # the int64 view compares value and sign of zero
                assert np.array_equal(row.view(np.int64), ref.view(np.int64))
