import numpy as np
import pytest
from conftest import random_xstate
from hypothesis import given, settings
from hypothesis import strategies as st

from rqcx import search
from rqcx.dynamics import SweepSpec, _StateMeasures, detect_events, surface, trajectory
from rqcx.families import FamilySpec, make_state
from rqcx.measures import measure_set
from rqcx.noise import Markov, Moun, Rtn, _polish_zero, lambda_of_t, lambda_zeros
from rqcx.states import XStateParams

RTN4 = Rtn(4.0)


def _grid(tmax=3.0, steps=600):
    return np.linspace(0.0, tmax, steps)


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

    def test_rows_respect_measure_ordering(self):
        st = make_state(FamilySpec("mems", 0.4))
        traj = trajectory(st, RTN4, _grid(steps=100))
        for laqc, qs, cs in zip(traj.laqc, traj.qs, traj.cs):
            assert laqc >= qs - 1e-12
            assert cs >= qs - 1e-12


class TestEvents:
    def test_too_few_rows_rejected(self):
        st = make_state(FamilySpec("werner", 0.8))
        with pytest.raises(ValueError):
            detect_events(st, RTN4, [0.0, 1.0])

    def test_moun_produces_no_sudden_death(self):
        st = make_state(FamilySpec("mnms", 0.7))
        events = detect_events(st, Moun(1.0), _grid())
        assert not [e for e in events if e.kind == "sudden_death"]
        assert {e.kind for e in events} <= {"asymptotic"}

    def test_singlet_rtn_first_death_time(self):
        st = make_state(FamilySpec("werner", 1.0))
        events = detect_events(st, RTN4, _grid())
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
        events = detect_events(st, RTN4, _grid(), threshold=1e-4)
        conc_revivals = [
            e for e in events if e.kind == "revival_peak" and e.measure == "concurrence"
        ]
        laqc_revivals = [e for e in events if e.kind == "revival_peak" and e.measure == "laqc"]
        assert len(conc_revivals) == 1
        assert len(laqc_revivals) >= 2

    def test_concurrence_death_is_not_an_envelope_zero(self):
        st = make_state(FamilySpec("werner", 2.0 / 3.0))
        events = detect_events(st, RTN4, _grid())
        conc_death = [
            e for e in events if e.kind == "sudden_death" and e.measure == "concurrence"
        ][0]
        # dies where the envelope passes 1/2, before the envelope zero
        assert conc_death.t < 0.2
        assert conc_death.value < 1e-9
        from rqcx.noise import lambda_of_t

        assert abs(lambda_of_t(RTN4, conc_death.t)) == pytest.approx(0.5, abs=1e-8)

    def test_grid_resolution_stability(self):
        st = make_state(FamilySpec("werner", 2.0 / 3.0))
        times = {}
        for steps in (600, 1200):
            events = detect_events(st, RTN4, _grid(steps=steps))
            times[steps] = [(e.kind, e.measure, e.t) for e in events]
        assert len(times[600]) == len(times[1200])
        for (k1, m1, t1), (k2, m2, t2) in zip(times[600], times[1200]):
            assert (k1, m1) == (k2, m2)
            assert abs(t1 - t2) < 1e-6

    def test_revival_peaks_are_local_maxima_of_rows(self):
        st = make_state(FamilySpec("werner", 1.0))
        traj = trajectory(st, RTN4, _grid())
        events = detect_events(st, RTN4, _grid())
        ts = traj.t
        for e in events:
            if e.kind != "revival_peak":
                continue
            vals = getattr(traj, e.measure)
            k = int(np.argmin(np.abs(ts - e.t)))
            window = vals[max(0, k - 40) : k + 40]
            assert e.value >= window.max() - 1e-6


class TestSurface:
    def test_sweep_grid_validation(self):
        with pytest.raises(ValueError):
            SweepSpec("mnms", np.array([0.5]), RTN4, np.linspace(0, 3, 10))
        with pytest.raises(ValueError):
            SweepSpec("mnms", np.linspace(1, 0, 5), RTN4, np.linspace(0, 3, 10))

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
    events = detect_events(st, RTN4, _grid(steps=300))
    kinds = {e.kind for e in events}
    assert "sudden_death" in kinds


def test_nan_envelope_gives_nan_measures():
    m = _StateMeasures(make_state(FamilySpec("werner", 0.8)))(np.array([np.nan, 0.5]))
    for name in ("concurrence", "laqc", "qs", "cs"):
        assert np.isnan(m[name][0])
        assert np.isfinite(m[name][1])


# The scalar searches the lane searches replaced, kept as the reference: one
# function call per step, one bracket at a time.

_INVPHI = 0.5 * (np.sqrt(5.0) - 1.0)


def _golden_max(f, lo, hi, tol=1e-9):
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    t = 0.5 * (a + b)
    return t, f(t)


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


def _polish_zero_scalar(model, t0, half_gap):
    lo, hi = t0 - 0.5 * half_gap, t0 + 0.5 * half_gap
    f_lo = lambda_of_t(model, max(lo, 0.0))
    for _ in range(200):
        if hi - lo <= 1e-15:
            break
        mid = 0.5 * (lo + hi)
        f_mid = lambda_of_t(model, mid)
        if f_mid == 0.0:
            return mid
        if (f_lo > 0) == (f_mid > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_NOISES = st.one_of(
    st.floats(0.55, 12.0).map(Rtn),
    st.floats(0.2, 5.0).map(Moun),
    st.floats(0.2, 5.0).map(Markov),
)
_BRACKETS = st.lists(st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 4.0)), min_size=1, max_size=8)


def _ordered(brackets):
    return [(min(p), max(p)) for p in brackets]


class TestLaneSearches:
    """Each lane of a lane search equals the scalar search on its bracket, bit for bit."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), noise=_NOISES, brackets=_BRACKETS)
    def test_bisect_matches_scalar(self, seed, noise, brackets):
        measures = _StateMeasures(random_xstate(np.random.default_rng(seed)))

        def margin(t):
            return measures.margin(np.atleast_1d(lambda_of_t(noise, t)))

        lo, hi = np.array(_ordered(brackets)).T
        lanes = search.bisect(margin, lo, hi, 1e-9)
        for k in range(lo.size):
            assert lanes[k] == _bisect_root(lambda t: float(margin(t)[0]), float(lo[k]), float(hi[k]))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        noise=_NOISES,
        brackets=_BRACKETS,
        names=st.lists(st.sampled_from(["laqc", "qs", "concurrence"]), min_size=8, max_size=8),
    )
    def test_golden_max_matches_scalar(self, seed, noise, brackets, names):
        measures = _StateMeasures(random_xstate(np.random.default_rng(seed)))

        def at(t):
            return measures(np.atleast_1d(lambda_of_t(noise, t)))

        lo, hi = np.array(_ordered(brackets)).T

        def f(t, lanes):
            m = at(t)
            return np.array([m[names[k]][j] for j, k in enumerate(lanes)])

        t, v = search.golden_max(f, lo, hi, 1e-9)
        for k in range(lo.size):
            ref = _golden_max(lambda x: float(at(x)[names[k]][0]), float(lo[k]), float(hi[k]))
            assert (t[k], v[k]) == ref

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(a=st.floats(0.55, 12.0), tmax=st.floats(0.1, 10.0), shift=st.floats(-0.3, 0.3))
    def test_polish_matches_scalar(self, a, tmax, shift):
        model = Rtn(a)
        w = model.omega
        half_gap = 0.5 * np.pi / w
        t0 = (np.arange(1.0, 1.0 + np.ceil(tmax * w / np.pi)) * np.pi - np.arctan(w)) / w
        # off-centre estimates still bracket their zero; past t = 8 a float's
        # spacing exceeds the 1e-15 tolerance and lanes stop after 200 halvings
        t0 = t0 + shift * half_gap
        lanes = _polish_zero(model, t0, half_gap)
        assert lanes.tolist() == [_polish_zero_scalar(model, float(t), half_gap) for t in t0]

    def test_crossover_single_lane(self):
        from rqcx.families import crossover_z

        assert crossover_z() == 0.4214994714145314

    def test_empty_lanes(self):
        assert search.bisect(np.sin, [], [], 1e-9).size == 0
        t, v = search.golden_max(lambda t, lanes: np.sin(t), [], [], 1e-9)
        assert t.size == v.size == 0


_MEASURES = ("concurrence", "laqc", "qs", "cs")
_PARAMS = st.lists(
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 2.0 / 3.0, 1.0])), min_size=2, max_size=12, unique=True
).map(sorted)


@settings(max_examples=120, derandomize=True, deadline=None)
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
