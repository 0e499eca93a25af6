"""Time-evolution sweeps, sudden-death/revival detection, difference surfaces.

The dephasing channel scales only the coherence coefficients (by Lambda^2),
so along a trajectory the diagonal-sector branch g3 is a constant while
g1, g2 and the concurrence follow the envelope.  Sudden deaths of the
quantum measures under RTN land exactly on the envelope zeros; concurrence
dies where its own signed margin crosses zero, which generally happens at
nonzero envelope values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .families import FamilySpec, make_state
from .measures import _branches, _middle_of_three, _u
from .noise import NoiseModel, Rtn, lambda_of_t, lambda_zeros
from .search import bisect, golden_max
from .states import XStateParams, require_valid_bloch, xstate_to_bloch

DEATH_TOL = 1e-9
_PEAK_MEASURES = ("laqc", "qs", "concurrence")


class Trajectory(NamedTuple):
    """The envelope and all four measures on a time grid, one array each."""

    t: np.ndarray
    lam: np.ndarray
    concurrence: np.ndarray
    laqc: np.ndarray
    qs: np.ndarray
    cs: np.ndarray


@dataclass(frozen=True)
class EventRecord:
    kind: str  # sudden_death | revival_peak | asymptotic
    measure: str  # concurrence | laqc | qs
    t: float
    value: float


@dataclass(frozen=True)
class SweepSpec:
    family: str
    param_grid: np.ndarray
    noise: NoiseModel
    time_grid: np.ndarray

    def __post_init__(self):
        for name, grid in (("param", self.param_grid), ("time", self.time_grid)):
            grid = np.asarray(grid, float)
            if grid.size < 2:
                raise ValueError(f"{name} grid needs at least 2 points")
            if not grid[0] < grid[-1]:
                raise ValueError(f"{name} grid must be increasing")


class _StateMeasures:
    """The measures of one X state, or of a sequence of them, as functions of Lambda.

    The channel scales only t11 and t22, by Lambda^2, so g3 and the
    concurrence thresholds are computed once per state.  Each state is
    validated once, as measure_set validates it.  For a sequence of n
    states the per-state constants are (n, 1) columns, so an envelope of
    shape (T,) gives (n, T) measures.
    """

    def __init__(self, states: XStateParams | list[XStateParams]):
        one = isinstance(states, XStateParams)
        consts = []
        for p in [states] if one else states:
            b = xstate_to_bloch(p)
            require_valid_bloch(b)
            root_bc = np.sqrt(max(p.b, 0.0) * max(p.c, 0.0))
            root_ad = np.sqrt(max(p.a, 0.0) * max(p.d, 0.0))
            consts.append((b.t11, b.t22, _branches(b)[2], np.abs(p.r), np.abs(p.s), root_bc, root_ad))
        cols = np.array(consts).T
        cols = cols[:, 0] if one else cols[:, :, None]
        self._t11, self._t22, self._g3, self._r, self._s, self._root_bc, self._root_ad = cols

    def margin(self, lam: np.ndarray) -> np.ndarray:
        """The signed concurrence margin; the concurrence is its positive part."""
        return self._margin(np.asarray(lam, float) ** 2)

    def _margin(self, f: np.ndarray) -> np.ndarray:
        return np.maximum(2.0 * (self._r * f - self._root_bc), 2.0 * (self._s * f - self._root_ad))

    def __call__(self, lam: np.ndarray) -> dict[str, np.ndarray]:
        """All four measures along an envelope array."""
        f = np.asarray(lam, float) ** 2
        g1 = 0.5 * _u(f * self._t11)
        g2 = 0.5 * _u(f * self._t22)
        margin = self._margin(f)
        return {
            "concurrence": np.maximum(margin, 0.0),
            "laqc": np.maximum(g1, g2),
            "qs": _middle_of_three(g1, g2, self._g3),
            "cs": np.maximum(np.maximum(g1, g2), self._g3),
        }


def trajectory(state: XStateParams, noise: NoiseModel, tgrid) -> Trajectory:
    """Sample the envelope and all measures on a time grid."""
    measures = _StateMeasures(state)
    t = np.array(tgrid, dtype=float)
    lam = np.atleast_1d(lambda_of_t(noise, t))
    return Trajectory(t, lam, **measures(lam))


def detect_events(
    state: XStateParams,
    noise: NoiseModel,
    tgrid,
    threshold: float = 1e-4,
) -> list[EventRecord]:
    """Sudden deaths, revival peaks and asymptotic decay over a time grid.

    Quantum-measure deaths are taken from the polished envelope zeros, each
    checked to be a sign change of the envelope just around it; concurrence
    boundaries come from bisection on its own signed margin.  Revival peaks
    are golden-section maxima between consecutive zero points and reported
    only above `threshold`.  All brackets of a kind are searched together
    (`rqcx.search`), one measure evaluation per step.  The time grid only
    seeds the searches: its samples gate deaths and bracket the margin.
    """
    measures = _StateMeasures(state)
    ts = np.asarray(tgrid, dtype=float)
    if ts.size < 3:
        raise ValueError("event detection needs at least 3 trajectory rows")
    t_end = float(ts[-1])
    zeros = lambda_zeros(noise, t_end)
    _check_sign_changes(noise, zeros)

    def at(t):
        return measures(np.atleast_1d(lambda_of_t(noise, t)))

    def margin(t):
        return measures.margin(np.atleast_1d(lambda_of_t(noise, t)))

    sampled = at(ts)
    boundaries = _concurrence_boundaries(ts, margin, noise, zeros, t_end)
    deaths = np.array([tb for tb, is_death in boundaries if is_death])
    # every point value in one call: both ends, the envelope zeros, the
    # midpoints before them and the concurrence deaths
    bounds = np.concatenate(([0.0], zeros))
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    values = at(np.concatenate(([0.0, t_end], zeros, mids, deaths)))
    parts = np.cumsum([1, 1, len(zeros), len(zeros)])
    segments = []  # (lo, hi, measure) of every revival search
    for name in ("laqc", "qs"):
        segments += [(lo, hi, name) for lo, hi in zip(zeros, zeros[1:] + [t_end])]
    if deaths.size:
        cuts = sorted({tb for tb, _ in boundaries if tb >= deaths[0] - 1e-12} | {t_end})
        segments += [(lo, hi, "concurrence") for lo, hi in zip(cuts[:-1], cuts[1:])]
    peak_t, peak_v, is_peak = _segment_maxima(at, segments)
    # per measure, the maximum of each segment that ends on a zero
    closing = peak_v[: 2 * len(zeros)].reshape(2, len(zeros))[:, :-1]
    events: list[EventRecord] = []
    for j, name in enumerate(("laqc", "qs")):
        start, end, on_zero, on_mid, _ = np.split(values[name], parts)
        # the largest value seen before each zero: a sample, the midpoint, or
        # the maximum of the segment between the previous zero and this one
        pre = np.maximum(_sampled_peaks(ts, sampled[name], bounds[:-1], zeros), on_mid)
        pre[1:] = np.maximum(pre[1:], closing[j])
        events += [
            EventRecord("sudden_death", name, float(tz), float(v))
            for tz, p, v in zip(zeros, pre, on_zero)
            if p > threshold
        ]
        if not zeros and start[0] > threshold and end[0] < start[0]:
            events.append(EventRecord("asymptotic", name, float(t_end), float(end[0])))
    start, end, _, _, on_death = np.split(values["concurrence"], parts)
    sampled_max = _sampled_peaks(ts, sampled["concurrence"], np.maximum(0.0, deaths - 1.0), deaths)
    pre = np.maximum(sampled_max, start[0])
    events += [
        EventRecord("sudden_death", "concurrence", float(tb), float(v))
        for tb, p, v in zip(deaths, pre, on_death)
        if p > threshold
    ]
    if not deaths.size and start[0] > threshold and end[0] < start[0]:
        events.append(EventRecord("asymptotic", "concurrence", float(t_end), float(end[0])))
    events += [
        EventRecord("revival_peak", segments[k][2], float(peak_t[k]), float(peak_v[k]))
        for k in np.flatnonzero(is_peak)
        if peak_v[k] > threshold
    ]
    events.sort(key=lambda e: (e.t, e.measure, e.kind))
    return events


def _check_sign_changes(noise: NoiseModel, zeros) -> None:
    """Each envelope zero must be a sign change of Lambda itself.

    Lambda is evaluated 1e-7 left and right of the zero, not at the nearest
    samples, so a coarse time grid cannot hide the crossing.
    """
    if not zeros:
        return
    h, zs = 1e-7, np.array(zeros)
    lam = lambda_of_t(noise, np.concatenate((np.maximum(zs - h, 0.0), zs + h)))
    bad = np.flatnonzero(lam[: zs.size] * lam[zs.size :] > 0)
    if bad.size:
        raise RuntimeError(f"envelope zero at t={zeros[bad[0]]} is not a sign change of Lambda")


def _sampled_peaks(ts, vals, lo, hi) -> np.ndarray:
    """Largest sampled value on each [lo_k, hi_k] (edges widened by 1e-12); 0 where none falls."""
    out = np.zeros(len(lo))
    for k, (a, b) in enumerate(zip(lo, hi)):
        inside = vals[(ts >= a - 1e-12) & (ts <= b + 1e-12)]
        if inside.size:
            out[k] = inside.max()
    return out


def _envelope_turns(noise: NoiseModel, zeros, t_end: float) -> np.ndarray:
    """Critical points of Lambda^2 in (0, t_end]: the zeros, then for RTN the extrema.

    Lambda' = -exp(-t) (omega + 1/omega) sin(omega t) vanishes at t = k pi/omega.
    MOUN and Markov envelopes are monotone and have none.
    """
    if not isinstance(noise, Rtn):
        return np.empty(0)
    w = noise.omega
    return np.concatenate((zeros, np.arange(1.0, np.floor(t_end * w / np.pi) + 1.0) * np.pi / w))


def _concurrence_boundaries(ts, margin, noise, zeros, t_end) -> list[tuple[float, bool]]:
    """Zero crossings of the concurrence margin as sorted (time, is_death) pairs.

    `margin` maps an array of times to the margin there.  A sample interval
    whose ends differ in sign is bisected.  Sampled signs alone miss a death
    and its revival inside one interval, so each interval is also followed
    through its interior critical points of L^2: the margin
    max(2(|r|L^2 - sqrt(bc)), 2(|s|L^2 - sqrt(ad))) never decreases as L^2
    grows, so it is monotone between them.  Where that path shows more than
    one sign change, each of its changes is bisected instead.  Touching
    zeros, where the margin dips to zero exactly on an envelope zero and
    comes straight back, are added last.
    """
    m = margin(ts)
    alive = m > 0.0
    brackets = {k: [(ts[k], ts[k + 1], alive[k])] for k in np.flatnonzero(alive[:-1] != alive[1:])}
    turns = _envelope_turns(noise, zeros, t_end)
    m_turns = margin(turns) if turns.size else turns
    paths: dict[int, list] = {}
    for t, mt, k in sorted(zip(turns, m_turns, np.searchsorted(ts, turns) - 1)):
        # a touching zero (|margin| < 1e-12) is not a sign change
        if 0 <= k < ts.size - 1 and ts[k] < t < ts[k + 1] and abs(mt) >= 1e-12:
            paths.setdefault(k, [(ts[k], m[k])]).append((t, mt))
    for k, path in paths.items():
        path.append((ts[k + 1], m[k + 1]))
        steps = [(a, b, ma > 0.0) for (a, ma), (b, mb) in zip(path, path[1:]) if (ma > 0.0) != (mb > 0.0)]
        if len(steps) > 1:
            brackets[k] = steps
    lanes = [lane for k in sorted(brackets) for lane in brackets[k]]
    roots = bisect(margin, [lo for lo, _, _ in lanes], [hi for _, hi, _ in lanes], 1e-9)
    boundaries = [(t, bool(death)) for t, (_, _, death) in zip(roots.tolist(), lanes)]
    touching = [j for j in range(len(zeros)) if abs(m_turns[j]) < 1e-12]
    if touching:
        tz = np.array(zeros)[touching]
        near = margin(np.concatenate((np.maximum(0.0, tz - 1e-3), np.minimum(t_end, tz + 1e-3))))
        for t, lo, hi in zip(tz.tolist(), near[: tz.size], near[tz.size :]):
            if not any(abs(t - tb) < 1e-7 for tb, _ in boundaries) and lo > 1e-12 and hi > 1e-12:
                boundaries.append((t, True))
    boundaries.sort()
    return boundaries


def _segment_maxima(at, segments):
    """Golden-section maxima of every (lo, hi, measure) segment at once.

    `at` maps an array of times to the measures there.  Gives the arrays t
    and v of each segment's maximum and a mask of the revival peaks: the
    maxima of segments at least 1e-9 wide that lie strictly inside their
    segment and are local maxima there.
    """
    if not segments:
        return np.empty(0), np.empty(0), np.empty(0, dtype=bool)
    lo = np.array([seg[0] for seg in segments])
    hi = np.array([seg[1] for seg in segments])
    which = np.array([_PEAK_MEASURES.index(seg[2]) for seg in segments])

    def f(t, lanes):
        m = at(t)
        return np.stack([m[name] for name in _PEAK_MEASURES])[which[lanes], np.arange(t.size)]

    t, v = golden_max(f, lo, hi, 1e-9)
    h = 1e-4 * (hi - lo)
    inner = np.flatnonzero(~(hi - lo < 1e-9) & ~(t - h <= lo) & ~(t + h >= hi))
    side = f(np.concatenate((t[inner] - h[inner], t[inner] + h[inner])), np.concatenate((inner, inner)))
    local = (v[inner] > side[: inner.size] - 1e-15) & (v[inner] > side[inner.size :] - 1e-15)
    peak = np.zeros(lo.size, dtype=bool)
    peak[inner[local]] = True
    return t, v, peak


def surface(spec: SweepSpec, measure_a: str, measure_b: str):
    """Difference surface measure_a - measure_b over (param, t).

    Returns (param_grid, time_grid, values) with values[i, j] at
    (param_grid[i], time_grid[j]).
    """
    names = ("concurrence", "laqc", "qs", "cs")
    if measure_a not in names or measure_b not in names:
        raise ValueError(f"measures must be among {names}")
    params = np.asarray(spec.param_grid, dtype=float)
    tgrid = np.asarray(spec.time_grid, dtype=float)
    measures = _StateMeasures([make_state(FamilySpec(spec.family, float(p))) for p in params])
    m = measures(np.atleast_1d(lambda_of_t(spec.noise, tgrid)))
    return params, tgrid, m[measure_a] - m[measure_b]
