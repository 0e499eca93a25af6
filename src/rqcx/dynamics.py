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

import numpy as np

from .families import FamilySpec, make_state
from .measures import _g3_scalar, _middle_of_three, _u
from .noise import NoiseModel, lambda_of_t, lambda_zeros
from .states import BlochX, XStateParams, require_valid, xstate_to_bloch

DEATH_TOL = 1e-9


@dataclass(frozen=True)
class TrajectoryRow:
    t: float
    lam: float
    concurrence: float
    laqc: float
    qs: float
    cs: float


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


def _measure_arrays(state: XStateParams, lam: np.ndarray) -> dict[str, np.ndarray]:
    """All four measures along an envelope array, vectorized."""
    b = xstate_to_bloch(state)
    f = np.asarray(lam, float) ** 2
    g1 = 0.5 * _u(f * b.t11)
    g2 = 0.5 * _u(f * b.t22)
    g3 = np.full_like(g1, _g3_scalar(b.t30, b.t03, b.t33))
    root_bc = np.sqrt(max(state.b, 0.0) * max(state.c, 0.0))
    root_ad = np.sqrt(max(state.a, 0.0) * max(state.d, 0.0))
    margin = np.maximum(
        2.0 * (np.abs(state.r) * f - root_bc),
        2.0 * (np.abs(state.s) * f - root_ad),
    )
    return {
        "concurrence": np.maximum(margin, 0.0),
        "laqc": np.maximum(g1, g2),
        "qs": _middle_of_three(g1, g2, g3),
        "cs": np.maximum(np.maximum(g1, g2), g3),
    }


def trajectory(state: XStateParams, noise: NoiseModel, tgrid) -> list[TrajectoryRow]:
    """Sample envelope and all measures on a time grid."""
    require_valid(state)
    tgrid = np.asarray(tgrid, dtype=float)
    lam = np.atleast_1d(lambda_of_t(noise, tgrid))
    m = _measure_arrays(state, lam)
    return [
        TrajectoryRow(
            t=float(tgrid[i]),
            lam=float(lam[i]),
            concurrence=float(m["concurrence"][i]),
            laqc=float(m["laqc"][i]),
            qs=float(m["qs"][i]),
            cs=float(m["cs"][i]),
        )
        for i in range(tgrid.size)
    ]


def _measure_fn(state: XStateParams, noise: NoiseModel, name: str):
    def f(t: float) -> float:
        lam = np.atleast_1d(lambda_of_t(noise, t))
        return float(_measure_arrays(state, lam)[name][0])

    return f


def _concurrence_margin_fn(state: XStateParams, noise: NoiseModel):
    root_bc = np.sqrt(max(state.b, 0.0) * max(state.c, 0.0))
    root_ad = np.sqrt(max(state.a, 0.0) * max(state.d, 0.0))

    def margin(t: float) -> float:
        f = float(lambda_of_t(noise, t)) ** 2
        return max(2.0 * (abs(state.r) * f - root_bc), 2.0 * (abs(state.s) * f - root_ad))

    return margin


_INVPHI = 0.5 * (np.sqrt(5.0) - 1.0)


def _golden_max(f, lo: float, hi: float, tol: float = 1e-9):
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


def _bisect_root(f, lo: float, hi: float, tol: float = 1e-9) -> float:
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


def _interior_peak(f, lo: float, hi: float):
    """Golden-section max on (lo, hi); None unless strictly interior."""
    if hi - lo < 1e-9:
        return None
    t, v = _golden_max(f, lo, hi)
    h = 1e-4 * (hi - lo)
    if t - h <= lo or t + h >= hi:
        return None
    if not (v > f(t - h) - 1e-15 and v > f(t + h) - 1e-15):
        return None
    return t, v


def detect_events(
    rows: list[TrajectoryRow],
    noise: NoiseModel,
    state: XStateParams,
    threshold: float = 1e-4,
) -> list[EventRecord]:
    """Sudden deaths, revival peaks and asymptotic decay on a trajectory.

    Quantum-measure deaths are taken from the polished envelope zeros, each
    checked to be a sign change of the envelope just around it; concurrence
    boundaries come from bisection on its own signed margin.  Revival peaks
    are golden-section maxima between consecutive zero points and reported
    only above `threshold`.
    """
    if len(rows) < 3:
        raise ValueError("event detection needs at least 3 trajectory rows")
    require_valid(state)
    t_end = rows[-1].t
    zeros = lambda_zeros(noise, t_end)
    _check_sign_changes(noise, zeros)
    events: list[EventRecord] = []
    for name in ("laqc", "qs"):
        events.extend(_envelope_zero_events(rows, state, noise, name, zeros, threshold, t_end))
    events.extend(_concurrence_events(rows, state, noise, zeros, threshold, t_end))
    events.sort(key=lambda e: (e.t, e.measure, e.kind))
    return events


def _check_sign_changes(noise: NoiseModel, zeros) -> None:
    """Each envelope zero must be a sign change of Lambda itself.

    Lambda is evaluated 1e-7 left and right of the zero, not at the nearest
    samples, so a coarse time grid cannot hide the crossing.
    """
    h = 1e-7
    for tz in zeros:
        if lambda_of_t(noise, max(tz - h, 0.0)) * lambda_of_t(noise, tz + h) > 0:
            raise RuntimeError(f"envelope zero at t={tz} is not a sign change of Lambda")


def _row_peak(rows, lo, hi, attr) -> float:
    vals = [getattr(r, attr) for r in rows if lo - 1e-12 <= r.t <= hi + 1e-12]
    return max(vals, default=0.0)


def _envelope_zero_events(rows, state, noise, name, zeros, threshold, t_end):
    f = _measure_fn(state, noise, name)
    events = []
    bounds = [0.0] + list(zeros)
    for k, tz in enumerate(zeros):
        pre = max(_row_peak(rows, bounds[k], tz, name), f(0.5 * (bounds[k] + tz)))
        if pre > threshold:
            events.append(EventRecord("sudden_death", name, float(tz), f(tz)))
    segments = [(zeros[k], zeros[k + 1]) for k in range(len(zeros) - 1)]
    if zeros:
        segments.append((zeros[-1], t_end))
    for lo, hi in segments:
        peak = _interior_peak(f, lo, hi)
        if peak is not None and peak[1] > threshold:
            events.append(EventRecord("revival_peak", name, float(peak[0]), float(peak[1])))
    if not zeros and f(0.0) > threshold and f(t_end) < f(0.0):
        events.append(EventRecord("asymptotic", name, float(t_end), f(t_end)))
    return events


def _concurrence_events(rows, state, noise, zeros, threshold, t_end):
    margin = _concurrence_margin_fn(state, noise)
    conc = _measure_fn(state, noise, "concurrence")
    ts = [row.t for row in rows]
    mvals = [margin(t) for t in ts]
    boundaries: list[tuple[float, bool]] = []  # (time, is_death)
    for k in range(len(ts) - 1):
        if mvals[k] > 0.0 >= mvals[k + 1]:
            boundaries.append((_bisect_root(margin, ts[k], ts[k + 1]), True))
        elif mvals[k] <= 0.0 < mvals[k + 1]:
            boundaries.append((_bisect_root(margin, ts[k], ts[k + 1]), False))
    # touching zeros: the margin dips to zero exactly on an envelope zero and
    # comes straight back (no sign change for the samplers to see)
    for tz in zeros:
        if abs(margin(tz)) < 1e-12 and not any(abs(tz - tb) < 1e-7 for tb, _ in boundaries):
            lo = max(0.0, tz - 1e-3)
            hi = min(t_end, tz + 1e-3)
            if margin(lo) > 1e-12 and margin(hi) > 1e-12:
                boundaries.append((float(tz), True))
    boundaries.sort()
    events = []
    deaths = [tb for tb, is_death in boundaries if is_death]
    for tb in deaths:
        pre = max(_row_peak(rows, max(0.0, tb - 1.0), tb, "concurrence"), conc(0.0))
        if pre > threshold:
            events.append(EventRecord("sudden_death", "concurrence", float(tb), conc(tb)))
    if deaths:
        cuts = sorted({tb for tb, _ in boundaries if tb >= deaths[0] - 1e-12} | {t_end})
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            peak = _interior_peak(conc, lo, hi)
            if peak is not None and peak[1] > threshold:
                events.append(
                    EventRecord("revival_peak", "concurrence", float(peak[0]), float(peak[1]))
                )
    elif conc(0.0) > threshold and conc(t_end) < conc(0.0):
        events.append(EventRecord("asymptotic", "concurrence", float(t_end), conc(t_end)))
    return events


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
    lam = np.atleast_1d(lambda_of_t(spec.noise, tgrid))
    values = np.empty((params.size, tgrid.size))
    for i, p in enumerate(params):
        state = make_state(FamilySpec(spec.family, float(p)))
        m = _measure_arrays(state, lam)
        values[i] = m[measure_a] - m[measure_b]
    return params, tgrid, values
