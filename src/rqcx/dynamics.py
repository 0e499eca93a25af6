"""Time-evolution sweeps, sudden-death/revival detection, difference surfaces.

Every measure along an envelope comes from one engine, `measures._StateMeasures`,
which gives measure_set's values at Lambda = 1 and clamps each measure at 0.
The dephasing channel scales only the coherence coefficients (by Lambda^2),
so g3 is constant along a trajectory while g1, g2 and the concurrence follow
the envelope.  Events come from the noise model's own closed forms: sudden
deaths of the quantum measures land exactly on its zeros and revival peaks
on its extrema; concurrence dies at the model's crossings of its death level
kappa, where Lambda^2 falls through kappa, generally at nonzero envelope
values.  No event is searched for here, and no zero is re-checked: each
is a simple zero of its closed form (Lambda' != 0 there).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .families import FamilySpec, make_state
from .measures import MEASURES, _StateMeasures
from .noise import NoiseModel, lambda_of_t, lambda_zeros
from .states import XStateParams

THRESHOLD = 1e-4  # detect_events' default threshold, also `rqcx events --revival-threshold`'s


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


def trajectory(state: XStateParams, noise: NoiseModel, tgrid) -> Trajectory:
    """Sample the envelope and all measures on a time grid."""
    measures = _StateMeasures(state)
    t = np.array(tgrid, dtype=float)
    lam = np.atleast_1d(lambda_of_t(noise, t))
    return Trajectory(t, lam, **measures(lam))


def detect_events(state: XStateParams, noise: NoiseModel, t_end: float,
                  threshold: float = THRESHOLD) -> list[EventRecord]:
    """Sudden deaths, revival peaks and asymptotic decay in the window (0, t_end].

    Every measure is a nondecreasing function of L^2, so each event has a
    closed-form place.  laqc and qs die on the envelope zeros, and the
    concurrence where L^2 falls through its death level (see
    `_concurrence_deaths`).  A death is reported when the measure exceeds
    `threshold` at the last extremum before it (t = 0 before the first).
    Revival peaks sit at the envelope extrema and are reported where the
    measure exceeds `threshold`.
    `t_end` must be finite and positive, and `threshold` finite and
    nonnegative.
    """
    if not (np.isfinite(threshold) and threshold >= 0.0):
        raise ValueError(f"revival threshold must be finite and nonnegative, got {threshold}")
    measures = _StateMeasures(state)
    t_end = float(t_end)
    zeros = lambda_zeros(noise, t_end)
    extrema = noise.extrema(t_end)
    deaths = _concurrence_deaths(measures, noise, zeros, t_end)
    # every point value in one call: both ends, the zeros, the extrema and
    # the concurrence deaths
    values = measures(lambda_of_t(noise, np.concatenate(([0.0, t_end], zeros, extrema, deaths))))
    parts = np.cumsum([1, 1, zeros.size, extrema.size])
    events: list[EventRecord] = []
    for name in ("laqc", "qs", "concurrence"):
        start, end, on_zero, on_extremum, on_death = np.split(values[name], parts)
        dies, on_dead = (deaths, on_death) if name == "concurrence" else (zeros, on_zero)
        # the value at the last extremum before each death, t = 0 first
        gate = np.concatenate((start, on_extremum))[np.searchsorted(extrema, dies)]
        events += _records("sudden_death", name, dies, on_dead, gate > threshold)
        if dies.size:
            # every extremum k >= 1 lies after the first zero, and the first
            # concurrence death is no later than that zero
            events += _records("revival_peak", name, extrema, on_extremum, on_extremum > threshold)
        elif start[0] > threshold and end[0] < start[0]:
            events.append(EventRecord("asymptotic", name, t_end, float(end[0])))
    events.sort(key=lambda e: (e.t, e.measure, e.kind))
    return events


def _records(kind: str, name: str, t: np.ndarray, value: np.ndarray, keep: np.ndarray) -> list[EventRecord]:
    """One EventRecord per time that `keep` selects."""
    return [EventRecord(kind, name, ti, vi) for ti, vi in zip(t[keep].tolist(), value[keep].tolist())]


def _concurrence_deaths(measures: _StateMeasures, noise: NoiseModel, zeros: np.ndarray, t_end) -> np.ndarray:
    """Sorted times where L^2 falls through kappa, the concurrence's death level.

    The concurrence is positive exactly while L^2 > kappa (see
    `_StateMeasures.death_level`); with no kappa it is 0 from the start and
    never dies, with kappa = 0 it dies on each envelope zero, and otherwise
    it dies at the noise model's own crossings of kappa.
    """
    kappa = measures.death_level()
    if kappa is None:
        return np.empty(0)
    if kappa == 0.0:
        return zeros
    return noise.crossings(kappa, t_end)


def surface(spec: SweepSpec, measure_a: str, measure_b: str):
    """Difference surface measure_a - measure_b over (param, t).

    Returns (param_grid, time_grid, values) with values[i, j] at
    (param_grid[i], time_grid[j]).
    """
    if measure_a not in MEASURES or measure_b not in MEASURES:
        raise ValueError(f"measures must be among {MEASURES}")
    params = np.asarray(spec.param_grid, dtype=float)
    tgrid = np.asarray(spec.time_grid, dtype=float)
    measures = _StateMeasures([make_state(FamilySpec(spec.family, float(p))) for p in params])
    m = measures(lambda_of_t(spec.noise, tgrid))
    return params, tgrid, m[measure_a] - m[measure_b]
