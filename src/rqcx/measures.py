"""Closed-form correlation measures for 2-qubit X states.

All quantities follow from the three "branch" values g1, g2, g3: the
classical mutual information produced by measuring both qubits along the
x, y, or z axes.  For X states these reduce to

    g1 = u(T11)/2,   g2 = u(T22)/2,
    g3 = sum_v (v/4) log2(v) - [u(T30) + u(T03)]/2   over v in {alpha..delta}

with u(x) = (1+x) log2(1+x) + (1-x) log2(1-x), alpha..delta =
1 +- T30 +- T03 +- T33, and each branch clamped at 0.  The LAQC measure is
max(g1, g2): the quantum correlations recoverable in bases mutually
unbiased to the computational basis, which g3 (a purely classical,
diagonal-sector quantity) never feeds.  Wu's symmetric classical measure
takes the best of all three branches and the quantum one the runner-up.

Every closed form lives here, each evaluated one way, with two entry
points.  `measure_set` checks one state once, with `states.check_xstate`,
and reads all four measures off `_branches` and the coherences and roots
the check returns; neither entry point reads a field of the state.
The sweep engine `_StateMeasures` checks each state the same way and takes
the same float operations along an envelope, so at Lambda = 1 it gives
measure_set's values to the bit.  Its branches are then finite and at least
+0.0, so min and max alone give qs (`_middle_of_three`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import _xlog2x
from .states import XStateParams, check_xstate

MEASURES = ("concurrence", "laqc", "qs", "cs")  # MeasureSet's fields, in order


@dataclass(frozen=True)
class MeasureSet:
    """Wootters' concurrence (1 on Bell states); laqc = max(g1, g2), the local
    available quantum correlations; Wu's cs, the largest branch; and Wu's qs,
    the middle branch with ties counted.  So qs <= laqc <= cs."""

    concurrence: float
    laqc: float
    qs: float
    cs: float


def _u(x):
    """u(x) = (1+x)log2(1+x) + (1-x)log2(1-x), with 0*log(0) = 0 at |x| = 1."""
    x = np.asarray(x, dtype=float)
    return _xlog2x(1.0 + x) + _xlog2x(1.0 - x)


def _branches(t30: float, t03: float, t11: float, t22: float, t33: float) -> tuple[float, float, float]:
    """(g1, g2, g3) of the Fano coefficients of a state that check_xstate passed.

    One _xlog2x call takes twelve log arguments: 1 +- t11, 1 +- t22,
    alpha..delta, and 1 +- t03, 1 +- t30, with t03 and t30 clipped to
    [-1, 1].  g1 and g2 take the float operations of 0.5 * _u, as the sweep
    engine does.
    check_xstate keeps every log argument above -4e-12 (alpha..delta are four
    times the weights its Bloch decision reconstructs); one below 0 counts as 0.
    """
    x03, x30 = min(max(t03, -1.0), 1.0), min(max(t30, -1.0), 1.0)
    p11, m11, p22, m22, alpha, beta, gamma, delta, p03, m03, p30, m30 = _xlog2x(
        np.array([
            1.0 + t11, 1.0 - t11, 1.0 + t22, 1.0 - t22,
            1.0 + t30 + t03 + t33, 1.0 + t30 - t03 - t33, 1.0 - t30 + t03 - t33, 1.0 - t30 - t03 + t33,
            1.0 + x03, 1.0 - x03, 1.0 + x30, 1.0 - x30,
        ])
    ).tolist()
    g3 = 0.25 * (alpha + beta + gamma + delta) - 0.5 * ((p03 + m03) + (p30 + m30))
    return max(0.5 * (p11 + m11), 0.0), max(0.5 * (p22 + m22), 0.0), max(g3, 0.0)


def measure_set(p: XStateParams) -> MeasureSet:
    """All four measures of a single X state, checked once by check_xstate.

    Every number comes from the check's tuple, not from a field of p, so a
    field of any numeric type gives the measures of its float.  The
    concurrence is max(0, 2(|r| - sqrt(bc)), 2(|s| - sqrt(ad))), with the
    coherences and roots the check returns.
    """
    t30, t03, t11, t22, t33, root_ad, root_bc, r, s = check_xstate(p)
    g1, g2, g3 = _branches(t30, t03, t11, t22, t33)
    g = sorted((g1, g2, g3))
    concurrence = float(max(0.0, 2.0 * (r - root_bc), 2.0 * (s - root_ad)))
    return MeasureSet(concurrence=concurrence, laqc=max(g1, g2), qs=g[1], cs=g[2])


# The sweep engine: array-valued, each state checked once.

def _middle_of_three(g1, g2, g3):
    """The middle of each broadcast triple of branches, np.sort's middle to the
    bit: every branch is finite and at least +0.0 (`_u` never gives -0.0, g1
    and g2 are clamped at 0, and g3 is never computed as -0.0)."""
    return np.maximum(np.minimum(g1, g2), np.minimum(np.maximum(g1, g2), g3))


class _StateMeasures:
    """The measures of one X state, or of a sequence of them, as functions of Lambda.

    The channel scales only t11 and t22, by Lambda^2, so g3 and the
    concurrence's coherences and roots are computed once, and each state is
    checked once, by check_xstate as in measure_set; every constant is read
    off the check's tuple, never off a field of the state.  g1, g2 and the margin
    take the float operations of `_branches` and measure_set's concurrence:
    at Lambda = 1 every measure equals measure_set's to the bit.  For a sequence of n states the per-state
    constants are (n, 1) columns, so an envelope of shape (T,) gives (n, T)
    measures.
    """

    def __init__(self, states: XStateParams | list[XStateParams]):
        one = isinstance(states, XStateParams)
        consts = []
        for p in [states] if one else states:
            t30, t03, t11, t22, t33, root_ad, root_bc, r, s = check_xstate(p)
            g3 = _branches(t30, t03, t11, t22, t33)[2]
            consts.append((t11, t22, g3, r, root_bc, s, root_ad))
        cols = np.array(consts).T
        cols = cols[:, 0] if one else cols[:, :, None]
        self._t11, self._t22, self._g3, self._r, self._root_bc, self._s, self._root_ad = cols

    def _margin(self, f: np.ndarray) -> np.ndarray:
        """The signed concurrence margin at L^2 = f; the concurrence is its positive part."""
        return np.maximum(2.0 * (self._r * f - self._root_bc), 2.0 * (self._s * f - self._root_ad))

    def death_level(self) -> float | None:
        """kappa: the concurrence of one state is positive exactly when L^2 > kappa.

        The margin is positive exactly when L^2 > min(sqrt(bc)/|r|,
        sqrt(ad)/|s|), the minimum taken over the terms whose coherence
        exceeds its root (in a valid state at most one does); each such
        quotient is below 1.  None when no term does: the concurrence is then
        0 for every Lambda.
        """
        pairs = ((self._r, self._root_bc), (self._s, self._root_ad))
        return min([float(root / coh) for coh, root in pairs if coh > root], default=None)

    def __call__(self, lam: np.ndarray) -> dict[str, np.ndarray]:
        """All four measures along an envelope array."""
        f = np.asarray(lam, float) ** 2
        g1 = np.maximum(0.5 * _u(f * self._t11), 0.0)
        g2 = np.maximum(0.5 * _u(f * self._t22), 0.0)
        return {
            "concurrence": np.maximum(self._margin(f), 0.0),
            "laqc": np.maximum(g1, g2),
            "qs": _middle_of_three(g1, g2, self._g3),
            "cs": np.maximum(np.maximum(g1, g2), self._g3),
        }
