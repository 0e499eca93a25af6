"""Lane searches: many independent 1-D searches advanced together.

Each lane is one bracket.  Every step evaluates the function once (with its
slope, for Newton) on the array of the live lanes' points, so a search over
n brackets costs as many calls as the slowest lane needs rather than n times
that.  Per lane, the float operations and their order are those of the
classic scalar loop, and numpy's elementwise results do not depend on where
an element sits in the array, so a lane's answer equals the scalar search's
bit for bit.
"""

from __future__ import annotations

import numpy as np


def bisect(f, lo, hi, tol) -> np.ndarray:
    """A root of f in every bracket [lo_i, hi_i], all brackets at once.

    f maps an array of points to an array of values.  A lane keeps the end
    whose sign (f > 0 or not) differs from the midpoint's and stops at a
    midpoint where f is exactly 0, which is then its root; otherwise its root
    is the midpoint of its bracket once that is no wider than tol, or after
    200 halvings.
    """
    lo = np.array(lo, dtype=float, ndmin=1)
    hi = np.array(hi, dtype=float, ndmin=1)
    if not lo.size:
        return lo
    f_lo = np.asarray(f(lo), dtype=float)
    root = np.full(lo.size, np.nan)
    live = np.arange(lo.size)
    for _ in range(200):
        live = live[~(hi[live] - lo[live] <= tol)]
        if not live.size:
            break
        mid = 0.5 * (lo[live] + hi[live])
        f_mid = np.asarray(f(mid), dtype=float)
        hit = f_mid == 0.0
        root[live[hit]] = mid[hit]
        live, mid, f_mid = live[~hit], mid[~hit], f_mid[~hit]
        same = (f_mid > 0) == (f_lo[live] > 0)
        lo[live[same]] = mid[same]
        f_lo[live[same]] = f_mid[same]
        hi[live[~same]] = mid[~same]
    return np.where(np.isnan(root), 0.5 * (lo + hi), root)


def newton(f, lo, hi, tol) -> np.ndarray:
    """A root of f in every bracket [lo_i, hi_i] by safeguarded Newton, all brackets at once.

    f maps an array of points to a pair of arrays, its values and its
    slopes, and each lane needs f(lo) > 0 >= f(hi), except that a lane with
    f(hi) > 0 stops at once with root hi.  A lane starts at hi.
    Each point it evaluates replaces the end on its side of the root (lo
    where f > 0, hi otherwise), and the lane takes the Newton step from it.
    The lane stops once that raw step or its bracket is no longer than its
    tol (one for all lanes, or one per lane); its root is then the stepped
    point, kept in the bracket.  Otherwise a step that leaves the open
    bracket is replaced by the bracket's midpoint.  After 100 rounds a lane's
    root is the point it would evaluate next.
    """
    lo = np.array(lo, dtype=float, ndmin=1)
    hi = np.array(hi, dtype=float, ndmin=1)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), lo.shape)
    root = hi.copy()
    live, x = np.arange(lo.size), hi
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            if not live.size:
                break
            y, dy = f(x)
            above = y > 0.0
            lo, hi = np.where(above, x, lo), np.where(above, hi, x)
            delta = y / dy
            step = x - delta
            # convergence is judged on the raw step: a converged point is now
            # a bracket end, so its next step would not land strictly inside
            done = (np.abs(delta) <= tol) | (hi - lo <= tol)
            root[live[done]] = np.minimum(np.maximum(step[done], lo[done]), hi[done])
            going = ~done
            live, lo, hi, tol, step = live[going], lo[going], hi[going], tol[going], step[going]
            x = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
    root[live] = x
    return root
