"""The lane root finder: many independent 1-D Newton searches advanced together.

Each lane is one bracket.  Every step evaluates the function and its slope
once on the array of the live lanes' points, so a search over n brackets
costs as many calls as the slowest lane needs rather than n times that.  Per
lane, the float operations and their order are those of the classic scalar
loop, and numpy's elementwise results do not depend on where an element sits
in the array, so a lane's answer equals the scalar search's bit for bit.
"""

from __future__ import annotations

import numpy as np


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
    # a zero, subnormal or NaN slope makes a non-finite step, which the bracket test replaces
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
