"""Lane searches: many independent 1-D searches advanced together.

Each lane is one bracket.  Every step evaluates the function once, on the
array of the live lanes' points, so a search over n brackets costs as many
calls as the slowest lane needs rather than n times that.  Per lane, the
float operations and their order are those of the classic scalar loop, and
numpy's elementwise results do not depend on where an element sits in the
array, so a lane's answer equals the scalar search's bit for bit.
"""

from __future__ import annotations

import numpy as np


def bisect(f, lo, hi, tol) -> np.ndarray:
    """A root of f in every bracket [lo_i, hi_i], all brackets at once.

    f maps an array of points to an array of values.  A lane keeps the end
    whose sign (f > 0 or not) differs from the midpoint's and stops at a
    midpoint where f is exactly 0, which is then its root; otherwise its root
    is the midpoint of its bracket once that is no wider than its tol (one
    for all lanes, or one per lane), or after 200 halvings.
    """
    lo = np.array(lo, dtype=float, ndmin=1)
    hi = np.array(hi, dtype=float, ndmin=1)
    if not lo.size:
        return lo
    tol = np.broadcast_to(np.asarray(tol, dtype=float), lo.shape)
    f_lo = np.asarray(f(lo), dtype=float)
    root = np.full(lo.size, np.nan)
    live = np.arange(lo.size)
    for _ in range(200):
        live = live[~(hi[live] - lo[live] <= tol[live])]
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

