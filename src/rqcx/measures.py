"""Closed-form correlation measures for 2-qubit X states.

All quantities follow from the three "branch" values g1, g2, g3: the
classical mutual information produced by measuring both qubits along the
x, y, or z axes.  For X states these reduce to

    g1 = u(T11)/2,   g2 = u(T22)/2,
    g3 = sum_v (v/4) log2(v) - [u(T30) + u(T03)]/2   over v in {alpha..delta}

with u(x) = (1+x) log2(1+x) + (1-x) log2(1-x).  The LAQC measure is
max(g1, g2): the quantum correlations recoverable in bases mutually
unbiased to the computational basis, which g3 (a purely classical,
diagonal-sector quantity) never feeds.  Wu's symmetric classical measure
takes the best of all three branches and the quantum one the runner-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .states import (
    SIGMA_Y,
    BlochX,
    XStateParams,
    bloch_to_xstate,
    require_density_matrix,
    require_valid,
    require_valid_bloch,
    xstate_to_bloch,
)

_BRANCH_TOL = 1e-10  # slack for log arguments before declaring input unphysical


class GBranchValues(NamedTuple):
    alpha: float
    beta: float
    gamma: float
    delta: float
    branch: int


@dataclass(frozen=True)
class MeasureSet:
    concurrence: float
    laqc: float
    qs: float
    cs: float


def _xlog2x(v: np.ndarray) -> np.ndarray:
    """v*log2(v) elementwise, 0 where v <= 0 (0*log 0 = 0); NaN stays NaN."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape)
    mask = ~(v <= 0.0)
    out[mask] = v[mask] * np.log2(v[mask])
    return out


def _u(x):
    x = np.asarray(x, dtype=float)
    return _xlog2x(1.0 + x) + _xlog2x(1.0 - x)


def u_func(x):
    """u(x) = (1+x)log2(1+x) + (1-x)log2(1-x), with 0*log(0) = 0 at |x| = 1."""
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > 1.0 + 1e-12):
        raise ValueError("u(x) requires |x| <= 1")
    arr = np.clip(arr, -1.0, 1.0)
    val = _u(arr)
    return float(val) if val.ndim == 0 else val


def branch_values(i: int, b: BlochX) -> GBranchValues:
    """alpha/beta/gamma/delta for branch i; their sum is exactly 4."""
    if i not in (1, 2, 3):
        raise ValueError("branch index must be 1, 2, or 3")
    t_i0, t_0i = (b.t30, b.t03) if i == 3 else (0.0, 0.0)
    t_ii = {1: b.t11, 2: b.t22, 3: b.t33}[i]
    return GBranchValues(
        alpha=1.0 + t_i0 + t_0i + t_ii,
        beta=1.0 + t_i0 - t_0i - t_ii,
        gamma=1.0 - t_i0 + t_0i - t_ii,
        delta=1.0 - t_i0 - t_0i + t_ii,
        branch=i,
    )


def g_branch(i: int, b: BlochX) -> float:
    require_valid_bloch(b)
    vals = branch_values(i, b)
    arr = np.array(vals[:4], dtype=float)
    if arr.min() < -_BRANCH_TOL:
        raise ValueError(f"branch {i} has negative log argument {arr.min():.3e}: unphysical input")
    arr = np.clip(arr, 0.0, None)
    t_i0, t_0i = (b.t30, b.t03) if i == 3 else (0.0, 0.0)
    g = 0.25 * float(_xlog2x(arr).sum()) - 0.5 * (u_func(t_0i) + u_func(t_i0))
    return max(g, 0.0)


def laqc(b: BlochX) -> float:
    """Local available quantum correlations, max(g1, g2); zero for classical states."""
    require_valid_bloch(b)
    return max(g_branch(1, b), g_branch(2, b))


def cs(b: BlochX) -> float:
    """Symmetric classical correlations: the best branch of the three."""
    require_valid_bloch(b)
    return max(g_branch(i, b) for i in (1, 2, 3))


def qs(b: BlochX) -> float:
    """Symmetric quantum correlations: second-largest branch, ties included.

    With multiplicity counting, a tie at the top makes qs equal to cs; in
    every case qs <= laqc.
    """
    require_valid_bloch(b)
    g = sorted((g_branch(1, b), g_branch(2, b), g_branch(3, b)), reverse=True)
    return g[1]


def concurrence_x(p: XStateParams) -> float:
    """Wootters concurrence of an X state, normalized to 1 on Bell states."""
    require_valid(p)
    c1 = 2.0 * (abs(p.r) - np.sqrt(max(p.b, 0.0) * max(p.c, 0.0)))
    c2 = 2.0 * (abs(p.s) - np.sqrt(max(p.a, 0.0) * max(p.d, 0.0)))
    return float(max(0.0, c1, c2))


def concurrence_general(rho: np.ndarray) -> float:
    """Wootters concurrence from the spin-flip eigenvalue construction.

    The decreasing eigenvalue roots of sqrt(rho) rho~ sqrt(rho) (equivalently
    of rho * rho~) are the singular values of K = sqrt(rho) (sy x sy)
    sqrt(rho)^T, computed here by SVD; that avoids square-rooting noisy
    near-zero eigenvalues and keeps rank-deficient states accurate.  Serves
    as the oracle for the X-state closed form.
    """
    rho = np.asarray(rho, dtype=complex)
    require_density_matrix(rho)
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    sq = (v * np.sqrt(w)) @ v.conj().T
    k = sq @ np.kron(SIGMA_Y, SIGMA_Y).real @ sq.T
    s = np.linalg.svd(k, compute_uv=False)
    return float(max(0.0, s[0] - s[1] - s[2] - s[3]))


def measure_set(p: XStateParams) -> MeasureSet:
    """All four measures of a single X state."""
    b = xstate_to_bloch(p)
    g = sorted((g_branch(1, b), g_branch(2, b), g_branch(3, b)))
    return MeasureSet(
        concurrence=concurrence_x(p),
        laqc=max(g_branch(1, b), g_branch(2, b)),
        qs=g[1],
        cs=g[2],
    )


# Array-valued internals used by the sweep engine; no per-call validation.

def _g3_scalar(t30: float, t03: float, t33: float) -> float:
    vals = np.array(
        [
            1.0 + t30 + t03 + t33,
            1.0 + t30 - t03 - t33,
            1.0 - t30 + t03 - t33,
            1.0 - t30 - t03 + t33,
        ]
    )
    vals = np.clip(vals, 0.0, None)
    g = 0.25 * float(_xlog2x(vals).sum()) - 0.5 * float(_u(t30) + _u(t03))
    return max(g, 0.0)


def _middle_of_three(g1, g2, g3):
    stacked = np.stack(np.broadcast_arrays(g1, g2, g3))
    return np.sort(stacked, axis=0)[1]
