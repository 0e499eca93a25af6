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

One private kernel, _branches, evaluates g1, g2 and g3 together.
measure_set, g_branch, laqc, qs and cs validate their input and index
into it; the sweep engine takes g3 from it as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import _xlog2x
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
    t_i0, t_0i, t_ii = (b.t30, b.t03, b.t33) if i == 3 else (0.0, 0.0, b.t11 if i == 1 else b.t22)
    return GBranchValues(
        1.0 + t_i0 + t_0i + t_ii,
        1.0 + t_i0 - t_0i - t_ii,
        1.0 - t_i0 + t_0i - t_ii,
        1.0 - t_i0 - t_0i + t_ii,
        i,
    )


def _branches(b: BlochX) -> tuple[float, float, float]:
    """(g1, g2, g3) of a Bloch vector the caller has validated.

    The twelve branch log arguments (alpha..delta of each branch) and the
    four u-terms of g3, 1 +- t03 and 1 +- t30, form one (4, 4) array that
    goes through one _xlog2x and one row sum.  Each value equals the
    branch evaluated on its own, to the bit: a row sum adds in the order of
    a 4-element sum, u(0) = 0 drops out of g1 and g2, and the u-terms are
    added in pairs, u(t03) + u(t30), as u itself adds them.
    """
    x03, x30 = min(max(b.t03, -1.0), 1.0), min(max(b.t30, -1.0), 1.0)
    vals = [
        *branch_values(1, b)[:4], *branch_values(2, b)[:4], *branch_values(3, b)[:4],
        1.0 + x03, 1.0 - x03, 1.0 + x30, 1.0 - x30,
    ]
    if min(vals) < -_BRANCH_TOL:  # the u-terms are never negative
        k = next(k for k in (0, 4, 8) if min(vals[k : k + 4]) < -_BRANCH_TOL)
        low = min(vals[k : k + 4])
        raise ValueError(f"branch {k // 4 + 1} has negative log argument {low:.3e}: unphysical input")
    if max(abs(b.t03), abs(b.t30)) > 1.0 + 1e-12:
        raise ValueError("u(x) requires |x| <= 1")
    terms = _xlog2x(np.array(vals).reshape(4, 4))  # a log argument below 0 counts as 0
    s1, s2, s3, _ = terms.sum(axis=1).tolist()
    p03, m03, p30, m30 = terms[3].tolist()
    g3 = 0.25 * s3 - 0.5 * ((p03 + m03) + (p30 + m30))
    return max(0.25 * s1, 0.0), max(0.25 * s2, 0.0), max(g3, 0.0)


def g_branch(i: int, b: BlochX) -> float:
    require_valid_bloch(b)
    if i not in (1, 2, 3):
        raise ValueError("branch index must be 1, 2, or 3")
    return _branches(b)[(1, 2, 3).index(i)]


def laqc(b: BlochX) -> float:
    """Local available quantum correlations, max(g1, g2); zero for classical states."""
    require_valid_bloch(b)
    g1, g2, _ = _branches(b)
    return max(g1, g2)


def cs(b: BlochX) -> float:
    """Symmetric classical correlations: the best branch of the three."""
    require_valid_bloch(b)
    return max(_branches(b))


def qs(b: BlochX) -> float:
    """Symmetric quantum correlations: second-largest branch, ties included.

    With multiplicity counting, a tie at the top makes qs equal to cs; in
    every case qs <= laqc.
    """
    require_valid_bloch(b)
    return sorted(_branches(b), reverse=True)[1]


def concurrence_x(p: XStateParams) -> float:
    """Wootters concurrence of an X state, normalized to 1 on Bell states."""
    require_valid(p)
    return _concurrence(p)


def _concurrence(p: XStateParams) -> float:
    c1 = 2.0 * (abs(p.r) - math.sqrt(max(p.b, 0.0) * max(p.c, 0.0)))
    c2 = 2.0 * (abs(p.s) - math.sqrt(max(p.a, 0.0) * max(p.d, 0.0)))
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
    """All four measures of a single X state, validated once."""
    b = xstate_to_bloch(p)
    require_valid_bloch(b)
    g1, g2, g3 = _branches(b)
    g = sorted((g1, g2, g3))
    return MeasureSet(concurrence=_concurrence(p), laqc=max(g1, g2), qs=g[1], cs=g[2])


# Array-valued internals used by the sweep engine; no per-call validation.

def _before(x, y):
    """x strictly before y in np.sort's order, which puts NaN last."""
    return (x < y) | (np.isnan(y) & ~np.isnan(x))


def _middle_of_three(g1, g2, g3):
    """The middle of each broadcast triple, to the bit as np.sort gives it.

    A stable compare-exchange network under np.sort's order: order g1 and g2,
    then place g3 against them.  Equal values keep their input order, so a
    zero keeps the sign, and a NaN the bits, that a stable sort of
    (g1, g2, g3) puts in the middle.
    """
    swap = _before(g2, g1)
    lo, hi = np.where(swap, g2, g1), np.where(swap, g1, g2)
    return np.where(_before(g3, lo), lo, np.where(_before(g3, hi), g3, hi))
