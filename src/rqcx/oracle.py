"""Brute-force measurement-based evaluation of the correlation measures.

Everything here works directly on a 4x4 density matrix with explicit local
projective measurements, independently of the closed forms, so the two
routes can be checked against each other.

A local setting is a pair of Bloch directions (theta, phi per party); the
outcome table is p_ij = Tr[(Pi_i x Pi_j) rho].  Every search maximizes the
classical mutual information.  oracle_set, the one entry point, checks rho
in full, grid and refine once and runs three stages on the Fano parts of
rho: optimize_cmi over all local settings (stage 1, whose first leader is
Wu's cs), laqc_oracle over the bases complementary to the computational
basis, and qs_oracle over those complementary to stage 1's leaders (stage
2).  `rqcx oracle` runs the same stages on an X state that measure_set's
check_xstate has passed, with no second check (`_xstate_oracle_set`).  laqc
is the one-base case of qs's step from phase-stage lanes to a result
(`_phase_result`), and a stage-1 leader that is the computational basis,
bit for bit, takes laqc's lane: when it is the only tied leader (MNMS below
x = 1, MEMS at low x), qs makes no kernel call.  Each stage is
deterministic coarse-to-fine: a grid scan (the four angles, each distinct
measurement once, or the two Hadamard phases), then the rounds of the one
ascent loop `_ascend`, whose step starts at the grid's and halves each
round.  The ascent starts from the scan's own values, so no kernel call
comes between a scan and its first round.  Stage 1 carries its first
`_LEADERS` (8) tied leaders into its refinement and into qs.

Stage 1's grid scan is pruned by two exact bounds, in one sequence for
every state.  Both read A's row terms, formed once per scan (`_row_terms`):
measuring A along n gives outcome s = +-1 with probability p_s and leaves
B's Bloch vector v_s/(2 p_s), v_s = rB + s T^T n.  Fix A's direction n: by
Holevo's theorem no measurement on B draws more than chi_A(n) bits about
A's outcome, so every CMI in A's row n is at most chi_A(n)
(`_holevo_bounds`, one vectorized pass over the rows).  The probe scans the
row of the largest chi_A, and the floor is its best kernel value less
`_TIE_TOL` and a slack `_BOUND_SLACK` of 1e-6; a row whose bound is below
it cannot hold a setting within `_TIE_TOL` of the maximum, and is dropped.
The kept rows are cut into cells of one A direction n and one of B's theta
rings (a grid row of directions at one theta; the pole is a ring of one).
For A's outcome s, B's direction enters the CMI only through m_s = n_B.v_s,
and over a ring m_s fills an interval.  For a fixed input distribution the
mutual information is convex in the channel (Cover and Thomas, Thm 2.7.4),
and B's channel is affine in (m_+, m_-), so no setting of the cell beats
the CMI at the four corners of that box (`_ring_bounds`, one kernel call
per block of rows).  The pole cells' values, the scan's own, may raise the
floor, and only the cells at or above it are scanned.  The kernel exceeds
the exact CMI only by rounding, by at most 3.3e-14 on the states tried, and
the corners' values are kernel values too, so the leaders are the full
scan's, to the bit.  At the default grid, MNMS states below x = 1 scan one
row of 481 settings, and Werner states 15328 or 15360 cells' settings past
the probe and the bounds.  No table of w = n_A.T.n_B is formed: each entry
the scan reads comes from the steered vectors T^T n_A and the grid's
directions, B's rings taken straight from them, by one elementwise formula
(`_pair_w`), so its bits do not depend on which entries a call forms, nor,
on an X state, on the BLAS kernel.

The searches run on batches of L starts, one lane per start.  Every scan and
round is one (L, nA, nB) kernel table, A-major; in a round, each party's
candidates come from its own point.  A lane takes its first best candidate
and moves only on strict improvement, so its result is the one it would reach
alone, to the bit, and the number of kernel calls does not grow with L.

Complementary (mutually unbiased) bases are the one-parameter complex
Hadamard family applied to a base pair.  As the phase a runs over [0, 2pi),
the Bloch direction of the family's first vector, cos(a) e_theta + sin(a)
e_phi for the base direction (theta, phi), sweeps the great circle
orthogonal to it.  The searches work only in that real frame: a setting is
a pair of real Bloch directions, and its CMI comes from the Fano parts of
rho through `kernels.cmi_table`.  The complex route, explicit projectors on
Hadamard bases, is the tests' reference (tests/reference.py).

The LAQC search anchors its distinguished local basis at the computational
basis.  For X states that basis is the one splitting the state into its
classical (diagonal) and coherence sectors, and the unconstrained
classical-correlation minimum is degenerate along a continuum of settings,
so the minimum itself carries no usable basis information; the quantum part
is then the maximal classical mutual information over the two Hadamard
phases of the complementary family.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .states import XStateParams, fano_coefficients, require_density_matrix, xstate_matrix

_TIE_TOL = 1e-9
GRID, REFINE = 32, 4  # oracle_set's default grid resolution and refinement rounds
# Largest grid resolution.  A grid stage at 64 holds 1985**2 settings; the
# bounds prune most of them, but a state they cannot prune (the maximally
# mixed state) scans every cell, and that scan's time grows as grid**4: 16
# times the grid-64 scan at 128.  The CMI and w are formed block by block, so
# memory is not what caps the grid.
GRID_MAX = 64
# Most rounds (a kernel call each per stage); the step is then at most 2.4e-20.
REFINE_MAX = 64
# Tied stage-1 leaders carried into the refinement and into qs: the grid
# stage's first _LEADERS settings within _TIE_TOL of its maximum.
_LEADERS = 8
# Settings per grid-stage block: 32768 doubles, 256 KiB per kernel buffer.
# The largest lane table, qs's phase scan at GRID_MAX with _LEADERS leaders,
# is 8 * 64**2 settings, so every kernel call stays within one block.
BLOCK_ELEMENTS = 1 << 15
# How far below a kernel value the grid stage's row and cell bounds may sit
# before a row or cell is dropped: the kernel's rounding excess over the
# exact CMI was at most 3.3e-14 on the states tried (see `_grid_stage`).
_BOUND_SLACK = 1e-6
_SIGNS = np.array([1.0, -1.0])[:, None, None]  # the two outcomes, on a leading axis
_TWO_PI = 2.0 * np.pi


class LocalMeasurement(NamedTuple):
    theta_a: float
    phi_a: float
    theta_b: float
    phi_b: float


class ComplementarySetting(NamedTuple):
    base: LocalMeasurement
    phi_a: float  # Hadamard phase, party A
    phi_b: float  # Hadamard phase, party B


@dataclass(frozen=True)
class OptimizationResult:
    value: float
    setting: LocalMeasurement | ComplementarySetting
    grid_resolution: int
    refinement_depth: int


@dataclass(frozen=True)
class OracleSet:
    """The oracle's laqc, qs and cs of one state, each with its maximizing setting."""

    laqc: OptimizationResult
    qs: OptimizationResult
    cs: OptimizationResult


def _fano_parts(rho: np.ndarray):
    t = fano_coefficients(rho)
    return t[1:, 0], t[0, 1:], t[1:, 1:]


@functools.cache
def _grid_directions(grid: int):
    """Distinct measurement directions of the grid x grid sphere grid, in scan order, read-only
    and made once per grid.

    The full grid runs theta over [0, pi] (grid points) and phi over [0, 2pi)
    (grid points), theta-major.  Directions n and -n give the same projective
    measurement, so only the first occurrence of each is kept: the theta = 0
    pole once (theta = pi is its antipode), then every inner theta row, except
    that for even grids the rows past the equator are dropped, since each holds
    the antipodes (pi - theta, phi + pi) of an earlier row.  Each inner row is
    a ring of grid directions at one theta, and the pole a ring of one.
    """
    thetas = np.linspace(0.0, np.pi, grid)
    phis = np.linspace(0.0, _TWO_PI, grid, endpoint=False)
    rows = thetas[1 : grid // 2] if grid % 2 == 0 else thetas[1:-1]
    t = np.concatenate(([0.0], np.repeat(rows, grid)))
    p = np.concatenate(([0.0], np.tile(phis, rows.size)))
    directions = _direction(t, p), t, p
    for a in directions:
        a.flags.writeable = False
    return directions


def _direction(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Bloch directions (sin theta cos phi, sin theta sin phi, cos theta) along a new last axis."""
    st = np.sin(theta)
    out = np.empty(np.broadcast_shapes(np.shape(theta), np.shape(phi)) + (3,))
    np.multiply(st, np.cos(phi), out=out[..., 0])
    np.multiply(st, np.sin(phi), out=out[..., 1])
    np.cos(theta, out=out[..., 2])
    return out


def _pair_w(s: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The kernel's w = s.n of steered vectors s = T^T n_A and B's directions n, components on
    the last axis, broadcast: (s0 n0 + s1 n1) + s2 n2, elementwise.

    An entry has the same bits whichever entries a call forms and whatever
    BLAS kernel numpy runs, where a matrix product's rounding depends on
    both.  x = n_A.rA, y = n_B.rB and s stay matrix products: on an X state
    (T diagonal, rA and rB along z) each of their entries is one product
    plus exact zeros, the same under every kernel.
    """
    return (s[..., 0] * n[..., 0] + s[..., 1] * n[..., 1]) + s[..., 2] * n[..., 2]


def _lane_table(parts, da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """CMI of every (A, B) direction pair of each lane: da (L, nA, 3), db (L, nB, 3) give (L, nA, nB)."""
    ra, rb, tt = parts
    return kernels.cmi_table(da @ ra, db @ rb, _pair_w((da @ tt)[:, :, None], db[:, None]))


_OFFSETS = {d: np.array(np.meshgrid(*([(-1, 0, 1)] * d), indexing="ij")).reshape(d, -1).T for d in (1, 2)}


def _ascend(table, fold, cur_a, cur_b, best, step, rounds: int):
    """Neighborhood ascent of L lanes from points cur_a, cur_b (L, d) of values best (L,).

    Each round, a party's 3**d candidates are its point plus the step (a scalar or one per
    coordinate, the same for both parties) times each offset in {-1, 0, 1}**d, base-3 digit
    order, put in range by fold (in place); table gives their (L, 3**d, 3**d) values.  A lane
    takes its first best entry, A-major, and moves only on strict improvement; the step
    halves.  Returns the joined points (L, 2d) and values."""
    offsets, lanes = _OFFSETS[cur_a.shape[1]], np.arange(len(best))
    move = offsets * step
    for _ in range(rounds):
        cand_a, cand_b = fold(cur_a[:, None] + move), fold(cur_b[:, None] + move)
        vals = table(cand_a, cand_b).reshape(len(best), -1)
        k = np.argmax(vals, axis=1)
        top = vals[lanes, k]
        up = top > best
        best = np.where(up, top, best)
        cur_a = np.where(up[:, None], cand_a[lanes, k // len(offsets)], cur_a)
        cur_b = np.where(up[:, None], cand_b[lanes, k % len(offsets)], cur_b)
        move = 0.5 * move
    return np.concatenate((cur_a, cur_b), axis=1), best


def _refine_angles(parts, angles0, values0, grid: int, rounds: int):
    """`_ascend` of L starts (angles0 of shape (L, 4), values0 (L,) their CMI) at once, from the
    grid's (theta, phi) steps, pi/(grid - 1) and 2pi/grid: each party's 9 candidates are (theta, phi)
    moves, one (L, 9, 9) table per round.  The starts' values come from their caller, the grid
    stage's own, so no call precedes the rounds."""

    def table(a, b):
        return _lane_table(parts, _direction(a[..., 0], a[..., 1]), _direction(b[..., 0], b[..., 1]))

    def fold(cand):  # theta clipped to [0, pi], phi mod 2pi
        np.clip(cand[..., 0], 0.0, np.pi, out=cand[..., 0])
        np.remainder(cand[..., 1], _TWO_PI, out=cand[..., 1])
        return cand

    angles, step = np.asarray(angles0, dtype=float), np.array([np.pi / (grid - 1), _TWO_PI / grid])
    return _ascend(table, fold, angles[:, :2], angles[:, 2:], values0, step, rounds)


def _check_search(grid: int, refine: int) -> None:
    """Refuse a grid or refine that is not an integer (a bool is not; a numpy integer is), then one
    out of range: the first check of every oracle call."""
    for name, value in (("grid", grid), ("refine", refine)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"{name} must be an integer, not {type(value).__name__}")
    if grid < 8:
        raise ValueError("grid must be at least 8")
    if grid > GRID_MAX:
        raise ValueError(f"grid must be at most {GRID_MAX} (the grid scan's time grows as grid**4)")
    if refine < 0:
        raise ValueError("refine must be at least 0")
    if refine > REFINE_MAX:
        raise ValueError(f"refine must be at most {REFINE_MAX}")


def _row_terms(parts, n: np.ndarray):
    """A's row terms at its directions n, each row's once: x = n.rA, y = n.rB, the steered vectors
    T^T n, and, on a leading outcome axis, the conditional model (2 p_s, v_s,z, |v_s,xy|).

    Measuring A along n gives outcome s = +-1 with p_s = (1 + s x)/2, kept
    at or above 0 against rounding, and leaves B with Bloch vector v_s/(2
    p_s), v_s = rB + s T^T n.  Both grid bounds read these terms
    (`_holevo_bounds`, `_ring_bounds`), x and the conditional model as one
    tuple.  x, y and T^T n are matrix products; on an X state each entry is
    one product plus exact zeros.
    """
    ra, rb, tt = parts
    x, steer = n @ ra, n @ tt
    v = rb + _SIGNS * steer  # (outcome, row, 3)
    terms = x, np.maximum(1.0 + _SIGNS[:, 0] * x, 0.0), v[..., 2], np.hypot(v[..., 0], v[..., 1])
    return n @ rb, steer, terms


def _holevo_bounds(terms, rb_length: float) -> np.ndarray:
    """chi_A, one per row of A's row terms (`_row_terms`): the Holevo bound of A's measurement
    along each row's direction n, given |rB|.

    chi_A(n) = S(rho_B) - sum_s p_s S(rho_B|s), S the entropy of a Bloch
    length clipped at 1 and a p_s = 0 branch adding 0.  No measurement of B
    draws more than chi_A(n) bits about A's outcome (Holevo), so every CMI
    of A's row n is at most chi_A(n).  p_s S(rho_B|s) is -sum_k e log2 e +
    p_s log2 p_s, e = (2 p_s + k |v_s|)/4 for k = +-1, so chi takes the CMI
    formula's form: joint terms of e, less the marginal terms of n.rA and
    |rB|.
    """
    x, two_p, v_z, v_xy = terms
    length = np.minimum(np.hypot(v_xy, v_z), two_p)  # |v_s|, at most 2 p_s: the Bloch length clipped at 1
    joint = kernels._xlog2x(0.25 * (two_p + _SIGNS * length)).sum(axis=(0, 1))
    marginal = kernels._marginal_plogp(np.append(x, rb_length))
    return joint - marginal[:-1] - marginal[-1]


def _ring_bounds(terms, rows: np.ndarray, thetas: np.ndarray, pole) -> np.ndarray:
    """Bounds of the kernel on each cell of A's rows `rows` (indices into the row terms, `_row_terms`)
    and B's rings, shape (len(rows), 1 + len(thetas)).

    A cell is A's direction n_i with B's ring at one theta of thetas: the
    directions (sin theta cos phi, sin theta sin phi, cos theta) over phi.
    For A's outcome s, B's direction enters the CMI only through m_s =
    n_B.v_s; the kernel's y and w are (m_+ + m_-)/2 and (m_+ - m_-)/2.  Over
    the ring, m_s lies within v_s,z cos theta +- sin theta |v_s,xy|, clipped
    to the +-2 p_s of a valid outcome table.  For a fixed input distribution
    the mutual information is convex in the channel (Cover and Thomas, Thm
    2.7.4), and B's channel is affine in (m_+, m_-), so no setting of the
    cell beats the CMI at a corner of that box: column r + 1 is the largest
    kernel value at the four corners of ring r.  Column 0 is B's pole, a
    ring of one direction, whose kernel values come from the scan's own
    terms, pole = (y at the pole, w's pole column at rows), so they have the
    scan's bits.  The kernel runs in row blocks of at most `BLOCK_ELEMENTS`
    settings.
    """
    x, two_p, v_z, v_xy = terms
    y_pole, w_pole = pole
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    width = 1 + 4 * thetas.size
    step = max(1, BLOCK_ELEMENTS // width)
    bounds = np.empty((rows.size, 1 + thetas.size))
    for r0 in range(0, rows.size, step):
        block, r = slice(r0, r0 + step), rows[r0 : r0 + step]
        # m_s's range on each ring, (low/high, outcome, ring, row): rows last, so every
        # elementwise pass runs along them
        centre, half, edge = v_z[:, None, r] * cos_t[:, None], v_xy[:, None, r] * sin_t[:, None], two_p[:, None, r]
        m = np.clip(np.stack((centre - half, centre + half)), -edge, edge)
        m_plus, m_minus = m[:, None, 0], m[None, :, 1]  # the corners, (m_+ end, m_- end, ring, row)
        y, w = np.empty((r.size, width)), np.empty((r.size, 1, width))
        y[:, 0], w[:, 0, 0] = y_pole, w_pole[block]
        y[:, 1:] = (0.5 * (m_plus + m_minus)).reshape(-1, r.size).T
        w[:, 0, 1:] = (0.5 * (m_plus - m_minus)).reshape(-1, r.size).T
        table = kernels.cmi_table(x[r, None], y, w)[:, 0]
        bounds[block, 0] = table[:, 0]
        bounds[block, 1:] = table[:, 1:].reshape(r.size, 4, -1).max(axis=1)
    return bounds


def _ties(block: np.ndarray):
    """The positions (ascending) and values of a flat block's settings within `_TIE_TOL` of its
    maximum, less those behind `_LEADERS` earlier ones at least as large; the maximum is among them."""
    near = np.flatnonzero(block >= block.max() - _TIE_TOL)
    if near.size > _LEADERS:
        vals, k = block[near], _LEADERS
        near = np.concatenate((near[:k], near[k:][vals[k:] > vals[:k].min()]))
    return near, block[near]


def _grid_stage(parts, grid: int):
    """4-angle grid scan for the CMI maximum; returns its first `_LEADERS` tied leaders (or all,
    if fewer) in scan order, as angles of shape (L, 4) and their values.

    Each party scans the distinct directions of `_grid_directions`, so a
    leader is the first of its ties in the scan order of the full grid.
    Every w entry read comes from `_pair_w` on the steered vectors T^T n_A,
    so each setting's kernel value has the same bits whatever call it is in.

    Only settings that can be within `_TIE_TOL` of the maximum are scanned,
    in one sequence that every state runs, on A's row terms (`_row_terms`),
    formed once and read by the scan and both bounds:

    1. one call scans A's row of the largest Holevo bound chi_A
       (`_holevo_bounds`); its values join the candidates, and the floor is
       their maximum less `_TIE_TOL` and `_BOUND_SLACK`;
    2. every CMI of A's row n is at most chi_A(n), so only the other rows
       whose chi_A is at or above the floor are kept.  Their cells, one A
       direction with one of B's theta rings, are bounded by the kernel at
       the four corners of the box of B's conditional projections
       (`_ring_bounds`); the bound of the pole, a ring of one direction, is
       its kernel value, which joins the candidates and may raise the floor;
    3. the cells whose bound is at or above the floor are scanned, one
       block of at most `BLOCK_ELEMENTS` settings per kernel call.

    Each bound is exact: no CMI of a row or cell exceeds it, and the kernel
    exceeds the exact CMI only by rounding, at most 3.3e-14 on the states
    tried (rank-deficient X states give the most), far inside
    `_BOUND_SLACK`; the corners are kernel values too, so the same slack
    covers their rounding.  The probe's values are grid settings, so the
    stage's maximum is at least the floor plus `_TIE_TOL` and the slack.  A
    row or cell whose bound is below the floor holds no setting within
    `_TIE_TOL` of the maximum, and dropping it changes neither the maximum
    nor its ties: the result is the full scan's, to the bit.  A state whose
    bounds all lie within the slack of 0 (the maximally mixed state) drops
    nothing, and its every cell is scanned.

    No table-sized array is made.  w is formed only where the scan reads
    it: the probe row, the pole column and each block's cells, whose B
    rings are read from the grid's directions.  Each block keeps its
    maximum and every setting within `_TIE_TOL` of it (`_ties`): a tie of
    the overall maximum is within the tolerance of its own block's maximum.
    A block's list is not cut at `_LEADERS`, since a near tie there may fall
    out of the window once a later block raises the maximum; it drops only
    settings behind `_LEADERS` earlier ones at least as large, which are
    never among the first `_LEADERS` ties.  The lists are merged in scan
    order.  The leaders' values are the scan's own kernel values; on an X
    state they have the bits of a lane table at the leaders' angles, so the
    refinement starts from them (`optimize_cmi`).
    """
    na, ta, pa = _grid_directions(grid)
    n = na.shape[0]
    y, steer, terms = _row_terms(parts, na)  # w[i, j] is _pair_w(steer[i], na[j])
    x, rb = terms[0], parts[1]
    chi = _holevo_bounds(terms, np.sqrt(rb @ rb))
    i = int(np.argmax(chi))
    near, vals = _ties(kernels.cmi_table(x[i : i + 1], y, _pair_w(steer[i], na)[None]).ravel())
    found = [(i * n + near, vals)]
    floor = vals.max() - _TIE_TOL - _BOUND_SLACK
    rows = np.flatnonzero(chi >= floor)
    rows = rows[rows != i]
    thetas = ta[1::grid]  # ring r is directions 1 + r grid to (r + 1) grid
    bounds = _ring_bounds(terms, rows, thetas, (y[0], _pair_w(steer[rows], na[0])))
    if rows.size:
        near, vals = _ties(bounds[:, 0])
        found.append((rows[near] * n, vals))
        floor = max(floor, vals.max() - _TIE_TOL - _BOUND_SLACK)
    cells = np.flatnonzero(bounds[:, 1:] >= floor)  # flat (kept row, ring), ascending
    rings, ring_y = na[1:].reshape(-1, grid, 3), y[1:].reshape(-1, grid)
    step = max(1, BLOCK_ELEMENTS // grid)
    for c0 in range(0, cells.size, step):
        ci, cr = np.divmod(cells[c0 : c0 + step], thetas.size)
        ri = rows[ci]
        w = _pair_w(steer[ri, None], rings[cr])[:, None]
        near, vals = _ties(kernels.cmi_table(x[ri, None], ring_y.take(cr, axis=0), w).ravel())
        q, j = np.divmod(near, grid)
        found.append((ri[q] * n + 1 + grid * cr[q] + j, vals))
    idx, vals = (np.concatenate(a) for a in zip(*found))
    order = np.argsort(idx)  # the probe row and the pole column are found first, out of scan order
    idx, vals = idx[order], vals[order]
    lead = np.flatnonzero(vals >= vals.max() - _TIE_TOL)[:_LEADERS]
    ia, ib = np.divmod(idx[lead], n)
    return np.column_stack((ta[ia], pa[ia], ta[ib], pa[ib])), vals[lead]


def optimize_cmi(parts, grid: int, refine: int):
    """Stage 1, the CMI maximum over all local projective bases: the angles (L, 4) and values
    of the grid stage's first `_LEADERS` tied leaders, refined together from the stage's own
    values.  Wu's cs is leader 0's value."""
    return _refine_angles(parts, *_grid_stage(parts, grid), grid, refine)


def _frame(base: np.ndarray):
    """e_theta and e_phi, shape (L, 1, 3) each, at the L Bloch directions (theta, phi) of base (L, 2)."""
    theta, phi = base[:, 0, None, None], base[:, 1, None, None]
    e_theta = np.concatenate((np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -np.sin(theta)), axis=-1)
    return e_theta, np.concatenate((-np.sin(phi), np.cos(phi), np.zeros_like(phi)), axis=-1)


def _complementary_directions(frame, phases: np.ndarray) -> np.ndarray:
    """cos(a) e_theta + sin(a) e_phi in L frames, shape (L, n, 3), at phases a (L, n), or (n,) for every lane."""
    return np.cos(phases)[..., None] * frame[0] + np.sin(phases)[..., None] * frame[1]


def _phase_stage(parts, base: np.ndarray, grid: int, refine: int):
    """Maximize CMI over the two Hadamard phases of the complementary family,
    for L base settings (angles (L, 4)) at once; returns phases (L, 2) and values (L,).

    Each lane scans the full grid x grid phase table, A-phase major, as one
    (L, grid, grid) table, then ascends (`_ascend`) from its first maximum:
    each round is one (L, 3, 3) table of the phases plus or minus the step.
    """
    frame_a, frame_b = _frame(base[:, :2]), _frame(base[:, 2:])

    def table(a, b):
        # phases (L, n, 1), or (n, 1) for every lane
        da, db = _complementary_directions(frame_a, a[..., 0]), _complementary_directions(frame_b, b[..., 0])
        return _lane_table(parts, da, db)

    phases = np.linspace(0.0, _TWO_PI, grid, endpoint=False)[:, None]
    scan = table(phases, phases).reshape(len(base), -1)
    k = np.argmax(scan, axis=1)
    best = scan[np.arange(k.size), k]
    fold = lambda cand: np.remainder(cand, _TWO_PI, out=cand)
    cur, best = _ascend(table, fold, phases[k // grid], phases[k % grid], best, _TWO_PI / grid, refine)
    # max(best, 0.0) lane by lane
    return cur, np.where(0.0 > best, 0.0, best)


def _phase_result(bases: np.ndarray, phases: np.ndarray, values: np.ndarray, grid: int, refine: int):
    """The result of the first of L phase-stage lanes with the largest value: base settings
    (angles (L, 4)) with their lanes' phases (L, 2) and values (L,)."""
    k = int(np.argmax(values))
    setting = ComplementarySetting(LocalMeasurement(*map(float, bases[k])), *map(float, phases[k]))
    return OptimizationResult(float(values[k]), setting, grid, refine)


def laqc_oracle(parts, grid: int, refine: int) -> OptimizationResult:
    """Measurement-based LAQC of the state with Fano parts `parts`.

    The distinguished basis is the computational one (see module docstring);
    the returned value is the phase-stage maximum over its complementary
    family, evaluated from explicit measurement statistics: the one-base
    case of qs_oracle's step.
    """
    base = np.zeros((1, 4))
    return _phase_result(base, *_phase_stage(parts, base, grid, refine), grid, refine)


def qs_oracle(parts, leaders, laqc: OptimizationResult, grid: int, refine: int) -> OptimizationResult:
    """Stage 2 of the symmetric quantum-correlation measure.

    leaders, the angles and values of optimize_cmi (stage 1), are all carried
    forward if tied; stage 2 maximizes over the Hadamard phases of the bases
    complementary to each leader and keeps the first with the overall best.
    A leader whose four angles are bitwise +0.0 is the computational basis,
    whose phase stage laqc_oracle has run: it takes laqc's lane, its phases
    and clamped value, and the phase stage runs on the other leaders alone,
    if there are any.  A lane is the search it would be alone, to the bit, so
    the result is that of the phase stage on every leader.
    """
    angles, values = leaders
    bases = angles[values >= values.max() - _TIE_TOL]
    own = bases.view(np.int64).any(axis=1)  # a bit test: -0.0 runs its own lane
    phases, found = np.empty((len(bases), 2)), np.empty(len(bases))
    phases[~own], found[~own] = (laqc.setting.phi_a, laqc.setting.phi_b), laqc.value
    if own.any():
        phases[own], found[own] = _phase_stage(parts, bases[own], grid, refine)
    return _phase_result(bases, phases, found, grid, refine)


def _stages(parts, grid: int, refine: int) -> OracleSet:
    """The three stages on the Fano parts of a checked state, stage 1 and laqc once each: cs is
    stage 1's leader 0, clamped at 0, and qs_oracle starts from its leaders and laqc's lane.
    The stages are called by their module names, so a timing wrapper set on the module sees each."""
    angles, values = leaders = optimize_cmi(parts, grid, refine)
    cs = OptimizationResult(max(float(values[0]), 0.0), LocalMeasurement(*angles[0]), grid, refine)
    laqc = laqc_oracle(parts, grid, refine)
    return OracleSet(laqc, qs_oracle(parts, leaders, laqc, grid, refine), cs)


def oracle_set(rho: np.ndarray, grid: int = GRID, refine: int = REFINE) -> OracleSet:
    """The oracle's laqc, qs and cs of density matrix rho, with rho, grid and refine checked once:
    rho in full, as any 4x4 density matrix (`require_density_matrix`)."""
    _check_search(grid, refine)
    require_density_matrix(rho)
    return _stages(_fano_parts(rho), grid, refine)


def _xstate_oracle_set(params: XStateParams, grid: int, refine: int) -> OracleSet:
    """The oracle's laqc, qs and cs of an X state that `check_xstate` has passed: grid and refine
    are checked here, params are not.

    `rqcx oracle` checks its state once, with measure_set's check_xstate.
    Every state check_xstate accepts builds a density matrix that
    validate_density_matrix passes: Hermitian, positive semidefinite within
    EIG_TOL and of unit trace within STRUCT_TOL, both checks summing the
    trace in index order (tests/test_states.py).  Its Fano parts are those of
    xstate_matrix(params), so the result is oracle_set(xstate_matrix(params))'s,
    bit for bit.
    """
    _check_search(grid, refine)
    return _stages(_fano_parts(xstate_matrix(params)), grid, refine)
