"""Brute-force measurement-based evaluation of the correlation measures.

Everything here works directly on a 4x4 density matrix with explicit local
projective measurements, independently of the closed forms, so the two
routes can be checked against each other.

A local setting is a pair of Bloch directions (theta, phi per party); the
outcome table is p_ij = Tr[(Pi_i x Pi_j) rho].  Every search maximizes the
classical mutual information: optimize_cmi over all local settings (Wu's
cs), qs_oracle over the bases complementary to its maximizing settings, and
laqc_oracle over those complementary to the computational basis.  Each is
deterministic coarse-to-fine: a grid scan (the four angles, each distinct
measurement once, or the two Hadamard phases), then local refinement rounds
that halve the step, ties going to the lexicographically smallest angles.

The searches run on batches of L starts, one lane per start.  Every
refinement round, and every phase-stage scan or round, evaluates the
candidates of all lanes in one kernel call; each lane then takes its own
first best candidate, and moves only if that strictly beats its current
value.  So a lane's result is the one it would reach alone, to the bit,
and an oracle call makes the same number of kernel calls however many
tied leaders it carries.

Complementary (mutually unbiased) bases come from the one-parameter complex
Hadamard family applied to a base pair, which sweeps the full great circle
orthogonal to the base direction as the phase runs over [0, 2pi).

The LAQC search anchors its distinguished local basis at the computational
basis.  For X states that basis is the one splitting the state into its
classical (diagonal) and coherence sectors, and the unconstrained
classical-correlation minimum is degenerate along a continuum of settings,
so the minimum itself carries no usable basis information; the quantum part
is then the maximal classical mutual information over the two Hadamard
phases of the complementary family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .states import fano_coefficients, require_density_matrix

_TIE_TOL = 1e-9
# Largest grid resolution.  A grid stage at 64 scans 1985**2 settings, and a
# grid-64 oracle call peaks at about 62 MB resident, w taking 32 MB; the CMI
# is reduced block by block, so no table of it is held.  w grows as grid**4,
# so at 128 it alone would take about 0.5 GB.
GRID_MAX = 64
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


class ProbabilityTable(NamedTuple):
    p00: float
    p01: float
    p10: float
    p11: float


@dataclass(frozen=True)
class OptimizationResult:
    value: float
    setting: LocalMeasurement | ComplementarySetting
    grid_resolution: int
    refinement_depth: int


def basis_vectors(theta, phi) -> np.ndarray:
    """Orthonormal basis (columns) along the Bloch direction (theta, phi).

    Array angles of shape (L,) give a stack of L bases, shape (L, 2, 2).
    """
    ct, st = np.cos(0.5 * theta), np.sin(0.5 * theta)
    ph = np.exp(1.0j * phi)
    return np.moveaxis(np.array([[ct, -st], [ph * st, ph * ct]], dtype=complex), (0, 1), (-2, -1))


def bloch_direction(vec: np.ndarray) -> np.ndarray:
    """Bloch vector <v|sigma|v> of a single-qubit state vector; shape (..., 2) gives (..., 3)."""
    vec = np.asarray(vec)
    v0, v1 = vec[..., 0], vec[..., 1]
    cross = np.conj(v0) * v1
    return np.stack((2.0 * cross.real, 2.0 * cross.imag, np.abs(v0) ** 2 - np.abs(v1) ** 2), axis=-1)


def complementary_basis(basis: np.ndarray, phase: float) -> np.ndarray:
    """Apply the phase-parametrized complex Hadamard to a basis column pair."""
    basis = np.asarray(basis, dtype=complex)
    if basis.shape != (2, 2) or np.max(np.abs(basis.conj().T @ basis - np.eye(2))) > 1e-10:
        raise ValueError("input basis must be a 2x2 orthonormal column pair")
    ph = np.exp(1.0j * phase)
    hadamard = np.array([[1.0, 1.0], [ph, -ph]], dtype=complex) / np.sqrt(2.0)
    return basis @ hadamard


def post_measurement_probs(rho: np.ndarray, m: LocalMeasurement) -> ProbabilityTable:
    """Outcome probabilities of the local projective measurement m on rho."""
    rho = np.asarray(rho, dtype=complex)
    ba = basis_vectors(m.theta_a, m.phi_a)
    bb = basis_vectors(m.theta_b, m.phi_b)
    probs = []
    for i in range(2):
        proj_a = np.outer(ba[:, i], ba[:, i].conj())
        for j in range(2):
            proj_b = np.outer(bb[:, j], bb[:, j].conj())
            probs.append(float(np.trace(np.kron(proj_a, proj_b) @ rho).real))
    probs = [max(p, 0.0) for p in probs]
    return ProbabilityTable(*probs)


def classical_mutual_info(table) -> float:
    """H(A) + H(B) - H(AB) in bits, with the 0*log(0) = 0 convention."""
    p = np.asarray(table, dtype=float).reshape(2, 2)

    def plogp(v):
        v = v[v > 0.0]
        return float(np.sum(v * np.log2(v)))

    value = plogp(p.ravel()) - plogp(p.sum(axis=1)) - plogp(p.sum(axis=0))
    return max(value, 0.0)


def _fano_parts(rho: np.ndarray):
    t = fano_coefficients(rho)
    return t[1:, 0].copy(), t[0, 1:].copy(), t[1:, 1:].copy()


def _grid_directions(grid: int):
    """Distinct measurement directions of the grid x grid sphere grid, in scan order.

    The full grid runs theta over [0, pi] (grid points) and phi over [0, 2pi)
    (grid points), theta-major.  Directions n and -n give the same projective
    measurement, so only the first occurrence of each is kept: the theta = 0
    pole once (theta = pi is its antipode), then every inner theta row, except
    that for even grids the rows past the equator are dropped, since each holds
    the antipodes (pi - theta, phi + pi) of an earlier row.
    """
    thetas = np.linspace(0.0, np.pi, grid)
    phis = np.linspace(0.0, _TWO_PI, grid, endpoint=False)
    rows = thetas[1 : grid // 2] if grid % 2 == 0 else thetas[1:-1]
    t = np.concatenate(([0.0], np.repeat(rows, grid)))
    p = np.concatenate(([0.0], np.tile(phis, rows.size)))
    return _direction(t, p), t, p


def _direction(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Bloch directions (sin theta cos phi, sin theta sin phi, cos theta), one row per angle pair."""
    st = np.sin(theta)
    return np.column_stack((st * np.cos(phi), st * np.sin(phi), np.cos(theta)))


def _paired_cmi(parts, da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """CMI of the paired directions da[..., i, :] and db[..., i, :], in one kernel call."""
    ra, rb, tt = parts
    shape = da.shape[:-1]
    da = da.reshape(-1, 3)
    db = db.reshape(-1, 3)
    w = np.einsum("ij,jk,ik->i", da, tt, db)
    return kernels.cmi_flat(da @ ra, db @ rb, w).reshape(shape)


def _cmi_at_angles(parts, angles: np.ndarray) -> np.ndarray:
    ta, pa, tb, pb = np.atleast_2d(angles).T
    return _paired_cmi(parts, _direction(ta, pa), _direction(tb, pb))


def _take_improvements(vals: np.ndarray, cand: np.ndarray, best: np.ndarray, cur: np.ndarray):
    """One round's update of L lanes: each lane's first best candidate
    (vals (L, n), cand (L, n, d)) replaces its current point (best (L,),
    cur (L, d)) only where it strictly beats it, so ties keep scan order."""
    lanes = np.arange(vals.shape[0])
    k = np.argmax(vals, axis=1)
    top = vals[lanes, k]
    up = top > best
    return np.where(up, top, best), np.where(up[:, None], cand[lanes, k], cur)


_OFFSETS_4 = np.array(np.meshgrid(*([(-1, 0, 1)] * 4), indexing="ij")).reshape(4, -1).T


def _refine_angles(parts, angles0, steps0, rounds: int):
    """Local neighborhood ascent of L starts (angles0 of shape (L, 4)) at once.

    The step halves each round, and each round evaluates every lane's 81
    candidates in one kernel call.
    """
    angles = np.array(angles0, dtype=float)
    steps = np.asarray(steps0, dtype=float)
    best = _cmi_at_angles(parts, angles)
    for _ in range(rounds):
        cand = angles[:, None, :] + _OFFSETS_4 * steps
        cand[..., 0] = np.clip(cand[..., 0], 0.0, np.pi)
        cand[..., 2] = np.clip(cand[..., 2], 0.0, np.pi)
        cand[..., 1] %= _TWO_PI
        cand[..., 3] %= _TWO_PI
        vals = _cmi_at_angles(parts, cand.reshape(-1, 4)).reshape(cand.shape[:2])
        best, angles = _take_improvements(vals, cand, best, angles)
        steps = 0.5 * steps
    return angles, best


def _search_parts(rho: np.ndarray, grid: int, refine: int):
    """The Fano parts of rho, once grid, refine and rho are checked: each search's one validation."""
    if grid < 8:
        raise ValueError("grid must be at least 8")
    if grid > GRID_MAX:
        raise ValueError(f"grid must be at most {GRID_MAX} (the grid scan's memory grows as grid**4)")
    if refine < 0:
        raise ValueError("refine must be at least 0")
    require_density_matrix(rho)
    return _fano_parts(rho)


def optimize_cmi(rho: np.ndarray, grid: int = 32, refine: int = 4) -> OptimizationResult:
    """Maximize CMI over all local projective bases (Wu's cs), at the first leader of `_max_leaders`."""
    angles, values = _max_leaders(_search_parts(rho, grid, refine), grid, refine)
    return OptimizationResult(
        value=max(float(values[0]), 0.0),
        setting=LocalMeasurement(*angles[0]),
        grid_resolution=grid,
        refinement_depth=refine,
    )


def _grid_steps(grid: int) -> np.ndarray:
    dt = np.pi / (grid - 1)
    dp = _TWO_PI / grid
    return np.array([dt, dp, dt, dp])


def _grid_stage(parts, grid: int, keep: int = 1):
    """4-angle grid scan for the CMI maximum; returns up to `keep` tied leaders in scan order,
    as angles of shape (L, 4) and their values.

    Each party scans the distinct directions of `_grid_directions`, so a
    leader is the first of its ties in the scan order of the full grid.
    w is one matrix product (row slices of it can round differently); the
    CMI is then evaluated and reduced one row block of at most
    `kernels.BLOCK_ELEMENTS` settings at a time, so no table-sized array is
    made.  Each block keeps its maximum and every setting within `_TIE_TOL`
    of it: a tie of the overall maximum is within the tolerance of its own
    block's maximum.  A block's list is not cut at `keep`, since a near tie
    there may fall out of the window once a later block raises the maximum;
    it drops only settings behind `keep` earlier ones at least as large,
    which are never among the first `keep` ties.
    """
    ra, rb, tt = parts
    na, ta, pa = _grid_directions(grid)
    n = na.shape[0]
    x = na @ ra
    y = na @ rb
    w = na @ tt @ na.T
    rows = max(1, kernels.BLOCK_ELEMENTS // n)
    tops, found, values = [], [], []
    for r0 in range(0, n, rows):
        block = kernels.cmi_table(x[r0 : r0 + rows], y, w[r0 : r0 + rows]).ravel()
        top = block.max()
        near = np.flatnonzero(block >= top - _TIE_TOL)
        if near.size > keep:
            vals = block[near]
            near = np.concatenate((near[:keep], near[keep:][vals[keep:] > vals[:keep].min()]))
        tops.append(top)
        found.append(near + r0 * n)
        values.append(block[near])
    best = float(np.max(tops))
    idx, vals = np.concatenate(found), np.concatenate(values)
    lead = np.flatnonzero(vals >= best - _TIE_TOL)[:keep]
    ia, ib = np.divmod(idx[lead], n)
    return np.column_stack((ta[ia], pa[ia], ta[ib], pa[ib])), vals[lead]


# (key, leaders) of the last stage-1 search, one tuple so a reader never pairs
# one call's key with another call's leaders
_last_leaders: tuple | None = None


def _max_leaders(parts, grid: int, refine: int):
    """Stage 1 of the CMI maximum: the grid stage's first 8 tied leaders, refined together.

    Returns their angles, shape (L, 4), and values.  qs_oracle carries every
    leader forward; optimize_cmi takes leader 0.  Both search the
    same state in turn, so the last result is kept, keyed by the exact bytes
    of the Fano parts with grid and refine.
    """
    global _last_leaders
    key = (b"".join(part.tobytes() for part in parts), grid, refine)
    last = _last_leaders
    if last is not None and last[0] == key:
        return last[1]
    angles, _ = _grid_stage(parts, grid, keep=8)
    leaders = _refine_angles(parts, angles, _grid_steps(grid), refine)
    _last_leaders = (key, leaders)
    return leaders


def _phase_directions(bases: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Bloch directions, shape (L, n, 3), of the first complementary vector of
    each of L bases (L, 2, 2) at that lane's n Hadamard phases (L, n), or at
    n phases (n,) shared by every lane."""
    e0 = bases[:, None, :, 0]
    e1 = bases[:, None, :, 1]
    return bloch_direction((e0 + np.exp(1.0j * phases)[..., None] * e1) / np.sqrt(2.0))


_OFFSETS_2 = np.array(np.meshgrid((-1, 0, 1), (-1, 0, 1), indexing="ij")).reshape(2, -1).T


def _phase_stage(parts, bases_a: np.ndarray, bases_b: np.ndarray, grid: int, refine: int):
    """Maximize CMI over the two Hadamard phases of the complementary family,
    for L base pairs (L, 2, 2) at once; returns phases (L, 2) and values (L,).

    Each lane scans the full grid x grid phase table, A-phase major: the
    directions at the grid phases are computed once per lane and paired.
    """
    phases = np.linspace(0.0, _TWO_PI, grid, endpoint=False)
    ia, ib = np.divmod(np.arange(grid * grid), grid)
    da = _phase_directions(bases_a, phases)[:, ia]
    db = _phase_directions(bases_b, phases)[:, ib]
    table = _paired_cmi(parts, da, db)
    k = np.argmax(table, axis=1)
    cur = np.column_stack((phases[ia[k]], phases[ib[k]]))
    best = table[np.arange(k.size), k]
    step = _TWO_PI / grid
    for _ in range(refine):
        cand = (cur[:, None, :] + _OFFSETS_2 * step) % _TWO_PI
        vals = _paired_cmi(
            parts, _phase_directions(bases_a, cand[..., 0]), _phase_directions(bases_b, cand[..., 1])
        )
        best, cur = _take_improvements(vals, cand, best, cur)
        step *= 0.5
    # max(best, 0.0) lane by lane
    return cur, np.where(0.0 > best, 0.0, best)


def laqc_oracle(rho: np.ndarray, grid: int = 32, refine: int = 4) -> OptimizationResult:
    """Measurement-based LAQC of an X-shaped density matrix.

    The distinguished basis is the computational one (see module docstring);
    the returned value is the phase-stage maximum over its complementary
    family, evaluated from explicit measurement statistics.
    """
    parts = _search_parts(rho, grid, refine)
    eye = np.eye(2, dtype=complex)[None]
    phases, values = _phase_stage(parts, eye, eye, grid, refine)
    setting = ComplementarySetting(LocalMeasurement(0.0, 0.0, 0.0, 0.0), *map(float, phases[0]))
    return OptimizationResult(float(values[0]), setting, grid, refine)


def qs_oracle(rho: np.ndarray, grid: int = 32, refine: int = 4) -> OptimizationResult:
    """Two-stage search for the symmetric quantum-correlation measure.

    Stage 1 maximizes CMI over all local bases (several tied leaders are all
    carried forward); stage 2 maximizes over the Hadamard phases of the
    bases complementary to each leader and keeps the overall best.
    """
    parts = _search_parts(rho, grid, refine)
    angles, values = _max_leaders(parts, grid, refine)
    angles = angles[values >= values.max() - _TIE_TOL]
    bases_a = basis_vectors(angles[:, 0], angles[:, 1])
    bases_b = basis_vectors(angles[:, 2], angles[:, 3])
    phases, values = _phase_stage(parts, bases_a, bases_b, grid, refine)
    # the first leader with the largest value
    k = int(np.argmax(values))
    setting = ComplementarySetting(LocalMeasurement(*angles[k]), *map(float, phases[k]))
    return OptimizationResult(float(values[k]), setting, grid, refine)
