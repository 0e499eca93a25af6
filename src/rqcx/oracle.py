"""Brute-force measurement-based evaluation of the correlation measures.

Everything here works directly on a 4x4 density matrix with explicit local
projective measurements, independently of the closed forms, so the two
routes can be checked against each other.

A local setting is a pair of Bloch directions (theta, phi per party); the
outcome table is p_ij = Tr[(Pi_i x Pi_j) rho].  The searches are
deterministic coarse-to-fine: a grid over the four angles that scans each
distinct measurement once, followed by local refinement rounds that halve
the step, with ties resolved toward the lexicographically smallest angle
tuple.

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
# grid-64 oracle call peaks at about 96 MB resident, the CMI table and w
# taking 32 MB each.  Both grow as grid**4, so 128 would need about 1.1 GB.
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


def basis_vectors(theta: float, phi: float) -> np.ndarray:
    """Orthonormal basis (columns) along the Bloch direction (theta, phi)."""
    ct, st = np.cos(0.5 * theta), np.sin(0.5 * theta)
    ph = np.exp(1.0j * phi)
    return np.array([[ct, -st], [ph * st, ph * ct]], dtype=complex)


def bloch_direction(vec: np.ndarray) -> np.ndarray:
    """Bloch vector <v|sigma|v> of a single-qubit state vector."""
    v0, v1 = vec
    cross = np.conj(v0) * v1
    return np.array([2.0 * cross.real, 2.0 * cross.imag, abs(v0) ** 2 - abs(v1) ** 2])


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
    st = np.sin(t)
    return np.column_stack((st * np.cos(p), st * np.sin(p), np.cos(t))), t, p


def _angles_to_dirs(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ta, pa, tb, pb = angles.T
    na = np.column_stack((np.sin(ta) * np.cos(pa), np.sin(ta) * np.sin(pa), np.cos(ta)))
    nb = np.column_stack((np.sin(tb) * np.cos(pb), np.sin(tb) * np.sin(pb), np.cos(tb)))
    return na, nb


def _cmi_at_angles(parts, angles: np.ndarray) -> np.ndarray:
    ra, rb, tt = parts
    na, nb = _angles_to_dirs(np.atleast_2d(angles))
    x = na @ ra
    y = nb @ rb
    w = np.einsum("ij,jk,ik->i", na, tt, nb)
    return kernels.cmi_flat(x, y, w)


_OFFSETS_4 = np.array(np.meshgrid(*([(-1, 0, 1)] * 4), indexing="ij")).reshape(4, -1).T


def _refine_angles(parts, angles0, steps0, rounds: int, sign: float):
    """Local neighborhood descent; step halves each round, ties keep scan order."""
    angles = np.asarray(angles0, dtype=float)
    steps = np.asarray(steps0, dtype=float)
    best = sign * float(_cmi_at_angles(parts, angles)[0])
    for _ in range(rounds):
        cand = angles[None, :] + _OFFSETS_4 * steps[None, :]
        cand[:, 0] = np.clip(cand[:, 0], 0.0, np.pi)
        cand[:, 2] = np.clip(cand[:, 2], 0.0, np.pi)
        cand[:, 1] %= _TWO_PI
        cand[:, 3] %= _TWO_PI
        vals = sign * _cmi_at_angles(parts, cand)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best = float(vals[k])
            angles = cand[k]
        steps = 0.5 * steps
    return angles, sign * best


def _check_search(grid: int, refine: int) -> None:
    if grid < 8:
        raise ValueError("grid must be at least 8")
    if grid > GRID_MAX:
        raise ValueError(f"grid must be at most {GRID_MAX} (the grid scan's memory grows as grid**4)")
    if refine < 0:
        raise ValueError("refine must be at least 0")


def optimize_cmi(rho: np.ndarray, mode: str, grid: int = 32, refine: int = 4) -> OptimizationResult:
    """Extremize classical mutual information over all local projective bases."""
    if mode not in ("min", "max"):
        raise ValueError("mode must be 'min' or 'max'")
    _check_search(grid, refine)
    require_density_matrix(rho)
    parts = _fano_parts(rho)
    if mode == "max":
        angles, value = _max_leaders(parts, grid, refine)[0]
    else:
        angles, value = _grid_stage(parts, grid, -1.0)[0]
        angles, value = _refine_angles(parts, angles, _grid_steps(grid), refine, -1.0)
    return OptimizationResult(
        value=max(value, 0.0),
        setting=LocalMeasurement(*angles),
        grid_resolution=grid,
        refinement_depth=refine,
    )


def _grid_steps(grid: int) -> np.ndarray:
    dt = np.pi / (grid - 1)
    dp = _TWO_PI / grid
    return np.array([dt, dp, dt, dp])


def _grid_stage(parts, grid: int, sign: float, keep: int = 1):
    """4-angle grid scan; returns up to `keep` tied leaders in scan order.

    Each party scans the distinct directions of `_grid_directions`, so a
    leader is the first of its ties in the scan order of the full grid.
    """
    ra, rb, tt = parts
    na, ta, pa = _grid_directions(grid)
    x = na @ ra
    y = na @ rb
    w = na @ tt @ na.T
    table = kernels.cmi_table(x, y, w)
    if sign != 1.0:
        table *= sign
    flat = table.ravel()
    best = float(flat.max())
    idx = np.flatnonzero(flat >= best - _TIE_TOL)[:keep]
    n = na.shape[0]
    out = []
    for k in idx:
        ia, ib = divmod(int(k), n)
        out.append((np.array([ta[ia], pa[ia], ta[ib], pa[ib]]), sign * float(flat[k])))
    return out


# (key, leaders) of the last stage-1 search, one tuple so a reader never pairs
# one call's key with another call's leaders
_last_leaders: tuple | None = None


def _max_leaders(parts, grid: int, refine: int):
    """Stage 1 of the CMI maximum: the grid stage's first 8 tied leaders, each refined.

    qs_oracle carries every leader forward; optimize_cmi(mode="max") takes
    leader 0.  Both search the same state in turn, so the last result is
    kept, keyed by the exact bytes of the Fano parts with grid and refine.
    """
    global _last_leaders
    key = (b"".join(part.tobytes() for part in parts), grid, refine)
    last = _last_leaders
    if last is not None and last[0] == key:
        return last[1]
    steps = _grid_steps(grid)
    leaders = tuple(
        _refine_angles(parts, angles, steps, refine, 1.0) for angles, _ in _grid_stage(parts, grid, 1.0, keep=8)
    )
    _last_leaders = (key, leaders)
    return leaders


def _phase_directions(basis: np.ndarray, phases: np.ndarray) -> np.ndarray:
    e0 = basis[:, 0]
    e1 = basis[:, 1]
    v = (e0[None, :] + np.exp(1.0j * phases)[:, None] * e1[None, :]) / np.sqrt(2.0)
    cross = np.conj(v[:, 0]) * v[:, 1]
    return np.column_stack(
        (2.0 * cross.real, 2.0 * cross.imag, np.abs(v[:, 0]) ** 2 - np.abs(v[:, 1]) ** 2)
    )


def _phase_cmi(parts, basis_a, basis_b, phases_a, phases_b):
    ra, rb, tt = parts
    da = _phase_directions(basis_a, np.atleast_1d(phases_a))
    db = _phase_directions(basis_b, np.atleast_1d(phases_b))
    x = da @ ra
    y = db @ rb
    if da.shape[0] == db.shape[0] and da.shape[0] > 1:
        w = np.einsum("ij,jk,ik->i", da, tt, db)
        return kernels.cmi_flat(x, y, w)
    return kernels.cmi_table(x, y, da @ tt @ db.T)


_OFFSETS_2 = np.array(np.meshgrid((-1, 0, 1), (-1, 0, 1), indexing="ij")).reshape(2, -1).T


def _phase_stage(parts, basis_a, basis_b, grid: int, refine: int):
    """Maximize CMI over the two Hadamard phases of the complementary family."""
    phases = np.linspace(0.0, _TWO_PI, grid, endpoint=False)
    table = _phase_cmi(parts, basis_a, basis_b, phases, phases)
    k = int(np.argmax(table))
    ia, ib = divmod(k, grid)
    cur = np.array([phases[ia], phases[ib]])
    best = float(table.ravel()[k])
    step = _TWO_PI / grid
    for _ in range(refine):
        cand = (cur[None, :] + _OFFSETS_2 * step) % _TWO_PI
        vals = _phase_cmi(parts, basis_a, basis_b, cand[:, 0], cand[:, 1])
        j = int(np.argmax(vals))
        if vals[j] > best:
            best = float(vals[j])
            cur = cand[j]
        step *= 0.5
    return cur, max(best, 0.0)


def laqc_oracle(rho: np.ndarray, grid: int = 32, refine: int = 4) -> OptimizationResult:
    """Measurement-based LAQC of an X-shaped density matrix.

    The distinguished basis is the computational one (see module docstring);
    the returned value is the phase-stage maximum over its complementary
    family, evaluated from explicit measurement statistics.
    """
    _check_search(grid, refine)
    require_density_matrix(rho)
    parts = _fano_parts(rho)
    eye = np.eye(2, dtype=complex)
    (pa, pb), value = _phase_stage(parts, eye, eye, grid, refine)
    setting = ComplementarySetting(LocalMeasurement(0.0, 0.0, 0.0, 0.0), float(pa), float(pb))
    return OptimizationResult(value, setting, grid, refine)


def qs_oracle(rho: np.ndarray, grid: int = 32, refine: int = 4) -> OptimizationResult:
    """Two-stage search for the symmetric quantum-correlation measure.

    Stage 1 maximizes CMI over all local bases (several tied leaders are all
    carried forward); stage 2 maximizes over the Hadamard phases of the
    bases complementary to each leader and keeps the overall best.
    """
    _check_search(grid, refine)
    require_density_matrix(rho)
    parts = _fano_parts(rho)
    refined = _max_leaders(parts, grid, refine)
    top = max(val for _, val in refined)
    best_value = -1.0
    best_setting = None
    for angles, val in refined:
        if val < top - _TIE_TOL:
            continue
        ba = basis_vectors(angles[0], angles[1])
        bb = basis_vectors(angles[2], angles[3])
        (pa, pb), value = _phase_stage(parts, ba, bb, grid, refine)
        if value > best_value:
            best_value = value
            best_setting = ComplementarySetting(LocalMeasurement(*angles), float(pa), float(pb))
    return OptimizationResult(best_value, best_setting, grid, refine)
