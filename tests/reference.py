"""Independent references the tests check rqcx against.

Each one computes its quantity a second way, from explicit operators:
complex measurement bases and projectors, the Holevo quantity of a local
measurement from partial traces, the complex Hadamard family, the
spin-flip construction of the concurrence, the phase-flip Kraus channel and
Pauli traces.  The families' closed-form curves and u itself are written
out in plain `math` floats, and RTN's omega in 50-digit `decimal`.  From
rqcx each imports only data types (XStateParams, BlochX, LocalMeasurement),
so no reference reuses the code it checks (test_reference.py enforces
this).
"""

from __future__ import annotations

import decimal
import math
from typing import NamedTuple

import numpy as np

from rqcx.oracle import LocalMeasurement
from rqcx.states import BlochX

_I2 = np.eye(2, dtype=complex)
_SIGMA = (
    _I2,
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """rho as a complex array, once it is a 4x4 Hermitian, unit-trace, positive matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4) or not np.isfinite(rho).all():
        raise ValueError("expected a finite 4x4 matrix")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12 or abs(np.trace(rho) - 1.0) > 1e-12:
        raise ValueError("expected a Hermitian matrix of unit trace")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ValueError("expected a positive semi-definite matrix")
    return rho


# ---- the complex measurement route of the oracle


class ProbabilityTable(NamedTuple):
    p00: float
    p01: float
    p10: float
    p11: float


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
    if basis.shape != (2, 2) or np.max(np.abs(basis.conj().T @ basis - _I2)) > 1e-10:
        raise ValueError("input basis must be a 2x2 orthonormal column pair")
    ph = np.exp(1.0j * phase)
    hadamard = np.array([[1.0, 1.0], [ph, -ph]], dtype=complex) / np.sqrt(2.0)
    return basis @ hadamard


def post_measurement_probs(rho: np.ndarray, m: LocalMeasurement) -> ProbabilityTable:
    """Outcome probabilities Tr[(Pi_i x Pi_j) rho] of the local projective measurement m."""
    rho = np.asarray(rho, dtype=complex)
    ba = basis_vectors(m.theta_a, m.phi_a)
    bb = basis_vectors(m.theta_b, m.phi_b)
    probs = []
    for i in range(2):
        proj_a = np.outer(ba[:, i], ba[:, i].conj())
        for j in range(2):
            proj_b = np.outer(bb[:, j], bb[:, j].conj())
            probs.append(max(float(np.trace(np.kron(proj_a, proj_b) @ rho).real), 0.0))
    return ProbabilityTable(*probs)


def classical_mutual_info(table) -> float:
    """H(A) + H(B) - H(AB) in bits, with the 0*log(0) = 0 convention."""
    p = np.asarray(table, dtype=float).reshape(2, 2)

    def plogp(v):
        v = v[v > 0.0]
        return float(np.sum(v * np.log2(v)))

    value = plogp(p.ravel()) - plogp(p.sum(axis=1)) - plogp(p.sum(axis=0))
    return max(value, 0.0)


def _entropy_bits(rho2: np.ndarray) -> float:
    """Von Neumann entropy in bits of a qubit density matrix, with 0 log2 0 = 0."""
    return -sum(v * math.log2(v) for v in np.linalg.eigvalsh(rho2).tolist() if v > 0.0)


def holevo_quantity(rho: np.ndarray, theta: float, phi: float, party: str) -> float:
    """chi of measuring `party` ("A" or "B") of rho along the Bloch direction (theta, phi):
    S(rho_other) - sum_i p_i S(rho_other|i), from the explicit projectors and partial traces."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)  # (a, b, a', b')
    # the other party's state, and its unnormalized state after outcome i
    other, given = ("bcbd->cd", "ac,cbad->bd") if party == "A" else ("abcb->ac", "bd,adcb->ac")
    chi = _entropy_bits(np.einsum(other, r))
    basis = basis_vectors(theta, phi)
    for i in range(2):
        sigma = np.einsum(given, np.outer(basis[:, i], basis[:, i].conj()), r)
        p = float(np.trace(sigma).real)
        if p > 0.0:
            chi -= p * _entropy_bits(sigma / p)
    return chi


# ---- the concurrence of any 2-qubit state


def concurrence_general(rho: np.ndarray) -> float:
    """Wootters concurrence from the spin-flip eigenvalue construction.

    The decreasing eigenvalue roots of sqrt(rho) rho~ sqrt(rho) (equivalently
    of rho * rho~) are the singular values of K = sqrt(rho) (sy x sy)
    sqrt(rho)^T, computed here by SVD; that avoids square-rooting noisy
    near-zero eigenvalues and keeps rank-deficient states accurate.
    """
    w, v = np.linalg.eigh(_check_density_matrix(rho))
    sq = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    k = sq @ np.kron(_SIGMA[2], _SIGMA[2]).real @ sq.T
    s = np.linalg.svd(k, compute_uv=False)
    return float(max(0.0, s[0] - s[1] - s[2] - s[3]))


# ---- the channel as two local phase-flip Kraus channels


class KrausPair(NamedTuple):
    k0: np.ndarray
    k1: np.ndarray


def _check_envelope(lam: float) -> float:
    if not np.isfinite(lam) or abs(lam) > 1.0 + 1e-12:
        raise ValueError(f"channel envelope must satisfy |Lambda| <= 1, got {lam}")
    return float(np.clip(lam, -1.0, 1.0))


def kraus_pair(lam: float) -> KrausPair:
    """Phase-flip Kraus operators at envelope value Lambda."""
    lam = _check_envelope(lam)
    return KrausPair(np.sqrt(0.5 * (1.0 + lam)) * _I2, np.sqrt(0.5 * (1.0 - lam)) * _SIGMA[3])


def apply_common_bath(rho: np.ndarray, lam: float) -> np.ndarray:
    """sum_ij (Ki x Kj) rho (Ki x Kj)^dag: the product of two independent local
    dephasing channels with equal Lambda (each coherence scales by Lambda^2),
    not one field shared by both qubits."""
    rho = _check_density_matrix(rho)
    k0, k1 = kraus_pair(lam)
    out = np.zeros_like(rho)
    for ka in (k0, k1):
        for kb in (k0, k1):
            op = np.kron(ka, kb)
            out += op @ rho @ op.conj().T
    return out


def bloch_from_matrix(rho: np.ndarray) -> BlochX:
    """The five X slots T[mu, nu] = Tr[(sigma_mu x sigma_nu) rho] of the Fano table."""
    rho = np.asarray(rho, dtype=complex)

    def t(mu: int, nu: int) -> float:
        return float(np.trace(np.kron(_SIGMA[mu], _SIGMA[nu]) @ rho).real)

    return BlochX(t30=t(3, 0), t03=t(0, 3), t11=t(1, 1), t22=t(2, 2), t33=t(3, 3))


# ---- the families' closed-form curves, in plain floats


def u(x: float) -> float:
    """(1+x) log2(1+x) + (1-x) log2(1-x) for |x| <= 1, with 0 log2 0 = 0."""
    return sum(v * math.log2(v) for v in (1.0 + x, 1.0 - x) if v > 0.0)


def family_laqc(x: float) -> float:
    """LAQC of the Werner, MNMS and MEMS states at parameter x: u(x)/2 for all three."""
    return 0.5 * u(x)


def family_concurrence(kind: str, x: float) -> float:
    """Concurrence of a family state: (3x - 1)/2 above 1/3 for Werner, x for MNMS and MEMS."""
    return max(0.0, 0.5 * (3.0 * x - 1.0)) if kind == "werner" else x


def werner_concurrence_dephased(z: float, lam: float) -> float:
    """Concurrence of the Werner state z after local dephasing with envelope Lambda on each qubit."""
    return max(0.0, 0.5 * ((1.0 + 2.0 * lam * lam) * z - 1.0))


def rtn_omega(a_over_gamma: float) -> float:
    """RTN's omega, sqrt((2a/gamma)^2 - 1), at 50 digits from the exact value of the float a/gamma."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        two_a = 2 * decimal.Decimal(a_over_gamma)
        return float((two_a * two_a - 1).sqrt())
