"""Representations of 2-qubit X states and physical-validity checking.

An X state has nonzero entries only on the diagonal and anti-diagonal of its
4x4 density matrix, with basis ordering |00>, |01>, |10>, |11>.  The
real-coherence class {a, b, c, d, r, s} is used throughout: a..d are the
diagonal weights, r couples |00>/|11> and s couples |01>/|10>.  In the Fano
(Pauli tensor) decomposition such a state carries exactly five nonzero
correlation coefficients, (T30, T03, T11, T22, T33), besides T00 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerances: structural equalities (trace, hermiticity, coherence bounds)
# are enforced at 1e-12; eigenvalue positivity gets 1e-10 of slack to absorb
# roundoff accumulated by repeated channel application.
STRUCT_TOL = 1e-12
EIG_TOL = 1e-10

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)


@dataclass(frozen=True)
class XStateParams:
    """Five-real-parameter X state: diagonal (a, b, c, d), coherences r, s."""

    a: float
    b: float
    c: float
    d: float
    r: float
    s: float


@dataclass(frozen=True)
class BlochX:
    """The five nonzero Fano coefficients of an X state."""

    t30: float
    t03: float
    t11: float
    t22: float
    t33: float


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[tuple[str, float], ...]

    def __post_init__(self):
        assert self.valid == (len(self.violations) == 0)


_VALID = ValidationReport(True, ())


class InvalidStateError(ValueError):
    """Raised when an operation receives an unphysical state."""

    def __init__(self, message: str, report: ValidationReport | None = None):
        super().__init__(message)
        self.report = report


def validate_xstate(p: XStateParams, tol: float = STRUCT_TOL) -> ValidationReport:
    """Check hermiticity/positivity constraints; report every violation."""
    fields = (p.a, p.b, p.c, p.d, p.r, p.s)
    violations: list[tuple[str, float]] = []
    if not all(map(math.isfinite, fields)):
        return ValidationReport(False, (("finite_values", float("inf")),))
    neg = -min(p.a, p.b, p.c, p.d)
    if neg > tol:
        violations.append(("weight_nonnegative", neg))
    drift = abs(p.a + p.b + p.c + p.d - 1.0)
    if drift > tol:
        violations.append(("unit_trace", drift))
    # coherence bounds keep the two 2x2 blocks positive semi-definite
    r_excess = abs(p.r) - math.sqrt(max(p.a, 0.0) * max(p.d, 0.0))
    if r_excess > tol:
        violations.append(("r_coherence_bound", float(r_excess)))
    s_excess = abs(p.s) - math.sqrt(max(p.b, 0.0) * max(p.c, 0.0))
    if s_excess > tol:
        violations.append(("s_coherence_bound", float(s_excess)))
    return ValidationReport(False, tuple(violations)) if violations else _VALID


def require_valid(p: XStateParams) -> None:
    report = validate_xstate(p)
    if not report.valid:
        raise InvalidStateError(f"unphysical X state: {report.violations}", report)


def validate_bloch(b: BlochX, tol: float = STRUCT_TOL) -> ValidationReport:
    coeffs = (b.t30, b.t03, b.t11, b.t22, b.t33)
    if not all(map(math.isfinite, coeffs)):
        return ValidationReport(False, (("finite_values", float("inf")),))
    violations = []
    over = max(map(abs, coeffs)) - 1.0
    if over > tol:
        violations.append(("coefficient_range", float(over)))
    inner = validate_xstate(_bloch_to_xstate_raw(b), tol)
    violations.extend(inner.violations)
    return ValidationReport(False, tuple(violations)) if violations else _VALID


def require_valid_bloch(b: BlochX) -> None:
    report = validate_bloch(b)
    if not report.valid:
        raise InvalidStateError(f"unphysical Bloch coefficients: {report.violations}", report)


def xstate_to_bloch(p: XStateParams) -> BlochX:
    """Fano coefficients of an X state (linear bijection with the params)."""
    require_valid(p)
    return BlochX(
        t30=p.a + p.b - p.c - p.d,
        t03=p.a - p.b + p.c - p.d,
        t11=2.0 * (p.s + p.r),
        t22=2.0 * (p.s - p.r),
        t33=p.a - p.b - p.c + p.d,
    )


def _bloch_to_xstate_raw(b: BlochX) -> XStateParams:
    return XStateParams(
        a=0.25 * (1.0 + b.t30 + b.t03 + b.t33),
        b=0.25 * (1.0 + b.t30 - b.t03 - b.t33),
        c=0.25 * (1.0 - b.t30 + b.t03 - b.t33),
        d=0.25 * (1.0 - b.t30 - b.t03 + b.t33),
        r=0.25 * (b.t11 - b.t22),
        s=0.25 * (b.t11 + b.t22),
    )


def bloch_to_xstate(b: BlochX) -> XStateParams:
    """Exact inverse of :func:`xstate_to_bloch`; rejects unphysical input."""
    p = _bloch_to_xstate_raw(b)
    report = validate_xstate(p)
    if not report.valid:
        raise InvalidStateError(
            f"Bloch coefficients reconstruct an unphysical state: {report.violations}", report
        )
    return p


def xstate_to_matrix(p: XStateParams) -> np.ndarray:
    require_valid(p)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = p.a, p.b, p.c, p.d
    rho[0, 3] = rho[3, 0] = p.r
    rho[1, 2] = rho[2, 1] = p.s
    return rho


def matrix_to_xstate(rho: np.ndarray, tol: float = 1e-10) -> XStateParams:
    """Extract real-coherence X parameters; rejects matrices off the X shape."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidStateError(f"expected a 4x4 matrix, got shape {rho.shape}")
    off_mask = np.ones((4, 4), dtype=bool)
    off_mask[np.arange(4), np.arange(4)] = False
    off_mask[0, 3] = off_mask[3, 0] = off_mask[1, 2] = off_mask[2, 1] = False
    stray = float(np.max(np.abs(rho[off_mask])))
    if stray > tol:
        raise InvalidStateError(f"matrix is not X-shaped (stray entry {stray:.3e})")
    imag = max(abs(rho[0, 3].imag), abs(rho[1, 2].imag))
    if imag > tol:
        raise InvalidStateError(
            f"complex coherences (imag {imag:.3e}) are outside the real-coherence class"
        )
    p = XStateParams(
        a=float(rho[0, 0].real),
        b=float(rho[1, 1].real),
        c=float(rho[2, 2].real),
        d=float(rho[3, 3].real),
        r=float(rho[0, 3].real),
        s=float(rho[1, 2].real),
    )
    require_valid(p)
    return p


def validate_density_matrix(rho: np.ndarray) -> ValidationReport:
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        return ValidationReport(False, (("shape", float("nan")),))
    violations = []
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > STRUCT_TOL:
        violations.append(("hermitian", herm))
    drift = abs(float(np.trace(rho).real) - 1.0) + abs(float(np.trace(rho).imag))
    if drift > STRUCT_TOL:
        violations.append(("unit_trace", drift))
    if not violations:
        lo = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
        if lo < -EIG_TOL:
            violations.append(("positive_semidefinite", -lo))
    return ValidationReport(not violations, tuple(violations))


def require_density_matrix(rho: np.ndarray) -> None:
    report = validate_density_matrix(rho)
    if not report.valid:
        raise InvalidStateError(f"invalid density matrix: {report.violations}", report)


_PAULI_PAIRS = np.stack(
    [np.kron(PAULI[mu], PAULI[nu]) for mu in range(4) for nu in range(4)]
).reshape(4, 4, 4, 4)


def fano_coefficients(rho: np.ndarray) -> np.ndarray:
    """Full 4x4 table T[mu, nu] = Tr[(sigma_mu x sigma_nu) rho]."""
    rho = np.asarray(rho, dtype=complex)
    return np.einsum("mnij,ji->mn", _PAULI_PAIRS, rho).real.copy()


def bloch_from_matrix(rho: np.ndarray) -> BlochX:
    """The five X slots of the Fano table (the rest must vanish for X states)."""
    t = fano_coefficients(rho)
    return BlochX(t30=t[3, 0], t03=t[0, 3], t11=t[1, 1], t22=t[2, 2], t33=t[3, 3])


def is_classical(b: BlochX, tol: float = STRUCT_TOL) -> bool:
    """True when both coherence coefficients vanish (state diagonal, classical)."""
    return abs(b.t11) <= tol and abs(b.t22) <= tol
