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
_NONFINITE = ValidationReport(False, (("finite_values", float("inf")),))
_BAD_SHAPE = ValidationReport(False, (("shape", float("nan")),))


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
        return _NONFINITE
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
        return _NONFINITE
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


def _xstate_to_bloch_raw(p: XStateParams) -> BlochX:
    return BlochX(
        t30=p.a + p.b - p.c - p.d,
        t03=p.a - p.b + p.c - p.d,
        t11=2.0 * (p.s + p.r),
        t22=2.0 * (p.s - p.r),
        t33=p.a - p.b - p.c + p.d,
    )


def xstate_to_bloch(p: XStateParams) -> BlochX:
    """Fano coefficients of an X state (linear bijection with the params)."""
    require_valid(p)
    return _xstate_to_bloch_raw(p)


def xstate_report(p: XStateParams) -> ValidationReport:
    """p's violations under validate_xstate if it has any, else its Bloch vector's under validate_bloch."""
    report = validate_xstate(p)
    return validate_bloch(_xstate_to_bloch_raw(p)) if report.valid else report


def _reject(p: XStateParams, what: str):
    report = xstate_report(p)
    raise InvalidStateError(f"unphysical {what}: {report.violations}", report)


def check_xstate(p: XStateParams) -> tuple[float, float, float, float, float, float, float]:
    """(t30, t03, t11, t22, t33, sqrt(ad), sqrt(bc)) of a state that passes
    validate_xstate and whose Bloch vector passes validate_bloch.

    Both decisions take the float operations of those functions: on p, then
    on the coefficient range and the weights and coherences the Bloch vector
    reconstructs.  A NaN or inf field fails the trace test (a..d) or a
    coherence bound (r, s), and a state that passes the first decision has
    finite coefficients, so no finiteness test is needed.  A rejected state
    raises the InvalidStateError, message and report (from xstate_report)
    that require_valid_bloch(xstate_to_bloch(p)) raises.  A valid state
    builds no dataclass and no report.
    """
    a, b, c, d, r, s = p.a, p.b, p.c, p.d, p.r, p.s
    root_ad = math.sqrt(max(a, 0.0) * max(d, 0.0))
    root_bc = math.sqrt(max(b, 0.0) * max(c, 0.0))
    if not (
        -min(a, b, c, d) <= STRUCT_TOL
        and abs(a + b + c + d - 1.0) <= STRUCT_TOL
        and abs(r) - root_ad <= STRUCT_TOL
        and abs(s) - root_bc <= STRUCT_TOL
    ):
        _reject(p, "X state")
    t30, t03, t33 = a + b - c - d, a - b + c - d, a - b - c + d
    t11, t22 = 2.0 * (s + r), 2.0 * (s - r)
    # the weights and coherences of _bloch_to_xstate_raw
    wa = 0.25 * (1.0 + t30 + t03 + t33)
    wb = 0.25 * (1.0 + t30 - t03 - t33)
    wc = 0.25 * (1.0 - t30 + t03 - t33)
    wd = 0.25 * (1.0 - t30 - t03 + t33)
    if not (
        max(abs(t30), abs(t03), abs(t11), abs(t22), abs(t33)) - 1.0 <= STRUCT_TOL
        and -min(wa, wb, wc, wd) <= STRUCT_TOL
        and abs(wa + wb + wc + wd - 1.0) <= STRUCT_TOL
        and abs(0.25 * (t11 - t22)) - math.sqrt(max(wa, 0.0) * max(wd, 0.0)) <= STRUCT_TOL
        and abs(0.25 * (t11 + t22)) - math.sqrt(max(wb, 0.0) * max(wc, 0.0)) <= STRUCT_TOL
    ):
        _reject(p, "Bloch coefficients")
    return t30, t03, t11, t22, t33, root_ad, root_bc


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


def _hermiticity_defect(rho: np.ndarray) -> float:
    """The largest entry of |rho - rho^dagger|; a density matrix keeps it within STRUCT_TOL."""
    return float(np.max(np.abs(rho - rho.conj().T)))


def matrix_params(rho: np.ndarray, tol: float = 1e-10) -> XStateParams:
    """The real-coherence X parameters of rho, not yet checked (see
    matrix_to_xstate); rejects non-Hermitian matrices, matrices off the X
    shape and complex coherences.  Every InvalidStateError it raises carries
    the report of the check that failed."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidStateError(f"expected a 4x4 matrix, got shape {rho.shape}", _BAD_SHAPE)
    # a NaN entry would pass every tolerance test below
    if not np.isfinite(rho).all():
        raise InvalidStateError("matrix entries must be finite", _NONFINITE)
    herm = _hermiticity_defect(rho)
    if herm > STRUCT_TOL:
        raise InvalidStateError(
            f"matrix is not Hermitian (deviation {herm:.3e})", ValidationReport(False, (("hermitian", herm),))
        )
    off_mask = np.ones((4, 4), dtype=bool)
    off_mask[np.arange(4), np.arange(4)] = False
    off_mask[0, 3] = off_mask[3, 0] = off_mask[1, 2] = off_mask[2, 1] = False
    stray = float(np.max(np.abs(rho[off_mask])))
    if stray > tol:
        raise InvalidStateError(
            f"matrix is not X-shaped (stray entry {stray:.3e})", ValidationReport(False, (("x_shape", stray),))
        )
    imag = float(max(abs(rho[0, 3].imag), abs(rho[1, 2].imag)))
    if imag > tol:
        raise InvalidStateError(
            f"complex coherences (imag {imag:.3e}) are outside the real-coherence class",
            ValidationReport(False, (("real_coherences", imag),)),
        )
    return XStateParams(
        a=float(rho[0, 0].real),
        b=float(rho[1, 1].real),
        c=float(rho[2, 2].real),
        d=float(rho[3, 3].real),
        r=float(rho[0, 3].real),
        s=float(rho[1, 2].real),
    )


def matrix_to_xstate(rho: np.ndarray, tol: float = 1e-10) -> XStateParams:
    """Extract real-coherence X parameters (`matrix_params`) and check them with require_valid."""
    p = matrix_params(rho, tol)
    require_valid(p)
    return p


def validate_density_matrix(rho: np.ndarray) -> ValidationReport:
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        return _BAD_SHAPE
    if not np.isfinite(rho).all():
        return _NONFINITE
    violations = []
    herm = _hermiticity_defect(rho)
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

