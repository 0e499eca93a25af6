"""Representations of 2-qubit X states and physical-validity checking.

An X state has nonzero entries only on the diagonal and anti-diagonal of its
4x4 density matrix, with basis ordering |00>, |01>, |10>, |11>.  The
real-coherence class {a, b, c, d, r, s} is used throughout: a..d are the
diagonal weights, r couples |00>/|11> and s couples |01>/|10>.  In the Fano
(Pauli tensor) decomposition such a state carries exactly five nonzero
correlation coefficients, (T30, T03, T11, T22, T33), besides T00 = 1.

_x_defects computes the four X inequalities (a..d >= 0, unit trace, |r| <=
sqrt(ad), |s| <= sqrt(bc)) once; _holds decides and _report reports from those
numbers.  A Bloch vector is checked as its coefficient range plus the state it
reconstructs.  _to_bloch and _to_params are the only copies of the two maps.

Each conversion is written once, in one direction, and leaves the state
unchecked: bloch_params (Bloch vector to state), xstate_matrix (state to
matrix) and matrix_params (matrix to state; it rejects only a matrix that is
not Hermitian, not X-shaped or has complex coherences).  check_xstate, which
also returns the Bloch vector, sqrt(ad), sqrt(bc), |r| and |s|, is the one
decision of X-state validity, and xstate_report is its report: that of the
InvalidStateError it raises, or an empty one.  Each entry point runs one of
the two once.  validate_density_matrix is the general check of any 4x4
density matrix, which the oracle makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerances: structural equalities (trace, hermiticity, coherence bounds)
# are enforced at 1e-12; eigenvalue positivity gets 1e-10 of slack for the
# roundoff of a density matrix read from a file or built by a caller.
STRUCT_TOL = 1e-12
EIG_TOL = 1e-10
X_SHAPE_TOL = 1e-10  # stray entries and imaginary coherences of a matrix read as an X state


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
    violations: tuple[tuple[str, float], ...]

    @property
    def valid(self) -> bool:
        """True when the report holds no violation."""
        return not self.violations


_NONFINITE = ValidationReport((("finite_values", float("inf")),))
_BAD_SHAPE = ValidationReport((("shape", float("nan")),))


class InvalidStateError(ValueError):
    """Raised when an operation receives an unphysical state."""

    def __init__(self, message: str, report: ValidationReport | None = None):
        super().__init__(message)
        self.report = report


_TEXT = (str, bytes, bytearray)  # what float() parses but no field may be
_X_CHECKS = ("weight_nonnegative", "unit_trace", "r_coherence_bound", "s_coherence_bound")


def _floats(fields: tuple, what: str) -> tuple[float, ...]:
    """fields read with float(); a str, bytes or bytearray field raises TypeError before any is
    read, since float() would parse it and the measures' arithmetic would not."""
    for v in fields:
        if isinstance(v, _TEXT):
            raise TypeError(f"{what} must be numbers, not {type(v).__name__}")
    return tuple(map(float, fields))


def _x_defects(a: float, b: float, c: float, d: float, r: float, s: float) -> tuple[float, ...]:
    """The magnitudes of the four X inequalities, in _X_CHECKS order, then
    sqrt(ad) and sqrt(bc).  A NaN or inf field makes the trace magnitude
    (a..d) or a coherence magnitude (r, s) NaN or inf."""
    root_ad = math.sqrt(max(a, 0.0) * max(d, 0.0))
    root_bc = math.sqrt(max(b, 0.0) * max(c, 0.0))
    # coherence bounds keep the two 2x2 blocks positive semi-definite
    return -min(a, b, c, d), abs(a + b + c + d - 1.0), abs(r) - root_ad, abs(s) - root_bc, root_ad, root_bc


def _to_bloch(a: float, b: float, c: float, d: float, r: float, s: float) -> tuple[float, ...]:
    """(t30, t03, t11, t22, t33) of the X state (a, b, c, d, r, s)."""
    return a + b - c - d, a - b + c - d, 2.0 * (s + r), 2.0 * (s - r), a - b - c + d


def _to_params(t30: float, t03: float, t11: float, t22: float, t33: float) -> tuple[float, ...]:
    """(a, b, c, d, r, s) of the X state with Fano coefficients (t30, t03, t11, t22, t33)."""
    return (0.25 * (1.0 + t30 + t03 + t33), 0.25 * (1.0 + t30 - t03 - t33), 0.25 * (1.0 - t30 + t03 - t33),
            0.25 * (1.0 - t30 - t03 + t33), 0.25 * (t11 - t22), 0.25 * (t11 + t22))


def _holds(defects: tuple[float, ...], over: float = -1.0) -> bool:
    """Whether every X magnitude of _x_defects, and over, is at most STRUCT_TOL (NaN fails)."""
    neg, drift, r_excess, s_excess, _, _ = defects
    tol = STRUCT_TOL
    return neg <= tol and drift <= tol and r_excess <= tol and s_excess <= tol and over <= tol


def _report(fields: tuple[float, ...], defects: tuple[float, ...], over: float = -1.0) -> ValidationReport:
    """A coefficient_range row if over exceeds STRUCT_TOL; then _NONFINITE's row if a field
    is not finite, else one (name, magnitude) per X magnitude of _x_defects above STRUCT_TOL."""
    rows = (("coefficient_range", float(over)),) if over > STRUCT_TOL else ()
    if all(map(math.isfinite, fields)):
        rows += tuple((name, float(m)) for name, m in zip(_X_CHECKS, defects) if m > STRUCT_TOL)
    else:
        rows += _NONFINITE.violations
    return ValidationReport(rows)


def _require(report: ValidationReport, what: str) -> None:
    """Raise InvalidStateError("<what>: <violations>") if report is not valid."""
    if not report.valid:
        raise InvalidStateError(f"{what}: {report.violations}", report)


def check_xstate(p: XStateParams) -> tuple[float, ...]:
    """(t30, t03, t11, t22, t33, sqrt(ad), sqrt(bc), |r|, |s|) of p, the one decision of X-state validity.

    p's _x_defects must hold, then the Bloch step: its Bloch vector's
    coefficient range and the _x_defects of the state that vector
    reconstructs.  A rejected state raises InvalidStateError("unphysical X
    state: <rows>"), or "unphysical Bloch coefficients: <rows>", with the
    report of those defects; a valid state builds no dataclass and no report.
    Other fields are read by _floats, so a text field is a TypeError.  Every
    number returned is a float computed from the fields as read, so the
    closed forms read this tuple and no field of p.
    """
    a, b, c, d, r, s = fields = p.a, p.b, p.c, p.d, p.r, p.s
    if not type(a) is type(b) is type(c) is type(d) is type(r) is type(s) is float:  # plain floats pass as they are
        a, b, c, d, r, s = _floats(fields, "X-state fields")
    defects = _x_defects(a, b, c, d, r, s)
    if not _holds(defects):
        _require(_report((a, b, c, d, r, s), defects), "unphysical X state")
    t30, t03, t11, t22, t33 = _to_bloch(a, b, c, d, r, s)
    params = _to_params(t30, t03, t11, t22, t33)
    inner, over = _x_defects(*params), max(abs(t30), abs(t03), abs(t11), abs(t22), abs(t33)) - 1.0
    if not _holds(inner, over):
        _require(_report(params, inner, over), "unphysical Bloch coefficients")
    return t30, t03, t11, t22, t33, defects[4], defects[5], abs(r), abs(s)


def xstate_report(p: XStateParams) -> ValidationReport:
    """check_xstate's report of p: its InvalidStateError's, or an empty report when p is valid."""
    try:
        check_xstate(p)
    except InvalidStateError as exc:
        return exc.report
    return ValidationReport(())


def bloch_params(b: BlochX) -> XStateParams:
    """The X state with Fano coefficients b, read by _floats (a text field is a TypeError), not
    yet checked: check_xstate checks it."""
    return XStateParams(*_to_params(*_floats((b.t30, b.t03, b.t11, b.t22, b.t33), "Bloch coefficients")))


def xstate_matrix(p: XStateParams) -> np.ndarray:
    """The density matrix of p, not yet checked: check_xstate checks p."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = p.a, p.b, p.c, p.d
    rho[0, 3] = rho[3, 0] = p.r
    rho[1, 2] = rho[2, 1] = p.s
    return rho


def _hermiticity_defect(rho: np.ndarray) -> float:
    """The largest entry of |rho - rho^dagger|, inf past the float range; a density matrix keeps it
    within STRUCT_TOL."""
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(rho - rho.conj().T)))


def matrix_params(rho: np.ndarray) -> XStateParams:
    """The real-coherence X parameters of rho, not yet checked (check_xstate
    checks them); rejects non-Hermitian matrices, matrices off the X shape
    and complex coherences.  Every InvalidStateError it raises carries
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
            f"matrix is not Hermitian (deviation {herm:.3e})", ValidationReport((("hermitian", herm),))
        )
    off_mask = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])  # off the diagonal and anti-diagonal
    with np.errstate(over="ignore"):  # a modulus past the float range is inf
        stray = float(np.max(np.abs(rho[off_mask])))
    if stray > X_SHAPE_TOL:
        raise InvalidStateError(
            f"matrix is not X-shaped (stray entry {stray:.3e})", ValidationReport((("x_shape", stray),))
        )
    imag = float(max(abs(rho[0, 3].imag), abs(rho[1, 2].imag)))
    if imag > X_SHAPE_TOL:
        raise InvalidStateError(
            f"complex coherences (imag {imag:.3e}) are outside the real-coherence class",
            ValidationReport((("real_coherences", imag),)),
        )
    return XStateParams(*(float(rho[i, j].real) for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (1, 2))))


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
    return ValidationReport(tuple(violations))


def require_density_matrix(rho: np.ndarray) -> None:
    _require(validate_density_matrix(rho), "invalid density matrix")


_PAULI = tuple(np.array(m, dtype=complex)  # sigma_0 (identity), x, y, z
               for m in ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]))
_PAULI_PAIRS = np.stack([np.kron(mu, nu) for mu in _PAULI for nu in _PAULI]).reshape(4, 4, 4, 4)


def fano_coefficients(rho: np.ndarray) -> np.ndarray:
    """Full 4x4 table T[mu, nu] = Tr[(sigma_mu x sigma_nu) rho]."""
    rho = np.asarray(rho, dtype=complex)
    return np.einsum("mnij,ji->mn", _PAULI_PAIRS, rho).real.copy()

