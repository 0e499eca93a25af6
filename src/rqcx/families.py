"""Named 2-qubit X-state families and the Werner crossover.

Werner states mix the singlet with the identity; MNMS (maximally nonlocal
mixed states) and MEMS (maximally entangled mixed states, with the kinked
chi(x) weight) are the standard one-parameter benchmark families.  LAQC is
u(x)/2 on all three; the crossover is where Werner's LAQC meets its
concurrence (3x - 1)/2.  The families' closed-form curves are the tests'
independent references (tests/reference.py); the library computes every
measure through `measures`, with the one u, `measures._u`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import _u
from .search import newton
from .states import XStateParams

FAMILY_KINDS = ("werner", "mnms", "mems")


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family {self.kind!r}; expected one of {FAMILY_KINDS}")
        if not 0.0 <= self.param <= 1.0:
            raise ValueError(f"family parameter must lie in [0, 1], got {self.param}")


def mems_chi(x: float) -> float:
    """Weight function of the MEMS family: 1/3 below x = 2/3, x/2 above."""
    return 1.0 / 3.0 if x < 2.0 / 3.0 else 0.5 * x


def make_state(spec: FamilySpec) -> XStateParams:
    x = spec.param
    if spec.kind == "werner":
        return XStateParams(
            a=0.25 * (1.0 - x),
            b=0.25 * (1.0 + x),
            c=0.25 * (1.0 + x),
            d=0.25 * (1.0 - x),
            r=0.0,
            s=-0.5 * x,
        )
    if spec.kind == "mnms":
        return XStateParams(a=0.5, b=0.0, c=0.0, d=0.5, r=0.5 * x, s=0.0)
    chi = mems_chi(x)
    return XStateParams(a=chi, b=1.0 - 2.0 * chi, c=0.0, d=chi, r=0.5 * x, s=0.0)


def crossover_z() -> float:
    """Werner parameter where LAQC and concurrence coincide, by safeguarded Newton.

    The residual u(z)/2 - (3z - 1)/2 is positive just above the separability
    threshold z = 1/3 and negative from the crossover until z = 1; its slope
    is log2((1 + z)/(1 - z))/2 - 3/2.
    """
    def residual(z):
        return 0.5 * _u(z) - 0.5 * (3.0 * z - 1.0), 0.5 * np.log2((1.0 + z) / (1.0 - z)) - 1.5

    return float(newton(residual, 0.34, 0.99, 1e-12)[0])
