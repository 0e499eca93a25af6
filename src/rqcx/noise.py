"""Dephasing-channel models: decay envelopes, Kraus pairs, common-bath action.

Time is dimensionless (gamma*t), and all rates are entered relative to the
environment fluctuation rate gamma.  Random telegraph noise (RTN) gives an
oscillatory-decaying envelope with zero crossings; the modified
Ornstein-Uhlenbeck noise (MOUN) and the Markovian baseline decay
monotonically and only reach zero asymptotically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .states import (
    SIGMA_Z,
    BlochX,
    require_density_matrix,
    require_valid_bloch,
)


@dataclass(frozen=True)
class Rtn:
    """Random telegraph noise; needs the underdamped regime 2a/gamma > 1."""

    a_over_gamma: float

    def __post_init__(self):
        if not (np.isfinite(self.a_over_gamma) and self.a_over_gamma > 0.0):
            raise ValueError("RTN coupling strength must be finite and positive")
        if not 2.0 * self.a_over_gamma > 1.0:
            raise ValueError(
                "RTN requires 2a/gamma > 1 (oscillatory regime); "
                f"got a/gamma = {self.a_over_gamma}"
            )

    @property
    def omega(self) -> float:
        return float(np.sqrt((2.0 * self.a_over_gamma) ** 2 - 1.0))


@dataclass(frozen=True)
class Moun:
    """Modified Ornstein-Uhlenbeck noise."""

    Gamma_over_gamma: float

    def __post_init__(self):
        if not (np.isfinite(self.Gamma_over_gamma) and self.Gamma_over_gamma > 0.0):
            raise ValueError("MOUN relaxation rate must be finite and positive")


@dataclass(frozen=True)
class Markov:
    """Markovian dephasing baseline with envelope exp(-lambda*t)."""

    lambda_over_gamma: float

    def __post_init__(self):
        if not (np.isfinite(self.lambda_over_gamma) and self.lambda_over_gamma > 0.0):
            raise ValueError("Markovian decay rate must be finite and positive")


NoiseModel = Rtn | Moun | Markov


class KrausPair(NamedTuple):
    k0: np.ndarray
    k1: np.ndarray


def lambda_of_t(model: NoiseModel, t):
    """Channel envelope at time t (gamma*t units); Lambda(0) = 1, |Lambda| <= 1."""
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr) & (arr >= 0.0)):
        raise ValueError("time must be finite and nonnegative")
    if isinstance(model, Rtn):
        w = model.omega
        val = np.exp(-arr) * (np.cos(w * arr) + np.sin(w * arr) / w)
    elif isinstance(model, Moun):
        val = np.exp(-0.5 * model.Gamma_over_gamma * (arr + np.expm1(-arr)))
    elif isinstance(model, Markov):
        val = np.exp(-model.lambda_over_gamma * arr)
    else:
        raise TypeError(f"unsupported noise model {model!r}")
    return float(val) if val.ndim == 0 else val


def _check_envelope(lam: float) -> float:
    if not np.isfinite(lam) or abs(lam) > 1.0 + 1e-12:
        raise ValueError(f"channel envelope must satisfy |Lambda| <= 1, got {lam}")
    return float(np.clip(lam, -1.0, 1.0))


def kraus_pair(lam: float) -> KrausPair:
    """Phase-flip Kraus operators at envelope value Lambda."""
    lam = _check_envelope(lam)
    k0 = np.sqrt(0.5 * (1.0 + lam)) * np.eye(2, dtype=complex)
    k1 = np.sqrt(0.5 * (1.0 - lam)) * SIGMA_Z
    return KrausPair(k0, k1)


def apply_common_bath(rho: np.ndarray, lam: float) -> np.ndarray:
    """Both qubits coupled to the same bath: sum_ij (Ki x Kj) rho (Ki x Kj)^dag."""
    rho = np.asarray(rho, dtype=complex)
    require_density_matrix(rho)
    k0, k1 = kraus_pair(lam)
    out = np.zeros_like(rho)
    for ka in (k0, k1):
        for kb in (k0, k1):
            op = np.kron(ka, kb)
            out += op @ rho @ op.conj().T
    return out


def evolve_bloch(b: BlochX, lam: float) -> BlochX:
    """Closed-form channel action: only the coherence coefficients scale, by Lambda^2."""
    require_valid_bloch(b)
    lam = _check_envelope(lam)
    f = lam * lam
    return BlochX(t30=b.t30, t03=b.t03, t11=f * b.t11, t22=f * b.t22, t33=b.t33)


def lambda_zeros(model: NoiseModel, t_max: float) -> list[float]:
    """All envelope zeros in (0, t_max], at their closed form.

    Only RTN crosses zero, at t_k = (k*pi - arctan(omega)) / omega; the
    monotone models return an empty list.
    """
    if not (np.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be finite and positive, got {t_max}")
    if not isinstance(model, Rtn):
        return []
    w = model.omega
    # one index past the estimated last zero; the t_k <= t_max test trims it
    k = np.arange(1.0, np.floor((t_max * w + np.arctan(w)) / np.pi) + 2.0)
    t_k = (k * np.pi - np.arctan(w)) / w
    return t_k[t_k <= t_max].tolist()
