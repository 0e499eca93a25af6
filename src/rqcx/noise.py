"""Dephasing-channel models: decay envelopes, Kraus pairs, common-bath action.

Time is dimensionless (gamma*t), and all rates are entered relative to the
environment fluctuation rate gamma.  Each model owns its closed forms:
envelope(t), zeros(t_max) and extrema(t_end).  Random telegraph noise (RTN)
oscillates as it decays; the modified Ornstein-Uhlenbeck noise (MOUN) and the
Markovian baseline decay monotonically and share one definition: no zeros, no
extrema.  `lambda_of_t` and `lambda_zeros` check their arguments and call the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .states import SIGMA_Z, BlochX, require_density_matrix, require_valid_bloch


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

    def envelope(self, t):
        w = self.omega
        return np.exp(-t) * (np.cos(w * t) + np.sin(w * t) / w)

    def zeros(self, t_max: float) -> list[float]:
        """The zeros t_k = (k pi - arctan omega)/omega, k >= 1, in (0, t_max]."""
        w = self.omega
        # one index past the estimated last zero; the t_k <= t_max test trims it
        k = np.arange(1.0, np.floor((t_max * w + np.arctan(w)) / np.pi) + 2.0)
        t_k = (k * np.pi - np.arctan(w)) / w
        return t_k[t_k <= t_max].tolist()

    def extrema(self, t_end: float) -> np.ndarray:
        """The extrema t = k pi/omega, k >= 1, before t_end: Lambda' = -exp(-t) (omega + 1/omega) sin(omega t)."""
        w = self.omega
        t = np.arange(1.0, np.floor(t_end * w / np.pi) + 1.0) * np.pi / w
        return t[t < t_end]


class _Monotone:
    """An envelope that decays monotonically: no zeros and no extrema."""

    def zeros(self, t_max: float) -> list[float]:
        return []

    def extrema(self, t_end: float) -> np.ndarray:
        return np.empty(0)


@dataclass(frozen=True)
class Moun(_Monotone):
    """Modified Ornstein-Uhlenbeck noise."""

    Gamma_over_gamma: float

    def __post_init__(self):
        if not (np.isfinite(self.Gamma_over_gamma) and self.Gamma_over_gamma > 0.0):
            raise ValueError("MOUN relaxation rate must be finite and positive")

    def envelope(self, t):
        return np.exp(-0.5 * self.Gamma_over_gamma * (t + np.expm1(-t)))


@dataclass(frozen=True)
class Markov(_Monotone):
    """Markovian dephasing baseline with envelope exp(-lambda*t)."""

    lambda_over_gamma: float

    def __post_init__(self):
        if not (np.isfinite(self.lambda_over_gamma) and self.lambda_over_gamma > 0.0):
            raise ValueError("Markovian decay rate must be finite and positive")

    def envelope(self, t):
        return np.exp(-self.lambda_over_gamma * t)


NoiseModel = Rtn | Moun | Markov


class KrausPair(NamedTuple):
    k0: np.ndarray
    k1: np.ndarray


def lambda_of_t(model: NoiseModel, t):
    """Channel envelope at time t (gamma*t units); Lambda(0) = 1, |Lambda| <= 1."""
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr) & (arr >= 0.0)):
        raise ValueError("time must be finite and nonnegative")
    val = model.envelope(arr)
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
    """All envelope zeros in (0, t_max], at the model's closed form; only RTN has any."""
    if not (np.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be finite and positive, got {t_max}")
    return model.zeros(t_max)
