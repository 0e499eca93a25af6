"""Dephasing-channel models: decay envelopes and their closed-form ladders.

Time is dimensionless (gamma*t), and all rates are entered relative to the
environment fluctuation rate gamma.  Each model owns its closed forms:
envelope(t) and the ladders zeros(t_max), extrema(t_end) and crossings(kappa,
t_end), the times where Lambda^2 falls through a level kappa, each a float64
array.  Random telegraph noise (RTN) oscillates as it decays; its zeros and
crossings come from one table of the pieces where |Lambda| falls, and its
extrema from the extremum ladder that starts those pieces.  The modified
Ornstein-Uhlenbeck noise (MOUN) and the Markovian baseline decay monotonically
and share one definition: no zeros, no extrema.  Markov crosses a level in
closed form; RTN and MOUN solve each crossing on a monotone piece of the
envelope with a Newton lane (`search.newton`).  `lambda_of_t` and
`lambda_zeros` check their arguments, refusing text, and call the model;
`lambda_of_t` also refuses an RTN window whose phase omega t reaches 2**52,
where cos(omega t) is rounding noise.

The channel is two independent local phase-flip channels with equal Lambda,
one per qubit, not one field shared by both qubits: both coherences r and s
scale by Lambda^2, and the diagonal is kept.  `measures._StateMeasures`
applies it to the closed forms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .search import newton
from .states import _refuse_text


# e^-x is 0.0 for x >= 746 (exp underflows below -745.14).  The envelopes cap RTN's t in
# cos(omega t) and the exponent of Markov and MOUN there: past it the envelope is 0 (RTN's
# with the sign it has at 746), and omega t and lambda t cannot overflow to inf or a NaN
_EXP_ZERO = 746.0
# omega t at or past 2**52 has an ulp of a radian or more, so cos(omega t) is rounding noise
_PHASE_MAX = 2.0**52
# Most float64 values in one array: 2**27, 1 GiB.  One RTN ladder of extrema (`Rtn._starts`)
# and every count the CLI hands to numpy (`--steps`, a grid count, a surface's cells) are capped
# here, before any array is made
COUNT_MAX = 1 << 27


def _require_rate(value: float, label: str) -> None:
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"{label} must be finite and positive")


@dataclass(frozen=True)
class Rtn:
    """Random telegraph noise; needs the underdamped regime 2a/gamma > 1 and a finite omega."""

    a_over_gamma: float

    def __post_init__(self):
        _require_rate(self.a_over_gamma, "RTN coupling strength")
        if not 2.0 * self.a_over_gamma > 1.0:
            raise ValueError(f"RTN requires 2a/gamma > 1 (oscillatory regime); got a/gamma = {self.a_over_gamma}")
        if not np.isfinite(self.omega):  # 2a overflows past a/gamma ~ 9e307
            raise ValueError(f"RTN coupling strength a/gamma = {self.a_over_gamma} puts omega past the float range")

    @functools.cached_property
    def omega(self) -> float:
        """sqrt((2a)^2 - 1), factored: no cancellation near 2a = 1, and no overflow of the square."""
        two_a = 2.0 * self.a_over_gamma
        return float(np.sqrt(two_a - 1.0) * np.sqrt(two_a + 1.0))

    def envelope(self, t):
        w = self.omega
        wt = w * np.minimum(t, _EXP_ZERO)
        return np.exp(-t) * (np.cos(wt) + np.sin(wt) / w)

    def _extremum(self, k):
        """The k-th extremum k pi/omega; k = 0 is t = 0."""
        return k * np.pi / self.omega

    def _zero(self, k):
        """The zero after the k-th extremum, ((k + 1) pi - arctan omega)/omega."""
        w = self.omega
        return ((k + 1.0) * np.pi - np.arctan(w)) / w

    def _slope(self, t):
        """Lambda'(t) = -exp(-t) (omega + 1/omega) sin(omega t)."""
        w = self.omega
        return -np.exp(-t) * (w + 1.0 / w) * np.sin(w * t)

    def _starts(self, t: float) -> np.ndarray:
        """The extrema k pi/omega from k = 0 to one past floor(t omega/pi), which
        rounds low an ulp past an extremum: every extremum up to t, and more.

        A ladder of more than COUNT_MAX (2**27) extrema, one float64 array past
        1 GiB, is refused before it is allocated."""
        count = np.floor(float(t) * self.omega / np.pi) + 2.0  # Python floats: an overflow is a quiet inf
        if not count <= COUNT_MAX:
            raise ValueError(
                f"time window (--tmax) {t:g} at RTN coupling a/gamma = {self.a_over_gamma:g} needs "
                f"{count:.3g} extrema, past the 2**27 (1 GiB) one ladder may hold: lower --tmax or --a-over-gamma"
            )
        return self._extremum(np.arange(0.0, count))

    def _pieces(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """The falling pieces of |Lambda| that start at or before t: the extrema k pi/omega
        (`_starts`, cut at t) and the zeros after them, which hold every zero up to t."""
        start = self._starts(t)
        n = np.searchsorted(start, t, side="right")
        return start[:n], self._zero(np.arange(0.0, n))

    def zeros(self, t_max: float) -> np.ndarray:
        """The zeros in (0, t_max], one after each extremum."""
        end = self._pieces(t_max)[1]
        return end[end <= t_max]

    def extrema(self, t_end: float) -> np.ndarray:
        """The extrema k pi/omega, k >= 1, before t_end, where sin(omega t) in Lambda' changes sign.

        They need no zeros, so they come from `_starts` alone, not from the
        piece table: `detect_events` builds that once, for the zeros."""
        t = self._starts(t_end)[1:]
        return t[t < t_end]

    def crossings(self, kappa: float, t_end: float) -> np.ndarray:
        """The times in (0, t_end] where Lambda^2 falls through kappa, 0 < kappa < 1.

        |Lambda| falls from each extremum (t = 0 first) to the next zero and
        rises after it.  A piece holds one crossing when Lambda^2 exceeds
        kappa at its start and, where t_end cuts it, is at most kappa at
        t_end.  Each crossing solves |Lambda| = sqrt(kappa) in one Newton
        lane, to 1e-10 of its piece's length.  Where Lambda^2 as computed
        stays above a tiny kappa up to the zero itself, the lane returns the
        zero, which then ends the fall.

        On the first piece |Lambda'| <= (1 + omega^2) t, so Lambda >= 1 -
        (1 + omega^2) t^2/2 and the crossing lies past t0 = sqrt(2 (1 -
        sqrt(kappa))/(1 + omega^2)).  Its lane starts from [t0, 2 t0] when
        Lambda(2 t0) is already at most sqrt(kappa) inside the piece, else
        from [t0, zero]: from the zero, with kappa near 1, Newton on the flat
        top only halves its distance to the crossing each round.
        """
        # |Lambda| = e^-t at each piece start, so no piece that starts past
        # ln(1/kappa)/2 starts above the level
        start, end = self._pieces(min(t_end, -0.5 * np.log(kappa)))
        lam = self.envelope(np.append(start, t_end))
        keep = (lam[:-1] ** 2 > kappa) & ((end <= t_end) | (lam[-1] ** 2 <= kappa))
        root = np.sqrt(kappa)

        def fall(t):
            lam = self.envelope(t)
            return np.abs(lam) - root, np.sign(lam) * self._slope(t)

        lo, hi = start[keep], np.minimum(end[keep], t_end)
        tol = 1e-10 * (hi - lo)
        if keep.size and keep[0]:
            # omega * omega is inf past omega ~ 1.3e154, where omega**2 raises OverflowError; t0 is then 0
            t0 = np.sqrt(2.0 * (1.0 - root) / (1.0 + self.omega * self.omega))
            lo[0] = min(t0, hi[0])
            # t0 is 0 where sqrt(kappa) rounds to 1, and then so is Lambda(0) - sqrt(kappa)
            if 0.0 < 2.0 * t0 < hi[0] and fall(np.array([2.0 * t0]))[0][0] <= 0.0:
                hi[0] = 2.0 * t0
        return newton(fall, lo, hi, tol)


class _Monotone:
    """An envelope that decays monotonically: no zeros and no extrema."""

    def zeros(self, t: float) -> np.ndarray:
        return np.empty(0)

    extrema = zeros


@dataclass(frozen=True)
class Moun(_Monotone):
    """Modified Ornstein-Uhlenbeck noise."""

    Gamma_over_gamma: float

    def __post_init__(self):
        _require_rate(self.Gamma_over_gamma, "MOUN relaxation rate")

    def envelope(self, t):
        gamma = self.Gamma_over_gamma
        return np.exp(-0.5 * gamma * np.minimum(t + np.expm1(-t), 2.0 * _EXP_ZERO / gamma))

    def crossings(self, kappa: float, t_end: float) -> np.ndarray:
        """The time in (0, t_end], if any, where Lambda^2 falls through kappa, 0 < kappa < 1.

        Lambda^2 = kappa where g(t) = t + e^-t - 1 equals c = ln(1/kappa)/Gamma.
        As g(t) < t, the root lies past c, so there is none in the window when
        c >= t_end (c is then also allowed to be inf).  As g(t)(2 + t) >= t^2,
        the root lies in [0, (c + sqrt(c^2 + 8c))/2]; where c(c + 8)
        overflows, g(t) >= t - 1 bounds it by c + 1 instead.  One Newton lane
        solves c - g = 0 from the top, to 1e-10 of that bound.
        """
        # Python floats: an overflow is inf, with no warning, and past every window
        c = float(-np.log(kappa)) / self.Gamma_over_gamma
        if c >= t_end:
            return np.empty(0)
        square = c * (c + 8.0)
        hi = 0.5 * (c + np.sqrt(square)) if square < np.inf else c + 1.0

        def fall(t):
            slope = np.expm1(-t)
            return c - t - slope, slope

        t = newton(fall, 0.0, hi, 1e-10 * hi)
        return t[t <= t_end]


@dataclass(frozen=True)
class Markov(_Monotone):
    """Markovian dephasing baseline with envelope exp(-lambda*t)."""

    lambda_over_gamma: float

    def __post_init__(self):
        _require_rate(self.lambda_over_gamma, "Markovian decay rate")

    def envelope(self, t):
        rate = self.lambda_over_gamma
        return np.exp(-rate * np.minimum(t, _EXP_ZERO / rate))

    def crossings(self, kappa: float, t_end: float) -> np.ndarray:
        """The time in (0, t_end], if any, where Lambda^2 falls through kappa: ln(1/kappa)/(2 lambda)."""
        # a Python float quotient that overflows is inf, with no warning, and past every window
        t = float(-np.log(kappa)) / (2.0 * self.lambda_over_gamma)
        return np.array([t] if t <= t_end else [])


NoiseModel = Rtn | Moun | Markov


def lambda_of_t(model: NoiseModel, t):
    """Channel envelope at time t (gamma*t units); Lambda(0) = 1, |Lambda| <= 1.

    An RTN window whose phase omega * min(t, 746) reaches 2**52 is refused:
    one ulp of omega t is then a radian or more, and cos(omega t) is rounding
    noise.  The check is one comparison per call (and a pass over t only
    where omega * 746 reaches the limit), outside the envelope, so the Newton
    rounds of `Rtn.crossings` do not repeat it; an events window that long
    is refused first by `Rtn._starts`.  Text in t is a TypeError."""
    _refuse_text(t, "t")
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr) & (arr >= 0.0)):
        raise ValueError("time must be finite and nonnegative")
    if isinstance(model, Rtn) and model.omega * _EXP_ZERO >= _PHASE_MAX:
        t_end = min(float(np.max(arr, initial=0.0)), _EXP_ZERO)
        if model.omega * t_end >= _PHASE_MAX:
            raise ValueError(
                f"time window up to t = {t_end:g} at RTN coupling a/gamma = {model.a_over_gamma:g} "
                f"(--a-over-gamma) puts omega t at {model.omega * t_end:.3g}, past 2**52, where cos(omega t) "
                "is rounding noise: shorten the time window or lower --a-over-gamma"
            )
    val = model.envelope(arr)
    return float(val) if val.ndim == 0 else val


def lambda_zeros(model: NoiseModel, t_max: float) -> np.ndarray:
    """All envelope zeros in (0, t_max], at the model's closed form; only RTN has any.  A text
    t_max is a TypeError."""
    _refuse_text(t_max, "t_max")
    if not (np.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be finite and positive, got {t_max}")
    return model.zeros(t_max)
