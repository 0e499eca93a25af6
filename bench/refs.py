"""Reference values that the benchmark checks rqcx against.

Written from the paper's formulas with numpy and scipy alone; nothing here
imports rqcx.  A real-coherence X state is given by its diagonal (a, b, c, d)
and its coherences r (|00><11|) and s (|01><10|).  Every function takes
numpy arrays and broadcasts, so a whole surface is one call.

The branch values are written as measured mutual information: measuring
both qubits along one Pauli axis gives outcome probabilities
p(i, j) = (1 + i*T_k0 + j*T_0k + i*j*T_kk) / 4, and g_k = H(A) + H(B) - H(AB).
rqcx writes the same quantities as sums of u(x) = (1+x)log2(1+x) +
(1-x)log2(1-x); the two forms agree, which `tests` in this directory pin.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

SY2 = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float)


def xlog2x(v):
    v = np.asarray(v, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(v > 0.0, v * np.log2(np.where(v > 0.0, v, 1.0)), 0.0)


def u(x):
    """u(x) = (1+x)log2(1+x) + (1-x)log2(1-x)."""
    x = np.asarray(x, dtype=float)
    return xlog2x(1.0 + x) + xlog2x(1.0 - x)


def entropy(*probs):
    """Shannon entropy in bits of the distribution given by its outcome arrays."""
    return -sum(xlog2x(np.clip(p, 0.0, None)) for p in probs)


def axis_information(t_a, t_b, t_ab):
    """Mutual information of the outcomes of measuring both qubits along one axis."""
    p = {
        (i, j): 0.25 * (1.0 + i * t_a + j * t_b + i * j * t_ab)
        for i in (1, -1)
        for j in (1, -1)
    }
    h_a = entropy(p[1, 1] + p[1, -1], p[-1, 1] + p[-1, -1])
    h_b = entropy(p[1, 1] + p[-1, 1], p[1, -1] + p[-1, -1])
    h_ab = entropy(*p.values())
    return np.maximum(h_a + h_b - h_ab, 0.0)


def fano(a, b, c, d, r, s):
    """The five nonzero Fano coefficients T30, T03, T11, T22, T33 of an X state."""
    return a + b - c - d, a - b + c - d, 2.0 * (r + s), 2.0 * (s - r), a - b - c + d


def branches(a, b, c, d, r, s):
    """(g1, g2, g3): measured mutual information along x, y and z."""
    t30, t03, t11, t22, t33 = fano(a, b, c, d, r, s)
    zero = np.zeros_like(np.asarray(t11, dtype=float))
    return (
        axis_information(zero, zero, t11),
        axis_information(zero, zero, t22),
        axis_information(t30, t03, t33),
    )


def concurrence_margin(a, b, c, d, r, s):
    """Signed Wootters margin of an X state; the concurrence is max(margin, 0)."""
    root_bc = np.sqrt(np.clip(b, 0.0, None) * np.clip(c, 0.0, None))
    root_ad = np.sqrt(np.clip(a, 0.0, None) * np.clip(d, 0.0, None))
    return np.maximum(2.0 * (np.abs(r) - root_bc), 2.0 * (np.abs(s) - root_ad))


def measures(a, b, c, d, r, s):
    """Concurrence, LAQC, Qs and Cs of X states, as a dict of arrays."""
    g1, g2, g3 = branches(a, b, c, d, r, s)
    stacked = np.sort(np.stack(np.broadcast_arrays(g1, g2, g3)), axis=0)
    return {
        "concurrence": np.maximum(concurrence_margin(a, b, c, d, r, s), 0.0),
        "laqc": np.maximum(g1, g2),
        "qs": stacked[1],
        "cs": stacked[2],
    }


def density_matrix(a, b, c, d, r, s):
    rho = np.diag([a, b, c, d]).astype(complex)
    rho[0, 3] = rho[3, 0] = r
    rho[1, 2] = rho[2, 1] = s
    return rho


def wootters_concurrence(rho):
    """Concurrence from the decreasing square roots of the eigenvalues of rho * rho~."""
    rho_tilde = SY2 @ rho.conj() @ SY2
    ev = np.linalg.eigvals(rho @ rho_tilde)
    lam = np.sort(np.sqrt(np.clip(ev.real, 0.0, None)))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


# Envelopes; time is gamma*t and every rate is relative to gamma.

def rtn_omega(a_over_gamma):
    return np.sqrt((2.0 * a_over_gamma) ** 2 - 1.0)


def envelope(noise, t):
    kind, rate = noise
    t = np.asarray(t, dtype=float)
    if kind == "rtn":
        w = rtn_omega(rate)
        return np.exp(-t) * (np.cos(w * t) + np.sin(w * t) / w)
    if kind == "moun":
        return np.exp(-0.5 * rate * (t + np.exp(-t) - 1.0))
    if kind == "markov":
        return np.exp(-rate * t)
    raise ValueError(f"unknown noise {kind!r}")


def rtn_zeros(a_over_gamma, t_max):
    """t_k = (k*pi - arctan(omega)) / omega for every k with t_k <= t_max."""
    w = rtn_omega(a_over_gamma)
    k = np.arange(1, int(t_max * w / np.pi) + 2)
    t = (k * np.pi - np.arctan(w)) / w
    return t[t <= t_max]


def zeros_of(noise, t_max):
    return rtn_zeros(noise[1], t_max) if noise[0] == "rtn" else np.empty(0)


def evolved(state, noise, t):
    """The dephased state at times t: both coherences scale by Lambda(t)^2."""
    a, b, c, d, r, s = state
    f = envelope(noise, t) ** 2
    return a, b, c, d, r * f, s * f


def measures_along(state, noise, t):
    return measures(*evolved(state, noise, t))


def margin_along(state, noise, t):
    return concurrence_margin(*evolved(state, noise, t))


def concurrence_deaths(state, noise, t_max, samples=30001):
    """Times in (0, t_max] where the concurrence margin falls from > 0 to <= 0.

    Crossings are bracketed on a fine grid and polished with brentq.  Where
    both root terms vanish (b*c = 0 or a*d = 0) the margin touches zero at an
    envelope zero without changing sign; those zeros are deaths as well.
    """
    ts = np.linspace(0.0, t_max, samples)
    m = margin_along(state, noise, ts)

    def f(t):
        return float(margin_along(state, noise, t))

    deaths = [
        brentq(f, ts[k], ts[k + 1], xtol=1e-15)
        for k in np.flatnonzero((m[:-1] > 0.0) & (m[1:] <= 0.0))
    ]
    for tz in zeros_of(noise, t_max):
        if abs(f(tz)) < 1e-12 and f(max(tz - 1e-3, 0.0)) > 1e-12 and f(min(tz + 1e-3, t_max)) > 1e-12:
            deaths.append(float(tz))
    return np.array(sorted(deaths))


def concurrence_births(state, noise, t_max, samples=30001):
    """Times where the margin rises from <= 0 to > 0 (the ends of dead intervals)."""
    ts = np.linspace(0.0, t_max, samples)
    m = margin_along(state, noise, ts)

    def f(t):
        return float(margin_along(state, noise, t))

    return np.array(
        [brentq(f, ts[k], ts[k + 1], xtol=1e-15) for k in np.flatnonzero((m[:-1] <= 0.0) & (m[1:] > 0.0))]
    )
