"""The classical-mutual-information kernel behind the measurement-grid searches.

The only inner loop that dominates runtime is the classical-mutual-information
evaluation over measurement-setting grids (about a quarter of a million
settings per grid scan at the default resolution).  Each setting reduces to
three numbers: x = nA.rA, y = nB.rB and w = nA.T.nB, from which the joint
outcome table is p_ij = (1 + si*x + sj*y + si*sj*w)/4.  The marginals need
only x or y: p_i0 + p_i1 = (1 + si*x)/2 and p_0j + p_1j = (1 + sj*y)/2.
"""

from __future__ import annotations

import numpy as np


def _xlog2x(p: np.ndarray) -> np.ndarray:
    """p*log2(p) elementwise; 0 where p <= 0 (-0.0 below 0, where rounding dips), NaN stays NaN."""
    return p * np.log2(p, out=np.zeros(p.shape), where=p > 0.0)


def _marginal_plogp(x: np.ndarray) -> np.ndarray:
    """Sum of p*log2(p) over the two outcomes of a party with Bloch projection x."""
    return _xlog2x(0.5 * (1.0 + x)) + _xlog2x(0.5 * (1.0 - x))


def _cmi(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """CMI (bits) of the settings (x, y, w); the three arrays broadcast against w."""
    joint = _xlog2x(0.25 * (1.0 + x + y + w))
    joint += _xlog2x(0.25 * (1.0 + x - y - w))
    joint += _xlog2x(0.25 * (1.0 - x + y - w))
    joint += _xlog2x(0.25 * (1.0 - x - y + w))
    return joint - _marginal_plogp(x) - _marginal_plogp(y)


def cmi_table(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """CMI (bits) for every (A-setting, B-setting) pair; w has shape (nA, nB)."""
    return _cmi(np.asarray(x, float)[:, None], np.asarray(y, float)[None, :], np.asarray(w, float))


def cmi_flat(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """CMI for paired 1-d arrays of settings: the diagonal of cmi_table."""
    return _cmi(np.asarray(x, float), np.asarray(y, float), np.asarray(w, float))
