"""The classical-mutual-information kernel behind the measurement-grid searches.

The only inner loop that dominates runtime is the classical-mutual-information
evaluation over measurement-setting grids (about a quarter of a million
settings per grid scan at the default resolution).  Each setting reduces to
three numbers: x = nA.rA, y = nB.rB and w = nA.T.nB, from which the joint
outcome table is p_ij = (1 + si*x + sj*y + si*sj*w)/4.  The marginals need
only x or y: p_i0 + p_i1 = (1 + si*x)/2 and p_0j + p_1j = (1 + sj*y)/2.

`cmi_table` is the one CMI formula.  It evaluates L lanes of nA x nB tables,
with one 2-d table as the one-lane case, in one pass over the whole table.
It writes into its output through two scratch buffers of the table's size,
so no further float temporary of that size is made per term.  Each joint
term takes one unmasked log2 and then sets log2 p to 0 where p <= 0, which
gives the bits of `_xlog2x`'s masked form.  The marginal terms are computed
once per call, in one pass.  A caller bounds the table it hands over: the
oracle's grid stage is the one that cuts a scan into blocks (see
`oracle.BLOCK_ELEMENTS`).  `cmi_flat` is the (n, 1, 1) lane case, for
paired 1-d arrays of settings; no search calls it.
"""

from __future__ import annotations

import numpy as np


def _xlog2x(p: np.ndarray) -> np.ndarray:
    """p*log2(p) elementwise; 0 where p <= 0 (-0.0 below 0, where rounding dips), NaN stays NaN."""
    return p * np.log2(p, out=np.zeros(p.shape), where=p > 0.0)


_SIGNS = np.array([[1.0], [-1.0]])  # the two outcomes, on a leading axis


def _marginal_plogp(x: np.ndarray) -> np.ndarray:
    """Sum of p*log2(p) over the two outcomes of a party with Bloch projection x (1-d): one
    masked log2 over the stacked (2, x.size) outcome probabilities."""
    terms = _xlog2x(0.5 * (1.0 + _SIGNS * x))
    return terms[0] + terms[1]


def _marginals(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_marginal_plogp of x and of y, from one pass over both."""
    both = _marginal_plogp(np.concatenate((x.ravel(), y.ravel())))
    return both[: x.size].reshape(x.shape), both[x.size :].reshape(y.shape)


def cmi_table(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """CMI (bits) of every (A, B) setting pair of each lane: x (L, nA), y (L, nB) and w (L, nA, nB), or one lane in 2-d.

    Each joint term is ((1 +- x) +- y) +- w, times 0.25, and the four terms
    p*log2(p), with log2(p) taken as 0 where p <= 0 (as in `_xlog2x`), are
    summed left to right before the marginal terms of x, then y, are
    subtracted.
    """
    x, y, w = (np.asarray(v, float) for v in (x, y, w))
    w3 = w if w.ndim == 3 else w[None]
    lanes, n_a, n_b = w3.shape
    x, y = x.reshape(lanes, n_a, 1), y.reshape(lanes, 1, n_b)
    mx, my = _marginals(x, y)
    out, p, lg = np.empty(w3.shape), np.empty(w3.shape), np.empty(w3.shape)
    plus_x, minus_x = 1.0 + x, 1.0 - x
    terms = (
        (plus_x, np.add, np.add),
        (plus_x, np.subtract, np.subtract),
        (minus_x, np.add, np.subtract),
        (minus_x, np.subtract, np.add),
    )
    # log2 of p <= 0 is -inf or NaN, and those lg are set to 0 right after,
    # so its divide and invalid flags mean nothing; one errstate per call
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, (base, y_op, w_op) in enumerate(terms):
            y_op(base, y, out=p)
            w_op(p, w3, out=p)
            p *= 0.25
            np.log2(p, out=lg)
            # a NaN p keeps its NaN lg, and p*lg is NaN either way
            lg[p <= 0.0] = 0.0
            if k == 0:
                np.multiply(p, lg, out=out)
            else:
                p *= lg
                out += p
    out -= mx
    out -= my
    return out.reshape(w.shape)


def cmi_flat(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """CMI for paired 1-d arrays of settings: the diagonal of cmi_table, as its (n, 1, 1) lane case."""
    x, y, w = np.broadcast_arrays(*(np.asarray(v, float) for v in (x, y, w)))
    return cmi_table(x.reshape(-1, 1), y.reshape(-1, 1), w.reshape(-1, 1, 1)).reshape(x.shape)
