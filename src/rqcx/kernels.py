"""The classical-mutual-information kernel behind the measurement-grid searches.

The only inner loop that dominates runtime is the classical-mutual-information
evaluation over measurement-setting grids (about a quarter of a million
settings per grid scan at the default resolution).  Each setting reduces to
three numbers: x = nA.rA, y = nB.rB and w = nA.T.nB, from which the joint
outcome table is p_ij = (1 + si*x + sj*y + si*sj*w)/4.  The marginals need
only x or y: p_i0 + p_i1 = (1 + si*x)/2 and p_0j + p_1j = (1 + sj*y)/2.

`_cmi` is the one CMI formula.  It writes into its `out` array through two
scratch buffers, so no float temporary of the output's size is made per
term.  Each joint term takes one unmasked log2 and then sets log2 p to 0
where p <= 0, which gives the bits of `_xlog2x`'s masked form.  `cmi_table`
evaluates L lanes of nA x nB tables, with one 2-d table as the one-lane
case.  It runs `_cmi` on blocks of at most `BLOCK_ELEMENTS` settings (whole
lanes where a lane fits, else row blocks of one lane), which keep the output
block and both buffers in cache, and computes the marginal terms once per
call, in one pass.  Blocking does not change a value: every setting goes
through the same float operations in the same order.  Every oracle stage
calls `cmi_table`: the grid stage one row block at a time, each refinement
or phase round once for all its lanes.  No search calls `cmi_flat`, which
runs `_cmi` once on paired 1-d arrays.
"""

from __future__ import annotations

import numpy as np

# Settings per block of cmi_table: 32768 doubles, 256 KiB per buffer.
BLOCK_ELEMENTS = 1 << 15


def _xlog2x(p: np.ndarray) -> np.ndarray:
    """p*log2(p) elementwise; 0 where p <= 0 (-0.0 below 0, where rounding dips), NaN stays NaN."""
    return p * np.log2(p, out=np.zeros(p.shape), where=p > 0.0)


def _marginal_plogp(x: np.ndarray) -> np.ndarray:
    """Sum of p*log2(p) over the two outcomes of a party with Bloch projection x."""
    return _xlog2x(0.5 * (1.0 + x)) + _xlog2x(0.5 * (1.0 - x))


def _marginals(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_marginal_plogp of x and of y, from one pass over both."""
    both = _marginal_plogp(np.concatenate((x.ravel(), y.ravel())))
    return both[: x.size].reshape(x.shape), both[x.size :].reshape(y.shape)


def _cmi(x, y, w, mx, my, out: np.ndarray, p: np.ndarray, lg: np.ndarray) -> None:
    """Write the CMI (bits) of the settings (x, y, w) into out.

    x, y, w and the marginal terms mx, my (see `_marginals`) broadcast to
    out's shape; p and lg are scratch buffers of that shape.  Each joint term
    is ((1 +- x) +- y) +- w, times 0.25, and the four terms p*log2(p), with
    log2(p) taken as 0 where p <= 0 (as in `_xlog2x`), are summed left to
    right before mx, then my, are subtracted.
    """
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
            w_op(p, w, out=p)
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


def cmi_table(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """CMI (bits) of every (A, B) setting pair of each lane: x (L, nA), y (L, nB) and w (L, nA, nB), or one lane in 2-d."""
    x, y, w = (np.asarray(v, float) for v in (x, y, w))
    w3 = w if w.ndim == 3 else w[None]
    lanes, n_a, n_b = w3.shape
    x, y = x.reshape(lanes, n_a, 1), y.reshape(lanes, 1, n_b)
    mx, my = _marginals(x, y)
    out = np.empty(w3.shape)
    rows = max(1, BLOCK_ELEMENTS // max(1, n_b))
    step = max(1, rows // max(1, n_a))
    rows = min(rows, max(1, n_a))
    p, lg = np.empty((2, step, rows, n_b))
    for l0 in range(0, lanes, step):
        for r0 in range(0, n_a, rows):
            b = (slice(l0, l0 + step), slice(r0, r0 + rows))
            m, n = out[b].shape[:2]
            _cmi(x[b], y[b[0]], w3[b], mx[b], my[b[0]], out[b], p[:m, :n], lg[:m, :n])
    return out.reshape(w.shape)


def cmi_flat(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """CMI for paired 1-d arrays of settings: the diagonal of cmi_table."""
    x, y, w = (np.asarray(v, float) for v in (x, y, w))
    out = np.empty(np.broadcast(x, y, w).shape)
    _cmi(x, y, w, *_marginals(x, y), out, np.empty(out.shape), np.empty(out.shape))
    return out
