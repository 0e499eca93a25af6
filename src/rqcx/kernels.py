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
runs it on row blocks of at most `BLOCK_ELEMENTS` settings, which keep the
output block and both buffers in cache; `cmi_flat` runs it once on whole
arrays.  Both compute the marginal terms of x and y once per call, in one
pass.  Blocking does not change a value: every setting goes through the same
float operations in the same order.  The oracle's grid stage calls
`cmi_table` on one such row block at a time and reduces each block before
the next, so it never holds a table-sized CMI array.
"""

from __future__ import annotations

import numpy as np

# Settings per row block of cmi_table: 32768 doubles, 256 KiB per buffer.
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
    """CMI (bits) for every (A-setting, B-setting) pair; w has shape (nA, nB)."""
    x, y, w = (np.asarray(v, float) for v in (x, y, w))
    mx, my = _marginals(x, y)
    out = np.empty(w.shape)
    rows = max(1, BLOCK_ELEMENTS // max(1, w.shape[1]))
    p, lg = np.empty((2, min(rows, w.shape[0]), w.shape[1]))
    for r0 in range(0, w.shape[0], rows):
        r1 = min(r0 + rows, w.shape[0])
        n = r1 - r0
        _cmi(x[r0:r1, None], y[None, :], w[r0:r1], mx[r0:r1, None], my[None, :], out[r0:r1], p[:n], lg[:n])
    return out


def cmi_flat(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """CMI for paired 1-d arrays of settings: the diagonal of cmi_table."""
    x, y, w = (np.asarray(v, float) for v in (x, y, w))
    out = np.empty(np.broadcast(x, y, w).shape)
    _cmi(x, y, w, *_marginals(x, y), out, np.empty(out.shape), np.empty(out.shape))
    return out
