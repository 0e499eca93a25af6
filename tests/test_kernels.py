"""The CMI kernel against the brute-force measurement route."""

import warnings

import numpy as np
import pytest

from conftest import random_density_matrix
from reference import classical_mutual_info, post_measurement_probs
from rqcx import kernels, oracle
from rqcx.oracle import LocalMeasurement, _direction, _fano_parts


def _random_angles(rng, n):
    return np.column_stack((
        rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n),
        rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n),
    ))


def _brute_force(rho, angles):
    return np.array([classical_mutual_info(post_measurement_probs(rho, LocalMeasurement(*a))) for a in angles])


def test_kernels_match_brute_force_on_random_states(rng):
    for _ in range(5):
        rho = random_density_matrix(rng)
        ra, rb, tt = _fano_parts(rho)
        angles = _random_angles(rng, 24)
        na, nb = _direction(angles[:, 0], angles[:, 1]), _direction(angles[:, 2], angles[:, 3])
        x, y = na @ ra, nb @ rb
        expected = _brute_force(rho, angles)
        flat = kernels.cmi_flat(x, y, np.einsum("ij,jk,ik->i", na, tt, nb))
        np.testing.assert_allclose(flat, expected, rtol=0, atol=1e-12)
        # every (A, B) pair of the table is one more measurement setting
        table = kernels.cmi_table(x, y, na @ tt @ nb.T)
        pairs = np.column_stack((np.repeat(angles[:, :2], 24, axis=0), np.tile(angles[:, 2:], (24, 1))))
        np.testing.assert_allclose(table.ravel(), _brute_force(rho, pairs), rtol=0, atol=1e-12)


def test_flat_is_table_diagonal(rng):
    n = 64
    x = rng.uniform(-0.6, 0.6, n)
    y = rng.uniform(-0.6, 0.6, n)
    # keep all four probabilities nonnegative: |w| <= 1 - |x| - |y|
    w = rng.uniform(-1.0, 1.0, (n, n)) * (1.0 - np.abs(x)[:, None] - np.abs(y)[None, :])
    table = kernels.cmi_table(x, y, w)
    assert table.shape == (n, n)
    np.testing.assert_array_equal(kernels.cmi_flat(x, y, np.diagonal(w)), np.diagonal(table))


def test_perfect_correlation_value():
    # x = y = 0, w = 1 gives one perfectly correlated bit
    val = kernels.cmi_flat(np.zeros(1), np.zeros(1), np.ones(1))
    assert val[0] == pytest.approx(1.0, abs=1e-14)


def test_independent_table_is_zero():
    # w = x*y factorizes the joint table
    x = np.array([0.3])
    y = np.array([-0.4])
    val = kernels.cmi_flat(x, y, x * y)
    assert val[0] == pytest.approx(0.0, abs=1e-14)


def _xlog2x_ref(p):
    return p * np.log2(p, out=np.zeros(p.shape), where=p > 0.0)


def _cmi_ref(x, y, w):
    """The CMI formula as it was written before the in-place kernel: one array per term."""
    def marginal(v):
        return _xlog2x_ref(0.5 * (1.0 + v)) + _xlog2x_ref(0.5 * (1.0 - v))

    joint = _xlog2x_ref(0.25 * (1.0 + x + y + w))
    joint += _xlog2x_ref(0.25 * (1.0 + x - y - w))
    joint += _xlog2x_ref(0.25 * (1.0 - x + y - w))
    joint += _xlog2x_ref(0.25 * (1.0 - x - y + w))
    return joint - marginal(x) - marginal(y)


_SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 2.5, -2.5])


def _with_specials(rng, values):
    """Values in [-1.5, 1.5] (so some joint cells fall below 0), a tenth replaced by special values."""
    out = values.copy()
    hit = rng.random(out.shape) < 0.1
    out[hit] = rng.choice(_SPECIALS, hit.sum())
    return out


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _bits_nan_as_one(a):
    """_bits, with every NaN as the one default NaN.

    numpy's NaN + NaN keeps the sign of one operand or the other depending on
    where the element falls in the loop (vector body or remainder), so a lane
    evaluated in another block layout can carry a NaN of the other sign.
    Every value that is not NaN, +-0.0 and +-inf included, keeps its bits.
    """
    return _bits(np.where(np.isnan(a), np.nan, a))


def _table_in_blocks(x, y, w, block):
    """cmi_table of L lanes, one call, or cut by its caller into calls of at
    most `block` settings: whole lanes where a lane fits, else row blocks of
    one lane."""
    if block is None:
        return kernels.cmi_table(x, y, w)
    lanes, n_a, n_b = w.shape
    rows = min(n_a, max(1, block // n_b))
    step = max(1, block // (rows * n_b))
    out = np.empty(w.shape)
    for l0 in range(0, lanes, step):
        for r0 in range(0, n_a, rows):
            b = (slice(l0, l0 + step), slice(r0, r0 + rows))
            out[b] = kernels.cmi_table(x[b], y[b[0]], w[b])
    return out


class TestBlockedKernel:
    """The in-place kernel performs the reference formula's float operations, bit for bit,
    and a table its caller cuts into blocks keeps every setting's bits."""

    @pytest.mark.parametrize("cols", [1, 47, 481])
    @pytest.mark.parametrize("rows_from_block", [1, "block-1", "block", "block+1", 481])
    def test_table_matches_reference_bits(self, rng, cols, rows_from_block):
        # rows around the grid stage's row block of cols-wide rows
        block = oracle.BLOCK_ELEMENTS // cols
        rows = {"block-1": block - 1, "block": block, "block+1": block + 1}.get(rows_from_block, rows_from_block)
        x = _with_specials(rng, rng.uniform(-1.5, 1.5, rows))
        y = _with_specials(rng, rng.uniform(-1.5, 1.5, cols))
        w = _with_specials(rng, rng.uniform(-1.5, 1.5, (rows, cols)))
        with np.errstate(all="ignore"):
            got = kernels.cmi_table(x, y, w)
            want = _cmi_ref(x[:, None], y[None, :], w)
        assert got.shape == (rows, cols)
        np.testing.assert_array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("n", [1, 47, 481, 5000])
    def test_flat_matches_reference_bits(self, rng, n):
        x, y, w = (_with_specials(rng, rng.uniform(-1.5, 1.5, n)) for _ in range(3))
        with np.errstate(all="ignore"):
            got = kernels.cmi_flat(x, y, w)
            want = _cmi_ref(x, y, w)
        np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_every_special_combination(self):
        s = _SPECIALS
        x, y, w = (a.ravel() for a in np.meshgrid(s, s, s, indexing="ij"))
        with np.errstate(all="ignore"):
            np.testing.assert_array_equal(_bits(kernels.cmi_flat(x, y, w)), _bits(_cmi_ref(x, y, w)))
            table = kernels.cmi_table(s, s, np.resize(s, (s.size, s.size)))
            want = _cmi_ref(s[:, None], s[None, :], np.resize(s, (s.size, s.size)))
        np.testing.assert_array_equal(_bits(table), _bits(want))

    @pytest.mark.parametrize("lanes", [1, 3, 9])
    @pytest.mark.parametrize("block", [None, 5, 40, 200], ids=["block-default", "block-5", "block-40", "block-200"])
    def test_lane_table_matches_reference_bits(self, rng, lanes, block):
        # a (7, 9) lane is 63 settings: blocks of 5 and 40 split its rows, and
        # blocks of 200 hold three whole lanes, the last block a partial one
        x = _with_specials(rng, rng.uniform(-1.5, 1.5, (lanes, 7)))
        y = _with_specials(rng, rng.uniform(-1.5, 1.5, (lanes, 9)))
        w = _with_specials(rng, rng.uniform(-1.5, 1.5, (lanes, 7, 9)))
        with np.errstate(all="ignore"):
            got = _table_in_blocks(x, y, w, block)
            for lane in range(lanes):
                want = _cmi_ref(x[lane, :, None], y[lane, None, :], w[lane])
                np.testing.assert_array_equal(_bits_nan_as_one(got[lane]), _bits_nan_as_one(want))
        assert got.shape == (lanes, 7, 9)

    @pytest.mark.parametrize("block", [None, 7, 100])
    def test_every_special_in_every_lane(self, block):
        # every special value of x and y meets every special w, one lane per w
        s = _SPECIALS
        x, y = np.tile(s, (s.size, 1)), np.tile(s[::-1], (s.size, 1))
        w = np.broadcast_to(s[:, None, None], (s.size, s.size, s.size))
        with np.errstate(all="ignore"):
            got = _table_in_blocks(x, y, w, block)
            want = _cmi_ref(x[:, :, None], y[:, None, :], w)
        np.testing.assert_array_equal(_bits_nan_as_one(got), _bits_nan_as_one(want))
        assert np.isnan(got).any() and np.isfinite(got).any()

    @pytest.mark.parametrize(
        "shapes",
        [((0,), (3,), (0, 3)), ((3,), (0,), (3, 0)), ((2, 0), (2, 3), (2, 0, 3)), ((0, 4), (0, 3), (0, 4, 3))],
        ids=["no-rows", "no-columns", "empty-lanes", "no-lanes"],
    )
    def test_empty_tables(self, shapes):
        x, y, w = (np.zeros(shape) for shape in shapes)
        assert kernels.cmi_table(x, y, w).shape == shapes[2]

    def test_zero_and_negative_cells_raise_no_warning(self):
        # finite settings whose joint cells are exactly 0 (w = +-1 at x = y = 0)
        # or just below 0 (rounding past a pure state); the unmasked log2 of
        # those cells must not leak a RuntimeWarning
        x = np.array([0.0, 0.0, 0.5, 0.5, -0.3])
        y = np.array([0.0, 0.0, 0.5, -0.5, 0.3])
        w = np.array([1.0, -1.0, 1.0 + 1e-12, -1.0 - 1e-12, -1.0 + 1e-15])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flat = kernels.cmi_flat(x, y, w)
            table = kernels.cmi_table(x, y, np.resize(w, (x.size, y.size)))
        np.testing.assert_array_equal(_bits(flat), _bits(_cmi_ref(x, y, w)))
        np.testing.assert_array_equal(_bits(table), _bits(_cmi_ref(x[:, None], y[None, :], np.resize(w, (x.size, y.size)))))
        assert flat[0] == 1.0 and flat[1] == 1.0


def _oracle_table_calls(monkeypatch, capsys, kind, param, refine):
    """The cmi_table and cmi_flat calls of one `rqcx oracle --grid 32` run."""
    from rqcx import cli

    calls = {"cmi_table": 0, "cmi_flat": 0}
    for name in calls:
        def counted(*args, _fn=getattr(kernels, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(kernels, name, counted)
    argv = ["oracle", "--state", kind, "--param", str(param), "--grid", "32", "--refine", str(refine)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    return calls


@pytest.mark.parametrize("refine", [0, 4, 8])
def test_oracle_call_is_table_calls_only(monkeypatch, capsys, refine):
    # one `rqcx oracle` at grid 32: 3 grid-stage calls, then one per
    # refinement round, which starts from the grid stage's own values, and
    # one full phase table plus one per round in each of the two phase
    # stages; stage 1 runs once, and nothing goes through cmi_flat.  Werner's Holevo bound
    # is the same in every direction, so its grid stage keeps every row: the
    # probe row, the ring bounds of the other rows' 480 x 16 cells, and the
    # kept cells, all in one block
    calls = _oracle_table_calls(monkeypatch, capsys, "werner", 0.7, refine)
    assert calls == {"cmi_table": 2 + 3 * (1 + refine), "cmi_flat": 0}


@pytest.mark.parametrize("refine", [0, 4, 8])
def test_pruned_oracle_call_is_table_calls_only(monkeypatch, capsys, refine):
    # MNMS 0.6: the grid stage's probe row, one call, sets a floor above
    # every other row's Holevo bound, so nothing else is scanned; the rest
    # as for Werner
    calls = _oracle_table_calls(monkeypatch, capsys, "mnms", 0.6, refine)
    assert calls == {"cmi_table": 3 * (1 + refine), "cmi_flat": 0}


@pytest.mark.parametrize("kind, param", [("werner", 0.0), ("werner", 0.7), ("mems", 0.8)])
def test_oracle_calls_fit_one_block(monkeypatch, capsys, kind, param):
    # the grid stage is the one caller that cuts a table, or Werner 0.7's
    # ring bounds and cells, into blocks; every other call (refinement
    # rounds, phase scans and rounds) is one table of at most 8 * 64**2
    # settings, which a Werner state's 8 tied leaders reach in qs's phase
    # scan at grid 64
    from rqcx import cli

    sizes = []

    def recorded(x, y, w, _fn=kernels.cmi_table):
        sizes.append(np.size(w))
        return _fn(x, y, w)

    monkeypatch.setattr(kernels, "cmi_table", recorded)
    for grid in ("8", "33", "64"):
        assert cli.main(["oracle", "--state", kind, "--param", str(param), "--grid", grid]) == 0
    capsys.readouterr()
    assert max(sizes) <= oracle.BLOCK_ELEMENTS
    if kind == "werner":
        assert max(sizes) == oracle.BLOCK_ELEMENTS == 8 * 64**2
