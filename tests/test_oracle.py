import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_density_matrix, random_xstate
from reference import (
    basis_vectors,
    bloch_direction,
    classical_mutual_info,
    complementary_basis,
    family_laqc,
    holevo_quantity,
    post_measurement_probs,
)
from rqcx import kernels, oracle
from rqcx.families import FAMILY_KINDS, FamilySpec, make_state
from rqcx.measures import measure_set
from rqcx.oracle import (
    GRID,
    GRID_MAX,
    REFINE,
    REFINE_MAX,
    ComplementarySetting,
    LocalMeasurement,
    _fano_parts,
    _grid_directions,
    _grid_stage,
    _refine_angles,
    oracle_set,
)
from rqcx.states import XStateParams, check_xstate, xstate_matrix

MIXED = np.eye(4) / 4.0
BELL = xstate_matrix(XStateParams(0.5, 0.0, 0.0, 0.5, 0.5, 0.0))
Z_BASIS_BOTH = LocalMeasurement(0.0, 0.0, 0.0, 0.0)


def _laqc(rho, grid=GRID, refine=REFINE):
    """The laqc stage alone, on the Fano parts of rho."""
    return oracle.laqc_oracle(_fano_parts(rho), grid, refine)


class TestProbabilities:
    def test_maximally_mixed_uniform(self, rng):
        for _ in range(10):
            m = LocalMeasurement(*rng.uniform(0, np.pi, 4))
            table = post_measurement_probs(MIXED, m)
            np.testing.assert_allclose(list(table), [0.25] * 4, atol=1e-12)

    def test_bell_correlations_in_z(self):
        table = post_measurement_probs(BELL, Z_BASIS_BOTH)
        assert table.p00 == pytest.approx(0.5, abs=1e-12)
        assert table.p11 == pytest.approx(0.5, abs=1e-12)
        assert table.p01 == pytest.approx(0.0, abs=1e-12)
        assert table.p10 == pytest.approx(0.0, abs=1e-12)

    def test_werner_z_basis(self):
        rho = xstate_matrix(make_state(FamilySpec("werner", 0.5)))
        table = post_measurement_probs(rho, Z_BASIS_BOTH)
        assert table.p01 == pytest.approx(0.375, abs=1e-12)
        assert table.p10 == pytest.approx(0.375, abs=1e-12)
        assert table.p00 == pytest.approx(0.125, abs=1e-12)
        assert table.p11 == pytest.approx(0.125, abs=1e-12)

    def test_tables_normalized_on_random_settings(self, rng):
        for _ in range(100):
            rho = random_density_matrix(rng)
            m = LocalMeasurement(
                rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi),
                rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi),
            )
            table = post_measurement_probs(rho, m)
            assert min(table) >= 0.0
            assert sum(table) == pytest.approx(1.0, abs=1e-12)


class TestClassicalMutualInfo:
    def test_uniform_is_zero(self):
        assert classical_mutual_info([0.25, 0.25, 0.25, 0.25]) == 0.0

    def test_perfect_bit(self):
        assert classical_mutual_info([0.5, 0.0, 0.0, 0.5]) == pytest.approx(1.0, abs=1e-15)

    def test_werner_value(self):
        got = classical_mutual_info([0.125, 0.375, 0.375, 0.125])
        h = -0.25 * np.log2(0.25) - 0.75 * np.log2(0.75)
        assert got == pytest.approx(1.0 - h, abs=1e-14)
        assert got == pytest.approx(family_laqc(0.5), abs=1e-14)


class TestComplementaryBases:
    def test_phase_zero_gives_x_basis(self):
        comp = complementary_basis(np.eye(2, dtype=complex), 0.0)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert abs(abs(np.vdot(comp[:, 0], plus)) - 1.0) < 1e-12

    def test_phase_half_pi_gives_y_basis(self):
        comp = complementary_basis(np.eye(2, dtype=complex), np.pi / 2.0)
        y_plus = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        assert abs(abs(np.vdot(comp[:, 0], y_plus)) - 1.0) < 1e-12

    def test_mub_property_random(self, rng):
        for _ in range(100):
            base = basis_vectors(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            comp = complementary_basis(base, rng.uniform(0, 2 * np.pi))
            for i in range(2):
                for j in range(2):
                    overlap = abs(np.vdot(base[:, i], comp[:, j])) ** 2
                    assert overlap == pytest.approx(0.5, abs=1e-12)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError):
            complementary_basis(np.array([[1.0, 1.0], [0.0, 0.0]]), 0.0)


class TestOptimizeCmi:
    def test_maximally_mixed_max_is_zero(self):
        assert oracle_set(MIXED).cs.value < 1e-9

    def test_werner_max_matches_cs(self):
        st = make_state(FamilySpec("werner", 0.5))
        res = oracle_set(xstate_matrix(st)).cs
        assert res.value == pytest.approx(measure_set(st).cs, abs=1e-3)

    def test_mems_origin_max(self):
        st = make_state(FamilySpec("mems", 0.0))
        res = oracle_set(xstate_matrix(st)).cs
        assert res.value == pytest.approx(0.25162916738782265, abs=1e-3)

    def test_bounds_sampled_settings(self, rng):
        # the refined maximum bounds samples up to the optimizer's own accuracy; CMI >= 0
        rho = xstate_matrix(random_xstate(rng))
        hi = oracle_set(rho).cs.value
        for _ in range(100):
            m = LocalMeasurement(
                rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi),
                rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi),
            )
            val = classical_mutual_info(post_measurement_probs(rho, m))
            assert 0.0 <= val <= hi + 2e-3

    def test_setting_reproduces_value(self):
        rho = xstate_matrix(make_state(FamilySpec("mems", 0.4)))
        res = oracle_set(rho).cs
        val = classical_mutual_info(post_measurement_probs(rho, res.setting))
        assert val == pytest.approx(res.value, abs=1e-10)

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            oracle_set(MIXED, grid=4)

    def test_grid_ceiling(self):
        with pytest.raises(ValueError, match="at most"):
            oracle_set(MIXED, grid=GRID_MAX + 1)

    @pytest.mark.parametrize("measure", ["cs", "laqc", "qs"], ids=["optimize_cmi", "laqc_oracle", "qs_oracle"])
    def test_negative_refine_rejected(self, measure):
        with pytest.raises(ValueError, match="refine"):
            oracle_set(MIXED, 8, -1)
        assert getattr(oracle_set(MIXED, 8, 0), measure).refinement_depth == 0

    @pytest.mark.parametrize("measure", ["cs", "laqc", "qs"], ids=["optimize_cmi", "laqc_oracle", "qs_oracle"])
    def test_refine_ceiling(self, measure):
        # each round costs a kernel call per stage, so refine is bounded as grid is
        with pytest.raises(ValueError, match=f"refine must be at most {REFINE_MAX}"):
            oracle_set(MIXED, 8, REFINE_MAX + 1)
        assert getattr(oracle_set(MIXED, 8, REFINE_MAX), measure).refinement_depth == REFINE_MAX

    @pytest.mark.parametrize(
        "grid, refine, line",
        [(32.0, 4, "grid must be an integer, not float"), (16, 2.0, "refine must be an integer, not float"),
         (True, 2, "grid must be an integer, not bool"), (16, True, "refine must be an integer, not bool"),
         ("16", 2, "grid must be an integer, not str"), (16, "2", "refine must be an integer, not str")],
        ids=["float-grid", "float-refine", "bool-grid", "bool-refine", "str-grid", "str-refine"],
    )
    def test_non_integer_search_rejected(self, grid, refine, line):
        # numpy would refuse a float deep inside a stage, and a bool would run
        # as 0 or 1 and come back as the result's refinement_depth
        with pytest.raises(TypeError, match=f"^{line}$"):
            oracle_set(MIXED, grid, refine)

    def test_numpy_integer_search_taken(self):
        rho = xstate_matrix(make_state(FamilySpec("mems", 0.4)))
        found, want = oracle_set(rho, np.int64(16), np.int32(2)), oracle_set(rho, 16, 2)
        for measure in ("laqc", "qs", "cs"):
            assert _result_bits(getattr(found, measure)) == _result_bits(getattr(want, measure))

    def test_deterministic(self):
        rho = xstate_matrix(make_state(FamilySpec("mnms", 0.3)))
        assert oracle_set(rho) == oracle_set(rho)


def _full_sphere_leader(parts, grid, sign=1.0):
    """First tied leader of the full grid x grid sphere scan of sign * CMI, every direction repeated as it falls."""
    ra, rb, tt = parts
    thetas = np.linspace(0.0, np.pi, grid)
    phis = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    t, p = np.repeat(thetas, grid), np.tile(phis, grid)
    n = np.column_stack((np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)))
    flat = (sign * kernels.cmi_table(n @ ra, n @ rb, n @ tt @ n.T)).ravel()
    k = int(np.flatnonzero(flat >= flat.max() - 1e-9)[0])
    ia, ib = divmod(k, n.shape[0])
    return np.array([t[ia], p[ia], t[ib], p[ib]]), sign * float(flat[k])


def _full_table_terms(parts, na):
    """x, y and the full w table of directions na for both parties, w by the oracle's one
    elementwise formula, so every entry has the bits of the stage's own."""
    ra, rb, tt = parts
    return na @ ra, na @ rb, oracle._pair_w((na @ tt)[:, None], na)


def _holevo(parts, na):
    """chi_A of A's directions na, from the row terms as the grid stage forms them."""
    rb = parts[1]
    return oracle._holevo_bounds(oracle._row_terms(parts, na)[2], np.sqrt(rb @ rb))


def _start_values(parts, angles):
    """The CMI at each start of angles (L, 4), from one (L, 1, 1) lane table: the start values of
    a refinement from angles that are not the grid stage's leaders."""
    da = oracle._direction(angles[:, None, 0], angles[:, None, 1])
    return oracle._lane_table(parts, da, oracle._direction(angles[:, None, 2], angles[:, None, 3]))[:, 0, 0]


def _grid_stage_ref(parts, grid, keep=1, block_rows=None):
    """The grid stage as one full CMI table: its maximum, then the first `keep` settings within _TIE_TOL of it.
    With block_rows, the kernel runs on that many rows of the one w at a time: the same bits, in less memory."""
    na, ta, pa = _grid_directions(grid)
    x, y, w = _full_table_terms(parts, na)
    step = block_rows or x.size
    flat = np.concatenate([kernels.cmi_table(x[r : r + step], y, w[r : r + step]).ravel()
                           for r in range(0, x.size, step)])
    best = float(flat.max())
    idx = np.flatnonzero(flat >= best - oracle._TIE_TOL)[:keep]
    ia, ib = np.divmod(idx, na.shape[0])
    return np.column_stack((ta[ia], pa[ia], ta[ib], pa[ib])), flat[idx]


_STAGE_KINDS = ("generic", "rank-deficient", "diagonal", "bell-boundary", "mixed", "bell")


def _stage_state(kind, weights, signs):
    """A density matrix of the given kind; weights and signs vary it where the kind allows."""
    if kind == "mixed":  # every setting ties at CMI 0
        return MIXED
    if kind == "bell":
        return BELL
    w = np.array(weights)
    if kind == "rank-deficient":
        w[1] = 0.0
    a, b, c, d = w / w.sum()
    r, s = signs[0] * np.sqrt(a * d), signs[1] * np.sqrt(b * c)
    if kind == "generic" or kind == "rank-deficient":  # coherences inside their bounds
        r, s = 0.5 * r, 0.7 * s
    elif kind == "diagonal":
        r = s = 0.0
    return xstate_matrix(XStateParams(a, b, c, d, r, s))


def _served_by_setting(table, w, bound=None):
    """A cmi_table stand-in serving table[i, j] for each entry of the w it is given, read off the
    bits of w[i, j]: every entry of w must differ, so any call (probe, block or full table) is served.
    With bound, an entry that is not one of w's (a corner of the ring bounds) is served bound, and
    only w's entries count as served."""
    where = {v: k for k, v in enumerate(w.ravel().tolist())}
    assert len(where) == w.size
    served, padded = [], np.append(table.ravel(), bound)

    def cmi_table(x, y, w_in):
        wanted = np.ravel(w_in).tolist()
        settings = [where[v] for v in wanted] if bound is None else [where.get(v, -1) for v in wanted]
        served.append(sum(k >= 0 for k in settings))
        return padded[settings].reshape(np.shape(w_in))

    return cmi_table, served


def _rotated_isotropic_parts(seed, c=0.3):
    """Fano parts with rA = rB = 0 and T = c Q, Q a random rotation: every direction has the
    same Holevo bound, so the grid stage keeps every row, and w = n.T.n has no two equal entries.
    Q is the rotation of a random unit quaternion, elementwise, so its bits do not depend on the
    BLAS or LAPACK kernel, as a QR factor's do."""
    g = np.random.default_rng(seed).normal(size=4)
    q0, q1, q2, q3 = g / np.sqrt(((g[0] * g[0] + g[1] * g[1]) + g[2] * g[2]) + g[3] * g[3])
    rotation = 2.0 * np.array([
        [q0 * q0 + q1 * q1 - 0.5, q1 * q2 - q0 * q3, q1 * q3 + q0 * q2],
        [q1 * q2 + q0 * q3, q0 * q0 + q2 * q2 - 0.5, q2 * q3 - q0 * q1],
        [q1 * q3 - q0 * q2, q2 * q3 + q0 * q1, q0 * q0 + q3 * q3 - 0.5],
    ])
    return np.zeros(3), np.zeros(3), c * rotation


def _stage_calls(monkeypatch, parts, grid, keep):
    """_grid_stage's result with `keep` leaders and the sizes of its cmi_table calls."""
    sizes = []

    def recorded(x, y, w, _fn=kernels.cmi_table):
        sizes.append(np.size(w))
        return _fn(x, y, w)

    with monkeypatch.context() as mp:
        mp.setattr(kernels, "cmi_table", recorded)
        mp.setattr(oracle, "_LEADERS", keep)
        result = _grid_stage(parts, grid)
    return result, sizes


_BOUND_KINDS = ("x", "x-rank-deficient", "x-diagonal", "generic", "rank-1", "rank-2", "rank-3", "negative-eigenvalue")


def _bound_state(kind, entries, weights):
    """A density matrix of the given kind, from 32 entries in [-1, 1] and four X weights; the entries,
    plus 2 on the diagonal so that no column vanishes, make g, and rho is g g^dagger of rank at most r."""
    if kind.startswith("x"):
        return _stage_state({"x": "generic", "x-rank-deficient": "rank-deficient", "x-diagonal": "diagonal"}[kind],
                            weights, (1.0, -1.0))
    rank = int(kind[-1]) if kind.startswith("rank") else 4
    g = ((np.array(entries[:16]) + 1j * np.array(entries[16:])).reshape(4, 4) + 2.0 * np.eye(4))[:, :rank]
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    if kind == "negative-eigenvalue":  # inside EIG_TOL, as a rounded state can be
        vals, vecs = np.linalg.eigh(rho)
        vals[0] = -1e-10
        rho = (vecs * (vals / vals.sum())) @ vecs.conj().T
    return rho


class TestGridStage:
    def test_distinct_directions_at_grid_32(self):
        dirs, _, _ = _grid_directions(32)
        assert dirs.shape == (481, 3)
        overlap = np.abs(dirs @ dirs.T)
        np.fill_diagonal(overlap, 0.0)
        # |n_i . n_j| = 1 would mean equal or antipodal directions
        assert overlap.max() < 1.0 - 1e-6

    def test_matches_full_sphere_scan(self, rng):
        rhos = [xstate_matrix(make_state(FamilySpec(kind, x)))
                for kind, x in (("werner", 0.5), ("mnms", 0.3), ("mems", 0.4))]
        rhos += [xstate_matrix(random_xstate(rng)), random_density_matrix(rng)]
        for rho in rhos:
            parts = _fano_parts(rho)
            angles, values = _grid_stage(parts, 32)
            full_angles, full_value = _full_sphere_leader(parts, 32)
            assert values[0] == pytest.approx(full_value, abs=1e-12)
            np.testing.assert_array_equal(angles[0], full_angles)

    @pytest.mark.parametrize("block", [None, 64, 1000], ids=["block-default", "block-64", "block-1000"])
    @pytest.mark.parametrize("grid", [8, 9, 16, 33])
    @settings(max_examples=12)
    @given(
        kind=st.sampled_from(_STAGE_KINDS),
        keep=st.sampled_from((1, 8)),
        weights=st.tuples(*[st.floats(0.05, 1.0)] * 4),
        signs=st.tuples(st.sampled_from((-1.0, 1.0)), st.sampled_from((-1.0, 1.0))),
    )
    # every setting ties (mixed), or many do (bell): the leaders are the first 8
    @example(kind="mixed", keep=8, weights=(1.0,) * 4, signs=(1.0, 1.0))
    @example(kind="bell", keep=8, weights=(1.0,) * 4, signs=(1.0, 1.0))
    def test_blocked_stage_matches_full_table(self, grid, block, kind, keep, weights, signs):
        # small blocks put ties, and near ties, on both sides of block boundaries
        parts = _fano_parts(_stage_state(kind, weights, signs))
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(oracle, "BLOCK_ELEMENTS", block)
            mp.setattr(oracle, "_LEADERS", keep)
            angles, values = _grid_stage(parts, grid)
            ref_angles, ref_values = _grid_stage_ref(parts, grid, keep)
        assert angles.shape == ref_angles.shape and angles.shape[0] >= 1
        np.testing.assert_array_equal(_bits(angles), _bits(ref_angles))
        np.testing.assert_array_equal(_bits(values), _bits(ref_values))

    @pytest.mark.parametrize("keep", [1, 2, 3])
    def test_near_tie_before_a_true_tie(self, monkeypatch, keep):
        # The parts' Holevo bound is 1 in every direction, so the probe is A's
        # row 0 and every row is kept; the other rows are cut into cells: one
        # A direction with one B ring of 8 directions (ring r is columns 8 r -
        # 7 to 8 r).  The fake kernel serves 2 at every ring bound corner, so
        # every cell is scanned, two cells per block.  The probe row holds a
        # near tie at (0, 11): within _TIE_TOL of its own maximum (0, 12),
        # but not of the overall maximum (2, 1) in a later block.  (0, 12) and
        # (0, 20) are true ties.  A block list cut at `keep` would hold the
        # near tie and lose a true tie behind it.
        parts = _rotated_isotropic_parts(3, 1.0)
        na = _grid_directions(8)[0]
        n = na.shape[0]
        assert np.all(_holevo(parts, na) == 1.0)
        table = np.zeros((n, n))
        table[0, 11] = 1.0 - 1.05e-9
        table[0, 12] = 1.0 - 0.1e-9
        table[0, 20] = 1.0 - 0.7e-9
        table[2, 1] = 1.0
        table[3, 9] = 1.0 - 0.2e-9
        fake, served = _served_by_setting(table, _full_table_terms(parts, na)[2], bound=2.0)
        monkeypatch.setattr(oracle, "BLOCK_ELEMENTS", 2 * 8)
        monkeypatch.setattr(kernels, "cmi_table", fake)
        monkeypatch.setattr(oracle, "_LEADERS", keep)
        angles, values = _grid_stage(parts, 8)
        # the probe serves row 0, the bound calls the pole column, one row
        # per call, and the rest come in blocks of two cells
        assert served == [n] + [1] * (n - 1) + [16] * ((n - 1) ** 2 // 16)
        ref_angles, ref_values = _grid_stage_ref(parts, 8, keep)
        assert values.tolist() == [1.0 - 0.1e-9, 1.0 - 0.7e-9, 1.0][:keep]
        np.testing.assert_array_equal(_bits(angles), _bits(ref_angles))
        np.testing.assert_array_equal(_bits(values), _bits(ref_values))

    @pytest.mark.parametrize("kind, param", [("mnms", 0.3), ("mems", 0.9)])
    def test_pruned_stage_matches_full_table(self, monkeypatch, kind, param):
        # the bounds drop all but a sliver of the table: one probe call, A's
        # row of the largest bound, is all of MNMS 0.3's stage; MEMS 0.9 then
        # bounds the cells of its 63 other kept rows (the pole and the four
        # corners of 15 rings each) and scans 31 cells of 32 settings
        parts = _fano_parts(xstate_matrix(make_state(FamilySpec(kind, param))))
        n = _grid_directions(32)[0].shape[0]
        for keep in (1, 8):
            (angles, values), sizes = _stage_calls(monkeypatch, parts, 32, keep)
            ref_angles, ref_values = _grid_stage_ref(parts, 32, keep)
            assert sizes == ([n] if kind == "mnms" else [n, 63 * (1 + 4 * 15), 31 * 32])
            np.testing.assert_array_equal(_bits(angles), _bits(ref_angles))
            np.testing.assert_array_equal(_bits(values), _bits(ref_values))

    @pytest.mark.parametrize("name", ["werner", "mixed", "bell"])
    def test_isotropic_stage_scans_everything(self, monkeypatch, name):
        # every direction has the same Holevo bound, so no row can be
        # dropped, and every setting is scanned or bounded.  The probe scans
        # A's row of the largest bound, one call bounds the other 480 x 16
        # cells (the pole column's values and the four corners of each of 15
        # rings), and then the kept cells are scanned.  Werner 0.7 and Bell
        # keep one ring of 32 per A direction past the pole, 15328 or 15360
        # settings (Werner's probe row holds one of them); the maximally mixed
        # state's bound is 0, so it drops nothing and scans all 7200 cells in
        # blocks of 1024
        rho = {"werner": xstate_matrix(make_state(FamilySpec("werner", 0.7))), "mixed": MIXED, "bell": BELL}[name]
        parts = _fano_parts(rho)
        n = _grid_directions(32)[0].shape[0]
        (angles, values), sizes = _stage_calls(monkeypatch, parts, 32, 8)
        ref_angles, ref_values = _grid_stage_ref(parts, 32, 8)
        cells = {"werner": [15328], "bell": [15360], "mixed": [oracle.BLOCK_ELEMENTS] * 7 + [1024]}[name]
        assert sizes == [n, (n - 1) * (1 + 4 * 15)] + cells
        np.testing.assert_array_equal(_bits(angles), _bits(ref_angles))
        np.testing.assert_array_equal(_bits(values), _bits(ref_values))

    @pytest.mark.parametrize("keep", [1, 8])
    def test_block_boundary_inside_the_kept_rows(self, monkeypatch, keep):
        # MEMS 0.7 keeps 159 rows past the probe and 31 of their cells; blocks
        # of 7 cells put 4 boundaries inside the kept cells, and the bounds
        # come 3 rows (of 61 corner and pole settings) a call
        parts = _fano_parts(xstate_matrix(make_state(FamilySpec("mems", 0.7))))
        monkeypatch.setattr(oracle, "BLOCK_ELEMENTS", 7 * 32)
        (angles, values), sizes = _stage_calls(monkeypatch, parts, 32, keep)
        ref_angles, ref_values = _grid_stage_ref(parts, 32, keep)
        assert sizes[1:] == [3 * 61] * 53 + [7 * 32] * 4 + [3 * 32]
        np.testing.assert_array_equal(_bits(angles), _bits(ref_angles))
        np.testing.assert_array_equal(_bits(values), _bits(ref_values))

    @pytest.mark.parametrize("grid", [8, 16, 32, 33])
    def test_isotropic_stage_matches_full_table(self, grid):
        # Werner states across (0, 1]: up to p = 1e-3 the bound is within
        # _TIE_TOL + _BOUND_SLACK of 0 and the stage scans every cell; above
        # it, only the cells at or above the floor
        rhos = [xstate_matrix(make_state(FamilySpec("werner", p))) for p in
                (1e-6, 1e-4, 1e-3, 1.2e-3, 2e-3, 0.01, 0.1, 1.0 / 3.0, 0.5, 0.7, 0.9, 1.0)]
        states = [_fano_parts(rho) for rho in (*rhos, MIXED, BELL)]
        states += [_rotated_isotropic_parts(seed, c) for seed, c in ((0, 0.3), (1, 0.8), (2, 1.0))]
        for parts in states:
            for keep in (1, 8):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(oracle, "_LEADERS", keep)
                    angles, values = _grid_stage(parts, grid)
                ref_angles, ref_values = _grid_stage_ref(parts, grid, keep)
                np.testing.assert_array_equal(_bits(angles), _bits(ref_angles))
                np.testing.assert_array_equal(_bits(values), _bits(ref_values))

    @pytest.mark.parametrize("param", [0.5625, 0.565, 0.5675, 0.57])
    def test_near_isotropic_stage_matches_full_table(self, monkeypatch, param):
        # MEMS here has Holevo bounds within 0.015 of each other, so a row
        # bound alone keeps 480 rows; the pole column's values, its leaders
        # among them, raise the floor above every other cell's bound
        parts = _fano_parts(xstate_matrix(make_state(FamilySpec("mems", param))))
        for keep in (1, 8):
            (angles, values), sizes = _stage_calls(monkeypatch, parts, 32, keep)
            ref_angles, ref_values = _grid_stage_ref(parts, 32, keep)
            assert sum(sizes) <= 30000 and len(sizes) <= 3
            np.testing.assert_array_equal(_bits(angles), _bits(ref_angles))
            np.testing.assert_array_equal(_bits(values), _bits(ref_values))

    def test_isotropic_stage_matches_full_table_at_grid_64(self):
        parts = _fano_parts(xstate_matrix(make_state(FamilySpec("werner", 0.7))))
        angles, values = _grid_stage(parts, 64)
        ref_angles, ref_values = _grid_stage_ref(parts, 64, 8, block_rows=64)
        np.testing.assert_array_equal(_bits(angles), _bits(ref_angles))
        np.testing.assert_array_equal(_bits(values), _bits(ref_values))

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(_BOUND_KINDS),
        entries=st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32),
        weights=st.tuples(*[st.floats(0.05, 1.0)] * 4),
        grid=st.sampled_from((8, 16, 33)),
    )
    def test_every_cmi_is_within_its_ring_bound(self, kind, entries, weights, grid):
        # convexity in B's channel: no kernel value of a cell (A direction i,
        # B ring r) exceeds the largest at the corners of its box, past
        # rounding; the pole column is the scan's own values
        parts = _fano_parts(_bound_state(kind, entries, weights))
        na, t, _ = _grid_directions(grid)
        x, y, w = _full_table_terms(parts, na)
        table = kernels.cmi_table(x, y, w)
        terms = oracle._row_terms(parts, na)[2]
        bounds = oracle._ring_bounds(terms, np.arange(x.size), t[1::grid], (y[0], w[:, 0]))
        np.testing.assert_array_equal(_bits(bounds[:, 0]), _bits(table[:, 0]))
        rings = table[:, 1:].reshape(x.size, -1, grid)
        assert np.all(rings.max(axis=2) <= bounds[:, 1:] + 1e-12)

    def test_bounds_match_the_projector_route(self, rng):
        # chi_A from the Fano parts is the Holevo quantity of A's measurement,
        # as the partial traces of rho give it
        rhos = [random_density_matrix(rng) for _ in range(4)]
        rhos += [xstate_matrix(random_xstate(rng, k % 2 == 1)) for k in range(4)]
        rhos += [xstate_matrix(make_state(FamilySpec(kind, x))) for kind, x in (("mnms", 0.3), ("werner", 1.0))]
        na, ta, pa = _grid_directions(8)
        for rho in rhos:
            chi = _holevo(_fano_parts(rho), na)
            ref = [holevo_quantity(rho, t, p, "A") for t, p in zip(ta, pa)]
            np.testing.assert_allclose(chi, ref, rtol=0.0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(_BOUND_KINDS),
        entries=st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32),
        weights=st.tuples(*[st.floats(0.05, 1.0)] * 4),
        grid=st.sampled_from((8, 16, 33)),
    )
    def test_every_cmi_is_within_its_bounds(self, kind, entries, weights, grid):
        # Holevo: no CMI of A's row n exceeds chi_A(n); the kernel's rounding
        # stays far inside the slack
        parts = _fano_parts(_bound_state(kind, entries, weights))
        ra, rb, tt = parts
        na = _grid_directions(grid)[0]
        table = kernels.cmi_table(na @ ra, na @ rb, na @ tt @ na.T)
        chi = _holevo(parts, na)
        assert chi.shape == (na.shape[0],)
        assert np.all(table <= chi[:, None] + oracle._BOUND_SLACK)

    @pytest.mark.parametrize("grid", [8, 16, 32, 33])
    @settings(max_examples=40)
    @given(
        kind=st.sampled_from(("werner", "mnms", "mems", "x", "x-rank")),
        param=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_leader_values_are_the_lane_table_bits(self, grid, kind, param, seed):
        """On an X state, each leader value of the grid stage has the bits of the (L, 1, 1) lane
        table at its angles, so refinement starts from the values that table would give.

        Both routes form x, y and T^T n by matrix products, which on an X state
        are one product plus exact zeros whatever the shapes; on a generic matrix
        the grid's (n, 3) products and the lanes' (L, 1, 3) ones can round
        differently, and a leader value can then differ in its last bit.
        """
        if kind in FAMILY_KINDS:
            state = make_state(FamilySpec(kind, param))
        else:
            state = random_xstate(np.random.default_rng(seed), kind == "x-rank")
        parts = _fano_parts(xstate_matrix(state))
        angles, values = _grid_stage(parts, grid)
        np.testing.assert_array_equal(_bits(values), _bits(_start_values(parts, angles)))

    @pytest.mark.parametrize("kind", ["generic", "mixed", "bell"])
    def test_grid_64_peak_is_about_w(self, kind):
        # no table-sized array: the full w would be 1985**2 doubles (31.5 MB),
        # and the stage stays under an eighth of it (3.4 MB measured for the
        # maximally mixed state and Bell, which scan the most cells).  A full
        # CMI or w table, or a candidate list holding every tie, would break
        # it; the ring bounds, w and the cells come in blocks
        parts = _fano_parts(_stage_state(kind, (0.4, 0.3, 0.2, 0.1), (1.0, -1.0)))
        w_bytes = 1985**2 * 8
        tracemalloc.start()
        try:
            _grid_stage(parts, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < w_bytes / 8

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(_BOUND_KINDS),
        entries=st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32),
        weights=st.tuples(*[st.floats(0.05, 1.0)] * 4),
        grid=st.sampled_from((8, 16, 33)),
        prune=st.booleans(),
    )
    def test_stage_w_has_the_full_table_bits(self, kind, entries, weights, grid, prune):
        # every w entry the stage forms, the pole column handed to the ring
        # bounds and each cell block's, has the bits of the full _pair_w table
        # at its indices.  A block's cells are read off its _pair_w call: each
        # cell's steered vector is a row of T^T n_A and its directions one of
        # B's rings, matched by their bits.  The block's w is the one its
        # kernel call, one of the stage's last, receives.  Unpruned (a slack
        # past every CMI), every row is kept and every cell scanned
        parts = _fano_parts(_bound_state(kind, entries, weights))
        na = _grid_directions(grid)[0]
        full = _full_table_terms(parts, na)[2]
        row_of = {v.tobytes(): i for i, v in reversed(list(enumerate(na @ parts[2])))}  # a repeated row: its first
        ring_of = {v.tobytes(): r for r, v in enumerate(na[1:].reshape(-1, grid, 3))}
        poles, blocks, tables = [], [], []

        def ring_bounds(terms, rows, thetas, pole, _fn=oracle._ring_bounds):
            poles.append((rows, pole[1]))
            return _fn(terms, rows, thetas, pole)

        def pair_w(s, n, _fn=oracle._pair_w):
            w = _fn(s, n)
            if np.ndim(n) == 3:  # a block of cells, (cells, 1, 3) steered vectors with (cells, grid, 3) rings
                ri = np.array([row_of[v.tobytes()] for v in s[:, 0]])
                blocks.append((ri, np.array([ring_of[v.tobytes()] for v in n])))
            return w

        def cmi_table(x, y, w, _fn=kernels.cmi_table):
            tables.append(w)
            return _fn(x, y, w)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_ring_bounds", ring_bounds)
            mp.setattr(oracle, "_pair_w", pair_w)
            mp.setattr(kernels, "cmi_table", cmi_table)
            if not prune:
                mp.setattr(oracle, "_BOUND_SLACK", 10.0)
            _grid_stage(parts, grid)
        (rows, w_pole), = poles
        np.testing.assert_array_equal(_bits(w_pole), _bits(full[rows, 0]))
        scanned = sum(ri.size for ri, _ in blocks)
        if not prune:
            assert rows.size == na.shape[0] - 1 and scanned == rows.size * (na.shape[0] - 1) // grid
        for (ri, cr), w in zip(blocks, tables[len(tables) - len(blocks):]):
            cols = (1 + grid * cr)[:, None] + np.arange(grid)
            np.testing.assert_array_equal(_bits(w[:, 0]), _bits(full[ri[:, None], cols]))


def _paired_cmi_ref(parts, da, db):
    """CMI of the paired directions da[..., i, :] and db[..., i, :]: w from a three-operand einsum, then cmi_flat."""
    ra, rb, tt = parts
    shape = da.shape[:-1]
    da, db = da.reshape(-1, 3), db.reshape(-1, 3)
    w = np.einsum("ij,jk,ik->i", da, tt, db)
    return kernels.cmi_flat(da @ ra, db @ rb, w).reshape(shape)


def _cmi_at_angles_ref(parts, angles):
    ta, pa, tb, pb = np.atleast_2d(angles).T
    return _paired_cmi_ref(parts, oracle._direction(ta, pa), oracle._direction(tb, pb))


# the joint candidate offsets {-1, 0, 1}**4 and **2, in the order of the base-3 digits
_OFFSETS_4_REF = np.array(np.meshgrid(*([(-1, 0, 1)] * 4), indexing="ij")).reshape(4, -1).T
_OFFSETS_2_REF = np.array(np.meshgrid((-1, 0, 1), (-1, 0, 1), indexing="ij")).reshape(2, -1).T


def _take_improvements_ref(vals, cand, best, cur):
    """One round's update of L lanes: each lane's first best candidate
    (vals (L, n), cand (L, n, d)) replaces its current point (best (L,),
    cur (L, d)) only where it strictly beats it, so ties keep scan order."""
    lanes = np.arange(vals.shape[0])
    k = np.argmax(vals, axis=1)
    top = vals[lanes, k]
    up = top > best
    return np.where(up, top, best), np.where(up[:, None], cand[lanes, k], cur)


def _grid_steps_ref(grid):
    """The (theta_a, phi_a, theta_b, phi_b) steps of a grid: pi/(grid - 1) and 2pi/grid."""
    dt, dp = np.pi / (grid - 1), 2.0 * np.pi / grid
    return np.array([dt, dp, dt, dp])


def _refine_ref(parts, angles0, grid, rounds):
    """The refinement before its rounds became (L, 9, 9) tables: 81 paired candidates per lane."""
    angles = np.array(angles0, dtype=float)
    steps = _grid_steps_ref(grid)
    best = _cmi_at_angles_ref(parts, angles)
    for _ in range(rounds):
        cand = angles[:, None, :] + _OFFSETS_4_REF * steps
        cand[..., 0] = np.clip(cand[..., 0], 0.0, np.pi)
        cand[..., 2] = np.clip(cand[..., 2], 0.0, np.pi)
        cand[..., 1] %= 2.0 * np.pi
        cand[..., 3] %= 2.0 * np.pi
        vals = _cmi_at_angles_ref(parts, cand.reshape(-1, 4)).reshape(cand.shape[:2])
        best, angles = _take_improvements_ref(vals, cand, best, angles)
        steps = 0.5 * steps
    return angles, best


def _complex_phase_directions(bases, phases):
    """Bloch directions (L, n, 3) of the first complementary vector of each of L complex bases (L, 2, 2)."""
    e0, e1 = bases[:, None, :, 0], bases[:, None, :, 1]
    return bloch_direction((e0 + np.exp(1.0j * phases)[..., None] * e1) / np.sqrt(2.0))


def _phase_stage_ref(parts, base, grid, refine):
    """The phase stage before it took real directions and tables: complex Hadamard
    directions, and every candidate pair through _paired_cmi_ref."""
    bases_a = basis_vectors(base[:, 0], base[:, 1])
    bases_b = basis_vectors(base[:, 2], base[:, 3])
    phases = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    ia, ib = np.divmod(np.arange(grid * grid), grid)
    table = _paired_cmi_ref(
        parts, _complex_phase_directions(bases_a, phases)[:, ia], _complex_phase_directions(bases_b, phases)[:, ib]
    )
    k = np.argmax(table, axis=1)
    cur = np.column_stack((phases[ia[k]], phases[ib[k]]))
    best = table[np.arange(k.size), k]
    step = 2.0 * np.pi / grid
    for _ in range(refine):
        cand = (cur[:, None, :] + _OFFSETS_2_REF * step) % (2.0 * np.pi)
        vals = _paired_cmi_ref(
            parts, _complex_phase_directions(bases_a, cand[..., 0]), _complex_phase_directions(bases_b, cand[..., 1])
        )
        best, cur = _take_improvements_ref(vals, cand, best, cur)
        step *= 0.5
    return cur, np.where(0.0 > best, 0.0, best)


def _refine_table_ref(parts, angles0, grid, rounds):
    """The table refinement before the one ascent loop: 81 joint candidates per
    lane, candidate 9a + b being entry (a, b) of one (L, 9, 9) table."""

    def table(cand):
        a, b = cand[:, ::9], cand[:, :9]
        vals = oracle._lane_table(
            parts, oracle._direction(a[..., 0], a[..., 1]), oracle._direction(b[..., 2], b[..., 3])
        )
        return vals.reshape(cand.shape[:2])

    angles, steps = np.array(angles0, dtype=float), _grid_steps_ref(grid)
    best = table(angles[:, None])[:, 0]
    for _ in range(rounds):
        cand = angles[:, None, :] + _OFFSETS_4_REF * steps
        cand[..., ::2] = np.clip(cand[..., ::2], 0.0, np.pi)
        cand[..., 1::2] %= 2.0 * np.pi
        best, angles = _take_improvements_ref(table(cand), cand, best, angles)
        steps = 0.5 * steps
    return angles, best


def _phase_table_ref(parts, base, grid, refine):
    """The table phase stage before the one ascent loop: 9 joint candidates per
    lane, candidate 3a + b being entry (a, b) of one (L, 3, 3) table."""
    frame_a, frame_b = oracle._frame(base[:, :2]), oracle._frame(base[:, 2:])

    def table(phases_a, phases_b):
        da = oracle._complementary_directions(frame_a, phases_a)
        db = oracle._complementary_directions(frame_b, phases_b)
        return oracle._lane_table(parts, da, db).reshape(len(base), -1)

    phases = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    scan = table(phases, phases)
    k = np.argmax(scan, axis=1)
    cur = np.column_stack((phases[k // grid], phases[k % grid]))
    best = scan[np.arange(k.size), k]
    step = 2.0 * np.pi / grid
    for _ in range(refine):
        cand = (cur[:, None, :] + _OFFSETS_2_REF * step) % (2.0 * np.pi)
        best, cur = _take_improvements_ref(table(cand[:, ::3, 0], cand[:, :3, 1]), cand, best, cur)
        step *= 0.5
    return cur, np.where(0.0 > best, 0.0, best)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


class TestTableStages:
    """The table stages against the paired stages they replaced: equal values up to rounding."""

    @staticmethod
    def _parts(kind, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng) if kind == "generic" else xstate_matrix(random_xstate(rng, kind == "x-rank"))
        return _fano_parts(rho)

    @settings(max_examples=150)
    @given(
        kind=st.sampled_from(("generic", "x", "x-rank")),
        seed=st.integers(0, 2**32 - 1),
        grid=st.sampled_from((8, 9, 16, 32)),
        refine=st.integers(0, 6),
    )
    def test_stages_match_the_paired_stages(self, kind, seed, grid, refine):
        # the grid stage's tied leaders, as the oracle carries them forward;
        # a lane may take another tied candidate, but not another value
        parts = self._parts(kind, seed)
        starts, start_values = _grid_stage(parts, grid)
        angles, values = _refine_angles(parts, starts, start_values, grid, refine)
        ref_angles, ref_values = _refine_ref(parts, starts, grid, refine)
        assert np.max(np.abs(values - ref_values)) <= 1e-14
        for base in (angles, np.zeros((1, 4))):
            phases, values = oracle._phase_stage(parts, base, grid, refine)
            _, ref_values = _phase_stage_ref(parts, base, grid, refine)
            assert phases.shape == (len(base), 2)
            assert np.max(np.abs(values - ref_values)) <= 1e-14

    @settings(max_examples=150)
    @given(
        kind=st.sampled_from(("generic", "x", "x-rank")),
        seed=st.integers(0, 2**32 - 1),
        grid=st.sampled_from((8, 9, 16, 32)),
        refine=st.integers(0, 6),
    )
    def test_ascent_matches_the_joint_candidate_stages(self, kind, seed, grid, refine):
        # the one ascent loop against the stages it replaced, to the bit:
        # the grid stage's leaders, then random starts on each theta clip
        parts = self._parts(kind, seed)
        rng = np.random.default_rng(seed)
        leaders, _ = _grid_stage(parts, grid)
        clipped = np.column_stack((rng.uniform(0, np.pi, 4), rng.uniform(0, 2 * np.pi, 4),
                                   rng.uniform(0, np.pi, 4), rng.uniform(0, 2 * np.pi, 4)))
        clipped[[0, 1], 0] = 0.0, np.pi
        clipped[[2, 3], 2] = np.pi, 0.0
        starts = np.concatenate((leaders, clipped))
        angles, values = _refine_angles(parts, starts, _start_values(parts, starts), grid, refine)
        ref_angles, ref_values = _refine_table_ref(parts, starts, grid, refine)
        np.testing.assert_array_equal(_bits(angles), _bits(ref_angles))
        np.testing.assert_array_equal(_bits(values), _bits(ref_values))
        for base in (angles, np.zeros((1, 4))):
            phases, values = oracle._phase_stage(parts, base, grid, refine)
            ref_phases, ref_values = _phase_table_ref(parts, base, grid, refine)
            np.testing.assert_array_equal(_bits(phases), _bits(ref_phases))
            np.testing.assert_array_equal(_bits(values), _bits(ref_values))

    @settings(max_examples=60)
    @given(kind=st.sampled_from(("generic", "x", "x-rank")), seed=st.integers(0, 2**32 - 1), lanes=st.integers(1, 8))
    def test_table_entries_match_the_paired_kernel(self, kind, seed, lanes):
        # every (a, b) entry of a lane's table is the paired evaluation of da[a] and db[b]
        parts = self._parts(kind, seed)
        rng = np.random.default_rng(seed)
        n_a, n_b = rng.integers(1, 12, 2)
        da = oracle._direction(rng.uniform(0, np.pi, (lanes, n_a)), rng.uniform(0, 2 * np.pi, (lanes, n_a)))
        db = oracle._direction(rng.uniform(0, np.pi, (lanes, n_b)), rng.uniform(0, 2 * np.pi, (lanes, n_b)))
        table = oracle._lane_table(parts, da, db)
        shape = (lanes, n_a, n_b, 3)
        ref = _paired_cmi_ref(parts, np.broadcast_to(da[:, :, None], shape), np.broadcast_to(db[:, None], shape))
        assert table.shape == (lanes, n_a, n_b)
        assert np.max(np.abs(table - ref)) <= 2e-15

    @settings(max_examples=200)
    @given(
        theta=st.one_of(st.floats(0.0, np.pi), st.sampled_from((0.0, np.pi, 0.5 * np.pi))),
        phi=st.floats(0.0, 2 * np.pi),
        phase=st.floats(0.0, 2 * np.pi),
    )
    def test_complementary_direction_is_the_hadamard_vector(self, theta, phi, phase):
        # cos(a) e_theta + sin(a) e_phi is the Bloch vector of the complex
        # Hadamard family's first column at phase a
        got = oracle._complementary_directions(oracle._frame(np.array([[theta, phi]])), np.array([phase]))
        want = bloch_direction(complementary_basis(basis_vectors(theta, phi), phase)[:, 0])
        assert got.shape == (1, 1, 3)
        assert np.max(np.abs(got[0, 0] - want)) <= 2e-15


class TestBatchedSearch:
    """Every lane of a batched refinement or phase stage is the search it would be alone."""

    @staticmethod
    def _starts(rng, parts, grid, sign, lanes):
        # sign 1: the grid stage's tied leaders; sign -1: the full sphere scan's
        # first CMI minimum, far from every maximum.  Then random starts, two of
        # them on the theta clips.
        if sign > 0:
            angles = _grid_stage(parts, grid)[0][:lanes]  # the first `lanes` of the tied leaders
        else:
            angles = _full_sphere_leader(parts, grid, sign)[0][None]
        extra = np.column_stack((
            rng.uniform(0, np.pi, lanes), rng.uniform(0, 2 * np.pi, lanes),
            rng.uniform(0, np.pi, lanes), rng.uniform(0, 2 * np.pi, lanes),
        ))
        extra[0, 0] = 0.0
        extra[-1, 2] = np.pi
        return np.concatenate((angles, extra))[:lanes]

    @pytest.mark.parametrize("grid", [8, 16, 32])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("lanes", [1, 2, 8])
    def test_refinement_matches_one_start_loop(self, rng, lanes, sign, grid):
        rhos = [xstate_matrix(make_state(FamilySpec("werner", 0.7))), xstate_matrix(random_xstate(rng)),
                random_density_matrix(rng)]
        for rho in rhos:
            parts = _fano_parts(rho)
            starts = self._starts(rng, parts, grid, sign, lanes)
            for refine in range(7):
                angles, values = _refine_angles(parts, starts, _start_values(parts, starts), grid, refine)
                assert angles.shape == (lanes, 4) and values.shape == (lanes,)
                for lane in range(lanes):
                    start = starts[lane : lane + 1]
                    one = _refine_angles(parts, start, _start_values(parts, start), grid, refine)
                    np.testing.assert_array_equal(_bits(angles[lane]), _bits(one[0][0]))
                    assert _bits(values[lane]) == _bits(one[1][0])

    @pytest.mark.parametrize("grid", [8, 16, 32])
    def test_phase_stage_lanes_match_single_lanes(self, rng, grid):
        rho = random_density_matrix(rng)
        parts = _fano_parts(rho)
        angles = self._starts(rng, parts, grid, 1.0, 8)
        for refine in (0, 3):
            phases, values = oracle._phase_stage(parts, angles, grid, refine)
            for lane in range(8):
                one = oracle._phase_stage(parts, angles[lane : lane + 1], grid, refine)
                np.testing.assert_array_equal(_bits(phases[lane]), _bits(one[0][0]))
                assert _bits(values[lane]) == _bits(one[1][0])

    def test_stacked_bases_match_single_bases(self, rng):
        theta, phi = rng.uniform(0, np.pi, 8), rng.uniform(0, 2 * np.pi, 8)
        stacked = basis_vectors(theta, phi)
        assert stacked.shape == (8, 2, 2)
        for k in range(8):
            np.testing.assert_array_equal(stacked[k], basis_vectors(theta[k], phi[k]))


_unit = st.floats(0.0, 1.0)


@settings(max_examples=200)
@given(
    weights=st.tuples(_unit, _unit, _unit, _unit).filter(lambda w: sum(w) > 1e-3),
    coherences=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    angles=st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi),
                     st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi)),
)
def test_cmi_unchanged_by_flipping_a_direction(weights, coherences, angles):
    # n -> -n is (theta, phi) -> (pi - theta, phi + pi); the grid scan keeps one of each pair
    a, b, c, d = (v / sum(weights) for v in weights)
    r, s = coherences[0] * np.sqrt(a * d), coherences[1] * np.sqrt(b * c)
    rho = xstate_matrix(XStateParams(a, b, c, d, r, s))
    ta, pa, tb, pb = angles
    value = classical_mutual_info(post_measurement_probs(rho, LocalMeasurement(ta, pa, tb, pb)))
    flip_a = LocalMeasurement(np.pi - ta, pa + np.pi, tb, pb)
    flip_b = LocalMeasurement(ta, pa, np.pi - tb, pb + np.pi)
    for m in (flip_a, flip_b):
        assert classical_mutual_info(post_measurement_probs(rho, m)) == pytest.approx(value, abs=1e-12)


def test_bloch_direction_of_a_stack(rng):
    # each vector of a (..., 2) stack gets the Bloch vector it gets alone, to the bit
    vecs = rng.normal(size=(4, 5, 2)) + 1.0j * rng.normal(size=(4, 5, 2))
    got = bloch_direction(vecs)
    assert got.shape == (4, 5, 3)
    for idx in np.ndindex(4, 5):
        assert np.array_equal(got[idx].view(np.int64), bloch_direction(vecs[idx]).view(np.int64))


def _projector_cmi(rho, base, phase_a, phase_b):
    """CMI at a complementary setting, from explicit projectors: no kernel, no Fano parts."""
    angles = []
    for theta, phi, phase in ((base.theta_a, base.phi_a, phase_a), (base.theta_b, base.phi_b, phase_b)):
        x, y, z = bloch_direction(complementary_basis(basis_vectors(theta, phi), phase)[:, 0])
        angles += [np.arctan2(np.hypot(x, y), z), np.arctan2(y, x)]
    return classical_mutual_info(post_measurement_probs(rho, LocalMeasurement(*angles)))


_ginibre = st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32).filter(lambda v: sum(x * x for x in v) > 1e-2)


@settings(max_examples=100)
@given(entries=_ginibre, grid=st.sampled_from([8, 12, 16]), refine=st.integers(0, 3))
def test_phase_stage_value_is_the_cmi_at_its_setting(entries, grid, refine):
    # generic (non-X) states, whose phase optima lie off the diagonal phase pairs
    g = np.reshape(entries[:16], (4, 4)) + 1.0j * np.reshape(entries[16:], (4, 4))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    phases = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    found = oracle_set(rho, grid, refine)
    for res in (found.qs, found.laqc):
        base, pa, pb = res.setting
        assert abs(_projector_cmi(rho, base, pa, pb) - res.value) <= 1e-12
        diagonal = max(_projector_cmi(rho, base, p, p) for p in phases)
        assert res.value >= diagonal - 1e-12


@settings(max_examples=40)
@given(kind=st.sampled_from(("generic", "x", "x-rank")), seed=st.integers(0, 2**32 - 1), grid=st.integers(8, 10))
def test_later_rounds_never_lower_the_value(kind, seed, grid):
    # the rounds of refine r + 1 extend those of refine r, and a lane moves
    # only on strict improvement, so each search's value is nondecreasing in r
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng) if kind == "generic" else xstate_matrix(random_xstate(rng, kind == "x-rank"))
    found = [oracle_set(rho, grid, refine) for refine in range(9)]
    for measure in ("laqc", "cs"):
        values = [getattr(res, measure).value for res in found]
        assert all(later >= value for value, later in zip(values, values[1:])), values


class TestLaqcOracle:
    def test_werner(self):
        st = make_state(FamilySpec("werner", 0.5))
        res = _laqc(xstate_matrix(st))
        assert res.value == pytest.approx(0.18872187554086717, abs=1e-3)

    def test_diagonal_state_yields_zero(self):
        rho = xstate_matrix(XStateParams(0.4, 0.1, 0.2, 0.3, 0.0, 0.0))
        assert _laqc(rho).value < 1e-6

    def test_mems_large_x(self):
        st = make_state(FamilySpec("mems", 0.9))
        res = _laqc(xstate_matrix(st))
        assert res.value == pytest.approx(family_laqc(0.9), abs=1e-3)

    def test_mub_setting_returned(self):
        res = _laqc(BELL)
        assert isinstance(res.setting, ComplementarySetting)
        assert res.value == pytest.approx(1.0, abs=1e-6)


class TestQsOracle:
    def test_werner_equals_cs_oracle(self):
        found = oracle_set(xstate_matrix(make_state(FamilySpec("werner", 0.5))))
        assert found.qs.value == pytest.approx(found.cs.value, abs=1e-6)

    def test_mems_small_x(self):
        rho = xstate_matrix(make_state(FamilySpec("mems", 0.1)))
        assert oracle_set(rho).qs.value == pytest.approx(family_laqc(0.1), abs=1e-3)

    def test_maximally_mixed(self):
        assert oracle_set(MIXED).qs.value < 1e-9

    @pytest.mark.parametrize("kind, x", [("werner", 0.3), ("werner", 0.7), ("mems", 0.8)])
    def test_keeps_the_first_leader_with_the_largest_value(self, kind, x):
        # eight tied stage-1 leaders, several of whose phase stages end on bit-equal values
        rho = xstate_matrix(make_state(FamilySpec(kind, x)))
        parts = _fano_parts(rho)
        angles, values = oracle.optimize_cmi(parts, 16, 2)
        best = None
        for a in angles[values >= values.max() - 1e-9]:
            phases, value = oracle._phase_stage(parts, a[None], 16, 2)
            if best is None or value[0] > best[0]:
                best = (value[0], LocalMeasurement(*a), *phases[0])
        res = oracle_set(rho, 16, 2).qs
        assert (res.value, *res.setting) == best

    def test_dominated_by_laqc_on_random_states(self, rng):
        for _ in range(5):
            found = oracle_set(xstate_matrix(random_xstate(rng)))
            assert found.laqc.value >= found.qs.value - 2e-3


    def test_computational_leader_takes_laqcs_lane(self, monkeypatch):
        # MNMS 0.6's one tied stage-1 leader is the computational basis, laqc's
        # base: qs takes laqc's lane and makes no kernel call
        parts = _fano_parts(xstate_matrix(make_state(FamilySpec("mnms", 0.6))))
        angles, values = leaders = oracle.optimize_cmi(parts, GRID, REFINE)
        tied = angles[values >= values.max() - oracle._TIE_TOL]
        assert tied.view(np.int64).tolist() == [[0] * 4]
        laqc = oracle.laqc_oracle(parts, GRID, REFINE)
        calls = []
        monkeypatch.setattr(kernels, "cmi_table", lambda *args: calls.append(args))
        qs = oracle.qs_oracle(parts, leaders, laqc, GRID, REFINE)
        assert calls == []
        assert _result_bits(qs) == _result_bits(laqc)

    def test_werner_runs_qs_on_the_other_seven_leaders(self, monkeypatch):
        # Werner 0.2559 has 8 tied stage-1 leaders, one of them the
        # computational basis: the phase stage runs on the other 7 in one call
        parts = _fano_parts(xstate_matrix(make_state(FamilySpec("werner", 0.2559))))
        angles, values = leaders = oracle.optimize_cmi(parts, GRID, REFINE)
        tied = angles[values >= values.max() - oracle._TIE_TOL]
        assert len(tied) == 8 and (~tied.view(np.int64).any(axis=1)).sum() == 1
        laqc = oracle.laqc_oracle(parts, GRID, REFINE)
        lanes = []

        def recorded(parts, base, grid, refine, _fn=oracle._phase_stage):
            lanes.append(len(base))
            return _fn(parts, base, grid, refine)

        monkeypatch.setattr(oracle, "_phase_stage", recorded)
        oracle.qs_oracle(parts, leaders, laqc, GRID, REFINE)
        assert lanes == [7]

    @pytest.mark.parametrize(
        "base, own",
        [((0.0,) * 4, False), ((-0.0, 0.0, 0.0, 0.0), True), ((0.0, 0.0, 0.0, -0.0), True), ((0.0, 0.0, 1e-300, 0.0), True)],
        ids=["zero", "minus-zero-theta-a", "minus-zero-phi-b", "subnormal-step"],
    )
    def test_only_a_bitwise_zero_base_takes_laqcs_lane(self, base, own):
        # laqc's lane is marked with a value no phase stage gives, so a lane
        # taken from it shows; a base with any bit set, -0.0 included, runs
        # its own phase stage
        parts = _fano_parts(xstate_matrix(make_state(FamilySpec("mems", 0.4))))
        laqc = oracle.laqc_oracle(parts, 16, 2)
        marked = dataclasses.replace(laqc, value=laqc.value + 1.0)
        bases = np.array([base])
        res = oracle.qs_oracle(parts, (bases, np.array([0.5])), marked, 16, 2)
        if own:
            phases, value = oracle._phase_stage(parts, bases, 16, 2)
            assert _result_bits(res)[0] == _bits([value[0], *base, *phases[0]]).tolist()
        else:
            assert _result_bits(res) == _result_bits(marked)


def _phase_stages_by_hand(parts, bases, grid, refine):
    """The first base with the largest value of the phase stage run on each base alone, as the
    float64 bits of (value, base, phases)."""
    best = None
    for base in bases:
        phases, value = oracle._phase_stage(parts, base[None], grid, refine)
        if best is None or value[0] > best[0]:
            best = (value[0], *base, *phases[0])
    return _bits(best).tolist()


def _result_bits(res):
    """A result's value and setting angles as float64 bits, with its grid and refine."""
    setting = res.setting
    if isinstance(setting, ComplementarySetting):
        setting = (*setting.base, setting.phi_a, setting.phi_b)
    return _bits([res.value, *setting]).tolist(), res.grid_resolution, res.refinement_depth


class TestOracleSet:
    """oracle_set checks rho once and runs the three stages, stage 1 once."""

    def test_matches_the_stages_run_by_hand(self, rng):
        cases = [(xstate_matrix(random_xstate(rng)), 16, 3), (random_density_matrix(rng), 9, 2),
                 (xstate_matrix(random_xstate(rng, True)), 32, 4), (MIXED, 8, 0), (BELL, 33, 1)]
        for rho, grid, refine in cases:
            parts = _fano_parts(rho)
            angles, values = leaders = oracle.optimize_cmi(parts, grid, refine)
            laqc = oracle.laqc_oracle(parts, grid, refine)
            qs = oracle.qs_oracle(parts, leaders, laqc, grid, refine)
            cs = oracle.OptimizationResult(max(float(values[0]), 0.0), LocalMeasurement(*angles[0]), grid, refine)
            found = oracle_set(rho, grid, refine)
            assert [_result_bits(r) for r in (found.laqc, found.qs, found.cs)] == [
                _result_bits(r) for r in (laqc, qs, cs)
            ]

    def test_takes_the_trace_drift_check_xstate_takes(self):
        # check_xstate reads this state's trace drift as 9.99866855977416e-13,
        # inside STRUCT_TOL; summed (a + b) + (c + d), the matrix check read
        # 1.000088900582341e-12 and refused it.  Both now sum in index order
        params = XStateParams(1e-12, 0.0, 2.0 / 3.0, 1.0 / 3.0, 0.0, 0.0)
        check_xstate(params)
        found, want = oracle_set(xstate_matrix(params), 8, 0), oracle._xstate_oracle_set(params, 8, 0)
        for measure in ("laqc", "qs", "cs"):
            assert _result_bits(getattr(found, measure)) == _result_bits(getattr(want, measure))

    @pytest.mark.parametrize("grid", [8, 16, 32])
    @settings(max_examples=40)
    @given(
        kind=st.sampled_from(("family", "x", "x-rank", "generic")),
        family=st.sampled_from(FAMILY_KINDS),
        param=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        refine=st.integers(0, 5),
    )
    @example(kind="family", family="mnms", param=0.6, seed=0, refine=4)
    @example(kind="family", family="mems", param=0.1559, seed=0, refine=5)
    @example(kind="family", family="werner", param=0.2559, seed=0, refine=0)
    @example(kind="family", family="werner", param=0.7, seed=0, refine=3)
    def test_laqc_and_qs_are_the_phase_stages_run_by_hand(self, grid, kind, family, param, seed, refine):
        # laqc is the phase stage on the computational basis, and qs the first
        # of the phase stages on every tied stage-1 leader, each run alone,
        # whether or not a leader takes laqc's lane
        rng = np.random.default_rng(seed)
        if kind == "family":
            rho = xstate_matrix(make_state(FamilySpec(family, param)))
        elif kind == "generic":
            rho = random_density_matrix(rng)
        else:
            rho = xstate_matrix(random_xstate(rng, kind == "x-rank"))
        parts = _fano_parts(rho)
        angles, values = oracle.optimize_cmi(parts, grid, refine)
        found = oracle_set(rho, grid, refine)
        laqc = _phase_stages_by_hand(parts, np.zeros((1, 4)), grid, refine)
        qs = _phase_stages_by_hand(parts, angles[values >= values.max() - oracle._TIE_TOL], grid, refine)
        assert [_result_bits(found.laqc), _result_bits(found.qs)] == [(laqc, grid, refine), (qs, grid, refine)]

    def test_interleaved_calls_match_single_calls(self, rng):
        # generic states: their maxima lie off the grid, so refine and grid move
        # the leaders.  Each run differs from the one before in one of state,
        # refine and grid, so a result kept from an earlier call would show.
        rhos = [random_density_matrix(rng), random_density_matrix(rng)]
        runs = [(0, 2, 16), (0, 4, 16), (1, 4, 16), (1, 2, 16), (0, 2, 16), (0, 2, 8), (1, 2, 8), (1, 4, 8)]
        single = {run: oracle_set(rhos[run[0]], run[2], run[1]) for run in sorted(set(runs))}
        for run in runs:
            found = oracle_set(rhos[run[0]], run[2], run[1])
            for measure in ("laqc", "qs", "cs"):
                assert _result_bits(getattr(found, measure)) == _result_bits(getattr(single[run], measure))

    def test_max_takes_the_first_leader(self, rng):
        # cs is leader 0 of stage 1, which is the search of the grid stage's first leader alone
        for rho in (xstate_matrix(random_xstate(rng)), random_density_matrix(rng), MIXED):
            parts = _fano_parts(rho)
            angles, values = _grid_stage(parts, 16)
            angles, values = _refine_angles(parts, angles, values, 16, 3)
            res = oracle_set(rho, 16, 3).cs
            assert np.float64(res.value).view(np.int64) == np.float64(max(values[0], 0.0)).view(np.int64)
            np.testing.assert_array_equal(np.array(res.setting), angles[0])


def test_oracles_match_closed_forms_on_random_states(rng):
    for _ in range(5):
        st = random_xstate(rng)
        found = oracle_set(xstate_matrix(st))
        ms = measure_set(st)
        assert found.laqc.value == pytest.approx(ms.laqc, abs=2e-3)
        assert found.qs.value == pytest.approx(ms.qs, abs=2e-3)
        assert found.cs.value == pytest.approx(ms.cs, abs=2e-3)
