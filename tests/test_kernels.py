"""The CMI kernel against the brute-force measurement route."""

import numpy as np
import pytest

from conftest import random_density_matrix
from rqcx import kernels
from rqcx.oracle import (
    LocalMeasurement,
    _angles_to_dirs,
    _fano_parts,
    classical_mutual_info,
    post_measurement_probs,
)


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
        na, nb = _angles_to_dirs(angles)
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
