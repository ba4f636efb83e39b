import numpy as np
import pytest

from spp import Rng, ShapeError, as_matrix, matmul

from helpers import matmul_oracle, peak_transient_bytes, rand_matrix


def test_matmul_hand_example():
    a = np.array([[1.0, 2.0]])
    b_t = np.array([[3.0, 4.0]])
    assert matmul(a, b_t).tolist() == [[11.0]]


def test_matmul_matches_triple_loop_bitwise_on_small_grid():
    # Every shape up to 8x8x8; bit equality, not closeness.
    rng = Rng(7)
    for rows in range(1, 9):
        for cols in range(1, 9):
            for inner in range(1, 9):
                a = rand_matrix(rng, rows, inner)
                b_t = rand_matrix(rng, cols, inner)
                got = matmul(a, b_t)
                want = matmul_oracle(a, b_t)
                assert np.array_equal(got, want), (rows, cols, inner)


def test_matmul_random_rectangular_matches_oracle_exactly():
    rng = Rng(123)
    a = rand_matrix(rng, 3, 5)
    b_t = rand_matrix(rng, 4, 5)
    assert np.array_equal(matmul(a, b_t), matmul_oracle(a, b_t))


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(np.ones((2, 3)), np.ones((2, 4)))


def test_matmul_works_on_transposed_views():
    rng = Rng(5)
    a = rand_matrix(rng, 4, 3)
    w = rand_matrix(rng, 4, 6)
    # (3, 4) @ (4, 6) expressed through the transposed-right primitive
    got = matmul(a.T, w.T)
    assert np.array_equal(got, matmul_oracle(np.ascontiguousarray(a.T), np.ascontiguousarray(w.T)))


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ShapeError):
        as_matrix(np.ones(3))
    with pytest.raises(ShapeError):
        as_matrix(np.ones((0, 2)))
    with pytest.raises(ValueError):
        as_matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 1.0]]))


def test_as_matrix_passthrough_and_coercion():
    arr = np.ones((2, 2))
    assert as_matrix(arr) is arr  # already valid: no copy
    coerced = as_matrix([[1, 2], [3, 4]])
    assert coerced.dtype == np.float64


def test_allocation_tracker_records_kernel_temporaries():
    # tracemalloc sees matmul's output and its per-term buffer, (2, 4) each,
    # although the buffer is freed before matmul returns.
    a = np.ones((2, 3))
    b_t = np.ones((4, 3))
    assert peak_transient_bytes(matmul, a, b_t) >= 2 * (2 * 4 * 8)
    # What was allocated before the probe started does not count.
    assert peak_transient_bytes(lambda: None) < 2 * 4 * 8
