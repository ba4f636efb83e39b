import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spp import Rng, ShapeError, as_matrix, matmul, numerics

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
    with pytest.raises(ShapeError, match="2-D"):
        matmul(np.ones(3), np.ones((2, 3)))


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
    # tracemalloc sees matmul's (2, 4) output and its (2, 4) buffer of
    # terms, although the buffer is freed before matmul returns.
    a = np.ones((2, 3))
    b_t = np.ones((4, 3))
    assert peak_transient_bytes(matmul, a, b_t) >= 2 * (2 * 4 * 8)
    # What was allocated before the probe started does not count.
    assert peak_transient_bytes(lambda: None) < 2 * 4 * 8


def _same_bytes(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.integers(-4, 4).map(float),
    st.builds(lambda m, e: m * 2.0**e, st.floats(-1.0, 1.0), st.integers(-60, 60)),
)


@st.composite
def _matmul_problems(draw):
    shape = draw(st.sampled_from(["small", "wide", "single", "tall"]))
    if shape == "single":
        # One output entry sums on the loop, also past _STACK_MIN terms.
        rows = cols = 1
        inner = draw(st.integers(numerics._STACK_MIN + 1, 64))
    elif shape == "tall":
        # More rows than columns, as LoRA's (32, 4) and (64, 4) products:
        # summed into the output's transpose, also past one stack of terms.
        rows, cols = draw(st.integers(25, 64)), draw(st.integers(1, 8))
        per_stack = numerics._STACK_BYTES // (8 * rows * cols) - 1
        inner = draw(st.integers(1, 2 * numerics._STACK_MIN)
                     | st.integers(per_stack - 1, per_stack + 2))
    else:
        # Up to 24 x 24 outputs stack from _STACK_MIN terms on.  Between
        # 52 x 52 and 68 x 68 the stack cap crosses _STACK_MIN terms (at
        # 3,640 outputs): past it an output takes the loop at any length.
        side = st.integers(1, 24) if shape == "small" else st.integers(52, 68)
        rows, cols = draw(side), draw(side)
        inner = draw(st.integers(1, 2 * numerics._STACK_MIN))
        per_stack = numerics._STACK_BYTES // (8 * rows * cols) - 1
        if per_stack >= numerics._STACK_MIN and draw(st.booleans()):
            # Past one stack of terms, so plane 0 carries the running sum
            # between blocks.
            inner = draw(st.integers(per_stack - 1, 2 * per_stack + 1))
    pool = np.array(draw(st.lists(ENTRIES, min_size=1, max_size=8)))
    pick = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def operand(m):
        # LoRA passes transposed views such as d_y.T and adapter.b.T.
        if draw(st.booleans()):
            return pick.choice(pool, (inner, m)).T
        return pick.choice(pool, (m, inner))

    return operand(rows), operand(cols)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_matmul_problems())
def test_matmul_equals_the_triple_loop_byte_for_byte(problem):
    a, b_t = problem
    got = matmul(a, b_t)
    assert _same_bytes(got, matmul_oracle(a, b_t))
    assert got.flags.c_contiguous


def test_matmul_on_lora_step_shapes_equals_the_triple_loop():
    # The (32, 4), (64, 4) and (32, 4) outputs of a recovery-64 LoRA step,
    # and a tall output whose terms fill three stacks.
    rng = Rng(11)
    for rows, cols, inner in ((32, 4, 64), (64, 4, 32), (32, 4, 4), (64, 4, 300)):
        a = rand_matrix(rng, inner, rows).T  # transposed views, as LoRA passes
        b_t = rand_matrix(rng, cols, inner)
        assert _same_bytes(matmul(a, b_t), matmul_oracle(a, b_t)), (rows, cols, inner)


def test_matmul_sums_in_order_where_pairwise_would_not():
    # Sixteen terms: 2**53 and fifteen 1.0s.  In order every 1.0 rounds
    # away; pairwise summation adds the 1.0s to each other first.
    a = np.ones((1, 16))
    b_t = np.array([[2.0**53] + [1.0] * 15])
    assert matmul(a, b_t).tolist() == [[2.0**53]]
    assert np.add.reduce((a * b_t)[0]) != 2.0**53


def test_numpy_reduces_a_leading_axis_in_order_but_one_column_pairwise():
    # matmul's stacks rest on this.  Reducing a C-contiguous (T, P) stack
    # over axis 0 with P >= 2 adds plane after plane from plane 0, so 2**53
    # followed by fifteen 1.0s stays 2**53: each 1.0 rounds away.  With
    # P = 1 the reduced axis is contiguous and NumPy sums pairwise, adding
    # 1.0s to each other first, which is why single entries take matmul's
    # loop.  A NumPy that changes either behaviour fails here.
    terms = np.array([2.0**53] + [1.0] * 15)
    for planes in (2, 3, 8, 64):
        stack = np.repeat(terms[:, None], planes, axis=1)
        assert stack.flags.c_contiguous
        assert np.add.reduce(stack, axis=0).tolist() == [2.0**53] * planes
    out = np.empty((2, 3))
    np.add.reduce(np.repeat(terms, 6).reshape(16, 2, 3), axis=0, out=out)
    assert out.tolist() == [[2.0**53] * 3] * 2
    # A tall output is summed into its transpose, a view that is not
    # contiguous: the planes still go in in order.
    for rows, cols in ((3, 2), (32, 4), (64, 4), (25, 7)):
        out = np.empty((rows, cols))
        assert not out.T.flags.c_contiguous
        np.add.reduce(np.repeat(terms, rows * cols).reshape(16, cols, rows), axis=0, out=out.T)
        assert out.tolist() == [[2.0**53] * cols] * rows
    assert np.add.reduce(terms[:, None], axis=0)[0] != 2.0**53


def test_matmul_starts_every_sum_at_positive_zero():
    # Every term of row 0 is -0.0, and +0.0 + -0.0 is +0.0; a sum seeded
    # with its first term would stay -0.0.
    a = np.array([[-1.0, 2.0, -0.0], [0.0, 0.0, 0.0]])
    b_t = np.array([[0.0, -0.0, 5.0]])
    want = np.zeros((2, 1))
    assert _same_bytes(matmul(a, b_t), want)
    assert _same_bytes(matmul_oracle(a, b_t), want)


def test_small_output_transient_stays_within_the_stack_cap():
    # 4,096 terms of a 16 x 16 output fill 33 stacks of 127 terms, so the
    # carried-sum blocks run; one stack of all of them would take 8.4 MB.
    a = np.ones((16, 4096))
    b_t = np.ones((16, 4096))
    assert numerics._STACK_BYTES == 1 << 18
    # NumPy >= 2.3 lends each operand of a ufunc call whose inner loop is
    # shorter than its buffer size an iterator buffer of up to getbufsize()
    # elements.  The stacked multiply has three operands.  tracemalloc also
    # counts the call's Python objects: array headers of the views, ~2.5 KB.
    iterator_buffers = 3 * 8 * np.getbufsize()
    python_objects = 8 << 10
    out_bytes = 16 * 16 * 8
    bound = numerics._STACK_BYTES + out_bytes + iterator_buffers + python_objects
    assert peak_transient_bytes(matmul, a, b_t) <= bound
