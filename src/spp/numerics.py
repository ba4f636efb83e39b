"""Deterministic matrix kernels, dense and on the kept entries of a pruned weight.

Everything downstream (pruning, adapters, training) runs on float64 numpy
arrays produced and combined by the helpers here.  The one non-obvious
constraint is summation order: ``matmul`` accumulates every output entry
from +0.0 strictly in ascending inner-index order, so its output is
bit-identical to a naive triple loop on every platform.  That property is
what makes checkpoints and run logs byte-reproducible.  Outputs with
room for enough terms in one stack sum each block of them with one
``np.add.reduce`` over the stack's leading axis.  That axis is the
outermost and never contiguous, so NumPy adds plane after plane, each one
elementwise into the running sum: in order.  A plane runs along the
output's longer side, so a tall output is summed into its transpose;
either way each entry is summed plane by plane from +0.0.  A single-entry
output would make the reduced axis contiguous, and there NumPy sums
pairwise, so single entries, like outputs too large to stack, add one
rank-1 term per inner index.  No kernel uses einsum or BLAS, which fix no summation order at
all.  The adapter backward's d_beta and d_alpha do sum with NumPy: a few
whole alpha blocks of rows of the dense m x n layout at a time, each chunk
reduced as the dense formulas reduce those rows, so they are bit-identical
to those formulas, not to a loop.

Products against a pruned weight run on its slot layout instead, through
``slot_matmul`` and ``sampled_matmul`` only: ``PrunedLayer``, both adapters
and the training loop call no other kernel on it.  ``pruning.SlotLayout``
owns the layout, gathers a layer's kept values into slot order and puts
per-slot results back in kept order.  Slot t of row i holds the t-th kept column
of that row, in ascending column order, and rows with fewer kept entries
than the longest row are padded with slots that read column 0 against a
weight of 0.0.  ``slot_matmul`` and ``sampled_matmul`` add the same products
in the same ascending order as ``matmul``, only without the terms whose
weight is zero, and they are bit-identical to it: every accumulator starts
at +0.0, and a sum that starts at +0.0 can never become -0.0, because x + y
is -0.0 only when both are.  Adding a term x * (+-0.0), which is +-0.0 for
finite x, therefore never changes an accumulator, so skipping it (or adding
it again for a padded slot) changes no bit.  Inputs are finite because
``as_matrix`` enforces it.  No canonicalization of zero signs is needed.
"""

import numpy as np

from .errors import NonFiniteError, ShapeError


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce ``data`` to a validated 2-D float64 array.

    Rejects non-2-D input, empty axes, and non-finite entries (a
    NonFiniteError, which is a ValueError).  Returns a
    C-contiguous float64 array (a copy only when coercion requires one).
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"{name} must have positive dimensions, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(arr)


def matmul(a: np.ndarray, b_t: np.ndarray) -> np.ndarray:
    """Product against a transposed right operand: returns ``a @ b_t.T``.

    ``a`` is (b, n), ``b_t`` is (m, n); the result is (b, m) with
    result[i][j] = sum_k a[i][k] * b_t[j][k], summed from +0.0 in ascending
    k.  Bit-identical to a scalar triple loop.  Where at least
    ``_STACK_MIN`` terms of every output entry fit in ``_STACK_BYTES``, each
    block of terms is one broadcast product into planes 1.. of a
    (block + 1, b, m) stack, or (block + 1, m, b) when b > m, whose plane 0
    holds the running sum, and one ``np.add.reduce`` over the leading axis
    adds the planes in order into the output or its transpose.  Other
    outputs, single entries among them, add one rank-1 term per k.
    """
    if a.ndim != 2 or b_t.ndim != 2:
        raise ShapeError("matmul operands must be 2-D")
    if a.shape[1] != b_t.shape[1]:
        raise ShapeError(
            f"matmul inner dimensions differ: {a.shape} vs {b_t.shape}"
        )
    rows, inner = a.shape
    cols = b_t.shape[0]
    out = np.zeros((rows, cols), dtype=np.float64)
    width = min(inner, _STACK_BYTES // (8 * rows * cols) - 1)
    if rows * cols > 1 and width >= _STACK_MIN:
        # NumPy runs one inner loop per row of a stack's last axis, so the
        # output's longer side goes there.  A tall output is summed as
        # out.T = b_t @ a.T: IEEE products commute, so the same bits.
        acc, a, b_t = (out.T, b_t, a) if rows > cols else (out, a, b_t)
        stack = np.empty((width + 1, *acc.shape), dtype=np.float64)
        # No contiguous copies: the multiply buffers its broadcast inputs.
        a_cols = a.T[:, :, None]
        b_cols = b_t.T[:, None, :]
        for k in range(0, inner, width):
            part = stack[: min(width, inner - k) + 1]
            part[0] = acc
            np.multiply(a_cols[k : k + width], b_cols[k : k + width], out=part[1:])
            np.add.reduce(part, axis=0, out=acc)
        return out
    # Column k of each operand as one contiguous row: one copy each instead
    # of a strided read per term.
    a_cols = np.ascontiguousarray(a.T)[:, :, None]
    b_cols = np.ascontiguousarray(b_t.T)
    buf = np.empty((rows, cols), dtype=np.float64)
    for k in range(inner):
        # One rank-1 term per k; += keeps the per-entry accumulation order.
        np.multiply(a_cols[k], b_cols[k], out=buf)
        out += buf
    return out


# Cap on the bytes of one stack of terms, so that an inner dimension as
# long as a batch holds a bounded transient.  At 256 outputs and 2,048
# terms, 256 KiB blocks took 2.8-2.9 ms, one unblocked 4.2 MB stack
# 2.6-2.7 ms, 64 KiB blocks 3.7-4.0 ms and the loop 6.8-7.1 ms.  NumPy's
# iterator buffers come on top: the broadcast multiply borrows up to
# getbufsize() doubles for each of its two inputs, and the loop's rank-1
# multiply borrows them too.
_STACK_BYTES = 1 << 18
# Fewest terms per stack worth its transient.  Best of 300 on a shared
# 2-core Xeon VM, loop -> stack, in us: a (32, 64) output 18.9 -> 16.6 at
# 4 terms and 35.1 -> 26.8 at 8; a (64, 64) output, 7 terms to a stack,
# 54.1 -> 55.7; an (8, 16) output 8.2 -> 5.5 at 4 terms.  A 4-term stack
# of (32, 64) outputs peaked at 231 KB under tracemalloc against the
# loop's 70 KB, for 2 us.
_STACK_MIN = 8


def slot_matmul(a: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``a @ W.T`` for a weight W given by its slots; bit-identical to matmul.

    ``a`` is (b, n).  ``idx`` and ``vals`` are (K, m): slot t of output row
    j multiplies column ``idx[t, j]`` of ``a`` by ``vals[t, j]``.  Returns
    the C-contiguous (b, m) product, each entry summed over ascending t.
    """
    rows = a.shape[0]
    cols = idx.shape[1]
    a_cols = np.ascontiguousarray(a.T)
    acc = np.zeros((cols, rows), dtype=np.float64)
    buf = np.empty((cols, rows), dtype=np.float64)
    for cols_t, vals_t in zip(idx, vals[:, :, None]):
        # Every index is in range.  The default mode="raise" would gather
        # into a fresh temporary and copy it to ``out`` on every call.  The
        # method skips np.take's dispatch, which the loop pays K times.
        a_cols.take(cols_t, axis=0, mode="clip", out=buf)
        buf *= vals_t
        acc += buf
    # Free the batch-sized buffers before the output is allocated.
    del a_cols, buf
    return np.ascontiguousarray(acc.T)


def sampled_matmul(g: np.ndarray, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``g.T @ x`` at the slots only; bit-identical to matmul(g.T, x.T) there.

    ``g`` is (b, m), ``x`` is (b, n) and ``idx`` is (K, m).  Returns (K, m)
    with out[t, j] = sum_i g[i, j] * x[i, idx[t, j]], summed over ascending
    batch row i.
    """
    out = np.zeros(idx.shape, dtype=np.float64)
    buf = np.empty(idx.shape, dtype=np.float64)
    for g_i, x_i in zip(g, x):
        x_i.take(idx, mode="clip", out=buf)
        buf *= g_i
        out += buf
    return out
