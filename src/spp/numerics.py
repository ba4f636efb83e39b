"""Deterministic matrix kernels, dense and on the kept entries of a pruned weight.

Everything downstream (pruning, adapters, training) runs on float64 numpy
arrays produced and combined by the helpers here.  The one non-obvious
constraint is summation order: ``matmul`` accumulates every output entry
from +0.0 strictly in ascending inner-index order, so its output is
bit-identical to a naive triple loop on every platform.  That property is
what makes checkpoints and run logs byte-reproducible.  Small outputs stack
their terms and sum them with one ``np.add.accumulate``, which adds each
term to the running sum before it, in order; larger outputs add one rank-1
term per inner index.  No kernel here uses ``np.add.reduce``, because it
sums pairwise when the reduced axis is contiguous (it differed from the loop
on 94 of 100 outputs of 1x1 to 3x1), nor einsum or BLAS, which fix no
summation order at all.  The adapter backward's d_beta and d_alpha do sum
with NumPy: a few whole alpha blocks of rows of the dense m x n layout at a
time, each chunk reduced as the dense formulas reduce those rows, so they
are bit-identical to those formulas, not to a loop.

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

from .errors import ShapeError


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce ``data`` to a validated 2-D float64 array.

    Rejects non-2-D input, empty axes, and non-finite entries.  Returns a
    C-contiguous float64 array (a copy only when coercion requires one).
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"{name} must have positive dimensions, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(arr)


def matmul(a: np.ndarray, b_t: np.ndarray) -> np.ndarray:
    """Product against a transposed right operand: returns ``a @ b_t.T``.

    ``a`` is (b, n), ``b_t`` is (m, n); the result is (b, m) with
    result[i][j] = sum_k a[i][k] * b_t[j][k], summed from +0.0 in ascending
    k.  Bit-identical to a scalar triple loop.  Outputs of at most
    ``_STACK_OUTPUT`` entries take ``_stacked_matmul``; larger ones add one
    rank-1 term per k, whose NumPy calls are then large enough to pay for
    their dispatch.
    """
    if a.ndim != 2 or b_t.ndim != 2:
        raise ShapeError("matmul operands must be 2-D")
    if a.shape[1] != b_t.shape[1]:
        raise ShapeError(
            f"matmul inner dimensions differ: {a.shape} vs {b_t.shape}"
        )
    rows, inner = a.shape
    cols = b_t.shape[0]
    if rows * cols <= _STACK_OUTPUT:
        return _stacked_matmul(a, b_t)
    # Column k of each operand as one contiguous row: one copy each instead
    # of a strided read per term.
    a_cols = np.ascontiguousarray(a.T)[:, :, None]
    b_cols = np.ascontiguousarray(b_t.T)
    out = np.zeros((rows, cols), dtype=np.float64)
    buf = np.empty((rows, cols), dtype=np.float64)
    for k in range(inner):
        # One rank-1 term per k; += keeps the per-entry accumulation order.
        np.multiply(a_cols[k], b_cols[k], out=buf)
        out += buf
    return out


# Largest output (rows * cols) summed by ``_stacked_matmul``.  Best of 5 on
# a shared 2-core Xeon VM, loop -> stack: (32,64)x(4,64)^T 163-291 -> 55 us,
# (64,32)x(4,32)^T 112-184 -> 60 us, (4,32)x(64,32)^T 86-150 -> 60 us.  At
# 512 outputs the loop was already as fast or faster: (8,64)x(64,64)^T
# 167 against 203 us, (32,64)x(16,64)^T 172 against 202 us.
_STACK_OUTPUT = 256
# Cap on the bytes of one stack, so that an inner dimension as long as a
# batch holds a bounded transient.  At 256 outputs and 2,048 terms, 256 KiB
# blocks took 2.8-2.9 ms, one unblocked 4.2 MB stack 2.6-2.7 ms, 64 KiB
# blocks 3.7-4.0 ms and the loop 6.8-7.1 ms.  NumPy's iterator buffers, up
# to getbufsize() doubles for each of the multiply's three operands, come on
# top; the loop's rank-1 multiply borrows them too.
_STACK_BYTES = 1 << 18


def _stacked_matmul(a: np.ndarray, b_t: np.ndarray) -> np.ndarray:
    """``matmul`` for small outputs, in O(n / block) NumPy calls.

    Each block of terms is one broadcast product into slots 1.. of a
    (rows, cols, block + 1) stack whose slot 0 holds the running sum,
    +0.0 at first.  An in-place ``np.add.accumulate`` along the last axis
    then adds slot by slot in ascending k, and its last slot carries into
    slot 0 for the next block.  The stack stays within ``_STACK_BYTES``.
    """
    rows, inner = a.shape
    cols = b_t.shape[0]
    width = min(inner, _STACK_BYTES // (8 * rows * cols) - 1)
    stack = np.empty((rows, cols, width + 1), dtype=np.float64)
    stack[:, :, 0] = 0.0
    a_rows = a[:, None, :]
    b_rows = b_t[None, :, :]
    for k in range(0, inner, width):
        part = stack[:, :, : min(width, inner - k) + 1]
        np.multiply(a_rows[:, :, k : k + width], b_rows[:, :, k : k + width], out=part[:, :, 1:])
        np.add.accumulate(part, axis=-1, out=part)
        stack[:, :, 0] = part[:, :, -1]
    return stack[:, :, 0].copy()


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
