"""Deterministic matrix kernels, dense and on the kept entries of a pruned weight.

Everything downstream (pruning, adapters, training) runs on float64 numpy
arrays produced and combined by the helpers here.  The one non-obvious
constraint is summation order: ``matmul`` accumulates strictly in ascending
inner-index order, so its output is bit-identical to a naive triple loop on
every platform.  That property is what makes checkpoints and run logs
byte-reproducible, so do not swap the loop for a BLAS call.

Products against a pruned weight run on its slot layout instead, through
``slot_matmul`` and ``sampled_matmul`` only: ``PrunedLayer``, both adapters
and the training loop call no other kernel on it.  ``pruning.SlotLayout``
owns the layout, gathers a weight's values into slot order and scatters
per-slot results back to m x n.  Slot t of row i holds the t-th kept column
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
    result[i][j] = sum_k a[i][k] * b_t[j][k], accumulated in ascending k.
    Bit-identical to a scalar triple loop.
    """
    if a.ndim != 2 or b_t.ndim != 2:
        raise ShapeError("matmul operands must be 2-D")
    if a.shape[1] != b_t.shape[1]:
        raise ShapeError(
            f"matmul inner dimensions differ: {a.shape} vs {b_t.shape}"
        )
    rows, inner = a.shape
    cols = b_t.shape[0]
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
