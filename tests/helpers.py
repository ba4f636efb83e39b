"""Shared helpers for the test suite."""

import tracemalloc

import numpy as np
from hypothesis import strategies as hst

from spp import Rng, matmul, spp_effective_weight


def rand_matrix(rng: Rng, rows: int, cols: int, lo: float = -1.0, hi: float = 1.0):
    return rng.uniform(lo, hi, rows, cols)


def rand_int_matrix(rng: Rng, rows: int, cols: int, lo: int = -4, hi: int = 5):
    # Integer-valued float matrices: exactly representable, so algebraic
    # identities hold bitwise.
    return np.floor(rng.uniform(lo, hi, rows, cols))


def matmul_oracle(a: np.ndarray, b_t: np.ndarray) -> np.ndarray:
    """Naive scalar triple loop, the bit-level reference for matmul."""
    rows, inner = a.shape
    cols = b_t.shape[0]
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for k in range(inner):
                acc += a[i, k] * b_t[j, k]
            out[i, j] = acc
    return out


def central_diff(f, value: float, h: float = 1e-5) -> float:
    return (f(value + h) - f(value - h)) / (2.0 * h)


def rel_close(got: np.ndarray, want: np.ndarray, tol: float) -> bool:
    """Blended absolute/relative closeness, entrywise."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return bool(np.all(np.abs(got - want) <= tol * (1.0 + np.abs(want))))


def unstructured_mask_oracle(scores: np.ndarray, ratio: float, row_wise: bool = False):
    """Full two-key sort: the reference for unstructured ``build_mask``.

    Zeroes the floor(ratio * count) lowest scores, over the whole matrix or per
    row.  The sort is by score ascending, then by index descending, so among
    tied scores the larger index is zeroed first and the smaller survives.
    """
    rows, cols = scores.shape
    if row_wise:
        n_zero = int(ratio * cols)
        mask = np.ones_like(scores)
        for i in range(rows):
            if n_zero == 0:
                continue
            idx = np.arange(cols)
            order = np.lexsort((-idx, scores[i]))
            mask[i, order[:n_zero]] = 0.0
        return mask
    n_zero = int(ratio * scores.size)
    flat = scores.ravel()
    idx = np.arange(flat.size)
    order = np.lexsort((-idx, flat))
    mask = np.ones(flat.size, dtype=np.float64)
    if n_zero:
        mask[order[:n_zero]] = 0.0
    return mask.reshape(rows, cols)


def nofm_mask_oracle(scores: np.ndarray, n_keep: int, m_group: int):
    """Stable per-group sort: the reference for N:M ``build_mask``.

    Sorts each group's negated scores stably, so tied scores stay in column
    order and the earliest is kept, and keeps the first ``n_keep``.
    """
    rows, cols = scores.shape
    groups = scores.reshape(rows, cols // m_group, m_group)
    order = np.argsort(-groups, axis=2, kind="stable")
    mask = np.zeros(groups.shape, dtype=bool)
    np.put_along_axis(mask, order[:, :, :n_keep], True, axis=2)
    return mask.reshape(rows, cols)


def spp_forward_dense(x, layer, adapter, dropout_mask=None):
    """Reference forward with dense products and a materialized W'.

    y = x @ W.T + s * (drop(x) @ W'.T); returns (y, dropped input).
    """
    x_dropped = x if dropout_mask is None else dropout_mask.apply(x)
    base = matmul(x, layer.weight)
    branch = adapter.s * matmul(x_dropped, spp_effective_weight(layer, adapter))
    return base + branch, x_dropped


def spp_backward_dense(x_dropped, dropout_mask, layer, adapter, d_y):
    """Reference backward with dense products; returns (d_alpha, d_beta, d_x).

    d_beta and d_alpha scatter their terms, (s * H) * W times alpha or
    beta at the kept entries, into one m x n buffer of +0.0 and reduce it
    with NumPy: d_beta along each row, d_alpha over the rows of each block.
    These are the sums ``spp_backward`` must reproduce byte for byte.
    """
    m, n = layer.shape
    block = m // adapter.r
    keep = layer.mask.mask
    rows, cols = np.nonzero(keep)
    hw = (adapter.s * matmul(d_y.T, x_dropped.T))[keep] * layer.values
    dense = np.zeros((m, n))
    dense[keep] = hw * adapter.alpha[rows // block, cols]
    d_beta = dense.sum(axis=1, keepdims=True)
    dense[keep] = hw * adapter.beta[rows, 0]
    d_alpha = dense.reshape(adapter.r, block, n).sum(axis=1)
    w_eff = spp_effective_weight(layer, adapter)
    drop_back = dropout_mask.apply if dropout_mask is not None else (lambda g: g)
    d_x = matmul(d_y, layer.weight.T) + adapter.s * drop_back(matmul(d_y, w_eff.T))
    return d_alpha, d_beta, d_x


def peak_transient_bytes(fn, *args, **kwargs) -> int:
    """Peak bytes allocated while ``fn`` runs, above what was live before.

    NumPy reports its buffers to ``tracemalloc``, so every temporary array
    counts, including ones a kernel frees before it returns.
    """
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@hst.composite
def keep_masks(draw, max_side=6):
    """A bool (m, n) keep mask: unstructured, or N:M along the rows.

    Rows may be forced empty or full and columns empty, and m * n is often
    not a multiple of 8.
    """
    m = draw(hst.integers(1, max_side))
    if draw(hst.booleans()):
        m_group = draw(hst.sampled_from([2, 4]))
        n_keep = draw(hst.integers(1, m_group - 1))
        groups = draw(hst.integers(1, 3))
        keep = np.zeros((m, groups, m_group), dtype=bool)
        for i in range(m):
            for g in range(groups):
                picks = draw(hst.permutations(range(m_group)))[:n_keep]
                keep[i, g, picks] = True
        return keep.reshape(m, groups * m_group)
    n = draw(hst.integers(1, 9))
    keep = np.array(draw(hst.lists(hst.booleans(), min_size=m * n, max_size=m * n)))
    keep = keep.reshape(m, n)
    for j in range(n):
        if draw(hst.sampled_from(["drawn", "drawn", "drawn", "empty"])) == "empty":
            keep[:, j] = False
    for i in range(m):
        row = draw(hst.sampled_from(["drawn", "drawn", "empty", "full"]))
        if row != "drawn":
            keep[i] = row == "full"
    return keep
