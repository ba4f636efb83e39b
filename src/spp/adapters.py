"""Multiplicative adapters that fine-tune pruned layers without densifying them.

A frozen pruned weight W (m x n) is modulated entrywise by two small
trainable factors: a block factor ``alpha`` of shape (r, n), where each of
the r consecutive row blocks of W shares one alpha row, and a per-output-row
factor ``beta`` of shape (m, 1).  The effective update is

    W'[i, j] = (W[i, j] * alpha[i // (m / r), j]) * beta[i]

and the layer output is  y = x @ W.T + s * (drop(x) @ W'.T)  with inverted
dropout on the adapter branch only.  Because W' is W times something, every
zero of W stays exactly zero, through training and through merging.

A pruned layer holds W as its kept values (``PrunedLayer.values``), and
everything here computes on them.  Every product against W or W' goes
through the kernels in ``numerics`` on the layer's slot layout
(``SparseMask.slots``): K * m * b multiply-adds instead of m * n * b, where
K is the largest number of kept entries in a row, and bit-identical to the
dense products (``numerics`` says why).  The forward gathers the kept values
into the slots once, computes the base term ``slot_matmul(x, idx, w)`` (or
takes it as ``base``, which training computes once per run), turns those
values into W' in place, in chunks of slot rows, as
(w * alpha[row // block, col]) * beta[row] (the same products in the same
order as ``spp_effective_weight``, the dense reference), and computes the
branch with the same kernel.  It makes no m x n array; its largest
transient is W's values in slot order.

The backward needs H = s * G.T @ X only at the slots (``sampled_matmul``),
and takes H * W in kept order.  d_beta and d_alpha scatter those terms,
times alpha or beta, into a buffer of a few whole alpha blocks of rows at a
time (``_factor_sums``) and reduce each chunk exactly as the dense formulas
reduce the m x n layout, so they match them bit for bit, and no m x n
array is made.  d_x = G @ W + s * drop_backward(G @ W') gathers the kept
values into the transposed slots (``SlotLayout.values_t``) and turns them
into W' in place with the forward's helper, in the same chunks.  The
merge forms W + s * W' at the kept entries over the same chunks of whole
alpha blocks of rows as d_beta and d_alpha.

A conventional additive low-rank adapter (y += s * drop(x) @ A.T @ B.T) is
included as the contrast case: merging it produces a dense matrix, which is
exactly the failure mode the multiplicative form avoids.

Each adapter class declares its ``kind`` ("spp", "lora"), keyed in
``ADAPTERS``, and its trainable ``factors``: attribute names in constructor
and optimizer order, each with a ``d_<factor>`` in the ``AdapterGrads`` that
both backwards return and a ``<name>.<kind>.<factor>`` store key.  Their
shared base holds the keyword-only ``s`` and ``p``, reads r, m and n off the
factors, and has the one ``init`` (``spp_init``, ``lora_init``).  Both kinds'
forwards check their inputs and draw or pin dropout in one helper, and keep
one ``AdapterCache`` for their backward, which checks its inputs in another.
"""

import warnings
from dataclasses import KW_ONLY, dataclass
from types import SimpleNamespace

import numpy as np

from .errors import PatternError, ShapeError, StateError
from .numerics import as_matrix, matmul, sampled_matmul, slot_matmul
from .pruning import PrunedLayer
from .rng import Rng


# ---------------------------------------------------------------------------
# dropout


@dataclass
class DropoutMask:
    """Inverted-dropout realization: keep pattern and rescale factor.

    ``keep`` is a bool matrix over the input shape, or None for the identity
    (eval mode or p = 0).  Survivors are scaled by 1 / (1 - p) so the map
    is mean-preserving; applying the same mask to a gradient is the exact
    adjoint, so backward reuses ``apply``.
    """

    keep: np.ndarray | None
    scale: float

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.keep is None:
            return x
        if x.shape != self.keep.shape:
            raise ShapeError(
                f"dropout mask shape {self.keep.shape} does not match {x.shape}"
            )
        out = x * self.keep
        out *= self.scale
        return out


_IDENTITY_DROPOUT = DropoutMask(keep=None, scale=1.0)


def dropout_apply(
    x: np.ndarray, p: float, rng: Rng | None, training: bool
) -> tuple[np.ndarray, DropoutMask]:
    """Apply inverted dropout, returning (dropped input, realized mask).

    Eval mode or p = 0 is the identity with a trivial mask.  Entries are
    zeroed independently with probability p, drawing one uniform per entry in
    row-major order, and survivors are scaled by 1 / (1 - p).
    """
    if not (0.0 <= p < 1.0):
        raise ValueError(f"dropout rate must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        return x, _IDENTITY_DROPOUT
    if rng is None:
        raise ValueError("training-mode dropout with p > 0 requires an rng")
    u = rng.doubles(x.size).reshape(x.shape)
    mask = DropoutMask(keep=u >= p, scale=1.0 / (1.0 - p))
    return mask.apply(x), mask


# ---------------------------------------------------------------------------
# what the forward and backward of both kinds share


@dataclass
class _Adapter:
    """``factors`` (the first (r, n), the second (m, zero_cols or r)), scale, dropout rate."""

    _: KW_ONLY
    s: float = 1.0
    p: float = 0.05

    def __post_init__(self):
        for factor in self.factors:
            setattr(self, factor, as_matrix(getattr(self, factor), factor))
        if not (0.0 <= self.p < 1.0):
            raise ValueError(f"dropout rate must lie in [0, 1), got {self.p}")

    @property
    def r(self) -> int:
        return getattr(self, self.factors[0]).shape[0]

    @property
    def m(self) -> int:
        return getattr(self, self.factors[1]).shape[0]

    @property
    def n(self) -> int:
        return getattr(self, self.factors[0]).shape[1]

    @classmethod
    def init(cls, m: int, n: int, r: int, s: float, p: float, rng: Rng):
        """Fresh adapter: the first factor uniform in [-1/sqrt(n), 1/sqrt(n)), the second zero.

        A zero second factor makes the adapter branch vanish, so a freshly
        attached model computes exactly what the pruned base computes.  The
        first factor is drawn row-major from the given stream, so init is
        reproducible from the seed alone.
        """
        if m < 1 or n < 1 or r < 1:
            raise ShapeError(f"dimensions must be positive, got m={m} n={n} r={r}")
        bound = 1.0 / np.sqrt(n)
        values = (rng.uniform(-bound, bound, r, n), np.zeros((m, cls.zero_cols or r)))
        return cls(**dict(zip(cls.factors, values)), s=s, p=p)


def _check_adapter_layer(shape: tuple[int, int], adapter: _Adapter) -> None:
    m, n = shape
    if adapter.m != m or adapter.n != n:
        raise ShapeError(
            f"adapter ({adapter.m}x{adapter.n}) does not fit layer ({m}x{n})"
        )


@dataclass
class AdapterCache:
    """Everything a kind's backward needs from a training-mode forward.

    ``u`` is the low-rank branch's drop(x) @ A.T, shape (b, r); None for SPP.
    """

    x_dropped: np.ndarray
    dropout: DropoutMask
    layer: PrunedLayer
    adapter: _Adapter
    u: np.ndarray | None = None


def _forward_inputs(
    x: np.ndarray,
    layer: PrunedLayer,
    adapter: _Adapter,
    rng: Rng | None,
    training: bool,
    dropout_mask: DropoutMask | None,
    base: np.ndarray | None,
) -> tuple[np.ndarray, AdapterCache]:
    """Check a forward's inputs; returns (x as a matrix, its cache).

    The cache holds the pinned ``dropout_mask`` if one is given, else a
    realization drawn at the adapter's rate.
    """
    x = as_matrix(x, "x")
    _check_adapter_layer(layer.shape, adapter)
    if x.shape[1] != layer.shape[1]:
        raise ShapeError(f"input has {x.shape[1]} features, layer expects {layer.shape[1]}")
    out = (x.shape[0], layer.shape[0])
    if base is not None and base.shape != out:
        raise ShapeError(f"base {base.shape} does not match the output {out}")
    if dropout_mask is None:
        x_dropped, dropout_mask = dropout_apply(x, adapter.p, rng, training)
    else:
        x_dropped = dropout_mask.apply(x)
    return x, AdapterCache(x_dropped, dropout_mask, layer, adapter)


def _backward_inputs(cache: AdapterCache | None, d_y: np.ndarray) -> np.ndarray:
    """Check a backward's inputs; returns d_y as a matrix.

    Raises StateError when called without a training-mode cache.
    """
    if cache is None:
        raise StateError("backward requires the cache from a training-mode forward")
    d_y = as_matrix(d_y, "d_y")
    out_shape = (cache.x_dropped.shape[0], cache.layer.shape[0])
    if d_y.shape != out_shape:
        raise ShapeError(f"d_y shape {d_y.shape} does not match forward output {out_shape}")
    return d_y


# ---------------------------------------------------------------------------
# multiplicative adapter


@dataclass
class SppAdapter(_Adapter):
    """Trainable multiplicative factors for one pruned layer.

    alpha: (r, n) block factor, beta: (m, 1) row factor.  r, alpha's row
    count, must divide the layer's row count m.
    """

    kind = "spp"
    factors = ("alpha", "beta")
    zero_cols = 1

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if self.beta.shape[1] != 1:
            raise ShapeError(f"beta must be a column (m, 1), got {self.beta.shape}")
        if self.m % self.r != 0:
            raise PatternError(f"r = {self.r} does not divide m = {self.m}")
        if not np.any(self.alpha) and not np.any(self.beta):
            warnings.warn(
                "adapter initialized with alpha and beta both all-zero: the "
                "alpha gradient is identically zero and training cannot move "
                "either factor",
                UserWarning,
                stacklevel=2,
            )


spp_init = SppAdapter.init  # beta = 0; ``SppAdapter`` rejects an r that does not divide m


# Entries of a weight-shaped layout that the loops below hold at a time.
# ``_factor_sums`` and ``spp_merge`` take rows of the dense m x n layout,
# 32 KiB of float64, rounded down to whole alpha blocks (a larger block is
# one chunk).  ``_to_effective`` takes slot rows, 8 KiB: its three
# chunk-sized arrays and W's values in slot order, all that a forward holds
# besides its output, stay below the weight's size at 128 x 96, half kept;
# 2,048 entries did not.
_CHUNK_ENTRIES = 4096
_SLOT_ENTRIES = 1024


def _to_effective(w: np.ndarray, idx: np.ndarray, adapter: SppAdapter, transposed: bool) -> None:
    """Turn W's slot values ``w`` into W' = (w * alpha[i // (m/r), j]) * beta[i], in place.

    ``w`` and ``idx`` are the layout's (K, m) row slots, where slot t of row
    i holds column j = idx[t, i], or its (Kt, n) transposed slots, where
    slot t of column j holds row i = idx[t, j].  The same two products in
    the same order as ``spp_effective_weight``; a padded slot holds 0.0, so
    it stays +-0.0.  A slot row of the row slots runs over every row i, so
    alpha's row offsets and beta broadcast along it; the transposed slots
    gather them by row number.  The slot rows go ``_SLOT_ENTRIES`` entries
    at a time, so the index and factor arrays stay small.
    """
    n = adapter.n
    alpha = adapter.alpha.ravel()
    beta = adapter.beta[:, 0]
    alpha_row = np.arange(adapter.m) // (adapter.m // adapter.r) * n  # flat index of alpha[i // block, 0]
    rows = max(1, min(w.shape[0], _SLOT_ENTRIES // w.shape[1]))
    if transposed:
        # Adding a broadcast (n,) row instead took 12% longer at 512^2, 2:4.
        pos = np.tile(np.arange(n), (rows, 1))
    at = np.empty((rows, w.shape[1]), dtype=np.intp)
    factor = np.empty(at.shape, dtype=np.float64)
    for t in range(0, w.shape[0], rows):
        w_c = w[t : t + rows]
        c = len(w_c)
        idx_c, at_c, factor_c = idx[t : t + c], at[:c], factor[:c]
        if transposed:
            alpha_row.take(idx_c, mode="clip", out=at_c)
            at_c += pos[:c]
        else:
            np.add(idx_c, alpha_row, out=at_c)
        alpha.take(at_c, mode="clip", out=factor_c)
        w_c *= factor_c
        w_c *= beta.take(idx_c, mode="clip", out=factor_c) if transposed else beta


def _row_chunks(keep: np.ndarray, block: int, entries: int):
    """Walk ``keep`` in chunks of whole blocks of ``block`` rows, about ``entries`` entries each.

    Yields (a, b, pos, start) for rows a:b: the flat positions of their kept
    entries within those rows, and the rank of the first in the kept order.
    A block larger than ``entries`` is one chunk.
    """
    m, n = keep.shape
    rows = min(m, max(block, entries // n // block * block))
    start = 0
    for a in range(0, m, rows):
        b = min(a + rows, m)
        pos = np.flatnonzero(keep[a:b])
        yield a, b, pos, start
        start += pos.size


def _factor_sums(hw: np.ndarray, keep: np.ndarray, adapter: SppAdapter):
    """(d_beta, d_alpha) from ``hw`` = s * H * W at the kept entries, in kept order.

    The dense formulas reduce the m x n layout, +0.0 off the mask: d_beta
    sums each row of hw * alpha, d_alpha the rows of each block of
    hw * beta.  This scatters the same terms into a +0.0 buffer of a few
    whole blocks of rows (``_CHUNK_ENTRIES`` entries) at a time and reduces
    each chunk with the same NumPy sums over the same contiguous rows: the
    same values under the same reductions, so the same bytes, without the
    m x n buffer.  A chunk's
    terms are one contiguous run of the kept order, so every product here
    is on contiguous 1-D operands, which NumPy runs without iterator buffers.
    """
    m, n = keep.shape
    block = m // adapter.r
    beta = adapter.beta[:, 0]
    d_beta = np.empty((m, 1))
    d_alpha = np.empty((adapter.r, n))
    for a, b, pos, start in _row_chunks(keep, block, _CHUNK_ENTRIES):
        kept = hw[start : start + pos.size]
        terms = np.repeat(adapter.alpha[a // block : b // block], block, axis=0).take(pos)
        terms *= kept  # IEEE products commute: hw * alpha, bit for bit
        chunk = np.zeros((b - a, n))
        flat = chunk.ravel()
        flat[pos] = terms
        chunk.sum(axis=1, out=d_beta[a:b, 0])
        np.multiply(kept, beta[a:b].take(pos // n), out=terms)
        flat[pos] = terms
        chunk.reshape(-1, block, n).sum(axis=1, out=d_alpha[a // block : b // block])
    return d_beta, d_alpha


def spp_effective_weight(layer: PrunedLayer, adapter: SppAdapter) -> np.ndarray:
    """Materialize W' = (W * alpha[i // (m/r), j]) * beta[i] as one m x n array.

    The dense reference for the forward and the merge.  ``layer.weight`` is
    a fresh array, scaled in place over its (r, m/r, n) block view, so it is
    the only m x n buffer.  Zeros of the frozen weight are zeros of the
    result by construction.
    """
    _check_adapter_layer(layer.shape, adapter)
    m, n = layer.shape
    block = m // adapter.r
    w_eff = layer.weight.reshape(adapter.r, block, n)
    w_eff *= adapter.alpha[:, None, :]
    w_eff *= adapter.beta.reshape(adapter.r, block, 1)
    return w_eff.reshape(m, n)


class AdapterGrads(SimpleNamespace):
    """One backward's ``d_<factor>`` for each of the kind's ``factors``, and ``d_x``.

    ``d_x`` is None when the backward was asked not to compute it.
    """


def spp_forward_naive(
    x: np.ndarray,
    layer: PrunedLayer,
    adapter: SppAdapter,
    rng: Rng | None = None,
    training: bool = False,
    dropout_mask: DropoutMask | None = None,
    base: np.ndarray | None = None,
) -> tuple[np.ndarray, AdapterCache | None]:
    """The forward: y = x @ W.T + s * (drop(x) @ W'.T), on the kept entries.

    Bit-identical to the same formula with dense products and a
    materialized W'.  Returns (y, cache); the cache is None outside training
    mode.  Pass ``dropout_mask`` to pin the dropout realization, and
    ``base``, x @ W.T as ``PrunedLayer.apply`` gives it, to skip that
    product; ``base`` is read, not written.
    """
    x, cache = _forward_inputs(x, layer, adapter, rng, training, dropout_mask, base)
    slots = layer.mask.slots
    w = slots.values(layer.values)
    if base is None:
        base = slot_matmul(x, slots.idx, w)
    _to_effective(w, slots.idx, adapter, transposed=False)
    y = slot_matmul(cache.x_dropped, slots.idx, w)
    y *= adapter.s
    y += base  # IEEE addition commutes: bit for bit base + branch
    return y, cache if training else None


def spp_backward(
    cache: AdapterCache | None, d_y: np.ndarray, *, input_grad: bool = True
) -> AdapterGrads:
    """Gradients of the adapted layer given upstream d_y.

    With G = d_y, X = dropped input, and H = s * G.T @ X (m x n):

        d_beta[i]     = sum_k H[i][k] * W[i][k] * alpha[i // (m/r)][k]
        d_alpha[j][k] = sum over rows i of block j of H[i][k] * W[i][k] * beta[i]
        d_x           = G @ W + s * drop_backward(G @ W')

    H is needed, and computed, only where W is kept.  ``input_grad=False``
    skips d_x (None in the result), for a first layer, whose input needs no
    gradient.  Raises StateError when called without a training-mode cache.
    """
    d_y = _backward_inputs(cache, d_y)
    layer, adapter = cache.layer, cache.adapter
    slots = layer.mask.slots
    # Products are formed in place; IEEE products commute, so s * H * W
    # below is bit for bit the dense formulas' (s * H) * W.
    hw = slots.ranked(sampled_matmul(d_y, cache.x_dropped, slots.idx))
    hw *= adapter.s
    hw *= layer.values
    d_beta, d_alpha = _factor_sums(hw, layer.mask.mask, adapter)
    del hw

    d_x = None
    if input_grad:
        w_t = slots.values_t(layer.values)
        d_x = slot_matmul(d_y, slots.idx_t, w_t)
        _to_effective(w_t, slots.idx_t, adapter, transposed=True)
        d_x += adapter.s * cache.dropout.apply(slot_matmul(d_y, slots.idx_t, w_t))
    return AdapterGrads(d_alpha=d_alpha, d_beta=d_beta, d_x=d_x)


def spp_merge(layer: PrunedLayer, adapter: SppAdapter) -> PrunedLayer:
    """Fold the adapter into the weight: W + s * W' at the kept entries, on the same mask.

    The same products in the same order as W + s * ``spp_effective_weight``,
    so bit for bit that dense merge's kept entries; its masked entries are
    exact zeros, so no re-pruning is needed.  ValueError if an entry overflows.
    """
    _check_adapter_layer(layer.shape, adapter)
    keep, kept = layer.mask.mask, layer.values
    block = adapter.m // adapter.r
    merged = np.empty_like(kept)
    for a, b, pos, start in _row_chunks(keep, block, _CHUNK_ENTRIES):
        w, out = kept[start : start + pos.size], merged[start : start + pos.size]
        factor = np.repeat(adapter.alpha[a // block : b // block], block, axis=0)
        factor.take(pos, mode="clip", out=out)
        out *= w  # IEEE products commute: w * alpha, bit for bit
        factor[...] = adapter.beta[a:b]
        out *= factor.take(pos, mode="clip")
        del factor  # before the next chunk's is made
        out *= adapter.s
        out += w
    return PrunedLayer(merged, layer.mask)


# ---------------------------------------------------------------------------
# additive low-rank adapter (the densifying baseline)


@dataclass
class LoraAdapter(_Adapter):
    """Additive low-rank factors: update s * B @ A with A (r, n), B (m, r)."""

    kind = "lora"
    factors = ("a", "b")
    zero_cols = None  # b is (m, r)

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if self.a.shape[0] != self.b.shape[1]:
            raise ShapeError(
                f"rank mismatch: a is {self.a.shape}, b is {self.b.shape}"
            )


lora_init = LoraAdapter.init  # b = 0


def lora_forward(
    x: np.ndarray,
    layer: PrunedLayer,
    adapter: LoraAdapter,
    rng: Rng | None = None,
    training: bool = False,
    dropout_mask: DropoutMask | None = None,
    base: np.ndarray | None = None,
) -> tuple[np.ndarray, AdapterCache | None]:
    """y = x @ W.T + s * drop(x) @ A.T @ B.T; ``base`` as in ``spp_forward_naive``."""
    x, cache = _forward_inputs(x, layer, adapter, rng, training, dropout_mask, base)
    if base is None:
        base = layer.apply(x)
    cache.u = matmul(cache.x_dropped, adapter.a)
    y = base + adapter.s * matmul(cache.u, adapter.b)
    return y, cache if training else None


def lora_backward(
    cache: AdapterCache | None, d_y: np.ndarray, *, input_grad: bool = True
) -> AdapterGrads:
    """Gradients for the low-rank branch plus the input.

    ``input_grad=False`` skips d_x (None in the result), as in spp_backward.
    """
    d_y = _backward_inputs(cache, d_y)
    layer, adapter = cache.layer, cache.adapter
    d_b = adapter.s * matmul(d_y.T, cache.u.T)
    d_u = adapter.s * matmul(d_y, adapter.b.T)
    d_a = matmul(d_u.T, cache.x_dropped.T)
    d_x = None
    if input_grad:
        d_x = layer.apply_transpose(d_y) + cache.dropout.apply(matmul(d_u, adapter.a.T))
    return AdapterGrads(d_a=d_a, d_b=d_b, d_x=d_x)


def lora_merge_dense(layer: PrunedLayer, adapter: LoraAdapter) -> np.ndarray:
    """Fold the low-rank update in: W + s * B @ A.  Generically dense."""
    _check_adapter_layer(layer.shape, adapter)
    return layer.weight + adapter.s * matmul(adapter.b, adapter.a.T)


ADAPTERS = {cls.kind: cls for cls in (SppAdapter, LoraAdapter)}
