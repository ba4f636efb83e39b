"""Multiplicative adapters that fine-tune pruned layers without densifying them.

A frozen pruned weight W (m x n) is modulated entrywise by two small
trainable factors: a block factor ``alpha`` of shape (r, n), where each of
the r consecutive row blocks of W shares one alpha row, and a per-output-row
factor ``beta`` of shape (m, 1).  The effective update is

    W'[i, j] = (W[i, j] * alpha[i // (m / r), j]) * beta[i]

and the layer output is  y = x @ W.T + s * (drop(x) @ W'.T)  with inverted
dropout on the adapter branch only.  Because W' is W times something, every
zero of W stays exactly zero, through training and through merging.

There is one forward, and it computes on the sparsity.  Every product
against W or W' goes through the kernels in ``numerics`` on the layer's slot
layout (``SparseMask.slots``): K * m * b multiply-adds instead of m * n * b,
where K is the largest number of kept entries in a row, and bit-identical to
the dense products (``numerics`` says why).  The forward gathers W's values
at the slots once, computes the base term ``slot_matmul(x, idx, w)``, turns
those values into W' in place, one slot row at a time, as
(w * alpha[row // block, col]) * beta[row] (the same products in the same
order as ``spp_effective_weight``, which stays as the dense reference and as
the merge), and computes the branch with the same kernel.  It makes no
m x n array; its largest transient is W's values in slot order.

The backward needs H = s * G.T @ X only at the slots (``sampled_matmul``).
d_beta and d_alpha scatter H * W, times alpha or beta, to m x n
(``SlotLayout.scatter``) and reduce it exactly as the dense formulas do, so
they match them bit for bit.  d_x = G @ W + s * drop_backward(G @ W') reads
the slot values through the transposed layout, first W's, then W' formed in
place from the alpha values that d_beta already gathered.

A conventional additive low-rank adapter (y += s * drop(x) @ A.T @ B.T) is
included as the contrast case: merging it produces a dense matrix, which is
exactly the failure mode the multiplicative form avoids.
"""

import warnings
from dataclasses import dataclass

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
    (eval mode or p = 0).  Kept entries are scaled by 1 / (1 - p) so the map
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
# multiplicative adapter


@dataclass
class SppAdapter:
    """Trainable multiplicative factors for one pruned layer.

    alpha: (r, n) block factor, beta: (m, 1) row factor, s: branch scale,
    p: adapter-branch dropout rate.  r must divide the layer's row count m.
    """

    alpha: np.ndarray
    beta: np.ndarray
    r: int
    s: float = 1.0
    p: float = 0.05

    def __post_init__(self):
        self.alpha = as_matrix(self.alpha, "alpha")
        self.beta = as_matrix(self.beta, "beta")
        if self.alpha.shape[0] != self.r:
            raise ShapeError(
                f"alpha has {self.alpha.shape[0]} rows, expected r = {self.r}"
            )
        if self.beta.shape[1] != 1:
            raise ShapeError(f"beta must be a column (m, 1), got {self.beta.shape}")
        if self.r < 1:
            raise PatternError(f"r must be >= 1, got {self.r}")
        m = self.beta.shape[0]
        if m % self.r != 0:
            raise PatternError(f"r = {self.r} does not divide m = {m}")
        if not (0.0 <= self.p < 1.0):
            raise ValueError(f"dropout rate must lie in [0, 1), got {self.p}")
        if not np.any(self.alpha) and not np.any(self.beta):
            warnings.warn(
                "adapter initialized with alpha and beta both all-zero: the "
                "alpha gradient is identically zero and training cannot move "
                "either factor",
                UserWarning,
                stacklevel=2,
            )

    @property
    def m(self) -> int:
        return self.beta.shape[0]

    @property
    def n(self) -> int:
        return self.alpha.shape[1]


def spp_init(m: int, n: int, r: int, s: float, p: float, rng: Rng) -> SppAdapter:
    """Fresh adapter: beta = 0, alpha uniform in [-1/sqrt(n), 1/sqrt(n)).

    Zero beta makes the adapter branch vanish, so a freshly attached model
    computes exactly what the pruned base computes.  Alpha is drawn row-major
    from the given stream, so init is reproducible from the seed alone.
    """
    if m < 1 or n < 1:
        raise ShapeError(f"layer dimensions must be positive, got {m}x{n}")
    if r < 1 or m % r != 0:
        raise PatternError(f"r must divide m: got r = {r}, m = {m}")
    bound = 1.0 / np.sqrt(n)
    alpha = rng.uniform(-bound, bound, r, n)
    beta = np.zeros((m, 1), dtype=np.float64)
    return SppAdapter(alpha=alpha, beta=beta, r=r, s=s, p=p)


def _check_adapter_layer(layer: PrunedLayer, adapter: "SppAdapter | LoraAdapter") -> None:
    m, n = layer.shape
    if adapter.m != m or adapter.n != n:
        raise ShapeError(
            f"adapter ({adapter.m}x{adapter.n}) does not fit layer ({m}x{n})"
        )


def _effective_at_slots(w: np.ndarray, idx: np.ndarray, adapter: SppAdapter) -> None:
    """Turn W's slot values ``w`` (K, m) into W' = (w * alpha) * beta, in place.

    One slot row at a time: scaling all K rows by beta in one broadcast makes
    NumPy allocate a 64 KiB ufunc buffer on top of the slot values.
    """
    m = idx.shape[1]
    alpha = adapter.alpha.ravel()
    alpha_row = np.arange(m) // (m // adapter.r) * adapter.n
    beta = adapter.beta[:, 0]
    alpha_at = np.empty(m, dtype=np.float64)
    for w_t, cols in zip(w, idx):
        alpha.take(alpha_row + cols, mode="clip", out=alpha_at)
        w_t *= alpha_at
        w_t *= beta


def spp_effective_weight(layer: PrunedLayer, adapter: SppAdapter) -> np.ndarray:
    """Materialize W' = (W * alpha[i // (m/r), j]) * beta[i] as one m x n array.

    One broadcast over the (r, m/r, n) block view of W, then beta in place,
    so the only m x n buffer is the result.  Zeros of the frozen weight are
    zeros of the result by construction.
    """
    _check_adapter_layer(layer, adapter)
    m, n = layer.shape
    block = m // adapter.r
    w_eff = layer.weight.reshape(adapter.r, block, n) * adapter.alpha[:, None, :]
    w_eff *= adapter.beta.reshape(adapter.r, block, 1)
    return w_eff.reshape(m, n)


@dataclass
class SppCache:
    """Everything spp_backward needs from a training-mode forward."""

    x_dropped: np.ndarray
    dropout: DropoutMask
    layer: PrunedLayer
    adapter: SppAdapter


@dataclass
class AdapterGrads:
    """Gradients from one backward pass through an adapted layer.

    ``d_x`` is None when the backward was asked not to compute it.
    """

    d_alpha: np.ndarray
    d_beta: np.ndarray
    d_x: np.ndarray | None


def _resolve_dropout(
    x: np.ndarray,
    p: float,
    rng: Rng | None,
    training: bool,
    dropout_mask: DropoutMask | None,
) -> tuple[np.ndarray, DropoutMask]:
    if dropout_mask is not None:
        return dropout_mask.apply(x), dropout_mask
    return dropout_apply(x, p, rng, training)


def spp_forward_naive(
    x: np.ndarray,
    layer: PrunedLayer,
    adapter: SppAdapter,
    rng: Rng | None = None,
    training: bool = False,
    dropout_mask: DropoutMask | None = None,
) -> tuple[np.ndarray, SppCache | None]:
    """The forward: y = x @ W.T + s * (drop(x) @ W'.T), on the kept entries.

    Bit-identical to the same formula with dense products and a
    materialized W'.  Returns (y, cache); the cache is None outside training
    mode.  Pass ``dropout_mask`` to pin the dropout realization.
    """
    x = as_matrix(x, "x")
    _check_adapter_layer(layer, adapter)
    if x.shape[1] != layer.shape[1]:
        raise ShapeError(f"input has {x.shape[1]} features, layer expects {layer.shape[1]}")
    x_dropped, mask = _resolve_dropout(x, adapter.p, rng, training, dropout_mask)
    slots = layer.mask.slots
    w = slots.grid(slots.values(layer.weight))
    y = slot_matmul(x, slots.idx, w)
    _effective_at_slots(w, slots.idx, adapter)
    branch = slot_matmul(x_dropped, slots.idx, w)
    branch *= adapter.s
    y += branch
    if not training:
        return y, None
    return y, SppCache(x_dropped=x_dropped, dropout=mask, layer=layer, adapter=adapter)


def spp_backward(
    cache: SppCache | None, d_y: np.ndarray, *, input_grad: bool = True
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
    if cache is None:
        raise StateError("backward requires the cache from a training-mode forward")
    d_y = as_matrix(d_y, "d_y")
    layer, adapter = cache.layer, cache.adapter
    m, n = layer.shape
    if d_y.shape != (cache.x_dropped.shape[0], m):
        raise ShapeError(
            f"d_y shape {d_y.shape} does not match forward output "
            f"({cache.x_dropped.shape[0]}, {m})"
        )
    slots = layer.mask.slots
    w = slots.values(layer.weight)
    w_slots = slots.grid(w)
    alpha_at = adapter.alpha[np.arange(m) // (m // adapter.r), slots.idx]
    hw = adapter.s * sampled_matmul(d_y, cache.x_dropped, slots.idx)
    hw *= w_slots
    # The sums run over the dense m x n layout, zeros included, so that they
    # pair up terms exactly as the dense formulas do.
    d_beta = slots.scatter(hw * alpha_at).sum(axis=1, keepdims=True)
    d_alpha = slots.scatter(hw * adapter.beta[:, 0])
    d_alpha = d_alpha.reshape(adapter.r, m // adapter.r, n).sum(axis=1)

    d_x = None
    if input_grad:
        # Transposed slots read ``w`` through t2r; padded ones read its
        # trailing 0.0.
        d_x = slot_matmul(d_y, slots.idx_t, w[slots.t2r])
        # W' = (w * alpha) * beta in place, from the alpha already gathered.
        w_slots *= alpha_at
        w_slots *= adapter.beta[:, 0]
        d_x += adapter.s * cache.dropout.apply(slot_matmul(d_y, slots.idx_t, w[slots.t2r]))
    return AdapterGrads(d_alpha=d_alpha, d_beta=d_beta, d_x=d_x)


def spp_merge(layer: PrunedLayer, adapter: SppAdapter) -> PrunedLayer:
    """Fold the adapter into the weight: W + s * W', keeping the mask.

    At masked positions both terms are exact zeros, so the merged layer
    satisfies the same mask; no re-pruning step exists or is needed.  W' is
    scaled and added to in place, so the result is the only m x n buffer.
    """
    merged = spp_effective_weight(layer, adapter)
    merged *= adapter.s
    merged += layer.weight
    return PrunedLayer(merged, layer.mask)


# ---------------------------------------------------------------------------
# additive low-rank adapter (the densifying baseline)


@dataclass
class LoraAdapter:
    """Additive low-rank factors: update s * B @ A with A (r, n), B (m, r)."""

    a: np.ndarray
    b: np.ndarray
    s: float = 1.0
    p: float = 0.05

    def __post_init__(self):
        self.a = as_matrix(self.a, "a")
        self.b = as_matrix(self.b, "b")
        if self.a.shape[0] != self.b.shape[1]:
            raise ShapeError(
                f"rank mismatch: a is {self.a.shape}, b is {self.b.shape}"
            )
        if not (0.0 <= self.p < 1.0):
            raise ValueError(f"dropout rate must lie in [0, 1), got {self.p}")

    @property
    def r(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]


def lora_init(m: int, n: int, r: int, s: float, p: float, rng: Rng) -> LoraAdapter:
    """A uniform in [-1/sqrt(n), 1/sqrt(n)), B zero, so the branch starts silent."""
    if m < 1 or n < 1 or r < 1:
        raise ShapeError(f"dimensions must be positive, got m={m} n={n} r={r}")
    bound = 1.0 / np.sqrt(n)
    a = rng.uniform(-bound, bound, r, n)
    b = np.zeros((m, r), dtype=np.float64)
    return LoraAdapter(a=a, b=b, s=s, p=p)


@dataclass
class LoraCache:
    x_dropped: np.ndarray
    dropout: DropoutMask
    layer: PrunedLayer
    adapter: LoraAdapter
    u: np.ndarray  # drop(x) @ A.T, shape (b, r)


@dataclass
class LoraGrads:
    d_a: np.ndarray
    d_b: np.ndarray
    d_x: np.ndarray | None


def lora_forward(
    x: np.ndarray,
    layer: PrunedLayer,
    adapter: LoraAdapter,
    rng: Rng | None = None,
    training: bool = False,
    dropout_mask: DropoutMask | None = None,
) -> tuple[np.ndarray, LoraCache | None]:
    """y = x @ W.T + s * drop(x) @ A.T @ B.T."""
    x = as_matrix(x, "x")
    _check_adapter_layer(layer, adapter)
    if x.shape[1] != layer.shape[1]:
        raise ShapeError(f"input has {x.shape[1]} features, layer expects {layer.shape[1]}")
    x_dropped, mask = _resolve_dropout(x, adapter.p, rng, training, dropout_mask)
    base = layer.apply(x)
    u = matmul(x_dropped, adapter.a)
    y = base + adapter.s * matmul(u, adapter.b)
    if not training:
        return y, None
    return y, LoraCache(x_dropped=x_dropped, dropout=mask, layer=layer, adapter=adapter, u=u)


def lora_backward(
    cache: LoraCache | None, d_y: np.ndarray, *, input_grad: bool = True
) -> LoraGrads:
    """Gradients for the low-rank branch plus the input.

    ``input_grad=False`` skips d_x (None in the result), as in spp_backward.
    """
    if cache is None:
        raise StateError("backward requires the cache from a training-mode forward")
    d_y = as_matrix(d_y, "d_y")
    layer, adapter = cache.layer, cache.adapter
    if d_y.shape != (cache.x_dropped.shape[0], layer.shape[0]):
        raise ShapeError(
            f"d_y shape {d_y.shape} does not match forward output "
            f"({cache.x_dropped.shape[0]}, {layer.shape[0]})"
        )
    d_b = adapter.s * matmul(d_y.T, cache.u.T)
    d_u = adapter.s * matmul(d_y, adapter.b.T)
    d_a = matmul(d_u.T, cache.x_dropped.T)
    d_x = None
    if input_grad:
        d_x = layer.apply_transpose(d_y) + cache.dropout.apply(matmul(d_u, adapter.a.T))
    return LoraGrads(d_a=d_a, d_b=d_b, d_x=d_x)


def lora_merge_dense(layer: PrunedLayer, adapter: LoraAdapter) -> np.ndarray:
    """Fold the low-rank update in: W + s * B @ A.  Generically dense."""
    _check_adapter_layer(layer, adapter)
    return layer.weight + adapter.s * matmul(adapter.b, adapter.a.T)
