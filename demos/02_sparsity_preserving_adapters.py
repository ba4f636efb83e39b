"""Multiplicative adapters: train a pruned layer without waking its zeros.

The adapter is a row factor beta (one knob per output) and a block factor
alpha (r rows, each shared by m/r consecutive outputs).  The trainable
branch is w * alpha[row block] * beta[row], so a zero weight stays zero
no matter what the factors learn.  Contrast with the additive low-rank
update at the end, which writes everywhere.
"""

import numpy as np

from spp import (
    NofM,
    Rng,
    apply_mask,
    build_mask,
    lora_init,
    lora_merge_dense,
    matmul,
    score_magnitude,
    spp_effective_weight,
    spp_forward_naive,
    spp_init,
    spp_merge,
    verify_mask,
)

rng = Rng(1)
m, n, r = 8, 8, 4
w = rng.uniform(-1.0, 1.0, m, n)
layer = apply_mask(w, build_mask(score_magnitude(w), NofM(2, 4)))
print("pruned nnz:", np.count_nonzero(layer.weight))

ad = spp_init(m, n, r, 1.0, 0.05, rng)
x = rng.uniform(-1.0, 1.0, 3, n)

# beta starts at zero, so a fresh adapter is an exact no-op
y, _ = spp_forward_naive(x, layer, ad)
print("fresh adapter is transparent:", np.array_equal(y, matmul(x, layer.weight)))

# give the factors some life and look at the effective weight
ad.alpha = rng.uniform(0.5, 1.5, r, n)
ad.beta = rng.uniform(-0.5, 0.5, m, 1)
w_eff = spp_effective_weight(layer, ad)
print("effective-weight zeros match:", np.array_equal(w_eff == 0, layer.weight == 0))

merged = spp_merge(layer, ad)
print(
    "merged nnz:", np.count_nonzero(merged.weight),
    "mask ok:", verify_mask(merged).ok,
)

# the additive adapter has no such guarantee: B A covers the whole matrix
lad = lora_init(m, n, 2, 1.0, 0.05, rng)
lad.b = rng.uniform(-0.5, 0.5, m, 2)
dense = lora_merge_dense(layer, lad)
print("low-rank merge nnz:", np.count_nonzero(dense), "(densified)")

# the usual repair is to re-impose the original mask, losing part of the update
star = apply_mask(dense, layer.mask)
print("after repruning: nnz =", np.count_nonzero(star.weight),
      "ok =", verify_mask(star).ok)
