"""The adapter forward computes on the kept entries and never builds W'.

The effective weight W'[i, j] = W[i, j] * alpha[i // (m/r), j] * beta[i]
is m x n, and materializing it (``spp_effective_weight``, the dense
reference, which the merge also uses) allocates one weight-sized buffer.
The forward instead forms W' one slot row
at a time on the layer's slot layout, so its largest transient is the kept
entries of W in slot order.  Both give the same output bit for bit;
tracemalloc, which sees every NumPy buffer, measures the peaks.
"""

import tracemalloc

import numpy as np

from spp import (
    Rng,
    Unstructured,
    apply_mask,
    build_mask,
    matmul,
    score_magnitude,
    spp_effective_weight,
    spp_forward_naive,
    spp_init,
)


def peak_bytes(fn, *args):
    """Peak bytes allocated while fn runs, above what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


rng = Rng(2)
m, n, b, r = 256, 192, 4, 8
w = rng.uniform(-1.0, 1.0, m, n)
layer = apply_mask(w, build_mask(score_magnitude(w), Unstructured(0.75)))
ad = spp_init(m, n, r, 1.0, 0.0, rng)
ad.beta = rng.uniform(-1.0, 1.0, m, 1)
x = rng.uniform(-1.0, 1.0, b, n)

spp_forward_naive(x, layer, ad)  # the first call builds the slot layout
(y, _), forward_peak = peak_bytes(spp_forward_naive, x, layer, ad)
w_eff, dense_peak = peak_bytes(spp_effective_weight, layer, ad)
y_dense = matmul(x, layer.weight) + ad.s * matmul(x, w_eff)

print("outputs are byte-identical:", y.tobytes() == y_dense.tobytes())
print(f"weight: {m} x {n} float64 = {m * n * 8} bytes, "
      f"{np.count_nonzero(layer.mask.mask)} kept entries")
print(f"forward peak transient:       {forward_peak} bytes")
print(f"spp_effective_weight peak:    {dense_peak} bytes")
print("forward stays below one weight-sized buffer:", forward_peak < m * n * 8)
