"""A pruned layer is its kept values plus its mask: one property over any mask.

The masks (``helpers.keep_masks``) include empty rows, full rows and empty
columns, and the weights any finite float, signed zeros and subnormals
included.  Every check is byte for byte against a dense oracle: the masked
weight, the scalar triple loop, and the store's own bytes.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

from spp import (
    NetLayer,
    Rng,
    SparseMask,
    ToyNet,
    Unstructured,
    apply_mask,
    net_backward,
    net_forward,
    store_read,
    store_write,
)

from helpers import keep_masks, matmul_oracle, rand_matrix

FINITE = (hst.floats(-1e3, 1e3, width=64)
          | hst.sampled_from([0.0, -0.0, 1.5, -2.25, 5e-324, -5e-324]))


@hst.composite
def dense_weights(draw):
    """A keep mask, any finite weight of its shape, and a seed for the inputs."""
    keep = draw(keep_masks())
    m, n = keep.shape
    w = np.array(draw(hst.lists(FINITE, min_size=m * n, max_size=m * n))).reshape(m, n)
    return keep, w, draw(hst.integers(0, 2**32 - 1))


def same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=80, derandomize=True, deadline=None)
@given(dense_weights())
def test_a_kept_layer_computes_what_its_masked_dense_weight_does(case):
    keep, w, seed = case
    mask = SparseMask(keep, Unstructured(0.0))
    layer = apply_mask(w, mask)
    dense = np.where(keep, w, 0.0)
    assert same(layer.weight, dense)
    assert same(layer.values, w[keep])

    rng = Rng(seed)
    m, n = keep.shape
    x = rand_matrix(rng, 3, n)
    g = rand_matrix(rng, 3, m)
    assert same(layer.apply(x), matmul_oracle(x, dense))
    assert same(layer.apply_transpose(g), matmul_oracle(g, np.ascontiguousarray(dense.T)))

    # Retraining's gradient, in kept order, is the dense G.T @ X at the kept
    # positions: what scattering the slot gradient to m x n gave there.
    net = ToyNet([NetLayer(layer)])
    _, caches = net_forward(net, x, training=True)
    d_values = net_backward(net, caches, g)[0]
    gradient = matmul_oracle(np.ascontiguousarray(g.T), np.ascontiguousarray(x.T))
    assert same(d_values, gradient[keep])

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "layer.spp"
        store_write([("w", (layer.values, keep))], path)
        values, back = store_read(path).pop_kept("w")
        assert same(values, layer.values) and same(back, keep)
