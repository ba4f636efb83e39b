"""The slot kernels and every product on a pruned weight, against dense oracles.

Each comparison is byte for byte (``tobytes``), so a sign of zero counts.
The masks cover the layouts the slot layout must handle: 2:4, global
unstructured with an empty row and an empty column, row-wise, ratio 0, and
kept entries whose weight is zero.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spp
from spp import (
    LoraAdapter,
    NetLayer,
    NofM,
    PrunedLayer,
    Rng,
    SparseMask,
    SppAdapter,
    ToyNet,
    Unstructured,
    apply_mask,
    build_mask,
    dropout_apply,
    lora_backward,
    lora_forward,
    matmul,
    net_backward,
    net_forward,
    sampled_matmul,
    spp_backward,
    spp_forward_naive,
)
from spp.pruning import SlotLayout

from helpers import (
    keep_masks,
    matmul_oracle,
    peak_transient_bytes,
    rand_matrix,
    spp_backward_dense,
    spp_forward_dense,
)


def _layers(rng, m, n):
    """(name, layer) pairs over one random m x n weight."""
    w = rand_matrix(rng, m, n)
    scores = np.abs(w)
    scores[0] *= 1e-3  # row 0 and the last column score lowest, so a
    scores[:, -1] *= 1e-3  # global 75% cut empties both
    masks = {
        "unstructured": build_mask(scores, Unstructured(0.75)),
        "row-wise": build_mask(np.abs(w), Unstructured(0.5), row_wise=True),
        "ratio-0": build_mask(np.abs(w), Unstructured(0.0)),
    }
    if n % 4 == 0:
        masks["2:4"] = build_mask(np.abs(w), NofM(2, 4))
    keep = masks["unstructured"].mask
    assert not keep[0].any() and not keep[:, -1].any()
    out = []
    for name, mask in masks.items():
        layer = apply_mask(w, mask)
        out.append((name, layer))
        # Kept entries whose weight is +0.0 or -0.0 stay kept.
        kept_zero = layer.values.copy()
        kept_zero[::3] = 0.0
        kept_zero[1::3] = -0.0
        out.append((name + "+kept-zeros", PrunedLayer(kept_zero, mask)))
    return out


def _same(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


SHAPES = [(8, 12, 1), (12, 8, 3), (5, 16, 2), (3, 4, 1)]


@pytest.mark.parametrize("m,n,b", SHAPES)
def test_slot_kernels_match_the_triple_loop(m, n, b):
    rng = Rng(100 + m * n + b)
    for name, layer in _layers(rng, m, n):
        x = rand_matrix(rng, b, n)
        g = rand_matrix(rng, b, m)
        w_t = np.ascontiguousarray(layer.weight.T)
        assert _same(layer.apply(x), matmul_oracle(x, layer.weight)), name
        assert _same(layer.apply_transpose(g), matmul_oracle(g, w_t)), name

        slots = layer.mask.slots
        sampled = sampled_matmul(g, x, slots.idx)
        want = matmul_oracle(np.ascontiguousarray(g.T), np.ascontiguousarray(x.T))
        assert _same(slots.ranked(sampled), want[layer.mask.mask]), name


def test_slot_layout_orders_kept_entries():
    mask = SparseMask(
        np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0]]),
        Unstructured(0.5),
    )
    slots = mask.slots
    assert slots is mask.slots  # built once
    assert slots.idx.tolist() == [[1, 0, 0], [3, 0, 1], [0, 0, 2]]
    assert slots.pads.tolist() == [1, 4, 6, 7]
    assert slots.idx_t.tolist() == [[2, 0, 2, 0], [0, 2, 0, 0]]
    # Ranks in the kept order (0, 1), (0, 3), (2, 0), (2, 1), (2, 2); 5 pads.
    assert slots.rank_t.tolist() == [[2, 0, 4, 1], [5, 3, 5, 5]]
    kept = np.array([2.0, 4.0, 9.0, 10.0, 11.0])
    values = slots.values(kept)
    assert values.tolist() == [[2.0, 0.0, 9.0], [4.0, 0.0, 10.0], [0.0, 0.0, 11.0]]
    assert slots.ranked(values).tolist() == kept.tolist()
    assert slots.values_t(kept).tolist() == [[9.0, 2.0, 11.0, 4.0], [0.0, 10.0, 0.0, 0.0]]


@pytest.mark.parametrize("pattern", [NofM(2, 4), Unstructured(0.75)])
def test_slot_layout_holds_three_index_arrays_and_the_padded_slots(pattern):
    # Masks from several seeds: the largest row and column counts, and so
    # the budget, move with the mask.
    for seed in range(480, 540, 6):
        m, n = 256, 192
        mask = build_mask(rand_matrix(Rng(seed), m, n), pattern)
        keep = mask.mask
        k, k_t, nnz = keep.sum(axis=1).max(), keep.sum(axis=0).max(), keep.sum()
        item = np.dtype(np.intp).itemsize
        # The budget of idx and the flat positions of every slot, both (K, m),
        # idx_t (Kt, n) and the indices of the padded slots of both layouts.
        # idx, idx_t, the rank of each transposed slot (Kt, n) and the padded
        # row slots fit in it.
        budget = (2 * k * m + k_t * n + (k * m - nnz) + (k_t * n - nnz)) * item

        def both_halves():
            slots = SlotLayout.of(mask)
            slots.idx_t, slots.rank_t  # the transposed half, built on first use
            return slots

        slots = both_halves()
        held = (slots.idx, slots.pads, slots.idx_t, slots.rank_t)
        assert sum(a.nbytes for a in held) <= budget, seed
        # The build holds the layout and at most two lists of the kept entries.
        assert peak_transient_bytes(both_halves) <= budget + 2 * nnz * item, seed


def test_slot_layout_builds_its_transposed_half_on_first_use():
    mask = build_mask(rand_matrix(Rng(501), 8, 12), Unstructured(0.5))
    slots = mask.slots
    assert not {"idx_t", "rank_t"} & set(vars(slots))
    assert "positions" not in vars(mask)  # the build reads the keep matrix
    layer = PrunedLayer(rand_matrix(Rng(502), 8, 12)[mask.mask], mask)
    layer.apply_transpose(rand_matrix(Rng(503), 2, 8))
    assert {"idx_t", "rank_t"} <= set(vars(slots))
    assert "positions" not in vars(mask)


def _spp_case(rng, layer, r, s, p, b, zero_beta=False):
    m, n = layer.shape
    ad = SppAdapter(
        alpha=rand_matrix(rng, r, n),
        beta=np.zeros((m, 1)) if zero_beta else rand_matrix(rng, m, 1),
        s=s,
        p=p,
    )
    x = rand_matrix(rng, b, n)
    mask = dropout_apply(x, p, rng, training=True)[1] if p > 0.0 else None
    d_y = rand_matrix(rng, b, m)
    d_y[:, ::3] = -0.0  # dead outputs: a relu passes back -0.0
    return ad, x, mask, d_y


def _check_spp(layer, ad, x, mask, d_y, label):
    y, cache = spp_forward_naive(x, layer, ad, training=True, dropout_mask=mask)
    want_y, x_dropped = spp_forward_dense(x, layer, ad, mask)
    assert _same(y, want_y), label
    grads = spp_backward(cache, d_y)
    d_alpha, d_beta, d_x = spp_backward_dense(x_dropped, mask, layer, ad, d_y)
    assert _same(grads.d_alpha, d_alpha), label
    assert _same(grads.d_beta, d_beta), label
    assert _same(grads.d_x, d_x), label


@pytest.mark.parametrize("m,n,b", SHAPES)
def test_spp_forward_and_backward_match_the_dense_reference(m, n, b):
    rng = Rng(200 + m * n + b)
    for name, layer in _layers(rng, m, n):
        for r in sorted({1, m // 2 if m % 2 == 0 else 1, m}):
            for s, p, zero_beta in ((1.0, 0.0, False), (-0.7, 0.3, False), (1.3, 0.3, True)):
                ad, x, mask, d_y = _spp_case(rng, layer, r, s, p, b, zero_beta)
                _check_spp(layer, ad, x, mask, d_y, (name, r, s, p, zero_beta))


@st.composite
def _backward_problems(draw):
    """A layer, adapter, input, d_y and dropout for the backward's byte oracle.

    The mask is one from ``keep_masks`` (padded, empty and full rows, empty
    columns; N:M or unstructured), three times in four tiled to 64-160 rows
    and 48-96 columns, so that the backward's sums and its transposed W'
    cross the edges of their chunks; r is any divisor of m.  d_y has -0.0
    columns, x has zero columns, alpha has -0.0 entries, and one alpha
    block's kept terms, H * W * beta, are all -0.0.
    """
    base = draw(keep_masks())
    big = draw(st.integers(0, 3)) > 0
    rows = draw(st.integers(64, 160) if big else st.integers(1, 16))
    cols = draw(st.integers(48, 96) if big else st.integers(1, 12))
    keep = np.tile(base, (-(-rows // base.shape[0]), -(-cols // base.shape[1])))
    m, n = keep.shape
    r = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    b = draw(st.integers(1, 3))
    s = draw(st.sampled_from([1.0, -0.5, 2.0]))
    p = draw(st.sampled_from([0.0, 0.4]))
    rng = Rng(draw(st.integers(0, 2**32 - 1)))
    w = rand_matrix(rng, m, n)
    alpha = rand_matrix(rng, r, n)
    alpha[:, draw(st.lists(st.integers(0, n - 1), max_size=2))] = -0.0
    beta = rand_matrix(rng, m, 1)
    x = rand_matrix(rng, b, n)
    x[:, draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0.0
    d_y = rand_matrix(rng, b, m)
    d_y[:, draw(st.lists(st.integers(0, m - 1), max_size=3))] = -0.0
    # Block j gets H = +0.0 (d_y's columns -0.0 there), W > 0 and beta of
    # the opposite sign to s: every kept term of d_alpha's block j is -0.0.
    j = draw(st.integers(0, r - 1))
    block = slice(j * (m // r), (j + 1) * (m // r))
    d_y[:, block] = -0.0
    w[block] = np.abs(w[block])
    beta[block] = -np.sign(s) * np.abs(beta[block])
    layer = PrunedLayer(w[keep], SparseMask(keep, Unstructured(0.5)))
    ad = SppAdapter(alpha=alpha, beta=beta, s=s, p=p)
    mask = dropout_apply(x, p, rng, training=True)[1] if p > 0.0 else None
    return layer, ad, x, mask, d_y


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_backward_problems())
def test_spp_backward_equals_the_dense_buffer_oracle_byte_for_byte(problem):
    layer, ad, x, mask, d_y = problem
    _, cache = spp_forward_naive(x, layer, ad, training=True, dropout_mask=mask)
    grads = spp_backward(cache, d_y)
    x_dropped = x if mask is None else mask.apply(x)
    d_alpha, d_beta, d_x = spp_backward_dense(x_dropped, mask, layer, ad, d_y)
    assert _same(grads.d_alpha, d_alpha)
    assert _same(grads.d_beta, d_beta)
    assert _same(grads.d_x, d_x)


@pytest.mark.parametrize("m,n,b", SHAPES)
def test_lora_base_products_match_the_dense_formula(m, n, b):
    rng = Rng(300 + m * n + b)
    for name, layer in _layers(rng, m, n):
        ad = LoraAdapter(a=rand_matrix(rng, 2, n), b=rand_matrix(rng, m, 2), s=0.9, p=0.0)
        x = rand_matrix(rng, b, n)
        d_y = rand_matrix(rng, b, m)
        y, cache = lora_forward(x, layer, ad, training=True)
        u = matmul(x, ad.a)
        assert _same(y, matmul(x, layer.weight) + ad.s * matmul(u, ad.b)), name
        d_u = ad.s * matmul(d_y, ad.b.T)
        want = matmul(d_y, layer.weight.T) + matmul(d_u, ad.a.T)
        assert _same(lora_backward(cache, d_y).d_x, want), name


@st.composite
def _spp_problems(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    b = draw(st.integers(1, 4))
    r = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    keep = np.array(draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n)))
    seed = draw(st.integers(0, 2**32 - 1))
    s = draw(st.sampled_from([1.0, -0.5, 2.0]))
    p = draw(st.sampled_from([0.0, 0.4]))
    return m, n, b, r, keep.reshape(m, n).astype(np.float64), seed, s, p


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_spp_problems())
def test_spp_paths_match_the_dense_reference_on_any_mask(problem):
    m, n, b, r, keep, seed, s, p = problem
    rng = Rng(seed)
    # Integer weights, some kept ones zero, so that exact cancellations occur.
    w = np.floor(rng.uniform(-2.0, 3.0, m, n)) * keep
    layer = PrunedLayer(w, SparseMask(keep, Unstructured(0.5)))
    ad, x, mask, d_y = _spp_case(rng, layer, r, s, p, b)
    _check_spp(layer, ad, x, mask, d_y, problem)
    assert _same(layer.apply(x), matmul(x, w))


def test_first_layer_input_gradient_is_skipped():
    rng = Rng(400)
    layer = apply_mask(rand_matrix(rng, 8, 8), build_mask(rand_matrix(rng, 8, 8), NofM(2, 4)))
    ad, x, mask, d_y = _spp_case(rng, layer, 2, 1.0, 0.0, 3)
    _, cache = spp_forward_naive(x, layer, ad, training=True)
    full = spp_backward(cache, d_y)
    skipped = spp_backward(cache, d_y, input_grad=False)
    assert skipped.d_x is None
    assert _same(skipped.d_alpha, full.d_alpha) and _same(skipped.d_beta, full.d_beta)

    lora = LoraAdapter(a=rand_matrix(rng, 2, 8), b=rand_matrix(rng, 8, 2), p=0.0)
    _, lcache = lora_forward(x, layer, lora, training=True)
    lfull = lora_backward(lcache, d_y)
    lskipped = lora_backward(lcache, d_y, input_grad=False)
    assert lskipped.d_x is None
    assert _same(lskipped.d_a, lfull.d_a) and _same(lskipped.d_b, lfull.d_b)

    for first in (None, ad):
        net = ToyNet([NetLayer(layer, first, "relu"), NetLayer(layer, lora)])
        pred, caches = net_forward(net, x, training=True)
        grads = net_backward(net, caches, pred)
        if first is None:
            assert grads[0] is None  # frozen: a net with adapters trains no weight
        else:
            assert grads[0].d_x is None
        assert grads[1].d_x is not None

    net = ToyNet([NetLayer(layer, None, "relu"), NetLayer(layer)])
    pred, caches = net_forward(net, x, training=True)
    d_w = net_backward(net, caches, pred)[0]
    assert d_w.shape == layer.values.shape  # in kept order: nothing off the mask


def test_training_does_not_import_scipy():
    src = str(Path(spp.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from spp import NofM, NetLayer, Rng, ToyNet, TrainConfig, apply_mask, build_mask, spp_init, train\n"
        "rng = Rng(0)\n"
        "w = rng.uniform(-1.0, 1.0, 8, 8)\n"
        "layer = apply_mask(w, build_mask(np.abs(w), NofM(2, 4)))\n"
        "net = ToyNet([NetLayer(layer, spp_init(8, 8, 2, 1.0, 0.1, rng))])\n"
        "train(net, (rng.uniform(-1.0, 1.0, 16, 8), rng.uniform(-1.0, 1.0, 16, 8)), TrainConfig(steps=3))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
