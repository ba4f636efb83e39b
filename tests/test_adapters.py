import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spp import (
    LoraAdapter,
    NofM,
    PatternError,
    PrunedLayer,
    Rng,
    ShapeError,
    SparseMask,
    SppAdapter,
    StateError,
    Unstructured,
    apply_mask,
    build_mask,
    dropout_apply,
    lora_forward,
    lora_init,
    lora_merge_dense,
    matmul,
    score_magnitude,
    spp_backward,
    spp_effective_weight,
    spp_forward_naive,
    spp_init,
    spp_merge,
    verify_mask,
)

from spp.adapters import ADAPTERS
from spp.training import _BACKWARDS, _FORWARDS

from helpers import peak_transient_bytes, rand_matrix, spp_forward_dense


def hand_layer():
    w = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [0.0, 4.0]])
    mask = SparseMask((w != 0).astype(np.float64), Unstructured(0.5))
    return PrunedLayer(w, mask)


def random_pruned(rng, m, n, pattern=None):
    w = rand_matrix(rng, m, n)
    pattern = pattern or NofM(2, 4)
    return apply_mask(w, build_mask(score_magnitude(w), pattern))


def adapter_for(layer, rng, r, s=1.0, p=0.0, random_beta=False):
    m, n = layer.shape
    ad = spp_init(m, n, r, s, p, rng)
    if random_beta:
        ad.beta = rng.uniform(0.25, 1.75, m, 1)
    return ad


# ---------------------------------------------------------------------------
# effective weight and merge


def test_effective_weight_hand_example():
    layer = hand_layer()
    ad = SppAdapter(
        alpha=np.array([[2.0, 3.0], [5.0, 7.0]]),
        beta=np.ones((4, 1)),
        s=1.0,
        p=0.0,
    )
    w_eff = spp_effective_weight(layer, ad)
    assert w_eff.tolist() == [[2.0, 0.0], [0.0, 6.0], [15.0, 0.0], [0.0, 28.0]]


def test_merge_hand_example():
    layer = hand_layer()
    ad = SppAdapter(
        alpha=np.array([[2.0, 3.0], [5.0, 7.0]]),
        beta=np.ones((4, 1)),
        s=1.0,
        p=0.0,
    )
    merged = spp_merge(layer, ad)
    assert merged.weight.tolist() == [[3.0, 0.0], [0.0, 8.0], [18.0, 0.0], [0.0, 32.0]]
    assert merged.mask is layer.mask


@st.composite
def _merge_cases(draw):
    """A pattern, a layer shape it fits, an r dividing m, an s and a seed."""
    m = draw(st.integers(1, 8))
    if draw(st.booleans()):
        m_group = draw(st.integers(2, 4))
        pattern = NofM(draw(st.integers(1, m_group - 1)), m_group)
        n = m_group * draw(st.integers(1, 3))
    else:
        pattern = Unstructured(draw(st.floats(0.0, 0.9)))
        n = draw(st.integers(1, 8))
    r = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    s = draw(st.floats(-4.0, 4.0))
    return m, n, pattern, r, s, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_merge_cases())
def test_effective_weight_preserves_zeros_exactly(case):
    m, n, pattern, r, s, seed = case
    rng = Rng(seed)
    layer = random_pruned(rng, m, n, pattern)
    ad = adapter_for(layer, rng, r=r, s=s, random_beta=True)
    w_eff = spp_effective_weight(layer, ad)
    merged = spp_merge(layer, ad)
    zero_at = ~layer.mask.mask
    assert np.all(w_eff[zero_at] == 0.0)
    assert np.all(merged.weight[zero_at] == 0.0)
    assert np.count_nonzero(merged.weight) == np.count_nonzero(layer.weight)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_merge_cases())
def test_merge_on_kept_values_equals_the_dense_merge_bit_for_bit(case):
    m, n, pattern, r, s, seed = case
    rng = Rng(seed)
    layer = random_pruned(rng, m, n, pattern)
    keep = layer.mask.mask
    if seed % 2 and keep.any():  # a kept weight of -0.0
        layer.values[0] = -0.0
    ad = adapter_for(layer, rng, r=r, s=s, random_beta=True)
    dense = spp_effective_weight(layer, ad)
    dense *= ad.s
    dense += layer.weight
    merged = spp_merge(layer, ad)
    assert merged.values.tobytes() == dense[keep].tobytes()
    assert merged.weight.tobytes() == np.where(keep, dense, 0.0).tobytes()


def test_merge_on_kept_values_checks_the_adapter_as_the_dense_merge_does():
    rng = Rng(44)
    layer = random_pruned(rng, 8, 8)
    ad = adapter_for(random_pruned(rng, 8, 4), rng, r=2)
    with pytest.raises(ShapeError) as dense:
        spp_effective_weight(layer, ad)
    with pytest.raises(ShapeError) as kept:
        spp_merge(layer, ad)
    assert str(kept.value) == str(dense.value)


def test_merge_of_untrained_adapter_is_identity():
    rng = Rng(42)
    layer = random_pruned(rng, 8, 8)
    ad = adapter_for(layer, rng, r=2)  # beta stays zero
    merged = spp_merge(layer, ad)
    assert np.array_equal(merged.weight, layer.weight)


def test_r_extremes_and_divisibility():
    rng = Rng(43)
    layer = random_pruned(rng, 8, 8)
    for r in (1, 8):
        ad = adapter_for(layer, rng, r=r, random_beta=True)
        w_eff = spp_effective_weight(layer, ad)
        assert w_eff.shape == layer.shape
    # one check, one message, whether the adapter is drawn or built
    with pytest.raises(PatternError) as drawn:
        spp_init(8, 8, 3, 1.0, 0.0, rng)
    with pytest.raises(PatternError) as built:
        SppAdapter(alpha=np.ones((3, 8)), beta=np.zeros((8, 1)))
    assert str(drawn.value) == str(built.value) == "r = 3 does not divide m = 8"
    for init in (spp_init, lora_init):
        for m, n, r in ((0, 8, 1), (8, 0, 1), (8, 8, 0)):
            probe = Rng(0)
            with pytest.raises(ShapeError, match="dimensions must be positive"):
                init(m, n, r, 1.0, 0.0, probe)
            assert probe.next_u64() == Rng(0).next_u64()  # rejected before any draw
    # r is alpha's row count; an old positional r must not land in s
    with pytest.raises(TypeError):
        SppAdapter(np.ones((2, 8)), np.ones((8, 1)), 2)


def test_full_rank_adapter_reaches_any_supported_target():
    # with r = m each weight entry gets its own multiplicative knob
    rng = Rng(44)
    layer = random_pruned(rng, 8, 8)
    target = rand_matrix(rng, 8, 8) * layer.mask.mask
    alpha = np.ones((8, 8))
    kept = layer.weight != 0.0
    alpha[kept] = target[kept] / layer.weight[kept]
    ad = SppAdapter(alpha=alpha, beta=np.ones((8, 1)), s=1.0, p=0.0)
    w_eff = spp_effective_weight(layer, ad)
    assert np.allclose(w_eff, target, rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# dropout


def test_dropout_eval_and_p0_are_identity():
    x = np.arange(12.0).reshape(3, 4)
    out, mask = dropout_apply(x, 0.5, None, training=False)
    assert out is x and mask.keep is None
    out, mask = dropout_apply(x, 0.0, None, training=True)
    assert out is x and mask.keep is None


def test_dropout_scales_survivors_and_zeroes_the_rest():
    rng = Rng(45)
    x = np.ones((50, 40))
    out, mask = dropout_apply(x, 0.25, rng, training=True)
    kept = out != 0.0
    assert np.all(out[kept] == 1.0 / 0.75)
    assert np.array_equal(kept, mask.keep == 1.0)
    # keep fraction near 1 - p, mean preserved
    frac = kept.mean()
    assert abs(frac - 0.75) < 0.03
    assert abs(out.mean() - 1.0) < 0.05


def test_dropout_rejects_bad_rate_and_missing_rng():
    x = np.ones((2, 2))
    with pytest.raises(ValueError):
        dropout_apply(x, 1.0, None, training=True)
    with pytest.raises(ValueError):
        dropout_apply(x, -0.1, None, training=True)
    with pytest.raises(ValueError):
        dropout_apply(x, 0.5, None, training=True)


# ---------------------------------------------------------------------------
# forward paths


def test_forward_transparency_at_init():
    rng = Rng(46)
    layer = random_pruned(rng, 8, 8)
    ad = spp_init(8, 8, 4, 1.0, 0.05, rng)
    x = rand_matrix(rng, 5, 8)
    base = matmul(x, layer.weight)
    y, _ = spp_forward_naive(x, layer, ad)
    assert np.array_equal(y, base)
    # training mode draws dropout but the silent branch still vanishes
    y_train, cache = spp_forward_naive(x, layer, ad, rng=rng, training=True)
    assert np.array_equal(y_train, base)
    assert cache is not None


def test_forward_all_ones_adapter_doubles_base():
    rng = Rng(47)
    layer = random_pruned(rng, 4, 4)
    ad = SppAdapter(alpha=np.ones((2, 4)), beta=np.ones((4, 1)), s=1.0, p=0.0)
    x = rand_matrix(rng, 3, 4)
    base = matmul(x, layer.weight)
    y, _ = spp_forward_naive(x, layer, ad)
    assert np.allclose(y, 2.0 * base, rtol=1e-15)


def test_forward_matches_two_matmul_oracle():
    rng = Rng(48)
    layer = random_pruned(rng, 8, 8)
    ad = adapter_for(layer, rng, r=2, s=0.7, random_beta=True)
    x = rand_matrix(rng, 4, 8)
    want = matmul(x, layer.weight) + 0.7 * matmul(x, spp_effective_weight(layer, ad))
    got, _ = spp_forward_naive(x, layer, ad)
    assert np.array_equal(got, want)


def test_eval_forward_returns_no_cache_and_backward_demands_one():
    rng = Rng(49)
    layer = random_pruned(rng, 4, 4)
    ad = adapter_for(layer, rng, r=2)
    y, cache = spp_forward_naive(rand_matrix(rng, 2, 4), layer, ad)
    assert cache is None
    with pytest.raises(StateError):
        spp_backward(cache, np.ones((2, 4)))


def _equivalence_case(rng, b, m, n, r, p):
    layer = random_pruned(rng, m, n, pattern=Unstructured(0.5))
    ad = adapter_for(layer, rng, r=r, s=1.3, p=p, random_beta=True)
    x = rand_matrix(rng, b, n)
    if p > 0.0:
        _, shared = dropout_apply(x, p, rng, training=True)
    else:
        shared = None
    y, _ = spp_forward_naive(x, layer, ad, training=p > 0.0, dropout_mask=shared)
    want, _ = spp_forward_dense(x, layer, ad, shared)
    return y.tobytes() == want.tobytes()


def test_optimized_equals_naive_across_shape_grid():
    # The one forward (on the kept entries) against the dense reference.
    rng = Rng(50)
    for b in (1, 2, 7):
        for m in (4, 8, 16):
            for n in (4, 12):
                for r in [d for d in range(1, m + 1) if m % d == 0]:
                    for p in (0.0, 0.3):
                        assert _equivalence_case(rng, b, m, n, r, p), (b, m, n, r, p)


def test_optimized_path_never_allocates_weight_sized_buffer():
    rng = Rng(51)
    m, n, b = 128, 96, 2
    layer = random_pruned(rng, m, n, pattern=Unstructured(0.5))
    ad = adapter_for(layer, rng, r=4, random_beta=True)
    x = rand_matrix(rng, b, n)
    spp_forward_naive(x, layer, ad)  # the first call builds the slot layout
    assert peak_transient_bytes(spp_forward_naive, x, layer, ad) < m * n * 8
    # positive control: the dense reference does materialize the m x n update
    assert peak_transient_bytes(spp_effective_weight, layer, ad) >= m * n * 8


def test_merge_holds_one_weight_sized_buffer():
    rng = Rng(55)
    m = n = 256
    layer = random_pruned(rng, m, n, pattern=Unstructured(0.75))
    ad = adapter_for(layer, rng, r=16, random_beta=True)
    assert peak_transient_bytes(spp_merge, layer, ad) < 2 * m * n * 8


def test_forward_frees_batch_buffers_before_the_output():
    rng = Rng(56)
    m = n = 64
    b = 2048
    layer = random_pruned(rng, m, n)
    ad = adapter_for(layer, rng, r=4, random_beta=True)
    x = rand_matrix(rng, b, n)
    spp_forward_naive(x, layer, ad)  # the first call builds the slot layout
    # Each slot_matmul holds x.T, its accumulator and one gather buffer, and
    # frees two of them before its output.  The branch product runs while
    # the base output is live: four batch buffers at most.
    assert peak_transient_bytes(spp_forward_naive, x, layer, ad) < 4.5 * b * m * 8


def test_backward_holds_no_scatter_buffer():
    rng = Rng(57)
    m = n = 128
    layer = random_pruned(rng, m, n)  # 2:4: K * m = m * n / 2 slots
    ad = adapter_for(layer, rng, r=8, random_beta=True)
    x = rand_matrix(rng, 4, n)
    d_y = rand_matrix(rng, 4, m)
    _, cache = spp_forward_naive(x, layer, ad, rng=rng, training=True)
    spp_backward(cache, d_y)  # the first call builds the layout's transposed half
    # The peak of the backward that summed over one m x n scatter buffer.
    # The chunked sums hold a few rows of it, beside H at the slots.
    assert peak_transient_bytes(spp_backward, cache, d_y) <= 266_808


@pytest.mark.parametrize("input_grad", [True, False])
def test_backward_peaks_below_a_weight_and_a_quarter(input_grad):
    rng = Rng(58)
    m = n = 512
    layer = random_pruned(rng, m, n)
    ad = adapter_for(layer, rng, r=16, random_beta=True)
    x = rand_matrix(rng, 32, n)
    d_y = rand_matrix(rng, 32, m)
    _, cache = spp_forward_naive(x, layer, ad, rng=rng, training=True)
    spp_backward(cache, d_y)
    # At 2:4, H at the slots and sampled_matmul's gather buffer are half a
    # weight each; the chunked sums and d_x's transposed W' (Kt x n) add less
    # than a quarter.  An m x n buffer would add a whole weight.
    peak = peak_transient_bytes(spp_backward, cache, d_y, input_grad=input_grad)
    assert peak < 1.25 * m * n * 8


def test_both_zero_init_warns():
    with pytest.warns(UserWarning):
        SppAdapter(alpha=np.zeros((2, 4)), beta=np.zeros((4, 1)))


def test_spp_init_bounds_and_silent_beta():
    rng = Rng(52)
    ad = spp_init(8, 16, 4, 1.0, 0.05, rng)
    assert np.all(ad.beta == 0.0)
    assert np.all(np.abs(ad.alpha) <= 1.0 / 4.0)
    assert ad.alpha.shape == (4, 16)


# ---------------------------------------------------------------------------
# low-rank contrast


def test_lora_forward_rank1_hand_example():
    w = np.zeros((2, 2))
    mask = SparseMask(np.zeros((2, 2)), Unstructured(0.0))
    layer = PrunedLayer(w, mask)
    ad = LoraAdapter(a=np.array([[1.0, 0.0]]), b=np.array([[1.0], [0.0]]), s=1.0, p=0.0)
    y, _ = lora_forward(np.array([[2.0, 3.0]]), layer, ad)
    assert y.tolist() == [[2.0, 0.0]]


def test_lora_merge_densifies_and_reprune_restores():
    rng = Rng(53)
    layer = random_pruned(rng, 8, 8)
    a = rand_matrix(rng, 2, 8)
    b = rand_matrix(rng, 8, 2)
    ad = LoraAdapter(a=a, b=b, s=1.0, p=0.0)
    dense = lora_merge_dense(layer, ad)
    assert np.count_nonzero(dense) > np.count_nonzero(layer.weight)
    repruned = apply_mask(dense, layer.mask)
    assert verify_mask(repruned).ok
    assert np.all(repruned.weight[layer.mask.mask == 0.0] == 0.0)
    # kept positions carry the dense update
    kept = layer.mask.mask == 1.0
    assert np.array_equal(repruned.weight[kept], dense[kept])


def test_lora_init_shapes():
    rng = Rng(54)
    ad = lora_init(8, 6, 3, 1.0, 0.05, rng)
    assert ad.a.shape == (3, 6)
    assert np.all(ad.b == 0.0)
    # silent at init, same as the multiplicative adapter
    layer = random_pruned(rng, 8, 8, pattern=Unstructured(0.5))
    ad8 = lora_init(8, 8, 2, 1.0, 0.0, rng)
    x = rand_matrix(rng, 3, 8)
    y, _ = lora_forward(x, layer, ad8)
    assert np.array_equal(y, matmul(x, layer.weight))


def test_shape_errors_surface():
    rng = Rng(55)
    layer = random_pruned(rng, 8, 8)
    ad = adapter_for(layer, rng, r=2)
    with pytest.raises(ShapeError):
        spp_forward_naive(np.ones((2, 5)), layer, ad)
    small = random_pruned(rng, 4, 4)
    with pytest.raises(ShapeError):
        spp_effective_weight(small, ad)


@pytest.mark.parametrize("kind", sorted(ADAPTERS))
def test_both_kinds_check_their_inputs(kind):
    rng = Rng(56)
    cls = ADAPTERS[kind]
    forward, backward = _FORWARDS[cls], _BACKWARDS[cls]
    init = {"spp": spp_init, "lora": lora_init}[kind]
    layer = random_pruned(rng, 8, 12)
    ad = init(8, 12, 2, 1.0, 0.0, rng)
    x = rand_matrix(rng, 2, 12)
    with pytest.raises(ShapeError, match="features"):
        forward(x[:, :8], layer, ad)
    with pytest.raises(ShapeError, match="does not fit"):
        forward(x, random_pruned(rng, 4, 12), ad)
    _, cache = forward(x, layer, ad)
    assert cache is None
    with pytest.raises(StateError):
        backward(cache, np.ones((2, 8)))
    _, cache = forward(x, layer, ad, training=True)
    for bad in ((2, 12), (3, 8)):
        with pytest.raises(ShapeError, match="d_y shape"):
            backward(cache, np.ones(bad))
    assert backward(cache, np.ones((2, 8))).d_x.shape == (2, 12)


@pytest.mark.parametrize("kind", sorted(ADAPTERS))
def test_both_kinds_take_a_given_base_product_bit_for_bit(kind):
    rng = Rng(57)
    cls = ADAPTERS[kind]
    layer = random_pruned(rng, 8, 12)
    ad = cls.init(8, 12, 2, 1.0, 0.3, rng)
    setattr(ad, cls.factors[1], rand_matrix(rng, *getattr(ad, cls.factors[1]).shape))
    x = rand_matrix(rng, 5, 12)
    base = layer.apply(x)
    kept = base.copy()
    y, cache = _FORWARDS[cls](x, layer, ad, rng=Rng(1), training=True)
    y_given, cache_given = _FORWARDS[cls](x, layer, ad, rng=Rng(1), training=True, base=base)
    assert y_given.tobytes() == y.tobytes()
    assert cache_given.x_dropped.tobytes() == cache.x_dropped.tobytes()
    assert base.tobytes() == kept.tobytes()  # read, not written
    for bad in ((5, 12), (4, 8), (1, 8)):
        with pytest.raises(ShapeError, match="base"):
            _FORWARDS[cls](x, layer, ad, base=np.zeros(bad))


@pytest.mark.parametrize("kind", sorted(ADAPTERS))
def test_both_kinds_check_their_factors_and_rate(kind):
    cls = ADAPTERS[kind]
    init = {"spp": spp_init, "lora": lora_init}[kind]
    ad = init(8, 12, 2, 1.0, 0.0, Rng(57))
    factors = [getattr(ad, f) for f in cls.factors]
    assert (ad.r, ad.m, ad.n) == (2, 8, 12)
    for p in (-0.1, 1.0):
        with pytest.raises(ValueError, match="dropout rate"):
            cls(*factors, p=p)
    # An (8, 3) second factor is no beta column, and a b of rank 3 against a's 2.
    with pytest.raises(ShapeError, match="must be a column|rank mismatch"):
        cls(factors[0], np.ones((8, 3)))


@pytest.mark.parametrize("kind", sorted(ADAPTERS))
def test_each_kind_returns_a_gradient_per_factor_and_d_x(kind):
    rng = Rng(59)
    cls = ADAPTERS[kind]
    layer = random_pruned(rng, 8, 12)
    ad = cls.init(8, 12, 2, 1.0, 0.0, rng)
    _, cache = _FORWARDS[cls](rand_matrix(rng, 3, 12), layer, ad, training=True)
    for input_grad in (True, False):
        grads = _BACKWARDS[cls](cache, rand_matrix(rng, 3, 8), input_grad=input_grad)
        assert set(vars(grads)) == {"d_x"} | {f"d_{f}" for f in cls.factors}
        for f in cls.factors:
            assert getattr(grads, f"d_{f}").shape == getattr(ad, f).shape
        assert (grads.d_x is None) is not input_grad


def test_both_inits_draw_the_same_first_factor_from_one_seed():
    spp = spp_init(8, 12, 4, 1.0, 0.05, Rng(60))
    lora = lora_init(8, 12, 4, 1.0, 0.05, Rng(60))
    assert spp.alpha.tobytes() == lora.a.tobytes()
    assert spp.beta.shape == (8, 1) and lora.b.shape == (8, 4)
    assert not spp.beta.any() and not lora.b.any()


def test_dropout_mask_rejects_other_shapes():
    _, mask = dropout_apply(np.ones((2, 4)), 0.5, Rng(58), training=True)
    with pytest.raises(ShapeError, match="dropout mask shape"):
        mask.apply(np.ones((2, 5)))
