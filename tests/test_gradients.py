"""Finite-difference checks for the analytic backward passes.

Loss is the quadratic 0.5 * ||y - t||^2 so d_y = y - t and the numeric
gradient of any upstream quantity can be taken by central differences.
Dropout masks are drawn once and injected into every perturbed forward,
otherwise the function being differentiated would not be deterministic.
"""

import numpy as np

from spp import (
    NofM,
    Rng,
    SppAdapter,
    Unstructured,
    apply_mask,
    build_mask,
    dropout_apply,
    lora_backward,
    lora_forward,
    lora_init,
    score_magnitude,
    spp_backward,
    spp_forward_naive,
    spp_init,
)

from helpers import rand_matrix

H = 1e-5
TOL = 1e-6


def numeric_grad(f, param, h=H):
    g = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        old = param[idx]
        param[idx] = old + h
        fp = f()
        param[idx] = old - h
        fm = f()
        param[idx] = old
        g[idx] = (fp - fm) / (2.0 * h)
    return g


def close(got, want):
    err = np.abs(got - want).max()
    return err <= TOL * (1.0 + np.abs(want).max())


def make_case(seed, m=8, n=5, r=2, b=3, p=0.0, kind="spp"):
    rng = Rng(seed)
    w = rand_matrix(rng, m, n)
    layer = apply_mask(w, build_mask(score_magnitude(w), Unstructured(0.5)))
    x = rand_matrix(rng, b, n)
    t = rand_matrix(rng, b, m)
    if kind == "spp":
        ad = spp_init(m, n, r, 1.1, p, rng)
        ad.beta = rng.uniform(-0.8, 0.8, m, 1)
    else:
        ad = lora_init(m, n, r, 1.1, p, rng)
        ad.b = rng.uniform(-0.5, 0.5, m, r)
    if p > 0.0:
        _, shared = dropout_apply(x, p, rng, training=True)
    else:
        shared = None
    return layer, ad, x, t, shared


def spp_loss(x, layer, ad, t, shared):
    y, _ = spp_forward_naive(
        x, layer, ad, training=shared is not None, dropout_mask=shared
    )
    return 0.5 * np.sum((y - t) ** 2)


def lora_loss(x, layer, ad, t, shared):
    y, _ = lora_forward(
        x, layer, ad, training=shared is not None, dropout_mask=shared
    )
    return 0.5 * np.sum((y - t) ** 2)


def check_spp_case(seed, r, p):
    layer, ad, x, t, shared = make_case(seed, r=r, p=p, kind="spp")
    y, cache = spp_forward_naive(
        x, layer, ad, training=shared is not None, dropout_mask=shared
    )
    # eval-mode forward caches nothing, so rebuild in training mode for p=0
    if cache is None:
        y, cache = spp_forward_naive(x, layer, ad, training=True)
    grads = spp_backward(cache, y - t)
    f = lambda: spp_loss(x, layer, ad, t, shared)
    assert close(grads.d_alpha, numeric_grad(f, ad.alpha)), f"d_alpha seed={seed}"
    assert close(grads.d_beta, numeric_grad(f, ad.beta)), f"d_beta seed={seed}"
    assert close(grads.d_x, numeric_grad(f, x)), f"d_x seed={seed}"


def check_lora_case(seed, r, p):
    layer, ad, x, t, shared = make_case(seed, r=r, p=p, kind="lora")
    y, cache = lora_forward(
        x, layer, ad, training=shared is not None, dropout_mask=shared
    )
    if cache is None:
        y, cache = lora_forward(x, layer, ad, training=True)
    grads = lora_backward(cache, y - t)
    f = lambda: lora_loss(x, layer, ad, t, shared)
    assert close(grads.d_a, numeric_grad(f, ad.a)), f"d_a seed={seed}"
    assert close(grads.d_b, numeric_grad(f, ad.b)), f"d_b seed={seed}"
    assert close(grads.d_x, numeric_grad(f, x)), f"d_x seed={seed}"


def test_spp_gradients_no_dropout():
    for seed, r in [(0, 1), (1, 2), (2, 4), (3, 8)]:
        check_spp_case(seed, r, 0.0)


def test_spp_gradients_with_dropout():
    for seed, r in [(10, 2), (11, 4)]:
        check_spp_case(seed, r, 0.3)


def test_lora_gradients_no_dropout():
    for seed, r in [(20, 1), (21, 2), (22, 4)]:
        check_lora_case(seed, r, 0.0)


def test_lora_gradients_with_dropout():
    for seed, r in [(30, 2), (31, 4)]:
        check_lora_case(seed, r, 0.3)


def test_gradient_structure_at_fresh_init():
    # beta starts at zero, so every alpha gradient path is gated shut
    rng = Rng(7)
    m, n, r, b = 8, 8, 4, 4
    w = rand_matrix(rng, m, n)
    layer = apply_mask(w, build_mask(score_magnitude(w), NofM(2, 4)))
    ad = spp_init(m, n, r, 1.0, 0.0, rng)
    x = rand_matrix(rng, b, n)
    y, cache = spp_forward_naive(x, layer, ad, training=True)
    grads = spp_backward(cache, y - rand_matrix(rng, b, m))
    assert np.all(grads.d_alpha == 0.0)
    assert np.any(grads.d_beta != 0.0)


def test_zero_upstream_means_zero_grads():
    layer, ad, x, _, _ = make_case(99, kind="spp")
    _, cache = spp_forward_naive(x, layer, ad, training=True)
    grads = spp_backward(cache, np.zeros((x.shape[0], layer.shape[0])))
    assert np.all(grads.d_alpha == 0.0)
    assert np.all(grads.d_beta == 0.0)
    assert np.all(grads.d_x == 0.0)


def test_scale_factor_enters_gradients_linearly():
    layer, ad, x, t, _ = make_case(5, kind="spp")
    y, cache = spp_forward_naive(x, layer, ad, training=True)
    g1 = spp_backward(cache, y - t)
    ad2 = SppAdapter(
        alpha=ad.alpha.copy(), beta=ad.beta.copy(), s=2.0 * ad.s, p=ad.p
    )
    y2, cache2 = spp_forward_naive(x, layer, ad2, training=True)
    g2 = spp_backward(cache2, y - t)  # same upstream on purpose
    assert np.allclose(g2.d_alpha, 2.0 * g1.d_alpha, rtol=1e-13)
    assert np.allclose(g2.d_beta, 2.0 * g1.d_beta, rtol=1e-13)
