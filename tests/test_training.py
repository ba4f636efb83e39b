import hashlib
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spp.adapters
import spp.pruning
from spp import (
    NetLayer,
    NofM,
    PatternError,
    PrunedLayer,
    Rng,
    RunRecord,
    ShapeError,
    SparseMask,
    ToyNet,
    TrainConfig,
    TrainingDiverged,
    Unstructured,
    adamw_step,
    apply_mask,
    build_mask,
    count_trainable,
    cross_entropy_loss,
    eval_loss,
    lr_schedule,
    make_teacher_student,
    mse_loss,
    net_backward,
    net_forward,
    score_magnitude,
    spp_init,
    spp_merge,
    train,
    verify_mask,
)
from spp.adapters import ADAPTERS
from spp.training import _trainable

from helpers import peak_transient_bytes, rand_matrix

LLAMA7B_SHAPES = [(4096, 4096)] * 4 + [(11008, 4096)] * 2 + [(4096, 11008)]
LLAMA7B_EXTRA = 2 * 32000 * 4096 + 32 * 2 * 4096 + 4096
LLAMA13B_SHAPES = [(5120, 5120)] * 4 + [(13824, 5120)] * 2 + [(5120, 13824)]
LLAMA13B_EXTRA = 2 * 32000 * 5120 + 40 * 2 * 5120 + 5120

# frozen from a run of make_teacher_student(0, 64, 64, NofM(2, 4), 2048)
GOLDEN_STUDENT_LOSS = 0.007300715281303159


# ---------------------------------------------------------------------------
# schedule


def test_lr_schedule_mid_decay_value():
    # warmup floor(0.03 * 100) = 3 steps, then a straight line to 0 at 100
    got = lr_schedule(51, 100, 1.0, 0.03)
    assert got == pytest.approx(49.0 / 97.0, rel=1e-15)


def test_lr_schedule_boundaries():
    assert lr_schedule(0, 100, 2.0, 0.1) == 0.0
    assert lr_schedule(10, 100, 2.0, 0.1) == 2.0
    assert lr_schedule(0, 100, 2.0, 0.0) == 2.0  # no warmup: starts at peak
    assert lr_schedule(99, 100, 2.0, 0.0) == pytest.approx(2.0 / 100.0)


def test_lr_schedule_shape():
    vals = [lr_schedule(s, 50, 1.0, 0.2) for s in range(50)]
    ramp, decay = vals[:10], vals[10:]
    assert all(b > a for a, b in zip(ramp, ramp[1:]))
    assert all(b < a for a, b in zip(decay, decay[1:]))
    assert max(vals) == 1.0
    assert all(v >= 0.0 for v in vals)


def test_lr_schedule_rejects_bad_args():
    with pytest.raises(ValueError):
        lr_schedule(100, 100, 1.0, 0.1)
    with pytest.raises(ValueError):
        lr_schedule(-1, 100, 1.0, 0.1)
    with pytest.raises(ValueError):
        lr_schedule(0, 0, 1.0, 0.1)
    with pytest.raises(ValueError):
        lr_schedule(0, 10, 1.0, 1.0)


# ---------------------------------------------------------------------------
# optimizers


def test_adamw_first_step_direction_and_size():
    p = np.array([[1.0]])
    g = np.array([[2.0]])
    new_p, state = adamw_step(p, g, None, lr=0.1)
    # bias correction makes the very first step lr * g / (|g| + eps)
    assert new_p[0, 0] == pytest.approx(1.0 - 0.1 * 2.0 / (2.0 + 1e-8), rel=1e-12)
    assert state.t == 1


def test_adamw_decay_is_decoupled():
    p = np.array([[5.0]])
    g = np.zeros((1, 1))
    new_p, _ = adamw_step(p, g, None, lr=0.1, weight_decay=1e-3)
    assert new_p[0, 0] == pytest.approx(5.0 * (1.0 - 1e-4), rel=1e-15)


def test_adamw_multi_step_matches_scalar_replica():
    beta1, beta2, eps, lr, wd = 0.9, 0.999, 1e-8, 0.05, 0.01
    grads = [0.4, -1.2, 0.7, 0.1, -0.3]
    # straight transcription of the update rule on plain floats
    p, m, v = 2.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p = p - lr * m_hat / (math.sqrt(v_hat) + eps) - lr * wd * p

    param = np.array([[2.0]])
    state = None
    for g in grads:
        param, state = adamw_step(
            param, np.array([[g]]), state, lr=lr, weight_decay=wd
        )
    assert param[0, 0] == pytest.approx(p, rel=1e-14)
    assert state.t == 5


def test_adamw_shape_mismatch():
    with pytest.raises(ShapeError):
        adamw_step(np.ones((2, 2)), np.ones((2, 3)), None, lr=0.1)


# ---------------------------------------------------------------------------
# losses and the net


def test_mse_hand_example():
    loss, grad = mse_loss(np.array([[1.0, 2.0]]), np.zeros((1, 2)))
    assert loss == 2.5
    assert grad.tolist() == [[1.0, 2.0]]
    with pytest.raises(ShapeError, match="prediction"):
        mse_loss(np.zeros((1, 2)), np.zeros((2, 1)))


def test_cross_entropy_uniform_logits():
    loss, grad = cross_entropy_loss(np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0]]))
    assert loss == pytest.approx(math.log(3.0), rel=1e-15)
    assert np.allclose(grad, [[1 / 3 - 1, 1 / 3, 1 / 3]], rtol=1e-15)
    # rows of the gradient sum to zero whenever the target row sums to one
    assert abs(grad.sum()) < 1e-15
    with pytest.raises(ShapeError, match="logits"):
        cross_entropy_loss(np.zeros((1, 3)), np.zeros((1, 2)))


def test_plain_layer_gradient_matches_finite_difference():
    rng = Rng(3)
    w = rand_matrix(rng, 4, 3)
    layer = apply_mask(w, build_mask(score_magnitude(w), Unstructured(0.5)))
    net = ToyNet([NetLayer(layer)], loss="mse")
    x = rand_matrix(rng, 5, 3)
    t = rand_matrix(rng, 5, 4)

    pred, caches = net_forward(net, x, training=True)
    _, d_pred = mse_loss(pred, t)
    d_values = net_backward(net, caches, d_pred)[0]  # in kept order

    h = 1e-6
    num = np.zeros_like(layer.values)
    for e in range(layer.values.size):
        saved = layer.values[e]
        layer.values[e] = saved + h
        up, _ = mse_loss(net_forward(net, x)[0], t)
        layer.values[e] = saved - h
        dn, _ = mse_loss(net_forward(net, x)[0], t)
        layer.values[e] = saved
        num[e] = (up - dn) / (2 * h)
    assert np.abs(d_values - num).max() < 1e-7


def test_relu_clips_negative_preactivations():
    w = np.array([[1.0], [-1.0]])
    mask = SparseMask(np.ones((2, 1)), Unstructured(0.0))
    net = ToyNet([NetLayer(PrunedLayer(w, mask), activation="relu")])
    y, _ = net_forward(net, np.array([[2.0]]))
    assert y.tolist() == [[2.0, 0.0]]
    with pytest.raises(ValueError):
        NetLayer(PrunedLayer(w, mask), activation="gelu")


# ---------------------------------------------------------------------------
# the loop


def build_student(seed, r=8, steps_seed=0):
    ts = make_teacher_student(seed, 32, 32, NofM(2, 4), 512)
    ad = spp_init(32, 32, r, 1.0, 0.05, Rng(seed + 1000))
    ts.student.layers[0].adapter = ad
    return ts, ad


def test_train_is_deterministic():
    runs = []
    for _ in range(2):
        ts, ad = build_student(0)
        cfg = TrainConfig(steps=40, seed=0)
        _, rec = train(ts.student, (ts.x_train, ts.y_train), cfg)
        runs.append((rec.to_csv(), ad.alpha.tobytes(), ad.beta.tobytes()))
    assert runs[0] == runs[1]


def test_train_zero_steps_is_noop():
    ts, ad = build_student(1)
    a0, b0 = ad.alpha.copy(), ad.beta.copy()
    _, rec = train(ts.student, (ts.x_train, ts.y_train), TrainConfig(steps=0))
    assert rec.steps == [] and rec.train_loss is None
    assert np.array_equal(ad.alpha, a0) and np.array_equal(ad.beta, b0)


def test_train_never_touches_base_weights():
    ts, _ = build_student(2)
    layer = ts.student.layers[0].layer
    before = layer.weight.tobytes()
    train(ts.student, (ts.x_train, ts.y_train), TrainConfig(steps=30, seed=2))
    assert layer.weight.tobytes() == before


def test_adapter_mode_keeps_adapterless_layers_frozen():
    for optimizer in ("sgd", "adamw"):
        rng = Rng(7)
        w0, w1 = rand_matrix(rng, 16, 12), rand_matrix(rng, 8, 16)
        hidden = apply_mask(w0, build_mask(score_magnitude(w0), NofM(2, 4)))
        out = apply_mask(w1, build_mask(score_magnitude(w1), NofM(2, 4)))
        ad = spp_init(8, 16, 4, 1.0, 0.05, rng)
        net = ToyNet([NetLayer(hidden, activation="relu"), NetLayer(out, adapter=ad)])
        before = [hidden.weight.tobytes(), out.weight.tobytes()]
        data = (rand_matrix(rng, 64, 12), rand_matrix(rng, 64, 8))
        train(net, data, TrainConfig(steps=10, optimizer=optimizer, batch_size=16, seed=7))
        assert [nl.layer.weight.tobytes() for nl in net.layers] == before, optimizer
        assert np.any(ad.beta != 0.0), optimizer


# sha256 of the run CSV, alpha and beta of the run below.
FROZEN_LAYER_RUN_SHA256 = "27e6e24863c4ddfdb69fd90c041123b4a529571bdb5afbcd725bc9c20c9bf085"


def test_adapter_mode_computes_no_weight_gradient(monkeypatch):
    import spp.training

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return sampled_matmul(*args, **kwargs)

    sampled_matmul = spp.training.sampled_matmul
    monkeypatch.setattr(spp.training, "sampled_matmul", counting)
    rng = Rng(21)
    w0, w1 = rand_matrix(rng, 16, 12), rand_matrix(rng, 8, 16)
    hidden = apply_mask(w0, build_mask(score_magnitude(w0), NofM(2, 4)))
    out = apply_mask(w1, build_mask(score_magnitude(w1), NofM(2, 4)))
    ad = spp_init(8, 16, 4, 1.0, 0.05, rng)
    net = ToyNet([NetLayer(hidden, activation="relu"), NetLayer(out, adapter=ad)])
    data = (rand_matrix(rng, 64, 12), rand_matrix(rng, 64, 8))
    _, rec = train(net, data, TrainConfig(steps=12, batch_size=16, seed=21))
    assert calls == []
    run = rec.to_csv().encode() + ad.alpha.tobytes() + ad.beta.tobytes()
    assert hashlib.sha256(run).hexdigest() == FROZEN_LAYER_RUN_SHA256


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow IS the test
def test_train_divergence_raises_with_step():
    ts, _ = build_student(4)
    cfg = TrainConfig(steps=50, optimizer="sgd", lr=1e150, seed=4)
    with pytest.raises(TrainingDiverged) as exc:
        train(ts.student, (ts.x_train, ts.y_train), cfg)
    assert exc.value.step >= 1
    assert exc.value.last_good_step == exc.value.step - 1


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(steps=-1)
    with pytest.raises(ValueError):
        TrainConfig(steps=1, optimizer="lion")
    with pytest.raises(ValueError):
        TrainConfig(steps=1, batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(steps=1, warmup_ratio=1.5)
    with pytest.raises(ValueError, match="at least one layer"):
        ToyNet([])
    layer = apply_mask(np.ones((2, 4)), build_mask(np.ones((2, 4)), NofM(2, 4)))
    with pytest.raises(ValueError, match="loss must be one of"):
        ToyNet([NetLayer(layer)], loss="hinge")
    with pytest.raises(ValueError, match="at least one train sample"):
        make_teacher_student(0, 4, 4, NofM(2, 4), samples=0)
    assert TrainConfig(steps=1).resolved_lr() == 1e-3
    assert TrainConfig(steps=1, optimizer="sgd").resolved_lr() == 1e-2
    assert TrainConfig(steps=1, lr=0.5).resolved_lr() == 0.5


def test_fixed_mask_baseline_preserves_zeros():
    for optimizer in ("sgd", "adamw"):
        ts = make_teacher_student(5, 32, 32, NofM(2, 4), 512)
        before = eval_loss(ts.student, ts.x_eval, ts.y_eval)
        cfg = TrainConfig(steps=60, optimizer=optimizer, seed=5)
        train(ts.student, (ts.x_train, ts.y_train), cfg)
        layer = ts.student.layers[0].layer
        assert verify_mask(layer).ok
        after = eval_loss(ts.student, ts.x_eval, ts.y_eval)
        assert after < before


def test_run_record_csv_roundtrips():
    ts, _ = build_student(6)
    _, rec = train(ts.student, (ts.x_train, ts.y_train), TrainConfig(steps=5, seed=6))
    lines = rec.to_csv().strip().split("\n")
    assert lines[0] == "step,lr,loss"
    assert len(lines) == 6
    step, lr, loss = lines[3].split(",")
    assert int(step) == 2
    assert float(lr) == rec.steps[2][1]  # repr round-trips exactly
    assert float(loss) == rec.steps[2][2]
    assert rec.summary()["recorded_steps"] == 5


# ---------------------------------------------------------------------------
# the first layer's base product, computed once per run


def train_recomputing(net, data, cfg):
    """``train`` as it was before it reused the first layer's base product:
    every step computes that product for its own batch."""
    x_all, y_all = data
    rng = Rng(cfg.seed)
    record = RunRecord()
    states = {}
    for step in range(cfg.steps):
        lr = lr_schedule(step, cfg.steps, cfg.resolved_lr(), cfg.warmup_ratio)
        take = np.arange(step * cfg.batch_size, (step + 1) * cfg.batch_size) % x_all.shape[0]
        xb = x_all[take]
        yb = y_all[take]
        pred, caches = net_forward(net, xb, rng=rng, training=True)
        loss, d_pred = mse_loss(pred, yb)
        record.steps.append((step, lr, loss))
        grads = net_backward(net, caches, d_pred)
        for key, (owner, name, grad) in enumerate(_trainable(net, grads)):
            param = getattr(owner, name)
            if cfg.optimizer == "sgd":
                new = param - lr * grad
            else:
                new, states[key] = adamw_step(param, grad, states.get(key), lr, cfg.weight_decay)
            setattr(owner, name, new)
    return record


def reuse_case(kind, topology, rows, n=12, hidden=16, out=8):
    """A small 2:4 net and its data, the same on every call with the same arguments.

    ``kind`` is an adapter kind, or None for a net without adapters.
    """
    rng = Rng(17)

    def layer(m, k):
        w = rand_matrix(rng, m, k)
        return apply_mask(w, build_mask(score_magnitude(w), NofM(2, 4)))

    def adapter(m, k):
        return None if kind is None else ADAPTERS[kind].init(m, k, 2, 1.0, 0.1, rng)

    if topology == "one layer":
        layers = [NetLayer(layer(out, n), adapter(out, n))]
    elif topology == "adapter-less first":
        layers = [NetLayer(layer(hidden, n), activation="relu"),
                  NetLayer(layer(out, hidden), adapter(out, hidden))]
    else:  # "two relu layers"
        layers = [NetLayer(layer(hidden, n), adapter(hidden, n), "relu"),
                  NetLayer(layer(out, hidden), adapter(out, hidden), "relu")]
    data = (rand_matrix(rng, rows, n), rand_matrix(rng, rows, out))
    return ToyNet(layers), data


def run_bytes(net, record):
    """The run CSV and every trained tensor, as bytes."""
    tensors = [getattr(a, f) for a in (nl.adapter for nl in net.layers) if a for f in a.factors]
    return record.to_csv().encode() + b"".join(
        t.tobytes() for t in tensors + [nl.layer.weight for nl in net.layers])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(kind=st.sampled_from(sorted(ADAPTERS)),
       topology=st.sampled_from(["one layer", "adapter-less first", "two relu layers"]),
       rows=st.integers(1, 24), batch=st.integers(1, 10), steps=st.integers(0, 12),
       optimizer=st.sampled_from(["adamw", "sgd"]))
# 10 rows in batches of 4: the third batch wraps, rows 8, 9, 0, 1
@example(kind="spp", topology="one layer", rows=10, batch=4, steps=7, optimizer="adamw")
@example(kind="lora", topology="one layer", rows=10, batch=4, steps=7, optimizer="adamw")
@example(kind="spp", topology="adapter-less first", rows=10, batch=4, steps=7, optimizer="adamw")
@example(kind="lora", topology="adapter-less first", rows=10, batch=4, steps=7, optimizer="sgd")
@example(kind="spp", topology="two relu layers", rows=10, batch=4, steps=7, optimizer="sgd")
@example(kind="lora", topology="two relu layers", rows=10, batch=4, steps=7, optimizer="adamw")
@example(kind="spp", topology="two relu layers", rows=24, batch=4, steps=6, optimizer="adamw")
@example(kind="spp", topology="one layer", rows=24, batch=4, steps=3, optimizer="adamw")
@example(kind="lora", topology="adapter-less first", rows=5, batch=3, steps=0, optimizer="adamw")
def test_train_reusing_rows_matches_recomputing_every_step(kind, topology, rows, batch,
                                                           steps, optimizer):
    cfg = TrainConfig(steps=steps, optimizer=optimizer, batch_size=batch, seed=4)
    net, data = reuse_case(kind, topology, rows)
    _, record = train(net, data, cfg)
    ref_net, ref_data = reuse_case(kind, topology, rows)
    assert run_bytes(net, record) == run_bytes(ref_net, train_recomputing(ref_net, ref_data, cfg))


@pytest.mark.parametrize("optimizer", ["sgd", "adamw"])
def test_retraining_recomputes_the_first_layer_every_step(optimizer):
    # Without adapters the weights move every step, so a base product kept
    # from an earlier step would be stale; 30 rows read 4 times over.
    cfg = TrainConfig(steps=15, optimizer=optimizer, batch_size=8, seed=4)
    net, data = reuse_case(None, "adapter-less first", 30)
    _, record = train(net, data, cfg)
    ref_net, ref_data = reuse_case(None, "adapter-less first", 30)
    assert run_bytes(net, record) == run_bytes(ref_net, train_recomputing(ref_net, ref_data, cfg))


def test_train_computes_the_first_layer_base_once_per_row(monkeypatch):
    calls = []

    def counting(kernel):
        def wrapped(*args):
            calls.append(args[0].shape[0])
            return kernel(*args)
        return wrapped

    for module in (spp.adapters, spp.pruning):
        monkeypatch.setattr(module, "slot_matmul", counting(module.slot_matmul))
    cfg = TrainConfig(steps=20, batch_size=4, seed=4)
    train(*reuse_case("spp", "one layer", 10), cfg)
    # Three blocks cover the ten rows, then one branch product per step.
    assert calls == [4, 4, 2] + [4] * 20
    calls.clear()
    train_recomputing(*reuse_case("spp", "one layer", 10), cfg)
    assert calls == [4] * 40  # base and branch on every step


def test_reusing_rows_holds_the_base_beside_batch_sized_buffers():
    rows, m, batch = 512, 64, 16
    cache = rows * m * 8
    cfg = TrainConfig(steps=40, batch_size=batch, seed=4)  # 640 rows read
    peaks = {fn: peak_transient_bytes(fn, *reuse_case("spp", "one layer", rows, n=m, out=m), cfg)
             for fn in (train, train_recomputing)}
    assert peaks[train] <= peaks[train_recomputing] + cache
    assert peaks[train] >= cache  # the control: the measure sees the base



def test_adapter_training_holds_only_what_a_step_reads():
    # The first layer computes no input gradient, so nothing builds its
    # layout's transposed half; and no layer's mask caches its flat positions.
    rng = Rng(41)
    layers = []
    for _ in range(2):
        w = rand_matrix(rng, 16, 16)
        mask = build_mask(np.abs(w), NofM(2, 4))
        layers.append(PrunedLayer(w[mask.mask], mask))
    net = ToyNet([NetLayer(layers[0], spp_init(16, 16, 4, 1.0, 0.05, rng), "relu"),
                  NetLayer(layers[1], spp_init(16, 16, 4, 1.0, 0.05, rng))])
    data = (rand_matrix(rng, 24, 16), rand_matrix(rng, 24, 16))
    train(net, data, TrainConfig(steps=3, batch_size=8))
    first, second = (layer.mask for layer in layers)
    assert not {"idx_t", "rank_t"} & set(vars(first.slots))
    assert {"idx_t", "rank_t"} <= set(vars(second.slots))  # the second layer's d_x
    assert "positions" not in vars(first) and "positions" not in vars(second)


# ---------------------------------------------------------------------------
# the trainable vector


@pytest.mark.parametrize("kind", ["spp", "lora", None])
def test_train_updates_one_vector_with_one_optimizer_call_per_step(monkeypatch, kind):
    # Two layers, each with an adapter of two factors, or each retraining its
    # kept values: one AdamW call per step, on every trained entry at once.
    calls = []

    def counting(param, *args):
        calls.append(param.shape)
        return adamw_step(param, *args)

    monkeypatch.setattr("spp.training.adamw_step", counting)
    net, data = reuse_case(kind, "two relu layers", 20)
    owned = [(nl.layer, "values") for nl in net.layers] if kind is None else [
        (nl.adapter, name) for nl in net.layers for name in nl.adapter.factors]
    assert len(owned) == (2 if kind is None else 4)
    before = [weakref.ref(getattr(o, n)) for o, n in owned]
    train(net, data, TrainConfig(steps=5, batch_size=4, seed=4))
    assert len(calls) == 5  # one per tensor per step would be 20, or 10 without adapters
    tensors = [getattr(o, n) for o, n in owned]
    assert calls == [(sum(t.size for t in tensors),)] * 5
    assert len({id(t.base) for t in tensors}) == 1  # views into one vector
    assert all(ref() is None for ref in before)  # the arrays they replaced are freed


def test_train_rejects_a_tensor_that_appears_twice():
    # One vector holds each trained tensor once; a net that reads a layer or
    # an adapter twice would train only one of its two slices.
    rng = Rng(3)
    w = rand_matrix(rng, 8, 8)
    layer = apply_mask(w, build_mask(score_magnitude(w), NofM(2, 4)))
    data = (rand_matrix(rng, 8, 8), rand_matrix(rng, 8, 8))
    for adapter in (None, spp_init(8, 8, 2, 1.0, 0.05, rng)):
        net = ToyNet([NetLayer(layer, adapter, "relu"), NetLayer(layer, adapter)])
        with pytest.raises(ValueError, match="appears twice"):
            train(net, data, TrainConfig(steps=1, batch_size=4))


# ---------------------------------------------------------------------------
# teacher-student task


def test_teacher_student_golden_losses():
    ts = make_teacher_student(0, 64, 64, NofM(2, 4), 2048)
    assert eval_loss(ts.teacher, ts.x_eval, ts.y_eval) == 0.0
    student = eval_loss(ts.student, ts.x_eval, ts.y_eval)
    assert student == GOLDEN_STUDENT_LOSS
    assert ts.x_train.shape == (2048, 64)
    assert ts.x_eval.shape == (256, 64)
    assert verify_mask(ts.student.layers[0].layer).ok


def test_recovery_improves_and_merge_matches():
    ts = make_teacher_student(0, 64, 64, NofM(2, 4), 2048)
    before = eval_loss(ts.student, ts.x_eval, ts.y_eval)
    ad = spp_init(64, 64, 8, 1.0, 0.05, Rng(1000))
    ts.student.layers[0].adapter = ad
    train(ts.student, (ts.x_train, ts.y_train), TrainConfig(steps=150, seed=0))
    after = eval_loss(ts.student, ts.x_eval, ts.y_eval)
    assert after < before

    merged = spp_merge(ts.student.layers[0].layer, ad)
    assert verify_mask(merged).ok
    merged_net = ToyNet([NetLayer(merged)], loss="mse")
    merged_loss = eval_loss(merged_net, ts.x_eval, ts.y_eval)
    assert merged_loss == pytest.approx(after, rel=1e-12)


# ---------------------------------------------------------------------------
# parameter accounting


def test_count_trainable_small_examples():
    trainable, total, pm = count_trainable([(4, 4)], blocks=1, r=4)
    assert (trainable, total) == (20, 16)
    trainable, total, pm = count_trainable([(8, 8)], blocks=1, r=4)
    assert (trainable, total) == (40, 64)
    assert pm == pytest.approx(1000.0 * 40 / 64)


def test_count_trainable_7b_architecture():
    trainable, total, pm = count_trainable(
        LLAMA7B_SHAPES, blocks=32, r=16, extra_params=LLAMA7B_EXTRA
    )
    assert trainable == 19_578_880
    assert total == 6_738_415_616
    assert abs(pm - 2.90) <= 0.01


def test_count_trainable_13b_architecture():
    trainable, total, pm = count_trainable(
        LLAMA13B_SHAPES, blocks=40, r=16, extra_params=LLAMA13B_EXTRA
    )
    assert trainable == 30_638_080
    assert total == 13_015_864_320
    assert abs(pm - 2.35) <= 0.01


def test_count_trainable_validation():
    with pytest.raises(PatternError):
        count_trainable([(6, 4)], blocks=1, r=4)
    with pytest.raises(PatternError):
        count_trainable([(4, 4)], blocks=1, r=0)
    with pytest.raises(ValueError):
        count_trainable([], blocks=1, r=1)
    with pytest.raises(ValueError):
        count_trainable([(4, 4)], blocks=0, r=1)
    with pytest.raises(ValueError):
        count_trainable([(4, 4)], blocks=1, r=1, extra_params=-5)
    with pytest.raises(ValueError, match="dimensions must be >= 1"):
        count_trainable([(0, 4)], blocks=1, r=1)
    with pytest.raises(ValueError, match="dimensions must be >= 1"):
        count_trainable([(-4, 4)], blocks=1, r=2)
