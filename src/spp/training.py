"""Desk-scale training loop, optimizers, and the recovery experiment pieces.

The net model here is deliberately tiny: a stack of frozen pruned linear
layers, each optionally carrying an adapter, with relu or identity between
them and an MSE or cross-entropy head.  Training a net with adapters
touches adapter parameters only.  The fixed-mask baseline is training a net
without adapters: that updates the kept values of the weights themselves
with their gradient in kept order, which is classical sparse retraining.
Either way ``train`` holds the tensors it trains as views into one float64
vector, so a step is one optimizer update of that vector with one state.

With adapters no weight changes, so the first layer's base product x @ W.T
is the same for a row on every step that reads it.  ``train`` computes it
once for the rows the run reads, a batch of rows at a time, and each step
takes its batch's rows of it (``net_forward``'s ``base``).  Every row of the
product depends on its own input row alone and is summed in the same order,
so this is bit for bit what recomputing it every step gives.  It costs one
(rows, m) array, the same order as the data ``train`` already holds.  A net
without adapters recomputes it every step, since its weights move.

All arithmetic is float64 through the deterministic kernels, and all
randomness flows from one seeded stream, so two runs with the same config
produce byte-identical logs and checkpoints.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .adapters import (
    AdapterGrads,
    LoraAdapter,
    SppAdapter,
    lora_backward,
    lora_forward,
    spp_backward,
    spp_forward_naive,
)
from .errors import NonFiniteError, PatternError, ShapeError, TrainingDiverged
from .numerics import as_matrix, matmul, sampled_matmul
from .pruning import PrunedLayer, SparseMask, Unstructured, apply_mask, build_mask, score_magnitude
from .rng import Rng

_ACTIVATIONS = ("identity", "relu")
_DEFAULT_LR = {"sgd": 1e-2, "adamw": 1e-3}
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
_EVAL_SAMPLES = 256  # held-out rows of the teacher-student task


# ---------------------------------------------------------------------------
# schedule and optimizers


def lr_schedule(step: int, total_steps: int, peak_lr: float, warmup_ratio: float) -> float:
    """Linear warmup to ``peak_lr`` then linear decay toward zero.

    Warmup lasts floor(warmup_ratio * total_steps) steps; the rate is 0 at
    step 0, hits the peak exactly at the warmup boundary, and the decay line
    reaches 0 at ``total_steps``.
    """
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    if not (0 <= step < total_steps):
        raise ValueError(f"step {step} outside [0, {total_steps})")
    if not (0.0 <= warmup_ratio < 1.0):
        raise ValueError(f"warmup_ratio must lie in [0, 1), got {warmup_ratio}")
    warmup = int(warmup_ratio * total_steps)
    if warmup > 0 and step < warmup:
        return peak_lr * step / warmup
    return peak_lr * (total_steps - step) / (total_steps - warmup)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adamw_step(
    param: np.ndarray,
    grad: np.ndarray,
    state: AdamState | None,
    lr: float,
    weight_decay: float = 0.0,
) -> tuple[np.ndarray, AdamState]:
    """One decoupled-weight-decay Adam update; returns (new param, new state).

    Moments are bias-corrected; decay is applied directly to the incoming
    parameter (p -= lr * weight_decay * p), not through the gradient.
    """
    if param.shape != grad.shape:
        raise ShapeError(f"param {param.shape} and grad {grad.shape} differ")
    if state is None:
        state = AdamState(m=np.zeros_like(param), v=np.zeros_like(param), t=0)
    t = state.t + 1
    m = _ADAM_BETA1 * state.m + (1.0 - _ADAM_BETA1) * grad
    v = _ADAM_BETA2 * state.v + (1.0 - _ADAM_BETA2) * (grad * grad)
    m_hat = m / (1.0 - _ADAM_BETA1**t)
    v_hat = v / (1.0 - _ADAM_BETA2**t)
    new_param = param - lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS) - lr * weight_decay * param
    return new_param, AdamState(m=m, v=v, t=t)


# ---------------------------------------------------------------------------
# the toy net


@dataclass
class NetLayer:
    layer: PrunedLayer
    adapter: SppAdapter | LoraAdapter | None = None
    activation: str = "identity"

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {_ACTIVATIONS}, got {self.activation!r}"
            )


@dataclass
class ToyNet:
    layers: list[NetLayer]
    loss: str = "mse"

    def __post_init__(self):
        if not self.layers:
            raise ValueError("net needs at least one layer")
        if self.loss not in _LOSS_FNS:
            raise ValueError(f"loss must be one of {tuple(_LOSS_FNS)}, got {self.loss!r}")

    def has_adapters(self) -> bool:
        return any(nl.adapter is not None for nl in self.layers)


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    if pred.shape != target.shape:
        raise ShapeError(f"prediction {pred.shape} and target {target.shape} differ")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    return loss, (2.0 / diff.size) * diff


def cross_entropy_loss(logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy against one-hot (or soft) row targets."""
    if logits.shape != target.shape:
        raise ShapeError(f"logits {logits.shape} and target {target.shape} differ")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    softmax = exp / exp.sum(axis=1, keepdims=True)
    log_sm = shifted - np.log(exp.sum(axis=1, keepdims=True))
    batch = logits.shape[0]
    loss = float(-(target * log_sm).sum() / batch)
    return loss, (softmax - target) / batch


_LOSS_FNS = {"mse": mse_loss, "cross_entropy": cross_entropy_loss}
_FORWARDS = {SppAdapter: spp_forward_naive, LoraAdapter: lora_forward}
_BACKWARDS = {SppAdapter: spp_backward, LoraAdapter: lora_backward}


def net_forward(
    net: ToyNet,
    x: np.ndarray,
    rng: Rng | None = None,
    training: bool = False,
    base: np.ndarray | None = None,
):
    """Run the stack; returns (prediction, per-layer caches).

    ``base``, if given, is the first layer's x @ W.T, which that layer then
    uses instead of computing it; no other layer sees it.
    """
    cur = as_matrix(x, "x")
    caches = []
    for nl in net.layers:
        if nl.adapter is None:
            pre = nl.layer.apply(cur) if base is None else base
            cache = cur if training else None
        else:
            pre, cache = _FORWARDS[type(nl.adapter)](
                cur, nl.layer, nl.adapter, rng=rng, training=training, base=base
            )
        post = np.maximum(pre, 0.0) if nl.activation == "relu" else pre
        caches.append((cache, pre))
        cur = post
        base = None
    return cur, caches


def net_backward(net: ToyNet, caches, d_pred: np.ndarray):
    """Backpropagate; returns one gradient record per layer (same order).

    In a net without adapters, a layer's record is the gradient of its kept
    values, 1-D in kept order.  In a net with adapters
    the weights are frozen, so an adapter-less layer's record stays None.
    The first layer's input gradient is never used, so it is not computed.
    """
    grads: list[AdapterGrads | np.ndarray | None] = [None] * len(net.layers)
    retrain = not net.has_adapters()
    g = d_pred
    for i in range(len(net.layers) - 1, -1, -1):
        nl = net.layers[i]
        cache, pre = caches[i]
        if nl.activation == "relu":
            g = g * (pre > 0.0)
        if nl.adapter is None:
            if retrain:
                slots = nl.layer.mask.slots
                grads[i] = slots.ranked(sampled_matmul(g, cache, slots.idx))
            g = nl.layer.apply_transpose(g) if i > 0 else None
        else:
            grads[i] = _BACKWARDS[type(nl.adapter)](cache, g, input_grad=i > 0)
            g = grads[i].d_x
    return grads


def eval_loss(net: ToyNet, x: np.ndarray, y: np.ndarray) -> float:
    pred, _ = net_forward(net, x, training=False)
    loss, _ = _LOSS_FNS[net.loss](pred, y)
    return loss


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainConfig:
    steps: int
    lr: float | None = None  # None resolves to the optimizer default
    optimizer: str = "adamw"
    batch_size: int = 32
    warmup_ratio: float = 0.03
    weight_decay: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.optimizer not in _DEFAULT_LR:
            raise ValueError(
                f"optimizer must be one of {tuple(_DEFAULT_LR)}, got {self.optimizer!r}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0.0 <= self.warmup_ratio < 1.0):
            raise ValueError(f"warmup_ratio must lie in [0, 1), got {self.warmup_ratio}")
        for name in ("lr", "weight_decay"):
            value = getattr(self, name)
            if value is None:
                continue
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    def resolved_lr(self) -> float:
        return _DEFAULT_LR[self.optimizer] if self.lr is None else self.lr


@dataclass
class RunRecord:
    """Per-step log plus end-of-run metrics.  Serializes deterministically."""

    steps: list[tuple[int, float, float]] = field(default_factory=list)
    train_loss: float | None = None

    def to_csv(self) -> str:
        lines = ["step,lr,loss"]
        for step, lr, loss in self.steps:
            lines.append(f"{step},{lr!r},{loss!r}")
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        out = {} if self.train_loss is None else {"train_loss": self.train_loss}
        out["recorded_steps"] = len(self.steps)
        return out


def _trainable(net: ToyNet, grads):
    """Yield (owner, attribute, gradient) for every tensor a step updates.

    In a net with adapters that is every adapter factor, in ``factors``
    order, and no weight; in a net without them every layer's kept values.
    ``train`` lays them out in this order in its one parameter vector, and
    their gradients likewise.  A layer whose record is None yields None.
    """
    retrain = not net.has_adapters()
    for nl, g in zip(net.layers, grads):
        if retrain:
            yield nl.layer, "values", g
        elif nl.adapter is not None:
            for name in nl.adapter.factors:
                yield nl.adapter, name, getattr(g, f"d_{name}", None)


def _first_layer_bases(net: ToyNet, x: np.ndarray, block: int) -> np.ndarray | None:
    """The first layer's x @ W.T for every row of ``x``, ``block`` rows at a time.

    Blocks keep the kernel's transients batch-sized.  None for no rows, or
    in a net without adapters, whose weights move every step.
    """
    if not net.has_adapters() or x.shape[0] == 0:
        return None
    layer = net.layers[0].layer
    out = np.empty((x.shape[0], layer.shape[0]))
    for start in range(0, x.shape[0], block):
        out[start : start + block] = layer.apply(x[start : start + block])
    return out


def train(net: ToyNet, data: tuple[np.ndarray, np.ndarray], cfg: TrainConfig):
    """Optimize the net's adapters, or its masked weights if it has none.

    Returns (net, RunRecord).  The net is modified in place; base weights are
    never written when it has adapters.  Batches walk the dataset in order
    with wraparound, so the run is a pure function of (net, data, cfg).
    """
    x_all = as_matrix(data[0], "x")
    y_all = as_matrix(data[1], "y")
    if x_all.shape[0] != y_all.shape[0]:
        raise ShapeError(
            f"{x_all.shape[0]} inputs but {y_all.shape[0]} targets"
        )

    rng = Rng(cfg.seed)
    peak = cfg.resolved_lr()
    loss_fn = _LOSS_FNS[net.loss]
    n_rows = x_all.shape[0]
    record = RunRecord()
    bases = _first_layer_bases(net, x_all[: min(n_rows, cfg.steps * cfg.batch_size)],
                               cfg.batch_size)
    if cfg.steps:
        # Every step computes the input gradient of each layer but the first,
        # on its layout's transposed half: built here once, not in a step.
        for nl in net.layers[1:]:
            nl.layer.mask.slots.idx_t, nl.layer.mask.slots.rank_t
        tensors = [(o, n) for o, n, _ in _trainable(net, [None] * len(net.layers))]
        if len({(id(o), n) for o, n in tensors}) < len(tensors):
            raise ValueError("a trainable tensor appears twice in the net")
        params, state = np.concatenate([getattr(o, n) for o, n in tensors], axis=None), None
        ends = np.cumsum([getattr(o, n).size for o, n in tensors])
        for (owner, name), view in zip(tensors, np.split(params, ends[:-1])):
            setattr(owner, name, view.reshape(getattr(owner, name).shape))

    for step in range(cfg.steps):
        lr = lr_schedule(step, cfg.steps, peak, cfg.warmup_ratio)
        start = step * cfg.batch_size % n_rows
        stop = start + cfg.batch_size
        # A batch that does not wrap is read through views, not copies.
        take = slice(start, stop) if stop <= n_rows else np.arange(start, stop) % n_rows
        # The batch's rows go straight into the calls that read them, so no
        # step holds them past those calls.
        try:
            pred, caches = net_forward(net, x_all[take], rng=rng, training=True,
                                       base=None if bases is None else bases[take])
            loss, d_pred = loss_fn(pred, y_all[take])
            if not math.isfinite(loss):
                raise TrainingDiverged(step)
            grads = net_backward(net, caches, d_pred)
        except NonFiniteError:
            # x_all passed as_matrix above, so a layer's input or upstream
            # gradient that is not finite came out of this run's updates.
            raise TrainingDiverged(step) from None
        record.steps.append((step, lr, loss))
        del pred, caches, d_pred  # not held while the next step draws its dropout

        grad = np.concatenate([g for _, _, g in _trainable(net, grads)], axis=None)
        if cfg.optimizer == "sgd":
            params -= lr * grad
        else:
            params[...], state = adamw_step(params, grad, state, lr, cfg.weight_decay)

    if record.steps:
        record.train_loss = record.steps[-1][2]
    return net, record


# ---------------------------------------------------------------------------
# the teacher-student recovery task


@dataclass
class TeacherStudent:
    teacher: ToyNet
    student: ToyNet
    x_train: np.ndarray
    y_train: np.ndarray
    x_eval: np.ndarray
    y_eval: np.ndarray


def make_teacher_student(
    seed: int,
    m: int,
    n: int,
    pattern,
    samples: int,
) -> TeacherStudent:
    """Dense random teacher, magnitude-pruned student copy, correlated data.

    Inputs are drawn as z @ mix.T with a random mixing matrix, so features
    are correlated; under correlated inputs the magnitude-pruned copy is not
    the best masked approximation of the teacher, which is what leaves the
    student measurable headroom to recover.  Targets are the teacher's exact
    outputs and the objective is MSE.  ``_EVAL_SAMPLES`` rows follow for eval.
    """
    if samples < 1:
        raise ValueError("need at least one train sample")
    rng = Rng(seed)
    bound = 1.0 / math.sqrt(n)
    teacher_w = rng.uniform(-bound, bound, m, n)
    mix = rng.uniform(-bound, bound, n, n)
    z = rng.uniform(-1.0, 1.0, samples + _EVAL_SAMPLES, n)
    x = matmul(z, mix)
    y = matmul(x, teacher_w)

    ones = SparseMask(np.ones((m, n)), Unstructured(0.0))
    teacher = ToyNet([NetLayer(PrunedLayer(teacher_w, ones))], loss="mse")
    student_layer = apply_mask(teacher_w, build_mask(score_magnitude(teacher_w), pattern))
    student = ToyNet([NetLayer(student_layer)], loss="mse")
    return TeacherStudent(
        teacher=teacher,
        student=student,
        x_train=x[:samples],
        y_train=y[:samples],
        x_eval=x[samples:],
        y_eval=y[samples:],
    )


# ---------------------------------------------------------------------------
# parameter accounting


def count_trainable(
    shapes: list[tuple[int, int]],
    blocks: int,
    r: int,
    extra_params: int = 0,
) -> tuple[int, int, float]:
    """Adapter parameter count for ``blocks`` repetitions of ``shapes``.

    Each (m, n) matrix contributes m + r * n trainable entries (one row
    factor per output, one block factor row per rank slot).  ``total`` is the
    frozen parameter count: blocks * sum(m * n) plus any declared extras such
    as embeddings.  Returns (trainable, total, per-mille).
    """
    if blocks < 1:
        raise ValueError(f"blocks must be >= 1, got {blocks}")
    if r < 1:
        raise PatternError(f"r must be >= 1, got {r}")
    if not shapes:
        raise ValueError("need at least one layer shape")
    bad = [(m, n) for m, n in shapes if m < 1 or n < 1]
    if bad:
        raise ValueError(f"layer dimensions must be >= 1, got {bad}")
    bad = [(m, n) for m, n in shapes if m % r != 0]
    if bad:
        raise PatternError(f"r = {r} does not divide the rows of: {bad}")
    if extra_params < 0:
        raise ValueError(f"extra_params must be >= 0, got {extra_params}")
    trainable = blocks * sum(m + r * n for m, n in shapes)
    total = blocks * sum(m * n for m, n in shapes) + extra_params
    return trainable, total, 1000.0 * trainable / total
