"""Spans around the public calls into each spp module, recorded from outside.

The tracer replaces each traced function with a wrapper everywhere the
package holds a reference to it: the defining module, every module that did
``from .numerics import matmul`` (``spp.adapters.matmul``,
``spp.training.matmul``, ...), module-level dicts such as the training loss
table, and the package namespace.  ``Rng.doubles`` is patched on the class.
Everything is restored when the traced pass ends, so untraced passes run the
unmodified program.

A span is ``[name, parent id, start, end, peak bytes, counts]``; its id is its
index in ``Tracer.spans``, which keeps every span in memory until the run
ends.  Self time is a span's duration minus the durations of its children.
Peak bytes come from ``tracemalloc`` (NumPy reports its buffers to it) and
are recorded only in memory passes, because tracing every allocation slows
pure-Python code far more than NumPy code and would skew the self times.

The counts (draws, multiply-adds, bytes) are computed from call arguments,
operand shapes, weight nnz and file sizes, not measured.  To tell a matmul's
weight operand from its other operands, the tracer notes every layer weight
and effective weight made while it is installed (``WEIGHT_SOURCES``).  No
hardware counters are read,
since the virtual machines this runs on do not expose them.
"""

import functools
import os
import statistics
import sys
import tracemalloc
import weakref
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_draws(_tracer, args, kwargs):
    return {"draws": int(_arg(args, kwargs, 1, "count"))}


def _count_madds(tracer, args, kwargs):
    # matmul(a, b_t) returns a @ b_t.T.  When b_t is a layer weight, a view
    # of one (a transpose, a row block) or an effective weight derived from
    # one, a multiply-add is useful if its b_t entry is nonzero.  Products of
    # activations, gradients or LoRA factors count in madds only.
    a = _arg(args, kwargs, 0, "a")
    b_t = _arg(args, kwargs, 1, "b_t")
    rows, inner = a.shape
    madds = rows * inner * b_t.shape[0]
    view = b_t
    while isinstance(view, np.ndarray) and tracer.weights.get(id(view)) is not view:
        view = view.base
    if not isinstance(view, np.ndarray):
        return {"madds": madds}
    return {"madds": madds, "weight_madds": madds,
            "useful": rows * int(np.count_nonzero(b_t))}


def _count_read(_tracer, args, kwargs):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _count_write(_tracer, args, kwargs):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


# (span name, module, attribute, computed-count function)
TARGETS = [
    ("rng.doubles", "spp.rng", "Rng.doubles", _count_draws),
    ("numerics.matmul", "spp.numerics", "matmul", _count_madds),
    ("adapters.forward", "spp.adapters", "spp_forward_naive", None),
    ("adapters.forward", "spp.adapters", "spp_forward_optimized", None),
    ("adapters.forward", "spp.adapters", "lora_forward", None),
    ("adapters.backward", "spp.adapters", "spp_backward", None),
    ("adapters.backward", "spp.adapters", "lora_backward", None),
    ("adapters.dropout", "spp.adapters", "dropout_apply", None),
    ("adapters.merge", "spp.adapters", "spp_merge", None),
    ("adapters.merge", "spp.adapters", "lora_merge_dense", None),
    ("pruning.score", "spp.pruning", "score_magnitude", None),
    ("pruning.score", "spp.pruning", "score_wanda", None),
    ("pruning.score", "spp.pruning", "collect_calibration", None),
    ("pruning.build_mask", "spp.pruning", "build_mask", None),
    ("pruning.apply_mask", "spp.pruning", "apply_mask", None),
    ("pruning.verify_mask", "spp.pruning", "verify_mask", None),
    ("training.train", "spp.training", "train", None),
    ("training.optimizer", "spp.training", "adamw_step", None),
    ("training.optimizer", "spp.training", "fixed_mask_sgd_step", None),
    ("training.loss", "spp.training", "mse_loss", None),
    ("training.loss", "spp.training", "cross_entropy_loss", None),
    ("store.read", "spp.store", "store_read", _count_read),
    ("store.write", "spp.store", "store_write", _count_write),
    ("cli.load_layers", "spp.cli", "_load_layers", None),
    ("cli.command", "spp.cli", "cmd_prune", None),
    ("cli.command", "spp.cli", "cmd_attach", None),
    ("cli.command", "spp.cli", "cmd_train", None),
    ("cli.command", "spp.cli", "cmd_merge", None),
    ("cli.command", "spp.cli", "cmd_verify", None),
]

# Where layer weights come from, and how to pick the weight from a call's
# arguments and result: every PrunedLayer sets its weight in __post_init__,
# and spp_effective_weight returns W * repeat(alpha) * beta.
WEIGHT_SOURCES = [
    ("spp.pruning", "PrunedLayer.__post_init__", lambda args, _out: args[0].weight),
    ("spp.adapters", "spp_effective_weight", lambda _args, out: out),
]

# Per-layer metrics: name, unit, better, the end-to-end metric it should
# move, and the workloads where it should move most / least.
# "self_s", "calls" and computed counts are per pass (median over traced
# passes); "peak_bytes" is the largest peak of one call in the memory pass.
LAYER_METRICS = [
    ("rng.doubles.calls", "count", "lower", "train_steps_per_s", "recovery-64 / ckpt-1024"),
    ("rng.doubles.draws", "count", "lower", "train_steps_per_s", "recovery-64 / ckpt-1024"),
    ("rng.doubles.self_s", "s", "lower", "train_steps_per_s", "recovery-64 / ckpt-1024"),
    ("numerics.matmul.calls", "count", "lower", "train_steps_per_s", "cli-512 / ckpt-1024"),
    ("numerics.matmul.madds", "count", "lower", "train_steps_per_s", "cli-512 / ckpt-1024"),
    ("numerics.matmul.useful_frac", "frac", "higher", "train_steps_per_s", "cli-512 / ckpt-1024"),
    ("numerics.matmul.self_s", "s", "lower", "train_steps_per_s", "cli-512 / ckpt-1024"),
    ("numerics.matmul.peak_bytes", "B", "lower", "peak_rss_mb", "cli-512 / ckpt-1024"),
    ("adapters.forward.self_s", "s", "lower", "train_steps_per_s", "cli-512 / recovery-64"),
    ("adapters.forward.peak_bytes", "B", "lower", "peak_rss_mb", "cli-512 / recovery-64"),
    ("adapters.backward.self_s", "s", "lower", "train_steps_per_s", "cli-512 / recovery-64"),
    ("adapters.backward.peak_bytes", "B", "lower", "peak_rss_mb", "cli-512 / recovery-64"),
    ("adapters.dropout.self_s", "s", "lower", "train_steps_per_s", "cli-512 / recovery-64"),
    ("adapters.merge.self_s", "s", "lower", "merge_s", "ckpt-1024 / recovery-64"),
    ("adapters.merge.peak_bytes", "B", "lower", "peak_rss_mb", "ckpt-1024 / recovery-64"),
    ("pruning.score.self_s", "s", "lower", "prune_s", "ckpt-1024 / cli-512"),
    ("pruning.build_mask.self_s", "s", "lower", "prune_s", "ckpt-1024 / cli-512"),
    ("pruning.apply_mask.self_s", "s", "lower", "prune_s", "ckpt-1024 / cli-512"),
    ("pruning.verify_mask.self_s", "s", "lower", "verify_s", "ckpt-1024 / cli-512"),
    ("training.train.self_s", "s", "lower", "train_steps_per_s", "recovery-64 / cli-512"),
    ("training.optimizer.calls", "count", "lower", "train_steps_per_s", "recovery-64 / cli-512"),
    ("training.optimizer.self_s", "s", "lower", "train_steps_per_s", "recovery-64 / cli-512"),
    ("training.loss.self_s", "s", "lower", "train_steps_per_s", "recovery-64 / cli-512"),
    ("store.read.calls", "count", "lower", "wall_s", "ckpt-1024 / recovery-64"),
    ("store.read.bytes", "B", "lower", "wall_s", "ckpt-1024 / recovery-64"),
    ("store.read.self_s", "s", "lower", "wall_s", "ckpt-1024 / recovery-64"),
    ("store.read.peak_bytes", "B", "lower", "peak_rss_mb", "ckpt-1024 / recovery-64"),
    ("store.write.calls", "count", "lower", "wall_s", "ckpt-1024 / recovery-64"),
    ("store.write.bytes", "B", "lower", "wall_s", "ckpt-1024 / recovery-64"),
    ("store.write.self_s", "s", "lower", "wall_s", "ckpt-1024 / recovery-64"),
    ("store.write.peak_bytes", "B", "lower", "peak_rss_mb", "ckpt-1024 / recovery-64"),
    ("cli.load_layers.self_s", "s", "lower", "wall_s", "ckpt-1024 / recovery-64"),
    ("cli.command.self_s", "s", "lower", "wall_s", "ckpt-1024 / recovery-64"),
    ("trace.overhead_frac", "frac", "lower", "none", "all"),
]

COMPUTED = {"rng.doubles.draws", "numerics.matmul.madds", "numerics.matmul.useful_frac",
            "store.read.bytes", "store.write.bytes"}

LAYERS = ("rng", "numerics", "adapters", "pruning", "training", "store", "cli")


class Tracer:
    """Records nested spans while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.memory = False
        self.paused = False
        self._stack = []
        self._frames = []  # per open span in memory mode: [start bytes, peak seen]
        self._patches = []
        # id -> array of every layer weight and effective weight made while
        # installed, so that matmul can tell its weight operand
        self.weights = weakref.WeakValueDictionary()

    # -- spans ----------------------------------------------------------------

    def enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._frames:
                self._frames[-1][1] = max(self._frames[-1][1], peak)
            tracemalloc.reset_peak()
            self._frames.append([current, current])
        self._stack.append(idx)
        self.spans.append([name, parent, perf_counter(), 0.0, 0, None])

    def exit(self, counts=None):
        end = perf_counter()
        span = self.spans[self._stack.pop()]
        span[3] = end
        span[5] = counts
        if self.memory:
            frame = self._frames.pop()
            frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
            span[4] = frame[1] - frame[0]
            if self._frames:
                self._frames[-1][1] = max(self._frames[-1][1], frame[1])
            tracemalloc.reset_peak()

    @contextmanager
    def span(self, name):
        if self.paused:
            yield
            return
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    @contextmanager
    def pause(self):
        """Stop recording, e.g. while the benchmark checks outputs."""
        before, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = before

    # -- patching ---------------------------------------------------------------

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.exit()
                raise
            tracer.exit(count(tracer, args, kwargs) if count is not None else None)
            return out

        return traced

    def _noting_weights(self, fn, weight_of):
        """fn, noting the weight that weight_of(args, out) picks."""
        weights = self.weights

        @functools.wraps(fn)
        def noting(*args, **kwargs):
            out = fn(*args, **kwargs)
            weight = weight_of(args, out)
            weights[id(weight)] = weight
            return out

        return noting

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def _patch(self, modules, module_name, attr, make_wrapper):
        """Replace module_name.attr by make_wrapper(it) wherever spp refers to it."""
        module = sys.modules.get(module_name)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = getattr(owner, fn_name, None) if owner is not None else None
        if fn is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = make_wrapper(fn)
        if owner_name:
            self._set(owner, fn_name, wrapper)
            return
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is fn:
                            self._set(value, k, wrapper)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "spp" or n.startswith("spp."))]
        self.missing = []
        for module_name, attr, weight_of in WEIGHT_SOURCES:
            self._patch(modules, module_name, attr,
                        lambda fn, weight_of=weight_of: self._noting_weights(fn, weight_of))
        for name, module_name, attr, count in TARGETS:
            self._patch(modules, module_name, attr,
                        lambda fn, name=name, count=count: self._wrap(name, fn, count))

    def uninstall(self):
        self.weights.clear()
        while self._patches:
            owner, key, value = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    @contextmanager
    def traced_pass(self, memory):
        """Install the wrappers for one pass, under a root span for the pass."""
        self.memory = memory
        if memory:
            tracemalloc.start()
        self.install()
        try:
            with self.span("pass.memory" if memory else "pass.time"):
                yield
        finally:
            self.uninstall()
            if memory:
                tracemalloc.stop()
            self.memory = False


def _self_times(spans):
    child = [0.0] * len(spans)
    for _name, parent, start, end, _peak, _counts in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[3] - s[2]) - c for s, c in zip(spans, child)]


def _roots(spans):
    root = [0] * len(spans)
    for idx, span in enumerate(spans):
        root[idx] = idx if span[1] < 0 else root[span[1]]
    return root


def layer_metrics(tracer, untraced_walls, traced_walls):
    """Per-layer metrics from the recorded spans, as {name: value}."""
    spans = tracer.spans
    selfs = _self_times(spans)
    root = _roots(spans)

    per_pass = {}  # root id -> {metric: value}
    peaks = {}
    for idx, (name, _parent, _s, _e, peak, counts) in enumerate(spans):
        kind = spans[root[idx]][0]
        if kind == "pass.memory":
            peaks[name] = max(peaks.get(name, 0), peak)
            continue
        acc = per_pass.setdefault(root[idx], {})
        acc[name + ".calls"] = acc.get(name + ".calls", 0) + 1
        acc[name + ".self_s"] = acc.get(name + ".self_s", 0.0) + selfs[idx]
        for key, value in (counts or {}).items():
            acc[f"{name}.{key}"] = acc.get(f"{name}.{key}", 0) + value

    passes = list(per_pass.values())
    metrics = {}
    for name, unit, _better, _moves, _where in LAYER_METRICS:
        if name.endswith(".peak_bytes"):
            value = peaks.get(name[: -len(".peak_bytes")], 0)
        elif name == "numerics.matmul.useful_frac":
            ratios = [p["numerics.matmul.useful"] / p["numerics.matmul.weight_madds"]
                      for p in passes if p.get("numerics.matmul.weight_madds")]
            value = statistics.median(ratios) if ratios else 0.0
        elif name == "trace.overhead_frac":
            value = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
        else:
            value = statistics.median(p.get(name, 0) for p in passes)
        metrics[name] = (value, unit)
    return metrics


def layer_shares(tracer):
    """Share of the program time of traced passes spent as self time in each
    layer.  Program time is the time inside the benchmark's timed calls (the
    children of a pass); "other" is their own glue outside every layer."""
    spans = tracer.spans
    selfs = _self_times(spans)
    root = _roots(spans)
    totals = {}
    wall = 0.0
    for idx, span in enumerate(spans):
        if idx == root[idx] or spans[root[idx]][0] != "pass.time":
            continue
        if span[1] == root[idx]:
            wall += span[3] - span[2]
        top = span[0].split(".")[0]
        layer = top if top in LAYERS else "other"
        totals[layer] = totals.get(layer, 0.0) + selfs[idx]
    return {k: v / wall for k, v in totals.items()} if wall else {}
