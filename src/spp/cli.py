"""Command-line pipeline: prune, attach, train, merge, verify, count-params.

Checkpoints are single-file tensor stores.  Weight matrices live under their
layer names; a pruned layer adds "<name>.mask" (uint8), an adapter adds each
factor as "<name>.<kind>.<factor>" (e.g. "<name>.spp.alpha"), and run-level
settings ride the "__meta__" JSON tensor.

A layer with a mask is a ``PrunedLayer``: its kept values, read as they are
stored kept-encoded (see ``spp.store``) or gathered from a weight stored
raw, beside its mask.  A layer without a mask is its dense weight.  Every
command writes a pruned layer kept-encoded, and none makes its dense weight
but a low-rank merge, which is dense by definition.  A raw weight that is
nonzero where its mask drops the entry cannot become a layer: attach, train
and merge refuse it as an input error that names the layer and the first
such (row, col), and publish nothing.  verify reads the raw weight as it is
stored and lists where it breaks its mask.

prune, attach, merge and verify hold one layer at a time: each checks the
meta and the layer list from the store's index (``_index_layers``), then
reads, transforms and writes one layer before the next (``_Layers.load``,
``_output``).  train loads the whole model from that index
(``_load_layers``).

Exit codes: 0 success, 1 verification failure (or diverged training),
2 usage or input errors, 3 breach of an internal invariant.
"""

import argparse
import contextlib
import ctypes
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adapters import (
    ADAPTERS,
    LoraAdapter,
    SppAdapter,
    lora_merge_dense,
    spp_merge,
)
from .errors import PatternError, StoreFormatError, TrainingDiverged
from .pruning import (
    NofM,
    PrunedLayer,
    SparseMask,
    Unstructured,
    apply_mask,
    build_mask,
    collect_calibration,
    mask_report,
    off_mask,
    parse_pattern,
    score_magnitude,
    score_wanda,
    verify_mask,
)
from .rng import Rng
from .store import META_NAME, TensorStore, atomic_write, encode_meta, store_read, store_write
from .training import (
    NetLayer,
    TrainConfig,
    ToyNet,
    count_trainable,
    train,
)


def _factor_keys(name: str, cls) -> list[str]:
    """Store keys of an adapter kind's factors on layer ``name``, in order."""
    return [f"{name}.{cls.kind}.{factor}" for factor in cls.factors]


_RESERVED_SUFFIXES = (".mask", *(k for c in ADAPTERS.values() for k in _factor_keys("", c)))

ARCH_PRESETS = {
    # Per transformer block: four attention projections, two feed-forward
    # up projections, one down projection.  Extras cover the embedding and
    # output matrices plus the per-block and final norm vectors, so "total"
    # is the full model parameter count, not just the adapted matrices.
    "llama7b": {
        "blocks": 32,
        "shapes": [(4096, 4096)] * 4 + [(11008, 4096)] * 2 + [(4096, 11008)],
        "extra_params": 2 * 32000 * 4096 + 32 * 2 * 4096 + 4096,
    },
    "llama13b": {
        "blocks": 40,
        "shapes": [(5120, 5120)] * 4 + [(13824, 5120)] * 2 + [(5120, 13824)],
        "extra_params": 2 * 32000 * 5120 + 40 * 2 * 5120 + 5120,
    },
}


class UsageError(Exception):
    """Bad flags or unusable input files; maps to exit code 2."""


class InternalInvariantError(Exception):
    """A should-be-impossible state; maps to exit code 3."""


@contextlib.contextmanager
def _layer_input(name: str):
    """A ValueError in the block is an input error in layer ``name`` (exit 2)."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"layer {name!r}: {exc}") from exc


def _pruned(name: str, weight: np.ndarray, mask: SparseMask | None) -> PrunedLayer:
    """Layer ``name`` of ``weight`` (kept values or a raw (m, n) array) and ``mask``, or exit 2."""
    if mask is None:
        raise UsageError(f"layer {name!r} has no mask")
    with _layer_input(name):
        return PrunedLayer(weight, mask)


def _default_seed(value):
    if value is not None:
        return value
    env = os.environ.get("SPP_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise UsageError(f"SPP_SEED must be an integer, got {env!r}") from exc


def _read_store(path) -> TensorStore:
    try:
        return store_read(path)
    except FileNotFoundError as exc:
        raise UsageError(f"no such file: {path}") from exc
    except StoreFormatError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _layer_names(store: TensorStore) -> list[str]:
    names = []
    for name in store.names():
        if name == META_NAME or name.endswith(_RESERVED_SUFFIXES):
            continue
        dtype, shape = store.spec(name)
        if dtype == np.float64 and len(shape) == 2:
            names.append(name)
    if not names:
        raise UsageError("store contains no layer matrices")
    return names


def _store_meta(store: TensorStore) -> dict:
    """The store's meta, with every key a command reads checked.

    A malformed value raises UsageError naming its key.  Which values are
    usable beyond their type (a pattern label, an activation) is left to the
    code that parses them, whose errors also exit 2.
    """
    meta = store.meta()

    def check(ok: bool, where: str, key: str, want: str, value) -> None:
        if not ok:
            raise UsageError(f"{where}meta {key!r} must be {want}, got {value!r}")

    def number(value) -> bool:
        # abs() compares ints exactly, and is False for nan.
        return (not isinstance(value, bool) and isinstance(value, (int, float))
                and abs(value) <= sys.float_info.max)

    check(isinstance(meta, dict), "", "__meta__", "a JSON object", meta)
    pattern = meta.get("pattern")
    check(pattern is None or isinstance(pattern, str), "", "pattern", "a string", pattern)
    if "ratio" in meta:
        check(number(meta["ratio"]), "", "ratio", "a finite number", meta["ratio"])

    net = meta.get("net", {})
    check(isinstance(net, dict), "", "net", "an object", net)
    layers = net.get("layers", [])
    check(isinstance(layers, list), "net ", "layers", "a list", layers)
    for entry in layers:
        check(isinstance(entry, dict), "net ", "layers", "a list of objects", layers)
        name = entry.get("name")
        check(isinstance(name, str), "net layer ", "name", "a string", name)
        activation = entry.get("activation", "identity")
        check(isinstance(activation, str), "net layer ", "activation", "a string", activation)
    names = [entry["name"] for entry in layers]
    check(len(set(names)) == len(names), "net ", "layers", "unique names", names)
    loss = net.get("loss", "mse")
    check(isinstance(loss, str), "net ", "loss", "a string", loss)

    adapter = meta.get("adapter") or {}
    check(isinstance(adapter, dict), "", "adapter", "an object", adapter)
    kind = adapter.get("kind")
    check(kind is None or isinstance(kind, str) and kind in ADAPTERS,
          "adapter ", "kind", f"one of {sorted(ADAPTERS)}", kind)
    if "r" in adapter:
        r = adapter["r"]
        check(isinstance(r, int) and not isinstance(r, bool) and r >= 1,
              "adapter ", "r", "a positive integer", r)
    for key in ("s", "p"):
        if key in adapter:
            check(number(adapter[key]), "adapter ", key, "a finite number", adapter[key])
    return meta


def _mask_pattern(meta: dict):
    label = meta.get("pattern")
    if label is None or label == "dense":
        return None
    try:
        return parse_pattern(label, meta.get("ratio", 0.5))
    except PatternError as exc:
        raise UsageError(f"meta 'pattern' {label!r}: {exc}") from exc


@dataclass
class _Layers:
    """A store's layers as its index and small tensors give them.

    Every check that needs no weight or mask has passed: the meta, its
    pattern, the layer list and the adapters, whose factors are read here.
    ``load`` reads one layer's weight as it is stored, the kept values or a
    raw (m, n) array, and its mask (or None), which the store then drops.
    """

    store: TensorStore
    names: list[str]
    meta: dict
    pattern: Unstructured | NofM | None
    masked: set[str]
    adapters: dict[str, SppAdapter | LoraAdapter]

    def load(self, name: str) -> tuple[np.ndarray, SparseMask | None]:
        kept = self.store.pop_kept(name)
        if kept is not None:
            weight, raw = kept  # raw is bool, from a packed mask
        else:
            weight = self.store.pop(name)
            if name not in self.masked:
                return weight, None
            raw = self.store.pop(f"{name}.mask")
        pattern = self.pattern
        if pattern is None and raw.size:
            zeros = raw.size - int(np.count_nonzero(raw))
            pattern = Unstructured.matching(zeros, raw.size)
        with _layer_input(name):
            return weight, SparseMask(raw, pattern)


def _index_layers(store: TensorStore) -> _Layers:
    meta = _store_meta(store)
    pattern = _mask_pattern(meta)
    adapter_meta = meta.get("adapter") or {}
    cls = ADAPTERS.get(adapter_meta.get("kind"))
    names = _layer_names(store)
    adapters = {}
    for name in names:
        keys = _factor_keys(name, cls) if cls is not None else ()
        if keys and keys[0] in store:
            adapter = cls(
                *(store.get(k) for k in keys),
                s=float(adapter_meta.get("s", 1.0)),
                p=float(adapter_meta.get("p", 0.05)),
            )
            r = adapter_meta.get("r", adapter.r)
            if r != adapter.r:
                raise UsageError(
                    f"layer {name!r}: adapter meta gives r = {r}, "
                    f"but its factors have rank {adapter.r}"
                )
            adapters[name] = adapter
    masked = {name for name in names if f"{name}.mask" in store}
    return _Layers(store, names, meta, pattern, masked, adapters)


def _load_layers(layers: _Layers):
    """Every layer, held at once, and the ToyNet the meta's topology makes of them.

    The net takes the topology's layers in its order, or every layer in
    store order if it names none.  Also returns the layers by name: a
    PrunedLayer for each layer of the net and each layer with a mask, the
    same one the net trains, and the dense weight of any other.
    """
    topology = layers.meta.get("net", {})
    entries = topology.get("layers") or [{"name": name} for name in layers.names]
    unknown = [entry["name"] for entry in entries if entry["name"] not in layers.names]
    if unknown:
        raise UsageError(f"net topology names unknown layer {unknown[0]!r}")
    in_net = {entry["name"] for entry in entries}
    held = {}
    for name in layers.names:
        weight, mask = layers.load(name)
        held[name] = weight if mask is None and name not in in_net else _pruned(name, weight, mask)
    net = ToyNet([NetLayer(layer=held[entry["name"]],
                           adapter=layers.adapters.get(entry["name"]),
                           activation=entry.get("activation", "identity"))
                  for entry in entries], loss=topology.get("loss", "mse"))
    return net, held


def _output(names: list[str], layer, adapters: dict, meta: dict):
    """The (name, array) pairs of an output store, each layer made as it is written.

    ``layer(name)`` gives each of ``names`` in turn: a PrunedLayer, written
    kept-encoded with its mask, or a dense weight without one, written raw.
    Then come each adapter's factors, by layer, and last the meta.
    """
    for name in names:
        held = layer(name)
        if isinstance(held, PrunedLayer):
            held = held.values, held.mask.mask
        yield name, held
        del held  # so the next layer is made without this one held
    for name, adapter in adapters.items():
        for key, factor in zip(_factor_keys(name, adapter), adapter.factors):
            yield key, getattr(adapter, factor)
    yield META_NAME, encode_meta(meta)


# ---------------------------------------------------------------------------
# subcommands


def cmd_prune(args) -> int:
    store = _read_store(args.input)
    pattern = parse_pattern(args.pattern, args.ratio)
    if args.row_wise and not isinstance(pattern, Unstructured):
        raise UsageError("--row-wise applies to unstructured pruning only")
    if args.metric == "wanda" and args.calib is None:
        raise UsageError("--metric wanda requires --calib")

    calib = _read_store(args.calib) if args.metric == "wanda" else None
    names = _layer_names(store)
    meta = _store_meta(store)
    for name in names if calib is not None else ():
        if name not in calib:
            raise UsageError(f"calibration store has no activations for {name!r}")

    meta.update({"pattern": pattern.label(), "ratio": pattern.ratio})
    meta.pop("adapter", None)

    lines = []

    def prune(name):
        weight = store.pop(name)
        if calib is not None:
            scores = score_wanda(weight, collect_calibration(calib.pop(name)))
        else:
            scores = score_magnitude(weight)
        mask = build_mask(scores, pattern, row_wise=args.row_wise)
        del scores  # one weight-sized array fewer while the layer is masked
        layer = apply_mask(weight, mask)
        report = verify_mask(layer)
        lines.append(
            f"{name}: {weight.shape[0]}x{weight.shape[1]} pattern={report.label} "
            f"ratio={report.ratio:.4f} nnz={report.nnz}"
        )
        return layer

    store_write(_output(names, prune, {}, meta), args.output)
    for line in lines:
        print(line)
    return 0


def cmd_attach(args) -> int:
    layers = _index_layers(_read_store(args.input))
    names = layers.names
    missing = [name for name in names if name not in layers.masked]
    if missing:
        raise UsageError(
            f"store is not pruned (layers without masks: {', '.join(missing)})"
        )
    if layers.adapters:
        raise UsageError("store already carries adapters")
    if not (0.0 <= args.dropout < 1.0):
        raise UsageError(f"--dropout must lie in [0, 1), got {args.dropout}")
    if not math.isfinite(args.scale):
        raise UsageError(f"--scale must be a finite number, got {args.scale}")
    if args.r < 1:
        raise UsageError(f"--r must be >= 1, got {args.r}")

    shapes = {name: layers.store.spec(name)[1] for name in names}
    if args.kind == "spp":
        offenders = [
            f"{name} ({m}x{n})" for name, (m, n) in shapes.items() if m % args.r != 0
        ]
        if offenders:
            raise UsageError(
                f"--r {args.r} must divide the output rows; offending layers: "
                + ", ".join(offenders)
            )

    init = ADAPTERS[args.kind].init
    rng = Rng(_default_seed(args.seed))
    adapters = {
        name: init(*shapes[name], args.r, args.scale, args.dropout, rng) for name in names
    }
    full = [name for name in names if args.kind == "spp" and args.r == shapes[name][0]]

    trainable = sum(getattr(a, f).size for a in adapters.values() for f in a.factors)
    total = sum(m * n for m, n in shapes.values())
    per_mille = 1000.0 * trainable / total

    layers.meta["adapter"] = {
        "kind": args.kind,
        "r": args.r,
        "s": args.scale,
        "p": args.dropout,
    }

    def attach(name):
        return _pruned(name, *layers.load(name))

    store_write(_output(names, attach, adapters, layers.meta), args.output)
    print(f"trainable parameters: {trainable}")
    print(f"frozen parameters in store: {total}")
    print(f"per-mille: {per_mille:.4f}")
    for name in full:
        print(f"full-parameter mode (r = m) on layer {name!r}")
    return 0


def cmd_train(args) -> int:
    layers = _index_layers(_read_store(args.model))
    if args.baseline_eq3 and layers.adapters:
        raise UsageError("--baseline-eq3 expects a model without adapters")
    if not args.baseline_eq3 and not layers.adapters:
        raise UsageError(
            "model has no adapters; attach some or pass --baseline-eq3"
        )

    data = _read_store(args.data)
    for required in ("x", "y"):
        if required not in data:
            raise UsageError(f"data store is missing tensor {required!r}")
    x, y = data.get("x"), data.get("y")

    net, held = _load_layers(layers)
    cfg = TrainConfig(
        steps=args.steps,
        lr=args.lr,
        optimizer=args.optimizer,
        batch_size=args.batch_size,
        warmup_ratio=args.warmup_ratio,
        weight_decay=args.weight_decay,
        seed=_default_seed(args.seed),
    )

    # A digest of each frozen weight, not a copy, which would be held for the
    # whole run.  sha256 reads the array's buffer in place: 1.7 ms per 2 MiB.
    def digests():
        return {name: hashlib.sha256(layer.values).digest()
                for name, layer in held.items() if isinstance(layer, PrunedLayer)}

    frozen_before = None if args.baseline_eq3 else digests()
    try:
        _, record = train(net, (x, y), cfg)
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1

    if frozen_before is not None:
        changed = [name for name, d in digests().items() if d != frozen_before[name]]
        if changed:
            raise InternalInvariantError(
                f"frozen base weight {changed[0]!r} changed during adapter training"
            )

    store_write(_output(layers.names, held.get, layers.adapters, layers.meta), args.output)
    run_csv = args.run_csv or str(Path(args.output).with_suffix(".run.csv"))
    atomic_write(run_csv, [record.to_csv().encode("utf-8")])
    summary = record.summary()
    summary["nnz_before_merge"] = int(sum(
        np.count_nonzero(layer.values if isinstance(layer, PrunedLayer) else layer)
        for layer in held.values()
    ))
    print(json.dumps(summary, sort_keys=True))
    return 0


def _merged(name: str, layer: PrunedLayer, adapter, reprune: bool):
    """``layer`` with ``adapter``, if any, folded into its weight; prints what changed."""
    if adapter is None:
        return layer
    before = int(np.count_nonzero(layer.values))
    if isinstance(adapter, SppAdapter):
        merged = spp_merge(layer, adapter)
        print(f"{name}: merged multiplicative adapter, nnz {before} "
              f"-> {np.count_nonzero(merged.values)}")
        return merged
    dense = lora_merge_dense(layer, adapter)
    if reprune:
        merged = apply_mask(dense, layer.mask)
        after = int(np.count_nonzero(merged.values))
        print(f"{name}: low-rank merge repruned to original mask, nnz {before} -> {after}")
        return merged
    after = int(np.count_nonzero(dense))
    print(f"warning: {name}: low-rank merge densified the layer, nnz {before} -> {after}")
    return dense


def cmd_merge(args) -> int:
    layers = _index_layers(_read_store(args.model))
    if not layers.adapters:
        raise UsageError("model has no adapters to merge")

    reprune = args.reprune_with_original_mask
    # A low-rank merge without the reprune makes its layers dense.
    densified = not reprune and any(
        not isinstance(adapter, SppAdapter) for adapter in layers.adapters.values()
    )
    meta = layers.meta
    meta.pop("adapter", None)
    if densified:
        meta.pop("pattern", None)
        meta.pop("ratio", None)

    def merge(name):
        weight, mask = layers.load(name)
        adapter = layers.adapters.get(name)
        if adapter is None and mask is None:
            return weight
        return _merged(name, _pruned(name, weight, mask), adapter, reprune)

    store_write(_output(layers.names, merge, {}, meta), args.output)
    return 0


def _verify_layer(name: str, weight: np.ndarray, mask: SparseMask | None) -> bool:
    """Print the verification lines of one layer, as stored; returns whether it passed."""
    if mask is None:
        print(f"{name}: dense (no mask)")
        return True
    if weight.ndim == 2:  # stored raw, the one form that can break its mask
        with _layer_input(name):
            report = mask_report(mask, int(np.count_nonzero(weight)), off_mask(weight, mask))
    else:
        report = verify_mask(_pruned(name, weight, mask))
    status = "ok" if report.ok else "FAIL"
    print(
        f"{name}: pattern={report.label} ratio={report.ratio:.4f} "
        f"nnz={report.nnz} {status}"
    )
    if report.violations:
        shown = ", ".join(str(v) for v in report.violations[:5])
        more = len(report.violations) - 5
        tail = f" (+{more} more)" if more > 0 else ""
        print(f"  weight nonzero at masked positions: {shown}{tail}")
    if not report.pattern_ok:
        print(f"  mask does not satisfy pattern {report.label}")
    return report.ok


def cmd_verify(args) -> int:
    layers = _index_layers(_read_store(args.model))
    passed = [_verify_layer(name, *layers.load(name)) for name in layers.names]
    return 0 if all(passed) else 1


def cmd_count_params(args) -> int:
    path = Path(args.arch)
    if args.arch in ARCH_PRESETS:
        desc = ARCH_PRESETS[args.arch]
    elif not path.suffix == ".json":
        raise UsageError(
            f"--arch must be one of {sorted(ARCH_PRESETS)} or a .json file, "
            f"got {args.arch!r}"
        )
    else:
        try:
            desc = json.loads(path.read_text())
        except FileNotFoundError as exc:
            raise UsageError(f"no such file: {path}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: invalid JSON: {exc}") from exc
    try:
        shapes = [tuple(int(v) for v in pair) for pair in desc["shapes"]]
        blocks = int(desc["blocks"])
        extra = int(desc.get("extra_params", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path}: expected keys 'blocks' and 'shapes'") from exc
    try:
        trainable, total, per_mille = count_trainable(shapes, blocks, args.r, extra)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(f"trainable: {trainable}")
    print(f"total: {total}")
    print(f"per-mille: {per_mille:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser


# Each command's handler, looked up when the command runs: the cached parser
# holds names only, so a handler replaced here after it was built (as
# perfbench/tracing.py does) is the one that runs.
COMMANDS = {"prune": cmd_prune, "attach": cmd_attach, "train": cmd_train, "merge": cmd_merge,
            "verify": cmd_verify, "count-params": cmd_count_params}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``spp`` parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="spp",
        description="Prune dense layers, attach sparsity-preserving adapters, "
        "train, merge, and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prune", help="score and mask the layers of a store")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--pattern", required=True, help="'N:M' (e.g. 2:4) or 'unstructured'")
    p.add_argument("--ratio", type=float, default=0.5, help="zero fraction for unstructured")
    p.add_argument("--metric", choices=("magnitude", "wanda"), default="magnitude")
    p.add_argument("--calib", help="store of per-layer calibration activations")
    p.add_argument("--row-wise", action="store_true", help="rank unstructured scores per row")

    p = sub.add_parser("attach", help="add fresh adapters to a pruned store")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--r", type=int, required=True, help="row blocks (or low-rank width)")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--dropout", type=float, default=0.05)
    p.add_argument("--kind", choices=tuple(ADAPTERS), default="spp")
    p.add_argument("--seed", type=int, default=None, help="defaults to $SPP_SEED, then 0")

    p = sub.add_parser("train", help="train adapters (or masked weights) on a data store")
    p.add_argument("model")
    p.add_argument("data")
    p.add_argument("output")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--optimizer", choices=("sgd", "adamw"), default="adamw")
    p.add_argument("--warmup-ratio", type=float, default=0.03)
    p.add_argument("--weight-decay", type=float, default=0.001)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--seed", type=int, default=None, help="defaults to $SPP_SEED, then 0")
    p.add_argument("--run-csv", default=None, help="per-step log path")
    p.add_argument("--baseline-eq3", action="store_true",
                   help="retrain masked weights directly instead of adapters")

    p = sub.add_parser("merge", help="fold adapters into the weights")
    p.add_argument("model")
    p.add_argument("output")
    p.add_argument("--reprune-with-original-mask", action="store_true",
                   help="after a low-rank merge, re-impose the original mask")

    p = sub.add_parser("verify", help="check every mask and pattern in a store")
    p.add_argument("model")

    p = sub.add_parser("count-params", help="adapter parameter accounting")
    p.add_argument("--arch", required=True,
                   help=f"one of {sorted(ARCH_PRESETS)} or a custom .json")
    p.add_argument("--r", type=int, required=True)

    return parser


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc <malloc.h>


@functools.cache
def _keep_freed_heap() -> None:
    """Keep freed weight-sized buffers in the heap for the next command.

    Every command allocates and frees a few weight-sized arrays.  glibc's
    default thresholds adapt to past frees, so whether it hands the freed
    top of the heap back to the OS, and the next command faults every page
    in again, depends on where unrelated small allocations happened to land:
    repeated merges of two 512x512 layers in one process took 2,524 minor
    faults each or 1, from one run to the next.  Fixed thresholds (arrays
    up to 32 MiB from the heap, its top trimmed only past 64 MiB) make that
    the same every run.  Other C libraries are left as they are.

    Without it, in 8 alternating pairs of benchmark runs at ``--seconds 5``
    (2-core x86 VM, glibc, NumPy 2.4.6), ckpt-1024's ``prune_s`` went
    0.128 -> 0.174 s (+36%), ``attach_s`` +13% and ``wall_s`` +22%, slower
    in 8 of 8 pairs each, and ``merge_s`` +4.6%.  Only cli-512's ``wall_s``
    fell, by 3.8% (7 of 8 pairs), so it stays.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except (UsageError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant breached: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())
