"""Command-line pipeline: prune, attach, train, merge, verify, count-params.

Checkpoints are single-file tensor stores.  Weight matrices live under their
layer names; a pruned layer adds "<name>.mask" (uint8), adapters add
"<name>.spp.alpha"/"<name>.spp.beta" or "<name>.lora.a"/"<name>.lora.b", and
run-level settings ride the "__meta__" JSON tensor.

Exit codes: 0 success, 1 verification failure (or diverged training),
2 usage or input errors, 3 breach of an internal invariant.
"""

import argparse
import ctypes
import functools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adapters import (
    LoraAdapter,
    SppAdapter,
    lora_init,
    lora_merge_dense,
    spp_init,
    spp_merge,
)
from .errors import PatternError, ShapeError, StoreFormatError, TrainingDiverged
from .pruning import (
    NofM,
    PrunedLayer,
    SparseMask,
    Unstructured,
    apply_mask,
    build_mask,
    collect_calibration,
    parse_pattern,
    score_magnitude,
    score_wanda,
    verify_mask,
)
from .rng import Rng
from .store import META_NAME, TensorStore, atomic_write, store_read, store_write
from .training import (
    NetLayer,
    TrainConfig,
    ToyNet,
    count_trainable,
    train,
)

_RESERVED_SUFFIXES = (".mask", ".spp.alpha", ".spp.beta", ".lora.a", ".lora.b")

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


@dataclass
class LayerBundle:
    """One layer as loaded from a store."""

    name: str
    weight: np.ndarray
    mask: SparseMask | None
    adapter: SppAdapter | LoraAdapter | None

    def pruned(self) -> PrunedLayer:
        if self.mask is None:
            raise UsageError(f"layer {self.name!r} has no mask")
        return PrunedLayer(self.weight, self.mask)


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
    for name, arr in store.items():
        if name == META_NAME or name.endswith(_RESERVED_SUFFIXES):
            continue
        if arr.dtype == np.float64 and arr.ndim == 2:
            names.append(name)
    return names


def _mask_pattern(meta: dict):
    label = meta.get("pattern")
    ratio = meta.get("ratio", 0.5)
    if label is None or label == "dense":
        return None
    return parse_pattern(label, ratio)


def _load_layers(store: TensorStore) -> list[LayerBundle]:
    meta = store.meta()
    pattern = _mask_pattern(meta)
    adapter_meta = meta.get("adapter")
    bundles = []
    for name in _layer_names(store):
        weight = store.get(name)
        mask = None
        if f"{name}.mask" in store:
            raw = store.get(f"{name}.mask")
            pattern_here = pattern
            if pattern is None and raw.size:
                zeros = raw.size - int(np.count_nonzero(raw))
                pattern_here = Unstructured.matching(zeros, raw.size)
            mask = SparseMask(raw, pattern_here)
        adapter = None
        if adapter_meta is not None:
            kind = adapter_meta.get("kind")
            r = int(adapter_meta.get("r", 1))
            s = float(adapter_meta.get("s", 1.0))
            p = float(adapter_meta.get("p", 0.05))
            if kind == "spp" and f"{name}.spp.alpha" in store:
                adapter = SppAdapter(
                    alpha=store.get(f"{name}.spp.alpha"),
                    beta=store.get(f"{name}.spp.beta"),
                    r=r,
                    s=s,
                    p=p,
                )
            elif kind == "lora" and f"{name}.lora.a" in store:
                adapter = LoraAdapter(
                    a=store.get(f"{name}.lora.a"),
                    b=store.get(f"{name}.lora.b"),
                    s=s,
                    p=p,
                )
        bundles.append(LayerBundle(name=name, weight=weight, mask=mask, adapter=adapter))
    if not bundles:
        raise UsageError("store contains no layer matrices")
    return bundles


def _bundles_to_store(bundles: list[LayerBundle], meta: dict) -> TensorStore:
    out = TensorStore()
    for b in bundles:
        out.add(b.name, b.weight)
        if b.mask is not None:
            out.add(f"{b.name}.mask", b.mask.mask.view(np.uint8))
    for b in bundles:
        if isinstance(b.adapter, SppAdapter):
            out.add(f"{b.name}.spp.alpha", b.adapter.alpha)
            out.add(f"{b.name}.spp.beta", b.adapter.beta)
        elif isinstance(b.adapter, LoraAdapter):
            out.add(f"{b.name}.lora.a", b.adapter.a)
            out.add(f"{b.name}.lora.b", b.adapter.b)
    out.set_meta(meta)
    return out


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
    if not names:
        raise UsageError("store contains no layer matrices")

    bundles = []
    lines = []
    for name in names:
        weight = store.get(name)
        if args.metric == "wanda":
            if name not in calib:
                raise UsageError(f"calibration store has no activations for {name!r}")
            stats = collect_calibration(calib.get(name))
            scores = score_wanda(weight, stats)
        else:
            scores = score_magnitude(weight)
        mask = build_mask(scores, pattern, row_wise=args.row_wise)
        layer = apply_mask(weight, mask)
        report = verify_mask(layer)
        bundles.append(LayerBundle(name=name, weight=layer.weight, mask=mask, adapter=None))
        lines.append(
            f"{name}: {weight.shape[0]}x{weight.shape[1]} pattern={report.label} "
            f"ratio={report.ratio:.4f} nnz={report.nnz}"
        )

    if isinstance(pattern, NofM):
        ratio = 1.0 - pattern.n_keep / pattern.m_group
    else:
        ratio = pattern.ratio
    meta = store.meta()
    meta.update({"pattern": pattern.label(), "ratio": ratio})
    meta.pop("adapter", None)
    store_write(_bundles_to_store(bundles, meta), args.output)
    for line in lines:
        print(line)
    return 0


def cmd_attach(args) -> int:
    store = _read_store(args.input)
    bundles = _load_layers(store)
    missing = [b.name for b in bundles if b.mask is None]
    if missing:
        raise UsageError(
            f"store is not pruned (layers without masks: {', '.join(missing)})"
        )
    if any(b.adapter is not None for b in bundles):
        raise UsageError("store already carries adapters")
    if not (0.0 <= args.dropout < 1.0):
        raise UsageError(f"--dropout must lie in [0, 1), got {args.dropout}")
    if args.r < 1:
        raise UsageError(f"--r must be >= 1, got {args.r}")

    if args.kind == "spp":
        offenders = [
            f"{b.name} ({b.weight.shape[0]}x{b.weight.shape[1]})"
            for b in bundles
            if b.weight.shape[0] % args.r != 0
        ]
        if offenders:
            raise UsageError(
                f"--r {args.r} must divide the output rows; offending layers: "
                + ", ".join(offenders)
            )

    rng = Rng(_default_seed(args.seed))
    full = []
    for b in bundles:
        m, n = b.weight.shape
        if args.kind == "spp":
            b.adapter = spp_init(m, n, args.r, args.scale, args.dropout, rng)
            if args.r == m:
                full.append(b.name)
        else:
            b.adapter = lora_init(m, n, args.r, args.scale, args.dropout, rng)

    shapes = [tuple(b.weight.shape) for b in bundles]
    if args.kind == "spp":
        trainable, total, per_mille = count_trainable(shapes, 1, args.r)
    else:
        trainable = sum(args.r * (m + n) for m, n in shapes)
        total = sum(m * n for m, n in shapes)
        per_mille = 1000.0 * trainable / total

    meta = store.meta()
    meta["adapter"] = {
        "kind": args.kind,
        "r": args.r,
        "s": args.scale,
        "p": args.dropout,
    }
    store_write(_bundles_to_store(bundles, meta), args.output)
    print(f"trainable parameters: {trainable}")
    print(f"frozen parameters in store: {total}")
    print(f"per-mille: {per_mille:.4f}")
    for name in full:
        print(f"full-parameter mode (r = m) on layer {name!r}")
    return 0


def _build_net(bundles: list[LayerBundle], meta: dict) -> tuple[ToyNet, list[LayerBundle]]:
    """Assemble a ToyNet; also returns the bundles in net layer order."""
    topology = meta.get("net", {})
    loss = topology.get("loss", "mse")
    spec_by_name = {
        entry["name"]: entry.get("activation", "identity")
        for entry in topology.get("layers", [])
    }
    order = [e["name"] for e in topology.get("layers", [])] or [b.name for b in bundles]
    by_name = {b.name: b for b in bundles}
    layers = []
    ordered = []
    for name in order:
        if name not in by_name:
            raise UsageError(f"net topology names unknown layer {name!r}")
        b = by_name[name]
        ordered.append(b)
        layers.append(
            NetLayer(
                layer=b.pruned(),
                adapter=b.adapter,
                activation=spec_by_name.get(name, "identity"),
            )
        )
    return ToyNet(layers, loss=loss), ordered


def cmd_train(args) -> int:
    store = _read_store(args.model)
    bundles = _load_layers(store)
    has_adapters = any(b.adapter is not None for b in bundles)
    if args.baseline_eq3 and has_adapters:
        raise UsageError("--baseline-eq3 expects a model without adapters")
    if not args.baseline_eq3 and not has_adapters:
        raise UsageError(
            "model has no adapters; attach some or pass --baseline-eq3"
        )

    data = _read_store(args.data)
    for required in ("x", "y"):
        if required not in data:
            raise UsageError(f"data store is missing tensor {required!r}")
    x, y = data.get("x"), data.get("y")

    meta = store.meta()
    net, ordered = _build_net(bundles, meta)
    cfg = TrainConfig(
        steps=args.steps,
        lr=args.lr,
        optimizer=args.optimizer,
        batch_size=args.batch_size,
        warmup_ratio=args.warmup_ratio,
        weight_decay=args.weight_decay,
        seed=_default_seed(args.seed),
        fixed_mask_baseline=args.baseline_eq3,
    )

    frozen_before = None
    if not args.baseline_eq3:
        frozen_before = {b.name: b.weight.tobytes() for b in bundles}

    try:
        _, record = train(net, (x, y), cfg)
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1

    if frozen_before is not None:
        for nl, b in zip(net.layers, ordered):
            if nl.layer.weight.tobytes() != frozen_before[b.name]:
                raise InternalInvariantError(
                    f"frozen base weight {b.name!r} changed during adapter training"
                )

    # Push trained state back into the bundles (training replaces the
    # adapter factors, or in baseline mode the weights, with new arrays).
    for nl, b in zip(net.layers, ordered):
        b.weight = nl.layer.weight
        b.adapter = nl.adapter

    store_write(_bundles_to_store(bundles, meta), args.output)
    run_csv = args.run_csv or str(Path(args.output).with_suffix(".run.csv"))
    atomic_write(run_csv, [record.to_csv().encode("utf-8")])
    summary = record.summary()
    summary["nnz_before_merge"] = int(
        sum(np.count_nonzero(b.weight) for b in bundles)
    )
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_merge(args) -> int:
    store = _read_store(args.model)
    bundles = _load_layers(store)
    if all(b.adapter is None for b in bundles):
        raise UsageError("model has no adapters to merge")

    meta = store.meta()
    kind = meta.get("adapter", {}).get("kind")
    dense_output = False
    for b in bundles:
        if b.adapter is None:
            continue
        before = int(np.count_nonzero(b.weight))
        if isinstance(b.adapter, SppAdapter):
            merged = spp_merge(b.pruned(), b.adapter)
            report = verify_mask(merged)
            if report.violations:
                raise InternalInvariantError(
                    f"merge broke the mask of {b.name!r} at {report.violations[:3]}"
                )
            b.weight = merged.weight
            after = report.nnz
            print(f"{b.name}: merged multiplicative adapter, nnz {before} -> {after}")
        else:
            dense = lora_merge_dense(b.pruned(), b.adapter)
            if args.reprune_with_original_mask:
                repruned = apply_mask(dense, b.mask)
                b.weight = repruned.weight
                after = int(np.count_nonzero(b.weight))
                print(
                    f"{b.name}: low-rank merge repruned to original mask, "
                    f"nnz {before} -> {after}"
                )
            else:
                b.weight = dense
                b.mask = None
                dense_output = True
                after = int(np.count_nonzero(dense))
                print(
                    f"warning: {b.name}: low-rank merge densified the layer, "
                    f"nnz {before} -> {after}"
                )
        b.adapter = None

    meta.pop("adapter", None)
    if dense_output:
        meta.pop("pattern", None)
        meta.pop("ratio", None)
    store_write(_bundles_to_store(bundles, meta), args.output)
    return 0


def cmd_verify(args) -> int:
    store = _read_store(args.model)
    bundles = _load_layers(store)
    all_ok = True
    for b in bundles:
        if b.mask is None:
            print(f"{b.name}: dense (no mask)")
            continue
        report = verify_mask(b.pruned())
        status = "ok" if report.ok else "FAIL"
        print(
            f"{b.name}: pattern={report.label} ratio={report.ratio:.4f} "
            f"nnz={report.nnz} {status}"
        )
        if report.violations:
            shown = ", ".join(str(v) for v in report.violations[:5])
            more = len(report.violations) - 5
            tail = f" (+{more} more)" if more > 0 else ""
            print(f"  weight nonzero at masked positions: {shown}{tail}")
        if not report.pattern_ok:
            print(f"  mask does not satisfy pattern {report.label}")
        all_ok = all_ok and report.ok
    return 0 if all_ok else 1


def cmd_count_params(args) -> int:
    if args.arch in ARCH_PRESETS:
        preset = ARCH_PRESETS[args.arch]
        shapes = preset["shapes"]
        blocks = preset["blocks"]
        extra = preset["extra_params"]
    else:
        path = Path(args.arch)
        if not path.suffix == ".json":
            raise UsageError(
                f"--arch must be one of {sorted(ARCH_PRESETS)} or a .json file, "
                f"got {args.arch!r}"
            )
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
    except (PatternError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    print(f"trainable: {trainable}")
    print(f"total: {total}")
    print(f"per-mille: {per_mille:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("attach", help="add fresh adapters to a pruned store")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--r", type=int, required=True, help="row blocks (or low-rank width)")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--dropout", type=float, default=0.05)
    p.add_argument("--kind", choices=("spp", "lora"), default="spp")
    p.add_argument("--seed", type=int, default=None, help="defaults to $SPP_SEED, then 0")
    p.set_defaults(func=cmd_attach)

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
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("merge", help="fold adapters into the weights")
    p.add_argument("model")
    p.add_argument("output")
    p.add_argument("--reprune-with-original-mask", action="store_true",
                   help="after a low-rank merge, re-impose the original mask")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("verify", help="check every mask and pattern in a store")
    p.add_argument("model")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("count-params", help="adapter parameter accounting")
    p.add_argument("--arch", required=True,
                   help=f"one of {sorted(ARCH_PRESETS)} or a custom .json")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_count_params)

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
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StoreFormatError, PatternError, ShapeError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant breached: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())
