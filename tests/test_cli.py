import argparse
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import spp
from spp import Rng, TensorStore, store_read, store_write
from spp.adapters import ADAPTERS
from spp.cli import _index_layers, _keep_freed_heap, _load_layers, _output, main
from spp.store import META_NAME, encode_meta

from helpers import peak_transient_bytes, rand_matrix


def write_weights(path, layers, meta=None):
    st = TensorStore()
    for name, arr in layers.items():
        st.add(name, arr)
    if meta is not None:
        st.set_meta(meta)
    store_write(st, path)
    return str(path)


def make_dense(tmp_path, shapes=None, seed=7):
    rng = Rng(seed)
    shapes = shapes or {"a": (8, 8), "b": (8, 8)}
    layers = {name: rand_matrix(rng, m, n) for name, (m, n) in shapes.items()}
    return write_weights(tmp_path / "dense.spp", layers)


def make_data(tmp_path, n=8, m=8, rows=64, seed=9):
    rng = Rng(seed)
    x = rng.uniform(-1.0, 1.0, rows, n)
    w = rng.uniform(-1.0, 1.0, m, n)
    y = x @ w.T
    return write_weights(tmp_path / "data.spp", {"x": x, "y": y})


def pruned_store(tmp_path, **kw):
    dense = make_dense(tmp_path, **kw)
    out = str(tmp_path / "pruned.spp")
    assert main(["prune", dense, out, "--pattern", "2:4"]) == 0
    return out


def attached_store(tmp_path, r=4, extra=(), **kw):
    pruned = pruned_store(tmp_path, **kw)
    out = str(tmp_path / "attached.spp")
    assert main(["attach", pruned, out, "--r", str(r), "--seed", "1", *extra]) == 0
    return out


# ---------------------------------------------------------------------------
# prune


def test_prune_reports_and_writes_masks(tmp_path, capsys):
    dense = make_dense(tmp_path)
    out = str(tmp_path / "out.spp")
    assert main(["prune", dense, out, "--pattern", "2:4"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "a: 8x8 pattern=2:4 ratio=0.5000 nnz=32"
    assert lines[1] == "b: 8x8 pattern=2:4 ratio=0.5000 nnz=32"
    st = store_read(out)
    assert st.get("a.mask").dtype == np.uint8
    assert st.meta()["pattern"] == "2:4"
    assert st.meta()["ratio"] == 0.5
    assert main(["verify", out]) == 0


def test_prune_unstructured_ratio_and_row_wise(tmp_path, capsys):
    dense = make_dense(tmp_path)
    out = str(tmp_path / "out.spp")
    assert main(["prune", dense, out, "--pattern", "unstructured", "--ratio", "0.75"]) == 0
    assert "ratio=0.7500 nnz=16" in capsys.readouterr().out
    assert (
        main(
            [
                "prune", dense, out,
                "--pattern", "unstructured", "--ratio", "0.75", "--row-wise",
            ]
        )
        == 0
    )
    st = store_read(out)
    mask = st.get("a.mask")
    assert all(row.sum() == 2 for row in mask)  # 8 cols, keep 2 per row
    # the flag is meaningless for N:M
    assert main(["prune", dense, out, "--pattern", "2:4", "--row-wise"]) == 2


def test_prune_wanda_uses_calibration(tmp_path, capsys):
    w = np.array([[1.0, 2.0]])
    dense = write_weights(tmp_path / "d.spp", {"w": w})
    out_mag = str(tmp_path / "mag.spp")
    out_wanda = str(tmp_path / "wanda.spp")
    assert main(["prune", dense, out_mag, "--pattern", "unstructured", "--ratio", "0.5"]) == 0
    assert store_read(out_mag).get("w").tolist() == [[0.0, 2.0]]

    # activations make column 0 loud, flipping the keep decision
    calib = write_weights(tmp_path / "c.spp", {"w": np.array([[10.0, 0.1]])})
    assert (
        main(
            [
                "prune", dense, out_wanda,
                "--pattern", "unstructured", "--ratio", "0.5",
                "--metric", "wanda", "--calib", calib,
            ]
        )
        == 0
    )
    assert store_read(out_wanda).get("w").tolist() == [[1.0, 0.0]]


def test_prune_wanda_needs_calibration(tmp_path, capsys):
    dense = make_dense(tmp_path)
    out = str(tmp_path / "out.spp")
    assert main(["prune", dense, out, "--pattern", "2:4", "--metric", "wanda"]) == 2
    assert "--calib" in capsys.readouterr().err
    # calibration store missing a layer is also a usage error
    calib = write_weights(tmp_path / "c.spp", {"a": np.ones((4, 8))})
    code = main(
        ["prune", dense, out, "--pattern", "2:4", "--metric", "wanda", "--calib", calib]
    )
    assert code == 2


def test_prune_checks_the_meta_before_any_layer(tmp_path, capsys, monkeypatch):
    dense = make_dense(tmp_path)
    _set_meta(dense, ratio="half")

    def refuse(*args, **kwargs):
        raise AssertionError("a layer was pruned before the meta was checked")

    monkeypatch.setattr(spp.cli, "build_mask", refuse)
    out = tmp_path / "out.spp"
    assert main(["prune", dense, str(out), "--pattern", "2:4"]) == 2
    assert "meta 'ratio'" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# attach


def test_attach_reports_counts(tmp_path, capsys):
    pruned = pruned_store(tmp_path)
    out = str(tmp_path / "ad.spp")
    assert main(["attach", pruned, out, "--r", "4", "--seed", "0"]) == 0
    text = capsys.readouterr().out
    # per 8x8 layer: 8 + 4 * 8 = 40 trainable of 64
    assert "trainable parameters: 80" in text
    assert "frozen parameters in store: 128" in text
    assert "per-mille: 625.0000" in text
    st = store_read(out)
    assert "a.spp.alpha" in st and "b.spp.beta" in st
    assert st.meta()["adapter"]["kind"] == "spp"
    assert st.get("a.spp.beta").tolist() == [[0.0]] * 8


def test_attach_full_parameter_note_and_errors(tmp_path, capsys):
    pruned = pruned_store(tmp_path)
    out = str(tmp_path / "ad.spp")
    assert main(["attach", pruned, out, "--r", "8", "--seed", "0"]) == 0
    assert "full-parameter mode (r = m)" in capsys.readouterr().out

    assert main(["attach", pruned, out, "--r", "5", "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert "a (8x8)" in err and "b (8x8)" in err

    dense = make_dense(tmp_path)
    assert main(["attach", dense, out, "--r", "4"]) == 2
    assert "without masks" in capsys.readouterr().err

    attached = attached_store(tmp_path)
    assert main(["attach", attached, out, "--r", "4"]) == 2
    assert "already carries adapters" in capsys.readouterr().err

    assert main(["attach", pruned, out, "--r", "4", "--dropout", "1.5"]) == 2


def test_attach_lora_layout(tmp_path, capsys):
    pruned = pruned_store(tmp_path)
    out = str(tmp_path / "lo.spp")
    assert main(["attach", pruned, out, "--r", "2", "--kind", "lora", "--seed", "0"]) == 0
    # lora budget: r * (m + n) per layer
    assert "trainable parameters: 64" in capsys.readouterr().out
    st = store_read(out)
    assert st.get("a.lora.a").shape == (2, 8)
    assert st.get("a.lora.b").shape == (8, 2)
    assert np.all(st.get("a.lora.b") == 0.0)
    assert st.meta()["adapter"]["kind"] == "lora"


def test_attach_seed_determinism_and_env_fallback(tmp_path, monkeypatch):
    pruned = pruned_store(tmp_path)
    a, b, c = (str(tmp_path / f"{k}.spp") for k in "abc")
    assert main(["attach", pruned, a, "--r", "4", "--seed", "3"]) == 0
    assert main(["attach", pruned, b, "--r", "4", "--seed", "3"]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()

    monkeypatch.setenv("SPP_SEED", "3")
    assert main(["attach", pruned, c, "--r", "4"]) == 0
    assert open(a, "rb").read() == open(c, "rb").read()

    monkeypatch.setenv("SPP_SEED", "not-a-number")
    assert main(["attach", pruned, c, "--r", "4"]) == 2


@pytest.mark.parametrize("kind", sorted(ADAPTERS))
def test_adapter_table_round_trips_every_kind(tmp_path, kind):
    attached = attached_store(tmp_path, r=2, extra=("--kind", kind))
    st = store_read(attached)
    layers = _index_layers(st)
    # no factor tensor is mistaken for a layer
    assert layers.names == ["a", "b"]
    cls = ADAPTERS[kind]
    for name, adapter in layers.adapters.items():
        assert type(adapter) is cls and adapter.r == 2
        for f in cls.factors:
            stored, loaded = st.get(f"{name}.{kind}.{f}"), getattr(adapter, f)
            assert loaded.shape == stored.shape and loaded.tobytes() == stored.tobytes()
    net, held = _load_layers(layers)
    again = str(tmp_path / "again.spp")
    store_write(_output(layers.names, held.get, layers.adapters, layers.meta), again)
    assert open(again, "rb").read() == open(attached, "rb").read()

    pred, caches = spp.net_forward(net, rand_matrix(Rng(3), 4, 8), rng=Rng(4), training=True)
    grads = spp.net_backward(net, caches, np.ones_like(pred))
    for nl, g in zip(net.layers, grads):
        for f in cls.factors:
            assert getattr(g, f"d_{f}").shape == getattr(nl.adapter, f).shape


@pytest.mark.parametrize("kind", sorted(ADAPTERS))
def test_adapter_meta_rank_must_match_factors(tmp_path, capsys, kind):
    attached = attached_store(tmp_path, r=2, extra=("--kind", kind))
    st = store_read(attached)
    meta = st.meta()
    meta["adapter"]["r"] = 4
    st.set_meta(meta)
    store_write(st, attached)
    assert main(["verify", attached]) == 2
    assert "layer 'a'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "merge"])
@pytest.mark.parametrize("key,value", [("s", None), ("p", [1])])
def test_malformed_adapter_meta_exits_2_naming_the_key(tmp_path, capsys, command, key, value):
    attached = attached_store(tmp_path)
    st = store_read(attached)
    meta = st.meta()
    meta["adapter"][key] = value
    st.set_meta(meta)
    store_write(st, attached)
    argv = [command, attached] + ([str(tmp_path / "merged.spp")] if command == "merge" else [])
    assert main(argv) == 2
    assert f"adapter meta {key!r}" in capsys.readouterr().err


def _set_meta(path, **changes):
    st = store_read(path)
    st.set_meta({**st.meta(), **changes})
    store_write(st, path)


def _argv(command, model, tmp_path):
    """argv running ``command`` on ``model``, with a data store for train."""
    out = str(tmp_path / "out.spp")
    if command == "train":
        return ["train", model, make_data(tmp_path), out, "--steps", "1"]
    return {
        "prune": ["prune", model, out, "--pattern", "2:4"],
        "attach": ["attach", model, out, "--r", "2"],
        "merge": ["merge", model, out],
        "verify": ["verify", model],
    }[command]


@pytest.mark.parametrize("command,changes,named", [
    ("verify", {"pattern": 5}, "meta 'pattern'"),
    ("verify", {"pattern": "unstructured", "ratio": None}, "meta 'ratio'"),
    ("train", {"net": [1]}, "meta 'net'"),
    ("train", {"net": {"layers": "abc"}}, "net meta 'layers'"),
    ("train", {"net": {"layers": [{"name": "a"}, {"name": "a"}]}}, "net meta 'layers'"),
    ("merge", {"adapter": "spp"}, "meta 'adapter'"),
    ("verify", {"adapter": {"kind": "spp", "r": "2"}}, "adapter meta 'r'"),
    ("verify", {"adapter": {"kind": ["spp"]}}, "adapter meta 'kind'"),
])
def test_malformed_meta_exits_2_naming_the_key(tmp_path, capsys, command, changes, named):
    attached = attached_store(tmp_path, r=2)
    _set_meta(attached, **changes)
    assert main(_argv(command, attached, tmp_path)) == 2
    assert named in capsys.readouterr().err


def test_meta_that_is_not_an_object_exits_2(tmp_path, capsys):
    attached = attached_store(tmp_path)
    st = store_read(attached)
    st.set_meta([1])
    store_write(st, attached)
    assert main(["verify", attached]) == 2
    assert "meta '__meta__'" in capsys.readouterr().err


_JSON = hst.recursive(
    hst.none() | hst.booleans() | hst.integers() | hst.floats() | hst.text(max_size=6),
    lambda kids: hst.lists(kids, max_size=3) | hst.dictionaries(hst.text(max_size=6), kids, max_size=3),
    max_leaves=8,
)
# Values that parse, so that the checks past the type checks run too.
_PLAUSIBLE = hst.sampled_from([
    "2:4", "1:2", "3:4", "0:4", "unstructured", "dense", "a", "b", "relu", "identity",
    "mse", "cross_entropy", "spp", "lora", 0.5, 0.75, 1.5, 2, 4, 0, -1,
    [{"name": "a"}], [{"name": "b"}, {"name": "a"}], [{"name": "b", "activation": "relu"}],
    {"kind": "lora", "r": 2}, {"kind": "spp"}, {},
])
_META_KEYS = [
    ("pattern",), ("ratio",), ("net",), ("net", "layers"), ("net", "loss"),
    ("net", "layers", 0, "name"), ("net", "layers", 0, "activation"),
    ("adapter",), ("adapter", "kind"), ("adapter", "r"), ("adapter", "s"), ("adapter", "p"),
]


@pytest.fixture(scope="module")
def meta_case_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("meta")
    attached = attached_store(tmp, r=2)
    _set_meta(attached, net={"loss": "mse", "layers": [{"name": "a", "activation": "relu"},
                                                       {"name": "b"}]})
    make_data(tmp)
    return tmp


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    command=hst.sampled_from(["prune", "attach", "train", "merge", "verify"]),
    key=hst.sampled_from(_META_KEYS),
    value=_PLAUSIBLE | _JSON,
)
def test_any_meta_value_exits_0_1_or_2(meta_case_dir, command, key, value):
    store = store_read(meta_case_dir / "attached.spp")
    meta = store.meta()
    parent = meta
    for part in key[:-1]:
        parent = parent[part]
    parent[key[-1]] = value
    store.set_meta(meta)
    case = str(meta_case_dir / "case.spp")
    store_write(store, case)
    with np.errstate(all="ignore"):
        assert main(_argv(command, case, meta_case_dir)) in (0, 1, 2)


# ---------------------------------------------------------------------------
# train


def test_train_zero_steps_roundtrips_bytes(tmp_path, capsys):
    attached = attached_store(tmp_path)
    data = make_data(tmp_path)
    out = str(tmp_path / "t.spp")
    assert main(["train", attached, data, out, "--steps", "0"]) == 0
    assert open(attached, "rb").read() == open(out, "rb").read()
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert summary["recorded_steps"] == 0


def test_train_runs_and_logs(tmp_path, capsys):
    attached = attached_store(tmp_path)
    data = make_data(tmp_path)
    out = str(tmp_path / "t.spp")
    assert main(["train", attached, data, out, "--steps", "20", "--seed", "5"]) == 0
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert summary["recorded_steps"] == 20
    assert "train_loss" in summary and "nnz_before_merge" in summary

    csv_path = tmp_path / "t.run.csv"
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "step,lr,loss"
    assert len(lines) == 21

    # adapters moved, base weights did not
    st_in, st_out = store_read(attached), store_read(out)
    assert not np.array_equal(st_in.get("a.spp.beta"), st_out.get("a.spp.beta"))
    assert st_in.get("a").tobytes() == st_out.get("a").tobytes()
    assert st_in.get("a.mask").tobytes() == st_out.get("a.mask").tobytes()


def test_train_is_deterministic_across_runs(tmp_path):
    attached = attached_store(tmp_path)
    data = make_data(tmp_path)
    outs = []
    for k in range(2):
        out = str(tmp_path / f"t{k}.spp")
        csv = str(tmp_path / f"t{k}.csv")
        assert (
            main(
                ["train", attached, data, out, "--steps", "15", "--seed", "5",
                 "--run-csv", csv]
            )
            == 0
        )
        outs.append((open(out, "rb").read(), open(csv).read()))
    assert outs[0] == outs[1]


def test_train_baseline_mode(tmp_path, capsys):
    pruned = pruned_store(tmp_path)
    data = make_data(tmp_path)
    out = str(tmp_path / "t.spp")
    code = main(
        ["train", pruned, data, out, "--steps", "15", "--baseline-eq3", "--seed", "1"]
    )
    assert code == 0
    st_in, st_out = store_read(pruned), store_read(out)
    assert not np.array_equal(st_in.get("a"), st_out.get("a"))  # weights moved
    assert main(["verify", out]) == 0  # but zeros stayed zero

    attached = attached_store(tmp_path)
    assert main(["train", attached, data, out, "--steps", "1", "--baseline-eq3"]) == 2
    assert main(["train", pruned, data, out, "--steps", "1"]) == 2
    err = capsys.readouterr().err
    assert "--baseline-eq3" in err


def test_train_divergence_exits_1(tmp_path, capsys):
    attached = attached_store(tmp_path)
    data = make_data(tmp_path)
    out = str(tmp_path / "t.spp")
    with np.errstate(all="ignore"):
        code = main(
            ["train", attached, data, out, "--steps", "50",
             "--optimizer", "sgd", "--lr", "1e150"]
        )
    assert code == 1
    assert "diverged" in capsys.readouterr().err


def test_two_layer_adamw_divergence_exits_1(tmp_path, capsys):
    # The update makes the first layer's output non-finite, so the second
    # layer's input is what fails first, not the loss; that input is this
    # run's own activation, not the data.
    attached = attached_store(tmp_path)
    _set_meta(attached, net={"loss": "mse", "layers": [{"name": "a", "activation": "relu"},
                                                       {"name": "b"}]})
    data = make_data(tmp_path)
    out = tmp_path / "t.spp"
    capsys.readouterr()
    with np.errstate(all="ignore"):
        code = main(["train", attached, data, str(out), "--steps", "2", "--lr", "1e308"])
    assert code == 1
    assert "diverged" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--lr", "--weight-decay"])
def test_train_rejects_a_negative_rate(tmp_path, capsys, flag):
    attached = attached_store(tmp_path)
    data = make_data(tmp_path)
    out = tmp_path / "t.spp"
    capsys.readouterr()
    assert main(["train", attached, data, str(out), "--steps", "1", f"{flag}=-1"]) == 2
    name = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == f"error: {name} must be >= 0, got -1.0\n"
    assert not out.exists() and not out.with_suffix(".run.csv").exists()


@pytest.mark.parametrize("missing", ["output", "run_csv"])
def test_train_into_a_missing_directory_exits_2_before_it_trains(tmp_path, capsys,
                                                                 monkeypatch, missing):
    attached = attached_store(tmp_path)
    data = make_data(tmp_path)
    paths = {"output": tmp_path / "t.spp", "run_csv": tmp_path / "t.csv"}
    paths[missing] = tmp_path / "nowhere" / "x.out"
    monkeypatch.setattr(spp.cli, "train", lambda *a: pytest.fail("train ran"))
    capsys.readouterr()
    argv = ["train", attached, data, str(paths["output"]), "--steps", "3",
            "--run-csv", str(paths["run_csv"])]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: '{paths[missing]}'\n"
    assert not any(p.exists() for p in paths.values())


def test_train_missing_data_tensors(tmp_path, capsys):
    attached = attached_store(tmp_path)
    rng = Rng(0)
    bad = write_weights(tmp_path / "bad.spp", {"x": rand_matrix(rng, 4, 8)})
    assert main(["train", attached, bad, str(tmp_path / "t.spp"), "--steps", "1"]) == 2
    assert "'y'" in capsys.readouterr().err


def test_train_exits_3_when_a_frozen_weight_changes(tmp_path, capsys, monkeypatch):
    attached = attached_store(tmp_path)
    data = make_data(tmp_path)
    forward = spp.training._FORWARDS[spp.SppAdapter]

    def forward_writing_the_weight(x, layer, adapter, **kw):
        layer.values *= 2.0  # in place; zeros stay zero
        return forward(x, layer, adapter, **kw)

    monkeypatch.setitem(spp.training._FORWARDS, spp.SppAdapter, forward_writing_the_weight)
    out = tmp_path / "t.spp"
    assert main(["train", attached, data, str(out), "--steps", "2"]) == 3
    assert "frozen base weight 'a' changed" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".run.csv").exists()


def test_train_holds_no_copy_of_the_frozen_weights(tmp_path, capsys):
    m = 256
    dense = make_dense(tmp_path, shapes={"a": (m, m), "b": (m, m)})
    pruned, attached = str(tmp_path / "pruned.spp"), str(tmp_path / "attached.spp")
    assert main(["prune", dense, pruned, "--pattern", "2:4"]) == 0
    assert main(["attach", pruned, attached, "--r", "4"]) == 0
    data = make_data(tmp_path, n=m, m=m, rows=32)
    out = str(tmp_path / "t.spp")
    # With no steps the run holds the two stores it read, decoded, and
    # nothing else of weight size, yet still checks the frozen weights
    # before and after.  A copy of them would add 2 * m * m * 8 bytes.
    held = sum(arr.nbytes for path in (attached, data) for _, arr in store_read(path).items())
    argv = ["train", attached, data, out, "--steps", "0"]
    assert peak_transient_bytes(main, argv) < held + m * m * 8


def test_load_layers_honors_meta_topology(tmp_path):
    attached = attached_store(tmp_path)
    entries = [{"name": "b", "activation": "relu"}, {"name": "a"}]
    layers = _index_layers(store_read(attached))
    layers.meta["net"] = {"loss": "mse", "layers": entries}
    net, held = _load_layers(layers)
    assert [nl.adapter for nl in net.layers] == [layers.adapters["b"], layers.adapters["a"]]
    assert net.layers[0].layer is held["b"]
    assert net.layers[0].activation == "relu"
    assert net.layers[1].activation == "identity"
    layers = _index_layers(store_read(attached))
    layers.meta["net"] = {"layers": [*entries, {"name": "ghost"}]}
    with pytest.raises(Exception, match="ghost"):
        _load_layers(layers)


@pytest.mark.parametrize("baseline", [False, True])
def test_train_writes_layers_outside_the_topology_unchanged(tmp_path, capsys, baseline):
    model = pruned_store(tmp_path) if baseline else attached_store(tmp_path)
    _set_meta(model, net={"layers": [{"name": "b"}]})
    out = str(tmp_path / "t.spp")
    argv = ["train", model, make_data(tmp_path), out, "--steps", "5", "--seed", "2"]
    assert main(argv + ["--baseline-eq3"] * baseline) == 0
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    st_in, st_out = store_read(model), store_read(out)
    for key in ("a", "a.mask", "b.mask"):
        assert st_out.get(key).tobytes() == st_in.get(key).tobytes()
    # Only b trained: its retrained weight, or its adapter, is what is written.
    trained = "b" if baseline else "b.spp.beta"
    assert not np.array_equal(st_out.get(trained), st_in.get(trained))
    nnz = sum(np.count_nonzero(st_out.get(name)) for name in "ab")
    assert summary["nnz_before_merge"] == nnz > np.count_nonzero(st_out.get("b"))


# ---------------------------------------------------------------------------
# merge


def test_merge_untrained_adapter_is_identity(tmp_path, capsys):
    pruned = pruned_store(tmp_path)
    attached = attached_store(tmp_path)
    out = str(tmp_path / "m.spp")
    assert main(["merge", attached, out]) == 0
    assert "merged multiplicative adapter" in capsys.readouterr().out
    st_p, st_m = store_read(pruned), store_read(out)
    assert st_p.get("a").tobytes() == st_m.get("a").tobytes()
    assert "a.spp.alpha" not in st_m
    assert "adapter" not in st_m.meta()
    assert main(["verify", out]) == 0


def test_merge_after_training_keeps_sparsity(tmp_path, capsys):
    attached = attached_store(tmp_path)
    data = make_data(tmp_path)
    trained = str(tmp_path / "t.spp")
    merged = str(tmp_path / "m.spp")
    assert main(["train", attached, data, trained, "--steps", "25", "--seed", "2"]) == 0
    assert main(["merge", trained, merged]) == 0
    out = capsys.readouterr().out
    assert "nnz 32 -> 32" in out
    st_t, st_m = store_read(trained), store_read(merged)
    assert not np.array_equal(st_t.get("a"), st_m.get("a"))  # update landed
    assert main(["verify", merged]) == 0


def _glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (ValueError, AttributeError):
        return False


def test_heap_thresholds_are_left_alone_without_glibc_or_mallopt(monkeypatch):
    def no_library(name):
        raise AssertionError("looked up the C library on a host without glibc")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    monkeypatch.setattr(os, "confstr", lambda name: None)  # another C library
    assert _keep_freed_heap.__wrapped__() is None
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # a glibc without mallopt
    assert _keep_freed_heap.__wrapped__() is None


@pytest.mark.skipif(not _glibc(), reason="heap thresholds are set on glibc only")
def test_repeated_merges_reuse_freed_memory(tmp_path):
    # One process, four merges of two 512x512 layers.  Each merge frees
    # about 10 MB of weight-sized buffers; the next must get them back from
    # the heap, not fault fresh pages in (2,524 minor faults a merge when
    # glibc hands them back to the OS).  A fresh child, so the heap holds
    # nothing from earlier tests.
    shapes = {"a": (512, 512), "b": (512, 512)}
    attached = attached_store(tmp_path, shapes=shapes)
    child = (
        "import json, resource, sys\n"
        "from spp.cli import main\n"
        "faults = []\n"
        "for _ in range(4):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    assert main(['merge', sys.argv[1], sys.argv[2]]) == 0\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "print(json.dumps(faults))\n"
    )
    r = _run_python("-c", child, attached, str(tmp_path / "merged.spp"))
    assert r.returncode == 0, r.stderr
    faults = json.loads(r.stdout.strip().splitlines()[-1])
    assert max(faults[1:]) < 256, faults  # one 512x512 float64 array is 512 pages


def test_merge_lora_densifies_with_warning(tmp_path, capsys):
    attached = attached_store(tmp_path, extra=("--kind", "lora"), r=2)
    data = make_data(tmp_path)
    trained = str(tmp_path / "t.spp")
    merged = str(tmp_path / "m.spp")
    assert main(["train", attached, data, trained, "--steps", "25", "--seed", "2"]) == 0
    capsys.readouterr()
    assert main(["merge", trained, merged]) == 0
    out = capsys.readouterr().out
    assert "warning" in out and "densified" in out
    st = store_read(merged)
    assert "a.mask" not in st
    assert "pattern" not in st.meta()
    assert np.count_nonzero(st.get("a")) > 32
    assert main(["verify", merged]) == 0  # dense layers report but do not fail
    assert "dense (no mask)" in capsys.readouterr().out


def test_merge_lora_reprune_restores_mask(tmp_path, capsys):
    attached = attached_store(tmp_path, extra=("--kind", "lora"), r=2)
    data = make_data(tmp_path)
    trained = str(tmp_path / "t.spp")
    merged = str(tmp_path / "m.spp")
    assert main(["train", attached, data, trained, "--steps", "25", "--seed", "2"]) == 0
    assert main(["merge", trained, merged, "--reprune-with-original-mask"]) == 0
    assert "repruned to original mask" in capsys.readouterr().out
    st = store_read(merged)
    assert "a.mask" in st
    assert np.count_nonzero(st.get("a")) == 32
    assert main(["verify", merged]) == 0


def test_merge_refuses_weight_off_its_mask(tmp_path, capsys):
    attached = attached_store(tmp_path)
    st = store_read(attached)
    w = st.get("a")
    zr, zc = np.argwhere(st.get("a.mask") == 0)[0]
    w[zr, zc] = 0.25
    store_write(st, attached)
    out = tmp_path / "m.spp"
    assert main(["merge", attached, str(out)]) == 2
    assert f"layer 'a': weight is nonzero off its mask at ({zr}, {zc})" in capsys.readouterr().err
    assert not out.exists()


def _raw_with_masked_entry(model, value):
    """Rewrite ``model`` with layer "a" stored raw and ``value`` at its first
    masked position; returns that (row, col)."""
    st = store_read(model)
    w = st.get("a")
    zr, zc = np.argwhere(st.get("a.mask") == 0)[0]
    w[zr, zc] = value
    store_write(st, model)
    assert store_read(model).pop_kept("a") is None
    return zr, zc


@pytest.mark.parametrize("command", ["attach", "train", "train-baseline"])
def test_attach_and_train_refuse_a_weight_off_its_mask(tmp_path, capsys, command):
    model = attached_store(tmp_path) if command == "train" else pruned_store(tmp_path)
    zr, zc = _raw_with_masked_entry(model, 0.25)
    out = tmp_path / "out.spp"
    train = ["train", model, make_data(tmp_path), str(out), "--steps", "1"]
    argv = {"attach": ["attach", model, str(out), "--r", "4"],
            "train": train, "train-baseline": train + ["--baseline-eq3"]}[command]
    capsys.readouterr()
    assert main(argv) == 2
    out_err = capsys.readouterr()
    assert out_err.err == f"error: layer 'a': weight is nonzero off its mask at ({zr}, {zc})\n"
    assert out_err.out == ""
    assert not out.exists() and not out.with_suffix(".run.csv").exists()
    assert list(tmp_path.glob("*.tmp")) == []


def test_a_raw_negative_zero_off_the_mask_is_written_kept_as_positive_zero(tmp_path):
    # A -0.0 where the mask drops the entry breaks nothing: the layer holds
    # its kept values, and the weight it writes is +0.0 there.  Such a raw
    # weight used to be written back raw, -0.0 included.
    model = pruned_store(tmp_path)
    zr, zc = _raw_with_masked_entry(model, -0.0)
    raw = store_read(model).get("a")
    out = str(tmp_path / "out.spp")
    assert main(["attach", model, out, "--r", "4"]) == 0
    st = store_read(out)
    keep = st.get("a.mask") == 1
    assert st.get("a").tobytes() == np.where(keep, raw, 0.0).tobytes()
    assert not np.signbit(st.get("a")[zr, zc])
    values, _ = store_read(out).pop_kept("a")
    assert values.tobytes() == raw[keep].tobytes()


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
def test_attach_rejects_a_non_finite_scale(tmp_path, capsys, scale):
    pruned = pruned_store(tmp_path)
    out = tmp_path / "out.spp"
    capsys.readouterr()
    assert main(["attach", pruned, str(out), "--r", "4", f"--scale={scale}"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --scale must be a finite number, got {float(scale)}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--lr", "--weight-decay"])
def test_train_rejects_a_non_finite_rate(tmp_path, capsys, flag, value):
    attached = attached_store(tmp_path)
    data = make_data(tmp_path)
    out = tmp_path / "t.spp"
    capsys.readouterr()
    assert main(["train", attached, data, str(out), "--steps", "1", f"{flag}={value}"]) == 2
    name = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == f"error: {name} must be finite, got {float(value)}\n"
    assert not out.exists() and not out.with_suffix(".run.csv").exists()


def merge_with_b_dropped(tmp_path, capsys, dropped):
    """Merge the attached store without b's tensors that ``dropped`` accepts."""
    st = store_read(attached_store(tmp_path))
    partial = TensorStore()
    for name, arr in st.items():
        if not dropped(name):
            partial.add(name, arr)
    store_write(partial, str(tmp_path / "partial.spp"))
    out = str(tmp_path / "m.spp")
    capsys.readouterr()
    assert main(["merge", str(tmp_path / "partial.spp"), out]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("a: merged multiplicative adapter")
    return st, store_read(out)


def test_merge_passes_a_layer_without_adapter_through(tmp_path, capsys):
    st, merged = merge_with_b_dropped(tmp_path, capsys, lambda name: name.startswith("b.spp."))
    for name in ("b", "b.mask"):
        assert merged.get(name).tobytes() == st.get(name).tobytes()


def test_merge_writes_an_unmasked_layer_without_adapter_unchanged(tmp_path, capsys):
    st, merged = merge_with_b_dropped(
        tmp_path, capsys, lambda name: name.startswith("b.spp.") or name == "b.mask"
    )
    assert "b.mask" not in merged
    assert merged.get("b").tobytes() == st.get("b").tobytes()


def test_merge_without_adapters(tmp_path, capsys):
    pruned = pruned_store(tmp_path)
    assert main(["merge", pruned, str(tmp_path / "m.spp")]) == 2
    assert "no adapters" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def test_verify_flags_corrupted_weight(tmp_path, capsys):
    pruned = pruned_store(tmp_path)
    st = store_read(pruned)
    w = st.get("a")
    mask = st.get("a.mask")
    zr, zc = np.argwhere(mask == 0)[0]
    w[zr, zc] = 1e-9
    store_write(st, pruned)
    assert main(["verify", pruned]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert f"({zr}, {zc})" in out


def test_verify_infers_unstructured_ratio_without_meta(tmp_path, capsys):
    # 15 zeros of 22: int((15 / 22) * 22) is 14, so a ratio of plain
    # zeros / total would fail this valid mask.
    mask = np.ones((2, 11), dtype=np.uint8)
    mask.ravel()[:15] = 0
    w = np.where(mask == 1, 0.5, 0.0)
    path = write_weights(tmp_path / "m.spp", {"w": w, "w.mask": mask})
    assert main(["verify", path]) == 0
    assert "pattern=unstructured ratio=0.6818 nnz=7 ok" in capsys.readouterr().out


def test_verify_rejects_non_binary_mask(tmp_path, capsys):
    mask = np.ones((4, 8), dtype=np.uint8)
    mask[1, 2] = 2
    path = write_weights(
        tmp_path / "m.spp", {"w": np.ones((4, 8)), "w.mask": mask}, {"pattern": "2:4"}
    )
    assert main(["verify", path]) == 2
    assert "mask entries must be exactly 0 or 1" in capsys.readouterr().err


def test_verify_flags_pattern_breach(tmp_path, capsys):
    rng = Rng(11)
    w = rand_matrix(rng, 4, 8)
    st = TensorStore()
    st.add("w", w)
    st.add("w.mask", np.ones((4, 8), dtype=np.uint8))  # claims 2:4, is dense
    st.set_meta({"pattern": "2:4", "ratio": 0.5})
    path = str(tmp_path / "bad.spp")
    store_write(st, path)
    assert main(["verify", path]) == 1
    out = capsys.readouterr().out
    assert "does not satisfy pattern 2:4" in out


# ---------------------------------------------------------------------------
# one layer at a time


def test_streamed_commands_hold_a_few_layers_not_the_model(tmp_path, capsys):
    # Eight 256x256 layers.  prune, attach, merge and verify each read,
    # transform and write one layer at a time, so what they allocate stays
    # within a few layers' bytes however many layers the store holds.
    layer_bytes = 256 * 256 * 8
    bound = 9 * layer_bytes // 2
    dense = make_dense(tmp_path, shapes={f"l{i}": (256, 256) for i in range(8)})
    p = {k: str(tmp_path / f"{k}.spp") for k in ("pruned", "adapted", "merged")}
    for argv in (["prune", dense, p["pruned"], "--pattern", "2:4"],
                 ["attach", p["pruned"], p["adapted"], "--r", "16"],
                 ["merge", p["adapted"], p["merged"]],
                 ["verify", p["merged"]]):
        codes = []
        peak = peak_transient_bytes(lambda: codes.append(main(argv)))
        assert codes == [0], argv
        assert peak < bound, (argv[0], peak / layer_bytes)
    # The control: the store decodes to eight layers' worth, and the same
    # measure sees more than the bound when the store is loaded whole: all
    # eight layers' kept values (half of each weight at 2:4) and their masks.
    assert sum(arr.nbytes for _, arr in store_read(p["merged"]).items()) > 8 * layer_bytes
    index = _index_layers(store_read(p["merged"]))
    assert peak_transient_bytes(_load_layers, index) > bound


def _with_bad_last_layer(tmp_path, fault):
    """An attached store of three layers whose last one is damaged; the
    damage passes the index and shows only when that layer is read."""
    shapes = {name: (64, 64) for name in "abc"}  # payloads past the write buffer
    attached = attached_store(tmp_path, r=2, shapes=shapes)
    st = store_read(attached)
    if fault == "weight":
        w = st.get("c")
        w[0, np.flatnonzero(w[0])[0]] = np.nan
    else:
        st.get("c.mask")[1, 2] = 2
    return st


@pytest.mark.parametrize("command,fault,message", [
    ("attach", "mask", "mask entries must be exactly 0 or 1"),
    ("attach", "weight", "weight contains non-finite entries"),
    ("merge", "mask", "mask entries must be exactly 0 or 1"),
    ("verify", "mask", "mask entries must be exactly 0 or 1"),
    ("merge", "weight", "weight contains non-finite entries"),
    ("verify", "weight", "weight contains non-finite entries"),
])
def test_a_failure_mid_stream_publishes_nothing(tmp_path, capsys, monkeypatch,
                                                command, fault, message):
    st = _with_bad_last_layer(tmp_path, fault)
    if command == "attach":  # attach reads a pruned store
        for key in [k for k in st.names() if ".spp." in k]:
            st.pop(key)
        meta = st.meta()
        del meta["adapter"]
        st.set_meta(meta)
    model = str(tmp_path / "model.spp")
    store_write(st, model)
    del st
    capsys.readouterr()

    streamed = []  # bytes in the temp file as each layer's mask is read
    sparse_mask = spp.cli.SparseMask

    def noting(*args):
        streamed.append(sum(f.stat().st_size for f in tmp_path.glob("*.tmp")))
        return sparse_mask(*args)

    monkeypatch.setattr(spp.cli, "SparseMask", noting)
    out = tmp_path / "out.spp"
    argv = {"attach": ["attach", model, str(out), "--r", "2"],
            "merge": ["merge", model, str(out)],
            "verify": ["verify", model]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "layer 'c'" in err
    assert len(streamed) == 3
    if command != "verify":
        assert streamed[-1] > 64 * 64 * 8  # layers a and b were written, half of each kept
    assert not out.exists()
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("held", ["kept", "raw"])
def test_attach_rejects_a_non_finite_weight(tmp_path, capsys, held, bad):
    w = rand_matrix(Rng(5), 8, 8)
    keep = np.abs(w) >= np.sort(np.abs(w), axis=1)[:, [4]]  # the four largest of each row
    w[~keep] = 0.0
    w[3, np.flatnonzero(keep[3])[1]] = bad
    if held == "kept":
        pairs = [("w", (w[keep], keep))]
    else:
        pairs = [("w", w), ("w.mask", keep.view(np.uint8))]
    model = str(tmp_path / "model.spp")
    store_write([*pairs, (META_NAME, encode_meta({"pattern": "unstructured", "ratio": 0.5}))], model)
    assert (store_read(model).pop_kept("w") is not None) == (held == "kept")
    out = tmp_path / "out.spp"
    assert main(["attach", model, str(out), "--r", "2"]) == 2
    assert "layer 'w': weight contains non-finite entries" in capsys.readouterr().err
    assert not out.exists()
    assert list(tmp_path.glob("*.tmp")) == []


# ---------------------------------------------------------------------------
# count-params


def test_count_params_presets(tmp_path, capsys):
    assert main(["count-params", "--arch", "llama7b", "--r", "16"]) == 0
    out = capsys.readouterr().out
    assert "trainable: 19578880" in out
    assert "total: 6738415616" in out
    assert "per-mille: 2.9056" in out

    assert main(["count-params", "--arch", "llama13b", "--r", "16"]) == 0
    out = capsys.readouterr().out
    assert "trainable: 30638080" in out
    assert "total: 13015864320" in out
    assert "per-mille: 2.3539" in out


def test_count_params_custom_json(tmp_path, capsys):
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps({"blocks": 2, "shapes": [[4, 4]], "extra_params": 0}))
    assert main(["count-params", "--arch", str(arch), "--r", "2"]) == 0
    out = capsys.readouterr().out
    assert "trainable: 24" in out and "total: 32" in out

    arch.write_text(json.dumps({"shapes": [[4, 4]]}))
    assert main(["count-params", "--arch", str(arch), "--r", "2"]) == 2
    arch.write_text("{not json")
    assert main(["count-params", "--arch", str(arch), "--r", "2"]) == 2
    assert main(["count-params", "--arch", "llama99b", "--r", "16"]) == 2
    assert main(["count-params", "--arch", "llama7b", "--r", "17"]) == 2
    capsys.readouterr()
    for shape, r in (([0, 4], "1"), ([-4, 4], "2")):
        arch.write_text(json.dumps({"blocks": 1, "shapes": [shape]}))
        assert main(["count-params", "--arch", str(arch), "--r", r]) == 2
        assert "dimensions must be >= 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# plumbing


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["prune", "nope.spp", "out.spp", "--pattern", "2:4"]) == 2
    garbage = tmp_path / "garbage.spp"
    garbage.write_bytes(b"not a tensor store at all")
    assert main(["prune", str(garbage), "out.spp", "--pattern", "2:4"]) == 2
    assert "bad magic" in capsys.readouterr().err
    empty = tmp_path / "empty.spp"
    store_write(TensorStore(), empty)
    assert main(["prune", str(empty), "out.spp", "--pattern", "2:4"]) == 2


def _no_layers(tmp_path):
    return write_weights(tmp_path / "vector.spp", {"v": np.ones(3)})


def _unequal_rows(tmp_path):
    return write_weights(tmp_path / "data.spp", {"x": np.ones((4, 8)), "y": np.ones((3, 8))})


NO_LAYERS = "store contains no layer matrices"

# Each case: (argv, the stderr message after "error: ").
EXIT_2_CASES = {
    "prune-no-layers": lambda t: (
        ["prune", _no_layers(t), str(t / "o.spp"), "--pattern", "2:4"], NO_LAYERS),
    "attach-no-layers": lambda t: (
        ["attach", _no_layers(t), str(t / "o.spp"), "--r", "2"], NO_LAYERS),
    "merge-no-layers": lambda t: (["merge", _no_layers(t), str(t / "o.spp")], NO_LAYERS),
    "verify-no-layers": lambda t: (["verify", _no_layers(t)], NO_LAYERS),
    "bogus-pattern": lambda t: (
        ["verify", write_weights(t / "w.spp", {"a": np.ones((2, 4))}, {"pattern": "bogus"})],
        "meta 'pattern' 'bogus': pattern must be 'N:M' or 'unstructured', got 'bogus'"),
    "r-zero": lambda t: (
        ["attach", pruned_store(t), str(t / "o.spp"), "--r", "0"],
        "--r must be >= 1, got 0"),
    "train-unpruned": lambda t: (
        ["train", make_dense(t), make_data(t), str(t / "o.spp"), "--steps", "1",
         "--baseline-eq3"],
        "layer 'a' has no mask"),
    "train-unequal-rows": lambda t: (
        ["train", attached_store(t), _unequal_rows(t), str(t / "o.spp"), "--steps", "1"],
        "4 inputs but 3 targets"),
    "verify-mask-shape": lambda t: (
        ["verify", write_weights(t / "w.spp", {"a": np.ones((8, 8)),
                                               "a.mask": np.ones((4, 4), dtype=np.uint8)})],
        "layer 'a': weight (8, 8) and mask (4, 4) differ"),
    "count-params-missing-json": lambda t: (
        ["count-params", "--arch", str(t / "missing.json"), "--r", "4"],
        f"no such file: {t / 'missing.json'}"),
}


@pytest.mark.parametrize("case", sorted(EXIT_2_CASES))
def test_input_errors_exit_2_with_their_message(tmp_path, capsys, case):
    argv, message = EXIT_2_CASES[case](tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.err == f"error: {message}\n"
    assert out.out == ""
    assert not (tmp_path / "o.spp").exists()


def _run_python(*argv):
    """Run `python *argv` in a child that imports this same `spp`."""
    src = str(Path(spp.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, timeout=120, env=env,
    )


def run_spp(*argv):
    """Run `python -m spp *argv` in a child that imports this same `spp`."""
    return _run_python("-m", "spp", *argv)



def test_console_script_is_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as f:
        config = tomllib.load(f)
    assert config["project"]["scripts"]["spp"] == "spp.cli:main_entry"
    # A plain checkout runs the suite without installing: python -m pytest.
    assert config["tool"]["pytest"]["ini_options"]["pythonpath"] == ["src"]
    assert set(config["project"]["optional-dependencies"]["test"]) >= {"pytest", "hypothesis"}


def test_in_process_calls_build_one_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    spp.cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    # Usage errors, --help and a good command keep their exit codes and
    # output on every call, not only on the one that builds the parser.
    for _ in range(2):
        assert main(["count-params", "--arch", "llama7b", "--r", "8"]) == 0
        assert capsys.readouterr().out
        assert main([]) == 2
        assert "usage: spp" in capsys.readouterr().err
        assert main(["verify", "--no-such-flag", "x.spp"]) == 2
        assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
        assert main(["--help"]) == 0
        assert "usage: spp" in capsys.readouterr().out
        assert main(["prune", "--help"]) == 0
        assert "--pattern" in capsys.readouterr().out
    assert built.count("spp") == 1
    # The parser holds command names, not handlers: a handler replaced after
    # the parser was built is the one that runs.
    monkeypatch.setitem(spp.cli.COMMANDS, "verify", lambda args: 7)
    assert main(["verify", "x.spp"]) == 7


def test_module_run_without_args_exits_2():
    r = run_spp()
    assert r.returncode == 2
    assert "usage: spp" in r.stderr


def test_console_script_pipeline(tmp_path):
    dense = make_dense(tmp_path, shapes={"w": (16, 16)}, seed=21)
    data = make_data(tmp_path, n=16, m=16, rows=64, seed=22)
    paths = {k: str(tmp_path / f"{k}.spp") for k in ("pruned", "adapted", "trained", "merged")}

    r = run_spp("prune", dense, paths["pruned"], "--pattern", "2:4")
    assert r.returncode == 0, r.stderr
    r = run_spp("attach", paths["pruned"], paths["adapted"], "--r", "4", "--seed", "0")
    assert r.returncode == 0, r.stderr
    r = run_spp(
        "train", paths["adapted"], data, paths["trained"],
        "--steps", "30", "--seed", "0",
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout.strip().split("\n")[-1])["recorded_steps"] == 30
    r = run_spp("merge", paths["trained"], paths["merged"])
    assert r.returncode == 0, r.stderr
    r = run_spp("verify", paths["merged"])
    assert r.returncode == 0, r.stdout + r.stderr
    assert "ok" in r.stdout
