import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spp
from spp import Rng, TensorStore, store_read, store_write
from spp.cli import _build_net, _load_layers, main

from helpers import rand_matrix


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


def test_train_missing_data_tensors(tmp_path, capsys):
    attached = attached_store(tmp_path)
    rng = Rng(0)
    bad = write_weights(tmp_path / "bad.spp", {"x": rand_matrix(rng, 4, 8)})
    assert main(["train", attached, bad, str(tmp_path / "t.spp"), "--steps", "1"]) == 2
    assert "'y'" in capsys.readouterr().err


def test_build_net_honors_meta_topology(tmp_path):
    attached = attached_store(tmp_path)
    st = store_read(attached)
    meta = st.meta()
    meta["net"] = {
        "loss": "mse",
        "layers": [{"name": "b", "activation": "relu"}, {"name": "a"}],
    }
    bundles = _load_layers(st)
    net, ordered = _build_net(bundles, meta)
    assert [b.name for b in ordered] == ["b", "a"]
    assert net.layers[0].activation == "relu"
    assert net.layers[1].activation == "identity"
    meta["net"]["layers"].append({"name": "ghost"})
    with pytest.raises(Exception, match="ghost"):
        _build_net(bundles, meta)


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
    assert main(["merge", attached, str(out)]) == 3
    assert "broke the mask of 'a'" in capsys.readouterr().err
    assert not out.exists()


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
