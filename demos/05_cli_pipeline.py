"""The whole pipeline through the command line, end to end.

prune -> attach -> train -> merge -> verify, on throwaway files.  Every
store is a single binary file; the same commands work on any checkpoint
this package wrote.  Each command runs as `python -m spp ...`, the same
entry point as the installed `spp` script, so the demo works after
`pip install -e .` and from a plain checkout with `PYTHONPATH=src`.

    python demos/05_cli_pipeline.py [DIR]

The stores go into DIR, which is kept (and made if missing), or else into a
temporary directory that is removed when the demo ends.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from spp import Rng, TensorStore, store_write


def run(*argv):
    print("$ spp", " ".join(argv))
    r = subprocess.run([sys.executable, "-m", "spp", *argv],
                       capture_output=True, text=True)
    for stream in (r.stdout, r.stderr):
        if stream:
            print(stream, end="")
    if r.returncode != 0:
        sys.exit(f"exit code {r.returncode}")
    return r


def pipeline(tmp: Path):
    rng = Rng(3)

    # a model store: one named weight matrix per layer
    st = TensorStore()
    st.add("proj", rng.uniform(-1.0, 1.0, 16, 16))
    store_write(st, tmp / "dense.spp")

    # a data store: inputs x and regression targets y
    x = rng.uniform(-1.0, 1.0, 128, 16)
    target_w = rng.uniform(-1.0, 1.0, 16, 16)
    st = TensorStore()
    st.add("x", x)
    st.add("y", x @ target_w.T)
    store_write(st, tmp / "data.spp")

    run("prune", str(tmp / "dense.spp"), str(tmp / "pruned.spp"), "--pattern", "2:4")
    run("attach", str(tmp / "pruned.spp"), str(tmp / "adapted.spp"),
        "--r", "4", "--seed", "0")
    r = run("train", str(tmp / "adapted.spp"), str(tmp / "data.spp"),
            str(tmp / "trained.spp"), "--steps", "60", "--seed", "0")
    summary = json.loads(r.stdout.strip().split("\n")[-1])
    print("final train loss:", summary["train_loss"])
    run("merge", str(tmp / "trained.spp"), str(tmp / "merged.spp"))
    run("verify", str(tmp / "merged.spp"))
    print("per-step log:", (tmp / "trained.run.csv").read_text().splitlines()[0], "...")


if len(sys.argv) > 1:
    kept = Path(sys.argv[1])
    kept.mkdir(parents=True, exist_ok=True)
    pipeline(kept)
    print("files in", kept)
else:
    with tempfile.TemporaryDirectory(prefix="spp-demo-") as tmp:
        pipeline(Path(tmp))
