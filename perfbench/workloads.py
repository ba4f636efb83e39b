"""The three closed-loop workloads of the spp benchmark.

spp is a batch tool: each command reads the file the previous one wrote, so
every workload has exactly one caller that waits for each step to finish.
Inputs are generated from the workload seed with NumPy's generator (never
``spp.Rng``, whose pure-Python draws would dominate set-up); the program only
sees the stores and arrays built from them.

recovery-64  Acceptance criterion 6 for one seed, through the library.  The
             layers are tiny, so dropout draws and per-step overhead dominate
             and the store is never touched.
cli-512      prune -> attach -> train -> merge -> verify through spp.cli.main
             on two 512x512 2:4 layers; the training matmuls dominate.
ckpt-1024    prune (Wanda, unstructured 75%) -> attach -> merge -> verify on
             eight 1024x1024 layers with no training; mask construction and
             store reads and writes dominate.

Every pass checks the program's outputs.  The first pass checks their
content against independent NumPy oracles, in a child process on the CLI
workloads so that the stores it reads stay out of peak_rss_mb; later passes
must then produce byte-identical files (or, for the library workload,
identical losses).
"""

import hashlib
import io
import json
import math
import os
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import spp
import spp.cli


class Failure(Exception):
    """A program call or a correctness check failed; the run stops on it."""


class Ops:
    """Times program calls per stage and counts attempted and failed operations.

    A failed call, a command that exits non-zero, or a failed check counts as
    one failed operation and raises Failure; nothing is retried or dropped.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times = {}  # stage -> program time in the current pass
        self.samples = {}  # stage -> seconds of each timed call in the current pass
        self.tracer = None  # a Tracer while a traced pass runs
        self.probe = None  # a SpeedProbe while untraced passes run

    def _timed(self, stage, fn, args):
        self.attempted += 1
        span = self.tracer.span(f"bench.{stage}") if self.tracer else nullcontext()
        probed = self.probe.total if self.probe else 0.0
        start = perf_counter()
        try:
            with span:
                out = fn(*args)
        except Exception as exc:
            self.failed += 1
            raise Failure(f"{stage}: {fn.__name__} raised {exc!r}") from exc
        seconds = perf_counter() - start
        if self.probe:  # the probe's own runs are not program time
            seconds -= self.probe.total - probed
        return out, seconds

    def call(self, stage, fn, *args):
        out, seconds = self._timed(stage, fn, args)
        self.times[stage] = self.times.get(stage, 0.0) + seconds
        self.samples.setdefault(stage, []).append(seconds)
        return out

    def repeat(self, stage, reps, fn, *args):
        """Call fn reps times back to back (it must be pure); returns every result.

        For stages that take under 50 ms: every call is a sample, and the
        pass is charged the median call once.
        """
        runs = [self._timed(stage, fn, args)]
        with self.checking():  # trace one call per pass, like the other stages
            runs += [self._timed(stage, fn, args) for _ in range(reps - 1)]
        seconds = sorted(s for _, s in runs)
        self.samples.setdefault(stage, []).extend(seconds)
        self.times[stage] = self.times.get(stage, 0.0) + seconds[len(seconds) // 2]
        return [out for out, _ in runs]

    def cli(self, stage, *argv, reps=1):
        """Run one spp command in this process (reps > 1: see repeat); returns
        its standard output."""
        results = (self.repeat(stage, reps, _run_command, list(argv)) if reps > 1
                   else [self.call(stage, _run_command, list(argv))])
        for code, _out, err in results:
            if code != 0:
                self.failed += 1
                raise Failure(f"spp {argv[0]} exited {code}: {err.strip()}")
        return results[-1][1]

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            raise Failure(f"check failed: {message}")

    def checking(self):
        """Context for the benchmark's own work, e.g. checks: untraced."""
        return self.tracer.pause() if self.tracer else nullcontext()

    def check_in_child(self, check, *args):
        """Run ``check(self, *args)`` in a forked child and wait for it.

        The stores a content check reads then never count in this process's
        peak_rss_mb, which measures the program alone.  The child's check
        counts come back through a pipe; a failure there fails here.
        """
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: run the check, report, and never return
            code = 1
            try:
                os.close(read_fd)
                self.attempted = self.failed = 0
                message = ""
                try:
                    check(self, *args)
                except Failure as exc:
                    message = str(exc)
                except BaseException:
                    self.failed += 1
                    message = traceback.format_exc()
                with os.fdopen(write_fd, "w") as fh:
                    json.dump({"attempted": self.attempted, "failed": self.failed,
                               "message": message}, fh)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        with os.fdopen(read_fd) as fh:
            text = fh.read()
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0 or not text:
            self.attempted += 1
            self.failed += 1
            raise Failure(f"the content check process ended with status {status}")
        report = json.loads(text)
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        if report["failed"]:
            raise Failure(f"content check: {report['message']}")


def _run_command(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = spp.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def _check_pruned_layer(ops, name, dense, weight, mask, scores, keep_rule):
    """Weight is the dense weight on kept slots and +0.0 elsewhere; the kept
    set is the highest-scoring one under ``keep_rule``."""
    kept = mask == 1
    ops.check(bool(np.isin(mask, (0, 1)).all()), f"{name}: mask is not 0/1")
    ops.check(np.array_equal(weight[kept], dense[kept]), f"{name}: kept weights changed")
    dropped = weight[~kept]
    ops.check(not dropped.any() and not np.signbit(dropped).any(),
              f"{name}: pruned slots are not +0.0")
    keep_rule(name, kept, scores)


def _nofm_rule(ops, n_keep, m_group):
    def rule(name, kept, scores):
        groups_kept = kept.reshape(kept.shape[0], -1, m_group)
        groups = scores.reshape(groups_kept.shape)
        ops.check(bool((groups_kept.sum(axis=2) == n_keep).all()),
                  f"{name}: a group does not keep exactly {n_keep} of {m_group}")
        lowest_kept = np.where(groups_kept, groups, np.inf).min(axis=2)
        highest_dropped = np.where(groups_kept, -np.inf, groups).max(axis=2)
        ops.check(bool((lowest_kept >= highest_dropped).all()),
                  f"{name}: a group drops a higher score than it keeps")
    return rule


def _global_rule(ops, ratio):
    def rule(name, kept, scores):
        zeros = kept.size - int(np.count_nonzero(kept))
        ops.check(zeros == int(ratio * kept.size),
                  f"{name}: {zeros} pruned slots, expected {int(ratio * kept.size)}")
        ops.check(scores[kept].min() >= scores[~kept].max(),
                  f"{name}: a dropped score exceeds a kept one")
    return rule


def _check_merged(ops, trained, merged, names, r, s):
    """Merged weight = W + s * W * repeat(alpha) * beta, zeros kept, per layer."""
    for name in names:
        w = trained.get(name)
        mask = trained.get(f"{name}.mask")
        alpha = trained.get(f"{name}.spp.alpha")
        beta = trained.get(f"{name}.spp.beta")
        got = merged.get(name)
        expected = w + s * ((w * np.repeat(alpha, w.shape[0] // r, axis=0)) * beta)
        ops.check(np.allclose(got, expected, rtol=1e-12, atol=0.0),
                  f"{name}: merged weight differs from W + s * W'")
        ops.check(np.array_equal(merged.get(f"{name}.mask"), mask), f"{name}: merge changed the mask")
        ops.check(not got[mask == 0].any(), f"{name}: merge wrote to a pruned slot")
        ops.check(np.count_nonzero(got) == np.count_nonzero(w),
                  f"{name}: nnz {np.count_nonzero(w)} before merge, {np.count_nonzero(got)} after")


def _check_verify_output(ops, text, names):
    lines = [line for line in text.splitlines() if not line.startswith(" ")]
    ok = len(lines) == len(names) and all(line.endswith(" ok") for line in lines)
    ops.check(ok, f"spp verify did not report every layer ok: {text!r}")


# ---------------------------------------------------------------------------


class Recovery64:
    """Criterion 6 for one seed: SPP r=8 and a LoRA r=4 contrast, 500 AdamW
    steps each at batch 32 and p=0.05, then eval, merge and verify."""

    name = "recovery-64"
    size, samples, steps, batch, p = 64, 2048, 500, 32, 0.05
    spp_r, lora_r = 8, 4
    pattern = spp.NofM(2, 4)
    # tracemalloc slows the pure-Python draws about 13x.  Every step makes the
    # same calls on the same shapes, so the memory pass trains fewer steps and
    # still sees the same per-call peaks.
    memory_steps = 20
    # prune, attach, merge and verify take well under a millisecond here.
    reps = 40

    def prepare(self, seed, workdir):
        self.seed = seed
        self.gain = None

    def build(self, ops):
        self.ts = ops.call("setup", spp.make_teacher_student,
                           self.seed, self.size, self.size, self.pattern, self.samples)

    def _prune(self, w):
        return spp.apply_mask(w, spp.build_mask(spp.score_magnitude(w), self.pattern))

    def _attach(self):
        size, p, seed = self.size, self.p, self.seed
        return (spp.spp_init(size, size, self.spp_r, 1.0, p, spp.Rng(seed + 1000)),
                spp.lora_init(size, size, self.lora_r, 1.0, p, spp.Rng(seed + 1000)))

    @staticmethod
    def _merge(layer, spp_ad, lora_ad):
        """SPP merge, and the LoRA* contrast: dense merge, then re-prune."""
        star = spp.apply_mask(spp.lora_merge_dense(layer, lora_ad), layer.mask)
        return spp.spp_merge(layer, spp_ad), star

    def run_pass(self, ops, memory=False):
        ts, seed = self.ts, self.seed
        steps = self.memory_steps if memory else self.steps
        student = ts.student.layers[0].layer
        layer = ops.repeat("prune", self.reps, self._prune, ts.teacher.layers[0].layer.weight)[-1]
        evaluate = spp.eval_loss
        before = ops.call("eval", evaluate, spp.ToyNet([spp.NetLayer(layer)]), ts.x_eval, ts.y_eval)
        spp_ad, lora_ad = ops.repeat("attach", self.reps, self._attach)[-1]
        frozen = layer.weight.tobytes()
        cfg = spp.TrainConfig(steps=steps, optimizer="adamw", batch_size=self.batch, seed=seed)
        spp_net = spp.ToyNet([spp.NetLayer(layer, spp_ad)])
        _, spp_run = ops.call("train", spp.train, spp_net, (ts.x_train, ts.y_train), cfg)
        lora_net = spp.ToyNet([spp.NetLayer(layer, lora_ad)])
        _, lora_run = ops.call("train", spp.train, lora_net, (ts.x_train, ts.y_train), cfg)
        after = ops.call("eval", evaluate, spp_net, ts.x_eval, ts.y_eval)
        merged, star = ops.repeat("merge", self.reps, self._merge, layer, spp_ad, lora_ad)[-1]
        report = ops.repeat("verify", self.reps, spp.verify_mask, merged)[-1]
        merged_loss = ops.call("eval", evaluate, spp.ToyNet([spp.NetLayer(merged)]),
                               ts.x_eval, ts.y_eval)
        star_loss = ops.call("eval", evaluate, spp.ToyNet([spp.NetLayer(star)]), ts.x_eval, ts.y_eval)

        with ops.checking():
            ops.check(layer.weight.tobytes() == student.weight.tobytes()
                      and np.array_equal(layer.mask.mask, student.mask.mask),
                      "library prune differs from make_teacher_student's student")
            ops.check(layer.weight.tobytes() == frozen, "training wrote to the frozen base weight")
            losses = [row[2] for row in spp_run.steps + lora_run.steps]
            losses += [before, after, merged_loss, star_loss]
            ops.check(all(math.isfinite(v) for v in losses), "a loss is not finite")
            ops.check(report.ok, f"verify_mask failed on the merged layer: {report.violations[:3]}")
            ops.check(report.nnz == int(np.count_nonzero(layer.weight)), "merge changed nnz")
            ops.check(math.isclose(merged_loss, after, rel_tol=1e-9),
                      f"merged layer loss {merged_loss!r} != adapted loss {after!r}")
            gain = (before - after) / before
            if not memory:
                ops.check(gain > 0.0, f"recovery_gain {gain!r} is not positive")
                ops.check(self.gain is None or gain == self.gain,
                          "a rerun with the same seed gave a different recovery_gain")
                self.gain = gain
        return {"train_steps": 2 * steps, "recovery_gain": gain}


class Cli512:
    """The CLI pipeline on two 512x512 layers: 2:4, ReLU, MSE, r=16, batch 32,
    a 256-row data store, ten train steps per pass."""

    name = "cli-512"
    size, rows, r, steps, batch = 512, 256, 16, 10, 32
    names = ("fc1", "fc2")
    reps = 5  # prune, attach, merge and verify take 10-50 ms here; see Ops.repeat

    def prepare(self, seed, workdir):
        self.seed = seed
        self.dir = Path(workdir)
        g = np.random.default_rng(seed)
        bound = 1.0 / math.sqrt(self.size)
        self.dense = {n: g.uniform(-bound, bound, (self.size, self.size)) for n in self.names}
        x = g.standard_normal((self.rows, self.size))
        y = np.maximum(x @ self.dense["fc1"].T, 0.0) @ self.dense["fc2"].T
        self.data = (x, y)
        self.digest = None

    def _write_inputs(self):
        model = spp.TensorStore()
        for n in self.names:
            model.add(n, self.dense[n])
        model.set_meta({"net": {"loss": "mse", "layers": [
            {"name": "fc1", "activation": "relu"}, {"name": "fc2", "activation": "identity"}]}})
        spp.store_write(model, self.dir / "dense.spp")
        data = spp.TensorStore()
        data.add("x", self.data[0])
        data.add("y", self.data[1])
        spp.store_write(data, self.dir / "data.spp")

    def build(self, ops):
        ops.call("setup", self._write_inputs)

    def run_pass(self, ops, memory=False):
        d, seed = self.dir, str(self.seed)
        p = {k: str(d / f"{k}.spp")
             for k in ("dense", "data", "pruned", "adapted", "trained", "merged")}
        reps = self.reps
        ops.cli("prune", "prune", p["dense"], p["pruned"], "--pattern", "2:4", reps=reps)
        ops.cli("attach", "attach", p["pruned"], p["adapted"], "--r", str(self.r),
                "--seed", seed, reps=reps)
        out = ops.cli("train", "train", p["adapted"], p["data"], p["trained"],
                      "--steps", str(self.steps), "--batch-size", str(self.batch), "--seed", seed)
        ops.cli("merge", "merge", p["trained"], p["merged"], reps=reps)
        verify_out = ops.cli("verify", "verify", p["merged"], reps=reps)

        with ops.checking():
            summary = json.loads(out.strip().splitlines()[-1])
            ops.check(math.isfinite(summary["train_loss"]), "final train loss is not finite")
            _check_verify_output(ops, verify_out, self.names)
            outputs = [p[k] for k in ("pruned", "adapted", "trained", "merged")]
            digest = _digest(*outputs, str(d / "trained.run.csv"))
            if self.digest is None:
                ops.check_in_child(self._check_content, p, d / "trained.run.csv")
                self.digest = digest
            ops.check(digest == self.digest, "a rerun with the same seed wrote different files")
        return {"train_steps": self.steps}

    def _check_content(self, ops, p, run_csv):
        pruned = spp.store_read(p["pruned"])
        rule = _nofm_rule(ops, 2, 4)
        for n in self.names:
            _check_pruned_layer(ops, n, self.dense[n], pruned.get(n), pruned.get(f"{n}.mask"),
                                np.abs(self.dense[n]), rule)
        adapted = spp.store_read(p["adapted"])
        trained = spp.store_read(p["trained"])
        for n in self.names:
            ops.check(adapted.get(f"{n}.spp.alpha").shape == (self.r, self.size), f"{n}: alpha shape")
            ops.check(not adapted.get(f"{n}.spp.beta").any(), f"{n}: beta is not zero at attach")
            for key in (n, f"{n}.mask"):
                ops.check(pruned.get(key).tobytes() == adapted.get(key).tobytes()
                          == trained.get(key).tobytes(), f"{key}: attach or train changed it")
        losses = [float(line.split(",")[2]) for line in Path(run_csv).read_text().splitlines()[1:]]
        ops.check(len(losses) == self.steps and all(math.isfinite(v) for v in losses),
                  "run log has missing or non-finite losses")
        _check_merged(ops, trained, spp.store_read(p["merged"]), self.names, self.r, 1.0)


class Ckpt1024:
    """prune --metric wanda --pattern unstructured --ratio 0.75 -> attach
    --r 16 -> merge -> verify on eight 1024x1024 layers, no training."""

    name = "ckpt-1024"
    size, layers, calib_rows, r, ratio = 1024, 8, 64, 16, 0.75

    def prepare(self, seed, workdir):
        self.seed = seed
        self.dir = Path(workdir)
        self.names = [f"layer{i}" for i in range(self.layers)]
        self.digest = None

    def _layer(self, i):
        """Dense weight and calibration activations of layer i (regenerated on
        demand so the benchmark holds no copy of the model)."""
        g = np.random.default_rng([self.seed, i])
        w = g.standard_normal((self.size, self.size)) * 0.02
        col_scale = g.lognormal(0.0, 1.0, self.size)
        acts = g.standard_normal((self.calib_rows, self.size)) * col_scale
        return w, acts

    def _write_inputs(self, layers):
        model, calib = spp.TensorStore(), spp.TensorStore()
        for n, (w, acts) in zip(self.names, layers):
            model.add(n, w)
            calib.add(n, acts)
        spp.store_write(model, self.dir / "dense.spp")
        spp.store_write(calib, self.dir / "calib.spp")

    def build(self, ops):
        # Generating the arrays is the benchmark's work; storing them is spp's.
        layers = [self._layer(i) for i in range(self.layers)]
        ops.call("setup", self._write_inputs, layers)

    def run_pass(self, ops, memory=False):
        d, seed = self.dir, str(self.seed)
        p = {k: str(d / f"{k}.spp") for k in ("dense", "calib", "pruned", "adapted", "merged")}
        ops.cli("prune", "prune", p["dense"], p["pruned"], "--metric", "wanda",
                "--calib", p["calib"], "--pattern", "unstructured", "--ratio", str(self.ratio))
        ops.cli("attach", "attach", p["pruned"], p["adapted"], "--r", str(self.r), "--seed", seed)
        ops.cli("merge", "merge", p["adapted"], p["merged"])
        verify_out = ops.cli("verify", "verify", p["merged"])

        with ops.checking():
            _check_verify_output(ops, verify_out, self.names)
            digest = _digest(p["pruned"], p["adapted"], p["merged"])
            if self.digest is None:
                ops.check_in_child(self._check_content, p)
                self.digest = digest
            ops.check(digest == self.digest, "a rerun with the same seed wrote different files")
        return {}

    def _check_content(self, ops, p):
        pruned = spp.store_read(p["pruned"])
        rule = _global_rule(ops, self.ratio)
        for i, n in enumerate(self.names):
            w, acts = self._layer(i)
            norms = np.zeros(self.size)
            for row in acts:  # ascending row order, as Wanda's calibration pass sums
                norms += row * row
            scores = np.abs(w) * np.sqrt(norms)
            _check_pruned_layer(ops, n, w, pruned.get(n), pruned.get(f"{n}.mask"), scores, rule)
        adapted = spp.store_read(p["adapted"])
        merged = spp.store_read(p["merged"])
        for n in self.names:
            ops.check(adapted.get(f"{n}.spp.alpha").shape == (self.r, self.size), f"{n}: alpha shape")
            ops.check(not adapted.get(f"{n}.spp.beta").any(), f"{n}: beta is not zero at attach")
            for key in (n, f"{n}.mask"):
                ops.check(adapted.get(key).tobytes() == pruned.get(key).tobytes(),
                          f"{key}: attach changed it")
            # beta starts at zero, so merging a fresh adapter is the identity.
            ops.check(merged.get(n).tobytes() == pruned.get(n).tobytes(),
                      f"{n}: merging a zero-beta adapter changed the weight")
        _check_merged(ops, adapted, merged, self.names, self.r, 1.0)


WORKLOADS = {w.name: w for w in (Recovery64, Cli512, Ckpt1024)}
