#!/usr/bin/env python3
"""spp benchmark: run one closed-loop workload, untraced or traced.

From the root of a checkout:

    python3 perfbench/run.py --workload cli-512 --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): recovery-64, cli-512, ckpt-1024.

--trace 0  measures the end-to-end metrics with no tracing.  Timings are
           reported at reference speed (see reference.py); the measured
           figures are printed beside them.
--trace 1  measures the per-layer metrics: one memory pass under
           tracemalloc, then untraced and traced passes in turn until
           --seconds is used up (see tracing.py).

Human-readable lines come first: the machine, every metric with its unit,
and in traced mode the end-to-end metric each layer metric should move.  The
last line of standard output is one JSON object with the keys "correct",
"attempted", "failed" and "metrics"; its metrics are exactly those that
BENCHMARK.json declares for the mode.  The exit status is 0 only when every
program call and every correctness check passed.

Seeds 1-10 are the measurement seeds; a claimed gain must also hold on the
held-out seed 1009.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

HELD_OUT_SEED = 1009
IMPORT_REPS = 9  # fresh interpreters timed per run for setup_s
BUILD_REPS = 5  # task builds timed per run for setup_s
MIN_PASSES = 3  # medians need at least this many passes per run
STAGES = ("prune", "attach", "merge", "verify")

# Measure the program single-threaded: BLAS and OpenMP pools must not start.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import spp, spp.cli; "
    "print(repr(time.perf_counter() - t))"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("recovery-64", "cli-512", "ckpt-1024"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_info():
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy,
            "threads": {var: os.environ[var] for var in THREAD_VARS[:2]}}


def fresh_import_seconds(root):
    """Import time of spp and spp.cli in a fresh interpreter, timed inside it."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Pass:
    def __init__(self, ops, extra, elapsed):
        self.times = ops.times  # stage -> seconds spent in program calls
        self.samples = ops.samples  # stage -> seconds of each timed call
        self.extra = extra
        self.elapsed = elapsed  # including the benchmark's checks
        self.scale = 1.0  # to reference speed, see reference.py

    @property
    def wall(self):
        return sum(self.times.values())


def one_pass(workload, ops, memory=False):
    ops.times, ops.samples = {}, {}
    start = perf_counter()
    extra = workload.run_pass(ops, memory)
    return Pass(ops, extra, perf_counter() - start)


class Setup:
    """setup_s: the median fresh-interpreter import plus the median task
    build, scaled to reference speed by the probe runs during set-up."""

    def __init__(self, root, workload, ops):
        import reference  # after the thread pins, like every NumPy user here

        ops.probe = reference.SpeedProbe()
        with ops.probe.running():
            self.imports = [ops.call("import", fresh_import_seconds, root)
                            for _ in range(IMPORT_REPS)]
            self.builds = []
            for _ in range(BUILD_REPS):
                ops.times = {}
                workload.build(ops)
                self.builds.append(ops.times.get("setup", 0.0))
        self.scale = ops.probe.scale(ops.probe.samples)
        ops.probe = None
        self.measured = statistics.median(self.imports) + statistics.median(self.builds)


def run_untraced(workload, ops, seconds):
    """Passes until the next one would overrun, each scaled to reference
    speed by the probe runs that fell inside it (see reference.py)."""
    import reference  # after the thread pins, like every NumPy user here

    deadline = perf_counter() + seconds
    passes = []
    ops.probe = reference.SpeedProbe()
    with ops.probe.running():
        while True:
            first = len(ops.probe.samples)
            passes.append(one_pass(workload, ops))
            passes[-1].scale = ops.probe.scale(ops.probe.samples[first:] or ops.probe.samples)
            typical = statistics.median(p.elapsed for p in passes)
            if len(passes) >= MIN_PASSES and perf_counter() + typical > deadline:
                break
    ops.probe = None
    return passes


def run_traced(workload, ops, seconds, tracer):
    deadline = perf_counter() + seconds
    ops.tracer = tracer
    with tracer.traced_pass(memory=True):
        one_pass(workload, ops, memory=True)
    untraced, traced = [], []
    while True:
        ops.tracer = None
        untraced.append(one_pass(workload, ops))
        ops.tracer = tracer
        with tracer.traced_pass(memory=False):
            traced.append(one_pass(workload, ops))
        ops.tracer = None
        pair = statistics.median(u.elapsed + t.elapsed for u, t in zip(untraced, traced))
        if perf_counter() + pair > deadline:
            return untraced, traced


def end_to_end(passes, setup, ops, scaled=True):
    """Every end-to-end metric named for the benchmark, as {name: (value, unit)}.

    wall_s is the median over passes of the time spent in program calls;
    the stage times are medians over every timed call of the stage.  With
    ``scaled``, every timing is at reference speed: each pass, and set-up,
    multiplied by its own scale (see reference.py); without, as measured.
    train_steps_per_s and recovery_gain exist only where the workload trains.
    """
    med = statistics.median

    def scale(part):
        return part.scale if scaled else 1.0

    metrics = {"setup_s": (setup.measured * scale(setup), "s"),
               "wall_s": (med(p.wall * scale(p) for p in passes), "s")}
    train_time = sum(p.times.get("train", 0.0) * scale(p) for p in passes)
    if train_time:
        steps = sum(p.extra["train_steps"] for p in passes)
        metrics["train_steps_per_s"] = (steps / train_time, "1/s")
    for stage in STAGES:
        calls = [s * scale(p) for p in passes for s in p.samples[stage]]
        metrics[f"{stage}_s"] = (med(calls), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    if "recovery_gain" in passes[0].extra:
        metrics["recovery_gain"] = (passes[-1].extra["recovery_gain"], "frac")
    metrics["failed_frac"] = (ops.failed / max(ops.attempted, 1), "frac")
    return metrics


def print_table(metrics, notes=None, measured=None):
    for name, (value, unit) in metrics.items():
        note = f"  {notes[name]}" if notes and name in notes else ""
        if measured and measured[name][0] != value:
            note += f"  (measured {measured[name][0]:.6g})"
        print(f"  {name:32s} {value:>16.6g} {unit:6s}{note}")


def declared(root, key):
    with open(root / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[key]]


def main(argv=None):
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "spp" / "__init__.py").is_file():
        print(f"error: {src / 'spp'} is missing; run from the root of an spp checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import spp

    if Path(spp.__file__).resolve().parent != (src / "spp").resolve():
        print(f"error: imported spp from {spp.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS, Failure, Ops

    workload = WORKLOADS[args.workload]()
    ops = Ops()
    wanted = declared(root, "per_layer" if args.trace else "end_to_end")
    print(f"# spp benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} (held-out seed {HELD_OUT_SEED})")
    print(f"# machine: {json.dumps(machine_info(), sort_keys=True)}")

    metrics = {}
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        workload.prepare(args.seed, workdir)
        setup = Setup(root, workload, ops)
        print(f"# setup: median of {len(setup.imports)} fresh-interpreter imports "
              f"{statistics.median(setup.imports):.4f} s + median of {len(setup.builds)} "
              f"task builds {statistics.median(setup.builds):.4f} s, measured; "
              f"scale {setup.scale:.4f}")
        if args.trace:
            tracer = tracing.Tracer()
            untraced, traced = run_traced(workload, ops, args.seconds, tracer)
            metrics = tracing.layer_metrics(tracer, [p.wall for p in untraced],
                                            [p.wall for p in traced])
            print(f"# traced: 1 memory pass, {len(untraced)} untraced and {len(traced)} traced "
                  "passes; per-pass medians; (computed) = derived from shapes, nnz and file "
                  "sizes, not hardware counters")
            if tracer.missing:
                print(f"# not present in this program, so not traced: {', '.join(tracer.missing)}")
            notes = {name: f"moves {moves}; most/least on {where}"
                     + (" (computed)" if name in tracing.COMPUTED else "")
                     for name, _u, _b, moves, where in tracing.LAYER_METRICS}
            print_table(metrics, notes)
            shares = tracing.layer_shares(tracer)
            print("# self-time share of traced passes: " + ", ".join(
                f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        else:
            passes = run_untraced(workload, ops, args.seconds)
            print(f"# {len(passes)} passes; timings below are at reference speed: "
                  "measured x scale (reference.py)")
            print("# measured pass walls: " + " ".join(f"{p.wall:.4f}" for p in passes))
            print("# pass scales: " + " ".join(f"{p.scale:.4f}" for p in passes))
            metrics = end_to_end(passes, setup, ops)
            measured = end_to_end(passes, setup, ops, scaled=False)
            print_table(metrics, measured=measured)
            print("# measured: " + json.dumps({name: value for name, (value, _u)
                                               in measured.items()}))
    except Failure as exc:
        traceback.print_exc()
        print(f"# FAILED: {exc}")
    finally:
        shutil.rmtree(workdir)

    correct = ops.failed == 0
    missing = [name for name in wanted if name not in metrics]
    if correct and missing:
        raise RuntimeError(f"BENCHMARK.json declares metrics this run did not produce: {missing}")
    result = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted if name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
