"""Benchmark worker: runs one workload in a child process of ``run.py``.

The launcher pins BLAS to one thread and puts the checkout's ``src`` on
``PYTHONPATH`` before starting this process. Modes:

- timed (``--trace 0``): set up ``SETUP_REPEATS`` times, then run whole
  passes until ``--seconds`` have elapsed, with operation times normalized
  by the speed probe (``probe.py``). Reports ``setup_s``, ``peak_rss_mb``
  and ``pass_s`` in the result line, and the workload's named metrics in a
  table above it.
- traced (``--trace 1``): set up once, then run every operation of one
  pass twice, untraced and traced. Reports the per-layer metrics and the
  tracing overhead, and writes the spans under ``.perfbench_out/``.
- ``--profile``: one pass under cProfile; prints the top ``TOP_FRAMES``
  frames as text.
- ``--record-reference``: one pass at ``REFERENCE_SEED``; stores each
  operation's summary numbers in ``reference.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import ctypes
import io
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import uprop
import uprop.cli  # noqa: F401  (the tracer patches names bound in it)
from probe import SpeedProbe
from tracer import Tracer, layer_metrics
from workloads import REFERENCE_SEED, WORKLOADS, Context, SelfTimed, run_cli

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
TOP_FRAMES = 25
# summaries must match the reference this closely: float reordering
# passes, a different computation does not
RTOL, ATOL = 1e-6, 1e-9


def blas_threads():
    """Thread count reported by each OpenBLAS library loaded in this process."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path and path.startswith("/"):
                libs.add(path)
    counts = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(path).name] = fn()
                break
    return counts


def environment():
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def set_up(workload, ctx, probe=None):
    """Build the workload's inputs; returns (state, seconds).

    The time is normalized by ``probe`` while it samples, or comes from the
    child process that did the work.
    """
    mark = probe.mark() if probe else 0
    start = perf_counter()
    out = workload.setup(ctx)
    wall = perf_counter() - start
    if isinstance(out, SelfTimed):
        return out.value, out.seconds
    return out, probe.normalize(wall, mark) if probe else wall


class ReferenceMismatch(Exception):
    """An operation's output differs from the recorded reference."""


class Pass:
    """Runs the ops of one workload pass and keeps the tallies of a run.

    With a started ``SpeedProbe`` the operation times are normalized to
    reference speed; ``wall_s`` keeps the plain wall time.
    """

    def __init__(self, reference, probe=None):
        self.reference = reference       # op key -> summary, or None
        self.probe = probe
        self.samples = {}                # op kind -> [(seconds, size)]
        self.summaries = {}
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0

    def run(self, ops, tracer=None) -> float:
        busy = 0.0
        for op in ops:
            self.attempted += 1
            if tracer is not None:
                tracer.op = op.key
            try:
                mark = self.probe.mark() if self.probe else 0
                start = perf_counter()
                out = op.run()
                wall = perf_counter() - start
                if isinstance(out, SelfTimed):
                    elapsed, out = out.seconds, out.value
                elif self.probe is not None:
                    elapsed = self.probe.normalize(wall, mark)
                else:
                    elapsed = wall
                self.wall_s += wall
                # a wrong output still took its time: keep the sample
                busy += elapsed
                self.samples.setdefault(op.kind, []).append((elapsed, op.size))
                summary = op.check(out)
                self._compare(op.key, summary)
            except Exception:
                self.failed += 1
                print(f"operation {op.key} failed:\n{traceback.format_exc()}",
                      file=sys.stderr)
                continue
            self.summaries[op.key] = summary
        return busy

    def _compare(self, key, summary):
        if self.reference is None:
            return
        expected = self.reference.get(key)
        if expected is None or len(expected) != len(summary) or not np.allclose(
                summary, expected, rtol=RTOL, atol=ATOL):
            raise ReferenceMismatch(f"{key}: {summary} differs from reference {expected}")


def write_reference(doc):
    """One line per operation, so a diff shows which outputs moved."""
    blocks = []
    for name in sorted(doc):
        entries = ",\n".join(f"  {json.dumps(key)}: {json.dumps(values)}"
                             for key, values in sorted(doc[name].items()))
        blocks.append(f" {json.dumps(name)}: {{\n{entries}\n }}")
    REFERENCE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def print_table(title, rows):
    print(title)
    print(f"  {'metric':<48} {'value':>14}  {'unit':<6} {'n':>5}  tail")
    for name, value, unit, n, tail in rows:
        print(f"  {name:<48} {value:>14.6g}  {unit:<6} {n:>5}  {tail}")


def result_line(tally, metrics, units):
    return json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


def timed_run(workload, ctx, seconds, reference):
    ctx.speed_probe = True
    probe = None if getattr(workload, "self_timed", False) else SpeedProbe()
    sampling = probe.sampling if probe else contextlib.nullcontext
    setups = []
    for _ in range(SETUP_REPEATS):
        # start-up of the uprop CLI in a fresh process: interpreter and imports
        started = run_cli(ctx, "--help")
        if started.value.returncode != 0:
            raise RuntimeError(f"uprop --help failed: {started.value.stderr}")
        with sampling():
            state, built = set_up(workload, ctx, probe)
        setups.append(started.seconds + built)
    ops = workload.ops(ctx, state)
    tally = Pass(reference, probe)
    passes, walls = [], []
    begin = perf_counter()
    with sampling():
        while True:
            wall_before = tally.wall_s
            passes.append(tally.run(ops))
            walls.append(tally.wall_s - wall_before)
            if perf_counter() - begin + 0.5 * statistics.median(walls) >= seconds:
                break
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {"setup_s": statistics.median(setups),
               "peak_rss_mb": usage / 1024.0,
               "pass_s": statistics.median(passes)}
    error_rate = tally.failed / tally.attempted
    rows = ([("setup_s", metrics["setup_s"], "s", len(setups), ""),
             ("peak_rss_mb", metrics["peak_rss_mb"], "MB", 1, ""),
             ("error_rate", error_rate, "ratio", tally.attempted, "")]
            + workload.rows(tally.samples)
            + [("pass_s", metrics["pass_s"], "s", len(passes), ""),
               ("pass_wall_s", statistics.median(walls), "s", len(walls), "")])
    print_table(f"workload {workload.name}  seed {ctx.seed}  passes {len(passes)}", rows)
    return result_line(tally, metrics, {"setup_s": "s", "peak_rss_mb": "MB",
                                        "pass_s": "s"})


def traced_run(workload, ctx, reference):
    """Run every operation of one pass twice, untraced and traced.

    The order alternates per operation, so both runs of an operation see
    about the same machine state and their difference is the overhead of
    tracing.
    """
    tracer = Tracer()
    tally = Pass(reference)

    def with_tracer(fn):
        tracer.install()
        ctx.tracer = tracer
        try:
            return fn()
        finally:
            tracer.uninstall()
            ctx.tracer = None

    if getattr(workload, "traced_setup", False):
        tracer.op = "setup"
        state = with_tracer(lambda: set_up(workload, ctx)[0])
    else:
        state, _ = set_up(workload, ctx)
    untraced = traced = 0.0
    for i, op in enumerate(workload.ops(ctx, state)):
        if i % 2:
            traced += with_tracer(lambda: tally.run([op], tracer))
            untraced += tally.run([op])
        else:
            untraced += tally.run([op])
            traced += with_tracer(lambda: tally.run([op], tracer))
    metrics, absent = layer_metrics(tracer, traced / untraced - 1.0)
    units = {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())["per_layer"]}
    if set(metrics) | set(absent) != set(units):
        sys.exit(f"per-layer metrics {sorted(set(metrics) | set(absent))} "
                 f"do not match {SPEC.name} {sorted(units)}")
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"trace-{workload.name}.jsonl"
    tracer.dump(spans)
    print(f"# {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}; "
          f"untraced {untraced:.3f} s, traced {traced:.3f} s")
    if absent:
        print(f"# absent (no patch point left): {sorted(absent)}")
    print_table(f"workload {workload.name}  seed {ctx.seed}  traced",
                [(name, value, units[name], 1, "") for name, value in metrics.items()])
    return result_line(tally, metrics, units)


def profiled_run(workload, ctx):
    state, _ = set_up(workload, ctx)
    ops = workload.ops(ctx, state)
    tally = Pass(None)
    profiler = cProfile.Profile()
    profiler.enable()
    tally.run(ops)
    profiler.disable()
    if ctx.profile_dir is None:
        stats = [("worker", pstats.Stats(profiler))]
    else:  # the worker only waits for the CLI processes; show theirs
        stats = [(p.stem, pstats.Stats(str(p)))
                 for p in sorted(ctx.profile_dir.glob("*.prof"))]
    for label, st in stats:
        for order in ("cumulative", "tottime"):
            buf = io.StringIO()
            st.stream = buf
            st.sort_stats(order).print_stats(TOP_FRAMES)
            print(f"== {workload.name} / {label}: top {TOP_FRAMES} frames by {order}")
            print(buf.getvalue().strip())
    return result_line(tally, {}, {})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(uprop.__file__).resolve().parents:
        sys.exit(f"uprop was imported from {uprop.__file__}, not from {src}")
    workload = WORKLOADS[args.workload]
    ctx = Context(seed=args.seed, root=ROOT, tmp=Path(args.tmp), env=dict(os.environ))
    ctx.tmp.mkdir(parents=True, exist_ok=True)
    print("# env " + json.dumps(environment(), sort_keys=True))

    reference = None
    if args.seed == REFERENCE_SEED and not args.record_reference:
        reference = json.loads(REFERENCE.read_text()).get(workload.name)
        if reference is None:
            sys.exit(f"no reference values for {workload.name} in {REFERENCE.name}")
    try:
        if args.record_reference:
            if args.seed != REFERENCE_SEED:
                sys.exit(f"reference values are recorded at seed {REFERENCE_SEED}")
            tally = Pass(None)
            tally.run(workload.ops(ctx, set_up(workload, ctx)[0]))
            if tally.failed:
                sys.exit("an operation failed; reference not recorded")
            doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
            doc[workload.name] = tally.summaries
            write_reference(doc)
            line = result_line(tally, {}, {})
        elif args.profile:
            if workload.name == "cli":
                ctx.profile_dir = ctx.tmp / "profile"
                ctx.profile_dir.mkdir(exist_ok=True)
            line = profiled_run(workload, ctx)
        elif args.trace:
            line = traced_run(workload, ctx, reference)
        else:
            line = timed_run(workload, ctx, args.seconds, reference)
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
    print(line)


if __name__ == "__main__":
    main()
