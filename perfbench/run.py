"""uprop benchmark launcher.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME|all --profile
    python3 perfbench/run.py --workload NAME|all --record-reference

Run from the root of a checkout. Each workload runs in a fresh worker
process (perfbench/worker.py) that imports uprop from this checkout's
src/ and whose BLAS is pinned to one thread through its environment. The
worker's tables are printed first; the last line is one JSON object with
correct, attempted, failed and the metrics BENCHMARK.json declares:
end-to-end ones with --trace 0, per-layer ones with --trace 1. With
``--workload all`` every workload runs in turn and the metric names in the
last line are prefixed with the workload name.

Exits 2 without a result when the checkout has no uprop sources, and 1
when a worker fails or reports metrics that BENCHMARK.json does not
declare.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_desk", "stream", "offline_eval", "cli")
WORKER_TIMEOUT_S = 175
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_worker(workload, args) -> tuple[list, dict]:
    """Run one worker; returns its output lines and its parsed result."""
    tmp = ROOT / ".perfbench_tmp" / f"{workload}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp)]
    if args.profile:
        cmd.append("--profile")
    if args.record_reference:
        cmd.append("--record-reference")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(tmp, ignore_errors=True)
        sys.exit(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        shutil.rmtree(tmp, ignore_errors=True)
        sys.stdout.write(out)
        sys.exit(f"{workload}: worker exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.exit(f"{workload}: worker printed no result line")
    return lines[:-1], result


def validate(workload, result, declared, trace, exact):
    """Check the result against the metrics BENCHMARK.json declares."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{workload}: result keys {sorted(result)}")
    metrics = result["metrics"]
    names = set(metrics)
    # per-layer metrics whose patch point disappeared are reported absent
    if (exact and names != set(declared)) or not names <= set(declared):
        sys.exit(f"{workload}: metrics {sorted(names)} do not match "
                 f"BENCHMARK.json {sorted(declared)}")
    for name, m in metrics.items():
        if m.get("unit") != declared[name] or not isinstance(m.get("value"), (int, float)) \
                or not math.isfinite(m["value"]):
            sys.exit(f"{workload}: bad metric {name}: {m}")
        if not trace and m["value"] == 0 and result["correct"]:
            sys.exit(f"{workload}: end-to-end metric {name} is 0")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="one untimed pass under cProfile; prints the top frames")
    parser.add_argument("--record-reference", action="store_true",
                        help="store the outputs of one pass at the reference seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "uprop" / "__init__.py").is_file():
        print(f"no uprop sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        lines, result = run_worker(workload, args)
        print("\n".join(lines), flush=True)
        if not (args.profile or args.record_reference):
            validate(workload, result, declared, args.trace, exact=not args.trace)
        if len(workloads) == 1:
            total = result
            break
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{workload}.{name}": m
                                 for name, m in result["metrics"].items()})
    try:
        (ROOT / ".perfbench_tmp").rmdir()
    except OSError:
        pass  # absent, or another run still uses it
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
