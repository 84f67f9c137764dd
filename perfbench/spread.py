"""Run-to-run spread of every metric over several seeds.

    python3 perfbench/spread.py --workload stream --seeds 1-10 [--out FILE]

Runs ``run.py`` once per seed (tracing off) and, for every metric in the
tables and in the result line, prints the median, the first and third
quartiles (``statistics.quantiles(n=4)``) and their distance as a share
of the median. ``--out`` also stores the figures as JSON. Use it to check
that the benchmark is steady and to record baselines; it is not a timed
run itself.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), None)
    table = {}
    for line in lines:
        parts = line.split()
        # table rows: name value unit n [tail]
        if line.startswith("  ") and len(parts) >= 4 and parts[3].isdigit() \
                and parts[0] != "metric":
            table[parts[0]] = (float(parts[1]), parts[2])
    for name, m in result["metrics"].items():
        table[name] = (m["value"], m["unit"])
    return result, table, env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    values, units, failed = {}, {}, 0
    walls = []
    for seed in args.seeds:
        start = perf_counter()
        result, table, env = one_run(args.workload, seed, args.seconds)
        walls.append(perf_counter() - start)
        failed += result["failed"]
        for name, (value, unit) in table.items():
            values.setdefault(name, []).append(value)
            units[name] = unit
        print(f"seed {seed} ({walls[-1]:.1f} s): "
              + ", ".join(f"{k}={v:.6g}" for k, (v, _) in table.items()), flush=True)
    summary = {}
    print(f"{args.workload}: {len(args.seeds)} runs, {failed} failed operations, "
          f"{statistics.mean(walls):.1f} s per run")
    print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/median':>11}  unit")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "values": vals}
        print(f"  {name:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>11.4f}  "
              f"{units[name]}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "env": env, "seeds": args.seeds, "failed": failed,
             "wall_s_per_run": statistics.mean(walls), "metrics": summary},
            indent=1) + "\n")


if __name__ == "__main__":
    main()
