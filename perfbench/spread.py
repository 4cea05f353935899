"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/spread.py [--workloads all|NAME,NAME] [--seeds 1-10] \
        [--seconds N] [--out FILE]

With one seed it is the one command that runs every workload, checks every
output and prints every end-to-end metric by name with its unit.  For every
workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median and the
metric's bound from BENCHMARK.json.  Runs are sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"error: {workload} seed {seed} reported correct=false")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    names = ([w["name"] for w in spec["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    summary = {}
    for workload in names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            result = run_once(spec, workload, seed, seconds)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: correct, {result['failed']} of "
                  f"{result['attempted']} failed; " + ", ".join(
                      f"{k}={v[-1]:.6g} {units[k]}" for k, v in values.items()), flush=True)
        rows = {}
        for name, vals in values.items():
            if len(vals) < 2:
                break
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": vals}
            print(f"  {workload:18s} {name:15s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  spread {spread:.4f}  bound {bounds[name]}", flush=True)
        summary[workload] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
