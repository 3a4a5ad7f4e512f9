"""Run the benchmark over several seeds and summarise, or record a trajectory entry.

    python3 perfbench/record.py --seeds 1-10 [--workloads term-huge,...]
    python3 perfbench/record.py --seeds 1-10 --trace-seed 1 --label L --commit C \\
        --out perfbench/BENCH_<label>.json

For every workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median next to the metric's bound from BENCHMARK.json.  With --out it also
makes one traced run per workload and writes everything as one JSON entry.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{done.stderr}")
    return result


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--label", default=None, help="trajectory label, e.g. seed")
    parser.add_argument("--commit", default=None, help="commit the numbers are of")
    args = parser.parse_args()

    entry = {
        "label": args.label,
        "commit": args.commit,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs,"
                   f" {platform.python_implementation()} {platform.python_version()},"
                   f" {platform.system()}",
        "run_seconds": bench["run_seconds"],
        "seeds": args.seeds,
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, bench["run_seconds"], 0) for seed in args.seeds]
        summary = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            summary[metric["name"]] = {"unit": metric["unit"], "median": median, "q1": q1,
                                       "q3": q3, "spread": spread, "values": values}
            flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
            print(f"{workload:<13} {metric['name']:<12} median {median:<12.6g}"
                  f" spread {spread:.4f} bound {metric['bound']} {flag}"
                  f" [{' '.join(f'{v:.4g}' for v in values)}]", flush=True)
        entry["end_to_end"][workload] = summary
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, bench["run_seconds"], 1)
            entry["per_layer"][workload] = {
                name: m["value"] for name, m in traced["metrics"].items()}
    if args.out:
        entry["recorded"] = time.strftime("%Y-%m-%d")
        args.out.write_text(json.dumps(entry, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
