"""Record a baseline: every workload on seeds 1-10, plus one traced run each.

    python3 perfbench/baseline.py --out perfbench/results/BENCH_<label>.json

Run from the repository root.  For each end-to-end metric the file keeps
the value of every run and, over the runs, the median, quartiles (as
statistics.quantiles(values, n=4) gives them) and spread, which is the
distance between the quartiles as a share of the median.  It also records
the interpreter, numpy version, CPU count and load average, since wall
times on a shared machine vary between processes.
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

import numpy

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "min": min(values), "max": max(values), "n": len(values), "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    record = {
        "machine": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or platform.machine(),
            "loadavg_start": os.getloadavg(),
        },
        "run_seconds": seconds,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for seed in SEEDS:
            result = run_once(workload, seed, seconds, 0)
            runs.append({"seed": seed, **result})
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        metrics = {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
                   for m in spec["end_to_end"]}
        for name, s in metrics.items():
            print(f"  {name}: median {s['median']:.6g}, quartiles {s['q1']:.6g}..{s['q3']:.6g}, "
                  f"spread {s['spread']:.4f}", flush=True)
        traced = run_once(workload, 1, seconds, 1)
        record["workloads"][workload] = {
            "end_to_end": metrics,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "traced_seed_1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    record["machine"]["loadavg_end"] = os.getloadavg()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
