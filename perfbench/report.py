"""Print every benchmark metric by name and unit, one column per workload.

    python3 perfbench/report.py            # end-to-end metrics, untraced runs
    python3 perfbench/report.py --trace    # per-layer table from traced runs

Run from the repository root.  Runs perfbench/run.py once per workload in
BENCHMARK.json, on seed 1 for run_seconds, and prints each run's
correctness tally under the table.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--trace", action="store_true", help="report the per-layer metrics")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    results = {}
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
             "--seconds", str(spec["run_seconds"]), "--trace", str(int(args.trace))],
            capture_output=True, text=True, check=True)
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(f"{'metric':<36} {'unit':<6} " + " ".join(f"{w:>16}" for w in workloads))
    for m in metrics:
        values = " ".join(f"{results[w]['metrics'][m['name']]['value']:>16.6g}" for w in workloads)
        print(f"{m['name']:<36} {m['unit']:<6} {values}")
    for w in workloads:
        r = results[w]
        print(f"{w}: correct={r['correct']} checks failed {r['failed']} of {r['attempted']} "
              f"(fail_ratio {r['failed'] / r['attempted']:.3g})")


if __name__ == "__main__":
    main()
