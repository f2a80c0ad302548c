"""esdsim benchmark: time the README CLI commands end to end.

    python3 perfbench/run.py --workload qkd-mc --seed 1 --seconds 35 --trace 0

Run from the repository root.  Load is a closed loop with one client: each
repetition is a fresh single-threaded Python process (child.py) that runs
the workload body once, and the next starts only after it has exited.
Repetitions continue while the next one is expected to end within
--seconds (at least MIN_REPS are made).

--trace 0 reports the end-to-end metrics named in BENCHMARK.json as
medians over the repetitions.  Times are scaled to a machine of fixed
speed (see speed.py): right before each untraced repetition a fresh
process times a fixed reference loop, and that repetition's times are
multiplied by REFERENCE_S / (its reference loop time).  The raw medians
are printed too.  The run and everything it starts are pinned to one CPU.  --trace 1 alternates untraced and traced
repetitions and reports the per-layer metrics, the traced run time and the
tracing overhead; the spans of the last traced repetition are written to
.perfbench/spans-<workload>.json.

Human-readable lines come first; the last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.  Exits 1 without that line
if a repetition crashes or the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S
from tracing import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
# Cap on --seconds, so that a run ends within 180 s.
WALL_LIMIT_S = 120
WORK = Path(".perfbench")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, env: dict[str, str], spans: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--scale", str(args.scale), "--workdir", str(WORK / "work")]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perfbench: repetition exited with code {proc.returncode}")
    rep = json.loads(lines[-1])
    rep["setup_s"] = rep["setup_done"] - spawned
    return rep


def reference_time(env: dict[str, str]) -> float:
    """Time of speed.reference_loop, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "speed.py")], env=env, capture_output=True, text=True,
                          check=True, timeout=CHILD_TIMEOUT_S)
    return float(proc.stdout)


def median_of(reps: list[dict], key) -> float:
    return statistics.median(key(rep) for rep in reps)


# End-to-end metrics of one repetition and the power of its speed factor,
# REFERENCE_S / reference_s, that each scales with; a run reports the
# medians of the scaled values.
END_TO_END = {
    "run_s": (lambda r: r["run_s"], 1),
    "setup_s": (lambda r: r["setup_s"], 1),
    "trials_per_s": (lambda r: r["trials"] / r["run_s"], -1),
    "peak_rss_mb": (lambda r: r["peak_rss_mb"], 0),
}


def end_to_end(reps: list[dict]) -> dict[str, float]:
    """Medians of the end-to-end metrics, each repetition scaled to the reference speed."""
    return {name: median_of(reps, lambda r: key(r) * (REFERENCE_S / r["reference_s"])**power)
            for name, (key, power) in END_TO_END.items()}


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Medians over the traced repetitions; a function absent from the
    program reads as zero calls and zero time."""
    names = {name for rep in traced for name in rep["layers"]}
    out = {name: median_of(traced, lambda r: r["layers"].get(name, 0)) for name in names}
    trials = traced[0]["trials"]
    outcomes = traced[0]["outcomes"]
    conclusive = sum(v for k, v in outcomes.items() if k.startswith("conclusive("))
    traced_run_s = median_of(traced, lambda r: r["run_s"])
    out.update({
        "cli.trials": trials,
        "cli.bytes_out": traced[0]["bytes_out"],
        "optics.evolutions_per_trial": out.get("optics.apply_mode_unitary.calls", 0) / trials,
        "discrimination.conclusive_ratio": conclusive / trials,
        "discrimination.parity_pass_ratio": 1 - outcomes.get("postselect_fail", 0) / trials,
        "trace.run_s": traced_run_s,
        # Per pair of neighbouring repetitions, so that drift in machine speed cancels.
        "trace.overhead_ratio": statistics.median(t["run_s"] / p["run_s"] for p, t in zip(plain, traced)),
        "trace.coverage": median_of(
            traced, lambda r: sum(r["layers"][f"{layer}.self_s"] for layer in LAYERS) / r["run_s"]),
    })
    return out


def tally(reps: list[dict]) -> tuple[int, list[str]]:
    """Checks attempted and the names of those failed, over all repetitions.

    Every repetition uses the same seed, so each one after the first adds a
    check that its output bytes equal the first repetition's."""
    failures = [name for rep in reps for name in rep["failed"]]
    failures += ["output bytes differ between repetitions" for rep in reps[1:] if rep["digest"] != reps[0]["digest"]]
    return sum(rep["attempted"] for rep in reps) + len(reps) - 1, failures


def describe(name: str, unit: str, values: list[float], label: str = "") -> str:
    """One table line: median, quartiles, max and sample count."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"{name:<20} {unit:<6} {label}median={statistics.median(values):<12.6g} q1={q1:<12.6g} "
            f"q3={q3:<12.6g} max={max(values):<12.6g} n={len(values)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="multiply every trial count (tests use it)")
    args = parser.parse_args()

    if not Path("src/esdsim/__init__.py").is_file() or not Path("BENCHMARK.json").is_file():
        sys.exit("perfbench: run from the repository root; src/esdsim or BENCHMARK.json is missing")
    spec = json.loads(Path("BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # Pin to one CPU, so that each reference loop and the repetition after it
    # run on the same core; the children inherit the affinity.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = child_env()
    WORK.mkdir(exist_ok=True)
    # Compile bytecode and warm the file cache before the first timed process.
    subprocess.run([sys.executable, "-c", "import esdsim.cli"], env=env, check=True, timeout=CHILD_TIMEOUT_S)
    spans = WORK / f"spans-{args.workload}.json" if args.trace else None
    plain: list[dict] = []
    traced: list[dict] = []
    deadline = time.monotonic() + min(args.seconds, WALL_LIMIT_S)
    last = 0.0  # duration of the last iteration; one more must fit before the deadline
    try:
        while len(plain) < MIN_REPS or time.monotonic() + last <= deadline:
            began = time.monotonic()
            reference_s = reference_time(env)
            plain.append(run_child(args, env, None) | {"reference_s": reference_s})
            if spans is not None:
                traced.append(run_child(args, env, spans))
            last = time.monotonic() - began
    finally:
        shutil.rmtree(WORK / "work", ignore_errors=True)

    attempted, failures = tally(plain + traced)
    failed = len(failures)

    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} repetitions={len(plain)}"
          f" untraced, {len(traced)} traced; checks {attempted - failed}/{attempted} passed")
    print(f"reference loop: median {median_of(plain, lambda r: r['reference_s']):.6g} s,"
          f" scaled to {REFERENCE_S} s")
    for name in sorted(set(failures)):
        print(f"FAILED: {name}")
    for m in wanted:
        if args.trace:
            print(f"{m['name']:<40} {m['unit']:<6} {metrics.get(m['name'], 0):.6g}")
        else:
            key, power = END_TO_END[m["name"]]
            raw = "raw " if power else ""
            print(describe(m["name"], m["unit"], [key(r) for r in plain], raw), f"reported={metrics[m['name']]:.6g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
