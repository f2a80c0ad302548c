"""One repetition of a workload, in a fresh interpreter.

Run by run.py with ``src`` on PYTHONPATH, so every lru and module cache in
esdsim starts cold, as in a user's invocation.  Prints one JSON object: the
monotonic time at which set-up finished, the body's wall time, peak RSS, a
digest of every output byte, the failed checks, outcome counts and, when
traced, the per-layer aggregates.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import time
from pathlib import Path

from esdsim import cli, protocols

from tracing import Tracer
from workloads import WORKLOADS, Outputs


def run_body(argvs: list[list[str]], conclusive_dims: tuple[int, ...]) -> Outputs:
    """The timed part: every CLI command, then the direct library calls."""
    out = Outputs()
    for argv in argvs:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            out.exit_codes.append(cli.run(argv))
        out.stdout.append(captured.getvalue())
    for d in conclusive_dims:
        out.conclusive[d] = protocols.generalized_conclusive_probability(d)
    return out


def collect(commands, workdir: Path, out: Outputs) -> tuple[str, int]:
    """Read each command's output file into `out`; return a digest of every
    output byte and the byte count."""
    digest = hashlib.sha256()
    bytes_out = 0
    for cmd, text in zip(commands, out.stdout):
        path = workdir / cmd.out
        data = path.read_bytes() if path.exists() else b""
        out.files.append(data.decode("utf-8", errors="replace"))
        for chunk in (text.encode(), data):
            digest.update(len(chunk).to_bytes(8, "little") + chunk)
            bytes_out += len(chunk)
    digest.update(repr(sorted(out.conclusive.items())).encode())
    return digest.hexdigest(), bytes_out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", help="trace the layers and write the spans here")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    commands = workload.commands(args.seed, args.scale)
    shutil.rmtree(args.workdir, ignore_errors=True)
    args.workdir.mkdir(parents=True)
    argvs = [[*cmd.argv, "--out", str(args.workdir / cmd.out)] for cmd in commands]
    tracer = Tracer()
    if args.spans:
        tracer.install()
    setup_done = time.monotonic()

    start = time.perf_counter()
    out = run_body(argvs, workload.conclusive_dims)
    run_s = time.perf_counter() - start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    digest, bytes_out = collect(commands, args.workdir, out)
    checks, outcomes = workload.check(commands, out)

    result = {
        "setup_done": setup_done,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_kb / 1024,
        "digest": digest,
        "bytes_out": bytes_out,
        "trials": sum(cmd.trials for cmd in commands),
        "outcomes": dict(outcomes),
        "attempted": len(checks.results),
        "failed": checks.failed(),
    }
    if args.spans:
        result["layers"] = tracer.aggregate()
        tracer.dump(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
