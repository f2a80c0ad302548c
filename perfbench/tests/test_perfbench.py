"""Tests of the benchmark itself: a tiny smoke run of every workload, and
correctness checks that must catch tampered outputs.

    python3 -m pytest perfbench/tests -q      (from the repository root)
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from child import collect, run_body  # noqa: E402
from run import end_to_end, tally  # noqa: E402
from speed import REFERENCE_S, reference_loop  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = 0.01


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--scale", str(SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.fixture(scope="module")
def genuine(tmp_path_factory):
    """Untampered outputs of one small repetition of each workload."""
    produced = {}
    for name, workload in WORKLOADS.items():
        workdir = tmp_path_factory.mktemp(name)
        commands = workload.commands(5, 5 * SCALE)
        out = run_body([[*c.argv, "--out", str(workdir / c.out)] for c in commands], workload.conclusive_dims)
        collect(commands, workdir, out)
        produced[name] = (commands, out)
    return produced


def _failures(name, commands, out):
    checks, _ = WORKLOADS[name].check(commands, out)
    return checks.failed()


def _replace_line(text, index, edit):
    lines = text.split("\n")
    lines[index] = edit(lines[index])
    return "\n".join(lines)


def _flip_key_symbol(text):
    """Corrupt the Bob symbol of the first sifted CSV row."""
    lines = text.split("\n")
    i = next(i for i, line in enumerate(lines) if line.split(",")[6:7] == ["1"])
    fields = lines[i].split(",")
    fields[8] = str((int(fields[8]) + 1) % 3)
    lines[i] = ",".join(fields)
    return "\n".join(lines)


def _set_json(text, key, value):
    report = json.loads(text)
    report[key] = value
    return json.dumps(report)


TAMPERS = {
    "qkd-mc: corrupted key symbol": ("qkd-mc", lambda out: out.files.__setitem__(0, _flip_key_symbol(out.files[0]))),
    "qkd-mc: truncated csv": ("qkd-mc", lambda out: out.files.__setitem__(0, out.files[0].rsplit("\n", 2)[0] + "\n")),
    "qkd-mc: wrong key rate": ("qkd-mc", lambda out: out.files.__setitem__(
        1, _replace_line(out.files[1], 5, lambda line: line.replace(",0.", ",1.", 1)))),
    "qkd-mc: nonzero exit": ("qkd-mc", lambda out: out.exit_codes.__setitem__(2, 3)),
    "teleport-mc: wrong fidelity": ("teleport-mc", lambda out: out.files.__setitem__(
        0, _set_json(out.files[0], "mean_conclusive_fidelity", 0.999))),
    "teleport-mc: garbled report": ("teleport-mc", lambda out: out.files.__setitem__(0, out.files[0][:-20])),
    "classify-scale: wrong counts": ("classify-scale", lambda out: out.files.__setitem__(
        2, _set_json(out.files[2], "counts", {"postselect_fail": 30}))),
    "classify-scale: wrong conclusive probability": ("classify-scale",
                                                     lambda out: out.conclusive.__setitem__(4, 0.3)),
}


@pytest.mark.parametrize("case", sorted(TAMPERS))
def test_tampered_output_fails_a_check(genuine, case):
    name, tamper = TAMPERS[case]
    commands, out = genuine[name]
    assert _failures(name, commands, out) == []
    bad = copy.deepcopy(out)
    tamper(bad)
    assert _failures(name, commands, bad)


def test_output_bytes_differing_between_repetitions_fail():
    rep = {"attempted": 4, "failed": [], "digest": "a"}
    attempted, failures = tally([rep, dict(rep), dict(rep, digest="b")])
    assert attempted == 3 * 4 + 2
    assert failures == ["output bytes differ between repetitions"]


def test_times_scale_with_each_repetitions_reference_loop():
    # Three repetitions of the same work on a machine running at full, half
    # and double the reference speed all read as the reference-speed time.
    reps = [{"run_s": 2.0 * f, "setup_s": 0.3 * f, "trials": 100, "peak_rss_mb": 40.0, "reference_s": REFERENCE_S * f}
            for f in (1.0, 2.0, 0.5)]
    metrics = end_to_end(reps)
    assert metrics["run_s"] == pytest.approx(2.0)
    assert metrics["setup_s"] == pytest.approx(0.3)
    assert metrics["trials_per_s"] == pytest.approx(50.0)
    assert metrics["peak_rss_mb"] == 40.0


def test_reference_loop_takes_time():
    assert 0.0 < reference_loop() < 60.0
