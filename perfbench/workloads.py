"""The benchmark's workloads and the correctness checks on their outputs.

Each workload is a fixed list of README CLI commands (plus, for
classify-scale, direct calls of `generalized_conclusive_probability`).  The
workload seed becomes every command's ``--seed``; nothing else depends on
it.  See README.md in this directory for why each workload exists.

Checks read only the bytes a repetition produced, so a test can tamper with
them.  A check that cannot even parse its input fails; it never raises.
Statistical checks compare a sampled rate with its analytic value and fail
when the normal-approximation z score exceeds `Z_BOUND`.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

# Two-sided tail of 5 sigma is 5.7e-7 per check, so false failures stay
# negligible over all the checks of many benchmark runs.
Z_BOUND = 5.0

ETA = 0.9
NOISE = 0.1
KEYRATE_DIMS = (2, 3, 4, 5)
Q_STEP = 0.002
Q_MAX = 0.12
THRESHOLD_DIMS = range(2, 11)
CLASSIFY_DIMS = (2, 3, 4)

QKD_HEADER = "trial,alice_basis,alice_value,bob_basis,bob_value,outcome,sifted,alice_symbol,bob_symbol"
BASES = ("computational", "mub")


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `out` is the file name given to ``--out``."""

    argv: tuple[str, ...]
    out: str
    trials: int = 0


@dataclass
class Outputs:
    """What one repetition produced, in command order."""

    exit_codes: list[int] = field(default_factory=list)
    stdout: list[str] = field(default_factory=list)
    files: list[str] = field(default_factory=list)
    conclusive: dict[int, float] = field(default_factory=dict)  # d -> generalized_conclusive_probability(d)


class Checks:
    """Named pass/fail results of one repetition."""

    def __init__(self):
        self.results: list[tuple[str, bool]] = []

    def add(self, name: str, test: Callable[[], bool]) -> None:
        try:
            ok = bool(test())
        except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError, AttributeError):
            ok = False
        self.results.append((name, ok))

    def failed(self) -> list[str]:
        return [name for name, ok in self.results if not ok]


def z_ok(observed: float, expected: float, n: int) -> bool:
    """True when a sampled rate over n trials is within Z_BOUND sigma of p."""
    sigma = math.sqrt(expected * (1.0 - expected) / n)
    if sigma == 0.0:
        return observed == expected
    return abs(observed - expected) <= Z_BOUND * sigma


def _trials(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def _exits_ok(checks: Checks, commands: tuple[Command, ...], out: Outputs) -> None:
    for i, cmd in enumerate(commands):
        checks.add(f"exit 0: {' '.join(cmd.argv[:3])}", lambda i=i: out.exit_codes[i] == 0)


# -- qkd-mc ----------------------------------------------------------------------


def expected_r_d(d: int, q: float) -> float:
    """Rate per sifted signal, log2 d + 2(1-Q) log2(1-Q) + 2Q log2(Q/(d-1))."""
    tail = 0.0 if q == 0.0 else 2.0 * q * math.log2(q / (d - 1))
    return math.log2(d) + 2.0 * (1.0 - q) * math.log2(1.0 - q) + tail


def qkd_commands(seed: int, scale: float) -> tuple[Command, ...]:
    n = _trials(5000, scale)
    return (
        Command(("mdiqkd", "--trials", str(n), "--eta", str(ETA), "--noise", str(NOISE), "--seed", str(seed)),
                "records.csv", n),
        Command(("keyrate", "--d", ",".join(map(str, KEYRATE_DIMS))), "rates.csv"),
        Command(("keyrate", "thresholds"), "thresholds.csv"),
    )


def _qkd_records(text: str, n: int) -> list[dict[str, str]]:
    lines = text.splitlines()
    if lines[0] != QKD_HEADER or len(lines) != n + 1:
        raise ValueError("bad header or row count")
    rows = list(csv.DictReader(io.StringIO(text)))
    for i, row in enumerate(rows):
        conclusive = row["outcome"].startswith("conclusive(")
        if row["outcome"] not in ("postselect_fail", "inconclusive") and not conclusive:
            raise ValueError(f"row {i}: bad outcome")
        if int(row["trial"]) != i or row["alice_basis"] not in BASES or row["bob_basis"] not in BASES:
            raise ValueError(f"row {i}: bad trial index or basis")
        if int(row["alice_value"]) not in range(3) or int(row["bob_value"]) not in range(3):
            raise ValueError(f"row {i}: bad value")
        sifted = row["alice_basis"] == row["bob_basis"] and conclusive
        if row["sifted"] != str(int(sifted)):
            raise ValueError(f"row {i}: wrong sifted flag")
        if sifted:
            if row["alice_symbol"] != row["alice_value"] or int(row["bob_symbol"]) not in range(3):
                raise ValueError(f"row {i}: bad key symbols")
        elif row["alice_symbol"] or row["bob_symbol"]:
            raise ValueError(f"row {i}: symbols on an unsifted trial")
    return rows


def _keyrate_rows_ok(text: str) -> bool:
    lines = text.splitlines()
    n_q = int(round(Q_MAX / Q_STEP)) + 1
    if lines[0] != "d,Q,r_sifted,R_total" or len(lines) != 1 + n_q * len(KEYRATE_DIMS):
        return False
    expected_keys = [(d, i * Q_STEP) for d in KEYRATE_DIMS for i in range(n_q)]
    for line, (d, q) in zip(lines[1:], expected_keys):
        row_d, row_q, r_sifted, r_total = line.split(",")
        r = expected_r_d(d, q)
        if int(row_d) != d or abs(float(row_q) - q) > 1e-15:
            return False
        if abs(float(r_sifted) - r) > 1e-12 or abs(float(r_total) - max(0.0, r) / (2 * d)) > 1e-12:
            return False
    return True


def _thresholds_ok(text: str) -> bool:
    lines = text.splitlines()
    if lines[0] != "d,eta_threshold" or len(lines) != 1 + len(THRESHOLD_DIMS):
        return False
    for line, d in zip(lines[1:], THRESHOLD_DIMS):
        row_d, eta = line.split(",")
        if int(row_d) != d or abs(float(eta) - (1.0 / d) ** (1.0 / d)) > 1e-12:
            return False
    return True


def _summary_matches(text: str, n: int, sift_rate: float, qber: float) -> bool:
    summary = json.loads(text)
    return (summary["trials"], summary["sift_rate"], summary["qber"]) == (n, sift_rate, qber)


def qkd_check(commands: tuple[Command, ...], out: Outputs) -> tuple[Checks, Counter]:
    checks = Checks()
    _exits_ok(checks, commands, out)
    n = commands[0].trials
    outcomes: Counter = Counter()
    try:
        rows = _qkd_records(out.files[0], n)
    except (ValueError, KeyError, TypeError, IndexError):
        rows = None
    checks.add("records.csv well-formed", lambda: rows is not None)
    if rows is not None:
        outcomes.update(row["outcome"] for row in rows)
        sifted = [row for row in rows if row["sifted"] == "1"]
        errors = sum(row["alice_symbol"] != row["bob_symbol"] for row in sifted)
        sift_rate = len(sifted) / n
        qber = errors / len(sifted) if sifted else 0.0
        checks.add("summary matches records",
                   lambda: _summary_matches(out.stdout[0], n, sift_rate, qber))
        # Exact values from enumerating the 288 joint inputs analytically:
        # sift rate eta^3/6 and QBER (1 - (3 + 6(1-2p)^2)/9)/2.
        checks.add("sift rate = eta^3/6", lambda: z_ok(sift_rate, ETA**3 / 6, n))
        expected_qber = (1 - (3 + 6 * (1 - 2 * NOISE) ** 2) / 9) / 2
        checks.add("qber matches phase-flip noise", lambda: z_ok(qber, expected_qber, len(sifted)))
    checks.add("keyrate rows = r_d", lambda: _keyrate_rows_ok(out.files[1]))
    checks.add("thresholds = (1/d)^(1/d)", lambda: _thresholds_ok(out.files[2]))
    return checks, outcomes


# -- teleport-mc -----------------------------------------------------------------


def teleport_commands(seed: int, scale: float) -> tuple[Command, ...]:
    n = _trials(150, scale)
    return (Command(("teleport", "--trials", str(n), "--seed", str(seed)), "teleport.json", n),)


def teleport_check(commands: tuple[Command, ...], out: Outputs) -> tuple[Checks, Counter]:
    checks = Checks()
    _exits_ok(checks, commands, out)
    n = commands[0].trials
    try:
        report = json.loads(out.files[0])
        outcomes = Counter(report["counts"])
    except (ValueError, KeyError, TypeError, IndexError):
        report, outcomes = {}, Counter()
    n_conclusive = sum(v for k, v in outcomes.items() if k.startswith("conclusive("))
    checks.add("counts cover every trial",
               lambda: report["trials"] == n and sum(outcomes.values()) == n
               and all(k == "postselect_fail" or k.startswith("conclusive(") for k in outcomes))
    # No fidelity exceeds 1, so n * (1 - mean) bounds every trial's shortfall.
    checks.add("every conclusive fidelity is 1 within 1e-9",
               lambda: report["mean_conclusive_fidelity"] is None if n_conclusive == 0
               else n_conclusive * (1.0 - report["mean_conclusive_fidelity"]) <= 1e-9)
    checks.add("conclusive fraction = 1/3",
               lambda: report["conclusive_fraction"] == n_conclusive / n and z_ok(n_conclusive / n, 1 / 3, n))
    return checks, outcomes


# -- classify-scale --------------------------------------------------------------


def classify_commands(seed: int, scale: float) -> tuple[Command, ...]:
    n = _trials(3000, scale)
    return tuple(
        Command(("discriminate", "--d", str(d), "--state", "phi1", "--eta", str(ETA),
                 "--trials", str(n), "--seed", str(seed)), f"discriminate-{d}.json", n)
        for d in CLASSIFY_DIMS
    )


def _report_ok(report: dict, cmd: Command) -> bool:
    counts, analytic = report["counts"], report["analytic"]
    n = cmd.trials
    if report["trials"] != n or sum(counts.values()) != n:
        return False
    probs = {k: p for k, p in analytic.items() if k not in ("postselect_fail_device", "postselect_fail_parity")}
    if abs(sum(probs.values()) - 1.0) > 1e-9 or any(probs.get(k, 0.0) <= 0.0 for k in counts):
        return False
    return all(z_ok(counts.get(k, 0) / n, min(p, 1.0), n) for k, p in probs.items())


def classify_check(commands: tuple[Command, ...], out: Outputs) -> tuple[Checks, Counter]:
    checks = Checks()
    _exits_ok(checks, commands, out)
    outcomes: Counter = Counter()
    for i, cmd in enumerate(commands):
        try:
            report = json.loads(out.files[i])
            outcomes.update(report["counts"])
        except (ValueError, KeyError, TypeError, IndexError):
            report = None
        checks.add(f"discriminate --d {cmd.argv[2]}: empirical matches analytic",
                   lambda report=report, cmd=cmd: _report_ok(report, cmd))
    for d in CLASSIFY_DIMS:
        checks.add(f"generalized conclusive probability = 1/{d}",
                   lambda d=d: abs(out.conclusive[d] - 1.0 / d) <= 1e-9)
    return checks, outcomes


@dataclass(frozen=True)
class Workload:
    commands: Callable[[int, float], tuple[Command, ...]]
    check: Callable[[tuple[Command, ...], Outputs], tuple[Checks, Counter]]
    conclusive_dims: tuple[int, ...] = ()


WORKLOADS = {
    "qkd-mc": Workload(qkd_commands, qkd_check),
    "teleport-mc": Workload(teleport_commands, teleport_check),
    "classify-scale": Workload(classify_commands, classify_check, CLASSIFY_DIMS),
}
