"""Command-line entry point.

Subcommands: list-states, describe-tritter, discriminate, teleport, mdiqkd,
keyrate.  Outputs are byte-identical across repeated runs with the same
configuration.  Exit codes: 0 success, 2 configuration error, 3 internal
assertion (e.g. a non-disjoint generated click table).

`run(argv)` is the in-process entry point: it returns the exit code and may
be called any number of times.  It builds its argument parser once per
process, on first use.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import keyrate as kr
from .discrimination import (
    POSTSELECT_FAIL_CODE,
    derive_rng,
    measure,
    outcome_name,
    outcome_probabilities,
    sample_outcomes,
)
from .errors import AmbiguousPattern
from .fock import state_to_json
from .optics import decompose_dft
from .protocols import BASES, CHUNK_ROWS, NoiseConfig, mdi_qkd_run, teleport_run
from .states import build_phi, build_psi, phi_amplitudes, psi_amplitudes

DEFAULT_SEED = 42
# Largest --d that `discriminate` accepts: the dense measurement holds d^d
# amplitudes per state and builds the click codes from all d states at
# once; trials are sampled CHUNK_ROWS at a time.  With 10^6 trials on one
# core of an Intel Xeon, d = 6 takes 0.46-0.59 s and 57 MB including
# import, d = 7 2.2-2.3 s and 366 MB.
MAX_DISCRIMINATE_D = 6
# Largest --d of `list-states` (d = 7: 2.5 s and 83 MB, d = 8 runs past
# 20 s) and `describe-tritter` (d = 64: 0.7 s; d = 128: 11 s).
MAX_D = {"discriminate": MAX_DISCRIMINATE_D, "list-states": 7, "describe-tritter": 64}
# Largest number of rows in one `keyrate` table (Q values times dimensions,
# or dimensions in thresholds mode).
MAX_KEYRATE_ROWS = 10**6
# Largest --trials of any subcommand; memory grows linearly with it.
MAX_TRIALS = 10**6


def _write_chunks(path: str | None, chunks: Iterable[str]) -> None:
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_d_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _named_state(name: str, d: int) -> tuple[str, np.ndarray]:
    """The canonical lowercase name of a --state and its dense amplitudes."""
    match = re.fullmatch(r"(psi|phi)(0|[1-9][0-9]*)", name, re.ASCII | re.IGNORECASE)
    if match is None:
        raise ValueError(f"unknown state name {name!r} (use psi0..psi8 or phi0..phi{d - 1})")
    family, index = match[1].lower(), int(match[2])
    if family == "phi":
        return f"phi{index}", phi_amplitudes(index, d)
    if d != 3:
        raise ValueError("psi states are defined for d=3")
    return f"psi{index}", psi_amplitudes(index)


def _outcome_counts(codes: np.ndarray) -> dict[str, int]:
    values, freqs = np.unique(codes, return_counts=True)
    return {outcome_name(code): freq for code, freq in zip(values.tolist(), freqs.tolist())}


# -- subcommand handlers -------------------------------------------------------


def _cmd_list_states(args) -> int:
    d = args.d
    named: list[tuple[str, object]] = []
    if d == 3:
        named.extend((f"psi{i}", build_psi(i)) for i in range(9))
    named.extend((f"phi{i}", build_phi(i, d)) for i in range(d))
    if args.dump_state:  # before stdout, so a failed dump prints nothing
        payload = {name: state_to_json(state) for name, state in named}
        _write_chunks(args.dump_state, (_json_dumps(payload),))
    _write_chunks(None, ("\n".join(f"{name} = {state}" for name, state in named) + "\n",))
    return 0


def _cmd_describe_tritter(args) -> int:
    network = decompose_dft(args.d)
    _write_chunks(args.out, (_json_dumps(network.to_json()),))
    return 0


def _cmd_discriminate(args) -> int:
    name, state = _named_state(args.state, args.d)
    m, rng = measure(state[None], args.d), derive_rng(args.seed)
    codes = np.empty(args.trials, dtype=np.int64)
    for start in range(0, args.trials, CHUNK_ROWS):
        u = rng.random((min(CHUNK_ROWS, args.trials - start), args.d + 2))
        codes[start : start + len(u)] = sample_outcomes(m, np.zeros(len(u), dtype=np.int64), args.eta, u)
    counts = _outcome_counts(codes)
    report = {
        "state": name,
        "d": args.d,
        "eta": args.eta,
        "seed": args.seed,
        "trials": args.trials,
        "counts": counts,
        "empirical": {k: v / args.trials for k, v in counts.items()},
        "analytic": outcome_probabilities(m, args.eta),
    }
    _write_chunks(args.out, (_json_dumps(report),))
    return 0


def _cmd_teleport(args) -> int:
    codes, fidelities = teleport_run(args.trials, args.seed)
    conclusive = codes >= 0
    n_conclusive = int(conclusive.sum())
    report = {
        "trials": args.trials,
        "seed": args.seed,
        "counts": _outcome_counts(codes),
        "conclusive_fraction": n_conclusive / args.trials,
        "mean_conclusive_fidelity": float(fidelities[conclusive].mean()) if n_conclusive else None,
    }
    _write_chunks(args.out, (_json_dumps(report),))
    return 0


def _qkd_csv_rows(result) -> Iterator[str]:
    """The CSV rows after the header, CHUNK_ROWS rows per string.  Every
    column after `trial` is a function of (bases, values, outcome, sifted,
    Bob's symbol), so each distinct tuple is formatted once."""
    shape = (2, 2, 3, 3, 3 - POSTSELECT_FAIL_CODE, 2, 3)
    codes = result.outcomes - POSTSELECT_FAIL_CODE
    columns = (*result.bases.T, *result.values.T, codes, result.sifted.astype(np.int64), result.bob_symbols)
    keys = np.ravel_multi_index(columns, shape)
    suffixes = [""] * math.prod(shape)
    for key in np.flatnonzero(np.bincount(keys, minlength=len(suffixes))).tolist():
        a_b, b_b, x, y, code, sift, b_sym = (int(v) for v in np.unravel_index(key, shape))
        symbols = f"{x},{b_sym}" if sift else ","
        outcome = outcome_name(code + POSTSELECT_FAIL_CODE)
        suffixes[key] = f"{BASES[a_b]},{x},{BASES[b_b]},{y},{outcome},{sift},{symbols}\n"
    for start in range(0, len(keys), CHUNK_ROWS):
        chunk = keys[start : start + CHUNK_ROWS].tolist()
        yield "".join([f"{i},{suffixes[key]}" for i, key in enumerate(chunk, start)])


def _cmd_mdiqkd(args) -> int:
    result = mdi_qkd_run(args.trials, eta=args.eta, noise=NoiseConfig(args.noise), seed=args.seed)
    header = "trial,alice_basis,alice_value,bob_basis,bob_value,outcome,sifted,alice_symbol,bob_symbol\n"
    _write_chunks(args.out, itertools.chain((header,), _qkd_csv_rows(result)))
    summary = {
        "trials": args.trials,
        "eta": args.eta,
        "noise": args.noise,
        "seed": args.seed,
        "sift_rate": result.sift_rate,
        "qber": result.qber,
    }
    # With no --out the CSV owns stdout, so the summary goes to stderr.
    summary_stream = sys.stdout if args.out is not None else sys.stderr
    summary_stream.write(_json_dumps(summary))
    return 0


def _cmd_keyrate(args) -> int:
    if args.mode == "thresholds":
        lines = ["d,eta_threshold"]
        for d in range(2, args.d_max + 1):
            lines.append(f"{d},{kr.eta_threshold(d)!r}")
        _write_chunks(args.out, ("\n".join(lines) + "\n",))
        return 0
    d_values = _parse_d_list(args.d)
    n_steps = int(round(args.q_max / args.q_step))
    q_values = [i * args.q_step for i in range(n_steps + 1)]
    rows = kr.keyrate_table(d_values, q_values, eta=args.eta)
    header = "d,Q,r_sifted,R_total" + ("" if args.eta is None else ",eta")
    lines = [header]
    for row in rows:
        line = f"{row.d},{row.q!r},{row.r_sifted!r},{row.r_total!r}"
        if args.eta is not None:
            line += f",{row.eta!r}"
        lines.append(line)
    _write_chunks(args.out, ("\n".join(lines) + "\n",))
    return 0


# -- parser --------------------------------------------------------------------


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esdsim",
        description="Entangled-state discrimination, teleportation, and MDI-QKD simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = {"formatter_class": argparse.ArgumentDefaultsHelpFormatter}

    p = sub.add_parser("list-states", help="print state-family basis expansions", **fmt)
    p.add_argument("--d", type=int, default=3, help="dimension")
    p.add_argument("--dump-state", metavar="PATH", help="also write the states as JSON")
    p.set_defaults(func=_cmd_list_states)

    p = sub.add_parser("describe-tritter", help="element decomposition of the d-port DFT", **fmt)
    p.add_argument("--d", type=int, default=3, help="dimension")
    p.add_argument("--out", metavar="PATH", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_describe_tritter)

    p = sub.add_parser("discriminate", help="sample the discrimination measurement", **fmt)
    p.add_argument("--d", type=int, default=3, help="dimension")
    p.add_argument(
        "--state",
        default="psi0",
        help="psi0..psi8 (d=3) or phi0..phi{d-1}, any letter case, no sign, space or leading zero;"
        " the report names it in lowercase",
    )
    p.add_argument("--trials", type=int, default=1000, help="number of sampled trials")
    p.add_argument("--eta", type=float, default=1.0, help="parity-device success probability")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="base RNG seed, 0 <= seed < 2**64")
    p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    p.set_defaults(func=_cmd_discriminate)

    p = sub.add_parser("teleport", help="teleport Haar-random targets", **fmt)
    p.add_argument("--trials", type=int, default=1000, help="number of sampled trials")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="base RNG seed, 0 <= seed < 2**64")
    p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    p.set_defaults(func=_cmd_teleport)

    p = sub.add_parser("mdiqkd", help="simulate the key-distribution protocol", **fmt)
    p.add_argument("--trials", type=int, default=1000, help="number of sampled trials")
    p.add_argument("--eta", type=float, default=1.0, help="parity-device success probability")
    p.add_argument("--noise", type=float, default=0.0, help="phase-flip probability per port")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="base RNG seed, 0 <= seed < 2**64")
    p.add_argument("--out", metavar="PATH", help="write the per-trial CSV here")
    p.set_defaults(func=_cmd_mdiqkd)

    p = sub.add_parser("keyrate", help="rate tables and efficiency thresholds", **fmt)
    p.add_argument("mode", nargs="?", default="table", choices=("table", "thresholds"))
    p.add_argument("--d", default="2,3,4,5", help="comma-separated dimensions")
    p.add_argument("--q-max", type=float, default=0.12, help="largest error rate in the grid")
    p.add_argument("--q-step", type=float, default=0.002, help="error-rate grid step")
    p.add_argument("--eta", type=float, default=None, help="apply the eta^d factor to R")
    p.add_argument("--d-max", type=int, default=10, help="for thresholds mode")
    p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    p.set_defaults(func=_cmd_keyrate)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _validate(args)
        return args.func(args)
    except AmbiguousPattern as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _validate(args) -> None:
    if not 1 <= getattr(args, "trials", 1) <= MAX_TRIALS:
        raise ValueError(f"--trials must lie in [1, {MAX_TRIALS}]")
    eta = getattr(args, "eta", None)
    if eta is not None and not 0.0 <= eta <= 1.0:
        raise ValueError("--eta must lie in [0, 1]")
    noise = getattr(args, "noise", None)
    if noise is not None and not 0.0 <= noise <= 1.0:
        raise ValueError("--noise must lie in [0, 1]")
    seed = getattr(args, "seed", None)
    if seed is not None and not 0 <= seed < 2**64:
        raise ValueError("--seed must lie in [0, 2**64)")
    d = getattr(args, "d", None)
    if isinstance(d, int) and d < 2:
        raise ValueError("--d must be >= 2")
    if args.command in MAX_D and d > MAX_D[args.command]:
        raise ValueError(f"--d {d} exceeds the limit of {MAX_D[args.command]} for {args.command}")
    if args.command == "keyrate" and args.mode == "table":
        if not (math.isfinite(args.q_step) and args.q_step > 0.0):
            raise ValueError("--q-step must be a positive number")
        if not (math.isfinite(args.q_max) and args.q_max >= 0.0):
            raise ValueError("--q-max must be a non-negative number")
        n_q = round(min(args.q_max / args.q_step, MAX_KEYRATE_ROWS)) + 1
        if n_q > MAX_KEYRATE_ROWS:
            raise ValueError(f"--q-max / --q-step gives more than {MAX_KEYRATE_ROWS} Q values")
        d_values = _parse_d_list(args.d)
        if not d_values:
            raise ValueError("--d must list at least one dimension")
        if not all(2 <= d <= sys.float_info.max for d in d_values):  # the rates need d as a float
            raise ValueError(f"--d values must lie in [2, {sys.float_info.max:.1e}]")
        if n_q * len(d_values) > MAX_KEYRATE_ROWS:
            raise ValueError(f"--d and --q-max / --q-step give more than {MAX_KEYRATE_ROWS} rows")
    if args.command == "keyrate" and args.mode == "thresholds":
        if args.d_max < 2:
            raise ValueError("--d-max must be >= 2")
        if args.d_max - 1 > MAX_KEYRATE_ROWS:
            raise ValueError(f"--d-max {args.d_max} gives more than {MAX_KEYRATE_ROWS} rows")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
