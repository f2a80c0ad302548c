"""Command-line entry point.

Subcommands: list-states, describe-tritter, discriminate, teleport, mdiqkd,
keyrate; each is one `COMMANDS` entry of help, options with their domains
and handler.  Outputs are byte-identical across repeated runs with the same
configuration.  Exit codes: 0 success, 2 configuration error, 3 internal
assertion (e.g. a non-disjoint generated click table).

`run(argv)` is the in-process entry point: it returns the exit code and may
be called any number of times.  A known command followed by keyrate's
optional leading mode, then exact `--flag value` pairs whose values start
with no '-' and convert, is parsed straight from `COMMANDS`, so such a
command never imports argparse.  Every other argv (help, abbreviations,
--flag=value, --, '-'-leading values, errors) goes to the full argparse
parser, built once per process.  Handlers import numpy and the layer
modules on first call, so `import esdsim.cli` and `keyrate` (plain `math`)
load no numpy.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import keyrate as kr
from .errors import AmbiguousPattern

DEFAULT_SEED = 42
# Largest --d that `discriminate` accepts: the dense measurement holds d^d
# amplitudes per state and builds the click codes from all d states at once;
# the counts take d + 1 uniforms.  10^6 trials, one Intel Xeon core, with
# start-up: d = 6 0.18 s, 47 MB (BENCH_29.json), d = 7 1.8 s, 356 MB (BENCH_22).
MAX_DISCRIMINATE_D = 6
# Largest --d of `list-states` (d = 7: 0.7 s and 71 MB; one d = 8 state is
# 8^8 complex amplitudes, 268 MB) and `describe-tritter` (one core of an
# Intel Xeon, including interpreter start: d = 64 0.4 s and 37 MB; the
# d = 128 decomposition and its JSON 1.1 s).
MAX_D = {"discriminate": MAX_DISCRIMINATE_D, "list-states": 7, "describe-tritter": 64}
# Largest number of rows in one `keyrate` table (Q values times dimensions,
# or dimensions in thresholds mode).
MAX_KEYRATE_ROWS = 10**6
# Largest --trials of any subcommand; memory grows linearly with it.
MAX_TRIALS = 10**6
# Lines per string that the text writers yield: a line costs about 100 B
# as a str, where a sampled row (`sampling.CHUNK_ROWS` per pass) costs a few bytes.
TEXT_ROWS = 1 << 10


def _write_chunks(path: str | None, chunks: Iterable[str]) -> None:
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _chunked(lines: Iterator[str]) -> Iterator[str]:
    """The lines joined TEXT_ROWS at a time."""
    while chunk := "".join(itertools.islice(lines, TEXT_ROWS)):
        yield chunk


def _named_state(name: str, d: int):
    """The canonical lowercase name of a --state and its dense amplitudes."""
    from .states import phi_amplitudes, psi_amplitudes

    match = re.fullmatch(r"(psi|phi)(0|[1-9][0-9]*)", name, re.ASCII | re.IGNORECASE)
    if match is None:
        raise ValueError(f"unknown state name {name!r} (use psi0..psi8 or phi0..phi{d - 1})")
    family, index = match[1].lower(), int(match[2])
    if family == "phi":
        return f"phi{index}", phi_amplitudes(index, d)
    if d != 3:
        raise ValueError("psi states are defined for d=3")
    return f"psi{index}", psi_amplitudes(index)


# -- subcommand handlers -------------------------------------------------------


def _listed_terms(d: int) -> Iterator[tuple[str, list[list[int]], list[complex]]]:
    """Each state `list-states` prints, one dense array at a time, as its
    name, the modes of each term as sorted click keys port * d + time-bin,
    and the amplitudes.  Terms follow `click_order(d)`, which orders them by
    their modes sorted by (port, time-bin); amplitudes at or below
    DEFAULT_TOLERANCE are dropped."""
    import numpy as np
    from .discrimination import DEFAULT_TOLERANCE, click_order

    order = click_order(d)
    flat = np.ravel_multi_index(order.T, (d,) * d)
    for name in [f"psi{i}" for i in range(9 if d == 3 else 0)] + [f"phi{i}" for i in range(d)]:
        amps = _named_state(name, d)[1].ravel()
        kept = (np.abs(amps) > DEFAULT_TOLERANCE)[flat]  # gathers bytes, not the d^d complex amplitudes
        terms = amps[flat[kept]].tolist()
        del amps  # before the next state's array is built
        yield name, np.sort(order[kept] * d + np.arange(d), axis=1).tolist(), terms


def _state_text(keys: list[list[int]], amps: list[complex], labels: list[str]) -> str:
    """One line of the listing: per term the amplitude to 8 decimals, real
    when its imaginary part is at or below DEFAULT_TOLERANCE, and the modes;
    terms two spaces apart."""
    from .discrimination import DEFAULT_TOLERANCE

    amp_texts = (f"{a.real:+.8f}" if abs(a.imag) <= DEFAULT_TOLERANCE else f"({a.real:+.8f}{a.imag:+.8f}j)" for a in amps)
    return "  ".join(f"{text} |{' '.join(labels[k] for k in row)}>" for text, row in zip(amp_texts, keys))


def _dump_chunks(states: dict[str, tuple[list[list[int]], list[complex]]], d: int) -> Iterator[str]:
    """The --dump-state JSON, the bytes of `_json_dumps` of the whole
    {name: terms} object, formatted one state at a time in sorted-name
    order.  Click key k is time-bin k % d on port k // d."""
    for n, name in enumerate(sorted(states)):
        keys, amps = states[name]
        terms = [{"modes": [[k % d, k // d, 1] for k in row], "re": a.real, "im": a.imag} for row, a in zip(keys, amps)]
        value = json.dumps(terms, indent=2, sort_keys=True).replace("\n", "\n  ")
        yield ("{" if n == 0 else ",") + f"\n  {json.dumps(name)}: {value}"
    yield "\n}\n"


def _cmd_list_states(args) -> int:
    d = args.d
    states = {name: (keys, amps) for name, keys, amps in _listed_terms(d)}
    if args.dump_state:  # before stdout, so a failed dump prints nothing
        _write_chunks(args.dump_state, _dump_chunks(states, d))
    # mode letters: time-bin a, b, c, ... then the port; --d <= 7 keeps to a..g
    labels = [f"{chr(ord('a') + k % d)}{k // d}" for k in range(d * d)]
    _write_chunks(None, (f"{name} = {_state_text(keys, amps, labels)}\n" for name, (keys, amps) in states.items()))
    return 0


def _cmd_describe_tritter(args) -> int:
    from .optics import decompose_dft

    _write_chunks(args.out, (_json_dumps(decompose_dft(args.d).to_json()),))
    return 0


def _cmd_discriminate(args) -> int:
    from .discrimination import measure, outcome_name, outcome_probabilities, outcome_table
    from .sampling import draw_counts, philox_head

    name, state = _named_state(args.state, args.d)
    m = measure(state[None], args.d)
    drawn = draw_counts(outcome_table(m, args.eta)[0], args.trials, philox_head(args.seed, args.d + 1))
    counts = {outcome_name(code): k for code, k in drawn.items() if k}
    report = {"state": name, "d": args.d, "eta": args.eta, "seed": args.seed, "trials": args.trials, "counts": counts,
              "empirical": {k: v / args.trials for k, v in counts.items()},
              "analytic": outcome_probabilities(m, args.eta)}
    _write_chunks(args.out, (_json_dumps(report),))
    return 0


def _cmd_teleport(args) -> int:
    from .discrimination import outcome_name
    from .protocols import teleport_run

    drawn, fidelity = teleport_run(args.trials, args.seed)
    n_conclusive = sum(k for code, k in drawn.items() if code >= 0)
    report = {"trials": args.trials, "seed": args.seed,
              "counts": {outcome_name(code): k for code, k in drawn.items() if k},
              "conclusive_fraction": n_conclusive / args.trials,
              "mean_conclusive_fidelity": fidelity if n_conclusive else None}
    _write_chunks(args.out, (_json_dumps(report),))
    return 0


def _qkd_csv_rows(result) -> Iterator[str]:
    """The CSV rows after the header, TEXT_ROWS rows per string.  Every
    column after `trial` is a function of (bases, values, outcome, sifted,
    Bob's symbol), so each distinct tuple is formatted once, in the first
    block that holds it; keys are computed one block at a time."""
    import numpy as np
    from .discrimination import POSTSELECT_FAIL_CODE, outcome_name
    from .protocols import BASES

    shape = (2, 2, 3, 3, 3 - POSTSELECT_FAIL_CODE, 2, 3)
    suffixes = [""] * math.prod(shape)
    for start in range(0, len(result.outcomes), TEXT_ROWS):
        rows = slice(start, start + TEXT_ROWS)
        codes = result.outcomes[rows] - POSTSELECT_FAIL_CODE
        columns = (*result.bases[rows].T, *result.values[rows].T, codes, result.sifted[rows], result.bob_symbols[rows])
        keys = np.ravel_multi_index(columns, shape)
        new = [key for key in np.flatnonzero(np.bincount(keys, minlength=len(suffixes))).tolist() if not suffixes[key]]
        fields = np.unravel_index(np.array(new, dtype=np.intp), shape)
        for key, a_b, b_b, x, y, code, sift, b_sym in zip(new, *(column.tolist() for column in fields)):
            symbols = f"{x},{b_sym}" if sift else ","
            outcome = outcome_name(code + POSTSELECT_FAIL_CODE)
            suffixes[key] = f"{BASES[a_b]},{x},{BASES[b_b]},{y},{outcome},{sift},{symbols}\n"
        yield "".join([f"{i},{suffixes[key]}" for i, key in enumerate(keys.tolist(), start)])


def _cmd_mdiqkd(args) -> int:
    from .protocols import mdi_qkd_run

    result = mdi_qkd_run(args.trials, eta=args.eta, noise=args.noise, seed=args.seed)
    header = "trial,alice_basis,alice_value,bob_basis,bob_value,outcome,sifted,alice_symbol,bob_symbol\n"
    _write_chunks(args.out, itertools.chain((header,), _qkd_csv_rows(result)))
    summary = {"trials": args.trials, "eta": args.eta, "noise": args.noise, "seed": args.seed,
               "sift_rate": result.sift_rate, "qber": result.qber}
    # With no --out the CSV owns stdout, so the summary goes to stderr.
    (sys.stdout if args.out is not None else sys.stderr).write(_json_dumps(summary))
    return 0


def _cmd_keyrate(args) -> int:
    # cross-option checks, before the first row: rows are written as they are evaluated
    if args.mode == "thresholds":
        if args.d_max < 2:
            raise ValueError("--d-max must be >= 2")
        if args.d_max - 1 > MAX_KEYRATE_ROWS:
            raise ValueError(f"--d-max {args.d_max} gives more than {MAX_KEYRATE_ROWS} rows")
        header = "d,eta_threshold\n"
        lines = (f"{d},{kr.eta_threshold(d)!r}\n" for d in range(2, args.d_max + 1))
    else:
        if not (math.isfinite(args.q_step) and args.q_step > 0.0):
            raise ValueError("--q-step must be a positive number")
        if not (math.isfinite(args.q_max) and args.q_max >= 0.0):
            raise ValueError("--q-max must be a non-negative number")
        # i * q_step up to q_max, with 1e-9 of a step for rounding; capped so an overflow stays an int
        n_q = math.floor(min(args.q_max / args.q_step + 1e-9, MAX_KEYRATE_ROWS)) + 1
        if n_q > MAX_KEYRATE_ROWS:
            raise ValueError(f"--q-max / --q-step gives more than {MAX_KEYRATE_ROWS} Q values")
        if (n_q - 1) * args.q_step >= 1.0:
            raise ValueError(f"the Q grid reaches {(n_q - 1) * args.q_step!r}; error rates must lie in [0, 1)")
        d_values = [int(part) for part in args.d.split(",") if part.strip()]
        if not d_values:
            raise ValueError("--d must list at least one dimension")
        if not all(2 <= d <= sys.float_info.max for d in d_values):  # the rates need d as a float
            raise ValueError(f"--d values must lie in [2, {sys.float_info.max:.1e}]")
        if n_q * len(d_values) > MAX_KEYRATE_ROWS:
            raise ValueError(f"--d and --q-max / --q-step give more than {MAX_KEYRATE_ROWS} rows")
        rows = itertools.chain.from_iterable(  # a fresh lazy Q grid per dimension, not a list of floats
            kr.keyrate_table((d,), (i * args.q_step for i in range(n_q)), eta=args.eta) for d in d_values
        )
        header = "d,Q,r_sifted,R_total" + ("" if args.eta is None else ",eta") + "\n"
        eta = "" if args.eta is None else f",{args.eta!r}"
        lines = (f"{d},{q!r},{r!r},{total!r}{eta}\n" for d, q, r, total in rows)
    _write_chunks(args.out, itertools.chain((header,), _chunked(lines)))
    return 0


# -- subcommand table ----------------------------------------------------------


class Command(NamedTuple):
    help: str
    options: tuple  # of _option triples, in help order
    handler: Callable[[SimpleNamespace], int]  # or an argparse Namespace of the same attributes


def _option(flag: str, *domain: tuple[Callable[..., bool], str], **kwargs) -> tuple:
    """One argparse argument as (flag, keywords, domain): (holds, message)
    pairs that `run` checks in order on a value other than None."""
    return flag, kwargs, domain


def _dimension(command: str) -> tuple:
    limit = MAX_D[command]
    return _option("--d", (lambda d: d >= 2, "--d must be >= 2"),
                   (lambda d: d <= limit, f"--d {{}} exceeds the limit of {limit} for {command}"),
                   type=int, default=3, help="dimension")


_OUT = _option("--out", metavar="PATH", help="write output here instead of stdout")
_ETA_DOMAIN = (lambda eta: 0.0 <= eta <= 1.0, "--eta must lie in [0, 1]")
_TRIALS = _option("--trials", (lambda n: 1 <= n <= MAX_TRIALS, f"--trials must lie in [1, {MAX_TRIALS}]"),
                  type=int, default=1000, help="number of sampled trials")
_ETA = _option("--eta", _ETA_DOMAIN, type=float, default=1.0, help="parity-device success probability")
_SEED = _option("--seed", (lambda seed: 0 <= seed < 2**64, "--seed must lie in [0, 2**64)"),
                type=int, default=DEFAULT_SEED, help="base RNG seed, 0 <= seed < 2**64")

COMMANDS = {
    "list-states": Command("print state-family basis expansions", (
        _dimension("list-states"), _option("--dump-state", metavar="PATH", help="also write the states as JSON"),
    ), _cmd_list_states),
    "describe-tritter": Command("element decomposition of the d-port DFT", (
        _dimension("describe-tritter"), _option("--out", metavar="PATH", help="write JSON here instead of stdout"),
    ), _cmd_describe_tritter),
    "discriminate": Command("sample the discrimination measurement", (
        _dimension("discriminate"),
        _option("--state", default="psi0", help="psi0..psi8 (d=3) or phi0..phi{d-1}, any letter case, no sign,"
                " space or leading zero; the report names it in lowercase"),
        _TRIALS, _ETA, _SEED, _OUT,
    ), _cmd_discriminate),
    "teleport": Command("teleport Haar-random targets", (_TRIALS, _SEED, _OUT), _cmd_teleport),
    "mdiqkd": Command("simulate the key-distribution protocol", (
        _TRIALS, _ETA,
        _option("--noise", (lambda p: 0.0 <= p <= 1.0, "--noise must lie in [0, 1]"), type=float, default=0.0,
                help="phase-flip probability per port"),
        _SEED, _option("--out", metavar="PATH", help="write the per-trial CSV here"),
    ), _cmd_mdiqkd),
    "keyrate": Command("rate tables and efficiency thresholds", (
        _option("mode", nargs="?", default="table", choices=("table", "thresholds")),
        _option("--d", default="2,3,4,5", help="comma-separated dimensions"),
        _option("--q-max", type=float, default=0.12, help="largest error rate in the grid"),
        _option("--q-step", type=float, default=0.002, help="error-rate grid step"),
        _option("--eta", _ETA_DOMAIN, type=float, default=None, help="apply the eta^d factor to R"),
        _option("--d-max", type=int, default=10, help="for thresholds mode"),
        _OUT,
    ), _cmd_keyrate),
}


def _direct_parse(command: Command, tokens: list[str]) -> SimpleNamespace | None:
    """The options of `tokens` when they are an optional leading choice of
    the positional, then exact `--flag value` pairs of the command's own
    flags, no value starting with '-' and each converting by its type; else
    None.  argparse gives the same namespace on every argv accepted here."""
    options = {flag: kwargs for flag, kwargs, _ in command.options}
    args = {flag: kwargs.get("default") for flag, kwargs in options.items()}
    positional = next((flag for flag in options if not flag.startswith("-")), None)
    if positional and tokens and tokens[0] in options[positional]["choices"]:
        args[positional], tokens = tokens[0], tokens[1:]
    if len(tokens) % 2:
        return None
    for flag, value in zip(tokens[::2], tokens[1::2]):
        if not flag.startswith("--") or flag not in options or value.startswith("-"):
            return None
        try:
            args[flag] = options[flag].get("type", str)(value)
        except ValueError:
            return None
    return SimpleNamespace(**{flag.lstrip("-").replace("-", "_"): value for flag, value in args.items()})


@lru_cache(maxsize=1)
def _build_parser():
    import argparse

    description = "Entangled-state discrimination, teleportation, and MDI-QKD simulator"
    parser = argparse.ArgumentParser(prog="esdsim", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        subparser = sub.add_parser(name, help=command.help, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        for flag, kwargs, _ in command.options:
            subparser.add_argument(flag, **kwargs)
    return parser


def _parse(argv: list[str]) -> tuple[Command, SimpleNamespace]:
    command = COMMANDS.get(argv[0]) if argv else None
    if command is not None and (args := _direct_parse(command, argv[1:])) is not None:
        return command, args
    # help, usage, every error and the forms only argparse accepts: the full
    # parser, with the usage line of the whole program
    args = _build_parser().parse_args(argv)
    return COMMANDS[args.command], args


def run(argv: Sequence[str] | None = None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for flag, _, domain in command.options:
            value = getattr(args, flag.lstrip("-").replace("-", "_"))
            for holds, message in domain:
                if value is not None and not holds(value):
                    raise ValueError(message.format(value))
        return command.handler(args)
    except AmbiguousPattern as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
