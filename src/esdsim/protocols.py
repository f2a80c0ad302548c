"""End-to-end protocols built on the discrimination measurement.

Teleportation: one party holds an arbitrary path-encoded qutrit (time-bin a)
plus the b/c photons of a shared entangled triple, runs the discrimination
measurement on those three photons, and announces the conclusive outcome i;
the other party recovers the input with the diagonal path rotation in row i
of `CORRECTION_PHASES` (the identity for i = 0).  Outcomes are the integer
codes of `discrimination`.  Each of the 18 detection branches is a fixed 3x3
map M from the target's amplitudes to the receiver's corrected amplitudes,
with M^dagger M = I/54, so a branch's probability does not depend on the
target: `teleport_run` draws each row's branch from one constant table and
applies that branch's map alone, and `teleport_analysis` applies every map
to one target and lists the branches as arrays.

MDI-QKD, encoded once for every d: Bob sends a row of `basis_rows` (the path
basis or its Fourier MUB), Alice the d-1 photons of `alice_encodings`, an
untrusted relay measures the joint state and announces the outcome, and
matched-basis conclusive trials become the sifted key.  One measurement of
the 4d^2 noiseless joint inputs per d, `_noiseless_measurement`, gives one
outcome table of those inputs behind the phase-flip channel, an exact
mixture of the noiseless rows (`_channel_table`).  That table feeds the
decode rule, the exact sift rate and QBER, and the d = 3 sampler, which
draws each trial's input and then its outcome from the input's row.

The security-analysis (EDP) picture is implemented as well, at any d:
conditioning the shared system (Alice's phi_0, keeping its time-bin-0
photon, and a `maximally_entangled_pair` of whose photons Bob keeps one) on
each conclusive relay outcome and applying that outcome's row of
`corrections` must leave the two parties holding that same maximally
entangled pair.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .discrimination import (
    DEFAULT_TOLERANCE, POSTSELECT_FAIL_CODE, Measurement, click_codes, conclusive_probabilities, draw_codes, measure,
    outcome_table, uniform_chunks,
)
from .optics import build_dft
from .states import family_index, phi_amplitudes, psi_amplitudes, unit_root

COMPUTATIONAL = "computational"
MUB = "mub"


def corrections(d: int) -> np.ndarray:
    """The receiver's correction for each conclusive outcome i: row i holds
    the port phases chi^(m j), m = `family_index(i, d)`, that undo the twist
    chi^(-m j) the projection onto family member m leaves on port j."""
    chi = unit_root(d, 1)
    return np.array([[chi ** (family_index(i, d) * j % d) for j in range(d)] for i in range(d)])


CORRECTION_PHASES = corrections(3)


# -- teleportation ------------------------------------------------------------


class TeleportAnalysis(NamedTuple):
    """Every detection branch of one run, as arrays over the branches in
    canonical click order: outcome codes, probabilities given that the
    parity post-selection passed (probability `pass_prob`), the receiver's
    corrected, unnormalized amplitudes (branches x 3) and their fidelity
    with the target."""

    pass_prob: float
    codes: np.ndarray
    probabilities: np.ndarray
    receivers: np.ndarray
    fidelities: np.ndarray

    def conclusive_probability(self) -> float:
        return self.pass_prob * sum(self.probabilities[self.codes >= 0].tolist())

    def outcome_fidelities(self) -> dict[int, float]:
        conclusive = self.codes >= 0
        return dict(zip(self.codes[conclusive].tolist(), self.fidelities[conclusive].tolist()))


def haar_amplitudes(uniforms: np.ndarray) -> np.ndarray:
    """Haar-random qutrit amplitudes, one row per row of an (n, 6) block of
    uniforms: columns 2m and 2m + 1 give amplitude m as a complex normal by
    Box-Muller, and each row is then normalized."""
    radius = np.sqrt(-2.0 * np.log1p(-uniforms[:, 0::2]))
    vecs = radius * np.exp(2j * np.pi * uniforms[:, 1::2])
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


@lru_cache(maxsize=1)
def _teleport_branch_maps() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outcome codes and maps (branch x receiver port x target port) of the
    detection branches: the output ports of the three measured photons, in
    canonical click order.  A map takes the target's amplitudes to the
    receiver's unnormalized amplitudes, the branch's correction applied.
    The receiver keeps psi0's time-bin-a photon, which never enters the
    DFT, so `measure` gets one row per (receiver port, target port).  The
    third array is the cumulative table of the branch weights ||M||_F^2 / 3,
    each 1/54: the weight of every unit target, as M^dagger M = I/54.  All
    three are cached for the process, so they are read-only.
    """
    inputs = np.eye(3)[None, :, :, None, None] * psi_amplitudes(0)[:, None, None]  # receiver, target port, a, b, c
    amps = measure(inputs.reshape(9, 3, 3, 3), 3).amplitudes
    support = np.abs(amps).max(axis=0) > DEFAULT_TOLERANCE
    codes = click_codes(3)[support]
    phases = np.where(codes[:, None] >= 0, CORRECTION_PHASES[np.maximum(codes, 0)], 1)
    matrices = phases[:, :, None] * amps[:, support].T.reshape(-1, 3, 3)
    cumulative = np.cumsum(np.sum(np.abs(matrices) ** 2, axis=(1, 2)) / 3)
    for array in (codes, matrices, cumulative):
        array.setflags(write=False)
    return codes, matrices, cumulative


def _fidelity(alphas: np.ndarray, receiver: np.ndarray) -> np.ndarray:
    """|<target|receiver>|^2 / <receiver|receiver> along the last axis."""
    overlap = np.sum(alphas.conj() * receiver, axis=-1)
    return np.abs(overlap) ** 2 / np.sum(np.abs(receiver) ** 2, axis=-1)


def teleport_analysis(alphas: Sequence[complex] | np.ndarray) -> TeleportAnalysis:
    """Deterministic enumeration of every detection branch of one run, every
    branch map applied to the target, the normalized path-encoded qutrit
    with amplitudes `alphas` = (a0, a1, a2).  Every branch map M has
    M^dagger M = I/54, so each of the 18 branches has probability 1/18 given
    a pass, and the pass probability is 1/3, for any target.  Raises
    ValueError unless there are three amplitudes whose squared norm lies
    within 1e-12 of 1 (so none is infinite or NaN)."""
    alphas = np.asarray(alphas)
    if alphas.shape != (3,):
        raise ValueError("target needs exactly three amplitudes")
    norm_sq = float(np.sum(np.abs(alphas) ** 2))
    if not abs(norm_sq - 1.0) <= 1e-12:
        raise ValueError(f"target is not normalized (norm^2 = {norm_sq})")
    codes, matrices, _ = _teleport_branch_maps()
    receivers = matrices @ alphas
    weights = np.sum(np.abs(receivers) ** 2, axis=1)
    pass_prob = float(weights.sum())
    return TeleportAnalysis(pass_prob, codes, weights / pass_prob, receivers, _fidelity(alphas, receivers))


def _sample_teleport(uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One run per row of an (n, 8) block of uniforms, by the constant
    branch table C of `_teleport_branch_maps` with total W = C[-1]: column
    6 passes the parity projection iff u < W, and column 7 picks the first
    branch with C > u * W, else the last; a pick within an ulp of an edge
    of C follows C, whatever the target.  Returns int8 outcome codes and,
    on conclusive rows, the fidelity of the chosen branch's corrected
    receiver amplitudes with the target of columns 0-5
    (`haar_amplitudes`), NaN elsewhere.  Only conclusive rows form their
    target, receiver and fidelity."""
    branch_codes, matrices, cumulative = _teleport_branch_maps()
    total = cumulative[-1]
    passed = np.flatnonzero(uniforms[:, 6] < total)
    pick = np.minimum(np.searchsorted(cumulative, uniforms[passed, 7] * total, side="right"), len(cumulative) - 1)
    codes = np.full(len(uniforms), POSTSELECT_FAIL_CODE, dtype=np.int8)
    codes[passed] = branch_codes[pick]
    conclusive = branch_codes[pick] >= 0
    rows, pick = passed[conclusive], pick[conclusive]
    alphas = haar_amplitudes(uniforms[rows, :6])
    fidelities = np.full(len(uniforms), np.nan)
    fidelities[rows] = _fidelity(alphas, np.einsum("nij,nj->ni", matrices[pick], alphas))
    return codes, fidelities


def teleport_run(n_trials: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Outcome codes and fidelities (see `_sample_teleport`) of n teleported
    Haar-random targets, from one block of uniforms derive_rng(seed).random((n,
    8)) drawn in fixed-size chunks; row i is trial i, so a run is a prefix of
    any longer run.  Columns: 0-5 the target (`haar_amplitudes`), 6 the
    parity projection (passed iff u < W) and 7 the branch (the first whose
    running weight exceeds u * W, else the last), both from one constant
    branch table of total W; a pick within an ulp of an edge follows it."""
    chunks, codes, fidelities = uniform_chunks(seed, n_trials, 8), np.empty(n_trials, dtype=np.int8), np.empty(n_trials)
    for start, u in chunks:
        codes[start : start + len(u)], fidelities[start : start + len(u)] = _sample_teleport(u)
    return codes, fidelities


# -- EDP security picture ------------------------------------------------------


def maximally_entangled_pair(d: int = 3) -> np.ndarray:
    """(1/sqrt(d)) sum_j |j, j>, indexed [Alice port, Bob port]."""
    return np.eye(d) / np.sqrt(d)


def edp_shared_state(charlie_outcome: int, d: int = 3) -> np.ndarray:
    """The parties' state, normalized and indexed [Alice port, Bob port],
    after the relay projects its d photons onto family member
    `family_index(charlie_outcome, d)` and Bob applies row `charlie_outcome`
    of `corrections(d)`.  The relay holds the time-bin-0 photon of Bob's
    pair (1/sqrt(d)) sum_j |j>|Bob j> and time-bins 1..d-1 of Alice's
    `phi_amplitudes(0, d)`, whose time-bin-0 photon Alice keeps.  The result
    equals `maximally_entangled_pair(d)` up to a global phase."""
    if not 0 <= charlie_outcome < d:
        raise ValueError(f"conclusive outcome must be 0..{d - 1}, got {charlie_outcome}")
    rest = list(range(1, d))
    member = phi_amplitudes(family_index(charlie_outcome, d), d)
    projected = np.tensordot(phi_amplitudes(0, d), member.conj(), axes=(rest, rest)) / np.sqrt(d)
    shared = projected * corrections(d)[charlie_outcome]
    return shared / np.linalg.norm(shared)


# -- MDI-QKD -------------------------------------------------------------------


BASES = (COMPUTATIONAL, MUB)


class QkdRunResult(NamedTuple):
    """One run as columns, row i for trial i.

    `bases` and `values` have one column per party, Alice's first; a basis
    is an index into BASES.  `outcomes` holds the relay's outcome codes,
    `sifted` marks the matched-basis conclusive rows, on which Alice's
    symbol is her value and Bob's is `bob_symbols`.  `sifted` is bool and
    every other column int8: each value lies in [-2, 2].
    """

    bases: np.ndarray
    values: np.ndarray
    outcomes: np.ndarray
    sifted: np.ndarray
    bob_symbols: np.ndarray
    sift_rate: float
    qber: float


def basis_rows(d: int) -> np.ndarray:
    """The two key-distribution bases, indexed [basis, value, port]: the
    path basis and its Fourier MUB (Cerf et al., PRL 88, 127902 (2002))."""
    return np.stack([np.eye(d), build_dft(d)])


def alice_encodings(d: int) -> np.ndarray:
    """Alice's encodings, indexed [basis, value, ports of time-bins
    1..d-1]: phi_0 = `phi_amplitudes(0, d)` with the time-bin-0 photon that
    Alice keeps projected onto the basis bra, then normalized, as in the EDP
    picture.  Path value x leaves port x empty, so a conclusive matched
    trial has Bob's value equal to Alice's."""
    projected = np.tensordot(basis_rows(d).conj(), phi_amplitudes(0, d), axes=1)
    return projected / np.sqrt(np.sum(np.abs(projected) ** 2, axis=tuple(range(2, d + 1)), keepdims=True))


@lru_cache(maxsize=None)
def _noiseless_measurement(d: int) -> Measurement:
    """The relay's measurement of the 4d^2 joint inputs when every device
    works, rows in C order over (Alice basis, x, Bob basis, y), an axis per
    time-bin (Bob's photon is time-bin 0).  Cached for the process, so
    read-only."""
    joint = alice_encodings(d).reshape(2, d, 1, 1, 1, -1) * basis_rows(d)[..., None]
    m = measure(joint.reshape((-1,) + (d,) * d), d)
    for array in m[1:]:
        array.setflags(write=False)
    return m


def _channel_table(eta: float, noise: float, d: int) -> np.ndarray:
    """The `outcome_table` of the 4d^2 joint inputs behind the phase-flip
    channel, rows in C order over (Alice basis, x, Bob basis, y).  The flips
    (each port negates Bob's photon with probability p = `noise`) map his
    state rho to lam rho + (1 - lam) diag(|b_k|^2), lam = (1 - 2p)^2, so a
    row is lam times its noiseless row plus 1 - lam times the noiseless rows
    of Bob's path values k, weighted |b_k|^2."""
    table, lam = outcome_table(_noiseless_measurement(d), eta).reshape(2, d, 2, d, d + 1), (1 - 2 * noise) ** 2
    dephased = np.einsum("byk,axkc->axbyc", np.abs(basis_rows(d)) ** 2, table[:, :, 0])
    return (lam * table + (1 - lam) * dephased).reshape(-1, d + 1)


def _matched_conclusive(eta: float, noise: float, d: int) -> np.ndarray:
    """The matched-basis probabilities of each conclusive index in
    `_channel_table`, indexed [basis, x, y, conclusive index]."""
    table = _channel_table(eta, noise, d).reshape(2, d, 2, d, d + 1)
    return np.diff(np.einsum("bxbyc->bxyc", table), axis=-1)


@lru_cache(maxsize=None)
def _decode_array(d: int = 3) -> np.ndarray:
    """Analytic decode rule, indexed [basis, conclusive index, Bob value]:
    for each entry exactly one Alice value gives that outcome nonzero
    probability in the noiseless protocol; the relay announcement plus
    Bob's own value identify it.  Cached for the process, so read-only."""
    support = _matched_conclusive(1.0, 0.0, d).transpose(0, 3, 2, 1) > 0
    ambiguous = np.argwhere(support.sum(axis=-1) != 1)
    if len(ambiguous):
        b, i, y = ambiguous[0].tolist()
        candidates = np.flatnonzero(support[b, i, y]).tolist()
        raise AssertionError(f"decode rule not unique for {(BASES[b], i, y)}: {candidates}")
    decode = np.argmax(support, axis=-1).astype(np.int8)
    decode.setflags(write=False)
    return decode


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def mdi_qkd_run(n_trials: int, eta: float = 1.0, noise: float = 0.0, seed: int = 0) -> QkdRunResult:
    """Simulate the prepare-and-measure protocol.

    Each trial draws both parties' bases and values uniformly, feeds the
    joint three-photon state to the relay measurement with per-port device
    efficiency eta, sifts matched-basis conclusive trials, and decodes Bob's
    symbol from (outcome index, Bob value).  The toy channel gives each
    relay input port a pi phase flip on Bob's photon with probability
    `noise`, which enters as its exact mixture, `_channel_table`.

    All trials come from one block of uniforms, derive_rng(seed).random((n,
    2)), drawn in chunks of CHUNK_ROWS rows; row i is trial i, so a run's
    columns are a prefix of any longer run's.  Column 0 picks the joint
    input floor(36u), in C order over (Alice basis, x, Bob basis, y), and
    column 1 its outcome from that input's row of the channel table
    (`draw_codes`).
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    _check_probability("eta", eta)
    _check_probability("noise", noise)
    chunks, table = uniform_chunks(seed, n_trials, 2), _channel_table(eta, noise, 3)
    joint = np.indices((2, 3, 2, 3), dtype=np.int8).reshape(4, -1).T  # Alice basis, x, Bob basis, y of each row
    inputs, outcome_codes = np.empty((n_trials, 4), dtype=np.int8), np.empty(n_trials, dtype=np.int8)
    for start, u in chunks:
        rows = (36 * u[:, 0]).astype(np.intp)
        inputs[start : start + len(u)] = joint[rows]
        outcome_codes[start : start + len(u)] = draw_codes(table, rows, u[:, 1])

    mub, values = inputs[:, 0::2], inputs[:, 1::2]
    sifted = (mub[:, 0] == mub[:, 1]) & (outcome_codes >= 0)
    bob_symbols = _decode_array(3)[mub[:, 0], np.maximum(outcome_codes, 0), values[:, 1]]
    n_sifted = int(sifted.sum())
    n_errors = int((sifted & (bob_symbols != values[:, 0])).sum())
    qber = n_errors / n_sifted if n_sifted else 0.0
    return QkdRunResult(mub, values, outcome_codes, sifted, bob_symbols, n_sifted / n_trials, qber)


class QkdExpectation(NamedTuple):
    """Exact counterparts of a run's `sift_rate` and `qber`."""

    sift_rate: float
    qber: float


def mdi_qkd_expectation(eta: float = 1.0, noise: float = 0.0, d: int = 3) -> QkdExpectation:
    """The exact sift rate and QBER in dimension d, which `mdi_qkd_run`
    samples at d = 3: each of the 4d^2 inputs has probability 1/(4d^2), and
    its outcomes are its row of the same `_channel_table`."""
    _check_probability("eta", eta)
    _check_probability("noise", noise)
    matched = _matched_conclusive(eta, noise, d)  # basis, x, y, index
    errors = _decode_array(d).transpose(0, 2, 1)[:, None] != np.arange(d)[:, None, None]  # basis, x, y, index
    conclusive = float(matched.sum())
    return QkdExpectation(conclusive / (4 * d * d), float((matched * errors).sum()) / conclusive if conclusive else 0.0)


def generalized_conclusive_probability(d: int) -> float:
    """Analytic conclusive probability for inputs drawn uniformly from the
    d*d path-basis encoding combinations of the generalized setup (one
    value each for Alice and Bob), evaluated through the full measurement
    pipeline.  Alice's value x leaves port x empty, so only the d inputs
    with Bob's photon on port x can pass the projection: only they are
    measured, into rows x*d + x of the zero (d*d, d) array of the sum, whose
    order is kept.  Equals 1/d."""
    passed = np.eye(d).reshape((d, d) + (1,) * (d - 1)) * alice_encodings(d)[0][:, None]  # Bob's photon on port x
    conclusive = np.zeros((d * d, d))
    conclusive[:: d + 1] = conclusive_probabilities(measure(passed, d))
    return float(np.sum(conclusive)) / (d * d)
