"""End-to-end protocols built on the discrimination measurement.

Teleportation: one party holds an arbitrary path-encoded qutrit (time-bin a)
plus the b/c photons of a shared entangled triple, runs the discrimination
measurement on those three photons, and announces the conclusive outcome i;
the other party recovers the input with the diagonal path rotation in row i
of `CORRECTION_PHASES` (the identity for i = 0).  Outcomes are the integer
codes of `discrimination`.

MDI-QKD: Alice encodes a value into a two-photon path-entangled pair, Bob
into a single photon (path basis or its MUB), an untrusted relay measures the
joint three-photon state and announces the outcome, and matched-basis
conclusive trials become the sifted key, decoded by the [basis, conclusive
index, Bob value] array `_decode_array`.  Trials sample, and the decode rule
and the exact sift rate and QBER read, one `Measurement` of all 288 joint
inputs, `_mdi_outcomes`.

The security-analysis (EDP) picture is implemented as well: conditioning the
shared four-photon system on each conclusive relay outcome and applying the
published correction must leave the two parties holding the maximally
entangled pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .discrimination import (
    POSTSELECT_FAIL_CODE, Measurement, click_codes, conclusive_probabilities, derive_rng, measure, sample_outcomes
)
from .fock import (
    DEFAULT_TOLERANCE,
    FockBasisState,
    ModeLabel,
    PureState,
    apply_phases,
    partial_project,
    superpose,
    tensor,
)
from .states import OMEGA, build_psi, minor_amplitudes, mub_amplitudes, pair_amplitudes, psi_amplitudes

ESD_PORTS = (0, 1, 2)
BOB_PORTS = (3, 4, 5)

COMPUTATIONAL = "computational"
MUB = "mub"


@dataclass(frozen=True)
class TeleportTarget:
    """An arbitrary normalized path-encoded qutrit, amplitudes (a0, a1, a2)."""

    alphas: tuple[complex, complex, complex]

    def __post_init__(self):
        if len(self.alphas) != 3:
            raise ValueError("target needs exactly three amplitudes")
        norm_sq = sum(abs(a) ** 2 for a in self.alphas)
        if not abs(norm_sq - 1.0) <= 1e-12:
            raise ValueError(f"target is not normalized (norm^2 = {norm_sq})")

    @classmethod
    def haar_random(cls, rng: np.random.Generator) -> "TeleportTarget":
        return cls(tuple(complex(a) for a in haar_amplitudes(rng.random((1, 6)))[0]))


def _path_state(amps: Sequence[complex], ports: Sequence[int]) -> PureState:
    """sum_j amps[j] |time-bin a on ports[j]>, unnormalized."""
    return PureState(zip((FockBasisState({ModeLabel(0, port): 1}) for port in ports), amps))


# Receiver's correction for conclusive outcome i: row i holds the per-port
# phases of a diagonal path rotation, diag(1, w^2, w) for i = 1 and its
# square for i = 2, w = exp(2 pi i / 3).
CORRECTION_PHASES = np.array([[1, 1, 1], [1, OMEGA**2, OMEGA], [1, OMEGA, OMEGA**2]])


def apply_correction(state: PureState, index: int, ports: Sequence[int]) -> PureState:
    """Apply the correction for conclusive outcome `index` to whatever
    photons sit on `ports`."""
    ports = tuple(ports)
    phases = CORRECTION_PHASES[index].tolist()

    def phase_of(mode: ModeLabel) -> complex:
        return phases[ports.index(mode.port)] if mode.port in ports else 1 + 0j

    return apply_phases(state, phase_of)


# -- teleportation ------------------------------------------------------------


@dataclass(frozen=True)
class TeleportBranch:
    """One fine-grained measurement record: probability is conditional on the
    parity post-selection having passed; `code` is the outcome code."""

    probability: float
    code: int
    bob_state: PureState
    fidelity: float


@dataclass(frozen=True)
class TeleportAnalysis:
    pass_prob: float
    branches: tuple[TeleportBranch, ...]

    def conclusive_probability(self) -> float:
        return self.pass_prob * sum(b.probability for b in self.branches if b.code >= 0)

    def outcome_fidelities(self) -> dict[int, float]:
        return {b.code: b.fidelity for b in self.branches if b.code >= 0}


# Rows that `teleport_run` and `mdi_qkd_run` sample, and the CLI formats,
# per pass; bounds their working memory.
CHUNK_ROWS = 1 << 14


def haar_amplitudes(uniforms: np.ndarray) -> np.ndarray:
    """Haar-random qutrit amplitudes, one row per row of an (n, 6) block of
    uniforms: columns 2m and 2m + 1 give amplitude m as a complex normal by
    Box-Muller, and each row is then normalized."""
    radius = np.sqrt(-2.0 * np.log1p(-uniforms[:, 0::2]))
    vecs = radius * np.exp(2j * np.pi * uniforms[:, 1::2])
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


@lru_cache(maxsize=1)
def _teleport_branch_maps() -> tuple[np.ndarray, np.ndarray]:
    """Outcome codes and maps (branch x receiver port x target port) of the
    detection branches: the output ports of the three measured photons, in
    canonical click order.  A map takes the target's amplitudes to the
    receiver's unnormalized amplitudes, the branch's correction applied.
    The receiver keeps psi0's time-bin-a photon, which never enters the
    DFT, so `measure` gets one row per (receiver port, target port).
    """
    inputs = np.eye(3)[None, :, :, None, None] * psi_amplitudes(0)[:, None, None]  # receiver, target port, a, b, c
    amps = measure(inputs.reshape(9, 3, 3, 3), 3).amplitudes
    support = np.abs(amps).max(axis=0) > DEFAULT_TOLERANCE
    codes = click_codes(3)[support]
    phases = np.where(codes[:, None] >= 0, CORRECTION_PHASES[np.maximum(codes, 0)], 1)
    matrices = phases[:, :, None] * amps[:, support].T.reshape(-1, 3, 3)
    return codes, matrices


def _fidelity(alphas: np.ndarray, receiver: np.ndarray) -> np.ndarray:
    """|<target|receiver>|^2 / <receiver|receiver> along the last axis."""
    overlap = np.sum(alphas.conj() * receiver, axis=-1)
    return np.abs(overlap) ** 2 / np.sum(np.abs(receiver) ** 2, axis=-1)


def teleport_analysis(target: TeleportTarget) -> TeleportAnalysis:
    """Deterministic enumeration of every detection branch of one run."""
    codes, matrices = _teleport_branch_maps()
    alphas = np.array(target.alphas)
    receiver = matrices @ alphas
    pass_prob = float(np.sum(np.abs(receiver) ** 2))
    scale = 1.0 / math.sqrt(pass_prob)
    branches = []
    for code, amps in zip(codes.tolist(), receiver):
        bob = _path_state((amps * scale).tolist(), BOB_PORTS)
        if not bob.is_zero():
            corrected, fid = (bob.normalize(), float(_fidelity(alphas, amps))) if code >= 0 else (bob, 0.0)
            branches.append(TeleportBranch(bob.norm_sq(), code, corrected, fid))
    return TeleportAnalysis(pass_prob, tuple(branches))


def _sample_teleport(alphas: np.ndarray, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One run per row of target amplitudes and of an (n, 2) block of
    uniforms (parity projection, branch by inverse CDF in canonical order).
    Returns outcome codes and, on conclusive rows, the fidelity of the
    chosen branch's corrected receiver amplitudes with the target (NaN
    elsewhere).
    """
    branch_codes, matrices = _teleport_branch_maps()
    n_branches = len(branch_codes)
    receiver = (alphas @ matrices.reshape(-1, 3).T).reshape(len(alphas), n_branches, 3)
    cumulative = np.cumsum(np.sum(np.abs(receiver) ** 2, axis=2), axis=1)
    pick = np.minimum(np.sum(cumulative <= uniforms[:, 1:] * cumulative[:, -1:], axis=1), n_branches - 1)
    codes = np.where(uniforms[:, 0] < cumulative[:, -1], branch_codes[pick], POSTSELECT_FAIL_CODE)
    chosen = receiver[np.arange(len(alphas)), pick]
    return codes, np.where(codes >= 0, _fidelity(alphas, chosen), np.nan)


def teleport_run(n_trials: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Outcome codes and fidelities (see `_sample_teleport`) of n teleported
    Haar-random targets, from one block of uniforms derive_rng(seed).random((n,
    8)) drawn in fixed-size chunks; row i is trial i, so a run is a prefix of
    any longer run.  Columns: 0-5 the target (`haar_amplitudes`), 6 the
    parity projection, 7 the detection branch."""
    rng = derive_rng(seed)
    codes, fidelities = np.empty(n_trials, dtype=np.int64), np.empty(n_trials)
    for start in range(0, n_trials, CHUNK_ROWS):
        u = rng.random((min(CHUNK_ROWS, n_trials - start), 8))
        rows = slice(start, start + len(u))
        codes[rows], fidelities[rows] = _sample_teleport(haar_amplitudes(u[:, :6]), u[:, 6:])
    return codes, fidelities


# -- EDP security picture ------------------------------------------------------


EDP_CHARLIE_PORTS = (0, 1, 2)
EDP_ALICE_PORTS = (3, 4, 5)
EDP_BOB_PORTS = (6, 7, 8)


def _edp_system() -> PureState:
    """Alice's triple (keeping the time-bin-a photon) tensored with Bob's
    maximally entangled pair (keeping one of two time-bin-a photons)."""
    alice = build_psi(0, ports=EDP_CHARLIE_PORTS, a_ports=EDP_ALICE_PORTS)
    bob_terms = []
    for j in range(3):
        pair = PureState(
            {
                FockBasisState(
                    {
                        ModeLabel(0, EDP_CHARLIE_PORTS[j]): 1,
                        ModeLabel(0, EDP_BOB_PORTS[j]): 1,
                    }
                ): 1.0
            }
        )
        bob_terms.append((1 / math.sqrt(3), pair))
    return tensor(alice, superpose(bob_terms))


def maximally_entangled_pair(
    alice_ports: Sequence[int] = EDP_ALICE_PORTS, bob_ports: Sequence[int] = EDP_BOB_PORTS
) -> PureState:
    """(1/sqrt(3)) sum_j |a at alice_ports[j], a at bob_ports[j]>."""
    terms = {
        FockBasisState({ModeLabel(0, alice_ports[j]): 1, ModeLabel(0, bob_ports[j]): 1}): 1
        / math.sqrt(3)
        for j in range(3)
    }
    return PureState(terms)


def edp_shared_state(charlie_outcome: int) -> PureState:
    """Condition the EDP system on a conclusive relay outcome and apply the
    receiver's correction; the result is the maximally entangled pair."""
    if not 0 <= charlie_outcome <= 2:
        raise ValueError(f"conclusive outcome must be 0..2, got {charlie_outcome}")
    system = _edp_system()
    projected = partial_project(
        system, build_psi(charlie_outcome, EDP_CHARLIE_PORTS), EDP_CHARLIE_PORTS
    )
    return apply_correction(projected.normalize(), charlie_outcome, EDP_BOB_PORTS)


# -- MDI-QKD -------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseConfig:
    """Toy channel on Bob's photon: each relay input port independently
    picks up a pi phase flip with probability `phase_flip_p`.

    Diagonal in the path basis, so it leaves path-encoded trials untouched
    and shows up as sifted-key errors only through MUB-encoded rounds."""

    phase_flip_p: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.phase_flip_p <= 1.0:
            raise ValueError(f"phase_flip_p must lie in [0, 1], got {self.phase_flip_p}")


BASES = (COMPUTATIONAL, MUB)


@dataclass(frozen=True, eq=False)
class QkdRunResult:
    """One run as columns, row i for trial i.

    `bases` and `values` have one column per party, Alice's first; a basis
    is an index into BASES.  `outcomes` holds the relay's outcome codes,
    `sifted` marks the matched-basis conclusive rows, on which Alice's
    symbol is her value and Bob's is `bob_symbols`.
    """

    bases: np.ndarray
    values: np.ndarray
    outcomes: np.ndarray
    sifted: np.ndarray
    bob_symbols: np.ndarray
    sift_rate: float
    qber: float


# Flip bits -> flipped ESD ports: bit k of a row's flip bits negates Bob's
# photon on ESD_PORTS[k].
_FLIPS = (np.arange(8)[:, None] >> np.arange(3)) & 1


def _alice_amplitudes() -> np.ndarray:
    """Alice's two-photon encodings, indexed [basis, value, b port, c port].
    Path basis: value x is pair_amplitudes((x + 1) mod 3), whose empty relay
    port is x, so a conclusive matched trial has bob_value == alice_value.
    MUB basis: psi0's kept photon projected onto the MUB bra and normalized,
    which keeps the protocol statistically identical to the EDP picture."""
    mub = np.tensordot(np.array([mub_amplitudes(x) for x in range(3)]).conj(), psi_amplitudes(0), axes=1)
    mub /= np.sqrt(np.sum(np.abs(mub) ** 2, axis=(1, 2)))[:, None, None]
    return np.array([[pair_amplitudes((x + 1) % 3) for x in range(3)], mub])


@lru_cache(maxsize=1)
def _mdi_outcomes() -> Measurement:
    """The relay's measurement of all 288 joint inputs, one dense input per
    row with an axis per time-bin (Bob's photon is time-bin 0, Alice's 1
    and 2).  Row input_code * 8 + flip_bits holds the input whose code packs
    (Alice basis, x, Bob basis, y) as np.ravel_multi_index over (2, 3, 2, 3),
    with Bob's photon flipped as `_FLIPS[flip_bits]` says."""
    alice = _alice_amplitudes()
    bob = np.array([np.eye(3), [mub_amplitudes(y) for y in range(3)]])  # basis, y, port
    bob = bob[:, :, None, :] * (1 - 2 * _FLIPS)  # basis, y, flip bits, port
    return measure((alice[:, :, None, None, None, None] * bob[..., None, None]).reshape(-1, 3, 3, 3), 3)


@lru_cache(maxsize=1)
def _decode_array() -> np.ndarray:
    """Analytic decode rule, indexed [basis, conclusive index, Bob value]:
    for each entry exactly one Alice value gives that outcome nonzero
    probability in the noiseless protocol; the relay announcement plus
    Bob's own value identify it."""
    noiseless = conclusive_probabilities(_mdi_outcomes())[::8].reshape(2, 3, 2, 3, 3)  # a basis, x, b basis, y, index
    support = np.stack([noiseless[b, :, b] for b in range(2)]).transpose(0, 3, 2, 1) > 0  # basis, index, y, x
    ambiguous = np.argwhere(support.sum(axis=-1) != 1)
    if len(ambiguous):
        b, i, y = ambiguous[0].tolist()
        candidates = np.flatnonzero(support[b, i, y]).tolist()
        raise AssertionError(f"decode rule not unique for {(BASES[b], i, y)}: {candidates}")
    decode = np.argmax(support, axis=-1)
    decode.setflags(write=False)
    return decode


def mdi_qkd_run(
    n_trials: int,
    eta: float = 1.0,
    noise: NoiseConfig | None = None,
    seed: int = 0,
) -> QkdRunResult:
    """Simulate the prepare-and-measure protocol.

    Each trial draws both parties' bases and values uniformly, feeds the
    joint three-photon state to the relay measurement with per-port device
    efficiency eta, sifts matched-basis conclusive trials, and decodes Bob's
    symbol from (outcome index, Bob value).

    All trials come from one block of uniforms, derive_rng(seed).random((n,
    12)), drawn in chunks of CHUNK_ROWS rows; row i is trial i, so a run's
    columns are a prefix of any longer run's.  Columns: 0-1 bases (< 0.5 is
    computational), 2-3 values floor(3u), 4-6 phase flips (< p), 7-9 parity
    devices, 10 parity projection, 11 click pattern.  Every trial samples a
    row of `_mdi_outcomes`, built once per process for all 288 inputs.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    noise = noise or NoiseConfig()
    rng = derive_rng(seed)
    mub = np.empty((n_trials, 2), dtype=np.int64)
    values = np.empty((n_trials, 2), dtype=np.int64)
    outcome_codes = np.empty(n_trials, dtype=np.int64)
    for start in range(0, n_trials, CHUNK_ROWS):
        u = rng.random((min(CHUNK_ROWS, n_trials - start), 12))
        rows = slice(start, start + len(u))
        mub[rows] = u[:, 0:2] >= 0.5
        values[rows] = (3 * u[:, 2:4]).astype(np.int64)
        flip_bits = (u[:, 4:7] < noise.phase_flip_p) @ np.array([1, 2, 4])
        choices = (mub[rows, 0], values[rows, 0], mub[rows, 1], values[rows, 1])
        inputs = np.ravel_multi_index(choices, (2, 3, 2, 3))
        outcome_codes[rows] = sample_outcomes(_mdi_outcomes(), inputs * 8 + flip_bits, eta, u[:, 7:12])

    sifted = (mub[:, 0] == mub[:, 1]) & (outcome_codes >= 0)
    bob_symbols = _decode_array()[mub[:, 0], np.maximum(outcome_codes, 0), values[:, 1]]
    n_sifted = int(sifted.sum())
    n_errors = int((sifted & (bob_symbols != values[:, 0])).sum())
    qber = n_errors / n_sifted if n_sifted else 0.0
    return QkdRunResult(mub, values, outcome_codes, sifted, bob_symbols, n_sifted / n_trials, qber)


class QkdExpectation(NamedTuple):
    """Exact counterparts of a run's `sift_rate` and `qber`."""

    sift_rate: float
    qber: float


def mdi_qkd_expectation(eta: float = 1.0, noise: NoiseConfig | None = None) -> QkdExpectation:
    """The exact sift rate and QBER that `mdi_qkd_run` samples: a sum over
    the 288 rows of `_mdi_outcomes`, each weighted by its input's
    probability (1/36) p^k (1 - p)^(3 - k), k the number of phase flips."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    p = (noise or NoiseConfig()).phase_flip_p
    weights = np.prod(np.where(_FLIPS == 1, p, 1 - p), axis=1)  # per flip bits
    a_basis, x, b_basis, y, _ = np.unravel_index(np.arange(288), (2, 3, 2, 3, 8))
    matched = (a_basis == b_basis)[:, None]
    errors = _decode_array()[a_basis[:, None], np.arange(3), y[:, None]] != x[:, None]
    conclusive = eta**3 * np.tile(weights, 36)[:, None] / 36 * conclusive_probabilities(_mdi_outcomes()) * matched
    sift_rate = float(conclusive.sum())
    return QkdExpectation(sift_rate, float((conclusive * errors).sum()) / sift_rate if sift_rate else 0.0)


def generalized_conclusive_probability(d: int) -> float:
    """Analytic conclusive probability for inputs drawn uniformly from the
    d*d encoding combinations of the generalized setup (one (d-1)-photon
    block state from Alice, one time-bin-0 photon from Bob), evaluated
    through the full measurement pipeline.  Equals 1/d."""
    blocks = np.stack([minor_amplitudes(i, d) for i in range(d)])  # time-bins 1..d-1
    inputs = np.eye(d)[None, :, :, None] * blocks.reshape(d, 1, 1, -1)  # block, Bob's port, time-bins 0..d-1
    return float(np.sum(conclusive_probabilities(measure(inputs.reshape((d * d,) + (d,) * d), d)))) / (d * d)
