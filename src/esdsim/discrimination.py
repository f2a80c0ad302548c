"""The entangled-state discrimination measurement.

Pipeline: nondestructive odd-parity post-selection on every input port, the
d-port DFT, time-bin-resolved on-off detection, and table lookup from the
click pattern to the state index.

Device efficiency enters only as the per-port success probability eta of the
parity readout; a failed device discards the trial (it never produces a wrong
answer).  A genuinely even parity reading and a device failure are merged
into the same PostSelectFail outcome -- the two are separable only in the
analytic decomposition that `analytic_outcome_probabilities` reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import AmbiguousPattern
from .fock import PureState
from .optics import build_dft, evolve_dense
from .states import build_phi, build_psi


@dataclass(frozen=True)
class DetectionPattern:
    """A set of clicked detectors, stored as sorted (port, timebin) pairs."""

    clicks: tuple[tuple[int, int], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "DetectionPattern":
        return cls(tuple(sorted(set((int(p), int(t)) for p, t in pairs))))

    def __str__(self) -> str:
        return "{" + ", ".join(f"D[{p},{t}]" for p, t in self.clicks) + "}"


@dataclass(frozen=True)
class DiscriminationOutcome:
    """Conclusive(index) | PostSelectFail | Inconclusive."""

    tag: str
    index: int | None = None

    CONCLUSIVE = "conclusive"
    POSTSELECT_FAIL = "postselect_fail"
    INCONCLUSIVE = "inconclusive"

    def __post_init__(self):
        if self.tag == self.CONCLUSIVE:
            if self.index is None or self.index < 0:
                raise ValueError("conclusive outcome needs a non-negative index")
        elif self.tag in (self.POSTSELECT_FAIL, self.INCONCLUSIVE):
            if self.index is not None:
                raise ValueError(f"{self.tag} outcome carries no index")
        else:
            raise ValueError(f"unknown outcome tag {self.tag!r}")

    @classmethod
    def conclusive(cls, index: int) -> "DiscriminationOutcome":
        return cls(cls.CONCLUSIVE, index)

    @property
    def is_conclusive(self) -> bool:
        return self.tag == self.CONCLUSIVE

    @property
    def code(self) -> int:
        """Integer form read by the sampler; see `outcome_of`."""
        if self.is_conclusive:
            return self.index
        return INCONCLUSIVE_CODE if self.tag == self.INCONCLUSIVE else POSTSELECT_FAIL_CODE

    def __str__(self) -> str:
        return f"conclusive({self.index})" if self.is_conclusive else self.tag


POSTSELECT_FAIL = DiscriminationOutcome(DiscriminationOutcome.POSTSELECT_FAIL)
INCONCLUSIVE = DiscriminationOutcome(DiscriminationOutcome.INCONCLUSIVE)


@dataclass(frozen=True)
class ParityModel:
    """Per-port success probability of the nondestructive parity readout."""

    eta: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")


class ParityResult(NamedTuple):
    passed_state: PureState
    pass_prob: float


def parity_postselect(state: PureState, d: int, ports: Sequence[int] | None = None) -> ParityResult:
    """Project onto every listed port holding an odd photon count.

    Returns the renormalized projected state and the projection probability
    (an empty state with probability 0 when nothing survives).  Device
    efficiency is NOT applied here; see `sample_outcomes`.
    """
    ports = tuple(range(d)) if ports is None else tuple(ports)
    kept = {
        basis: amp
        for basis, amp in state.items()
        if all(basis.port_occupancy(p) % 2 == 1 for p in ports)
    }
    projected = PureState(kept, state.tolerance)
    prob = projected.norm_sq()
    if prob == 0.0:
        return ParityResult(projected, 0.0)
    return ParityResult(projected.normalize(), prob)


def detect_distribution(state: PureState) -> dict[DetectionPattern, float]:
    """Click-pattern distribution for time-bin-resolved on-off detectors.

    A pattern's probability collects |amplitude|^2 over every basis state
    whose set of occupied modes equals the pattern (counts >= 1 collapse to
    one click).  For a normalized input the values sum to 1.
    """
    dist: dict[DetectionPattern, float] = {}
    for basis, amp in state.items():
        pattern = DetectionPattern(basis.clicks())
        dist[pattern] = dist.get(pattern, 0.0) + abs(amp) ** 2
    return dist


def click_distribution(state: PureState, d: int) -> tuple[float, dict[DetectionPattern, float]]:
    """The measurement on an input with one photon in each occupied time-bin:
    parity post-selection, the d-port DFT by `evolve_dense`, and on-off
    detection.

    Returns the pass probability and the click-pattern distribution of the
    passed state.  Amplitudes at or below the state's tolerance are dropped,
    as `PureState` drops them, so the support equals that of
    `detect_distribution` after `apply_mode_unitary`.
    """
    state, pass_prob = parity_postselect(state, d)
    if pass_prob == 0.0:
        return 0.0, {}
    timebins, amps = evolve_dense(state, build_dft(d))
    magnitudes = np.abs(amps)
    return pass_prob, {
        DetectionPattern(tuple(sorted(zip(ports, timebins)))): float(magnitudes[tuple(ports)]) ** 2
        for ports in np.argwhere(magnitudes > state.tolerance).tolist()
    }


@lru_cache(maxsize=None)
def _classifier(d: int) -> dict[DetectionPattern, int]:
    """Generated pattern table: evolve each discriminable state through the
    DFT and record its click support, insisting the supports never overlap.

    At d = 3 the published nine-state convention orders the conclusive trio
    as the qutrit triple states, whose indices 1 and 2 are swapped relative
    to the determinant family; the generator follows the published order so
    downstream corrections can key off the outcome index.
    """
    table: dict[DetectionPattern, int] = {}
    for index in range(d):
        source = build_psi(index) if d == 3 else build_phi(index, d)
        for pattern, prob in click_distribution(source, d)[1].items():
            if prob <= 1e-12:
                continue
            owner = table.get(pattern)
            if owner is not None and owner != index:
                raise AmbiguousPattern(
                    f"pattern {pattern} appears in supports of both {owner} and {index} (d={d})"
                )
            table[pattern] = index
    return table


def build_classifier(d: int) -> dict[DetectionPattern, int]:
    """Pattern -> state-index lookup for the generalized d-port setup.

    Raises AmbiguousPattern if any pattern shows up in two supports with
    probability above 1e-12 (that would falsify the discrimination claim,
    so the build aborts rather than guessing).
    """
    return dict(_classifier(d))


def classify(pattern: DetectionPattern, d: int) -> DiscriminationOutcome:
    """Map a click pattern to an outcome through the generated table; the
    tests compare the d = 3 table against the published one."""
    index = _classifier(d).get(pattern)
    return INCONCLUSIVE if index is None else DiscriminationOutcome.conclusive(index)


# -- sampling ----------------------------------------------------------------


def derive_rng(seed: int) -> np.random.Generator:
    """Counter-based Philox generator keyed by the seed.  A run draws one
    block of uniforms from it, row i for trial i, so a trial's outcome
    depends only on (seed, i)."""
    key = np.array([seed % 2**64, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Integer outcome codes used by the sampler: a conclusive outcome
# is its index, the other two outcomes are negative.
INCONCLUSIVE_CODE = -1
POSTSELECT_FAIL_CODE = -2


def outcome_of(code: int) -> DiscriminationOutcome:
    """The outcome that an integer outcome code stands for."""
    if code >= 0:
        return DiscriminationOutcome.conclusive(code)
    if code == INCONCLUSIVE_CODE:
        return INCONCLUSIVE
    if code == POSTSELECT_FAIL_CODE:
        return POSTSELECT_FAIL
    raise ValueError(f"unknown outcome code {code}")


class OutcomeTable(NamedTuple):
    """Everything the sampler needs about one input state in dimension d.

    `cumulative` holds the running sum of click-pattern probabilities after
    a passed parity projection, patterns in canonical order, and `codes` the
    outcome code of each pattern.  An input that never passes has empty
    arrays and pass_prob 0.
    """

    d: int
    pass_prob: float
    cumulative: np.ndarray
    codes: np.ndarray


def outcome_table(state: PureState, d: int) -> OutcomeTable:
    """Build the outcome table of one input: one parity projection, one DFT
    evolution and one classification per click pattern."""
    pass_prob, dist = click_distribution(state, d)
    if pass_prob == 0.0:
        return OutcomeTable(d, 0.0, np.zeros(0), np.zeros(0, dtype=np.int64))
    ordered = sorted(dist.items(), key=lambda pair: pair[0].clicks)
    cumulative = np.cumsum([prob for _, prob in ordered])
    codes = np.array([classify(pattern, d).code for pattern, _ in ordered], dtype=np.int64)
    return OutcomeTable(d, pass_prob, cumulative, codes)


def sample_outcomes(table: OutcomeTable, eta: float, uniforms: np.ndarray) -> np.ndarray:
    """Outcome codes of n trials of one input, from an (n, d + 2) block of
    uniforms in [0, 1).

    Columns 0..d-1 are the parity devices (a value >= eta discards the
    trial), column d is the parity projection (a value >= pass_prob discards
    it) and column d + 1 picks the click pattern by inverse CDF.  Row i's
    outcome depends on row i alone.
    """
    d = table.d
    if uniforms.ndim != 2 or uniforms.shape[1] != d + 2:
        raise ValueError(f"expected an (n, {d + 2}) block of uniforms, got shape {uniforms.shape}")
    passed = np.all(uniforms[:, :d] < eta, axis=1) & (uniforms[:, d] < table.pass_prob)
    codes = np.full(len(uniforms), POSTSELECT_FAIL_CODE, dtype=np.int64)
    cum = table.cumulative
    if len(cum):
        pick = np.searchsorted(cum, uniforms[passed, d + 1] * cum[-1], side="right")
        codes[passed] = table.codes[np.minimum(pick, len(cum) - 1)]
    return codes


def outcome_probabilities(table: OutcomeTable, eta: float = 1.0) -> dict[str, float]:
    """Closed-form outcome probabilities of `sample_outcomes` on this table.

    Also reports the split of PostSelectFail into device failure versus a
    genuinely even parity reading, which the sampled outcome cannot show.
    """
    devices_ok = eta**table.d
    probs: dict[str, float] = {}
    prev = 0.0
    for cum, code in zip(table.cumulative.tolist(), table.codes.tolist()):
        weight = devices_ok * table.pass_prob * (cum - prev)
        prev = cum
        key = str(outcome_of(code))
        probs[key] = probs.get(key, 0.0) + weight
    fail = max(0.0, 1.0 - devices_ok * table.pass_prob)
    probs["postselect_fail"] = probs.get("postselect_fail", 0.0) + fail
    probs["postselect_fail_device"] = 1.0 - devices_ok
    probs["postselect_fail_parity"] = max(0.0, devices_ok * (1.0 - table.pass_prob))
    return probs


def analytic_outcome_probabilities(state: PureState, d: int, eta: float = 1.0) -> dict[str, float]:
    """Closed-form outcome probabilities for `sample_outcomes` on this input."""
    return outcome_probabilities(outcome_table(state, d), eta)
