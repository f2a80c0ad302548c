"""The entangled-state discrimination measurement.

Pipeline: nondestructive odd-parity post-selection on every input port, the
d-port DFT, time-bin-resolved on-off detection, and table lookup from the
click pattern to the state index.  `measure` runs the pipeline on a batch
of dense inputs with one photon in each time-bin 0..d-1; `click_order` fixes
the order of the d^d click patterns, and `click_codes` is the generated
click table over that order.  `sample_outcomes` samples the rows of the
`Measurement` that `measure` returns, and `conclusive_probabilities` and
`outcome_probabilities` are its closed forms.  `detect_distribution` and
`DetectionPattern` are the sparse detection model the tests check against.

An outcome is an integer code: a conclusive outcome is its state index
(>= 0), the other two are INCONCLUSIVE_CODE and POSTSELECT_FAIL_CODE.
`outcome_name` gives the name under which reports list a code.

Device efficiency enters only as the per-port success probability eta of the
parity readout; a failed device discards the trial (it never produces a wrong
answer).  A genuinely even parity reading and a device failure are merged
into the same postselect_fail outcome -- the two are separable only in the
analytic decomposition that `analytic_outcome_probabilities` reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .errors import AmbiguousPattern
from .fock import DEFAULT_TOLERANCE, PureState
from .optics import build_dft, dense_amplitudes, evolve_axes
from .states import permutation_table, phi_amplitudes, psi_amplitudes


@dataclass(frozen=True)
class DetectionPattern:
    """A set of clicked detectors, stored as sorted (port, timebin) pairs."""

    clicks: tuple[tuple[int, int], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "DetectionPattern":
        return cls(tuple(sorted(set((int(p), int(t)) for p, t in pairs))))

    def __str__(self) -> str:
        return "{" + ", ".join(f"D[{p},{t}]" for p, t in self.clicks) + "}"


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


@lru_cache(maxsize=None)
def click_order(d: int) -> np.ndarray:
    """The d^d output port tuples in canonical click order, one row each.

    Entry t of a row is the port of the time-bin-t photon.  Rows are sorted
    by their sorted (port, time-bin) click pairs, the order of
    `DetectionPattern.clicks`; every array over click patterns follows it.
    Entries are bytes: the sort keys port * d + t fit one for d <= 16.
    """
    clicks = np.indices((d,) * d, dtype=np.uint8).reshape(d, -1)
    clicks *= d
    clicks += np.arange(d, dtype=np.uint8)[:, None]  # pair (port, t) as port * d + t
    order = clicks.T[np.lexsort(np.sort(clicks, axis=0)[::-1])]
    order //= d
    order.setflags(write=False)
    return order


class Measurement(NamedTuple):
    """The measurement on n inputs in dimension d, click patterns in
    `click_order`; every sampler and closed form reads it.

    `pass_prob` (n,) holds the parity projection probabilities,
    `amplitudes` (n, d^d) the evolved amplitudes of the projected inputs
    before renormalization, and `probs` (n, d^d) the click probabilities
    of the renormalized passed inputs: zero at or below the tolerance, as
    `PureState` drops such amplitudes, and on inputs that never pass.
    """

    d: int
    pass_prob: np.ndarray
    amplitudes: np.ndarray
    probs: np.ndarray


def measure(inputs: np.ndarray, d: int) -> Measurement:
    """Parity post-selection, the d-port DFT and on-off detection on a batch
    of dense inputs, shape (n, d, ..., d): axis t + 1 is indexed by the port
    of the time-bin-t photon, t = 0..d-1.

    d photons leave every one of the d ports odd only as one photon per
    port, so the parity projection is a mask on the port permutations.
    The DFT never mixes time-bins, so the evolution is one product per
    time-bin axis.  No full-size array outlives its use: the projected
    input goes straight into the evolution, the click-order gather reads
    the evolved array in place, and the probabilities are computed in place.
    """
    odd = np.zeros((d,) * d, dtype=bool)
    odd[tuple(permutation_table(d)[0].T)] = True
    pass_prob = np.sum(np.where(odd, np.abs(inputs), 0.0).reshape(len(inputs), -1) ** 2, axis=1)
    evolved = evolve_axes(build_dft(d), np.where(odd, inputs, 0))
    amplitudes = evolved[(slice(None),) + tuple(click_order(d).T)]
    del evolved
    probs = np.abs(amplitudes)
    probs *= np.divide(1.0, np.sqrt(pass_prob), out=np.zeros_like(pass_prob), where=pass_prob > 0)[:, None]
    probs[probs <= DEFAULT_TOLERANCE] = 0.0
    return Measurement(d, pass_prob, amplitudes, np.square(probs, out=probs))


@lru_cache(maxsize=None)
def click_codes(d: int) -> np.ndarray:
    """The generated click table: the outcome code of each pattern in
    `click_order`, from one `measure` call over the d discriminable states.

    A pattern in the support (probability above 1e-12) of state i gets code
    i, any other INCONCLUSIVE_CODE.  At d = 3 the states are the published
    qutrit triple, whose indices 1 and 2 are swapped relative to the
    determinant family, so downstream corrections key off the published
    index.  Raises AmbiguousPattern if two supports share a pattern: that
    would falsify the discrimination claim, so the build aborts.
    """
    sources = np.stack([psi_amplitudes(index) if d == 3 else phi_amplitudes(index, d) for index in range(d)])
    support = measure(sources, d).probs > 1e-12
    shared = np.flatnonzero(support.sum(axis=0) > 1)
    if len(shared):
        pattern = DetectionPattern.from_pairs(zip(click_order(d)[shared[0]].tolist(), range(d)))
        i, j = np.flatnonzero(support[:, shared[0]])[:2].tolist()
        raise AmbiguousPattern(f"pattern {pattern} appears in supports of both {i} and {j} (d={d})")
    codes = np.where(support.any(axis=0), np.argmax(support, axis=0), INCONCLUSIVE_CODE)
    codes.setflags(write=False)
    return codes


def build_classifier(d: int) -> dict[DetectionPattern, int]:
    """Pattern -> state-index lookup of `click_codes`, conclusive patterns
    only; the tests compare the d = 3 table against the published one."""
    return {
        DetectionPattern.from_pairs(zip(ports, range(d))): code
        for ports, code in zip(click_order(d).tolist(), click_codes(d).tolist())
        if code >= 0
    }


# -- sampling ----------------------------------------------------------------


def derive_rng(seed: int) -> np.random.Generator:
    """Counter-based Philox generator keyed by the seed.  A run draws one
    block of uniforms from it, row i for trial i, so a trial's outcome
    depends only on (seed, i).  Raises ValueError for a seed outside
    [0, 2**64), the range of the Philox key word it fills."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


# Integer outcome codes of `click_codes` and the samplers: a conclusive
# outcome is its index, the other two outcomes are negative.
INCONCLUSIVE_CODE = -1
POSTSELECT_FAIL_CODE = -2


def outcome_name(code: int) -> str:
    """The name under which reports list an outcome code: conclusive(i),
    inconclusive or postselect_fail.  Raises ValueError for any other code."""
    if code >= 0:
        return f"conclusive({code})"
    if code == INCONCLUSIVE_CODE:
        return "inconclusive"
    if code == POSTSELECT_FAIL_CODE:
        return "postselect_fail"
    raise ValueError(f"unknown outcome code {code}")


def measurement_input(state: PureState, d: int) -> np.ndarray:
    """A sparse input holding one photon in each of time-bins 0..d-1 as the
    dense array, shape (d,) * d, that `measure` takes one row of.

    Raises PortMismatch or OverlappingModes as `dense_amplitudes` does, and
    ValueError for an input in any other time-bins.
    """
    timebins, amps = dense_amplitudes(state, d)
    if timebins != tuple(range(d)):
        raise ValueError(f"the measurement needs one photon in each of time-bins 0..{d - 1}, got {timebins}")
    return amps


def sample_outcomes(m: Measurement, rows: np.ndarray, eta: float, uniforms: np.ndarray) -> np.ndarray:
    """Outcome codes of n trials, trial i on input `rows[i]` of `m`, from an
    (n, d + 2) block of uniforms in [0, 1).

    Columns 0..d-1 are the parity devices (a value >= eta discards the
    trial), column d is the parity projection (a value >= pass_prob discards
    it) and column d + 1 picks the click pattern: the first whose running
    probability exceeds u times the row total, else the row's last pattern
    with nonzero probability.  Row i's outcome depends on row i alone.
    """
    d = m.d
    if uniforms.ndim != 2 or uniforms.shape[1] != d + 2:
        raise ValueError(f"expected an (n, {d + 2}) block of uniforms, got shape {uniforms.shape}")
    codes = np.full(len(uniforms), POSTSELECT_FAIL_CODE, dtype=np.int64)
    # column by column: on rows this short, np.all(axis=1) is about 3x slower
    devices_ok = np.logical_and.reduce([uniforms[:, k] < eta for k in range(d)])
    passed = np.flatnonzero(devices_ok & (uniforms[:, d] < m.pass_prob[rows]))
    if not len(passed):
        return codes
    # One search over the (row, running probability) keys of every support
    # pattern, as complex numbers: numpy orders them by real, then imaginary part.
    support = m.probs > 0
    key_row, key_pattern = np.nonzero(support)
    row_end = np.cumsum(np.count_nonzero(support, axis=1))
    cumulative = np.cumsum(m.probs, axis=1)
    r = rows[passed]
    queries = r + 1j * (uniforms[passed, d + 1] * cumulative[r, -1])
    pick = np.searchsorted(key_row + 1j * cumulative[support], queries, side="right")
    codes[passed] = click_codes(d)[key_pattern[np.minimum(pick, row_end[r] - 1)]]
    return codes


def conclusive_probabilities(m: Measurement) -> np.ndarray:
    """The (n, d) probabilities that each input passes the parity projection
    and is then conclusive with index i, when every parity device works."""
    return m.pass_prob[:, None] * (m.probs @ (click_codes(m.d)[:, None] == np.arange(m.d)))


def outcome_probabilities(m: Measurement, eta: float = 1.0) -> dict[str, float]:
    """Closed-form outcome probabilities of `sample_outcomes` on the one
    input of `m`.

    Also reports the split of PostSelectFail into device failure versus a
    genuinely even parity reading, which the sampled outcome cannot show.
    """
    (pass_prob,), (probs,) = m.pass_prob.tolist(), m.probs
    support = probs > 0
    devices_ok = eta**m.d
    result: dict[str, float] = {}
    prev = 0.0
    for cum, code in zip(np.cumsum(probs[support]).tolist(), click_codes(m.d)[support].tolist()):
        weight = devices_ok * pass_prob * (cum - prev)
        prev = cum
        key = outcome_name(code)
        result[key] = result.get(key, 0.0) + weight
    fail = outcome_name(POSTSELECT_FAIL_CODE)
    result[fail] = result.get(fail, 0.0) + max(0.0, 1.0 - devices_ok * pass_prob)
    result["postselect_fail_device"] = 1.0 - devices_ok
    result["postselect_fail_parity"] = max(0.0, devices_ok * (1.0 - pass_prob))
    return result


def analytic_outcome_probabilities(state: PureState, d: int, eta: float = 1.0) -> dict[str, float]:
    """Closed-form outcome probabilities for `sample_outcomes` on this input."""
    return outcome_probabilities(measure(measurement_input(state, d)[None], d), eta)
