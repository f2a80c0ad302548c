"""The entangled-state discrimination measurement.

Pipeline: nondestructive odd-parity post-selection on every input port, the
d-port DFT, time-bin-resolved on-off detection, and table lookup from the
click pattern to the state index.  `measure` runs the pipeline on a batch
of dense inputs with one photon in each time-bin 0..d-1; `click_order` fixes
the order of the d^d click patterns, and `click_codes` is the generated
click table over that order.  `outcome_table` condenses each row of the
`Measurement` that `measure` returns into the running probabilities of
its outcome codes, once per run, which `sampling` draws from.
`conclusive_probabilities` and `outcome_probabilities` are the closed forms.

An outcome is an integer code: a conclusive outcome is its state index
(>= 0), the other two are INCONCLUSIVE_CODE and POSTSELECT_FAIL_CODE.
`outcome_name` gives the name under which reports list a code.

Device efficiency enters only as the per-port success probability eta of the
parity readout; a failed device discards the trial (it never produces a wrong
answer).  A genuinely even parity reading and a device failure are merged
into the same postselect_fail outcome -- the two are separable only in the
analytic decomposition that `outcome_probabilities` reports.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import AmbiguousPattern
from .optics import build_dft, evolve_axes
from .states import family_index, permutation_table, phi_amplitudes

# Amplitudes of at most this magnitude are exact interference zeros left as
# float dust: `measure` gives their click patterns probability 0, and the
# protocols and `list-states` drop them too.
DEFAULT_TOLERANCE = 1e-12


@lru_cache(maxsize=None)
def click_order(d: int) -> np.ndarray:
    """The d^d output port tuples in canonical click order, one row each.

    Entry t of a row is the port of the time-bin-t photon.  Rows are sorted
    by their sorted (port, time-bin) click pairs; every array over click
    patterns follows this order.
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
    of the renormalized passed inputs: zero at or below DEFAULT_TOLERANCE
    in amplitude, and on inputs that never pass.
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
    """The generated click table: the int8 outcome code of each pattern in
    `click_order`, from one `measure` call over the d discriminable states.

    A pattern in the support (probability above 1e-12) of state i gets code
    i, any other INCONCLUSIVE_CODE.  State i is the determinant-family
    member `family_index(i, d)`, so at d = 3 the codes are the published
    qutrit triple's indices.  Raises AmbiguousPattern if two supports share
    a pattern: that would falsify the discrimination claim, so the build
    aborts.
    """
    sources = np.stack([phi_amplitudes(family_index(code, d), d) for code in range(d)])
    support = measure(sources, d).probs > 1e-12
    shared = np.flatnonzero(support.sum(axis=0) > 1)
    if len(shared):
        clicks = sorted(zip(click_order(d)[shared[0]].tolist(), range(d)))  # (port, time-bin) pairs
        pattern = "{" + ", ".join(f"D[{port},{t}]" for port, t in clicks) + "}"
        i, j = np.flatnonzero(support[:, shared[0]])[:2].tolist()
        raise AmbiguousPattern(f"pattern {pattern} appears in supports of both {i} and {j} (d={d})")
    codes = np.where(support.any(axis=0), np.argmax(support, axis=0), INCONCLUSIVE_CODE).astype(np.int8)
    codes.setflags(write=False)
    return codes


# Integer outcome codes of `click_codes` and `sampling`: a conclusive
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


def conclusive_probabilities(m: Measurement) -> np.ndarray:
    """The (n, d) probabilities that each input passes the parity projection
    and is then conclusive with index i, when every parity device works."""
    return m.pass_prob[:, None] * (m.probs @ (click_codes(m.d)[:, None] == np.arange(m.d)))


def outcome_table(m: Measurement, eta: float) -> np.ndarray:
    """The (n, d + 1) outcome table of `m` at parity-device efficiency eta:
    row r holds the running probabilities of the codes INCONCLUSIVE_CODE,
    0..d-1 on input r: its click probabilities over their total, times eta^d
    pass_prob (no subnormal total overflows).  The rest of 1 is POSTSELECT_FAIL_CODE."""
    running = np.cumsum(m.probs @ (click_codes(m.d)[:, None] == np.arange(-1, m.d)), axis=1)
    total = running[:, -1:]
    return np.divide(running, total, out=np.zeros_like(running), where=total > 0) * (eta**m.d * m.pass_prob[:, None])


def outcome_probabilities(m: Measurement, eta: float = 1.0) -> dict[str, float]:
    """Closed-form outcome probabilities of the one input of `m`, which
    `sampling.draw_counts` samples through its `outcome_table`.

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

