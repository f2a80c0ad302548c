"""The entangled-state discrimination measurement.

Pipeline: nondestructive odd-parity post-selection on every input port, the
d-port DFT, time-bin-resolved on-off detection, and table lookup from the
click pattern to the state index.  `measure` runs the pipeline on a batch
of dense inputs with one photon in each time-bin 0..d-1; `click_order` fixes
the order of the d^d click patterns, and `click_codes` is the generated
click table over that order.  `outcome_table` condenses each row of the
`Measurement` that `measure` returns into the running probabilities of
its outcome codes, once per run, and `draw_codes` samples a trial from one
uniform on its row; `conclusive_probabilities` and `outcome_probabilities`
are the closed forms.  `uniform_chunks` draws every run's uniforms, a
per-process budget of them without numpy.random.

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

import sys
from functools import lru_cache
from typing import Iterator, NamedTuple

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


# -- sampling ----------------------------------------------------------------


# Rows per block of `uniform_chunks`; bounds every sampling run's memory.
CHUNK_ROWS = 1 << 14
# Uniforms that `_philox_uniforms` may compute in one process while
# numpy.random is unloaded, charged by `uniform_chunks`: the measured
# break-even, the largest power of two at which the kernel's first call is no
# slower than importing numpy.random and drawing them with its C Philox
# (fresh processes: 14.9 against 17.3 ms at 2^18; BENCH_23.json
# `kernel_vs_import`).  A run past what is left loads numpy.random.
KERNEL_BUDGET = 1 << 18
# The least a kernel run is charged: each call has a fixed cost, 0.3-0.4 ms
# warm, the time of 9000-20000 more uniforms (BENCH_23.json
# `warm_kernel_fixed_cost`), so that many small runs also spend at most about
# one import's time in the kernel.
KERNEL_RUN_FLOOR = 1 << 14
_kernel_spent = 0
# Philox4x64-10 round multipliers (Salmon et al., SC'11), one row per counter
# word 0 and 2, and key increments in the order the rounds XOR them into
# those rows: key word 1, then key word 0.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0xBB67AE8584CAA73B], [0x9E3779B97F4A7C15]], dtype=np.uint64)
# Counters per block of `_philox_uniforms`: its scratch arrays stay this long
# (768 KB in all), and longer runs reuse them block after block.
_PHILOX_BLOCK = 1 << 13


def derive_rng(seed: int) -> np.random.Generator:
    """numpy's Philox4x64-10 keyed by (seed, 0), seed in [0, 2**64): the stream of `_philox_uniforms`."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def _philox_uniforms(seed: int, offset: int, count: int) -> np.ndarray:
    """Uniforms offset .. offset + count - 1 of derive_rng(seed).random(): word
    w is word w % 4 of Philox4x64-10 on counter (w // 4 + 1, 0, 0, 0), key
    (seed, 0), a uniform (word >> 11) * 2**-53.  Counters run in blocks of
    _PHILOX_BLOCK through six preallocated scratch arrays, products from
    32-bit halves; no round allocates, which takes 7% off qkd-mc's run
    (BENCH_23.json `kernel_rewrite_claim`)."""
    first, n = offset // 4, (offset + count + 3) // 4 - offset // 4
    out = np.empty((n, 4))
    scratch = np.empty((6, 2, min(n, _PHILOX_BLOCK)), dtype=np.uint64)
    keys = _PHILOX_W * np.arange(10, dtype=np.uint64)[:, None, None] + np.array([[0], [seed]], dtype=np.uint64)
    m_lo, m_hi = _PHILOX_M & 0xFFFFFFFF, _PHILOX_M >> 32
    for start in range(0, n, _PHILOX_BLOCK):
        evens, odds, lo, hi, t, u = scratch[:, :, : min(n - start, _PHILOX_BLOCK)]  # counter words 0, 2 and 1, 3
        evens[0] = np.arange(first + start + 1, first + start + len(evens[0]) + 1, dtype=np.uint64)
        evens[1] = 0
        odds.fill(0)
        for key in keys:
            np.multiply(evens, _PHILOX_M, out=lo)
            np.right_shift(evens, 32, out=hi)
            evens &= 0xFFFFFFFF
            np.multiply(evens, m_lo, out=t)
            t >>= 32
            evens *= m_hi
            evens += t  # mid = x_lo * m_hi + (x_lo * m_lo >> 32), x_lo the low half of evens
            np.multiply(hi, m_lo, out=t)
            hi *= m_hi
            np.bitwise_and(evens, 0xFFFFFFFF, out=u)
            t += u
            t >>= 32
            evens >>= 32
            hi += evens
            hi += t  # the high words: x_hi * m_hi + (mid >> 32) + (x_hi * m_lo + (mid & 0xFFFFFFFF) >> 32)
            hi ^= odds[::-1]
            hi ^= key  # key words 1 and 0, as hi[::-1] is the new evens
            evens, odds, lo, hi = hi[::-1], lo[::-1], evens, odds
        evens >>= 11
        odds >>= 11
        uniforms = out[start : start + len(evens[0])]
        np.multiply(evens, 2.0**-53, out=uniforms[:, 0::2].T)
        np.multiply(odds, 2.0**-53, out=uniforms[:, 1::2].T)
    return out.reshape(-1)[offset % 4 : offset % 4 + count]


def uniform_chunks(seed: int, n_rows: int, cols: int) -> Iterator[tuple[int, np.ndarray]]:
    """Row i of derive_rng(seed).random((n_rows, cols)), as (start, block)
    pairs of at most CHUNK_ROWS rows in order: row i depends only on (seed,
    i).  While numpy.random is unloaded, a run whose charge, its uniforms
    but at least KERNEL_RUN_FLOOR, fits what is left of KERNEL_BUDGET uses
    the kernel and is charged; any other run loads numpy.random.  Raises
    ValueError at the call for a seed outside [0, 2**64), the key's range."""
    global _kernel_spent
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    charge = max(n_rows * cols, KERNEL_RUN_FLOOR)
    kernel = "numpy.random" not in sys.modules and _kernel_spent + charge <= KERNEL_BUDGET
    if kernel:
        _kernel_spent += charge
    rng = None if kernel else derive_rng(seed)
    def block(start: int, n: int) -> np.ndarray:
        return rng.random((n, cols)) if rng else _philox_uniforms(seed, start * cols, n * cols).reshape(n, cols)
    return ((start, block(start, min(CHUNK_ROWS, n_rows - start))) for start in range(0, n_rows, CHUNK_ROWS))


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


def draw_codes(table: np.ndarray, rows: np.ndarray | int, uniforms: np.ndarray) -> np.ndarray:
    """The int8 outcome codes of n trials, trial i on row `rows[i]` of an
    `outcome_table` (an int row serves every trial), from uniform i: the
    first code whose running probability exceeds u, else
    POSTSELECT_FAIL_CODE.  A u equal to an entry goes past it, so a code of
    probability 0 is never drawn.  Row i's outcome depends on row i alone.
    """
    count = np.zeros(len(uniforms), dtype=np.uint8)
    for column in table.T:  # column by column: 3x faster than comparing gathered rows
        count += column[rows] <= uniforms
    return np.array([*range(-1, table.shape[1] - 1), POSTSELECT_FAIL_CODE], dtype=np.int8)[count]


def conclusive_probabilities(m: Measurement) -> np.ndarray:
    """The (n, d) probabilities that each input passes the parity projection
    and is then conclusive with index i, when every parity device works."""
    return m.pass_prob[:, None] * (m.probs @ (click_codes(m.d)[:, None] == np.arange(m.d)))


def outcome_table(m: Measurement, eta: float) -> np.ndarray:
    """The (n, d + 1) outcome table of `m` at parity-device efficiency eta:
    row r holds the running probabilities of the codes INCONCLUSIVE_CODE,
    0..d-1 on input r, its click probabilities scaled by eta^d pass_prob /
    (their total).  The rest of 1 is POSTSELECT_FAIL_CODE."""
    running = np.cumsum(m.probs @ (click_codes(m.d)[:, None] == np.arange(-1, m.d)), axis=1)
    total = running[:, -1:]
    return running * np.divide(eta**m.d * m.pass_prob[:, None], total, out=np.zeros_like(total), where=total > 0)


def outcome_probabilities(m: Measurement, eta: float = 1.0) -> dict[str, float]:
    """Closed-form outcome probabilities of the one input of `m`, which
    `draw_codes` samples through its `outcome_table`.

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

