"""Trial sampling from one Philox4x64-10 stream per seed.

`uniform_chunks` yields the per-trial uniforms of an `mdiqkd` run in blocks
of CHUNK_ROWS rows, and `draw_codes` turns a trial's uniform into its
outcome code on a row of an `outcome_table`.  `draw_counts` draws a
`discriminate` or `teleport` run's outcome counts from the d + 1 uniforms of
`philox_head`.
Every source gives the bits of derive_rng(seed).random(): a process's first
`uniform_chunks` run computes them with the numpy kernel `_philox_uniforms`
while numpy.random is unloaded and the run draws at most KERNEL_BUDGET; every
other run draws from numpy's C generator.
"""

from __future__ import annotations

import math
import sys
from typing import Iterator

import numpy as np

from .discrimination import INCONCLUSIVE_CODE, POSTSELECT_FAIL_CODE

# Rows per block of `uniform_chunks`; bounds every sampling run's memory.
CHUNK_ROWS = 1 << 14
# Uniforms that a process's first `uniform_chunks` run may compute with
# `_philox_uniforms` while numpy.random is unloaded: the measured break-even,
# the largest power of two at which the kernel's first call is no slower than
# importing numpy.random and drawing them with its C Philox (fresh processes:
# 14.9 against 17.3 ms at 2^18; BENCH_23.json `kernel_vs_import`).
KERNEL_BUDGET = 1 << 18
_first_run = True  # no `uniform_chunks` run yet in this process
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
    i).  A process's first run uses the kernel if numpy.random is unloaded
    and the run draws at most KERNEL_BUDGET uniforms; any other run loads
    numpy.random.  Raises ValueError at the call for a seed outside
    [0, 2**64), the key's range."""
    global _first_run
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    kernel = _first_run and "numpy.random" not in sys.modules and n_rows * cols <= KERNEL_BUDGET
    _first_run = False
    rng = None if kernel else derive_rng(seed)
    def block(start: int, n: int) -> np.ndarray:
        return rng.random((n, cols)) if rng else _philox_uniforms(seed, start * cols, n * cols).reshape(n, cols)
    return ((start, block(start, min(CHUNK_ROWS, n_rows - start))) for start in range(0, n_rows, CHUNK_ROWS))


def draw_codes(table: np.ndarray, rows: np.ndarray | int, uniforms: np.ndarray) -> np.ndarray:
    """The int8 outcome codes of n trials, trial i on row `rows[i]` of an
    `outcome_table` (its joint input in `mdi_qkd_run`; an int puts every
    trial on one row), from uniform i: the first code whose running
    probability exceeds u, else POSTSELECT_FAIL_CODE.  A u equal to an entry
    goes past it, so a code of probability 0 is never drawn.  Row i's
    outcome depends on row i alone."""
    count = np.zeros(len(uniforms), dtype=np.uint8)
    for column in table.T:  # column by column: 3x faster than comparing gathered rows
        count += column[rows] <= uniforms
    return np.array([*range(-1, table.shape[1] - 1), POSTSELECT_FAIL_CODE], dtype=np.int8)[count]


def philox_head(seed: int, count: int) -> list[float]:
    """derive_rng(seed).random(count): Philox4x64-10 on counters 1..ceil(count / 4) in
    Python ints, free of the kernel's fixed cost.  ValueError for a seed outside [0, 2**64)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    ((m0,), (m2,)), ((w1,), (w0,)), mask, words = _PHILOX_M.tolist(), _PHILOX_W.tolist(), 2**64 - 1, []
    for counter in range(1, (count + 3) // 4 + 1):
        x0, x1, x2, x3, k0, k1 = counter, 0, 0, 0, seed, 0
        for _ in range(10):
            x0, x1, x2, x3 = (m2 * x2 >> 64) ^ x1 ^ k0, m2 * x2 & mask, (m0 * x0 >> 64) ^ x3 ^ k1, m0 * x0 & mask
            k0, k1 = (k0 + w0) & mask, (k1 + w1) & mask
        words += (x0, x1, x2, x3)
    return [(word >> 11) * 2.0**-53 for word in words[:count]]


def _binomial(n: int, p: float, u: float) -> int:
    """k ~ B(n, p) from one uniform: terms from the mode outward, the larger next
    one first, until the running mass exceeds u.  The mode's term (math.lgamma,
    a few ulps of n ln n) is off by a relative 1e-8 at most at n = 10**6.  Once
    no tail can add 2**-53 the rest goes to the mode, so p = 0 gives 0, p = 1 n."""
    lo = hi = k = mode = min(math.floor((n + 1) * p), n)
    if not 0.0 < p < 1.0:
        return mode
    odds = p / (1.0 - p)
    running = below = above = math.exp(math.lgamma(n + 1) - math.lgamma(mode + 1) - math.lgamma(n - mode + 1)
                                       + mode * math.log(p) + (n - mode) * math.log1p(-p))
    while running <= u:
        down, up = below * lo / ((n - lo + 1) * odds), above * (n - hi) / (hi + 1) * odds  # terms lo - 1, hi + 1
        if max(lo * down, (n - hi) * up) < 2**-53:  # terms fall outward: a tail is at most its length times this
            return mode
        if up >= down:
            hi, above, k = hi + 1, up, hi + 1
        else:
            lo, below, k = lo - 1, down, lo - 1
        running += max(up, down)
    return k


def draw_counts(row: np.ndarray, n: int, uniforms: list[float]) -> dict[int, int]:
    """The counts of n trials on one `outcome_table` row as one multinomial draw
    from d + 1 uniforms (Devroye 1986, ch. X): INCONCLUSIVE_CODE, then 0..d-1,
    each binomial in the trials left at its probability given none before it;
    POSTSELECT_FAIL_CODE takes the rest.  No code of probability 0 is drawn."""
    counts, left, below = {}, n, 0.0
    for code, (cum, u) in enumerate(zip(row.tolist(), uniforms), INCONCLUSIVE_CODE):
        counts[code] = _binomial(left, (cum - below) / max(cum - below, 1.0 - below) if cum > below else 0.0, u)
        left, below = left - counts[code], cum
    return {**counts, POSTSELECT_FAIL_CODE: left}
