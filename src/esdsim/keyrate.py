"""Closed-form secret-key-rate analysis for the d-dimensional protocol.

Per sifted signal the rate is

    r_d = log2(d) + 2 (1-Q) log2(1-Q) + 2 Q log2(Q / (d-1)),

which at d = 3 reduces to log2(3) - 2Q - 2H(Q).  Per total signal the rate is
R = r_d / (2d): a factor 1/d for the discrimination success probability and
1/2 for the basis match.  The factor rests on the simulated protocol at any
d: `protocols.mdi_qkd_expectation(1, 0, d)` gives the sift rate 1/(2d), and
`protocols._decode_array(d)` decodes every sifted symbol uniquely.  The
bound is evaluated as the operational rate.

Raw (possibly negative) values are what the root finder sees; clamping to
zero happens only in table output, mirroring how the curves are plotted.
`keyrate_table` yields its rows as plain tuples, one at a time, so a table
is written as it is evaluated.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from .errors import DomainError, NoRoot


def shannon_entropy(x: float) -> float:
    """Binary entropy H(x) = -x log2 x - (1-x) log2(1-x), with 0 log 0 = 0."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"entropy argument {x} outside [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def r3(q: float) -> float:
    """Qutrit rate per sifted signal log2(3) - 2Q - 2H(Q), i.e. r_d(3, Q) on
    Q in [0, 1/2]."""
    if not 0.0 <= q <= 0.5:
        raise DomainError(f"qutrit rate defined for Q in [0, 1/2], got {q}")
    return r_d(3, q)


def r_d(d: int, q: float) -> float:
    """d-dimensional rate per sifted signal (raw, may be negative), written
    as log2(d) - 2 H(Q) - 2 Q log2(d-1)."""
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    if not 0.0 <= q < 1.0:
        raise DomainError(f"error rate must lie in [0, 1), got {q}")
    return math.log2(d) - 2.0 * shannon_entropy(q) - 2.0 * q * math.log2(d - 1)


def rate_per_signal(d: int, q: float) -> float:
    """Rate per total signal R = r_d / (2d), raw (may be negative)."""
    return r_d(d, q) / (2.0 * d)


_SCAN_STEP = 1e-3
_ROOT_TOL = 1e-6


def crossover_q(d1: int, d2: int) -> float:
    """Smallest Q > 0 where the raw per-total-signal curves of d1 and d2 meet.

    A coarse scan over (0, 0.5) in steps of _SCAN_STEP brackets the first
    sign change of the difference, then bisection narrows it below
    _ROOT_TOL.  Raises NoRoot when the curves never cross there, and
    DomainError for d1 == d2.
    """
    if d1 == d2:
        raise DomainError("crossover of a curve with itself is undefined")

    def gap(q: float) -> float:
        return rate_per_signal(d1, q) - rate_per_signal(d2, q)

    lo = _SCAN_STEP
    g_lo = gap(lo)
    bracket = None
    q = lo + _SCAN_STEP
    while q < 0.5:
        g = gap(q)
        if g == 0.0:
            return q
        if g_lo * g < 0.0:
            bracket = (q - _SCAN_STEP, q)
            break
        g_lo = g
        q += _SCAN_STEP
    if bracket is None:
        raise NoRoot(f"rate curves for d={d1} and d={d2} do not cross in (0, 0.5)")
    a, b = bracket
    g_a = gap(a)
    while b - a > _ROOT_TOL:
        mid = 0.5 * (a + b)
        g_mid = gap(mid)
        if g_a * g_mid <= 0.0:
            b = mid
        else:
            a, g_a = mid, g_mid
    return 0.5 * (a + b)


def sifted_rate(setup: str, d: int, eta: float = 1.0) -> float:
    """Sifted signal rate, basis-match factor excluded, of the relay
    measurement named `setup`.

    The single-state linear-optics filter, "bell_filter", yields 1/d^2
    regardless of device efficiency; the proposed measurement,
    "proposed_esd", yields eta^d / d (d parity devices, success probability
    eta each, conclusive fraction 1/d).  Any other name raises ValueError.
    """
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"eta must lie in [0, 1], got {eta}")
    if setup == "bell_filter":
        return 1.0 / d**2
    if setup == "proposed_esd":
        return eta**d / d
    raise ValueError(f"unknown sifted-rate setup {setup!r} (use 'proposed_esd' or 'bell_filter')")


def eta_threshold(d: int) -> float:
    """Device efficiency (1/d)^(1/d) at which the proposed setup's sifted
    rate equals the filter's 1/d^2."""
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    return (1.0 / d) ** (1.0 / d)


def keyrate_table(
    d_values: Iterable[int], q_values: Iterable[float], eta: float | None = None
) -> Iterator[tuple[int, float, float, float]]:
    """Evaluate the rate curves on a grid, yielding (d, Q, r_sifted,
    r_total) for each d and then each Q; `q_values` is iterated once per d.

    `r_sifted` is the raw per-sifted-signal rate; `r_total` is clamped at
    zero as plotted.  With `eta` given, r_total additionally carries the
    eta^d device-efficiency factor.
    """
    for d in d_values:
        for q in q_values:
            r = r_d(d, q)
            total = max(0.0, r / (2.0 * d))  # rate_per_signal(d, q), clamped, from the same r
            if eta is not None:
                total *= eta**d
            yield d, q, r, total
