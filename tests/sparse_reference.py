"""Sparse helpers that only the tests use.

The package's runtime paths work on dense arrays; these build and inspect
the sparse states that the tests compare them against: photon counts of a
basis state, creation operators on the vacuum, superpositions, the parity
projection, and sparse views of the state families and path-encoded photons
that no runtime path builds as sparse states; also the closed-form click
table of the determinant family, and the sparse text and JSON forms of a
state that `list-states` output is checked against.
Test modules import it as `sparse_reference`; pytest does not collect it.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from esdsim.discrimination import INCONCLUSIVE_CODE, click_order
from esdsim.errors import IndexOutOfRange
from esdsim.fock import DEFAULT_TOLERANCE, VACUUM, FockBasisState, ModeLabel, PureState
from esdsim.protocols import TeleportTarget
from esdsim.states import _QUTRIT_PORTS, _as_state, _check_ports, minor_amplitudes, mub_amplitudes, pair_amplitudes


def occupancy(basis: FockBasisState, mode: ModeLabel) -> int:
    """Photon number in one mode."""
    return dict(basis.items()).get(mode, 0)


def port_occupancy(basis: FockBasisState, port: int) -> int:
    """Total photon number sitting in a port, summed over time-bins."""
    return sum(c for m, c in basis.items() if m.port == port)


def vacuum() -> PureState:
    return PureState({VACUUM: 1.0})


def single_photon(mode: ModeLabel) -> PureState:
    return PureState({FockBasisState({mode: 1}): 1.0})


def apply_creation(state: PureState, mode: ModeLabel) -> PureState:
    """Apply a creation operator: each |..,n,..> term maps to
    sqrt(n+1)|..,n+1,..>.  The result is not renormalized."""
    out: dict[FockBasisState, complex] = {}
    for basis, amp in state.items():
        new_basis, new_count = basis.with_photon_added(mode)
        out[new_basis] = out.get(new_basis, 0j) + amp * math.sqrt(new_count)
    return PureState(out)


def superpose(terms: Iterable[tuple[complex, PureState]]) -> PureState:
    """Unnormalized linear combination sum_k c_k |state_k>."""
    out: dict[FockBasisState, complex] = {}
    for coeff, state in terms:
        for basis, amp in state.items():
            out[basis] = out.get(basis, 0j) + coeff * amp
    return PureState(out)


class ParityResult(NamedTuple):
    passed_state: PureState
    pass_prob: float


def parity_postselect(state: PureState, d: int, ports: Sequence[int] | None = None) -> ParityResult:
    """Project onto every listed port (default 0..d-1) holding an odd photon
    count.

    Returns the renormalized projected state and the projection probability
    (an empty state with probability 0 when nothing survives).  Device
    efficiency is not applied here.
    """
    ports = tuple(range(d)) if ports is None else tuple(ports)
    kept = {basis: amp for basis, amp in state.items() if all(port_occupancy(basis, p) % 2 == 1 for p in ports)}
    projected = PureState(kept)
    prob = projected.norm_sq()
    if prob == 0.0:
        return ParityResult(projected, 0.0)
    return ParityResult(projected.normalize(), prob)


def build_minor(index: int, dim: int, ports: Sequence[int] | None = None) -> PureState:
    """`minor_amplitudes(index, dim)` on the given ports (default 0..d-1):
    empty on ports[index], time-bins 1..d-1."""
    amps = minor_amplitudes(index, dim)
    return _as_state(amps, (_check_ports(ports, dim),) * (dim - 1), 1)


def mub_state(timebin: int, k: int, ports: Sequence[int] = _QUTRIT_PORTS) -> PureState:
    """`mub_amplitudes(k)` as a photon of the given time-bin on the given
    ports."""
    amps = mub_amplitudes(k)
    if not 0 <= timebin <= 2:
        raise IndexOutOfRange(f"time-bin must be 0..2, got {timebin}")
    return _as_state(amps, (_check_ports(ports, 3),), timebin)


def build_alice_pair(x: int, ports: Sequence[int] = _QUTRIT_PORTS) -> PureState:
    """`pair_amplitudes(x)` as the b and c photons on the given ports."""
    amps = pair_amplitudes(x)
    return _as_state(amps, (_check_ports(ports, 3),) * 2, 1)


def path_state(amps: Sequence[complex], ports: Sequence[int]) -> PureState:
    """sum_j amps[j] |time-bin a on ports[j]>, unnormalized."""
    return PureState(zip((FockBasisState({ModeLabel(0, port): 1}) for port in ports), amps))


def target_state(target: TeleportTarget, ports: Sequence[int]) -> PureState:
    """The teleportation target as a time-bin-a photon on the given ports."""
    return path_state(target.alphas, ports)


def suppression_law(d: int) -> np.ndarray:
    """The outcome code of each pattern in `click_order(d)` for the
    determinant family, in closed form (the suppression law of the d-port
    DFT): when the photons of time-bins 1..d-1 hit distinct ports and miss
    port m, the pattern belongs to phi_i with i = (m - p0) mod d, p0 the
    port of the time-bin-0 photon; any other pattern is inconclusive."""
    order = click_order(d).astype(int)
    distinct = np.all(np.diff(np.sort(order[:, 1:], axis=1), axis=1) > 0, axis=1)
    missing = d * (d - 1) // 2 - order[:, 1:].sum(axis=1)
    return np.where(distinct, (missing - order[:, 0]) % d, INCONCLUSIVE_CODE)


def format_amp(amp: complex) -> str:
    """An amplitude to 8 decimals, real when its imaginary part is at or
    below DEFAULT_TOLERANCE."""
    if abs(amp.imag) <= DEFAULT_TOLERANCE:
        return f"{amp.real:+.8f}"
    return f"({amp.real:+.8f}{amp.imag:+.8f}j)"


def state_text(state: PureState) -> str:
    """The terms as `amplitude |modes>`, two spaces apart, in canonical
    order; "0" for the zero state."""
    if state.is_zero():
        return "0"
    return "  ".join(f"{format_amp(amp)} |{basis}>" for basis, amp in state.items())


def state_to_json(state: PureState) -> list[dict]:
    """Serialize to a list of {modes: [[timebin, port, count]..], re, im} terms.

    Modes within a term and terms themselves follow canonical order.
    """
    out = []
    for basis, amp in state.items():
        modes = [[m.timebin, m.port, c] for m, c in basis.items()]
        out.append({"modes": modes, "re": amp.real, "im": amp.imag})
    return out
