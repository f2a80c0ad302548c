"""The sparse second-quantized reference that the tests check the dense
package against.

The package holds every state as a dense array with one axis per photon.
This module builds the same states independently as sparse superpositions
over Fock occupation configurations of labeled (time-bin, port) modes, and
runs the generic creation-operator evolution (`apply_mode_unitary`), on-off
detection (`detect_distribution`) and the parity projection on them.  It
also holds term-by-term definitions of the minor, MUB and pair states that
the package's key-distribution encodings are checked against, sparse views
of the state families, the conversion of a sparse state to a dense array
(`dense_amplitudes`), the closed-form click table of the determinant
family, and the sparse text and JSON forms of a state that `list-states`
output is checked against.

Bosonic sqrt(n!) factors are applied explicitly, and every state prunes
amplitudes at or below DEFAULT_TOLERANCE, the tolerance the dense
measurement prunes with, so that exact interference zeros do not survive as
float dust.  Test modules import it as `sparse_reference`; pytest does not
collect it.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from esdsim.discrimination import DEFAULT_TOLERANCE, INCONCLUSIVE_CODE, click_codes, click_order
from esdsim.errors import IndexOutOfRange
from esdsim.states import phi_amplitudes, psi_amplitudes


class OverlappingModes(ValueError):
    """Photons could meet in one optical mode: tensor operands share a mode,
    or a dense conversion finds two or more photons in one time-bin."""


class PortMismatch(ValueError):
    """A photon occupies a port that a port unitary does not cover."""


# -- modes and states ----------------------------------------------------------


class ModeLabel:
    """One optical mode: a time-bin index and a port index.

    Canonical ordering for serialization and term collection is by
    (port, timebin), not by field order.
    """

    __slots__ = ("timebin", "port")

    def __init__(self, timebin: int, port: int):
        if timebin < 0 or port < 0:
            raise ValueError(f"mode indices must be non-negative, got ({timebin}, {port})")
        self.timebin = timebin
        self.port = port

    def key(self) -> tuple[int, int]:
        """Canonical (port, timebin) sort key."""
        return (self.port, self.timebin)

    def __eq__(self, other) -> bool:
        return isinstance(other, ModeLabel) and self.timebin == other.timebin and self.port == other.port

    def __hash__(self) -> int:
        return hash((self.timebin, self.port))

    def __str__(self) -> str:
        letter = chr(ord("a") + self.timebin) if self.timebin < 26 else f"t{self.timebin}:"
        return f"{letter}{self.port}"


class FockBasisState:
    """An occupation-number configuration: mode -> positive photon count.

    Zero-count entries are never stored; equality and hashing follow the
    canonical (port, timebin) mode order.
    """

    __slots__ = ("_occ", "_photons", "_hash")

    def __init__(self, occupations: Mapping[ModeLabel, int] | Iterable[tuple[ModeLabel, int]] = ()):
        items = occupations.items() if isinstance(occupations, Mapping) else occupations
        kept = []
        for mode, count in items:
            if count == 0:
                continue
            if count < 0:
                raise ValueError(f"negative occupation {count} for mode {mode}")
            kept.append((mode, int(count)))
        kept.sort(key=lambda pair: pair[0].key())
        for (m1, _), (m2, _) in zip(kept, kept[1:]):
            if m1 == m2:
                raise ValueError(f"duplicate mode {m1} in occupation map")
        self._occ = tuple(kept)
        self._photons = sum(c for _, c in kept)
        self._hash = hash(self._occ)

    @property
    def photon_count(self) -> int:
        return self._photons

    def items(self) -> tuple[tuple[ModeLabel, int], ...]:
        return self._occ

    def modes(self) -> tuple[ModeLabel, ...]:
        return tuple(mode for mode, _ in self._occ)

    def ports(self) -> set[int]:
        return {mode.port for mode, _ in self._occ}

    @classmethod
    def _from_sorted(cls, occ: tuple[tuple[ModeLabel, int], ...], photons: int) -> "FockBasisState":
        obj = object.__new__(cls)
        obj._occ = occ
        obj._photons = photons
        obj._hash = hash(occ)
        return obj

    def with_photon_added(self, mode: ModeLabel) -> tuple["FockBasisState", int]:
        """Return (new state, new count at `mode`) after adding one photon."""
        occ = list(self._occ)
        key = mode.key()
        for idx, (m, c) in enumerate(occ):
            mk = m.key()
            if mk == key:
                occ[idx] = (m, c + 1)
                return FockBasisState._from_sorted(tuple(occ), self._photons + 1), c + 1
            if mk > key:
                occ.insert(idx, (mode, 1))
                return FockBasisState._from_sorted(tuple(occ), self._photons + 1), 1
        occ.append((mode, 1))
        return FockBasisState._from_sorted(tuple(occ), self._photons + 1), 1

    def union(self, other: "FockBasisState") -> "FockBasisState":
        """Merge two configurations with disjoint mode sets."""
        return FockBasisState(self._occ + other._occ)

    def split_by_ports(self, ports: frozenset[int] | set[int]) -> tuple["FockBasisState", "FockBasisState"]:
        """Split into (modes whose port is in `ports`, the rest)."""
        inside = [(m, c) for m, c in self._occ if m.port in ports]
        outside = [(m, c) for m, c in self._occ if m.port not in ports]
        return FockBasisState(inside), FockBasisState(outside)

    def clicks(self) -> tuple[tuple[int, int], ...]:
        """Occupied detectors as sorted (port, timebin) pairs."""
        return tuple(sorted((m.port, m.timebin) for m, _ in self._occ))

    def sqrt_factorial(self) -> float:
        """sqrt(prod_m n_m!) - conversion factor between creation-operator
        monomials and normalized Fock kets."""
        prod = 1
        for _, c in self._occ:
            prod *= math.factorial(c)
        return math.sqrt(prod)

    def sort_key(self) -> tuple:
        return tuple((m.key(), c) for m, c in self._occ)

    def __eq__(self, other) -> bool:
        return isinstance(other, FockBasisState) and self._occ == other._occ

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self._occ:
            return "vac"
        parts = []
        for mode, count in self._occ:
            parts.append(str(mode) if count == 1 else f"{mode}^{count}")
        return " ".join(parts)


VACUUM = FockBasisState()


class PureState:
    """A sparse superposition over Fock basis states.

    Amplitudes with magnitude <= DEFAULT_TOLERANCE are dropped at
    construction.  All stored basis states must carry the same total photon
    number (photon-number superselection).
    """

    __slots__ = ("_amps",)

    def __init__(self, amplitudes: Mapping[FockBasisState, complex] | Iterable[tuple[FockBasisState, complex]] = ()):
        items = amplitudes.items() if isinstance(amplitudes, Mapping) else amplitudes
        kept = {b: complex(a) for b, a in items if abs(a) > DEFAULT_TOLERANCE}
        # canonical term order; iteration order is part of the numeric contract
        ordered = dict(sorted(kept.items(), key=lambda pair: pair[0].sort_key()))
        counts = {b.photon_count for b in ordered}
        if len(counts) > 1:
            raise ValueError(f"mixed photon numbers {sorted(counts)} in one PureState")
        self._amps = ordered

    def items(self) -> Iterator[tuple[FockBasisState, complex]]:
        return iter(self._amps.items())

    def basis_states(self) -> tuple[FockBasisState, ...]:
        return tuple(self._amps)

    def amplitude(self, basis: FockBasisState) -> complex:
        return self._amps.get(basis, 0j)

    def num_terms(self) -> int:
        return len(self._amps)

    def is_zero(self) -> bool:
        return not self._amps

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self._amps.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def normalize(self) -> "PureState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return self.scaled(1.0 / n)

    def scaled(self, factor: complex) -> "PureState":
        return PureState({b: a * factor for b, a in self._amps.items()})


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


# -- operations ------------------------------------------------------------


def inner_product(x: PureState, y: PureState) -> complex:
    """<x|y>, conjugate-linear in the first argument."""
    if x.num_terms() > y.num_terms():
        return complex(inner_product(y, x)).conjugate()
    total = 0j
    for basis, amp in x.items():
        total += amp.conjugate() * y.amplitude(basis)
    return total


def tensor(x: PureState, y: PureState) -> PureState:
    """Tensor product of states on disjoint mode sets.

    Raises OverlappingModes if any occupied mode appears in both operands;
    the provenance of each party's photons must stay explicit.
    """
    x_modes = {m for b, _ in x.items() for m in b.modes()}
    y_modes = {m for b, _ in y.items() for m in b.modes()}
    common = x_modes & y_modes
    if common:
        raise OverlappingModes(f"operands share occupied modes {sorted(str(m) for m in common)}")
    out: dict[FockBasisState, complex] = {}
    for bx, ax in x.items():
        for by, ay in y.items():
            out[bx.union(by)] = ax * ay
    return PureState(out)


def apply_phases(state: PureState, phase_of: Callable[[ModeLabel], complex]) -> PureState:
    """Apply a diagonal mode unitary: amplitude *= prod_m phase(m)**n_m."""
    out: dict[FockBasisState, complex] = {}
    for basis, amp in state.items():
        factor = 1 + 0j
        for mode, count in basis.items():
            factor *= phase_of(mode) ** count
        out[basis] = amp * factor
    return PureState(out)


def partial_project(state: PureState, ket: PureState, ports: Iterable[int]) -> PureState:
    """(<ket| tensor I) |state>, where `ket` lives on the given ports.

    Returns the unnormalized remainder state on the complementary ports;
    its squared norm is the projection probability.
    """
    port_set = frozenset(ports)
    out: dict[FockBasisState, complex] = {}
    for basis, amp in state.items():
        inside, outside = basis.split_by_ports(port_set)
        bra_amp = ket.amplitude(inside)
        if bra_amp == 0j:
            continue
        out[outside] = out.get(outside, 0j) + bra_amp.conjugate() * amp
    return PureState(out)


def states_equal_up_to_global_phase(x: PureState, y: PureState, tol: float = 1e-12) -> bool:
    """Equality after dividing out the phase at x's largest-magnitude term:
    the max-term amplitude distance between y and (that phase) * x is below
    `tol`."""
    if x.is_zero() or y.is_zero():
        return max(x.norm(), y.norm()) < tol
    ref = max(x.items(), key=lambda pair: abs(pair[1]))[0]
    y_ref = y.amplitude(ref)
    if y_ref == 0j:
        return abs(x.amplitude(ref)) < tol
    phase = y_ref / x.amplitude(ref)
    phase /= abs(phase)
    basis_union = set(x.basis_states()) | set(y.basis_states())
    return max(abs(phase * x.amplitude(b) - y.amplitude(b)) for b in basis_union) < tol


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


# -- evolution and detection -----------------------------------------------------


def apply_mode_unitary(state: PureState, u, port_map: Sequence[int]) -> PureState:
    """Evolve a multi-photon state under a port unitary `u`, a square matrix.

    `port_map[k]` is the physical port bound to matrix index k; outputs reuse
    the same labels, and time-bin labels are never touched.  Every occupied
    port of `state` must appear in the map.

    Each basis term is expanded as a creation-operator monomial, each photon
    is substituted by its output superposition
    a+_(x, in_k) -> sum_j U[j, k] a+_(x, out_j), and collected monomials are
    converted back to Fock amplitudes with the sqrt(n!) factors at the end.
    """
    if len(port_map) != len(u):
        raise ValueError(f"port_map has {len(port_map)} entries for a dim-{len(u)} unitary")
    if len(set(port_map)) != len(port_map):
        raise ValueError("port_map entries must be distinct")
    col_of_port = {p: k for k, p in enumerate(port_map)}
    columns = [[complex(x) for x in u[:, k]] for k in range(len(u))]
    out: dict[FockBasisState, complex] = defaultdict(complex)
    for basis, amp in state.items():
        for p in basis.ports():
            if p not in col_of_port:
                raise PortMismatch(f"photon occupies port {p}, not covered by port_map {tuple(port_map)}")
        # polynomial over output creation-operator monomials
        poly: dict[FockBasisState, complex] = {VACUUM: amp / basis.sqrt_factorial()}
        for mode, count in basis.items():
            column = columns[col_of_port[mode.port]]
            targets = [
                (ModeLabel(mode.timebin, port_map[row]), entry)
                for row, entry in enumerate(column)
                if entry != 0
            ]
            for _ in range(count):
                grown: dict[FockBasisState, complex] = defaultdict(complex)
                for mono, coeff in poly.items():
                    for out_mode, entry in targets:
                        new_mono, _ = mono.with_photon_added(out_mode)
                        grown[new_mono] += coeff * entry
                poly = grown
        for mono, coeff in poly.items():
            out[mono] += coeff * mono.sqrt_factorial()
    return PureState(out)


def dense_amplitudes(state: PureState, dim: int) -> tuple[tuple[int, ...], np.ndarray]:
    """A state holding one photon in each occupied time-bin as a dense array.

    Returns (time-bins, amplitudes): axis k of the array is time-bins[k] and
    is indexed by that photon's port, 0..dim-1.

    Raises PortMismatch for a port outside 0..dim-1 and OverlappingModes for
    a time-bin holding two or more photons.
    """
    timebins: tuple[int, ...] = ()
    entries = []
    for basis, amp in state.items():
        photons = sorted((mode.timebin, mode.port) for mode, count in basis.items() for _ in range(count))
        bins = tuple(timebin for timebin, _ in photons)
        if len(set(bins)) != len(bins):
            raise OverlappingModes(f"{basis} puts two or more photons in one time-bin")
        if entries and bins != timebins:
            raise ValueError(f"{basis} occupies time-bins {bins}, other terms {timebins}")
        timebins = bins
        ports = tuple(port for _, port in photons)
        if ports and max(ports) >= dim:
            raise PortMismatch(f"photon occupies port {max(ports)}, outside ports 0..{dim - 1}")
        entries.append((ports, amp))
    amps = np.zeros((dim,) * len(timebins), dtype=complex)
    for ports, amp in entries:
        amps[ports] = amp
    return timebins, amps


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


def click_code(pattern: DetectionPattern, d: int) -> int:
    """The code `click_codes(d)` gives a pattern: its row in `click_order(d)`
    when the pattern has one click in each of time-bins 0..d-1, else
    INCONCLUSIVE_CODE."""
    ports = dict((t, p) for p, t in pattern.clicks)
    if len(pattern.clicks) != d or sorted(ports) != list(range(d)):
        return INCONCLUSIVE_CODE
    (row,) = np.flatnonzero(np.all(click_order(d) == [ports[t] for t in range(d)], axis=1))
    return int(click_codes(d)[row])


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


# -- term-by-term definitions -------------------------------------------------------


def basis(*modes: tuple[int, int]) -> FockBasisState:
    """One photon in each (time-bin, port) mode."""
    return FockBasisState({ModeLabel(t, p): 1 for t, p in modes})


def unit_root(d: int, exponent: int) -> complex:
    return cmath.exp(2j * cmath.pi * (exponent % d) / d)


def permutation_sign(perm: Sequence[int]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def reference_minor(index: int, dim: int) -> PureState:
    """The (d-1)-photon determinant state of time-bins 1..d-1 over every
    port but `index`, antisymmetrized over the remaining ports in ascending
    order."""
    remaining = [p for p in range(dim) if p != index]
    scale = 1.0 / math.sqrt(math.factorial(dim - 1))
    return PureState(
        {
            basis(*((t + 1, remaining[perm[t]]) for t in range(dim - 1))): permutation_sign(perm) * scale
            for perm in itertools.permutations(range(dim - 1))
        }
    )


def reference_mub(timebin: int, k: int) -> PureState:
    """The single-photon MUB state (1/sqrt(3)) sum_j omega^(k j) |j>."""
    scale = 1.0 / math.sqrt(3)
    return PureState({basis((timebin, j)): unit_root(3, k * j) * scale for j in range(3)})


def reference_pair(x: int) -> PureState:
    """The pair (1/sqrt(2)) (|b_x, c_(x+1)> - |b_(x+1), c_x>), indices mod 3."""
    hi = (x + 1) % 3
    scale = 1.0 / math.sqrt(2)
    return PureState({basis((1, x), (2, hi)): scale, basis((1, hi), (2, x)): -scale})


# -- sparse views of the dense state families ------------------------------------


_QUTRIT_PORTS = (0, 1, 2)
# Port labels of the sparse protocol systems: the relay's measured ports and
# the receiving party's ports.
ESD_PORTS = _QUTRIT_PORTS
BOB_PORTS = (3, 4, 5)


def _check_ports(ports: Sequence[int] | None, n: int) -> tuple[int, ...]:
    ports = tuple(range(n) if ports is None else ports)
    if len(ports) != n or len(set(ports)) != n:
        raise ValueError(f"expected {n} distinct port labels, got {ports!r}")
    return ports


def _as_state(amps: np.ndarray, axis_ports: Sequence[Sequence[int]], first_timebin: int) -> PureState:
    """The sparse view of a dense array, the inverse of `dense_amplitudes`:
    axis k holds the photon of time-bin first_timebin + k, and its index j
    puts it on port axis_ports[k][j]."""
    nonzero = np.argwhere(amps)
    bases = (
        FockBasisState({ModeLabel(first_timebin + k, axis_ports[k][j]): 1 for k, j in enumerate(index)})
        for index in nonzero.tolist()
    )
    return PureState(zip(bases, amps[tuple(nonzero.T)].tolist()))


def build_psi(index: int, ports: Sequence[int] = _QUTRIT_PORTS, a_ports: Sequence[int] | None = None) -> PureState:
    """`psi_amplitudes(index)` on the given ports.  `a_ports`, when given,
    relocates the time-bin-a photon onto different port labels (used when
    one party keeps that photon)."""
    amps = psi_amplitudes(index)
    ports = _check_ports(ports, 3)
    a_ports = ports if a_ports is None else _check_ports(a_ports, 3)
    return _as_state(amps, (a_ports, ports, ports), 0)


def build_phi(index: int, dim: int) -> PureState:
    """`phi_amplitudes(index, dim)` on ports 0..d-1."""
    return _as_state(phi_amplitudes(index, dim), (range(dim),) * dim, 0)


def _relabel(state: PureState, ports: Sequence[int]) -> PureState:
    """`state` with every photon on port p moved to port ports[p]."""
    return PureState(
        (FockBasisState({ModeLabel(mode.timebin, ports[mode.port]): count for mode, count in term.items()}), amp)
        for term, amp in state.items()
    )


def _check_index(name: str, index: int, n: int) -> None:
    if not 0 <= index < n:
        raise IndexOutOfRange(f"{name} must be 0..{n - 1}, got {index}")


def build_minor(index: int, dim: int, ports: Sequence[int] | None = None) -> PureState:
    """`reference_minor(index, dim)` on the given ports (default 0..d-1):
    empty on ports[index], time-bins 1..d-1."""
    _check_index("minor index", index, dim)
    return _relabel(reference_minor(index, dim), _check_ports(ports, dim))


def mub_state(timebin: int, k: int, ports: Sequence[int] = _QUTRIT_PORTS) -> PureState:
    """`reference_mub(timebin, k)` on the given ports."""
    _check_index("MUB index", k, 3)
    _check_index("time-bin", timebin, 3)
    return _relabel(reference_mub(timebin, k), _check_ports(ports, 3))


def build_alice_pair(x: int, ports: Sequence[int] = _QUTRIT_PORTS) -> PureState:
    """`reference_pair(x)` as the b and c photons on the given ports."""
    _check_index("pair index", x, 3)
    return _relabel(reference_pair(x), _check_ports(ports, 3))


def path_state(amps: Sequence[complex], ports: Sequence[int]) -> PureState:
    """sum_j amps[j] |time-bin a on ports[j]>, unnormalized."""
    return PureState(zip((FockBasisState({ModeLabel(0, port): 1}) for port in ports), amps))


def target_state(alphas: Sequence[complex], ports: Sequence[int]) -> PureState:
    """The teleportation target with amplitudes `alphas` as a time-bin-a
    photon on the given ports."""
    return path_state(alphas, ports)


# -- text and JSON forms -----------------------------------------------------------


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
