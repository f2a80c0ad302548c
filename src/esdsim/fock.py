"""Sparse second-quantized algebra for photons over labeled optical modes.

A mode is a (time-bin, port) pair.  States are sparse complex superpositions
over Fock occupation configurations; bosonic sqrt(n!) factors are applied
explicitly, and every state prunes amplitudes at or below the fixed
DEFAULT_TOLERANCE so that exact interference zeros do not survive as float
dust.

All values here are immutable and every operation returns a new object, so
the whole stack is safe to share across threads without synchronization.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Mapping

from .errors import OverlappingModes

DEFAULT_TOLERANCE = 1e-12


class ModeLabel:
    """One optical mode: a time-bin index and a port index.

    Canonical ordering for serialization and term collection is by
    (port, timebin), not by field order.
    """

    __slots__ = ("timebin", "port")

    def __init__(self, timebin: int, port: int):
        if timebin < 0 or port < 0:
            raise ValueError(f"mode indices must be non-negative, got ({timebin}, {port})")
        object.__setattr__(self, "timebin", timebin)
        object.__setattr__(self, "port", port)

    def __setattr__(self, name, value):
        raise AttributeError("ModeLabel is immutable")

    def key(self) -> tuple[int, int]:
        """Canonical (port, timebin) sort key."""
        return (self.port, self.timebin)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModeLabel)
            and self.timebin == other.timebin
            and self.port == other.port
        )

    def __hash__(self) -> int:
        return hash((self.timebin, self.port))

    def __repr__(self) -> str:
        return f"ModeLabel(timebin={self.timebin}, port={self.port})"

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
        object.__setattr__(self, "_occ", tuple(kept))
        object.__setattr__(self, "_photons", sum(c for _, c in kept))
        object.__setattr__(self, "_hash", hash(self._occ))

    def __setattr__(self, name, value):
        raise AttributeError("FockBasisState is immutable")

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
        object.__setattr__(obj, "_occ", occ)
        object.__setattr__(obj, "_photons", photons)
        object.__setattr__(obj, "_hash", hash(occ))
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

    def __repr__(self) -> str:
        return f"FockBasisState({self._occ!r})"

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
    number (photon-number superselection within this package's scope).
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
        object.__setattr__(self, "_amps", ordered)

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

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

    def __repr__(self) -> str:
        photons = next(iter(self._amps)).photon_count if self._amps else None
        return f"PureState({len(self._amps)} terms, n={photons})"


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
    """Equality after dividing out the phase at x's largest-magnitude term."""
    return phase_aligned_distance(x, y) < tol


def phase_aligned_distance(x: PureState, y: PureState) -> float:
    """max-term amplitude distance between y and (best global phase) * x."""
    if x.is_zero() and y.is_zero():
        return 0.0
    if x.is_zero() or y.is_zero():
        return max(x.norm(), y.norm())
    ref = max(x.items(), key=lambda pair: abs(pair[1]))[0]
    y_ref = y.amplitude(ref)
    if y_ref == 0j:
        return abs(x.amplitude(ref))
    phase = y_ref / x.amplitude(ref)
    phase /= abs(phase)
    basis_union = set(x.basis_states()) | set(y.basis_states())
    return max(abs(phase * x.amplitude(b) - y.amplitude(b)) for b in basis_union)

