"""Port-space mode unitaries and their action on multi-photon states.

The headline object is the d-port discrete Fourier transform, entry
(j, k) = chi^(j*k)/sqrt(d) with chi = exp(2*pi*i/d).  A unitary acts on a
Fock state through the substitution a+_(x, in_k) -> sum_j U[j, k] a+_(x, out_j);
output ports reuse the input labels, and time-bin labels are never touched.
For inputs with one photon per time-bin, `dense_amplitudes` and `evolve_axes`
are the exact shortcut: one array axis per photon, one tensordot per axis.

`decompose_dft` factors the DFT into two-port beam-splitter elements plus
phase shifters (triangular Givens scheme); `recompose` is its verification
inverse.
"""

from __future__ import annotations

import cmath
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidDimension, OverlappingModes, PortMismatch
from .fock import VACUUM, FockBasisState, ModeLabel, PureState

_UNITARITY_TOL = 1e-10


class ModeUnitary:
    """An n x n complex matrix acting on port labels at fixed time-bin.

    Unitarity is checked entrywise at construction (tolerance 1e-10).
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix: np.ndarray | Sequence[Sequence[complex]]):
        mat = np.array(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        dev = np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))
        if dev.max() > _UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary (max deviation {dev.max():.3e})")
        mat.setflags(write=False)
        object.__setattr__(self, "_matrix", mat)

    def __setattr__(self, name, value):
        raise AttributeError("ModeUnitary is immutable")

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    def __repr__(self) -> str:
        return f"ModeUnitary(dim={self.dim})"


def build_dft(d: int) -> ModeUnitary:
    """The d-port discrete Fourier transform, entry (j,k) = chi^(jk)/sqrt(d)."""
    if d < 2:
        raise InvalidDimension(f"DFT needs d >= 2, got {d}")
    scale = 1.0 / math.sqrt(d)
    mat = np.empty((d, d), dtype=complex)
    for j in range(d):
        for k in range(d):
            mat[j, k] = scale * cmath.exp(2j * cmath.pi * ((j * k) % d) / d)
    return ModeUnitary(mat)


def apply_mode_unitary(state: PureState, u: ModeUnitary, port_map: Sequence[int]) -> PureState:
    """Evolve a multi-photon state under a port unitary.

    `port_map[k]` is the physical port bound to matrix index k; outputs reuse
    the same labels.  Every occupied port of `state` must appear in the map.

    Each basis term is expanded as a creation-operator monomial, each photon
    is substituted by its output superposition, and collected monomials are
    converted back to Fock amplitudes with the sqrt(n!) factors at the end.
    Terms are accumulated in canonical basis order, so results are
    reproducible bit-for-bit regardless of any outer parallelism.
    """
    if len(port_map) != u.dim:
        raise ValueError(f"port_map has {len(port_map)} entries for a dim-{u.dim} unitary")
    if len(set(port_map)) != len(port_map):
        raise ValueError("port_map entries must be distinct")
    col_of_port = {p: k for k, p in enumerate(port_map)}
    columns = [[complex(x) for x in u.matrix[:, k]] for k in range(u.dim)]
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
    return PureState(out, state.tolerance)


def dense_amplitudes(state: PureState, dim: int) -> tuple[tuple[int, ...], np.ndarray]:
    """A state holding one photon in each occupied time-bin as a dense array.

    Returns (time-bins, amplitudes): axis k of the array is time-bins[k] and
    is indexed by that photon's port, 0..dim-1.

    Raises PortMismatch for a port outside 0..dim-1 and OverlappingModes for
    a time-bin holding two or more photons; `apply_mode_unitary` is the
    general evolution for such inputs.
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


def evolve_axes(u: ModeUnitary, amps: np.ndarray, batch_axes: int = 0) -> np.ndarray:
    """Apply `u` to every axis of a dense amplitude array (one photon per
    axis, indexed by its port) after the first `batch_axes`, which index
    independent states."""
    for axis in range(batch_axes, amps.ndim):
        amps = np.moveaxis(np.tensordot(u.matrix, amps, axes=([1], [axis])), 0, axis)
    return amps


# -- element networks --------------------------------------------------------


@dataclass(frozen=True)
class BeamSplitter:
    """Two-port coupler.  `transmissivity` is the cross-port probability |t|^2;
    the embedded 2x2 block on ports (i, j) is

        [ sqrt(1-t)            sqrt(t) e^(i phi) ]
        [ -sqrt(t) e^(-i phi)  sqrt(1-t)         ]
    """

    ports: tuple[int, int]
    transmissivity: float
    phase: float = 0.0

    def __post_init__(self):
        i, j = self.ports
        if i == j or i < 0 or j < 0:
            raise ValueError(f"beam splitter needs two distinct non-negative ports, got {self.ports}")
        if not 0.0 <= self.transmissivity <= 1.0:
            raise ValueError(f"transmissivity {self.transmissivity} outside [0, 1]")


@dataclass(frozen=True)
class PhaseShifter:
    port: int
    phase: float

    def __post_init__(self):
        if self.port < 0:
            raise ValueError(f"negative port {self.port}")


Element = BeamSplitter | PhaseShifter


@dataclass(frozen=True)
class ElementNetwork:
    """An ordered run of two-port couplers and phase shifters on `dim` ports."""

    dim: int
    elements: tuple[Element, ...]

    def __post_init__(self):
        for el in self.elements:
            ports = el.ports if isinstance(el, BeamSplitter) else (el.port,)
            for p in ports:
                if p >= self.dim:
                    raise ValueError(f"element port {p} outside dim {self.dim}")

    def beam_splitters(self) -> list[BeamSplitter]:
        return [el for el in self.elements if isinstance(el, BeamSplitter)]

    def to_json(self) -> dict:
        items = []
        for el in self.elements:
            if isinstance(el, BeamSplitter):
                items.append(
                    {
                        "type": "beam_splitter",
                        "ports": list(el.ports),
                        "transmissivity": el.transmissivity,
                        "phase": el.phase,
                    }
                )
            else:
                items.append({"type": "phase_shifter", "port": el.port, "phase": el.phase})
        return {"dim": self.dim, "elements": items}


def element_matrix(element: Element, dim: int) -> np.ndarray:
    mat = np.eye(dim, dtype=complex)
    if isinstance(element, PhaseShifter):
        mat[element.port, element.port] = cmath.exp(1j * element.phase)
        return mat
    i, j = element.ports
    t = element.transmissivity
    bar = math.sqrt(1.0 - t)
    cross = math.sqrt(t)
    mat[i, i] = bar
    mat[i, j] = cross * cmath.exp(1j * element.phase)
    mat[j, i] = -cross * cmath.exp(-1j * element.phase)
    mat[j, j] = bar
    return mat


def recompose(network: ElementNetwork) -> ModeUnitary:
    """Ordered product of the network's element matrices."""
    mat = np.eye(network.dim, dtype=complex)
    for el in network.elements:
        mat = mat @ element_matrix(el, network.dim)
    return ModeUnitary(mat)


def _factor_two_port(block: np.ndarray) -> tuple[float, float, float, float]:
    """Write a 2x2 unitary as diag(e^(i g1), e^(i g2)) @ BeamSplitter(t, phi).

    Returns (g1, g2, t, phi).
    """
    t = min(max(abs(block[0, 1]) ** 2, 0.0), 1.0)
    if t < 1e-24:
        return cmath.phase(block[0, 0]), cmath.phase(block[1, 1]), 0.0, 0.0
    if t > 1.0 - 1e-24:
        return cmath.phase(block[0, 1]), cmath.phase(-block[1, 0]), 1.0, 0.0
    g1 = cmath.phase(block[0, 0])
    phi = cmath.phase(block[0, 1]) - g1
    g2 = cmath.phase(block[1, 1])
    return g1, g2, t, phi


def decompose_dft(d: int) -> ElementNetwork:
    """Factor the d-port DFT into nearest-neighbour couplers plus phases.

    Lower-triangular entries are nulled by complex Givens rotations on
    adjacent port pairs; the conjugate of each rotation becomes a beam
    splitter preceded by per-port phase shifters, and the residual diagonal
    becomes a final phase layer.  The recomposition reproduces the DFT
    exactly (not merely up to a global phase).
    """
    target = build_dft(d)
    u = target.matrix.copy()
    rotations: list[tuple[int, int, np.ndarray]] = []
    for col in range(d - 1):
        for row in range(d - 1, col, -1):
            a = u[row - 1, col]
            b = u[row, col]
            if abs(b) < 1e-14:
                continue
            r = math.hypot(abs(a), abs(b))
            giv = np.array([[a.conjugate() / r, b.conjugate() / r], [-b / r, a / r]], dtype=complex)
            u[row - 1 : row + 1, :] = giv @ u[row - 1 : row + 1, :]
            rotations.append((row - 1, row, giv))
    elements: list[Element] = []
    for i, j, giv in rotations:
        g1, g2, t, phi = _factor_two_port(giv.conj().T)
        if abs(g1) > 1e-14:
            elements.append(PhaseShifter(i, g1))
        if abs(g2) > 1e-14:
            elements.append(PhaseShifter(j, g2))
        if t > 1e-14:
            elements.append(BeamSplitter((i, j), t, phi))
    for port in range(d):
        theta = cmath.phase(u[port, port])
        if abs(theta) > 1e-14:
            elements.append(PhaseShifter(port, theta))
    network = ElementNetwork(d, tuple(elements))
    err = np.abs(recompose(network).matrix - target.matrix).max()
    if err > 1e-10:
        raise AssertionError(f"decomposition self-check failed for d={d}: error {err:.3e}")
    if d == 3:
        ts = sorted(round(bs.transmissivity, 9) for bs in network.beam_splitters())
        if ts != [0.5, 0.5, round(2 / 3, 9)]:
            raise AssertionError(f"d=3 transmissivities {ts} do not match the expected {{1/2, 1/2, 2/3}}")
    return network


def unitaries_equal_up_to_global_phase(a: ModeUnitary, b: ModeUnitary, tol: float = 1e-10) -> bool:
    """Equality after dividing out the phase at a's largest-magnitude entry."""
    if a.dim != b.dim:
        return False
    am, bm = a.matrix, b.matrix
    idx = np.unravel_index(np.argmax(np.abs(am)), am.shape)
    if abs(bm[idx]) == 0.0:
        return False
    phase = bm[idx] / am[idx]
    phase /= abs(phase)
    return bool(np.abs(phase * am - bm).max() < tol)
