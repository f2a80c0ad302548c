"""Port-space mode unitaries, as plain matrices, and their action on
multi-photon states.

The headline object is the d-port discrete Fourier transform, entry
(j, k) = chi^(j*k)/sqrt(d) with chi = exp(2*pi*i/d).  A unitary acts on each
photon's port and never touches its time-bin; output ports reuse the input
labels.  With one photon per time-bin, a state is a dense array with one
axis per photon, indexed by its port, and `evolve_axes` applies the unitary
exactly as one product per axis.

`decompose_dft` factors the DFT into two-port beam-splitter elements plus
phase shifters (triangular Givens scheme); `recompose` is its verification
inverse, applying each element as its 1x1 or 2x2 block on its ports' columns.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidDimension
from .states import unit_root


@lru_cache(maxsize=None)
def build_dft(d: int) -> np.ndarray:
    """The d-port discrete Fourier transform, entry (j,k) = chi^(jk)/sqrt(d).

    Checked for unitarity entrywise (tolerance 1e-10) once per d; cached
    for the process, so the array is read-only.
    """
    if d < 2:
        raise InvalidDimension(f"DFT needs d >= 2, got {d}")
    scale = 1.0 / math.sqrt(d)
    mat = np.array([[scale * unit_root(d, j * k) for k in range(d)] for j in range(d)])
    dev = np.abs(mat.conj().T @ mat - np.eye(d)).max()
    if dev > 1e-10:
        raise ValueError(f"matrix is not unitary (max deviation {dev:.3e})")
    mat.setflags(write=False)
    return mat


def evolve_axes(u: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Apply the port unitary `u` to every axis but the first of a batch of
    dense amplitude arrays: axis 0 indexes independent states, every later
    axis one photon, indexed by its port.  Each step is the product
    `np.tensordot` forms, and drops the previous result before allocating
    the next."""
    for axis in range(1, amps.ndim):
        rows = np.moveaxis(amps, axis, 0)
        shape, rows = rows.shape, rows.reshape(len(rows), -1)
        del amps
        amps = np.moveaxis(np.dot(u, rows).reshape(shape), 0, axis)
    return amps


# -- element networks --------------------------------------------------------


class BeamSplitter(NamedTuple):
    """Two-port coupler.  `transmissivity` is the cross-port probability |t|^2;
    the embedded 2x2 block on ports (i, j) is

        [ sqrt(1-t)            sqrt(t) e^(i phi) ]
        [ -sqrt(t) e^(-i phi)  sqrt(1-t)         ]
    """

    ports: tuple[int, int]
    transmissivity: float
    phase: float = 0.0


class PhaseShifter(NamedTuple):
    port: int
    phase: float


Element = BeamSplitter | PhaseShifter


class ElementNetwork(NamedTuple):
    """An ordered run of two-port couplers and phase shifters on `dim` ports."""

    dim: int
    elements: tuple[Element, ...]

    def beam_splitters(self) -> list[BeamSplitter]:
        return [el for el in self.elements if isinstance(el, BeamSplitter)]

    def to_json(self) -> dict:
        elements = [{"type": _JSON_TYPES[type(el)], **el._asdict()} for el in self.elements]
        return {"dim": self.dim, "elements": elements}


_JSON_TYPES = {BeamSplitter: "beam_splitter", PhaseShifter: "phase_shifter"}


def _element_block(element: Element, dim: int) -> tuple[list[int], np.ndarray]:
    """The element's ports and its 1x1 or 2x2 block on them.  Raises
    ValueError for a port outside 0..dim-1, a beam splitter on one port
    twice, or a transmissivity outside [0, 1]."""
    ports = list(element.ports) if isinstance(element, BeamSplitter) else [element.port]
    for p in ports:
        if not 0 <= p < dim:
            raise ValueError(f"element port {p} outside 0..{dim - 1}")
    if isinstance(element, PhaseShifter):
        return ports, np.array([[cmath.exp(1j * element.phase)]])
    t = element.transmissivity
    if ports[0] == ports[1]:
        raise ValueError(f"beam splitter needs two distinct ports, got {element.ports}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmissivity {t} outside [0, 1]")
    bar, cross = math.sqrt(1.0 - t), math.sqrt(t)
    return ports, np.array(
        [[bar, cross * cmath.exp(1j * element.phase)], [-cross * cmath.exp(-1j * element.phase), bar]]
    )


def recompose(network: ElementNetwork) -> np.ndarray:
    """Ordered product of the network's elements.  Each element's block
    right-multiplies only the columns of its ports, which is the product
    with the element embedded in the identity at O(dim) per element."""
    mat = np.eye(network.dim, dtype=complex)
    for el in network.elements:
        ports, block = _element_block(el, network.dim)
        mat[:, ports] = mat[:, ports] @ block
    return mat


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
    adjacent port pairs; the conjugate of each rotation becomes, as soon as
    it is found, a beam splitter preceded by per-port phase shifters, and
    the residual diagonal becomes a final phase layer.  The recomposition
    reproduces the DFT exactly (not merely up to a global phase).
    """
    target = build_dft(d)
    u = target.copy()
    elements: list[Element] = []
    for col in range(d - 1):
        for row in range(d - 1, col, -1):
            a = u[row - 1, col]
            b = u[row, col]
            if abs(b) < 1e-14:
                continue
            r = math.hypot(abs(a), abs(b))
            giv = np.array([[a.conjugate() / r, b.conjugate() / r], [-b / r, a / r]], dtype=complex)
            u[row - 1 : row + 1, :] = giv @ u[row - 1 : row + 1, :]
            g1, g2, t, phi = _factor_two_port(giv.conj().T)
            if abs(g1) > 1e-14:
                elements.append(PhaseShifter(row - 1, g1))
            if abs(g2) > 1e-14:
                elements.append(PhaseShifter(row, g2))
            if t > 1e-14:
                elements.append(BeamSplitter((row - 1, row), t, phi))
    for port in range(d):
        theta = cmath.phase(u[port, port])
        if abs(theta) > 1e-14:
            elements.append(PhaseShifter(port, theta))
    network = ElementNetwork(d, tuple(elements))
    err = np.abs(recompose(network) - target).max()
    if err > 1e-10:
        raise AssertionError(f"decomposition self-check failed for d={d}: error {err:.3e}")
    if d == 3:
        ts = sorted(round(bs.transmissivity, 9) for bs in network.beam_splitters())
        if ts != [0.5, 0.5, round(2 / 3, 9)]:
            raise AssertionError(f"d=3 transmissivities {ts} do not match the expected {{1/2, 1/2, 2/3}}")
    return network


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """Equality of two arrays of one shape (unitaries, states) after
    dividing out the phase at a's largest-magnitude entry: every entry of
    (that phase) * a lies within `tol` of b's."""
    if a.shape != b.shape:
        return False
    idx = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    if abs(b[idx]) == 0.0:
        return False
    phase = b[idx] / a[idx]
    phase /= abs(phase)
    return bool(np.abs(phase * a - b).max() < tol)
