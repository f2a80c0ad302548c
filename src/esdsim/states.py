"""The entangled-state families.

Each family is defined once as a dense amplitude array with one axis per
photon, in time-bin order, indexed by port position (`psi_amplitudes`,
`phi_amplitudes`); every protocol and CLI path reads these arrays.  The
key-distribution encodings are derived from `phi_amplitudes` in
`protocols`, which can also read the DFT from `optics`.

Time-bin letters map a -> 0, b -> 1, c -> 2 (and onward for higher d), so the
qutrit triple family (`psi_amplitudes`) and the general-d determinant family
(`phi_amplitudes`) share one axis convention.

`phi_amplitudes` expands the plain (unsigned) d x d determinant of creation
operators: the index-0 member is the fully antisymmetric one-photon-per-port
state, and member i applies the diagonal phase chi^(i*j) to the component
whose time-bin-0 photon sits on the j-th port.  At d = 3 this family equals
the qutrit triple states {psi_0, psi_2, psi_1} term for term; the index swap
1 <-> 2 comes from the two families' conjugate phase conventions
(omega^(2ij) versus chi^(ij)).
"""

from __future__ import annotations

import cmath
import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import IndexOutOfRange, InvalidDimension


def unit_root(d: int, exponent: int) -> complex:
    """chi^exponent with chi = exp(2*pi*i/d), the exponent reduced mod d."""
    return cmath.exp(2j * cmath.pi * (exponent % d) / d)


OMEGA = unit_root(3, 1)


@lru_cache(maxsize=None)
def permutation_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n! permutations of 0..n-1 in lexicographic order, one per row,
    and their signs (+1 or -1)."""
    perms = np.array(list(itertools.permutations(range(n)))).reshape(-1, n)
    signs = 1 - 2 * (np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2)) % 2)  # inversion parity
    perms.setflags(write=False)
    signs.setflags(write=False)
    return perms, signs


def psi_amplitudes(index: int) -> np.ndarray:
    """One of the nine tripartite entangled qutrit states as a 3 x 3 x 3
    array over the ports of the a, b and c photons.

    Members 0..2 put every photon in a separate port; members 3..8 bunch two
    time-bins into one port.
    """
    if not 0 <= index <= 8:
        raise IndexOutOfRange(f"qutrit triple index must be 0..8, got {index}")
    family, i = divmod(index, 3)
    # per family: port offsets of the (b, c) photons relative to j, first and
    # second summand of the antisymmetric pair
    bc_offsets = {0: ((1, 2), (2, 1)), 1: ((0, 1), (1, 0)), 2: ((2, 0), (0, 2))}[family]
    amps = np.zeros((3, 3, 3), dtype=complex)
    scale = 1.0 / math.sqrt(6)
    for j in range(3):
        phase = unit_root(3, 2 * i * j) * scale
        for sign, (db, dc) in zip((1, -1), bc_offsets):
            amps[j, (j + db) % 3, (j + dc) % 3] = sign * phase
    return amps


def phi_amplitudes(index: int, dim: int) -> np.ndarray:
    """Member `index` of the d-photon determinant family over d ports.

    Amplitude of the arrangement (time-bin t at port sigma(t)) is
    sgn(sigma) * chi^(index * sigma(0)) / sqrt(d!), chi = exp(2 pi i / d).
    The family is orthonormal and has d! nonzero amplitudes per member.
    """
    if dim < 2:
        raise InvalidDimension(f"determinant family needs d >= 2, got {dim}")
    if not 0 <= index < dim:
        raise IndexOutOfRange(f"index must be 0..{dim - 1}, got {index}")
    perms, signs = permutation_table(dim)
    roots = np.array([unit_root(dim, index * port) for port in range(dim)])
    amps = np.zeros((dim,) * dim, dtype=complex)
    amps[tuple(perms.T)] = signs * roots[perms[:, 0]] * (1.0 / math.sqrt(math.factorial(dim)))
    return amps

