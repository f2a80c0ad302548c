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
whose time-bin-0 photon sits on the j-th port.  The qutrit triple is built
from it: `family_index` maps a published index to its family member.
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


def family_index(code: int, d: int) -> int:
    """The `phi_amplitudes` member that relay code `code` names in
    dimension d: at d = 3 the published qutrit triple's indices 1 and 2 are
    swapped relative to the family, since the two phase conventions are
    conjugate (omega^(2ij) versus chi^(ij)), so code c is member -c mod 3;
    at any other d it is member `code`."""
    return -code % 3 if d == 3 else code


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

    Members 0..2 put every photon in a separate port: member i is the
    determinant-family member `family_index(i, 3)`.  Member 3k + i moves
    the b and c photons of member i from port p to port p - k (mod 3),
    bunching two time-bins into one port.
    """
    if not 0 <= index <= 8:
        raise IndexOutOfRange(f"qutrit triple index must be 0..8, got {index}")
    return np.roll(phi_amplitudes(family_index(index % 3, 3), 3), -(index // 3), axis=(1, 2))


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

