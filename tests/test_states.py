import cmath
import itertools
import math

import numpy as np
import pytest

from esdsim.errors import IndexOutOfRange, InvalidDimension
from esdsim.optics import build_dft
from esdsim.protocols import alice_encodings
from esdsim.states import permutation_table, phi_amplitudes, psi_amplitudes
from sparse_reference import (
    BOB_PORTS,
    ESD_PORTS,
    PureState,
    apply_phases,
    basis,
    build_alice_pair,
    build_minor,
    build_phi,
    build_psi,
    dense_amplitudes,
    inner_product,
    mub_state,
    permutation_sign,
    port_occupancy,
    reference_minor,
    reference_mub,
    reference_pair,
    unit_root,
)


# -- reference: the families built term by term ----------------------------------


def reference_psi(index, ports=(0, 1, 2), a_ports=None):
    a_ports = ports if a_ports is None else a_ports
    family, i = divmod(index, 3)
    bc_offsets = {0: ((1, 2), (2, 1)), 1: ((0, 1), (1, 0)), 2: ((2, 0), (0, 2))}[family]
    amps = {}
    scale = 1.0 / math.sqrt(6)
    for j in range(3):
        phase = unit_root(3, 2 * i * j) * scale
        for sign, (db, dc) in zip((1, -1), bc_offsets):
            term = basis((0, a_ports[j]), (1, ports[(j + db) % 3]), (2, ports[(j + dc) % 3]))
            amps[term] = amps.get(term, 0j) + sign * phase
    return PureState(amps)


def reference_phi(index, dim):
    scale = 1.0 / math.sqrt(math.factorial(dim))
    return PureState(
        {
            basis(*((t, perm[t]) for t in range(dim))): permutation_sign(perm) * unit_root(dim, index * perm[0]) * scale
            for perm in itertools.permutations(range(dim))
        }
    )


class TestDenseDefinitions:
    """Each dense array equals, bit for bit, the dense form of the family
    built term by term, and each sparse builder is its view."""

    @pytest.mark.parametrize("index", range(9))
    def test_psi(self, index):
        assert np.array_equal(psi_amplitudes(index), dense_amplitudes(reference_psi(index), 3)[1])

    @pytest.mark.parametrize("d", range(2, 7))
    def test_phi_and_minor(self, d):
        # path value i of the encodings is the minor state empty on port i,
        # of sign (-1)^i
        path = alice_encodings(d)[0]
        for i in range(d):
            assert np.array_equal(phi_amplitudes(i, d), dense_amplitudes(reference_phi(i, d), d)[1])
            timebins, amps = dense_amplitudes(reference_minor(i, d), d)
            assert timebins == tuple(range(1, d))
            assert np.array_equal((-1) ** i * path[i], amps)

    def test_mub(self):
        # the conjugate basis: the rows of the DFT
        for timebin in range(3):
            for k in range(3):
                timebins, amps = dense_amplitudes(reference_mub(timebin, k), 3)
                assert timebins == (timebin,)
                assert np.array_equal(build_dft(3)[k], amps)

    def test_pair(self):
        # path value x is the published pair with its empty port x
        for x in range(3):
            assert np.array_equal(alice_encodings(3)[0, x], dense_amplitudes(reference_pair((x + 1) % 3), 3)[1])

    def test_relocated_psi_terms(self):
        moved = build_psi(0, ports=ESD_PORTS, a_ports=BOB_PORTS)
        assert list(moved.items()) == list(reference_psi(0, ESD_PORTS, BOB_PORTS).items())

    def test_sparse_views_keep_their_terms(self):
        pairs = [(build_psi(i), reference_psi(i)) for i in range(9)]
        pairs += [(build_phi(i, d), reference_phi(i, d)) for d in range(2, 6) for i in range(d)]
        pairs += [(build_minor(i, d), reference_minor(i, d)) for d in range(2, 6) for i in range(d)]
        pairs += [(mub_state(t, k), reference_mub(t, k)) for t in range(3) for k in range(3)]
        pairs += [(build_alice_pair(x), reference_pair(x)) for x in range(3)]
        for view, reference in pairs:
            assert list(view.items()) == list(reference.items())

    @pytest.mark.parametrize("n", range(1, 6))
    def test_permutation_table(self, n):
        perms, signs = permutation_table(n)
        assert perms.tolist() == [list(p) for p in itertools.permutations(range(n))]
        assert signs.tolist() == [permutation_sign(p) for p in perms.tolist()]


class TestPsiFamily:
    def test_psi0_terms_and_amplitudes(self):
        psi0 = build_psi(0)
        assert psi0.num_terms() == 6
        amp = 1 / math.sqrt(6)
        assert abs(psi0.amplitude(basis((0, 0), (1, 1), (2, 2))) - amp) < 1e-15
        assert abs(psi0.amplitude(basis((0, 0), (1, 2), (2, 1))) + amp) < 1e-15

    def test_orthonormality_all_81_pairs(self):
        states = [build_psi(i) for i in range(9)]
        for i in range(9):
            for j in range(9):
                expected = 1.0 if i == j else 0.0
                assert abs(inner_product(states[i], states[j]) - expected) < 1e-12

    def test_psi4_phase_at_j1(self):
        # family index 1, j=1 term carries omega^2 on |a_1>(|b_1,c_2> - |b_2,c_1>)
        psi4 = build_psi(4)
        amp = psi4.amplitude(basis((0, 1), (1, 1), (2, 2)))
        assert abs(amp - unit_root(3, 1) ** 2 / math.sqrt(6)) < 1e-12

    def test_one_photon_per_timebin(self):
        for i in range(9):
            for b in build_psi(i).basis_states():
                timebins = sorted(m.timebin for m in b.modes())
                assert timebins == [0, 1, 2]

    def test_port_occupancy_split(self):
        # members 0..2 occupy every port once; 3..8 double a port and leave one empty
        for i in range(3):
            for b in build_psi(i).basis_states():
                assert all(port_occupancy(b, p) == 1 for p in (0, 1, 2))
        for i in range(3, 9):
            for b in build_psi(i).basis_states():
                occ = sorted(port_occupancy(b, p) for p in (0, 1, 2))
                assert occ == [0, 1, 2]

    def test_custom_ports_and_split_a_ports(self):
        moved = build_psi(0, ports=(0, 1, 2), a_ports=(3, 4, 5))
        for b in moved.basis_states():
            a_mode = [m for m in b.modes() if m.timebin == 0]
            assert a_mode[0].port in (3, 4, 5)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            build_psi(9)


class TestPhiFamily:
    def test_d2_antisymmetric_pair(self):
        phi = build_phi(0, 2)
        amp = 1 / math.sqrt(2)
        assert abs(phi.amplitude(basis((0, 0), (1, 1))) - amp) < 1e-15
        assert abs(phi.amplitude(basis((0, 1), (1, 0))) + amp) < 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_orthonormality(self, d):
        states = [build_phi(i, d) for i in range(d)]
        for i in range(d):
            for j in range(d):
                expected = 1.0 if i == j else 0.0
                assert abs(inner_product(states[i], states[j]) - expected) < 1e-12

    def test_d3_equals_psi_family_with_swapped_indices(self):
        # conjugate phase conventions give the exact index map 0->0, 1->2, 2->1
        for phi_i, psi_i in ((0, 0), (1, 2), (2, 1)):
            phi, psi = build_phi(phi_i, 3), build_psi(psi_i)
            assert phi.basis_states() == psi.basis_states()
            for b in phi.basis_states():
                assert abs(phi.amplitude(b) - psi.amplitude(b)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_term_count_is_d_factorial(self, d):
        for i in range(d):
            assert build_phi(i, d).num_terms() == math.factorial(d)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_member_i_is_phase_twist_of_member_0(self, d):
        chi = cmath.exp(2j * cmath.pi / d)
        phi0 = build_phi(0, d)
        for i in range(d):

            def phase(mode, i=i):
                return chi ** (i * mode.port) if mode.timebin == 0 else 1.0

            twisted = apply_phases(phi0, phase)
            target = build_phi(i, d)
            for b in target.basis_states():
                assert abs(twisted.amplitude(b) - target.amplitude(b)) < 1e-12

    def test_one_photon_per_timebin(self):
        for d in (2, 4):
            for i in range(d):
                for b in build_phi(i, d).basis_states():
                    assert sorted(m.timebin for m in b.modes()) == list(range(d))

    def test_validation(self):
        with pytest.raises(InvalidDimension):
            build_phi(0, 1)
        with pytest.raises(IndexOutOfRange):
            build_phi(3, 3)


class TestMinorStates:
    def test_d3_minors_match_pairs(self):
        # the (d-1)-photon block states are the published pairs up to sign:
        # build_alice_pair(x) == +/- build_minor((x+2) % 3)
        for x in range(3):
            pair = build_alice_pair(x)
            minor = build_minor((x + 2) % 3, 3)
            overlap = inner_product(pair, minor)
            assert abs(abs(overlap) - 1) < 1e-12

    def test_minor_occupies_all_but_one_port(self):
        for d in (3, 4):
            for i in range(d):
                state = build_minor(i, d)
                for b in state.basis_states():
                    assert b.ports() == set(range(d)) - {i}

    def test_minor_normalized(self):
        for d in (2, 3, 4, 5):
            for i in range(d):
                assert abs(build_minor(i, d).norm_sq() - 1) < 1e-12


class TestMubStates:
    def test_k0_equal_amplitudes(self):
        s = mub_state(0, 0)
        for j in range(3):
            assert abs(s.amplitude(basis((0, j))) - 1 / math.sqrt(3)) < 1e-15

    def test_k1_phases(self):
        s = mub_state(0, 1)
        assert abs(s.amplitude(basis((0, 1))) - unit_root(3, 1) / math.sqrt(3)) < 1e-12
        assert abs(s.amplitude(basis((0, 2))) - unit_root(3, 1) ** 2 / math.sqrt(3)) < 1e-12

    def test_unbiasedness(self):
        for k in range(3):
            s = mub_state(1, k)
            for j in range(3):
                overlap = s.amplitude(basis((1, j)))
                assert abs(abs(overlap) ** 2 - 1 / 3) < 1e-12

    def test_mub_members_orthonormal(self):
        for k1 in range(3):
            for k2 in range(3):
                ip = inner_product(mub_state(0, k1), mub_state(0, k2))
                assert abs(ip - (1.0 if k1 == k2 else 0.0)) < 1e-12

    def test_index_validation(self):
        with pytest.raises(IndexOutOfRange):
            mub_state(0, 3)
        with pytest.raises(IndexOutOfRange):
            mub_state(4, 0)


class TestAlicePair:
    def test_x0(self):
        pair = build_alice_pair(0)
        amp = 1 / math.sqrt(2)
        assert abs(pair.amplitude(basis((1, 0), (2, 1))) - amp) < 1e-15
        assert abs(pair.amplitude(basis((1, 1), (2, 0))) + amp) < 1e-15

    def test_x2_wraps_mod_3(self):
        pair = build_alice_pair(2)
        amp = 1 / math.sqrt(2)
        assert abs(pair.amplitude(basis((1, 2), (2, 0))) - amp) < 1e-15
        assert abs(pair.amplitude(basis((1, 0), (2, 2))) + amp) < 1e-15

    def test_pairs_orthogonal(self):
        assert abs(inner_product(build_alice_pair(0), build_alice_pair(1))) < 1e-12

    def test_index_validation(self):
        with pytest.raises(IndexOutOfRange):
            build_alice_pair(3)
