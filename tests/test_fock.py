"""The sparse Fock algebra of `sparse_reference`, the reference the tests
compare the dense package against."""

import math

import numpy as np
import pytest

from sparse_reference import (
    VACUUM,
    FockBasisState,
    ModeLabel,
    OverlappingModes,
    PureState,
    apply_creation,
    apply_phases,
    inner_product,
    occupancy,
    partial_project,
    state_to_json,
    superpose,
    tensor,
    vacuum,
)


def single(timebin, port, amp=1.0):
    return PureState({FockBasisState({ModeLabel(timebin, port): 1}): amp})


def random_state(rng, n_photons=2, n_ports=3, n_timebins=3):
    """Random small state built by creation operators on the vacuum."""
    state = vacuum()
    for _ in range(n_photons):
        state = apply_creation(
            state, ModeLabel(int(rng.integers(n_timebins)), int(rng.integers(n_ports)))
        )
    terms = [(complex(rng.normal(), rng.normal()), state)]
    for _ in range(2):
        other = vacuum()
        for _ in range(n_photons):
            other = apply_creation(
                other, ModeLabel(int(rng.integers(n_timebins)), int(rng.integers(n_ports)))
            )
        terms.append((complex(rng.normal(), rng.normal()), other))
    return superpose(terms).normalize()


class TestModeLabel:
    def test_canonical_key_orders_by_port_then_timebin(self):
        assert ModeLabel(2, 0).key() < ModeLabel(0, 1).key()
        assert ModeLabel(0, 1).key() < ModeLabel(1, 1).key()

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            ModeLabel(-1, 0)


class TestFockBasisState:
    def test_drops_zero_counts(self):
        b = FockBasisState({ModeLabel(0, 0): 1, ModeLabel(1, 1): 0})
        assert b.modes() == (ModeLabel(0, 0),)

    def test_photon_count_and_hash_equality(self):
        b1 = FockBasisState({ModeLabel(0, 0): 2, ModeLabel(1, 2): 1})
        b2 = FockBasisState([(ModeLabel(1, 2), 1), (ModeLabel(0, 0), 2)])
        assert b1 == b2 and hash(b1) == hash(b2)
        assert b1.photon_count == 3

    def test_with_photon_added_keeps_canonical_order(self):
        b = FockBasisState({ModeLabel(2, 1): 1})
        b2, count = b.with_photon_added(ModeLabel(0, 0))
        assert count == 1
        assert b2.modes() == (ModeLabel(0, 0), ModeLabel(2, 1))
        b3, count = b2.with_photon_added(ModeLabel(0, 0))
        assert count == 2 and occupancy(b3, ModeLabel(0, 0)) == 2

    def test_split_by_ports(self):
        b = FockBasisState({ModeLabel(0, 0): 1, ModeLabel(1, 3): 2})
        inside, outside = b.split_by_ports({0, 1, 2})
        assert inside.modes() == (ModeLabel(0, 0),)
        assert occupancy(outside, ModeLabel(1, 3)) == 2


class TestCreation:
    def test_vacuum_to_single_photon(self):
        out = apply_creation(vacuum(), ModeLabel(0, 0))
        assert out.num_terms() == 1
        assert out.amplitude(FockBasisState({ModeLabel(0, 0): 1})) == 1.0

    def test_bosonic_sqrt_factor(self):
        one = apply_creation(vacuum(), ModeLabel(0, 0))
        two = apply_creation(one, ModeLabel(0, 0))
        assert abs(two.amplitude(FockBasisState({ModeLabel(0, 0): 2})) - math.sqrt(2)) < 1e-15

    def test_linearity(self):
        sup = superpose([(1 / math.sqrt(2), single(0, 0)), (1 / math.sqrt(2), single(0, 1))])
        out = apply_creation(sup, ModeLabel(1, 2))
        b1 = FockBasisState({ModeLabel(0, 0): 1, ModeLabel(1, 2): 1})
        b2 = FockBasisState({ModeLabel(0, 1): 1, ModeLabel(1, 2): 1})
        assert abs(out.amplitude(b1) - 1 / math.sqrt(2)) < 1e-15
        assert abs(out.amplitude(b2) - 1 / math.sqrt(2)) < 1e-15

    def test_factorial_normalization(self):
        # ||(a+)^n |vac>||^2 == n!
        state = vacuum()
        for n in range(1, 6):
            state = apply_creation(state, ModeLabel(0, 0))
            assert abs(state.norm_sq() - math.factorial(n)) < 1e-9


class TestInnerProduct:
    def test_orthogonal_basis_kets(self):
        assert inner_product(single(0, 0), single(1, 0)) == 0
        assert inner_product(single(0, 0), single(0, 1)) == 0

    def test_conjugate_symmetry_random(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x, y = random_state(rng), random_state(rng)
            assert abs(inner_product(x, y) - inner_product(y, x).conjugate()) < 1e-12

    def test_self_product_real_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = random_state(rng)
            ip = inner_product(x, x)
            assert abs(ip.imag) < 1e-12 and ip.real >= 0


class TestTensor:
    def test_product_of_basis_kets(self):
        out = tensor(single(0, 0), single(1, 1))
        assert out.amplitude(FockBasisState({ModeLabel(0, 0): 1, ModeLabel(1, 1): 1})) == 1.0

    def test_bilinearity(self):
        a, b = 0.6 + 0.3j, -0.2 + 0.5j
        out = tensor(single(0, 0, a), single(1, 1, b))
        assert abs(out.amplitude(FockBasisState({ModeLabel(0, 0): 1, ModeLabel(1, 1): 1})) - a * b) < 1e-15

    def test_rejects_overlapping_modes(self):
        with pytest.raises(OverlappingModes):
            tensor(single(0, 0), single(0, 0))

    def test_associative_for_disjoint_modes(self):
        x, y, z = single(0, 0), single(1, 1), single(2, 2)
        left = tensor(tensor(x, y), z)
        right = tensor(x, tensor(y, z))
        assert left.basis_states() == right.basis_states()
        for basis in left.basis_states():
            assert abs(left.amplitude(basis) - right.amplitude(basis)) < 1e-12


class TestPureState:
    def test_normalize_idempotent(self):
        rng = np.random.default_rng(7)
        s = random_state(rng).scaled(3.7)
        once = s.normalize()
        twice = once.normalize()
        for basis in once.basis_states():
            assert abs(once.amplitude(basis) - twice.amplitude(basis)) < 1e-12
        assert abs(once.norm_sq() - 1) < 1e-9

    def test_prunes_tiny_amplitudes(self):
        b = FockBasisState({ModeLabel(0, 0): 1})
        s = PureState({b: 1e-15})
        assert s.is_zero()

    def test_rejects_mixed_photon_numbers(self):
        with pytest.raises(ValueError):
            PureState(
                {
                    FockBasisState({ModeLabel(0, 0): 1}): 0.5,
                    FockBasisState({ModeLabel(0, 0): 2}): 0.5,
                }
            )

    def test_normalize_zero_state_raises(self):
        with pytest.raises(ValueError):
            PureState().normalize()


def test_apply_phases_is_diagonal():
    s = superpose([(0.6, single(0, 0)), (0.8, single(0, 1))])
    out = apply_phases(s, lambda m: -1 if m.port == 1 else 1)
    assert out.amplitude(FockBasisState({ModeLabel(0, 1): 1})) == -0.8
    assert out.amplitude(FockBasisState({ModeLabel(0, 0): 1})) == 0.6


def test_partial_project_extracts_remainder():
    joint = tensor(
        superpose([(0.6, single(0, 0)), (0.8, single(0, 1))]),
        single(1, 5),
    )
    rem = partial_project(joint, single(0, 0), ports=(0, 1, 2))
    assert rem.num_terms() == 1
    assert abs(rem.amplitude(FockBasisState({ModeLabel(1, 5): 1})) - 0.6) < 1e-15
    # squared norm is the projection probability
    assert abs(rem.norm_sq() - 0.36) < 1e-12


def test_state_to_json_canonical_order():
    b = FockBasisState({ModeLabel(2, 0): 1, ModeLabel(0, 1): 1, ModeLabel(1, 2): 1})
    doc = state_to_json(PureState({b: 1.0}))
    assert doc == [{"modes": [[2, 0, 1], [0, 1, 1], [1, 2, 1]], "re": 1.0, "im": 0.0}]


def test_vacuum_round_trip():
    assert state_to_json(vacuum()) == [{"modes": [], "re": 1.0, "im": 0.0}]
    assert VACUUM.photon_count == 0
