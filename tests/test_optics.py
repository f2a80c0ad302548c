import cmath
import math

import numpy as np
import pytest

from esdsim.errors import InvalidDimension
from esdsim.optics import (
    BeamSplitter,
    ElementNetwork,
    PhaseShifter,
    build_dft,
    decompose_dft,
    equal_up_to_global_phase,
    evolve_axes,
    recompose,
)
from sparse_reference import (
    FockBasisState,
    ModeLabel,
    PortMismatch,
    PureState,
    apply_creation,
    apply_mode_unitary,
    build_psi,
    dense_amplitudes,
    mub_state,
    single_photon,
    states_equal_up_to_global_phase,
    superpose,
    vacuum,
)


def random_multiphoton_state(rng, n_photons, n_ports, n_timebins=2):
    state = vacuum()
    for _ in range(n_photons):
        state = apply_creation(
            state, ModeLabel(int(rng.integers(n_timebins)), int(rng.integers(n_ports)))
        )
    return state.normalize()


class TestBuildDft:
    def test_d2_is_hadamard(self):
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.abs(build_dft(2) - h).max() < 1e-15

    def test_d3_matches_published_matrix(self):
        w = cmath.exp(2j * cmath.pi / 3)
        expected = np.array([[1, 1, 1], [1, w, w * w], [1, w * w, w]]) / math.sqrt(3)
        assert np.abs(build_dft(3) - expected).max() < 1e-12

    def test_d4_entry_2_3(self):
        # direct evaluation: chi^(2*3)/sqrt(4) with chi = i gives i^6/2 = -1/2
        chi = cmath.exp(2j * cmath.pi / 4)
        assert abs(build_dft(4)[2, 3] - chi**6 / 2) < 1e-12
        assert abs(build_dft(4)[2, 3] - (-0.5)) < 1e-12

    def test_unitarity(self):
        for d in range(2, 7):
            m = build_dft(d)
            assert np.abs(m.conj().T @ m - np.eye(d)).max() < 1e-12

    def test_rejects_small_dimension(self):
        with pytest.raises(InvalidDimension):
            build_dft(1)


class TestApplyModeUnitary:
    def test_single_photon_port0_gives_uniform_superposition(self):
        out = apply_mode_unitary(single_photon(ModeLabel(0, 0)), build_dft(3), (0, 1, 2))
        assert states_equal_up_to_global_phase(out, mub_state(0, 0))

    def test_single_photon_port_k_gives_mub_k(self):
        for k in range(3):
            out = apply_mode_unitary(
                single_photon(ModeLabel(0, k)), build_dft(3), (0, 1, 2)
            )
            assert states_equal_up_to_global_phase(out, mub_state(0, k))

    def test_entangled_triple_invariant_up_to_phase(self):
        evolved = apply_mode_unitary(build_psi(0), build_dft(3), (0, 1, 2))
        assert states_equal_up_to_global_phase(evolved, build_psi(0))

    def test_hong_ou_mandel_bunching(self):
        two = PureState(
            {FockBasisState({ModeLabel(0, 0): 1, ModeLabel(0, 1): 1}): 1.0}
        )
        out = apply_mode_unitary(two, build_dft(2), (0, 1))
        bunched0 = FockBasisState({ModeLabel(0, 0): 2})
        bunched1 = FockBasisState({ModeLabel(0, 1): 2})
        assert out.num_terms() == 2  # the coincidence term cancels
        assert abs(out.amplitude(bunched0) - 1 / math.sqrt(2)) < 1e-12
        assert abs(abs(out.amplitude(bunched1)) - 1 / math.sqrt(2)) < 1e-12

    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(42)
        for d in (2, 3, 5):
            u = build_dft(d)
            for n_photons in (1, 3, 5):
                state = random_multiphoton_state(rng, n_photons, d)
                out = apply_mode_unitary(state, u, tuple(range(d)))
                assert abs(out.norm_sq() - 1) < 1e-9

    def test_inverse_recovers_input(self):
        rng = np.random.default_rng(43)
        u = build_dft(3)
        for _ in range(5):
            state = random_multiphoton_state(rng, 3, 3)
            round_trip = apply_mode_unitary(
                apply_mode_unitary(state, u, (0, 1, 2)), u.conj().T, (0, 1, 2)
            )
            for basis in state.basis_states():
                assert abs(round_trip.amplitude(basis) - state.amplitude(basis)) < 1e-9

    def test_commutes_with_timebin_relabeling(self):
        rng = np.random.default_rng(44)
        u = build_dft(3)

        def relabel(state):
            swap = {0: 1, 1: 0}
            out = {}
            for basis, amp in state.items():
                new = FockBasisState(
                    {ModeLabel(swap.get(m.timebin, m.timebin), m.port): c for m, c in basis.items()}
                )
                out[new] = amp
            return PureState(out)

        state = random_multiphoton_state(rng, 3, 3)
        a = relabel(apply_mode_unitary(state, u, (0, 1, 2)))
        b = apply_mode_unitary(relabel(state), u, (0, 1, 2))
        for basis in set(a.basis_states()) | set(b.basis_states()):
            assert abs(a.amplitude(basis) - b.amplitude(basis)) < 1e-12

    def test_uncovered_port_raises(self):
        with pytest.raises(PortMismatch):
            apply_mode_unitary(single_photon(ModeLabel(0, 7)), build_dft(3), (0, 1, 2))

    def test_identity_padding_leaves_spectators_alone(self):
        joint = superpose(
            [
                (0.6, single_photon(ModeLabel(0, 0))),
                (0.8, single_photon(ModeLabel(0, 3))),
            ]
        )
        padded = np.eye(4, dtype=complex)
        padded[:3, :3] = build_dft(3)
        out = apply_mode_unitary(joint, padded, (0, 1, 2, 3))
        assert abs(out.amplitude(FockBasisState({ModeLabel(0, 3): 1})) - 0.8) < 1e-12


def evolve_dense(state, u):
    """The dense evolution of a state with one photon per time-bin."""
    timebins, amps = dense_amplitudes(state, len(u))
    return timebins, evolve_axes(u, amps[None])[0]


class TestEvolveDense:
    def test_matches_polynomial_expansion(self):
        rng = np.random.default_rng(45)
        for d in (2, 3, 4):
            u = build_dft(d)
            terms = {}
            for _ in range(6):
                ports = rng.integers(d, size=d)
                basis = FockBasisState({ModeLabel(t, int(p)): 1 for t, p in enumerate(ports)})
                terms[basis] = complex(rng.normal(), rng.normal())
            state = PureState(terms).normalize()
            timebins, amps = evolve_dense(state, u)
            assert timebins == tuple(range(d))
            assert abs(np.sum(np.abs(amps) ** 2) - 1) < 1e-12
            reference = apply_mode_unitary(state, u, tuple(range(d)))
            for basis, amp in reference.items():
                ports = tuple(m.port for m in sorted(basis.modes(), key=lambda m: m.timebin))
                assert abs(amps[ports] - amp) < 1e-12
            assert np.count_nonzero(np.abs(amps) > 1e-12) == reference.num_terms()



class TestElementNetwork:
    def test_empty_network_is_identity(self):
        net = ElementNetwork(3, ())
        assert np.abs(recompose(net) - np.eye(3)).max() < 1e-15

    def test_single_phase_shifter(self):
        net = ElementNetwork(2, (PhaseShifter(0, math.pi),))
        expected = np.diag([-1, 1]).astype(complex)
        assert np.abs(recompose(net) - expected).max() < 1e-12

    def test_beam_splitter_validation(self):
        with pytest.raises(ValueError):
            recompose(ElementNetwork(2, (BeamSplitter((0, 0), 0.5),)))
        for t in (1.5, math.nan):
            with pytest.raises(ValueError):
                recompose(ElementNetwork(2, (BeamSplitter((0, 1), t),)))

    def test_network_port_bounds(self):
        with pytest.raises(ValueError):
            recompose(ElementNetwork(2, (PhaseShifter(2, 0.1),)))


def embedded(element, dim):
    """The element embedded in the dim x dim identity, entry by entry."""
    mat = np.eye(dim, dtype=complex)
    if isinstance(element, PhaseShifter):
        mat[element.port, element.port] = cmath.exp(1j * element.phase)
        return mat
    (i, j), t = element.ports, element.transmissivity
    mat[i, i] = mat[j, j] = math.sqrt(1.0 - t)
    mat[i, j] = math.sqrt(t) * cmath.exp(1j * element.phase)
    mat[j, i] = -math.sqrt(t) * cmath.exp(-1j * element.phase)
    return mat


class TestRecompose:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_product_of_embedded_elements(self, d):
        rng = np.random.default_rng(d)

        def splitter(i, j, t):
            return BeamSplitter((i, j), t, float(rng.uniform(-math.pi, math.pi)))

        # every kind at least once: a phase shifter, adjacent and (for d > 2)
        # non-adjacent pairs in either order, and t = 0, t = 1 and interior t
        elements = [PhaseShifter(d - 1, 0.7), splitter(0, 1, 0.0), splitter(1, 0, 1.0), splitter(0, 1, 0.3)]
        if d > 2:
            elements += [splitter(0, d - 1, 0.6), splitter(d - 1, 0, 1.0), splitter(2, 0, 0.0)]
        for _ in range(40):
            if rng.random() < 0.3:
                elements.append(PhaseShifter(int(rng.integers(d)), float(rng.uniform(-math.pi, math.pi))))
            else:
                i, j = (int(p) for p in rng.choice(d, size=2, replace=False))
                elements.append(splitter(i, j, float(rng.choice([0.0, 1.0, rng.random()]))))
        elements = [elements[k] for k in rng.permutation(len(elements))]
        expected = np.eye(d, dtype=complex)
        for el in elements:
            expected = expected @ embedded(el, d)
        assert np.abs(recompose(ElementNetwork(d, tuple(elements))) - expected).max() < 1e-12


class TestDecomposeDft:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_recomposition_matches_dft(self, d):
        net = decompose_dft(d)
        assert equal_up_to_global_phase(recompose(net), build_dft(d), 1e-10)

    def test_d3_contains_one_third_reflectivity_element(self):
        net = decompose_dft(3)
        ts = sorted(bs.transmissivity for bs in net.beam_splitters())
        assert len(ts) == 3
        assert abs(ts[0] - 0.5) < 1e-9 and abs(ts[1] - 0.5) < 1e-9
        assert abs(ts[2] - 2 / 3) < 1e-9  # reflectivity 1 - t = 1/3

    def test_d2_single_balanced_splitter(self):
        net = decompose_dft(2)
        splitters = net.beam_splitters()
        assert len(splitters) == 1
        assert abs(splitters[0].transmissivity - 0.5) < 1e-12

    def test_serialization_round_trip(self):
        doc = decompose_dft(3).to_json()
        assert doc["dim"] == 3
        assert all(el["type"] in ("beam_splitter", "phase_shifter") for el in doc["elements"])
