import bisect
import hashlib
import math
from functools import lru_cache

import numpy as np
import pytest

import esdsim.discrimination as discrimination
import esdsim.protocols as protocols
from esdsim.discrimination import (
    POSTSELECT_FAIL_CODE,
    click_codes,
    derive_rng,
    draw_codes,
    measure,
    outcome_name,
    outcome_probabilities,
    outcome_table,
)
from esdsim.optics import build_dft, equal_up_to_global_phase
from esdsim.protocols import (
    BASES,
    COMPUTATIONAL,
    CORRECTION_PHASES,
    MUB,
    alice_encodings,
    basis_rows,
    edp_shared_state,
    generalized_conclusive_probability,
    haar_amplitudes,
    maximally_entangled_pair,
    mdi_qkd_expectation,
    mdi_qkd_run,
    teleport_analysis,
    teleport_run,
)
from esdsim.protocols import _decode_array
from esdsim.states import phi_amplitudes, psi_amplitudes
from sparse_reference import (
    BOB_PORTS,
    ESD_PORTS,
    DetectionPattern,
    ModeLabel,
    PureState,
    apply_mode_unitary,
    build_alice_pair,
    build_psi,
    click_code,
    dense_amplitudes,
    detect_distribution,
    inner_product,
    mub_state,
    parity_postselect,
    partial_project,
    path_state,
    single_photon,
    target_state,
    tensor,
)


@lru_cache(maxsize=None)
def alice_send(basis, value):
    """Alice's two-photon encoding built term by term: the pair
    build_alice_pair((x + 1) mod 3) in the path basis, the kept photon of
    the shared triple projected onto the MUB bra in the MUB basis."""
    if basis == COMPUTATIONAL:
        return build_alice_pair((value + 1) % 3, ESD_PORTS)
    triple = build_psi(0, ports=ESD_PORTS, a_ports=BOB_PORTS)
    return partial_project(triple, mub_state(0, value, BOB_PORTS), BOB_PORTS).normalize()


@lru_cache(maxsize=None)
def bob_send(basis, value):
    """Bob's single-photon encoding: a path basis state or a MUB state."""
    if basis == COMPUTATIONAL:
        return single_photon(ModeLabel(0, ESD_PORTS[value]))
    return mub_state(0, value, ESD_PORTS)


def identity_padded(u, extra):
    """`u` block-embedded with an identity on `extra` more ports."""
    mat = np.eye(len(u) + extra, dtype=complex)
    mat[: len(u), : len(u)] = u
    return mat


def haar_target(rng):
    """One Haar-random target from a row of six uniforms."""
    return haar_amplitudes(rng.random((1, 6)))[0]


def build_teleport_system(target):
    """Target qutrit on the sender's measurement ports, tensored with the
    shared triple whose time-bin-a photon lives on the receiver's ports."""
    shared = build_psi(0, ports=ESD_PORTS, a_ports=BOB_PORTS)
    return tensor(target_state(target, ESD_PORTS), shared)


def conditional_outcome_weights(target):
    """Weights of the nine triple-state components of the joint system."""
    system = build_teleport_system(target)
    return [partial_project(system, build_psi(i, ESD_PORTS), ESD_PORTS).norm_sq() for i in range(9)]


def qkd_columns(run):
    return run.bases, run.values, run.outcomes, run.sifted, run.bob_symbols


class TestCorrections:
    # on the MUB states, the rows of the DFT
    def test_identity_leaves_state_alone(self):
        assert np.all(CORRECTION_PHASES[0] == 1)
        s = build_dft(3)[1]
        assert np.array_equal(s * CORRECTION_PHASES[0], s)

    def test_rotation_product_is_identity(self):
        assert np.abs(CORRECTION_PHASES[1] * CORRECTION_PHASES[2] - 1).max() < 1e-12
        s = build_dft(3)[1]
        assert np.abs(s * CORRECTION_PHASES[1] * CORRECTION_PHASES[2] - s).max() < 1e-12

    def test_rotation_1_unwinds_linear_phases(self):
        # (1/sqrt 3) sum_j w^j |j>  ->  uniform superposition
        assert equal_up_to_global_phase(build_dft(3)[1] * CORRECTION_PHASES[1], build_dft(3)[0], 1e-12)


class TestTeleport:
    def test_basis_state_target(self):
        analysis = teleport_analysis((1.0, 0.0, 0.0))
        assert abs(analysis.pass_prob - 1 / 3) < 1e-12
        for fid in analysis.outcome_fidelities().values():
            assert abs(fid - 1) < 1e-12

    def test_haar_targets_unit_fidelity_all_outcomes(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            analysis = teleport_analysis(haar_target(rng))
            assert abs(analysis.conclusive_probability() - 1 / 3) < 1e-12
            fids = analysis.outcome_fidelities()
            assert set(fids) == {0, 1, 2}  # all three corrections exercised
            for fid in fids.values():
                assert abs(fid - 1) < 1e-12

    def test_target_validation(self):
        for alphas in [(1.0, 1.0, 0.0), (math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0), (0.0, -math.inf, 0.0)]:
            with pytest.raises(ValueError):
                teleport_analysis(alphas)
        with pytest.raises(ValueError, match="three amplitudes"):
            teleport_analysis((0.6, 0.8))


class TestOutcomeWeights:
    def test_nine_equal_weights_any_target(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            weights = conditional_outcome_weights(haar_target(rng))
            assert len(weights) == 9
            assert all(abs(w - 1 / 9) < 1e-12 for w in weights)
            assert abs(sum(weights) - 1) < 1e-12

    def test_basis_target_special_case(self):
        weights = conditional_outcome_weights((0.0, 0.0, 1.0))
        assert all(abs(w - 1 / 9) < 1e-12 for w in weights)


def edp_system():
    """The EDP four-photon system as one array, indexed [Alice's kept
    time-bin-a photon, the relay's time-bin-a, b and c photons, Bob's
    photon]: Alice's psi0 tensored with the maximally entangled pair."""
    pair = maximally_entangled_pair()  # [relay port, Bob port]
    return np.einsum("abc,jk->ajbck", psi_amplitudes(0), pair)


class TestEdp:
    @pytest.mark.parametrize("outcome", [0, 1, 2])
    def test_shared_state_is_maximally_entangled(self, outcome):
        shared = edp_shared_state(outcome)
        assert shared.shape == (3, 3)
        assert equal_up_to_global_phase(shared, maximally_entangled_pair(), 1e-12)

    @pytest.mark.parametrize("outcome", [0, 1, 2])
    def test_outcome_weight_is_one_ninth(self, outcome):
        # the relay's projection onto triple `outcome` over its three photons
        projected = np.tensordot(edp_system(), psi_amplitudes(outcome).conj(), axes=([1, 2, 3], [0, 1, 2]))
        assert abs(np.sum(np.abs(projected) ** 2) - 1 / 9) < 1e-12
        corrected = projected * CORRECTION_PHASES[outcome] / math.sqrt(1 / 9)
        assert np.abs(corrected - edp_shared_state(outcome)).max() < 1e-15

    def test_reduced_occupations_uniform(self):
        probs = np.abs(edp_shared_state(1)) ** 2
        for axis in (0, 1):  # Bob's ports, then Alice's
            assert np.abs(probs.sum(axis=axis) - 1 / 3).max() < 1e-12


class TestEncodings:
    def test_computational_pair_matches_conclusive_relay_states(self):
        # value x pairs with Bob's photon on port x: the joint state lies in
        # the conclusive subspace exactly when the values match
        for x in range(3):
            for y in range(3):
                joint = tensor(alice_send(COMPUTATIONAL, x), bob_send(COMPUTATIONAL, y))
                joint_weight = sum(
                    abs(inner_product(build_psi(i, ESD_PORTS), joint)) ** 2 for i in range(3)
                )
                expected = 1.0 if x == y else 0.0
                assert abs(joint_weight - expected) < 1e-12

    def test_dense_encodings_match_sparse(self):
        # the dense encodings against the sparse ones; the MUB pair is the
        # sparse projection of the triple's kept photon
        dense = alice_encodings(3)
        for b, basis in enumerate(BASES):
            for x in range(3):
                timebins, amps = dense_amplitudes(alice_send(basis, x), 3)
                assert timebins == (1, 2)
                assert np.abs(dense[b, x] - amps).max() <= 1e-15

    def test_decode_array_closed_form(self):
        decode = _decode_array()
        assert decode.shape == (len(BASES), 3, 3)
        for i in range(3):
            for y in range(3):
                assert decode[BASES.index(COMPUTATIONAL), i, y] == y
                assert decode[BASES.index(MUB), i, y] == (y + i) % 3


class TestMdiQkd:
    def test_noiseless_run_eta_one(self):
        n = 30000
        run = mdi_qkd_run(n, eta=1.0, seed=7)
        assert run.qber == 0.0
        sigma = math.sqrt((1 / 6) * (5 / 6) / n)
        assert abs(run.sift_rate - 1 / 6) < 3 * sigma
        sifted = run.sifted
        np.testing.assert_array_equal(run.bases[sifted, 0], run.bases[sifted, 1])
        assert np.all(run.outcomes[sifted] >= 0)
        np.testing.assert_array_equal(run.values[sifted, 0], run.bob_symbols[sifted])

    def test_noiseless_run_eta_09(self):
        n = 30000
        run = mdi_qkd_run(n, eta=0.9, seed=8)
        assert run.qber == 0.0
        expected = 0.9**3 / 6
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(run.sift_rate - expected) < 3 * sigma

    def test_toy_noise_generates_errors(self):
        run = mdi_qkd_run(20000, eta=1.0, noise=0.1, seed=9)
        assert run.qber > 0.0
        # path-encoded rounds stay clean; errors come from MUB rounds only
        rows = run.sifted & (run.bases[:, 0] == BASES.index(COMPUTATIONAL))
        assert rows.any()
        np.testing.assert_array_equal(run.values[rows, 0], run.bob_symbols[rows])

    def test_deterministic_given_seed(self):
        run1 = mdi_qkd_run(300, eta=0.8, noise=0.05, seed=3)
        run2 = mdi_qkd_run(300, eta=0.8, noise=0.05, seed=3)
        for a, b in zip(qkd_columns(run1), qkd_columns(run2)):
            np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            mdi_qkd_run(0)
        for noise in (1.5, math.nan):
            with pytest.raises(ValueError):
                mdi_qkd_run(10, noise=noise)


class TestGeneralizedSetup:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_uniform_input_conclusive_probability(self, d):
        assert abs(generalized_conclusive_probability(d) - 1 / d) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_conclusive_probability_to_rounding(self, d):
        assert abs(generalized_conclusive_probability(d) - 1 / d) <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_two_line_argument(self, d):
        # Alice's path value i, empty on port i, with Bob's photon on port j
        # passes the parity projection only for j = i, and then always; that
        # input has weight exactly 1/d on every phi_k, each conclusive with
        # probability 1, so of the d*d equally likely inputs d pass and every
        # one is conclusive: 1/d
        bob, alice = np.eye(d), alice_encodings(d)[0]  # Bob's time-bin-0 photon on port j
        inputs = np.stack([np.multiply.outer(bob[j], alice[i]) for i in range(d) for j in range(d)])
        result = measure(inputs, d)
        assert np.abs(result.pass_prob.reshape(d, d) - np.eye(d)).max() <= 1e-12
        passed = inputs[:: d + 1].reshape(d, -1)  # j = i
        phis = np.stack([phi_amplitudes(k, d) for k in range(d)]).reshape(d, -1)
        assert np.abs(np.abs(phis.conj() @ passed.T) ** 2 - 1 / d).max() <= 1e-12
        conclusive = result.probs[:: d + 1][:, click_codes(d) >= 0].sum(axis=1)
        assert np.abs(conclusive - 1).max() <= 1e-12
        assert abs(generalized_conclusive_probability(d) - 1 / d) <= 1e-12


class TestKeyDistributionModel:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_unique_decoding_and_sift_rate(self, d):
        # each (basis, conclusive index, Bob value) names one Alice value
        # (else `_decode_array` raises), each value once; at any noise the
        # sift rate is the eta^d / (2d) that keyrate's R = r_d / (2d) assumes,
        # and phase flips err only in the MUB: QBER 2p(1 - p)(d - 1)/d; a
        # noise outside [0, 1] is refused
        assert (np.sort(_decode_array(d), axis=-1) == np.arange(d)).all()
        for eta in (1.0, 0.9, 0.7, 0.3):
            for p in (0.0, 0.05, 0.1, 0.1389, 0.3, 0.5, 0.8, 1.0):
                exact = mdi_qkd_expectation(eta, p, d)
                assert abs(exact.sift_rate - eta**d / (2 * d)) <= 1e-15
                assert abs(exact.qber - 2 * p * (1 - p) * (d - 1) / d) <= 1e-12
            for p in (1.5, math.nan):
                with pytest.raises(ValueError):
                    mdi_qkd_expectation(eta, p, d)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_edp_equivalence(self, d):
        # Alice's basis measurement of her kept photon leaves each encoding
        # with weight 1/d, so the encodings rebuild phi_0.  The relay holds
        # Bob's half of (1/sqrt d) sum_j |j, j> at time-bin 0 and Alice's
        # photons at time-bins 1..d-1; its projection onto each phi_i has
        # weight 1/d^2, and corrected leaves the maximally entangled pair
        rest = list(range(1, d))
        for rows, encodings in zip(basis_rows(d), alice_encodings(d)):
            phi0 = np.tensordot(rows.T, encodings, axes=1) / np.sqrt(d)
            assert np.abs(phi0 - phi_amplitudes(0, d)).max() <= 1e-15
            for i in range(d):
                projected = np.tensordot(phi0, phi_amplitudes(i, d).conj(), axes=(rest, rest)) / np.sqrt(d)
                assert abs(np.sum(np.abs(projected) ** 2) - 1 / d**2) <= 1e-15
        for i in range(d):
            assert equal_up_to_global_phase(edp_shared_state(i, d), maximally_entangled_pair(d), 1e-15)


class TestPinnedTables:
    # the d = 3 tables and the generalized conclusive probability, bit for
    # bit as they were before the encodings were merged into one formula; a
    # last-bit drift that no sampled trial crosses would pass the CSV digests

    def test_mdi_outcomes(self):
        m = protocols._noiseless_measurement(3)
        digests = [hashlib.sha256(array.tobytes()).hexdigest() for array in (m.pass_prob, m.amplitudes, m.probs)]
        assert digests == [
            "0471fe8953f973ae4c3ffef602947f05e20703fd8cbd68f5d331fd31c7816697",
            "6dfbd2d533d66ebebce0f5cb8dffddae149c95ebc0c8569d48c3d980c512235a",
            "f6d50ac3ccc839f05e6574f8c91f2f91f5ea0f6ee782bdd9c42263ea77f750ac",
        ]
        assert (
            hashlib.sha256(_decode_array().tobytes()).hexdigest()
            == "0bd79afc29f8b1a53d4dad807fda1007ba0361f48cdbaa348413fcaee9068d54"
        )

    def test_generalized_conclusive_probability(self):
        assert [generalized_conclusive_probability(d).hex() for d in range(2, 7)] == [
            "0x1.ffffffffffffcp-2",
            "0x1.555555555555ap-2",
            "0x1.0000000000001p-2",
            "0x1.99999999999a5p-3",
            "0x1.555555555555fp-3",
        ]


def direct_teleport_branches(target):
    """Reference: evolve this target's own joint system and group the evolved
    terms by the configuration on the measured ports; the receiver's state
    of a conclusive branch is normalized, before its correction."""
    system = build_teleport_system(target)
    passed, pass_prob = parity_postselect(system, 3, ports=ESD_PORTS)
    unitary = identity_padded(build_dft(3), extra=len(BOB_PORTS))
    evolved = apply_mode_unitary(passed, unitary, ESD_PORTS + BOB_PORTS)
    groups = {}
    for basis, amp in evolved.items():
        inside, outside = basis.split_by_ports(frozenset(ESD_PORTS))
        groups.setdefault(inside, {})[outside] = amp
    branches = []
    for inside in sorted(groups, key=lambda b: b.sort_key()):
        code = click_code(DetectionPattern(inside.clicks()), 3)
        bob = PureState(groups[inside])
        if code >= 0:
            bob = bob.normalize()
        branches.append((code, PureState(groups[inside]).norm_sq(), bob))
    return pass_prob, branches


def amplitude_distance(x, y):
    return max(abs(x.amplitude(b) - y.amplitude(b)) for b in set(x.basis_states()) | set(y.basis_states()))


class TestTeleportBranchMaps:
    def test_maps_match_direct_evolution(self):
        rng = np.random.default_rng(77)
        targets = [haar_target(rng) for _ in range(20)]
        targets += [(1.0, 0.0, 0.0), (0.0, 0.6, 0.8j)]
        for target in targets:
            pass_prob, reference = direct_teleport_branches(target)
            analysis = teleport_analysis(target)
            assert abs(analysis.pass_prob - pass_prob) < 1e-12
            assert len(analysis.codes) == len(reference)
            branches = zip(analysis.codes.tolist(), analysis.probabilities.tolist(), analysis.receivers)
            for (code, prob, receiver), (ref_code, ref_prob, bob) in zip(branches, reference):
                assert code == ref_code
                assert abs(prob - ref_prob) < 1e-12
                uncorrected = receiver * CORRECTION_PHASES[code].conj() if code >= 0 else receiver
                state = path_state((uncorrected / math.sqrt(pass_prob)).tolist(), BOB_PORTS)
                assert amplitude_distance(state.normalize() if code >= 0 else state, bob) < 1e-12

    def test_branch_weights_do_not_depend_on_the_target(self):
        # every map has M^dagger M = I/54, so for any normalized target each
        # of the 18 branches has weight 1/54: probability 1/18 given a pass,
        # and the pass probability is 18/54 = 1/3
        _, matrices, _ = protocols._teleport_branch_maps()
        assert len(matrices) == 18
        gram = np.swapaxes(matrices.conj(), 1, 2) @ matrices
        assert np.abs(gram - np.eye(3) / 54).max() <= 1e-15
        rng = np.random.default_rng(5)
        for target in [(0.0, 1.0, 0.0)] + [haar_target(rng) for _ in range(10)]:
            analysis = teleport_analysis(target)
            assert abs(analysis.pass_prob - 1 / 3) < 1e-12
            assert np.abs(analysis.probabilities - 1 / 18).max() < 1e-12

    def test_analysis_evolves_nothing_per_target(self, monkeypatch):
        teleport_analysis((1.0, 0.0, 0.0))  # the maps are built on first use

        def forbidden(*args):
            raise AssertionError("teleport_analysis must not evolve per target")

        monkeypatch.setattr(discrimination, "evolve_axes", forbidden)
        analysis = teleport_analysis(haar_target(np.random.default_rng(4)))
        assert abs(analysis.conclusive_probability() - 1 / 3) < 1e-12


class TestReadOnlyCaches:
    # the process-wide caches are shared by every later run, so a caller's
    # write must fail rather than change those runs

    def test_teleport_branch_maps(self):
        before = teleport_run(2000, seed=3)
        analysis = teleport_analysis((1.0, 0.0, 0.0))
        for array in (analysis.codes, *protocols._teleport_branch_maps()):
            with pytest.raises(ValueError):
                array[...] = 0
        for column, again in zip(before, teleport_run(2000, seed=3)):
            np.testing.assert_array_equal(column, again)

    def test_mdi_outcomes(self):
        before, exact = mdi_qkd_run(2000, eta=0.9, noise=0.1, seed=3), mdi_qkd_expectation(0.9, 0.1)
        m = protocols._noiseless_measurement(3)
        for array in (m.pass_prob, m.amplitudes, m.probs, _decode_array(3), click_codes(3), build_dft(3)):
            with pytest.raises(ValueError):
                array[...] = 0
        after = mdi_qkd_run(2000, eta=0.9, noise=0.1, seed=3)
        for column, again in zip(qkd_columns(before), qkd_columns(after)):
            np.testing.assert_array_equal(column, again)
        assert mdi_qkd_expectation(0.9, 0.1) == exact


class TestTeleportRun:
    def test_one_row_calls_match_the_block(self):
        # each row's code and fidelity is a branch of its own target's analysis
        codes, fidelities = teleport_run(40, seed=8)
        alphas = haar_amplitudes(derive_rng(8).random((40, 8))[:, :6])
        for code, fidelity, target in zip(codes.tolist(), fidelities.tolist(), alphas.tolist()):
            analysis = teleport_analysis(target)
            if code == POSTSELECT_FAIL_CODE:
                assert math.isnan(fidelity) and analysis.pass_prob < 1
                continue
            branches = analysis.codes == code
            assert np.any(np.abs(analysis.fidelities[branches] - fidelity) < 1e-12)
            bobs = [path_state(receiver.tolist(), BOB_PORTS).normalize() for receiver in analysis.receivers[branches]]
            overlaps = [abs(inner_product(target_state(target, BOB_PORTS), bob)) ** 2 for bob in bobs]
            assert any(abs(overlap - fidelity) < 1e-12 for overlap in overlaps)
        assert (codes >= 0).any() and (codes < 0).any()

    def test_prefix_stable_across_chunks(self, monkeypatch):
        long = teleport_run(50, seed=6)
        monkeypatch.setattr(discrimination, "CHUNK_ROWS", 7)
        short = teleport_run(20, seed=6)
        for whole, prefix in zip(long, short):
            np.testing.assert_array_equal(whole[:20], prefix)

    def test_conclusive_rows(self):
        n = 3000
        codes, fidelities = teleport_run(n, seed=13)
        conclusive = codes >= 0
        assert set(codes.tolist()) == {POSTSELECT_FAIL_CODE, 0, 1, 2}
        assert np.all(np.abs(fidelities[conclusive] - 1) < 1e-12)
        assert np.all(np.isnan(fidelities[~conclusive]))
        sigma = math.sqrt((1 / 3) * (2 / 3) / n)
        assert abs(conclusive.mean() - 1 / 3) < 3 * sigma

    def test_fidelity_follows_the_receiver_state(self, monkeypatch):
        # without the announced rotations, outcomes 1 and 2 leave the target rotated
        monkeypatch.setattr(protocols, "CORRECTION_PHASES", np.ones((3, 3), dtype=complex))
        protocols._teleport_branch_maps.cache_clear()
        try:
            codes, fidelities = teleport_run(300, seed=2)
        finally:
            protocols._teleport_branch_maps.cache_clear()
        assert np.all(np.abs(fidelities[codes == 0] - 1) < 1e-12)
        assert (codes > 0).any() and np.all(fidelities[codes > 0] < 1 - 1e-6)

    def test_haar_amplitudes(self):
        # for a Haar-random qutrit P(|a_m|^2 > x) = (1 - x)^2
        n = 3000
        alphas = haar_amplitudes(derive_rng(3).random((n, 6)))
        assert np.allclose(np.sum(np.abs(alphas) ** 2, axis=1), 1.0)
        sigma = math.sqrt((1 / 4) * (3 / 4) / n)
        for tail in np.mean(np.abs(alphas) ** 2 > 1 / 2, axis=0):
            assert abs(tail - 1 / 4) < 4 * sigma


def per_target_sample(alphas, uniforms):
    """Reference: the per-target teleport sampler that the constant branch
    table replaced.  Every branch's receiver for every row, the running sum
    of the row's own branch weights, the count of sums at or below u times
    the row's total, clamped to the last branch."""
    branch_codes, matrices, _ = protocols._teleport_branch_maps()
    receivers = (alphas @ matrices.reshape(-1, 3).T).reshape(len(alphas), len(branch_codes), 3)
    cumulative = np.cumsum(np.sum(np.abs(receivers) ** 2, axis=2), axis=1)
    pick = np.minimum(np.sum(cumulative <= uniforms[:, 1:] * cumulative[:, -1:], axis=1), len(branch_codes) - 1)
    codes = np.where(uniforms[:, 0] < cumulative[:, -1], branch_codes[pick], POSTSELECT_FAIL_CODE)
    chosen = receivers[np.arange(len(alphas)), pick]
    return codes, np.where(codes >= 0, protocols._fidelity(alphas, chosen), np.nan)


class TestConstantBranchTable:
    def test_table(self):
        # each branch weighs 1/54 for every unit target, so the table is
        # the running sum of 18 equal weights and its total is 1/3
        _, matrices, table = protocols._teleport_branch_maps()
        assert np.abs(table - np.arange(1, 19) / 54).max() <= 1e-15
        gram = np.swapaxes(matrices.conj(), 1, 2) @ matrices
        assert np.abs(np.trace(gram, axis1=1, axis2=2) / 3 - np.diff(table, prepend=0.0)).max() <= 1e-15

    def test_matches_per_target_reference(self):
        n = 25_000
        for seed in (0, 1, 3, 7):
            codes, fidelities = teleport_run(n, seed=seed)
            u = derive_rng(seed).random((n, 8))
            ref_codes, ref_fidelities = per_target_sample(haar_amplitudes(u[:, :6]), u[:, 6:])
            np.testing.assert_array_equal(codes, ref_codes)
            conclusive = codes >= 0
            assert np.abs(fidelities[conclusive] - ref_fidelities[conclusive]).max() <= 1e-15
            assert np.isnan(fidelities[~conclusive]).all()

    def test_edge_uniforms_follow_the_table(self):
        # column 6 at 0, at the table's total W and an ulp either side of
        # it; column 7 at 0, an ulp either side of each table edge (as a
        # fraction of W) and on it, and at the largest uniform 1 - 2^-53,
        # where u * W is one ulp below W.  No uniform reaches W, so 1.0,
        # outside their range, shows the clamp to the last branch
        branch_codes, _, table = protocols._teleport_branch_maps()
        total = table[-1]
        passes = [0.0, np.nextafter(total, 0.0), total, np.nextafter(total, 1.0)]
        near_edges = [x for e in table / total for x in (np.nextafter(e, 0.0), e, np.nextafter(e, 1.0)) if x < 1]
        picks = [0.0, 1 - 2**-53, 1.0] + near_edges
        uniforms = np.array([(p, q) for p in passes for q in picks])
        # each target's columns 0-5: basis target k has only the radius
        # column 2k nonzero, then five Haar-random targets
        targets = np.vstack([np.eye(6)[0::2] / 2, derive_rng(11).random((5, 6))])
        for target in targets:
            block = np.hstack([np.repeat(target[None], len(uniforms), axis=0), uniforms])
            codes, fidelities = protocols._sample_teleport(block)
            for (p, q), code in zip(uniforms.tolist(), codes.tolist()):
                branch = min(bisect.bisect_right(table.tolist(), q * total), len(table) - 1)
                assert code == (branch_codes[branch] if p < total else POSTSELECT_FAIL_CODE), (p, q)
            assert (codes[uniforms[:, 0] < total] >= 0).all() and (codes[uniforms[:, 0] >= total] < 0).all()
            assert np.all(np.abs(fidelities[codes >= 0] - 1) < 1e-12)


class TestMdiQkdSampling:
    def test_prefix_stable(self):
        noise = 0.2
        long = mdi_qkd_run(50, eta=0.85, noise=noise, seed=6)
        short = mdi_qkd_run(20, eta=0.85, noise=noise, seed=6)
        for whole, prefix in zip(qkd_columns(long), qkd_columns(short)):
            np.testing.assert_array_equal(whole[:20], prefix)

    def test_outcomes_lie_in_the_analytic_support(self):
        run = mdi_qkd_run(3000, eta=0.9, seed=12)
        analytic = {}
        for trial, ((a_b, b_b), (x, y), code) in enumerate(
            zip(run.bases.tolist(), run.values.tolist(), run.outcomes.tolist())
        ):
            inputs = (BASES[a_b], x, BASES[b_b], y)
            if inputs not in analytic:
                joint = tensor(alice_send(*inputs[:2]), bob_send(*inputs[2:]))
                analytic[inputs] = outcome_probabilities(measure(dense_amplitudes(joint, 3)[1][None], 3), 0.9)
            assert analytic[inputs].get(outcome_name(code), 0.0) > 0.0, (trial, inputs, code)

    def test_prefix_stable_across_chunks(self, monkeypatch):
        noise = 0.3
        long = mdi_qkd_run(120, eta=0.9, noise=noise, seed=4)
        monkeypatch.setattr(discrimination, "CHUNK_ROWS", 7)
        for n in (50, 120):
            short = mdi_qkd_run(n, eta=0.9, noise=noise, seed=4)
            for whole, prefix in zip(qkd_columns(long), qkd_columns(short)):
                np.testing.assert_array_equal(whole[:n], prefix)

    def test_channel_mixture_edges(self):
        # the channel table is lam times the noiseless row plus 1 - lam times
        # the noiseless rows of Bob's path values k, weighted |b_k|^2, lam =
        # (1 - 2p)^2: lam = 1 at p = 0 and p = 1, where the runs are
        # identical, and lam = 0 at p = 0.5, where every MUB row is its path
        # mixture and every path row is unchanged
        flipped, clean = mdi_qkd_run(3000, 0.9, 1.0, 5), mdi_qkd_run(3000, 0.9, 0.0, 5)
        for column, same in zip(qkd_columns(flipped), qkd_columns(clean)):
            np.testing.assert_array_equal(column, same)
        noiseless = outcome_table(protocols._noiseless_measurement(3), 0.9).reshape(2, 3, 2, 3, 4)
        for p in (0.0, 1.0):
            np.testing.assert_array_equal(protocols._channel_table(0.9, p, 3), noiseless.reshape(36, 4))
        weights = np.abs(build_dft(3)) ** 2
        mixture = np.stack([sum(weights[y, k] * noiseless[:, :, 0, k] for k in range(3)) for y in range(3)], axis=2)
        for p in (0.5, 0.1):
            lam = (1 - 2 * p) ** 2
            table = protocols._channel_table(0.9, p, 3).reshape(2, 3, 2, 3, 4)
            assert np.abs(table[:, :, 1] - (lam * noiseless[:, :, 1] + (1 - lam) * mixture)).max() <= 1e-16
            assert np.abs(table[:, :, 0] - noiseless[:, :, 0]).max() <= (0 if p == 0.5 else 1e-16)

    def test_two_uniforms_per_trial(self, monkeypatch):
        # column 0 picks the joint input floor(36 u) in C order over (Alice
        # basis, x, Bob basis, y), every one of the 36 and none past them;
        # column 1 draws its outcome from that row of the channel table
        u = derive_rng(5).random((3000, 2))
        edges = [x for k in range(1, 36) for x in (np.nextafter(k / 36, 0.0), k / 36)] + [0.0, 1 - 2**-53]
        block = np.vstack([u, [(e, pick) for e in edges for pick in (0.0, 0.5, 1 - 2**-53)]])
        monkeypatch.setattr(protocols, "uniform_chunks", lambda seed, n, cols: iter([(0, block)]))
        run = mdi_qkd_run(len(block), 0.9, 0.5)
        rows = np.floor(36 * block[:, 0]).astype(int)
        assert set(rows.tolist()) == set(range(36))
        inputs = np.unravel_index(rows, (2, 3, 2, 3))
        for column, want in zip((*run.bases.T, *run.values.T), (inputs[0], inputs[2], inputs[1], inputs[3])):
            np.testing.assert_array_equal(column, want)
        table = protocols._channel_table(0.9, 0.5, 3)
        np.testing.assert_array_equal(run.outcomes, draw_codes(table, rows, block[:, 1]))

    def test_second_run_evolves_nothing(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called after the outcome array was built")

        protocols._noiseless_measurement.cache_clear()
        protocols._decode_array.cache_clear()
        mdi_qkd_run(100, noise=0.1)
        monkeypatch.setattr(discrimination, "evolve_axes", forbidden)
        run = mdi_qkd_run(20000, noise=0.1)
        assert run.sifted.any()


def reference_table(row):
    """The pass probability, running click probabilities and outcome codes,
    over the click support, of input row (Alice basis, x, Bob basis, y),
    raveled over (2, 3, 2, 3), by the sparse reference: parity projection,
    the polynomial evolution, on-off detection and the classifier dict."""
    a_basis, x, b_basis, y = np.unravel_index(row, (2, 3, 2, 3))
    joint = tensor(alice_send(BASES[a_basis], x), bob_send(BASES[b_basis], y))
    passed, pass_prob = parity_postselect(joint, 3)
    if pass_prob == 0.0:
        return 0.0, np.zeros(0), np.zeros(0, dtype=np.int64)
    dist = detect_distribution(apply_mode_unitary(passed, build_dft(3), ESD_PORTS))
    ordered = sorted(dist.items(), key=lambda pair: pair[0].clicks)
    codes = [click_code(pattern, 3) for pattern, _ in ordered]
    return pass_prob, np.cumsum([prob for _, prob in ordered]), np.array(codes)


def reference_running(table, eta):
    """The running probabilities of the codes inconclusive, 0, 1, 2 of one
    `reference_table`, scaled by eta^3 pass_prob over the click total."""
    pass_prob, cumulative, codes = table
    probs = np.diff(cumulative, prepend=0.0)
    sums = [probs[codes == code].sum() for code in range(-1, 3)]
    return np.cumsum(sums) * (eta**3 * pass_prob / cumulative[-1]) if len(cumulative) else np.zeros(4)


class TestMdiOutcomeArray:
    def test_rows_match_sparse_tables(self):
        m = protocols._noiseless_measurement(3)
        assert m.probs.shape == (36, 27)
        for row in range(36):
            pass_prob, cumulative, codes = reference_table(row)
            assert abs(m.pass_prob[row] - pass_prob) < 1e-12
            support = m.probs[row] > 0
            np.testing.assert_array_equal(click_codes(3)[support], codes)
            assert np.all(np.abs(np.cumsum(m.probs[row])[support] - cumulative) < 1e-12)
            if not support.any():
                assert pass_prob == 0.0 and m.pass_prob[row] == 0.0
        assert (m.pass_prob == 0).any() and (m.pass_prob > 0).any()

    def test_sampler_matches_reference_tables(self):
        # each code's probability in every row of the outcome table within
        # 1e-12 of the sparse reference's, and the draws from both equal;
        # one call over all 36 rows, interleaved: trial k is uniform k // 36
        # on row k % 36
        uniforms = derive_rng(21).random(500)
        rows = np.arange(36 * len(uniforms)) % 36
        for eta in (1.0, 0.85):
            table = outcome_table(protocols._noiseless_measurement(3), eta)
            codes = draw_codes(table, rows, np.repeat(uniforms, 36))
            for row in range(36):
                running = reference_running(reference_table(row), eta)
                assert np.abs(np.diff(table[row], prepend=0.0) - np.diff(running, prepend=0.0)).max() <= 1e-12
                expected = [bisect.bisect_right(running.tolist(), u) - 1 for u in uniforms.tolist()]
                np.testing.assert_array_equal(codes[row::36], [POSTSELECT_FAIL_CODE if e == 3 else e for e in expected])


class TestMdiQkdExpectation:
    @pytest.mark.parametrize("eta", [1.0, 0.9, 0.7, 0.3])
    def test_closed_forms(self, eta):
        # the call without d is the d = 3 model, whose closed forms
        # TestKeyDistributionModel checks at every d, and it refuses the same noise
        for p in (0.0, 0.05, 0.1, 0.1389, 0.3, 0.5, 0.8, 1.0):
            assert mdi_qkd_expectation(eta, p) == mdi_qkd_expectation(eta, p, 3)
        for p in (1.5, math.nan):
            with pytest.raises(ValueError):
                mdi_qkd_expectation(eta, p)

    @pytest.mark.parametrize("eta, p", [(1.0, 0.0), (0.9, 0.1), (0.7, 0.3), (0.8, 0.5)])
    def test_sampled_runs_agree(self, eta, p):
        n = 200_000
        exact = mdi_qkd_expectation(eta, p)
        run = mdi_qkd_run(n, eta=eta, noise=p, seed=31)
        z_sift = (run.sift_rate - exact.sift_rate) / math.sqrt(exact.sift_rate * (1 - exact.sift_rate) / n)
        assert abs(z_sift) <= 5
        n_sifted = int(run.sifted.sum())
        if exact.qber == 0.0:
            assert run.qber == 0.0
        else:
            assert abs(run.qber - exact.qber) / math.sqrt(exact.qber * (1 - exact.qber) / n_sifted) <= 5
