import math
from functools import lru_cache

import numpy as np
import pytest

import esdsim.discrimination as discrimination
import esdsim.fock as fock
import esdsim.protocols as protocols
from esdsim.discrimination import (
    INCONCLUSIVE_CODE,
    POSTSELECT_FAIL_CODE,
    DetectionPattern,
    analytic_outcome_probabilities,
    build_classifier,
    click_codes,
    detect_distribution,
    measure,
    sample_outcomes,
)
from esdsim.fock import (
    ModeLabel,
    PureState,
    apply_phases,
    inner_product,
    partial_project,
    states_equal_up_to_global_phase,
    tensor,
)
from esdsim.optics import ModeUnitary, apply_mode_unitary, build_dft, dense_amplitudes
from esdsim.protocols import (
    BASES,
    BOB_PORTS,
    COMPUTATIONAL,
    EDP_CHARLIE_PORTS,
    ESD_PORTS,
    CORRECTION_PHASES,
    MUB,
    NoiseConfig,
    TeleportTarget,
    apply_correction,
    edp_shared_state,
    generalized_conclusive_probability,
    haar_amplitudes,
    maximally_entangled_pair,
    mdi_qkd_expectation,
    mdi_qkd_run,
    teleport_analysis,
    teleport_run,
)
from esdsim.protocols import _decode_array, _edp_system
from esdsim.discrimination import derive_rng, outcome_name
from esdsim.states import build_psi, minor_amplitudes, phi_amplitudes
from sparse_reference import (
    build_alice_pair,
    mub_state,
    parity_postselect,
    port_occupancy,
    single_photon,
    target_state,
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
    mat = np.eye(u.dim + extra, dtype=complex)
    mat[: u.dim, : u.dim] = u.matrix
    return ModeUnitary(mat)


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
    def test_identity_leaves_state_alone(self):
        assert np.all(CORRECTION_PHASES[0] == 1)
        s = mub_state(0, 1, BOB_PORTS)
        out = apply_correction(s, 0, BOB_PORTS)
        for b in s.basis_states():
            assert out.amplitude(b) == s.amplitude(b)

    def test_rotation_product_is_identity(self):
        assert np.abs(CORRECTION_PHASES[1] * CORRECTION_PHASES[2] - 1).max() < 1e-12
        s = mub_state(0, 1, BOB_PORTS)
        out = apply_correction(apply_correction(s, 1, BOB_PORTS), 2, BOB_PORTS)
        for b in s.basis_states():
            assert abs(out.amplitude(b) - s.amplitude(b)) < 1e-12

    def test_rotation_1_unwinds_linear_phases(self):
        # (1/sqrt 3) sum_j w^j |a_Bj>  ->  uniform superposition
        twisted = mub_state(0, 1, BOB_PORTS)
        fixed = apply_correction(twisted, 1, BOB_PORTS)
        assert states_equal_up_to_global_phase(fixed, mub_state(0, 0, BOB_PORTS))


class TestTeleport:
    def test_basis_state_target(self):
        analysis = teleport_analysis(TeleportTarget((1.0, 0.0, 0.0)))
        assert abs(analysis.pass_prob - 1 / 3) < 1e-12
        for fid in analysis.outcome_fidelities().values():
            assert abs(fid - 1) < 1e-12

    def test_haar_targets_unit_fidelity_all_outcomes(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            analysis = teleport_analysis(TeleportTarget.haar_random(rng))
            assert abs(analysis.conclusive_probability() - 1 / 3) < 1e-12
            fids = analysis.outcome_fidelities()
            assert set(fids) == {0, 1, 2}  # all three corrections exercised
            for fid in fids.values():
                assert abs(fid - 1) < 1e-12

    def test_target_validation(self):
        for alphas in [(1.0, 1.0, 0.0), (math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0), (0.0, -math.inf, 0.0)]:
            with pytest.raises(ValueError):
                TeleportTarget(alphas)


class TestOutcomeWeights:
    def test_nine_equal_weights_any_target(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            weights = conditional_outcome_weights(TeleportTarget.haar_random(rng))
            assert len(weights) == 9
            assert all(abs(w - 1 / 9) < 1e-12 for w in weights)
            assert abs(sum(weights) - 1) < 1e-12

    def test_basis_target_special_case(self):
        weights = conditional_outcome_weights(TeleportTarget((0.0, 0.0, 1.0)))
        assert all(abs(w - 1 / 9) < 1e-12 for w in weights)


class TestEdp:
    @pytest.mark.parametrize("outcome", [0, 1, 2])
    def test_shared_state_is_maximally_entangled(self, outcome):
        shared = edp_shared_state(outcome)
        assert states_equal_up_to_global_phase(shared, maximally_entangled_pair(), 1e-12)

    @pytest.mark.parametrize("outcome", [0, 1, 2])
    def test_outcome_weight_is_one_ninth(self, outcome):
        projected = partial_project(_edp_system(), build_psi(outcome, EDP_CHARLIE_PORTS), EDP_CHARLIE_PORTS)
        assert abs(projected.norm_sq() - 1 / 9) < 1e-12

    def test_reduced_occupations_uniform(self):
        shared = edp_shared_state(1)
        for ports in ((3, 4, 5), (6, 7, 8)):
            for port in ports:
                prob = sum(
                    abs(amp) ** 2 for b, amp in shared.items() if port_occupancy(b, port) == 1
                )
                assert abs(prob - 1 / 3) < 1e-12


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
        dense = protocols._alice_amplitudes()
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
        run = mdi_qkd_run(20000, eta=1.0, noise=NoiseConfig(0.1), seed=9)
        assert run.qber > 0.0
        # path-encoded rounds stay clean; errors come from MUB rounds only
        rows = run.sifted & (run.bases[:, 0] == BASES.index(COMPUTATIONAL))
        assert rows.any()
        np.testing.assert_array_equal(run.values[rows, 0], run.bob_symbols[rows])

    def test_deterministic_given_seed(self):
        run1 = mdi_qkd_run(300, eta=0.8, noise=NoiseConfig(0.05), seed=3)
        run2 = mdi_qkd_run(300, eta=0.8, noise=NoiseConfig(0.05), seed=3)
        for a, b in zip(qkd_columns(run1), qkd_columns(run2)):
            np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            mdi_qkd_run(0)
        with pytest.raises(ValueError):
            NoiseConfig(1.5)


class TestGeneralizedSetup:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_uniform_input_conclusive_probability(self, d):
        assert abs(generalized_conclusive_probability(d) - 1 / d) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_conclusive_probability_to_rounding(self, d):
        assert abs(generalized_conclusive_probability(d) - 1 / d) <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_two_line_argument(self, d):
        # minor i with Bob's photon on port j passes the parity projection
        # only for j = i, and then always; that input has weight exactly 1/d
        # on every phi_k, each conclusive with probability 1, so of the d*d
        # equally likely inputs d pass and every one is conclusive: 1/d
        bob = np.eye(d)  # Bob's time-bin-0 photon on port j
        inputs = np.stack([np.multiply.outer(bob[j], minor_amplitudes(i, d)) for i in range(d) for j in range(d)])
        result = measure(inputs, d)
        assert np.abs(result.pass_prob.reshape(d, d) - np.eye(d)).max() <= 1e-12
        passed = inputs[:: d + 1].reshape(d, -1)  # j = i
        phis = np.stack([phi_amplitudes(k, d) for k in range(d)]).reshape(d, -1)
        assert np.abs(np.abs(phis.conj() @ passed.T) ** 2 - 1 / d).max() <= 1e-12
        conclusive = result.probs[:: d + 1][:, click_codes(d) >= 0].sum(axis=1)
        assert np.abs(conclusive - 1).max() <= 1e-12
        assert abs(generalized_conclusive_probability(d) - 1 / d) <= 1e-12


def direct_teleport_branches(target):
    """Reference: evolve this target's own joint system and group the evolved
    terms by the configuration on the measured ports."""
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
        code = build_classifier(3).get(DetectionPattern(inside.clicks()), INCONCLUSIVE_CODE)
        bob = PureState(groups[inside])
        if code >= 0:
            bob = apply_correction(bob.normalize(), code, BOB_PORTS)
        branches.append((code, PureState(groups[inside]).norm_sq(), bob))
    return pass_prob, branches


def amplitude_distance(x, y):
    return max(abs(x.amplitude(b) - y.amplitude(b)) for b in set(x.basis_states()) | set(y.basis_states()))


class TestTeleportBranchMaps:
    def test_maps_match_direct_evolution(self):
        rng = np.random.default_rng(77)
        targets = [TeleportTarget.haar_random(rng) for _ in range(20)]
        targets += [TeleportTarget((1.0, 0.0, 0.0)), TeleportTarget((0.0, 0.6, 0.8j))]
        for target in targets:
            pass_prob, reference = direct_teleport_branches(target)
            analysis = teleport_analysis(target)
            assert abs(analysis.pass_prob - pass_prob) < 1e-12
            assert len(analysis.branches) == len(reference)
            for branch, (code, prob, bob) in zip(analysis.branches, reference):
                assert branch.code == code
                assert abs(branch.probability - prob) < 1e-12
                assert amplitude_distance(branch.bob_state, bob) < 1e-12

    def test_analysis_evolves_nothing_per_target(self, monkeypatch):
        teleport_analysis(TeleportTarget((1.0, 0.0, 0.0)))  # the maps are built on first use

        def forbidden(*args):
            raise AssertionError("teleport_analysis must not evolve per target")

        monkeypatch.setattr(discrimination, "evolve_axes", forbidden)
        analysis = teleport_analysis(TeleportTarget.haar_random(np.random.default_rng(4)))
        assert abs(analysis.conclusive_probability() - 1 / 3) < 1e-12


class TestTeleportRun:
    def test_one_row_calls_match_the_block(self):
        # each row's code and fidelity is a branch of its own target's analysis
        codes, fidelities = teleport_run(40, seed=8)
        alphas = haar_amplitudes(derive_rng(8).random((40, 8))[:, :6])
        for code, fidelity, row in zip(codes.tolist(), fidelities.tolist(), alphas.tolist()):
            target = TeleportTarget(tuple(row))
            analysis = teleport_analysis(target)
            if code == POSTSELECT_FAIL_CODE:
                assert math.isnan(fidelity) and analysis.pass_prob < 1
                continue
            branches = [b for b in analysis.branches if b.code == code]
            assert any(abs(b.fidelity - fidelity) < 1e-12 for b in branches)
            overlaps = [abs(inner_product(target_state(target, BOB_PORTS), b.bob_state)) ** 2 for b in branches]
            assert any(abs(overlap - fidelity) < 1e-12 for overlap in overlaps)
        assert (codes >= 0).any() and (codes < 0).any()

    def test_prefix_stable_across_chunks(self, monkeypatch):
        long = teleport_run(50, seed=6)
        monkeypatch.setattr(protocols, "CHUNK_ROWS", 7)
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


class TestMdiQkdSampling:
    def test_prefix_stable(self):
        noise = NoiseConfig(0.2)
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
                analytic[inputs] = analytic_outcome_probabilities(joint, 3, 0.9)
            assert analytic[inputs].get(outcome_name(code), 0.0) > 0.0, (trial, inputs, code)

    def test_prefix_stable_across_chunks(self, monkeypatch):
        noise = NoiseConfig(0.3)
        long = mdi_qkd_run(120, eta=0.9, noise=noise, seed=4)
        monkeypatch.setattr(protocols, "CHUNK_ROWS", 7)
        for n in (50, 120):
            short = mdi_qkd_run(n, eta=0.9, noise=noise, seed=4)
            for whole, prefix in zip(qkd_columns(long), qkd_columns(short)):
                np.testing.assert_array_equal(whole[:n], prefix)

    def test_second_run_evolves_nothing(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called after the outcome array was built")

        protocols._mdi_outcomes.cache_clear()
        protocols._decode_array.cache_clear()
        monkeypatch.setattr(fock, "tensor", forbidden)
        monkeypatch.setattr(protocols, "tensor", forbidden)
        mdi_qkd_run(100, noise=NoiseConfig(0.1))  # the build itself needs no tensor product
        monkeypatch.setattr(discrimination, "evolve_axes", forbidden)
        run = mdi_qkd_run(20000, noise=NoiseConfig(0.1))
        assert run.sifted.any()


def flipped_bob_send(basis, value, flip_bits):
    """Bob's photon with a pi phase on each ESD port whose flip bit is set."""
    flipped = [port for k, port in enumerate(ESD_PORTS) if flip_bits >> k & 1]
    return apply_phases(bob_send(basis, value), lambda mode: -1 if mode.port in flipped else 1)


def reference_table(row):
    """The pass probability, running click probabilities and outcome codes,
    over the click support, of row input_code * 8 + flip_bits by the sparse
    reference: parity projection, the polynomial evolution, on-off
    detection and the classifier dict."""
    a_basis, x, b_basis, y, flip_bits = np.unravel_index(row, (2, 3, 2, 3, 8))
    joint = tensor(alice_send(BASES[a_basis], x), flipped_bob_send(BASES[b_basis], y, flip_bits))
    passed, pass_prob = parity_postselect(joint, 3)
    if pass_prob == 0.0:
        return 0.0, np.zeros(0), np.zeros(0, dtype=np.int64)
    dist = detect_distribution(apply_mode_unitary(passed, build_dft(3), ESD_PORTS))
    ordered = sorted(dist.items(), key=lambda pair: pair[0].clicks)
    codes = [build_classifier(3).get(pattern, INCONCLUSIVE_CODE) for pattern, _ in ordered]
    return pass_prob, np.cumsum([prob for _, prob in ordered]), np.array(codes)


def reference_codes(table, eta, uniforms):
    """Outcome codes of d = 3 trials on one `reference_table`: the first
    support pattern whose running probability exceeds u times the total,
    clamped to the last."""
    pass_prob, cumulative, codes = table
    out = np.full(len(uniforms), POSTSELECT_FAIL_CODE)
    passed = np.all(uniforms[:, :3] < eta, axis=1) & (uniforms[:, 3] < pass_prob)
    if len(cumulative):
        pick = np.searchsorted(cumulative, uniforms[passed, 4] * cumulative[-1], side="right")
        out[passed] = codes[np.minimum(pick, len(cumulative) - 1)]
    return out


class TestMdiOutcomeArray:
    def test_rows_match_sparse_tables(self):
        m = protocols._mdi_outcomes()
        assert m.probs.shape == (288, 27)
        for row in range(288):
            pass_prob, cumulative, codes = reference_table(row)
            assert abs(m.pass_prob[row] - pass_prob) < 1e-12
            support = m.probs[row] > 0
            np.testing.assert_array_equal(click_codes(3)[support], codes)
            assert np.all(np.abs(np.cumsum(m.probs[row])[support] - cumulative) < 1e-12)
            if not support.any():
                assert pass_prob == 0.0 and m.pass_prob[row] == 0.0
        assert (m.pass_prob == 0).any() and (m.pass_prob > 0).any()

    def test_sampler_matches_reference_tables(self):
        uniforms = derive_rng(21).random((500, 5))
        uniforms[:50, 4] = 1.0  # the top edge, where the pick is clamped to the last pattern
        # one call over all 288 rows, interleaved: trial k is uniform k // 288 on row k % 288
        rows = np.arange(288 * len(uniforms)) % 288
        codes = sample_outcomes(protocols._mdi_outcomes(), rows, 0.85, np.repeat(uniforms, 288, axis=0))
        for row in range(288):
            np.testing.assert_array_equal(codes[row::288], reference_codes(reference_table(row), 0.85, uniforms))


class TestMdiQkdExpectation:
    @pytest.mark.parametrize("eta", [1.0, 0.9, 0.7, 0.3])
    def test_closed_forms(self, eta):
        for p in (0.0, 0.05, 0.1, 0.1389, 0.3, 0.5, 0.8, 1.0):
            exact = mdi_qkd_expectation(eta, NoiseConfig(p))
            assert abs(exact.sift_rate - eta**3 / 6) < 1e-12
            assert abs(exact.qber - 4 * p * (1 - p) / 3) < 1e-12

    @pytest.mark.parametrize("eta, p", [(1.0, 0.0), (0.9, 0.1), (0.7, 0.3), (0.8, 0.5)])
    def test_sampled_runs_agree(self, eta, p):
        n = 200_000
        exact = mdi_qkd_expectation(eta, NoiseConfig(p))
        run = mdi_qkd_run(n, eta=eta, noise=NoiseConfig(p), seed=31)
        z_sift = (run.sift_rate - exact.sift_rate) / math.sqrt(exact.sift_rate * (1 - exact.sift_rate) / n)
        assert abs(z_sift) <= 5
        n_sifted = int(run.sifted.sum())
        if exact.qber == 0.0:
            assert run.qber == 0.0
        else:
            assert abs(run.qber - exact.qber) / math.sqrt(exact.qber * (1 - exact.qber) / n_sifted) <= 5
