import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import esdsim.discrimination as discrimination
from esdsim import cli
from esdsim.discrimination import (
    INCONCLUSIVE,
    POSTSELECT_FAIL,
    POSTSELECT_FAIL_CODE,
    DetectionPattern,
    DiscriminationOutcome,
    OutcomeTable,
    ParityModel,
    analytic_outcome_probabilities,
    build_classifier,
    click_order,
    derive_rng,
    detect_distribution,
    measure,
    outcome_probabilities,
    outcome_table,
    parity_postselect,
    sample_outcomes,
)
from esdsim.errors import AmbiguousPattern, OverlappingModes, PortMismatch
from esdsim.fock import FockBasisState, ModeLabel, PureState, states_equal_up_to_global_phase, superpose, tensor
from esdsim.optics import apply_mode_unitary, build_dft, dense_amplitudes
from esdsim.states import build_minor, build_phi, build_psi


def pattern(*pairs):
    return DetectionPattern.from_pairs(pairs)


def classify(pattern, d):
    """The outcome of a click pattern under the generated classifier."""
    index = build_classifier(d).get(pattern)
    return INCONCLUSIVE if index is None else DiscriminationOutcome.conclusive(index)


def evolved_psi(index):
    return apply_mode_unitary(build_psi(index), build_dft(3), (0, 1, 2))


# Published click table for d = 3, output ports relabeled 0..2: the ports
# hit by the (a, b, c) photons for each click group.
GROUPS = {
    0: [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)],
    1: [(0, 0, 1), (0, 1, 0), (1, 1, 2), (1, 2, 1), (2, 0, 2), (2, 2, 0)],
    2: [(0, 0, 2), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 1, 2), (2, 2, 1)],
}


def group_patterns(g):
    return {pattern(*((port, tb) for tb, port in enumerate(ports))) for ports in GROUPS[g]}


QUTRIT_CLICK_TABLE = {p: g for g in GROUPS for p in group_patterns(g)}


class TestParityPostselect:
    def test_all_distinct_ports_always_pass(self):
        state, prob = parity_postselect(build_psi(0), 3)
        assert abs(prob - 1.0) < 1e-12
        assert states_equal_up_to_global_phase(state, build_psi(0))

    def test_doubly_occupied_port_always_fails(self):
        for i in range(3, 9):
            _, prob = parity_postselect(build_psi(i), 3)
            assert prob == 0.0

    def test_projects_and_renormalizes_mixture(self):
        mix = superpose([(1 / math.sqrt(2), build_psi(0)), (1 / math.sqrt(2), build_psi(3))])
        state, prob = parity_postselect(mix, 3)
        assert abs(prob - 0.5) < 1e-12
        assert states_equal_up_to_global_phase(state, build_psi(0))


class TestDetectDistribution:
    @pytest.mark.parametrize("index", range(9))
    def test_published_click_groups(self, index):
        dist = detect_distribution(evolved_psi(index))
        assert set(dist) == group_patterns(index % 3)
        for prob in dist.values():
            assert abs(prob - 1 / 6) < 1e-12

    def test_single_photon(self):
        dist = detect_distribution(PureState.single_photon(ModeLabel(0, 0)))
        assert dist == {pattern((0, 0)): 1.0}

    def test_probabilities_sum_to_one(self):
        for index in range(9):
            assert abs(sum(detect_distribution(evolved_psi(index)).values()) - 1) < 1e-12


class TestClassify:
    def test_distinct_port_pattern(self):
        assert classify(pattern((0, 0), (1, 1), (2, 2)), 3) == DiscriminationOutcome.conclusive(0)

    def test_doubled_port_pattern(self):
        assert classify(pattern((0, 0), (0, 1), (1, 2)), 3) == DiscriminationOutcome.conclusive(1)

    def test_two_clicks_inconclusive(self):
        out = classify(pattern((0, 0), (1, 1)), 3)
        assert out.tag == DiscriminationOutcome.INCONCLUSIVE

    def test_hand_table_has_18_disjoint_patterns(self):
        assert len(QUTRIT_CLICK_TABLE) == 18
        for g in range(3):
            for p in group_patterns(g):
                assert QUTRIT_CLICK_TABLE[p] == g


class TestBuildClassifier:
    def test_d3_reproduces_hand_table(self):
        assert build_classifier(3) == QUTRIT_CLICK_TABLE

    def test_d2_cross_vs_same_port(self):
        table = build_classifier(2)
        assert table[pattern((0, 0), (1, 1))] == 0
        assert table[pattern((0, 1), (1, 0))] == 0
        assert table[pattern((0, 0), (0, 1))] == 1
        assert table[pattern((1, 0), (1, 1))] == 1

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_supports_are_disjoint_and_complete(self, d):
        table = build_classifier(d)
        assert len(table) == d * math.factorial(d)
        u = build_dft(d)
        for i in range(d):
            source = build_psi(i) if d == 3 else build_phi(i, d)
            dist = detect_distribution(apply_mode_unitary(source, u, tuple(range(d))))
            assert abs(sum(dist.values()) - 1) < 1e-12
            assert all(table[p] == i for p in dist)

    def test_d6_pattern_count(self):
        assert len(build_classifier(6)) == 6 * math.factorial(6)

    def test_d4_pattern_structure(self):
        # outcome i != 0 leaves exactly one port dark, and the time-bin-0
        # photon sits i ports below it (cyclically); outcome 0 lights all ports
        table = build_classifier(4)
        for pat, index in table.items():
            lit = {p for p, _ in pat.clicks}
            a_port = next(p for p, t in pat.clicks if t == 0)
            if index == 0:
                assert lit == set(range(4))
            else:
                dark = (set(range(4)) - lit).pop()
                assert (dark - a_port) % 4 == index


def sampled_codes(state, eta, n, seed):
    """Outcome codes of n trials of one d = 3 input, from one uniform block."""
    return sample_outcomes(outcome_table(state, 3), eta, derive_rng(seed).random((n, 5)))


class TestSampling:
    def test_conclusive_inputs_classified_exactly(self):
        for seed in (0, 1, 99):
            codes = sampled_codes(build_psi(2), 1.0, 1000, seed)
            assert set(codes.tolist()) == {DiscriminationOutcome.conclusive(2).code}

    def test_bunched_inputs_always_fail(self):
        for seed in (0, 1, 99):
            assert set(sampled_codes(build_psi(7), 1.0, 1000, seed).tolist()) == {POSTSELECT_FAIL_CODE}

    def test_uniform_mixture_frequencies(self):
        mix = superpose([(1 / math.sqrt(3), build_psi(i)) for i in range(3)])
        n = 30000
        codes = sampled_codes(mix, 1.0, n, 42)
        assert set(codes.tolist()) == {0, 1, 2}
        sigma = math.sqrt((1 / 3) * (2 / 3) / n)
        for c in np.bincount(codes, minlength=3):
            assert abs(c / n - 1 / 3) < 3 * sigma

    def test_deterministic_given_seed(self):
        mix = superpose([(1 / math.sqrt(3), build_psi(i)) for i in range(3)])
        np.testing.assert_array_equal(sampled_codes(mix, 0.9, 50, 7), sampled_codes(mix, 0.9, 50, 7))


class TestMcTrial:
    """Monte Carlo trials through lossy parity devices, one uniform block each."""

    def test_eta_zero_always_fails(self):
        assert set(sampled_codes(build_psi(0), 0.0, 1000, 5).tolist()) == {POSTSELECT_FAIL_CODE}

    def test_eta_one_always_conclusive(self):
        assert set(sampled_codes(build_psi(0), 1.0, 4000, 3).tolist()) == {0}

    def test_device_attrition_rate(self):
        n = 30000
        eta = 0.66
        conclusive = np.count_nonzero(sampled_codes(build_psi(0), eta, n, 1) >= 0)
        expected = eta**3
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(conclusive / n - expected) < 3 * sigma

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ParityModel(1.5)


class TestAnalyticProbabilities:
    def test_eta_scaling(self):
        probs = analytic_outcome_probabilities(build_psi(1), 3, eta=0.9)
        assert abs(probs["conclusive(1)"] - 0.9**3) < 1e-12
        assert abs(probs["postselect_fail"] - (1 - 0.9**3)) < 1e-12
        assert abs(probs["postselect_fail_device"] - (1 - 0.9**3)) < 1e-12

    def test_failed_parity_split(self):
        probs = analytic_outcome_probabilities(build_psi(5), 3, eta=1.0)
        assert abs(probs["postselect_fail"] - 1.0) < 1e-12
        assert abs(probs["postselect_fail_parity"] - 1.0) < 1e-12
        assert probs["postselect_fail_device"] == 0.0


class TestOutcomeType:
    def test_conclusive_requires_index(self):
        with pytest.raises(ValueError):
            DiscriminationOutcome(DiscriminationOutcome.CONCLUSIVE)

    def test_fail_carries_no_index(self):
        with pytest.raises(ValueError):
            DiscriminationOutcome(DiscriminationOutcome.POSTSELECT_FAIL, 1)

    def test_string_forms(self):
        assert str(DiscriminationOutcome.conclusive(2)) == "conclusive(2)"
        assert str(POSTSELECT_FAIL) == "postselect_fail"


# -- vectorized sampler ----------------------------------------------------------


def scalar_sample(table, eta, row):
    """Loop reference: devices, then the parity projection, then bisect_right
    over the cumulative pattern probabilities."""
    d = table.d
    if any(u >= eta for u in row[:d]) or row[d] >= table.pass_prob or not len(table.codes):
        return POSTSELECT_FAIL_CODE
    cum = table.cumulative.tolist()
    idx = min(bisect.bisect_right(cum, row[d + 1] * cum[-1]), len(cum) - 1)
    return int(table.codes[idx])


unit = st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def tables_and_uniforms(draw):
    d = draw(st.integers(2, 4))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=0, max_size=12))
    cumulative = np.cumsum(weights) if weights and sum(weights) > 0 else np.zeros(0)
    codes = np.array([draw(st.integers(-1, d - 1)) for _ in cumulative], dtype=np.int64)
    pass_prob = draw(st.floats(0.0, 1.0)) if len(cumulative) else 0.0
    table = OutcomeTable(d, pass_prob, cumulative, codes)
    uniforms = np.array(draw(st.lists(st.lists(unit, min_size=d + 2, max_size=d + 2), min_size=1, max_size=20)))
    eta = draw(st.floats(0.0, 1.0))
    return table, eta, uniforms


class TestVectorizedSampler:
    @settings(max_examples=300, deadline=None)
    @given(tables_and_uniforms())
    def test_matches_scalar_reference(self, case):
        table, eta, uniforms = case
        codes = sample_outcomes(table, eta, uniforms)
        assert codes.tolist() == [scalar_sample(table, eta, row.tolist()) for row in uniforms]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
                    min_size=9, max_size=9).filter(lambda cs: sum(abs(c) ** 2 for c in cs) > 1e-3),
           st.floats(0.0, 1.0))
    def test_table_probabilities_sum_to_one(self, coeffs, eta):
        norm = math.sqrt(sum(abs(c) ** 2 for c in coeffs))
        state = superpose([(c / norm, build_psi(i)) for i, c in enumerate(coeffs)])
        table = outcome_table(state, 3)
        if table.pass_prob > 0:
            assert abs(table.cumulative[-1] - 1.0) < 1e-12
        probs = outcome_probabilities(table, eta)
        split = probs.pop("postselect_fail_device") + probs.pop("postselect_fail_parity")
        assert abs(sum(probs.values()) - 1.0) < 1e-12
        assert abs(split - probs["postselect_fail"]) < 1e-12

    def test_uniform_block_shape_is_checked(self):
        with pytest.raises(ValueError):
            sample_outcomes(outcome_table(build_psi(0), 3), 1.0, np.zeros((4, 3)))


# -- dense measurement path ------------------------------------------------------


def sparse_click_distribution(state, d):
    """Reference: parity projection, the general polynomial evolution and
    on-off detection."""
    passed, pass_prob = parity_postselect(state, d)
    if pass_prob == 0.0:
        return 0.0, {}
    return pass_prob, detect_distribution(apply_mode_unitary(passed, build_dft(d), tuple(range(d))))


def click_distribution(state, d):
    """The dense measurement of one input: its pass probability and its
    click probabilities keyed by pattern."""
    _, amps = dense_amplitudes(state, d)
    result = measure(amps[None], d)
    patterns = (DetectionPattern.from_pairs(zip(ports, range(d))) for ports in click_order(d).tolist())
    return float(result.pass_prob[0]), {p: prob for p, prob in zip(patterns, result.probs[0].tolist()) if prob > 0}


def measurement_inputs(d):
    """The one-photon-per-time-bin inputs the measurement sees."""
    inputs = [build_phi(i, d) for i in range(d)]
    inputs += [tensor(build_minor(i, d), PureState.single_photon(ModeLabel(0, j)))
               for i in range(d) for j in range(d)]
    if d == 3:
        inputs += [build_psi(i) for i in range(9)]
    return inputs


coefficient = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def measurement_superpositions(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    members = measurement_inputs(d)
    chosen = draw(st.lists(st.sampled_from(range(len(members))), min_size=1, max_size=4, unique=True))
    coeffs = draw(st.lists(coefficient, min_size=len(chosen), max_size=len(chosen)))
    state = superpose([(c, members[k]) for c, k in zip(coeffs, chosen)])
    if state.norm_sq() < 1e-6:
        state = members[chosen[0]]
    return d, state.normalize()


class TestClickDistribution:
    @settings(max_examples=150, deadline=None)
    @given(measurement_superpositions())
    def test_matches_sparse_reference(self, case):
        d, state = case
        pass_prob, dist = click_distribution(state, d)
        ref_prob, ref = sparse_click_distribution(state, d)
        assert abs(pass_prob - ref_prob) < 1e-12
        assert set(dist) == set(ref)
        assert all(abs(dist[p] - ref[p]) < 1e-12 for p in ref)
        if pass_prob > 0.0:
            assert abs(sum(dist.values()) - 1.0) < 1e-12

    def test_hom_input_raises_overlapping_modes(self):
        hom = PureState({FockBasisState({ModeLabel(0, 0): 1, ModeLabel(0, 1): 1}): 1.0})
        with pytest.raises(OverlappingModes):
            click_distribution(hom, 2)

    def test_photon_on_port_d_raises_port_mismatch(self):
        state = PureState({FockBasisState({ModeLabel(0, 0): 1, ModeLabel(1, 1): 1, ModeLabel(2, 2): 1}): 1.0})
        with pytest.raises(PortMismatch):
            click_distribution(state, 2)


class TestClickOrder:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_patterns_strictly_increase(self, d):
        order = click_order(d)
        assert order.shape == (d**d, d)
        clicks = [DetectionPattern.from_pairs(zip(ports, range(d))).clicks for ports in order.tolist()]
        assert all(a < b for a, b in zip(clicks, clicks[1:]))


class TestTimeBinDomain:
    def test_shifted_time_bins_raise(self):
        # psi0 with its photons in time-bins 1..3 instead of 0..2
        shifted = PureState(
            {FockBasisState({ModeLabel(m.timebin + 1, m.port): 1 for m in basis.modes()}): amp
             for basis, amp in build_psi(0).items()}
        )
        with pytest.raises(ValueError, match="time-bins 0..2"):
            outcome_table(shifted, 3)
        with pytest.raises(ValueError, match="time-bins 0..2"):
            analytic_outcome_probabilities(shifted, 3)

    def test_missing_photon_raises(self):
        with pytest.raises(ValueError, match="time-bins 0..3"):
            outcome_table(build_minor(0, 4), 4)  # time-bins 1..3 only

    def test_dense_errors_come_first(self):
        hom = PureState({FockBasisState({ModeLabel(0, 0): 1, ModeLabel(0, 1): 1}): 1.0})
        with pytest.raises(OverlappingModes):
            outcome_table(hom, 2)
        state = PureState({FockBasisState({ModeLabel(0, 0): 1, ModeLabel(1, 1): 1, ModeLabel(2, 2): 1}): 1.0})
        with pytest.raises(PortMismatch):
            outcome_table(state, 2)


class TestAmbiguousPattern:
    """Two sources that share a state share their click support."""

    @pytest.fixture
    def shared_source(self, monkeypatch):
        monkeypatch.setattr(discrimination, "build_phi", lambda index, d: build_phi(max(index - 1, 0), d))
        discrimination.click_codes.cache_clear()
        yield
        discrimination.click_codes.cache_clear()

    def test_build_names_pattern_and_owners(self, shared_source):
        with pytest.raises(AmbiguousPattern) as info:
            build_classifier(4)
        message = str(info.value)
        support = detect_distribution(apply_mode_unitary(build_phi(0, 4), build_dft(4), tuple(range(4))))
        first = min(support, key=lambda p: p.clicks)
        assert f"pattern {first}" in message
        assert "both 0 and 1 (d=4)" in message

    def test_cli_exits_3(self, shared_source, capsys):
        assert cli.run(["discriminate", "--d", "4", "--state", "phi1"]) == 3
        assert "internal assertion failed" in capsys.readouterr().err

