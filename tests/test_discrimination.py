import bisect
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import esdsim
import esdsim.discrimination as discrimination
from esdsim import cli
from esdsim.discrimination import (
    INCONCLUSIVE_CODE,
    POSTSELECT_FAIL_CODE,
    DetectionPattern,
    Measurement,
    analytic_outcome_probabilities,
    build_classifier,
    click_codes,
    click_order,
    conclusive_probabilities,
    derive_rng,
    detect_distribution,
    measure,
    measurement_input,
    outcome_name,
    outcome_probabilities,
    sample_outcomes,
)
from esdsim.errors import AmbiguousPattern, OverlappingModes, PortMismatch
from esdsim.fock import FockBasisState, ModeLabel, PureState, states_equal_up_to_global_phase, superpose, tensor
from esdsim.optics import apply_mode_unitary, build_dft, dense_amplitudes
from esdsim.protocols import mdi_qkd_expectation, mdi_qkd_run
from esdsim.states import build_phi, build_psi, phi_amplitudes, psi_amplitudes
from sparse_reference import build_minor, parity_postselect, single_photon, suppression_law


def pattern(*pairs):
    return DetectionPattern.from_pairs(pairs)


def classify(pattern, d):
    """The outcome code of a click pattern under the generated classifier."""
    return build_classifier(d).get(pattern, INCONCLUSIVE_CODE)


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
        dist = detect_distribution(single_photon(ModeLabel(0, 0)))
        assert dist == {pattern((0, 0)): 1.0}

    def test_probabilities_sum_to_one(self):
        for index in range(9):
            assert abs(sum(detect_distribution(evolved_psi(index)).values()) - 1) < 1e-12


class TestClassify:
    def test_distinct_port_pattern(self):
        assert classify(pattern((0, 0), (1, 1), (2, 2)), 3) == 0

    def test_doubled_port_pattern(self):
        assert classify(pattern((0, 0), (0, 1), (1, 2)), 3) == 1

    def test_two_clicks_inconclusive(self):
        assert classify(pattern((0, 0), (1, 1)), 3) == INCONCLUSIVE_CODE

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

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_suppression_law(self, d):
        # phi_i reaches exactly the d! patterns whose time-bins 1..d-1 hit
        # distinct ports and whose time-bin-0 photon sits i ports below the
        # port m those miss, each with probability 1/d!; at d = 3 the table
        # keys off the published psi labels, which swap 1 and 2
        phi_code = suppression_law(d)
        psi_code = np.where(phi_code >= 0, -phi_code % d, phi_code)
        np.testing.assert_array_equal(click_codes(d), psi_code if d == 3 else phi_code)
        if d <= 5:
            probs = measure(np.stack([phi_amplitudes(i, d) for i in range(d)]), d).probs
            for i in range(d):
                np.testing.assert_array_equal(probs[i] > 0, phi_code == i)
            assert np.all(np.count_nonzero(probs, axis=1) == math.factorial(d))
            assert np.abs(probs[probs > 0] - 1 / math.factorial(d)).max() <= 1e-12

    def test_suppression_law_d7(self):
        # click_codes(7) peaks near 320 MB, so it is built in a process of its own
        code = (
            "import numpy as np\n"
            "from esdsim.discrimination import click_codes\n"
            "from sparse_reference import suppression_law\n"
            "print(np.array_equal(click_codes(7), suppression_law(7)))"
        )
        env = {"PYTHONPATH": os.pathsep.join([str(Path(esdsim.__file__).parents[1]), str(Path(__file__).parent)])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                              timeout=120)
        assert done.stdout.split() == ["True"]

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
    m = measure(measurement_input(state, 3)[None], 3)
    return sample_outcomes(m, np.zeros(n, dtype=np.int64), eta, derive_rng(seed).random((n, 5)))


class TestSampling:
    def test_conclusive_inputs_classified_exactly(self):
        for seed in (0, 1, 99):
            codes = sampled_codes(build_psi(2), 1.0, 1000, seed)
            assert set(codes.tolist()) == {2}

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

    def test_seed_range(self):
        # a Philox key word holds [0, 2**64); no seed outside it aliases one inside
        for seed in (-1, -5, 2**64, 2**64 + 5):
            with pytest.raises(ValueError):
                derive_rng(seed)
        assert derive_rng(0).random() != derive_rng(2**64 - 1).random()


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
            mdi_qkd_run(10, eta=1.5)
        with pytest.raises(ValueError):
            mdi_qkd_expectation(eta=-0.1)


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
    def test_string_forms(self):
        assert outcome_name(2) == "conclusive(2)"
        assert outcome_name(INCONCLUSIVE_CODE) == "inconclusive"
        assert outcome_name(POSTSELECT_FAIL_CODE) == "postselect_fail"
        with pytest.raises(ValueError):
            outcome_name(-3)


# -- vectorized sampler ----------------------------------------------------------


def scalar_sample(m, row, eta, u):
    """Loop reference for one trial on input `row`: devices, then the parity
    projection, then bisect_right over the running probabilities of the
    row's support patterns, clamped to the last of them."""
    d = m.d
    if any(x >= eta for x in u[:d]) or u[d] >= m.pass_prob[row]:
        return POSTSELECT_FAIL_CODE
    support = np.flatnonzero(m.probs[row])
    cum = np.cumsum(m.probs[row, support]).tolist()
    idx = min(bisect.bisect_right(cum, u[d + 1] * cum[-1]), len(cum) - 1)
    return int(click_codes(d)[support[idx]])


unit = st.floats(0.0, 1.0, exclude_max=True)
# Dyadic weights and picks make u * total tie with a running sum exactly; at
# the top edge u * total can round to the total, and 1.0 always reaches it.
dyadic = st.sampled_from([0.25, 0.5, 1.0])
pick = st.one_of(unit, st.sampled_from([0.0, 0.25, 0.5, 0.75, float(np.nextafter(1.0, 0.0)), 1.0]))
probability = st.one_of(st.just(1.0), st.floats(0.0, 1.0))  # often 1, so that many trials reach the pick


@st.composite
def measurements_and_uniforms(draw):
    """A synthetic multi-row Measurement: zero-probability patterns between
    support patterns, weights too small to move a running sum, and rows
    with no click support, which never pass; plus trials on rows drawn in
    any order."""
    d = draw(st.sampled_from([2, 3, 4]))
    probs = np.zeros((draw(st.integers(1, 4)), d**d))
    for row in probs:
        weight = draw(st.sampled_from([dyadic, st.floats(0.0, 1.0)]))
        weights = draw(st.dictionaries(st.integers(0, d**d - 1), weight, max_size=6))
        row[list(weights)] = list(weights.values())
    pass_prob = np.array([draw(probability) if row.any() else 0.0 for row in probs])
    m = Measurement(d, pass_prob, np.sqrt(probs).astype(complex), probs)
    trial = st.tuples(st.integers(0, len(probs) - 1), *[unit] * (d + 1), pick)
    trials = np.array(draw(st.lists(trial, min_size=1, max_size=20)))
    return m, trials[:, 0].astype(np.int64), draw(probability), trials[:, 1:]


class TestVectorizedSampler:
    @settings(max_examples=150, deadline=None)
    @given(measurements_and_uniforms())
    def test_matches_scalar_reference(self, case):
        m, rows, eta, uniforms = case
        codes = sample_outcomes(m, rows, eta, uniforms)
        assert codes.tolist() == [scalar_sample(m, row, eta, u) for row, u in zip(rows.tolist(), uniforms.tolist())]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
                    min_size=9, max_size=9).filter(lambda cs: sum(abs(c) ** 2 for c in cs) > 1e-3),
           st.floats(0.0, 1.0))
    def test_table_probabilities_sum_to_one(self, coeffs, eta):
        norm = math.sqrt(sum(abs(c) ** 2 for c in coeffs))
        state = superpose([(c / norm, build_psi(i)) for i, c in enumerate(coeffs)])
        m = measure(measurement_input(state, 3)[None], 3)
        if m.pass_prob[0] > 0:
            assert abs(np.cumsum(m.probs[0])[-1] - 1.0) < 1e-12
        probs = outcome_probabilities(m, eta)
        split = probs.pop("postselect_fail_device") + probs.pop("postselect_fail_parity")
        assert abs(sum(probs.values()) - 1.0) < 1e-12
        assert abs(split - probs["postselect_fail"]) < 1e-12

    def test_conclusive_probabilities(self):
        # the closed form agrees with the per-input analytic split on every
        # psi state, and each phi_i passes and is conclusive i for sure (at
        # d = 3 the codes carry the psi labels, checked above)
        m = measure(np.stack([psi_amplitudes(i) for i in range(9)]), 3)
        for i, row in enumerate(conclusive_probabilities(m).tolist()):
            probs = analytic_outcome_probabilities(build_psi(i), 3)
            assert np.allclose(row, [probs.get(f"conclusive({k})", 0.0) for k in range(3)], rtol=0, atol=1e-12)
        for d in (2, 4, 5):
            phis = measure(np.stack([phi_amplitudes(i, d) for i in range(d)]), d)
            assert np.abs(conclusive_probabilities(phis) - np.eye(d)).max() <= 1e-12

    def test_uniform_block_shape_is_checked(self):
        with pytest.raises(ValueError):
            sample_outcomes(measure(psi_amplitudes(0)[None], 3), np.zeros(4, dtype=np.int64), 1.0, np.zeros((4, 3)))


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
    inputs += [tensor(build_minor(i, d), single_photon(ModeLabel(0, j)))
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


class TestMeasureMemory:
    def test_working_memory_is_two_inputs(self):
        # besides the caller's inputs, `measure` holds at most two
        # input-sized complex arrays at once (the evolution's previous and
        # next product, then the evolved array and its click-order gather);
        # the bound relies on a Python call handing its argument to the
        # callee, as CPython 3.11 does
        d = 6
        inputs = np.stack([phi_amplitudes(i, d) for i in range(d)])
        measure(inputs[:1], d)  # builds the cached click order
        tracemalloc.start()
        try:
            measure(inputs, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * inputs.nbytes


class TestClickOrder:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_patterns_strictly_increase(self, d):
        order = click_order(d)
        assert order.shape == (d**d, d)
        clicks = [DetectionPattern.from_pairs(zip(ports, range(d))).clicks for ports in order.tolist()]
        assert all(a < b for a, b in zip(clicks, clicks[1:]))

    def test_construction_stays_in_bytes(self):
        # the table holds one byte per port, and its build never holds an
        # int64 copy of it (about 25 table sizes when it did)
        click_order.cache_clear()
        tracemalloc.start()
        try:
            order = click_order(6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert order.dtype == np.uint8
        assert peak <= 5 * order.size


class TestTimeBinDomain:
    def test_shifted_time_bins_raise(self):
        # psi0 with its photons in time-bins 1..3 instead of 0..2
        shifted = PureState(
            {FockBasisState({ModeLabel(m.timebin + 1, m.port): 1 for m in basis.modes()}): amp
             for basis, amp in build_psi(0).items()}
        )
        with pytest.raises(ValueError, match="time-bins 0..2"):
            measurement_input(shifted, 3)
        with pytest.raises(ValueError, match="time-bins 0..2"):
            analytic_outcome_probabilities(shifted, 3)

    def test_missing_photon_raises(self):
        with pytest.raises(ValueError, match="time-bins 0..3"):
            measurement_input(build_minor(0, 4), 4)  # time-bins 1..3 only

    def test_dense_errors_come_first(self):
        hom = PureState({FockBasisState({ModeLabel(0, 0): 1, ModeLabel(0, 1): 1}): 1.0})
        with pytest.raises(OverlappingModes):
            measurement_input(hom, 2)
        state = PureState({FockBasisState({ModeLabel(0, 0): 1, ModeLabel(1, 1): 1, ModeLabel(2, 2): 1}): 1.0})
        with pytest.raises(PortMismatch):
            measurement_input(state, 2)


class TestAmbiguousPattern:
    """Two sources that share a state share their click support."""

    @pytest.fixture
    def shared_source(self, monkeypatch):
        monkeypatch.setattr(discrimination, "phi_amplitudes", lambda index, d: phi_amplitudes(max(index - 1, 0), d))
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

