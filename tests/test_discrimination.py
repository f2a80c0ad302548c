import bisect
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import esdsim
import esdsim.discrimination as discrimination
import esdsim.protocols as protocols
import esdsim.sampling as sampling
from esdsim import cli
from esdsim.discrimination import (
    INCONCLUSIVE_CODE,
    POSTSELECT_FAIL_CODE,
    Measurement,
    click_codes,
    click_order,
    conclusive_probabilities,
    measure,
    outcome_name,
    outcome_probabilities,
    outcome_table,
)
from esdsim.errors import AmbiguousPattern
from esdsim.optics import build_dft
from esdsim.protocols import mdi_qkd_expectation, mdi_qkd_run, teleport_run
from esdsim.sampling import (
    _binomial,
    _philox_uniforms,
    derive_rng,
    draw_codes,
    draw_counts,
    philox_head,
    uniform_chunks,
)
from esdsim.states import phi_amplitudes, psi_amplitudes
from sparse_reference import (
    DetectionPattern,
    FockBasisState,
    ModeLabel,
    OverlappingModes,
    PortMismatch,
    PureState,
    apply_mode_unitary,
    build_minor,
    build_phi,
    build_psi,
    click_code,
    dense_amplitudes,
    detect_distribution,
    parity_postselect,
    single_photon,
    states_equal_up_to_global_phase,
    superpose,
    suppression_law,
    tensor,
)


def pattern(*pairs):
    return DetectionPattern.from_pairs(pairs)


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


def published_codes():
    """The published table over `click_order(3)`: the group of each row's
    ports, INCONCLUSIVE_CODE for a row in no group."""
    group_of = {ports: g for g in GROUPS for ports in GROUPS[g]}
    return np.array([group_of.get(tuple(ports), INCONCLUSIVE_CODE) for ports in click_order(3).tolist()])


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
        assert click_code(pattern((0, 0), (1, 1), (2, 2)), 3) == 0

    def test_doubled_port_pattern(self):
        assert click_code(pattern((0, 0), (0, 1), (1, 2)), 3) == 1

    def test_two_clicks_inconclusive(self):
        assert click_code(pattern((0, 0), (1, 1)), 3) == INCONCLUSIVE_CODE

    def test_hand_table_has_18_disjoint_patterns(self):
        codes = published_codes()
        assert np.count_nonzero(codes >= 0) == 18
        for g in range(3):
            assert np.count_nonzero(codes == g) == 6


class TestBuildClassifier:
    def test_d3_reproduces_hand_table(self):
        np.testing.assert_array_equal(click_codes(3), published_codes())

    def test_d2_cross_vs_same_port(self):
        assert click_code(pattern((0, 0), (1, 1)), 2) == 0
        assert click_code(pattern((0, 1), (1, 0)), 2) == 0
        assert click_code(pattern((0, 0), (0, 1)), 2) == 1
        assert click_code(pattern((1, 0), (1, 1)), 2) == 1

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_supports_are_disjoint_and_complete(self, d):
        assert np.count_nonzero(click_codes(d) >= 0) == d * math.factorial(d)
        u = build_dft(d)
        for i in range(d):
            source = build_psi(i) if d == 3 else build_phi(i, d)
            dist = detect_distribution(apply_mode_unitary(source, u, tuple(range(d))))
            assert abs(sum(dist.values()) - 1) < 1e-12
            assert all(click_code(p, d) == i for p in dist)

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
        paths = [str(Path(esdsim.__file__).parents[1]), str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                              timeout=120)
        assert done.stdout.split() == ["True"]

    def test_d6_pattern_count(self):
        assert np.count_nonzero(click_codes(6) >= 0) == 6 * math.factorial(6)

    def test_d4_pattern_structure(self):
        # outcome i != 0 leaves exactly one port dark, and the time-bin-0
        # photon sits i ports below it (cyclically); outcome 0 lights all ports
        for ports, index in zip(click_order(4).tolist(), click_codes(4).tolist()):
            lit, a_port = set(ports), ports[0]
            if index < 0:
                continue
            if index == 0:
                assert lit == set(range(4))
            else:
                dark = (set(range(4)) - lit).pop()
                assert (dark - a_port) % 4 == index


def sampled_codes(amps, eta, n, seed):
    """Outcome codes of n trials of one d = 3 input, one uniform each."""
    return draw_codes(outcome_table(measure(amps[None], 3), eta), 0, derive_rng(seed).random(n))


UNIFORM_MIXTURE = sum(psi_amplitudes(i) for i in range(3)) / math.sqrt(3)


class TestSampling:
    def test_conclusive_inputs_classified_exactly(self):
        for seed in (0, 1, 99):
            codes = sampled_codes(psi_amplitudes(2), 1.0, 1000, seed)
            assert set(codes.tolist()) == {2}

    def test_bunched_inputs_always_fail(self):
        for seed in (0, 1, 99):
            assert set(sampled_codes(psi_amplitudes(7), 1.0, 1000, seed).tolist()) == {POSTSELECT_FAIL_CODE}

    def test_uniform_mixture_frequencies(self):
        n = 30000
        codes = sampled_codes(UNIFORM_MIXTURE, 1.0, n, 42)
        assert set(codes.tolist()) == {0, 1, 2}
        sigma = math.sqrt((1 / 3) * (2 / 3) / n)
        for c in np.bincount(codes, minlength=3):
            assert abs(c / n - 1 / 3) < 3 * sigma

    def test_deterministic_given_seed(self):
        np.testing.assert_array_equal(sampled_codes(UNIFORM_MIXTURE, 0.9, 50, 7),
                                      sampled_codes(UNIFORM_MIXTURE, 0.9, 50, 7))

    def test_seed_range(self, without_numpy_random):
        # a Philox key word holds [0, 2**64); no seed outside it aliases one
        # inside, on the kernel path, on numpy's and in `philox_head`.  The
        # call itself raises.
        for rows in (1, sampling.KERNEL_BUDGET + 1):
            for seed in (-1, -5, 2**64, 2**64 + 5):
                with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
                    uniform_chunks(seed, rows, 1)
                with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
                    philox_head(seed, 9)
            assert next(uniform_chunks(0, rows, 1))[1][0] != next(uniform_chunks(2**64 - 1, rows, 1))[1][0]

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_protocols_check_the_seed_on_the_kernel_path(self, seed, monkeypatch, without_numpy_random):
        # before any other work: mdi_qkd_run never reaches its measurement
        # table, nor teleport_run, whose `philox_head` checks, its branch maps
        monkeypatch.setattr(protocols, "_noiseless_measurement", lambda d: pytest.fail("measurement table reached"))
        monkeypatch.setattr(protocols, "_teleport_branch_maps", lambda: pytest.fail("branch maps reached"))
        with pytest.raises(ValueError, match="seed must lie"):
            teleport_run(10, seed=seed)
        with pytest.raises(ValueError, match="seed must lie"):
            mdi_qkd_run(10, seed=seed)


@pytest.fixture
def without_numpy_random(monkeypatch):
    """The sampling state of a fresh process: numpy.random not loaded and
    no `uniform_chunks` run made, so that a first run within KERNEL_BUDGET
    takes the kernel."""
    monkeypatch.delitem(sys.modules, "numpy.random", raising=False)
    monkeypatch.setattr(sampling, "_first_run", True)


def philox_reference(seed, n):
    """The first n uniforms of numpy's C Philox4x64-10 keyed (seed, 0)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))).random(n)


class TestPhiloxKernel:
    """`_philox_uniforms` computes numpy's Philox uniforms bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_seeds(self, seed):
        np.testing.assert_array_equal(_philox_uniforms(seed, 0, 1000), philox_reference(seed, 1000))

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_word_offsets_around_block_edges(self, seed):
        # a block holds 4 words: every offset mod 4 and lengths that end
        # before, on and past the next block edges
        reference = philox_reference(seed, 32)
        for offset in range(12):
            for length in range(1, 10):
                np.testing.assert_array_equal(_philox_uniforms(seed, offset, length),
                                              reference[offset : offset + length])

    @pytest.mark.parametrize("seed, offset, length", [
        # the whole budget in one call, over eight scratch blocks and one counter
        (2**64 - 1, 3, sampling.KERNEL_BUDGET),
        # from word 3 of the first counter to one word past the first scratch block
        (7, 3, 4 * sampling._PHILOX_BLOCK - 2),
    ])
    def test_long_runs_across_scratch_blocks(self, seed, offset, length):
        np.testing.assert_array_equal(_philox_uniforms(seed, offset, length),
                                      philox_reference(seed, offset + length)[offset:])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 5000), st.integers(1, 40))
    @example(2**64 - 1, 4999, 40)
    def test_matches_numpy(self, seed, offset, length):
        np.testing.assert_array_equal(_philox_uniforms(seed, offset, length),
                                      philox_reference(seed, offset + length)[offset:])

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_head_in_python_ints(self, seed):
        # k = 1..9 crosses from the first counter's four words into the third's
        for k in range(1, 10):
            assert philox_head(seed, k) == philox_reference(seed, k).tolist()


class TestUniformChunks:
    """Both sources of `uniform_chunks` give row i of
    derive_rng(seed).random((n, cols)); the kernel serves only a process's
    first run, and only within the budget."""

    @staticmethod
    def draw(rows, cols, monkeypatch):
        """The blocks of one run with seed 9, and the seeds numpy's path drew."""
        numpy_seeds = []
        monkeypatch.setattr(sampling, "derive_rng", lambda seed: numpy_seeds.append(seed) or derive_rng(seed))
        chunks = list(uniform_chunks(9, rows, cols))
        assert [start for start, _ in chunks] == list(range(0, rows, sampling.CHUNK_ROWS))
        np.testing.assert_array_equal(np.vstack([block for _, block in chunks]), derive_rng(9).random((rows, cols)))
        return numpy_seeds

    @pytest.mark.parametrize("cols", [1, 2, 4, 5, 8, 12])
    @pytest.mark.parametrize("chunk_rows, budget", [
        (sampling.CHUNK_ROWS, sampling.KERNEL_BUDGET),
        # 7-row chunks start at every word offset mod 4; a smaller budget
        # keeps the number of kernel calls small
        (7, 1000),
    ])
    def test_same_block_on_both_paths(self, cols, chunk_rows, budget, monkeypatch, without_numpy_random):
        monkeypatch.setattr(sampling, "CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(sampling, "KERNEL_BUDGET", budget)
        n = budget // cols  # the longest run on the kernel path; one row more is on numpy's
        for rows, seeds in ((n, []), (n + 1, [9])):
            monkeypatch.setattr(sampling, "_first_run", True)
            assert self.draw(rows, cols, monkeypatch) == seeds

    def test_loaded_numpy_random_draws_every_run(self, monkeypatch, without_numpy_random):
        # once numpy.random is loaded, its C Philox is the faster source at any size
        monkeypatch.setitem(sys.modules, "numpy.random", np.random)
        monkeypatch.setattr(sampling, "_philox_uniforms", lambda *args: pytest.fail("kernel ran"))
        for rows in (1, sampling.KERNEL_BUDGET // 4):
            monkeypatch.setattr(sampling, "_first_run", True)  # even as a process's first run
            assert self.draw(rows, 4, monkeypatch) == [9]

    @staticmethod
    def fresh_runs(runs):
        """Whether numpy.random is loaded after each (rows, cols) run of
        `runs`, all in one fresh process."""
        code = (
            "import sys\n"
            "from esdsim import sampling\n"
            f"for rows, cols in {runs!r}:\n"
            "    list(sampling.uniform_chunks(1, rows, cols))\n"
            "    print('numpy.random' in sys.modules)"
        )
        paths = [str(Path(esdsim.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                              timeout=120)
        return [loaded == "True" for loaded in done.stdout.split()]

    def test_a_first_run_past_the_budget_loads_numpy_random(self):
        assert self.fresh_runs([(sampling.KERNEL_BUDGET + 1, 1)]) == [True]

    def test_two_runs_within_the_budget_but_not_together(self):
        # the first run computes all of KERNEL_BUDGET; the second, which
        # alone would fit, loads numpy.random
        budget = sampling.KERNEL_BUDGET
        assert self.fresh_runs([(budget, 1), (budget // 4, 4)]) == [False, True]

    def test_many_small_runs_load_numpy_random(self):
        # a one-trial first run of 12 uniforms computes them; the second
        # loads numpy.random, and every later run uses it
        assert self.fresh_runs([(1, 12)] * 3) == [False, True, True]


class TestMcTrial:
    """Monte Carlo trials through lossy parity devices, one uniform block each."""

    def test_eta_zero_always_fails(self):
        assert set(sampled_codes(psi_amplitudes(0), 0.0, 1000, 5).tolist()) == {POSTSELECT_FAIL_CODE}

    def test_eta_one_always_conclusive(self):
        assert set(sampled_codes(psi_amplitudes(0), 1.0, 4000, 3).tolist()) == {0}

    def test_device_attrition_rate(self):
        n = 30000
        eta = 0.66
        conclusive = np.count_nonzero(sampled_codes(psi_amplitudes(0), eta, n, 1) >= 0)
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
        probs = outcome_probabilities(measure(psi_amplitudes(1)[None], 3), eta=0.9)
        assert abs(probs["conclusive(1)"] - 0.9**3) < 1e-12
        assert abs(probs["postselect_fail"] - (1 - 0.9**3)) < 1e-12
        assert abs(probs["postselect_fail_device"] - (1 - 0.9**3)) < 1e-12

    def test_failed_parity_split(self):
        probs = outcome_probabilities(measure(psi_amplitudes(5)[None], 3), eta=1.0)
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


def scalar_table_row(m, row, eta):
    """Loop reference for row `row` of `outcome_table`: the click
    probabilities summed per code in the order inconclusive, 0..d-1, each
    running sum over the row's total, then times eta^d pass_prob."""
    sums = [0.0] * (m.d + 1)
    for prob, code in zip(m.probs[row].tolist(), click_codes(m.d).tolist()):
        sums[code + 1] += prob
    total = math.fsum(sums)
    scale = eta**m.d * float(m.pass_prob[row])
    return [math.fsum(sums[: k + 1]) / total * scale if total else 0.0 for k in range(m.d + 1)]


def scalar_draw(entries, u):
    """Loop reference for one trial on a table row: bisect_right counts the
    entries at or below u; past the last entry the trial fails."""
    index = bisect.bisect_right(entries, u)
    return index - 1 if index < len(entries) else POSTSELECT_FAIL_CODE


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
    trials = draw(st.lists(st.tuples(st.integers(0, len(probs) - 1), pick), min_size=1, max_size=20))
    rows, uniforms = zip(*trials)
    return m, np.array(rows), draw(probability), np.array(uniforms)


# A two-row d = 3 Measurement that the generated cases reach only now and
# then: row 0 has a code of probability 0 between codes of positive
# probability (click patterns 0, 1 and 2 have codes inconclusive, 1 and 2),
# and row 1 has no click support.  At eta = 1 its table is dyadic: row 0 is
# (0.25, 0.25, 0.5, 1), row 1 is all 0.
_TIE_PROBS = np.zeros((2, 27))
_TIE_PROBS[0, :3] = 0.25, 0.25, 0.5
TIE_MEASUREMENT = Measurement(3, np.array([1.0, 0.0]), np.sqrt(_TIE_PROBS).astype(complex), _TIE_PROBS)
# Trials that tie an entry exactly (the next code of positive probability
# wins) or reach 1.0, past every entry, on both rows.
TIES = (TIE_MEASUREMENT, np.array([0, 0, 0, 0, 1, 1]), 1.0, np.array([0.0, 0.25, 0.5, 1.0, 0.0, 1.0]))
# A row whose click total is subnormal, so that its inverse overflows.
_SUBNORMAL_PROBS = np.zeros((1, 27))
_SUBNORMAL_PROBS[0, 4] = 2.0**-1030
SUBNORMAL_TOTAL = (Measurement(3, np.array([1.0]), np.sqrt(_SUBNORMAL_PROBS).astype(complex), _SUBNORMAL_PROBS),
                   np.array([0, 0]), 1.0, np.array([0.0, 0.5]))


class TestVectorizedSampler:
    # no shrinking: shrinking a failing multi-row example takes minutes, and
    # the unshrunk example already names the trials that disagree
    @settings(max_examples=150, deadline=None, phases=[phase for phase in Phase if phase != Phase.shrink])
    @given(measurements_and_uniforms())
    @example(TIES)
    @example(SUBNORMAL_TOTAL)
    def test_matches_scalar_reference(self, case):
        # the table within 1e-15 of the loop sums, and each draw bit for bit
        # the bisection of its row
        m, rows, eta, uniforms = case
        table = outcome_table(m, eta)
        reference = np.array([scalar_table_row(m, row, eta) for row in range(len(table))])
        assert np.abs(table - reference).max() <= 1e-15
        codes = draw_codes(table, rows, uniforms)
        expected = [scalar_draw(table[row].tolist(), u) for row, u in zip(rows.tolist(), uniforms.tolist())]
        assert codes.dtype == np.int8 and codes.tolist() == expected

    def test_threshold_edges(self):
        # a uniform at an entry goes on to the next code of positive
        # probability, one an ulp below it stays; no code of probability 0 is
        # ever drawn, and a row with eta = 0 or pass_prob = 0 always fails
        cases = [(measure(np.stack([psi_amplitudes(i) for i in range(9)]), 3), eta) for eta in (1.0, 0.9, 0.0)]
        cases += [(TIE_MEASUREMENT, 1.0), (measure(np.stack([phi_amplitudes(i, 4) for i in range(4)]) / 2, 4), 0.8)]
        for m, eta in cases:
            table = outcome_table(m, eta)
            for row, entries in enumerate(table.tolist()):
                masses = np.diff(entries, prepend=0.0)
                edges = [0.0, 0.5, 1 - 2**-53] + [x for e in entries for x in (e, np.nextafter(e, 0.0)) if x >= 0]
                codes = draw_codes(table, np.full(len(edges), row), np.array(edges))
                if eta == 0 or m.pass_prob[row] == 0:
                    assert (codes == POSTSELECT_FAIL_CODE).all()
                    continue
                assert np.isin(codes, [code - 1 for code in np.flatnonzero(masses)] + [POSTSELECT_FAIL_CODE]).all()
                for code, (mass, e) in enumerate(zip(masses.tolist(), entries), start=-1):
                    at, below = draw_codes(table, row, np.array([e, np.nextafter(e, 0.0)])).tolist()
                    assert at > code or at == POSTSELECT_FAIL_CODE
                    assert mass == 0 or below == code

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
                    min_size=9, max_size=9).filter(lambda cs: sum(abs(c) ** 2 for c in cs) > 1e-3),
           st.floats(0.0, 1.0))
    def test_table_probabilities_sum_to_one(self, coeffs, eta):
        norm = math.sqrt(sum(abs(c) ** 2 for c in coeffs))
        state = sum(c / norm * psi_amplitudes(i) for i, c in enumerate(coeffs))
        m = measure(state[None], 3)
        if m.pass_prob[0] > 0:
            assert abs(np.cumsum(m.probs[0])[-1] - 1.0) < 1e-12
        probs = outcome_probabilities(m, eta)
        split = probs.pop("postselect_fail_device") + probs.pop("postselect_fail_parity")
        assert abs(sum(probs.values()) - 1.0) < 1e-12
        assert abs(split - probs["postselect_fail"]) < 1e-12
        # the sampled table carries the same probabilities
        masses = np.diff(outcome_table(m, eta)[0], prepend=0.0).tolist() + [1 - outcome_table(m, eta)[0, -1]]
        for code, mass in zip([*range(-1, 3), POSTSELECT_FAIL_CODE], masses):
            assert abs(mass - probs.get(outcome_name(code), 0.0)) < 1e-12

    def test_conclusive_probabilities(self):
        # the closed form agrees with the per-input analytic split on every
        # psi state, and each phi_i passes and is conclusive i for sure (at
        # d = 3 the codes carry the psi labels, checked above)
        m = measure(np.stack([psi_amplitudes(i) for i in range(9)]), 3)
        for i, row in enumerate(conclusive_probabilities(m).tolist()):
            probs = outcome_probabilities(measure(psi_amplitudes(i)[None], 3))
            assert np.allclose(row, [probs.get(f"conclusive({k})", 0.0) for k in range(3)], rtol=0, atol=1e-12)
        for d in (2, 4, 5):
            phis = measure(np.stack([phi_amplitudes(i, d) for i in range(d)]), d)
            assert np.abs(conclusive_probabilities(phis) - np.eye(d)).max() <= 1e-12


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


class TestCountSampler:
    """`draw_counts`: a run's outcome counts as conditional binomials, each
    drawn by `_binomial` from one uniform."""

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_binomial_law(self, n):
        # each k takes one interval of u (the mode also the rounding rest,
        # which no grid point reaches here), so its share of a midpoint grid
        # of 2^16 uniforms is within 2^-16 of math.comb's pmf
        grid = [(i + 0.5) / 2**16 for i in range(2**16)]
        for p in (0.05, 1 / 3, 0.5, 0.9):
            shares = np.bincount([_binomial(n, p, u) for u in grid], minlength=n + 1) / 2**16
            pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
            assert np.abs(shares - pmf).max() <= 2**-16

    def test_binomial_edges(self):
        for n in (0, 1, 7, 10**6):
            for u in (0.0, 0.5, 1 - 2**-53):
                assert (_binomial(n, 0.0, u), _binomial(n, 1.0, u)) == (0, n)
        # n = 1: k = 1 exactly on the mass p of u, wherever the mode puts it
        for p in (0.2, 0.5, 0.7):
            ones = [_binomial(1, p, u) for u in np.linspace(0.0, 1.0, 1001, endpoint=False).tolist()]
            assert set(ones) == {0, 1} and abs(sum(ones) / 1001 - p) <= 1 / 1001

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.0, 1e-300, 1e-17, 0.1, 0.3, 1.0]), min_size=1, max_size=7),
           st.sampled_from([0.0, 0.5, 1 - 2**-53, 1.0, 1 + 2**-52]), st.sampled_from([1, 2, 999, 10**6]),
           st.lists(st.floats(0.0, 1 - 2**-53), min_size=7, max_size=7))
    def test_counts(self, masses, scale, n, uniforms):
        # running rows as outcome_table gives them, eta = 0 (scale 0) and a
        # total an ulp above 1 included: the counts of the d + 2 codes sum to
        # n, and a code of probability 0, postselect_fail too, gets none
        row = np.cumsum(masses) * (scale / (sum(masses) or 1.0))
        counts = draw_counts(row, n, uniforms)
        assert list(counts) == [*range(-1, len(row) - 1), POSTSELECT_FAIL_CODE]
        assert min(counts.values()) >= 0 and sum(counts.values()) == n
        for code, mass in zip(counts, np.diff(row, prepend=0.0).tolist() + [1.0 - row[-1]]):
            assert mass > 0 or counts[code] == 0
        if scale == 0:
            assert counts[POSTSELECT_FAIL_CODE] == n

    def test_large_runs_match_the_closed_forms(self):
        # 10^6 trials: every count within 5 sigma of outcome_probabilities;
        # an outcome of probability 0 or 1 takes none or every trial
        n = 10**6
        cases = [(3, psi_amplitudes(i)) for i in range(9)] + [(d, phi_amplitudes(1, d)) for d in (2, 4, 6)]
        for d, state in cases:
            m = measure(state[None], d)
            for eta, seed in ((1.0, 11), (0.9, 12), (0.5, 13), (0.0, 14)):
                probs = outcome_probabilities(m, eta)
                for code, k in draw_counts(outcome_table(m, eta)[0], n, philox_head(seed, d + 1)).items():
                    p = min(probs.get(outcome_name(code), 0.0), 1.0)
                    assert abs(k - n * p) <= 5 * math.sqrt(n * p * (1 - p)) + 1e-9


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
            click_codes(4)
        message = str(info.value)
        support = detect_distribution(apply_mode_unitary(build_phi(0, 4), build_dft(4), tuple(range(4))))
        first = min(support, key=lambda p: p.clicks)
        assert f"pattern {first}" in message
        assert "both 0 and 1 (d=4)" in message

    def test_cli_exits_3(self, shared_source, capsys):
        assert cli.run(["discriminate", "--d", "4", "--state", "phi1"]) == 3
        assert "internal assertion failed" in capsys.readouterr().err

