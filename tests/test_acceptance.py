"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Monte-Carlo checks use 3-sigma binomial tolerances; everything else
is exact linear algebra or closed form at the stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from esdsim.cli import run as cli_run
from esdsim.discrimination import click_codes, measure, outcome_probabilities
from esdsim.errors import NoRoot
from esdsim.keyrate import crossover_q, eta_threshold, r3, r_d, rate_per_signal, sifted_rate
from esdsim.optics import (
    build_dft,
    decompose_dft,
    equal_up_to_global_phase,
    recompose,
)
from esdsim.protocols import (
    edp_shared_state,
    generalized_conclusive_probability,
    haar_amplitudes,
    maximally_entangled_pair,
    mdi_qkd_run,
    teleport_analysis,
)
from esdsim.states import psi_amplitudes
from sparse_reference import apply_mode_unitary, build_phi, build_psi, detect_distribution, inner_product


def report(num: int, passed: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_01_orthonormality():
    start = time.perf_counter()
    psi = [build_psi(i) for i in range(9)]
    for i in range(9):
        for j in range(9):
            delta = 1.0 if i == j else 0.0
            assert abs(inner_product(psi[i], psi[j]) - delta) < 1e-12
    for d in (2, 3, 4, 5):
        phi = [build_phi(i, d) for i in range(d)]
        for i in range(d):
            for j in range(d):
                delta = 1.0 if i == j else 0.0
                assert abs(inner_product(phi[i], phi[j]) - delta) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, True, f"81 + sum(d^2) inner products are delta_ij within 1e-12 ({elapsed:.2f}s)")


def test_criterion_02_click_table_reproduction():
    # ports hit by the (a, b, c) photons, one tuple per published pattern
    groups = {
        0: {(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)},
        1: {(0, 0, 1), (0, 1, 0), (1, 1, 2), (1, 2, 1), (2, 0, 2), (2, 2, 0)},
        2: {(0, 0, 2), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 1, 2), (2, 2, 1)},
    }
    dft = build_dft(3)
    for index in range(9):
        dist = detect_distribution(apply_mode_unitary(build_psi(index), dft, (0, 1, 2)))
        seen = set()
        for pat, prob in dist.items():
            ports_by_timebin = {t: p for p, t in pat.clicks}
            assert set(ports_by_timebin) == {0, 1, 2}
            seen.add(tuple(ports_by_timebin[t] for t in range(3)))
            assert abs(prob - 1 / 6) < 1e-12
        assert seen == groups[index % 3], f"state {index}"
    report(2, True, "all nine inputs hit exactly the published click groups at 1/6 each")


def test_criterion_03_discrimination_correctness():
    for i in range(3):
        probs = outcome_probabilities(measure(psi_amplitudes(i)[None], 3), eta=1.0)
        assert abs(probs[f"conclusive({i})"] - 1.0) < 1e-12
    for i in range(3, 9):
        probs = outcome_probabilities(measure(psi_amplitudes(i)[None], 3), eta=1.0)
        assert abs(probs["postselect_fail"] - 1.0) < 1e-12
    report(3, True, "psi_0..2 classify conclusively with certainty; psi_3..8 always fail post-selection")


def test_criterion_04_teleportation():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    corrections_seen = set()
    for _ in range(100):
        analysis = teleport_analysis(haar_amplitudes(rng.random((1, 6)))[0])
        assert abs(analysis.conclusive_probability() - 1 / 3) < 1e-12
        fidelities = analysis.outcome_fidelities()
        corrections_seen |= set(fidelities)
        for fid in fidelities.values():
            assert abs(fid - 1.0) < 1e-12
    assert corrections_seen == {0, 1, 2}
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(4, True, f"100 Haar targets: fidelity 1 on every conclusive outcome, P(conclusive)=1/3 ({elapsed:.1f}s)")


def test_criterion_05_edp_equivalence():
    reference = maximally_entangled_pair()
    for outcome in range(3):
        shared = edp_shared_state(outcome)
        assert equal_up_to_global_phase(shared, reference, 1e-12)
    report(5, True, "conditioned+corrected shared state equals the maximally entangled pair (1e-12)")


def test_criterion_06_keyrate_identities():
    for k in range(100):
        q = 0.5 * k / 99
        assert abs(r_d(3, q) - r3(q)) < 1e-12
    for d in range(2, 9):
        assert r_d(d, 0.0) == math.log2(d)
    r3_total = rate_per_signal(3, 0.0)
    assert abs(r3_total - math.log2(3) / 6) < 1e-10
    assert rate_per_signal(2, 0.0) == 0.25
    assert r3_total > 0.25
    report(6, True, "rate identities hold; per-total-signal qutrit rate beats the qubit 0.25 at Q=0")


def test_criterion_07_crossover():
    # The published crossover Q = 0.0294 +/- 0.0005 is the upper edge of the
    # region where d=3 has the highest per-total-signal rate.  It cannot be a
    # d=3/d=2 crossing: (2 r3 - 3 r2)/12 = (2 log2(3) - 3 - 4Q + 2H(Q))/12 is
    # at least (2 log2(3) - 3)/12 ~ 0.0142 on [0, 0.5] (attained at Q = 0
    # and Q = 0.5; Q = 0.2 is its maximum), so crossover_q(3, 2) has no root.
    # Above 0.0294 the d=4 curve overtakes d=3.
    edge = crossover_q(3, 4)
    assert abs(edge - 0.0294) <= 5e-4

    dims = range(2, 11)
    for q in np.arange(0.0, 0.5, 1e-4):
        if abs(q - edge) <= 5e-4:
            continue
        best = max(dims, key=lambda d: rate_per_signal(d, q))
        assert (best == 3) == (q < edge), f"best d at Q={q:.4f} is {best}"

    with pytest.raises(NoRoot):
        crossover_q(3, 2)
    report(7, True, f"d=3 best of d=2..10 exactly for Q < crossover_q(3, 4) = {edge:.6f}; crossover_q(3, 2) has no root")


def test_crossover_companion_published_value():
    # The published boundary of the qutrit-optimal region, reproduced with
    # the next dimension up.
    q = crossover_q(3, 4)
    assert abs(q - 0.0294) <= 5e-4
    print(f"[criterion 07 companion] PASS - crossover_q(3, 4) = {q:.6f} (published 0.0294)")


def test_criterion_08_eta_thresholds():
    for d, expected in ((3, 0.693), (4, 0.707), (5, 0.725)):
        eta = eta_threshold(d)
        assert abs(eta - expected) < 5e-4
        assert abs(sifted_rate("proposed_esd", d, eta) - sifted_rate("bell_filter", d)) < 1e-12
    report(8, True, "thresholds 0.693/0.707/0.725 reproduced; defining equation holds to 1e-12")


def test_criterion_09_generalized_setup():
    start = time.perf_counter()
    for d in (2, 3, 4, 5):
        codes = click_codes(d)  # raises AmbiguousPattern on overlap
        assert np.count_nonzero(codes >= 0) == d * math.factorial(d)
        assert abs(generalized_conclusive_probability(d) - 1 / d) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(9, True, f"disjoint click supports for d=2..5; uniform-input conclusive probability 1/d ({elapsed:.1f}s)")


def test_criterion_10_monte_carlo_mdi_qkd():
    n = 30000
    for eta in (1.0, 0.9):
        result = mdi_qkd_run(n, eta=eta, seed=int(eta * 100))
        assert result.qber == 0.0
        expected = eta**3 / 6
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(result.sift_rate - expected) < 3 * sigma
    noisy = mdi_qkd_run(n, eta=1.0, noise=0.1, seed=77)
    assert noisy.qber > 0.0
    assert math.isfinite(r3(noisy.qber))
    report(10, True, f"qber 0 without noise, sift rate ~ eta^3/6; toy noise gives Q={noisy.qber:.3f} with finite rate")


def test_criterion_11_tritter_decomposition():
    for d in (2, 3, 4, 5):
        network = decompose_dft(d)
        assert equal_up_to_global_phase(recompose(network), build_dft(d), 1e-10)
    splitters = decompose_dft(3).beam_splitters()
    assert any(abs(bs.transmissivity - 2 / 3) < 1e-9 for bs in splitters)
    report(11, True, "recomposition matches the DFT (1e-10) for d=2..5; d=3 carries the reflectivity-1/3 element")


def test_criterion_12_cli_determinism(tmp_path):
    configs = [
        ["keyrate", "--d", "2,3,4", "--q-max", "0.06", "--q-step", "0.002"],
        ["discriminate", "--state", "psi1", "--trials", "300", "--eta", "0.9", "--seed", "5"],
        ["mdiqkd", "--trials", "200", "--eta", "0.8", "--noise", "0.05", "--seed", "13"],
        ["describe-tritter", "--d", "4"],
    ]
    for idx, argv in enumerate(configs):
        a = tmp_path / f"{idx}_a.out"
        b = tmp_path / f"{idx}_b.out"
        assert cli_run(argv + ["--out", str(a)]) == 0
        assert cli_run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), argv
    report(12, True, "repeated CLI runs produce byte-identical outputs")
