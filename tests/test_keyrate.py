import math

import pytest

from esdsim.errors import DomainError, NoRoot
from esdsim.keyrate import (
    crossover_q,
    eta_threshold,
    keyrate_table,
    r3,
    r_d,
    rate_per_signal,
    shannon_entropy,
    sifted_rate,
)

Q_GRID = [i / 200 for i in range(100)]  # 0 .. 0.495


class TestShannonEntropy:
    def test_endpoints(self):
        assert shannon_entropy(0.0) == 0.0
        assert shannon_entropy(1.0) == 0.0

    def test_maximum(self):
        assert shannon_entropy(0.5) == 1.0

    def test_direct_evaluation(self):
        # frozen from -0.11 log2 0.11 - 0.89 log2 0.89
        assert abs(shannon_entropy(0.11) - 0.4999159581645) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            shannon_entropy(-0.1)
        with pytest.raises(DomainError):
            shannon_entropy(1.1)


class TestRates:
    def test_r3_zero_error(self):
        assert abs(r3(0.0) - math.log2(3)) < 1e-15

    def test_r3_half_is_negative_raw(self):
        assert abs(r3(0.5) - (math.log2(3) - 1 - 2)) < 1e-12

    def test_r3_domain(self):
        with pytest.raises(DomainError):
            r3(0.6)

    def test_rd_reduces_to_qubit_capacity(self):
        assert r_d(2, 0.0) == 1.0

    def test_rd_matches_r3_at_d3(self):
        for q in [0.0, 0.05, 0.1, 0.2] + Q_GRID:
            if q <= 0.5:
                assert abs(r_d(3, q) - r3(q)) < 1e-12

    def test_rd_direct_evaluation_d4(self):
        expected = 2 + 2 * 0.9 * math.log2(0.9) + 0.2 * math.log2(0.1 / 3)
        got = r_d(4, 0.1)
        assert abs(got - expected) < 1e-12
        assert abs(got - 0.7450163127) < 1e-9

    def test_rd_strictly_decreasing(self):
        for d in range(2, 9):
            limit = (d - 1) / d
            grid = [limit * i / 100 for i in range(100)]
            values = [r_d(d, q) for q in grid]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_rd_domain(self):
        with pytest.raises(DomainError):
            r_d(1, 0.0)
        with pytest.raises(DomainError):
            r_d(3, 1.0)


class TestRatePerSignal:
    def test_qutrit_beats_qubit_at_zero_error(self):
        r3_total = rate_per_signal(3, 0.0)
        r2_total = rate_per_signal(2, 0.0)
        assert abs(r3_total - math.log2(3) / 6) < 1e-10
        assert r2_total == 0.25
        assert r3_total > r2_total

    def test_clamping(self):
        assert rate_per_signal(2, 0.4) < 0.0


class TestCrossover:
    def test_qutrit_four_dim_crossover(self):
        # the error rate below which the qutrit curve is the highest of all
        q = crossover_q(3, 4)
        assert abs(q - 0.0294) < 5e-4
        gap = rate_per_signal(3, q) - rate_per_signal(4, q)
        assert abs(gap) < 1e-4

    def test_qutrit_always_above_qubit(self):
        # the raw d=3 curve dominates d=2 on the whole interval: no root
        with pytest.raises(NoRoot):
            crossover_q(3, 2)

    def test_identical_dimensions_rejected(self):
        with pytest.raises(DomainError):
            crossover_q(2, 2)


class TestSiftedRate:
    def test_filter_baseline(self):
        assert sifted_rate("bell_filter", 3) == 1 / 9
        assert sifted_rate("bell_filter", 5, eta=0.5) == 1 / 25

    def test_proposed_setup(self):
        assert abs(sifted_rate("proposed_esd", 3, 1.0) - 1 / 3) < 1e-15
        assert abs(sifted_rate("proposed_esd", 3, 0.66) - 0.66**3 / 3) < 1e-15

    def test_validation(self):
        with pytest.raises(DomainError):
            sifted_rate("proposed_esd", 3, 1.5)
        with pytest.raises(ValueError, match="unknown sifted-rate setup"):
            sifted_rate("filter", 3)


class TestEtaThreshold:
    @pytest.mark.parametrize("d,expected", [(3, 0.693), (4, 0.707), (5, 0.725)])
    def test_published_values(self, d, expected):
        assert abs(eta_threshold(d) - expected) < 5e-4

    @pytest.mark.parametrize("d", range(2, 11))
    def test_defining_equation(self, d):
        eta = eta_threshold(d)
        assert abs(sifted_rate("proposed_esd", d, eta) - sifted_rate("bell_filter", d)) < 1e-12


class TestKeyrateTable:
    def test_row_grid(self):
        rows = list(keyrate_table([2, 3], [0.0, 0.01, 0.02, 0.03, 0.04, 0.05]))
        assert len(rows) == 12

    def test_zero_error_ordering(self):
        at0 = {d: r_total for d, _, _, r_total in keyrate_table([2, 3, 4, 5, 8], [0.0])}
        # qutrit is the unique winner; d=2 and d=4 tie exactly at 1/4
        assert at0[3] > at0[2]
        assert abs(at0[2] - at0[4]) < 1e-12
        assert at0[4] > at0[5] > at0[8]

    def test_total_rate_clamped_beyond_boundary(self):
        rows = list(keyrate_table([2], [0.1, 0.11, 0.12]))
        # qubit curve crosses zero near Q = 0.1104
        assert rows[0][3] > 0
        assert rows[2][3] == 0.0 and rows[2][2] < 0

    def test_qutrit_zero_error_value(self):
        (_, _, _, r_total), = keyrate_table([3], [0.0])
        assert abs(r_total - 0.26416) < 1e-5

    def test_eta_column(self):
        (_, _, _, r_total), = keyrate_table([3], [0.0], eta=0.9)
        assert abs(r_total - 0.9**3 * math.log2(3) / 6) < 1e-12

    @pytest.mark.parametrize("eta", [None, 0.9])
    def test_rows_equal_the_rate_functions(self, eta):
        q_values = [i * 0.002 for i in range(61)]
        rows = keyrate_table([2, 3, 4, 5, 7], q_values, eta=eta)
        expected = [
            (d, q, r_d(d, q), max(0.0, rate_per_signal(d, q)) * (1.0 if eta is None else eta**d))
            for d in [2, 3, 4, 5, 7]
            for q in q_values
        ]
        assert list(rows) == expected


def test_mc_sift_rate_matches_model():
    # cross-check: simulated sift rate == sifted_rate/2 (basis-match factor)
    from esdsim.protocols import mdi_qkd_run

    n = 30000
    eta = 0.9
    run = mdi_qkd_run(n, eta=eta, seed=21)
    expected = sifted_rate("proposed_esd", 3, eta) / 2
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(run.sift_rate - expected) < 3 * sigma


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("eta", [1.0, 0.9, 0.7])
def test_sifted_rate_is_the_simulated_measurement(d, eta):
    # the proposed setup's sifted rate is the simulated conclusive
    # probability times the d parity devices' eta^d, and twice the exact
    # MDI-QKD sift rate (half the trials match bases); its gain over
    # the filter's 1/d^2 is d eta^d, the paper's factor of three at d = 3
    from esdsim.protocols import generalized_conclusive_probability, mdi_qkd_expectation

    proposed = sifted_rate("proposed_esd", d, eta)
    assert abs(proposed - eta**d * generalized_conclusive_probability(d)) <= 1e-15
    assert abs(proposed - 2 * mdi_qkd_expectation(eta, 0, d).sift_rate) <= 1e-15
    gain = proposed / sifted_rate("bell_filter", d)
    assert abs(gain - d * eta**d) <= 1e-15 * d
    if (d, eta) == (3, 1.0):
        assert gain == 3.0
