import math

import pytest

from balseq.divisibility import (
    check_b_c_coprime,
    check_consecutive_coprime,
    check_coprime_norm,
    check_index_divisibility,
    check_strong_gcd,
    residue_hypothesis,
)
from balseq.ring import SequenceParams
from balseq.verify import CATALOG

from conftest import oracle_b

RESIDUE_THEOREMS = [
    "coprime-norm-b", "coprime-norm-c", "consecutive-gcd-b", "consecutive-gcd-c",
    "b-c-coprime", "strong-gcd",
]
GOOD_K = [k for k in range(1, 13) if k % 3 != 1]
BAD_K = [4, 7, 10]


class TestIndexDivisibility:
    def test_example_k3(self):
        report = check_index_divisibility(SequenceParams(3), 2, 4)
        assert report.computed_gcd == 9 == report.expected
        assert report.holds and report.hypothesis_met

    def test_m_one_divides_everything(self):
        for n in (1, 5, 17):
            assert check_index_divisibility(SequenceParams(6), 1, n).holds

    def test_k4_needs_no_residue_condition(self):
        # 12 | 1656 even though 4 % 3 == 1
        report = check_index_divisibility(SequenceParams(4), 2, 4)
        assert report.holds and report.hypothesis_met

    def test_nondivisor_rejected(self):
        with pytest.raises(ValueError, match="does not divide"):
            check_index_divisibility(SequenceParams(3), 2, 5)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_holds_for_all_k_to_60(self, k):
        # no residue hypothesis on this lemma, k = 4, 7, 10 included
        b = oracle_b(k, 60)
        for m in range(1, 61):
            for n in range(m, 61, m):
                assert b[n] % b[m] == 0, (k, m, n)
                assert check_index_divisibility(SequenceParams(k), m, n).holds


class TestCoprimeNorm:
    def test_example_b(self):
        report = check_coprime_norm("B", SequenceParams(3), 4)
        assert report.computed_gcd == 1 and report.holds and report.hypothesis_met

    def test_hypothesis_violation_k4(self):
        report = check_coprime_norm("B", SequenceParams(4), 2)
        assert report.computed_gcd == 3
        assert not report.hypothesis_met and not report.holds

    def test_k1_gcd_with_zero(self):
        # gcd(0, B_n) = B_n; k=1 is in the expected-failure pool (1 % 3 == 1)
        report = check_coprime_norm("B", SequenceParams(1), 4)
        assert report.computed_gcd == oracle_b(1, 4)[4] == 27
        assert not report.hypothesis_met


class TestConsecutiveCoprime:
    def test_example_b(self):
        report = check_consecutive_coprime("B", SequenceParams(3), 3)
        assert report.computed_gcd == math.gcd(79, 693) == 1 and report.holds

    def test_example_c(self):
        report = check_consecutive_coprime("C", SequenceParams(2), 4)
        assert report.computed_gcd == math.gcd(577, 3363) == 1 and report.holds

    def test_counterexample_k4(self):
        report = check_consecutive_coprime("B", SequenceParams(4), 2)
        assert report.computed_gcd == math.gcd(12, 141) == 3
        assert not report.hypothesis_met and not report.holds


class TestBCCoprime:
    def test_n0(self):
        report = check_b_c_coprime(SequenceParams(5), 0)
        assert report.computed_gcd == 1 and report.holds

    def test_examples(self):
        assert check_b_c_coprime(SequenceParams(3), 3).computed_gcd == 1
        assert check_b_c_coprime(SequenceParams(2), 4).computed_gcd == 1


class TestStrongGcd:
    def test_example_k3(self):
        report = check_strong_gcd(SequenceParams(3), 4, 6)
        assert report.computed_gcd == 9 == report.expected and report.holds

    def test_diagonal(self):
        report = check_strong_gcd(SequenceParams(5), 7, 7)
        assert report.computed_gcd == report.expected and report.holds

    def test_coprime_indices(self):
        report = check_strong_gcd(SequenceParams(2), 3, 4)
        assert report.computed_gcd == 1 == report.expected and report.holds

    @pytest.mark.parametrize("k", GOOD_K)
    def test_consistency_with_consecutive(self, k):
        # gcd(m, m+1) = 1 and B_1 = 1, so the strong form subsumes consecutive
        params = SequenceParams(k)
        for m in range(1, 25):
            strong = check_strong_gcd(params, m, m + 1)
            consecutive = check_consecutive_coprime("B", params, m)
            assert strong.expected == 1
            assert strong.computed_gcd == consecutive.computed_gcd


class TestResidueSweeps:
    @pytest.mark.parametrize("name", RESIDUE_THEOREMS + ["index-divisibility"])
    @pytest.mark.parametrize("k", GOOD_K)
    def test_hypothesis_met_box_40_holds(self, name, k):
        outcome = CATALOG[name](SequenceParams(k), 40)
        assert outcome.failed == 0, outcome.violations[:3]
        assert outcome.hypothesis_not_met == 0
        assert residue_hypothesis(SequenceParams(k))

    @pytest.mark.parametrize("name", RESIDUE_THEOREMS)
    @pytest.mark.parametrize("k", BAD_K)
    def test_counterexample_found_within_10(self, name, k):
        # the residue condition is necessary: each theorem must break somewhere
        outcome = CATALOG[name](SequenceParams(k), 10)
        assert outcome.failed == 0          # never counted as violations
        assert outcome.hypothesis_not_met == outcome.checked
        assert len(outcome.expected_failures) >= 1, name

    def test_specific_counterexample_listed(self):
        outcome = CATALOG["consecutive-gcd-b"](SequenceParams(4), 10)
        found = [r for r in outcome.expected_failures if r.inputs["n"] == 2]
        assert found and found[0].computed_gcd == 3

    def test_lucas_hypothesis_is_the_residue_condition(self):
        # gcd(P, Q) = 1 for P = 3k, Q = k - 1 reduces to gcd(3, k - 1) = 1
        for k in range(1, 10**4):
            assert residue_hypothesis(SequenceParams(k)) == (k % 3 != 1), k
