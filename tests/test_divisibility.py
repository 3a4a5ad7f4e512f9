import math

import pytest

from balseq import divisibility
from balseq.divisibility import residue_hypothesis
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
        report = CATALOG["index-divisibility"].at(SequenceParams(3), m=2, n=4)
        assert report.lhs == 9 == report.rhs
        assert report.holds and report.hypothesis_met

    def test_m_one_divides_everything(self):
        for n in (1, 5, 17):
            assert CATALOG["index-divisibility"].at(SequenceParams(6), m=1, n=n).holds

    def test_k4_needs_no_residue_condition(self):
        # 12 | 1656 even though 4 % 3 == 1
        report = CATALOG["index-divisibility"].at(SequenceParams(4), m=2, n=4)
        assert report.holds and report.hypothesis_met

    def test_nondivisor_rejected(self):
        with pytest.raises(ValueError, match=r"index-divisibility\(m=2, n=5\) is outside"):
            CATALOG["index-divisibility"].at(SequenceParams(3), m=2, n=5)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_holds_for_all_k_to_60(self, k):
        # no residue hypothesis on this lemma, k = 4, 7, 10 included
        b = oracle_b(k, 60)
        for m in range(1, 61):
            for n in range(m, 61, m):
                assert b[n] % b[m] == 0, (k, m, n)
                assert CATALOG["index-divisibility"].at(SequenceParams(k), m=m, n=n).holds


class TestCoprimeNorm:
    def test_example_b(self):
        report = CATALOG["coprime-norm-b"].at(SequenceParams(3), n=4)
        assert report.lhs == 1 and report.holds and report.hypothesis_met

    def test_hypothesis_violation_k4(self):
        report = CATALOG["coprime-norm-b"].at(SequenceParams(4), n=2)
        assert report.lhs == 3
        assert not report.hypothesis_met and not report.holds

    def test_k1_gcd_with_zero(self):
        # gcd(0, B_n) = B_n; k=1 is in the expected-failure pool (1 % 3 == 1)
        report = CATALOG["coprime-norm-b"].at(SequenceParams(1), n=4)
        assert report.lhs == oracle_b(1, 4)[4] == 27
        assert not report.hypothesis_met


class TestConsecutiveCoprime:
    def test_example_b(self):
        report = CATALOG["consecutive-gcd-b"].at(SequenceParams(3), n=3)
        assert report.lhs == math.gcd(79, 693) == 1 and report.holds

    def test_example_c(self):
        report = CATALOG["consecutive-gcd-c"].at(SequenceParams(2), n=4)
        assert report.lhs == math.gcd(577, 3363) == 1 and report.holds

    def test_counterexample_k4(self):
        report = CATALOG["consecutive-gcd-b"].at(SequenceParams(4), n=2)
        assert report.lhs == math.gcd(12, 141) == 3
        assert not report.hypothesis_met and not report.holds


class TestBCCoprime:
    def test_n0(self):
        report = CATALOG["b-c-coprime"].at(SequenceParams(5), n=0)
        assert report.lhs == 1 and report.holds

    def test_examples(self):
        assert CATALOG["b-c-coprime"].at(SequenceParams(3), n=3).lhs == 1
        assert CATALOG["b-c-coprime"].at(SequenceParams(2), n=4).lhs == 1


class TestStrongGcd:
    def test_example_k3(self):
        report = CATALOG["strong-gcd"].at(SequenceParams(3), m=4, n=6)
        assert report.lhs == 9 == report.rhs and report.holds

    def test_diagonal(self):
        report = CATALOG["strong-gcd"].at(SequenceParams(5), m=7, n=7)
        assert report.lhs == report.rhs and report.holds

    def test_coprime_indices(self):
        report = CATALOG["strong-gcd"].at(SequenceParams(2), m=3, n=4)
        assert report.lhs == 1 == report.rhs and report.holds

    def test_m_above_n_rejected(self):
        # gcd is symmetric, so the domain is the sweep's 1 <= m <= n
        with pytest.raises(ValueError, match=r"strong-gcd\(m=6, n=4\) is outside the domain"):
            CATALOG["strong-gcd"].at(SequenceParams(3), m=6, n=4)

    @pytest.mark.parametrize("k", GOOD_K)
    def test_consistency_with_consecutive(self, k):
        # gcd(m, m+1) = 1 and B_1 = 1, so the strong form subsumes consecutive
        params = SequenceParams(k)
        for m in range(1, 25):
            strong = CATALOG["strong-gcd"].at(params, m=m, n=m + 1)
            consecutive = CATALOG["consecutive-gcd-b"].at(params, n=m)
            assert strong.rhs == 1
            assert strong.lhs == consecutive.lhs


def test_check_functions_are_catalog_points():
    # the five check_* names answer through their catalog rows
    params = SequenceParams(5)
    assert divisibility.check_index_divisibility(params, 2, 6) == CATALOG[
        "index-divisibility"].at(params, m=2, n=6)
    assert divisibility.check_coprime_norm("C", params, 4) == CATALOG[
        "coprime-norm-c"].at(params, n=4)
    assert divisibility.check_consecutive_coprime("B", params, 4) == CATALOG[
        "consecutive-gcd-b"].at(params, n=4)
    assert divisibility.check_b_c_coprime(params, 0) == CATALOG["b-c-coprime"].at(params, n=0)
    assert divisibility.check_strong_gcd(params, 4, 6) == CATALOG["strong-gcd"].at(
        params, m=4, n=6)


class TestResidueSweeps:
    @pytest.mark.parametrize("name", RESIDUE_THEOREMS + ["index-divisibility"])
    @pytest.mark.parametrize("k", GOOD_K)
    def test_hypothesis_met_box_40_holds(self, name, k):
        outcome = CATALOG[name](SequenceParams(k), 40)
        assert outcome.failed == 0, outcome.failures[:3]
        assert outcome.hypothesis_not_met == 0
        assert residue_hypothesis(SequenceParams(k))

    @pytest.mark.parametrize("name", RESIDUE_THEOREMS)
    @pytest.mark.parametrize("k", BAD_K)
    def test_counterexample_found_within_10(self, name, k):
        # the residue condition is necessary: each theorem must break somewhere
        outcome = CATALOG[name](SequenceParams(k), 10)
        assert outcome.failed == 0          # never counted as violations
        assert outcome.hypothesis_not_met == outcome.checked
        assert len([r for r in outcome.failures if r.hypothesis_met is False]) >= 1, name

    def test_specific_counterexample_listed(self):
        outcome = CATALOG["consecutive-gcd-b"](SequenceParams(4), 10)
        found = [r for r in outcome.failures
                 if r.hypothesis_met is False and r.inputs["n"] == 2]
        assert found and found[0].lhs == 3

    def test_lucas_hypothesis_is_the_residue_condition(self):
        # gcd(P, Q) = 1 for P = 3k, Q = k - 1 reduces to gcd(3, k - 1) = 1
        for k in range(1, 10**4):
            assert residue_hypothesis(SequenceParams(k)) == (k % 3 != 1), k
