import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from balseq import identities
from balseq.divisibility import (
    check_b_c_coprime,
    check_consecutive_coprime,
    check_coprime_norm,
    check_index_divisibility,
    check_strong_gcd,
    residue_hypothesis,
)
from balseq.identities import (
    TermContext,
    addition_formula,
    c_from_b,
    cassini,
    catalan,
    docagne,
    doubling_formulas,
    power_sum_identity,
    sum_closed_form,
    vajda,
)
from balseq.ring import SequenceParams
from balseq.verify import CATALOG

IDENTITY_NAMES = [
    "catalan-b", "catalan-c", "cassini-b", "cassini-c", "docagne-b", "docagne-c",
    "vajda-1", "vajda-2", "sum-b", "sum-c", "addition", "doubling", "power-sum",
    "c-from-b", "matrix-b", "matrix-c", "ar-commute",
]

# The single-shot evaluator of each identity row, called with the row's
# index names; the matrix rows have none.
EVALUATORS = {
    "catalan-b": lambda p, ctx, n, r: catalan("B", p, n, r, ctx=ctx),
    "catalan-c": lambda p, ctx, n, r: catalan("C", p, n, r, ctx=ctx),
    "cassini-b": lambda p, ctx, n: cassini("B", p, n, ctx=ctx),
    "cassini-c": lambda p, ctx, n: cassini("C", p, n, ctx=ctx),
    "docagne-b": lambda p, ctx, m, n: docagne("B", p, m, n, ctx=ctx),
    "docagne-c": lambda p, ctx, m, n: docagne("C", p, m, n, ctx=ctx),
    "vajda-1": lambda p, ctx, n, i, j: vajda(1, p, n, i=i, j=j, ctx=ctx),
    "vajda-2": lambda p, ctx, n, m, ell: vajda(2, p, n, m=m, ell=ell, ctx=ctx),
    "sum-b": lambda p, ctx, n: sum_closed_form("B", p, n, ctx=ctx),
    "sum-c": lambda p, ctx, n: sum_closed_form("C", p, n, ctx=ctx),
    "addition": lambda p, ctx, m, n: addition_formula(p, m, n, ctx=ctx),
    "doubling": lambda p, ctx, n: doubling_formulas(p, n, ctx=ctx),
    "power-sum": lambda p, ctx, n: power_sum_identity(p, n, ctx=ctx),
    "c-from-b": lambda p, ctx, n: c_from_b(p, n, ctx=ctx),
}

# The check_* theorem of each gcd row, called the same way.
GCD_CHECKS = {
    "index-divisibility": lambda p, ctx, m, n: check_index_divisibility(p, m, n, ctx),
    "coprime-norm-b": lambda p, ctx, n: check_coprime_norm("B", p, n, ctx),
    "coprime-norm-c": lambda p, ctx, n: check_coprime_norm("C", p, n, ctx),
    "consecutive-gcd-b": lambda p, ctx, n: check_consecutive_coprime("B", p, n, ctx),
    "consecutive-gcd-c": lambda p, ctx, n: check_consecutive_coprime("C", p, n, ctx),
    "b-c-coprime": lambda p, ctx, n: check_b_c_coprime(p, n, ctx),
    "strong-gcd": lambda p, ctx, m, n: check_strong_gcd(p, m, n, ctx),
}


@pytest.fixture
def planted_b7(monkeypatch):
    """B_7 off by one in every term table a TermContext builds."""
    real_b_table = identities.b_table

    def planted(params, n_max):
        table = real_b_table(params, n_max)
        if n_max >= 7:
            table[7] += 1
        return table

    monkeypatch.setattr(identities, "b_table", planted)


class TestCatalan:
    def test_b_example(self):
        # k=3, n=3, r=1: 693*9 - 79^2 = -4 = -(k-1)^2 * B_1^2
        report = catalan("B", SequenceParams(3), 3, 1)
        assert (report.lhs, report.rhs, report.holds) == (-4, -4, True)

    def test_r_zero_degenerate(self):
        report = catalan("B", SequenceParams(7), 5, 0)
        assert report.lhs == report.rhs == 0 and report.holds

    def test_c_example(self):
        # k=2, n=2, r=1: 99*3 - 17^2 = 8 = 8*(k-1)^2*B_1^2
        report = catalan("C", SequenceParams(2), 2, 1)
        assert (report.lhs, report.rhs, report.holds) == (8, 8, True)

    def test_r_beyond_n_rejected(self):
        with pytest.raises(ValueError, match="0 <= r <= n"):
            catalan("B", SequenceParams(2), 3, 4)

    def test_inputs_recorded(self):
        report = catalan("B", SequenceParams(3), 3, 1)
        assert report.identity_name == "catalan-b"
        assert report.inputs == {"k": 3, "n": 3, "r": 1}
        assert report.hypothesis_met


class TestCassini:
    def test_b_example(self):
        report = cassini("B", SequenceParams(3), 3)
        assert (report.lhs, report.rhs, report.holds) == (4, 4, True)

    def test_b_degenerate_k1(self):
        # (k-1)^{n-1} = 0 for n >= 2 at k=1
        report = cassini("B", SequenceParams(1), 5)
        assert report.lhs == report.rhs == 0 and report.holds

    def test_c_example(self):
        report = cassini("C", SequenceParams(2), 1)
        assert (report.lhs, report.rhs, report.holds) == (-8, -8, True)

    def test_cross_derivation_with_catalan(self):
        # Cassini at n is the r=1 Catalan case with the sign flipped
        for k in (2, 3, 5, 8):
            for n in range(1, 30):
                cas = cassini("B", SequenceParams(k), n)
                cat = catalan("B", SequenceParams(k), n, 1)
                assert cas.lhs == -cat.lhs


class TestDocagne:
    def test_b_example(self):
        # k=2, m=3, n=2: 35*35 - 6*204 = 1 = B_1
        report = docagne("B", SequenceParams(2), 3, 2)
        assert (report.lhs, report.rhs, report.holds) == (1, 1, True)

    def test_m_equal_n(self):
        report = docagne("B", SequenceParams(9), 4, 4)
        assert report.lhs == report.rhs == 0 and report.holds

    def test_c_example(self):
        # k=3, m=2, n=1: 25*25 - 3*219 = -32 = -8*(k-1)^2*B_1
        report = docagne("C", SequenceParams(3), 2, 1)
        assert (report.lhs, report.rhs, report.holds) == (-32, -32, True)

    def test_m_below_n_rejected(self):
        with pytest.raises(ValueError, match="m >= n >= 0"):
            docagne("B", SequenceParams(2), 2, 3)


class TestVajda:
    def test_form1_example(self):
        # k=3, n=1, i=1, j=2: 9*79 - 693 = 18 = (k-1)*B_1*B_2
        report = vajda(1, SequenceParams(3), 1, i=1, j=2)
        assert (report.lhs, report.rhs, report.holds) == (18, 18, True)

    def test_form1_i_zero(self):
        report = vajda(1, SequenceParams(5), 3, i=0, j=4)
        assert report.lhs == report.rhs == 0 and report.holds

    def test_form2_example(self):
        # k=3, n=1, m=4, l=1: B_2*B_3 - B_1*B_4 = 18 = (k-1)*B_2*B_1
        report = vajda(2, SequenceParams(3), 1, m=4, ell=1)
        assert (report.lhs, report.rhs, report.holds) == (18, 18, True)

    def test_form2_domain_violation_rejected(self):
        with pytest.raises(ValueError, match="m > n"):
            vajda(2, SequenceParams(3), 2, m=3, ell=1)

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError, match="form"):
            vajda(3, SequenceParams(3), 1, i=1, j=1)


class TestSumClosedForm:
    def test_b_example(self):
        report = sum_closed_form("B", SequenceParams(2), 3)
        assert (report.lhs, report.rhs, report.holds) == (42, 42, True)

    def test_b_degenerate_k1(self):
        report = sum_closed_form("B", SequenceParams(1), 4)
        assert (report.lhs, report.rhs, report.holds) == (40, 40, True)

    def test_c_example_with_corrected_constant(self):
        # 1+3+17+99 = 120 = (-5*99 + 17 + (4-6)) / -4
        report = sum_closed_form("C", SequenceParams(2), 3)
        assert (report.lhs, report.rhs, report.holds) == (120, 120, True)

    @pytest.mark.parametrize("k", range(1, 13))
    @pytest.mark.parametrize("seq", ["B", "C"])
    def test_closed_form_is_integral_on_domain(self, seq, k):
        # the division by -2k must always be exact
        for n in range(1, 61):
            report = sum_closed_form(seq, SequenceParams(k), n)
            assert not isinstance(report.rhs, Fraction)
            assert report.holds


class TestAdditionAndDoubling:
    def test_addition_example(self):
        report = addition_formula(SequenceParams(2), 3, 2)
        assert (report.lhs, report.rhs, report.holds) == (1189, 1189, True)

    def test_addition_n_zero(self):
        report = addition_formula(SequenceParams(6), 9, 0)
        assert report.holds

    def test_addition_k3(self):
        report = addition_formula(SequenceParams(3), 2, 2)
        assert report.lhs == 693 and report.holds

    def test_addition_bad_m(self):
        with pytest.raises(ValueError):
            addition_formula(SequenceParams(2), 0, 3)

    def test_doubling_example(self):
        report = doubling_formulas(SequenceParams(2), 2)
        assert (report.lhs, report.rhs, report.holds) == (204, 204, True)

    def test_doubling_k1(self):
        report = doubling_formulas(SequenceParams(1), 3)
        assert report.lhs == 243 and report.holds

    def test_doubling_n1(self):
        report = doubling_formulas(SequenceParams(8), 1)
        assert report.holds

    def test_doubling_bad_n(self):
        with pytest.raises(ValueError):
            doubling_formulas(SequenceParams(2), 0)


class TestPowerSumAndCFromB:
    def test_power_sum_example(self):
        report = power_sum_identity(SequenceParams(2), 2)
        assert (report.lhs, report.rhs, report.holds) == (34, 34, True)

    def test_power_sum_n1(self):
        report = power_sum_identity(SequenceParams(7), 1)
        assert report.lhs == 21 and report.holds

    def test_power_sum_k3_n3(self):
        # alpha^3 + beta^3 = (3k)^3 - 3(k-1)(3k) = 675 = B_4 - 2*B_2
        report = power_sum_identity(SequenceParams(3), 3)
        assert (report.lhs, report.rhs, report.holds) == (675, 675, True)

    def test_c_from_b_n0(self):
        report = c_from_b(SequenceParams(11), 0)
        assert report.lhs == 1 and report.holds

    def test_c_from_b_examples(self):
        assert c_from_b(SequenceParams(2), 3).lhs == 99
        assert c_from_b(SequenceParams(3), 2).lhs == 25
        assert c_from_b(SequenceParams(3), 2).holds


class TestFullSweep:
    @pytest.mark.parametrize("name", IDENTITY_NAMES)
    @pytest.mark.parametrize("k", range(1, 13))
    def test_box_60_everything_holds(self, name, k):
        outcome = CATALOG[name](SequenceParams(k), 60)
        assert outcome.failed == 0, outcome.violations[:3]
        assert outcome.hypothesis_not_met == 0
        assert outcome.held == outcome.checked

    def test_sweep_counts_match_domain_enumeration(self):
        expected = {
            "catalan-b": lambda m: sum(n + 1 for n in range(1, m + 1)),
            "catalan-c": lambda m: sum(n + 1 for n in range(1, m + 1)),
            "cassini-b": lambda m: m,
            "cassini-c": lambda m: m,
            "docagne-b": lambda m: (m + 1) * (m + 2) // 2,
            "docagne-c": lambda m: (m + 1) * (m + 2) // 2,
            "vajda-1": lambda m: (m + 1) ** 3,
            "vajda-2": lambda m: sum(x * (x + 1) // 2 for x in range(1, m + 1)),
            "sum-b": lambda m: m,
            "sum-c": lambda m: m,
            "addition": lambda m: m * (m + 1),
            "doubling": lambda m: m,
            "power-sum": lambda m: m,
            "c-from-b": lambda m: m + 1,
            "matrix-b": lambda m: 4 * m,
            "matrix-c": lambda m: 4 * m,
            "ar-commute": lambda m: 4,
            "index-divisibility": lambda m: sum(m // d for d in range(1, m + 1)),
            "coprime-norm-b": lambda m: m,
            "coprime-norm-c": lambda m: m,
            "consecutive-gcd-b": lambda m: m,
            "consecutive-gcd-c": lambda m: m,
            "b-c-coprime": lambda m: m + 1,
            "strong-gcd": lambda m: m * (m + 1) // 2,
        }
        assert list(expected) == list(CATALOG)
        # k = 4 breaks the residue hypothesis: those checks still count
        for k in (3, 4):
            for m in (1, 12):
                for name, count in expected.items():
                    assert CATALOG[name](SequenceParams(k), m).checked == count(m), (name, k, m)

    @pytest.mark.parametrize("k", [2, 4])
    def test_planted_error_reported_as_by_evaluators(self, planted_b7, k):
        # B_7 off by one in every term table: each identity row's sweep must
        # fail exactly where the evaluators (or, for the matrix rows, a
        # one-element row) fail on the same context, with the same sides
        params = SequenceParams(k)
        clean = set()
        for name in IDENTITY_NAMES:
            sweep = CATALOG[name]
            ctx = TermContext(params).ensure(sweep.size(12))
            expected = []
            for *lead, last in sweep.domain(12):
                for x in last:
                    point = dict(zip(sweep.keys, (*lead, x)))
                    if name in EVALUATORS:
                        report = EVALUATORS[name](params, ctx, **point)
                        if not report.holds:
                            expected.append((report.inputs, report.lhs, report.rhs))
                    else:
                        (lhs,), (rhs,) = sweep.sides(ctx, *lead, range(x, x + 1))
                        if lhs != rhs:
                            expected.append(({"k": k, **point}, lhs, rhs))
            outcome = sweep(params, 12)
            assert outcome.failed == len(expected), name
            assert outcome.held == outcome.checked - len(expected), name
            assert [(v.inputs, v.lhs, v.rhs) for v in outcome.violations] == expected, name
            if not expected:
                clean.add(name)
        # only the rows that never read B miss the planted error
        assert clean == {"cassini-c", "sum-c", "matrix-c", "ar-commute"}

    @pytest.mark.parametrize("k", [2, 4])
    def test_planted_error_in_gcd_rows_reported_as_by_checks(self, planted_b7, k):
        # each gcd row must fail exactly where its check_* theorem fails per
        # point on the same context, with equal reports; at k = 4 the residue
        # hypothesis fails, so every check counts as hypothesis_not_met and
        # every failure goes to the expected-failure pool; max index 14 puts
        # (m, n) = (7, 14) in the index-divisibility box
        params = SequenceParams(k)
        failing = set()
        for name, check in GCD_CHECKS.items():
            sweep = CATALOG[name]
            ctx = TermContext(params).ensure(sweep.size(14))
            expected = []
            for *lead, last in sweep.domain(14):
                for x in last:
                    report = check(params, ctx, **dict(zip(sweep.keys, (*lead, x))))
                    if not report.holds:
                        expected.append(report)
            outcome = sweep(params, 14)
            if name == "index-divisibility" or residue_hypothesis(params):
                assert outcome.violations == expected, name
                assert outcome.failed == len(expected), name
                assert outcome.held == outcome.checked - len(expected), name
                assert outcome.hypothesis_not_met == 0 and not outcome.expected_failures
            else:
                assert outcome.expected_failures == expected, name
                assert outcome.failed == 0 and not outcome.violations, name
                assert outcome.hypothesis_not_met == outcome.checked, name
                assert outcome.held == 0, name
            if expected:
                failing.add(name)
        # at k = 2, gcd(1 - k, x) = 1 for every x, and the C rows never read B
        assert failing == (set(GCD_CHECKS) if k == 4 else
                           {"index-divisibility", "consecutive-gcd-b", "b-c-coprime",
                            "strong-gcd"})

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted({**EVALUATORS, **GCD_CHECKS})),
           k=st.integers(1, 12), max_index=st.integers(1, 30))
    def test_rows_match_evaluators_at_random(self, data, name, k, max_index):
        # a sweep row and the single-shot evaluator at one in-domain point of
        # it give the same two sides
        sweep, params = CATALOG[name], SequenceParams(k)
        ctx = TermContext(params).ensure(sweep.size(max_index))
        *lead, last = data.draw(st.sampled_from(list(sweep.domain(max_index))))
        x = data.draw(st.sampled_from(last))
        lhs, rhs = sweep.sides(ctx, *lead, last)
        point = dict(zip(sweep.keys, (*lead, x)))
        if name in EVALUATORS:
            report = EVALUATORS[name](params, ctx, **point)
            got = report.lhs, report.rhs
        else:
            report = GCD_CHECKS[name](params, ctx, **point)
            got = report.computed_gcd, report.expected
        assert got == (lhs[last.index(x)], rhs[last.index(x)])

    def test_sweeps_agree_with_evaluators(self):
        # sweeps call each *_sides function a row at a time, evaluators one
        # point at a time; pin the one-point path at random in-domain tuples
        params = SequenceParams(4)
        ctx = TermContext(params)
        rng = random.Random(99)
        for _ in range(200):
            n, i, j = (rng.randint(0, 25) for _ in range(3))
            assert vajda(1, params, n, i=i, j=j, ctx=ctx).holds
            m = rng.randint(1, 25)
            nn = rng.randint(0, m - 1)
            ell = rng.randint(0, m - nn - 1)
            assert vajda(2, params, nn, m=m, ell=ell, ctx=ctx).holds
            r = rng.randint(0, n) if n >= 1 else 0
            if n >= 1:
                assert catalan("B", params, n, r, ctx=ctx).holds
                assert catalan("C", params, n, r, ctx=ctx).holds
                assert docagne("C", params, m, nn, ctx=ctx).holds
                assert addition_formula(params, m, nn, ctx=ctx).holds


class TestDeepSweep:
    """n up to 1000; the second index of the two-index identities is sampled."""

    @pytest.mark.parametrize("k", range(1, 6))
    def test_catalan_cassini_addition_doubling_deep(self, k):
        params = SequenceParams(k)
        ctx = TermContext(params).ensure(2002)
        rng = random.Random(1000 + k)
        for n in range(1, 1001):
            assert cassini("B", params, n, ctx=ctx).holds
            assert doubling_formulas(params, n, ctx=ctx).holds
            for r in {0, 1, n // 2, n, rng.randint(0, n)}:
                assert catalan("B", params, n, r, ctx=ctx).holds
            for m in {1, n, rng.randint(1, n)}:
                assert addition_formula(params, m, n, ctx=ctx).holds
