import random
import re
import tracemalloc
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from balseq import divisibility, identities
from balseq.divisibility import residue_hypothesis
from balseq.identities import (
    TermContext,
    _addition,
    _cassini,
    _catalan,
    _doubling,
    _vajda1,
    _vajda2,
)
from balseq.ring import SequenceParams
from balseq.verify import CATALOG

from conftest import oracle_b

IDENTITY_NAMES = [
    "catalan-b", "catalan-c", "cassini-b", "cassini-c", "docagne-b", "docagne-c",
    "vajda-1", "vajda-2", "sum-b", "sum-c", "addition", "doubling", "power-sum",
    "c-from-b", "matrix-b", "matrix-c", "ar-commute",
]

# the gcd theorem rows, each with a hypothesis
GCD_NAMES = [name for name in CATALOG if name not in IDENTITY_NAMES]


class TestCatalan:
    def test_b_example(self):
        # k=3, n=3, r=1: 693*9 - 79^2 = -4 = -(k-1)^2 * B_1^2
        report = CATALOG["catalan-b"].at(SequenceParams(3), n=3, r=1)
        assert (report.lhs, report.rhs, report.holds) == (-4, -4, True)

    def test_r_zero_degenerate(self):
        report = CATALOG["catalan-b"].at(SequenceParams(7), n=5, r=0)
        assert report.lhs == report.rhs == 0 and report.holds

    @pytest.mark.parametrize("seq", ["B", "C"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_r_zero_in_domain(self, seq, k):
        # both sides vanish at r = 0; the C side reads (k-1)^(n+1), one past n + r
        for n in range(1, 6):
            report = CATALOG[f"catalan-{seq.lower()}"].at(SequenceParams(k), n=n, r=0)
            assert report.lhs == report.rhs == 0 and report.holds, n

    def test_c_example(self):
        # k=2, n=2, r=1: 99*3 - 17^2 = 8 = 8*(k-1)^2*B_1^2
        report = CATALOG["catalan-c"].at(SequenceParams(2), n=2, r=1)
        assert (report.lhs, report.rhs, report.holds) == (8, 8, True)

    def test_r_beyond_n_rejected(self):
        with pytest.raises(ValueError, match=r"catalan-b\(n=3, r=4\) is outside the domain"):
            CATALOG["catalan-b"].at(SequenceParams(2), n=3, r=4)

    def test_inputs_recorded(self):
        report = CATALOG["catalan-b"].at(SequenceParams(3), n=3, r=1)
        assert report.name == "catalan-b"
        assert report.inputs == {"k": 3, "n": 3, "r": 1}
        assert report.hypothesis_met


class TestCassini:
    def test_b_example(self):
        report = CATALOG["cassini-b"].at(SequenceParams(3), n=3)
        assert (report.lhs, report.rhs, report.holds) == (4, 4, True)

    def test_b_degenerate_k1(self):
        # (k-1)^{n-1} = 0 for n >= 2 at k=1
        report = CATALOG["cassini-b"].at(SequenceParams(1), n=5)
        assert report.lhs == report.rhs == 0 and report.holds

    def test_c_example(self):
        report = CATALOG["cassini-c"].at(SequenceParams(2), n=1)
        assert (report.lhs, report.rhs, report.holds) == (-8, -8, True)

    def test_cross_derivation_with_catalan(self):
        # Cassini at n is the r=1 Catalan case with the sign flipped
        for k in (2, 3, 5, 8):
            for n in range(1, 30):
                cas = CATALOG["cassini-b"].at(SequenceParams(k), n=n)
                cat = CATALOG["catalan-b"].at(SequenceParams(k), n=n, r=1)
                assert cas.lhs == -cat.lhs


class TestDocagne:
    def test_b_example(self):
        # k=2, m=3, n=2: 35*35 - 6*204 = 1 = B_1
        report = CATALOG["docagne-b"].at(SequenceParams(2), m=3, n=2)
        assert (report.lhs, report.rhs, report.holds) == (1, 1, True)

    def test_m_equal_n(self):
        report = CATALOG["docagne-b"].at(SequenceParams(9), m=4, n=4)
        assert report.lhs == report.rhs == 0 and report.holds

    def test_c_example(self):
        # k=3, m=2, n=1: 25*25 - 3*219 = -32 = -8*(k-1)^2*B_1
        report = CATALOG["docagne-c"].at(SequenceParams(3), m=2, n=1)
        assert (report.lhs, report.rhs, report.holds) == (-32, -32, True)

    def test_m_below_n_rejected(self):
        with pytest.raises(ValueError, match=r"docagne-b\(m=2, n=3\) is outside the domain"):
            CATALOG["docagne-b"].at(SequenceParams(2), m=2, n=3)


class TestVajda:
    def test_form1_example(self):
        # k=3, n=1, i=1, j=2: 9*79 - 693 = 18 = (k-1)*B_1*B_2
        report = CATALOG["vajda-1"].at(SequenceParams(3), n=1, i=1, j=2)
        assert (report.lhs, report.rhs, report.holds) == (18, 18, True)

    def test_form1_i_zero(self):
        report = CATALOG["vajda-1"].at(SequenceParams(5), n=3, i=0, j=4)
        assert report.lhs == report.rhs == 0 and report.holds

    def test_form2_example(self):
        # k=3, n=1, m=4, l=1: B_2*B_3 - B_1*B_4 = 18 = (k-1)*B_2*B_1
        report = CATALOG["vajda-2"].at(SequenceParams(3), n=1, m=4, ell=1)
        assert (report.lhs, report.rhs, report.holds) == (18, 18, True)

    def test_form2_domain_violation_rejected(self):
        with pytest.raises(ValueError, match=r"vajda-2\(n=2, m=3, ell=1\) is outside the domain"):
            CATALOG["vajda-2"].at(SequenceParams(3), n=2, m=3, ell=1)

    def test_missing_and_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match=r"vajda-1\(n=1, i=1\) takes i, j, n"):
            CATALOG["vajda-1"].at(SequenceParams(3), n=1, i=1)
        with pytest.raises(ValueError, match=r"vajda-2\(n=1, i=1, j=1\) takes n, m, ell"):
            CATALOG["vajda-2"].at(SequenceParams(3), n=1, i=1, j=1)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_forms_specialize_the_first_vajda_form(self, k):
        # vajda-2 at (n, m, ell) has the sides of vajda-1 at (i, j, n) =
        # (ell, m - n - ell, n), and catalan-b at (n, r) the negated sides of
        # vajda-1 at (r, r, n - r); every index here is at most 12
        params, vajda1, points = SequenceParams(k), CATALOG["vajda-1"], 0
        for m in range(1, 13):
            for n in range(m):
                for ell in range(m - n):
                    two = CATALOG["vajda-2"].at(params, n=n, m=m, ell=ell)
                    one = vajda1.at(params, i=ell, j=m - n - ell, n=n)
                    assert (two.lhs, two.rhs) == (one.lhs, one.rhs), (n, m, ell)
                    points += 1
        for n in range(1, 13):
            for r in range(n + 1):
                catalan = CATALOG["catalan-b"].at(params, n=n, r=r)
                one = vajda1.at(params, i=r, j=r, n=n - r)
                assert (catalan.lhs, catalan.rhs) == (-one.lhs, -one.rhs), (n, r)
                points += 1
        assert points == 364 + 90


class TestSumClosedForm:
    def test_b_example(self):
        report = CATALOG["sum-b"].at(SequenceParams(2), n=3)
        assert (report.lhs, report.rhs, report.holds) == (42, 42, True)

    def test_b_degenerate_k1(self):
        report = CATALOG["sum-b"].at(SequenceParams(1), n=4)
        assert (report.lhs, report.rhs, report.holds) == (40, 40, True)

    def test_c_example_with_corrected_constant(self):
        # 1+3+17+99 = 120 = (-5*99 + 17 + (4-6)) / -4
        report = CATALOG["sum-c"].at(SequenceParams(2), n=3)
        assert (report.lhs, report.rhs, report.holds) == (120, 120, True)

    @pytest.mark.parametrize("k", range(1, 13))
    @pytest.mark.parametrize("seq", ["B", "C"])
    def test_closed_form_is_integral_on_domain(self, seq, k):
        # the division by -2k must always be exact
        for n in range(1, 61):
            report = CATALOG[f"sum-{seq.lower()}"].at(SequenceParams(k), n=n)
            assert not isinstance(report.rhs, Fraction)
            assert report.holds


class TestAdditionAndDoubling:
    def test_addition_example(self):
        report = CATALOG["addition"].at(SequenceParams(2), m=3, n=2)
        assert (report.lhs, report.rhs, report.holds) == (1189, 1189, True)

    def test_addition_n_zero(self):
        report = CATALOG["addition"].at(SequenceParams(6), m=9, n=0)
        assert report.holds

    def test_addition_k3(self):
        report = CATALOG["addition"].at(SequenceParams(3), m=2, n=2)
        assert report.lhs == 693 and report.holds

    def test_addition_bad_m(self):
        with pytest.raises(ValueError):
            CATALOG["addition"].at(SequenceParams(2), m=0, n=3)

    def test_doubling_example(self):
        report = CATALOG["doubling"].at(SequenceParams(2), n=2)
        assert (report.lhs, report.rhs, report.holds) == (204, 204, True)

    def test_doubling_k1(self):
        report = CATALOG["doubling"].at(SequenceParams(1), n=3)
        assert report.lhs == 243 and report.holds

    def test_doubling_n1(self):
        report = CATALOG["doubling"].at(SequenceParams(8), n=1)
        assert report.holds

    def test_doubling_bad_n(self):
        with pytest.raises(ValueError):
            CATALOG["doubling"].at(SequenceParams(2), n=0)


class TestPowerSumAndCFromB:
    def test_power_sum_example(self):
        report = CATALOG["power-sum"].at(SequenceParams(2), n=2)
        assert (report.lhs, report.rhs, report.holds) == (34, 34, True)

    def test_power_sum_n1(self):
        report = CATALOG["power-sum"].at(SequenceParams(7), n=1)
        assert report.lhs == 21 and report.holds

    def test_power_sum_k3_n3(self):
        # alpha^3 + beta^3 = (3k)^3 - 3(k-1)(3k) = 675 = B_4 - 2*B_2
        report = CATALOG["power-sum"].at(SequenceParams(3), n=3)
        assert (report.lhs, report.rhs, report.holds) == (675, 675, True)

    def test_c_from_b_n0(self):
        report = CATALOG["c-from-b"].at(SequenceParams(11), n=0)
        assert report.lhs == 1 and report.holds

    def test_c_from_b_examples(self):
        assert CATALOG["c-from-b"].at(SequenceParams(2), n=3).lhs == 99
        assert CATALOG["c-from-b"].at(SequenceParams(3), n=2).lhs == 25
        assert CATALOG["c-from-b"].at(SequenceParams(3), n=2).holds


def test_context_seq_names_b_or_c():
    ctx = TermContext(SequenceParams(3)).ensure(4)
    assert ctx.seq("B") is ctx.b and ctx.seq("C") is ctx.c
    with pytest.raises(ValueError, match=r"^seq must be 'B' or 'C', got 'b'$"):
        ctx.seq("b")


@pytest.mark.parametrize("params", [5, None, (5,), "5"])
def test_context_takes_sequence_params(params):
    message = rf"^TermContext takes a SequenceParams, got {re.escape(repr(params))}$"
    with pytest.raises(ValueError, match=message):
        TermContext(params)
    # so does every row, through the context it builds
    with pytest.raises(ValueError, match=message):
        CATALOG["cassini-b"](params, 10)
    with pytest.raises(ValueError, match=message):
        CATALOG["cassini-b"].at(params, n=3)
    with pytest.raises(ValueError, match=message):
        divisibility.check_strong_gcd(params, 2, 4)


@pytest.mark.parametrize("hi", ["3", -1, 2.0, True, None])
def test_ensure_takes_an_int_index(hi):
    ctx = TermContext(SequenceParams(3))
    with pytest.raises(ValueError, match=r"^ensure takes an int index >= 0, got "):
        ctx.ensure(hi)
    assert ctx.ensure(0).b == [0] and ctx.ensure(2).b == [0, 1, 9]


@pytest.mark.parametrize("module, names", [
    (identities, {"TermContext", "Report", "Sides", "SweepOutcome", "merge_outcomes"}),
    (divisibility, {"residue_hypothesis", "check_index_divisibility", "check_coprime_norm",
                    "check_consecutive_coprime", "check_b_c_coprime", "check_strong_gcd"}),
], ids=["identities", "divisibility"])
def test_public_surface(module, names):
    # the side kernels are private to their catalog rows, whose sweep and
    # at are the public ways to evaluate an identity or a theorem
    public = {name for name, value in vars(module).items()
              if not name.startswith("_") and isinstance(value, (type, types.FunctionType))
              and value.__module__ == module.__name__}
    assert public == names


class TestFullSweep:
    @pytest.mark.parametrize("name", IDENTITY_NAMES)
    @pytest.mark.parametrize("k", range(1, 13))
    def test_box_60_everything_holds(self, name, k):
        outcome = CATALOG[name](SequenceParams(k), 60)
        assert outcome.failed == 0, outcome.failures[:3]
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

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_planted_error_reported_as_by_evaluators(self, planted_b7, k):
        # B_7 off by one in every term table: each identity row's sweep must
        # fail exactly where its single points fail, each on term tables of
        # its own, with the same sides; k = 1 has beta = 0, so (k-1)^n = 0^n
        # on the rhs
        params = SequenceParams(k)
        clean = set()
        for name in IDENTITY_NAMES:
            sweep = CATALOG[name]
            expected = []
            for *lead, last in sweep.domain(12):
                for x in last:
                    report = sweep.at(params, **dict(zip(sweep.keys, (*lead, x))))
                    if not report.holds:
                        expected.append((report.inputs, report.lhs, report.rhs))
            outcome = sweep(params, 12)
            assert outcome.failed == len(expected), name
            assert outcome.held == outcome.checked - len(expected), name
            violations = [r for r in outcome.failures if r.hypothesis_met is True]
            assert [(v.inputs, v.lhs, v.rhs) for v in violations] == expected, name
            if not expected:
                clean.add(name)
        # only the rows that never read B miss the planted error; at k = 1
        # catalan-c and docagne-c read B only times (k-1)^(n+1) = 0
        assert clean == ({"cassini-c", "sum-c", "matrix-c", "ar-commute"}
                         | ({"catalan-c", "docagne-c"} if k == 1 else set()))

    @pytest.mark.parametrize("k", [2, 4])
    def test_planted_error_in_gcd_rows_reported_as_by_checks(self, planted_b7, k):
        # each gcd row must fail exactly where its single points fail, with
        # equal reports; at k = 4 the residue hypothesis fails,
        # so every check counts as hypothesis_not_met and every failure goes
        # to the expected-failure pool; max index 14 puts (m, n) = (7, 14) in
        # the index-divisibility box
        params = SequenceParams(k)
        failing = set()
        for name in GCD_NAMES:
            sweep = CATALOG[name]
            expected = []
            for *lead, last in sweep.domain(14):
                for x in last:
                    report = sweep.at(params, **dict(zip(sweep.keys, (*lead, x))))
                    if not report.holds:
                        expected.append(report)
            outcome = sweep(params, 14)
            violations = [r for r in outcome.failures if r.hypothesis_met is True]
            expected_failures = [r for r in outcome.failures if r.hypothesis_met is False]
            if name == "index-divisibility" or residue_hypothesis(params):
                assert violations == expected, name
                assert outcome.failed == len(expected), name
                assert outcome.held == outcome.checked - len(expected), name
                assert outcome.hypothesis_not_met == 0 and not expected_failures
            else:
                assert expected_failures == expected, name
                assert outcome.failed == 0 and not violations, name
                assert outcome.hypothesis_not_met == outcome.checked, name
                assert outcome.held == 0, name
            if expected:
                failing.add(name)
        # at k = 2, gcd(1 - k, x) = 1 for every x, and the C rows never read B
        assert failing == (set(GCD_NAMES) if k == 4 else
                           {"index-divisibility", "consecutive-gcd-b", "b-c-coprime",
                            "strong-gcd"})

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(CATALOG)),
           k=st.integers(1, 12), max_index=st.integers(1, 30))
    def test_rows_match_evaluators_at_random(self, data, name, k, max_index):
        # a sweep row and the row's single point (at) at one in-domain point
        # of it give the same two sides
        sweep, params = CATALOG[name], SequenceParams(k)
        ctx = sweep.context(params, max_index)
        *lead, last = data.draw(st.sampled_from(list(sweep.domain(max_index))))
        x = data.draw(st.sampled_from(last))
        lhs, rhs = sweep.sides(ctx, *lead, last)
        report = sweep.at(params, **dict(zip(sweep.keys, (*lead, x))))
        assert (report.lhs, report.rhs) == (lhs[last.index(x)], rhs[last.index(x)])

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(data=st.data(), k=st.integers(1, 12), max_index=st.integers(1, 30))
    def test_vajda1_rows_on_the_diagonal_table_match_the_evaluator(self, data, k, max_index):
        # a vajda-1 row read off the context the sweep builds, diagonal table
        # included, gives at each n the sides of the row's single point,
        # which builds no table
        sweep, params = CATALOG["vajda-1"], SequenceParams(k)
        ctx = sweep.context(params, max_index)
        assert len(ctx.diagonals) == 2 * max_index + 1
        i, j, ns = data.draw(st.sampled_from(list(sweep.domain(max_index))))
        lhs, rhs = sweep.sides(ctx, i, j, ns)
        got = [(r.lhs, r.rhs) for r in (sweep.at(params, n=n, i=i, j=j) for n in ns)]
        assert got == list(zip(lhs, rhs))

    def test_single_shot_vajda_builds_no_diagonal_table(self, monkeypatch):
        # one point reads two products, each computed from b; a table for
        # n = 3000 would hold about 22 million of them
        def refuse(ctx, widths):
            raise AssertionError("diagonal table built")

        reads = []
        diagonal = TermContext.diagonal

        def spy(ctx, d, lo, hi):
            reads.append((len(ctx.diagonals), hi - lo))
            return diagonal(ctx, d, lo, hi)

        monkeypatch.setattr(TermContext, "share_diagonals", refuse)
        monkeypatch.setattr(TermContext, "diagonal", spy)
        assert CATALOG["vajda-1"].at(SequenceParams(12), n=3000, i=3, j=4).holds
        assert reads == [(0, 1)] * 2

    def test_reads_beyond_the_diagonal_table_compute(self):
        # a read the table does not cover computes its products: never a
        # short slice, which would lower the sweep's checked count
        params = SequenceParams(5)
        ctx = CATALOG["vajda-1"].context(params, 4)   # b[0..12], diagonals 0..8
        b = ctx.b
        assert [len(diagonal) for diagonal in ctx.diagonals] == [9, 8, 7, 6, 5, 5, 5, 5, 5]

        def computed(d, lo, hi):
            return [b[a] * b[a + d] for a in range(lo, hi)]

        def evaluated(i, j, ns):
            vajda1 = CATALOG["vajda-1"]
            return [(r.lhs, r.rhs) for r in (vajda1.at(params, n=n, i=i, j=j) for n in ns)]

        # past the height: diagonal 10 of a table with diagonals 0..8
        assert ctx.diagonal(10, 0, 3) == computed(10, 0, 3)
        lhs, rhs = _vajda1(ctx, 0, 10, range(3))
        assert list(zip(lhs, rhs)) == evaluated(0, 10, range(3))
        # past the width: diagonals 2 and 4 end at a = 6 and a = 4
        assert ctx.diagonal(2, 6, 10) == computed(2, 6, 10)
        lhs, rhs = _vajda1(ctx, 1, 3, range(5, 9))
        assert list(zip(lhs, rhs)) == evaluated(1, 3, range(5, 9))
        # past the width of a table cut to a = 0..2 under a longer b
        with pytest.raises(TypeError):  # the tables are not arguments
            TermContext(params, b=[])
        narrow = TermContext(params)
        narrow.b, narrow.diagonals = b, [row[:3] for row in ctx.diagonals]
        assert narrow.diagonal(3, 1, 8) == computed(3, 1, 8)
        assert narrow.diagonal(3, 1, 3) == computed(3, 1, 3)
        # growing b drops the table, so no diagonal is narrower than it reads
        ctx.ensure(30)
        assert ctx.diagonals == [] and len(ctx.b) == 31
        with pytest.raises(IndexError):   # past b itself: no short list either
            ctx.diagonal(3, 20, 29)
        lhs, rhs = _vajda1(ctx, 8, 8, range(15))
        assert len(lhs) == len(rhs) == 15 and lhs == rhs == [
            CATALOG["vajda-1"].at(params, n=n, i=8, j=8).lhs for n in range(15)]

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data(), k=st.integers(1, 12), max_index=st.integers(1, 12))
    def test_vajda1_rows_match_oracle_products(self, data, k, max_index):
        # each side against products of conftest's recurrence terms, on the
        # context the sweep builds, at n windows that start above 0 and may
        # run past the table's width or height (b reaches 3 * max_index)
        top = 3 * max_index
        ctx = CATALOG["vajda-1"].context(SequenceParams(k), max_index)
        bo = oracle_b(k, top)
        i = data.draw(st.integers(0, top - 1))
        j = data.draw(st.integers(0, top - 1 - i))
        lo = data.draw(st.integers(1, top - i - j))
        ns = range(lo, data.draw(st.integers(lo, top - i - j + 1)))
        lhs, rhs = _vajda1(ctx, i, j, ns)
        assert lhs == [bo[n + i] * bo[n + j] - bo[n] * bo[n + i + j] for n in ns]
        assert rhs == [(k - 1) ** n * bo[i] * bo[j] for n in ns]
        assert _vajda1(ctx, i, j, range(lo, lo)) == ([], [])

    def test_vajda1_at_k1_takes_zero_to_the_zero_as_one(self):
        # beta = 0 at k = 1: the rhs is B_i*B_j at n = 0 and 0 after it
        ctx = CATALOG["vajda-1"].context(SequenceParams(1), 6)
        bo = oracle_b(1, 18)
        for i, j in ((0, 0), (2, 5), (6, 6)):
            lhs, rhs = _vajda1(ctx, i, j, range(7))
            assert rhs == [bo[i] * bo[j]] + [0] * 6
            assert lhs == [bo[n + i] * bo[n + j] - bo[n] * bo[n + i + j] for n in range(7)]

    def test_vajda1_sweep_peak_memory(self):
        # the diagonal table holds about 2.5 M^2 products; the rectangular
        # pair table it replaced, 6 M^2, peaked at 12.1 MiB here
        tracemalloc.start()
        try:
            outcome = CATALOG["vajda-1"](SequenceParams(12), 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.held == outcome.checked == 101 ** 3
        assert peak < 8 << 20

    def test_sweeps_agree_with_evaluators(self):
        # sweeps call each side kernel a row at a time, at one point at
        # a time; pin the one-point path at random in-domain tuples
        params = SequenceParams(4)
        rng = random.Random(99)
        for _ in range(200):
            n, i, j = (rng.randint(0, 25) for _ in range(3))
            assert CATALOG["vajda-1"].at(params, n=n, i=i, j=j).holds
            m = rng.randint(1, 25)
            nn = rng.randint(0, m - 1)
            ell = rng.randint(0, m - nn - 1)
            assert CATALOG["vajda-2"].at(params, n=nn, m=m, ell=ell).holds
            r = rng.randint(0, n) if n >= 1 else 0
            if n >= 1:
                assert CATALOG["catalan-b"].at(params, n=n, r=r).holds
                assert CATALOG["catalan-c"].at(params, n=n, r=r).holds
                assert CATALOG["docagne-c"].at(params, m=m, n=nn).holds
                assert CATALOG["addition"].at(params, m=m, n=nn).holds


def _tables(k: int, top: int):
    """The B tables b[0..top] the mirrored-row tests read at k: the clean
    one, then each entry corrupted in turn by +1 and by x7 (adding 1 is a
    weak mutation where it keeps a product's factors coprime)."""
    clean = oracle_b(k, top)
    yield clean
    for index in range(top + 1):
        for corrupt in (lambda v: v + 1, lambda v: 7 * v):
            table = list(clean)
            table[index] = corrupt(table[index])
            yield table


def _fresh(params: SequenceParams, b: list[int], max_index: int) -> TermContext:
    """A new context on table b, with the product table the vajda-1 sweep
    at max_index shares, built from b."""
    ctx = TermContext(params).ensure(len(b) - 1)
    ctx.b = b
    ctx.share_diagonals(CATALOG["vajda-1"].diagonals(max_index))
    return ctx


class TestMirroredVajdaRows:
    """The symmetry the vajda sweeps reuse: vajda-1 rows (i, j) and (j, i),
    and vajda-2 points ell and m - n - ell, have equal sides on any table,
    so a sweep that computes one of them checks the same equation."""

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_vajda1_mirrored_rows_equal_on_fresh_contexts(self, k):
        params, m = SequenceParams(k), 8
        rows = [(i, j, ns) for i, j, ns in CATALOG["vajda-1"].domain(m) if i < j]
        assert len(rows) == m * (m + 1) // 2
        for b in _tables(k, 3 * m):
            for i, j, ns in rows:
                assert (_vajda1(_fresh(params, b, m), i, j, ns)
                        == _vajda1(_fresh(params, b, m), j, i, ns)), (b, i, j)

    def test_vajda1_domain_puts_mirrors_side_by_side(self):
        rows = [(i, j) for i, j, _ in CATALOG["vajda-1"].domain(5)]
        assert sorted(rows) == [(i, j) for i in range(6) for j in range(6)]
        for (i, j), after in zip(rows, rows[1:] + [None]):
            if i < j:
                assert after == (j, i)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_full_vajda2_rows_equal_their_points(self, k, monkeypatch):
        params, m = SequenceParams(k), 8
        mirrored, fills = identities._mirrored, []

        def spy(half, t):
            fills.append(t)
            return mirrored(half, t)

        monkeypatch.setattr(identities, "_mirrored", spy)
        for b in _tables(k, m):
            ctx = TermContext(params).ensure(m)
            ctx.b = b
            for n, top, ells in CATALOG["vajda-2"].domain(m):
                assert ells == range(top - n)
                points = [_vajda2(ctx, n, top, range(ell, ell + 1)) for ell in ells]
                lhs, rhs = _vajda2(ctx, n, top, ells)
                assert (lhs, rhs) == ([p[0][0] for p in points], [p[1][0] for p in points])
        # both sides of every row with a mirrored pair (m - n >= 3) filled
        assert sorted(set(fills)) == list(range(3, m + 1))

    def test_single_points_never_reuse(self, monkeypatch):
        # Sides.at computes its one point: vajda-1 on a context holding no
        # row, vajda-2 without filling from a mirror; the sweeps do both
        params, m = SequenceParams(3), 6
        entries, fills, mirrored = [], [], identities._mirrored

        def vajda1_spy(ctx, i, j, ns):
            entries.append((ctx.row_key, (min(i, j), max(i, j), ns.start, ns.stop)))
            return _vajda1(ctx, i, j, ns)

        def fill_spy(half, t):
            fills.append(t)
            return mirrored(half, t)

        monkeypatch.setattr(identities, "_mirrored", fill_spy)
        vajda1 = CATALOG["vajda-1"]._replace(sides=vajda1_spy)
        for name, row in (("vajda-1", vajda1), ("vajda-2", CATALOG["vajda-2"])):
            for *lead, last in row.domain(m):
                for x in last:
                    assert row.at(params, **dict(zip(row.keys, (*lead, x)))).holds, name
        assert len(entries) == (m + 1) ** 3
        assert all(held is None for held, _ in entries)
        assert fills == []
        entries.clear()
        assert vajda1(params, m).held == (m + 1) ** 3
        assert sum(held == key for held, key in entries) == m * (m + 1) // 2
        assert CATALOG["vajda-2"](params, m).held == m * (m + 1) * (m + 2) // 6
        assert fills

    def test_growing_the_tables_drops_the_row(self):
        ctx = CATALOG["vajda-1"].context(SequenceParams(4), 3)
        sides = _vajda1(ctx, 1, 2, range(4))
        assert ctx.row_key == (1, 2, 0, 4) and ctx.row_sides == sides
        mirror = _vajda1(ctx, 2, 1, range(4))
        assert mirror is ctx.row_sides and mirror[0] is sides[0] and mirror[1] is sides[1]
        ctx.ensure(20)
        assert ctx.row_key is None and ctx.row_sides is None and ctx.diagonals == []

    def test_planted_failures_are_closed_under_the_mirror(self, planted_b7):
        outcome = CATALOG["vajda-1"](SequenceParams(2), 12)
        failing = {(r.inputs["i"], r.inputs["j"], r.inputs["n"]): (r.lhs, r.rhs)
                   for r in outcome.failures}
        assert failing and len(failing) == outcome.failed
        for (i, j, n), sides in failing.items():
            assert failing[j, i, n] == sides, (i, j, n)

    def test_points_outside_the_domain_are_refused(self):
        # a kernel checks nothing; its catalog row refuses such a point
        params = SequenceParams(5)
        for point in ({"i": -1, "j": 2, "n": 0}, {"i": 2, "j": -1, "n": 0},
                      {"i": 1, "j": 1, "n": -1}):
            with pytest.raises(ValueError, match=r"^vajda-1\(.*\) is outside the domain$"):
                CATALOG["vajda-1"].at(params, **point)
        for n, m, ell in ((-1, 4, 0), (1, 4, -1), (1, 4, 3), (2, 2, 0), (0, 5, -10**18)):
            with pytest.raises(ValueError, match=rf"^vajda-2\(n={n}, m={m}, ell={ell}\) is"
                                                 r" outside the domain$"):
                CATALOG["vajda-2"].at(params, n=n, m=m, ell=ell)
        # the points at the edges of those domains answer
        report = CATALOG["vajda-1"].at(params, i=0, j=3, n=0)
        assert (report.lhs, report.rhs, report.holds) == (0, 0, True)
        ctx = TermContext(params).ensure(10)
        lhs, rhs = _vajda2(ctx, 1, 4, range(3))
        assert _vajda2(ctx, 1, 4, range(2, 3)) == ([lhs[2]], [rhs[2]])
        report = CATALOG["vajda-2"].at(params, n=1, m=4, ell=2)
        assert (report.lhs, report.rhs) == (lhs[2], rhs[2])


class TestDeepSweep:
    """n up to 1000 on one shared TermContext, through the side kernels;
    the second index of the two-index identities is sampled."""

    @pytest.mark.parametrize("k", range(1, 6))
    def test_catalan_cassini_addition_doubling_deep(self, k):
        ctx = TermContext(SequenceParams(k)).ensure(2002)
        rng = random.Random(1000 + k)
        ns = range(1, 1001)
        for lhs, rhs in (_cassini(ctx, "B", ns), _doubling(ctx, ns)):
            assert lhs == rhs
        for n in ns:
            for r in {0, 1, n // 2, n, rng.randint(0, n)}:
                lhs, rhs = _catalan(ctx, "B", n, range(r, r + 1))
                assert lhs == rhs, (n, r)
            for m in {1, n, rng.randint(1, n)}:
                lhs, rhs = _addition(ctx, m, range(n, n + 1))
                assert lhs == rhs, (m, n)
