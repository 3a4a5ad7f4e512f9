"""Each documented discrepancy must stay load-bearing: the printed variant
fails on its box exactly where the entry says, and the implemented form
holds on the whole box."""

import math
from fractions import Fraction
from pathlib import Path

import pytest

from balseq.errata import ERRATA, render_document, sweep
from balseq.identities import TermContext
from balseq.ring import SequenceParams
from balseq.verify import CATALOG

from conftest import oracle_b, oracle_b_negative, oracle_c


@pytest.fixture(scope="module")
def sweeps():
    """Each swept erratum's (printed, verified) outcomes, swept once."""
    return {e.name: sweep(e) for e in ERRATA if e.rows is not None}


@pytest.fixture(scope="module")
def document():
    return render_document()


@pytest.mark.parametrize("erratum", ERRATA, ids=[e.name for e in ERRATA])
def test_erratum_is_conclusive(erratum, sweeps):
    if erratum.rows is None:
        refutes, line = erratum.counterexample()
        assert refutes and line
        return
    printed, verified = sweeps[erratum.name]
    assert printed.failed > 0, f"{erratum.name}: printed variant did not fail"
    assert verified.failed == 0, f"{erratum.name}: verified form failed"
    # the declared holds-where set, point by point over the box
    failing = {tuple(report.inputs.values()) for report in printed.failures
               if report.hypothesis_met is True}
    points = 0
    for k in erratum.ks:
        for *lead, last in erratum.rows[0].domain(erratum.max_index):
            for index in last:
                point = (k, *lead, index)
                assert erratum.holds_at(*point) == (point not in failing), point
                points += 1
    assert points == printed.checked == verified.checked
    assert printed.failed == len(failing)


def test_erratum_b1_column():
    b = oracle_b(1, 5)
    assert b == [0, 1, 3, 9, 27, 81]
    assert [3**n for n in range(2, 6)] != b[2:]


def test_erratum_b2_row_shift():
    b = oracle_b(2, 6)
    assert (b[4], b[5]) == (204, 1189)
    assert (b[5], b[6]) == (1189, 6930)  # the printed n=4, n=5 values


def test_erratum_c4_polynomial():
    for k in range(1, 13):
        c4 = oracle_c(k, 4)[4]
        assert 72 * k**3 - 8 * k**2 + 16 * k + 1 == c4
        assert 27 * k**3 - 8 * k**2 + 16 * k + 1 != c4  # off by 45k^3


def test_erratum_negative_index_sign_base():
    oracle = oracle_b_negative(3, 5)
    # printed base (1-k): wrong sign for odd n when k >= 3
    printed = {-n: Fraction(-oracle_b(3, 5)[n], (1 - 3) ** n) for n in range(1, 6)}
    implemented = {-n: Fraction(-oracle_b(3, 5)[n], (3 - 1) ** n) for n in range(1, 6)}
    assert implemented == {k: v for k, v in oracle.items() if k >= -5}
    assert printed[-1] == Fraction(1, 2) != oracle[-1] == Fraction(-1, 2)


def test_erratum_catalan_c_proof_term():
    ctx = TermContext(SequenceParams(3)).ensure(8)
    c, b, pk = ctx.c, ctx.b, ctx.pk
    n, r = 3, 1
    lhs = c[n + r] * c[n - r] - c[n] ** 2
    assert lhs == 8 * pk[n - r + 1] * b[r] ** 2 == 64
    assert lhs != 8 * pk[n - r + 1] * b[n] ** 2


def test_erratum_vajda2_proof_sign():
    b = oracle_b(3, 4)
    n, m, ell = 1, 4, 1
    lhs = b[n + ell] * b[m - ell] - b[n] * b[m]
    assert lhs == (3 - 1) ** n * b[m - n - ell] * b[ell] == 18
    assert lhs != (1 - 3) ** n * b[m - n - ell] * b[ell]


def test_erratum_sum_c_constant():
    k = 2
    c = oracle_c(k, 3)
    printed = Fraction(-(2 * k + 1) * c[3] + (k - 1) * c[2] + 4 * (1 - k), -2 * k)
    assert printed == Fraction(241, 2)      # not even an integer
    assert sum(c) == 120
    assert CATALOG["sum-c"].at(SequenceParams(k), n=3).rhs == 120


def test_erratum_gcd_product_rule():
    assert math.gcd(2, 2 * 2) == 2 != math.gcd(2, 2) * math.gcd(2, 2)


ENTRIES = {erratum.name: erratum for erratum in ERRATA}


@pytest.mark.parametrize("name, k, n", [
    ("b2-row-shift", 2, 6),  # its values are for n = 4 and 5
    ("c4-polynomial", 3, 5),  # its polynomials are for n = 4
])
def test_value_rows_refuse_an_index_without_a_value(name, k, n):
    erratum = ENTRIES[name]
    for row in erratum.rows:
        with pytest.raises(ValueError, match=rf"^{row.name}\(n={n}\) is outside the domain$"):
            row.at(SequenceParams(k), n=n)
        # a sweep past the entry's box checks the box's points, from n = 4
        assert row(SequenceParams(k), n).checked == len(range(4, erratum.max_index + 1))


@pytest.mark.parametrize("name, k", [
    ("b1-column", 2),  # its values are for k = 1
    ("b2-row-shift", 3),  # and these for k = 2
])
def test_value_rows_refuse_a_k_without_values(name, k):
    erratum = ENTRIES[name]
    message = rf"^{name} has values for k = {erratum.ks[0]} only, not k={k}$"
    for row in erratum.rows:
        with pytest.raises(ValueError, match=message):
            row.at(SequenceParams(k), n=4)
        with pytest.raises(ValueError, match=message):
            row(SequenceParams(k), erratum.max_index)
        assert row.at(SequenceParams(erratum.ks[0]), n=4).lhs == oracle_b(erratum.ks[0], 4)[4]


def test_negative_index_rows_refuse_k_1():
    # as engines.term_b_negative does: the backward recurrence divides by 1 - k
    message = r"^negative indices are undefined for k=1 \(division by k-1\)$"
    for row in ENTRIES["negative-index-sign-base"].rows:
        with pytest.raises(ValueError, match=message):
            row.at(SequenceParams(1), n=2)
        with pytest.raises(ValueError, match=message):
            row(SequenceParams(1), 3)


def test_an_entry_without_rows_is_not_swept():
    rowless = ERRATA[-1]
    assert rowless.rows is None
    with pytest.raises(ValueError, match=r"^erratum 'gcd-product-rule' has no rows to sweep;"):
        sweep(rowless)


def test_an_entry_with_an_empty_box_is_refused():
    # no k to sweep leaves no outcome to merge
    empty = ENTRIES["sum-c-constant"]._replace(ks=range(0))
    with pytest.raises(ValueError, match=r"^merge_outcomes takes one or more outcomes, got none$"):
        sweep(empty)


class TestRenderedDocument:
    def test_contains_every_entry(self, document):
        for erratum in ERRATA:
            assert f"[{erratum.name}]" in document
        assert document.count("(refuted)") == len(ERRATA)
        assert "NOT CONCLUSIVE" not in document

    def test_is_deterministic(self, document):
        assert render_document() == document

    def test_committed_document_is_current(self, document):
        # regenerate with `balseq verify --emit-errata` when this fails
        committed = Path(__file__).resolve().parent.parent / "ERRATA.md"
        assert committed.read_text(encoding="utf-8") == document
