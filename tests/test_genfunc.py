import ast
import decimal
import re
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from balseq.decimal_io import arithmetic_context, decimal_str
from balseq.genfunc import (
    b_series,
    c_series,
    expand,
)
from balseq.ring import SequenceParams

from conftest import oracle_b, oracle_c


def convolution_holds(series) -> bool:
    """expansion * denominator reproduces the numerator coefficientwise."""
    for n in range(len(series.expansion)):
        acc = 0
        for j, d in enumerate(series.denominator):
            if j > n:
                break
            acc += d * series.expansion[n - j]
        want = series.numerator[n] if n < len(series.numerator) else 0
        if acc != want:
            return False
    return True


class TestExpand:
    def test_b_series_k2(self):
        assert expand([0, 1], [1, -6, 1], 4) == [0, 1, 6, 35, 204]

    def test_c_series_k3(self):
        assert expand([1, -6], [1, -9, 2], 3) == [1, 3, 25, 219]

    def test_numerator_equal_denominator(self):
        den = [1, -12, 3]
        assert expand(den, den, 6) == [1, 0, 0, 0, 0, 0, 0]

    def test_negative_unit_constant_term(self):
        assert expand([-2, 1], [-1], 3) == [2, -1, 0, 0]

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            expand([1], [0, 1], 3)
        with pytest.raises(ValueError):
            expand([1], [], 3)

    def test_nonunit_constant_term_rejected(self):
        with pytest.raises(ValueError, match="exact division"):
            expand([1], [2, 1], 3)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            expand([1], [1], -1)

    @pytest.mark.parametrize("count", ["3", 2.5, True])
    def test_non_int_count_rejected(self, count):
        # True once gave two coefficients, and "3" and 2.5 a bare TypeError
        message = rf"^coefficient count must be an int, got {re.escape(repr(count))}$"
        for expand_count in (lambda: expand([0, 1], [1, -6, 1], count),
                             lambda: b_series(SequenceParams(2), count),
                             lambda: c_series(SequenceParams(2), count)):
            with pytest.raises(ValueError, match=message):
                expand_count()

    @pytest.mark.parametrize("entry", [1.0, True, Decimal(1), "1", None])
    def test_non_int_entry_rejected(self, entry):
        # 1.0 once gave float coefficients, and True was taken for 1
        message = (r"^numerator and denominator entries must be ints,"
                   rf" got {re.escape(repr(entry))}$")
        for numerator, denominator in (([0, entry], [1, -15, 4]), ([0, 1], [entry, -15, 4]),
                                       ([0, 1], [1, -15, entry]), ([entry], [1])):
            with pytest.raises(ValueError, match=message):
                expand(numerator, denominator, 5)
            with pytest.raises(ValueError, match=message):
                expand(numerator, denominator, 5, one=Decimal(1))


def long_division(numerator, denominator, n_coeffs, one=1):
    """The expansion by plain long division, one sum over the whole
    denominator per coefficient: the oracle for expand's recurrence form."""
    d0 = denominator[0]
    coeffs = []
    with arithmetic_context(one):
        den = [d * one for d in denominator]
        for n in range(n_coeffs + 1):
            acc = (numerator[n] if n < len(numerator) else 0) * one
            for j in range(1, min(n, len(den) - 1) + 1):
                acc -= den[j] * coeffs[n - j]
            coeffs.append(acc if d0 == 1 else -acc)
    return coeffs


# small values give zero coefficients and zero taps often
SMALL_OR_LARGE = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))


class TestRecurrenceForm:
    """expand's taps and two-tap tail against long division."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(numerator=st.lists(SMALL_OR_LARGE, max_size=5),
           d0=st.sampled_from([1, -1]),
           rest=st.lists(SMALL_OR_LARGE, max_size=4),
           n_coeffs=st.integers(0, 40))
    def test_agrees_with_long_division(self, numerator, d0, rest, n_coeffs):
        denominator = [d0, *rest]
        want = long_division(numerator, denominator, n_coeffs)
        got = expand(numerator, denominator, n_coeffs)
        assert got == want and {type(c) for c in got} == {int}
        decimals = expand(numerator, denominator, n_coeffs, one=Decimal(1))
        assert {type(c) for c in decimals} == {Decimal}
        assert not any(c.is_zero() and c.is_signed() for c in decimals)
        assert [decimal_str(c) for c in decimals] == [str(c) for c in want]

    @pytest.mark.parametrize("numerator, den, texts", [
        # numerator = denominator: 1, 0, 0, ...
        ([1, 6, 1], [1, 6, 1], ["1", "0", "0", "0", "0", "0", "0"]),
        ([-1, -6, -1], [-1, -6, -1], ["1", "0", "0", "0", "0", "0", "0"]),
        # taps 0 and -1 on a negative coefficient: 0*(-1) + (-1)*0
        ([0, -1], [1, 0, 1], ["0", "-1", "0", "1", "0", "-1", "0"]),
    ])
    def test_zero_tail_is_unsigned(self, numerator, den, texts):
        # each zero in the tail is a sum of two products that are both -0,
        # which a tail without its fix-up returned as Decimal('-0')
        coeffs = expand(numerator, den, 6, one=Decimal(1))
        assert not any(c.is_zero() and c.is_signed() for c in coeffs)
        assert [decimal_str(c) for c in coeffs] == texts


class TestSeries:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_b_series_matches_terms_to_200(self, k):
        series = b_series(SequenceParams(k), 200)
        assert list(series.expansion) == oracle_b(k, 200)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_c_series_matches_terms_to_200(self, k):
        series = c_series(SequenceParams(k), 200)
        assert list(series.expansion) == oracle_c(k, 200)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_convolution_reproduces_numerator(self, k):
        for series in (b_series(SequenceParams(k), 120), c_series(SequenceParams(k), 120)):
            assert series.denominator[0] == 1
            assert convolution_holds(series)

    def test_series_fields_and_equality(self):
        series = b_series(SequenceParams(2), 4)
        assert (series.numerator, series.denominator, series.expansion) == (
            (0, 1), (1, -6, 1), (0, 1, 6, 35, 204))
        assert series == b_series(SequenceParams(2), 4)
        assert series != b_series(SequenceParams(2), 5)
        assert series != c_series(SequenceParams(2), 4)

    def test_denominator_coefficients(self):
        params = SequenceParams(4)
        assert b_series(params, 3).denominator == (1, -12, 3)
        assert c_series(params, 3).denominator == (1, -12, 3)
        assert c_series(params, 3, variant="printed").denominator == (1, -12, 3)

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            c_series(SequenceParams(2), 5, variant="original")


def first_mismatch(series, oracle) -> int | None:
    """The first n at which two coefficient lists differ, if any."""
    return next((n for n, (x, y) in enumerate(zip(series, oracle)) if x != y), None)


class TestPrintedNumeratorProbe:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_mismatch_at_n1_for_every_k(self, k):
        printed = c_series(SequenceParams(k), 50, variant="printed").expansion
        true_c = oracle_c(k, 50)
        assert first_mismatch(printed, true_c) == 1
        # long-division: c_1 = num_1 + 3k*c_0 = 3(1+k) + 3k
        assert printed[1] == 3 + 6 * k
        assert true_c[1] == 3

    def test_corrected_variant_has_no_mismatch_k2(self):
        series = c_series(SequenceParams(2), 50)
        assert list(series.expansion) == oracle_c(2, 50)

    def test_one_coefficient_shows_no_mismatch(self):
        # the printed numerator agrees with C at n = 0, so seeing the
        # mismatch takes at least the coefficients 0..1
        printed = c_series(SequenceParams(2), 1, variant="printed").expansion
        assert first_mismatch(printed[:1], oracle_c(2, 0)) is None
        assert first_mismatch(printed, oracle_c(2, 1)) == 1


class TestDecimalSeries:
    """`one=Decimal(1)` gives the int expansion's coefficients, as exact Decimals."""

    SERIES = {
        "B": b_series,
        "C": c_series,
        "C printed": lambda params, n, **kw: c_series(params, n, "printed", **kw),
    }

    @pytest.mark.parametrize("name", sorted(SERIES))
    @pytest.mark.parametrize("k", range(1, 13))
    def test_text_equals_int_path(self, name, k):
        series = self.SERIES[name]
        params = SequenceParams(k)
        want = series(params, 3000).expansion
        got = series(params, 3000, one=Decimal(1)).expansion
        assert [decimal_str(x) for x in got] == [decimal_str(x) for x in want]

    @pytest.mark.parametrize("name", sorted(SERIES))
    @pytest.mark.parametrize("n", [0, 1])
    def test_type_follows_one(self, name, n):
        series = self.SERIES[name]
        params = SequenceParams(3)
        assert {type(x) for x in series(params, n).expansion} == {int}
        assert {type(x) for x in series(params, n, one=Decimal(1)).expansion} == {Decimal}

    def test_negated_zero_prints(self):
        # a -1 constant term negates every coefficient, zeros included
        coeffs = expand([-2, 1], [-1], 3, one=Decimal(1))
        assert [decimal_str(x) for x in coeffs] == ["2", "-1", "0", "0"]

    def test_exact_inside_a_28_digit_context(self):
        expected = [decimal_str(x) for x in b_series(SequenceParams(7), 200).expansion]
        with decimal.localcontext(decimal.Context(prec=28)) as ctx:
            got = b_series(SequenceParams(7), 200, one=Decimal(1)).expansion
            assert ctx.prec == 28 and not any(ctx.flags.values())
        assert [decimal_str(x) for x in got] == expected


def imported_modules(module: str) -> set[str]:
    """The last name of every module that src/balseq/<module>.py imports."""
    source = Path(__file__).resolve().parent.parent / "src" / "balseq" / f"{module}.py"
    imported = set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            imported.add(name.rpartition(".")[2])
            if name in ("", "balseq"):  # from . import x, from balseq import x
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rpartition(".")[2] for alias in node.names)
    assert imported, "no imports found"
    return imported


def test_series_oracle_imports_no_engine():
    # the series is an independent oracle for the engines only while the
    # module reads neither the engines nor the identity checks built on them
    imported = imported_modules("genfunc")
    assert not imported & {"engines", "identities"}, imported


def names_taken(module: str) -> list[tuple[str | None, str]]:
    """The (module, name) of every `from ... import name` in
    src/balseq/<module>.py, module as written after the dots."""
    source = Path(__file__).resolve().parent.parent / "src" / "balseq" / f"{module}.py"
    return [(node.module, alias.name)
            for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_errata_takes_only_rows_from_identities():
    # errata reads each verified identity through its row (Sides.at), so
    # it builds no TermContext and calls no side kernel of its own
    taken = {name for module, name in names_taken("errata") if module == "identities"}
    assert taken and taken <= {"ROWS", "Sides", "SweepOutcome", "merge_outcomes", "_row",
                               "_triangle", "_twins", "_mirrored_pairs", "Report"}, taken


def test_rows_sit_below_the_runner():
    # each layer imports only the layers below it: the row modules never
    # import verify, and verify takes no private name (__version__ is a
    # dunder, not a private name)
    assert "verify" not in imported_modules("identities") | imported_modules("divisibility")
    private = [name for _, name in names_taken("verify")
               if name.startswith("_") and not name.endswith("__")]
    assert private == []
