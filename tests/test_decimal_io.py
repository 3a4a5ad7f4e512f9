import decimal
import sys
from decimal import Decimal

import pytest

from balseq.decimal_io import decimal_str, exact_context
from balseq.engines import term_b, term_c
from balseq.ring import SequenceParams


def reference_str(n: int) -> str:
    """str(n) with the interpreter's digit limit lifted only for this call."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(n)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(old)


def _edges(w: int) -> list[int]:
    return [s * v for v in (2**w - 1, 2**w, 2**w + 1) for s in (1, -1)]


# around the str() threshold (14,000 bits), the leaf size (2048 bits) and the
# width of the first split above it
WIDTHS = [2047, 2048, 2049, 4095, 4096, 4097, 13_999, 14_000, 14_001, 14_284, 14_285,
          28_000, 100_000]
EXPONENTS = [4299, 4300, 4301, 99_999, 100_000, 100_001]
TERMS = [fn(SequenceParams(k), n) for fn in (term_b, term_c)
         for k in range(1, 13) for n in (3_000, 30_000)]


class TestDecimalStr:
    @pytest.mark.parametrize("n", [0, 1, -1])
    def test_small(self, n):
        assert decimal_str(n) == str(n)

    @pytest.mark.parametrize("w", WIDTHS)
    def test_powers_of_two_edges(self, w):
        for n in _edges(w):
            assert decimal_str(n) == reference_str(n)

    @pytest.mark.parametrize("j", EXPONENTS)
    def test_powers_of_ten_edges(self, j):
        for n in (10**j, 10**j - 1, -(10**j)):
            assert decimal_str(n) == reference_str(n)

    def test_terms(self):
        for n in TERMS:
            assert decimal_str(n) == reference_str(n)

    def test_below_a_lowered_limit(self):
        # 1,000 digits is under the 14,000-bit threshold but over a 640 limit
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("no interpreter digit limit")
        n = 10**999 + 7
        expected = reference_str(n)
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert decimal_str(n) == expected
        finally:
            sys.set_int_max_str_digits(old)


class TestDecimalInput:
    @pytest.mark.parametrize("text", ["0", "7", "-7", "123456789012345678901234567890"])
    def test_exact_integer_printed_as_is(self, text):
        assert decimal_str(Decimal(text)) == text

    def test_big_exact_integer(self):
        n = term_b(SequenceParams(5), 30_000)
        with exact_context():
            value = Decimal(n)
        assert decimal_str(value) == reference_str(n)

    @pytest.mark.parametrize("text", ["1E+5", "-0", "1.0", "0.5", "1E-3", "NaN", "Infinity"])
    def test_non_integer_text_rejected(self, text):
        with pytest.raises(ValueError, match="not an exact integer"):
            decimal_str(Decimal(text))

    @pytest.mark.parametrize("value", [True, 2.5, "7"])
    def test_other_types_rejected(self, value):
        # a bool passes isinstance(value, int), but its str is 'True'
        with pytest.raises(ValueError, match=rf"^not an int or a Decimal: {value!r}$"):
            decimal_str(value)


class TestExactContext:
    def test_traps_a_lost_digit(self):
        with exact_context():
            with pytest.raises(decimal.Inexact):
                Decimal("1.5").to_integral_exact()

    def test_leaves_the_callers_context(self):
        with decimal.localcontext(decimal.Context(prec=28)) as ctx:
            with exact_context() as exact:
                assert exact.prec == decimal.MAX_PREC
                assert Decimal(10**40) * 3 == 3 * 10**40
            assert decimal.getcontext() is ctx and ctx.prec == 28
