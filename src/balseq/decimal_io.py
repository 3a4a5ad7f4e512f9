"""Exact decimal text at any size, independent of the interpreter limit.

Python 3.11's int-to-str conversion is quadratic and, by default, refuses
values over 4300 digits.  `decimal_str` keeps `str()` for ints well under
that limit and otherwise converts by divide and conquer (Brent & Zimmermann,
*Modern Computer Arithmetic*, 2010, section 1.7): split the value at a bit
position, convert the halves to `decimal.Decimal` and recombine them as
hi * 2**w + lo, where libmpdec's fast multiplication does the heavy work.  A
`decimal.Decimal` that holds an exact integer is printed as it is, in linear
time, which is why the CLI's logarithmic engines compute in Decimal.

All Decimal arithmetic here, and in the engines and the series expansion
when they are handed a Decimal one, runs in `exact_context()`: unbounded
precision with Inexact and Rounded trapped, so a lost digit raises instead
of printing a wrong value, whatever context the caller has set.
`arithmetic_context(one)` picks that context for a Decimal one and none for
an int, and refuses a float or complex one, whose products round.  Nothing
here reads or changes the interpreter's digit limit.
"""

from __future__ import annotations

import decimal
from contextlib import nullcontext
from typing import ContextManager

# 14,000 bits is about 4,214 digits: under the default 4300-digit str() limit
_STR_BITS = 14_000
# bits per leaf of the conversion tree; 128-bit leaves were 2-4x slower
# than str() below 10k digits
_LEAF_BITS = 2048
# the exponent an exact integer Decimal has; a module constant, because
# comparing against the int 1 built a Decimal on every call, about 40 ns of
# a 260 ns call on a small value
_UNIT = decimal.Decimal(1)


def exact_context() -> ContextManager[decimal.Context]:
    """A local decimal context in which integer + - * never round.

    Precision and exponent range are at their limits, and Inexact and
    Rounded are trapped besides the default traps, so a result that would
    lose a digit raises `decimal.Inexact` or `decimal.Rounded`.  Do not
    divide in it: a quotient that does not terminate raises MemoryError at
    this precision.
    """
    return decimal.localcontext(decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow,
               decimal.Inexact, decimal.Rounded],
    ))


def arithmetic_context(one) -> ContextManager:
    """The context to compute in with numbers of the type of `one`.

    `exact_context()` for a Decimal one, and no context for an int, whose
    arithmetic is exact already, or for another exact stand-in.  A float or
    complex one raises ValueError: its terms would be rounded.
    """
    if isinstance(one, decimal.Decimal):
        return exact_context()
    if isinstance(one, (float, complex)):
        raise ValueError(f"one must be of an exact number type, such as int or Decimal,"
                         f" got {one!r}")
    return nullcontext()


def decimal_str(n: int | decimal.Decimal) -> str:
    """str(n) for an int of any size, or a Decimal holding an exact integer.

    The Decimal must have exponent 0 and must not be a negative zero, so
    that its text is plain digits; any other Decimal raises ValueError, as
    does a bool or any value that is neither an int nor a Decimal.
    """
    if isinstance(n, decimal.Decimal):
        # same_quantum compares exponents without unpacking the digits
        if not n.same_quantum(_UNIT) or (n.is_zero() and n.is_signed()):
            raise ValueError(f"not an exact integer Decimal: {n!r}")
        return str(n)
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"not an int or a Decimal: {n!r}")
    if n.bit_length() < _STR_BITS:
        try:
            return str(n)
        except ValueError:  # a lowered limit; convert below instead
            pass
    with exact_context():
        value = _to_decimal(abs(n), n.bit_length(), {})
        return str(-value if n < 0 else value)


def _to_decimal(n: int, width: int, powers: dict[int, decimal.Decimal]) -> decimal.Decimal:
    """Decimal(n) for 0 <= n < 2**width, splitting at half the width."""
    if width <= _LEAF_BITS:
        return decimal.Decimal(n)
    low_width = width >> 1
    high = n >> low_width
    low = n - (high << low_width)
    return (_to_decimal(high, width - low_width, powers) * _power_of_two(low_width, powers)
            + _to_decimal(low, low_width, powers))


def _power_of_two(width: int, powers: dict[int, decimal.Decimal]) -> decimal.Decimal:
    """Decimal(2)**width, cached for the one conversion that owns `powers`.

    A missing power is libmpdec's own integer power of Decimal(2), taken in
    the caller's exact_context(), where it is exact or raises.
    """
    power = powers.get(width)
    if power is None:
        power = powers[width] = decimal.Decimal(2) ** width
    return power
