"""Every route that takes a number type is exact whatever the caller's
decimal context.

The guard finds, by signature, every public function of `balseq.engines`,
`balseq.ring` and `balseq.genfunc` that takes a `one`, and calls each with
`one=Decimal(1)` inside a 9-digit decimal context, at sizes whose values
have more than 9 digits.  The values must equal the int route's, come back
as Decimals, and leave no flag in the caller's context.  The same holds for
the routes whose number type is that of their arguments' values: `mat_pow`
and the matrix product, typed by their entries, and `b_table`/`c_table`,
typed by their seed `pair`, which take no `one`.  A new function that takes
`one` fails the guard until it has a sample call here.  Every route refuses
a float or complex `one`, or values of those types, in one line: a float
term is rounded.
"""

import decimal
import inspect
import re
from decimal import Decimal

import pytest

from balseq import engines, genfunc, ring
from balseq.engines import (
    Engine,
    Mat2,
    a_matrix,
    b_table,
    c_table,
    mat_pow,
    term_b,
    term_c,
    window_pair,
)
from balseq.genfunc import b_series, c_series, expand
from balseq.ring import SequenceParams, alpha_power_components

P = SequenceParams(5)
HUGE_K = SequenceParams(10**10)  # 3k and 1 - k have 11 digits

# each call(one) gives values of more than 9 digits at one = 1
ONE_TAKERS = {
    "a_matrix": lambda one: a_matrix(HUGE_K, one),
    "alpha_power_components": lambda one: alpha_power_components(P, 200, one),
    "b_series": lambda one: b_series(P, 60, one=one).expansion,
    "c_series": lambda one: [c_series(P, 60, variant, one=one).expansion
                             for variant in ("corrected", "printed")],
    "expand": lambda one: expand([1, 7], [1, -15, 4], 60, one=one),
    "term_b": lambda one: [term_b(P, 201, engine, one=one) for engine in Engine],
    "term_c": lambda one: [term_c(P, 201, engine, one=one) for engine in Engine],
    "window_pair": lambda one: window_pair(P, 200, one=one),
}

# routes whose number type is that of their arguments' values
TYPED_BY_VALUES = {
    "mat_pow": lambda one: mat_pow(a_matrix(P, one), 200),
    "Mat2 @ Mat2": lambda one: a_matrix(HUGE_K, one) @ a_matrix(HUGE_K, one),
    "b_table pair": lambda one: b_table(P, 300, start=100, pair=window_pair(P, 100, one=one)),
    "c_table pair": lambda one: c_table(P, 300, start=100, pair=window_pair(P, 100, one=one)),
}


def flat(value) -> list:
    """The numbers in a value, a term or a (nested) tuple or list of them."""
    if isinstance(value, (tuple, list)):
        return [x for item in value for x in flat(item)]
    return [value]


def test_every_one_taker_has_a_sample_call():
    found = {
        name for module in (engines, ring, genfunc)
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__
        and not name.startswith("_") and "one" in inspect.signature(fn).parameters
    }
    assert found == set(ONE_TAKERS)


@pytest.mark.parametrize("name", [*ONE_TAKERS, *TYPED_BY_VALUES])
def test_exact_inside_a_9_digit_context(name):
    call = {**ONE_TAKERS, **TYPED_BY_VALUES}[name]
    want = flat(call(1))
    assert max(map(abs, want)) >= 10**9  # a 9-digit context would round them
    with decimal.localcontext(decimal.Context(prec=9)) as ctx:
        got = flat(call(Decimal(1)))
        assert ctx.prec == 9 and not any(ctx.flags.values())
    assert {type(x) for x in got} == {Decimal}
    assert got == want


# a float or complex one, whose products round: B_(5,200) came back as
# 2.958940044415348e+232
INEXACT_ONES = [1.0, 1 + 0j]


@pytest.mark.parametrize("one", INEXACT_ONES)
@pytest.mark.parametrize("name", [*ONE_TAKERS, *TYPED_BY_VALUES])
def test_inexact_one_rejected(name, one):
    call = {**ONE_TAKERS, **TYPED_BY_VALUES}[name]
    with pytest.raises(ValueError, match=rf"^one must be of an exact number type, such as int"
                                         rf" or Decimal, got {re.escape(repr(one))}$"):
        call(one)


# the routes typed by their values, handed inexact values directly
INEXACT_VALUES = {
    "mat_pow": lambda x: mat_pow(Mat2(3 * x, -4 * x, x, 0 * x), 200),
    "mat_pow 0": lambda x: mat_pow(Mat2(3 * x, -4 * x, x, 0 * x), 0),
    "Mat2 @ Mat2": lambda x: Mat2(x, x, x, x) @ Mat2(x, x, x, x),
    "b_table pair": lambda x: b_table(P, 300, start=100, pair=(x, 2 * x)),
    "c_table pair": lambda x: c_table(P, 300, start=100, pair=(x, 2 * x)),
}


@pytest.mark.parametrize("one", INEXACT_ONES)
@pytest.mark.parametrize("name", list(INEXACT_VALUES))
def test_inexact_values_rejected(name, one):
    with pytest.raises(ValueError, match=r"^one must be of an exact number type"):
        INEXACT_VALUES[name](one)
