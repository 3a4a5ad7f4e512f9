import decimal
import math
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from balseq.decimal_io import decimal_str
from balseq.engines import (
    _doubling_pair,
    Engine,
    ITERATIVE_CAP_DEFAULT,
    IterativeCapError,
    Mat2,
    a_matrix,
    b_table,
    c_table,
    mat_pow,
    matrix_power,
    r_base_matrix,
    r_matrix,
    term_b,
    term_b_negative,
    term_c,
    window_pair,
)
from balseq.genfunc import b_series, c_series
from balseq.ring import SequenceParams, alpha_power_components

from conftest import counting_type, oracle_b, oracle_b_negative, oracle_c

ALL_ENGINES = list(Engine)
LOG_ENGINES = [Engine.FAST_DOUBLING, Engine.MATRIX, Engine.BINET]


def power_sum(params: SequenceParams, n: int) -> int:
    """alpha^n + beta^n, read off the ring coordinates as 2u + 3k*v."""
    u, v = alpha_power_components(params, n)
    return 2 * u + params.trace * v


def det(m: Mat2) -> int:
    return m.a11 * m.a22 - m.a12 * m.a21


class TestTermB:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    @pytest.mark.parametrize(
        "k,n,expected",
        [
            (2, 3, 35),       # value table
            (1, 4, 27),       # recurrence: 0,1,3,9,27 (the printed 3^n column is off)
            (4, 5, 19449),    # value table
            (2, 4, 204),      # recurrence; printed 1189 is the n=5 value
        ],
    )
    def test_known_values(self, engine, k, n, expected):
        assert term_b(SequenceParams(k), n, engine) == expected

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_negative_index_rejected(self, engine):
        with pytest.raises(ValueError, match="term_b_negative"):
            term_b(SequenceParams(2), -1, engine)

    def test_iterative_cap(self):
        with pytest.raises(IterativeCapError, match="cap"):
            term_b(SequenceParams(2), 101, Engine.ITERATIVE, iterative_cap=100)
        assert term_b(SequenceParams(2), 100, Engine.ITERATIVE, iterative_cap=100) \
            == oracle_b(2, 100)[100]

    def test_default_cap_value(self):
        assert ITERATIVE_CAP_DEFAULT == 100_000

    @pytest.mark.parametrize("fn", [term_b, term_c])
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_negative_cap_rejected_on_every_engine(self, fn, engine):
        with pytest.raises(ValueError, match="^iterative cap must be >= 0$"):
            fn(SequenceParams(2), 3, engine, iterative_cap=-5)

    @pytest.mark.parametrize("fn", [term_b, term_c])
    @pytest.mark.parametrize("cap", ["3", 2.5, True])
    def test_non_int_cap_rejected(self, fn, cap):
        # "3" once raised a bare TypeError from <, and 2.5 and True passed
        message = rf"^iterative cap must be an int, got {re.escape(repr(cap))}$"
        with pytest.raises(ValueError, match=message):
            fn(SequenceParams(2), 5, iterative_cap=cap)


    @pytest.mark.parametrize("k", [2.5, 2.0, True])
    def test_non_int_k_rejected(self, k):
        # a float k once gave 2255 on iterative and 2913.1875 on the others
        # at n = 5, and k = 2.0 gave 1189.0
        with pytest.raises(ValueError, match=r"^k must be an int, got "):
            SequenceParams(k)

    @pytest.mark.parametrize("engine", list(Engine))
    @pytest.mark.parametrize("fn", [term_b, term_c])
    @pytest.mark.parametrize("n", [5.0, True])
    def test_non_int_n_rejected(self, engine, fn, n):
        with pytest.raises(ValueError, match=r"^n must be an int, got "):
            fn(SequenceParams(2), n, engine)

    @pytest.mark.parametrize("fn", [term_b, term_c])
    def test_engine_value_is_not_an_engine(self, fn):
        # each engine is matched by identity, so its name falls through
        with pytest.raises(ValueError, match=r"^unknown engine 'doubling'$"):
            fn(SequenceParams(2), 5, "doubling")

    @pytest.mark.parametrize("table", [b_table, c_table])
    def test_non_int_table_bounds_rejected(self, table):
        with pytest.raises(ValueError, match="n must be an int"):
            table(SequenceParams(2), 5.0)
        with pytest.raises(ValueError, match="start must be in 0..n_max"):
            table(SequenceParams(2), 5, start=2.0)


class TestTermC:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    @pytest.mark.parametrize(
        "k,n,expected",
        [
            (3, 3, 219),   # value table; also 24k^2+3
            (2, 4, 577),
            (1, 5, 243),   # 3^n
        ],
    )
    def test_known_values(self, engine, k, n, expected):
        assert term_c(SequenceParams(k), n, engine) == expected

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_negative_index_rejected(self, engine):
        with pytest.raises(ValueError):
            term_c(SequenceParams(2), -3, engine)


class TestEngineAgreement:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_all_engines_agree_small(self, k):
        params = SequenceParams(k)
        b, c = oracle_b(k, 120), oracle_c(k, 120)
        for n in range(121):
            for engine in ALL_ENGINES:
                assert term_b(params, n, engine) == b[n]
                assert term_c(params, n, engine) == c[n]

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(k=st.integers(1, 12), n=st.integers(0, 3000))
    def test_engines_and_series_agree_at_random(self, k, n):
        params = SequenceParams(k)
        b, c = b_series(params, n).expansion[n], c_series(params, n).expansion[n]
        for engine in ALL_ENGINES:
            assert term_b(params, n, engine) == b
            assert term_c(params, n, engine) == c

    @pytest.mark.parametrize("k", range(1, 9))
    def test_doubling_pair_formulas_to_500(self, k):
        # division-free doubling: B_2n = 2 B_n B_{n+1} - 3k B_n^2,
        #                         B_{2n+1} = B_{n+1}^2 + (1-k) B_n^2
        b = oracle_b(k, 1001)
        for n in range(1, 501):
            assert b[2 * n] == 2 * b[n] * b[n + 1] - 3 * k * b[n] ** 2
            assert b[2 * n + 1] == b[n + 1] ** 2 + (1 - k) * b[n] ** 2
            assert term_b(SequenceParams(k), 2 * n, Engine.FAST_DOUBLING) == b[2 * n]

    @pytest.mark.parametrize("fn", [term_b, term_c])
    def test_iterative_term_in_constant_memory(self, fn):
        # two rolling terms of about 6.5 KB each; a table of all 10^4 + 1
        # terms would peak near 32 MiB
        params = SequenceParams(12)
        tracemalloc.start()
        try:
            value = fn(params, 10_000, Engine.ITERATIVE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert value == fn(params, 10_000, Engine.FAST_DOUBLING)

    def test_growth_digits_monotone(self):
        for k in (1, 2, 7, 12):
            digits = [len(str(x)) for x in oracle_b(k, 400)[1:]]
            assert digits == sorted(digits)

    def test_log_engines_reach_one_million(self):
        # the cross-check among the three O(log n) routes at a ~765k-digit term
        params = SequenceParams(2)
        values = {
            engine: term_b(params, 1_000_000, engine)
            for engine in (Engine.FAST_DOUBLING, Engine.BINET, Engine.MATRIX)
        }
        assert len(set(values.values())) == 1
        assert next(iter(values.values())).bit_length() == 2_543_105

    def test_classical_square_property_k2(self):
        # 8*B_n^2 + 1 is a perfect square for the classical (k=2) sequence
        for n, b in enumerate(oracle_b(2, 30)):
            target = 8 * b * b + 1
            root = math.isqrt(target)
            assert root * root == target, n


class TestDecimalEngines:
    """`one=Decimal(1)` gives the int path's terms, as exact Decimals."""

    @pytest.mark.parametrize("engine", LOG_ENGINES)
    @pytest.mark.parametrize("fn", [term_b, term_c])
    @pytest.mark.parametrize("k", range(1, 13))
    def test_text_equals_int_path(self, engine, fn, k):
        params = SequenceParams(k)
        for n in [*range(65), 4_000, 30_000]:
            value = fn(params, n, engine, one=Decimal(1))
            assert decimal_str(value) == decimal_str(fn(params, n, engine)), n

    @pytest.mark.parametrize("fn", [term_b, term_c])
    @pytest.mark.parametrize("k", [1, 12])
    def test_text_equals_int_path_at_300k(self, fn, k):
        params = SequenceParams(k)
        value = fn(params, 300_000, Engine.FAST_DOUBLING, one=Decimal(1))
        assert decimal_str(value) == decimal_str(fn(params, 300_000))

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    @pytest.mark.parametrize("fn", [term_b, term_c])
    @pytest.mark.parametrize("n", [0, 1])
    def test_type_follows_one(self, engine, fn, n):
        params = SequenceParams(3)
        assert type(fn(params, n, engine)) is int
        assert type(fn(params, n, engine, one=Decimal(1))) is Decimal

    @pytest.mark.parametrize("engine", LOG_ENGINES)
    def test_exact_inside_a_28_digit_context(self, engine):
        params = SequenceParams(7)
        expected = decimal_str(term_b(params, 5000, engine))  # 6,580 digits
        with decimal.localcontext(decimal.Context(prec=28)) as ctx:
            value = term_b(params, 5000, engine, one=Decimal(1))
            assert ctx.prec == 28 and not any(ctx.flags.values())
        assert decimal_str(value) == expected


def full_products(params: SequenceParams, n: int) -> dict[Engine, tuple[int, int]]:
    """(B_n, C_n) read off each log engine's whole representation at n, in int."""
    k = params.k
    power = mat_pow(a_matrix(params), n)
    u, v = alpha_power_components(params, n)
    b_n, b_next = _doubling_pair(k, n)
    return {
        Engine.MATRIX: (power.a21, (r_base_matrix(params) @ power).a21),
        Engine.BINET: (v, u + 3 * v),
        Engine.FAST_DOUBLING: (b_n, b_next + 3 * (1 - k) * b_n),
    }


# the products of full size in the last step, at (even n, odd n): that step
# at n = 2m or 2m + 1 works on operands of the size of B_m, about twice the
# size of any operand before it, where the whole final state took 5 on
# matrix and 3 on binet and doubling
BIG_PRODUCTS = {
    (Engine.MATRIX, "B"): (1, 2), (Engine.MATRIX, "C"): (2, 4),
    (Engine.BINET, "B"): (1, 2), (Engine.BINET, "C"): (2, 2),
    (Engine.FAST_DOUBLING, "B"): (1, 2), (Engine.FAST_DOUBLING, "C"): (2, 2),
}


class TestLastStep:
    """Each log engine powers to n >> 1, then computes only the term it returns."""

    INDICES = sorted({*range(301), *(2**j + d for j in range(17) for d in (-1, 0, 1))})

    @pytest.mark.parametrize("k", range(1, 13))
    def test_equals_oracle_and_full_product(self, k):
        params = SequenceParams(k)
        small = list(zip(b_table(params, 300), c_table(params, 300)))
        for n in self.INDICES:
            # past 300 the oracle is a window of the recurrence, seeded at n - 1
            wants = small[n] if n <= 300 else (b_table(params, n, start=n - 1)[1],
                                              c_table(params, n, start=n - 1)[1])
            full = full_products(params, n)
            for seq, (fn, want) in enumerate(zip((term_b, term_c), wants)):
                text = decimal_str(want)
                for engine in LOG_ENGINES:
                    assert fn(params, n, engine) == want == full[engine][seq], (engine, n)
                    assert decimal_str(fn(params, n, engine, one=Decimal(1))) == text, \
                        (engine, n)

    @pytest.mark.parametrize("engine, seq", list(BIG_PRODUCTS))
    @pytest.mark.parametrize("k", [2, 7, 12])
    def test_last_step_makes_only_the_big_products_it_needs(self, engine, seq, k):
        # a product counts as big when its smaller operand has at least 3/4
        # of the bits of the largest such operand in the run
        fn = term_b if seq == "B" else term_c
        for n, want in zip((4000, 4001), BIG_PRODUCTS[engine, seq]):
            counted, products = counting_type()
            value = fn(SequenceParams(k), n, engine, one=counted(1))
            assert value.value == fn(SequenceParams(k), n, Engine.ITERATIVE)
            sizes = [min(pair) for pair in products]
            assert sum(4 * size >= 3 * max(sizes) for size in sizes) == want, n


class TestSeedIdentity:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_c_from_b_seeds(self, k):
        # C_n = 3 B_n + (1-k) B_{n-1}: the general solution in terms of seeds
        b, c = oracle_b(k, 200), oracle_c(k, 200)
        for n in range(1, 201):
            assert c[n] == 3 * b[n] + (1 - k) * b[n - 1]


class TestTermBNegative:
    @pytest.mark.parametrize("n", ["3", 2.5, True])
    def test_non_int_index_rejected(self, n):
        # the type is checked first, so "3" does not reach the n < 1 comparison
        with pytest.raises(ValueError, match=rf"^n must be an int, got {re.escape(repr(n))}$"):
            term_b_negative(SequenceParams(3), n)

    def test_k2_is_negated_positive_term(self):
        assert term_b_negative(SequenceParams(2), 2) == -6
        assert term_b_negative(SequenceParams(2), 2).denominator == 1

    def test_k3_small_values(self):
        assert term_b_negative(SequenceParams(3), 1) == Fraction(-1, 2)
        assert term_b_negative(SequenceParams(3), 2) == Fraction(-9, 4)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_matches_backward_recurrence_to_20(self, k):
        oracle = oracle_b_negative(k, 20)
        params = SequenceParams(k)
        for n in range(1, 21):
            assert term_b_negative(params, n) == oracle[-n]

    @pytest.mark.parametrize("k", range(2, 7))
    def test_satisfies_backward_recurrence_directly(self, k):
        params = SequenceParams(k)
        values = {n: Fraction(term_b(params, n)) for n in (0, 1)}
        values.update({-n: term_b_negative(params, n) for n in range(1, 22)})
        for m in range(1, -19, -1):
            assert values[m - 2] == (values[m] - 3 * k * values[m - 1]) / (1 - k)

    def test_degenerate_k1_rejected(self):
        with pytest.raises(ValueError, match="k=1"):
            term_b_negative(SequenceParams(1), 3)

    @pytest.mark.parametrize("n", [0, -2])
    def test_nonpositive_n_rejected(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            term_b_negative(SequenceParams(3), n)


class TestPowerSum:
    def test_zeroth(self):
        assert power_sum(SequenceParams(9), 0) == 2

    def test_known_values(self):
        assert power_sum(SequenceParams(2), 2) == 34    # 35 - 1
        assert power_sum(SequenceParams(3), 2) == 77    # 79 - 2
        assert power_sum(SequenceParams(3), 3) == 675   # (3k)^3 - 3(k-1)(3k)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_equals_b_combination(self, k):
        b = oracle_b(k, 202)
        params = SequenceParams(k)
        for n in range(1, 201):
            assert power_sum(params, n) == b[n + 1] - (k - 1) * b[n - 1]


class TestMatrices:
    def test_a_matrix_first_power(self):
        assert matrix_power(SequenceParams(2), 1) == Mat2(6, -1, 1, 0)

    def test_a_matrix_square_k2(self):
        assert matrix_power(SequenceParams(2), 2) == Mat2(35, -6, 6, -1)

    def test_a_matrix_square_k3(self):
        assert matrix_power(SequenceParams(3), 2) == Mat2(79, -18, 9, -2)

    def test_r_matrix_square_k2(self):
        assert r_matrix(SequenceParams(2), 2) == Mat2(99, -17, 17, -3)

    def test_r_matrix_square_k3(self):
        assert r_matrix(SequenceParams(3), 2) == Mat2(219, -50, 25, -6)

    @pytest.mark.parametrize("bad_n", [0, -1])
    def test_index_below_one_rejected(self, bad_n):
        with pytest.raises(ValueError):
            matrix_power(SequenceParams(2), bad_n)
        with pytest.raises(ValueError):
            r_matrix(SequenceParams(2), bad_n)

    @pytest.mark.parametrize("n", [2.5, "3", True])
    def test_non_int_index_rejected(self, n):
        # 2.5 once raised AttributeError, "3" a TypeError, and mat_pow(m, True)
        # returned m
        for power in (matrix_power, r_matrix):
            with pytest.raises(ValueError, match=r"^n must be an int >= 1, got "):
                power(SequenceParams(2), n)
        with pytest.raises(ValueError, match=r"^exponent must be an int >= 0, got "):
            mat_pow(Mat2(3, 1, 4, 1), n)

    def test_a_and_r_commute(self):
        for k in (1, 2, 5, 11):
            a, r = a_matrix(SequenceParams(k)), r_base_matrix(SequenceParams(k))
            assert a @ r == r @ a

    @pytest.mark.parametrize("k", range(1, 11))
    def test_determinant_power_law(self, k):
        params = SequenceParams(k)
        for n in range(1, 101):
            assert det(matrix_power(params, n)) == (k - 1) ** n

    @pytest.mark.parametrize("k", range(1, 9))
    def test_entries_match_terms(self, k):
        params = SequenceParams(k)
        b, c = oracle_b(k, 62), oracle_c(k, 62)
        for n in range(1, 61):
            assert matrix_power(params, n) == Mat2(
                b[n + 1], (1 - k) * b[n], b[n], (1 - k) * b[n - 1]
            )
            assert r_matrix(params, n) == Mat2(
                c[n + 1], (1 - k) * c[n], c[n], (1 - k) * c[n - 1]
            )

    def test_fields_and_equality(self):
        m = Mat2(3, -1, 4, 1)
        assert (m.a11, m.a12, m.a21, m.a22) == (3, -1, 4, 1)
        assert m == Mat2(3, -1, 4, 1) and m != Mat2(3, -1, 4, 2)
        assert hash(m) == hash(Mat2(3, -1, 4, 1))
        assert Mat2.identity(Decimal(1)) == Mat2(1, 0, 0, 1)

    def test_mat_pow_identity(self):
        assert mat_pow(Mat2(3, 1, 4, 1), 0) == Mat2.identity()

    def test_mat_pow_matches_repeated_product_for_general_matrix(self):
        m = Mat2(3, -1, 4, 1)
        power = Mat2.identity()
        for n in range(65):
            assert mat_pow(m, n) == power
            power = power @ m


class TestTables:
    def test_b_table_prefixes(self):
        assert b_table(SequenceParams(2), 5) == [0, 1, 6, 35, 204, 1189]
        assert b_table(SequenceParams(2), 0) == [0]
        assert b_table(SequenceParams(2), 1) == [0, 1]

    def test_c_table_prefixes(self):
        assert c_table(SequenceParams(3), 3) == [1, 3, 25, 219]
        assert c_table(SequenceParams(3), 0) == [1]

    @pytest.mark.parametrize("fn", [b_table, c_table])
    @pytest.mark.parametrize("k", range(1, 13))
    def test_decimal_text_equals_int_path(self, fn, k):
        params = SequenceParams(k)
        want = fn(params, 3000)
        got = fn(params, 3000, one=Decimal(1))
        assert [decimal_str(x) for x in got] == [decimal_str(x) for x in want]

    @pytest.mark.parametrize("fn", [b_table, c_table])
    @pytest.mark.parametrize("k", range(1, 13))
    def test_windows_are_slices_of_the_full_table(self, fn, k):
        params = SequenceParams(k)
        full = fn(params, 3004)
        for start in (1, 2, 17, 2999):
            assert fn(params, 3000, start=start) == full[start:3001], start
            assert fn(params, start + 5, start=start) == full[start:start + 6], start
            assert fn(params, start, start=start) == [full[start]], start
        window = fn(params, 3000, start=2999, one=Decimal(1))
        assert [decimal_str(x) for x in window] == [decimal_str(x) for x in full[2999:3001]]

    @pytest.mark.parametrize("fn", [b_table, c_table])
    @pytest.mark.parametrize("start", [0, 1])
    def test_type_follows_one(self, fn, start):
        params = SequenceParams(3)
        for n_max in (start, 1):
            assert {type(x) for x in fn(params, n_max, start=start)} == {int}
            decimals = fn(params, n_max, start=start, one=Decimal(1))
            assert {type(x) for x in decimals} == {Decimal}

    @pytest.mark.parametrize("fn", [b_table, c_table])
    def test_window_outside_the_table_rejected(self, fn):
        with pytest.raises(ValueError, match="start"):
            fn(SequenceParams(2), 5, start=6)
        with pytest.raises(ValueError, match="start"):
            fn(SequenceParams(2), 5, start=-1)
        with pytest.raises(ValueError, match="n must be >= 0"):
            fn(SequenceParams(2), -1)

    @pytest.mark.parametrize("fn", [b_table, c_table])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_window_seeded_from_a_given_pair(self, fn, k):
        params = SequenceParams(k)
        b = oracle_b(k, 1001)
        for start in (1, 2, 999):
            for one in (1, Decimal(1)):
                pair = window_pair(params, start, one=one)
                assert pair == (b[start], b[start + 1])
                assert {type(x) for x in pair} == {type(one)}
                window = fn(params, start + 2, start=start, one=one, pair=pair)
                assert window == fn(params, start + 2, start=start, one=one)
                assert {type(x) for x in window} == {type(one)}

    def test_window_pair_rejects_a_negative_start(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            window_pair(SequenceParams(2), -1)

    @pytest.mark.parametrize("fn, oracle", [(b_table, oracle_b), (c_table, oracle_c)])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_start_zero_seed_multiplies_no_two_terms(self, fn, oracle, k):
        # a one-term window is its seed alone: at start 0 the seed costs no
        # product, where a later start pays for its doubling pair
        for start, products_made in ((0, False), (40, True)):
            counted, products = counting_type()
            (term,) = fn(SequenceParams(k), start, start=start, one=counted(1))
            assert term.value == oracle(k, start)[start]
            assert bool(products) is products_made, start

    @pytest.mark.parametrize("fn", [b_table, c_table])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_given_pair_seeds_start_zero_as_any_start(self, fn, k):
        params = SequenceParams(k)
        for pair in ((2, 7), (0, 1), (-5, 3)):
            at_zero = fn(params, 4, pair=pair)
            for start in (1, 9):
                assert fn(params, start + 4, start=start, pair=pair) == at_zero, (pair, start)
