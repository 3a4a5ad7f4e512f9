import copy
import math
import pickle
import random
from decimal import Decimal

import pytest

from balseq.ring import SequenceParams, alpha_power_components

from conftest import counting_type, oracle_b


def discriminant(p: SequenceParams) -> int:
    """trace^2 - 4*norm = 9k^2 - 4k + 4."""
    return 9 * p.k * p.k - 4 * p.k + 4


def mul(k: int, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """(u + v*alpha)(s + t*alpha), reduced by alpha^2 = 3k*alpha - (k-1)."""
    (u, v), (s, t) = x, y
    return u * s - (k - 1) * v * t, u * t + v * s + 3 * k * v * t


def conj(k: int, x: tuple[int, int]) -> tuple[int, int]:
    """Map alpha to the other root beta = 3k - alpha."""
    u, v = x
    return u + 3 * k * v, -v


def norm(k: int, x: tuple[int, int]) -> int:
    """Product with the conjugate: u^2 + 3k*uv + (k-1)*v^2."""
    u, v = x
    return u * u + 3 * k * u * v + (k - 1) * v * v


class TestSequenceParams:
    def test_derived_constants(self):
        p = SequenceParams(2)
        assert (p.trace, p.norm, discriminant(p)) == (6, 1, 36 - 8 + 4)

    @pytest.mark.parametrize("k", range(1, 30))
    def test_discriminant_positive_and_consistent(self, k):
        p = SequenceParams(k)
        assert discriminant(p) == p.trace**2 - 4 * p.norm
        assert discriminant(p) > 0

    def test_norm_zero_exactly_at_k1(self):
        assert SequenceParams(1).norm == 0
        assert all(SequenceParams(k).norm != 0 for k in range(2, 20))

    @pytest.mark.parametrize("k", [0, -1, -7])
    def test_rejects_k_below_one(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            SequenceParams(k)

    @pytest.mark.parametrize("k, message", [
        (0, "k must be >= 1"),
        (2.5, "k must be an int, got 2.5"),
        (True, "k must be an int, got True"),
    ])
    def test_rejection_messages(self, k, message):
        with pytest.raises(ValueError) as caught:
            SequenceParams(k)
        assert str(caught.value) == message

    def test_immutable(self):
        p = SequenceParams(3)
        with pytest.raises(AttributeError):
            p.k = 4
        with pytest.raises(AttributeError):
            del p.k
        assert p.k == 3

    def test_equal_and_hashed_by_k(self):
        assert SequenceParams(3) == SequenceParams(k=3)
        assert hash(SequenceParams(3)) == hash(SequenceParams(3))
        assert SequenceParams(3) != SequenceParams(4)
        assert SequenceParams(3) != 3
        assert len({SequenceParams(3), SequenceParams(3), SequenceParams(4)}) == 2

    def test_repr(self):
        assert repr(SequenceParams(3)) == "SequenceParams(k=3)"

    def test_copies_and_pickles_equal(self):
        p = SequenceParams(5)
        assert copy.copy(p) == copy.deepcopy(p) == pickle.loads(pickle.dumps(p)) == p


class TestRingMul:
    """The reduction alpha^2 = 3k*alpha - (k-1), as the powering applies it."""

    def test_alpha_squared_satisfies_characteristic_equation(self):
        # k=2: alpha^2 = 6*alpha - 1
        for k in range(1, 13):
            assert alpha_power_components(SequenceParams(k), 2) == (1 - k, 3 * k)

    def test_alpha_cubed_carries_b3(self):
        # alpha^3 = alpha^2 * alpha = (1-k)*3k + (9k^2 - (k-1))*alpha
        for k in range(1, 13):
            u, v = alpha_power_components(SequenceParams(k), 3)
            assert (u, v) == ((1 - k) * 3 * k, 9 * k * k - (k - 1))
            assert v == oracle_b(k, 3)[3]


class TestRingPow:
    """alpha^n by left-to-right binary powers of the coordinate pair."""

    def test_zeroth_power_is_one(self):
        for k in (1, 2, 9):
            p = SequenceParams(k)
            assert alpha_power_components(p, 0) == (1, 0)
            u, v = alpha_power_components(p, 0, one=Decimal(1))
            assert (type(u), type(v), u, v) == (Decimal, Decimal, 1, 0)

    def test_alpha_cubed_k2(self):
        assert alpha_power_components(SequenceParams(2), 3) == (-6, 35)

    def test_alpha_fourth_k3_v_part_is_b4(self):
        # B_{3,4} = 693 from the value table
        assert alpha_power_components(SequenceParams(3), 4)[1] == 693

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match=r"^exponent must be an int >= 0, got -1$"):
            alpha_power_components(SequenceParams(2), -1)

    @pytest.mark.parametrize("n", [2.5, "3", True])
    def test_non_int_exponent_rejected(self, n):
        # 2.5 once raised AttributeError, "3" a TypeError, and True gave alpha
        with pytest.raises(ValueError, match=r"^exponent must be an int >= 0, got "):
            alpha_power_components(SequenceParams(2), n)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 64, 65, 1000, 12345])
    def test_multiplication_count_logarithmic(self, n):
        # 3 products of two coordinates per squaring, none per step by alpha
        counted, products = counting_type()
        alpha_power_components(SequenceParams(4), n, one=counted(1))
        assert len(products) == 3 * max(n.bit_length() - 1, 0) <= 3 * math.ceil(math.log2(n + 1))

    @pytest.mark.parametrize("j", range(1, 21))
    def test_multiplication_count_at_powers_of_two(self, j):
        # n = 2^j - 1 takes j-1 squarings and j-1 steps by alpha, n = 2^j
        # takes j squarings and no step: only the squarings make products
        p = SequenceParams(3)
        for n, expected in ((2**j - 1, 3 * (j - 1)), (2**j, 3 * j)):
            counted, products = counting_type()
            alpha_power_components(p, n, one=counted(1))
            assert len(products) == expected <= 3 * math.floor(math.log2(n))

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_matches_repeated_product_by_alpha(self, k):
        p = SequenceParams(k)
        power = (1, 0)
        for n in range(65):
            assert alpha_power_components(p, n) == power
            power = mul(k, power, (0, 1))

    def test_counted_matches_uncounted(self):
        p = SequenceParams(5)
        counted, _ = counting_type()
        u, v = alpha_power_components(p, 38, one=counted(1))
        assert (u.value, v.value) == alpha_power_components(p, 38)


class TestAlphaPowerComponents:
    def test_first_power(self):
        assert alpha_power_components(SequenceParams(6), 1) == (0, 1)

    def test_k2_square_and_power_sum(self):
        # (u, v) = (-1, 6); alpha^2 + beta^2 = 2u + 3kv = 34 = (3k)^2 - 2(k-1)
        u, v = alpha_power_components(SequenceParams(2), 2)
        assert (u, v) == (-1, 6)
        assert 2 * u + 6 * v == 34

    def test_k4_cube_v_part_is_b3(self):
        # B_{4,3} = 141 from the value table
        assert alpha_power_components(SequenceParams(4), 3)[1] == 141

    @pytest.mark.parametrize("k", range(1, 13))
    def test_v_part_equals_recurrence_values_to_300(self, k):
        b = oracle_b(k, 300)
        p = SequenceParams(k)
        for n in range(301):
            assert alpha_power_components(p, n)[1] == b[n]


class TestNormAndConjugate:
    def test_norm_of_alpha_is_ring_norm(self):
        for k in range(1, 13):
            p = SequenceParams(k)
            assert norm(k, alpha_power_components(p, 1)) == p.norm == k - 1

    @pytest.mark.parametrize("k", range(1, 13))
    def test_norm_of_alpha_power_is_power_of_norm(self, k):
        # alpha^n * beta^n = (k-1)^n, with 0^0 = 1 at k = 1
        p = SequenceParams(k)
        for n in range(301):
            assert norm(k, alpha_power_components(p, n)) == (k - 1) ** n

    def test_norm_multiplicative_on_random_elements(self):
        # the elements are powers of alpha at random k and exponents
        rng = random.Random(20260811)
        for _ in range(300):
            k = rng.randint(1, 12)
            p = SequenceParams(k)
            m, n = rng.randint(0, 200), rng.randint(0, 200)
            a, b = alpha_power_components(p, m), alpha_power_components(p, n)
            assert norm(k, mul(k, a, b)) == norm(k, a) * norm(k, b)
            assert mul(k, a, b) == alpha_power_components(p, m + n)

    def test_conjugate_coordinates(self):
        assert conj(5, (4, -9)) == (4 + 15 * (-9), 9)

    def test_product_with_conjugate_is_rational(self):
        rng = random.Random(7)
        for _ in range(100):
            k = rng.randint(1, 10)
            x = alpha_power_components(SequenceParams(k), rng.randint(0, 200))
            assert mul(k, x, conj(k, x)) == (norm(k, x), 0)
