import math
import random

import pytest

from balseq.ring import (
    RingElement,
    SequenceParams,
    alpha_power_components,
    ring_mul,
    ring_pow,
    ring_pow_counted,
)

from conftest import oracle_b


def discriminant(p: SequenceParams) -> int:
    """trace^2 - 4*norm = 9k^2 - 4k + 4."""
    return 9 * p.k * p.k - 4 * p.k + 4


def conj(x: RingElement) -> RingElement:
    """Map alpha to the other root beta = 3k - alpha."""
    return RingElement(x.u + x.params.trace * x.v, -x.v, x.params)


def norm(x: RingElement) -> int:
    """Product with the conjugate: u^2 + 3k*uv + (k-1)*v^2."""
    k = x.params.k
    return x.u * x.u + 3 * k * x.u * x.v + (k - 1) * x.v * x.v


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


class TestRingMul:
    def test_alpha_squared_satisfies_characteristic_equation(self):
        # k=2: alpha^2 = 6*alpha - 1
        p = SequenceParams(2)
        a = RingElement.alpha(p)
        assert ring_mul(a, a) == RingElement(-1, 6, p)

    def test_one_is_multiplicative_identity(self):
        p = SequenceParams(7)
        x = RingElement(123456, -98765, p)
        assert ring_mul(RingElement.one(p), x) == x
        assert ring_mul(x, RingElement.one(p)) == x

    def test_alpha_cubed_carries_b3(self):
        # k=2: alpha^3 = 35*alpha - 6 and 35 is B_{2,3} from the value table
        p = SequenceParams(2)
        sq = RingElement(-1, 6, p)
        assert ring_mul(sq, RingElement.alpha(p)) == RingElement(-6, 35, p)

    def test_parameter_mismatch_rejected(self):
        with pytest.raises(ValueError, match="parameter mismatch"):
            ring_mul(RingElement.alpha(SequenceParams(2)), RingElement.alpha(SequenceParams(3)))

    def test_operator_spelling(self):
        p = SequenceParams(3)
        a = RingElement.alpha(p)
        assert a * a == ring_mul(a, a)
        assert a**4 == ring_pow(a, 4)


class TestRingPow:
    def test_zeroth_power_is_one(self):
        for k in (1, 2, 9):
            p = SequenceParams(k)
            assert ring_pow(RingElement(5, -3, p), 0) == RingElement.one(p)

    def test_alpha_cubed_k2(self):
        p = SequenceParams(2)
        assert ring_pow(RingElement.alpha(p), 3) == RingElement(-6, 35, p)

    def test_alpha_fourth_k3_v_part_is_b4(self):
        # B_{3,4} = 693 from the value table
        p = SequenceParams(3)
        assert ring_pow(RingElement.alpha(p), 4).v == 693

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            ring_pow(RingElement.alpha(SequenceParams(2)), -1)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 64, 65, 1000, 12345])
    def test_multiplication_count_logarithmic(self, n):
        p = SequenceParams(4)
        _, count = ring_pow_counted(RingElement.alpha(p), n)
        assert count <= 2 * math.ceil(math.log2(n + 1)) + 2

    @pytest.mark.parametrize("j", range(1, 21))
    def test_multiplication_count_at_powers_of_two(self, j):
        # n = 2^j - 1 takes j-1 squarings and j-1 products by the base, the
        # most for its bit length; n = 2^j takes j squarings and no product
        a = RingElement.alpha(SequenceParams(3))
        for n, expected in ((2**j - 1, 2 * (j - 1)), (2**j, j)):
            _, count = ring_pow_counted(a, n)
            assert count == expected <= 2 * math.floor(math.log2(n))

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_matches_repeated_product_for_general_base(self, k):
        p = SequenceParams(k)
        x = RingElement(-2, 5, p)
        power = RingElement.one(p)
        for n in range(65):
            assert ring_pow(x, n) == power
            power = ring_mul(power, x)

    def test_counted_matches_uncounted(self):
        p = SequenceParams(5)
        x = RingElement(2, 7, p)
        assert ring_pow_counted(x, 38)[0] == ring_pow(x, 38)


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
            assert norm(RingElement.alpha(p)) == p.norm == k - 1

    def test_norm_multiplicative_on_random_elements(self):
        rng = random.Random(20260811)
        for _ in range(300):
            k = rng.randint(1, 12)
            p = SequenceParams(k)
            a = RingElement(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6), p)
            b = RingElement(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6), p)
            assert norm(ring_mul(a, b)) == norm(a) * norm(b)

    def test_conjugate_coordinates(self):
        p = SequenceParams(5)
        x = RingElement(4, -9, p)
        assert conj(x) == RingElement(4 + 15 * (-9), 9, p)

    def test_product_with_conjugate_is_rational(self):
        rng = random.Random(7)
        for _ in range(100):
            p = SequenceParams(rng.randint(1, 10))
            x = RingElement(rng.randint(-500, 500), rng.randint(-500, 500), p)
            product = ring_mul(x, conj(x))
            assert product.v == 0
            assert product.u == norm(x)
