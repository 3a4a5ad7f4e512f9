"""Exact arithmetic in the quadratic ring Z[alpha], alpha^2 = 3k*alpha - (k-1).

Elements are coordinate pairs (u, v) standing for u + v*alpha, where
alpha is the dominant root of x^2 - 3kx + (k-1).  The root itself is never
evaluated as a radical or a float: powers of alpha are computed by reducing
alpha^2 back into the {1, alpha} basis, which keeps every value exact at any
size and makes the closed-form route a genuinely independent engine.  The
coordinates of alpha^n recover the sequence directly: v = B_{k,n}.

The coordinates are exact integers of one number type, int by default.
Multiplication uses only + - * with small int constants, so it keeps that
type; `alpha_power_components(..., one=Decimal(1))` computes in Decimal,
which must then run in `decimal_io.exact_context()` (as `term_b` and
`term_c` arrange).
"""

from __future__ import annotations

from typing import NamedTuple


def is_int(value) -> bool:
    """Whether value is an int and not a bool: an index or a k, exactly."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_exponent(n) -> None:
    """Reject an exponent that is not an int >= 0, a bool included."""
    if not is_int(n) or n < 0:
        raise ValueError(f"exponent must be an int >= 0, got {n!r}")


class SequenceParams:
    """The family parameter k >= 1 plus the derived characteristic data.

    Immutable, and equal and hashed by k.  A `__slots__` class rather than
    a frozen dataclass, because `dataclasses` imports `inspect` and every
    CLI command would pay for that at start-up.
    """

    __slots__ = ("k",)

    def __init__(self, k: int) -> None:
        if not is_int(k):
            raise ValueError(f"k must be an int, got {k!r}")
        if k < 1:
            raise ValueError("k must be >= 1")
        object.__setattr__(self, "k", k)

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.k == other.k
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.k,))

    def __repr__(self) -> str:
        return f"SequenceParams(k={self.k!r})"

    def __reduce__(self):
        # rebuilt through __init__: the default would restore k by setattr
        return SequenceParams, (self.k,)

    @property
    def trace(self) -> int:
        """alpha + beta = 3k."""
        return 3 * self.k

    @property
    def norm(self) -> int:
        """alpha * beta = k - 1 (zero exactly in the degenerate case k = 1)."""
        return self.k - 1


class RingElement(NamedTuple):
    """u + v*alpha with exact integer coordinates, int or integral Decimal."""

    u: int
    v: int
    params: SequenceParams

    @classmethod
    def one(cls, params: SequenceParams, one=1) -> RingElement:
        return cls(one, 0 * one, params)

    @classmethod
    def alpha(cls, params: SequenceParams, one=1) -> RingElement:
        return cls(0 * one, one, params)


def ring_mul(a: RingElement, b: RingElement) -> RingElement:
    """Multiply, reducing alpha^2 = 3k*alpha - (k-1) back into the basis."""
    if a.params != b.params:
        raise ValueError(f"parameter mismatch: k={a.params.k} vs k={b.params.k}")
    k = a.params.k
    vv = a.v * b.v
    return RingElement(
        a.u * b.u - (k - 1) * vv,
        a.u * b.v + b.u * a.v + 3 * k * vv,
        a.params,
    )


def _ring_square(a: RingElement) -> RingElement:
    """ring_mul(a, a) from three products: the cross term u*v is shared."""
    k = a.params.k
    vv = a.v * a.v
    return RingElement(a.u * a.u - (k - 1) * vv, 2 * a.u * a.v + 3 * k * vv, a.params)


def ring_pow_counted(a: RingElement, n: int) -> tuple[RingElement, int]:
    """a^n by left-to-right binary powers, returning the ring-multiplication count.

    Each step squares the running power and, on a set bit of n, multiplies
    it by a itself, which for a = alpha costs linear time.  For n >= 1 the
    count is (bit_length(n) - 1) squarings plus (popcount(n) - 1) products,
    at most 2*floor(log2(n)), which is what keeps the closed-form engine
    logarithmic in n.
    """
    check_exponent(n)
    if n == 0:
        return RingElement.one(a.params, type(a.u)(1)), 0  # the coordinates' unit
    result = a
    count = 0
    for shift in range(n.bit_length() - 2, -1, -1):
        result = _ring_square(result)
        count += 1
        if (n >> shift) & 1:
            result = ring_mul(result, a)
            count += 1
    return result, count


def ring_pow(a: RingElement, n: int) -> RingElement:
    """a^n with a^0 = (1, 0), valid for every k >= 1 including k = 1."""
    result, _ = ring_pow_counted(a, n)
    return result


def alpha_power_components(params: SequenceParams, n: int, one=1) -> tuple[int, int]:
    """Coordinates (u, v) of alpha^n in the basis {1, alpha}, of the type of `one`.

    v is B_{k,n}; u is (1-k)*B_{k,n-1} for n >= 1; and alpha^n + beta^n
    equals 2u + 3k*v because the conjugate power is u + v*beta.
    """
    power = ring_pow(RingElement.alpha(params, one), n)
    return power.u, power.v
