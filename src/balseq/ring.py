"""Exact arithmetic in the quadratic ring Z[alpha], alpha^2 = 3k*alpha - (k-1).

Elements are integer coordinate pairs (u, v) standing for u + v*alpha, where
alpha is the dominant root of x^2 - 3kx + (k-1).  The root itself is never
evaluated as a radical or a float: powers of alpha are computed by reducing
alpha^2 back into the {1, alpha} basis, which keeps every value exact at any
size and makes the closed-form route a genuinely independent engine.  The
coordinates of alpha^n recover the sequence directly: v = B_{k,n}.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SequenceParams:
    """The family parameter k >= 1 plus the derived characteristic data."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @property
    def trace(self) -> int:
        """alpha + beta = 3k."""
        return 3 * self.k

    @property
    def norm(self) -> int:
        """alpha * beta = k - 1 (zero exactly in the degenerate case k = 1)."""
        return self.k - 1


@dataclass(frozen=True)
class RingElement:
    """u + v*alpha with exact integer coordinates."""

    u: int
    v: int
    params: SequenceParams

    @classmethod
    def one(cls, params: SequenceParams) -> RingElement:
        return cls(1, 0, params)

    @classmethod
    def alpha(cls, params: SequenceParams) -> RingElement:
        return cls(0, 1, params)

    def __mul__(self, other: RingElement) -> RingElement:
        if not isinstance(other, RingElement):
            return NotImplemented
        return ring_mul(self, other)

    def __pow__(self, n: int) -> RingElement:
        return ring_pow(self, n)


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
    if n < 0:
        raise ValueError("exponent must be >= 0")
    if n == 0:
        return RingElement.one(a.params), 0
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


def alpha_power_components(params: SequenceParams, n: int) -> tuple[int, int]:
    """Coordinates (u, v) of alpha^n in the basis {1, alpha}.

    v is B_{k,n}; u is (1-k)*B_{k,n-1} for n >= 1; and alpha^n + beta^n
    equals 2u + 3k*v because the conjugate power is u + v*beta.
    """
    if n < 0:
        raise ValueError("exponent must be >= 0")
    power = ring_pow(RingElement.alpha(params), n)
    return power.u, power.v
