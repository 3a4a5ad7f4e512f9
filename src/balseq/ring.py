"""Powers of alpha in the quadratic ring Z[alpha], alpha^2 = 3k*alpha - (k-1).

alpha is the dominant root of x^2 - 3kx + (k-1), and an element of the ring
is a coordinate pair (u, v) standing for u + v*alpha.  The root itself is
never evaluated as a radical or a float: `alpha_power_components` powers
alpha by reducing alpha^2 back into the {1, alpha} basis, which keeps every
value exact at any size and makes the closed-form route a genuinely
independent engine.  The coordinates of alpha^n recover the sequence
directly: v = B_{k,n}.  Its callers, the binet engine and the power-sum
row, read only the coordinates of alpha^n, so no general element is ever
multiplied and the module has no ring-element type.

The coordinates are exact integers of one number type, int by default.
The powering loop uses only + - * with small int constants, so it keeps
that type; `alpha_power_components(..., one=Decimal(1))` computes in
Decimal, inside `decimal_io.exact_context()`, so the caller's decimal
context never rounds a coordinate.
"""

from __future__ import annotations

from typing import NamedTuple

from .decimal_io import arithmetic_context


def is_int(value) -> bool:
    """Whether value is an int and not a bool: an index or a k, exactly."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_exponent(n) -> None:
    """Reject an exponent that is not an int >= 0, a bool included."""
    if not is_int(n) or n < 0:
        raise ValueError(f"exponent must be an int >= 0, got {n!r}")


class SequenceParams(NamedTuple("SequenceParams", [("k", int)])):
    """The family parameter k >= 1 plus the derived characteristic data.

    A named tuple of k: immutable, equal and hashed by k, and rebuilt
    through `__new__`, so checked again, when it is copied or unpickled.
    Like any tuple it also equals the plain tuple (k,).
    """

    __slots__ = ()

    def __new__(cls, k: int) -> SequenceParams:
        if not is_int(k):
            raise ValueError(f"k must be an int, got {k!r}")
        if k < 1:
            raise ValueError("k must be >= 1")
        return super().__new__(cls, k)

    @classmethod
    def _make(cls, iterable) -> SequenceParams:
        # through __new__, so _make and _replace check k as well
        return cls(*iterable)

    @property
    def trace(self) -> int:
        """alpha + beta = 3k."""
        return 3 * self.k

    @property
    def norm(self) -> int:
        """alpha * beta = k - 1 (zero exactly in the degenerate case k = 1)."""
        return self.k - 1


def alpha_power_components(params: SequenceParams, n: int, one=1) -> tuple[int, int]:
    """Coordinates (u, v) of alpha^n in the basis {1, alpha}, of the type of `one`.

    v is B_{k,n}; u is (1-k)*B_{k,n-1} for n >= 1; and alpha^n + beta^n
    equals 2u + 3k*v because the conjugate power is u + v*beta.

    Left-to-right binary powering (Knuth, TAOCP vol. 2, 4.6.3): each step
    squares u + v*alpha from the three products u*u, v*v and u*v, then on a
    set bit of n multiplies by alpha, (u, v) -> ((1-k)*v, u + 3k*v), which
    costs linear time.  So alpha^n takes 3*(bit_length(n) - 1) products of
    two coordinates for n >= 1, which keeps the closed-form engine
    logarithmic in n.
    """
    check_exponent(n)
    k = params.k
    with arithmetic_context(one):
        if n == 0:
            return one, 0 * one
        u, v = 0 * one, one
        for shift in range(n.bit_length() - 2, -1, -1):
            vv = v * v
            u, v = u * u - (k - 1) * vv, 2 * (u * v) + 3 * k * vv
            if (n >> shift) & 1:
                u, v = (1 - k) * v, u + 3 * k * v
    return u, v
