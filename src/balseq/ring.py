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
Decimal, which must then run in `decimal_io.exact_context()` (as `term_b`
and `term_c` arrange).
"""

from __future__ import annotations


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
    if n == 0:
        return one, 0 * one
    k = params.k
    u, v = 0 * one, one
    for shift in range(n.bit_length() - 2, -1, -1):
        vv = v * v
        u, v = u * u - (k - 1) * vv, 2 * (u * v) + 3 * k * vv
        if (n >> shift) & 1:
            u, v = (1 - k) * v, u + 3 * k * v
    return u, v
