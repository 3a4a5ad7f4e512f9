"""Four independent engines for B_{k,n} and C_{k,n}.

B satisfies B_n = 3k*B_{n-1} + (1-k)*B_{n-2} with B_0 = 0, B_1 = 1; the
companion C shares the recurrence with seeds C_0 = 1, C_1 = 3.  Each engine
takes a different route to the same integers:

  iterative  - runs the recurrence, two terms at a time (linear in n,
               capped to avoid accidental quadratic bignum blowups);
  matrix     - top-down binary powers of A = [[3k, 1-k], [1, 0]], reading
               B_n off A^n and C_n off R*A^n with R = [[3, 1-k], [1, 3(1-k)]];
  binet      - coordinates of alpha^n in the quadratic ring (ring module);
  doubling   - the division-free index-doubling pair
               B_{2n} = 2*B_n*B_{n+1} - 3k*B_n^2,
               B_{2n+1} = B_{n+1}^2 + (1-k)*B_n^2.

The doubling pair state is (B_n, B_{n+1}) rather than the (B_{n-1}, B_n,
B_{n+1}) window, so no division by (1-k) is ever needed and k = 1 works
uniformly.  C reduces to B via C_n = B_{n+1} + 3(1-k)*B_n everywhere except
the matrix engine, which exercises the R*A^n representation directly.

Every engine is generic over the number type: its loop uses only + - * with
small int constants, and its seeds are built from the `one` that `term_b`,
`term_c`, `b_table` and `c_table` take, so the terms come back as the type
of `one`.  The default is int.  With `one=Decimal(1)` the multiplications
run in libmpdec (number-theoretic transforms for big operands, where
CPython's int uses Karatsuba) and the result prints in linear time; the
engines then compute inside `decimal_io.exact_context()`, so the caller's
decimal context can never round a term.

`b_table` and `c_table` also take a keyword-only `start`: a window
start..n_max is seeded from the doubling pair at `start`, so the terms
below it are neither computed nor held.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator

from .decimal_io import arithmetic_context
from .ring import SequenceParams, alpha_power_components, check_exponent, is_int

ITERATIVE_CAP_DEFAULT = 100_000


class IterativeCapError(ValueError):
    """Raised when the iterative engine is asked for an index over its cap."""


class Engine(enum.Enum):
    ITERATIVE = "iterative"
    MATRIX = "matrix"
    BINET = "binet"
    FAST_DOUBLING = "doubling"


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over an exact number type: int, or Decimal holding integers.

    The product and the square use only + - *, so they keep the entries'
    type; a Decimal matrix must be multiplied in `exact_context()`.
    """

    a11: int
    a12: int
    a21: int
    a22: int

    @classmethod
    def identity(cls, one=1) -> Mat2:
        return cls(one, 0 * one, 0 * one, one)

    def __matmul__(self, other: Mat2) -> Mat2:
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )


def _mat_square(m: Mat2) -> Mat2:
    """m @ m from 5 products: the a12*a21 and trace terms are shared."""
    cross = m.a12 * m.a21
    trace = m.a11 + m.a22
    return Mat2(m.a11 * m.a11 + cross, m.a12 * trace, m.a21 * trace, m.a22 * m.a22 + cross)


def mat_pow(m: Mat2, n: int) -> Mat2:
    """m^n by left-to-right binary powers.

    Each step squares the running power and, on a set bit of n, multiplies
    it by m itself; for the small A of the matrix engine that product costs
    linear time, where right-to-left powering multiplies two big matrices.
    """
    check_exponent(n)
    if n == 0:
        return Mat2.identity(type(m.a11)(1))  # the unit of the entries' type
    result = m
    for shift in range(n.bit_length() - 2, -1, -1):
        result = _mat_square(result)
        if (n >> shift) & 1:
            result = result @ m
    return result


def a_matrix(params: SequenceParams, one=1) -> Mat2:
    """A = [[3k, 1-k], [1, 0]] with entries of the type of `one`."""
    k = params.k
    return Mat2(3 * k * one, (1 - k) * one, one, 0 * one)


def r_base_matrix(params: SequenceParams) -> Mat2:
    k = params.k
    return Mat2(3, 1 - k, 1, 3 * (1 - k))


def check_iterative_cap(cap: int) -> None:
    """Reject a negative iterative cap, which no index could satisfy."""
    if cap < 0:
        raise ValueError("iterative cap must be >= 0")


def _check_n(n: int) -> None:
    if not is_int(n):
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 0:
        raise ValueError("n must be >= 0 (use term_b_negative for negative indices)")


def _recurrence(k: int, x0: int, x1: int) -> Iterator[int]:
    """X_0, X_1, ... of X_n = 3k*X_{n-1} + (1-k)*X_{n-2} from the seeds x0, x1.

    Only two terms are held at a time, so reading the n-th term takes
    memory for two values, not for n + 1.
    """
    prev, cur = x0, x1
    # the constants in the seeds' type: a Decimal step then converts no int
    trace, minus_norm = type(x1)(3 * k), type(x1)(1 - k)
    while True:
        yield prev
        prev, cur = cur, trace * cur + minus_norm * prev


def _check_window(start: int, n_max: int) -> None:
    _check_n(n_max)
    if not is_int(start) or not 0 <= start <= n_max:
        raise ValueError(f"start must be in 0..n_max, got {start} for n_max {n_max}")


def b_table(params: SequenceParams, n_max: int, *, start: int = 0, one=1) -> list[int]:
    """B_{k,start..n_max} by the defining recurrence (the iterative engine in bulk).

    The terms are of the type of `one`.  At start 0 the recurrence runs
    from the seeds B_0, B_1; a later window starts from the doubling pair
    (B_start, B_start+1).
    """
    _check_window(start, n_max)
    k = params.k
    # the generator is drained inside the context, where its terms are made
    with arithmetic_context(one):
        seeds = _doubling_pair(k, start, one) if start else (0 * one, one)
        return list(islice(_recurrence(k, *seeds), n_max - start + 1))


def c_table(params: SequenceParams, n_max: int, *, start: int = 0, one=1) -> list[int]:
    """C_{k,start..n_max} by the defining recurrence, of the type of `one`.

    A window after start 0 is seeded with C_n = B_{n+1} + 3(1-k)*B_n at
    n = start and start + 1, from the doubling pair at `start`.
    """
    _check_window(start, n_max)
    k = params.k
    with arithmetic_context(one):
        if start:
            b_n, b_next = _doubling_pair(k, start, one)
            b_after = 3 * k * b_next + (1 - k) * b_n
            seeds = (b_next + 3 * (1 - k) * b_n, b_after + 3 * (1 - k) * b_next)
        else:
            seeds = (one, 3 * one)
        return list(islice(_recurrence(k, *seeds), n_max - start + 1))


def _doubling_pair(k: int, n: int, one=1) -> tuple[int, int]:
    """(B_n, B_{n+1}), of the type of `one`, by processing the bits of n from the top."""
    a, b = 0 * one, one
    for shift in range(n.bit_length() - 1, -1, -1):
        sq = a * a
        even = 2 * a * b - 3 * k * sq
        odd = b * b + (1 - k) * sq
        if (n >> shift) & 1:
            a, b = odd, 3 * k * odd + (1 - k) * even
        else:
            a, b = even, odd
    return a, b


def term_b(
    params: SequenceParams,
    n: int,
    engine: Engine = Engine.FAST_DOUBLING,
    iterative_cap: int = ITERATIVE_CAP_DEFAULT,
    *,
    one=1,
) -> int:
    """Exact B_{k,n} for n >= 0 via the chosen engine, of the type of `one`."""
    check_iterative_cap(iterative_cap)
    _check_n(n)
    if engine is Engine.ITERATIVE and n > iterative_cap:
        raise IterativeCapError(f"n={n} exceeds iterative cap {iterative_cap}")
    with arithmetic_context(one):
        if engine is Engine.ITERATIVE:
            return next(islice(_recurrence(params.k, 0 * one, one), n, None))
        if engine is Engine.MATRIX:
            return mat_pow(a_matrix(params, one), n).a21
        if engine is Engine.BINET:
            return alpha_power_components(params, n, one)[1]
        if engine is Engine.FAST_DOUBLING:
            return _doubling_pair(params.k, n, one)[0]
    raise ValueError(f"unknown engine {engine!r}")


def term_c(
    params: SequenceParams,
    n: int,
    engine: Engine = Engine.FAST_DOUBLING,
    iterative_cap: int = ITERATIVE_CAP_DEFAULT,
    *,
    one=1,
) -> int:
    """Exact C_{k,n} for n >= 0 via the chosen engine, of the type of `one`."""
    check_iterative_cap(iterative_cap)
    _check_n(n)
    if engine is Engine.ITERATIVE and n > iterative_cap:
        raise IterativeCapError(f"n={n} exceeds iterative cap {iterative_cap}")
    k = params.k
    with arithmetic_context(one):
        if engine is Engine.ITERATIVE:
            return next(islice(_recurrence(k, one, 3 * one), n, None))
        if engine is Engine.MATRIX:
            return (r_base_matrix(params) @ mat_pow(a_matrix(params, one), n)).a21
        if engine is Engine.BINET:
            # u + 3v = B_{n+1} + 3(1-k)*B_n via the recurrence
            u, v = alpha_power_components(params, n, one)
            return u + 3 * v
        if engine is Engine.FAST_DOUBLING:
            b_n, b_next = _doubling_pair(k, n, one)
            return b_next + 3 * (1 - k) * b_n
    raise ValueError(f"unknown engine {engine!r}")


def term_b_negative(params: SequenceParams, n: int) -> Fraction:
    """Exact B_{k,-n} = -B_{k,n} / (k-1)^n for n >= 1.

    Satisfies the backward recurrence B_{m-2} = (B_m - 3k*B_{m-1}) / (1-k);
    non-integral for k >= 3, equal to -B_{k,n} at k = 2.
    """
    if not is_int(n):
        raise ValueError(f"n must be an int, got {n!r}")
    if params.k == 1:
        raise ValueError("negative indices are undefined for k=1 (division by k-1)")
    if n < 1:
        raise ValueError("n must be >= 1 (term_b_negative returns B at index -n)")
    return Fraction(-term_b(params, n), (params.k - 1) ** n)


def matrix_power(params: SequenceParams, n: int) -> Mat2:
    """A^n for n >= 1; entries are [[B_{n+1}, (1-k)B_n], [B_n, (1-k)B_{n-1}]]."""
    if not is_int(n) or n < 1:
        raise ValueError(f"n must be an int >= 1, got {n!r}")
    return mat_pow(a_matrix(params), n)


def r_matrix(params: SequenceParams, n: int) -> Mat2:
    """R*A^n for n >= 1; entries are [[C_{n+1}, (1-k)C_n], [C_n, (1-k)C_{n-1}]]."""
    return r_base_matrix(params) @ matrix_power(params, n)
