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

The matrices are `Mat2` values: `a_matrix` builds A, `r_base_matrix` builds
R, and `mat_pow` is the one routine that powers A, for the matrix engine
and for the identities' matrix rows alike.

The doubling pair state is (B_n, B_{n+1}) rather than the (B_{n-1}, B_n,
B_{n+1}) window, so no division by (1-k) is ever needed and k = 1 works
uniformly.  The iterative engine runs C's own recurrence from the seeds
(1, 3), and the matrix engine reads C_n off R*A^n directly.  Binet and
doubling reduce C to B: C_n = u + 3v for alpha^n = u + v*alpha, and
C_n = B_{n+1} + 3(1-k)*B_n.

`term_b` and `term_c` are one body, `_term`, which differs between B and C
only in the iterative seeds and in each engine's last step.  On the three
logarithmic engines it powers only to m = n >> 1 and then computes the one
term it returns, because that last squaring has the largest operands and
costs about as much as all the steps before it.  Each engine takes the entry
it needs from the general product of its own representation, restricted to
that entry, for B and for C side by side:

  matrix     - the a21 entry of P@P (B_{2m}) or P@P@A (B_{2m+1}) for
               P = A^m, and of R@P@P or R@P@P@A for C;
  binet      - the alpha coordinate of (u + v*alpha)^2, or of that times
               alpha, for B, and u + 3v of it for C, where u + v*alpha is
               alpha^m;
  doubling   - B_{2m} = B_m*(2B_{m+1} - 3k*B_m), B_{2m+1} = B_{m+1}^2 +
               (1-k)*B_m^2, and with C_m = B_{m+1} + 3(1-k)*B_m,
               C_{2m} = C_m^2 + 8(k-1)*B_m^2 and
               C_{2m+1} = C_m*(3B_{m+1} + (1-k)*B_m) + 8(k-1)*B_m*B_{m+1}
               (at k = 2, C_{2n} = C_n^2 + 8B_n^2 of the balancing-Lucas
               numbers).

The step makes 1-4 products of full size on matrix and 1-2 on binet and
doubling.  A small constant multiplies a square once it is taken, as in
(1-k)*(a*a): a product of one value with itself is a squaring, which
libmpdec (like CPython's int) runs faster than a general product: 27 ms
against 39 ms for a 350k-digit Decimal on a 2-core x86-64 machine.

None of these formulas assumes anything of A^m or alpha^m beyond
alpha^2 = 3k*alpha - (k-1), and no engine borrows another's recurrence, so
the four remain independent cross-checks of one another.  Nothing divides,
so a Decimal step cannot meet the non-terminating quotient that
`exact_context()` forbids.

Every engine is generic over the number type: its loop uses only + - * with
small int constants, and its seeds are built from the `one` that `term_b`,
`term_c` and `window_pair` take, so the terms come back as the type of
`one`.  The default is int.  `b_table` and `c_table` take their number type
from their seed pair, not from a `one`.  With `one=Decimal(1)` the
multiplications run in libmpdec (number-theoretic transforms for big
operands, where CPython's int uses Karatsuba) and the result prints in
linear time.  Every function here that takes its number type from `one`,
from a `pair` or from a matrix's entries computes Decimals inside
`decimal_io.exact_context()`, so the caller's decimal context can never
round a term.

`b_table` and `c_table` take a keyword-only `start`: a window
start..n_max is seeded from the doubling pair at `start`, so the terms
below it are neither computed nor held.  A caller that builds both windows
at one `start`, or wants Decimal terms, computes that pair once with
`window_pair` and hands it to both as `pair`; without one the window is
seeded in int.  Both tables are one body, `_window`, which runs B's
recurrence from that pair, or C's from the two C terms it gives.
"""

from __future__ import annotations

import enum
from itertools import islice
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .decimal_io import arithmetic_context
from .ring import SequenceParams, alpha_power_components, check_exponent, is_int

if TYPE_CHECKING:
    from fractions import Fraction

ITERATIVE_CAP_DEFAULT = 100_000


class IterativeCapError(ValueError):
    """Raised when the iterative engine is asked for an index over its cap."""


class Engine(enum.Enum):
    ITERATIVE = "iterative"
    MATRIX = "matrix"
    BINET = "binet"
    FAST_DOUBLING = "doubling"


class Mat2(NamedTuple):
    """2x2 matrix over an exact number type: int, or Decimal holding integers.

    A named tuple of the entries in row-major order.  The product and the
    square use only + - *, so they keep the entries' type, and the product
    of Decimal matrices is exact whatever the caller's decimal context.
    """

    a11: int
    a12: int
    a21: int
    a22: int

    def __matmul__(self, other: Mat2) -> Mat2:
        with arithmetic_context(self.a11):
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
    The entries keep their type, and Decimal entries are exact whatever the
    caller's decimal context.
    """
    check_exponent(n)
    with arithmetic_context(m.a11):
        if n == 0:
            one = type(m.a11)(1)  # the unit of the entries' type
            return Mat2(one, 0 * one, 0 * one, one)
        result = m
        for shift in range(n.bit_length() - 2, -1, -1):
            result = _mat_square(result)
            if (n >> shift) & 1:
                result = result @ m
    return result


def a_matrix(params: SequenceParams, one=1) -> Mat2:
    """A = [[3k, 1-k], [1, 0]] with entries of the type of `one`; for n >= 1,
    A^n = mat_pow(A, n) = [[B_{n+1}, (1-k)B_n], [B_n, (1-k)B_{n-1}]]."""
    k = params.k
    with arithmetic_context(one):
        return Mat2(3 * k * one, (1 - k) * one, one, 0 * one)


def r_base_matrix(params: SequenceParams) -> Mat2:
    """R = [[3, 1-k], [1, 3(1-k)]] in int; for n >= 1, R @ A^n =
    [[C_{n+1}, (1-k)C_n], [C_n, (1-k)C_{n-1}]]."""
    k = params.k
    return Mat2(3, 1 - k, 1, 3 * (1 - k))


def _check_n(n: int) -> None:
    if not is_int(n):
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 0:
        raise ValueError("n must be >= 0 (use term_b_negative for negative indices)")


def _check_term(n: int, engine: Engine, iterative_cap: int) -> None:
    """The argument checks of `term_b` and `term_c`: the cap, which must be
    an int >= 0 (a bool is not), then n, then n against the cap on the
    iterative engine."""
    if not is_int(iterative_cap):
        raise ValueError(f"iterative cap must be an int, got {iterative_cap!r}")
    if iterative_cap < 0:
        raise ValueError("iterative cap must be >= 0")
    _check_n(n)
    if engine is Engine.ITERATIVE and n > iterative_cap:
        raise IterativeCapError(f"n={n} exceeds iterative cap {iterative_cap}")


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


def b_table(params: SequenceParams, n_max: int, *, start: int = 0, pair=None) -> list[int]:
    """B_{k,start..n_max} by the defining recurrence (the iterative engine in bulk).

    The recurrence starts from `pair` = (B_start, B_start+1) when the caller
    has it already, at any start, and otherwise from the int `window_pair`;
    at start 0 that pair is (0, 1) and costs no product.  The terms are of
    the type of the pair.
    """
    return _window("B", params, n_max, start, pair)


def c_table(params: SequenceParams, n_max: int, *, start: int = 0, pair=None) -> list[int]:
    """C_{k,start..n_max} by the defining recurrence.

    The window is seeded with C_n = B_{n+1} + 3(1-k)*B_n at n = start and
    start + 1, from `pair` = (B_start, B_start+1) as `b_table` is, and its
    terms are of the type of that pair.
    """
    return _window("C", params, n_max, start, pair)


def _window(seq: str, params: SequenceParams, n_max: int, start: int, pair) -> list[int]:
    """The body of `b_table` (seq "B") and `c_table` (seq "C")."""
    _check_window(start, n_max)
    k = params.k
    x0, x1 = window_pair(params, start) if pair is None else pair
    # the generator is drained inside the context, where its terms are made
    with arithmetic_context(x1):
        if seq == "C":
            # C_n = B_{n+1} + 3(1-k)*B_n at n = start and start + 1
            b_after = 3 * k * x1 + (1 - k) * x0
            x0, x1 = x1 + 3 * (1 - k) * x0, b_after + 3 * (1 - k) * x1
        return list(islice(_recurrence(k, x0, x1), n_max - start + 1))


def window_pair(params: SequenceParams, start: int, *, one=1) -> tuple[int, int]:
    """(B_start, B_start+1), of the type of `one`: the `pair` that seeds a
    `b_table` and a `c_table` window at `start`, 0 included.

    A caller that builds both windows computes it once here; it is most of
    a window's cost when the window is short and `start` is large.
    """
    _check_n(start)
    with arithmetic_context(one):
        return _doubling_pair(params.k, start, one)


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
    return _term("B", params, n, engine, iterative_cap, one)


def term_c(
    params: SequenceParams,
    n: int,
    engine: Engine = Engine.FAST_DOUBLING,
    iterative_cap: int = ITERATIVE_CAP_DEFAULT,
    *,
    one=1,
) -> int:
    """Exact C_{k,n} for n >= 0 via the chosen engine, of the type of `one`."""
    return _term("C", params, n, engine, iterative_cap, one)


def _term(seq: str, params: SequenceParams, n: int, engine: Engine, iterative_cap: int,
          one) -> int:
    """The body of `term_b` (seq "B") and `term_c` (seq "C"): each engine's
    power to m = n >> 1, then the B or the C last step."""
    _check_term(n, engine, iterative_cap)
    k = params.k
    m, odd = n >> 1, n & 1
    with arithmetic_context(one):
        if engine is Engine.ITERATIVE:
            seeds = (0 * one, one) if seq == "B" else (one, 3 * one)
            return next(islice(_recurrence(k, *seeds), n, None))
        if engine is Engine.MATRIX:
            # the a21 entry of P@P or P@P@A for B, and of R@P@P or R@P@P@A
            # for C, where P = A^m
            p = mat_pow(a_matrix(params, one), m)
            t = p.a11 + p.a22
            if seq == "B":
                return p.a21 * (3 * k * t + p.a12) + p.a22 * p.a22 if odd else p.a21 * t
            if odd:
                return (3 * k * (p.a11 * p.a11) + 3 * (1 - k) * (p.a22 * p.a22)
                        + p.a12 * (3 * p.a21 + t) + 9 * k * (1 - k) * (p.a21 * t))
            return p.a11 * p.a11 + p.a21 * (p.a12 + 3 * (1 - k) * t)
        if engine is Engine.BINET:
            # the alpha coordinate (B) or u + 3v (C) of (u + v*alpha)^2, or of
            # that times alpha, where u + v*alpha = alpha^m
            u, v = alpha_power_components(params, m, one)
            if seq == "B":
                if odd:
                    w = u + 3 * k * v
                    return w * w - (k - 1) * (v * v)
                return v * (2 * u + 3 * k * v)
            if odd:
                return u * (3 * u + 2 * (8 * k + 1) * v) + (24 * k * k + 3) * (v * v)
            w = u + 3 * v
            return w * w + 8 * (k - 1) * (v * v)
        if engine is Engine.FAST_DOUBLING:
            a, b = _doubling_pair(k, m, one)
            if seq == "B":
                return b * b + (1 - k) * (a * a) if odd else a * (2 * b - 3 * k * a)
            # C_m = B_{m+1} + 3(1-k)*B_m, then C_{2m} or C_{2m+1} from it
            c = b + 3 * (1 - k) * a
            if odd:
                return c * (3 * b + (1 - k) * a) + 8 * (k - 1) * (a * b)
            return c * c + 8 * (k - 1) * (a * a)
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
    from fractions import Fraction  # here: no term command needs it

    return Fraction(-term_b(params, n), (params.k - 1) ** n)
