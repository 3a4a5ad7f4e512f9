"""Power-series expansion of the rational generating functions.

Both sequences have generating functions with denominator
1 - 3kx + (k-1)x^2; B has numerator x, and C has numerator 1 + 3(1-k)x.
(The numerator variant 1 + 3(1+k)x that sometimes circulates in print fails
already at the x^1 coefficient; c_series expands it as variant="printed",
and the errata module's c-series-numerator entry shows the mismatch.)

Expansion is plain long division, c_n = num_n + 3k*c_{n-1} - (k-1)*c_{n-2},
implemented without touching the engines module so the series is an
independent oracle for the engines at every coefficient.  What it really
tests is initial-condition placement: that is exactly the information the
numerator carries.

The coefficients are exact integers of the type of the `one` that `expand`,
`b_series` and `c_series` take, int by default.  With `one=Decimal(1)` the
expansion runs in `decimal_io.exact_context()` and its coefficients print in
linear time; it never divides, since the denominator's constant term is +1
or -1, so that context never meets a quotient that does not terminate.
"""

from __future__ import annotations

from typing import NamedTuple

from .decimal_io import arithmetic_context
from .ring import SequenceParams


class RationalSeries(NamedTuple):
    """A rational generating function and its leading coefficients.

    The numerator and denominator are small ints; the expansion is of the
    number type the series was expanded in.
    """

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]
    expansion: tuple[int, ...]


def expand(
    numerator: list[int], denominator: list[int], n_coeffs: int, *, one=1
) -> list[int]:
    """First n_coeffs+1 coefficients of numerator/denominator, exactly.

    The denominator's constant term must be +1 or -1, so dividing by it is
    at most a negation.  The coefficients are of the type of `one`.
    """
    if n_coeffs < 0:
        raise ValueError("coefficient count must be >= 0")
    if not denominator or denominator[0] == 0:
        raise ValueError("denominator constant term must be nonzero")
    if denominator[0] not in (1, -1):
        raise ValueError("denominator constant term must be +1 or -1 for exact division")
    d0 = denominator[0]
    coeffs: list[int] = []
    with arithmetic_context(one):
        # the denominator in the type of `one`, so no step converts an int
        den = [d * one for d in denominator]
        for n in range(n_coeffs + 1):
            acc = (numerator[n] if n < len(numerator) else 0) * one
            for j in range(1, min(n, len(den) - 1) + 1):
                acc -= den[j] * coeffs[n - j]
            coeffs.append(acc if d0 == 1 else -acc)
    return coeffs


def series_denominator(params: SequenceParams) -> list[int]:
    return [1, -3 * params.k, params.k - 1]


def b_series(params: SequenceParams, n_coeffs: int, *, one=1) -> RationalSeries:
    """x / (1 - 3kx + (k-1)x^2), whose coefficients are B_{k,n}."""
    num = [0, 1]
    den = series_denominator(params)
    return RationalSeries(tuple(num), tuple(den), tuple(expand(num, den, n_coeffs, one=one)))


def c_series(
    params: SequenceParams, n_coeffs: int, variant: str = "corrected", *, one=1
) -> RationalSeries:
    """(1 + 3(1-k)x) / (1 - 3kx + (k-1)x^2), whose coefficients are C_{k,n}.

    variant="printed" swaps in the circulating 1 + 3(1+k)x numerator, which
    expands to a different sequence from n = 1 on.
    """
    k = params.k
    if variant == "corrected":
        num = [1, 3 * (1 - k)]
    elif variant == "printed":
        num = [1, 3 * (1 + k)]
    else:
        raise ValueError(f"variant must be 'corrected' or 'printed', got {variant!r}")
    den = series_denominator(params)
    return RationalSeries(tuple(num), tuple(den), tuple(expand(num, den, n_coeffs, one=one)))

