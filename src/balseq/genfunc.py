"""Power-series expansion of the rational generating functions.

Both sequences have generating functions with denominator
1 - 3kx + (k-1)x^2; B has numerator x, and C has numerator 1 + 3(1-k)x.
(The numerator variant 1 + 3(1+k)x that sometimes circulates in print fails
already at the x^1 coefficient; see erratum_probe_c_numerator.)

Expansion is plain long division, c_n = num_n + 3k*c_{n-1} - (k-1)*c_{n-2},
implemented without touching the engines module so the series is an
independent oracle for the engines at every coefficient.  What it really
tests is initial-condition placement: that is exactly the information the
numerator carries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engines import c_table
from .identities import IdentityReport
from .ring import SequenceParams


@dataclass(frozen=True)
class RationalSeries:
    numerator: tuple[int, ...]
    denominator: tuple[int, ...]
    expansion: tuple[int, ...]


def expand(numerator: list[int], denominator: list[int], n_coeffs: int) -> list[int]:
    """First n_coeffs+1 coefficients of numerator/denominator, exactly.

    The denominator's constant term must be +1 or -1 so every division is
    exact integer division.
    """
    if n_coeffs < 0:
        raise ValueError("coefficient count must be >= 0")
    if not denominator or denominator[0] == 0:
        raise ValueError("denominator constant term must be nonzero")
    if denominator[0] not in (1, -1):
        raise ValueError("denominator constant term must be +1 or -1 for exact division")
    d0 = denominator[0]
    coeffs: list[int] = []
    for n in range(n_coeffs + 1):
        acc = numerator[n] if n < len(numerator) else 0
        for j in range(1, min(n, len(denominator) - 1) + 1):
            acc -= denominator[j] * coeffs[n - j]
        coeffs.append(acc if d0 == 1 else -acc)
    return coeffs


def series_denominator(params: SequenceParams) -> list[int]:
    return [1, -3 * params.k, params.k - 1]


def b_series(params: SequenceParams, n_coeffs: int) -> RationalSeries:
    """x / (1 - 3kx + (k-1)x^2), whose coefficients are B_{k,n}."""
    num = [0, 1]
    den = series_denominator(params)
    return RationalSeries(tuple(num), tuple(den), tuple(expand(num, den, n_coeffs)))


def c_series(
    params: SequenceParams, n_coeffs: int, variant: str = "corrected"
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
    return RationalSeries(tuple(num), tuple(den), tuple(expand(num, den, n_coeffs)))


def erratum_probe_c_numerator(params: SequenceParams, n_coeffs: int) -> IdentityReport:
    """Expand the printed C numerator and report its first disagreement with C.

    The first mismatch is at n = 1 for every k >= 1: the printed numerator
    yields c_1 = 3 + 6k there instead of C_1 = 3.  The report carries the
    mismatch index in inputs["first_mismatch"] (-1 if none was found within
    n_coeffs) and the mismatched coefficient pair as lhs/rhs.
    """
    if n_coeffs < 1:
        raise ValueError("need at least coefficients 0..1")
    printed = c_series(params, n_coeffs, variant="printed").expansion
    true_c = c_table(params, n_coeffs)
    first = -1
    for n in range(n_coeffs + 1):
        if printed[n] != true_c[n]:
            first = n
            break
    idx = first if first >= 0 else n_coeffs
    return IdentityReport(
        "c-series-printed-numerator",
        {"k": params.k, "n_coeffs": n_coeffs, "first_mismatch": first},
        printed[idx],
        true_c[idx],
        first == -1,
    )
