"""Power-series expansion of the rational generating functions.

Both sequences have generating functions with denominator
1 - 3kx + (k-1)x^2; B has numerator x, and C has numerator 1 + 3(1-k)x.
(The numerator variant 1 + 3(1+k)x that sometimes circulates in print fails
already at the x^1 coefficient; c_series expands it as variant="printed",
and the errata module's c-series-numerator entry shows the mismatch.)

Dividing by a denominator whose constant term d_0 is +1 or -1 is a linear
recurrence (Knuth, *TAOCP* vol. 2, section 4.7): with taps t_j = -d_0*d_j,

    c_n = d_0*num_n + t_1*c_{n-1} + ... + t_w*c_{n-w},

which for the paper's denominators is c_n = num_n + 3k*c_{n-1} -
(k-1)*c_{n-2}.  It is implemented without touching the engines module so
the series is an independent oracle for the engines at every coefficient.
What it really tests is initial-condition placement: that is exactly the
information the numerator carries.

The coefficients are exact integers of the type of the `one` that `expand`,
`b_series` and `c_series` take, int by default.  With `one=Decimal(1)` the
expansion runs in `decimal_io.exact_context()` and its coefficients print in
linear time; it never divides, since the denominator's constant term is +1
or -1, so that context never meets a quotient that does not terminate.

Once the numerator's terms are used up, a two-tap denominator (every series
the CLI prints) makes each coefficient from the last two alone, t_1*c_{n-1}
+ t_2*c_{n-2}: three Decimal operations, where a general loop over the taps
made five plus its index bookkeeping.  With it the expansion behind
`series --seq B --k 6 --N 1700` takes 2.3 ms against 3.3 ms (median of 30),
and the whole command 8.2-8.7 ms in process against 10.3-11.2 ms (medians
of three alternating batches of 20 runs; 2-core x86-64, Python 3.11).
"""

from __future__ import annotations

from typing import NamedTuple

from .decimal_io import arithmetic_context
from .ring import SequenceParams, is_int


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

    The denominator's constant term d_0 must be +1 or -1, so dividing by it
    is at most a negation, and c_n = d_0*num_n + sum_j t_j*c_{n-j} with taps
    t_j = -d_0*d_j.  The coefficients are of the type of `one`.  While the
    numerator has terms, and for every coefficient when the denominator has
    other than two taps, one loop sums over the taps; after the numerator, a
    two-tap denominator runs c_n = t_1*c_{n-1} + t_2*c_{n-2} on the last two
    coefficients.  A zero coefficient is always +0: a Decimal sum of two
    products that are both -0 is -0, which `decimal_str` refuses.
    """
    if not is_int(n_coeffs):
        raise ValueError(f"coefficient count must be an int, got {n_coeffs!r}")
    if n_coeffs < 0:
        raise ValueError("coefficient count must be >= 0")
    if not denominator or denominator[0] == 0:
        raise ValueError("denominator constant term must be nonzero")
    if denominator[0] not in (1, -1):
        raise ValueError("denominator constant term must be +1 or -1 for exact division")
    d0 = denominator[0]
    coeffs: list[int] = []
    with arithmetic_context(one):
        zero = 0 * one
        # the taps in the type of `one`, so no step converts an int
        taps = [-d0 * d * one for d in denominator[1:]]
        head = n_coeffs + 1
        if len(taps) == 2:
            head = min(head, max(len(numerator), 2))
        for n in range(head):
            # starts at +0 or a nonzero term, so a zero sum is +0
            acc = d0 * numerator[n] * one if n < len(numerator) else zero
            for j in range(min(n, len(taps))):
                acc += taps[j] * coeffs[n - 1 - j]
            coeffs.append(acc)
        if head <= n_coeffs:
            t1, t2 = taps
            c2, c1 = coeffs[-2:]
            append = coeffs.append
            for _ in range(head, n_coeffs + 1):
                c2, c1 = c1, t1 * c1 + t2 * c2 or zero
                append(c1)
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

