"""Machine-checked errata: printed variants refuted by exact sweeps.

Several identities and table values for these sequences circulate in print
in forms that exact arithmetic refutes.  Each entry pairs the printed variant
with the form this package implements as two identities.Sides rows with the
same lhs: the printed row's rhs is the printed form, the verified row's the
implemented one.  The Sides driver sweeps both over the entry's box (k in
ks, indices up to max_index), and an entry is refuted only when its printed
row fails at least once there and its verified row never does.  Each entry
also declares where on its box the printed form still holds, in words and
as a predicate that the tests check point by point against the sweep.

Where the verified form is a catalog identity (catalan-c, vajda-2, sum-c),
the verified row is that identities.ROWS row and the printed row reads its
lhs, so each identity's arithmetic stays in one place.  This module takes
only rows and the row driver from identities, no kernel and no TermContext.
The errata rows stay out of verify.CATALOG, so they never change a verify
report.  The gcd product rule is a claim about all integers, not about the
sequences, so it stays a one-point counterexample, and it has no rows to
sweep.

The rendered document is a generated artifact (`balseq verify --emit-errata`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

from .engines import term_b_negative
from .genfunc import c_series
from .identities import ROWS, Sides, SweepOutcome, _row, merge_outcomes
from .ring import SequenceParams


class Erratum(NamedTuple):
    """A printed variant against the form this package implements.

    rows is (printed row, verified row).  holds says where on the box the
    printed form holds, and holds_at(k, *point) is the same set as a
    predicate.  An entry without rows is refuted by its counterexample(),
    which returns whether it refutes and the line that shows it.
    """

    name: str
    title: str
    printed: str
    verified: str
    rows: tuple[Sides, Sides] | None = None
    holds: str = "nowhere"
    holds_at: Callable[..., bool] = lambda k, *point: False
    ks: range = range(1, 13)
    max_index: int = 30
    counterexample: Callable[[], tuple[bool, str]] | None = None


def _printed(row: Sides, rhs: Callable[..., list]) -> tuple[Sides, Sides]:
    """(printed row, row): row's lhs against rhs(ctx, *domain row), then row."""
    def sides(ctx, *args):
        return row.sides(ctx, *args)[0], rhs(ctx, *args)
    return row._replace(name=f"{row.name} as printed", sides=sides), row


def _column(name: str, lo: int, lhs: Callable, verified: Callable,
            printed: Callable) -> tuple[Sides, Sides]:
    """(printed row, verified row) over one index n >= lo, each side a
    function of (ctx, n): lhs against printed, and lhs against verified.
    The entry's max_index bounds n."""
    row = Sides(name, lambda n: n, *_row(lo),
                lambda ctx, ns: ([lhs(ctx, n) for n in ns], [verified(ctx, n) for n in ns]))
    return _printed(row, lambda ctx, ns: [printed(ctx, n) for n in ns])


def _b_backward(ctx, n: int) -> Fraction:
    """B_(k,-n) by the recurrence run backward from (B_1, B_0) = (1, 0):
    B_(m-2) = (B_m - 3k*B_(m-1)) / (1-k)."""
    k = ctx.params.k
    upper, lower = Fraction(1), Fraction(0)
    for _ in range(n):
        upper, lower = lower, (upper - 3 * k * lower) / (1 - k)
    return lower


def _sum_c_printed(ctx, ns: range) -> list[Fraction]:
    k, c = ctx.params.k, ctx.c
    return [Fraction(-(2 * k + 1) * c[n] + (k - 1) * c[n - 1] + 4 * (1 - k), -2 * k)
            for n in ns]


def _c4(lead: int) -> Callable:
    """(ctx, n) -> lead*k^3 - 8k^2 + 16k + 1, a candidate for C_(k,4)."""
    return lambda ctx, n: lead * ctx.params.k**3 - 8 * ctx.params.k**2 + 16 * ctx.params.k + 1


def _gcd_product_rule() -> tuple[bool, str]:
    lhs, rhs = math.gcd(2, 2 * 2), math.gcd(2, 2) * math.gcd(2, 2)
    return lhs != rhs, f"gcd(2, 2*2) = {lhs} but gcd(2, 2)*gcd(2, 2) = {rhs}"


ERRATA: tuple[Erratum, ...] = (
    Erratum(
        "b1-column",
        "k = 1 column of the reference value table",
        "B_(1,n) = 3^n for n >= 2 (column 9, 27, 81, 243)",
        "B_(1,n) = 3^(n-1), which the recurrence B_(1,n) = 3*B_(1,n-1) with B_(1,1) = 1 forces",
        _column("b1-column", 2, lambda ctx, n: ctx.b[n],
                lambda ctx, n: 3 ** (n - 1), lambda ctx, n: 3**n),
        ks=range(1, 2),
    ),
    Erratum(
        "b2-row-shift",
        "k = 2 column, rows n = 4 and n = 5",
        "B_(2,4) = 1189 and B_(2,5) = 6930",
        "204 and 1189; the printed values are B_(2,5) and B_(2,6), one row too early",
        _column("b2-row-shift", 4, lambda ctx, n: ctx.b[n],
                lambda ctx, n: {4: 204, 5: 1189}[n], lambda ctx, n: {4: 1189, 5: 6930}[n]),
        ks=range(2, 3), max_index=5,
    ),
    Erratum(
        "c4-polynomial",
        "general-column polynomial for C_(k,4)",
        "C_(k,4) = 27k^3 - 8k^2 + 16k + 1",
        "C_(k,4) = 72k^3 - 8k^2 + 16k + 1 (matches the table's own 577, 1921, 4545)",
        _column("c4-polynomial", 4, lambda ctx, n: ctx.c[n], _c4(72), _c4(27)),
        max_index=4,
    ),
    Erratum(
        "negative-index-sign-base",
        "sign base of the negative-index extension",
        "B_(k,-n) = -(1-k)^(-n) * B_(k,n)",
        "B_(k,-n) = -(k-1)^(-n) * B_(k,n) (engines.term_b_negative), the form the"
        " backward recurrence satisfies; undefined at k = 1",
        _column("negative-index-sign-base", 1, _b_backward,
                lambda ctx, n: term_b_negative(ctx.params, n),
                lambda ctx, n: Fraction(-ctx.b[n], (1 - ctx.params.k) ** n)),
        "exactly at even n", lambda k, n: n % 2 == 0, ks=range(2, 13),
    ),
    Erratum(
        "c-series-numerator",
        "numerator of the C generating function",
        "1 + 3x(1+k)",
        "1 + 3x(1-k), since c_1 must be 3k*C_0 + num_1 = C_1 = 3",
        _column("c-series-numerator", 0, lambda ctx, n: ctx.c[n],
                lambda ctx, n: c_series(ctx.params, n).expansion[n],
                lambda ctx, n: c_series(ctx.params, n, variant="printed").expansion[n]),
        "exactly at n = 0", lambda k, n: n == 0,
    ),
    Erratum(
        "catalan-c-proof-term",
        "last factor of the C Catalan identity",
        "8(k-1)^(n-r+1) * B_n^2 (as in the derivation's final line)",
        "8(k-1)^(n-r+1) * B_r^2 (the stated form, catalog row catalan-c)",
        _printed(ROWS["catalan-c"],
                 lambda ctx, n, rs: [8 * ctx.pk[n - r + 1] * ctx.b[n] ** 2 for r in rs]),
        "exactly where k = 1 or r = n", lambda k, n, r: k == 1 or r == n,
    ),
    Erratum(
        "vajda-2-sign",
        "sign base of the second Vajda formulation",
        "(1-k)^n (as in the derivation's final line)",
        "(k-1)^n, matching formulation 1 (catalog row vajda-2)",
        _printed(ROWS["vajda-2"],
                 lambda ctx, n, m, ells: [(1 - ctx.params.k) ** n * ctx.b[m - n - ell] * ctx.b[ell]
                                          for ell in ells]),
        "exactly where k = 1, n is even or ell = 0",
        lambda k, n, m, ell: k == 1 or n % 2 == 0 or ell == 0,
    ),
    Erratum(
        "sum-c-constant",
        "additive constant in the C partial-sum closed form",
        "4(1-k)",
        "4 - 3k (fold C_0 + C_1 = 4 into the n>=2 sum to see it; catalog row sum-c)",
        _printed(ROWS["sum-c"], _sum_c_printed),
    ),
    Erratum(
        "gcd-product-rule",
        "gcd product rule quoted for the coprimality proofs",
        "gcd(a, bc) = gcd(a, b) * gcd(a, c) for all integers",
        "false in general; the dependent gcd theorems are verified by sweep instead",
        counterexample=_gcd_product_rule,
    ),
)


def sweep(erratum: Erratum) -> tuple[SweepOutcome, SweepOutcome]:
    """The printed and the verified row's outcomes, each merged over the box."""
    if erratum.rows is None:
        raise ValueError(f"erratum {erratum.name!r} has no rows to sweep;"
                         " its counterexample refutes it")
    printed, verified = (merge_outcomes(row(SequenceParams(k), erratum.max_index)
                                        for k in erratum.ks) for row in erratum.rows)
    return printed, verified


def _evidence(erratum: Erratum) -> tuple[bool, list[str]]:
    """Whether the entry is refuted, and the lines that show it."""
    if erratum.rows is None:
        refutes, line = erratum.counterexample()
        return refutes, [f"counterexample: {line}"]
    printed, verified = sweep(erratum)
    ks = erratum.ks
    k_text = f"k = {ks[0]}" if len(ks) == 1 else f"k {ks[0]}..{ks[-1]}"
    lines = [
        f"box: {k_text}, max-index {erratum.max_index}",
        f"printed form fails at {printed.failed} of {printed.checked} points;"
        f" it holds {erratum.holds}",
        f"verified form fails at {verified.failed} of {verified.checked} points",
    ]
    if printed.failures:  # errata rows have no hypothesis: all are violations
        first = printed.failures[0]
        at = ", ".join(f"{key}={value}" for key, value in first.inputs.items())
        lines.append(f"first failure: {at}: lhs {first.lhs}, printed rhs {first.rhs}")
    return printed.failed > 0 and verified.failed == 0, lines


def render_document() -> str:
    """The errata ledger as markdown, every sweep rerun on the spot."""
    lines = [
        "# Errata: printed variants refuted by exact verification",
        "",
        "Generated by `balseq verify --emit-errata`. Each entry shows a variant",
        "that circulates in print and the form this package implements, both",
        "swept over the stated box of k and indices: how many points each was",
        "checked at, how many it failed, and exactly where the printed form",
        "still holds. An entry counts as refuted only when the printed form",
        "fails somewhere on the box and the verified form nowhere.",
        "",
    ]
    for index, erratum in enumerate(ERRATA, 1):
        refuted, evidence = _evidence(erratum)
        status = "refuted" if refuted else "NOT CONCLUSIVE - investigate"
        lines.append(f"## {index}. {erratum.title} [{erratum.name}]")
        lines.append("")
        lines.append(f"- printed variant ({status}): {erratum.printed}")
        lines.append(f"- verified form: {erratum.verified}")
        lines.extend(f"- {line}" for line in evidence)
        lines.append("")
    return "\n".join(lines)
