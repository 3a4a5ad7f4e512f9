"""Machine-checked errata: printed variants that fail verification.

Several identities and table values for these sequences circulate in print
in forms that exact arithmetic refutes.  Each entry below pairs the printed
variant with the form this package implements, plus a concrete numeric
demonstration computing both.  The failing variants are kept on purpose:
they are regression tests that the resolution stays load-bearing instead of
silently patched.

Where the verified form is a catalog identity (catalan-c, vajda-2, sum-c),
its demonstration reads both sides through the verify.CATALOG row of that
name (`Sides.at`), so each identity's arithmetic stays in one place.

The rendered document is a generated artifact (`balseq verify --emit-errata`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .engines import b_table, c_table, term_b_negative
from .genfunc import c_series
from .ring import SequenceParams
from .verify import CATALOG


@dataclass
class Demonstration:
    printed_fails: bool
    verified_holds: bool
    lines: list[str]

    @property
    def conclusive(self) -> bool:
        return self.printed_fails and self.verified_holds


@dataclass(frozen=True)
class Erratum:
    name: str
    title: str
    printed: str
    verified: str
    demonstrate: Callable[[], Demonstration]


def _demo_b1_column() -> Demonstration:
    b = b_table(SequenceParams(1), 5)
    printed = [3**n for n in range(2, 6)]
    verified = [3 ** (n - 1) for n in range(2, 6)]
    return Demonstration(
        printed_fails=b[2:] != printed,
        verified_holds=b[2:] == verified,
        lines=[
            f"recurrence B_(1,2..5) = {b[2:]}",
            f"printed column / 3^n   = {printed}",
            f"3^(n-1)                = {verified}",
        ],
    )


def _demo_b2_row_shift() -> Demonstration:
    b = b_table(SequenceParams(2), 6)
    k = 2
    general_n4 = 3 * k * (9 * k * k - 2 * k + 2)
    return Demonstration(
        printed_fails=(b[4], b[5]) != (1189, 6930),
        verified_holds=(b[4], b[5], b[6]) == (204, 1189, 6930)
        and general_n4 == b[4],
        lines=[
            f"recurrence B_(2,4), B_(2,5) = {b[4]}, {b[5]} (printed 1189, 6930 are"
            f" B_(2,5), B_(2,6) = {b[5]}, {b[6]})",
            f"general column 3k(9k^2-2k+2) at k=2 = {general_n4} = B_(2,4)",
        ],
    )


def _demo_c4_polynomial() -> Demonstration:
    rows = []
    printed_ok = verified_ok = True
    for k in (2, 3, 4):
        c4 = c_table(SequenceParams(k), 4)[4]
        printed = 27 * k**3 - 8 * k**2 + 16 * k + 1
        verified = 72 * k**3 - 8 * k**2 + 16 * k + 1
        printed_ok &= printed != c4
        verified_ok &= verified == c4
        rows.append(f"k={k}: C_(k,4) = {c4}, printed poly = {printed}, 72k^3 form = {verified}")
    return Demonstration(printed_ok, verified_ok, rows)


def _demo_negative_index_sign() -> Demonstration:
    params = SequenceParams(3)
    # backward recurrence from (B_0, B_1) = (0, 1): B_{m-2} = (B_m - 3k B_{m-1})/(1-k)
    oracle = (Fraction(1) - 9 * Fraction(0)) / (1 - 3)
    printed = Fraction(-1, (1 - 3) ** 1)
    implemented = term_b_negative(params, 1)
    return Demonstration(
        printed_fails=printed != oracle,
        verified_holds=implemented == oracle == Fraction(-1, 2),
        lines=[
            f"backward recurrence: B_(3,-1) = (B_1 - 9*B_0)/(1-3) = {oracle}",
            f"printed -(1-k)^(-n) base gives {printed}",
            f"implemented -(k-1)^(-n) base gives {implemented}",
        ],
    )


def _demo_c_series_numerator() -> Demonstration:
    params = SequenceParams(2)
    printed = c_series(params, 50, variant="printed").expansion
    corrected = c_series(params, 50).expansion
    true_c = tuple(c_table(params, 50))
    first = next((n for n, (p, c) in enumerate(zip(printed, true_c)) if p != c), None)
    return Demonstration(
        printed_fails=first == 1,
        verified_holds=corrected == true_c,
        lines=[
            f"printed numerator 1+3x(1+k), k=2: first mismatch at n="
            f"{first}, coefficient {printed[1]} vs C_1 = {true_c[1]}",
            "corrected numerator 1+3x(1-k), k=2: 51 coefficients all equal C_(2,n)",
        ],
    )


def _demo_catalan_c_proof_term() -> Demonstration:
    params = SequenceParams(3)
    n, r = 3, 1
    report = CATALOG["catalan-c"].at(params, n=n, r=r)
    b = b_table(params, n)
    proof_variant = 8 * params.norm ** (n - r + 1) * b[n] * b[n]
    return Demonstration(
        printed_fails=report.lhs != proof_variant,
        verified_holds=report.holds,
        lines=[
            f"k=3, n=3, r=1: C_4*C_2 - C_3^2 = {report.lhs}",
            f"statement form 8(k-1)^(n-r+1)*B_r^2 = {report.rhs}",
            f"proof-final-line variant with B_n^2 = {proof_variant}",
        ],
    )


def _demo_vajda2_sign() -> Demonstration:
    params = SequenceParams(3)
    n, m, ell = 1, 4, 1
    report = CATALOG["vajda-2"].at(params, n=n, m=m, ell=ell)
    b = b_table(params, m)
    flipped = (1 - 3) ** n * b[m - n - ell] * b[ell]
    return Demonstration(
        printed_fails=report.lhs != flipped,
        verified_holds=report.holds,
        lines=[
            f"k=3, n=1, m=4, l=1: B_2*B_3 - B_1*B_4 = {report.lhs}",
            f"(k-1)^n form = {report.rhs}; proof's (1-k)^n form = {flipped}",
        ],
    )


def _demo_sum_c_constant() -> Demonstration:
    params = SequenceParams(2)
    report = CATALOG["sum-c"].at(params, n=3)
    k, c = 2, c_table(params, 3)
    printed = Fraction(-(2 * k + 1) * c[3] + (k - 1) * c[2] + 4 * (1 - k), -2 * k)
    return Demonstration(
        printed_fails=printed != report.lhs,
        verified_holds=report.holds,
        lines=[
            f"k=2, n=3: direct sum C_0+..+C_3 = {report.lhs}",
            f"closed form with constant 4-3k = {report.rhs}",
            f"printed constant 4(1-k) gives {printed} (not even integral)",
        ],
    )


def _demo_gcd_product_rule() -> Demonstration:
    a = b = c = 2
    lhs = math.gcd(a, b * c)
    rhs = math.gcd(a, b) * math.gcd(a, c)
    terms = b_table(SequenceParams(2), 11)
    consecutive = all(math.gcd(x, y) == 1 for x, y in zip(terms, terms[1:]))
    return Demonstration(
        printed_fails=lhs != rhs,
        verified_holds=consecutive,
        lines=[
            f"gcd(2, 2*2) = {lhs} but gcd(2,2)*gcd(2,2) = {rhs}: the product rule is"
            " false in general",
            "not used as a library identity; the gcd theorems it was quoted for are"
            " verified directly by sweep (e.g. gcd(B_(2,n), B_(2,n+1)) = 1 for n <= 10)",
        ],
    )


ERRATA: tuple[Erratum, ...] = (
    Erratum(
        "b1-column",
        "k = 1 column of the reference value table",
        "B_(1,n) = 3^n for n >= 2 (column 9, 27, 81, 243)",
        "the recurrence B_(1,n) = 3*B_(1,n-1) with B_(1,1) = 1 forces 3^(n-1)",
        _demo_b1_column,
    ),
    Erratum(
        "b2-row-shift",
        "k = 2 column, rows n = 4 and n = 5",
        "B_(2,4) = 1189 and B_(2,5) = 6930",
        "204 and 1189; the printed values sit one row too early",
        _demo_b2_row_shift,
    ),
    Erratum(
        "c4-polynomial",
        "general-column polynomial for C_(k,4)",
        "27k^3 - 8k^2 + 16k + 1",
        "72k^3 - 8k^2 + 16k + 1 (matches the table's own 577, 1921, 4545)",
        _demo_c4_polynomial,
    ),
    Erratum(
        "negative-index-sign-base",
        "sign base of the negative-index extension",
        "B_(k,-n) = -(1-k)^(-n) * B_(k,n)",
        "B_(k,-n) = -(k-1)^(-n) * B_(k,n), the form the backward recurrence satisfies",
        _demo_negative_index_sign,
    ),
    Erratum(
        "c-series-numerator",
        "numerator of the C generating function",
        "1 + 3x(1+k)",
        "1 + 3x(1-k), since c_1 must be 3k*C_0 + num_1 = C_1 = 3",
        _demo_c_series_numerator,
    ),
    Erratum(
        "catalan-c-proof-term",
        "last factor of the C Catalan identity",
        "8(k-1)^(n-r+1) * B_n^2 (as in the derivation's final line)",
        "8(k-1)^(n-r+1) * B_r^2 (the stated form, which verifies)",
        _demo_catalan_c_proof_term,
    ),
    Erratum(
        "vajda-2-sign",
        "sign base of the second Vajda formulation",
        "(1-k)^n (as in the derivation's final line)",
        "(k-1)^n, matching formulation 1",
        _demo_vajda2_sign,
    ),
    Erratum(
        "sum-c-constant",
        "additive constant in the C partial-sum closed form",
        "4(1-k)",
        "4 - 3k (fold C_0 + C_1 = 4 into the n>=2 sum to see it)",
        _demo_sum_c_constant,
    ),
    Erratum(
        "gcd-product-rule",
        "gcd product rule quoted for the coprimality proofs",
        "gcd(a, bc) = gcd(a, b) * gcd(a, c) for all integers",
        "false in general; the dependent gcd theorems are verified by sweep instead",
        _demo_gcd_product_rule,
    ),
)


def render_document() -> str:
    """The errata ledger as markdown, all evidence recomputed on the spot."""
    lines = [
        "# Errata: printed variants refuted by exact verification",
        "",
        "Generated by `balseq verify --emit-errata`. Each entry shows a variant",
        "that circulates in print, the form this package implements, and the",
        "recomputed numeric evidence. The failing variants remain available in",
        "code (erratum probes and tests) so these resolutions stay regression-",
        "checked.",
        "",
    ]
    for index, erratum in enumerate(ERRATA, 1):
        demo = erratum.demonstrate()
        status = "refuted" if demo.conclusive else "NOT CONCLUSIVE - investigate"
        lines.append(f"## {index}. {erratum.title} [{erratum.name}]")
        lines.append("")
        lines.append(f"- printed variant ({status}): {erratum.printed}")
        lines.append(f"- verified form: {erratum.verified}")
        lines.append("- evidence:")
        lines.extend(f"    - {line}" for line in demo.lines)
        lines.append("")
    return "\n".join(lines)
