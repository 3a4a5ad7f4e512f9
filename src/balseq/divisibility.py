"""Divisibility and gcd theorems for the B and C sequences.

Most of these hold only under the residue condition k % 3 != 1.  Checks are
run regardless and tagged: hypothesis_met is False when the condition fails,
and such results land in an expected-failure pool instead of counting as
violations.  Demonstrating that the condition is necessary (e.g.
gcd(B_{4,2}, B_{4,3}) = 3) is as much a part of the contract as the theorems
themselves.

Each theorem is written once, as a *_sides function that takes its last
index as a range and returns the computed gcds and the expected values over
it.  The verify sweeps call it a row at a time, with the theorem's hypothesis
on the catalog row; the check_* functions pass a one-element range and build
a GcdReport.

gcd is always taken on magnitudes with gcd(0, x) = |x|, since 1 - k is
negative for k >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .identities import SideLists, TermContext, _ctx
from .ring import SequenceParams


@dataclass(frozen=True)
class GcdReport:
    theorem_name: str
    inputs: dict[str, int]
    computed_gcd: int
    expected: int
    hypothesis_met: bool
    holds: bool


def residue_hypothesis(params: SequenceParams) -> bool:
    """The k % 3 != 1 condition shared by the gcd theorems."""
    return params.k % 3 != 1


def _report(
    name: str, inputs: dict[str, int], sides: SideLists, hyp: bool
) -> GcdReport:
    (computed,), (expected,) = sides
    return GcdReport(name, inputs, computed, expected, hyp, computed == expected)


# ---------------------------------------------------------------------------
# gcd computations, shared between the check_* theorems and sweeps

def index_divisibility_sides(ctx: TermContext, m: int, ns: range) -> SideLists:
    b = ctx.b
    bm = b[m]
    return [math.gcd(bm, b[n]) for n in ns], [bm] * len(ns)


def coprime_norm_sides(ctx: TermContext, seq: str, ns: range) -> SideLists:
    x, norm = ctx.seq(seq), ctx.params.k - 1
    return [math.gcd(norm, x[n]) for n in ns], [1] * len(ns)


def consecutive_gcd_sides(ctx: TermContext, seq: str, ns: range) -> SideLists:
    x = ctx.seq(seq)
    return [math.gcd(x[n], x[n + 1]) for n in ns], [1] * len(ns)


def b_c_coprime_sides(ctx: TermContext, ns: range) -> SideLists:
    b, c = ctx.b, ctx.c
    return [math.gcd(b[n], c[n]) for n in ns], [1] * len(ns)


def strong_gcd_sides(ctx: TermContext, m: int, ns: range) -> SideLists:
    b = ctx.b
    bm = b[m]
    return [math.gcd(bm, b[n]) for n in ns], [b[math.gcd(m, n)] for n in ns]


# ---------------------------------------------------------------------------
# single-shot theorems

def check_index_divisibility(
    params: SequenceParams, m: int, n: int, ctx: TermContext | None = None
) -> GcdReport:
    """B_m | B_n whenever m | n; no residue condition.

    Stated gcd-style: gcd(B_m, B_n) = B_m, which is equivalent since B_m > 0
    for m >= 1.
    """
    if m < 1 or n < 1:
        raise ValueError("indices must be >= 1")
    if n % m != 0:
        raise ValueError(f"m={m} does not divide n={n}")
    sides = index_divisibility_sides(_ctx(params, n, ctx), m, range(n, n + 1))
    return _report("index-divisibility", {"k": params.k, "m": m, "n": n}, sides, True)


def check_coprime_norm(
    seq: str, params: SequenceParams, n: int, ctx: TermContext | None = None
) -> GcdReport:
    """gcd(|1-k|, X_n) = 1 for n >= 1, under k % 3 != 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    sides = coprime_norm_sides(_ctx(params, n, ctx), seq, range(n, n + 1))
    return _report(f"coprime-norm-{seq.lower()}", {"k": params.k, "n": n}, sides,
                   residue_hypothesis(params))


def check_consecutive_coprime(
    seq: str, params: SequenceParams, n: int, ctx: TermContext | None = None
) -> GcdReport:
    """gcd(X_n, X_{n+1}) = 1 for n >= 1, under k % 3 != 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    sides = consecutive_gcd_sides(_ctx(params, n + 1, ctx), seq, range(n, n + 1))
    return _report(f"consecutive-gcd-{seq.lower()}", {"k": params.k, "n": n}, sides,
                   residue_hypothesis(params))


def check_b_c_coprime(
    params: SequenceParams, n: int, ctx: TermContext | None = None
) -> GcdReport:
    """gcd(B_n, C_n) = 1 for n >= 0, under k % 3 != 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    sides = b_c_coprime_sides(_ctx(params, n, ctx), range(n, n + 1))
    return _report("b-c-coprime", {"k": params.k, "n": n}, sides,
                   residue_hypothesis(params))


def check_strong_gcd(
    params: SequenceParams, m: int, n: int, ctx: TermContext | None = None
) -> GcdReport:
    """gcd(B_m, B_n) = B_{gcd(m,n)} for m, n >= 1, under k % 3 != 1."""
    if m < 1 or n < 1:
        raise ValueError("indices must be >= 1")
    sides = strong_gcd_sides(_ctx(params, max(m, n), ctx), m, range(n, n + 1))
    return _report("strong-gcd", {"k": params.k, "m": m, "n": n}, sides,
                   residue_hypothesis(params))
