"""Divisibility and gcd theorems for the B and C sequences.

B_{k,n} is the Lucas sequence U_n(P, Q) with P = 3k and Q = k - 1, so these
are instances of Lucas-sequence theory.  Most of them hold only under its
classical hypothesis gcd(P, Q) = 1, which here is gcd(3, k - 1) = 1, i.e. the
residue condition k % 3 != 1.  b-c-coprime restates consecutive-gcd-b, since
C_n = B_{n+1} + 3(1-k)B_n gives gcd(B_n, C_n) = gcd(B_n, B_{n+1}).  Checks
are run regardless and tagged: hypothesis_met is False when the condition
fails, and such results land in an expected-failure pool instead of counting
as violations.  Demonstrating that the condition is necessary (e.g.
gcd(B_{4,2}, B_{4,3}) = 3) is as much a part of the contract as the theorems
themselves.

Each theorem is written once, as a *_sides function that takes its last
index as a range and returns the computed gcds and the expected values over
it.  The verify sweeps call it a row at a time, with the theorem's hypothesis
on the catalog row; each check_* function builds its own TermContext for
its one point, passes a one-element range and builds a GcdReport.

gcd is always taken on magnitudes with gcd(0, x) = |x|, since 1 - k is
negative for k >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .identities import SideLists, TermContext
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
    """gcd(P, Q) = 1 for the Lucas parameters P = 3k, Q = k - 1 of B.

    This is the hypothesis under which a Lucas sequence U_n(P, Q) has strong
    divisibility, gcd(U_m, U_n) = U_{gcd(m, n)} (E. Lucas, Amer. J. Math. 1,
    1878; R. D. Carmichael, Ann. Math. 15, 1913).  Since
    gcd(3k, k - 1) = gcd(3, k - 1), it holds exactly when k % 3 != 1.
    """
    return math.gcd(params.trace, params.norm) == 1


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
    """gcd(B_n, C_n) against 1.

    C_n = B_{n+1} + 3(1-k)B_n, so gcd(B_n, C_n) = gcd(B_n, B_{n+1}): this row
    restates consecutive-gcd-b on the same n.
    """
    b, c = ctx.b, ctx.c
    return [math.gcd(b[n], c[n]) for n in ns], [1] * len(ns)


def strong_gcd_sides(ctx: TermContext, m: int, ns: range) -> SideLists:
    b = ctx.b
    bm = b[m]
    return [math.gcd(bm, b[n]) for n in ns], [b[math.gcd(m, n)] for n in ns]


# ---------------------------------------------------------------------------
# single-shot theorems

def check_index_divisibility(params: SequenceParams, m: int, n: int) -> GcdReport:
    """B_m | B_n whenever m | n; no residue condition.

    Stated gcd-style: gcd(B_m, B_n) = B_m, which is equivalent since B_m > 0
    for m >= 1.
    """
    if m < 1 or n < 1:
        raise ValueError("indices must be >= 1")
    if n % m != 0:
        raise ValueError(f"m={m} does not divide n={n}")
    sides = index_divisibility_sides(TermContext(params).ensure(n), m, range(n, n + 1))
    return _report("index-divisibility", {"k": params.k, "m": m, "n": n}, sides, True)


def check_coprime_norm(seq: str, params: SequenceParams, n: int) -> GcdReport:
    """gcd(|1-k|, X_n) = 1 for n >= 1, under k % 3 != 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    sides = coprime_norm_sides(TermContext(params).ensure(n), seq, range(n, n + 1))
    return _report(f"coprime-norm-{seq.lower()}", {"k": params.k, "n": n}, sides,
                   residue_hypothesis(params))


def check_consecutive_coprime(seq: str, params: SequenceParams, n: int) -> GcdReport:
    """gcd(X_n, X_{n+1}) = 1 for n >= 1, under k % 3 != 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    sides = consecutive_gcd_sides(TermContext(params).ensure(n + 1), seq, range(n, n + 1))
    return _report(f"consecutive-gcd-{seq.lower()}", {"k": params.k, "n": n}, sides,
                   residue_hypothesis(params))


def check_b_c_coprime(params: SequenceParams, n: int) -> GcdReport:
    """gcd(B_n, C_n) = 1 for n >= 0, under k % 3 != 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    sides = b_c_coprime_sides(TermContext(params).ensure(n), range(n, n + 1))
    return _report("b-c-coprime", {"k": params.k, "n": n}, sides,
                   residue_hypothesis(params))


def check_strong_gcd(params: SequenceParams, m: int, n: int) -> GcdReport:
    """gcd(B_m, B_n) = B_{gcd(m,n)} for m, n >= 1, under k % 3 != 1."""
    if m < 1 or n < 1:
        raise ValueError("indices must be >= 1")
    sides = strong_gcd_sides(TermContext(params).ensure(max(m, n)), m, range(n, n + 1))
    return _report("strong-gcd", {"k": params.k, "m": m, "n": n}, sides,
                   residue_hypothesis(params))
