"""Divisibility and gcd theorems for the B and C sequences.

B_{k,n} is the Lucas sequence U_n(P, Q) with P = 3k and Q = k - 1, so these
are instances of Lucas-sequence theory.  Most of them hold only under its
classical hypothesis gcd(P, Q) = 1, which here is gcd(3, k - 1) = 1, i.e. the
residue condition k % 3 != 1.  b-c-coprime restates consecutive-gcd-b, since
C_n = B_{n+1} + 3(1-k)B_n gives gcd(B_n, C_n) = gcd(B_n, B_{n+1}).
index-divisibility, B_m | B_n whenever m | n, runs _strong_gcd on
m | n, where B_{gcd(m,n)} is B_m; it needs no residue condition.  Checks are
run regardless and tagged: hypothesis_met is False when the condition
fails.  Such checks count as hypothesis_not_met, never as failed, and a
verify report lists their failures in a pool of their own, the expected
failures, beside the violations.  Demonstrating that the condition is
necessary (e.g. gcd(B_{4,2}, B_{4,3}) = 3) is as much a part of the contract
as the theorems themselves.

Each theorem is written once, as a private side kernel that takes its last
index as a range and returns the computed gcds and the expected values over
it.  Its one caller is its row in ROWS, declared after the kernels: an
identities.Sides that carries the theorem's hypothesis and is run by the
one row driver there.  The row's sweep, ROWS[name](params, max_index),
calls the kernel a row of its domain at a time, and the row's single
point, ROWS[name].at(params, **point), which refuses a point outside the
domain, calls it on a one-element range to answer with an
identities.Report of kind "gcd", whose lhs is the computed gcd and rhs the
expected value.  verify.CATALOG lists these rows after the identity rows.
The five check_* functions are such single points under their historical
names.  They read ROWS, not verify.CATALOG, so they still answer while a
caller has replaced catalog entries.  A kernel checks nothing itself.

gcd is always taken on magnitudes with gcd(0, x) = |x|, since 1 - k is
negative for k >= 2.
"""

from __future__ import annotations

import math

from .identities import Report, Sides, TermContext, _SideLists, _row, _twins
from .ring import SequenceParams


def residue_hypothesis(params: SequenceParams) -> bool:
    """gcd(P, Q) = 1 for the Lucas parameters P = 3k, Q = k - 1 of B.

    This is the hypothesis under which a Lucas sequence U_n(P, Q) has strong
    divisibility, gcd(U_m, U_n) = U_{gcd(m, n)} (E. Lucas, Amer. J. Math. 1,
    1878; R. D. Carmichael, Ann. Math. 15, 1913).  Since
    gcd(3k, k - 1) = gcd(3, k - 1), it holds exactly when k % 3 != 1.
    """
    return math.gcd(params.trace, params.norm) == 1


# ---------------------------------------------------------------------------
# gcd computations, shared between sweeps and single points

def _coprime_norm(ctx: TermContext, seq: str, ns: range) -> _SideLists:
    """gcd(|1-k|, X_n) against 1, for n >= 1, under k % 3 != 1."""
    x, norm = ctx.seq(seq), ctx.params.k - 1
    return [math.gcd(norm, x[n]) for n in ns], [1] * len(ns)


def _consecutive_gcd(ctx: TermContext, seq: str, ns: range) -> _SideLists:
    """gcd(X_n, X_{n+1}) against 1, for n >= 1, under k % 3 != 1."""
    x = ctx.seq(seq)
    return [math.gcd(x[n], x[n + 1]) for n in ns], [1] * len(ns)


def _b_c_coprime(ctx: TermContext, ns: range) -> _SideLists:
    """gcd(B_n, C_n) against 1, for n >= 0, under k % 3 != 1.

    C_n = B_{n+1} + 3(1-k)B_n, so gcd(B_n, C_n) = gcd(B_n, B_{n+1}): this row
    restates consecutive-gcd-b on the same n.
    """
    b, c = ctx.b, ctx.c
    return [math.gcd(b[n], c[n]) for n in ns], [1] * len(ns)


def _strong_gcd(ctx: TermContext, m: int, ns: range) -> _SideLists:
    """gcd(B_m, B_n) against B_{gcd(m,n)}, for 1 <= m <= n, under k % 3 != 1.

    gcd is symmetric, so the domain takes m <= n.  On m | n it states
    B_m | B_n (index-divisibility), since B_m > 0 for m >= 1.
    """
    b = ctx.b
    bm = b[m]
    return [math.gcd(bm, b[n]) for n in ns], [b[math.gcd(m, n)] for n in ns]


# ---------------------------------------------------------------------------
# the gcd rows, in report order

ROWS: dict[str, Sides] = {row.name: row for row in [
    # strong-gcd on m | n, where B_gcd(m,n) is B_m, so it holds for every k
    Sides("index-divisibility", lambda m, n: n,
          lambda m: ((d, range(d, m + 1, d)) for d in range(1, m + 1)),
          lambda m, n: m >= 1 and n >= 1 and n % m == 0,
          _strong_gcd, ("m", "n"), lambda params: True),
    *_twins("coprime-norm", lambda n: n, *_row(1), _coprime_norm,
            hypothesis=residue_hypothesis),
    *_twins("consecutive-gcd", lambda n: n + 1, *_row(1), _consecutive_gcd,
            hypothesis=residue_hypothesis),
    Sides("b-c-coprime", lambda n: n, *_row(0), _b_c_coprime,
          hypothesis=residue_hypothesis),
    Sides("strong-gcd", lambda m, n: max(m, n),
          lambda m: ((x, range(x, m + 1)) for x in range(1, m + 1)),
          lambda m, n: 1 <= m <= n, _strong_gcd, ("m", "n"), residue_hypothesis),
]}


# ---------------------------------------------------------------------------
# single points of the theorems, by their historical names
#
# Each is ROWS[name].at; the benchmark's tracer (perfbench/tracing.py)
# wraps these names, so they stay until it changes.

def _twin(family: str, seq: str) -> Sides:
    """The -b or -c row of a B/C family, for seq "B" or "C"."""
    if seq not in ("B", "C"):
        raise ValueError(f"seq must be 'B' or 'C', got {seq!r}")
    return ROWS[f"{family}-{seq.lower()}"]


def check_index_divisibility(params: SequenceParams, m: int, n: int) -> Report:
    return ROWS["index-divisibility"].at(params, m=m, n=n)


def check_coprime_norm(seq: str, params: SequenceParams, n: int) -> Report:
    return _twin("coprime-norm", seq).at(params, n=n)


def check_consecutive_coprime(seq: str, params: SequenceParams, n: int) -> Report:
    return _twin("consecutive-gcd", seq).at(params, n=n)


def check_b_c_coprime(params: SequenceParams, n: int) -> Report:
    return ROWS["b-c-coprime"].at(params, n=n)


def check_strong_gcd(params: SequenceParams, m: int, n: int) -> Report:
    return ROWS["strong-gcd"].at(params, m=m, n=n)
