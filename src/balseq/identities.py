"""Exact two-sided evaluation of the closed-form identities.

Every *_sides function computes both sides of its identity as exact integers
(or exact rationals where a closed form divides), for its caller to compare.
There is deliberately no tolerance anywhere: the domain is exact arithmetic,
and an inexact comparison would mask the very transcription errors this
package pins down.

Terms are always recomputed from the iterative recurrence, never from the
engine a caller might be trying to validate, so identity checks and engine
checks fail independently.  Only the matrix rows (matrix_sides,
ar_commute_sides) read an engine: the matrices whose representation they
check.  Every verify identity row's arithmetic lives here.  A caller builds
one TermContext for a k and calls the *_sides functions on it, a whole row
of the last index at a time: the verify sweeps, and verify.Sides.at, which
answers one point of a catalog row with a one-element range.  This module
builds no report: verify turns the two side lists into a verify.Report
where one is asked for.  The vajda sides raise ValueError on a row outside
their domain.

The vajda-1 sweep also shares a table of products of B terms on its
context, stored by diagonal (diagonals[d][a] = B_a*B_{a+d}), so that both
products of a row over n are runs of two diagonals and a check costs one
subtraction and one multiplication by k - 1; a single point builds no
table.  Rows (i, j) and (j, i) have equal sides, and the sweep runs them
one after the other, so the context keeps the last row's lists and the
mirrored row reuses them.  A full vajda-2 row likewise computes ell <=
(m - n)/2 and fills in the rest from the mirror, ell <-> m - n - ell.  The
caller still compares, counts and reports every point under its own
inputs; a single point never reuses a row.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, islice, repeat
from operator import mul, sub
from typing import Iterable

from .engines import (
    a_matrix,
    b_table,
    c_table,
    matrix_power,
    r_base_matrix,
    r_matrix,
)
from .ring import SequenceParams, alpha_power_components

Exact = int | Fraction


class TermContext:
    """Iterative-engine term tables for one k, grown on demand.

    b[i] = B_{k,i}, c[i] = C_{k,i}, pk[i] = (k-1)^i, all empty until the
    first `ensure`.  A sweep that reads the same products of B terms many
    times may also share diagonals[d][a] = b[a]*b[a+d], built by
    share_diagonals to the width each diagonal d is read at.  row_key and
    row_sides hold the last vajda-1 row vajda1_sides computed, so that its
    mirror, the next row, reuses its lists.  Growing b drops the product
    table and the row.
    """

    __slots__ = ("params", "b", "c", "pk", "diagonals", "row_key", "row_sides")

    def __init__(self, params: SequenceParams) -> None:
        self.params = params
        self.b, self.c, self.pk, self.diagonals = [], [], [], []
        self.row_key = self.row_sides = None

    def ensure(self, hi: int) -> TermContext:
        if hi >= len(self.b):
            self.b = b_table(self.params, hi)
            self.c = c_table(self.params, hi)
            norm = self.params.norm
            pk = [1]
            for _ in range(hi):
                pk.append(pk[-1] * norm)
            self.pk = pk
            self.diagonals = []
            self.row_key = self.row_sides = None
        return self

    def share_diagonals(self, widths: Iterable[int]) -> None:
        """Build diagonal d of the product table for a < widths[d] (and
        a + d within b)."""
        b = self.b
        self.diagonals = [list(map(mul, b[:w], b[d:d + w])) for d, w in enumerate(widths)]

    def diagonal(self, d: int, lo: int, hi: int) -> list[int]:
        """b[a]*b[a+d] for lo <= a < hi: a slice of the diagonal table where
        it covers them, computed otherwise (never a shorter list)."""
        diagonals = self.diagonals
        if d < len(diagonals) and hi <= len(diagonals[d]):
            return diagonals[d][lo:hi]
        b = self.b
        return [b[a] * b[a + d] for a in range(lo, hi)]

    def seq(self, name: str) -> list[int]:
        if name == "B":
            return self.b
        if name == "C":
            return self.c
        raise ValueError(f"seq must be 'B' or 'C', got {name!r}")


# ---------------------------------------------------------------------------
# side computations, shared between sweeps and single points
#
# Each takes its last index as a range and returns the (lhs, rhs) lists over
# it, so a sweep evaluates a whole row per call and a single point
# (verify.Sides.at) is a one-element range.

SideLists = tuple[list[int], list[Exact]]


def catalan_sides(ctx: TermContext, seq: str, n: int, rs: range) -> SideLists:
    """X_{n+r}*X_{n-r} - X_n^2 against -(k-1)^{n-r}*B_r^2 (B) or
    8(k-1)^{n-r+1}*B_r^2 (C), for n >= 1 and 0 <= r <= n."""
    x, b, pk = ctx.seq(seq), ctx.b, ctx.pk
    xn2 = x[n] * x[n]
    lhs = [x[n + r] * x[n - r] - xn2 for r in rs]
    if seq == "B":
        rhs = [-pk[n - r] * b[r] * b[r] for r in rs]
    else:
        rhs = [8 * pk[n - r + 1] * b[r] * b[r] for r in rs]
    return lhs, rhs


def cassini_sides(ctx: TermContext, seq: str, ns: range) -> SideLists:
    """X_n^2 - X_{n-1}*X_{n+1} against (k-1)^{n-1} (B) or -8(k-1)^n (C), for
    n >= 1."""
    x, pk = ctx.seq(seq), ctx.pk
    lhs = [x[n] * x[n] - x[n - 1] * x[n + 1] for n in ns]
    rhs = [pk[n - 1] for n in ns] if seq == "B" else [-8 * pk[n] for n in ns]
    return lhs, rhs


def docagne_sides(ctx: TermContext, seq: str, m: int, ns: range) -> SideLists:
    """X_m*X_{n+1} - X_n*X_{m+1} against (k-1)^n*B_{m-n} (B) or
    -8(k-1)^{n+1}*B_{m-n} (C), for m >= n >= 0."""
    x, b, pk = ctx.seq(seq), ctx.b, ctx.pk
    xm, xm1 = x[m], x[m + 1]
    lhs = [xm * x[n + 1] - x[n] * xm1 for n in ns]
    if seq == "B":
        rhs = [pk[n] * b[m - n] for n in ns]
    else:
        rhs = [-8 * pk[n + 1] * b[m - n] for n in ns]
    return lhs, rhs


def vajda1_sides(ctx: TermContext, i: int, j: int, ns: range) -> SideLists:
    """Vajda, first form: B_{n+i}*B_{n+j} - B_n*B_{n+i+j} against
    (k-1)^n * B_i*B_j, for n, i, j >= 0, ns a step-1 range.

    The free indices are named n, i, j (and m, ell in the second form); the
    sequence parameter k is a separate quantity (statements of this identity
    sometimes reuse the letter k for an index).  The two lhs products are
    runs of diagonals |j - i| and i + j of ctx.diagonal, and each rhs is the
    one before it times k - 1.  Rows (i, j) and (j, i) read the same
    diagonals and the same B_i*B_j, so they have equal sides: a row whose
    mirror (or itself) was the last row computed on ctx returns that row's
    lists, which the caller must not change.
    """
    lo, hi = ns.start, ns.stop
    if min(i, j, lo) < 0 or ns.step != 1:
        raise ValueError(f"vajda-1 row (i={i}, j={j}, n in {ns!r}) is outside the domain"
                         " i, j, n >= 0")
    key = (i, j, lo, hi) if i <= j else (j, i, lo, hi)
    if ctx.row_key == key:
        return ctx.row_sides
    a, b = key[0], ctx.b
    lhs = list(map(sub, ctx.diagonal(abs(j - i), a + lo, a + hi),
                   ctx.diagonal(i + j, lo, hi)))
    first = ctx.pk[lo] * b[i] * b[j]
    rhs = list(islice(accumulate(repeat(ctx.params.norm), mul, initial=first), hi - lo))
    ctx.row_key, ctx.row_sides = key, (lhs, rhs)
    return lhs, rhs


def _mirrored(half: list, t: int) -> list:
    """The values at ell = 0 .. t - 1, from half, those at ell <= t/2: the
    value at ell > t/2 is the one at t - ell."""
    return half + half[t - t // 2 - 1:0:-1]


def vajda2_sides(ctx: TermContext, n: int, m: int, ells: range) -> SideLists:
    """Vajda, second form: B_{n+ell}*B_{m-ell} - B_n*B_m against
    (k-1)^n * B_{m-n-ell}*B_ell, for n, ell >= 0 and m > n + ell; k is the
    sequence parameter, as in the first form.  At (n, m, ell) both sides are
    those of the first form at i = ell, j = m - n - ell and the same n.

    ell and m - n - ell read the same products for 0 < ell < m - n, so a
    full row (ells = range(m - n), with a mirrored pair in it) computes ell
    <= (m - n)/2 and fills in the rest; any other range is computed as it is.
    """
    t = m - n
    if n < 0 or ells and (min(ells[0], ells[-1]) < 0 or max(ells[0], ells[-1]) >= t):
        raise ValueError(f"vajda-2 row (n={n}, m={m}, ell in {ells!r}) is outside the domain"
                         " n, ell >= 0, m > n + ell")
    b = ctx.b
    bn_bm, pkn = b[n] * b[m], ctx.pk[n]
    full = t > 2 and ells == range(t)
    half = range(t // 2 + 1) if full else ells
    lhs = [b[n + ell] * b[m - ell] - bn_bm for ell in half]
    rhs = [pkn * b[t - ell] * b[ell] for ell in half]
    if full:
        return _mirrored(lhs, t), _mirrored(rhs, t)
    return lhs, rhs


def _exact(value: Fraction) -> Exact:
    return value if value.denominator != 1 else value.numerator


def sum_sides(ctx: TermContext, seq: str, ns: range) -> SideLists:
    """X_0 + ... + X_n summed directly against the closed form
    (-(2k+1)*X_n + (k-1)*X_{n-1} + c) / -2k, c = 1 (B) or 4 - 3k (C), an
    exact division, for n >= 1.

    The C closed form uses additive constant 4 - 3k (the variant that is
    exactly integral; see the errata module for the failing printed form).
    """
    k = ctx.params.k
    x = ctx.seq(seq)
    const = 1 if seq == "B" else 4 - 3 * k
    prefix = list(accumulate(x[: ns.stop]))  # prefix[n] = x[0] + ... + x[n]
    lhs = [prefix[n] for n in ns]
    rhs = [_exact(Fraction(-(2 * k + 1) * x[n] + (k - 1) * x[n - 1] + const, -2 * k))
           for n in ns]
    return lhs, rhs


def addition_sides(ctx: TermContext, m: int, ns: range) -> SideLists:
    """B_{m+n} against B_m*B_{n+1} + (1-k)*B_{m-1}*B_n, for m >= 1, n >= 0."""
    b = ctx.b
    bm, bm1 = b[m], (1 - ctx.params.k) * b[m - 1]
    lhs = [b[m + n] for n in ns]
    rhs = [bm * b[n + 1] + bm1 * b[n] for n in ns]
    return lhs, rhs


def doubling_sides(ctx: TermContext, ns: range) -> SideLists:
    """Both index-doubling identities, one pair of sides per n >= 1.

    B_{2n} = B_n*(B_{n+1} + (1-k)*B_{n-1}) and B_{2n-1} = B_n^2 + (1-k)*B_{n-1}^2
    hold at n together exactly when the pair given for n is equal: it is
    the even-index pair, or the odd-index pair when only that one fails.
    """
    b, c = ctx.b, 1 - ctx.params.k
    even = [(b[2 * n], b[n] * (b[n + 1] + c * b[n - 1])) for n in ns]
    odd = [(b[2 * n - 1], b[n] * b[n] + c * b[n - 1] * b[n - 1]) for n in ns]
    shown = [o if e[0] == e[1] and o[0] != o[1] else e for e, o in zip(even, odd)]
    return [s[0] for s in shown], [s[1] for s in shown]


def power_sum_sides(ctx: TermContext, ns: range) -> SideLists:
    """alpha^n + beta^n (ring route) against B_{n+1} - (k-1)*B_{n-1}, for
    n >= 1."""
    params, b = ctx.params, ctx.b
    lhs = [2 * u + params.trace * v
           for u, v in (alpha_power_components(params, n) for n in ns)]
    rhs = [b[n + 1] - params.norm * b[n - 1] for n in ns]
    return lhs, rhs


def c_from_b_sides(ctx: TermContext, ns: range) -> SideLists:
    """C_n against B_{n+1} + 3(1-k)*B_n, for n >= 0."""
    b, c = ctx.b, 3 * (1 - ctx.params.k)
    lhs = [ctx.c[n] for n in ns]
    rhs = [b[n + 1] + c * b[n] for n in ns]
    return lhs, rhs


def matrix_sides(ctx: TermContext, seq: str, n: int, entries: range) -> SideLists:
    """Row-major entries of A^n (B) or R*A^n (C) against the iterative terms."""
    x, k = ctx.seq(seq), ctx.params.k
    got = matrix_power(ctx.params, n) if seq == "B" else r_matrix(ctx.params, n)
    want = (x[n + 1], (1 - k) * x[n], x[n], (1 - k) * x[n - 1])
    return [got[e] for e in entries], [want[e] for e in entries]


def ar_commute_sides(ctx: TermContext, entries: range) -> SideLists:
    """Row-major entries of A*R against R*A."""
    a, r = a_matrix(ctx.params), r_base_matrix(ctx.params)
    ar, ra = a @ r, r @ a
    return [ar[e] for e in entries], [ra[e] for e in entries]
