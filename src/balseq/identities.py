"""The closed-form identities: their term tables, their row driver and
their rows.

Each identity's arithmetic is written once, as a private side kernel that
computes both sides as exact integers (or exact rationals where a closed
form divides), for its caller to compare.  There is deliberately no
tolerance anywhere: the domain is exact arithmetic, and an inexact
comparison would mask the very transcription errors this package pins down.

Terms are always recomputed from the iterative recurrence, never from the
engine a caller might be trying to validate, so identity checks and engine
checks fail independently.  Only the matrix rows (_matrix, _ar_commute)
read an engine: the matrices whose representation they check.

Each kernel is held by one row, declared in ROWS right after the kernels:
a Sides named tuple that states the row's domain, the largest term index
its sides read at a point (reach) and, for a gcd row, its theorem's
hypothesis.  One driver, Sides, runs every row, this module's and the gcd
rows of divisibility: it calls the kernel on one TermContext per k, a whole
row of the last index at a time, compares the two side lists it returns,
and builds a Report only for a failing element.  A row's sweep,
row(params, max_index), and its single point, row.at(params, **point), a
one-element range, are the public ways to evaluate an identity, and they
check their own input: the sweep builds its rows from the domain, and `at`
refuses a point outside it.  A kernel checks nothing, so a row outside its
domain would read terms at negative list indices.  verify.CATALOG is
ROWS followed by divisibility.ROWS; a sweep returns a SweepOutcome of
counts and failing reports, and merge_outcomes sums one name's outcomes.

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
from itertools import accumulate, islice, product, repeat
from operator import mul, sub
from typing import Callable, Iterable, NamedTuple

from .engines import (
    a_matrix,
    b_table,
    c_table,
    matrix_power,
    r_base_matrix,
    r_matrix,
)
from .ring import SequenceParams, alpha_power_components, is_int

Exact = int | Fraction


class TermContext:
    """Iterative-engine term tables for one k, grown on demand.

    b[i] = B_{k,i}, c[i] = C_{k,i}, pk[i] = (k-1)^i, all empty until the
    first `ensure`.  A sweep that reads the same products of B terms many
    times may also share diagonals[d][a] = b[a]*b[a+d], built by
    share_diagonals to the width each diagonal d is read at.  row_key and
    row_sides hold the last vajda-1 row _vajda1 computed, so that its
    mirror, the next row, reuses its lists.  Growing b drops the product
    table and the row.
    """

    __slots__ = ("params", "b", "c", "pk", "diagonals", "row_key", "row_sides")

    def __init__(self, params: SequenceParams) -> None:
        if not isinstance(params, SequenceParams):
            raise ValueError(f"TermContext takes a SequenceParams, got {params!r}")
        self.params = params
        self.b, self.c, self.pk, self.diagonals = [], [], [], []
        self.row_key = self.row_sides = None

    def ensure(self, hi: int) -> TermContext:
        """Grow the tables to hold every index up to hi, an int >= 0."""
        if not is_int(hi) or hi < 0:
            raise ValueError(f"ensure takes an int index >= 0, got {hi!r}")
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
# rows: one driver for every identity and gcd theorem

_SideLists = tuple[list[int], list[Exact]]


class Report(NamedTuple):
    """Both sides of one row at one point.

    kind is "identity" for an identity row and "gcd" for a gcd theorem row,
    whose lhs is the computed gcd and rhs the expected value; it picks the
    keys in verify.KIND_KEYS.  A sweep builds one per failing point, and a
    named tuple is built in about a third of a frozen dataclass's time (0.7
    against 2.3 us, 2-core x86-64, Python 3.11).  It equals the plain tuple
    of its fields.
    """

    name: str
    inputs: dict[str, int]
    lhs: Exact
    rhs: Exact
    holds: bool
    hypothesis_met: bool
    kind: str


class SweepOutcome(NamedTuple):
    """Aggregate of one row swept over one or more parameter boxes.

    Its fields are name, the counts in report order (verify.COUNTS), and
    failures, which holds the failing reports of both pools; a report's
    hypothesis_met says which.  Built once, by a sweep or by merge_outcomes,
    and never changed.
    """

    name: str
    checked: int
    held: int
    failed: int
    hypothesis_not_met: int
    failures: list[Report]


def merge_outcomes(outcomes: Iterable[SweepOutcome]) -> SweepOutcome:
    """One name's outcomes, one or more, as one outcome: their counts summed
    and their failures joined, in the order given."""
    (name, *_), *counts, failures = zip(*outcomes)
    return SweepOutcome(name, *map(sum, counts), [report for part in failures for report in part])


class Sides(NamedTuple):
    """One row: compares sides(ctx, *row) -> (lhs list, rhs list).

    A point gives one value to each of keys, in that order.  where(*point)
    says whether it is in the domain, where every key must also be >= 0, and
    reach(*point) is the largest term index the sides read at it.
    domain(max_index) lists the domain's points with every index at most
    max_index as rows, each the leading indices and a range of the last one;
    the sides come back as one list per side over that range.  A sweep builds
    its term tables to reach at the corner point whose every key is
    max_index.  diagonals, if set, gives the width of each diagonal of the
    shared table of B-term products the sides read.  A gcd row carries its
    theorem's hypothesis, and an identity row none; that sets the kind of
    the row's reports.  When the hypothesis fails at a k, every check of
    that k counts as hypothesis_not_met, not as failed.
    """

    name: str
    reach: Callable[..., int]
    domain: Callable[[int], Iterable[tuple]]
    where: Callable[..., bool]
    sides: Callable[..., _SideLists]
    keys: tuple[str, ...] = ("n",)  # input names of an index tuple
    hypothesis: Callable[[SequenceParams], bool] | None = None
    diagonals: Callable[[int], Iterable[int]] | None = None

    def context(self, params: SequenceParams, max_index: int) -> TermContext:
        """The term tables (and product table, if any) the sweep reads."""
        ctx = TermContext(params).ensure(self.reach(*[max_index] * len(self.keys)))
        if self.diagonals is not None:
            ctx.share_diagonals(self.diagonals(max_index))
        return ctx

    def _report(self, params: SequenceParams, point: tuple, lhs, rhs, met: bool) -> Report:
        """The report of the sides at one point; met is the hypothesis at k."""
        inputs = {"k": params.k, **dict(zip(self.keys, point))}
        return Report(self.name, inputs, lhs, rhs, lhs == rhs, met,
                      "identity" if self.hypothesis is None else "gcd")

    def at(self, params: SequenceParams, **inputs: int) -> Report:
        """The report at one point of the domain, named by keys, e.g.
        ROWS["catalan-b"].at(params, n=3, r=1), on term tables built to
        the point's reach (and no product table)."""
        given = ", ".join(f"{key}={value!r}" for key, value in inputs.items())
        if inputs.keys() != set(self.keys):
            raise ValueError(f"{self.name}({given}) takes {', '.join(self.keys)}")
        point = tuple(inputs[key] for key in self.keys)
        if not all(map(is_int, point)):
            raise ValueError(f"{self.name}({given}) takes integer indices")
        if min(point) < 0 or not self.where(*point):
            raise ValueError(f"{self.name}({given}) is outside the domain")
        *lead, last = point
        ctx = TermContext(params).ensure(self.reach(*point))
        (lhs,), (rhs,) = self.sides(ctx, *lead, range(last, last + 1))
        return self._report(params, point, lhs, rhs,
                           self.hypothesis is None or self.hypothesis(params))

    def __call__(self, params: SequenceParams, max_index: int) -> SweepOutcome:
        if not is_int(max_index) or max_index < 0:
            raise ValueError(f"{self.name} sweeps to an int max index >= 0, got {max_index!r}")
        ctx = self.context(params, max_index)
        met = self.hypothesis is None or self.hypothesis(params)
        checked, failures = 0, []
        for row in self.domain(max_index):
            lhs, rhs = self.sides(ctx, *row)
            checked += len(lhs)
            if lhs == rhs:
                continue
            *lead, last = row
            for index, left, right in zip(last, lhs, rhs):
                if left != right:
                    failures.append(self._report(params, (*lead, index), left, right, met))
        if not met:
            return SweepOutcome(self.name, checked, 0, 0, checked, failures)
        failed = len(failures)
        return SweepOutcome(self.name, checked, checked - failed, failed, 0, failures)


def _row(lo: int) -> tuple[Callable[[int], Iterable[tuple[range]]], Callable[[int], bool]]:
    """The domain of one index n >= lo, and its rows up to a max index as
    one row."""
    return lambda m: [(range(lo, m + 1),)], lambda n: n >= lo


def _triangle(lo: int) -> tuple[Callable[[int], Iterable[tuple[int, range]]],
                                Callable[[int, int], bool]]:
    """The domain of points (x, y) with x >= lo and y <= x, and its rows
    (x, range(x + 1)) for lo <= x <= max index."""
    return (lambda m: ((x, range(x + 1)) for x in range(lo, m + 1)),
            lambda x, y: x >= lo and y <= x)


def _mirrored_pairs(m: int) -> Iterable[tuple[int, int, range]]:
    """The vajda-1 rows (i, j, range(m + 1)) for i, j <= m, each (j, i) right
    after (i, j), whose sides _vajda1 then reuses."""
    ns = range(m + 1)
    for i in range(m + 1):
        yield i, i, ns
        for j in range(i + 1, m + 1):
            yield i, j, ns
            yield j, i, ns


def _twins(family: str, reach: Callable[..., int], domain: Callable[[int], Iterable[tuple]],
           where: Callable[..., bool], sides: Callable[..., _SideLists],
           *fields, **named) -> list[Sides]:
    """The -b and -c rows of a B/C family: sides(ctx, seq, *row) with seq "B"
    and "C", other fields as given.  seq is bound as a default argument: a
    closure would read it after the loop, and both rows would sweep C."""
    return [Sides(f"{family}-{seq.lower()}", reach, domain, where,
                  lambda ctx, *row, seq=seq: sides(ctx, seq, *row), *fields, **named)
            for seq in "BC"]


# ---------------------------------------------------------------------------
# side computations, shared between sweeps and single points
#
# Each takes its last index as a range and returns the (lhs, rhs) lists over
# it, so a sweep evaluates a whole row per call and a single point
# (Sides.at) is a one-element range.  The row in ROWS that holds a kernel
# keeps its input in the domain.


def _catalan(ctx: TermContext, seq: str, n: int, rs: range) -> _SideLists:
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


def _cassini(ctx: TermContext, seq: str, ns: range) -> _SideLists:
    """X_n^2 - X_{n-1}*X_{n+1} against (k-1)^{n-1} (B) or -8(k-1)^n (C), for
    n >= 1."""
    x, pk = ctx.seq(seq), ctx.pk
    lhs = [x[n] * x[n] - x[n - 1] * x[n + 1] for n in ns]
    rhs = [pk[n - 1] for n in ns] if seq == "B" else [-8 * pk[n] for n in ns]
    return lhs, rhs


def _docagne(ctx: TermContext, seq: str, m: int, ns: range) -> _SideLists:
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


def _vajda1(ctx: TermContext, i: int, j: int, ns: range) -> _SideLists:
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


def _vajda2(ctx: TermContext, n: int, m: int, ells: range) -> _SideLists:
    """Vajda, second form: B_{n+ell}*B_{m-ell} - B_n*B_m against
    (k-1)^n * B_{m-n-ell}*B_ell, for n, ell >= 0 and m > n + ell; k is the
    sequence parameter, as in the first form.  At (n, m, ell) both sides are
    those of the first form at i = ell, j = m - n - ell and the same n.

    ell and m - n - ell read the same products for 0 < ell < m - n, so a
    full row (ells = range(m - n), with a mirrored pair in it) computes ell
    <= (m - n)/2 and fills in the rest; any other range is computed as it is.
    """
    t = m - n
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


def _sum(ctx: TermContext, seq: str, ns: range) -> _SideLists:
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


def _addition(ctx: TermContext, m: int, ns: range) -> _SideLists:
    """B_{m+n} against B_m*B_{n+1} + (1-k)*B_{m-1}*B_n, for m >= 1, n >= 0."""
    b = ctx.b
    bm, bm1 = b[m], (1 - ctx.params.k) * b[m - 1]
    lhs = [b[m + n] for n in ns]
    rhs = [bm * b[n + 1] + bm1 * b[n] for n in ns]
    return lhs, rhs


def _doubling(ctx: TermContext, ns: range) -> _SideLists:
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


def _power_sum(ctx: TermContext, ns: range) -> _SideLists:
    """alpha^n + beta^n (ring route) against B_{n+1} - (k-1)*B_{n-1}, for
    n >= 1."""
    params, b = ctx.params, ctx.b
    lhs = [2 * u + params.trace * v
           for u, v in (alpha_power_components(params, n) for n in ns)]
    rhs = [b[n + 1] - params.norm * b[n - 1] for n in ns]
    return lhs, rhs


def _c_from_b(ctx: TermContext, ns: range) -> _SideLists:
    """C_n against B_{n+1} + 3(1-k)*B_n, for n >= 0."""
    b, c = ctx.b, 3 * (1 - ctx.params.k)
    lhs = [ctx.c[n] for n in ns]
    rhs = [b[n + 1] + c * b[n] for n in ns]
    return lhs, rhs


def _matrix(ctx: TermContext, seq: str, n: int, entries: range) -> _SideLists:
    """Row-major entries of A^n (B) or R*A^n (C) against the iterative terms."""
    x, k = ctx.seq(seq), ctx.params.k
    got = matrix_power(ctx.params, n) if seq == "B" else r_matrix(ctx.params, n)
    want = (x[n + 1], (1 - k) * x[n], x[n], (1 - k) * x[n - 1])
    return [got[e] for e in entries], [want[e] for e in entries]


def _ar_commute(ctx: TermContext, entries: range) -> _SideLists:
    """Row-major entries of A*R against R*A."""
    a, r = a_matrix(ctx.params), r_base_matrix(ctx.params)
    ar, ra = a @ r, r @ a
    return [ar[e] for e in entries], [ra[e] for e in entries]


# ---------------------------------------------------------------------------
# the identity rows, in report order

ROWS: dict[str, Sides] = {row.name: row for row in [
    # catalan-c reads (k-1)^(n-r+1), so its tables reach n + 1 at r = 0
    *_twins("catalan", lambda n, r: n + max(r, 1), *_triangle(1), _catalan, ("n", "r")),
    *_twins("cassini", lambda n: n + 1, *_row(1), _cassini),
    *_twins("docagne", lambda m, n: m + 1, *_triangle(0), _docagne, ("m", "n")),
    Sides("vajda-1", lambda i, j, n: n + i + j, _mirrored_pairs,
          lambda i, j, n: True, _vajda1, ("i", "j", "n"),
          # row (i, j) reads diagonal |j - i| <= m at a <= 2m - |j - i|, and
          # diagonal i + j <= 2m at a <= m
          diagonals=lambda m: [2 * m + 1 - d if d <= m else m + 1 for d in range(2 * m + 1)]),
    Sides("vajda-2", lambda n, m, ell: m,
          lambda m: ((n, x, range(x - n)) for x in range(1, m + 1) for n in range(x)),
          lambda n, m, ell: m > n + ell, _vajda2, ("n", "m", "ell")),
    *_twins("sum", lambda n: n, *_row(1), _sum),
    Sides("addition", lambda m, n: m + n, lambda m: product(range(1, m + 1), [range(m + 1)]),
          lambda m, n: m >= 1, _addition, ("m", "n")),
    Sides("doubling", lambda n: 2 * n + 1, *_row(1), _doubling),
    Sides("power-sum", lambda n: n + 1, *_row(1), _power_sum),
    Sides("c-from-b", lambda n: n + 1, *_row(0), _c_from_b),
    *_twins("matrix", lambda n, entry: n + 1, lambda m: product(range(1, m + 1), [range(4)]),
            lambda n, entry: n >= 1 and entry < 4, _matrix, ("n", "entry")),
    Sides("ar-commute", lambda entry: 0, lambda m: [(range(4),)], lambda entry: entry < 4,
          _ar_commute, ("entry",)),
]}
