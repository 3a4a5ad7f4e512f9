"""Exact two-sided evaluation of the closed-form identities.

Every evaluator computes both sides of its identity as exact integers (or
exact rationals where a closed form divides) and reports whether they agree.
There is deliberately no tolerance anywhere: the domain is exact arithmetic,
and an inexact comparison would mask the very transcription errors this
package pins down.

Terms are always recomputed from the iterative recurrence, never from the
engine a caller might be trying to validate, so identity checks and engine
checks fail independently.  A TermContext carries the shared tables when a
sweep evaluates many tuples for the same k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .engines import b_table, c_table
from .ring import SequenceParams, alpha_power_components

Exact = int | Fraction


@dataclass(frozen=True)
class IdentityReport:
    identity_name: str
    inputs: dict[str, int]
    lhs: Exact
    rhs: Exact
    holds: bool
    hypothesis_met: bool = True


@dataclass
class TermContext:
    """Iterative-engine term tables for one k, grown on demand.

    b[i] = B_{k,i}, c[i] = C_{k,i}, pk[i] = (k-1)^i.
    """

    params: SequenceParams
    b: list[int] = field(default_factory=list)
    c: list[int] = field(default_factory=list)
    pk: list[int] = field(default_factory=list)

    def ensure(self, hi: int) -> TermContext:
        if hi >= len(self.b):
            self.b = b_table(self.params, hi)
            self.c = c_table(self.params, hi)
            norm = self.params.norm
            pk = [1]
            for _ in range(hi):
                pk.append(pk[-1] * norm)
            self.pk = pk
        return self

    def seq(self, name: str) -> list[int]:
        if name == "B":
            return self.b
        if name == "C":
            return self.c
        raise ValueError(f"seq must be 'B' or 'C', got {name!r}")


def _ctx(params: SequenceParams, hi: int, ctx: TermContext | None) -> TermContext:
    if ctx is None:
        ctx = TermContext(params)
    return ctx.ensure(hi)


def _report(name: str, inputs: dict[str, int], lhs: Exact, rhs: Exact) -> IdentityReport:
    return IdentityReport(name, inputs, lhs, rhs, lhs == rhs)


# ---------------------------------------------------------------------------
# side computations, shared between single-shot evaluators and sweeps
#
# Each takes its last index as a range and returns the (lhs, rhs) lists over
# it, so a sweep evaluates a whole row per call and a single-shot evaluator
# passes a one-element range.

SideLists = tuple[list[int], list[Exact]]


def catalan_sides(ctx: TermContext, seq: str, n: int, rs: range) -> SideLists:
    x, b, pk = ctx.seq(seq), ctx.b, ctx.pk
    xn2 = x[n] * x[n]
    lhs = [x[n + r] * x[n - r] - xn2 for r in rs]
    if seq == "B":
        rhs = [-pk[n - r] * b[r] * b[r] for r in rs]
    else:
        rhs = [8 * pk[n - r + 1] * b[r] * b[r] for r in rs]
    return lhs, rhs


def cassini_sides(ctx: TermContext, seq: str, ns: range) -> SideLists:
    x, pk = ctx.seq(seq), ctx.pk
    lhs = [x[n] * x[n] - x[n - 1] * x[n + 1] for n in ns]
    rhs = [pk[n - 1] for n in ns] if seq == "B" else [-8 * pk[n] for n in ns]
    return lhs, rhs


def docagne_sides(ctx: TermContext, seq: str, m: int, ns: range) -> SideLists:
    x, b, pk = ctx.seq(seq), ctx.b, ctx.pk
    xm, xm1 = x[m], x[m + 1]
    lhs = [xm * x[n + 1] - x[n] * xm1 for n in ns]
    if seq == "B":
        rhs = [pk[n] * b[m - n] for n in ns]
    else:
        rhs = [-8 * pk[n + 1] * b[m - n] for n in ns]
    return lhs, rhs


def vajda1_sides(ctx: TermContext, n: int, i: int, js: range) -> SideLists:
    b = ctx.b
    bn, bni, base = b[n], b[n + i], n + i
    scale = ctx.pk[n] * b[i]
    lhs = [bni * b[n + j] - bn * b[base + j] for j in js]
    rhs = [scale * b[j] for j in js]
    return lhs, rhs


def vajda2_sides(ctx: TermContext, n: int, m: int, ells: range) -> SideLists:
    b = ctx.b
    bn_bm, pkn = b[n] * b[m], ctx.pk[n]
    lhs = [b[n + ell] * b[m - ell] - bn_bm for ell in ells]
    rhs = [pkn * b[m - n - ell] * b[ell] for ell in ells]
    return lhs, rhs


def _exact(value: Fraction) -> Exact:
    return value if value.denominator != 1 else value.numerator


def sum_sides(ctx: TermContext, seq: str, ns: range) -> SideLists:
    """Direct summation against the closed form.

    The C closed form uses additive constant 4 - 3k (the variant that is
    exactly integral; see the errata module for the failing printed form).
    """
    k = ctx.params.k
    x = ctx.seq(seq)
    const = 1 if seq == "B" else 4 - 3 * k
    lhs = [sum(x[: n + 1]) for n in ns]
    rhs = [_exact(Fraction(-(2 * k + 1) * x[n] + (k - 1) * x[n - 1] + const, -2 * k))
           for n in ns]
    return lhs, rhs


def addition_sides(ctx: TermContext, m: int, ns: range) -> SideLists:
    b = ctx.b
    bm, bm1 = b[m], (1 - ctx.params.k) * b[m - 1]
    lhs = [b[m + n] for n in ns]
    rhs = [bm * b[n + 1] + bm1 * b[n] for n in ns]
    return lhs, rhs


def doubling_sides(ctx: TermContext, ns: range) -> SideLists:
    """Both index-doubling identities, one pair of sides per n.

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
    params, b = ctx.params, ctx.b
    lhs = [2 * u + params.trace * v
           for u, v in (alpha_power_components(params, n) for n in ns)]
    rhs = [b[n + 1] - params.norm * b[n - 1] for n in ns]
    return lhs, rhs


def c_from_b_sides(ctx: TermContext, ns: range) -> SideLists:
    b, c = ctx.b, 3 * (1 - ctx.params.k)
    lhs = [ctx.c[n] for n in ns]
    rhs = [b[n + 1] + c * b[n] for n in ns]
    return lhs, rhs


# ---------------------------------------------------------------------------
# single-shot evaluators

def catalan(
    seq: str, params: SequenceParams, n: int, r: int, ctx: TermContext | None = None
) -> IdentityReport:
    """X_{n+r}*X_{n-r} - X_n^2 against its closed form, 0 <= r <= n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if r < 0 or r > n:
        raise ValueError("r must satisfy 0 <= r <= n")
    ctx = _ctx(params, n + r, ctx)
    (lhs,), (rhs,) = catalan_sides(ctx, seq, n, range(r, r + 1))
    return _report(f"catalan-{seq.lower()}", {"k": params.k, "n": n, "r": r}, lhs, rhs)


def cassini(
    seq: str, params: SequenceParams, n: int, ctx: TermContext | None = None
) -> IdentityReport:
    """X_n^2 - X_{n-1}*X_{n+1} against (k-1)^{n-1} (B) or -8(k-1)^n (C)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ctx = _ctx(params, n + 1, ctx)
    (lhs,), (rhs,) = cassini_sides(ctx, seq, range(n, n + 1))
    return _report(f"cassini-{seq.lower()}", {"k": params.k, "n": n}, lhs, rhs)


def docagne(
    seq: str, params: SequenceParams, m: int, n: int, ctx: TermContext | None = None
) -> IdentityReport:
    """X_m*X_{n+1} - X_n*X_{m+1} against its closed form, m >= n >= 0."""
    if n < 0 or m < n:
        raise ValueError("indices must satisfy m >= n >= 0")
    ctx = _ctx(params, m + 1, ctx)
    (lhs,), (rhs,) = docagne_sides(ctx, seq, m, range(n, n + 1))
    return _report(f"docagne-{seq.lower()}", {"k": params.k, "m": m, "n": n}, lhs, rhs)


def vajda(
    form: int,
    params: SequenceParams,
    n: int,
    i: int | None = None,
    j: int | None = None,
    m: int | None = None,
    ell: int | None = None,
    ctx: TermContext | None = None,
) -> IdentityReport:
    """Both Vajda formulations, rhs base (k-1)^n in each.

    Form 1: B_{n+i}*B_{n+j} - B_n*B_{n+i+j} = (k-1)^n * B_i * B_j.
    Form 2: B_{n+l}*B_{m-l} - B_n*B_m = (k-1)^n * B_{m-n-l} * B_l for
    m > n + l.  The free indices are named n, i, j, m, l here; the sequence
    parameter k is a separate quantity (statements of this identity sometimes
    reuse the letter k for an index).
    """
    if form == 1:
        if i is None or j is None:
            raise ValueError("form 1 takes n, i, j")
        if n < 0 or i < 0 or j < 0:
            raise ValueError("form 1 requires n, i, j >= 0")
        ctx = _ctx(params, n + i + j, ctx)
        (lhs,), (rhs,) = vajda1_sides(ctx, n, i, range(j, j + 1))
        return _report("vajda-1", {"k": params.k, "n": n, "i": i, "j": j}, lhs, rhs)
    if form == 2:
        if m is None or ell is None:
            raise ValueError("form 2 takes n, m, ell")
        if n < 0 or ell < 0 or m <= n + ell:
            raise ValueError("form 2 requires n, ell >= 0 and m > n + ell")
        ctx = _ctx(params, max(m, n + ell), ctx)
        (lhs,), (rhs,) = vajda2_sides(ctx, n, m, range(ell, ell + 1))
        return _report("vajda-2", {"k": params.k, "n": n, "m": m, "ell": ell}, lhs, rhs)
    raise ValueError("form must be 1 or 2")


def sum_closed_form(
    seq: str, params: SequenceParams, n: int, ctx: TermContext | None = None
) -> IdentityReport:
    """First n+1 terms summed directly against the closed form (exact division)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ctx = _ctx(params, n, ctx)
    (lhs,), (rhs,) = sum_sides(ctx, seq, range(n, n + 1))
    return _report(f"sum-{seq.lower()}", {"k": params.k, "n": n}, lhs, rhs)


def addition_formula(
    params: SequenceParams, m: int, n: int, ctx: TermContext | None = None
) -> IdentityReport:
    """B_{m+n} = B_m*B_{n+1} + (1-k)*B_{m-1}*B_n for m >= 1, n >= 0."""
    if m < 1 or n < 0:
        raise ValueError("indices must satisfy m >= 1, n >= 0")
    ctx = _ctx(params, m + n, ctx)
    (lhs,), (rhs,) = addition_sides(ctx, m, range(n, n + 1))
    return _report("addition", {"k": params.k, "m": m, "n": n}, lhs, rhs)


def doubling_formulas(
    params: SequenceParams, n: int, ctx: TermContext | None = None
) -> IdentityReport:
    """Both doubling identities at n; holds only when both hold.

    The reported sides are the even-index pair, or the first failing pair
    when one fails.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ctx = _ctx(params, 2 * n + 1, ctx)
    (lhs,), (rhs,) = doubling_sides(ctx, range(n, n + 1))
    return _report("doubling", {"k": params.k, "n": n}, lhs, rhs)


def power_sum_identity(
    params: SequenceParams, n: int, ctx: TermContext | None = None
) -> IdentityReport:
    """alpha^n + beta^n (ring route) against B_{n+1} - (k-1)*B_{n-1}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ctx = _ctx(params, n + 1, ctx)
    (lhs,), (rhs,) = power_sum_sides(ctx, range(n, n + 1))
    return _report("power-sum", {"k": params.k, "n": n}, lhs, rhs)


def c_from_b(
    params: SequenceParams, n: int, ctx: TermContext | None = None
) -> IdentityReport:
    """C_n = B_{n+1} + 3(1-k)*B_n for n >= 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    ctx = _ctx(params, n + 1, ctx)
    (lhs,), (rhs,) = c_from_b_sides(ctx, range(n, n + 1))
    return _report("c-from-b", {"k": params.k, "n": n}, lhs, rhs)
