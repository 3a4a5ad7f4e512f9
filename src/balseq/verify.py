"""Sweep runner: every identity and gcd theorem over a (k, index) box.

Each catalog entry sweeps its whole in-domain tuple set up to a max index
and returns counts plus the failing reports.  Most entries are table rows
run by one of two drivers: `Sides` compares the (lhs, rhs) pair of a
*_sides function at each index tuple and builds a report only for a
failure; `Checks` absorbs the GcdReport that a check_* theorem builds for
every tuple.  The five hot multi-index sweeps (Catalan, d'Ocagne, both
Vajda forms, addition) keep their own loops, which repeat the arithmetic of
the matching *_sides functions inline; a unit test pins the two code paths
together.

Checks whose residue hypothesis (k % 3 != 1) fails are counted in a
separate expected-failure pool and never as violations.  Sweeps run
serially and the final report is canonically sorted, so the emitted JSON is
byte-identical from one run to the next.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from typing import Callable, Iterable

from . import __version__
from .decimal_io import decimal_int, decimal_str
from .divisibility import (
    GcdReport,
    check_b_c_coprime,
    check_consecutive_coprime,
    check_coprime_norm,
    check_index_divisibility,
    check_strong_gcd,
)
from .engines import Mat2, a_matrix, matrix_power, r_base_matrix, r_matrix
from .identities import (
    Exact,
    IdentityReport,
    TermContext,
    cassini_sides,
    c_from_b_sides,
    doubling_sides,
    power_sum_sides,
    sum_sides,
)
from .ring import SequenceParams

Report = IdentityReport | GcdReport


@dataclass
class SweepOutcome:
    """Aggregate of one identity swept over one or more parameter boxes."""

    name: str
    checked: int = 0
    held: int = 0
    failed: int = 0
    hypothesis_not_met: int = 0
    violations: list[Report] = field(default_factory=list)
    expected_failures: list[Report] = field(default_factory=list)

    def absorb(self, report: Report) -> None:
        self.checked += 1
        if not report.hypothesis_met:
            self.hypothesis_not_met += 1
            if not report.holds:
                self.expected_failures.append(report)
        elif report.holds:
            self.held += 1
        else:
            self.failed += 1
            self.violations.append(report)

    def merge(self, other: SweepOutcome) -> None:
        self.checked += other.checked
        self.held += other.held
        self.failed += other.failed
        self.hypothesis_not_met += other.hypothesis_not_met
        self.violations.extend(other.violations)
        self.expected_failures.extend(other.expected_failures)


def _identity_fail(out: SweepOutcome, name, inputs, lhs, rhs) -> None:
    out.failed += 1
    out.violations.append(IdentityReport(name, inputs, lhs, rhs, False))


# ---------------------------------------------------------------------------
# hot sweeps with their own loops

def sweep_catalan(seq: str):
    name = f"catalan-{seq.lower()}"

    def run(params: SequenceParams, max_index: int) -> SweepOutcome:
        out = SweepOutcome(name)
        ctx = TermContext(params).ensure(2 * max_index)
        x, b, pk, k = ctx.seq(seq), ctx.b, ctx.pk, params.k
        sign = -1 if seq == "B" else 8
        shift = 0 if seq == "B" else 1
        for n in range(1, max_index + 1):
            xn2 = x[n] * x[n]
            for r in range(n + 1):
                lhs = x[n + r] * x[n - r] - xn2
                br = b[r]
                rhs = sign * pk[n - r + shift] * br * br
                out.checked += 1
                if lhs == rhs:
                    out.held += 1
                else:
                    _identity_fail(out, name, {"k": k, "n": n, "r": r}, lhs, rhs)
        return out

    return run


def sweep_docagne(seq: str):
    name = f"docagne-{seq.lower()}"

    def run(params: SequenceParams, max_index: int) -> SweepOutcome:
        out = SweepOutcome(name)
        ctx = TermContext(params).ensure(max_index + 1)
        x, b, pk, k = ctx.seq(seq), ctx.b, ctx.pk, params.k
        scale = 1 if seq == "B" else -8
        shift = 0 if seq == "B" else 1
        for m in range(max_index + 1):
            xm, xm1 = x[m], x[m + 1]
            for n in range(m + 1):
                lhs = xm * x[n + 1] - x[n] * xm1
                rhs = scale * pk[n + shift] * b[m - n]
                out.checked += 1
                if lhs == rhs:
                    out.held += 1
                else:
                    _identity_fail(out, name, {"k": k, "m": m, "n": n}, lhs, rhs)
        return out

    return run


def sweep_vajda_1(params: SequenceParams, max_index: int) -> SweepOutcome:
    out = SweepOutcome("vajda-1")
    ctx = TermContext(params).ensure(3 * max_index)
    b, pk, k = ctx.b, ctx.pk, params.k
    checked = held = 0
    for n in range(max_index + 1):
        pkn = pk[n]
        bn = b[n]
        for i in range(max_index + 1):
            bni = b[n + i]
            pknbi = pkn * b[i]
            base = n + i
            for j in range(max_index + 1):
                lhs = bni * b[n + j] - bn * b[base + j]
                rhs = pknbi * b[j]
                checked += 1
                if lhs == rhs:
                    held += 1
                else:
                    _identity_fail(
                        out, "vajda-1", {"k": k, "n": n, "i": i, "j": j}, lhs, rhs
                    )
    out.checked += checked
    out.held += held
    return out


def sweep_vajda_2(params: SequenceParams, max_index: int) -> SweepOutcome:
    out = SweepOutcome("vajda-2")
    ctx = TermContext(params).ensure(max_index)
    b, pk, k = ctx.b, ctx.pk, params.k
    checked = held = 0
    for m in range(1, max_index + 1):
        bm = b[m]
        for n in range(m):
            pkn = pk[n]
            bn_bm = b[n] * bm
            for ell in range(m - n):
                lhs = b[n + ell] * b[m - ell] - bn_bm
                rhs = pkn * b[m - n - ell] * b[ell]
                checked += 1
                if lhs == rhs:
                    held += 1
                else:
                    _identity_fail(
                        out, "vajda-2", {"k": k, "n": n, "m": m, "ell": ell}, lhs, rhs
                    )
    out.checked += checked
    out.held += held
    return out


def sweep_addition(params: SequenceParams, max_index: int) -> SweepOutcome:
    out = SweepOutcome("addition")
    ctx = TermContext(params).ensure(2 * max_index)
    b, k = ctx.b, params.k
    checked = held = 0
    for m in range(1, max_index + 1):
        bm, bm1 = b[m], b[m - 1]
        for n in range(max_index + 1):
            lhs = b[m + n]
            rhs = bm * b[n + 1] + (1 - k) * bm1 * b[n]
            checked += 1
            if lhs == rhs:
                held += 1
            else:
                _identity_fail(out, "addition", {"k": k, "m": m, "n": n}, lhs, rhs)
    out.checked += checked
    out.held += held
    return out


# ---------------------------------------------------------------------------
# table-driven sweeps

Index = tuple[int, ...]


@dataclass(frozen=True)
class Sweep:
    """One catalog row; size and domain are functions of the max index."""

    name: str
    size: Callable[[int], int]  # index the term tables are built up to
    domain: Callable[[int], Iterable[Index]]  # the index tuples to check


@dataclass(frozen=True)
class Sides(Sweep):
    """Compares sides(ctx, *index) -> (lhs, rhs) over the domain."""

    sides: Callable[..., tuple[Exact, Exact]]
    keys: tuple[str, ...] = ("n",)  # input names of an index tuple

    def __call__(self, params: SequenceParams, max_index: int) -> SweepOutcome:
        out = SweepOutcome(self.name)
        ctx = TermContext(params).ensure(self.size(max_index))
        for index in self.domain(max_index):
            lhs, rhs = self.sides(ctx, *index)
            out.checked += 1
            if lhs == rhs:
                out.held += 1
            else:
                inputs = {"k": params.k, **dict(zip(self.keys, index))}
                _identity_fail(out, self.name, inputs, lhs, rhs)
        return out


@dataclass(frozen=True)
class Checks(Sweep):
    """Absorbs the GcdReport of check(params, *index, ctx) over the domain."""

    check: Callable[..., GcdReport]

    def __call__(self, params: SequenceParams, max_index: int) -> SweepOutcome:
        out = SweepOutcome(self.name)
        ctx = TermContext(params).ensure(self.size(max_index))
        for index in self.domain(max_index):
            out.absorb(self.check(params, *index, ctx))
        return out


def _upto(lo: int) -> Callable[[int], Iterable[Index]]:
    """The domain of one index n with lo <= n <= max index."""
    return lambda m: product(range(lo, m + 1))


def _entries(p: Mat2) -> tuple[int, int, int, int]:
    return p.a11, p.a12, p.a21, p.a22


def _doubling_sides(ctx: TermContext, n: int) -> tuple[int, int]:
    """The even-index doubling pair, or the odd pair once the even one holds."""
    even, odd = doubling_sides(ctx, n)
    return odd if even[0] == even[1] else even


@lru_cache(maxsize=1)
def _matrix_power(params: SequenceParams, seq: str, n: int) -> Mat2:
    # one slot is enough: a sweep reads the four entries of a power in a row
    return matrix_power(params, n) if seq == "B" else r_matrix(params, n)


def _matrix_sides(ctx: TermContext, seq: str, n: int, entry: int) -> tuple[int, int]:
    """A row-major entry of A^n (B) or R*A^n (C) against the iterative terms."""
    x, k = ctx.seq(seq), ctx.params.k
    want = (x[n + 1], (1 - k) * x[n], x[n], (1 - k) * x[n - 1])
    return _entries(_matrix_power(ctx.params, seq, n))[entry], want[entry]


def _ar_commute_sides(ctx: TermContext, entry: int) -> tuple[int, int]:
    a, r = a_matrix(ctx.params), r_base_matrix(ctx.params)
    return _entries(a @ r)[entry], _entries(r @ a)[entry]


SweepFn = Callable[[SequenceParams, int], SweepOutcome]

# The check_* theorems are called through lambdas, so each call looks up the
# module-level name and sees a wrapper installed there after import.
CATALOG: dict[str, SweepFn] = {
    "catalan-b": sweep_catalan("B"),
    "catalan-c": sweep_catalan("C"),
    "cassini-b": Sides("cassini-b", lambda m: m + 1, _upto(1),
                       lambda ctx, n: cassini_sides(ctx, "B", n)),
    "cassini-c": Sides("cassini-c", lambda m: m + 1, _upto(1),
                       lambda ctx, n: cassini_sides(ctx, "C", n)),
    "docagne-b": sweep_docagne("B"),
    "docagne-c": sweep_docagne("C"),
    "vajda-1": sweep_vajda_1,
    "vajda-2": sweep_vajda_2,
    "sum-b": Sides("sum-b", lambda m: m, _upto(1), lambda ctx, n: sum_sides(ctx, "B", n)),
    "sum-c": Sides("sum-c", lambda m: m, _upto(1), lambda ctx, n: sum_sides(ctx, "C", n)),
    "addition": sweep_addition,
    "doubling": Sides("doubling", lambda m: 2 * m + 1, _upto(1), _doubling_sides),
    "power-sum": Sides("power-sum", lambda m: m + 1, _upto(1), power_sum_sides),
    "c-from-b": Sides("c-from-b", lambda m: m + 1, _upto(0), c_from_b_sides),
    "matrix-b": Sides("matrix-b", lambda m: m + 1,
                      lambda m: product(range(1, m + 1), range(4)),
                      lambda ctx, n, entry: _matrix_sides(ctx, "B", n, entry),
                      ("n", "entry")),
    "matrix-c": Sides("matrix-c", lambda m: m + 1,
                      lambda m: product(range(1, m + 1), range(4)),
                      lambda ctx, n, entry: _matrix_sides(ctx, "C", n, entry),
                      ("n", "entry")),
    "ar-commute": Sides("ar-commute", lambda m: 0, lambda m: product(range(4)),
                        _ar_commute_sides, ("entry",)),
    "index-divisibility": Checks(
        "index-divisibility", lambda m: m,
        lambda m: ((d, n) for d in range(1, m + 1) for n in range(d, m + 1, d)),
        lambda *args: check_index_divisibility(*args)),
    "coprime-norm-b": Checks("coprime-norm-b", lambda m: m, _upto(1),
                             lambda *args: check_coprime_norm("B", *args)),
    "coprime-norm-c": Checks("coprime-norm-c", lambda m: m, _upto(1),
                             lambda *args: check_coprime_norm("C", *args)),
    "consecutive-gcd-b": Checks("consecutive-gcd-b", lambda m: m + 1, _upto(1),
                                lambda *args: check_consecutive_coprime("B", *args)),
    "consecutive-gcd-c": Checks("consecutive-gcd-c", lambda m: m + 1, _upto(1),
                                lambda *args: check_consecutive_coprime("C", *args)),
    "b-c-coprime": Checks("b-c-coprime", lambda m: m, _upto(0),
                          lambda *args: check_b_c_coprime(*args)),
    "strong-gcd": Checks("strong-gcd", lambda m: m,
                         lambda m: combinations_with_replacement(range(1, m + 1), 2),
                         lambda *args: check_strong_gcd(*args)),
}


def resolve_identities(selection: str) -> list[str]:
    """Expand a comma-separated filter into catalog names.

    Each element may be "all", an exact catalog name, or a family prefix
    ("consecutive-gcd" selects every "consecutive-gcd-*" entry).
    """
    names: list[str] = []
    for raw in selection.split(","):
        token = raw.strip()
        if token == "all":
            names.extend(CATALOG)
            continue
        if token in CATALOG:
            names.append(token)
            continue
        family = [name for name in CATALOG if name.startswith(token + "-")]
        if not family:
            raise ValueError(f"unknown identity {token!r}")
        names.extend(family)
    seen: dict[str, None] = {}
    for name in names:
        seen.setdefault(name)
    return list(seen)


# ---------------------------------------------------------------------------
# run configuration, runner, JSON schema

@dataclass(frozen=True)
class VerifyRunConfig:
    k_lo: int = 1
    k_hi: int = 12
    max_index: int = 40
    identities: tuple[str, ...] = tuple(CATALOG)
    max_listed: int = 25

    def __post_init__(self) -> None:
        if self.k_lo < 1:
            raise ValueError("k must be >= 1")
        if self.k_hi < self.k_lo:
            raise ValueError("empty k range")
        if self.max_index < 1:
            raise ValueError("max index must be >= 1")
        if self.max_listed < 1:
            raise ValueError("max listed must be >= 1")
        for name in self.identities:
            if name not in CATALOG:
                raise ValueError(f"unknown identity {name!r}")


@dataclass
class VerifyReport:
    tool_version: str
    config: VerifyRunConfig
    results: list[Report]
    summary: dict

    @property
    def exit_code(self) -> int:
        return 0 if self.summary["total_failed"] == 0 else 1


def _sort_key(report: Report):
    name = getattr(report, "identity_name", None) or report.theorem_name
    return name, sorted(report.inputs.items())


def run_verify(config: VerifyRunConfig) -> VerifyReport:
    """Sweep every selected identity over the k range, one k at a time.

    Sweeps run serially: they are bignum loops that hold the interpreter
    lock, so worker threads only added wall time.
    """
    outcomes: dict[str, SweepOutcome] = {}
    for name in config.identities:
        outcome = outcomes[name] = SweepOutcome(name)
        for k in range(config.k_lo, config.k_hi + 1):
            outcome.merge(CATALOG[name](SequenceParams(k), config.max_index))

    results: list[Report] = []
    for name, outcome in outcomes.items():
        results.extend(sorted(outcome.violations, key=_sort_key)[: config.max_listed])
        results.extend(
            sorted(outcome.expected_failures, key=_sort_key)[: config.max_listed]
        )
    results.sort(key=_sort_key)

    per_identity = {
        name: {
            "checked": outcome.checked,
            "held": outcome.held,
            "failed": outcome.failed,
            "hypothesis_not_met": outcome.hypothesis_not_met,
        }
        for name, outcome in outcomes.items()
    }
    summary = {
        "per_identity": per_identity,
        "total_checked": sum(o.checked for o in outcomes.values()),
        "total_held": sum(o.held for o in outcomes.values()),
        "total_failed": sum(o.failed for o in outcomes.values()),
        "total_hypothesis_not_met": sum(
            o.hypothesis_not_met for o in outcomes.values()
        ),
    }
    summary["all_held"] = summary["total_failed"] == 0
    return VerifyReport(__version__, config, results, summary)


def exact_to_str(value) -> str:
    """Decimal text of an int or Fraction report value, at any size."""
    if isinstance(value, Fraction):
        return f"{decimal_str(value.numerator)}/{decimal_str(value.denominator)}"
    return decimal_str(value)


def _exact_from_str(text: str):
    if "/" in text:
        num, den = text.split("/")
        return Fraction(decimal_int(num), decimal_int(den))
    return decimal_int(text)


def report_entry_to_dict(report: Report) -> dict:
    if isinstance(report, IdentityReport):
        return {
            "kind": "identity",
            "identity_name": report.identity_name,
            "inputs": dict(sorted(report.inputs.items())),
            "lhs": exact_to_str(report.lhs),
            "rhs": exact_to_str(report.rhs),
            "holds": report.holds,
            "hypothesis_met": report.hypothesis_met,
        }
    return {
        "kind": "gcd",
        "theorem_name": report.theorem_name,
        "inputs": dict(sorted(report.inputs.items())),
        "computed_gcd": decimal_str(report.computed_gcd),
        "expected": decimal_str(report.expected),
        "holds": report.holds,
        "hypothesis_met": report.hypothesis_met,
    }


def report_entry_from_dict(entry: dict) -> Report:
    if entry["kind"] == "identity":
        return IdentityReport(
            entry["identity_name"],
            dict(entry["inputs"]),
            _exact_from_str(entry["lhs"]),
            _exact_from_str(entry["rhs"]),
            entry["holds"],
            entry["hypothesis_met"],
        )
    return GcdReport(
        entry["theorem_name"],
        dict(entry["inputs"]),
        decimal_int(entry["computed_gcd"]),
        decimal_int(entry["expected"]),
        entry["hypothesis_met"],
        entry["holds"],
    )


def report_to_dict(report: VerifyReport) -> dict:
    return {
        "tool_version": report.tool_version,
        "config": {
            "k_lo": report.config.k_lo,
            "k_hi": report.config.k_hi,
            "max_index": report.config.max_index,
            "identities": list(report.config.identities),
            "max_listed": report.config.max_listed,
        },
        "results": [report_entry_to_dict(r) for r in report.results],
        "summary": report.summary,
    }


def report_from_dict(data: dict) -> VerifyReport:
    config = VerifyRunConfig(
        data["config"]["k_lo"],
        data["config"]["k_hi"],
        data["config"]["max_index"],
        tuple(data["config"]["identities"]),
        data["config"]["max_listed"],
    )
    return VerifyReport(
        data["tool_version"],
        config,
        [report_entry_from_dict(e) for e in data["results"]],
        data["summary"],
    )


def report_to_json(report: VerifyReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True)


def report_from_json(text: str) -> VerifyReport:
    return report_from_dict(json.loads(text))
