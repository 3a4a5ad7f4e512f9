"""Sweep runner: every identity and gcd theorem over a (k, index) box.

Each catalog entry sweeps its whole in-domain tuple set up to a max index
and returns counts plus the failing reports.  Every entry is a `Sides` row,
run by one driver: it calls a *_sides function once per domain row (the
leading indices and a range of the last one), compares the two side lists
it returns, and builds a report only for a failing element; so each
identity's and each theorem's arithmetic is written once, in the identities
and divisibility modules.

A gcd row carries its theorem's hypothesis.  When the hypothesis fails at a
k (the residue condition k % 3 != 1), every check of that k is counted as
hypothesis_not_met and its failures go to a separate expected-failure pool,
never to the violations.  Sweeps run serially and the final report is
canonically sorted, so the emitted JSON is byte-identical from one run to
the next.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable

from . import __version__
from .decimal_io import decimal_int, decimal_str
from .divisibility import (
    GcdReport,
    b_c_coprime_sides,
    consecutive_gcd_sides,
    coprime_norm_sides,
    index_divisibility_sides,
    residue_hypothesis,
    strong_gcd_sides,
)
from .engines import Mat2, a_matrix, matrix_power, r_base_matrix, r_matrix
from .identities import (
    IdentityReport,
    SideLists,
    TermContext,
    addition_sides,
    c_from_b_sides,
    cassini_sides,
    catalan_sides,
    docagne_sides,
    doubling_sides,
    power_sum_sides,
    sum_sides,
    vajda1_sides,
    vajda2_sides,
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

    def merge(self, other: SweepOutcome) -> None:
        self.checked += other.checked
        self.held += other.held
        self.failed += other.failed
        self.hypothesis_not_met += other.hypothesis_not_met
        self.violations.extend(other.violations)
        self.expected_failures.extend(other.expected_failures)


# ---------------------------------------------------------------------------
# table-driven sweeps

@dataclass(frozen=True)
class Sides:
    """One catalog row: compares sides(ctx, *row) -> (lhs list, rhs list).

    size and domain are functions of the max index: the index the term
    tables are built up to, and the rows, each the leading indices and a
    range of the last one; the sides come back as one list per side over
    that range.  A gcd row carries its theorem's hypothesis, and an
    identity row none.
    """

    name: str
    size: Callable[[int], int]
    domain: Callable[[int], Iterable[tuple]]
    sides: Callable[..., SideLists]
    keys: tuple[str, ...] = ("n",)  # input names of an index tuple
    hypothesis: Callable[[SequenceParams], bool] | None = None

    def __call__(self, params: SequenceParams, max_index: int) -> SweepOutcome:
        out = SweepOutcome(self.name)
        ctx = TermContext(params).ensure(self.size(max_index))
        met = self.hypothesis is None or self.hypothesis(params)
        failures = out.violations if met else out.expected_failures
        checked = held = 0
        for row in self.domain(max_index):
            lhs, rhs = self.sides(ctx, *row)
            checked += len(lhs)
            if lhs == rhs:
                held += len(lhs)
                continue
            *lead, last = row
            for index, left, right in zip(last, lhs, rhs):
                if left == right:
                    held += 1
                    continue
                inputs = {"k": params.k, **dict(zip(self.keys, (*lead, index)))}
                if self.hypothesis is None:
                    failures.append(IdentityReport(self.name, inputs, left, right, False))
                else:
                    failures.append(GcdReport(self.name, inputs, left, right, met, False))
        out.checked = checked
        if met:
            out.held, out.failed = held, len(out.violations)
        else:
            out.hypothesis_not_met = checked
        return out


def _row(lo: int) -> Callable[[int], Iterable[tuple[range]]]:
    """The domain of one index n with lo <= n <= max index, as a single row."""
    return lambda m: [(range(lo, m + 1),)]


def _triangle(lo: int) -> Callable[[int], Iterable[tuple[int, range]]]:
    """Rows (x, range(x + 1)) for lo <= x <= max index."""
    return lambda m: ((x, range(x + 1)) for x in range(lo, m + 1))


def _entries(p: Mat2) -> tuple[int, int, int, int]:
    return p.a11, p.a12, p.a21, p.a22


def _matrix_sides(ctx: TermContext, seq: str, n: int, entries: range) -> SideLists:
    """Row-major entries of A^n (B) or R*A^n (C) against the iterative terms."""
    x, k = ctx.seq(seq), ctx.params.k
    power = matrix_power(ctx.params, n) if seq == "B" else r_matrix(ctx.params, n)
    got = _entries(power)
    want = (x[n + 1], (1 - k) * x[n], x[n], (1 - k) * x[n - 1])
    return [got[e] for e in entries], [want[e] for e in entries]


def _ar_commute_sides(ctx: TermContext, entries: range) -> SideLists:
    a, r = a_matrix(ctx.params), r_base_matrix(ctx.params)
    ar, ra = _entries(a @ r), _entries(r @ a)
    return [ar[e] for e in entries], [ra[e] for e in entries]


CATALOG: dict[str, Sides] = {
    "catalan-b": Sides("catalan-b", lambda m: 2 * m, _triangle(1),
                       lambda ctx, n, rs: catalan_sides(ctx, "B", n, rs), ("n", "r")),
    "catalan-c": Sides("catalan-c", lambda m: 2 * m, _triangle(1),
                       lambda ctx, n, rs: catalan_sides(ctx, "C", n, rs), ("n", "r")),
    "cassini-b": Sides("cassini-b", lambda m: m + 1, _row(1),
                       lambda ctx, ns: cassini_sides(ctx, "B", ns)),
    "cassini-c": Sides("cassini-c", lambda m: m + 1, _row(1),
                       lambda ctx, ns: cassini_sides(ctx, "C", ns)),
    "docagne-b": Sides("docagne-b", lambda m: m + 1, _triangle(0),
                       lambda ctx, m, ns: docagne_sides(ctx, "B", m, ns), ("m", "n")),
    "docagne-c": Sides("docagne-c", lambda m: m + 1, _triangle(0),
                       lambda ctx, m, ns: docagne_sides(ctx, "C", m, ns), ("m", "n")),
    "vajda-1": Sides("vajda-1", lambda m: 3 * m,
                     lambda m: product(range(m + 1), range(m + 1), [range(m + 1)]),
                     vajda1_sides, ("n", "i", "j")),
    "vajda-2": Sides("vajda-2", lambda m: m,
                     lambda m: ((n, x, range(x - n)) for x in range(1, m + 1)
                                for n in range(x)),
                     vajda2_sides, ("n", "m", "ell")),
    "sum-b": Sides("sum-b", lambda m: m, _row(1), lambda ctx, ns: sum_sides(ctx, "B", ns)),
    "sum-c": Sides("sum-c", lambda m: m, _row(1), lambda ctx, ns: sum_sides(ctx, "C", ns)),
    "addition": Sides("addition", lambda m: 2 * m,
                      lambda m: product(range(1, m + 1), [range(m + 1)]),
                      addition_sides, ("m", "n")),
    "doubling": Sides("doubling", lambda m: 2 * m + 1, _row(1), doubling_sides),
    "power-sum": Sides("power-sum", lambda m: m + 1, _row(1), power_sum_sides),
    "c-from-b": Sides("c-from-b", lambda m: m + 1, _row(0), c_from_b_sides),
    "matrix-b": Sides("matrix-b", lambda m: m + 1,
                      lambda m: product(range(1, m + 1), [range(4)]),
                      lambda ctx, n, es: _matrix_sides(ctx, "B", n, es), ("n", "entry")),
    "matrix-c": Sides("matrix-c", lambda m: m + 1,
                      lambda m: product(range(1, m + 1), [range(4)]),
                      lambda ctx, n, es: _matrix_sides(ctx, "C", n, es), ("n", "entry")),
    "ar-commute": Sides("ar-commute", lambda m: 0, lambda m: [(range(4),)],
                        _ar_commute_sides, ("entry",)),
    "index-divisibility": Sides("index-divisibility", lambda m: m,
                                lambda m: ((d, range(d, m + 1, d)) for d in range(1, m + 1)),
                                index_divisibility_sides, ("m", "n"), lambda params: True),
    "coprime-norm-b": Sides("coprime-norm-b", lambda m: m, _row(1),
                            lambda ctx, ns: coprime_norm_sides(ctx, "B", ns),
                            hypothesis=residue_hypothesis),
    "coprime-norm-c": Sides("coprime-norm-c", lambda m: m, _row(1),
                            lambda ctx, ns: coprime_norm_sides(ctx, "C", ns),
                            hypothesis=residue_hypothesis),
    "consecutive-gcd-b": Sides("consecutive-gcd-b", lambda m: m + 1, _row(1),
                               lambda ctx, ns: consecutive_gcd_sides(ctx, "B", ns),
                               hypothesis=residue_hypothesis),
    "consecutive-gcd-c": Sides("consecutive-gcd-c", lambda m: m + 1, _row(1),
                               lambda ctx, ns: consecutive_gcd_sides(ctx, "C", ns),
                               hypothesis=residue_hypothesis),
    "b-c-coprime": Sides("b-c-coprime", lambda m: m, _row(0), b_c_coprime_sides,
                         hypothesis=residue_hypothesis),
    "strong-gcd": Sides("strong-gcd", lambda m: m,
                        lambda m: ((x, range(x, m + 1)) for x in range(1, m + 1)),
                        strong_gcd_sides, ("m", "n"), residue_hypothesis),
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
