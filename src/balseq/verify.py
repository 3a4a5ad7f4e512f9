"""Sweep runner: every identity and gcd theorem over a (k, index) box.

Each catalog entry sweeps its whole in-domain tuple set up to a max index
and returns counts plus the failing reports.  Every entry is a `Sides` row,
run by one driver: it calls a *_sides function once per domain row (the
leading indices and a range of the last one), compares the two side lists
it returns, and builds a report only for a failing element; so each
identity's and each theorem's arithmetic is written once, in the identities
and divisibility modules; this module imports no engine.  CATALOG is one
list of rows keyed by name, each B/C family declared once for its -b and -c
rows, and the per-identity counts are named once, in COUNTS.  Each row also
states, per point, whether the point is in its domain and the largest term
index its sides read there, so that the same row answers a single point
(Sides.at) as well as a sweep.

A gcd row carries its theorem's hypothesis.  When the hypothesis fails at a
k (gcd(3k, k - 1) = 1, i.e. k % 3 != 1), every check of that k is counted as
hypothesis_not_met and its failures go to a separate expected-failure pool,
never to the violations.  Sweeps run serially and the final report is
canonically sorted, so the emitted JSON is byte-identical from one run to
the next.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable

from . import __version__
from .decimal_io import decimal_str
from .divisibility import (
    GcdReport,
    b_c_coprime_sides,
    consecutive_gcd_sides,
    coprime_norm_sides,
    index_divisibility_sides,
    residue_hypothesis,
    strong_gcd_sides,
)
from .identities import (
    IdentityReport,
    SideLists,
    TermContext,
    addition_sides,
    ar_commute_sides,
    c_from_b_sides,
    cassini_sides,
    catalan_sides,
    docagne_sides,
    doubling_sides,
    matrix_sides,
    power_sum_sides,
    sum_sides,
    vajda1_sides,
    vajda2_sides,
)
from .ring import SequenceParams

Report = IdentityReport | GcdReport

# per-identity counts, in report order; the summary adds total_<count> for each
COUNTS = ("checked", "held", "failed", "hypothesis_not_met")


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
        for key in COUNTS:
            setattr(self, key, getattr(self, key) + getattr(other, key))
        self.violations.extend(other.violations)
        self.expected_failures.extend(other.expected_failures)


# ---------------------------------------------------------------------------
# table-driven sweeps

@dataclass(frozen=True)
class Sides:
    """One catalog row: compares sides(ctx, *row) -> (lhs list, rhs list).

    A point gives one value to each of keys, in that order.  where(*point)
    says whether it is in the domain, where every key must also be >= 0, and
    reach(*point) is the largest term index the sides read at it.
    domain(max_index) lists the domain's points with every index at most
    max_index as rows, each the leading indices and a range of the last one;
    the sides come back as one list per side over that range.  A sweep builds
    its term tables to reach at the corner point whose every key is
    max_index.  diagonals, if set, gives the width of each diagonal of the
    shared table of B-term products the sides read.  A gcd row carries its
    theorem's hypothesis, and an identity row none.
    """

    name: str
    reach: Callable[..., int]
    domain: Callable[[int], Iterable[tuple]]
    where: Callable[..., bool]
    sides: Callable[..., SideLists]
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
        if self.hypothesis is None:
            return IdentityReport(self.name, inputs, lhs, rhs, lhs == rhs)
        return GcdReport(self.name, inputs, lhs, rhs, met, lhs == rhs)

    def at(self, params: SequenceParams, **inputs: int) -> Report:
        """The report at one point of the domain, named by keys, e.g.
        CATALOG["catalan-b"].at(params, n=3, r=1), on term tables built to
        the point's reach (and no product table)."""
        given = ", ".join(f"{key}={value}" for key, value in inputs.items())
        if inputs.keys() != set(self.keys):
            raise ValueError(f"{self.name}({given}) takes {', '.join(self.keys)}")
        point = tuple(inputs[key] for key in self.keys)
        if min(point) < 0 or not self.where(*point):
            raise ValueError(f"{self.name}({given}) is outside the domain")
        *lead, last = point
        ctx = TermContext(params).ensure(self.reach(*point))
        (lhs,), (rhs,) = self.sides(ctx, *lead, range(last, last + 1))
        return self._report(params, point, lhs, rhs,
                           self.hypothesis is None or self.hypothesis(params))

    def __call__(self, params: SequenceParams, max_index: int) -> SweepOutcome:
        out = SweepOutcome(self.name)
        ctx = self.context(params, max_index)
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
                failures.append(self._report(params, (*lead, index), left, right, met))
        out.checked = checked
        if met:
            out.held, out.failed = held, len(out.violations)
        else:
            out.hypothesis_not_met = checked
        return out


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


def _twins(family: str, reach: Callable[..., int], domain: Callable[[int], Iterable[tuple]],
           where: Callable[..., bool], sides: Callable[..., SideLists],
           *fields, **named) -> list[Sides]:
    """The -b and -c rows of a B/C family: sides(ctx, seq, *row) with seq "B"
    and "C", other fields as given.  seq is bound as a default argument: a
    closure would read it after the loop, and both rows would sweep C."""
    return [Sides(f"{family}-{seq.lower()}", reach, domain, where,
                  lambda ctx, *row, seq=seq: sides(ctx, seq, *row), *fields, **named)
            for seq in "BC"]


CATALOG: dict[str, Sides] = {row.name: row for row in [
    # catalan-c reads (k-1)^(n-r+1), so its tables reach n + 1 at r = 0
    *_twins("catalan", lambda n, r: n + max(r, 1), *_triangle(1), catalan_sides, ("n", "r")),
    *_twins("cassini", lambda n: n + 1, *_row(1), cassini_sides),
    *_twins("docagne", lambda m, n: m + 1, *_triangle(0), docagne_sides, ("m", "n")),
    Sides("vajda-1", lambda i, j, n: n + i + j,
          lambda m: product(range(m + 1), range(m + 1), [range(m + 1)]),
          lambda i, j, n: True, vajda1_sides, ("i", "j", "n"),
          # row (i, j) reads diagonal |j - i| <= m at a <= 2m - |j - i|, and
          # diagonal i + j <= 2m at a <= m
          diagonals=lambda m: [2 * m + 1 - d if d <= m else m + 1 for d in range(2 * m + 1)]),
    Sides("vajda-2", lambda n, m, ell: m,
          lambda m: ((n, x, range(x - n)) for x in range(1, m + 1) for n in range(x)),
          lambda n, m, ell: m > n + ell, vajda2_sides, ("n", "m", "ell")),
    *_twins("sum", lambda n: n, *_row(1), sum_sides),
    Sides("addition", lambda m, n: m + n, lambda m: product(range(1, m + 1), [range(m + 1)]),
          lambda m, n: m >= 1, addition_sides, ("m", "n")),
    Sides("doubling", lambda n: 2 * n + 1, *_row(1), doubling_sides),
    Sides("power-sum", lambda n: n + 1, *_row(1), power_sum_sides),
    Sides("c-from-b", lambda n: n + 1, *_row(0), c_from_b_sides),
    *_twins("matrix", lambda n, entry: n + 1, lambda m: product(range(1, m + 1), [range(4)]),
            lambda n, entry: n >= 1 and entry < 4, matrix_sides, ("n", "entry")),
    Sides("ar-commute", lambda entry: 0, lambda m: [(range(4),)], lambda entry: entry < 4,
          ar_commute_sides, ("entry",)),
    Sides("index-divisibility", lambda m, n: n,
          lambda m: ((d, range(d, m + 1, d)) for d in range(1, m + 1)),
          lambda m, n: m >= 1 and n >= 1 and n % m == 0,
          index_divisibility_sides, ("m", "n"), lambda params: True),
    *_twins("coprime-norm", lambda n: n, *_row(1), coprime_norm_sides,
            hypothesis=residue_hypothesis),
    *_twins("consecutive-gcd", lambda n: n + 1, *_row(1), consecutive_gcd_sides,
            hypothesis=residue_hypothesis),
    Sides("b-c-coprime", lambda n: n, *_row(0), b_c_coprime_sides,
          hypothesis=residue_hypothesis),
    Sides("strong-gcd", lambda m, n: max(m, n),
          lambda m: ((x, range(x, m + 1)) for x in range(1, m + 1)),
          lambda m, n: 1 <= m <= n, strong_gcd_sides, ("m", "n"), residue_hypothesis),
]}


def resolve_identities(selection: str) -> list[str]:
    """Expand a comma-separated filter into catalog names.

    Each element may be "all", an exact catalog name, or a family prefix,
    which selects every name that continues it with a "-" (both rows of a
    B/C family, say).
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
    return list(dict.fromkeys(names))


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


def report_name(report: Report) -> str:
    """The catalog name of an identity or a gcd report."""
    return getattr(report, "identity_name", None) or report.theorem_name


def _sort_key(report: Report):
    return report_name(report), sorted(report.inputs.items())


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
    for outcome in outcomes.values():
        for pool in (outcome.violations, outcome.expected_failures):
            results.extend(sorted(pool, key=_sort_key)[: config.max_listed])
    results.sort(key=_sort_key)

    per_identity = {name: {key: getattr(outcome, key) for key in COUNTS}
                    for name, outcome in outcomes.items()}
    summary: dict = {"per_identity": per_identity}
    for key in COUNTS:
        summary[f"total_{key}"] = sum(counts[key] for counts in per_identity.values())
    summary["all_held"] = summary["total_failed"] == 0
    return VerifyReport(__version__, config, results, summary)


def exact_to_str(value) -> str:
    """Decimal text of an int or Fraction report value, at any size."""
    if isinstance(value, Fraction):
        return f"{decimal_str(value.numerator)}/{decimal_str(value.denominator)}"
    return decimal_str(value)


def report_entry_to_dict(report: Report) -> dict:
    if isinstance(report, IdentityReport):
        entry = {
            "kind": "identity",
            "identity_name": report.identity_name,
            "lhs": exact_to_str(report.lhs),
            "rhs": exact_to_str(report.rhs),
        }
    else:
        entry = {
            "kind": "gcd",
            "theorem_name": report.theorem_name,
            "computed_gcd": decimal_str(report.computed_gcd),
            "expected": decimal_str(report.expected),
        }
    return {**entry, "inputs": dict(sorted(report.inputs.items())),
            "holds": report.holds, "hypothesis_met": report.hypothesis_met}


def report_to_dict(report: VerifyReport) -> dict:
    return {
        "tool_version": report.tool_version,
        "config": asdict(report.config),
        "results": [report_entry_to_dict(r) for r in report.results],
        "summary": report.summary,
    }


def report_to_json(report: VerifyReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True)

