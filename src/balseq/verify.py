"""Sweep runner: every identity and gcd theorem over a (k, index) box.

Each catalog entry sweeps its whole in-domain tuple set up to a max index
and returns counts plus the failing reports.  Every entry is a `Sides` row,
run by one driver: it calls its side kernel once per domain row (the
leading indices and a range of the last one), compares the two side lists
it returns, and builds a report only for a failing element; so each
identity's and each theorem's arithmetic is written once, as a private
kernel of the identities or divisibility module; this module imports no
engine.  A row's sweep and its single point (Sides.at) are the public
ways to run a kernel, and each keeps the kernel's input in the domain: the
sweep runs the rows of `domain`, and `at` refuses a point outside it.
Every check, of an identity or of a gcd theorem, gives one Report named
tuple, defined here and built nowhere else; its kind picks the JSON keys of
its name and sides.  CATALOG is one list of rows keyed by name, each B/C
family declared once for its -b and -c rows, and the per-identity counts
are named once, in COUNTS.  Each row also states, per point, whether the
point is in its domain and the largest term index its sides read there, so
that the same row answers a single point (Sides.at) as well as a sweep.
Every record here (Report, Sides, SweepOutcome, VerifyRunConfig,
VerifyReport) is a named tuple, as the rest of the package's records are,
so no verify run imports dataclasses.

A gcd row carries its theorem's hypothesis.  When the hypothesis fails at a
k (gcd(3k, k - 1) = 1, i.e. k % 3 != 1), every check of that k is counted as
hypothesis_not_met, not as failed.  A sweep keeps its failing reports in one
list, and each report's hypothesis_met names its pool: the violations
(True) or the expected failures (False).  Each (name, k) sweep is one task;
run_verify runs them in the calling process, and with workers > 1 it hands
what is left after a short serial start to forked children.  One rule,
_listed, picks the reports a report lists: canonically sorted (by name,
then by inputs in key-name order), the first max_listed of each (name,
hypothesis_met) pool.  A task keeps only its own listing, and the outcomes
are merged by name with merge_outcomes, in whatever order they come back
(the counts are sums), and listed once more, so the emitted JSON is
byte-identical from one run to the next, whatever the number of workers.

report_to_json writes the bytes json.dumps(doc, indent=2, sort_keys=True)
would, but without json's encoder, which with an indent always runs in
pure Python and took most of a small request's time when the request listed
failures.  Each results entry is formatted from its kind's template in
_ENTRY_TEMPLATES, and the config and summary by one small recursive writer
for dicts, lists and tuples of str, int, bool and None.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from fractions import Fraction
from itertools import count, product
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, NamedTuple, NoReturn

from . import __version__
from .decimal_io import decimal_str
from .divisibility import (
    _b_c_coprime,
    _consecutive_gcd,
    _coprime_norm,
    _strong_gcd,
    residue_hypothesis,
)
from .identities import (
    Exact,
    TermContext,
    _SideLists,
    _addition,
    _ar_commute,
    _c_from_b,
    _cassini,
    _catalan,
    _docagne,
    _doubling,
    _matrix,
    _power_sum,
    _sum,
    _vajda1,
    _vajda2,
)
from .ring import SequenceParams, is_int

# per-identity counts, in report order; the summary adds total_<count> for each
COUNTS = ("checked", "held", "failed", "hypothesis_not_met")


class Report(NamedTuple):
    """Both sides of one catalog row at one point.

    kind is "identity" for an identity row and "gcd" for a gcd theorem row,
    whose lhs is the computed gcd and rhs the expected value; it picks the
    keys in KIND_KEYS.  A sweep builds one per failing point, and a named
    tuple is built in about a third of a frozen dataclass's time (0.7
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


# per report kind: the JSON keys of the name and of the two sides, then the
# labels of the two sides in the plain listing
KIND_KEYS = {
    "identity": ("identity_name", "lhs", "rhs", "lhs", "rhs"),
    "gcd": ("theorem_name", "computed_gcd", "expected", "gcd", "expected"),
}


class SweepOutcome(NamedTuple):
    """Aggregate of one identity swept over one or more parameter boxes.

    Its fields are name, the COUNTS in order, and failures, which holds the
    failing reports of both pools; a report's hypothesis_met says which.
    Built once, by a sweep or by merge_outcomes, and never changed.
    """

    name: str
    checked: int
    held: int
    failed: int
    hypothesis_not_met: int
    failures: list[Report]


def merge_outcomes(outcomes: Iterable[SweepOutcome]) -> SweepOutcome:
    """One name's outcomes, one or more, as one outcome: their COUNTS summed
    and their failures joined, in the order given."""
    (name, *_), *counts, failures = zip(*outcomes)
    return SweepOutcome(name, *map(sum, counts), [report for part in failures for report in part])


# ---------------------------------------------------------------------------
# table-driven sweeps

class Sides(NamedTuple):
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
    theorem's hypothesis, and an identity row none; that sets the kind of
    the row's reports.
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
        CATALOG["catalan-b"].at(params, n=3, r=1), on term tables built to
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
    after (i, j), whose sides identities._vajda1 then reuses."""
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


CATALOG: dict[str, Sides] = {row.name: row for row in [
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

class VerifyRunConfig(NamedTuple("VerifyRunConfig", [
        ("k_lo", int), ("k_hi", int), ("max_index", int), ("identities", tuple[str, ...]),
        ("max_listed", int)])):
    """What a verify run sweeps and lists.  Like `SequenceParams`, rebuilt
    through `__new__`, so checked again, when copied, replaced or
    unpickled."""

    __slots__ = ()

    def __new__(cls, k_lo: int = 1, k_hi: int = 12, max_index: int = 40,
                identities: tuple[str, ...] = tuple(CATALOG),
                max_listed: int = 25) -> VerifyRunConfig:
        for name, value in (("k_lo", k_lo), ("k_hi", k_hi), ("max_index", max_index),
                            ("max_listed", max_listed)):
            if not is_int(value):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if k_lo < 1:
            raise ValueError("k must be >= 1")
        if k_hi < k_lo:
            raise ValueError("empty k range")
        if max_index < 1:
            raise ValueError("max index must be >= 1")
        if max_listed < 1:
            raise ValueError("max listed must be >= 1")
        if not isinstance(identities, tuple):
            raise ValueError(f"identities must be a tuple of catalog names,"
                             f" got {identities!r}")
        if not identities:
            raise ValueError("no identity selected")
        seen: set[str] = set()
        for name in identities:
            if name not in CATALOG:
                raise ValueError(f"unknown identity {name!r}")
            if name in seen:
                raise ValueError(f"identity {name!r} selected more than once")
            seen.add(name)
        return super().__new__(cls, k_lo, k_hi, max_index, identities, max_listed)

    @classmethod
    def _make(cls, iterable) -> VerifyRunConfig:
        # through __new__, so _make and _replace check the fields as well
        return cls(*iterable)


class VerifyReport(NamedTuple):
    tool_version: str
    config: VerifyRunConfig
    results: list[Report]
    summary: dict


# seconds of sweeps run_verify runs in the calling process before it forks
# any worker: a fork and the pickled result cost about 3.5 ms (2-core x86-64,
# Python 3.11), so a request that ends within this never pays for one
SERIAL_BUDGET_S = 0.05


def _sort_key(report: Report):
    return report.name, sorted(report.inputs.items())


def _listed(reports: Iterable[Report], max_listed: int) -> list[Report]:
    """The reports a verify report lists: sorted by _sort_key, the first
    max_listed of each (name, hypothesis_met) pool.  The listing of the
    listings of some parts is the listing of their union: the first
    max_listed of a union are among the first max_listed of its parts."""
    seen = defaultdict(count)  # per pool, how many reports came before
    return [report for report in sorted(reports, key=_sort_key)
            if next(seen[report.name, report.hypothesis_met]) < max_listed]


def _sweep(name: str, k: int, config: VerifyRunConfig) -> SweepOutcome:
    """One (name, k) task, its failures cut to their listing."""
    *counts, failures = CATALOG[name](SequenceParams(k), config.max_index)
    # rebuilt, not _replace'd: _replace shrinks a 10-slot tuple to 6, and
    # 2,000 tasks of a process filled CPython's free list of 6-tuples (175 KiB)
    return SweepOutcome(*counts, _listed(failures, config.max_listed))


def _child(tasks: list[tuple[str, int]], config: VerifyRunConfig, read_end: int,
           write_end: int) -> NoReturn:
    """In a forked child: sweep tasks, pickle the outcomes (or the one-line
    reason they failed) into the pipe, and leave by os._exit, which flushes
    none of the stdio buffers the child inherited, so none is written twice."""
    status = 1
    try:
        import pickle

        os.close(read_end)
        try:
            result = [_sweep(name, k, config) for name, k in tasks]
        except BaseException as exc:
            result = f"{type(exc).__name__}: {exc}".splitlines()[0]
        with open(write_end, "wb") as pipe:
            pickle.dump(result, pipe)
        status = 0
    finally:
        os._exit(status)


def _collect(pid: int, read_end: int) -> list[SweepOutcome]:
    """The outcomes a child sent; the child is reaped and the pipe closed."""
    import pickle

    try:
        with open(read_end, "rb") as pipe:
            payload = pipe.read()
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise ChildProcessError(f"a verify worker exited with status {status} and no result")
    result = pickle.loads(payload)
    if isinstance(result, str):
        raise ChildProcessError(f"a verify worker failed: {result}")
    return result


def _sweep_shares(tasks: list[tuple[str, int]], config: VerifyRunConfig,
                  workers: int) -> list[SweepOutcome]:
    """The outcomes of tasks, in no set order, swept in `workers` shares.

    The tasks are dealt in snake order (0, 1, ..., w-1, w-1, ..., 0, 0, 1,
    ...).  The caller sweeps share 0 and a forked child each other share;
    every child is reaped before this returns or raises.
    """
    import signal  # here, not at module load: only a forking run needs it

    shares: list[list[tuple[str, int]]] = [[] for _ in range(workers)]
    for position, task in enumerate(tasks):
        lap, seat = divmod(position, workers)
        shares[seat if lap % 2 == 0 else workers - 1 - seat].append(task)
    pending: dict[int, int] = {}  # pid -> read end
    try:
        for share in filter(None, shares[1:]):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _child(share, config, read_end, write_end)
            os.close(write_end)
            pending[pid] = read_end
        outcomes = [_sweep(name, k, config) for name, k in shares[0]]
        for pid in list(pending):
            outcomes += _collect(pid, pending.pop(pid))
    finally:
        # reached with children pending only when something failed first
        for pid, read_end in pending.items():
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return outcomes


def run_verify(config: VerifyRunConfig, *, workers: int = 1) -> VerifyReport:
    """Sweep every selected identity over the k range, one (name, k) task at
    a time, in catalog order.

    With workers > 1 (and where the platform has os.fork), the tasks left
    once the sweeps have taken SERIAL_BUDGET_S are split into `workers`
    shares: the caller sweeps one and a forked child each of the others.  A
    child that fails raises ChildProcessError, and no report is made.
    Threads would not help: the sweeps are bignum loops that hold the
    interpreter lock.  The report is the same for every number of workers.
    """
    if not is_int(workers) or workers < 1:
        raise ValueError(f"workers must be an int >= 1, got {workers!r}")
    parallel = workers > 1 and hasattr(os, "fork")
    tasks = [(name, k) for name in config.identities
             for k in range(config.k_lo, config.k_hi + 1)]
    done: list[SweepOutcome] = []
    start = time.perf_counter()
    for name, k in tasks:
        if parallel and time.perf_counter() - start >= SERIAL_BUDGET_S:
            done += _sweep_shares(tasks[len(done):], config, workers)
            break
        done.append(_sweep(name, k, config))

    groups: dict[str, list[SweepOutcome]] = {name: [] for name in config.identities}
    for outcome in done:
        groups[outcome.name].append(outcome)
    outcomes = [merge_outcomes(group) for group in groups.values()]

    results = _listed([report for outcome in outcomes for report in outcome.failures],
                      config.max_listed)

    per_identity = {outcome.name: {key: getattr(outcome, key) for key in COUNTS}
                    for outcome in outcomes}
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


def _json_text(value, indent: str = "") -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it, every
    line after the first led by indent.

    For str, int, bool and None, and dicts (of str keys), lists and tuples
    of them; any other value raises TypeError.  json.dumps with an indent
    always runs json's pure-Python encoder, which took most of the time of
    a small verify request that lists failures.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        # an int value, the common case, is written here and not by a call
        return ("{\n" + inner + (",\n" + inner).join([
            encode_basestring_ascii(key) + ": "
            + (int.__repr__(item) if type(item) is int else _json_text(item, inner))
            for key, item in sorted(value.items())]) + "\n" + indent + "}")
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        return ("[\n" + inner + (",\n" + inner).join([_json_text(item, inner) for item in value])
                + "\n" + indent + "]")
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)  # as json writes an int subclass
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _entry_template(kind: str) -> str:
    """The JSON text of a results entry of one kind, as _json_text nests it
    in the results list, with its keys in sorted order.  Its fields are
    formatted in by position: the name, lhs, rhs, inputs, holds and
    hypothesis_met texts.

    The sides are exact_to_str texts, digits with a sign and a slash at
    most, which JSON quotes as they are.
    """
    name_key, lhs_key, rhs_key, *_ = KIND_KEYS[kind]
    fields = {"kind": encode_basestring_ascii(kind), name_key: "{0}", lhs_key: '"{1}"',
              rhs_key: '"{2}"', "inputs": "{3}", "holds": "{4}", "hypothesis_met": "{5}"}
    lines = [f'      "{key}": {fields[key]}' for key in sorted(fields)]
    return "    {{\n" + ",\n".join(lines) + "\n    }}"


_ENTRY_TEMPLATES = {kind: _entry_template(kind) for kind in KIND_KEYS}


def report_to_json(report: VerifyReport) -> str:
    """The report's JSON document, indented by 2 with sorted keys.

    The bytes are those of json.dumps(doc, indent=2, sort_keys=True) for the
    doc of keys tool_version, config (the config's fields), results and
    summary, where each result is a dict of its kind's keys.  Each results
    entry is formatted from its kind's template in _ENTRY_TEMPLATES, and the
    rest is written by _json_text.
    """
    entries = [_ENTRY_TEMPLATES[entry.kind].format(
        encode_basestring_ascii(entry.name), exact_to_str(entry.lhs), exact_to_str(entry.rhs),
        _json_text(entry.inputs, "      "), _json_text(entry.holds),
        _json_text(entry.hypothesis_met))
        for entry in report.results]
    results = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
    return (f'{{\n  "config": {_json_text(report.config._asdict(), "  ")},\n'
            f'  "results": {results},\n'
            f'  "summary": {_json_text(report.summary, "  ")},\n'
            f'  "tool_version": {_json_text(report.tool_version)}\n}}')
