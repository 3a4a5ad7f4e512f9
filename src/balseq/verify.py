"""Sweep runner: every identity and gcd theorem over a (k, index) box.

CATALOG is every row, in report order: the identity rows that
identities.ROWS declares beside their kernels, then the gcd rows of
divisibility.ROWS.  Each row is an identities.Sides, run by the one driver
there: calling a row sweeps its whole in-domain tuple set up to a max index
and returns an identities.SweepOutcome of counts plus the failing reports,
and Sides.at answers a single point.  This module declares no row and
imports no kernel and no engine; it holds the run configuration, the
runner and the JSON writer.  The per-identity counts are named once, as
the fields of SweepOutcome between its name and its failures (COUNTS).
Every record here (VerifyRunConfig, VerifyReport, and the Report and
SweepOutcome it imports) is a named tuple, as the rest of the package's
records are, and a row (Sides) a slotted class that keeps its kernel
private, so no verify run imports dataclasses.

A sweep keeps its failing reports in one list, and each report's
hypothesis_met names its pool: the violations (True) or, where a gcd row's
hypothesis fails at k, the expected failures (False).  Each (name, k)
sweep is one task; run_verify runs them in the calling process, and with
workers > 1 it hands what is left after a short serial start to forked
children.  One rule,
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
from itertools import count
from json.encoder import encode_basestring_ascii
from typing import Iterable, NamedTuple, NoReturn

from . import __version__, divisibility, identities
from .decimal_io import decimal_str
from .identities import Report, Sides, SweepOutcome, merge_outcomes
from .ring import SequenceParams, is_int

# per-identity counts, in report order; the summary adds total_<count> for each
COUNTS = SweepOutcome._fields[1:-1]

# per report kind: the JSON keys of the name and of the two sides, then the
# labels of the two sides in the plain listing
KIND_KEYS = {
    "identity": ("identity_name", "lhs", "rhs", "lhs", "rhs"),
    "gcd": ("theorem_name", "computed_gcd", "expected", "gcd", "expected"),
}


CATALOG: dict[str, Sides] = {**identities.ROWS, **divisibility.ROWS}


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
