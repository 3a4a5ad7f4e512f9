"""Command-line surface: term, table, series, verify, bench.

Exit codes: 0 success / all checks held, 1 verification or cross-check
failure, 2 usage or I/O error.  Values are always printed as full decimal
strings, never truncated or in scientific notation; terms reach hundreds of
thousands of digits and lossy output would defeat the point of exact
arithmetic.  Every printed value goes through `decimal_str`, which is
subquadratic on large values and ignores the interpreter's int-to-str digit
limit, so the CLI neither reads nor changes that process-wide setting.

`term` on the three logarithmic engines, `table` and `series` compute in
exact `decimal.Decimal` (the library's `one=Decimal(1)` form), which
multiplies big terms faster than int and prints them in linear time;
`term --engine iterative` computes in int.  `term` and `bench` compute a
term through one helper, `_term`, so `bench` times each engine in the
number type `term` computes in on it.  The caller's decimal context is
left as it was.  `table` computes and holds one k's terms at a time, for the
n window asked only, and writes every format a row at a time; `series`
writes every format a coefficient at a time.  CSV lines are joined
directly: no field the CLI writes ever needs quoting.  The rows of `table`
and `series`, whose fields are already text, are joined as they are, and
only the other commands' lines go through `_csv_line`, which converts each
field with `str`.

`main(argv)` may be called any number of times in one process.  The parser
is built once per process, on the first `build_parser()` call (not at
import), and every later call returns it; the subcommand handlers and the
`choices` are bound at that build.  `main` returns the exit code in every
case, an argparse usage error, `--help` and `--version` included, and never
raises SystemExit.  `verify --threads` caps the processes its sweeps run in
(see `verify.run_verify`).

Every run pays for what this module imports, so at import it loads only
what parsing, `term`, `table` and `bench` run: argparse, decimal, and the
`engines`, `ring` and `decimal_io` modules.  `cmd_series` imports `genfunc`,
`cmd_verify` imports `verify`, and `errata` only for `--emit-errata`; `json`
is imported by `_json`, which writes the JSON of `term`, `table`, `series`
and `bench`.  `verify`'s report is written by `verify.report_to_json`, which
takes only json's string escaper and runs none of its encoders.  So a `term`
or `table` run loads no `verify`, one that writes no JSON loads no `json`
either, and no run loads `dataclasses`: every record in the package is a
named tuple.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from decimal import Decimal

from . import __version__
from .decimal_io import decimal_str
from .engines import (
    Engine,
    ITERATIVE_CAP_DEFAULT,
    IterativeCapError,
    b_table,
    c_table,
    term_b,
    term_c,
    window_pair,
)
from .ring import SequenceParams

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2

ENGINES = {engine.value: engine for engine in Engine}


def parse_range(text: str) -> tuple[int, int]:
    """Inclusive "lo..hi" (a bare integer means lo = hi); may be empty."""
    lo, sep, hi = text.partition("..")
    try:
        if not sep:
            value = int(text)
            return value, value
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid range {text!r}, expected 'lo..hi' or an integer"
        ) from None


def parse_index_list(text: str) -> list[int]:
    """Comma-separated indices n >= 0, e.g. "10,100,1000"."""
    values = []
    for part in text.split(","):
        try:
            value = int(part)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid index {part!r} in {text!r}, expected integers >= 0"
            ) from None
        if value < 0:
            raise argparse.ArgumentTypeError(f"n must be >= 0, got {part!r} in {text!r}")
        values.append(value)
    return values


def parse_threads(text: str) -> int:
    """The processes verify sweeps in for a --threads value: "auto" gives
    the number of CPUs this process may run on, and N >= 1 gives at most
    that many, so a large N never starts more processes than there are CPUs."""
    if text != "auto":
        try:
            count = int(text)
        except ValueError:
            count = 0
        if count < 1:
            raise argparse.ArgumentTypeError(
                f"thread count must be an integer >= 1 or 'auto', got {text!r}"
            )
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform can report the affinity
        cpus = os.cpu_count() or 1
    return cpus if text == "auto" else min(count, cpus)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("plain", "csv", "json"), default="plain",
        help="output format (default plain)",
    )


def _csv_line(fields) -> str:
    """One CSV line, as csv.writer with lineterminator="\n" writes it.

    The fields are ints, decimal digits with an optional sign, and names
    of letters, digits and hyphens, which the default minimal quoting never
    quotes, so joining them gives the same bytes in linear time.
    """
    return ",".join(map(str, fields)) + "\n"


def _json(value) -> str:
    """value as one JSON text with sorted keys; `json` is imported on the
    first call, so a run that writes no JSON never loads it."""
    import json

    return json.dumps(value, sort_keys=True)


def _write_json_items(head: str, items, tail: str) -> None:
    """head, then the items' JSON texts joined by ", ", then tail.

    Written an item at a time: the text of the whole document would raise
    peak memory.  With json.dumps's default separators, these are the bytes
    of one dump of the whole document.
    """
    write = sys.stdout.write
    write(head)
    for index, item in enumerate(items):
        write((", " if index else "") + _json(item))
    write(tail)


# ---------------------------------------------------------------------------
# subcommands

def _term(seq, params, n, engine, iterative_cap) -> int | Decimal:
    """The term that `term` prints and `bench` times: `term_b` or `term_c`,
    read from this module when called, in int on the iterative engine and
    in exact Decimal on the others.

    Iterative stays on int: its n small-by-big multiply-adds are cheaper in
    int. At k 5, n = 10^5 the recurrence took 3.3-3.7 s on int against
    6.4-7.6 s on Decimal (2-core x86-64, Python 3.11).
    """
    fn = term_b if seq == "B" else term_c
    one = 1 if engine is Engine.ITERATIVE else Decimal(1)
    return fn(params, n, engine, iterative_cap=iterative_cap, one=one)


def cmd_term(args) -> int:
    params = SequenceParams(args.k)
    value = decimal_str(_term(args.seq, params, args.n, ENGINES[args.engine],
                              args.iterative_cap))
    if args.format == "plain":
        print(value)
    elif args.format == "csv":
        sys.stdout.write(_csv_line(["k", "n", "seq", "engine", "value"]))
        sys.stdout.write(_csv_line([args.k, args.n, args.seq, args.engine, value]))
    else:
        print(_json({"k": args.k, "n": args.n, "seq": args.seq, "engine": args.engine,
                     "value": value}))
    return EXIT_OK


def cmd_table(args) -> int:
    k_lo, k_hi = args.k
    n_lo, n_hi = args.n
    if k_lo < 1:
        raise ValueError("k must be >= 1")
    if n_lo < 0:
        raise ValueError("n must be >= 0")
    seqs = ("B", "C") if args.seq == "BC" else (args.seq,)
    header = ["k", "n", *seqs]
    rows = _table_rows(args.k, args.n, seqs)
    if args.format != "json":
        sep = "," if args.format == "csv" else " "
        sys.stdout.write(sep.join(header) + "\n")
        # converted row by row as it is written: a list of every row's
        # strings would raise peak memory
        for row in rows:
            sys.stdout.write(sep.join([decimal_str(x) for x in row]) + "\n")
    else:
        keys = [key.lower() for key in header]
        _write_json_items("[", (dict(zip(keys, [k, n, *map(decimal_str, terms)]))
                                for k, n, *terms in rows), "]\n")
    return EXIT_OK


def _table_rows(k_range, n_range, seqs):
    """Rows [k, n, *terms], the terms in Decimal; one k's terms are held at a time."""
    (k_lo, k_hi), (n_lo, n_hi) = k_range, n_range
    if n_lo > n_hi:
        return
    for k in range(k_lo, k_hi + 1):
        params = SequenceParams(k)
        # B and C are seeded from one doubling pair, which makes them Decimal
        pair = window_pair(params, n_lo, one=Decimal(1))
        tables = ((b_table if seq == "B" else c_table)(params, n_hi, start=n_lo, pair=pair)
                  for seq in seqs)
        # only the loop holds this k's terms, so they are freed before the
        # next k's are computed
        for n, terms in enumerate(zip(*tables), n_lo):
            yield [k, n, *terms]


def cmd_series(args) -> int:
    from . import genfunc

    if args.N < 0:
        raise ValueError(f"--N must be >= 0, got {args.N}")
    if args.seq == "B" and args.variant == "printed":
        raise ValueError("--variant printed applies to --seq C only")
    params = SequenceParams(args.k)
    if args.seq == "B":
        series = genfunc.b_series(params, args.N, one=Decimal(1))
    else:
        series = genfunc.c_series(params, args.N, variant=args.variant, one=Decimal(1))
        if args.variant == "printed":
            print(
                "warning: the printed 1+3x(1+k) numerator does not generate C;"
                " its coefficients diverge from C_(k,n) at n=1",
                file=sys.stderr,
            )
    coeffs = series.expansion
    # plain is written a coefficient at a time, as csv and json are: the
    # whole document's text would raise peak memory
    if args.format == "plain":
        for n, c in enumerate(coeffs):
            sys.stdout.write((" " if n else "") + decimal_str(c))
        sys.stdout.write("\n")
    elif args.format == "csv":
        sys.stdout.write(_csv_line(["n", "coefficient"]))
        for n, c in enumerate(coeffs):
            sys.stdout.write(f"{n},{decimal_str(c)}\n")
    else:
        # "coefficients" sorts first, and the other keys follow the list
        rest = _json({"k": args.k, "seq": args.seq, "variant": args.variant})
        _write_json_items('{"coefficients": [', map(decimal_str, coeffs),
                          "], " + rest[1:] + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    # run_verify, report_to_json and render_document are read off their
    # modules when called, so a wrapper set on a module attribute is called
    from . import verify
    from .verify import COUNTS, KIND_KEYS, exact_to_str

    k_lo, k_hi = args.k
    config = verify.VerifyRunConfig(
        k_lo=k_lo,
        k_hi=k_hi,
        max_index=args.max_index,
        identities=tuple(verify.resolve_identities(args.identity)),
        max_listed=args.max_listed,
    )
    if args.emit_errata is not None:
        from . import errata

        # written before the sweep, so an unwritable path fails fast
        path = args.emit_errata
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(errata.render_document())
        if not args.quiet:
            print(f"errata document written to {path}", file=sys.stderr)
    report = verify.run_verify(config, workers=args.threads)

    summary = report.summary
    if args.format == "json":
        print(verify.report_to_json(report))
    elif args.format == "csv":
        sys.stdout.write(_csv_line(["identity", *COUNTS]))
        for name in sorted(summary["per_identity"]):
            counts = summary["per_identity"][name]
            sys.stdout.write(_csv_line([name, *(counts[key] for key in COUNTS)]))
    else:
        if not args.quiet:
            for name in sorted(summary["per_identity"]):
                counts = summary["per_identity"][name]
                print(f"{name}: " + " ".join(f"{key}={counts[key]}" for key in COUNTS))
            for entry in report.results:
                tag = "VIOLATION" if entry.hypothesis_met else "expected failure"
                inputs = ", ".join(f"{k}={v}" for k, v in sorted(entry.inputs.items()))
                *_, lhs_label, rhs_label = KIND_KEYS[entry.kind]
                print(f"  [{tag}] {entry.name} ({inputs}): {lhs_label}={exact_to_str(entry.lhs)}"
                      f" {rhs_label}={exact_to_str(entry.rhs)}")
        verdict = "all held" if summary["all_held"] else "FAILED"
        # the verdict leaves out the held total: it is checked less the others
        totals = ", ".join(f"{key}={summary['total_' + key]}"
                           for key in (COUNTS[0], *COUNTS[2:]))
        print(f"verify: {verdict} ({totals})")
    return EXIT_OK if summary["all_held"] else EXIT_FAILED


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise ValueError("reps must be >= 1")
    params = SequenceParams(args.k)
    # a name listed twice is timed once, at its first place
    engine_names = (
        list(ENGINES) if args.engines == "all" else
        list(dict.fromkeys(name.strip() for name in args.engines.split(",")))
    )
    for name in engine_names:
        if name not in ENGINES:
            raise ValueError(f"unknown engine {name!r}")

    rows = []
    for n in dict.fromkeys(args.n):  # an n listed twice, too, is timed once
        # the values the timed runs return are the ones cross-checked; an
        # engine that refuses n over its cap is listed as skipped
        best, values = {}, {}
        for name in engine_names:
            try:
                runs = [_timed(args.seq, params, n, ENGINES[name], args.iterative_cap)
                        for _ in range(args.reps)]
            except IterativeCapError:
                continue
            best[name] = min(seconds for seconds, _ in runs)
            values[name] = {value for _, value in runs}
        if len(set().union(*values.values())) > 1:
            print(f"engine value mismatch at k={args.k}, n={n}:", file=sys.stderr)
            for name, seen in values.items():
                for value in seen:
                    # abs() would round a Decimal to the caller's context
                    digits = len(decimal_str(value).lstrip("-"))
                    print(f"  {name}: {digits} digits", file=sys.stderr)
            return EXIT_FAILED

        rows.extend((name, n, best.get(name)) for name in engine_names)

    if args.format == "json":
        print(_json([{"engine": name, "n": n, "repetitions": args.reps, "seconds": seconds,
                      "skipped": seconds is None, "cap": args.iterative_cap}
                     for name, n, seconds in rows]))
    elif args.format == "csv":
        sys.stdout.write(_csv_line(["engine", "n", "repetitions", "seconds"]))
        for name, n, seconds in rows:
            sys.stdout.write(_csv_line(
                [name, n, args.reps, "skipped" if seconds is None else f"{seconds:.6f}"]))
    else:
        for name, n, seconds in rows:
            if seconds is None:
                print(f"{name:<10} n={n}: skipped (cap {args.iterative_cap})")
            else:
                print(f"{name:<10} n={n}: {seconds:.6f} s (best of {args.reps})")
    return EXIT_OK


def _timed(*term_args) -> tuple[float, int | Decimal]:
    """One timed `_term(*term_args)`."""
    start = time.perf_counter()
    value = _term(*term_args)
    return time.perf_counter() - start, value


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser: built on the first call, and the same object after.

    The first build in a process takes 2.9-4.7 ms, 1.7 ms of it `gettext`
    importing `locale` for argparse's messages, and a rebuild 1.2-2.0 ms
    (2-core x86-64, Python 3.11, 8 fresh processes), against about 0.8 ms
    for a small verify request, so `main` parses every argv with this one
    parser.  The subcommand handlers (`set_defaults(handler=cmd_*)`) and
    the `choices` are bound at that first build; a handler reads the
    engines from this module, and `run_verify` from `verify`, when it
    runs.  Every action default is immutable (a str, int, tuple or None),
    so no parse can change what the next one sees.
    """
    parser = argparse.ArgumentParser(
        prog="balseq",
        description="exact computation and verification for the generalized"
        " balancing sequences B and C",
    )
    parser.add_argument("--version", action="version", version=f"balseq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_term = sub.add_parser("term", help="one exact term")
    p_term.add_argument("--seq", choices=("B", "C"), required=True)
    p_term.add_argument("--k", type=int, required=True)
    p_term.add_argument("--n", type=int, required=True)
    p_term.add_argument("--engine", choices=tuple(ENGINES), default="doubling")
    p_term.add_argument("--iterative-cap", type=int, default=ITERATIVE_CAP_DEFAULT)
    _add_common(p_term)
    p_term.set_defaults(handler=cmd_term)

    p_table = sub.add_parser("table", help="value table over k and n ranges")
    p_table.add_argument("--k", type=parse_range, required=True, metavar="LO..HI")
    p_table.add_argument("--n", type=parse_range, required=True, metavar="LO..HI")
    p_table.add_argument("--seq", choices=("B", "C", "BC"), default="BC")
    _add_common(p_table)
    p_table.set_defaults(handler=cmd_table)

    p_series = sub.add_parser("series", help="generating-function coefficients")
    p_series.add_argument("--seq", choices=("B", "C"), required=True)
    p_series.add_argument("--k", type=int, required=True)
    p_series.add_argument("--N", type=int, required=True, help="highest coefficient index")
    p_series.add_argument(
        "--variant", choices=("corrected", "printed"), default="corrected",
        help="C-numerator variant (printed = the refuted 1+3x(1+k) form; C only)",
    )
    _add_common(p_series)
    p_series.set_defaults(handler=cmd_series)

    p_verify = sub.add_parser("verify", help="sweep identities and gcd theorems")
    p_verify.add_argument("--k", type=parse_range, default=(1, 12), metavar="LO..HI")
    p_verify.add_argument("--max-index", type=int, default=40)
    p_verify.add_argument(
        "--identity", default="all",
        help="comma-separated catalog names, family prefixes, or 'all'",
    )
    p_verify.add_argument("--max-listed", type=int, default=25,
                          help="failing reports listed per identity and pool")
    p_verify.add_argument("--threads", type=parse_threads, default="auto",
                          help="most processes the sweeps run in, capped at the"
                          " usable CPUs (integer >= 1, or 'auto' for all of them;"
                          " default auto); small runs stay in one process")
    p_verify.add_argument("--emit-errata", nargs="?", const="ERRATA.md",
                          default=None, metavar="PATH",
                          help="also write the machine-checked errata document")
    _add_common(p_verify)
    p_verify.add_argument("--quiet", action="store_true",
                          help="plain output keeps just the verdict line, and no errata"
                          " note goes to stderr")
    p_verify.set_defaults(handler=cmd_verify)

    p_bench = sub.add_parser("bench", help="time the engines against each other")
    p_bench.add_argument("--k", type=int, required=True)
    p_bench.add_argument("--n", type=parse_index_list, required=True, metavar="N[,N...]",
                         help="comma-separated index list")
    p_bench.add_argument("--engines", default="all",
                         help="comma-separated engine names or 'all'")
    p_bench.add_argument("--seq", choices=("B", "C"), default="B")
    p_bench.add_argument("--reps", type=int, default=3)
    p_bench.add_argument("--iterative-cap", type=int, default=ITERATIVE_CAP_DEFAULT)
    _add_common(p_bench)
    p_bench.set_defaults(handler=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error, --help or --version
        return exc.code
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
