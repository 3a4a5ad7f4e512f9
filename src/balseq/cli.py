"""Command-line surface: term, table, series, verify, bench.

Exit codes: 0 success / all checks held, 1 verification or cross-check
failure, 2 usage or I/O error.  Values are always printed as full decimal
strings, never truncated or in scientific notation; terms reach hundreds of
thousands of digits and lossy output would defeat the point of exact
arithmetic.  Every printed value goes through `decimal_str`, which is
subquadratic on large values and ignores the interpreter's int-to-str digit
limit, so the CLI neither reads nor changes that process-wide setting.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from . import __version__
from .decimal_io import decimal_str
from .engines import (
    Engine,
    ITERATIVE_CAP_DEFAULT,
    b_table,
    c_table,
    check_iterative_cap,
    term_b,
    term_c,
)
from .errata import render_document
from .genfunc import b_series, c_series
from .ring import SequenceParams
from .verify import (
    VerifyRunConfig,
    exact_to_str,
    report_to_json,
    resolve_identities,
    run_verify,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2

ENGINES = {
    "iterative": Engine.ITERATIVE,
    "matrix": Engine.MATRIX,
    "binet": Engine.BINET,
    "doubling": Engine.FAST_DOUBLING,
}


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


def parse_threads(text: str) -> str:
    """Validate --threads; the count is ignored because sweeps run serially."""
    if text == "auto":
        return text
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"thread count must be an integer >= 1 or 'auto', got {text!r}"
        )
    return text


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("plain", "csv", "json"), default="plain",
        help="output format (default plain)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress informational notes"
    )


def _csv_writer(stream):
    return csv.writer(stream, lineterminator="\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_term(args) -> int:
    params = SequenceParams(args.k)
    engine = ENGINES[args.engine]
    fn = term_b if args.seq == "B" else term_c
    value = decimal_str(fn(params, args.n, engine, iterative_cap=args.iterative_cap))
    if args.format == "plain":
        print(value)
    elif args.format == "csv":
        writer = _csv_writer(sys.stdout)
        writer.writerow(["k", "n", "seq", "engine", "value"])
        writer.writerow([args.k, args.n, args.seq, args.engine, value])
    else:
        print(json.dumps(
            {"k": args.k, "n": args.n, "seq": args.seq, "engine": args.engine,
             "value": value},
            sort_keys=True,
        ))
    return EXIT_OK


def cmd_table(args) -> int:
    k_lo, k_hi = args.k
    n_lo, n_hi = args.n
    if k_lo < 1:
        raise ValueError("k must be >= 1")
    if n_lo < 0:
        raise ValueError("n must be >= 0")
    seqs = ("B", "C") if args.seq == "BC" else (args.seq,)
    rows = []
    for k in range(k_lo, k_hi + 1):
        params = SequenceParams(k)
        tables = {}
        if n_lo <= n_hi:
            if "B" in seqs:
                tables["B"] = b_table(params, n_hi)
            if "C" in seqs:
                tables["C"] = c_table(params, n_hi)
        for n in range(n_lo, n_hi + 1):
            rows.append([k, n] + [tables[s][n] for s in seqs])
    header = ["k", "n"] + list(seqs)
    # converted row by row as it is written: a list of every row's strings
    # would raise peak memory
    texts = ([decimal_str(x) for x in row] for row in rows)
    if args.format == "plain":
        print(" ".join(header))
        for text in texts:
            print(" ".join(text))
    elif args.format == "csv":
        writer = _csv_writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(texts)
    else:
        print(json.dumps(
            [{key.lower(): (value if key in ("k", "n") else decimal_str(value))
              for key, value in zip(header, row)} for row in rows],
            sort_keys=True,
        ))
    return EXIT_OK


def cmd_series(args) -> int:
    params = SequenceParams(args.k)
    if args.seq == "B":
        series = b_series(params, args.N)
    else:
        series = c_series(params, args.N, variant=args.variant)
        if args.variant == "printed":
            print(
                "warning: the printed 1+3x(1+k) numerator does not generate C;"
                " its coefficients diverge from C_(k,n) at n=1",
                file=sys.stderr,
            )
    coeffs = series.expansion
    if args.format == "plain":
        print(" ".join(decimal_str(c) for c in coeffs))
    elif args.format == "csv":
        writer = _csv_writer(sys.stdout)
        writer.writerow(["n", "coefficient"])
        for n, c in enumerate(coeffs):
            writer.writerow([n, decimal_str(c)])
    else:
        print(json.dumps(
            {"seq": args.seq, "k": args.k, "variant": args.variant,
             "coefficients": [decimal_str(c) for c in coeffs]},
            sort_keys=True,
        ))
    return EXIT_OK


def cmd_verify(args) -> int:
    k_lo, k_hi = args.k
    config = VerifyRunConfig(
        k_lo=k_lo,
        k_hi=k_hi,
        max_index=args.max_index,
        identities=tuple(resolve_identities(args.identity)),
        max_listed=args.max_listed,
    )
    if args.emit_errata is not None:
        # written before the sweep, so an unwritable path fails fast
        path = args.emit_errata
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(render_document())
        if not args.quiet:
            print(f"errata document written to {path}", file=sys.stderr)
    report = run_verify(config)

    summary = report.summary
    if args.format == "json":
        print(report_to_json(report))
    elif args.format == "csv":
        writer = _csv_writer(sys.stdout)
        writer.writerow(["identity", "checked", "held", "failed", "hypothesis_not_met"])
        for name in sorted(summary["per_identity"]):
            counts = summary["per_identity"][name]
            writer.writerow([name, counts["checked"], counts["held"],
                             counts["failed"], counts["hypothesis_not_met"]])
    else:
        if not args.quiet:
            for name in sorted(summary["per_identity"]):
                counts = summary["per_identity"][name]
                print(
                    f"{name}: checked={counts['checked']} held={counts['held']}"
                    f" failed={counts['failed']}"
                    f" hypothesis_not_met={counts['hypothesis_not_met']}"
                )
            for entry in report.results:
                name = getattr(entry, "identity_name", None) or entry.theorem_name
                tag = "VIOLATION" if entry.hypothesis_met else "expected failure"
                inputs = ", ".join(f"{k}={v}" for k, v in sorted(entry.inputs.items()))
                if hasattr(entry, "lhs"):
                    detail = f"lhs={exact_to_str(entry.lhs)} rhs={exact_to_str(entry.rhs)}"
                else:
                    detail = (f"gcd={decimal_str(entry.computed_gcd)}"
                              f" expected={decimal_str(entry.expected)}")
                print(f"  [{tag}] {name} ({inputs}): {detail}")
        verdict = "all held" if summary["all_held"] else "FAILED"
        print(
            f"verify: {verdict} (checked={summary['total_checked']},"
            f" failed={summary['total_failed']},"
            f" hypothesis_not_met={summary['total_hypothesis_not_met']})"
        )
    return report.exit_code


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise ValueError("reps must be >= 1")
    check_iterative_cap(args.iterative_cap)
    params = SequenceParams(args.k)
    engine_names = (
        list(ENGINES) if args.engines == "all" else
        [name.strip() for name in args.engines.split(",")]
    )
    for name in engine_names:
        if name not in ENGINES:
            raise ValueError(f"unknown engine {name!r}")
    fn = term_b if args.seq == "B" else term_c

    rows = []
    for n in args.n:
        active = [
            name for name in engine_names
            if not (name == "iterative" and n > args.iterative_cap)
        ]
        skipped = [name for name in engine_names if name not in active]

        values = {
            name: fn(params, n, ENGINES[name], iterative_cap=args.iterative_cap)
            for name in active
        }
        distinct = set(values.values())
        if len(distinct) > 1:
            print(f"engine value mismatch at k={args.k}, n={n}:", file=sys.stderr)
            for name, value in values.items():
                digits = len(decimal_str(abs(value)))
                print(f"  {name}: {digits} digits", file=sys.stderr)
            return EXIT_FAILED

        for name in engine_names:
            if name in skipped:
                rows.append((name, n, None))
                continue
            best = min(
                _timed(fn, params, n, ENGINES[name], args.iterative_cap)
                for _ in range(args.reps)
            )
            rows.append((name, n, best))

    if args.format == "json":
        print(json.dumps(
            [
                {"engine": name, "n": n, "repetitions": args.reps,
                 "seconds": seconds, "skipped": seconds is None,
                 "cap": args.iterative_cap}
                for name, n, seconds in rows
            ],
            sort_keys=True,
        ))
    elif args.format == "csv":
        writer = _csv_writer(sys.stdout)
        writer.writerow(["engine", "n", "repetitions", "seconds"])
        for name, n, seconds in rows:
            writer.writerow([name, n, args.reps, "skipped" if seconds is None else f"{seconds:.6f}"])
    else:
        for name, n, seconds in rows:
            if seconds is None:
                print(f"{name:<10} n={n}: skipped (cap {args.iterative_cap})")
            else:
                print(f"{name:<10} n={n}: {seconds:.6f} s (best of {args.reps})")
    return EXIT_OK


def _timed(fn, params, n, engine, iterative_cap) -> float:
    start = time.perf_counter()
    fn(params, n, engine, iterative_cap=iterative_cap)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
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
        help="C-numerator variant (printed = the refuted 1+3x(1+k) form)",
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
                          help="accepted for compatibility and ignored;"
                          " sweeps run serially (integer >= 1 or 'auto')")
    p_verify.add_argument("--emit-errata", nargs="?", const="ERRATA.md",
                          default=None, metavar="PATH",
                          help="also write the machine-checked errata document")
    _add_common(p_verify)
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
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
