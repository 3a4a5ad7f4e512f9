"""balseq benchmark: closed-loop CLI workloads with exactness checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client sends each request through
balseq.cli.main(argv) in this process and sends the next one only when it
returns; stdout goes to a file in a temporary directory and every output is
checked for exactness outside the timed region.  A few small requests of
the workload's kinds warm the process up untimed; then whole blocks of the
seeded plan run, cycling, until the run is as close to S seconds as whole
blocks allow.

--trace 0 prints the end-to-end metrics: setup_s (import balseq.cli and
build the parser in a fresh interpreter, median of several), work_per_s
(digits of exact values written per second of request time on term-huge and
table-csv, summary.total_checked per second on the verify workloads; the
median over the run's blocks),
op_p50_s and peak_rss_mb.  --trace 1 runs a fixed prefix of the plan twice,
untraced and then traced, and prints the per-layer metrics of the traced
pass plus its overhead over the untraced one.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracing import TimedWriter, Tracer, install, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench"  # scratch outputs and the span dump
SETUP_EVERY_S = 1.0  # one set-up sample per second of run, taken between requests
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import balseq.cli\n"
    "balseq.cli.build_parser()\n"
    "print(time.perf_counter() - start)\n"
)
END_TO_END_UNITS = {"setup_s": "s", "work_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MiB"}
WORK_UNIT = {"term-huge": "digits", "table-csv": "digits",
             "verify-box": "checks", "verify-burst": "checks"}


def load_balseq():
    """Import balseq.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import balseq.cli

    if not Path(balseq.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"balseq was imported from {balseq.cli.__file__}")
    return balseq.cli


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    digits: int = 0
    checks: int = 0
    blocks: int = 0
    # per block: (digits, checks, seconds of request time)
    windows: list[tuple[int, int, float]] = field(default_factory=list)

    def work_rates(self, unit: str) -> list[float]:
        """Work per second of request time in each block; unit is digits or checks."""
        column = 0 if unit == "digits" else 1
        return [window[column] / window[2] for window in self.windows]


def _invoke(cli, argv: tuple[str, ...]):
    try:
        return cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        return exc.code
    except Exception:  # a library error is a failed request, not a crash
        traceback.print_exc()
        return "exception"
    finally:
        sys.stdout.flush()


def serve(cli, request, tmp: Path, tracer=None):
    """Run one request with stdout and stderr in files; (exit code, seconds)."""
    with open(tmp / "stdout", "w", encoding="utf-8") as out, \
            open(tmp / "stderr", "w", encoding="utf-8") as err:
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = (out if tracer is None else TimedWriter(out, tracer)), err
        try:
            start = time.perf_counter()
            if tracer is None:
                code = _invoke(cli, request.argv)
            else:
                code = tracer.serve(_invoke, cli, request.argv)
            seconds = time.perf_counter() - start
        finally:
            sys.stdout, sys.stderr = saved
    return code, seconds


def execute(cli, blocks, tmp: Path, seconds: float | None = None, tracer=None,
            after_request=None) -> Tally:
    """Serve and check whole blocks: cycling for about `seconds`, or each once.

    A cycling run starts another block only if, at the mean block length so
    far, at least half of it would end within `seconds`, so a run overshoots
    by less than half a block.  after_request, if given, is called after
    each request's check.
    """
    from exactness import CheckFailed, check, file_digest

    tally = Tally()
    # a repeated request must give the bytes of its first, fully checked output
    checked: dict[tuple[str, ...], tuple[int, int, bytes]] = {}
    start = time.perf_counter()
    for block in itertools.cycle(blocks) if seconds is not None else blocks:
        before = tally.digits, tally.checks, len(tally.latencies)
        for request in block:
            code, latency = serve(cli, request, tmp, tracer)
            tally.latencies.append(latency)
            if tracer is not None:
                tracer.bytes_out += (tmp / "stdout").stat().st_size
            try:
                if code != 0:
                    detail = (tmp / "stderr").read_text(encoding="utf-8").strip().splitlines()
                    raise CheckFailed(f"exit code {code}: {detail[-1] if detail else ''}")
                if request.argv in checked:
                    digits, checks, digest = checked[request.argv]
                    if file_digest(tmp / "stdout") != digest:
                        raise CheckFailed("bytes differ from the first repetition")
                else:
                    digits, checks, digest = check(request, tmp / "stdout")
                    checked[request.argv] = digits, checks, digest
            except CheckFailed as exc:
                tally.failures.append(f"{' '.join(request.argv)}: {exc}")
            else:
                tally.digits += digits
                tally.checks += checks
                if tracer is not None:
                    tracer.digits += digits
            if after_request is not None:
                after_request()
        tally.blocks += 1
        tally.windows.append((tally.digits - before[0], tally.checks - before[1],
                              sum(tally.latencies[before[2]:])))
        elapsed = time.perf_counter() - start
        if seconds is not None and elapsed * (1 + 0.5 / tally.blocks) >= seconds:
            break
    return tally


def setup_seconds() -> float:
    done = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    return float(done.stdout)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def describe(blocks, label: str) -> None:
    requests = [r for block in blocks for r in block]
    print(f"{label}: {len(blocks)} blocks, {len(requests)} requests,"
          f" expected checks {sum(r.expected_checks() for r in requests)} (closed form),"
          f" approx digits {sum(r.approx_digits() for r in requests):.3g}")


def report(metrics: dict, attempted: int, failures: list[str]) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:.6g} {unit}")
    print(f"{'failed_frac':<36} {len(failures) / attempted:.6g}"
          f" ({len(failures)} of {attempted})")
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_end_to_end(cli, workload: str, blocks, seconds: float, tmp: Path,
                   warmup=()) -> dict:
    # Set-up is sampled all through the run rather than in one burst, so
    # that one slow or fast moment of a shared machine does not decide it;
    # after a long request the samples owed for its duration are taken.
    setup_seconds()  # warm the file and bytecode caches before sampling
    setup: list[float] = []
    next_sample = time.perf_counter()

    def sample_setup() -> None:
        nonlocal next_sample
        now = time.perf_counter()
        if now >= next_sample:
            owed = 1 + int((now - next_sample) // SETUP_EVERY_S)
            setup.extend(setup_seconds() for _ in range(owed))
            next_sample = time.perf_counter() + SETUP_EVERY_S

    warm = execute(cli, [list(warmup)], tmp)
    print(f"warm-up: {len(warm.latencies)} small requests, untimed")
    sample_setup()
    describe(blocks, f"plan (cycled whole blocks for about {seconds:g} s)")
    tally = execute(cli, blocks, tmp, seconds=seconds, after_request=sample_setup)
    busy = sum(tally.latencies)
    unit = WORK_UNIT[workload]
    work_per_s = statistics.median(tally.work_rates(unit))
    print(f"ran {tally.blocks} blocks, {len(tally.latencies)} requests, {busy:.3f} s of request time")
    print(f"{unit}_per_s{'':<24} {work_per_s:.6g} {unit}/s  (work_per_s below;"
          f" median of {tally.blocks} blocks, {getattr(tally, unit) / busy:.6g} over the run)")
    if len(tally.latencies) >= 100:
        p90 = statistics.quantiles(tally.latencies, n=10)[-1]
        print(f"op_p90_s{'':<28} {p90:.6g} s  (n={len(tally.latencies)})")
    values = {
        "setup_s": statistics.median(setup),
        "work_per_s": work_per_s,
        "op_p50_s": statistics.median(tally.latencies),
        "peak_rss_mb": peak_rss_mib(),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    print(f"(op_p50_s over n={len(tally.latencies)}; setup_s median of {len(setup)})")
    attempted = len(warm.latencies) + len(tally.latencies)
    return report(metrics, attempted, warm.failures + tally.failures)


def run_traced(cli, workload: str, blocks, seconds: float, tmp: Path) -> dict:
    from balseq.verify import CATALOG

    count = max(1, round(seconds / 2 / workloads.NOMINAL_BLOCK_S[workload]))
    fixed = list(itertools.islice(itertools.cycle(blocks), count))
    describe(fixed, "trace prefix (run untraced, then traced)")
    untraced = execute(cli, fixed, tmp)
    tracer = Tracer()
    install(tracer)
    try:
        traced = execute(cli, fixed, tmp, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, CATALOG)
    metrics["trace.overhead_s"] = (sum(traced.latencies) - sum(untraced.latencies), "s")
    tracer.dump(RUN_DIR / f"spans-{workload}.csv")
    print(f"spans written to {RUN_DIR / f'spans-{workload}.csv'}")
    attempted = len(untraced.latencies) + len(traced.latencies)
    return report(metrics, attempted, untraced.failures + traced.failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = load_balseq()
    except ImportError as exc:
        print(f"perfbench: cannot import balseq from {SRC}: {exc}", file=sys.stderr)
        return 2

    blocks = workloads.plan(args.workload, args.seed)
    RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as tmp:
        if args.trace:
            result = run_traced(cli, args.workload, blocks, args.seconds, Path(tmp))
        else:
            result = run_end_to_end(cli, args.workload, blocks, args.seconds, Path(tmp),
                                    warmup=workloads.warmup(args.workload))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
