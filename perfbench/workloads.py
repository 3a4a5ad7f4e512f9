"""The benchmark's workloads: seeded request plans for the balseq CLI.

A plan is a list of blocks and a block is a list of requests.  Runs measure
whole blocks only, so every run sees the same mix of request kinds and sizes
whatever its length, and a block is the window whose work rate the run
takes the median of.  Where requests differ a lot in cost, the block follows
a fixed stratified design (each k paired with one stratum of the size range)
and the seed draws the exact sizes inside the strata, the sequence and the
order.  A seed therefore changes every value the CLI prints, but not the
shape of the work, which keeps medians from different seeds comparable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Checks per k that each catalog sweep makes at max index m; these mirror the
# loop bounds of the sweeps in closed form, so a changed count is caught.
CHECKS_PER_K = {
    "catalan-b": lambda m: m * (m + 3) // 2,
    "catalan-c": lambda m: m * (m + 3) // 2,
    "cassini-b": lambda m: m,
    "cassini-c": lambda m: m,
    "docagne-b": lambda m: (m + 1) * (m + 2) // 2,
    "docagne-c": lambda m: (m + 1) * (m + 2) // 2,
    "vajda-1": lambda m: (m + 1) ** 3,
    "vajda-2": lambda m: m * (m + 1) * (m + 2) // 6,
    "sum-b": lambda m: m,
    "sum-c": lambda m: m,
    "addition": lambda m: m * (m + 1),
    "doubling": lambda m: m,
    "power-sum": lambda m: m,
    "c-from-b": lambda m: m + 1,
    "matrix-b": lambda m: 4 * m,
    "matrix-c": lambda m: 4 * m,
    "ar-commute": lambda m: 4,
    "index-divisibility": lambda m: sum(m // d for d in range(1, m + 1)),
    "coprime-norm-b": lambda m: m,
    "coprime-norm-c": lambda m: m,
    "consecutive-gcd-b": lambda m: m,
    "consecutive-gcd-c": lambda m: m,
    "b-c-coprime": lambda m: m + 1,
    "strong-gcd": lambda m: m * (m + 1) // 2,
}


@dataclass(frozen=True)
class Request:
    """One CLI invocation plus what the exactness check needs to know."""

    kind: str  # "term", "table", "series" or "verify"
    argv: tuple[str, ...]
    k_lo: int
    k_hi: int
    n: int  # term index, top table/series index, or verify max index
    seq: str = ""
    engine: str = ""
    identities: tuple[str, ...] = ()

    def expected_checks(self) -> int:
        span = self.k_hi - self.k_lo + 1
        return sum(CHECKS_PER_K[name](self.n) for name in self.identities) * span

    def approx_digits(self) -> float:
        """About n*log10(alpha) digits per printed value."""
        if self.kind == "term":
            return self.n * log10_alpha(self.k_lo)
        if self.kind == "verify":
            return 0.0
        per_seq = 2 if self.kind == "table" else 1
        values = self.n * (self.n + 1) / 2
        return per_seq * values * sum(log10_alpha(k) for k in range(self.k_lo, self.k_hi + 1))


def log10_alpha(k: int) -> float:
    """log10 of the dominant root of x^2 - 3kx + (k-1)."""
    return math.log10((3 * k + math.sqrt(9 * k * k - 4 * k + 4)) / 2)


def term(seq: str, k: int, n: int, engine: str) -> Request:
    argv = ("term", "--seq", seq, "--k", str(k), "--n", str(n), "--engine", engine)
    return Request("term", argv, k, k, n, seq=seq, engine=engine)


def table(k_lo: int, k_hi: int, n_top: int) -> Request:
    argv = ("table", "--k", f"{k_lo}..{k_hi}", "--n", f"0..{n_top}", "--format", "csv")
    return Request("table", argv, k_lo, k_hi, n_top)


def series(seq: str, k: int, n_top: int) -> Request:
    argv = ("series", "--seq", seq, "--k", str(k), "--N", str(n_top), "--format", "csv")
    return Request("series", argv, k, k, n_top, seq=seq)


def verify(names: tuple[str, ...], k_lo: int, k_hi: int, max_index: int,
           threads: str | None = None) -> Request:
    argv = ["verify"]
    if names != tuple(CHECKS_PER_K):
        argv += ["--identity", ",".join(names)]
    argv += ["--k", f"{k_lo}..{k_hi}", "--max-index", str(max_index), "--format", "json"]
    if threads is not None:
        argv += ["--threads", threads]
    return Request("verify", tuple(argv), k_lo, k_hi, max_index, identities=names)


def _in_stratum(rng: random.Random, lo: int, hi: int, stratum: int, strata: int) -> int:
    """A uniform draw from stratum `stratum` of `strata` equal parts of [lo, hi)."""
    return lo + int((stratum + rng.random()) * (hi - lo) / strata)


# term-huge: (k, engine, stratum of n).  Each engine gets one k from every
# third of 1..12, and its four n strata run from low to high.
TERM_DESIGN = (
    (1, "doubling", 6), (2, "matrix", 1), (3, "binet", 10),
    (4, "binet", 3), (5, "doubling", 11), (6, "matrix", 5),
    (7, "matrix", 8), (8, "binet", 0), (9, "doubling", 4),
    (10, "doubling", 2), (11, "binet", 7), (12, "matrix", 9),
)


def term_huge_block(rng: random.Random) -> list[Request]:
    block = [
        term(rng.choice("BC"), k, _in_stratum(rng, 200_000, 300_000, stratum, 12), engine)
        for k, engine, stratum in TERM_DESIGN
    ]
    rng.shuffle(block)
    return block


# table-csv: (command, two arguments, stratum of N among 9 in [1000, 2000]).
# Three tables cover k = 1..12 and six series spread over k; every stratum
# of N is used once.  The strata keep the middle request by cost (series B,
# k = 6) well apart from its neighbours, so the median latency does not
# jump between two kinds of request from one seed to the next.
TABLE_CSV_DESIGN = (
    ("table", 1, 4, 8), ("table", 5, 8, 4), ("table", 9, 12, 3),
    ("series", "B", 1, 5), ("series", "C", 3, 0), ("series", "B", 6, 6),
    ("series", "C", 8, 2), ("series", "B", 11, 7), ("series", "C", 12, 1),
)


def table_csv_block(rng: random.Random) -> list[Request]:
    block = [
        (table if kind == "table" else series)(a, b, _in_stratum(rng, 1000, 2001, stratum, 9))
        for kind, a, b, stratum in TABLE_CSV_DESIGN
    ]
    rng.shuffle(block)
    return block


def verify_burst_plan(rng: random.Random, rounds: int = 8) -> list[list[Request]]:
    """`rounds` rounds of one request per catalog name.

    Across the rounds each name visits every stratum of max index in 10..30
    and every anchor k in {1, 4, 7, 10}; each k range is three wide and
    contains its anchor, so k % 3 == 1 always occurs and gcd reports list
    expected failures.

    Requests run with --threads 1.  With the default pool, a request of a
    few milliseconds spends much of its time waiting for the host to wake
    the pool's threads: on a shared 2-core host its median latency rose
    from about 3.4 ms to 4.2-5.2 ms in busy stretches, while the same
    requests on one thread stayed within 3.0-3.4 ms.  verify-box keeps
    the default pool.
    """
    names = list(CHECKS_PER_K)
    m_offset = {name: rng.randrange(rounds) for name in names}
    k_offset = {name: rng.randrange(4) for name in names}
    plan = []
    for r in range(rounds):
        block = []
        for name in names:
            max_index = _in_stratum(rng, 10, 31, (r + m_offset[name]) % rounds, rounds)
            anchor = 1 + 3 * ((r + k_offset[name]) % 4)
            k_lo = max(1, anchor - rng.randrange(3))
            block.append(verify((name,), k_lo, k_lo + 2, max_index, threads="1"))
        rng.shuffle(block)
        plan.append(block)
    return plan


def plan(workload: str, seed: int) -> list[list[Request]]:
    rng = random.Random(seed)
    if workload == "term-huge":
        return [term_huge_block(rng) for _ in range(2)]
    if workload == "table-csv":
        return [table_csv_block(rng) for _ in range(2)]
    if workload == "verify-box":
        return [[verify(tuple(CHECKS_PER_K), 1, 12, 60)]]
    if workload == "verify-burst":
        # one block holds every round, so each window has the whole design
        return [[r for rnd in verify_burst_plan(rng) for r in rnd]]
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str) -> list[Request]:
    """Small requests of the workload's kinds, served and checked before timing."""
    if workload == "term-huge":
        return [term(seq, 5, 3000, engine)
                for seq, engine in zip("BCB", ("doubling", "matrix", "binet"))]
    if workload == "table-csv":
        return [table(1, 3, 60), series("B", 4, 60), series("C", 9, 60)]
    if workload in ("verify-box", "verify-burst"):
        return [verify(tuple(CHECKS_PER_K), 1, 3, 8)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("term-huge", "table-csv", "verify-box", "verify-burst")

# Seconds one block takes untraced on the reference box (2-core x86-64,
# Python 3.11).  They only size the fixed request list of a traced run.
NOMINAL_BLOCK_S = {"term-huge": 28.0, "table-csv": 2.5, "verify-box": 2.7, "verify-burst": 0.8}
