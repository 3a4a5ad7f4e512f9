"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Stated runtime budgets are asserted, not just observed.
"""

import json
import math
import time

from balseq.cli import main
from balseq.engines import Engine, b_table, c_table, term_b, term_b_negative, term_c
from balseq.genfunc import b_series, c_series
from balseq.ring import SequenceParams, alpha_power_components
from balseq.verify import CATALOG, VerifyRunConfig, report_to_json, run_verify

from conftest import counting_type, oracle_b, oracle_b_negative, oracle_c


def _passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


# The reference table as printed, n = 0..5 per column.  Six cells contradict
# the recurrence: the whole k=1 B column for n >= 2 (printed as 3^n) and the
# k=2 B values at n = 4, 5 (shifted one row early).
PRINTED_B = {
    1: [0, 1, 9, 27, 81, 243],
    2: [0, 1, 6, 35, 1189, 6930],
    3: [0, 1, 9, 79, 693, 6079],
    4: [0, 1, 12, 141, 1656, 19449],
}
PRINTED_C = {
    1: [1, 3, 9, 27, 81, 243],
    2: [1, 3, 17, 99, 577, 3363],
    3: [1, 3, 25, 219, 1921, 16851],
    4: [1, 3, 33, 387, 4545, 53379],
}
ERRATA_CELLS = {("B", 1, 2), ("B", 1, 3), ("B", 1, 4), ("B", 1, 5),
                ("B", 2, 4), ("B", 2, 5)}


def test_criterion_01_table_reproduction(capsys):
    start = time.perf_counter()
    code = main(["table", "--k", "1..4", "--n", "0..5", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    cells = {}
    for line in out.splitlines()[1:]:
        k, n, b, c = line.split(",")
        cells[("B", int(k), int(n))] = int(b)
        cells[("C", int(k), int(n))] = int(c)
    assert len(cells) == 48
    for (seq, k, n), value in cells.items():
        printed = (PRINTED_B if seq == "B" else PRINTED_C)[k][n]
        oracle = (oracle_b if seq == "B" else oracle_c)(k, 5)[n]
        assert value == oracle, (seq, k, n)
        if (seq, k, n) in ERRATA_CELLS:
            assert value != printed, f"expected erratum at {(seq, k, n)}"
        else:
            assert value == printed, (seq, k, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    _passed(1, "table reproduction with six documented errata")


def test_criterion_02_engine_agreement():
    start = time.perf_counter()
    log_engines = (Engine.MATRIX, Engine.BINET, Engine.FAST_DOUBLING)
    for k in range(1, 9):
        params = SequenceParams(k)
        b = b_table(params, 2000)   # the iterative engine, in bulk
        c = c_table(params, 2000)
        for n in range(2001):
            for engine in log_engines:
                assert term_b(params, n, engine) == b[n], (k, n, engine)
                assert term_c(params, n, engine) == c[n], (k, n, engine)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"{elapsed:.2f}s"
    _passed(2, "four-engine agreement, k in [1,8], n in [0,2000]")


def test_criterion_03_identity_sweep(capsys):
    start = time.perf_counter()
    code = main(["verify", "--k", "1..12", "--max-index", "40",
                 "--identity", "all", "--format", "json"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["all_held"]
    assert data["summary"]["total_failed"] == 0
    assert set(data["config"]["identities"]) == set(CATALOG)
    identity_names = {
        "catalan-b", "catalan-c", "cassini-b", "cassini-c", "docagne-b",
        "docagne-c", "vajda-1", "vajda-2", "sum-b", "sum-c", "addition",
        "doubling", "power-sum", "c-from-b", "matrix-b", "matrix-c",
        "ar-commute",
    }
    for name in identity_names:
        counts = data["summary"]["per_identity"][name]
        assert counts["failed"] == 0 and counts["checked"] > 0
        assert counts["hypothesis_not_met"] == 0
    assert elapsed < 120.0, f"{elapsed:.2f}s"
    _passed(3, "exhaustive identity sweep exits 0 at max index 40")


def test_criterion_04_divisibility_sweep():
    start = time.perf_counter()
    residue_theorems = [
        "coprime-norm-b", "coprime-norm-c", "consecutive-gcd-b",
        "consecutive-gcd-c", "b-c-coprime", "strong-gcd",
    ]
    for k in range(1, 13):
        if k % 3 == 1:
            continue
        for name in residue_theorems + ["index-divisibility"]:
            outcome = CATALOG[name](SequenceParams(k), 40)
            assert outcome.failed == 0, (k, name)
            assert outcome.hypothesis_not_met == 0
    for k in (4, 7, 10):
        for name in residue_theorems:
            outcome = CATALOG[name](SequenceParams(k), 10)
            assert len(outcome.expected_failures) >= 1, (k, name)
            assert outcome.failed == 0
    spot = CATALOG["consecutive-gcd-b"](SequenceParams(4), 10)
    assert any(
        r.inputs["n"] == 2 and r.lhs == 3 for r in spot.expected_failures
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"{elapsed:.2f}s"
    _passed(4, "divisibility theorems hold; residue condition shown necessary")


def test_criterion_05_strong_gcd_spot_check():
    b = oracle_b(3, 6)
    assert math.gcd(b[4], b[6]) == 9 == b[2]
    report = CATALOG["strong-gcd"].at(SequenceParams(3), m=4, n=6)
    assert report.lhs == 9 == report.rhs and report.holds
    _passed(5, "gcd(B_(3,4), B_(3,6)) = 9 = B_(3,2)")


def test_criterion_06_generating_function_oracle():
    start = time.perf_counter()
    for k in range(1, 11):
        params = SequenceParams(k)
        assert list(b_series(params, 200).expansion) == oracle_b(k, 200)
        assert list(c_series(params, 200).expansion) == oracle_c(k, 200)
    for k in range(2, 11):
        printed = c_series(SequenceParams(k), 200, variant="printed").expansion
        mismatches = [n for n, (p, c) in enumerate(zip(printed, oracle_c(k, 200))) if p != c]
        assert mismatches[0] == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"{elapsed:.2f}s"
    _passed(6, "series oracle matches engines; printed C-numerator fails at n=1")


def test_criterion_07_negative_index_contract():
    for k in range(2, 7):
        params = SequenceParams(k)
        oracle = oracle_b_negative(k, 20)
        for n in range(1, 21):
            assert term_b_negative(params, n) == oracle[-n], (k, n)
    for n in range(1, 21):
        value = term_b_negative(SequenceParams(2), n)
        assert value.denominator == 1
        assert value == -oracle_b(2, n)[n]
    _passed(7, "negative indices satisfy the backward recurrence exactly")


def test_criterion_08_performance():
    params = SequenceParams(5)
    start = time.perf_counter()
    via_doubling = term_b(params, 100_000, Engine.FAST_DOUBLING)
    doubling_time = time.perf_counter() - start
    start = time.perf_counter()
    via_matrix = term_b(params, 100_000, Engine.MATRIX)
    matrix_time = time.perf_counter() - start
    assert via_doubling == via_matrix
    assert via_doubling.bit_length() > 300_000     # ~1.2e5 decimal digits
    assert doubling_time < 5.0, f"{doubling_time:.2f}s"
    assert matrix_time < 5.0, f"{matrix_time:.2f}s"
    # alpha^n takes 3 products per squaring and none per step by alpha
    for n in (1, 2, 100, 99_999, 100_000, 1_000_000):
        counted, products = counting_type()
        alpha_power_components(params, n, one=counted(1))
        assert len(products) == 3 * (n.bit_length() - 1) <= 3 * math.ceil(math.log2(n + 1)), n
    _passed(8, "B_(5,100000) under 5 s per engine; alpha powering stays logarithmic")


def test_criterion_09_classical_square_property():
    for n, b in enumerate(oracle_b(2, 30)):
        value = 8 * b * b + 1
        root = math.isqrt(value)
        assert root * root == value, n
        assert term_b(SequenceParams(2), n) == b
    _passed(9, "8*B_(2,n)^2 + 1 is a perfect square for n in [0,30]")


def test_criterion_10_verify_determinism():
    config = VerifyRunConfig(1, 12, 10)
    texts = {report_to_json(run_verify(config)) for _ in range(3)}
    assert len(texts) == 1
    _passed(10, "verify JSON is byte-identical across repeated runs")
