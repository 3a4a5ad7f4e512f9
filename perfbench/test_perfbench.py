"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import io
import json
import random
import re
import sys
import time

import pytest

import run
import workloads

cli = run.load_balseq()

from balseq.ring import SequenceParams  # noqa: E402  (needs load_balseq first)
from balseq.verify import CATALOG, VerifyRunConfig, run_verify  # noqa: E402
from exactness import P, CheckFailed, check_value, residue  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY_BLOCK = [
    workloads.term("B", 3, 300, "doubling"),
    workloads.term("C", 7, 250, "matrix"),
    workloads.term("C", 1, 0, "binet"),
    workloads.table(1, 3, 40),
    workloads.series("B", 2, 30),
    workloads.series("C", 11, 35),
    workloads.verify(("vajda-1", "strong-gcd", "coprime-norm-c"), 3, 5, 6),
]


def _metric_units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_end_to_end_metrics_have_their_names_and_units(tmp_path, capsys):
    result = run.run_end_to_end(cli, "table-csv", [TINY_BLOCK], 0.0, tmp_path)
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _metric_units("end_to_end") == run.END_TO_END_UNITS
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(TINY_BLOCK)
    printed = capsys.readouterr().out
    for name, unit in units.items():
        assert re.search(rf"^{re.escape(name)} +\S+ {re.escape(unit)}$", printed, re.M)
    assert re.search(r"^failed_frac +0 ", printed, re.M)


def test_per_layer_metrics_have_their_names_and_units(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RUN_DIR", tmp_path)
    result = run.run_traced(cli, "verify-box", [TINY_BLOCK], 0.0, tmp_path)
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _metric_units("per_layer")
    assert result["correct"] and result["attempted"] == 2 * len(TINY_BLOCK)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["verify.checks.vajda-1"] == 3 * 7**3
    # the exactness checks call the same functions untraced, so only the
    # two series requests expand, and engines are entered by the 3 terms,
    # the table's b_table/c_table per k, and one b_table/c_table build per
    # sweep and k in verify
    assert values["genfunc.coeffs"] == 31 + 36
    assert values["engines.calls"] == 3 + 3 * 2 + 3 * 3 * 2
    assert (tmp_path / "spans-verify-box.csv").exists()


def _corrupting(real_main, kinds):
    """A cli.main that changes one digit of the output of the given commands."""

    def main(argv):
        buffer, saved = io.StringIO(), sys.stdout
        sys.stdout = buffer
        try:
            code = real_main(argv)
        finally:
            sys.stdout = saved
        text = buffer.getvalue()
        if argv[0] in kinds:
            if argv[0] == "verify":
                text = re.sub(r'"total_checked": (\d+)',
                              lambda m: f'"total_checked": {int(m[1]) + 1}', text)
            else:
                i = max(i for i, ch in enumerate(text) if ch.isdigit())
                text = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
        sys.stdout.write(text)
        return code

    return main


@pytest.mark.parametrize("kind", ["term", "table", "series", "verify"])
def test_corrupted_output_counts_in_failed_frac(tmp_path, monkeypatch, capsys, kind):
    monkeypatch.setattr(cli, "main", _corrupting(cli.main, {kind}))
    result = run.run_end_to_end(cli, "term-huge", [TINY_BLOCK], 0.0, tmp_path)
    corrupted = sum(r.kind == kind for r in TINY_BLOCK)
    assert result["failed"] == corrupted and not result["correct"]
    assert f"failed_frac{'':<25} {corrupted / len(TINY_BLOCK):.6g} " in capsys.readouterr().out


def test_warmup_is_checked_and_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "main", _corrupting(cli.main, {"series"}))
    warm = [workloads.series("B", 2, 30)]
    result = run.run_end_to_end(cli, "table-csv", [TINY_BLOCK[:1]], 0.0, tmp_path, warmup=warm)
    assert result["attempted"] == 2 and result["failed"] == 1


def test_runs_end_within_half_a_block_of_their_length(tmp_path):
    block = [workloads.verify(("cassini-b",), 1, 1, 5)]
    start = time.perf_counter()
    tally = run.execute(cli, [block], tmp_path, seconds=0.05)
    elapsed = time.perf_counter() - start
    assert tally.blocks == len(tally.windows) > 1
    assert [w[1] for w in tally.windows] == [5] * tally.blocks
    assert tally.work_rates("checks") == [w[1] / w[2] for w in tally.windows]
    assert elapsed < 0.05 + 0.25  # blocks here take about a millisecond


def test_changed_bytes_on_a_repetition_fail(tmp_path, monkeypatch):
    real_main, calls = cli.main, []

    def main(argv):
        """The same report, compacted on every call after the first."""
        calls.append(argv)
        if len(calls) == 1:
            return real_main(argv)
        buffer, saved = io.StringIO(), sys.stdout
        sys.stdout = buffer
        try:
            code = real_main(argv)
        finally:
            sys.stdout = saved
        sys.stdout.write(json.dumps(json.loads(buffer.getvalue())) + "\n")
        return code

    monkeypatch.setattr(cli, "main", main)
    request = workloads.verify(("cassini-b",), 1, 2, 5)
    tally = run.execute(cli, [[request, request]], tmp_path)
    assert len(tally.latencies) == 2
    assert len(tally.failures) == 1 and "first repetition" in tally.failures[0]


def test_residue_and_value_check():
    rng = random.Random(7)
    for bits in (1, 60, 700, 5000):
        value = 1 + rng.getrandbits(bits)
        assert residue(str(value)) == value % P
        assert check_value(str(value), value, "v") == len(str(value))
        assert check_value(f"-{value}", -value, "v") == len(str(value))
        with pytest.raises(CheckFailed):
            check_value(str(value + 1), value, "v")
        with pytest.raises(CheckFailed):
            check_value("0" + str(value), value, "v")
    with pytest.raises(CheckFailed):
        check_value("²", 2, "v")


def test_closed_form_check_counts_match_the_sweeps():
    assert list(workloads.CHECKS_PER_K) == list(CATALOG)
    for max_index in (1, 7, 12):
        report = run_verify(VerifyRunConfig(k_lo=2, k_hi=2, max_index=max_index))
        for name, counts in report.summary["per_identity"].items():
            assert counts["checked"] == workloads.CHECKS_PER_K[name](max_index), name


def test_plans_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.plan(workload, 5) == workloads.plan(workload, 5)
    assert workloads.plan("term-huge", 5) != workloads.plan("term-huge", 6)
    block = workloads.plan("term-huge", 5)[0]
    assert sorted(r.k_lo for r in block) == list(range(1, 13))
    assert all(200_000 <= r.n < 300_000 for r in block)
    rounds = workloads.verify_burst_plan(random.Random(5))
    assert workloads.plan("verify-burst", 5) == [[r for rnd in rounds for r in rnd]]
    for block in rounds:
        assert sorted(r.identities[0] for r in block) == sorted(CATALOG)
        assert all(any(k % 3 == 1 for k in range(r.k_lo, r.k_hi + 1)) for r in block)
        assert all(10 <= r.n <= 30 for r in block)
        assert all(r.argv[-2:] == ("--threads", "1") for r in block)
    assert "--threads" not in workloads.plan("verify-box", 5)[0][0].argv


def test_approx_digits_tracks_the_real_count():
    from balseq.engines import term_b

    request = workloads.term("B", 12, 2000, "doubling")  # 3.1k digits: str() works
    exact = len(str(term_b(SequenceParams(12), 2000)))
    assert abs(request.approx_digits() - exact) < 5
