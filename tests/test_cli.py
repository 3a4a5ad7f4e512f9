import argparse
import contextlib
import csv
import decimal
import dis
import errno
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest

import balseq.cli as cli
from balseq import __version__, engines, errata, verify
from balseq.cli import main
from balseq.decimal_io import decimal_str
from balseq.engines import b_table, c_table, term_b, term_c
from balseq.genfunc import b_series
from balseq.ring import SequenceParams
from balseq.verify import CATALOG

from conftest import no_child_left, open_fds, oracle_b, oracle_c

CONTRACT = Path(__file__).resolve().parent.parent / "tools" / "cli_contract.txt"


@pytest.fixture(scope="module")
def errata_document():
    """The errata document, rendered once for this module: cli writes this
    text wherever --emit-errata asks."""
    text = errata.render_document()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(errata, "render_document", lambda: text)
        yield text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def committed_stdout_sha256(*argv):
    """The sha256 of argv's stdout that tools/cli_contract.txt commits."""
    request = shlex.join(argv) + "\t"
    for line in CONTRACT.read_text(encoding="utf-8").splitlines()[1:]:
        if line.startswith(request):
            return line.split("\t")[1]
    raise LookupError(f"{CONTRACT.name} has no line for {shlex.join(argv)!r}")


class HashSink:
    """A stdout stand-in that keeps only the sha256 of what is written."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text):
        self.hash.update(text.encode())
        return len(text)


def traced_into_sink(argv):
    """main(argv) with stdout hashed: (exit code, sink, tracemalloc peak)."""
    sink = HashSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, sink, peak


class TestTerm:
    def test_doubling_engine(self, capsys):
        code, out, _ = run_cli(capsys, "term", "--seq", "B", "--k", "2", "--n", "5",
                               "--engine", "doubling")
        assert code == 0 and out == "1189\n"

    def test_c_default_engine(self, capsys):
        code, out, _ = run_cli(capsys, "term", "--seq", "C", "--k", "4", "--n", "5")
        assert code == 0 and out == "53379\n"

    def test_k_zero_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "term", "--seq", "B", "--k", "0", "--n", "3")
        assert code == 2 and out == ""
        assert "k must be >= 1" in err

    def test_negative_n_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "term", "--seq", "B", "--k", "2", "--n", "-1")
        assert code == 2 and "term_b_negative" in err

    def test_iterative_over_cap_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "term", "--seq", "B", "--k", "2", "--n", "60",
                               "--engine", "iterative", "--iterative-cap", "50")
        assert code == 2 and "cap" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "term", "--seq", "B", "--k", "3", "--n", "4",
                               "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "k": 3, "n": 4, "seq": "B", "engine": "doubling", "value": "693",
        }

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "term", "--seq", "C", "--k", "3", "--n", "2",
                               "--format", "csv")
        assert code == 0
        assert out == "k,n,seq,engine,value\n3,2,C,doubling,25\n"


class TestTable:
    def test_k2_values(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--k", "2..2", "--n", "0..3",
                               "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,n,B,C"
        assert lines[1:] == ["2,0,0,1", "2,1,1,3", "2,2,6,17", "2,3,35,99"]

    def test_k1_column_is_recurrence_not_printed_table(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--k", "1..1", "--n", "0..2",
                               "--seq", "B", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1:] == ["1,0,0", "1,1,1", "1,2,3"]

    def test_empty_range_ok(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--k", "2..2", "--n", "5..3",
                               "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["k,n,B,C"]
        code, out, _ = run_cli(capsys, "table", "--k", "1..3", "--n", "5..4",
                               "--format", "json")
        assert code == 0 and out == json.dumps([]) + "\n"

    def test_rows_sorted_by_k_then_n(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--k", "2..3", "--n", "1..2",
                               "--format", "csv")
        keys = [tuple(map(int, line.split(",")[:2])) for line in out.splitlines()[1:]]
        assert code == 0 and keys == sorted(keys) == [(2, 1), (2, 2), (3, 1), (3, 2)]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--k", "4..4", "--n", "5..5",
                               "--format", "json")
        assert code == 0
        assert json.loads(out) == [{"k": 4, "n": 5, "b": "19449", "c": "53379"}]

    def test_plain_format(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--k", "3..3", "--n", "0..1")
        assert code == 0
        assert out.splitlines() == ["k n B C", "3 0 0 1", "3 1 1 3"]

    def test_bad_range_usage_error(self, capsys):
        # argparse rejects the flag value itself; main returns its exit code
        assert main(["table", "--k", "2..x", "--n", "0..3"]) == 2

    def test_bad_range_reason_is_printed(self, capsys):
        assert main(["table", "--k", "1..x", "--n", "0..3"]) == 2
        assert "invalid range '1..x', expected 'lo..hi' or an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @pytest.mark.parametrize("argv,reason", [
        (("--k", "0..3", "--n", "0..2"), "k must be >= 1"),
        # with the "=", argparse reads -1..2 as the value, not as an option
        (("--k", "1..2", "--n=-1..2"), "n must be >= 0"),
    ])
    def test_range_below_its_floor_writes_nothing(self, capsys, fmt, argv, reason):
        # checked before the header is written
        assert run_cli(capsys, "table", *argv, "--format", fmt) == (2, "", f"error: {reason}\n")

    def test_n_window_holds_only_its_terms(self, capsys):
        # B and C at k 5, n 0..20000 take about 97 MB; the window holds one n
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "table", "--k", "5", "--n", "20000..20000",
                                   "--format", "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 8 << 20
        params = SequenceParams(5)
        assert out == (f"k,n,B,C\n5,20000,{decimal_str(term_b(params, 20000))},"
                       f"{decimal_str(term_c(params, 20000))}\n")

    def test_json_is_written_a_row_at_a_time(self):
        # the whole document is 1.4 MiB of JSON, and building it first peaked
        # at 7.7 MiB; written a row at a time into a sink that keeps only a
        # hash, the peak is one k's terms and one row's text
        code, sink, peak = traced_into_sink(
            ["table", "--k", "1..12", "--n", "0..300", "--format", "json"])
        assert code == 0 and peak < 1 << 20
        assert sink.hash.hexdigest() == committed_stdout_sha256(
            "table", "--k", "1..12", "--n", "0..300", "--format", "json")

    def test_lowered_digit_limit_prints_exact_values(self):
        proc = subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=640", "-m", "balseq.cli", "table",
             "--k", "12", "--n", "4990..5000", "--format", "csv"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        b, c = oracle_b(12, 5000), oracle_c(12, 5000)
        assert proc.stdout.splitlines() == ["k,n,B,C"] + [
            f"12,{n},{decimal_str(b[n])},{decimal_str(c[n])}" for n in range(4990, 5001)]

    @pytest.mark.parametrize("seq, names", [("BC", ["b_table", "c_table"]),
                                            ("C", ["c_table"])])
    def test_window_computes_one_doubling_pair_per_k(self, capsys, monkeypatch, seq, names):
        # both windows of a k are seeded from one pair, and each table
        # function is still entered once per k
        pairs, entered = [], []
        real_pair = engines._doubling_pair

        def spy_pair(k, n, one=1):
            pairs.append((k, n))
            return real_pair(k, n, one)

        def spy_table(name):
            real = getattr(cli, name)

            def table(*args, **kwargs):
                entered.append(name)
                return real(*args, **kwargs)

            return table

        monkeypatch.setattr(engines, "_doubling_pair", spy_pair)
        for name in ("b_table", "c_table"):
            monkeypatch.setattr(cli, name, spy_table(name))
        code, out, _ = run_cli(capsys, "table", "--k", "1..3", "--n", "1000..1002",
                               "--seq", seq, "--format", "csv")
        assert code == 0
        assert pairs == [(1, 1000), (2, 1000), (3, 1000)]
        assert entered == names * 3
        oracles = {"B": oracle_b, "C": oracle_c}
        columns = [oracles[letter] for letter in seq]
        assert out.splitlines() == [",".join(["k", "n", *seq])] + [
            ",".join([str(k), str(n), *(decimal_str(oracle(k, 1002)[n]) for oracle in columns)])
            for k in (1, 2, 3) for n in (1000, 1001, 1002)]


class TestSeries:
    def test_b_series_plain(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--seq", "B", "--k", "3", "--N", "4")
        assert code == 0 and out == "0 1 9 79 693\n"

    def test_single_coefficient(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--seq", "B", "--k", "2", "--N", "0")
        assert code == 0 and out == "0\n"

    def test_printed_variant_warns_and_diverges(self, capsys):
        code, out, err = run_cli(capsys, "series", "--seq", "C", "--k", "2", "--N", "3",
                                 "--variant", "printed")
        assert code == 0
        assert out.split() == ["1", "15", "89", "519"]   # long-division oracle
        assert "warning" in err and "n=1" in err

    def test_printed_variant_rejected_for_b(self, capsys):
        # the variant is a C numerator; B has no printed form to select
        code, out, err = run_cli(capsys, "series", "--seq", "B", "--k", "2", "--N", "3",
                                 "--variant", "printed", "--format", "json")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--variant" in err

    def test_negative_n_usage_error(self, capsys):
        # --N is the highest index, so the error names it rather than the
        # coefficient count the series oracle is asked for
        code, out, err = run_cli(capsys, "series", "--seq", "B", "--k", "2", "--N", "-1")
        assert code == 2 and out == ""
        assert err == "error: --N must be >= 0, got -1\n"

    def test_b_accepts_the_default_variant(self, capsys):
        outputs = set()
        for extra in ([], ["--variant", "corrected"]):
            code, out, _ = run_cli(capsys, "series", "--seq", "B", "--k", "2", "--N", "3",
                                   "--format", "json", *extra)
            assert code == 0
            outputs.add(out)
        assert outputs == {'{"coefficients": ["0", "1", "6", "35"], "k": 2, "seq": "B",'
                           ' "variant": "corrected"}\n'}

    def test_corrected_variant_matches_terms(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--seq", "C", "--k", "5", "--N", "20")
        assert code == 0
        assert [int(x) for x in out.split()] == oracle_c(5, 20)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--seq", "B", "--k", "2", "--N", "2",
                               "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["n,coefficient", "0,0", "1,1", "2,6"]

    @pytest.mark.parametrize("fmt", ["json", "plain"])
    def test_written_a_coefficient_at_a_time(self, fmt):
        # 6.7 MiB of output; building the whole document first peaked at
        # 23.7 MiB (json) and 16.7 MiB (plain), against 3.2 MiB for csv,
        # which holds only the coefficients themselves
        code, sink, peak = traced_into_sink(
            ["series", "--seq", "B", "--k", "12", "--N", "3000", "--format", fmt])
        assert code == 0 and peak < 6 << 20
        texts = [decimal_str(c) for c in b_series(SequenceParams(12), 3000).expansion]
        if fmt == "plain":
            document = " ".join(texts)
        else:
            document = json.dumps({"seq": "B", "k": 12, "variant": "corrected",
                                   "coefficients": texts}, sort_keys=True)
        assert sink.hash.hexdigest() == hashlib.sha256((document + "\n").encode()).hexdigest()

    @staticmethod
    def printed_terms(k, n_max):
        """The printed numerator's coefficients by their own recurrence:
        1 and 3(1+k) + 3k, then the denominator's recurrence."""
        values = [1, 3 + 6 * k]
        while len(values) <= n_max:
            values.append(3 * k * values[-1] + (1 - k) * values[-2])
        return values[: n_max + 1]

    # where the numerator's terms give way to the two-tap recurrence, and
    # k = 1, where the tap k - 1 is 0
    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @pytest.mark.parametrize("variant", ["B", "C", "printed"])
    @pytest.mark.parametrize("k", [1, 2, 12])
    @pytest.mark.parametrize("n_top", [0, 1, 2, 3, 400])
    def test_bytes_from_the_terms(self, capsys, n_top, k, variant, fmt):
        params = SequenceParams(k)
        seq = "B" if variant == "B" else "C"
        named = "printed" if variant == "printed" else "corrected"
        if variant == "B":
            terms = b_table(params, n_top)
        elif variant == "C":
            terms = c_table(params, n_top)
        else:
            terms = self.printed_terms(k, n_top)
        texts = [decimal_str(x) for x in terms]
        code, out, _ = run_cli(capsys, "series", "--seq", seq, "--k", str(k),
                               "--N", str(n_top), "--format", fmt, "--variant", named)
        assert code == 0
        if fmt == "plain":
            assert out == " ".join(texts) + "\n"
        elif fmt == "csv":
            assert out == "n,coefficient\n" + "".join(f"{n},{t}\n" for n, t in enumerate(texts))
        else:
            assert out == json.dumps(
                {"coefficients": texts, "k": k, "seq": seq, "variant": named},
                sort_keys=True) + "\n"


class TestCsvLine:
    @pytest.mark.parametrize("fields", [
        ["k", "n", "B", "C"],
        [12, 4000, "1234567890" * 30, "-98765"],
        ["n", "coefficient"],
        [0, "-1"],
        ["identity", "checked", "held", "failed", "hypothesis_not_met"],
        ["index-divisibility", 1140, 1140, 0, 0],
        ["consecutive-gcd-b", 40, 27, 0, 13],
        ["k", "n", "seq", "engine", "value"],
        [5, 30000, "C", "iterative", "-0"],
        ["engine", "n", "repetitions", "seconds"],
        ["binet", 1000, 3, "0.000123"],
        ["iterative", 200000, 3, "skipped"],
    ])
    def test_matches_csv_writer(self, fields):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow(fields)
        assert cli._csv_line(fields) == buffer.getvalue()


class TestVerify:
    # sha256 of verify's stdout on the failure path, which no argv reaches:
    # B_7 planted wrong, every failing report listed, exit 1
    PLANTED_SHA256 = {
        "json": "b41fcf049c204597583d35ce55e4817a0b4f1875444740cad086ba4d10496854",
        "csv": "bf40eaa8b38a1de318fbe04f523c68de60850c58d1f8c00f018f26c7efd5a6f7",
        "plain": "d5e92377115807ea86862ec9eddd4e48462f91e0d351bb0debaff49ec0dcbc5a",
    }

    @pytest.mark.parametrize("fmt", sorted(PLANTED_SHA256))
    def test_planted_report_bytes_pinned(self, capsys, planted_b7, fmt):
        code, out, _ = run_cli(capsys, "verify", "--k", "1..6", "--max-index", "14",
                               "--max-listed", "100000", "--format", fmt)
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == self.PLANTED_SHA256[fmt]

    def test_json_report_stays_off_the_python_encoder(self, capsys, monkeypatch):
        # json.dumps with an indent always runs json's pure-Python encoder,
        # which took most of a small request's time once the gcd rows list
        # their expected failures (k = 4 here)
        argv = ("verify", "--k", "3..5", "--max-index", "20", "--threads", "1",
                "--identity", "coprime-norm,consecutive-gcd", "--format", "json")
        code, expected, _ = run_cli(capsys, *argv)
        assert code == 0
        assert expected.count('"hypothesis_met": false') == 78

        def refuse(*args, **kwargs):
            raise AssertionError("the verify report went through json's encoder")

        monkeypatch.setattr(json, "dumps", refuse)
        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        with pytest.raises(AssertionError, match="json's encoder"):
            json.JSONEncoder(indent=2).encode({})  # the patch bites
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out == expected

    def test_small_sweep_all_held(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--k", "2..3", "--max-index", "10")
        assert code == 0
        assert "verify: all held" in out

    def test_json_output_and_counts(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--k", "2..2", "--max-index", "8",
                               "--identity", "cassini-b", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["summary"]["per_identity"]["cassini-b"] == {
            "checked": 8, "held": 8, "failed": 0, "hypothesis_not_met": 0,
        }
        assert data["tool_version"]
        assert data["config"]["identities"] == ["cassini-b"]

    def test_consecutive_gcd_family_on_k4(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--k", "4..4", "--max-index", "10",
                               "--identity", "consecutive-gcd", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["summary"]["total_hypothesis_not_met"] > 0
        counterexamples = [
            entry for entry in data["results"]
            if entry["theorem_name"] == "consecutive-gcd-b"
            and entry["inputs"] == {"k": 4, "n": 2}
        ]
        assert counterexamples and counterexamples[0]["computed_gcd"] == "3"

    def test_unknown_identity_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--identity", "no-such-name")
        assert code == 2 and "no-such-name" in err

    def test_csv_counts(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--k", "2..2", "--max-index", "5",
                               "--identity", "doubling,sum-b", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "identity,checked,held,failed,hypothesis_not_met"
        assert "doubling,5,5,0,0" in out.splitlines()

    def test_threads_do_not_change_bytes(self, capsys, forks, monkeypatch):
        # three CPUs, so --threads 2 and auto fork 1 and 2 workers; k 1..6
        # lists gcd expected failures at k = 1 and 4
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        for fmt in ("plain", "csv", "json"):
            outputs = {}
            for threads, workers in (("1", 1), ("2", 2), ("auto", 3)):
                before = len(forks)
                outputs[threads] = run_cli(capsys, "verify", "--k", "1..6", "--max-index",
                                           "9", "--format", fmt, "--threads", threads)
                assert len(forks) - before == workers - 1 and no_child_left()
            code, out, err = outputs["1"]
            assert code == 0 and err == ""
            assert fmt != "plain" or "[expected failure] consecutive-gcd-b" in out
            assert outputs["2"] == outputs["auto"] == outputs["1"], fmt

    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_bad_thread_count_reason_is_printed(self, capsys, value):
        assert main(["verify", "--k", "2..2", "--max-index", "3", "--threads", value]) == 2
        err = capsys.readouterr().err
        assert f"thread count must be an integer >= 1 or 'auto', got '{value}'" in err

    def test_emit_errata(self, capsys, tmp_path, errata_document):
        target = tmp_path / "errata.md"
        code, _, err = run_cli(capsys, "verify", "--k", "2..2", "--max-index", "4",
                               "--identity", "cassini-b", "--emit-errata", str(target))
        assert code == 0
        text = target.read_text()
        assert text == errata_document
        assert "c-series-numerator" in text and "refuted" in text
        assert str(target) in err

    def test_quiet_plain_prints_only_the_verdict(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--k", "4..4", "--max-index", "6",
                                 "--identity", "cassini-b,consecutive-gcd", "--quiet")
        assert code == 0 and err == ""
        assert out == "verify: all held (checked=18, failed=0, hypothesis_not_met=12)\n"

    def test_quiet_emit_errata_writes_nothing_to_stderr(self, capsys, tmp_path,
                                                        errata_document):
        target = tmp_path / "errata.md"
        code, _, err = run_cli(capsys, "verify", "--k", "2..2", "--max-index", "4",
                               "--identity", "cassini-b", "--emit-errata", str(target),
                               "--quiet")
        assert code == 0 and err == ""
        assert "c-series-numerator" in target.read_text()

    def test_emit_errata_unwritable_path_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "E.md"
        code, out, err = run_cli(capsys, "verify", "--k", "2..2", "--max-index", "4",
                                 "--emit-errata", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err


class TestVerifyWorkers:
    # k 1..6 lists gcd expected failures at k = 1 and 4
    ARGV = ("verify", "--k", "1..6", "--max-index", "9")

    def test_thread_count_capped_at_the_cpus(self, capsys, forks):
        cpus = len(os.sched_getaffinity(0))
        code, _, _ = run_cli(capsys, *self.ARGV, "--threads", "64")
        assert code == 0 and len(forks) <= cpus - 1 and no_child_left()

    def test_workers_from_threads(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5, 6})
        assert [cli.parse_threads(t) for t in ("auto", "1", "3", "64")] == [4, 1, 3, 4]
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert [cli.parse_threads(t) for t in ("auto", "2", "64")] == [3, 2, 3]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli.parse_threads("auto") == 1

    def test_buffered_stdout_written_once(self, tmp_path, forks, monkeypatch):
        # text a file-backed stdout holds unflushed when the children fork
        # must not be flushed again by a child
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        path = tmp_path / "out.txt"
        saved = sys.stdout
        with open(path, "w", encoding="utf-8") as handle:
            sys.stdout = handle
            try:
                handle.write("before the run\n")
                code = main([*self.ARGV, "--quiet", "--threads", "2"])
            finally:
                sys.stdout = saved
        assert code == 0 and forks
        assert path.read_text(encoding="utf-8") == (
            "before the run\n"
            "verify: all held (checked=10362, failed=0, hypothesis_not_met=182)\n")

    def test_failed_fork_exits_2_with_one_line(self, capsys, second_fork_fails, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        fds = open_fds()
        code, out, err = run_cli(capsys, *self.ARGV, "--threads", "3")
        assert code == 2 and out == ""
        assert err == f"error: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n"
        assert len(second_fork_fails) == 1 and no_child_left()
        assert open_fds() == fds

    def test_failing_child_exits_2_with_one_line(self, capsys, forks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent, real = os.getpid(), CATALOG["cassini-b"]

        def sweep(params, max_index):
            if os.getpid() != parent:
                raise ArithmeticError("planted")
            return real(params, max_index)

        monkeypatch.setitem(CATALOG, "cassini-b", sweep)
        code, out, err = run_cli(capsys, *self.ARGV, "--threads", "2")
        assert code == 2 and out == ""
        assert err == "error: a verify worker failed: ArithmeticError: planted\n"
        assert forks and no_child_left()


class TestBench:
    def test_all_engines_agree(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--k", "2", "--n", "10",
                               "--engines", "all", "--reps", "1")
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_two_engines_csv(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--k", "5", "--n", "1000",
                               "--engines", "matrix,doubling", "--reps", "1",
                               "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "engine,n,repetitions,seconds"
        assert len(lines) == 3

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_repeated_n_timed_once_in_first_seen_order(self, capsys, fmt):
        code, out, _ = run_cli(capsys, "bench", "--k", "2", "--n", "5,5,7,5",
                               "--engines", "doubling", "--reps", "1", "--format", fmt)
        assert code == 0
        if fmt == "json":
            listed = [row["n"] for row in json.loads(out)]
        elif fmt == "csv":
            listed = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
        else:
            listed = [int(line.split()[1][2:-1]) for line in out.splitlines()]
        assert listed == [5, 7]

    def test_json_is_one_sorted_dump(self, capsys):
        # the timings vary, so no sha256 pin covers this format: its bytes
        # are one sort_keys dump of the list they parse to, skipped rows too
        code, out, _ = run_cli(capsys, "bench", "--k", "2", "--n", "50,200",
                               "--engines", "iterative,doubling", "--iterative-cap", "100",
                               "--reps", "1", "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
        assert [(row["engine"], row["n"], row["skipped"], row["seconds"] is None)
                for row in json.loads(out)] == [
            ("iterative", 50, False, False), ("doubling", 50, False, False),
            ("iterative", 200, True, True), ("doubling", 200, False, False)]

    def test_large_index_log_engines(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--k", "5", "--n", "100000",
                               "--engines", "matrix,doubling", "--reps", "1")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2 and all("n=100000" in line for line in lines)

    def test_iterative_over_cap_skipped(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--k", "2", "--n", "200",
                               "--engines", "iterative", "--reps", "1",
                               "--iterative-cap", "100")
        assert code == 0
        assert "skipped (cap 100)" in out

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_cap_skips_by_index_not_by_engine(self, capsys, fmt):
        code, out, _ = run_cli(capsys, "bench", "--k", "2", "--n", "50,200",
                               "--engines", "iterative,matrix", "--iterative-cap", "100",
                               "--reps", "1", "--format", fmt)
        assert code == 0
        if fmt == "json":
            rows = [(row["engine"], row["n"], row["skipped"]) for row in json.loads(out)]
        elif fmt == "csv":
            rows = [(name, int(n), seconds == "skipped")
                    for name, n, _, seconds in list(csv.reader(io.StringIO(out)))[1:]]
        else:
            # "iterative  n=200: skipped (cap 100)"
            rows = [(name, int(n[2:-1]), rest == ["skipped", "(cap", "100)"])
                    for name, n, *rest in map(str.split, out.splitlines())]
        assert rows == [("iterative", 50, False), ("matrix", 50, False),
                        ("iterative", 200, True), ("matrix", 200, False)]

    def test_raised_cap_is_honored(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--k", "2", "--n", "1500",
                               "--engines", "iterative", "--reps", "1",
                               "--iterative-cap", "2000")
        assert code == 0
        assert "skipped" not in out and "n=1500" in out

    def test_zero_reps_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--k", "2", "--n", "10", "--reps", "0")
        assert code == 2 and out == ""
        assert err == "error: reps must be >= 1\n"

    @pytest.mark.parametrize("argv", [
        ["term", "--seq", "B", "--k", "2", "--n", "10", "--engine", "iterative"],
        ["bench", "--k", "2", "--n", "10", "--engines", "iterative"],
    ])
    def test_negative_iterative_cap_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--iterative-cap", "-5")
        assert code == 2 and out == ""
        assert err == "error: iterative cap must be >= 0\n"

    @pytest.mark.parametrize("value, reason", [
        ("abc", "invalid index 'abc' in 'abc', expected integers >= 0"),
        ("5,,6", "invalid index '' in '5,,6', expected integers >= 0"),
        ("3,-1", "n must be >= 0, got '-1' in '3,-1'"),
    ])
    def test_bad_index_list_usage_error(self, capsys, value, reason):
        # rejected by argparse while parsing, before any engine runs
        code = main(["bench", "--k", "2", "--n", value, "--reps", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error" in line]
        assert errors == [f"balseq bench: error: argument --n: {reason}"]

    def test_unknown_engine_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--k", "2", "--n", "5",
                               "--engines", "warp")
        assert code == 2 and "warp" in err

    def test_value_mismatch_aborts_with_exit_1(self, capsys, monkeypatch):
        real = cli.term_b

        def skewed(params, n, engine, **kwargs):
            value = real(params, n, engine, **kwargs)
            return value + 1 if engine is cli.ENGINES["matrix"] else value

        monkeypatch.setattr(cli, "term_b", skewed)
        code, _, err = run_cli(capsys, "bench", "--k", "2", "--n", "9",
                               "--engines", "matrix,doubling", "--reps", "1")
        assert code == 1 and "mismatch" in err

    def test_each_engine_runs_reps_times_per_n(self, capsys, monkeypatch):
        calls = []
        real = cli.term_b

        def spy(params, n, engine, **kwargs):
            calls.append((n, engine))
            return real(params, n, engine, **kwargs)

        monkeypatch.setattr(cli, "term_b", spy)
        code, _, _ = run_cli(capsys, "bench", "--k", "2", "--n", "9,10",
                             "--engines", "matrix,doubling", "--reps", "2")
        assert code == 0
        assert len(calls) == 8  # 2 indices x 2 engines x 2 reps

    def test_mismatch_in_a_later_timed_run_aborts_with_exit_1(self, capsys, monkeypatch):
        # the matrix engine goes wrong on its second run only
        real = cli.term_b
        matrix_runs = []

        def flaky(params, n, engine, **kwargs):
            value = real(params, n, engine, **kwargs)
            if engine is cli.ENGINES["matrix"]:
                matrix_runs.append(n)
                return value + (len(matrix_runs) == 2)
            return value

        monkeypatch.setattr(cli, "term_b", flaky)
        code, out, err = run_cli(capsys, "bench", "--k", "2", "--n", "9",
                                 "--engines", "matrix,doubling", "--reps", "3")
        assert code == 1 and out == ""
        assert "mismatch" in err

    def test_times_the_number_type_term_computes_in(self, capsys, monkeypatch):
        # bench hands each engine the `one` that term hands it: int on
        # iterative, exact Decimal on the three log engines
        ones = {"term": {}, "bench": {}}
        real = cli.term_b

        def spy(params, n, engine, **kwargs):
            ones[command][engine.value] = type(kwargs["one"])
            return real(params, n, engine, **kwargs)

        monkeypatch.setattr(cli, "term_b", spy)
        command = "term"
        for engine in cli.ENGINES:
            assert run_cli(capsys, "term", "--seq", "B", "--k", "3", "--n", "40",
                           "--engine", engine)[0] == 0
        command = "bench"
        assert run_cli(capsys, "bench", "--k", "3", "--n", "40", "--reps", "1")[0] == 0
        assert ones["bench"] == ones["term"] == {
            "iterative": int, "matrix": decimal.Decimal, "binet": decimal.Decimal,
            "doubling": decimal.Decimal}

    def test_mismatch_lists_digit_counts_of_big_values(self, capsys, monkeypatch):
        # B_{2,100} has 76 digits, past the 28 of the default decimal
        # context; the count is of its exact text, sign left out
        real = cli.term_b

        def negated(params, n, engine, **kwargs):
            value = real(params, n, engine, **kwargs)
            return -int(value) if engine is cli.ENGINES["matrix"] else value

        monkeypatch.setattr(cli, "term_b", negated)
        code, out, err = run_cli(capsys, "bench", "--k", "2", "--n", "100",
                                 "--engines", "matrix,doubling", "--reps", "1")
        digits = len(str(oracle_b(2, 100)[100]))
        assert code == 1 and out == ""
        assert err.splitlines()[1:] == [f"  matrix: {digits} digits",
                                        f"  doubling: {digits} digits"]

    def test_repeated_engine_timed_once(self, capsys, monkeypatch):
        # "doubling,doubling" once timed the engine twice and printed two rows
        calls = []
        real = cli.term_b

        def spy(params, n, engine, **kwargs):
            calls.append(engine.value)
            return real(params, n, engine, **kwargs)

        monkeypatch.setattr(cli, "term_b", spy)
        code, out, _ = run_cli(capsys, "bench", "--k", "3", "--n", "10",
                               "--engines", "doubling, matrix,doubling", "--reps", "1",
                               "--format", "csv")
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["doubling", "matrix"]
        assert calls == ["doubling", "matrix"]

    @pytest.mark.parametrize("engines, timed", [
        ("all", ["iterative", "matrix", "binet", "doubling"]),
        (" all", ["iterative", "matrix", "binet", "doubling"]),
        ("all,doubling", ["iterative", "matrix", "binet", "doubling"]),
        ("doubling, all", ["doubling", "iterative", "matrix", "binet"]),
        ("binet ,all, binet", ["binet", "iterative", "matrix", "doubling"]),
    ])
    def test_all_is_every_engine_in_enum_order(self, capsys, engines, timed):
        # each name is stripped, as verify reads --identity, and "all" is
        # every engine at its place; all but the first exited 2 with
        # "unknown engine 'all'" while only the whole value was compared
        code, out, err = run_cli(capsys, "bench", "--k", "2", "--n", "5",
                                 "--engines", engines, "--reps", "1", "--format", "csv")
        assert code == 0 and err == ""
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == timed


class TestSharedParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_main_constructs_no_parser_after_the_first_call(self, capsys, monkeypatch):
        run_cli(capsys, "term", "--seq", "B", "--k", "2", "--n", "5")
        built = []
        real_init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        for index in range(10):
            code, _, _ = run_cli(capsys, *(
                ("term", "--seq", "C", "--k", str(index + 1), "--n", "7") if index % 2 else
                ("verify", "--k", "1..2", "--max-index", "3", "--quiet")))
            assert code == 0
        assert built == []

    def test_identity_and_quiet_do_not_carry_over(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--identity", "vajda-1", "--quiet",
                               "--k", "1..2", "--max-index", "3")
        assert code == 0 and out.count("\n") == 1
        code, out, _ = run_cli(capsys, "verify", "--k", "1..2", "--max-index", "3")
        # k = 1 lists its expected gcd failures after the per-identity lines
        lines = out.splitlines()
        per_identity = [line.split(": ")[0] for line in lines if " checked=" in line]
        assert code == 0 and per_identity == sorted(CATALOG)
        assert lines[-1].startswith("verify: all held")

    def test_seq_does_not_carry_over(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--seq", "B", "--k", "2", "--n", "0..2")
        assert code == 0 and out.splitlines()[0] == "k n B"
        code, out, _ = run_cli(capsys, "table", "--k", "2", "--n", "0..2")
        assert code == 0 and out.splitlines()[0] == "k n B C"

    def test_usage_error_leaves_the_next_request_as_it_was(self, capsys):
        argv = ("verify", "--k", "1..3", "--max-index", "5", "--format", "json")
        before = run_cli(capsys, *argv)
        code, out, err = run_cli(capsys, "verify", "--threads", "0")
        assert code == 2 and out == "" and "thread count" in err
        assert run_cli(capsys, *argv) == before and before[0] == 0

    def test_version_prints_after_a_request(self, capsys):
        run_cli(capsys, "term", "--seq", "B", "--k", "2", "--n", "5")
        assert run_cli(capsys, "--version") == (0, f"balseq {__version__}\n", "")

    def test_action_defaults_are_immutable(self):
        # a list, dict or set default would be shared by every parse, and
        # a parse that mutated it would change the next one; hash() raises
        # on them, and on a tuple that holds one
        parsers = [cli.build_parser()]
        for parser in parsers:
            for action in parser._actions:
                hash(action.default)
                hash(action.const)
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
            for value in parser._defaults.values():
                hash(value)
        assert len(parsers) == 1 + 5

    # term, table, series, a usage error, then verify twice with other flags
    MIXED = [
        ("term", "--seq", "C", "--k", "4", "--n", "30", "--format", "json"),
        ("table", "--k", "1..3", "--n", "0..6", "--seq", "B", "--format", "csv"),
        ("series", "--seq", "C", "--k", "5", "--N", "12", "--variant", "printed"),
        ("verify", "--k", "2..3", "--threads", "0"),
        ("verify", "--k", "1..4", "--max-index", "6", "--identity", "catalan,strong-gcd",
         "--format", "json"),
        ("verify", "--k", "3..4", "--max-index", "5", "--quiet"),
    ]

    def test_one_process_prints_what_fresh_interpreters_print(self, capsys, monkeypatch):
        # usage lines wrap at the terminal's width, so both sides get one
        monkeypatch.setenv("COLUMNS", "80")
        for argv in self.MIXED:
            code, out, err = run_cli(capsys, *argv)
            proc = subprocess.run([sys.executable, "-m", "balseq.cli", *argv],
                                  capture_output=True, text=True)
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv


def _args_reads(code: types.CodeType) -> set[str]:
    """The attributes read off a local or free variable `args` in code and
    in the code objects nested in it, from the loaded bytecode."""
    reads, before = set(), None
    for instruction in dis.get_instructions(code):
        if (instruction.opname in ("LOAD_ATTR", "LOAD_METHOD") and before is not None
                and before.opname in ("LOAD_FAST", "LOAD_DEREF") and before.argval == "args"):
            reads.add(instruction.argval)
        before = instruction
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            reads |= _args_reads(const)
    return reads


class TestOptions:
    def test_every_option_is_read_by_its_handler(self):
        # an option its handler never reads is a setting that changes nothing;
        # read from the bytecode, not from cli.py on disk, which may be edited
        (commands,) = [action.choices for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        for command, parser in commands.items():
            reads = _args_reads(parser.get_default("handler").__code__)
            unread = [action.dest for action in parser._actions if action.dest != "help"
                      and action.dest not in reads]
            assert unread == [], command

    @pytest.mark.parametrize("argv", [
        ("term", "--seq", "B", "--k", "2", "--n", "5"),
        ("table", "--k", "2", "--n", "0..3"),
        ("series", "--seq", "B", "--k", "2", "--N", "3"),
        ("bench", "--k", "2", "--n", "5", "--reps", "1"),
    ])
    def test_quiet_is_a_verify_flag_only(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--quiet")
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == "balseq: error: unrecognized arguments: --quiet"


class TestExitCodeContract:
    def test_subprocess_success(self):
        proc = subprocess.run(
            [sys.executable, "-m", "balseq.cli", "term", "--seq", "B", "--k", "2",
             "--n", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0 and proc.stdout == "35\n"

    def test_subprocess_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "balseq.cli", "term", "--seq", "B", "--k", "0",
             "--n", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2 and "k must be >= 1" in proc.stderr

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        # main returns argparse's exit code; the interpreter's is unchanged
        assert main([flag]) == 0
        assert capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-m", "balseq.cli", flag],
                              capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout

    def test_subprocess_bad_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "balseq.cli", "term", "--seq", "Q", "--k", "2",
             "--n", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

    def test_main_leaves_interpreter_digit_limit_unchanged(self, capsys):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            code, out, _ = run_cli(capsys, "term", "--seq", "B", "--k", "12", "--n", "20000")
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(old)
        assert code == 0 and len(out.strip()) > 5000

    @pytest.mark.parametrize("argv", [
        pytest.param(("term", "--seq", "B", "--k", "12", "--n", "20000", "--engine", engine),
                     id=engine)
        for engine in ("doubling", "matrix", "binet")
    ] + [
        pytest.param(("table", "--k", "12", "--n", "0..4000", "--format", "csv"),
                     id="table"),
        pytest.param(("table", "--k", "12", "--n", "3990..4000", "--seq", "C"),
                     id="table-window"),
        pytest.param(("series", "--seq", "B", "--k", "12", "--N", "4000"), id="series"),
        pytest.param(("series", "--seq", "C", "--k", "12", "--N", "4000",
                      "--variant", "printed"), id="series-printed"),
    ])
    def test_main_leaves_decimal_context_unchanged(self, capsys, argv):
        def state():
            ctx = decimal.getcontext()
            return (ctx.prec, ctx.Emax, ctx.Emin, ctx.rounding, dict(ctx.traps),
                    dict(ctx.flags))

        before = state()
        code, out, _ = run_cli(capsys, *argv)
        assert state() == before
        assert code == 0 and len(out.strip()) > 5000

    def test_lowered_digit_limit_prints_exact_value(self):
        proc = subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=640", "-m", "balseq.cli", "term",
             "--seq", "C", "--k", "12", "--n", "20000", "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        value = json.loads(proc.stdout)["value"]
        assert value == decimal_str(term_c(SequenceParams(12), 20000))

    @pytest.mark.parametrize("engine", ["matrix", "binet"])
    def test_lowered_digit_limit_prints_exact_value_on(self, engine):
        proc = subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=640", "-m", "balseq.cli", "term",
             "--seq", "C", "--k", "12", "--n", "20000", "--engine", engine,
             "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        value = json.loads(proc.stdout)["value"]
        assert value == decimal_str(term_c(SequenceParams(12), 20000))

    def test_huge_term_prints_fully(self):
        # must not trip the interpreter's int->str digit limit
        proc = subprocess.run(
            [sys.executable, "-m", "balseq.cli", "term", "--seq", "B", "--k", "2",
             "--n", "10000"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        digits = proc.stdout.strip()
        assert len(digits) > 7000 and digits.isdigit()
