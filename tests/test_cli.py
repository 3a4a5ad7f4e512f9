import json
import subprocess
import sys

import pytest

import balseq.cli as cli
from balseq.cli import main
from balseq.decimal_io import decimal_str
from balseq.engines import term_c
from balseq.ring import SequenceParams

from conftest import oracle_c


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        # argparse rejects the flag value itself, so this exits rather than returns
        with pytest.raises(SystemExit) as exc:
            main(["table", "--k", "2..x", "--n", "0..3"])
        assert exc.value.code == 2

    def test_bad_range_reason_is_printed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--k", "1..x", "--n", "0..3"])
        assert exc.value.code == 2
        assert "invalid range '1..x', expected 'lo..hi' or an integer" in capsys.readouterr().err


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

    def test_corrected_variant_matches_terms(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--seq", "C", "--k", "5", "--N", "20")
        assert code == 0
        assert [int(x) for x in out.split()] == oracle_c(5, 20)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--seq", "B", "--k", "2", "--N", "2",
                               "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["n,coefficient", "0,0", "1,1", "2,6"]


class TestVerify:
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

    def test_threads_do_not_change_bytes(self, capsys):
        outputs = set()
        for threads in ("1", "2", "auto"):
            code, out, _ = run_cli(capsys, "verify", "--k", "1..4", "--max-index", "8",
                                   "--format", "json", "--threads", threads)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_bad_thread_count_reason_is_printed(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--k", "2..2", "--max-index", "3", "--threads", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"thread count must be an integer >= 1 or 'auto', got '{value}'" in err

    def test_emit_errata(self, capsys, tmp_path):
        target = tmp_path / "errata.md"
        code, _, err = run_cli(capsys, "verify", "--k", "2..2", "--max-index", "4",
                               "--identity", "cassini-b", "--emit-errata", str(target))
        assert code == 0
        text = target.read_text()
        assert "c-series-numerator" in text and "refuted" in text
        assert str(target) in err

    def test_emit_errata_unwritable_path_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "E.md"
        code, out, err = run_cli(capsys, "verify", "--k", "2..2", "--max-index", "4",
                                 "--emit-errata", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err


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
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--k", "2", "--n", value, "--reps", "1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
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

    def test_lowered_digit_limit_prints_exact_value(self):
        proc = subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=640", "-m", "balseq.cli", "term",
             "--seq", "C", "--k", "12", "--n", "20000", "--format", "json"],
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
