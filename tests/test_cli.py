import argparse
import contextlib
import csv
import decimal
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

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

    # sha256 of `term` stdout per (seq, k, n, engine, format), taken from the
    # int-only code before the logarithmic engines computed in Decimal; the
    # number type the CLI computes in must not show in a single byte
    TERM_SHA256 = {
        ("B", 5, 30000, "iterative", "plain"):
            "8ba15f7119f4b7946ada7e27c3927b45d0531b3e5f9e19e51b7bf755487ec40c",
        ("B", 5, 30000, "iterative", "csv"):
            "03ca60cbd0951684af5dd5e078aa98f35c059293447ceb1f0fa091fa0832b765",
        ("B", 5, 30000, "iterative", "json"):
            "16adeff813bc769ccc9cad77f6e9b56d31ca5e39d07aa0327e074311bc7bd143",
        ("B", 5, 30000, "matrix", "plain"):
            "8ba15f7119f4b7946ada7e27c3927b45d0531b3e5f9e19e51b7bf755487ec40c",
        ("B", 5, 30000, "matrix", "csv"):
            "7bf64aaf8e958f3d25c241c305952a2bd2e43085136840953dd8b59634e32631",
        ("B", 5, 30000, "matrix", "json"):
            "b63cf6104ba6e477aa63d2cba6c40c18a12ca9bcec32f3dbab4d64103c47b30a",
        ("B", 5, 30000, "binet", "plain"):
            "8ba15f7119f4b7946ada7e27c3927b45d0531b3e5f9e19e51b7bf755487ec40c",
        ("B", 5, 30000, "binet", "csv"):
            "f3a0a75664a06eb7cebd468ca0446b4de3ce6e6ee9b7be6a50fd92ea1664d7d6",
        ("B", 5, 30000, "binet", "json"):
            "76a8a3cba861e397529cc5fbcb1993e4d87c23ae12ef1b99de17126f3ccc8eb0",
        ("B", 5, 30000, "doubling", "plain"):
            "8ba15f7119f4b7946ada7e27c3927b45d0531b3e5f9e19e51b7bf755487ec40c",
        ("B", 5, 30000, "doubling", "csv"):
            "9702e510f11a6b90e6359dec85999ece994e0f4a42ec32cc01c5991cce6de279",
        ("B", 5, 30000, "doubling", "json"):
            "1cb63edcc4971ea7c262c01c152eaa84f76a998625d775c52897398bee213321",
        ("C", 12, 20000, "iterative", "plain"):
            "1bdfec7c7e4034b1a95bc97abe1f850ef4fe241f91b495c1c818deac05e88b70",
        ("C", 12, 20000, "iterative", "csv"):
            "3902939a9cbdf62925eacaf73995da278e61a13191fbf564ba9715fb0032532e",
        ("C", 12, 20000, "iterative", "json"):
            "6fd8242e8ed8b43590efbbcc5284e4cd78680ea3d4b6909e28e30dd2274c87f9",
        ("C", 12, 20000, "matrix", "plain"):
            "1bdfec7c7e4034b1a95bc97abe1f850ef4fe241f91b495c1c818deac05e88b70",
        ("C", 12, 20000, "matrix", "csv"):
            "591c6f9f9bc5ed0d872ae6980f78485b73e25a07ab9932952bd8223793fc3f6f",
        ("C", 12, 20000, "matrix", "json"):
            "f120b0c08167ab957c02a726ecc4ff675c340d7b952967f5cf5e848501107714",
        ("C", 12, 20000, "binet", "plain"):
            "1bdfec7c7e4034b1a95bc97abe1f850ef4fe241f91b495c1c818deac05e88b70",
        ("C", 12, 20000, "binet", "csv"):
            "48fb2f0e733263bf4f47b48d3fca5ba9a663b74ffcc00f64ad349ca98a3590c2",
        ("C", 12, 20000, "binet", "json"):
            "4234e2617a2157822225a2f85cc6cf8efd0bf86cba0d7669db573d740af2fc63",
        ("C", 12, 20000, "doubling", "plain"):
            "1bdfec7c7e4034b1a95bc97abe1f850ef4fe241f91b495c1c818deac05e88b70",
        ("C", 12, 20000, "doubling", "csv"):
            "94669a14bd9761084ecdce9b0d6a242ddf58db8b33a82d1654db8ae5a4c3f044",
        ("C", 12, 20000, "doubling", "json"):
            "502c10a5c1e9391b00c8ec9ff96fb9f49bb793b72e3006fca6a9d2da31b8e409",
        # odd n, where each log engine's last step takes its other formula;
        # taken while that step still built the whole final state
        ("B", 5, 30001, "iterative", "plain"):
            "7d11ef24e2bbc919786487888202bbd3a7b88a51ae3ca69c5817d9f55c7dac89",
        ("B", 5, 30001, "iterative", "csv"):
            "84cd30220bb4faa1ef1e1f1c7d228feb1d0499c0fc2bf06d299fcd5ffa674ff1",
        ("B", 5, 30001, "iterative", "json"):
            "512a41be9c273fa7da03305c0d3935b497b867767a21769ee69ac7c6f49e6307",
        ("B", 5, 30001, "matrix", "plain"):
            "7d11ef24e2bbc919786487888202bbd3a7b88a51ae3ca69c5817d9f55c7dac89",
        ("B", 5, 30001, "matrix", "csv"):
            "126b983028afb02d8513adaab2db07fd09a9c66e34a26152acf5b62fb8729279",
        ("B", 5, 30001, "matrix", "json"):
            "292cc1f6d4987d162f106854ee6603f7b8581ba81f4d0bc7b0b5a030900a2537",
        ("B", 5, 30001, "binet", "plain"):
            "7d11ef24e2bbc919786487888202bbd3a7b88a51ae3ca69c5817d9f55c7dac89",
        ("B", 5, 30001, "binet", "csv"):
            "b356a6e2339d648aef7c7699f67cbd7cd56698007c69f9504b85bc16c703c442",
        ("B", 5, 30001, "binet", "json"):
            "7f07c19d7284fea3c5433fd20a62b439805c96e710ab55521dda4b561b647ff8",
        ("B", 5, 30001, "doubling", "plain"):
            "7d11ef24e2bbc919786487888202bbd3a7b88a51ae3ca69c5817d9f55c7dac89",
        ("B", 5, 30001, "doubling", "csv"):
            "fcd942fd92d7d6d2fd32c2b9f308c99b21fc463198ec3c472a4d52da185b2db3",
        ("B", 5, 30001, "doubling", "json"):
            "8bbbf3413f067a6c6483fdff8b145b025e4834195701f9e48ab9989f00c23de0",
        ("C", 12, 20001, "iterative", "plain"):
            "dc5d446b43a221b3c21ae78ed18eec1c490ee948dca072a77dc131e2100459f3",
        ("C", 12, 20001, "iterative", "csv"):
            "4b049c1f1f9c720b3c483e3c6121454043dddce26b59bb20be8b830d1c331ad1",
        ("C", 12, 20001, "iterative", "json"):
            "b2b01c8b5a30ace6fa150df62d4c01ddb357af5cc0ec66dfc7b164b82cf24285",
        ("C", 12, 20001, "matrix", "plain"):
            "dc5d446b43a221b3c21ae78ed18eec1c490ee948dca072a77dc131e2100459f3",
        ("C", 12, 20001, "matrix", "csv"):
            "4c08bb403f7e3089b669ea86e7ec4ca189d8aaeec187e4f54c1976eb2ecb6aab",
        ("C", 12, 20001, "matrix", "json"):
            "2e67496b625a2e3b77f15eb40e502cb0e35750845afa5d13201892402ba78a44",
        ("C", 12, 20001, "binet", "plain"):
            "dc5d446b43a221b3c21ae78ed18eec1c490ee948dca072a77dc131e2100459f3",
        ("C", 12, 20001, "binet", "csv"):
            "35e590be00776642c1c90537d1589f7d1369e71e82d137c75d5cd6da82be8bd4",
        ("C", 12, 20001, "binet", "json"):
            "376f1c83da40a9dcbb6e9901772569e0b0cd130c1ddd4647d50f6918e7232b60",
        ("C", 12, 20001, "doubling", "plain"):
            "dc5d446b43a221b3c21ae78ed18eec1c490ee948dca072a77dc131e2100459f3",
        ("C", 12, 20001, "doubling", "csv"):
            "3fca105ce2fcb787ec46f7c07ac98f97a0c897319cdaf1888a299e1fb08a3c2c",
        ("C", 12, 20001, "doubling", "json"):
            "bc7c494d4367b0d2b43be52938d5b0de62b65230f5cfe0f5d828ddb4cbc03062",
    }

    @pytest.mark.parametrize("key", sorted(TERM_SHA256))
    def test_term_bytes_pinned(self, capsys, key):
        seq, k, n, engine, fmt = key
        code, out, _ = run_cli(capsys, "term", "--seq", seq, "--k", str(k), "--n", str(n),
                               "--engine", engine, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.TERM_SHA256[key]


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

    # sha256 of `table` stdout per (argv, format), taken from the code that
    # computed the whole table in int and wrote CSV through csv.writer
    TABLE_SHA256 = {
        (("--k", "1..12", "--n", "0..300"), "plain"):
            "da721e4312efaccd9458789ba167223b8bf9e58b6d92a59cb350ba57117e9d00",
        (("--k", "1..12", "--n", "0..300"), "csv"):
            "9cc738f907281d6d57986ea5934a1920603c6d2912b863266f7f4edd439008f0",
        (("--k", "1..12", "--n", "0..300"), "json"):
            "cab580b9910f1359824d63d81e87ed3c9d28bf29729b0060941ba645ae45f1d9",
        (("--k", "5", "--n", "2990..3000", "--seq", "C"), "plain"):
            "a5fe36955bce2aca499410eca95eedf2d7a8355515df8568091dc32d0baf0f84",
        (("--k", "5", "--n", "2990..3000", "--seq", "C"), "csv"):
            "a5ebab94d15b9828599554338d7d6cea4812be78a15636b8806a6f05730a5151",
        (("--k", "5", "--n", "2990..3000", "--seq", "C"), "json"):
            "f9c251aef7289fd2240505b83aed9cb533d26277ad2f4b0e840bcebae8df7b38",
    }

    @pytest.mark.parametrize("key", sorted(TABLE_SHA256))
    def test_table_bytes_pinned(self, capsys, key):
        argv, fmt = key
        code, out, _ = run_cli(capsys, "table", *argv, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.TABLE_SHA256[key]

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
        assert sink.hash.hexdigest() == self.TABLE_SHA256[
            (("--k", "1..12", "--n", "0..300"), "json")]

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

    # sha256 of `series --k 12 --N 400` stdout per (argv, format), taken from
    # the code that expanded in int and wrote CSV through csv.writer
    SERIES_SHA256 = {
        (("--seq", "B"), "plain"):
            "8df25e9f5a737bd39d055ae87bc90071e6fcc6aba4b3f47d95db19d13990a851",
        (("--seq", "B"), "csv"):
            "3cd51525909f95cc3016c901f2f176af147780e4d045119203851d73d653141a",
        (("--seq", "B"), "json"):
            "12955a2544d1969852f3b3fff74d7373e5e8f9a1f6108b47eb2bc5004794cc26",
        (("--seq", "C"), "plain"):
            "8f6185e55667920fc1d69ad6dc6eb3b6431d25e0cefa90598f98d3f6b73f4476",
        (("--seq", "C"), "csv"):
            "d02b08a525094a3dc3d8ca479d73fca392b839f8983d6c98607d5555b4e38dfa",
        (("--seq", "C"), "json"):
            "a3d001902ecae8cce021cca062eb97456a8b6ccdc7ab44031210f388406fbaea",
        (("--seq", "C", "--variant", "printed"), "plain"):
            "4e503078a155ae58d90a02364114279bc6e0fd4bf4db4373115d951ac7d05ec2",
        (("--seq", "C", "--variant", "printed"), "csv"):
            "f26233cbcd6a07d27dddc347eee7a8475fd7fa0b9248f4b13edefb9ab6237167",
        (("--seq", "C", "--variant", "printed"), "json"):
            "8d6716dc9a9d43dc78358832aad439a699133338f95e3b9846e594b5a4b147d0",
    }

    @pytest.mark.parametrize("key", sorted(SERIES_SHA256))
    def test_series_bytes_pinned(self, capsys, key):
        argv, fmt = key
        code, out, _ = run_cli(capsys, "series", *argv, "--k", "12", "--N", "400",
                               "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.SERIES_SHA256[key]

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
    # sha256 of `verify --k 1..12 --max-index 40` stdout per format.  A pin
    # may change only with a deliberate change to the report, named in
    # CHANGES.md; a speed-up of the sweeps must leave every byte as it is.
    REPORT_SHA256 = {
        "json": "90fd41a71c637e35994697e88f3139cf576c2f8369a10c7f5460e4133800bc0b",
        "csv": "5d2e7211af160c6d641b6edfe021db523c83aab3d39ad3677b2fac90cf7c9f12",
        "plain": "0e3a071b38a2e09702ad19071784980edb1592e7e44d15e768b98e5262723677",
    }

    @pytest.mark.parametrize("fmt", sorted(REPORT_SHA256))
    def test_report_bytes_pinned(self, capsys, fmt):
        code, out, _ = run_cli(capsys, "verify", "--k", "1..12", "--max-index", "40",
                               "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.REPORT_SHA256[fmt]

    # the same for the failure path: B_7 planted wrong, every failing report
    # listed, exit 1
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

    def test_all_is_every_engine_in_enum_order(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--k", "2", "--n", "5",
                               "--engines", "all", "--reps", "1", "--format", "csv")
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == [
            "iterative", "matrix", "binet", "doubling"]


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

    def test_one_process_prints_what_fresh_interpreters_print(self, capsys):
        for argv in self.MIXED:
            code, out, err = run_cli(capsys, *argv)
            proc = subprocess.run([sys.executable, "-m", "balseq.cli", *argv],
                                  capture_output=True, text=True)
            assert (code, out) == (proc.returncode, proc.stdout), argv
            # usage lines wrap at the terminal's width; the last line is the reason
            assert err.splitlines()[-1:] == proc.stderr.splitlines()[-1:], argv


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
