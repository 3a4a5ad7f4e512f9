import decimal
import json
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product

import pytest

from balseq import identities, verify
from balseq.verify import (
    CATALOG,
    KIND_KEYS,
    Report,
    VerifyReport,
    VerifyRunConfig,
    report_entry_to_dict,
    report_to_json,
    SweepOutcome,
    resolve_identities,
    run_verify,
)
from balseq.ring import SequenceParams

from conftest import no_child_left


def exact_from_str(text: str) -> int | Fraction:
    """The int or Fraction a report value string spells, whatever the digit limit."""
    assert re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text), text
    num, _, den = text.partition("/")
    value = int(decimal.Decimal(num))  # exact, and not bound by the str() limit
    return Fraction(value, int(decimal.Decimal(den))) if den else value


def read_report(text: str) -> VerifyReport:
    """The report a verify JSON text describes, every field read back exactly."""
    data = json.loads(text)
    config = data["config"]
    results = []
    for entry in data["results"]:
        name_key, lhs_key, rhs_key, *_ = KIND_KEYS[entry["kind"]]
        results.append(Report(
            entry[name_key], entry["inputs"], exact_from_str(entry[lhs_key]),
            exact_from_str(entry[rhs_key]), entry["holds"], entry["hypothesis_met"],
            entry["kind"]))
    return VerifyReport(data["tool_version"],
                        VerifyRunConfig(**{**config, "identities": tuple(config["identities"])}),
                        results, data["summary"])


class TestResolveIdentities:
    def test_all(self):
        assert resolve_identities("all") == list(CATALOG)

    def test_exact_name(self):
        assert resolve_identities("vajda-1") == ["vajda-1"]

    def test_family_prefix(self):
        assert resolve_identities("consecutive-gcd") == [
            "consecutive-gcd-b", "consecutive-gcd-c",
        ]
        assert resolve_identities("catalan") == ["catalan-b", "catalan-c"]

    def test_comma_list_deduplicates_in_order(self):
        assert resolve_identities("cassini,catalan-b,cassini-b") == [
            "cassini-b", "cassini-c", "catalan-b",
        ]

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="no-such-name"):
            resolve_identities("no-such-name")


class TestDeclarations:
    """Each row's where and reach against its domain and its sweep's tables."""

    @pytest.mark.parametrize("name", list(CATALOG))
    def test_where_and_reach_agree_with_the_domain(self, name):
        row, params = CATALOG[name], SequenceParams(2)
        for m in range(1, 9):
            # every index key over 0..M, and entry past its four values
            box = product(*(range(8) if key == "entry" else range(m + 1) for key in row.keys))
            points = [(*lead, x) for *lead, last in row.domain(m) for x in last]
            assert sorted(points) == [p for p in box if row.where(*p)], (name, m)
            size = len(row.context(params, m).b) - 1
            assert max(row.reach(*p) for p in points) <= size, (name, m)
            assert row.reach(*[m] * len(row.keys)) == size, (name, m)
            for key in row.keys:
                point = {**dict(zip(row.keys, points[-1])), key: -1}
                with pytest.raises(ValueError, match=rf"^{name}\(.*\) is outside the domain$"):
                    row.at(params, **point)

    def test_single_points_build_tables_to_their_reach(self, monkeypatch):
        # each to the largest term index the point reads, where a sweep's
        # tables at the point's largest index would reach 1000 and 100
        built = []
        b_table = identities.b_table

        def spy(params, n_max, **kwargs):
            built.append(n_max)
            return b_table(params, n_max, **kwargs)

        monkeypatch.setattr(identities, "b_table", spy)
        params = SequenceParams(3)
        assert CATALOG["catalan-b"].at(params, n=500, r=0).holds
        assert CATALOG["vajda-2"].at(params, n=1, m=50, ell=2).holds
        assert built == [501, 50]

    @pytest.mark.parametrize("value, shown", [(2.5, "2.5"), ("3", "'3'"), (True, "True")])
    def test_non_int_indices_rejected(self, value, shown):
        with pytest.raises(ValueError, match=rf"^cassini-b\(n={shown}\) takes integer indices$"):
            CATALOG["cassini-b"].at(SequenceParams(3), n=value)


# the JSON keys of a report entry, by kind
ENTRY_KEYS = {
    "identity": {"kind", "identity_name", "lhs", "rhs", "inputs", "holds", "hypothesis_met"},
    "gcd": {"kind", "theorem_name", "computed_gcd", "expected", "inputs", "holds",
            "hypothesis_met"},
}


class TestReportKinds:
    @pytest.mark.parametrize("name", list(CATALOG))
    def test_kind_and_keys_on_every_row(self, name):
        # one in-domain point per row, at a k that meets the residue
        # hypothesis, where every row holds
        row = CATALOG[name]
        *lead, last = next(iter(row.domain(3)))
        report = row.at(SequenceParams(2), **dict(zip(row.keys, (*lead, last[0]))))
        assert report.name == name
        assert report.kind == ("gcd" if row.hypothesis is not None else "identity")
        entry = report_entry_to_dict(report)
        assert set(entry) == ENTRY_KEYS[report.kind]
        assert entry["kind"] == report.kind
        assert report.lhs == report.rhs and report.holds and entry["holds"]


class TestConfigValidation:
    def test_defaults(self):
        config = VerifyRunConfig()
        assert config.k_lo == 1 and config.k_hi == 12 and config.max_index == 40
        assert config.identities == tuple(CATALOG)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_lo": 0},
            {"k_lo": 5, "k_hi": 4},
            {"max_index": 0},
            {"max_listed": 0},
            {"identities": ("nope",)},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            VerifyRunConfig(**kwargs)

    @pytest.mark.parametrize("field", ["k_lo", "k_hi", "max_index", "max_listed"])
    @pytest.mark.parametrize("value", [1.0, 2.5, 3.5, True])
    def test_non_int_field_rejected(self, field, value):
        # k_lo=1.0 once raised TypeError from range(), max_index=3.5 the
        # engines' "n must be an int", max_listed=2.5 a slice TypeError, and
        # k_lo=True ran as k = 1
        with pytest.raises(ValueError, match=rf"^{field} must be an int, got {value!r}$"):
            VerifyRunConfig(**{field: value})


class TestRunVerify:
    def test_clean_run_exits_zero(self):
        report = run_verify(VerifyRunConfig(2, 3, 12))
        assert report.exit_code == 0
        assert report.summary["all_held"]
        assert report.summary["total_failed"] == 0
        assert report.summary["total_hypothesis_not_met"] == 0
        assert report.results == []

    def test_residue_violators_are_pooled_not_failed(self):
        config = VerifyRunConfig(4, 4, 10, tuple(resolve_identities("consecutive-gcd")))
        report = run_verify(config)
        assert report.exit_code == 0
        assert report.summary["total_hypothesis_not_met"] > 0
        listed = [r for r in report.results if not r.hypothesis_met and not r.holds]
        assert listed
        b_counterexample = [
            r for r in listed
            if r.name == "consecutive-gcd-b" and r.inputs["n"] == 2
        ]
        assert b_counterexample and b_counterexample[0].lhs == 3

    def test_per_identity_counts_shape(self):
        config = VerifyRunConfig(2, 2, 6, ("cassini-b", "strong-gcd"))
        report = run_verify(config)
        counts = report.summary["per_identity"]
        assert set(counts) == {"cassini-b", "strong-gcd"}
        assert set(counts["cassini-b"]) == {
            "checked", "held", "failed", "hypothesis_not_met",
        }
        assert counts["cassini-b"]["checked"] == 6
        assert counts["strong-gcd"]["checked"] == 21

    def test_max_listed_caps_reports_not_counts(self):
        config = VerifyRunConfig(4, 4, 12, ("coprime-norm-b",), max_listed=2)
        report = run_verify(config)
        assert len(report.results) == 2
        assert report.summary["per_identity"]["coprime-norm-b"]["hypothesis_not_met"] == 12

    def test_capped_listing_is_canonical_head(self):
        config = VerifyRunConfig(4, 4, 12, ("coprime-norm-b",), max_listed=3)
        small = run_verify(config).results
        full = run_verify(VerifyRunConfig(4, 4, 12, ("coprime-norm-b",), max_listed=25)).results
        assert small == full[:3]


class TestFailurePoolHeads:
    @pytest.mark.parametrize("max_listed", [1, 3, 25])
    def test_reports_match_the_untruncated_merge(self, planted_b7, max_listed):
        # each (name, k) task keeps only the head of its pools; with B_7
        # planted wrong both pools fill, and the listing must equal the
        # head of every k's full pools merged
        config = VerifyRunConfig(1, 12, 9, max_listed=max_listed)
        expected = []
        for name in config.identities:
            merged = SweepOutcome(name)
            for k in range(1, 13):
                merged.merge(CATALOG[name](SequenceParams(k), 9))
            for pool in (merged.violations, merged.expected_failures):
                expected += sorted(pool, key=verify._sort_key)[:max_listed]
        expected.sort(key=verify._sort_key)
        report = run_verify(config)
        assert report.summary["total_failed"] > 0
        assert report.summary["total_hypothesis_not_met"] > 0
        assert report.results == expected


class TestWorkers:
    CONFIG = VerifyRunConfig(1, 5, 9)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_report_is_the_serial_one(self, forks, workers):
        serial = run_verify(self.CONFIG)
        assert not forks
        assert run_verify(self.CONFIG, workers=workers) == serial
        assert len(forks) == workers - 1 and no_child_left()

    def test_default_never_forks(self, monkeypatch):
        monkeypatch.setattr(verify, "SERIAL_BUDGET_S", 0)

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert run_verify(self.CONFIG).summary["all_held"]

    def test_fewer_tasks_than_workers(self, forks):
        config = VerifyRunConfig(2, 3, 6, ("cassini-b",))
        assert run_verify(config, workers=5) == run_verify(config)
        assert len(forks) == 1 and no_child_left()

    def test_serial_without_fork(self, forks, monkeypatch):
        serial = run_verify(self.CONFIG)
        monkeypatch.delattr(os, "fork")
        assert run_verify(self.CONFIG, workers=2) == serial
        assert not forks

    def test_small_run_stays_in_process(self, forks, monkeypatch):
        monkeypatch.setattr(verify, "SERIAL_BUDGET_S", 60)
        run_verify(self.CONFIG, workers=4)
        assert not forks

    @pytest.mark.parametrize("workers", [0, -1, 2.0, True, "2"])
    def test_bad_workers_rejected(self, workers):
        with pytest.raises(ValueError, match=r"^workers must be an int >= 1, got "):
            run_verify(self.CONFIG, workers=workers)

    def _in_children(self, monkeypatch, action):
        """cassini-b sweeps as usual in this process and runs action in a child."""
        parent, real = os.getpid(), CATALOG["cassini-b"]

        def sweep(params, max_index):
            if os.getpid() != parent:
                action()
            return real(params, max_index)

        monkeypatch.setitem(CATALOG, "cassini-b", sweep)

    def test_raising_child_fails_the_run(self, forks, monkeypatch):
        def boom():
            raise RuntimeError("boom\nsecond line")

        self._in_children(monkeypatch, boom)
        with pytest.raises(ChildProcessError,
                           match=r"^a verify worker failed: RuntimeError: boom$"):
            run_verify(self.CONFIG, workers=2)
        assert forks and no_child_left()

    def test_child_dying_without_a_result_fails_the_run(self, forks, monkeypatch):
        self._in_children(monkeypatch, lambda: os._exit(3))
        with pytest.raises(ChildProcessError,
                           match=r"^a verify worker exited with status 3 and no result$"):
            run_verify(self.CONFIG, workers=3)
        assert len(forks) == 2 and no_child_left()

    def test_failing_parent_share_reaps_the_children(self, forks, monkeypatch):
        parent, real = os.getpid(), CATALOG["vajda-1"]

        def sweep(params, max_index):
            if os.getpid() == parent:
                raise KeyError("parent")
            return real(params, max_index)

        monkeypatch.setitem(CATALOG, "vajda-1", sweep)
        with pytest.raises(KeyError, match="parent"):
            run_verify(self.CONFIG, workers=2)
        assert forks and no_child_left()


class TestSerialization:
    def test_round_trip(self):
        config = VerifyRunConfig(3, 4, 8)
        report = run_verify(config)
        assert read_report(report_to_json(report)) == report

    def test_round_trip_with_failures_listed(self):
        config = VerifyRunConfig(4, 4, 8, tuple(resolve_identities("coprime-norm")))
        report = run_verify(config)
        assert report.results
        again = read_report(report_to_json(report))
        assert again == report
        assert report_to_json(again) == report_to_json(report)

    def test_byte_identical_across_runs(self):
        config = VerifyRunConfig(1, 6, 15)
        texts = {report_to_json(run_verify(config)) for _ in range(3)}
        assert len(texts) == 1

    def test_big_values_serialized_as_decimal_strings(self):
        config = VerifyRunConfig(4, 4, 10, ("coprime-norm-b",))
        data = json.loads(report_to_json(run_verify(config)))
        entry = data["results"][0]
        assert isinstance(entry["computed_gcd"], str)
        assert isinstance(entry["expected"], str)
        assert entry["kind"] == "gcd"

    def test_big_values_round_trip_under_lowered_digit_limit(self):
        # a fresh interpreter whose int<->str limit is the lowest allowed
        # writes the report; nothing in it lifts the limit, so the library
        # must cope on its own
        code = textwrap.dedent("""
            import sys
            from fractions import Fraction
            from balseq.verify import Report, VerifyReport, VerifyRunConfig, report_to_json
            lhs = 7 * 10**9999 + 12345
            rhs = Fraction(-(3**20000), 2**1000 + 1)
            entry = Report("sum-c", {"k": 2, "n": 3}, lhs, rhs, False, True, "identity")
            report = VerifyReport("0", VerifyRunConfig(2, 2, 3), [entry], {"total_failed": 1})
            assert sys.get_int_max_str_digits() == 640
            sys.stdout.write(report_to_json(report))
        """)
        proc = subprocess.run([sys.executable, "-X", "int_max_str_digits=640", "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        text = proc.stdout
        assert len(text) > 10_000
        entry = Report("sum-c", {"k": 2, "n": 3}, 7 * 10**9999 + 12345,
                       Fraction(-(3**20000), 2**1000 + 1), False, True, "identity")
        again = read_report(text)
        assert again == VerifyReport("0", VerifyRunConfig(2, 2, 3), [entry],
                                     {"total_failed": 1}), "round trip changed the report"
        assert report_to_json(again) == text
