import decimal
import json
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product

import pytest

from balseq import identities
from balseq.divisibility import GcdReport
from balseq.identities import IdentityReport
from balseq.verify import (
    CATALOG,
    VerifyReport,
    VerifyRunConfig,
    report_to_json,
    resolve_identities,
    run_verify,
)
from balseq.ring import SequenceParams


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
        if entry["kind"] == "identity":
            results.append(IdentityReport(
                entry["identity_name"], entry["inputs"], exact_from_str(entry["lhs"]),
                exact_from_str(entry["rhs"]), entry["holds"], entry["hypothesis_met"]))
        else:
            results.append(GcdReport(
                entry["theorem_name"], entry["inputs"], exact_from_str(entry["computed_gcd"]),
                exact_from_str(entry["expected"]), entry["hypothesis_met"], entry["holds"]))
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
            if r.theorem_name == "consecutive-gcd-b" and r.inputs["n"] == 2
        ]
        assert b_counterexample and b_counterexample[0].computed_gcd == 3

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
            from balseq.identities import IdentityReport
            from balseq.verify import VerifyReport, VerifyRunConfig, report_to_json
            lhs = 7 * 10**9999 + 12345
            rhs = Fraction(-(3**20000), 2**1000 + 1)
            entry = IdentityReport("sum-c", {"k": 2, "n": 3}, lhs, rhs, False)
            report = VerifyReport("0", VerifyRunConfig(2, 2, 3), [entry], {"total_failed": 1})
            assert sys.get_int_max_str_digits() == 640
            sys.stdout.write(report_to_json(report))
        """)
        proc = subprocess.run([sys.executable, "-X", "int_max_str_digits=640", "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        text = proc.stdout
        assert len(text) > 10_000
        entry = IdentityReport("sum-c", {"k": 2, "n": 3}, 7 * 10**9999 + 12345,
                               Fraction(-(3**20000), 2**1000 + 1), False)
        again = read_report(text)
        assert again == VerifyReport("0", VerifyRunConfig(2, 2, 3), [entry],
                                     {"total_failed": 1}), "round trip changed the report"
        assert report_to_json(again) == text
