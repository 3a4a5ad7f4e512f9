import pytest

from balseq.verify import (
    CATALOG,
    VerifyRunConfig,
    report_from_json,
    report_to_json,
    resolve_identities,
    run_verify,
)


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
        assert report_from_json(report_to_json(report)) == report

    def test_round_trip_with_failures_listed(self):
        config = VerifyRunConfig(4, 4, 8, tuple(resolve_identities("coprime-norm")))
        report = run_verify(config)
        assert report.results
        again = report_from_json(report_to_json(report))
        assert again == report
        assert report_to_json(again) == report_to_json(report)

    def test_byte_identical_across_runs(self):
        config = VerifyRunConfig(1, 6, 15)
        texts = {report_to_json(run_verify(config)) for _ in range(3)}
        assert len(texts) == 1

    def test_big_values_serialized_as_decimal_strings(self):
        import json

        config = VerifyRunConfig(4, 4, 10, ("coprime-norm-b",))
        data = json.loads(report_to_json(run_verify(config)))
        entry = data["results"][0]
        assert isinstance(entry["computed_gcd"], str)
        assert isinstance(entry["expected"], str)
        assert entry["kind"] == "gcd"
