import decimal
import errno
import json
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from balseq import identities, verify
from balseq.errata import ERRATA
from balseq.verify import (
    CATALOG,
    KIND_KEYS,
    Report,
    VerifyReport,
    VerifyRunConfig,
    exact_to_str,
    report_to_json,
    resolve_identities,
    run_verify,
)
from balseq.ring import SequenceParams

from conftest import no_child_left, open_fds


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


# the catalog rows, then both rows of every errata entry that has rows:
# Sides rows outside CATALOG (the verified row of catalan-c, vajda-2 and
# sum-c is the catalog row itself)
DECLARED = {**CATALOG, **{row.name: row for erratum in ERRATA if erratum.rows
                          for row in erratum.rows}}
# the k an errata row answers at: its entry's box
KS = {row.name: erratum.ks for erratum in ERRATA if erratum.rows for row in erratum.rows}


class _Recorded(list):
    """A term table that adds the index of each read to reads, and a
    slice's first and last index."""

    def __init__(self, values: list, reads: set) -> None:
        super().__init__(values)
        self.reads = reads

    def __getitem__(self, key):
        if isinstance(key, slice):
            start = key.start or 0
            stop = len(self) if key.stop is None else key.stop
            self.reads.update({start, stop - 1} if stop > start else ())
        else:
            self.reads.add(key)
        return super().__getitem__(key)


class TestDeclarations:
    """Each row's where and reach against its domain and its sweep's tables."""

    @pytest.mark.parametrize("name", list(DECLARED))
    def test_where_and_reach_agree_with_the_domain(self, name):
        row, params = DECLARED[name], SequenceParams(2)
        for m in range(1, 9):
            # every index key over 0..M, and entry past its four values
            box = product(*(range(8) if key == "entry" else range(m + 1) for key in row.keys))
            points = [(*lead, x) for *lead, last in row.domain(m) for x in last]
            assert sorted(points) == [p for p in box if row.where(*p)], (name, m)
            size = len(row._context(params, m).b) - 1
            # an errata column starting at n = 4 has no point below M = 4
            assert max((row.reach(*p) for p in points), default=0) <= size, (name, m)
            assert row.reach(*[m] * len(row.keys)) == size, (name, m)
            for key in row.keys:
                point = {**dict.fromkeys(row.keys, m), key: -1}
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
        assert built == [500, 50]

    @pytest.mark.parametrize("name", list(DECLARED))
    def test_reach_is_the_largest_index_read(self, name, monkeypatch):
        # on tables that record every read, at each point with indices <= 8
        reads = set()
        ensure = identities.TermContext.ensure

        def recording(ctx, hi):
            ensure(ctx, hi)
            ctx.b, ctx.c, ctx.pk = (_Recorded(table, reads) for table in (ctx.b, ctx.c, ctx.pk))
            return ctx

        monkeypatch.setattr(identities.TermContext, "ensure", recording)
        row, unread = DECLARED[name], []
        # k 2 and 5, or those of them an errata row answers at, else its first k
        ks = KS.get(name, (2, 5))
        for k in [k for k in (2, 5) if k in ks] or [ks[0]]:
            for *lead, last in row.domain(8):
                for x in last:
                    point = (*lead, x)
                    reads.clear()
                    row.at(SequenceParams(k), **dict(zip(row.keys, point)))
                    if not reads:
                        unread.append(point)
                        continue
                    assert min(reads) >= 0, (k, point)
                    assert max(reads) == row.reach(*point), (k, point)
        # the rows that read an engine or a backward recurrence, not a table
        assert not unread or name in ("ar-commute", "negative-index-sign-base"), unread

    @pytest.mark.parametrize("value, shown", [(2.5, "2.5"), ("3", "'3'"), (True, "True")])
    def test_non_int_indices_rejected(self, value, shown):
        with pytest.raises(ValueError, match=rf"^cassini-b\(n={shown}\) takes integer indices$"):
            CATALOG["cassini-b"].at(SequenceParams(3), n=value)

    @pytest.mark.parametrize("value", [2.5, True, -3, "4", None])
    def test_bad_max_index_rejected(self, value):
        # 2.5 once raised the engines' "n must be an int", True swept as 1,
        # -3 returned 0 checks that held, and "4" raised a bare TypeError
        shown = re.escape(repr(value))
        with pytest.raises(ValueError,
                           match=rf"^cassini-b sweeps to an int max index >= 0, got {shown}$"):
            CATALOG["cassini-b"](SequenceParams(2), value)

    @pytest.mark.parametrize("name", list(CATALOG))
    def test_every_row_sweeps_from_max_index_0(self, name):
        row = CATALOG[name]
        outcome = row(SequenceParams(2), 0)
        assert outcome.checked == sum(len(last) for *_, last in row.domain(0))
        assert outcome.failed == 0
        with pytest.raises(ValueError, match=rf"^{name} sweeps to an int max index >= 0, got -1$"):
            row(SequenceParams(2), -1)


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
        text = report_to_json(VerifyReport("0", VerifyRunConfig(), [report], {}))
        entry, = json.loads(text)["results"]
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

    def test_empty_selection_rejected(self):
        # run_verify once reported all_held at 0 checks and exit code 0
        with pytest.raises(ValueError, match=r"^no identity selected$"):
            VerifyRunConfig(identities=())

    @pytest.mark.parametrize("identities", ["cassini-b", ["cassini-b"]])
    def test_identities_not_a_tuple_rejected(self, identities):
        # a bare name was once read as its letters: "unknown identity 'c'"
        with pytest.raises(ValueError, match=rf"^identities must be a tuple of catalog names,"
                                             rf" got {re.escape(repr(identities))}$"):
            VerifyRunConfig(1, 2, 5, identities)

    def test_duplicate_names_rejected(self):
        # run_verify once swept each copy, counting 20 checks for 10 at k
        # 2..3, max index 5
        with pytest.raises(ValueError,
                           match=r"^identity 'cassini-b' selected more than once$"):
            VerifyRunConfig(2, 3, 5, ("cassini-b", "cassini-b"))

    @pytest.mark.parametrize("field", ["k_lo", "k_hi", "max_index", "max_listed"])
    @pytest.mark.parametrize("value", [1.0, 2.5, 3.5, True])
    def test_non_int_field_rejected(self, field, value):
        # k_lo=1.0 once raised TypeError from range(), max_index=3.5 the
        # engines' "n must be an int", max_listed=2.5 a slice TypeError, and
        # k_lo=True ran as k = 1
        with pytest.raises(ValueError, match=rf"^{field} must be an int, got {value!r}$"):
            VerifyRunConfig(**{field: value})

    def test_named_tuple_constructors_check_the_fields(self):
        # _make and _replace would build the tuple past __new__'s checks
        with pytest.raises(ValueError, match=r"^k must be >= 1$"):
            VerifyRunConfig()._replace(k_lo=0)
        with pytest.raises(ValueError, match=r"^unknown identity 'nope'$"):
            VerifyRunConfig()._replace(identities=("nope",))
        with pytest.raises(ValueError, match=r"^max index must be >= 1$"):
            VerifyRunConfig._make([1, 12, 0, ("cassini-b",), 25])
        assert (VerifyRunConfig._make([2, 3, 5, ("cassini-b",), 25])
                == VerifyRunConfig()._replace(k_lo=2, k_hi=3, max_index=5,
                                              identities=("cassini-b",))
                == VerifyRunConfig(2, 3, 5, ("cassini-b",)))


class TestRunVerify:
    def test_clean_run_exits_zero(self):
        report = run_verify(VerifyRunConfig(2, 3, 12))
        assert report.summary["all_held"]
        assert report.summary["total_failed"] == 0
        assert report.summary["total_hypothesis_not_met"] == 0
        assert report.results == []

    def test_residue_violators_are_pooled_not_failed(self):
        config = VerifyRunConfig(4, 4, 10, tuple(resolve_identities("consecutive-gcd")))
        report = run_verify(config)
        assert report.summary["all_held"]
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
            failures = [r for k in range(1, 13)
                        for r in CATALOG[name](SequenceParams(k), 9).failures]
            for met in (True, False):
                pool = [r for r in failures if r.hypothesis_met is met]
                expected += sorted(pool, key=verify._sort_key)[:max_listed]
        expected.sort(key=verify._sort_key)
        report = run_verify(config)
        assert report.summary["total_failed"] > 0
        assert report.summary["total_hypothesis_not_met"] > 0
        assert report.results == expected

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("max_listed", [1, 3])
    def test_cut_listings_through_forked_workers(self, planted_b7, forks, max_listed, workers):
        # each child cuts its tasks' listings before it pickles them, and
        # the parent lists the merged cuts again
        config = VerifyRunConfig(1, 12, 9, max_listed=max_listed)
        serial = run_verify(config)
        assert not forks
        assert serial.summary["total_failed"] > 0
        assert serial.summary["total_hypothesis_not_met"] > 0
        assert run_verify(config, workers=workers) == serial
        assert len(forks) == workers - 1 and no_child_left()
        for counts in serial.summary["per_identity"].values():
            assert counts["held"] == (counts["checked"] - counts["failed"]
                                      - counts["hypothesis_not_met"])


# failing reports with distinct (name, inputs), as a sweep makes them
LISTED_REPORTS = st.lists(
    st.builds(Report, name=st.sampled_from(["cassini-b", "strong-gcd", "vajda-1"]),
              inputs=st.dictionaries(st.sampled_from(["k", "m", "n"]), st.integers(0, 4),
                                     min_size=1),
              lhs=st.integers(0, 3), rhs=st.integers(0, 3), holds=st.just(False),
              hypothesis_met=st.booleans(), kind=st.sampled_from(list(KIND_KEYS))),
    max_size=40, unique_by=lambda r: (r.name, tuple(sorted(r.inputs.items()))),
)


class TestListed:
    @settings(max_examples=300, deadline=None)
    @given(reports=LISTED_REPORTS, max_listed=st.integers(1, 5), data=st.data())
    def test_listing_of_listings_is_the_listing(self, reports, max_listed, data):
        seats = data.draw(st.lists(st.integers(0, 3), min_size=len(reports),
                                   max_size=len(reports)))
        parts = [[r for r, seat in zip(reports, seats) if seat == part] for part in range(4)]
        ordered = sorted(reports, key=lambda r: (r.name, sorted(r.inputs.items())))
        oracle = [r for i, r in enumerate(ordered)
                  if sum((s.name, s.hypothesis_met) == (r.name, r.hypothesis_met)
                         for s in ordered[:i]) < max_listed]
        whole = verify._listed(reports, max_listed)
        assert whole == oracle
        listings = [r for part in parts for r in verify._listed(part, max_listed)]
        assert verify._listed(listings, max_listed) == whole


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

    def test_failed_fork_closes_its_pipe_and_reaps(self, second_fork_fails):
        # the first child is killed and reaped, and the pipe made for the
        # second is closed; the error is the fork's own
        fds = open_fds()
        with pytest.raises(OSError) as caught:
            run_verify(self.CONFIG, workers=3)
        assert caught.value.errno == errno.EAGAIN
        assert len(second_fork_fails) == 1 and no_child_left()
        assert open_fds() == fds

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


def dumped_report(report: VerifyReport) -> str:
    """The report as json.dumps writes it: the oracle for report_to_json,
    which once built this document and dumped it."""
    def entry(r: Report) -> dict:
        name_key, lhs_key, rhs_key, *_ = KIND_KEYS[r.kind]
        return {"kind": r.kind, name_key: r.name, lhs_key: exact_to_str(r.lhs),
                rhs_key: exact_to_str(r.rhs), "inputs": dict(sorted(r.inputs.items())),
                "holds": r.holds, "hypothesis_met": r.hypothesis_met}

    return json.dumps({
        "tool_version": report.tool_version,
        "config": report.config._asdict(),
        "results": [entry(r) for r in report.results],
        "summary": report.summary,
    }, indent=2, sort_keys=True)


# summaries of real runs: all held, gcd expected failures, and every row
RUN_SUMMARIES = [run_verify(config).summary for config in (
    VerifyRunConfig(2, 2, 4, ("cassini-b",)),
    VerifyRunConfig(3, 5, 8, tuple(resolve_identities("coprime-norm"))),
    VerifyRunConfig(1, 2, 3),
)]

JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.text(max_size=8)
HAND_SUMMARIES = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=20,
)
SIDES = st.integers() | st.fractions()
REPORTS = st.builds(
    Report,
    name=st.sampled_from(list(CATALOG)) | st.text(max_size=12),
    inputs=st.dictionaries(st.sampled_from(["k", "n", "m", "r", "i", "j", "ell", "entry"])
                           | st.text(max_size=4), st.integers(), max_size=4),
    lhs=SIDES, rhs=SIDES, holds=st.booleans(), hypothesis_met=st.booleans(),
    kind=st.sampled_from(list(KIND_KEYS)),
)
CONFIGS = st.builds(
    lambda k_lo, width, max_index, names, max_listed: VerifyRunConfig(
        k_lo, k_lo + width, max_index, tuple(names), max_listed),
    st.integers(1, 20), st.integers(0, 5), st.integers(1, 100),
    st.lists(st.sampled_from(list(CATALOG)), min_size=1, max_size=5, unique=True),
    st.integers(1, 1000),
)

# values past the interpreter's default 4300-digit str() limit
HUGE = [10**4300, -(3**20000), 7 * 10**9999 + 12345, Fraction(-(3**20000), 2**1000 + 1),
        Fraction(2**15000 + 1, 3**9000)]


class TestWriter:
    """report_to_json against json.dumps of the document it once built."""

    @settings(max_examples=300, deadline=None)
    @given(tool_version=st.text(max_size=8), config=CONFIGS,
           results=st.lists(REPORTS, max_size=30),
           summary=st.sampled_from(RUN_SUMMARIES) | HAND_SUMMARIES)
    def test_bytes_are_json_dumps(self, tool_version, config, results, summary):
        report = VerifyReport(tool_version, config, results, summary)
        assert report_to_json(report) == dumped_report(report)

    @pytest.mark.parametrize("kind", list(KIND_KEYS))
    def test_huge_sides(self, kind):
        results = [Report("sum-c", {"k": 2, "n": n}, lhs, rhs, False, True, kind)
                   for n, (lhs, rhs) in enumerate(zip(HUGE, HUGE[1:] + [0]))]
        report = VerifyReport("0", VerifyRunConfig(2, 2, 3), results, {"total_failed": 1})
        assert report_to_json(report) == dumped_report(report)

    def test_report_of_a_run_with_listed_failures(self):
        report = run_verify(VerifyRunConfig(3, 5, 20, tuple(resolve_identities("coprime-norm"))))
        assert len(report.results) == 39
        assert report_to_json(report) == dumped_report(report)

    @pytest.mark.parametrize("value", [1.5, {1: 2}, {"a": b"x"}, object()])
    def test_other_types_raise_type_error(self, value):
        report = VerifyReport("0", VerifyRunConfig(2, 2, 3), [], {"value": value})
        with pytest.raises(TypeError):
            report_to_json(report)

    def test_report_equals_its_tuple(self):
        report = Report("sum-c", {"k": 2, "n": 3}, 1, 2, False, True, "identity")
        assert report == ("sum-c", {"k": 2, "n": 3}, 1, 2, False, True, "identity")
