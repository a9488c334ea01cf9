"""The sweep package: campaign model, result store, and scheduler.

Covers the DAG semantics (ordering, failure propagation, cached hits),
the store's JSONL round trip, the bench-file interop contract
(byte-identical regeneration and the baseline gate, run once per file
kind), pool-vs-inline record parity, the campaign registry, the claims
mechanism, and
campaign-vs-bespoke parity for a Figure 10 point.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.deployment import Deployment
from repro.errors import ConfigurationError, StoreError
from repro.sweep import (
    Campaign,
    Claim,
    ResultStore,
    RunSpec,
    campaign_names,
    expand_grid,
    get_campaign,
    record_series,
    register_campaign,
    result_from_record,
    run_campaign,
)
from repro.sweep.campaigns import point_config
from repro.sweep.runner import execute_run
from repro.sweep.store import (SCALE_BENCH, BenchSpec, compare_baseline,
                               import_bench, point_from_record,
                               render_bench)

ROOT = os.path.join(os.path.dirname(__file__), "..")
BASELINE = os.path.join(ROOT, "BENCH_scale.json")
OVERLOAD_BASELINE = os.path.join(ROOT, "BENCH_overload.json")

#: A pre-measured host block so tests skip the ~1 s calibration loop.
HOST = {"calibration_ops_per_s": 1_000_000, "cpus": 1, "python": "test"}


def tiny_config(protocol: str = "geobft", **overrides):
    """A fast run for scheduler tests (sub-second host wall time)."""
    return point_config(protocol, 2, 4, batch_size=5, duration=1.0,
                        warmup=0.25, clients_per_cluster=1,
                        client_outstanding=2, **overrides)


def tiny_campaign(name: str = "tiny", **kwargs) -> Campaign:
    return Campaign(
        name=name,
        description="scheduler test campaign",
        runs=(RunSpec(run_id="a", config=tiny_config()),
              RunSpec(run_id="b", config=tiny_config(seed=5),
                      depends_on=("a",))),
        **kwargs)


class TestModel:
    def test_duplicate_run_id_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate run id"):
            Campaign(name="x", description="", runs=(
                RunSpec(run_id="a", config=tiny_config()),
                RunSpec(run_id="a", config=tiny_config(seed=5))))

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown run"):
            Campaign(name="x", description="", runs=(
                RunSpec(run_id="a", config=tiny_config(),
                        depends_on=("ghost",)),))

    def test_cycle_rejected(self):
        with pytest.raises(ConfigurationError, match="cycle"):
            Campaign(name="x", description="", runs=(
                RunSpec(run_id="a", config=tiny_config(),
                        depends_on=("b",)),
                RunSpec(run_id="b", config=tiny_config(seed=5),
                        depends_on=("a",))))

    def test_toposort_is_stable_and_dependency_respecting(self):
        campaign = Campaign(name="x", description="", runs=(
            RunSpec(run_id="late", config=tiny_config(),
                    depends_on=("early",)),
            RunSpec(run_id="free", config=tiny_config(seed=5)),
            RunSpec(run_id="early", config=tiny_config(seed=7))))
        order = [spec.run_id for spec in campaign.toposort()]
        assert order == ["free", "early", "late"]

    def test_subset_closes_over_dependencies(self):
        campaign = tiny_campaign()
        sub = campaign.subset(lambda spec: spec.run_id == "b")
        assert sub.run_ids() == ("a", "b")

    def test_filtered_unknown_pattern_lists_ids(self):
        with pytest.raises(ConfigurationError, match="no run id matches"):
            tiny_campaign().filtered("zzz")

    def test_key_is_stable_and_config_sensitive(self):
        spec = RunSpec(run_id="a", config=tiny_config())
        same = RunSpec(run_id="renamed", config=tiny_config(),
                       tags={"any": "tag"})
        other = RunSpec(run_id="a", config=tiny_config(seed=5))
        # The key hashes the *experiment*, not its label: ids and tags
        # are presentation, the config is identity.
        assert spec.key() == same.key()
        assert spec.key() != other.key()
        assert spec.key() != RunSpec(run_id="a", config=tiny_config(),
                                     scenario="crash-backup").key()

    def test_expand_grid_first_axis_slowest(self):
        grid = list(expand_grid(p=("x", "y"), n=(1, 2)))
        assert grid == [{"p": "x", "n": 1}, {"p": "x", "n": 2},
                        {"p": "y", "n": 1}, {"p": "y", "n": 2}]


class TestStore:
    RECORD = {"key": "k1", "campaign": "c", "run_id": "r1",
              "config": {"protocol": "geobft", "num_clusters": 2},
              "scenario": "none", "status": "ok", "digest": "d1"}

    def test_memory_store_round_trip(self):
        store = ResultStore(None)
        store.add(self.RECORD)
        assert store.get("k1")["run_id"] == "r1"
        assert store.has("k1")
        assert not store.has("missing")
        assert store.query(protocol="geobft")[0]["key"] == "k1"
        assert store.query(protocol="pbft") == []
        assert store.campaigns() == ["c"]

    def test_unknown_filter_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown store"):
            ResultStore(None).query(flavour="mint")

    def test_record_requires_key(self):
        with pytest.raises(ConfigurationError, match="key"):
            ResultStore(None).add({"run_id": "r1"})

    def test_disk_store_round_trip_and_reindex(self, tmp_path):
        path = str(tmp_path / "store")
        with ResultStore(path) as store:
            store.add(self.RECORD)
            store.add(dict(self.RECORD, key="k2", run_id="r2",
                           status="failed"))
        # Reopen: the records come back from the JSONL.
        with ResultStore(path) as store:
            assert store.has("k1")
            assert not store.has("k2")  # failed records are not hits
            assert [r["run_id"] for r in store.query(campaign="c")] \
                == ["r1", "r2"]
            assert store.count(status="ok") == 1

    def _store_with_two_records(self, tmp_path):
        path = str(tmp_path / "store")
        with ResultStore(path) as store:
            store.add(self.RECORD)
            store.add(dict(self.RECORD, key="k2", run_id="r2"))
        return path, os.path.join(path, "records.jsonl")

    @pytest.mark.parametrize("old_index", [True, False])
    def test_torn_final_line_is_cut_off(self, tmp_path, old_index):
        path, records = self._store_with_two_records(tmp_path)
        with open(records, "rb+") as fh:
            fh.truncate(os.path.getsize(records) - 10)
        if old_index:
            # A store written before the JSONL became the only index
            # still holds an index file; it is ignored.
            with open(os.path.join(path, "index.sqlite"), "wb") as fh:
                fh.write(b"not a database")
        with pytest.warns(UserWarning, match="torn final line"):
            store = ResultStore(path)
        with store:
            assert store.has("k1") and not store.has("k2")
            store.add(dict(self.RECORD, key="k3", run_id="r3"))
        with ResultStore(path) as store:
            assert [r["key"] for r in store.query(campaign="c")] \
                == ["k1", "k3"]
        with open(records, "rb") as fh:
            assert [json.loads(line)["key"] for line in fh] == ["k1", "k3"]

    def test_unterminated_final_record_is_kept(self, tmp_path):
        path, records = self._store_with_two_records(tmp_path)
        with open(records, "rb+") as fh:
            fh.truncate(os.path.getsize(records) - 1)
        with ResultStore(path) as store:
            store.add(dict(self.RECORD, key="k3", run_id="r3"))
            assert [r["key"] for r in store.query(campaign="c")] \
                == ["k1", "k2", "k3"]

    def test_corrupt_inner_line_raises_and_closes(self, tmp_path):
        path, records = self._store_with_two_records(tmp_path)
        with open(records, "rb") as fh:
            lines = fh.readlines()
        with open(records, "wb") as fh:
            fh.writelines([lines[0][:-10] + b"\n", lines[1]])
        for _ in range(2):
            with pytest.raises(StoreError, match="corrupt record at byte 0"):
                ResultStore(path)

    def test_rewritten_jsonl_is_what_reopens(self, tmp_path):
        # The file is the only index: a store rewritten behind the
        # store's back reopens as exactly what the file now holds.
        path, records = self._store_with_two_records(tmp_path)
        with open(records, "rb") as fh:
            second = fh.readlines()[1]
        with open(records, "wb") as fh:
            fh.write(second)
        with ResultStore(path) as store:
            assert store.get("k1") is None
            assert store.get("k2")["run_id"] == "r2"
            assert [r["key"] for r in store.query()] == ["k2"]

    def test_re_add_sorts_by_its_latest_line(self, tmp_path):
        path, _ = self._store_with_two_records(tmp_path)
        with ResultStore(path) as store:
            store.add(dict(self.RECORD, status="failed"))
            assert [r["key"] for r in store.query()] == ["k2", "k1"]
        with ResultStore(path) as store:
            assert [r["key"] for r in store.query()] == ["k2", "k1"]
            assert not store.has("k1")

    def test_re_add_overwrites_key(self, tmp_path):
        with ResultStore(str(tmp_path / "store")) as store:
            store.add(dict(self.RECORD, status="failed"))
            assert not store.has("k1")
            store.add(dict(self.RECORD))
            assert store.has("k1")
            assert len(store.query(campaign="c")) == 1


class BenchInteropCases:
    """The bench-file contract, run once per file kind: a subclass names
    the spec, its committed file, record keys with their run ids, and a
    small run tagged with the spec's figure."""

    spec: BenchSpec
    committed: str
    forms: dict
    fresh: RunSpec

    def baseline(self) -> dict:
        with open(self.committed, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def test_baseline_regenerates_byte_identically(self):
        with open(self.committed, "r", encoding="utf-8") as fh:
            original = fh.read()
        store = ResultStore(None)
        store.add_all(import_bench(self.committed))
        rendered = render_bench(store.query(campaign=self.spec.figure))
        assert rendered == original

    def test_rows_without_defaulted_fields_keep_their_identity(self,
                                                               tmp_path):
        payload = self.baseline()
        for point in payload["points"]:
            for field, value in self.spec.defaults.items():
                if point.get(field) == value:
                    del point[field]
        older = tmp_path / "older.json"
        original = json.dumps(payload, indent=1, sort_keys=True) + "\n"
        older.write_text(original)
        records = import_bench(str(older))
        assert ([(r["key"], r["run_id"]) for r in records]
                == [(r["key"], r["run_id"])
                    for r in import_bench(self.committed)])
        assert render_bench(records) == original

    def test_fresh_row_has_the_committed_row_keys(self):
        row = point_from_record(execute_run(self.fresh, "fresh", HOST))
        committed = self.baseline()["points"][0]
        assert sorted(row) == sorted(committed) == list(self.spec.row_keys)
        for key in self.spec.identity:
            assert row[key] == self.fresh.tags[key]

    def test_import_rejects_wrong_schema(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps(
            {"schema": f"bench-{self.spec.figure}/999"}))
        with pytest.raises(ConfigurationError, match="schema"):
            import_bench(str(bogus))

    def test_render_requires_records(self):
        with pytest.raises(ConfigurationError, match="no bench records"):
            render_bench([])

    def test_compare_requires_records_of_its_figure(self):
        other, = (path for path in (BASELINE, OVERLOAD_BASELINE)
                  if path != self.committed)
        for records in ([], import_bench(other)):
            assert compare_baseline(records, 1, self.baseline()) == [
                f"no {self.spec.figure}-tagged records in this campaign "
                "to compare"]

    def test_compare_fails_when_nothing_is_compared(self):
        records = import_bench(self.committed)
        empty = dict(self.baseline(), points=[])
        failures = compare_baseline(records, 1, empty)
        assert len(failures) == 1
        assert "is a point of the baseline" in failures[0]

    def test_compare_passes_on_its_own_file(self):
        baseline = self.baseline()
        calibration = baseline["host"]["calibration_ops_per_s"]
        records = import_bench(self.committed)
        assert compare_baseline(records, calibration, baseline) == []

    def test_compare_flags_digest_drift(self):
        baseline = self.baseline()
        records = import_bench(self.committed)
        records[0]["bench"] = dict(records[0]["bench"], digest="e" * 64)
        failures = compare_baseline(
            records, baseline["host"]["calibration_ops_per_s"], baseline)
        assert len(failures) == 1
        assert "digest mismatch" in failures[0]

    def test_compare_flags_rate_regression(self):
        baseline = self.baseline()
        records = import_bench(self.committed)
        records[0]["bench"] = dict(records[0]["bench"], events_per_s=1)
        failures = compare_baseline(
            records, baseline["host"]["calibration_ops_per_s"], baseline)
        assert len(failures) == 1
        assert "regressed" in failures[0]

    def test_run_id_forms(self):
        imported = {r["key"]: r for r in import_bench(self.committed)}
        run_ids = get_campaign(self.spec.figure).run_ids()
        for key, run_id in self.forms.items():
            record = imported[key]
            assert record["run_id"] == run_id
            ident = {k: v for k, v in record["tags"].items()
                     if k != "figure"}
            assert self.spec.run_id(**ident) == run_id
            assert run_id in run_ids


class TestBenchScaleInterop(BenchInteropCases):
    spec = SCALE_BENCH
    committed = BASELINE
    forms = {"bench-scale:16": "scale/n16", "bench-scale:256": "scale/n256"}
    fresh = RunSpec(run_id="scale/n8", config=tiny_config(),
                    tags={"figure": "scale", "n": 8})


class TestScheduler:
    def dag_campaign(self) -> Campaign:
        # "up" fails at execution time (unknown scenario), so "down"
        # must be skipped while the independent "free" run completes.
        return Campaign(name="dag", description="", runs=(
            RunSpec(run_id="up", config=tiny_config(),
                    scenario="no-such-scenario"),
            RunSpec(run_id="down", config=tiny_config(seed=5),
                    depends_on=("up",)),
            RunSpec(run_id="free", config=tiny_config(seed=7))))

    def test_failure_skips_transitive_dependants(self):
        outcome = run_campaign(self.dag_campaign(), host=HOST)
        assert outcome.failed == ["up"]
        assert outcome.skipped == ["down"]
        assert [r["run_id"] for r in outcome.records] == ["free"]
        assert not outcome.ok
        assert "1 skipped" in outcome.summary()

    def test_cached_hits_skip_execution(self, tmp_path):
        campaign = tiny_campaign()
        with ResultStore(str(tmp_path / "store")) as store:
            first = run_campaign(campaign, store=store, host=HOST)
            assert first.ok
            assert [r["run_id"] for r in first.executed] == ["a", "b"]
            assert first.cached == []
            second = run_campaign(campaign, store=store, host=HOST)
        assert second.ok
        assert second.executed == []
        assert [r["run_id"] for r in second.cached] == ["a", "b"]
        # Identical records either way, in campaign order.
        assert [r["digest"] for r in second.records] \
            == [r["digest"] for r in first.records]
        # --rerun forces re-execution despite the warm store.
        with ResultStore(str(tmp_path / "store")) as store:
            third = run_campaign(campaign, store=store, host=HOST,
                                 rerun=True)
        assert [r["run_id"] for r in third.executed] == ["a", "b"]

    def test_cached_hit_answers_under_its_own_run_id_and_tags(self):
        # Two campaigns share a point under different ids and tags (as
        # fig11's n=7 and fig13's batch-100 points do): the second's
        # reports and claims must see the point as its own.
        store = ResultStore(None)
        first, second = (Campaign(name=name, description="", runs=(
            RunSpec(run_id=f"{name}/p", config=tiny_config(),
                    tags={"figure": name, "protocol": "geobft", "x": x,
                          "xi": 0}),)) for name, x in (("one", 7),
                                                        ("two", 100)))
        run_campaign(first, store=store, host=HOST)
        outcome = run_campaign(second, store=store, host=HOST)
        assert outcome.executed == []
        record = outcome.records[0]
        assert record["run_id"] == "two/p"
        assert record["tags"]["figure"] == "two"
        assert record_series(outcome.records, "throughput_txn_s")[0] \
            == [100]

    def test_record_carries_schema_and_host(self):
        outcome = run_campaign(
            Campaign(name="one", description="", runs=(
                RunSpec(run_id="a", config=tiny_config(),
                        tags={"figure": "adhoc", "protocol": "geobft",
                              "x": 2, "xi": 0}),)),
            host=HOST)
        record = outcome.records[0]
        assert record["schema"] == "repro-sweep/1"
        assert record["result"]["schema"] == "repro-result/1"
        assert record["host"] == HOST
        assert record["key"] == RunSpec(
            run_id="a", config=tiny_config()).key()
        # The record round-trips into a real ExperimentResult and
        # pivots into figure series.
        result = result_from_record(record)
        assert result.throughput_txn_s >= 0
        xs, series = record_series(outcome.records, "throughput_txn_s")
        assert xs == [2]
        assert series["geobft"] == [record["result"]["throughput_txn_s"]]

    def test_report_failure_is_recorded_not_raised(self):
        from repro.sweep import ReportSpec

        def explode(records):
            raise ValueError("no points")

        campaign = Campaign(
            name="r", description="", runs=(),
            reports=(ReportSpec("boom", "boom.txt", explode),))
        outcome = run_campaign(campaign, host=HOST)
        assert outcome.failed == ["report:boom"]
        assert "boom" in outcome.artifacts["boom"]
        # On a deliberately filtered (partial) campaign, a report whose
        # points were filtered away is dropped, not failed.
        partial = run_campaign(campaign, host=HOST, partial=True)
        assert partial.ok
        assert partial.artifacts == {}

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            run_campaign(tiny_campaign(), jobs=0, host=HOST)

    def test_pool_and_inline_land_identical_records(self):
        # The pool is the only host parallelism: it must land exactly
        # the records the inline path does.  "twin" repeats "a"'s config
        # under another id, so whatever order and process each run gets,
        # module-level state leaking between deployments would show up
        # as a digest mismatch between the twins or between the paths.
        campaign = Campaign(name="pool", description="", runs=(
            RunSpec(run_id="a", config=tiny_config()),
            RunSpec(run_id="twin", config=tiny_config()),
            RunSpec(run_id="other", config=tiny_config(seed=5))))
        fields = ("digest", "events", "max_queue_depth")
        landed = []
        for jobs in (1, 2):
            outcome = run_campaign(campaign, store=ResultStore(None),
                                   jobs=jobs, host=HOST)
            assert outcome.ok, outcome.summary()
            landed.append({r["run_id"]: tuple(r[f] for f in fields)
                           for r in outcome.executed})
        inline, pooled = landed
        assert set(inline) == {"a", "twin", "other"}
        assert inline == pooled
        assert inline["a"] == inline["twin"]
        assert inline["a"] != inline["other"]


class TestRegistry:
    def test_builtin_campaigns_registered(self):
        names = campaign_names()
        for name in ("fig10", "fig11", "fig12", "fig13", "table1",
                     "table2", "scale", "ci-smoke", "paper"):
            assert name in names

    def test_unknown_campaign_lists_registered(self):
        with pytest.raises(ConfigurationError, match="unknown campaign"):
            get_campaign("fig99")

    def test_duplicate_registration_rejected(self):
        factory = lambda: tiny_campaign(name="dup-test")  # noqa: E731
        register_campaign("dup-test", factory)
        try:
            with pytest.raises(ConfigurationError,
                               match="already registered"):
                register_campaign("dup-test", factory)
            register_campaign("dup-test", factory, replace=True)
        finally:
            from repro.sweep import campaigns
            campaigns._CAMPAIGNS.pop("dup-test", None)

    def test_factory_name_mismatch_rejected(self):
        from repro.sweep import campaigns
        register_campaign("misnamed", lambda: tiny_campaign(name="other"))
        try:
            with pytest.raises(ConfigurationError, match="named"):
                get_campaign("misnamed")
        finally:
            campaigns._CAMPAIGNS.pop("misnamed", None)

    def test_dag_dependencies_inside_builtin_campaigns(self):
        fig12 = get_campaign("fig12")
        primary = [spec for spec in fig12.runs
                   if "primary" in spec.run_id]
        assert primary
        for spec in primary:
            assert spec.depends_on


class TestClaims:
    """The claims mechanism, with no simulation: a campaign of no runs
    whose claims hold or not as each case says."""

    @pytest.fixture
    def claims_campaign(self, monkeypatch):
        from repro.sweep import campaigns, scheduler

        monkeypatch.setattr(scheduler, "calibrate_host", lambda: 1.0)

        def register(hard_holds, soft_holds):
            monkeypatch.setitem(campaigns._CAMPAIGNS, "claims-test",
                                lambda: Campaign(
                name="claims-test", description="", runs=(),
                claims=(Claim("hard claim", "§0", lambda r: hard_holds),
                        Claim("soft claim", "§0", lambda r: soft_holds,
                              hard=False))))
        return register

    @pytest.mark.parametrize("hard_holds, soft_holds, code, listed", [
        (True, True, 0, ["held      hard claim", "held      soft claim"]),
        (False, True, 1, ["failed    hard claim", "held      soft claim"]),
        (True, False, 0, ["held      hard claim",
                          "deviation soft claim"]),
    ])
    def test_exit_code_and_listing(self, claims_campaign, capsys,
                                   hard_holds, soft_holds, code, listed):
        from repro.cli import main

        claims_campaign(hard_holds, soft_holds)
        assert main(["sweep", "--campaign", "claims-test"]) == code
        out = capsys.readouterr().out
        for line in listed:
            assert f"  {line} (§0)" in out

    def test_json_carries_every_verdict(self, claims_campaign, capsys):
        from repro.cli import main

        claims_campaign(False, False)
        assert main(["sweep", "--campaign", "claims-test", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert not doc["ok"]
        assert doc["failed"] == ["claim:hard claim"]
        assert doc["claims"] == [
            {"name": "hard claim", "paper": "§0", "hard": True,
             "verdict": "failed"},
            {"name": "soft claim", "paper": "§0", "hard": False,
             "verdict": "deviation"}]

    def test_a_raising_check_fails_with_its_message(self):
        def check(records):
            raise ValueError("point z6 measured nothing")

        outcome = run_campaign(Campaign(
            name="c", description="", runs=(),
            claims=(Claim("c1", "§0", check),)), host=HOST)
        assert outcome.failed == ["claim:c1"]
        assert outcome.claims[0]["error"] \
            == "ValueError: point z6 measured nothing"

    def test_claims_are_checked_on_the_whole_campaign_only(self):
        campaign = tiny_campaign(
            claims=(Claim("c1", "§0", lambda r: False),))
        assert campaign.subset(lambda spec: True).claims \
            == campaign.claims
        assert campaign.filtered("a").claims == ()
        with pytest.raises(ConfigurationError, match="duplicate claim"):
            tiny_campaign(claims=campaign.claims * 2)

    @pytest.mark.parametrize("name", campaign_names())
    def test_claims_read_only_figures_their_runs_carry(self, name,
                                                       monkeypatch):
        """Every check runs on records made from the campaign's own
        specs (no simulation; every measured value 1.0) without
        raising, and reads only figure tags those runs carry."""
        from collections import defaultdict

        from repro.sweep import claims
        from repro.sweep.model import config_fingerprint

        campaign = get_campaign(name)
        records = [{"run_id": spec.run_id, "tags": dict(spec.tags),
                    "config": config_fingerprint(spec.config),
                    "status": "ok",
                    "result": defaultdict(lambda: 1.0)}
                   for spec in campaign.runs]
        carried = {spec.tags.get("figure") for spec in campaign.runs}
        read = set()
        figure_of = claims.figure_of

        def spy(records, figure, panel=None):
            read.add(figure)
            return figure_of(records, figure, panel)

        monkeypatch.setattr(claims, "figure_of", spy)
        for claim in campaign.claims:
            claim.check(records)
        assert read <= carried


class TestParity:
    def test_fig10_point_matches_bespoke_run(self, monkeypatch):
        # The migrated campaign must reproduce the bespoke script's
        # numbers exactly: same config -> same simulated universe.
        monkeypatch.setenv("REPRO_BENCH_DURATION", "0.6")
        campaign = get_campaign("fig10").filtered("geobft/z2")
        assert campaign.run_ids() == ("fig10/geobft/z2",)
        spec = campaign.runs[0]
        bespoke = Deployment(spec.config).run()
        outcome = run_campaign(campaign, host=HOST)
        assert outcome.ok, outcome.summary()
        record = outcome.records[0]
        assert record["result"]["throughput_txn_s"] \
            == bespoke.throughput_txn_s
        assert record["result"]["avg_latency_s"] == bespoke.avg_latency_s
        assert record["result"]["completed_txns"] == bespoke.completed_txns
