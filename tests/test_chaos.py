"""Tests for the chaos engine: fault specs, selectors, timelines, and
the safety+liveness invariant checker (ISSUE 3)."""

from __future__ import annotations

import json

import pytest

from repro import (
    CrashFault,
    Deployment,
    EquivocateFault,
    ExperimentConfig,
    FaultTimeline,
    LinkDelayFault,
    MessageLossFault,
    OmissionFault,
    PartitionFault,
    TamperFault,
    deployment_digest,
    fault_from_dict,
)
from repro.consensus.pbft import PbftConfig
from repro.core.config import GeoBftConfig
from repro.errors import ConfigurationError
from repro.net.chaos import ChaosContext
from repro.types import replica_id

import random


def small_config(protocol="geobft", **overrides):
    """A 2x4 deployment tuned so recovery fits in a short run."""
    base = dict(
        protocol=protocol, num_clusters=2, replicas_per_cluster=4,
        batch_size=5, clients_per_cluster=1, client_outstanding=2,
        duration=6.0, warmup=0.5, seed=3, fast_crypto=True,
        record_count=100, view_change_timeout=0.8,
        client_retry_timeout=2.0,
        geobft=GeoBftConfig(pbft=PbftConfig(view_change_timeout=0.8,
                                            new_view_timeout=0.8),
                            remote_timeout=0.8),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# protocol -> (deployment_digest, events) of the seeded chaos_smoke run.
# The golden matrix is fault-free; these runs are where client retries,
# fallback broadcasts and (for zyzzyva, 352 of them) commit certificates
# actually fire, so they pin the client timeout paths too.
CHAOS_SMOKE_PINS = {
    "geobft": (
        "7e3b250d04a94f7a747c045f4e0766a15262301604ee46725ab447ef36c22296",
        37802),
    "pbft": (
        "178b2fe019fea3eb227bc4d88d8bc1af94fd95446a49a51c29ffaee53d5cbf1d",
        118133),
    "zyzzyva": (
        "ce0036c796f272d539c904bb1ae6724d9f3041755ecc241a4ea0209609906e90",
        2394),
    "hotstuff": (
        "2ce079b0d5b12afd6c25b4c820d45d56acd24d1142e392cc87dae61719f6d87b",
        66755),
    "steward": (
        "84070344cfbe6ad962f1f83847781b90a48ae9d369e35ccfe567349d3e5d3f3e",
        33391),
}


class TestFaultSpecs:
    def test_round_trip_through_dict(self):
        faults = [
            CrashFault("primary:1", at=1.0, name="boom"),
            PartitionFault(["cluster:1"], ["cluster:2"], at=2.0, until=3.0),
            LinkDelayFault(extra_ms=40.0, jitter_ms=5.0, a=["cluster:1"]),
            MessageLossFault(0.25, at=0.5, until=1.5),
            OmissionFault("primary:1", messages=("GlobalShare",)),
            TamperFault("replica:2.1"),
            EquivocateFault(1, name="equiv"),
        ]
        timeline = FaultTimeline(faults, name="rt")
        clone = FaultTimeline.from_json(timeline.to_json())
        assert clone.name == "rt"
        assert len(clone) == len(faults)
        assert [f.describe() for f in clone.faults] == \
            [f.describe() for f in faults]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            fault_from_dict({"kind": "meteor"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            fault_from_dict({"kind": "crash", "targets": "all",
                             "tragets": "oops"})

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultTimeline.from_json("{not json")

    def test_spec_needs_fault_list(self):
        with pytest.raises(ConfigurationError):
            FaultTimeline.from_dict({"name": "empty"})

    def test_loss_rate_validated(self):
        with pytest.raises(ConfigurationError):
            MessageLossFault(0.0)
        with pytest.raises(ConfigurationError):
            MessageLossFault(1.5)

    def test_window_must_be_ordered(self):
        with pytest.raises(ConfigurationError):
            CrashFault("all", at=2.0, until=1.0)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            FaultTimeline.load(str(tmp_path / "nope.json"))

    def test_load_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({
            "name": "from-disk",
            "faults": [{"kind": "crash", "targets": "backup:1", "at": 1.0}],
        }))
        timeline = FaultTimeline.load(str(path))
        assert timeline.name == "from-disk"
        assert timeline.faults[0].kind == "crash"


class TestSelectors:
    @pytest.fixture
    def ctx(self):
        deployment = Deployment(small_config())
        return ChaosContext(deployment, random.Random(7))

    def test_replica_forms(self, ctx):
        assert ctx.resolve("replica:2.3") == [replica_id(2, 3)]
        assert ctx.resolve("r1.2") == [replica_id(1, 2)]

    def test_cluster_and_all(self, ctx):
        assert ctx.resolve("cluster:1") == \
            [replica_id(1, i) for i in (1, 2, 3, 4)]
        assert len(ctx.resolve("all")) == 8

    def test_primary_and_backups(self, ctx):
        assert ctx.resolve("primary:1") == [replica_id(1, 1)]
        assert replica_id(1, 1) not in ctx.resolve("backups:1")
        assert len(ctx.resolve("backups:1:2")) == 2
        assert len(ctx.resolve("backup:1")) == 1

    def test_backup_count_must_be_positive(self, ctx):
        for selector in ("backups:1:-1", "backups:1:0", "backups:1:-3"):
            with pytest.raises(ConfigurationError, match="K >= 1"):
                ctx.resolve(selector)
        assert len(ctx.resolve("backups:1:1")) == 1
        assert len(ctx.resolve("backups:1:f")) == 1  # f of n = 4

    def test_primary_tracks_live_view(self, ctx):
        deployment = ctx.deployment
        for node in deployment.cluster_members[1]:
            deployment.replicas[node].engine._view = 3
        assert ctx.resolve("primary:1") == [replica_id(1, 4)]

    def test_unknown_selector_rejected(self, ctx):
        with pytest.raises(ConfigurationError):
            ctx.resolve("rack:7")
        with pytest.raises(ConfigurationError):
            ctx.resolve("cluster:99")

    def test_resolve_many_dedups(self, ctx):
        nodes = ctx.resolve_many(["cluster:1", "replica:1.2"])
        assert nodes.count(replica_id(1, 2)) == 1


class TestTimelineLifecycle:
    def test_install_twice_rejected(self):
        timeline = FaultTimeline([CrashFault("backup:1", at=1.0)])
        timeline.install(Deployment(small_config()))
        with pytest.raises(ConfigurationError):
            timeline.install(Deployment(small_config()))

    def test_second_timeline_on_deployment_rejected(self):
        deployment = Deployment(small_config())
        FaultTimeline([CrashFault("backup:1", at=1.0)]).install(deployment)
        with pytest.raises(ConfigurationError):
            FaultTimeline([CrashFault("backup:2", at=1.0)]).install(
                deployment)


def run_with(protocol, faults, **overrides):
    deployment = Deployment(small_config(protocol, **overrides))
    FaultTimeline(faults, name=f"test-{protocol}").install(deployment)
    result = deployment.run()
    return deployment, result


class TestTimelineRuns:
    def test_timeline_is_deterministic(self):
        digests = []
        for _ in range(2):
            deployment, result = run_with("geobft", [
                CrashFault("primary:1", at=1.0),
                PartitionFault(["cluster:1"], ["cluster:2"],
                               at=2.0, until=3.0),
                TamperFault("replica:2.1"),
            ])
            digests.append(deployment_digest(deployment, result))
        assert digests[0] == digests[1]

    def test_instrumentation_does_not_perturb_timeline(self):
        faults = lambda: [CrashFault("primary:1", at=1.0),
                          EquivocateFault(2)]
        plain, plain_result = run_with("geobft", faults())
        traced, traced_result = run_with("geobft", faults(),
                                         instrument=True)
        assert deployment_digest(plain, plain_result) == \
            deployment_digest(traced, traced_result)
        phases = [e.phase for e in traced.instrumentation.events]
        assert "fault_on" in phases

    def test_partition_heal_liveness(self):
        deployment, result = run_with("geobft", [
            PartitionFault(["cluster:1"], ["cluster:2"], at=1.0,
                           until=2.0, name="wan-cut"),
        ])
        assert result.safety_ok
        assert result.liveness_ok
        log = deployment.timeline.activation_log()
        assert ("wan-cut", "on", 1.0) in log
        assert ("wan-cut", "off", 2.0) in log

    def test_primary_crash_recovers_via_view_change(self):
        deployment, result = run_with("pbft", [
            CrashFault("primary:1", at=1.0, name="kill-primary"),
        ])
        assert result.safety_ok and result.liveness_ok
        assert deployment.invariants.ok

    def test_unrecoverable_fault_opt_out(self):
        # Crashing a whole cluster stalls GeoBFT's global ordering by
        # design; expect_recovery=False tells the checker so.
        deployment, result = run_with("geobft", [
            CrashFault("all", at=1.0, expect_recovery=False),
        ], duration=3.0)
        assert result.liveness_ok
        deployment2, result2 = run_with("geobft", [
            CrashFault("all", at=1.0),
        ], duration=3.0)
        assert not result2.liveness_ok
        assert deployment2.invariants.liveness_failures

    @pytest.mark.parametrize("protocol", ["geobft", "pbft", "zyzzyva",
                                          "hotstuff", "steward"])
    def test_tampering_rejected_everywhere(self, protocol):
        # Byzantine replica 2.1 corrupts consensus payloads for the
        # whole run; every honest verify path must reject them, so the
        # honest ledgers never diverge.
        kinds = ("HsProposal",) if protocol == "hotstuff" else None
        fault = (TamperFault("replica:2.1", messages=kinds)
                 if kinds else TamperFault("replica:2.1"))
        deployment, result = run_with(protocol, [fault], duration=4.0)
        assert result.safety_ok
        assert deployment.invariants.byzantine_excluded == \
            (replica_id(2, 1),)

    @pytest.mark.parametrize("protocol", ["geobft", "pbft"])
    def test_equivocation_rejected(self, protocol):
        # A primary equivocates: half the backups receive a conflicting
        # but well-formed proposal.  Quorum intersection must keep the
        # honest replicas agreed, and the view change must replace the
        # equivocator so commits continue.
        cluster = 2 if protocol == "geobft" else 1
        deployment, result = run_with(protocol, [
            EquivocateFault(cluster, name="equiv"),
        ], duration=8.0)
        assert result.safety_ok
        assert result.liveness_ok
        assert deployment.network._tampered_sends > 0

    def test_delay_and_loss_faults_apply(self):
        deployment, result = run_with("geobft", [
            LinkDelayFault(extra_ms=30.0, at=1.0, until=2.0,
                           a=["cluster:1"], b=["cluster:2"]),
            MessageLossFault(0.2, at=1.0, until=2.0, a=["cluster:1"]),
        ], duration=4.0)
        assert result.safety_ok and result.liveness_ok
        assert deployment.network._delayed_sends > 0

    def test_omission_of_global_shares_triggers_rvc(self):
        deployment, result = run_with("geobft", [
            OmissionFault("primary:1", messages=("GlobalShare",),
                          name="silent-primary"),
        ], duration=8.0, instrument=True)
        assert result.safety_ok
        phases = {e.phase for e in deployment.instrumentation.events}
        assert "rvc_sent" in phases


class TestScenarioRegistry:
    def _deployment(self, protocol="geobft"):
        return Deployment(small_config(protocol))

    def test_register_and_apply(self):
        from repro import apply_scenario, register_scenario, scenario_names
        from repro.bench import scenarios as scen_mod

        calls = []

        def my_scenario(deployment, fail_at):
            calls.append(fail_at)
            return []

        register_scenario("test-custom", my_scenario)
        try:
            assert "test-custom" in scenario_names()
            apply_scenario(self._deployment(), "test-custom", fail_at=2.5)
            assert calls == [2.5]
        finally:
            del scen_mod._REGISTRY["test-custom"]

    def test_duplicate_registration_rejected(self):
        from repro import register_scenario

        with pytest.raises(ConfigurationError):
            register_scenario("primary", lambda d, t: [])
        # replace=True is the escape hatch for intentional overrides.
        from repro.bench.scenarios import _REGISTRY, _scenario_primary
        register_scenario("primary", _scenario_primary, replace=True)
        assert _REGISTRY["primary"] is _scenario_primary

    def test_chaos_smoke_scenario_installs_timeline(self):
        from repro import apply_scenario

        deployment = self._deployment()
        assert apply_scenario(deployment, "chaos_smoke") == []
        assert deployment.timeline is not None
        assert deployment.timeline.name == "chaos-smoke-geobft"

    def test_f_backups_never_targets_rotated_primary(self):
        # Regression: at n = 4 a view change can rotate the primary onto
        # the highest-index replica, which the old index-based victim
        # pick would then crash — exceeding f faulty non-primaries.
        from repro import apply_scenario

        deployment = self._deployment()
        for node in deployment.cluster_members[1]:
            deployment.replicas[node].engine._view = 3
        victims = apply_scenario(deployment, "f_backups")
        assert replica_id(1, 4) not in victims
        assert replica_id(2, 4) in victims
        assert len(victims) == 2

    @pytest.mark.parametrize("protocol", sorted(CHAOS_SMOKE_PINS))
    def test_chaos_smoke_within_fault_bounds(self, protocol):
        # The seeded CI timeline must leave every protocol safe and
        # live (Figure 12 qualitative story).
        from repro import apply_scenario

        deployment = Deployment(small_config(protocol, duration=10.0))
        apply_scenario(deployment, "chaos_smoke")
        result = deployment.run()
        assert result.safety_ok, deployment.invariants.describe()
        assert result.liveness_ok, deployment.invariants.describe()
        assert result.throughput_txn_s > 0
        expected_digest, expected_events = CHAOS_SMOKE_PINS[protocol]
        assert deployment.sim.events_processed == expected_events
        assert deployment_digest(deployment, result) == expected_digest
