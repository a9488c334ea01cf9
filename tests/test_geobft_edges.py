"""Edge cases of GeoBFT: single-cluster deployments, bounded round
pipelines, share garbage collection, and no-op boundedness."""

import pytest

from repro.bench.deployment import Deployment, ExperimentConfig
from repro.consensus.pbft import PbftConfig
from repro.core.config import GeoBftConfig
from repro.core.geobft import SHARE_RETENTION_ROUNDS
from repro.errors import ConfigurationError
from repro.types import replica_id


def cfg(**overrides):
    defaults = dict(
        protocol="geobft",
        num_clusters=2,
        replicas_per_cluster=4,
        batch_size=4,
        clients_per_cluster=1,
        client_outstanding=2,
        duration=2.5,
        warmup=0.5,
        record_count=300,
        seed=71,
        fast_crypto=True,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestSingleCluster:
    def test_z1_geobft_works(self):
        """With one cluster GeoBFT degenerates to local PBFT plus the
        ordering layer — every round has exactly one share (its own)."""
        deployment = Deployment(cfg(num_clusters=1))
        result = deployment.run()
        assert result.safety_ok
        assert result.throughput_txn_s > 0
        # No inter-cluster traffic at all.
        assert result.global_messages == 0
        sample = next(iter(deployment.replicas.values()))
        assert all(block.cluster_id == 1 for block in sample.ledger)


class TestRoundPipeline:
    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigurationError):
            GeoBftConfig(round_pipeline=0)

    def test_sequential_rounds_still_safe_and_live(self):
        config = cfg()
        config.geobft = GeoBftConfig(remote_timeout=10.0, round_pipeline=1)
        deployment = Deployment(config)
        result = deployment.run()
        assert result.safety_ok
        assert result.throughput_txn_s > 0

    def test_window_bounds_replication_run_ahead(self):
        config = cfg(duration=3.0)
        config.geobft = GeoBftConfig(remote_timeout=10.0, round_pipeline=2)
        deployment = Deployment(config)
        deployment.run()
        for replica in deployment.replicas.values():
            # next_seq - 1 is the highest round local replication
            # touched; it may never exceed executed + window (+1 for
            # the in-flight instant at cut-off).
            ahead = (replica.engine.next_seq - 1) - replica.executed_rounds
            assert ahead <= 2 + 1

    def test_deeper_window_is_faster(self):
        def tput(window):
            config = cfg(duration=2.0)
            config.geobft = GeoBftConfig(remote_timeout=10.0,
                                         round_pipeline=window)
            return Deployment(config).run().throughput_txn_s

        assert tput(8) > tput(1) * 1.5


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("certificate_retention_rounds", 0),
        ("certificate_retention_rounds", -3),
        ("certificate_retention_rounds", 2.5),
        ("certificate_retention_rounds", True),
        ("round_pipeline", 1.5),
        ("round_pipeline", True),
        ("remote_timeout", float("nan")),
        ("remote_timeout", float("inf")),
        ("remote_timeout", "3"),
        ("recent_view_change_window", -1.0),
        ("recent_view_change_window", float("nan")),
        ("recent_view_change_window", float("inf")),
        ("threshold_certificates", "x"),
        ("threshold_certificates", 1),
        ("rotate_share_targets", None),
        ("rotate_share_targets", "false"),
        ("pbft", None),
        ("pbft", {"pipeline_depth": 8}),
    ])
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            GeoBftConfig(**{field: value})

    def test_boundary_values_accepted(self):
        config = GeoBftConfig(certificate_retention_rounds=1,
                              round_pipeline=None, remote_timeout=1,
                              recent_view_change_window=0)
        assert config.recent_view_change_window == 0


class TestShareGarbageCollection:
    def test_old_shares_are_dropped(self):
        deployment = Deployment(cfg(duration=4.0, batch_size=2,
                                    client_outstanding=4))
        deployment.run()
        replica = deployment.replicas[replica_id(1, 2)]
        executed = replica.executed_rounds
        if executed <= SHARE_RETENTION_ROUNDS:
            pytest.skip("run too short to trigger GC")
        oldest_kept = min(
            (round_id for shares in replica._shares.values()
             for round_id in shares), default=None)
        assert oldest_kept is not None
        assert oldest_kept > executed - SHARE_RETENTION_ROUNDS - 1

    def test_round_maps_hold_only_live_rounds(self):
        """Per remote cluster, a round leaves the timer map when its
        share arrives and the share map once GC passes it."""
        deployment = Deployment(cfg(duration=4.0, batch_size=2,
                                    client_outstanding=4))
        deployment.run()
        gc_ran = False
        for replica in deployment.replicas.values():
            horizon = replica._shares_gc_upto
            gc_ran = gc_ran or horizon > 0
            timers = replica.remote_view_changes._timers
            assert set(timers) == set(replica._shares)
            for cluster, shares in replica._shares.items():
                assert all(round_id > horizon for round_id in shares)
                assert not any(
                    round_id in shares
                    or replica.ordering.has_share(round_id, cluster)
                    for round_id in timers[cluster])
        assert gc_ran

    def test_own_decision_retention_bounded(self):
        config = cfg(duration=4.0, batch_size=2, client_outstanding=4)
        config.geobft = GeoBftConfig(certificate_retention_rounds=16,
                                     remote_timeout=10.0)
        deployment = Deployment(config)
        deployment.run()
        replica = deployment.replicas[replica_id(1, 1)]
        assert len(replica._own_decisions) <= 16 + 1


class TestNoOpBoundedness:
    def test_noops_do_not_outrun_known_rounds(self):
        """The no-op filler proposes only up to the highest round any
        cluster is known to have reached — an idle cluster must not
        spin no-op rounds on its own."""
        deployment = Deployment(cfg(duration=2.0))
        idle_cluster_clients = [c for c in deployment.clients
                                if c.node_id.cluster == 2]
        active = [c for c in deployment.clients
                  if c.node_id.cluster == 1]
        assert idle_cluster_clients  # cluster 2 stays idle
        for client in active:
            deployment.sim.schedule(0.0, client.start)
        deployment.sim.run(until=2.0)
        r21 = deployment.replicas[replica_id(2, 1)]
        r11 = deployment.replicas[replica_id(1, 1)]
        # Cluster 2 proposed no-ops only to match cluster 1's rounds.
        assert r21.engine.next_seq <= r11.engine.next_seq + 1

    def test_fully_idle_system_proposes_nothing(self):
        deployment = Deployment(cfg(duration=1.0))
        deployment.sim.run(until=1.0)  # no clients started
        for replica in deployment.replicas.values():
            assert replica.engine.next_seq == 1
            assert replica.executed_rounds == 0
