"""End-to-end tests for GeoBFT: normal rounds, no-op filling, Byzantine
primaries, remote view changes, and sharing strategies."""

import pytest

from repro.bench.deployment import Deployment, ExperimentConfig
from repro.consensus.messages import GlobalShare
from repro.core.config import GeoBftConfig
from repro.consensus.pbft import PbftConfig
from repro.types import replica_id


def geo_config(**overrides):
    defaults = dict(
        protocol="geobft",
        num_clusters=2,
        replicas_per_cluster=4,
        batch_size=5,
        clients_per_cluster=1,
        client_outstanding=2,
        duration=3.0,
        warmup=0.5,
        record_count=500,
        seed=11,
        geobft=GeoBftConfig(
            pbft=PbftConfig(view_change_timeout=0.8, new_view_timeout=0.8),
            remote_timeout=0.8,
            recent_view_change_window=1.0,
        ),
        view_change_timeout=0.8,
        client_retry_timeout=2.0,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def run_deployment(deployment, until=None, start_clients=None):
    clients = deployment.clients if start_clients is None else start_clients
    for client in clients:
        deployment.sim.schedule(0.0, client.start)
    deployment.sim.run(until=until or deployment.config.duration)


class TestNormalRounds:
    def test_all_replicas_execute_identical_rounds(self):
        deployment = Deployment(geo_config())
        run_deployment(deployment)
        replicas = list(deployment.replicas.values())
        executed = {r.executed_rounds for r in replicas}
        assert min(executed) > 5  # real progress
        assert deployment.check_safety()
        # Every round appended one block per cluster, in cluster order.
        sample = replicas[0].ledger
        assert sample.block(0).cluster_id == 1
        assert sample.block(1).cluster_id == 2
        assert sample.block(0).round_id == sample.block(1).round_id == 1

    def test_clients_complete_batches(self):
        deployment = Deployment(geo_config())
        run_deployment(deployment)
        for client in deployment.clients:
            assert client.completed_batches > 3

    def test_ledger_hash_chains_verify(self):
        deployment = Deployment(geo_config())
        run_deployment(deployment)
        for replica in deployment.replicas.values():
            replica.ledger.verify()

    def test_three_clusters(self):
        deployment = Deployment(geo_config(num_clusters=3))
        run_deployment(deployment)
        assert deployment.check_safety()
        sample = next(iter(deployment.replicas.values()))
        assert sample.executed_rounds > 3
        # Blocks cycle through clusters 1, 2, 3.
        clusters = [sample.ledger.block(i).cluster_id for i in range(6)]
        assert clusters == [1, 2, 3, 1, 2, 3]

    def test_global_share_traffic_is_f_plus_one_per_cluster(self):
        deployment = Deployment(geo_config())
        run_deployment(deployment)
        counts = deployment.network.message_counts()
        share_counts = counts.get("GlobalShare", {"local": 0, "global": 0})
        rounds = max(r.executed_rounds
                     for r in deployment.replicas.values())
        f = 1
        # Per round: each of 2 clusters sends f+1 = 2 messages to the
        # other cluster => ~4 global share messages per round.
        expected = rounds * 2 * (f + 1)
        assert share_counts["global"] == pytest.approx(expected, rel=0.35)


class TestNoOpRounds:
    def test_idle_cluster_fills_rounds_with_noops(self):
        deployment = Deployment(geo_config(duration=2.0))
        cluster1_clients = [c for c in deployment.clients
                            if c.node_id.cluster == 1]
        # Only cluster 1 has traffic; cluster 2 must propose no-ops to
        # keep rounds complete (§2.5).
        run_deployment(deployment, start_clients=cluster1_clients)
        replicas = list(deployment.replicas.values())
        assert all(r.executed_rounds > 2 for r in replicas)
        assert deployment.check_safety()
        sample = replicas[0].ledger
        cluster2_blocks = [b for b in sample if b.cluster_id == 2]
        assert cluster2_blocks
        assert all(b.batch[0].op == "noop" for b in cluster2_blocks)
        # And cluster 1's blocks carry real client transactions.
        cluster1_blocks = [b for b in sample if b.cluster_id == 1]
        assert any(b.batch[0].op == "update" for b in cluster1_blocks)

    def test_clients_of_active_cluster_still_complete(self):
        deployment = Deployment(geo_config(duration=2.0))
        cluster1_clients = [c for c in deployment.clients
                            if c.node_id.cluster == 1]
        run_deployment(deployment, start_clients=cluster1_clients)
        assert all(c.completed_batches > 0 for c in cluster1_clients)


class TestByzantinePrimary:
    def test_silent_primary_triggers_remote_view_change(self):
        """Example 2.4 case (1): the primary of cluster 1 never sends
        global shares to cluster 2.  Cluster 2 must detect this, force a
        remote view change in cluster 1, and recover."""
        deployment = Deployment(geo_config(duration=8.0))
        byzantine = replica_id(1, 1)
        deployment.network.failures.add_send_rule(
            lambda src, dst, msg: (
                src == byzantine
                and isinstance(msg, GlobalShare)
                and dst.cluster == 2
            )
        )
        run_deployment(deployment)
        cluster1 = [r for n, r in deployment.replicas.items()
                    if n.cluster == 1]
        cluster2 = [r for n, r in deployment.replicas.items()
                    if n.cluster == 2]
        # Cluster 1 replaced its primary (local view change forced
        # remotely), and the system made progress afterwards.
        assert all(r.engine.view >= 1 for r in cluster1)
        assert all(r.executed_rounds > 0 for r in cluster2)
        assert deployment.check_safety()

    def test_crashed_cluster_primary_recovers_via_local_view_change(self):
        deployment = Deployment(geo_config(duration=8.0))
        deployment.network.failures.crash(replica_id(1, 1))
        run_deployment(deployment)
        alive = [r for n, r in deployment.replicas.items()
                 if not deployment.network.failures.is_crashed(n)]
        cluster1 = [r for r in alive if r.node_id.cluster == 1]
        assert all(r.engine.view >= 1 for r in cluster1)
        assert all(r.executed_rounds > 0 for r in alive)
        assert deployment.check_safety()

    def test_share_to_only_some_replicas_still_propagates(self):
        """The local phase of Figure 5: as long as one non-faulty
        replica receives m, everyone gets it."""
        deployment = Deployment(geo_config(duration=4.0))
        # Drop all direct shares to replica (2, 1): the other target of
        # each round's f + 1 receivers forwards locally, so everyone
        # still learns every share.
        failures = deployment.network.failures
        failures.add_receive_rule(
            lambda src, dst, msg: (
                isinstance(msg, GlobalShare)
                and src.cluster == 1
                and dst == replica_id(2, 1)
                and msg.forwarded is False
            )
        )
        run_deployment(deployment)
        cluster2 = [r for n, r in deployment.replicas.items()
                    if n.cluster == 2]
        assert all(r.executed_rounds > 0 for r in cluster2)
        assert deployment.check_safety()


class TestSharingStrategies:
    @pytest.mark.parametrize("strategy,factor", [
        ("optimistic_f1", 2),  # f + 1 = 2 messages per cluster pair
        ("single", 1),
        ("all", 4),            # n = 4 messages per cluster pair
    ])
    def test_strategy_message_volume(self, strategy, factor):
        config = geo_config(duration=2.0)
        config.geobft = GeoBftConfig(
            pbft=config.geobft.pbft,
            remote_timeout=10.0,  # avoid remote VCs during short run
            sharing_strategy=strategy,
        )
        deployment = Deployment(config)
        run_deployment(deployment)
        counts = deployment.network.message_counts()
        shares = counts.get("GlobalShare", {"global": 0})["global"]
        rounds = max(r.executed_rounds for r in deployment.replicas.values())
        assert rounds > 0
        expected = rounds * 2 * factor
        assert shares == pytest.approx(expected, rel=0.4)

    def test_all_strategies_safe(self):
        for strategy in ("optimistic_f1", "single", "all"):
            config = geo_config(duration=2.0)
            config.geobft = GeoBftConfig(
                pbft=config.geobft.pbft,
                remote_timeout=10.0,
                sharing_strategy=strategy,
            )
            deployment = Deployment(config)
            run_deployment(deployment)
            assert deployment.check_safety()


class TestShareValidation:
    def test_tampered_certificate_rejected(self):
        """A forged global share (certificate for a different batch)
        must be discarded by receivers."""
        deployment = Deployment(geo_config(duration=1.0))
        run_deployment(deployment, until=1.0)
        receiver = deployment.replicas[replica_id(2, 1)]
        sender = deployment.replicas[replica_id(1, 1)]
        # Take a real decided certificate from cluster 1 and tamper it.
        certificate = sender.engine.decision(sender.engine.decided_count)
        assert certificate is not None
        from repro.consensus.messages import (
            ClientRequestBatch, CommitCertificate,
        )
        from repro.ledger.block import Transaction
        evil_request = ClientRequestBatch(
            "evil", certificate.request.client,
            (Transaction("evil", "update", 1, "hacked"),),
            certificate.request.signature,
        )
        forged_cert = CommitCertificate(
            certificate.cluster_id, 999, certificate.view, evil_request,
            certificate.commits,
        )
        before = receiver.ordering.has_share(999, 1)
        receiver._on_global_share(
            GlobalShare(999, 1, forged_cert, forwarded=False), sender.node_id
        )
        assert before is False
        assert receiver.ordering.has_share(999, 1) is False


class TestResendWithoutViewChange:
    def test_current_primary_answers_late_rvc_by_resending(self):
        """Regression: if the remote cluster's RVC arrives *after* the
        faulty primary was already replaced (the 'recent local view
        change' suppression path), the current healthy primary must
        re-share the missing rounds itself — otherwise the requesting
        cluster stalls forever on the rounds whose shares died with the
        old primary."""
        deployment = Deployment(geo_config(
            duration=10.0, client_retry_timeout=1.5))
        # Crash Oregon's primary mid-run; its in-flight shares are lost.
        deployment.sim.schedule(
            1.0, deployment.network.failures.crash, replica_id(1, 1))
        result = deployment.run()
        assert result.safety_ok
        iowa = [r for n, r in deployment.replicas.items() if n.cluster == 2]
        oregon_alive = [r for n, r in deployment.replicas.items()
                        if n.cluster == 1 and n.index != 1]
        # Iowa caught up with Oregon's decisions despite the crash: its
        # executed rounds track Oregon's decided rounds, not just the
        # pre-crash prefix.
        oregon_decided = max(r.engine.decided_count for r in oregon_alive)
        iowa_rounds = max(r.executed_rounds for r in iowa)
        assert oregon_decided > 20
        assert iowa_rounds > 0.5 * oregon_decided
