"""Tests for heterogeneous cluster sizes (paper §2.5: GeoBFT "can
easily be extended to also work with clusters of varying size")."""

import pytest

from repro.bench.deployment import Deployment, ExperimentConfig
from repro.bench.scenarios import apply_scenario
from repro.consensus.messages import (ClientRequestBatch, Commit,
                                      CommitCertificate, GlobalShare, Rvc,
                                      StewardForward)
from repro.errors import ConfigurationError
from repro.ledger.block import Transaction
from repro.types import client_id, replica_id


def hetero_config(protocol="geobft", sizes=(4, 7), **overrides):
    defaults = dict(
        protocol=protocol,
        num_clusters=len(sizes),
        replicas_per_cluster=4,
        cluster_sizes=list(sizes),
        batch_size=4,
        clients_per_cluster=1,
        client_outstanding=2,
        duration=2.5,
        warmup=0.5,
        record_count=300,
        seed=61,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfiguration:
    def test_sizes_must_match_cluster_count(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(num_clusters=3, cluster_sizes=[4, 4])

    def test_minimum_size_enforced_per_cluster(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(num_clusters=2, cluster_sizes=[4, 3])

    def test_size_of_cluster(self):
        config = hetero_config(sizes=(4, 7, 10), duration=1.0, warmup=0.1)
        assert config.size_of_cluster(1) == 4
        assert config.size_of_cluster(2) == 7
        assert config.size_of_cluster(3) == 10


class TestGeoBftHeterogeneous:
    def test_mixed_cluster_sizes_reach_consensus(self):
        deployment = Deployment(hetero_config(sizes=(4, 7)))
        result = deployment.run()
        assert result.safety_ok
        assert result.throughput_txn_s > 0
        assert len(deployment.cluster_members[1]) == 4
        assert len(deployment.cluster_members[2]) == 7
        for replica in deployment.replicas.values():
            assert replica.executed_rounds > 2

    def test_sharing_respects_per_cluster_f(self):
        """f + 1 targets are computed from the *receiving* cluster's
        size: 2 messages into the n=4 cluster, 3 into the n=7 one."""
        deployment = Deployment(hetero_config(sizes=(4, 7)))
        from repro.consensus.messages import GlobalShare
        into = {1: set(), 2: set()}

        def observer(src, dst, msg, size, local):
            if (isinstance(msg, GlobalShare) and not local
                    and msg.round_id == 3):
                into[dst.cluster].add(dst)

        deployment.network.add_observer(observer)
        deployment.run()
        assert len(into[1]) == 2  # f(4) + 1
        assert len(into[2]) == 3  # f(7) + 1

    def test_f_backups_scenario_uses_per_cluster_f(self):
        deployment = Deployment(hetero_config(sizes=(4, 7)))
        victims = apply_scenario(deployment, "f_backups")
        by_cluster = {}
        for victim in victims:
            by_cluster.setdefault(victim.cluster, []).append(victim)
        assert len(by_cluster[1]) == 1  # f of n=4
        assert len(by_cluster[2]) == 2  # f of n=7

    def test_survives_per_cluster_worst_case(self):
        deployment = Deployment(hetero_config(sizes=(4, 7), duration=4.0))
        apply_scenario(deployment, "f_backups")
        result = deployment.run()
        assert result.safety_ok
        assert result.throughput_txn_s > 0


class TestStewardHeterogeneous:
    def test_mixed_sizes_work(self):
        deployment = Deployment(hetero_config(
            protocol="steward", sizes=(4, 7), steward_crypto_factor=2.0))
        result = deployment.run()
        assert result.safety_ok
        assert result.throughput_txn_s > 0


class TestClientQuorums:
    def test_reply_quorum_tracks_cluster_size(self):
        deployment = Deployment(hetero_config(sizes=(4, 7)))
        small = [c for c in deployment.clients if c.node_id.cluster == 1][0]
        large = [c for c in deployment.clients if c.node_id.cluster == 2][0]
        assert small._q.one_honest == 2  # f(4) + 1
        assert large._q.one_honest == 3  # f(7) + 1


def certificate_from(deployment, cluster, signers, round_id=1):
    """A commit certificate of ``cluster`` for ``round_id``, signed by
    its first ``signers`` replicas."""
    request = ClientRequestBatch(
        f"b{cluster}.{round_id}", client_id(cluster, 1),
        (Transaction("t1", "update", 1, "v"),), None)
    commits = []
    for i in range(1, signers + 1):
        node = replica_id(cluster, i)
        unsigned = Commit(cluster, 0, round_id, request.digest(), node, None)
        commits.append(Commit(cluster, 0, round_id, request.digest(), node,
                              deployment.registry.register(node)
                              .sign(unsigned)))
    return CommitCertificate(cluster, round_id, 0, request, tuple(commits))


class TestPerClusterThresholds:
    """On unequal clusters every check uses the thresholds of the cluster
    that produced the evidence, never the receiver's own.  Honest runs
    cannot show the difference (honest certificates carry enough commits
    either way), so each test hands a replica the borderline message."""

    @pytest.mark.parametrize("signers, accepted", [(4, False), (5, True)])
    def test_geobft_share_needs_the_senders_n_minus_f(self, signers,
                                                      accepted):
        deployment = Deployment(hetero_config(sizes=(4, 7)))
        receiver = deployment.replicas[replica_id(1, 2)]
        cert = certificate_from(deployment, 2, signers)
        receiver._on_global_share(GlobalShare(1, 2, cert, forwarded=False),
                                  replica_id(2, 1))
        # n - f of the n = 7 cluster is 5; the receiver's own is 3.
        assert receiver.ordering.has_share(1, 2) is accepted

    @pytest.mark.parametrize("signers, accepted", [(4, False), (5, True)])
    def test_steward_forward_needs_the_origins_n_minus_f(self, signers,
                                                         accepted):
        deployment = Deployment(hetero_config(
            protocol="steward", sizes=(4, 7), steward_crypto_factor=2.0))
        receiver = deployment.replicas[replica_id(1, 2)]  # primary cluster
        cert = certificate_from(deployment, 2, signers)
        receiver._on_forward(StewardForward(2, 1, cert.request, cert),
                             replica_id(2, 1))
        assert (cert.request.batch_id
                in receiver._submitted_to_global) is accepted

    def test_rvc_needs_one_honest_of_the_requesting_cluster(self):
        deployment = Deployment(hetero_config(sizes=(4, 7)))
        # A backup: the primary would re-share at once and clear the mark.
        manager = deployment.replicas[replica_id(2, 2)].remote_view_changes
        for count, sender in enumerate((replica_id(1, 1), replica_id(1, 2)),
                                       start=1):
            unsigned = Rvc(2, 1, 0, sender, None)
            rvc = Rvc(2, 1, 0, sender,
                      deployment.registry.register(sender).sign(unsigned))
            manager.handle_rvc(rvc, sender)
            # f + 1 of the n = 4 requester is 2; the receiver's own is 3.
            assert manager.pending_resend == ({} if count < 2 else {1: 1})
