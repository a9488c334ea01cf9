"""Adversarial tests: equivocation, replay, impersonation, partitions.

These exercise the safety arguments of §2: non-divergence must survive
actively malicious primaries and forwarders, and liveness must return
once communication becomes reliable again (the paper's asynchronous
model caveat)."""

import pytest

from repro.bench.deployment import Deployment, ExperimentConfig
from repro.consensus.messages import GlobalShare, PrePrepare
from repro.consensus.pbft import PbftConfig
from repro.core.config import GeoBftConfig
from repro.ledger.block import Transaction
from repro.types import replica_id

from .conftest import small_config


class TestEquivocatingPrimary:
    def test_equivocation_never_diverges_replicas(self):
        """A Byzantine primary proposes different batches for the same
        sequence number to different backups.  Quorum intersection
        guarantees at most one can commit — never both."""
        from .test_pbft import PbftHarness

        h = PbftHarness(n=4)
        request_a = h.make_request()
        request_b = h.make_request()
        primary = h.primary.node_id
        pp_a = PrePrepare(0, 0, 1, request_a.digest(), request_a)
        pp_b = PrePrepare(0, 0, 1, request_b.digest(), request_b)
        # The primary equivocates: A to backup 1, B to backups 2 and 3.
        h.network.send(primary, h.replicas[1].node_id, pp_a)
        h.network.send(primary, h.replicas[2].node_id, pp_b)
        h.network.send(primary, h.replicas[3].node_id, pp_b)
        h.run(until=5.0)
        decided_digests = set()
        for replica in h.replicas[1:]:
            if replica.ledger.height > 0:
                decided_digests.add(replica.ledger.block(0).batch_digest)
        assert len(decided_digests) <= 1

    def test_equivocation_cannot_commit_both_sides(self):
        from .test_pbft import PbftHarness

        h = PbftHarness(n=4)
        request_a = h.make_request()
        request_b = h.make_request()
        primary = h.primary.node_id
        # 2-2 split: neither side can reach a 3-replica prepare quorum
        # that excludes the other (primary's pre-prepare counts once
        # per side it claims, but commits need n - f matching).
        h.network.send(primary, h.replicas[1].node_id,
                       PrePrepare(0, 0, 1, request_a.digest(), request_a))
        h.network.send(primary, h.replicas[2].node_id,
                       PrePrepare(0, 0, 1, request_b.digest(), request_b))
        h.run(until=1.0)
        committed = [r for r in h.replicas[1:] if r.ledger.height > 0]
        # With a 1-1 split plus silent third backup, nothing commits.
        digests = {r.ledger.block(0).batch_digest for r in committed}
        assert len(digests) <= 1


class TestReplayAttacks:
    def test_replayed_global_share_for_executed_round_ignored(self):
        deployment = Deployment(small_config("geobft", duration=2.0))
        shares = []
        deployment.network.add_observer(
            lambda s, d, m, size, local:
            shares.append(m) if isinstance(m, GlobalShare)
            and not local else None)
        deployment.run()
        assert shares
        replay = shares[0]
        victim = deployment.replicas[replica_id(2, 2)]
        rounds_before = victim.executed_rounds
        ledger_before = victim.ledger.height
        victim._on_global_share(replay, replica_id(1, 1))
        assert victim.executed_rounds == rounds_before
        assert victim.ledger.height == ledger_before

    def test_duplicate_client_request_executed_once(self):
        deployment = Deployment(small_config("geobft", duration=2.0))
        deployment.run()
        replica = deployment.replicas[replica_id(1, 1)]
        txn_ids = [txn.txn_id for block in replica.ledger
                   for txn in block.batch]
        assert len(txn_ids) == len(set(txn_ids))


class TestImpersonation:
    def test_forged_share_with_stolen_commits_rejected(self):
        """A Byzantine forwarder rebuilds a certificate around its own
        evil request; the commit signatures no longer match."""
        from repro.consensus.messages import (
            ClientRequestBatch,
            CommitCertificate,
        )

        deployment = Deployment(small_config("geobft", duration=1.5))
        deployment.run()
        sender = deployment.replicas[replica_id(1, 1)]
        receiver = deployment.replicas[replica_id(2, 1)]
        round_id = max(sender._own_decisions)
        certificate = sender._own_decisions[round_id]
        request = certificate.request
        evil = ClientRequestBatch(
            "evil", request.client,
            (Transaction("evil", "update", 0, "corrupted"),),
            request.signature,
        )
        forged = CommitCertificate(1, 7777, certificate.view, evil,
                                   certificate.commits)
        receiver._on_global_share(GlobalShare(7777, 1, forged, forwarded=False),
                                  sender.node_id)
        assert not receiver.ordering.has_share(7777, 1)


class TestPartitions:
    def test_isolated_cluster_stalls_then_recovers_on_heal(self):
        """Sever all links into cluster 2, let GeoBFT stall, heal, and
        verify rounds resume — liveness returns with reliable
        communication (Theorem 2.8's precondition)."""
        config = small_config(
            "geobft", duration=12.0, fast_crypto=True,
            client_retry_timeout=2.0,
            geobft=GeoBftConfig(
                pbft=PbftConfig(view_change_timeout=1.5,
                                new_view_timeout=1.5),
                remote_timeout=1.5,
            ),
        )
        deployment = Deployment(config)
        cluster1 = deployment.cluster_members[1]
        cluster2 = deployment.cluster_members[2]
        failures = deployment.network.failures
        for a in cluster1:
            for b in cluster2:
                failures.sever_bidirectional(a, b)
        # Heal at t = 4 s.
        deployment.sim.schedule(4.0, lambda: [
            failures.heal(a, b) or failures.heal(b, a)
            for a in cluster1 for b in cluster2
        ])
        result = deployment.run()
        assert result.safety_ok
        rounds = [r.executed_rounds for r in deployment.replicas.values()]
        assert min(rounds) > 0  # recovered after heal


class TestForgedProtocolArtifacts:
    def test_hotstuff_forged_qc_rejected(self):
        """A QC whose signatures do not verify never advances a phase."""
        from repro.consensus.messages import HsProposal, HsQuorumCert
        from repro.crypto.signatures import Signature

        deployment = Deployment(small_config("hotstuff", duration=1.0,
                                             warmup=0.2))
        deployment.run()
        victim = deployment.replicas[replica_id(2, 2)]
        leader = deployment.replicas[replica_id(1, 1)]
        fake_sigs = tuple(
            Signature(replica_id(1, i), b"\x00" * 32) for i in range(1, 7)
        )
        qc = HsQuorumCert("prepare", 0, 9999, b"d" * 32, fake_sigs)
        proposal = HsProposal("precommit", 0, 9999, b"d" * 32, None, qc)
        before = len(victim._states)
        victim._process_proposal(proposal, leader.node_id)
        state = victim._states.get((0, 9999))
        # The forged QC must not have produced a vote.
        assert state is None or "precommit" not in state.voted

    def test_steward_forged_forward_rejected(self):
        """A site forward whose certificate does not verify is dropped
        by the primary cluster."""
        from repro.consensus.messages import (
            ClientRequestBatch,
            Commit,
            CommitCertificate,
            StewardForward,
        )

        deployment = Deployment(small_config(
            "steward", duration=1.0, warmup=0.2, steward_crypto_factor=1.0))
        deployment.run()
        leader = deployment.replicas[replica_id(1, 1)]
        evil_batch = (Transaction("forged", "update", 0, "x"),)
        request = ClientRequestBatch("forged-batch", replica_id(2, 1),
                                     evil_batch, None)
        fake_commits = tuple(
            Commit(2, 0, 1, request.digest(), replica_id(2, i), None)
            for i in range(1, 4)
        )
        cert = CommitCertificate(2, 1, 0, request, fake_commits)
        forward = StewardForward(2, 1, request, cert)
        before = leader.engine.queued_requests + leader.engine.in_flight
        leader._on_forward(forward, replica_id(2, 1))
        assert "forged-batch" not in leader._submitted_to_global
