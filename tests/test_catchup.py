"""Tests for checkpoint catch-up (the certified decision-transfer
protocol standing in for PBFT state transfer)."""

import pytest

from repro.consensus.messages import DecisionTransfer, FetchDecision
from repro.consensus.pbft import PbftConfig
from repro.types import replica_id

from .test_pbft import PbftHarness


class TestDecisionCatchUp:
    def test_partitioned_replica_catches_up_after_heal(self):
        """A replica that misses a stretch of decisions (partitioned
        away) learns of them via stable checkpoints and fetches the
        certified decisions from peers."""
        h = PbftHarness(n=4, config=PbftConfig(
            checkpoint_interval=2, view_change_timeout=30.0))
        laggard = h.replicas[3]
        # Cut the laggard off from everyone.
        for other in h.replicas[:3]:
            h.network.failures.sever_bidirectional(laggard.node_id,
                                                   other.node_id)
        for _ in range(6):
            h.submit(h.make_request())
        h.run(until=2.0)
        assert laggard.engine.decided_count == 0
        assert h.primary.engine.decided_count == 6
        # Heal; the next checkpointed decisions trigger catch-up.
        for other in h.replicas[:3]:
            h.network.failures.heal(laggard.node_id, other.node_id)
            h.network.failures.heal(other.node_id, laggard.node_id)
        for _ in range(2):
            h.submit(h.make_request())
        h.run(until=6.0)
        assert laggard.engine.decided_count == 8
        assert laggard.ledger.height == 8
        assert laggard.ledger.matches_prefix_of(h.primary.ledger)

    def test_fetch_request_answered_with_certified_decision(self):
        h = PbftHarness(n=4)
        h.submit(h.make_request())
        h.run(until=1.0)
        holder = h.replicas[1]
        requester = h.replicas[2]
        transfers = []
        h.network.add_observer(
            lambda src, dst, msg, size, local:
            transfers.append((dst, msg))
            if isinstance(msg, DecisionTransfer) else None)
        fetch = FetchDecision(holder.engine.cluster_id, 1,
                              requester.node_id)
        holder.engine._on_fetch_decision(fetch, requester.node_id)
        h.run(until=2.0)
        assert transfers
        dst, transfer = transfers[0]
        assert dst == requester.node_id
        assert transfer.seq == 1
        assert transfer.certificate.request.batch_id.startswith("b")

    def test_unknown_seq_fetch_ignored(self):
        h = PbftHarness(n=4)
        h.submit(h.make_request())
        h.run(until=1.0)
        holder = h.replicas[1]
        before = h.sim.pending_events
        fetch = FetchDecision(holder.engine.cluster_id, 99,
                              h.replicas[2].node_id)
        holder.engine._on_fetch_decision(fetch, h.replicas[2].node_id)
        # No decision 99 -> no reply scheduled.
        assert h.sim.pending_events == before

    def test_bogus_transfer_rejected(self):
        """A Byzantine peer cannot inject a fake decision: the transfer
        must carry a valid commit certificate."""
        h = PbftHarness(n=4)
        h.submit(h.make_request())
        h.run(until=1.0)
        victim = h.replicas[2]
        good_request = h.make_request()
        from repro.consensus.messages import Commit, CommitCertificate
        fake_commits = tuple(
            Commit(victim.engine.cluster_id, 0, 5, good_request.digest(),
                   replica_id(1, i), h.client_signer.sign("junk"))
            for i in range(1, 4)
        )
        fake_cert = CommitCertificate(victim.engine.cluster_id, 5, 0,
                                      good_request, fake_commits)
        transfer = DecisionTransfer(victim.engine.cluster_id, 5,
                                    good_request, fake_cert)
        decided_before = victim.engine.decided_count
        victim.engine._on_decision_transfer(transfer,
                                            h.replicas[1].node_id)
        assert victim.engine.decided_count == decided_before
        assert victim.engine.decision(5) is None

    def test_transfer_for_already_decided_seq_is_noop(self):
        h = PbftHarness(n=4)
        h.submit(h.make_request())
        h.run(until=1.0)
        replica = h.replicas[1]
        certificate = replica.engine.decision(1)
        transfer = DecisionTransfer(replica.engine.cluster_id, 1,
                                    certificate.request, certificate)
        before = replica.ledger.height
        replica.engine._on_decision_transfer(transfer,
                                             h.replicas[2].node_id)
        assert replica.ledger.height == before
