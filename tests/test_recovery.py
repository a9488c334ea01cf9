"""Tests for replica recovery from a peer's ledger (paper §3)."""

import pytest

from repro.bench.deployment import Deployment, deployment_digest
from repro.bench.scenarios import apply_scenario
from repro.crypto.digests import digest_of
from repro.errors import TamperedLedgerError
from repro.ledger.block import Block, Transaction
from repro.ledger.execution import _MEMO_MAX
from repro.ledger.recovery import (
    audit_ledger,
    rebuild_state,
    recover_from_peer,
)
from repro.net.simulator import Simulation
from repro.types import replica_id

from .conftest import small_config


@pytest.fixture(scope="module")
def finished_deployment():
    deployment = Deployment(small_config("geobft", fast_crypto=True,
                                         duration=2.0, warmup=0.4))
    deployment.run()
    return deployment


class TestAudit:
    def test_honest_ledger_passes(self, finished_deployment):
        peer = finished_deployment.replicas[replica_id(1, 2)]
        height = audit_ledger(peer.ledger)
        assert height == peer.ledger.height > 0

    def test_tampered_ledger_rejected(self, finished_deployment):
        peer = finished_deployment.replicas[replica_id(1, 3)]
        original = peer.ledger.block(0)
        evil = Block(
            original.height, original.round_id, original.cluster_id,
            (Transaction("evil", "update", 0, "bad"),),
            original.batch_digest, original.certificate,
            original.prev_hash,
        )
        peer.ledger.tamper_for_test(0, evil)
        try:
            with pytest.raises(TamperedLedgerError):
                audit_ledger(peer.ledger)
        finally:
            peer.ledger.tamper_for_test(0, original)


class TestRebuild:
    def test_state_matches_live_replicas(self, finished_deployment):
        deployment = finished_deployment
        peer = deployment.replicas[replica_id(2, 1)]
        store, engine = rebuild_state(
            peer.ledger, deployment.config.record_count)
        assert engine.executed_txns > 0
        # A live replica that executed the same number of rounds holds
        # the same state digest.
        twins = [r for r in deployment.replicas.values()
                 if r.ledger.height == peer.ledger.height]
        assert any(t.store.state_digest() == store.state_digest()
                   for t in twins)

    def test_recover_from_peer_end_to_end(self, finished_deployment):
        deployment = finished_deployment
        peer = deployment.replicas[replica_id(2, 2)]
        ledger, store = recover_from_peer(
            peer.ledger, deployment.config.record_count)
        assert ledger.height == peer.ledger.height
        assert ledger.head_hash == peer.ledger.head_hash
        assert store.state_digest() == peer.store.state_digest()
        ledger.verify(deep=True)

    def test_recovery_rejects_corrupt_source(self, finished_deployment):
        deployment = finished_deployment
        peer = deployment.replicas[replica_id(1, 4)]
        original = peer.ledger.block(1)
        evil = Block(
            original.height, original.round_id, original.cluster_id,
            original.batch, b"\x11" * 32, original.certificate,
            original.prev_hash,
        )
        peer.ledger.tamper_for_test(1, evil)
        try:
            with pytest.raises(TamperedLedgerError):
                recover_from_peer(peer.ledger,
                                  deployment.config.record_count)
        finally:
            peer.ledger.tamper_for_test(1, original)

    def test_forged_certificate_digest_cannot_be_planted(
            self, finished_deployment):
        """The block hash does not cover the certificate, so no audit
        could notice a forged stored digest — a block therefore stores
        none: the digest is derived from the certificate it carries."""
        deployment = finished_deployment
        peer = deployment.replicas[replica_id(2, 3)]
        original = peer.ledger.block(1)
        with pytest.raises(AttributeError):
            original.certificate_digest = b"\x11" * 32
        with pytest.raises(TypeError):
            Block(
                original.height, original.round_id, original.cluster_id,
                original.batch, original.batch_digest, original.certificate,
                original.prev_hash, certificate_digest=b"\x11" * 32,
            )
        ledger, _store = recover_from_peer(
            peer.ledger, deployment.config.record_count)
        assert ledger.height == peer.ledger.height > 1
        for height in range(ledger.height):
            assert (ledger.block(height).certificate_digest
                    == digest_of(peer.ledger.certificate(height)))


def _assert_stores_match_ledgers(deployment):
    """Every replica's store holds what replaying its own ledger gives."""
    count = deployment.config.record_count
    for replica in deployment.replicas.values():
        rebuilt, _engine = rebuild_state(replica.ledger, count)
        assert (list(replica.store.snapshot().items())
                == list(rebuilt.snapshot().items()))
        assert replica.store.state_digest() == rebuilt.state_digest()


class TestSharedExecution:
    """Replicas' stores share one execution log (ledger/execution.py);
    what each replica reads back is still its own ledger's state."""

    def test_payment_network(self):
        deployment = Deployment(small_config("geobft", fast_crypto=True,
                                             duration=1.5, warmup=0.3))
        apply_scenario(deployment, "payment_network")
        deployment.run()
        assert deployment.execution_log.peak_length > 0
        _assert_stores_match_ledgers(deployment)

    def test_f_backups_leave_the_log_at_its_bound(self):
        deployment = Deployment(small_config("geobft", fast_crypto=True,
                                             duration=4.0, warmup=0.5))
        victims = set(apply_scenario(deployment, "f_backups", 0.3))
        deployment.run()
        log = deployment.execution_log
        # The crashed replicas' cursors held the log's oldest entry
        # until it reached the bound; then they, and only they, left.
        assert log.peak_length == _MEMO_MAX
        assert victims and all(
            (replica.store._log is None) == (node in victims)
            for node, replica in deployment.replicas.items())
        _assert_stores_match_ledgers(deployment)


def _run_counting_block_hashes(deployment, monkeypatch):
    """Run ``deployment``: its result and the blocks hashed in ``sim.run``
    (the audit after it re-hashes every chain)."""
    hashed = []
    real_hash, real_run = Block.block_hash, Simulation.run

    def counting_run(sim, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(Block, "block_hash",
                          lambda block: hashed.append(block)
                          or real_hash(block))
            return real_run(sim, *args, **kwargs)

    monkeypatch.setattr(Simulation, "run", counting_run)
    return deployment.run(), len(hashed)


def _verify_fails(ledger):
    try:
        ledger.verify()
    except TamperedLedgerError:
        return True
    return False


class TestSharedChain:
    """Replicas' ledgers are cursors into one chain log
    (ledger/blockchain.py): each block is built and hashed once per
    deployment, and a replica's ledger is still its own."""

    @pytest.mark.parametrize("protocol",
                             ["geobft", "pbft", "steward", "zyzzyva"])
    def test_fault_free_replicas_stay_attached(self, protocol,
                                               monkeypatch):
        deployment = Deployment(small_config(protocol, fast_crypto=True,
                                             duration=1.5, warmup=0.3))
        result, hashed = _run_counting_block_hashes(deployment, monkeypatch)
        log = deployment.chain_log
        assert result.safety_ok and hashed == len(log) > 0
        assert all(replica.ledger._log is log
                   for replica in deployment.replicas.values())

    def test_hotstuff_instances_detach(self, monkeypatch):
        """HotStuff's unsynchronized instances append the same blocks in
        different orders: here all of cluster 1 leaves the log at its
        first append, and the run is the one it was before sharing."""
        deployment = Deployment(small_config("hotstuff", fast_crypto=True,
                                             duration=1.5, warmup=0.3))
        result, hashed = _run_counting_block_hashes(deployment, monkeypatch)
        detached = sorted(str(node)
                          for node, replica in deployment.replicas.items()
                          if replica.ledger._log is None)
        assert detached == ["r1.1", "r1.2", "r1.3", "r1.4"]
        assert hashed == len(deployment.chain_log) * 5
        assert result.safety_ok
        assert deployment_digest(deployment, result) == (
            "d334b46768064f1a16a4aa7f831b99c9"
            "d90703ab7603761f05fbe417e77e6787")
        _assert_stores_match_ledgers(deployment)

    def test_tampering_one_attached_chain_fails_only_its_verify(
            self, finished_deployment):
        deployment = finished_deployment
        victim = deployment.replicas[replica_id(1, 1)]
        assert victim.ledger._log is deployment.chain_log
        original = victim.ledger.block(1)
        victim.ledger.tamper_for_test(1, Block(
            original.height, original.round_id, original.cluster_id,
            (Transaction("evil", "update", 0, "bad"),),
            original.batch_digest, original.certificate,
            original.prev_hash,
        ))
        try:
            assert victim.ledger._log is None
            assert [node for node, replica in deployment.replicas.items()
                    if _verify_fails(replica.ledger)] == [victim.node_id]
        finally:
            victim.ledger.tamper_for_test(1, original)
        victim.ledger.verify()
