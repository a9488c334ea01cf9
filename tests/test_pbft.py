"""Tests for the PBFT engine and replica: normal case, checkpoints,
view changes, and robustness to malformed traffic."""

import pytest

from repro.consensus.messages import (
    ClientReply,
    ClientRequestBatch,
    Commit,
    PrePrepare,
)
from repro.consensus.pbft import PbftConfig, PbftReplica
from repro.crypto.costs import CryptoCostModel
from repro.crypto.signatures import KeyRegistry
from repro.errors import ConfigurationError
from repro.ledger.block import Transaction
from repro.net.network import Network
from repro.net.simulator import Simulation
from repro.net.topology import Topology
from repro.types import client_id, replica_id


class RecordingClient:
    """A network node that records replies."""

    def __init__(self, node_id, region, network):
        self.node_id = node_id
        self.region = region
        self.replies = []
        network.register(self)

    def deliver(self, message, sender):
        if isinstance(message, ClientReply):
            self.replies.append((message, sender))


class PbftHarness:
    """A tiny single-region PBFT group driven directly."""

    def __init__(self, n=4, costs=None, config=None):
        self.sim = Simulation(seed=1)
        self.topology = Topology.uniform(["r1"], rtt_ms=2.0)
        self.network = Network(self.sim, self.topology)
        self.registry = KeyRegistry()
        members = [replica_id(1, i) for i in range(1, n + 1)]
        self.replicas = [
            PbftReplica(
                node, "r1", self.sim, self.network, self.registry,
                members=members,
                config=config or PbftConfig(view_change_timeout=0.5,
                                            new_view_timeout=0.5),
                costs=costs or CryptoCostModel.free(),
                record_count=100,
            )
            for node in members
        ]
        self.client = RecordingClient(client_id(1, 1), "r1", self.network)
        self.client_signer = self.registry.register(self.client.node_id)
        self._counter = 0

    @property
    def primary(self):
        return self.replicas[0]

    def make_request(self, n_txns=2):
        self._counter += 1
        batch = tuple(
            Transaction(f"t{self._counter}-{i}", "update", i, "v")
            for i in range(n_txns)
        )
        unsigned = ClientRequestBatch(
            f"b{self._counter}", self.client.node_id, batch, None)
        return ClientRequestBatch(
            unsigned.batch_id, unsigned.client, unsigned.batch,
            self.client_signer.sign(unsigned.payload()),
        )

    def submit(self, request, to=None):
        target = to if to is not None else self.primary.node_id
        self.network.send(self.client.node_id, target, request)

    def run(self, until):
        self.sim.run(until=until)


class UrgentBatch(ClientRequestBatch):
    """A message subclass no route names."""


class TestRouting:
    def test_message_subclass_takes_its_base_class_route(self):
        costs = CryptoCostModel()
        h = PbftHarness(costs=costs)
        request = h.make_request()
        h.primary.deliver(
            UrgentBatch(request.batch_id, request.client, request.batch,
                        request.signature), h.client.node_id)
        assert h.primary.certify_backlog() == pytest.approx(
            costs.message_overhead + costs.mac_verify + costs.verify)
        h.run(until=1.0)
        assert all(r.engine.decided_count == 1 for r in h.replicas)
        assert len(h.client.replies) == 4

    def test_unrouted_message_is_dropped(self):
        h = PbftHarness()
        h.network.send(h.client.node_id, h.primary.node_id,
                       ClientReply("b", h.primary.node_id, 0, 1, b"r", 1))
        h.run(until=1.0)
        assert h.primary.engine.decided_count == 0
        assert h.primary.certify_backlog() == 0.0


class TestNormalCase:
    def test_single_request_commits_everywhere(self):
        h = PbftHarness()
        h.submit(h.make_request())
        h.run(until=1.0)
        assert all(r.engine.decided_count == 1 for r in h.replicas)
        assert all(r.ledger.height == 1 for r in h.replicas)

    def test_client_gets_replies_from_all_replicas(self):
        h = PbftHarness()
        h.submit(h.make_request())
        h.run(until=1.0)
        assert len(h.client.replies) == 4
        digests = {m.results_digest for m, _ in h.client.replies}
        assert len(digests) == 1  # deterministic execution

    def test_requests_decided_in_submission_order(self):
        h = PbftHarness()
        first, second = h.make_request(), h.make_request()
        h.submit(first)
        h.submit(second)
        h.run(until=1.0)
        ledger = h.primary.ledger
        assert ledger.height == 2
        assert ledger.block(0).batch == first.batch
        assert ledger.block(1).batch == second.batch

    def test_duplicate_request_decided_once(self):
        h = PbftHarness()
        request = h.make_request()
        h.submit(request)
        h.submit(request)
        h.run(until=1.0)
        assert h.primary.engine.decided_count == 1

    def test_backup_forwards_client_request_to_primary(self):
        h = PbftHarness()
        backup = h.replicas[1]
        h.submit(h.make_request(), to=backup.node_id)
        h.run(until=1.0)
        assert h.primary.engine.decided_count == 1

    def test_ledgers_are_identical(self):
        h = PbftHarness()
        for _ in range(5):
            h.submit(h.make_request())
        h.run(until=2.0)
        head = h.primary.ledger.head_hash
        assert all(r.ledger.head_hash == head for r in h.replicas)

    def test_pipeline_depth_limits_in_flight(self):
        h = PbftHarness(config=PbftConfig(pipeline_depth=1,
                                          view_change_timeout=10.0))
        for _ in range(3):
            h.submit(h.make_request())
        h.run(until=5.0)
        assert h.primary.engine.decided_count == 3  # all complete eventually

    def test_unsigned_request_rejected(self):
        h = PbftHarness()
        batch = (Transaction("x", "update", 1, "v"),
                 Transaction("y", "update", 2, "v"))
        bogus = ClientRequestBatch("bogus", h.client.node_id, batch, None)
        h.submit(bogus)
        h.run(until=1.0)
        assert h.primary.engine.decided_count == 0

    def test_badly_signed_request_rejected(self):
        h = PbftHarness()
        good = h.make_request()
        tampered = ClientRequestBatch(
            good.batch_id, good.client,
            good.batch + (Transaction("evil", "update", 1, "x"),),
            good.signature,
        )
        h.submit(tampered)
        h.run(until=1.0)
        assert h.primary.engine.decided_count == 0


class TestCheckpoints:
    def test_checkpoint_stabilizes_and_garbage_collects(self):
        h = PbftHarness(config=PbftConfig(checkpoint_interval=2,
                                          view_change_timeout=10.0))
        for _ in range(6):
            h.submit(h.make_request())
        h.run(until=3.0)
        for replica in h.replicas:
            assert replica.engine.stable_seq >= 4
            assert replica.engine.decided_count == 6

    def test_progress_continues_after_checkpoints(self):
        h = PbftHarness(config=PbftConfig(checkpoint_interval=1,
                                          view_change_timeout=10.0))
        for _ in range(4):
            h.submit(h.make_request())
        h.run(until=3.0)
        assert h.primary.engine.decided_count == 4


class TestViewChange:
    def test_primary_crash_triggers_view_change_and_progress(self):
        h = PbftHarness()
        h.submit(h.make_request())
        h.run(until=1.0)
        assert h.primary.engine.decided_count == 1
        # Crash the primary, then submit to a backup.
        h.network.failures.crash(h.primary.node_id)
        request = h.make_request()
        for replica in h.replicas[1:]:
            h.submit(request, to=replica.node_id)
        h.run(until=10.0)
        alive = h.replicas[1:]
        assert all(r.engine.view >= 1 for r in alive)
        assert all(r.engine.primary == h.replicas[1].node_id
                   for r in alive)
        assert all(r.engine.decided_count == 2 for r in alive)

    def test_new_primary_reproposes_prepared_requests(self):
        """A request that prepared before the crash survives into the
        new view (PBFT safety across view changes)."""
        h = PbftHarness()
        request = h.make_request()
        # Let the primary order it but crash before commits finish:
        # sever the primary's commit-phase by crashing it right after
        # the pre-prepare propagates.
        h.submit(request)
        h.run(until=0.004)  # preprepare + prepares in flight (2ms RTT)
        h.network.failures.crash(h.primary.node_id)
        h.run(until=10.0)
        alive = h.replicas[1:]
        decided_batches = [
            tuple(txn.txn_id for block in r.ledger for txn in block.batch)
            for r in alive
        ]
        # All alive replicas agree, and if anything was decided it is
        # the original request (never a conflicting one).
        assert len(set(decided_batches)) == 1
        for batches in decided_batches:
            for txn_id in batches:
                assert txn_id.startswith("t1-")

    def test_view_change_excludes_committed_state_divergence(self):
        h = PbftHarness()
        for _ in range(3):
            h.submit(h.make_request())
        h.run(until=1.0)
        h.network.failures.crash(h.primary.node_id)
        request = h.make_request()
        for replica in h.replicas[1:]:
            h.submit(request, to=replica.node_id)
        h.run(until=10.0)
        heads = {r.ledger.head_hash for r in h.replicas[1:]}
        assert len(heads) == 1
        assert all(r.ledger.height == 4 for r in h.replicas[1:])

    def test_force_view_change(self):
        h = PbftHarness()
        for replica in h.replicas:
            replica.engine.force_view_change()
        h.run(until=5.0)
        assert all(r.engine.view == 1 for r in h.replicas)
        assert all(not r.engine.in_view_change for r in h.replicas)

    def test_consecutive_primary_failures_escalate(self):
        h = PbftHarness(n=7)
        h.network.failures.crash(h.replicas[0].node_id)
        h.network.failures.crash(h.replicas[1].node_id)
        request = h.make_request()
        for replica in h.replicas[2:]:
            h.submit(request, to=replica.node_id)
        h.run(until=30.0)
        alive = h.replicas[2:]
        assert all(r.engine.view >= 2 for r in alive)
        assert all(r.engine.decided_count == 1 for r in alive)


class TestValidation:
    def test_preprepare_from_non_primary_ignored(self):
        h = PbftHarness()
        request = h.make_request()
        backup = h.replicas[1]
        fake = PrePrepare(0, 0, 1, request.digest(), request)
        h.network.send(backup.node_id, h.replicas[2].node_id, fake)
        h.run(until=1.0)
        assert h.replicas[2].engine.decided_count == 0

    def test_commit_with_forged_signature_ignored(self):
        h = PbftHarness()
        request = h.make_request()
        h.submit(request)
        h.run(until=0.001)
        victim = h.replicas[2]
        # A Byzantine replica fabricates a commit claiming to be r1.4.
        forged = Commit(0, 0, 1, request.digest(), replica_id(1, 4),
                        h.client_signer.sign("wrong-payload"))
        h.network.send(h.replicas[1].node_id, victim.node_id, forged)
        h.run(until=1.0)
        # Consensus still works, exactly once, via legitimate commits.
        assert victim.engine.decided_count == 1

    def test_engine_requires_owner_membership(self):
        h = PbftHarness()
        from repro.consensus.pbft import PbftEngine
        with pytest.raises(ConfigurationError):
            PbftEngine(
                owner=h.replicas[0],
                cluster_id=0,
                members=[replica_id(2, 1)],
                config=PbftConfig(),
                on_decide=lambda *a: None,
            )

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            PbftConfig(pipeline_depth=0)
        with pytest.raises(ConfigurationError):
            PbftConfig(checkpoint_interval=0)

    @pytest.mark.parametrize("field,value", [
        ("checkpoint_interval", 2.5),
        ("checkpoint_interval", True),
        ("pipeline_depth", 8.0),
        ("decision_retention", 1.5),
        ("decision_retention", -1),
        ("view_change_timeout", 0),
        ("view_change_timeout", float("nan")),
        ("new_view_timeout", -2.0),
        ("new_view_timeout", float("inf")),
    ])
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            PbftConfig(**{field: value})
