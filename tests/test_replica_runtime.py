"""Tests for the replica runtime: CPU model, transport helpers,
execution lane."""

import json
from pathlib import Path

import pytest

from repro.consensus.hotstuff import HotStuffReplica
from repro.consensus.messages import (
    CertShare,
    Checkpoint,
    ClientRequestBatch,
    Commit,
    CommitCertificate,
    DecisionTransfer,
    Drvc,
    FetchDecision,
    GlobalShare,
    HsProposal,
    HsQuorumCert,
    HsVote,
    NewView,
    OrderedRequest,
    PrePrepare,
    Prepare,
    Rvc,
    StewardForward,
    StewardGlobalOrder,
    ThresholdCommitCertificate,
    ViewChange,
    ZyzzyvaCommitCert,
)
from repro.consensus.pbft import PbftReplica
from repro.consensus.replica import BaseReplica, CpuModel
from repro.consensus.steward import StewardReplica
from repro.consensus.zyzzyva import ZyzzyvaReplica
from repro.core.geobft import GeoBftReplica
from repro.crypto.costs import CryptoCostModel
from repro.crypto.signatures import KeyRegistry
from repro.ledger.block import Transaction
from repro.net.network import Network
from repro.net.simulator import Simulation
from repro.net.topology import Topology
from repro.types import client_id, replica_id

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


class EchoReplica(BaseReplica):
    """Records handled messages."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.handled = []

    def handle(self, message, sender):
        self.handled.append((message, sender, self.sim.now))


class Sized:
    def __init__(self, size=100):
        self._size = size

    def size_bytes(self):
        return self._size


class Ping(Sized):
    """Routed at a constant certify cost."""


class SubPing(Ping):
    """Not registered itself: must route as its base class does."""


class Weighed(Sized):
    """Routed at a certify cost computed from the message."""

    def __init__(self, weight):
        super().__init__()
        self.weight = weight


PING_COST = 0.25


class RoutedReplica(EchoReplica):
    """Registers two routes; everything else falls to ``handle``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pinged = []
        self.weighed = []
        self._routes.update({
            Ping: (PING_COST, self._on_ping),
            Weighed: (lambda message, sender: 0.125 * message.weight,
                      self._on_weighed),
        })

    def _on_ping(self, message, sender):
        self.pinged.append((message, sender, self.sim.now))

    def _on_weighed(self, message, sender):
        self.weighed.append((message, sender, self.sim.now))


@pytest.fixture
def rig():
    sim = Simulation(seed=1)
    topo = Topology.uniform(["r1"], rtt_ms=2.0)
    net = Network(sim, topo)
    registry = KeyRegistry()
    a = EchoReplica(replica_id(1, 1), "r1", sim, net, registry,
                    record_count=100)
    b = EchoReplica(replica_id(1, 2), "r1", sim, net, registry,
                    record_count=100)
    return sim, net, a, b


@pytest.fixture
def routed():
    sim = Simulation(seed=1)
    net = Network(sim, Topology.uniform(["r1"], rtt_ms=2.0))
    registry = KeyRegistry()
    a = EchoReplica(replica_id(1, 1), "r1", sim, net, registry,
                    record_count=100)
    b = RoutedReplica(replica_id(1, 2), "r1", sim, net, registry,
                      record_count=100)
    # One-way latency plus the worker-pool ingest cost: when a message
    # with no certify cost is handled.
    ingest_done = 0.001 + b.costs.message_overhead + b.costs.mac_verify
    return sim, net, a, b, ingest_done


class TestRouteTable:
    def test_registered_class_reaches_its_handler_at_its_cost(self, routed):
        sim, net, a, b, ingest_done = routed
        net.send(a.node_id, b.node_id, Ping())
        sim.run()
        assert b.handled == []
        [(message, sender, at)] = b.pinged
        assert type(message) is Ping and sender == a.node_id
        assert at == pytest.approx(ingest_done + PING_COST, rel=1e-3)

    def test_subclass_routes_as_its_base_class(self, routed):
        sim, net, a, b, ingest_done = routed
        net.send(a.node_id, b.node_id, SubPing())
        sim.run()
        assert b.handled == []
        [(message, _sender, at)] = b.pinged
        assert type(message) is SubPing
        assert at == pytest.approx(ingest_done + PING_COST, rel=1e-3)

    def test_cost_may_depend_on_the_message(self, routed):
        sim, net, a, b, ingest_done = routed
        net.send(a.node_id, b.node_id, Weighed(weight=4))
        sim.run()
        [(_message, _sender, at)] = b.weighed
        assert at == pytest.approx(ingest_done + 0.5, rel=1e-3)

    def test_unregistered_class_reaches_handle_at_no_certify_cost(
            self, routed):
        sim, net, a, b, ingest_done = routed
        net.send(a.node_id, b.node_id, Sized())
        sim.run()
        assert b.pinged == [] and b.weighed == []
        [(_message, sender, at)] = b.handled
        assert sender == a.node_id
        assert at == pytest.approx(ingest_done, rel=1e-3)
        assert b.certify_backlog() == 0.0

    def test_certify_work_serializes_across_messages(self, routed):
        sim, net, a, b, ingest_done = routed
        net.send(a.node_id, b.node_id, Ping(size=0))
        net.send(a.node_id, b.node_id, SubPing(size=0))
        sim.run()
        first, second = (at for _m, _s, at in b.pinged)
        assert first == pytest.approx(ingest_done + PING_COST, rel=1e-3)
        assert second == pytest.approx(first + PING_COST, rel=1e-3)

    def test_base_handle_drops_unrouted_messages(self):
        sim = Simulation(seed=1)
        net = Network(sim, Topology.uniform(["r1"]))
        registry = KeyRegistry()
        a = BaseReplica(replica_id(1, 1), "r1", sim, net, registry,
                        record_count=10)
        b = BaseReplica(replica_id(1, 2), "r1", sim, net, registry,
                        record_count=10)
        net.send(a.node_id, b.node_id, Sized())
        sim.run()  # must not raise
        assert sim.events_processed == 2  # delivery + dispatch


class TestCpuModel:
    def test_single_core_serializes(self):
        sim = Simulation()
        cpu = CpuModel(sim, cores=1)
        assert cpu.acquire(0.5) == pytest.approx(0.5)
        assert cpu.acquire(0.5) == pytest.approx(1.0)

    def test_multiple_cores_parallelize(self):
        sim = Simulation()
        cpu = CpuModel(sim, cores=2)
        assert cpu.acquire(0.5) == pytest.approx(0.5)
        assert cpu.acquire(0.5) == pytest.approx(0.5)
        assert cpu.acquire(0.5) == pytest.approx(1.0)

    def test_idle_cores_start_at_now(self):
        sim = Simulation()
        cpu = CpuModel(sim, cores=1)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert cpu.acquire(0.1) == pytest.approx(2.1)

    def test_zero_cores_clamped_to_one(self):
        sim = Simulation()
        cpu = CpuModel(sim, cores=0)
        assert cpu.acquire(1.0) == pytest.approx(1.0)

    def test_utilization_horizon(self):
        sim = Simulation()
        cpu = CpuModel(sim, cores=2)
        cpu.acquire(3.0)
        assert cpu.utilization_horizon() == pytest.approx(3.0)


class TestTransport:
    def test_message_cost_delays_handling(self, rig):
        sim, net, a, b = rig
        costs = b.costs
        net.send(a.node_id, b.node_id, Sized())
        sim.run()
        assert len(b.handled) == 1
        _msg, _sender, at = b.handled[0]
        expected = 0.001 + costs.message_overhead + costs.mac_verify
        assert at == pytest.approx(expected, rel=0.01)

    def test_crashed_replica_does_not_handle(self, rig):
        sim, net, a, b = rig
        net.send(a.node_id, b.node_id, Sized())
        net.failures.crash(b.node_id)
        sim.run()
        assert b.handled == []

    def test_crash_after_delivery_before_dispatch(self, rig):
        """A message already past the network is still dropped if the
        replica crashes before its CPU picks it up."""
        sim, net, a, b = rig
        net.send(a.node_id, b.node_id, Sized())
        # Crash at 1.001 ms: after delivery (1 ms), before dispatch
        # completes (1 ms + ~5 us would be fine, so use midpoint).
        sim.schedule(0.001001, net.failures.crash, b.node_id)
        sim.run()
        assert b.handled == []

    def test_broadcast_excludes_self_by_default(self, rig):
        sim, net, a, b = rig
        a.broadcast([a.node_id, b.node_id], Sized())
        sim.run()
        assert len(b.handled) == 1
        assert a.handled == []

    def test_sign_charges_cpu(self):
        sim = Simulation(seed=1)
        topo = Topology.uniform(["r1"])
        net = Network(sim, topo)
        registry = KeyRegistry()
        costs = CryptoCostModel(sign=0.5)
        replica = EchoReplica(replica_id(1, 1), "r1", sim, net, registry,
                              costs=costs, cores=1, record_count=10)
        replica.sign("x")
        assert replica._cpu.utilization_horizon() == pytest.approx(0.5)


class TestExecutionLane:
    def test_execution_is_serialized(self, rig):
        _sim, _net, a, _b = rig
        batch = tuple(Transaction(f"t{i}", "update", i, "v")
                      for i in range(10))
        _r1, done1 = a.execute_batch(batch)
        _r2, done2 = a.execute_batch(batch)
        per_batch = a.costs.execute_txn * 10
        assert done1 == pytest.approx(per_batch)
        assert done2 == pytest.approx(2 * per_batch)

    def test_send_at_defers_send(self, rig):
        sim, _net, a, b = rig
        a.send_at(0.5, b.node_id, Sized())
        sim.run(until=0.4)
        assert b.handled == []
        sim.run()
        assert len(b.handled) == 1

    def test_send_at_in_past_sends_immediately(self, rig):
        sim, _net, a, b = rig
        a.send_at(0.0, b.node_id, Sized())
        sim.run()
        assert len(b.handled) == 1

    def test_execute_batch_records_results(self, rig):
        _sim, _net, a, _b = rig
        batch = (Transaction("t1", "update", 1, "x"),
                 Transaction("t2", "read", 1))
        results, _done = a.execute_batch(batch)
        assert results == ["ok", "x"]
        assert a.executor.executed_txns == 2


# ---------------------------------------------------------------------------
# What each protocol replica charges the certify thread, per message class.
# ---------------------------------------------------------------------------
V, T = 1.0, 16.0  # one signature verify / one threshold verify, in seconds

#: Ingest (worker-pool) work is free here, so what ``deliver`` books on
#: the certify thread is exactly the message's certify cost.
TABLE_COSTS = CryptoCostModel(
    sign=0.0, verify=V, mac_create=0.0, mac_verify=0.0, hash_small=0.0,
    message_overhead=0.0, execute_txn=0.0, threshold_share=0.0,
    threshold_combine=0.0, threshold_verify=T)

ME, PEER = replica_id(1, 1), replica_id(1, 2)
OWN = [replica_id(1, i) for i in range(1, 5)]      # n = 4: quorum 3
REMOTE = [replica_id(2, i) for i in range(1, 8)]   # n = 7: quorum 5
SIG = object()  # any non-None signature; pricing never verifies it
SIGNED = ClientRequestBatch("b1", client_id(1, 1), (), SIG)
UNSIGNED = ClientRequestBatch("noop", ME, (), None)
CERT = CommitCertificate(2, 3, 0, SIGNED, ())
COMPACT = ThresholdCommitCertificate(2, 3, 0, SIGNED, SIG)
PREPREPARE = PrePrepare(1, 0, 1, b"d", SIGNED)
QC = HsQuorumCert("prepare", 0, 1, b"d", (SIG, SIG, SIG))

#: Rows every owner of a :class:`PbftEngine` shares.
ENGINE_ROWS = [
    (Prepare(1, 0, 1, b"d", PEER), 0.0),
    (Commit(1, 0, 1, b"d", PEER, SIG), V),
    (Checkpoint(1, 6, b"s", PEER, SIG), V),
    (ViewChange(1, 1, 0, (), PEER, SIG), V),
    (PREPREPARE, V),
    (PrePrepare(1, 0, 1, b"d", UNSIGNED), 0.0),
    (SIGNED, V),
    (UNSIGNED, 0.0),
    (NewView(1, 1, (), (), PEER), V),
    (NewView(1, 1, (), (PREPREPARE,) * 3, PEER), 3 * V),
    (DecisionTransfer(1, 1, SIGNED, CERT), 3 * V),
    (FetchDecision(1, 1, PEER), 0.0),
]

COST_TABLE = {
    "pbft": ENGINE_ROWS,
    "geobft": ENGINE_ROWS + [
        (GlobalShare(3, 2, CERT, False), 5 * V),     # remote quorum
        (GlobalShare(3, 2, COMPACT, False), T),
        (GlobalShare(3, 9, CERT, False), 0.0),       # unknown cluster
        (GlobalShare(7, 2, CERT, True), 0.0),        # already held
        (Rvc(1, 3, 0, REMOTE[0], SIG), V),
        (Drvc(2, 3, 0, PEER), 0.0),
        (CertShare(1, 3, b"d", PEER, SIG), T),
    ],
    "steward": ENGINE_ROWS + [
        (StewardForward(2, 1, SIGNED, CERT), T),
        (StewardForward(2, 2, ClientRequestBatch(
            "seen", client_id(2, 1), (), SIG), CERT), 0.0),
        (StewardGlobalOrder(1, 2, SIGNED, CERT, False), T),
        (StewardGlobalOrder(0, 2, SIGNED, CERT, False), 0.0),  # executed
    ],
    "hotstuff": [
        (SIGNED, V),
        (UNSIGNED, 0.0),
        (HsVote("prepare", 0, 1, b"d", PEER, SIG), V),
        (HsProposal("prepare", 0, 1, b"d", SIGNED, None), V),
        (HsProposal("precommit", 0, 1, b"d", None, QC), 3 * V),
        (HsProposal("precommit", 0, 1, b"d", None, None), 0.0),
    ],
    "zyzzyva": [
        (SIGNED, V),
        (UNSIGNED, 0.0),
        (OrderedRequest(0, 1, b"h", SIGNED), V),
        (ZyzzyvaCommitCert("b1", 0, 1, (SIG, SIG, SIG)), 3 * V),
    ],
}


def build_replica(protocol):
    sim = Simulation(seed=1)
    net = Network(sim, Topology.uniform(["r1"]))
    common = dict(costs=TABLE_COSTS, record_count=10)
    args = (ME, "r1", sim, net, KeyRegistry())
    clusters = {1: OWN, 2: REMOTE}
    if protocol == "pbft":
        return PbftReplica(*args, members=OWN, **common)
    if protocol == "geobft":
        replica = GeoBftReplica(*args, cluster_members=clusters, **common)
        replica.ordering.add_share(7, 2, CERT)
        return replica
    if protocol == "steward":
        replica = StewardReplica(*args, cluster_members=clusters,
                                 primary_cluster=1, **common)
        # No public way to reach this state without a full run.
        replica._submitted_to_global.add("seen")
        return replica
    if protocol == "hotstuff":
        return HotStuffReplica(*args, members=OWN, **common)
    return ZyzzyvaReplica(*args, members=OWN, **common)


def charged(replica, message):
    """Certify-thread seconds ``deliver`` books for ``message``."""
    before = replica.certify_backlog()
    replica.deliver(message, PEER)
    return replica.certify_backlog() - before


class TestCertifyCostTable:
    @pytest.mark.parametrize("protocol", sorted(COST_TABLE))
    def test_each_message_class_is_charged_what_the_table_says(
            self, protocol):
        replica = build_replica(protocol)
        got = [(type(message).__name__, charged(replica, message))
               for message, _cost in COST_TABLE[protocol]]
        want = [(type(message).__name__, cost)
                for message, cost in COST_TABLE[protocol]]
        assert got == want


class TestEveryHandlerHasARoute:
    """A message handler that no route reaches is never called."""

    #: Where a replica's handlers live besides its own class.
    SHARED = ("PbftEngine", "RemoteViewChangeManager")

    @pytest.mark.parametrize("protocol", sorted(COST_TABLE))
    def test_flow_golden_handlers_are_routed(self, protocol):
        replica = build_replica(protocol)
        golden = json.loads((GOLDEN_DIR / f"msgflow_{protocol}.json")
                            .read_text())
        owners = (type(replica).__name__,) + self.SHARED
        routed = {cls.__name__: handler.__qualname__
                  for cls, (_cost, handler) in replica._routes.items()}
        expected = {
            name: flow["handled_in"]
            for name, flow in golden["messages"].items()
            if any(h.split(".")[0] in owners for h in flow["handled_in"])
        }
        assert expected, "golden names no replica-side handler"
        assert set(routed) == set(expected)
        for name, handlers in expected.items():
            assert routed[name] in handlers
