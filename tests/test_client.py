"""Tests for the client contract: both completion rules under both
arrival drivers (the closed-loop ``QuorumClient`` and the open-loop
``OpenLoopSource``), against scripted replicas."""

import pytest

from repro.consensus.messages import (ClientReply, ClientRequestBatch,
                                      LocalCommit, SpecResponse,
                                      ZyzzyvaCommitCert)
from repro.crypto.signatures import KeyRegistry
from repro.errors import ConfigurationError
from repro.net.network import Network
from repro.net.simulator import Simulation
from repro.net.topology import Topology
from repro.types import Quorums, client_id, replica_id
from repro.workload.client import QuorumClient
from repro.workload.traffic import OpenLoopSource, TrafficSpec
from repro.workload.ycsb import YcsbWorkload


class ScriptedReplica:
    """Fake replica that answers requests per a configurable policy.

    The first replica of the group is the primary: a request it receives
    is "executed" by every replica of the group.  A backup that receives
    a request straight from the client (a fallback broadcast or a
    Zyzzyva retransmission) executes it itself.  ``rule`` picks the
    answer: ``ClientReply`` for ``"quorum"``, ``SpecResponse`` (and
    ``LocalCommit`` for a commit certificate) for ``"zyzzyva"``.
    ``respond=False`` makes the replica silent, ``commit=False`` keeps
    it from acknowledging certificates; ``forge_as`` makes it answer
    under another replica's name.
    """

    def __init__(self, node_id, region, network, group, rule="quorum",
                 respond=True, digest=b"results"):
        self.node_id = node_id
        self.region = region
        self.network = network
        self.group = group
        self.rule = rule
        self.respond = respond
        self.digest = digest
        self.commit = True
        self.forge_as = None
        self.requests = []
        self.certs = []
        network.register(self)

    def deliver(self, message, sender):
        if isinstance(message, ZyzzyvaCommitCert):
            self.certs.append(message)
            if self.respond and self.commit:
                self.network.send(self.node_id, sender, LocalCommit(
                    message.view, message.seq, message.batch_id,
                    self.node_id))
            return
        if not isinstance(message, ClientRequestBatch):
            return
        self.requests.append(message)
        if not self.respond:
            return
        executors = self.group if self is self.group[0] else [self]
        for replica in executors:
            replica.execute(message)

    def execute(self, request):
        if not self.respond:
            return
        claimed = self.forge_as or self.node_id
        if self.rule == "quorum":
            answer = ClientReply(request.batch_id, claimed, 1, 1,
                                 self.digest, len(request.batch))
        else:
            answer = SpecResponse(0, 1, request.batch_id, b"history",
                                  self.digest, claimed, None,
                                  len(request.batch))
        self.network.send(self.node_id, request.client, answer)


def make_rig(rule):
    sim = Simulation(seed=1)
    topo = Topology.uniform(["r1"], rtt_ms=2.0)
    net = Network(sim, topo)
    registry = KeyRegistry()
    group = []
    group.extend(ScriptedReplica(replica_id(1, i), "r1", net, group, rule)
                 for i in range(1, 5))
    return sim, net, registry, group


@pytest.fixture
def rig():
    return make_rig("quorum")


def make_client(sim, net, registry, replicas, **overrides):
    kwargs = dict(
        node_id=client_id(1, 1),
        region="r1",
        sim=sim,
        network=net,
        registry=registry,
        workload=YcsbWorkload(record_count=100, seed=1),
        batch_size=3,
        primary_targets=[replicas[0].node_id],
        fallback_targets=[r.node_id for r in replicas],
        reply_quorum=Quorums(4),
        outstanding=2,
        retry_timeout=0.5,
    )
    kwargs.update(overrides)
    return QuorumClient(**kwargs)


def make_source(sim, net, registry, replicas, timeout, **overrides):
    # 60 users at 1 txn/s in batches of 3: one batch per 0.05 s tick.
    spec = TrafficSpec(process="constant", users=60, rate_per_user=1.0,
                       tick=0.05, deadline=timeout, max_retries=3,
                       retry_backoff=timeout, window=1_000)
    kwargs = dict(
        node_id=client_id(1, 1),
        region="r1",
        sim=sim,
        network=net,
        registry=registry,
        workload=YcsbWorkload(record_count=100, seed=1),
        batch_size=3,
        spec=spec,
        users=60,
        seed=1,
        primary_targets=[replicas[0].node_id],
        fallback_targets=[r.node_id for r in replicas],
        reply_quorum=Quorums(4),
    )
    kwargs.update(overrides)
    return OpenLoopSource(**kwargs)


class TestClosedLoop:
    def test_keeps_outstanding_batches_in_flight(self, rig):
        sim, net, registry, replicas = rig
        client = make_client(sim, net, registry, replicas, outstanding=3)
        client.start()
        sim.run(until=1.0)
        assert client.completed_batches > 0
        assert client.pending_batches == 3

    def test_completion_needs_quorum_of_matching_replies(self, rig):
        sim, net, registry, replicas = rig
        # Only one replica responds: quorum of 2 never reached.
        for replica in replicas[1:]:
            replica.respond = False
        client = make_client(sim, net, registry, replicas,
                             retry_timeout=30.0)
        client.start()
        sim.run(until=1.0)
        assert client.completed_batches == 0

    def test_mismatched_digests_do_not_complete(self, rig):
        sim, net, registry, replicas = rig
        for i, replica in enumerate(replicas):
            replica.digest = bytes([i]) * 4  # all different
        client = make_client(sim, net, registry, replicas,
                             retry_timeout=30.0)
        client.start()
        sim.run(until=1.0)
        assert client.completed_batches == 0

    def test_requests_are_signed(self, rig):
        sim, net, registry, replicas = rig
        client = make_client(sim, net, registry, replicas)
        client.start()
        sim.run(until=0.2)
        request = replicas[0].requests[0]
        assert request.signature is not None
        unsigned = ClientRequestBatch(request.batch_id, request.client,
                                      request.batch, None)
        assert registry.verify(unsigned.payload(), request.signature)

    def test_retry_broadcasts_to_fallback_targets(self, rig):
        sim, net, registry, replicas = rig
        replicas[0].respond = False  # primary silent
        client = make_client(sim, net, registry, replicas,
                             reply_quorum=Quorums(4))
        client.start()
        sim.run(until=2.0)
        # After the timeout, backups received the retransmission and
        # replied; quorum reached without the primary.
        assert client.completed_batches > 0
        assert all(r.requests for r in replicas[1:])

    def test_max_batches_bounds_submission(self, rig):
        sim, net, registry, replicas = rig
        client = make_client(sim, net, registry, replicas, max_batches=5,
                             outstanding=2)
        client.start()
        sim.run(until=3.0)
        assert client.submitted_batches == 5
        assert client.completed_batches == 5

    def test_start_is_idempotent(self, rig):
        sim, net, registry, replicas = rig
        client = make_client(sim, net, registry, replicas, outstanding=2)
        client.start()
        client.start()
        assert client.pending_batches == 2

    def test_replies_from_impersonators_ignored(self, rig):
        sim, net, registry, replicas = rig
        client = make_client(sim, net, registry, replicas,
                             reply_quorum=Quorums(4))
        client.start()
        sim.run(until=0.01)
        # replica 4 sends replies claiming to be replica 3.
        batch_id = f"{client.node_id}:0"
        forged = ClientReply(batch_id, replicas[2].node_id, 1, 1, b"x", 3)
        net.send(replicas[3].node_id, client.node_id, forged)
        net.send(replicas[3].node_id, client.node_id, forged)
        sim.run(until=0.02)
        # No completion from forged replies alone with unique digest b"x".
        assert all(
            b"x" not in votes
            for votes in (p.votes for p in client._pending.values())
        ) or client.completed_batches == 0

    def test_validation_of_parameters(self, rig):
        sim, net, registry, replicas = rig
        with pytest.raises(ConfigurationError):
            make_client(sim, net, registry, replicas, batch_size=0)
        with pytest.raises(ConfigurationError):
            make_client(sim, net, registry, replicas, reply_quorum=0)
        with pytest.raises(ConfigurationError):  # 4 replies, 1 member
            make_client(sim, net, registry, replicas,
                        members=[replicas[0].node_id])
        with pytest.raises(ConfigurationError):
            make_client(sim, net, registry, replicas, outstanding=0)


# ---------------------------------------------------------------------------
# Each completion rule under each arrival driver.
# ---------------------------------------------------------------------------
DRIVERS = ("closed", "open")
RULES = ("quorum", "zyzzyva")


def build(driver, rule, timeout=0.5):
    """A rig plus a started driver running ``rule`` with ``timeout``."""
    sim, net, registry, replicas = make_rig(rule)
    members = ([r.node_id for r in replicas] if rule == "zyzzyva"
               else None)
    if driver == "closed":
        client = make_client(sim, net, registry, replicas,
                             retry_timeout=timeout, members=members)
    else:
        client = make_source(sim, net, registry, replicas, timeout,
                             members=members)
    client.start()
    return sim, net, replicas, client


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("driver", DRIVERS)
class TestRuleUnderDriver:
    def test_fast_path_completes(self, driver, rule):
        sim, _, replicas, client = build(driver, rule, timeout=30.0)
        sim.run(until=0.5)
        assert client.completed_batches > 0
        # The fast path never needed a certificate or a retransmission.
        assert not any(r.certs for r in replicas)
        assert not any(r.requests for r in replicas[1:])

    def test_mismatched_digests_do_not_complete(self, driver, rule):
        sim, _, replicas, client = build(driver, rule)
        for i, replica in enumerate(replicas):
            replica.digest = bytes([i]) * 4  # all different
        sim.run(until=2.0)
        assert client.submitted_batches > 0
        assert client.completed_batches == 0

    def test_reply_under_another_replicas_name_is_ignored(self, driver,
                                                         rule):
        sim, _, replicas, client = build(driver, rule, timeout=30.0)
        if rule == "quorum":
            # One honest reply; the impersonator's would be the second.
            for replica in replicas[1:3]:
                replica.respond = False
        # Replica 4 answers as replica 2.  Counted, its answer would
        # complete the batch: the second of two, or the N-th of N.
        replicas[3].forge_as = replicas[1].node_id
        sim.run(until=0.5)
        assert client.submitted_batches > 0
        assert client.completed_batches == 0

    def test_timeout_action(self, driver, rule):
        sim, _, replicas, client = build(driver, rule, timeout=0.1)
        if rule == "quorum":
            # A silent primary: the timeout broadcasts to all fallbacks.
            replicas[0].respond = False
            sim.run(until=1.0)
            assert all(r.requests for r in replicas[1:])
        else:
            # One silent backup leaves 2f + 1 = 3 matching responses:
            # the timeout sends a commit certificate to every member,
            # and three local commits complete the request.
            replicas[3].respond = False
            sim.run(until=1.0)
            assert all(r.certs for r in replicas)
            assert all(len(c.responses) == 3 for c in replicas[0].certs)
            assert not any(r.requests for r in replicas[1:])
        assert client.completed_batches > 0


@pytest.mark.parametrize("driver", DRIVERS)
def test_zyzzyva_retransmits_below_2f_plus_1(driver):
    sim, _, replicas, client = build(driver, "zyzzyva", timeout=0.1)
    # Two matching responses are fewer than 2f + 1 = 3: no certificate,
    # the request goes to every member instead.
    replicas[2].respond = replicas[3].respond = False
    sim.run(until=1.0)
    assert not any(r.certs for r in replicas)
    assert all(r.requests for r in replicas[1:])
    assert client.completed_batches == 0


@pytest.mark.parametrize("driver", DRIVERS)
def test_zyzzyva_needs_2f_plus_1_local_commits(driver):
    sim, _, replicas, client = build(driver, "zyzzyva", timeout=0.1)
    # Three matching responses make a certificate, but only two of the
    # certified replicas acknowledge it: short of 2f + 1 local commits.
    replicas[3].respond = False
    replicas[2].commit = False
    sim.run(until=1.0)
    assert all(r.certs for r in replicas)
    assert client.completed_batches == 0
