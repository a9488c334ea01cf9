"""Tests for the message-aliasing sanitizer (``REPRO_SANITIZE=1``).

The failure mode under test: the simulator passes message objects by
reference, so a handler that mutates a message after posting it corrupts
what every other receiver observes — silently, because the memoized
payload digest keeps serving the pre-mutation state.  The sanitizer must
catch exactly that (with a pointed error naming type and sender) while
leaving scheduling, and therefore deployment digests, untouched.
"""

from __future__ import annotations

import pytest

from repro.bench.deployment import (Deployment, ExperimentConfig,
                                    deployment_digest)
from repro.consensus.messages import Prepare
from repro.errors import MessageAliasingError
from repro.net.network import Network
from repro.net.sanitizer import (MessageSanitizer, live_fingerprint,
                                 sanitize_enabled)
from repro.net.simulator import Simulation
from repro.net.topology import Topology
from repro.types import replica_id


class FakeNode:
    def __init__(self, node_id, region):
        self.node_id = node_id
        self.region = region
        self.received = []

    def deliver(self, message, sender):
        self.received.append((message, sender))


@pytest.fixture
def wan():
    return Topology.custom(
        ["west", "east"],
        {("west", "west"): 1.0, ("east", "east"): 1.0,
         ("west", "east"): 100.0},
        {("west", "west"): 8.0, ("east", "east"): 8.0,
         ("west", "east"): 8.0},
    )


def build(wan, sanitize):
    sim = Simulation(seed=1)
    net = Network(sim, wan, sanitize=sanitize)
    a = FakeNode(replica_id(1, 1), "west")
    b = FakeNode(replica_id(1, 2), "west")
    c = FakeNode(replica_id(2, 1), "east")
    for node in (a, b, c):
        net.register(node)
    return sim, net, a, b, c


def prepare_message():
    return Prepare(1, 0, 7, b"d" * 32, replica_id(1, 1))


def mutate(message):
    # Frozen dataclass: protocol code cannot do this by accident with
    # ``msg.digest = ...`` — but buggy code using replace()-free rebuild
    # helpers, object.__setattr__, or mutable payload members can.
    object.__setattr__(message, "digest", b"X" * 32)


class TestDetection:
    def test_post_send_mutation_is_caught(self, wan):
        sim, net, a, b, _c = build(wan, sanitize=True)
        msg = prepare_message()
        net.send(a.node_id, b.node_id, msg)
        mutate(msg)
        with pytest.raises(MessageAliasingError) as excinfo:
            sim.run()
        # The error names the message type and the sending node.
        text = str(excinfo.value)
        assert "Prepare" in text
        assert str(a.node_id) in text

    def test_mutation_is_caught_even_after_encoding_was_cached(self, wan):
        # The whole reason live_fingerprint exists: once payload_digest()
        # has memoized the digest, digests and signatures keep reporting
        # the pre-mutation state, so only an uncached re-walk can see
        # the change.
        sim, net, a, b, _c = build(wan, sanitize=True)
        msg = prepare_message()
        msg.payload_digest()  # warm the instance memo
        net.send(a.node_id, b.node_id, msg)
        mutate(msg)
        assert msg.payload_digest() == Prepare(
            1, 0, 7, b"d" * 32, replica_id(1, 1)).payload_digest()  # stale
        with pytest.raises(MessageAliasingError):
            sim.run()

    def test_mutation_is_caught_on_multicast_path(self, wan):
        # One send-time fingerprint covers the whole fan-out; each
        # delivery checks the shared object against it on its own.
        sim, net, a, b, c = build(wan, sanitize=True)
        net.multicast(a.node_id, [b.node_id, c.node_id], prepare_message())
        sim.run()
        assert net.telemetry()["sanitizer_checks"] == 2
        msg = prepare_message()
        net.multicast(a.node_id, [b.node_id, c.node_id], msg)
        mutate(msg)
        with pytest.raises(MessageAliasingError):
            sim.run()

    def test_self_send_path_is_checked(self, wan):
        sim, net, a, _b, _c = build(wan, sanitize=True)
        msg = prepare_message()
        net.send(a.node_id, a.node_id, msg)
        mutate(msg)
        with pytest.raises(MessageAliasingError):
            sim.run()

    def test_unmutated_traffic_passes_and_is_counted(self, wan):
        sim, net, a, b, c = build(wan, sanitize=True)
        net.multicast(a.node_id, [a.node_id, b.node_id, c.node_id],
                      prepare_message())
        sim.run()
        assert len(a.received) == len(b.received) == len(c.received) == 1
        assert net.telemetry()["sanitizer_checks"] >= 3

    def test_sanitizer_off_ignores_mutation(self, wan):
        sim, net, a, b, _c = build(wan, sanitize=False)
        msg = prepare_message()
        net.send(a.node_id, b.node_id, msg)
        mutate(msg)
        sim.run()
        assert len(b.received) == 1
        assert "sanitizer_checks" not in net.telemetry()


class TestSwitch:
    def test_explicit_argument_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled(False) is False
        monkeypatch.delenv("REPRO_SANITIZE")
        assert sanitize_enabled(True) is True

    def test_environment_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert sanitize_enabled() is False
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled() is True
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert sanitize_enabled() is False


class TestFingerprint:
    def test_fingerprint_tracks_live_payload(self):
        msg = prepare_message()
        before = live_fingerprint(msg)
        msg.payload_digest()
        assert live_fingerprint(msg) == before  # the memo is invisible
        mutate(msg)
        assert live_fingerprint(msg) != before

    def test_distinct_types_with_equal_payload_differ(self):
        # Type name is folded in, so two message classes that happen to
        # encode the same tree still get distinct fingerprints.
        class A:
            def payload(self):
                return ("x", 1)

        class B:
            def payload(self):
                return ("x", 1)

        assert live_fingerprint(A()) != live_fingerprint(B())

    def test_foreign_objects_do_not_crash(self):
        class Opaque:
            pass

        fp = live_fingerprint(Opaque())
        assert isinstance(fp, bytes) and len(fp) == 32

    def test_checker_counts_checks_and_violations(self):
        sanitizer = MessageSanitizer()
        msg = prepare_message()
        fp = sanitizer.fingerprint(msg)
        sanitizer.check(msg, fp, replica_id(1, 1))
        mutate(msg)
        with pytest.raises(MessageAliasingError):
            sanitizer.check(msg, fp, replica_id(1, 1))
        assert sanitizer.checks == 2
        assert sanitizer.violations == 1


class TestDigestParity:
    """The acceptance gate: sanitized runs reproduce golden digests."""

    # Mirrors tests/test_scale_determinism.py SMALL_MATRIX["geobft", 1].
    GOLDEN = "7f6bfe45e2e7c6fd78134fdcb6915b08f2b492b7cc8abf983b9604276ca2762c"
    EVENTS = 165438

    def test_sanitized_run_matches_golden_digest(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        deployment = Deployment(ExperimentConfig(
            protocol="geobft", num_clusters=2, replicas_per_cluster=4,
            batch_size=50, duration=1.0, warmup=0.25, seed=1,
            record_count=2_000, fast_crypto=True))
        result = deployment.run()
        assert result.safety_ok
        assert deployment.sim.events_processed == self.EVENTS
        assert deployment_digest(deployment, result) == self.GOLDEN
        # The sanitizer really was armed for the run.
        checks = deployment.network.telemetry().get("sanitizer_checks", 0)
        assert checks > 0
