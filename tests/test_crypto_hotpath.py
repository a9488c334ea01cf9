"""Tests for the crypto hot-path overhaul: iterative encoding, cached
digests/signatures, the deployment-wide verification memo, and the
simulator fast path.

The invariant under test throughout: every cache is a pure host-side
memo — cached results are byte-identical to fresh recomputation, and a
reconstructed (hence possibly different) message can never reuse a stale
entry.
"""

import dataclasses
import gc
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench.deployment import Deployment
from repro.consensus.messages import (
    ClientRequestBatch,
    Commit,
    CommitCertificate,
    adopt_digest,
)
from repro.crypto.digests import (
    CachedEncodable,
    digest,
    digest_of,
    encode_canonical,
)
from repro.crypto.macs import MacAuthenticator
from repro.crypto.signatures import KeyRegistry, VerificationCache
from repro.errors import ConfigurationError, InvalidCertificateError
from repro.ledger.block import MintedBatch, Transaction, batch_digest
from repro.net.network import Network
from repro.net.simulator import Simulation
from repro.net.topology import Topology
from repro.types import Quorums, client_id, replica_id
from repro.workload.client import QuorumClient

from .conftest import small_config

# Transactions with bounded, encodable fields.
transactions = st.builds(
    Transaction,
    txn_id=st.text(max_size=12),
    op=st.sampled_from(["read", "update", "insert", "modify", "noop"]),
    key=st.integers(min_value=0, max_value=10_000),
    value=st.text(max_size=12),
)
batches = st.lists(transactions, min_size=1, max_size=5).map(tuple)


def _request(batch, batch_id="b-1"):
    return ClientRequestBatch(batch_id, client_id(1, 1), batch, None)


class TestIterativeEncoderDepth:
    """Regression: the old recursive encoder hit Python's recursion
    limit on deeply nested payloads."""

    def test_10k_deep_nesting_encodes(self):
        value = "leaf"
        for _ in range(10_000):
            value = (value,)
        encoded = encode_canonical(value)
        assert encoded.startswith(b"l1:" * 3)
        assert len(digest_of(value)) == 32

    def test_deep_nesting_matches_shallow_composition(self):
        # l1:<inner>; framing applied once per level.
        deep = ("x",)
        for _ in range(9_999):
            deep = (deep,)
        expected = b"s1:x"
        for _ in range(10_000):
            expected = b"l1:" + expected + b";"
        assert encode_canonical(deep) == expected

    def test_deep_dict_nesting(self):
        value = {"k": 0}
        for _ in range(10_000):
            value = {"k": value}
        assert digest_of(value) == digest_of(dict(value))


class TestCachedEncoding:
    @given(batches)
    def test_cached_encoding_matches_historical_encoding(self, batch):
        """Encoding message objects equals encoding their payload trees
        built from primitives only (the pre-cache wire format)."""
        request = _request(batch)
        historical = (
            "request",
            request.batch_id,
            str(request.client),
            tuple(txn.payload() for txn in batch),
        )
        assert request.encoded() == encode_canonical(historical)
        # And the cache returns the same bytes on every later call.
        assert request.encoded() == encode_canonical(historical)

    @given(batches)
    def test_payload_digest_matches_fresh_recompute(self, batch):
        request = _request(batch)
        cached = request.payload_digest()
        fresh = digest(encode_canonical((
            "request", request.batch_id, str(request.client),
            tuple(txn.payload() for txn in batch),
        )))
        assert cached == fresh
        assert digest_of(request) == fresh

    @given(batches)
    def test_batch_digest_matches_historical_definition(self, batch):
        assert batch_digest(batch) == digest_of(
            tuple(txn.payload() for txn in batch))

    def test_nested_cache_splicing(self):
        """A certificate embedding pre-digested children produces the
        same bytes as one whose children were never touched: a child's
        memo never stands in for its bytes."""
        batch = (Transaction("t1", "update", 1, "v"),)
        request_a = _request(batch)
        request_b = _request(batch)
        commit = Commit(1, 0, 1, request_a.digest(), replica_id(1, 1), None)
        cert_a = CommitCertificate(1, 1, 0, request_a, (commit,))
        cert_b = CommitCertificate(1, 1, 0, request_b, (commit,))
        # Warm request_a's (and commit's) memos first.
        request_a.payload_digest()
        commit.payload_digest()
        assert cert_a.encoded() == cert_b.encoded()
        assert cert_a.digest() == cert_b.digest()

    def test_reconstructed_message_does_not_reuse_stale_cache(self):
        batch = (Transaction("t1", "update", 1, "v"),)
        request = _request(batch, batch_id="original")
        original_digest = request.payload_digest()
        assert request._payload_digest_cache == original_digest
        mutated = dataclasses.replace(request, batch_id="mutated")
        # The reconstructed instance starts cold (the memo lives in a
        # slot, not __dict__, so hasattr is the right probe).
        assert not hasattr(mutated, "_payload_digest_cache")
        # ...and its digest reflects the new content.
        assert mutated.payload_digest() != original_digest
        identical = dataclasses.replace(request)
        assert identical.payload_digest() == original_digest

    def test_plain_payload_objects_still_encode(self):
        class Msg:
            def payload(self):
                return ("m", 1)

        assert encode_canonical(Msg()) == encode_canonical(("m", 1))


class TestSignatureMemoization:
    def _registry(self):
        return KeyRegistry(seed=b"hotpath-tests")

    @given(batches)
    def test_signature_over_object_matches_signature_over_payload(
            self, batch):
        """Signing a message object equals signing its payload tuple —
        the overhaul changed call sites from one to the other."""
        registry = self._registry()
        signer = registry.register(client_id(1, 1))
        request = _request(batch)
        assert signer.sign(request).tag == signer.sign(request.payload()).tag
        # The MAC path authenticates the same digest.
        alice = MacAuthenticator(client_id(1, 1))
        bob = MacAuthenticator(replica_id(1, 1))
        mac = alice.tag(bob.node, request)
        assert mac == alice.tag(bob.node, request.payload())
        assert bob.verify(mac, request.payload())

    @given(batches)
    def test_cached_verification_matches_fresh(self, batch):
        registry = self._registry()
        signer = registry.register(client_id(1, 1))
        request = _request(batch)
        signature = signer.sign(request)
        fresh_registry = self._registry()
        fresh_registry.register(client_id(1, 1))
        first = registry.verify(request, signature)
        second = registry.verify(request, signature)  # cache hit
        uncached = fresh_registry.verify(request.payload(), signature)
        assert first is True and second is True and uncached is True

    def test_negative_outcomes_are_cached(self):
        registry = self._registry()
        registry.register(client_id(1, 1))
        request = _request((Transaction("t", "noop", 0),))
        forged = dataclasses.replace(
            registry.register(client_id(1, 1)).sign(request),
            tag=b"\x00" * 32)
        assert registry.verify(request, forged) is False
        assert registry.verify(request, forged) is False
        assert registry.verification_cache.hits >= 1

    def test_verification_cache_counts_and_eviction(self):
        cache = VerificationCache(max_entries=2)
        cache.put(("a",), True)
        cache.put(("b",), False)
        assert cache.get(("a",)) is True
        assert cache.get(("b",)) is False
        cache.put(("c",), True)  # evicts the oldest entry
        assert len(cache) == 2
        assert cache.get(("a",)) is None
        assert cache.stats()["hits"] == 2

    def test_shared_cache_across_registry_and_macs(self):
        cache = VerificationCache()
        registry = KeyRegistry(seed=b"x", cache=cache)
        assert registry.verification_cache is cache

    def test_certificate_forwarding_costs_one_hmac_per_commit(self):
        """n replicas re-verifying one certificate: after the first
        pass, every signature check is a memo hit."""
        registry = self._registry()
        batch = (Transaction("t1", "update", 1, "v"),)
        request = _request(batch)
        members = [replica_id(1, i) for i in range(1, 5)]
        commits = tuple(
            Commit(1, 0, 1, request.digest(), node,
                   registry.register(node).sign(
                       Commit(1, 0, 1, request.digest(), node, None)))
            for node in members
        )
        cert = CommitCertificate(1, 1, 0, request, commits)
        cert.verify(registry, Quorums(4))
        misses_after_first = registry.verification_cache.misses
        for _ in range(5):  # five more replicas re-verify
            cert.verify(registry, Quorums(4))
        assert registry.verification_cache.misses == misses_after_first

    def test_bad_certificate_still_rejected_when_cached(self):
        registry = self._registry()
        batch = (Transaction("t1", "update", 1, "v"),)
        request = _request(batch)
        node = replica_id(1, 1)
        registry.register(node)
        bad = Commit(1, 0, 1, request.digest(), node,
                     dataclasses.replace(
                         registry.register(node).sign(("x",)),
                         tag=b"\x01" * 32))
        cert = CommitCertificate(1, 1, 0, request, (bad,) * 3)
        for _ in range(2):  # second round exercises the negative cache
            with pytest.raises(InvalidCertificateError):
                cert.verify(registry, Quorums(1))


class _Silent:
    """A network node that keeps what it receives and answers nothing."""

    def __init__(self, node_id, network):
        self.node_id, self.region, self.received = node_id, "r1", []
        network.register(self)

    def deliver(self, message, sender):
        self.received.append(message)


class _CountingWorkload:
    """Hands out minted batches whose row closure counts its calls."""

    def __init__(self):
        self.rows = 0

    def next_batch(self, size, prefix=""):
        def row(counter, key):
            self.rows += 1
            return (f"{prefix}t{counter}", "update", key, "v")

        return MintedBatch(1, (array("q", range(size)),), row)


def _memo_state(message):
    """A message's memo slots that are set: its state minus its fields."""
    fields = {field.name for field in dataclasses.fields(message)}
    return {name: value for name, value in message.__getstate__().items()
            if name not in fields}


class TestSignTheDigest:
    """A signature or MAC covers ``(signer, digest)``: a message keeps
    32-byte digests, never its encoding, and a minted batch derives its
    rows once per request."""

    @pytest.mark.parametrize("bound", [0, -1])
    def test_cache_bound_below_one_is_a_configuration_error(self, bound):
        with pytest.raises(ConfigurationError):
            VerificationCache(max_entries=bound)

    def test_minted_request_derives_its_rows_once(self):
        sim = Simulation(seed=1)
        net = Network(sim, Topology.uniform(["r1"], rtt_ms=2.0))
        registry = KeyRegistry(seed=b"hotpath-tests")
        replicas = [_Silent(replica_id(1, i), net) for i in range(1, 5)]
        workload = _CountingWorkload()
        client = QuorumClient(
            node_id=client_id(1, 1), region="r1", sim=sim, network=net,
            registry=registry, workload=workload, batch_size=5,
            primary_targets=[r.node_id for r in replicas],
            fallback_targets=[r.node_id for r in replicas],
            reply_quorum=Quorums(4),
            outstanding=1, retry_timeout=10.0, max_batches=1)
        client.start()
        sim.run(until=1.0)
        requests = [replica.received[0] for replica in replicas]
        assert all(request is requests[0] for request in requests)
        for request in requests:  # every replica checks the signature
            assert registry.verify(request, request.signature)
        digest = requests[0].digest()
        # Signing derived the rows; verifying and the batch digest did not.
        assert workload.rows == 5
        assert digest == batch_digest(tuple(requests[0].batch))

    def test_resigned_over_another_batch_fails_verification(self):
        registry = KeyRegistry(seed=b"hotpath-tests")
        signer = registry.register(client_id(1, 1))
        workload = _CountingWorkload()

        def signed(batch):
            unsigned = ClientRequestBatch("c:0", client_id(1, 1), batch, None)
            request = ClientRequestBatch("c:0", client_id(1, 1), batch,
                                         signer.sign(unsigned))
            return adopt_digest(request, unsigned)

        original = signed(workload.next_batch(3))
        assert registry.verify(original, original.signature)
        other = workload.next_batch(4)
        forged = ClientRequestBatch(original.batch_id, original.client,
                                    other, original.signature)
        assert registry.verify(forged, forged.signature) is False
        resigned = signed(other)
        assert resigned.signature != original.signature
        assert registry.verify(resigned, original.signature) is False
        assert registry.verify(resigned, resigned.signature)
        assert registry.verify(original, original.signature)

    def test_live_messages_keep_digests_not_bytes(self):
        deployment = Deployment(small_config(
            "pbft", fast_crypto=False, duration=1.0, warmup=0.2))
        deployment.run()
        messages = [obj for obj in gc.get_objects()
                    if isinstance(obj, CachedEncodable)]
        requests = [m for m in messages if m.__class__ is ClientRequestBatch]
        assert requests
        for message in messages:
            for value in _memo_state(message).values():
                assert value.__class__ is not bytes or len(value) == 32
        for request in requests:
            crypto = {name: value
                      for name, value in _memo_state(request).items()
                      if name != "_size_cache"}
            assert len(crypto) <= 2
            assert all(len(value) == 32 for value in crypto.values())


class TestMacMemoization:
    def test_cached_mac_verify_matches_fresh(self):
        cache = VerificationCache()
        alice = MacAuthenticator(client_id(1, 1), cache=cache)
        bob = MacAuthenticator(replica_id(1, 1), cache=cache)
        uncached_bob = MacAuthenticator(replica_id(1, 1))
        request = _request((Transaction("t", "noop", 0),))
        mac = alice.tag(replica_id(1, 1), request)
        assert bob.verify(mac, request) is True
        assert bob.verify(mac, request) is True  # memo hit
        assert uncached_bob.verify(mac, request) is True
        wrong = dataclasses.replace(mac, tag=b"\x00" * len(mac.tag))
        assert bob.verify(wrong, request) is False
        assert bob.verify(wrong, request) is False

    def test_pair_keys_are_memoized_and_stable(self):
        alice = MacAuthenticator(client_id(1, 1))
        first = alice._pair_key(replica_id(1, 2))
        assert alice._pair_key(replica_id(1, 2)) == first
        assert MacAuthenticator(client_id(1, 1))._pair_key(
            replica_id(1, 2)) == first


class TestSimulatorFastPath:
    def test_post_and_schedule_share_ordering(self):
        sim = Simulation(seed=0)
        order = []
        sim.schedule(1.0, order.append, "timer-a")
        sim.post(1.0, order.append, "post-b")
        sim.schedule(1.0, order.append, "timer-c")
        sim.post(0.5, order.append, "post-first")
        sim.run()
        assert order == ["post-first", "timer-a", "post-b", "timer-c"]

    def test_post_counts_toward_max_events(self):
        sim = Simulation(seed=0)
        fired = []
        for i in range(5):
            sim.post(0.0, fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_cancelled_timers_skip_but_posts_fire(self):
        sim = Simulation(seed=0)
        fired = []
        timer = sim.schedule(0.5, fired.append, "cancelled")
        sim.post(0.5, fired.append, "posted")
        timer.cancel()
        sim.run()
        assert fired == ["posted"]

    def test_step_handles_both_event_kinds(self):
        sim = Simulation(seed=0)
        fired = []
        sim.post(0.1, fired.append, "p")
        sim.schedule(0.2, fired.append, "t")
        assert sim.step() and fired == ["p"]
        assert sim.step() and fired == ["p", "t"]
        assert not sim.step()

    def test_post_rejects_negative_delay(self):
        from repro.errors import SimulationError
        sim = Simulation(seed=0)
        with pytest.raises(SimulationError):
            sim.post(-0.1, lambda: None)


class TestWireSizeCache:
    def test_size_bytes_computed_once_per_instance(self):
        from repro.net.network import _message_size

        calls = []

        class Sized:
            def size_bytes(self):
                calls.append(1)
                return 123

        message = Sized()
        assert _message_size(message) == 123
        assert _message_size(message) == 123
        assert len(calls) == 1

    def test_slotted_messages_fall_back_to_recompute(self):
        from repro.net.network import _message_size

        class Slotted:
            __slots__ = ()

            def size_bytes(self):
                return 7

        assert _message_size(Slotted()) == 7
