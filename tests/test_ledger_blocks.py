"""Tests for blocks and the blockchain."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.crypto.digests import ENCODING_STATS, digest_of, encode_canonical
from repro.crypto.signatures import KeyRegistry
from repro.errors import LedgerError, TamperedLedgerError
from repro.ledger.block import (
    GENESIS_HASH,
    Block,
    Transaction,
    batch_digest,
    make_block,
)
from repro.ledger.blockchain import Blockchain, ChainLog
from repro.ledger.recovery import recover_from_peer

from .test_messages import make_certificate


def batch(*ids):
    return tuple(Transaction(i, "update", 1, "v") for i in ids)


# Every constructible transaction: empty and non-ASCII text, keys 0,
# negative, beyond 2**63 and ``bool`` (``b"%d" % True`` would be ``1``
# where the canonical encoder writes ``T``), every op, and the no-op.
_texts = st.text(max_size=12)
_transactions = st.one_of(
    st.builds(Transaction, _texts,
              st.sampled_from(["read", "update", "insert", "modify", "noop"]),
              st.one_of(st.integers(-2**70, 2**70), st.booleans()), _texts),
    st.builds(Transaction.noop, _texts),
)


class TestTransactions:
    @given(st.lists(_transactions, max_size=6).map(tuple))
    def test_derived_encoding_is_the_encoding_of_the_payload(self, txns):
        """No transaction stores bytes; what it derives is what the
        generic encoder makes of ``payload()``, for the batch digest and
        for any message that embeds the transaction."""
        for txn in txns:
            assert encode_canonical(txn) == encode_canonical(txn.payload())
        payloads = tuple(txn.payload() for txn in txns)
        assert batch_digest(txns) == digest_of(payloads)
        assert encode_canonical(("request", txns)) == encode_canonical(
            ("request", payloads))

    def test_noop(self):
        txn = Transaction.noop("n1")
        assert txn.op == "noop"
        assert txn.payload()[0] == "txn"

    def test_batch_digest_depends_on_content(self):
        assert batch_digest(batch("a", "b")) != batch_digest(batch("b", "a"))
        assert batch_digest(batch("a")) == batch_digest(batch("a"))


class TestBlocks:
    def test_make_block_links_genesis(self):
        block = make_block(0, 1, 1, batch("a"), ("cert",), None)
        assert block.prev_hash == GENESIS_HASH

    def test_block_hash_covers_batch(self):
        b1 = make_block(0, 1, 1, batch("a"), ("cert",), None)
        b2 = make_block(0, 1, 1, batch("b"), ("cert",), None)
        assert b1.block_hash() != b2.block_hash()

    def test_block_hash_ignores_certificate_representation(self):
        """Different (equally valid) certificates must not diverge the
        hash chain across replicas (Lemma 2.3 discussion in block.py)."""
        b1 = make_block(0, 1, 1, batch("a"), ("cert-variant-1",), None)
        b2 = make_block(0, 1, 1, batch("a"), ("cert-variant-2",), None)
        assert b1.block_hash() == b2.block_hash()
        assert b1.certificate_digest != b2.certificate_digest

    @given(st.integers(0, 2**70), st.integers(0, 2**70),
           st.integers(0, 2**70), st.binary(max_size=64),
           st.binary(max_size=64))
    def test_block_hash_is_the_digest_of_the_payload(
            self, height, round_id, cluster_id, batch_digest_, prev_hash):
        """The one-interpolation hash emits the generic encoder's bytes."""
        block = Block(height, round_id, cluster_id, (), batch_digest_,
                      None, prev_hash)
        assert block.block_hash() == digest_of(block.payload())


class TestBlockchain:
    def test_append_and_height(self):
        chain = Blockchain()
        assert chain.height == 0
        chain.append(1, 1, batch("a"), ("cert",))
        chain.append(1, 2, batch("b"), ("cert",))
        assert chain.height == 2
        assert len(chain) == 2

    def test_blocks_link(self):
        chain = Blockchain()
        b1 = chain.append(1, 1, batch("a"), ("cert",))
        b2 = chain.append(1, 2, batch("b"), ("cert",))
        assert b2.prev_hash == b1.block_hash()
        assert chain.head_hash == b2.block_hash()

    def test_verify_accepts_untouched_chain(self):
        chain = Blockchain()
        for i in range(10):
            chain.append(i, 1, batch(f"t{i}"), ("cert", i))
        chain.verify()

    def test_verify_detects_content_tampering(self):
        chain = Blockchain()
        chain.append(1, 1, batch("a"), ("cert",))
        chain.append(1, 2, batch("b"), ("cert",))
        original = chain.block(0)
        tampered = Block(
            original.height, original.round_id, original.cluster_id,
            batch("evil"), original.batch_digest,
            original.certificate, original.prev_hash,
        )
        chain.tamper_for_test(0, tampered)
        with pytest.raises(TamperedLedgerError):
            chain.verify()

    def test_shallow_verify_checks_chain_structure_only(self):
        """deep=False validates links/hashes but not batch content —
        it is the cheap audit used during benchmark runs."""
        chain = Blockchain()
        chain.append(1, 1, batch("a"), ("cert",))
        original = chain.block(0)
        tampered = Block(
            original.height, original.round_id, original.cluster_id,
            batch("evil"), original.batch_digest,
            original.certificate, original.prev_hash,
        )
        chain.tamper_for_test(0, tampered)
        chain.verify(deep=False)  # structure intact
        with pytest.raises(TamperedLedgerError):
            chain.verify(deep=True)

    def test_verify_detects_digest_tampering(self):
        """Changing the stored batch digest breaks the block hash."""
        chain = Blockchain()
        chain.append(1, 1, batch("a"), ("cert",))
        original = chain.block(0)
        tampered = Block(
            original.height, original.round_id, original.cluster_id,
            original.batch, b"\x00" * 32,
            original.certificate, original.prev_hash,
        )
        chain.tamper_for_test(0, tampered)
        with pytest.raises(TamperedLedgerError):
            chain.verify(deep=False)

    def test_verify_detects_reordering(self):
        chain = Blockchain()
        chain.append(1, 1, batch("a"), ("cert",))
        chain.append(1, 2, batch("b"), ("cert",))
        b0, b1 = chain.block(0), chain.block(1)
        chain.tamper_for_test(0, b1)
        chain.tamper_for_test(1, b0)
        with pytest.raises(TamperedLedgerError):
            chain.verify()

    def test_append_encodes_nothing(self):
        """A fresh certificate is stored as is: no encode or digest
        until someone asks for ``certificate_digest``."""
        certificate = make_certificate(KeyRegistry(), batch_size=5)
        request = certificate.request
        digest = request.digest()  # protocol code holds it before append
        chain = Blockchain()
        before = ENCODING_STATS.snapshot()
        block = chain.append(1, 1, request.batch, certificate,
                             batch_digest=digest)
        assert not any(ENCODING_STATS.delta_since(before).values())
        assert not hasattr(certificate, "_payload_digest_cache")
        assert block.certificate is chain.certificate(0) is certificate
        assert block.certificate_digest == digest_of(certificate)
        assert ENCODING_STATS.delta_since(before)["encode_misses"] == 1

    def test_certificate_retained(self):
        chain = Blockchain()
        chain.append(1, 1, batch("a"), ("cert", 42))
        assert chain.certificate(0) == ("cert", 42)

    def test_out_of_range_access(self):
        chain = Blockchain()
        with pytest.raises(LedgerError):
            chain.block(0)
        with pytest.raises(LedgerError):
            chain.certificate(3)

    def test_prefix_comparison(self):
        long_chain = Blockchain()
        short_chain = Blockchain()
        for i in range(5):
            long_chain.append(i, 1, batch(f"t{i}"), ("c",))
            if i < 3:
                short_chain.append(i, 1, batch(f"t{i}"), ("c",))
        assert short_chain.matches_prefix_of(long_chain)
        assert not long_chain.matches_prefix_of(short_chain)

    def test_diverged_chains_not_prefix(self):
        a = Blockchain()
        b = Blockchain()
        a.append(1, 1, batch("x"), ("c",))
        b.append(1, 1, batch("y"), ("c",))
        assert not a.matches_prefix_of(b)

    def test_empty_chain_is_prefix_of_anything(self):
        a = Blockchain()
        b = Blockchain()
        b.append(1, 1, batch("x"), ("c",))
        assert a.matches_prefix_of(b)

    @given(st.lists(st.text(min_size=1, max_size=6), min_size=1,
                    max_size=20, unique=True))
    def test_same_appends_same_head(self, ids):
        def build():
            chain = Blockchain()
            for i, txn_id in enumerate(ids):
                chain.append(i, 1, batch(txn_id), ("c", i))
            return chain

        assert build().head_hash == build().head_hash
        build().verify()


def _attached(count):
    log = ChainLog()
    chains = [Blockchain() for _ in range(count)]
    for chain in chains:
        log.attach(chain)
    return log, chains


class TestChainLog:
    def test_followers_share_each_block_and_keep_their_certificates(
            self, monkeypatch):
        hashed = []
        block_hash = Block.block_hash
        monkeypatch.setattr(Block, "block_hash",
                            lambda self: hashed.append(1) or block_hash(self))
        log, chains = _attached(3)
        batches = [batch("a"), batch("b")]
        for i, chain in enumerate(chains):
            for height, body in enumerate(batches):
                chain.append(height, 1, body, ("cert", height, i),
                             batch_digest=batch_digest(body))
        assert len(log) == len(hashed) == 2
        assert all(chain._log is log for chain in chains)
        private = Blockchain()
        for height, body in enumerate(batches):
            private.append(height, 1, body, ("cert", height, 2))
        assert list(chains[2]) == list(private)
        assert chains[2].head_hash == private.head_hash
        assert [chains[1].certificate(h) for h in range(2)] == [
            ("cert", 0, 1), ("cert", 1, 1)]

    def test_an_equal_copy_of_the_batch_detaches(self):
        log, (first, second) = _attached(2)
        body = batch("a")
        first.append(0, 1, body, ("c",), batch_digest=batch_digest(body))
        copy = tuple(list(body))
        block = second.append(0, 1, copy, ("c",),
                              batch_digest=batch_digest(copy))
        assert first._log is log and second._log is None
        assert block.batch is copy and len(log) == 1

    def test_only_an_empty_unattached_chain_attaches(self):
        log, (chain,) = _attached(1)
        with pytest.raises(LedgerError):
            ChainLog().attach(chain)
        private = Blockchain()
        private.append(0, 1, batch("a"), ("c",))
        with pytest.raises(LedgerError):
            log.attach(private)


# Shared batch objects; an equal copy of one is a different object.
_POOL = tuple(
    tuple(Transaction(f"s{i}-{j}", "update", j, f"v{i}") for j in range(2))
    for i in range(4))
_EVIL = (Transaction("evil", "update", 0, "bad"),)
_RECORDS = 4


def _verdict(call):
    """``None`` if ``call`` passes, else its ledger error's message."""
    try:
        call()
    except LedgerError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


class SharedChainMachine(RuleBasedStateMachine):
    """2–4 chains attached to one :class:`ChainLog`, each shadowed by a
    private reference chain given the same calls.  The chains mostly
    follow one shared sequence of appends (the first chain at a height
    draws it) and sometimes differ from it: another batch, an equal copy
    that is not the same object, another round or cluster, another or no
    batch digest.  Certificates are sometimes the sequence's and
    sometimes the chain's own.  Tampering and recovery from a chain run
    on both sides too."""

    def __init__(self):
        super().__init__()
        self.log = ChainLog()
        self.chains, self.refs = [], []
        self.sequence = []

    @initialize(count=st.integers(2, 4))
    def attach(self, count):
        for _ in range(count):
            chain = Blockchain()
            self.log.attach(chain)
            self.chains.append(chain)
            self.refs.append(Blockchain())

    def _pick(self, index):
        i = index % len(self.chains)
        return i, self.chains[i], self.refs[i]

    @rule(index=st.integers(0, 3), follow=st.integers(0, 3),
          change=st.sampled_from(
              ["batch", "copy", "round", "cluster", "digest", "none"]),
          pooled=st.sampled_from(_POOL), own=st.booleans())
    def append(self, index, follow, change, pooled, own):
        i, chain, ref = self._pick(index)
        height = ref.height
        if height < len(self.sequence):
            round_id, cluster_id, body, digest, cert = self.sequence[height]
            if not follow:
                if change == "batch":
                    body, digest = pooled, batch_digest(pooled)
                elif change == "copy":
                    body = tuple(list(body))
                elif change == "round":
                    round_id += 1
                elif change == "cluster":
                    cluster_id += 1
                elif change == "digest":
                    digest = b"\x01" * 32
                else:
                    digest = None
        else:
            round_id, cluster_id, body = height, 1 + height % 2, pooled
            digest = None if change == "none" else batch_digest(body)
            cert = ("cert", height)
            self.sequence.append((round_id, cluster_id, body, digest, cert))
        if own:
            cert = ("cert", height, i)
        got = chain.append(round_id, cluster_id, body, cert,
                           batch_digest=digest)
        want = ref.append(round_id, cluster_id, body, cert,
                          batch_digest=digest)
        assert got == want
        assert got.batch is want.batch and got.certificate is cert

    @rule(index=st.integers(0, 3), at=st.integers(0, 63),
          kind=st.sampled_from(["content", "digest", "swap"]))
    def tamper(self, index, at, kind):
        _i, chain, ref = self._pick(index)
        if not ref.height:
            return
        height = at % ref.height
        old = ref.block(height)
        if kind == "content":
            forged = Block(old.height, old.round_id, old.cluster_id, _EVIL,
                           old.batch_digest, old.certificate, old.prev_hash)
        elif kind == "digest":
            forged = Block(old.height, old.round_id, old.cluster_id,
                           old.batch, b"\x02" * 32, old.certificate,
                           old.prev_hash)
        else:
            forged = ref.block((height + 1) % ref.height)
        chain.tamper_for_test(height, forged)
        ref.tamper_for_test(height, forged)

    @rule(index=st.integers(0, 3))
    def recover(self, index):
        _i, chain, ref = self._pick(index)
        got = _verdict(lambda: recover_from_peer(chain, _RECORDS))
        assert got == _verdict(lambda: recover_from_peer(ref, _RECORDS))
        if got is None:
            fresh, store = recover_from_peer(chain, _RECORDS)
            expected, expected_store = recover_from_peer(ref, _RECORDS)
            assert fresh._log is None
            assert list(fresh) == list(expected)
            assert store.snapshot() == expected_store.snapshot()

    @invariant()
    def chains_match_their_references(self):
        for chain, ref in zip(self.chains, self.refs):
            assert chain.height == len(chain) == ref.height
            assert chain.head_hash == ref.head_hash
            mine, theirs = list(chain), list(ref)
            assert mine == theirs
            for height, (got, want) in enumerate(zip(mine, theirs)):
                assert got.batch is want.batch
                assert got.certificate is want.certificate
                assert chain.certificate(height) is ref.certificate(height)
            assert _verdict(chain.verify) == _verdict(ref.verify)
            assert (_verdict(lambda: chain.verify(deep=False))
                    == _verdict(lambda: ref.verify(deep=False)))
        pairs = list(zip(self.chains, self.refs))
        for (a, ref_a), (b, ref_b) in permutations(pairs, 2):
            assert a.matches_prefix_of(b) == ref_a.matches_prefix_of(ref_b)


TestSharedChain = SharedChainMachine.TestCase
TestSharedChain.settings = settings(max_examples=300,
                                    stateful_step_count=40,
                                    deadline=None)
