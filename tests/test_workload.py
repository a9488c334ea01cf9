"""Tests for the Zipfian generators and the YCSB workload."""

import copy
import dataclasses
import pickle
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.messages import ClientRequestBatch
from repro.crypto.digests import digest_of, encode_canonical
from repro.errors import WorkloadError
from repro.ledger.block import Block, MintedBatch, Transaction, batch_digest
from repro.types import client_id
from repro.workload.payment import PaymentWorkload
from repro.workload.ycsb import YcsbWorkload
from repro.workload.zipfian import (
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZipfianGenerator,
    make_generator,
    zeta,
)


class TestZeta:
    def test_known_values(self):
        assert zeta(1, 0.99) == pytest.approx(1.0)
        assert zeta(2, 0.5) == pytest.approx(1.0 + 1 / 2 ** 0.5)

    def test_monotone_in_n(self):
        assert zeta(100, 0.99) < zeta(200, 0.99)

    def test_memoized(self):
        assert zeta(1000, 0.99) is not None
        assert zeta(1000, 0.99) == zeta(1000, 0.99)


class TestGenerators:
    @pytest.mark.parametrize("cls", [UniformGenerator, ZipfianGenerator,
                                     ScrambledZipfianGenerator])
    def test_keys_in_range(self, cls):
        gen = cls(1000, random.Random(1))
        for _ in range(2000):
            assert 0 <= gen.next() < 1000

    def test_zipfian_is_skewed(self):
        gen = ZipfianGenerator(10_000, random.Random(2))
        draws = [gen.next() for _ in range(20_000)]
        top_10 = sum(1 for d in draws if d < 10)
        # With theta=0.99 the 10 hottest of 10k keys get a large share;
        # uniform would give ~0.1%.
        assert top_10 / len(draws) > 0.2

    def test_uniform_is_not_skewed(self):
        gen = UniformGenerator(10_000, random.Random(2))
        draws = [gen.next() for _ in range(20_000)]
        top_10 = sum(1 for d in draws if d < 10)
        assert top_10 / len(draws) < 0.01

    def test_scrambled_spreads_hot_keys(self):
        gen = ScrambledZipfianGenerator(10_000, random.Random(3))
        draws = [gen.next() for _ in range(5_000)]
        # Hot keys exist but are not concentrated at low ids.
        assert sum(1 for d in draws if d < 10) / len(draws) < 0.05

    def test_deterministic_per_seed(self):
        a = ZipfianGenerator(1000, random.Random(9))
        b = ZipfianGenerator(1000, random.Random(9))
        assert [a.next() for _ in range(50)] == [b.next() for _ in range(50)]

    def test_factory(self):
        rng = random.Random(0)
        assert isinstance(make_generator("uniform", 10, rng),
                          UniformGenerator)
        assert isinstance(make_generator("zipfian", 10, rng),
                          ZipfianGenerator)
        assert isinstance(make_generator("scrambled_zipfian", 10, rng),
                          ScrambledZipfianGenerator)
        with pytest.raises(WorkloadError):
            make_generator("pareto", 10, rng)

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            ZipfianGenerator(0, random.Random(0))
        with pytest.raises(WorkloadError):
            ZipfianGenerator(10, random.Random(0), theta=1.5)
        with pytest.raises(WorkloadError):
            UniformGenerator(0, random.Random(0))

    @given(st.integers(min_value=1, max_value=10_000),
           st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=30)
    def test_zipfian_bounds_property(self, n, seed):
        gen = ZipfianGenerator(n, random.Random(seed))
        for _ in range(50):
            assert 0 <= gen.next() < n


def assert_same_as_its_tuple(batch):
    """A minted batch is the tuple of its transactions in every way a
    caller can observe: value, items, bytes and pickle."""
    plain = tuple(batch)
    assert batch == plain and plain == batch
    assert not batch != plain and not plain != batch
    assert hash(batch) == hash(plain)
    assert len(batch) == len(plain)
    assert batch[0] == plain[0] and batch[-1] == plain[-1]
    assert batch[1:] == plain[1:]
    assert batch_digest(batch) == batch_digest(plain)
    assert (encode_canonical(ClientRequestBatch("c:0", client_id(1, 1),
                                                batch, None))
            == encode_canonical(ClientRequestBatch("c:0", client_id(1, 1),
                                                   plain, None)))
    clone = pickle.loads(pickle.dumps(batch))
    assert clone == batch and batch_digest(clone) == batch_digest(batch)


class TestYcsbWorkload:
    def test_write_only_default(self):
        wl = YcsbWorkload(record_count=100, seed=1)
        txns = [wl.next_txn() for _ in range(100)]
        assert all(t.op == "update" for t in txns)

    def test_mixed_workload(self):
        wl = YcsbWorkload(record_count=100, write_fraction=0.5, seed=1)
        ops = {wl.next_txn().op for _ in range(200)}
        assert ops == {"update", "read"}

    def test_txn_ids_unique(self):
        wl = YcsbWorkload(record_count=100, seed=1)
        ids = [wl.next_txn().txn_id for _ in range(500)]
        assert len(set(ids)) == len(ids)

    def test_batches(self):
        wl = YcsbWorkload(record_count=100, seed=1)
        b = wl.next_batch(10, prefix="c1-")
        assert len(b) == 10
        assert all(t.txn_id.startswith("c1-") for t in b)
        assert wl.generated_txns == 10

    @pytest.mark.parametrize("distribution", ["zipfian", "uniform"])
    @pytest.mark.parametrize("write_fraction", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_next_batch_equals_successive_next_txn(
            self, seed, write_fraction, distribution):
        """The batch loop draws (key, then write/read) and its rows carry
        the ids and values ``next_txn`` mints (equal transactions derive
        equal bytes: ``tests/test_ledger_blocks.py``); the minted batch
        is its tuple."""
        def twin():
            return YcsbWorkload(record_count=100, seed=seed,
                                write_fraction=write_fraction,
                                distribution=distribution, value_size=9)
        batched, single = twin(), twin()
        for size, prefix in ((7, "c1-"), (1, ""), (12, "c2-")):
            batch = batched.next_batch(size, prefix)
            reference = tuple(
                single.next_txn(f"{prefix}t{single.generated_txns + 1}")
                for _ in range(size))
            assert batch == reference
            assert batch_digest(batch) == digest_of(
                tuple(t.payload() for t in reference))
            assert batched.generated_txns == single.generated_txns
            assert_same_as_its_tuple(batch)

    def test_batch_size_validation(self):
        wl = YcsbWorkload(record_count=100, seed=1)
        with pytest.raises(WorkloadError):
            wl.next_batch(0)

    @pytest.mark.parametrize("size", [True, 2.0, "3", None])
    def test_batch_size_must_be_an_int(self, size):
        """``next_batch(True)`` used to mint a one-transaction batch."""
        wl = YcsbWorkload(record_count=100, seed=1)
        with pytest.raises(WorkloadError, match="batch size"):
            wl.next_batch(size)
        assert wl.generated_txns == 0

    @pytest.mark.parametrize("record_count", [True, 2.5, "100", None])
    def test_record_count_must_be_an_int(self, record_count):
        """``record_count=True`` used to build a one-record workload."""
        with pytest.raises(WorkloadError, match="record_count"):
            YcsbWorkload(record_count=record_count)

    def test_invalid_write_fraction(self):
        with pytest.raises(WorkloadError):
            YcsbWorkload(write_fraction=1.5)

    def test_value_size(self):
        wl = YcsbWorkload(record_count=10, value_size=32, seed=1)
        assert len(wl.next_txn().value) == 32

    def test_deterministic_per_seed(self):
        w1 = YcsbWorkload(record_count=100, seed=5)
        w2 = YcsbWorkload(record_count=100, seed=5)
        assert w1.next_batch(20) == w2.next_batch(20)

    def test_keys_within_active_set(self):
        wl = YcsbWorkload(record_count=50, seed=2)
        for _ in range(500):
            assert 0 <= wl.next_txn().key < 50


class TestPaymentWorkload:
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_next_batch_equals_per_transfer_reference(self, seed):
        """Rows rebuild the transfers a per-transaction loop over the
        same draws (source, destination, then amount) would mint."""
        payment = PaymentWorkload("b0", seed, accounts=50)
        rng, counter = random.Random(seed), 0
        for size, prefix in ((7, "c1-"), (1, ""), (12, "c2-")):
            batch = payment.next_batch(size, prefix)
            reference = []
            for _ in range(size):
                counter += 1
                src, dst = rng.randrange(50), rng.randrange(50)
                amount = rng.randint(1, 500)
                reference.append(Transaction(f"{prefix}pay{counter}",
                                             "modify", src,
                                             f"b0->acct{dst}:{amount}"))
            assert batch == tuple(reference)
            assert batch_digest(batch) == digest_of(
                tuple(t.payload() for t in reference))
            assert payment.generated_txns == counter
            assert_same_as_its_tuple(batch)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**64),
           accounts=st.one_of(st.integers(1, 100_000),
                              st.integers(0, 62).map(lambda e: 2**e),
                              st.integers(1, 62).map(lambda e: 2**e - 1),
                              st.integers(1, 62).map(lambda e: 2**e + 1)),
           size=st.integers(1, 40))
    def test_inline_draw_is_randrange_and_randint(self, seed, accounts,
                                                  size):
        """``next_batch`` draws with ``getrandbits`` directly; its columns
        and the generator's state afterwards are exactly those of
        ``randrange(accounts)``, ``randrange(accounts)``,
        ``randint(1, 500)`` per transfer, ``accounts = 1`` and powers of
        two (where ``bit_length`` turns over) included."""
        payment = PaymentWorkload("b0", seed, accounts=accounts)
        rng = random.Random(seed)
        for prefix in ("c1-", "c2-"):
            src, dst, amount = payment.next_batch(size, prefix)._draws
            expected = [(rng.randrange(accounts), rng.randrange(accounts),
                         rng.randint(1, 500)) for _ in range(size)]
            assert list(zip(src, dst, amount)) == expected
            assert payment._rng.getstate() == rng.getstate()

    @pytest.mark.parametrize("accounts", [True, 2.5, "200", None, 0])
    def test_accounts_must_be_a_positive_int(self, accounts):
        """``accounts=True`` used to build a one-account table and
        ``accounts=2.5`` to fail only in ``next_batch``."""
        with pytest.raises(WorkloadError, match="accounts"):
            PaymentWorkload("b0", seed=1, accounts=accounts)

    @pytest.mark.parametrize("size", [True, 2.0, "3", None, 0])
    def test_batch_size_must_be_a_positive_int(self, size):
        """``next_batch(True)`` used to mint one transfer and
        ``next_batch(2.0)`` raised a bare ``TypeError``."""
        payment = PaymentWorkload("b0", seed=1)
        with pytest.raises(WorkloadError, match="batch size"):
            payment.next_batch(size)
        assert payment.generated_txns == 0


class _ScriptedRng:
    """Hands out scripted draws: ``randrange`` and ``randint`` the next
    of ``ints``, ``random`` the next of ``floats``, ``getrandbits`` the
    next of ``bits``."""

    def __init__(self, ints=(), floats=(), bits=()):
        ints, floats, bits = iter(ints), iter(floats), iter(bits)
        self.randrange = self.randint = lambda *_: next(ints)
        self.random = lambda: next(floats)
        self.getrandbits = lambda _k: next(bits)


def assert_same_as_q_columns(batch):
    """Rows, bytes and digest equal those of the same draws in
    ``array("q")`` columns, and every row field is an exact ``int``."""
    wide = MintedBatch(batch._first,
                       tuple(array("q", column) for column in batch._draws),
                       batch._row)
    rows = list(batch._rows())
    assert rows == list(wide._rows())
    assert all(field.__class__ is int for row in rows for field in row
               if not isinstance(field, str))
    assert batch.canonical_bytes() == wide.canonical_bytes()
    assert batch_digest(batch) == batch_digest(wide)
    assert tuple(batch) == tuple(wide)


class TestColumnWidths:
    """Draw columns take the narrowest typecode their range allows; at
    each width's edge the batch is the one ``array("q")`` would hold."""

    @pytest.mark.parametrize("accounts, code", [(200, "B"), (65_536, "H"),
                                                (65_537, "I")])
    def test_payment_account_columns(self, accounts, code):
        payment = PaymentWorkload("b0", seed=3, accounts=accounts)
        assert_same_as_q_columns(payment.next_batch(50, "c1-"))
        top = accounts - 1
        # (source, destination, amount - 1) per transfer: both range
        # ends (an amount is 1 + its draw below 500).
        payment._rng = _ScriptedRng(bits=[top, 0, 499, 0, top, 0,
                                          top, top, 499])
        batch = payment.next_batch(3, "c2-")
        src, dst, amount = batch._draws
        assert (src.typecode, dst.typecode, amount.typecode) == (
            code, code, "H")
        assert [(t.key, t.value) for t in batch] == [
            (top, "b0->acct0:500"), (0, f"b0->acct{top}:1"),
            (top, f"b0->acct{top}:500")]
        assert_same_as_q_columns(batch)

    @pytest.mark.parametrize("record_count, code", [(2**31, "i"),
                                                    (2**31 + 1, "q")])
    def test_ycsb_key_column(self, record_count, code):
        """The extreme key is ``record_count - 1``; its read is stored
        as ``~key == -record_count``, the column's low end."""
        top = record_count - 1
        workload = YcsbWorkload(
            record_count=record_count, write_fraction=0.5,
            distribution="uniform", value_size=4,
            rng=_ScriptedRng(ints=[top, top, 0, 0],
                             floats=[0.0, 0.9, 0.0, 0.9]))
        batch = workload.next_batch(4, "c1-")
        (keys,) = batch._draws
        assert keys.typecode == code
        assert list(keys) == [top, -record_count, 0, -1]
        assert [(t.op, t.key) for t in batch] == [
            ("update", top), ("read", top), ("update", 0), ("read", 0)]
        assert_same_as_q_columns(batch)


class TestTransactionFootprint:
    """The ledger pins every generated batch for the whole run, so the
    bytes a batch retains per transaction are what peak RSS is made of.
    A generated batch keeps its generator's draws, not transactions."""

    def test_retained_bytes_per_transaction(self):
        """A few bytes of draws per transaction, and nothing left behind
        by digesting or iterating a batch (188 B each when batches held
        their transactions, 351 B when those also stored their bytes)."""
        ycsb = YcsbWorkload(record_count=10_000, seed=2)
        payment = PaymentWorkload("branch0", seed=2)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            batches = [generator.next_batch(100, prefix="client0.1-")
                       for generator in (ycsb, payment) for _ in range(100)]
            digests = [batch_digest(batch) for batch in batches]
            retained = tracemalloc.get_traced_memory()[0] - before
            for batch in batches:
                batch_digest(batch)
                tuple(batch)
            retained_again = (tracemalloc.get_traced_memory()[0] - before
                              - retained)
        finally:
            tracemalloc.stop()
        assert len(set(digests)) == 200
        assert retained / 20_000 <= 40
        # Nothing per transaction: at most an interpreter free-list entry.
        assert retained_again < 256

    def test_no_instance_dict(self):
        txn = Transaction("t1", "update", 1, "v")
        block = Block(0, 1, 1, (txn,), batch_digest((txn,)), None, b"")
        for obj in (txn, block):
            assert not hasattr(obj, "__dict__")
            assert not hasattr(obj, "__weakref__")

    def test_request_survives_pickling(self):
        """Frozen, slotted request batches and blocks pickle and copy."""
        batch = YcsbWorkload(record_count=100, seed=1).next_batch(5, "c-")
        request = ClientRequestBatch(
            "c:0", client_id(1, 1), tuple(batch) + (Transaction.noop(),),
            None)
        clone = pickle.loads(pickle.dumps(request))
        assert clone == request
        assert clone.digest() == request.digest()
        assert clone.encoded() == request.encoded()
        with pytest.raises(dataclasses.FrozenInstanceError):
            clone.batch[0].key = 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            clone.batch_id = "c:1"
        block = Block(0, 1, 1, batch, request.digest(), None, b"\x00" * 32)
        for restored in (pickle.loads(pickle.dumps(block)), copy.copy(block)):
            assert restored == block
            assert restored.block_hash() == block.block_hash()
