"""Blocks of the ResilientDB ledger.

Paper §3 ("The ledger"): the i-th block of the ledger holds the i-th
executed client request (here: request *batch*) together with the commit
certificate that proves the batch was committed by its cluster — only a
single commit certificate can exist per cluster per GeoBFT round
(Lemma 2.3), which is what makes blocks tamper-evident.  Blocks chain by
hash, so any modification of a stored block is detectable.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count, starmap
from operator import attrgetter
from typing import Any, Callable, Iterator, Optional

from ..crypto.digests import digest_of, encode_canonical
from ..types import ClusterId, RoundId

GENESIS_HASH = b"\x00" * 32


def _txn_bytes(txn_id: str, op: str, key: int, value: str) -> bytes:
    """The one copy of the transaction layout: canonical encoding of
    ``("txn", txn_id, op, key, value)`` for exact ``str``/``int`` fields."""
    tid, op, val = txn_id.encode(), op.encode(), value.encode()
    key = b"%d" % key
    return (b"l5:s3:txns%d:%bs%d:%bi%d:%bs%d:%b;"
            % (len(tid), tid, len(op), op, len(key), key, len(val), val))


@dataclass(frozen=True, init=False)
class Transaction:
    """One client operation against the YCSB table.

    ``op`` is one of ``"read"``, ``"update"``, ``"insert"``,
    ``"modify"`` (read-modify-write), or ``"noop"``.

    Stores its four fields and nothing else: the canonical bytes are
    derived when asked (:meth:`canonical_bytes`), never kept.  Generated
    batches (:class:`MintedBatch`) hold draws, not transactions.
    """

    __slots__ = ("txn_id", "op", "key", "value")

    txn_id: str
    op: str
    key: int
    value: str

    # By hand: a ``value = ""`` class attribute would collide with the slot.
    def __init__(self, txn_id: str, op: str, key: int, value: str = ""):
        set_field = object.__setattr__
        set_field(self, "txn_id", txn_id)
        set_field(self, "op", op)
        set_field(self, "key", key)
        set_field(self, "value", value)

    def __reduce__(self) -> tuple:  # pickle's setattr would hit the freeze
        return (Transaction, (self.txn_id, self.op, self.key, self.value))

    def payload(self) -> tuple:
        """Canonical primitive form for hashing/signing."""
        return ("txn", self.txn_id, self.op, self.key, self.value)

    def canonical_bytes(self) -> bytes:
        """Canonical encoding of :meth:`payload`, in one interpolation
        (the generic encoder for fields that are not exactly ``str``/
        ``int``: a ``bool`` key encodes as ``T``, not ``1``)."""
        txn_id, op, key, value = self.txn_id, self.op, self.key, self.value
        if not (txn_id.__class__ is str and op.__class__ is str
                and key.__class__ is int and value.__class__ is str):
            return encode_canonical(self.payload())
        return _txn_bytes(txn_id, op, key, value)

    @classmethod
    def noop(cls, txn_id: str = "noop") -> "Transaction":
        """The paper's no-op request, proposed when a cluster has no
        client requests for a round (§2.5)."""
        return cls(txn_id, "noop", 0, "")


class MintedBatch(Sequence):
    """A generated batch, stored as its generator's draws: the counter of
    its first transaction, one ``array`` per column of draws, and ``row``,
    which rebuilds the fields of transaction ``first + i`` from row
    ``i``'s draws, so transactions exist only while the batch is iterated.
    Its length, items, equality, hash and pickle are those of
    ``tuple(self)`` (``row`` is a closure).  Hand-built batches are tuples.

    Whenever the batch derives its bytes it records their SHA256 in
    ``_sha256``, so :func:`batch_digest` after an encode (a request's
    signature or payload digest) re-derives nothing.
    """

    __slots__ = ("_first", "_draws", "_row", "_sha256")

    def __init__(self, first: int, draws: tuple, row: Callable) -> None:
        self._first, self._draws, self._row = first, draws, row

    def _rows(self):
        return starmap(self._row, zip(count(self._first), *self._draws))

    def __len__(self) -> int:
        return len(self._draws[0])

    def __iter__(self):
        return starmap(Transaction, self._rows())

    def __getitem__(self, index):
        return tuple(self)[index]

    def __eq__(self, other) -> bool:
        return (tuple(self) == tuple(other)
                if isinstance(other, (tuple, MintedBatch)) else NotImplemented)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __reduce__(self) -> tuple:
        return (tuple, (tuple(self),))

    def __repr__(self) -> str:  # content, for the aliasing sanitizer too
        return repr(tuple(self))

    def canonical_bytes(self) -> bytes:
        """Canonical encoding of ``tuple(self)``, row by row; records its
        SHA256 in ``_sha256``."""
        body = b"".join(starmap(_txn_bytes, self._rows()))
        encoded = b"l%d:%b;" % (len(self), body)
        self._sha256 = hashlib.sha256(encoded).digest()
        return encoded


#: A request batch as circulated by the consensus protocols.
Batch = Sequence[Transaction]


_FIELDS = attrgetter("txn_id", "op", "key", "value")


def batch_rows(batch: Batch) -> Iterator[tuple]:
    """Each transaction's ``(txn_id, op, key, value)``, in order; a
    minted batch hands out its rows without building transactions."""
    if batch.__class__ is MintedBatch:
        return batch._rows()
    return map(_FIELDS, batch)


def batch_digest(batch: Batch) -> bytes:
    """SHA256 digest of a request batch: equals
    ``digest_of(tuple(t.payload() for t in batch))``, since a transaction
    encodes to the bytes of its ``payload()`` tuple.  A minted batch
    answers from the digest it recorded when it last derived its bytes."""
    if batch.__class__ is MintedBatch:
        try:
            return batch._sha256
        except AttributeError:
            batch.canonical_bytes()
            return batch._sha256
    body = b"".join([txn.canonical_bytes() for txn in batch])
    return hashlib.sha256(b"l%d:%b;" % (len(batch), body)).digest()


@dataclass(frozen=True)
class Block:
    """One ledger entry: an executed batch plus its commitment proof.

    ``certificate`` is the commit certificate this replica holds for the
    block (paper §3).  It is *not* covered by the block hash: any valid
    certificate proves the same request (Lemma 2.3), but different
    replicas legitimately assemble certificates from different quorum
    subsets of commit signatures, and the hash chain must agree across
    replicas.  Certificates are fully verified at admission instead, and
    kept here for audit; :attr:`certificate_digest` is derived from the
    one retained, on demand, so it cannot disagree with it.

    Because the hash leaves the certificate out, a deployment builds and
    hashes each block once: its replicas' ledgers are cursors into one
    shared chain (:class:`~repro.ledger.blockchain.ChainLog`), each with
    its own certificate column, and a ledger hands out the shared block
    with its own certificate in it.
    """

    __slots__ = ("height", "round_id", "cluster_id", "batch",
                 "batch_digest", "certificate", "prev_hash")

    height: int
    round_id: RoundId
    cluster_id: ClusterId
    batch: Batch
    batch_digest: bytes
    certificate: Any
    prev_hash: bytes

    def __reduce__(self) -> tuple:  # as Transaction: frozen and slotted
        return (Block, tuple(getattr(self, name) for name in self.__slots__))

    @property
    def certificate_digest(self) -> bytes:
        """Digest of the retained certificate (encodes it; audit only)."""
        return digest_of(self.certificate)

    def payload(self) -> tuple:
        """Canonical primitive form of everything the hash covers.

        The hash covers the *digest* of the batch, which commits to the
        full content (SHA256 is collision resistant) while keeping
        block hashing O(1) in the batch size.  :meth:`verify_content`
        re-derives the digest from the stored transactions.
        """
        return (
            "block",
            self.height,
            self.round_id,
            self.cluster_id,
            self.batch_digest,
            self.prev_hash,
        )

    def block_hash(self) -> bytes:
        """SHA256 over the block payload (cached by the blockchain).

        One interpolation, byte-identical to ``digest_of(self.payload())``
        for exact ``int``/``bytes`` fields (the ledger tests pin this).
        """
        height = b"%d" % self.height
        round_id = b"%d" % self.round_id
        cluster = b"%d" % self.cluster_id
        digest, prev = self.batch_digest, self.prev_hash
        return hashlib.sha256(
            b"l6:s5:blocki%d:%bi%d:%bi%d:%bb%d:%bb%d:%b;"
            % (len(height), height, len(round_id), round_id,
               len(cluster), cluster, len(digest), digest,
               len(prev), prev)).digest()

    def verify_content(self) -> bool:
        """Whether the stored transactions match ``batch_digest``."""
        return batch_digest(self.batch) == self.batch_digest


def make_block(height: int, round_id: RoundId, cluster_id: ClusterId,
               batch: Batch, certificate: Any,
               prev_hash: Optional[bytes],
               precomputed_batch_digest: Optional[bytes] = None) -> Block:
    """Construct a block carrying ``certificate``.

    ``certificate`` may be any canonically encodable object (commit
    certificates expose ``payload()``); it is stored, not encoded.  A
    batch digest that protocol code has already computed (and cached on
    its request) can be passed in to avoid re-hashing the batch on the
    hot path.
    """
    if precomputed_batch_digest is None:
        precomputed_batch_digest = batch_digest(batch)
    return Block(
        height=height,
        round_id=round_id,
        cluster_id=cluster_id,
        batch=batch,
        batch_digest=precomputed_batch_digest,
        certificate=certificate,
        prev_hash=prev_hash if prev_hash is not None else GENESIS_HASH,
    )
