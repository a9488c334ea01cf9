"""The immutable append-only blockchain maintained by every replica.

ResilientDB is fully replicated: each replica independently maintains a
full copy of the ledger (paper §3).  Logically that is what a
:class:`Blockchain` is — one ledger per replica.  Physically, the
replicas of a deployment share one :class:`ChainLog`: the block hash
leaves the certificate out, so replicas that append the same batches in
the same order compute the same chain, and each block is built, hashed
and stored once per deployment.  A replica's chain is a cursor into that
log plus a column of its own certificates, until anything unusual
detaches it to a private copy.

The chain supports:

* append with automatic hash linking,
* full-chain verification (:meth:`Blockchain.verify`), which is how a
  recovering replica audits a peer's ledger before trusting it,
* tamper detection tests — replacing or reordering any block breaks the
  hash chain and raises :class:`TamperedLedgerError`.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from ..errors import LedgerError, TamperedLedgerError
from ..types import ClusterId, RoundId
from .block import GENESIS_HASH, Batch, Block, make_block


def _carrying(block: Block, certificate: Any) -> Block:
    """``block`` as the chain that appended ``certificate`` holds it."""
    if block.certificate is certificate:
        return block
    return Block(block.height, block.round_id, block.cluster_id, block.batch,
                 block.batch_digest, certificate, block.prev_hash)


class ChainLog:
    """One deployment's chain, shared by its replicas' ledgers.

    Holds each block and its hash once; a block carries the certificate
    of the first chain that appended it.  An attached
    :class:`Blockchain` is a cursor (its height) plus a column of its own
    certificates, because certificates legitimately differ between
    replicas (the ``Block`` docstring).  They differ only when their
    commit sets do: a group's engines share one certificate object per
    commit set, so a column mostly holds references to the same few
    objects as its neighbours'.  Appending moves the cursor when
    the log's block at that height has the same ``round_id`` and
    ``cluster_id``, the same batch *object* and the ``batch_digest``
    argument as its digest; the first chain to reach the head builds and
    hashes the block.  Chains fed the same batch objects in the same
    order from empty hold the same blocks, so sharing is exact by
    construction.

    A chain leaves with a private copy of its prefix, carrying its own
    certificates (see :meth:`detach`), when an append differs from the
    log's block at its height or it is tampered with.  From then on it
    runs the private code every unattached chain runs.
    """

    def __init__(self) -> None:
        self._blocks: List[Block] = []
        self._hashes: List[bytes] = []

    def __len__(self) -> int:
        return len(self._blocks)

    def attach(self, chain: "Blockchain") -> None:
        """Share this log with an empty, unattached ``chain``."""
        if chain._log is not None or chain._blocks:
            raise LedgerError("only an empty, unattached chain attaches")
        chain._log = self

    def advance(self, chain: "Blockchain", round_id: RoundId,
                cluster_id: ClusterId, batch: Batch, certificate: Any,
                batch_digest: Optional[bytes]) -> Optional[Block]:
        """Append on attached ``chain``: the log's block at its cursor,
        or ``None`` if ``chain`` detached instead."""
        certificates = chain._certificates
        height = len(certificates)
        blocks = self._blocks
        if height < len(blocks):
            block = blocks[height]
            if (block.batch is not batch or block.round_id != round_id
                    or block.cluster_id != cluster_id
                    or block.batch_digest != batch_digest):
                self.detach(chain)
                return None
        else:
            hashes = self._hashes
            block = make_block(
                height=height,
                round_id=round_id,
                cluster_id=cluster_id,
                batch=batch,
                certificate=certificate,
                prev_hash=hashes[-1] if hashes else GENESIS_HASH,
                precomputed_batch_digest=batch_digest,
            )
            blocks.append(block)
            hashes.append(block.block_hash())
        certificates.append(certificate)
        return block

    def detach(self, chain: "Blockchain") -> None:
        """Give ``chain`` a private copy of its prefix, carrying its own
        certificates."""
        certificates = chain._certificates
        chain._blocks = list(map(_carrying, self._blocks, certificates))
        chain._hashes = self._hashes[:len(certificates)]
        chain._log, chain._certificates = None, []


class Blockchain:
    """An append-only, hash-linked sequence of :class:`Block` objects.

    A private chain holds its blocks and their hashes.  A chain attached
    to a :class:`ChainLog` holds only the certificate it appended at each
    height and reads everything else from the log.
    """

    def __init__(self) -> None:
        self._blocks: List[Block] = []
        self._hashes: List[bytes] = []
        self._log: Optional[ChainLog] = None
        self._certificates: List[Any] = []  # only while attached

    def _columns(self) -> Tuple[List[Block], List[bytes], int]:
        """``(blocks, hashes, height)``: the first ``height`` entries of
        the two lists are this chain."""
        log = self._log
        if log is None:
            return self._blocks, self._hashes, len(self._blocks)
        return log._blocks, log._hashes, len(self._certificates)

    def __len__(self) -> int:
        return self.height

    def __iter__(self) -> Iterator[Block]:
        log = self._log
        if log is None:
            return iter(self._blocks)
        return map(_carrying, log._blocks, self._certificates)

    @property
    def head_hash(self) -> bytes:
        """Hash of the latest block (genesis hash when empty)."""
        _blocks, hashes, height = self._columns()
        return hashes[height - 1] if height else GENESIS_HASH

    @property
    def height(self) -> int:
        """Number of blocks appended so far."""
        if self._log is None:
            return len(self._blocks)
        return len(self._certificates)

    def block(self, height: int) -> Block:
        """The block at ``height`` (0-based), carrying the certificate
        this chain appended there."""
        blocks, _hashes, chain_height = self._columns()
        if not 0 <= height < chain_height:
            raise LedgerError(
                f"no block at height {height} (chain height {chain_height})"
            )
        if self._log is None:
            return blocks[height]
        return _carrying(blocks[height], self._certificates[height])

    def certificate(self, height: int) -> Any:
        """The commit certificate the block at ``height`` carries."""
        return self.block(height).certificate

    def append(self, round_id: RoundId, cluster_id: ClusterId, batch: Batch,
               certificate: Any,
               batch_digest: Optional[bytes] = None) -> Block:
        """Append the next block for ``batch``, linking it to the head.

        ``batch_digest`` accepts the digest the caller already holds
        (requests cache it), avoiding a re-hash of the full batch on the
        append path.  ``certificate`` is stored on the block as is —
        appending encodes nothing.
        """
        log = self._log
        if log is not None:
            block = log.advance(self, round_id, cluster_id, batch,
                                certificate, batch_digest)
            if block is not None:
                return _carrying(block, certificate)
        block = make_block(
            height=len(self._blocks),
            round_id=round_id,
            cluster_id=cluster_id,
            batch=batch,
            certificate=certificate,
            prev_hash=self.head_hash,
            precomputed_batch_digest=batch_digest,
        )
        self._blocks.append(block)
        self._hashes.append(block.block_hash())
        return block

    def verify(self, deep: bool = True) -> None:
        """Re-verify the whole hash chain.

        Raises :class:`TamperedLedgerError` on the first inconsistency:
        a block whose stored hash no longer matches its payload, a
        broken ``prev_hash`` link, or a height mismatch.  With ``deep``
        (the default) each block's transactions are additionally
        re-hashed against its ``batch_digest`` — the full content
        audit a recovering replica performs; ``deep=False`` checks only
        the chain structure (cheap, used by run-time safety audits).
        An attached chain checks every block of the log up to its height.
        """
        blocks, hashes, chain_height = self._columns()
        prev = GENESIS_HASH
        for height in range(chain_height):
            block = blocks[height]
            if block.height != height:
                raise TamperedLedgerError(
                    f"block at position {height} claims height {block.height}"
                )
            if block.prev_hash != prev:
                raise TamperedLedgerError(
                    f"block {height} does not link to its predecessor"
                )
            if deep and not block.verify_content():
                raise TamperedLedgerError(
                    f"block {height} transactions do not match their digest"
                )
            recomputed = block.block_hash()
            if recomputed != hashes[height]:
                raise TamperedLedgerError(
                    f"block {height} contents do not match stored hash"
                )
            prev = recomputed

    def tamper_for_test(self, height: int, block: Block) -> None:
        """Overwrite a block *without* fixing hashes.

        Exists solely so tests can demonstrate that :meth:`verify`
        detects tampering; real code never mutates the chain.  An
        attached chain detaches first, so only its own copy changes.
        """
        if self._log is not None:
            self._log.detach(self)
        self._blocks[height] = block

    def matches_prefix_of(self, other: "Blockchain") -> bool:
        """Whether this chain is a prefix of (or equal to) ``other``.

        The non-divergence tests use this: any two non-faulty replicas'
        ledgers must be prefix-comparable at all times.
        """
        _blocks, mine, height = self._columns()
        _blocks, theirs, other_height = other._columns()
        if height > other_height:
            return False
        return mine[:height] == theirs[:height]
