"""The immutable append-only blockchain maintained by every replica.

ResilientDB is fully replicated: each replica independently maintains a
full copy of the ledger (paper §3).  The chain supports:

* append with automatic hash linking,
* full-chain verification (:meth:`Blockchain.verify`), which is how a
  recovering replica audits a peer's ledger before trusting it,
* tamper detection tests — replacing or reordering any block breaks the
  hash chain and raises :class:`TamperedLedgerError`.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional

from ..errors import LedgerError, TamperedLedgerError
from ..types import ClusterId, RoundId
from .block import GENESIS_HASH, Batch, Block, make_block


class Blockchain:
    """An append-only, hash-linked sequence of :class:`Block` objects."""

    def __init__(self) -> None:
        self._blocks: List[Block] = []
        self._hashes: List[bytes] = []

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks)

    @property
    def head_hash(self) -> bytes:
        """Hash of the latest block (genesis hash when empty)."""
        return self._hashes[-1] if self._hashes else GENESIS_HASH

    @property
    def height(self) -> int:
        """Number of blocks appended so far."""
        return len(self._blocks)

    def block(self, height: int) -> Block:
        """The block at ``height`` (0-based)."""
        try:
            return self._blocks[height]
        except IndexError as exc:
            raise LedgerError(
                f"no block at height {height} (chain height {self.height})"
            ) from exc

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
        block = make_block(
            height=self.height,
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
        """
        prev = GENESIS_HASH
        for height, block in enumerate(self._blocks):
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
            if recomputed != self._hashes[height]:
                raise TamperedLedgerError(
                    f"block {height} contents do not match stored hash"
                )
            prev = recomputed

    def tamper_for_test(self, height: int, block: Block) -> None:
        """Overwrite a block *without* fixing hashes.

        Exists solely so tests can demonstrate that :meth:`verify`
        detects tampering; real code never mutates the chain.
        """
        self._blocks[height] = block

    def matches_prefix_of(self, other: "Blockchain") -> bool:
        """Whether this chain is a prefix of (or equal to) ``other``.

        The non-divergence tests use this: any two non-faulty replicas'
        ledgers must be prefix-comparable at all times.
        """
        if self.height > other.height:
            return False
        return all(
            mine == theirs
            for mine, theirs in zip(self._hashes, other._hashes)
        )

    def last_block(self) -> Optional[Block]:
        """The most recent block, or ``None`` for an empty chain."""
        return self._blocks[-1] if self._blocks else None
