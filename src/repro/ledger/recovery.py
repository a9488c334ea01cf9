"""Replica recovery from a peer's ledger.

Paper §3: "a recovering replica can simply read the ledger of any
replica it chooses and directly verify whether the ledger can be
trusted (is not tampered with)" — the immutable hash-chained structure
makes any single peer a sufficient recovery source.

:func:`audit_ledger` performs that trust check (chain links, block
hashes, per-block content digests), and :func:`rebuild_state` replays
the audited chain through a fresh deterministic execution engine,
yielding exactly the state every non-faulty replica holds (§2.4).
"""

from __future__ import annotations

from typing import Tuple

from ..errors import TamperedLedgerError
from .blockchain import Blockchain
from .execution import ExecutionEngine
from .store import YcsbStore


def audit_ledger(ledger: Blockchain) -> int:
    """Fully audit a peer's ledger before trusting it.

    Runs the deep verification (hash chain plus per-block transaction
    digests).  Returns the audited height.  Raises
    :class:`TamperedLedgerError` if the ledger was tampered with — the
    recovering replica should pick another peer.
    """
    ledger.verify(deep=True)
    return ledger.height


def rebuild_state(ledger: Blockchain,
                  record_count: int) -> Tuple[YcsbStore, ExecutionEngine]:
    """Replay an audited ledger into a fresh store.

    Deterministic execution (§2.4) guarantees the result matches every
    non-faulty replica's state at the same height.
    """
    store = YcsbStore(record_count)
    engine = ExecutionEngine(store)
    for block in ledger:
        engine.execute_batch(block.batch)
    return store, engine


def recover_from_peer(peer_ledger: Blockchain,
                      record_count: int) -> Tuple[Blockchain, YcsbStore]:
    """Complete recovery: audit a peer's ledger, adopt it, rebuild state.

    Returns the recovering replica's new (ledger copy, store).  The
    returned ledger is an independent chain re-built block by block —
    re-hashing everything — so a subtly corrupted in-memory source
    cannot survive the copy.
    """
    audit_ledger(peer_ledger)
    fresh = Blockchain()
    for block in peer_ledger:
        rebuilt = fresh.append(
            block.round_id, block.cluster_id, block.batch,
            block.certificate, batch_digest=block.batch_digest,
        )
        if rebuilt.block_hash() != block.block_hash():
            raise TamperedLedgerError(
                f"peer block {block.height} does not re-hash identically"
            )
    store, _engine = rebuild_state(fresh, record_count)
    return fresh, store
