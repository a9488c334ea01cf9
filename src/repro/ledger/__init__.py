"""Ledger substrate: blocks, the blockchain, the YCSB table, execution."""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(globals(), {
    ".block": ("GENESIS_HASH", "Batch", "Block", "Transaction",
               "batch_digest", "make_block"),
    ".blockchain": ("Blockchain",),
    ".execution": ("ExecutionEngine",),
    ".recovery": ("audit_ledger", "rebuild_state", "recover_from_peer"),
    ".store": ("DEFAULT_RECORD_COUNT", "YcsbStore"),
})
