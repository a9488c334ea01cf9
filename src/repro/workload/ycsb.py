"""YCSB workload generation.

Mirrors the paper's setup (§4): each client transaction queries a YCSB
table with a 600 k-record active set; the evaluation uses *write*
queries ("as those are typically more costly than read-only queries")
drawn Zipfian-style, and both clients and primaries batch requests
(default batch size 100).
"""

from __future__ import annotations

import random
from typing import Optional

from ..errors import WorkloadError
from ..ledger.block import Batch, MintedBatch, Transaction, draw_column
from ..ledger.store import DEFAULT_RECORD_COUNT
from .zipfian import make_generator

DEFAULT_VALUE_SIZE = 16


class YcsbWorkload:
    """Generates YCSB transactions and request batches.

    ``write_fraction`` is the probability a transaction is an update;
    the remainder are reads.  The paper's experiments use 1.0 (write
    queries only).
    """

    def __init__(self,
                 record_count: int = DEFAULT_RECORD_COUNT,
                 write_fraction: float = 1.0,
                 distribution: str = "zipfian",
                 value_size: int = DEFAULT_VALUE_SIZE,
                 seed: int = 0,
                 rng: Optional[random.Random] = None):
        if (not isinstance(record_count, int)
                or isinstance(record_count, bool)):
            raise WorkloadError(
                f"record_count must be an int, got {record_count!r}")
        if not 0.0 <= write_fraction <= 1.0:
            raise WorkloadError(
                f"write_fraction must be in [0, 1], got {write_fraction}"
            )
        if value_size < 1:
            raise WorkloadError(f"value_size must be >= 1, got {value_size}")
        self._rng = rng if rng is not None else random.Random(seed)
        self._keys = make_generator(distribution, record_count, self._rng)
        self._write_fraction = write_fraction
        self._value_size = value_size
        self._counter = 0

    @property
    def record_count(self) -> int:
        """Active-set size of the target table."""
        return self._keys.item_count

    @property
    def generated_txns(self) -> int:
        """Transactions generated so far."""
        return self._counter

    def _next_value(self) -> str:
        return f"v{self._counter}".ljust(self._value_size, "x")

    def next_txn(self, txn_id: Optional[str] = None) -> Transaction:
        """Generate one transaction."""
        self._counter += 1
        if txn_id is None:
            txn_id = f"t{self._counter}"
        key = self._keys.next()
        if self._rng.random() < self._write_fraction:
            return Transaction(txn_id, "update", key, self._next_value())
        return Transaction(txn_id, "read", key)

    def next_batch(self, size: int, prefix: str = "") -> Batch:
        """Generate a batch of ``size`` transactions.

        ``prefix`` namespaces transaction ids per client so ids stay
        globally unique across concurrent clients.
        """
        # ``type() is``: no builtin call per batch, and no bool.
        if type(size) is not int or size < 1:
            raise WorkloadError(
                f"batch size must be an int >= 1, got {size!r}")
        # ``next_txn``'s draws in its order (key, then write/read); a read
        # is stored as ``~key``.  Ids and values are formatted per row.
        next_key, random_ = self._keys.next, self._rng.random
        write_fraction, value_size = self._write_fraction, self._value_size
        record_count = self._keys.item_count
        keys = draw_column(-record_count, record_count - 1)
        for _ in range(size):
            key = next_key()
            keys.append(key if random_() < write_fraction else ~key)

        def row(counter: int, key: int) -> tuple:
            if key < 0:
                return (f"{prefix}t{counter}", "read", ~key, "")
            return (f"{prefix}t{counter}", "update", key,
                    f"v{counter}".ljust(value_size, "x"))

        first = self._counter + 1
        self._counter += size
        return MintedBatch(first, (keys,), row)

    # ------------------------------------------------------------------
    # Standard YCSB workload presets
    # ------------------------------------------------------------------
    @classmethod
    def workload_a(cls, **kwargs) -> "YcsbWorkload":
        """YCSB-A: update heavy (50% reads / 50% updates), Zipfian."""
        kwargs.setdefault("write_fraction", 0.5)
        return cls(**kwargs)

    @classmethod
    def workload_b(cls, **kwargs) -> "YcsbWorkload":
        """YCSB-B: read mostly (95% reads / 5% updates), Zipfian."""
        kwargs.setdefault("write_fraction", 0.05)
        return cls(**kwargs)

    @classmethod
    def workload_c(cls, **kwargs) -> "YcsbWorkload":
        """YCSB-C: read only, Zipfian."""
        kwargs.setdefault("write_fraction", 0.0)
        return cls(**kwargs)

    @classmethod
    def paper_workload(cls, **kwargs) -> "YcsbWorkload":
        """The paper's evaluation workload: write queries only (§4)."""
        kwargs.setdefault("write_fraction", 1.0)
        return cls(**kwargs)
