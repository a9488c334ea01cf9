"""YCSB workload generation.

Mirrors the paper's setup (§4): each client transaction queries a YCSB
table with a 600 k-record active set; the evaluation uses *write*
queries ("as those are typically more costly than read-only queries")
drawn Zipfian-style, and both clients and primaries batch requests
(default batch size 100).
"""

from __future__ import annotations

import random
from array import array
from typing import Optional

from ..errors import WorkloadError
from ..ledger.block import (Batch, MintedBatch, Transaction, counter_runs,
                             draw_column)
from ..ledger.store import DEFAULT_RECORD_COUNT
from .zipfian import make_generator

DEFAULT_VALUE_SIZE = 16


class YcsbMinter:
    """The rows, bytes and execution plan of one client's YCSB batches
    (see :class:`~repro.ledger.block.MintedBatch`), from the batch's key
    column: a write's key as drawn, a read's as ``~key``.  Transaction
    ``counter``'s id is ``f"{prefix}t{counter}"`` and an update writes
    ``f"v{counter}"`` padded with ``x`` to ``value_size``."""

    __slots__ = ("_prefix", "_value_size", "_id_bytes")

    def __init__(self, prefix: str, value_size: int):
        if not isinstance(prefix, str):
            raise WorkloadError(f"prefix must be a str, got {prefix!r}")
        self._prefix, self._value_size = prefix, value_size
        self._id_bytes = len(prefix.encode()) + 1  # of "{prefix}t"

    def row(self, counter: int, key: int) -> tuple:
        if key < 0:
            return (f"{self._prefix}t{counter}", "read", ~key, "")
        return (f"{self._prefix}t{counter}", "update", key,
                f"v{counter}".ljust(self._value_size, "x"))

    def body(self, first: int, keys: array) -> bytes:
        prefix, value_size = self._prefix, self._value_size
        rows: list = []
        for start, stop, digits, column in counter_runs(first, keys):
            # A run's ids, and its update values, have one byte length.
            txn = f"l5:s3:txns{self._id_bytes + digits}:{prefix}t"
            value = f"s{max(value_size, digits + 1)}:v"
            pad = "x" * (value_size - 1 - digits)
            strs = list(map(str, column))
            rows += [
                f"{txn}{c}s6:updatei{n}:{k}{value}{c}{pad};" if key >= 0
                else f"{txn}{c}s4:readi{len(f'{~key}')}:{~key}s0:;"
                for c, key, k, n in zip(range(start, stop), column, strs,
                                        map(len, strs))]
        return "".join(rows).encode()

    def plan(self, first: int, keys: array) -> Optional[tuple]:
        if min(keys) < 0:  # a read: the per-transaction path
            return None
        value_size = self._value_size
        values: dict = {}
        for start, stop, digits, column in counter_runs(first, keys):
            pad = "x" * (value_size - 1 - digits)
            counters = range(start, stop)
            run = {key: f"v{c}{pad}" for c, key in zip(counters, column)}
            if values:  # a later write wins, in its key's first place
                values.update(run)
            else:
                values = run
        size = len(keys)
        return (max(keys), [[size, values]], ["ok"] * size)


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
        if (not isinstance(write_fraction, (int, float))
                or isinstance(write_fraction, bool)
                or not 0.0 <= write_fraction <= 1.0):
            raise WorkloadError(
                f"write_fraction must be in [0, 1], got {write_fraction!r}"
            )
        if (not isinstance(value_size, int) or isinstance(value_size, bool)
                or value_size < 1):
            raise WorkloadError(
                f"value_size must be an int >= 1, got {value_size!r}")
        self._rng = rng if rng is not None else random.Random(seed)
        self._keys = make_generator(distribution, record_count, self._rng)
        self._write_fraction = write_fraction
        self._value_size = value_size
        self._counter = 0
        self._minters: dict = {}  # client prefix -> its YcsbMinter

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
        try:
            minter = self._minters[prefix]
        except (KeyError, TypeError):  # a new client (or a bad prefix)
            minter = YcsbMinter(prefix, self._value_size)
            self._minters[prefix] = minter
        # ``next_txn``'s draws in its order (key, then write/read); a read
        # is stored as ``~key``.
        next_key, random_ = self._keys.next, self._rng.random
        write_fraction = self._write_fraction
        record_count = self._keys.item_count
        keys = draw_column(-record_count, record_count - 1)
        for _ in range(size):
            key = next_key()
            keys.append(key if random_() < write_fraction else ~key)
        first = self._counter + 1
        self._counter += size
        return MintedBatch(first, (keys,), minter)

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
