"""Deterministic transaction execution.

Paper §2.4: non-faulty replicas are deterministic — on identical inputs
they produce identical outputs — so executing the same block sequence
yields the same state and the same client results everywhere.  The
:class:`ExecutionEngine` enforces that contract: it is a pure function
of (initial store state, executed batch sequence).

The same fact lets a deployment execute each batch once:
:class:`ExecutionLog` keeps the state its replicas share, and a store
attached to it only moves a cursor while it executes what the others
executed before it.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from operator import attrgetter
from typing import List, Optional

from ..crypto.digests import digest_of
from ..errors import WorkloadError
from .block import Batch, MintedBatch, Transaction
from .store import YcsbStore


# Bound on the entries an ExecutionLog holds: twice the largest measured
# distance between a batch's first and last execution, 179 distinct
# batches (EXPERIMENTS.md, "Resident bytes per transaction").
_MEMO_MAX = 512

_FIELDS = attrgetter("op", "key", "value")


def _compile_plan(batch: Batch):
    """``(max_key, ops, results)`` for a batch of writes.

    ``ops`` is the step list :meth:`YcsbStore._apply` takes (each run of
    blind overwrites one ``[pair count, last-writer-wins dict]`` step, each
    ``modify`` one step); ``results`` holds ``"ok"`` in every slot no
    receipt will overwrite.  ``None`` when the batch has a read, an unknown
    operation or a negative key — those take the per-transaction path with
    its exact sequential semantics.  A minted batch's minter answers
    from the draws (``plan``); this loop is the reference it is pinned
    against.
    """
    if batch.__class__ is MintedBatch:
        return batch._minter.plan(batch._first, *batch._draws)
    ops: list = []
    results: list = []
    run = None
    max_key = -1
    for op, key, value in map(_FIELDS, batch):
        if op != "noop":
            if key < 0:
                return None
            if key > max_key:
                max_key = key
            if op == "update" or op == "insert":
                if run is None:
                    run = [0, {}]
                    ops += [run]  # no call: write-only compiles cost as before
                run[0] += 1
                run[1][key] = value
            elif op == "modify":
                run = None
                ops.append((len(results), key, ("|" + value).encode()))
            else:
                return None
        results.append("ok")
    return (max_key, ops, results)


class _Entry:
    """One batch of an :class:`ExecutionLog`: compiled and applied once."""

    __slots__ = ("batch", "ops", "results", "digest", "writes", "reads",
                 "waiting")

    def __init__(self, batch: Batch, ops: list, results: List[str],
                 digest: bytes, writes: int, reads: int, waiting: int):
        self.batch = batch
        self.ops = ops
        self.results = results
        self.digest = digest
        # Counter deltas every store executing the batch adds.
        self.writes = writes
        self.reads = reads
        # Attached stores whose next batch this is.
        self.waiting = waiting


class _LogStore(YcsbStore):
    """An :class:`ExecutionLog`'s ``base`` or ``head``.  The base reads
    the head's journal buffers in place, so neither is ever joined:
    joining would clear bytes the other still reads."""

    def _joined(self, *keys: int):
        raise WorkloadError("an ExecutionLog's base and head are never "
                            "joined; detach a store to read the state")


class ExecutionLog:
    """One deployment's execution history, shared by its replicas' stores.

    Holds two stores — ``base``, the state at the slowest attached
    store's cursor, and ``head``, the state at the fastest's — and one
    entry per batch between them.  An attached store is a cursor
    (``YcsbStore._pos``) plus its own counters.  Executing the batch at
    its position advances the cursor when the batch *is* the entry's (by
    identity: batches are immutable, so the same object means the same
    input); the first store to reach the head compiles the batch
    and applies it to ``head``; ``base`` applies the oldest entry once
    the last cursor has left it.  Stores fed the same batch objects in
    the same order from the same empty start hold the same state, so
    each batch is compiled once and applied twice per deployment, not
    once per replica.  Its journaled bytes are held once: the head is
    the only writer of a buffer the two share, and the base keeps a
    byte length into it (:meth:`_fold`).

    A store leaves with its own copy of the state at its cursor (see
    :meth:`detach`) when its batch is a different object, needs the
    per-transaction path (a read, an unknown operation, a key outside
    the active set), any public :class:`YcsbStore` method other than the
    counters is called on it, or it is the oldest cursor of a log that
    already holds :data:`_MEMO_MAX` entries.  From then on it runs the
    private code every unattached store runs.
    """

    def __init__(self, record_count: int):
        self._record_count = record_count
        self._base = _LogStore(record_count)
        self._head = _LogStore(record_count)
        self._entries: deque = deque()
        self._start = 0  # cursor position of _entries[0], i.e. of base
        self._at_head = 0  # attached stores with nothing left to apply
        self._stores: List[YcsbStore] = []
        # The last entry's results and digest: consecutive batches of
        # blind writes have equal results ("ok" each), digested once.
        self._results: List[str] = []
        self._digest = digest_of(())
        #: Most entries held at once (diagnostics; never above _MEMO_MAX).
        self.peak_length = 0

    def __len__(self) -> int:
        return len(self._entries)

    def attach(self, store: YcsbStore) -> None:
        """Share this log's state with an empty, private ``store``."""
        if (store._log is not None or store._data or store._journals
                or store.record_count != self._record_count
                or self._start or self._entries):
            raise WorkloadError(
                "only an empty store of the same record count attaches, "
                "and only before anything has executed through the log")
        store._log, store._pos = self, 0
        self._stores.append(store)
        self._at_head += 1

    def advance(self, store: YcsbStore, batch: Batch) -> Optional[_Entry]:
        """Execute ``batch`` on attached ``store``: the entry it moved
        past, or ``None`` if ``store`` detached instead."""
        entries = self._entries
        i = store._pos - self._start
        last = len(entries) - 1
        if i <= last:
            entry = entries[i]
            if entry.batch is not batch:
                self.detach(store)
                return None
        else:
            entry = self._extend(batch)
            if entry is None:
                self.detach(store)
                return None
            i = last = len(entries) - 1
        entry.waiting -= 1
        if i < last:
            entries[i + 1].waiting += 1
        else:
            self._at_head += 1
        store._pos += 1
        store._writes += entry.writes
        store._reads += entry.reads
        if not i and not entry.waiting:
            self._fold()
        return entry

    def _extend(self, batch: Batch) -> Optional[_Entry]:
        """Apply ``batch`` to the head as a new entry (``None``: it needs
        the per-transaction path)."""
        plan = _compile_plan(batch)
        if plan is None or plan[0] >= self._record_count:
            return None
        _max_key, ops, results = plan
        entries = self._entries
        if len(entries) >= _MEMO_MAX:
            start = self._start
            for store in [s for s in self._stores if s._pos == start]:
                self.detach(store)
        head = self._head
        writes, reads = head._writes, head._reads
        if ops:
            head._apply(ops, results)
        if results != self._results:
            self._results, self._digest = results, digest_of(tuple(results))
        entries.append(_Entry(batch, ops, self._results, self._digest,
                              head._writes - writes, head._reads - reads,
                              self._at_head))
        self._at_head = 0
        if len(entries) > self.peak_length:
            self.peak_length = len(entries)
        return entries[-1]

    def _fold(self) -> None:
        """Apply every leading entry no cursor waits on to the base,
        which reads the head's buffer of every journal the two opened
        with the same step (see :meth:`YcsbStore._apply`)."""
        entries, base, head = self._entries, self._base, self._head
        while entries and not entries[0].waiting:
            entry = entries.popleft()
            if entry.ops:
                base._apply(entry.ops, list(entry.results), head)
            self._start += 1

    def detach(self, store: YcsbStore) -> None:
        """Give ``store`` its own copy of the state at its cursor."""
        entries = self._entries
        i = store._pos - self._start
        self._stores.remove(store)
        store._log = None
        if i == len(entries):
            self._at_head -= 1
            source, replay = self._head, ()
        else:
            entries[i].waiting -= 1
            source, replay = self._base, islice(entries, i)
        store._copy_state(source)
        writes, reads = store._writes, store._reads
        for entry in replay:
            if entry.ops:
                store._apply(entry.ops, list(entry.results))
        store._writes, store._reads = writes, reads
        if not i:
            self._fold()


class ExecutionEngine:
    """Applies request batches to a :class:`YcsbStore` deterministically."""

    def __init__(self, store: YcsbStore):
        self._store = store
        self._executed_txns = 0
        # The log entry last executed through the store's ExecutionLog:
        # a result list equal to its results has its (one) digest.
        self._last: Optional[_Entry] = None

    @property
    def store(self) -> YcsbStore:
        """The backing table."""
        return self._store

    @property
    def executed_txns(self) -> int:
        """Total transactions executed (no-ops included)."""
        return self._executed_txns

    def execute_txn(self, txn: Transaction) -> str:
        """Execute one transaction, returning its client-visible result."""
        if txn.op == "noop":
            result = "ok"
        elif txn.op == "read":
            result = self._store.read(txn.key)
        elif txn.op == "update":
            self._store.update(txn.key, txn.value)
            result = "ok"
        elif txn.op == "insert":
            self._store.insert(txn.key, txn.value)
            result = "ok"
        elif txn.op == "modify":
            result = self._store.modify(txn.key, txn.value)
        else:
            raise WorkloadError(f"unknown operation {txn.op!r}")
        self._executed_txns += 1
        return result

    def execute_batch(self, batch: Batch) -> List[str]:
        """Execute a batch in order, returning per-transaction results.

        A store attached to an :class:`ExecutionLog` moves its cursor
        past the batch when the log already holds it.  Otherwise batches
        of writes apply a compiled plan (:func:`_compile_plan`): same
        results, store state and counters at a fraction of the
        interpretation cost.  Batches that read state or could raise (a
        key outside the active set) run through :meth:`execute_txn`, the
        sequential reference, keeping its error and partial-application
        semantics exactly.
        """
        store = self._store
        log = store._log
        if log is not None:
            entry = log.advance(store, batch)
            if entry is not None:
                self._last = entry
                self._executed_txns += len(entry.results)
                return list(entry.results)
        plan = _compile_plan(batch)
        if plan is None or plan[0] >= store.record_count:
            return [self.execute_txn(txn) for txn in batch]
        _max_key, ops, results = plan
        if ops:
            # Keys are validated: >= 0 at compile time, in range just above.
            store._apply(ops, results)
        self._executed_txns += len(results)
        return results

    def results_digest(self, results: List[str]) -> bytes:
        """Digest of a result list — what clients compare across the
        ``f + 1`` replies they need (§2.4).

        The digest is a pure function of the results, so results equal
        to the last shared log entry's take that entry's digest: every
        replica's reply to a shared batch is digested once.
        """
        last = self._last
        if last is not None and results == last.results:
            return last.digest
        return digest_of(tuple(results))

    def state_digest(self) -> bytes:
        """Digest of the current store state (checkpointing)."""
        return self._store.state_digest()
