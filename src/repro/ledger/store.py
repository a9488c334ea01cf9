"""The YCSB-style key-value table replicas execute against.

The paper's workload is YCSB (§4): a table with an active set of 600 k
records, initialized identically on every replica, queried with
write-heavy transactions under a Zipfian key distribution.  This module
provides that table.  Records are materialized lazily — a record that
has never been written reads as its deterministic initial value — so a
"600 k-record" store costs memory only for keys actually touched, which
keeps large simulations cheap without changing observable behaviour.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Tuple

from ..crypto.digests import digest_of
from ..errors import WorkloadError

DEFAULT_RECORD_COUNT = 600_000


def _initial_value(key: int) -> str:
    """The deterministic value every replica's record ``key`` starts with."""
    return f"init-{key}"


def receipt_of(value: str) -> str:
    """The receipt of a record value: its UTF-8 byte length and CRC-32.

    *Results are receipts, state carries the journal*: ``modify`` returns
    this, not the value — it differs whenever the executed history differs,
    at a size independent of that history.
    """
    data = value.encode()
    return "%d:%08x" % (len(data), zlib.crc32(data))


def _checked_record_count(record_count) -> int:
    """``record_count`` if it is an ``int`` (not a ``bool``) >= 1."""
    if (not isinstance(record_count, int) or isinstance(record_count, bool)
            or record_count < 1):
        raise WorkloadError(
            f"record_count must be an int >= 1, got {record_count!r}")
    return record_count


class YcsbStore:
    """A deterministic key-value table with YCSB-style operations."""

    def __init__(self, record_count: int = DEFAULT_RECORD_COUNT):
        self._record_count = _checked_record_count(record_count)
        self._data: Dict[int, str] = {}
        # key -> [byte length, CRC-32, pending, opener, offset]: the
        # running receipt of a journaled record; one ``bytearray`` of the
        # UTF-8 appends (``"|" + suffix`` each) not yet joined into
        # ``_data[key]``; the step that opened the journal; and ``None``,
        # or — in an ExecutionLog's base only — the byte length at which
        # ``pending`` became the head's buffer, which this store reads
        # (its appends are ``pending[:length - offset]``) and never
        # writes.  Derived; dropped by any overwrite.
        self._journals: Dict[int, list] = {}
        self._writes = 0
        self._reads = 0
        # Set while the store shares an ExecutionLog's state (ledger/
        # execution.py): it is the log's state at position ``_pos``, and
        # ``_data``/``_journals`` are unused until a public method below
        # (counters aside) detaches it with its own copy.
        self._log = None
        self._pos = 0

    @property
    def record_count(self) -> int:
        """Size of the active record set (keys ``0 .. record_count-1``)."""
        return self._record_count

    @property
    def write_count(self) -> int:
        """Total write operations applied (diagnostics)."""
        return self._writes

    @property
    def read_count(self) -> int:
        """Total read operations served (diagnostics)."""
        return self._reads

    def _check_key(self, key: int) -> None:
        if not 0 <= key < self._record_count:
            raise WorkloadError(
                f"key {key} outside active set [0, {self._record_count})"
            )

    def read(self, key: int) -> str:
        """Read a record (its initial value if never written)."""
        if self._log is not None:
            self._log.detach(self)
        self._check_key(key)
        self._reads += 1
        if key in self._journals:
            self._joined(key)
        return self._data[key] if key in self._data else _initial_value(key)

    def update(self, key: int, value: str) -> None:
        """Overwrite a record."""
        if self._log is not None:
            self._log.detach(self)
        self._check_key(key)
        self._writes += 1
        self._data[key] = value
        if self._journals:
            self._journals.pop(key, None)

    def insert(self, key: int, value: str) -> None:
        """Insert behaves as update on the fixed active set (YCSB-D style
        growing sets are out of scope for the paper's workload)."""
        self.update(key, value)

    def update_many(self, pairs: List[Tuple[int, str]]) -> None:
        """Bulk overwrite: apply ``(key, value)`` pairs in order.

        All-or-nothing — keys are validated up front and nothing is
        applied on a violation (callers needing the sequential
        partial-application semantics use :meth:`update` per record).
        Equivalent to updating each pair in a loop, at C speed.
        """
        if self._log is not None:
            self._log.detach(self)
        if pairs:
            keys = [k for k, _ in pairs]
            low = min(keys)
            self._check_key(low if low < 0 else max(keys))
            self._apply([[len(pairs), dict(pairs)]], [])

    def _apply(self, ops: list, results: List[str],
               head: Optional[YcsbStore] = None) -> None:
        """Apply compiled steps in order; callers (:meth:`update_many`,
        :meth:`modify`, the engine's batch plan) bounds-checked each key.

        A step is ``[pair count, {key: value}]`` — a run of blind
        overwrites folded last-writer-wins in first-write order, so one
        dict-to-dict ``update`` leaves the state and insertion order the
        pairs would one by one, and every pair still counts as a write —
        or a ``(slot, key, ("|" + suffix).encode())`` journal append whose
        receipt goes to ``results[slot]``.

        ``head`` is given when this store is an ExecutionLog's base
        folding steps ``head`` already applied: a journal this applies
        opening with the same step object that opened ``head``'s current
        journal for the key reads ``head``'s buffer instead of filling its
        own — ``head`` applied that step and every later one on the key,
        in the same order, into that buffer.
        """
        data, journals, crc32 = self._data, self._journals, zlib.crc32
        writes = appends = 0
        for step in ops:
            if step.__class__ is list:
                count, run = step
                writes += count
                data.update(run)
                if journals:
                    for key in run:
                        journals.pop(key, None)
                continue
            slot, key, encoded = step
            if key not in journals:
                base = data.setdefault(key, _initial_value(key)).encode()
                journals[key] = journal = [len(base), crc32(base),
                                           bytearray(), step, None]
                if head is not None:
                    shared = head._journals
                    if key in shared and shared[key][3] is step:
                        journal[2], journal[4] = shared[key][2], journal[0]
            else:
                journal = journals[key]
            journal[0] = size = journal[0] + len(encoded)
            journal[1] = crc = crc32(encoded, journal[1])
            if journal[4] is None:
                journal[2] += encoded
            results[slot] = "%d:%08x" % (size, crc)
            appends += 1
        self._writes += writes + appends
        self._reads += appends

    def modify(self, key: int, suffix: str) -> str:
        """Read-modify-write: append ``"|" + suffix`` to the record's
        journal and return the :func:`receipt_of` its new value — not the
        value, which :meth:`read` serves — in O(len(suffix))."""
        if self._log is not None:
            self._log.detach(self)
        self._check_key(key)
        results = [""]
        self._apply([(0, key, ("|" + suffix).encode())], results)
        return results[0]

    def scan(self, start_key: int, length: int) -> List[Tuple[int, str]]:
        """Read ``length`` consecutive records starting at ``start_key``."""
        if self._log is not None:
            self._log.detach(self)
        if length < 0:
            raise WorkloadError(f"scan length must be >= 0, got {length}")
        end = min(start_key + length, self._record_count)
        return [(key, self.read(key)) for key in range(start_key, end)]

    def state_digest(self) -> bytes:
        """Digest of the materialized state.

        Used by checkpoint messages: replicas with identical execution
        histories produce identical digests, so a quorum of matching
        checkpoint digests proves a consistent prefix.
        """
        if self._log is not None:
            self._log.detach(self)
        items = tuple(sorted(self._joined().items()))
        return digest_of(("ycsb", self._record_count, items))

    def snapshot(self) -> Dict[int, str]:
        """Copy of the materialized (written) records."""
        if self._log is not None:
            self._log.detach(self)
        return dict(self._joined())

    def _joined(self, *keys: int) -> Dict[int, str]:
        """``_data`` with the pending appends of ``keys`` (default all)
        decoded and joined."""
        for key in keys or self._journals:
            pending = self._journals[key][2]
            if pending:
                self._data[key] += pending.decode()
                pending.clear()
        return self._data

    def _copy_state(self, source: YcsbStore) -> None:
        """Take a copy of ``source``'s state with buffers of its own: a
        shared one would carry this store's later appends into
        ``source``.  Of a journal reading the head's buffer, the copy
        holds only ``source``'s prefix."""
        self._data = dict(source._data)
        self._journals = {
            key: [size, crc,
                  pending[:None if offset is None else size - offset],
                  opener, None]
            for key, (size, crc, pending, opener, offset)
            in source._journals.items()}

    def restore(self, snapshot: Dict[int, str],
                record_count: Optional[int] = None) -> None:
        """Replace state with ``snapshot`` (checkpoint-based recovery).

        Raises :class:`WorkloadError`, leaving the store as it was, on a
        bad ``record_count`` or a key outside the resulting active set.
        """
        if self._log is not None:
            self._log.detach(self)
        count = (self._record_count if record_count is None
                 else _checked_record_count(record_count))
        for key in snapshot:
            if (not isinstance(key, int) or isinstance(key, bool)
                    or not 0 <= key < count):
                raise WorkloadError(
                    f"snapshot key {key!r} outside active set [0, {count})")
        self._record_count = count
        self._data = dict(snapshot)
        self._journals = {}
