"""Interbank payment workload: conflict-bearing transfers.

The paper motivates ResilientDB with enterprise workloads such as
financial transaction processing (§3, "Request batching").  This module
models a simple interbank payment network: branches submit transfer
instructions against shared account records.  Transfers are encoded as
read-modify-write transactions on the YCSB-style table (each account is
one record whose value accumulates a transfer journal), so deterministic
execution (§2.4) guarantees every replica derives the same account
histories — and the ``modify`` ops make execution order-sensitive, so
non-divergence is actually exercised, unlike blind YCSB updates.
Results are receipts, state carries the journal: a transfer's client
result is the fixed-size :func:`~repro.ledger.store.receipt_of` the
account's new value; ``store.read(account)`` returns the journal.

Promoted from ``examples/payment_network.py`` into the workload package
so the ``payment_network`` scenario (and the overload campaign) can
reach it through ``--scenario``.
"""

from __future__ import annotations

import random
from array import array
from itertools import count

from ..errors import WorkloadError
from ..ledger.block import Batch, MintedBatch, counter_runs, draw_column

#: Default shared-account table size (small on purpose: a hot account
#: set produces real read-modify-write conflicts).
DEFAULT_ACCOUNTS = 200


class PaymentMinter:
    """The rows, bytes and execution plan of one client's transfers (see
    :class:`~repro.ledger.block.MintedBatch`), from the batch's source,
    destination and amount columns.  Transfer ``counter``'s id is
    ``f"{prefix}pay{counter}"``; it appends ``f"{branch}->acct{dst}:{amount}"``
    to the source account's journal."""

    __slots__ = ("_prefix", "_branch", "_id_bytes", "_entry_bytes")

    def __init__(self, prefix: str, branch: str):
        if not isinstance(prefix, str):
            raise WorkloadError(f"prefix must be a str, got {prefix!r}")
        self._prefix, self._branch = prefix, branch
        self._id_bytes = len(prefix.encode()) + 3  # of "{prefix}pay"
        self._entry_bytes = len(branch.encode()) + 6  # of "{branch}->acct"

    def row(self, counter: int, src: int, dst: int, amount: int) -> tuple:
        return (f"{self._prefix}pay{counter}", "modify", src,
                f"{self._branch}->acct{dst}:{amount}")

    def body(self, first: int, src: array, dst: array,
             amount: array) -> bytes:
        prefix, branch, entry = self._prefix, self._branch, self._entry_bytes
        rows: list = []
        for start, stop, digits, sources, dests, amounts in counter_runs(
                first, src, dst, amount):
            txn = f"l5:s3:txns{self._id_bytes + digits}:{prefix}pay"
            keys = list(map(str, sources))
            tails = list(map("{}:{}".format, dests, amounts))
            rows += [
                f"{txn}{c}s6:modifyi{n}:{k}s{entry + m}:{branch}->acct{t};"
                for c, k, n, t, m in zip(range(start, stop), keys,
                                         map(len, keys), tails,
                                         map(len, tails))]
        return "".join(rows).encode()

    def plan(self, first: int, src: array, dst: array,
             amount: array) -> tuple:
        # One ``modify`` step per transfer: (slot, account, journal bytes).
        lead = f"|{self._branch}->acct".encode()
        ops = [(slot, key, lead + tail)
               for slot, key, tail in zip(
                   count(), src,
                   map(str.encode, map("{}:{}".format, dst, amount)))]
        return (max(src), ops, ["ok"] * len(ops))


class PaymentWorkload:
    """Generates transfer instructions instead of raw YCSB updates.

    Duck-types the piece of :class:`~repro.workload.ycsb.YcsbWorkload`
    the clients use: ``next_batch(size, prefix)``.  ``branch`` tags each
    journal entry with the submitting bank branch.
    """

    __slots__ = ("_branch", "_rng", "_counter", "_accounts", "_minters")

    def __init__(self, branch: str, seed: int,
                 accounts: int = DEFAULT_ACCOUNTS):
        if not isinstance(branch, str):
            raise WorkloadError(f"branch must be a str, got {branch!r}")
        if (not isinstance(accounts, int) or isinstance(accounts, bool)
                or accounts < 1):
            raise WorkloadError(
                f"accounts must be an int >= 1, got {accounts!r}")
        self._branch = branch
        self._rng = random.Random(seed)
        self._counter = 0
        self._accounts = accounts
        self._minters: dict = {}  # client prefix -> its PaymentMinter

    @property
    def accounts(self) -> int:
        """Size of the shared account table."""
        return self._accounts

    @property
    def generated_txns(self) -> int:
        """Transfers generated so far."""
        return self._counter

    def next_batch(self, size: int, prefix: str = "") -> Batch:
        """Generate ``size`` transfers (journal-appending modify ops)."""
        # ``type() is`` rather than ``isinstance``: no builtin call per
        # batch, and a bool (an int subclass) is refused too.
        if type(size) is not int or size < 1:
            raise WorkloadError(
                f"batch size must be an int >= 1, got {size!r}")
        try:
            minter = self._minters[prefix]
        except (KeyError, TypeError):  # a new client (or a bad prefix)
            minter = PaymentMinter(prefix, self._branch)
            self._minters[prefix] = minter
        getrandbits = self._rng.getrandbits
        accounts = self._accounts
        src, dst = draw_column(0, accounts - 1), draw_column(0, accounts - 1)
        amount = draw_column(1, 500)
        # ``Random.randrange(accounts)`` and ``randint(1, 500)`` inlined:
        # CPython draws ``getrandbits(n.bit_length())`` until below ``n``,
        # so these are the very same values, at a fraction of the calls.
        k, k500 = accounts.bit_length(), (500).bit_length()
        for _ in range(size):
            r = getrandbits(k)
            while r >= accounts:
                r = getrandbits(k)
            src.append(r)
            r = getrandbits(k)
            while r >= accounts:
                r = getrandbits(k)
            dst.append(r)
            r = getrandbits(k500)
            while r >= 500:
                r = getrandbits(k500)
            amount.append(1 + r)

        first = self._counter + 1
        self._counter += size
        return MintedBatch(first, (src, dst, amount), minter)


__all__ = ["DEFAULT_ACCOUNTS", "PaymentWorkload"]
