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

from ..errors import WorkloadError
from ..ledger.block import Batch, MintedBatch, draw_column

#: Default shared-account table size (small on purpose: a hot account
#: set produces real read-modify-write conflicts).
DEFAULT_ACCOUNTS = 200


class PaymentWorkload:
    """Generates transfer instructions instead of raw YCSB updates.

    Duck-types the piece of :class:`~repro.workload.ycsb.YcsbWorkload`
    the clients use: ``next_batch(size, prefix)``.  ``branch`` tags each
    journal entry with the submitting bank branch.
    """

    __slots__ = ("_branch", "_rng", "_counter", "_accounts")

    def __init__(self, branch: str, seed: int,
                 accounts: int = DEFAULT_ACCOUNTS):
        if (not isinstance(accounts, int) or isinstance(accounts, bool)
                or accounts < 1):
            raise WorkloadError(
                f"accounts must be an int >= 1, got {accounts!r}")
        self._branch = branch
        self._rng = random.Random(seed)
        self._counter = 0
        self._accounts = accounts

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
        getrandbits = self._rng.getrandbits
        branch, accounts = self._branch, self._accounts
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

        def row(counter: int, src: int, dst: int, amount: int) -> tuple:
            # A transfer appends a journal entry to the source account's
            # record.
            return (f"{prefix}pay{counter}", "modify", src,
                    f"{branch}->acct{dst}:{amount}")

        first = self._counter + 1
        self._counter += size
        return MintedBatch(first, (src, dst, amount), row)


__all__ = ["DEFAULT_ACCOUNTS", "PaymentWorkload"]
