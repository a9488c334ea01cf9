"""Deterministic transaction execution.

Paper §2.4: non-faulty replicas are deterministic — on identical inputs
they produce identical outputs — so executing the same block sequence
yields the same state and the same client results everywhere.  The
:class:`ExecutionEngine` enforces that contract: it is a pure function
of (initial store state, executed batch sequence).
"""

from __future__ import annotations

from typing import List

from ..crypto.digests import digest_of
from ..errors import WorkloadError
from .block import Batch, Transaction
from .store import YcsbStore


# Bound of both process-wide FIFO memos (a miss only recomputes, an entry
# pins up to 20 KB): twice the largest measured reuse distance, 179
# distinct batches (EXPERIMENTS.md, "Resident bytes per transaction").
_MEMO_MAX = 512

# Result lists repeat across replicas (deterministic execution).
_results_digest_memo: dict = {}

# Batches of writes (the paper's YCSB workload is write-heavy; the
# default benchmarks are pure-write, the payment workload pure-modify)
# need no per-transaction interpretation: update/insert/noop yield "ok",
# a modify a receipt the store computes from its own state.  Every
# replica is handed the *same* batch tuple, so it is compiled once into
# a (steps, results) plan applied with one ``YcsbStore._apply`` call.
# Keyed by object identity with a strong reference retained, so a recycled
# id can never alias a different batch (``is`` rejects stale entries).
_batch_plan_memo: dict = {}


def _compile_plan(batch: Batch):
    """``(max_key, ops, results)`` for a batch of writes.

    ``ops`` is the step list :meth:`YcsbStore._apply` takes (each run of
    blind overwrites one ``[pair count, last-writer-wins dict]`` step, each
    ``modify`` one step); ``results`` holds ``"ok"`` in every slot no
    receipt will overwrite.  ``None`` when the batch has a read, an unknown
    operation or a negative key — those take the per-transaction path with
    its exact sequential semantics.
    """
    ops: list = []
    results: list = []
    run = None
    max_key = -1
    for txn in batch:
        op = txn.op
        if op != "noop":
            key = txn.key
            if key < 0:
                return None
            if key > max_key:
                max_key = key
            if op == "update" or op == "insert":
                if run is None:
                    run = [0, {}]
                    ops += [run]  # no call: write-only compiles cost as before
                run[0] += 1
                run[1][key] = txn.value
            elif op == "modify":
                run = None
                ops.append((len(results), key, txn.value,
                            ("|" + txn.value).encode()))
            else:
                return None
        results.append("ok")
    return (max_key, ops, results)


class ExecutionEngine:
    """Applies request batches to a :class:`YcsbStore` deterministically."""

    def __init__(self, store: YcsbStore):
        self._store = store
        self._executed_txns = 0

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

        Batches of writes apply a compiled plan (:func:`_compile_plan`):
        same results, store state and counters at a fraction of the
        interpretation cost.  Batches that read state or could raise (a
        key outside the active set) run through :meth:`execute_txn`, the
        sequential reference, keeping its error and partial-application
        semantics exactly.
        """
        entry = _batch_plan_memo.get(id(batch))
        if entry is not None and entry[0] is batch:
            plan = entry[1]
        else:
            plan = _compile_plan(batch)
            if len(_batch_plan_memo) >= _MEMO_MAX:
                _batch_plan_memo.pop(next(iter(_batch_plan_memo)))
            _batch_plan_memo[id(batch)] = (batch, plan)
        if plan is None or plan[0] >= self._store.record_count:
            return [self.execute_txn(txn) for txn in batch]
        results = list(plan[2])
        if plan[1]:
            # Keys are validated: >= 0 at compile time, in range just above.
            self._store._apply(plan[1], results)
        self._executed_txns += len(results)
        return results

    def results_digest(self, results: List[str]) -> bytes:
        """Digest of a result list — what clients compare across the
        ``f + 1`` replies they need (§2.4).

        Memoized process-wide: replicas execute identical batches, so
        the same result list is digested at every replica of every
        cluster.  The digest is a pure function of the results, so the
        memo is a host-CPU optimization with no observable effect.
        """
        key = tuple(results)
        cached = _results_digest_memo.get(key)
        if cached is None:
            cached = digest_of(key)
            if len(_results_digest_memo) >= _MEMO_MAX:
                _results_digest_memo.pop(next(iter(_results_digest_memo)))
            _results_digest_memo[key] = cached
        return cached

    def state_digest(self) -> bytes:
        """Digest of the current store state (checkpointing)."""
        return self._store.state_digest()
