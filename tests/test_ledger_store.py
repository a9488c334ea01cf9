"""Tests for the YCSB store and the execution engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.crypto.digests import digest_of
from repro.errors import WorkloadError
from repro.ledger.block import Transaction
from repro.ledger import execution
from repro.ledger.execution import ExecutionEngine, ExecutionLog
from repro.ledger.store import YcsbStore, receipt_of


class TestYcsbStore:
    def test_unwritten_records_have_deterministic_initial_values(self):
        s1, s2 = YcsbStore(100), YcsbStore(100)
        assert s1.read(42) == s2.read(42)

    def test_update_then_read(self):
        store = YcsbStore(100)
        store.update(5, "hello")
        assert store.read(5) == "hello"

    def test_insert_behaves_as_update(self):
        store = YcsbStore(100)
        store.insert(7, "x")
        assert store.read(7) == "x"

    def test_modify_appends(self):
        """Results are receipts, state carries the journal."""
        store = YcsbStore(100)
        first = store.read(3)
        result = store.modify(3, "s")
        assert store.read(3) == first + "|s"
        assert result == receipt_of(store.read(3))

    def test_modify_receipt_size_independent_of_journal_length(self):
        store = YcsbStore(100)
        one = store.modify(3, "s")
        for _ in range(9_998):
            store.modify(3, "s")
        last = store.modify(3, "s")
        journal = store.read(3)
        assert journal == "init-3" + "|s" * 10_000
        assert last == receipt_of(journal) != one
        # "<byte length>:<crc32 hex>": only the decimal length can widen.
        assert one.startswith("8:") and len(one) == 10
        assert last.startswith("20006:") and len(last) == 14

    def test_scan(self):
        store = YcsbStore(10)
        store.update(8, "v8")
        rows = store.scan(7, 5)
        assert [k for k, _ in rows] == [7, 8, 9]
        assert dict(rows)[8] == "v8"

    def test_key_bounds_enforced(self):
        store = YcsbStore(10)
        with pytest.raises(WorkloadError):
            store.read(10)
        with pytest.raises(WorkloadError):
            store.update(-1, "x")
        with pytest.raises(WorkloadError):
            store.scan(0, -1)

    def test_invalid_record_count(self):
        with pytest.raises(WorkloadError):
            YcsbStore(0)

    @pytest.mark.parametrize("count", [2.5, True, "100"])
    def test_record_count_must_be_a_positive_int(self, count):
        with pytest.raises(WorkloadError):
            YcsbStore(count)

    @pytest.mark.parametrize("count", [0, -3, 2.5, True])
    def test_restore_rejects_invalid_record_count(self, count):
        store = YcsbStore(10)
        store.modify(1, "a")
        with pytest.raises(WorkloadError):
            store.restore({}, record_count=count)
        assert store.record_count == 10
        assert store.snapshot() == {1: "init-1|a"}

    @pytest.mark.parametrize("snapshot, count", [
        ({50: "x"}, 10), ({10: "x"}, None), ({-1: "x"}, None),
        ({3: "x", 7: "y"}, 5), ({"3": "x"}, None),
    ])
    def test_restore_rejects_keys_outside_the_active_set(self, snapshot,
                                                          count):
        store = YcsbStore(10)
        store.modify(1, "a")
        digest = store.state_digest()
        with pytest.raises(WorkloadError):
            store.restore(snapshot, record_count=count)
        assert store.record_count == 10
        assert store.snapshot() == {1: "init-1|a"}
        assert store.state_digest() == digest
        store.restore({9: "z"}, record_count=10)
        assert store.snapshot() == {9: "z"}

    def test_counters(self):
        store = YcsbStore(10)
        store.read(1)
        store.update(1, "a")
        assert store.read_count == 1
        assert store.write_count == 1

    def test_state_digest_tracks_content(self):
        s1, s2 = YcsbStore(100), YcsbStore(100)
        assert s1.state_digest() == s2.state_digest()
        s1.update(1, "x")
        assert s1.state_digest() != s2.state_digest()
        s2.update(1, "x")
        assert s1.state_digest() == s2.state_digest()

    def test_snapshot_restore(self):
        store = YcsbStore(100)
        store.update(1, "a")
        snap = store.snapshot()
        store.update(1, "b")
        store.restore(snap)
        assert store.read(1) == "a"

    @given(st.lists(st.tuples(st.integers(0, 99), st.text(max_size=5)),
                    max_size=30))
    def test_digest_independent_of_write_order_for_final_state(self, writes):
        """Digest is a function of final state, not write history."""
        s1, s2 = YcsbStore(100), YcsbStore(100)
        for key, value in writes:
            s1.update(key, value)
        # Apply only last-write-wins state to s2.
        final = {}
        for key, value in writes:
            final[key] = value
        for key, value in final.items():
            s2.update(key, value)
        assert s1.state_digest() == s2.state_digest()


class TestExecutionEngine:
    def test_executes_each_op(self):
        engine = ExecutionEngine(YcsbStore(100))
        assert engine.execute_txn(Transaction("t1", "update", 1, "v")) == "ok"
        assert engine.execute_txn(Transaction("t2", "read", 1)) == "v"
        assert engine.execute_txn(Transaction("t3", "insert", 2, "w")) == "ok"
        assert engine.execute_txn(
            Transaction("t4", "modify", 2, "s")) == receipt_of("w|s")
        assert engine.store.read(2) == "w|s"
        assert engine.execute_txn(Transaction.noop()) == "ok"
        assert engine.executed_txns == 5

    def test_unknown_op_rejected(self):
        engine = ExecutionEngine(YcsbStore(10))
        with pytest.raises(WorkloadError):
            engine.execute_txn(Transaction("t", "drop-table", 0, ""))

    def test_determinism_across_engines(self):
        """§2.4: identical inputs produce identical outputs and state."""
        batch = tuple(
            Transaction(f"t{i}", "modify", i % 5, f"s{i}") for i in range(20)
        )
        e1 = ExecutionEngine(YcsbStore(100))
        e2 = ExecutionEngine(YcsbStore(100))
        r1 = e1.execute_batch(batch)
        r2 = e2.execute_batch(batch)
        assert r1 == r2
        assert e1.state_digest() == e2.state_digest()
        assert e1.results_digest(r1) == e2.results_digest(r2)

    def test_results_digest_sensitive_to_results(self):
        engine = ExecutionEngine(YcsbStore(10))
        assert engine.results_digest(["a"]) != engine.results_digest(["b"])

    def test_compiled_batches_match_per_txn_reference(self):
        """Write-only, modify-only and mixed batches: the compiled plan
        and ``execute_txn`` give the same results, state and counters.
        ``triple`` overwrites one journaled key three times among new
        keys: the dict-merged run keeps the last value, counts every
        write, inserts in first-write order and drops the journal."""
        write = [Transaction(f"w{i}", "update", i % 3, f"v{i}")
                 for i in range(6)]
        modify = [Transaction(f"m{i}", "modify", i % 3, f"s{i}")
                  for i in range(6)]
        mixed = [t for pair in zip(modify, write) for t in pair]
        mixed.insert(4, Transaction.noop())
        triple = [Transaction("a", "update", 1, "first"),
                  Transaction("b", "update", 7, "x"),
                  Transaction("c", "insert", 1, "second"),
                  Transaction("d", "update", 5, "y"),
                  Transaction("e", "update", 1, "third")]
        fast = ExecutionEngine(YcsbStore(10))
        slow = ExecutionEngine(YcsbStore(10))
        for batch in (modify, write, mixed, modify, triple, modify,
                      mixed[::-1], write):
            assert fast.execute_batch(tuple(batch)) == [
                slow.execute_txn(txn) for txn in batch]
            assert fast.executed_txns == slow.executed_txns
            assert fast.store.write_count == slow.store.write_count
            assert fast.store.read_count == slow.store.read_count
        assert fast.state_digest() == slow.state_digest()
        assert (list(fast.store.snapshot().items())
                == list(slow.store.snapshot().items()))
        assert list(fast.store.snapshot()) == [0, 1, 2, 7, 5]

    def test_write_only_plan_drops_pending_journal_suffixes(self):
        engine = ExecutionEngine(YcsbStore(10))
        engine.execute_batch((Transaction("m1", "modify", 4, "a"),
                              Transaction("m2", "modify", 4, "b")))
        engine.execute_batch((Transaction("w1", "update", 4, "fresh"),))
        assert engine.execute_batch(
            (Transaction("m3", "modify", 4, "c"),)) == [receipt_of("fresh|c")]
        assert engine.store.read(4) == "fresh|c"

    def test_only_empty_stores_attach_to_an_unused_log(self):
        log = ExecutionLog(10)
        written = YcsbStore(10)
        written.update(1, "x")
        for store in (written, YcsbStore(11)):
            with pytest.raises(WorkloadError):
                log.attach(store)
        store = YcsbStore(10)
        log.attach(store)
        ExecutionEngine(store).execute_batch(
            (Transaction("t", "update", 1, "v"),))
        with pytest.raises(WorkloadError):
            log.attach(YcsbStore(10))

    def test_non_ascii_suffix_joins_whole_characters(self):
        """Pending appends are UTF-8 bytes; they decode to the same
        text the receipts were computed over."""
        store = YcsbStore(10)
        first = store.modify(2, "é€")
        assert store.read(2) == "init-2|é€"
        assert first == receipt_of(store.read(2))
        last = ExecutionEngine(store).execute_batch(
            (Transaction("m1", "modify", 2, "€"),
             Transaction("m2", "modify", 2, "é")))[-1]
        assert store.read(2) == "init-2|é€|€|é"
        assert last == receipt_of(store.read(2))

    @pytest.mark.parametrize("leaves_from", ["head", "base"])
    def test_detached_store_writes_only_its_own_journal(self, leaves_from):
        """``a`` leaves the log through ``read`` with a copy of the
        journals at its cursor (the log's head, or its base when ``a``
        lags), then appends to them; ``b`` and ``c`` stay attached and
        see none of it."""
        m1 = _txns(("modify", 1, "x"), ("modify", 2, "y"), ("modify", 1, "z"))
        m2 = _txns(("modify", 1, "é"), ("modify", 3, "w"))
        m3 = _txns(("modify", 1, "v"), ("modify", 2, "u"))
        log = ExecutionLog(_N)
        a, b, c = (ExecutionEngine(YcsbStore(_N)) for _ in range(3))
        for engine in (a, b, c):
            log.attach(engine.store)
        for engine in (a, b, c):
            engine.execute_batch(m1)
        ahead = (a, b, c) if leaves_from == "head" else (c,)
        for engine in ahead:
            engine.execute_batch(m2)
        a.store.read(1)
        a.store.modify(1, "mine")
        a.store.modify(2, "mine")
        ref = ExecutionEngine(YcsbStore(_N))
        expected = [ref.execute_batch(m) for m in (m1, m2, m3)]
        for engine in (b, c):
            got = [engine.execute_batch(m)
                   for m in ([m2, m3] if engine not in ahead else [m3])]
            assert got == expected[3 - len(got):]
        assert all(engine.store._log is log for engine in (b, c))
        for engine in (b, c):
            assert (list(engine.store.snapshot().items())
                    == list(ref.store.snapshot().items()))
        assert a.store.read(1) == "init-1|x|z|%smine" % (
            "é|" if a in ahead else "")

    def test_base_reads_the_heads_buffer_of_an_unbroken_journal(self):
        """Once every cursor has passed the step that opened a journal,
        the log's base and head hold one buffer for it, and the base
        appends nothing to it."""
        m1 = _txns(("modify", 1, "x"), ("modify", 2, "y"))
        m2 = _txns(("modify", 1, "z"), ("update", 2, "o"))
        log = ExecutionLog(_N)
        a, b = (ExecutionEngine(YcsbStore(_N)) for _ in range(2))
        for engine in (a, b):
            log.attach(engine.store)
        for engine in (a, b):
            engine.execute_batch(m1)
        a.execute_batch(m2)
        base, head = log._base._journals, log._head._journals
        assert base[1][2] is head[1][2]
        assert head[1][2] == b"|x|z"
        b.execute_batch(m2)
        assert base[1][2] is head[1][2]
        assert 2 not in base and 2 not in head
        assert all(engine.store._log is log for engine in (a, b))
        for store in (log._base, log._head):
            with pytest.raises(WorkloadError):
                store.snapshot()

    def test_lagging_cursor_detaches_from_the_base(self):
        """``b`` lags while ``a`` runs ahead: key 1's journal is
        overwritten and reopened at the head before the base folds the
        step that opened it (the base must keep its own buffer), and key
        2's journal grows at the head past the base (the base reads only
        its prefix of the head's buffer).  ``b`` then leaves from the
        base and must hold exactly a private store's state."""
        m1 = _txns(("modify", 1, "x"), ("modify", 2, "p"))
        m2 = _txns(("update", 1, "o"), ("modify", 1, "y"),
                   ("modify", 2, "q"))
        m3 = _txns(("modify", 1, "w"), ("modify", 2, "r"))
        log = ExecutionLog(_N)
        a, b = (ExecutionEngine(YcsbStore(_N)) for _ in range(2))
        for engine in (a, b):
            log.attach(engine.store)
        for batch in (m1, m2, m3):
            a.execute_batch(batch)
        ref_b = ExecutionEngine(YcsbStore(_N))
        assert b.execute_batch(m1) == ref_b.execute_batch(m1)
        base, head = log._base._journals, log._head._journals
        assert base[1][2] is not head[1][2]
        assert base[2][2] is head[2][2]
        assert b.store.read(1) == ref_b.store.read(1) == "init-1|x"
        assert b.store._log is None
        assert (list(b.store.snapshot().items())
                == list(ref_b.store.snapshot().items()))
        assert b.store.state_digest() == ref_b.store.state_digest()
        for batch in (m2, m3):
            assert b.execute_batch(batch) == ref_b.execute_batch(batch)
        assert (list(b.store.snapshot().items())
                == list(ref_b.store.snapshot().items())
                == [(1, "o|y|w"), (2, "init-2|p|q|r")])
        assert b.store.state_digest() == ref_b.store.state_digest()
        ref_a = ExecutionEngine(YcsbStore(_N))
        for batch in (m1, m2, m3):
            ref_a.execute_batch(batch)
        assert a.store.state_digest() == ref_a.store.state_digest()

    def test_restore_over_pending_journal_suffixes(self):
        store = YcsbStore(10)
        store.modify(1, "a")
        snap = store.snapshot()
        store.modify(1, "b")
        store.modify(2, "c")
        store.restore(snap)
        assert store.snapshot() == {1: "init-1|a"}
        assert store.modify(1, "d") == receipt_of("init-1|a|d")
        assert store.modify(2, "e") == receipt_of("init-2|e")


class _NaiveStore:
    """Reference model: a dict of eagerly concatenated strings."""

    def __init__(self, record_count):
        self.n, self.data = record_count, {}
        self.reads = self.writes = self.executed = 0

    def _check(self, key):
        if not 0 <= key < self.n:
            raise WorkloadError(f"key {key}")

    def read(self, key):
        self._check(key)
        self.reads += 1
        return self.data.get(key, f"init-{key}")

    def update(self, key, value):
        self._check(key)
        self.writes += 1
        self.data[key] = value

    def modify(self, key, suffix):
        value = self.read(key) + "|" + suffix
        self.update(key, value)
        return receipt_of(value)

    def execute(self, txn):
        if txn.op == "read":
            result = self.read(txn.key)
        elif txn.op in ("update", "insert"):
            self.update(txn.key, txn.value)
            result = "ok"
        elif txn.op == "modify":
            result = self.modify(txn.key, txn.value)
        elif txn.op == "noop":
            result = "ok"
        else:
            raise WorkloadError(txn.op)
        self.executed += 1
        return result

    def state_digest(self):
        return digest_of(("ycsb", self.n, tuple(sorted(self.data.items()))))


_N = 6
_keys = st.integers(0, _N - 1)
_any_keys = st.one_of(_keys, _keys, _keys, st.sampled_from([-1, _N, _N + 3]))
_values = st.text(alphabet="ab|é€", max_size=3)
_OP_MIXES = (("update", "insert", "noop"), ("modify",),
             ("update", "modify", "noop"), ("update", "modify", "read"),
             ("modify", "drop-table"))


@st.composite
def _batches(draw):
    ops = st.sampled_from(draw(st.sampled_from(_OP_MIXES)))
    return tuple(
        Transaction(f"t{i}", op, key, value) for i, (op, key, value)
        in enumerate(draw(st.lists(st.tuples(ops, _any_keys, _values),
                                   max_size=8))))


def _outcome(call):
    """A call's result, or the error type it raises."""
    try:
        return call()
    except WorkloadError:
        return WorkloadError


class StoreDifferentialMachine(RuleBasedStateMachine):
    """Random interleavings against the naive model.  Only the rules
    observe values — an invariant that read the store after every step
    would join every pending suffix and hide the interesting states."""

    def __init__(self):
        super().__init__()
        self.engine = ExecutionEngine(YcsbStore(_N))
        self.store = self.engine.store
        self.model = _NaiveStore(_N)
        self.snaps = None

    def _same(self, real, naive):
        assert _outcome(real) == _outcome(naive)
        assert self.store.read_count == self.model.reads
        assert self.store.write_count == self.model.writes
        assert self.engine.executed_txns == self.model.executed

    @rule(key=_any_keys)
    def read(self, key):
        self._same(lambda: self.store.read(key), lambda: self.model.read(key))

    @rule(key=_any_keys, value=_values, insert=st.booleans())
    def update(self, key, value, insert):
        write = self.store.insert if insert else self.store.update
        self._same(lambda: write(key, value),
                   lambda: self.model.update(key, value))

    @rule(key=_any_keys, suffix=_values)
    def modify(self, key, suffix):
        self._same(lambda: self.store.modify(key, suffix),
                   lambda: self.model.modify(key, suffix))

    @rule(start=_keys, length=st.integers(0, _N + 2))
    def scan(self, start, length):
        self._same(
            lambda: self.store.scan(start, length),
            lambda: [(k, self.model.read(k))
                     for k in range(start, min(start + length, _N))])

    @rule(pairs=st.lists(st.tuples(_any_keys, _values), max_size=5))
    def update_many(self, pairs):
        def naive():
            for key, _ in pairs:
                self.model._check(key)  # all-or-nothing
            for key, value in pairs:
                self.model.update(key, value)
        self._same(lambda: self.store.update_many(pairs), naive)

    @rule(batch=_batches())
    def execute_batch(self, batch):
        # On a bad key or unknown op both sides have applied the same
        # prefix of the batch before raising.
        self._same(lambda: self.engine.execute_batch(batch),
                   lambda: [self.model.execute(txn) for txn in batch])

    @rule()
    def snapshot(self):
        self.snaps = (self.store.snapshot(), dict(self.model.data))
        assert list(self.snaps[0].items()) == list(self.snaps[1].items())

    @rule()
    def restore(self):
        if self.snaps is not None:
            self.store.restore(self.snaps[0])
            self.model.data = dict(self.snaps[1])

    @rule()
    def state_digest(self):
        assert self.store.state_digest() == self.model.state_digest()

    def teardown(self):
        assert (list(self.store.snapshot().items())
                == list(self.model.data.items()))


TestStoreDifferential = StoreDifferentialMachine.TestCase
TestStoreDifferential.settings = settings(max_examples=150,
                                          stateful_step_count=40,
                                          deadline=None)


def _txns(*specs):
    return tuple(Transaction(f"p{i}", op, key, value)
                 for i, (op, key, value) in enumerate(specs))


# Shared batch objects: stores that execute the same one at the same
# position share its execution; an equal copy is a different object.
_POOL = (
    _txns(("update", 0, "a"), ("insert", 3, "b"), ("update", 0, "c")),
    _txns(("modify", 1, "x"), ("modify", 1, "y"), ("modify", 4, "z")),
    _txns(("update", 1, "p"), ("modify", 1, "q"), ("noop", 0, ""),
          ("modify", 2, "r")),
    _txns(("update", 1, "w"),),
    _txns(("modify", 2, "s"), ("read", 2, "")),          # reads state
    _txns(("modify", 0, "t"), ("update", _N, "u")),      # key out of range
    _txns(("modify", 5, "v"), ("update", 5, "o")),      # highest key in range
    _txns(("modify", 3, "m"), ("update", 3, "n"),        # journal reopened
          ("modify", 3, "k")),
)


class SharedExecutionMachine(RuleBasedStateMachine):
    """2–4 stores attached to one :class:`ExecutionLog`, each shadowed
    by a private reference engine given the same calls.  The stores
    mostly follow one shared sequence of batch objects (the first store
    at a position draws it from ``_POOL``) and sometimes diverge: another
    pool batch, or an equal copy that is not the same object.  The bound
    is lowered to 3 entries so lagging stores hit it."""

    _BOUND = 3

    def __init__(self):
        super().__init__()
        self.saved_bound = execution._MEMO_MAX
        execution._MEMO_MAX = self._BOUND
        self.log = ExecutionLog(_N)
        self.engines, self.refs, self.positions = [], [], []
        self.sequence = []

    @initialize(count=st.integers(2, 4))
    def attach(self, count):
        for _ in range(count):
            store = YcsbStore(_N)
            self.log.attach(store)
            self.engines.append(ExecutionEngine(store))
            self.refs.append(ExecutionEngine(YcsbStore(_N)))
            self.positions.append(0)

    def _pick(self, index):
        i = index % len(self.engines)
        return i, self.engines[i], self.refs[i]

    @rule(index=st.integers(0, 3), follow=st.integers(0, 3),
          pooled=st.sampled_from(_POOL), copy=st.booleans())
    def execute(self, index, follow, pooled, copy):
        i, engine, ref = self._pick(index)
        pos = self.positions[i]
        self.positions[i] += 1
        if pos < len(self.sequence) and follow:
            batch = self.sequence[pos]
        else:
            batch = tuple(list(pooled)) if copy else pooled
            if pos == len(self.sequence):
                self.sequence.append(batch)
        results = _outcome(lambda: engine.execute_batch(batch))
        expected = _outcome(lambda: ref.execute_batch(batch))
        assert results == expected
        if expected is not WorkloadError:
            assert (engine.results_digest(results)
                    == digest_of(tuple(expected)))

    @rule(index=st.integers(0, 3), key=_keys, value=_values,
          modify=st.booleans())
    def write_directly(self, index, key, value, modify):
        _i, engine, ref = self._pick(index)
        write = "modify" if modify else "update"
        assert (getattr(engine.store, write)(key, value)
                == getattr(ref.store, write)(key, value))

    @rule(index=st.integers(0, 3))
    def snapshot(self, index):
        _i, engine, ref = self._pick(index)
        assert (list(engine.store.snapshot().items())
                == list(ref.store.snapshot().items()))

    @invariant()
    def counters_match_and_log_is_bounded(self):
        for engine, ref in zip(self.engines, self.refs):
            assert engine.store.write_count == ref.store.write_count
            assert engine.store.read_count == ref.store.read_count
            assert engine.executed_txns == ref.executed_txns
        assert len(self.log) <= self._BOUND

    def teardown(self):
        execution._MEMO_MAX = self.saved_bound
        for engine, ref in zip(self.engines, self.refs):
            assert (list(engine.store.snapshot().items())
                    == list(ref.store.snapshot().items()))


TestSharedExecution = SharedExecutionMachine.TestCase
TestSharedExecution.settings = settings(max_examples=150,
                                        stateful_step_count=40,
                                        deadline=None)
