"""Deeper property-based tests: stateful ordering-buffer behaviour,
CPU-lane invariants, and workload presets."""

import random
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.consensus.replica import CpuModel
from repro.core.ordering import OrderingBuffer
from repro.net.simulator import Simulation
from repro.workload.ycsb import YcsbWorkload

CLUSTERS = (1, 2, 3)


class OrderingBufferMachine(RuleBasedStateMachine):
    """Feed shares in arbitrary order; rounds must release strictly in
    order with one share per cluster, each exactly once."""

    def __init__(self):
        super().__init__()
        self.released = []
        self.buffer = OrderingBuffer(
            CLUSTERS,
            lambda round_id, ordered: self.released.append(
                (round_id, tuple(c for c, _cert in ordered))),
        )
        self.fed = set()

    @rule(round_id=st.integers(min_value=1, max_value=12),
          cluster=st.sampled_from(CLUSTERS))
    def feed(self, round_id, cluster):
        already_executed = round_id < self.buffer.next_round
        key = (round_id, cluster)
        duplicate = key in self.fed
        # A stand-in certificate: the buffer reads only ``.request``.
        certificate = SimpleNamespace(request=f"req-{round_id}-{cluster}")
        fresh = self.buffer.add_share(round_id, cluster, certificate)
        assert fresh == (not duplicate and not already_executed)
        self.fed.add(key)

    @invariant()
    def rounds_release_in_order(self):
        round_ids = [r for r, _ in self.released]
        assert round_ids == list(range(1, len(round_ids) + 1))

    @invariant()
    def each_round_has_all_clusters_in_order(self):
        for _round_id, clusters in self.released:
            assert clusters == CLUSTERS

    @invariant()
    def released_rounds_were_fully_fed(self):
        for round_id, _ in self.released:
            for cluster in CLUSTERS:
                assert (round_id, cluster) in self.fed


TestOrderingBufferStateful = OrderingBufferMachine.TestCase


class TestCpuModelProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0,
                              allow_nan=False), max_size=40),
           st.integers(min_value=1, max_value=8))
    def test_completions_never_decrease_total_work(self, costs, cores):
        """Sum of booked work is conserved: the last completion time is
        at least total_work / cores (no work disappears)."""
        sim = Simulation()
        cpu = CpuModel(sim, cores=cores)
        completions = [cpu.acquire(c) for c in costs]
        if not costs:
            return
        assert max(completions) >= sum(costs) / cores - 1e-9

    @given(st.lists(st.floats(min_value=0.001, max_value=1.0,
                              allow_nan=False), min_size=1, max_size=40))
    def test_single_core_serializes_exactly(self, costs):
        sim = Simulation()
        cpu = CpuModel(sim, cores=1)
        completions = [cpu.acquire(c) for c in costs]
        assert completions[-1] >= sum(costs) - 1e-9
        assert completions == sorted(completions)


class TestWorkloadPresets:
    def test_paper_workload_write_only(self):
        wl = YcsbWorkload.paper_workload(record_count=100, seed=1)
        assert all(wl.next_txn().op == "update" for _ in range(50))

    def test_workload_c_read_only(self):
        wl = YcsbWorkload.workload_c(record_count=100, seed=1)
        assert all(wl.next_txn().op == "read" for _ in range(50))

    def test_workload_a_balanced(self):
        wl = YcsbWorkload.workload_a(record_count=100, seed=1)
        ops = [wl.next_txn().op for _ in range(400)]
        writes = sum(1 for op in ops if op == "update")
        assert 0.35 < writes / len(ops) < 0.65

    def test_workload_b_read_mostly(self):
        wl = YcsbWorkload.workload_b(record_count=100, seed=1)
        ops = [wl.next_txn().op for _ in range(400)]
        reads = sum(1 for op in ops if op == "read")
        assert reads / len(ops) > 0.85

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=20)
    def test_write_fraction_respected(self, fraction):
        wl = YcsbWorkload(record_count=50, write_fraction=fraction,
                          rng=random.Random(3))
        ops = [wl.next_txn().op for _ in range(300)]
        writes = sum(1 for op in ops if op == "update") / len(ops)
        assert abs(writes - fraction) < 0.15
