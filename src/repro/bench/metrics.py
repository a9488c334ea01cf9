"""Experiment metrics.

Collects exactly what the paper reports:

* **throughput** — client-acknowledged transactions per second over the
  measurement window (the run minus its warmup, mirroring §4's 60 s
  warmup + 120 s measurement),
* **latency** — average and p50/p95/p99 client-observed end-to-end
  batch latency (tail quantiles come from a streaming log-bucket
  histogram, so memory stays O(1) in the sample count),
* **open-loop and replica counters** — offered, rejected, abandoned and
  retried work, and transactions executed per replica.

One :class:`Metrics` instance is shared by every node of a deployment.
Message and byte counts are not kept here: the
:class:`~repro.net.network.Network` counts the traffic it sends.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from ..types import NodeId
from .instrumentation import LatencyHistogram


class Metrics:
    """Shared metrics sink for one experiment run."""

    def __init__(self, warmup: float = 0.0):
        self._warmup = warmup
        self._end_time: Optional[float] = None

        # Client-side accounting.
        self._submitted_txns = 0
        self._measured_submitted_txns = 0
        self._completed_txns = 0
        self._measured_completed_txns = 0
        self._latencies: List[float] = []
        self._latency_histogram = LatencyHistogram()
        self._completions: List[Tuple[float, int]] = []

        # Open-loop traffic accounting (zero on closed-loop runs).
        self._measured_offered_txns = 0
        self._measured_rejected_txns = 0
        self._measured_abandoned_txns = 0
        self._measured_retried_batches = 0

        # Replica-side accounting.
        self._executed_txns: Dict[NodeId, int] = defaultdict(int)

    # ------------------------------------------------------------------
    # Recording interface (called by clients and replicas)
    # ------------------------------------------------------------------
    @property
    def warmup(self) -> float:
        """Warmup horizon; events before it are excluded from rates."""
        return self._warmup

    def record_submitted(self, client: NodeId, txns: int,
                         now: float) -> None:
        """A client sent a batch of ``txns`` transactions."""
        self._submitted_txns += txns
        if now >= self._warmup:
            self._measured_submitted_txns += txns

    def record_completed(self, client: NodeId, txns: int, latency: float,
                         now: float) -> None:
        """A client's batch was acknowledged by a reply quorum."""
        self._completed_txns += txns
        self._completions.append((now, txns))
        if now >= self._warmup:
            self._measured_completed_txns += txns
            self._latencies.append(latency)
            self._latency_histogram.record(latency)

    def record_offered(self, client: NodeId, txns: int,
                       now: float) -> None:
        """An open-loop source saw ``txns`` arrivals (pre-admission)."""
        if now >= self._warmup:
            self._measured_offered_txns += txns

    def record_rejected(self, client: NodeId, txns: int,
                        now: float) -> None:
        """Arrivals turned away by admission control."""
        if now >= self._warmup:
            self._measured_rejected_txns += txns

    def record_abandoned(self, client: NodeId, txns: int,
                         now: float) -> None:
        """In-flight transactions given up after the retry budget."""
        if now >= self._warmup:
            self._measured_abandoned_txns += txns

    def record_retried(self, client: NodeId, batches: int,
                       now: float) -> None:
        """Request batches re-sent after a deadline timeout."""
        if now >= self._warmup:
            self._measured_retried_batches += batches

    def record_executed(self, replica: NodeId, txns: int,
                        now: float) -> None:
        """A replica executed a batch."""
        self._executed_txns[replica] += txns

    def finish(self, now: float) -> None:
        """Freeze the measurement window at ``now``."""
        self._end_time = now

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def measurement_window(self) -> float:
        """Length of the measured interval (post-warmup)."""
        if self._end_time is None or self._end_time <= self._warmup:
            return 0.0
        return self._end_time - self._warmup

    def throughput_txn_s(self) -> float:
        """Client-acknowledged transactions per second, post-warmup."""
        window = self.measurement_window()
        if window <= 0:
            return 0.0
        return self._measured_completed_txns / window

    def avg_latency_s(self) -> float:
        """Mean client batch latency over the measured interval."""
        if not self._latencies:
            return 0.0
        return sum(self._latencies) / len(self._latencies)

    def p50_latency_s(self) -> float:
        """Median client batch latency (midpoint-interpolated)."""
        if not self._latencies:
            return 0.0
        ordered = sorted(self._latencies)
        n = len(ordered)
        mid = n // 2
        if n % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])

    def p95_latency_s(self) -> float:
        """95th-percentile client batch latency (histogram-backed)."""
        return self._latency_histogram.quantile(0.95)

    def p99_latency_s(self) -> float:
        """99th-percentile client batch latency (histogram-backed)."""
        return self._latency_histogram.quantile(0.99)

    def latency_histogram(self) -> LatencyHistogram:
        """The streaming histogram behind the tail quantiles."""
        return self._latency_histogram

    def offered_load_txn_s(self) -> float:
        """Post-warmup submitted transactions per second."""
        window = self.measurement_window()
        if window <= 0:
            return 0.0
        return self._measured_submitted_txns / window

    @property
    def completed_txns(self) -> int:
        """All client-acknowledged transactions (warmup included)."""
        return self._completed_txns

    @property
    def submitted_txns(self) -> int:
        """All submitted transactions."""
        return self._submitted_txns

    @property
    def measured_submitted_txns(self) -> int:
        """Transactions submitted after the warmup horizon."""
        return self._measured_submitted_txns

    @property
    def measured_offered_txns(self) -> int:
        """Open-loop arrivals after the warmup horizon."""
        return self._measured_offered_txns

    @property
    def measured_rejected_txns(self) -> int:
        """Admission-rejected arrivals after the warmup horizon."""
        return self._measured_rejected_txns

    @property
    def measured_abandoned_txns(self) -> int:
        """Abandoned transactions after the warmup horizon."""
        return self._measured_abandoned_txns

    @property
    def measured_retried_batches(self) -> int:
        """Retried request batches after the warmup horizon."""
        return self._measured_retried_batches

    def executed_txns(self, replica: NodeId) -> int:
        """Transactions executed at one replica."""
        return self._executed_txns.get(replica, 0)

    def total_executed_txns(self) -> int:
        """Transactions executed summed over all replicas."""
        return sum(self._executed_txns.values())
