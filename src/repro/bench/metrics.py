"""Experiment metrics.

Collects exactly what the paper reports:

* **throughput** — client-acknowledged transactions per second over the
  measurement window (the run minus its warmup, mirroring §4's 60 s
  warmup + 120 s measurement),
* **latency** — average and p50/p95/p99 client-observed end-to-end
  batch latency (tail quantiles come from a streaming log-bucket
  histogram, so memory stays O(1) in the sample count),
* **message and byte counts** — split into local (intra-region) and
  global (inter-region) traffic per message type, which is the data
  behind the Table 2 complexity comparison.

One :class:`Metrics` instance is shared by every node of a deployment
and attached to the network as a send observer.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple  # noqa: F401 (Tuple used)

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

        # Network accounting: type -> (count, bytes), split by locality.
        self._local_msgs: Dict[str, int] = defaultdict(int)
        self._global_msgs: Dict[str, int] = defaultdict(int)
        self._local_bytes = 0
        self._global_bytes = 0
        # Optional region map enabling per-region-pair byte accounting.
        self._region_of: Dict[NodeId, str] = {}
        self._pair_bytes: Dict[Tuple[str, str], int] = defaultdict(int)

    # ------------------------------------------------------------------
    # Recording interface (called by clients, replicas, the network)
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

    def set_region_map(self, region_of: Dict[NodeId, str]) -> None:
        """Enable per-region-pair accounting (used by traffic analysis)."""
        self._region_of = dict(region_of)

    def network_observer(self, src: NodeId, dst: NodeId, message,
                         size: int, is_local: bool) -> None:
        """Network send hook (attach via ``network.add_observer``)."""
        kind = type(message).__name__
        if is_local:
            self._local_msgs[kind] += 1
            self._local_bytes += size
        else:
            self._global_msgs[kind] += 1
            self._global_bytes += size
        if self._region_of:
            src_region = self._region_of.get(src)
            dst_region = self._region_of.get(dst)
            if src_region is not None and dst_region is not None:
                self._pair_bytes[(src_region, dst_region)] += size

    def network_observer_group(self, src: NodeId, dsts, message,
                               size: int, is_local: bool) -> None:
        """Batched variant of :meth:`network_observer` for multicast
        destination groups — identical totals, one call per group."""
        kind = type(message).__name__
        n = len(dsts)
        if is_local:
            self._local_msgs[kind] += n
            self._local_bytes += size * n
        else:
            self._global_msgs[kind] += n
            self._global_bytes += size * n
        region_of = self._region_of
        if region_of:
            src_region = region_of.get(src)
            if src_region is not None:
                pair_bytes = self._pair_bytes
                for dst in dsts:
                    dst_region = region_of.get(dst)
                    if dst_region is not None:
                        pair_bytes[(src_region, dst_region)] += size

    def pair_bytes(self) -> Dict[Tuple[str, str], int]:
        """Bytes sent per (source region, destination region)."""
        return dict(self._pair_bytes)

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

    def message_counts(self) -> Dict[str, Dict[str, int]]:
        """``{type: {"local": n, "global": n}}`` for all traffic."""
        kinds = set(self._local_msgs) | set(self._global_msgs)
        return {
            kind: {
                "local": self._local_msgs.get(kind, 0),
                "global": self._global_msgs.get(kind, 0),
            }
            for kind in sorted(kinds)
        }

    @property
    def local_messages(self) -> int:
        """Total intra-region messages."""
        return sum(self._local_msgs.values())

    @property
    def global_messages(self) -> int:
        """Total inter-region messages."""
        return sum(self._global_msgs.values())

    @property
    def local_bytes(self) -> int:
        """Total intra-region bytes."""
        return self._local_bytes

    @property
    def global_bytes(self) -> int:
        """Total inter-region bytes."""
        return self._global_bytes

