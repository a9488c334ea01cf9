"""Deployment-wide observability: lifecycle spans, histograms, telemetry.

The paper's evaluation (§4) reasons about *where* a round's time goes —
local PBFT phases vs. inter-cluster global sharing vs. crypto CPU —
while :class:`~repro.bench.metrics.Metrics` only reports end-of-run
aggregates.  This module adds the missing per-stage accounting:

* :class:`Instrumentation` — a central hub protocol replicas emit typed
  *phase events* into (``proposed -> prepared -> committed -> shared ->
  ordered -> executed``, plus view-change and remote-view-change
  events).  The hub assembles per-round span trees with simulated-time
  durations and a per-remote-cluster global-share latency breakdown.
* :class:`LatencyHistogram` — a streaming fixed-log-bucket histogram
  (O(1) memory) behind the p50/p95/p99 figures in reports.
* Export to JSONL and to the Chrome ``trace_event`` format, loadable in
  ``chrome://tracing`` or Perfetto.

The hub is strictly an *observer*: it reads ``sim.now`` and appends to
host-side structures.  It never schedules events, charges CPU, or
consumes randomness, so a run's simulated results are byte-identical
with instrumentation enabled or disabled.  Disabled is represented by
``None`` — emission sites guard with ``if instr is not None`` so the
off path costs one attribute load and one comparison.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Canonical round lifecycle, in order.  ``shared``/``ordered`` only
#: occur in the geo-scale protocols (GeoBFT, Steward); span building
#: skips phases a protocol never emits.
LIFECYCLE = ("proposed", "prepared", "committed", "shared", "ordered",
             "executed")

#: Failure-handling events, exported as instants rather than spans.
#: ``fault_on``/``fault_off`` are emitted by the chaos engine
#: (:mod:`repro.net.chaos`) when a scheduled fault (de)activates; they
#: carry ``cluster = 0``, rendering on a dedicated "chaos" track.
EVENT_PHASES = ("view_change", "new_view", "drvc", "rvc_sent",
                "rvc_honored", "fault_on", "fault_off")


@dataclass(frozen=True)
class PhaseEvent:
    """One typed lifecycle event emitted by a replica."""

    time: float
    phase: str
    node: object  # NodeId
    cluster: int
    round_id: int
    detail: object = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        extra = f" detail={self.detail}" if self.detail is not None else ""
        return (f"[{self.time:10.6f}] {self.phase:<14} c{self.cluster} "
                f"r{self.round_id} @{self.node}{extra}")


class LatencyHistogram:
    """Streaming histogram with fixed logarithmic buckets.

    Memory is O(bucket count) regardless of sample count: each recorded
    value lands in the bucket whose geometric range contains it.
    Quantiles interpolate linearly inside the bucket and are clamped to
    the exact observed min/max, so the relative error of any quantile is
    bounded by the bucket growth factor (~19% with the default
    ``growth = 2 ** 0.25``), and p0/p100 are exact.

    The default geometry covers 1 µs .. ~10⁶ s, wide enough for both
    client latencies and consensus phase gaps; values at or below
    ``min_value`` share bucket 0.
    """

    __slots__ = ("_min_value", "_growth", "_log_growth", "_counts",
                 "count", "total", "min", "max")

    def __init__(self, min_value: float = 1e-6, growth: float = 2 ** 0.25,
                 buckets: int = 160):
        if min_value <= 0 or growth <= 1 or buckets < 2:
            raise ValueError("invalid histogram geometry")
        self._min_value = min_value
        self._growth = growth
        self._log_growth = math.log(growth)
        self._counts = [0] * buckets
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _index(self, value: float) -> int:
        if value <= self._min_value:
            return 0
        idx = 1 + int(math.log(value / self._min_value) / self._log_growth)
        last = len(self._counts) - 1
        return idx if idx < last else last

    def _bounds(self, index: int) -> Tuple[float, float]:
        if index == 0:
            return 0.0, self._min_value
        lo = self._min_value * self._growth ** (index - 1)
        return lo, lo * self._growth

    def record(self, value: float) -> None:
        """Add one sample (negative values clamp to zero)."""
        if value < 0:
            value = 0.0
        self._counts[self._index(value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def mean(self) -> float:
        """Arithmetic mean of all samples (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1), interpolated in-bucket."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lo, hi = self._bounds(index)
                fraction = (target - cumulative) / bucket_count
                value = lo + (hi - lo) * max(0.0, fraction)
                return min(max(value, self.min), self.max)
            cumulative += bucket_count
        return self.max

    def percentiles(self) -> Dict[str, float]:
        """The p50/p95/p99 triple reports print."""
        return {"p50": self.quantile(0.50), "p95": self.quantile(0.95),
                "p99": self.quantile(0.99)}


class Instrumentation:
    """Central observability hub for one deployment.

    Replicas call :meth:`phase` / :meth:`sample` / :meth:`count`;
    everything else here is read-side: span assembly, per-transition
    histograms, the global-share latency breakdown, and the two export
    formats.  All timestamps are *simulated* seconds read from the
    shared clock — the hub never writes to the simulation.
    """

    def __init__(self, sim, max_events: int = 500_000):
        self._sim = sim
        self._max_events = max_events
        self.events: List[PhaseEvent] = []
        self.dropped_events = 0
        self.warnings: List[str] = []
        self._warned: set = set()
        # (cluster, round) -> {lifecycle phase: first simulated time}.
        self._marks: Dict[Tuple[int, int], Dict[str, float]] = {}
        # (origin cluster, round) -> {receiving cluster: first recv time}.
        self._share_marks: Dict[Tuple[int, int], Dict[int, float]] = {}
        # Named sample streams (queue depths etc.) and event counters.
        self.samples: Dict[str, LatencyHistogram] = {}
        self.counters: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Write side (called from protocol code; must stay observation-only)
    # ------------------------------------------------------------------
    def phase(self, phase: str, node, cluster: int, round_id: int,
              detail=None) -> None:
        """Record one lifecycle event at the current simulated time."""
        now = self._sim.now
        if len(self.events) < self._max_events:
            self.events.append(PhaseEvent(now, phase, node, cluster,
                                          round_id, detail))
        else:
            self.dropped_events += 1
            self.warn_once("phase-events-full",
                           f"instrumentation event buffer full "
                           f"({self._max_events}); dropping phase events")
        if phase == "share_received":
            per_dst = self._share_marks.get((cluster, round_id))
            if per_dst is None:
                per_dst = {}
                self._share_marks[(cluster, round_id)] = per_dst
            if detail is not None and detail not in per_dst:
                per_dst[detail] = now
            return
        marks = self._marks.get((cluster, round_id))
        if marks is None:
            marks = {}
            self._marks[(cluster, round_id)] = marks
        if phase not in marks:
            marks[phase] = now

    def sample(self, name: str, value: float) -> None:
        """Record one sample into the named stream (e.g. queue depth)."""
        histogram = self.samples.get(name)
        if histogram is None:
            histogram = LatencyHistogram()
            self.samples[name] = histogram
        histogram.record(value)

    def count(self, name: str, delta: int = 1) -> None:
        """Bump a named event counter."""
        self.counters[name] = self.counters.get(name, 0) + delta

    def warn_once(self, key: str, message: str) -> None:
        """Emit ``message`` (once per ``key``) to stderr and keep it."""
        if key in self._warned:
            return
        self._warned.add(key)
        self.warnings.append(message)
        print(f"[instrumentation] {message}", file=sys.stderr)

    # ------------------------------------------------------------------
    # Read side: spans and histograms
    # ------------------------------------------------------------------
    def rounds(self) -> List[Tuple[int, int]]:
        """All (cluster, round) pairs with at least one lifecycle mark."""
        return sorted(self._marks)

    def round_span(self, cluster: int, round_id: int) -> Dict[str, float]:
        """First-seen time of each lifecycle phase of one round."""
        return dict(self._marks.get((cluster, round_id), {}))

    def committed_rounds(self) -> int:
        """Rounds that reached the ``committed`` phase."""
        return sum(1 for marks in self._marks.values()
                   if "committed" in marks)

    def phase_durations(self) -> Dict[str, LatencyHistogram]:
        """Histogram of each observed lifecycle transition's duration.

        Keys are ``"a->b"`` for consecutive *present* phases in
        :data:`LIFECYCLE` order, plus ``"proposed->executed"`` for the
        whole round when both endpoints exist.
        """
        out: Dict[str, LatencyHistogram] = {}
        for marks in self._marks.values():
            present = [(p, marks[p]) for p in LIFECYCLE if p in marks]
            for (phase_a, time_a), (phase_b, time_b) in zip(present,
                                                            present[1:]):
                key = f"{phase_a}->{phase_b}"
                histogram = out.get(key)
                if histogram is None:
                    histogram = LatencyHistogram()
                    out[key] = histogram
                histogram.record(time_b - time_a)
            if "proposed" in marks and "executed" in marks:
                key = "proposed->executed"
                histogram = out.get(key)
                if histogram is None:
                    histogram = LatencyHistogram()
                    out[key] = histogram
                histogram.record(marks["executed"] - marks["proposed"])
        return out

    def share_latency(self) -> Dict[Tuple[int, int], LatencyHistogram]:
        """Global-share latency per (origin cluster, receiving cluster).

        Measured from the origin's ``shared`` mark (falling back to
        ``committed``) to the first replica of the receiving cluster
        accepting the share — the paper's inter-cluster sharing cost
        (§2.3) per remote destination.
        """
        out: Dict[Tuple[int, int], LatencyHistogram] = {}
        for (cluster, round_id), per_dst in self._share_marks.items():
            marks = self._marks.get((cluster, round_id), {})
            base = marks.get("shared", marks.get("committed"))
            if base is None:
                continue
            for dst_cluster, received_at in per_dst.items():
                key = (cluster, dst_cluster)
                histogram = out.get(key)
                if histogram is None:
                    histogram = LatencyHistogram()
                    out[key] = histogram
                histogram.record(received_at - base)
        return out

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export_jsonl(self, path: str) -> int:
        """Write one JSON object per event; returns the event count.

        One phase event per line (``t``/``phase``/``node``/``cluster``/
        ``round``/``detail``), so ``repro trace --summary`` can rebuild
        the phase tables without re-running the experiment.
        """
        with open(path, "w", encoding="utf-8") as fh:
            for event in self.events:
                fh.write(json.dumps({
                    "t": event.time,
                    "phase": event.phase,
                    "node": str(event.node),
                    "cluster": event.cluster,
                    "round": event.round_id,
                    "detail": (event.detail
                               if isinstance(event.detail, (int, float,
                                                            str, bool))
                               or event.detail is None
                               else str(event.detail)),
                }) + "\n")
        return len(self.events)

    def chrome_trace(self) -> Dict[str, object]:
        """The run as a Chrome ``trace_event`` document.

        One *process* per cluster, one *thread* per round: every
        lifecycle transition becomes a complete ("X") event whose
        duration is the simulated gap between the two phases, so a round
        renders as a contiguous span stack in Perfetto.  View-change and
        remote-view-change events render as instants.  Timestamps are
        microseconds of simulated time.
        """
        trace_events: List[Dict[str, object]] = []
        clusters = sorted({c for c, _ in self._marks}
                          | {e.cluster for e in self.events})
        for cluster in clusters:
            # Cluster ids are 1-based; pid 0 is the chaos engine's track.
            label = f"cluster {cluster}" if cluster else "chaos"
            trace_events.append({
                "name": "process_name", "ph": "M", "pid": cluster,
                "args": {"name": label},
            })
        for (cluster, round_id), marks in sorted(self._marks.items()):
            present = [(p, marks[p]) for p in LIFECYCLE if p in marks]
            for (phase_a, time_a), (phase_b, time_b) in zip(present,
                                                            present[1:]):
                trace_events.append({
                    "name": phase_b,
                    "cat": "lifecycle",
                    "ph": "X",
                    "ts": round(time_a * 1e6, 3),
                    "dur": round((time_b - time_a) * 1e6, 3),
                    "pid": cluster,
                    "tid": round_id,
                    "args": {"round": round_id, "from": phase_a},
                })
        for (cluster, round_id), per_dst in sorted(self._share_marks.items()):
            marks = self._marks.get((cluster, round_id), {})
            base = marks.get("shared", marks.get("committed"))
            if base is None:
                continue
            for dst_cluster, received_at in sorted(per_dst.items()):
                trace_events.append({
                    "name": f"share->c{dst_cluster}",
                    "cat": "global-share",
                    "ph": "X",
                    "ts": round(base * 1e6, 3),
                    "dur": round((received_at - base) * 1e6, 3),
                    "pid": cluster,
                    "tid": round_id,
                    "args": {"round": round_id, "to_cluster": dst_cluster},
                })
        for event in self.events:
            if event.phase not in EVENT_PHASES:
                continue
            args: Dict[str, object] = {"node": str(event.node),
                                       "round": event.round_id}
            if event.detail is not None:
                args["detail"] = str(event.detail)
            trace_events.append({
                "name": event.phase,
                "cat": ("chaos" if event.phase.startswith("fault_")
                        else "failure-handling"),
                "ph": "i",
                "s": "p",
                "ts": round(event.time * 1e6, 3),
                "pid": event.cluster,
                "tid": 0,
                "args": args,
            })
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def export_chrome_trace(self, path: str) -> int:
        """Write the Chrome trace JSON; returns the trace-event count."""
        document = self.chrome_trace()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        return len(document["traceEvents"])

    def summary(self) -> str:
        """One-paragraph plain-text digest of what was recorded."""
        per_phase: Dict[str, int] = {}
        for event in self.events:
            per_phase[event.phase] = per_phase.get(event.phase, 0) + 1
        lines = [f"{len(self.events)} phase events over "
                 f"{len(self._marks)} (cluster, round) spans, "
                 f"{self.committed_rounds()} committed rounds"]
        for phase, count in sorted(per_phase.items()):
            lines.append(f"  {phase}: {count}")
        if self.dropped_events:
            lines.append(f"  (dropped {self.dropped_events} events)")
        return "\n".join(lines)

