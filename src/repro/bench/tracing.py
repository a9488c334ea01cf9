"""Structured event tracing for deployments.

A :class:`MessageTracer` attaches to a network as a send observer and
records a bounded, filterable log of protocol traffic.  It exists for
debugging and for tests that assert on *when* and *where* specific
messages flowed (e.g. "the remote view change fired before the new
primary's resend").

:func:`load_trace_jsonl` is the read path for exported phase traces:
it replays a JSONL file written by
:meth:`~repro.bench.instrumentation.Instrumentation.export_jsonl` back
into a fresh hub, so ``repro trace --summary`` can print phase tables
from an artifact without re-running the experiment.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Type

from ..net.network import Network
from ..types import NodeId
from .instrumentation import Instrumentation


class _ReplayClock:
    """Stand-in simulator for offline replay: just a settable ``now``."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0


def load_trace_jsonl(path: str) -> Instrumentation:
    """Rebuild an :class:`Instrumentation` hub from an exported JSONL.

    Phase-event lines replay through :meth:`Instrumentation.phase`
    (nodes stay strings — the read side only ever stringifies them), so
    marks, spans, phase durations, and the share-latency breakdown are
    reconstructed exactly.  Sample streams and counters are not
    exported and so cannot be recovered here.
    """
    hub = Instrumentation(sim=None)
    clock = _ReplayClock()
    hub._sim = clock
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: not a JSON object: {exc}") from exc
            try:
                clock.now = obj["t"]
                hub.phase(obj["phase"], obj["node"], obj["cluster"],
                          obj["round"], obj.get("detail"))
            except (KeyError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{line_no}: not a phase-event record "
                    f"({exc})") from exc
    hub._sim = None
    return hub


@dataclass(frozen=True)
class TraceEvent:
    """One recorded send."""

    time: float
    kind: str
    src: NodeId
    dst: NodeId
    size_bytes: int
    is_local: bool

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        scope = "local " if self.is_local else "global"
        return (f"[{self.time:10.6f}] {scope} {self.kind:<22} "
                f"{str(self.src):>6} -> {str(self.dst):<6} "
                f"({self.size_bytes} B)")


class MessageTracer:
    """Bounded send log with type filtering.

    When the buffer fills, ``keep="first"`` (the default) drops new
    events and ``keep="last"`` runs as a ring buffer retaining the most
    recent ``max_events``; either way ``dropped`` counts the casualties
    and the first drop emits a one-line warning through the optional
    :class:`~repro.bench.instrumentation.Instrumentation` hub.

    Usage::

        tracer = MessageTracer.attach(deployment.network,
                                      kinds=(GlobalShare, Rvc))
        ...run...
        for event in tracer.events:
            print(event)
    """

    def __init__(self, network: Network,
                 kinds: Optional[Iterable[Type]] = None,
                 max_events: int = 100_000,
                 predicate: Optional[Callable[..., bool]] = None,
                 keep: str = "first",
                 instrumentation=None):
        if keep not in ("first", "last"):
            raise ValueError(f"keep must be 'first' or 'last', got {keep!r}")
        self._network = network
        self._kinds = tuple(kinds) if kinds is not None else None
        self._max_events = max_events
        self._predicate = predicate
        self._keep = keep
        self._instrumentation = instrumentation
        if keep == "last":
            self._events: "deque[TraceEvent]" = deque(maxlen=max_events)
        else:
            self._events = []
        self._dropped = 0

    @classmethod
    def attach(cls, network: Network,
               kinds: Optional[Iterable[Type]] = None,
               max_events: int = 100_000,
               predicate: Optional[Callable[..., bool]] = None,
               keep: str = "first",
               instrumentation=None,
               ) -> "MessageTracer":
        """Create a tracer and register it with ``network``."""
        tracer = cls(network, kinds=kinds, max_events=max_events,
                     predicate=predicate, keep=keep,
                     instrumentation=instrumentation)
        network.add_observer(tracer._observe)
        return tracer

    def _note_drop(self) -> None:
        self._dropped += 1
        if self._dropped == 1 and self._instrumentation is not None:
            self._instrumentation.warn_once(
                ("tracer-full", id(self)),
                f"MessageTracer buffer full ({self._max_events} events); "
                f"{'overwriting oldest' if self._keep == 'last' else 'dropping new'} events")

    def _observe(self, src: NodeId, dst: NodeId, message, size: int,
                 is_local: bool) -> None:
        if self._kinds is not None and not isinstance(message, self._kinds):
            return
        if self._predicate is not None and not self._predicate(
                src, dst, message):
            return
        if len(self._events) >= self._max_events:
            self._note_drop()
            if self._keep == "first":
                return
        self._events.append(TraceEvent(
            time=self._network.simulation.now,
            kind=type(message).__name__,
            src=src,
            dst=dst,
            size_bytes=size,
            is_local=is_local,
        ))

    @property
    def events(self) -> List[TraceEvent]:
        """All recorded events, in send order."""
        return list(self._events)

    @property
    def dropped(self) -> int:
        """Events not recorded because the buffer was full."""
        return self._dropped

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """Events whose message type name is ``kind``."""
        return [e for e in self._events if e.kind == kind]

    def between(self, src_cluster: int, dst_cluster: int) -> List[TraceEvent]:
        """Events sent from one cluster to another."""
        return [
            e for e in self._events
            if e.src.cluster == src_cluster and e.dst.cluster == dst_cluster
        ]

    def first_time_of(self, kind: str) -> Optional[float]:
        """Time of the first event of ``kind``, or ``None``."""
        for event in self._events:
            if event.kind == kind:
                return event.time
        return None

    def summary(self) -> str:
        """Per-kind counts, one line per message type."""
        counts = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        lines = [f"{kind}: {count}"
                 for kind, count in sorted(counts.items())]
        if self._dropped:
            lines.append(f"(dropped {self._dropped} events)")
        return "\n".join(lines)
