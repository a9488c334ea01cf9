"""Deterministic discrete-event simulator.

Every moving part of the reproduction — replicas, clients, network links,
timers — runs on one :class:`Simulation` instance.  The simulator owns
virtual time; nothing in the library reads the wall clock.  Events at
equal timestamps fire in scheduling order, so a run is a pure function of
its configuration and seed, which the safety and determinism tests rely
on.

Two scheduling paths share one queue and one sequence counter:

* :meth:`Simulation.schedule` returns a cancellable :class:`Timer` —
  used for view-change timeouts and anything else that may be cancelled.
* :meth:`Simulation.post` is the fast path for the vast majority of
  events (message deliveries, deferred sends) that are never cancelled:
  no ``Timer`` object is allocated, the callback and args ride directly
  in the queue entry.

Because both paths consume the same monotonically increasing sequence
number, mixing them cannot reorder events: determinism is a property of
the (deadline, seq) pair, which is identical whichever path created the
event.

Storage is split between two structures that together implement the
exact (deadline, seq) total order:

* a **zero-delay lane** — a plain FIFO for events posted with delay
  ``0.0``.  Such events always belong to the *current* instant, so they
  never need heap ordering; appending to a list is far cheaper than a
  heap push at paper-scale queue depths.  The lane drains before virtual
  time can advance, interleaved with same-instant calendar events in
  sequence order, so the observable order is identical to a single heap.
* a **calendar queue** (:class:`_CalendarQueue`) — the ns-3-style
  bucketed scheduler for everything else.  Events hash into fixed-width
  time buckets; inserts into future buckets are O(1) appends, and each
  bucket is sorted once when the clock reaches it.  Ties always land in
  the same bucket (same deadline ⇒ same bucket), so (deadline, seq)
  ordering is preserved exactly.

Almost every timer the protocols arm is cancelled long before its
multi-second deadline, so a cancelled timer must not stay resident until
then: a timer bound for a future bucket is filed in that bucket's
:class:`_TimerIndex` rather than its list, :meth:`Timer.cancel` removes
it from there, and only its ``(deadline, seq)`` pair stays behind.  The
cancelled event is still popped, counted and skipped at exactly the
position it always held.
"""

from __future__ import annotations

import gc
import heapq
import random
from array import array
from bisect import insort
from collections import deque
from itertools import repeat
from typing import Any, Callable, Optional

from ..errors import SimulationError


class Timer:
    """Handle to a scheduled event, allowing cancellation.

    Replicas use timers for failure detection (PBFT view-change timers,
    GeoBFT remote view-change timers).  Cancelling is O(1) and releases
    the callback and its arguments at once; the event itself still
    counts as queued and is skipped as a no-op at its deadline.
    """

    __slots__ = ("deadline", "_fn", "_args", "_cancelled", "_fired",
                 "_index")

    def __init__(self, deadline: float, fn: Callable[..., None], args: tuple):
        self.deadline = deadline
        # Both are dropped by cancel().
        self._fn: Optional[Callable[..., None]] = fn
        self._args: Optional[tuple] = args
        self._cancelled = False
        self._fired = False
        # The _TimerIndex this timer is filed in, if it went to a future
        # calendar bucket; None for lane/active-bucket timers, which own
        # an ordinary queue entry.
        self._index: Optional[_TimerIndex] = None

    def cancel(self) -> None:
        """Prevent the timer from firing (idempotent).

        A no-op once the timer has fired — including from inside its own
        callback.
        """
        if self._fired or self._cancelled:
            return
        self._cancelled = True
        self._fn = self._args = None
        index = self._index
        if index is not None:
            self._index = None
            seq = index.live.pop(self, None)
            # None: the bucket has been activated, a queue entry holds
            # the timer now and the loop will skip it by its flag.
            if seq is not None:
                index.dead_deadlines.append(self.deadline)
                index.dead_seqs.append(seq)

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called before the timer fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """Whether the timer's callback has run."""
        return self._fired

    def _fire(self) -> None:
        if self._cancelled or self._fired:
            return
        self._fired = True
        self._fn(*self._args)


#: Stands in the queue for every timer cancelled while it was filed in a
#: :class:`_TimerIndex`; the loops skip it like any cancelled timer.
_CANCELLED = Timer(0.0, lambda: None, ())
_CANCELLED.cancel()


#: Width of one calendar bucket, in simulated seconds.  One millisecond
#: sits between the shortest intra-region one-way latencies (~0.25 ms)
#: and the WAN latencies (tens to hundreds of ms), so at paper scale a
#: bucket holds a few hundred events — large enough that most inserts
#: are O(1) appends into future buckets, small enough that sorting the
#: active bucket stays cheap.
_BUCKET_WIDTH = 1e-3


class _TimerIndex:
    """The timers filed in one future calendar bucket.

    ``live`` maps each still-armed :class:`Timer` to its sequence number;
    a cancelled timer leaves it and keeps only its ``(deadline, seq)``
    pair, 16 bytes in the two parallel arrays — enough for
    :meth:`merge_into` to put a cancelled placeholder at the exact
    queue position the timer held.
    """

    __slots__ = ("live", "dead_deadlines", "dead_seqs")

    def __init__(self) -> None:
        self.live: dict = {}
        self.dead_deadlines = array("d")
        self.dead_seqs = array("q")

    def merge_into(self, entries: list) -> None:
        """Append one queue entry per filed timer, live or cancelled."""
        live = self.live
        entries.extend([(timer.deadline, seq, timer, None, None)
                        for timer, seq in live.items()])
        # The timers still point here; emptying ``live`` breaks that
        # reference cycle (the run loop keeps the collector off) and
        # leaves a later cancel() nothing to unfile.
        live.clear()
        entries.extend(zip(self.dead_deadlines, self.dead_seqs,
                           repeat(_CANCELLED), repeat(None), repeat(None)))


class _CalendarQueue:
    """Bucketed (calendar) event queue with exact (deadline, seq) order.

    Entries are ``(deadline, seq, timer, fn, args)`` tuples — the same
    shape :class:`Simulation` has always used.  Each entry hashes into
    the bucket ``int(deadline / width)``; only non-empty buckets exist
    (a dict, not a ring), so sparse far-future timers cost one dict slot
    each instead of degrading a fixed-size calendar.

    * **push** into a future bucket: ``list.append`` (unsorted) — O(1).
    * **push_timer** into a future bucket files the timer in that
      bucket's :class:`_TimerIndex` instead, where cancelling it is a
      dict delete.
    * **peek** / **advance**: the minimum-epoch bucket is *activated* —
      its timer index merged in, sorted once, then consumed front-to-back
      through an index cursor.  Inserts that land in the already-active
      bucket use ``bisect.insort`` past the cursor, preserving order.
    * an insert *earlier* than the active bucket (possible after the
      clock jumped over empty buckets) deactivates the current bucket
      back into the dict; the next peek re-activates the true minimum.

    Ties share a deadline and therefore a bucket, so sorting by the full
    tuple reproduces the global (deadline, seq) order exactly — the
    property the determinism suite asserts byte-for-byte.
    """

    __slots__ = ("_width", "_buckets", "_timers", "_epochs", "_active",
                 "_active_epoch", "_cursor", "_size")

    def __init__(self, width: float = _BUCKET_WIDTH):
        self._width = width
        self._buckets: dict = {}     # epoch -> unsorted list of entries
        self._timers: dict = {}      # epoch -> _TimerIndex (subset of above)
        self._epochs: list = []      # min-heap of epochs present in _buckets
        self._active: Optional[list] = None   # sorted; consumed via cursor
        self._active_epoch = 0
        self._cursor = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, entry: tuple) -> None:
        epoch = int(entry[0] / self._width)
        active = self._active
        if active is not None:
            if epoch == self._active_epoch:
                insort(active, entry, self._cursor)
                self._size += 1
                return
            if epoch < self._active_epoch:
                # The clock previously jumped past this epoch; demote the
                # active bucket and let the next peek re-activate the min.
                if self._cursor < len(active):
                    self._buckets[self._active_epoch] = active[self._cursor:]
                    heapq.heappush(self._epochs, self._active_epoch)
                self._active = None
        bucket = self._buckets.get(epoch)
        if bucket is None:
            self._buckets[epoch] = [entry]
            heapq.heappush(self._epochs, epoch)
        else:
            bucket.append(entry)
        self._size += 1

    def push_timer(self, timer: Timer, seq: int) -> None:
        """Queue ``timer`` at ``(timer.deadline, seq)``."""
        epoch = int(timer.deadline / self._width)
        if self._active is not None and epoch <= self._active_epoch:
            self.push((timer.deadline, seq, timer, None, None))
            return
        index = self._timers.get(epoch)
        if index is None:
            index = self._timers[epoch] = _TimerIndex()
            if epoch not in self._buckets:
                self._buckets[epoch] = []
                heapq.heappush(self._epochs, epoch)
        index.live[timer] = seq
        timer._index = index
        self._size += 1

    def peek(self) -> Optional[tuple]:
        """The minimum entry, or ``None`` when empty (does not remove)."""
        active = self._active
        while active is None or self._cursor >= len(active):
            if not self._epochs:
                self._active = None
                return None
            epoch = heapq.heappop(self._epochs)
            active = self._buckets.pop(epoch)
            index = self._timers.pop(epoch, None)
            if index is not None:
                index.merge_into(active)
            active.sort()
            self._active = active
            self._active_epoch = epoch
            self._cursor = 0
        return active[self._cursor]

    def advance(self) -> None:
        """Consume the entry last returned by :meth:`peek`."""
        self._cursor += 1
        self._size -= 1


class Simulation:
    """A discrete-event loop with deterministic tie-breaking.

    Usage::

        sim = Simulation(seed=7)
        sim.schedule(0.5, print, "fires at t=0.5")
        sim.run(until=10.0)
    """

    __slots__ = ("_now", "_seq", "_calendar", "_lane", "_events_processed",
                 "_depth", "_max_queue", "rng")

    def __init__(self, seed: int = 0):
        self._now = 0.0
        self._seq = 0
        # Queue entries are (deadline, seq, timer, fn, args): ``schedule``
        # queues (deadline, seq, Timer, None, None) — materialised only
        # at bucket activation for a timer filed in a _TimerIndex;
        # ``post`` pushes (deadline, seq, None, fn, args).  ``seq`` is
        # unique, so tuple comparison never reaches the non-comparable
        # tail.
        self._calendar = _CalendarQueue()
        # Zero-delay FIFO lane: every entry's deadline equals the current
        # instant (the lane drains before time advances), so plain FIFO
        # order *is* (deadline, seq) order within the lane.
        self._lane: deque = deque()
        self._events_processed = 0
        # Queue depth is tracked incrementally (push +1 / consume -1)
        # so the hot post() path never takes two len() calls.
        self._depth = 0
        self._max_queue = 0
        self.rng = random.Random(seed)

    @property
    def now(self) -> float:
        """Current virtual time, in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events fired so far (includes cancelled no-ops)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Events still in the queue (including cancelled ones)."""
        return len(self._calendar) + len(self._lane)

    @property
    def max_queue_depth(self) -> int:
        """High-water mark of the event queue (telemetry)."""
        return self._max_queue

    def count_extra_events(self, extra: int) -> None:
        """Credit ``extra`` additional processed events to the loop.

        Used by batched dispatchers (the open-loop traffic source's
        per-tick injection) whose one posted event does the work of
        ``k`` back-to-back same-instant events: crediting ``k - 1`` here
        keeps :attr:`events_processed` — and therefore the deployment
        digest — identical to the unbatched schedule.
        """
        self._events_processed += extra

    def schedule(self, delay: float, fn: Callable[..., None],
                 *args: Any) -> Timer:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Returns a :class:`Timer` that may be cancelled.  ``delay`` must be
        non-negative; zero-delay events run after all events already
        scheduled for the current instant (FIFO within a timestamp).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        timer = Timer(self._now + delay, fn, args)
        if delay == 0.0:
            self._lane.append((timer.deadline, self._seq, timer, None, None))
        else:
            self._calendar.push_timer(timer, self._seq)
        self._seq += 1
        depth = self._depth + 1
        self._depth = depth
        if depth > self._max_queue:
            self._max_queue = depth
        return timer

    def post(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Fast-path schedule for events that are never cancelled.

        Identical ordering semantics to :meth:`schedule` (same clock,
        same sequence counter) but no :class:`Timer` is allocated — the
        callback rides in the queue entry.  Use for message deliveries
        and other fire-and-forget events; use :meth:`schedule` when the
        caller needs a cancellation handle.
        """
        if delay == 0.0:
            self._lane.append((self._now, self._seq, None, fn, args))
        elif delay > 0:
            # _CalendarQueue.push, inlined — post() carries most of the
            # schedule (message deliveries), so the bucket insert runs
            # without an extra Python frame.
            deadline = self._now + delay
            entry = (deadline, self._seq, None, fn, args)
            cal = self._calendar
            epoch = int(deadline / cal._width)
            active = cal._active
            pushed = False
            if active is not None:
                active_epoch = cal._active_epoch
                if epoch == active_epoch:
                    insort(active, entry, cal._cursor)
                    pushed = True
                elif epoch < active_epoch:
                    if cal._cursor < len(active):
                        cal._buckets[active_epoch] = active[cal._cursor:]
                        heapq.heappush(cal._epochs, active_epoch)
                    cal._active = None
            if not pushed:
                bucket = cal._buckets.get(epoch)
                if bucket is None:
                    cal._buckets[epoch] = [entry]
                    heapq.heappush(cal._epochs, epoch)
                else:
                    bucket.append(entry)
            cal._size += 1
        else:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        self._seq += 1
        depth = self._depth + 1
        self._depth = depth
        if depth > self._max_queue:
            self._max_queue = depth

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Drain the event queue.

        ``until`` stops the clock at that virtual time (events scheduled
        later stay queued and ``now`` is advanced to ``until``); like a
        negative delay, an ``until`` before ``now`` is rejected.
        ``max_events`` bounds the number of fired events, guarding tests
        against accidental infinite message loops.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until the past: {until} < {self._now}")
        # The loop allocates heavily (queue entries, messages) but keeps
        # almost nothing cyclic alive; generational GC passes are pure
        # overhead at paper-scale event counts.  Host-side only — the
        # simulated schedule is unaffected.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._run_loop(until, max_events)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run_loop(self, until: Optional[float],
                  max_events: Optional[int]) -> int:
        """Fire events in (deadline, seq) order; return how many fired
        (cancelled timers are consumed but not counted)."""
        lane = self._lane
        calendar = self._calendar
        fired = 0
        # One float compare per event instead of a None test plus a
        # compare; +inf never stops the clock.
        until_f = float("inf") if until is None else until
        while True:
            # Inline next-event selection: the lane head (always at the
            # current instant) wins unless the calendar head is earlier,
            # or tied with a smaller sequence number.  The calendar's
            # peek/advance fast paths (active bucket, cursor not at the
            # end) are inlined too — two attribute reads instead of two
            # method calls per event at paper-scale rates.
            if lane:
                entry = lane[0]
                active = calendar._active
                cursor = calendar._cursor
                if active is not None and cursor < len(active):
                    head = active[cursor]
                else:
                    head = calendar.peek()
                    cursor = calendar._cursor
                if head is not None and (head[0] < entry[0]
                                         or (head[0] == entry[0]
                                             and head[1] < entry[1])):
                    entry = head
                    if entry[0] > until_f:
                        self._now = until
                        return fired
                    calendar._cursor = cursor + 1
                    calendar._size -= 1
                else:
                    if entry[0] > until_f:
                        self._now = until
                        return fired
                    lane.popleft()
            else:
                active = calendar._active
                cursor = calendar._cursor
                if active is not None and cursor < len(active):
                    entry = active[cursor]
                else:
                    entry = calendar.peek()
                    cursor = calendar._cursor
                    if entry is None:
                        break
                if entry[0] > until_f:
                    self._now = until
                    return fired
                calendar._cursor = cursor + 1
                calendar._size -= 1
            deadline, _seq, timer, fn, args = entry
            self._now = deadline
            self._depth -= 1
            self._events_processed += 1
            if timer is None:
                fn(*args)
            else:
                timer._fire()
                if timer.cancelled:
                    continue
            fired += 1
            if max_events is not None and fired >= max_events:
                return fired
        if until is not None:
            self._now = max(self._now, until)
        return fired

    def step(self) -> bool:
        """Fire exactly one queued event.  Returns ``False`` if idle."""
        return self._run_loop(None, 1) > 0
