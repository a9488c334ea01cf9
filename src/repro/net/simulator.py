"""Deterministic discrete-event simulator.

Every moving part of the reproduction — replicas, clients, network links,
timers — runs on one :class:`Simulation` instance.  The simulator owns
virtual time; nothing in the library reads the wall clock.  Events at
equal timestamps fire in scheduling order, so a run is a pure function of
its configuration and seed, which the safety and determinism tests rely
on.

Four scheduling paths share one sequence counter:

* :meth:`Simulation.schedule` returns a cancellable :class:`Timer` —
  used for view-change timeouts and anything else that may be cancelled.
* :meth:`Simulation.post` is the fast path for the vast majority of
  events (message deliveries, deferred sends) that are never cancelled:
  no ``Timer`` object is allocated, the callback and args ride directly
  in the queue entry.
* :meth:`Simulation.post_lane` queues a never-cancelled call behind the
  earlier calls of its :class:`DispatchLane`.
* :meth:`Simulation.post_call` queues a cancellable ``fn(arg)`` call in
  its :class:`CallLane` and returns the call's position, which
  :meth:`CallLane.cancel` takes.

Because all four paths consume the same monotonically increasing
sequence number, mixing them cannot reorder events: determinism is a
property of the (deadline, seq) pair, which is identical whichever path
created the event.

Two structures together implement the exact (deadline, seq) total
order:

* **lanes** — FIFOs whose events are already in (deadline, seq) order.
  Each keeps its queued pairs in a ring of preallocated ``array``
  columns, written and read by index (a full ring widens by an eighth,
  in place), and only its head entry sits on the heap.  A **timer
  lane** (:class:`_TimerLane`) holds the timers armed with one delay:
  a deadline is ``now + delay`` and ``now`` never decreases, so the
  lane is in order by construction; it keeps its still-armed timers in
  a ``{seq: Timer}`` dict.  A **dispatch lane**
  (:class:`DispatchLane`, :meth:`Simulation.post_lane`) holds the
  ``fn(a, b, c)`` calls of a caller whose deadlines do not decrease —
  a replica's certify thread, whose completion times only grow, or
  one sender's cross-region deliveries to one region, which leave a
  forward-moving egress clock over a fixed latency — with the three
  arguments in slot columns beside the pairs, so a queued call
  allocates no tuple.  A call with nothing of its lane pending ahead
  of it, or one earlier than the lane's latest deadline, is a plain
  heap entry instead: a lone call costs what a post costs, and the
  order stays exact for any caller.  A dispatch lane whose ring grew
  goes back to fresh ``_LANE_SLOTS`` columns when its last queued call
  pops, so a burst's high-water capacity is not kept.  A **call lane**
  (:class:`CallLane`, :meth:`Simulation.post_call`) holds the
  ``fn(arg)`` calls of one caller whose deadlines never decrease — a
  GeoBFT replica's remote view-change timeouts for one watched cluster
  — with the argument in one slot column; cancelling a call clears its
  slot, and the row is consumed without firing when its turn comes.
* **one binary heap** holding every :meth:`~Simulation.post` entry
  plus the head entry of each non-empty lane.  When a lane's head is
  consumed, the lane pushes its next head before the event fires, so
  the heap's minimum is always the global minimum.

Almost every timer the protocols arm is cancelled long before its
multi-second deadline.  :meth:`Timer.cancel` deletes the timer from its
lane's dict, so a cancelled timer stays resident only as a 16-byte
``(deadline, seq)`` pair, and a cancelled call-lane row as its 24-byte
row; the cancelled event is still popped, counted and skipped at
exactly the position it always held.
"""

from __future__ import annotations

import gc
import random
from array import array
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from ..errors import SimulationError

_INF = float("inf")


def _bad_delay(delay) -> SimulationError:
    return SimulationError(
        f"delay must be finite and non-negative: {delay!r}")


class Timer:
    """Handle to a scheduled event, allowing cancellation.

    Replicas and clients use timers for failure detection (PBFT
    progress and new-view timers, client retries).  Cancelling is O(1)
    and releases the callback and its arguments at once; the event
    itself still counts as queued and is skipped as a no-op at its
    deadline.
    """

    __slots__ = ("deadline", "_fn", "_args", "_cancelled", "_lane", "_seq",
                 "__weakref__")

    def __init__(self, deadline: float, fn: Callable[..., None], args: tuple,
                 lane: "_TimerLane", seq: int):
        self.deadline = deadline
        # Both are dropped by cancel().
        self._fn: Optional[Callable[..., None]] = fn
        self._args: Optional[tuple] = args
        self._cancelled = False
        # The lane holding this timer in its ``live`` dict under ``_seq``;
        # None once the timer has fired or been cancelled.
        self._lane: Optional[_TimerLane] = lane
        self._seq = seq

    def cancel(self) -> None:
        """Prevent the timer from firing (idempotent).

        A no-op once the timer has fired — including from inside its own
        callback.
        """
        lane = self._lane
        if lane is None:
            return
        self._lane = None
        self._cancelled = True
        self._fn = self._args = None
        del lane.live[self._seq]

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called before the timer fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """Whether the timer's callback has run."""
        return self._lane is None and not self._cancelled


# Initial ring capacity of a lane, and the least a full ring grows by.
_LANE_SLOTS = 8
_ZERO_SLOTS = bytes(8 * _LANE_SLOTS)


class _Lane:
    """A ring of queued (deadline, seq) pairs already in that order.

    ``deadlines[head]`` / ``seqs[head]`` is the pair whose entry
    ``(deadline, seq, lane, None)`` is on the heap; the ``size - 1``
    pairs after it (modulo ``capacity``) are still to come.  Columns are
    written and read by index, never appended to.
    """

    __slots__ = ("deadlines", "seqs", "head", "size", "capacity")

    def __init__(self):
        self.size = 0
        self._new_ring()

    def _new_ring(self) -> None:
        """Fresh, empty ``_LANE_SLOTS`` columns."""
        self.deadlines = array("d", _ZERO_SLOTS)
        self.seqs = array("q", _ZERO_SLOTS)
        self.head = 0
        self.capacity = _LANE_SLOTS

    def _grow(self) -> None:
        """Widen the full ring by about an eighth, in place.  The gap
        opens just before the head, so the pairs from the head on move
        up and the ring's order is kept (an eighth, not a doubling: a
        timer lane holds ~18k pairs at the end of a 4x4 run)."""
        head = self.head
        extra = (self.capacity >> 3) + _LANE_SLOTS
        self._open_gap(head, extra)
        self.head = head + extra
        self.capacity += extra

    def _open_gap(self, at: int, width: int) -> None:
        gap = bytes(8 * width)
        self.deadlines[at:at] = array("d", gap)
        self.seqs[at:at] = array("q", gap)


class _TimerLane(_Lane):
    """The timers armed with one delay, in (deadline, seq) order.

    ``live`` maps the sequence number of each still-armed timer to its
    :class:`Timer`; a pair with no ``live`` entry is a cancelled timer,
    skipped when its turn comes.
    """

    __slots__ = ("delay", "live")

    def __init__(self, delay: float):
        super().__init__()
        self.delay = delay
        self.live: dict = {}


class DispatchLane(_Lane):
    """Queued ``fn(a, b, c)`` calls whose deadlines do not decrease (a
    serial stage, one sender's deliveries to one region), in (deadline,
    seq) order; made by :meth:`Simulation.dispatch_lane`.

    The arguments of the call at ring index ``i`` are ``args0[i]``,
    ``args1[i]`` and ``args2[i]``; a fired call's slots are cleared, and
    a ring that grew is swapped for fresh columns when it drains.
    ``last`` is the latest deadline of any call posted to the lane, held
    in it or not: no earlier call may join the ring.
    """

    __slots__ = ("fn", "last", "args0", "args1", "args2")

    def __init__(self, fn: Callable[[Any, Any, Any], None]):
        super().__init__()
        self.fn = fn
        self.last = 0.0

    def _new_ring(self) -> None:
        super()._new_ring()
        self.args0: list = [None] * _LANE_SLOTS
        self.args1: list = [None] * _LANE_SLOTS
        self.args2: list = [None] * _LANE_SLOTS

    def _open_gap(self, at: int, width: int) -> None:
        super()._open_gap(at, width)
        gap = [None] * width
        self.args0[at:at] = gap
        self.args1[at:at] = gap
        self.args2[at:at] = gap


class CallLane(_Lane):
    """Queued cancellable ``fn(arg)`` calls whose deadlines never
    decrease, in (deadline, seq) order; made by
    :meth:`Simulation.call_lane`.

    The argument of the row at ring index ``i`` is ``args[i]``; a fired
    or cancelled row's slot holds None.  ``popped`` counts the rows
    consumed so far, so the row at position ``pos`` (the value
    :meth:`Simulation.post_call` returned for it) sits at ring index
    ``(head + pos - popped) % capacity`` until it is consumed — through
    :meth:`_grow` too, whose gap opens just before the head.  ``last``
    is the latest deadline posted to the lane.
    """

    __slots__ = ("fn", "last", "popped", "args")

    def __init__(self, fn: Callable[[Any], None]):
        super().__init__()
        self.fn = fn
        self.last = 0.0
        self.popped = 0

    def _new_ring(self) -> None:
        super()._new_ring()
        self.args: list = [None] * _LANE_SLOTS

    def _open_gap(self, at: int, width: int) -> None:
        super()._open_gap(at, width)
        self.args[at:at] = [None] * width

    def cancel(self, pos: int) -> None:
        """Keep the call at ``pos`` from firing, in O(1) (idempotent).

        A no-op once the call has been consumed — including from inside
        its own callback.  The row stays queued and is consumed, counted
        and skipped at its deadline, as a cancelled :class:`Timer` is.
        """
        k = pos - self.popped
        if k >= self.size:
            raise SimulationError(f"no call at position {pos!r}")
        if k >= 0:
            self.args[(self.head + k) % self.capacity] = None


class Simulation:
    """A discrete-event loop with deterministic tie-breaking.

    Usage::

        sim = Simulation(seed=7)
        sim.schedule(0.5, print, "fires at t=0.5")
        sim.run(until=10.0)
    """

    __slots__ = ("_now", "_seq", "_heap", "_lanes", "_made_lanes",
                 "_events_processed", "_depth", "_max_queue", "rng")

    def __init__(self, seed: int = 0):
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise SimulationError(f"seed must be an int, got {seed!r}")
        self._now = 0.0
        self._seq = 0
        # Entries are (deadline, seq, fn, args) for ``post`` and
        # (deadline, seq, lane, None) for a lane's head.  ``seq`` is
        # unique, so tuple comparison never reaches the non-comparable
        # tail.
        self._heap: list = []
        self._lanes: dict = {}       # delay -> _TimerLane, non-empty only
        # Every DispatchLane and CallLane made, empty or not.
        self._made_lanes: list = []
        self._events_processed = 0
        # Queue depth is tracked incrementally (push +1 / consume -1)
        # so the hot post() path never takes a len() call.
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
        lanes = [*self._lanes.values(), *self._made_lanes]
        # The heap holds one entry per non-empty lane, its head, counted
        # here with the lane's other pairs.
        return len(self._heap) + sum(lane.size - 1 for lane in lanes
                                     if lane.size)

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
        finite and non-negative; zero-delay events run after all events
        already scheduled for the current instant (FIFO within a
        timestamp).
        """
        try:
            if delay.__class__ is bool or not 0.0 <= delay < _INF:
                raise _bad_delay(delay)
        except TypeError:
            raise _bad_delay(delay) from None
        seq = self._seq
        self._seq = seq + 1
        deadline = self._now + delay
        lane = self._lanes.get(delay)
        if lane is None:
            lane = self._lanes[delay] = _TimerLane(delay)
            heappush(self._heap, (deadline, seq, lane, None))
        size = lane.size
        if size == lane.capacity:
            lane._grow()
        i = (lane.head + size) % lane.capacity
        lane.deadlines[i] = deadline
        lane.seqs[i] = seq
        lane.size = size + 1
        timer = lane.live[seq] = Timer(deadline, fn, args, lane, seq)
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
        # A non-number delay fails the comparison itself; the ``try`` is
        # free on the success path.  A bool is an int, so it is caught
        # by its class.
        try:
            if delay.__class__ is bool or not 0.0 <= delay < _INF:
                raise _bad_delay(delay)
        except TypeError:
            raise _bad_delay(delay) from None
        heappush(self._heap, (self._now + delay, self._seq, fn, args))
        self._seq += 1
        depth = self._depth + 1
        self._depth = depth
        if depth > self._max_queue:
            self._max_queue = depth

    def dispatch_lane(self, fn: Callable[[Any, Any, Any], None]
                      ) -> DispatchLane:
        """A new, empty :class:`DispatchLane` whose events call ``fn``."""
        lane = DispatchLane(fn)
        self._made_lanes.append(lane)
        return lane

    def post_lane(self, lane: DispatchLane, delay: float,
                  a: Any, b: Any, c: Any) -> None:
        """:meth:`post` ``lane.fn(a, b, c)``, queued in ``lane``.

        The same ordering as :meth:`post`.  Meant for a caller whose
        deadlines do not decrease, such as a serial stage's completion
        times: a call posted while an earlier one of the lane is still
        pending waits in the lane's columns, with no heap entry of its
        own.  A call with nothing pending ahead of it, or one earlier
        than the lane's latest deadline, becomes a plain heap entry, so
        a lone call costs what :meth:`post` costs and the order stays
        exact for any caller.
        """
        try:
            if delay.__class__ is bool or not 0.0 <= delay < _INF:
                raise _bad_delay(delay)
        except TypeError:
            raise _bad_delay(delay) from None
        now = self._now
        deadline = now + delay
        seq = self._seq
        self._seq = seq + 1
        last = lane.last
        if last <= now or deadline < last:
            heappush(self._heap, (deadline, seq, lane.fn, (a, b, c)))
            if deadline > last:
                lane.last = deadline
        else:
            size = lane.size
            if not size:
                heappush(self._heap, (deadline, seq, lane, None))
            elif size == lane.capacity:
                lane._grow()
            i = (lane.head + size) % lane.capacity
            lane.deadlines[i] = deadline
            lane.seqs[i] = seq
            lane.args0[i] = a
            lane.args1[i] = b
            lane.args2[i] = c
            lane.size = size + 1
            lane.last = deadline
        depth = self._depth + 1
        self._depth = depth
        if depth > self._max_queue:
            self._max_queue = depth

    def call_lane(self, fn: Callable[[Any], None]) -> CallLane:
        """A new, empty :class:`CallLane` whose events call ``fn``."""
        lane = CallLane(fn)
        self._made_lanes.append(lane)
        return lane

    def post_call(self, lane: CallLane, delay: float, arg: Any) -> int:
        """Queue ``lane.fn(arg)`` to run ``delay`` seconds from now.

        The same ordering as :meth:`schedule`; returns the call's
        position in ``lane``, which :meth:`CallLane.cancel` takes.  The
        call waits in the lane's columns, with no heap entry of its own
        unless it is the lane's head.  ``arg`` must not be None (a
        cleared slot holds None), and the deadline must not be earlier
        than the lane's latest one: either raises
        :class:`SimulationError`.
        """
        try:
            if delay.__class__ is bool or not 0.0 <= delay < _INF:
                raise _bad_delay(delay)
        except TypeError:
            raise _bad_delay(delay) from None
        deadline = self._now + delay
        if deadline < lane.last:
            raise SimulationError(
                f"call lane deadline {deadline} precedes the lane's "
                f"latest, {lane.last}")
        if arg is None:
            raise SimulationError("a call lane's argument cannot be None")
        seq = self._seq
        self._seq = seq + 1
        size = lane.size
        if not size:
            heappush(self._heap, (deadline, seq, lane, None))
        elif size == lane.capacity:
            lane._grow()
        i = (lane.head + size) % lane.capacity
        lane.deadlines[i] = deadline
        lane.seqs[i] = seq
        lane.args[i] = arg
        lane.size = size + 1
        lane.last = deadline
        depth = self._depth + 1
        self._depth = depth
        if depth > self._max_queue:
            self._max_queue = depth
        return lane.popped + size

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Drain the event queue.

        ``until`` stops the clock at that virtual time (events scheduled
        later stay queued and ``now`` is advanced to ``until``); like a
        negative delay, an ``until`` before ``now`` — or NaN, a bool or
        a non-number — is rejected.  ``max_events`` bounds the number of
        fired events, guarding tests against accidental infinite message
        loops; ``0`` fires nothing and leaves the clock where it is.
        """
        if until is not None:
            try:
                valid = not isinstance(until, bool) and until >= self._now
            except TypeError:
                valid = False
            if not valid:
                raise SimulationError(
                    f"cannot run until {until!r}: the clock is at "
                    f"{self._now}")
        if max_events is not None:
            if (not isinstance(max_events, int)
                    or isinstance(max_events, bool) or max_events < 0):
                raise SimulationError(
                    f"max_events must be a non-negative int: {max_events!r}")
            if max_events == 0:
                return
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
        (cancelled timers and calls are consumed but not counted)."""
        heap = self._heap
        dispatch_lane = DispatchLane
        call_lane = CallLane
        lane_slots = _LANE_SLOTS
        fired = 0
        # One float compare per event instead of a None test plus a
        # compare; +inf never stops the clock.
        until_f = _INF if until is None else until
        # An explicit emptiness test: ``while heap:`` read 3-16 % slower
        # on the fanout workload in seven batches of pairs, at identical
        # calls (EXPERIMENTS.md, "The zero-delay lane, replaced with
        # nothing").
        while True:
            if not heap:
                break
            if heap[0][0] > until_f:
                self._now = until
                return fired
            deadline, seq, fn, args = heappop(heap)
            self._now = deadline
            self._depth -= 1
            self._events_processed += 1
            if args is not None:
                fn(*args)
            else:
                # A lane's head: queue the lane's next head, then fire.
                lane = fn
                i = lane.head
                size = lane.size - 1
                lane.size = size
                if size:
                    head = lane.head = (i + 1) % lane.capacity
                    heappush(heap, (lane.deadlines[head], lane.seqs[head],
                                    lane, None))
                if lane.__class__ is dispatch_lane:
                    args0, args1, args2 = lane.args0, lane.args1, lane.args2
                    a, b, c = args0[i], args1[i], args2[i]
                    if size or lane.capacity == lane_slots:
                        args0[i] = args1[i] = args2[i] = None
                    else:
                        # Drained after a burst: give back the grown
                        # ring, keeping ``_LANE_SLOTS`` for the next one.
                        lane._new_ring()
                    lane.fn(a, b, c)
                elif lane.__class__ is call_lane:
                    lane.popped += 1
                    slots = lane.args
                    arg = slots[i]
                    if arg is None:
                        continue        # cancelled: consumed, not fired
                    slots[i] = None
                    lane.fn(arg)
                else:
                    if not size:
                        del self._lanes[lane.delay]
                    timer = lane.live.pop(seq, None)
                    if timer is None:
                        continue        # cancelled: consumed, not fired
                    timer._lane = None
                    timer._fn(*timer._args)
            fired += 1
            if max_events is not None and fired >= max_events:
                return fired
        if until is not None:
            self._now = max(self._now, until)
        return fired

    def step(self) -> bool:
        """Fire exactly one queued event.  Returns ``False`` if idle."""
        return self._run_loop(None, 1) > 0
