"""Deterministic discrete-event simulator.

Every moving part of the reproduction — replicas, clients, network links,
timers — runs on one :class:`Simulation` instance.  The simulator owns
virtual time; nothing in the library reads the wall clock.  Events at
equal timestamps fire in scheduling order, so a run is a pure function of
its configuration and seed, which the safety and determinism tests rely
on.

Two queueing paths share one sequence counter, so mixing them cannot
reorder events: the order is the (deadline, seq) pair, whichever path
created the event.

* :meth:`Simulation.post` puts ``fn(*args)`` on **one binary heap** —
  message deliveries, deferred sends, one-off events: anything that is
  never cancelled.
* :meth:`Simulation.post_lane` appends a row to a :class:`Lane`, made
  by :meth:`Simulation.lane`: a FIFO of ``fn(*row)`` calls whose
  deadlines do not decrease — a replica's certify thread, one sender's
  cross-region deliveries to one region, a GeoBFT replica's remote
  view-change timeouts for one watched cluster.  Rows sit in a ring of
  preallocated columns (``array`` deadlines and seqs, and ``width``
  argument columns end to end in one flat ``args`` list), and only the
  lane's head is on the heap; when the head is consumed, the lane
  pushes its next head before the event fires, so the heap's minimum
  is always the global minimum.  ``post_lane`` returns the row's
  position, which :meth:`Lane.cancel` takes: a cancelled row's slots
  hold None, and the row is consumed, counted and skipped at its
  deadline.  A row earlier than the lane's latest deadline is a plain
  heap entry instead, and ``post_lane`` returns -1.  A ring that grew
  goes back to fresh ``_LANE_SLOTS`` columns when its last row pops, so
  a burst's high-water capacity is not kept.

:meth:`Simulation.schedule` wraps ``post_lane`` and returns a cancellable
:class:`Timer`, for the protocol timers.  The timer is the one slot of a
row in the lane of its delay: a deadline is ``now + delay`` and ``now``
never decreases, so that lane is in order by construction.  Almost every
timer the protocols arm is cancelled long before its multi-second
deadline; a cancelled timer stays resident only as its row, a 16-byte
``(deadline, seq)`` pair and an 8-byte slot holding None.
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


def _bad_row(lane: "Lane", row: tuple) -> SimulationError:
    return SimulationError(
        f"a lane row is {lane.width} arguments, the first not None: "
        f"{row!r}")


class Timer:
    """Handle to a scheduled event, allowing cancellation.

    Replicas and clients use timers for failure detection (PBFT
    progress and new-view timers, client retries).  Cancelling is O(1)
    and releases the callback and its arguments at once; the event
    itself still counts as queued and is skipped as a no-op at its
    deadline.
    """

    __slots__ = ("_fn", "_args", "_cancelled", "_lane", "_pos",
                 "__weakref__")
    _pos: int       # the row's position in ``_lane``

    def __init__(self, fn: Callable[..., None], args: tuple, lane: "Lane"):
        # Both are dropped by cancel().
        self._fn: Optional[Callable[..., None]] = fn
        self._args: Optional[tuple] = args
        self._cancelled = False
        # The lane holding this timer's row at ``_pos`` (set by
        # Simulation.schedule); None once the timer has fired or been
        # cancelled.
        self._lane: Optional[Lane] = lane

    def _fire(self) -> None:
        """The call of a timer lane's row."""
        self._lane = None
        # A cancelled timer's row is never fired, so neither is None.
        self._fn(*self._args)  # type: ignore

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
        # Lane.cancel, inlined: the row is pending while ``_lane`` is
        # set, and a timer lane's row is its one slot.
        k = self._pos - lane.popped
        lane.args[(lane.head + k) % lane.capacity] = None

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


class Lane:
    """Queued ``fn(*row)`` calls whose deadlines do not decrease, in
    (deadline, seq) order; made by :meth:`Simulation.lane`.

    ``args`` is ``width`` columns of ``capacity`` slots end to end, so
    the row at ring index ``i`` is ``(deadlines[i], seqs[i])`` with its
    arguments at ``args[i::capacity]`` — an extended slice, whose
    assignment refuses a row of another length.  The row at ``head`` is
    the one whose entry ``(deadline, seq, lane, None)`` is on the heap;
    the ``size - 1`` rows after it (modulo ``capacity``) are still to
    come.  Columns are written and read by index, never appended to.  A
    fired or cancelled row's slots hold None.

    ``popped`` counts the rows consumed so far, so the row at position
    ``pos`` (the value :meth:`Simulation.post_lane` returned for it)
    sits at ring index ``(head + pos - popped) % capacity`` until it is
    consumed — through :meth:`_grow` too, whose gap opens just before
    the head.  ``last`` is the latest deadline of any row the ring took:
    no earlier row may join it.
    """

    __slots__ = ("fn", "width", "last", "popped", "blank", "deadlines",
                 "seqs", "args", "head", "size", "capacity")

    def __init__(self, fn: Callable[..., None], width: int):
        self.fn = fn
        self.width = width
        self.last = 0.0
        self.popped = 0
        self.blank = [None] * width     # what a consumed row's slots hold
        self.size = 0
        self._new_ring()

    def _new_ring(self) -> None:
        """Fresh, empty ``_LANE_SLOTS`` columns."""
        self.deadlines = array("d", _ZERO_SLOTS)
        self.seqs = array("q", _ZERO_SLOTS)
        self.args: list = [None] * (_LANE_SLOTS * self.width)
        self.head = 0
        self.capacity = _LANE_SLOTS

    def _grow(self) -> None:
        """Widen the full ring by about an eighth, in place.  The gap
        opens just before the head, so the rows from the head on move
        up and the ring's order is kept (an eighth, not a doubling: a
        timer lane holds ~18k rows at the end of a 4x4 run)."""
        head, capacity = self.head, self.capacity
        extra = (capacity >> 3) + _LANE_SLOTS
        gap = bytes(8 * extra)
        self.deadlines[head:head] = array("d", gap)
        self.seqs[head:head] = array("q", gap)
        # The last column first, so the earlier columns' offsets hold.
        for at in range(head + (self.width - 1) * capacity, -1, -capacity):
            self.args[at:at] = [None] * extra
        self.head = head + extra
        self.capacity = capacity + extra

    def cancel(self, pos: int) -> None:
        """Keep the row at ``pos`` from firing, in O(1) (idempotent).

        A no-op once the row has been consumed — including from inside
        its own call.  The row stays queued and is consumed, counted and
        skipped at its deadline.  A position that :meth:`Simulation.post_lane`
        never returned (a bool, a negative one — the heap fallback's -1
        among them — or one not yet issued) raises
        :class:`SimulationError`.
        """
        k = pos - self.popped if pos.__class__ is int and pos >= 0 else None
        if k is None or k >= self.size:
            raise SimulationError(f"no row at position {pos!r}")
        if k >= 0:
            capacity = self.capacity
            self.args[(self.head + k) % capacity::capacity] = self.blank


class Simulation:
    """A discrete-event loop with deterministic tie-breaking.

    Usage::

        sim = Simulation(seed=7)
        sim.schedule(0.5, print, "fires at t=0.5")
        sim.run(until=10.0)
    """

    __slots__ = ("_now", "_seq", "_heap", "_lanes", "_timer_lanes",
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
        self._lanes: list = []          # every Lane made, empty or not
        self._timer_lanes: dict = {}    # delay -> its timers' Lane
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
        # The heap holds one entry per non-empty lane, its head, counted
        # here with the lane's other rows.
        return len(self._heap) + sum(lane.size - 1 for lane in self._lanes
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
            lane = self._timer_lanes.get(delay)
            if lane is None:
                if delay.__class__ is bool or not 0.0 <= delay < _INF:
                    raise _bad_delay(delay)
                lane = self._timer_lanes[delay] = self.lane(Timer._fire, 1)
        except TypeError:
            raise _bad_delay(delay) from None
        timer = Timer(fn, args, lane)
        timer._pos = self.post_lane(lane, delay, timer)
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

    def lane(self, fn: Callable[..., None], width: int) -> Lane:
        """A new, empty :class:`Lane` whose rows of ``width`` arguments
        call ``fn``."""
        if not callable(fn):
            raise SimulationError(f"a lane's fn must be callable: {fn!r}")
        if width.__class__ is not int or width < 1:
            raise SimulationError(
                f"a lane's width must be an int >= 1: {width!r}")
        lane = Lane(fn, width)
        self._lanes.append(lane)
        return lane

    def post_lane(self, lane: Lane, delay: float, *row: Any) -> int:
        """Queue ``lane.fn(*row)`` to run ``delay`` seconds from now.

        The same ordering as :meth:`post`.  ``row`` holds ``lane.width``
        arguments, the first not None (a cancelled row's slots hold
        None); otherwise :class:`SimulationError` is raised.  Returns the
        row's position in ``lane``, which :meth:`Lane.cancel` takes.  The
        row waits in the lane's columns, with no heap entry of its own
        unless it is the lane's head.  A row earlier than the lane's
        latest deadline is a plain heap entry instead, which cannot be
        cancelled: the return value is then -1.
        """
        try:
            if delay.__class__ is bool or not 0.0 <= delay < _INF:
                raise _bad_delay(delay)
        except TypeError:
            raise _bad_delay(delay) from None
        if not row or row[0] is None:
            raise _bad_row(lane, row)
        deadline = self._now + delay
        seq = self._seq
        if deadline < lane.last:
            if len(row) != lane.width:
                raise _bad_row(lane, row)
            heappush(self._heap, (deadline, seq, lane.fn, row))
            pos = -1
        else:
            size = lane.size
            if size == lane.capacity:
                lane._grow()
            capacity = lane.capacity
            i = (lane.head + size) % capacity
            # The first write: a row of another length raises here,
            # before anything is queued.
            try:
                lane.args[i::capacity] = row
            except ValueError:
                raise _bad_row(lane, row) from None
            lane.deadlines[i] = deadline
            lane.seqs[i] = seq
            if not size:
                heappush(self._heap, (deadline, seq, lane, None))
            lane.size = size + 1
            lane.last = deadline
            pos = lane.popped + size
        self._seq = seq + 1
        depth = self._depth + 1
        self._depth = depth
        if depth > self._max_queue:
            self._max_queue = depth
        return pos

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
        (cancelled rows are consumed but not counted)."""
        heap = self._heap
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
            deadline, _seq, fn, args = heappop(heap)
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
                lane.popped += 1
                capacity = lane.capacity
                if size:
                    head = lane.head = (i + 1) % capacity
                    heappush(heap, (lane.deadlines[head], lane.seqs[head],
                                    lane, None))
                slots = lane.args
                row = slots[i::capacity]
                if size or capacity == lane_slots:
                    slots[i::capacity] = lane.blank
                else:
                    # Drained after a burst: give back the grown ring,
                    # keeping ``_LANE_SLOTS`` for the next one.
                    lane._new_ring()
                if row[0] is None:
                    continue            # cancelled: consumed, not fired
                lane.fn(*row)
            fired += 1
            if max_events is not None and fired >= max_events:
                return fired
        if until is not None:
            self._now = max(self._now, until)
        return fired

    def step(self) -> bool:
        """Fire exactly one queued event.  Returns ``False`` if idle."""
        return self._run_loop(None, 1) > 0
