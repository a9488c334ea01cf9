"""Tests for the discrete-event simulator."""

import gc
import math
import weakref
from bisect import insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import SimulationError
from repro.net.simulator import _LANE_SLOTS, Simulation


class TestScheduling:
    def test_starts_at_zero(self):
        assert Simulation().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulation()
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]

    def test_equal_times_fire_in_scheduling_order(self):
        sim = Simulation()
        fired = []
        for i in range(10):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(10))

    def test_now_advances_to_event_time(self):
        sim = Simulation()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]

    def test_nested_scheduling(self):
        sim = Simulation()
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, fired.append, "inner")

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == ["outer", "inner"]
        assert sim.now == 2.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulation().schedule(-0.1, lambda: None)

    @pytest.mark.parametrize("method", ["schedule", "post"])
    @pytest.mark.parametrize("delay", [math.nan, math.inf, -math.inf])
    def test_non_finite_delay_rejected(self, method, delay):
        """A NaN key would silently break the heap's order; an infinite
        one would never fire.  Neither is queued."""
        sim = Simulation()
        with pytest.raises(SimulationError):
            getattr(sim, method)(delay, lambda: None)
        assert sim.pending_events == 0 and sim.max_queue_depth == 0

    @pytest.mark.parametrize("method", ["schedule", "post"])
    @pytest.mark.parametrize("delay", ["x", None, b"1", (1.0,)])
    def test_non_number_delay_is_a_simulation_error(self, method, delay):
        """A delay that cannot be compared with a number is rejected
        like a negative one, not with a bare ``TypeError``."""
        sim = Simulation()
        with pytest.raises(SimulationError, match="delay must be"):
            getattr(sim, method)(delay, lambda: None)
        assert sim.pending_events == 0 and sim.max_queue_depth == 0

    @pytest.mark.parametrize("method", ["schedule", "post", "post_lane"])
    @pytest.mark.parametrize("delay", [True, False])
    def test_bool_delay_is_a_simulation_error(self, method, delay):
        """``post(True, fn)`` used to queue the event at ``now + 1``."""
        sim = Simulation()
        with pytest.raises(SimulationError, match="delay must be"):
            if method == "post_lane":
                sim.post_lane(sim.lane(print, 3), delay, 1, 2, 3)
            else:
                getattr(sim, method)(delay, lambda: None)
        assert sim.pending_events == 0 and sim.max_queue_depth == 0

    @pytest.mark.parametrize("delay", [-0.001, math.nan, math.inf, "x",
                                       None])
    def test_bad_lane_delay_rejected(self, delay):
        sim = Simulation()
        lane = sim.lane(print, 3)
        with pytest.raises(SimulationError, match="delay must be"):
            sim.post_lane(lane, delay, 1, 2, 3)
        assert sim.pending_events == 0 and lane.size == 0

    def test_zero_delay_runs_after_current_instant_fifo(self):
        sim = Simulation()
        fired = []
        sim.schedule(0.0, fired.append, 1)
        sim.schedule(0.0, fired.append, 2)
        sim.run()
        assert fired == [1, 2]


class TestRunControl:
    def test_run_until_stops_clock(self):
        sim = Simulation()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0
        assert sim.pending_events == 1

    def test_run_until_resumable(self):
        sim = Simulation()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        sim.run(until=10.0)
        assert fired == ["a", "b"]

    def test_max_events_bounds_work(self):
        sim = Simulation()

        def loop():
            sim.schedule(0.001, loop)

        sim.schedule(0.0, loop)
        sim.run(max_events=100)
        assert sim.events_processed >= 100

    def test_max_events_zero_fires_nothing(self):
        sim = Simulation()
        fired = []
        for delay in (0.1, 0.2, 0.3):
            sim.post(delay, fired.append, delay)
        sim.run(max_events=0)
        sim.run(until=5.0, max_events=0)
        assert fired == [] and sim.now == 0.0
        assert sim.events_processed == 0 and sim.pending_events == 3
        sim.run(max_events=2)
        assert fired == [0.1, 0.2] and sim.now == 0.2

    @pytest.mark.parametrize("bad", [-1, -5, True, False, 1.0, 2.5, "3"])
    def test_max_events_must_be_a_non_negative_int(self, bad):
        sim = Simulation()
        fired = []
        for delay in (0.1, 0.2, 0.3):
            sim.post(delay, fired.append, delay)
        with pytest.raises(SimulationError):
            sim.run(max_events=bad)
        assert fired == [] and sim.now == 0.0
        assert sim.pending_events == 3

    def test_step_fires_one_event(self):
        sim = Simulation()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.step()
        assert fired == ["a"]

    def test_step_on_idle_returns_false(self):
        assert not Simulation().step()

    def test_run_until_before_now_rejected(self):
        """The clock never runs backwards: a later event must not fire
        before an instant the clock already reached."""
        sim = Simulation()
        sim.post(2.0, lambda: None)
        sim.run(until=1.0)
        with pytest.raises(SimulationError):
            sim.run(until=0.5)
        assert sim.now == 1.0
        seen = []
        sim.post(0.1, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.1]

    def test_run_until_nan_rejected(self):
        """Every comparison with NaN is false, so ``until=nan`` would
        stop nothing and fire every queued event."""
        sim = Simulation()
        fired = []
        sim.post(1.0, fired.append, "a")
        with pytest.raises(SimulationError):
            sim.run(until=math.nan)
        assert fired == [] and sim.now == 0.0 and sim.pending_events == 1

    @pytest.mark.parametrize("until", [True, False, "x", b"1", [2.0]])
    def test_run_until_must_be_a_number(self, until):
        """``until=True`` used to pass (``True >= 0.0``) and leave the
        clock holding a bool; a string raised a bare ``TypeError``."""
        sim = Simulation()
        fired = []
        sim.post(1.0, fired.append, "a")
        with pytest.raises(SimulationError, match="cannot run until"):
            sim.run(until=until)
        assert fired == [] and sim.now == 0.0 and sim.pending_events == 1

    def test_run_until_advances_time_even_when_idle(self):
        sim = Simulation()
        sim.run(until=7.0)
        assert sim.now == 7.0


class TestTimers:
    def test_cancelled_timer_does_not_fire(self):
        sim = Simulation()
        fired = []
        timer = sim.schedule(1.0, fired.append, "x")
        timer.cancel()
        sim.run()
        assert fired == []
        assert timer.cancelled
        assert not timer.fired

    def test_timer_fired_flag(self):
        sim = Simulation()
        timer = sim.schedule(1.0, lambda: None)
        sim.run()
        assert timer.fired

    def test_cancel_after_fire_is_noop(self):
        sim = Simulation()
        timer = sim.schedule(1.0, lambda: None)
        sim.run()
        timer.cancel()
        assert timer.fired
        assert not timer.cancelled

    def test_self_cancel_inside_callback_counts_as_fired(self):
        """A timer that cancels itself while firing (PBFT's progress
        timeout does, via ``start_view_change``) has fired: ``max_events``
        counts it."""
        sim = Simulation()
        timers = []
        for delay in (1.0, 2.0, 3.0):
            timers.append(sim.schedule(delay,
                                       lambda i=len(timers): timers[i].cancel()))
        sim.run(max_events=2)
        assert [t.fired for t in timers] == [True, True, False]
        assert not any(t.cancelled for t in timers)
        assert sim.events_processed == 2

    def test_cancel_releases_the_callback_arguments(self):
        """After ``cancel()`` nothing reachable from the simulation — or
        from the handle — refers to the timer's arguments, wherever the
        timer was queued."""
        class Payload:
            pass

        sim = Simulation()
        sim.post(0.5, lambda: None)
        sim.run(until=0.1)
        refs, handles = [], []
        for delay in (0.0, 0.4, 5.0):
            payload = Payload()
            refs.append(weakref.ref(payload))
            handles.append(sim.schedule(delay, lambda p: None, payload))
        del payload
        for timer in handles:
            timer.cancel()
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]
        assert sim.pending_events == 4

    def test_cancelled_timer_leaves_its_lane(self):
        """No cancelled timer is reachable from the simulation; its row
        stays in the lane of its delay, its slot holding None, still
        counted and skipped at its deadline."""
        sim = Simulation()
        fired = []
        keep = sim.schedule(5.0, fired.append, "keep")
        doomed = [sim.schedule(2.0 + i % 3, fired.append, i)
                  for i in range(20)]
        refs = [weakref.ref(timer) for timer in doomed]
        for timer in doomed:
            timer.cancel()
        del doomed, timer
        gc.collect()
        assert [ref() for ref in refs] == [None] * 20
        lanes = sim._timer_lanes
        assert sorted(lanes) == [2.0, 3.0, 4.0, 5.0]
        assert [timer for lane in lanes.values()
                for timer in lane.args if timer is not None] == [keep]
        assert sum(lane.size for lane in lanes.values()) == 21
        assert sim.pending_events == 21
        sim.run()
        assert sim.events_processed == 21 and sim.now == 5.0
        assert fired == ["keep"] and keep.fired
        assert not any(lane.size for lane in lanes.values())

    def test_step_skips_cancelled_events(self):
        sim = Simulation()
        fired = []
        timer = sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        timer.cancel()
        assert sim.step()
        assert fired == ["b"]


class TestDeterminism:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), max_size=30))
    def test_identical_schedules_identical_orders(self, delays):
        def trace(delays):
            sim = Simulation(seed=5)
            fired = []
            for i, d in enumerate(delays):
                sim.schedule(d, fired.append, i)
            sim.run()
            return fired

        assert trace(delays) == trace(delays)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=30))
    def test_fire_order_respects_timestamps(self, delays):
        sim = Simulation()
        fired = []
        for i, d in enumerate(delays):
            sim.schedule(d, lambda d=d: fired.append(d))
        sim.run()
        assert fired == sorted(fired)

    def test_rng_is_seeded(self):
        assert Simulation(seed=7).rng.random() == Simulation(seed=7).rng.random()

    @pytest.mark.parametrize("seed", [True, False, 1.5, "7", None])
    def test_seed_must_be_an_int(self, seed):
        """``Simulation(seed=True)`` used to run as seed 1, and
        ``seed=1.5`` as a hash of the float."""
        with pytest.raises(SimulationError, match="seed"):
            Simulation(seed=seed)


class TestQueueDepthTelemetry:
    def test_max_queue_depth_high_water_mark(self):
        sim = Simulation()
        assert sim.max_queue_depth == 0
        for i in range(5):
            sim.post(1.0 + i, lambda: None)
        sim.schedule(6.0, lambda: None)
        sim.post(0.0, lambda: None)
        assert sim.max_queue_depth == 7
        sim.run()
        # Draining does not lower the high-water mark…
        assert sim.pending_events == 0
        assert sim.max_queue_depth == 7
        # …and later pushes only raise it past the old peak.
        sim.post(1.0, lambda: None)
        assert sim.max_queue_depth == 7

    def test_max_queue_depth_tracks_nested_posts(self):
        sim = Simulation()

        def fan_out():
            for _ in range(9):
                sim.post(0.5, lambda: None)

        sim.post(1.0, fan_out)
        assert sim.max_queue_depth == 1
        sim.run()
        # One event in flight plus nine children queued at once — the
        # consumed parent no longer counts toward the depth.
        assert sim.max_queue_depth == 9

    def test_step_decrements_depth(self):
        sim = Simulation()
        sim.post(1.0, lambda: None)
        sim.post(2.0, lambda: None)
        assert sim.max_queue_depth == 2
        sim.step()
        sim.post(3.0, lambda: None)
        # 2 pending again, never 3 at once.
        assert sim.max_queue_depth == 2


class TestGroupedEvents:
    def test_count_extra_events_credits_batched_events(self):
        """One event crediting count_extra_events reproduces the
        events_processed count of the unbatched schedule exactly."""
        plain = Simulation()
        for _ in range(4):
            plain.post(1.0, lambda: None)
        plain.run()

        batched = Simulation()
        batched.post(1.0, batched.count_extra_events, 3)
        batched.run()

        assert plain.events_processed == batched.events_processed == 4


_WIDTHS = (1, 3)


def _each_width(test):
    """Run a lane test once per lane width, 1 and 3, under its one id."""
    def run(self):
        for width in _WIDTHS:
            test(self, width)
    run.__doc__ = test.__doc__
    return run


def _row(width, value):
    """A row of ``width`` slots led by ``value``; the others name it."""
    return (value,) + tuple((value, k) for k in range(1, width))


def _recording_lane(sim, width, fired):
    """A lane whose call checks that its row arrived whole and records
    the row's first slot."""
    def call(*row):
        assert row == _row(width, row[0])
        fired.append(row[0])

    return sim.lane(call, width)


class TestDispatchLanes:
    """Lane rows that are never cancelled: a serial stage's completions,
    one sender's deliveries to one region."""

    @_each_width
    def test_lane_and_heap_share_one_order(self, width):
        """Lane rows and plain posts fire in (deadline, seq) order, a
        lane row behind an equal-deadline post minted before it."""
        sim = Simulation()
        fired = []
        lane = _recording_lane(sim, width, fired)
        sim.post_lane(lane, 1.0, *_row(width, "a"))
        sim.post(1.0, fired.append, "post")
        sim.post_lane(lane, 1.0, *_row(width, "b"))
        sim.post_lane(lane, 2.0, *_row(width, "c"))
        sim.post(1.5, fired.append, "mid")
        # The three rows wait in the lane, whose head alone is on the
        # heap.
        assert lane.size == 3 and len(sim._heap) == 3
        assert sim.pending_events == 5
        sim.run()
        assert fired == ["a", "post", "b", "mid", "c"]
        assert lane.size == 0 and sim.pending_events == 0
        assert sim.events_processed == 5

    @_each_width
    def test_out_of_order_post_is_a_heap_entry(self, width):
        """A post earlier than the lane's latest deadline skips the lane,
        answers position -1, and still fires in order."""
        sim = Simulation()
        fired = []
        lane = _recording_lane(sim, width, fired)
        assert sim.post_lane(lane, 3.0, *_row(width, "first")) == 0
        assert sim.post_lane(lane, 3.0, *_row(width, "late")) == 1
        assert sim.post_lane(lane, 1.0, *_row(width, "early")) == -1
        assert lane.size == 2 and len(sim._heap) == 2
        assert sim.post_lane(lane, 3.0, *_row(width, "tie")) == 2
        assert lane.size == 3 and len(sim._heap) == 2
        sim.run()
        assert fired == ["early", "first", "late", "tie"]

    @_each_width
    def test_lone_row_is_a_lane_row(self, width):
        """A row with nothing of its lane pending ahead of it is the
        lane's head, its one heap entry; one posted while it waits joins
        the lane behind it."""
        sim = Simulation()
        fired = []
        lane = _recording_lane(sim, width, fired)
        assert sim.post_lane(lane, 1.0, *_row(width, "a")) == 0
        assert lane.size == 1 and len(sim._heap) == 1
        sim.run()
        assert sim.post_lane(lane, 1.0, *_row(width, "b")) == 1
        assert sim.post_lane(lane, 1.5, *_row(width, "c")) == 2
        assert lane.size == 2 and len(sim._heap) == 1
        sim.run()
        assert fired == ["a", "b", "c"] and sim.now == 2.5

    @_each_width
    def test_lane_grows_past_its_ring(self, width):
        """Posts beyond the initial capacity, interleaved with firing so
        the ring wraps before it grows, keep their order."""
        sim = Simulation()
        fired = []
        lane = _recording_lane(sim, width, fired)
        for i in range(5):
            sim.post_lane(lane, 0.1 + 0.1 * i, *_row(width, i))
        sim.run(until=0.35)
        for i in range(5, 40):
            sim.post_lane(lane, 0.1 + 0.1 * i - sim.now, *_row(width, i))
        assert lane.size == 37 and lane.capacity == 38
        assert len(lane.args) == 38 * width
        assert sim.pending_events == 37 and sim.max_queue_depth == 37
        sim.run()
        assert fired == list(range(40))

    @_each_width
    def test_fired_call_releases_its_arguments(self, width):
        class Payload:
            pass

        sim = Simulation()
        lane = sim.lane(lambda *row: None, width)
        payloads = [Payload() for _ in range(width)]
        refs = [weakref.ref(payload) for payload in payloads]
        sim.post_lane(lane, 1.0, *_row(width, "first"))
        sim.post_lane(lane, 1.0, *payloads)
        assert lane.size == 2
        del payloads
        sim.run()
        gc.collect()
        assert [ref() for ref in refs] == [None] * width

    @_each_width
    def test_a_call_may_post_into_its_own_full_lane(self, width):
        """The firing row is read before its call runs, so a post from
        inside the call may reuse that row's slots."""
        sim = Simulation()
        fired = []

        def call(*row):
            assert row == _row(width, row[0])
            fired.append(row[0])
            if row[0] < 8:
                sim.post_lane(lane, 1.0, *_row(width, row[0] + 8))

        lane = sim.lane(call, width)
        # Rows 0-7 fill the ring, and each posts into the slots it left.
        for i in range(8):
            sim.post_lane(lane, 0.001 * (i + 1), *_row(width, i))
        assert lane.size == lane.capacity == 8
        sim.run()
        assert fired == list(range(16)) and lane.capacity == 8

    @_each_width
    def test_drained_lane_gives_back_its_ring(self, width):
        """A lane that grew past its ring is back at fresh
        ``_LANE_SLOTS`` columns once its last queued row pops, holds
        none of the arguments it was given, and keeps its order when
        refilled past the ring."""
        class Payload:
            def __init__(self, i):
                self.i = i

        sim = Simulation()
        fired = []
        lane = sim.lane(lambda payload, *_rest: fired.append(payload.i),
                        width)
        payloads = [Payload(i) for i in range(20)]
        refs = [weakref.ref(payload) for payload in payloads]
        for i, payload in enumerate(payloads):
            sim.post_lane(lane, 0.1 * (i + 1), payload, *range(width - 1))
        assert lane.size == 20 and lane.capacity > _LANE_SLOTS
        del payloads, payload
        sim.run(until=1.05)
        assert lane.size == 10 and lane.capacity > _LANE_SLOTS
        sim.run()
        gc.collect()
        assert lane.size == 0 and lane.capacity == _LANE_SLOTS
        assert (len(lane.deadlines) == len(lane.seqs) == _LANE_SLOTS
                and len(lane.args) == _LANE_SLOTS * width)
        assert [ref() for ref in refs] == [None] * 20
        for i in range(20, 40):
            sim.post_lane(lane, 0.1 * (i - 19), Payload(i),
                          *range(width - 1))
        assert lane.size == 20 and lane.capacity > _LANE_SLOTS
        sim.run()
        assert fired == list(range(40)) and lane.capacity == _LANE_SLOTS

    @_each_width
    def test_last_call_may_refill_its_drained_lane(self, width):
        """The drained lane's last row is read before the ring is given
        back, and its call may post into the fresh ring."""
        sim = Simulation()
        fired = []

        def call(*row):
            assert row == _row(width, row[0])
            fired.append(row[0])
            if row[0] == 12:
                for j in range(13, 25):
                    sim.post_lane(lane, 0.01 * (j - 12), *_row(width, j))

        lane = sim.lane(call, width)
        for i in range(13):
            sim.post_lane(lane, 0.01 * (i + 1), *_row(width, i))
        assert lane.capacity > _LANE_SLOTS
        sim.run(until=0.13)
        assert fired == list(range(13)) and lane.size == 12
        assert lane.capacity > _LANE_SLOTS      # grown again by the refill
        sim.run()
        assert fired == list(range(25)) and lane.capacity == _LANE_SLOTS


class TestCallLanes:
    """Lane rows that may be cancelled by position: a GeoBFT replica's
    remote view-change timeouts for one watched cluster."""

    @_each_width
    def test_calls_share_one_order_with_posts_and_timers(self, width):
        """Lane rows fire in (deadline, seq) order among posts and
        timers, behind equal-deadline events minted before them."""
        sim = Simulation()
        fired = []
        lane = _recording_lane(sim, width, fired)
        assert sim.post_lane(lane, 1.0, *_row(width, "a")) == 0
        sim.post(1.0, fired.append, "post")
        assert sim.post_lane(lane, 1.0, *_row(width, "b")) == 1
        sim.schedule(1.0, fired.append, "timer")
        assert sim.post_lane(lane, 2.0, *_row(width, "c")) == 2
        # Only the lane's head is on the heap.
        assert lane.size == 3 and len(sim._heap) == 3
        assert sim.pending_events == 5
        sim.run()
        assert fired == ["a", "post", "b", "timer", "c"]
        assert lane.size == 0 and lane.popped == 3
        assert sim.pending_events == 0 and sim.events_processed == 5

    @_each_width
    def test_cancelled_call_is_consumed_and_counted_not_fired(self, width):
        sim = Simulation()
        fired = []
        lane = _recording_lane(sim, width, fired)
        first = sim.post_lane(lane, 1.0, *_row(width, "a"))
        sim.post_lane(lane, 2.0, *_row(width, "b"))
        lane.cancel(first)
        lane.cancel(first)              # a double cancel is a no-op
        assert lane.args[lane.head::lane.capacity] == [None] * width
        assert sim.pending_events == 2 and sim.max_queue_depth == 2
        assert sim.step() and fired == ["b"] and sim.now == 2.0
        assert sim.events_processed == 2

    @_each_width
    def test_max_events_counts_only_fired_calls(self, width):
        sim = Simulation()
        fired = []
        lane = _recording_lane(sim, width, fired)
        positions = [sim.post_lane(lane, 1.0 + i, *_row(width, i))
                     for i in range(4)]
        lane.cancel(positions[1])
        sim.run(max_events=2)
        assert fired == [0, 2] and sim.events_processed == 3

    @_each_width
    def test_cancel_after_firing_is_a_noop(self, width):
        sim = Simulation()
        fired = []
        lane = _recording_lane(sim, width, fired)
        done = sim.post_lane(lane, 1.0, *_row(width, "a"))
        sim.run()
        later = sim.post_lane(lane, 1.0, *_row(width, "b"))
        # ``done`` fired; its old ring slots now hold ``later``.
        lane.cancel(done)
        sim.run()
        assert fired == ["a", "b"] and later == done + 1

    @_each_width
    def test_cancel_from_inside_a_callback(self, width):
        """A row's call may cancel the row itself (a no-op: it has
        fired) or another pending row of its lane."""
        sim = Simulation()
        fired = []

        def call(name, *_rest):
            fired.append(name)
            lane.cancel(positions[name])
            if name == "a":
                lane.cancel(positions["c"])

        lane = sim.lane(call, width)
        positions = {name: sim.post_lane(lane, 1.0, *_row(width, name))
                     for name in "abc"}
        sim.run()
        assert fired == ["a", "b"] and sim.events_processed == 3

    @_each_width
    def test_old_position_after_the_ring_grew_while_wrapped(self, width):
        """The ring wraps, then widens in place; a position minted before
        both still names its own row."""
        sim = Simulation()
        fired = []
        lane = _recording_lane(sim, width, fired)
        positions = [sim.post_lane(lane, 0.1 * (i + 1), *_row(width, i))
                     for i in range(6)]
        sim.run(until=0.35)             # 0, 1 and 2 fire
        positions += [sim.post_lane(lane, 0.1 * (i + 1) - sim.now,
                                    *_row(width, i))
                      for i in range(6, 10)]
        assert lane.head + lane.size > lane.capacity    # wrapped
        positions += [sim.post_lane(lane, 1.1 + 0.1 * i - sim.now,
                                    *_row(width, 10 + i))
                      for i in range(10)]
        assert lane.capacity > 8                        # grew
        for index in (1, 4, 7, 15):
            lane.cancel(positions[index])
        sim.run()
        assert fired == [i for i in range(20) if i not in (4, 7, 15)]
        assert positions == list(range(20))

    @_each_width
    def test_earlier_deadline_falls_back_to_the_heap(self, width):
        """A row earlier than the lane's latest deadline is a plain heap
        entry at position -1, which cannot be cancelled."""
        sim = Simulation()
        fired = []
        lane = _recording_lane(sim, width, fired)
        assert sim.post_lane(lane, 2.0, *_row(width, "a")) == 0
        assert sim.post_lane(lane, 1.0, *_row(width, "b")) == -1
        with pytest.raises(SimulationError):
            lane.cancel(-1)
        assert sim.post_lane(lane, 2.0, *_row(width, "tie")) == 1
        assert lane.size == 2 and sim.pending_events == 3
        sim.run()
        assert fired == ["b", "a", "tie"]

    @_each_width
    def test_none_argument_and_unknown_position_raise(self, width):
        sim = Simulation()
        lane = sim.lane(lambda *row: None, width)
        with pytest.raises(SimulationError):
            sim.post_lane(lane, 1.0, None, *_row(width, "x")[1:])
        position = sim.post_lane(lane, 1.0, *_row(width, "a"))
        with pytest.raises(SimulationError):
            lane.cancel(position + 1)
        assert sim.pending_events == 1

    @_each_width
    def test_fired_call_releases_its_argument(self, width):
        class Payload:
            pass

        sim = Simulation()
        lane = sim.lane(lambda *row: None, width)
        payloads = [Payload(), Payload()]
        refs = [weakref.ref(payload) for payload in payloads]
        sim.post_lane(lane, 1.0, *_row(width, payloads[0]))
        lane.cancel(sim.post_lane(lane, 1.0, *_row(width, payloads[1])))
        del payloads
        sim.run(until=0.5)
        gc.collect()
        assert refs[0]() is not None and refs[1]() is None
        sim.run()
        gc.collect()
        assert refs[0]() is None


class TestLaneContract:
    """Every misuse of the lane API raises ``SimulationError`` at the
    call, before anything is queued or cancelled."""

    @pytest.mark.parametrize("pos", [True, False, -1, -3, 1.0, "0", None])
    def test_cancel_rejects_a_position_post_lane_never_returned(self, pos):
        """``cancel(True)`` used to cancel position 1, and ``cancel(-3)``
        passed silently."""
        sim = Simulation()
        fired = []
        lane = sim.lane(fired.append, 1)
        assert [sim.post_lane(lane, 1.0, name) for name in "ab"] == [0, 1]
        with pytest.raises(SimulationError, match="no row at position"):
            lane.cancel(pos)
        sim.run()
        assert fired == ["a", "b"]

    @pytest.mark.parametrize("fn", [None, 42, "print"])
    def test_lane_fn_must_be_callable(self, fn):
        """A non-callable ``fn`` used to fail mid-run, at the first row
        it was given, with a bare ``TypeError``."""
        sim = Simulation()
        with pytest.raises(SimulationError, match="callable"):
            sim.lane(fn, 1)
        assert sim._lanes == []

    @pytest.mark.parametrize("width", [0, -1, True, False, 1.0, "1", None])
    def test_lane_width_must_be_a_positive_int(self, width):
        sim = Simulation()
        with pytest.raises(SimulationError, match="width"):
            sim.lane(print, width)
        assert sim._lanes == []

    @pytest.mark.parametrize("row", [(), (1, 2), (1, 2, 3, 4)])
    def test_row_must_fill_the_lane_width(self, row):
        """A row of another arity used to raise a bare ``AttributeError``
        or ``TypeError``; a short one would shift every later row."""
        sim = Simulation()
        lane = sim.lane(print, 3)
        with pytest.raises(SimulationError, match="lane row"):
            sim.post_lane(lane, 1.0, *row)
        assert sim.pending_events == 0 and lane.size == 0
        assert sim.max_queue_depth == 0


class TestLaneCalendarInterleaving:
    def test_calendar_tie_beats_younger_lane_entry(self):
        """At equal deadlines, an event scheduled *earlier* (smaller
        seq) fires before a zero-delay event posted later."""
        order = []
        sim = Simulation()

        def at_one():
            order.append("first")
            # Zero-delay entry minted at t=1.0 (large seq)…
            sim.post(0.0, order.append, "lane")

        sim.post(1.0, at_one)
        # …while this entry (seq 1) also lands at t=1.0.
        sim.post(1.0, order.append, "calendar")
        sim.run()
        assert order == ["first", "calendar", "lane"]

    def test_lane_drains_before_time_advances(self):
        times = []
        sim = Simulation()

        def chain(depth):
            times.append((sim.now, depth))
            if depth:
                sim.post(0.0, chain, depth - 1)

        sim.post(1.0, chain, 3)
        sim.post(2.0, times.append, "late")
        sim.run()
        assert times == [(1.0, 3), (1.0, 2), (1.0, 1), (1.0, 0), "late"]

    def test_run_until_holds_lane_and_calendar(self):
        fired = []
        sim = Simulation()
        sim.post(2.0, fired.append, "cal")
        sim.run(until=1.0)

        def post_zero():
            sim.post(0.0, fired.append, "lane")

        sim.schedule(1.5 - sim.now, post_zero)
        sim.run(until=1.2)
        assert fired == [] and sim.now == 1.2
        sim.run()
        assert fired == ["lane", "cal"]

    def test_cancelled_zero_delay_timer_is_a_lane_noop(self):
        fired = []
        sim = Simulation()
        timer = sim.schedule(0.0, fired.append, "x")
        sim.schedule(0.0, fired.append, "y")
        timer.cancel()
        sim.run()
        assert fired == ["y"]
        assert timer.cancelled and not timer.fired
        # Cancelling again after the queue drained stays a no-op.
        timer.cancel()
        assert not timer.fired


def test_deployment_run_leaves_no_cancelled_timer_in_the_lanes():
    """GeoBFT awaits each remote share in a lane per watched cluster and
    PBFT arms a timer per decision; fault-free, all are cancelled.  After
    a run, the timer lanes and the remote view-change lanes must hold
    them only as rows whose slot holds None — still counted as pending.
    The replicas' certify lanes hold the dispatches still waiting on the
    certify thread, and the network's delivery lanes the cross-region
    copies still in flight.  Every lane is in (deadline, seq) order."""
    from repro import Deployment, ExperimentConfig

    deployment = Deployment(ExperimentConfig(
        protocol="geobft", num_clusters=2, replicas_per_cluster=4,
        batch_size=10, duration=0.5, warmup=0.1, fast_crypto=True))
    deployment.run()
    sim = deployment.sim

    def ring(lane, column):
        return [column[(lane.head + k) % lane.capacity]
                for k in range(lane.size)]

    def first_slots(lane):
        return ring(lane, lane.args)

    certify = [replica._certify_lane
               for replica in deployment.replicas.values()]
    calls = [lane for replica in deployment.replicas.values()
             for lane in replica.remote_view_changes._lanes.values()]
    deliveries = list(deployment.network._delivery_lanes.values())
    assert sum(lane.size for lane in certify) > 10
    assert sum(lane.size for lane in deliveries) > 10
    timer_lanes = list(sim._timer_lanes.values())
    made = certify + calls + deliveries + timer_lanes
    assert sorted(map(id, sim._lanes)) == sorted(map(id, made))
    for lane in made:
        pairs = list(zip(ring(lane, lane.deadlines), ring(lane, lane.seqs)))
        assert pairs == sorted(pairs)
    # A timer lane's row holds its timer while armed; a cancelled one
    # holds None.
    timer_rows = [timer for lane in timer_lanes
                  for timer in first_slots(lane)]
    live = [timer for timer in timer_rows if timer is not None]
    assert not [timer for timer in live if timer.cancelled]
    # A remote view-change row is live while its round is awaited.
    awaited = sum(len(replica.remote_view_changes._timers[cluster])
                  for replica in deployment.replicas.values()
                  for cluster in replica.remote_view_changes._lanes)
    rows = [arg for lane in calls for arg in first_slots(lane)]
    assert len(rows) - rows.count(None) == awaited
    assert rows.count(None) > 100
    # Besides posted callbacks the heap holds one head per non-empty
    # lane, timer, call, certify or delivery, and nothing else.
    lanes = [lane for lane in made if lane.size]
    posts = [entry for entry in sim._heap if entry[3] is not None]
    heads = [entry[2] for entry in sim._heap if entry[3] is None]
    assert sorted(map(id, heads)) == sorted(map(id, lanes))
    assert len(timer_rows) - len(live) > 100
    pairs = sum(lane.size for lane in lanes)
    assert sim.pending_events == len(posts) + pairs
    # Every event ever queued is either processed or still pending.
    assert sim.pending_events == sim._seq - sim.events_processed


class _ReferenceTimer:
    def __init__(self, fn, args):
        self.fn, self.args = fn, args
        self.cancelled = self.fired = False

    def cancel(self):
        if not self.fired:
            self.cancelled = True


class _ReferenceLane:
    """A lane as a list of timers, one per position; a row earlier than
    the latest one it took is a plain event, at position -1."""

    def __init__(self, fn, width):
        self.fn, self.width, self.last, self.calls = fn, width, 0.0, []

    def cancel(self, pos):
        if pos.__class__ is not int or not 0 <= pos < len(self.calls):
            raise SimulationError(f"no row at position {pos!r}")
        self.calls[pos].cancel()


class _ReferenceSimulation:
    """The specification: one sorted list, cancellation by flag."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = self.max_queue_depth = self._seq = 0
        self._queue = []

    @property
    def pending_events(self):
        return len(self._queue)

    def schedule(self, delay, fn, *args):
        self._check(delay)
        timer = _ReferenceTimer(fn, args)
        insort(self._queue, (self.now + delay, self._seq, timer))
        self._seq += 1
        self.max_queue_depth = max(self.max_queue_depth, len(self._queue))
        return timer

    post = schedule

    @staticmethod
    def _check(delay):
        if delay.__class__ is bool or not 0.0 <= delay < math.inf:
            raise SimulationError(f"bad delay: {delay}")

    def lane(self, fn, width):
        return _ReferenceLane(fn, width)

    def post_lane(self, lane, delay, *row):
        self._check(delay)
        if len(row) != lane.width or row[0] is None:
            raise SimulationError(f"bad row: {row}")
        if self.now + delay < lane.last:
            self.schedule(delay, lane.fn, *row)
            return -1
        lane.calls.append(self.schedule(delay, lane.fn, *row))
        lane.last = self.now + delay
        return len(lane.calls) - 1

    def step(self, until=float("inf")):
        while self._queue and self._queue[0][0] <= until:
            self.now, _, timer = self._queue.pop(0)
            self.events_processed += 1
            if not timer.cancelled:
                timer.fired = True
                timer.fn(*timer.args)
                return True
        return False

    def run(self, until):
        if not until >= self.now:
            raise SimulationError(f"cannot run until {until}")
        while self.step(until):
            pass
        self.now = max(self.now, until)


class _Driver:
    """Applies one stream of operations to one simulator.  A callback's
    behaviour is data (``action``), so both sides schedule the same
    thing and each fires it against its own simulator."""

    def __init__(self, sim):
        self.sim = sim
        self.timers = []
        self.delays = []
        self.log = []
        self.queued = 0     # events scheduled or posted, ever
        # Two lanes: ``lane``, three slots a row, whose rows are never
        # cancelled, and ``calls``, one slot a row, whose rows are.
        self.lane = sim.lane(self.fire, 3)
        self.lane_positions = []    # post_lane's answers for ``lane``
        self.lane_last = 0.0    # the latest deadline posted to the lane
        self.calls = sim.lane(self.fire_call, 1)
        self.positions = []     # post_lane's answers for ``calls``
        self.calls_last = 0.0   # the latest deadline posted to ``calls``

    def schedule(self, delay, action):
        timer = self.sim.schedule(delay, self.fire, len(self.timers), action)
        self.timers.append(timer)
        self.delays.append(delay)
        self.queued += 1

    def post(self, delay, action):
        self.sim.post(delay, self.fire, "child", action)
        self.queued += 1

    def post_lane(self, delay, action):
        self.lane_positions.append(self.sim.post_lane(
            self.lane, delay, "lane", action, None))
        self.lane_last = max(self.lane_last, self.sim.now + delay)
        self.queued += 1

    def post_call(self, deadline, action):
        """Post to ``calls`` at ``deadline``: a row of the lane, or a
        heap entry at position -1 when that is earlier than the lane's
        latest deadline."""
        now = self.sim.now
        delay = deadline - now
        while now + delay < deadline:   # undo the subtraction's rounding
            delay = math.nextafter(delay, math.inf)
        self.positions.append(self.sim.post_lane(
            self.calls, delay, (len(self.positions), action)))
        self.calls_last = max(self.calls_last, now + delay)
        self.queued += 1

    def cancel_position(self, pos):
        """Cancel the row of ``calls`` at ``pos``; a refused position
        (-1, the heap fallback's) is logged."""
        try:
            self.calls.cancel(pos)
        except SimulationError:
            self.log.append(("refused", pos))

    def cancel_call(self, index):
        if self.positions:
            self.cancel_position(self.positions[index % len(self.positions)])

    def fire_call(self, arg):
        index, action = arg
        if action[0] == "cancel_self":
            self.cancel_position(self.positions[index])   # already fired
        self.fire(("call", index), action)

    def fire(self, label, action, _unused=None):
        # The queue as the callback sees it: the firing event is already
        # consumed, and its lane's next head already queued.
        self.log.append((label, self.sim.now, self.sim.pending_events))
        kind, arg = action
        if kind == "post":
            self.post(arg, ("log", None))
        elif kind == "schedule":
            self.schedule(arg, ("log", None))
        elif kind == "post_lane":
            self.post_lane(arg, ("log", None))
        elif kind == "post_call":
            self.post_call(max(self.sim.now + arg, self.calls_last),
                           ("log", None))
        elif kind == "cancel":
            self.cancel(arg)
        elif kind == "cancel_call":
            self.cancel_call(arg)
        elif kind == "cancel_self" and label.__class__ is int:
            self.cancel(label)
        elif kind == "rearm" and label.__class__ is int:
            self.schedule(self.delays[label], ("log", None))
        elif kind == "drain":
            # User code may run the clock up to the current instant; the
            # queue it sees must already be whole.
            self.sim.run(until=self.sim.now)

    def cancel(self, index):
        if self.timers:
            self.timers[index % len(self.timers)].cancel()

    def observe(self):
        sim = self.sim
        return (self.log, sim.now, sim.events_processed, sim.pending_events,
                sim.max_queue_depth,
                [(t.cancelled, t.fired) for t in self.timers],
                self.lane_positions, self.positions)


# Zero delay (a post at the current instant, a 0.0 timer lane), delays
# under, at and over a millisecond whose deadlines interleave as the
# clock advances, far deadlines, and few enough distinct values that
# lanes hold many pairs and equal deadlines — ties broken by sequence —
# are common.
_delays = st.sampled_from([0.0, 0.0, 0.0002, 0.0005, 0.001, 0.0015, 0.004,
                           0.25, 2.0])
_actions = st.one_of(
    st.just(("log", None)),
    st.tuples(st.sampled_from(["post", "schedule", "post_lane",
                               "post_call"]), _delays),
    st.tuples(st.sampled_from(["cancel", "cancel_call"]),
              st.integers(0, 50)),
    st.just(("cancel_self", None)),
    st.just(("rearm", None)),
    st.just(("drain", None)),
)


class QueueDifferentialMachine(RuleBasedStateMachine):
    """Random schedule/post/lane-post/cancel/run/step interleavings
    against the reference; everything observable must agree after every
    step."""

    def __init__(self):
        super().__init__()
        self.sides = (_Driver(Simulation()), _Driver(_ReferenceSimulation()))

    @rule(delay=_delays, action=_actions)
    def schedule(self, delay, action):
        for side in self.sides:
            side.schedule(delay, action)

    @rule(delay=_delays, action=_actions)
    def post(self, delay, action):
        for side in self.sides:
            side.post(delay, action)

    @rule(delay=_delays, action=_actions, count=st.integers(2, 12),
          gap=st.sampled_from([0.0, 0.0001, 0.0005, 0.002]))
    def arm_one_lane(self, delay, action, count, gap):
        """The same delay armed at an advancing clock: one timer lane
        holds many pairs, some consumed while others are still queued."""
        for side in self.sides:
            for _ in range(count):
                side.schedule(delay, action)
                side.sim.run(until=side.sim.now + gap)

    @rule(order=st.sampled_from(["after", "equal", "before"]), gap=_delays,
          action=_actions)
    def post_lane(self, order, gap, action):
        """A lane post at or after the lane's tail, at its deadline
        exactly, or before it — the fallback to a plain heap entry."""
        for side in self.sides:
            now = side.sim.now
            tail = max(side.lane_last, now)
            if order == "after":
                deadline = tail + gap
            elif order == "equal":
                deadline = tail
            else:
                deadline = max(now, tail - gap)
            side.post_lane(deadline - now, action)

    @rule(action=_actions, count=st.integers(10, 30),
          gap=st.sampled_from([0.0, 0.0001, 0.0005, 0.002]),
          refill=st.integers(1, 30))
    def drain_and_refill_lane(self, action, count, gap, refill):
        """The dispatch lane grows past its ring, drains — giving the
        ring back as its last row pops — and is refilled, past the ring
        again when ``refill`` is large."""
        for side in self.sides:
            for posts in (count, refill):
                for _ in range(posts):
                    now = side.sim.now
                    side.post_lane(max(side.lane_last, now) + gap - now,
                                   action)
                side.sim.run(until=max(side.lane_last, side.sim.now))

    @rule(order=st.sampled_from(["after", "equal", "before"]), gap=_delays,
          action=_actions)
    def post_call(self, order, gap, action):
        """A post to ``calls`` ``gap`` from now (or at the lane's tail if
        that is later), at the tail exactly — tying with posts, timers
        and ``lane`` rows that share the delays — or before the tail,
        the fallback to a plain heap entry at position -1."""
        for side in self.sides:
            now = side.sim.now
            tail = max(side.calls_last, now)
            if order == "after":
                side.post_call(max(now + gap, tail), action)
            elif order == "equal":
                side.post_call(tail, action)
            else:
                side.post_call(max(now, tail - gap), action)

    @rule(action=_actions, count=st.integers(2, 24),
          gap=st.sampled_from([0.0, 0.0001, 0.0005, 0.002]),
          cancels=st.lists(st.integers(0, 50), max_size=6))
    def fill_call_lane(self, action, count, gap, cancels):
        """Calls posted at an advancing clock, so the ring wraps and then
        widens in place; then old positions, fired or pending, are
        cancelled."""
        for side in self.sides:
            for _ in range(count):
                side.post_call(max(side.sim.now + 0.001, side.calls_last),
                               action)
                side.sim.run(until=side.sim.now + gap)
            for index in cancels:
                side.cancel_call(index)

    @rule(index=st.integers(0, 50), twice=st.booleans())
    def cancel_call(self, index, twice):
        for side in self.sides:
            side.cancel_call(index)
            if twice:
                side.cancel_call(index)

    @rule(delay=st.sampled_from([math.nan, math.inf, -math.inf, -0.001,
                                 True]),
          method=st.sampled_from(["schedule", "post", "post_lane",
                                  "post_call"]))
    def bad_delay(self, delay, method):
        for side in self.sides:
            with pytest.raises(SimulationError):
                if method == "post_lane":
                    side.sim.post_lane(side.lane, delay, "lane",
                                       ("log", None), None)
                elif method == "post_call":
                    side.sim.post_lane(side.calls, delay, (0, ("log", None)))
                else:
                    getattr(side.sim, method)(delay, side.fire, "child",
                                              ("log", None))

    @rule(which=st.sampled_from(["lane", "calls"]),
          row=st.sampled_from([(), (None,), (None, 1, 2), (1, 2),
                               (1, 2, 3, 4)]),
          pos=st.sampled_from([True, False, -1, -2, 10 ** 6, 0.0]))
    def bad_lane_input(self, which, row, pos):
        """A row that does not fill its lane's width, or leads with None,
        and a position ``post_lane`` never returned are refused."""
        for side in self.sides:
            lane = getattr(side, which)
            with pytest.raises(SimulationError):
                side.sim.post_lane(lane, 0.001, *row)
            with pytest.raises(SimulationError):
                lane.cancel(pos)

    @rule(index=st.integers(0, 50), twice=st.booleans())
    def cancel(self, index, twice):
        for side in self.sides:
            side.cancel(index)
            if twice:
                side.cancel(index)

    @rule(delta=st.one_of(_delays, _delays.map(lambda d: -d),
                          st.floats(-3.0, 3.0), st.just(math.nan)))
    def run_until(self, delta):
        raised = []
        for side in self.sides:
            try:
                side.sim.run(until=side.sim.now + delta)
            except SimulationError:
                raised.append(True)
            else:
                raised.append(False)
        assert raised[0] == raised[1]

    @rule()
    def step(self):
        real, reference = self.sides
        assert real.sim.step() == reference.sim.step()

    @invariant()
    def agree(self):
        real, reference = self.sides
        assert real.observe() == reference.observe()

    @invariant()
    def drained_lane_is_back_at_its_ring(self):
        for lane in self.sides[0].sim._lanes:
            if not lane.size:
                assert lane.capacity == len(lane.deadlines) == _LANE_SLOTS
                assert lane.args == [None] * (_LANE_SLOTS * lane.width)

    @invariant()
    def lanes_are_rings_in_order(self):
        """Every lane's queued rows are in (deadline, seq) order, and
        every slot outside them holds None."""
        for lane in self.sides[0].sim._lanes:
            width, capacity = lane.width, lane.capacity
            assert len(lane.deadlines) == len(lane.seqs) == capacity
            assert len(lane.args) == capacity * width
            ring = [(lane.head + k) % capacity for k in range(lane.size)]
            pairs = [(lane.deadlines[i], lane.seqs[i]) for i in ring]
            assert pairs == sorted(pairs)
            queued = {k * capacity + i for i in ring for k in range(width)}
            assert all(slot is None for j, slot in enumerate(lane.args)
                       if j not in queued)

    @invariant()
    def depth_is_tracked(self):
        for side in self.sides:
            assert (side.sim.pending_events
                    == side.queued - side.sim.events_processed)

    def teardown(self):
        for side in self.sides:
            side.sim.run(until=side.sim.now + 10.0)
        self.agree()
        assert self.sides[0].sim.pending_events == 0


TestQueueDifferential = QueueDifferentialMachine.TestCase
TestQueueDifferential.settings = settings(max_examples=200,
                                          stateful_step_count=50,
                                          deadline=None)
