"""Tests for the network model: latency, uplink serialization, drops."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net.network import Network
from repro.net.simulator import Simulation
from repro.net.topology import Topology
from repro.types import NodeId, replica_id


class FakeMessage:
    def __init__(self, size: int = 1000):
        self._size = size

    def size_bytes(self) -> int:
        return self._size


class FakeNode:
    def __init__(self, node_id: NodeId, region: str):
        self.node_id = node_id
        self.region = region
        self.received = []

    def deliver(self, message, sender):
        self.received.append((message, sender))


@pytest.fixture
def wan():
    # 100 ms RTT across regions, 1 ms local; 8 Mbit/s = 1 MB/s links so
    # transmission times are easy to compute.
    return Topology.custom(
        ["west", "east"],
        {("west", "west"): 1.0, ("east", "east"): 1.0,
         ("west", "east"): 100.0},
        {("west", "west"): 8.0, ("east", "east"): 8.0, ("west", "east"): 8.0},
    )


@pytest.fixture
def setup(wan):
    sim = Simulation()
    net = Network(sim, wan)
    a = FakeNode(replica_id(1, 1), "west")
    b = FakeNode(replica_id(2, 1), "east")
    c = FakeNode(replica_id(2, 2), "east")
    for node in (a, b, c):
        net.register(node)
    return sim, net, a, b, c


class TestDeliveryTiming:
    def test_latency_plus_transmission(self, setup):
        sim, net, a, b, _c = setup
        net.send(a.node_id, b.node_id, FakeMessage(size=1_000_000))
        sim.run()
        # 1 MB at 1 MB/s = 1 s transmit + 0.05 s one-way latency.
        assert sim.now == pytest.approx(1.05)
        assert len(b.received) == 1

    def test_uplink_serializes_same_region_sends(self, setup):
        """Two messages to the same region share the sender's uplink."""
        sim, net, a, b, c = setup
        arrivals = {}
        net.send(a.node_id, b.node_id, FakeMessage(size=1_000_000))
        net.send(a.node_id, c.node_id, FakeMessage(size=1_000_000))
        sim.run()
        # First arrives at 1.05; second waits for the uplink: 2 s
        # serialization + 0.05 latency = 2.05.
        assert sim.now == pytest.approx(2.05)

    def test_different_region_uplinks_are_parallel(self, wan):
        sim = Simulation()
        net = Network(sim, wan)
        a = FakeNode(replica_id(1, 1), "west")
        local = FakeNode(replica_id(1, 2), "west")
        remote = FakeNode(replica_id(2, 1), "east")
        for node in (a, local, remote):
            net.register(node)
        net.send(a.node_id, remote.node_id, FakeMessage(size=1_000_000))
        net.send(a.node_id, local.node_id, FakeMessage(size=1_000_000))
        sim.run()
        # Local link is independent: it does not queue behind the remote
        # transfer; total time is the slower of the two, not the sum.
        assert sim.now == pytest.approx(1.05)

    def test_self_send_is_immediate(self, setup):
        sim, net, a, _b, _c = setup
        net.send(a.node_id, a.node_id, FakeMessage())
        sim.run()
        assert sim.now == 0.0
        assert len(a.received) == 1

    def test_multicast_reaches_all(self, setup):
        sim, net, a, b, c = setup
        net.multicast(a.node_id, [b.node_id, c.node_id], FakeMessage(100))
        sim.run()
        assert len(b.received) == 1
        assert len(c.received) == 1

    def test_sender_recorded(self, setup):
        sim, net, a, b, _c = setup
        net.send(a.node_id, b.node_id, FakeMessage(10))
        sim.run()
        assert b.received[0][1] == a.node_id


class TestRegistration:
    def test_unknown_region_rejected(self, setup):
        _sim, net, *_ = setup
        with pytest.raises(ConfigurationError):
            net.register(FakeNode(replica_id(3, 1), "mars"))

    def test_duplicate_id_rejected(self, setup):
        _sim, net, a, *_ = setup
        with pytest.raises(ConfigurationError):
            net.register(FakeNode(a.node_id, "west"))

    def test_unknown_node_lookup_rejected(self, setup):
        _sim, net, *_ = setup
        with pytest.raises(ConfigurationError):
            net.node(replica_id(9, 9))

    def test_known_nodes(self, setup):
        _sim, net, a, b, c = setup
        assert set(net.known_nodes()) == {a.node_id, b.node_id, c.node_id}


class TestObserversAndFailures:
    def test_observer_sees_sends_with_locality(self, setup):
        sim, net, a, b, _c = setup
        seen = []
        net.add_observer(lambda s, d, m, size, local:
                         seen.append((s, d, size, local)))
        net.send(a.node_id, b.node_id, FakeMessage(77))
        sim.run()
        assert seen == [(a.node_id, b.node_id, 77, False)]

    def test_crashed_sender_sends_nothing(self, setup):
        sim, net, a, b, _c = setup
        net.failures.crash(a.node_id)
        net.send(a.node_id, b.node_id, FakeMessage())
        sim.run()
        assert b.received == []

    def test_crashed_receiver_gets_nothing(self, setup):
        sim, net, a, b, _c = setup
        net.failures.crash(b.node_id)
        net.send(a.node_id, b.node_id, FakeMessage())
        sim.run()
        assert b.received == []

    def test_severed_link_drops_in_flight(self, setup):
        sim, net, a, b, c = setup
        net.failures.sever(a.node_id, b.node_id)
        net.send(a.node_id, b.node_id, FakeMessage(100))
        net.send(a.node_id, c.node_id, FakeMessage(100))
        sim.run()
        assert b.received == []
        assert len(c.received) == 1

    def test_send_rule_suppresses_at_sender(self, setup):
        sim, net, a, b, c = setup
        net.failures.add_send_rule(
            lambda src, dst, msg: dst == b.node_id
        )
        net.send(a.node_id, b.node_id, FakeMessage(100))
        net.send(a.node_id, c.node_id, FakeMessage(100))
        sim.run()
        assert b.received == []
        assert len(c.received) == 1

    def test_suppressed_send_consumes_no_uplink(self, setup):
        """A Byzantine sender that omits a message spends no bandwidth."""
        sim, net, a, b, c = setup
        net.failures.add_send_rule(lambda s, d, m: d == b.node_id)
        net.send(a.node_id, b.node_id, FakeMessage(size=1_000_000))
        net.send(a.node_id, c.node_id, FakeMessage(size=1_000_000))
        sim.run()
        assert sim.now == pytest.approx(1.05)  # no queueing behind drop

    def test_receive_rule_drops_at_receiver(self, setup):
        sim, net, a, b, _c = setup
        rule = net.failures.add_receive_rule(
            lambda src, dst, msg: dst == b.node_id
        )
        net.send(a.node_id, b.node_id, FakeMessage(10))
        sim.run()
        assert b.received == []
        net.failures.remove_receive_rule(rule)
        net.send(a.node_id, b.node_id, FakeMessage(10))
        sim.run()
        assert len(b.received) == 1

    def test_uplink_backlog_diagnostic(self, setup):
        sim, net, a, b, _c = setup
        net.send(a.node_id, b.node_id, FakeMessage(size=2_000_000))
        assert net.uplink_backlog(a.node_id, "east") == pytest.approx(2.0)
        assert net.uplink_backlog(a.node_id, "west") == 0.0


class TestSharedWanEgress:
    """Cross-region sends share one egress pipe per sender (the NIC),
    while local traffic has its own lane — the constraint that makes a
    single-primary protocol plateau (Figure 13)."""

    @pytest.fixture
    def tri(self):
        topo = Topology.custom(
            ["a", "b", "c"],
            {("a", "a"): 1.0, ("b", "b"): 1.0, ("c", "c"): 1.0,
             ("a", "b"): 100.0, ("a", "c"): 100.0, ("b", "c"): 100.0},
            # 8 Mbit/s = 1 MB/s on every pair for easy arithmetic.
            {("a", "a"): 8.0, ("b", "b"): 8.0, ("c", "c"): 8.0,
             ("a", "b"): 8.0, ("a", "c"): 8.0, ("b", "c"): 8.0},
        )
        sim = Simulation()
        net = Network(sim, topo)
        src = FakeNode(replica_id(1, 1), "a")
        local = FakeNode(replica_id(1, 2), "a")
        in_b = FakeNode(replica_id(2, 1), "b")
        in_c = FakeNode(replica_id(3, 1), "c")
        for node in (src, local, in_b, in_c):
            net.register(node)
        return sim, net, src, local, in_b, in_c

    def test_sends_to_different_remote_regions_serialize(self, tri):
        sim, net, src, _local, in_b, in_c = tri
        net.send(src.node_id, in_b.node_id, FakeMessage(size=1_000_000))
        net.send(src.node_id, in_c.node_id, FakeMessage(size=1_000_000))
        sim.run()
        # Second transfer queues behind the first on the shared egress:
        # 2 s serialization + 0.05 s propagation.
        assert sim.now == pytest.approx(2.05)

    def test_local_traffic_bypasses_wan_egress(self, tri):
        sim, net, src, local, in_b, _in_c = tri
        net.send(src.node_id, in_b.node_id, FakeMessage(size=1_000_000))
        net.send(src.node_id, local.node_id, FakeMessage(size=1_000_000))
        sim.run()
        # The local copy does not wait for the WAN transfer.
        assert sim.now == pytest.approx(1.05)

    def test_wan_backlog_reported(self, tri):
        _sim, net, src, _local, in_b, in_c = tri
        net.send(src.node_id, in_b.node_id, FakeMessage(size=2_000_000))
        assert net.uplink_backlog(src.node_id, "b") == pytest.approx(2.0)
        # Shared pipe: the backlog shows for any remote region.
        assert net.uplink_backlog(src.node_id, "c") == pytest.approx(2.0)
        assert net.uplink_backlog(src.node_id, "a") == 0.0


class TestMulticastFastPath:
    """The batched multicast path must be observationally identical to a
    loop of per-destination sends — same delivery times, same uplink
    accounting, same event count, same observer totals."""

    def _fresh(self, wan):
        sim = Simulation()
        net = Network(sim, wan)
        src = FakeNode(replica_id(1, 1), "west")
        local = FakeNode(replica_id(1, 2), "west")
        b = FakeNode(replica_id(2, 1), "east")
        c = FakeNode(replica_id(2, 2), "east")
        for node in (src, local, b, c):
            net.register(node)
        return sim, net, src, local, b, c

    def test_duplicate_destinations_deduplicated(self, wan):
        sim, net, src, _local, b, c = self._fresh(wan)
        message = FakeMessage(size=1_000_000)
        net.multicast(src.node_id,
                      [b.node_id, b.node_id, c.node_id, b.node_id],
                      message)
        # One serialization per *distinct* destination: 2 MB on the WAN
        # egress, not 4 MB.
        assert net.uplink_backlog(src.node_id, "east") == pytest.approx(2.0)
        sim.run()
        assert len(b.received) == 1
        assert len(c.received) == 1

    def test_matches_unicast_sends_exactly(self, wan):
        message = FakeMessage(size=500_000)

        sim_m, net_m, src_m, local_m, b_m, c_m = self._fresh(wan)
        net_m.multicast(src_m.node_id,
                        [local_m.node_id, b_m.node_id, c_m.node_id], message)
        backlog_m = (net_m.uplink_backlog(src_m.node_id, "west"),
                     net_m.uplink_backlog(src_m.node_id, "east"))
        sim_m.run()

        sim_u, net_u, src_u, local_u, b_u, c_u = self._fresh(wan)
        for dst in (local_u, b_u, c_u):
            net_u.send(src_u.node_id, dst.node_id, message)
        backlog_u = (net_u.uplink_backlog(src_u.node_id, "west"),
                     net_u.uplink_backlog(src_u.node_id, "east"))
        sim_u.run()

        assert backlog_m == backlog_u
        assert sim_m.now == sim_u.now
        assert sim_m.events_processed == sim_u.events_processed
        for got, want in ((local_m, local_u), (b_m, b_u), (c_m, c_u)):
            assert len(got.received) == len(want.received) == 1

    def test_same_instant_arrivals_are_one_event_each_in_list_order(self):
        """A multicast whose copies all arrive at one instant (nothing
        to serialize on the uplink) is one delivery event per
        destination, fired in destination-list order — exactly what
        unicast sends produce."""
        def fresh():
            sim = Simulation()
            net = Network(sim, Topology.uniform(["r1"], rtt_ms=2.0))
            log = []
            nodes = [FakeNode(replica_id(1, i), "r1") for i in range(1, 6)]
            for node in nodes:
                node.deliver = (lambda message, sender, me=node.node_id:
                                log.append((sim.now, me)))
                net.register(node)
            return sim, net, [n.node_id for n in nodes], log

        message = FakeMessage(size=0)
        sim_m, net_m, ids_m, log_m = fresh()
        order = [ids_m[3], ids_m[1], ids_m[4], ids_m[2]]
        net_m.multicast(ids_m[0], order, message)
        assert sim_m.pending_events == 4
        sim_m.run()

        sim_u, net_u, ids_u, log_u = fresh()
        for dst in order:
            net_u.send(ids_u[0], dst, message)
        sim_u.run()

        assert log_m == [(0.001, dst) for dst in order]
        assert log_m == log_u
        assert sim_m.events_processed == sim_u.events_processed == 4
        assert sim_m.max_queue_depth == sim_u.max_queue_depth == 4

    def test_counters_equal_per_destination_observer_totals(self, wan):
        """The network's own traffic counters equal the totals of a
        per-destination observer — per kind, per locality and per
        region pair — over unicast, multicast (with and without faults
        armed), self-sends, suppressed, dropped and tampered sends, and
        do not change when two observers are attached."""

        class Other(FakeMessage):
            pass

        class Omitted(FakeMessage):
            pass

        class Tampered(FakeMessage):
            pass

        def drive(observe):
            sim, net, src, local, b, c = self._fresh(wan)
            seen, second = [], []
            if observe:
                net.add_observer(lambda s, d, m, size, is_local:
                                 seen.append((s, d, m, size, is_local)))
                net.add_observer(lambda s, d, m, size, is_local:
                                 second.append((s, d, m, size, is_local)))
            ids = (src.node_id, local.node_id, b.node_id, c.node_id)
            net.send(src.node_id, b.node_id, FakeMessage(100))
            net.send(b.node_id, src.node_id, FakeMessage(300))
            net.send(local.node_id, local.node_id, FakeMessage(7))
            # Fast path: no failure machinery armed yet.
            net.multicast(src.node_id, ids, Other(200))
            net.failures.add_send_rule(
                lambda s, d, m: isinstance(m, Omitted))
            net.failures.add_transform_rule(
                lambda s, d, m: Tampered(40) if d == c.node_id else m)
            net.failures.sever(src.node_id, b.node_id)
            # Faults armed: each copy is checked inline.
            net.multicast(src.node_id, ids, FakeMessage(50))
            net.send(src.node_id, local.node_id, Omitted(999))
            sim.run()
            region = {node.node_id: node.region
                      for node in (src, local, b, c)}
            return net, seen, second, region, b

        net, seen, second, region, b = drive(observe=True)
        assert second == seen
        counts: dict = {}
        pairs: dict = {}
        for s, d, message, size, is_local in seen:
            kind = counts.setdefault(type(message).__name__,
                                     {"local": 0, "global": 0})
            kind["local" if is_local else "global"] += 1
            pair = (region[s], region[d])
            pairs[pair] = pairs.get(pair, 0) + size
        assert net.message_counts() == counts
        assert net.pair_bytes() == pairs
        assert net.local_messages == sum(1 for e in seen if e[4])
        assert net.global_messages == sum(1 for e in seen if not e[4])
        assert net.local_bytes == sum(e[3] for e in seen if e[4])
        assert net.global_bytes == sum(e[3] for e in seen if not e[4])
        # Self-sends and the suppressed send are not counted; the copy
        # severed in flight is, and the tampered copy counts as sent.
        assert "Omitted" not in counts
        assert counts["Tampered"] == {"local": 0, "global": 1}
        assert counts["FakeMessage"] == {"local": 1, "global": 3}
        assert counts["Other"] == {"local": 1, "global": 2}
        assert len(b.received) == 2
        telemetry = net.telemetry()
        assert telemetry["self_sends"] == 3
        assert telemetry["in_flight_drops"] == 1

        bare = drive(observe=False)[0]
        assert bare.message_counts() == net.message_counts()
        assert bare.pair_bytes() == net.pair_bytes()
        assert (bare.local_bytes, bare.global_bytes) == (
            net.local_bytes, net.global_bytes)

    def test_group_observer_sees_same_totals(self, wan):
        """An observer of a multicast sees one call per destination, and
        its totals equal the network's counters per kind, per locality
        and per region pair."""
        message = FakeMessage(size=2_000)
        per_send = []

        sim, net, src, local, b, c = self._fresh(wan)
        net.add_observer(
            lambda s, d, m, size, is_local:
                per_send.append((s, d, size, is_local)))
        net.multicast(src.node_id,
                      [local.node_id, b.node_id, c.node_id], message)
        sim.run()

        assert per_send == [
            (src.node_id, local.node_id, 2_000, True),
            (src.node_id, b.node_id, 2_000, False),
            (src.node_id, c.node_id, 2_000, False),
        ]
        assert sum(e[2] for e in per_send) == 3 * 2_000
        assert net.local_bytes == sum(e[2] for e in per_send if e[3])
        assert net.global_bytes == sum(e[2] for e in per_send if not e[3])
        assert net.message_counts() == {
            "FakeMessage": {"local": 1, "global": 2}}
        assert net.pair_bytes() == {("west", "west"): 2_000,
                                    ("west", "east"): 4_000}

    def test_observers_see_identical_streams(self, wan):
        message = FakeMessage(size=2_000)
        first = []
        second = []

        sim, net, src, local, b, c = self._fresh(wan)
        net.add_observer(lambda s, d, m, size, is_local: first.append(d))
        net.add_observer(lambda s, d, m, size, is_local: second.append(d))
        net.multicast(src.node_id,
                      [local.node_id, b.node_id, c.node_id], message)
        sim.run()

        assert first == second == [local.node_id, b.node_id, c.node_id]


class _Tampered(FakeMessage):
    pass


class _Inflated(FakeMessage):
    pass


#: Node placement for the differential test: index 0 is the sender.
_PLACES = (("west", 1, 1), ("west", 1, 2), ("west", 1, 3),
           ("east", 2, 1), ("east", 2, 2), ("north", 3, 1))
_IDS = [replica_id(cluster, index) for _region, cluster, index in _PLACES]
_REGION = {node: region for node, (region, _c, _i) in zip(_IDS, _PLACES)}
_PEERS = st.sets(st.integers(0, len(_PLACES) - 1), max_size=3)


@st.composite
def _fault_draws(draw):
    dsts = draw(st.lists(st.integers(0, len(_PLACES) - 1), max_size=8))
    return dict(
        dsts=[_IDS[i] for i in dsts],
        size=draw(st.integers(0, 400_000)),
        crashed={_IDS[i] for i in draw(_PEERS)},
        severed={_IDS[i] for i in draw(_PEERS)},
        omitted={_IDS[i] for i in draw(_PEERS)},
        refused={_IDS[i] for i in draw(_PEERS)},
        lost={_IDS[i] for i in draw(_PEERS)},
        delays={_IDS[i]: extra for i, extra in draw(st.dictionaries(
            st.integers(0, len(_PLACES) - 1),
            st.sampled_from([0.0, 0.004, 0.3]), max_size=3)).items()},
        transforms={_IDS[i]: how for i, how in draw(st.dictionaries(
            st.integers(0, len(_PLACES) - 1),
            st.sampled_from(["same", "tampered", "inflated", "swallow"]),
            max_size=3)).items()},
    )


class TestMulticastEqualsSends:
    """``multicast`` to a list equals one ``send`` per distinct
    destination with any mix of send-path faults armed, and both agree
    with the fault model's rules: suppressed copies cost no uplink, and
    a tampered copy is timed, counted and observed at its own kind and
    size."""

    @staticmethod
    def _topology():
        regions = ["west", "east", "north"]
        rtt = {("west", "west"): 1.0, ("east", "east"): 1.0,
               ("north", "north"): 2.0, ("west", "east"): 80.0,
               ("west", "north"): 140.0, ("east", "north"): 60.0}
        mbit = {("west", "west"): 800.0, ("east", "east"): 800.0,
                ("north", "north"): 400.0, ("west", "east"): 40.0,
                ("west", "north"): 12.0, ("east", "north"): 20.0}
        return Topology.custom(regions, rtt, mbit)

    def _run(self, case, copies, message, batched):
        topology = self._topology()
        sim = Simulation()
        net = Network(sim, topology)
        delivered, observed = [], []
        for node_id in _IDS:
            node = FakeNode(node_id, _REGION[node_id])
            node.deliver = (lambda m, sender, me=node_id:
                            delivered.append((sim.now, me, id(m))))
            net.register(node)
        net.add_observer(lambda s, d, m, size, is_local:
                         observed.append((d, m, size, is_local)))
        failures = net.failures
        src = _IDS[0]
        for node_id in case["crashed"]:
            failures.crash(node_id)
        for node_id in case["severed"]:
            failures.sever(src, node_id)
        if case["omitted"]:
            failures.add_send_rule(lambda s, d, m: d in case["omitted"])
        if case["refused"]:
            failures.add_receive_rule(lambda s, d, m: d in case["refused"])
        if case["lost"]:
            failures.add_drop_rule(lambda s, d, m: d in case["lost"])
        if case["delays"]:
            failures.add_delay_rule(
                lambda s, d, m: case["delays"].get(d, 0.0))
        if copies:
            failures.add_transform_rule(
                lambda s, d, m: copies[d] if d in copies else m)
        if batched:
            net.multicast(src, case["dsts"], message)
        else:
            for dst in dict.fromkeys(case["dsts"]):
                net.send(src, dst, message)
        backlog = (net.uplink_backlog(src, "west"),
                   net.uplink_backlog(src, "east"))
        sim.run()
        seen = dict(delivered=delivered, events=sim.events_processed,
                    telemetry=net.telemetry(), counts=net.message_counts(),
                    pairs=net.pair_bytes(), backlog=backlog,
                    observed=[(d, id(m), size, is_local)
                              for d, m, size, is_local in observed])
        return seen, observed, topology

    @settings(max_examples=200, deadline=None)
    @given(case=_fault_draws())
    def test_multicast_equals_per_destination_sends(self, case):
        message = FakeMessage(case["size"])
        size = case["size"]
        # Each transformed copy is built once, so both runs post the
        # very same object and delivery identities compare equal.
        made = {"tampered": lambda: _Tampered(size // 3),
                "inflated": lambda: _Inflated(size + 1_500),
                "same": lambda: message, "swallow": lambda: None}
        copies = {dst: made[how]() for dst, how in case["transforms"].items()}
        batched, observed, topology = self._run(case, copies, message, True)
        looped = self._run(case, copies, message, False)[0]
        assert batched == looped

        # Against the rules themselves, not just each other.
        src = _IDS[0]
        distinct = list(dict.fromkeys(case["dsts"]))
        peers = [d for d in distinct if d != src]
        suppressed = [d for d in peers
                      if src in case["crashed"] or d in case["omitted"]
                      or (d in copies and copies[d] is None)]
        sent = [d for d in peers if d not in suppressed]
        assert [d for d, *_ in observed] == sent
        counts, pairs = {}, {}
        uplink = {True: 0.0, False: 0.0}
        for dst, copy, copy_size, is_local in observed:
            assert copy is copies.get(dst, message)
            assert copy_size == copy.size_bytes()
            assert is_local == (_REGION[dst] == "west")
            kind = counts.setdefault(type(copy).__name__,
                                     {"local": 0, "global": 0})
            kind["local" if is_local else "global"] += 1
            pair = ("west", _REGION[dst])
            pairs[pair] = pairs.get(pair, 0) + copy_size
            link = topology.link("west", _REGION[dst])
            uplink[is_local] += copy_size / link.bandwidth_bytes_per_s
        assert batched["counts"] == counts
        assert batched["pairs"] == pairs
        assert batched["backlog"] == (pytest.approx(uplink[True]),
                                      pytest.approx(uplink[False]))
        lost = [d for d in sent if d in case["severed"] or d in case["lost"]]
        telemetry = batched["telemetry"]
        assert telemetry["sends"] == len(sent)
        assert telemetry["self_sends"] == distinct.count(src)
        assert telemetry["suppressed_sends"] == len(suppressed)
        assert telemetry["tampered_sends"] == sum(
            1 for d in sent if copies.get(d, message) is not message)
        assert telemetry["delayed_sends"] == sum(
            1 for d in sent if case["delays"].get(d, 0.0) > 0.0)
        assert telemetry["in_flight_drops"] == len(lost)
        arrived = [d for d in distinct
                   if d == src or (d in sent and d not in lost)]
        refused = [d for d in arrived
                   if d in case["crashed"] or d in case["refused"]]
        assert telemetry["receiver_drops"] == len(refused)
        assert sorted(d for _t, d, _m in batched["delivered"]) == sorted(
            d for d in arrived if d not in refused)


class TestDeliveryLanes:
    """Cross-region copies wait in one lane per (sender, destination
    region); self-sends, local copies and sanitized posts stay heap
    entries.  None of it moves a delivery."""

    @staticmethod
    def _build(sanitize=False):
        regions = ["west", "east", "north"]
        rtt = {("west", "west"): 1.0, ("east", "east"): 1.0,
               ("north", "north"): 1.0, ("west", "east"): 100.0,
               ("west", "north"): 100.0, ("east", "north"): 100.0}
        # 8 Mbit/s = 1 MB/s everywhere: a 1,000 B copy transmits in 1 ms.
        mbit = {pair: 8.0 for pair in rtt}
        sim = Simulation()
        net = Network(sim, Topology.custom(regions, rtt, mbit),
                      sanitize=sanitize)
        places = {"src": ("west", 1, 1), "local": ("west", 1, 2),
                  "e1": ("east", 2, 1), "e2": ("east", 2, 2),
                  "e3": ("east", 2, 3), "n1": ("north", 3, 1),
                  "n2": ("north", 3, 2)}
        ids, delivered = {}, []
        for name, (region, cluster, index) in places.items():
            node = FakeNode(replica_id(cluster, index), region)
            node.deliver = (lambda m, sender, me=name:
                            delivered.append((sim.now, me, m)))
            net.register(node)
            ids[name] = node.node_id
        return sim, net, ids, delivered

    def test_each_remote_region_has_one_lane(self):
        sim, net, ids, delivered = self._build()
        src = ids["src"]
        dsts = ["src", "local", "e1", "n1", "e2", "n2", "e3"]
        net.multicast(src, [ids[name] for name in dsts], FakeMessage())
        lanes = net._delivery_lanes
        assert set(lanes) == {(src, "east"), (src, "north")}
        routes = net._routes[src]
        assert routes[ids["local"]][3] is None
        assert (routes[ids["e1"]][3] is routes[ids["e2"]][3]
                is routes[ids["e3"]][3] is lanes[src, "east"])
        assert routes[ids["n1"]][3] is routes[ids["n2"]][3] is lanes[
            src, "north"]
        # Every copy to a region waits in the region's lane.
        assert lanes[src, "east"].size == 3
        assert lanes[src, "north"].size == 2
        # The self-send, the local copy and the two lane heads.
        assert len(sim._heap) == 4 and sim.pending_events == 7
        # A second multicast while they are in flight joins the lanes;
        # only its self-send and local copy add heap entries.
        net.multicast(src, [ids[name] for name in dsts], FakeMessage())
        assert lanes[src, "east"].size == 6
        assert lanes[src, "north"].size == 4
        assert len(sim._heap) == 6 and sim.pending_events == 14
        sim.run()
        assert [name for _t, name, _m in delivered] == (
            ["src", "src", "local", "local"]
            + ["e1", "n1", "e2", "n2", "e3"] * 2)
        assert [t for t, _name, _m in delivered] == sorted(
            t for t, _name, _m in delivered)
        assert lanes[src, "east"].size == lanes[src, "north"].size == 0

    @pytest.mark.parametrize("delayed", ["e1", "e2"])
    def test_extra_delayed_copy_keeps_the_order(self, delayed):
        """An extra delay lifts the lane's latest deadline; a copy
        earlier than it is a heap entry, and every copy is delivered at
        its (deadline, seq) place."""
        sim, net, ids, delivered = self._build()
        net.failures.add_delay_rule(
            lambda s, d, m: 0.3 if d == ids[delayed] else 0.0)
        names = ["e1", "e2", "e3"]
        net.multicast(ids["src"], [ids[name] for name in names],
                      FakeMessage())
        lane = net._delivery_lanes[ids["src"], "east"]
        # e1 heads the lane.  Delayed, its deadline is later than e2's
        # and e3's, which become heap entries; else e2 joins it, delayed
        # or not, and e3 joins it only if e2 was not delayed.
        assert lane.size == (1 if delayed == "e1" else 2)
        assert sim.pending_events == 3
        sim.run()
        deadlines = {"e1": 0.051, "e2": 0.052, "e3": 0.053}
        deadlines[delayed] += 0.3
        expected = sorted(names, key=lambda name: (deadlines[name],
                                                   names.index(name)))
        assert [name for _t, name, _m in delivered] == expected
        assert [t for t, _name, _m in delivered] == pytest.approx(
            [deadlines[name] for name in expected])
        assert net.telemetry()["delayed_sends"] == 1

    def test_tampered_and_sanitized_copies_deliver_as_plain_posts(self):
        """A tampered copy rides its region's lane like any other; a
        sanitized network posts every copy to the heap, checked.  Both
        deliver the same copies at the same instants."""
        runs = []
        for sanitize in (False, True):
            sim, net, ids, delivered = self._build(sanitize=sanitize)
            message = FakeMessage()
            tampered = _Tampered(3_000)
            net.failures.add_transform_rule(
                lambda s, d, m: tampered if d == ids["e2"] else m)
            dsts = [ids[name] for name in
                    ["src", "local", "e1", "e2", "e3", "n1"]]
            net.multicast(ids["src"], dsts, message)
            net.multicast(ids["src"], dsts, message)
            lane_sizes = sorted(lane.size
                                for lane in net._delivery_lanes.values())
            sim.run()
            runs.append(dict(
                lane_sizes=lane_sizes, events=sim.events_processed,
                delivered=[(t, name, m is tampered)
                           for t, name, m in delivered],
                telemetry={k: v for k, v in net.telemetry().items()
                           if k != "sanitizer_checks"}))
        plain, sanitized = runs
        # East: both multicasts' e1, tampered e2 and e3 copies wait in
        # the lane; north: both n1 copies.
        assert plain.pop("lane_sizes") == [2, 6]
        assert sanitized.pop("lane_sizes") == [0, 0]
        assert sanitized == plain
        assert [name for _t, name, is_tampered in plain["delivered"]
                if is_tampered] == ["e2", "e2"]
        assert plain["telemetry"]["tampered_sends"] == 2
