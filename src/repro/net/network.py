"""Point-to-point network model over the simulator.

The model captures the two quantities the paper's evaluation turns on
(§1.1, Table 1):

* **Propagation latency** — one-way delay from the topology matrix.
* **Uplink serialization** — every node owns one *local* transmit queue
  (intra-region traffic at the region's multi-Gbit rate) and one shared
  *WAN egress* queue: all of a node's cross-region messages serialize
  through it, each transmitting at the Table 1 rate of its destination
  pair.  A single egress pipe is what a real NIC (and the paper's
  deployment) provides — it is why a PBFT primary pushing pre-prepares
  to 59 replicas across five remote regions is bandwidth-bound and
  *plateaus* as batches grow (Figure 13), while GeoBFT's ``f + 1``
  certificates per remote cluster barely load the pipe.

Failures are injected through a :class:`repro.net.failures.FailureModel`
consulted on every send/delivery, keeping protocol code oblivious to the
failure scenario being tested.

One send path
-------------
``send`` is a one-destination ``multicast``: every message goes through
one loop that resolves each (sender, destination) link once per
deployment and the message size once per call, then checks faults,
advances the uplink clock, counts and posts each copy in one pass.
Send-path faults are read once per call; when any is armed each copy is
checked inline: suppression, tampering, extra delay, in-flight loss.

A cross-region copy waits in the simulator's
:class:`~repro.net.simulator.Lane` of its (sender, destination
region), resolved with the route, instead of as a heap entry of its
own: the WAN egress clock only moves forward and a pair's latency is
fixed, so deadlines to one region do not decrease, and a copy earlier
than its lane's latest (one behind an extra-delayed copy) takes
``post_lane``'s heap fallback.  Self-sends, local copies (in flight
for under a millisecond) and sanitized deliveries stay plain posts.

Traffic accounting
------------------
The network counts what it sends — per message type, split into local
(intra-region) and global (inter-region) traffic, plus bytes per
(source region, destination region) pair.  These are the data behind
the paper's Table 2 complexity comparison.  A send is counted after the
sender's suppression and tampering rules and before any in-flight drop;
self-sends are not counted.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, Optional,
                    Protocol, Sequence, Tuple)

from ..errors import ConfigurationError
from ..types import NodeId
from .failures import FailureModel
from .simulator import Lane, Simulation
from .topology import Topology

if TYPE_CHECKING:
    from .sanitizer import MessageSanitizer


def sanitize_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the sanitizer switch: explicit argument, else the
    ``REPRO_SANITIZE=1`` environment variable."""
    if explicit is not None:
        return explicit
    return os.environ.get("REPRO_SANITIZE", "") == "1"


class NetworkNode(Protocol):
    """What the network needs from an attached node."""

    @property
    def node_id(self) -> NodeId: ...

    @property
    def region(self) -> str: ...

    def deliver(self, message, sender: NodeId) -> None: ...


class SizedMessage(Protocol):
    """Every message must know its wire size."""

    def size_bytes(self) -> int: ...


#: Observer signature: (src, dst, message, size_bytes, is_local).
SendObserver = Callable[[NodeId, NodeId, object, int, bool], None]

#: Sentinel region key for a sender's shared cross-region egress queue.
_WAN_EGRESS = "__wan__"


def _message_size(message: SizedMessage) -> int:
    """``message.size_bytes()``, memoized per message instance.

    The wire size of an (immutable) message never changes and
    certificates are re-sent across phases, so it is cached in the
    ``_size_cache`` slot library messages declare on their
    :class:`~repro.crypto.digests.CachedEncodable` base.  Only foreign
    duck-typed objects that reject the attribute (e.g. slotted test
    doubles) recompute it per call.
    """
    size = getattr(message, "_size_cache", None)
    if size is None:
        size = message.size_bytes()
        try:
            object.__setattr__(message, "_size_cache", size)
        except AttributeError:
            pass
    return size


class Network:
    """Delivers messages between registered nodes with realistic timing.

    ``sanitize`` arms the message-aliasing sanitizer (see
    :mod:`repro.net.sanitizer`): ``True``/``False`` force it, ``None``
    (the default) defers to the ``REPRO_SANITIZE=1`` environment
    variable.  Sanitized runs fingerprint every message at post time and
    re-verify at delivery; scheduling is unchanged, so deployment
    digests match the unsanitized run byte-for-byte.
    """

    __slots__ = ("_sim", "_topology", "_failures", "_nodes",
                 "_uplink_free_at", "_routes", "_local_keys", "_observers",
                 "_sanitizer", "_sends", "_self_sends", "_suppressed_sends",
                 "_in_flight_drops", "_receiver_drops", "_tampered_sends",
                 "_delayed_sends", "_local_msgs", "_global_msgs",
                 "_pair_bytes", "_delivery_lanes",
                 "_post_deliver", "_post_deliver_checked")

    def __init__(self, sim: Simulation, topology: Topology,
                 failures: Optional[FailureModel] = None,
                 sanitize: Optional[bool] = None):
        self._sim = sim
        self._topology = topology
        self._failures = failures or FailureModel()
        self._sanitizer: Optional[MessageSanitizer] = None
        if sanitize_enabled(sanitize):
            # Imported only when armed: an unsanitized run never loads it.
            from .sanitizer import MessageSanitizer
            self._sanitizer = MessageSanitizer()
        self._nodes: Dict[NodeId, NetworkNode] = {}
        # (sender, destination region) -> time the uplink frees up.
        self._uplink_free_at: Dict[Tuple[NodeId, str], float] = {}
        # src -> dst -> (bandwidth, latency, remote, lane): multicast's
        # per-destination routing, resolved once per pair (topology and
        # node regions are fixed for a deployment's lifetime).  ``remote``
        # is the destination's region and ``lane`` the pair's delivery
        # lane for cross-region pairs; both are None for local ones.
        self._routes: Dict[NodeId, Dict[NodeId, tuple]] = {}
        # (sender, destination region) -> the Lane its
        # cross-region deliveries wait in.
        self._delivery_lanes: Dict[Tuple[NodeId, str], Lane] = {}
        # src -> its local-region uplink key, resolved once.
        self._local_keys: Dict[NodeId, Tuple[NodeId, str]] = {}
        # Empty unless a tracer or test registers one: the hot path
        # then pays a single truthiness test per send.
        self._observers: Tuple[SendObserver, ...] = ()
        # Traffic accounting: messages per type, split by locality, and
        # bytes per source region -> destination region (the local and
        # global byte totals are sums over these pairs).
        self._local_msgs: Dict[str, int] = defaultdict(int)
        self._global_msgs: Dict[str, int] = defaultdict(int)
        self._pair_bytes: Dict[str, Dict[str, int]] = {
            region: defaultdict(int) for region in topology.regions}
        # Telemetry counters (pure integers, never read by the model).
        self._sends = 0
        self._self_sends = 0
        self._suppressed_sends = 0
        self._in_flight_drops = 0
        self._receiver_drops = 0
        self._tampered_sends = 0
        self._delayed_sends = 0
        # Bound once: every queued delivery event carries one of these.
        self._post_deliver = self._deliver
        self._post_deliver_checked = self._deliver_checked

    @property
    def topology(self) -> Topology:
        """The region matrix this network runs on."""
        return self._topology

    @property
    def failures(self) -> FailureModel:
        """The failure model consulted on every send."""
        return self._failures

    @property
    def simulation(self) -> Simulation:
        """The simulator driving deliveries."""
        return self._sim

    def register(self, node: NetworkNode) -> None:
        """Attach a node; its region must exist in the topology."""
        if node.region not in self._topology.regions:
            raise ConfigurationError(
                f"node {node.node_id} placed in unknown region {node.region}"
            )
        if node.node_id in self._nodes:
            raise ConfigurationError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node

    def node(self, node_id: NodeId) -> NetworkNode:
        """Look up a registered node."""
        try:
            return self._nodes[node_id]
        except KeyError as exc:
            raise ConfigurationError(f"unknown node {node_id}") from exc

    def known_nodes(self) -> Iterable[NodeId]:
        """Ids of all registered nodes."""
        return self._nodes.keys()

    def add_observer(self, observer: SendObserver) -> None:
        """Register a callback invoked once per counted send, at the
        point the send is counted (see the module docstring)."""
        self._observers += (observer,)

    def send(self, src: NodeId, dst: NodeId, message: SizedMessage) -> None:
        """Transmit ``message`` from ``src`` to ``dst`` (a one-destination
        :meth:`multicast`).

        Timing: the message first serializes on the sender's uplink to
        the destination region (``size / bandwidth``, queued FIFO behind
        earlier sends), then propagates (one-way latency), then is
        delivered.  Self-sends are delivered after a negligible delay.
        Drops (crashed nodes, partitions, Byzantine omission) consume no
        uplink time when the *sender* suppresses the send, and full
        transmit time when the network or receiver loses it.
        """
        self._multicast_distinct(src, (dst,), message)

    def multicast(self, src: NodeId, dsts: Iterable[NodeId],
                  message: SizedMessage) -> None:
        """Send one copy of ``message`` to each (distinct) destination.

        Copies to the same region serialize on the shared uplink, which
        is what makes "broadcast to a far region" expensive.  Repeated
        destinations are deduplicated — a node listed twice receives
        (and the sender transmits) exactly one copy.  Faults included,
        this equals one :meth:`send` per distinct destination, in order.
        """
        self._multicast_distinct(src, list(dict.fromkeys(dsts)), message)

    def _multicast_distinct(self, src: NodeId, dsts: Sequence[NodeId],
                            message: SizedMessage) -> None:
        """The one send path: :meth:`send` and :meth:`multicast` for an
        already-deduplicated ``dsts`` (:meth:`BaseReplica.broadcast`
        dedups while filtering and calls this directly to avoid a second
        pass)."""
        failures = self._failures
        # Read once per call: with nothing armed on the send path each
        # copy skips the fault checks with one local truth test.
        faults = failures.any_send_path_faults
        sim = self._sim
        now = sim.now
        size = None
        observers = self._observers
        sanitizer = self._sanitizer
        # One fingerprint covers every untampered copy: they all alias
        # the same object, so one send-time snapshot is the contract they
        # all check against.
        fingerprint = (sanitizer.fingerprint(message)
                       if sanitizer is not None else None)
        routes = self._routes.get(src)
        if routes is None:
            routes = self._routes[src] = {}
        # A call touches at most two uplink queues — the sender's
        # local-region link and the shared WAN egress pipe — so their
        # clocks advance in two locals and write back once at the end,
        # instead of a dict get/set pair per destination.
        free_at = self._uplink_free_at
        local_free = wan_free = -1.0
        local_key = wan_key = wan_pairs = None
        sends = wan_sends = 0
        post = sim.post
        post_lane = sim.post_lane
        deliver = self._post_deliver
        deliver_checked = self._post_deliver_checked
        # One pass: resolve, check faults, advance the uplink clock,
        # count, post the delivery.
        for dst in dsts:
            if dst == src:
                self._self_sends += 1
                if fingerprint is None:
                    post(0.0, deliver, src, dst, message)
                else:
                    post(0.0, deliver_checked, src, dst, message,
                         fingerprint)
                continue
            route = routes.get(dst)
            if route is None:
                sregion = self.node(src).region
                rregion = self.node(dst).region  # raises if unknown
                link = self._topology.link(sregion, rregion)
                if rregion == sregion:
                    remote = lane = None
                else:
                    remote = rregion
                    lane = self._delivery_lanes.get((src, rregion))
                    if lane is None:
                        lane = self._delivery_lanes[src, rregion] = (
                            sim.lane(deliver, 3))
                route = routes[dst] = (link.bandwidth_bytes_per_s,
                                       link.latency_s, remote, lane)
            bandwidth, latency, remote, lane = route
            copy = message
            if faults:
                if failures.suppresses_send(src, dst, message):
                    self._suppressed_sends += 1
                    continue
                # Byzantine tampering: the sender transmits a corrupted
                # copy (honest receivers reject it in their verify paths).
                copy = failures.transform(src, dst, message)
                if copy is None:
                    self._suppressed_sends += 1
                    continue
            if copy is message:
                if size is None:
                    size = _message_size(message)
                copy_size = size
            else:
                self._tampered_sends += 1
                copy_size = _message_size(copy)
            transmit = copy_size / bandwidth
            if remote is None:
                if local_key is None:
                    local_key = self._local_keys.get(src)
                    if local_key is None:
                        local_key = self._local_keys[src] = (
                            src, self.node(src).region)
                    local_free = free_at.get(local_key, 0.0)
                start = local_free if local_free > now else now
                local_free = start + transmit
            else:
                # All cross-region traffic shares one egress pipe per
                # sender; each message still transmits at its pair's rate.
                if wan_key is None:
                    wan_key = (src, _WAN_EGRESS)
                    wan_free = free_at.get(wan_key, 0.0)
                    wan_pairs = self._pair_bytes[self._nodes[src].region]
                start = wan_free if wan_free > now else now
                wan_free = start + transmit
                wan_pairs[remote] += copy_size
            delay = (start - now) + transmit + latency
            if faults:
                extra = failures.extra_delay(src, dst, copy)
                if extra > 0.0:
                    self._delayed_sends += 1
                    delay += extra
            if copy is message:
                sends += 1
                if remote is not None:
                    wan_sends += 1
            else:
                # A tampered copy counts alone, as its own kind and size.
                self._sends += 1
                kind = type(copy).__name__
                if remote is None:
                    self._local_msgs[kind] += 1
                    self._pair_bytes[local_key[1]][local_key[1]] += copy_size
                else:
                    self._global_msgs[kind] += 1
            if observers:
                for observer in observers:
                    observer(src, dst, copy, copy_size, remote is None)
            if faults and failures.drops_in_flight(src, dst, copy):
                self._in_flight_drops += 1
                continue
            # Deliveries are never cancelled; a cross-region copy waits
            # in its (sender, region) lane (see the module docstring).
            if fingerprint is None:
                if lane is None:
                    post(delay, deliver, src, dst, copy)
                else:
                    post_lane(lane, delay, src, dst, copy)
            else:
                post(delay, deliver_checked, src, dst, copy,
                     fingerprint if copy is message
                     else sanitizer.fingerprint(copy))
        if sends:
            # Every untampered copy has one type and size, and the local
            # ones one region pair: count them once per group, not per
            # copy.
            self._sends += sends
            kind = type(message).__name__
            local_sends = sends - wan_sends
            if local_sends:
                self._local_msgs[kind] += local_sends
                region = local_key[1]
                self._pair_bytes[region][region] += size * local_sends
            if wan_sends:
                self._global_msgs[kind] += wan_sends
        if local_key is not None:
            free_at[local_key] = local_free
        if wan_key is not None:
            free_at[wan_key] = wan_free

    def _deliver(self, src: NodeId, dst: NodeId, message) -> None:
        failures = self._failures
        # Only a crashed node or a receive rule can drop a delivery; the
        # two fields are tested inline, once per delivered message.
        if failures._crashed or failures._receive_rules:
            if failures.drops_at_receiver(src, dst, message):
                self._receiver_drops += 1
                return
        node = self._nodes.get(dst)
        if node is not None:
            node.deliver(message, src)

    def _deliver_checked(self, src: NodeId, dst: NodeId, message,
                         fingerprint: bytes) -> None:
        """Sanitized delivery: re-verify the send-time fingerprint first."""
        self._sanitizer.check(message, fingerprint, src)
        self._deliver(src, dst, message)

    def telemetry(self) -> Dict[str, int]:
        """Send/drop counters (observability only).

        ``sanitizer_checks`` appears only on sanitized networks, so the
        default schema is unchanged when the sanitizer is off.
        """
        counters = {
            "sends": self._sends,
            "self_sends": self._self_sends,
            "suppressed_sends": self._suppressed_sends,
            "in_flight_drops": self._in_flight_drops,
            "receiver_drops": self._receiver_drops,
            "tampered_sends": self._tampered_sends,
            "delayed_sends": self._delayed_sends,
        }
        if self._sanitizer is not None:
            counters["sanitizer_checks"] = self._sanitizer.checks
        return counters

    def message_counts(self) -> Dict[str, Dict[str, int]]:
        """``{type: {"local": n, "global": n}}`` for all counted sends."""
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
        return sum(row.get(src, 0) for src, row in self._pair_bytes.items())

    @property
    def global_bytes(self) -> int:
        """Total inter-region bytes."""
        return sum(sent for src, row in self._pair_bytes.items()
                   for dst, sent in row.items() if dst != src)

    def pair_bytes(self) -> Dict[Tuple[str, str], int]:
        """Bytes sent per (source region, destination region)."""
        return {(src, dst): sent
                for src, row in self._pair_bytes.items()
                for dst, sent in row.items()}

    def uplink_backlog(self, src: NodeId, dst_region: str) -> float:
        """Seconds of queued transmit time on one uplink (diagnostics).

        For a cross-region destination this reports the sender's shared
        WAN egress backlog; pass the sender's own region for the local
        queue.
        """
        sender = self.node(src)
        if dst_region == sender.region:
            key = (src, dst_region)
        else:
            key = (src, _WAN_EGRESS)
        free_at = self._uplink_free_at.get(key, 0.0)
        return max(0.0, free_at - self._sim.now)
