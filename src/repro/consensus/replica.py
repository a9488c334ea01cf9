"""Replica runtime: CPU model, authenticated transport, timers.

Paper §3 describes ResilientDB's multi-threaded pipelined architecture:
input threads verify and enqueue messages, worker/certify/execute
threads run the protocol, output threads send.  The performance-relevant
consequence is that each replica has a bounded amount of CPU that every
message must pass through, and crypto work competes for it.  The
:class:`CpuModel` captures that with a small pool of simulated cores;
message handling is delayed until a core is free and has spent the
message's processing cost.

:class:`BaseReplica` is the common runtime for every protocol replica:
it owns the signer, the ledger, the execution engine, and helpers to
send/broadcast with CPU accounting.
"""

from __future__ import annotations

from heapq import heapify, heapreplace
from typing import Iterable, List, Optional, Sequence

from ..crypto.costs import CryptoCostModel
from ..crypto.signatures import KeyRegistry, Signer
from ..ledger.blockchain import Blockchain
from ..ledger.execution import ExecutionEngine
from ..ledger.store import YcsbStore
from ..net.network import Network
from ..net.simulator import Simulation, Timer
from ..types import NodeId

DEFAULT_CORES = 4  # worker + certify + execute + I/O of the paper's design


class CpuModel:
    """A pool of simulated cores with earliest-available scheduling.

    ``acquire(cost)`` books ``cost`` seconds on the soonest-free core and
    returns the completion time.  This approximates the paper's
    pipelined thread architecture: independent messages are processed in
    parallel up to the core count, beyond which they queue.
    """

    __slots__ = ("_sim", "_free_at")

    def __init__(self, sim: Simulation, cores: int = DEFAULT_CORES):
        self._sim = sim
        self._free_at: List[float] = [0.0] * max(1, cores)
        heapify(self._free_at)

    def acquire(self, cost: float) -> float:
        """Book ``cost`` seconds of CPU; returns absolute completion time."""
        free_at = self._free_at
        soonest = free_at[0]
        now = self._sim._now
        done = (soonest if soonest > now else now) + cost
        heapreplace(free_at, done)
        return done

    def utilization_horizon(self) -> float:
        """Latest booked completion time (diagnostics)."""
        return max(self._free_at)


class BaseReplica:
    """Common runtime shared by all protocol replicas.

    Subclasses register one route per message class they consume in
    ``_routes``: ``{message class: (certify cost, bound handler)}``.
    The certify cost — seconds on the serial certify thread, i.e. the
    digital signatures the message carries — is a ``float``, or a
    ``(message, sender) -> float`` callable where it depends on the
    message.  :meth:`handle` receives only classes nobody registered.
    """

    def __init__(self,
                 node_id: NodeId,
                 region: str,
                 sim: Simulation,
                 network: Network,
                 registry: KeyRegistry,
                 costs: Optional[CryptoCostModel] = None,
                 cores: int = DEFAULT_CORES,
                 record_count: int = 1000,
                 metrics=None,
                 instrumentation=None):
        self._node_id = node_id
        self._region = region
        self._sim = sim
        self._network = network
        self._registry = registry
        self._costs = costs or CryptoCostModel()
        self._cpu = CpuModel(sim, cores)
        self._signer: Signer = registry.register(node_id)
        self._store = YcsbStore(record_count)
        self._executor = ExecutionEngine(self._store)
        self._ledger = Blockchain()
        self._metrics = metrics
        # Optional observability hub (None when tracing is disabled).
        # Set before subclass __init__ bodies run, so engines built
        # there can snapshot it via ``getattr(owner, "instrumentation")``.
        self._instrumentation = instrumentation
        # The dedicated execute thread of the paper's pipeline (§3):
        # batches execute serially on this lane, independent of the
        # worker cores.
        self._exec_free_at = 0.0
        # Worker-pool cost of ingesting one message: per-message
        # overhead plus one MAC verification (all transport is
        # authenticated).
        self._base_ingest_cost = (self._costs.message_overhead
                                  + self._costs.mac_verify)
        # Direct reference to the failure model's crash set (mutated in
        # place, never replaced) — checked on every dispatch.
        self._crashed_nodes = network.failures._crashed
        # message class -> (certify cost, bound handler); see the class
        # docstring.  Subclasses fill it at construction, deliver()
        # caches what it resolves for classes they did not name.
        self._routes: dict = {}
        # Bound once: every queued dispatch event carries this callback.
        self._post_dispatch = self._dispatch
        # The dedicated certify thread (§3, Figure 9): all signature
        # verification serializes here.  This is the ceiling that keeps
        # signature-heavy protocols (HotStuff QCs without threshold
        # signatures, Steward's RSA-era proofs) from scaling.
        self._certify_free_at = 0.0
        # Dispatches waiting on the certify thread, in completion order.
        self._certify_lane = sim.lane(self._post_dispatch, 3)
        network.register(self)

    # ------------------------------------------------------------------
    # Identity / wiring accessors
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> NodeId:
        """This replica's address."""
        return self._node_id

    @property
    def region(self) -> str:
        """The region (cluster location) this replica runs in."""
        return self._region

    @property
    def sim(self) -> Simulation:
        """The simulation clock."""
        return self._sim

    @property
    def network(self) -> Network:
        """The network this replica is attached to."""
        return self._network

    @property
    def registry(self) -> KeyRegistry:
        """The deployment PKI."""
        return self._registry

    @property
    def costs(self) -> CryptoCostModel:
        """CPU cost model for crypto operations."""
        return self._costs

    @property
    def signer(self) -> Signer:
        """This replica's private signing handle."""
        return self._signer

    @property
    def ledger(self) -> Blockchain:
        """This replica's full copy of the blockchain."""
        return self._ledger

    @property
    def executor(self) -> ExecutionEngine:
        """Deterministic execution engine over the local store."""
        return self._executor

    @property
    def store(self) -> YcsbStore:
        """The local YCSB table."""
        return self._store

    @property
    def metrics(self):
        """Experiment metrics sink (may be ``None``)."""
        return self._metrics

    @property
    def instrumentation(self):
        """Observability hub (``None`` when tracing is disabled)."""
        return self._instrumentation

    # ------------------------------------------------------------------
    # Inbound path
    # ------------------------------------------------------------------
    def deliver(self, message, sender: NodeId) -> None:
        """Network entry point: charge CPU, then dispatch to the route.

        The message first passes the worker pool (deserialize + MAC),
        then — if it carries signatures — the serial certify thread.
        A crashed replica (per the failure model) never gets here — the
        network drops deliveries to crashed nodes.
        """
        try:
            verify_cost, handler = self._routes[message.__class__]
        except KeyError:
            verify_cost, handler = self._resolve_route(message.__class__)
        # CpuModel.acquire, inlined: this is the single hottest replica
        # call site (every delivery), so the heap op runs without an
        # extra Python frame.
        sim = self._sim
        now = sim._now
        cpu_free = self._cpu._free_at
        soonest = cpu_free[0]
        done = (soonest if soonest > now else now) + self._base_ingest_cost
        heapreplace(cpu_free, done)
        if verify_cost.__class__ is not float:
            verify_cost = verify_cost(message, sender)
        # Dispatches are never cancelled: use the allocation-free paths.
        if verify_cost > 0:
            certify_free = self._certify_free_at
            start = certify_free if certify_free > done else done
            done = start + verify_cost
            self._certify_free_at = done
            # Certify completions only grow: the lane holds them in order.
            sim.post_lane(self._certify_lane, done - now, handler, message,
                          sender)
        else:
            sim.post(done - now, self._post_dispatch, handler, message,
                     sender)

    def _resolve_route(self, cls) -> tuple:
        """Route for a class absent from the table, cached: its nearest
        registered base class's, else :meth:`handle` at no certify cost."""
        routes = self._routes
        for base in cls.__mro__[1:]:
            route = routes.get(base)
            if route is not None:
                break
        else:
            route = (0.0, self.handle)
        routes[cls] = route
        return route

    def _dispatch(self, handler, message, sender: NodeId) -> None:
        # Inlined FailureModel.is_crashed (the model instance — and its
        # crash set — live for the whole deployment).
        if self._node_id in self._crashed_nodes:
            return
        handler(message, sender)

    def _request_cost(self, request, sender: NodeId) -> float:
        """Certify cost of a client batch: its signature, if signed
        (no-op fills are not)."""
        return self._costs.verify if request.signature is not None else 0.0

    def certify_backlog(self) -> float:
        """Outstanding certify-thread work, in seconds (diagnostics)."""
        return max(0.0, self._certify_free_at - self._sim.now)

    def handle(self, message, sender: NodeId) -> None:
        """Receives messages of classes without a route; dropped here."""

    # ------------------------------------------------------------------
    # Outbound path
    # ------------------------------------------------------------------
    def charge_cpu(self, cost: float) -> None:
        """Book CPU work (signing, hashing, execution) without blocking
        the current handler; future messages queue behind it."""
        if cost > 0:
            self._cpu.acquire(cost)

    def send(self, dst: NodeId, message) -> None:
        """Send one MAC-authenticated message (charges MAC creation)."""
        self.charge_cpu(self._costs.mac_create)
        self._network.send(self._node_id, dst, message)

    def broadcast(self, dsts: Iterable[NodeId], message,
                  include_self: bool = False) -> None:
        """Send ``message`` to every distinct destination (one MAC each).

        By convention a replica processes its own broadcast locally
        without a network hop unless ``include_self`` is set.  Routed
        through :meth:`Network.multicast` so a paper-scale fan-out is one
        pass over its destinations.
        """
        me = self._node_id
        targets = [dst for dst in dict.fromkeys(dsts)
                   if include_self or dst != me]
        # Already distinct: skip the public multicast's dedup pass.
        self._network._multicast_distinct(me, targets, message)
        self.charge_cpu(self._costs.mac_create * len(targets))

    def sign(self, payload) -> "object":
        """Sign a payload, charging signature CPU cost."""
        self.charge_cpu(self._costs.sign)
        return self._signer.sign(payload)

    def set_timer(self, delay: float, fn, *args) -> Timer:
        """Schedule a cancellable protocol timer."""
        return self._sim.schedule(delay, fn, *args)

    # ------------------------------------------------------------------
    # Execution helpers
    # ------------------------------------------------------------------
    def execute_batch(self, batch: Sequence) -> "tuple[list, float]":
        """Execute a batch on the serial execution lane.

        Returns ``(results, done_at)``: the deterministic results plus
        the simulated time at which the execute thread finishes the
        batch.  Callers schedule client replies at ``done_at`` so that
        execution backlog shows up in client latency, exactly as a
        saturated execute thread does in the real system.
        """
        cost = self._costs.execute_txn * len(batch)
        start = max(self._exec_free_at, self._sim.now)
        done_at = start + cost
        self._exec_free_at = done_at
        results = self._executor.execute_batch(batch)
        if self._metrics is not None:
            self._metrics.record_executed(self._node_id, len(batch),
                                          self._sim.now)
        return results, done_at

    def send_at(self, when: float, dst: NodeId, message) -> None:
        """Send ``message`` at absolute simulated time ``when`` (used to
        defer client replies until the execute thread catches up)."""
        delay = max(0.0, when - self._sim.now)
        if delay <= 0:
            self.send(dst, message)
        else:
            self._sim.post(delay, self.send, dst, message)
