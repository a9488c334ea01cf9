"""Open-loop aggregate traffic sources.

The paper saturates ResilientDB with 160 k *closed-loop* YCSB clients
(§4); :class:`~repro.workload.client.QuorumClient` reproduces that
contract one object per client, so both memory and event count scale
with the modeled population.  This module replaces the population with
one :class:`OpenLoopSource` per region: a seeded aggregate arrival
process (:class:`TrafficSpec`) that injects *batched* request groups
through the simulator's ``post_group`` fast path.  Simulator work is
therefore O(arrivals × batching) — a run can model millions of users
for the cost of the batches they offer, not the objects they would be.

Client-side semantics survive the aggregation, implemented over
aggregate counters and a calendar of pending-cohort records instead of
per-client state:

* **admission control** — a bounded in-flight transaction window per
  source; arrivals beyond it are rejected (counted, never simulated),
* **deadline timeouts** — each injected cohort gets one sweep event at
  the spec deadline; still-pending requests retry or abandon,
* **seeded retry with backoff** — exponential backoff with seeded
  jitter, broadcast to the fallback targets (the standard PBFT client
  reaction to an unresponsive primary).

Completion mirrors the closed-loop clients: ``f + 1`` matching
``ClientReply`` digests (``mode="quorum"``), or Zyzzyva's two-phase
client protocol (all-``N`` matching ``SpecResponse`` fast path, commit
certificate + ``2F + 1`` local-commits after a timeout;
``mode="zyzzyva"``).  Goodput, abandonment, and retry counters flow
into :class:`~repro.bench.metrics.Metrics`, so overload tail latency
(p50/p95/p99) is first-class in every report.

Determinism: every stochastic choice (Poisson counts, retry jitter)
comes from a ``random.Random`` seeded from ``(config seed, cluster)``
— never from the simulator's shared RNG — so a source draws the same
sequence whether it runs in the serial engine or in the worker process
that owns its region.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..consensus.messages import (
    ClientReply,
    ClientRequestBatch,
    LocalCommit,
    SpecResponse,
    ZyzzyvaCommitCert,
)
from ..errors import ConfigurationError
from ..types import NodeId, max_faulty

#: Arrival processes a :class:`TrafficSpec` can name.  All are
#: deterministic rate *schedules*; ``constant`` additionally uses a
#: deterministic fractional accumulator instead of Poisson sampling.
TRAFFIC_PROCESSES = ("constant", "poisson", "diurnal", "flash")

#: Knuth's Poisson sampler is O(λ); chunking keeps each draw bounded
#: (a sum of independent Poissons is Poisson, so this is exact).
_POISSON_CHUNK = 400.0


@dataclass(frozen=True)
class TrafficSpec:
    """A seeded aggregate arrival process for one experiment.

    ``users`` is the modeled population deployment-wide (split evenly
    across regions); ``rate_per_user`` is each user's baseline offered
    rate in txn/s, so the deployment offers ``users × rate_per_user``
    txn/s at a rate multiplier of 1.  The curve processes modulate that
    baseline: ``diurnal`` by ``1 + amplitude·sin(2πt/period)``,
    ``flash`` by ``flash_factor`` inside ``[flash_at, flash_until)``.
    """

    process: str = "poisson"
    users: int = 100_000
    rate_per_user: float = 0.1
    #: Arrival aggregation interval (simulated seconds); one potential
    #: injection group per tick per source.
    tick: float = 0.05
    #: Client-side deadline per request attempt.
    deadline: float = 1.0
    max_retries: int = 2
    #: Base retry backoff; doubles per retry, with seeded jitter.
    retry_backoff: float = 0.5
    #: Admission window: max in-flight transactions per source.
    window: int = 20_000
    period: float = 20.0
    amplitude: float = 0.5
    flash_at: float = 0.0
    flash_until: float = 0.0
    flash_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.process not in TRAFFIC_PROCESSES:
            raise ConfigurationError(
                f"unknown traffic process {self.process!r}; expected one "
                f"of {TRAFFIC_PROCESSES}")
        if self.users < 1:
            raise ConfigurationError("traffic users must be >= 1")
        if self.rate_per_user <= 0:
            raise ConfigurationError("rate_per_user must be > 0")
        if self.tick <= 0:
            raise ConfigurationError("traffic tick must be > 0")
        if self.deadline <= 0:
            raise ConfigurationError("traffic deadline must be > 0")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.retry_backoff <= 0:
            raise ConfigurationError("retry_backoff must be > 0")
        if self.window < 1:
            raise ConfigurationError("traffic window must be >= 1")
        if self.period <= 0:
            raise ConfigurationError("diurnal period must be > 0")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ConfigurationError("amplitude must be in [0, 1]")
        if self.flash_factor <= 0:
            raise ConfigurationError("flash_factor must be > 0")
        if self.flash_until < self.flash_at:
            raise ConfigurationError("flash_until must be >= flash_at")

    # ------------------------------------------------------------------
    # Rate schedule
    # ------------------------------------------------------------------
    def rate_multiplier(self, now: float) -> float:
        """The deterministic rate-curve multiplier at simulated ``now``."""
        if self.process == "diurnal":
            phase = math.sin(2.0 * math.pi * now / self.period)
            return max(0.0, 1.0 + self.amplitude * phase)
        if self.process == "flash":
            if self.flash_at <= now < self.flash_until:
                return self.flash_factor
            return 1.0
        return 1.0

    def offered_txn_s(self, now: float) -> float:
        """Deployment-wide offered load (txn/s) at simulated ``now``."""
        return self.users * self.rate_per_user * self.rate_multiplier(now)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    #: CLI/short-form aliases for the longer field names.
    _ALIASES = {"rate": "rate_per_user", "retries": "max_retries",
                "backoff": "retry_backoff"}
    _INT_FIELDS = frozenset({"users", "max_retries", "window"})

    @classmethod
    def parse(cls, text: str) -> "TrafficSpec":
        """Build a spec from ``"process:key=value,..."`` CLI shorthand.

        Example: ``"poisson:users=1000000,rate=0.5,deadline=1.5"``.
        ``rate``, ``retries``, and ``backoff`` alias ``rate_per_user``,
        ``max_retries``, and ``retry_backoff``.
        """
        process, _, rest = text.partition(":")
        params: Dict[str, Any] = {"process": process.strip()}
        if rest.strip():
            for pair in rest.split(","):
                key, sep, value = pair.partition("=")
                key = cls._ALIASES.get(key.strip(), key.strip())
                if not sep or not value.strip():
                    raise ConfigurationError(
                        f"traffic spec {text!r}: expected key=value, "
                        f"got {pair!r}")
                try:
                    params[key] = (int(value) if key in cls._INT_FIELDS
                                   else float(value))
                except ValueError as exc:
                    raise ConfigurationError(
                        f"traffic spec {text!r}: bad value for "
                        f"{key}: {exc}") from None
        try:
            return cls(**params)
        except TypeError:
            raise ConfigurationError(
                f"traffic spec {text!r}: unknown key among "
                f"{sorted(params)}") from None

    @classmethod
    def from_value(cls, value: Any) -> Optional["TrafficSpec"]:
        """Coerce a config value (None / spec / str / dict) to a spec."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.parse(value) if value else None
        if isinstance(value, dict):
            return cls(**value)
        raise ConfigurationError(
            f"traffic must be a TrafficSpec, spec string, or dict; "
            f"got {type(value).__name__}")


def split_users(users: int, clusters: int) -> List[int]:
    """Deterministically split a population over ``clusters`` regions."""
    base, extra = divmod(users, clusters)
    return [base + (1 if c < extra else 0) for c in range(clusters)]


def _poisson(rng: random.Random, lam: float) -> int:
    """An exact seeded Poisson draw (Knuth, chunked for large λ)."""
    count = 0
    while lam > _POISSON_CHUNK:
        count += _poisson(rng, _POISSON_CHUNK)
        lam -= _POISSON_CHUNK
    if lam <= 0.0:
        return count
    threshold = math.exp(-lam)
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


class _PendingCohortEntry:
    """One in-flight request batch (aggregate, not per-user)."""

    __slots__ = ("request", "submitted_at", "retries", "votes",
                 "local_commits", "in_commit_phase")

    def __init__(self, request: ClientRequestBatch, submitted_at: float):
        self.request = request
        self.submitted_at = submitted_at
        self.retries = 0
        #: digest key -> {replica: response} (quorum mode keys by the
        #: results digest; zyzzyva by results+history, keeping the
        #: responses for the commit certificate).
        self.votes: Dict[bytes, Dict[NodeId, Any]] = {}
        self.local_commits: Optional[set] = None
        self.in_commit_phase = False


class OpenLoopSource:
    """A per-region open-loop traffic source (an aggregate client).

    Registered on the network like any client (``node_id`` /
    ``region`` / ``start()`` / ``deliver()``), so the deployment drives
    it exactly like a ``QuorumClient``; its arrivals stay region-affine.
    """

    __slots__ = ("_node_id", "_region", "_sim", "_network", "_signer",
                 "_workload", "_batch_size", "_spec", "_users",
                 "_mode", "_primary_targets", "_fallback_targets",
                 "_reply_quorum", "_members", "_n", "_f", "_metrics",
                 "_rng", "_carry", "_pending", "_inflight_txns",
                 "_submitted", "_completed", "_started", "_use_fallback",
                 "offered_txns", "rejected_txns", "abandoned_txns",
                 "retried_batches")

    def __init__(self,
                 node_id: NodeId,
                 region: str,
                 sim,
                 network,
                 registry,
                 workload,
                 batch_size: int,
                 spec: TrafficSpec,
                 users: int,
                 seed: int,
                 mode: str = "quorum",
                 primary_targets: Optional[List[NodeId]] = None,
                 fallback_targets: Optional[List[NodeId]] = None,
                 reply_quorum: int = 1,
                 members: Optional[List[NodeId]] = None,
                 metrics=None):
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if mode not in ("quorum", "zyzzyva"):
            raise ConfigurationError(
                f"unknown traffic completion mode {mode!r}")
        if mode == "zyzzyva" and not members:
            raise ConfigurationError(
                "zyzzyva traffic mode needs the member list")
        self._node_id = node_id
        self._region = region
        self._sim = sim
        self._network = network
        self._signer = registry.register(node_id)
        self._workload = workload
        self._batch_size = batch_size
        self._spec = spec
        self._users = users
        self._mode = mode
        self._primary_targets = list(primary_targets or [])
        self._fallback_targets = list(fallback_targets or [])
        self._reply_quorum = reply_quorum
        self._members = list(members or [])
        self._n = len(self._members)
        self._f = max_faulty(self._n) if self._members else 0
        self._metrics = metrics
        # Worker-local determinism: a per-source stream derived from the
        # experiment seed and the region, never the simulator's RNG.
        self._rng = random.Random(
            seed * 1_000_003 + node_id.cluster * 7_919 + 17)
        self._carry = 0.0
        self._pending: Dict[str, _PendingCohortEntry] = {}
        self._inflight_txns = 0
        self._submitted = 0
        self._completed = 0
        self._started = False
        self._use_fallback = False
        # Aggregate client-semantics counters (mirrored into Metrics).
        self.offered_txns = 0
        self.rejected_txns = 0
        self.abandoned_txns = 0
        self.retried_batches = 0
        network.register(self)

    # ------------------------------------------------------------------
    # Network node interface
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> NodeId:
        """The source's network address."""
        return self._node_id

    @property
    def region(self) -> str:
        """The region whose population this source aggregates."""
        return self._region

    @property
    def users(self) -> int:
        """Modeled users behind this source."""
        return self._users

    @property
    def pending_batches(self) -> int:
        """In-flight request batches."""
        return len(self._pending)

    @property
    def submitted_batches(self) -> int:
        """Batches injected so far."""
        return self._submitted

    @property
    def completed_batches(self) -> int:
        """Batches acknowledged by the protocol's completion rule."""
        return self._completed

    def deliver(self, message, sender: NodeId) -> None:
        """Receive replica responses."""
        if self._mode == "quorum":
            if isinstance(message, ClientReply):
                self._on_reply(message, sender)
        else:
            if isinstance(message, SpecResponse):
                self._on_spec_response(message, sender)
            elif isinstance(message, LocalCommit):
                self._on_local_commit(message, sender)

    # ------------------------------------------------------------------
    # Arrival process
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the arrival schedule (idempotent)."""
        if self._started:
            return
        self._started = True
        self._sim.post(0.0, self._tick)

    def _arrivals_in_tick(self, now: float) -> int:
        """Batch arrivals for the tick starting at ``now``."""
        spec = self._spec
        lam = (self._users * spec.rate_per_user * spec.rate_multiplier(now)
               * spec.tick / self._batch_size)
        if spec.process == "constant":
            self._carry += lam
            count = int(self._carry)
            self._carry -= count
            return count
        return _poisson(self._rng, lam)

    def _tick(self) -> None:
        now = self._sim.now
        count = self._arrivals_in_tick(now)
        if count:
            txns = count * self._batch_size
            self.offered_txns += txns
            if self._metrics is not None:
                self._metrics.record_offered(self._node_id, txns, now)
            capacity = (self._spec.window - self._inflight_txns) \
                // self._batch_size
            admit = min(count, max(0, capacity))
            if admit < count:
                rejected = (count - admit) * self._batch_size
                self.rejected_txns += rejected
                if self._metrics is not None:
                    self._metrics.record_rejected(self._node_id, rejected,
                                                  now)
            if admit > 0:
                # One queue entry stands in for the whole admitted
                # group; the callback credits the skipped events so the
                # digest matches an unbatched schedule.
                self._sim.post_group(0.0, admit, self._inject, admit)
        self._sim.post(self._spec.tick, self._tick)

    def _inject(self, count: int) -> None:
        self._sim.count_extra_events(count - 1)
        now = self._sim.now
        cohort: List[str] = []
        for _ in range(count):
            batch = self._workload.next_batch(
                self._batch_size, prefix=f"{self._node_id}-")
            batch_id = f"{self._node_id}:{self._submitted}"
            unsigned = ClientRequestBatch(batch_id, self._node_id, batch,
                                          None)
            request = ClientRequestBatch(
                batch_id, self._node_id, batch,
                self._signer.sign(unsigned))
            self._pending[batch_id] = _PendingCohortEntry(request, now)
            self._submitted += 1
            self._inflight_txns += len(batch)
            self._send_request(request)
            if self._metrics is not None:
                self._metrics.record_submitted(self._node_id, len(batch),
                                               now)
            cohort.append(batch_id)
        # One deadline sweep covers the whole cohort: the pending-cohort
        # calendar stays O(arrival groups), not O(modeled users).
        self._sim.post(self._spec.deadline, self._sweep, tuple(cohort))

    def _send_request(self, request: ClientRequestBatch) -> None:
        if self._mode == "zyzzyva":
            self._network.send(self._node_id, self._members[0], request)
            return
        targets = (self._fallback_targets if self._use_fallback
                   else self._primary_targets)
        for target in targets:
            self._network.send(self._node_id, target, request)

    # ------------------------------------------------------------------
    # Deadline sweeps: retry with backoff, or abandon
    # ------------------------------------------------------------------
    def _sweep(self, batch_ids: Tuple[str, ...]) -> None:
        for batch_id in batch_ids:
            self._on_deadline(batch_id)

    def _on_deadline(self, batch_id: str) -> None:
        pending = self._pending.get(batch_id)
        if pending is None:
            return
        if pending.retries >= self._spec.max_retries:
            self._abandon(batch_id, pending)
            return
        pending.retries += 1
        self.retried_batches += 1
        now = self._sim.now
        if self._metrics is not None:
            self._metrics.record_retried(self._node_id, 1, now)
        if self._mode == "zyzzyva":
            self._zyzzyva_timeout(batch_id, pending)
        else:
            # Standard PBFT client fallback: broadcast so non-faulty
            # backups learn of the request and can suspect the primary.
            self._use_fallback = True
            for target in self._fallback_targets:
                self._network.send(self._node_id, target, pending.request)
        backoff = self._spec.retry_backoff * (2 ** (pending.retries - 1))
        # Seeded jitter de-synchronizes retry storms deterministically.
        backoff *= 1.0 + 0.25 * self._rng.random()
        self._sim.post(backoff, self._sweep, (batch_id,))

    def _abandon(self, batch_id: str, pending: _PendingCohortEntry) -> None:
        del self._pending[batch_id]
        txns = len(pending.request.batch)
        self._inflight_txns -= txns
        self.abandoned_txns += txns
        if self._metrics is not None:
            self._metrics.record_abandoned(self._node_id, txns,
                                           self._sim.now)

    # ------------------------------------------------------------------
    # Completion — quorum mode (f + 1 matching ClientReply digests)
    # ------------------------------------------------------------------
    def _on_reply(self, reply: ClientReply, sender: NodeId) -> None:
        pending = self._pending.get(reply.batch_id)
        if pending is None or sender != reply.replica:
            return
        voters = pending.votes.setdefault(reply.results_digest, {})
        voters[sender] = reply
        if len(voters) >= self._reply_quorum:
            self._complete(reply.batch_id, pending)

    # ------------------------------------------------------------------
    # Completion — zyzzyva mode (all-N fast path, commit-cert slow path)
    # ------------------------------------------------------------------
    def _on_spec_response(self, response: SpecResponse,
                          sender: NodeId) -> None:
        pending = self._pending.get(response.batch_id)
        if pending is None or sender != response.replica:
            return
        key = response.results_digest + response.history_digest
        group = pending.votes.setdefault(key, {})
        group[sender] = response
        if len(group) >= self._n:
            self._complete(response.batch_id, pending)

    def _zyzzyva_timeout(self, batch_id: str,
                         pending: _PendingCohortEntry) -> None:
        if pending.in_commit_phase:
            return
        best = max(pending.votes.values(), key=len, default={})
        if len(best) >= 2 * self._f + 1:
            # Commit phase: certificate of 2F + 1 matching responses.
            pending.in_commit_phase = True
            responses = tuple(list(best.values())[: 2 * self._f + 1])
            sample = responses[0]
            cert = ZyzzyvaCommitCert(batch_id, sample.view, sample.seq,
                                     responses)
            pending.local_commits = set()
            for member in self._members:
                self._network.send(self._node_id, member, cert)
        else:
            # Not enough responses: retransmit to everyone and wait.
            for member in self._members:
                self._network.send(self._node_id, member, pending.request)

    def _on_local_commit(self, message: LocalCommit,
                         sender: NodeId) -> None:
        pending = self._pending.get(message.batch_id)
        if pending is None or pending.local_commits is None:
            return
        pending.local_commits.add(sender)
        if len(pending.local_commits) >= 2 * self._f + 1:
            self._complete(message.batch_id, pending)

    # ------------------------------------------------------------------
    def _complete(self, batch_id: str,
                  pending: _PendingCohortEntry) -> None:
        del self._pending[batch_id]
        txns = len(pending.request.batch)
        self._inflight_txns -= txns
        self._completed += 1
        if self._metrics is not None:
            self._metrics.record_completed(
                self._node_id, txns, self._sim.now - pending.submitted_at,
                self._sim.now)


def traffic_summary(metrics, spec: TrafficSpec) -> Dict[str, Any]:
    """The result row's ``traffic`` block from a finished metrics sink.

    Pure integer counters plus ratios of final sums.
    """
    window = metrics.measurement_window()
    offered = metrics.measured_offered_txns
    abandoned = metrics.measured_abandoned_txns
    return {
        "modeled_users": spec.users,
        "process": spec.process,
        "offered_txns": offered,
        "offered_txn_s": offered / window if window > 0 else 0.0,
        "rejected_txns": metrics.measured_rejected_txns,
        "abandoned_txns": abandoned,
        "retried_batches": metrics.measured_retried_batches,
        "goodput_txn_s": metrics.throughput_txn_s(),
        "abandonment_rate": abandoned / offered if offered else 0.0,
    }


__all__ = [
    "OpenLoopSource",
    "TRAFFIC_PROCESSES",
    "TrafficSpec",
    "split_users",
    "traffic_summary",
]
