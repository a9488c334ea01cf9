"""Open-loop aggregate traffic sources.

The paper saturates ResilientDB with 160 k *closed-loop* YCSB clients
(§4); :class:`~repro.workload.client.QuorumClient` reproduces that
contract one object per client, so both memory and event count scale
with the modeled population.  This module replaces the population with
one :class:`OpenLoopSource` per region: a seeded aggregate arrival
process (:class:`TrafficSpec`) that injects each tick's admitted
request batches from one posted event, crediting the rest with
``Simulation.count_extra_events``.  Simulator work is
therefore O(arrivals × batching) — a run can model millions of users
for the cost of the batches they offer, not the objects they would be.

Client-side semantics survive the aggregation, implemented over
aggregate counters and a calendar of pending-cohort records instead of
per-client state:

* **admission control** — a bounded in-flight transaction window per
  source; arrivals beyond it are rejected (counted, never simulated),
* **deadline timeouts** — each injected cohort gets one sweep event at
  the spec deadline; still-pending requests retry or abandon,
* **seeded retry with backoff** — the completion rule's timeout action
  (for ``f + 1`` replies, a broadcast to the fallback targets: the
  standard PBFT client reaction to an unresponsive primary), then
  exponential backoff with seeded jitter.

Completion is the closed-loop clients' own: :class:`OpenLoopSource` is
the open-loop driver over :class:`~repro.workload.client.CompletionTracker`,
which holds the ``f + 1`` matching-reply rule and Zyzzyva's two-phase
rule once for both drivers.  Goodput, abandonment, and retry counters
flow into :class:`~repro.bench.metrics.Metrics`, so overload tail
latency (p50/p95/p99) is first-class in every report.

Determinism: every stochastic choice (Poisson counts, retry jitter)
comes from a ``random.Random`` seeded from ``(config seed, cluster)``
— never from the simulator's shared RNG — so a source's draws do not
depend on what the rest of the deployment does with randomness.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..types import NodeId, Quorums, check_config_fields
from .client import CompletionTracker

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
        check_config_fields(
            self, counts=("users", "window"),
            timeouts=("rate_per_user", "tick", "deadline", "retry_backoff",
                      "period", "flash_factor"),
            windows=("flash_at", "flash_until"),
            naturals=("max_retries",), fractions=("amplitude",))
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
            try:
                return cls(**value)
            except (TypeError, ConfigurationError) as exc:
                # An unknown key, or a value failing a field check.
                raise ConfigurationError(
                    f"traffic spec {value!r}: {exc}") from None
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


class OpenLoopSource(CompletionTracker):
    """A per-region open-loop traffic source (an aggregate client).

    Registered on the network like any client (``node_id`` /
    ``region`` / ``start()`` / ``deliver()``), so the deployment drives
    it exactly like a ``QuorumClient``; its arrivals stay region-affine.
    Completion is the shared :class:`CompletionTracker` rule; this class
    decides only when a request is made and when it is given up.
    """

    __slots__ = ("_spec", "_users", "_rng", "_carry", "_inflight_txns")

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
                 primary_targets: Optional[List[NodeId]] = None,
                 fallback_targets: Optional[List[NodeId]] = None,
                 reply_quorum: Quorums = Quorums(1),
                 members: Optional[List[NodeId]] = None,
                 metrics=None):
        self._spec = spec
        self._users = users
        # A per-source stream derived from the experiment seed and the
        # region, never the simulator's RNG.
        self._rng = random.Random(
            seed * 1_000_003 + node_id.cluster * 7_919 + 17)
        self._carry = 0.0
        self._inflight_txns = 0
        super().__init__(node_id, region, sim, network, registry, workload,
                         batch_size, primary_targets or [],
                         fallback_targets or [], reply_quorum, members,
                         metrics)

    @property
    def users(self) -> int:
        """Modeled users behind this source."""
        return self._users

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
            if self._metrics is not None:
                self._metrics.record_offered(
                    self._node_id, count * self._batch_size, now)
            capacity = (self._spec.window - self._inflight_txns) \
                // self._batch_size
            admit = min(count, max(0, capacity))
            if admit < count and self._metrics is not None:
                self._metrics.record_rejected(
                    self._node_id, (count - admit) * self._batch_size, now)
            if admit > 0:
                # One queue entry stands in for the whole admitted
                # group; the callback credits the skipped events so the
                # digest matches an unbatched schedule.
                self._sim.post(0.0, self._inject, admit)
        self._sim.post(self._spec.tick, self._tick)

    def _inject(self, count: int) -> None:
        self._sim.count_extra_events(count - 1)
        now = self._sim.now
        cohort: List[str] = []
        for _ in range(count):
            pending = self._submit(now)
            txns = len(pending.request.batch)
            self._inflight_txns += txns
            if self._metrics is not None:
                self._metrics.record_submitted(self._node_id, txns, now)
            cohort.append(pending.request.batch_id)
        # One deadline sweep covers the whole cohort: the pending-cohort
        # calendar stays O(arrival groups), not O(modeled users).
        self._sim.post(self._spec.deadline, self._sweep, tuple(cohort))

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
            del self._pending[batch_id]
            txns = len(pending.request.batch)
            self._inflight_txns -= txns
            if self._metrics is not None:
                self._metrics.record_abandoned(self._node_id, txns,
                                               self._sim.now)
            return
        pending.retries += 1
        if self._metrics is not None:
            self._metrics.record_retried(self._node_id, 1, self._sim.now)
        self._timeout_action(batch_id, pending)
        backoff = self._spec.retry_backoff * (2 ** (pending.retries - 1))
        # Seeded jitter de-synchronizes retry storms deterministically.
        backoff *= 1.0 + 0.25 * self._rng.random()
        self._sim.post(backoff, self._sweep, (batch_id,))

    def _release(self, pending) -> None:
        self._inflight_txns -= len(pending.request.batch)


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
