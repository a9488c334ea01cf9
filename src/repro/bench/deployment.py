"""Deployment builder: turn an experiment config into a running system.

This module is the reproduction's stand-in for the paper's testbed
orchestration: it places ``z`` clusters of ``n`` replicas into the
Table 1 regions (in the paper's deployment order), wires up the network,
PKI, metrics, clients, and the chosen protocol, and runs the simulation
for a configured duration.

Protocol placement mirrors §4, one :data:`PROTOCOL_ENTRIES` entry per
protocol (replica class, protocol-specific constructor arguments, client
shape, completion rule, safety audit):

* **GeoBFT** — clusters; each cluster runs its own primary; clients
  talk only to their local cluster (``"cluster"`` shape).
* **PBFT / Zyzzyva** — one flat group; clients target the first
  replica of the first region, Oregon, the best-connected region
  (``"flat"``); Zyzzyva's clients follow its speculative completion rule.
* **HotStuff** — one flat group; every replica leads its own instance;
  clients submit to a home replica in their own region (``"home"``),
  and safety is audited per slot.
* **Steward** — clusters; the primary cluster is Oregon; replicas run
  with an inflated crypto cost model (RSA-era threshold primitives).

Adding a protocol means adding one entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Literal, Optional, Tuple

from ..consensus.hotstuff import HotStuffReplica
from ..consensus.pbft import PbftConfig, PbftReplica
from ..consensus.steward import StewardReplica
from ..consensus.zyzzyva import ZyzzyvaReplica
from ..core.config import GeoBftConfig
from ..core.geobft import GeoBftReplica
from ..crypto.costs import CryptoCostModel
from ..crypto.signatures import KeyRegistry, Signature, VerificationCache
from ..crypto.threshold import ThresholdScheme
from ..errors import ConfigurationError
from ..ledger.blockchain import ChainLog
from ..ledger.execution import ExecutionLog
from ..net.network import Network
from ..net.simulator import Simulation
from ..net.topology import Topology
from ..types import ClusterId, NodeId, client_id, max_faulty, replica_id
from ..workload.client import QuorumClient
from ..workload.traffic import (OpenLoopSource, TrafficSpec, split_users,
                                traffic_summary)
from ..workload.ycsb import YcsbWorkload
from ..crypto.digests import encoding_cache_stats
from .instrumentation import Instrumentation
from .metrics import Metrics

#: ``(config, cluster members, flat members)`` -> the replica
#: constructor arguments specific to one protocol.
ReplicaArgs = Callable[["ExperimentConfig", Dict[ClusterId, List[NodeId]],
                        List[NodeId]], Dict[str, object]]


@dataclass(frozen=True)
class ProtocolEntry:
    """What the harness knows about one protocol (§4 placement).

    ``clients`` is the client shape, see :meth:`Deployment._targets`:
    ``"cluster"`` (the own cluster's first replica, ``f + 1`` of that
    cluster), ``"flat"`` (the global primary, ``F + 1`` of all replicas)
    or ``"home"`` (a round-robin replica of the client's own region,
    ``F + 1`` of all replicas).
    """

    replica: type
    #: Constructor arguments on top of the shared ones (and overriding
    #: them, as Steward's scaled ``costs`` do).
    args: ReplicaArgs
    clients: Literal["cluster", "flat", "home"]
    #: Clients follow Zyzzyva's completion rule instead of ``f + 1``.
    zyzzyva_rule: bool = False
    #: Safety is audited per (instance, height) slot rather than per
    #: ledger prefix (HotStuff's unsynchronized parallel instances).
    per_slot_safety: bool = False


def _pbft_config(cfg: "ExperimentConfig") -> PbftConfig:
    return PbftConfig(
        pipeline_depth=cfg.pipeline_depth,
        checkpoint_interval=cfg.checkpoint_interval,
        view_change_timeout=cfg.view_change_timeout,
    )


def _geobft_args(cfg, clusters, members) -> Dict[str, object]:
    # The experiment-level PBFT knobs (pipeline depth, checkpoint
    # interval, view-change timeout) override the nested default.
    geo_cfg = replace(cfg.geobft, pbft=_pbft_config(cfg))
    schemes = None
    if geo_cfg.threshold_certificates:
        schemes = {
            c: ThresholdScheme(f"cluster-{c}", cluster,
                               k=len(cluster) - max_faulty(len(cluster)))
            for c, cluster in clusters.items()
        }
    return dict(cluster_members=clusters, config=geo_cfg,
                threshold_schemes=schemes)


PROTOCOL_ENTRIES: Dict[str, ProtocolEntry] = {
    "geobft": ProtocolEntry(GeoBftReplica, _geobft_args, clients="cluster"),
    "pbft": ProtocolEntry(
        PbftReplica, clients="flat",
        args=lambda cfg, clusters, members: dict(
            members=members, config=_pbft_config(cfg))),
    "zyzzyva": ProtocolEntry(
        ZyzzyvaReplica, clients="flat", zyzzyva_rule=True,
        args=lambda cfg, clusters, members: dict(members=members)),
    "hotstuff": ProtocolEntry(
        HotStuffReplica, clients="home", per_slot_safety=True,
        args=lambda cfg, clusters, members: dict(
            members=members, pipeline_depth=cfg.hotstuff_pipeline)),
    "steward": ProtocolEntry(
        StewardReplica, clients="cluster",
        args=lambda cfg, clusters, members: dict(
            cluster_members=clusters, primary_cluster=1,
            config=_pbft_config(cfg),
            costs=cfg.costs.scaled(cfg.steward_crypto_factor))),
}

PROTOCOLS = tuple(PROTOCOL_ENTRIES)

#: Version tag stamped on every serialized result row, so ad-hoc
#: ``repro run --json`` output and sweep-store records share one
#: versioned schema.  Bump when the row's fields change shape.
RESULT_SCHEMA = "repro-result/1"


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one data point of the evaluation."""

    protocol: str = "geobft"
    num_clusters: int = 4
    replicas_per_cluster: int = 7
    #: Optional per-cluster sizes (length num_clusters), overriding
    #: replicas_per_cluster.  GeoBFT and Steward support heterogeneous
    #: clusters (§2.5); the flat protocols simply get the union.
    cluster_sizes: Optional[List[int]] = None
    batch_size: int = 100
    clients_per_cluster: int = 4
    client_outstanding: int = 8
    duration: float = 10.0
    warmup: float = 2.0
    seed: int = 1
    record_count: int = 10_000
    write_fraction: float = 1.0
    distribution: str = "zipfian"
    pipeline_depth: int = 32
    checkpoint_interval: int = 6
    view_change_timeout: float = 2.0
    client_retry_timeout: float = 6.0
    zyzzyva_spec_timeout: float = 0.8
    steward_crypto_factor: float = 50.0
    hotstuff_pipeline: int = 16
    cores: int = 4
    #: Cheap structural signature checks (identical simulated-time cost
    #: model, no host-CPU HMAC work) — used by benchmarks; correctness
    #: tests run with real crypto.
    fast_crypto: bool = False
    geobft: GeoBftConfig = field(default_factory=GeoBftConfig)
    costs: CryptoCostModel = field(default_factory=CryptoCostModel)
    topology: Optional[Topology] = None
    max_batches_per_client: Optional[int] = None
    #: Enable the observability hub (consensus-phase spans, queue
    #: samples, exports).  Observation-only: simulated results are
    #: byte-identical with this on or off.
    instrument: bool = False
    #: Open-loop aggregate traffic: a :class:`TrafficSpec` (or its
    #: ``"process:key=value,..."`` string / dict form) replaces the
    #: closed-loop ``clients_per_cluster`` clients with one
    #: :class:`OpenLoopSource` per region, modeling ``spec.users``
    #: users in O(arrivals).  ``None`` (the default) keeps the
    #: closed-loop clients — and their byte-identical digests.
    traffic: Optional[TrafficSpec] = None

    def __post_init__(self) -> None:
        self.traffic = TrafficSpec.from_value(self.traffic)
        if self.protocol not in PROTOCOLS:
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; expected {PROTOCOLS}"
            )
        if self.num_clusters < 1:
            raise ConfigurationError("num_clusters must be >= 1")
        if self.replicas_per_cluster < 4:
            raise ConfigurationError(
                "replicas_per_cluster must be >= 4 (n > 3f)"
            )
        if self.cluster_sizes is not None:
            if len(self.cluster_sizes) != self.num_clusters:
                raise ConfigurationError(
                    "cluster_sizes must list one size per cluster"
                )
            if any(size < 4 for size in self.cluster_sizes):
                raise ConfigurationError(
                    "every cluster needs >= 4 replicas (n > 3f)"
                )
        if self.warmup >= self.duration:
            raise ConfigurationError("warmup must be shorter than duration")

    def size_of_cluster(self, cluster: int) -> int:
        """Replica count of ``cluster`` (1-based)."""
        if self.cluster_sizes is not None:
            return self.cluster_sizes[cluster - 1]
        return self.replicas_per_cluster

    def resolved_topology(self) -> Topology:
        """The configured topology, defaulting to the paper's regions."""
        if self.topology is not None:
            return self.topology
        return Topology.paper(self.num_clusters)


@dataclass
class ExperimentResult:
    """Aggregated outcome of one run (one point in a figure)."""

    protocol: str
    num_clusters: int
    replicas_per_cluster: int
    batch_size: int
    throughput_txn_s: float
    avg_latency_s: float
    p50_latency_s: float
    completed_txns: int
    duration: float
    local_messages: int
    global_messages: int
    local_bytes: int
    global_bytes: int
    safety_ok: bool
    # Trailing defaults: populated from Metrics on every run (with or
    # without instrumentation), so result digests are trace-independent.
    p95_latency_s: float = 0.0
    p99_latency_s: float = 0.0
    submitted_txns: int = 0
    measured_submitted_txns: int = 0
    offered_load_txn_s: float = 0.0
    #: Whether throughput resumed after every expected-recoverable fault
    #: window (always True when no fault timeline was installed).
    liveness_ok: bool = True
    #: Open-loop traffic block (modeled users, offered load, goodput,
    #: abandonment, retries) — ``None`` on closed-loop runs, and then
    #: omitted from ``to_dict``/digest payloads so every pre-traffic
    #: golden digest is unchanged.
    traffic: Optional[Dict[str, object]] = None

    def describe(self) -> str:
        """One human-readable line, roughly a figure data point."""
        liveness = "" if self.liveness_ok else "  liveness=STALLED"
        line = (
            f"{self.protocol:>9}  z={self.num_clusters} "
            f"n={self.replicas_per_cluster} batch={self.batch_size}  "
            f"tput={self.throughput_txn_s:>10.0f} txn/s  "
            f"lat={self.avg_latency_s:7.3f} s  "
            f"safety={'ok' if self.safety_ok else 'VIOLATED'}{liveness}"
        )
        if self.traffic is not None:
            t = self.traffic
            line += (
                f"\n  open-loop: {t['modeled_users']:,} users "
                f"({t['process']})  offered {t['offered_txn_s']:,.0f} "
                f"txn/s  goodput {t['goodput_txn_s']:,.0f} txn/s  "
                f"rejected {t['rejected_txns']:,}  "
                f"abandoned {t['abandoned_txns']:,}  "
                f"retried {t['retried_batches']:,} batches"
            )
        return line

    def to_dict(self) -> Dict[str, object]:
        """The result row as a plain dict (machine-readable results).

        Carries the :data:`RESULT_SCHEMA` version tag so store records
        and ad-hoc ``--json`` output identify their shape; the digest
        computation uses the raw ``asdict`` form and is unaffected.
        """
        from dataclasses import asdict
        row: Dict[str, object] = {"schema": RESULT_SCHEMA}
        row.update(asdict(self))
        if row.get("traffic") is None:
            del row["traffic"]
        return row

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentResult":
        """Rebuild a result row from :meth:`to_dict` output.

        Rejects rows from a different (future) schema version rather
        than mis-parsing them.
        """
        schema = data.get("schema", RESULT_SCHEMA)
        if schema != RESULT_SCHEMA:
            raise ConfigurationError(
                f"result row has schema {schema!r}; this version reads "
                f"{RESULT_SCHEMA!r}")
        fields = {k: v for k, v in data.items() if k != "schema"}
        return cls(**fields)  # type: ignore[arg-type]

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The result row as JSON (what ``repro run --json`` emits)."""
        import json
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


class _FastSigner:
    """A node's signing handle under :class:`_FastKeyRegistry`: every
    ``sign`` returns the node's one signature."""

    __slots__ = ("node", "_signature")

    def __init__(self, signature: Signature):
        self.node = signature.signer
        self._signature = signature

    def sign(self, payload) -> Signature:
        return self._signature


class _FastKeyRegistry(KeyRegistry):
    """Structurally checked signatures for benchmark runs.

    ``sign`` returns a constant tag and ``verify`` only checks that the
    claimed signer is registered.  Simulated-time crypto *costs* are
    unchanged (they come from the cost model), so performance results
    are identical — only host CPU is saved.  Never use where tampering
    is part of the test.
    """

    _TAG = b"fast-signature"

    def register(self, node):
        signer = super().register(node)
        return _FastSigner(Signature(signer.node, self._TAG))

    def verify(self, payload, signature) -> bool:
        return (signature.tag == self._TAG
                and self.is_registered(signature.signer))


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of the post-run safety+liveness audit.

    * ``safety_ok`` — no two honest (non-crashed, non-Byzantine)
      replicas executed different requests in the same round.
    * ``liveness_ok`` — the ledgers made progress after every fault
      window that expected recovery (view change / remote view change
      actually fired); trivially true without a fault timeline.
    """

    safety_ok: bool
    liveness_ok: bool
    liveness_failures: tuple = ()
    byzantine_excluded: tuple = ()

    @property
    def ok(self) -> bool:
        """Both invariants held."""
        return self.safety_ok and self.liveness_ok

    def describe(self) -> str:
        """Short multi-line audit summary."""
        lines = [f"safety:   {'ok' if self.safety_ok else 'VIOLATED'}",
                 f"liveness: {'ok' if self.liveness_ok else 'STALLED'}"]
        for failure in self.liveness_failures:
            lines.append(f"  {failure}")
        if self.byzantine_excluded:
            excluded = ", ".join(str(n) for n in self.byzantine_excluded)
            lines.append(f"byzantine replicas excluded from the honest "
                         f"set: {excluded}")
        return "\n".join(lines)


class Deployment:
    """A built, runnable system: simulator, network, replicas, clients."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.topology = config.resolved_topology()
        if len(self.topology.regions) < config.num_clusters:
            raise ConfigurationError(
                "topology has fewer regions than requested clusters"
            )
        self.sim = Simulation(seed=config.seed)
        self.metrics = Metrics(warmup=config.warmup)
        self.network = Network(self.sim, self.topology)
        self.network.add_observer(self.metrics.network_observer,
                                  self.metrics.network_observer_group)
        # Observability hub, or None (the zero-cost default): replicas
        # emit phase events into it; it only ever reads sim.now.
        self.instrumentation: Optional[Instrumentation] = (
            Instrumentation(self.sim) if config.instrument else None)
        # Encoding counters are process-wide; snapshot them so this
        # run's delta can be reported.
        self._encoding_baseline = encoding_cache_stats().snapshot()
        # One verification memo for the whole deployment: replicas share
        # it through the registry, so a certificate forwarded to n
        # replicas has its signatures HMAC-checked once on the host.
        # Purely a host-CPU cache — simulated crypto delays are charged
        # per replica regardless.
        self.verification_cache = VerificationCache()
        if config.fast_crypto:
            self.registry: KeyRegistry = _FastKeyRegistry(
                cache=self.verification_cache)
        else:
            self.registry = KeyRegistry(cache=self.verification_cache)

        self.cluster_members: Dict[ClusterId, List[NodeId]] = {}
        self.replicas: Dict[NodeId, object] = {}
        self.clients: List[object] = []
        #: Set by FaultTimeline.install(); consulted by check_invariants.
        self.timeline = None
        #: The last InvariantReport produced by run()/check_invariants().
        self.invariants: Optional[InvariantReport] = None
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _region_of(self, cluster: ClusterId) -> str:
        return self.topology.regions[cluster - 1]

    def _build(self) -> None:
        cfg = self.config
        entry = PROTOCOL_ENTRIES[cfg.protocol]
        for c in range(1, cfg.num_clusters + 1):
            self.cluster_members[c] = [
                replica_id(c, i)
                for i in range(1, cfg.size_of_cluster(c) + 1)
            ]
        # All replicas, Oregon (cluster 1) first — so the flat primary
        # lands in the best-connected region, as in §4.
        members = [node for c in sorted(self.cluster_members)
                   for node in self.cluster_members[c]]
        shared = dict(sim=self.sim, network=self.network,
                      registry=self.registry, costs=cfg.costs,
                      cores=cfg.cores, record_count=cfg.record_count,
                      metrics=self.metrics,
                      instrumentation=self.instrumentation)
        shared.update(entry.args(cfg, self.cluster_members, members))
        for c, cluster in self.cluster_members.items():
            for node in cluster:
                self.replicas[node] = entry.replica(
                    node_id=node, region=self._region_of(c), **shared)
        self._make_drivers(entry, members)
        # Replicas execute the same batches in the same order (§2.4), so
        # their stores share one state, and their ledgers one chain,
        # until one of them diverges.
        self.execution_log = ExecutionLog(cfg.record_count)
        self.chain_log = ChainLog()
        for replica in self.replicas.values():
            self.execution_log.attach(replica.store)
            self.chain_log.attach(replica.ledger)
        region_map = {node: replica.region
                      for node, replica in self.replicas.items()}
        region_map.update(
            {client.node_id: client.region for client in self.clients})
        self.metrics.set_region_map(region_map)

    def _workload(self, salt: int) -> YcsbWorkload:
        cfg = self.config
        return YcsbWorkload(
            record_count=cfg.record_count,
            write_fraction=cfg.write_fraction,
            distribution=cfg.distribution,
            seed=cfg.seed * 7919 + salt,
        )

    def _targets(self, entry: ProtocolEntry, members: List[NodeId],
                 c: ClusterId, j: int) -> Tuple[List[NodeId], List[NodeId],
                                                int]:
        """Client ``j`` of cluster ``c``: its primary targets, fallback
        targets and reply quorum under the entry's client shape.  Only
        ``"flat"`` clients fall back to every replica; the others fall
        back to their own cluster."""
        cluster = self.cluster_members[c]
        if entry.clients == "cluster":
            return [cluster[0]], list(cluster), max_faulty(len(cluster)) + 1
        quorum = max_faulty(len(members)) + 1
        if entry.clients == "home":
            # Home replica: round-robin within the client's own region.
            return [cluster[(j - 1) % len(cluster)]], list(cluster), quorum
        return [members[0]], list(members), quorum

    def _make_drivers(self, entry: ProtocolEntry,
                      members: List[NodeId]) -> None:
        """Closed-loop clients, or open-loop sources when configured.

        Under Zyzzyva's completion rule every driver gets the flat
        replica set (``members=``) in place of the ``f + 1`` reply
        quorum, and closed-loop clients retry on the spec timeout.
        """
        cfg = self.config
        spec = cfg.traffic
        rule_members = members if entry.zyzzyva_rule else None
        if spec is not None:
            # One source per region; the modeled population is split
            # evenly over the regions (sources are region-affine).
            shares = split_users(spec.users, cfg.num_clusters)
            salt = 50_000
            for c in sorted(self.cluster_members):
                salt += 1
                primary, fallback, quorum = self._targets(
                    entry, members, c, 1)
                self.clients.append(OpenLoopSource(
                    node_id=client_id(c, 1),
                    region=self._region_of(c),
                    sim=self.sim,
                    network=self.network,
                    registry=self.registry,
                    workload=self._workload(salt),
                    batch_size=cfg.batch_size,
                    spec=spec,
                    users=shares[c - 1],
                    seed=cfg.seed,
                    primary_targets=primary,
                    fallback_targets=fallback,
                    reply_quorum=quorum,
                    members=rule_members,
                    metrics=self.metrics,
                ))
            return
        if entry.zyzzyva_rule:
            salt, timeout = 10_000, cfg.zyzzyva_spec_timeout
        else:
            salt, timeout = 0, cfg.client_retry_timeout
        for c in sorted(self.cluster_members):
            for j in range(1, cfg.clients_per_cluster + 1):
                salt += 1
                primary, fallback, quorum = self._targets(
                    entry, members, c, j)
                self.clients.append(QuorumClient(
                    node_id=client_id(c, j),
                    region=self._region_of(c),
                    sim=self.sim,
                    network=self.network,
                    registry=self.registry,
                    workload=self._workload(salt),
                    batch_size=cfg.batch_size,
                    primary_targets=primary,
                    fallback_targets=fallback,
                    reply_quorum=quorum,
                    outstanding=cfg.client_outstanding,
                    retry_timeout=timeout,
                    max_batches=cfg.max_batches_per_client,
                    members=rule_members,
                    metrics=self.metrics,
                ))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> ExperimentResult:
        """Start the clients, run the clock out, and aggregate results."""
        for client in self.clients:
            self.sim.schedule(0.0, client.start)
        self.sim.run(until=self.config.duration)
        self.metrics.finish(self.sim.now)
        report = self.check_invariants()
        return ExperimentResult(
            protocol=self.config.protocol,
            num_clusters=self.config.num_clusters,
            replicas_per_cluster=self.config.replicas_per_cluster,
            batch_size=self.config.batch_size,
            throughput_txn_s=self.metrics.throughput_txn_s(),
            avg_latency_s=self.metrics.avg_latency_s(),
            p50_latency_s=self.metrics.p50_latency_s(),
            completed_txns=self.metrics.completed_txns,
            duration=self.sim.now,
            local_messages=self.metrics.local_messages,
            global_messages=self.metrics.global_messages,
            local_bytes=self.metrics.local_bytes,
            global_bytes=self.metrics.global_bytes,
            safety_ok=report.safety_ok,
            p95_latency_s=self.metrics.p95_latency_s(),
            p99_latency_s=self.metrics.p99_latency_s(),
            submitted_txns=self.metrics.submitted_txns,
            measured_submitted_txns=self.metrics.measured_submitted_txns,
            offered_load_txn_s=self.metrics.offered_load_txn_s(),
            liveness_ok=report.liveness_ok,
            traffic=(traffic_summary(self.metrics, self.config.traffic)
                     if self.config.traffic is not None else None),
        )

    def encoding_cache_delta(self) -> Dict[str, int]:
        """This deployment's CachedEncodable counter increments.

        Six keys: ``digest_hits``/``digest_misses`` (the payload-digest
        memo), ``encode_misses`` (top-level byte derivations),
        ``splice_misses`` (embedded messages re-walked by an enclosing
        encode), and ``encode_hits``/``splice_hits``, always 0 since no
        bytes are memoized (kept because perfbench reports all six).

        The underlying counters are process-wide; the delta is taken
        against a snapshot from construction time.  Other deployments
        running concurrently in the same process would pollute it — the
        CLI and tests run deployments one at a time.
        """
        delta = encoding_cache_stats().delta_since(self._encoding_baseline)
        return {"encode_hits": 0, "splice_hits": 0, **delta}

    # ------------------------------------------------------------------
    # Safety auditing (Theorem 2.8)
    # ------------------------------------------------------------------
    def check_invariants(self, timeline=None) -> InvariantReport:
        """The reusable safety+liveness audit (run after ``sim.run``).

        ``timeline`` defaults to the chaos timeline installed on this
        deployment (if any).  Byzantine actors the timeline names are
        excluded from the honest set before the divergence check, and
        each fault window that expects recovery must be followed by
        ledger progress.  The report is also kept on
        ``deployment.invariants``.
        """
        if timeline is None:
            timeline = self.timeline
        byzantine = (timeline.byzantine_nodes() if timeline is not None
                     else frozenset())
        failures = (list(timeline.liveness_failures(self))
                    if timeline is not None else [])
        report = InvariantReport(
            safety_ok=self.check_safety(exclude=byzantine),
            liveness_ok=not failures,
            liveness_failures=tuple(failures),
            byzantine_excluded=tuple(sorted(byzantine, key=str)),
        )
        self.invariants = report
        return report

    def check_safety(self, exclude=frozenset()) -> bool:
        """Audit non-divergence across all honest replicas.

        Honest = not crashed and not in ``exclude`` (the Byzantine
        actors of an installed fault timeline — their ledgers carry no
        safety obligation).  For the sequentially ordered protocols the
        whole ledgers must be prefix-comparable; for an entry audited
        per slot (HotStuff's unsynchronized parallel instances) each
        instance's block subsequence must match.
        """
        alive = [
            replica for node, replica in self.replicas.items()
            if not self.network.failures.is_crashed(node)
            and node not in exclude
        ]
        if len(alive) < 2:
            return True
        for replica in alive:
            # Chain-structure audit; the deep content audit is exercised
            # by the test suite where tampering actually occurs.
            replica.ledger.verify(deep=False)
        if PROTOCOL_ENTRIES[self.config.protocol].per_slot_safety:
            return self._check_slot_safety(alive)
        reference = max(alive, key=lambda r: r.ledger.height)
        return all(
            replica.ledger.matches_prefix_of(reference.ledger)
            for replica in alive
        )

    @staticmethod
    def _check_slot_safety(alive) -> bool:
        # HotStuff runs one unsynchronized instance per replica and has
        # no retransmission, so a replica that missed a decide (e.g.
        # while partitioned) legitimately carries a *hole* at that
        # height.  Safety is therefore checked per slot, not per ledger
        # position: no two honest replicas may record different batches
        # at the same (instance, height).  A batch is its digest.
        slots: Dict[tuple, bytes] = {}
        for replica in alive:
            for block in replica.ledger:
                key = (block.cluster_id, block.round_id)
                digest = block.batch_digest
                if slots.setdefault(key, digest) != digest:
                    return False
        return True


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Build and run one experiment (the harness's main entry point)."""
    return Deployment(config).run()


def deployment_digest(deployment: Deployment,
                      result: ExperimentResult) -> str:
    """SHA-256 over everything a run *simulates*.

    Covers the full result row, the simulator's event count, and every
    replica's ledger head/height.  Instrumentation is observation-only,
    so the digest of an instrumented run must equal the digest of the
    same configuration run without it — ``repro trace
    --assert-determinism`` and the tracing smoke test both check this.
    """
    import hashlib
    import json
    from dataclasses import asdict

    ledgers = [
        (str(node), replica.ledger.height,
         replica.ledger.head_hash.hex())
        for node, replica in deployment.replicas.items()
    ]
    result_row = asdict(result)
    if result_row.get("traffic") is None:
        # Closed-loop runs omit the traffic block entirely: the payload
        # (and so every pre-traffic golden digest) is byte-identical to
        # a result without the field.
        result_row.pop("traffic", None)
    payload = json.dumps(
        {
            "result": result_row,
            "events_processed": deployment.sim.events_processed,
            "ledgers": sorted(ledgers),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
