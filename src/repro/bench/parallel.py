"""Parallel simulation engine: per-cluster worker processes.

The serial engine is a single discrete-event loop; at paper scale
(z=13, n=91) one core does all the work.  This module shards the loop
across cores with the classic conservative-lookahead (CMB-style)
synchronization:

* **Partitioning** — the z clusters are split into contiguous groups,
  one worker process per group.  Every worker builds the *complete*
  deployment from the picklable :class:`ExperimentConfig` (identical
  initial state everywhere), but only its own clusters' clients are
  started and only its own replicas ever receive messages — foreign
  replicas stay inert.
* **Lookahead** — the minimum one-way latency between any two clusters
  owned by *different* workers (Table 1 floors this at 16.5 ms for the
  paper topology).  A message posted inside a window cannot arrive at
  a remote worker before the window ends, so workers can burn through
  one full window of events with no communication at all.
* **Barriers** — workers advance in lockstep windows of exactly the
  lookahead.  At each barrier the orchestrator routes the cross-worker
  deliveries each worker captured (:class:`ExportedSend` records) to
  the destination cluster's owner, which injects them verbatim into
  its calendar queue.

Determinism is the whole point: the exported records carry the
composite tie keys minted by :class:`WorkerSimulation`, so every
worker fires its events in exactly the serial engine's ``(deadline,
seq)`` order and the merged run — metrics replayed in completion
order, events-processed corrected for per-worker duplication of
orchestration events, ledgers collected per owner — produces a
byte-identical ``deployment_digest``.  The 13-case golden matrix
asserts this for every protocol.

Instrumented runs are parallel-native: each worker records into its
own :class:`WorkerInstrumentation` hub (phase events stamped with the
engine's composite tie keys) and the orchestrator folds the hubs into
one with :meth:`Instrumentation.merge`, so the merged trace's span set
equals the serial engine's.  The engine additionally measures itself —
per-worker busy/barrier-wait host time, window widths, export volumes
— shipped as an :class:`EngineReport` and rendered as a dedicated
"engine" track in the Chrome trace.

Configurations the engine cannot run bit-identically (single cluster,
zero-latency topologies, stochastic or live-targeted fault timelines)
are detected by :func:`parallel_unsupported_reason`; callers fall back
to the serial engine, which is always correct.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError, TamperedLedgerError
from ..net.chaos import FaultTimeline
from ..net.simulator import WorkerSimulation
from ..net.topology import Topology
from .deployment import (Deployment, ExperimentConfig, ExperimentResult,
                         InvariantReport, digest_from_parts)
from .instrumentation import Instrumentation, WorkerInstrumentation
from ..workload.traffic import traffic_summary
from .metrics import Metrics, WorkerMetrics, merge_worker_metrics

#: Scenarios that resolve their victims at install time against the
#: (identical) initial state — safe to replay in every worker.  The
#: others (e.g. ``chaos_smoke``) install live-selector timelines whose
#: resolution depends on mid-run state a single worker cannot see.
PARALLEL_SAFE_SCENARIOS = frozenset(
    {"none", "one_backup", "f_backups", "primary", "payment_network"})

#: Selector prefixes that resolve against *live* deployment state
#: (current primary / current backups) rather than static topology.
_LIVE_SELECTOR_PREFIXES = ("primary:", "backup:", "backups:")

#: Hard cap on post-final exchange rounds; anything above ~2 indicates
#: a lookahead violation, so fail loudly rather than spin.
_MAX_FINAL_ROUNDS = 32


# ---------------------------------------------------------------------------
# Partitioning and lookahead
# ---------------------------------------------------------------------------
def partition_clusters(num_clusters: int,
                       workers: int) -> List[Tuple[int, ...]]:
    """Contiguous, balanced split of clusters ``1..z`` over workers.

    Contiguity keeps each worker's clusters geographically adjacent in
    the paper's region order, which maximizes the cross-worker latency
    floor (the lookahead) for the Table 1 topology.
    """
    workers = max(1, min(workers, num_clusters))
    base, extra = divmod(num_clusters, workers)
    parts: List[Tuple[int, ...]] = []
    start = 1
    for w in range(workers):
        size = base + (1 if w < extra else 0)
        parts.append(tuple(range(start, start + size)))
        start += size
    return parts


def lookahead_s(topology: Topology,
                parts: Sequence[Tuple[int, ...]],
                affinity: Optional[frozenset] = None) -> float:
    """The conservative lookahead: min one-way latency between any two
    clusters owned by different workers (0.0 if there is no such pair,
    which disables the parallel engine).

    ``affinity`` (see :func:`cluster_affinity_pairs`) restricts the
    minimum to cluster pairs the protocol actually exchanges messages
    between — links that can never carry a cross-worker message impose
    no synchronization constraint, so skipping them widens the window.
    """
    owner: Dict[int, int] = {}
    for w, part in enumerate(parts):
        for cluster in part:
            owner[cluster] = w
    best = math.inf
    clusters = sorted(owner)
    for a in clusters:
        for b in clusters:
            if a < b and owner[a] != owner[b]:
                if affinity is not None and (a, b) not in affinity \
                        and (b, a) not in affinity:
                    continue
                latency = topology.link(topology.regions[a - 1],
                                        topology.regions[b - 1]).latency_s
                if latency < best:
                    best = latency
    return 0.0 if best is math.inf else best


def cluster_affinity_pairs(config: ExperimentConfig
                           ) -> Optional[frozenset]:
    """The protocol's declared cross-cluster traffic pairs, or ``None``
    when every pair may exchange messages (the flat protocols run one
    group across all clusters, so any message may cross any link)."""
    clusters = range(1, config.num_clusters + 1)
    if config.protocol == "geobft":
        from ..core.geobft import GeoBftReplica
        return GeoBftReplica.cluster_affinity(clusters)
    if config.protocol == "steward":
        from ..consensus.steward import StewardReplica
        # Deployment._build_steward pins the primary cluster to 1.
        return StewardReplica.cluster_affinity(clusters,
                                               primary_cluster=1)
    return None


# ---------------------------------------------------------------------------
# Serial-fallback gates
# ---------------------------------------------------------------------------
def _fault_unsupported_reason(fault) -> Optional[str]:
    if fault.kind == "loss":
        return ("loss faults draw per-send randomness from a "
                "process-local RNG")
    if fault.kind == "delay" and getattr(fault, "jitter_ms", 0.0) > 0:
        return ("delay jitter draws per-send randomness from a "
                "process-local RNG")
    if fault.at > 0:
        # After t=0 worker states include in-flight view changes a
        # single worker cannot resolve consistently; at t=0 every
        # worker resolves live selectors against identical initial
        # state, which is safe.
        if fault.kind == "equivocate":
            return (f"fault {fault.name!r} resolves the live primary "
                    f"at t={fault.at:g}s")
        selectors: List = []
        for attr in ("targets", "a", "b", "node", "to"):
            value = getattr(fault, attr, None)
            if value:
                selectors.extend(value)
        for selector in selectors:
            if (isinstance(selector, str) and selector.strip()
                    .startswith(_LIVE_SELECTOR_PREFIXES)):
                return (f"fault {fault.name!r} resolves live selector "
                        f"{selector!r} at t={fault.at:g}s")
    return None


def parallel_unsupported_reason(config: ExperimentConfig,
                                timeline=None,
                                scenario: Optional[str] = None,
                                ) -> Optional[str]:
    """Why this run must use the serial engine, or ``None`` if the
    parallel engine reproduces it bit-identically.

    ``timeline`` may be a :class:`FaultTimeline` or its declarative
    dict form; ``scenario`` a registered scenario name.
    """
    if config.workers <= 1:
        return "workers <= 1"
    if config.num_clusters < 2:
        return "single-cluster deployment cannot be partitioned"
    parts = partition_clusters(config.num_clusters, config.workers)
    if lookahead_s(config.resolved_topology(), parts,
                   cluster_affinity_pairs(config)) <= 0.0:
        return "topology has a zero-latency cross-worker link"
    if scenario is not None and scenario not in PARALLEL_SAFE_SCENARIOS:
        return (f"scenario {scenario!r} resolves targets against live "
                f"mid-run state")
    if timeline is not None:
        if isinstance(timeline, dict):
            timeline = FaultTimeline.from_dict(timeline)
        for fault in timeline.faults:
            reason = _fault_unsupported_reason(fault)
            if reason is not None:
                return reason
    return None


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------
def _worker_loop(conn, spec) -> None:
    (config, owned_clusters, worker_index, worker_count, timeline_dict,
     scenario, fail_at) = spec
    owned_set = frozenset(owned_clusters)
    sim = WorkerSimulation(seed=config.seed, worker_index=worker_index,
                           worker_count=worker_count)
    metrics = WorkerMetrics(warmup=config.warmup)
    instrumentation = (WorkerInstrumentation(sim, worker_index)
                       if config.instrument else None)
    deployment = Deployment(config, _sim=sim, _metrics=metrics,
                            _instrumentation=instrumentation)

    owned_nodes = set()
    for cluster, members in deployment.cluster_members.items():
        if cluster in owned_set:
            owned_nodes.update(members)
    for client in deployment.clients:
        if client.node_id.cluster in owned_set:
            owned_nodes.add(client.node_id)
    deployment.network.enable_partition(owned_nodes)

    # Pre-run orchestration in the CLI's order — scenario first, then
    # timeline — so the rank-0 tie counters match the serial engine's
    # smallest sequence numbers exactly.
    if scenario:
        from .scenarios import apply_scenario
        apply_scenario(deployment, scenario, fail_at)
    if timeline_dict is not None:
        FaultTimeline.from_dict(timeline_dict).install(deployment)

    # Only owned clients start; the stamped rank makes same-instant
    # chains from different clusters compare in serial post order.
    for client in deployment.clients:
        cluster = client.node_id.cluster
        if cluster in owned_set:
            sim.schedule_ranked(0.0, cluster, client.start)

    network = deployment.network
    # The engine measures its own host-side behavior per barrier
    # window: time inside the event loop (busy), time blocked on the
    # orchestrator (barrier wait), and export/import volumes.  All
    # host-clock reads below feed *telemetry only* — never simulated
    # state — so determinism is untouched.
    engine_windows: List[Dict[str, object]] = []
    window_start = 0.0
    # One gc window around the whole run (the serial engine toggles per
    # ``run()`` call; per-window toggling would churn for nothing).
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        while True:
            waited_at = time.perf_counter()  # repro: allow[no-wallclock] host-side engine telemetry (barrier wait)
            msg = conn.recv()
            wait_s = time.perf_counter() - waited_at  # repro: allow[no-wallclock] host-side engine telemetry
            tag = msg[0]
            if tag == "advance" or tag == "final":
                _, end, imports = msg
                for rec in imports:
                    network.inject_import(rec)
                events_before = sim.events_processed
                busy_at = time.perf_counter()  # repro: allow[no-wallclock] host-side engine telemetry (worker busy time)
                if tag == "advance":
                    sim.run_window(end)
                else:
                    sim.run(until=end)
                busy_s = time.perf_counter() - busy_at  # repro: allow[no-wallclock] host-side engine telemetry
                exports = network.drain_exports()
                engine_windows.append({
                    "worker": worker_index,
                    "window": len(engine_windows),
                    "start": window_start,
                    "end": end,
                    "busy_s": busy_s,
                    "wait_s": wait_s,
                    "events": sim.events_processed - events_before,
                    "exports": len(exports),
                    "export_events": len(exports),
                    "imports": len(imports),
                })
                window_start = end
                conn.send(("exports", exports))
            elif tag == "summary":
                conn.send(("summary",
                           _summarize(deployment, owned_nodes,
                                      engine_windows)))
            elif tag == "exit":
                return
            else:  # pragma: no cover - protocol bug guard
                raise SimulationError(f"unknown worker command {tag!r}")
    finally:
        if gc_was_enabled:
            gc.enable()


def _worker_main(conn, spec) -> None:
    """Spawn entry point: run the loop, ship any failure as a message.

    ``REPRO_PROFILE=1`` profiles this worker under :mod:`cProfile` and
    dumps ``<REPRO_PROFILE_OUT or 'repro-profile'>-w<rank>.pstats`` on
    exit (the orchestrator process is profiled separately by the CLI),
    so parallel hot spots are attributable per worker.
    """
    profiler = None
    if os.environ.get("REPRO_PROFILE") == "1":
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    try:
        _worker_loop(conn, spec)
    # Not swallowed: the traceback is shipped to the orchestrator,
    # which re-raises it as SimulationError (_recv).
    # repro: allow[no-silent-except] failure is forwarded, not dropped
    except BaseException:
        import traceback
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass
    finally:
        if profiler is not None:
            profiler.disable()
            prefix = os.environ.get("REPRO_PROFILE_OUT", "repro-profile")
            profiler.dump_stats(f"{prefix}-w{spec[2]}.pstats")
        conn.close()


def _summarize(deployment: Deployment, owned_nodes,
               engine_windows: List[Dict[str, object]]) -> dict:
    """Everything the orchestrator needs to merge this worker's share."""
    sim = deployment.sim
    network = deployment.network
    crashed = network.failures.crashed_nodes
    timeline = deployment.timeline
    byzantine = (timeline.byzantine_nodes() if timeline is not None
                 else frozenset())

    ledger_rows: List[Tuple[str, int, str]] = []
    chains: Dict[str, List[str]] = {}
    hotstuff: Dict[str, List[Tuple[int, int, tuple]]] = {}
    verify_errors: List[str] = []
    final_height = 0
    for node, replica in deployment.replicas.items():
        final_height += replica.ledger.height
        if node not in owned_nodes:
            continue
        ledger_rows.append((str(node), replica.ledger.height,
                            replica.ledger.head_hash.hex()))
        if node in crashed or node in byzantine:
            continue
        # Alive (honest) replicas: the safety audit's inputs.  Verify
        # locally but let the *parent* decide whether the error counts
        # (the serial engine skips the audit entirely when fewer than
        # two replicas are alive deployment-wide).
        try:
            replica.ledger.verify(deep=False)
        except TamperedLedgerError as exc:
            verify_errors.append(str(exc))
        if deployment.config.protocol == "hotstuff":
            hotstuff[str(node)] = [
                (block.cluster_id, block.round_id,
                 tuple(txn.txn_id for txn in block.batch))
                for block in replica.ledger
            ]
        else:
            chains[str(node)] = [h.hex()
                                 for h in replica.ledger._hashes]
    return {
        "metrics": deployment.metrics,
        "events_processed": sim.events_processed,
        "shared_fired": sim.shared_fired,
        "max_queue_depth": sim.max_queue_depth,
        "now": sim.now,
        "telemetry": network.telemetry(),
        "ledger_rows": ledger_rows,
        "chains": chains,
        "hotstuff": hotstuff,
        "verify_errors": verify_errors,
        "crashed": sorted(crashed, key=str),
        "byzantine": sorted(byzantine, key=str),
        "activated": dict(timeline._activated) if timeline else {},
        "deactivated": dict(timeline._deactivated) if timeline else {},
        "final_height": final_height,
        # Pickled with _sim stripped (Instrumentation.__getstate__);
        # None on uninstrumented runs.
        "instrumentation": deployment.instrumentation,
        "engine_windows": engine_windows,
    }


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------
@dataclass
class EngineReport:
    """The parallel engine's own telemetry for one run.

    ``per_worker`` holds one totals dict per worker with keys
    ``worker``, ``clusters``, ``windows``, ``busy_s``, ``wait_s``,
    ``idle_fraction``, ``events``, ``exports``, ``export_events``,
    ``imports``.  Host-time figures (``busy_s``/``wait_s``) measure
    where *wall-clock* goes — they vary run to run and are telemetry
    only; everything else is deterministic.
    """

    workers: int
    lookahead: float
    windows: int
    per_worker: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (what ``repro run --json`` embeds)."""
        return {
            "workers": self.workers,
            "lookahead_s": self.lookahead,
            "windows": self.windows,
            "per_worker": [dict(w) for w in self.per_worker],
        }

    @staticmethod
    def worker_totals(worker: int, clusters: Sequence[int],
                      windows: Sequence[Dict[str, object]]
                      ) -> Dict[str, object]:
        """Aggregate one worker's per-window log into its totals row."""
        busy = sum(w["busy_s"] for w in windows)
        wait = sum(w["wait_s"] for w in windows)
        elapsed = busy + wait
        return {
            "worker": worker,
            "clusters": list(clusters),
            "windows": len(windows),
            "busy_s": busy,
            "wait_s": wait,
            "idle_fraction": (wait / elapsed) if elapsed > 0 else 0.0,
            "events": sum(w["events"] for w in windows),
            "exports": sum(w["exports"] for w in windows),
            "export_events": sum(w["export_events"] for w in windows),
            "imports": sum(w["imports"] for w in windows),
        }


@dataclass
class ParallelRun:
    """Outcome of one parallel run, with the merged observability the
    serial :class:`Deployment` would have exposed."""

    result: ExperimentResult
    digest: str
    events_processed: int
    max_queue_depth: int
    telemetry: Dict[str, int]
    invariants: InvariantReport
    metrics: Metrics
    workers: int
    lookahead: float
    windows: int
    #: Merged observability hub (None unless ``config.instrument``).
    instrumentation: Optional[Instrumentation] = None
    #: The engine's own telemetry (always present).
    engine: Optional[EngineReport] = None


def run_parallel(config: ExperimentConfig, timeline=None,
                 scenario: Optional[str] = None,
                 fail_at: float = 0.0) -> ParallelRun:
    """Run one experiment on the parallel engine.

    Callers should gate on :func:`parallel_unsupported_reason` first;
    this function trusts its verdict.  ``timeline`` may be a
    :class:`FaultTimeline` (not yet installed) or its dict form — each
    worker instantiates its own copy from the declarative spec.
    """
    reason = parallel_unsupported_reason(config, timeline=timeline,
                                         scenario=scenario)
    if reason is not None:
        raise SimulationError(f"configuration needs the serial engine: "
                              f"{reason}")
    timeline_dict = (timeline.to_dict()
                     if isinstance(timeline, FaultTimeline) else timeline)
    parts = partition_clusters(config.num_clusters, config.workers)
    topology = config.resolved_topology()
    lookahead = lookahead_s(topology, parts, cluster_affinity_pairs(config))
    duration = config.duration
    n_windows = max(1, math.ceil(duration / lookahead))
    owner_of: Dict[int, int] = {}
    for w, part in enumerate(parts):
        for cluster in part:
            owner_of[cluster] = w

    ctx = multiprocessing.get_context("spawn")
    conns = []
    procs = []
    try:
        for index, part in enumerate(parts):
            parent_conn, child_conn = ctx.Pipe()
            spec = (config, part, index, len(parts), timeline_dict,
                    scenario, fail_at)
            proc = ctx.Process(target=_worker_main,
                               args=(child_conn, spec), daemon=True)
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)

        inboxes: List[list] = [[] for _ in parts]

        def route(exports) -> None:
            for rec in exports:
                # Serial leaves deliveries past the horizon queued and
                # unfired; dropping them keeps event counts identical.
                if rec.arrival > duration:
                    continue
                inboxes[owner_of[rec.dst.cluster]].append(rec)

        for k in range(1, n_windows + 1):
            end = min(k * lookahead, duration)
            tag = "final" if k == n_windows else "advance"
            outgoing, inboxes = inboxes, [[] for _ in parts]
            for w, conn in enumerate(conns):
                conn.send((tag, end, outgoing[w]))
            for conn in conns:
                route(_recv(conn, "exports"))

        # Boundary imports that land exactly on the horizon (arrival ==
        # duration) still fire in the serial engine; re-run the final
        # window until the exchange drains (their descendants arrive
        # strictly past the horizon, so this converges immediately).
        rounds = 0
        while any(inboxes):
            rounds += 1
            if rounds > _MAX_FINAL_ROUNDS:
                raise SimulationError(
                    "parallel final exchange did not converge; "
                    "lookahead violation?")
            outgoing, inboxes = inboxes, [[] for _ in parts]
            for w, conn in enumerate(conns):
                if outgoing[w]:
                    conn.send(("final", duration, outgoing[w]))
            for w, conn in enumerate(conns):
                if outgoing[w]:
                    route(_recv(conn, "exports"))

        summaries = []
        for conn in conns:
            conn.send(("summary",))
        for conn in conns:
            summaries.append(_recv(conn, "summary"))
        for conn in conns:
            conn.send(("exit",))
        for proc in procs:
            proc.join(timeout=60)
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10)

    run = _merge(config, summaries, timeline_dict)
    run.workers = len(parts)
    run.lookahead = lookahead
    run.windows = n_windows
    per_worker = [
        EngineReport.worker_totals(w, parts[w], s["engine_windows"])
        for w, s in enumerate(summaries)
    ]
    run.engine = EngineReport(workers=len(parts), lookahead=lookahead,
                              windows=n_windows, per_worker=per_worker)
    if run.instrumentation is not None:
        all_windows = [w for s in summaries for w in s["engine_windows"]]
        run.instrumentation.set_engine_track(all_windows, per_worker)
    return run


def _recv(conn, expected: str):
    reply = conn.recv()
    if reply[0] == "error":
        raise SimulationError(f"parallel worker failed:\n{reply[1]}")
    if reply[0] != expected:  # pragma: no cover - protocol bug guard
        raise SimulationError(f"expected {expected!r} from worker, got "
                              f"{reply[0]!r}")
    return reply[1]


# ---------------------------------------------------------------------------
# Merge: rebuild the serial engine's outputs from worker shares
# ---------------------------------------------------------------------------
def _merge(config: ExperimentConfig, summaries: List[dict],
           timeline_dict) -> ParallelRun:
    workers = len(summaries)
    shared = {s["shared_fired"] for s in summaries}
    if len(shared) != 1:
        raise SimulationError(
            f"workers disagree on shared orchestration events "
            f"({sorted(shared)}); the runs diverged")
    # Rank-0 (orchestration) events fire once *per worker*; the serial
    # engine fired each exactly once.
    events_processed = (sum(s["events_processed"] for s in summaries)
                        - (workers - 1) * shared.pop())
    end_time = summaries[0]["now"]

    metrics = merge_worker_metrics([s["metrics"] for s in summaries],
                                   warmup=config.warmup,
                                   end_time=end_time)
    telemetry: Dict[str, int] = {}
    for s in summaries:
        for key, value in s["telemetry"].items():
            telemetry[key] = telemetry.get(key, 0) + value
    max_queue_depth = max(s["max_queue_depth"] for s in summaries)
    ledger_rows = [row for s in summaries for row in s["ledger_rows"]]

    byzantine: set = set()
    for s in summaries:
        byzantine.update(s["byzantine"])
    safety_ok = _merge_safety(config, summaries)
    failures = _merge_liveness(summaries, timeline_dict)
    report = InvariantReport(
        safety_ok=safety_ok,
        liveness_ok=not failures,
        liveness_failures=tuple(failures),
        byzantine_excluded=tuple(sorted(byzantine, key=str)),
    )

    result = ExperimentResult(
        protocol=config.protocol,
        num_clusters=config.num_clusters,
        replicas_per_cluster=config.replicas_per_cluster,
        batch_size=config.batch_size,
        throughput_txn_s=metrics.throughput_txn_s(),
        avg_latency_s=metrics.avg_latency_s(),
        p50_latency_s=metrics.p50_latency_s(),
        completed_txns=metrics.completed_txns,
        duration=end_time,
        local_messages=metrics.local_messages,
        global_messages=metrics.global_messages,
        local_bytes=metrics.local_bytes,
        global_bytes=metrics.global_bytes,
        safety_ok=report.safety_ok,
        p95_latency_s=metrics.p95_latency_s(),
        p99_latency_s=metrics.p99_latency_s(),
        submitted_txns=metrics.submitted_txns,
        measured_submitted_txns=metrics.measured_submitted_txns,
        offered_load_txn_s=metrics.offered_load_txn_s(),
        liveness_ok=report.liveness_ok,
        traffic=(traffic_summary(metrics, config.traffic)
                 if config.traffic is not None else None),
    )
    instrumentation: Optional[Instrumentation] = None
    if config.instrument:
        # Fold worker hubs in worker order; merge() re-sorts events by
        # their composite tie keys, so the result is independent of
        # fold order anyway.
        instrumentation = Instrumentation(None)
        for s in summaries:
            instrumentation.merge(s["instrumentation"])

    digest = digest_from_parts(result, events_processed, ledger_rows)
    return ParallelRun(
        result=result,
        digest=digest,
        events_processed=events_processed,
        max_queue_depth=max_queue_depth,
        telemetry=telemetry,
        invariants=report,
        metrics=metrics,
        workers=workers,
        lookahead=0.0,
        windows=0,
        instrumentation=instrumentation,
    )


def _merge_safety(config: ExperimentConfig,
                  summaries: List[dict]) -> bool:
    """Replay :meth:`Deployment.check_safety` from worker shares."""
    if config.protocol == "hotstuff":
        alive = sum(len(s["hotstuff"]) for s in summaries)
    else:
        alive = sum(len(s["chains"]) for s in summaries)
    if alive < 2:
        return True
    for s in summaries:
        if s["verify_errors"]:
            raise TamperedLedgerError(s["verify_errors"][0])
    if config.protocol == "hotstuff":
        slots: Dict[tuple, tuple] = {}
        for s in summaries:
            for blocks in s["hotstuff"].values():
                for cluster_id, round_id, txns in blocks:
                    txns = tuple(txns)
                    seen = slots.setdefault((cluster_id, round_id), txns)
                    if seen != txns:
                        return False
        return True
    chains = [chain for s in summaries for chain in s["chains"].values()]
    # Any maximal chain works as the reference: if two maximal chains
    # differ the check fails for either choice, and if they agree the
    # choice is irrelevant.
    reference = max(chains, key=len)
    return all(chain == reference[:len(chain)] for chain in chains)


def _merge_liveness(summaries: List[dict], timeline_dict) -> List[str]:
    """Replay :meth:`FaultTimeline.liveness_failures` from worker
    shares: each worker snapshots the heights of *its* replicas at the
    (identical) activation instants, so summing per-index snapshots
    reconstructs the deployment-wide totals."""
    if timeline_dict is None:
        return []
    timeline = FaultTimeline.from_dict(timeline_dict)
    final = sum(s["final_height"] for s in summaries)
    activated: Dict[int, Tuple[float, int]] = {}
    deactivated: Dict[int, Tuple[float, int]] = {}
    for s in summaries:
        for index, (when, height) in s["activated"].items():
            prev = activated.get(index)
            activated[index] = (when,
                                (prev[1] if prev else 0) + height)
        for index, (when, height) in s["deactivated"].items():
            prev = deactivated.get(index)
            deactivated[index] = (when,
                                  (prev[1] if prev else 0) + height)
    failures: List[str] = []
    for index, fault in enumerate(timeline.faults):
        if index not in activated or not fault.expect_recovery:
            continue
        if fault.until is not None:
            if index not in deactivated:
                continue  # window still open when the run ended
            when, height = deactivated[index]
            what = "after its window closed"
        else:
            when, height = activated[index]
            what = "after it activated"
        if final <= height:
            failures.append(
                f"fault {fault.name!r}: no ledger progress {what} "
                f"(t={when:.3f}s, total height stuck at {height})")
    return failures
