"""The campaign registry and the built-in paper campaigns.

``register_campaign`` mirrors the failure-scenario registry
(:func:`repro.bench.scenarios.register_scenario`): campaigns are
registered as *factories* so the grids re-read the scale-control
environment (``REPRO_BENCH_FULL``, ``REPRO_BENCH_DURATION``,
``REPRO_BENCH_TIME_SCALE``) every time a campaign is built — the same
knobs the bespoke benchmark scripts have always honoured.

Built-ins::

    fig10     geo-scale sweep (throughput/latency vs #regions)
    fig11     cluster-size sweep (z = 4)
    fig12     failure panels (one backup, f backups, primary crash)
    fig13     batch-size sweep (z = 4, n = 7)
    table1    simulated WAN matrix (probe-only, no deployment runs)
    table2    message complexity, analytic vs measured
    ablation-pipeline  GeoBFT round-pipeline window sweep (§2.5)
    ablation-sharing   GeoBFT inter-cluster sharing strategies (§2.3)
    scale     engine wall-time sweep -> BENCH_scale.json
    ci-smoke  the scale sweep's n=16 point
    paper     fig10 + fig11 + scale in one DAG
    overload  open-loop traffic 0.5x-4x saturation -> BENCH_overload.json
    chaos     protocol x chaos_smoke matrix with the invariant audit

The figure, table, ablation and chaos campaigns carry the paper's
claims (:mod:`repro.sweep.claims`); ``paper`` carries those of the
campaigns it contains.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from typing import Any, Callable, Dict, List, Tuple

from ..bench.deployment import PROTOCOLS, ExperimentConfig
from ..consensus.pbft import PbftConfig
from ..core.config import GeoBftConfig
from ..errors import ConfigurationError
from ..workload.traffic import TrafficSpec
from . import claims
from .model import Campaign, ReportSpec, RunSpec
from .reports import (build_ablation, build_bench, build_chaos, build_fig10,
                      build_fig11, build_fig12, build_fig13, build_table1,
                      build_table2)
from .store import (OVERLOAD_BENCH, OVERLOAD_SIM_DURATION, SCALE_BENCH,
                    SCALE_SIM_DURATION)

#: Scale-sweep grid: the rows of BENCH_scale.json.
SCALE_POINTS = (16, 32, 64, 91, 256)
SCALE_SIM_WARMUP = 0.3

#: Overload sweep: open-loop offered load as a multiple of each
#: protocol's measured saturation goodput.
OVERLOAD_USERS = 1_200_000
OVERLOAD_FACTORS = (0.5, 1.0, 2.0, 4.0)

#: Closed-loop saturation goodput (txn/s) measured at the overload
#: point config (2x4, batch=100, fast crypto, 4 clients x 8
#: outstanding) — the x-axis anchor: offered load is ``x * SAT``.
OVERLOAD_SATURATION = {
    "geobft": 125_000,
    "pbft": 80_000,
    "zyzzyva": 125_000,
    "hotstuff": 50_000,
    "steward": 3_600,
}


# ----------------------------------------------------------------------
# Scale control (environment knobs)
# ----------------------------------------------------------------------

def full_scale() -> bool:
    """``REPRO_BENCH_FULL=1``: the paper's exact deployment sizes."""
    return os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")


def sim_duration(default: float) -> float:
    """Simulated seconds per data point.

    ``REPRO_BENCH_DURATION`` replaces every duration with an absolute
    value; ``REPRO_BENCH_TIME_SCALE`` multiplies the per-figure defaults
    (preserving their relative lengths — e.g. the longer primary-failure
    recovery window stays proportionally longer).
    """
    override = os.environ.get("REPRO_BENCH_DURATION")
    if override:
        return float(override)
    scale = float(os.environ.get("REPRO_BENCH_TIME_SCALE", "1.0"))
    return default * scale


def point_config(protocol: str, num_clusters: int, replicas_per_cluster: int,
                 batch_size: int = 100, duration: float = 1.6,
                 warmup: float = 0.4, seed: int = 2,
                 **overrides: Any) -> ExperimentConfig:
    """One figure data point, with benchmark-appropriate defaults."""
    params: Dict[str, Any] = dict(
        protocol=protocol,
        num_clusters=num_clusters,
        replicas_per_cluster=replicas_per_cluster,
        batch_size=batch_size,
        duration=sim_duration(duration),
        warmup=warmup,
        seed=seed,
        record_count=10_000,
        fast_crypto=True,
    )
    if "duration" in overrides:
        overrides = dict(overrides)
        overrides["duration"] = sim_duration(overrides["duration"])
    params.update(overrides)
    return ExperimentConfig(**params)


def geo_scale_points() -> List[Tuple[int, int]]:
    """(z, n) pairs for Figure 10: fixed total replicas spread over a
    growing number of regions."""
    if full_scale():
        total = 60
        zs = [1, 2, 3, 4, 5, 6]
    else:
        total = 24
        zs = [1, 2, 3, 4, 6]
    return [(z, total // z) for z in zs]


def cluster_size_points() -> List[int]:
    """n values for Figure 11 (z = 4)."""
    return [4, 7, 10, 12, 15] if full_scale() else [4, 7, 10]


def failure_points() -> List[int]:
    """n values for Figure 12 (z = 4)."""
    return [4, 7, 10, 12] if full_scale() else [4, 7]


def batch_points() -> List[int]:
    """Batch sizes for Figure 13 (z = 4, n = 7)."""
    return [10, 50, 100, 200, 300]


def scale_config(total: int, seed: int = 2,
                 protocol: str = "geobft") -> ExperimentConfig:
    """Deployment config for ``total`` replicas (the scale sweep).

    n=91 reproduces the paper's six-region spread (16+15×5); the
    smaller points use four equal clusters so f ≥ 1 per cluster holds
    down to n=16.
    """
    if total == 91:
        z, sizes = 6, [16, 15, 15, 15, 15, 15]
    else:
        z, sizes = 4, [total // 4] * 4
    return ExperimentConfig(
        protocol=protocol,
        num_clusters=z,
        replicas_per_cluster=sizes[0],
        cluster_sizes=sizes,
        batch_size=100,
        duration=SCALE_SIM_DURATION,
        warmup=SCALE_SIM_WARMUP,
        seed=seed,
        record_count=10_000,
        fast_crypto=True,
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

CampaignFactory = Callable[[], Campaign]

_CAMPAIGNS: Dict[str, CampaignFactory] = {}


def register_campaign(name: str, factory: CampaignFactory,
                      replace: bool = False) -> None:
    """Register a campaign factory under ``name``.

    Mirrors :func:`repro.bench.scenarios.register_scenario`: re-using a
    name raises unless ``replace=True`` (tests and downstream projects
    may deliberately override a built-in).
    """
    if name in _CAMPAIGNS and not replace:
        raise ConfigurationError(
            f"campaign {name!r} is already registered "
            "(pass replace=True to override)")
    _CAMPAIGNS[name] = factory


def campaign_names() -> List[str]:
    """Registered campaign names, sorted."""
    return sorted(_CAMPAIGNS)


def get_campaign(name: str) -> Campaign:
    """Build the registered campaign ``name`` (grids read the current
    environment, so the same name can expand differently under
    ``REPRO_BENCH_FULL=1``)."""
    try:
        factory = _CAMPAIGNS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown campaign {name!r}; registered: "
            f"{', '.join(campaign_names())}") from None
    campaign = factory()
    if campaign.name != name:
        raise ConfigurationError(
            f"campaign factory for {name!r} built a campaign named "
            f"{campaign.name!r}")
    return campaign


# ----------------------------------------------------------------------
# Built-in campaigns
# ----------------------------------------------------------------------

def fig10_campaign() -> Campaign:
    points = geo_scale_points()
    runs = []
    for protocol in PROTOCOLS:
        for i, (z, n) in enumerate(points):
            runs.append(RunSpec(
                run_id=f"fig10/{protocol}/z{z}",
                config=point_config(protocol, z, n, duration=1.4),
                tags={"figure": "fig10", "protocol": protocol,
                      "x": z, "xi": i, "total": z * n}))
    return Campaign(
        name="fig10",
        description="Figure 10 — throughput/latency vs #clusters at a "
                    "fixed total replica budget",
        runs=tuple(runs),
        reports=(ReportSpec("fig10", "fig10.txt", build_fig10),),
        claims=claims.fig10_claims())


def fig11_campaign() -> Campaign:
    z = 4
    points = cluster_size_points()
    runs = []
    for protocol in PROTOCOLS:
        for i, n in enumerate(points):
            runs.append(RunSpec(
                run_id=f"fig11/{protocol}/n{n}",
                config=point_config(protocol, z, n, duration=1.4),
                tags={"figure": "fig11", "protocol": protocol,
                      "x": n, "xi": i}))
    return Campaign(
        name="fig11",
        description="Figure 11 — throughput/latency vs replicas per "
                    "cluster (z = 4)",
        runs=tuple(runs),
        reports=(ReportSpec("fig11", "fig11.txt", build_fig11),),
        claims=claims.fig11_claims(points))


def fig12_campaign() -> Campaign:
    z = 4
    points = failure_points()

    def config(protocol: str, n: int, **overrides: Any) -> ExperimentConfig:
        params: Dict[str, Any] = dict(duration=2.0, warmup=0.5)
        params.update(overrides)
        return point_config(protocol, z, n, **params)

    runs = []
    for scenario in ("one_backup", "f_backups"):
        for protocol in PROTOCOLS:
            for i, n in enumerate(points):
                runs.append(RunSpec(
                    run_id=f"fig12/{scenario}/{protocol}/n{n}",
                    config=config(protocol, n),
                    scenario=scenario,
                    tags={"figure": "fig12", "panel": scenario,
                          "protocol": protocol, "x": n, "xi": i}))
    # Primary-crash panel (GeoBFT + PBFT only, as in the paper) with its
    # failure-free reference runs.  Recovery timers are absolute, so the
    # window must not shrink with REPRO_BENCH_TIME_SCALE — the duration
    # is forced after point_config applies the env knobs.
    for protocol in ("geobft", "pbft"):
        for i, n in enumerate(points):
            baseline = dataclasses.replace(
                config(protocol, n, warmup=0.4), duration=4.5)
            runs.append(RunSpec(
                run_id=f"fig12/baseline/{protocol}/n{n}",
                config=baseline,
                tags={"figure": "fig12", "panel": "baseline",
                      "protocol": protocol, "x": n, "xi": i}))
    for protocol in ("geobft", "pbft"):
        for i, n in enumerate(points):
            crashed = dataclasses.replace(
                config(protocol, n, warmup=0.4, view_change_timeout=0.6,
                       client_retry_timeout=1.2, checkpoint_interval=6),
                duration=4.5)
            runs.append(RunSpec(
                run_id=f"fig12/primary/{protocol}/n{n}",
                config=crashed,
                scenario="primary",
                fail_at=0.8,
                # The recovery run is judged against its failure-free
                # reference, so the reference must exist first.
                depends_on=(f"fig12/baseline/{protocol}/n{n}",),
                tags={"figure": "fig12", "panel": "primary",
                      "protocol": protocol, "x": n, "xi": i}))
    return Campaign(
        name="fig12",
        description="Figure 12 — throughput under crash failures "
                    "(one backup, f backups, primary)",
        runs=tuple(runs),
        reports=(ReportSpec("fig12", "fig12.txt", build_fig12),),
        claims=claims.fig12_claims(points))


def fig13_campaign() -> Campaign:
    z, n = 4, 7
    points = batch_points()
    runs = []
    for protocol in PROTOCOLS:
        for i, batch in enumerate(points):
            runs.append(RunSpec(
                run_id=f"fig13/{protocol}/b{batch}",
                config=point_config(protocol, z, n, batch_size=batch,
                                    duration=1.4),
                tags={"figure": "fig13", "protocol": protocol,
                      "x": batch, "xi": i}))
    return Campaign(
        name="fig13",
        description="Figure 13 — throughput vs batch size (z = 4, n = 7)",
        runs=tuple(runs),
        reports=(ReportSpec("fig13", "fig13.txt", build_fig13),),
        claims=claims.fig13_claims(points))


def table1_campaign() -> Campaign:
    return Campaign(
        name="table1",
        description="Table 1 — simulated WAN RTT/bandwidth matrix "
                    "(network probes; no deployment runs)",
        runs=(),
        reports=(ReportSpec("table1", "table1.txt", build_table1),),
        claims=claims.table1_claims())


def table2_campaign() -> Campaign:
    z, n = 4, 7
    runs = []
    for protocol in PROTOCOLS:
        runs.append(RunSpec(
            run_id=f"table2/{protocol}",
            config=point_config(protocol, z, n, batch_size=50,
                                duration=1.2, warmup=0.3),
            tags={"figure": "table2", "protocol": protocol}))
    return Campaign(
        name="table2",
        description="Table 2 — message complexity per decision, "
                    "analytic vs measured",
        runs=tuple(runs),
        reports=(ReportSpec("table2", "table2.txt", build_table2),),
        claims=claims.table2_claims())


def _ablation_run(figure: str, x: Any, xi: int,
                  **geobft: Any) -> RunSpec:
    """One GeoBFT point (z = 4, n = 7, batch 100) of an ablation."""
    config = point_config("geobft", 4, 7, duration=1.4,
                          geobft=GeoBftConfig(remote_timeout=10.0, **geobft))
    return RunSpec(run_id=f"{figure}/{x}", config=config,
                   tags={"figure": figure, "protocol": "geobft", "x": x,
                         "xi": xi})


def pipeline_ablation_campaign() -> Campaign:
    """§2.5 disabled: a round window of 1 makes a cluster execute round
    rho before it replicates round rho + 1, so every round pays the full
    WAN exchange; the window grows toward unbounded overlap, the
    paper's design."""
    windows = (1, 2, 4, 8, 16, 32, "unbounded")
    return Campaign(
        name="ablation-pipeline",
        description="Ablation — GeoBFT round-pipeline window (z = 4, "
                    "n = 7, batch 100)",
        runs=tuple(_ablation_run(
            "ablation-pipeline", window, i,
            round_pipeline=None if window == "unbounded" else window)
            for i, window in enumerate(windows)),
        reports=(ReportSpec("ablation-pipeline", "ablation_pipeline.txt",
                            functools.partial(build_ablation,
                                              "ablation-pipeline")),),
        claims=claims.pipeline_claims())


def sharing_ablation_campaign() -> Campaign:
    """§2.3: how many replicas of a remote cluster receive the global
    share — the broken single send, the paper's optimistic f + 1, or
    every replica."""
    strategies = ("single", "optimistic_f1", "all")
    return Campaign(
        name="ablation-sharing",
        description="Ablation — GeoBFT inter-cluster sharing strategy "
                    "(z = 4, n = 7, batch 100)",
        runs=tuple(_ablation_run("ablation-sharing", strategy, i,
                                 sharing_strategy=strategy)
                   for i, strategy in enumerate(strategies)),
        reports=(ReportSpec("ablation-sharing", "ablation_sharing.txt",
                            functools.partial(build_ablation,
                                              "ablation-sharing")),),
        claims=claims.sharing_claims())


def _scale_runs(points: Tuple[int, ...]) -> Tuple[RunSpec, ...]:
    return tuple(RunSpec(run_id=SCALE_BENCH.run_id(n=total),
                         config=scale_config(total),
                         tags={"figure": "scale", "n": total})
                 for total in points)


def scale_campaign() -> Campaign:
    return Campaign(
        name="scale",
        description="Engine wall-time sweep at paper scale; regenerates "
                    "BENCH_scale.json",
        runs=_scale_runs(SCALE_POINTS),
        reports=(ReportSpec("bench-scale", "BENCH_scale.json",
                            functools.partial(build_bench, "scale")),))


def overload_spec(protocol: str, x: float) -> TrafficSpec:
    """The open-loop traffic spec for one overload point.

    ``OVERLOAD_USERS`` users collectively offer ``x`` times the
    protocol's saturation goodput as a Poisson arrival process, with
    the client-side overload semantics fixed across the sweep: a
    bounded in-flight window (admission control), a 0.75 s commit
    deadline, and two seeded retries with exponential backoff.
    """
    rate = x * OVERLOAD_SATURATION[protocol] / OVERLOAD_USERS
    return TrafficSpec(
        process="poisson",
        users=OVERLOAD_USERS,
        rate_per_user=rate,
        tick=0.02,
        deadline=0.75,
        max_retries=2,
        retry_backoff=0.25,
        window=20_000,
    )


def overload_campaign() -> Campaign:
    """Offered-load sweep from 0.5x to 4x saturation, all protocols,
    plus one GeoBFT 2x point on the conflict-bearing payment workload.
    """
    points = [(protocol, i, x, "ycsb") for protocol in PROTOCOLS
              for i, x in enumerate(OVERLOAD_FACTORS)]
    # One conflict-bearing point: interbank payments at 2x saturation.
    points.append(("geobft", 2, 2.0, "payment"))
    runs = [RunSpec(
        run_id=OVERLOAD_BENCH.run_id(protocol=protocol, workload=workload,
                                     x=x),
        config=point_config(protocol, 2, 4, duration=OVERLOAD_SIM_DURATION,
                            traffic=overload_spec(protocol, x)),
        scenario="payment_network" if workload == "payment" else "none",
        tags={"figure": "overload", "protocol": protocol, "x": x, "xi": i,
              "workload": workload})
        for protocol, i, x, workload in points]
    return Campaign(
        name="overload",
        description="Open-loop overload sweep (0.5x-4x saturation, "
                    f"{OVERLOAD_USERS:,} modeled users); regenerates "
                    "BENCH_overload.json",
        runs=tuple(runs),
        reports=(ReportSpec("bench-overload", "BENCH_overload.json",
                            functools.partial(build_bench, "overload")),))


def chaos_config(protocol: str) -> ExperimentConfig:
    """The chaos-smoke deployment (mirrors ``tests/test_chaos.py``).

    A 2x4 deployment tuned so crash recovery, partition healing, and
    the view changes the Byzantine faults force all fit in the run.
    The duration is absolute — the timeline's fault instants and
    recovery timers are absolute simulated times, so the window must
    not shrink under ``REPRO_BENCH_TIME_SCALE``.
    """
    return ExperimentConfig(
        protocol=protocol, num_clusters=2, replicas_per_cluster=4,
        batch_size=5, clients_per_cluster=1, client_outstanding=2,
        duration=10.0, warmup=0.5, seed=3, fast_crypto=True,
        record_count=100, view_change_timeout=0.8,
        client_retry_timeout=2.0,
        geobft=GeoBftConfig(pbft=PbftConfig(view_change_timeout=0.8,
                                            new_view_timeout=0.8),
                            remote_timeout=0.8),
    )


def chaos_campaign() -> Campaign:
    """The chaos matrix: every protocol through the seeded
    ``chaos_smoke`` timeline (crash + partition/heal + Byzantine
    tampering), with the invariant audit as the report and as hard
    claims — the campaign form of the per-protocol CI chaos-smoke
    jobs."""
    runs = []
    for protocol in PROTOCOLS:
        runs.append(RunSpec(
            run_id=f"chaos/{protocol}",
            config=chaos_config(protocol),
            scenario="chaos_smoke",
            tags={"figure": "chaos", "protocol": protocol}))
    return Campaign(
        name="chaos",
        description="Chaos matrix — every protocol through the seeded "
                    "crash/partition/Byzantine timeline, audited",
        runs=tuple(runs),
        reports=(ReportSpec("chaos-audit", "chaos_audit.txt",
                            build_chaos),),
        claims=claims.chaos_claims(PROTOCOLS))


def ci_smoke_campaign() -> Campaign:
    return Campaign(
        name="ci-smoke",
        description="CI perf smoke: the scale sweep's n=16 point "
                    "(digest drift + wall budget)",
        runs=_scale_runs((16,)))


def paper_campaign() -> Campaign:
    """The headline composite: geo-scale + cluster-size figures plus the
    engine scale sweep, as one DAG (run ids keep their own prefixes, so
    ``--filter fig10/`` etc. still select one figure) carrying the
    figures' claims."""
    parts = (fig10_campaign(), fig11_campaign(), scale_campaign())
    return Campaign(
        name="paper",
        description="Reproduce the paper's headline results: fig10 + "
                    "fig11 + the engine scale sweep",
        runs=sum((part.runs for part in parts), ()),
        reports=sum((part.reports for part in parts), ()),
        claims=sum((part.claims for part in parts), ()))


register_campaign("fig10", fig10_campaign)
register_campaign("fig11", fig11_campaign)
register_campaign("fig12", fig12_campaign)
register_campaign("fig13", fig13_campaign)
register_campaign("table1", table1_campaign)
register_campaign("table2", table2_campaign)
register_campaign("ablation-pipeline", pipeline_ablation_campaign)
register_campaign("ablation-sharing", sharing_ablation_campaign)
register_campaign("scale", scale_campaign)
register_campaign("ci-smoke", ci_smoke_campaign)
register_campaign("paper", paper_campaign)
register_campaign("overload", overload_campaign)
register_campaign("chaos", chaos_campaign)


__all__ = [
    "OVERLOAD_FACTORS",
    "OVERLOAD_SATURATION",
    "OVERLOAD_USERS",
    "PROTOCOLS",
    "SCALE_POINTS",
    "SCALE_SIM_DURATION",
    "SCALE_SIM_WARMUP",
    "batch_points",
    "campaign_names",
    "chaos_config",
    "cluster_size_points",
    "failure_points",
    "full_scale",
    "geo_scale_points",
    "get_campaign",
    "overload_spec",
    "point_config",
    "register_campaign",
    "scale_config",
    "sim_duration",
]
