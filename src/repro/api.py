"""The stable public API of the reproduction.

Everything an experiment driver, notebook, or test needs lives here
under one flat namespace — import from :mod:`repro` (which re-exports
this module) instead of deep-importing ``repro.bench.deployment`` or
other internals, whose layout may change between versions:

* **Running experiments** — :class:`ExperimentConfig` (one data point's
  knobs), :func:`run_experiment` (build + run + aggregate),
  :class:`ExperimentResult` (the row, with ``describe()``/``to_dict()``/
  ``to_json()``), :class:`Deployment` for staged control (build, arrange
  faults, ``run()``), and :func:`deployment_digest` for determinism
  checks.
* **Observability** — :class:`Instrumentation` (the phase-event hub),
  :class:`LatencyHistogram`, and :func:`load_trace_jsonl` for offline
  analysis of exported traces.
* **Fault injection** — :class:`FaultTimeline` plus the fault taxonomy
  (:class:`CrashFault`, :class:`PartitionFault`, :class:`LinkDelayFault`,
  :class:`MessageLossFault`, :class:`OmissionFault`, :class:`TamperFault`,
  :class:`EquivocateFault`), :func:`apply_scenario` /
  :func:`register_scenario` for the named-scenario registry, and
  :class:`InvariantReport` from the post-run safety+liveness audit.
* **Workloads & open-loop traffic** — :class:`TrafficSpec` (aggregate
  arrival-process spec: ``"poisson:users=1000000,rate=0.002"``; set it
  as ``ExperimentConfig(traffic=...)`` to replace the closed-loop
  clients with one :class:`OpenLoopSource` per region, modeling any
  user population in O(arrivals)), :func:`traffic_summary` (the
  offered/goodput/abandonment block on ``ExperimentResult.traffic``),
  and :class:`PaymentWorkload` — the conflict-bearing interbank
  transfer generator behind the ``payment_network`` scenario.
* **Campaigns** — :class:`Campaign` / :class:`RunSpec` /
  :class:`ReportSpec` / :class:`Claim` (a DAG of deterministic runs,
  the artifacts regenerated from them, and the paper's claims checked
  on them), :func:`run_campaign` (DAG scheduler with a
  ``jobs``-sized process pool — the package's only use of several
  host cores — returning a :class:`CampaignOutcome`),
  :class:`ResultStore` (the digest-keyed JSONL result store),
  :func:`register_campaign` /
  :func:`campaign_names` / :func:`get_campaign` for the campaign
  registry (mirroring the scenario registry), and
  :func:`calibrate_host` — the shared host-speed normalizer behind
  cross-machine perf comparisons.

Typical staged run::

    from repro import (Deployment, ExperimentConfig, FaultTimeline,
                       CrashFault, PartitionFault)

    deployment = Deployment(ExperimentConfig(protocol="geobft",
                                             num_clusters=2,
                                             replicas_per_cluster=4,
                                             duration=6.0, warmup=1.0))
    FaultTimeline([
        CrashFault("primary:1", at=1.0),
        PartitionFault(["cluster:1"], ["cluster:2"], at=2.0, until=3.5),
    ]).install(deployment)
    result = deployment.run()
    assert deployment.invariants.ok
"""

from . import _lazy_exports

# Each name imports its module on first access (see ``repro``): a
# single run never loads the campaign layer (``multiprocessing``, the
# result stores), nor the chaos engine or open-loop traffic unless it
# uses them.
__getattr__, __all__ = _lazy_exports(globals(), {
    # experiments
    ".bench.deployment": ("PROTOCOLS", "Deployment", "ExperimentConfig",
                          "ExperimentResult", "InvariantReport",
                          "deployment_digest", "run_experiment"),
    # observability
    ".bench.instrumentation": ("Instrumentation", "LatencyHistogram"),
    ".bench.tracing": ("load_trace_jsonl",),
    # scenarios
    ".bench.scenarios": ("SCENARIOS", "apply_scenario",
                         "chaos_smoke_timeline", "register_scenario",
                         "scenario_names"),
    # fault injection
    ".net.chaos": ("ChaosContext", "CrashFault", "EquivocateFault",
                   "FAULT_KINDS", "Fault", "FaultTimeline",
                   "LinkDelayFault", "MessageLossFault", "OmissionFault",
                   "PartitionFault", "TamperFault", "fault_from_dict"),
    # workloads & open-loop traffic
    ".workload.payment": ("PaymentWorkload",),
    ".workload.traffic": ("TRAFFIC_PROCESSES", "OpenLoopSource",
                          "TrafficSpec", "traffic_summary"),
    # campaigns
    ".sweep": ("Campaign", "CampaignOutcome", "Claim", "ReportSpec",
               "ResultStore", "RunSpec", "calibrate_host", "campaign_names",
               "expand_grid", "get_campaign", "register_campaign",
               "run_campaign"),
})
