"""repro — a reproduction of *ResilientDB: Global Scale Resilient
Blockchain Fabric* (Gupta, Rahnama, Hellings, Sadoghi; VLDB 2020).

The package implements the GeoBFT consensus protocol, the ResilientDB
ledger fabric around it, the four baseline protocols of the paper's
evaluation (PBFT, Zyzzyva, HotStuff, Steward), and a deterministic
geo-scale network simulation substrate seeded with the paper's own
Table 1 measurements.

The *stable* surface is :mod:`repro.api`, re-exported here: experiment
configs/results, the deployment builder, the scenario registry, and the
chaos engine's fault timelines.  Lower-level building blocks (protocol
replicas, ledger, workload, topology) are also re-exported for
convenience but their module layout is an implementation detail.

Quick start::

    from repro import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(
        protocol="geobft", num_clusters=4, replicas_per_cluster=4,
        batch_size=100, duration=5.0, warmup=1.0,
    ))
    print(result.describe())

Fault injection::

    from repro import Deployment, FaultTimeline, CrashFault

    deployment = Deployment(config)
    FaultTimeline([CrashFault("primary:1", at=1.0)]).install(deployment)
    result = deployment.run()
    assert deployment.invariants.ok

See ``examples/`` for runnable scenarios, ``docs/fault_injection.md``
for the fault taxonomy, and ``benchmarks/`` for the scripts that
regenerate every table and figure of the paper.
"""

from . import api
from .api import (
    PROTOCOLS,
    SCENARIOS,
    ChaosContext,
    CrashFault,
    Deployment,
    EquivocateFault,
    ExperimentConfig,
    ExperimentResult,
    FAULT_KINDS,
    Fault,
    FaultTimeline,
    Instrumentation,
    InvariantReport,
    LatencyHistogram,
    LinkDelayFault,
    MessageLossFault,
    OmissionFault,
    PartitionFault,
    TRAFFIC_PROCESSES,
    TamperFault,
    TrafficSpec,
    OpenLoopSource,
    PaymentWorkload,
    apply_scenario,
    chaos_smoke_timeline,
    deployment_digest,
    fault_from_dict,
    load_trace_jsonl,
    register_scenario,
    run_experiment,
    scenario_names,
    traffic_summary,
)
from .bench.charts import ascii_chart, bar_chart
from .bench.metrics import Metrics
from .consensus.hotstuff import HotStuffReplica
from .consensus.pbft import PbftConfig, PbftEngine, PbftReplica
from .consensus.steward import StewardReplica
from .consensus.zyzzyva import ZyzzyvaReplica
from .core.config import GeoBftConfig
from .core.geobft import GeoBftReplica
from .crypto.costs import CryptoCostModel
from .crypto.signatures import KeyRegistry
from .ledger.block import Transaction
from .ledger.blockchain import Blockchain
from .ledger.recovery import audit_ledger, rebuild_state, recover_from_peer
from .net.simulator import Simulation
from .net.topology import PAPER_REGIONS, Topology
from .types import (ClusterSpec, NodeId, Quorums, client_id, max_faulty,
                    replica_id)
from .workload.client import QuorumClient
from .workload.ycsb import YcsbWorkload

__version__ = "1.1.0"


def __getattr__(name: str):
    # The campaign names load on first access; see ``repro.api``.
    if name in api._LAZY:
        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    # stable API (repro.api)
    "PROTOCOLS",
    "SCENARIOS",
    "Campaign",
    "CampaignOutcome",
    "ChaosContext",
    "CrashFault",
    "Deployment",
    "EquivocateFault",
    "ExperimentConfig",
    "ExperimentResult",
    "FAULT_KINDS",
    "Fault",
    "FaultTimeline",
    "Instrumentation",
    "InvariantReport",
    "LatencyHistogram",
    "LinkDelayFault",
    "MessageLossFault",
    "OmissionFault",
    "PartitionFault",
    "ReportSpec",
    "ResultStore",
    "RunSpec",
    "TRAFFIC_PROCESSES",
    "TamperFault",
    "TrafficSpec",
    "OpenLoopSource",
    "PaymentWorkload",
    "apply_scenario",
    "calibrate_host",
    "campaign_names",
    "chaos_smoke_timeline",
    "deployment_digest",
    "expand_grid",
    "fault_from_dict",
    "get_campaign",
    "load_trace_jsonl",
    "register_campaign",
    "register_scenario",
    "run_campaign",
    "run_experiment",
    "scenario_names",
    "traffic_summary",
    # convenience re-exports (layout may change)
    "Metrics",
    "HotStuffReplica",
    "PbftConfig",
    "PbftEngine",
    "PbftReplica",
    "StewardReplica",
    "ZyzzyvaReplica",
    "GeoBftConfig",
    "GeoBftReplica",
    "CryptoCostModel",
    "KeyRegistry",
    "Transaction",
    "Blockchain",
    "audit_ledger",
    "rebuild_state",
    "recover_from_peer",
    "ascii_chart",
    "bar_chart",
    "Simulation",
    "PAPER_REGIONS",
    "Topology",
    "ClusterSpec",
    "NodeId",
    "Quorums",
    "client_id",
    "max_faulty",
    "replica_id",
    "QuorumClient",
    "YcsbWorkload",
    "__version__",
]
