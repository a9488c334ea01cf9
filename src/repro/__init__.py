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

Every re-export is lazy (PEP 562): ``import repro`` loads only this
module and :mod:`repro.api`, and a name imports its defining module on
first access.  A run therefore loads the modules its config selects —
a PBFT deployment never imports HotStuff, GeoBFT's core, the chaos
engine, open-loop traffic or the campaign layer.  The subpackages'
surfaces work the same way, through :func:`_lazy_exports`.

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

from importlib import import_module
from typing import Any, Callable, Dict, Iterable, List, Tuple

__version__ = "1.1.0"


def _lazy_exports(namespace: Dict[str, Any],
                  table: Dict[str, Iterable[str]],
                  ) -> Tuple[Callable[[str], Any], List[str]]:
    """A module ``__getattr__`` (PEP 562) and ``__all__`` for ``table``.

    ``table`` maps a module path, relative to ``namespace``'s
    ``__package__`` (so a plain module such as :mod:`repro.api` resolves
    like a package ``__init__``), to the names it defines.  A name
    imports its module on first access and is cached in ``namespace``,
    so later lookups never reach ``__getattr__``.
    """
    owner = {name: module for module, names in table.items()
             for name in names}
    package, where = namespace["__package__"], namespace["__name__"]

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {where!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module, package),
                                          name)
        return value

    return __getattr__, list(owner)


# After ``_lazy_exports``: ``repro.api`` builds its surface with it.
from . import api  # noqa: E402

__getattr__, __all__ = _lazy_exports(globals(), {
    # stable API
    ".api": api.__all__,
    # convenience re-exports (layout may change)
    ".bench.metrics": ("Metrics",),
    ".consensus.hotstuff": ("HotStuffReplica",),
    ".consensus.pbft": ("PbftConfig", "PbftEngine", "PbftReplica"),
    ".consensus.steward": ("StewardReplica",),
    ".consensus.zyzzyva": ("ZyzzyvaReplica",),
    ".core.config": ("GeoBftConfig",),
    ".core.geobft": ("GeoBftReplica",),
    ".crypto.costs": ("CryptoCostModel",),
    ".crypto.signatures": ("KeyRegistry",),
    ".ledger.block": ("Transaction",),
    ".ledger.blockchain": ("Blockchain",),
    ".ledger.recovery": ("audit_ledger", "rebuild_state",
                         "recover_from_peer"),
    ".bench.charts": ("ascii_chart", "bar_chart"),
    ".net.simulator": ("Simulation",),
    ".net.topology": ("PAPER_REGIONS", "Topology"),
    ".types": ("ClusterSpec", "NodeId", "Quorums", "client_id",
               "max_faulty", "replica_id"),
    ".workload.client": ("QuorumClient",),
    ".workload.ycsb": ("YcsbWorkload",),
})
__all__.append("__version__")
