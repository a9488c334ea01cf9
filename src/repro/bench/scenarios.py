"""Failure scenarios of the evaluation (paper §4.3) — now a registry.

Three scenarios are measured in Figure 12:

* ``one_backup``  — a single non-primary replica crashes.
* ``f_backups``   — ``f`` non-primary replicas crash in *every* cluster
  (the worst case GeoBFT and Steward are designed for; within the flat
  protocols' tolerance per Remark 2.1).
* ``primary``     — one primary crashes mid-run, forcing a view change
  (the Oregon cluster's primary for GeoBFT, the global primary for
  PBFT).

Scenarios are applied to a built :class:`~repro.bench.deployment.
Deployment` before (or during) the run; they only touch the failure
model (or install a fault timeline), never protocol state.

The closed scenario tuple is gone: :func:`register_scenario` adds named
scenarios to a registry, so experiment front-ends (`--scenario`) accept
extensions without editing this module.  Scheduled multi-fault plans go
through :class:`~repro.net.chaos.FaultTimeline` instead — the built-in
``chaos_smoke`` scenario installs one such seeded timeline (crash +
inter-cluster partition/heal + Byzantine tampering) as a ready-made
resilience probe for any protocol.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from ..errors import ConfigurationError
from ..types import NodeId
from .deployment import PROTOCOL_ENTRIES, Deployment

if TYPE_CHECKING:
    from ..net.chaos import FaultTimeline

# The chaos engine is imported by the scenarios that install faults,
# not here: a fault-free run never loads it.

#: The paper's own Figure 12 scenario names (always registered).
SCENARIOS = ("none", "one_backup", "f_backups", "primary")

#: A scenario arranges faults on a built deployment and returns the
#: statically-known victims (empty when targets resolve at runtime).
ScenarioFn = Callable[[Deployment, float], List[NodeId]]

_REGISTRY: Dict[str, ScenarioFn] = {}


def register_scenario(name: str, fn: ScenarioFn,
                      replace: bool = False) -> ScenarioFn:
    """Register ``fn`` under ``name``; returns ``fn`` for decorator use."""
    if not replace and name in _REGISTRY:
        raise ConfigurationError(f"scenario {name!r} is already registered")
    _REGISTRY[name] = fn
    return fn


def scenario_names() -> Tuple[str, ...]:
    """Every registered scenario name (paper names first)."""
    extras = sorted(name for name in _REGISTRY if name not in SCENARIOS)
    return SCENARIOS + tuple(extras)


def _non_primary_victims(deployment: Deployment) -> List[NodeId]:
    """The last ``f`` *non-primary* replicas of each cluster.

    Computed against live view state: after a mid-run view change the
    primary may be any member (at ``n = 4`` even the last one), so the
    victim set excludes whichever replica currently leads the cluster
    rather than assuming index 1 does.
    """
    from ..net.chaos import _live_primary
    victims: List[NodeId] = []
    for cluster, members in deployment.cluster_members.items():
        primary = _live_primary(deployment, cluster)
        backups = [m for m in members if m != primary]
        victims.extend(backups[len(backups) - deployment.quorums[cluster].f:])
    return victims


def _crash_victims(deployment: Deployment, victims: List[NodeId],
                   fail_at: float) -> List[NodeId]:
    failures = deployment.network.failures
    if fail_at <= 0.0:
        for victim in victims:
            failures.crash(victim)
    else:
        for victim in victims:
            deployment.sim.post(fail_at, failures.crash, victim)
    return victims


def _scenario_none(deployment: Deployment, fail_at: float) -> List[NodeId]:
    return []


def _scenario_one_backup(deployment: Deployment,
                         fail_at: float) -> List[NodeId]:
    from ..net.chaos import _live_primary
    last_cluster = max(deployment.cluster_members)
    members = deployment.cluster_members[last_cluster]
    primary = _live_primary(deployment, last_cluster)
    backups = [m for m in members if m != primary]
    return _crash_victims(deployment, backups[-1:], fail_at)


def _scenario_f_backups(deployment: Deployment,
                        fail_at: float) -> List[NodeId]:
    return _crash_victims(deployment, _non_primary_victims(deployment),
                          fail_at)


def _scenario_primary(deployment: Deployment,
                      fail_at: float) -> List[NodeId]:
    from ..net.chaos import _live_primary
    return _crash_victims(deployment,
                          [_live_primary(deployment, 1)], fail_at)


def chaos_smoke_timeline(protocol: str) -> FaultTimeline:
    """The seeded resilience probe run by CI for every protocol.

    The common shape — crash at t=1s, partition over [2s, 3.5s) healed
    mid-run, a Byzantine replica 2.1 tampering its payloads throughout
    (every honest verify path must reject them) — is specialized so
    each protocol stays *within its fault bounds* (ISSUE acceptance;
    Remark 2.1), reproducing the Figure 12 qualitative story:

    * **Clustered protocols (GeoBFT, Steward)** take a full
      inter-cluster partition: each cluster keeps its local quorum, so
      GeoBFT keeps replicating locally, fires a remote view change on
      the silent remote cluster, and resumes ordering after the heal —
      recovery is cluster-local.
    * **PBFT** also takes the full partition (neither half holds a
      global quorum, so commits stall), surviving on its view-change
      retransmission machinery once healed — stalling globally first,
      per Figure 12.
    * **Zyzzyva and HotStuff** have no view-change/pacemaker
      retransmission (omitted like the paper's own Zyzzyva), so their
      partition isolates a single replica — a WAN blip the remaining
      ``2f + 1`` quorum masks.
    * The crash hits the *live* cluster-1 primary where a view change
      exists to replace it, and a backup for Zyzzyva and Steward.
    * GeoBFT and PBFT additionally get an equivocating Byzantine
      primary from t=0 (conflicting, well-formed proposals split the
      backups; quorum intersection blocks both, and the view change
      replaces the equivocator).
    """
    from ..net.chaos import (CrashFault, EquivocateFault, FaultTimeline,
                             PartitionFault, TamperFault)
    clustered = PROTOCOL_ENTRIES[protocol].clients == "cluster"
    has_view_change = protocol not in ("zyzzyva", "steward")
    crash = CrashFault("primary:1" if has_view_change else "backup:1",
                       name="crash-c1", at=1.0)
    if clustered or protocol == "pbft":
        partition = PartitionFault(["cluster:1"], ["cluster:2"], at=2.0,
                                   until=3.5, name="partition-c1-c2")
    else:
        partition = PartitionFault(["replica:2.4"], ["all"], at=2.0,
                                   until=3.5, name="partition-r2.4")
    if protocol == "hotstuff":
        # HotStuff quorums are n - f: with the crash and the partition
        # both spending a replica, replica 2.1's *votes* must stay
        # honest to stay within bounds — it corrupts the proposals of
        # its own instance instead (every backup rejects them).
        tamper = TamperFault("replica:2.1", messages=("HsProposal",),
                             name="byzantine-r2.1")
    else:
        tamper = TamperFault("replica:2.1", name="byzantine-r2.1")
    faults = [crash, partition, tamper]
    if protocol == "geobft":
        faults.append(EquivocateFault(2, name="equivocate-c2"))
    elif protocol == "pbft":
        faults.append(EquivocateFault(1, name="equivocate-c1"))
    return FaultTimeline(faults, name=f"chaos-smoke-{protocol}")


def _scenario_chaos_smoke(deployment: Deployment,
                          fail_at: float) -> List[NodeId]:
    """Install the seeded chaos timeline (``fail_at`` is ignored — the
    timeline carries its own schedule).  Victims resolve at activation
    time, so none are known statically."""
    chaos_smoke_timeline(deployment.config.protocol).install(deployment)
    return []


def _scenario_payment_network(deployment: Deployment,
                              fail_at: float) -> List[NodeId]:
    """Swap every driver's workload for interbank payment transfers.

    Not a fault scenario: it retargets the workload (``fail_at`` is
    ignored) at the conflict-bearing read-modify-write payment
    generator, with each driver branded as a branch of its region.
    """
    from ..workload.payment import DEFAULT_ACCOUNTS, PaymentWorkload
    accounts = min(DEFAULT_ACCOUNTS, deployment.config.record_count)
    for i, client in enumerate(deployment.clients):
        client._workload = PaymentWorkload(
            client.region, seed=100 + i, accounts=accounts)
    return []


register_scenario("none", _scenario_none)
register_scenario("one_backup", _scenario_one_backup)
register_scenario("f_backups", _scenario_f_backups)
register_scenario("primary", _scenario_primary)
register_scenario("chaos_smoke", _scenario_chaos_smoke)
register_scenario("payment_network", _scenario_payment_network)


def apply_scenario(deployment: Deployment, scenario: str,
                   fail_at: float = 0.0) -> List[NodeId]:
    """Arrange the named scenario's faults; returns the known victims.

    ``fail_at`` schedules crash-type scenarios at a simulated time (used
    by the primary-failure experiment, which fails the primary mid-run
    after a committed prefix exists); ``0.0`` crashes immediately.
    """
    fn = _REGISTRY.get(scenario)
    if fn is None:
        raise ConfigurationError(
            f"unknown scenario {scenario!r}; expected one of "
            f"{scenario_names()}"
        )
    return fn(deployment, fail_at)
