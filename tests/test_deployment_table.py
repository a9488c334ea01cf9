"""Per-protocol deployment pins on unequal clusters.

The golden matrix (``test_scale_determinism.py``) only builds clusters
of equal size, so two of the deployment's client-targeting rules run
there with no observable difference: HotStuff's round-robin home
replica, and the per-cluster ``f + 1`` reply quorum of the clustered
protocols.  Here every protocol runs on a 4 + 7 deployment, closed loop
and open loop, and each case pins:

* ``deployment_digest`` and ``events_processed``;
* each driver's ``(node, primary targets, fallback targets, reply
  quorum, Zyzzyva completion rule)``, in construction order;
* each replica's class, in construction order.
"""

from __future__ import annotations

import pytest

from repro.bench.deployment import (Deployment, ExperimentConfig,
                                    deployment_digest)
from repro.types import client_id, replica_id

OPEN_LOOP = "poisson:users=100000,rate=0.5"

C1 = [replica_id(1, i) for i in range(1, 5)]
C2 = [replica_id(2, i) for i in range(1, 8)]
ALL = C1 + C2
CLUSTER = {1: C1, 2: C2}

# (protocol, traffic) -> (digest, events) on the 4 + 7 deployment.
TABLE_PINS = {
    ("geobft", None): (
        "5d0b4d4d49803c01bd0958473044d26bf97478323274588b0156269db58426c4",
        216378),
    ("geobft", OPEN_LOOP): (
        "b86594ee239e39ea6e656857b3c22846ef9223540e13dc1a9d8144f688c65347",
        180487),
    ("pbft", None): (
        "6a4e80527d252592313d39effc8e2cb858561651e3a7e2ce3b47f3ab3da0edf7",
        376155),
    ("pbft", OPEN_LOOP): (
        "7b810c19fdbd15e00856ecb338bfddda07e2760a550c477400361c4c36be3cce",
        325143),
    ("zyzzyva", None): (
        "535644e1551e1e00f8c5f2931fa183432cd90af38cd82188417ede39a24cb666",
        72360),
    ("zyzzyva", OPEN_LOOP): (
        "2dbc8aee5798fc7a879d3c3265a87b2d034f983d28c9e402a67c9ff7a627a95e",
        109619),
    ("hotstuff", None): (
        "878ba7be35cbfb355c2859246f24106a05c0c6368fd47ee0db9ee2c1dadd2773",
        62442),
    ("hotstuff", OPEN_LOOP): (
        "4f081fb441bfd2e602aa1d408488f3e100a6fee651c93d693c15bfe3e5228983",
        48186),
    ("steward", None): (
        "517c931f5fae2dbb1dd98beab2f56a47888e1e5b4df868228dd5df0ad0916246",
        8862),
    ("steward", OPEN_LOOP): (
        "ee805ba7d34880f0f5aa55f40a185cbbb8a187479e5cbe545ef3b341019f0023",
        12282),
}

REPLICA_CLASS = {
    "geobft": "GeoBftReplica",
    "pbft": "PbftReplica",
    "zyzzyva": "ZyzzyvaReplica",
    "hotstuff": "HotStuffReplica",
    "steward": "StewardReplica",
}


def expected_drivers(protocol, clients_per_region):
    """Each driver's targets as the deployment must build them."""
    drivers = []
    for c, cluster in CLUSTER.items():
        for j in range(1, clients_per_region + 1):
            if protocol in ("geobft", "steward"):
                # Own cluster's first replica, f + 1 of that cluster.
                row = ([cluster[0]], cluster, {1: 2, 2: 3}[c], False)
            elif protocol == "hotstuff":
                # Round-robin home replica of the client's own region.
                row = ([cluster[(j - 1) % len(cluster)]], cluster, 4, False)
            else:
                # The global primary, F + 1 of all eleven replicas.
                row = ([ALL[0]], ALL, 4, protocol == "zyzzyva")
            drivers.append((client_id(c, j),) + row)
    return drivers


@pytest.mark.parametrize("protocol,traffic", sorted(
    TABLE_PINS, key=lambda key: (key[0], key[1] or "")))
def test_unequal_clusters_are_pinned(protocol, traffic):
    deployment = Deployment(ExperimentConfig(
        protocol=protocol, num_clusters=2, replicas_per_cluster=4,
        cluster_sizes=[4, 7], batch_size=20, duration=1.0, warmup=0.2,
        seed=3, fast_crypto=True, record_count=1000, traffic=traffic))

    assert list(deployment.replicas) == ALL
    assert {type(replica).__name__
            for replica in deployment.replicas.values()} \
        == {REPLICA_CLASS[protocol]}

    drivers = [
        (client._node_id, client._primary_targets, client._fallback_targets,
         client._q.one_honest, bool(client._members))
        for client in deployment.clients
    ]
    assert drivers == expected_drivers(
        protocol, 1 if traffic is not None else 4)
    if traffic is None:
        timeout = 0.8 if protocol == "zyzzyva" else 6.0
        assert {client._retry_timeout for client in deployment.clients} \
            == {timeout}

    result = deployment.run()
    assert result.safety_ok
    expected_digest, expected_events = TABLE_PINS[protocol, traffic]
    assert deployment.sim.events_processed == expected_events
    assert deployment_digest(deployment, result) == expected_digest
