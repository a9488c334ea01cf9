"""Golden deployment digests: the engine overhaul must not move a bit.

The timer lanes, the multicast fast path and the incremental vote
counters are all *host-side* optimizations: they reorder no events and
change no simulated timing.  These tests pin that claim to golden
``deployment_digest`` values captured on the pre-overhaul engine (plain
binary heap, per-destination sends, quorum re-scans); the event queue
has since passed through a bucketed calendar and a separate zero-delay
lane and back to one binary heap without moving a digest.  The digest
covers the full experiment result, the total event count, and every
replica's ledger head — if any optimization leaks into virtual time,
ordering, or execution, the digest moves.

The matrix deliberately crosses all five protocols, two seeds, two
deployment shapes, and one real-crypto (slow) point.  Each case runs a
full small deployment (~1–2 s on a typical host).

``repro sweep --campaign scale --baseline BENCH_scale.json`` extends the
same check to the paper-scale points via the committed
``BENCH_scale.json``.
"""

from __future__ import annotations

import pytest

from repro.bench.deployment import (Deployment, ExperimentConfig,
                                    deployment_digest)

# (protocol, seed) -> (digest, events) on the small 2x4 deployment:
# batch_size=50, duration=1.0, warmup=0.25, record_count=2000,
# fast_crypto=True.
SMALL_MATRIX = {
    ("geobft", 1): (
        "7f6bfe45e2e7c6fd78134fdcb6915b08f2b492b7cc8abf983b9604276ca2762c",
        165438),
    ("geobft", 7): (
        "301cedf742bc5f81adef09e410f6c8faf65ef786115b95f64a971c1fa5245c7b",
        165438),
    ("pbft", 1): (
        "8c644315eb76955188f0ee948cbd9e92090bc8abc2e79e0f04175db39f4dcc15",
        195413),
    ("pbft", 7): (
        "c6583cc77b486a2df27da2cd068b18f68bd3c9879734b970d4bf414380457733",
        195413),
    ("zyzzyva", 1): (
        "d0d8ff04f1922db5ecedbc013c57ca058bfae0a2af9a868261a66aa88f1d3528",
        52058),
    ("zyzzyva", 7): (
        "4f8bb4f98a47d9c2ee520a83fc0f34c4748a4934e1cf6ccea6167f9c93c9360f",
        52058),
    ("hotstuff", 1): (
        "5c2d0f5e6bdbb4ad799a7df30dc380d5d2627dfccadaf3292721964b68d1a808",
        56058),
    ("hotstuff", 7): (
        "317ad4095e6ce91c896371945176a4d89c6df662ce8fab02a0d33a25514d180a",
        56058),
    ("steward", 1): (
        "cf396cbe943a5672d8fb7e3ae294b8159244567f0dc0d88b1a06bf5245410ed0",
        5179),
    ("steward", 7): (
        "1301e2e090eafc4fd6d1be8a7680f1a294c14fc2249807c6397c241627d8fdab",
        5179),
}

# Larger GeoBFT shapes (the scale sweep's building blocks) plus one
# real-crypto point that exercises the full signature path.
SHAPE_MATRIX = [
    (dict(protocol="geobft", num_clusters=4, replicas_per_cluster=4,
          batch_size=100, duration=1.0, warmup=0.25, seed=2,
          record_count=10_000, fast_crypto=True),
     "2bee47a3170090aeed01fc5e2ef9ac61eb10e4143121b24b6302edb0653465c3",
     139147),
    (dict(protocol="geobft", num_clusters=4, replicas_per_cluster=8,
          batch_size=100, duration=0.8, warmup=0.2, seed=2,
          record_count=10_000, fast_crypto=True),
     "5f0b39c4a539d034398105fb6229ad212d56f805a5c362a4fd4e0176bc20d52d",
     242569),
    (dict(protocol="geobft", num_clusters=2, replicas_per_cluster=4,
          batch_size=50, duration=0.8, warmup=0.2, seed=3,
          record_count=2_000, fast_crypto=False),
     "8eb12c7294daa55fa64cc2be1211045bf2db7780a603ff2e845f2b82b97b9bfa",
     131878),
]


def _run(**kwargs):
    deployment = Deployment(ExperimentConfig(**kwargs))
    result = deployment.run()
    return deployment, result


@pytest.mark.parametrize("protocol,seed", sorted(SMALL_MATRIX))
def test_small_deployment_digest_is_golden(protocol, seed):
    expected_digest, expected_events = SMALL_MATRIX[(protocol, seed)]
    deployment, result = _run(
        protocol=protocol, num_clusters=2, replicas_per_cluster=4,
        batch_size=50, duration=1.0, warmup=0.25, seed=seed,
        record_count=2_000, fast_crypto=True,
    )
    assert result.safety_ok
    assert deployment.sim.events_processed == expected_events
    assert deployment_digest(deployment, result) == expected_digest


@pytest.mark.parametrize("config,expected_digest,expected_events",
                         SHAPE_MATRIX,
                         ids=["geobft-4x4", "geobft-4x8",
                              "geobft-2x4-realcrypto"])
def test_shape_deployment_digest_is_golden(config, expected_digest,
                                           expected_events):
    deployment, result = _run(**config)
    assert result.safety_ok
    assert deployment_digest(deployment, result) == expected_digest
    assert deployment.sim.events_processed == expected_events



def _certificate_census(deployment):
    """``(certificate objects, distinct commit sets)`` held across all
    ledgers; a commit set is the slot, view, request object and commit
    objects a certificate is made of."""
    certificates = {}
    for replica in deployment.replicas.values():
        for block in replica.ledger:
            certificates[id(block.certificate)] = block.certificate
    commit_sets = {
        (c.cluster_id, c.round_id, c.view, id(c.request),
         tuple(map(id, c.commits)))
        for c in certificates.values()}
    return len(certificates), len(commit_sets)


@pytest.mark.parametrize("protocol", ["pbft", "geobft", "steward"])
def test_one_certificate_object_per_commit_set(protocol):
    """A group's replicas share one certificate per commit set, at the
    golden digests."""
    expected_digest, expected_events = SMALL_MATRIX[(protocol, 1)]
    deployment, result = _run(
        protocol=protocol, num_clusters=2, replicas_per_cluster=4,
        batch_size=50, duration=1.0, warmup=0.25, seed=1,
        record_count=2_000, fast_crypto=True,
    )
    assert deployment_digest(deployment, result) == expected_digest
    assert deployment.sim.events_processed == expected_events
    objects, commit_sets = _certificate_census(deployment)
    assert objects == commit_sets > 0
