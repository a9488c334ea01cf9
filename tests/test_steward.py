"""Tests for the Steward implementation (hierarchical, primary cluster)."""

import pytest

from repro.bench.deployment import Deployment, ExperimentConfig
from repro.types import replica_id


def steward_config(**overrides):
    defaults = dict(
        protocol="steward",
        num_clusters=2,
        replicas_per_cluster=4,
        batch_size=5,
        clients_per_cluster=1,
        client_outstanding=2,
        duration=3.0,
        warmup=0.5,
        record_count=500,
        seed=41,
        steward_crypto_factor=2.0,  # keep unit tests fast
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def run(config):
    deployment = Deployment(config)
    result = deployment.run()
    return deployment, result


class TestGlobalOrdering:
    def test_all_replicas_execute_identical_global_sequence(self):
        deployment, _result = run(steward_config())
        assert deployment.check_safety()
        heights = [r.ledger.height for r in deployment.replicas.values()]
        assert min(heights) > 3

    def test_remote_clients_complete_via_primary_cluster(self):
        deployment, _result = run(steward_config())
        remote_clients = [c for c in deployment.clients
                          if c.node_id.cluster != 1]
        assert all(c.completed_batches > 0 for c in remote_clients)

    def test_remote_requests_pay_wan_round_trips(self):
        """A request from a non-primary site crosses to Oregon and the
        order crosses back — its latency includes WAN hops."""
        deployment, _result = run(steward_config())
        # Oregon <-> Iowa RTT is 38 ms; remote batches can't beat it.
        remote = [c for c in deployment.clients
                  if c.node_id.cluster == 2][0]
        assert remote.completed_batches > 0
        # Inspect metrics: average over all clients mixes fast local
        # and slow remote; remote floor asserted via message flow below.
        counts = deployment.network.message_counts()
        assert counts.get("StewardForward", {}).get("global", 0) > 0
        assert counts.get("StewardGlobalOrder", {}).get("global", 0) > 0

    def test_blocks_ordered_by_global_sequence(self):
        deployment, _result = run(steward_config())
        for replica in deployment.replicas.values():
            rounds = [block.round_id for block in replica.ledger]
            assert rounds == sorted(rounds)

    def test_three_clusters(self):
        deployment, _result = run(steward_config(num_clusters=3))
        assert deployment.check_safety()
        assert all(c.completed_batches > 0 for c in deployment.clients)


class TestCentralization:
    def test_primary_cluster_handles_all_global_ordering(self):
        """Every executed block carries the primary cluster's
        certificate — the centralized design of §1.1."""
        deployment, _result = run(steward_config())
        replica = deployment.replicas[replica_id(2, 2)]
        for height in range(replica.ledger.height):
            cert = replica.ledger.certificate(height)
            assert cert.cluster_id == 1

    def test_crypto_factor_slows_steward_down(self):
        _d1, fast = run(steward_config(steward_crypto_factor=1.0))
        _d2, slow = run(steward_config(steward_crypto_factor=400.0))
        assert slow.throughput_txn_s < fast.throughput_txn_s


class TestFailures:
    def test_backup_crashes_tolerated(self):
        config = steward_config(duration=4.0)
        deployment = Deployment(config)
        deployment.network.failures.crash(replica_id(1, 4))
        deployment.network.failures.crash(replica_id(2, 4))
        for client in deployment.clients:
            deployment.sim.schedule(0.0, client.start)
        deployment.sim.run(until=config.duration)
        deployment.metrics.finish(deployment.sim.now)
        assert deployment.metrics.throughput_txn_s() > 0
        assert deployment.check_safety()
