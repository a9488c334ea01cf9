"""Tests for Zyzzyva: speculative fast path, client-driven second phase,
and the collapse under failures the paper measures (§4.3)."""

import pytest

from repro.bench.deployment import Deployment, ExperimentConfig
from repro.types import replica_id


def zyz_config(**overrides):
    defaults = dict(
        protocol="zyzzyva",
        num_clusters=2,
        replicas_per_cluster=4,
        batch_size=5,
        clients_per_cluster=1,
        client_outstanding=2,
        duration=3.0,
        warmup=0.5,
        record_count=500,
        seed=21,
        zyzzyva_spec_timeout=0.4,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def run(config):
    deployment = Deployment(config)
    result = deployment.run()
    return deployment, result


class TestFastPath:
    def test_failure_free_run_completes_batches(self):
        deployment, result = run(zyz_config())
        assert result.throughput_txn_s > 0
        assert all(c.completed_batches > 3 for c in deployment.clients)

    def test_replicas_execute_identical_sequences(self):
        deployment, _result = run(zyz_config())
        assert deployment.check_safety()
        heights = {r.ledger.height for r in deployment.replicas.values()}
        assert max(heights) > 5

    def test_speculative_execution_is_in_seq_order(self):
        deployment, _result = run(zyz_config())
        for replica in deployment.replicas.values():
            rounds = [block.round_id for block in replica.ledger]
            assert rounds == sorted(rounds)

    def test_fast_path_latency_below_spec_timeout(self):
        """Without failures clients complete well before the timeout
        kicks in — the fast path works."""
        _deployment, result = run(zyz_config())
        assert result.avg_latency_s < 0.4


class TestFailureCollapse:
    def test_single_backup_crash_collapses_throughput(self):
        """§4.3: 'the throughput of Zyzzyva plummets to zero' with even
        one crashed replica."""
        healthy_dep, healthy = run(zyz_config())
        config = zyz_config()
        deployment = Deployment(config)
        deployment.network.failures.crash(replica_id(2, 4))
        for client in deployment.clients:
            deployment.sim.schedule(0.0, client.start)
        deployment.sim.run(until=config.duration)
        deployment.metrics.finish(deployment.sim.now)
        degraded = deployment.metrics.throughput_txn_s()
        assert degraded < healthy.throughput_txn_s * 0.25

    def test_commit_phase_still_completes_requests(self):
        """The slow path (client certificate + local commits) makes
        progress, just slowly."""
        config = zyz_config(duration=5.0)
        deployment = Deployment(config)
        deployment.network.failures.crash(replica_id(2, 4))
        for client in deployment.clients:
            deployment.sim.schedule(0.0, client.start)
        deployment.sim.run(until=config.duration)
        assert any(c.completed_batches > 0 for c in deployment.clients)

    def test_latency_inflates_under_failure(self):
        config = zyz_config(duration=5.0)
        deployment = Deployment(config)
        deployment.network.failures.crash(replica_id(2, 4))
        for client in deployment.clients:
            deployment.sim.schedule(0.0, client.start)
        deployment.sim.run(until=config.duration)
        deployment.metrics.finish(deployment.sim.now)
        # Every batch now pays at least the speculative timeout.
        assert deployment.metrics.avg_latency_s() >= 0.4


class TestCommitCertificate:
    """A replica commits on a client's certificate only when its 2f + 1
    responses are each signed by the replica they name and each speak
    about the certificate's own (view, seq, batch)."""

    @staticmethod
    def _certify(forger_of, seq, response_seq=None):
        from repro.consensus.messages import SpecResponse, ZyzzyvaCommitCert

        deployment = Deployment(zyz_config(num_clusters=1,
                                           fast_crypto=False))
        victim = deployment.replicas[replica_id(1, 2)]
        responses = []
        for i in (1, 2, 3):
            named = replica_id(1, i)
            unsigned = SpecResponse(0, seq if response_seq is None
                                    else response_seq, "b-forged",
                                    b"h" * 32, b"r" * 32, named, None, 5)
            signer = deployment.replicas[forger_of(named)].signer
            responses.append(SpecResponse(
                unsigned.view, unsigned.seq, unsigned.batch_id,
                unsigned.history_digest, unsigned.results_digest, named,
                signer.sign(unsigned), unsigned.batch_len))
        victim._on_commit_cert(
            ZyzzyvaCommitCert("b-forged", 0, seq, tuple(responses)),
            replica_id(1, 4))
        return seq in victim._committed

    def test_responses_signed_by_their_replicas_commit(self):
        assert self._certify(lambda named: named, 999)

    def test_one_replica_cannot_sign_for_three(self):
        assert not self._certify(lambda named: replica_id(1, 4), 999)

    def test_responses_for_another_seq_do_not_commit(self):
        assert not self._certify(lambda named: named, 999, response_seq=7)
