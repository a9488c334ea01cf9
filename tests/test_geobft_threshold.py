"""Tests for GeoBFT's optional threshold-signature certificates (§2.2)."""

import pytest

from repro.bench.deployment import Deployment, ExperimentConfig
from repro.consensus.messages import (
    GlobalShare,
    ThresholdCommitCertificate,
)
from repro.core.config import GeoBftConfig
from repro.consensus.pbft import PbftConfig
from repro.errors import ConfigurationError
from repro.types import replica_id


def threshold_config(**overrides):
    defaults = dict(
        protocol="geobft",
        num_clusters=2,
        replicas_per_cluster=4,
        batch_size=5,
        clients_per_cluster=1,
        client_outstanding=2,
        duration=2.5,
        warmup=0.5,
        record_count=500,
        seed=51,
        geobft=GeoBftConfig(
            pbft=PbftConfig(view_change_timeout=1.0),
            remote_timeout=10.0,
            threshold_certificates=True,
        ),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def run(config):
    deployment = Deployment(config)
    result = deployment.run()
    return deployment, result


class TestThresholdCertificates:
    def test_progress_and_safety(self):
        deployment, result = run(threshold_config())
        assert result.safety_ok
        assert result.throughput_txn_s > 0
        assert all(r.executed_rounds > 3
                   for r in deployment.replicas.values())

    def test_global_shares_carry_compact_certificates(self):
        deployment = Deployment(threshold_config())
        compact_seen = []

        def observer(src, dst, msg, size, local):
            if isinstance(msg, GlobalShare) and not local:
                compact_seen.append(
                    isinstance(msg.certificate, ThresholdCommitCertificate))

        deployment.network.add_observer(observer)
        deployment.run()
        assert compact_seen
        assert all(compact_seen)

    def test_compact_certificates_have_constant_proof_size(self):
        """The point of §2.2's option: certificate size is independent
        of f, so inter-cluster bytes shrink as clusters grow."""
        def global_share_bytes(n, threshold):
            config = threshold_config(replicas_per_cluster=n)
            if not threshold:
                config.geobft = GeoBftConfig(remote_timeout=10.0)
            deployment = Deployment(config)
            sizes = []
            deployment.network.add_observer(
                lambda s, d, m, size, local:
                sizes.append(size)
                if isinstance(m, GlobalShare) and not local else None)
            deployment.run()
            return max(sizes)

        classic_small = global_share_bytes(4, threshold=False)
        classic_large = global_share_bytes(7, threshold=False)
        compact_small = global_share_bytes(4, threshold=True)
        compact_large = global_share_bytes(7, threshold=True)
        assert classic_large > classic_small  # grows with n - f
        assert compact_large == compact_small  # constant proof
        assert compact_small < classic_small

    def test_results_match_classic_mode(self):
        """Ledgers are identical across certificate representations —
        the proof format must not affect ordering."""
        _d1, classic = run(threshold_config(
            geobft=GeoBftConfig(remote_timeout=10.0)))
        _d2, compact = run(threshold_config())
        assert classic.safety_ok and compact.safety_ok
        # Threshold mode costs an extra local hop + combine CPU, so
        # throughput may differ; content equality is what matters.
        d1 = Deployment(threshold_config(
            geobft=GeoBftConfig(remote_timeout=10.0)))
        d1.run()
        d2 = Deployment(threshold_config())
        d2.run()
        ledger1 = d1.replicas[replica_id(2, 1)].ledger
        ledger2 = d2.replicas[replica_id(2, 1)].ledger
        common = min(ledger1.height, ledger2.height)
        assert common > 0
        for height in range(common):
            assert (ledger1.block(height).batch_digest
                    == ledger2.block(height).batch_digest)

    def test_requires_schemes(self):
        from repro.net.network import Network
        from repro.net.simulator import Simulation
        from repro.net.topology import Topology
        from repro.crypto.signatures import KeyRegistry
        from repro.core.geobft import GeoBftReplica

        sim = Simulation()
        net = Network(sim, Topology.uniform(["a"]))
        members = {1: [replica_id(1, i) for i in range(1, 5)]}
        with pytest.raises(ConfigurationError):
            GeoBftReplica(
                replica_id(1, 1), "a", sim, net, KeyRegistry(),
                cluster_members=members,
                config=GeoBftConfig(threshold_certificates=True),
            )

    def test_tampered_compact_certificate_rejected(self):
        deployment = Deployment(threshold_config(duration=1.5))
        deployment.run()
        receiver = deployment.replicas[replica_id(2, 2)]
        sender = deployment.replicas[replica_id(1, 1)]
        certificate = sender._own_decisions.get(
            max(sender._own_decisions or [0]))
        assert certificate is not None
        request = certificate.request
        from repro.crypto.threshold import ThresholdSignature
        forged = ThresholdCommitCertificate(
            1, 999, 0, request, ThresholdSignature("cluster-1", b"\x00" * 32),
        )
        receiver._on_global_share(GlobalShare(999, 1, forged, forwarded=False),
                                  sender.node_id)
        assert not receiver.ordering.has_share(999, 1)
