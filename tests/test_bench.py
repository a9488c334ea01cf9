"""Tests for the benchmark harness: metrics, deployment building,
failure scenarios, reporting, and complexity analysis."""

import pytest

from repro.analysis.complexity import analytic_complexity, measured_complexity
from repro.bench.deployment import (
    PROTOCOLS,
    Deployment,
    ExperimentConfig,
    run_experiment,
)
from repro.bench.metrics import Metrics
from repro.bench.reporting import (
    format_figure_series,
    format_table,
    summarize_results,
)
from repro.bench.scenarios import apply_scenario
from repro.errors import ConfigurationError
from repro.net.network import Network
from repro.net.simulator import Simulation
from repro.net.topology import Topology
from repro.types import client_id, replica_id


class TestMetrics:
    def test_throughput_excludes_warmup(self):
        metrics = Metrics(warmup=10.0)
        metrics.record_completed(client_id(1, 1), 100, 0.5, now=5.0)
        metrics.record_completed(client_id(1, 1), 100, 0.5, now=15.0)
        metrics.finish(20.0)
        assert metrics.throughput_txn_s() == pytest.approx(10.0)
        assert metrics.completed_txns == 200

    def test_latency_statistics(self):
        metrics = Metrics(warmup=0.0)
        for latency in (0.1, 0.2, 0.9):
            metrics.record_completed(client_id(1, 1), 1, latency, now=1.0)
        metrics.finish(2.0)
        assert metrics.avg_latency_s() == pytest.approx(0.4)
        assert metrics.p50_latency_s() == pytest.approx(0.2)

    def test_empty_metrics_are_zero(self):
        metrics = Metrics()
        metrics.finish(0.0)
        assert metrics.throughput_txn_s() == 0.0
        assert metrics.avg_latency_s() == 0.0
        assert metrics.p50_latency_s() == 0.0

    def test_network_observer_classifies_traffic(self):
        """Traffic is classified where it is sent: the network counts
        local and global messages and bytes per kind, and an observer
        sees the same locality flag for each send."""
        sim = Simulation()
        net = Network(sim, Topology.uniform(["west", "east"]))

        class Node:
            def __init__(self, node_id, region):
                self.node_id = node_id
                self.region = region

            def deliver(self, message, sender):
                pass

        class Msg:
            def __init__(self, size):
                self._size = size

            def size_bytes(self):
                return self._size

        for node_id, region in ((replica_id(1, 1), "west"),
                                (replica_id(1, 2), "west"),
                                (replica_id(2, 1), "east")):
            net.register(Node(node_id, region))
        seen = []
        net.add_observer(lambda s, d, m, size, is_local:
                         seen.append((size, is_local)))
        net.send(replica_id(1, 1), replica_id(1, 2), Msg(100))
        net.send(replica_id(1, 1), replica_id(2, 1), Msg(300))
        sim.run()
        assert seen == [(100, True), (300, False)]
        assert net.local_messages == 1
        assert net.global_messages == 1
        assert net.local_bytes == 100
        assert net.global_bytes == 300
        assert net.message_counts()["Msg"] == {"local": 1, "global": 1}

    def test_executed_txn_accounting(self):
        metrics = Metrics()
        metrics.record_executed(replica_id(1, 1), 10, 1.0)
        metrics.record_executed(replica_id(1, 1), 10, 2.0)
        metrics.record_executed(replica_id(1, 2), 5, 2.0)
        assert metrics.executed_txns(replica_id(1, 1)) == 20
        assert metrics.total_executed_txns() == 25


class TestExperimentConfig:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert config.protocol in PROTOCOLS

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(protocol="raft")

    def test_cluster_bounds(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(num_clusters=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(replicas_per_cluster=3)

    def test_warmup_before_duration(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(duration=1.0, warmup=2.0)

    @pytest.mark.parametrize("seed", [True, False, 1.5, "1", None])
    def test_seed_must_be_an_int(self, seed):
        """``seed=True`` used to run as seed 1 and ``seed=1.5`` silently
        (every workload seed is derived from it)."""
        with pytest.raises(ConfigurationError, match="seed"):
            ExperimentConfig(seed=seed)

    @pytest.mark.parametrize("seed", [0, -3, 2**70])
    def test_any_int_seed_accepted(self, seed):
        assert ExperimentConfig(seed=seed).seed == seed

    @pytest.mark.parametrize("clients", [0, -1])
    def test_closed_loop_needs_a_client(self, clients):
        """No clients and no traffic used to run, complete nothing and
        still report liveness_ok."""
        with pytest.raises(ConfigurationError):
            ExperimentConfig(protocol="geobft", num_clusters=2,
                             replicas_per_cluster=4, duration=0.3,
                             warmup=0.1, clients_per_cluster=clients)

    def test_open_loop_needs_no_closed_loop_client(self):
        config = ExperimentConfig(num_clusters=2, replicas_per_cluster=4,
                                  clients_per_cluster=0,
                                  traffic="poisson:users=1000,rate=100")
        assert config.traffic is not None

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 2.5), ("batch_size", "100"), ("batch_size", True),
        ("clients_per_cluster", 1.0), ("client_outstanding", "8"),
        ("cluster_sizes", [4, "4"]), ("cluster_sizes", [4, 4.0]),
        ("replicas_per_cluster", 4.5), ("replicas_per_cluster", 7.0),
        ("replicas_per_cluster", "4"), ("num_clusters", 2.0),
        ("num_clusters", True),
        ("record_count", True), ("record_count", 2.5),
        ("record_count", "100"), ("record_count", 0),
        ("cores", 0), ("cores", -5), ("cores", 2.0),
        ("checkpoint_interval", 2.5), ("checkpoint_interval", 0),
        ("pipeline_depth", 0), ("pipeline_depth", "32"),
        ("max_batches_per_client", 0), ("max_batches_per_client", -1),
        ("max_batches_per_client", 2.5), ("max_batches_per_client", "x"),
        ("max_batches_per_client", True),
    ])
    def test_count_fields_must_be_ints(self, field, value):
        sizes = dict(num_clusters=2, replicas_per_cluster=4)
        sizes[field] = value
        with pytest.raises(ConfigurationError, match=field):
            ExperimentConfig(**sizes)

    @pytest.mark.parametrize("field, value", [
        ("duration", float("inf")), ("duration", float("nan")),
        ("duration", 0.0), ("duration", -1.0), ("duration", "10"),
        ("duration", True),
        ("warmup", -1.0), ("warmup", float("nan")), ("warmup", "0.5"),
        ("view_change_timeout", 0.0), ("view_change_timeout", float("inf")),
        ("client_retry_timeout", float("nan")),
        ("zyzzyva_spec_timeout", -0.8), ("steward_crypto_factor", 0.0),
        ("batch_size", 0), ("client_outstanding", 0),
        ("hotstuff_pipeline", 0), ("hotstuff_pipeline", 2.0),
    ])
    def test_numeric_fields_are_finite_and_in_range(self, field, value):
        """``duration=inf`` used to make ``Deployment.run()`` spin
        forever, ``duration=nan`` failed only inside ``run``, and a
        negative ``warmup`` was accepted."""
        params = dict(num_clusters=2, replicas_per_cluster=4,
                      duration=2.0, warmup=0.5)
        params[field] = value
        with pytest.raises(ConfigurationError, match=field):
            ExperimentConfig(**params)

    @pytest.mark.parametrize("field, value", [
        ("write_fraction", 2.0), ("write_fraction", -0.1),
        ("write_fraction", float("nan")), ("write_fraction", "0.5"),
        ("write_fraction", True), ("distribution", "bogus"),
        ("distribution", None),
    ])
    def test_workload_fields_rejected_at_construction(self, field, value):
        """These used to construct and fail only when the deployment
        built its workload, with ``WorkloadError``."""
        params = dict(num_clusters=2, replicas_per_cluster=4)
        params[field] = value
        with pytest.raises(ConfigurationError, match=field):
            ExperimentConfig(**params)

    @pytest.mark.parametrize("field, value", [
        ("fast_crypto", "false"), ("fast_crypto", 1), ("fast_crypto", None),
        ("instrument", 1), ("instrument", "yes"),
        ("geobft", None), ("geobft", {}),
        ("topology", "x"), ("topology", 6),
    ])
    def test_flag_and_nested_fields_typed(self, field, value):
        """``fast_crypto="false"`` used to run with fast crypto (the
        string is truthy), ``geobft=None`` failed only in ``Deployment``
        with a bare ``TypeError``, and ``topology="x"`` there with an
        ``AttributeError``."""
        params = dict(num_clusters=2, replicas_per_cluster=4)
        params[field] = value
        with pytest.raises(ConfigurationError, match=field):
            ExperimentConfig(**params)

    @pytest.mark.parametrize("distribution", [
        "uniform", "zipfian", "scrambled_zipfian"])
    def test_every_distribution_accepted(self, distribution):
        config = ExperimentConfig(num_clusters=2, replicas_per_cluster=4,
                                  distribution=distribution,
                                  write_fraction=0)
        assert config.distribution == distribution

    def test_every_campaign_config_constructs(self):
        from repro.sweep.campaigns import campaign_names, get_campaign
        for name in campaign_names():
            for run in get_campaign(name).runs:
                config = run.config
                # Rebuilt from its own fields: __post_init__ runs again.
                assert ExperimentConfig(**{
                    f: getattr(config, f)
                    for f in config.__dataclass_fields__}) == config

    def test_batch_cap_and_topology_accept_valid_values(self):
        config = ExperimentConfig(num_clusters=2, replicas_per_cluster=4,
                                  max_batches_per_client=1,
                                  topology=Topology.paper(2))
        assert config.resolved_topology() is config.topology

    def test_topology_defaults_to_paper_prefix(self):
        config = ExperimentConfig(num_clusters=3)
        assert config.resolved_topology().regions == (
            "oregon", "iowa", "montreal")


class TestDeploymentBuilding:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_builds_every_protocol(self, protocol):
        config = ExperimentConfig(
            protocol=protocol, num_clusters=2, replicas_per_cluster=4,
            batch_size=2, clients_per_cluster=1, duration=1.0, warmup=0.2,
            record_count=100,
        )
        deployment = Deployment(config)
        assert len(deployment.replicas) == 8
        assert len(deployment.clients) == 2
        assert set(deployment.cluster_members) == {1, 2}

    def test_default_deployment_registers_no_observer(self):
        """The network counts traffic itself, so a default deployment's
        sends notify nobody — and the counts still reach the result."""
        deployment = Deployment(ExperimentConfig(
            protocol="geobft", num_clusters=2, replicas_per_cluster=4,
            batch_size=3, clients_per_cluster=1, duration=0.5, warmup=0.1,
            record_count=100, fast_crypto=True,
        ))
        assert deployment.network._observers == ()
        result = deployment.run()
        assert deployment.network._observers == ()
        assert result.local_messages == deployment.network.local_messages > 0
        assert result.global_bytes == deployment.network.global_bytes > 0

    def test_replicas_placed_in_paper_regions(self):
        config = ExperimentConfig(
            protocol="geobft", num_clusters=2, replicas_per_cluster=4,
            duration=1.0, warmup=0.2,
        )
        deployment = Deployment(config)
        r11 = deployment.replicas[replica_id(1, 1)]
        r21 = deployment.replicas[replica_id(2, 1)]
        assert r11.region == "oregon"
        assert r21.region == "iowa"

    def test_run_experiment_returns_result(self):
        result = run_experiment(ExperimentConfig(
            protocol="geobft", num_clusters=2, replicas_per_cluster=4,
            batch_size=3, clients_per_cluster=1, client_outstanding=2,
            duration=1.5, warmup=0.3, record_count=100, fast_crypto=True,
        ))
        assert result.throughput_txn_s > 0
        assert result.safety_ok
        assert "geobft" in result.describe()

    def test_fast_crypto_matches_real_crypto_results(self):
        """fast_crypto only saves host CPU: simulated outcomes match."""
        base = dict(
            protocol="geobft", num_clusters=2, replicas_per_cluster=4,
            batch_size=3, clients_per_cluster=1, client_outstanding=2,
            duration=1.5, warmup=0.3, record_count=100, seed=5,
        )
        real = run_experiment(ExperimentConfig(**base, fast_crypto=False))
        fast = run_experiment(ExperimentConfig(**base, fast_crypto=True))
        assert fast.throughput_txn_s == pytest.approx(real.throughput_txn_s)
        assert fast.avg_latency_s == pytest.approx(real.avg_latency_s)
        assert fast.global_messages == real.global_messages


class TestScenarios:
    def _deployment(self, protocol="geobft"):
        return Deployment(ExperimentConfig(
            protocol=protocol, num_clusters=2, replicas_per_cluster=4,
            batch_size=3, clients_per_cluster=1, duration=2.0, warmup=0.4,
            record_count=100,
        ))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            apply_scenario(self._deployment(), "meteor-strike")

    def test_none_scenario_is_noop(self):
        deployment = self._deployment()
        assert apply_scenario(deployment, "none") == []
        assert not deployment.network.failures.crashed_nodes

    def test_one_backup(self):
        deployment = self._deployment()
        victims = apply_scenario(deployment, "one_backup")
        assert victims == [replica_id(2, 4)]
        assert deployment.network.failures.is_crashed(replica_id(2, 4))

    def test_f_backups_per_cluster(self):
        deployment = self._deployment()
        victims = apply_scenario(deployment, "f_backups")
        assert set(victims) == {replica_id(1, 4), replica_id(2, 4)}

    def test_primary_failure_scheduled(self):
        deployment = self._deployment()
        victims = apply_scenario(deployment, "primary", fail_at=1.0)
        assert victims == [replica_id(1, 1)]
        assert not deployment.network.failures.is_crashed(replica_id(1, 1))
        deployment.sim.run(until=1.5)
        assert deployment.network.failures.is_crashed(replica_id(1, 1))

    def test_victims_never_include_initial_primaries(self):
        deployment = self._deployment()
        victims = apply_scenario(deployment, "f_backups")
        assert replica_id(1, 1) not in victims
        assert replica_id(2, 1) not in victims


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 2.5], [10, 3.25]],
                             title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_figure_series(self):
        text = format_figure_series(
            "Figure X", "z", [1, 2],
            {"geobft": [10.0, 20.0], "pbft": [5.0, 4.0]}, "txn/s")
        assert "Figure X" in text
        assert "geobft" in text and "pbft" in text

    def test_summarize_results(self):
        result = run_experiment(ExperimentConfig(
            protocol="pbft", num_clusters=2, replicas_per_cluster=4,
            batch_size=3, clients_per_cluster=1, client_outstanding=2,
            duration=1.2, warmup=0.3, record_count=100, fast_crypto=True,
        ))
        text = summarize_results([result])
        assert "pbft" in text
        assert "tput (txn/s)" in text


class TestComplexityAnalysis:
    def test_geobft_row_matches_paper_form(self):
        row = analytic_complexity("geobft", z=4, n=7)
        assert row.decisions_per_round == 4
        assert row.centralized == "no"
        # Global messages: z(z-1)(f+1) = 4*3*3 = 36.
        assert row.global_messages == 36

    def test_pbft_quadratic_in_total_replicas(self):
        row = analytic_complexity("pbft", z=4, n=7)
        assert row.global_messages == 2 * 28 * 28

    def test_geobft_global_cost_beats_pbft(self):
        """Table 2's headline: GeoBFT has the lowest global cost."""
        for z in (2, 4, 6):
            for n in (4, 7, 13):
                geo = analytic_complexity("geobft", z, n)
                pbft = analytic_complexity("pbft", z, n)
                steward = analytic_complexity("steward", z, n)
                assert (geo.per_decision_global()
                        < pbft.per_decision_global())
                assert (geo.per_decision_global()
                        <= steward.per_decision_global() * z)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            analytic_complexity("raft", 2, 4)

    def test_measured_complexity(self):
        result = measured_complexity(100, 50, decisions=10)
        assert result["local_per_decision"] == 10.0
        assert result["global_per_decision"] == 5.0
        zero = measured_complexity(100, 50, decisions=0)
        assert zero["global_per_decision"] == 0.0
