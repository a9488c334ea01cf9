"""Open-loop aggregate traffic: specs, sources, and the overload gate.

Covers the :class:`TrafficSpec` shorthand grammar and validation, the
seeded arrival processes (determinism and the chunked Poisson sampler),
the O(arrivals) scaling contract (a million modeled users costs the
same simulator work as a thousand at equal offered load), client-side
semantics over aggregates (admission rejection, deadline abandonment,
retry accounting), the promoted ``payment_network`` scenario, and the
``BENCH_overload.json`` store interop (byte-identical regeneration and
drift gates).
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from repro.bench.deployment import (Deployment, ExperimentConfig,
                                    deployment_digest)
from repro.bench.scenarios import apply_scenario, scenario_names
from repro.errors import ConfigurationError, WorkloadError
from repro.sweep import (OVERLOAD_BENCH, RunSpec, campaign_names,
                         config_fingerprint, get_campaign)
from repro.sweep.campaigns import (OVERLOAD_FACTORS, OVERLOAD_SATURATION,
                                   OVERLOAD_USERS, PROTOCOLS, point_config)
from repro.sweep.store import OVERLOAD_SIM_DURATION
from repro.workload.payment import DEFAULT_ACCOUNTS, PaymentWorkload
from repro.workload.traffic import (TRAFFIC_PROCESSES, TrafficSpec,
                                    _poisson, split_users)

from .test_sweep import OVERLOAD_BASELINE, BenchInteropCases

SMALL = dict(protocol="geobft", num_clusters=2, replicas_per_cluster=4,
             batch_size=5, duration=1.2, warmup=0.3, seed=2,
             record_count=500, fast_crypto=True)


def traffic_config(spec: TrafficSpec, **overrides) -> ExperimentConfig:
    return ExperimentConfig(**{**SMALL, **overrides}, traffic=spec)


def steady_spec(**overrides) -> TrafficSpec:
    """A constant-rate spec fast enough for unit tests."""
    params = dict(process="constant", users=1_000, rate_per_user=0.5,
                  tick=0.05, deadline=0.8, max_retries=1,
                  retry_backoff=0.25, window=2_000)
    params.update(overrides)
    return TrafficSpec(**params)


# ---------------------------------------------------------------------------
# Spec grammar and validation
# ---------------------------------------------------------------------------
class TestTrafficSpec:
    def test_parse_shorthand_with_aliases(self):
        spec = TrafficSpec.parse(
            "poisson:users=1000000,rate=0.5,deadline=1.5,retries=3,"
            "backoff=0.2,window=50000")
        assert spec.process == "poisson"
        assert spec.users == 1_000_000
        assert spec.rate_per_user == 0.5
        assert spec.deadline == 1.5
        assert spec.max_retries == 3
        assert spec.retry_backoff == 0.2
        assert spec.window == 50_000

    def test_parse_process_only(self):
        assert TrafficSpec.parse("constant").process == "constant"

    def test_parse_rejects_unknown_process(self):
        with pytest.raises(ConfigurationError, match="unknown traffic"):
            TrafficSpec.parse("bursty:users=10")

    def test_parse_rejects_malformed_pair(self):
        with pytest.raises(ConfigurationError, match="key=value"):
            TrafficSpec.parse("poisson:users")

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            TrafficSpec.parse("poisson:velocity=3")

    def test_parse_rejects_bad_value(self):
        with pytest.raises(ConfigurationError, match="bad value"):
            TrafficSpec.parse("poisson:users=many")

    @pytest.mark.parametrize("field,value", [
        ("users", 0), ("rate_per_user", 0.0), ("tick", 0.0),
        ("deadline", 0.0), ("max_retries", -1), ("retry_backoff", 0.0),
        ("window", 0), ("period", 0.0), ("amplitude", 1.5),
        ("flash_factor", 0.0)])
    def test_field_validation(self, field, value):
        with pytest.raises(ConfigurationError):
            steady_spec(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("rate_per_user", math.nan), ("rate_per_user", math.inf),
        ("tick", math.inf), ("tick", math.nan), ("deadline", math.nan),
        ("deadline", math.inf), ("retry_backoff", math.nan),
        ("period", math.inf), ("flash_factor", math.nan),
        ("flash_at", math.nan), ("flash_at", -1.0),
        ("flash_until", math.inf),
        ("users", True), ("users", 2.5), ("users", "x"),
        ("window", 2.5), ("window", False), ("tick", "0.05")])
    def test_numeric_fields_are_typed_and_finite(self, field, value):
        """Non-finite floats, bools and non-numbers are configuration
        errors naming the field (``users="x"`` used to raise a bare
        ``TypeError``, and NaN slipped past every ``<= 0`` check)."""
        with pytest.raises(ConfigurationError, match=field):
            steady_spec(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("max_retries", "x"), ("max_retries", True), ("max_retries", 2.5),
        ("amplitude", "x"), ("amplitude", math.nan), ("amplitude", False)])
    def test_retries_and_amplitude_are_typed(self, field, value):
        """``max_retries="x"`` and ``amplitude="x"`` used to raise a bare
        ``TypeError``, and ``max_retries=True`` / ``2.5`` were accepted."""
        with pytest.raises(ConfigurationError, match=field):
            steady_spec(**{field: value})

    def test_flash_window_must_be_ordered(self):
        with pytest.raises(ConfigurationError, match="flash_until"):
            TrafficSpec(process="flash", flash_at=2.0, flash_until=1.0)

    def test_from_value_coercions(self):
        assert TrafficSpec.from_value(None) is None
        assert TrafficSpec.from_value("") is None
        spec = steady_spec()
        assert TrafficSpec.from_value(spec) is spec
        assert TrafficSpec.from_value("poisson:users=5").users == 5
        assert TrafficSpec.from_value({"process": "constant"}).process \
            == "constant"
        with pytest.raises(ConfigurationError, match="traffic must be"):
            TrafficSpec.from_value(42)

    @pytest.mark.parametrize("value, match", [
        ({"proces": "poisson"}, "proces"),
        ({"users": "many"}, "traffic spec"),
        ({"tick": None}, "traffic spec"),
    ])
    def test_from_value_dict_errors_are_configuration_errors(self, value,
                                                             match):
        """A dict spec's typos and wrongly typed values are reported like
        parse()'s, not as a bare TypeError."""
        with pytest.raises(ConfigurationError, match=match):
            TrafficSpec.from_value(value)

    def test_rate_curves(self):
        flat = steady_spec()
        assert flat.rate_multiplier(3.7) == 1.0
        assert flat.offered_txn_s(0.0) == 1_000 * 0.5
        diurnal = TrafficSpec(process="diurnal", period=20.0,
                              amplitude=0.5)
        assert diurnal.rate_multiplier(5.0) == pytest.approx(1.5)
        assert diurnal.rate_multiplier(15.0) == pytest.approx(0.5)
        flash = TrafficSpec(process="flash", flash_at=1.0,
                            flash_until=2.0, flash_factor=4.0)
        assert flash.rate_multiplier(0.5) == 1.0
        assert flash.rate_multiplier(1.0) == 4.0
        assert flash.rate_multiplier(2.0) == 1.0

    def test_split_users_is_even_and_total_preserving(self):
        assert split_users(10, 3) == [4, 3, 3]
        assert sum(split_users(1_000_001, 7)) == 1_000_001

    def test_processes_tuple_is_the_contract(self):
        assert TRAFFIC_PROCESSES == ("constant", "poisson", "diurnal",
                                     "flash")


class TestPoisson:
    def test_seeded_draws_are_deterministic(self):
        a = [_poisson(random.Random(7), lam) for lam in (0.5, 3.0, 900.0)]
        b = [_poisson(random.Random(7), lam) for lam in (0.5, 3.0, 900.0)]
        assert a == b

    def test_zero_rate_draws_zero(self):
        assert _poisson(random.Random(1), 0.0) == 0

    def test_chunked_large_lambda_has_sane_mean(self):
        rng = random.Random(3)
        draws = [_poisson(rng, 2_000.0) for _ in range(50)]
        mean = sum(draws) / len(draws)
        assert 1_900 < mean < 2_100


# ---------------------------------------------------------------------------
# The source inside a deployment
# ---------------------------------------------------------------------------
# case -> (steady_spec overrides, protocol, scenario, deployment_digest,
# events, sent/traffic counters), recorded on the SMALL 2x4 shape.
RETRY_PATH_PINS = {
    "zyzzyva-one-backup": (
        dict(deadline=0.02, max_retries=2), "zyzzyva", "one_backup",
        "fffdb1ff3adf72b6596e5a97ae92277e42f80ac542751b444da118c686f90a68",
        9040, {"certs": 736, "requests": 1800, "retried": 178,
               "abandoned": 0}),
    "geobft-deadline": (
        dict(process="poisson", rate_per_user=2.0, deadline=0.05,
             max_retries=2), "geobft", None,
        "d5a8c0b63f441b20e4635c3d142f459b1de4cf831d60c0007fef6ec51297263f",
        46763, {"certs": 0, "requests": 3293, "retried": 55,
                "abandoned": 0}),
    "pbft-primary": (
        dict(deadline=0.3, max_retries=1), "pbft", "primary",
        "1bf68315ca55a662bca8f6bfe471419b3cb4732d093a29191936229796a8f892",
        4259, {"certs": 0, "requests": 2730, "retried": 90,
               "abandoned": 315}),
}


class TestOpenLoopRuns:
    def run_once(self, spec: TrafficSpec, **overrides):
        deployment = Deployment(traffic_config(spec, **overrides))
        result = deployment.run()
        return deployment, result

    def test_rerun_is_bit_identical(self):
        spec = steady_spec(process="poisson")
        dep_a, res_a = self.run_once(spec)
        dep_b, res_b = self.run_once(spec)
        assert deployment_digest(dep_a, res_a) \
            == deployment_digest(dep_b, res_b)
        assert res_a.traffic == res_b.traffic
        assert res_a.traffic is not None
        assert res_a.traffic["goodput_txn_s"] > 0

    def test_events_scale_with_arrivals_not_users(self):
        # Same offered load (500 txn/s), three orders of magnitude apart
        # in population: identical simulator work and committed txns.
        small = steady_spec(users=1_000, rate_per_user=0.5)
        huge = steady_spec(users=1_000_000, rate_per_user=0.0005)
        dep_a, res_a = self.run_once(small)
        dep_b, res_b = self.run_once(huge)
        assert dep_a.sim.events_processed == dep_b.sim.events_processed
        assert res_a.completed_txns == res_b.completed_txns
        assert res_b.traffic["modeled_users"] == 1_000_000

    def test_closed_loop_results_omit_traffic(self):
        result = Deployment(ExperimentConfig(**SMALL)).run()
        assert result.traffic is None
        assert "traffic" not in result.to_dict()

    def test_admission_window_rejects_overload(self):
        spec = steady_spec(rate_per_user=2.0, window=20, max_retries=0)
        _, result = self.run_once(spec)
        assert result.traffic["rejected_txns"] > 0

    def test_deadline_abandons_when_retries_exhausted(self):
        spec = steady_spec(deadline=0.01, max_retries=0)
        _, result = self.run_once(spec)
        assert result.traffic["abandoned_txns"] > 0
        assert result.traffic["abandonment_rate"] > 0

    def test_retry_accounting(self):
        spec = steady_spec(deadline=0.01, max_retries=2,
                           retry_backoff=0.05)
        _, result = self.run_once(spec)
        assert result.traffic["retried_batches"] > 0

    @pytest.mark.parametrize("case", sorted(RETRY_PATH_PINS))
    def test_retry_paths_are_pinned(self, case):
        # The golden matrix is fault-free, so none of these client paths
        # run there: Zyzzyva's commit certificates and retransmissions,
        # GeoBFT's fallback broadcasts on a short deadline, and PBFT's
        # abandonment behind a crashed primary.
        (spec_kw, protocol, scenario, expected_digest, expected_events,
         counters) = RETRY_PATH_PINS[case]
        deployment = Deployment(traffic_config(
            steady_spec(**spec_kw), protocol=protocol))
        if scenario is not None:
            apply_scenario(deployment, scenario)
        result = deployment.run()
        assert result.safety_ok
        sent = deployment.network.message_counts()
        observed = {
            "certs": sum(sent.get("ZyzzyvaCommitCert", {}).values()),
            "requests": sum(sent["ClientRequestBatch"].values()),
            "retried": result.traffic["retried_batches"],
            "abandoned": result.traffic["abandoned_txns"],
        }
        assert observed == counters
        assert deployment.sim.events_processed == expected_events
        assert deployment_digest(deployment, result) == expected_digest

    @pytest.mark.parametrize("protocol", ["pbft", "zyzzyva", "hotstuff"])
    def test_other_protocols_complete_under_traffic(self, protocol):
        clusters = 1 if protocol != "geobft" else 2
        spec = steady_spec()
        _, result = self.run_once(spec, protocol=protocol,
                                  num_clusters=clusters)
        assert result.safety_ok
        assert result.completed_txns > 0
        assert result.traffic["goodput_txn_s"] > 0


# ---------------------------------------------------------------------------
# Payment workload and scenario
# ---------------------------------------------------------------------------
class TestPaymentNetwork:
    def test_workload_is_seeded_and_bounded(self):
        a = PaymentWorkload("iowa", seed=7, accounts=50)
        b = PaymentWorkload("iowa", seed=7, accounts=50)
        batch_a = a.next_batch(10, prefix="x-")
        batch_b = b.next_batch(10, prefix="x-")
        assert [t.txn_id for t in batch_a] == [t.txn_id for t in batch_b]
        assert [t.value for t in batch_a] == [t.value for t in batch_b]
        assert a.generated_txns == 10
        for txn in batch_a:
            assert txn.op == "modify"
            assert txn.value.startswith("iowa->")
        with pytest.raises(WorkloadError):
            PaymentWorkload("iowa", seed=1, accounts=0)

    def test_scenario_is_registered_and_applies(self):
        assert "payment_network" in scenario_names()
        deployment = Deployment(ExperimentConfig(**SMALL))
        apply_scenario(deployment, "payment_network")
        assert deployment.clients
        for client in deployment.clients:
            assert isinstance(client._workload, PaymentWorkload)
            assert client._workload.accounts \
                <= min(DEFAULT_ACCOUNTS, SMALL["record_count"])

    def test_scenario_run_is_deterministic(self):
        def run():
            deployment = Deployment(ExperimentConfig(**SMALL))
            apply_scenario(deployment, "payment_network")
            result = deployment.run()
            return deployment, result

        dep_a, res_a = run()
        dep_b, res_b = run()
        assert res_a.safety_ok and res_a.completed_txns > 0
        assert deployment_digest(dep_a, res_a) \
            == deployment_digest(dep_b, res_b)


# ---------------------------------------------------------------------------
# BENCH_overload.json interop
# ---------------------------------------------------------------------------
class TestOverloadInterop(BenchInteropCases):
    spec = OVERLOAD_BENCH
    committed = OVERLOAD_BASELINE
    forms = {"bench-overload:geobft:ycsb:2": "overload/geobft/x2",
             "bench-overload:geobft:ycsb:0.5": "overload/geobft/x0.5",
             "bench-overload:geobft:payment:2":
                 "overload/payment-geobft-x2"}
    fresh = RunSpec(run_id="overload/geobft/x1",
                    config=traffic_config(steady_spec()),
                    tags={"figure": "overload", "protocol": "geobft",
                          "x": 1.0, "xi": 1, "workload": "ycsb"})


# ---------------------------------------------------------------------------
# Campaign registration
# ---------------------------------------------------------------------------
class TestCampaigns:
    def test_overload_and_chaos_registered(self):
        names = campaign_names()
        assert "overload" in names
        assert "chaos" in names

    def test_overload_campaign_shape(self):
        campaign = get_campaign("overload")
        ids = campaign.run_ids()
        for protocol in PROTOCOLS:
            assert protocol in OVERLOAD_SATURATION
            for x in OVERLOAD_FACTORS:
                assert OVERLOAD_BENCH.run_id(protocol=protocol,
                                             workload="ycsb", x=x) in ids
        for spec in campaign.runs:
            assert spec.config.traffic is not None
            assert spec.config.traffic.users == OVERLOAD_USERS
            assert not spec.depends_on
        assert "overload/payment-geobft-x2" in ids
        payment = next(s for s in campaign.runs
                       if s.tags.get("workload") == "payment")
        assert payment.scenario == "payment_network"
        assert campaign.reports[0].filename == "BENCH_overload.json"

    def test_overload_runs_take_the_file_duration(self):
        # The file header and every run read one duration, passed
        # explicitly; it equals point_config's default, so run keys and
        # config fingerprints are the ones the default gave.
        assert f"duration={OVERLOAD_SIM_DURATION}s" \
            in OVERLOAD_BENCH.benchmark
        for spec in get_campaign("overload").runs:
            cfg = spec.config
            assert cfg.duration == OVERLOAD_SIM_DURATION
            implicit = point_config(cfg.protocol, 2, 4, traffic=cfg.traffic)
            assert config_fingerprint(implicit) == config_fingerprint(cfg)
            assert dataclasses.replace(spec, config=implicit).key() \
                == spec.key()

    def test_chaos_campaign_covers_every_protocol(self):
        campaign = get_campaign("chaos")
        assert len(campaign.runs) == len(PROTOCOLS)
        for spec in campaign.runs:
            assert spec.scenario == "chaos_smoke"
            assert spec.config.duration == 10.0
        assert campaign.reports[0].filename == "chaos_audit.txt"
