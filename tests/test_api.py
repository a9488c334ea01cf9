"""Tests for the stable public API surface (`repro.api`)."""

from __future__ import annotations

import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import repro
import repro.api

#: Every package whose surface re-exports lazily.
_LAZY_SURFACES = ("repro", "repro.api", "repro.analysis", "repro.bench",
                  "repro.consensus", "repro.core", "repro.crypto",
                  "repro.ledger", "repro.net", "repro.workload")

#: Exported values that are neither classes nor functions (constants and
#: type aliases: no ``__module__`` of their own), by defining module.
_CONSTANT_HOMES = {
    "Batch": "repro.ledger.block",
    "__version__": "repro",
    "PROTOCOLS": "repro.bench.deployment",
    "SCENARIOS": "repro.bench.scenarios",
    "FAULT_KINDS": "repro.net.chaos",
    "PAPER_REGIONS": "repro.net.topology",
    "TRAFFIC_PROCESSES": "repro.workload.traffic",
    "SHARING_ALL": "repro.core.config",
    "SHARING_OPTIMISTIC": "repro.core.config",
    "SHARING_SINGLE": "repro.core.config",
    "GENESIS_HASH": "repro.ledger.block",
    "DEFAULT_RECORD_COUNT": "repro.ledger.store",
    "DEFAULT_ACCOUNTS": "repro.workload.payment",
    "DEFAULT_ZIPFIAN_CONSTANT": "repro.workload.zipfian",
}

#: What a pbft run never needs; none of it may load.
_UNUSED_BY_PBFT = (
    "repro.net.chaos", "repro.consensus.hotstuff", "repro.consensus.steward",
    "repro.consensus.zyzzyva", "repro.core.geobft", "repro.crypto.threshold",
    "repro.workload.traffic", "repro.workload.payment", "repro.bench.charts",
    "repro.bench.reporting", "repro.bench.tracing", "repro.ledger.recovery",
    "repro.net.sanitizer", "repro.sweep", "repro.lint")

#: The module each protocol's replica class lives in (build order: the
#: four that a pbft run must not have loaded, then pbft itself).
_REPLICA_MODULES = (("zyzzyva", "repro.consensus.zyzzyva"),
                    ("hotstuff", "repro.consensus.hotstuff"),
                    ("steward", "repro.consensus.steward"),
                    ("geobft", "repro.core.geobft"),
                    ("pbft", "repro.consensus.pbft"))


class TestSurface:
    def test_api_all_resolves(self):
        for name in repro.api.__all__:
            assert getattr(repro.api, name, None) is not None, name

    def test_package_reexports_stable_api(self):
        for name in repro.api.__all__:
            assert name in repro.__all__, name
            assert getattr(repro, name) is getattr(repro.api, name), name

    def test_package_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_import_defers_campaign_and_parallel_machinery(self):
        """A single run never touches the sweep stores, the process pool
        or the retired ``repro.bench.parallel`` module, so ``import
        repro`` must not load them; the campaign names still import from
        the package root."""
        probe = (
            "import sys, repro\n"
            "heavy = {'sqlite3', 'multiprocessing', 'repro.sweep',\n"
            "         'repro.bench.parallel'}\n"
            "assert not heavy & set(sys.modules), heavy & set(sys.modules)\n"
            "assert all(hasattr(repro, n) for n in repro.__all__)\n"
            "from repro import Campaign\n"
            "import repro.sweep\n"
            "assert Campaign is repro.sweep.Campaign is repro.api.Campaign\n"
            "assert 'Campaign' in vars(repro.api)  # resolved once\n"
            "try:\n"
            "    repro.no_such_name\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('unknown names must not resolve')\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", probe], check=True, env=env,
                       timeout=60)

    def test_import_footprint_of_a_pbft_run(self):
        """A pbft deployment loads no other protocol, no chaos, traffic,
        payment, threshold crypto, reporting, recovery, sanitizer,
        campaign or lint module, and ``run()`` imports nothing.  Each
        protocol's build then loads its own replica module."""
        probe = (
            "import sys\n"
            f"unused, replica_modules = {_UNUSED_BY_PBFT!r}, "
            f"{_REPLICA_MODULES!r}\n"
            "from repro import Deployment, ExperimentConfig\n"
            "def build(protocol):\n"
            "    return Deployment(ExperimentConfig(\n"
            "        protocol=protocol, num_clusters=2,\n"
            "        replicas_per_cluster=4, batch_size=5,\n"
            "        clients_per_cluster=1, duration=0.6, warmup=0.2,\n"
            "        record_count=100, fast_crypto=True))\n"
            "deployment = build('pbft')\n"
            "before = set(sys.modules)\n"
            "assert deployment.run().completed_txns > 0\n"
            "assert set(sys.modules) == before, set(sys.modules) - before\n"
            "loaded = set(unused) & set(sys.modules)\n"
            "assert not loaded, sorted(loaded)\n"
            "for protocol, module in replica_modules:\n"
            "    assert (module in sys.modules) == (protocol == 'pbft'), "
            "module\n"
            "    build(protocol)\n"
            "    assert module in sys.modules, module\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", probe], check=True, env=env,
                       timeout=120)

    @pytest.mark.parametrize("package", _LAZY_SURFACES)
    def test_reexports_are_the_defining_objects(self, package):
        """Every exported name is the very object its defining module
        binds, and an unknown name is an ``AttributeError``."""
        surface = importlib.import_module(package)
        for name in surface.__all__:
            value = getattr(surface, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                home = value.__module__
            else:
                home = _CONSTANT_HOMES[name]
            defined = getattr(importlib.import_module(home), name)
            assert value is defined, (package, name, home)
        with pytest.raises(AttributeError, match=package):
            surface.no_such_name  # noqa: B018
        assert not hasattr(surface, "no_such_name")

    def test_protocol_entries_name_replica_classes(self):
        """A protocol entry names its replica class by path; a typo there
        is no longer an import error, so it must fail here."""
        from repro.bench.deployment import PROTOCOL_ENTRIES
        from repro.consensus.replica import BaseReplica
        for protocol, entry in PROTOCOL_ENTRIES.items():
            cls = entry.replica_class()
            assert isinstance(cls, type), protocol
            assert issubclass(cls, BaseReplica), protocol

    def test_core_entry_points_present(self):
        for name in ("ExperimentConfig", "run_experiment",
                     "ExperimentResult", "FaultTimeline",
                     "apply_scenario", "deployment_digest"):
            assert name in repro.api.__all__


class TestResultSerialization:
    def _result(self):
        return repro.ExperimentResult(
            protocol="geobft", num_clusters=2, replicas_per_cluster=4,
            batch_size=5, throughput_txn_s=100.0, avg_latency_s=0.05,
            p50_latency_s=0.04, completed_txns=500, duration=5.0,
            local_messages=10, global_messages=4, local_bytes=1000,
            global_bytes=400, safety_ok=True,
        )

    def test_to_dict_round_trip(self):
        result = self._result()
        data = result.to_dict()
        assert data["protocol"] == "geobft"
        assert data["liveness_ok"] is True
        assert data["schema"] == "repro-result/1"
        assert repro.ExperimentResult.from_dict(data) == result

    def test_from_dict_rejects_unknown_schema(self):
        data = self._result().to_dict()
        data["schema"] = "repro-result/999"
        with pytest.raises(Exception):
            repro.ExperimentResult.from_dict(data)

    def test_to_json_is_stable(self):
        result = self._result()
        data = json.loads(result.to_json())
        assert data == result.to_dict()
        # sorted keys, so the JSON form itself is deterministic
        assert result.to_json() == result.to_json()
        assert list(data) == sorted(data)

    def test_describe_flags_stalled_liveness(self):
        import dataclasses

        stalled = dataclasses.replace(self._result(), liveness_ok=False)
        assert "liveness=STALLED" in stalled.describe()
        assert "liveness=STALLED" not in self._result().describe()


class TestEndToEnd:
    def test_run_experiment_via_public_api(self):
        result = repro.run_experiment(repro.ExperimentConfig(
            protocol="geobft", num_clusters=2, replicas_per_cluster=4,
            batch_size=5, clients_per_cluster=1, duration=1.5,
            warmup=0.3, record_count=100, fast_crypto=True,
        ))
        assert result.safety_ok and result.liveness_ok
        assert result.completed_txns > 0

    def test_invariant_report_without_timeline(self):
        deployment = repro.Deployment(repro.ExperimentConfig(
            protocol="pbft", num_clusters=2, replicas_per_cluster=4,
            batch_size=5, clients_per_cluster=1, duration=1.5,
            warmup=0.3, record_count=100, fast_crypto=True,
        ))
        deployment.run()
        report = deployment.invariants
        assert report is not None
        assert report.ok
        assert report.liveness_failures == ()
        assert report.byzantine_excluded == ()
        assert "safety" in report.describe()
