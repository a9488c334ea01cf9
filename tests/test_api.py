"""Tests for the stable public API surface (`repro.api`)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
import repro.api


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
