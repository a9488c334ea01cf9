"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "geobft"
        assert args.clusters == 2

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "raft"])

    def test_compare_protocol_list(self):
        args = build_parser().parse_args(
            ["compare", "--protocols", "geobft,pbft"])
        assert args.protocols == ["geobft", "pbft"]


class TestCommands:
    def test_table1_prints_matrix(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "oregon" in out and "sydney" in out
        assert "270" in out  # Belgium <-> Sydney RTT

    def test_table2_prints_complexity(self, capsys):
        assert main(["table2", "-z", "4", "-n", "7"]) == 0
        out = capsys.readouterr().out
        assert "geobft" in out and "hotstuff" in out
        assert "z=4, n=7" in out

    def test_run_executes_experiment(self, capsys):
        code = main([
            "run", "-p", "geobft", "-z", "2", "-n", "4", "-b", "5",
            "-d", "1.5", "-w", "0.3", "--clients", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "geobft" in out
        assert "safety=ok" in out

    def test_run_with_scenario(self, capsys):
        code = main([
            "run", "-p", "geobft", "-z", "2", "-n", "4", "-b", "5",
            "-d", "2.0", "-w", "0.3", "--clients", "1",
            "--scenario", "one_backup",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "crashing" in out

    def test_compare_two_protocols(self, capsys):
        code = main([
            "compare", "--protocols", "geobft,pbft", "-z", "2", "-n", "4",
            "-b", "5", "-d", "1.5", "-w", "0.3", "--clients", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "geobft" in out and "pbft" in out
        assert "tput (txn/s)" in out

    def test_sweep_rejects_unknown_baseline_before_running(self, capsys,
                                                          tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema": "bench-bogus/1",
                                     "points": []}))
        store = tmp_path / "store"
        code = main(["sweep", "--campaign", "ci-smoke", "--store",
                     str(store), "--baseline", str(bogus)])
        assert code == 2
        assert "unknown bench schema" in capsys.readouterr().err
        assert not store.exists() or not any(store.iterdir())


class TestObservability:
    def test_run_reports_percentiles_and_caches(self, capsys):
        code = main([
            "run", "-p", "geobft", "-z", "2", "-n", "4", "-b", "5",
            "-d", "1.5", "-w", "0.3", "--clients", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "p50" in out and "p95" in out and "p99" in out
        assert "offered load" in out
        assert "cache telemetry" in out

    def test_run_trace_out_writes_chrome_trace(self, capsys, tmp_path):
        import json
        trace = tmp_path / "out.json"
        code = main([
            "run", "-p", "geobft", "-z", "2", "-n", "4", "-b", "5",
            "-d", "1.5", "-w", "0.3", "--clients", "1",
            "--trace-out", str(trace),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "consensus phase durations" in out
        assert "global share latency" in out
        document = json.loads(trace.read_text())
        assert any(e.get("cat") == "lifecycle"
                   for e in document["traceEvents"])

    def test_trace_command_asserts_determinism(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        code = main([
            "trace", "-p", "geobft", "-z", "2", "-n", "4", "-b", "5",
            "-d", "1.5", "-w", "0.3", "--clients", "1",
            "--out", str(trace), "--jsonl", str(jsonl),
            "--assert-determinism",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "determinism: ok" in out
        assert "runtime telemetry" in out
        assert trace.exists() and jsonl.exists()

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.trace_out == "trace.json"
        assert not args.assert_determinism
        assert args.summary == ""

    def test_trace_legacy_aliases(self):
        # --out/--jsonl remain aliases of --trace-out/--trace-jsonl so
        # historical invocations (CI, docs) keep working.
        args = build_parser().parse_args(
            ["trace", "--out", "a.json", "--jsonl", "b.jsonl"])
        assert args.trace_out == "a.json"
        assert args.trace_jsonl == "b.jsonl"

    def test_trace_summary_offline(self, capsys, tmp_path):
        jsonl = tmp_path / "trace.jsonl"
        code = main([
            "run", "-p", "geobft", "-z", "2", "-n", "4", "-b", "5",
            "-d", "1.5", "-w", "0.3", "--clients", "1",
            "--trace-jsonl", str(jsonl),
        ])
        assert code == 0
        capsys.readouterr()  # discard the run's own report
        assert main(["trace", "--summary", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert f"trace summary of {jsonl}" in out
        assert "committed rounds" in out
        assert "consensus phase durations" in out

    def test_trace_summary_missing_file_errors(self, capsys, tmp_path):
        code = main(["trace", "--summary", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "cannot load" in capsys.readouterr().err

    @pytest.mark.parametrize("t", ['"x"', "NaN"])
    def test_trace_summary_bad_time_exits_2(self, capsys, tmp_path, t):
        jsonl = tmp_path / "bad.jsonl"
        jsonl.write_text('{"t": %s, "phase": "proposed", "node": "r1.1", '
                         '"cluster": 1, "round": 0}\n' % t)
        assert main(["trace", "--summary", str(jsonl)]) == 2
        err = capsys.readouterr().err
        assert "cannot load" in err and f"{jsonl}:1" in err


class TestTrafficFlag:
    def test_run_with_link_report(self, capsys):
        code = main([
            "run", "-p", "pbft", "-z", "2", "-n", "4", "-b", "5",
            "-d", "1.2", "-w", "0.3", "--clients", "1", "--link-report",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-link traffic" in out
        assert "oregon" in out

    def test_run_with_open_loop_traffic(self, capsys):
        code = main([
            "run", "-p", "pbft", "-z", "2", "-n", "4", "-b", "5",
            "-d", "1.2", "-w", "0.3",
            "--traffic", "poisson:users=1000,rate=0.05",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "open-loop:" in out
        assert "1,000" in out


class TestChaosFlags:
    def _timeline_file(self, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps({
            "name": "cli-test",
            "faults": [
                {"kind": "crash", "targets": "backup:1", "at": 0.5},
            ],
        }))
        return str(path)

    def test_shared_args_on_every_experiment_command(self):
        for command in ("run", "trace", "compare"):
            args = build_parser().parse_args([command])
            assert args.scenario == "none"
            assert args.faults == ""
            assert args.fail_at == 0.0

    def test_run_with_faults_file(self, capsys, tmp_path):
        code = main([
            "run", "-p", "geobft", "-z", "2", "-n", "4", "-b", "5",
            "-d", "2.0", "-w", "0.3", "--clients", "1",
            "--faults", self._timeline_file(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault timeline 'cli-test'" in out
        assert "safety:   ok" in out

    def test_run_json_output(self, capsys):
        code = main([
            "run", "-p", "pbft", "-z", "2", "-n", "4", "-b", "5",
            "-d", "1.5", "-w", "0.3", "--clients", "1", "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["protocol"] == "pbft"
        assert data["safety_ok"] is True and data["liveness_ok"] is True

    def test_unknown_scenario_clean_error(self, capsys):
        code = main([
            "run", "-d", "1.0", "-w", "0.3", "--scenario", "meteor",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err

    def test_missing_faults_file_clean_error(self, capsys):
        code = main([
            "run", "-d", "1.0", "-w", "0.3", "--faults", "/nope.json",
        ])
        assert code == 2
        assert "cannot read fault timeline" in capsys.readouterr().err

    def test_compare_with_faults(self, capsys, tmp_path):
        code = main([
            "compare", "--protocols", "geobft,pbft", "-z", "2",
            "-n", "4", "-b", "5", "-d", "1.5", "-w", "0.3",
            "--clients", "1", "--faults", self._timeline_file(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "geobft" in out and "pbft" in out
