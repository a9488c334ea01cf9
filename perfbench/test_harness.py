"""Tests of the perfbench harness itself.

Run as ``python -m pytest perfbench -q`` (not part of the tier-1
``testpaths``; the two end-to-end tests take about half a minute).
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers
import run
import workloads

PACKAGE = os.path.join(run.ROOT, "src", "repro")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
FAST = "geobft-exec-4x4"


def test_layer_map_covers_every_source_file():
    assert list(layers.unmapped_files(PACKAGE)) == []
    for paths in layers.LAYER_FILES.values():
        for path in paths:
            assert os.path.exists(os.path.join(PACKAGE, path)), path


def test_names_are_well_formed_and_match_benchmark_json():
    spec = run.load_spec()
    catalog = run.per_layer_catalog()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(name, unit, better) for name, (unit, better) in catalog.items()]
    end_to_end = [m["name"] for m in run.end_to_end_table(spec)]
    assert set(run.HOST_STATISTIC) == {m["name"] for m in spec["end_to_end"]}
    for name in list(workloads.WORKLOADS) + list(catalog) + end_to_end:
        assert NAME.match(name), name
    for a, b in layers.EDGES:
        assert a in layers.LAYERS and b in layers.LAYERS


def test_fold_charges_builtins_to_the_calling_layer():
    pkg = os.path.abspath("/pkg")
    sim_run = (os.path.join(pkg, "net", "simulator.py"), 1, "run")
    deliver = (os.path.join(pkg, "consensus", "replica.py"), 1, "deliver")
    sha = ("~", 0, "<built-in method _hashlib.openssl_sha256>")
    stats = {
        sim_run: (1, 1, 1.0, 4.0, {}),
        deliver: (5, 5, 2.0, 3.0, {sim_run: (5, 5, 2.0, 3.0)}),
        sha: (7, 7, 1.0, 1.0, {deliver: (7, 7, 1.0, 1.0)}),
    }
    folded = layers.fold(stats, pkg)
    assert folded["calls_total"] == 13
    assert folded["total_self_s"] == 4.0
    assert folded["layers"]["net.simulator"] == {"self_s": 1.0, "calls": 1}
    assert folded["layers"]["consensus.replica"] == {"self_s": 3.0,
                                                     "calls": 5}
    assert folded["edges"]["net.simulator--consensus.replica"] == {
        "calls": 5, "cum_s": 3.0}
    assert folded["loop_s"] == 4.0


def _result_file(tmp_path, filename, wall, q3, throughput=100.0, seed=2):
    def row(value, statistic, q1=None, q3=None):
        return {"value": value, "statistic": statistic, "median": value,
                "q1": value if q1 is None else q1,
                "q3": value if q3 is None else q3}
    spec = run.load_spec()
    end_to_end = {m["name"]: row(1.0, m["statistic"])
                  for m in run.end_to_end_table(spec)}
    end_to_end["run_wall_s"] = row(wall, "min", q1=wall, q3=q3)
    end_to_end["sim_throughput_txn_s"] = row(throughput, "identical")
    path = tmp_path / filename
    path.write_text(json.dumps({
        "manifest": {"seed": seed},
        "workloads": {"w": {"end_to_end": end_to_end, "failed_share": 0.0}},
    }))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    spec = run.load_spec()
    base = _result_file(tmp_path, "a.json", wall=1.0, q3=1.01)

    same = _result_file(tmp_path, "b.json", wall=1.02, q3=1.03)
    assert run.compare(base, same, spec) == 0
    assert "run_wall_s +2.00% ok" in capsys.readouterr().out

    slower = _result_file(tmp_path, "c.json", wall=1.5, q3=1.51)
    assert run.compare(base, slower, spec) == 1
    assert "run_wall_s +50.00% regressed" in capsys.readouterr().out

    noisy = _result_file(tmp_path, "d.json", wall=1.5, q3=2.5)
    assert run.compare(base, noisy, spec) == 0
    assert "run_wall_s +50.00% unresolved" in capsys.readouterr().out

    # A simulated metric may not move at all at the same seed ...
    model = _result_file(tmp_path, "e.json", wall=1.0, q3=1.01,
                         throughput=99.9)
    assert run.compare(base, model, spec) == 1
    assert "sim_throughput_txn_s -0.10% regressed" in capsys.readouterr().out
    # ... and across seeds the two sides ran different inputs.
    other_seed = _result_file(tmp_path, "f.json", wall=1.0, q3=1.01,
                              throughput=99.9, seed=3)
    assert run.compare(base, other_seed, spec) == 0
    assert "sim_throughput_txn_s -0.10% unresolved" in capsys.readouterr().out


def test_quick_suite_end_to_end(tmp_path):
    out = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--workloads", FAST, "--json", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stdout
    document = json.loads(out.read_text())
    spec = run.load_spec()
    assert set(document["manifest"]) >= {
        "harness", "git_sha", "python", "nproc", "seed", "repeats",
        "config_digests"}
    result = document["workloads"][FAST]
    assert result["correct"] and result["repeats"] == 2
    assert sorted(result["end_to_end"]) == sorted(
        m["name"] for m in run.end_to_end_table(spec))
    assert sorted(result["per_layer"]) == sorted(run.per_layer_catalog())
    for name in result["per_layer"]:
        assert name in done.stdout


def test_single_workload_contract_line():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", FAST,
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=300, check=False)
    assert done.returncode == 0
    line = json.loads(done.stdout.splitlines()[-1])
    spec = run.load_spec()
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert {name: row["unit"] for name, row in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
