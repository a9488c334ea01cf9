"""perfbench: host-time benchmark of the simulator, end to end and by layer.

    python perfbench/run.py --seed 2                  # all four workloads
    python perfbench/run.py --quick --workloads geobft-exec-4x4
    python perfbench/run.py --compare A.json B.json   # two result files
    python perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repeat is a fresh single-threaded child process (``child.py``),
one at a time, interleaved round-robin over the workloads.  The last
form measures one workload for ``S`` seconds and prints one JSON object
as its last line (the contract ``BENCHMARK.json`` is written to).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers
import workloads

HARNESS_VERSION = "perfbench/1"
DEFAULT_SEED = 2
DEFAULT_REPEATS = 7
CHILD_TIMEOUT_S = 150

#: How the repeats of one run fold into a host-time metric.  A
#: deterministic program cannot run faster than its intrinsic cost and
#: host noise only adds, so wall time is the minimum; set-up and memory
#: are medians.  These are BENCHMARK.json's ``end_to_end`` metrics.
HOST_STATISTIC = {"run_wall_s": "min", "setup_s": "median",
                  "peak_rss_mb": "median"}

#: Simulated results: name -> (unit, better).  End to end for a user of
#: the simulator, but a pure function of (config, seed) — identical in
#: every repeat, constant across seeds on the closed-loop workloads —
#: so they carry no relative bound: ``--compare`` requires them to be
#: exactly equal at equal seeds, and BENCHMARK.json lists them per
#: layer (``workload.client.*``) rather than among its bounded metrics.
SIM_METRICS: Dict[str, Tuple[str, str]] = {
    "sim_throughput_txn_s": ("txn/sim_s", "higher"),
    "sim_latency_p50_s": ("sim_s", "lower"),
    "sim_latency_p95_s": ("sim_s", "lower"),
}

#: Exact per-layer counts read through public accessors: name -> (unit,
#: better).  ``child.py`` emits a value for each (plus the hit counters
#: the ratios below are built from).
COUNT_METRICS: Dict[str, Tuple[str, str]] = {
    "net.simulator.events": ("count", "lower"),
    "net.simulator.max_queue_depth": ("count", "lower"),
    "net.network.sends": ("count", "lower"),
    "net.network.local_msgs": ("count", "lower"),
    "net.network.global_msgs": ("count", "lower"),
    "net.network.local_bytes": ("bytes", "lower"),
    "net.network.global_bytes": ("bytes", "lower"),
    "crypto.digests.encode_misses": ("count", "lower"),
    "crypto.digests.digest_misses": ("count", "lower"),
    "crypto.auth.verify_misses": ("count", "lower"),
    "ledger.execution.executed_txns": ("count", "higher"),
    "ledger.execution.store_writes": ("count", "lower"),
    "ledger.blockchain.blocks": ("count", "higher"),
    "workload.generator.submitted_txns": ("count", "higher"),
    "workload.client.completed_txns": ("count", "higher"),
    "workload.traffic.offered_txns": ("count", "higher"),
    "workload.traffic.rejected_txns": ("count", "lower"),
    "workload.traffic.abandoned_txns": ("count", "lower"),
    "workload.traffic.retried_batches": ("count", "lower"),
}

#: Ratios of the counts above, and host time per unit of counted work.
DERIVED_METRICS: Dict[str, Tuple[str, str]] = {
    "net.simulator.host_us_per_event": ("us", "lower"),
    "net.network.global_bytes_per_txn": ("bytes", "lower"),
    "net.network.msgs_per_txn": ("count", "lower"),
    "crypto.digests.encode_hit_ratio": ("ratio", "higher"),
    "crypto.digests.digest_hit_ratio": ("ratio", "higher"),
    "crypto.digests.splice_hit_ratio": ("ratio", "higher"),
    "crypto.auth.verify_hit_ratio": ("ratio", "higher"),
    "ledger.execution.host_us_per_executed_txn": ("us", "lower"),
    "workload.traffic.generator_lateness_s": ("sim_s", "lower"),
}

TRACE_METRICS: Dict[str, Tuple[str, str]] = {
    "trace.calls_total": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "net.simulator.loop_s": ("s", "lower"),
    "bench.deployment.audit_s": ("s", "lower"),
}


class BenchError(Exception):
    """The benchmark could not be run (as opposed to: ran and failed)."""


def per_layer_catalog() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric the harness emits: name -> (unit, better)."""
    catalog: Dict[str, Tuple[str, str]] = {}
    for layer in layers.LAYERS:
        catalog[f"{layer}.self_s"] = ("s", "lower")
        catalog[f"{layer}.share"] = ("ratio", "lower")
        catalog[f"{layer}.calls"] = ("count", "lower")
    catalog.update(TRACE_METRICS)
    for caller, callee in layers.EDGES:
        catalog[f"edge.{layers.edge_name(caller, callee)}.calls"] = (
            "count", "lower")
    catalog.update(COUNT_METRICS)
    catalog.update(DERIVED_METRICS)
    for name, unit_better in SIM_METRICS.items():
        catalog[f"workload.client.{name}"] = unit_better
    return catalog


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end_table(spec: dict) -> List[dict]:
    """BENCHMARK.json's bounded host metrics, then the simulated results
    (bound 0: they may not move at all)."""
    table = [dict(metric, statistic=HOST_STATISTIC[metric["name"]])
             for metric in spec["end_to_end"]]
    table += [{"name": name, "unit": unit, "better": better, "bound": 0.0,
               "statistic": "identical"}
              for name, (unit, better) in SIM_METRICS.items()]
    return table


# ----------------------------------------------------------------------
# Running children
# ----------------------------------------------------------------------
def run_child(name: str, seed: int, trace: bool) -> dict:
    """One fresh-process repeat; returns the child's JSON record."""
    command = [sys.executable, os.path.join(HERE, "child.py"), name,
               "--seed", str(seed)]
    if trace:
        command.append("--trace")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: child exceeded {CHILD_TIMEOUT_S}s") from exc
    if done.returncode != 0:
        raise BenchError(f"{name}: child exited with {done.returncode}")
    try:
        return json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{name}: child printed no result") from exc


def measure(names: List[str], seed: int, *, repeats: int,
            warmup_rounds: int = 0, seconds: float = 0.0,
            traced: Iterable[str] = ()) -> Tuple[Dict[str, List[dict]],
                                                 Dict[str, dict]]:
    """Interleaved timed rounds, then one traced child per workload.

    The first ``warmup_rounds`` rounds are discarded and ``repeats`` are
    kept; further rounds are added until ``seconds`` per workload have
    gone by.
    """
    samples: Dict[str, List[dict]] = {name: [] for name in names}
    start = time.monotonic()
    rounds = 0
    while (rounds < warmup_rounds + repeats
           or time.monotonic() - start < seconds * len(names)):
        for name in names:
            record = run_child(name, seed, trace=False)
            if rounds >= warmup_rounds:
                samples[name].append(record)
            print(f"  round {rounds} {name}: run {record['run_wall_s']:.3f}s "
                  f"setup {record['setup_s']:.3f}s", file=sys.stderr)
        rounds += 1
    traces = {}
    for name in traced:
        traces[name] = run_child(name, seed, trace=True)
        print(f"  traced {name}: {traces[name]['run_wall_s']:.3f}s",
              file=sys.stderr)
    return samples, traces


# ----------------------------------------------------------------------
# Folding repeats into metrics
# ----------------------------------------------------------------------
def spread(values: List[float]) -> Dict[str, float]:
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {"min": ordered[0], "q1": q1, "median": statistics.median(ordered),
            "q3": q3, "max": ordered[-1], "n": len(ordered)}


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer_values(record: dict, run_wall_s: float,
                     trace: Optional[dict]) -> Dict[str, float]:
    """Per-layer metric values from one repeat's record and one trace."""
    counts = record["counts"]
    values: Dict[str, float] = {name: counts[name] for name in COUNT_METRICS}
    for name in SIM_METRICS:
        values[f"workload.client.{name}"] = record[name]
    completed = counts["workload.client.completed_txns"]
    messages = (counts["net.network.local_msgs"]
                + counts["net.network.global_msgs"])
    values.update({
        "net.simulator.host_us_per_event":
            1e6 * run_wall_s / counts["net.simulator.events"],
        "net.network.global_bytes_per_txn":
            counts["net.network.global_bytes"] / completed,
        "net.network.msgs_per_txn": messages / completed,
        "crypto.digests.encode_hit_ratio": _ratio(
            counts["crypto.digests.encode_hits"],
            counts["crypto.digests.encode_misses"]),
        "crypto.digests.digest_hit_ratio": _ratio(
            counts["crypto.digests.digest_hits"],
            counts["crypto.digests.digest_misses"]),
        "crypto.digests.splice_hit_ratio": _ratio(
            counts["crypto.digests.splice_hits"],
            counts["crypto.digests.splice_misses"]),
        "crypto.auth.verify_hit_ratio": _ratio(
            counts["crypto.auth.verify_hits"],
            counts["crypto.auth.verify_misses"]),
        "ledger.execution.host_us_per_executed_txn":
            1e6 * run_wall_s / counts["ledger.execution.executed_txns"],
        # The open loop draws arrivals per tick of *simulated* time and
        # stamps each request with its tick, so the generator cannot
        # fall behind its schedule: lateness is zero by construction.
        "workload.traffic.generator_lateness_s": 0.0,
    })
    if trace is not None:
        total = trace["total_self_s"]
        for layer, row in trace["layers"].items():
            values[f"{layer}.self_s"] = row["self_s"]
            values[f"{layer}.share"] = row["self_s"] / total
            values[f"{layer}.calls"] = row["calls"]
        for edge, row in trace["edges"].items():
            values[f"edge.{edge}.calls"] = row["calls"]
        values.update({
            "trace.calls_total": trace["calls_total"],
            "trace.wall_s": trace["wall_s"],
            "trace.overhead_ratio": trace["wall_s"] / run_wall_s,
            "net.simulator.loop_s": trace["loop_s"],
            "bench.deployment.audit_s": trace["audit_s"],
        })
    return values


def bench_scale_digest(n: int) -> Optional[str]:
    """The committed serial digest for ``n`` replicas, if the row exists."""
    try:
        with open(os.path.join(ROOT, "BENCH_scale.json"),
                  encoding="utf-8") as fh:
            points = json.load(fh)["points"]
    except (OSError, ValueError, KeyError):
        return None
    for point in points:
        if point.get("n") == n and point.get("workers") == 1:
            return point.get("digest")
    return None


def summarise(name: str, seed: int, repeats: List[dict],
              traced: Optional[dict], spec: dict) -> dict:
    """Check one workload's repeats and fold them into its metrics."""
    first = repeats[0]
    problems: List[str] = []
    for record in repeats + ([traced] if traced else []):
        problems.extend(record["check_failures"])
        if record["digest"] != first["digest"]:
            problems.append("deployment_digest differs between repeats"
                            if record is not traced else
                            "deployment_digest differs under tracing")
    if any(record["counts"] != first["counts"] for record in repeats):
        problems.append("exact counts differ between repeats")
    scale_n = workloads.WORKLOADS[name]["bench_scale_n"]
    if scale_n is not None and seed == DEFAULT_SEED:
        expected = bench_scale_digest(scale_n)
        if expected is None:
            print(f"notice: BENCH_scale.json has no workers=1 n={scale_n} "
                  f"row; digest cross-check skipped", file=sys.stderr)
        elif expected != first["digest"]:
            problems.append(f"digest differs from BENCH_scale.json n={scale_n}")

    end_to_end = {}
    for metric in end_to_end_table(spec):
        stats = spread([record[metric["name"]] for record in repeats])
        statistic = metric["statistic"]
        end_to_end[metric["name"]] = {
            "value": stats["min" if statistic == "identical" else statistic],
            "unit": metric["unit"], "statistic": statistic, **stats}
    attempted = sum(record["attempted"] for record in repeats)
    failed = (attempted if problems
              else sum(record["failed"] for record in repeats))
    return {
        "correct": not problems,
        "check_failures": sorted(set(problems)),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "digest": first["digest"],
        "repeats": len(repeats),
        "latency_samples": first["latency_samples"],
        "end_to_end": end_to_end,
        "per_layer": per_layer_values(
            first, end_to_end["run_wall_s"]["value"],
            traced["trace"] if traced else None),
    }


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True,
                          check=True).stdout.strip()


def manifest(seed: int, repeats: int, names: List[str]) -> dict:
    """Where a result file came from (a checkout without git: unknown)."""
    try:
        sha = _git("rev-parse", "HEAD")
        if _git("status", "--porcelain"):
            sha += "+dirty"
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "harness": HARNESS_VERSION,
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "repeats": repeats,
        "config_digests": {name: workloads.config_digest(name)
                           for name in names},
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_report(results: Dict[str, dict], catalog) -> None:
    for name, result in results.items():
        status = "ok" if result["correct"] else "FAILED: " + "; ".join(
            result["check_failures"])
        print(f"\n== {name}  repeats={result['repeats']}  "
              f"digest={result['digest'][:12]}  checks {status}")
        for metric, row in result["end_to_end"].items():
            note = ""
            if row["statistic"] != "identical":
                note = (f"q1 {row['q1']:.4g}  median {row['median']:.4g}  "
                        f"q3 {row['q3']:.4g}  max {row['max']:.4g}")
            elif metric == "sim_latency_p95_s":
                note = f"n={result['latency_samples']} batches"
            print(f"  {metric:<24}{row['value']:>14.6g} {row['unit']:<10}"
                  f"{row['statistic']:<10}{note}")
        print(f"  {'failed_share':<24}{result['failed_share']:>14.6g} "
              f"{'ratio':<10}{result['failed']} of {result['attempted']} "
              f"operations")
        for metric in catalog:
            if metric in result["per_layer"]:
                print(f"  {metric:<48}{result['per_layer'][metric]:>16.6g} "
                      f"{catalog[metric][0]}")


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Verdict per (workload, end-to-end metric) of B against A.

    ``regressed``: worse than the metric's bound.  ``unresolved``: the
    quartile distance of the repeats on either side exceeds the bound,
    so the pair cannot tell.  Simulated metrics are deterministic: at
    equal seeds any worsening at all is a regression, and at different
    seeds the two sides ran different inputs, which resolves nothing.
    """
    with open(path_a, encoding="utf-8") as fh:
        side_a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        side_b = json.load(fh)
    same_seed = side_a["manifest"]["seed"] == side_b["manifest"]["seed"]
    regressed = False
    for name in side_a["workloads"]:
        if name not in side_b["workloads"]:
            continue
        res_a, res_b = side_a["workloads"][name], side_b["workloads"][name]
        cells = []
        for metric in end_to_end_table(spec):
            row_a = res_a["end_to_end"][metric["name"]]
            row_b = res_b["end_to_end"][metric["name"]]
            change = (row_b["value"] - row_a["value"]) / row_a["value"]
            worse = change if metric["better"] == "lower" else -change
            if metric["statistic"] == "identical":
                unresolved = not same_seed
            else:
                unresolved = max((row["q3"] - row["q1"]) / row["median"]
                                 for row in (row_a, row_b)) > metric["bound"]
            if unresolved:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            cells.append(f"{metric['name']} {change:+.2%} {verdict}")
            regressed |= verdict == "regressed"
        verdict = "ok"
        if res_b["failed_share"] > res_a["failed_share"]:
            verdict, regressed = "regressed", True
        cells.append(f"failed_share {res_a['failed_share']:.4g}->"
                     f"{res_b['failed_share']:.4g} {verdict}")
        print(f"{name}: " + " | ".join(cells))
    return 1 if regressed else 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="measure one workload and print the one-line "
                             "JSON result")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep adding rounds until this long per "
                             "workload has gone by")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--no-trace", dest="trace", action="store_const",
                        const=0)
    parser.add_argument("--quick", action="store_true",
                        help="2 repeats, no warm-up round, one traced run")
    parser.add_argument("--json", default=os.path.join(HERE, "out",
                                                       "latest.json"))
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)

    try:
        if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
            raise BenchError(f"no src/repro under {ROOT}: nothing to measure")
        if args.workload:
            return run_single(args, spec)
        return run_suite(args, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def run_single(args, spec: dict) -> int:
    """One workload under the BENCHMARK.json contract."""
    name = args.workload
    if args.trace:
        # Two untraced repeats (counts, digest equality) and the trace.
        samples, traces = measure([name], args.seed, repeats=2,
                                  traced=[name])
    else:
        samples, traces = measure([name], args.seed, repeats=2,
                                  seconds=args.seconds)
    result = summarise(name, args.seed, samples[name], traces.get(name), spec)
    for problem in result["check_failures"]:
        print(f"perfbench: {name}: {problem}", file=sys.stderr)
    if args.trace:
        catalog = per_layer_catalog()
        metrics = {metric: {"value": result["per_layer"][metric],
                            "unit": catalog[metric][0]}
                   for metric in catalog}
    else:
        metrics = {metric["name"]: {
            "value": result["end_to_end"][metric["name"]]["value"],
            "unit": metric["unit"]} for metric in spec["end_to_end"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def run_suite(args, spec: dict) -> int:
    """All (or the selected) workloads: report, JSON file, exit status."""
    names = (args.workloads.split(",") if args.workloads
             else list(workloads.WORKLOADS))
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        raise BenchError(f"unknown workloads {unknown}")
    repeats, warmup_rounds = (2, 0) if args.quick else (args.repeats, 1)
    traced = names[:1] if args.quick else names
    samples, traces = measure(names, args.seed, repeats=repeats,
                              warmup_rounds=warmup_rounds,
                              seconds=args.seconds,
                              traced=traced if args.trace else [])
    results = {name: summarise(name, args.seed, samples[name],
                               traces.get(name), spec) for name in names}
    print_report(results, per_layer_catalog())
    document = {"manifest": manifest(args.seed, repeats, names),
                "workloads": results}
    os.makedirs(os.path.dirname(os.path.abspath(args.json)), exist_ok=True)
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {args.json}")
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
