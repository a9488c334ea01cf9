"""One repeat of one workload in a fresh process.

``python perfbench/child.py <workload> --seed S [--trace]`` builds the
deployment, times ``Deployment.run()``, checks the outputs outside the
timed region and prints one JSON object as its last line.  A fresh
process per repeat is required: ``ledger/execution.py`` keeps
process-wide memos, so a second run in the same process is faster than
anything a user ever sees.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from the child's first statement

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

import layers
import workloads


def _counts(deployment, result) -> dict:
    """Exact per-layer counts, read through public accessors only."""
    sim, metrics = deployment.sim, deployment.metrics
    enc = deployment.encoding_cache_delta()
    verify = deployment.verification_cache.stats()
    replicas = list(deployment.replicas.values())
    traffic = result.traffic or {}
    return {
        "net.simulator.events": sim.events_processed,
        "net.simulator.max_queue_depth": sim.max_queue_depth,
        "net.network.sends": deployment.network.telemetry()["sends"],
        "net.network.local_msgs": result.local_messages,
        "net.network.global_msgs": result.global_messages,
        "net.network.local_bytes": result.local_bytes,
        "net.network.global_bytes": result.global_bytes,
        "crypto.digests.encode_hits": enc["encode_hits"],
        "crypto.digests.encode_misses": enc["encode_misses"],
        "crypto.digests.digest_hits": enc["digest_hits"],
        "crypto.digests.digest_misses": enc["digest_misses"],
        "crypto.digests.splice_hits": enc["splice_hits"],
        "crypto.digests.splice_misses": enc["splice_misses"],
        "crypto.auth.verify_hits": verify["hits"],
        "crypto.auth.verify_misses": verify["misses"],
        "ledger.execution.executed_txns": metrics.total_executed_txns(),
        "ledger.execution.store_writes": sum(
            r.store.write_count for r in replicas),
        "ledger.blockchain.blocks": sum(r.ledger.height for r in replicas),
        "workload.generator.submitted_txns": metrics.submitted_txns,
        "workload.client.completed_txns": result.completed_txns,
        "workload.traffic.offered_txns": traffic.get("offered_txns", 0),
        "workload.traffic.rejected_txns": traffic.get("rejected_txns", 0),
        "workload.traffic.abandoned_txns": traffic.get("abandoned_txns", 0),
        "workload.traffic.retried_batches": traffic.get("retried_batches", 0),
    }


def _check_outputs(deployment, result) -> list:
    """Names of the output checks that failed (empty when all hold)."""
    from repro.errors import ReproError

    failures = []
    if not result.safety_ok:
        failures.append("safety_ok")
    if not result.liveness_ok:
        failures.append("liveness_ok")
    for cluster, members in sorted(deployment.cluster_members.items()):
        try:
            deployment.replicas[members[0]].ledger.verify()
        except ReproError as exc:
            failures.append(f"ledger.verify cluster {cluster}: {exc}")
    if result.completed_txns <= 0:
        failures.append("no transaction completed")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import repro
    from repro import deployment_digest

    deployment = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - _T0

    profiler = None
    if args.trace:
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    start = time.perf_counter()
    result = deployment.run()
    run_wall_s = time.perf_counter() - start
    if profiler is not None:
        profiler.disable()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if deployment.config.traffic is not None:
        attempted = result.traffic["offered_txns"]
        failed = (result.traffic["rejected_txns"]
                  + result.traffic["abandoned_txns"])
    else:
        attempted = result.measured_submitted_txns
        failed = 0

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "run_wall_s": run_wall_s,
        "peak_rss_mb": peak_rss_mb,
        "sim_throughput_txn_s": result.throughput_txn_s,
        "sim_latency_p50_s": result.p50_latency_s,
        "sim_latency_p95_s": result.p95_latency_s,
        "latency_samples": deployment.metrics.latency_histogram().count,
        "attempted": attempted,
        "failed": failed,
        "digest": deployment_digest(deployment, result),
        "check_failures": _check_outputs(deployment, result),
        "counts": _counts(deployment, result),
    }
    if profiler is not None:
        import pstats
        out["trace"] = layers.fold(pstats.Stats(profiler).stats,
                                   os.path.dirname(repro.__file__))
        out["trace"]["wall_s"] = run_wall_s
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
