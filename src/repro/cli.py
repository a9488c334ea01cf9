"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``      — run one experiment and print its result line (or the
  full result object with ``--json``).
* ``trace``    — run one instrumented experiment, print phase/latency
  tables, and export Chrome trace_event + JSONL phase traces.
* ``compare``  — run several protocols on the same deployment and print
  a comparison table.
* ``sweep``    — run an experiment *campaign* (a DAG of runs) against a
  digest-keyed result store, fanning ready runs across a process pool;
  without ``--campaign`` the shared experiment flags define an ad-hoc
  single-run campaign.
* ``table1``   — print the Table 1 topology matrix the simulator uses.
* ``table2``   — print the Table 2 analytic complexity comparison.

All experiment commands share the same knobs: ``--scenario`` selects a
named failure scenario from the open registry (paper scenarios plus
anything added via :func:`repro.register_scenario`), and ``--faults``
installs a scheduled :class:`~repro.net.chaos.FaultTimeline` from a
JSON spec.  All output is plain text; every run is deterministic per
``--seed``.

Set ``REPRO_PROFILE=1`` to run the command under :mod:`cProfile` and
print the 20 hottest functions (by internal time) afterwards — the
quickest way to see where *host* CPU goes.  Profiling never affects
simulated results: the simulator runs on virtual time.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .analysis.complexity import analytic_complexity
from .bench.deployment import (
    PROTOCOLS,
    ExperimentConfig,
    deployment_digest,
)
from .bench.reporting import (
    format_cache_report,
    format_latency_percentiles,
    format_phase_durations,
    format_queue_samples,
    format_runtime_telemetry,
    format_share_latency,
    format_table,
    summarize_results,
)
from .bench.scenarios import scenario_names
from .net.topology import PAPER_REGIONS, Topology


def _add_experiment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--clusters", "-z", type=int, default=2,
                        help="number of regions/clusters (1-6)")
    parser.add_argument("--replicas", "-n", type=int, default=4,
                        help="replicas per cluster (>= 4)")
    parser.add_argument("--batch", "-b", type=int, default=100,
                        help="transactions per batch")
    parser.add_argument("--duration", "-d", type=float, default=3.0,
                        help="simulated seconds")
    parser.add_argument("--warmup", "-w", type=float, default=0.5,
                        help="simulated warmup excluded from rates")
    parser.add_argument("--clients", type=int, default=4,
                        help="clients per cluster (closed-loop; ignored "
                             "when --traffic is set)")
    parser.add_argument("--traffic", default="", metavar="SPEC",
                        help="open-loop aggregate traffic spec "
                             "('process:key=value,...', e.g. "
                             "'poisson:users=1000000,rate=0.002'); "
                             "replaces the closed-loop clients with one "
                             "arrival source per region (see "
                             "docs/workloads.md)")
    parser.add_argument("--seed", type=int, default=1,
                        help="deterministic experiment seed")
    # Registry names, not a closed choices= tuple: scenarios registered
    # by embedding code (register_scenario) stay selectable, and unknown
    # names produce the registry's own error listing what exists.
    parser.add_argument("--scenario", default="none", metavar="NAME",
                        help="failure scenario to apply; one of "
                             f"{', '.join(scenario_names())} or any "
                             "name added via register_scenario()")
    parser.add_argument("--fail-at", type=float, default=0.0,
                        help="schedule scenario crashes at this "
                             "simulated time")
    parser.add_argument("--faults", default="", metavar="FILE",
                        help="install a fault timeline from a JSON spec "
                             "(see docs/fault_injection.md)")
    parser.add_argument("--real-crypto", action="store_true",
                        help="verify real HMAC signatures (slower host "
                             "run, identical simulated results)")


def _add_output_args(parser: argparse.ArgumentParser, trace: bool = True,
                     trace_aliases: bool = False,
                     trace_default: str = "") -> None:
    """The shared output surface: ``--json`` and the trace-export flags.

    Defined once so ``run``, ``trace``, ``compare``, and ``sweep`` stay
    flag-compatible.  ``trace_aliases`` keeps the ``trace`` command's
    historical ``--out``/``--jsonl`` spellings working (same dests).
    """
    parser.add_argument("--json", action="store_true",
                        help="print a machine-readable JSON document "
                             "instead of the human-readable report")
    if not trace:
        return
    out_flags = ["--trace-out"] + (["--out"] if trace_aliases else [])
    parser.add_argument(*out_flags, dest="trace_out",
                        default=trace_default,
                        help="write a Chrome trace_event JSON file "
                             "of consensus phase spans")
    jsonl_flags = ["--trace-jsonl"] + (["--jsonl"] if trace_aliases else [])
    parser.add_argument(*jsonl_flags, dest="trace_jsonl", default="",
                        help="write raw phase events as JSON lines")


def _arrange_faults(deployment, args, quiet: bool = False) -> None:
    """Apply ``--scenario`` and/or ``--faults`` to a built deployment."""
    from .bench.scenarios import apply_scenario

    if args.scenario != "none":
        victims = apply_scenario(deployment, args.scenario,
                                 fail_at=args.fail_at)
        if not quiet:
            if victims:
                print(f"scenario {args.scenario}: crashing "
                      f"{', '.join(str(v) for v in victims)}"
                      + (f" at t={args.fail_at}s" if args.fail_at else ""))
            else:
                print(f"scenario {args.scenario}: installed")
    if args.faults:
        from .net.chaos import FaultTimeline

        timeline = FaultTimeline.load(args.faults)
        timeline.install(deployment)
        if not quiet:
            print(f"fault timeline {timeline.name!r}: "
                  f"{len(timeline)} faults scheduled")


def _result_ok(deployment, result) -> bool:
    report = deployment.invariants
    if report is not None:
        return report.ok
    return result.safety_ok and result.liveness_ok


def _config_from_args(args, protocol: str,
                      instrument: bool = False) -> ExperimentConfig:
    return ExperimentConfig(
        protocol=protocol,
        num_clusters=args.clusters,
        replicas_per_cluster=args.replicas,
        batch_size=args.batch,
        clients_per_cluster=args.clients,
        duration=args.duration,
        warmup=args.warmup,
        seed=args.seed,
        fast_crypto=not args.real_crypto,
        instrument=instrument,
        traffic=getattr(args, "traffic", "") or None,
    )


def _export_traces(instr, trace_out: str, trace_jsonl: str,
                   quiet: bool = False) -> None:
    if trace_out:
        spans = instr.export_chrome_trace(trace_out)
        if not quiet:
            print(f"  wrote {spans} trace events to {trace_out} "
                  f"(open with chrome://tracing or ui.perfetto.dev)")
    if trace_jsonl:
        lines = instr.export_jsonl(trace_jsonl)
        if not quiet:
            print(f"  wrote {lines} phase events to {trace_jsonl}")


def _print_observability(instr) -> None:
    print()
    print(format_phase_durations(instr))
    share = format_share_latency(instr)
    if not share.startswith("("):
        print()
        print(share)
    print()
    print(format_queue_samples(instr))


def _cmd_run(args) -> int:
    from .bench.deployment import Deployment

    instrument = bool(args.trace_out or args.trace_jsonl)
    deployment = Deployment(
        _config_from_args(args, args.protocol, instrument=instrument))
    _arrange_faults(deployment, args, quiet=args.json)
    result = deployment.run()
    if args.json:
        print(result.to_json())
        return 0 if _result_ok(deployment, result) else 1
    print(result.describe())
    print(format_latency_percentiles(result))
    print(f"  global: {result.global_messages} msgs / "
          f"{result.global_bytes / 1e6:.2f} MB   "
          f"local: {result.local_messages} msgs / "
          f"{result.local_bytes / 1e6:.2f} MB")
    print()
    print(format_cache_report(deployment))
    if instrument:
        _print_observability(deployment.instrumentation)
        _export_traces(deployment.instrumentation, args.trace_out,
                       args.trace_jsonl)
    if args.link_report:
        from .analysis.traffic import format_link_report, link_usage
        rows = link_usage(deployment.network, window=result.duration)
        print("\nper-link traffic (heaviest first):")
        print(format_link_report(rows))
    if deployment.invariants is not None and deployment.timeline is not None:
        print()
        print(deployment.invariants.describe())
    return 0 if _result_ok(deployment, result) else 1


def _cmd_trace_summary(args) -> int:
    """``repro trace --summary FILE``: offline analysis of a JSONL
    trace — no experiment is re-run."""
    from .bench.tracing import load_trace_jsonl

    try:
        hub = load_trace_jsonl(args.summary)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load {args.summary}: {exc}",
              file=sys.stderr)
        return 2
    print(f"trace summary of {args.summary}:")
    print(hub.summary())
    print()
    print(format_phase_durations(hub))
    share = format_share_latency(hub)
    if not share.startswith("("):
        print()
        print(share)
    return 0


def _cmd_trace(args) -> int:
    from .bench.deployment import Deployment

    if args.summary:
        return _cmd_trace_summary(args)

    def _run(instrument: bool):
        deployment = Deployment(
            _config_from_args(args, args.protocol, instrument=instrument))
        _arrange_faults(deployment, args,
                        quiet=(instrument is False) or args.json)
        result = deployment.run()
        return deployment, result

    deployment, result = _run(instrument=True)
    instr = deployment.instrumentation
    if args.json:
        import json

        _export_traces(instr, args.trace_out, args.trace_jsonl, quiet=True)
        doc = result.to_dict()
        doc["digest"] = deployment_digest(deployment, result)
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0 if _result_ok(deployment, result) else 1
    print(result.describe())
    print(format_latency_percentiles(result))
    print()
    print(instr.summary())
    _print_observability(instr)
    print()
    print(format_cache_report(deployment))
    print()
    print(format_runtime_telemetry(deployment))
    print()
    _export_traces(instr, args.trace_out, args.trace_jsonl)
    if deployment.invariants is not None and deployment.timeline is not None:
        print()
        print(deployment.invariants.describe())

    ok = _result_ok(deployment, result)
    if args.assert_determinism:
        digest_on = deployment_digest(deployment, result)
        baseline, baseline_result = _run(instrument=False)
        digest_off = deployment_digest(baseline, baseline_result)
        if digest_on == digest_off:
            print(f"  determinism: ok (digest {digest_on[:16]}..., "
                  f"trace on == trace off)")
        else:
            print("  determinism: VIOLATED — instrumentation perturbed "
                  "the simulation")
            print(f"    trace on:  {digest_on}")
            print(f"    trace off: {digest_off}")
            ok = False
    return 0 if ok else 1


def _cmd_compare(args) -> int:
    from .bench.deployment import Deployment

    results, ok = [], True
    for protocol in args.protocols:
        deployment = Deployment(_config_from_args(args, protocol))
        # A fresh deployment per protocol needs fresh fault objects, so
        # scenarios/timeline specs are re-resolved for each one.
        _arrange_faults(deployment, args, quiet=True)
        result = deployment.run()
        results.append(result)
        ok = ok and _result_ok(deployment, result)
    if args.json:
        import json

        print(json.dumps([r.to_dict() for r in results],
                         indent=2, sort_keys=True))
        return 0 if ok else 1
    print(summarize_results(results))
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    """``repro sweep``: run a campaign DAG against the result store."""
    import json

    from .sweep import (Campaign, ResultStore, RunSpec, campaign_names,
                        get_campaign, run_campaign)
    from .sweep.reports import chaos_audit_failures
    from .sweep.store import compare_baseline, load_bench

    if args.list_campaigns:
        rows = []
        for name in campaign_names():
            campaign = get_campaign(name)
            rows.append([name, len(campaign.runs), len(campaign.reports),
                         campaign.description])
        print(format_table(["campaign", "runs", "reports", "description"],
                           rows, title="registered campaigns"))
        return 0

    if args.campaign:
        campaign = get_campaign(args.campaign)
    else:
        # Ad-hoc mode: the shared experiment flags define a single-run
        # campaign, so one-off runs still land in the store.
        faults = None
        if args.faults:
            from .net.chaos import FaultTimeline

            faults = FaultTimeline.load(args.faults).to_dict()
        spec = RunSpec(
            run_id=f"adhoc/{args.protocol}",
            config=_config_from_args(args, args.protocol),
            scenario=args.scenario,
            fail_at=args.fail_at,
            faults=faults,
            tags={"figure": "adhoc", "protocol": args.protocol})
        campaign = Campaign(
            name="adhoc",
            description="single run built from the CLI experiment flags",
            runs=(spec,))
    if args.filter:
        campaign = campaign.filtered(args.filter)

    if args.list_runs:
        for spec in campaign.toposort():
            print(spec.describe())
        return 0

    # A baseline of no known kind fails here, before anything runs.
    baseline = load_bench(args.baseline) if args.baseline else None
    store = ResultStore(args.store or None)
    progress = None if args.json else print
    with store:
        outcome = run_campaign(campaign, store=store, jobs=args.jobs,
                               rerun=args.rerun, progress=progress,
                               partial=bool(args.filter))
        failures: List[str] = []
        if args.budget_s is not None:
            for record in outcome.executed:
                if (record["status"] == "ok"
                        and record["wall_s"] > args.budget_s):
                    failures.append(
                        f"{record['run_id']}: wall {record['wall_s']:.1f}s "
                        f"exceeds budget {args.budget_s:.1f}s")
        if baseline is not None:
            calibration = outcome.host.get("calibration_ops_per_s", 0)
            failures += compare_baseline(outcome.records, calibration,
                                         baseline)
        failures += chaos_audit_failures(outcome.records)

    if args.artifacts:
        os.makedirs(args.artifacts, exist_ok=True)
        for name, content in sorted(outcome.artifacts.items()):
            path = os.path.join(args.artifacts,
                                outcome.artifact_names[name])
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
            if not args.json:
                print(f"  wrote {path}")

    if args.json:
        doc = outcome.to_dict()
        doc["failures"] = failures
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(outcome.summary())
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
    return 0 if outcome.ok and not failures else 1


def _cmd_table1(_args) -> int:
    topology = Topology.paper(6)
    header = ["region"] + [r[:3].upper() for r in PAPER_REGIONS]
    rtt_rows, bw_rows = [], []
    for i, a in enumerate(PAPER_REGIONS):
        rtt_row, bw_row = [a], [a]
        for j, b in enumerate(PAPER_REGIONS):
            if j < i:
                rtt_row.append("")
                bw_row.append("")
            else:
                rtt_row.append(round(topology.rtt_ms(a, b), 1))
                bw_row.append(round(topology.bandwidth_mbit(a, b)))
        rtt_rows.append(rtt_row)
        bw_rows.append(bw_row)
    print(format_table(header, rtt_rows,
                       title="Table 1 — ping round-trip times (ms)"))
    print()
    print(format_table(header, bw_rows,
                       title="Table 1 — bandwidth (Mbit/s)"))
    return 0


def _cmd_table2(args) -> int:
    rows = []
    for protocol in PROTOCOLS:
        row = analytic_complexity(protocol, args.clusters, args.replicas)
        rows.append([
            protocol,
            row.decisions_per_round,
            round(row.per_decision_local()),
            round(row.per_decision_global()),
            row.centralized,
        ])
    print(format_table(
        ["protocol", "decisions/round", "local msgs/decision",
         "global msgs/decision", "centralized"],
        rows,
        title=f"Table 2 — analytic complexity, z={args.clusters}, "
              f"n={args.replicas}",
    ))
    return 0


def _changed_files(ref: str) -> Optional[List[str]]:
    """Python files changed vs ``ref`` (``None`` if git fails)."""
    import subprocess

    proc = subprocess.run(
        ["git", "diff", "--name-only", ref, "--", "*.py"],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        print(f"repro lint: git diff against {ref!r} failed: "
              f"{proc.stderr.strip()}", file=sys.stderr)
        return None
    return [path for path in proc.stdout.splitlines()
            if path.endswith(".py") and os.path.isfile(path)]


def _write_flow_artifacts(args, package_dir: str) -> None:
    """Emit ``--flow-report`` / ``--flow-dot`` from the package tree.

    The flow graph is a whole-package artifact, so it is always
    extracted from the installed package source — a ``--changed`` run
    narrows the *findings*, never the graph.
    """
    import ast
    import json

    from .lint.engine import discover_files
    from .lint.msgflow import extract_flows, flow_dot, flow_report
    from .lint.symbols import build_index

    parsed = []
    for file_path in discover_files([package_dir]):
        with open(file_path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source, filename=file_path)
        except SyntaxError:
            continue  # the lint run itself reports parse errors
        parsed.append((file_path.replace(os.sep, "/"), tree))
    flows = extract_flows(build_index(parsed))
    if args.flow_report:
        with open(args.flow_report, "w", encoding="utf-8") as handle:
            json.dump(flow_report(flows), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
    if args.flow_dot:
        with open(args.flow_dot, "w", encoding="utf-8") as handle:
            handle.write(flow_dot(flows))


def _cmd_lint(args) -> int:
    """``repro lint``: exit 0 on a clean tree, 1 on findings."""
    import json

    from .lint import default_rules, run_lint
    from .lint.rules import iter_rule_docs

    if args.list_rules:
        for doc in iter_rule_docs():
            print(f"{doc['id']}: {doc['summary']}")
        return 0
    package_dir = os.path.dirname(os.path.abspath(__file__))
    paths = args.paths
    project_scope = None
    if args.changed is not None:
        changed = _changed_files(args.changed)
        if changed is None:
            return 2
        # Findings are restricted to the changed files, but the
        # whole-program passes still parse the full package so
        # interprocedural resolution does not lose edges.
        paths = changed
        project_scope = [package_dir]
    elif not paths:
        # Default target: the installed package's own source tree, so
        # ``repro lint`` self-checks from any working directory.
        paths = [package_dir]
    rules = default_rules(args.rules) if args.rules else None
    if paths:
        report = run_lint(paths, rules=rules,
                          project_scope=project_scope)
    else:
        from .lint import LintReport
        report = LintReport(rules_run=tuple(
            rule.id for rule in (rules or default_rules())))
    if args.flow_report or args.flow_dot:
        _write_flow_artifacts(args, package_dir)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format_text())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ResilientDB/GeoBFT (VLDB 2020) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="run one experiment")
    run_parser.add_argument("--protocol", "-p", choices=PROTOCOLS,
                            default="geobft")
    run_parser.add_argument("--link-report", action="store_true",
                            help="print per-region-link traffic report")
    _add_experiment_args(run_parser)
    _add_output_args(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    trace_parser = commands.add_parser(
        "trace", help="run one instrumented experiment and export "
                      "consensus-phase traces")
    trace_parser.add_argument("--protocol", "-p", choices=PROTOCOLS,
                              default="geobft")
    trace_parser.add_argument("--assert-determinism", action="store_true",
                              help="re-run without instrumentation and "
                                   "fail unless results are identical")
    trace_parser.add_argument("--summary", default="", metavar="JSONL",
                              help="print phase p50/p95/p99 tables from "
                                   "an existing JSONL trace instead of "
                                   "running an experiment")
    _add_experiment_args(trace_parser)
    _add_output_args(trace_parser, trace_aliases=True,
                     trace_default="trace.json")
    trace_parser.set_defaults(handler=_cmd_trace)

    compare_parser = commands.add_parser(
        "compare", help="run several protocols on one deployment")
    compare_parser.add_argument(
        "--protocols", type=lambda s: s.split(","),
        default=list(PROTOCOLS),
        help="comma-separated protocol list")
    _add_experiment_args(compare_parser)
    _add_output_args(compare_parser, trace=False)
    compare_parser.set_defaults(handler=_cmd_compare)

    sweep_parser = commands.add_parser(
        "sweep", help="run an experiment campaign (a DAG of runs) "
                      "against the digest-keyed result store")
    sweep_parser.add_argument("--campaign", "-c", default="",
                              metavar="NAME",
                              help="registered campaign to run "
                                   "(see --list-campaigns); omit to run "
                                   "an ad-hoc single-run campaign from "
                                   "the experiment flags")
    sweep_parser.add_argument("--filter", default="", metavar="SUBSTR",
                              help="keep only runs whose id contains "
                                   "this substring (dependencies are "
                                   "pulled in automatically)")
    sweep_parser.add_argument("--jobs", "-j", type=int, default=1,
                              help="worker processes for the campaign "
                                   "pool (1 = run inline)")
    sweep_parser.add_argument("--store", default="", metavar="DIR",
                              help="result-store directory (JSONL + "
                                   "SQLite index); empty = in-memory, "
                                   "nothing cached across invocations")
    sweep_parser.add_argument("--artifacts", default="", metavar="DIR",
                              help="write the campaign's report "
                                   "artifacts (figures, tables, "
                                   "BENCH_scale.json) here")
    sweep_parser.add_argument("--rerun", action="store_true",
                              help="execute every run even when the "
                                   "store already has its record")
    sweep_parser.add_argument("--budget-s", type=float, default=None,
                              help="absolute wall-time budget per "
                                   "executed run (seconds)")
    sweep_parser.add_argument("--baseline", default="", metavar="FILE",
                              help="gate this BENCH_<figure>.json's "
                                   "figure, picked by its schema, against "
                                   "it (digest drift + calibrated rate)")
    sweep_parser.add_argument("--list-campaigns", action="store_true",
                              help="print the campaign registry and "
                                   "exit")
    sweep_parser.add_argument("--list-runs", action="store_true",
                              help="print the campaign's runs in "
                                   "schedule order and exit")
    sweep_parser.add_argument("--protocol", "-p", choices=PROTOCOLS,
                              default="geobft",
                              help="protocol for the ad-hoc single-run "
                                   "mode")
    _add_experiment_args(sweep_parser)
    _add_output_args(sweep_parser, trace=False)
    sweep_parser.set_defaults(handler=_cmd_sweep)

    table1_parser = commands.add_parser(
        "table1", help="print the Table 1 WAN matrix")
    table1_parser.set_defaults(handler=_cmd_table1)

    table2_parser = commands.add_parser(
        "table2", help="print the Table 2 complexity comparison")
    table2_parser.add_argument("--clusters", "-z", type=int, default=4)
    table2_parser.add_argument("--replicas", "-n", type=int, default=7)
    table2_parser.set_defaults(handler=_cmd_table2)

    lint_parser = commands.add_parser(
        "lint", help="run the determinism/protocol static-analysis "
                     "rules (see docs/static_analysis.md)")
    lint_parser.add_argument("paths", nargs="*", metavar="PATH",
                             help="files or directories to lint "
                                  "(default: the installed repro "
                                  "package source)")
    lint_parser.add_argument("--json", action="store_true",
                             help="emit the machine-readable report "
                                  "(schema version 2)")
    lint_parser.add_argument("--rule", action="append", default=None,
                             metavar="RULE-ID", dest="rules",
                             help="run only this rule (repeatable)")
    lint_parser.add_argument("--list-rules", action="store_true",
                             help="print the rule catalogue and exit")
    lint_parser.add_argument("--changed", nargs="?", const="HEAD",
                             default=None, metavar="REF",
                             help="lint only files changed vs REF "
                                  "(default HEAD); the whole-program "
                                  "passes still see the full package")
    lint_parser.add_argument("--flow-report", default="", metavar="JSON",
                             help="write the per-protocol message-flow "
                                  "graph as JSON")
    lint_parser.add_argument("--flow-dot", default="", metavar="DOT",
                             help="write the message-flow graph as "
                                  "GraphViz DOT")
    lint_parser.set_defaults(handler=_cmd_lint)
    return parser


def _run_profiled(handler, args) -> int:
    """Run ``handler`` under cProfile and print the top-20 hot spots."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return handler(args)
    finally:
        profiler.disable()
        print("\nREPRO_PROFILE=1 — top 20 functions by internal time:")
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.strip_dirs().sort_stats("tottime").print_stats(20)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    from .errors import ConfigurationError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if os.environ.get("REPRO_PROFILE") == "1":
            return _run_profiled(args.handler, args)
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
