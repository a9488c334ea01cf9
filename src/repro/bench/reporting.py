"""Plain-text reporting of reproduced tables and figures.

The benchmark harness prints the same rows/series the paper reports:
Table 1's latency/bandwidth matrix, Table 2's complexity comparison, and
the throughput/latency series of Figures 10–13.  Everything is plain
monospace text so results are diffable and readable in CI logs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from .deployment import ExperimentResult


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "") -> str:
    """Render an aligned monospace table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(h.rjust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("-" * len(header))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


def format_figure_series(title: str, x_label: str,
                         x_values: Sequence,
                         series: Dict[str, Sequence[float]],
                         unit: str) -> str:
    """Render one paper figure as a table: protocols x sweep values."""
    headers = [x_label] + list(series.keys())
    rows: List[List] = []
    for i, x in enumerate(x_values):
        row: List = [x]
        for name in series:
            values = series[name]
            row.append(values[i] if i < len(values) else float("nan"))
        rows.append(row)
    return format_table(headers, rows, title=f"{title}  [{unit}]")


def _ms(seconds: float) -> float:
    return seconds * 1e3


def format_phase_durations(instrumentation) -> str:
    """Per-phase latency table from an :class:`Instrumentation` hub.

    One row per consecutive lifecycle transition (``proposed->prepared``
    and so on) plus the end-to-end ``proposed->executed`` total, all in
    simulated milliseconds.
    """
    durations = instrumentation.phase_durations()
    if not durations:
        return "(no completed phase transitions recorded)"
    rows = []
    for name, hist in durations.items():
        p = hist.percentiles()
        rows.append([name, hist.count, _ms(hist.mean()), _ms(p["p50"]),
                     _ms(p["p95"]), _ms(p["p99"]), _ms(hist.max)])
    return format_table(
        ["phase", "rounds", "mean (ms)", "p50 (ms)", "p95 (ms)",
         "p99 (ms)", "max (ms)"],
        rows, title="consensus phase durations")


def format_share_latency(instrumentation) -> str:
    """Global-sharing latency table, one row per (origin, destination)
    cluster pair, in simulated milliseconds."""
    latency = instrumentation.share_latency()
    if not latency:
        return "(no global shares recorded)"
    rows = []
    for (origin, dst), hist in sorted(latency.items()):
        p = hist.percentiles()
        rows.append([f"c{origin}->c{dst}", hist.count, _ms(hist.mean()),
                     _ms(p["p50"]), _ms(p["p95"]), _ms(p["p99"])])
    return format_table(
        ["link", "rounds", "mean (ms)", "p50 (ms)", "p95 (ms)",
         "p99 (ms)"],
        rows, title="global share latency (origin -> destination)")


def format_queue_samples(instrumentation) -> str:
    """Runtime-sample table (queue depths etc.) from the hub."""
    if not instrumentation.samples:
        return "(no runtime samples recorded)"
    rows = []
    for name, hist in sorted(instrumentation.samples.items()):
        p = hist.percentiles()
        rows.append([name, hist.count, hist.mean(), p["p50"], p["p95"],
                     hist.max])
    return format_table(
        ["sample", "n", "mean", "p50", "p95", "max"],
        rows, title="runtime samples (per committed round)")


def _rate(hits: int, misses: int) -> str:
    total = hits + misses
    if total == 0:
        return "-"
    return f"{hits / total:.1%}"


def format_cache_report(deployment) -> str:
    """Hit/miss telemetry for the crypto-side caches of a deployment:
    the shared :class:`VerificationCache` (per signature/MAC kind) and
    the process-wide :class:`CachedEncodable` digest memo."""
    rows = []
    cache = deployment.verification_cache
    for kind, st in cache.kind_stats().items():
        rows.append([f"verification[{kind}]", st["hits"], st["misses"],
                     _rate(st["hits"], st["misses"])])
    if not cache.kind_stats():
        rows.append(["verification", cache.hits, cache.misses,
                     _rate(cache.hits, cache.misses)])
    delta = deployment.encoding_cache_delta()
    rows.append(["payload digest", delta["digest_hits"],
                 delta["digest_misses"],
                 _rate(delta["digest_hits"], delta["digest_misses"])])
    return format_table(["cache", "hits", "misses", "hit rate"], rows,
                        title="cache telemetry")


def format_runtime_telemetry(deployment) -> str:
    """Simulator and network counters for one finished deployment."""
    net = deployment.network.telemetry()
    rows = [
        ["events processed", deployment.sim.events_processed],
        ["max event-queue depth", deployment.sim.max_queue_depth],
        ["messages sent", net["sends"]],
        ["self-sends (no hop)", net["self_sends"]],
        ["suppressed sends", net["suppressed_sends"]],
        ["in-flight drops", net["in_flight_drops"]],
        ["receiver drops", net["receiver_drops"]],
    ]
    return format_table(["counter", "value"], rows,
                        title="runtime telemetry")


def format_latency_percentiles(result: ExperimentResult) -> str:
    """One-line client latency digest for a result row."""
    return (f"  latency: avg {result.avg_latency_s:.3f}s  "
            f"p50 {result.p50_latency_s:.3f}s  "
            f"p95 {result.p95_latency_s:.3f}s  "
            f"p99 {result.p99_latency_s:.3f}s   "
            f"offered load: {result.offered_load_txn_s:,.0f} txn/s")


def summarize_results(results: Iterable[ExperimentResult]) -> str:
    """Render a list of experiment results as a comparison table."""
    headers = ["protocol", "z", "n", "batch", "tput (txn/s)",
               "avg lat (s)", "global msgs", "global MB", "safety"]
    rows = [
        [
            r.protocol,
            r.num_clusters,
            r.replicas_per_cluster,
            r.batch_size,
            r.throughput_txn_s,
            r.avg_latency_s,
            r.global_messages,
            r.global_bytes / 1e6,
            "ok" if r.safety_ok else "VIOLATED",
        ]
        for r in results
    ]
    return format_table(headers, rows)
