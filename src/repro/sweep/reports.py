"""Report builders: campaign records in, figure/table artifacts out.

Each builder is a :class:`~repro.sweep.model.ReportSpec` ``build``
callable: it receives a campaign's successful records (in campaign run
order) and returns the artifact's full text.  Builders are pure
functions of the records — byte-identical records regenerate
byte-identical artifacts, which is what lets EXPERIMENTS.md tables,
figure files, and the ``BENCH_*.json`` baselines all re-derive from
the result store.

Builders select their own records by the ``figure`` tag, so they
compose: the ``paper`` campaign concatenates several figures' runs and
hands every report the full record list.
"""

from __future__ import annotations

from typing import (Any, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from ..bench.charts import ascii_chart
from ..bench.reporting import format_figure_series, format_table
from .model import record_series
from .store import figure_records, render_bench


def figure_of(records: Iterable[Mapping[str, Any]], figure: str,
              panel: Optional[str] = None) -> List[Mapping[str, Any]]:
    """The records tagged ``figure`` (and ``panel``); none raises, so a
    report or claim never renders or decides on missing points."""
    recs = [r for r in figure_records(records, figure)
            if panel is None or r["tags"].get("panel") == panel]
    if not recs:
        raise ValueError(
            f"no records tagged figure={figure!r}"
            + (f" panel={panel!r}" if panel else "")
            + "; run the campaign (or drop the filter) first")
    return recs


# ----------------------------------------------------------------------
# Figures 10, 11, 13 — protocol series over one axis
# ----------------------------------------------------------------------

def build_fig10(records: Sequence[Mapping[str, Any]]) -> str:
    recs = figure_of(records, "fig10")
    zs, throughput = record_series(recs, "throughput_txn_s")
    _, latency = record_series(recs, "avg_latency_s")
    total = recs[0]["tags"]["total"]
    return "\n".join([
        format_figure_series(
            f"Figure 10 (reproduced) — throughput vs #clusters "
            f"(zn = {total} replicas total)",
            "z", zs, throughput, "txn/s"),
        "",
        ascii_chart("Figure 10 — throughput (txn/s)", "clusters", zs,
                    throughput),
        "",
        format_figure_series(
            "Figure 10 (reproduced) — latency vs #clusters",
            "z", zs, latency, "s"),
    ]) + "\n"


def build_fig11(records: Sequence[Mapping[str, Any]]) -> str:
    recs = figure_of(records, "fig11")
    ns, throughput = record_series(recs, "throughput_txn_s")
    _, latency = record_series(recs, "avg_latency_s")
    z = recs[0]["config"]["num_clusters"]
    return "\n".join([
        format_figure_series(
            f"Figure 11 (reproduced) — throughput vs replicas/cluster "
            f"(z={z})",
            "n", ns, throughput, "txn/s"),
        "",
        format_figure_series(
            "Figure 11 (reproduced) — latency vs replicas/cluster",
            "n", ns, latency, "s"),
    ]) + "\n"


def build_fig13(records: Sequence[Mapping[str, Any]]) -> str:
    recs = figure_of(records, "fig13")
    batches, throughput = record_series(recs, "throughput_txn_s")
    config = recs[0]["config"]
    return "\n".join([
        format_figure_series(
            f"Figure 13 (reproduced) — throughput vs batch size "
            f"(z={config['num_clusters']}, "
            f"n={config['replicas_per_cluster']})",
            "batch", batches, throughput, "txn/s"),
        "",
        ascii_chart("Figure 13 — throughput (txn/s)", "batch size",
                    batches, throughput),
    ]) + "\n"


# ----------------------------------------------------------------------
# Figure 12 — failure panels
# ----------------------------------------------------------------------

def fig12_panels(records: Iterable[Mapping[str, Any]],
                 ) -> Tuple[List[Any], Dict[str, Dict[str, List[float]]]]:
    """``(n_points, {panel: {protocol: [txn/s, ...]}})`` for Figure 12."""
    recs = figure_of(records, "fig12")
    panels: Dict[str, Dict[str, List[float]]] = {}
    points: List[Any] = []
    for panel in ("one_backup", "f_backups", "primary", "baseline"):
        sub = [r for r in recs if r["tags"].get("panel") == panel]
        if not sub:
            continue
        xs, series = record_series(sub, "throughput_txn_s")
        panels[panel] = series
        points = points or xs
    return points, panels


def build_fig12(records: Sequence[Mapping[str, Any]]) -> str:
    points, panels = fig12_panels(records)
    titles = {
        "one_backup": "Figure 12 left (reproduced) — one non-primary "
                      "failure",
        "f_backups": "Figure 12 middle (reproduced) — f non-primary "
                     "failures/cluster",
        "primary": "Figure 12 right (reproduced) — single primary "
                   "failure",
        "baseline": "(reference) failure-free runs for the "
                    "primary-failure panel",
    }
    parts = []
    for panel, title in titles.items():
        if panel in panels:
            parts.append(format_figure_series(
                title, "n", points, panels[panel], "txn/s"))
    return "\n\n".join(parts) + "\n"


# ----------------------------------------------------------------------
# Table 1 — the simulated WAN matrix (probe runs, no deployments)
# ----------------------------------------------------------------------

class _Probe:
    """A measurement endpoint that echoes pings."""

    def __init__(self, node_id: Any, region: str, network: Any):
        self.node_id = node_id
        self.region = region
        self.network = network
        self.received_at: Dict[str, float] = {}
        network.register(self)

    def deliver(self, message: Any, sender: Any) -> None:
        kind, ident, size = message
        if kind == "ping":
            self.network.send(self.node_id, sender,
                              _Sized(("pong", ident, size)))
        else:
            self.received_at[ident] = self.network.simulation.now


class _Sized(tuple):
    def size_bytes(self) -> int:
        return self[2]


def probe_pair(topology: Any, region_a: str,
               region_b: str) -> Tuple[float, float]:
    """Measure (rtt_ms, bandwidth_mbit) between two regions."""
    from ..net.network import Network
    from ..net.simulator import Simulation
    from ..types import replica_id

    sim = Simulation()
    network = Network(sim, topology)
    a = _Probe(replica_id(1, 1), region_a, network)
    b = _Probe(replica_id(2, 1), region_b, network)
    # Ping: 64-byte message both ways.
    start = sim.now
    network.send(a.node_id, b.node_id, _Sized(("ping", "p1", 64)))
    sim.run()
    rtt_ms = (a.received_at["p1"] - start) * 1000.0
    # Bandwidth: time a 4 MB bulk transfer, subtract propagation.
    size = 4_000_000
    start = sim.now
    network.send(a.node_id, b.node_id, _Sized(("data", "d1", size)))
    sim.run()
    elapsed = b.received_at["d1"] - start
    transfer = elapsed - topology.latency(region_a, region_b)
    bandwidth_mbit = size * 8 / transfer / 1e6
    return rtt_ms, bandwidth_mbit


def probe_table1() -> Tuple[Any, Dict[Tuple[str, str],
                                      Tuple[float, float]]]:
    """Probe the full paper topology; ``(topology, measured)``.

    ``measured`` maps upper-triangle ``(region_a, region_b)`` pairs to
    ``(rtt_ms, bandwidth_mbit)`` — the data behind both Table 1 halves.
    """
    from ..net.topology import PAPER_REGIONS, Topology

    topology = Topology.paper(6)
    measured: Dict[Tuple[str, str], Tuple[float, float]] = {}
    for i, a in enumerate(PAPER_REGIONS):
        for j, b in enumerate(PAPER_REGIONS):
            if j < i:
                continue
            measured[(a, b)] = probe_pair(topology, a, b)
    return topology, measured


def format_table1(measured: Mapping[Tuple[str, str],
                                    Tuple[float, float]]) -> str:
    """Both halves of Table 1 from a probe matrix."""
    from ..net.topology import PAPER_REGIONS

    rtt_rows, bw_rows = [], []
    for i, a in enumerate(PAPER_REGIONS):
        rtt_row: List[Any] = [a]
        bw_row: List[Any] = [a]
        for j, b in enumerate(PAPER_REGIONS):
            if j < i:
                rtt_row.append("")
                bw_row.append("")
                continue
            rtt, bw = measured[(a, b)]
            rtt_row.append(round(rtt, 1))
            bw_row.append(round(bw))
        rtt_rows.append(rtt_row)
        bw_rows.append(bw_row)
    header = ["region"] + [r[:3].upper() for r in PAPER_REGIONS]
    return "\n".join([
        format_table(header, rtt_rows,
                     title="Table 1 (reproduced) — ping RTT (ms)"),
        "",
        format_table(header, bw_rows,
                     title="Table 1 (reproduced) — bandwidth (Mbit/s)"),
    ]) + "\n"


def build_table1(records: Sequence[Mapping[str, Any]]) -> str:
    """Table 1 measures the network substrate directly — it has no
    deployment runs, so ``records`` is unused."""
    del records
    _, measured = probe_table1()
    return format_table1(measured)


# ----------------------------------------------------------------------
# Table 2 — message complexity, analytic vs measured
# ----------------------------------------------------------------------

def table2_measured(record: Mapping[str, Any]) -> Tuple[float, float]:
    """Per-decision (local, global) message counts from one record."""
    result = record["result"]
    decisions = max(1, result["completed_txns"]
                    // record["config"]["batch_size"])
    return (result["local_messages"] / decisions,
            result["global_messages"] / decisions)


def build_table2(records: Sequence[Mapping[str, Any]]) -> str:
    from ..analysis.complexity import analytic_complexity

    recs = figure_of(records, "table2")
    rows = []
    z = recs[0]["config"]["num_clusters"]
    n = recs[0]["config"]["replicas_per_cluster"]
    for record in recs:
        protocol = record["tags"]["protocol"]
        analytic = analytic_complexity(protocol, z, n)
        local_pd, global_pd = table2_measured(record)
        rows.append([
            protocol,
            analytic.decisions_per_round,
            round(analytic.per_decision_local()),
            round(analytic.per_decision_global()),
            round(local_pd, 1),
            round(global_pd, 1),
            analytic.centralized,
        ])
    return format_table(
        ["protocol", "decisions", "local (analytic)", "global (analytic)",
         "local (measured)", "global (measured)", "centralized"],
        rows,
        title=f"Table 2 (reproduced) — messages per consensus decision, "
              f"z={z}, n={n}",
    ) + "\n"


# ----------------------------------------------------------------------
# Ablations — one GeoBFT design choice per campaign
# ----------------------------------------------------------------------

def build_ablation(figure: str, records: Sequence[Mapping[str, Any]]) -> str:
    """One row per variant of the ablated design choice."""
    recs = figure_of(records, figure)
    rows = []
    for record in recs:
        result = record["result"]
        rows.append([
            record["tags"]["x"],
            round(result["throughput_txn_s"]),
            round(result["avg_latency_s"], 3),
            result["global_messages"],
            round(result["global_bytes"]
                  / max(1, result["completed_txns"])),
            "ok" if result["safety_ok"] else "VIOLATED",
        ])
    config = recs[0]["config"]
    return format_table(
        ["variant", "tput (txn/s)", "avg latency (s)", "global msgs",
         "WAN B/txn", "safety"],
        rows,
        title=f"Ablation {figure} (z={config['num_clusters']}, "
              f"n={config['replicas_per_cluster']}, "
              f"batch={config['batch_size']})",
    ) + "\n"


# ----------------------------------------------------------------------
# Scale and overload — the BENCH_<figure>.json baselines
# ----------------------------------------------------------------------

def build_bench(figure: str, records: Sequence[Mapping[str, Any]]) -> str:
    return render_bench(figure_of(records, figure))


# ----------------------------------------------------------------------
# Chaos — the invariant-audit matrix
# ----------------------------------------------------------------------

def build_chaos(records: Sequence[Mapping[str, Any]]) -> str:
    """The chaos-matrix audit: one row per protocol with its safety and
    liveness verdicts (the chaos campaign's claims gate on them)."""
    rows = []
    for record in figure_of(records, "chaos"):
        result = record["result"]
        rows.append([
            record["config"]["protocol"],
            record.get("scenario", "none"),
            "PASS" if result["safety_ok"] else "FAIL",
            "PASS" if result["liveness_ok"] else "FAIL",
            round(result["throughput_txn_s"]),
            record["digest"][:12],
        ])
    return format_table(
        ["protocol", "scenario", "safety", "liveness", "txn/s", "digest"],
        rows,
        title="Chaos matrix — crash + partition + Byzantine tampering, "
              "per protocol",
    ) + "\n"


__all__ = [
    "build_ablation",
    "build_bench",
    "build_fig10",
    "build_fig11",
    "build_fig12",
    "build_fig13",
    "build_chaos",
    "build_table1",
    "build_table2",
    "fig12_panels",
    "figure_of",
    "figure_records",
    "format_table1",
    "probe_pair",
    "probe_table1",
    "table2_measured",
]
