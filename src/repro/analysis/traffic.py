"""WAN traffic analysis: where the bytes went and how close each link
came to saturation.

The paper's central argument (§1.1) is that inter-region bandwidth is
the scarce resource.  This module turns the per-region-pair byte
counts a :class:`~repro.net.network.Network` keeps into a utilization
report against its topology's Table 1 link rates,
making "PBFT saturates the primary's uplinks, GeoBFT barely touches
them" directly visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..net.network import Network


@dataclass(frozen=True)
class LinkUsage:
    """Traffic on one directed region pair over the measured window."""

    src_region: str
    dst_region: str
    bytes_sent: int
    throughput_mbit: float
    capacity_mbit: float

    @property
    def utilization(self) -> float:
        """Achieved throughput over the per-pair capacity (0..1+).

        Values above 1 are possible: several senders in a region each
        own an independent uplink at the per-pair rate.
        """
        if self.capacity_mbit <= 0:
            return 0.0
        return self.throughput_mbit / self.capacity_mbit


def link_usage(network: Network, window: float) -> List[LinkUsage]:
    """Per-pair usage rows, heaviest first.

    ``window`` is the duration (simulated seconds) the byte counts were
    accumulated over — typically ``result.duration``.
    """
    if window <= 0:
        return []
    rows = []
    topology = network.topology
    for (src, dst), sent in network.pair_bytes().items():
        throughput = sent * 8 / window / 1e6
        rows.append(LinkUsage(
            src_region=src,
            dst_region=dst,
            bytes_sent=sent,
            throughput_mbit=throughput,
            capacity_mbit=topology.bandwidth_mbit(src, dst),
        ))
    rows.sort(key=lambda r: r.bytes_sent, reverse=True)
    return rows


def cross_region_totals(network: Network) -> Dict[Tuple[str, str], int]:
    """Only the inter-region pairs (the expensive traffic)."""
    return {
        pair: sent
        for pair, sent in network.pair_bytes().items()
        if pair[0] != pair[1]
    }


def busiest_sender_region(network: Network) -> Tuple[str, int]:
    """The region emitting the most cross-region bytes.

    For a single-primary protocol this is the primary's region (the
    bottleneck the paper identifies); for GeoBFT the load spreads.
    """
    per_region: Dict[str, int] = {}
    for (src, dst), sent in network.pair_bytes().items():
        if src != dst:
            per_region[src] = per_region.get(src, 0) + sent
    if not per_region:
        return ("", 0)
    region = max(per_region, key=per_region.get)
    return (region, per_region[region])


def format_link_report(rows: List[LinkUsage], limit: int = 12) -> str:
    """Readable per-link report, heaviest links first."""
    lines = [f"{'src':>10} -> {'dst':<10} {'MB':>9} {'Mbit/s':>9} "
             f"{'cap':>8} {'util':>6}"]
    for row in rows[:limit]:
        lines.append(
            f"{row.src_region:>10} -> {row.dst_region:<10} "
            f"{row.bytes_sent / 1e6:>9.2f} {row.throughput_mbit:>9.1f} "
            f"{row.capacity_mbit:>8.0f} {row.utilization:>5.0%}"
        )
    return "\n".join(lines)
