#!/usr/bin/env python3
"""Anatomy of geo-scale throughput: where do the bytes go?

Runs the same four-region deployment under flat PBFT and under GeoBFT
and dissects the WAN traffic with the traffic-analysis API:

* which region is the busiest cross-region sender (PBFT: the primary's
  region; GeoBFT: load spread over all four),
* how loaded each inter-region link is relative to its Table 1
  capacity,
* how many bytes each protocol ships across regions per committed
  transaction — the quantity GeoBFT's f+1 optimistic sharing minimizes.

Run with:  python examples/throughput_anatomy.py
"""

from repro import Deployment, ExperimentConfig
from repro.analysis.traffic import (
    busiest_sender_region,
    cross_region_totals,
    format_link_report,
    link_usage,
)


def run(protocol: str):
    config = ExperimentConfig(
        protocol=protocol,
        num_clusters=4,
        replicas_per_cluster=4,
        batch_size=50,
        clients_per_cluster=2,
        client_outstanding=4,
        duration=2.0,
        warmup=0.5,
        record_count=2000,
        fast_crypto=True,
        seed=23,
    )
    deployment = Deployment(config)
    result = deployment.run()
    return deployment, result


def dissect(protocol: str) -> None:
    deployment, result = run(protocol)
    print(f"\n=== {protocol} ===")
    print(result.describe())
    region, sent = busiest_sender_region(deployment.network)
    cross = sum(cross_region_totals(deployment.network).values())
    print(f"busiest WAN sender region : {region} "
          f"({sent / max(1, cross):.0%} of all cross-region bytes)")
    per_txn = result.global_bytes / max(1, result.completed_txns)
    print(f"WAN bytes per committed txn: {per_txn:.0f} B")
    rows = link_usage(deployment.network, window=result.duration)
    wan_rows = [r for r in rows if r.src_region != r.dst_region]
    print(format_link_report(wan_rows, limit=6))
    return per_txn


def main() -> None:
    pbft_per_txn = dissect("pbft")
    geo_per_txn = dissect("geobft")
    print(f"\nGeoBFT ships {pbft_per_txn / geo_per_txn:.1f}x fewer WAN "
          f"bytes per transaction than flat PBFT.")


if __name__ == "__main__":
    main()
