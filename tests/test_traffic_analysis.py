"""Tests for WAN traffic analysis and per-pair accounting."""

import pytest

from repro.analysis.traffic import (
    busiest_sender_region,
    cross_region_totals,
    format_link_report,
    link_usage,
)
from repro.bench.deployment import Deployment

from .conftest import small_config


def run_deployment(protocol):
    deployment = Deployment(small_config(protocol, fast_crypto=True,
                                         duration=2.0, warmup=0.4))
    result = deployment.run()
    return deployment, result


class TestPairAccounting:
    def test_pair_bytes_populated(self):
        deployment, _ = run_deployment("geobft")
        pairs = deployment.network.pair_bytes()
        assert pairs
        assert ("oregon", "iowa") in pairs
        assert ("oregon", "oregon") in pairs

    def test_cross_region_totals_exclude_local(self):
        deployment, _ = run_deployment("geobft")
        cross = cross_region_totals(deployment.network)
        assert all(src != dst for src, dst in cross)
        assert sum(cross.values()) == deployment.network.global_bytes


class TestLinkUsage:
    def test_rows_sorted_by_volume(self):
        deployment, result = run_deployment("geobft")
        rows = link_usage(deployment.network, window=result.duration)
        volumes = [row.bytes_sent for row in rows]
        assert volumes == sorted(volumes, reverse=True)
        for row in rows:
            assert row.capacity_mbit > 0
            assert row.throughput_mbit >= 0

    def test_empty_window(self):
        deployment, _ = run_deployment("geobft")
        assert link_usage(deployment.network, 0) == []

    def test_report_formatting(self):
        deployment, result = run_deployment("geobft")
        rows = link_usage(deployment.network, window=result.duration)
        report = format_link_report(rows)
        assert "oregon" in report
        assert "util" in report


class TestBottleneckIdentification:
    def test_pbft_bottleneck_is_the_primary_region(self):
        """Flat PBFT's primary sits in Oregon: Oregon emits nearly all
        cross-region bytes (the paper's §1.1 bottleneck)."""
        deployment, _ = run_deployment("pbft")
        region, sent = busiest_sender_region(deployment.network)
        assert region == "oregon"
        cross = cross_region_totals(deployment.network)
        total = sum(cross.values())
        assert sent / total > 0.5

    def test_geobft_spreads_the_load(self):
        """GeoBFT has a primary per region: no region dominates the
        cross-region traffic the way PBFT's Oregon does."""
        geo_dep, _ = run_deployment("geobft")
        pbft_dep, _ = run_deployment("pbft")

        def dominance(network):
            cross = cross_region_totals(network)
            total = sum(cross.values())
            _region, sent = busiest_sender_region(network)
            return sent / total

        assert dominance(geo_dep.network) < dominance(pbft_dep.network)

    def test_geobft_cross_bytes_far_below_pbft(self):
        geo_dep, geo = run_deployment("geobft")
        pbft_dep, pbft = run_deployment("pbft")
        geo_per_txn = geo.global_bytes / max(1, geo.completed_txns)
        pbft_per_txn = pbft.global_bytes / max(1, pbft.completed_txns)
        assert geo_per_txn < pbft_per_txn
