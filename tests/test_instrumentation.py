"""Tests for the observability layer: histograms, the instrumentation
hub, trace export, metrics percentiles, and cache/queue telemetry."""

import json

import pytest

from repro.bench.deployment import Deployment, deployment_digest
from repro.bench.instrumentation import (
    EVENT_PHASES,
    LIFECYCLE,
    Instrumentation,
    LatencyHistogram,
)
from repro.bench.metrics import Metrics
from repro.bench.tracing import load_trace_jsonl
from repro.crypto.digests import EncodingCacheStats, digest_of
from repro.crypto.signatures import VerificationCache
from repro.types import replica_id

from .conftest import small_config


class FakeSim:
    """A clock the hub can read without a real simulator."""

    def __init__(self):
        self.now = 0.0


# ----------------------------------------------------------------------
# LatencyHistogram
# ----------------------------------------------------------------------
def test_histogram_basic_stats():
    hist = LatencyHistogram()
    for value in (0.010, 0.020, 0.030):
        hist.record(value)
    assert hist.count == 3
    assert hist.min == pytest.approx(0.010)
    assert hist.max == pytest.approx(0.030)
    assert hist.mean() == pytest.approx(0.020)


def test_histogram_quantiles_bounded_by_observed_range():
    hist = LatencyHistogram()
    for i in range(1, 1001):
        hist.record(i / 1000.0)  # 1ms .. 1s uniform
    p = hist.percentiles()
    assert hist.min <= p["p50"] <= p["p95"] <= p["p99"] <= hist.max
    # Log-bucket relative error is bounded by the growth factor (~19%).
    assert p["p50"] == pytest.approx(0.5, rel=0.2)
    assert p["p99"] == pytest.approx(0.99, rel=0.2)


def test_histogram_single_value_quantiles_exact():
    hist = LatencyHistogram()
    for _ in range(100):
        hist.record(0.042)
    p = hist.percentiles()
    # min/max clamping makes a constant stream exact at every quantile.
    assert p["p50"] == p["p95"] == p["p99"] == pytest.approx(0.042)


def test_histogram_empty_and_negative():
    hist = LatencyHistogram()
    assert hist.quantile(0.5) == 0.0
    assert hist.mean() == 0.0
    hist.record(-1.0)  # clamps to zero rather than raising
    assert hist.count == 1
    assert hist.min == 0.0


def test_histogram_invalid_geometry():
    with pytest.raises(ValueError):
        LatencyHistogram(min_value=0)
    with pytest.raises(ValueError):
        LatencyHistogram(growth=1.0)
    with pytest.raises(ValueError):
        LatencyHistogram(buckets=1)


# ----------------------------------------------------------------------
# Instrumentation hub (unit, with a fake clock)
# ----------------------------------------------------------------------
def test_hub_first_seen_marks_and_durations():
    sim = FakeSim()
    hub = Instrumentation(sim)
    node = replica_id(1, 1)
    times = {"proposed": 1.0, "prepared": 1.5, "committed": 2.5,
             "executed": 3.0}
    for phase, t in times.items():
        sim.now = t
        hub.phase(phase, node, 1, 7)
    # Duplicate emissions (other replicas) must not move the first mark.
    sim.now = 9.0
    hub.phase("committed", replica_id(1, 2), 1, 7)
    span = hub.round_span(1, 7)
    assert span == times
    assert hub.rounds() == [(1, 7)]
    assert hub.committed_rounds() == 1
    durations = hub.phase_durations()
    assert durations["proposed->prepared"].mean() == pytest.approx(0.5)
    assert durations["prepared->committed"].mean() == pytest.approx(1.0)
    assert durations["proposed->executed"].mean() == pytest.approx(2.0)
    # No "shared" mark: the skipped phase never produces a key.
    assert "committed->shared" not in durations


def test_hub_share_latency():
    sim = FakeSim()
    hub = Instrumentation(sim)
    sim.now = 1.0
    hub.phase("shared", replica_id(1, 1), 1, 3)
    sim.now = 1.020
    hub.phase("share_received", replica_id(2, 1), 1, 3, detail=2)
    sim.now = 1.999  # second receiver in the same cluster: ignored
    hub.phase("share_received", replica_id(2, 2), 1, 3, detail=2)
    latency = hub.share_latency()
    assert set(latency) == {(1, 2)}
    assert latency[(1, 2)].count == 1
    assert latency[(1, 2)].mean() == pytest.approx(0.020)


def test_hub_event_buffer_bounded():
    sim = FakeSim()
    hub = Instrumentation(sim, max_events=5)
    node = replica_id(1, 1)
    for i in range(10):
        hub.phase("proposed", node, 1, i)
    assert len(hub.events) == 5
    assert hub.dropped_events == 5
    assert len(hub.warnings) == 1  # warn_once fires exactly once
    # Marks are still complete: only the raw event log is bounded.
    assert len(hub.rounds()) == 10


def test_hub_warn_once_and_counters(capsys):
    hub = Instrumentation(FakeSim())
    hub.warn_once("k", "message one")
    hub.warn_once("k", "message two")
    assert hub.warnings == ["message one"]
    assert "[instrumentation] message one" in capsys.readouterr().err
    hub.count("drops")
    hub.count("drops", 2)
    assert hub.counters["drops"] == 3
    hub.sample("depth", 4.0)
    hub.sample("depth", 6.0)
    assert hub.samples["depth"].count == 2
    assert hub.samples["depth"].mean() == pytest.approx(5.0)


# ----------------------------------------------------------------------
# Instrumented runs (integration)
# ----------------------------------------------------------------------
def test_geobft_instrumented_run_produces_spans():
    deployment = Deployment(small_config(
        "geobft", fast_crypto=True, duration=1.5, warmup=0.3,
        instrument=True))
    result = deployment.run()
    assert result.safety_ok
    hub = deployment.instrumentation
    assert hub.committed_rounds() > 0
    durations = hub.phase_durations()
    for key in ("proposed->prepared", "prepared->committed",
                "committed->shared", "shared->ordered",
                "proposed->executed"):
        assert key in durations and durations[key].count > 0
    # Both clusters shared to each other.
    assert {(1, 2), (2, 1)} <= set(hub.share_latency())
    for name in ("geobft.in_flight", "geobft.queued_requests",
                 "sim.pending_events"):
        assert name in hub.samples
    # Every committed round carries the full lifecycle prefix.
    cluster, round_id = hub.rounds()[0]
    span = hub.round_span(cluster, round_id)
    assert list(span) == [p for p in LIFECYCLE if p in span]


def test_instrumentation_disabled_is_none():
    deployment = Deployment(small_config("geobft", fast_crypto=True,
                                         duration=1.0, warmup=0.2))
    assert deployment.instrumentation is None
    for replica in deployment.replicas.values():
        assert replica.instrumentation is None


def test_instrumentation_does_not_perturb_results():
    """The acceptance criterion: trace on == trace off, byte for byte."""
    digests = []
    for instrument in (False, True):
        deployment = Deployment(small_config(
            "geobft", fast_crypto=True, duration=1.5, warmup=0.3,
            instrument=instrument))
        result = deployment.run()
        digests.append(deployment_digest(deployment, result))
    assert digests[0] == digests[1]


@pytest.mark.parametrize("protocol", ["pbft", "zyzzyva", "hotstuff",
                                      "steward"])
def test_other_protocols_emit_lifecycle(protocol):
    deployment = Deployment(small_config(
        protocol, fast_crypto=True, duration=1.5, warmup=0.3,
        instrument=True))
    result = deployment.run()
    assert result.safety_ok
    hub = deployment.instrumentation
    phases = {e.phase for e in hub.events}
    assert "proposed" in phases
    assert "executed" in phases
    assert hub.phase_durations()["proposed->executed"].count > 0


def test_exports(tmp_path):
    deployment = Deployment(small_config(
        "geobft", fast_crypto=True, duration=1.0, warmup=0.2,
        instrument=True))
    deployment.run()
    hub = deployment.instrumentation

    jsonl = tmp_path / "trace.jsonl"
    written = hub.export_jsonl(str(jsonl))
    lines = jsonl.read_text().splitlines()
    assert written == len(hub.events) == len(lines)
    first = json.loads(lines[0])
    assert {"t", "phase", "node", "cluster", "round", "detail"} <= set(first)

    chrome = tmp_path / "trace.json"
    count = hub.export_chrome_trace(str(chrome))
    document = json.loads(chrome.read_text())
    assert document["displayTimeUnit"] == "ms"
    events = document["traceEvents"]
    assert len(events) == count
    spans = [e for e in events if e["ph"] == "X"]
    assert spans and all(e["dur"] >= 0 for e in spans)
    assert {e["cat"] for e in spans} == {"lifecycle", "global-share"}
    metadata = [e for e in events if e["ph"] == "M"]
    assert {e["args"]["name"] for e in metadata} == {"cluster 1",
                                                     "cluster 2"}
    instants = [e for e in events if e["ph"] == "i"]
    assert all(e["name"] in EVENT_PHASES for e in instants)
    assert "committed rounds" in hub.summary()


def test_jsonl_round_trip(tmp_path):
    deployment = Deployment(small_config(
        "geobft", fast_crypto=True, duration=1.0, warmup=0.2,
        instrument=True))
    deployment.run()
    hub = deployment.instrumentation
    path = tmp_path / "trace.jsonl"
    hub.export_jsonl(str(path))
    loaded = load_trace_jsonl(str(path))
    key = lambda e: (e.time, e.phase, str(e.node), e.cluster, e.round_id)
    assert [key(e) for e in loaded.events] == [key(e) for e in hub.events]
    assert {span: loaded.round_span(*span) for span in loaded.rounds()} \
        == {span: hub.round_span(*span) for span in hub.rounds()}
    assert {link: h.count for link, h in loaded.share_latency().items()} \
        == {link: h.count for link, h in hub.share_latency().items()}
    assert {name: h.count for name, h in loaded.phase_durations().items()} \
        == {name: h.count for name, h in hub.phase_durations().items()}


def test_load_trace_jsonl_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 0.1, "phase": "proposed"\n')
    with pytest.raises(ValueError, match="bad.jsonl:1"):
        load_trace_jsonl(str(path))


# ----------------------------------------------------------------------
# Metrics: percentile fixes and offered load
# ----------------------------------------------------------------------
def test_p50_even_interpolates():
    metrics = Metrics(warmup=0.0)
    client = replica_id(1, 1)
    for latency in (1.0, 2.0, 3.0, 10.0):
        metrics.record_completed(client, 1, latency, now=1.0)
    assert metrics.p50_latency_s() == pytest.approx(2.5)


def test_p50_odd_unchanged():
    metrics = Metrics(warmup=0.0)
    client = replica_id(1, 1)
    for latency in (1.0, 2.0, 10.0):
        metrics.record_completed(client, 1, latency, now=1.0)
    assert metrics.p50_latency_s() == pytest.approx(2.0)


def test_tail_percentiles_ordered():
    metrics = Metrics(warmup=0.0)
    client = replica_id(1, 1)
    for i in range(1, 101):
        metrics.record_completed(client, 1, i / 100.0, now=1.0)
    assert (metrics.p50_latency_s() <= metrics.p95_latency_s()
            <= metrics.p99_latency_s())
    assert metrics.latency_histogram().count == 100


def test_offered_load_excludes_warmup():
    metrics = Metrics(warmup=1.0)
    client = replica_id(1, 1)
    metrics.record_submitted(client, 100, now=0.5)   # warmup: excluded
    metrics.record_submitted(client, 100, now=1.5)
    metrics.record_submitted(client, 100, now=2.5)
    metrics.finish(now=3.0)
    assert metrics.submitted_txns == 300
    assert metrics.measured_submitted_txns == 200
    assert metrics.offered_load_txn_s() == pytest.approx(100.0)


# ----------------------------------------------------------------------
# Cache and runtime telemetry
# ----------------------------------------------------------------------
def test_verification_cache_kind_stats():
    cache = VerificationCache()
    cache.get(("sig", "a"))           # miss
    cache.put(("sig", "a"), True)
    cache.get(("sig", "a"))           # hit
    cache.get(("mac", "b"))           # miss
    cache.get((1, 2))                 # untagged -> "other"
    stats = cache.kind_stats()
    assert stats["sig"] == {"hits": 1, "misses": 1}
    assert stats["mac"] == {"hits": 0, "misses": 1}
    assert stats["other"] == {"hits": 0, "misses": 1}
    assert cache.hit_rate() == pytest.approx(0.25)
    # The aggregate counters tests already relied on stay coherent.
    assert cache.hits == 1 and cache.misses == 3


def test_encoding_stats_snapshot_delta():
    stats = EncodingCacheStats()
    stats.encode_misses += 2
    baseline = stats.snapshot()
    stats.digest_hits += 3
    stats.splice_misses += 1
    delta = stats.delta_since(baseline)
    assert delta["digest_hits"] == 3
    assert delta["encode_misses"] == 0
    assert delta["splice_misses"] == 1
    stats.reset()
    assert stats.snapshot()["encode_misses"] == 0


def test_deployment_cache_and_runtime_telemetry():
    deployment = Deployment(small_config("geobft", fast_crypto=True,
                                         duration=1.0, warmup=0.2))
    deployment.run()
    # fast_crypto signs nothing and appending a block encodes nothing,
    # so the run encodes and digests no message at all.
    delta = deployment.encoding_cache_delta()
    assert len(delta) == 6 and not any(delta.values())
    blocks = [block for replica in deployment.replicas.values()
              for block in replica.ledger]
    assert blocks
    assert not any(hasattr(block.certificate, "_payload_digest_cache")
                   for block in blocks)
    assert blocks[0].certificate_digest == digest_of(blocks[0].certificate)
    delta = deployment.encoding_cache_delta()
    assert (delta["encode_misses"], delta["digest_misses"]) == (1, 1)
    assert deployment.sim.max_queue_depth > 0
    net = deployment.network.telemetry()
    assert net["sends"] > 0
    assert net["in_flight_drops"] == 0  # nothing crashed


def test_real_crypto_populates_verification_cache():
    deployment = Deployment(small_config("geobft", fast_crypto=False,
                                         duration=1.0, warmup=0.2))
    deployment.run()
    # Verifying a signed message reads its memoized digest: signing
    # digested it, and the signed copy adopted that digest.
    delta = deployment.encoding_cache_delta()
    assert delta["digest_hits"] > delta["digest_misses"] > 0
    assert delta["encode_hits"] == delta["splice_hits"] == 0
    cache = deployment.verification_cache
    assert cache.hits > 0
    assert "sig" in cache.kind_stats()
    assert 0.0 < cache.hit_rate() <= 1.0
