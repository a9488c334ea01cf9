"""What the send stream of a small GeoBFT run shows, seen through the one
send probe, ``Network.add_observer``: replication precedes sharing, and
GlobalShares cross regions from one cluster to the other."""

import pytest

from repro.bench.deployment import Deployment

from .conftest import small_config


@pytest.fixture(scope="module")
def sends():
    """Every send of one run as ``(kind, time, src, dst, is_local)``."""
    deployment = Deployment(small_config("geobft", fast_crypto=True,
                                         duration=1.0, warmup=0.2))
    sim = deployment.sim
    sent = []
    deployment.network.add_observer(
        lambda src, dst, message, size, is_local: sent.append(
            (type(message).__name__, sim.now, src, dst, is_local)))
    deployment.run()
    return sent


def test_tracer_unfiltered_sees_everything(sends):
    kinds = {kind for kind, *_ in sends}
    assert {"PrePrepare", "Prepare", "Commit", "GlobalShare"} <= kinds


def test_tracer_event_times_monotone(sends):
    times = [time for _, time, *_ in sends]
    assert times == sorted(times)


def test_first_time_of(sends):
    first_sent = {}
    for kind, time, *_ in sends:
        first_sent.setdefault(kind, time)
    assert first_sent["PrePrepare"] < first_sent["GlobalShare"]
    assert "NoSuchMessage" not in first_sent


def test_tracer_between_clusters(sends):
    assert any(kind == "GlobalShare" and src.cluster == 1
               and dst.cluster == 2 for kind, _, src, dst, _ in sends)


def test_tracer_predicate_filter(sends):
    cross = [is_local for _, _, src, dst, is_local in sends
             if src.cluster != dst.cluster]
    assert cross
    assert not any(cross)


def test_tracer_kind_and_predicate_compose(sends):
    into_two = [src.cluster for kind, _, src, dst, _ in sends
                if kind == "GlobalShare" and dst.cluster == 2]
    assert 1 in into_two
