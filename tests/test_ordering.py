"""Tests for the GeoBFT ordering buffer (§2.4)."""

from types import SimpleNamespace

import pytest

from repro.core.ordering import OrderingBuffer
from repro.errors import ProtocolError


def cert(request):
    """A stand-in certificate: the buffer reads only ``.request``."""
    return SimpleNamespace(request=request)


def collector():
    executed = []

    def execute(round_id, ordered):
        executed.append((round_id, [c for c, _cert in ordered]))

    return executed, execute


class TestOrderingBuffer:
    def test_round_releases_when_all_clusters_present(self):
        executed, execute = collector()
        buf = OrderingBuffer([1, 2, 3], execute)
        buf.add_share(1, 2, cert("r2"))
        buf.add_share(1, 1, cert("r1"))
        assert executed == []
        buf.add_share(1, 3, cert("r3"))
        assert executed == [(1, [1, 2, 3])]

    def test_execution_in_cluster_id_order(self):
        executed, execute = collector()
        buf = OrderingBuffer([3, 1, 2], execute)
        for c in (2, 3, 1):
            buf.add_share(1, c, cert(f"r{c}"))
        assert executed == [(1, [1, 2, 3])]

    def test_rounds_release_strictly_in_order(self):
        executed, execute = collector()
        buf = OrderingBuffer([1, 2], execute)
        buf.add_share(2, 1, cert("a"))
        buf.add_share(2, 2, cert("b"))
        assert executed == []  # round 1 incomplete
        buf.add_share(1, 1, cert("x"))
        buf.add_share(1, 2, cert("y"))
        assert [r for r, _ in executed] == [1, 2]

    def test_duplicate_share_ignored(self):
        executed, execute = collector()
        buf = OrderingBuffer([1, 2], execute)
        assert buf.add_share(1, 1, cert("a"))
        assert not buf.add_share(1, 1, cert("a-dup"))
        buf.add_share(1, 2, cert("b"))
        assert executed == [(1, [1, 2])]

    def test_share_for_executed_round_ignored(self):
        executed, execute = collector()
        buf = OrderingBuffer([1], execute)
        buf.add_share(1, 1, cert("a"))
        assert not buf.add_share(1, 1, cert("late"))
        assert buf.executed_rounds() == 1

    def test_unknown_cluster_rejected(self):
        _executed, execute = collector()
        buf = OrderingBuffer([1, 2], execute)
        with pytest.raises(ProtocolError):
            buf.add_share(1, 9, cert("a"))

    def test_empty_cluster_set_rejected(self):
        with pytest.raises(ProtocolError):
            OrderingBuffer([], lambda *a: None)

    def test_missing_clusters(self):
        _executed, execute = collector()
        buf = OrderingBuffer([1, 2, 3], execute)
        buf.add_share(1, 2, cert("a"))
        assert buf.missing_clusters(1) == (1, 3)
        assert buf.missing_clusters(5) == (1, 2, 3)

    def test_missing_clusters_empty_for_executed_round(self):
        _executed, execute = collector()
        buf = OrderingBuffer([1], execute)
        buf.add_share(1, 1, cert("a"))
        assert buf.missing_clusters(1) == ()

    def test_has_and_get_share(self):
        _executed, execute = collector()
        buf = OrderingBuffer([1, 2], execute)
        certificate = cert("req")
        buf.add_share(3, 1, certificate)
        assert buf.has_share(3, 1)
        assert not buf.has_share(3, 2)
        assert buf.get_share(3, 1) is certificate
        assert buf.get_share(3, 2) is None

    def test_has_share_true_for_executed_rounds(self):
        _executed, execute = collector()
        buf = OrderingBuffer([1], execute)
        buf.add_share(1, 1, cert("a"))
        assert buf.has_share(1, 1)

    def test_next_round_advances(self):
        _executed, execute = collector()
        buf = OrderingBuffer([1], execute)
        assert buf.next_round == 1
        buf.add_share(1, 1, cert("a"))
        buf.add_share(2, 1, cert("b"))
        assert buf.next_round == 3
        assert buf.executed_rounds() == 2

    def test_many_rounds_out_of_order(self):
        executed, execute = collector()
        buf = OrderingBuffer([1, 2], execute)
        import random
        rng = random.Random(4)
        shares = [(r, c) for r in range(1, 21) for c in (1, 2)]
        rng.shuffle(shares)
        for r, c in shares:
            buf.add_share(r, c, cert(f"req{r}.{c}"))
        assert [r for r, _ in executed] == list(range(1, 21))
