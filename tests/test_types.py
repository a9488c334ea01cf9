"""Tests for identifier types and fault-tolerance arithmetic."""

from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.types import (
    ClusterSpec,
    NodeId,
    Quorums,
    check_config_fields,
    client_id,
    max_faulty,
    replica_id,
)


class TestNodeId:
    def test_replica_id_fields(self):
        node = replica_id(3, 5)
        assert node.kind == "replica"
        assert node.cluster == 3
        assert node.index == 5

    def test_client_id_fields(self):
        node = client_id(2, 1)
        assert node.kind == "client"
        assert node.cluster == 2

    def test_str_form(self):
        assert str(replica_id(1, 2)) == "r1.2"
        assert str(client_id(4, 9)) == "c4.9"

    def test_ids_are_hashable_and_equal_by_value(self):
        assert replica_id(1, 2) == replica_id(1, 2)
        assert len({replica_id(1, 2), replica_id(1, 2)}) == 1

    def test_replica_and_client_with_same_numbers_differ(self):
        assert replica_id(1, 1) != client_id(1, 1)

    def test_ids_are_orderable(self):
        assert sorted([replica_id(2, 1), replica_id(1, 2)])[0].cluster == 1

    def test_invalid_index_rejected(self):
        with pytest.raises(ConfigurationError):
            replica_id(1, 0)
        with pytest.raises(ConfigurationError):
            client_id(1, -1)


class TestFaultArithmetic:
    @pytest.mark.parametrize("n,f", [(4, 1), (5, 1), (6, 1), (7, 2),
                                     (10, 3), (13, 4), (60, 19)])
    def test_max_faulty(self, n, f):
        assert max_faulty(n) == f

    @pytest.mark.parametrize("n", [4, 7, 10, 13])
    def test_n_exceeds_3f(self, n):
        assert n > 3 * max_faulty(n)

    def test_quorum_is_n_minus_f(self):
        assert Quorums(7).intersect == 5
        assert Quorums(4).intersect == 3

    def test_invalid_n_rejected(self):
        with pytest.raises(ConfigurationError):
            max_faulty(0)

    @given(st.integers(min_value=4, max_value=1000))
    def test_quorum_intersection_property(self, n):
        """Two n-f quorums always intersect in > f replicas — the
        foundation of PBFT safety."""
        q = Quorums(n)
        # |Q1 ∩ Q2| >= 2*quorum - n > f
        assert 2 * q.intersect - n > q.f


class TestQuorums:
    @given(st.integers(min_value=1, max_value=512))
    def test_thresholds(self, n):
        q = Quorums(n)
        # n > 3f, and f is the largest such bound.
        assert q.n == q.all == n
        assert n > 3 * q.f and not n > 3 * (q.f + 1)
        assert q.intersect == n - q.f
        assert q.certificate == 2 * q.f + 1 <= n
        assert q.one_honest == q.f + 1
        # Two intersect-sized sets share at least one honest replica.
        assert 2 * q.intersect - n >= q.one_honest
        with pytest.raises(FrozenInstanceError):
            q.f = 0
        with pytest.raises(FrozenInstanceError):
            del q.intersect

    @pytest.mark.parametrize("n", [0, -4, 4.0, 7.5, "4", None, True, False])
    def test_bad_sizes_rejected(self, n):
        with pytest.raises(ConfigurationError):
            Quorums(n)


class TestClusterSpec:
    def test_properties(self):
        spec = ClusterSpec(1, "oregon", 7)
        q = Quorums(spec.num_replicas)
        assert (q.f, q.intersect) == (2, 5)
        assert len(spec.replicas()) == 7
        assert spec.replicas()[0] == replica_id(1, 1)

    def test_too_small_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(1, "oregon", 3)

    def test_replicas_belong_to_cluster(self):
        spec = ClusterSpec(9, "iowa", 4)
        assert all(r.cluster == 9 for r in spec.replicas())


class TestConfigFlags:
    @pytest.mark.parametrize("value", [True, False])
    def test_bools_accepted(self, value):
        check_config_fields(SimpleNamespace(on=value), flags=("on",))

    @pytest.mark.parametrize("value", [0, 1, "false", "", None, 1.0])
    def test_non_bools_rejected(self, value):
        with pytest.raises(ConfigurationError, match="on must be a bool"):
            check_config_fields(SimpleNamespace(on=value), flags=("on",))
