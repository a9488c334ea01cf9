"""The certificate pool: one commit certificate per decision, shared by
the engines of a PBFT group."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.bench.deployment import Deployment, ExperimentConfig
from repro.consensus.messages import (ClientRequestBatch, Commit,
                                      CommitCertificate)
from repro.consensus.pbft import CertificatePool
from repro.ledger.block import Transaction
from repro.types import client_id, replica_id

from .test_pbft import PbftHarness

_GROUP = 1
_QUORUM = 3  # n - f of a 4-replica group
_RETENTION = 2  # slots a horizon trails the stable checkpoint


def _request(seq, tag=""):
    return ClientRequestBatch(
        f"b{seq}{tag}", client_id(1, 1),
        (Transaction(f"t{seq}{tag}", "update", seq, "v"),), None)


def _commit(seq, view, replica, digest):
    return Commit(_GROUP, view, seq, digest, replica_id(_GROUP, replica),
                  None)


class SharedCertificateMachine(RuleBasedStateMachine):
    """2–4 pool clients deciding slots through one
    :class:`CertificatePool` the way ``PbftEngine._maybe_decide`` does,
    each shadowed by a private reference that always builds its own
    certificate.  Clients mostly pick the group's shared request and
    commit objects and sometimes an equal copy of one, a tampered
    commit, another request or another view; they also decide slots the
    pool has already pruned, as a lagging replica does.  A model of
    which commit sets the pool must hold predicts every reuse and the
    pool's exact size."""

    def __init__(self):
        super().__init__()
        self.pool = CertificatePool()
        self.shared = {}  # seq -> (request, five commits per view)
        self.model = {}  # seq -> [(view, request, commits, certificate)]
        self.floor = 0
        self.stable, self.decided = [], []

    @initialize(count=st.integers(2, 4))
    def clients(self, count):
        self.stable = [0] * count
        self.decided = [set() for _ in range(count)]

    def _shared(self, seq):
        if seq not in self.shared:
            request = _request(seq)
            digest = request.digest()
            self.shared[seq] = (request, {
                view: [_commit(seq, view, r, digest) for r in range(1, 6)]
                for view in (0, 1)})
        return self.shared[seq]

    @rule(index=st.integers(0, 3), seq=st.integers(1, 12),
          view=st.sampled_from([0, 0, 0, 1]),
          request_kind=st.sampled_from(["shared"] * 4 + ["copy", "other"]),
          picks=st.lists(st.tuples(st.integers(0, 4),
                                   st.sampled_from(["shared"] * 6
                                                   + ["copy", "tampered"])),
                         min_size=_QUORUM, max_size=_QUORUM,
                         unique_by=lambda pick: pick[0]))
    def decide(self, index, seq, view, request_kind, picks):
        decided = self.decided[index % len(self.decided)]
        if seq in decided:
            return  # an engine decides a slot once
        decided.add(seq)
        request, by_view = self._shared(seq)
        if request_kind == "copy":
            request = ClientRequestBatch(request.batch_id, request.client,
                                         request.batch, request.signature)
        elif request_kind == "other":
            request = _request(seq, tag="'")
        chosen = []
        for replica, kind in sorted(picks):
            commit = by_view[view][replica]
            if kind == "copy":
                commit = Commit(commit.cluster_id, commit.view, commit.seq,
                                commit.digest, commit.replica,
                                commit.signature)
            elif kind == "tampered":
                commit = Commit(commit.cluster_id, commit.view, commit.seq,
                                b"\x07" * 32, commit.replica, b"forged")
            chosen.append(commit)
        commits = tuple(chosen)

        # The client, as PbftEngine._maybe_decide does it.
        got = self.pool.match(seq, view, request, commits)
        if got is None:
            got = CommitCertificate(_GROUP, seq, view, request, commits)
            self.pool.add(got)
        # Its private reference.
        want = CommitCertificate(_GROUP, seq, view, request, commits)

        assert got == want
        assert got.digest() == want.digest()
        assert got.view == view and got.request is request
        assert all(a is b for a, b in zip(got.commits, want.commits))

        entries = self.model.setdefault(seq, []) if seq > self.floor else []
        for e_view, e_request, e_commits, e_certificate in entries:
            if (e_view == view and e_request is request
                    and all(a is b for a, b in zip(e_commits, commits))):
                assert got is e_certificate  # the same objects: reused
                return
        for e_view, e_request, e_commits, e_certificate in entries:
            assert got is not e_certificate  # anything else: built
        if seq > self.floor:
            entries.append((view, request, commits, got))

    @rule(index=st.integers(0, 3), step=st.integers(1, 6))
    def stabilize(self, index, step):
        i = index % len(self.stable)
        self.stable[i] += step
        horizon = self.stable[i] - _RETENTION
        self.pool.prune(horizon)
        self.floor = max(self.floor, horizon)
        for seq in [s for s in self.model if s <= self.floor]:
            del self.model[seq]

    @invariant()
    def pool_holds_exactly_the_live_commit_sets(self):
        assert len(self.pool) == sum(map(len, self.model.values()))
        # Bounded: one certificate per client and slot, and no slot at
        # or below the horizon.
        assert len(self.pool) <= len(self.stable) * max(0, 12 - self.floor)


TestSharedCertificates = SharedCertificateMachine.TestCase
TestSharedCertificates.settings = settings(max_examples=300,
                                           stateful_step_count=40,
                                           deadline=None)


class TestPoolAttachment:
    def test_unattached_engines_keep_private_pools(self):
        h = PbftHarness()
        request = h.make_request()
        h.submit(request)
        h.run(until=1.0)
        engines = [replica.engine for replica in h.replicas]
        assert len({id(engine._pool) for engine in engines}) == len(engines)
        certificates = [engine.decision(1) for engine in engines]
        assert len({id(c) for c in certificates}) == len(engines)
        for engine, certificate in zip(engines, certificates):
            assert engine._pool.match(
                1, certificate.view, certificate.request,
                certificate.commits) is certificate

    @pytest.mark.parametrize("protocol,groups", [
        ("pbft", [0]), ("geobft", [1, 2]), ("steward", [1, 2]),
        ("hotstuff", []), ("zyzzyva", [])])
    def test_deployment_gives_each_group_one_pool(self, protocol, groups):
        deployment = Deployment(ExperimentConfig(
            protocol=protocol, num_clusters=2, replicas_per_cluster=4,
            duration=0.3, warmup=0.1, fast_crypto=True))
        pools = deployment.certificate_pools
        assert sorted(pools) == groups
        for replica in deployment.replicas.values():
            engine = getattr(replica, "engine", None)
            if groups:
                assert engine._pool is pools[engine.cluster_id]

    def test_pool_is_pruned_behind_the_stable_checkpoint(self):
        deployment = Deployment(ExperimentConfig(
            protocol="geobft", num_clusters=2, replicas_per_cluster=4,
            batch_size=10, duration=1.5, warmup=0.25, fast_crypto=True,
            record_count=2_000))
        deployment.run()
        for group, pool in deployment.certificate_pools.items():
            engines = [r.engine for r in deployment.replicas.values()
                       if r.engine.cluster_id == group]
            stable = max(engine.stable_seq for engine in engines)
            retention = engines[0]._config.decision_retention
            assert pool._floor == stable - retention > 0
            assert min(pool._by_seq) > pool._floor
            decided = max(engine.decided_count for engine in engines)
            assert len(pool) <= len(engines) * (decided - pool._floor)
