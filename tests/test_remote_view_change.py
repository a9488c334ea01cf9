"""Unit tests for the remote view-change manager (Figure 7), driven with
a stub owner so each rule can be exercised in isolation."""

import pytest

from repro.consensus.messages import Drvc, Rvc
from repro.core.remote_view_change import RemoteViewChangeManager
from repro.crypto.costs import CryptoCostModel
from repro.crypto.signatures import KeyRegistry
from repro.net.simulator import Simulation
from repro.types import Quorums, replica_id

N = 4
F = 1
OWN = 2      # manager lives in cluster 2
REMOTE = 1   # and watches cluster 1


class StubOwner:
    """Minimal owner surface the manager needs."""

    def __init__(self, sim, registry, node_id):
        self.sim = sim
        self.registry = registry
        self.node_id = node_id
        self.costs = CryptoCostModel.free()
        self.signer = registry.register(node_id)
        self.sent = []        # (dst, message)
        self.broadcasts = []  # (dsts, message)

    def send(self, dst, message):
        self.sent.append((dst, message))

    def broadcast(self, dsts, message, include_self=False):
        self.broadcasts.append((list(dsts), message))

    def sign(self, payload):
        return self.signer.sign(payload)

    def charge_cpu(self, cost):
        pass


@pytest.fixture
def setup():
    sim = Simulation(seed=1)
    registry = KeyRegistry()
    members = [replica_id(OWN, i) for i in range(1, N + 1)]
    owner = StubOwner(sim, registry, members[0])
    shares = {}
    failures = []
    manager = RemoteViewChangeManager(
        owner=owner,
        own_cluster=OWN,
        own_members=members,
        # Cluster 3 sends the RVCs in TestResponseRole.
        quorums={c: Quorums(N) for c in (REMOTE, OWN, 3)},
        remote_timeout=1.0,
        get_share=lambda c, r: shares.get((c, r)),
        on_local_failure_detected=lambda: failures.append(owner.sim.now),
        recent_view_change_window=5.0,
    )
    return sim, registry, members, owner, shares, failures, manager


def make_rvc(registry, sender, target_cluster=OWN, round_id=1, v=0):
    unsigned = Rvc(target_cluster, round_id, v, sender, None)
    signer = registry.register(sender)
    return Rvc(target_cluster, round_id, v, sender,
               signer.sign(unsigned.payload()))


class TestDetection:
    def test_timer_expiry_broadcasts_drvc(self, setup):
        sim, _reg, members, owner, _shares, _f, manager = setup
        manager.arm_timer(REMOTE, 1)
        sim.run(until=2.0)
        assert manager.detection_in_progress(REMOTE, 1)
        drvcs = [m for _, m in owner.broadcasts if isinstance(m, Drvc)]
        assert len(drvcs) == 1
        assert drvcs[0].target_cluster == REMOTE
        assert drvcs[0].vc_count == 0
        assert manager.vc_count(REMOTE) == 1  # bumped after broadcast

    def test_share_arrival_cancels_timer(self, setup):
        sim, _reg, _members, owner, shares, _f, manager = setup
        manager.arm_timer(REMOTE, 1)
        shares[(REMOTE, 1)] = "the-share"
        manager.on_share_received(REMOTE, 1)
        sim.run(until=2.0)
        assert not manager.detection_in_progress(REMOTE, 1)
        assert owner.broadcasts == []

    def test_timer_not_armed_when_share_already_present(self, setup):
        sim, _reg, _members, owner, shares, _f, manager = setup
        shares[(REMOTE, 1)] = "the-share"
        manager.arm_timer(REMOTE, 1)
        sim.run(until=2.0)
        assert owner.broadcasts == []

    def test_exponential_backoff(self, setup):
        """After a remote view change the next timer doubles (§2.3)."""
        sim, _reg, _members, owner, shares, _f, manager = setup
        manager.arm_timer(REMOTE, 1)
        sim.run(until=1.5)  # first timeout at 1.0
        assert manager.vc_count(REMOTE) == 1
        # The round-1 share arrives; stop watching round 1.
        shares[(REMOTE, 1)] = "share-1"
        manager.on_share_received(REMOTE, 1)
        # A new round's timer now runs at 2x the base timeout.
        manager.arm_timer(REMOTE, 2)
        sim.run(until=2.6)  # 1.5 + 2.0 = 3.5 not yet reached
        drvcs = [m for _, m in owner.broadcasts if isinstance(m, Drvc)]
        assert len(drvcs) == 1
        sim.run(until=4.0)
        drvcs = [m for _, m in owner.broadcasts if isinstance(m, Drvc)]
        assert len(drvcs) == 2
        assert drvcs[1].round_id == 2
        assert drvcs[1].vc_count == 1


    def test_rearm_after_cancel_fires_only_the_new_timeout(self, setup):
        """A share arrives (the timeout is cancelled), then leaves the
        lookup, and the same round is awaited again before the cancelled
        timeout's deadline: only the new timeout fires, at its own
        deadline."""
        sim, _reg, _members, owner, shares, _f, manager = setup
        manager.arm_timer(REMOTE, 1)                    # due at 1.0
        shares[(REMOTE, 1)] = "the-share"
        manager.on_share_received(REMOTE, 1)
        del shares[(REMOTE, 1)]
        sim.run(until=0.5)
        manager.arm_timer(REMOTE, 1)                    # due at 1.5
        sim.run(until=1.25)
        assert owner.broadcasts == []
        assert sim.events_processed == 1                # the cancelled one
        sim.run(until=1.5)
        drvcs = [m for _, m in owner.broadcasts if isinstance(m, Drvc)]
        assert [(d.round_id, d.vc_count) for d in drvcs] == [(1, 0)]
        assert sim.events_processed == 2
        # The DRVC re-armed a doubled timeout, due at 3.5.
        sim.run(until=3.4)
        assert len(owner.broadcasts) == 1


class TestDrvcHandling:
    def test_holder_of_share_answers_detector(self, setup):
        """Figure 7, lines 5-7: a replica that received m sends it to
        the DRVC sender."""
        _sim, _reg, members, owner, shares, _f, manager = setup
        shares[(REMOTE, 1)] = "the-share"
        peer = members[1]
        manager.handle_drvc(Drvc(REMOTE, 1, 0, peer), peer)
        assert owner.sent == [(peer, "the-share")]

    def test_f_plus_1_detections_force_joining(self, setup):
        """Figure 7, lines 8-11."""
        _sim, _reg, members, owner, _shares, _f, manager = setup
        manager.handle_drvc(Drvc(REMOTE, 1, 0, members[1]), members[1])
        assert not manager.detection_in_progress(REMOTE, 1)
        manager.handle_drvc(Drvc(REMOTE, 1, 0, members[2]), members[2])
        # f + 1 = 2 votes: we join the detection.
        assert manager.detection_in_progress(REMOTE, 1)

    def test_n_minus_f_agreement_sends_rvc(self, setup):
        """Figure 7, lines 12-13: on n - f votes, send the RVC to the
        remote replica with the same index."""
        sim, _reg, members, owner, _shares, _f, manager = setup
        manager.arm_timer(REMOTE, 1)
        sim.run(until=1.5)  # own detection broadcast (1 vote: ourself)
        manager.handle_drvc(Drvc(REMOTE, 1, 0, members[1]), members[1])
        manager.handle_drvc(Drvc(REMOTE, 1, 0, members[2]), members[2])
        rvcs = [(d, m) for d, m in owner.sent if isinstance(m, Rvc)]
        assert len(rvcs) == 1
        dst, rvc = rvcs[0]
        assert dst == replica_id(REMOTE, owner.node_id.index)
        assert rvc.target_cluster == REMOTE
        assert rvc.signature is not None

    def test_drvc_from_foreign_cluster_ignored(self, setup):
        _sim, _reg, _members, owner, _shares, _f, manager = setup
        foreign = replica_id(3, 1)
        manager.handle_drvc(Drvc(REMOTE, 1, 0, foreign), foreign)
        assert owner.sent == []
        assert not manager.detection_in_progress(REMOTE, 1)

    def test_drvc_naming_own_cluster_ignored(self, setup):
        """A replica watches only remote clusters: f + 1 DRVCs naming its
        own cluster start no detection."""
        _sim, _reg, members, owner, _shares, _f, manager = setup
        for peer in members[1:3]:
            manager.handle_drvc(Drvc(OWN, 1, 0, peer), peer)
        assert owner.broadcasts == [] and owner.sent == []
        assert not manager.detection_in_progress(OWN, 1)

    def test_drvc_spoofed_sender_ignored(self, setup):
        _sim, _reg, members, _owner, _shares, _f, manager = setup
        manager.handle_drvc(Drvc(REMOTE, 1, 0, members[1]), members[2])
        manager.handle_drvc(Drvc(REMOTE, 1, 0, members[1]), members[3])
        assert not manager.detection_in_progress(REMOTE, 1)


class TestResponseRole:
    def test_f_plus_1_rvcs_trigger_local_view_change(self, setup):
        _sim, registry, _members, owner, _shares, failures, manager = setup
        remote_members = [replica_id(3, i) for i in range(1, N + 1)]
        for i, sender in enumerate(remote_members[:F + 1]):
            rvc = make_rvc(registry, sender)
            manager.handle_rvc(rvc, sender)
        assert len(failures) == 1
        assert manager.pending_resend == {3: 1}

    def test_externally_received_rvc_forwarded_locally(self, setup):
        _sim, registry, members, owner, _shares, _f, manager = setup
        sender = replica_id(3, 1)
        rvc = make_rvc(registry, sender)
        manager.handle_rvc(rvc, sender)
        forwarded = [m for _, m in owner.broadcasts if isinstance(m, Rvc)]
        assert forwarded == [rvc]

    def test_relayed_rvc_not_reforwarded(self, setup):
        _sim, registry, members, owner, _shares, _f, manager = setup
        origin = replica_id(3, 2)
        rvc = make_rvc(registry, origin)
        manager.handle_rvc(rvc, members[1])  # relayed by a local peer
        assert all(not isinstance(m, Rvc) for _, m in owner.broadcasts)

    def test_replay_protection_one_view_change_per_v(self, setup):
        """Figure 7, line 16, condition 4."""
        _sim, registry, _members, _owner, _shares, failures, manager = setup
        remote_members = [replica_id(3, i) for i in range(1, N + 1)]
        for sender in remote_members:
            manager.handle_rvc(make_rvc(registry, sender), sender)
        assert len(failures) == 1  # not one per extra vote
        # Replaying the same v never triggers again.
        for sender in remote_members:
            manager.handle_rvc(make_rvc(registry, sender), sender)
        assert len(failures) == 1
        # A new v (after the recent-view-change window) triggers anew.
        manager._last_local_view_change = float("-inf")
        for sender in remote_members:
            manager.handle_rvc(make_rvc(registry, sender, v=1), sender)
        assert len(failures) == 2

    def test_recent_local_view_change_suppresses_trigger(self, setup):
        """Figure 7, line 16, condition 3."""
        _sim, registry, _members, _owner, _shares, failures, manager = setup
        manager.note_local_view_change()
        remote_members = [replica_id(3, i) for i in range(1, N + 1)]
        for sender in remote_members[:F + 1]:
            manager.handle_rvc(make_rvc(registry, sender), sender)
        assert failures == []
        # But the resend request is still remembered for the new primary.
        assert manager.pending_resend == {3: 1}

    def test_rvc_for_other_cluster_ignored(self, setup):
        _sim, registry, _members, _owner, _shares, failures, manager = setup
        sender = replica_id(3, 1)
        rvc = make_rvc(registry, sender, target_cluster=9)
        manager.handle_rvc(rvc, sender)
        assert failures == []

    def test_rvc_from_own_cluster_origin_ignored(self, setup):
        _sim, registry, members, _owner, _shares, failures, manager = setup
        rvc = make_rvc(registry, members[1])
        manager.handle_rvc(rvc, members[1])
        assert failures == []

    def test_unsigned_or_forged_rvc_ignored(self, setup):
        _sim, registry, _members, _owner, _shares, failures, manager = setup
        sender = replica_id(3, 1)
        unsigned = Rvc(OWN, 1, 0, sender, None)
        manager.handle_rvc(unsigned, sender)
        good = make_rvc(registry, sender)
        forged = Rvc(OWN, 1, 0, replica_id(3, 2), good.signature)
        manager.handle_rvc(forged, replica_id(3, 2))
        assert failures == []

    def test_pending_resend_keeps_earliest_round(self, setup):
        _sim, registry, _members, _owner, _shares, _f, manager = setup
        remote = [replica_id(3, i) for i in range(1, N + 1)]
        manager.handle_rvc(make_rvc(registry, remote[0], round_id=5), remote[0])
        manager.handle_rvc(make_rvc(registry, remote[1], round_id=5), remote[1])
        manager._last_local_view_change = float("-inf")
        manager.handle_rvc(make_rvc(registry, remote[2], round_id=3, v=1),
                           remote[2])
        manager.handle_rvc(make_rvc(registry, remote[3], round_id=3, v=1),
                           remote[3])
        assert manager.pending_resend == {3: 3}
        manager.clear_resend(3)
        assert manager.pending_resend == {}
