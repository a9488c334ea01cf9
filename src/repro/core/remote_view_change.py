"""GeoBFT's remote view-change protocol (paper §2.3, Figures 6 and 7).

When cluster C2 expects the round-``rho`` share of cluster C1 but does
not receive it in time, its replicas cannot tell whether C1's primary is
faulty or the network is slow (Example 2.4).  The remote view-change
protocol resolves this in four phases:

1. **Detection** (initiation role): each replica of C2 runs a timer per
   awaited (cluster, round); on expiry it broadcasts ``DRVC`` locally.
   The timers for one watched cluster are the rows of one
   :class:`~repro.net.simulator.Lane`, whose one slot is the round:
   their deadlines never decrease, since the clock does not and the
   cluster's timeout only grows with its remote view changes.
2. **Agreement**: on ``n - f`` matching ``DRVC`` messages the replicas
   of C2 agree C1 failed.  A replica that *did* receive the share
   instead answers a ``DRVC`` by sending the share to the detector
   (Figure 7, lines 5–7); ``f + 1`` matching ``DRVC`` messages force a
   laggard to join the detection (lines 8–11).
3. **Request**: each replica of C2 sends a signed ``RVC`` to the replica
   of C1 with its own index (line 12–13).
4. **Response role** (replicas of C1): a received ``RVC`` is forwarded
   locally; ``f + 1`` identical ``RVC`` messages from distinct replicas
   of the requesting cluster — absent a recent local view change, and
   at most once per ``v`` per cluster (replay protection) — make the
   replica treat its own primary as failed, triggering a *local* view
   change (lines 14–17).

The manager is transport-agnostic: it talks to its owner replica through
a narrow interface so it can be unit-tested with a stub owner.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from ..consensus.messages import Drvc, Rvc
from ..types import ClusterId, NodeId, Quorums, RoundId

#: Returns the buffered share for (cluster, round) or None.
ShareLookup = Callable[[ClusterId, RoundId], Optional[object]]


class RemoteViewChangeManager:
    """Implements both roles of Figure 7 for one GeoBFT replica."""

    def __init__(self,
                 owner,
                 own_cluster: ClusterId,
                 own_members: List[NodeId],
                 quorums: Mapping[ClusterId, Quorums],
                 remote_timeout: float,
                 get_share: ShareLookup,
                 on_local_failure_detected: Callable[[], None],
                 recent_view_change_window: float = 5.0,
                 on_resend_requested: Optional[
                     Callable[[ClusterId, RoundId], None]] = None):
        self._owner = owner
        self._own_cluster = own_cluster
        self._own_members = list(own_members)
        # Thresholds by cluster id: DRVC votes count against our own
        # cluster's, RVCs against the requesting cluster's.
        self._quorums = quorums
        self._q = quorums[own_cluster]
        self._remote_timeout = remote_timeout
        self._get_share = get_share
        self._on_local_failure = on_local_failure_detected
        self._recent_vc_window = recent_view_change_window
        # Invoked whenever a cluster proves (f+1 RVCs) that it misses
        # shares from a round onward.  The owner's *current* primary
        # re-shares immediately; if a view change is triggered instead,
        # the incoming primary re-shares on installation.
        self._on_resend_requested = on_resend_requested

        # --- initiation role (watching remote clusters) ---
        self._vc_counts: Dict[ClusterId, int] = {}
        # One lane per watched cluster, firing that cluster's timeouts
        # with the round as argument.
        sim = owner.sim
        self._lanes = {
            cluster: sim.lane(partial(self._on_timeout, cluster), 1)
            for cluster in quorums if cluster != own_cluster}
        # cluster -> round -> the lane position of the timeout awaiting
        # that round's share; one map per known cluster, built up front.
        self._timers: Dict[ClusterId, Dict[RoundId, int]] = {
            cluster: {} for cluster in quorums}
        self._broadcast_drvc: Set[Tuple[ClusterId, RoundId, int]] = set()
        self._drvc_votes: Dict[Tuple[ClusterId, RoundId, int],
                               Set[NodeId]] = {}
        self._rvc_sent: Set[Tuple[ClusterId, RoundId, int]] = set()

        # --- response role (being watched) ---
        self._rvc_votes: Dict[Tuple[ClusterId, RoundId, int],
                              Set[NodeId]] = {}
        self._honored: Set[Tuple[ClusterId, int]] = set()
        self._pending_resend: Dict[ClusterId, RoundId] = {}
        self._last_local_view_change: float = float("-inf")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_resend(self) -> Dict[ClusterId, RoundId]:
        """Per requesting cluster, the earliest round whose share a new
        local primary must resend (populated by honored RVCs)."""
        return dict(self._pending_resend)

    def vc_count(self, cluster: ClusterId) -> int:
        """Remote view changes requested so far against ``cluster``
        (the paper's ``v1`` counter)."""
        return self._vc_counts.get(cluster, 0)

    def detection_in_progress(self, cluster: ClusterId,
                              round_id: RoundId) -> bool:
        """Whether this replica broadcast a DRVC for (cluster, round)."""
        return any(
            key[0] == cluster and key[1] == round_id
            for key in self._broadcast_drvc
        )

    # ------------------------------------------------------------------
    # Initiation role
    # ------------------------------------------------------------------
    def arm_timer(self, cluster: ClusterId, round_id: RoundId) -> None:
        """Start awaiting ``cluster``'s share for ``round_id``.

        Timeouts back off exponentially with the number of remote view
        changes already requested against that cluster (§2.3).
        """
        timers = self._timers[cluster]
        if round_id in timers:
            return
        if self._get_share(cluster, round_id) is not None:
            return
        timeout = self._remote_timeout * (2 ** self.vc_count(cluster))
        timers[round_id] = self._owner.sim.post_lane(
            self._lanes[cluster], timeout, round_id)

    def on_share_received(self, cluster: ClusterId,
                          round_id: RoundId) -> None:
        """The awaited share arrived: stop suspecting this round."""
        timers = self._timers[cluster]
        if round_id in timers:
            self._lanes[cluster].cancel(timers.pop(round_id))

    def _on_timeout(self, cluster: ClusterId, round_id: RoundId) -> None:
        timers = self._timers[cluster]
        if round_id in timers:
            del timers[round_id]
        if self._get_share(cluster, round_id) is not None:
            return
        self._detect_failure(cluster, round_id, self.vc_count(cluster))

    def _detect_failure(self, cluster: ClusterId, round_id: RoundId,
                        v: int) -> None:
        """Figure 7, lines 2–4: broadcast DRVC and bump ``v1``."""
        key = (cluster, round_id, v)
        if key in self._broadcast_drvc:
            return
        self._broadcast_drvc.add(key)
        self._vc_counts[cluster] = v + 1
        # getattr: the manager is unit-tested with stub owners that
        # predate the instrumentation attribute.
        instr = getattr(self._owner, "instrumentation", None)
        if instr is not None:
            instr.phase("drvc", self._owner.node_id, cluster, round_id,
                        detail=v)
        msg = Drvc(cluster, round_id, v, self._owner.node_id)
        self._record_drvc(msg, self._owner.node_id)
        self._owner.broadcast(self._own_members, msg)
        # Re-arm a (longer) timer so a still-silent cluster escalates.
        self.arm_timer(cluster, round_id)

    def handle_drvc(self, msg: Drvc, sender: NodeId) -> None:
        """Figure 7, lines 5–13 (receipt of a DRVC from a peer)."""
        if sender.cluster != self._own_cluster or msg.replica != sender:
            return
        if msg.target_cluster not in self._lanes:
            return  # DRVCs must name a known remote cluster
        share = self._get_share(msg.target_cluster, msg.round_id)
        if share is not None:
            # Lines 5–7: we have the message C1 sent; help the detector.
            self._owner.send(sender, share)
            return
        self._record_drvc(msg, sender)

    def _record_drvc(self, msg: Drvc, sender: NodeId) -> None:
        key = (msg.target_cluster, msg.round_id, msg.vc_count)
        votes = self._drvc_votes.setdefault(key, set())
        votes.add(sender)
        # Lines 8–11: f + 1 detections force laggards to join at v'.
        if (len(votes) >= self._q.one_honest
                and self.vc_count(msg.target_cluster) <= msg.vc_count):
            self._detect_failure(msg.target_cluster, msg.round_id,
                                 msg.vc_count)
        # Lines 12–13: n - f agreement => send the RVC request.
        if (len(votes) >= self._q.intersect
                and key in self._broadcast_drvc
                and key not in self._rvc_sent):
            self._rvc_sent.add(key)
            self._send_rvc(msg.target_cluster, msg.round_id, msg.vc_count)

    def _send_rvc(self, cluster: ClusterId, round_id: RoundId,
                  v: int) -> None:
        instr = getattr(self._owner, "instrumentation", None)
        if instr is not None:
            instr.phase("rvc_sent", self._owner.node_id, cluster, round_id,
                        detail=v)
        rvc = Rvc(cluster, round_id, v, self._owner.node_id, None)
        signed = Rvc(rvc.target_cluster, rvc.round_id, rvc.vc_count,
                     rvc.replica, self._owner.sign(rvc))
        target = NodeId("replica", cluster, self._owner.node_id.index)
        self._owner.send(target, signed)

    # ------------------------------------------------------------------
    # Response role
    # ------------------------------------------------------------------
    def note_local_view_change(self) -> None:
        """Record that a local view change just happened (condition 3 of
        line 16: suppress redundant remote-triggered view changes)."""
        self._last_local_view_change = self._owner.sim.now

    def handle_rvc(self, msg: Rvc, sender: NodeId) -> None:
        """Figure 7, lines 14–17 (response role in the watched cluster)."""
        if msg.target_cluster != self._own_cluster:
            return
        if (msg.replica.cluster == self._own_cluster
                or msg.replica.cluster not in self._quorums):
            return  # RVCs must originate in another (known) cluster
        if msg.signature is None:
            return
        if not self._owner.registry.verify(msg, msg.signature):
            return
        came_directly = sender == msg.replica
        key = (msg.replica.cluster, msg.round_id, msg.vc_count)
        votes = self._rvc_votes.setdefault(key, set())
        first_time = msg.replica not in votes
        votes.add(msg.replica)
        if came_directly and first_time:
            # Line 14–15: forward externally received RVCs locally.
            self._owner.broadcast(self._own_members, msg)
        # The f+1 threshold uses the *requesting* cluster's fault bound:
        # one of the f+1 signers must be one of its non-faulty replicas.
        if len(votes) < self._quorums[msg.replica.cluster].one_honest:
            return
        # Line 16's conditions:
        requester = (msg.replica.cluster, msg.vc_count)
        if requester in self._honored:
            return  # replay protection: one view change per v per cluster
        now = self._owner.sim.now
        instr = getattr(self._owner, "instrumentation", None)
        if now - self._last_local_view_change < self._recent_vc_window:
            # A recent local view change already replaced the primary;
            # remember what to resend but do not trigger another one.
            self._honored.add(requester)
            if instr is not None:
                instr.phase("rvc_honored", self._owner.node_id,
                            self._own_cluster, msg.round_id,
                            detail=msg.replica.cluster)
            self._note_resend(msg.replica.cluster, msg.round_id)
            return
        self._honored.add(requester)
        if instr is not None:
            instr.phase("rvc_honored", self._owner.node_id,
                        self._own_cluster, msg.round_id,
                        detail=msg.replica.cluster)
        self._note_resend(msg.replica.cluster, msg.round_id)
        self._on_local_failure()

    def _note_resend(self, cluster: ClusterId, round_id: RoundId) -> None:
        current = self._pending_resend.get(cluster)
        if current is None or round_id < current:
            self._pending_resend[cluster] = round_id
        if self._on_resend_requested is not None:
            self._on_resend_requested(cluster, round_id)

    def clear_resend(self, cluster: ClusterId) -> None:
        """A new primary satisfied the cluster's resend request."""
        self._pending_resend.pop(cluster, None)
