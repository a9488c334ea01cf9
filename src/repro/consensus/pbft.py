"""PBFT: the local replication protocol (paper §2.2).

Two layers live here:

* :class:`PbftEngine` — a reusable three-phase PBFT state machine
  (pre-prepare / prepare / commit) with request batching, pipelined
  sequence slots, checkpoint-based garbage collection, and the local
  view-change protocol.  GeoBFT embeds one engine per cluster for local
  replication; Steward embeds one in its primary cluster; the flat PBFT
  baseline embeds one spanning all replicas.

* :class:`PbftReplica` — the flat PBFT baseline of the evaluation: a
  single engine over all ``zn`` replicas with the primary placed in
  Oregon (paper §4), executing decisions in sequence order and replying
  to clients.

Faithfulness notes: pre-prepare and prepare messages are
MAC-authenticated; commit messages are signed so that ``n - f`` of them
form the forwarded commit certificate (§2.2).  The view-change message
carries the sender's last stable checkpoint and its prepared-slot
entries; checkpoint/view-change *proof* messages are elided (their size
is modelled, their validation is structural) — the recovery behaviour
matches Castro & Liskov's protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..crypto.digests import chain_digest
from ..errors import ConfigurationError
from ..ledger.block import Transaction
from ..net.simulator import Timer
from ..types import ClusterId, NodeId, SeqNum, ViewId, max_faulty
from .messages import (
    Checkpoint,
    adopt_digest,
    ClientReply,
    ClientRequestBatch,
    Commit,
    CommitCertificate,
    DecisionTransfer,
    FetchDecision,
    NewView,
    PreparedEntry,
    PrePrepare,
    Prepare,
    ViewChange,
)
from ..errors import InvalidCertificateError
from .replica import BaseReplica

#: Decision callback: (seq, request, certificate).  Called in strict
#: sequence order.
DecideCallback = Callable[[SeqNum, ClientRequestBatch, CommitCertificate], None]


@dataclass(frozen=True)
class PbftConfig:
    """Tuning knobs of one PBFT instance."""

    #: Maximum assigned-but-undecided sequence slots (the paper's
    #: pipelined consensus, §2.5/§3).
    pipeline_depth: int = 8
    #: Checkpoint every this many decisions (600 txns at batch 100 in
    #: the paper's §4.3 setup => 6 decisions).
    checkpoint_interval: int = 6
    #: Base progress timeout before a backup starts a view change.
    view_change_timeout: float = 2.0
    #: How long to wait for a NEW-VIEW before escalating further.
    new_view_timeout: float = 2.0
    #: Decided (request, certificate) pairs retained behind the stable
    #: checkpoint so laggards can catch up via certified decision
    #: transfer.  A replica that falls further behind than this window
    #: would need full state transfer (out of scope, as for the paper).
    decision_retention: int = 64

    def __post_init__(self) -> None:
        if self.pipeline_depth < 1:
            raise ConfigurationError("pipeline_depth must be >= 1")
        if self.checkpoint_interval < 1:
            raise ConfigurationError("checkpoint_interval must be >= 1")
        if self.decision_retention < 1:
            raise ConfigurationError("decision_retention must be >= 1")


class _Slot:
    """Per-sequence-number consensus state.

    ``prepared_count`` / ``commit_count`` incrementally track the number
    of distinct voters for the slot's accepted digest, so the quorum
    checks on the hot path (:meth:`PbftEngine._maybe_send_commit`,
    :meth:`PbftEngine._maybe_decide`) are a single integer comparison
    instead of a dict lookup plus length scan per vote.  They are
    (re)computed from the vote maps whenever ``digest`` is assigned —
    votes can arrive before the pre-prepare that fixes the digest —
    and bumped on every *new* matching vote after that.
    """

    __slots__ = ("preprepare", "digest", "prepares", "commits",
                 "sent_prepare", "sent_commit", "decided",
                 "prepared_count", "commit_count")

    def __init__(self) -> None:
        self.preprepare: Optional[PrePrepare] = None
        self.digest: Optional[bytes] = None
        # digest -> set of replicas that prepared it
        self.prepares: Dict[bytes, Set[NodeId]] = {}
        # digest -> {replica: Commit}
        self.commits: Dict[bytes, Dict[NodeId, Commit]] = {}
        self.sent_prepare = False
        self.sent_commit = False
        self.decided = False
        self.prepared_count = 0
        self.commit_count = 0

    def set_digest(self, digest: bytes) -> None:
        """Fix the slot's digest and sync the vote counters with any
        votes that arrived before the pre-prepare."""
        self.digest = digest
        voters = self.prepares.get(digest)
        self.prepared_count = len(voters) if voters is not None else 0
        commits = self.commits.get(digest)
        self.commit_count = len(commits) if commits is not None else 0


class PbftEngine:
    """One PBFT group: ``members`` with ``f = (n - 1) // 3``.

    The engine does not own a network socket; it borrows its ``owner``
    replica's transport and CPU.  The owner routes inbound PBFT messages
    to :meth:`handle` and receives strictly ordered decisions through
    ``on_decide``.
    """

    def __init__(self,
                 owner: BaseReplica,
                 cluster_id: ClusterId,
                 members: List[NodeId],
                 config: PbftConfig,
                 on_decide: DecideCallback,
                 on_view_change: Optional[Callable[[ViewId], None]] = None,
                 on_new_view: Optional[Callable[[ViewId], None]] = None,
                 can_propose: Optional[Callable[[SeqNum], bool]] = None):
        if owner.node_id not in members:
            raise ConfigurationError(
                f"{owner.node_id} is not a member of cluster {cluster_id}"
            )
        self._owner = owner
        self._cluster_id = cluster_id
        self._members = list(members)
        # Hot-path membership tests go through a frozenset: node-id
        # hashes are memoized, so a set probe is one identity hit
        # instead of an O(n) list scan with field-wise comparisons.
        self._member_set = frozenset(members)
        self._n = len(members)
        self._f = max_faulty(self._n)
        self._quorum = self._n - self._f
        self._config = config
        self._on_decide = on_decide
        self._on_view_change = on_view_change
        self._on_new_view_cb = on_new_view
        # Optional owner veto on proposing a sequence number yet (used
        # by GeoBFT's round-pipeline ablation).
        self._can_propose = can_propose
        # Observability hub; None (the common case) keeps emission sites
        # to one attribute load + comparison.  getattr: test harnesses
        # drive engines with owners that predate the attribute.
        self._instr = getattr(owner, "instrumentation", None)
        # One signature verification: its cost on the owner's certify
        # thread, and the PKI check itself (bound once; every commit
        # goes through it).
        self._verify_cost = owner.costs.verify
        self._verify = owner.registry.verify

        self._view: ViewId = 0
        self._slots: Dict[SeqNum, _Slot] = {}
        self._decided: Dict[SeqNum, Tuple[ClientRequestBatch,
                                          CommitCertificate]] = {}
        self._delivered_upto: SeqNum = 0  # decisions handed to on_decide
        self._next_seq: SeqNum = 1  # primary's next assignment
        self._queue: List[ClientRequestBatch] = []
        self._seen_batch_ids: Set[str] = set()
        # Batch ids a backup knows about but has not yet seen ordered —
        # the trigger for suspecting the primary (view change) — plus
        # the requests themselves so a new primary can adopt them.
        self._awaiting_order: Set[str] = set()
        self._pending_requests: Dict[str, ClientRequestBatch] = {}

        # Checkpointing
        self._stable_seq: SeqNum = 0
        self._checkpoints: Dict[SeqNum, Dict[bytes, Set[NodeId]]] = {}
        self._decision_chain: bytes = b"genesis"
        # Decisions being fetched from peers (checkpoint catch-up).
        self._fetching: Set[SeqNum] = set()

        # View change
        self._in_view_change = False
        self._vc_target: ViewId = 0
        self._view_changes: Dict[ViewId, Dict[NodeId, ViewChange]] = {}
        self._consecutive_vcs = 0
        self._progress_timer: Optional[Timer] = None
        self._new_view_timer: Optional[Timer] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cluster_id(self) -> ClusterId:
        """Group identifier (the GeoBFT cluster id; 0 for flat groups)."""
        return self._cluster_id

    @property
    def members(self) -> List[NodeId]:
        """Group membership, index order."""
        return list(self._members)

    @property
    def n(self) -> int:
        """Group size."""
        return self._n

    @property
    def f(self) -> int:
        """Faults tolerated."""
        return self._f

    @property
    def quorum(self) -> int:
        """``n - f``."""
        return self._quorum

    @property
    def view(self) -> ViewId:
        """Current view number."""
        return self._view

    @property
    def primary(self) -> NodeId:
        """Primary of the current view."""
        return self._members[self._view % self._n]

    @property
    def is_primary(self) -> bool:
        """Whether the owner leads the current view."""
        return self.primary == self._owner.node_id

    @property
    def in_view_change(self) -> bool:
        """Whether a view change is in progress at this replica."""
        return self._in_view_change

    @property
    def stable_seq(self) -> SeqNum:
        """Highest stable checkpoint sequence."""
        return self._stable_seq

    @property
    def decided_count(self) -> int:
        """Decisions delivered in order so far."""
        return self._delivered_upto

    @property
    def next_seq(self) -> SeqNum:
        """Primary's next unassigned sequence number."""
        return self._next_seq

    @property
    def queued_requests(self) -> int:
        """Requests waiting for a pipeline slot at the primary."""
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        """Assigned-but-undelivered sequence slots."""
        return self._in_flight()

    def decision(self, seq: SeqNum):
        """The (request, certificate) decided at ``seq``, or ``None``."""
        return self._decided.get(seq)

    # ------------------------------------------------------------------
    # Client request intake
    # ------------------------------------------------------------------
    def submit_request(self, request: ClientRequestBatch,
                       verify_signature: bool = True) -> None:
        """Accept a client batch for ordering.

        At the primary the batch is queued and proposed as pipeline
        slots free up; at a backup it arms the progress timer (the
        backup expects the primary to order it, else view change).
        """
        if request.batch_id in self._seen_batch_ids:
            # Known request.  If we have since become the primary and it
            # is still unordered (typical right after a view change,
            # when the client or a backup retransmits), adopt it.
            if (self.is_primary
                    and request.batch_id in self._awaiting_order):
                self._awaiting_order.discard(request.batch_id)
                self._pending_requests.pop(request.batch_id, None)
                self._queue.append(request)
                self._pump_proposals()
            return
        if verify_signature and not self._verify_request(request):
            return
        self._seen_batch_ids.add(request.batch_id)
        if self.is_primary:
            self._queue.append(request)
            self._pump_proposals()
        else:
            # A backup that knows of a pending request expects progress.
            self._awaiting_order.add(request.batch_id)
            self._pending_requests[request.batch_id] = request
            self._arm_progress_timer()

    def submit_noop(self) -> ClientRequestBatch:
        """Primary-side: enqueue a no-op request (paper §2.5).

        Returns the generated request (tests inspect it).
        """
        noop_txn = Transaction.noop(
            f"noop-{self._cluster_id}-{self._owner.sim.now:.6f}-{self._next_seq}"
        )
        request = ClientRequestBatch(
            batch_id=f"noop:{self._cluster_id}:{self._next_seq}:{len(self._queue)}",
            client=self._owner.node_id,
            batch=(noop_txn,),
            signature=None,
        )
        self._seen_batch_ids.add(request.batch_id)
        self._queue.append(request)
        self._pump_proposals()
        return request

    def _verify_request(self, request: ClientRequestBatch) -> bool:
        if request.signature is None:
            # Only single-transaction no-ops may be unsigned.
            return len(request.batch) == 1 and request.batch[0].op == "noop"
        # CPU cost was charged on the certify lane at delivery.
        return self._verify(request, request.signature)

    def pump(self) -> None:
        """Re-check whether queued requests may now be proposed (called
        by owners whose ``can_propose`` gate has opened)."""
        self._pump_proposals()

    def _pump_proposals(self) -> None:
        """Primary: assign queued requests to free pipeline slots."""
        if not self.is_primary or self._in_view_change:
            return
        while self._queue and self._in_flight() < self._config.pipeline_depth:
            if (self._can_propose is not None
                    and not self._can_propose(self._next_seq)):
                return
            request = self._queue.pop(0)
            self._propose(request)

    def _in_flight(self) -> int:
        return (self._next_seq - 1) - self._delivered_upto

    def _propose(self, request: ClientRequestBatch) -> None:
        seq = self._next_seq
        self._next_seq += 1
        instr = self._instr
        if instr is not None:
            instr.phase("proposed", self._owner.node_id, self._cluster_id,
                        seq)
        self._owner.charge_cpu(self._owner.costs.hash_small)
        digest = request.digest()
        preprepare = PrePrepare(self._cluster_id, self._view, seq, digest,
                                request)
        slot = self._slot(seq)
        slot.preprepare = preprepare
        slot.set_digest(digest)
        # The primary's pre-prepare counts as its prepare.
        voters = slot.prepares.get(digest)
        if voters is None:
            voters = slot.prepares[digest] = set()
        if self._owner.node_id not in voters:
            voters.add(self._owner.node_id)
            slot.prepared_count += 1
        self._owner.broadcast(self._members, preprepare)
        self._arm_progress_timer()
        self._maybe_send_commit(seq, slot)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def routes(self) -> dict:
        """The engine's rows of its owner's route table (see
        :class:`~repro.consensus.replica.BaseReplica`).

        Pre-prepare and prepare are MAC-authenticated; what a
        pre-prepare pays for is its embedded client signature.
        """
        verify = self._verify_cost
        return {
            PrePrepare: (self._preprepare_cost, self._on_preprepare),
            Prepare: (0.0, self._on_prepare),
            Commit: (verify, self._on_commit),
            Checkpoint: (verify, self._on_checkpoint),
            ViewChange: (verify, self._on_view_change_msg),
            NewView: (self._new_view_cost, self._on_new_view),
            FetchDecision: (0.0, self._on_fetch_decision),
            DecisionTransfer: (verify * self._quorum,
                               self._on_decision_transfer),
        }

    def _preprepare_cost(self, msg: PrePrepare, sender: NodeId) -> float:
        return self._verify_cost if msg.request.signature is not None else 0.0

    def _new_view_cost(self, msg: NewView, sender: NodeId) -> float:
        return self._verify_cost * max(1, len(msg.preprepares))

    def _slot(self, seq: SeqNum) -> _Slot:
        slot = self._slots.get(seq)
        if slot is None:
            slot = _Slot()
            self._slots[seq] = slot
        return slot

    def _on_preprepare(self, msg: PrePrepare, sender: NodeId) -> None:
        if msg.cluster_id != self._cluster_id or msg.view != self._view:
            return
        if sender != self.primary or self._in_view_change:
            return
        if msg.seq <= self._stable_seq:
            return
        if msg.seq in self._decided:
            # Already decided (typically a re-proposal after a view
            # change).  Help laggards catch up by re-announcing our
            # commitment in the current view instead of re-running the
            # slot.
            decided_request, _cert = self._decided[msg.seq]
            if decided_request.digest() == msg.digest:
                commit = Commit(self._cluster_id, self._view, msg.seq,
                                msg.digest, self._owner.node_id, None)
                signed = Commit(commit.cluster_id, commit.view, commit.seq,
                                commit.digest, commit.replica,
                                self._owner.sign(commit))
                adopt_digest(signed, commit)
                self._owner.broadcast(self._members, signed)
            return
        slot = self._slots.get(msg.seq)
        if slot is not None and slot.preprepare is not None:
            if slot.digest != msg.digest:
                return  # equivocation: keep the first, let view change handle it
        else:
            if not self._verify_request(msg.request):
                return
            self._owner.charge_cpu(self._owner.costs.hash_small)
            if msg.request.digest() != msg.digest:
                return
            # Slot state materializes only for verified proposals; an
            # invalid pre-prepare must leave no trace, not even an empty
            # slot entry.
            slot = self._slot(msg.seq)
            slot.preprepare = msg
            slot.set_digest(msg.digest)
            if msg.seq >= self._next_seq:
                self._next_seq = msg.seq + 1
            self._seen_batch_ids.add(msg.request.batch_id)
            self._awaiting_order.discard(msg.request.batch_id)
            self._pending_requests.pop(msg.request.batch_id, None)
        if not slot.sent_prepare and not slot.decided:
            slot.sent_prepare = True
            prepare = Prepare(self._cluster_id, self._view, msg.seq,
                              msg.digest, self._owner.node_id)
            # slot.digest == msg.digest here (set above, or the
            # equivocation guard returned earlier), so counter bumps
            # apply to the accepted digest.
            voters = slot.prepares.get(msg.digest)
            if voters is None:
                voters = slot.prepares[msg.digest] = set()
            me = self._owner.node_id
            if me not in voters:
                voters.add(me)
                slot.prepared_count += 1
            # Primary's pre-prepare stands in for its prepare.
            if sender not in voters:
                voters.add(sender)
                slot.prepared_count += 1
            self._owner.broadcast(self._members, prepare)
        self._arm_progress_timer()
        self._maybe_send_commit(msg.seq, slot)

    def _on_prepare(self, msg: Prepare, sender: NodeId) -> None:
        if msg.cluster_id != self._cluster_id or msg.view != self._view:
            return
        seq = msg.seq
        if sender not in self._member_set or seq <= self._stable_seq:
            return
        slot = self._slots.get(seq)
        if slot is None:
            slot = self._slots[seq] = _Slot()
        digest = msg.digest
        voters = slot.prepares.get(digest)
        if voters is None:
            voters = slot.prepares[digest] = set()
        if sender not in voters:
            voters.add(sender)
            if digest == slot.digest:
                slot.prepared_count += 1
        # n - 1 prepares reach every replica per slot and one of them
        # completes the quorum: only that one pays the call.
        if slot.prepared_count >= self._quorum and not slot.sent_commit:
            self._maybe_send_commit(seq, slot)

    def _maybe_send_commit(self, seq: SeqNum, slot: _Slot) -> None:
        if slot.sent_commit or slot.decided or slot.digest is None:
            return
        if slot.preprepare is None or slot.prepared_count < self._quorum:
            return
        slot.sent_commit = True
        instr = self._instr
        if instr is not None:
            instr.phase("prepared", self._owner.node_id, self._cluster_id,
                        seq)
        commit = Commit(self._cluster_id, self._view, seq, slot.digest,
                        self._owner.node_id, None)
        signed = Commit(commit.cluster_id, commit.view, commit.seq,
                        commit.digest, commit.replica,
                        self._owner.sign(commit))
        adopt_digest(signed, commit)
        commits = slot.commits.get(slot.digest)
        if commits is None:
            commits = slot.commits[slot.digest] = {}
        if self._owner.node_id not in commits:
            slot.commit_count += 1
        commits[self._owner.node_id] = signed
        self._owner.broadcast(self._members, signed)
        self._maybe_decide(seq, slot)

    def _on_commit(self, msg: Commit, sender: NodeId) -> None:
        if msg.cluster_id != self._cluster_id:
            return
        seq = msg.seq
        if sender not in self._member_set or seq <= self._stable_seq:
            return
        if msg.replica != sender or msg.signature is None:
            return
        if not self._verify(msg, msg.signature):
            return
        slot = self._slots.get(seq)
        if slot is None:
            slot = self._slots[seq] = _Slot()
        digest = msg.digest
        commits = slot.commits.get(digest)
        if commits is None:
            commits = slot.commits[digest] = {}
        if sender not in commits and digest == slot.digest:
            slot.commit_count += 1
        commits[sender] = msg
        if slot.commit_count >= self._quorum and not slot.decided:
            self._maybe_decide(seq, slot)

    def _maybe_decide(self, seq: SeqNum, slot: _Slot) -> None:
        # Runs on recorded commits only: committed-local requires prepared.
        if slot.decided or slot.preprepare is None or slot.digest is None:
            return
        if slot.commit_count < self._quorum:
            return
        commits = slot.commits[slot.digest]
        slot.decided = True
        certificate = CommitCertificate(
            cluster_id=self._cluster_id,
            round_id=seq,
            view=slot.preprepare.view,
            request=slot.preprepare.request,
            commits=tuple(
                commits[r] for r in sorted(commits)[: self._quorum]
            ),
        )
        self._decided[seq] = (slot.preprepare.request, certificate)
        self._deliver_in_order()

    def _deliver_in_order(self) -> None:
        instr = self._instr
        progressed = False
        while (self._delivered_upto + 1) in self._decided:
            self._delivered_upto += 1
            seq = self._delivered_upto
            request, certificate = self._decided[seq]
            self._awaiting_order.discard(request.batch_id)
            self._pending_requests.pop(request.batch_id, None)
            self._decision_chain = chain_digest(
                self._decision_chain, seq,
                certificate.request.digest())
            progressed = True
            if instr is not None:
                instr.phase("committed", self._owner.node_id,
                            self._cluster_id, seq)
            self._on_decide(seq, request, certificate)
            if seq % self._config.checkpoint_interval == 0:
                self._emit_checkpoint(seq)
        if progressed:
            if instr is not None:
                instr.sample("pbft.queued_requests", len(self._queue))
                instr.sample("pbft.in_flight", self._in_flight())
            self._consecutive_vcs = 0
            self._arm_progress_timer(reset=True)
            self._pump_proposals()

    # ------------------------------------------------------------------
    # Checkpoints and garbage collection
    # ------------------------------------------------------------------
    def _emit_checkpoint(self, seq: SeqNum) -> None:
        checkpoint = Checkpoint(
            self._cluster_id, seq, self._decision_chain,
            self._owner.node_id, None,
        )
        signed = Checkpoint(
            checkpoint.cluster_id, checkpoint.seq, checkpoint.state_digest,
            checkpoint.replica, self._owner.sign(checkpoint),
        )
        adopt_digest(signed, checkpoint)
        self._record_checkpoint(signed, self._owner.node_id)
        self._owner.broadcast(self._members, signed)

    def _on_checkpoint(self, msg: Checkpoint, sender: NodeId) -> None:
        if msg.cluster_id != self._cluster_id or sender not in self._member_set:
            return
        if msg.replica != sender or msg.signature is None:
            return
        if not self._verify(msg, msg.signature):
            return
        self._record_checkpoint(msg, sender)

    def _record_checkpoint(self, msg: Checkpoint, sender: NodeId) -> None:
        if msg.seq <= self._stable_seq:
            return
        by_digest = self._checkpoints.setdefault(msg.seq, {})
        voters = by_digest.setdefault(msg.state_digest, set())
        voters.add(sender)
        if len(voters) >= self._quorum:
            self._stabilize(msg.seq)

    def _stabilize(self, seq: SeqNum) -> None:
        self._stable_seq = max(self._stable_seq, seq)
        for old_seq in [s for s in self._slots if s <= self._stable_seq]:
            del self._slots[old_seq]
        for old_seq in [s for s in self._checkpoints
                        if s <= self._stable_seq]:
            del self._checkpoints[old_seq]
        # Decided entries stay available to the owner (GeoBFT may still
        # need certificates for remote retransmission) and to laggards
        # fetching missed decisions, bounded by the retention window.
        horizon = self._stable_seq - max(self._config.checkpoint_interval,
                                         self._config.decision_retention)
        for old_seq in [s for s in self._decided if s <= horizon]:
            del self._decided[old_seq]
        self._catch_up_to_stable()

    def _catch_up_to_stable(self) -> None:
        """Fetch decisions this replica missed but the group proved
        committed (the certified analogue of PBFT state transfer)."""
        if self._delivered_upto >= self._stable_seq:
            return
        for seq in range(self._delivered_upto + 1, self._stable_seq + 1):
            if seq in self._decided or seq in self._fetching:
                continue
            self._fetching.add(seq)
            request = FetchDecision(self._cluster_id, seq,
                                    self._owner.node_id)
            # Ask f + 1 distinct peers: at least one is non-faulty and,
            # having contributed to the stable checkpoint, holds the
            # decision.
            own = self._members.index(self._owner.node_id)
            for k in range(1, self._f + 2):
                peer = self._members[(own + k) % self._n]
                self._owner.send(peer, request)

    def _on_fetch_decision(self, msg: FetchDecision, sender: NodeId) -> None:
        if msg.cluster_id != self._cluster_id or sender not in self._member_set:
            return
        decision = self._decided.get(msg.seq)
        if decision is None:
            return
        request, certificate = decision
        self._owner.send(sender, DecisionTransfer(
            self._cluster_id, msg.seq, request, certificate))

    def _on_decision_transfer(self, msg: DecisionTransfer,
                              sender: NodeId) -> None:
        if msg.cluster_id != self._cluster_id:
            return
        if msg.seq in self._decided or msg.seq <= self._delivered_upto:
            # Clearing the fetch marker is driven purely by *local*
            # state (the slot is already decided here), not by trusting
            # anything this unverified message claims.
            self._fetching.discard(msg.seq)  # repro: allow[verify-before-mutate] guarded by local decided-state only
            return
        certificate = msg.certificate
        if (certificate.cluster_id != self._cluster_id
                or certificate.round_id != msg.seq):
            return
        try:
            certificate.verify(self._owner.registry, self._quorum,
                               members=self._members)
        except InvalidCertificateError:
            return
        self._fetching.discard(msg.seq)
        self._decided[msg.seq] = (certificate.request, certificate)
        self._seen_batch_ids.add(certificate.request.batch_id)
        self._deliver_in_order()

    # ------------------------------------------------------------------
    # View changes (local, §2.2)
    # ------------------------------------------------------------------
    def _arm_progress_timer(self, reset: bool = False) -> None:
        pending = (bool(self._queue) or self._in_flight() > 0
                   or bool(self._awaiting_order))
        if reset and self._progress_timer is not None:
            self._progress_timer.cancel()
            self._progress_timer = None
        if not pending or self._in_view_change:
            return
        if self._progress_timer is not None and not self._progress_timer.fired:
            if not reset:
                return
        timeout = self._config.view_change_timeout * (
            2 ** self._consecutive_vcs
        )
        self._progress_timer = self._owner.set_timer(
            timeout, self._on_progress_timeout
        )

    def _on_progress_timeout(self) -> None:
        if self._in_view_change:
            return
        if (not self._queue and self._in_flight() == 0
                and not self._awaiting_order):
            return
        self.start_view_change(self._view + 1)

    def force_view_change(self) -> None:
        """Externally triggered primary replacement.

        GeoBFT's remote view-change response role calls this when
        ``f + 1`` RVC requests prove a remote cluster saw this cluster's
        primary fail (Figure 7, line 17).
        """
        if not self._in_view_change:
            self.start_view_change(self._view + 1)

    def start_view_change(self, target_view: ViewId) -> None:
        """Broadcast a VIEW-CHANGE vote for ``target_view``."""
        if target_view <= self._view:
            return
        self._in_view_change = True
        self._vc_target = target_view
        self._consecutive_vcs += 1
        instr = self._instr
        if instr is not None:
            instr.phase("view_change", self._owner.node_id,
                        self._cluster_id, target_view)
        if self._progress_timer is not None:
            self._progress_timer.cancel()
            self._progress_timer = None
        prepared = self._prepared_entries()
        msg = ViewChange(self._cluster_id, target_view, self._stable_seq,
                         prepared, self._owner.node_id, None)
        signed = ViewChange(msg.cluster_id, msg.new_view, msg.last_stable_seq,
                            msg.prepared, msg.replica,
                            self._owner.sign(msg))
        self._record_view_change(signed, self._owner.node_id)
        self._owner.broadcast(self._members, signed)
        self._arm_new_view_timer()
        if self._on_view_change is not None:
            self._on_view_change(target_view)

    def _prepared_entries(self) -> Tuple[PreparedEntry, ...]:
        entries = []
        for seq in sorted(self._slots):
            if seq <= self._stable_seq:
                continue
            slot = self._slots[seq]
            if slot.preprepare is None or slot.digest is None:
                continue
            prepared_by = slot.prepares.get(slot.digest, set())
            if len(prepared_by) >= self._quorum or slot.decided:
                entries.append(PreparedEntry(
                    slot.preprepare.view, seq, slot.digest,
                    slot.preprepare.request,
                ))
        return tuple(entries)

    def _arm_new_view_timer(self) -> None:
        if self._new_view_timer is not None:
            self._new_view_timer.cancel()
        timeout = self._config.new_view_timeout * (
            2 ** max(0, self._consecutive_vcs - 1)
        )
        self._new_view_timer = self._owner.set_timer(
            timeout, self._on_new_view_timeout
        )

    def _on_new_view_timeout(self) -> None:
        if self._in_view_change:
            self._in_view_change = False  # allow escalation
            self.start_view_change(self._vc_target + 1)

    def _on_view_change_msg(self, msg: ViewChange, sender: NodeId) -> None:
        if msg.cluster_id != self._cluster_id or sender not in self._member_set:
            return
        if msg.replica != sender or msg.new_view <= self._view:
            return
        if msg.signature is None:
            return
        if not self._verify(msg, msg.signature):
            return
        self._record_view_change(msg, sender)

    def _record_view_change(self, msg: ViewChange, sender: NodeId) -> None:
        votes = self._view_changes.setdefault(msg.new_view, {})
        votes[sender] = msg
        # Join rule: f + 1 replicas voting for a higher view proves at
        # least one non-faulty replica saw primary failure.
        if (len(votes) > self._f
                and not (self._in_view_change
                         and self._vc_target >= msg.new_view)):
            self.start_view_change(msg.new_view)
        # New-primary rule: with n - f votes, the designated primary of
        # the target view installs it.
        new_primary = self._members[msg.new_view % self._n]
        if (len(votes) >= self._quorum
                and new_primary == self._owner.node_id
                and msg.new_view > self._view):
            self._install_new_view(msg.new_view, votes)

    def _install_new_view(self, view: ViewId,
                          votes: Dict[NodeId, ViewChange]) -> None:
        # Choose, per sequence, the prepared entry with the highest view.
        best: Dict[SeqNum, PreparedEntry] = {}
        max_stable = self._stable_seq
        for vc in votes.values():
            max_stable = max(max_stable, vc.last_stable_seq)
            for entry in vc.prepared:
                current = best.get(entry.seq)
                if current is None or entry.view > current.view:
                    best[entry.seq] = entry
        max_seq = max(best) if best else max_stable
        preprepares = []
        for seq in range(max_stable + 1, max_seq + 1):
            entry = best.get(seq)
            if entry is not None:
                request = entry.request
            else:
                noop = Transaction.noop(f"vc-noop-{self._cluster_id}-{seq}")
                request = ClientRequestBatch(
                    f"vc-noop:{self._cluster_id}:{view}:{seq}",
                    self._owner.node_id, (noop,), None,
                )
            self._owner.charge_cpu(self._owner.costs.hash_small)
            preprepares.append(PrePrepare(
                self._cluster_id, view, seq, request.digest(), request,
            ))
        new_view = NewView(self._cluster_id, view, tuple(sorted(votes)),
                           tuple(preprepares), self._owner.node_id)
        self._owner.broadcast(self._members, new_view)
        self._adopt_new_view(new_view)

    def _on_new_view(self, msg: NewView, sender: NodeId) -> None:
        if msg.cluster_id != self._cluster_id or msg.new_view <= self._view:
            return
        if sender != self._members[msg.new_view % self._n]:
            return
        if len(msg.view_change_replicas) < self._quorum:
            return
        self._adopt_new_view(msg)

    def _adopt_new_view(self, msg: NewView) -> None:
        self._view = msg.new_view
        self._in_view_change = False
        instr = self._instr
        if instr is not None:
            instr.phase("new_view", self._owner.node_id, self._cluster_id,
                        msg.new_view)
        if self._new_view_timer is not None:
            self._new_view_timer.cancel()
            self._new_view_timer = None
        for view in [v for v in self._view_changes if v <= self._view]:
            del self._view_changes[view]
        # Reset undecided slots; re-proposals below repopulate them.
        # Client batches assigned to an abandoned slot are recovered
        # into the pending set first — their batch_ids are already in
        # _seen_batch_ids, so dropping them here would make every later
        # client retransmission a dedup no-op and lose the request for
        # good (an equivocating primary could censor forever).
        for seq in [s for s in self._slots if not self._slots[s].decided]:
            slot = self._slots.pop(seq)
            preprepare = slot.preprepare
            if (preprepare is not None
                    and preprepare.request.signature is not None
                    and preprepare.request.batch_id
                    not in self._pending_requests):
                self._awaiting_order.add(preprepare.request.batch_id)
                self._pending_requests[preprepare.request.batch_id] = (
                    preprepare.request)
        # Abandoned sequence numbers are *reused* (standard PBFT): the
        # new view restarts assignment just past the highest stable or
        # decided slot, and the re-proposals below advance it further.
        # Keeping the old high-water mark would leave permanent holes
        # below it that in-order execution can never cross.
        self._next_seq = max(self._stable_seq,
                             max(self._slots, default=0)) + 1
        for preprepare in msg.preprepares:
            # _on_preprepare handles already-decided slots by
            # re-announcing the commit, helping laggards catch up.
            self._on_preprepare(preprepare, msg.replica)
        if self.is_primary:
            # Adopt requests that stalled under the previous primary.
            for batch_id in sorted(self._awaiting_order):
                request = self._pending_requests.pop(batch_id, None)
                if request is not None:
                    self._queue.append(request)
            self._awaiting_order.clear()
            self._pump_proposals()
        else:
            # Re-forward stalled requests so the new primary learns of
            # anything only this backup saw (standard PBFT relay).
            for batch_id in sorted(self._awaiting_order):
                request = self._pending_requests.get(batch_id)
                if request is not None:
                    self._owner.send(self.primary, request)
        self._arm_progress_timer(reset=True)
        if self._on_new_view_cb is not None:
            self._on_new_view_cb(self._view)


class PbftReplica(BaseReplica):
    """The flat PBFT baseline of the evaluation (§4).

    One PBFT group spans all ``zn`` replicas across all regions, with
    the primary conventionally placed in the first region (Oregon — the
    region with the highest bandwidth to all others, per §4).  Each
    decision is executed in sequence order, appended to the ledger, and
    acknowledged to the requesting client.

    The engine's group id is ``FLAT_GROUP_ID`` for every member — the
    flat group spans regions, so the members' own cluster ids are
    irrelevant to message routing.
    """

    FLAT_GROUP_ID = 0

    def __init__(self, node_id, region, sim, network, registry,
                 members, config=None, costs=None, cores=4,
                 record_count=1000, metrics=None, instrumentation=None):
        super().__init__(node_id, region, sim, network, registry,
                         costs=costs, cores=cores,
                         record_count=record_count, metrics=metrics,
                         instrumentation=instrumentation)
        self._engine = PbftEngine(
            owner=self,
            cluster_id=self.FLAT_GROUP_ID,
            members=members,
            config=config or PbftConfig(),
            on_decide=self._on_decide,
        )
        self._routes.update({
            **self._engine.routes(),
            ClientRequestBatch: (self._request_cost,
                                 self._on_client_request),
        })

    @property
    def engine(self) -> PbftEngine:
        """The underlying PBFT state machine."""
        return self._engine

    def _on_client_request(self, request: ClientRequestBatch,
                           sender: NodeId) -> None:
        self._engine.submit_request(request)
        # Backups relay client requests to the primary (standard PBFT:
        # clients fall back to broadcasting, backups forward).
        if not self._engine.is_primary and sender == request.client:
            self.send(self._engine.primary, request)

    def _on_decide(self, seq: SeqNum, request: ClientRequestBatch,
                   certificate: CommitCertificate) -> None:
        results, done_at = self.execute_batch(request.batch)
        self.ledger.append(seq, self._engine.cluster_id, request.batch,
                           certificate, batch_digest=request.digest())
        instr = self._instrumentation
        if instr is not None:
            instr.phase("executed", self.node_id, self._engine.cluster_id,
                        seq)
        if request.signature is None:
            return  # no-op fill, no client to answer
        reply = ClientReply(
            batch_id=request.batch_id,
            replica=self.node_id,
            cluster_id=self._engine.cluster_id,
            round_id=seq,
            results_digest=self.executor.results_digest(results),
            batch_len=len(request.batch),
        )
        self.send_at(done_at, request.client, reply)
