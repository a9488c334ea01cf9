"""Clients: one completion tracker, two arrival drivers.

The paper drives ResilientDB with 160 k closed-loop YCSB clients spread
across all regions (§4).  Every client, whatever drives its arrivals,
keeps the same contract with the replicas, and
:class:`CompletionTracker` writes it once: it signs and submits request
batches, tracks each in-flight batch in one slotted record, and
completes it by the deployment's rule —

* **f + 1 matching replies** (§2.4): once ``f + 1`` replicas return
  ``ClientReply`` messages with the same results digest, at least one
  is non-faulty, so the result is final.  On a timeout the client
  re-broadcasts the request to all fallback targets — the standard PBFT
  client behaviour that lets backups detect a primary ignoring clients
  (and ultimately forces a view change);
* **Zyzzyva's two-phase completion** (§4.3): identical
  ``SpecResponse``\\ s from all ``N`` replicas complete a request at
  once.  On a timeout the client assembles a commit certificate from
  ``2F + 1`` matching responses and completes on ``2F + 1``
  ``LocalCommit`` acknowledgements; with fewer matches it retransmits
  the request to every replica.

The rule follows from what the deployment passes: a ``members`` list
(Zyzzyva's flat replica set) selects the Zyzzyva rule, otherwise the
``f + 1`` rule applies.  Either rule reads its thresholds from
``reply_quorum``, the :class:`~repro.types.Quorums` of the replica group
whose replies count.

Two arrival drivers sit on top and differ only in when a request is
made and when it is given up: :class:`QuorumClient` (here) is the
closed loop — a window of outstanding batches, each with a cancellable
timer — and :class:`~repro.workload.traffic.OpenLoopSource` is the
open loop — seeded ticks, admission, cohort deadline sweeps, jittered
backoff and abandonment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..consensus.messages import (
    ClientReply,
    ClientRequestBatch,
    LocalCommit,
    SpecResponse,
    ZyzzyvaCommitCert,
    adopt_digest,
)
from ..errors import ConfigurationError
from ..net.simulator import Timer
from ..types import NodeId, Quorums


class _PendingBatch:
    """One in-flight request batch."""

    __slots__ = ("request", "submitted_at", "votes", "retries", "timer",
                 "local_commits")

    def __init__(self, request: ClientRequestBatch, submitted_at: float):
        self.request = request
        self.submitted_at = submitted_at
        #: digest key -> {replica: response}: the results digest for
        #: f + 1 replies; results + history for Zyzzyva, whose responses
        #: also make up the commit certificate.
        self.votes: Dict[bytes, Dict[NodeId, object]] = {}
        self.retries = 0
        #: The closed loop's retry timer (None in the open loop).
        self.timer: Optional[Timer] = None
        #: Local-commit senders; None until Zyzzyva's commit phase.
        self.local_commits: Optional[Set[NodeId]] = None


class CompletionTracker:
    """The client contract, shared by both arrival drivers.

    Holds the network-node interface, request build/sign/send, both
    completion rules with their timeout actions, and :meth:`_complete`.
    A driver calls :meth:`_submit` to send a batch and
    :meth:`_timeout_action` when one is overdue, and implements
    :meth:`_release` for what a completion frees.
    """

    __slots__ = ("_node_id", "_region", "_sim", "_network", "_signer",
                 "_workload", "_batch_size", "_primary_targets",
                 "_fallback_targets", "_q", "_members", "_metrics",
                 "_handlers", "_timeout_action", "_pending", "_submitted",
                 "_completed", "_started", "_use_fallback")

    def __init__(self,
                 node_id: NodeId,
                 region: str,
                 sim,
                 network,
                 registry,
                 workload,
                 batch_size: int,
                 primary_targets: List[NodeId],
                 fallback_targets: List[NodeId],
                 reply_quorum: Quorums,
                 members: Optional[List[NodeId]],
                 metrics):
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if not isinstance(reply_quorum, Quorums):
            raise ConfigurationError(
                f"reply_quorum must be a Quorums, got {reply_quorum!r}")
        if members and len(members) != reply_quorum.n:
            raise ConfigurationError(
                f"reply_quorum {reply_quorum!r} does not match the "
                f"{len(members)} Zyzzyva members")
        self._node_id = node_id
        self._region = region
        self._sim = sim
        self._network = network
        self._signer = registry.register(node_id)
        self._workload = workload
        self._batch_size = batch_size
        self._primary_targets = list(primary_targets)
        self._fallback_targets = list(fallback_targets)
        self._q = reply_quorum
        self._members = list(members or [])
        self._metrics = metrics
        # {message class: handler}: the completion rule's inputs.
        if self._members:
            self._handlers = {SpecResponse: self._on_spec_response,
                              LocalCommit: self._on_local_commit}
            self._timeout_action = self._zyzzyva_timeout
        else:
            self._handlers = {ClientReply: self._on_reply}
            self._timeout_action = self._quorum_timeout
        self._pending: Dict[str, _PendingBatch] = {}
        self._submitted = 0
        self._completed = 0
        self._started = False
        # Once a request times out the client stops trusting the known
        # primary and broadcasts subsequent requests to all fallback
        # targets.  It stays in broadcast mode: it has no way to learn
        # which replica leads the new view.
        self._use_fallback = False
        network.register(self)

    # ------------------------------------------------------------------
    # Network node interface
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> NodeId:
        """The client's network address."""
        return self._node_id

    @property
    def region(self) -> str:
        """The region this client lives in (its local cluster's)."""
        return self._region

    def deliver(self, message, sender: NodeId) -> None:
        """Receive a replica response; other messages are ignored."""
        try:
            handler = self._handlers[message.__class__]
        except KeyError:
            return
        handler(message, sender)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def submitted_batches(self) -> int:
        """Batches submitted so far."""
        return self._submitted

    @property
    def completed_batches(self) -> int:
        """Batches acknowledged by the completion rule."""
        return self._completed

    @property
    def pending_batches(self) -> int:
        """Batches currently in flight."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _submit(self, now: float) -> _PendingBatch:
        """Build, sign, track and send the next request batch."""
        batch = self._workload.next_batch(
            self._batch_size, prefix=f"{self._node_id}-")
        batch_id = f"{self._node_id}:{self._submitted}"
        unsigned = ClientRequestBatch(batch_id, self._node_id, batch, None)
        request = ClientRequestBatch(batch_id, self._node_id, batch,
                                     self._signer.sign(unsigned))
        adopt_digest(request, unsigned)
        pending = _PendingBatch(request, now)
        self._pending[batch_id] = pending
        self._submitted += 1
        targets = (self._fallback_targets if self._use_fallback
                   else self._primary_targets)
        for target in targets:
            self._network.send(self._node_id, target, request)
        return pending

    # ------------------------------------------------------------------
    # The f + 1 rule
    # ------------------------------------------------------------------
    def _on_reply(self, reply: ClientReply, sender: NodeId) -> None:
        pending = self._pending.get(reply.batch_id)
        if pending is None or sender != reply.replica:
            return
        voters = pending.votes.setdefault(reply.results_digest, {})
        voters[sender] = reply
        if len(voters) >= self._q.one_honest:
            # f + 1 matching replies: at least one is from a non-faulty
            # replica, so the result is final (§2.4).
            self._complete(reply.batch_id, pending)

    def _quorum_timeout(self, batch_id: str,
                        pending: _PendingBatch) -> None:
        # Standard PBFT fallback: broadcast so non-faulty backups learn
        # of the request and can suspect the primary.
        self._use_fallback = True
        for target in self._fallback_targets:
            self._network.send(self._node_id, target, pending.request)

    # ------------------------------------------------------------------
    # Zyzzyva's rule: all-N fast path, commit-certificate slow path
    # ------------------------------------------------------------------
    def _on_spec_response(self, response: SpecResponse,
                          sender: NodeId) -> None:
        pending = self._pending.get(response.batch_id)
        if pending is None or sender != response.replica:
            return
        key = response.results_digest + response.history_digest
        group = pending.votes.setdefault(key, {})
        group[sender] = response
        if len(group) >= self._q.all:
            self._complete(response.batch_id, pending)

    def _zyzzyva_timeout(self, batch_id: str,
                         pending: _PendingBatch) -> None:
        if pending.local_commits is not None:
            return  # already in the commit phase
        best = max(pending.votes.values(), key=len, default={})
        if len(best) >= self._q.certificate:
            # Commit phase: certificate of 2F + 1 matching responses.
            responses = tuple(list(best.values())[: self._q.certificate])
            sample = responses[0]
            cert = ZyzzyvaCommitCert(batch_id, sample.view, sample.seq,
                                     responses)
            pending.local_commits = set()
            for member in self._members:
                self._network.send(self._node_id, member, cert)
        else:
            # Not enough responses: retransmit to everyone and wait.
            for member in self._members:
                self._network.send(self._node_id, member, pending.request)

    def _on_local_commit(self, message: LocalCommit,
                         sender: NodeId) -> None:
        pending = self._pending.get(message.batch_id)
        if pending is None or pending.local_commits is None:
            return
        pending.local_commits.add(sender)
        if len(pending.local_commits) >= self._q.certificate:
            self._complete(message.batch_id, pending)

    # ------------------------------------------------------------------
    def _complete(self, batch_id: str, pending: _PendingBatch) -> None:
        del self._pending[batch_id]
        self._completed += 1
        if self._metrics is not None:
            now = self._sim.now
            self._metrics.record_completed(
                self._node_id, len(pending.request.batch),
                now - pending.submitted_at, now)
        self._release(pending)

    def _release(self, pending: _PendingBatch) -> None:
        """The driver's follow-up to a completion: free its admission
        share, or cancel the timer and submit the next batch."""
        raise NotImplementedError


class QuorumClient(CompletionTracker):
    """A closed-loop client: ``outstanding`` batches always in flight.

    Each batch carries a cancellable timer.  Under the ``f + 1`` rule it
    fires after ``retry_timeout`` and re-arms at
    ``retry_timeout · 2^retries`` until the batch completes.  Under
    Zyzzyva's rule ``retry_timeout`` is the spec-response timeout: the
    timer re-arms at twice that, and stops once the commit phase has begun.
    """

    __slots__ = ("_outstanding", "_retry_timeout", "_max_batches")

    def __init__(self,
                 node_id: NodeId,
                 region: str,
                 sim,
                 network,
                 registry,
                 workload,
                 batch_size: int,
                 primary_targets: List[NodeId],
                 fallback_targets: List[NodeId],
                 reply_quorum: Quorums,
                 outstanding: int = 4,
                 retry_timeout: float = 6.0,
                 max_batches: Optional[int] = None,
                 members: Optional[List[NodeId]] = None,
                 metrics=None):
        if outstanding < 1:
            raise ConfigurationError("outstanding must be >= 1")
        self._outstanding = outstanding
        self._retry_timeout = retry_timeout
        self._max_batches = max_batches
        super().__init__(node_id, region, sim, network, registry, workload,
                         batch_size, primary_targets, fallback_targets,
                         reply_quorum, members, metrics)

    def start(self) -> None:
        """Begin the closed loop (idempotent)."""
        if self._started:
            return
        self._started = True
        for _ in range(self._outstanding):
            if not self._submit_next():
                break

    def _submit_next(self) -> bool:
        if (self._max_batches is not None
                and self._submitted >= self._max_batches):
            return False
        now = self._sim.now
        pending = self._submit(now)
        pending.timer = self._sim.schedule(
            self._retry_timeout, self._on_timeout, pending.request.batch_id)
        if self._metrics is not None:
            self._metrics.record_submitted(
                self._node_id, len(pending.request.batch), now)
        return True

    def _on_timeout(self, batch_id: str) -> None:
        pending = self._pending.get(batch_id)
        if pending is None or pending.local_commits is not None:
            return
        pending.retries += 1
        self._timeout_action(batch_id, pending)
        if self._members:
            delay = self._retry_timeout * 2
        else:
            delay = self._retry_timeout * (2 ** pending.retries)
        pending.timer = self._sim.schedule(delay, self._on_timeout, batch_id)

    def _release(self, pending: _PendingBatch) -> None:
        if pending.timer is not None:
            pending.timer.cancel()
        self._submit_next()


__all__ = ["CompletionTracker", "QuorumClient"]
