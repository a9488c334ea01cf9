"""Zyzzyva: speculative BFT (paper §1.1, §3 "Other protocols").

Zyzzyva is designed for the fault-free optimum: the primary orders a
client request and forwards it; replicas *speculatively* execute it and
respond straight to the client.  The client completes only on identical
responses from **all** ``N`` replicas.  If it collects at least
``2F + 1`` (but not all ``N``) matching responses before its timeout, it
assembles a commit certificate from them and broadcasts it; replicas
acknowledge with local-commits and the client completes on ``2F + 1``
acknowledgements.

The consequences the paper measures (§4.3): with even one crashed
replica the all-``N`` fast path can never complete, every request eats a
full client timeout plus an extra client-driven round trip, and
throughput plummets toward zero.  This implementation reproduces that
behaviour.  Like the paper's own implementation, Zyzzyva's view change
is not exercised (it is excluded from the primary-failure experiment).
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..crypto.digests import chain_digest
from ..types import NodeId, Quorums, SeqNum
from .messages import (
    ClientRequestBatch,
    LocalCommit,
    OrderedRequest,
    SpecResponse,
    ZyzzyvaCommitCert,
    adopt_digest,
    note_verified_quorum,
    verified_quorum,
)
from .replica import BaseReplica


class ZyzzyvaReplica(BaseReplica):
    """A Zyzzyva replica: speculative in-order execution."""

    def __init__(self, node_id, region, sim, network, registry,
                 members: List[NodeId], costs=None, cores=4,
                 record_count=1000, metrics=None, instrumentation=None):
        super().__init__(node_id, region, sim, network, registry,
                         costs=costs, cores=cores,
                         record_count=record_count, metrics=metrics,
                         instrumentation=instrumentation)
        self._members = list(members)
        self._n = len(members)
        self._q = Quorums(self._n)
        self._view = 0
        self._next_seq: SeqNum = 1     # primary-side assignment
        self._last_exec: SeqNum = 0    # replica-side speculative frontier
        self._history: bytes = b"genesis"
        self._routes.update({
            ClientRequestBatch: (self._request_cost,
                                 self._on_client_request),
            # The embedded client signature.
            OrderedRequest: (self.costs.verify, self._on_ordered_request),
            ZyzzyvaCommitCert: (self._commit_cert_cost,
                                self._on_commit_cert),
        })
        self._pending_orders: Dict[SeqNum, OrderedRequest] = {}
        self._seen_batch_ids: Set[str] = set()
        self._committed: Set[SeqNum] = set()

    @property
    def primary(self) -> NodeId:
        """The (fixed) primary of the current view."""
        return self._members[self._view % self._n]

    @property
    def is_primary(self) -> bool:
        """Whether this replica orders requests."""
        return self.primary == self.node_id

    @property
    def last_executed_seq(self) -> SeqNum:
        """Highest speculatively executed sequence number."""
        return self._last_exec

    def _commit_cert_cost(self, message: ZyzzyvaCommitCert,
                          sender: NodeId) -> float:
        return self._costs.verify * len(message.responses)

    # ------------------------------------------------------------------
    # Primary: ordering
    # ------------------------------------------------------------------
    def _on_client_request(self, request: ClientRequestBatch,
                           sender: NodeId) -> None:
        if not self.is_primary:
            if sender == request.client:
                self.send(self.primary, request)
            return
        if request.batch_id in self._seen_batch_ids:
            return
        if (request.signature is None
                or not self.registry.verify(request,
                                            request.signature)):
            return
        self._seen_batch_ids.add(request.batch_id)
        seq = self._next_seq
        self._next_seq += 1
        instr = self._instrumentation
        if instr is not None:
            instr.phase("proposed", self.node_id, 0, seq)
        self.charge_cpu(self.costs.hash_small)
        history = chain_digest(self._history, seq, request.digest())
        ordered = OrderedRequest(self._view, seq, history, request)
        self.broadcast(self._members, ordered)
        self._accept_order(ordered)

    # ------------------------------------------------------------------
    # Replicas: speculative execution
    # ------------------------------------------------------------------
    def _on_ordered_request(self, msg: OrderedRequest,
                            sender: NodeId) -> None:
        if sender != self.primary or msg.view != self._view:
            return
        request = msg.request
        if (request.signature is None
                or not self.registry.verify(request,
                                            request.signature)):
            return
        self._accept_order(msg)

    def _accept_order(self, msg: OrderedRequest) -> None:
        if msg.seq <= self._last_exec or msg.seq in self._pending_orders:
            return
        self._pending_orders[msg.seq] = msg
        self._drain_executable()

    def _drain_executable(self) -> None:
        while (self._last_exec + 1) in self._pending_orders:
            msg = self._pending_orders.pop(self._last_exec + 1)
            self.charge_cpu(self.costs.hash_small)
            expected = chain_digest(self._history, msg.seq,
                                    msg.request.digest())
            if expected != msg.history_digest:
                return  # divergent history: stall (view change territory)
            self._last_exec = msg.seq
            self._history = expected
            self._speculative_execute(msg)

    def _speculative_execute(self, msg: OrderedRequest) -> None:
        instr = self._instrumentation
        if instr is not None:
            instr.phase("executed", self.node_id, 0, msg.seq)
        request = msg.request
        results, done_at = self.execute_batch(request.batch)
        self.ledger.append(msg.seq, 0, request.batch, msg,
                           batch_digest=request.digest())
        response = SpecResponse(
            view=msg.view,
            seq=msg.seq,
            batch_id=request.batch_id,
            history_digest=msg.history_digest,
            results_digest=self.executor.results_digest(results),
            replica=self.node_id,
            signature=None,
            batch_len=len(request.batch),
        )
        signed = SpecResponse(
            response.view, response.seq, response.batch_id,
            response.history_digest, response.results_digest,
            response.replica, self.sign(response),
            response.batch_len,
        )
        adopt_digest(signed, response)
        self.send_at(done_at, request.client, signed)

    # ------------------------------------------------------------------
    # Client-driven second phase
    # ------------------------------------------------------------------
    def _on_commit_cert(self, cert: ZyzzyvaCommitCert,
                        sender: NodeId) -> None:
        # The client broadcasts one certificate object to all replicas;
        # the structural + signature scan depends only on the
        # certificate and the PKI, so the first receiver's successful
        # scan (distinct matching signers) serves everyone else.
        if verified_quorum(cert) < self._q.certificate:
            if len(cert.responses) < self._q.certificate:
                return
            digests = {r.results_digest for r in cert.responses}
            signers = {r.replica for r in cert.responses}
            if len(digests) != 1 or len(signers) < self._q.certificate:
                return
            for response in cert.responses:
                # Each response must be signed by the replica it names
                # and speak about the certificate's own request.
                if (response.signature is None
                        or response.signature.signer != response.replica
                        or (response.view, response.seq, response.batch_id)
                        != (cert.view, cert.seq, cert.batch_id)):
                    return
                if not self.registry.verify(
                    SpecResponse(
                        response.view, response.seq, response.batch_id,
                        response.history_digest, response.results_digest,
                        response.replica, None, response.batch_len,
                    ),
                    response.signature,
                ):
                    return
            note_verified_quorum(cert, len(signers))
        self._committed.add(cert.seq)
        instr = self._instrumentation
        if instr is not None:
            instr.phase("committed", self.node_id, 0, cert.seq)
        ack = LocalCommit(cert.view, cert.seq, cert.batch_id, self.node_id)
        self.send(sender, ack)

