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

from typing import Dict, List, Optional, Set

from ..crypto.digests import chain_digest
from ..errors import ConfigurationError
from ..net.network import Network
from ..net.simulator import Simulation, Timer
from ..types import NodeId, SeqNum, max_faulty
from .messages import (
    ClientRequestBatch,
    LocalCommit,
    OrderedRequest,
    SpecResponse,
    ZyzzyvaCommitCert,
    adopt_encoding,
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
        self._f = max_faulty(self._n)
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
        adopt_encoding(signed, response)
        self.send_at(done_at, request.client, signed)

    # ------------------------------------------------------------------
    # Client-driven second phase
    # ------------------------------------------------------------------
    def _on_commit_cert(self, cert: ZyzzyvaCommitCert,
                        sender: NodeId) -> None:
        need = 2 * self._f + 1
        # The client broadcasts one certificate object to all replicas;
        # the structural + signature scan depends only on the
        # certificate and the PKI, so the first receiver's successful
        # scan (distinct matching signers) serves everyone else.
        if verified_quorum(cert) < need:
            if len(cert.responses) < need:
                return
            digests = {r.results_digest for r in cert.responses}
            signers = {r.replica for r in cert.responses}
            if len(digests) != 1 or len(signers) < need:
                return
            for response in cert.responses:
                if response.signature is None or not self.registry.verify(
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


class ZyzzyvaClient:
    """Zyzzyva's protocol-specific client.

    Completes on all-``N`` matching speculative responses (fast path) or
    — after ``spec_timeout`` — assembles a commit certificate from
    ``2F + 1`` matching responses and completes on ``2F + 1``
    local-commit acknowledgements.
    """

    def __init__(self,
                 node_id: NodeId,
                 region: str,
                 sim: Simulation,
                 network: Network,
                 registry,
                 workload,
                 batch_size: int,
                 members: List[NodeId],
                 outstanding: int = 4,
                 spec_timeout: float = 0.8,
                 max_batches: Optional[int] = None,
                 metrics=None):
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        self._node_id = node_id
        self._region = region
        self._sim = sim
        self._network = network
        self._signer = registry.register(node_id)
        self._workload = workload
        self._batch_size = batch_size
        self._members = list(members)
        self._n = len(members)
        self._f = max_faulty(self._n)
        self._outstanding = outstanding
        self._spec_timeout = spec_timeout
        self._max_batches = max_batches
        self._metrics = metrics

        self._responses: Dict[str, Dict[bytes, Dict[NodeId, SpecResponse]]] = {}
        self._local_commits: Dict[str, Set[NodeId]] = {}
        self._submit_times: Dict[str, float] = {}
        self._requests: Dict[str, ClientRequestBatch] = {}
        self._timers: Dict[str, Timer] = {}
        self._in_commit_phase: Set[str] = set()
        self._submitted = 0
        self._completed = 0
        self._started = False
        network.register(self)

    @property
    def node_id(self) -> NodeId:
        """The client's address."""
        return self._node_id

    @property
    def region(self) -> str:
        """The client's region."""
        return self._region

    @property
    def completed_batches(self) -> int:
        """Batches fully accepted."""
        return self._completed

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
        batch = self._workload.next_batch(
            self._batch_size, prefix=f"{self._node_id}-"
        )
        batch_id = f"{self._node_id}:{self._submitted}"
        unsigned = ClientRequestBatch(batch_id, self._node_id, batch, None)
        request = ClientRequestBatch(
            batch_id, self._node_id, batch,
            self._signer.sign(unsigned),
        )
        self._requests[batch_id] = request
        self._submit_times[batch_id] = self._sim.now
        self._responses[batch_id] = {}
        self._submitted += 1
        primary = self._members[0]
        self._network.send(self._node_id, primary, request)
        self._timers[batch_id] = self._sim.schedule(
            self._spec_timeout, self._on_spec_timeout, batch_id
        )
        if self._metrics is not None:
            self._metrics.record_submitted(self._node_id, len(batch),
                                           self._sim.now)
        return True

    def deliver(self, message, sender: NodeId) -> None:
        """Receive speculative responses and local commits."""
        cls = message.__class__
        if cls is SpecResponse:
            self._on_spec_response(message, sender)
        elif cls is LocalCommit:
            self._on_local_commit(message, sender)

    def _on_spec_response(self, response: SpecResponse,
                          sender: NodeId) -> None:
        by_digest = self._responses.get(response.batch_id)
        if by_digest is None or sender != response.replica:
            return
        key = response.results_digest + response.history_digest
        group = by_digest.get(key)
        if group is None:
            group = by_digest[key] = {}
        group[sender] = response
        if len(group) >= self._n:
            self._complete(response.batch_id)

    def _on_spec_timeout(self, batch_id: str) -> None:
        by_digest = self._responses.get(batch_id)
        if by_digest is None or batch_id in self._in_commit_phase:
            return
        best = max(by_digest.values(), key=len, default={})
        if len(best) >= 2 * self._f + 1:
            # Commit phase: broadcast a certificate of 2F + 1 responses.
            self._in_commit_phase.add(batch_id)
            responses = tuple(list(best.values())[: 2 * self._f + 1])
            sample = responses[0]
            cert = ZyzzyvaCommitCert(batch_id, sample.view, sample.seq,
                                     responses)
            self._local_commits[batch_id] = set()
            for member in self._members:
                self._network.send(self._node_id, member, cert)
        else:
            # Not enough responses: retransmit to everyone and wait.
            request = self._requests[batch_id]
            for member in self._members:
                self._network.send(self._node_id, member, request)
        self._timers[batch_id] = self._sim.schedule(
            self._spec_timeout * 2, self._on_spec_timeout, batch_id
        )

    def _on_local_commit(self, message: LocalCommit, sender: NodeId) -> None:
        acks = self._local_commits.get(message.batch_id)
        if acks is None or message.batch_id not in self._responses:
            return
        acks.add(sender)
        if len(acks) >= 2 * self._f + 1:
            self._complete(message.batch_id)

    def _complete(self, batch_id: str) -> None:
        if batch_id not in self._responses:
            return
        del self._responses[batch_id]
        self._in_commit_phase.discard(batch_id)
        self._local_commits.pop(batch_id, None)
        request = self._requests.pop(batch_id)
        timer = self._timers.pop(batch_id, None)
        if timer is not None:
            timer.cancel()
        submitted_at = self._submit_times.pop(batch_id)
        self._completed += 1
        if self._metrics is not None:
            self._metrics.record_completed(
                self._node_id, len(request.batch),
                self._sim.now - submitted_at, self._sim.now,
            )
        self._submit_next()
