"""Steward: hierarchical wide-area BFT (paper §1.1, §3, §4).

Steward groups replicas into clusters like GeoBFT but keeps a
*centralized* design: one **primary cluster** (placed in Oregon, §4)
coordinates all global ordering.  Our implementation follows the shape
the paper describes and measures:

* A client submits to its local cluster.  The cluster runs local
  Byzantine agreement (an embedded PBFT engine) over the request —
  Steward's per-site agreement, costing the ``O(2zn^2)`` local messages
  of Table 2.
* The site's representative (its local primary) forwards the locally
  certified request to ``f + 1`` replicas of the primary cluster, which
  hand it to the primary cluster's leader.
* The primary cluster runs its own PBFT to assign the global sequence
  number, then its leader disseminates the globally ordered request —
  with the primary cluster's commit certificate as proof — to ``f + 1``
  replicas of every other cluster, which re-broadcast locally.
* Every replica executes strictly in global-sequence order and replies
  to clients of its own cluster.

Two properties drive Steward's measured performance, and both are
modelled: every request funnels through one cluster's uplinks
(centralization), and the original protocol's RSA-style threshold
cryptography is expensive — deployments configure Steward replicas with
a scaled-up :class:`~repro.crypto.costs.CryptoCostModel` (the harness
uses ``steward_crypto_factor``).  Like the paper's version, no global
view-change is provided (Steward is excluded from the primary-failure
experiment, §4.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError, InvalidCertificateError
from ..types import ClusterId, NodeId, Quorums, SeqNum
from .messages import (
    ClientReply,
    ClientRequestBatch,
    CommitCertificate,
    StewardForward,
    StewardGlobalOrder,
)
from .pbft import PbftConfig, PbftEngine
from .replica import BaseReplica


class StewardReplica(BaseReplica):
    """One Steward replica (primary-cluster or site replica)."""

    def __init__(self, node_id, region, sim, network, registry,
                 cluster_members: Dict[ClusterId, List[NodeId]],
                 primary_cluster: ClusterId,
                 config: Optional[PbftConfig] = None,
                 costs=None, cores=4, record_count=1000, metrics=None,
                 instrumentation=None):
        super().__init__(node_id, region, sim, network, registry,
                         costs=costs, cores=cores,
                         record_count=record_count, metrics=metrics,
                         instrumentation=instrumentation)
        if primary_cluster not in cluster_members:
            raise ConfigurationError(
                f"primary cluster {primary_cluster} not in deployment"
            )
        self._clusters = {cid: list(m) for cid, m in cluster_members.items()}
        self._quorums = {cid: Quorums(len(m)) for cid, m in
                         self._clusters.items()}
        self._own_cluster = node_id.cluster
        self._members = self._clusters[self._own_cluster]
        self._primary_cluster = primary_cluster
        self._config = config or PbftConfig()

        # Every cluster runs one engine: in the primary cluster it *is*
        # the global ordering engine; in other clusters it performs the
        # local (per-site) agreement before forwarding.
        self._engine = PbftEngine(
            owner=self,
            cluster_id=self._own_cluster,
            members=self._members,
            config=self._config,
            on_decide=self._on_engine_decide,
        )
        self._routes.update({
            **self._engine.routes(),
            ClientRequestBatch: (self._request_cost,
                                 self._on_client_request),
            StewardForward: (self._forward_cost, self._on_forward),
            StewardGlobalOrder: (self._global_order_cost,
                                 self._on_global_order),
        })

        # Site side: locally agreed requests whose global order is
        # pending; global side: bookkeeping for dissemination.
        self._forwarded: Dict[str, SeqNum] = {}
        # Execution stream (global order), for non-primary clusters.
        self._exec_buffer: Dict[SeqNum, Tuple[ClientRequestBatch,
                                              CommitCertificate]] = {}
        self._executed_upto: SeqNum = 0
        self._submitted_to_global: set = set()

    @property
    def engine(self) -> PbftEngine:
        """This replica's (local or global) PBFT engine."""
        return self._engine

    @property
    def is_primary_cluster(self) -> bool:
        """Whether this replica belongs to the coordinating cluster."""
        return self._own_cluster == self._primary_cluster

    @property
    def executed_global_seq(self) -> SeqNum:
        """Highest globally ordered request executed."""
        return self._executed_upto

    def _forward_cost(self, message: StewardForward,
                      sender: NodeId) -> float:
        """Certify-thread work for a site's forward.

        A single threshold-signature verification stands in for a
        site's aggregated (RSA-era) proof; the inflated Steward cost
        model makes these expensive, as in the original protocol.  A
        copy of what this replica already holds costs nothing.
        """
        if message.request.batch_id in self._submitted_to_global:
            return 0.0
        return self._costs.threshold_verify

    def _global_order_cost(self, message: StewardGlobalOrder,
                           sender: NodeId) -> float:
        """As :meth:`_forward_cost`, for the primary cluster's order."""
        if (message.global_seq <= self._executed_upto
                or message.global_seq in self._exec_buffer):
            return 0.0
        return self._costs.threshold_verify

    # ------------------------------------------------------------------
    # Site side
    # ------------------------------------------------------------------
    def _on_client_request(self, request: ClientRequestBatch,
                           sender: NodeId) -> None:
        if request.client.cluster != self._own_cluster:
            # Clients talk to their own site; the only cross-cluster
            # requests the primary cluster sees are relays of verified
            # site forwards from its own members.
            relayed = (self.is_primary_cluster
                       and sender.cluster == self._own_cluster
                       and sender.kind == "replica")
            if not relayed:
                return
        self._engine.submit_request(request)
        if not self._engine.is_primary and sender == request.client:
            self.send(self._engine.primary, request)

    def _on_engine_decide(self, seq: SeqNum, request: ClientRequestBatch,
                          certificate: CommitCertificate) -> None:
        # Steward represents each cluster-level proof by an (expensive,
        # RSA-era) threshold signature: every member contributes a share
        # and the representative combines them (§1.1, §3).
        self.charge_cpu(self.costs.threshold_share)
        if self.is_primary_cluster:
            # The engine decision *is* the global order.
            self._deliver_global(seq, request, certificate)
            if self._engine.is_primary:
                self.charge_cpu(self.costs.threshold_combine)
                self._disseminate(seq, request, certificate)
            return
        # Site agreement complete: the representative forwards to the
        # primary cluster (redundantly, to f + 1 replicas).
        if self._engine.is_primary:
            instr = self._instrumentation
            if instr is not None:
                instr.phase("shared", self.node_id, self._own_cluster, seq)
            self.charge_cpu(self.costs.threshold_combine)
            forward = StewardForward(self._own_cluster, seq, request,
                                     certificate)
            remote = self._clusters[self._primary_cluster]
            offset = (seq - 1) % len(remote)
            for k in range(self._quorums[self._primary_cluster].one_honest):
                self.send(remote[(offset + k) % len(remote)], forward)

    # ------------------------------------------------------------------
    # Primary-cluster side
    # ------------------------------------------------------------------
    def _on_forward(self, msg: StewardForward, sender: NodeId) -> None:
        if not self.is_primary_cluster:
            return
        if msg.request.batch_id in self._submitted_to_global:
            return
        origin = self._quorums.get(msg.origin_cluster)
        if origin is None:
            return
        try:
            msg.certificate.verify(self.registry, origin)
        except InvalidCertificateError:
            return
        self._submitted_to_global.add(msg.request.batch_id)
        if self._engine.is_primary:
            self._engine.submit_request(msg.request)
        else:
            self.send(self._engine.primary, msg.request)

    def _disseminate(self, gseq: SeqNum, request: ClientRequestBatch,
                     certificate: CommitCertificate) -> None:
        order = StewardGlobalOrder(gseq, self._own_cluster, request,
                                   certificate, forwarded=False)
        for cluster, members in self._clusters.items():
            if cluster == self._primary_cluster:
                continue
            offset = (gseq - 1) % len(members)
            for k in range(self._quorums[cluster].one_honest):
                self.send(members[(offset + k) % len(members)], order)

    # ------------------------------------------------------------------
    # Dissemination and execution
    # ------------------------------------------------------------------
    def _on_global_order(self, msg: StewardGlobalOrder,
                         sender: NodeId) -> None:
        if self.is_primary_cluster:
            return  # primary cluster executes via its engine
        if msg.global_seq <= self._executed_upto:
            return
        if msg.global_seq in self._exec_buffer:
            return
        try:
            msg.certificate.verify(self.registry,
                                   self._quorums[self._primary_cluster])
        except InvalidCertificateError:
            return
        instr = self._instrumentation
        if instr is not None:
            instr.phase("share_received", self.node_id,
                        self._primary_cluster, msg.global_seq,
                        detail=self._own_cluster)
        if sender.cluster != self._own_cluster:
            # Local phase: fan the order out within the site.
            local = StewardGlobalOrder(msg.global_seq, msg.origin_cluster,
                                       msg.request, msg.certificate,
                                       forwarded=True)
            self.broadcast(self._members, local)
        self._exec_buffer[msg.global_seq] = (msg.request, msg.certificate)
        self._drain_exec_buffer()

    def _drain_exec_buffer(self) -> None:
        while (self._executed_upto + 1) in self._exec_buffer:
            gseq = self._executed_upto + 1
            request, certificate = self._exec_buffer.pop(gseq)
            self._deliver_global(gseq, request, certificate)

    def _deliver_global(self, gseq: SeqNum, request: ClientRequestBatch,
                        certificate: CommitCertificate) -> None:
        self._executed_upto = max(self._executed_upto, gseq)
        instr = self._instrumentation
        if instr is not None:
            instr.phase("ordered", self.node_id, self._own_cluster, gseq)
        results, done_at = self.execute_batch(request.batch)
        self.ledger.append(gseq, self._primary_cluster, request.batch,
                           certificate, batch_digest=request.digest())
        if instr is not None:
            instr.phase("executed", self.node_id, self._own_cluster, gseq)
        if (request.signature is not None
                and request.client.cluster == self._own_cluster):
            reply = ClientReply(
                batch_id=request.batch_id,
                replica=self.node_id,
                cluster_id=self._own_cluster,
                round_id=gseq,
                results_digest=self.executor.results_digest(results),
                batch_len=len(request.batch),
            )
            self.send_at(done_at, request.client, reply)
