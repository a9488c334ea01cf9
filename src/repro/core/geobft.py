"""The GeoBFT replica (paper §2).

A GeoBFT replica composes four sub-systems, matching the paper's round
structure (Figure 1):

1. **Local replication** — an embedded :class:`~repro.consensus.pbft.
   PbftEngine` over the replica's own cluster chooses and certifies one
   client request per round (§2.2).
2. **Inter-cluster sharing** — the cluster's primary sends the resulting
   commit certificate to ``f + 1`` replicas of every other cluster; each
   receiver re-broadcasts it locally (§2.3, Figure 5).
3. **Remote view change** — a :class:`~repro.core.remote_view_change.
   RemoteViewChangeManager` detects silent remote clusters and forces
   primary replacement there (§2.3, Figure 7).
4. **Ordering & execution** — an :class:`~repro.core.ordering.
   OrderingBuffer` releases complete rounds, which are executed in
   cluster order, appended to the ledger as one block per cluster, and
   acknowledged to local clients (§2.4).

Rounds pipeline freely (§2.5): local replication of round ``rho + k``
overlaps sharing of ``rho + 1`` and execution of ``rho``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..consensus.messages import (
    CertShare,
    ClientReply,
    ClientRequestBatch,
    CommitCertificate,
    Drvc,
    GlobalShare,
    Rvc,
    ThresholdCommitCertificate,
    certificate_statement,
)
from ..consensus.pbft import PbftEngine
from ..consensus.replica import BaseReplica
from ..errors import (
    ConfigurationError,
    CryptoError,
    InvalidCertificateError,
)
from ..types import ClusterId, NodeId, Quorums, RoundId, SeqNum
from .config import SHARING_ALL, SHARING_SINGLE, GeoBftConfig
from .ordering import OrderingBuffer
from .remote_view_change import RemoteViewChangeManager

#: Executed rounds whose shares are kept around to answer DRVC queries
#: from lagging peers before being garbage collected.
SHARE_RETENTION_ROUNDS = 64


class GeoBftReplica(BaseReplica):
    """One replica of a GeoBFT deployment."""

    def __init__(self,
                 node_id: NodeId,
                 region: str,
                 sim,
                 network,
                 registry,
                 cluster_members: Dict[ClusterId, List[NodeId]],
                 config: Optional[GeoBftConfig] = None,
                 costs=None,
                 cores: int = 4,
                 record_count: int = 1000,
                 metrics=None,
                 instrumentation=None,
                 threshold_schemes=None):
        super().__init__(node_id, region, sim, network, registry,
                         costs=costs, cores=cores,
                         record_count=record_count, metrics=metrics,
                         instrumentation=instrumentation)
        if node_id.cluster not in cluster_members:
            raise ConfigurationError(
                f"{node_id} not part of any configured cluster"
            )
        self._config = config or GeoBftConfig()
        self._clusters: Dict[ClusterId, List[NodeId]] = {
            cid: list(members) for cid, members in cluster_members.items()
        }
        # Each cluster's thresholds, own and remote alike (§2.5: cluster
        # sizes may differ, so a remote certificate is checked against
        # its own cluster's n - f).
        self._quorums: Dict[ClusterId, Quorums] = {
            cid: Quorums(len(members))
            for cid, members in self._clusters.items()
        }
        self._own_cluster = node_id.cluster
        self._members = self._clusters[self._own_cluster]
        self._engine = PbftEngine(
            owner=self,
            cluster_id=self._own_cluster,
            members=self._members,
            config=self._config.pbft,
            on_decide=self._on_local_decide,
            on_new_view=self._on_new_view_installed,
            can_propose=self._round_gate,
        )
        self._ordering = OrderingBuffer(self._clusters.keys(),
                                        self._execute_round)
        self._rvc = RemoteViewChangeManager(
            owner=self,
            own_cluster=self._own_cluster,
            own_members=self._members,
            quorums=self._quorums,
            remote_timeout=self._config.remote_timeout,
            get_share=self._lookup_share,
            on_local_failure_detected=self._engine.force_view_change,
            recent_view_change_window=self._config.recent_view_change_window,
            on_resend_requested=self._on_resend_requested,
        )
        self._routes.update({
            **self._engine.routes(),
            ClientRequestBatch: (self._request_cost,
                                 self._on_client_request),
            GlobalShare: (self._global_share_cost, self._on_global_share),
            Drvc: (0.0, self._rvc.handle_drvc),
            Rvc: (self.costs.verify, self._rvc.handle_rvc),
            CertShare: (self.costs.threshold_verify, self._on_cert_share),
        })

        # cluster -> round -> the GlobalShare message, retained briefly
        # after execution for DRVC replies (Figure 7 lines 5-7).  One
        # map per cluster, built up front.
        self._shares: Dict[ClusterId, Dict[RoundId, GlobalShare]] = {
            cid: {} for cid in self._clusters}
        # Rounds at or below this mark have been share-GCed; pruning
        # advances it incrementally instead of rescanning every key.
        self._shares_gc_upto: RoundId = 0
        self._max_known_round: RoundId = 0
        # Our own cluster's decided rounds, each as its commit
        # certificate (the request is ``certificate.request``), kept
        # beyond the PBFT engine's checkpoint GC so a post-view-change
        # primary can retransmit everything a lagging cluster proved it
        # misses.
        self._own_decisions: Dict[RoundId, CommitCertificate] = {}

        # Threshold-certificate mode (§2.2, optional): constant-size
        # certificates combined by the primary from member shares.
        self._schemes = threshold_schemes
        self._share_signer = None
        if self._config.threshold_certificates:
            if (self._schemes is None
                    or self._own_cluster not in self._schemes):
                raise ConfigurationError(
                    "threshold_certificates requires a ThresholdScheme "
                    "per cluster (pass threshold_schemes)"
                )
            own_scheme = self._schemes[self._own_cluster]
            self._share_signer = own_scheme.share_signer(node_id)
        # round -> digest -> list of shares (primary side).
        self._cert_shares: Dict[RoundId, Dict[bytes, list]] = {}
        self._combined: Set[RoundId] = set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def engine(self) -> PbftEngine:
        """The local-replication PBFT engine."""
        return self._engine

    @property
    def ordering(self) -> OrderingBuffer:
        """The round ordering/execution buffer."""
        return self._ordering

    @property
    def remote_view_changes(self) -> RemoteViewChangeManager:
        """The remote view-change manager."""
        return self._rvc

    @property
    def config(self) -> GeoBftConfig:
        """Deployment configuration."""
        return self._config

    @property
    def cluster_id(self) -> ClusterId:
        """The cluster this replica belongs to."""
        return self._own_cluster

    @property
    def executed_rounds(self) -> int:
        """Complete GeoBFT rounds executed so far."""
        return self._ordering.executed_rounds()

    # ------------------------------------------------------------------
    # Message routing
    # ------------------------------------------------------------------
    def _global_share_cost(self, share: GlobalShare,
                           sender: NodeId) -> float:
        """Certify-thread work for a certificate from another cluster.

        Global shares already held (duplicates from the local
        re-broadcast) cost nothing — the real implementation checks its
        index before re-verifying a certificate.
        """
        cluster = share.cluster_id
        round_id = share.round_id
        shares = self._shares
        if ((cluster in shares and round_id in shares[cluster])
                or self._ordering.has_share(round_id, cluster)):
            return 0.0
        if isinstance(share.certificate, ThresholdCommitCertificate):
            return self._costs.threshold_verify
        quorums = self._quorums.get(cluster)
        if quorums is None:
            return 0.0
        return self._costs.verify * quorums.intersect

    def _on_client_request(self, request: ClientRequestBatch,
                           sender: NodeId) -> None:
        if request.client.cluster != self._own_cluster:
            return  # clients are assigned to a single (local) cluster (§2)
        self._engine.submit_request(request)
        if not self._engine.is_primary and sender == request.client:
            self.send(self._engine.primary, request)

    def _round_gate(self, seq: SeqNum) -> bool:
        """§2.5 pipelining control: may local replication start round
        ``seq``?  Unbounded in the paper's design; the ablation caps how
        far replication runs ahead of execution."""
        window = self._config.round_pipeline
        if window is None:
            return True
        return seq <= self._ordering.executed_rounds() + window

    # ------------------------------------------------------------------
    # Step 1 -> 2: local decision triggers global sharing
    # ------------------------------------------------------------------
    def _on_local_decide(self, seq: SeqNum, request: ClientRequestBatch,
                         certificate: CommitCertificate) -> None:
        self._note_round_known(seq)
        self._own_decisions[seq] = certificate
        retention = self._config.certificate_retention_rounds
        stale = seq - retention
        if stale in self._own_decisions:
            del self._own_decisions[stale]
        self._ordering.add_share(seq, self._own_cluster, certificate)
        if self._config.threshold_certificates:
            self._contribute_cert_share(seq, request)
        elif self._engine.is_primary:
            self._share_globally(seq, certificate)
        # Start of round `seq`: expect every other cluster's share.
        self._arm_round_timers(seq)
        self._maybe_propose_noops()

    # ------------------------------------------------------------------
    # Threshold-certificate mode (§2.2, optional)
    # ------------------------------------------------------------------
    def _contribute_cert_share(self, round_id: RoundId,
                               request: ClientRequestBatch) -> None:
        digest = request.digest()
        statement = certificate_statement(self._own_cluster, round_id,
                                          digest)
        self.charge_cpu(self.costs.threshold_share)
        share = CertShare(self._own_cluster, round_id, digest,
                          self.node_id, self._share_signer(statement))
        if self._engine.is_primary:
            self._record_cert_share(share)
        else:
            self.send(self._engine.primary, share)

    def _on_cert_share(self, msg: CertShare, sender: NodeId) -> None:
        if not self._config.threshold_certificates:
            return
        if msg.cluster_id != self._own_cluster or msg.replica != sender:
            return
        if not self._engine.is_primary:
            return
        self._record_cert_share(msg)

    def _record_cert_share(self, msg: CertShare) -> None:
        if msg.round_id in self._combined:
            return
        by_digest = self._cert_shares.setdefault(msg.round_id, {})
        shares = by_digest.setdefault(msg.digest, [])
        shares.append(msg.share)
        scheme = self._schemes[self._own_cluster]
        if len(shares) < scheme.k:
            return
        classic_cert = self._own_decisions.get(msg.round_id)
        if (classic_cert is None
                or classic_cert.request.digest() != msg.digest):
            return
        statement = certificate_statement(self._own_cluster, msg.round_id,
                                          msg.digest)
        self.charge_cpu(self.costs.threshold_combine)
        try:
            signature = scheme.combine(shares, statement)
        except CryptoError:
            # A Byzantine replica contributed a bogus share; combining
            # fails loudly in the crypto layer, and the classic
            # (certificate-vector) fallback still disseminates the round.
            return
        self._combined.add(msg.round_id)
        self._cert_shares.pop(msg.round_id, None)
        compact = ThresholdCommitCertificate(
            self._own_cluster, msg.round_id, classic_cert.view,
            classic_cert.request, signature,
        )
        self._share_globally(msg.round_id, compact)

    def _share_targets(self, cluster: ClusterId,
                       round_id: RoundId) -> List[NodeId]:
        members = self._clusters[cluster]
        n = len(members)
        strategy = self._config.sharing_strategy
        if strategy == SHARING_ALL:
            return list(members)
        if strategy == SHARING_SINGLE:
            count = 1
        else:  # the paper's optimistic f + 1
            count = self._quorums[cluster].one_honest
        offset = (round_id - 1) % n if self._config.rotate_share_targets else 0
        return [members[(offset + k) % n] for k in range(count)]

    def _share_globally(self, round_id: RoundId,
                        certificate: CommitCertificate,
                        only_cluster: Optional[ClusterId] = None) -> None:
        instr = self._instrumentation
        if instr is not None:
            instr.phase("shared", self.node_id, self._own_cluster, round_id)
        share = GlobalShare(round_id, self._own_cluster, certificate,
                            forwarded=False)
        for cluster in self._clusters:
            if cluster == self._own_cluster:
                continue
            if only_cluster is not None and cluster != only_cluster:
                continue
            for target in self._share_targets(cluster, round_id):
                self.send(target, share)

    # ------------------------------------------------------------------
    # Step 2: receiving and re-broadcasting global shares
    # ------------------------------------------------------------------
    def _on_global_share(self, share: GlobalShare, sender: NodeId) -> None:
        cluster = share.cluster_id
        if cluster == self._own_cluster or cluster not in self._clusters:
            return
        round_id = share.round_id
        shares = self._shares[cluster]
        if round_id in shares or self._ordering.has_share(round_id, cluster):
            return
        certificate = share.certificate
        if (certificate.cluster_id != cluster
                or certificate.round_id != round_id):
            return
        if isinstance(certificate, ThresholdCommitCertificate):
            scheme = (self._schemes or {}).get(cluster)
            if scheme is None:
                return  # cannot validate compact certificates
            try:
                certificate.verify_threshold(scheme)
            except InvalidCertificateError:
                return
        else:
            try:
                certificate.verify(self.registry, self._quorums[cluster])
            except InvalidCertificateError:
                return
        shares[round_id] = share
        instr = self._instrumentation
        if instr is not None:
            # detail carries the receiving cluster, giving the hub the
            # per-remote-cluster share-latency breakdown.
            instr.phase("share_received", self.node_id, cluster, round_id,
                        detail=self._own_cluster)
        self._note_round_known(round_id)
        self._rvc.on_share_received(cluster, round_id)
        if sender.cluster != self._own_cluster:
            # Local phase of Figure 5: forward to the whole cluster.
            local_copy = GlobalShare(round_id, cluster, certificate,
                                     forwarded=True)
            self.broadcast(self._members, local_copy)
        self._ordering.add_share(round_id, cluster, certificate)
        self._arm_round_timers(round_id)
        self._maybe_propose_noops()

    def _lookup_share(self, cluster: ClusterId,
                      round_id: RoundId) -> Optional[GlobalShare]:
        shares = self._shares
        if cluster in shares and round_id in shares[cluster]:
            return shares[cluster][round_id]
        return None

    def _arm_round_timers(self, round_id: RoundId) -> None:
        if round_id < self._ordering.next_round:
            return
        for cluster in self._ordering.missing_clusters(round_id):
            if cluster != self._own_cluster:
                self._rvc.arm_timer(cluster, round_id)

    def _note_round_known(self, round_id: RoundId) -> None:
        if round_id > self._max_known_round:
            self._max_known_round = round_id

    # ------------------------------------------------------------------
    # No-op rounds (§2.5)
    # ------------------------------------------------------------------
    def _maybe_propose_noops(self) -> None:
        """If other clusters progressed to rounds this cluster has no
        client requests for, the primary fills them with no-ops."""
        if not self._engine.is_primary or self._engine.queued_requests > 0:
            return
        committed_or_assigned = self._engine.next_seq - 1
        fills_needed = self._max_known_round - committed_or_assigned
        for _ in range(fills_needed):
            if self._engine.queued_requests > 0:
                break
            self._engine.submit_noop()

    # ------------------------------------------------------------------
    # Step 3: ordering and execution (§2.4)
    # ------------------------------------------------------------------
    def _execute_round(self, round_id: RoundId, ordered) -> None:
        instr = self._instrumentation
        if instr is not None:
            instr.phase("ordered", self.node_id, self._own_cluster,
                        round_id)
        for cluster, certificate in ordered:
            request = certificate.request
            results, done_at = self.execute_batch(request.batch)
            self.ledger.append(round_id, cluster, request.batch, certificate,
                               batch_digest=request.digest())
            if (cluster == self._own_cluster
                    and request.signature is not None):
                reply = ClientReply(
                    batch_id=request.batch_id,
                    replica=self.node_id,
                    cluster_id=self._own_cluster,
                    round_id=round_id,
                    results_digest=self.executor.results_digest(results),
                    batch_len=len(request.batch),
                )
                self.send_at(done_at, request.client, reply)
        if instr is not None:
            instr.phase("executed", self.node_id, self._own_cluster,
                        round_id)
            # Round boundary: sample the queue depths the paper's
            # pipeline analysis turns on.
            instr.sample("geobft.queued_requests",
                         self._engine.queued_requests)
            instr.sample("geobft.in_flight", self._engine.in_flight)
            instr.sample("sim.pending_events", self.sim.pending_events)
        self._gc_shares(round_id)
        if self._config.round_pipeline is not None:
            # Execution advanced: the round-pipeline gate may now admit
            # further proposals.
            self._engine.pump()

    def _gc_shares(self, executed_round: RoundId) -> None:
        horizon = executed_round - SHARE_RETENTION_ROUNDS
        if horizon <= self._shares_gc_upto:
            return
        # Rounds execute in order and an executed round's shares can
        # never re-enter (``has_share`` reports executed rounds as
        # held), so only the window since the last prune needs visiting
        # — no full-dict scan per round.
        by_cluster = self._shares
        for round_id in range(self._shares_gc_upto + 1, horizon + 1):
            for cluster in by_cluster:
                shares = by_cluster[cluster]
                if round_id in shares:
                    del shares[round_id]
        self._shares_gc_upto = horizon

    # ------------------------------------------------------------------
    # Recovery hooks
    # ------------------------------------------------------------------
    def _on_resend_requested(self, cluster: ClusterId,
                             from_round: RoundId) -> None:
        """A remote cluster proved it misses our shares from
        ``from_round``.  If this replica is the (healthy, current)
        primary, re-share immediately; otherwise the request stays
        pending for whichever primary a view change installs."""
        if not self._engine.is_primary or self._engine.in_view_change:
            return
        for round_id in range(from_round, self._engine.next_seq):
            certificate = self._own_decisions.get(round_id)
            if certificate is not None:
                self._share_globally(round_id, certificate,
                                     only_cluster=cluster)
        self._rvc.clear_resend(cluster)

    def _on_new_view_installed(self, view) -> None:
        self._rvc.note_local_view_change()
        if not self._engine.is_primary:
            return
        # A new primary resumes global sharing for every round a remote
        # cluster proved it was missing (end of §2.3).
        for cluster, from_round in self._rvc.pending_resend.items():
            for round_id in range(from_round, self._engine.next_seq):
                certificate = self._own_decisions.get(round_id)
                if certificate is not None:
                    self._share_globally(round_id, certificate,
                                         only_cluster=cluster)
            self._rvc.clear_resend(cluster)
