"""HotStuff, as implemented by the paper (§3 "Other protocols").

The paper's ResilientDB implementation of HotStuff makes two explicit
deviations from the published protocol, both of which we reproduce:

* **No threshold signatures** (none were available in Crypto++): quorum
  certificates carry ``N - F`` individual signatures, so QC messages
  grow linearly with the quorum and every replica pays ``N - F``
  signature verifications per phase — the "high computational costs"
  §4.1 blames for HotStuff's throughput ceiling.
* **Parallel primaries without a pacemaker**: every replica acts as the
  leader of its own consensus *instance* concurrently, giving the
  protocol its decentralized bandwidth profile (it is not bottlenecked
  on a single region's uplink, which is why it scales with batch size in
  Figure 13).

Each instance runs the basic 4-phase HotStuff pipeline per height:
``prepare -> pre-commit -> commit -> decide``, with signed votes
returned to the instance leader and the assembled QC broadcast with the
next phase.  The 4 phases over WAN links produce the high client
latencies of Figures 10–11.

Execution: decided batches are executed in decide-arrival order per
replica (the instances are unsynchronized, exactly as in the paper's
implementation).  With the evaluation's write-only YCSB workload this
still yields identical per-request results across replicas; per-instance
sequences are identical everywhere, which the safety tests assert.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import ConfigurationError
from ..types import NodeId, Quorums
from .messages import (
    ClientReply,
    ClientRequestBatch,
    HsProposal,
    HsQuorumCert,
    HsVote,
    adopt_digest,
    note_verified_quorum,
    verified_quorum,
)
from .replica import BaseReplica

PHASES = ("prepare", "precommit", "commit", "decide")
_NEXT_PHASE = {"prepare": "precommit", "precommit": "commit",
               "commit": "decide"}


class _HeightState:
    """Leader- and replica-side state for one (instance, height)."""

    __slots__ = ("request", "digest", "votes", "qcs", "voted", "executed")

    def __init__(self) -> None:
        self.request: Optional[ClientRequestBatch] = None
        self.digest: Optional[bytes] = None
        # phase -> {replica: vote}
        self.votes: Dict[str, Dict[NodeId, HsVote]] = {}
        # phase -> assembled QC
        self.qcs: Dict[str, HsQuorumCert] = {}
        self.voted: Set[str] = set()
        self.executed = False


class HotStuffReplica(BaseReplica):
    """A HotStuff replica that simultaneously leads its own instance."""

    def __init__(self, node_id, region, sim, network, registry,
                 members: List[NodeId], pipeline_depth: int = 4,
                 costs=None, cores=4, record_count=1000, metrics=None,
                 instrumentation=None):
        super().__init__(node_id, region, sim, network, registry,
                         costs=costs, cores=cores,
                         record_count=record_count, metrics=metrics,
                         instrumentation=instrumentation)
        if pipeline_depth < 1:
            raise ConfigurationError("pipeline_depth must be >= 1")
        self._members = list(members)
        self._n = len(members)
        self._q = Quorums(self._n)
        self._pipeline_depth = pipeline_depth
        self._instance = self._members.index(node_id)
        self._routes.update({
            ClientRequestBatch: (self._request_cost,
                                 self._on_client_request),
            HsProposal: (self._proposal_cost, self._on_proposal),
            # Every vote carries exactly one signature.
            HsVote: (self.costs.verify, self._on_vote),
        })

        # Leader-side state for the instance this replica leads.
        self._queue: List[ClientRequestBatch] = []
        self._next_height = 1
        self._decided_height = 0
        self._seen_batch_ids: Set[str] = set()

        # Per (instance, height) protocol state.
        self._states: Dict[Tuple[int, int], _HeightState] = {}
        self._executed_per_instance: Dict[int, int] = {}

    @property
    def instance(self) -> int:
        """The consensus instance this replica leads."""
        return self._instance

    @property
    def decided_height(self) -> int:
        """Heights fully decided in the led instance."""
        return self._decided_height

    def executed_sequence(self, instance: int) -> int:
        """Batches executed from ``instance`` (safety-test hook)."""
        return self._executed_per_instance.get(instance, 0)

    def _proposal_cost(self, message: HsProposal, sender: NodeId) -> float:
        """Certify-thread work for a proposal.

        Without threshold signatures, every non-prepare proposal carries
        an ``N - F``-signature QC that must be verified signature by
        signature — the cost the paper blames for HotStuff's throughput
        ceiling (§4.1).
        """
        if message.phase == "prepare":
            return self._costs.verify  # embedded client signature
        if message.justify is not None:
            return self._costs.verify * len(message.justify.signatures)
        return 0.0

    # ------------------------------------------------------------------
    # Leader side
    # ------------------------------------------------------------------
    def _on_client_request(self, request: ClientRequestBatch,
                           sender: NodeId) -> None:
        if request.batch_id in self._seen_batch_ids:
            return
        if (request.signature is None
                or not self.registry.verify(request,
                                            request.signature)):
            return
        self._seen_batch_ids.add(request.batch_id)
        self._queue.append(request)
        self._pump()

    def _pump(self) -> None:
        in_flight = (self._next_height - 1) - self._decided_height
        while self._queue and in_flight < self._pipeline_depth:
            request = self._queue.pop(0)
            height = self._next_height
            self._next_height += 1
            in_flight += 1
            instr = self._instrumentation
            if instr is not None:
                instr.phase("proposed", self.node_id, self._instance,
                            height)
            self.charge_cpu(self.costs.hash_small)
            digest = request.digest()
            state = self._state(self._instance, height)
            state.request = request
            state.digest = digest
            proposal = HsProposal("prepare", self._instance, height, digest,
                                  request, None)
            self.broadcast(self._members, proposal)
            self._receive_proposal_locally(proposal)

    def _state(self, instance: int, height: int) -> _HeightState:
        key = (instance, height)
        state = self._states.get(key)
        if state is None:
            state = _HeightState()
            self._states[key] = state
        return state

    def _on_vote(self, vote: HsVote, sender: NodeId) -> None:
        if vote.instance != self._instance or sender != vote.replica:
            return
        if vote.phase not in PHASES or vote.phase == "decide":
            return
        if vote.signature is None:
            return
        # Late votes for an already-formed QC are discarded either way;
        # peeking at the state first skips their signature checks.  The
        # peek never *creates* state — a bad-signature vote must not
        # leave a height entry behind, exactly as before.
        state = self._states.get((vote.instance, vote.height))
        if state is not None:
            if vote.phase in state.qcs:
                return
            if state.digest is not None and vote.digest != state.digest:
                return
        # HsVote.payload() excludes the signature, so verifying against
        # the signed object is the same statement as the unsigned
        # reconstruction — and it reuses the vote's memoized digest.
        if not self.registry.verify(vote, vote.signature):
            return
        if state is None:
            state = self._state(vote.instance, vote.height)
            if state.digest is not None and vote.digest != state.digest:
                return
        votes = state.votes.get(vote.phase)
        if votes is None:
            votes = state.votes[vote.phase] = {}
        votes[sender] = vote
        if len(votes) < self._q.intersect:
            return
        # Assemble the (linear-size) QC and advance to the next phase.
        qc = HsQuorumCert(
            vote.phase, vote.instance, vote.height, vote.digest,
            tuple(v.signature for _, v in sorted(votes.items())
                  [: self._q.intersect]),
        )
        state.qcs[vote.phase] = qc
        instr = self._instrumentation
        if instr is not None:
            # QC formed: map HotStuff's phase names onto the lifecycle
            # ("precommitted" is event-only, between prepared/committed).
            lifecycle = {"prepare": "prepared", "precommit": "precommitted",
                         "commit": "committed"}[vote.phase]
            instr.phase(lifecycle, self.node_id, vote.instance, vote.height)
        next_phase = _NEXT_PHASE[vote.phase]
        carried = state.request if next_phase == "prepare" else None
        proposal = HsProposal(next_phase, vote.instance, vote.height,
                              vote.digest, carried, qc)
        self.broadcast(self._members, proposal)
        self._receive_proposal_locally(proposal)

    # ------------------------------------------------------------------
    # Replica side
    # ------------------------------------------------------------------
    def _receive_proposal_locally(self, proposal: HsProposal) -> None:
        """Leaders also act on their own proposals (no self network hop)."""
        self._process_proposal(proposal, self.node_id)

    def _on_proposal(self, proposal: HsProposal, sender: NodeId) -> None:
        if proposal.instance < 0 or proposal.instance >= self._n:
            return
        leader = self._members[proposal.instance]
        if sender != leader:
            return
        self._process_proposal(proposal, sender)

    def _process_proposal(self, proposal: HsProposal, sender: NodeId) -> None:
        state = self._state(proposal.instance, proposal.height)
        if proposal.phase == "prepare":
            if proposal.request is None:
                return
            self.charge_cpu(self.costs.hash_small)
            request = proposal.request
            if (request.signature is None
                    or not self.registry.verify(request,
                                                request.signature)):
                return
            if request.digest() != proposal.digest:
                return
            if state.digest is not None and state.digest != proposal.digest:
                return
            state.request = request
            state.digest = proposal.digest
        else:
            qc = proposal.justify
            if qc is None or not self._verify_qc(qc, proposal):
                return
        if proposal.phase == "decide":
            self._on_decide(proposal, state)
            return
        if proposal.phase in state.voted:
            return
        state.voted.add(proposal.phase)
        vote = HsVote(proposal.phase, proposal.instance, proposal.height,
                      proposal.digest, self.node_id, None)
        signed = HsVote(vote.phase, vote.instance, vote.height, vote.digest,
                        vote.replica, self.sign(vote))
        adopt_digest(signed, vote)
        leader = self._members[proposal.instance]
        if leader == self.node_id:
            self._on_vote(signed, self.node_id)
        else:
            self.send(leader, signed)

    def _verify_qc(self, qc: HsQuorumCert, proposal: HsProposal) -> bool:
        """Verify a linear QC: N - F distinct, valid vote signatures.

        This is the per-phase cost threshold signatures would remove.
        """
        if (qc.instance != proposal.instance or qc.height != proposal.height
                or qc.digest != proposal.digest):
            return False
        expected_phase = {
            "precommit": "prepare",
            "commit": "precommit",
            "decide": "commit",
        }.get(proposal.phase)
        if (qc.phase != expected_phase
                or len(qc.signatures) < self._q.intersect):
            return False
        # The leader broadcasts one QC object to every replica, so the
        # distinct-valid-signer count from the first full scan is shared
        # through the monotonic verified-quorum memo and reused by every
        # later receiver.  Failed scans (Byzantine leaders) and scans
        # that fall short of the quorum are not trusted from the memo.
        if verified_quorum(qc) >= self._q.intersect:
            return True
        signers = set()
        for signature in qc.signatures:
            vote_payload = HsVote(qc.phase, qc.instance, qc.height,
                                  qc.digest, signature.signer, None)
            if not self.registry.verify(vote_payload, signature):
                return False
            signers.add(signature.signer)
        note_verified_quorum(qc, len(signers))
        return len(signers) >= self._q.intersect

    def _on_decide(self, proposal: HsProposal, state: _HeightState) -> None:
        if state.executed or state.request is None:
            return
        state.executed = True
        instr = self._instrumentation
        if instr is not None:
            instr.phase("executed", self.node_id, proposal.instance,
                        proposal.height)
        request = state.request
        results, done_at = self.execute_batch(request.batch)
        self.ledger.append(proposal.height, proposal.instance,
                           request.batch, proposal.justify,
                           batch_digest=request.digest())
        count = self._executed_per_instance.get(proposal.instance, 0)
        self._executed_per_instance[proposal.instance] = count + 1
        if request.signature is not None:
            reply = ClientReply(
                batch_id=request.batch_id,
                replica=self.node_id,
                cluster_id=proposal.instance,
                round_id=proposal.height,
                results_digest=self.executor.results_digest(results),
                batch_len=len(request.batch),
            )
            self.send_at(done_at, request.client, reply)
        if proposal.instance == self._instance:
            self._decided_height = max(self._decided_height,
                                       proposal.height)
            self._pump()
