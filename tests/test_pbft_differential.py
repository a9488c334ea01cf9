"""Differential test: the PBFT engine's normal case against a naive log.

``consensus/pbft.py`` keeps incremental vote counters, tests its quorums
inline before calling the functions that act on them, materializes a
slot only for a verified proposal and is reached through a route table.
:class:`ReferenceLog` has none of that: per ``(view, seq)`` it keeps
who prepared and who committed which digest, and recounts from scratch
after every message.  Hypothesis feeds one 4-replica group's
``PrePrepare`` / ``Prepare`` / ``Commit`` traffic — in any order, with
duplicates, conflicting digests, an equivocating primary and forged
commits — to a real :class:`PbftReplica` (through ``deliver``) and to
the reference; the commits the replica sent and the decisions it took
must be the reference's.

Both keep the textbook rule, "committed-local requires prepared"
(Castro–Liskov; DESIGN.md §6): a pre-prepare that arrives after 2f + 1
commits decides nothing until the replica prepares or another commit
comes in.

:class:`TestPrepareVoteBitmask` drives the engine's pre-prepare and
prepare handlers directly and checks its per-digest member bitmasks the
same way, against plain voter sets.
"""

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.messages import (
    ClientRequestBatch,
    Commit,
    PrePrepare,
    Prepare,
)
from repro.consensus.pbft import PbftConfig, PbftReplica
from repro.crypto.costs import CryptoCostModel
from repro.crypto.signatures import KeyRegistry, Signature
from repro.ledger.block import Transaction
from repro.net.network import Network
from repro.net.simulator import Simulation
from repro.net.topology import Topology
from repro.types import client_id, max_faulty, replica_id

MEMBERS = [replica_id(1, i) for i in range(1, 5)]
PRIMARY, ME = MEMBERS[0], MEMBERS[1]   # the replica under test is a backup
CLIENT = client_id(1, 1)
GROUP = PbftReplica.FLAT_GROUP_ID
VIEW = 0
SEQS = (1, 2, 3)


# ---------------------------------------------------------------------------
# The reference: SNIPPETS.md's PBFTState/PBFTEntry shape, votes only.
# ---------------------------------------------------------------------------
@dataclass
class ReferenceEntry:
    digest: Optional[bytes] = None   # fixed by the first valid pre-prepare
    prepares: Dict[bytes, Set] = field(default_factory=dict)
    commits: Dict[bytes, Set] = field(default_factory=dict)
    sent_commit: bool = False
    decided: bool = False


class ReferenceLog:
    def __init__(self, me, members):
        self.me = me
        self.members = list(members)
        self.log: Dict[Tuple[int, int], ReferenceEntry] = {}
        self.sent_commits: Set[Tuple[int, bytes]] = set()
        self.decided: Set[Tuple[int, bytes]] = set()

    @property
    def quorum(self) -> int:
        return len(self.members) - max_faulty(len(self.members))

    @property
    def primary(self):
        return self.members[VIEW % len(self.members)]

    def entry(self, seq) -> ReferenceEntry:
        return self.log.setdefault((VIEW, seq), ReferenceEntry())

    def on_preprepare(self, seq, digest, sender, valid) -> None:
        entry = self.entry(seq)
        if sender != self.primary:
            return
        if entry.decided:
            # A re-proposal of what was decided is answered with this
            # replica's commit (it helps a lagging peer catch up).
            if entry.digest == digest:
                self.sent_commits.add((seq, digest))
            return
        if not valid:
            return
        if entry.digest is None:
            entry.digest = digest
        elif entry.digest != digest:
            return  # equivocation: the first proposal stands
        # Accepting it is this backup's prepare; sending it, the primary's.
        entry.prepares.setdefault(digest, set()).update({self.me, sender})
        self._check_prepared(seq, entry)

    def on_prepare(self, seq, digest, sender) -> None:
        entry = self.entry(seq)
        entry.prepares.setdefault(digest, set()).add(sender)
        self._check_prepared(seq, entry)

    def on_commit(self, seq, digest, sender, valid) -> None:
        if not valid:
            return
        entry = self.entry(seq)
        entry.commits.setdefault(digest, set()).add(sender)
        self._check_committed(seq, entry)

    def _check_prepared(self, seq, entry) -> None:
        if entry.digest is None or entry.sent_commit or entry.decided:
            return
        if len(entry.prepares.get(entry.digest, ())) >= self.quorum:
            entry.sent_commit = True
            self.sent_commits.add((seq, entry.digest))
            entry.commits.setdefault(entry.digest, set()).add(self.me)
            self._check_committed(seq, entry)

    def _check_committed(self, seq, entry) -> None:
        """Tested whenever a commit is recorded, this replica's own
        included — and, as in the engine, only then: a pre-prepare that
        arrives after a quorum of commits decides nothing until the
        replica has prepared or another commit comes in."""
        if (entry.digest is not None and not entry.decided
                and len(entry.commits.get(entry.digest, ())) >= self.quorum):
            entry.decided = True
            self.decided.add((seq, entry.digest))


# ---------------------------------------------------------------------------
# The real replica, its three peers reduced to mailboxes.
# ---------------------------------------------------------------------------
class Mailbox:
    def __init__(self, node_id, network):
        self.node_id = node_id
        self.region = "r1"
        self.received = []
        network.register(self)

    def deliver(self, message, sender):
        self.received.append((message, sender))


class Rig:
    def __init__(self):
        self.sim = Simulation(seed=1)
        self.network = Network(self.sim, Topology.uniform(["r1"]))
        self.registry = KeyRegistry()
        self.replica = PbftReplica(
            ME, "r1", self.sim, self.network, self.registry,
            members=MEMBERS, costs=CryptoCostModel.free(), record_count=10,
            # No checkpoint, no view change: the normal case only.
            config=PbftConfig(checkpoint_interval=1000,
                              view_change_timeout=1e6))
        self.peers = [Mailbox(node, self.network)
                      for node in MEMBERS if node != ME]
        Mailbox(CLIENT, self.network)
        self.signers = {node: self.registry.register(node)
                        for node in MEMBERS + [CLIENT]}
        # Two valid requests per sequence number: the primary's proposal
        # and what an equivocating primary (or a confused backup) names.
        self.requests = {(seq, variant): self._request(seq, variant)
                         for seq in SEQS for variant in (0, 1)}

    def _request(self, seq, variant) -> ClientRequestBatch:
        batch = (Transaction(f"t{seq}-{variant}", "update", seq, "v"),)
        unsigned = ClientRequestBatch(f"b{seq}-{variant}", CLIENT, batch,
                                      None)
        return ClientRequestBatch(unsigned.batch_id, CLIENT, batch,
                                  self.signers[CLIENT].sign(unsigned))

    def feed(self, message, sender) -> None:
        self.replica.deliver(message, sender)
        self.sim.run(until=self.sim.now + 0.01)

    def sent_commits(self) -> Set[Tuple[int, bytes]]:
        return {(m.seq, m.digest) for m, sender in self.peers[0].received
                if isinstance(m, Commit) and sender == ME}

    def decided(self) -> Set[Tuple[int, bytes]]:
        engine = self.replica.engine
        return {(seq, engine.decision(seq).request.digest()) for seq in SEQS
                if engine.decision(seq) is not None}


PEERS = [n for n in MEMBERS if n != ME]
_seqs = st.sampled_from(SEQS)
_variants = st.sampled_from((0, 1))
_peers = st.sampled_from(PEERS)
#: Anything a (possibly Byzantine) peer might send.
noise = st.one_of(
    st.tuples(st.just("preprepare"), _seqs, _variants,
              st.sampled_from((PRIMARY, MEMBERS[2])),
              st.sampled_from(("ok", "wrong-digest"))),
    st.tuples(st.just("prepare"), _seqs, _variants, _peers, st.just("ok")),
    st.tuples(st.just("commit"), _seqs, _variants, _peers,
              st.sampled_from(("ok", "forged", "unsigned", "impersonated"))),
)


def honest_traffic(seq):
    """What the three peers send for one slot when nobody is faulty."""
    return ([("preprepare", seq, 0, PRIMARY, "ok")]
            + [("prepare", seq, 0, peer, "ok") for peer in PEERS[1:]]
            + [("commit", seq, 0, peer, "ok") for peer in PEERS])


@st.composite
def streams(draw):
    """Honest traffic for some slots with messages lost and repeated,
    noise mixed in, delivered in any order."""
    honest = [step for seq in draw(st.sets(_seqs, min_size=1))
              for step in honest_traffic(seq)]
    copies = draw(st.lists(st.integers(0, 2), min_size=len(honest),
                           max_size=len(honest)))
    stream = [step for step, n in zip(honest, copies) for _ in range(n)]
    stream += draw(st.lists(noise, max_size=8))
    return draw(st.permutations(stream))


def run_stream(stream):
    rig = Rig()
    reference = ReferenceLog(ME, MEMBERS)
    for kind, seq, variant, sender, flavour in stream:
        request = rig.requests[seq, variant]
        digest = request.digest()
        if kind == "preprepare":
            if flavour == "wrong-digest":  # names one request, carries another
                request = rig.requests[seq, 1 - variant]
            rig.feed(PrePrepare(GROUP, VIEW, seq, digest, request), sender)
            reference.on_preprepare(seq, digest, sender, flavour == "ok")
        elif kind == "prepare":
            rig.feed(Prepare(GROUP, VIEW, seq, digest, sender), sender)
            reference.on_prepare(seq, digest, sender)
        else:
            # "impersonated": validly signed by, and naming, a member
            # other than the one it arrives from.
            claimed = sender if flavour != "impersonated" else next(
                n for n in MEMBERS if n not in (ME, sender))
            unsigned = Commit(GROUP, VIEW, seq, digest, claimed, None)
            if flavour == "unsigned":
                signature = None
            elif flavour == "forged":
                signature = Signature(sender, b"\x00" * 32)
            else:
                signature = rig.signers[claimed].sign(unsigned)
            rig.feed(Commit(GROUP, VIEW, seq, digest, claimed, signature), sender)
            reference.on_commit(seq, digest, sender, flavour == "ok")
    return rig, reference


class TestPbftAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(streams())
    def test_sent_commits_and_decisions_agree(self, stream):
        rig, reference = run_stream(stream)
        assert rig.sent_commits() == reference.sent_commits
        assert rig.decided() == reference.decided

    def test_quorum_completing_commit_from_a_peer_decides(self):
        """The one schedule a too-strict quorum test in ``_on_commit``
        gets wrong: this replica commits first, then exactly
        ``quorum - 1`` peers do."""
        stream = [("preprepare", 1, 0, PRIMARY, "ok"),
                  ("prepare", 1, 0, PEERS[1], "ok"),
                  ("commit", 1, 0, PEERS[0], "ok"),
                  ("commit", 1, 0, PEERS[1], "ok")]
        rig, reference = run_stream(stream)
        assert reference.decided == {(1, rig.requests[1, 0].digest())}
        assert rig.decided() == reference.decided
        assert rig.replica.ledger.height == 1


# ---------------------------------------------------------------------------
# Prepare votes: the engine's member bitmasks against plain voter sets.
# ---------------------------------------------------------------------------
class VoteModel:
    """Per slot, the set of members that prepared each digest, with the
    digest fixed by the first valid pre-prepare."""

    def __init__(self, me, quorum):
        self.me = me
        self.quorum = quorum
        self.digest: Dict[int, bytes] = {}
        self.votes: Dict[int, Dict[bytes, Set]] = {seq: {} for seq in SEQS}
        self.committed: Set[Tuple[int, bytes]] = set()

    def on_preprepare(self, seq, digest, sender, valid) -> None:
        if not valid or sender != PRIMARY:
            return
        if seq not in self.digest:
            self.digest[seq] = digest
            # Our own prepare, and the primary's pre-prepare standing in
            # for its prepare.
            self.votes[seq].setdefault(digest, set()).update(
                {self.me, sender})
        self._check(seq)

    def on_prepare(self, seq, digest, sender) -> None:
        self.votes[seq].setdefault(digest, set()).add(sender)
        self._check(seq)

    def prepared_count(self, seq) -> int:
        if seq not in self.digest:
            return 0
        return len(self.votes[seq].get(self.digest[seq], ()))

    def prepared(self):
        return [(seq, self.digest[seq]) for seq in sorted(self.digest)
                if self.prepared_count(seq) >= self.quorum]

    def _check(self, seq) -> None:
        if seq in self.digest and self.prepared_count(seq) >= self.quorum:
            self.committed.add((seq, self.digest[seq]))


#: A pre-prepare (from the primary or not, naming its request or the
#: other variant's) or a prepare from any member, this replica included.
vote_steps = st.lists(st.one_of(
    st.tuples(st.just("preprepare"), _seqs, _variants,
              st.sampled_from((PRIMARY, MEMBERS[2])),
              st.sampled_from(("ok", "wrong-digest"))),
    st.tuples(st.just("prepare"), _seqs, _variants,
              st.sampled_from(MEMBERS), st.just("ok")),
), max_size=30)


class TestPrepareVoteBitmask:
    @settings(max_examples=200, deadline=None)
    @given(vote_steps)
    def test_bitmask_counts_match_voter_sets(self, steps):
        """Duplicates, votes for other digests and votes ahead of the
        pre-prepare: after every step the engine's prepared count, its
        commit decisions and its view-change entries are the set
        model's."""
        rig = Rig()
        engine = rig.replica.engine
        model = VoteModel(ME, len(MEMBERS) - max_faulty(len(MEMBERS)))
        for kind, seq, variant, sender, flavour in steps:
            request = rig.requests[seq, variant]
            digest = request.digest()
            if kind == "preprepare":
                if flavour == "wrong-digest":
                    request = rig.requests[seq, 1 - variant]
                engine._on_preprepare(
                    PrePrepare(GROUP, VIEW, seq, digest, request), sender)
                model.on_preprepare(seq, digest, sender, flavour == "ok")
            else:
                engine._on_prepare(Prepare(GROUP, VIEW, seq, digest, sender),
                                   sender)
                model.on_prepare(seq, digest, sender)
            slots = engine._slots
            assert {seq: slots[seq].prepared_count if seq in slots else 0
                    for seq in SEQS} == {
                        seq: model.prepared_count(seq) for seq in SEQS}
            assert {(seq, slot.digest) for seq, slot in slots.items()
                    if slot.sent_commit} == model.committed
            assert [(entry.seq, entry.digest)
                    for entry in engine._prepared_entries()] == (
                        model.prepared())
