"""Protocol message types and their wire-size model.

Sizes follow the paper's measurements (§4): with a batch size of 100,
pre-prepare messages are 5.4 kB, commit certificates 6.4 kB (a
pre-prepare plus seven commit messages), client responses 1.5 kB, and
all other messages 250 B.  The per-component constants below reproduce
those numbers exactly at batch 100 and extrapolate linearly for other
batch sizes, which is how the batching experiment (Figure 13) scales.

Every message implements ``size_bytes()`` (consumed by the network's
bandwidth model) and ``payload()`` (a canonical primitive tuple used for
digests, signatures, and MACs).  Messages that the paper signs — client
requests, commit messages, remote view-change requests, and anything
else that gets forwarded — carry :class:`~repro.crypto.signatures.
Signature` objects; everything else is MAC-authenticated by the
transport layer in :mod:`repro.consensus.replica`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Tuple, TypeVar

from ..crypto.digests import CachedEncodable
from ..crypto.signatures import Signature
from ..errors import InvalidCertificateError
from ..ledger.block import Batch, batch_digest
from ..types import ClusterId, NodeId, Quorums, RoundId, SeqNum, ViewId

if TYPE_CHECKING:  # pragma: no cover
    from ..crypto.signatures import KeyRegistry
    from ..crypto.threshold import (
        SignatureShare,
        ThresholdScheme,
        ThresholdSignature,
    )

#: adopt_digest returns its first argument unchanged (fluent use).
_M = TypeVar("_M", bound=CachedEncodable)

# ---------------------------------------------------------------------------
# Wire-size constants (calibrated to paper §4 at batch size 100).
# ---------------------------------------------------------------------------
TXN_BYTES = 52             # per-transaction share of a request/pre-prepare
REQUEST_HEADER_BYTES = 104  # request envelope + client signature
PREPREPARE_OVERHEAD_BYTES = 96  # view/seq/digest/MAC on top of the request
COMMIT_ENTRY_BYTES = 143   # one signed commit inside a certificate
SMALL_MESSAGE_BYTES = 250  # prepare/commit/checkpoint/votes/...
REPLY_HEADER_BYTES = 100   # client reply envelope
REPLY_TXN_BYTES = 14       # per-transaction share of a client reply
CERT_SHARE_OVERHEAD_BYTES = 50  # global-share framing around a certificate


def request_size_bytes(batch_len: int) -> int:
    """Wire size of a signed client request batch."""
    return REQUEST_HEADER_BYTES + TXN_BYTES * batch_len


def preprepare_size_bytes(batch_len: int) -> int:
    """Wire size of a pre-prepare carrying a ``batch_len`` request.

    5400 bytes at batch 100, matching the paper.
    """
    return request_size_bytes(batch_len) + PREPREPARE_OVERHEAD_BYTES


def reply_size_bytes(batch_len: int) -> int:
    """Wire size of a client reply (1500 bytes at batch 100)."""
    return REPLY_HEADER_BYTES + REPLY_TXN_BYTES * batch_len


# ---------------------------------------------------------------------------
# Client traffic
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ClientRequestBatch(CachedEncodable):
    """A signed batch of transactions, ``<T>_c`` in the paper.

    ``batch_id`` is globally unique (client id + client-local counter).
    """

    __slots__ = ("batch_id", "client", "batch", "signature")

    batch_id: str
    client: NodeId
    batch: Batch
    signature: Optional[Signature]

    def payload(self) -> tuple:
        # Embedding the batch (not its payload() tuples) is
        # byte-identical under canonical encoding and lets the encoder
        # take the batch's one-pass bytes (a minted batch records their
        # digest for ``digest()``).
        return (
            "request",
            self.batch_id,
            str(self.client),
            self.batch,
        )

    def digest(self) -> bytes:
        """Digest of the carried transaction batch (cached: the batch is
        immutable and the digest is recomputed at every protocol hop).
        The cache rides in a slot declared on :class:`CachedEncodable`,
        so it works whether or not the subclass has a ``__dict__``."""
        try:
            return self._digest_cache
        except AttributeError:
            cached = batch_digest(self.batch)
            object.__setattr__(self, "_digest_cache", cached)
            return cached

    def size_bytes(self) -> int:
        return request_size_bytes(len(self.batch))


@dataclass(frozen=True)
class ClientReply(CachedEncodable):
    """Execution confirmation sent to the requesting client (§2.4).

    Clients accept a result once ``f + 1`` replicas sent replies with
    matching ``results_digest``.
    """

    __slots__ = ("batch_id", "replica", "cluster_id", "round_id",
                 "results_digest", "batch_len")

    batch_id: str
    replica: NodeId
    cluster_id: ClusterId
    round_id: RoundId
    results_digest: bytes
    batch_len: int

    def payload(self) -> tuple:
        return (
            "reply",
            self.batch_id,
            str(self.replica),
            self.cluster_id,
            self.round_id,
            self.results_digest,
        )

    def size_bytes(self) -> int:
        return reply_size_bytes(self.batch_len)


# ---------------------------------------------------------------------------
# PBFT (local replication, §2.2)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PrePrepare(CachedEncodable):
    """Primary's proposal of a request for (view, seq)."""

    __slots__ = ("cluster_id", "view", "seq", "digest", "request")

    cluster_id: ClusterId
    view: ViewId
    seq: SeqNum
    digest: bytes
    request: ClientRequestBatch

    def payload(self) -> tuple:
        return (
            "preprepare",
            self.cluster_id,
            self.view,
            self.seq,
            self.digest,
        )

    def size_bytes(self) -> int:
        return preprepare_size_bytes(len(self.request.batch))


@dataclass(frozen=True)
class Prepare(CachedEncodable):
    """Backup's first-phase agreement message (MAC-authenticated)."""

    __slots__ = ("cluster_id", "view", "seq", "digest", "replica")

    cluster_id: ClusterId
    view: ViewId
    seq: SeqNum
    digest: bytes
    replica: NodeId

    def payload(self) -> tuple:
        return (
            "prepare",
            self.cluster_id,
            self.view,
            self.seq,
            self.digest,
            str(self.replica),
        )

    def size_bytes(self) -> int:
        return SMALL_MESSAGE_BYTES


@dataclass(frozen=True)
class Commit(CachedEncodable):
    """Second-phase commit message — *signed*, because ``n - f`` of these
    form the forwarded commit certificate (§2.2)."""

    __slots__ = ("cluster_id", "view", "seq", "digest", "replica",
                 "signature")

    cluster_id: ClusterId
    view: ViewId
    seq: SeqNum
    digest: bytes
    replica: NodeId
    signature: Optional[Signature]

    def payload(self) -> tuple:
        return (
            "commit",
            self.cluster_id,
            self.view,
            self.seq,
            self.digest,
            str(self.replica),
        )

    def size_bytes(self) -> int:
        return SMALL_MESSAGE_BYTES


@dataclass(frozen=True)
class CommitCertificate(CachedEncodable):
    """Proof of local replication: the request plus ``n - f`` signed,
    identical commit messages from distinct replicas — ``[<T>_c, rho]_C``
    in the paper."""

    __slots__ = ("cluster_id", "round_id", "view", "request",
                 "commits", "_verified_quorum")

    cluster_id: ClusterId
    round_id: RoundId
    view: ViewId
    request: ClientRequestBatch
    commits: Tuple[Commit, ...]

    def payload(self) -> tuple:
        # Child messages ride as objects; the bytes are identical to
        # encoding their payloads.
        return (
            "certificate",
            self.cluster_id,
            self.round_id,
            self.view,
            self.request,
            self.commits,
        )

    def size_bytes(self) -> int:
        return (
            preprepare_size_bytes(len(self.request.batch))
            + COMMIT_ENTRY_BYTES * len(self.commits)
        )

    def digest(self) -> bytes:
        """Digest of the certificate (cached; certificates are immutable
        and hashed into every block that carries them)."""
        return self.payload_digest()

    def verify(self, registry: "KeyRegistry", quorums: Quorums,
               members: Optional[Iterable[NodeId]] = None) -> None:
        """Validate structure and signatures.

        ``quorums`` are the *certifying* cluster's thresholds.  Checks:
        at least ``quorums.intersect`` commits, all from distinct replicas
        of the certifying cluster, all for the same (view, seq, digest)
        matching the embedded request, each with a valid signature.
        Raises :class:`InvalidCertificateError` on any violation —
        callers treat that as "discard the message".

        ``members`` overrides the signer-membership check for groups
        whose members' node ids do not carry the group id (the flat
        PBFT baseline spans regions under one synthetic group id).

        Successful verification is memoized on the instance: the
        simulator hands the *same* certificate object to every replica
        that receives it (directly or in a forwarded share), and the
        outcome is a pure function of the certificate's contents and
        the deployment PKI, so one full scan serves all later receivers
        asking for the same or a smaller quorum.  Failures are never
        memoized, and the ``members``-override path (cold) always
        re-scans.
        """
        if members is None:
            if verified_quorum(self) >= quorums.intersect:
                return
        if len(self.commits) < quorums.intersect:
            raise InvalidCertificateError(
                f"certificate has {len(self.commits)} commits, needs "
                f"{quorums.intersect}")
        expected_digest = self.request.digest()
        member_set = set(members) if members is not None else None
        signers = set()
        for commit in self.commits:
            if commit.cluster_id != self.cluster_id:
                raise InvalidCertificateError("commit from foreign cluster")
            if commit.digest != expected_digest:
                raise InvalidCertificateError("commit digest mismatch")
            if member_set is not None:
                if commit.replica not in member_set:
                    raise InvalidCertificateError("signer outside group")
            elif commit.replica.cluster != self.cluster_id:
                raise InvalidCertificateError("signer outside cluster")
            if commit.signature is None:
                raise InvalidCertificateError("unsigned commit in certificate")
            if commit.signature.signer != commit.replica:
                raise InvalidCertificateError("signature/replica mismatch")
            if not registry.verify(commit, commit.signature):
                raise InvalidCertificateError(
                    f"bad commit signature from {commit.replica}"
                )
            signers.add(commit.replica)
        if len(signers) < quorums.intersect:
            raise InvalidCertificateError(
                f"only {len(signers)} distinct signers, needs "
                f"{quorums.intersect}")
        if members is None:
            note_verified_quorum(self, len(signers))


def verified_quorum(cert: object) -> int:
    """Return the memoized distinct-valid-signer count for *cert*.

    The simulator hands the *same* certificate object to every replica
    that receives it, and a signature scan's outcome is a pure function
    of the certificate's contents and the deployment PKI, so hosts
    memoize the distinct-valid-signer count of a completed scan on the
    instance.  ``0`` means nothing has been verified yet.  The memo is
    host-side bookkeeping only: it is never encoded, and simulated
    verification cost is charged from the message's contents, not from
    the memo.
    """
    return int(getattr(cert, "_verified_quorum", 0))


def note_verified_quorum(cert: object, signers: int) -> None:
    """Record *signers* distinct valid signatures on *cert*.

    The memo is monotonic: a scan against a smaller quorum must never
    erase evidence gathered against a larger one, and failed scans are
    recorded nowhere at all — a later receiver with a stricter
    threshold re-scans from the certificate itself.
    """
    if signers > int(getattr(cert, "_verified_quorum", 0)):
        object.__setattr__(cert, "_verified_quorum", signers)


def adopt_digest(signed: _M, template: CachedEncodable) -> _M:
    """Carry a template's memoized payload digest onto its signed copy.

    The sign-then-rebuild pattern (``m = T(..., None)`` then
    ``T(..., sign(m))``) produces two instances whose ``payload()`` is
    identical whenever the type's payload excludes the signature field
    (ClientRequestBatch, Commit, Checkpoint, HsVote, SpecResponse...).
    Signing already digested the template, so the signed copy can reuse
    that digest instead of re-encoding its payload at its first verify.
    Only call this for types whose ``payload()`` ignores ``signature``.
    """
    try:
        digest = template._payload_digest_cache
    except AttributeError:
        return signed
    object.__setattr__(signed, "_payload_digest_cache", digest)
    return signed


@dataclass(frozen=True)
class Checkpoint(CachedEncodable):
    """Periodic signed state attestation used for garbage collection and
    recovery (§2.2, §4.3)."""

    __slots__ = ("cluster_id", "seq", "state_digest", "replica",
                 "signature")

    cluster_id: ClusterId
    seq: SeqNum
    state_digest: bytes
    replica: NodeId
    signature: Optional[Signature]

    def payload(self) -> tuple:
        return (
            "checkpoint",
            self.cluster_id,
            self.seq,
            self.state_digest,
            str(self.replica),
        )

    def size_bytes(self) -> int:
        return SMALL_MESSAGE_BYTES


@dataclass(frozen=True)
class PreparedEntry(CachedEncodable):
    """A slot a replica claims prepared, carried inside view changes."""

    __slots__ = ("view", "seq", "digest", "request")

    view: ViewId
    seq: SeqNum
    digest: bytes
    request: ClientRequestBatch

    def payload(self) -> tuple:
        return ("prepared", self.view, self.seq, self.digest)

    def size_bytes(self) -> int:
        return preprepare_size_bytes(len(self.request.batch))


@dataclass(frozen=True)
class ViewChange(CachedEncodable):
    """Vote to replace the primary with that of ``new_view`` (§2.2)."""

    __slots__ = ("cluster_id", "new_view", "last_stable_seq", "prepared",
                 "replica", "signature")

    cluster_id: ClusterId
    new_view: ViewId
    last_stable_seq: SeqNum
    prepared: Tuple[PreparedEntry, ...]
    replica: NodeId
    signature: Optional[Signature]

    def payload(self) -> tuple:
        return (
            "viewchange",
            self.cluster_id,
            self.new_view,
            self.last_stable_seq,
            self.prepared,
            str(self.replica),
        )

    def size_bytes(self) -> int:
        return SMALL_MESSAGE_BYTES + sum(
            entry.size_bytes() for entry in self.prepared
        )


@dataclass(frozen=True)
class NewView(CachedEncodable):
    """New primary's installation message for ``new_view``."""

    __slots__ = ("cluster_id", "new_view", "view_change_replicas",
                 "preprepares", "replica")

    cluster_id: ClusterId
    new_view: ViewId
    view_change_replicas: Tuple[NodeId, ...]
    preprepares: Tuple[PrePrepare, ...]
    replica: NodeId

    def payload(self) -> tuple:
        return (
            "newview",
            self.cluster_id,
            self.new_view,
            tuple(str(r) for r in self.view_change_replicas),
            self.preprepares,
            str(self.replica),
        )

    def size_bytes(self) -> int:
        return SMALL_MESSAGE_BYTES + sum(
            p.size_bytes() for p in self.preprepares
        )


# ---------------------------------------------------------------------------
# GeoBFT inter-cluster traffic (§2.3)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class GlobalShare(CachedEncodable):
    """The optimistic global-sharing message ``m = (<T>_c, [<T>_c, rho]_C)``
    sent by a primary to ``f + 1`` replicas of each remote cluster, then
    re-broadcast locally (Figure 5)."""

    __slots__ = ("round_id", "cluster_id", "certificate", "forwarded")

    round_id: RoundId
    cluster_id: ClusterId
    certificate: CommitCertificate
    #: True while crossing clusters, False for the local re-broadcast —
    #: only used by metrics to classify traffic.  No default: __slots__
    #: on a frozen dataclass forbids class-body defaults, so callers
    #: state the direction explicitly.
    forwarded: bool

    def payload(self) -> tuple:
        return (
            "globalshare",
            self.round_id,
            self.cluster_id,
            self.certificate,
        )

    def size_bytes(self) -> int:
        return self.certificate.size_bytes() + CERT_SHARE_OVERHEAD_BYTES


@dataclass(frozen=True)
class Drvc(CachedEncodable):
    """"Detect remote view change": local agreement that a remote cluster
    failed to send its round-``rho`` share (Figure 7, initiation role)."""

    __slots__ = ("target_cluster", "round_id", "vc_count", "replica")

    target_cluster: ClusterId
    round_id: RoundId
    vc_count: int
    replica: NodeId

    def payload(self) -> tuple:
        return (
            "drvc",
            self.target_cluster,
            self.round_id,
            self.vc_count,
            str(self.replica),
        )

    def size_bytes(self) -> int:
        return SMALL_MESSAGE_BYTES


@dataclass(frozen=True)
class Rvc(CachedEncodable):
    """Signed remote view-change request sent across clusters; forwarded
    inside the target cluster, hence signed (Figure 7)."""

    __slots__ = ("target_cluster", "round_id", "vc_count", "replica",
                 "signature")

    target_cluster: ClusterId
    round_id: RoundId
    vc_count: int
    replica: NodeId
    signature: Optional[Signature]

    def payload(self) -> tuple:
        return (
            "rvc",
            self.target_cluster,
            self.round_id,
            self.vc_count,
            str(self.replica),
        )

    def size_bytes(self) -> int:
        return SMALL_MESSAGE_BYTES


# ---------------------------------------------------------------------------
# Zyzzyva (§3 "Other protocols")
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OrderedRequest(CachedEncodable):
    """Zyzzyva primary's ordered forward of a client request."""

    __slots__ = ("view", "seq", "history_digest", "request")

    view: ViewId
    seq: SeqNum
    history_digest: bytes
    request: ClientRequestBatch

    def payload(self) -> tuple:
        return ("orderedreq", self.view, self.seq, self.history_digest)

    def size_bytes(self) -> int:
        return preprepare_size_bytes(len(self.request.batch))


@dataclass(frozen=True)
class SpecResponse(CachedEncodable):
    """Replica's signed speculative response, sent straight to the client."""

    __slots__ = ("view", "seq", "batch_id", "history_digest",
                 "results_digest", "replica", "signature", "batch_len")

    view: ViewId
    seq: SeqNum
    batch_id: str
    history_digest: bytes
    results_digest: bytes
    replica: NodeId
    signature: Optional[Signature]
    batch_len: int

    def payload(self) -> tuple:
        return (
            "specresponse",
            self.view,
            self.seq,
            self.batch_id,
            self.history_digest,
            self.results_digest,
            str(self.replica),
        )

    def size_bytes(self) -> int:
        return reply_size_bytes(self.batch_len)


@dataclass(frozen=True)
class ZyzzyvaCommitCert(CachedEncodable):
    """Client-assembled certificate of ``2F + 1`` matching speculative
    responses, broadcast when the fast path fails."""

    __slots__ = ("batch_id", "view", "seq", "responses",
                 "_verified_quorum")

    batch_id: str
    view: ViewId
    seq: SeqNum
    responses: Tuple[SpecResponse, ...]

    def payload(self) -> tuple:
        return (
            "zyzzyvacert",
            self.batch_id,
            self.view,
            self.seq,
            self.responses,
        )

    def size_bytes(self) -> int:
        return SMALL_MESSAGE_BYTES + COMMIT_ENTRY_BYTES * len(self.responses)


@dataclass(frozen=True)
class LocalCommit(CachedEncodable):
    """Replica acknowledgement of a Zyzzyva commit certificate."""

    __slots__ = ("view", "seq", "batch_id", "replica")

    view: ViewId
    seq: SeqNum
    batch_id: str
    replica: NodeId

    def payload(self) -> tuple:
        return (
            "localcommit",
            self.view,
            self.seq,
            self.batch_id,
            str(self.replica),
        )

    def size_bytes(self) -> int:
        return SMALL_MESSAGE_BYTES


# ---------------------------------------------------------------------------
# HotStuff (§3 "Other protocols": no threshold signatures, every replica
# acts as a primary in parallel)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class HsQuorumCert(CachedEncodable):
    """Quorum certificate: ``N - F`` vote signatures.  Without threshold
    signatures its size is linear in the quorum — the cost the paper
    calls out."""

    __slots__ = ("phase", "instance", "height", "digest", "signatures",
                 "_verified_quorum")

    phase: str
    instance: int
    height: int
    digest: bytes
    signatures: Tuple[Signature, ...]

    def payload(self) -> tuple:
        return ("hsqc", self.phase, self.instance, self.height, self.digest)

    def size_bytes(self) -> int:
        return 32 + sum(sig.size_bytes() for sig in self.signatures)


@dataclass(frozen=True)
class HsProposal(CachedEncodable):
    """Leader broadcast for one HotStuff phase of one instance."""

    __slots__ = ("phase", "instance", "height", "digest", "request",
                 "justify")

    phase: str  # "prepare" | "precommit" | "commit" | "decide"
    instance: int
    height: int
    digest: bytes
    request: Optional[ClientRequestBatch]
    justify: Optional[HsQuorumCert]

    def payload(self) -> tuple:
        return (
            "hsproposal",
            self.phase,
            self.instance,
            self.height,
            self.digest,
        )

    def size_bytes(self) -> int:
        size = SMALL_MESSAGE_BYTES
        if self.request is not None:
            size += request_size_bytes(len(self.request.batch))
        if self.justify is not None:
            size += self.justify.size_bytes()
        return size


@dataclass(frozen=True)
class HsVote(CachedEncodable):
    """Signed phase vote returned to the instance leader."""

    __slots__ = ("phase", "instance", "height", "digest", "replica",
                 "signature")

    phase: str
    instance: int
    height: int
    digest: bytes
    replica: NodeId
    signature: Optional[Signature]

    def payload(self) -> tuple:
        return (
            "hsvote",
            self.phase,
            self.instance,
            self.height,
            self.digest,
            str(self.replica),
        )

    def size_bytes(self) -> int:
        return SMALL_MESSAGE_BYTES


# ---------------------------------------------------------------------------
# Steward (§3 "Other protocols": hierarchical, primary cluster)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class StewardForward(CachedEncodable):
    """A site's locally agreed-upon request forwarded to the primary
    cluster for global ordering, with the site's local proof."""

    __slots__ = ("origin_cluster", "local_seq", "request",
                 "certificate")

    origin_cluster: ClusterId
    local_seq: SeqNum
    request: ClientRequestBatch
    certificate: CommitCertificate

    def payload(self) -> tuple:
        return (
            "stewardforward",
            self.origin_cluster,
            self.local_seq,
            self.certificate,
        )

    def size_bytes(self) -> int:
        return self.certificate.size_bytes() + CERT_SHARE_OVERHEAD_BYTES


@dataclass(frozen=True)
class StewardGlobalOrder(CachedEncodable):
    """The primary cluster's globally ordered assignment, disseminated to
    every site (then locally broadcast)."""

    __slots__ = ("global_seq", "origin_cluster", "request", "certificate",
                 "forwarded")

    global_seq: SeqNum
    origin_cluster: ClusterId
    request: ClientRequestBatch
    certificate: CommitCertificate
    #: True once forwarded across sites (see GlobalShare.forwarded).
    forwarded: bool

    def payload(self) -> tuple:
        return (
            "stewardorder",
            self.global_seq,
            self.origin_cluster,
            self.certificate,
        )

    def size_bytes(self) -> int:
        return self.certificate.size_bytes() + CERT_SHARE_OVERHEAD_BYTES


# ---------------------------------------------------------------------------
# Checkpoint catch-up (PBFT state transfer analogue)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FetchDecision(CachedEncodable):
    """A laggard's request for a decided (request, certificate) pair.

    Sent when a stable checkpoint proves the group decided sequence
    numbers this replica missed (Castro & Liskov recover such replicas
    via state transfer; here the commit certificate lets the decision
    itself be transferred Byzantine-safely)."""

    __slots__ = ("cluster_id", "seq", "replica")

    cluster_id: ClusterId
    seq: SeqNum
    replica: NodeId

    def payload(self) -> tuple:
        return ("fetchdecision", self.cluster_id, self.seq,
                str(self.replica))

    def size_bytes(self) -> int:
        return SMALL_MESSAGE_BYTES


@dataclass(frozen=True)
class DecisionTransfer(CachedEncodable):
    """Reply to :class:`FetchDecision`: the certified decision itself.

    The embedded commit certificate proves authenticity, so the laggard
    can accept it from any single peer."""

    __slots__ = ("cluster_id", "seq", "request", "certificate")

    cluster_id: ClusterId
    seq: SeqNum
    request: ClientRequestBatch
    certificate: CommitCertificate

    def payload(self) -> tuple:
        return ("decisiontransfer", self.cluster_id, self.seq,
                self.certificate)

    def size_bytes(self) -> int:
        return self.certificate.size_bytes() + CERT_SHARE_OVERHEAD_BYTES


# ---------------------------------------------------------------------------
# Threshold-signature commit certificates (paper §2.2, optional)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CertShare(CachedEncodable):
    """One replica's threshold-signature share over a decided round.

    In threshold mode, replicas send these to their primary after
    deciding a round; the primary combines ``n - f`` of them into a
    constant-size :class:`ThresholdCommitCertificate`."""

    __slots__ = ("cluster_id", "round_id", "digest", "replica", "share")

    cluster_id: ClusterId
    round_id: RoundId
    digest: bytes
    replica: NodeId
    share: "SignatureShare"

    def payload(self) -> tuple:
        return ("certshare", self.cluster_id, self.round_id, self.digest,
                str(self.replica))

    def size_bytes(self) -> int:
        return SMALL_MESSAGE_BYTES


def certificate_statement(cluster_id: ClusterId, round_id: RoundId,
                          digest: bytes) -> tuple:
    """The statement a threshold certificate signs: cluster C committed
    the request with ``digest`` in round ``rho``."""
    return ("threshold-cert", cluster_id, round_id, digest)


@dataclass(frozen=True)
class ThresholdCommitCertificate(CachedEncodable):
    """Constant-size proof of local replication (§2.2): the client
    request plus a single threshold signature by ``n - f`` cluster
    members over :func:`certificate_statement`.

    Drop-in alternative to :class:`CommitCertificate` for inter-cluster
    sharing: its size is independent of ``f``."""

    __slots__ = ("cluster_id", "round_id", "view", "request", "signature",
                 "_verified_scheme")

    cluster_id: ClusterId
    round_id: RoundId
    view: ViewId
    request: ClientRequestBatch
    signature: "ThresholdSignature"

    def payload(self) -> tuple:
        return (
            "thresholdcert",
            self.cluster_id,
            self.round_id,
            self.view,
            self.request,
            self.signature.tag,
        )

    def size_bytes(self) -> int:
        return (preprepare_size_bytes(len(self.request.batch))
                + self.signature.size_bytes())

    def digest(self) -> bytes:
        """Digest of the certificate (cached, as for the classic form)."""
        return self.payload_digest()

    def verify_threshold(self, scheme: "ThresholdScheme") -> None:
        """Validate against the cluster's threshold scheme.

        Raises :class:`InvalidCertificateError` on mismatch.  A
        successful check is memoized per scheme object (certificates are
        immutable and shared across the replicas of a simulation, so
        each receiver after the first gets the scan for free)."""
        if getattr(self, "_verified_scheme", None) is scheme:
            return
        statement = certificate_statement(
            self.cluster_id, self.round_id, self.request.digest())
        if not scheme.verify(self.signature, statement):
            raise InvalidCertificateError(
                f"invalid threshold certificate from cluster "
                f"{self.cluster_id}"
            )
        object.__setattr__(self, "_verified_scheme", scheme)
