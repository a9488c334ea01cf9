"""Tests for message types and the paper's wire-size model (§4)."""

import pytest

from repro.consensus.messages import (
    Checkpoint,
    ClientReply,
    ClientRequestBatch,
    Commit,
    CommitCertificate,
    Drvc,
    GlobalShare,
    HsProposal,
    HsQuorumCert,
    HsVote,
    LocalCommit,
    OrderedRequest,
    PrePrepare,
    Prepare,
    Rvc,
    SpecResponse,
    preprepare_size_bytes,
    reply_size_bytes,
    request_size_bytes,
)
from repro.crypto.signatures import KeyRegistry
from repro.errors import InvalidCertificateError
from repro.ledger.block import Transaction
from repro.types import Quorums, client_id, replica_id


def make_request(batch_size=100, cluster=1, registry=None):
    client = client_id(cluster, 1)
    batch = tuple(
        Transaction(f"t{i}", "update", i, "v") for i in range(batch_size)
    )
    unsigned = ClientRequestBatch("b1", client, batch, None)
    signature = None
    if registry is not None:
        signature = registry.register(client).sign(unsigned.payload())
    return ClientRequestBatch("b1", client, batch, signature)


def make_certificate(registry, batch_size=100, cluster=1, n=7, view=0,
                     round_id=1, digest=None):
    request = make_request(batch_size, cluster, registry)
    digest = digest if digest is not None else request.digest()
    commits = []
    quorum = n - (n - 1) // 3
    for i in range(1, quorum + 1):
        replica = replica_id(cluster, i)
        unsigned = Commit(cluster, view, round_id, digest, replica, None)
        signer = registry.register(replica)
        commits.append(Commit(cluster, view, round_id, digest, replica,
                              signer.sign(unsigned.payload())))
    return CommitCertificate(cluster, round_id, view, request,
                             tuple(commits))


class TestPaperSizes:
    """The concrete byte sizes the paper reports for batch size 100."""

    def test_preprepare_is_5_4_kb(self):
        assert preprepare_size_bytes(100) == 5400
        request = make_request(100)
        pp = PrePrepare(1, 0, 1, request.digest(), request)
        assert pp.size_bytes() == 5400

    def test_certificate_is_6_4_kb_with_seven_commits(self):
        """§4: commit certificates are 6.4 kB, containing seven commit
        messages and a pre-prepare message."""
        registry = KeyRegistry()
        cert = make_certificate(registry, batch_size=100, n=10)
        assert len(cert.commits) == 7
        assert cert.size_bytes() == 5400 + 7 * 143  # 6401 ~ 6.4 kB

    def test_client_reply_is_1_5_kb(self):
        assert reply_size_bytes(100) == 1500
        reply = ClientReply("b", replica_id(1, 1), 1, 1, b"d", 100)
        assert reply.size_bytes() == 1500

    def test_other_messages_are_250_bytes(self):
        small = [
            Prepare(1, 0, 1, b"d", replica_id(1, 1)),
            Commit(1, 0, 1, b"d", replica_id(1, 1), None),
            Checkpoint(1, 6, b"d", replica_id(1, 1), None),
            Drvc(2, 1, 0, replica_id(1, 1)),
            Rvc(2, 1, 0, replica_id(1, 1), None),
            HsVote("prepare", 0, 1, b"d", replica_id(1, 1), None),
            LocalCommit(0, 1, "b", replica_id(1, 1)),
        ]
        assert all(m.size_bytes() == 250 for m in small)

    def test_sizes_scale_linearly_with_batch(self):
        assert request_size_bytes(200) - request_size_bytes(100) == 100 * 52
        assert reply_size_bytes(10) < reply_size_bytes(300)

    def test_global_share_sized_by_certificate(self):
        registry = KeyRegistry()
        cert = make_certificate(registry)
        share = GlobalShare(1, 1, cert, forwarded=False)
        assert share.size_bytes() == cert.size_bytes() + 50

    def test_hotstuff_qc_linear_in_signatures(self):
        """No threshold signatures (§3): QC size grows with the quorum."""
        registry = KeyRegistry()
        sigs = tuple(
            registry.register(replica_id(1, i)).sign("v")
            for i in range(1, 8)
        )
        small_qc = HsQuorumCert("prepare", 0, 1, b"d", sigs[:5])
        big_qc = HsQuorumCert("prepare", 0, 1, b"d", sigs)
        assert big_qc.size_bytes() > small_qc.size_bytes()

    def test_ordered_request_sized_like_preprepare(self):
        request = make_request(100)
        ordered = OrderedRequest(0, 1, b"h", request)
        assert ordered.size_bytes() == 5400

    def test_spec_response_sized_like_reply(self):
        response = SpecResponse(0, 1, "b", b"h", b"r", replica_id(1, 1),
                                None, 100)
        assert response.size_bytes() == 1500

    def test_hs_proposal_includes_request_and_qc(self):
        request = make_request(10)
        registry = KeyRegistry()
        sig = registry.register(replica_id(1, 1)).sign("v")
        qc = HsQuorumCert("prepare", 0, 1, b"d", (sig,))
        bare = HsProposal("precommit", 0, 1, b"d", None, qc)
        loaded = HsProposal("prepare", 0, 1, b"d", request, None)
        assert loaded.size_bytes() > bare.size_bytes() > 250


class TestCommitCertificateVerification:
    def test_valid_certificate_verifies(self):
        registry = KeyRegistry()
        cert = make_certificate(registry, n=7)
        cert.verify(registry, Quorums(7))

    def test_too_few_commits_rejected(self):
        registry = KeyRegistry()
        cert = make_certificate(registry, n=7)
        short = CommitCertificate(cert.cluster_id, cert.round_id, cert.view,
                                  cert.request, cert.commits[:3])
        with pytest.raises(InvalidCertificateError):
            short.verify(registry, Quorums(7))

    def test_duplicate_signers_rejected(self):
        registry = KeyRegistry()
        cert = make_certificate(registry, n=7)
        dup = CommitCertificate(cert.cluster_id, cert.round_id, cert.view,
                                cert.request,
                                (cert.commits[0],) * len(cert.commits))
        with pytest.raises(InvalidCertificateError):
            dup.verify(registry, Quorums(7))

    def test_forged_signature_rejected(self):
        registry = KeyRegistry()
        cert = make_certificate(registry, n=7)
        commit = cert.commits[0]
        forged_commit = Commit(commit.cluster_id, commit.view, commit.seq,
                               commit.digest, commit.replica,
                               cert.commits[1].signature)
        forged = CommitCertificate(cert.cluster_id, cert.round_id, cert.view,
                                   cert.request,
                                   (forged_commit,) + cert.commits[1:])
        with pytest.raises(InvalidCertificateError):
            forged.verify(registry, Quorums(7))

    def test_swapped_request_rejected(self):
        """A Byzantine forwarder cannot swap the client request inside a
        certificate — the commit digests no longer match."""
        registry = KeyRegistry()
        cert = make_certificate(registry, n=7)
        other_request = ClientRequestBatch(
            "b2", cert.request.client,
            (Transaction("evil", "update", 1, "x"),), cert.request.signature,
        )
        tampered = CommitCertificate(cert.cluster_id, cert.round_id,
                                     cert.view, other_request, cert.commits)
        with pytest.raises(InvalidCertificateError):
            tampered.verify(registry, Quorums(7))

    def test_foreign_cluster_commit_rejected(self):
        registry = KeyRegistry()
        cert = make_certificate(registry, n=7, cluster=1)
        foreign = make_certificate(registry, n=7, cluster=2)
        mixed = CommitCertificate(1, cert.round_id, cert.view, cert.request,
                                  cert.commits[:-1] + (foreign.commits[0],))
        with pytest.raises(InvalidCertificateError):
            mixed.verify(registry, Quorums(7))

    def test_unsigned_commit_rejected(self):
        registry = KeyRegistry()
        cert = make_certificate(registry, n=7)
        commit = cert.commits[0]
        unsigned = Commit(commit.cluster_id, commit.view, commit.seq,
                          commit.digest, commit.replica, None)
        bad = CommitCertificate(cert.cluster_id, cert.round_id, cert.view,
                                cert.request,
                                (unsigned,) + cert.commits[1:])
        with pytest.raises(InvalidCertificateError):
            bad.verify(registry, Quorums(7))


class TestRequestDigestCache:
    def test_digest_cached_and_stable(self):
        request = make_request(10)
        assert request.digest() is request.digest()
