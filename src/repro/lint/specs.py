"""Declarative per-protocol message-flow specs and rule scopes.

This module is the *contract* side of the interprocedural passes: for
each protocol it names the message classes that may appear on the wire,
who is allowed to construct them, who must consume them and how they fan
out.  The extraction side (:mod:`repro.lint.msgflow`) checks the code
against these tables, so a protocol edit that changes an edge shows up
as a reviewable spec/golden diff instead of a silent drift.  The module
tuples below also scope the other protocol rules.

Fan-out kinds (see ``msgflow._classify_use``):

* ``broadcast`` — handed to ``broadcast``/``multicast``/
  ``_multicast_distinct`` (all members, one schedule entry each);
* ``multi-unicast`` — ``send``/``send_at`` inside a loop (e.g. the
  ``f + 1`` GlobalShare fan-out per remote cluster);
* ``unicast`` — a single targeted ``send``/``send_at``;
* ``embedded`` — constructed to ride inside another message;
* ``returned`` / ``local`` — never leaves the constructing replica
  directly (templates for sign-then-rebuild, loopback handling).

Quorums need no table: every threshold is a named attribute of
:class:`repro.types.Quorums` (or a threshold scheme's ``k``), and
:mod:`repro.lint.quorum` checks that each vote-count comparison in the
protocol, message and client modules reads one of those names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "MESSAGE_MODULES",
    "PROTOCOL_MODULES",
    "PROTOCOL_SPECS",
    "MessageSpec",
    "ProtocolSpec",
    "protocol_for_module",
]

#: Modules defining the wire message classes (CachedEncodable subclasses).
MESSAGE_MODULES: Tuple[str, ...] = ("repro/consensus/messages.py",)

#: Protocol modules under the interprocedural verify-taint contract
#: (the per-file verify-before-mutate and quorum-arithmetic rules share
#: this scope).
PROTOCOL_MODULES: Tuple[str, ...] = (
    "repro/consensus/pbft.py",
    "repro/consensus/zyzzyva.py",
    "repro/consensus/hotstuff.py",
    "repro/consensus/steward.py",
    "repro/core/geobft.py",
    "repro/core/remote_view_change.py",
)

#: Client-side modules that drive every protocol: they construct
#: ClientRequestBatch and consume the reply-side messages, so they are
#: part of each protocol's flow scope.
CLIENT_MODULES: Tuple[str, ...] = (
    "repro/workload/client.py",
    "repro/workload/traffic.py",
)


@dataclass(frozen=True)
class MessageSpec:
    """Expected flow of one message class within one protocol."""

    name: str
    #: Human-readable protocol phase the message belongs to.
    phase: str
    #: Exact ``Class.method`` qualnames allowed to construct it (within
    #: the protocol's module scope).
    producers: Tuple[str, ...]
    #: Exact ``Class.method`` qualnames of the annotated handlers that
    #: consume it (dispatch sites are graph metadata, not spec-checked).
    consumers: Tuple[str, ...]
    #: The full fan-out kind set extraction must observe.
    fanout: Tuple[str, ...]
    #: The consuming half lives outside this protocol's static scope or
    #: behind a runtime rule choice — e.g. the client's Zyzzyva
    #: commit-certificate fallback is present in every protocol's scope
    #: but only ever runs under Zyzzyva's completion rule.  Exempt from
    #: the orphan check; still spec-checked for drift.
    external: bool = False


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol's declared message-flow scope."""

    name: str
    #: Normalized path suffixes forming the protocol's program scope.
    modules: Tuple[str, ...]
    #: Protocol phases, in order (documentation + flow-report metadata).
    phases: Tuple[str, ...]
    messages: Tuple[MessageSpec, ...] = field(default=())

    def message(self, name: str) -> Optional[MessageSpec]:
        for spec in self.messages:
            if spec.name == name:
                return spec
        return None


def protocol_for_module(path: str,
                        protocol_specs: Tuple[ProtocolSpec, ...],
                        ) -> Optional[ProtocolSpec]:
    """The first protocol spec whose scope contains ``path``."""
    for spec in protocol_specs:
        if any(path.endswith(suffix) for suffix in spec.modules):
            return spec
    return None


#: The PBFT engine's own messages.  Steward and GeoBFT embed the
#: engine (``repro/consensus/pbft.py`` is in their scope), so these
#: entries are shared verbatim by all three tables — dispatch sites
#: differ per protocol, but dispatch is graph metadata, not
#: spec-checked.
_PBFT_ENGINE_MESSAGES: Tuple[MessageSpec, ...] = (
    MessageSpec(
        "PrePrepare", "pre-prepare",
        producers=("PbftEngine._install_new_view", "PbftEngine._propose"),
        consumers=("PbftEngine._on_preprepare",),
        fanout=("broadcast", "local"),
    ),
    MessageSpec(
        "Prepare", "prepare",
        producers=("PbftEngine._on_preprepare",),
        consumers=("PbftEngine._on_prepare",),
        fanout=("broadcast",),
    ),
    MessageSpec(
        "Commit", "commit",
        producers=("PbftEngine._maybe_send_commit",
                   "PbftEngine._on_preprepare"),
        consumers=("PbftEngine._on_commit",),
        fanout=("broadcast", "local"),
    ),
    MessageSpec(
        "CommitCertificate", "commit",
        producers=("PbftEngine._maybe_decide",),
        consumers=(),
        fanout=("local",),
    ),
    MessageSpec(
        "Checkpoint", "checkpoint",
        producers=("PbftEngine._emit_checkpoint",),
        consumers=("PbftEngine._on_checkpoint",),
        fanout=("broadcast", "local"),
    ),
    MessageSpec(
        "ViewChange", "view-change",
        producers=("PbftEngine.start_view_change",),
        consumers=("PbftEngine._on_view_change_msg",),
        fanout=("broadcast", "local"),
    ),
    MessageSpec(
        "NewView", "view-change",
        producers=("PbftEngine._install_new_view",),
        consumers=("PbftEngine._on_new_view",),
        fanout=("broadcast", "local"),
    ),
    MessageSpec(
        "PreparedEntry", "view-change",
        producers=("PbftEngine._prepared_entries",),
        consumers=(),
        fanout=("local",),
    ),
    MessageSpec(
        "FetchDecision", "catch-up",
        producers=("PbftEngine._catch_up_to_stable",),
        consumers=("PbftEngine._on_fetch_decision",),
        fanout=("multi-unicast",),
    ),
    MessageSpec(
        "DecisionTransfer", "catch-up",
        producers=("PbftEngine._on_fetch_decision",),
        consumers=("PbftEngine._on_decision_transfer",),
        fanout=("unicast",),
    ),
)

#: The client side of every protocol, each site named once: one
#: ``CompletionTracker`` (repro/workload/client.py) builds and sends
#: every request batch and holds both completion rules, for both the
#: closed-loop and the open-loop driver.
_CLIENT_SUBMIT = "CompletionTracker._submit"
_CLIENT_ON_REPLY = "CompletionTracker._on_reply"
_CLIENT_ON_SPEC_RESPONSE = "CompletionTracker._on_spec_response"
_CLIENT_ON_LOCAL_COMMIT = "CompletionTracker._on_local_commit"
_CLIENT_ZYZZYVA_TIMEOUT = "CompletionTracker._zyzzyva_timeout"

#: The tracker carries Zyzzyva's rule, so its handlers and its
#: commit-certificate fallback appear in every protocol scope that
#: includes ``repro/workload/client.py``.  In non-zyzzyva scopes the
#: certificate's consumer lives outside the scope and the rule is
#: never selected (no ``members`` list) — hence ``external``.
_CLIENT_FALLBACK_MESSAGES: Tuple[MessageSpec, ...] = (
    MessageSpec(
        "SpecResponse", "client",
        producers=(),
        consumers=(_CLIENT_ON_SPEC_RESPONSE,),
        fanout=(),
    ),
    MessageSpec(
        "LocalCommit", "client",
        producers=(),
        consumers=(_CLIENT_ON_LOCAL_COMMIT,),
        fanout=(),
    ),
    MessageSpec(
        "ZyzzyvaCommitCert", "client",
        producers=(_CLIENT_ZYZZYVA_TIMEOUT,),
        consumers=(),
        fanout=("multi-unicast",),
        external=True,
    ),
)


PROTOCOL_SPECS: Tuple[ProtocolSpec, ...] = (
    ProtocolSpec(
        name="pbft",
        modules=("repro/consensus/pbft.py",) + CLIENT_MODULES,
        phases=("request", "pre-prepare", "prepare", "commit", "reply",
                "checkpoint", "view-change", "catch-up"),
        messages=_PBFT_ENGINE_MESSAGES + _CLIENT_FALLBACK_MESSAGES + (
            MessageSpec(
                "ClientRequestBatch", "request",
                producers=(_CLIENT_SUBMIT,
                           "PbftEngine._install_new_view",
                           "PbftEngine.submit_noop"),
                consumers=("PbftReplica._on_client_request",
                           "PbftReplica._on_decide"),
                fanout=("embedded", "local", "multi-unicast", "returned"),
            ),
            MessageSpec(
                "ClientReply", "reply",
                producers=("PbftReplica._on_decide",),
                consumers=(_CLIENT_ON_REPLY,),
                fanout=("unicast",),
            ),
        ),
    ),
    ProtocolSpec(
        name="zyzzyva",
        modules=("repro/consensus/zyzzyva.py",) + CLIENT_MODULES,
        phases=("request", "order", "spec-response", "commit-cert",
                "local-commit"),
        messages=(
            MessageSpec(
                "ClientRequestBatch", "request",
                producers=(_CLIENT_SUBMIT,),
                consumers=("ZyzzyvaReplica._on_client_request",),
                fanout=("local", "multi-unicast"),
            ),
            MessageSpec(
                "OrderedRequest", "order",
                producers=("ZyzzyvaReplica._on_client_request",),
                consumers=("ZyzzyvaReplica._on_ordered_request",),
                fanout=("broadcast", "local"),
            ),
            MessageSpec(
                "SpecResponse", "spec-response",
                producers=("ZyzzyvaReplica._on_commit_cert",
                           "ZyzzyvaReplica._speculative_execute"),
                consumers=(_CLIENT_ON_SPEC_RESPONSE,),
                fanout=("local", "unicast"),
            ),
            MessageSpec(
                "ZyzzyvaCommitCert", "commit-cert",
                producers=(_CLIENT_ZYZZYVA_TIMEOUT,),
                consumers=("ZyzzyvaReplica._on_commit_cert",),
                fanout=("multi-unicast",),
            ),
            MessageSpec(
                "LocalCommit", "local-commit",
                producers=("ZyzzyvaReplica._on_commit_cert",),
                consumers=(_CLIENT_ON_LOCAL_COMMIT,),
                fanout=("unicast",),
            ),
            MessageSpec(
                "ClientReply", "request",
                producers=(),
                consumers=(_CLIENT_ON_REPLY,),
                fanout=(),
            ),
        ),
    ),
    ProtocolSpec(
        name="hotstuff",
        modules=("repro/consensus/hotstuff.py",) + CLIENT_MODULES,
        phases=("request", "prepare", "precommit", "commit", "decide"),
        messages=_CLIENT_FALLBACK_MESSAGES + (
            MessageSpec(
                "ClientRequestBatch", "request",
                producers=(_CLIENT_SUBMIT,),
                consumers=("HotStuffReplica._on_client_request",),
                fanout=("local", "multi-unicast"),
            ),
            MessageSpec(
                "HsProposal", "prepare",
                producers=("HotStuffReplica._on_vote",
                           "HotStuffReplica._pump"),
                consumers=("HotStuffReplica._on_decide",
                           "HotStuffReplica._on_proposal"),
                fanout=("broadcast", "local"),
            ),
            MessageSpec(
                "HsVote", "prepare",
                producers=("HotStuffReplica._process_proposal",
                           "HotStuffReplica._verify_qc"),
                consumers=("HotStuffReplica._on_vote",),
                fanout=("local", "unicast"),
            ),
            MessageSpec(
                "HsQuorumCert", "precommit",
                producers=("HotStuffReplica._on_vote",),
                consumers=(),
                fanout=("embedded",),
            ),
            MessageSpec(
                "ClientReply", "decide",
                producers=("HotStuffReplica._on_decide",),
                consumers=(_CLIENT_ON_REPLY,),
                fanout=("unicast",),
            ),
        ),
    ),
    ProtocolSpec(
        name="steward",
        modules=("repro/consensus/steward.py",
                 "repro/consensus/pbft.py") + CLIENT_MODULES,
        phases=("request", "local-pbft", "forward", "global-order",
                "reply"),
        messages=_PBFT_ENGINE_MESSAGES + _CLIENT_FALLBACK_MESSAGES + (
            MessageSpec(
                "ClientRequestBatch", "request",
                producers=(_CLIENT_SUBMIT,
                           "PbftEngine._install_new_view",
                           "PbftEngine.submit_noop"),
                consumers=("PbftReplica._on_client_request",
                           "PbftReplica._on_decide",
                           "StewardReplica._on_client_request",
                           "StewardReplica._on_engine_decide"),
                fanout=("embedded", "local", "multi-unicast", "returned"),
            ),
            MessageSpec(
                "StewardForward", "forward",
                producers=("StewardReplica._on_engine_decide",),
                consumers=("StewardReplica._on_forward",),
                fanout=("multi-unicast",),
            ),
            MessageSpec(
                "StewardGlobalOrder", "global-order",
                producers=("StewardReplica._disseminate",
                           "StewardReplica._on_global_order"),
                consumers=("StewardReplica._on_global_order",),
                fanout=("broadcast", "multi-unicast"),
            ),
            MessageSpec(
                "ClientReply", "reply",
                producers=("PbftReplica._on_decide",
                           "StewardReplica._deliver_global"),
                consumers=(_CLIENT_ON_REPLY,),
                fanout=("unicast",),
            ),
        ),
    ),
    ProtocolSpec(
        name="geobft",
        modules=("repro/core/geobft.py",
                 "repro/core/remote_view_change.py",
                 "repro/consensus/pbft.py") + CLIENT_MODULES,
        phases=("request", "local-pbft", "cert-share", "global-share",
                "execute", "remote-view-change"),
        messages=_PBFT_ENGINE_MESSAGES + _CLIENT_FALLBACK_MESSAGES + (
            MessageSpec(
                "ClientRequestBatch", "request",
                producers=(_CLIENT_SUBMIT,
                           "PbftEngine._install_new_view",
                           "PbftEngine.submit_noop"),
                consumers=("GeoBftReplica._on_client_request",
                           "GeoBftReplica._on_local_decide",
                           "PbftReplica._on_client_request",
                           "PbftReplica._on_decide"),
                fanout=("embedded", "local", "multi-unicast", "returned"),
            ),
            MessageSpec(
                "CertShare", "cert-share",
                producers=("GeoBftReplica._contribute_cert_share",),
                consumers=("GeoBftReplica._on_cert_share",),
                fanout=("local", "unicast"),
            ),
            MessageSpec(
                "ThresholdCommitCertificate", "cert-share",
                producers=("GeoBftReplica._record_cert_share",),
                consumers=(),
                fanout=("local",),
            ),
            MessageSpec(
                "GlobalShare", "global-share",
                producers=("GeoBftReplica._on_global_share",
                           "GeoBftReplica._share_globally"),
                consumers=("GeoBftReplica._on_global_share",),
                fanout=("broadcast", "multi-unicast"),
            ),
            MessageSpec(
                "ClientReply", "execute",
                producers=("GeoBftReplica._execute_round",
                           "PbftReplica._on_decide"),
                consumers=(_CLIENT_ON_REPLY,),
                fanout=("multi-unicast", "unicast"),
            ),
            MessageSpec(
                "Drvc", "remote-view-change",
                producers=("RemoteViewChangeManager._detect_failure",),
                consumers=("RemoteViewChangeManager.handle_drvc",),
                fanout=("broadcast", "local"),
            ),
            MessageSpec(
                "Rvc", "remote-view-change",
                producers=("RemoteViewChangeManager._send_rvc",),
                consumers=("RemoteViewChangeManager.handle_rvc",),
                fanout=("local", "unicast"),
            ),
        ),
    ),
)
