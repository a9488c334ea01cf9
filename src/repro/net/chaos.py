"""Chaos engine: scheduled fault timelines over the event simulator.

The paper's failure study (§4.3, Figure 12) and the remote-view-change
protocol (§2.3, Example 2.4) both turn on *when* and *how* faults occur,
not just on which nodes are faulty.  This module turns the static rule
sets of :class:`~repro.net.failures.FailureModel` into a schedulable,
introspectable fault plan:

* A :class:`Fault` is a named behaviour with an activation window
  ``[at, until)`` on the simulated clock.  Concrete faults cover crashes
  and recoveries, directed partitions and heals, per-link delay/jitter
  injection, message-loss bursts, and Byzantine behaviours — omission of
  selected message types (the trigger for GeoBFT's remote view change),
  payload tampering that honest receivers must reject through their
  digest/signature verification paths, and primary equivocation
  (conflicting, individually well-formed proposals).
* A :class:`FaultTimeline` owns an ordered set of faults, installs them
  on a built :class:`~repro.bench.deployment.Deployment`, emits
  ``fault_on``/``fault_off`` events into the instrumentation hub, and
  records progress snapshots that the deployment's safety+liveness
  checker (:meth:`Deployment.check_invariants`) audits after the run.

Everything is driven through the discrete-event simulator, so a run
with a given (config, seed, timeline) triple is fully deterministic —
the chaos engine draws randomness (loss, jitter) only from its own
seeded generator, never from the simulator's.

Fault targets are **selectors**, resolved against the live deployment at
*activation* time so that e.g. ``"primary:1"`` names whichever replica
leads cluster 1 after any view changes that already happened:

========================  ==================================================
selector                  meaning
========================  ==================================================
``"replica:C.I"``         replica ``I`` of cluster ``C`` (also ``"rC.I"``)
``"cluster:C"``           every replica of cluster ``C``
``"primary:C"``           the *live* primary serving cluster ``C``
``"backup:C"``            the last non-primary replica of cluster ``C``
``"backups:C"``           every non-primary replica of cluster ``C``
``"backups:C:K"``         the last ``K`` non-primary replicas (``K >= 1``,
                          or ``f``, the cluster's fault bound)
``"all"``                 every replica of the deployment
========================  ==================================================
"""

from __future__ import annotations

import dataclasses
import json
import random
import zlib
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..types import NodeId, replica_id

#: Message types tampered by default: every protocol's proposal/share
#: carrier plus the agreement votes, so a Byzantine actor corrupts
#: whatever role it happens to hold (primary, backup, or forwarder).
DEFAULT_TAMPER_KINDS = (
    "GlobalShare", "PrePrepare", "Prepare", "Commit", "OrderedRequest",
    "HsProposal", "HsVote", "SpecResponse", "StewardForward",
    "StewardGlobalOrder",
)


# ---------------------------------------------------------------------------
# Selector resolution
# ---------------------------------------------------------------------------
def _live_primary(deployment, cluster: int) -> NodeId:
    """The replica currently acting as primary for ``cluster``.

    Asks the first non-crashed member's protocol engine, so a timeline
    that fires after a view change targets the *rotated* primary, not
    the initial one.  Flat protocols report their single global primary;
    HotStuff (leaderless: every replica leads its own instance) falls
    back to the cluster's first member.
    """
    members = deployment.cluster_members[cluster]
    failures = deployment.network.failures
    for node in members:
        if failures.is_crashed(node):
            continue
        replica = deployment.replicas[node]
        engine = getattr(replica, "engine", None)
        if engine is not None:
            return engine.primary
        primary = getattr(replica, "primary", None)
        if primary is not None:
            return primary
        break
    return members[0]


class ChaosContext:
    """Resolution and injection surface handed to activating faults."""

    def __init__(self, deployment, rng: random.Random):
        self.deployment = deployment
        self.sim = deployment.sim
        self.network = deployment.network
        self.failures = deployment.network.failures
        #: Chaos-private randomness (loss, jitter).  Never the
        #: simulator's generator: injecting faults must not perturb the
        #: workload's random stream.
        self.rng = rng

    def members(self, cluster: int) -> List[NodeId]:
        members = self.deployment.cluster_members.get(cluster)
        if members is None:
            raise ConfigurationError(
                f"selector names unknown cluster {cluster}; deployment has "
                f"clusters {sorted(self.deployment.cluster_members)}"
            )
        return list(members)

    def live_primary(self, cluster: int) -> NodeId:
        self.members(cluster)  # validate the cluster exists
        return _live_primary(self.deployment, cluster)

    # -- selector grammar ------------------------------------------------
    def resolve(self, selector) -> List[NodeId]:
        """Resolve one selector to a list of live-deployment node ids."""
        if isinstance(selector, NodeId):
            return [selector]
        if isinstance(selector, (list, tuple)):
            return self.resolve_many(selector)
        if not isinstance(selector, str):
            raise ConfigurationError(
                f"fault target must be a selector string, got "
                f"{type(selector).__name__}"
            )
        text = selector.strip()
        if text == "all":
            out: List[NodeId] = []
            for cluster in sorted(self.deployment.cluster_members):
                out.extend(self.members(cluster))
            return out
        if text.startswith("r") and "." in text and ":" not in text:
            text = "replica:" + text[1:]
        head, _, rest = text.partition(":")
        try:
            if head == "replica":
                cluster_s, _, index_s = rest.partition(".")
                node = replica_id(int(cluster_s), int(index_s))
                if node not in dict.fromkeys(self.members(node.cluster)):
                    raise ConfigurationError(
                        f"selector {selector!r} names {node}, which is not "
                        f"deployed"
                    )
                return [node]
            if head == "cluster":
                return self.members(int(rest))
            if head == "primary":
                return [self.live_primary(int(rest))]
            if head in ("backup", "backups"):
                cluster_s, _, count_s = rest.partition(":")
                cluster = int(cluster_s)
                members = self.members(cluster)
                primary = self.live_primary(cluster)
                backups = [m for m in members if m != primary]
                if head == "backup":
                    return backups[-1:]
                if not count_s:
                    return backups
                count = (self.deployment.quorums[cluster].f
                         if count_s == "f" else int(count_s))
                if count < 1:
                    raise ConfigurationError(
                        f"selector {selector!r} needs K >= 1 (or f)")
                return backups[len(backups) - min(count, len(backups)):]
        except ConfigurationError:
            raise
        except ValueError:
            pass
        raise ConfigurationError(
            f"unknown fault selector {selector!r}; expected 'replica:C.I', "
            f"'cluster:C', 'primary:C', 'backup:C', 'backups:C[:K]', "
            f"or 'all'"
        )

    def resolve_many(self, selectors) -> List[NodeId]:
        """Resolve several selectors, deduplicating but keeping order."""
        if isinstance(selectors, (str, NodeId)):
            selectors = [selectors]
        out: Dict[NodeId, None] = {}
        for selector in selectors:
            for node in self.resolve(selector):
                out[node] = None
        return list(out)


# ---------------------------------------------------------------------------
# Tampering helpers (Byzantine payload corruption)
# ---------------------------------------------------------------------------
def _corrupt_bytes(value: bytes) -> bytes:
    return (value[:-1] + bytes([value[-1] ^ 0xFF])) if value else b"\x00"


def _tamper_request(request):
    """Corrupt the transaction batch a request carries.

    The batch digest changes, so every honest verify path rejects the
    message: commit certificates fail their digest cross-check, signed
    requests fail signature verification, pre-prepares and HotStuff
    proposals fail their ``digest == request.digest()`` check.
    """
    from ..ledger.block import Transaction

    batch = tuple(request.batch)
    first = batch[0]
    evil = Transaction(first.txn_id, "update", first.key, "\x00chaos-tamper")
    return dataclasses.replace(request, batch=(evil,) + batch[1:])


def tamper_message(message):
    """Return a corrupted copy of ``message`` (best effort).

    Preference order: the embedded certificate's request, then a bare
    request, then any non-empty ``bytes`` field (digests).  Messages
    with nothing corruptible are returned unchanged.
    """
    if not dataclasses.is_dataclass(message):
        return message
    certificate = getattr(message, "certificate", None)
    if certificate is not None and getattr(certificate, "request", None) is not None:
        evil = dataclasses.replace(
            certificate, request=_tamper_request(certificate.request))
        return dataclasses.replace(message, certificate=evil)
    request = getattr(message, "request", None)
    if request is not None and getattr(request, "batch", None):
        return dataclasses.replace(message,
                                   request=_tamper_request(request))
    for field in dataclasses.fields(message):
        value = getattr(message, field.name)
        if isinstance(value, bytes) and value:
            return dataclasses.replace(
                message, **{field.name: _corrupt_bytes(value)})
    return message


# ---------------------------------------------------------------------------
# Fault taxonomy
# ---------------------------------------------------------------------------
class Fault:
    """One named, windowed fault.  Subclasses install/remove rules.

    ``at`` is the activation time (simulated seconds); ``until`` the
    deactivation time, or ``None`` for a fault that stays active to the
    end of the run.  ``expect_recovery`` tells the liveness checker
    whether progress must resume after this fault's window — set it to
    ``False`` for deliberately unrecoverable scenarios (e.g. crashing a
    whole cluster) so the checker does not flag them.
    """

    kind = "fault"
    _SPEC_KEYS: FrozenSet[str] = frozenset(
        {"name", "at", "until", "expect_recovery"})

    def __init__(self, name: Optional[str] = None, at: float = 0.0,
                 until: Optional[float] = None,
                 expect_recovery: bool = True):
        if at < 0:
            raise ConfigurationError(
                f"fault activation time must be >= 0, got {at}")
        if until is not None and until <= at:
            raise ConfigurationError(
                f"fault window must end after it starts "
                f"(at={at}, until={until})")
        self.name = name or f"{self.kind}@{at:g}s"
        self.at = float(at)
        self.until = None if until is None else float(until)
        self.expect_recovery = bool(expect_recovery)
        self.active = False
        #: Nodes the fault resolved to at activation (introspection).
        self.resolved_targets: List[NodeId] = []

    # -- lifecycle -------------------------------------------------------
    def activate(self, ctx: ChaosContext) -> None:
        """Install the fault's behaviour (called by the timeline)."""
        self._install(ctx)
        self.active = True

    def deactivate(self, ctx: ChaosContext) -> None:
        """Remove the fault's behaviour (called by the timeline)."""
        self._uninstall(ctx)
        self.active = False

    def _install(self, ctx: ChaosContext) -> None:
        raise NotImplementedError

    def _uninstall(self, ctx: ChaosContext) -> None:
        pass

    # -- introspection ---------------------------------------------------
    def byzantine_nodes(self) -> FrozenSet[NodeId]:
        """Nodes whose *behaviour* (not just availability) this fault
        corrupts; the safety auditor excludes them from the honest set."""
        return frozenset()

    @property
    def window(self) -> Tuple[float, Optional[float]]:
        """The ``(at, until)`` activation window."""
        return (self.at, self.until)

    def describe(self) -> str:
        """One human-readable line for fault-plan listings."""
        window = (f"[{self.at:g}s, "
                  + (f"{self.until:g}s)" if self.until is not None
                     else "end)"))
        return f"{self.name}: {self.kind} {window} {self._describe_what()}"

    def _describe_what(self) -> str:
        return ""

    def to_dict(self) -> dict:
        """Declarative form (the timeline JSON schema's fault object)."""
        out = {"kind": self.kind, "name": self.name, "at": self.at}
        if self.until is not None:
            out["until"] = self.until
        if not self.expect_recovery:
            out["expect_recovery"] = False
        out.update(self._extra_dict())
        return out

    def _extra_dict(self) -> dict:
        return {}

    @classmethod
    def from_dict(cls, spec: dict) -> "Fault":
        kwargs = {k: v for k, v in spec.items() if k != "kind"}
        unknown = set(kwargs) - cls._SPEC_KEYS
        if unknown:
            raise ConfigurationError(
                f"fault kind {cls.kind!r} does not accept "
                f"{sorted(unknown)}; accepted keys: "
                f"{sorted(cls._SPEC_KEYS)}"
            )
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigurationError(
                f"invalid {cls.kind!r} fault spec: {exc}") from exc


def _as_selector_list(value, what: str) -> List[str]:
    if value is None:
        raise ConfigurationError(f"fault is missing required {what}")
    if isinstance(value, (str, NodeId)):
        return [value]
    if isinstance(value, (list, tuple)) and value:
        return list(value)
    raise ConfigurationError(
        f"fault {what} must be a selector or non-empty list of selectors")


class CrashFault(Fault):
    """Crash the resolved targets at ``at``; recover them at ``until``."""

    kind = "crash"
    _SPEC_KEYS = Fault._SPEC_KEYS | {"targets"}

    def __init__(self, targets, **kwargs):
        super().__init__(**kwargs)
        self.targets = _as_selector_list(targets, "targets")

    def _install(self, ctx: ChaosContext) -> None:
        self.resolved_targets = ctx.resolve_many(self.targets)
        for node in self.resolved_targets:
            ctx.failures.crash(node)

    def _uninstall(self, ctx: ChaosContext) -> None:
        for node in self.resolved_targets:
            ctx.failures.recover(node)

    def _describe_what(self) -> str:
        return f"targets={self.targets}"

    def _extra_dict(self) -> dict:
        return {"targets": [str(t) for t in self.targets]}


class PartitionFault(Fault):
    """Sever every (a, b) link between the two sides; heal at ``until``."""

    kind = "partition"
    _SPEC_KEYS = Fault._SPEC_KEYS | {"a", "b", "bidirectional"}

    def __init__(self, a, b, bidirectional: bool = True, **kwargs):
        super().__init__(**kwargs)
        self.a = _as_selector_list(a, "side 'a'")
        self.b = _as_selector_list(b, "side 'b'")
        self.bidirectional = bool(bidirectional)
        self._pairs: List[Tuple[NodeId, NodeId]] = []

    def _install(self, ctx: ChaosContext) -> None:
        side_a = ctx.resolve_many(self.a)
        side_b = ctx.resolve_many(self.b)
        self.resolved_targets = side_a + [n for n in side_b
                                          if n not in side_a]
        self._pairs = []
        for src in side_a:
            for dst in side_b:
                if src == dst:
                    continue
                self._pairs.append((src, dst))
                if self.bidirectional:
                    self._pairs.append((dst, src))
        for src, dst in self._pairs:
            ctx.failures.sever(src, dst)

    def _uninstall(self, ctx: ChaosContext) -> None:
        for src, dst in self._pairs:
            ctx.failures.heal(src, dst)

    def _describe_what(self) -> str:
        arrow = "<->" if self.bidirectional else "->"
        return f"{self.a} {arrow} {self.b}"

    def _extra_dict(self) -> dict:
        out = {"a": list(self.a), "b": list(self.b)}
        if not self.bidirectional:
            out["bidirectional"] = False
        return out


class _LinkMatchFault(Fault):
    """Shared machinery for faults that match (src, dst) link pairs."""

    _SPEC_KEYS = Fault._SPEC_KEYS | {"a", "b", "bidirectional"}

    def __init__(self, a=None, b=None, bidirectional: bool = True,
                 **kwargs):
        super().__init__(**kwargs)
        self.a = None if a is None else _as_selector_list(a, "side 'a'")
        self.b = None if b is None else _as_selector_list(b, "side 'b'")
        self.bidirectional = bool(bidirectional)
        self._side_a: Optional[FrozenSet[NodeId]] = None
        self._side_b: Optional[FrozenSet[NodeId]] = None

    def _resolve_sides(self, ctx: ChaosContext) -> None:
        self._side_a = (None if self.a is None
                        else frozenset(ctx.resolve_many(self.a)))
        self._side_b = (None if self.b is None
                        else frozenset(ctx.resolve_many(self.b)))
        resolved: List[NodeId] = []
        for side in (self._side_a, self._side_b):
            if side:
                resolved.extend(n for n in sorted(side, key=str)
                                if n not in resolved)
        self.resolved_targets = resolved

    def _matches(self, src: NodeId, dst: NodeId) -> bool:
        side_a, side_b = self._side_a, self._side_b
        forward = ((side_a is None or src in side_a)
                   and (side_b is None or dst in side_b))
        if forward:
            return True
        if not self.bidirectional:
            return False
        return ((side_a is None or dst in side_a)
                and (side_b is None or src in side_b))

    def _extra_dict(self) -> dict:
        out = {}
        if self.a is not None:
            out["a"] = list(self.a)
        if self.b is not None:
            out["b"] = list(self.b)
        if not self.bidirectional:
            out["bidirectional"] = False
        return out


class LinkDelayFault(_LinkMatchFault):
    """Add ``extra_ms`` (plus uniform jitter up to ``jitter_ms``) of
    one-way latency to matching sends while active."""

    kind = "delay"
    _SPEC_KEYS = _LinkMatchFault._SPEC_KEYS | {"extra_ms", "jitter_ms"}

    def __init__(self, extra_ms: float = 0.0, jitter_ms: float = 0.0,
                 **kwargs):
        super().__init__(**kwargs)
        if extra_ms < 0 or jitter_ms < 0:
            raise ConfigurationError("delay fault needs non-negative "
                                     "extra_ms/jitter_ms")
        if extra_ms == 0 and jitter_ms == 0:
            raise ConfigurationError(
                "delay fault needs extra_ms or jitter_ms > 0")
        self.extra_ms = float(extra_ms)
        self.jitter_ms = float(jitter_ms)
        self._rule = None

    def _install(self, ctx: ChaosContext) -> None:
        self._resolve_sides(ctx)
        extra_s = self.extra_ms / 1e3
        jitter_s = self.jitter_ms / 1e3
        rng = ctx.rng

        def rule(src, dst, message):
            if not self._matches(src, dst):
                return 0.0
            if jitter_s:
                return extra_s + rng.random() * jitter_s
            return extra_s

        self._rule = ctx.failures.add_delay_rule(rule)

    def _uninstall(self, ctx: ChaosContext) -> None:
        if self._rule is not None:
            ctx.failures.remove_delay_rule(self._rule)
            self._rule = None

    def _describe_what(self) -> str:
        return (f"+{self.extra_ms:g}ms"
                + (f"±{self.jitter_ms:g}ms" if self.jitter_ms else "")
                + f" on {self.a or 'any'} <-> {self.b or 'any'}")

    def _extra_dict(self) -> dict:
        out = super()._extra_dict()
        out["extra_ms"] = self.extra_ms
        if self.jitter_ms:
            out["jitter_ms"] = self.jitter_ms
        return out


class MessageLossFault(_LinkMatchFault):
    """Lose a fraction ``rate`` of matching messages in flight."""

    kind = "loss"
    _SPEC_KEYS = _LinkMatchFault._SPEC_KEYS | {"rate"}

    def __init__(self, rate: float = 0.0, **kwargs):
        super().__init__(**kwargs)
        if not 0.0 < rate <= 1.0:
            raise ConfigurationError(
                f"loss fault needs 0 < rate <= 1, got {rate}")
        self.rate = float(rate)
        self._rule = None

    def _install(self, ctx: ChaosContext) -> None:
        self._resolve_sides(ctx)
        rate = self.rate
        rng = ctx.rng

        def rule(src, dst, message):
            return self._matches(src, dst) and rng.random() < rate

        self._rule = ctx.failures.add_drop_rule(rule)

    def _uninstall(self, ctx: ChaosContext) -> None:
        if self._rule is not None:
            ctx.failures.remove_drop_rule(self._rule)
            self._rule = None

    def _describe_what(self) -> str:
        return (f"{self.rate:.0%} loss on "
                f"{self.a or 'any'} <-> {self.b or 'any'}")

    def _extra_dict(self) -> dict:
        out = super()._extra_dict()
        out["rate"] = self.rate
        return out


class OmissionFault(Fault):
    """Byzantine omission: the actor silently never sends matching
    message types (Example 2.4 — e.g. a primary withholding its global
    shares from a remote cluster, the remote view-change trigger)."""

    kind = "omit"
    _SPEC_KEYS = Fault._SPEC_KEYS | {"node", "messages", "to"}

    def __init__(self, node, messages=("GlobalShare",), to=None, **kwargs):
        super().__init__(**kwargs)
        self.node = _as_selector_list(node, "node")
        self.messages = tuple(_as_selector_list(messages, "messages"))
        self.to = None if to is None else _as_selector_list(to, "to")
        self._rule = None
        self._actors: FrozenSet[NodeId] = frozenset()

    def _install(self, ctx: ChaosContext) -> None:
        actors = frozenset(ctx.resolve_many(self.node))
        targets = (None if self.to is None
                   else frozenset(ctx.resolve_many(self.to)))
        kinds = frozenset(self.messages)
        self._actors = actors
        self.resolved_targets = sorted(actors, key=str)

        def rule(src, dst, message):
            return (src in actors
                    and (targets is None or dst in targets)
                    and type(message).__name__ in kinds)

        self._rule = ctx.failures.add_send_rule(rule)

    def _uninstall(self, ctx: ChaosContext) -> None:
        if self._rule is not None:
            ctx.failures.remove_send_rule(self._rule)
            self._rule = None

    def byzantine_nodes(self) -> FrozenSet[NodeId]:
        return self._actors

    def _describe_what(self) -> str:
        return (f"{self.node} omits {list(self.messages)}"
                + (f" to {self.to}" if self.to else ""))

    def _extra_dict(self) -> dict:
        out = {"node": list(self.node), "messages": list(self.messages)}
        if self.to is not None:
            out["to"] = list(self.to)
        return out


class TamperFault(Fault):
    """Byzantine tampering: matching outbound messages are replaced with
    corrupted copies.  Honest receivers must reject them through digest
    cross-checks and signature verification — a tampered certificate or
    proposal that *survives* a verify path is a protocol bug."""

    kind = "tamper"
    _SPEC_KEYS = Fault._SPEC_KEYS | {"node", "messages"}

    def __init__(self, node, messages=DEFAULT_TAMPER_KINDS, **kwargs):
        super().__init__(**kwargs)
        self.node = _as_selector_list(node, "node")
        self.messages = tuple(_as_selector_list(messages, "messages"))
        self._rule = None
        self._actors: FrozenSet[NodeId] = frozenset()

    def _install(self, ctx: ChaosContext) -> None:
        actors = frozenset(ctx.resolve_many(self.node))
        kinds = frozenset(self.messages)
        self._actors = actors
        self.resolved_targets = sorted(actors, key=str)

        def rule(src, dst, message):
            if src in actors and type(message).__name__ in kinds:
                return tamper_message(message)
            return message

        self._rule = ctx.failures.add_transform_rule(rule)

    def _uninstall(self, ctx: ChaosContext) -> None:
        if self._rule is not None:
            ctx.failures.remove_transform_rule(self._rule)
            self._rule = None

    def byzantine_nodes(self) -> FrozenSet[NodeId]:
        return self._actors

    def _describe_what(self) -> str:
        return f"{self.node} corrupts {list(self.messages)}"

    def _extra_dict(self) -> dict:
        return {"node": list(self.node), "messages": list(self.messages)}


class EquivocateFault(Fault):
    """Byzantine equivocation: the live primary of ``cluster`` proposes
    *different, individually well-formed* batches for the same slot to
    different backups (a conflicting unsigned no-op to half of them).
    Quorum intersection must keep honest replicas from diverging; the
    stalled slot recovers through the cluster's view change."""

    kind = "equivocate"
    _SPEC_KEYS = Fault._SPEC_KEYS | {"cluster"}

    def __init__(self, cluster: int, **kwargs):
        super().__init__(**kwargs)
        self.cluster = int(cluster)
        self._rule = None
        self._actors: FrozenSet[NodeId] = frozenset()

    @staticmethod
    def _conflicting_preprepare(pp):
        from ..consensus.messages import ClientRequestBatch
        from ..ledger.block import Transaction

        noop = Transaction(
            f"equiv-{pp.cluster_id}-{pp.view}-{pp.seq}", "noop", 0, "")
        evil = ClientRequestBatch(
            batch_id=f"equiv:{pp.cluster_id}:{pp.view}:{pp.seq}",
            client=pp.request.client,
            batch=(noop,),
            signature=None,
        )
        return dataclasses.replace(pp, digest=evil.digest(), request=evil)

    def _install(self, ctx: ChaosContext) -> None:
        actor = ctx.live_primary(self.cluster)
        self._actors = frozenset([actor])
        self.resolved_targets = [actor]

        def rule(src, dst, message):
            if (src == actor
                    and type(message).__name__ == "PrePrepare"
                    and getattr(message, "request", None) is not None
                    # Deterministic half-split of the backups.
                    and zlib.crc32(str(dst).encode()) & 1):
                return self._conflicting_preprepare(message)
            return message

        self._rule = ctx.failures.add_transform_rule(rule)

    def _uninstall(self, ctx: ChaosContext) -> None:
        if self._rule is not None:
            ctx.failures.remove_transform_rule(self._rule)
            self._rule = None

    def byzantine_nodes(self) -> FrozenSet[NodeId]:
        return self._actors

    def _describe_what(self) -> str:
        return f"primary of cluster {self.cluster} equivocates"

    def _extra_dict(self) -> dict:
        return {"cluster": self.cluster}


#: Declarative-spec dispatch: JSON ``kind`` -> fault class.
FAULT_KINDS: Dict[str, type] = {
    cls.kind: cls
    for cls in (CrashFault, PartitionFault, LinkDelayFault,
                MessageLossFault, OmissionFault, TamperFault,
                EquivocateFault)
}


def fault_from_dict(spec) -> Fault:
    """Build one fault from its declarative (JSON) form."""
    if not isinstance(spec, dict):
        raise ConfigurationError(
            f"each fault spec must be an object, got "
            f"{type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in FAULT_KINDS:
        raise ConfigurationError(
            f"unknown fault kind {kind!r}; expected one of "
            f"{sorted(FAULT_KINDS)}")
    return FAULT_KINDS[kind].from_dict(spec)


# ---------------------------------------------------------------------------
# The timeline
# ---------------------------------------------------------------------------
class FaultTimeline:
    """An ordered, schedulable set of faults for one deployment run.

    Build programmatically (``timeline.add(CrashFault(...))``) or from a
    declarative JSON spec (:meth:`from_json` / :meth:`load`), then
    :meth:`install` it on a built deployment *before* ``run()``.  The
    timeline drives every (de)activation through the simulator, records
    ledger-progress snapshots around each fault window, and feeds the
    safety auditor the set of Byzantine actors to exclude.
    """

    def __init__(self, faults: Iterable[Fault] = (),
                 name: str = "timeline"):
        self.name = name
        self._faults: List[Fault] = []
        for fault in faults:
            self.add(fault)
        self._installed = False
        self._ctx: Optional[ChaosContext] = None
        # fault index -> (time, total ledger height) snapshots.
        self._activated: Dict[int, Tuple[float, int]] = {}
        self._deactivated: Dict[int, Tuple[float, int]] = {}

    # -- construction ----------------------------------------------------
    def add(self, fault: Fault) -> Fault:
        """Append one fault; returns it for chaining."""
        if not isinstance(fault, Fault):
            raise ConfigurationError(
                f"timeline entries must be Fault instances, got "
                f"{type(fault).__name__}")
        self._faults.append(fault)
        return fault

    @property
    def faults(self) -> Tuple[Fault, ...]:
        """The scheduled faults, in insertion order."""
        return tuple(self._faults)

    def __len__(self) -> int:
        return len(self._faults)

    def describe(self) -> str:
        """Multi-line fault plan (one line per fault)."""
        if not self._faults:
            return f"timeline {self.name!r}: (no faults)"
        lines = [f"timeline {self.name!r}: {len(self._faults)} faults"]
        lines.extend(f"  {fault.describe()}" for fault in self._faults)
        return "\n".join(lines)

    # -- declarative form ------------------------------------------------
    def to_dict(self) -> dict:
        return {"name": self.name,
                "faults": [fault.to_dict() for fault in self._faults]}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, spec) -> "FaultTimeline":
        if not isinstance(spec, dict):
            raise ConfigurationError(
                "timeline spec must be an object with a 'faults' list")
        faults = spec.get("faults")
        if not isinstance(faults, list):
            raise ConfigurationError(
                "timeline spec needs a 'faults' list")
        return cls((fault_from_dict(entry) for entry in faults),
                   name=spec.get("name", "timeline"))

    @classmethod
    def from_json(cls, text: str) -> "FaultTimeline":
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"timeline spec is not valid JSON: {exc}") from exc
        return cls.from_dict(spec)

    @classmethod
    def load(cls, path: str) -> "FaultTimeline":
        """Read a timeline from a JSON file."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read fault timeline {path!r}: {exc}") from exc
        return cls.from_json(text)

    # -- scheduling ------------------------------------------------------
    def install(self, deployment) -> "FaultTimeline":
        """Schedule every fault on the deployment's simulator.

        A timeline instance carries per-run bookkeeping, so it installs
        exactly once; build a fresh timeline (or reload the spec) for
        each deployment.
        """
        if self._installed:
            raise ConfigurationError(
                "timeline already installed; build a fresh FaultTimeline "
                "per deployment")
        if getattr(deployment, "timeline", None) is not None:
            raise ConfigurationError(
                "deployment already has a fault timeline "
                f"({deployment.timeline.name!r}); merge the faults into "
                "one timeline instead")
        seed = (deployment.config.seed * 1_000_003
                + zlib.crc32(self.name.encode("utf-8")))
        self._ctx = ChaosContext(deployment, random.Random(seed))
        self._installed = True
        deployment.timeline = self
        sim = deployment.sim
        for index, fault in enumerate(self._faults):
            sim.post(max(0.0, fault.at - sim.now),
                     self._activate, index, fault)
        return self

    def _progress(self) -> int:
        deployment = self._ctx.deployment
        return sum(replica.ledger.height
                   for replica in deployment.replicas.values())

    def _activate(self, index: int, fault: Fault) -> None:
        ctx = self._ctx
        fault.activate(ctx)
        self._activated[index] = (ctx.sim.now, self._progress())
        self._emit(index, fault, "fault_on")
        if fault.until is not None:
            ctx.sim.post(max(0.0, fault.until - ctx.sim.now),
                         self._deactivate, index, fault)

    def _deactivate(self, index: int, fault: Fault) -> None:
        ctx = self._ctx
        fault.deactivate(ctx)
        self._deactivated[index] = (ctx.sim.now, self._progress())
        self._emit(index, fault, "fault_off")

    def _emit(self, index: int, fault: Fault, phase: str) -> None:
        """Record the transition in the instrumentation hub (if any).

        Observation-only: the hub is never required, and emitting does
        not consume simulator events or randomness, so instrumented and
        bare runs stay byte-identical.
        """
        instr = self._ctx.deployment.instrumentation
        if instr is None:
            return
        node = (fault.resolved_targets[0] if fault.resolved_targets
                else fault.name)
        instr.phase(phase, node, 0, index, detail=fault.name)
        instr.count(f"chaos.{phase}")
        instr.count(f"chaos.{fault.kind}.{phase}")

    # -- post-run auditing ----------------------------------------------
    def byzantine_nodes(self) -> FrozenSet[NodeId]:
        """Every node whose behaviour a fault corrupted (post-install)."""
        out: set = set()
        for fault in self._faults:
            out |= fault.byzantine_nodes()
        return frozenset(out)

    def activation_log(self) -> List[Tuple[str, str, float]]:
        """(fault name, 'on'/'off', time) transitions that happened."""
        log: List[Tuple[str, str, float]] = []
        for index, (time, _) in self._activated.items():
            log.append((self._faults[index].name, "on", time))
        for index, (time, _) in self._deactivated.items():
            log.append((self._faults[index].name, "off", time))
        return sorted(log, key=lambda entry: (entry[2], entry[1]))

    def liveness_failures(self, deployment) -> List[str]:
        """Fault windows after which the ledgers made no progress.

        For a windowed fault the reference point is deactivation (did
        throughput resume after the heal/recovery?); for an open-ended
        fault it is activation (did the system reconfigure around the
        fault — view change, remote view change — and keep committing?).
        Faults with ``expect_recovery=False`` and windows still open at
        the end of the run are skipped.
        """
        failures: List[str] = []
        final = sum(replica.ledger.height
                    for replica in deployment.replicas.values())
        for index, fault in enumerate(self._faults):
            if index not in self._activated or not fault.expect_recovery:
                continue
            if fault.until is not None:
                if index not in self._deactivated:
                    continue  # window still open when the run ended
                when, height = self._deactivated[index]
                what = "after its window closed"
            else:
                when, height = self._activated[index]
                what = "after it activated"
            if final <= height:
                failures.append(
                    f"fault {fault.name!r}: no ledger progress {what} "
                    f"(t={when:.3f}s, total height stuck at {height})")
        return failures
