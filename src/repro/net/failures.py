"""Failure and Byzantine-behaviour injection.

The paper's §4.3 evaluates three failure scenarios (one non-primary
crash, ``f`` non-primary crashes per cluster, one primary crash) and the
protocol sections reason about Byzantine primaries that selectively omit
messages (Example 2.4).  This module centralizes all of that:

* **Crashes** — a crashed node neither sends nor receives.
* **Partitions** — arbitrary directed (src, dst) pairs can be severed.
* **Send rules** — predicates suppress specific messages at the sender,
  modelling Byzantine omission (e.g. "primary of C1 never sends global
  shares to C2", the trigger for GeoBFT's remote view change).
* **Receive rules** — predicates drop messages at the receiver,
  modelling case (2) of Example 2.4 (a Byzantine receiver pretending it
  got nothing).
* **Drop rules** — predicates lose a message *in flight* after the
  sender paid full transmit time (lossy links, partition bursts).
* **Delay rules** — callables adding extra one-way latency to matching
  sends (degraded links, jitter injection).
* **Transform rules** — callables that may replace a message with a
  tampered copy at the sender, modelling Byzantine equivocation and
  payload tampering; honest receivers must reject the result through
  their digest/signature verification paths.

Rules are kept outside protocol code so a test or benchmark configures a
scenario purely through the :class:`FailureModel`.  The scheduled-fault
layer on top of this module lives in :mod:`repro.net.chaos`: a
:class:`~repro.net.chaos.FaultTimeline` turns declarative, introspectable
``Fault`` objects into rule (de)installations on the simulator clock.
"""

from __future__ import annotations

from typing import Callable, Set

from ..types import NodeId

#: Predicate over (src, dst, message) deciding whether to drop.
DropRule = Callable[[NodeId, NodeId, object], bool]

#: Extra one-way delay (seconds) to add to a matching send.
DelayRule = Callable[[NodeId, NodeId, object], float]

#: Returns a replacement message (tampered copy), the original (no-op),
#: or ``None`` to swallow the send entirely.
TransformRule = Callable[[NodeId, NodeId, object], object]


class FailureModel:
    """Mutable failure state consulted by :class:`repro.net.network.Network`."""

    def __init__(self) -> None:
        self._crashed: Set[NodeId] = set()
        self._severed: Set[tuple[NodeId, NodeId]] = set()
        self._send_rules: list[DropRule] = []
        self._receive_rules: list[DropRule] = []
        self._drop_rules: list[DropRule] = []
        self._delay_rules: list[DelayRule] = []
        self._transform_rules: list[TransformRule] = []

    # ------------------------------------------------------------------
    # Crash faults
    # ------------------------------------------------------------------
    def crash(self, node: NodeId) -> None:
        """Crash ``node``: it stops sending and receiving from now on."""
        self._crashed.add(node)

    def recover(self, node: NodeId) -> None:
        """Undo a crash (the node resumes with whatever state it kept)."""
        self._crashed.discard(node)

    def is_crashed(self, node: NodeId) -> bool:
        """Whether ``node`` is currently crashed."""
        return node in self._crashed

    @property
    def crashed_nodes(self) -> frozenset[NodeId]:
        """Snapshot of currently crashed nodes."""
        return frozenset(self._crashed)

    # ------------------------------------------------------------------
    # Network partitions
    # ------------------------------------------------------------------
    def sever(self, src: NodeId, dst: NodeId) -> None:
        """Drop everything sent from ``src`` to ``dst`` (directed)."""
        self._severed.add((src, dst))

    def heal(self, src: NodeId, dst: NodeId) -> None:
        """Restore a severed directed link."""
        self._severed.discard((src, dst))

    def sever_bidirectional(self, a: NodeId, b: NodeId) -> None:
        """Drop traffic in both directions between two nodes."""
        self.sever(a, b)
        self.sever(b, a)

    # ------------------------------------------------------------------
    # Byzantine omission rules
    # ------------------------------------------------------------------
    def add_send_rule(self, rule: DropRule) -> DropRule:
        """Suppress sends matching ``rule`` (at the sender, before the
        uplink — a malicious sender spends no bandwidth on omitted
        messages).  Returns the rule so callers can remove it later."""
        self._send_rules.append(rule)
        return rule

    def remove_send_rule(self, rule: DropRule) -> None:
        """Remove a previously added send rule (idempotent)."""
        if rule in self._send_rules:
            self._send_rules.remove(rule)

    def add_receive_rule(self, rule: DropRule) -> DropRule:
        """Drop deliveries matching ``rule`` at the receiver."""
        self._receive_rules.append(rule)
        return rule

    def remove_receive_rule(self, rule: DropRule) -> None:
        """Remove a previously added receive rule (idempotent)."""
        if rule in self._receive_rules:
            self._receive_rules.remove(rule)

    # ------------------------------------------------------------------
    # Link-quality and Byzantine-tampering rules (chaos engine)
    # ------------------------------------------------------------------
    def add_drop_rule(self, rule: DropRule) -> DropRule:
        """Lose matching messages in flight (full transmit time paid)."""
        self._drop_rules.append(rule)
        return rule

    def remove_drop_rule(self, rule: DropRule) -> None:
        """Remove a previously added in-flight drop rule (idempotent)."""
        if rule in self._drop_rules:
            self._drop_rules.remove(rule)

    def add_delay_rule(self, rule: DelayRule) -> DelayRule:
        """Add extra one-way latency to matching sends."""
        self._delay_rules.append(rule)
        return rule

    def remove_delay_rule(self, rule: DelayRule) -> None:
        """Remove a previously added delay rule (idempotent)."""
        if rule in self._delay_rules:
            self._delay_rules.remove(rule)

    def add_transform_rule(self, rule: TransformRule) -> TransformRule:
        """Let ``rule`` replace matching outbound messages (tampering)."""
        self._transform_rules.append(rule)
        return rule

    def remove_transform_rule(self, rule: TransformRule) -> None:
        """Remove a previously added transform rule (idempotent)."""
        if rule in self._transform_rules:
            self._transform_rules.remove(rule)

    @property
    def any_send_path_faults(self) -> bool:
        """Whether anything on the *send* path (suppression, tampering,
        partitions, in-flight loss, extra delay) is armed; if not, the
        network skips the per-copy queries below.  Receive-side rules
        are excluded: they are evaluated at delivery time."""
        return bool(self._crashed or self._send_rules
                    or self._transform_rules or self._severed
                    or self._drop_rules or self._delay_rules)

    # ------------------------------------------------------------------
    # Queries used by the network
    # ------------------------------------------------------------------
    def suppresses_send(self, src: NodeId, dst: NodeId, message) -> bool:
        """Whether the send never leaves ``src`` (crash or omission)."""
        if src in self._crashed:
            return True
        return any(rule(src, dst, message) for rule in self._send_rules)

    def transform(self, src: NodeId, dst: NodeId, message):
        """Apply transform rules in order; ``None`` swallows the send."""
        for rule in self._transform_rules:
            message = rule(src, dst, message)
            if message is None:
                return None
        return message

    def extra_delay(self, src: NodeId, dst: NodeId, message) -> float:
        """Sum of extra one-way latency from all delay rules."""
        total = 0.0
        for rule in self._delay_rules:
            total += rule(src, dst, message)
        return total

    def drops_in_flight(self, src: NodeId, dst: NodeId, message) -> bool:
        """Whether the network loses the message after transmission."""
        if (src, dst) in self._severed:
            return True
        return any(rule(src, dst, message) for rule in self._drop_rules)

    def drops_at_receiver(self, src: NodeId, dst: NodeId, message) -> bool:
        """Whether the receiver never sees the delivery."""
        if dst in self._crashed:
            return True
        return any(rule(src, dst, message) for rule in self._receive_rules)
