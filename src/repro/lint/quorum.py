"""Quorum thresholds: a vote count compares only against a named threshold.

Every safety argument in the five protocols hangs on a few thresholds
per membership, and :class:`repro.types.Quorums` names each of them
once: ``intersect`` (``n - f``), ``certificate`` (``2f + 1``),
``one_honest`` (``f + 1``) and ``all`` (``n``); a threshold-signature
scheme adds its ``k``.  In the protocol, message and client modules, a
comparison with a vote count on one side — ``len()`` of a vote
collection, a vote counter such as ``slot.prepared_count``, or the
``verified_quorum()`` memo — must have one of those attribute names on
the other, and must read ``count >= threshold`` (reached) or
``count < threshold`` (not yet), mirrored when the count is on the
right.  Magic numbers, bare ``f``, local arithmetic (``2 * f + 1``) and
off-by-one operators (``> intersect``, ``<= f``) are findings by
construction: there is no arithmetic left to reduce.
"""

from __future__ import annotations

import ast
from typing import Optional

from .rules import Rule
from .specs import CLIENT_MODULES, MESSAGE_MODULES, PROTOCOL_MODULES

__all__ = ["QuorumArithmetic"]

#: Collections whose length is a vote/signer count.
_VOTE_COLLECTIONS = frozenset({
    "commits", "prepares", "prepared_by", "votes", "voters", "signers",
    "signatures", "responses", "acks", "shares", "replies", "best",
    "group", "matching", "view_change_replicas", "local_commits",
})

#: Attribute/name counters holding an already-counted quorum.
_VOTE_COUNTERS = frozenset({
    "prepared_count", "commit_count", "verified", "_verified_quorum",
})

#: ``Quorums`` threshold attributes, plus a ``ThresholdScheme``'s ``k``.
_THRESHOLDS = frozenset({"intersect", "certificate", "one_honest", "all",
                         "k"})


def _trailing_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_count(node: ast.expr) -> bool:
    if isinstance(node, ast.Call) and len(node.args) == 1:
        called = _trailing_name(node.func)
        if called == "len":
            return _trailing_name(node.args[0]) in _VOTE_COLLECTIONS
        return called == "verified_quorum"
    return _trailing_name(node) in _VOTE_COUNTERS


class QuorumArithmetic(Rule):
    """Vote counts compare only against ``Quorums`` thresholds."""

    id = "quorum-arithmetic"
    summary = ("vote counts compare, with >= or <, only against a Quorums "
               "threshold or a scheme's k")
    rationale = (
        "PBFT-family safety is quorum arithmetic: n-f intersection "
        "quorums, 2f+1 commit certificates, f+1 at-least-one-honest "
        "sets.  A threshold written as a magic number, as local "
        "arithmetic, or with the wrong strictness silently weakens the "
        "fault bound (RCanopus shows how fast hierarchical designs "
        "drift here).  repro.types.Quorums computes each threshold "
        "once per membership, so a vote count compares only against "
        "one of its names — intersect, certificate, one_honest, all — "
        "or a threshold scheme's k, and only as 'count >= threshold' "
        "or 'count < threshold'."
    )

    def applies_to(self, ctx) -> bool:
        return ctx.module_is(*PROTOCOL_MODULES, *MESSAGE_MODULES,
                             *CLIENT_MODULES)

    def visit_Compare(self, node: ast.Compare) -> None:
        self.generic_visit(node)
        if len(node.ops) != 1:
            return
        left, right = node.left, node.comparators[0]
        if _is_count(left) and not _is_count(right):
            threshold, allowed = right, (ast.GtE, ast.Lt)
        elif _is_count(right) and not _is_count(left):
            threshold, allowed = left, (ast.LtE, ast.Gt)
        else:
            return  # no count, or count-vs-count (a monotonic memo)
        if not (isinstance(threshold, ast.Attribute)
                and threshold.attr in _THRESHOLDS):
            self.report(node, f"vote count compared against "
                              f"{ast.unparse(threshold)!r}; compare "
                              "against a Quorums threshold (intersect, "
                              "certificate, one_honest, all) or a "
                              "scheme's k")
        elif not isinstance(node.ops[0], allowed):
            self.report(node, "off-by-one threshold: a vote count is "
                              "compared with "
                              f"{type(node.ops[0]).__name__}; use "
                              "'count >= threshold' (reached) or "
                              "'count < threshold' (not yet)")
