"""``repro lint`` — static analysis for the repo's determinism contracts.

Every guarantee this reproduction makes — byte-identical
``deployment_digest`` values across seeds and engine overhauls, GeoBFT
safety under chaos timelines — rests on contracts that no unit test
states explicitly: simulated code never reads the wall clock, all
randomness flows through injected seeded generators, nothing unordered
feeds the event queue, hot-path message classes stay slotted, and
protocol handlers verify before they mutate.  This package turns those
contracts into machine-checked rules, the way deterministic-simulation
shops (FoundationDB and descendants) lint their sim code.

On top of the per-file rules, the interprocedural layer parses the
whole package as one program (:mod:`repro.lint.symbols`) and checks it
against the declarative per-protocol tables in
:mod:`repro.lint.specs`: the message-flow graph
(:mod:`repro.lint.msgflow`) and helper-delegated verify ordering
(:mod:`repro.lint.taint`).  A per-file rule in :mod:`repro.lint.quorum`
holds every vote-count comparison to a named
:class:`~repro.types.Quorums` threshold.

Public surface:

* :func:`run_lint` / :class:`LintReport` — run the rule engine over
  files or directories and collect :class:`Finding` objects.
* :data:`~repro.lint.rules.RULES` / :func:`default_rules` — the rule
  catalogue (see ``docs/static_analysis.md``).
* :data:`~repro.lint.allowlist.ALLOWLIST` — the committed allowlist of
  justified exceptions.
* :func:`~repro.lint.msgflow.extract_flows` /
  :func:`~repro.lint.msgflow.flow_report` /
  :func:`~repro.lint.msgflow.flow_dot` — the message-flow graph behind
  ``repro lint --flow-report`` / ``--flow-dot`` and the committed
  goldens in ``tests/golden/``.

Suppressions: append ``# repro: allow[rule-id] <reason>`` to the
flagged line (or put it on its own line directly above).  Allowlist
entries live in :mod:`repro.lint.allowlist` and must carry a
justification; an empty justification is a configuration error.
"""

from __future__ import annotations

from .allowlist import ALLOWLIST, AllowlistEntry
from .engine import Finding, LintReport, run_lint
from .msgflow import extract_flows, flow_dot, flow_report
from .rules import RULES, ProjectRule, Rule, default_rules, rule_ids
from .specs import PROTOCOL_SPECS, MessageSpec, ProtocolSpec
from .symbols import ProjectIndex, build_index

__all__ = [
    "ALLOWLIST",
    "AllowlistEntry",
    "Finding",
    "LintReport",
    "MessageSpec",
    "PROTOCOL_SPECS",
    "ProjectIndex",
    "ProjectRule",
    "ProtocolSpec",
    "RULES",
    "Rule",
    "build_index",
    "default_rules",
    "extract_flows",
    "flow_dot",
    "flow_report",
    "rule_ids",
    "run_lint",
]
