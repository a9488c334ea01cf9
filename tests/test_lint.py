"""Tests for ``repro lint``: every rule fires on a bad fixture and stays
quiet on the matching good one, suppressions and the allowlist waive
findings (with an audit trail), the ``--json`` schema is stable, and the
repository's own tree lints clean."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.lint import AllowlistEntry, default_rules, rule_ids, run_lint
from repro.lint.engine import lint_source

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src" / "repro")


def findings_for(source: str, rule: str, path: str = "module.py",
                 **kwargs):
    report = lint_source(textwrap.dedent(source), path=path,
                        rules=default_rules([rule]), **kwargs)
    return [f for f in report.findings if f.rule == rule]


# ---------------------------------------------------------------------------
# Rule: no-wallclock
# ---------------------------------------------------------------------------
class TestNoWallclock:
    def test_fires_on_time_time(self):
        bad = """
            import time

            def now():
                return time.time()
        """
        found = findings_for(bad, "no-wallclock")
        assert len(found) == 1
        assert found[0].symbol == "now"
        assert "time.time" in found[0].message

    def test_sees_through_module_alias(self):
        bad = """
            import time as t

            def now():
                return t.monotonic()
        """
        assert findings_for(bad, "no-wallclock")

    def test_sees_through_from_import(self):
        bad = """
            from time import perf_counter as pc

            def now():
                return pc()
        """
        assert findings_for(bad, "no-wallclock")

    def test_fires_on_datetime_now(self):
        bad = """
            import datetime

            def stamp():
                return datetime.datetime.now()
        """
        assert findings_for(bad, "no-wallclock")

    def test_quiet_on_virtual_time(self):
        good = """
            def now(sim):
                return sim.now
        """
        assert not findings_for(good, "no-wallclock")

    def test_quiet_on_time_constants(self):
        good = """
            import time

            def zone():
                return time.timezone
        """
        assert not findings_for(good, "no-wallclock")


# ---------------------------------------------------------------------------
# Rule: no-unseeded-random
# ---------------------------------------------------------------------------
class TestNoUnseededRandom:
    def test_fires_on_module_level_random(self):
        bad = """
            import random

            def jitter():
                return random.random()
        """
        found = findings_for(bad, "no-unseeded-random")
        assert len(found) == 1
        assert "unseeded" in found[0].message

    def test_fires_on_unseeded_random_constructor(self):
        bad = """
            import random

            def make_rng():
                return random.Random()
        """
        assert findings_for(bad, "no-unseeded-random")

    def test_fires_on_from_import_of_module_function(self):
        bad = """
            from random import choice

            def pick(xs):
                return choice(xs)
        """
        assert findings_for(bad, "no-unseeded-random")

    def test_fires_on_secrets_and_uuid4_and_urandom(self):
        bad = """
            import os
            import secrets
            import uuid

            def ids():
                return secrets.token_bytes(8), uuid.uuid4(), os.urandom(4)
        """
        assert len(findings_for(bad, "no-unseeded-random")) == 3

    def test_quiet_on_seeded_generator(self):
        good = """
            import random

            def make_rng(seed):
                return random.Random(seed)

            def jitter(rng):
                return rng.random()
        """
        assert not findings_for(good, "no-unseeded-random")


# ---------------------------------------------------------------------------
# Rule: deterministic-iteration
# ---------------------------------------------------------------------------
class TestDeterministicIteration:
    def test_fires_on_set_iteration_into_send(self):
        bad = """
            def fan_out(net, src, peers, message):
                for peer in set(peers):
                    net.send(src, peer, message)
        """
        found = findings_for(bad, "deterministic-iteration")
        assert len(found) == 1
        assert "sorted()" in found[0].message

    def test_fires_on_set_literal_and_set_variable(self):
        bad = """
            def fan_out(net, src, message):
                peers = {1, 2, 3}
                for peer in peers:
                    net.post(0.0, src, peer, message)
        """
        assert findings_for(bad, "deterministic-iteration")

    def test_fires_on_set_iteration_into_a_lane_post(self):
        bad = """
            def dispatch(sim, lane, handler, messages, sender):
                for message in set(messages):
                    sim.post_lane(lane, 0.0, handler, message, sender)
        """
        assert findings_for(bad, "deterministic-iteration")

    def test_scheduler_names_are_the_simulators_queueing_methods(self):
        """The lint rules' one list of scheduling names is exactly the
        public ``Simulation`` methods that queue an event: those that
        mint a sequence number, directly or through another method.  A
        new scheduling path fails here until the list names it."""
        import ast
        import inspect

        from repro.lint.rules import SCHEDULERS
        from repro.net.simulator import Simulation

        tree = ast.parse(textwrap.dedent(inspect.getsource(Simulation)))
        methods = {node.name: node for node in tree.body[0].body
                   if isinstance(node, ast.FunctionDef)}

        def mints(node):
            return any(isinstance(n, ast.Attribute) and n.attr == "_seq"
                       and isinstance(n.ctx, ast.Store)
                       for n in ast.walk(node))

        def calls(node):
            return {n.func.attr for n in ast.walk(node)
                    if isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and isinstance(n.func.value, ast.Name)
                    and n.func.value.id == "self"}

        queueing = {name for name, node in methods.items()
                    if name != "__init__" and mints(node)}
        while True:
            more = {name for name, node in methods.items()
                    if calls(node) & queueing} - queueing
            if not more:
                break
            queueing |= more
        public = {name for name in queueing if not name.startswith("_")}
        assert {"post", "post_lane", "schedule"} <= public
        assert public == SCHEDULERS

    def test_fires_on_set_passed_to_multicast(self):
        bad = """
            def fan_out(net, src, peers, message):
                net.multicast(src, set(peers), message)
        """
        assert findings_for(bad, "deterministic-iteration")

    def test_quiet_on_sorted_set(self):
        good = """
            def fan_out(net, src, peers, message):
                for peer in sorted(set(peers)):
                    net.send(src, peer, message)
        """
        assert not findings_for(good, "deterministic-iteration")

    def test_quiet_on_set_iteration_without_event_sink(self):
        # Aggregation over a set (no ordering consequence) is fine.
        good = """
            def total(sizes):
                acc = 0
                for size in set(sizes):
                    acc += size
                return acc
        """
        assert not findings_for(good, "deterministic-iteration")

    def test_quiet_on_list_iteration_into_send(self):
        good = """
            def fan_out(net, src, peers, message):
                for peer in peers:
                    net.send(src, peer, message)
        """
        assert not findings_for(good, "deterministic-iteration")


# ---------------------------------------------------------------------------
# Rule: no-identity-ordering
# ---------------------------------------------------------------------------
class TestNoIdentityOrdering:
    def test_fires_on_id_sort_key(self):
        bad = """
            def order(messages):
                return sorted(messages, key=id)
        """
        found = findings_for(bad, "no-identity-ordering")
        assert len(found) == 1
        assert "id()" in found[0].message

    def test_fires_on_hash_inside_sort_key_lambda(self):
        bad = """
            def order(messages):
                messages.sort(key=lambda m: hash(m))
        """
        assert findings_for(bad, "no-identity-ordering")

    def test_fires_on_id_comparison(self):
        bad = """
            def tie_break(a, b):
                return a if id(a) < id(b) else b
        """
        assert findings_for(bad, "no-identity-ordering")

    def test_quiet_on_stable_sort_key(self):
        good = """
            def order(messages):
                return sorted(messages, key=lambda m: (m.seq, str(m.replica)))
        """
        assert not findings_for(good, "no-identity-ordering")

    def test_quiet_on_id_as_memo_key(self):
        # Identity used for caching (never ordered) is the documented
        # legitimate use.
        good = """
            def memoize(cache, batch, value):
                cache[id(batch)] = value
        """
        assert not findings_for(good, "no-identity-ordering")


# ---------------------------------------------------------------------------
# Rule: slots-coverage (path-scoped to hot-path modules)
# ---------------------------------------------------------------------------
class TestSlotsCoverage:
    HOT_PATH = "repro/consensus/messages.py"

    def test_fires_on_slotless_class_in_hot_module(self):
        bad = """
            class Prepare:
                def __init__(self, seq):
                    self.seq = seq
        """
        found = findings_for(bad, "slots-coverage", path=self.HOT_PATH)
        assert len(found) == 1
        assert "Prepare" in found[0].message

    def test_quiet_on_slotted_class(self):
        good = """
            class Prepare:
                __slots__ = ("seq",)

                def __init__(self, seq):
                    self.seq = seq
        """
        assert not findings_for(good, "slots-coverage", path=self.HOT_PATH)

    def test_quiet_outside_hot_modules(self):
        bad = """
            class Anything:
                pass
        """
        assert not findings_for(bad, "slots-coverage", path="repro/cli.py")

    def test_exempts_protocol_and_exception_classes(self):
        good = """
            from typing import Protocol

            class NodeLike(Protocol):
                def deliver(self, message, sender): ...

            class BadThing(Exception):
                pass
        """
        assert not findings_for(good, "slots-coverage", path=self.HOT_PATH)


# ---------------------------------------------------------------------------
# Rule: verify-before-mutate (path-scoped to protocol modules)
# ---------------------------------------------------------------------------
class TestVerifyBeforeMutate:
    PROTOCOL = "repro/consensus/pbft.py"

    def test_fires_when_mutation_precedes_verify(self):
        bad = """
            class Engine:
                def _on_commit(self, msg, sender):
                    self._commits[msg.seq] = msg
                    if not self._verify_commit(msg):
                        return
        """
        found = findings_for(bad, "verify-before-mutate", path=self.PROTOCOL)
        assert len(found) == 1
        assert "_on_commit" in found[0].message
        assert found[0].symbol == "Engine._on_commit"

    def test_quiet_when_verify_comes_first(self):
        good = """
            class Engine:
                def _on_commit(self, msg, sender):
                    if not self._verify_commit(msg):
                        return
                    self._commits[msg.seq] = msg
        """
        assert not findings_for(good, "verify-before-mutate",
                                path=self.PROTOCOL)

    def test_exempts_handlers_without_verification(self):
        # MAC-authenticated handlers have no verify call; transport
        # covers them, so mutation placement is unconstrained.
        good = """
            class Engine:
                def _on_prepare(self, msg, sender):
                    self._prepares[msg.seq] = msg
        """
        assert not findings_for(good, "verify-before-mutate",
                                path=self.PROTOCOL)

    def test_quiet_outside_protocol_modules(self):
        bad = """
            class Engine:
                def _on_commit(self, msg, sender):
                    self._commits[msg.seq] = msg
                    self._verify_commit(msg)
        """
        assert not findings_for(bad, "verify-before-mutate",
                                path="repro/bench/metrics.py")


# ---------------------------------------------------------------------------
# Rule: no-silent-except
# ---------------------------------------------------------------------------
class TestNoSilentExcept:
    def test_fires_on_swallowed_broad_except(self):
        bad = """
            def load(fn):
                try:
                    return fn()
                except Exception:
                    pass
        """
        found = findings_for(bad, "no-silent-except")
        assert len(found) == 1

    def test_fires_on_bare_except(self):
        bad = """
            def load(fn):
                try:
                    return fn()
                except:
                    return None
        """
        assert findings_for(bad, "no-silent-except")

    def test_quiet_on_narrow_except(self):
        good = """
            def load(fn):
                try:
                    return fn()
                except ValueError:
                    return None
        """
        assert not findings_for(good, "no-silent-except")

    def test_quiet_when_reraised(self):
        good = """
            def load(fn):
                try:
                    return fn()
                except Exception as exc:
                    raise RuntimeError("load failed") from exc
        """
        assert not findings_for(good, "no-silent-except")


# ---------------------------------------------------------------------------
# Rule: no-cross-worker-shared-state
# ---------------------------------------------------------------------------
class TestNoCrossWorkerSharedState:
    PATH = "repro/consensus/fancy.py"
    RULE = "no-cross-worker-shared-state"

    def test_fires_on_mutated_module_dict(self):
        bad = """
            _SEEN = {}

            def handle(msg):
                _SEEN[msg.key] = msg
        """
        found = findings_for(bad, self.RULE, path=self.PATH)
        assert len(found) == 1
        assert "_SEEN" in found[0].message
        assert "worker" in found[0].message

    def test_fires_on_mutator_method_call(self):
        bad = """
            _PENDING = []

            def handle(msg):
                _PENDING.append(msg)
        """
        assert findings_for(bad, self.RULE, path=self.PATH)

    def test_fires_on_global_rebinding(self):
        bad = """
            _ROUND = 0

            def handle(msg):
                global _ROUND
                _ROUND += 1
        """
        found = findings_for(bad, self.RULE, path=self.PATH)
        assert found and "global" in found[0].message

    def test_fires_on_delete_of_module_state(self):
        bad = """
            _CACHE = {}

            def evict(key):
                del _CACHE[key]
        """
        assert findings_for(bad, self.RULE, path=self.PATH)

    def test_quiet_on_readonly_lookup_table(self):
        good = """
            _NEXT_PHASE = {"prepare": "precommit"}

            def advance(phase):
                return _NEXT_PHASE[phase]
        """
        assert not findings_for(good, self.RULE, path=self.PATH)

    def test_quiet_on_immutable_constants(self):
        good = """
            KINDS = ("crash", "partition")
            NAMES = frozenset({"a", "b"})

            def check(kind):
                return kind in KINDS
        """
        assert not findings_for(good, self.RULE, path=self.PATH)

    def test_quiet_on_instance_state(self):
        good = """
            class Replica:
                def __init__(self):
                    self._seen = {}

                def handle(self, msg):
                    self._seen[msg.key] = msg
        """
        assert not findings_for(good, self.RULE, path=self.PATH)

    def test_quiet_outside_protocol_modules(self):
        bad = """
            _SEEN = {}

            def handle(msg):
                _SEEN[msg.key] = msg
        """
        assert not findings_for(bad, self.RULE, path="repro/bench/tool.py")

    def test_repo_protocol_modules_are_clean(self):
        report = run_lint([REPO_SRC], rules=default_rules([self.RULE]))
        assert report.ok, report.format_text()


# ---------------------------------------------------------------------------
# Suppressions and the allowlist
# ---------------------------------------------------------------------------
WALLCLOCK_BAD = """
import time

def now():
    return time.time()
"""


class TestSuppressions:
    def test_same_line_suppression_waives(self):
        source = WALLCLOCK_BAD.replace(
            "return time.time()",
            "return time.time()  # repro: allow[no-wallclock] calibration")
        report = lint_source(source, rules=default_rules(["no-wallclock"]))
        assert report.ok
        assert len(report.waived) == 1
        assert report.waived[0].rule == "no-wallclock"

    def test_comment_above_suppresses_next_line(self):
        source = WALLCLOCK_BAD.replace(
            "    return time.time()",
            "    # repro: allow[no-wallclock] calibration\n"
            "    return time.time()")
        report = lint_source(source, rules=default_rules(["no-wallclock"]))
        assert report.ok
        assert len(report.waived) == 1

    def test_wrong_rule_id_does_not_suppress(self):
        source = WALLCLOCK_BAD.replace(
            "return time.time()",
            "return time.time()  # repro: allow[no-silent-except] wrong id")
        report = lint_source(source, rules=default_rules(["no-wallclock"]))
        assert not report.ok

    def test_multiple_rule_ids_in_one_comment(self):
        source = WALLCLOCK_BAD.replace(
            "return time.time()",
            "return time.time()  "
            "# repro: allow[no-silent-except, no-wallclock] both")
        report = lint_source(source, rules=default_rules(["no-wallclock"]))
        assert report.ok


class TestAllowlist:
    def test_entry_waives_matching_finding(self):
        entry = AllowlistEntry(rule="no-wallclock", path="module.py",
                               justification="host-side calibration")
        report = lint_source(WALLCLOCK_BAD, path="module.py",
                             rules=default_rules(["no-wallclock"]),
                             allowlist=[entry])
        assert report.ok
        assert len(report.waived) == 1

    def test_entry_matches_by_symbol(self):
        entry = AllowlistEntry(rule="no-wallclock", path="module.py",
                               symbol="now", justification="calibration")
        report = lint_source(WALLCLOCK_BAD, path="module.py",
                             rules=default_rules(["no-wallclock"]),
                             allowlist=[entry])
        assert report.ok

    def test_symbol_mismatch_does_not_waive(self):
        entry = AllowlistEntry(rule="no-wallclock", path="module.py",
                               symbol="other_function",
                               justification="calibration")
        report = lint_source(WALLCLOCK_BAD, path="module.py",
                             rules=default_rules(["no-wallclock"]),
                             allowlist=[entry])
        assert not report.ok

    def test_path_mismatch_does_not_waive(self):
        entry = AllowlistEntry(rule="no-wallclock", path="other.py",
                               justification="calibration")
        report = lint_source(WALLCLOCK_BAD, path="module.py",
                             rules=default_rules(["no-wallclock"]),
                             allowlist=[entry])
        assert not report.ok

    def test_empty_justification_is_a_configuration_error(self):
        entry = AllowlistEntry(rule="no-wallclock", path="module.py",
                               justification="   ")
        with pytest.raises(ConfigurationError):
            lint_source(WALLCLOCK_BAD, path="module.py",
                        rules=default_rules(["no-wallclock"]),
                        allowlist=[entry])

    def test_committed_allowlist_entries_are_all_justified(self):
        from repro.lint import ALLOWLIST

        assert all(entry.justification.strip() for entry in ALLOWLIST)


# ---------------------------------------------------------------------------
# Engine behaviour: reports, JSON schema, CLI
# ---------------------------------------------------------------------------
class TestEngine:
    def test_rule_catalogue_has_at_least_six_rules(self):
        assert len(rule_ids()) >= 6
        assert len(set(rule_ids())) == len(rule_ids())

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ConfigurationError):
            default_rules(["not-a-rule"])

    def test_syntax_error_becomes_parse_error_finding(self):
        report = lint_source("def broken(:\n")
        assert not report.ok
        assert report.findings[0].rule == "parse-error"

    def test_findings_are_sorted_and_formatted(self):
        source = """
import time

def a():
    return time.time()

def b():
    return time.monotonic()
"""
        report = lint_source(source, path="mod.py",
                             rules=default_rules(["no-wallclock"]))
        lines = [f.line for f in report.findings]
        assert lines == sorted(lines)
        assert report.findings[0].format().startswith("mod.py:")

    def test_json_schema(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(WALLCLOCK_BAD)
        report = run_lint([str(bad)])
        payload = report.to_dict()
        assert payload["version"] == 2
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        assert set(payload["rules"]) == set(rule_ids())
        finding = payload["findings"][0]
        assert set(finding) == {"rule", "path", "line", "col", "message",
                                "symbol"}
        assert payload["counts"]["findings"] == len(payload["findings"])
        assert payload["counts"]["waived"] == len(payload["waived"])
        assert payload["counts"]["by_rule"]["no-wallclock"] == 1
        assert json.loads(json.dumps(payload)) == payload

    def test_json_schema_round_trips(self, tmp_path):
        from repro.lint import LintReport

        bad = tmp_path / "bad.py"
        bad.write_text(WALLCLOCK_BAD)
        report = run_lint([str(bad)])
        payload = json.loads(json.dumps(report.to_dict()))
        rebuilt = LintReport.from_dict(payload)
        assert rebuilt.to_dict() == report.to_dict()

    def test_from_dict_accepts_v1_documents(self):
        from repro.lint import LintReport

        v1 = {
            "version": 1,
            "ok": False,
            "files_checked": 1,
            "rules": ["no-wallclock"],
            "findings": [{"rule": "no-wallclock", "path": "m.py",
                          "line": 4, "col": 11,
                          "message": "wall clock", "symbol": "now"}],
            "waived": [],
        }
        rebuilt = LintReport.from_dict(v1)
        assert not rebuilt.ok
        assert rebuilt.findings[0].rule == "no-wallclock"
        # Re-serializing upgrades to v2 with derived counts.
        assert rebuilt.to_dict()["version"] == 2
        assert rebuilt.to_dict()["counts"]["findings"] == 1

    def test_from_dict_rejects_unknown_version(self):
        from repro.lint import LintReport

        with pytest.raises(ConfigurationError):
            LintReport.from_dict({"version": 3})

    def test_missing_target_raises(self):
        with pytest.raises(ConfigurationError):
            run_lint(["no/such/path.py"])


class TestCli:
    def test_lint_clean_file_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("def f(sim):\n    return sim.now\n")
        assert cli_main(["lint", str(good)]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_lint_bad_file_exits_one_with_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(WALLCLOCK_BAD)
        assert cli_main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "no-wallclock" in out

    def test_lint_json_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(WALLCLOCK_BAD)
        assert cli_main(["lint", str(bad), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert payload["findings"][0]["rule"] == "no-wallclock"

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in rule_ids():
            assert rule_id in out

    def test_rule_filter(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(WALLCLOCK_BAD)
        assert cli_main(["lint", str(bad), "--rule",
                         "no-silent-except"]) == 0

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        assert cli_main(["lint", str(tmp_path), "--rule", "bogus"]) == 2


# ---------------------------------------------------------------------------
# The contract this PR ships: the repository's own tree lints clean.
# ---------------------------------------------------------------------------
def test_repro_tree_lints_clean():
    report = run_lint([REPO_SRC])
    assert report.ok, "\n" + report.format_text()
    assert report.files_checked > 40
