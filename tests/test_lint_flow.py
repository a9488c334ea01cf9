"""Tests for the interprocedural lint layer: planted-defect fixtures
for the three whole-program rule families (message flow, verify taint,
quorum arithmetic), the per-protocol golden flow graphs, and the CLI
surface (``--flow-report`` / ``--flow-dot`` / ``--changed``)."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import extract_flows, flow_dot, flow_report
from repro.lint.engine import discover_files, lint_source
from repro.lint.msgflow import (FlowDeadHandler, FlowOrphanMessage,
                                FlowSpecDivergence)
from repro.lint.quorum import QuorumArithmetic
from repro.lint.specs import MessageSpec, ProtocolSpec
from repro.lint.symbols import build_index
from repro.lint.taint import VerifyTaint

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src" / "repro")
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

FIXTURE_PATH = "repro/consensus/fixture.py"


def _toy_spec(messages=(), name="toy"):
    return ProtocolSpec(name=name, modules=(FIXTURE_PATH,),
                        phases=("only",),
                        messages=tuple(messages))


def _flow_findings(rule_cls, source, messages=()):
    rule = rule_cls(protocol_specs=(_toy_spec(messages),),
                    message_modules=(FIXTURE_PATH,))
    report = lint_source(textwrap.dedent(source), path=FIXTURE_PATH,
                         rules=[rule])
    return report.findings


# ---------------------------------------------------------------------------
# Rule: flow-orphan-message
# ---------------------------------------------------------------------------
ORPHAN_BAD = """
    class CachedEncodable:
        pass

    class Ping(CachedEncodable):
        pass

    class Engine:
        def _announce(self):
            self.net.broadcast(self.members, Ping())
"""


class TestFlowOrphanMessage:
    def test_fires_on_wire_message_without_consumer(self):
        found = _flow_findings(FlowOrphanMessage, ORPHAN_BAD)
        assert len(found) == 1
        assert found[0].rule == "flow-orphan-message"
        assert "Ping" in found[0].message
        assert "broadcast" in found[0].message

    def test_quiet_when_a_handler_exists(self):
        good = ORPHAN_BAD + """
    class Peer:
        def _on_ping(self, msg: Ping, sender):
            self.seen = msg

        def handle(self, message, sender):
            if isinstance(message, Ping):
                self._on_ping(message, sender)
"""
        assert not _flow_findings(FlowOrphanMessage, good)

    def test_quiet_on_local_only_message(self):
        local = """
            class CachedEncodable:
                pass

            class Note(CachedEncodable):
                pass

            class Engine:
                def _record(self):
                    note = Note()
                    self.log.append(note)
        """
        assert not _flow_findings(FlowOrphanMessage, local)

    def test_external_spec_entry_exempts(self):
        spec = MessageSpec("Ping", "only",
                           producers=("Engine._announce",),
                           consumers=(), fanout=("broadcast",),
                           external=True)
        assert not _flow_findings(FlowOrphanMessage, ORPHAN_BAD, [spec])


# ---------------------------------------------------------------------------
# Rule: flow-dead-handler
# ---------------------------------------------------------------------------
class TestFlowDeadHandler:
    def test_fires_on_unreferenced_handler(self):
        bad = """
            class CachedEncodable:
                pass

            class Ping(CachedEncodable):
                pass

            class Engine:
                def handle(self, message, sender):
                    return None  # dispatch ladder forgot Ping

                def _on_ping(self, msg: Ping, sender):
                    self.seen = msg
        """
        found = _flow_findings(FlowDeadHandler, bad)
        assert len(found) == 1
        assert found[0].rule == "flow-dead-handler"
        assert "_on_ping" in found[0].message

    def test_quiet_when_dispatcher_references_handler(self):
        good = """
            class CachedEncodable:
                pass

            class Ping(CachedEncodable):
                pass

            class Engine:
                def handle(self, message, sender):
                    if isinstance(message, Ping):
                        self._on_ping(message, sender)

                def _on_ping(self, msg: Ping, sender):
                    self.seen = msg
        """
        assert not _flow_findings(FlowDeadHandler, good)

    def test_quiet_on_handler_without_message_annotation(self):
        good = """
            class CachedEncodable:
                pass

            class Engine:
                def _on_timer(self, deadline):
                    self.deadline = deadline
        """
        assert not _flow_findings(FlowDeadHandler, good)


# ---------------------------------------------------------------------------
# Rule: flow-spec-divergence
# ---------------------------------------------------------------------------
HANDLED_PING = """
    class CachedEncodable:
        pass

    class Ping(CachedEncodable):
        pass

    class Engine:
        def _announce(self):
            self.net.broadcast(self.members, Ping())

        def handle(self, message, sender):
            if isinstance(message, Ping):
                self._on_ping(message, sender)

        def _on_ping(self, msg: Ping, sender):
            self.seen = msg
"""

PING_SPEC = MessageSpec("Ping", "only",
                        producers=("Engine._announce",),
                        consumers=("Engine._on_ping",),
                        fanout=("broadcast",))


class TestFlowSpecDivergence:
    def test_quiet_when_spec_matches(self):
        assert not _flow_findings(FlowSpecDivergence, HANDLED_PING,
                                  [PING_SPEC])

    def test_fires_on_undeclared_message(self):
        found = _flow_findings(FlowSpecDivergence, HANDLED_PING)
        assert len(found) == 1
        assert "not declared" in found[0].message

    def test_fires_on_undeclared_producer(self):
        drifted = HANDLED_PING + """
    class Rogue:
        def _resend(self):
            self.net.broadcast(self.members, Ping())
"""
        found = _flow_findings(FlowSpecDivergence, drifted, [PING_SPEC])
        assert len(found) == 1
        assert "undeclared producers" in found[0].message
        assert "Rogue._resend" in found[0].message

    def test_fires_on_missing_consumer(self):
        spec = MessageSpec("Ping", "only",
                           producers=("Engine._announce",),
                           consumers=("Engine._on_ping",
                                      "Engine._on_ping_v2"),
                           fanout=("broadcast",))
        found = _flow_findings(FlowSpecDivergence, HANDLED_PING, [spec])
        assert len(found) == 1
        assert "missing consumers" in found[0].message

    def test_fires_on_fanout_drift(self):
        spec = MessageSpec("Ping", "only",
                           producers=("Engine._announce",),
                           consumers=("Engine._on_ping",),
                           fanout=("unicast",))
        found = _flow_findings(FlowSpecDivergence, HANDLED_PING, [spec])
        assert len(found) == 1
        assert "fan-out" in found[0].message

    def test_fires_on_declared_but_absent_message(self):
        ghost = MessageSpec("Ghost", "only", producers=("Engine._x",),
                            consumers=(), fanout=("broadcast",))
        found = _flow_findings(FlowSpecDivergence, HANDLED_PING,
                               [PING_SPEC, ghost])
        assert len(found) == 1
        assert "never appears" in found[0].message


# ---------------------------------------------------------------------------
# Rule: verify-taint (interprocedural verify-before-mutate)
# ---------------------------------------------------------------------------
def _taint_findings(source):
    rule = VerifyTaint(modules=(FIXTURE_PATH,))
    report = lint_source(textwrap.dedent(source), path=FIXTURE_PATH,
                         rules=[rule])
    return report.findings


class TestVerifyTaint:
    def test_fires_on_helper_delegated_premature_mutation(self):
        bad = """
            class Engine:
                def _slot(self, seq):
                    entry = self._slots.get(seq)
                    if entry is None:
                        entry = self._slots[seq] = {}
                    return entry

                def _on_preprepare(self, msg, sender):
                    slot = self._slot(msg.seq)
                    if not self._verify_request(msg.request):
                        return
                    slot["msg"] = msg
        """
        found = _taint_findings(bad)
        assert len(found) == 1
        assert found[0].rule == "verify-taint"
        assert "Engine._slot" in found[0].message

    def test_follows_two_level_delegation(self):
        bad = """
            class Engine:
                def _store(self, seq):
                    self._slots[seq] = {}

                def _slot(self, seq):
                    self._store(seq)

                def _on_preprepare(self, msg, sender):
                    self._slot(msg.seq)
                    if not self._verify_request(msg.request):
                        return
        """
        assert _taint_findings(bad)

    def test_quiet_when_verify_dominates(self):
        good = """
            class Engine:
                def _slot(self, seq):
                    entry = self._slots.get(seq)
                    if entry is None:
                        entry = self._slots[seq] = {}
                    return entry

                def _on_preprepare(self, msg, sender):
                    if not self._verify_request(msg.request):
                        return
                    slot = self._slot(msg.seq)
                    slot["msg"] = msg
        """
        assert not _taint_findings(good)

    def test_quiet_when_helper_is_pure(self):
        good = """
            class Engine:
                def _digest(self, msg):
                    return hash(msg.payload)

                def _on_preprepare(self, msg, sender):
                    digest = self._digest(msg)
                    if not self._verify_request(msg.request):
                        return
                    self._slots[msg.seq] = digest
        """
        assert not _taint_findings(good)

    def test_exempts_handlers_without_verification(self):
        good = """
            class Engine:
                def _slot(self, seq):
                    self._slots[seq] = {}

                def _on_prepare(self, msg, sender):
                    self._slot(msg.seq)
        """
        assert not _taint_findings(good)


# ---------------------------------------------------------------------------
# Rule: quorum-arithmetic
# ---------------------------------------------------------------------------
#: A module in the rule's scope (the fixture stands in for it).
QUORUM_PATH = "repro/consensus/pbft.py"


def _quorum_findings(source, path=QUORUM_PATH):
    report = lint_source(textwrap.dedent(source), path=path,
                         rules=[QuorumArithmetic()])
    return report.findings


def _check(condition, setup=""):
    return f"""
        class Engine:
            def _check(self, votes, q):
                {setup}
                if {condition}:
                    self.decide()
    """


class TestQuorumArithmetic:
    def test_fires_on_magic_number_threshold(self):
        found = _quorum_findings(_check("len(votes) >= 3"))
        assert len(found) == 1
        assert found[0].rule == "quorum-arithmetic"
        assert "'3'" in found[0].message

    def test_fires_on_off_by_one_f_comparison(self):
        found = _quorum_findings(_check("len(votes) >= self._f"))
        assert len(found) == 1
        assert "'self._f'" in found[0].message

    def test_fires_on_strict_f_comparison(self):
        # Bare f is not a threshold, however strict the comparison.
        found = _quorum_findings(_check("len(votes) > self._f"))
        assert len(found) == 1
        assert "'self._f'" in found[0].message

    def test_fires_on_local_threshold_arithmetic(self):
        found = _quorum_findings(_check("len(votes) >= need",
                                        setup="need = 2 * self._f + 1"))
        assert len(found) == 1
        assert "'need'" in found[0].message

    def test_fires_on_declared_n_minus_f(self):
        found = _quorum_findings("""
            class Engine:
                def __init__(self, n, f):
                    self._n = n
                    self._f = f
                    self._quorum = self._n - self._f

                def _check(self, votes):
                    if len(votes) >= self._quorum:
                        self.decide()
        """)
        assert len(found) == 1
        assert "'self._quorum'" in found[0].message

    def test_fires_on_unreducible_quorum_declaration(self):
        # Declarations are not read: the comparison is the finding.
        found = _quorum_findings("""
            class Engine:
                def __init__(self):
                    self._quorum = 7

                def _check(self, votes):
                    if len(votes) >= self._quorum:
                        self.decide()
        """)
        assert [f.line for f in found] == [7]

    @pytest.mark.parametrize("condition", [
        "len(votes) >= self._q.intersect",
        "len(votes) >= q.one_honest",
        "slot.prepared_count < self._q.intersect",
        "verified_quorum(cert) < self._q.certificate",
        "len(shares) < scheme.k",
        "self._q.all <= len(votes)",
        "q.one_honest > len(votes)",
    ])
    def test_quiet_on_quorums_thresholds(self, condition):
        assert not _quorum_findings(_check(condition))

    @pytest.mark.parametrize("condition", [
        "len(votes) > q.intersect",
        "len(votes) <= q.one_honest",
        "len(votes) == q.all",
        "q.intersect < len(votes)",
    ])
    def test_fires_on_off_by_one_operator(self, condition):
        found = _quorum_findings(_check(condition))
        assert len(found) == 1
        assert "off-by-one" in found[0].message

    def test_count_vs_count_is_exempt(self):
        good = """
            class Engine:
                def _memo(self, cert, signers):
                    if len(signers) > cert.verified:
                        cert.verified = len(signers)
        """
        assert not _quorum_findings(good)

    @pytest.mark.parametrize("path", [
        "repro/consensus/messages.py", "repro/workload/client.py",
        "repro/core/remote_view_change.py"])
    def test_fires_in_every_scoped_module(self, path):
        assert len(_quorum_findings(_check("len(votes) >= 3"), path)) == 1

    def test_quiet_outside_declared_modules(self):
        assert not _quorum_findings(_check("len(votes) >= 3"),
                                    path="repro/bench/tool.py")


@pytest.mark.parametrize("call", [
    "sim.post(0.0, self.send, dst, message)",
    "sim.post_lane(lane, 0.0, handler, message, sender)",
    "self.schedule(1.0, self.send, dst, message)"])
def test_queue_posts_are_scheduled_dispatches(call):
    from repro.lint.msgflow import _classify_call
    node = ast.parse(call).body[0].value
    assert _classify_call(node, {}, {}) == "scheduled"


# ---------------------------------------------------------------------------
# Golden flow graphs: drift in any protocol's message-flow graph must
# show up as a readable failing diff against tests/golden/.
# ---------------------------------------------------------------------------
def _real_flows():
    parsed = []
    for file_path in discover_files([REPO_SRC]):
        with open(file_path, "r", encoding="utf-8") as handle:
            source = handle.read()
        parsed.append((file_path.replace(os.sep, "/"),
                       ast.parse(source)))
    return extract_flows(build_index(parsed))


class TestGoldenFlowGraphs:
    def test_every_protocol_has_a_committed_golden(self):
        flows = _real_flows()
        expected = {f"msgflow_{name}.json" for name in flows}
        committed = {p.name for p in GOLDEN_DIR.glob("msgflow_*.json")}
        assert committed == expected

    def test_flow_graphs_match_goldens(self):
        flows = _real_flows()
        drifts = []
        for name in sorted(flows):
            golden_path = GOLDEN_DIR / f"msgflow_{name}.json"
            golden = json.loads(golden_path.read_text())
            current = json.loads(json.dumps(flows[name].to_dict()))
            if current == golden:
                continue
            for msg in sorted(set(golden["messages"])
                              | set(current["messages"])):
                before = golden["messages"].get(msg)
                after = current["messages"].get(msg)
                if before != after:
                    drifts.append(
                        f"{name}/{msg}:\n"
                        f"  golden:  {json.dumps(before, sort_keys=True)}\n"
                        f"  current: {json.dumps(after, sort_keys=True)}")
            if golden.get("phases") != current.get("phases"):
                drifts.append(f"{name}/phases: {golden.get('phases')} "
                              f"-> {current.get('phases')}")
        assert not drifts, (
            "message-flow graph drifted from tests/golden/ — if the "
            "change is intentional, update specs.py and regenerate the "
            "goldens:\n" + "\n".join(drifts))

    def test_flow_report_and_dot_are_well_formed(self):
        flows = _real_flows()
        payload = flow_report(flows)
        assert payload["version"] == 1
        assert set(payload["protocols"]) == set(flows)
        dot = flow_dot(flows)
        assert dot.startswith("digraph msgflow {")
        assert "cluster_0" in dot
        assert "PrePrepare" in dot


# ---------------------------------------------------------------------------
# CLI: --flow-report / --flow-dot / --changed
# ---------------------------------------------------------------------------
class TestFlowCli:
    def test_flow_artifacts_are_written(self, tmp_path, capsys):
        report_path = tmp_path / "flow.json"
        dot_path = tmp_path / "flow.dot"
        assert cli_main(["lint", REPO_SRC,
                         "--flow-report", str(report_path),
                         "--flow-dot", str(dot_path)]) == 0
        capsys.readouterr()
        payload = json.loads(report_path.read_text())
        assert payload["version"] == 1
        assert "pbft" in payload["protocols"]
        assert dot_path.read_text().startswith("digraph msgflow {")

    def test_changed_in_fresh_repo(self, tmp_path, monkeypatch, capsys):
        repo = tmp_path / "repo"
        repo.mkdir()
        env = {"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
               "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
               **os.environ}

        def git(*argv):
            subprocess.run(["git", *argv], cwd=repo, env=env, check=True,
                           capture_output=True)

        git("init", "-q")
        tracked = repo / "mod.py"
        tracked.write_text("def f(sim):\n    return sim.now\n")
        (repo / "stale.py").write_text(
            "import time\n\ndef now():\n    return time.time()\n")
        git("add", ".")
        git("commit", "-qm", "seed")
        tracked.write_text("import time\n\n"
                           "def now():\n    return time.time()\n")
        monkeypatch.chdir(repo)
        # Only the file changed vs HEAD is linted: the equally bad but
        # untouched stale.py stays out of the report.
        assert cli_main(["lint", "--changed", "HEAD"]) == 1
        out = capsys.readouterr().out
        assert "mod.py" in out
        assert "stale.py" not in out

    def test_changed_with_no_changes_is_clean(self, tmp_path,
                                              monkeypatch, capsys):
        repo = tmp_path / "repo"
        repo.mkdir()
        env = {"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
               "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
               **os.environ}
        subprocess.run(["git", "init", "-q"], cwd=repo, env=env,
                       check=True)
        (repo / "mod.py").write_text("X = 1\n")
        subprocess.run(["git", "add", "."], cwd=repo, env=env, check=True)
        subprocess.run(["git", "commit", "-qm", "seed"], cwd=repo,
                       env=env, check=True, capture_output=True)
        monkeypatch.chdir(repo)
        assert cli_main(["lint", "--changed"]) == 0
        assert "0 files" in capsys.readouterr().out

    def test_changed_against_bad_ref_exits_two(self, tmp_path,
                                               monkeypatch, capsys):
        repo = tmp_path / "repo"
        repo.mkdir()
        subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
        monkeypatch.chdir(repo)
        assert cli_main(["lint", "--changed", "no-such-ref"]) == 2
