"""Message-flow graph extraction and conformance rules.

For each protocol named in :mod:`repro.lint.specs` this module builds
the **message-flow graph**: message class → construction sites (with
their fan-out classification) → dispatch sites (route tables and
``isinstance`` ladders) → annotated ``_on_*``/``handle*`` consumers.
Three whole-program rules check the graph:

* ``flow-orphan-message`` — a message is constructed and put on the
  wire inside a protocol's scope but nothing in that scope dispatches
  or handles it;
* ``flow-dead-handler`` — a message-annotated handler exists but its
  name is never referenced anywhere in the program;
* ``flow-spec-divergence`` — the extracted producers/consumers/fan-out
  of a message differ from the declarative spec table.

The same graph powers ``repro lint --flow-report`` / ``--flow-dot`` and
the committed per-protocol goldens in ``tests/golden/``.
"""

from __future__ import annotations

import ast
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, Set,
                    Tuple)

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Finding

from .rules import SCHEDULERS, ProjectRule
from .specs import (MESSAGE_MODULES, PROTOCOL_SPECS, MessageSpec,
                    ProtocolSpec)
from .symbols import ClassInfo, FunctionInfo, ProjectIndex

__all__ = [
    "FlowDeadHandler",
    "FlowOrphanMessage",
    "FlowSpecDivergence",
    "MessageFlow",
    "ProtocolFlow",
    "extract_flows",
    "flow_dot",
    "flow_report",
]

#: Base class marking a wire message.
_MESSAGE_BASE = "CachedEncodable"

#: Fan-out kinds that mean the message actually leaves the replica.
WIRE_KINDS = frozenset({"broadcast", "multi-unicast", "unicast",
                        "scheduled"})

_BROADCASTERS = {"broadcast", "multicast", "_multicast_distinct"}
_SENDERS = {"send", "send_at"}


class MessageFlow:
    """Extracted flow of one message class within one protocol scope."""

    __slots__ = ("name", "constructed_in", "fanout", "dispatched_in",
                 "handled_in", "sites", "handler_sites")

    def __init__(self, name: str) -> None:
        self.name = name
        self.constructed_in: Set[str] = set()
        self.fanout: Set[str] = set()
        self.dispatched_in: Set[str] = set()
        self.handled_in: Set[str] = set()
        #: qualname -> (path, first construction line) for findings.
        self.sites: Dict[str, Tuple[str, int]] = {}
        #: handler qualname -> (path, def line).
        self.handler_sites: Dict[str, Tuple[str, int]] = {}

    def to_dict(self) -> Dict[str, List[str]]:
        """Golden/JSON shape: stable names only, no line numbers."""
        return {
            "constructed_in": sorted(self.constructed_in),
            "fanout": sorted(self.fanout),
            "dispatched_in": sorted(self.dispatched_in),
            "handled_in": sorted(self.handled_in),
        }

    def first_site(self) -> Optional[Tuple[str, int, str]]:
        """``(path, line, qualname)`` of the earliest construction."""
        best: Optional[Tuple[str, int, str]] = None
        for qualname, (path, line) in self.sites.items():
            key = (path, line, qualname)
            if best is None or key < best:
                best = key
        return best


class ProtocolFlow:
    """The per-protocol message-flow graph."""

    __slots__ = ("spec", "messages")

    def __init__(self, spec: ProtocolSpec) -> None:
        self.spec = spec
        self.messages: Dict[str, MessageFlow] = {}

    def flow(self, name: str) -> MessageFlow:
        entry = self.messages.get(name)
        if entry is None:
            entry = self.messages[name] = MessageFlow(name)
        return entry

    def to_dict(self) -> Dict[str, object]:
        return {
            "phases": list(self.spec.phases),
            "messages": {name: self.messages[name].to_dict()
                         for name in sorted(self.messages)},
        }


def message_classes(index: ProjectIndex,
                    message_modules: Sequence[str]) -> Dict[str, ClassInfo]:
    """Wire message classes (CachedEncodable subclasses) by name."""
    found: Dict[str, ClassInfo] = {}
    for module in index.modules_matching(message_modules):
        for name, cls in module.classes.items():
            if _MESSAGE_BASE in cls.bases:
                found[name] = cls
    return found


def _parent_map(root: ast.AST) -> Dict[int, ast.AST]:
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(root):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def _call_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _in_loop(node: ast.AST, parents: Dict[int, ast.AST]) -> bool:
    current: Optional[ast.AST] = parents.get(id(node))
    while current is not None and not isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef)):
        if isinstance(current, (ast.For, ast.While)):
            return True
        current = parents.get(id(current))
    return False


def _classify_call(call: ast.Call, parents: Dict[int, ast.AST],
                   messages: Dict[str, ClassInfo]) -> str:
    name = _call_name(call)
    if name in _BROADCASTERS:
        return "broadcast"
    if name in _SENDERS:
        return "multi-unicast" if _in_loop(call, parents) else "unicast"
    if name in SCHEDULERS:
        return "scheduled"
    if name in messages:
        return "embedded"
    return "local"


def _enclosing_call(node: ast.AST, parents: Dict[int, ast.AST]
                    ) -> Optional[ast.Call]:
    """The call this expression is an argument of, seen through
    keywords, starred args, and container literals."""
    current = parents.get(id(node))
    child: ast.AST = node
    while isinstance(current, (ast.keyword, ast.Starred, ast.Tuple,
                               ast.List)):
        child = current
        current = parents.get(id(current))
    if isinstance(current, ast.Call) and current.func is not child:
        return current
    return None


def _uses_of_name(fn_node: ast.AST, name: str,
                  parents: Dict[int, ast.AST]) -> List[ast.AST]:
    """Calls (and returns) that take the local ``name`` as an argument."""
    uses: List[ast.AST] = []
    for node in ast.walk(fn_node):
        if (isinstance(node, ast.Name) and node.id == name
                and isinstance(node.ctx, ast.Load)):
            call = _enclosing_call(node, parents)
            if call is not None:
                uses.append(call)
                continue
            current = parents.get(id(node))
            if isinstance(current, ast.Return):
                uses.append(current)
    return uses


def _fanout_kinds(construction: ast.Call, fn: FunctionInfo,
                  parents: Dict[int, ast.AST],
                  messages: Dict[str, ClassInfo]) -> Set[str]:
    """How one constructed message leaves (or doesn't) its function."""
    kinds: Set[str] = set()
    call = _enclosing_call(construction, parents)
    if call is not None:
        kinds.add(_classify_call(call, parents, messages))
        return kinds
    parent = parents.get(id(construction))
    if isinstance(parent, ast.Return):
        return {"returned"}
    target: Optional[str] = None
    if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
        if isinstance(parent.targets[0], ast.Name):
            target = parent.targets[0].id
    elif isinstance(parent, ast.AnnAssign):
        if isinstance(parent.target, ast.Name):
            target = parent.target.id
    if target is not None:
        for use in _uses_of_name(fn.node, target, parents):
            if isinstance(use, ast.Call):
                kinds.add(_classify_call(use, parents, messages))
            elif isinstance(use, ast.Return):
                kinds.add("returned")
    if not kinds:
        kinds.add("local")
    return kinds


def _annotation_name(annotation: Optional[ast.expr]) -> Optional[str]:
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str):
        return annotation.value.rsplit(".", 1)[-1]
    return None


def _is_handler(fn: FunctionInfo) -> bool:
    return fn.name.startswith("_on_") or fn.name.startswith("handle")


def _handler_message(fn: FunctionInfo,
                     messages: Dict[str, ClassInfo]) -> Optional[str]:
    """Message class named by the handler's first annotated parameter."""
    for arg in fn.node.args.args:
        if arg.arg == "self":
            continue
        name = _annotation_name(arg.annotation)
        if name in messages:
            return name
    return None


def _dispatch_targets(fn: FunctionInfo,
                      messages: Dict[str, ClassInfo]) -> Set[str]:
    """Message classes this function dispatches on: the keys of a dict
    literal it builds (a route table, also as the argument of
    ``.update({...})``) and the classes it type-tests."""
    found: Set[str] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Dict):
            for key in node.keys:  # None stands for a ``**spread``
                if isinstance(key, ast.Name) and key.id in messages:
                    found.add(key.id)
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2):
            check = node.args[1]
            names = check.elts if isinstance(check, ast.Tuple) else [check]
            for name_node in names:
                if (isinstance(name_node, ast.Name)
                        and name_node.id in messages):
                    found.add(name_node.id)
        elif isinstance(node, ast.Compare):
            for op, comparator in zip(node.ops, node.comparators):
                if isinstance(op, (ast.Is, ast.Eq)):
                    for cand in (node.left, comparator):
                        if (isinstance(cand, ast.Name)
                                and cand.id in messages):
                            found.add(cand.id)
    return found


def extract_flows(index: ProjectIndex,
                  protocol_specs: Sequence[ProtocolSpec] = PROTOCOL_SPECS,
                  message_modules: Sequence[str] = MESSAGE_MODULES,
                  ) -> Dict[str, ProtocolFlow]:
    """Build the per-protocol message-flow graphs."""
    messages = message_classes(index, message_modules)
    flows: Dict[str, ProtocolFlow] = {}
    for spec in protocol_specs:
        flow = flows[spec.name] = ProtocolFlow(spec)
        for fn in index.iter_functions(spec.modules):
            parents = _parent_map(fn.node)
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                name = _call_name(node)
                if name not in messages:
                    continue
                # Only direct constructions: Name or Attribute callee
                # whose trailing identifier is the class.
                entry = flow.flow(name)
                entry.constructed_in.add(fn.qualname)
                entry.sites.setdefault(fn.qualname, (fn.path, node.lineno))
                entry.fanout.update(
                    _fanout_kinds(node, fn, parents, messages))
            handled = _handler_message(fn, messages)
            if handled is not None and _is_handler(fn):
                entry = flow.flow(handled)
                entry.handled_in.add(fn.qualname)
                entry.handler_sites.setdefault(
                    fn.qualname, (fn.path, fn.lineno))
            for dispatched in _dispatch_targets(fn, messages):
                flow.flow(dispatched).dispatched_in.add(fn.qualname)
    return flows


def flow_report(flows: Dict[str, ProtocolFlow]) -> Dict[str, object]:
    """The ``--flow-report`` JSON document (schema version 1)."""
    return {
        "version": 1,
        "protocols": {name: flows[name].to_dict()
                      for name in sorted(flows)},
    }


def flow_dot(flows: Dict[str, ProtocolFlow]) -> str:
    """GraphViz DOT rendering: one cluster per protocol, message nodes
    between producer and consumer function nodes."""
    out: List[str] = ["digraph msgflow {", "  rankdir=LR;",
                      '  node [fontsize=10, fontname="Helvetica"];']
    for p_idx, name in enumerate(sorted(flows)):
        flow = flows[name]
        out.append(f"  subgraph cluster_{p_idx} {{")
        out.append(f'    label="{name}";')
        seen_nodes: Set[str] = set()

        def node_id(kind: str, label: str, idx: int = p_idx) -> str:
            ident = (f"{kind}_{idx}_"
                     + "".join(c if c.isalnum() else "_" for c in label))
            if ident not in seen_nodes:
                seen_nodes.add(ident)
                shape = "box" if kind == "m" else "ellipse"
                out.append(f'    {ident} [label="{label}", shape={shape}];')
            return ident

        for msg_name in sorted(flow.messages):
            entry = flow.messages[msg_name]
            msg_node = node_id("m", msg_name)
            for producer in sorted(entry.constructed_in):
                src = node_id("f", producer)
                fanout = ",".join(sorted(entry.fanout & WIRE_KINDS))
                label = f' [label="{fanout}"]' if fanout else ""
                out.append(f"    {src} -> {msg_node}{label};")
            for consumer in sorted(entry.handled_in):
                dst = node_id("f", consumer)
                out.append(f"    {msg_node} -> {dst};")
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"


class _FlowRule(ProjectRule):
    """Shared constructor: spec tables are injectable for fixtures."""

    def __init__(self,
                 protocol_specs: Optional[Sequence[ProtocolSpec]] = None,
                 message_modules: Optional[Sequence[str]] = None) -> None:
        super().__init__()
        self._specs = (tuple(protocol_specs) if protocol_specs is not None
                       else PROTOCOL_SPECS)
        self._message_modules = (tuple(message_modules)
                                 if message_modules is not None
                                 else MESSAGE_MODULES)


class FlowOrphanMessage(_FlowRule):
    """Wire messages without a consumer are protocol dead ends."""

    id = "flow-orphan-message"
    summary = "every message put on the wire needs a dispatch/handler edge"
    rationale = (
        "A message class that is constructed and sent inside a "
        "protocol's scope but never dispatched or handled there is "
        "either dead weight on the network or — worse — a protocol "
        "step whose receiving half was never wired up, which no "
        "single-file rule can see.  Each protocol's flow graph must "
        "route every wire message to at least one consumer."
    )

    def run_project(self, project: ProjectIndex) -> List["Finding"]:
        self._findings = []
        flows = extract_flows(project, self._specs, self._message_modules)
        for name in sorted(flows):
            flow = flows[name]
            for msg_name in sorted(flow.messages):
                entry = flow.messages[msg_name]
                if not entry.constructed_in:
                    continue
                if not entry.fanout & WIRE_KINDS:
                    continue
                if entry.handled_in or entry.dispatched_in:
                    continue
                declared = flow.spec.message(msg_name)
                if declared is not None and declared.external:
                    # Mode-gated: the consumer exists outside this
                    # protocol's static scope (see MessageSpec.external).
                    continue
                site = entry.first_site()
                assert site is not None
                path, line, qualname = site
                self.emit(path, line, 0, qualname,
                          f"message {msg_name} is sent in protocol "
                          f"{name} (fan-out "
                          f"{', '.join(sorted(entry.fanout & WIRE_KINDS))})"
                          " but nothing in the protocol's scope "
                          "dispatches or handles it")
        return self._findings


class FlowDeadHandler(_FlowRule):
    """Handlers nobody can reach guard nothing."""

    id = "flow-dead-handler"
    summary = "message handlers must be reachable from a dispatch site"
    rationale = (
        "An _on_*/handle* method annotated with a message class but "
        "never referenced anywhere in the program is dead protocol "
        "surface: the route table was edited without it, so the "
        "messages it was written for are silently dropped.  Either "
        "give it a route or delete it."
    )

    def run_project(self, project: ProjectIndex) -> List["Finding"]:
        self._findings = []
        messages = message_classes(project, self._message_modules)
        scopes: List[str] = []
        for spec in self._specs:
            for suffix in spec.modules:
                if suffix not in scopes:
                    scopes.append(suffix)
        for fn in project.iter_functions(scopes):
            if not _is_handler(fn):
                continue
            if _handler_message(fn, messages) is None:
                continue
            if fn.name in project.referenced_names:
                continue
            self.emit(fn.path, fn.lineno, 0, fn.qualname,
                      f"handler {fn.qualname} is annotated for "
                      f"{_handler_message(fn, messages)} but its name is "
                      "never referenced; no dispatcher can reach it")
        return self._findings


def _divergence(expected: Sequence[str], actual: Set[str],
                what: str) -> Optional[str]:
    missing = sorted(set(expected) - actual)
    extra = sorted(actual - set(expected))
    parts = []
    if missing:
        parts.append(f"missing {what}: {', '.join(missing)}")
    if extra:
        parts.append(f"undeclared {what}: {', '.join(extra)}")
    return "; ".join(parts) if parts else None


class FlowSpecDivergence(_FlowRule):
    """The extracted flow graph must match the declared spec table."""

    id = "flow-spec-divergence"
    summary = "message producers/consumers/fan-out must match specs.py"
    rationale = (
        "The spec table in repro/lint/specs.py is the reviewed, "
        "per-protocol contract: which sites may construct each "
        "message, who must consume it, and how it fans out (e.g. "
        "GlobalShare goes to f+1 replicas per remote cluster).  Any "
        "edge the extractor sees that the table does not declare — or "
        "vice versa — is implementation drift from the protocol spec "
        "and must be either fixed or re-declared in review."
    )

    def run_project(self, project: ProjectIndex) -> List["Finding"]:
        self._findings = []
        flows = extract_flows(project, self._specs, self._message_modules)
        for spec in self._specs:
            flow = flows[spec.name]
            anchor = self._anchor(project, spec)
            for msg_spec in spec.messages:
                entry = flow.messages.get(msg_spec.name)
                if entry is None or not (entry.constructed_in
                                         or entry.handled_in
                                         or entry.dispatched_in):
                    self.emit(anchor[0], anchor[1], 0, "<module>",
                              f"protocol {spec.name}: spec declares "
                              f"message {msg_spec.name} "
                              f"({msg_spec.phase}) but it never appears "
                              "in the protocol's scope")
                    continue
                self._check_entry(spec, msg_spec, entry, anchor)
            declared = {m.name for m in spec.messages}
            for msg_name in sorted(flow.messages):
                if msg_name in declared:
                    continue
                entry = flow.messages[msg_name]
                site = entry.first_site()
                if site is not None:
                    path, line, qualname = site
                elif entry.handler_sites:
                    qualname = sorted(entry.handler_sites)[0]
                    path, line = entry.handler_sites[qualname]
                else:
                    continue  # dispatch-only sighting: no stable anchor
                self.emit(path, line, 0, qualname,
                          f"protocol {spec.name}: message {msg_name} "
                          "appears in the protocol's scope but is not "
                          "declared in its spec table")
        return self._findings

    def _anchor(self, project: ProjectIndex,
                spec: ProtocolSpec) -> Tuple[str, int]:
        modules = project.modules_matching(spec.modules)
        if modules:
            return modules[0].path, 1
        return f"<{spec.name}>", 1

    def _check_entry(self, spec: ProtocolSpec, msg_spec: MessageSpec,
                     entry: MessageFlow, anchor: Tuple[str, int]) -> None:
        site = entry.first_site()
        if site is not None:
            path, line, symbol = site
        else:
            path, line = anchor
            symbol = "<module>"
        problems = [
            _divergence(msg_spec.producers, entry.constructed_in,
                        "producers"),
            _divergence(msg_spec.consumers, entry.handled_in, "consumers"),
            _divergence(msg_spec.fanout, entry.fanout, "fan-out"),
        ]
        for problem in problems:
            if problem is not None:
                self.emit(path, line, 0, symbol,
                          f"protocol {spec.name}: message {msg_spec.name} "
                          f"diverges from its spec — {problem}")

