"""The rule catalogue: one visitor class per contract.

Each rule is an :class:`ast.NodeVisitor` with an ``id``, a one-line
``summary``, and a ``rationale`` tying it to the determinism or protocol
contract it guards (see ``docs/static_analysis.md`` for the full
catalogue).  Rules collect :class:`~repro.lint.engine.Finding` objects
via :meth:`Rule.report`; the engine handles suppressions and the
allowlist, so rules themselves stay escape-hatch-free.

Adding a rule: subclass :class:`Rule`, implement ``visit_*`` methods,
and append the class to :data:`RULES`.  Keep rules *precise* over
*complete* — a rule that cries wolf gets suppressed wholesale and then
guards nothing.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Type

# Imported lazily-typed to avoid an import cycle with engine.py (engine
# imports default_rules from here; Finding lives there).
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .engine import FileContext, Finding
    from .symbols import ProjectIndex


class Rule(ast.NodeVisitor):
    """Base class for lint rules.

    Subclasses set ``id``/``summary``/``rationale`` and implement
    ``visit_*`` methods that call :meth:`report`.  A fresh instance is
    used per engine run; per-file state must be reset in :meth:`run`.
    """

    id: str = ""
    summary: str = ""
    rationale: str = ""

    def __init__(self) -> None:
        self._ctx: Optional["FileContext"] = None
        self._findings: List["Finding"] = []

    def applies_to(self, ctx: "FileContext") -> bool:
        """Whether this rule should run on ``ctx`` (default: every file)."""
        return True

    def run(self, ctx: "FileContext") -> List["Finding"]:
        """Visit the file's AST and return this rule's findings."""
        self._ctx = ctx
        self._findings = []
        self.begin_file(ctx)
        self.visit(ctx.tree)
        return self._findings

    def begin_file(self, ctx: "FileContext") -> None:
        """Per-file state reset hook (default: nothing)."""

    def report(self, node: ast.AST, message: str) -> None:
        from .engine import Finding

        ctx = self._ctx
        assert ctx is not None
        line = getattr(node, "lineno", 1)
        self._findings.append(Finding(
            rule=self.id, path=ctx.path, line=line,
            col=getattr(node, "col_offset", 0), message=message,
            symbol=ctx.symbol_at(line)))


class ProjectRule(Rule):
    """Base class for whole-program rules.

    Unlike per-file rules, a :class:`ProjectRule` runs once per lint
    run against the :class:`~repro.lint.symbols.ProjectIndex` built
    from every parsed file, so it can follow call edges and message
    flows across modules.  Findings still pass through the same inline
    suppression and allowlist filters, keyed by the file each finding
    lands in.
    """

    def applies_to(self, ctx: "FileContext") -> bool:
        return False  # never runs in the per-file loop

    def run_project(self, project: "ProjectIndex") -> List["Finding"]:
        """Analyze the whole program; return findings."""
        raise NotImplementedError

    def emit(self, path: str, line: int, col: int, symbol: str,
             message: str) -> None:
        from .engine import Finding

        self._findings.append(Finding(
            rule=self.id, path=path, line=line, col=col,
            message=message, symbol=symbol))


def _root_name(node: ast.AST) -> Optional[str]:
    """The leftmost ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _call_name(node: ast.Call) -> Optional[str]:
    """Trailing identifier of the called function (``a.b.c()`` -> c)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class _ImportTracker(Rule):
    """Shared machinery: resolve module aliases per file.

    ``import time as t`` and ``from time import monotonic as mono`` both
    need to be seen through, or a rename defeats the rule.  Tracks
    aliases for the modules each subclass cares about.
    """

    #: Module names the subclass wants aliases for.
    modules: Sequence[str] = ()

    def begin_file(self, ctx: "FileContext") -> None:
        #: local alias -> module name ("t" -> "time").
        self.module_aliases: Dict[str, str] = {}
        #: local name -> "module.attr" for from-imports.
        self.from_imports: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in self.modules:
                self.module_aliases[alias.asname or alias.name] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module in self.modules:
            for alias in node.names:
                local = alias.asname or alias.name
                self.from_imports[local] = f"{node.module}.{alias.name}"
            self.on_from_import(node)
        self.generic_visit(node)

    def on_from_import(self, node: ast.ImportFrom) -> None:
        """Hook for subclasses that flag from-imports themselves."""


class NoWallclock(_ImportTracker):
    """Ban host wall-clock reads inside simulated code."""

    id = "no-wallclock"
    summary = "no time.time()/monotonic()/datetime.now() in simulated code"
    rationale = (
        "The simulator owns virtual time; a wall-clock read inside "
        "simulated code makes results depend on host speed and breaks "
        "byte-identical replay.  Host-side calibration belongs in "
        "bench harnesses, behind an allowlist entry."
    )

    modules = ("time", "datetime")
    _TIME_FUNCS = {
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns",
        "clock_gettime", "clock_gettime_ns",
    }
    _DATETIME_FUNCS = {"now", "utcnow", "today"}

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            value = func.value
            # time.<func>() through a module alias.
            if (isinstance(value, ast.Name)
                    and self.module_aliases.get(value.id) == "time"
                    and func.attr in self._TIME_FUNCS):
                self.report(node, f"wall-clock read time.{func.attr}(); "
                                  "simulated code must use Simulation.now")
            # datetime.datetime.now() / datetime.date.today().
            elif func.attr in self._DATETIME_FUNCS:
                if (isinstance(value, ast.Attribute)
                        and isinstance(value.value, ast.Name)
                        and self.module_aliases.get(value.value.id)
                        == "datetime"
                        and value.attr in ("datetime", "date")):
                    self.report(node,
                                f"wall-clock read datetime.{value.attr}."
                                f"{func.attr}(); simulated code must use "
                                "Simulation.now")
                elif (isinstance(value, ast.Name)
                      and self.from_imports.get(value.id)
                      in ("datetime.datetime", "datetime.date")):
                    self.report(node,
                                f"wall-clock read "
                                f"{self.from_imports[value.id]}."
                                f"{func.attr}(); simulated code must use "
                                "Simulation.now")
        elif isinstance(func, ast.Name):
            target = self.from_imports.get(func.id)
            if (target is not None and target.startswith("time.")
                    and target.split(".", 1)[1] in self._TIME_FUNCS):
                self.report(node, f"wall-clock read {target}(); simulated "
                                  "code must use Simulation.now")
        self.generic_visit(node)


class NoUnseededRandom(_ImportTracker):
    """All randomness must flow through an injected seeded generator."""

    id = "no-unseeded-random"
    summary = "randomness must come from an injected, seeded random.Random"
    rationale = (
        "Module-level random functions share interpreter-global state "
        "seeded from the OS; secrets/uuid4/os.urandom are nondeterministic "
        "by design.  A run must be a pure function of its seed, so every "
        "draw goes through a random.Random constructed from the "
        "experiment seed and passed in."
    )

    modules = ("random", "secrets", "uuid", "os")
    #: The only attributes allowed on the random module: the seedable
    #: generator class itself.
    _RANDOM_OK = {"Random"}
    _UUID_BAD = {"uuid1", "uuid4"}

    def on_from_import(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name not in self._RANDOM_OK:
                    self.report(node,
                                f"from random import {alias.name} binds the "
                                "unseeded module-level generator; inject a "
                                "seeded random.Random instead")
        elif node.module == "secrets":
            self.report(node, "secrets is nondeterministic by design; "
                              "inject a seeded random.Random instead")

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                          ast.Name):
            module = self.module_aliases.get(func.value.id)
            if module == "random":
                if func.attr == "Random":
                    if not node.args and not node.keywords:
                        self.report(node,
                                    "random.Random() without a seed draws "
                                    "from OS entropy; pass the experiment "
                                    "seed")
                elif func.attr == "SystemRandom":
                    self.report(node, "random.SystemRandom is OS entropy; "
                                      "inject a seeded random.Random")
                else:
                    self.report(node,
                                f"random.{func.attr}() uses the unseeded "
                                "module-level generator; use an injected "
                                "seeded random.Random")
            elif module == "secrets":
                self.report(node, f"secrets.{func.attr}() is "
                                  "nondeterministic; use an injected "
                                  "seeded random.Random")
            elif module == "uuid" and func.attr in self._UUID_BAD:
                self.report(node, f"uuid.{func.attr}() is "
                                  "nondeterministic; derive ids from the "
                                  "experiment seed and a counter")
            elif module == "os" and func.attr == "urandom":
                self.report(node, "os.urandom() is OS entropy; use an "
                                  "injected seeded random.Random")
        elif isinstance(func, ast.Name):
            target = self.from_imports.get(func.id)
            if (target is not None and target.startswith("random.")
                    and target != "random.Random"):
                self.report(node, f"{target}() uses the unseeded "
                                  "module-level generator; use an injected "
                                  "seeded random.Random")
            elif target == "random.Random" and not node.args \
                    and not node.keywords:
                self.report(node, "Random() without a seed draws from OS "
                                  "entropy; pass the experiment seed")
        self.generic_visit(node)


#: The ``Simulation`` methods that queue an event (tests/test_lint.py
#: checks this against the class itself).
SCHEDULERS = frozenset({"post", "post_lane", "schedule"})

#: Calls that feed the event queue or the network — the sinks whose
#: argument/iteration order becomes part of the simulated schedule.
_EVENT_SINKS = SCHEDULERS | {
    "send", "multicast", "broadcast", "_multicast_distinct", "send_at"}

#: Methods whose result has no deterministic cross-run order.
_FS_SOURCES = {"listdir", "scandir", "iterdir", "glob", "iglob", "rglob"}


class DeterministicIteration(Rule):
    """No unordered iteration may reach the event queue."""

    id = "deterministic-iteration"
    summary = "set iteration feeding sends/scheduling must be sorted()"
    rationale = (
        "Set iteration order depends on element hashes (and, for "
        "strings, on PYTHONHASHSEED); events posted from such a loop "
        "acquire hash-dependent sequence numbers and the deployment "
        "digest drifts between hosts.  Dict iteration is insertion-"
        "ordered and therefore deterministic — only genuinely unordered "
        "sources are flagged.  Wrap the iterable in sorted() with a "
        "stable key."
    )

    def _is_unordered(self, node: ast.AST,
                      local_sets: Dict[str, ast.AST]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute):
                if func.attr in _FS_SOURCES:
                    return True
                # set algebra via methods: a.union(b), a.difference(b)...
                if func.attr in ("union", "intersection", "difference",
                                 "symmetric_difference"):
                    return self._is_unordered(func.value, local_sets)
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return (self._is_unordered(node.left, local_sets)
                    or self._is_unordered(node.right, local_sets))
        if isinstance(node, ast.Name):
            assigned = local_sets.get(node.id)
            if assigned is not None:
                return True
        return False

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def _check_function(self, func: ast.AST) -> None:
        # Pass 1: local names bound to set-valued expressions.
        local_sets: Dict[str, ast.AST] = {}
        for stmt in ast.walk(func):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if (isinstance(target, ast.Name)
                        and self._is_unordered(stmt.value, {})):
                    local_sets[target.id] = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if (isinstance(stmt.target, ast.Name)
                        and self._is_unordered(stmt.value, {})):
                    local_sets[stmt.target.id] = stmt.value
        # Pass 2: loops over unordered iterables whose body hits a sink.
        for stmt in ast.walk(func):
            if isinstance(stmt, ast.For):
                if (self._is_unordered(stmt.iter, local_sets)
                        and self._body_hits_sink(stmt.body)):
                    self.report(stmt.iter,
                                "iterating an unordered collection into "
                                "the event queue; wrap the iterable in "
                                "sorted() with a stable key")
            elif isinstance(stmt, ast.Call):
                name = _call_name(stmt)
                if name in ("multicast", "broadcast",
                            "_multicast_distinct"):
                    for arg in stmt.args:
                        if self._is_unordered(arg, local_sets):
                            self.report(arg,
                                        f"passing an unordered collection "
                                        f"to {name}(); destination order "
                                        "becomes part of the schedule — "
                                        "sort it first")

    def _body_hits_sink(self, body: List[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and _call_name(node) \
                        in _EVENT_SINKS:
                    return True
        return False


class NoIdentityOrdering(Rule):
    """``id()``/``hash()`` must not decide an order or a comparison."""

    id = "no-identity-ordering"
    summary = "no id()/hash() in sort keys or comparisons"
    rationale = (
        "id() is a heap address and hash() of an object defaults to a "
        "function of it; both vary per process, so any order derived "
        "from them is nondeterministic across runs.  Sort by a stable "
        "protocol key (node id string, sequence number) instead.  "
        "Identity used as a *memo key* (never ordered) is fine."
    )

    _SORTERS = {"sorted", "min", "max"}
    _IDENTITY = {"id", "hash"}

    def _uses_identity(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name) and node.id in self._IDENTITY:
            return node.id
        for child in ast.walk(node):
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id in self._IDENTITY):
                return child.func.id
        return None

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        is_sorter = ((isinstance(node.func, ast.Name)
                      and name in self._SORTERS)
                     or (isinstance(node.func, ast.Attribute)
                         and name == "sort"))
        if is_sorter:
            for keyword in node.keywords:
                if keyword.arg == "key":
                    used = self._uses_identity(keyword.value)
                    if used is not None:
                        self.report(keyword.value,
                                    f"sort key uses {used}(); object "
                                    "identity varies per process — sort "
                                    "by a stable protocol key")
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        for operand in [node.left, *node.comparators]:
            if (isinstance(operand, ast.Call)
                    and isinstance(operand.func, ast.Name)
                    and operand.func.id == "id"):
                self.report(node, "comparison on id(); object identity "
                                  "varies per process — compare stable "
                                  "protocol keys")
        self.generic_visit(node)


#: Modules whose classes carry the PR-4 slots contract: message objects
#: and simulator hot-loop state must never grow a __dict__.
_SLOTS_MODULES = (
    "repro/consensus/messages.py",
    "repro/net/simulator.py",
    "repro/net/network.py",
)


class SlotsCoverage(Rule):
    """Hot-path classes must declare ``__slots__``."""

    id = "slots-coverage"
    summary = "hot-path classes (messages, simulator, network) need __slots__"
    rationale = (
        "Paper-scale runs allocate millions of message and event "
        "objects; a __dict__ per instance costs memory and defeats the "
        "attribute-cache layout the PR-4 fast path relies on.  Every "
        "class in the message and simulator-core modules declares "
        "__slots__ (Protocol/Exception/NamedTuple classes excepted)."
    )

    _EXEMPT_BASES = {"Protocol", "NamedTuple", "Enum", "IntEnum",
                     "Exception", "BaseException"}

    def applies_to(self, ctx: "FileContext") -> bool:
        return ctx.module_is(*_SLOTS_MODULES)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for base in node.bases:
            base_name = base.attr if isinstance(base, ast.Attribute) else \
                getattr(base, "id", None)
            if base_name in self._EXEMPT_BASES or (
                    base_name is not None and base_name.endswith("Error")):
                self.generic_visit(node)
                return
        has_slots = False
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                if any(isinstance(t, ast.Name) and t.id == "__slots__"
                       for t in stmt.targets):
                    has_slots = True
            elif isinstance(stmt, ast.AnnAssign):
                if (isinstance(stmt.target, ast.Name)
                        and stmt.target.id == "__slots__"):
                    has_slots = True
        if not has_slots:
            self.report(node, f"class {node.name} in a hot-path module "
                              "does not declare __slots__")
        self.generic_visit(node)


#: Protocol modules under the verify-before-mutate contract (shared
#: with the interprocedural passes; declared once in specs.py).
from .specs import PROTOCOL_MODULES as _PROTOCOL_MODULES  # noqa: E402

#: Method names that mutate their receiver in place.
_MUTATORS = {"add", "append", "extend", "insert", "update", "setdefault",
             "pop", "popleft", "remove", "discard", "clear"}

#: Substrings identifying a verification call.
_VERIFY_NAMES = ("verify", "require_valid")


class VerifyBeforeMutate(Rule):
    """Handlers that verify a message must do so before mutating state."""

    id = "verify-before-mutate"
    summary = "protocol handlers verify messages before touching slot state"
    rationale = (
        "PBFT-family safety arguments assume a replica's state reflects "
        "only verified messages (Castro & Liskov §4); a handler that "
        "first records and then verifies leaves poisoned state behind "
        "when verification fails.  In any handler (_on_* / handle*) "
        "that performs a verification, every mutation of self state "
        "must come after the first verify call.  Handlers with no "
        "verify call are exempt: their messages are MAC-authenticated "
        "by the transport layer in consensus/replica.py."
    )

    def applies_to(self, ctx: "FileContext") -> bool:
        return ctx.module_is(*_PROTOCOL_MODULES)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node.name.startswith("_on_") or node.name.startswith("handle"):
            first_verify = self._first_verify_line(node)
            if first_verify is not None:
                mutation = self._first_mutation_before(node, first_verify)
                if mutation is not None:
                    self.report(mutation,
                                f"handler {node.name} mutates self state "
                                f"on line {mutation.lineno} before its "
                                f"first verification on line "
                                f"{first_verify}; verify, then mutate")
        self.generic_visit(node)

    def _first_verify_line(self, func: ast.FunctionDef) -> Optional[int]:
        best: Optional[int] = None
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name is not None and any(v in name
                                            for v in _VERIFY_NAMES):
                    if best is None or node.lineno < best:
                        best = node.lineno
        return best

    def _first_mutation_before(self, func: ast.FunctionDef,
                               line: int) -> Optional[ast.AST]:
        best: Optional[ast.AST] = None
        for node in ast.walk(func):
            candidate: Optional[ast.AST] = None
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets
                           if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, (ast.Attribute, ast.Subscript))
                            and _root_name(target) == "self"):
                        candidate = node
            elif isinstance(node, ast.Call):
                f = node.func
                if (isinstance(f, ast.Attribute) and f.attr in _MUTATORS
                        and _root_name(f.value) == "self"):
                    candidate = node
            if candidate is not None and candidate.lineno < line:
                if best is None or candidate.lineno < best.lineno:
                    best = candidate
        return best


class NoSilentExcept(Rule):
    """No broad exception handler may swallow errors silently."""

    id = "no-silent-except"
    summary = "bare/broad except clauses must not swallow silently"
    rationale = (
        "except Exception: pass hides protocol violations and crypto "
        "failures that the determinism and safety gates exist to "
        "surface.  Catch the narrow repro.errors type the operation "
        "actually raises; genuinely-expected failures should route "
        "through the repro.errors hierarchy, not vanish."
    )

    _BROAD = {"Exception", "BaseException"}

    def _is_broad(self, node: Optional[ast.expr]) -> bool:
        if node is None:
            return True  # bare except:
        if isinstance(node, ast.Name):
            return node.id in self._BROAD
        if isinstance(node, ast.Tuple):
            return any(self._is_broad(el) for el in node.elts)
        return False

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self._is_broad(node.type):
            reraises = any(isinstance(child, ast.Raise)
                           for child in ast.walk(node))
            if not reraises:
                what = ("bare except:" if node.type is None
                        else "except Exception")
                self.report(node, f"{what} swallows errors silently; "
                                  "catch the narrow repro.errors type "
                                  "the operation raises")
        self.generic_visit(node)


#: Directories whose module-level state is reachable from replica
#: handlers.  A sweep pool worker runs many deployments in one process
#: (and ``--jobs 1`` runs a whole campaign inline), so state written
#: here outlives the deployment that wrote it.
_WORKER_STATE_DIRS = ("repro/consensus/", "repro/core/")

#: Constructors whose result is a mutable container.
_MUTABLE_CONSTRUCTORS = {"list", "dict", "set", "bytearray", "deque",
                         "defaultdict", "Counter", "OrderedDict"}


class NoCrossWorkerSharedState(Rule):
    """Protocol modules must not keep written module-level state."""

    id = "no-cross-worker-shared-state"
    summary = ("no written module-level state in consensus/ or core/ "
               "(it leaks between deployments in one process)")
    rationale = (
        "A sweep pool worker runs many RunSpecs in one process, and "
        "``--jobs 1`` runs a whole campaign inline in the orchestrator. "
        "Module-level state that replica code writes survives from one "
        "deployment into the next, so a run's digest would depend on "
        "which runs shared its process before it — the pool path and "
        "the inline path would disagree.  Per-run state belongs on the "
        "replica or an injected collaborator built from the "
        "ExperimentConfig.  Read-only lookup tables are fine — only "
        "mutations (and ``global`` rebinding) are flagged."
    )

    def applies_to(self, ctx: "FileContext") -> bool:
        return any(part in ctx.norm_path for part in _WORKER_STATE_DIRS)

    def begin_file(self, ctx: "FileContext") -> None:
        #: Module-level names bound to mutable containers.
        self._module_mutables: Set[str] = set()
        #: All module-level bindings (for the ``global`` check).
        self._module_names: Set[str] = set()

    def _is_mutable_value(self, value: ast.AST) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            name = _call_name(value)
            return name in _MUTABLE_CONSTRUCTORS
        return False

    def visit_Module(self, node: ast.Module) -> None:
        for stmt in node.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                self._module_names.add(name)
                if (value is not None and self._is_mutable_value(value)
                        and not name.startswith("__")):
                    self._module_mutables.add(name)
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        for name in node.names:
            self.report(node,
                        f"function rebinds module-level name {name!r} "
                        "via global; the binding outlives this "
                        "deployment in a sweep worker — keep per-run "
                        "state on the replica")
        self.generic_visit(node)

    def _flag(self, node: ast.AST, name: str, how: str) -> None:
        self.report(node,
                    f"module-level mutable {name!r} is {how} here; "
                    "it carries over into the next deployment a sweep "
                    "worker runs in this process, so results depend on "
                    "run order — keep per-run state on the replica or "
                    "an injected collaborator")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                root = _root_name(target)
                if root in self._module_mutables:
                    self._flag(node, root, "written")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, (ast.Subscript, ast.Attribute)):
            root = _root_name(node.target)
            if root in self._module_mutables:
                self._flag(node, root, "written")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                root = _root_name(target)
                if root in self._module_mutables:
                    self._flag(node, root, "written")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            root = _root_name(func.value)
            if root in self._module_mutables:
                self._flag(node, root, "mutated")
        self.generic_visit(node)


# The whole-program rules and the quorum rule live in their own modules
# (they need the project index or the spec tables); imported here,
# after ProjectRule is defined, so the catalogue below stays the single
# registry.
from .msgflow import (FlowDeadHandler, FlowOrphanMessage,  # noqa: E402
                      FlowSpecDivergence)
from .quorum import QuorumArithmetic  # noqa: E402
from .taint import VerifyTaint  # noqa: E402

#: The catalogue, in documentation order.
RULES: List[Type[Rule]] = [
    NoWallclock,
    NoUnseededRandom,
    DeterministicIteration,
    NoIdentityOrdering,
    SlotsCoverage,
    VerifyBeforeMutate,
    NoSilentExcept,
    NoCrossWorkerSharedState,
    VerifyTaint,
    QuorumArithmetic,
    FlowOrphanMessage,
    FlowDeadHandler,
    FlowSpecDivergence,
]


def rule_ids() -> List[str]:
    """All registered rule ids, in catalogue order."""
    return [cls.id for cls in RULES]


def default_rules(only: Optional[Sequence[str]] = None) -> List[Rule]:
    """Fresh instances of the registered rules.

    ``only`` restricts to the named ids; unknown ids raise so typos in
    ``--rule`` fail loudly instead of silently linting nothing.
    """
    from ..errors import ConfigurationError

    if only is None:
        return [cls() for cls in RULES]
    known = {cls.id: cls for cls in RULES}
    missing = [rule_id for rule_id in only if rule_id not in known]
    if missing:
        raise ConfigurationError(
            f"unknown lint rule(s) {', '.join(missing)}; expected one of "
            f"{', '.join(known)}")
    return [known[rule_id]() for rule_id in only]


def iter_rule_docs() -> Iterator[Dict[str, str]]:
    """``{id, summary, rationale}`` per rule (CLI --list-rules, docs)."""
    for cls in RULES:
        yield {"id": cls.id, "summary": cls.summary,
               "rationale": " ".join(cls.rationale.split())}
