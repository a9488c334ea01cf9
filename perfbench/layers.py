"""Layer map and the fold from cProfile stats to per-layer numbers.

A layer is a group of source files under ``src/repro/``.  Every file
must be listed (``test_harness.py`` enforces it), so a new module cannot
fall into ``other`` unnoticed.  Entries ending in ``/`` cover a whole
package that is not on the run-time path of any workload.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Optional, Tuple

LAYER_FILES: Dict[str, Tuple[str, ...]] = {
    "net.simulator": ("net/simulator.py",),
    "net.network": ("net/network.py", "net/topology.py"),
    "net.faults": ("net/failures.py", "net/chaos.py", "net/sanitizer.py"),
    "crypto.digests": ("crypto/digests.py",),
    "crypto.auth": ("crypto/signatures.py", "crypto/macs.py",
                    "crypto/threshold.py", "crypto/costs.py"),
    "consensus.messages": ("consensus/messages.py",),
    "consensus.replica": ("consensus/replica.py",),
    "consensus.pbft": ("consensus/pbft.py",),
    "core.geobft": ("core/geobft.py", "core/ordering.py",
                    "core/remote_view_change.py", "core/config.py"),
    "ledger.block": ("ledger/block.py",),
    "ledger.execution": ("ledger/execution.py", "ledger/store.py"),
    "ledger.blockchain": ("ledger/blockchain.py", "ledger/recovery.py"),
    "workload.generator": ("workload/ycsb.py", "workload/zipfian.py",
                           "workload/payment.py"),
    "workload.client": ("workload/client.py",),
    "workload.traffic": ("workload/traffic.py",),
    "bench.deployment": ("bench/deployment.py",),
    "bench.metrics": ("bench/metrics.py", "bench/instrumentation.py",
                      "bench/tracing.py"),
    "other": (
        "__init__.py", "__main__.py", "api.py", "cli.py", "errors.py",
        "types.py",
        "bench/__init__.py", "bench/charts.py", "bench/parallel.py",
        "bench/reporting.py", "bench/scenarios.py",
        "consensus/__init__.py", "consensus/hotstuff.py",
        "consensus/steward.py", "consensus/zyzzyva.py",
        "core/__init__.py", "crypto/__init__.py", "ledger/__init__.py",
        "net/__init__.py", "workload/__init__.py",
        "analysis/", "lint/", "sweep/",
    ),
}

LAYERS: Tuple[str, ...] = tuple(LAYER_FILES)

#: The caller->callee layer boundaries reported as exact call counts.
EDGES: Tuple[Tuple[str, str], ...] = (
    ("consensus.replica", "net.simulator"),
    ("net.network", "net.simulator"),
    ("net.network", "consensus.replica"),
    ("net.simulator", "consensus.replica"),
    ("consensus.replica", "core.geobft"),
    ("consensus.replica", "consensus.pbft"),
    ("core.geobft", "consensus.pbft"),
    ("workload.generator", "ledger.block"),
)

_FILE_LAYER = {path: layer for layer, paths in LAYER_FILES.items()
               for path in paths if not path.endswith("/")}
_PREFIX_LAYER = tuple((path, layer) for layer, paths in LAYER_FILES.items()
                      for path in paths if path.endswith("/"))


def layer_of_relpath(relpath: str) -> Optional[str]:
    """Layer of a path relative to ``src/repro/`` (``None`` if unmapped)."""
    relpath = relpath.replace(os.sep, "/")
    layer = _FILE_LAYER.get(relpath)
    if layer is None:
        for prefix, prefix_layer in _PREFIX_LAYER:
            if relpath.startswith(prefix):
                return prefix_layer
    return layer


def edge_name(caller: str, callee: str) -> str:
    return f"{caller}--{callee}"


def fold(stats: Dict[tuple, tuple], package_dir: str) -> Dict[str, object]:
    """Fold ``pstats.Stats(...).stats`` into layers and layer edges.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
    callers)`` with ``callers[caller] = (nc, cc, tt, ct)``.  A function
    defined under ``package_dir`` belongs to its file's layer.  Anything
    else (C builtins such as ``hashlib``/``heapq``/``dict.update``, and
    stdlib Python such as ``random``) is charged to the layer that
    called it, edge by edge, following caller edges upward when the
    caller is itself outside the package.
    """
    prefix = os.path.join(os.path.abspath(package_dir), "")

    def own_layer(func: tuple) -> Optional[str]:
        filename = func[0]
        if filename.startswith(prefix):
            return layer_of_relpath(filename[len(prefix):]) or "other"
        return None

    own = {func: own_layer(func) for func in stats}
    memo: Dict[tuple, Dict[str, float]] = {}

    def charge_to(func: tuple, depth: int = 0) -> Dict[str, float]:
        """Layer weights (summing to 1) that pay for time under ``func``."""
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {"other": 1.0}  # cycle guard and root fallback
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[3] for edge in callers.values())
        if depth < 16 and callers and total > 0:
            weights: Dict[str, float] = {}
            for caller, edge in callers.items():
                for name, w in charge_to(caller, depth + 1).items():
                    weights[name] = weights.get(name, 0.0) + w * edge[3] / total
            memo[func] = weights
        return memo[func]

    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    edges = {edge_name(a, b): {"calls": 0, "cum_s": 0.0} for a, b in EDGES}
    calls_total = 0
    named_cum = {("net/simulator.py", "run"): 0.0,
                 ("bench/deployment.py", "check_invariants"): 0.0}

    for func, (_cc, nc, tt, ct, callers) in stats.items():
        calls_total += nc
        layer = own[func]
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            key = (func[0][len(prefix):].replace(os.sep, "/"), func[2])
            if key in named_cum:
                named_cum[key] += ct
            for caller, edge in callers.items():
                name = edge_name(own.get(caller) or "", layer)
                if name in edges:
                    edges[name]["calls"] += edge[0]
                    edges[name]["cum_s"] += edge[3]
        elif callers:
            for caller, edge in callers.items():
                for name, w in charge_to(caller).items():
                    self_s[name] += w * edge[2]
        else:
            self_s["other"] += tt

    return {
        "total_self_s": sum(self_s.values()),
        "calls_total": calls_total,
        "layers": {layer: {"self_s": self_s[layer], "calls": calls[layer]}
                   for layer in LAYERS},
        "edges": edges,
        "loop_s": named_cum[("net/simulator.py", "run")],
        "audit_s": named_cum[("bench/deployment.py", "check_invariants")],
    }


def unmapped_files(package_dir: str) -> Iterable[str]:
    """Python files under ``package_dir`` the layer map does not assign."""
    for root, _dirs, files in os.walk(package_dir):
        for filename in sorted(files):
            if filename.endswith(".py"):
                rel = os.path.relpath(os.path.join(root, filename),
                                      package_dir)
                if layer_of_relpath(rel) is None:
                    yield rel.replace(os.sep, "/")
