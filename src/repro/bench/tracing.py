"""Offline replay of exported phase traces.

:func:`load_trace_jsonl` is the read path for exported phase traces:
it replays a JSONL file written by
:meth:`~repro.bench.instrumentation.Instrumentation.export_jsonl` back
into a fresh hub, so ``repro trace --summary`` can print phase tables
from an artifact without re-running the experiment.  Message-level
probes are :meth:`~repro.net.network.Network.add_observer` callbacks.
"""

from __future__ import annotations

import json
import math

from .instrumentation import Instrumentation


class _ReplayClock:
    """Stand-in simulator for offline replay: just a settable ``now``."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0


def _record_error(obj) -> str:
    """Why ``obj`` is not a phase-event record, or ``""`` if it is."""
    if not isinstance(obj, dict):
        return f"expected an object, got {type(obj).__name__}"
    for field in ("t", "phase", "node", "cluster", "round"):
        if field not in obj:
            return f"missing field {field!r}"
    t = obj["t"]
    try:
        # An int too large for a float overflows here, as it would in
        # the phase-duration arithmetic.
        finite = not isinstance(t, bool) and math.isfinite(t)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        return f"'t' must be a finite number, got {t!r}"
    if not isinstance(obj["phase"], str):
        return f"'phase' must be a string, got {obj['phase']!r}"
    for field in ("cluster", "round"):
        value = obj[field]
        if not isinstance(value, int) or isinstance(value, bool):
            return f"{field!r} must be an int, got {value!r}"
    detail = obj.get("detail")
    if not (detail is None or isinstance(detail, (str, int, float))):
        return f"'detail' must be a scalar, got {detail!r}"
    return ""


def load_trace_jsonl(path: str) -> Instrumentation:
    """Rebuild an :class:`Instrumentation` hub from an exported JSONL.

    Phase-event lines replay through :meth:`Instrumentation.phase`
    (nodes stay strings — the read side only ever stringifies them), so
    marks, spans, phase durations, and the share-latency breakdown are
    reconstructed exactly.  Sample streams and counters are not
    exported and so cannot be recovered here.  A line that is not a
    phase-event record — a missing field, a non-finite or non-numeric
    ``t``, a non-string ``phase``, a non-int ``cluster`` or ``round``,
    a non-scalar ``detail`` — raises :class:`ValueError` naming
    ``path:line``.
    """
    hub = Instrumentation(sim=None)
    clock = _ReplayClock()
    hub._sim = clock
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: not a JSON object: {exc}") from exc
            error = _record_error(obj)
            if error:
                raise ValueError(
                    f"{path}:{line_no}: not a phase-event record "
                    f"({error})")
            clock.now = obj["t"]
            hub.phase(obj["phase"], obj["node"], obj["cluster"],
                      obj["round"], obj.get("detail"))
    hub._sim = None
    return hub
