"""Run execution: one :class:`RunSpec` in, one store record out.

This is the code both execution paths share — the inline path
(``--jobs 1``: runs in the orchestrating process) and the pool path
(spawned worker processes) — so a campaign lands identical records
either way.  Each run builds a fresh deployment, arranges the spec's
faults, runs it, and packages the result row, the deployment digest,
simulator counters, and host wall-time into a JSON-able record.

Wall-clock reads here time *host* execution of a run (the numbers the
perf gates compare after host calibration); they never execute inside
simulated time, which is why this module is allowlisted from the
``no-wallclock`` lint rule.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Dict, Mapping, Optional

from ..bench.deployment import Deployment, deployment_digest
from .model import RunSpec, SWEEP_SCHEMA, config_fingerprint


def _arrange(deployment: Deployment, spec: RunSpec) -> None:
    if spec.scenario != "none":
        from ..bench.scenarios import apply_scenario
        apply_scenario(deployment, spec.scenario, fail_at=spec.fail_at)
    if spec.faults is not None:
        from ..net.chaos import FaultTimeline
        FaultTimeline.from_dict(spec.faults).install(deployment)


def _execute(spec: RunSpec) -> Dict[str, Any]:
    """Run the experiment; returns the measured core of the record."""
    deployment = Deployment(spec.config)
    _arrange(deployment, spec)
    t0 = time.perf_counter()
    result = deployment.run()
    wall = time.perf_counter() - t0
    report = deployment.invariants
    invariants_ok = (report.ok if report is not None
                     else result.safety_ok and result.liveness_ok)
    return {
        "result": result.to_dict(),
        "digest": deployment_digest(deployment, result),
        "events": deployment.sim.events_processed,
        "max_queue_depth": deployment.sim.max_queue_depth,
        "wall_s": wall,
        "invariants_ok": invariants_ok,
    }


def execute_run(spec: RunSpec, campaign: str,
                host: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
    """Execute one run and return its full store record.

    Failures never propagate: a run that raises produces a
    ``status="failed"`` record carrying the error, so the scheduler can
    skip its dependants and keep draining the rest of the DAG.
    """
    record: Dict[str, Any] = {
        "schema": SWEEP_SCHEMA,
        "key": spec.key(),
        "campaign": campaign,
        "run_id": spec.run_id,
        "tags": dict(spec.tags),
        "config": config_fingerprint(spec.config),
        "scenario": spec.scenario,
        "fail_at": spec.fail_at,
        "faults": spec.faults,
        "host": dict(host) if host is not None else {},
    }
    try:
        measured = _execute(spec)
    # The record *is* the error report: the scheduler fails the run,
    # skips its dependants, and surfaces the message — nothing is
    # swallowed.  # repro: allow[no-silent-except]
    except Exception as exc:
        record.update({
            "status": "failed",
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        })
        return record
    record.update(measured)
    wall = record["wall_s"]
    record["wall_s"] = round(wall, 3)
    record["events_per_s"] = round(record["events"] / wall) if wall else 0
    record["status"] = ("ok" if measured["invariants_ok"] else "failed")
    if not measured["invariants_ok"]:
        record["error"] = "invariant audit failed (safety or liveness)"
    return record


__all__ = ["execute_run"]
