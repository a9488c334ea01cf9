"""The campaign scheduler: DAG wavefront over a process pool.

The orchestrating process owns the DAG, the store, and the report tail;
``--jobs N`` spawn-safe worker processes pull :class:`RunSpec` tasks
from a queue and push finished records back.  This pool is the only
way the package uses more than one host core.  Each run is itself
deterministic and self-contained, so fan-out order cannot change any
record's content — only wall time.

Scheduling rules:

* a run becomes **ready** when every dependency has an ``ok`` record;
* a ready run whose key the store already holds is a **cached hit** —
  counted, never executed (re-running a warm campaign does nothing);
* a **failed** run (error or invariant violation) marks every
  transitive dependant **skipped**;
* at most ``jobs`` runs are in flight at once.

With ``jobs = 1`` no pool is created at all: runs execute inline in
the orchestrating process (fastest path for small campaigns and the
benchmark shims).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..errors import ConfigurationError
from .calibrate import calibrate_host, host_info
from .model import Campaign, RunSpec
from .runner import execute_run
from .store import ResultStore


@dataclass
class CampaignOutcome:
    """Everything one campaign execution produced."""

    campaign: str
    #: Records of runs executed this session, in completion order.
    executed: List[Dict[str, Any]] = field(default_factory=list)
    #: Records served straight from the store (never re-run).
    cached: List[Dict[str, Any]] = field(default_factory=list)
    #: run ids skipped because a dependency failed.
    skipped: List[str] = field(default_factory=list)
    #: run ids that failed (error or invariant violation).
    failed: List[str] = field(default_factory=list)
    #: Report name -> rendered artifact content.
    artifacts: Dict[str, str] = field(default_factory=dict)
    #: Report name -> artifact filename.
    artifact_names: Dict[str, str] = field(default_factory=dict)
    host: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failed and not self.skipped

    @property
    def records(self) -> List[Dict[str, Any]]:
        """All successful records in campaign run order (cached +
        executed merged by run id order of the campaign)."""
        by_id = {r["run_id"]: r for r in self.cached}
        by_id.update({r["run_id"]: r for r in self.executed})
        ordered = sorted(by_id.values(),
                         key=lambda r: self._order.get(r["run_id"], 1 << 30))
        return [r for r in ordered if r.get("status") == "ok"]

    #: run id -> declaration index (set by the scheduler).
    _order: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        parts = [f"campaign {self.campaign}:",
                 f"{len(self.executed)} run(s) executed,",
                 f"{len(self.cached)} cached hit(s),",
                 f"{len(self.skipped)} skipped,",
                 f"{len(self.failed)} failed"]
        return " ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "campaign": self.campaign,
            "ok": self.ok,
            "executed": [r["run_id"] for r in self.executed],
            "cached": [r["run_id"] for r in self.cached],
            "skipped": list(self.skipped),
            "failed": list(self.failed),
            "artifacts": sorted(self.artifacts),
            "host": dict(self.host),
        }


def _pool_worker(task_queue: Any, result_queue: Any,
                 campaign: str, host: Dict[str, Any]) -> None:
    """Worker-process main: drain specs until the ``None`` sentinel."""
    while True:
        spec = task_queue.get()
        if spec is None:
            break
        result_queue.put(execute_run(spec, campaign, host=host))


class SweepScheduler:
    """Drains one campaign DAG through the store and (optionally) a pool."""

    def __init__(self, campaign: Campaign, store: ResultStore,
                 jobs: int = 1, rerun: bool = False,
                 host: Optional[Mapping[str, Any]] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 partial: bool = False):
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        self.campaign = campaign
        self.store = store
        self.jobs = jobs
        self.rerun = rerun
        self.host = dict(host) if host is not None else {}
        self._progress = progress or (lambda line: None)
        self.partial = partial

    def _say(self, line: str) -> None:
        self._progress(line)

    # ------------------------------------------------------------------
    def run(self) -> CampaignOutcome:
        if not self.host:
            self.host = host_info(calibrate_host())
        outcome = CampaignOutcome(campaign=self.campaign.name,
                                  host=dict(self.host))
        outcome._order = {spec.run_id: i
                          for i, spec in enumerate(self.campaign.runs)}
        order = self.campaign.toposort()
        status: Dict[str, str] = {}  # run_id -> ok|failed|skipped

        # Phase 1: serve cached hits and find what actually needs work.
        pending: List[RunSpec] = []
        for spec in order:
            if not self.rerun and self.store.has(spec.key()):
                record = self.store.get(spec.key())
                assert record is not None
                outcome.cached.append(record)
                status[spec.run_id] = "ok"
                self._say(f"  cached  {spec.run_id} "
                          f"(digest {record.get('digest', '')[:12]}…)")
            else:
                pending.append(spec)

        if pending:
            if self.jobs > 1 and len(pending) > 1:
                self._run_pool(pending, status, outcome)
            else:
                self._run_inline(pending, status, outcome)

        self._render_reports(outcome)
        return outcome

    # ------------------------------------------------------------------
    def _dependency_block(self, spec: RunSpec,
                          status: Dict[str, str]) -> Optional[str]:
        """``None`` when runnable, else the failed/skipped dependency."""
        for dep in spec.depends_on:
            if status.get(dep) in ("failed", "skipped"):
                return dep
        return None

    def _ready(self, spec: RunSpec, status: Dict[str, str]) -> bool:
        return all(status.get(dep) == "ok" for dep in spec.depends_on)

    def _land(self, spec: RunSpec, record: Dict[str, Any],
              status: Dict[str, str], outcome: CampaignOutcome) -> None:
        self.store.add(record)
        outcome.executed.append(record)
        if record["status"] == "ok":
            status[spec.run_id] = "ok"
            self._say(f"  ok      {spec.run_id} "
                      f"wall={record['wall_s']}s "
                      f"digest={record['digest'][:12]}…")
        else:
            status[spec.run_id] = "failed"
            outcome.failed.append(spec.run_id)
            self._say(f"  FAILED  {spec.run_id}: "
                      f"{record.get('error', 'unknown error')}")

    def _skip(self, spec: RunSpec, dep: str, status: Dict[str, str],
              outcome: CampaignOutcome) -> None:
        status[spec.run_id] = "skipped"
        outcome.skipped.append(spec.run_id)
        self._say(f"  skipped {spec.run_id} "
                  f"(dependency {dep} did not complete)")

    # ------------------------------------------------------------------
    def _run_inline(self, pending: List[RunSpec], status: Dict[str, str],
                    outcome: CampaignOutcome) -> None:
        for spec in pending:
            blocker = self._dependency_block(spec, status)
            if blocker is not None:
                self._skip(spec, blocker, status, outcome)
                continue
            self._say(f"  run     {spec.run_id}")
            record = execute_run(spec, self.campaign.name, host=self.host)
            self._land(spec, record, status, outcome)

    def _run_pool(self, pending: List[RunSpec], status: Dict[str, str],
                  outcome: CampaignOutcome) -> None:
        ctx = multiprocessing.get_context("spawn")
        workers = min(self.jobs, len(pending))
        task_queue: Any = ctx.Queue()
        result_queue: Any = ctx.Queue()
        procs = [ctx.Process(target=_pool_worker,
                             args=(task_queue, result_queue,
                                   self.campaign.name, self.host),
                             name=f"sweep-worker-{rank}")
                 for rank in range(workers)]
        for proc in procs:
            proc.start()
        waiting = list(pending)
        in_flight: Dict[str, RunSpec] = {}
        try:
            while waiting or in_flight:
                # Launch every admissible ready run.
                launched = True
                while launched:
                    launched = False
                    for spec in list(waiting):
                        blocker = self._dependency_block(spec, status)
                        if blocker is not None:
                            waiting.remove(spec)
                            self._skip(spec, blocker, status, outcome)
                            launched = True
                        elif (self._ready(spec, status)
                              and len(in_flight) < self.jobs):
                            waiting.remove(spec)
                            in_flight[spec.run_id] = spec
                            self._say(f"  run     {spec.run_id}")
                            task_queue.put(spec)
                            launched = True
                if not in_flight:
                    if waiting:
                        # Nothing running and nothing launchable: the
                        # remaining runs wait on each other — impossible
                        # after toposort, so treat it as a hard error.
                        raise ConfigurationError(
                            "scheduler deadlock: "
                            + ", ".join(s.run_id for s in waiting))
                    break
                record = result_queue.get()
                spec = in_flight.pop(record["run_id"])
                self._land(spec, record, status, outcome)
        finally:
            for _ in procs:
                task_queue.put(None)
            for proc in procs:
                proc.join(timeout=30)
                if proc.is_alive():
                    proc.terminate()

    # ------------------------------------------------------------------
    def _render_reports(self, outcome: CampaignOutcome) -> None:
        records = outcome.records
        for report in self.campaign.reports:
            try:
                content = report.build(records)
            # A report failure must not discard the run records that
            # already landed in the store; it is recorded on the
            # outcome instead of raising.  On a deliberately partial
            # campaign (--filter), sibling reports are *expected* to
            # lack their points, so they are dropped with a note
            # rather than failing the invocation.
            # repro: allow[no-silent-except]
            except Exception as exc:
                if self.partial:
                    self._say(f"  (report {report.name} not rendered "
                              f"on the filtered campaign: {exc})")
                    continue
                outcome.failed.append(f"report:{report.name}")
                outcome.artifacts[report.name] = (
                    f"(report {report.name} failed: "
                    f"{type(exc).__name__}: {exc})\n")
                outcome.artifact_names[report.name] = report.filename
                continue
            outcome.artifacts[report.name] = content
            outcome.artifact_names[report.name] = report.filename


def run_campaign(campaign: Campaign, store: Optional[ResultStore] = None,
                 jobs: int = 1, rerun: bool = False,
                 host: Optional[Mapping[str, Any]] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 partial: bool = False) -> CampaignOutcome:
    """Execute ``campaign`` against ``store`` (default: in-memory).

    The one-call form of the scheduler; see :class:`SweepScheduler`.
    ``host`` defaults to a fresh host calibration — pass a previously
    measured block to skip the ~1 s calibration loop (tests do).
    ``partial`` marks a deliberately filtered campaign: reports whose
    points were filtered away are dropped instead of failing.
    """
    if store is None:
        store = ResultStore(None)
    scheduler = SweepScheduler(campaign, store, jobs=jobs, rerun=rerun,
                               host=host, progress=progress,
                               partial=partial)
    return scheduler.run()


__all__ = [
    "CampaignOutcome",
    "SweepScheduler",
    "run_campaign",
]
