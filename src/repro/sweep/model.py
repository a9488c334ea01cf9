"""The campaign model: runs, dependencies, claims, and grid expansion.

A :class:`Campaign` is a DAG of :class:`RunSpec` nodes.  Each node is
one deterministic, self-contained experiment (an
:class:`~repro.bench.deployment.ExperimentConfig` plus an optional
failure scenario or fault-timeline spec); edges (``depends_on``) order
runs that must happen first — e.g. a primary-crash point depends on
its failure-free reference run, which the figure compares it with.

Every run has a deterministic **key**: a SHA-256 over the canonical
JSON of its config, scenario, and fault spec (plus the result-schema
version).  The key is what the result store indexes on, which is what
makes re-running a campaign against a warm store a no-op: a run whose
key already has an ``ok`` record is a cached hit and is never executed
again.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

from ..bench.deployment import ExperimentConfig, RESULT_SCHEMA
from ..errors import ConfigurationError

#: Version tag stamped on every store record.
SWEEP_SCHEMA = "repro-sweep/1"


def config_fingerprint(config: ExperimentConfig) -> Dict[str, Any]:
    """The canonical, JSON-able form of an experiment config.

    ``asdict`` flattens the nested dataclasses (GeoBFT knobs, crypto
    cost model); anything non-JSON-able (a custom topology object) is
    rendered through ``str`` so it still contributes to the key.
    """
    doc = asdict(config)
    # Round-trip through canonical JSON so the fingerprint is a pure
    # value (tuples become lists, custom objects become strings).
    return json.loads(json.dumps(doc, sort_keys=True, default=str))


@dataclass(frozen=True)
class RunSpec:
    """One node of a campaign DAG: a single deterministic experiment.

    * ``run_id`` — unique within the campaign; hierarchical ids
      (``"fig10/geobft/z4"``) keep ``--filter`` useful.
    * ``config`` — the full experiment configuration.
    * ``scenario`` / ``fail_at`` — a named failure scenario from the
      open registry, applied to the built deployment.
    * ``faults`` — a :meth:`~repro.net.chaos.FaultTimeline.to_dict`
      spec, installed on the built deployment (JSON-able so specs
      travel to pool workers and into store records).
    * ``depends_on`` — run ids that must complete *successfully*
      before this run starts; a failed dependency skips this run.
    * ``tags`` — free-form labels (figure name, series, x position)
      that the store indexes for querying and report regeneration.
    """

    run_id: str
    config: ExperimentConfig
    scenario: str = "none"
    fail_at: float = 0.0
    faults: Optional[Dict[str, Any]] = None
    depends_on: Tuple[str, ...] = ()
    tags: Mapping[str, Any] = field(default_factory=dict)

    def key(self) -> str:
        """Digest key of this run: what the result store indexes on."""
        payload = json.dumps(
            {
                "schema": RESULT_SCHEMA,
                "config": config_fingerprint(self.config),
                "scenario": self.scenario,
                "fail_at": self.fail_at,
                "faults": self.faults,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        cfg = self.config
        extra = ""
        if self.scenario != "none":
            extra += f" scenario={self.scenario}"
        if self.faults is not None:
            extra += f" faults={self.faults.get('name', 'timeline')!r}"
        if self.depends_on:
            extra += f" after={','.join(self.depends_on)}"
        return (f"{self.run_id}: {cfg.protocol} z={cfg.num_clusters} "
                f"n={cfg.replicas_per_cluster} b={cfg.batch_size} "
                f"d={cfg.duration}s{extra}")


@dataclass(frozen=True)
class ReportSpec:
    """A post-run artifact regenerated from the result store.

    ``build`` receives the campaign's records (in run order) and
    returns the artifact's full content; byte-identical output from
    identical records is part of its contract.  Reports run in the
    orchestrating process after every run has landed, which is the
    "then regenerate figures" tail of the campaign DAG.
    """

    name: str
    filename: str
    build: Callable[[Sequence[Dict[str, Any]]], str]


@dataclass(frozen=True)
class Claim:
    """One of the paper's claims, checked on a campaign's records.

    ``check`` receives the campaign's successful records (in run order)
    and returns whether the claim holds; an exception fails the claim
    with its message (a check raises to name what broke).  ``paper``
    says where the paper makes the claim.  A failed hard claim fails
    the campaign; a failed soft claim (``hard=False``) is reported as a
    deviation — for secondary claims that the scaled-down deployments
    can bend.  Claims run in the orchestrating process after the
    reports.
    """

    name: str
    paper: str
    check: Callable[[Sequence[Dict[str, Any]]], bool]
    hard: bool = True


@dataclass(frozen=True)
class Campaign:
    """A named experiment campaign: a DAG of runs, its reports, and the
    paper's claims about its results."""

    name: str
    description: str
    runs: Tuple[RunSpec, ...]
    reports: Tuple[ReportSpec, ...] = ()
    claims: Tuple[Claim, ...] = ()

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject duplicate ids or claim names, unknown dependencies,
        and cycles."""
        names = [claim.name for claim in self.claims]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"campaign {self.name!r}: duplicate claim names")
        seen: Dict[str, RunSpec] = {}
        for spec in self.runs:
            if spec.run_id in seen:
                raise ConfigurationError(
                    f"campaign {self.name!r}: duplicate run id "
                    f"{spec.run_id!r}")
            seen[spec.run_id] = spec
        for spec in self.runs:
            for dep in spec.depends_on:
                if dep not in seen:
                    raise ConfigurationError(
                        f"campaign {self.name!r}: run {spec.run_id!r} "
                        f"depends on unknown run {dep!r}")
        self.toposort()  # raises on cycles

    def run_ids(self) -> Tuple[str, ...]:
        return tuple(spec.run_id for spec in self.runs)

    def get(self, run_id: str) -> RunSpec:
        for spec in self.runs:
            if spec.run_id == run_id:
                return spec
        raise ConfigurationError(
            f"campaign {self.name!r} has no run {run_id!r}")

    def toposort(self) -> List[RunSpec]:
        """Dependency-respecting run order (Kahn's algorithm).

        Stable: among simultaneously-ready runs, declaration order is
        preserved, so scheduling is deterministic.
        """
        order: List[RunSpec] = []
        done: set = set()
        pending = list(self.runs)
        while pending:
            progressed = False
            remaining: List[RunSpec] = []
            for spec in pending:
                if all(dep in done for dep in spec.depends_on):
                    order.append(spec)
                    done.add(spec.run_id)
                    progressed = True
                else:
                    remaining.append(spec)
            if not progressed:
                cycle = ", ".join(spec.run_id for spec in remaining)
                raise ConfigurationError(
                    f"campaign {self.name!r}: dependency cycle among "
                    f"{cycle}")
            pending = remaining
        return order

    def subset(self, predicate: Callable[[RunSpec], bool]) -> "Campaign":
        """The sub-campaign of runs matching ``predicate``, closed over
        dependencies (a selected run drags its ancestors in so the DAG
        stays executable).  Claims speak about the whole grid, so only a
        subset that keeps every run keeps them."""
        by_id = {spec.run_id: spec for spec in self.runs}
        selected: set = set()

        def pull(run_id: str) -> None:
            if run_id in selected:
                return
            selected.add(run_id)
            for dep in by_id[run_id].depends_on:
                pull(dep)

        for spec in self.runs:
            if predicate(spec):
                pull(spec.run_id)
        runs = tuple(spec for spec in self.runs
                     if spec.run_id in selected)
        claims = self.claims if len(runs) == len(self.runs) else ()
        return Campaign(name=self.name, description=self.description,
                        runs=runs, reports=self.reports, claims=claims)

    def filtered(self, pattern: str) -> "Campaign":
        """``--filter``: keep runs whose id contains ``pattern``."""
        sub = self.subset(lambda spec: pattern in spec.run_id)
        if not sub.runs:
            raise ConfigurationError(
                f"campaign {self.name!r}: no run id matches "
                f"{pattern!r}; ids are {', '.join(self.run_ids())}")
        return sub


def expand_grid(**axes: Sequence[Any]) -> Iterator[Dict[str, Any]]:
    """Cartesian grid expansion in stable axis order.

    ``expand_grid(protocol=("a", "b"), n=(4, 7))`` yields the four
    combinations with the *first* axis varying slowest — the order the
    figure scripts have always used (protocol-major), so migrated
    campaigns execute their points in the historical order.
    """
    names = list(axes)
    if not names:
        yield {}
        return

    def rec(i: int, acc: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
        if i == len(names):
            yield dict(acc)
            return
        name = names[i]
        for value in axes[name]:
            acc[name] = value
            yield from rec(i + 1, acc)
        acc.pop(name, None)

    yield from rec(0, {})


def result_from_record(record: Mapping[str, Any]):
    """Rebuild an :class:`ExperimentResult` from a store record."""
    from ..bench.deployment import ExperimentResult
    return ExperimentResult.from_dict(record["result"])


def record_series(records: Iterable[Mapping[str, Any]], value: str,
                  series_tag: str = "protocol",
                  x_tag: str = "x") -> Tuple[List[Any],
                                             Dict[str, List[float]]]:
    """Pivot records into figure series.

    Returns ``(x_values, {series_name: [value, ...]})`` with x values
    ordered by their ``xi`` grid-index tag and series in first-seen
    order — the exact shape
    :func:`repro.bench.reporting.format_figure_series` takes.
    """
    xs: Dict[Any, int] = {}
    series: Dict[str, Dict[Any, float]] = {}
    for record in records:
        tags = record.get("tags", {})
        if x_tag not in tags or series_tag not in tags:
            continue
        x = tags[x_tag]
        xs.setdefault(x, int(tags.get("xi", len(xs))))
        row = record["result"]
        series.setdefault(str(tags[series_tag]), {})[x] = row[value]
    ordered_x = [x for x, _ in sorted(xs.items(), key=lambda kv: kv[1])]
    return ordered_x, {
        name: [points.get(x, float("nan")) for x in ordered_x]
        for name, points in series.items()
    }


__all__ = [
    "Campaign",
    "Claim",
    "ReportSpec",
    "RunSpec",
    "SWEEP_SCHEMA",
    "config_fingerprint",
    "expand_grid",
    "record_series",
    "result_from_record",
]
