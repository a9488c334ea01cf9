"""The queryable result store: JSONL source of truth + SQLite index.

A store is a directory holding:

* ``records.jsonl`` — one canonical-JSON record per completed run,
  append-only.  This file *is* the store; everything else derives from
  it.
* ``index.sqlite`` — a query index over the JSONL (key, campaign,
  run id, protocol, deployment shape, scenario, digest → byte offset).
  Deleting it is safe: :meth:`ResultStore.reindex` rebuilds it from
  the JSONL on next open.

Records are keyed by :meth:`RunSpec.key` — a digest of the full config
+ fault spec — so a campaign re-run finds every point it already has
(cached hits) and executes nothing.  The ``deployment_digest`` of the
simulated run rides in each record, which is what the CI digest-drift
gate compares across machines.

``ResultStore(None)`` gives an ephemeral in-memory store (no files, an
in-memory index) — used by the benchmark shims and tests that only need
the query API.
"""

from __future__ import annotations

import functools
import json
import operator
import os
import sqlite3
import warnings
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple)

from ..errors import ConfigurationError, StoreError
from .model import SWEEP_SCHEMA

RECORDS_NAME = "records.jsonl"
INDEX_NAME = "index.sqlite"

#: Indexed columns: record-field path -> sqlite column.
_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS records (
    key TEXT PRIMARY KEY,
    campaign TEXT,
    run_id TEXT,
    protocol TEXT,
    num_clusters INTEGER,
    replicas_per_cluster INTEGER,
    batch_size INTEGER,
    seed INTEGER,
    scenario TEXT,
    status TEXT,
    digest TEXT,
    offset INTEGER
);
CREATE INDEX IF NOT EXISTS idx_campaign ON records (campaign);
CREATE INDEX IF NOT EXISTS idx_run_id ON records (run_id);
CREATE INDEX IF NOT EXISTS idx_digest ON records (digest);
"""


def _index_row(record: Mapping[str, Any], offset: int) -> tuple:
    config = record.get("config", {})
    return (
        record["key"],
        record.get("campaign", ""),
        record.get("run_id", ""),
        config.get("protocol", ""),
        config.get("num_clusters", 0),
        config.get("replicas_per_cluster", 0),
        config.get("batch_size", 0),
        config.get("seed", 0),
        record.get("scenario", "none"),
        record.get("status", "ok"),
        record.get("digest", ""),
        offset,
    )


def encode_record(record: Mapping[str, Any]) -> str:
    """Canonical single-line JSON for one record."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class ResultStore:
    """Digest-keyed store of completed sweep runs.

    The public query surface:

    * :meth:`get` — the record for one run key (or ``None``).
    * :meth:`has` — whether a key has a successful record (the cached-
      hit test the scheduler uses).
    * :meth:`query` — records matching equality filters on the indexed
      columns, in insertion order (deterministic).
    * :meth:`add` — append a record (overwrites the key's previous
      record in the index; the JSONL keeps full history).
    """

    def __init__(self, path: Optional[str]):
        self.path = path
        #: An in-memory store's records; an index offset is a position.
        self._lines: List[Dict[str, Any]] = []
        if path is not None:
            os.makedirs(path, exist_ok=True)
        self._db = sqlite3.connect(
            ":memory:" if path is None else self._index_path)
        try:
            self._db.executescript(_SCHEMA_SQL)
            if path is not None and (self._cut_torn_tail()
                                     or self._index_is_stale()):
                self.reindex()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Paths & lifecycle
    # ------------------------------------------------------------------
    @property
    def records_path(self) -> str:
        assert self.path is not None
        return os.path.join(self.path, RECORDS_NAME)

    @property
    def _index_path(self) -> str:
        assert self.path is not None
        return os.path.join(self.path, INDEX_NAME)

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _cut_torn_tail(self) -> bool:
        """Cut an unterminated, unparsable final line (an ``add`` torn by
        a crash) off the JSONL, or terminate a parsable one, so the next
        ``add`` starts a fresh line; whether the file changed."""
        if not os.path.exists(self.records_path):
            return False
        with open(self.records_path, "rb+") as fh:
            data = fh.read()
            start = data.rfind(b"\n") + 1
            if start == len(data):
                return False
            try:
                json.loads(data[start:].decode("utf-8"))
            except ValueError:
                warnings.warn(f"{self.records_path}: cut off a torn final "
                              f"line of {len(data) - start} bytes")
                fh.truncate(start)
            else:
                fh.write(b"\n")
        return True

    def _index_is_stale(self) -> bool:
        """True when the JSONL holds records the index does not."""
        count = self._db.execute(
            "SELECT count(*) FROM records").fetchone()[0]
        if not os.path.exists(self.records_path):
            return count > 0
        # Overwritten keys make lines >= count legitimate; a fresh or
        # deleted index (count == 0) with records present must rebuild.
        return count == 0 and os.path.getsize(self.records_path) > 0

    def reindex(self) -> int:
        """Rebuild the SQLite index from the JSONL; returns row count."""
        self._db.execute("DELETE FROM records")
        total = 0
        if os.path.exists(self.records_path):
            with open(self.records_path, "rb") as fh:
                offset = 0
                for line in fh:
                    stripped = line.strip()
                    if stripped:
                        try:
                            record = json.loads(stripped.decode("utf-8"))
                        except ValueError as exc:
                            raise StoreError(
                                f"{self.records_path}: corrupt record at "
                                f"byte {offset}: {exc}") from exc
                        self._upsert(record, offset)
                        total += 1
                    offset += len(line)
        self._db.commit()
        return total

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _upsert(self, record: Mapping[str, Any], offset: int) -> None:
        self._db.execute(
            "INSERT OR REPLACE INTO records VALUES "
            "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            _index_row(record, offset))

    def add(self, record: Mapping[str, Any]) -> None:
        """Append one record (must carry ``key``; schema-stamped)."""
        if "key" not in record:
            raise ConfigurationError("store record must carry a 'key'")
        doc = dict(record)
        doc.setdefault("schema", SWEEP_SCHEMA)
        if self.path is None:
            offset = len(self._lines)
            self._lines.append(doc)
        else:
            line = (encode_record(doc) + "\n").encode("utf-8")
            offset = (os.path.getsize(self.records_path)
                      if os.path.exists(self.records_path) else 0)
            with open(self.records_path, "ab") as fh:
                fh.write(line)
        self._upsert(doc, offset)
        self._db.commit()

    def add_all(self, records: Iterable[Mapping[str, Any]]) -> int:
        count = 0
        for record in records:
            self.add(record)
            count += 1
        return count

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _load_at(self, offset: int) -> Dict[str, Any]:
        if self.path is None:
            return self._lines[offset]
        with open(self.records_path, "rb") as fh:
            fh.seek(offset)
            return json.loads(fh.readline().decode("utf-8"))

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The latest record for ``key``, or ``None``."""
        row = self._db.execute(
            "SELECT offset FROM records WHERE key = ?", (key,)).fetchone()
        if row is None:
            return None
        return self._load_at(row[0])

    def has(self, key: str) -> bool:
        """Whether ``key`` has a *successful* record (a cached hit)."""
        record = self.get(key)
        return record is not None and record.get("status") == "ok"

    def query(self, **filters: Any) -> List[Dict[str, Any]]:
        """Records matching equality ``filters`` on indexed columns.

        Supported filters: ``campaign``, ``run_id``, ``protocol``,
        ``num_clusters``, ``replicas_per_cluster``, ``batch_size``,
        ``seed``, ``scenario``, ``status``, ``digest``.
        Records come back in insertion order — deterministic, so
        report regeneration is byte-stable.
        """
        allowed = {"campaign", "run_id", "protocol", "num_clusters",
                   "replicas_per_cluster", "batch_size", "seed",
                   "scenario", "status", "digest"}
        unknown = set(filters) - allowed
        if unknown:
            raise ConfigurationError(
                f"unknown store filters {sorted(unknown)}; "
                f"expected a subset of {sorted(allowed)}")
        clauses, params = [], []
        for name, value in sorted(filters.items()):
            clauses.append(f"{name} = ?")
            params.append(value)
        sql = "SELECT offset FROM records"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY offset"
        rows = self._db.execute(sql, params).fetchall()
        return [self._load_at(offset) for (offset,) in rows]

    def count(self, **filters: Any) -> int:
        return len(self.query(**filters))

    def campaigns(self) -> List[str]:
        """Campaign names present in the store (sorted)."""
        rows = self._db.execute(
            "SELECT DISTINCT campaign FROM records ORDER BY campaign")
        return [name for (name,) in rows]


# ----------------------------------------------------------------------
# BENCH_<figure>.json interop
# ----------------------------------------------------------------------

#: The scale and overload sweeps' simulated windows: their campaigns
#: read them here, so a file's header and its runs cannot drift.
SCALE_SIM_DURATION = 1.2
OVERLOAD_SIM_DURATION = 1.6

#: Row fields every fresh record yields, as ``measures`` entries.
_SHARED_MEASURES = {"digest": ("digest", None), "events": ("events", None),
                    "protocol": ("config.protocol", None),
                    "wall_s": ("wall_s", 3)}


@dataclass(frozen=True)
class BenchSpec:
    """One committed baseline file, ``BENCH_<figure>.json``.

    ``figure`` is also the records' figure tag and their key prefix.
    ``identity`` names the row fields that make a point; ``defaults``
    fills fields that older rows omit.  A fresh record's row takes its
    identity from its tags, and each ``measures`` field from ``(path,
    places)``: the value at that dotted path, rounded to ``places`` (0:
    to an int, None: not at all).
    """

    schema: str
    benchmark: str
    figure: str
    identity: Tuple[str, ...]
    defaults: Mapping[str, Any]
    measures: Mapping[str, Tuple[str, Optional[int]]]
    run_id: Callable[..., str]

    @property
    def row_keys(self) -> Tuple[str, ...]:
        return tuple(sorted({*self.identity, *self.defaults, "events_per_s",
                             *_SHARED_MEASURES, *self.measures}))

    def identify(self, point: Mapping[str, Any]) -> Tuple[Any, ...]:
        fields = {**self.defaults, **point}
        return tuple(fields[k] for k in self.identity)


SCALE_BENCH = BenchSpec(
    schema="bench-scale/2",
    benchmark=("scale sweep (geobft, saturated, batch=100, "
               f"duration={SCALE_SIM_DURATION}s)"),
    figure="scale",
    identity=("n",),
    # Every run is serial; ``workers`` stays in the row only because
    # perfbench/run.py picks its n=16 / n=91 digest rows by it.
    defaults={"protocol": "geobft", "workers": 1},
    measures={"avg_latency_s": ("result.avg_latency_s", 6),
              "max_queue_depth": ("max_queue_depth", None),
              "throughput_txn_s": ("result.throughput_txn_s", 0)},
    run_id=lambda n: f"scale/n{n}",
)

OVERLOAD_BENCH = BenchSpec(
    schema="bench-overload/1",
    benchmark=("overload sweep (open-loop traffic, 0.5x-4x saturation, "
               f"duration={OVERLOAD_SIM_DURATION}s)"),
    figure="overload",
    identity=("protocol", "workload", "x"),
    defaults={"workload": "ycsb"},
    measures={"abandonment_rate": ("result.traffic.abandonment_rate", 6),
              "goodput_txn_s": ("result.traffic.goodput_txn_s", 0),
              "offered_txn_s": ("result.traffic.offered_txn_s", 0),
              "p50_latency_s": ("result.p50_latency_s", 6),
              "p95_latency_s": ("result.p95_latency_s", 6),
              "p99_latency_s": ("result.p99_latency_s", 6),
              "users": ("result.traffic.modeled_users", None)},
    # ``x`` is the offered-load factor; YCSB points keep the short form.
    run_id=lambda protocol, workload, x: (
        f"overload/{protocol}/x{x:g}" if workload == "ycsb"
        else f"overload/{workload}-{protocol}-x{x:g}"),
)

BENCH_SPECS = (SCALE_BENCH, OVERLOAD_BENCH)


def _spec(field: str, value: Any) -> BenchSpec:
    """The bench file whose ``field`` (schema or figure) is ``value``."""
    for spec in BENCH_SPECS:
        if getattr(spec, field) == value:
            return spec
    raise ConfigurationError(
        f"unknown bench {field} {value!r}; expected one of "
        f"{[getattr(spec, field) for spec in BENCH_SPECS]}")


def figure_records(records: Iterable[Mapping[str, Any]],
                   figure: str) -> List[Mapping[str, Any]]:
    """The records tagged as belonging to ``figure``."""
    return [r for r in records
            if r.get("tags", {}).get("figure") == figure]


def _text(value: Any) -> str:
    return f"{value:g}" if isinstance(value, float) else str(value)


def load_bench(path: str) -> Dict[str, Any]:
    """A bench file's payload; a file of no known ``schema`` raises."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        _spec("schema", payload.get("schema"))
    except (OSError, ValueError, AttributeError, ConfigurationError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    return payload


def import_bench(path: str) -> List[Dict[str, Any]]:
    """Store records from a committed ``BENCH_<figure>.json`` baseline.

    The file's ``schema`` picks its spec.  Each point becomes one record
    whose ``bench`` block is the point verbatim, so :func:`render_bench`
    round-trips the file byte-identically.  Records are keyed
    ``bench-<figure>:<identity>`` (``bench-overload:geobft:ycsb:2``),
    not by config fingerprint: a baseline file does not carry the full
    config, and these records serve regeneration and digest comparison.
    """
    payload = load_bench(path)
    spec = _spec("schema", payload["schema"])
    records = []
    for point in payload.get("points", []):
        fields = {**spec.defaults, **point}
        ident = {k: fields[k] for k in spec.identity}
        records.append({
            "schema": SWEEP_SCHEMA,
            "key": ":".join([f"bench-{spec.figure}",
                             *map(_text, ident.values())]),
            "campaign": spec.figure,
            "run_id": spec.run_id(**ident),
            "tags": {"figure": spec.figure, **ident},
            "config": {"protocol": fields["protocol"]},
            "scenario": "none",
            "status": "ok",
            "digest": point["digest"],
            "bench": dict(point),
            "host": dict(payload.get("host", {})),
        })
    return records


def point_from_record(record: Mapping[str, Any]) -> Dict[str, Any]:
    """The bench row for one record, of the file its figure tag names.

    Imported records carry the row verbatim under ``bench``; fresh runs
    synthesize it from measured fields with the rounding the committed
    rows use.
    """
    spec = _spec("figure", record.get("tags", {}).get("figure"))
    bench = record.get("bench")
    if bench is not None:
        return {k: bench[k] for k in spec.row_keys if k in bench}
    fields = {**spec.defaults, **record["tags"]}
    row = {k: fields[k] for k in spec.row_keys if k in fields}
    for key, (path, places) in {**_SHARED_MEASURES, **spec.measures}.items():
        value = functools.reduce(operator.getitem, path.split("."), record)
        if places is not None:
            value = round(value, places) if places else round(value)
        row[key] = value
    row["events_per_s"] = round(record["events"] / record["wall_s"])
    return row


def render_bench(records: Iterable[Mapping[str, Any]]) -> str:
    """``BENCH_<figure>.json`` content regenerated from store records.

    The records' figure tag picks the file; its host block is the first
    record's (imported baselines carry the original host).  Points are
    ordered by their identity, ``indent=1``, sorted keys, trailing
    newline — byte-identical to the committed file for the same
    measurements.
    """
    records = list(records)
    if not records:
        raise ConfigurationError("no bench records to render; run the "
                                 "scale or overload campaign first")
    spec = _spec("figure", records[0].get("tags", {}).get("figure"))
    if len(figure_records(records, spec.figure)) != len(records):
        raise ConfigurationError("bench records of several figures")
    host = next((r["host"] for r in records if r.get("host")), None)
    if host is None:
        raise ConfigurationError(
            f"no host calibration block in the {spec.figure} records")
    payload = {
        "schema": spec.schema,
        "benchmark": spec.benchmark,
        "host": dict(host),
        "points": sorted(map(point_from_record, records),
                         key=spec.identify),
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def compare_baseline(records: Iterable[Mapping[str, Any]],
                     calibration: float, baseline: Mapping[str, Any],
                     tolerance: float = 0.30) -> List[str]:
    """The CI perf gate: campaign records vs a committed baseline.

    The baseline's ``schema`` picks the file; records of other figures
    take no part.  Returns failure strings (empty == pass).  Per shared
    point: **digest equality** (a pure function of the configuration, so
    equal on any host) and **calibrated rate regression** (events/s over
    each host's calibration loop; a drop beyond ``tolerance`` fails).
    Comparing no point fails too: a stale baseline or a filter to a
    point the file lacks must not pass.
    """
    spec = _spec("schema", baseline.get("schema"))
    points = list(map(point_from_record,
                      figure_records(records, spec.figure)))
    if not points:
        return [f"no {spec.figure}-tagged records in this campaign to "
                "compare"]
    failures: List[str] = []
    base_cal = baseline.get("host", {}).get("calibration_ops_per_s")
    base_points = {spec.identify(p): p for p in baseline.get("points", [])}
    compared = 0
    for point in points:
        ident = spec.identify(point)
        base = base_points.get(ident)
        if base is None:
            continue
        compared += 1
        label = " ".join(f"{k}={_text(v)}"
                         for k, v in zip(spec.identity, ident))
        if base["digest"] != point["digest"]:
            failures.append(
                f"{label}: deployment_digest mismatch vs baseline "
                f"({point['digest'][:12]}… != {base['digest'][:12]}…) — "
                "simulated behaviour changed")
        if not base_cal or not calibration:
            continue
        current_rate = point["events_per_s"] / calibration
        base_rate = base["events_per_s"] / base_cal
        if current_rate < base_rate * (1.0 - tolerance):
            failures.append(
                f"{label}: calibrated event rate regressed "
                f"{(1.0 - current_rate / base_rate) * 100:.0f}% "
                f"(>{tolerance * 100:.0f}% tolerance): "
                f"{current_rate:.2f} vs baseline {base_rate:.2f} "
                "events per calibration-op")
    if not compared:
        failures.append(f"none of {len(points)} {spec.figure}-tagged "
                        "records is a point of the baseline")
    return failures


__all__ = [
    "BENCH_SPECS",
    "BenchSpec",
    "OVERLOAD_BENCH",
    "OVERLOAD_SIM_DURATION",
    "ResultStore",
    "SCALE_BENCH",
    "SCALE_SIM_DURATION",
    "compare_baseline",
    "encode_record",
    "figure_records",
    "import_bench",
    "load_bench",
    "point_from_record",
    "render_bench",
]
