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

``ResultStore(None)`` gives an ephemeral in-memory store (no files) —
used by the benchmark shims and tests that only need the query API.
"""

from __future__ import annotations

import json
import os
import sqlite3
import warnings
from typing import Any, Dict, Iterable, List, Mapping, Optional

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
        self._memory: Dict[str, Dict[str, Any]] = {}
        self._order: List[str] = []
        self._db: Optional[sqlite3.Connection] = None
        if path is not None:
            os.makedirs(path, exist_ok=True)
            self._db = sqlite3.connect(self._index_path)
            try:
                self._db.executescript(_SCHEMA_SQL)
                if self._cut_torn_tail() or self._index_is_stale():
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
        if self._db is not None:
            self._db.close()
            self._db = None

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
        assert self._db is not None
        count = self._db.execute(
            "SELECT count(*) FROM records").fetchone()[0]
        if not os.path.exists(self.records_path):
            return count > 0
        # Overwritten keys make lines >= count legitimate; a fresh or
        # deleted index (count == 0) with records present must rebuild.
        return count == 0 and os.path.getsize(self.records_path) > 0

    def reindex(self) -> int:
        """Rebuild the SQLite index from the JSONL; returns row count."""
        assert self._db is not None
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
        assert self._db is not None
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
            if doc["key"] not in self._memory:
                self._order.append(doc["key"])
            self._memory[doc["key"]] = doc
            return
        line = (encode_record(doc) + "\n").encode("utf-8")
        offset = (os.path.getsize(self.records_path)
                  if os.path.exists(self.records_path) else 0)
        with open(self.records_path, "ab") as fh:
            fh.write(line)
        self._upsert(doc, offset)
        assert self._db is not None
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
        with open(self.records_path, "rb") as fh:
            fh.seek(offset)
            return json.loads(fh.readline().decode("utf-8"))

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The latest record for ``key``, or ``None``."""
        if self.path is None:
            return self._memory.get(key)
        assert self._db is not None
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
        if self.path is None:
            out = []
            for key in self._order:
                record = self._memory[key]
                config = record.get("config", {})
                ok = True
                for name, value in filters.items():
                    actual = (record.get(name) if name in record
                              else config.get(name))
                    if actual != value:
                        ok = False
                        break
                if ok:
                    out.append(record)
            return out
        assert self._db is not None
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
        if self.path is None:
            return sorted({r.get("campaign", "")
                           for r in self._memory.values()})
        assert self._db is not None
        rows = self._db.execute(
            "SELECT DISTINCT campaign FROM records ORDER BY campaign")
        return [name for (name,) in rows]


# ----------------------------------------------------------------------
# BENCH_scale.json interop
# ----------------------------------------------------------------------

#: The scale sweep's simulated window (the scale campaign reads it here).
SCALE_SIM_DURATION = 1.2
SCALE_SCHEMA = "bench-scale/2"
SCALE_BENCHMARK = ("scale sweep (geobft, saturated, batch=100, "
                   f"duration={SCALE_SIM_DURATION}s)")

#: The exact per-point keys of a bench-scale baseline row, in the order
#: they are synthesized from a fresh record.
_SCALE_POINT_KEYS = ("avg_latency_s", "digest", "events", "events_per_s",
                     "max_queue_depth", "n", "protocol",
                     "throughput_txn_s", "wall_s", "workers")


def scale_run_id(n: int) -> str:
    return f"scale/n{n}"


def import_bench_scale(path: str,
                       campaign: str = "scale") -> List[Dict[str, Any]]:
    """Store records from a committed ``BENCH_scale.json`` baseline.

    Each point becomes one record whose ``bench`` block is the point
    payload verbatim, so :func:`render_bench_scale` round-trips the
    file byte-identically.  Records are keyed ``bench-scale:<n>``
    rather than by config fingerprint — a baseline file does not carry
    the full config, and these records exist for regeneration and
    digest comparison, not run caching.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema") != SCALE_SCHEMA:
        raise ConfigurationError(
            f"{path}: expected schema {SCALE_SCHEMA!r}, "
            f"got {payload.get('schema')!r}")
    records = []
    for point in payload.get("points", []):
        records.append({
            "schema": SWEEP_SCHEMA,
            "key": f"bench-scale:{point['n']}",
            "campaign": campaign,
            "run_id": scale_run_id(point["n"]),
            "tags": {"figure": "scale", "n": point["n"]},
            "config": {"protocol": point.get("protocol", "geobft")},
            "scenario": "none",
            "status": "ok",
            "digest": point["digest"],
            "bench": dict(point),
            "host": dict(payload.get("host", {})),
        })
    return records


def scale_point_from_record(record: Mapping[str, Any]) -> Dict[str, Any]:
    """The bench-scale point row for one scale-campaign record.

    Imported records carry the row verbatim under ``bench``; fresh runs
    synthesize it from measured fields with the rounding the committed
    rows use.
    """
    bench = record.get("bench")
    if bench is not None:
        return {k: bench[k] for k in _SCALE_POINT_KEYS if k in bench}
    result = record["result"]
    wall = record["wall_s"]
    events = record["events"]
    return {
        "avg_latency_s": round(result["avg_latency_s"], 6),
        "digest": record["digest"],
        "events": events,
        "events_per_s": round(events / wall),
        "max_queue_depth": record["max_queue_depth"],
        "n": record["tags"]["n"],
        "protocol": record["config"]["protocol"],
        "throughput_txn_s": round(result["throughput_txn_s"]),
        "wall_s": round(wall, 3),
        # Every run is serial; the literal stays in the row only because
        # perfbench/run.py picks its n=16 / n=91 digest rows by it.
        "workers": 1,
    }


def render_bench_scale(records: Iterable[Mapping[str, Any]],
                       host: Optional[Mapping[str, Any]] = None) -> str:
    """``BENCH_scale.json`` content regenerated from store records.

    Points ordered by n, ``indent=1``, sorted keys, trailing newline —
    byte-identical to the committed file for the same measurements.
    ``host`` defaults to the host block of the first record (imported
    baselines carry the original host).
    """
    records = list(records)
    rows = sorted((scale_point_from_record(r) for r in records),
                  key=lambda p: p["n"])
    if not rows:
        raise ConfigurationError(
            "no scale records to render; run the scale campaign first")
    if host is None:
        for record in records:
            if record.get("host"):
                host = record["host"]
                break
        else:
            raise ConfigurationError(
                "no host calibration block in the scale records")
    payload = {
        "schema": SCALE_SCHEMA,
        "benchmark": SCALE_BENCHMARK,
        "host": dict(host),
        "points": rows,
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def compare_scale_baseline(records: Iterable[Mapping[str, Any]],
                           calibration: float, baseline: Mapping[str, Any],
                           tolerance: float = 0.30) -> List[str]:
    """The CI perf gate: scale records vs a committed baseline.

    Returns failure strings (empty == pass).  Two checks per point that
    exists in both: **digest equality** (the deployment digest is a pure
    function of the configuration, so it must match on any host — the
    digest-drift gate) and **calibrated rate regression** (events/s
    normalized by each host's calibration loop; a drop beyond
    ``tolerance`` fails).
    """
    failures: List[str] = []
    base_cal = baseline.get("host", {}).get("calibration_ops_per_s")
    base_points = {p["n"]: p for p in baseline.get("points", [])}
    for record in records:
        point = scale_point_from_record(record)
        base = base_points.get(point["n"])
        if base is None:
            continue
        label = f"n={point['n']}"
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
    return failures


# ----------------------------------------------------------------------
# BENCH_overload.json interop
# ----------------------------------------------------------------------

#: The overload sweep's simulated window (mirrors the overload campaign).
OVERLOAD_SIM_DURATION = 1.6
OVERLOAD_SCHEMA = "bench-overload/1"
OVERLOAD_BENCHMARK = ("overload sweep (open-loop traffic, 0.5x-4x "
                      f"saturation, duration={OVERLOAD_SIM_DURATION}s)")

#: The exact per-point keys of a bench-overload baseline row, in the
#: order they are synthesized from a fresh record.
_OVERLOAD_POINT_KEYS = (
    "abandonment_rate", "digest", "events", "events_per_s",
    "goodput_txn_s", "offered_txn_s", "p50_latency_s", "p95_latency_s",
    "p99_latency_s", "protocol", "users", "wall_s", "workload", "x")


def overload_run_id(protocol: str, x: float,
                    workload: str = "ycsb") -> str:
    """Run id of one overload point (``x`` = offered-load factor)."""
    if workload == "ycsb":
        return f"overload/{protocol}/x{x:g}"
    return f"overload/{workload}-{protocol}-x{x:g}"


def import_bench_overload(path: str,
                          campaign: str = "overload"
                          ) -> List[Dict[str, Any]]:
    """Store records from a committed ``BENCH_overload.json`` baseline.

    Mirrors :func:`import_bench_scale`: each point becomes one record
    whose ``bench`` block is the point payload verbatim, keyed
    ``bench-overload:<protocol>:<workload>:<x>`` for regeneration
    and digest comparison rather than run caching.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema") != OVERLOAD_SCHEMA:
        raise ConfigurationError(
            f"{path}: expected schema {OVERLOAD_SCHEMA!r}, "
            f"got {payload.get('schema')!r}")
    records = []
    for point in payload.get("points", []):
        workload = point.get("workload", "ycsb")
        records.append({
            "schema": SWEEP_SCHEMA,
            "key": (f"bench-overload:{point['protocol']}:{workload}:"
                    f"{point['x']:g}"),
            "campaign": campaign,
            "run_id": overload_run_id(point["protocol"], point["x"],
                                      workload),
            "tags": {"figure": "overload", "x": point["x"],
                     "workload": workload},
            "config": {"protocol": point["protocol"]},
            "scenario": "none",
            "status": "ok",
            "digest": point["digest"],
            "bench": dict(point),
            "host": dict(payload.get("host", {})),
        })
    return records


def overload_point_from_record(record: Mapping[str, Any]
                               ) -> Dict[str, Any]:
    """The bench-overload point row for one overload-campaign record.

    Imported records carry the row verbatim under ``bench``; fresh runs
    synthesize it from the result's ``traffic`` block and tail-latency
    percentiles, rounded like the scale points.
    """
    bench = record.get("bench")
    if bench is not None:
        return {k: bench[k] for k in _OVERLOAD_POINT_KEYS if k in bench}
    result = record["result"]
    traffic = result["traffic"]
    wall = record["wall_s"]
    events = record["events"]
    return {
        "abandonment_rate": round(traffic["abandonment_rate"], 6),
        "digest": record["digest"],
        "events": events,
        "events_per_s": round(events / wall),
        "goodput_txn_s": round(traffic["goodput_txn_s"]),
        "offered_txn_s": round(traffic["offered_txn_s"]),
        "p50_latency_s": round(result["p50_latency_s"], 6),
        "p95_latency_s": round(result["p95_latency_s"], 6),
        "p99_latency_s": round(result["p99_latency_s"], 6),
        "protocol": record["config"]["protocol"],
        "users": traffic["modeled_users"],
        "wall_s": round(wall, 3),
        "workload": record["tags"].get("workload", "ycsb"),
        "x": record["tags"]["x"],
    }


def render_bench_overload(records: Iterable[Mapping[str, Any]],
                          host: Optional[Mapping[str, Any]] = None) -> str:
    """``BENCH_overload.json`` content regenerated from store records.

    Points ordered (protocol, workload, x); same canonical JSON shape
    as :func:`render_bench_scale`.
    """
    records = list(records)
    rows = sorted((overload_point_from_record(r) for r in records),
                  key=lambda p: (p["protocol"], p["workload"], p["x"]))
    if not rows:
        raise ConfigurationError(
            "no overload records to render; run the overload campaign "
            "first")
    if host is None:
        for record in records:
            if record.get("host"):
                host = record["host"]
                break
        else:
            raise ConfigurationError(
                "no host calibration block in the overload records")
    payload = {
        "schema": OVERLOAD_SCHEMA,
        "benchmark": OVERLOAD_BENCHMARK,
        "host": dict(host),
        "points": rows,
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def compare_overload_baseline(records: Iterable[Mapping[str, Any]],
                              calibration: float,
                              baseline: Mapping[str, Any],
                              tolerance: float = 0.30) -> List[str]:
    """The CI overload gate: campaign records vs a committed baseline.

    Same two gates as :func:`compare_scale_baseline` — digest equality
    on every shared point, calibrated events/s regression beyond
    ``tolerance``.
    """
    failures: List[str] = []
    base_cal = baseline.get("host", {}).get("calibration_ops_per_s")
    base_points = {(p["protocol"], p.get("workload", "ycsb"), p["x"]): p
                   for p in baseline.get("points", [])}
    for record in records:
        point = overload_point_from_record(record)
        base = base_points.get((point["protocol"], point["workload"],
                                point["x"]))
        if base is None:
            continue
        label = (f"{point['protocol']} {point['workload']} "
                 f"x={point['x']:g}")
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
    return failures


__all__ = [
    "ResultStore",
    "OVERLOAD_BENCHMARK",
    "OVERLOAD_SCHEMA",
    "OVERLOAD_SIM_DURATION",
    "SCALE_BENCHMARK",
    "SCALE_SCHEMA",
    "SCALE_SIM_DURATION",
    "compare_overload_baseline",
    "compare_scale_baseline",
    "encode_record",
    "import_bench_overload",
    "import_bench_scale",
    "overload_point_from_record",
    "overload_run_id",
    "render_bench_overload",
    "render_bench_scale",
    "scale_point_from_record",
    "scale_run_id",
]
