"""Per-partition lineage + resumable checkpointed writes (north rule:
"checkpoints per-partition lineage and metrics so any tiling or join
stage is resumable mid-run").

Layout for a stage checkpoint:

    <root>/<stage_id>/
        part-<partition_key>.parquet     (atomic: tmp + rename)
        _manifest/<partition_key>.json   (row/byte counters, input
                                          fingerprint, op version)
        _schema.parquet                  (zero rows: the stage schema)
        _DONE                            (stage-complete marker)

``checkpointed_write`` partitions the dataset by an explicit key column
(cell id, enclosure id, bucket — the SAME key the stage shuffles on)
through the engine's keyed shuffle (``exchange.keyed_exchange``) over
Arrow groups: each reduce task writes every group it holds as is with
``pq.write_table`` (nested struct field order, int widths, all-null
columns kept).  It SKIPS partitions whose manifest entry already exists
with a matching fingerprint and whose part file is present at the
recorded size — a re-run after failure redoes only unfinished or lost
partitions.  After the write it removes the part files and manifests of
keys the write did not produce, so a stage directory holds exactly its
last write's partitions, and records the stage schema: the permissive
union of its groups' schemas (a column that is all null in one group and
strings in another is a string column).

``load_checkpoint`` reads the complete partitions' part files in sorted
key order with P lazy pyarrow reads, P the exchange's partition count
for their bytes, and casts every block to the stage schema; a stage with
none (an empty input) loads as an empty Dataset with that schema.  The
reference has no checkpointing (SURVEY.md §4); this is engine-native
design.
"""

from __future__ import annotations

import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from city2graph_ray.exchange import _num_partitions, concat, keyed_exchange

_SCHEMA = "_schema.parquet"


def _manifest_dir(root: str, stage_id: str) -> str:
    return os.path.join(root, stage_id, "_manifest")


def _part_path(stage_dir: str, key: str) -> str:
    return os.path.join(stage_dir, f"part-{key}.parquet")


def _read_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _write_json(obj: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(obj, f)


def completed_partitions(root: str, stage_id: str,
                         fingerprint: str | None = None) -> set[str]:
    """Partition keys already written (optionally fingerprint-matched):
    the manifest entry parses and its part file exists with the
    manifest's byte size."""
    mdir = _manifest_dir(root, stage_id)
    if not os.path.isdir(mdir):
        return set()
    done = set()
    for f in os.listdir(mdir):
        if not f.endswith(".json"):
            continue
        key = f[:-5]
        part = _part_path(os.path.join(root, stage_id), key)
        try:
            meta = _read_json(os.path.join(mdir, f))
            intact = os.path.getsize(part) == meta.get("bytes")
        except (json.JSONDecodeError, OSError):
            continue  # torn write or lost part file → redo this partition
        if not intact:
            continue
        if fingerprint is not None and meta.get("fingerprint") != fingerprint:
            continue
        done.add(key)
    return done


def _replace_atomic(write, path: str) -> None:
    tmp = os.path.join(os.path.dirname(path),
                       f".{os.path.basename(path)}.tmp-{os.getpid()}")
    write(tmp)
    os.replace(tmp, path)  # atomic within a filesystem


def checkpointed_write(
    ds: ray.data.Dataset,
    root: str,
    stage_id: str,
    partition_col: str,
    fingerprint: str = "",
    op_version: str = "1",
) -> dict:
    """Write ``ds`` partitioned by ``partition_col``; skip partitions
    already completed with the same fingerprint.  Returns summary
    metrics {partitions, skipped, rows, bytes}.

    Each partition is written atomically (tmp file + rename) from the
    reduce task that holds its group — one shuffle on the partition
    key, no driver materialization."""
    stage_dir = os.path.join(root, stage_id)
    mdir = _manifest_dir(root, stage_id)
    os.makedirs(mdir, exist_ok=True)
    done = completed_partitions(root, stage_id, fingerprint or None)
    # a reduce task's groups share one schema: return it once per task,
    # so the per-group results stay small
    seen: set[bytes] = set()

    def write_partition(g: pa.Table) -> pa.Table:
        key = str(g[partition_col][0].as_py())
        nbytes = 0
        if key not in done:
            out = _part_path(stage_dir, key)
            _replace_atomic(lambda tmp: pq.write_table(g, tmp), out)
            nbytes = os.path.getsize(out)
            meta = {"partition": key, "rows": g.num_rows, "bytes": nbytes,
                    "fingerprint": fingerprint, "op_version": op_version,
                    "written_at": time.time()}
            _replace_atomic(lambda tmp: _write_json(meta, tmp),
                            os.path.join(mdir, f"{key}.json"))
        schema = g.schema.serialize().to_pybytes()
        fresh = schema not in seen
        seen.add(schema)
        return pa.table({"partition": [key], "rows": [g.num_rows],
                         "bytes": [nbytes], "skipped": [key in done],
                         "schema": [schema if fresh else b""]})

    results = keyed_exchange(ds, [partition_col], write_partition,
                             batch_format="pyarrow").take_all()
    keys = {r["partition"] for r in results}
    for f in os.listdir(stage_dir):  # partitions of earlier writes
        if f.startswith("part-") and f.endswith(".parquet") \
                and f[5:-8] not in keys:
            os.remove(os.path.join(stage_dir, f))
    for f in os.listdir(mdir):
        if f.endswith(".json") and f[:-5] not in keys:
            os.remove(os.path.join(mdir, f))
    # one schema for the stage: every group's, unified in key order
    schemas = dict.fromkeys(
        r["schema"] for r in sorted(results, key=lambda r: r["partition"])
        if r["schema"])
    schema = (pa.unify_schemas(
        [pa.ipc.read_schema(pa.py_buffer(b)) for b in schemas],
        promote_options="permissive") if schemas else _arrow_schema(ds))
    _replace_atomic(lambda tmp: pq.write_table(schema.empty_table(), tmp),
                    os.path.join(stage_dir, _SCHEMA))
    summary = {
        "stage_id": stage_id,
        "partitions": len(results),
        "skipped": sum(r["skipped"] for r in results),
        "rows": sum(r["rows"] for r in results),
        "bytes": sum(r["bytes"] for r in results),
    }
    _write_json(summary, os.path.join(stage_dir, "_DONE"))
    return summary


def _arrow_schema(ds: ray.data.Dataset) -> pa.Schema:
    """The Arrow schema of a dataset that yielded no group: no columns
    when Ray knows none, null for a column type Arrow cannot name (an
    empty pandas object column)."""
    schema = ds.schema()
    if schema is None:
        return pa.schema([])
    return pa.schema([(n, t if isinstance(t, pa.DataType) else pa.null())
                      for n, t in zip(schema.names, schema.types)])


def _read_parts(batch: pa.Table, schema: pa.Schema) -> pa.Table:
    # part files hold a few rows each: read them on this thread, without
    # starting Arrow's thread pool in the worker
    t = concat([pq.ParquetFile(p).read(use_threads=False)
                for p in batch["item"].to_pylist()] + [schema.empty_table()])
    return t.select(schema.names).cast(schema)


def load_checkpoint(root: str, stage_id: str) -> ray.data.Dataset:
    """Read back every completed partition of a stage, lazily: its part
    files in sorted key order, split over P reads (the exchange's
    partition count for their bytes, at most one per file), each block
    cast to the stage schema.  An empty Dataset with that schema when
    there is none."""
    stage_dir = os.path.join(root, stage_id)
    schema = pq.read_schema(os.path.join(stage_dir, _SCHEMA))
    paths = [_part_path(stage_dir, k)
             for k in sorted(completed_partitions(root, stage_id))]
    if not paths:
        return ray.data.from_arrow(schema.empty_table())
    P = min(len(paths), _num_partitions(sum(map(os.path.getsize, paths))))
    return ray.data.from_items(paths, override_num_blocks=P).map_batches(
        _read_parts, batch_format="pyarrow", batch_size=None,
        fn_kwargs={"schema": schema})


def stage_metrics(root: str, stage_id: str) -> list[dict]:
    """Per-partition lineage records (row/byte counters)."""
    mdir = _manifest_dir(root, stage_id)
    out = []
    for f in sorted(os.listdir(mdir)) if os.path.isdir(mdir) else []:
        if f.endswith(".json"):
            out.append(_read_json(os.path.join(mdir, f)))
    return out
