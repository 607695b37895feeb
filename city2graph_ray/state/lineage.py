"""Per-partition lineage + resumable checkpointed writes (north rule:
"checkpoints per-partition lineage and metrics so any tiling or join
stage is resumable mid-run").

Layout for a stage checkpoint:

    <root>/<stage_id>/
        part-<partition_key>.parquet     (atomic: tmp + rename)
        _manifest/<partition_key>.json   (row/byte counters, input
                                          fingerprint, op version)
        _DONE                            (stage-complete marker)

``checkpointed_write`` partitions the dataset by an explicit key column
(cell id, enclosure id, bucket — the SAME key the stage shuffles on),
writes each partition once, and SKIPS partitions whose manifest entry
already exists with a matching fingerprint and whose part file is
present at the recorded size — a re-run after failure redoes only
unfinished or lost partitions.  ``load_checkpoint`` reads whatever
is complete.  The reference has no checkpointing (SURVEY.md §4); this
is engine-native design.
"""

from __future__ import annotations

import json
import os
import time

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data


def _manifest_dir(root: str, stage_id: str) -> str:
    return os.path.join(root, stage_id, "_manifest")


def _read_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


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
        part = os.path.join(root, stage_id, f"part-{key}.parquet")
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
    worker that holds its group — one shuffle on the partition key, no
    driver materialization."""
    stage_dir = os.path.join(root, stage_id)
    mdir = _manifest_dir(root, stage_id)
    os.makedirs(stage_dir, exist_ok=True)
    os.makedirs(mdir, exist_ok=True)
    done = completed_partitions(root, stage_id, fingerprint or None)

    def write_partition(g: pd.DataFrame) -> pd.DataFrame:
        key = str(g[partition_col].iloc[0])
        if key in done:
            return pd.DataFrame({"partition": [key], "rows": [len(g)],
                                 "bytes": [0], "skipped": [True]})
        table = pa.Table.from_pandas(g, preserve_index=False)
        tmp = os.path.join(stage_dir, f".part-{key}.tmp-{os.getpid()}")
        out = os.path.join(stage_dir, f"part-{key}.parquet")
        pq.write_table(table, tmp)
        nbytes = os.path.getsize(tmp)
        os.replace(tmp, out)  # atomic within a filesystem
        meta = {"partition": key, "rows": len(g), "bytes": nbytes,
                "fingerprint": fingerprint, "op_version": op_version,
                "written_at": time.time()}
        mtmp = os.path.join(mdir, f".{key}.tmp-{os.getpid()}")
        with open(mtmp, "w") as f:
            json.dump(meta, f)
        os.replace(mtmp, os.path.join(mdir, f"{key}.json"))
        return pd.DataFrame({"partition": [key], "rows": [len(g)],
                             "bytes": [nbytes], "skipped": [False]})

    results = ds.groupby(partition_col).map_groups(
        write_partition, batch_format="pandas").to_pandas()
    summary = {
        "stage_id": stage_id,
        "partitions": int(len(results)),
        "skipped": int(results["skipped"].sum()) if len(results) else 0,
        "rows": int(results["rows"].sum()) if len(results) else 0,
        "bytes": int(results["bytes"].sum()) if len(results) else 0,
    }
    with open(os.path.join(stage_dir, "_DONE"), "w") as f:
        json.dump(summary, f)
    return summary


def load_checkpoint(root: str, stage_id: str) -> ray.data.Dataset:
    """Read back every completed partition of a stage."""
    stage_dir = os.path.join(root, stage_id)
    files = sorted(os.path.join(stage_dir, f) for f in os.listdir(stage_dir)
                   if f.startswith("part-") and f.endswith(".parquet"))
    return ray.data.read_parquet(files)


def stage_metrics(root: str, stage_id: str) -> list[dict]:
    """Per-partition lineage records (row/byte counters)."""
    mdir = _manifest_dir(root, stage_id)
    out = []
    for f in sorted(os.listdir(mdir)) if os.path.isdir(mdir) else []:
        if f.endswith(".json"):
            out.append(_read_json(os.path.join(mdir, f)))
    return out
