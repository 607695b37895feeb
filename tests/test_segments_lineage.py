"""Overture segment ops + checkpoint/lineage resume."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from city2graph_ray.geom.kernels import linestring_length
from city2graph_ray.ops.segments import (
    barrier_geometries,
    cluster_segment_endpoints,
    deterministic_jitter,
    parse_json_permissive,
    process_overture_segments,
    split_segments_at_connectors,
)


def test_parse_json_permissive():
    assert parse_json_permissive("[{'connector_id': 'a', 'at': 0.5}]") == \
        [{"connector_id": "a", "at": 0.5}]
    assert parse_json_permissive("[{'x': None}]") == [{"x": None}]
    assert parse_json_permissive("garbage") == []
    assert parse_json_permissive(None) == []
    assert parse_json_permissive(float("nan")) == []


@pytest.fixture()
def seg_df() -> pd.DataFrame:
    return pd.DataFrame({
        "seg_id": ["s1", "s2", "s3"],
        "coords": [np.array([0.0, 0.0, 10.0, 0.0]),
                   np.array([0.0, 5.0, 10.0, 5.0]),
                   np.array([0.0, 9.0, 4.0, 9.0, 8.0, 9.0])],
        "connectors": ["[{'connector_id': 'c1', 'at': 0.5}]",
                       "[]",
                       "[{'connector_id': 'c2', 'at': 0.25}, "
                       "{'connector_id': 'c3', 'at': 0.75}]"],
        "level_rules": ["[]",
                        "[{'value': 1, 'between': [0.2, 0.4]}]",
                        "[{'value': 1}]"]})


def test_split_at_connectors(seg_df):
    out = split_segments_at_connectors(rd.from_pandas(seg_df)).to_pandas()
    assert len(out) == 2 + 1 + 3  # s1 splits in 2, s2 unchanged, s3 in 3
    s1 = out[out["seg_id"].str.startswith("s1")]
    assert list(s1["seg_id"]) == ["s1_0", "s1_1"]
    np.testing.assert_allclose(np.asarray(s1.iloc[0]["coords"]),
                               [0.0, 0.0, 5.0, 0.0])
    assert list(out[out["seg_id"].str.startswith("s2")]["seg_id"]) == ["s2"]
    # lengths of the parts sum to the original
    s3 = out[out["seg_id"].str.startswith("s3")]
    tot = sum(linestring_length(np.asarray(c)) for c in s3["coords"])
    assert abs(tot - 8.0) < 1e-9


def test_barrier_geometries(seg_df):
    out = barrier_geometries(rd.from_pandas(seg_df)).to_pandas()
    out = out.set_index("seg_id")
    assert out.loc["s1", "barrier_coords"][0].tolist() == [0.0, 0.0, 10.0, 0.0]
    assert not out.loc["s1", "is_fully_barrier"]
    # s2: barrier interval [0.2,0.4] of length 10 → passable [0,2] and [4,10]
    pieces = out.loc["s2", "barrier_coords"]
    assert len(pieces) == 2
    np.testing.assert_allclose(pieces[0], [0.0, 5.0, 2.0, 5.0])
    np.testing.assert_allclose(pieces[1], [4.0, 5.0, 10.0, 5.0])
    # s3: full barrier
    assert out.loc["s3", "is_fully_barrier"] and out.loc["s3", "barrier_coords"] == []


def test_cluster_endpoints():
    df = pd.DataFrame({
        "seg_id": ["a", "b"],
        "coords": [np.array([0.0, 0.0, 10.0, 0.1]),
                   np.array([10.1, -0.1, 20.0, 0.0])]})
    out = cluster_segment_endpoints(rd.from_pandas(df), threshold=1.0).to_pandas()
    a = np.asarray(out[out["seg_id"] == "a"]["coords"].iloc[0])
    b = np.asarray(out[out["seg_id"] == "b"]["coords"].iloc[0])
    # a's end (10,0.1) and b's start (10.1,-0.1) share bin (10,0) → both
    # snap to the bin mean (10.05, 0.0)
    np.testing.assert_allclose(a[2:], [10.05, 0.0])
    np.testing.assert_allclose(b[:2], [10.05, 0.0])


def test_jitter_deterministic():
    df = pd.DataFrame({"seg_id": ["a", "b"],
                       "coords": [np.array([1.0, 2.0, 3.0, 4.0]),
                                  np.array([3.0, 4.0, 5.0, 6.0])]})
    o1 = deterministic_jitter(rd.from_pandas(df), 0.01).to_pandas()
    o2 = deterministic_jitter(rd.from_pandas(df), 0.01).to_pandas()
    c1 = {s: np.asarray(c) for s, c in zip(o1["seg_id"], o1["coords"])}
    c2 = {s: np.asarray(c) for s, c in zip(o2["seg_id"], o2["coords"])}
    for s in c1:
        np.testing.assert_array_equal(c1[s], c2[s])
    # SHARED vertex (3,4) moved identically in both rows
    np.testing.assert_array_equal(c1["a"][2:], c1["b"][:2])
    # and actually moved
    assert not np.array_equal(c1["a"], np.array([1.0, 2.0, 3.0, 4.0]))


def test_process_overture_segments(seg_df):
    out = process_overture_segments(rd.from_pandas(seg_df)).to_pandas()
    assert "length" in out.columns and "barrier_coords" in out.columns
    assert len(out) == 6


def test_checkpoint_resume(tmp_path):
    from city2graph_ray.state.lineage import (checkpointed_write,
                                              completed_partitions,
                                              load_checkpoint, stage_metrics)
    df = pd.DataFrame({"cell": np.repeat([1, 2, 3], 10),
                       "v": np.arange(30, dtype=np.int64)})
    root = str(tmp_path)
    s1 = checkpointed_write(rd.from_pandas(df), root, "stage_a", "cell",
                            fingerprint="fp1")
    assert s1["partitions"] == 3 and s1["skipped"] == 0 and s1["rows"] == 30
    assert completed_partitions(root, "stage_a", "fp1") == {"1", "2", "3"}
    # resume: same fingerprint → all partitions skipped
    s2 = checkpointed_write(rd.from_pandas(df), root, "stage_a", "cell",
                            fingerprint="fp1")
    assert s2["skipped"] == 3
    # changed fingerprint → rewrite
    s3 = checkpointed_write(rd.from_pandas(df), root, "stage_a", "cell",
                            fingerprint="fp2")
    assert s3["skipped"] == 0
    back = load_checkpoint(root, "stage_a").to_pandas()
    assert sorted(back["v"]) == list(range(30))
    m = stage_metrics(root, "stage_a")
    assert len(m) == 3 and all(r["rows"] == 10 for r in m)


def test_checkpoint_resume_rewrites_lost_part_files(tmp_path):
    from city2graph_ray.state.lineage import (checkpointed_write,
                                              completed_partitions,
                                              load_checkpoint)
    df = pd.DataFrame({"cell": np.repeat(np.arange(16), 25),
                       "v": np.arange(400, dtype=np.int64)})
    root = str(tmp_path)
    s1 = checkpointed_write(rd.from_pandas(df), root, "stage_b", "cell",
                            fingerprint="fp")
    assert s1["partitions"] == 16 and s1["skipped"] == 0
    lost = {"3", "7", "11", "15"}
    for key in lost:  # part files gone, manifests kept
        (tmp_path / "stage_b" / f"part-{key}.parquet").unlink()
    kept = {p.name: p.stat().st_mtime_ns
            for p in (tmp_path / "stage_b").glob("part-*.parquet")}
    assert completed_partitions(root, "stage_b", "fp") == (
        {str(k) for k in range(16)} - lost)
    s2 = checkpointed_write(rd.from_pandas(df), root, "stage_b", "cell",
                            fingerprint="fp")
    assert s2["skipped"] == 12 and s2["partitions"] - s2["skipped"] == 4
    now = {p.name: p.stat().st_mtime_ns
           for p in (tmp_path / "stage_b").glob("part-*.parquet")}
    assert {n: now[n] for n in kept} == kept
    assert set(now) - set(kept) == {f"part-{k}.parquet" for k in lost}
    back = load_checkpoint(root, "stage_b").to_pandas()
    assert sorted(back["v"]) == list(range(400))


def test_checkpoint_holds_only_last_write(tmp_path):
    from city2graph_ray.state.lineage import (checkpointed_write,
                                              load_checkpoint, stage_metrics)
    df = pd.DataFrame({"cell": np.repeat([1, 2, 3], 10),
                       "v": np.arange(30, dtype=np.int64)})
    root = str(tmp_path)
    checkpointed_write(rd.from_pandas(df), root, "stage_c", "cell",
                       fingerprint="fp1")
    s2 = checkpointed_write(rd.from_pandas(df[df["cell"] < 3]), root,
                            "stage_c", "cell", fingerprint="fp2")
    assert s2["partitions"] == 2 and s2["skipped"] == 0
    assert sorted(p.name for p in (tmp_path / "stage_c").glob("part-*")) == [
        "part-1.parquet", "part-2.parquet"]
    assert [m["partition"] for m in stage_metrics(root, "stage_c")] == ["1", "2"]
    back = load_checkpoint(root, "stage_c").to_pandas()
    assert sorted(back["v"]) == list(range(20))


def test_checkpoint_load_skips_part_without_manifest(tmp_path):
    from city2graph_ray.state.lineage import (checkpointed_write,
                                              load_checkpoint)
    df = pd.DataFrame({"cell": np.repeat([1, 2, 3], 10),
                       "v": np.arange(30, dtype=np.int64)})
    root = str(tmp_path)
    checkpointed_write(rd.from_pandas(df), root, "stage_d", "cell",
                       fingerprint="fp")
    (tmp_path / "stage_d" / "_manifest" / "2.json").unlink()
    back = load_checkpoint(root, "stage_d").to_pandas()
    assert sorted(back["v"]) == list(range(10)) + list(range(20, 30))
    s2 = checkpointed_write(rd.from_pandas(df), root, "stage_d", "cell",
                            fingerprint="fp")
    assert s2["skipped"] == 2 and s2["partitions"] == 3
    back = load_checkpoint(root, "stage_d").to_pandas()
    assert sorted(back["v"]) == list(range(30))


def test_checkpoint_empty_stage_loads_with_schema(tmp_path):
    import pyarrow as pa

    from city2graph_ray.state.lineage import (checkpointed_write,
                                              load_checkpoint)
    df = pd.DataFrame({"cell": np.repeat([1, 2, 3], 10),
                       "v": np.arange(30, dtype=np.int64)}).iloc[:0]
    root = str(tmp_path)
    s = checkpointed_write(rd.from_pandas(df), root, "stage_e", "cell",
                           fingerprint="fp")
    assert s["partitions"] == 0 and s["rows"] == 0
    back = load_checkpoint(root, "stage_e")
    assert back.count() == 0
    schema = back.schema().base_schema
    assert schema.names == ["cell", "v"]
    assert schema.types == [pa.int64(), pa.int64()]


def test_checkpoint_round_trip_keeps_nested_schema(tmp_path):
    import pyarrow as pa

    from city2graph_ray.state.lineage import (checkpointed_write,
                                              load_checkpoint)
    span = pa.struct([("kind", pa.string()), ("text", pa.string()),
                      ("media_ref", pa.string()), ("offset", pa.int32())])
    schema = pa.schema([("doc_id", pa.int64()), ("tile", pa.int64()),
                        ("spans", pa.list_(span))])
    rows = []
    for d in range(40):
        tile = d % 4
        spans = [{"kind": "text", "text": f"t{d}", "media_ref": None,
                  "offset": 0}]
        if tile != 2:  # tile 2: every media_ref null
            spans.append({"kind": "image", "text": None,
                          "media_ref": f"img{d}", "offset": 1})
        rows.append({"doc_id": d, "tile": tile, "spans": spans})
    table = pa.Table.from_pylist(rows, schema=schema)
    root = str(tmp_path)
    checkpointed_write(rd.from_arrow(table), root, "spans", "tile",
                       fingerprint="fp")
    back = pa.concat_tables(
        load_checkpoint(root, "spans").iter_batches(batch_format="pyarrow"))
    assert back.schema.remove_metadata() == schema
    assert sorted(back.to_pylist(), key=lambda r: r["doc_id"]) == rows


def test_checkpoint_loads_one_schema_across_partitions(tmp_path):
    """Column ``m`` is all null in key 1 and strings in key 2: the stage
    loads as one string column, in every block."""
    import pyarrow as pa

    from city2graph_ray.state.lineage import (checkpointed_write,
                                              load_checkpoint)
    a = pd.DataFrame({"cell": [1, 1], "m": [None, None], "v": [0, 1]})
    b = pd.DataFrame({"cell": [2, 2], "m": ["x", "y"], "v": [2, 3]})
    root = str(tmp_path)
    checkpointed_write(rd.from_pandas([a, b]), root, "stage_f", "cell",
                       fingerprint="fp")
    back = load_checkpoint(root, "stage_f")
    schema = back.schema().base_schema
    assert schema.field("m").type == pa.string()
    batches = list(back.iter_batches(batch_format="pyarrow",
                                     batch_size=None))
    assert all(t.schema.field("m").type == pa.string() for t in batches)
    rows = sorted(pa.concat_tables(batches).to_pylist(),
                  key=lambda r: r["v"])
    assert [r["m"] for r in rows] == [None, None, "x", "y"]


def test_checkpoint_load_reads_without_read_parquet(tmp_path, monkeypatch):
    """The loader reads the part files itself, in at most the exchange's
    partition count of blocks, and keeps rows and nested types."""
    import os

    import pyarrow as pa
    import ray.data

    from city2graph_ray.exchange import _num_partitions
    from city2graph_ray.state.lineage import (checkpointed_write,
                                              load_checkpoint)

    def no_read_parquet(*args, **kwargs):
        raise AssertionError("load_checkpoint called read_parquet")

    monkeypatch.setattr(ray.data, "read_parquet", no_read_parquet)
    span = pa.struct([("kind", pa.string()), ("offset", pa.int32())])
    schema = pa.schema([("doc_id", pa.int64()), ("tile", pa.int64()),
                        ("spans", pa.list_(span))])
    rows = [{"doc_id": d, "tile": d % 300,
             "spans": [{"kind": "text", "offset": d % 7}]}
            for d in range(900)]
    root = str(tmp_path)
    s = checkpointed_write(rd.from_arrow(pa.Table.from_pylist(rows, schema)),
                           root, "many", "tile", fingerprint="fp")
    assert s["partitions"] == 300
    parts = list((tmp_path / "many").glob("part-*.parquet"))
    loaded = load_checkpoint(root, "many").materialize()
    assert loaded.num_blocks() <= _num_partitions(
        sum(os.path.getsize(p) for p in parts))
    back = pa.concat_tables(loaded.iter_batches(batch_format="pyarrow"))
    assert back.schema.remove_metadata() == schema
    assert sorted(back.to_pylist(), key=lambda r: r["doc_id"]) == rows


def test_prepare_barriers(seg_df):
    from city2graph_ray.ops.segments import barrier_geometries, prepare_barriers
    with_b = barrier_geometries(rd.from_pandas(seg_df))
    out = prepare_barriers(with_b).to_pandas()
    ids = list(out["seg_id"])
    # s1 passes whole; s2 splits into two passable pieces; s3 (full
    # barrier) is dropped
    assert ids == ["s1", "s2_p0", "s2_p1"]
    np.testing.assert_allclose(np.asarray(out["coords"].iloc[1]),
                               [0.0, 5.0, 2.0, 5.0])
    # without a barrier column: passthrough of raw coords
    raw = prepare_barriers(rd.from_pandas(seg_df[["seg_id", "coords"]]))
    assert list(raw.to_pandas()["seg_id"]) == ["s1", "s2", "s3"]
