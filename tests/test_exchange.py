"""The engine's one keyed shuffle (``exchange.keyed_exchange``): group
semantics, the blocks it concatenates, and that no stage bypasses it."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from city2graph_ray.exchange import keyed_exchange

ROOT = Path(__file__).resolve().parents[1]


def test_no_engine_stage_calls_map_groups():
    """Keyed stages run on the exchange, not Ray Data's sort groupby."""
    bad = []
    for path in sorted([*(ROOT / "city2graph_ray").rglob("*.py"),
                        ROOT / "__ray_entry__.py"]):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "map_groups"):
                bad.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not bad, bad


def test_keyed_exchange_groups_match_pandas():
    """Per group: one call per distinct (string, int) key, nulls and NaN
    included, across blocks whose key columns differ in width; per
    partition: every row once, sorted by key."""
    rng = np.random.default_rng(1)
    frames = []
    for i in range(3):
        n = 400
        frames.append(pd.DataFrame({
            "s": rng.choice(np.array(["a", "b", None, "dd"], dtype=object), n),
            "k": rng.integers(0, 7, n).astype(np.int32 if i else np.int64),
            "v": np.arange(i * n, (i + 1) * n, dtype=np.int64)}))
    df = pd.concat(frames, ignore_index=True)
    ds = rd.from_pandas(frames)

    def summarize(g: pd.DataFrame) -> pd.DataFrame:
        assert len(g) and g["s"].isna().nunique() == 1
        return pd.DataFrame({"s": g["s"].iloc[:1], "k": g["k"].iloc[:1]
                             .astype(np.int64), "n": [len(g)],
                             "vsum": [int(g["v"].sum())]})

    got = keyed_exchange(ds, ["s", "k"], summarize).to_pandas()
    exp = (df.groupby(["s", "k"], dropna=False)
           .agg(n=("v", "size"), vsum=("v", "sum")).reset_index())
    key = ["s", "k"]
    got = got.fillna({"s": "<null>"}).sort_values(key).reset_index(drop=True)
    exp = exp.fillna({"s": "<null>"}).sort_values(key).reset_index(drop=True)
    assert len(got) == len(exp)
    np.testing.assert_array_equal(got[["n", "vsum"]].to_numpy(),
                                  exp[["n", "vsum"]].to_numpy())

    def sorted_part(g: pd.DataFrame) -> pd.DataFrame:
        assert (np.diff(g["k"].to_numpy()) >= 0).all()
        return g

    whole = keyed_exchange(ds, ["k"], sorted_part, per_group=False,
                           num_buckets=3).to_pandas()
    assert sorted(whole["v"]) == list(range(1200))


def test_keyed_kernels_never_see_an_empty_frame():
    """Most partitions of a few keys are empty, and an empty input
    empties them all; neither mode calls the kernel on an empty frame,
    as ``map_groups`` never did."""
    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        assert len(g)
        return g.iloc[-1:]

    few = rd.from_pandas([pd.DataFrame({"k": np.arange(3, dtype=np.int64)}),
                          pd.DataFrame({"k": np.arange(2, dtype=np.int64)})])
    for per_group in (True, False):
        got = keyed_exchange(few, ["k"], kernel, per_group=per_group)
        got = sorted(got.to_pandas()["k"])
        assert got == [0, 1, 2] if per_group else 1 <= len(got) <= 3
        assert keyed_exchange(few.filter(expr="k < 0"), ["k"], kernel,
                              per_group=per_group).count() == 0


def _street_blocks():
    """A 3×3 street grid as two segment blocks: the first all 2-point
    segments, the second mixed 2- and 3-point ones.  Ray gives the
    first block's coords a fixed-shape tensor type and the second's a
    variable-shape one."""
    segs = []
    for v in (0.0, 30.0, 60.0):
        for a, b in [((v, 0.0), (v, 30.0)), ((v, 30.0), (v, 60.0)),
                     ((0.0, v), (30.0, v)), ((30.0, v), (60.0, v))]:
            segs.append(np.array([a[0], a[1], b[0], b[1]]))
    # the west edge's lower half as a 3-point polyline
    segs[0] = np.array([0.0, 0.0, 0.0, 15.0, 0.0, 30.0])
    df = pd.DataFrame({"seg_id": np.arange(len(segs), dtype=np.int64),
                       "coords": segs})
    return df.iloc[6:].reset_index(drop=True), df.iloc[:6].reset_index(drop=True)


def test_mixed_tensor_coord_blocks_concatenate():
    """Blocks whose coords are fixed- and variable-shape tensors give
    the single-block result, through the enclosure task and through
    every exchange of the morphological graph."""
    from city2graph_ray.ops.morphology import (compute_enclosures,
                                               morphological_graph)
    first, second = _street_blocks()
    whole = pd.concat([first, second], ignore_index=True)
    two, one = rd.from_pandas([first, second]), rd.from_pandas(whole)
    types = [str(t.schema.field("coords").type)
             for t in ray.get(two.to_arrow_refs())]
    assert types[0] != types[1]

    def rings(ds):
        enc = ray.get(compute_enclosures(ds))
        return sorted(tuple(np.asarray(c, np.float64).round(9))
                      for c in enc["coords"])

    assert len(rings(one)) == 4
    assert rings(two) == rings(one)

    blds = rd.from_pandas(pd.DataFrame({
        "id": np.array([1, 2, 3], dtype=np.int64),
        "x": [8.0, 22.0, 45.0], "y": [8.0, 22.0, 45.0]}))
    got = morphological_graph(blds, two, resolution=3.0, pm_max_distance=20.0)
    exp = morphological_graph(blds, one, resolution=3.0, pm_max_distance=20.0)
    for layer in ("tessellation", "place_place", "movement_movement",
                  "place_movement"):
        g, e = got[layer].to_pandas(), exp[layer].to_pandas()
        assert len(e), layer
        pd.testing.assert_frame_equal(
            g.sort_values(list(g.columns)).reset_index(drop=True),
            e.sort_values(list(e.columns)).reset_index(drop=True))
