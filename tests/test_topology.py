"""Topology operators vs single-process oracles."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from city2graph_ray.ops.topology import (
    canonicalize_edges,
    connected_components,
    dual_graph,
    segments_to_graph,
    symmetrize_edges,
)
from city2graph_ray.synth import key_to_xy
from tests.conftest import SF_DIR


@pytest.fixture(scope="module")
def segments() -> pd.DataFrame:
    """Order-derived segments: order point → customer point.  Shared
    customer endpoints give real coordinate dedup; a duplicated pair is
    appended to exercise multigraph keys."""
    t = pq.read_table(f"{SF_DIR}/orders.parquet",
                      columns=["o_orderkey", "o_custkey"]).to_pandas().head(300)
    ax, ay = key_to_xy(t["o_orderkey"].to_numpy())
    bx, by = key_to_xy(t["o_custkey"].to_numpy())
    coords = [np.array([a, b, c, d]) for a, b, c, d in zip(ax, ay, bx, by)]
    df = pd.DataFrame({"seg_id": t["o_orderkey"].astype(np.int64), "coords": coords})
    dup = df.iloc[:3].copy()
    dup["seg_id"] = dup["seg_id"] + 10_000_000  # same endpoints, new ids
    return pd.concat([df, dup], ignore_index=True)


def test_segments_to_graph(segments):
    nodes_ds, edges_ds = segments_to_graph(rd.from_pandas(segments))
    nodes = nodes_ds.to_pandas().sort_values("node_id").reset_index(drop=True)
    edges = edges_ds.to_pandas()

    # node ids are dense 0..n-1 in (x, y) order over distinct coords
    coords = set()
    for c in segments["coords"]:
        coords.add((c[0], c[1]))
        coords.add((c[2], c[3]))
    assert len(nodes) == len(coords)
    assert list(nodes["node_id"]) == list(range(len(coords)))
    exp_order = sorted(coords)
    assert list(zip(nodes["x"], nodes["y"])) == exp_order

    # every segment resolved; endpoints map back to its coords
    assert len(edges) == len(segments)
    lookup = {c: i for i, c in enumerate(exp_order)}
    em = edges.set_index("seg_id")
    for _, r in segments.iterrows():
        a = lookup[(r.coords[0], r.coords[1])]
        b = lookup[(r.coords[2], r.coords[3])]
        lo, hi = min(a, b), max(a, b)
        row = em.loc[r.seg_id]
        assert (row["src"], row["dst"]) == (lo, hi)

    # duplicated pairs got multigraph keys 0..k-1 by row_seq order
    key_counts = edges.groupby(["src", "dst"])["edge_key"].agg(["count", "max"])
    assert ((key_counts["max"] == key_counts["count"] - 1)).all()
    dups = key_counts[key_counts["count"] > 1]
    assert len(dups) >= 3


def test_dual_graph():
    e = pd.DataFrame({"edge_id": [10, 20, 30, 40],
                      "src": [0, 1, 2, 0],
                      "dst": [1, 2, 3, 3]})
    got = dual_graph(rd.from_pandas(e)).to_pandas()
    got = set(map(tuple, got[["src", "dst"]].to_numpy()))
    # shared endpoints: (10,20)@1 (20,30)@2 (10,40)@0 (30,40)@3
    assert got == {(10, 20), (20, 30), (10, 40), (30, 40)}


def test_canonicalize_and_symmetrize():
    e = pd.DataFrame({"src": [2, 1, 3, 3, 5],
                      "dst": [1, 2, 4, 4, 5],
                      "w": [1.0, 2.0, 3.0, 4.0, 5.0],
                      "row_seq": [0, 1, 2, 3, 4]})
    ds = rd.from_pandas(e)
    first = canonicalize_edges(ds, "first").to_pandas().sort_values(["src", "dst"])
    assert list(map(tuple, first[["src", "dst", "w"]].to_numpy())) == [
        (1, 2, 1.0), (3, 4, 3.0), (5, 5, 5.0)]
    keyed = canonicalize_edges(ds, "key").to_pandas()
    kc = keyed.groupby(["src", "dst"])["edge_key"].max()
    assert kc[(1, 2)] == 1 and kc[(3, 4)] == 1 and kc[(5, 5)] == 0
    with pytest.raises(Exception):
        canonicalize_edges(ds, "error").to_pandas()

    sym = symmetrize_edges(rd.from_pandas(pd.DataFrame({
        "src": [1, 2, 3, 7], "dst": [2, 1, 4, 7],
        "w": [1.0, 9.0, 3.0, 4.0], "row_seq": [0, 1, 2, 3]}))).to_pandas()
    got = set(map(tuple, sym[["src", "dst"]].to_numpy()))
    assert got == {(1, 2), (2, 1), (3, 4), (4, 3), (7, 7)}
    # existing reverse (2,1) kept its own attrs (idempotent, not overwritten)
    assert float(sym.loc[(sym.src == 2) & (sym.dst == 1), "w"].iloc[0]) == 9.0
    # generated reverse copies forward attrs
    assert float(sym.loc[(sym.src == 4) & (sym.dst == 3), "w"].iloc[0]) == 3.0


def test_connected_components():
    e = pd.DataFrame({"src": [1, 2, 10, 11, 20],
                      "dst": [2, 3, 11, 12, 21]})
    comp = connected_components(rd.from_pandas(e)).to_pandas()
    cmap = dict(zip(comp["node_id"], comp["component"]))
    assert cmap[1] == cmap[2] == cmap[3] == 1
    assert cmap[10] == cmap[11] == cmap[12] == 10
    assert cmap[20] == cmap[21] == 20


def test_clip_graph():
    from city2graph_ray.ops.topology import clip_graph
    nodes = pd.DataFrame({"node_id": [0, 1, 2, 3],
                          "x": [1.0, 5.0, 9.0, 20.0],
                          "y": [1.0, 5.0, 9.0, 20.0]})
    edges = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 3],
                          "sx": [1.0, 5.0, 9.0], "sy": [1.0, 5.0, 9.0],
                          "dx_": [5.0, 9.0, 20.0], "dy_": [5.0, 9.0, 20.0]})
    ring = np.array([0.0, 0.0, 10.0, 0.0, 10.0, 10.0, 0.0, 10.0])
    kn, ke = clip_graph(rd.from_pandas(nodes), rd.from_pandas(edges), ring)
    kedf = ke.to_pandas()
    # strict: edge 2-3 dropped (endpoint 3 outside)
    assert set(map(tuple, kedf[["src", "dst"]].to_numpy())) == {(0, 1), (1, 2)}
    # node 3 dropped (no surviving edge references it)
    assert set(kn.to_pandas()["node_id"]) == {0, 1, 2}


def test_cc_driver_vs_distributed_parity(distributed):
    import ray.data as rd

    from city2graph_ray.ops.topology import connected_components

    rng = np.random.default_rng(11)
    edges = pd.DataFrame({
        "src": rng.integers(0, 500, 900).astype(np.int64),
        "dst": rng.integers(0, 500, 900).astype(np.int64)})
    a = (connected_components(rd.from_pandas(edges))
         .to_pandas().sort_values("node_id").reset_index(drop=True))
    with distributed():
        b = (connected_components(rd.from_pandas(edges))
             .to_pandas().sort_values("node_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


def test_clip_graph_driver_vs_distributed_parity(distributed):
    """ADVICE/VERDICT r4 #2: clip_graph's endpoint keep-set gate — the
    distributed finish (distinct-id shuffle + broadcast semi-filter,
    0-byte driver budget) keeps identical nodes/edges to the driver set
    path."""
    import ray.data as rd

    from city2graph_ray.ops.topology import clip_graph

    rng = np.random.default_rng(21)
    n = 300
    nodes = pd.DataFrame({"node_id": np.arange(n, dtype=np.int64),
                          "x": rng.uniform(0, 20, n),
                          "y": rng.uniform(0, 20, n)})
    src = rng.integers(0, n, 800).astype(np.int64)
    dst = rng.integers(0, n, 800).astype(np.int64)
    edges = pd.DataFrame({
        "src": src, "dst": dst,
        "sx": nodes["x"].to_numpy()[src], "sy": nodes["y"].to_numpy()[src],
        "dx_": nodes["x"].to_numpy()[dst], "dy_": nodes["y"].to_numpy()[dst]})
    ring = np.array([2.0, 2.0, 15.0, 2.0, 15.0, 15.0, 2.0, 15.0])

    def canon(nds, eds):
        ndf = nds.to_pandas().sort_values("node_id").reset_index(drop=True)
        edf = (eds.to_pandas().sort_values(["src", "dst"])
               .reset_index(drop=True))
        return ndf, edf

    an, ae = canon(*clip_graph(rd.from_pandas(nodes),
                               rd.from_pandas(edges), ring))
    with distributed():
        bn, be = canon(*clip_graph(rd.from_pandas(nodes),
                                   rd.from_pandas(edges), ring))
    pd.testing.assert_frame_equal(an, bn)
    pd.testing.assert_frame_equal(ae, be)


def test_largest_component_driver_vs_distributed_parity(distributed):
    """largest_component_filter gate: distributed finish (keyed sizes +
    scalar winner + bucketed member semi-join, 0-byte driver budget)
    keeps the same edge rows as the driver groupby path, including the
    smallest-component-id tie-break."""
    import ray.data as rd

    from city2graph_ray.ops.topology import largest_component_filter

    # two components of EQUAL size (tie → smaller component id wins)
    # plus a small third one
    edges = pd.DataFrame({
        "src": np.array([1, 2, 3, 10, 11, 12, 50], dtype=np.int64),
        "dst": np.array([2, 3, 4, 11, 12, 13, 51], dtype=np.int64)})

    def canon(ds):
        df = ds.to_pandas()
        return (df[["src", "dst"]].sort_values(["src", "dst"])
                .reset_index(drop=True))

    a = canon(largest_component_filter(rd.from_pandas(edges)))
    with distributed():
        b = canon(largest_component_filter(rd.from_pandas(edges)))
    pd.testing.assert_frame_equal(a, b)
    # tie resolved to component 1 (nodes 1-4), not 10-13
    assert set(a["src"]) == {1, 2, 3}
