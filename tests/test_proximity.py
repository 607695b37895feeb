"""Proximity builders vs single-process brute-force oracles
(conformance contract per SURVEY.md §5: exact edge sets)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from city2graph_ray.ops.proximity import (
    contiguity_graph,
    delaunay_graph,
    euclidean_minimum_spanning_tree,
    fixed_radius_graph,
    gabriel_graph,
    group_nodes,
    knn_graph,
    relative_neighborhood_graph,
    waxman_graph,
)
from tests.conftest import brute_dist


@pytest.fixture(scope="module")
def pts(customer_points):
    return customer_points


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_fixed_radius_matches_bruteforce(pts):
    d = brute_dist(pts)
    ids = pts["id"].to_numpy()
    for radius, cell in [(40.0, None), (40.0, 55.0), (15.0, None)]:
        got = _sorted(fixed_radius_graph(rd.from_pandas(pts), radius,
                                         cell_size=cell).to_pandas())
        ii, jj = np.nonzero((d <= radius) & (ids[:, None] < ids[None, :]))
        exp = _sorted(pd.DataFrame({"src": ids[ii], "dst": ids[jj],
                                    "distance": d[ii, jj]}))
        pd.testing.assert_frame_equal(got, exp)


def test_knn_matches_bruteforce(pts):
    d = brute_dist(pts)
    ids = pts["id"].to_numpy()
    for k, cell in [(4, None), (4, 30.0), (1, None), (10, 200.0)]:
        got = _sorted(knn_graph(rd.from_pandas(pts), k, cell_size=cell).to_pandas())
        rows = []
        for i in range(len(pts)):
            dd = d[i].copy()
            dd[i] = np.inf
            for j in np.lexsort((ids, dd))[:k]:
                rows.append((ids[i], ids[j], d[i, j]))
        exp = _sorted(pd.DataFrame(rows, columns=["src", "dst", "distance"]))
        pd.testing.assert_frame_equal(got, exp)


def test_knn_bipartite_directed(pts):
    a = pts.iloc[::2].reset_index(drop=True)
    b = pts.iloc[1::2].reset_index(drop=True)
    k = 3
    got = _sorted(knn_graph(rd.from_pandas(a), k,
                            targets=rd.from_pandas(b)).to_pandas())
    bx = b["x"].to_numpy()
    by = b["y"].to_numpy()
    bid = b["id"].to_numpy()
    rows = []
    for _, r in a.iterrows():
        dd = np.sqrt((r.x - bx) ** 2 + (r.y - by) ** 2)
        for j in np.lexsort((bid, dd))[:k]:
            rows.append((r.id, bid[j], dd[j]))
    exp = _sorted(pd.DataFrame(rows, columns=["src", "dst", "distance"])
                  .astype({"src": np.int64, "dst": np.int64}))
    pd.testing.assert_frame_equal(got, exp)


def test_delaunay_exact_and_tiled(pts):
    exact = _sorted(delaunay_graph(rd.from_pandas(pts)).to_pandas())
    assert len(exact) > len(pts)  # planar graph: n-1 < m <= 3n-6
    assert (exact["src"] < exact["dst"]).all()
    tiled = _sorted(delaunay_graph(rd.from_pandas(pts), tiled=True,
                                   cell_size=250.0).to_pandas())
    # generous halo at fixture density → tiled matches exact
    pd.testing.assert_frame_equal(tiled, exact)


def test_gabriel_subset_of_delaunay(pts):
    ds = rd.from_pandas(pts)
    dl = set(map(tuple, delaunay_graph(ds).to_pandas()[["src", "dst"]].to_numpy()))
    gb = gabriel_graph(ds).to_pandas()
    rn = relative_neighborhood_graph(ds).to_pandas()
    gset = set(map(tuple, gb[["src", "dst"]].to_numpy()))
    rset = set(map(tuple, rn[["src", "dst"]].to_numpy()))
    assert gset <= dl
    assert rset <= gset  # RNG ⊆ Gabriel ⊆ Delaunay (triangulation hierarchy)
    # brute-force Gabriel check on a sample of edges
    d = brute_dist(pts)
    pos = {int(i): j for j, i in enumerate(pts["id"])}
    for (u, v) in list(gset)[:50]:
        iu, iv = pos[u], pos[v]
        duv2 = d[iu, iv] ** 2
        others = [w for w in range(len(pts)) if w not in (iu, iv)]
        assert not any(d[iu, w] ** 2 + d[iv, w] ** 2 < duv2 - 1e-12 for w in others)


def test_emst_is_spanning_tree(pts):
    mst = euclidean_minimum_spanning_tree(rd.from_pandas(pts)).to_pandas()
    assert len(mst) == len(pts) - 1
    import networkx as nx
    g = nx.Graph()
    g.add_edges_from(mst[["src", "dst"]].to_numpy())
    assert nx.is_connected(g)
    # weight-optimality vs networkx MST over the complete graph
    d = brute_dist(pts)
    ids = pts["id"].to_numpy()
    cg = nx.Graph()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            cg.add_edge(ids[i], ids[j], weight=d[i, j])
    ref = nx.minimum_spanning_tree(cg)
    assert abs(mst["distance"].sum()
               - sum(w["weight"] for *_, w in ref.edges(data=True))) < 1e-6


def test_emst_boruvka_matches_kruskal(pts, distributed):
    """The distributed Borůvka finish must pick the IDENTICAL edge set
    as driver Kruskal (same (distance, src, dst) total order) — on the
    module fixture and on a tie-heavy integer grid where many candidate
    edges share the same length."""
    kr = _sorted(euclidean_minimum_spanning_tree(
        rd.from_pandas(pts)).to_pandas())
    with distributed():
        bo = _sorted(euclidean_minimum_spanning_tree(
            rd.from_pandas(pts)).to_pandas())
    pd.testing.assert_frame_equal(
        kr[["src", "dst", "distance"]], bo[["src", "dst", "distance"]])

    gx, gy = np.meshgrid(np.arange(7.0), np.arange(6.0))
    grid = pd.DataFrame({"id": np.arange(42, dtype=np.int64) * 3 + 5,
                         "x": gx.ravel(), "y": gy.ravel()})
    kr = _sorted(euclidean_minimum_spanning_tree(
        rd.from_pandas(grid)).to_pandas())
    with distributed():
        bo = _sorted(euclidean_minimum_spanning_tree(
            rd.from_pandas(grid)).to_pandas())
    assert len(kr) == 41
    pd.testing.assert_frame_equal(
        kr[["src", "dst", "distance"]], bo[["src", "dst", "distance"]])
    # 2-point and 1-point degenerate inputs through the Borůvka path
    two = pd.DataFrame({"id": np.array([3, 9], dtype=np.int64),
                        "x": [0.0, 1.0], "y": [0.0, 0.0]})
    one = pd.DataFrame({"id": np.array([3], dtype=np.int64),
                        "x": [0.0], "y": [0.0]})
    with distributed():
        assert euclidean_minimum_spanning_tree(
            rd.from_pandas(two)).count() == 1
        assert euclidean_minimum_spanning_tree(
            rd.from_pandas(one)).count() == 0


def test_waxman_deterministic(pts):
    ds = rd.from_pandas(pts)
    a = _sorted(waxman_graph(ds, beta=0.5, r0=50.0, seed=7).to_pandas())
    b = _sorted(waxman_graph(ds, beta=0.5, r0=50.0, seed=7).to_pandas())
    pd.testing.assert_frame_equal(a, b)
    c = waxman_graph(ds, beta=0.5, r0=50.0, seed=8).to_pandas()
    assert not a.equals(_sorted(c))
    assert len(a) > 0


def test_contiguity_queen_rook(part_polys, pts):
    pds = rd.from_pandas(part_polys)
    queen = contiguity_graph(pds, "queen").to_pandas()
    rook = contiguity_graph(pds, "rook").to_pandas()
    qset = set(map(tuple, queen[["src", "dst"]].to_numpy()))
    rset = set(map(tuple, rook[["src", "dst"]].to_numpy()))
    assert rset <= qset  # rook ⊆ queen
    # oracle from grid coords
    from city2graph_ray.synth import part_grid_cell
    col, row = part_grid_cell(part_polys["id"].to_numpy())
    cr = dict(zip(part_polys["id"], zip(col, row)))
    for kind, got in (("queen", qset), ("rook", rset)):
        exp = set()
        for a in cr:
            for b in cr:
                if a >= b:
                    continue
                dc = abs(cr[a][0] - cr[b][0])
                dr = abs(cr[a][1] - cr[b][1])
                adj = max(dc, dr) == 1 if kind == "queen" else dc + dr == 1
                if adj:
                    exp.add((a, b))
        assert got == exp, kind


def test_group_nodes_pip(part_polys, pts):
    got = group_nodes(rd.from_pandas(part_polys), rd.from_pandas(pts)).to_pandas()
    got = _sorted(got)
    from city2graph_ray.synth import part_grid_cell
    col, row = part_grid_cell(part_polys["id"].to_numpy())
    rows = []
    x = pts["x"].to_numpy()
    y = pts["y"].to_numpy()
    ids = pts["id"].to_numpy()
    for pid, c, r in zip(part_polys["id"], col, row):
        x0, y0 = c * 25.0, r * 25.0
        m = (x >= x0) & (x <= x0 + 25) & (y >= y0) & (y <= y0 + 25)
        rows += [(pid, q) for q in ids[m]]
    exp = _sorted(pd.DataFrame(rows, columns=["poly_id", "point_id"])
                  .astype(np.int64))
    pd.testing.assert_frame_equal(got, exp)


def test_exchange_paths_match_bruteforce(pts, topk_stages):
    """Every path through the cell exchange against numpy brute force:
    fixed-radius unipartite and with ``targets``; kNN round 0,
    bipartite, and a prefiltered escalation round (explicit queries
    with halo copies); an empty input keeps the edge schema."""
    d = brute_dist(pts)
    ids = pts["id"].to_numpy()
    ds = rd.from_pandas(pts)
    got = _sorted(fixed_radius_graph(ds, 40.0).to_pandas())
    ii, jj = np.nonzero((d <= 40.0) & (ids[:, None] < ids[None, :]))
    pd.testing.assert_frame_equal(got, _sorted(pd.DataFrame(
        {"src": ids[ii], "dst": ids[jj], "distance": d[ii, jj]})))

    qa, tb = np.arange(len(pts)) % 2 == 0, np.arange(len(pts)) % 2 == 1
    got = _sorted(fixed_radius_graph(
        rd.from_pandas(pts[qa]), 40.0,
        targets=rd.from_pandas(pts[tb])).to_pandas())
    ii, jj = np.nonzero((d[qa][:, tb] <= 40.0))
    pd.testing.assert_frame_equal(got, _sorted(pd.DataFrame(
        {"src": ids[qa][ii], "dst": ids[tb][jj],
         "distance": d[qa][:, tb][ii, jj]})))

    pd.testing.assert_frame_equal(
        _sorted(knn_graph(ds, 4).to_pandas()), _brute_knn(pts, 4))
    assert topk_stages == []  # round 0 resolved every query

    dq = d[qa][:, tb]
    sel = np.lexsort((np.broadcast_to(ids[tb], dq.shape), dq), axis=1)[:, :3]
    rows = np.repeat(np.arange(qa.sum()), 3)
    got = _sorted(knn_graph(rd.from_pandas(pts[qa]), 3,
                            targets=rd.from_pandas(pts[tb])).to_pandas())
    pd.testing.assert_frame_equal(got, _sorted(pd.DataFrame(
        {"src": ids[qa][rows], "dst": ids[tb][sel.ravel()],
         "distance": dq[rows, sel.ravel()]})))

    got = _sorted(knn_graph(ds, 4, halo=1.0, cell_size=4.0).to_pandas())
    pd.testing.assert_frame_equal(got, _brute_knn(pts, 4))
    assert "near_q" in topk_stages

    empty = rd.from_pandas(pts.iloc[:0])
    for out in (fixed_radius_graph(empty, 40.0), knn_graph(empty, 4)):
        assert out.count() == 0
        assert out.schema().names == ["src", "dst", "distance"]


def test_edge_cases_small_inputs():
    """Reference edge-case parity (tests/test_proximity.py:163,485,492):
    two-point Gabriel/RNG keep the single edge; single-point and k=0
    kNN return empty; single-point radius returns empty.  The 2-point
    case also guards the span-based _auto_cell_size (a degenerate
    bbox-area estimate once replicated one edge to ~5e5 witness
    cells)."""
    import ray.data as rd

    from city2graph_ray.ops.proximity import (fixed_radius_graph,
                                              gabriel_graph, knn_graph,
                                              relative_neighborhood_graph)
    one = rd.from_pandas(pd.DataFrame(
        {"id": [0], "x": [0.0], "y": [0.0]}))
    two = rd.from_pandas(pd.DataFrame(
        {"id": [0, 1], "x": [0.0, 1.0], "y": [0.0, 0.0]}))
    assert knn_graph(one, 3).count() == 0
    assert knn_graph(two, 0).count() == 0
    assert fixed_radius_graph(one, 1.0).count() == 0
    assert gabriel_graph(two).count() == 1
    assert relative_neighborhood_graph(two).count() == 1


def test_ungrouped_nodes_complement():
    import ray.data as rd
    from city2graph_ray.ops.proximity import group_nodes, ungrouped_nodes
    rng = np.random.default_rng(4)
    # unit squares at even grid positions -> half the plane uncovered
    polys = []
    for i, (cx, cy) in enumerate((a, b) for a in range(0, 8, 2)
                                 for b in range(0, 8, 2)):
        x0, y0 = cx * 10.0, cy * 10.0
        polys.append({"id": i, "coords": [x0, y0, x0 + 10, y0,
                                          x0 + 10, y0 + 10, x0, y0 + 10,
                                          x0, y0]})
    pts = pd.DataFrame({"id": np.arange(200, dtype=np.int64),
                        "x": rng.uniform(0, 80, 200),
                        "y": rng.uniform(0, 80, 200)})
    pd_polys = pd.DataFrame(polys)
    grouped = group_nodes(rd.from_pandas(pd_polys),
                          rd.from_pandas(pts)).to_pandas()
    anti = ungrouped_nodes(rd.from_pandas(pd_polys),
                           rd.from_pandas(pts)).to_pandas()
    inside = set(grouped["point_id"].astype(int))
    outside = set(anti["id"].astype(int))
    assert inside | outside == set(range(200))
    assert not (inside & outside)
    assert len(outside) > 20


def test_mutual_knn_graph_vs_brute(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.proximity import mutual_knn_graph
    rng = np.random.default_rng(12)
    n, k = 80, 3
    xy = rng.uniform(0, 100, (n, 2))
    pts = rd.from_pandas(pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "x": xy[:, 0], "y": xy[:, 1]}))
    got = mutual_knn_graph(pts, k).to_pandas() \
        .sort_values(["src", "dst"]).reset_index(drop=True)
    d = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(d, np.inf)
    nbrs = [set(np.lexsort((np.arange(n), d[i]))[:k]) for i in range(n)]
    brute = sorted((a, b) for a in range(n) for b in nbrs[a]
                   if a < b and a in nbrs[b])
    assert list(zip(got["src"], got["dst"])) == brute
    for s, t, dist in got.itertuples(index=False):
        assert dist == np.sqrt(((xy[s] - xy[t]) ** 2).sum())


def test_triangulation_hierarchy_large_offset_coords():
    """Ported reference conformance (tests/test_proximity.py:116-150):
    MST ⊆ RNG ⊆ Gabriel ⊆ Delaunay on projected-CRS-like coordinates
    far from the origin — guards the disc-emptiness predicate against
    the float regression the reference pinned (valid Gabriel edges
    dropped when coords ≈ (350000, 5700000))."""
    from city2graph_ray.ops.proximity import (
        euclidean_minimum_spanning_tree, gabriel_graph,
        relative_neighborhood_graph)

    rng = np.random.default_rng(42)
    coords = (rng.uniform(0.0, 5000.0, size=(150, 2))
              + np.array([350_000.0, 5_700_000.0]))
    p = pd.DataFrame({"id": np.arange(150, dtype=np.int64),
                      "x": coords[:, 0], "y": coords[:, 1]})
    ds = rd.from_pandas(p)

    def eset(df):
        return set(map(tuple, df[["src", "dst"]].to_numpy()))

    dl = eset(delaunay_graph(ds).to_pandas())
    gb = eset(gabriel_graph(ds).to_pandas())
    rn = eset(relative_neighborhood_graph(ds).to_pandas())
    ms = eset(euclidean_minimum_spanning_tree(ds).to_pandas())
    assert ms <= rn <= gb <= dl
    # brute-force Gabriel at the large offset: edge (u,v) kept iff no
    # w strictly inside the closed disc on uv
    d = brute_dist(p)
    pos = {int(i): j for j, i in enumerate(p["id"])}
    brute = set()
    ids = p["id"].to_numpy()
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            duv2 = d[i, j] ** 2
            ok = True
            for w in range(len(p)):
                if w in (i, j):
                    continue
                if d[i, w] ** 2 + d[j, w] ** 2 < duv2 - 1e-9 * duv2:
                    ok = False
                    break
            if ok:
                brute.add((int(ids[i]), int(ids[j])))
    assert gb == brute


def test_duplicate_edges_reverse_rows_completeness(pts):
    """Ported reference conformance (tests/test_proximity.py:324-368):
    the engine's duplicate_edges counterpart is symmetrize_edges — for
    every undirected proximity builder output it must produce exactly
    2× rows whose pair set is base ∪ reversed(base)."""
    from city2graph_ray.ops.topology import symmetrize_edges

    ds = rd.from_pandas(pts)
    builders = [
        lambda: fixed_radius_graph(ds, 40.0),
        lambda: delaunay_graph(ds),
        lambda: gabriel_graph(ds),
        lambda: relative_neighborhood_graph(ds),
        lambda: euclidean_minimum_spanning_tree(ds),
    ]
    for build in builders:
        base = build().to_pandas()
        dup = symmetrize_edges(build()).to_pandas()
        pairs = set(map(tuple, base[["src", "dst"]].to_numpy()))
        assert len(dup) == 2 * len(base)
        assert set(map(tuple, dup[["src", "dst"]].to_numpy())) \
            == pairs | {(v, u) for u, v in pairs}


def _brute_knn(df: pd.DataFrame, k: int, metric: str = "euclidean") -> pd.DataFrame:
    """Every point's k nearest others, sorted by (distance, dst id)."""
    from city2graph_ray.ops.proximity import _METRICS
    x = df["x"].to_numpy()
    y = df["y"].to_numpy()
    ids = df["id"].to_numpy()
    d = _METRICS[metric](x[:, None], y[:, None], x[None, :], y[None, :])
    np.fill_diagonal(d, np.inf)
    sel = np.lexsort((np.broadcast_to(ids, d.shape), d), axis=1)[:, :k]
    rows = np.repeat(np.arange(len(df)), k)
    return _sorted(pd.DataFrame({"src": ids[rows], "dst": ids[sel.ravel()],
                                 "distance": d[rows, sel.ravel()]}))


def _uniform_with_outliers(n_out: int) -> pd.DataFrame:
    rng = np.random.default_rng(0)
    x = np.r_[rng.uniform(0, 100, 2000), [1e4, -1e4, 5e3][:n_out]]
    y = np.r_[rng.uniform(0, 100, 2000), [1e4, 3e3, -1e4][:n_out]]
    return pd.DataFrame({"id": np.arange(len(x), dtype=np.int64),
                         "x": x, "y": y})


@pytest.fixture
def topk_stages(monkeypatch):
    """Names of the per-batch functions knn_graph broadcasts:
    ``near_q`` is a prefiltered tiled round, ``block_topk`` the
    broadcast round."""
    from city2graph_ray.ops import proximity
    names = []
    real = proximity.broadcast_map

    def spy(ds, state, fn, *a, **kw):
        names.append(fn.__name__)
        return real(ds, state, fn, *a, **kw)

    monkeypatch.setattr(proximity, "broadcast_map", spy)
    return names


def test_knn_broadcast_output_repartitions():
    """The broadcast round's blocks are Arrow like the tiled rounds',
    so Ray's split repartition accepts the union (it raised
    AssertionError (PANDAS, ARROW) on mixed blocks)."""
    df = _uniform_with_outliers(3)
    out = knn_graph(rd.from_pandas(df), 4, max_rounds=2).repartition(4)
    pd.testing.assert_frame_equal(_sorted(out.to_pandas()),
                                  _brute_knn(df, 4))


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("max_rounds", [4, 1])
def test_knn_lattice_ties_exact(metric, max_rounds):
    """On an integer lattice the k-th neighbour ties under both
    metrics; the kept neighbours are the first k by (distance, dst),
    on the tiled path (default) and on the broadcast path
    (max_rounds=1)."""
    gx, gy = np.meshgrid(np.arange(20.0), np.arange(20.0))
    ids = np.random.default_rng(3).permutation(400).astype(np.int64)
    df = pd.DataFrame({"id": ids, "x": gx.ravel(), "y": gy.ravel()})
    for k in (3, 6):
        got = _sorted(knn_graph(rd.from_pandas(df), k, metric=metric,
                                max_rounds=max_rounds).to_pandas())
        pd.testing.assert_frame_equal(got, _brute_knn(df, k, metric))


def test_knn_few_unresolved_go_to_broadcast(topk_stages):
    """Three far outliers stay unresolved after round 0; they fit in
    one cell, so the broadcast round runs next, with no tiled
    escalation round."""
    df = _uniform_with_outliers(3)
    got = _sorted(knn_graph(rd.from_pandas(df), 4).to_pandas())
    pd.testing.assert_frame_equal(got, _brute_knn(df, 4))
    assert topk_stages == ["block_topk"]


def test_knn_many_unresolved_escalate(topk_stages):
    """A small explicit halo and cell leave most queries unresolved,
    more than a cell holds, so the tiled rounds escalate."""
    df = _uniform_with_outliers(0)
    got = _sorted(knn_graph(rd.from_pandas(df), 4, halo=1.0,
                            cell_size=4.0).to_pandas())
    pd.testing.assert_frame_equal(got, _brute_knn(df, 4))
    assert "near_q" in topk_stages


def test_row_topk_equals_full_lexsort():
    """The partition kernel returns the prefix of the full row lexsort
    by (distance, id): on integer distances full of ties, with repeated
    ids, and with NaN rows (kept in the full sort's order) and infs."""
    from city2graph_ray.ops.proximity import _row_topk
    rng = np.random.default_rng(5)
    for t in range(300):
        nq, m = rng.integers(1, 30), rng.integers(1, 40)
        d = rng.integers(0, 4, (nq, m)).astype(float)
        d[rng.uniform(size=d.shape) < 0.1 * (t % 3)] = (np.nan, np.inf)[t % 2]
        ids = rng.integers(0, 8 if t % 2 else 1000, m)
        for kk in range(1, m + 1):
            exp = np.lexsort((np.broadcast_to(ids, d.shape), d), axis=1)[:, :kk]
            np.testing.assert_array_equal(_row_topk(d, ids, kk), exp)
