"""Morphology pipeline: enclosures, zonal tessellation, layer edges."""

from __future__ import annotations

import contextlib

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from city2graph_ray.ops.morphology import (
    enclosures_from_barriers,
    filter_segments_by_cost,
    morphological_graph,
    nearest_segments,
    place_to_place_edges,
    polygonize_faces,
    reachability_costs,
    zonal_tessellation,
)


@pytest.fixture
def cell_path(monkeypatch):
    """``with cell_path():`` sends assign_buildings_to_enclosures down
    its cell-bucketed path whatever the enclosure count."""
    from city2graph_ray.ops import morphology

    @contextlib.contextmanager
    def force():
        with monkeypatch.context() as m:
            m.setattr(morphology, "ASSIGN_BROADCAST_ENCLOSURES", 0)
            yield

    return force


@pytest.fixture(scope="module")
def street_grid() -> pd.DataFrame:
    """3×3 street grid (lines at 0, 30, 60) → 4 square enclosures."""
    segs = []
    sid = 0
    for v in (0.0, 30.0, 60.0):
        for a, b in [((v, 0.0), (v, 30.0)), ((v, 30.0), (v, 60.0)),
                     ((0.0, v), (30.0, v)), ((30.0, v), (60.0, v))]:
            segs.append((sid, np.array([a[0], a[1], b[0], b[1]])))
            sid += 1
    return pd.DataFrame(segs, columns=["seg_id", "coords"])


@pytest.fixture(scope="module")
def grid_buildings() -> pd.DataFrame:
    """Buildings: two in the SW enclosure, one in NE, none in NW/SE."""
    return pd.DataFrame({
        "id": np.array([1, 2, 3], dtype=np.int64),
        "x": [8.0, 22.0, 45.0],
        "y": [8.0, 22.0, 45.0]})


def test_enclosures(street_grid):
    enc = enclosures_from_barriers(street_grid[["seg_id", "coords"]])
    assert len(enc) == 4
    areas = []
    for ring in enc["coords"]:
        c = np.asarray(ring).reshape(-1, 2)
        areas.append((c[:, 0].max() - c[:, 0].min()) * (c[:, 1].max() - c[:, 1].min()))
    assert all(abs(a - 900.0) < 1e-9 for a in areas)


def _canon_ring(flat: np.ndarray) -> tuple:
    """Rotation-canonical ring: rotate so the lexicographically-smallest
    vertex comes first (orientation preserved — both polygonizers trace
    interior faces CCW)."""
    c = np.asarray(flat, np.float64).reshape(-1, 2)
    i = int(np.lexsort((c[:, 1], c[:, 0]))[0])
    return tuple(np.roll(c, -i, axis=0).reshape(-1).round(9))


def test_distributed_polygonizer_matches_local(street_grid, distributed):
    """polygonize_faces_dataset (successor-permutation shuffles) must
    produce the same enclosure table as the driver polygonizer, up to
    ring rotation — on the grid and on an irregular arrangement with a
    dead-end spur and a diagonal."""
    import ray as _ray
    from city2graph_ray.ops.morphology import (_assemble_enclosures,
                                               compute_enclosures,
                                               polygonize_faces_dataset)

    irregular = pd.DataFrame({
        "seg_id": np.arange(7, dtype=np.int64),
        "coords": [np.array([0., 0., 40., 0.]),
                   np.array([40., 0., 40., 40.]),
                   np.array([40., 40., 0., 40.]),
                   np.array([0., 40., 0., 0.]),
                   # diagonal, noded at (20,20) where the polyline meets
                   np.array([0., 0., 20., 20., 40., 40.]),
                   np.array([40., 40., 55., 55.]),    # dead-end spur
                   np.array([20., 0., 20., 20., 0., 20.])]})  # polyline
    for segs in (street_grid[["seg_id", "coords"]], irregular):
        want = enclosures_from_barriers(segs)
        faces = polygonize_faces_dataset(rd.from_pandas(segs))
        got = _ray.get(_assemble_enclosures.remote(*faces.to_arrow_refs()))
        assert len(got) == len(want)
        for col in ("enclosure_index",):
            assert list(got[col]) == list(want[col])
        for a, b in zip(got["coords"], want["coords"]):
            assert _canon_ring(a) == _canon_ring(b)
        for a, b in zip(got["seg_ids"], want["seg_ids"]):
            assert list(np.asarray(a)) == list(np.asarray(b))
        # compute_enclosures forced down the distributed path
        with distributed():
            ref = compute_enclosures(rd.from_pandas(segs))
        got2 = _ray.get(ref)
        assert len(got2) == len(want)
        for a, b in zip(got2["coords"], want["coords"]):
            assert _canon_ring(a) == _canon_ring(b)


def test_zonal_tessellation(street_grid, grid_buildings):
    enc = enclosures_from_barriers(street_grid[["seg_id", "coords"]])
    tess = zonal_tessellation(rd.from_pandas(grid_buildings), enc,
                              resolution=3.0).to_pandas()
    # only enclosures containing buildings emit assignments
    assert set(tess["bldg_id"]) == {1, 2, 3}
    # SW enclosure split between buildings 1 and 2; cells near (8,8) → 1
    sw = tess[tess["bldg_id"].isin([1, 2])]
    assert sw["tess_id"].nunique() == 2
    near1 = sw[(sw["cell_ix"] == 2) & (sw["cell_iy"] == 2)]  # cell center (7.5,7.5)
    assert (near1["bldg_id"] == 1).all()
    # every interior cell of an occupied enclosure is assigned exactly once
    assert not tess.duplicated(["enclosure_index", "cell_ix", "cell_iy"]).any()
    # tess_id format "{enclosure}_{rank}"
    assert tess["tess_id"].str.match(r"^\d+_\d+$").all()
    # nearest-seed correctness on a sample
    for _, r in tess.sample(20, random_state=0).iterrows():
        cx, cy = (r.cell_ix + 0.5) * 3.0, (r.cell_iy + 0.5) * 3.0
        d = (grid_buildings["x"] - cx) ** 2 + (grid_buildings["y"] - cy) ** 2
        enc_b = grid_buildings[
            grid_buildings["id"].isin(tess[tess["enclosure_index"]
                                           == r.enclosure_index]["bldg_id"])]
        dd = (enc_b["x"] - cx) ** 2 + (enc_b["y"] - cy) ** 2
        assert enc_b.loc[dd.idxmin(), "id"] == r.bldg_id


def test_place_to_place(street_grid, grid_buildings):
    enc = enclosures_from_barriers(street_grid[["seg_id", "coords"]])
    tess = zonal_tessellation(rd.from_pandas(grid_buildings), enc,
                              resolution=3.0)
    pp = place_to_place_edges(tess).to_pandas()
    # exactly one adjacency: the two places sharing the SW enclosure
    assert len(pp) == 1
    assert (pp["src"] < pp["dst"]).all()


def test_nearest_segments(street_grid):
    pts = pd.DataFrame({"id": np.array([10, 11], np.int64),
                        "x": [5.0, 29.0], "y": [3.0, 45.0]})
    got = nearest_segments(rd.from_pandas(pts), rd.from_pandas(street_grid),
                           max_distance=10.0, k=1).to_pandas()
    got = got.set_index("id")
    # brute force
    from city2graph_ray.geom.kernels import point_segment_dist2
    for _, p in pts.iterrows():
        best, bid = np.inf, None
        for _, s in street_grid.iterrows():
            c = np.asarray(s.coords).reshape(-1, 2)
            for a, b in zip(c[:-1], c[1:]):
                d = float(np.sqrt(point_segment_dist2(
                    np.array([p.x]), np.array([p.y]), a[0], a[1], b[0], b[1])[0]))
                if d < best or (d == best and s.seg_id < bid):
                    best, bid = d, s.seg_id
        assert got.loc[p.id, "seg_id"] == bid
        assert abs(got.loc[p.id, "distance"] - best) < 1e-9


def test_reachability_filter(street_grid):
    from city2graph_ray.geom.kernels import linestring_length
    from city2graph_ray.ops.topology import segments_to_graph
    nodes, edges = segments_to_graph(rd.from_pandas(street_grid))
    edf = edges.to_pandas()
    edf["length"] = [linestring_length(np.asarray(c)) for c in edf["coords"]]
    costs = reachability_costs(edf, (0.0, 0.0), nodes.to_pandas())
    assert costs[min(costs)] == 0.0
    kept = filter_segments_by_cost(
        rd.from_pandas(edf[["seg_id", "src", "dst"]]), costs, 30.0).to_pandas()
    # from corner (0,0) with budget 30: only segments touching a node
    # within cost 30 (the two incident + their continuations at cost 30)
    assert 0 < len(kept) < len(edf)
    kmin = [min(costs[s], costs[d]) for s, d in kept[["src", "dst"]].to_numpy()]
    assert max(kmin) <= 30.0


def test_morphological_graph_composition(street_grid, grid_buildings):
    out = morphological_graph(rd.from_pandas(grid_buildings),
                              rd.from_pandas(street_grid),
                              resolution=3.0, pm_max_distance=20.0)
    tess = out["tessellation"].to_pandas()
    assert len(tess) > 0
    pp = out["place_place"].to_pandas()
    assert len(pp) == 1
    mm = out["movement_movement"].to_pandas()
    assert len(mm) > 0 and (mm["src"] < mm["dst"]).all()
    pm = out["place_movement"].to_pandas()
    assert set(pm["id"]) == {1, 2, 3}  # every building finds a street


# ------------------------------------------------------------------ vector tessellation

def _vt_enclosures() -> pd.DataFrame:
    enc = []
    for r in range(2):
        for c in range(2):
            x0, y0 = c * 30.0, r * 30.0
            enc.append((r * 2 + c, np.array(
                [x0, y0, x0 + 30, y0, x0 + 30, y0 + 30, x0, y0 + 30])))
    return pd.DataFrame(enc, columns=["enclosure_index", "coords"])


def test_vector_tessellation_partitions_enclosures():
    """Cell areas per enclosure sum to the enclosure area exactly
    (reference area validation, utils/spatial.py:2243-2279)."""
    from city2graph_ray.ops.morphology import enclosed_tessellation
    rng = np.random.default_rng(3)
    n = 40
    pts = pd.DataFrame({"id": np.arange(n, dtype=np.int64),
                        "x": rng.uniform(0, 60, n),
                        "y": rng.uniform(0, 60, n)})
    out = enclosed_tessellation(rd.from_pandas(pts),
                                _vt_enclosures()).to_pandas()
    sums = out.groupby("enclosure_index")["area"].sum()
    assert np.allclose(sums, 900.0, atol=1e-6)
    assert len(out) == n  # every building got a cell, no empties here
    assert (out["attempts"] == 0).all()


def test_vector_tessellation_is_true_voronoi():
    """Cell areas match a brute-force nearest-seed raster estimate."""
    from city2graph_ray.ops.morphology import enclosed_tessellation
    rng = np.random.default_rng(5)
    pts = pd.DataFrame({"id": np.arange(8, dtype=np.int64),
                        "x": rng.uniform(1, 29, 8),
                        "y": rng.uniform(1, 29, 8)})
    enc = pd.DataFrame({"enclosure_index": [0],
                        "coords": [np.array([0.0, 0, 30, 0, 30, 30, 0, 30])]})
    out = enclosed_tessellation(rd.from_pandas(pts), enc).to_pandas()
    res = 0.05
    g = np.arange(res / 2, 30, res)
    gx, gy = np.meshgrid(g, g)
    d2 = ((gx.ravel()[:, None] - pts["x"].to_numpy()[None, :]) ** 2
          + (gy.ravel()[:, None] - pts["y"].to_numpy()[None, :]) ** 2)
    counts = np.bincount(np.argmin(d2, axis=1), minlength=8)
    est = counts * res * res
    got = out.set_index("bldg_id")["area"].reindex(range(8)).to_numpy()
    assert np.allclose(got, est, atol=2.0)  # raster edge error bound


def test_vector_tessellation_single_and_empty_enclosures():
    from city2graph_ray.ops.morphology import enclosed_tessellation
    pts = pd.DataFrame({"id": np.array([7], dtype=np.int64),
                        "x": [10.0], "y": [10.0]})
    out = enclosed_tessellation(rd.from_pandas(pts),
                                _vt_enclosures()).to_pandas()
    # enclosure 0 holds the single building: full-cell recovery
    sole = out[out["enclosure_index"] == 0]
    assert len(sole) == 1 and sole["bldg_id"].iloc[0] == 7
    assert abs(sole["area"].iloc[0] - 900.0) < 1e-9
    assert sole["tess_id"].iloc[0] == "0_7"
    # the other three enclosures emit one empty cell each (bldg -1)
    empties = out[out["bldg_id"] == -1]
    assert len(empties) == 3
    assert np.allclose(empties["area"], 900.0)


def test_vector_tessellation_jitter_ladder_on_collinear_seeds():
    """Collinear seeds degenerate the triangulation; the ladder's
    jitter rung (reference utils/spatial.py:2524-2581) recovers."""
    from city2graph_ray.ops.morphology import enclosed_tessellation
    pts = pd.DataFrame({"id": np.arange(3, dtype=np.int64),
                        "x": [5.0, 15.0, 25.0],
                        "y": [15.0, 15.0, 15.0]})
    enc = pd.DataFrame({"enclosure_index": [0],
                        "coords": [np.array([0.0, 0, 30, 0, 30, 30, 0, 30])]})
    out = enclosed_tessellation(rd.from_pandas(pts), enc).to_pandas()
    assert len(out) == 3
    assert abs(out["area"].sum() - 900.0) < 1e-3
    assert (out["attempts"] > 0).all()


def test_vector_tessellation_polygon_buildings():
    """Polygon footprints: shrink + densify seeds; party-wall squares
    split their shared enclosure along the midline."""
    from city2graph_ray.ops.morphology import enclosed_tessellation
    sq1 = np.array([4.0, 4, 12, 4, 12, 12, 4, 12])     # centered ~ (8,8)
    sq2 = np.array([18.0, 18, 26, 18, 26, 26, 18, 26])  # centered ~ (22,22)
    b = pd.DataFrame({"id": np.array([1, 2], dtype=np.int64),
                      "coords": [sq1, sq2]})
    enc = pd.DataFrame({"enclosure_index": [0],
                        "coords": [np.array([0.0, 0, 30, 0, 30, 30, 0, 30])]})
    out = enclosed_tessellation(rd.from_pandas(b), enc).to_pandas()
    assert len(out) == 2
    assert abs(out["area"].sum() - 900.0) < 1e-6
    # symmetric layout → equal halves
    assert np.allclose(out["area"], 450.0, atol=1.0)


def test_morphological_graph_distance_filters_all_layers(street_grid,
                                                         grid_buildings):
    """Center+distance path: every layer (movement, place, faced_to)
    derives from the SAME reachability-filtered street set (reference
    _segments_for_distance / _create_and_filter_tessellation)."""
    out = morphological_graph(rd.from_pandas(grid_buildings),
                              rd.from_pandas(street_grid),
                              center=(5.0, 5.0), distance=70.0,
                              resolution=3.0, pm_max_distance=20.0)
    kept = set(out["segment_edges"].to_pandas()["seg_id"])
    assert kept  # reachability kept something
    pm = out["place_movement"].to_pandas()
    # no dangling heterogeneous edges: faced segments ⊆ movement layer
    assert set(pm["seg_id"]).issubset(kept)


def test_morphological_graphs_prunes_places_per_distance(street_grid,
                                                         grid_buildings):
    """Per-distance runs drop tessellation cells whose enclosure lost
    all reachable segments (the reference's per-distance tessellation
    filter) — a small budget keeps fewer place cells than the max."""
    from city2graph_ray.ops.morphology import morphological_graphs
    out = morphological_graphs(rd.from_pandas(grid_buildings),
                               rd.from_pandas(street_grid),
                               center=(5.0, 5.0),
                               distances=[40.0, 500.0], resolution=3.0)
    t_small = out[40.0]["tessellation"].to_pandas()
    t_big = out[500.0]["tessellation"].to_pandas()
    assert len(t_big) > 0
    assert len(t_small) <= len(t_big)
    # the small-budget place layer only references enclosures that kept
    # a reachable segment
    kept_small = set(out[40.0]["segment_edges"].to_pandas()["seg_id"])
    pm_small = out[40.0]["place_movement"].to_pandas()
    if len(pm_small):
        assert set(pm_small["seg_id"]).issubset(kept_small)


def test_filter_points_by_network_reach_access_cap(street_grid):
    """extent_buffer caps the perpendicular access leg independently of
    the network budget (reference _reachable_within_caps)."""
    from city2graph_ray.ops.morphology import (
        _edge_lengths, filter_points_by_network_reach,
        reachability_costs)
    from city2graph_ray.ops.topology import segments_to_graph
    nodes, seg_edges = segments_to_graph(rd.from_pandas(street_grid))
    seg_edges = seg_edges.materialize()
    costs = reachability_costs(_edge_lengths(seg_edges), (0.0, 0.0),
                               nodes.to_pandas())
    pts = pd.DataFrame({"id": np.array([1, 2, 3], dtype=np.int64),
                        "x": [5.0, 15.0, 2.0],
                        "y": [2.0, 15.0, 5.0]})
    # generous network budget, tight access cap: the enclosure-center
    # point (15 units from every street) is dropped, the ones 2 units
    # off a street survive
    out = filter_points_by_network_reach(
        rd.from_pandas(pts), seg_edges, costs, distance=500.0,
        extent_buffer=5.0).to_pandas()
    assert set(out["id"]) == {1, 3}
    # tight network budget drops everything beyond it even with a big
    # access cap
    out2 = filter_points_by_network_reach(
        rd.from_pandas(pts.assign(x=[59.0, 59.0, 59.0])), seg_edges,
        costs, distance=10.0, extent_buffer=50.0).to_pandas()
    assert len(out2) == 0


def test_unenclosed_fallback_and_keep_buildings(street_grid,
                                                grid_buildings):
    from city2graph_ray.ops.morphology import (
        enclosures_from_barriers, keep_buildings_join,
        unenclosed_fallback_cells, zonal_tessellation)
    enc = enclosures_from_barriers(street_grid[["seg_id", "coords"]])
    blds = pd.concat([grid_buildings, pd.DataFrame(
        {"id": [9], "x": [200.0], "y": [200.0]})])  # far outside grid
    tess = zonal_tessellation(rd.from_pandas(blds), enc, resolution=3.0)
    with_fb = unenclosed_fallback_cells(
        tess, rd.from_pandas(blds), enc).to_pandas()
    fb = with_fb[with_fb["tess_id"] == "fallback_9"]
    assert len(fb) == 1 and fb["enclosure_index"].iloc[0] == -1
    # keep_buildings: building coords ride onto the cells, absent ones null
    joined = keep_buildings_join(
        unenclosed_fallback_cells(tess, rd.from_pandas(blds), enc),
        rd.from_pandas(blds)).to_pandas()
    f9 = joined[joined["tess_id"] == "fallback_9"]
    assert np.isclose(f9["bldg_x"].iloc[0], 200.0)


def test_assign_bucketed_matches_broadcast(street_grid, grid_buildings,
                                           cell_path):
    """VERDICT r3 #2: the cell-bucketed assignment path must be
    row-identical to the broadcast first-match-wins loop."""
    from city2graph_ray.ops.morphology import assign_buildings_to_enclosures

    enc = enclosures_from_barriers(street_grid[["seg_id", "coords"]])

    def canon(df):
        return (df[["id", "x", "y", "enclosure_index"]]
                .sort_values("id").reset_index(drop=True))

    a = canon(assign_buildings_to_enclosures(
        rd.from_pandas(grid_buildings), enc).to_pandas())
    with cell_path():
        b = canon(assign_buildings_to_enclosures(
            rd.from_pandas(grid_buildings), enc).to_pandas())
    pd.testing.assert_frame_equal(a, b)
    assert set(a["enclosure_index"]) <= {0, 1, 2, 3}
    assert (a["enclosure_index"] >= 0).all()


def test_assign_bucketed_stress_10k_enclosures(cell_path):
    """10⁴ unit-square enclosures (100×100 grid): the bucketed path
    assigns every interior point to its own square, boundary points to
    the min-position (first-match) enclosure, and outside points to -1
    — per-group candidate sets stay local (no O(#enclosures) pass)."""
    from city2graph_ray.ops.morphology import assign_buildings_to_enclosures

    n_side = 100
    eix, eiy = np.meshgrid(np.arange(n_side), np.arange(n_side))
    eix, eiy = eix.ravel(), eiy.ravel()
    rings = [np.array([x, y, x + 1.0, y, x + 1.0, y + 1.0, x, y + 1.0],
                      np.float64)
             for x, y in zip(eix.astype(float), eiy.astype(float))]
    enc = pd.DataFrame({
        "enclosure_index": np.arange(n_side * n_side, dtype=np.int64),
        "coords": rings})

    rng = np.random.default_rng(7)
    m = 1500
    # interior points: strict interior of a random square each
    sq = rng.integers(0, n_side * n_side, m)
    bx = eix[sq] + rng.uniform(0.2, 0.8, m)
    by = eiy[sq] + rng.uniform(0.2, 0.8, m)
    # one shared-corner point (on the boundary of squares 0,1,100,101)
    # and one far outside
    bx = np.concatenate([bx, [1.0, 1e6]])
    by = np.concatenate([by, [1.0, 1e6]])
    expect = np.concatenate([sq, [0, -1]]).astype(np.int64)
    bds = rd.from_pandas(pd.DataFrame({
        "id": np.arange(m + 2, dtype=np.int64), "x": bx, "y": by}))

    with cell_path():
        out = assign_buildings_to_enclosures(bds, enc).to_pandas()
    out = out.sort_values("id").reset_index(drop=True)
    np.testing.assert_array_equal(out["enclosure_index"].to_numpy(), expect)


# ------------------------------------------------------------- ported
# Reference conformance behaviors (reference tests/test_morphology.py
# :518-:960 fallback/reachability semantics), re-expressed Ray-idiom.

def test_boundary_straddling_segment_kept(street_grid):
    """Reference :801: a segment whose cheaper endpoint is within the
    cost budget is kept whole; one fully beyond is dropped."""
    from city2graph_ray.ops.morphology import (filter_segments_by_cost,
                                               reachability_costs)
    from city2graph_ray.ops.topology import segments_to_graph

    segs = pd.DataFrame({
        "seg_id": np.array([0, 1], np.int64),
        "coords": [np.array([0.0, 0.0, 50.0, 0.0]),
                   np.array([50.0, 0.0, 100.0, 0.0])]})
    nodes, edges = segments_to_graph(rd.from_pandas(segs))
    edf = edges.to_pandas()
    lens = pd.DataFrame({"src": edf["src"], "dst": edf["dst"],
                         "length": [50.0, 50.0]})
    costs = reachability_costs(lens, (0.0, 0.0), nodes.to_pandas())
    kept = filter_segments_by_cost(edges, costs, 20.0).to_pandas()
    assert kept["seg_id"].tolist() == [0]


def test_distance_filter_missing_center_node_degrades_empty():
    """Reference :737: when the snapped center node is absent from the
    cost graph, the reachability field is empty and every segment is
    dropped (empty place layer downstream)."""
    from city2graph_ray.ops.morphology import (filter_segments_by_cost,
                                               reachability_costs)
    from city2graph_ray.ops.topology import segments_to_graph

    segs = pd.DataFrame({
        "seg_id": np.array([0], np.int64),
        "coords": [np.array([0.0, 0.0, 50.0, 0.0])]})
    nodes, edges = segments_to_graph(rd.from_pandas(segs))
    # node table with an extra isolated node right at the center: the
    # snap picks it, Dijkstra has no such node -> empty cost field
    nd = pd.concat([nodes.to_pandas(), pd.DataFrame(
        {"node_id": [99], "x": [500.0], "y": [500.0]})])
    lens = pd.DataFrame({"src": edges.to_pandas()["src"],
                         "dst": edges.to_pandas()["dst"],
                         "length": [50.0]})
    costs = reachability_costs(lens, (500.0, 500.0), nd)
    assert costs == {}
    assert filter_segments_by_cost(edges, costs, 1e9).count() == 0


def test_place_to_movement_respects_max_connection_distance():
    """Reference :920: fallback connections farther than
    max_connection_distance are not created."""
    from city2graph_ray.ops.morphology import nearest_segments

    pts = rd.from_pandas(pd.DataFrame({
        "id": np.array([1, 2], np.int64),
        "x": [1.0, 1.0], "y": [2.0, 101.0]}))
    segs = rd.from_pandas(pd.DataFrame({
        "seg_id": np.array([0], np.int64),
        "coords": [np.array([0.0, 0.0, 50.0, 0.0])]}))
    out = nearest_segments(pts, segs, max_distance=10.0).to_pandas()
    assert set(out["id"]) == {1}
    assert np.isclose(out["distance"].iloc[0], 2.0)


def test_fallback_uses_prefiltered_buildings(street_grid):
    """Reference :518/:551: fallback cells come from the buildings
    already selected for graph inclusion — a building dropped by the
    network-reach cap must NOT reappear as a fallback cell."""
    from city2graph_ray.ops.morphology import morphological_graph

    blds = rd.from_pandas(pd.DataFrame({
        "id": np.array([1, 9], np.int64),
        "x": [8.0, 200.0], "y": [8.0, 200.0]}))  # 9 is unenclosed+far
    out = morphological_graph(
        blds, rd.from_pandas(street_grid[["seg_id", "coords"]]),
        center=(0.0, 0.0), distance=70.0, resolution=5.0,
        extent_buffer=10.0, include_unenclosed_buildings=True)
    tess = out["tessellation"].to_pandas()
    assert "fallback_9" not in set(tess["tess_id"])
    assert (tess["bldg_id"] == 1).any()


def test_fallback_keeps_schema_when_tessellation_empty(street_grid):
    """Reference :1349: an all-unenclosed building set yields an empty
    zonal tessellation; the fallback append must still emit the full
    place schema (typed columns, one row per unenclosed building)."""
    from city2graph_ray.ops.morphology import (enclosures_from_barriers,
                                               unenclosed_fallback_cells,
                                               zonal_tessellation)

    enc = enclosures_from_barriers(street_grid[["seg_id", "coords"]])
    blds = pd.DataFrame({"id": np.array([7, 8], np.int64),
                         "x": [500.0, 600.0], "y": [500.0, 600.0]})
    tess = zonal_tessellation(rd.from_pandas(blds), enc, resolution=3.0)
    out = unenclosed_fallback_cells(
        tess, rd.from_pandas(blds), enc).to_pandas()
    assert sorted(out["tess_id"]) == ["fallback_7", "fallback_8"]
    assert (out["enclosure_index"] == -1).all()
    assert {"cell_ix", "cell_iy", "bldg_id", "area"} <= set(out.columns)


def test_assign_bucketed_id_castability_and_outlier_clamp(street_grid,
                                                          grid_buildings,
                                                          cell_path):
    """ADVICE r4: the cell-bucketed path (a) rejects non-int64-castable
    building ids with a clear TypeError instead of silently truncating,
    (b) accepts float ids that ARE losslessly castable, and (c) clamps
    the cell size so one city-spanning outlier enclosure cannot
    replicate its ring across an unbounded cell count."""
    import pytest

    from city2graph_ray.ops.morphology import assign_buildings_to_enclosures

    enc = enclosures_from_barriers(street_grid[["seg_id", "coords"]])

    # (a) string ids → loud failure in the cell path
    bad = grid_buildings.copy()
    bad["id"] = bad["id"].astype(str)
    with pytest.raises(Exception, match="int64-castable"), cell_path():
        assign_buildings_to_enclosures(rd.from_pandas(bad), enc).to_pandas()

    # (a') non-integral float ids → loud failure too
    frac = grid_buildings.copy()
    frac["id"] = frac["id"].astype(np.float64) + 0.5
    with pytest.raises(Exception, match="int64-castable"), cell_path():
        assign_buildings_to_enclosures(rd.from_pandas(frac), enc).to_pandas()

    # (b) integral float ids work and match the broadcast path
    okf = grid_buildings.copy()
    okf["id"] = okf["id"].astype(np.float64)

    def canon(df):
        out = df[["id", "x", "y", "enclosure_index"]].copy()
        out["id"] = out["id"].astype(np.int64)
        return out.sort_values("id").reset_index(drop=True)

    a = canon(assign_buildings_to_enclosures(
        rd.from_pandas(grid_buildings), enc).to_pandas())
    with cell_path():
        b = canon(assign_buildings_to_enclosures(
            rd.from_pandas(okf), enc).to_pandas())
    pd.testing.assert_frame_equal(a, b)

    # (c) one outlier enclosure 1000× the median side: default cell
    # sizing must still produce the correct assignment (clamp keeps its
    # covering-cell count bounded at (64+1)² instead of ~10⁶)
    rings = [np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0]),
             np.array([2.0, 0.0, 3.0, 0.0, 3.0, 1.0, 2.0, 1.0]),
             np.array([4.0, 0.0, 5.0, 0.0, 5.0, 1.0, 4.0, 1.0]),
             np.array([-1000.0, -1000.0, 1000.0, -1000.0,
                       1000.0, 1000.0, -1000.0, 1000.0])]
    enc2 = pd.DataFrame({
        "enclosure_index": np.arange(4, dtype=np.int64),
        "coords": rings})
    pts = pd.DataFrame({"id": np.arange(4, dtype=np.int64),
                        "x": [0.5, 2.5, 900.0, 5000.0],
                        "y": [0.5, 0.5, 900.0, 5000.0]})
    with cell_path():
        out = (assign_buildings_to_enclosures(rd.from_pandas(pts), enc2)
               .to_pandas().sort_values("id").reset_index(drop=True))
    np.testing.assert_array_equal(
        out["enclosure_index"].to_numpy(),
        np.array([0, 1, 3, -1], dtype=np.int64))
