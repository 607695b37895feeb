"""Spatial utilities: hulls, network filtering, GTFS loaders."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from city2graph_ray.ops.spatial import (
    alpha_shape_edges,
    convex_hull,
    create_isochrone,
    filter_graph_by_distance,
    isochrone_layers,
    reachable_nodes,
)


def test_convex_hull_square():
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.2, 0.8]])
    hull = convex_hull(pts).reshape(-1, 2)
    assert len(hull) == 4
    assert set(map(tuple, hull)) == {(0, 0), (1, 0), (1, 1), (0, 1)}


def test_convex_hull_collinear():
    pts = np.array([[0, 0], [1, 1], [2, 2]])
    hull = convex_hull(pts).reshape(-1, 2)
    assert len(hull) <= 3


def test_alpha_shape_boundary():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 10, (200, 2))
    e = alpha_shape_edges(pts, alpha=0.5)  # radius cap 2.0
    assert len(e) > 0
    # boundary edges must be shorter than 2/alpha (twice the radius cap)
    for a, b in e:
        assert np.linalg.norm(pts[a] - pts[b]) <= 4.0 + 1e-9


@pytest.fixture()
def chain_graph():
    nodes = pd.DataFrame({"node_id": np.arange(5, dtype=np.int64),
                          "x": np.arange(5, dtype=float) * 10.0,
                          "y": np.zeros(5)})
    edges = pd.DataFrame({"src": [0, 1, 2, 3], "dst": [1, 2, 3, 4],
                          "length": [10.0, 10.0, 10.0, 10.0]})
    return nodes, edges


def test_reachable_and_filter(chain_graph):
    nodes, edges = chain_graph
    reach = reachable_nodes(edges, nodes, [(0.0, 0.0)], threshold=25.0)
    assert set(reach) == {0, 1, 2} and reach[2] == 20.0
    fn, fe = filter_graph_by_distance(
        rd.from_pandas(nodes), rd.from_pandas(edges), edges, nodes,
        [(0.0, 0.0)], 25.0)
    assert set(fn.to_pandas()["node_id"]) == {0, 1, 2}
    kept = fe.to_pandas()
    assert set(map(tuple, kept[["src", "dst"]].to_numpy())) == {(0, 1), (1, 2)}


def test_isochrone_layers(chain_graph):
    nodes, edges = chain_graph
    layers = isochrone_layers(edges, nodes, [(0.0, 0.0)], [15.0, 35.0])
    assert [la["threshold"] for la in layers] == [35.0, 15.0]  # largest first
    assert layers[0]["n_nodes"] == 4 and layers[1]["n_nodes"] == 2
    with pytest.raises(ValueError):
        create_isochrone(nodes, method="nope")


def test_gtfs_dir_loader(tmp_path):
    from city2graph_ray.sources.gtfs import load_gtfs_dir, stops_with_geometry
    (tmp_path / "stops.txt").write_text(
        "stop_id,stop_name,stop_lat,stop_lon\nA,Alpha,1.0,2.0\nB,Beta,,\n")
    (tmp_path / "trips.txt").write_text(
        "trip_id,route_id,service_id\nt1,r1,S\n")
    (tmp_path / "stop_times.txt").write_text(
        "trip_id,stop_id,stop_sequence,arrival_time,departure_time\n"
        "t1,A,1,08:00:00,08:00:00\nt1,B,2,08:10:00,08:10:00\n")
    tables = load_gtfs_dir(str(tmp_path))
    assert isinstance(tables["stops"], pd.DataFrame)
    st = tables["stop_times"]
    assert st.count() == 2  # Dataset
    geo = stops_with_geometry(tables["stops"])
    # blank lat/lon row dropped (reference guard transportation.py:294-310)
    assert list(geo["stop_id"]) == ["A"]
    assert geo.iloc[0]["x"] == 2.0 and geo.iloc[0]["y"] == 1.0


def test_buffer_rings_two_clusters():
    from city2graph_ray.geom.hulls import raster_buffer_rings
    rng = np.random.default_rng(0)
    pts = np.vstack([rng.uniform(0, 5, (30, 2)), rng.uniform(50, 55, (30, 2))])
    rings = raster_buffer_rings(pts, 3.0, 1.0)
    assert len(rings) == 2  # disjoint clusters → two boundary rings
    for r in rings:
        c = r.reshape(-1, 2)
        assert len(c) >= 8


def test_concave_knn_hull_l_shape():
    from city2graph_ray.geom.hulls import concave_hull_knn
    from city2graph_ray.geom.kernels import (points_in_polygon,
                                             polygon_area_centroid)
    from city2graph_ray.ops.spatial import convex_hull
    L = np.array([[x, y] for x in range(10) for y in range(10)
                  if x < 3 or y < 3], float)
    h = concave_hull_knn(L, k=3)
    a, _, _ = polygon_area_centroid(h)
    ca, _, _ = polygon_area_centroid(convex_hull(L))
    assert abs(a) < abs(ca) * 0.7  # genuinely concave, not the fallback
    assert points_in_polygon(L[:, 0], L[:, 1], h).all()


def test_isochrone_buffer_and_concave(chain_graph):
    from city2graph_ray.ops.spatial import create_isochrone
    nodes, _ = chain_graph
    iso_b = create_isochrone(nodes, method="buffer")
    assert iso_b["method"] == "buffer" and len(iso_b["rings"]) >= 1
    iso_c = create_isochrone(nodes, method="concave-knn")
    assert iso_c["method"] == "concave-knn" and len(iso_c["rings"]) == 1


def test_idw_interpolate_matches_brute():
    import ray.data as rd
    from city2graph_ray.ops.spatial import idw_interpolate
    rng = np.random.default_rng(9)
    q = pd.DataFrame({"id": np.arange(30),
                      "x": rng.uniform(0, 100, 30),
                      "y": rng.uniform(0, 100, 30)})
    s = pd.DataFrame({"id": np.arange(100, 140),
                      "x": rng.uniform(0, 100, 40),
                      "y": rng.uniform(0, 100, 40),
                      "v": rng.uniform(0, 10, 40).round(2)})
    out = (idw_interpolate(rd.from_pandas(q), rd.from_pandas(s), k=3)
           .to_pandas().set_index("id")["idw"])
    for _, row in q.iterrows():
        d2 = (s.x - row.x) ** 2 + (s.y - row.y) ** 2
        near = d2.nsmallest(3)
        w = 1.0 / (1.0 + near.to_numpy())
        want = round((s.v.to_numpy()[near.index] * w).sum() / w.sum(), 6)
        assert abs(out[row.id] - want) < 1e-6


def test_rdp_simplify_known_and_reference():
    from city2graph_ray.geom.simplify import simplify_polyline

    # collinear chain collapses to endpoints
    line = np.array([0, 0, 1, 0.0, 2, 0, 3, 0])
    assert simplify_polyline(line, 0.01).tolist() == [0, 0, 3, 0]
    # spike above tol survives
    spike = np.array([0, 0, 1, 1.0, 2, 0])
    assert simplify_polyline(spike, 0.5).tolist() == [0, 0, 1, 1, 2, 0]
    assert simplify_polyline(spike, 1.5).tolist() == [0, 0, 2, 0]

    def ref(pts, tol):
        if len(pts) <= 2:
            return pts
        a, b = pts[0], pts[-1]
        d = b - a
        import math
        best, bi = -1.0, -1
        for i in range(1, len(pts) - 1):
            if d @ d == 0:
                dist = math.hypot(*(pts[i] - a))
            else:
                rel = pts[i] - a
                dist = abs(rel[0] * d[1] - rel[1] * d[0]) / math.sqrt(d @ d)
            if dist > best:
                best, bi = dist, i
        if best > tol:
            return np.vstack([ref(pts[:bi + 1], tol)[:-1],
                              ref(pts[bi:], tol)])
        return np.vstack([a, b])

    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = rng.uniform(0, 100, (rng.integers(2, 40), 2))
        got = simplify_polyline(pts.ravel(), 5.0).reshape(-1, 2)
        want = ref(pts, 5.0)
        assert np.allclose(got, want)


def test_ripley_k_small_grid(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.spatial import ripley_k
    # 3x3 unit grid: pairs at d<=1: 12 (rook adjacencies); d<=1.5
    # adds 8 diagonals (sqrt2) = 20; d<=2 adds 6 straight 2-steps = 26
    xs, ys = np.meshgrid(np.arange(3.0), np.arange(3.0))
    pts = rd.from_pandas(pd.DataFrame({
        "id": np.arange(9), "x": xs.ravel(), "y": ys.ravel()}))
    out = ripley_k(pts, [1.0, 1.5, 2.0], area=4.0).to_pandas() \
        .sort_values("r").reset_index(drop=True)
    assert out["n_pairs"].tolist() == [12, 20, 26]
    exp = 4.0 * (2 * np.array([12, 20, 26])) / (9 * 8.0)
    assert np.array_equal(out["khat"].to_numpy(), exp)


def test_dbscan_hand_fixture(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.spatial import dbscan
    # line: 0,1,2 clustered; 3,4 a pair; 5 isolated
    pts = rd.from_pandas(pd.DataFrame({
        "id": np.arange(6, dtype=np.int64),
        "x": np.array([0.0, 1.0, 2.0, 10.0, 11.0, 20.0]),
        "y": np.zeros(6)}))
    # min_pts=3: only id 1 is core; 0/2 border attach to cluster 1
    out = dbscan(pts, 1.5, 3).to_pandas().sort_values("id") \
        .reset_index(drop=True)
    assert out["cluster"].tolist() == [1, 1, 1, -1, -1, -1]
    assert out["is_core"].tolist() == [0, 1, 0, 0, 0, 0]
    # min_pts=2: chains become clusters labelled by min member id
    out2 = dbscan(pts, 1.5, 2).to_pandas().sort_values("id") \
        .reset_index(drop=True)
    assert out2["cluster"].tolist() == [0, 0, 0, 3, 3, -1]
    assert out2["is_core"].tolist() == [1, 1, 1, 1, 1, 0]


def test_dbscan_all_noise(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.spatial import dbscan
    iso = rd.from_pandas(pd.DataFrame({
        "id": np.arange(3, dtype=np.int64),
        "x": np.array([0.0, 100.0, 200.0]), "y": np.zeros(3)}))
    out = dbscan(iso, 1.0, 2).to_pandas().sort_values("id")
    assert out["cluster"].tolist() == [-1, -1, -1]
    assert out["is_core"].tolist() == [0, 0, 0]


def test_connected_components_multigraph_matches_distributed(ray_session,
                                                           distributed):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.topology import connected_components
    rng = np.random.RandomState(7)
    src = rng.randint(0, 400, 900).astype(np.int64)
    dst = rng.randint(0, 400, 900).astype(np.int64)
    edges = rd.from_pandas(pd.DataFrame({"src": src, "dst": dst}))
    a = connected_components(edges).to_pandas() \
        .sort_values("node_id").reset_index(drop=True)
    # forced distributed path agrees
    with distributed():
        c = connected_components(edges).to_pandas() \
            .sort_values("node_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, c)


def test_hausdorff_zones_bruteforce():
    import ray.data as rd
    from city2graph_ray.ops.spatial import hausdorff_zones
    rng = np.random.default_rng(47)
    n = 150
    df = pd.DataFrame({"zone": rng.integers(0, 5, n).astype(np.int64),
                       "x": rng.integers(0, 60, n).astype(np.int64),
                       "y": rng.integers(0, 60, n).astype(np.int64)})
    got = (hausdorff_zones(rd.from_pandas(df), num_buckets=4)
           .to_pandas().set_index(["za", "zb"])["h_sq"].to_dict())
    zs = sorted(df["zone"].unique())
    want = {}
    for za in zs:
        for zb in zs:
            if za == zb:
                continue
            a = df[df["zone"] == za]
            b = df[df["zone"] == zb]
            h = max(min((ax - bx) ** 2 + (ay - by) ** 2
                        for bx, by in zip(b["x"], b["y"]))
                    for ax, ay in zip(a["x"], a["y"]))
            want[(za, zb)] = h
    assert got == want
    # directionality: h(A->B) != h(B->A) for at least one pair
    assert any(got[(a, b)] != got[(b, a)] for a, b in got if (b, a) in got)


def _hull_edges_brute(df):
    """All-points-strictly-left-or-collinear-between pair predicate."""
    edges = set()
    for z, g in df.groupby("zone"):
        pts = sorted(set(zip(g["x"], g["y"])))
        for a in pts:
            for b in pts:
                if a == b:
                    continue
                ok = True
                for c in pts:
                    if c in (a, b):
                        continue
                    cr = ((b[0] - a[0]) * (c[1] - a[1])
                          - (b[1] - a[1]) * (c[0] - a[0]))
                    if cr > 0:
                        continue
                    if cr == 0 and min(a[0], b[0]) <= c[0] <= max(a[0], b[0]) \
                            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]):
                        continue
                    ok = False
                    break
                if ok:
                    edges.add((z, *a, *b))
    return edges


def test_convex_hull_zones_bruteforce_with_collinear():
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.spatial import convex_hull_zones

    rng = np.random.default_rng(3)
    dfs = []
    for z in range(4):
        n = 40
        x = rng.integers(0, 50, n)
        y = rng.integers(0, 50, n)
        # force collinear points on the boundary: duplicate extremes'
        # midpoints along the top edge
        y[:5] = 50
        x[:5] = np.array([0, 10, 20, 30, 50])
        dfs.append(pd.DataFrame({"zone": z, "x": x, "y": y}))
    df = pd.concat(dfs, ignore_index=True).astype(np.int64)
    got = convex_hull_zones(
        rd.from_pandas(df).repartition(7), num_buckets=4).to_pandas()
    want = _hull_edges_brute(df)
    have = set(zip(got["zone"], got["ax"], got["ay"], got["bx"], got["by"]))
    assert have == want
    # per zone: edge count == vertex count, forms one closed cycle
    for z, g in got.groupby("zone"):
        starts = set(zip(g["ax"], g["ay"]))
        ends = set(zip(g["bx"], g["by"]))
        assert starts == ends and len(starts) == len(g)


def test_convex_hull_zones_degenerate_zones_silent():
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.spatial import convex_hull_zones

    df = pd.DataFrame({
        "zone": np.array([0, 1, 1, 2, 2, 2, 3, 3, 3, 3], np.int64),
        "x": np.array([5, 0, 9, 0, 5, 9, 0, 0, 0, 5], np.int64),
        "y": np.array([5, 0, 9, 0, 5, 9, 0, 3, 9, 5], np.int64)})
    # zone0: single point; zone1: two points; zone2: collinear;
    # zone3: a real triangle (3 on a vertical line + one off it)
    got = convex_hull_zones(rd.from_pandas(df), num_buckets=2).to_pandas()
    assert set(got["zone"]) == {3}
    assert len(got) == 3


def test_snap_to_segments_bruteforce():
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.spatial import snap_to_segments

    rng = np.random.default_rng(23)
    npts, nseg = 60, 25
    pts = pd.DataFrame({"id": np.arange(npts, dtype=np.int64),
                        "x": rng.integers(0, 500, npts),
                        "y": rng.integers(0, 500, npts)}).astype(np.int64)
    ax = rng.integers(0, 500, nseg)
    ay = rng.integers(0, 500, nseg)
    segs = pd.DataFrame({"seg_id": np.arange(nseg, dtype=np.int64),
                         "ax": ax, "ay": ay,
                         "bx": ax + rng.integers(-30, 31, nseg),
                         "by": ay + rng.integers(-30, 31, nseg)
                         }).astype(np.int64)
    segs.loc[0, ["bx", "by"]] = segs.loc[0, ["ax", "ay"]].to_numpy()  # degenerate
    radius = 120.0
    got = (snap_to_segments(rd.from_pandas(pts), rd.from_pandas(segs),
                            radius=radius, num_buckets=4)
           .to_pandas().set_index("id").sort_index())

    # brute force: exact rational distance, float ordering key mirror
    want = {}
    for _, p in pts.iterrows():
        best = None
        for _, s in segs.iterrows():
            dx, dy = s["bx"] - s["ax"], s["by"] - s["ay"]
            ex, ey = p["x"] - s["ax"], p["y"] - s["ay"]
            fx, fy = p["x"] - s["bx"], p["y"] - s["by"]
            ll, tn = dx * dx + dy * dy, ex * dx + ey * dy
            if 0 < tn < ll:
                num, den = (ex * ex + ey * ey) * ll - tn * tn, ll
            elif tn <= 0:
                num, den = ex * ex + ey * ey, 1
            else:
                num, den = fx * fx + fy * fy, 1
            if num > radius * radius * den:
                continue
            key = (np.float64(num) / np.float64(den), s["seg_id"])
            if best is None or key < best[0]:
                best = (key, s["seg_id"], num, den)
        if best is not None:
            want[p["id"]] = best[1:]
    assert set(got.index) == set(want)
    for pid, (sid, num, den) in want.items():
        row = got.loc[pid]
        assert (row["seg_id"], row["d2_num"], row["d2_den"]) == \
            (sid, num, den), pid
        # snapped point actually lies on the segment's bbox
        s = segs[segs["seg_id"] == sid].iloc[0]
        assert min(s["ax"], s["bx"]) - 1e-9 <= row["snap_x"] \
            <= max(s["ax"], s["bx"]) + 1e-9
        assert min(s["ay"], s["by"]) - 1e-9 <= row["snap_y"] \
            <= max(s["ay"], s["by"]) + 1e-9


def test_snap_to_segments_out_of_radius_empty():
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.spatial import snap_to_segments

    pts = pd.DataFrame({"id": np.array([1], np.int64),
                        "x": np.array([0], np.int64),
                        "y": np.array([0], np.int64)})
    segs = pd.DataFrame({"seg_id": np.array([7], np.int64),
                         "ax": np.array([500], np.int64),
                         "ay": np.array([500], np.int64),
                         "bx": np.array([510], np.int64),
                         "by": np.array([500], np.int64)})
    got = snap_to_segments(rd.from_pandas(pts), rd.from_pandas(segs),
                           radius=50.0, num_buckets=2).to_pandas()
    assert len(got) == 0


def test_hull_area_zones_square():
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.spatial import hull_area_zones

    # 10×10 square with interior noise: hull area exactly 100
    rng = np.random.default_rng(2)
    inner = pd.DataFrame({"zone": 0, "x": rng.integers(1, 10, 30),
                          "y": rng.integers(1, 10, 30)})
    corners = pd.DataFrame({"zone": 0, "x": [0, 10, 10, 0],
                            "y": [0, 0, 10, 10]})
    df = pd.concat([inner, corners], ignore_index=True).astype(np.int64)
    got = hull_area_zones(rd.from_pandas(df), num_buckets=2).to_pandas()
    assert len(got) == 1
    assert got["area2"].iloc[0] == 200
    assert got["area"].iloc[0] == 100.0
    assert got["n_vertices"].iloc[0] == 4
