"""Spatial utilities: network-distance filtering and isochrone hulls.

Reference: /root/reference/city2graph/utils/spatial.py —
``filter_graph_by_distance`` :68-159/:376-456 (snap center to nearest
node, multi-source Dijkstra, induced subgraph) and ``create_isochrone``
:162-2082 (reachable nodes → polygon via convex / alpha / concave-knn /
buffer hulls, multi-threshold layering).

Engine shape: the network is the small side (broadcast); Dijkstra runs
as one driver task; the reachable-id set broadcasts into a semi-filter
over the (large) node/edge Datasets.  Hull construction is a
small-result driver op over the reachable points (post-filter), exactly
as the reference computes it in-process.  Hull algorithms are written
from scratch: Andrew monotone chain (convex) and Delaunay
alpha-complex boundary walk (alpha shape).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from city2graph_ray import cells, shuffle
from city2graph_ray.geom.delaunay import Delaunator, _circumradius2
from city2graph_ray.joins import semi_filter


def reachable_nodes(edges: pd.DataFrame, nodes: pd.DataFrame,
                    centers: list[tuple[float, float]],
                    threshold: float, weight_col: str = "length",
                    ) -> dict[int, float]:
    """node_id → min network cost from any snapped center, cost ≤
    threshold (multi-source Dijkstra; centers snap to nearest node)."""
    import networkx as nx
    g = nx.Graph()
    for s, d, w in edges[["src", "dst", weight_col]].itertuples(index=False):
        g.add_edge(int(s), int(d), weight=float(w))
    nx_ids = nodes["node_id"].to_numpy()
    out: dict[int, float] = {}
    for cx, cy in centers:
        dx = nodes["x"].to_numpy() - cx
        dy = nodes["y"].to_numpy() - cy
        start = int(nx_ids[np.argmin(dx * dx + dy * dy)])
        if start not in g:
            continue
        lengths = nx.single_source_dijkstra_path_length(
            g, start, cutoff=threshold)
        for k, v in lengths.items():
            k = int(k)
            if k not in out or v < out[k]:
                out[k] = float(v)
    return out


def filter_graph_by_distance(nodes: ray.data.Dataset,
                             edges: ray.data.Dataset,
                             edge_df: pd.DataFrame,
                             node_df: pd.DataFrame,
                             centers: list[tuple[float, float]],
                             threshold: float,
                             weight_col: str = "length",
                             ) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """Induced subgraph of nodes within network distance of center(s):
    broadcast reachable-id set, semi-filter both Datasets (strict: both
    edge endpoints reachable, reference clip semantics)."""
    reach = reachable_nodes(edge_df, node_df, centers, threshold, weight_col)
    keep = set(reach)
    fn = semi_filter(nodes, keep, "node_id")
    fe = semi_filter(semi_filter(edges, keep, "src"), keep, "dst")
    return fn, fe


# ------------------------------------------------------------------ hulls

def convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew monotone chain; returns hull ring (flat coords, CCW)."""
    pts = np.unique(np.asarray(points, np.float64).reshape(-1, 2), axis=0)
    if len(pts) <= 2:
        return pts.reshape(-1)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def half(iterable):
        h = []
        for p in iterable:
            while len(h) >= 2 and np.cross(h[-1] - h[-2], p - h[-2]) <= 0:
                h.pop()
            h.append(p)
        return h

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1]).reshape(-1)


def alpha_shape_edges(points: np.ndarray, alpha: float) -> np.ndarray:
    """Boundary edges of the alpha complex: Delaunay triangles with
    circumradius ≤ 1/alpha; boundary = edges used by exactly one kept
    triangle.  Returns (m, 2) vertex-index pairs."""
    pts = np.asarray(points, np.float64).reshape(-1, 2)
    d = Delaunator(pts)
    tri = d.triangles.reshape(-1, 3)
    if len(tri) == 0:
        return np.empty((0, 2), np.int64)
    keep = []
    r_max2 = (1.0 / alpha) ** 2
    for a, b, c in tri:
        r2 = _circumradius2(pts[a, 0], pts[a, 1], pts[b, 0], pts[b, 1],
                            pts[c, 0], pts[c, 1])
        if r2 <= r_max2:
            keep.append((a, b, c))
    if not keep:
        return np.empty((0, 2), np.int64)
    kt = np.array(keep)
    e = np.concatenate([kt[:, [0, 1]], kt[:, [1, 2]], kt[:, [2, 0]]])
    e.sort(axis=1)
    uniq, counts = np.unique(e, axis=0, return_counts=True)
    return uniq[counts == 1]


def create_isochrone(reach_nodes: pd.DataFrame, method: str = "convex",
                     alpha: float | None = None) -> dict:
    """Isochrone geometry over the reachable node set (small result,
    driver-side like the reference).  Returns {'method', 'rings'}:
    convex → one hull ring; alpha → boundary edge segments of the
    alpha complex (per-component polygons are the caller's concern,
    matching the reference's per-component output)."""
    pts = reach_nodes[["x", "y"]].to_numpy()
    if method == "convex":
        return {"method": "convex", "rings": [convex_hull(pts)]}
    if method == "alpha":
        if alpha is None:
            # reference auto-alpha: inverse of ~2× mean nearest spacing
            n = max(len(pts), 2)
            area = max(pts[:, 0].ptp() * pts[:, 1].ptp(), 1e-9)
            alpha = 1.0 / (2.0 * np.sqrt(area / n))
        e = alpha_shape_edges(pts, alpha)
        rings = [np.array([pts[a], pts[b]]).reshape(-1) for a, b in e]
        return {"method": "alpha", "rings": rings}
    if method == "buffer":
        from city2graph_ray.geom.hulls import raster_buffer_rings
        n = max(len(pts), 2)
        area = max(pts[:, 0].ptp() * pts[:, 1].ptp(), 1e-9)
        radius = 2.0 * np.sqrt(area / n)  # ~2× mean spacing
        return {"method": "buffer",
                "rings": raster_buffer_rings(pts, radius)}
    if method == "concave-knn":
        from city2graph_ray.geom.hulls import concave_hull_knn
        return {"method": "concave-knn",
                "rings": [concave_hull_knn(pts)]}
    raise ValueError(f"unknown isochrone method {method!r} "
                     "(convex | alpha | buffer | concave-knn)")


def isochrone_layers(edges: pd.DataFrame, nodes: pd.DataFrame,
                     centers: list[tuple[float, float]],
                     thresholds: list[float], method: str = "convex",
                     weight_col: str = "length") -> list[dict]:
    """Multi-threshold layering (largest threshold first, reference
    :162-2082): one reachability field per threshold, hull per layer."""
    out = []
    for t in sorted(thresholds, reverse=True):
        reach = reachable_nodes(edges, nodes, centers, t, weight_col)
        sub = nodes[nodes["node_id"].isin(reach)]
        iso = create_isochrone(sub, method)
        iso["threshold"] = t
        iso["n_nodes"] = len(sub)
        out.append(iso)
    return out


def idw_interpolate(queries: ray.data.Dataset, sources: ray.data.Dataset,
                    k: int = 4, value_col: str = "v", id_col: str = "id",
                    round_to: int = 6,
                    num_buckets: int = 64) -> ray.data.Dataset:
    """Inverse-distance-weighted interpolation: each query point gets
    the weighted mean of its ``k`` nearest sources' values with the
    MODIFIED kernel ``w = 1 / (1 + d²)`` (no singularity at d = 0, the
    standard regularized IDW variant).  Output ``(id, idw)`` rounded
    to ``round_to`` — the repo's documented tolerance absorbing float
    summation-order noise, exactly like the SQL twin's
    ``round(sum(v·w)/sum(w), 6)``.

    Scale shape: neighbor search is the tiled halo-exchange
    :func:`knn_graph` (no all-pairs); source values re-attach to the
    EDGE stream via one bucketed hash join; the weighted partial sums
    merge through a keyed group_agg — nothing materializes beyond the
    k·|queries| edge stream."""
    import pandas as pd

    from city2graph_ray.joins import bucketed_join
    from city2graph_ray.ops.proximity import knn_graph
    from city2graph_ray import shuffle

    edges = knn_graph(queries, k, targets=sources)

    def vals(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"dst": b[id_col].to_numpy(np.int64),
                             "__v": b[value_col].to_numpy(np.float64)})

    j = bucketed_join(edges, sources.map_batches(vals,
                                                 batch_format="pandas"),
                      on="dst", num_buckets=num_buckets)

    def weigh(b: pd.DataFrame) -> pd.DataFrame:
        d = b["distance"].to_numpy(np.float64)
        w = 1.0 / (1.0 + d * d)
        return pd.DataFrame({"src": b["src"].to_numpy(np.int64),
                             "wv": b["__v"].to_numpy(np.float64) * w,
                             "w": w})

    agg = shuffle.group_agg(j.map_batches(weigh, batch_format="pandas"),
                            ["src"], {"swv": ("wv", "sum"),
                                      "sw": ("w", "sum")},
                            num_buckets=num_buckets)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "id": b["src"].to_numpy(np.int64),
            "idw": np.round(b["swv"].to_numpy(np.float64)
                            / b["sw"].to_numpy(np.float64), round_to)})

    return agg.map_batches(finish, batch_format="pandas")


def ripley_k(points: ray.data.Dataset, radii, area: float,
             num_buckets: int = 16) -> ray.data.Dataset:
    """Ripley's K function — the standard point-pattern clustering
    statistic (K̂(r) = A·Σᵢ Σⱼ≠ᵢ 1[dᵢⱼ ≤ r] / (n(n-1)), no edge
    correction): one cell-bucketed pair generation at max(radii) via
    :func:`~city2graph_ray.ops.proximity.fixed_radius_graph` (the
    engine's one spatial shuffle), then per-block partial counts per
    threshold and a tiny keyed sum — the pair table never collects.

    Distances are the shared ``sqrt(dx·dx + dy·dy)`` doubles, so the
    ``d ≤ r`` cuts match the SQL twin bit-for-bit; K̂ is one
    fixed-order float expression (``area·(2·n_pairs) / (n·(n-1))``).

    Output: one row per radius (r, n_pairs, khat) with n_pairs the
    unordered pair count."""
    from city2graph_ray import shuffle
    from city2graph_ray.ops.proximity import fixed_radius_graph

    radii_arr = np.asarray(sorted(radii), np.float64)
    rmax = float(radii_arr[-1])
    pairs = fixed_radius_graph(points, rmax)
    n = points.count()

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        d = b["distance"].to_numpy()
        return pd.DataFrame({
            "r": radii_arr,
            "n_pairs": np.asarray([(d <= r).sum() for r in radii_arr],
                                  np.int64)})

    agg = shuffle.group_agg(
        pairs.map_batches(partial, batch_format="pandas"),
        ["r"], {"n_pairs": ("n_pairs", "sum")}, num_buckets=num_buckets)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        np_ = b["n_pairs"].to_numpy(np.int64)
        khat = area * (2 * np_) / (n * (n - 1.0))
        return pd.DataFrame({"r": b["r"].to_numpy(np.float64),
                             "n_pairs": np_, "khat": khat})

    return agg.map_batches(finish, batch_format="pandas")


def dbscan(points: ray.data.Dataset, eps: float, min_pts: int,
           num_buckets: int = 32) -> ray.data.Dataset:
    """Distributed DBSCAN (Ester et al., KDD'96 — public algorithm),
    deterministic variant: a border point attaches to the MINIMUM
    cluster id among its core neighbors (the textbook algorithm is
    scan-order-dependent there; min-id is the canonical deterministic
    choice and is what the SQL twin computes).

    Shape for scale: ONE cell-bucketed pair shuffle at ``eps``
    (:func:`~city2graph_ray.ops.proximity.fixed_radius_graph` — the
    engine's standard spatial exchange), pinned once and reused for
    (a) the neighbor-degree count, (b) the core-core edge set, (c) the
    border attachment.  Core components come from
    :func:`~city2graph_ray.ops.topology.connected_components` (driver
    union-find when it fits the driver budget, large-star/small-star
    rounds otherwise — no label broadcast either way); every join is
    node-sized and bucketed.  Cluster id = min core-point id of the component.

    A point is core iff |N_eps(p)| ≥ ``min_pts`` counting itself
    (requires ``min_pts ≥ 2``; with 1 every point is trivially core).

    Output: one row per input point (id, cluster, is_core) with
    cluster = -1 for noise.
    """
    from city2graph_ray import shuffle
    from city2graph_ray.joins import bucketed_join
    from city2graph_ray.ops.proximity import fixed_radius_graph
    from city2graph_ray.ops.topology import connected_components

    if min_pts < 2:
        raise ValueError("min_pts must be >= 2")

    pairs = fixed_radius_graph(points, eps) \
        .map_batches(lambda b: b[["src", "dst"]], batch_format="pandas") \
        .materialize()

    def halves(b: pd.DataFrame) -> pd.DataFrame:
        s = b["src"].to_numpy(np.int64)
        d = b["dst"].to_numpy(np.int64)
        return pd.DataFrame({"id": np.concatenate([s, d]),
                             "nbr": np.concatenate([d, s])})

    half = pairs.map_batches(halves, batch_format="pandas")
    deg = shuffle.group_agg(half, ["id"], {"d": ("nbr", "size")},
                            num_buckets=num_buckets)

    core = deg.map_batches(
        lambda b: b.loc[b["d"].to_numpy(np.int64) + 1 >= min_pts, ["id"]],
        batch_format="pandas").materialize()

    # core-core edges -> components; isolated cores keep their own id
    ce = bucketed_join(
        pairs,
        core.map_batches(lambda b: b.rename(columns={"id": "src"}),
                         batch_format="pandas"),
        on="src", num_buckets=num_buckets,
        left_schema=pa.schema([("src", pa.int64()), ("dst", pa.int64())]),
        right_schema=pa.schema([("src", pa.int64())]))
    ce = bucketed_join(
        ce,
        core.map_batches(lambda b: b.rename(columns={"id": "dst"}),
                         batch_format="pandas"),
        on="dst", num_buckets=num_buckets,
        left_schema=pa.schema([("src", pa.int64()), ("dst", pa.int64())]),
        right_schema=pa.schema([("dst", pa.int64())]))
    comp = connected_components(ce)

    corelab = bucketed_join(
        core,
        comp.map_batches(lambda b: b.rename(columns={"node_id": "id"}),
                         batch_format="pandas"),
        on="id", how="left", num_buckets=num_buckets,
        left_schema=pa.schema([("id", pa.int64())]),
        right_schema=pa.schema([("id", pa.int64()),
                                ("component", pa.int64())]))

    def label_core(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["id"].to_numpy(np.int64)
        c = b["component"].to_numpy(np.float64)  # NaN for isolated cores
        lab = np.where(np.isnan(c), ids, c).astype(np.int64)
        return pd.DataFrame({"id": ids, "cluster": lab})

    corelab = corelab.map_batches(label_core,
                                  batch_format="pandas").materialize()

    # border candidates: any point with a core neighbor takes the min
    # core-neighbor cluster (cores get overridden by their own label)
    att = bucketed_join(
        half,
        corelab.map_batches(
            lambda b: b.rename(columns={"id": "nbr",
                                        "cluster": "nbr_cluster"}),
            batch_format="pandas"),
        on="nbr", num_buckets=num_buckets,
        left_schema=pa.schema([("id", pa.int64()), ("nbr", pa.int64())]),
        right_schema=pa.schema([("nbr", pa.int64()),
                                ("nbr_cluster", pa.int64())]))

    # one grouped union pass assembles the final labels: priority 0 =
    # own core label, 1 = min core-neighbor label (border), 2 = noise
    def tag(pri: int, lab_col: str | None):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            ids = b["id"].to_numpy(np.int64)
            lab = (b[lab_col].to_numpy(np.int64) if lab_col
                   else np.full(len(ids), -1, np.int64))
            return pd.DataFrame({"id": ids, "lab": lab,
                                 "pri": np.full(len(ids), pri, np.int8)})
        return fn

    stacked = corelab.map_batches(tag(0, "cluster"),
                                  batch_format="pandas") \
        .union(att.map_batches(tag(1, "nbr_cluster"),
                               batch_format="pandas")) \
        .union(points.map_batches(tag(2, None), batch_format="pandas"))

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["id", "pri", "lab"], kind="mergesort")
        first = g.drop_duplicates("id", keep="first")
        return pd.DataFrame({
            "id": first["id"].to_numpy(np.int64),
            "cluster": first["lab"].to_numpy(np.int64),
            "is_core": (first["pri"].to_numpy(np.int8) == 0)
            .astype(np.int64)})

    return shuffle.grouped_transform(stacked, ["id"], resolve,
                                     num_buckets=num_buckets)


def hausdorff_zones(points: ray.data.Dataset, zone_col: str = "zone",
                    x: str = "x", y: str = "y",
                    num_buckets: int = shuffle.DEFAULT_BUCKETS,
                    chunk: int = 4096) -> ray.data.Dataset:
    """Directed Hausdorff distance between every ordered pair of point
    zones: ``h(A→B) = max_{a∈A} min_{b∈B} d²(a, b)`` — the classic
    shape-dissimilarity measure, here in exact SQUARED integer
    distance (coords must be int64; take sqrt downstream if needed).
    Output ``(za, zb, h_sq)`` for all za ≠ zb with both zones
    non-empty.

    Distributed shape: every point is replicated once per OTHER zone,
    keyed by the target zone — a deliberate ``n·(z−1)`` fan-out, so
    this operator assumes a SMALL zone cardinality (admin regions,
    clusters; not per-user groups).  Each target-zone bucket then
    computes min-over-B per foreign point with a chunked vectorized
    distance matrix, and one keyed max finishes.  The zone list is a
    tiny driver-side unique (z rows).
    """
    pts = points.map_batches(
        lambda b: pd.DataFrame({
            "z": b[zone_col].to_numpy(np.int64),
            "cx": b[x].to_numpy(np.int64),
            "cy": b[y].to_numpy(np.int64)}),
        batch_format="pandas").materialize()
    zcat = np.sort(np.fromiter(pts.unique("z"), dtype=np.int64))
    nz = len(zcat)
    if nz < 2:
        raise ValueError("hausdorff_zones needs >= 2 zones")

    def replicate(b: pd.DataFrame) -> pd.DataFrame:
        z = b["z"].to_numpy(np.int64)
        cx = b["cx"].to_numpy(np.int64)
        cy = b["cy"].to_numpy(np.int64)
        m = len(b)
        # foreign copies: one per other zone, keyed by target
        tgt = np.tile(zcat, m)
        src = np.repeat(z, nz)
        keep = tgt != src
        return pd.DataFrame({
            "tz": np.concatenate([tgt[keep], z]),
            "za": np.concatenate([src[keep], np.full(m, -1, np.int64)]),
            "cx": np.concatenate([np.repeat(cx, nz)[keep], cx]),
            "cy": np.concatenate([np.repeat(cy, nz)[keep], cy])})

    rep = pts.map_batches(replicate, batch_format="pandas")

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for tz, grp in g.groupby("tz", sort=False):
            za = grp["za"].to_numpy(np.int64)
            home = za == -1
            bx = grp["cx"].to_numpy(np.int64)[home]
            by = grp["cy"].to_numpy(np.int64)[home]
            ax = grp["cx"].to_numpy(np.int64)[~home]
            ay = grp["cy"].to_numpy(np.int64)[~home]
            az = za[~home]
            if len(bx) == 0 or len(ax) == 0:
                continue
            md = np.empty(len(ax), np.int64)
            for s in range(0, len(ax), chunk):
                e = min(s + chunk, len(ax))
                dx = ax[s:e, None] - bx[None, :]
                dy = ay[s:e, None] - by[None, :]
                md[s:e] = (dx * dx + dy * dy).min(axis=1)
            out.append(pd.DataFrame({"za": az,
                                     "zb": np.full(len(az), tz, np.int64),
                                     "d": md}))
        if not out:
            return pd.DataFrame({"za": np.array([], np.int64),
                                 "zb": np.array([], np.int64),
                                 "d": np.array([], np.int64)})
        return pd.concat(out, ignore_index=True)

    mins = shuffle.grouped_transform(rep, ["tz"], kernel,
                                     num_buckets=num_buckets)
    return shuffle.group_agg(mins, ["za", "zb"], {"h_sq": ("d", "max")},
                             num_buckets=num_buckets)


def _hull_pts_int(px: np.ndarray, py: np.ndarray,
                  edges: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Andrew monotone chain over INTEGER coords (exact int64 cross
    products, strict turns — collinear boundary points excluded).
    Returns hull vertices in CCW order starting from the
    lexicographic minimum.  Degenerate inputs (all points collinear,
    or <3 distinct) return the ≤2 lexicographic extremes — the correct
    PARTIAL hull for the combiner property
    ``hull(A ∪ B) = hull(hullpts(A) ∪ hullpts(B))``.  With
    ``edges=True`` degenerate inputs instead return empty (no polygon
    boundary exists)."""
    pts = np.unique(np.stack([np.asarray(px, np.int64),
                              np.asarray(py, np.int64)], axis=1), axis=0)
    n = len(pts)
    if n <= 2:
        if edges:
            return (np.array([], np.int64),) * 2
        return pts[:, 0], pts[:, 1]

    def half(seq):
        h: list[np.ndarray] = []
        for p in seq:
            while len(h) >= 2 and (
                    (h[-1][0] - h[-2][0]) * (p[1] - h[-2][1])
                    - (h[-1][1] - h[-2][1]) * (p[0] - h[-2][0])) <= 0:
                h.pop()
            h.append(p)
        return h

    lower = half(pts)
    upper = half(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        if edges:
            return (np.array([], np.int64),) * 2
        ext = np.stack([pts[0], pts[-1]])
        return ext[:, 0], ext[:, 1]
    arr = np.stack(hull)
    return arr[:, 0], arr[:, 1]


def convex_hull_zones(points: ray.data.Dataset, zone_col: str = "zone",
                      x: str = "x", y: str = "y",
                      num_buckets: int = shuffle.DEFAULT_BUCKETS,
                      ) -> ray.data.Dataset:
    """Per-zone planar convex hull as CCW directed boundary edges
    (zone, ax, ay, bx, by) — the distributed form of the reference's
    per-geometry ``convex_hull`` (isochrone convex method,
    utils/spatial.py).  Coordinates must be integer-valued: every turn
    test is an exact int64 cross product, so the edge set is
    bit-deterministic and SQL-twinnable by the all-points-left
    characterisation.

    Scale shape: the hull is a COMBINER-friendly aggregate —
    ``hull(A ∪ B) = hull(hullpts(A) ∪ hullpts(B))`` — so stage 1
    reduces every (block, zone) to its partial hull vertices inside
    ``map_batches`` (no shuffle, output O(hull) per zone per block,
    degenerate blocks keep their ≤2 extremes), and only those survivors
    take the single zone-bucketed shuffle into the final monotone
    chain.  Zones with <3 distinct points or all-collinear points emit
    no edges (no polygon boundary).  Collinear points ON a hull edge
    are not vertices (strict turns), matching the SQL twin's
    ``strictly-left OR collinear-between`` predicate.
    """
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for z, g in b.groupby(zone_col, sort=False):
            hx, hy = _hull_pts_int(g[x].to_numpy(np.int64),
                                   g[y].to_numpy(np.int64))
            outs.append(pd.DataFrame({zone_col: z, "hx": hx, "hy": hy}))
        if not outs:
            return pd.DataFrame({zone_col: pd.Series([], dtype=np.int64),
                                 "hx": pd.Series([], dtype=np.int64),
                                 "hy": pd.Series([], dtype=np.int64)})
        return pd.concat(outs, ignore_index=True)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for z, gg in g.groupby(zone_col, sort=False):
            hx, hy = _hull_pts_int(gg["hx"].to_numpy(np.int64),
                                   gg["hy"].to_numpy(np.int64),
                                   edges=True)
            if not len(hx):
                continue
            outs.append(pd.DataFrame({
                zone_col: z,
                "ax": hx, "ay": hy,
                "bx": np.roll(hx, -1), "by": np.roll(hy, -1)}))
        if not outs:
            return pd.DataFrame({zone_col: pd.Series([], dtype=np.int64),
                                 "ax": pd.Series([], dtype=np.int64),
                                 "ay": pd.Series([], dtype=np.int64),
                                 "bx": pd.Series([], dtype=np.int64),
                                 "by": pd.Series([], dtype=np.int64)})
        return pd.concat(outs, ignore_index=True)

    partials = points.map_batches(partial, batch_format="pandas")
    return shuffle.grouped_transform(partials, [zone_col], final,
                                     num_buckets=num_buckets)


def snap_to_segments(points: ray.data.Dataset,
                     segments: ray.data.Dataset, radius: float,
                     cell_size: float | None = None,
                     id_col: str = "id",
                     num_buckets: int = shuffle.DEFAULT_BUCKETS,
                     ) -> ray.data.Dataset:
    """Snap each point to its nearest segment within ``radius`` — the
    map-matching primitive (GPS ping → street edge; reference's
    nearest-segment assignment in the morphological place→movement
    join, morphology.py).  Points carry integer coords (id, x, y);
    segments carry (seg_id, ax, ay, bx, by), also integer.

    Exactness: the squared point→segment distance is the RATIONAL
    ``(d2_num, d2_den)`` with ``d2_den = |b−a|²`` (projection clamped
    to the segment by integer comparisons), all int64 — coords must
    stay within ±~2^14 units per tile so ``|p−a|²·|b−a|²`` can't
    overflow (re-origin bigger worlds per tile).  The radius gate is
    the exact cross-multiplication ``d2_num ≤ r²·d2_den``; ONLY the
    final per-point ordering key is a float (``d2_num/d2_den``, one
    division → identical doubles in SQL), tie-broken by seg_id.  The
    snapped coordinate is the mirrored float expression
    ``a + (t_num/den)·(b−a)``.

    Scale shape: each segment replicates to the grid cells covering
    its radius-expanded bbox (segments are street-scale: a few cells);
    each point lands in exactly ONE cell, so candidate pairs are
    emitted once and need no dedup.  One cell-bucketed shuffle, a
    vectorized per-cell merge kernel, then a per-point top-1 merge.
    Output (id, seg_id, d2_num, d2_den, snap_x, snap_y).
    """
    if cell_size is None:
        cell_size = 4.0 * radius
    r2 = np.int64(round(radius * radius))

    def seg_cells(b: pd.DataFrame) -> pd.DataFrame:
        ax = b["ax"].to_numpy(np.int64)
        ay = b["ay"].to_numpy(np.int64)
        bx = b["bx"].to_numpy(np.int64)
        by = b["by"].to_numpy(np.int64)
        idx, cell = cells.covering_cells(
            np.minimum(ax, bx) - radius, np.minimum(ay, by) - radius,
            np.maximum(ax, bx) + radius, np.maximum(ay, by) + radius,
            cell_size)
        return pd.DataFrame({
            "cell": cell, "side": np.zeros(len(idx), np.int8),
            "seg_id": b["seg_id"].to_numpy(np.int64)[idx],
            "ax": ax[idx], "ay": ay[idx], "bx": bx[idx], "by": by[idx],
            "px": np.zeros(len(idx), np.int64),
            "py": np.zeros(len(idx), np.int64),
            "pid": np.zeros(len(idx), np.int64)})

    def pt_cells(b: pd.DataFrame) -> pd.DataFrame:
        px = b["x"].to_numpy(np.int64)
        py = b["y"].to_numpy(np.int64)
        z = np.zeros(len(b), np.int64)
        return pd.DataFrame({
            "cell": cells.cell_id(px.astype(np.float64),
                                  py.astype(np.float64), cell_size),
            "side": np.ones(len(b), np.int8),
            "seg_id": z, "ax": z, "ay": z, "bx": z, "by": z,
            "px": px, "py": py,
            "pid": b[id_col].to_numpy(np.int64)})

    tagged = segments.map_batches(seg_cells, batch_format="pandas").union(
        points.map_batches(pt_cells, batch_format="pandas"))

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "pid": pd.Series([], dtype=np.int64),
            "seg_id": pd.Series([], dtype=np.int64),
            "d2_num": pd.Series([], dtype=np.int64),
            "d2_den": pd.Series([], dtype=np.int64),
            "dkey": pd.Series([], dtype=np.float64),
            "snap_x": pd.Series([], dtype=np.float64),
            "snap_y": pd.Series([], dtype=np.float64)})
        sidev = g["side"].to_numpy(np.int8)
        segs = g.loc[sidev == 0, ["cell", "seg_id", "ax", "ay",
                                  "bx", "by"]]
        pts = g.loc[sidev == 1, ["cell", "pid", "px", "py"]]
        if segs.empty or pts.empty:
            return empty
        m = pts.merge(segs, on="cell")
        if m.empty:
            return empty
        ax = m["ax"].to_numpy(np.int64)
        ay = m["ay"].to_numpy(np.int64)
        dx = m["bx"].to_numpy(np.int64) - ax
        dy = m["by"].to_numpy(np.int64) - ay
        ex = m["px"].to_numpy(np.int64) - ax
        ey = m["py"].to_numpy(np.int64) - ay
        ll = dx * dx + dy * dy
        tn = ex * dx + ey * dy
        e2 = ex * ex + ey * ey
        fx = m["px"].to_numpy(np.int64) - m["bx"].to_numpy(np.int64)
        fy = m["py"].to_numpy(np.int64) - m["by"].to_numpy(np.int64)
        f2 = fx * fx + fy * fy
        mid = (tn > 0) & (tn < ll)
        num = np.where(mid, e2 * ll - tn * tn,
                       np.where(tn <= 0, e2, f2))
        den = np.where(mid, ll, 1)
        tfrac = np.where(mid & (ll > 0),
                         tn.astype(np.float64)
                         / np.maximum(ll, 1).astype(np.float64),
                         np.where(tn <= 0, 0.0, 1.0))
        keep = num <= r2 * den
        if not keep.any():
            return empty
        return pd.DataFrame({
            "pid": m["pid"].to_numpy(np.int64)[keep],
            "seg_id": m["seg_id"].to_numpy(np.int64)[keep],
            "d2_num": num[keep], "d2_den": den[keep],
            "dkey": (num[keep].astype(np.float64)
                     / den[keep].astype(np.float64)),
            "snap_x": (ax[keep] + tfrac[keep] * dx[keep]),
            "snap_y": (ay[keep] + tfrac[keep] * dy[keep])})

    cand = shuffle.grouped_transform(tagged, ["cell"], kernel,
                                     num_buckets=num_buckets)
    best = shuffle.topk_in_group(cand, ["pid"], 1, ["dkey", "seg_id"],
                                 [True, True], num_buckets=num_buckets)
    return best.map_batches(
        lambda b: b.rename(columns={"pid": id_col})[
            [id_col, "seg_id", "d2_num", "d2_den", "snap_x", "snap_y"]],
        batch_format="pandas")


def hull_area_zones(points: ray.data.Dataset, zone_col: str = "zone",
                    x: str = "x", y: str = "y",
                    num_buckets: int = shuffle.DEFAULT_BUCKETS,
                    ) -> ray.data.Dataset:
    """Per-zone convex-hull area: the shoelace sum over the CCW hull
    edge set of :func:`convex_hull_zones` —
    ``2A = Σ_edges (ax·by − bx·ay)``, an exact int64 (positive for
    CCW), with one mirrored ``/2.0`` for the float.  Output
    (zone, n_vertices, area2, area).  Degenerate zones (no hull
    polygon) emit nothing, matching the edge op."""
    edges = convex_hull_zones(points, zone_col=zone_col, x=x, y=y,
                              num_buckets=num_buckets)

    def cross(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            zone_col: b[zone_col].to_numpy(np.int64),
            "cr": b["ax"].to_numpy(np.int64) * b["by"].to_numpy(np.int64)
            - b["bx"].to_numpy(np.int64) * b["ay"].to_numpy(np.int64)})

    agg = shuffle.group_agg(
        edges.map_batches(cross, batch_format="pandas"),
        [zone_col], {"area2": ("cr", "sum"), "n_vertices": ("cr", "size")},
        num_buckets=num_buckets)
    return agg.map_batches(
        lambda b: pd.DataFrame({
            zone_col: b[zone_col].to_numpy(np.int64),
            "n_vertices": b["n_vertices"].to_numpy(np.int64),
            "area2": b["area2"].to_numpy(np.int64),
            "area": b["area2"].to_numpy(np.float64) / 2.0}),
        batch_format="pandas")


def semivariogram(points: ray.data.Dataset, radius: float,
                  band_edges_sq: "list[int]",
                  num_buckets: int = shuffle.DEFAULT_BUCKETS,
                  ) -> ray.data.Dataset:
    """Empirical semivariogram raw moments (Matheron 1963, public
    geostatistics literature): for every unordered point pair within
    ``radius``, bin by squared-distance band and emit per band the
    pair count and the integer sum of squared value differences —
    ``γ̂(band) = sum_sqdiff / (2·n_pairs)`` is the client-side float.

    ``points``: (id, x, y, v) with int64 values — the value-side sums
    are all int64, so the brute-force SQL twin (CASE over the same
    squared thresholds) is bit-exact.  ``band_edges_sq`` are
    the INNER squared band boundaries (upper boundary is radius²);
    band b = #edges ≤ d², with d² the same IEEE float expression in
    both engines (the values-side sums stay int64).

    Scale shape: the pair generation is the one cell-bucketed shuffle
    of :func:`fixed_radius_graph` (halo = radius); values are attached
    by two bucketed hash joins on the endpoint id (the scale-honest
    path — at 10^9 points the value column cannot be recomputed from
    the id); the band reduction is a per-block partial + a ≤10-row
    keyed sum.
    """
    from city2graph_ray.joins import bucketed_join
    from city2graph_ray.ops.proximity import fixed_radius_graph

    attrs = points.map_batches(
        lambda b: b[["id", "x", "y", "v"]], batch_format="pandas"
    ).materialize()
    pairs = fixed_radius_graph(
        attrs.map_batches(lambda b: b[["id", "x", "y"]],
                          batch_format="pandas"),
        radius)

    i64 = pa.int64()
    f64 = pa.float64()
    pair_schema = pa.schema([("src", i64), ("dst", i64),
                             ("distance", f64)])
    attr_s = pa.schema([("src", i64), ("sx", f64), ("sy", f64),
                        ("sv", i64)])
    attr_d = pa.schema([("dst", i64), ("dx", f64), ("dy", f64),
                        ("dv", i64)])

    def as_src(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"src": b["id"].to_numpy(np.int64),
                             "sx": b["x"].to_numpy(np.float64),
                             "sy": b["y"].to_numpy(np.float64),
                             "sv": b["v"].to_numpy(np.int64)})

    def as_dst(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"dst": b["id"].to_numpy(np.int64),
                             "dx": b["x"].to_numpy(np.float64),
                             "dy": b["y"].to_numpy(np.float64),
                             "dv": b["v"].to_numpy(np.int64)})

    j1 = bucketed_join(
        pairs.map_batches(lambda b: b[["src", "dst"]],
                          batch_format="pandas"),
        attrs.map_batches(as_src, batch_format="pandas"),
        on="src", num_buckets=num_buckets,
        left_schema=pa.schema([("src", i64), ("dst", i64)]),
        right_schema=attr_s)
    j2 = bucketed_join(
        j1, attrs.map_batches(as_dst, batch_format="pandas"),
        on="dst", num_buckets=num_buckets,
        left_schema=pa.schema([("src", i64), ("dst", i64), ("sx", f64),
                               ("sy", f64), ("sv", i64)]),
        right_schema=attr_d)

    edges = np.asarray(sorted(band_edges_sq), np.float64)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        # same IEEE expression order as the SQL twin:
        # (a.x-b.x)*(a.x-b.x) + (a.y-b.y)*(a.y-b.y)
        ddx = b["sx"].to_numpy(np.float64) - b["dx"].to_numpy(np.float64)
        ddy = b["sy"].to_numpy(np.float64) - b["dy"].to_numpy(np.float64)
        d2 = ddx * ddx + ddy * ddy
        band = np.searchsorted(edges, d2, side="right").astype(np.int64)
        dv = b["sv"].to_numpy(np.int64) - b["dv"].to_numpy(np.int64)
        g = pd.DataFrame({"band": band, "sq": dv * dv}).groupby(
            "band", sort=False)
        agg = g.agg(n_pairs=("sq", "size"), sum_sqdiff=("sq", "sum"))
        return agg.reset_index()

    out = shuffle.group_agg(
        j2.map_batches(partial, batch_format="pandas"),
        ["band"], {"n_pairs": ("n_pairs", "sum"),
                   "sum_sqdiff": ("sum_sqdiff", "sum")}, num_buckets=1)
    return out.map_batches(
        lambda b: b.sort_values("band")[["band", "n_pairs",
                                         "sum_sqdiff"]],
        batch_format="pandas")


def clark_evans(points: ray.data.Dataset, area: float,
                scale: float = 100.0) -> ray.data.Dataset:
    """Clark–Evans nearest-neighbour index R = mean observed NN
    distance / expected CSR distance (0.5/√(n/A)) — the classic
    dispersion test (R < 1 clustered, ≈ 1 random, > 1 dispersed; no
    edge correction).

    Distributed shape: the NN distance per point rides the existing
    halo-escalation kNN shuffle (k = 1); each distance quantizes once
    to integer ``scale``-ths so the global sum is an exact int64 fold
    of per-block partials, and every float in the finish (mean,
    expected, ratio) is evaluated in ONE fixed order shared with the
    SQL twin.  Output: one row
    (n, sum_qdist, mean_nn, expected_nn, clark_evans)."""
    from city2graph_ray.ops.proximity import knn_graph

    nn = knn_graph(points, 1)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        q = np.floor(b["distance"].to_numpy(np.float64) * scale + 0.5
                     ).astype(np.int64)
        return pd.DataFrame({"n": [np.int64(len(q))],
                             "sq": [q.sum(dtype=np.int64)]})

    parts = nn.map_batches(partial, batch_format="pandas").to_pandas()
    n = int(parts["n"].sum())
    sq = int(parts["sq"].sum())
    if n == 0:
        return ray.data.from_pandas(pd.DataFrame({
            "n": pd.Series([], dtype=np.int64),
            "sum_qdist": pd.Series([], dtype=np.int64),
            "mean_nn": pd.Series([], dtype=np.float64),
            "expected_nn": pd.Series([], dtype=np.float64),
            "clark_evans": pd.Series([], dtype=np.float64)}))
    mean_u = (sq / scale) / n
    exp_u = 0.5 / np.sqrt(n / area)
    return ray.data.from_pandas(pd.DataFrame({
        "n": [np.int64(n)], "sum_qdist": [np.int64(sq)],
        "mean_nn": [np.round(mean_u, 6)],
        "expected_nn": [np.round(exp_u, 6)],
        "clark_evans": [np.round(mean_u / exp_u, 6)]}))


def knn_outlier_scores(points: ray.data.Dataset, k: int, top_n: int,
                       scale: float = 100.0) -> ray.data.Dataset:
    """Distance-to-k-th-nearest-neighbour outlier scores (Ramaswamy
    et al., SIGMOD 2000, public literature) — the classic exact
    distance-based anomaly screen: a point's score is its k-th NN
    distance; return the global top ``top_n`` most isolated points.

    Distributed shape: rides the halo-escalation kNN shuffle
    (:func:`~city2graph_ray.ops.proximity.knn_graph`), quantizes each
    edge distance ONCE to integer ``scale``-ths (floor(d·s+0.5) —
    monotone, so the per-point max over the k selected edges IS the
    quantized k-th order statistic), folds per-point maxima through a
    keyed int64 max, then a per-block partial top-``top_n`` bounds the
    final merge to blocks × top_n rows.  Ties at the cut break
    (qdist DESC, id ASC) — deterministic, shared with the SQL twin.
    Output ``(id, n_nbrs, qdist, score)``, score = round(qd/s, 6).
    """
    from city2graph_ray import shuffle
    from city2graph_ray.ops.proximity import knn_graph

    nn = knn_graph(points, k)

    def quant(b: pd.DataFrame) -> pd.DataFrame:
        qd = np.floor(b["distance"].to_numpy(np.float64) * scale
                      + 0.5).astype(np.int64)
        return pd.DataFrame({"id": b["src"].to_numpy(np.int64),
                             "qdist": qd,
                             "n_nbrs": np.ones(len(qd), np.int64)})

    kth = shuffle.group_agg(
        nn.map_batches(quant, batch_format="pandas"), ["id"],
        {"qdist": ("qdist", "max"), "n_nbrs": ("n_nbrs", "sum")})

    def local_top(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["qdist", "id"], ascending=[False, True],
                             kind="stable").head(top_n)

    cand = kth.map_batches(local_top, batch_format="pandas").to_pandas()
    if len(cand) == 0:
        z = np.array([], np.int64)
        return ray.data.from_pandas(pd.DataFrame({
            "id": z, "n_nbrs": z, "qdist": z,
            "score": np.array([], np.float64)}))
    out = (cand.sort_values(["qdist", "id"], ascending=[False, True],
                            kind="stable").head(top_n)
           .reset_index(drop=True))
    out["score"] = np.round(out["qdist"].to_numpy(np.float64) / scale, 6)
    return ray.data.from_pandas(out[["id", "n_nbrs", "qdist", "score"]])


def knox_test(pts: ray.data.Dataset, radius: float, tau: int,
              ) -> ray.data.Dataset:
    """Knox space–time interaction statistic (Knox 1964, public
    literature): of all point pairs, count those close in space
    (d ≤ radius), close in time (|Δt| ≤ tau), and close in BOTH; the
    interaction ratio compares observed space-time pairs with the
    independence expectation ``S·T / total``.

    Distributed shape: the space side rides the cell-bucketed
    fixed-radius pair shuffle; pair timestamps join back through TWO
    bucketed hash joins (no point-table broadcast); the time side is a
    1-D bucket scatter (home bucket + left halo copy) whose per-group
    kernel counts same-bucket pairs in closed form and cross-bucket
    pairs by vectorized searchsorted — counts only, pairs never
    materialize.  Exactness: all four counts are int64; the expected
    count and ratio are each ONE fixed-form divide:
    ``expected_st = round(double(S·T)/total, 6)``,
    ``ratio = round(double(ST·total)/(S·T), 6)`` (NaN-free: emitted
    only when S·T > 0, else 0).  Input columns ``(id, x, y, t)`` with
    int64 ``t`` seconds.  Output: ONE row
    ``(n, total_pairs, s_pairs, t_pairs, st_pairs, expected_st,
    ratio)``.
    """
    from city2graph_ray import shuffle
    from city2graph_ray.joins import bucketed_join
    from city2graph_ray.ops.proximity import fixed_radius_graph

    pts = pts.materialize()
    n = int(pts.count())
    if n < 2:
        z = np.array([], np.int64)
        return ray.data.from_pandas(pd.DataFrame({
            "n": z, "total_pairs": z, "s_pairs": z, "t_pairs": z,
            "st_pairs": z,
            "expected_st": np.array([], np.float64),
            "ratio": np.array([], np.float64)}))
    total = n * (n - 1) // 2

    # --- space side: radius pairs, then rejoin both endpoint times
    sp = fixed_radius_graph(pts.select_columns(["id", "x", "y"]),
                            radius)
    times = pts.select_columns(["id", "t"])
    import pyarrow as pa

    # a sparse field can legitimately yield ZERO radius pairs
    pair_schema = pa.schema([("src", pa.int64()), ("dst", pa.int64())])
    sp = bucketed_join(
        sp.map_batches(lambda b: b[["src", "dst"]],
                       batch_format="pandas"),
        times.map_batches(
            lambda b: b.rename(columns={"id": "src", "t": "t_src"}),
            batch_format="pandas"), on="src",
        left_schema=pair_schema)
    sp = bucketed_join(
        sp,
        times.map_batches(
            lambda b: b.rename(columns={"id": "dst", "t": "t_dst"}),
            batch_format="pandas"), on="dst",
        left_schema=pa.schema([("src", pa.int64()),
                               ("dst", pa.int64()),
                               ("t_src", pa.int64())]))

    def s_partial(b: pd.DataFrame) -> pd.DataFrame:
        dt = np.abs(b["t_src"].to_numpy(np.int64)
                    - b["t_dst"].to_numpy(np.int64))
        return pd.DataFrame({"s": [np.int64(len(b))],
                             "st": [np.int64((dt <= tau).sum())]})

    sdf = sp.map_batches(s_partial, batch_format="pandas").to_pandas()
    s_pairs = int(sdf["s"].sum()) if "s" in sdf.columns else 0
    st_pairs = int(sdf["st"].sum()) if "st" in sdf.columns else 0

    # --- time side: 1-D bucket scatter with a left halo copy
    def scatter(b: pd.DataFrame) -> pd.DataFrame:
        t = b["t"].to_numpy(np.int64)
        home = t // tau
        return pd.DataFrame({
            "g": np.concatenate([home, home - 1]),
            "t": np.concatenate([t, t]),
            "halo": np.concatenate([np.zeros(len(t), np.int64),
                                    np.ones(len(t), np.int64)])})

    scat = pts.select_columns(["t"]).map_batches(
        scatter, batch_format="pandas")

    def t_count(g: pd.DataFrame) -> pd.DataFrame:
        own = np.sort(g.loc[g["halo"] == 0, "t"].to_numpy(np.int64))
        nxt = np.sort(g.loc[g["halo"] == 1, "t"].to_numpy(np.int64))
        # same-bucket pairs: width-tau bucket => always |dt| < tau
        c = len(own) * (len(own) - 1) // 2
        if len(own) and len(nxt):
            # cross pairs (own bucket b, halo copies from bucket b+1):
            # count t' in own with t' >= t_next - tau
            lo = np.searchsorted(own, nxt - tau, side="left")
            c += int((len(own) - lo).sum())
        return pd.DataFrame({"c": [np.int64(c)]})

    tdf = shuffle.grouped_transform(
        scat, ["g"], lambda grp: grp.groupby("g", sort=False)
        .apply(t_count).reset_index(drop=True)).to_pandas()
    t_pairs = int(tdf["c"].sum()) if "c" in tdf.columns else 0

    stt = s_pairs * t_pairs
    expected = np.round(np.float64(stt) / np.float64(total), 6)
    ratio = (np.round(np.float64(st_pairs * total) / np.float64(stt), 6)
             if stt > 0 else np.float64(0.0))
    return ray.data.from_pandas(pd.DataFrame({
        "n": [np.int64(n)], "total_pairs": [np.int64(total)],
        "s_pairs": [np.int64(s_pairs)], "t_pairs": [np.int64(t_pairs)],
        "st_pairs": [np.int64(st_pairs)],
        "expected_st": [expected], "ratio": [ratio]}))


def areal_interpolation(rects: ray.data.Dataset, cell: int,
                        ) -> ray.data.Dataset:
    """Areal-weighted interpolation weights (Goodchild & Lam 1980,
    public literature) from axis-aligned integer source rectangles
    onto a regular target grid — the standard GIS re-zoning step
    (census blocks → raster, zones → tiles).

    Distributed shape: pure streaming ``map_batches`` — each rectangle
    scatters to the grid cells it overlaps (vectorized repeat over
    per-rect integer cell ranges; fan-out bounded by rect size /
    ``cell``, a data-model constant); the per-pair overlap is the
    closed-form min/max clip.  NO shuffle at all: the output is the
    (source, target) weight relation itself.  Exactness: corners,
    areas and overlaps are int64; the allocated value is ONE
    fixed-form divide per pair:
    ``alloc = round(double(value·overlap)/src_area, 6)``.
    Input columns ``(id, x0, y0, w, h, value)`` all int64 (w, h ≥ 1);
    output ``(src, gx, gy, overlap_area, src_area, alloc)``.
    """
    def explode(b: pd.DataFrame) -> pd.DataFrame:
        x0 = b["x0"].to_numpy(np.int64)
        y0 = b["y0"].to_numpy(np.int64)
        w = b["w"].to_numpy(np.int64)
        h = b["h"].to_numpy(np.int64)
        gx0, gx1 = x0 // cell, (x0 + w - 1) // cell
        gy0, gy1 = y0 // cell, (y0 + h - 1) // cell
        nx, ny = gx1 - gx0 + 1, gy1 - gy0 + 1
        reps = nx * ny
        idx = np.repeat(np.arange(len(b)), reps)
        # within-rect cell rank -> (gx, gy) offsets, y-major
        off = (np.arange(reps.sum(), dtype=np.int64)
               - np.repeat(np.concatenate(([0], reps.cumsum()[:-1])),
                           reps))
        gx = gx0[idx] + off // ny[idx]
        gy = gy0[idx] + off % ny[idx]
        ox = (np.minimum(x0[idx] + w[idx], (gx + 1) * cell)
              - np.maximum(x0[idx], gx * cell))
        oy = (np.minimum(y0[idx] + h[idx], (gy + 1) * cell)
              - np.maximum(y0[idx], gy * cell))
        overlap = ox * oy
        area = w[idx] * h[idx]
        val = b["value"].to_numpy(np.int64)[idx]
        return pd.DataFrame({
            "src": b["id"].to_numpy(np.int64)[idx],
            "gx": gx, "gy": gy, "overlap_area": overlap,
            "src_area": area,
            "alloc": np.round((val * overlap).astype(np.float64)
                              / area.astype(np.float64), 6)})

    return rects.map_batches(explode, batch_format="pandas")


def colocation_quotient(pts: ray.data.Dataset, k: int = 1,
                        num_buckets: int = 64) -> ray.data.Dataset:
    """Categorical colocation quotient (Leslie & Kronenfeld 2011,
    public literature) from the k=1 nearest-neighbour graph:
    ``CLQ(A→B) = (C_{A→B}/N_A) / (N_B/(N-1))`` — how over-represented
    category B is among A's nearest neighbours.  Input needs
    ``(id, x, y, cat)``; output one row per observed (cat_a, cat_b):
    ``(cat_a, cat_b, c_ab, n_a, n_b, clq)``.  Counts are exact int64
    reductions over the deterministic tie-broken kNN; the single CLQ
    division mirrors the SQL twin bit-exact.

    Scale shape: the kNN shuffle dominates (halo-escalated cell
    exchange); category attach is two bucketed hash joins keyed by
    point id; the (cat × cat) reduction and the category totals are
    tiny keyed sums."""
    from city2graph_ray import shuffle
    from city2graph_ray.joins import bucketed_join
    from city2graph_ray.ops.proximity import knn_graph

    nn = knn_graph(pts.map_batches(
        lambda b: b[["id", "x", "y"]], batch_format="pandas"), k)
    cats = pts.map_batches(
        lambda b: pd.DataFrame({"id": b["id"].to_numpy(np.int64),
                                "cat": b["cat"].to_numpy(np.int64)}),
        batch_format="pandas").materialize()
    a = bucketed_join(
        nn.map_batches(lambda b: pd.DataFrame(
            {"id": b["src"].to_numpy(np.int64),
             "dst": b["dst"].to_numpy(np.int64)}),
            batch_format="pandas"),
        cats, "id", num_buckets=num_buckets).map_batches(
        lambda b: pd.DataFrame({"id": b["dst"].to_numpy(np.int64),
                                "cat_a": b["cat"].to_numpy(np.int64)}),
        batch_format="pandas")
    ab = bucketed_join(a, cats, "id", num_buckets=num_buckets)
    pair_counts = shuffle.group_agg(
        ab.map_batches(lambda b: pd.DataFrame(
            {"cat_a": b["cat_a"].to_numpy(np.int64),
             "cat_b": b["cat"].to_numpy(np.int64),
             "c": np.ones(len(b), np.int64)}),
            batch_format="pandas"),
        ["cat_a", "cat_b"], {"c_ab": ("c", "sum")},
        num_buckets=8).to_pandas()
    totals = shuffle.group_agg(
        cats.map_batches(lambda b: pd.DataFrame(
            {"cat": b["cat"], "c": np.ones(len(b), np.int64)}),
            batch_format="pandas"),
        ["cat"], {"n": ("c", "sum")}, num_buckets=1).to_pandas()
    n_tot = int(totals["n"].sum())
    tmap = dict(zip(totals["cat"], totals["n"]))
    pair_counts["n_a"] = (pair_counts["cat_a"].map(tmap)
                          .astype(np.int64))
    pair_counts["n_b"] = (pair_counts["cat_b"].map(tmap)
                          .astype(np.int64))
    # C_{A→B} counts k neighbours per A point: N_A normalizer is k·N_A.
    # Same-category rows use (N_A - 1) in the expectation denominator
    # (a point cannot be its own neighbour) — Leslie & Kronenfeld's
    # CLQ definition (ADVICE r3); mirrored in the SQL twin.
    nb_eff = (pair_counts["n_b"].to_numpy(np.int64)
              - (pair_counts["cat_a"].to_numpy(np.int64)
                 == pair_counts["cat_b"].to_numpy(np.int64)))
    pair_counts["clq"] = np.round(
        (pair_counts["c_ab"].to_numpy(np.int64) * (n_tot - 1))
        / (k * pair_counts["n_a"].to_numpy(np.int64) * nb_eff), 6)
    out = pair_counts.sort_values(["cat_a", "cat_b"]).reset_index(
        drop=True)
    return ray.data.from_pandas(
        out[["cat_a", "cat_b", "c_ab", "n_a", "n_b", "clq"]])


def cross_k(points: ray.data.Dataset, radii, area: float, cat_of,
            cat_a: int = 0, cat_b: int = 1,
            num_buckets: int = 16) -> ray.data.Dataset:
    """Bivariate (cross-type) Ripley K — the standard test for
    attraction/repulsion BETWEEN two point categories:
    ``K̂_AB(r) = A · Σ_{i∈A} Σ_{j∈B} 1[d_ij ≤ r] / (n_A · n_B)`` (no
    edge correction).  ``cat_of`` is a vectorized ``ids → category``
    function (category embedded in the id — zero extra shuffles; use
    an id⋈category join upstream when it isn't).

    Same one-spatial-shuffle shape as :func:`ripley_k`: the unordered
    pair stream from
    :func:`~city2graph_ray.ops.proximity.fixed_radius_graph` at
    max(radii) is filtered to (A, B) pairs in EITHER orientation —
    each A–B pair counts exactly once — then per-block partial counts
    per threshold and a tiny keyed sum.  Output one row per radius
    ``(r, n_ab, khat_ab)`` with the fixed-order K̂ float."""
    from city2graph_ray import shuffle
    from city2graph_ray.ops.proximity import fixed_radius_graph

    radii_arr = np.asarray(sorted(radii), np.float64)
    rmax = float(radii_arr[-1])

    def count_cats(b: pd.DataFrame) -> pd.DataFrame:
        c = cat_of(b["id"].to_numpy(np.int64))
        return pd.DataFrame({"k": np.zeros(1, np.int64),
                             "n_a": [(c == cat_a).sum()],
                             "n_b": [(c == cat_b).sum()]})

    tot = shuffle.group_agg(
        points.map_batches(count_cats, batch_format="pandas"),
        ["k"], {"n_a": ("n_a", "sum"), "n_b": ("n_b", "sum")},
        num_buckets=1).to_pandas()
    n_a = int(tot["n_a"].iloc[0])
    n_b = int(tot["n_b"].iloc[0])
    pairs = fixed_radius_graph(points, rmax)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cs = cat_of(b["src"].to_numpy(np.int64))
        cd = cat_of(b["dst"].to_numpy(np.int64))
        ab = (((cs == cat_a) & (cd == cat_b))
              | ((cs == cat_b) & (cd == cat_a)))
        d = b["distance"].to_numpy()[ab]
        return pd.DataFrame({
            "r": radii_arr,
            "n_ab": np.asarray([(d <= r).sum() for r in radii_arr],
                               np.int64)})

    agg = shuffle.group_agg(
        pairs.map_batches(partial, batch_format="pandas"),
        ["r"], {"n_ab": ("n_ab", "sum")}, num_buckets=num_buckets)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        np_ = b["n_ab"].to_numpy(np.int64)
        khat = area * np_ / (n_a * float(n_b))
        return pd.DataFrame({"r": b["r"].to_numpy(np.float64),
                             "n_ab": np_, "khat_ab": khat})

    return agg.map_batches(finish, batch_format="pandas")
