"""Morphological-graph pipeline — the flagship composition.

Reference: /root/reference/city2graph/morphology.py:156-348
(morphological_graph), tessellation utils/spatial.py:2085-3024,
reachability field morphology.py:2916-3393, layer builders
morphology.py:891-1537.

Engine re-expression (SURVEY.md §3.1 "engine shape"):

1. barriers (street segments) → planar **enclosures** by face
   polygonization — barriers ≪ documents, computed in one task and
   broadcast (mirrors the reference computing momepy.enclosures once).
2. buildings hash-partitioned per enclosure (``exchange.keyed_exchange``)
   → **zonal tessellation**: the north star's raster↔vector form — each
   enclosure is rasterized at ``resolution`` and every raster cell is
   assigned to its nearest building seed (a discrete Voronoi /
   morphological tessellation); emits TILE ASSIGNMENTS
   (enclosure, cell, tess_id) + per-cell areas, with the reference's
   ``tess_id = f"{{enclosure_index}}_{{cell_index}}"`` format
   (utils/spatial.py:2822-2825).
3. place↔place edges: tessellation-cell contiguity = adjacent raster
   cells with different tess_id (same enclosure) — a shifted equi-join,
   one shuffle (reference place_to_place_graph morphology.py:891-1109).
4. movement↔movement: dual graph of the segment graph
   (morphology.py:1427-1537).
5. place→movement: nearest segment within a distance cap, cell-bucketed
   point↔segment candidate join + top-1 merge
   (morphology.py:1117-1419 dwithin + capped nearest fallback).
6. reachability: Dijkstra cost field from a center over the segment
   graph (driver task, network ≪ data), broadcast; segments kept when
   their cheaper endpoint cost ≤ distance (morphology.py:3306-3359).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data

from city2graph_ray import cells as cellmod
from city2graph_ray import shuffle
from city2graph_ray.budget import fits_driver
from city2graph_ray.exchange import concat, keyed_exchange
from city2graph_ray.geom.kernels import points_in_polygon
from city2graph_ray.joins import broadcast_map


# ------------------------------------------------------------------ enclosures

def polygonize_faces(segments: pd.DataFrame) -> list[np.ndarray]:
    """Planar faces of a noded segment arrangement (segments intersect
    only at shared endpoints — true for noded road networks; the
    reference gets the same guarantee from momepy/shapely polygonize).

    Half-edge walk: at each vertex, order incident edges by angle; the
    face to the left of each directed edge is traced by repeatedly
    taking the reverse edge's clockwise-next neighbor.  Returns interior
    faces (positive signed area) as flat coord rings.
    """
    # collect vertices (tracking the contributing segment id per edge
    # so faces can be mapped back to their barrier segments)
    pts: dict[tuple[float, float], int] = {}
    edges = []
    edge_seg: dict[tuple[int, int], int] = {}
    seg_ids = (segments["seg_id"].to_numpy() if "seg_id" in segments.columns
               else np.arange(len(segments)))
    for sid, c in zip(seg_ids, segments["coords"]):
        c = np.asarray(c, np.float64).reshape(-1, 2)
        for a, b in zip(c[:-1], c[1:]):
            ka, kb = (a[0], a[1]), (b[0], b[1])
            if ka == kb:
                continue
            for k in (ka, kb):
                if k not in pts:
                    pts[k] = len(pts)
            edges.append((pts[ka], pts[kb]))
            edge_seg.setdefault((pts[ka], pts[kb]), int(sid))
            edge_seg.setdefault((pts[kb], pts[ka]), int(sid))
    if not edges:
        return []
    coords = np.array(list(pts.keys()))  # dict preserves insertion order = id order

    # adjacency with angular sort
    nbrs: dict[int, list[int]] = {}
    eset = set()
    for a, b in edges:
        if (a, b) in eset or a == b:
            continue
        eset.add((a, b))
        eset.add((b, a))
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    ang = {}
    for v, ns in nbrs.items():
        ns_sorted = sorted(set(ns), key=lambda w: np.arctan2(
            coords[w][1] - coords[v][1], coords[w][0] - coords[v][0]))
        nbrs[v] = ns_sorted
        ang[v] = {w: i for i, w in enumerate(ns_sorted)}

    visited: set[tuple[int, int]] = set()
    faces = []
    for a, b in sorted(eset):
        if (a, b) in visited:
            continue
        ring = [a]
        face_segs: set[int] = set()
        u, v = a, b
        while True:
            visited.add((u, v))
            ring.append(v)
            if (u, v) in edge_seg:
                face_segs.add(edge_seg[(u, v)])
            # next half-edge: reverse (v,u), then previous in angular order
            idx = ang[v][u]
            w = nbrs[v][(idx - 1) % len(nbrs[v])]
            u, v = v, w
            if (u, v) == (a, b):
                break
            if len(ring) > 4 * len(eset):
                ring = None
                break
        if ring is None:
            continue
        ring = ring[:-1] if ring[0] == ring[-1] else ring
        rc = coords[ring]
        x, y = rc[:, 0], rc[:, 1]
        area2 = np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        if area2 > 1e-12:  # interior faces are CCW with this walk
            faces.append((rc.reshape(-1), sorted(face_segs)))
    return faces


def enclosures_from_barriers(barriers: pd.DataFrame) -> pd.DataFrame:
    """(enclosure_index, coords) for each interior face, indexed in
    deterministic order (sorted by (minx, miny, area), ties by the mean
    vertex: faces that share a corner and a bbox area, as the two
    triangles of a diagonal do)."""
    faces = polygonize_faces(barriers)
    if not faces:
        return pd.DataFrame({"enclosure_index": pd.Series(dtype=np.int64),
                             "coords": pd.Series(dtype=object),
                             "seg_ids": pd.Series(dtype=object)})
    keys = []
    for f, _ in faces:
        c = f.reshape(-1, 2)
        keys.append((c[:, 0].min(), c[:, 1].min(), c[:, 0].ptp() * c[:, 1].ptp(),
                     c[:, 0].mean(), c[:, 1].mean()))
    order = sorted(range(len(faces)), key=lambda i: keys[i])
    return pd.DataFrame({
        "enclosure_index": np.arange(len(faces), dtype=np.int64),
        "coords": [faces[i][0] for i in order],
        "seg_ids": [np.asarray(faces[i][1], dtype=np.int64) for i in order]})


def polygonize_faces_dataset(segments: ray.data.Dataset) -> ray.data.Dataset:
    """Distributed planar polygonization of a noded (seg_id, coords)
    barrier Dataset — the scale path behind :func:`compute_enclosures`
    (semantics of :func:`polygonize_faces`, re-expressed as shuffles so
    no single task ever holds the whole arrangement):

    1. explode polylines into directed half-edges (vectorized offsets);
    2. dense vertex ids (``dedup_coords_with_ids``) joined onto both
       endpoints (bucketed hash joins, edge id = ``aid<<32 | bid`` —
       valid to 2³¹ vertices, widen the key scheme past that);
    3. successor permutation per vertex: one grouped shuffle computing,
       for each incoming edge, the angularly-previous neighbor —
       whole-bucket lexsort, no per-vertex Python;
    4. faces = cycles of the successor permutation = connected
       components of (edge → successor) (``connected_components``);
    5. per-face signed area via the per-edge cross term (keyed sum);
       interior faces (area > 0) get their rings chained per face in a
       grouped kernel (per-face work ∝ ring length).

    Output: one row per interior face — (coords ring, seg_ids, minx,
    miny, extkey, mx, my).  Ring rotation (start vertex) is deterministic (min
    edge id) but differs from :func:`polygonize_faces`'s insertion
    order; all downstream consumers (PIP, areas, sort keys) are
    rotation-invariant."""
    from city2graph_ray.joins import bucketed_join
    from city2graph_ray.ops.topology import (connected_components,
                                             dedup_coords_with_ids)

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        coords = [np.asarray(c, np.float64) for c in b["coords"]]
        npts = np.array([len(c) // 2 for c in coords], dtype=np.int64)
        nseg = np.maximum(npts - 1, 0)
        total = int(nseg.sum())
        empty = pd.DataFrame({
            "ax": pd.Series(dtype=np.float64), "ay": pd.Series(dtype=np.float64),
            "bx": pd.Series(dtype=np.float64), "by": pd.Series(dtype=np.float64),
            "seg_id": pd.Series(dtype=np.int64)})
        if total == 0:
            return empty
        pts = np.concatenate(coords).reshape(-1, 2)
        starts = np.concatenate(([0], np.cumsum(npts)))[:-1]
        segoff = np.concatenate(([0], np.cumsum(nseg)))[:-1]
        idx0 = (np.repeat(starts, nseg)
                + np.arange(total) - np.repeat(segoff, nseg))
        a = pts[idx0]
        c = pts[idx0 + 1]
        sid = np.repeat(b["seg_id"].to_numpy(np.int64), nseg)
        keep = (a != c).any(axis=1)
        a, c, sid = a[keep], c[keep], sid[keep]
        return pd.DataFrame({
            "ax": np.concatenate([a[:, 0], c[:, 0]]),
            "ay": np.concatenate([a[:, 1], c[:, 1]]),
            "bx": np.concatenate([c[:, 0], a[:, 0]]),
            "by": np.concatenate([c[:, 1], a[:, 1]]),
            "seg_id": np.tile(sid, 2)})

    he = shuffle.first_by(
        segments.map_batches(explode, batch_format="pandas"),
        ["ax", "ay", "bx", "by"], "seg_id").materialize()

    nodes = dedup_coords_with_ids(he.map_batches(
        lambda b: pd.DataFrame({"x": b["ax"].to_numpy(np.float64),
                                "y": b["ay"].to_numpy(np.float64)}),
        batch_format="pandas")).materialize()

    def rn(xc, yc, ic):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({xc: b["x"].to_numpy(np.float64),
                                 yc: b["y"].to_numpy(np.float64),
                                 ic: b["node_id"].to_numpy(np.int64)})
        return fn

    he = bucketed_join(he, nodes.map_batches(rn("ax", "ay", "aid"),
                                             batch_format="pandas"),
                       on=["ax", "ay"])
    he = bucketed_join(he, nodes.map_batches(rn("bx", "by", "bid"),
                                             batch_format="pandas"),
                       on=["bx", "by"])

    def succ_kernel(g: pd.DataFrame) -> pd.DataFrame:
        bid = g["bid"].to_numpy(np.int64)
        aid = g["aid"].to_numpy(np.int64)
        ax = g["ax"].to_numpy(np.float64)
        ay = g["ay"].to_numpy(np.float64)
        bx = g["bx"].to_numpy(np.float64)
        by = g["by"].to_numpy(np.float64)
        sid = g["seg_id"].to_numpy(np.int64)
        ang = np.arctan2(ay - by, ax - bx)
        order = np.lexsort((ang, bid))
        bid, aid, ax, ay, bx, by, sid = (arr[order] for arr in
                                         (bid, aid, ax, ay, bx, by, sid))
        new = np.concatenate(([True], bid[1:] != bid[:-1]))
        gstart = np.flatnonzero(new)
        gsize = np.diff(np.append(gstart, len(bid)))
        gidx = np.repeat(np.arange(len(gstart)), gsize)
        r = np.arange(len(bid)) - gstart[gidx]
        prev = gstart[gidx] + (r - 1) % gsize[gidx]
        sh = np.int64(32)
        return pd.DataFrame({
            "edge_id": (aid << sh) | bid,
            "succ_id": (bid << sh) | aid[prev],
            "ax": ax, "ay": ay, "seg_id": sid,
            "cross": ax * by - ay * bx})

    edges = shuffle.grouped_transform(he, ["bid"], succ_kernel).materialize()

    labels = connected_components(edges.map_batches(
        lambda b: pd.DataFrame({"src": b["edge_id"].to_numpy(np.int64),
                                "dst": b["succ_id"].to_numpy(np.int64)}),
        batch_format="pandas"))
    labeled = bucketed_join(
        edges, labels.map_batches(
            lambda b: pd.DataFrame(
                {"edge_id": b["node_id"].to_numpy(np.int64),
                 "face": b["component"].to_numpy(np.int64)}),
            batch_format="pandas"), on="edge_id")

    areas = shuffle.group_agg(labeled, ["face"],
                              {"area2": ("cross", "sum")})
    interior = areas.map_batches(
        lambda b: b[b["area2"].to_numpy() > 1e-12][["face"]],
        batch_format="pandas")
    labeled = bucketed_join(labeled, interior, on="face")

    def chain_kernel(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for _, sub in g.groupby("face", sort=False):
            eids = sub["edge_id"].to_numpy(np.int64)
            em = {int(e): i for i, e in enumerate(eids)}
            succ = sub["succ_id"].to_numpy(np.int64)
            axv = sub["ax"].to_numpy(np.float64)
            ayv = sub["ay"].to_numpy(np.float64)
            sids = sub["seg_id"].to_numpy(np.int64)
            start = int(eids.min())
            ring, e = [], start
            for _ in range(len(sub)):
                i = em[e]
                ring.append(i)
                e = int(succ[i])
                if e == start:
                    break
            rc = np.column_stack([axv[ring], ayv[ring]])
            rows.append({"coords": rc.reshape(-1),
                         "seg_ids": np.unique(sids),
                         "minx": float(rc[:, 0].min()),
                         "miny": float(rc[:, 1].min()),
                         "extkey": float(rc[:, 0].ptp() * rc[:, 1].ptp()),
                         "mx": float(rc[:, 0].mean()),
                         "my": float(rc[:, 1].mean())})
        if not rows:
            return pd.DataFrame({"coords": pd.Series(dtype=object),
                                 "seg_ids": pd.Series(dtype=object),
                                 "minx": pd.Series(dtype=np.float64),
                                 "miny": pd.Series(dtype=np.float64),
                                 "extkey": pd.Series(dtype=np.float64),
                                 "mx": pd.Series(dtype=np.float64),
                                 "my": pd.Series(dtype=np.float64)})
        return pd.DataFrame(rows)

    return shuffle.grouped_transform(labeled, ["face"], chain_kernel)


@ray.remote
def _assemble_enclosures(*tables) -> pd.DataFrame:
    """Face rows → the deterministic enclosure table (sorted as
    :func:`enclosures_from_barriers` sorts, dense enclosure_index) —
    runs in a task."""
    import pyarrow as pa
    dfs = [t.to_pandas() for t in tables if t.num_rows]
    if not dfs:
        return pd.DataFrame({"enclosure_index": pd.Series(dtype=np.int64),
                             "coords": pd.Series(dtype=object),
                             "seg_ids": pd.Series(dtype=object)})
    df = (pd.concat(dfs, ignore_index=True)
          .sort_values(["minx", "miny", "extkey", "mx", "my"], kind="stable")
          .reset_index(drop=True))
    return pd.DataFrame({
        "enclosure_index": np.arange(len(df), dtype=np.int64),
        "coords": [np.asarray(c, np.float64) for c in df["coords"]],
        "seg_ids": [np.asarray(s, np.int64) for s in df["seg_ids"]]})


@ray.remote
def _enclosures_task(*tables) -> pd.DataFrame:
    """Single-task polygonization: the barrier blocks are fetched from
    the object store INSIDE this task — the driver only ships refs."""
    return enclosures_from_barriers(concat(tables).to_pandas())


@ray.remote
def _enc_coord_map(enc: pd.DataFrame) -> dict:
    return dict(zip(enc["enclosure_index"], enc["coords"]))


@ray.remote
def _kept_enclosures(enc: pd.DataFrame, kept_segments: frozenset) -> np.ndarray:
    """Ids of enclosures still touching a reachable segment — ids-only
    result, so the driver never sees the coord columns."""
    return np.asarray(
        [eid for eid, sids in zip(enc["enclosure_index"], enc["seg_ids"])
         if any(int(s) in kept_segments for s in sids)], dtype=np.int64)


def compute_enclosures(seg_edges: ray.data.Dataset) -> "ray.ObjectRef":
    """Enclosure table for a (seg_id, coords) barrier Dataset as an
    object-store REFERENCE — the driver never materializes the
    coordinate-bearing rows (VERDICT r2 #1: a metro-scale street
    network is tens of millions of coord rows).  When the barrier
    table's bytes fit the driver budget, one ``ray.remote`` task
    concatenates the Arrow block refs and polygonizes (the small-input
    fast path); past it, the distributed half-edge polygonizer
    (:func:`polygonize_faces_dataset`) traces faces with shuffles and
    only the assembled enclosure table is put once."""
    eds = seg_edges.select_columns(["seg_id", "coords"]).materialize()
    if fits_driver(eds.size_bytes()):
        return _enclosures_task.remote(*eds.to_arrow_refs())
    faces = polygonize_faces_dataset(eds)
    return _assemble_enclosures.remote(*faces.to_arrow_refs())


def _as_enc_ref(enclosures) -> "ray.ObjectRef":
    return (enclosures if isinstance(enclosures, ray.ObjectRef)
            else ray.put(enclosures))


# ------------------------------------------------------------------ tessellation

@ray.remote
def _enc_assign_stats(enc: pd.DataFrame) -> tuple:
    """(#enclosures, median max-bbox-side, max max-bbox-side) —
    scalars only to the driver."""
    n = len(enc)
    if n == 0:
        return 0, 1.0, 1.0
    sides = np.empty(n, np.float64)
    for i, c in enumerate(enc["coords"]):
        r = np.asarray(c, np.float64).reshape(-1, 2)
        sides[i] = max(r[:, 0].max() - r[:, 0].min(),
                       r[:, 1].max() - r[:, 1].min())
    return (n, float(max(np.median(sides), 1e-9)),
            float(max(sides.max(), 1e-9)))


@ray.remote
def _enc_cell_chunk(enc: pd.DataFrame, lo: int, hi: int, cs: float):
    """Covering-cell rows (cell, pos, enclosure_index, ring-blob) for
    enc[lo:hi] — one Arrow block per chunk, so a million-enclosure
    table fans out instead of funneling through one task."""
    import pyarrow as pa
    sub = enc.iloc[lo:hi]
    rings = [np.asarray(c, np.float64).reshape(-1, 2) for c in sub["coords"]]
    if not rings:
        return pa.table({"cell": pa.array([], pa.int64()),
                         "pos": pa.array([], pa.int64()),
                         "enclosure_index": pa.array([], pa.int64()),
                         "ring": pa.array([], pa.binary()),
                         "pid": pa.array([], pa.int64()),
                         "px": pa.array([], pa.float64()),
                         "py": pa.array([], pa.float64())})
    bb = np.array([[r[:, 0].min(), r[:, 1].min(), r[:, 0].max(), r[:, 1].max()]
                   for r in rings])
    rows, cell = cellmod.covering_cells(bb[:, 0], bb[:, 1], bb[:, 2],
                                        bb[:, 3], cs)
    eids = sub["enclosure_index"].to_numpy()[rows].astype(np.int64)
    pos = (np.arange(lo, hi, dtype=np.int64))[rows]
    blobs = [rings[i].tobytes() for i in rows]
    n = len(rows)
    return pa.table({"cell": pa.array(cell, pa.int64()),
                     "pos": pa.array(pos, pa.int64()),
                     "enclosure_index": pa.array(eids, pa.int64()),
                     "ring": pa.array(blobs, pa.binary()),
                     "pid": pa.array(np.full(n, -1, np.int64)),
                     "px": pa.array(np.zeros(n), pa.float64()),
                     "py": pa.array(np.zeros(n), pa.float64())})


# Enclosure count up to which every building batch loops over the whole
# broadcast enclosure table.  A compute crossover, not a memory bound:
# each batch runs one PIP pass per enclosure, so past it the
# cell-bucketed path's local candidates are cheaper.
ASSIGN_BROADCAST_ENCLOSURES = 4096


def assign_buildings_to_enclosures(buildings: ray.data.Dataset,
                                   enclosures) -> ray.data.Dataset:
    """Tag each building (id, x, y centroid) with its enclosure_index
    (-1 = unenclosed, mirroring momepy's negative indices for
    out-of-enclosure rows, utils/spatial.py:2908-2911).  ``enclosures``
    is a pd.DataFrame or an ObjectRef to one (from
    :func:`compute_enclosures`).

    Two strategies (VERDICT r3 #2):

    * ≤ ``ASSIGN_BROADCAST_ENCLOSURES`` enclosures: broadcast the
      table and run a first-match-wins PIP loop per batch
      (enclosures ≪ points).
    * above it: **cell-bucketed** — enclosures are replicated to the
      grid cells their bbox covers (``ray.remote`` chunk tasks over the
      object-store table, driver sees only scalars), buildings live in
      exactly one cell, and each cell group runs the same
      first-match-wins PIP over only its LOCAL candidates.  Per-batch
      work is bounded by local candidates instead of O(#enclosures)
      passes; matches re-attach via a bucketed left join.

    Both paths assign the first containing enclosure in table order
    (min position), so outputs are identical row-for-row.

    Input envelope (ADVICE r4): the cell path requires losslessly
    int64-castable building ids (it ships them through a typed Arrow
    shuffle and joins back on them) — non-castable ids raise a clear
    ``TypeError`` per batch instead of silently truncating.  And the
    cell size is clamped to ``max_bbox_side / max_cells_per_side``
    so a single outlier enclosure (one polygon spanning thousands of
    median-sized cells) replicates its ring blob to at most
    ``(max_cells_per_side+1)²`` cells rather than an unbounded number.
    """
    ref = _as_enc_ref(enclosures)
    n_enc, med_side, max_side = ray.get(_enc_assign_stats.remote(ref))
    max_cells_per_side = 64

    if n_enc <= ASSIGN_BROADCAST_ENCLOSURES:
        def assign(batch: pd.DataFrame, enc: pd.DataFrame) -> pd.DataFrame:
            px = batch["x"].to_numpy()
            py = batch["y"].to_numpy()
            idx = np.full(len(batch), -1, dtype=np.int64)
            for eid, ring in zip(enc["enclosure_index"], enc["coords"]):
                todo = idx == -1
                if not todo.any():
                    break
                m = points_in_polygon(px[todo], py[todo], np.asarray(ring))
                w = np.nonzero(todo)[0][m]
                idx[w] = eid
            out = batch.copy()
            out["enclosure_index"] = idx
            return out

        return broadcast_map(buildings, ref, assign)

    import pyarrow as pa
    from city2graph_ray.joins import bucketed_join

    # clamp: cs below max_side/64 would let the widest enclosure cover
    # an unbounded (span/cs)² cell set; med_side alone is vulnerable to
    # one city-spanning outlier polygon (ADVICE r4)
    cs = max(med_side, 1e-6, max_side / max_cells_per_side)
    chunk = 50_000
    enc_cells = ray.data.from_arrow_refs(
        [_enc_cell_chunk.remote(ref, lo, min(lo + chunk, n_enc), cs)
         for lo in range(0, n_enc, chunk)])

    def add_jid(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["id"].to_numpy()
        if ids.dtype.kind not in "iu":
            # fail loudly instead of silently truncating floats /
            # crashing mid-shuffle on strings (ADVICE r4): the cell
            # path round-trips ids through a typed int64 Arrow column
            cast = ids.astype(np.int64, casting="unsafe") \
                if ids.dtype.kind == "f" else None
            if cast is None or not np.array_equal(
                    cast.astype(ids.dtype), ids):
                raise TypeError(
                    "assign_buildings_to_enclosures cell path needs "
                    f"losslessly int64-castable building ids, got dtype "
                    f"{ids.dtype}; re-key the buildings table or stay "
                    "below ASSIGN_BROADCAST_ENCLOSURES enclosures")
            ids = cast
        else:
            ids = ids.astype(np.int64)
        out = b.copy()
        out["__jid"] = ids
        return out

    bset = buildings.map_batches(add_jid, batch_format="pandas")

    def pt_cells(b: pd.DataFrame) -> "pa.Table":
        x = b["x"].to_numpy(np.float64)
        y = b["y"].to_numpy(np.float64)
        n = len(b)
        # Arrow output so the union's block type matches _enc_cell_chunk
        return pa.table({
            "cell": pa.array(cellmod.cell_id(x, y, cs), pa.int64()),
            "pos": pa.array(np.full(n, -1, np.int64)),
            "enclosure_index": pa.array(np.full(n, -1, np.int64)),
            "ring": pa.array([b""] * n, pa.binary()),
            "pid": pa.array(b["__jid"].to_numpy(np.int64)),
            "px": pa.array(x, pa.float64()),
            "py": pa.array(y, pa.float64())})

    pts = bset.map_batches(pt_cells, batch_format="pandas")

    def refine(g: pd.DataFrame) -> pd.DataFrame:
        enc_rows = g[g["pos"] >= 0].sort_values("pos", kind="stable")
        pt_rows = g[g["pos"] < 0]
        empty = pd.DataFrame({"__jid": pd.Series(dtype=np.int64),
                              "enclosure_index": pd.Series(dtype=np.int64)})
        if len(enc_rows) == 0 or len(pt_rows) == 0:
            return empty
        px = pt_rows["px"].to_numpy()
        py = pt_rows["py"].to_numpy()
        pids = pt_rows["pid"].to_numpy()
        idx = np.full(len(pt_rows), -1, dtype=np.int64)
        # ascending table position == the broadcast loop's first-match
        for eid, blob in zip(enc_rows["enclosure_index"], enc_rows["ring"]):
            todo = idx == -1
            if not todo.any():
                break
            ring = np.frombuffer(blob, np.float64)
            m = points_in_polygon(px[todo], py[todo], ring)
            w = np.nonzero(todo)[0][m]
            idx[w] = eid
        hit = idx != -1
        return pd.DataFrame({"__jid": pids[hit], "enclosure_index": idx[hit]})

    matches = keyed_exchange(enc_cells.union(pts), ["cell"], refine)
    # join on the validated int64 __jid on BOTH sides so float-typed
    # (but integral) building id columns still match
    joined = bucketed_join(
        bset, matches, on="__jid", how="left",
        right_schema=pa.schema([("__jid", pa.int64()),
                                ("enclosure_index", pa.int64())]))

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        out = b.drop(columns=["__jid"]).copy()
        out["enclosure_index"] = (
            out["enclosure_index"].fillna(-1).astype(np.int64))
        return out

    return joined.map_batches(finish, batch_format="pandas")


def zonal_tessellation(buildings: ray.data.Dataset, enclosures,
                       resolution: float = 2.0) -> ray.data.Dataset:
    """Per-enclosure raster↔vector zonal tessellation.

    For each enclosure: rasterize its polygon at ``resolution`` and
    assign every interior raster cell to the nearest building seed in
    that enclosure (discrete morphological tessellation).  Enclosures
    with no buildings emit nothing (the reference drops empty
    enclosures); single-building enclosures produce one cell covering
    the enclosure (the recovery path, utils/spatial.py:2829-2919).

    Output tile assignments: (enclosure_index, cell_ix, cell_iy,
    tess_id, bldg_id, area) — tess_id = "{enclosure}_{rank}" with rank
    = building order by (x, y) within the enclosure (deterministic).

    Skew note: one Ray group per enclosure; pathologically large
    enclosures should be pre-split by sub-cell with seam-aware merge
    (SURVEY.md §4) — resolution bounds per-group work to
    area/resolution² cells.
    """
    tagged = assign_buildings_to_enclosures(buildings, enclosures)
    ref = _enc_coord_map.remote(_as_enc_ref(enclosures))

    def tess(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "enclosure_index": pd.Series(dtype=np.int64),
            "cell_ix": pd.Series(dtype=np.int64),
            "cell_iy": pd.Series(dtype=np.int64),
            "tess_id": pd.Series(dtype=str),
            "bldg_id": pd.Series(dtype=np.int64),
            "area": pd.Series(dtype=np.float64)})
        eid = int(g["enclosure_index"].iloc[0])
        if eid < 0:
            return empty
        enc_map = ray.get(ref)
        ring = np.asarray(enc_map[eid], np.float64).reshape(-1, 2)
        # id tie-break: EXACT coordinate collisions between distinct
        # buildings are real at scale (~11 expected pairs at sf0.1 in
        # the 10^5-slot synth space; any snapped real-world corpus has
        # them too) and an (x, y)-only rank is ambiguous between
        # co-located seeds — caught by the r5 sf0.1 value gate
        g = g.sort_values(["x", "y", "id"],
                          kind="stable").reset_index(drop=True)
        bx = g["x"].to_numpy()
        by = g["y"].to_numpy()
        bids = g["id"].to_numpy()
        x0, x1 = ring[:, 0].min(), ring[:, 0].max()
        y0, y1 = ring[:, 1].min(), ring[:, 1].max()
        ix = np.arange(np.floor(x0 / resolution), np.ceil(x1 / resolution) + 1)
        iy = np.arange(np.floor(y0 / resolution), np.ceil(y1 / resolution) + 1)
        gx, gy = np.meshgrid(ix, iy)
        cx = (gx.ravel() + 0.5) * resolution
        cy = (gy.ravel() + 0.5) * resolution
        inside = points_in_polygon(cx, cy, ring.reshape(-1), boundary=False)
        cx, cy = cx[inside], cy[inside]
        gix = gx.ravel()[inside].astype(np.int64)
        giy = gy.ravel()[inside].astype(np.int64)
        if len(cx) == 0:
            return empty
        d2 = (cx[:, None] - bx[None, :]) ** 2 + (cy[:, None] - by[None, :]) ** 2
        seed = np.argmin(d2, axis=1)
        return pd.DataFrame({
            "enclosure_index": np.full(len(cx), eid, dtype=np.int64),
            "cell_ix": gix, "cell_iy": giy,
            "tess_id": [f"{eid}_{s}" for s in seed],
            "bldg_id": bids[seed],
            "area": np.full(len(cx), resolution * resolution)})

    return keyed_exchange(tagged, ["enclosure_index"], tess)


_COARSE_GRID_SIZE = 1e-3   # reference utils/spatial.py:51
_JITTER_MAGNITUDE = 0.01   # reference utils/spatial.py:52


def _jitter_hash_unit(coords: np.ndarray, salt: float) -> np.ndarray:
    """Deterministic pseudo-random unit value per coordinate pair —
    the reference's exact formula (utils/spatial.py:2290-2313), so
    shared vertices move identically and reruns are reproducible."""
    return np.abs(np.sin(coords[:, 0] * 12.9898 + coords[:, 1] * 78.233
                         + salt) * 43758.5453) % 1.0


def _jitter_coords(coords: np.ndarray,
                   magnitude: float = _JITTER_MAGNITUDE) -> np.ndarray:
    dx = (_jitter_hash_unit(coords, 0.0) - 0.5) * 2.0 * magnitude
    dy = (_jitter_hash_unit(coords, 1.0) - 0.5) * 2.0 * magnitude
    return coords + np.column_stack([dx, dy])


def _multipolygon_wkt(pieces: list[np.ndarray]) -> str:
    from city2graph_ray.geom.wkt import emit_polygon
    if len(pieces) == 1:
        return emit_polygon(pieces[0].reshape(-1))
    inner = ",".join(
        "((" + ", ".join(f"{x} {y}" for x, y in np.vstack([p, p[:1]])) + "))"
        for p in pieces)
    return f"MULTIPOLYGON({inner})"


def enclosed_tessellation(buildings: ray.data.Dataset,
                          enclosures: pd.DataFrame | ray.data.Dataset,
                          shrink: float = 0.4, segment: float = 0.5,
                          area_tolerance: float = 0.05,
                          ) -> ray.data.Dataset:
    """Vector (momepy-style) enclosed tessellation: per enclosure, the
    Voronoi partition between its buildings' boundary seeds, clipped to
    the enclosure polygon (reference create_tessellation →
    momepy.enclosed_tessellation, utils/spatial.py:2085-3024).

    Buildings: (id, x, y) point seeds, or (id, coords) polygon rings —
    polygon rings are shrunk inward by ``shrink`` (convex offset;
    non-convex rings skip the shrink) and densified at ``segment``
    spacing, each seed labelled by its building (momepy's
    discretization).  Point buildings contribute one seed each.

    Retry ladder per enclosure, mirroring the reference
    (utils/spatial.py:2524-2581): plain seeds → coarse-grid snap
    (grid_size=1e-3) → deterministic jitter (:2290-2360); enclosures
    still degenerate after the ladder are dropped (cells removed, the
    reference's _repair_or_drop_degenerate_enclosures :2583-2668) —
    validation is the cell-area-sum-vs-enclosure-area check
    (:2243-2279, tolerance 1±``area_tolerance``).

    Single-building enclosures become one cell covering the enclosure
    (the recovery path :2829-2919); empty enclosures keep one cell with
    ``bldg_id=-1`` (momepy's negative-index convention, flattened to -1
    per enclosure).  ``tess_id`` = "{enclosure_index}_{building_id}".

    Distribution: buildings are tagged with their enclosure (broadcast
    PIP), the enclosure ring rides into the same group as an extra
    tagged row (no per-building ring duplication, no driver loop), and
    each enclosure tessellates independently in its own kernel call —
    resumable per enclosure, skew bounded by buildings-per-enclosure.

    Output: one row per cell — (enclosure_index, bldg_id, tess_id,
    area, n_pieces, attempts, geometry WKT).
    """
    from city2graph_ray.geom import voronoi as vr

    if isinstance(enclosures, ray.ObjectRef):
        enc_src = enclosures          # stays in the object store
        enc_ds = ray.data.from_pandas_refs([enclosures]).map_batches(
            lambda b: b[["enclosure_index", "coords"]],
            batch_format="pandas")
    else:
        enc_df = (enclosures.to_pandas()
                  if isinstance(enclosures, ray.data.Dataset) else enclosures)
        enc_src = enc_df
        enc_ds = ray.data.from_pandas(enc_df[["enclosure_index", "coords"]])

    polygon_mode = "coords" in buildings.schema().names
    if polygon_mode:
        def centroids(b: pd.DataFrame) -> pd.DataFrame:
            from city2graph_ray.geom.kernels import polygon_area_centroid
            xs, ys = [], []
            for ring in b["coords"]:
                _, cx, cy = polygon_area_centroid(np.asarray(ring, np.float64))
                xs.append(cx)
                ys.append(cy)
            out = b.copy()
            out["x"] = np.asarray(xs)
            out["y"] = np.asarray(ys)
            return out
        pts = buildings.map_batches(centroids, batch_format="pandas")
    else:
        pts = buildings
    tagged = assign_buildings_to_enclosures(pts, enc_src)

    bcols = ["enclosure_index", "kind", "id", "x", "y", "coords"]

    def tag_buildings(b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        out["kind"] = np.int8(0)
        if "coords" not in out.columns:
            out["coords"] = [np.empty(0)] * len(out)
        return out[bcols]

    def tag_enclosures(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "enclosure_index": b["enclosure_index"].to_numpy(np.int64),
            "kind": np.int8(1), "id": np.int64(-1),
            "x": 0.0, "y": 0.0,
            "coords": [np.asarray(c, np.float64) for c in b["coords"]]})

    combined = tagged.map_batches(tag_buildings, batch_format="pandas").union(
        enc_ds.map_batches(tag_enclosures, batch_format="pandas"))

    def empty() -> pd.DataFrame:
        return pd.DataFrame({
            "enclosure_index": pd.Series(dtype=np.int64),
            "bldg_id": pd.Series(dtype=np.int64),
            "tess_id": pd.Series(dtype=str),
            "area": pd.Series(dtype=np.float64),
            "n_pieces": pd.Series(dtype=np.int64),
            "attempts": pd.Series(dtype=np.int64),
            "geometry": pd.Series(dtype=str)})

    def row(eid, bid, area, pieces, attempts):
        return {"enclosure_index": eid, "bldg_id": bid,
                "tess_id": f"{eid}_{bid}", "area": area,
                "n_pieces": len(pieces), "attempts": attempts,
                "geometry": _multipolygon_wkt(pieces)}

    def tess(g: pd.DataFrame) -> pd.DataFrame:
        eid = int(g["enclosure_index"].iloc[0])
        if eid < 0:  # unenclosed buildings: no cells here (the
            return empty()  # morphological fallback handles them)
        enc_rows = g[g["kind"] == 1]
        if len(enc_rows) == 0:
            return empty()
        ring = np.asarray(enc_rows["coords"].iloc[0], np.float64).reshape(-1, 2)
        ring = vr.ensure_ccw(ring)
        enc_area = vr.ring_area(ring)
        bld = g[g["kind"] == 0].sort_values("id", kind="stable")
        if len(bld) == 0:
            return pd.DataFrame([row(eid, -1, enc_area, [ring], 0)])
        if len(bld) == 1:
            return pd.DataFrame([row(eid, int(bld["id"].iloc[0]),
                                     enc_area, [ring], 0)])
        # seed generation
        seed_xy_parts, seed_bid_parts = [], []
        for bid, bx, by, coords in zip(bld["id"], bld["x"], bld["y"],
                                       bld["coords"]):
            c = np.asarray(coords, np.float64).reshape(-1, 2)
            if polygon_mode and len(c) >= 3:
                base = vr.ensure_ccw(c)
                if shrink > 0 and vr.is_convex(base):
                    off = vr.inward_offset_convex(base, shrink)
                    if off is not None:
                        base = off
                s = vr.densify_ring(base, segment)
            else:
                s = np.array([[bx, by]])
            seed_xy_parts.append(s)
            seed_bid_parts.append(np.full(len(s), bid, np.int64))
        seeds0 = np.vstack(seed_xy_parts)
        sbid0 = np.concatenate(seed_bid_parts)

        ring_convex = vr.is_convex(ring)
        for attempt, xform in enumerate((
                lambda s: s,
                lambda s: np.round(s / _COARSE_GRID_SIZE) * _COARSE_GRID_SIZE,
                _jitter_coords)):
            seeds = xform(seeds0.copy())
            # exact-duplicate seeds break the triangulation: keep the
            # first (lowest building id) occurrence
            _, uniq = np.unique(seeds.round(9), axis=0, return_index=True)
            uniq = np.sort(uniq)
            s_xy, s_bid = seeds[uniq], sbid0[uniq]
            if len(np.unique(s_bid)) < 2:
                continue
            cells = vr.voronoi_cells(s_xy)
            if any(c is None for c in cells):
                continue
            areas: dict[int, float] = {}
            pieces: dict[int, list] = {}
            for cell, bid in zip(cells, s_bid):
                if ring_convex:
                    clipped = vr.clip_convex(cell, ring)
                else:
                    clipped = vr.clip_convex(ring, cell)
                if len(clipped) < 3:
                    continue
                a = abs(vr.ring_area(clipped))
                if a < 1e-12:
                    continue
                areas[bid] = areas.get(bid, 0.0) + a
                pieces.setdefault(bid, []).append(clipped)
            total = sum(areas.values())
            if abs(total - enc_area) <= area_tolerance * enc_area and areas:
                return pd.DataFrame([
                    row(eid, int(b), areas[b], pieces[b], attempt)
                    for b in sorted(areas)])
        # ladder exhausted: drop the enclosure (reference
        # _repair_or_drop_degenerate_enclosures terminal branch)
        return empty()

    return keyed_exchange(combined, ["enclosure_index"], tess)


def place_to_place_edges(assignments: ray.data.Dataset) -> ray.data.Dataset:
    """Tessellation-cell contiguity: two places touch when adjacent
    raster cells (rook) carry different tess_ids in the same enclosure
    (reference place_to_place_graph morphology.py:891-1109, grouped by
    enclosure).  One shuffle: shifted self-equi-join on cell keys."""

    def shifted(batch: pd.DataFrame) -> pd.DataFrame:
        # emit each assignment under its own key and its east/north
        # neighbor keys; a join collision = adjacency
        base = pd.DataFrame({
            "enclosure_index": batch["enclosure_index"],
            "kx": batch["cell_ix"], "ky": batch["cell_iy"],
            "tess_id": batch["tess_id"], "bldg_id": batch["bldg_id"],
            "side": np.int8(0)})
        east = base.copy()
        east["kx"] = east["kx"] - 1
        east["side"] = np.int8(1)
        north = base.copy()
        north["ky"] = north["ky"] - 1
        north["side"] = np.int8(2)
        return pd.concat([base, east, north])

    keyed = assignments.map_batches(shifted, batch_format="pandas")

    def collide(g: pd.DataFrame) -> pd.DataFrame:
        own = g[g["side"] == 0]
        nb = g[g["side"] != 0]
        m = own.merge(nb, on=["enclosure_index", "kx", "ky"])
        m = m[m["tess_id_x"] != m["tess_id_y"]]
        a = np.minimum(m["tess_id_x"], m["tess_id_y"])
        b = np.maximum(m["tess_id_x"], m["tess_id_y"])
        out = pd.DataFrame({"src": a, "dst": b,
                            "enclosure_index": m["enclosure_index"]})
        return out.drop_duplicates(["src", "dst"])

    cand = shuffle.grouped_transform(keyed, ["enclosure_index", "kx", "ky"],
                                     collide)
    return shuffle.distinct(cand, ["src", "dst"])


# ------------------------------------------------------------------ place ↔ movement

def nearest_segments(points: ray.data.Dataset, segments: ray.data.Dataset,
                     max_distance: float, k: int = 1,
                     cell_size: float | None = None) -> ray.data.Dataset:
    """Per point, the k nearest segments within ``max_distance``
    (point→LineString distance, the reference's capped nearest fallback
    morphology.py:1336-1419).  Segments replicate to every cell their
    bbox+max_distance covers; points live in one cell → each (point,
    segment) candidate is evaluated exactly once; top-k per point."""
    cs = cell_size or max(max_distance * 2.0, 25.0)

    def seg_cells(batch: pd.DataFrame) -> pd.DataFrame:
        rows = {"seg_id": [], "cell": [], "blob": []}
        for sid, c in zip(batch["seg_id"], batch["coords"]):
            cc = np.asarray(c, np.float64).reshape(-1, 2)
            r, cl = cellmod.covering_cells(
                np.array([cc[:, 0].min() - max_distance]),
                np.array([cc[:, 1].min() - max_distance]),
                np.array([cc[:, 0].max() + max_distance]),
                np.array([cc[:, 1].max() + max_distance]), cs)
            blob = cc.tobytes()  # bytes through the shuffle, not objects
            rows["seg_id"].extend([sid] * len(cl))
            rows["cell"].extend(cl)
            rows["blob"].extend([blob] * len(cl))
        return pd.DataFrame(rows)

    def pt_cells(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[["id", "x", "y"]].copy()
        out["cell"] = cellmod.cell_id(batch["x"].to_numpy(),
                                      batch["y"].to_numpy(), cs)
        return out

    segs = segments.map_batches(seg_cells, batch_format="pandas")
    pts = points.map_batches(pt_cells, batch_format="pandas")
    cols = ["id", "x", "y", "seg_id", "cell", "blob", "is_pt"]
    s2 = segs.map_batches(lambda b: b.assign(id=np.int64(-1), x=0.0, y=0.0,
                                             is_pt=False)[cols],
                          batch_format="pandas")
    p2 = pts.map_batches(lambda b: b.assign(seg_id=np.int64(-1), blob=b"",
                                            is_pt=True)[cols],
                         batch_format="pandas")

    from city2graph_ray.geom.kernels import point_segment_dist2

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        ps = g[g["is_pt"]]
        ss = g[~g["is_pt"]]
        if len(ps) == 0 or len(ss) == 0:
            return pd.DataFrame({"id": pd.Series(dtype=np.int64),
                                 "seg_id": pd.Series(dtype=np.int64),
                                 "distance": pd.Series(dtype=np.float64)})
        px = ps["x"].to_numpy()
        py = ps["y"].to_numpy()
        out_rows = []
        for sid, blob in zip(ss["seg_id"], ss["blob"]):
            cc = np.frombuffer(blob, np.float64).reshape(-1, 2)
            best = np.full(len(ps), np.inf)
            for a, b in zip(cc[:-1], cc[1:]):
                d2 = point_segment_dist2(px, py, a[0], a[1], b[0], b[1])
                best = np.minimum(best, d2)
            d = np.sqrt(best)
            m = d <= max_distance
            if m.any():
                out_rows.append(pd.DataFrame({
                    "id": ps["id"].to_numpy()[m],
                    "seg_id": np.int64(sid),
                    "distance": d[m]}))
        if not out_rows:
            return pd.DataFrame({"id": pd.Series(dtype=np.int64),
                                 "seg_id": pd.Series(dtype=np.int64),
                                 "distance": pd.Series(dtype=np.float64)})
        return pd.concat(out_rows)

    cand = keyed_exchange(s2.union(p2), ["cell"], kernel)
    return shuffle.topk_in_group(cand, ["id"], k,
                                 ["distance", "seg_id"], [True, True])


# ------------------------------------------------------------------ reachability

def reachability_costs(edges: pd.DataFrame, center: tuple[float, float],
                       nodes: pd.DataFrame) -> dict[int, float]:
    """Dijkstra cost field from the node nearest to ``center`` over the
    segment graph (reference morphology.py:2941-2997; network ≪ data →
    one driver task, result broadcast).  edges: (src, dst, length)."""
    import networkx as nx
    g = nx.Graph()
    for s, d, w in edges[["src", "dst", "length"]].itertuples(index=False):
        g.add_edge(int(s), int(d), weight=float(w))
    dx = nodes["x"].to_numpy() - center[0]
    dy = nodes["y"].to_numpy() - center[1]
    start = int(nodes["node_id"].to_numpy()[np.argmin(dx * dx + dy * dy)])
    if start not in g:
        return {}
    return {int(k): float(v) for k, v in
            nx.single_source_dijkstra_path_length(g, start).items()}


def filter_segments_by_cost(edges: ray.data.Dataset,
                            costs: dict[int, float],
                            distance: float) -> ray.data.Dataset:
    """Keep segments whose cheaper endpoint cost ≤ distance
    (reference morphology.py:3306-3359)."""
    def filt(batch: pd.DataFrame, costs: dict) -> pd.DataFrame:
        cs = batch["src"].map(costs).to_numpy(dtype=np.float64, na_value=np.inf)
        cd = batch["dst"].map(costs).to_numpy(dtype=np.float64, na_value=np.inf)
        return batch[np.minimum(cs, cd) <= distance]

    return broadcast_map(edges, costs, filt)


def filter_points_by_network_reach(points: ray.data.Dataset,
                                   seg_edges: ray.data.Dataset,
                                   costs: dict[int, float],
                                   distance: float,
                                   extent_buffer: float = 100.0,
                                   cell_size: float | None = None,
                                   ) -> ray.data.Dataset:
    """Keep points reachable under BOTH caps (reference
    _reachable_within_caps, morphology.py:3212-3279): some retained
    segment must have perpendicular access distance (point → projection
    foot) ≤ ``extent_buffer`` AND network cost to the foot (endpoint
    Dijkstra cost + along-edge arc) ≤ ``distance``.  Splitting the last
    leg keeps straight-line access from masquerading as walkable
    network distance.

    Cell-bucketed: segments replicate to cells within ``extent_buffer``
    of their bbox, points stay home; the node-cost field is the
    broadcast small side (it already is for the Dijkstra)."""
    cs = cell_size or max(extent_buffer * 2.0, 25.0)
    cref = ray.put(costs)

    def seg_cells(batch: pd.DataFrame) -> pd.DataFrame:
        rows = {"src": [], "dst": [], "cell": [], "blob": []}
        for s_, d_, c in zip(batch["src"], batch["dst"], batch["coords"]):
            cc = np.asarray(c, np.float64).reshape(-1, 2)
            _, cl = cellmod.covering_cells(
                np.array([cc[:, 0].min() - extent_buffer]),
                np.array([cc[:, 1].min() - extent_buffer]),
                np.array([cc[:, 0].max() + extent_buffer]),
                np.array([cc[:, 1].max() + extent_buffer]), cs)
            rows["src"].extend([s_] * len(cl))
            rows["dst"].extend([d_] * len(cl))
            rows["cell"].extend(cl)
            rows["blob"].extend([cc.tobytes()] * len(cl))
        return pd.DataFrame(rows)

    segs = seg_edges.map_batches(seg_cells, batch_format="pandas")
    cols = ["id", "x", "y", "src", "dst", "cell", "blob", "is_pt"]

    def pt_cells(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[["id", "x", "y"]].copy()
        out["cell"] = cellmod.cell_id(batch["x"].to_numpy(),
                                      batch["y"].to_numpy(), cs)
        out["src"] = np.int64(-1)
        out["dst"] = np.int64(-1)
        out["blob"] = b""
        out["is_pt"] = True
        return out[cols]

    s2 = segs.map_batches(lambda b: b.assign(id=np.int64(-1), x=0.0, y=0.0,
                                             is_pt=False)[cols],
                          batch_format="pandas")
    p2 = points.map_batches(pt_cells, batch_format="pandas")

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        costs_l = ray.get(cref)  # local object-store read per task, not
        ps = g[g["is_pt"]]       # a per-task pickle of the dict
        ss = g[~g["is_pt"]].drop_duplicates(["src", "dst"])
        if len(ps) == 0 or len(ss) == 0:
            return pd.DataFrame({"id": pd.Series(dtype=np.int64)})
        px = ps["x"].to_numpy()
        py = ps["y"].to_numpy()
        ok = np.zeros(len(ps), dtype=bool)
        for s_, d_, blob in zip(ss["src"], ss["dst"], ss["blob"]):
            c_s = costs_l.get(int(s_), np.inf)
            c_d = costs_l.get(int(d_), np.inf)
            if not (np.isfinite(c_s) or np.isfinite(c_d)):
                continue
            cc = np.frombuffer(blob, np.float64).reshape(-1, 2)
            seg_len = np.hypot(*np.diff(cc, axis=0).T)
            prefix = np.concatenate(([0.0], np.cumsum(seg_len)))
            total = prefix[-1]
            todo = ~ok
            if not todo.any():
                break
            qx, qy = px[todo], py[todo]
            best = np.zeros(len(qx), dtype=bool)
            for i, (a, b) in enumerate(zip(cc[:-1], cc[1:])):
                dx, dy = b[0] - a[0], b[1] - a[1]
                ll = dx * dx + dy * dy
                t = (((qx - a[0]) * dx + (qy - a[1]) * dy)
                     / (ll if ll > 0 else 1.0))
                t = np.clip(t, 0.0, 1.0)
                fx, fy = a[0] + t * dx, a[1] + t * dy
                access = np.hypot(qx - fx, qy - fy)
                along = prefix[i] + t * np.sqrt(ll)
                cost = np.minimum(c_s + along, c_d + (total - along))
                best |= (access <= extent_buffer) & (cost <= distance)
            ok[np.nonzero(todo)[0][best]] = True
        return pd.DataFrame({"id": ps["id"].to_numpy()[ok]})

    keep = shuffle.distinct(keyed_exchange(s2.union(p2), ["cell"], kernel),
                            ["id"])
    kept_ids = keep.to_pandas()
    from city2graph_ray.joins import semi_filter
    ids = set(kept_ids["id"]) if "id" in kept_ids.columns else set()
    return semi_filter(points, ids, "id") if ids else points.limit(0)


def unenclosed_fallback_cells(tess: ray.data.Dataset,
                              buildings: ray.data.Dataset,
                              enclosures,
                              fallback_radius: float = 10.0,
                              ) -> ray.data.Dataset:
    """Buildings outside every enclosure get square footprint-buffer
    fallback cells appended to the tessellation (reference
    include_unenclosed_buildings, morphology.py:2007-2011 + 2044-2056:
    unenclosed buildings degrade to their own footprints as cells).
    Point buildings use a ``fallback_radius`` square; cell rows carry
    enclosure_index = -1 and tess_id = "fallback_{id}"."""
    tagged = assign_buildings_to_enclosures(buildings, enclosures)
    tess_cols = list(tess.schema().names)

    def fallback(b: pd.DataFrame) -> pd.DataFrame:
        u = b[b["enclosure_index"] < 0]
        r = fallback_radius
        out = pd.DataFrame({
            "enclosure_index": np.full(len(u), -1, dtype=np.int64),
            "bldg_id": u["id"].to_numpy(np.int64),
            "tess_id": [f"fallback_{i}" for i in u["id"]],
            "area": np.full(len(u), (2 * r) ** 2)})
        # align with whichever tessellation schema we're appended to
        if "cell_ix" in tess_cols:        # zonal raster assignments
            out["cell_ix"] = np.int64(-1)
            out["cell_iy"] = np.int64(-1)
        if "geometry" in tess_cols:       # vector cells
            out["n_pieces"] = np.int64(1)
            out["attempts"] = np.int64(0)
            out["geometry"] = [
                f"POLYGON (({x - r} {y - r}, {x + r} {y - r}, "
                f"{x + r} {y + r}, {x - r} {y + r}, {x - r} {y - r}))"
                for x, y in zip(u["x"], u["y"])]
        return out[tess_cols]

    extra = tagged.map_batches(fallback, batch_format="pandas")
    return tess.union(extra)


def keep_buildings_join(tess: ray.data.Dataset,
                        buildings: ray.data.Dataset,
                        attrs: list[str] | None = None) -> ray.data.Dataset:
    """LEFT-join building attributes onto tessellation cells by
    ``bldg_id`` (the reference's keep_buildings _add_building_info,
    morphology.py:2687-2741) — bucketed hash join; cells without a
    building (empty enclosures, bldg_id = -1) keep null attrs."""
    import pyarrow as pa

    from city2graph_ray.joins import bucketed_join

    names = buildings.schema().names
    attrs = attrs or [c for c in names if c not in ("id",)]

    def rn(t: pa.Table) -> pa.Table:
        cols = ["id", *attrs]
        return t.select(cols).rename_columns(
            ["bldg_id", *[f"bldg_{a}" for a in attrs]])

    return bucketed_join(tess, buildings.map_batches(rn,
                                                     batch_format="pyarrow"),
                         on="bldg_id", how="left")


# ------------------------------------------------------------------ composition

def morphological_graph(buildings: ray.data.Dataset,
                        segments: ray.data.Dataset,
                        center: tuple[float, float] | None = None,
                        distance: float | None = None,
                        resolution: float = 2.0,
                        pm_max_distance: float = 25.0,
                        extent_buffer: float | None = None,
                        include_unenclosed_buildings: bool = False,
                        keep_buildings: bool = False,
                        ) -> dict[str, ray.data.Dataset]:
    """The flagship heterogeneous pipeline (reference morphology.py:156-348).

    buildings: (id, x, y) centroids [+ attrs]; segments: (seg_id, coords).
    Returns dict with: 'tessellation' (tile assignments),
    'place_place', 'movement_movement', 'place_movement' edge Datasets,
    plus 'segment_nodes'/'segment_edges'.

    ``extent_buffer`` (with center+distance) applies the reference's
    perpendicular access cap to building retention
    (_reachable_within_caps, morphology.py:3212-3279);
    ``include_unenclosed_buildings`` appends footprint fallback cells
    for out-of-enclosure buildings (:2007-2011); ``keep_buildings``
    left-joins building attrs onto the tessellation (:2687-2741).
    """
    from city2graph_ray.ops.topology import dual_graph, segments_to_graph

    nodes, seg_edges = segments_to_graph(segments)
    seg_edges = seg_edges.materialize()
    pm_segments = segments

    if center is not None and distance is not None:
        # lengths computed distributed (vectorized per batch); only the
        # (src, dst, length) triples reach the driver Dijkstra
        costs = reachability_costs(_edge_lengths(seg_edges), center,
                                   nodes.to_pandas())
        seg_edges = filter_segments_by_cost(seg_edges, costs, distance)
        seg_edges = seg_edges.materialize()
        # place→movement must face the same street set as the movement
        # layer (reference builds faced_to from segments_filtered only)
        kept = seg_edges.select_columns(["seg_id"]).to_pandas()["seg_id"]
        from city2graph_ray.joins import semi_filter
        pm_segments = semi_filter(segments, set(kept.tolist()), "seg_id")
        if extent_buffer is not None:
            buildings = filter_points_by_network_reach(
                buildings, seg_edges, costs, distance,
                extent_buffer).materialize()

    enclosures = compute_enclosures(seg_edges)

    tess = zonal_tessellation(buildings, enclosures, resolution).materialize()
    if include_unenclosed_buildings:
        tess = unenclosed_fallback_cells(tess, buildings, enclosures)
    if keep_buildings:
        tess = keep_buildings_join(tess, buildings)
    pp = place_to_place_edges(tess)
    mm = dual_graph(seg_edges.map_batches(
        lambda b: pd.DataFrame({"edge_id": b["seg_id"], "src": b["src"],
                                "dst": b["dst"]}), batch_format="pandas"))
    pm = nearest_segments(buildings, pm_segments, pm_max_distance, k=1)
    return {"segment_nodes": nodes, "segment_edges": seg_edges,
            "tessellation": tess, "place_place": pp,
            "movement_movement": mm, "place_movement": pm}


def _edge_lengths(seg_edges: ray.data.Dataset) -> pd.DataFrame:
    """(src, dst, length) per segment edge — lengths via the vectorized
    ragged kernel inside map_batches; only the 3-column result is
    collected for the (small) driver Dijkstra."""
    from city2graph_ray.geom.kernels import linestring_lengths

    def lens(b: pd.DataFrame) -> pd.DataFrame:
        coords = [np.asarray(c, np.float64) for c in b["coords"]]
        sizes = np.array([len(c) for c in coords], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        values = (np.concatenate(coords) if coords
                  else np.empty(0, np.float64))
        return pd.DataFrame({"src": b["src"].to_numpy(),
                             "dst": b["dst"].to_numpy(),
                             "length": linestring_lengths(values, offsets)})

    return seg_edges.map_batches(lens, batch_format="pandas").to_pandas()


def place_to_movement_edges(places: ray.data.Dataset,
                            segments: ray.data.Dataset,
                            tolerance: float = 1e-6,
                            max_connection_distance: float = 25.0,
                            ) -> ray.data.Dataset:
    """"faced_to" edges (reference morphology.py:1117-1419): primary
    dwithin(tolerance) join — EVERY segment within tolerance of a place
    — then for places with no primary match, the capped nearest
    fallback (≤ max_connection_distance, :1336-1419).  Output
    (id, seg_id, distance, matched_by)."""
    primary = nearest_segments(places, segments, tolerance, k=10 ** 6)
    primary = primary.map_batches(
        lambda b: b.assign(matched_by="dwithin"), batch_format="pandas")
    primary = primary.materialize()
    pdf = primary.to_pandas()  # empty Datasets lose column names
    matched = set(pdf["id"]) if "id" in pdf.columns else set()

    from city2graph_ray.joins import semi_filter
    unmatched = (semi_filter(places, matched, "id", keep=False)
                 if matched else places)
    fallback = nearest_segments(unmatched, segments,
                                max_connection_distance, k=1)
    fallback = fallback.map_batches(
        lambda b: b.assign(matched_by="nearest"), batch_format="pandas")
    return primary.union(fallback)


def morphological_graphs(buildings: ray.data.Dataset,
                         segments: ray.data.Dataset,
                         center: tuple[float, float],
                         distances: list[float],
                         resolution: float = 2.0,
                         pm_max_distance: float = 25.0,
                         ) -> dict[float, dict[str, ray.data.Dataset]]:
    """Multi-distance variant (reference morphological_graphs
    morphology.py:351-488): the reachability cost field and the
    tessellation are computed ONCE at max(distances); each smaller
    distance reuses them through cheap per-distance filters — exactly
    the reference's shared-context design."""
    from city2graph_ray.ops.topology import dual_graph, segments_to_graph

    dmax = max(distances)
    nodes, seg_edges = segments_to_graph(segments)
    seg_edges = seg_edges.materialize()
    costs = reachability_costs(_edge_lengths(seg_edges), center,
                               nodes.to_pandas())

    # shared upstream at dmax
    base_edges = filter_segments_by_cost(seg_edges, costs, dmax).materialize()
    enclosures = compute_enclosures(base_edges)
    tess_max = zonal_tessellation(buildings, enclosures,
                                  resolution).materialize()

    out: dict[float, dict[str, ray.data.Dataset]] = {}
    for dist in sorted(distances, reverse=True):
        d_edges = filter_segments_by_cost(base_edges, costs, dist)
        d_edges = d_edges.materialize()
        kept_segments = set(d_edges.select_columns(["seg_id"])
                            .to_pandas()["seg_id"])
        # per-distance place pruning (reference
        # _create_and_filter_tessellation): a tessellation cell is kept
        # only while its enclosure still touches a reachable segment —
        # the enclosure→seg_id map comes straight from the polygonizer;
        # the scan runs in a task, only the kept ids reach the driver
        kept_enc = ray.get(_kept_enclosures.remote(
            enclosures, frozenset(int(s) for s in kept_segments)))
        d_tess = tess_max.map_batches(
            lambda b, ke=kept_enc:
            b[np.isin(b["enclosure_index"].to_numpy(), ke)],
            batch_format="pandas")
        d_tess = d_tess.materialize()
        pp = place_to_place_edges(d_tess)
        mm = dual_graph(d_edges.map_batches(
            lambda b: pd.DataFrame({"edge_id": b["seg_id"], "src": b["src"],
                                    "dst": b["dst"]}), batch_format="pandas"))
        pm = place_to_movement_edges(buildings, segments.map_batches(
            lambda b, kept=frozenset(kept_segments):
            b[b["seg_id"].isin(kept)], batch_format="pandas"),
            max_connection_distance=pm_max_distance)
        out[dist] = {"segment_edges": d_edges, "tessellation": d_tess,
                     "place_place": pp, "movement_movement": mm,
                     "place_movement": pm}
    return out
