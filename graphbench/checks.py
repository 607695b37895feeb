"""Output checks for the spatial-graph benchmark, apart from the engine.

Each check takes the engine's output as a ``pyarrow.Table`` and the
generated truth as numpy arrays, recomputes what the output must be
with numpy / pyarrow only, and returns a list of failure messages (empty
when the output is right).  Nothing here imports the engine.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa


def _col(t: pa.Table, name: str) -> np.ndarray:
    return t.column(name).to_numpy(zero_copy_only=False)


def _index_of(ids: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Positions of ``wanted`` in the id array ``ids`` (-1 when absent)."""
    order = np.argsort(ids, kind="stable")
    pos = np.searchsorted(ids, wanted, sorter=order)
    pos = np.clip(pos, 0, max(len(ids) - 1, 0))
    hit = order[pos] if len(ids) else np.zeros(len(wanted), np.int64)
    return np.where(len(ids) and (ids[hit] == wanted), hit, -1)


def _dist(ax, ay, bx, by):
    dx = ax - bx
    dy = ay - by
    return np.sqrt(dx * dx + dy * dy)


def _pairs_key(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack([np.asarray(a, np.int64), np.asarray(b, np.int64)], axis=1)


def _same_pairs(got: np.ndarray, want: np.ndarray, what: str) -> list[str]:
    g = {tuple(r) for r in got.tolist()}
    w = {tuple(r) for r in want.tolist()}
    if g == w and len(got) == len(want):
        return []
    return [f"{what}: {len(got)} rows, {len(want)} expected; "
            f"{len(w - g)} missing, {len(g - w)} unexpected"]


# ------------------------------------------------------------ proximity

def check_knn(edges: pa.Table, ids, xs, ys, k: int, samples: int = 64,
              seed: int = 0) -> list[str]:
    """Exactly ``k`` rows per source, no self-loops, and for sampled
    sources the brute-force (distance, id) ranking."""
    src, dst, dist = _col(edges, "src"), _col(edges, "dst"), _col(edges, "distance")
    errs = []
    counts = np.bincount(_index_of(ids, src) + 1, minlength=len(ids) + 1)
    if counts[0]:
        errs.append(f"knn: {counts[0]} rows with an unknown source")
    bad = np.flatnonzero(counts[1:] != k)
    if bad.size:
        errs.append(f"knn: {bad.size} sources without exactly {k} rows "
                    f"(e.g. id {ids[bad[0]]} has {counts[bad[0] + 1]})")
    if (src == dst).any():
        errs.append(f"knn: {int((src == dst).sum())} self-loops")
    order = np.lexsort((dst, dist, src))
    src, dst, dist = src[order], dst[order], dist[order]
    rng = np.random.default_rng(seed)
    for i in rng.choice(len(ids), min(samples, len(ids)), replace=False):
        d = _dist(xs[i], ys[i], xs, ys)
        d[i] = np.inf
        top = np.lexsort((ids, d))[:k]
        lo, hi = np.searchsorted(src, ids[i], "left"), np.searchsorted(src, ids[i], "right")
        if not (np.array_equal(dst[lo:hi], ids[top])
                and np.array_equal(dist[lo:hi], d[top])):
            errs.append(f"knn: neighbours of id {ids[i]} differ from the "
                        "brute-force ranking")
            break
    return errs


def grid_pair_count(xs, ys, r: float) -> int:
    """Pairs within ``r``, counted by bucketing points into cells of side
    ``r`` and comparing each cell with its eight neighbours."""
    ix = np.floor(xs / r).astype(np.int64)
    iy = np.floor(ys / r).astype(np.int64)
    key = ix * (1 << 32) + iy
    order = np.argsort(key, kind="stable")
    skey = key[order]
    total = 0
    for ddx in (-1, 0, 1):
        for ddy in (-1, 0, 1):
            nb = (ix + ddx) * (1 << 32) + (iy + ddy)
            lo = np.searchsorted(skey, nb, "left")
            hi = np.searchsorted(skey, nb, "right")
            cnt = hi - lo
            a = np.repeat(np.arange(len(xs)), cnt)
            b = order[np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt)
                      + np.repeat(lo, cnt)]
            keep = a < b
            a, b = a[keep], b[keep]
            total += int((_dist(xs[a], ys[a], xs[b], ys[b]) <= r).sum())
    return total


def check_radius(edges: pa.Table, ids, xs, ys, r: float) -> list[str]:
    """Every pair within ``r`` (recomputed), ``src < dst``, no
    duplicates, and as many pairs as the grid-bucket count."""
    src, dst = _col(edges, "src"), _col(edges, "dst")
    errs = []
    a, b = _index_of(ids, src), _index_of(ids, dst)
    if (a < 0).any() or (b < 0).any():
        return [f"radius: {int((a < 0).sum() + (b < 0).sum())} unknown ids"]
    d = _dist(xs[a], ys[a], xs[b], ys[b])
    if (d > r).any():
        errs.append(f"radius: {int((d > r).sum())} pairs farther than {r}")
    if not (src < dst).all():
        errs.append(f"radius: {int((src >= dst).sum())} rows with src >= dst")
    if len(np.unique(_pairs_key(src, dst), axis=0)) != len(src):
        errs.append("radius: duplicate pairs")
    want = grid_pair_count(xs, ys, r)
    if len(src) != want:
        errs.append(f"radius: {len(src)} pairs, grid-bucket count {want}")
    return errs


def check_queen(edges: pa.Table, bldg_id, col, row) -> list[str]:
    """Queen pairs are the occupied grid squares that touch, edge or
    corner: the pair set derived from the generated occupancy."""
    cell = {(c, r): i for i, c, r in zip(bldg_id.tolist(), col.tolist(), row.tolist())}
    want = []
    for (c, r), i in cell.items():
        for dc, dr in ((1, -1), (1, 0), (1, 1), (0, 1)):
            j = cell.get((c + dc, r + dr))
            if j is not None:
                want.append((min(i, j), max(i, j)))
    got = _pairs_key(_col(edges, "src"), _col(edges, "dst"))
    return _same_pairs(got, np.asarray(want, np.int64).reshape(-1, 2), "queen")


def check_groups(groups: pa.Table, pt_id, xs, ys, bldg_id, col, row,
                 side: float) -> list[str]:
    """Each point belongs to the square ``floor(coord / side)`` when that
    square is occupied (a point on a shared edge to every square whose
    closed boundary holds it)."""
    cell = {(c, r): i for i, c, r in zip(bldg_id.tolist(), col.tolist(), row.tolist())}
    want = []
    ix, iy = np.floor(xs / side).astype(np.int64), np.floor(ys / side).astype(np.int64)
    for p, x, y, cx, cy in zip(pt_id.tolist(), xs.tolist(), ys.tolist(),
                               ix.tolist(), iy.tolist()):
        cxs = [cx, cx - 1] if x == cx * side else [cx]
        cys = [cy, cy - 1] if y == cy * side else [cy]
        for c in cxs:
            for r in cys:
                if (c, r) in cell:
                    want.append((cell[(c, r)], p))
    got = _pairs_key(_col(groups, "poly_id"), _col(groups, "point_id"))
    return _same_pairs(got, np.asarray(want, np.int64).reshape(-1, 2), "group_nodes")


# ------------------------------------------------------------ morphology

def raster_centres(lo: float, hi: float, res: float) -> tuple[np.ndarray, np.ndarray]:
    """(index, centre) of the raster columns whose centres lie strictly
    inside ``(lo, hi)`` — the zonal tessellation's raster."""
    idx = np.arange(np.floor(lo / res), np.ceil(hi / res) + 1)
    c = (idx + 0.5) * res
    keep = (c > lo) & (c < hi)
    return idx[keep].astype(np.int64), c[keep]


def brute_tessellation(bx, by, bid, x0, y0, size, res):
    """Nearest-seed raster Voronoi of one block: (cell_ix, cell_iy,
    seed rank, bldg_id) with seeds ranked by (x, y, id)."""
    order = np.lexsort((bid, by, bx))
    bx, by, bid = bx[order], by[order], bid[order]
    ix, cx = raster_centres(x0, x0 + size, res)
    iy, cy = raster_centres(y0, y0 + size, res)
    gx, gy = np.meshgrid(cx, cy)
    gix, giy = np.meshgrid(ix, iy)
    px, py = gx.ravel(), gy.ravel()
    d2 = (px[:, None] - bx[None, :]) ** 2 + (py[:, None] - by[None, :]) ** 2
    seed = np.argmin(d2, axis=1)
    return gix.ravel(), giy.ravel(), seed, bid[seed]


def check_morphology(layers: dict[str, pa.Table], truth: dict, res: float,
                     cap: float, samples: int = 6, seed: int = 0) -> list[str]:
    errs = []
    b, size = int(truth["blocks"]), float(truth["block"])
    seg = truth["seg_xy"]
    n_nodes, n_edges = (b + 1) ** 2, 2 * b * (b + 1)
    if layers["segment_nodes"].num_rows != n_nodes:
        errs.append(f"segment_nodes: {layers['segment_nodes'].num_rows} rows, "
                    f"grid has {n_nodes}")
    if layers["segment_edges"].num_rows != n_edges:
        errs.append(f"segment_edges: {layers['segment_edges'].num_rows} rows, "
                    f"grid has {n_edges}")
    ends = np.concatenate([seg[:, :2], seg[:, 2:]])
    _, deg = np.unique(ends, axis=0, return_counts=True)
    want_mm = int((deg * (deg - 1) // 2).sum())
    if layers["movement_movement"].num_rows != want_mm:
        errs.append(f"movement_movement: {layers['movement_movement'].num_rows} "
                    f"rows, sum of C(deg, 2) is {want_mm}")

    bx, by, bid = truth["bldg_x"], truth["bldg_y"], truth["bldg_id"]
    blk = truth["bldg_block"]
    x0 = (blk % b) * size
    y0 = (blk // b) * size
    sides = np.stack([bx - x0, x0 + size - bx, by - y0, y0 + size - by], axis=1)
    near = sides.min(axis=1)
    pm = layers["place_movement"]
    pid, pdist, pseg = _col(pm, "id"), _col(pm, "distance"), _col(pm, "seg_id")
    want_ids = bid[near <= cap]
    if len(pid) != len(np.unique(pid)) or set(pid.tolist()) != set(want_ids.tolist()):
        errs.append(f"place_movement: {len(pid)} rows for {len(np.unique(pid))} "
                    f"buildings, {len(want_ids)} buildings within {cap}")
    else:
        at = _index_of(bid, pid)
        if np.abs(pdist - near[at]).max(initial=0.0) > 1e-9:
            errs.append("place_movement: distance differs from the analytic "
                        "distance to the nearest street")
        sx = seg[pseg]
        mid = (sx[:, :2] + sx[:, 2:]) / 2.0
        seg_d = np.where(sx[:, 0] == sx[:, 2], np.abs(bx[at] - sx[:, 0]),
                         np.abs(by[at] - sx[:, 1]))
        inside = ((np.abs(mid[:, 0] - (x0[at] + size / 2)) <= size / 2)
                  & (np.abs(mid[:, 1] - (y0[at] + size / 2)) <= size / 2))
        if not (inside & (np.abs(seg_d - near[at]) <= 1e-9)).all():
            errs.append("place_movement: a building is linked to a street "
                        "that is not its nearest block side")

    tess = layers["tessellation"]
    held = np.unique(blk)
    per_block = len(raster_centres(0.0, size, res)[0]) ** 2
    want_cells = sum(len(raster_centres(xx, xx + size, res)[0])
                     * len(raster_centres(yy, yy + size, res)[0])
                     for xx, yy in zip((held % b) * size, (held // b) * size))
    if tess.num_rows != want_cells:
        errs.append(f"tessellation: {tess.num_rows} cells, the {len(held)} "
                    f"enclosures holding a building have {want_cells} "
                    f"(~{per_block} each)")
        return errs

    t_eid, t_bid = _col(tess, "enclosure_index"), _col(tess, "bldg_id")
    t_ix, t_iy = _col(tess, "cell_ix"), _col(tess, "cell_iy")
    pp = layers["place_place"]
    pp_src, pp_dst = _col(pp, "src").astype(str), _col(pp, "dst").astype(str)
    pp_eid = _col(pp, "enclosure_index")
    rng = np.random.default_rng(seed)
    many = [k for k in held if (blk == k).sum() >= 2]
    for k in rng.choice(many, min(samples, len(many)), replace=False):
        m = blk == k
        ix, iy, rank, owner = brute_tessellation(
            bx[m], by[m], bid[m], (k % b) * size, (k // b) * size, size, res)
        rows = np.isin(t_bid, bid[m])
        eids = np.unique(t_eid[rows])
        if len(eids) != 1:
            errs.append(f"tessellation: block {k} spans {len(eids)} enclosures")
            continue
        eid = int(eids[0])
        got = {(a, c): o for a, c, o in zip(t_ix[rows].tolist(), t_iy[rows].tolist(),
                                            t_bid[rows].tolist())}
        want = dict(zip(zip(ix.tolist(), iy.tolist()), owner.tolist()))
        if got != want:
            errs.append(f"tessellation: block {k} differs from the brute-force "
                        "raster Voronoi")
            continue
        tid = np.array([f"{eid}_{s}" for s in rank])
        grid = {(a, c): t for a, c, t in zip(ix.tolist(), iy.tolist(), tid.tolist())}
        want_pp = set()
        for (a, c), t in grid.items():
            for nb in ((a + 1, c), (a, c + 1)):
                u = grid.get(nb)
                if u is not None and u != t:
                    want_pp.add((min(t, u), max(t, u)))
        sel = pp_eid == eid
        got_pp = set(zip(pp_src[sel].tolist(), pp_dst[sel].tolist()))
        if got_pp != want_pp or sel.sum() != len(want_pp):
            errs.append(f"place_place: enclosure {eid} has {int(sel.sum())} "
                        f"pairs, brute force {len(want_pp)}")
    return errs


# ------------------------------------------------------------ corpus

def check_corpus(spans: pa.Table, docs: pa.Table, geo_id, geo_x, geo_y) -> list[str]:
    """Each geometry span is re-attached to its own document with the
    span sequence it was generated with, and its coordinates are the
    generated ones bit for bit."""
    errs = []
    want_docs = np.array([f"doc-{i}" for i in geo_id.tolist()])
    got_docs = _col(spans, "doc_id").astype(str)
    if sorted(got_docs.tolist()) != sorted(want_docs.tolist()):
        return [f"corpus: {len(got_docs)} rejoined rows, {len(want_docs)} "
                "geometry documents generated"]
    original = dict(zip(docs.column("doc_id").to_pylist(),
                        docs.column("spans").to_pylist()))
    changed = sum(original[d] != s for d, s in
                  zip(got_docs.tolist(), spans.column("spans").to_pylist()))
    if changed:
        errs.append(f"corpus: {changed} documents' span sequences changed")
    at = np.argsort(got_docs)
    wt = np.argsort(want_docs)
    x, y = _col(spans, "x")[at], _col(spans, "y")[at]
    coords = np.stack(spans.column("coords").to_numpy(zero_copy_only=False)[at])
    gx, gy = geo_x[wt], geo_y[wt]
    moved = ((x.view(np.int64) != gx.view(np.int64))
             | (y.view(np.int64) != gy.view(np.int64))
             | (coords[:, 0].view(np.int64) != gx.view(np.int64))
             | (coords[:, 1].view(np.int64) != gy.view(np.int64)))
    if moved.any():
        errs.append(f"corpus: {int(moved.sum())} coordinates differ from the "
                    "generated ones")
    return errs


# ------------------------------------------------------------ checkpoint

def _canonical_rows(t: pa.Table) -> list[str]:
    cols = sorted(t.column_names)
    return sorted(json.dumps([r[c] for c in cols], default=str, sort_keys=True)
                  for r in t.select(cols).to_pylist())


def same_multiset(built: pa.Table, loaded: pa.Table) -> list[str]:
    """The loaded rows equal the built rows as an order-free multiset
    (column order and Arrow types may differ; values may not)."""
    if sorted(built.column_names) != sorted(loaded.column_names):
        return [f"checkpoint: columns {sorted(loaded.column_names)}, built "
                f"{sorted(built.column_names)}"]
    if built.num_rows != loaded.num_rows:
        return [f"checkpoint: {loaded.num_rows} rows loaded, {built.num_rows} built"]
    loaded = loaded.select(built.column_names)
    flat = all(pa.types.is_integer(f.type) or pa.types.is_floating(f.type)
               for f in built.schema)
    if flat:
        a = np.stack([_col(built, c).astype(np.float64) for c in built.column_names])
        b = np.stack([_col(loaded, c).astype(np.float64) for c in built.column_names])
        a = a[:, np.lexsort(a[::-1])]
        b = b[:, np.lexsort(b[::-1])]
        same = a.view(np.int64).tobytes() == b.view(np.int64).tobytes()
    else:
        same = _canonical_rows(built) == _canonical_rows(loaded)
    return [] if same else ["checkpoint: loaded rows differ from the built rows"]


def check_resume(removed: set, rewritten: set, summary: dict,
                 partitions: int) -> list[str]:
    """After the resume exactly the removed partitions were written and
    every other one was skipped."""
    errs = []
    if rewritten != removed:
        errs.append(f"resume: rewrote {sorted(rewritten)[:5]}..., removed "
                    f"{sorted(removed)[:5]}... ({len(rewritten)} vs {len(removed)})")
    written = summary["partitions"] - summary["skipped"]
    if written != len(removed) or summary["partitions"] != partitions:
        errs.append(f"resume: wrote {written} of {summary['partitions']} "
                    f"partitions, {len(removed)} of {partitions} were removed")
    return errs
