"""Overture street-segment processing.

Reference: /root/reference/city2graph/data.py —
``process_overture_segments`` :296-378 orchestrates
``_split_segments_at_connectors`` :577-702 (per-row substring splits,
ids suffixed ``{id}_{part}``), ``_parse_connector_records`` /
``_parse_level_rules`` :705-732/:866-918 (permissive JSON),
``_generate_barrier_geometries`` :806-1014 (passable sub-linestrings =
complement of barrier intervals), ``_cluster_segment_endpoints``
:735-803 (grid-bin mean snap — the one non-row-local step: a global
groupby on the bin key, then a join back).

All row-local ops are stateless map_batches (flat-map shape for the
splitter); endpoint clustering is the engine's grid-snap aggregate
archetype.
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import ray
import ray.data

from city2graph_ray import shuffle
from city2graph_ray.geom.kernels import linestring_length, substring
from city2graph_ray.joins import broadcast_map


def parse_json_permissive(s) -> list:
    """Reference's permissive JSON repair (data.py:727,901):
    single quotes → double, None → null; failures → []."""
    if s is None or (isinstance(s, float) and np.isnan(s)):
        return []
    if isinstance(s, (list, tuple)):
        return list(s)
    try:
        return json.loads(str(s).replace("'", '"').replace("None", "null"))
    except (json.JSONDecodeError, TypeError):
        return []


def split_segments_at_connectors(segments: ray.data.Dataset,
                                 id_col: str = "seg_id") -> ray.data.Dataset:
    """One row → k rows: split each LineString at its connectors'
    fractional positions (``at`` ∈ [0,1] of arc length); part ids are
    ``f"{id}_{part}"`` when a split happens, the original id otherwise
    (reference data.py:577-702, suffix :691-694).  Purely row-local."""

    def splitter(batch: pd.DataFrame) -> pd.DataFrame:
        # per-row work is irreducible (JSON parse + arc substring), but
        # row replication is vectorized: collect (row_idx, piece, id,
        # part) then one .iloc fancy-index instead of per-column appends
        ids = batch[id_col].tolist()
        conns = (batch["connectors"].tolist() if "connectors" in batch
                 else [None] * len(batch))
        row_idx, parts, pieces, new_ids = [], [], [], []
        for i, (cid, coords, conn) in enumerate(
                zip(ids, batch["coords"], conns)):
            coords = np.asarray(coords, np.float64)
            total = linestring_length(coords)
            ats = sorted({float(c.get("at", 0.0))
                          for c in parse_json_permissive(conn)
                          if isinstance(c, dict)} - {0.0, 1.0})
            cuts = [0.0, *[a * total for a in ats], total]
            multi = len(cuts) > 2
            for p in range(len(cuts) - 1):
                row_idx.append(i)
                parts.append(p)
                pieces.append(substring(coords, cuts[p], cuts[p + 1]))
                new_ids.append(f"{cid}_{p}" if multi else str(cid))
        out = batch.iloc[row_idx].reset_index(drop=True)
        out["coords"] = pieces
        out[id_col] = new_ids
        out["split_part"] = np.asarray(parts, dtype=np.int64)
        return out

    return segments.map_batches(splitter, batch_format="pandas")


def barrier_geometries(segments: ray.data.Dataset) -> ray.data.Dataset:
    """``barrier_geometry`` per row: the passable sub-linestrings —
    the complement of level_rules barrier intervals (reference
    data.py:806-1014).  Rules: [] → whole geometry passable;
    a rule with value≠0 and no ``between`` → fully impassable (None);
    value≠0 with ``between=[a,b]`` → remove that arc fraction.
    Output adds ``barrier_coords`` (list of flat coord arrays, possibly
    empty) and ``is_fully_barrier``."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        passable_list, fully = [], []
        rules_col = (batch["level_rules"].tolist() if "level_rules" in batch
                     else [None] * len(batch))
        for coords, rules_raw in zip(batch["coords"], rules_col):
            coords = np.asarray(coords, np.float64)
            total = linestring_length(coords)
            rules = parse_json_permissive(rules_raw)
            intervals = []
            full_block = False
            for r in rules:
                if not isinstance(r, dict) or not r.get("value"):
                    continue
                between = r.get("between")
                if between is None:
                    full_block = True
                    break
                a, b = sorted((float(between[0]), float(between[1])))
                intervals.append((max(a, 0.0) * total, min(b, 1.0) * total))
            if full_block:
                passable_list.append([])
                fully.append(True)
                continue
            if not intervals:
                passable_list.append([coords])
                fully.append(False)
                continue
            intervals.sort()
            merged = [list(intervals[0])]
            for a, b in intervals[1:]:
                if a <= merged[-1][1]:
                    merged[-1][1] = max(merged[-1][1], b)
                else:
                    merged.append([a, b])
            pieces = []
            pos = 0.0
            for a, b in merged:
                if a - pos > 1e-9:
                    pieces.append(substring(coords, pos, a))
                pos = b
            if total - pos > 1e-9:
                pieces.append(substring(coords, pos, total))
            passable_list.append(pieces)
            fully.append(False)
        out = batch.copy()
        out["barrier_coords"] = passable_list
        out["is_fully_barrier"] = fully
        return out

    return segments.map_batches(fn, batch_format="pandas")


def cluster_segment_endpoints(segments: ray.data.Dataset, threshold: float,
                              id_col: str = "seg_id") -> ray.data.Dataset:
    """Snap endpoints to the mean of their grid bin (bin =
    floor(coord/threshold + 0.5) — floor-plus-half, NOT banker's
    rounding, so the SQL oracle reproduces it); the reference's
    groupby-transform
    (data.py:780-787) becomes: endpoints → group_agg(bin) mean →
    broadcast bin→centroid map → rewrite endpoint coords in
    map_batches.  Interior vertices are untouched.

    The bin mean sums coordinates QUANTIZED to int64 at 2⁻²⁰
    (floor-plus-half) and divides once: integer sums are
    association-order-free, so the centroid is bit-identical across
    block orders, cluster layouts and the SQL twin — a float sum
    diverged by 1 ulp between the engine's partial sums and DuckDB's
    avg() at sf0.1 bin sizes (r5 finding) and flipped 6-decimal
    rounding.  Quantization error ≤ 2⁻²¹ per endpoint (≈ 5·10⁻⁷
    length units), far below the snap threshold's meaning."""
    _Q = 1048576.0  # 2^20

    def eps(batch: pd.DataFrame) -> pd.DataFrame:
        rows = {"bx": [], "by": [], "qx": [], "qy": []}
        for c in batch["coords"]:
            c = np.asarray(c, np.float64)
            for px, py in ((c[0], c[1]), (c[-2], c[-1])):
                rows["bx"].append(int(np.floor(px / threshold + 0.5)))
                rows["by"].append(int(np.floor(py / threshold + 0.5)))
                rows["qx"].append(int(np.floor(px * _Q + 0.5)))
                rows["qy"].append(int(np.floor(py * _Q + 0.5)))
        return pd.DataFrame(rows)

    sums = shuffle.group_agg(
        segments.map_batches(eps, batch_format="pandas"), ["bx", "by"],
        {"sx": ("qx", "sum"), "sy": ("qy", "sum"), "n": ("qx", "size")})
    cent = sums.to_pandas()
    cent["cx"] = cent["sx"] / (cent["n"] * _Q)
    cent["cy"] = cent["sy"] / (cent["n"] * _Q)
    cmap = {(int(r.bx), int(r.by)): (r.cx, r.cy) for r in cent.itertuples()}

    def snap(batch: pd.DataFrame, cmap: dict) -> pd.DataFrame:
        out_coords = []
        for c in batch["coords"]:
            c = np.asarray(c, np.float64).copy()
            for i0, i1 in ((0, 1), (len(c) - 2, len(c) - 1)):
                key = (int(np.floor(c[i0] / threshold + 0.5)),
                       int(np.floor(c[i1] / threshold + 0.5)))
                if key in cmap:
                    c[i0], c[i1] = cmap[key]
            out_coords.append(c)
        out = batch.copy()
        out["coords"] = out_coords
        return out

    return broadcast_map(segments, cmap, snap)


def deterministic_jitter(segments: ray.data.Dataset, magnitude: float = 1e-3,
                         salt: int = 0) -> ray.data.Dataset:
    """Deterministic hash-based sub-unit vertex jitter (reference
    utils/spatial.py:2282-2366): offset is a pure function of the
    coordinate + salt, so shared vertices (party walls) move
    identically on every worker — the property the tessellation retry
    ladder depends on."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        out_coords = []
        for c in batch["coords"]:
            c = np.asarray(c, np.float64).reshape(-1, 2).copy()
            hx = np.sin(c[:, 0] * 12.9898 + c[:, 1] * 78.233 + salt) * 43758.5453
            hy = np.sin(c[:, 0] * 39.3468 + c[:, 1] * 11.135 + salt) * 24634.6345
            c[:, 0] += (hx - np.floor(hx) - 0.5) * 2 * magnitude
            c[:, 1] += (hy - np.floor(hy) - 0.5) * 2 * magnitude
            out_coords.append(c.reshape(-1))
        out = batch.copy()
        out["coords"] = out_coords
        return out

    return segments.map_batches(fn, batch_format="pandas")


def process_overture_segments(segments: ray.data.Dataset,
                              connector_threshold: float | None = None,
                              id_col: str = "seg_id") -> ray.data.Dataset:
    """The composed pipeline (reference process_overture_segments
    data.py:296-378): split at connectors → optional endpoint
    clustering → barrier geometries → length column."""
    out = split_segments_at_connectors(segments, id_col=id_col)
    if connector_threshold:
        out = cluster_segment_endpoints(out, connector_threshold, id_col=id_col)
    out = barrier_geometries(out)

    def lengths(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["length"] = [linestring_length(np.asarray(c))
                           for c in batch["coords"]]
        return batch

    return out.map_batches(lengths, batch_format="pandas")


def prepare_barriers(segments: ray.data.Dataset,
                     id_col: str = "seg_id") -> ray.data.Dataset:
    """Reference _prepare_barriers (morphology.py:2513-2563): prefer the
    alternative barrier geometry (the passable pieces from
    ``barrier_geometries``) over the raw geometry, drop empty /
    fully-impassable rows, explode multi-piece rows (ids suffixed
    ``_p{i}``).  Output: (seg_id, coords) ready for enclosure
    polygonization."""
    has_barrier = "barrier_coords" in segments.schema().names

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        out_ids, out_coords = [], []
        ids = batch[id_col].tolist()
        if has_barrier:
            piece_col = batch["barrier_coords"].tolist()
            full_col = batch["is_fully_barrier"].tolist()
        else:
            piece_col = [[c] for c in batch["coords"]]
            full_col = [False] * len(batch)
        for rid, pieces, full in zip(ids, piece_col, full_col):
            if full or pieces is None or len(pieces) == 0:
                continue
            multi = len(pieces) > 1
            for i, piece in enumerate(pieces):
                piece = np.asarray(piece, np.float64)
                if len(piece) < 4:
                    continue
                out_ids.append(f"{rid}_p{i}" if multi else str(rid))
                out_coords.append(piece)
        return pd.DataFrame({id_col: out_ids, "coords": out_coords})

    return segments.map_batches(fn, batch_format="pandas")


def segment_intersections(segs: ray.data.Dataset, cell_size: float,
                          num_buckets: int = shuffle.DEFAULT_BUCKETS,
                          ) -> ray.data.Dataset:
    """Segment-segment PROPER-crossing join: all unordered pairs of
    2-point segments that strictly cross (shared endpoints, T-touches
    and collinear overlaps are NOT crossings — the predicate is the
    strict orientation test, four signed areas with both products
    negative, so it is bit-reproducible in SQL with the same float
    arithmetic).

    Input rows (seg_id:int64, ax, ay, bx, by); output
    (seg_a, seg_b, px, py) with seg_a < seg_b and (px, py) the
    crossing point ``A + t(B-A)``, t from the standard r×s form —
    the same expression tree the DuckDB twin evaluates, so the floats
    compare bit-exact.

    Scale shape: each segment's bbox is duplicated into the grid cells
    it covers (``cells.covering_cells``) and pairs are tested per cell
    with blockwise-broadcast numpy; a pair is emitted ONLY by the cell
    containing its crossing point — a proper crossing has exactly one,
    and that point lies inside both bboxes, so exactly one covered
    cell of both segments owns the pair.  Exactly-once emission with
    NO dedup shuffle: total shuffle bytes = bbox-cover duplication
    (∝ segment length / cell_size), and the one exchange is the
    grouped transform on the cell key."""
    from city2graph_ray import cells

    def to_cells(b: pd.DataFrame) -> pd.DataFrame:
        ax = b["ax"].to_numpy(np.float64)
        ay = b["ay"].to_numpy(np.float64)
        bx = b["bx"].to_numpy(np.float64)
        by = b["by"].to_numpy(np.float64)
        rows, cl = cells.covering_cells(
            np.minimum(ax, bx), np.minimum(ay, by),
            np.maximum(ax, bx), np.maximum(ay, by), cell_size)
        out = b.iloc[rows][["seg_id", "ax", "ay", "bx", "by"]].copy()
        out["cell"] = cl
        return out

    dup = segs.map_batches(to_cells, batch_format="pandas")

    empty = pd.DataFrame({"seg_a": pd.Series(dtype=np.int64),
                          "seg_b": pd.Series(dtype=np.int64),
                          "px": pd.Series(dtype=np.float64),
                          "py": pd.Series(dtype=np.float64)})

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        outs = [empty]
        for cell_val, grp in g.groupby("cell", sort=False):
            n = len(grp)
            if n < 2:
                continue
            ids = grp["seg_id"].to_numpy(np.int64)
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            P = grp[["ax", "ay", "bx", "by"]].to_numpy(np.float64)[order]
            bs = max(1, 4_000_000 // n)  # bound block memory at ~O(4M)
            jr = np.arange(n)
            for s0 in range(0, n - 1, bs):
                s1 = min(s0 + bs, n)
                A = P[s0:s1]
                ax = A[:, 0:1]; ay = A[:, 1:2]
                bx = A[:, 2:3]; by = A[:, 3:4]
                cx = P[None, :, 0]; cy = P[None, :, 1]
                dx = P[None, :, 2]; dy = P[None, :, 3]
                d1 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
                d2 = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax)
                d3 = (dx - cx) * (ay - cy) - (dy - cy) * (ax - cx)
                d4 = (dx - cx) * (by - cy) - (dy - cy) * (bx - cx)
                proper = (jr[None, :] > jr[s0:s1, None]) & \
                    (d1 * d2 < 0) & (d3 * d4 < 0)
                ii, jj = np.nonzero(proper)
                if len(ii) == 0:
                    continue
                gi = ii + s0
                aX = P[gi, 0]; aY = P[gi, 1]; bX = P[gi, 2]; bY = P[gi, 3]
                cX = P[jj, 0]; cY = P[jj, 1]; dX = P[jj, 2]; dY = P[jj, 3]
                t = ((cX - aX) * (dY - cY) - (cY - aY) * (dX - cX)) / \
                    ((bX - aX) * (dY - cY) - (bY - aY) * (dX - cX))
                px = aX + t * (bX - aX)
                py = aY + t * (bY - aY)
                home = cells.cell_id(px, py, cell_size) == cell_val
                if not home.any():
                    continue
                outs.append(pd.DataFrame({
                    "seg_a": ids[gi[home]], "seg_b": ids[jj[home]],
                    "px": px[home], "py": py[home]}))
        return pd.concat(outs, ignore_index=True)

    return shuffle.grouped_transform(dup, ["cell"], kernel,
                                     num_buckets=num_buckets)


def densify_segments(segs: ray.data.Dataset, spacing: float,
                     id_col: str = "seg_id",
                     max_points_per_seg: int = 1 << 20,
                     ) -> ray.data.Dataset:
    """Fixed-spacing line interpolation (GEOS ``segmentize`` /
    map-matching resampler): for each segment (ax, ay)→(bx, by) emit
    points at arc distances ``0, spacing, 2·spacing, …`` — i.e.
    ``i = 0..floor(len/spacing)`` with ``t = (i·spacing)/len``,
    ``p = a + (b−a)·t``.  Degenerate zero-length segments emit their
    single point at i=0.

    Embarrassingly parallel (one vectorized explode per batch, no
    shuffle); each expression (sqrt of the exact dot, one multiply,
    one divide, one fma-free add) is written identically in the SQL
    twin, so outputs are bit-exact for power-of-two ``spacing``.
    ``max_points_per_seg`` guards a worker's heap against a
    pathological len/spacing ratio (raise — never silently truncate).
    Output: (id, i, px, py).
    """
    sp = float(spacing)

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        ax = b["ax"].to_numpy(np.float64)
        ay = b["ay"].to_numpy(np.float64)
        bx = b["bx"].to_numpy(np.float64)
        by = b["by"].to_numpy(np.float64)
        ids = b[id_col].to_numpy(np.int64)
        dx, dy = bx - ax, by - ay
        ln = np.sqrt(dx * dx + dy * dy)
        n = np.floor(ln / sp).astype(np.int64) + 1  # points incl. i=0
        if len(n) and int(n.max()) > max_points_per_seg:
            raise ValueError("segment emits too many points; raise "
                             "max_points_per_seg or spacing")
        idx = np.repeat(np.arange(len(ids), dtype=np.int64), n)
        i = (np.arange(int(n.sum()), dtype=np.int64)
             - np.repeat(np.cumsum(n) - n, n))
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(ln[idx] > 0.0, (i * sp) / ln[idx], 0.0)
        return pd.DataFrame({
            id_col: ids[idx], "i": i,
            "px": ax[idx] + dx[idx] * t,
            "py": ay[idx] + dy[idx] * t})

    return segs.map_batches(fn, batch_format="pandas")


def orientation_histogram(segments: ray.data.Dataset,
                          sx: str = "sx", sy: str = "sy",
                          dx: str = "dx_", dy: str = "dy_",
                          scale: float = 100.0,
                          num_buckets: int = 8) -> ray.data.Dataset:
    """Street-orientation histogram (momepy/OSMnx-style bearing
    analysis, undirected): each segment's direction vector is
    normalized to the upper half-plane and classified into the four
    45° orientation bins [0,45) [45,90) [90,135) [135,180) with PURE
    INTEGER comparisons on the quantized deltas — no atan2, no float
    boundary, so a CASE-expression SQL twin is bit-exact.
    Zero-length segments are dropped.  Per-block partial counts →
    one 4-row keyed sum.  Output (bin, n)."""
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        ax = np.floor(b[sx].to_numpy(np.float64) * scale + 0.5
                      ).astype(np.int64)
        ay = np.floor(b[sy].to_numpy(np.float64) * scale + 0.5
                      ).astype(np.int64)
        bx = np.floor(b[dx].to_numpy(np.float64) * scale + 0.5
                      ).astype(np.int64)
        by = np.floor(b[dy].to_numpy(np.float64) * scale + 0.5
                      ).astype(np.int64)
        ddx = bx - ax
        ddy = by - ay
        keep = (ddx != 0) | (ddy != 0)
        ddx, ddy = ddx[keep], ddy[keep]
        flip = (ddy < 0) | ((ddy == 0) & (ddx < 0))
        ux = np.where(flip, -ddx, ddx)
        uy = np.where(flip, -ddy, ddy)
        b0 = (ux > 0) & (uy < ux)
        b1 = (ux > 0) & (uy >= ux)
        b2 = (ux <= 0) & (uy > -ux)
        bins = np.where(b0, 0, np.where(b1, 1, np.where(b2, 2, 3)))
        return (pd.DataFrame({"bin": bins.astype(np.int64)})
                .groupby("bin", sort=False).size()
                .rename("n").reset_index())

    return shuffle.group_agg(
        segments.map_batches(partial, batch_format="pandas"),
        ["bin"], {"n": ("n", "sum")}, num_buckets=num_buckets,
        partial=False)


def strokes(segs: ray.data.Dataset,
            num_buckets: int = 32) -> ray.data.Dataset:
    """COINS-style continuity strokes (Tripathy et al. 2021 semantics,
    public literature; momepy ``COINS``): merge street segments into
    strokes wherever two segments meeting at a node are each other's
    BEST angular continuation with deflection ≤ 45°.  Input
    ``(seg_id, ax, ay, bx, by)`` integer endpoints; output
    ``(seg_id, stroke)`` with stroke = min seg_id of the stroke.

    Determinism/exactness: outgoing vectors are exact int64; the
    continuation test is ``dot(u,v) < 0 AND cross² ≤ dot²`` and the
    ranking ratio ``cross²/dot²`` is ONE fixed-form double expression
    — identical IEEE arithmetic in the SQL twin — with seg-id
    tie-break.  Links require MUTUAL best (the COINS rule), then
    stroke labels come from large-star/small-star connected
    components; linkless segments self-label through the LEFT
    join-back.

    Distributed shape: ONE keyed shuffle on the shared-endpoint node
    key (per-node kernel is O(deg²) on street-scale degrees), the CC
    rounds, and one bucketed join — no driver geometry anywhere."""
    import pyarrow as pa

    from city2graph_ray.joins import bucketed_join
    from city2graph_ray.ops.topology import connected_components

    def incidence(b: pd.DataFrame) -> pd.DataFrame:
        sid = b["seg_id"].to_numpy(np.int64)
        ax = b["ax"].to_numpy(np.int64)
        ay = b["ay"].to_numpy(np.int64)
        bx = b["bx"].to_numpy(np.int64)
        by = b["by"].to_numpy(np.int64)
        return pd.DataFrame({
            "nx": np.concatenate([ax, bx]),
            "ny": np.concatenate([ay, by]),
            "seg": np.concatenate([sid, sid]),
            "ux": np.concatenate([bx - ax, ax - bx]),
            "uy": np.concatenate([by - ay, ay - by])})

    def node_kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["nx", "ny", "seg"], kind="stable")
        nx = g["nx"].to_numpy(np.int64)
        ny = g["ny"].to_numpy(np.int64)
        seg = g["seg"].to_numpy(np.int64)
        ux = g["ux"].to_numpy(np.int64)
        uy = g["uy"].to_numpy(np.int64)
        n_rows = len(nx)
        if n_rows == 0:
            return pd.DataFrame({"src": np.zeros(0, np.int64),
                                 "dst": np.zeros(0, np.int64)})
        # group runs straight off the sorted (nx, ny) PAIR — a packed
        # single-int key would collide for negative or >=2^20 coords
        # (ADVICE r3), silently merging unrelated intersections
        newgrp = np.concatenate(
            ([True], (nx[1:] != nx[:-1]) | (ny[1:] != ny[:-1])))
        starts = np.nonzero(newgrp)[0]
        sizes = np.diff(np.concatenate([starts, [n_rows]]))
        # ragged ordered pairs within each node (triu + mirror)
        pos = np.arange(n_rows) - np.repeat(starts, sizes)
        reps = np.repeat(sizes, sizes) - 1 - pos
        total = int(reps.sum())
        empty = pd.DataFrame({"src": np.zeros(0, np.int64),
                              "dst": np.zeros(0, np.int64)})
        if not total:
            return empty
        i0 = np.repeat(np.arange(n_rows), reps)
        j0 = i0 + (np.arange(total)
                   - np.repeat(np.cumsum(reps) - reps, reps) + 1)
        pi = np.concatenate([i0, j0])
        pj = np.concatenate([j0, i0])
        dot = ux[pi] * ux[pj] + uy[pi] * uy[pj]
        cross = ux[pi] * uy[pj] - uy[pi] * ux[pj]
        cd = cross.astype(np.float64)
        dd = dot.astype(np.float64)
        ok = (dot < 0) & (cd * cd <= dd * dd) & (seg[pi] != seg[pj])
        if not ok.any():
            return empty
        pi, pj = pi[ok], pj[ok]
        ratio = (cd[ok] * cd[ok]) / (dd[ok] * dd[ok])
        # best candidate per incidence row: min (ratio, partner seg)
        order = np.lexsort((seg[pj], ratio, pi))
        pi_s, pj_s = pi[order], pj[order]
        first = np.concatenate(([True], pi_s[1:] != pi_s[:-1]))
        best = np.full(n_rows, -1, np.int64)
        best[pi_s[first]] = pj_s[first]
        idx = np.arange(n_rows)
        j = best
        valid = j >= 0
        mutual = valid.copy()
        mutual[valid] = (best[j[valid]] == idx[valid]) \
            & (seg[idx[valid]] < seg[j[valid]])
        return pd.DataFrame({"src": seg[idx[mutual]],
                             "dst": seg[best[mutual]]})

    inc = segs.map_batches(incidence, batch_format="pandas")
    links = shuffle.grouped_transform(inc, ["nx", "ny"], node_kernel,
                                      num_buckets=num_buckets)
    labels = connected_components(links)
    seg_ids = shuffle.distinct(
        segs.map_batches(
            lambda b: pd.DataFrame({"node_id": b["seg_id"]
                                    .to_numpy(np.int64)}),
            batch_format="pandas"),
        ["node_id"], num_buckets=num_buckets)
    lab_schema = pa.schema([("node_id", pa.int64()),
                            ("component", pa.int64())])
    joined = bucketed_join(seg_ids, labels, "node_id",
                           num_buckets=num_buckets, how="left",
                           right_schema=lab_schema)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        comp = b["component"].to_numpy(np.float64)
        nid = b["node_id"].to_numpy(np.int64)
        return pd.DataFrame({
            "seg_id": nid,
            "stroke": np.where(np.isnan(comp), nid,
                               np.nan_to_num(comp)).astype(np.int64)})

    return joined.map_batches(finish, batch_format="pandas")
