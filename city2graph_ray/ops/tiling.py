"""Cell-hierarchy operators over the packed grid index — the engine's
H3/S2 parent / k-ring surface (reference has no tiling at all; this is
the scale layer the north rule asks for).

`cell_ring_density` gives every point the total population of its
cell's k-ring: the building block for density screens, hot-core
detection and ring-buffered candidate pruning.  Distributed shape:
one per-cell count (partial-combined keyed sum over ~distinct-cell
rows), a (2k+1)²-way ring explode over the DISTINCT cells only (not
the points), one bucketed join of ring members against the counts,
a per-center re-sum, and one join back to the points on their cell.
Nothing ever shuffles point payloads more than once."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from city2graph_ray import cells, shuffle
from city2graph_ray.budget import fits_driver
from city2graph_ray.joins import bucketed_join


def assign_cells(points: ray.data.Dataset, cell_size: float,
                 x: str = "x", y: str = "y") -> ray.data.Dataset:
    """Append the packed grid ``cell`` id to a point table."""
    def fn(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["cell"] = cells.cell_id(b[x].to_numpy(np.float64),
                                  b[y].to_numpy(np.float64), cell_size)
        return b
    return points.map_batches(fn, batch_format="pandas")


def cell_ring_density(points: ray.data.Dataset, cell_size: float,
                      k: int = 1, factor: int = 4,
                      x: str = "x", y: str = "y", id_col: str = "id",
                      num_buckets: int = shuffle.DEFAULT_BUCKETS,
                      ) -> ray.data.Dataset:
    """Per point: its cell, the ``factor``-coarser parent cell, and the
    total point count within Chebyshev distance ``k`` of its cell
    (including its own).  Output (id, cell, parent, ring_n)."""
    pts = assign_cells(points, cell_size, x=x, y=y).map_batches(
        lambda b: b[[id_col, "cell"]], batch_format="pandas"
    ).materialize()

    counts = shuffle.group_agg(
        pts, ["cell"], {"n": ("cell", "size")},
        num_buckets=num_buckets)

    # SCATTER each occupied cell's count to every cell in its ring
    # (Chebyshev distance is symmetric, so summing received
    # contributions per center equals gathering the center's ring) —
    # one keyed sum instead of a ring⋈counts join plus a re-sum
    def scatter_ring(b: pd.DataFrame) -> pd.DataFrame:
        idx, member = cells.ring_cells(b["cell"].to_numpy(np.int64), k)
        return pd.DataFrame({
            "cell": member,
            "n": b["n"].to_numpy(np.int64)[idx]})

    per_center = shuffle.group_agg(
        counts.map_batches(scatter_ring, batch_format="pandas"),
        ["cell"], {"ring_n": ("n", "sum")}, num_buckets=num_buckets)

    out = bucketed_join(
        pts, per_center, on="cell", num_buckets=num_buckets,
        left_schema=pa.schema([(id_col, pa.int64()),
                               ("cell", pa.int64())]),
        right_schema=pa.schema([("cell", pa.int64()),
                                ("ring_n", pa.int64())]))

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        cell = b["cell"].to_numpy(np.int64)
        return pd.DataFrame({
            id_col: b[id_col].to_numpy(np.int64),
            "cell": cell,
            "parent": cells.parent_cell(cell, factor),
            "ring_n": b["ring_n"].to_numpy(np.int64)})

    return out.map_batches(finish, batch_format="pandas")


def grid_areal_interpolation(src_rects: ray.data.Dataset,
                             tgt_rects: ray.data.Dataset,
                             value_col: str = "value",
                             src_area: int | None = None,
                             value_scale: int = 10,
                             cell_w: int = 4,
                             num_buckets: int = shuffle.DEFAULT_BUCKETS,
                             ) -> ray.data.Dataset:
    """Area-weighted attribute transfer between two axis-aligned
    rectangle coverages (the tobler/PySAL areal-interpolation
    operator, restricted to INTEGER rect coordinates and UNIFORM
    source area so the whole computation stays exact):
    ``value(t) = Σ_s value(s) · |s ∩ t| / area(s)``.

    Exactness contract: rect coords are integers, so intersection
    areas are exact int64; values quantize once to
    ``floor(v·value_scale + 0.5)`` units; per-target sums are int64
    (Σ vu·overlap) and ONE final division by
    ``src_area · value_scale`` produces identical doubles on both
    engines.  Varying source areas would put a per-pair float divide
    inside the sum — that generalization needs rational arithmetic
    and is intentionally not claimed.

    Scale shape: each rect explodes into the size-``cell_w`` grid
    cells it covers; a source–target pair is emitted ONLY by the cell
    containing the intersection's min corner (integer, so ownership
    is exact); within a bucket candidates come from a pandas merge on
    the cell key and a vectorized overlap mask.  Output
    (tgt_id, interp_value, covered_area)."""
    import pyarrow as pa

    if src_area is None:
        raise ValueError("pass src_area (uniform source rect area)")

    def cover(side: int, has_value: bool):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            x0 = b["x0"].to_numpy(np.int64)
            y0 = b["y0"].to_numpy(np.int64)
            x1 = b["x1"].to_numpy(np.int64)
            y1 = b["y1"].to_numpy(np.int64)
            cx0, cx1 = x0 // cell_w, (x1 - 1) // cell_w
            cy0, cy1 = y0 // cell_w, (y1 - 1) // cell_w
            nx_ = (cx1 - cx0 + 1)
            ny_ = (cy1 - cy0 + 1)
            n = (nx_ * ny_).astype(np.int64)
            idx = np.repeat(np.arange(len(b), dtype=np.int64), n)
            step = np.arange(int(n.sum()), dtype=np.int64) - np.repeat(
                np.cumsum(n) - n, n)
            gx = cx0[idx] + step % nx_[idx]
            gy = cy0[idx] + step // nx_[idx]
            vu = (np.floor(b[value_col].to_numpy(np.float64)
                           * value_scale + 0.5).astype(np.int64)[idx]
                  if has_value else np.zeros(len(idx), np.int64))
            return pd.DataFrame({
                "gcell": cells.pack(gx, gy),
                "rid": b["id"].to_numpy(np.int64)[idx],
                "x0": x0[idx], "y0": y0[idx],
                "x1": x1[idx], "y1": y1[idx],
                "vu": vu,
                "side": np.full(len(idx), side, np.int8)})
        return fn

    both = src_rects.map_batches(cover(0, True),
                                 batch_format="pandas").union(
        tgt_rects.map_batches(cover(1, False), batch_format="pandas"))

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "tgt_id": pd.Series([], dtype=np.int64),
            "contrib": pd.Series([], dtype=np.int64),
            "ov": pd.Series([], dtype=np.int64)})
        sidev = g["side"].to_numpy(np.int8)
        a = g.loc[sidev == 0]
        t = g.loc[sidev == 1]
        if a.empty or t.empty:
            return empty
        m = t.merge(a, on="gcell", suffixes=("", "_s"))
        if m.empty:
            return empty
        ix0 = np.maximum(m["x0"].to_numpy(np.int64),
                         m["x0_s"].to_numpy(np.int64))
        iy0 = np.maximum(m["y0"].to_numpy(np.int64),
                         m["y0_s"].to_numpy(np.int64))
        ix1 = np.minimum(m["x1"].to_numpy(np.int64),
                         m["x1_s"].to_numpy(np.int64))
        iy1 = np.minimum(m["y1"].to_numpy(np.int64),
                         m["y1_s"].to_numpy(np.int64))
        ov = np.maximum(ix1 - ix0, 0) * np.maximum(iy1 - iy0, 0)
        own = cells.pack(ix0 // cell_w, iy0 // cell_w) \
            == m["gcell"].to_numpy(np.int64)
        keep = (ov > 0) & own
        return pd.DataFrame({
            "tgt_id": m["rid"].to_numpy(np.int64)[keep],
            "contrib": (m["vu_s"].to_numpy(np.int64)
                        * ov)[keep],
            "ov": ov[keep]})

    pairs = shuffle.grouped_transform(both, ["gcell"], kernel,
                                      num_buckets=num_buckets)
    agg = shuffle.group_agg(
        pairs, ["tgt_id"], {"s": ("contrib", "sum"),
                            "covered_area": ("ov", "sum")},
        num_buckets=num_buckets)
    denom = float(src_area * value_scale)
    out = agg.map_batches(
        lambda b, d=denom: pd.DataFrame({
            "tgt_id": b["tgt_id"].to_numpy(np.int64),
            "interp_value": b["s"].to_numpy(np.int64) / d,
            "covered_area": b["covered_area"].to_numpy(np.int64)}),
        batch_format="pandas").materialize()
    if out.count() == 0:
        return ray.data.from_arrow(pa.table({
            "tgt_id": pa.array([], pa.int64()),
            "interp_value": pa.array([], pa.float64()),
            "covered_area": pa.array([], pa.int64())}))
    return out


def zorder_rank(points: ray.data.Dataset, cell_size: float,
                x: str = "x", y: str = "y",
                id_col: str = "id") -> ray.data.Dataset:
    """Z-order (Morton) spatial ordering: append each point's ``mkey``
    (bit-interleaved cell coords) and its global rank ``rn`` along the
    Z-curve.  Output ``(id_col, mkey, rn)``.

    This is the engine's locality-layout primitive: writing or
    repartitioning a 10^12-row point table in ``rn`` order gives
    range-partitioned blocks that are spatially coherent, so
    downstream cell-keyed stages (halo joins, per-tile kNN, PIP) read
    near-complete tiles from few blocks instead of scattering every
    tile across the whole corpus.  One native range sort (Ray Data
    sample-based) + the two-pass block-offset stamp — no driver rows
    beyond one integer per block.
    """
    def fn(b: pd.DataFrame) -> pd.DataFrame:
        # offset (non-negative) grid coords — morton_key interleaves raw
        # low bits, so signed coords must stay in their 2^30-offset form
        cell = cells.cell_id(b[x].to_numpy(np.float64),
                             b[y].to_numpy(np.float64), cell_size)
        ix = cell & np.int64((1 << 31) - 1)
        iy = cell >> np.int64(31)
        return pd.DataFrame({id_col: b[id_col].to_numpy(),
                             "mkey": cells.morton_key(ix, iy)})

    keyed = points.map_batches(fn, batch_format="pandas")
    return shuffle.global_row_number(keyed, ["mkey", id_col])


def dissolve_cells(points: ray.data.Dataset, cell_size: float,
                   zone_col: str, x: str = "x", y: str = "y",
                   num_buckets: int = shuffle.DEFAULT_BUCKETS,
                   ) -> ray.data.Dataset:
    """Dissolve-by-zone over the grid index: per zone, the cell count,
    area and OUTER perimeter of the union of its occupied cells — the
    raster analogue of GeoPandas ``dissolve`` + ``unary_union`` (the
    reference's tessellation post-processing does this single-process
    via shapely; here it is pure integer edge-cancellation).

    Exactness: every occupied (zone, cell) contributes its 4 unit
    edges keyed by the SHARED edge id (the vertical edge between
    ``(ix-1,iy)`` and ``(ix,iy)`` is ``V(ix,iy)`` for both); an edge
    interior to the zone's union appears exactly twice, a boundary
    edge once — so ``perimeter_units = Σ edges with multiplicity 1``
    and both engines compute identical int64s; lengths/areas scale by
    a power-of-two ``cell_size`` for exact doubles.

    Distributed shape: one distinct over (zone, cell) — points
    pre-shrink to cells inside map_batches before the shuffle — a 4×
    edge explode over DISTINCT cells only, one keyed multiplicity
    count, and a per-zone partial-combined sum.  No joins, no driver
    state; hot zones shard across edge-key buckets.
    """
    def to_cells(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "zone": b[zone_col].to_numpy(),
            "cell": cells.cell_id(b[x].to_numpy(np.float64),
                                  b[y].to_numpy(np.float64), cell_size)})

    occ = shuffle.distinct(
        points.map_batches(to_cells, batch_format="pandas"),
        ["zone", "cell"], num_buckets=num_buckets).materialize()

    def edges(b: pd.DataFrame) -> pd.DataFrame:
        ix = (b["cell"].to_numpy(np.int64)
              & np.int64((1 << 31) - 1))
        iy = b["cell"].to_numpy(np.int64) >> np.int64(31)
        z = b["zone"].to_numpy()
        n = len(b)
        # edge key: (orientation, corner) packed back through the cell
        # packer — V(ix,iy) left wall, V(ix+1,iy) right wall, H(ix,iy)
        # floor, H(ix,iy+1) ceiling; coords stay in offset space so the
        # pack is lossless
        ex = np.concatenate([ix, ix + 1, ix, ix])
        ey = np.concatenate([iy, iy, iy, iy + 1])
        kind = np.concatenate([np.zeros(2 * n, np.int64),
                               np.ones(2 * n, np.int64)])
        return pd.DataFrame({
            "zone": np.tile(z, 4),
            "ek": (ey << np.int64(31)) | ex,
            "kind": kind})

    mult = shuffle.group_agg(occ.map_batches(edges, batch_format="pandas"),
                             ["zone", "ek", "kind"],
                             {"m": ("ek", "size")},
                             num_buckets=num_buckets)
    boundary = mult.filter(expr="m == 1").map_batches(
        lambda b: pd.DataFrame({"zone": b["zone"].to_numpy(),
                                "p": np.ones(len(b), np.int64)}),
        batch_format="pandas")
    per = shuffle.group_agg(boundary, ["zone"], {"perimeter_units":
                                                 ("p", "sum")},
                            num_buckets=num_buckets)
    area = shuffle.group_agg(occ, ["zone"], {"n_cells": ("cell", "size")},
                             num_buckets=num_buckets)
    zt = pa.int64()
    for name, typ in zip(points.schema().names, points.schema().types):
        if name == zone_col:
            zt = typ
    joined = bucketed_join(
        area, per, on="zone", num_buckets=num_buckets,
        left_schema=pa.schema([("zone", zt), ("n_cells", pa.int64())]),
        right_schema=pa.schema([("zone", zt),
                                ("perimeter_units", pa.int64())]))

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["area"] = b["n_cells"].to_numpy(np.int64) * (cell_size
                                                       * cell_size)
        b["perimeter"] = (b["perimeter_units"].to_numpy(np.int64)
                          * cell_size)
        return b[["zone", "n_cells", "perimeter_units", "area",
                  "perimeter"]]

    return joined.map_batches(finish, batch_format="pandas")


def hotspot_cells(points: ray.data.Dataset, cell_size: float,
                  mult: int = 2, x: str = "x", y: str = "y",
                  num_buckets: int = shuffle.DEFAULT_BUCKETS,
                  ) -> ray.data.Dataset:
    """Hotspot detection over the grid (a Getis-Ord-style local
    density screen, exact by integer cross-multiplication): an
    occupied cell is HOT iff its k=1-ring mean count exceeds ``mult``×
    the global mean count per occupied cell —

        ring_n · n_occupied  >  mult · total_points · n_ring_cells

    (all int64, no float threshold anywhere).  Output per hot cell:
    ``(cell, n, ring_n, n_ring_cells)``.

    Distributed shape mirrors :func:`cell_ring_density`: per-cell
    counts, one ring SCATTER over occupied cells only, a keyed re-sum
    per center, an inner join back to occupied cells (drops phantom
    unoccupied centers), and two driver scalars (total, n_occupied).
    """
    pts = assign_cells(points, cell_size, x=x, y=y).map_batches(
        lambda b: b[["cell"]], batch_format="pandas")
    occ = shuffle.group_agg(pts, ["cell"], {"n": ("cell", "size")},
                            num_buckets=num_buckets).materialize()
    tot = occ.sum("n")
    n_occ = occ.count()

    def scatter(b: pd.DataFrame) -> pd.DataFrame:
        idx, member = cells.ring_cells(b["cell"].to_numpy(np.int64), 1)
        return pd.DataFrame({
            "cell": member,
            "rn": b["n"].to_numpy(np.int64)[idx],
            "rc": np.ones(len(member), np.int64)})

    ring = shuffle.group_agg(
        occ.map_batches(scatter, batch_format="pandas"),
        ["cell"], {"ring_n": ("rn", "sum"),
                   "n_ring_cells": ("rc", "sum")},
        num_buckets=num_buckets)
    joined = bucketed_join(
        occ, ring, on="cell", num_buckets=num_buckets,
        left_schema=pa.schema([("cell", pa.int64()),
                               ("n", pa.int64())]),
        right_schema=pa.schema([("cell", pa.int64()),
                                ("ring_n", pa.int64()),
                                ("n_ring_cells", pa.int64())]))

    def hot(b: pd.DataFrame) -> pd.DataFrame:
        keep = (b["ring_n"].to_numpy(np.int64) * np.int64(n_occ)
                > np.int64(mult) * np.int64(tot)
                * b["n_ring_cells"].to_numpy(np.int64))
        return b.loc[keep, ["cell", "n", "ring_n", "n_ring_cells"]]

    return joined.map_batches(hot, batch_format="pandas")


def focal_mean(grid: ray.data.Dataset, col_c: str = "c", col_r: str = "r",
               val: str = "v", num_buckets: int = 16) -> ray.data.Dataset:
    """3×3 focal (moving-window) mean over a sparse raster — the
    classic map-algebra smoothing kernel.  Pure scatter shape: every
    cell contributes its value to its 9 window positions tagged with a
    self flag, then ONE partial-aggregated keyed sum; positions whose
    window never contains a real center cell (``max(own)=0`` — the
    dilation halo) are dropped, so no existence join is needed.
    Borders average over the cells that exist.  Output
    (c, r, focal_mean, n)."""
    from city2graph_ray import shuffle

    off = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)],
                   np.int64)

    def scatter(b: pd.DataFrame) -> pd.DataFrame:
        c = b[col_c].to_numpy(np.int64)
        r = b[col_r].to_numpy(np.int64)
        v = b[val].to_numpy(np.float64)
        n = len(b)
        return pd.DataFrame({
            "c": np.repeat(c, 9) + np.tile(off[:, 0], n),
            "r": np.repeat(r, 9) + np.tile(off[:, 1], n),
            "v": np.repeat(v, 9),
            "own": np.tile((off[:, 0] == 0) & (off[:, 1] == 0), n)
            .astype(np.int64)})

    agg = shuffle.group_agg(
        grid.map_batches(scatter, batch_format="pandas"),
        ["c", "r"], {"s": ("v", "sum"), "n": ("v", "size"),
                     "own": ("own", "max")}, num_buckets=num_buckets)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["own"].to_numpy(np.int64) == 1]
        return pd.DataFrame({
            "c": b["c"].to_numpy(np.int64),
            "r": b["r"].to_numpy(np.int64),
            "focal_mean": np.round(b["s"].to_numpy(np.float64)
                                   / b["n"].to_numpy(np.float64), 6),
            "n": b["n"].to_numpy(np.int64)})

    return agg.map_batches(finish, batch_format="pandas")


def hex_assign(points: ray.data.Dataset, size: float,
               x_col: str = "x", y_col: str = "y") -> ray.data.Dataset:
    """H3-style hexagonal cell assignment (pointy-top axial coords,
    public cube-rounding algorithm — Red Blob Games / H3 docs): each
    point maps to the axial (hq, hr) of the hexagon of circumradius
    ``size`` containing it.  Pure per-batch vectorized math, no
    shuffle — the hex-grid analogue of :func:`assign_cells`.

    All rounding is EXPLICIT half-up (``floor(v + 0.5)``), and every
    float expression is written in the exact operation order the SQL
    twin uses, so cell ids are bit-deterministic across engines.
    Output: input columns + (hq, hr) int64."""
    s3 = np.sqrt(3.0)

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        x = b[x_col].to_numpy(np.float64)
        y = b[y_col].to_numpy(np.float64)
        q = (s3 / 3.0 * x - y / 3.0) / size
        r = (2.0 / 3.0 * y) / size
        cx, cy, cz = q, -q - r, r
        rx = np.floor(cx + 0.5)
        ry = np.floor(cy + 0.5)
        rz = np.floor(cz + 0.5)
        dx, dy, dz = np.abs(rx - cx), np.abs(ry - cy), np.abs(rz - cz)
        c1 = (dx > dy) & (dx > dz)
        c3 = ~c1 & ~(dy > dz)
        hq = np.where(c1, -ry - rz, rx).astype(np.int64)
        hr = np.where(c3, -rx - ry, rz).astype(np.int64)
        out = b.copy()
        out["hq"] = hq
        out["hr"] = hr
        return out

    return points.map_batches(fn, batch_format="pandas")


def hilbert_rank(points: ray.data.Dataset, cell_size: float,
                 order: int = 16, x: str = "x", y: str = "y",
                 id_col: str = "id") -> ray.data.Dataset:
    """Hilbert-curve locality layout: each point's curve index ``hkey``
    over the ``2^order × 2^order`` grid plus its global rank ``rn`` —
    the stronger sibling of :func:`zorder_rank` (the Hilbert curve has
    no Z-order diagonal jumps, so consecutive ranks are always
    edge-adjacent cells; range-partitioned writes get strictly better
    tile coherence).  Grid coords ``floor(coord / cell_size)`` must
    lie in ``[0, 2^order)``.

    The xy→d map is the classic bit-rotation walk (public domain /
    Wikipedia "Hilbert curve" convert routine), vectorized: ``order``
    numpy passes over the whole batch, no per-point Python.  Every
    step is integer CASE/XOR arithmetic, so an unrolled SQL twin
    reproduces hkey bit-exactly.
    """
    side = np.int64(1) << order

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        hx = np.floor(b[x].to_numpy(np.float64) / cell_size).astype(np.int64)
        hy = np.floor(b[y].to_numpy(np.float64) / cell_size).astype(np.int64)
        if len(hx) and (hx.min() < 0 or hy.min() < 0
                        or hx.max() >= side or hy.max() >= side):
            raise ValueError(f"grid coords outside [0, 2^{order})")
        d = np.zeros(len(hx), np.int64)
        s = np.int64(1) << (order - 1)
        while s > 0:
            rx = ((hx & s) > 0).astype(np.int64)
            ry = ((hy & s) > 0).astype(np.int64)
            d += s * s * ((3 * rx) ^ ry)
            flip = (ry == 0) & (rx == 1)
            swap = ry == 0
            hx_f = np.where(flip, s - 1 - hx, hx)
            hy_f = np.where(flip, s - 1 - hy, hy)
            hx = np.where(swap, hy_f, hx_f)
            hy = np.where(swap, hx_f, hy_f)
            s >>= 1
        return pd.DataFrame({id_col: b[id_col].to_numpy(), "hkey": d})

    keyed = points.map_batches(fn, batch_format="pandas")
    return shuffle.global_row_number(keyed, ["hkey", id_col])


def raster_slope(grid: ray.data.Dataset, col_c: str = "c",
                 col_r: str = "r", val: str = "v",
                 cell_size: float = 1.0,
                 num_buckets: int = 16) -> ray.data.Dataset:
    """Horn's-method (1981) gradient over a sparse integer raster —
    the standard GIS slope kernel.  Per cell with a COMPLETE 3×3
    window (classic nodata semantics: border / ragged cells emit
    nothing)::

        gx_num = (z_e·2 + z_ne + z_se) − (z_w·2 + z_nw + z_sw)
        gy_num = (z_s·2 + z_sw + z_se) − (z_n·2 + z_nw + z_ne)
        slope  = sqrt(gx_num² + gy_num²) / (8·cell_size)

    The numerators are exact int64 (one signed-weight scatter + keyed
    sum — the :func:`focal_mean` shape); the sqrt of an exact integer
    and the division by a power-of-two ``8·cell_size`` are the only
    float ops, identical in SQL.  Output (c, r, gx_num, gy_num,
    slope).  ``val`` must be int64 (pre-scale floats to cents).
    """
    denom = 8.0 * float(cell_size)
    off = np.array([(dc, dr) for dc in (-1, 0, 1) for dr in (-1, 0, 1)
                    if not (dc == 0 and dr == 0)], np.int64)
    # weight of a SOURCE at offset o from the target
    wx = np.where(off[:, 0] != 0,
                  off[:, 0] * np.where(off[:, 1] == 0, 2, 1), 0)
    wy = np.where(off[:, 1] != 0,
                  off[:, 1] * np.where(off[:, 0] == 0, 2, 1), 0)

    def scatter(b: pd.DataFrame) -> pd.DataFrame:
        c = b[col_c].to_numpy(np.int64)
        r = b[col_r].to_numpy(np.int64)
        v = b[val].to_numpy(np.int64)
        m = len(b)
        return pd.DataFrame({
            "c": np.concatenate([np.repeat(c, 8) - np.tile(off[:, 0], m), c]),
            "r": np.concatenate([np.repeat(r, 8) - np.tile(off[:, 1], m), r]),
            "gx": np.concatenate([np.repeat(v, 8) * np.tile(wx, m),
                                  np.zeros(m, np.int64)]),
            "gy": np.concatenate([np.repeat(v, 8) * np.tile(wy, m),
                                  np.zeros(m, np.int64)]),
            "nb": np.concatenate([np.ones(8 * m, np.int64),
                                  np.zeros(m, np.int64)]),
            "own": np.concatenate([np.zeros(8 * m, np.int64),
                                   np.ones(m, np.int64)])})

    percell = shuffle.group_agg(
        grid.map_batches(scatter, batch_format="pandas"),
        ["c", "r"], {"gx": ("gx", "sum"), "gy": ("gy", "sum"),
                     "nb": ("nb", "sum"), "own": ("own", "sum")},
        num_buckets=num_buckets)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        keep = ((b["own"].to_numpy(np.int64) == 1)
                & (b["nb"].to_numpy(np.int64) == 8))
        gx = b["gx"].to_numpy(np.int64)[keep]
        gy = b["gy"].to_numpy(np.int64)[keep]
        return pd.DataFrame({
            "c": b["c"].to_numpy(np.int64)[keep],
            "r": b["r"].to_numpy(np.int64)[keep],
            "gx_num": gx, "gy_num": gy,
            "slope": np.sqrt((gx * gx + gy * gy).astype(np.float64))
            / denom})

    return percell.map_batches(finish, batch_format="pandas")


def kde_grid(points: ray.data.Dataset, cell_size: float,
             bandwidth_cells: int = 2, unit: float = 100.0,
             x: str = "x", y: str = "y",
             num_buckets: int = 16) -> ray.data.Dataset:
    """Quartic (biweight) kernel density surface evaluated at the
    centers of occupied grid cells — the classic GIS heat-map op
    (Silverman 1986 kernel; ArcGIS "Kernel Density" semantics), made
    bit-exact: coordinates are snapped to integer ``unit``-ths
    (``floor(v·unit + 0.5)`` — the cents trick), the bandwidth is
    ``bandwidth_cells × cell_size`` in the same units, and each
    point's kernel contribution to a center is the EXACT int64

        knum = (H2 − d2)²   where  H2 = h_units², d2 = squared
                                     point→center distance (units)

    so the per-cell sum ``kde_num = Σ knum`` is an exact integer and
    the only float is the single mirrored division
    ``density = kde_num / H2²`` (the kernel's 3/π normalisation is a
    constant the caller can fold in).  Cells are dropped unless
    occupied (≥1 point inside), matching the sparse-raster convention
    of :func:`focal_mean`.

    Distributed shape: one cell assignment pass, then each point
    SCATTERS its kernel contribution to every candidate center in its
    ``(bandwidth_cells+1)``-ring (contributions outside the bandwidth
    are zero and pre-filtered), followed by ONE partial-aggregated
    keyed sum — the :func:`hotspot_cells` shape; no point payload ever
    shuffles twice, no pairwise point×point join.  Output
    (c, r, n_cell, n_win, kde_num, density).
    """
    cu = int(np.floor(cell_size * unit + 0.5))
    if cu <= 0 or cu % 2:
        raise ValueError("cell_size*unit must be a positive even int")
    h_units = np.int64(bandwidth_cells) * cu
    h2 = h_units * h_units
    ring = int(bandwidth_cells) + 1
    off = np.arange(-ring, ring + 1, dtype=np.int64)
    offc, offr = (a.ravel() for a in np.meshgrid(off, off))
    k = len(offc)

    def scatter(b: pd.DataFrame) -> pd.DataFrame:
        ux = np.floor(b[x].to_numpy(np.float64) * unit
                      + 0.5).astype(np.int64)
        uy = np.floor(b[y].to_numpy(np.float64) * unit
                      + 0.5).astype(np.int64)
        c, r = ux // cu, uy // cu
        m = len(b)
        cc = np.repeat(c, k) + np.tile(offc, m)
        rr = np.repeat(r, k) + np.tile(offr, m)
        dx = np.repeat(ux, k) - (cc * cu + cu // 2)
        dy = np.repeat(uy, k) - (rr * cu + cu // 2)
        d2 = dx * dx + dy * dy
        win = d2 < h2
        own = (np.tile(offc, m) == 0) & (np.tile(offr, m) == 0)
        keep = win | own
        diff = np.where(win, h2 - d2, 0)
        return pd.DataFrame({
            "c": cc[keep], "r": rr[keep],
            "knum": (diff * diff)[keep],
            "win": win[keep].astype(np.int64),
            "own": own[keep].astype(np.int64)})

    percell = shuffle.group_agg(
        points.map_batches(scatter, batch_format="pandas"),
        ["c", "r"], {"kde_num": ("knum", "sum"), "n_win": ("win", "sum"),
                     "n_cell": ("own", "sum")},
        num_buckets=num_buckets)

    h2d = np.float64(h2)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["n_cell"].to_numpy(np.int64) >= 1]
        return pd.DataFrame({
            "c": b["c"].to_numpy(np.int64),
            "r": b["r"].to_numpy(np.int64),
            "n_cell": b["n_cell"].to_numpy(np.int64),
            "n_win": b["n_win"].to_numpy(np.int64),
            "kde_num": b["kde_num"].to_numpy(np.int64),
            "density": b["kde_num"].to_numpy(np.float64) / (h2d * h2d)})

    return percell.map_batches(finish, batch_format="pandas")


# D8 direction order: E, SE, S, SW, W, NW, N, NE (r grows southward).
# Cardinal neighbors (even index) compare via 2·drop², diagonals via
# drop² — the cross-multiplied-by-dist² form of drop/dist, exact int64.
_OFF8 = np.array([(1, 0), (1, 1), (0, 1), (-1, 1),
                  (-1, 0), (-1, -1), (0, -1), (1, -1)], np.int64)
_DIST2 = np.array([1, 2, 1, 2, 1, 2, 1, 2], np.int64)


def flow_direction_d8(grid: ray.data.Dataset, col_c: str = "c",
                      col_r: str = "r", val: str = "v",
                      num_buckets: int = 16) -> ray.data.Dataset:
    """D8 flow direction (O'Callaghan & Mark 1984) over a sparse
    integer raster: each complete-window cell drains to the steepest
    strictly-downhill neighbor, ``slope ∝ drop/dist`` compared EXACTLY
    by cross-multiplied squares (``2·drop²`` cardinal vs ``drop²``
    diagonal — no sqrt, no float).  Ties break to the first direction
    in E,SE,S,SW,W,NW,N,NE order; cells with no downhill neighbor
    (pits/flats) get ``dir = -1`` and drain to themselves.  Incomplete
    windows (borders/nodata) emit nothing — :func:`raster_slope`
    semantics.

    One signed scatter (each cell posts its value to its 8 neighbors
    in direction-indexed columns) + one partial-aggregated keyed sum;
    the argmax is a vectorized batch kernel.  Output
    (c, r, v, dir, next_c, next_r).
    """
    def scatter(b: pd.DataFrame) -> pd.DataFrame:
        c = b[col_c].to_numpy(np.int64)
        r = b[col_r].to_numpy(np.int64)
        v = b[val].to_numpy(np.int64)
        m = len(b)
        d_idx = np.tile(np.arange(8), m)
        rows = {
            "c": np.concatenate([np.repeat(c, 8)
                                 - d_idx.reshape(-1).choose(_OFF8[:, 0]), c]),
            "r": np.concatenate([np.repeat(r, 8)
                                 - d_idx.reshape(-1).choose(_OFF8[:, 1]), r]),
            "own": np.concatenate([np.zeros(8 * m, np.int64),
                                   np.ones(m, np.int64)]),
            "vown": np.concatenate([np.zeros(8 * m, np.int64), v])}
        vrep = np.repeat(v, 8)
        for d in range(8):
            sel = d_idx == d
            rows[f"v{d}"] = np.concatenate(
                [np.where(sel, vrep, 0), np.zeros(m, np.int64)])
            rows[f"n{d}"] = np.concatenate(
                [sel.astype(np.int64), np.zeros(m, np.int64)])
        return pd.DataFrame(rows)

    aggs = {"own": ("own", "sum"), "vown": ("vown", "sum")}
    for d in range(8):
        aggs[f"v{d}"] = (f"v{d}", "sum")
        aggs[f"n{d}"] = (f"n{d}", "sum")
    percell = shuffle.group_agg(
        grid.map_batches(scatter, batch_format="pandas"),
        ["c", "r"], aggs, num_buckets=num_buckets)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        pres = np.stack([b[f"n{d}"].to_numpy(np.int64)
                         for d in range(8)], axis=1)
        keep = ((b["own"].to_numpy(np.int64) == 1)
                & (pres.sum(axis=1) == 8))
        if not keep.any():
            return pd.DataFrame({k: np.array([], np.int64) for k in
                                 ("c", "r", "v", "dir",
                                  "next_c", "next_r")})
        c = b["c"].to_numpy(np.int64)[keep]
        r = b["r"].to_numpy(np.int64)[keep]
        v = b["vown"].to_numpy(np.int64)[keep]
        nbr = np.stack([b[f"v{d}"].to_numpy(np.int64)
                        for d in range(8)], axis=1)[keep]
        drop = v[:, None] - nbr
        # cardinal: 2·drop², diagonal: drop² (dist²-cross-multiplied)
        m_val = np.where(drop > 0,
                         drop * drop * (2 // _DIST2)[None, :],
                         np.int64(-1))
        mm = m_val.max(axis=1)
        dirs = np.where(mm < 0, -1, m_val.argmax(axis=1)).astype(np.int64)
        safe = np.maximum(dirs, 0)
        nc = np.where(dirs >= 0, c + _OFF8[safe, 0], c)
        nr = np.where(dirs >= 0, r + _OFF8[safe, 1], r)
        return pd.DataFrame({"c": c, "r": r, "v": v, "dir": dirs,
                             "next_c": nc, "next_r": nr})

    return percell.map_batches(finish, batch_format="pandas")


def _pack_cell(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    # 21-bit lanes, offset 2^20: |c|,|r| < 2^20 (10^12 cells — a
    # planetary raster).  Packed keys stay < 2^42 < 2^53 so they
    # survive pandas' int→float NaN-promotion in LEFT joins exactly.
    return ((c + (np.int64(1) << 20)) << 21) | (r + (np.int64(1) << 20))


def flow_accumulation(dirs: ray.data.Dataset,
                      num_buckets: int = 16,
                      max_rounds: int = 64,
                      ) -> ray.data.Dataset:
    """D8 flow accumulation over a :func:`flow_direction_d8` table:
    per cell, the number of cells whose flow path passes through it
    (including itself) — the standard upstream-contributing-area
    count.  Strictly-downhill D8 edges form a functional DAG (each
    cell ≤1 out-edge, values strictly decrease), so the count is
    exact.

    Branches:

    - the dirs table is NODE-sized (one row per raster cell), so when
      its Kahn peel fits the driver budget the whole successor map
      collects once and a vectorized level-peel runs on the driver
      (O(n + L) numpy passes) — the same small-graph escape hatch as
      :func:`~city2graph_ray.ops.graph_algos.pagerank`'s node vectors.
    - otherwise distributed pointer-doubling path closure:
      ``⌈log₂ L⌉`` bucketed-join rounds (L = longest flow path)
      instead of L topological peels; pairs are unique by
      construction (paths are simple), so no dedup shuffle.  Total
      shuffled volume is O(n·L̄) closure rows — the honest cost of
      exact accumulation at raster scale.

    Output (c, r, acc).
    """
    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "a": _pack_cell(b["c"].to_numpy(np.int64),
                            b["r"].to_numpy(np.int64)),
            "b": _pack_cell(b["next_c"].to_numpy(np.int64),
                            b["next_r"].to_numpy(np.int64)),
            "flow": (b["dir"].to_numpy(np.int64) >= 0)
            .astype(np.int64)})

    allcells = dirs.map_batches(keyed, batch_format="pandas").materialize()
    n = allcells.count()

    half = np.int64(1) << 20

    def _unpack_keys(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return ((k >> 21) - half,
                (k & ((np.int64(1) << 21) - 1)) - half)

    # (a, b, flow) collect 24 + sa, pos, pos_c, nxt, acc, indeg and the
    # searchsorted scratch 56 + masks and one level's gathers 16: 96 B
    # per cell
    if fits_driver(n * 96):
        df = allcells.to_pandas()
        if not len(df):
            return ray.data.from_pandas(pd.DataFrame(
                {"c": np.array([], np.int64), "r": np.array([], np.int64),
                 "acc": np.array([], np.int64)}))
        a = df["a"].to_numpy(np.int64)
        b = df["b"].to_numpy(np.int64)
        flow = df["flow"].to_numpy(np.int64) == 1
        sa = np.sort(a)
        pos = np.searchsorted(sa, b)
        pos_c = np.minimum(pos, n - 1)
        valid = flow & (sa[pos_c] == b)
        nxt = np.full(n, -1, np.int64)
        nxt[np.searchsorted(sa, a)] = np.where(valid, pos_c, -1)
        acc = np.ones(n, np.int64)
        indeg = np.bincount(nxt[nxt >= 0], minlength=n)
        done = np.zeros(n, bool)
        frontier = np.nonzero(indeg == 0)[0]
        while len(frontier):
            done[frontier] = True
            tgt = nxt[frontier]
            m = tgt >= 0
            np.add.at(acc, tgt[m], acc[frontier[m]])
            np.subtract.at(indeg, tgt[m], 1)
            cand = np.unique(tgt[m])
            frontier = cand[(indeg[cand] == 0) & ~done[cand]]
        if not done.all():
            raise ValueError("flow graph contains a cycle")
        c, r = _unpack_keys(sa)
        return ray.data.from_pandas(
            pd.DataFrame({"c": c, "r": r, "acc": acc}))

    edges = allcells.map_batches(
        lambda b: b.loc[b["flow"].to_numpy(np.int64) == 1, ["a", "b"]],
        batch_format="pandas").materialize()

    def _compose(lhs: ray.data.Dataset,
                 rhs: ray.data.Dataset) -> ray.data.Dataset:
        """(v, w) ∘ (w, u) → (v, u) via one bucketed hash join."""
        return bucketed_join(
            lhs.map_batches(lambda b: b.rename(columns={"b": "m"}),
                            batch_format="pandas"),
            rhs.map_batches(lambda b: b.rename(columns={"a": "m"}),
                            batch_format="pandas"),
            on="m", num_buckets=num_buckets,
            left_schema=pa.schema([("a", pa.int64()), ("m", pa.int64())]),
            right_schema=pa.schema([("m", pa.int64()), ("b", pa.int64())]),
        ).map_batches(lambda b: b[["a", "b"]], batch_format="pandas")

    paths = edges      # (v, u): u on v's path, hops 1..2^k
    jump = edges       # (v, w): w = next^(2^k)(v)
    for _ in range(max_rounds):
        if jump.count() == 0:
            break
        grown = _compose(jump, paths).materialize()
        jump = _compose(jump, jump).repartition(num_buckets).materialize()
        if grown.count() == 0:
            break
        # repartition: iterative unions otherwise double the block
        # count every round (exponential per-block overhead)
        paths = (paths.union(grown).repartition(num_buckets)
                 .materialize())

    counts = shuffle.group_agg(
        paths.map_batches(lambda b: pd.DataFrame({"k": b["b"]}),
                          batch_format="pandas"),
        ["k"], {"cnt": ("k", "size")}, num_buckets=num_buckets)

    cellkeys = allcells.map_batches(
        lambda b: pd.DataFrame({"k": b["a"]}), batch_format="pandas")
    joined = bucketed_join(
        cellkeys, counts, on="k", how="left", num_buckets=num_buckets,
        left_schema=pa.schema([("k", pa.int64())]),
        right_schema=pa.schema([("k", pa.int64()), ("cnt", pa.int64())]))

    def unpack(b: pd.DataFrame) -> pd.DataFrame:
        cnt = b["cnt"].to_numpy(np.float64) if "cnt" in b else \
            np.zeros(len(b))
        cnt = np.nan_to_num(cnt, nan=0.0).astype(np.int64)
        c, r = _unpack_keys(b["k"].to_numpy(np.int64))
        return pd.DataFrame({"c": c, "r": r, "acc": cnt + 1})

    return joined.map_batches(unpack, batch_format="pandas")


def flow_watershed(dirs: ray.data.Dataset,
                   num_buckets: int = 16,
                   max_rounds: int = 64) -> ray.data.Dataset:
    """Drainage-basin labeling over a :func:`flow_direction_d8`
    table: each cell is labeled with the TERMINAL of its D8 flow path
    — a pit/flat (``dir = -1``, which drains to itself) or the
    off-raster cell where the path exits the mapped window.  The
    functional graph is a forest of self-loop-rooted trees, so the
    terminal is the fixpoint of POINTER JUMPING (``ptr ← ptr[ptr]``,
    ⌈log₂ L⌉ rounds): the node-sized successor map collects to the
    driver when its jumps fit the driver budget (vectorized numpy
    jumps, :func:`flow_accumulation`'s contract), else each round is one
    LEFT bucketed self-join (missing targets are exits and stay
    fixed).  Unlike the accumulation closure this shuffles only O(n)
    rows per round.  Output (c, r, pit_c, pit_r).
    """
    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "a": _pack_cell(b["c"].to_numpy(np.int64),
                            b["r"].to_numpy(np.int64)),
            "b": _pack_cell(b["next_c"].to_numpy(np.int64),
                            b["next_r"].to_numpy(np.int64))})

    ptr = dirs.map_batches(keyed, batch_format="pandas").materialize()
    n = ptr.count()

    half = np.int64(1) << 20

    def _unpack(b: pd.DataFrame) -> pd.DataFrame:
        a = b["a"].to_numpy(np.int64)
        t = b["b"].to_numpy(np.int64)
        return pd.DataFrame({
            "c": (a >> 21) - half,
            "r": (a & ((np.int64(1) << 21) - 1)) - half,
            "pit_c": (t >> 21) - half,
            "pit_r": (t & ((np.int64(1) << 21) - 1)) - half})

    # (a, b) collect 16 + concat and np.unique over 2 keys per cell 32 +
    # nxt and one jump's nn over them 32 + the searchsorted positions
    # 16 + the 4-column output frame 32: 128 B per cell
    if fits_driver(n * 128):
        df = ptr.to_pandas()
        if not len(df):
            return ray.data.from_pandas(pd.DataFrame(
                {k: np.array([], np.int64)
                 for k in ("c", "r", "pit_c", "pit_r")}))
        a = df["a"].to_numpy(np.int64)
        b = df["b"].to_numpy(np.int64)
        keys = np.unique(np.concatenate([a, b]))
        nxt = np.arange(len(keys))          # absent sources: self-loop
        nxt[np.searchsorted(keys, a)] = np.searchsorted(keys, b)
        for _ in range(max_rounds):
            nn = nxt[nxt]
            if (nn == nxt).all():
                break
            nxt = nn
        pos = np.searchsorted(keys, a)
        return ray.data.from_pandas(_unpack(pd.DataFrame(
            {"a": a, "b": keys[nxt[pos]]})))

    for _ in range(max_rounds):
        hop = bucketed_join(
            ptr.map_batches(lambda b: b.rename(columns={"b": "m"}),
                            batch_format="pandas"),
            ptr.map_batches(
                lambda b: b.rename(columns={"a": "m", "b": "t"}),
                batch_format="pandas"),
            on="m", how="left", num_buckets=num_buckets,
            left_schema=pa.schema([("a", pa.int64()), ("m", pa.int64())]),
            right_schema=pa.schema([("m", pa.int64()),
                                    ("t", pa.int64())]))

        def advance(b: pd.DataFrame) -> pd.DataFrame:
            t = b["t"].to_numpy(np.float64) if "t" in b else \
                np.full(len(b), np.nan)
            m = b["m"].to_numpy(np.int64)
            return pd.DataFrame({
                "a": b["a"].to_numpy(np.int64),
                "b": np.where(np.isnan(t), m, np.nan_to_num(t))
                .astype(np.int64),
                "moved": (~np.isnan(t)
                          & (np.nan_to_num(t) != m)).astype(np.int64)})

        stepped = hop.map_batches(advance, batch_format="pandas") \
            .repartition(num_buckets).materialize()
        moved = stepped.sum("moved")
        ptr = stepped.map_batches(lambda b: b[["a", "b"]],
                                  batch_format="pandas").materialize()
        if not moved:
            break

    return ptr.map_batches(_unpack, batch_format="pandas")


def distance_transform(grid: ray.data.Dataset, max_radius: int,
                       col_c: str = "c", col_r: str = "r",
                       num_buckets: int = 16) -> ray.data.Dataset:
    """Bounded Euclidean distance transform over a sparse raster: for
    every cell within Chebyshev distance ``max_radius`` of an OCCUPIED
    cell, the exact minimum squared center-to-center distance ``d2``
    to the nearest occupied cell (occupied cells get 0) — the raster
    buffer / proximity-surface primitive.  One (2R+1)²-way scatter
    from occupied cells only, one partial-aggregated keyed MIN; all
    int64.  Cells farther than R from every occupied cell are absent
    (the documented bound; escalate R or tile for full-frame EDT).
    Output (c, r, d2).
    """
    rng = np.arange(-max_radius, max_radius + 1, dtype=np.int64)
    oc, orr = (a.ravel() for a in np.meshgrid(rng, rng))
    d2off = oc * oc + orr * orr
    k = len(oc)

    def scatter(b: pd.DataFrame) -> pd.DataFrame:
        c = b[col_c].to_numpy(np.int64)
        r = b[col_r].to_numpy(np.int64)
        m = len(b)
        return pd.DataFrame({
            "c": np.repeat(c, k) + np.tile(oc, m),
            "r": np.repeat(r, k) + np.tile(orr, m),
            "d2": np.tile(d2off, m)})

    return shuffle.group_agg(
        grid.map_batches(scatter, batch_format="pandas"),
        ["c", "r"], {"d2": ("d2", "min")}, num_buckets=num_buckets)


def segment_cover_cells(segments: ray.data.Dataset, cell_size: int,
                        num_buckets: int = 16) -> ray.data.Dataset:
    """Rasterize integer-coordinate segments onto the grid: emit every
    (seg_id, cell c, r) whose CLOSED cell square the segment touches —
    the supercover line, computed not by DDA stepping but by the exact
    separating-axis predicate over the segment's bbox cells (so the
    kernel is one vectorized mask, no per-segment Python):

        bbox overlap (closed)  AND  the 4 cell corners are not all
        strictly on one side of the segment's line
        (min corner-cross ≤ 0 ≤ max corner-cross, exact int64).

    This is the candidate generator for map-matching / cell-bucketed
    segment joins.  ``cell_size`` must be a positive int (integer
    corner coords keep every cross product exact).  Output
    (seg_id, c, r).
    """
    if cell_size <= 0 or int(cell_size) != cell_size:
        raise ValueError("cell_size must be a positive int")
    s = np.int64(cell_size)

    def cover(b: pd.DataFrame) -> pd.DataFrame:
        ax = b["ax"].to_numpy(np.int64)
        ay = b["ay"].to_numpy(np.int64)
        bx = b["bx"].to_numpy(np.int64)
        by = b["by"].to_numpy(np.int64)
        idx, cell = cells.covering_cells(
            np.minimum(ax, bx), np.minimum(ay, by),
            np.maximum(ax, bx), np.maximum(ay, by), float(s))
        cx, cy = cells.cell_xy(cell)
        x0, y0 = cx * s, cy * s
        dx = (bx - ax)[idx]
        dy = (by - ay)[idx]
        rxa = x0 - ax[idx]
        rya = y0 - ay[idx]
        # cross products of the 4 corners vs the segment line
        c00 = dx * rya - dy * rxa
        c10 = dx * rya - dy * (rxa + s)
        c01 = dx * (rya + s) - dy * rxa
        c11 = dx * (rya + s) - dy * (rxa + s)
        cmin = np.minimum(np.minimum(c00, c10), np.minimum(c01, c11))
        cmax = np.maximum(np.maximum(c00, c10), np.maximum(c01, c11))
        keep = (cmin <= 0) & (cmax >= 0)
        return pd.DataFrame({
            "seg_id": b["seg_id"].to_numpy(np.int64)[idx][keep],
            "c": cx[keep], "r": cy[keep]})

    return segments.map_batches(cover, batch_format="pandas")


def quadtree_assign(points: ray.data.Dataset, cap: int,
                    max_depth: int = 4, domain: int = 100_000,
                    scale: float = 100.0, x: str = "x", y: str = "y",
                    id_col: str = "id",
                    num_buckets: int = shuffle.DEFAULT_BUCKETS,
                    ) -> ray.data.Dataset:
    """Adaptive quadtree tile assignment: starting from the root, a
    tile splits while it holds more than ``cap`` points, down to
    ``max_depth``; each point lands in the first (shallowest) unsplit
    ancestor — i.e. ``depth(p) = min d in [1..max_depth] with
    count_d(cell_d(p)) <= cap, else max_depth``.

    All-integer: coordinates quantize once to ``[0, domain)`` units
    (``floor(v·scale + 0.5)``) and tile ids are integer divisions by
    ``domain >> d`` — no float enters any decision, so the unrolled
    per-depth SQL twin is bit-exact.

    Distributed shape: points explode to one row per depth (``max_depth
    × N``, max_depth is 3-5), ONE keyed count per (depth, tile), one
    bucketed join back, then a keyed min over (depth, tile) packed into
    a single int64 — the min picks the shallowest qualifying tile.
    Skew note: tile counts are exactly the hot-cell histogram, so the
    count shuffle pre-aggregates per block (group_agg partials) and no
    tile row exceeds one (depth, cx, cy) key.

    Output: (id, depth, cell_x, cell_y).
    """
    if not (1 <= max_depth <= 6):
        raise ValueError("max_depth in [1, 6]")
    depths = list(range(1, max_depth + 1))
    sides = {d: domain >> d for d in depths}

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        ix = np.floor(b[x].to_numpy(np.float64) * scale + 0.5
                      ).astype(np.int64)
        iy = np.floor(b[y].to_numpy(np.float64) * scale + 0.5
                      ).astype(np.int64)
        ids = b[id_col].to_numpy(np.int64)
        parts = []
        for d in depths:
            s = sides[d]
            parts.append(pd.DataFrame({
                "id": ids, "d": np.int64(d),
                "cx": ix // s, "cy": iy // s}))
        return pd.concat(parts, ignore_index=True)

    ex = points.map_batches(explode, batch_format="pandas").materialize()
    counts = shuffle.group_agg(ex, ["d", "cx", "cy"],
                               {"n": ("id", "size")},
                               num_buckets=num_buckets)
    i64 = pa.int64()
    j = bucketed_join(
        ex, counts, on=["d", "cx", "cy"], num_buckets=num_buckets,
        left_schema=pa.schema([("id", i64), ("d", i64), ("cx", i64),
                               ("cy", i64)]),
        right_schema=pa.schema([("d", i64), ("cx", i64), ("cy", i64),
                                ("n", i64)]))

    def candidates(b: pd.DataFrame) -> pd.DataFrame:
        keep = (b["n"].to_numpy(np.int64) <= cap) \
            | (b["d"].to_numpy(np.int64) == max_depth)
        b = b[keep]
        enc = (b["d"].to_numpy(np.int64) << 40) \
            | (b["cx"].to_numpy(np.int64) << 20) \
            | b["cy"].to_numpy(np.int64)
        return pd.DataFrame({"id": b["id"].to_numpy(np.int64),
                             "enc": enc})

    best = shuffle.group_agg(
        j.map_batches(candidates, batch_format="pandas"), ["id"],
        {"enc": ("enc", "min")}, num_buckets=num_buckets)

    def decode(b: pd.DataFrame) -> pd.DataFrame:
        e = b["enc"].to_numpy(np.int64)
        return pd.DataFrame({"id": b["id"].to_numpy(np.int64),
                             "depth": e >> 40,
                             "cell_x": (e >> 20) & 0xFFFFF,
                             "cell_y": e & 0xFFFFF})

    return best.map_batches(decode, batch_format="pandas")


def raster_aspect(grid: ray.data.Dataset, col_c: str = "c",
                  col_r: str = "r", val: str = "v",
                  num_buckets: int = 16) -> ray.data.Dataset:
    """Aspect (downslope compass sector) from the Horn gradient:
    composes on :func:`raster_slope`'s EXACT integer numerators and
    classifies the negated gradient ``(ax, ay) = (−gx, −gy)`` into the
    eight 45° sectors ``[k·45°, (k+1)·45°)`` measured from +c toward
    +r — pure integer sign/magnitude comparisons via upper-half-plane
    normalization (the orientation_histogram device, extended to 8
    directed sectors), no atan2 anywhere.  Flat cells
    (gx = gy = 0) emit octant −1.  Output (c, r, aspect_octant)."""
    base = raster_slope(grid, col_c, col_r, val,
                        num_buckets=num_buckets)

    def classify(b: pd.DataFrame) -> pd.DataFrame:
        ax = -b["gx_num"].to_numpy(np.int64)
        ay = -b["gy_num"].to_numpy(np.int64)
        flat = (ax == 0) & (ay == 0)
        flip = (ay < 0) | ((ay == 0) & (ax < 0))
        ux = np.where(flip, -ax, ax)
        uy = np.where(flip, -ay, ay)
        k = np.where((ux > 0) & (uy < ux), 0,
                     np.where((ux > 0) & (uy >= ux), 1,
                              np.where((ux <= 0) & (uy > -ux), 2, 3)))
        k = np.where(flip, k + 4, k)
        return pd.DataFrame({
            "c": b["c"].to_numpy(np.int64),
            "r": b["r"].to_numpy(np.int64),
            "aspect_octant": np.where(flat, np.int64(-1),
                                      k.astype(np.int64))})

    return base.map_batches(classify, batch_format="pandas")


def raster_regions(mask: ray.data.Dataset, col_c: str = "c",
                   col_r: str = "r", key_stride: int = 1 << 20,
                   num_buckets: int = 16) -> ray.data.Dataset:
    """Connected-component labeling of a sparse raster mask (classic
    GIS "region group" / scikit-image ``label``, 4-connectivity):
    every masked cell gets the MIN cell key of its region, with
    ``cell key = c·key_stride + r``.  Output ``(c, r, region)``.

    Distributed shape: adjacency is discovered by a scatter — each
    masked cell lands on its own (c, r) slot as HOME and probes its
    west/north neighbours' slots — followed by ONE keyed
    grouped-transform (groups ≤ 3 rows) that emits edges; labels come
    from the alternating large-star/small-star
    :func:`~city2graph_ray.ops.topology.connected_components` (no
    label broadcast), and isolated cells self-label through the LEFT
    join-back.  Mask density ≫ the 0.593 site-percolation threshold
    will produce giant regions — inherent to the operator, the CC
    rounds stay O(log n) regardless.
    """
    from city2graph_ray.ops.topology import connected_components

    def home_and_probes(b: pd.DataFrame) -> pd.DataFrame:
        c = b[col_c].to_numpy(np.int64)
        r = b[col_r].to_numpy(np.int64)
        # cell key injectivity (and min-key label order) requires
        # 0 <= r < key_stride (ADVICE r3); c may be any int64
        if len(r) and (r.min() < 0 or r.max() >= key_stride):
            raise ValueError(
                f"raster_regions: row index must satisfy 0 <= r < "
                f"key_stride ({key_stride}); got [{r.min()}, {r.max()}] "
                f"— pass a larger key_stride")
        cid = c * key_stride + r
        # home slot + probes at the EAST and SOUTH neighbour slots, so
        # each adjacent pair meets exactly once (west/north of those)
        sc = np.concatenate([c, c + 1, c])
        sr = np.concatenate([r, r, r + 1])
        return pd.DataFrame({
            "sc": sc, "sr": sr,
            "cell": np.concatenate([cid, cid, cid]),
            "is_home": np.concatenate([
                np.ones(len(c), np.int64),
                np.zeros(2 * len(c), np.int64)])})

    def edges_kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["sc", "sr", "is_home"], kind="stable")
        sc = g["sc"].to_numpy(np.int64)
        sr = g["sr"].to_numpy(np.int64)
        home = g["is_home"].to_numpy(np.int64) == 1
        cell = g["cell"].to_numpy(np.int64)
        n = len(sc)
        if n == 0:
            return pd.DataFrame({"src": cell[:0], "dst": cell[:0]})
        # slot runs straight off the sorted (sc, sr) PAIR — a packed
        # single-int slot key would collide outside 0<=sr<=key_stride
        newgrp = np.concatenate(
            ([True], (sc[1:] != sc[:-1]) | (sr[1:] != sr[:-1])))
        starts = np.nonzero(newgrp)[0]
        sizes = np.diff(np.concatenate([starts, [n]]))
        ends = starts + sizes - 1
        has_home = home[ends]  # is_home sorts last within slot
        seg = np.cumsum(newgrp) - 1
        probe_rows = ~home & has_home[seg]
        if not probe_rows.any():
            return pd.DataFrame({"src": cell[:0], "dst": cell[:0]})
        home_of = cell[ends][seg]
        return pd.DataFrame({"src": cell[probe_rows],
                             "dst": home_of[probe_rows]})

    scat = mask.map_batches(home_and_probes, batch_format="pandas")
    edges = shuffle.grouped_transform(scat, ["sc", "sr"], edges_kernel,
                                      num_buckets=num_buckets)
    labels = connected_components(edges)

    keyed = mask.map_batches(
        lambda b: pd.DataFrame({
            col_c: b[col_c].to_numpy(np.int64),
            col_r: b[col_r].to_numpy(np.int64),
            "node_id": b[col_c].to_numpy(np.int64) * key_stride
            + b[col_r].to_numpy(np.int64)}),
        batch_format="pandas")
    lab_schema = pa.schema([("node_id", pa.int64()),
                            ("component", pa.int64())])
    keyed_schema = pa.schema([(col_c, pa.int64()),
                              (col_r, pa.int64()),
                              ("node_id", pa.int64())])
    joined = bucketed_join(keyed, labels, "node_id",
                           num_buckets=num_buckets, how="left",
                           left_schema=keyed_schema,
                           right_schema=lab_schema)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        comp = b["component"].to_numpy(np.float64)
        nid = b["node_id"].to_numpy(np.int64)
        lab = np.where(np.isnan(comp), nid,
                       np.nan_to_num(comp)).astype(np.int64)
        return pd.DataFrame({col_c: b[col_c].to_numpy(np.int64),
                             col_r: b[col_r].to_numpy(np.int64),
                             "region": lab})

    return joined.map_batches(finish, batch_format="pandas")


def compact_cells(cell_set: ray.data.Dataset, levels: int = 3,
                  num_buckets: int = 16) -> ray.data.Dataset:
    """H3-style cell-cover compaction (the ``h3.compact`` semantics on
    the engine's square grid): starting from a DISTINCT set of
    resolution-0 cells ``(ix, iy)``, any complete 2×2 sibling group
    collapses into its parent at the next resolution, repeated
    ``levels`` times — the minimal mixed-resolution cover used to
    ship sparse spatial masks cheaply.  Output ``(res, ix, iy)``.

    Distributed shape: one keyed shuffle per level on the parent key
    over ONLY the current-resolution layer (coarser/finer rows don't
    move); the kernel sees ≤4 rows per group and either emits the
    parent or passes the children through — all-integer, unrolled
    identically in the SQL twin."""
    cur = shuffle.distinct(
        cell_set.map_batches(
            lambda b: pd.DataFrame({
                "res": np.zeros(len(b), np.int64),
                "ix": b["ix"].to_numpy(np.int64),
                "iy": b["iy"].to_numpy(np.int64)}),
            batch_format="pandas"),
        ["ix", "iy"], num_buckets=num_buckets).materialize()

    for lev in range(levels):
        layer = cur.map_batches(
            lambda b, lev=lev: b[b["res"].to_numpy(np.int64) == lev],
            batch_format="pandas")
        rest = cur.map_batches(
            lambda b, lev=lev: b[b["res"].to_numpy(np.int64) != lev],
            batch_format="pandas")
        keyed = layer.map_batches(
            lambda b: pd.DataFrame({
                "px": b["ix"].to_numpy(np.int64) // 2,
                "py": b["iy"].to_numpy(np.int64) // 2,
                "res": b["res"].to_numpy(np.int64),
                "ix": b["ix"].to_numpy(np.int64),
                "iy": b["iy"].to_numpy(np.int64)}),
            batch_format="pandas")

        def merge(g: pd.DataFrame, lev=lev) -> pd.DataFrame:
            cnt = g.groupby(["px", "py"], sort=False)["ix"] \
                .transform("size").to_numpy(np.int64)
            full = cnt == 4
            kids = g[~full]
            parents = (g[full].groupby(["px", "py"], sort=False)
                       .head(1))
            return pd.DataFrame({
                "res": np.concatenate([
                    kids["res"].to_numpy(np.int64),
                    np.full(len(parents), lev + 1, np.int64)]),
                "ix": np.concatenate([
                    kids["ix"].to_numpy(np.int64),
                    parents["px"].to_numpy(np.int64)]),
                "iy": np.concatenate([
                    kids["iy"].to_numpy(np.int64),
                    parents["py"].to_numpy(np.int64)])})

        merged = shuffle.grouped_transform(keyed, ["px", "py"], merge,
                                           num_buckets=num_buckets)
        cur = merged.map_batches(
            lambda b: b[["res", "ix", "iy"]], batch_format="pandas"
        ).union(rest).repartition(min(num_buckets, 8)).materialize()
    return cur


def uncompact_cells(cover: ray.data.Dataset,
                    ) -> ray.data.Dataset:
    """Inverse of :func:`compact_cells` (``h3.uncompact``): every
    mixed-resolution cover cell ``(res, ix, iy)`` expands to its
    ``4^res`` resolution-0 children — embarrassingly parallel
    flat-map, exact integers.  ``uncompact(compact(S)) == S`` for any
    distinct level-0 set S (the round-trip the gate checks)."""
    def fn(b: pd.DataFrame) -> pd.DataFrame:
        res = b["res"].to_numpy(np.int64)
        ix = b["ix"].to_numpy(np.int64)
        iy = b["iy"].to_numpy(np.int64)
        side = np.int64(1) << res
        reps = side * side
        total = int(reps.sum())
        if not total:
            return pd.DataFrame({"ix": ix[:0], "iy": iy[:0]})
        row = np.repeat(np.arange(len(b)), reps)
        s = (np.arange(total)
             - np.repeat(np.cumsum(reps) - reps, reps))
        sd = side[row]
        return pd.DataFrame({
            "ix": ix[row] * sd + s % sd,
            "iy": iy[row] * sd + s // sd})

    return cover.map_batches(fn, batch_format="pandas")


def raster_cost_distance(grid: ray.data.Dataset, rounds: int = 12,
                         col_c: str = "c", col_r: str = "r",
                         w_col: str = "w", src_col: str = "is_src",
                         inf: int = 999999,
                         num_buckets: int = 16) -> ray.data.Dataset:
    """Cost-distance surface (the GIS ``r.cost`` / cost-raster
    primitive): starting from source cells, ``rounds`` synchronous
    min-relaxation sweeps of ``d[v] = min(d[v], min_{u∈N4(v)} d[u] +
    w[v])`` over 4-neighbour adjacency — all-int64, converged once
    ``rounds`` ≥ the longest cheapest path; bounded and unrolled
    identically in the SQL twin either way.  Unreached cells keep the
    ``inf`` sentinel.  Output ``(c, r, w, d)``.

    Distributed shape per sweep: one scatter of each cell's current
    distance into its 4 neighbour slots + the home row, ONE keyed
    grouped-transform (groups ≤ 5 rows) — the raster never collects
    and never joins against itself."""
    cur = grid.map_batches(
        lambda b: pd.DataFrame({
            "c": b[col_c].to_numpy(np.int64),
            "r": b[col_r].to_numpy(np.int64),
            "w": b[w_col].to_numpy(np.int64),
            "d": np.where(b[src_col].to_numpy(np.int64) == 1,
                          np.int64(0), np.int64(inf))}),
        batch_format="pandas").materialize()

    def scatter(b: pd.DataFrame) -> pd.DataFrame:
        c = b["c"].to_numpy(np.int64)
        r = b["r"].to_numpy(np.int64)
        w = b["w"].to_numpy(np.int64)
        d = b["d"].to_numpy(np.int64)
        m = len(b)
        off = np.array([(1, 0), (-1, 0), (0, 1), (0, -1)], np.int64)
        return pd.DataFrame({
            "c": np.concatenate([np.repeat(c, 4)
                                 + np.tile(off[:, 0], m), c]),
            "r": np.concatenate([np.repeat(r, 4)
                                 + np.tile(off[:, 1], m), r]),
            "ind": np.concatenate([np.repeat(d, 4),
                                   np.full(m, inf, np.int64)]),
            "w": np.concatenate([np.zeros(4 * m, np.int64), w]),
            "d": np.concatenate([np.full(4 * m, -1, np.int64), d]),
            "home": np.concatenate([np.zeros(4 * m, np.int64),
                                    np.ones(m, np.int64)])})

    def relax(g: pd.DataFrame, inf=inf) -> pd.DataFrame:
        agg = (g.groupby(["c", "r"], sort=False)
               .agg(ind=("ind", "min"), w=("w", "max"),
                    d=("d", "max"), home=("home", "max"))
               .reset_index())
        agg = agg[agg["home"] == 1]
        ind = agg["ind"].to_numpy(np.int64)
        d = agg["d"].to_numpy(np.int64)
        w = agg["w"].to_numpy(np.int64)
        cand = np.where(ind >= inf, inf, ind + w)
        return pd.DataFrame({
            "c": agg["c"].to_numpy(np.int64),
            "r": agg["r"].to_numpy(np.int64),
            "w": w, "d": np.minimum(d, np.minimum(cand,
                                                  np.int64(inf)))})

    for _ in range(rounds):
        cur = (shuffle.grouped_transform(
            cur.map_batches(scatter, batch_format="pandas"),
            ["c", "r"], relax, num_buckets=num_buckets)
            .repartition(min(num_buckets, 8)).materialize())
    return cur
