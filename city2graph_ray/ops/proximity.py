"""Proximity graph builders — Ray-Data-native.

Reimplements the semantics of /root/reference/city2graph/proximity.py
(kNN ``:771-887``, fixed-radius ``:1303-1437``, Delaunay ``:890-982``,
Gabriel ``:985-1081``, relative-neighborhood ``:1084-1184``, EMST
``:1187-1300``, Waxman ``:1440-1567``, contiguity ``:1968-2108``,
bridge_nodes ``:1609-1827``, group_nodes ``:1830-1965``) as streaming
cell-bucketed pipelines:

    points → halo-expanded cell assignment, hash partition by cell
             (one map task per block, city2graph_ray.exchange)
           → per-tile kernel (one reduce task per partition)
           → union / dedup shuffles

Input contract: a points Dataset has ``id`` (int64), ``x``, ``y``
(float64) columns; a polygons Dataset has ``id`` and ``coords``
(list<double> exterior ring, interleaved x,y).

Distances are computed as ``sqrt(dx*dx + dy*dy)`` (NOT ``hypot``) so
results are bit-identical to the DuckDB SQL oracles.  Ties in kNN break
on (distance, id) — deterministic under any execution order.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from city2graph_ray import cells, shuffle
from city2graph_ray.budget import fits_driver
from city2graph_ray.exchange import keyed_exchange
from city2graph_ray.geom.delaunay import delaunay_edges
from city2graph_ray.joins import broadcast_map

_EDGE_SCHEMA = {"src": np.int64, "dst": np.int64, "distance": np.float64}


def _empty_edges() -> pd.DataFrame:
    return pd.DataFrame({k: pd.Series(dtype=v) for k, v in _EDGE_SCHEMA.items()})


def _to_arrow(b: pd.DataFrame) -> pa.Table:
    return pa.Table.from_pandas(b, preserve_index=False)


def _dist(ax, ay, bx, by):
    dx = ax - bx
    dy = ay - by
    return np.sqrt(dx * dx + dy * dy)


def _dist_l1(ax, ay, bx, by):
    return np.abs(ax - bx) + np.abs(ay - by)


_METRICS = {"euclidean": _dist, "manhattan": _dist_l1}


def _row_topk(d: np.ndarray, ids: np.ndarray, kk: int) -> np.ndarray:
    """Column indices of each row's ``kk`` smallest entries of ``d`` by
    (distance, id): exactly ``np.lexsort((ids, d), axis=1)[:, :kk]``.

    A partition finds each row's k-th distance; every entry ``<= kth``
    stays in, so all ties at the boundary do, and one lexsort of those
    few entries by (row, distance, id) orders them.  ``np.nonzero``
    keeps column order and lexsort is stable, so equal (distance, id)
    pairs keep the full sort's order too.  A row whose k-th distance is
    NaN (NaN coordinates) keeps all its entries; lexsort puts NaNs last
    and orders them by id, as the full sort does."""
    nq = d.shape[0]
    kth = np.partition(d, kk - 1, axis=1)[:, kk - 1]
    r, c = np.nonzero((d <= kth[:, None]) | np.isnan(kth)[:, None])
    o = np.lexsort((ids[c], d[r, c], r))
    r, c = r[o], c[o]
    cnt = np.bincount(r, minlength=nq)
    keep = np.arange(len(r)) - (np.cumsum(cnt) - cnt)[r] < kk
    return c[keep].reshape(nq, kk)


def _bbox_count(points: ray.data.Dataset) -> tuple[int, float, float, float, float]:
    from ray.data.aggregate import Count, Max, Min
    row = points.aggregate(Count(), Min("x"), Max("x"), Min("y"), Max("y"))
    if not row["count()"]:
        # empty input: Min/Max aggregate to None — zero bbox keeps
        # downstream arithmetic finite and the pipelines empty-safe
        return (0, 0.0, 0.0, 0.0, 0.0)
    return (row["count()"], row["min(x)"], row["max(x)"], row["min(y)"], row["max(y)"])


def _auto_cell_size(points: ray.data.Dataset, per_cell: float) -> float:
    """Cell size targeting ~per_cell points per cell.

    Derived from the DOMINANT extent, not the bbox area: a degenerate
    axis (collinear or near-collinear points) would collapse the area
    estimate and hence the cell size, and downstream witness-region
    replication is quadratic in (region / cell) — measured as an
    apparent hang on a 2-point Gabriel probe (one unit edge replicated
    to ~5·10⁵ cells).  span/√(n/per_cell) equals the area formula for
    square extents and stays ≥ span/√n otherwise."""
    n, x0, x1, y0, y1 = _bbox_count(points)
    span = max(x1 - x0, y1 - y0, 1e-9)
    n_cells = max(n / per_cell, 1.0)
    return float(span / np.sqrt(n_cells))


# ------------------------------------------------------------------ fixed radius

def fixed_radius_graph(
    points: ray.data.Dataset,
    radius: float,
    cell_size: float | None = None,
    targets: ray.data.Dataset | None = None,
    metric: str = "euclidean",
    auto_skew: bool = False,
    hot_cell_threshold: int = 20000,
) -> ray.data.Dataset:
    """All pairs within ``radius`` (reference proximity.py:1303-1437).

    Undirected: rows (src, dst, distance) with src < dst.  With
    ``targets`` (bridge_nodes directed variant, proximity.py:1609-1827):
    directed rows source-layer → target-layer, no canonicalization.

    One shuffle, keyed by grid cell of side ``max(cell_size, radius)``;
    halo = radius bounds cross-cell pairs.  Per-tile kernel is a chunked
    numpy distance matrix; duplicate suppression: a pair is emitted only
    by the home cell of its smaller-id (resp. source) endpoint.
    """
    # default cell = 8× radius: halo duplication factor (1+2r/cs)² ≈ 1.56
    # — shuffle bytes are the scaling bottleneck, kernel compute is not
    # (measured sweep in BASELINE.md)
    cs = max(cell_size or 8.0 * radius, radius)
    if auto_skew and cell_size is None:
        # hot-cell mitigation for Zipfian (urban-core) inputs: a cheap
        # pre-count finds the hottest cell; the grid shrinks (never
        # below the radius floor) until the per-tile kernel cost
        # max_count² stays bounded.  For algebraic aggregates the
        # combiner in shuffle.group_agg already plays the salt role;
        # per-tile ALGORITHMS need this geometric subdivision instead
        # (SURVEY.md §4 skew row).
        probe = points.map_batches(
            lambda b: pd.DataFrame({"cell": cells.cell_id(
                b["x"].to_numpy(), b["y"].to_numpy(), cs)}),
            batch_format="pandas")
        counts = shuffle.group_agg(probe, ["cell"],
                                   {"n": ("cell", "size")}).to_pandas()
        max_n = int(counts["n"].max()) if len(counts) else 0
        while max_n > hot_cell_threshold and cs > 2.0 * radius:
            cs = max(cs / 2.0, radius)
            max_n = max_n // 3  # conservative estimate; exact re-count
            # is unnecessary — correctness holds for any cs ≥ radius
    dist = _METRICS[metric]  # halo=radius stays valid: L1 ≥ L∞ ≥ axis gap
    from city2graph_ray.exchange import cell_halo_exchange

    if targets is None:
        euclid = metric == "euclidean"

        def kernel(g: pd.DataFrame) -> pd.DataFrame:
            # Multi-cell (cell, x)-sorted sweep over 256-row chunks:
            # candidates for a chunk are the rows from the first
            # |Δx| ≤ r match inside the chunk-start's cell through the
            # last match inside the chunk-end's cell (middle cells whole)
            # — a same-cell mask restricts pairing.  One kernel call per
            # partition amortizes the per-cell overhead that dominates
            # at fine grids (measured 0.3 ms × 45k cells/task).
            # Euclidean defers sqrt: candidates via dd ≤ r²(1+1e-12)
            # (strict fp superset), then the EXACT sqrt(dd) ≤ r
            # comparator on survivors — bit-identical to the dense
            # per-cell kernel.
            ids = g["id"].to_numpy()
            xs = g["x"].to_numpy()
            ys = g["y"].to_numpy()
            home = ~g["is_halo"].to_numpy()
            cc = g["cell"].to_numpy()
            n = len(g)
            if n == 0:
                return _empty_edges()
            o = np.lexsort((xs, cc))
            ids, xs, ys, home, cc = ids[o], xs[o], ys[o], home[o], cc[o]
            cstarts = np.concatenate(
                [[0], np.flatnonzero(np.diff(cc)) + 1, [n]])
            cvals = cc[cstarts[:-1]]
            out = []
            rr = radius * radius * (1.0 + 1e-12)
            # chunk=256 keeps the x-window tight when cells are wide
            # (measured 8.7× over chunk=2048 at ~900 rows/cell: a wide
            # chunk pairs against every covered cell in full) while the
            # window still amortizes per-call overhead at fine grids
            for lo in range(0, n, 256):
                hi = min(lo + 256, n)
                ci = int(np.searchsorted(cvals, cc[lo], "left"))
                cj = int(np.searchsorted(cvals, cc[hi - 1], "left"))
                a0, a1 = int(cstarts[ci]), int(cstarts[ci + 1])
                b0, b1 = int(cstarts[cj]), int(cstarts[cj + 1])
                wlo = a0 + int(np.searchsorted(xs[a0:a1],
                                               xs[lo] - radius, "left"))
                whi = b0 + int(np.searchsorted(xs[b0:b1],
                                               xs[hi - 1] + radius,
                                               "right"))
                dx = xs[lo:hi, None] - xs[None, wlo:whi]
                dy = ys[lo:hi, None] - ys[None, wlo:whi]
                same = cc[lo:hi, None] == cc[None, wlo:whi]
                if euclid:
                    dd = dx * dx
                    dd += dy * dy
                    ii, jj = np.nonzero((dd <= rr) & same)
                    dvals = np.sqrt(dd[ii, jj])
                else:
                    dd = np.abs(dx)
                    dd += np.abs(dy)
                    ii, jj = np.nonzero((dd <= radius) & same)
                    dvals = dd[ii, jj]
                sel = dvals <= radius
                ii_g = ii[sel] + lo
                jj_g = jj[sel] + wlo
                keep = (ids[ii_g] < ids[jj_g]) & home[ii_g]
                if keep.any():
                    out.append(pd.DataFrame({
                        "src": ids[ii_g[keep]], "dst": ids[jj_g[keep]],
                        "distance": dvals[sel][keep]}))
            return pd.concat(out) if out else _empty_edges()

        return cell_halo_exchange(points, cs, radius, kernel, per_cell=False)

    # bipartite / directed: queries = points (home cell only), candidates = targets (+halo)
    def tag(flag):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            batch = batch[["id", "x", "y"]].copy()
            batch["is_query"] = flag
            return batch
        return fn

    qs = points.map_batches(tag(True), batch_format="pandas")
    ts = targets.map_batches(tag(False), batch_format="pandas")

    def bikernel(g: pd.DataFrame) -> pd.DataFrame:
        q = g[g["is_query"] & ~g["is_halo"]]
        c = g[~g["is_query"]]
        if len(q) == 0 or len(c) == 0:
            return _empty_edges()
        d = dist(q["x"].to_numpy()[:, None], q["y"].to_numpy()[:, None],
                 c["x"].to_numpy()[None, :], c["y"].to_numpy()[None, :])
        ii, jj = np.nonzero(d <= radius)
        return pd.DataFrame({"src": q["id"].to_numpy()[ii],
                             "dst": c["id"].to_numpy()[jj],
                             "distance": d[ii, jj]})

    return cell_halo_exchange(qs.union(ts), cs, radius, bikernel,
                              extra_cols=("is_query",))


# ------------------------------------------------------------------ kNN

def knn_graph(
    points: ray.data.Dataset,
    k: int,
    cell_size: float | None = None,
    halo: float | None = None,
    targets: ray.data.Dataset | None = None,
    max_rounds: int = 4,
    metric: str = "euclidean",
) -> ray.data.Dataset:
    """Directed k-nearest-neighbors (reference proximity.py:771-887;
    self excluded; undirected view = canonicalize_edges downstream,
    matching the reference's undirected NX graph construction).

    Distributed scheme: queries live in their home cell; candidates are
    duplicated into every cell within ``halo`` of them.  A query is
    *resolved* when its k-th neighbor distance ≤ halo (then no point
    outside the duplicated region can be closer).  ``halo`` defaults to
    3× the expected k-th-neighbor distance from a density estimate
    (so ≈ all queries resolve in round 0) and ``cell_size`` to 4×halo
    (candidate duplication factor (1+2·halo/cell)² ≈ 2.25 — NOT the 9×
    of a full one-ring).  Unresolved queries (sparse regions, borders)
    go to one exact broadcast round (``_knn_broadcast``: every query
    against the whole candidate stream) as soon as there are no more
    of them than one round-0 cell is expected to hold — its nq·n
    distances then cost no more than round 0's kernel.  Until then
    they retry in tiled rounds with doubled halo, against candidates
    pre-filtered to the cells around them; each such round costs a
    full pass over the candidates.  The broadcast round also ends the
    escalation once the halo spans the extent or at ``max_rounds``.
    Each query row keeps its k smallest (distance, id) entries via a
    partition plus a sort of the entries that tie at the k-th.

    Output rows: (src, dst, distance), exactly min(k, n-1) per src,
    ties broken by (distance, dst id).
    """
    cand = targets if targets is not None else points
    bipartite = targets is not None
    dist = _METRICS[metric]  # resolution test stays valid: L1 ≥ L∞
    n, x0, x1, y0, y1 = _bbox_count(cand)
    extent = max(x1 - x0, y1 - y0, 1e-9)
    if halo is None:
        density = max(n, 1) / max((x1 - x0) * (y1 - y0), 1e-9)
        rk = np.sqrt(max(k, 1) / (np.pi * density))
        halo = 3.0 * rk
    if cell_size is None:
        cell_size = 4.0 * halo

    edge_parts: list[ray.data.Dataset] = []
    queries = points
    cs = float(cell_size)
    hw = min(float(halo), cs)  # duplication width can't exceed the cell

    def tiled_round(queries, cs, hw, prefilter):
        """One tiled pass: returns (resolved edges ds, unresolved points
        DataFrame on the driver)."""
        # unipartite round 0: every point is both query and candidate —
        # the non-halo candidate rows ARE the queries, so the separate
        # query side is skipped entirely (~30% less shuffle volume)
        implicit_queries = not bipartite and not prefilter
        ts = cand.map_batches(
            lambda b: b[["id", "x", "y"]].assign(is_query=False),
            batch_format="pandas")
        if prefilter:
            # candidates only matter near the (few) unresolved queries:
            # broadcast their home cells + 1 ring, pre-filter candidates
            qdf = queries.to_pandas()
            qc = np.unique(cells.cell_id(qdf["x"].to_numpy(),
                                         qdf["y"].to_numpy(), cs))
            qix, qiy = cells.cell_xy(qc)
            ring = set()
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    ring.update(cells.pack(qix + dx, qiy + dy).tolist())

            def near_q(batch: pd.DataFrame, keep_cells: np.ndarray,
                       cs=cs) -> pd.DataFrame:
                c = cells.cell_id(batch["x"].to_numpy(),
                                  batch["y"].to_numpy(), cs)
                return batch[np.isin(c, keep_cells)]

            ts = broadcast_map(ts, np.fromiter(ring, np.int64, len(ring)),
                               near_q)

        def _round_empty() -> pd.DataFrame:
            return pd.DataFrame({"src": pd.Series(dtype=np.int64),
                                 "dst": pd.Series(dtype=np.int64),
                                 "distance": pd.Series(dtype=np.float64),
                                 "resolved": pd.Series(dtype=bool),
                                 "qx": pd.Series(dtype=np.float64),
                                 "qy": pd.Series(dtype=np.float64)})

        def kernel(g: pd.DataFrame, halo_w=hw,
                   implicit_queries=implicit_queries) -> pd.DataFrame:
            if implicit_queries:
                q = g[~g["is_halo"]]
                c = g
            else:
                # the exchange copies queries into halo cells too; a
                # query is answered in its home cell only
                q = g[g["is_query"] & ~g["is_halo"]]
                c = g[~g["is_query"]]
            if len(q) == 0:
                return _round_empty()
            cid = c["id"].to_numpy()
            cx = c["x"].to_numpy()
            cy = c["y"].to_numpy()
            _, uniq = np.unique(cid, return_index=True)
            cid, cx, cy = cid[uniq], cx[uniq], cy[uniq]
            # x-sweep window (exact): a candidate with |Δx| > halo_w has
            # distance > halo_w under both metrics, so it can never be
            # among the k selected of a row that RESOLVES (kth ≤ halo_w);
            # rows whose window-local kth exceeds halo_w (or with < k
            # window candidates) stay unresolved and re-query at a wider
            # halo — identical output to the full-cell matrix.
            co = np.argsort(cx, kind="stable")
            cid, cx, cy = cid[co], cx[co], cy[co]
            outs = []
            qo = np.argsort(q["x"].to_numpy(), kind="stable")
            qid = q["id"].to_numpy()[qo]
            qx = q["x"].to_numpy()[qo]
            qy = q["y"].to_numpy()[qo]
            for lo in range(0, len(q), 1024):
                hi = min(lo + 1024, len(q))
                nq = hi - lo
                wlo = int(np.searchsorted(cx, qx[lo] - halo_w, "left"))
                whi = int(np.searchsorted(cx, qx[hi - 1] + halo_w, "right"))
                cid_w, cx_w, cy_w = (cid[wlo:whi], cx[wlo:whi],
                                     cy[wlo:whi])
                if len(cid_w) == 0:
                    d = np.empty((nq, 0))
                else:
                    d = dist(qx[lo:hi, None], qy[lo:hi, None],
                             cx_w[None, :], cy_w[None, :])
                if not bipartite and d.shape[1]:
                    d[cid_w[None, :] == qid[lo:hi, None]] = np.inf  # no self
                avail = d.shape[1] - (0 if bipartite else 1)
                kk = min(k, max(avail, 0))
                if kk <= 0:
                    outs.append(pd.DataFrame({
                        "src": qid[lo:hi], "dst": np.int64(-1),
                        "distance": np.inf, "resolved": False,
                        "qx": qx[lo:hi], "qy": qy[lo:hi]}))
                    continue
                # by (distance, id), ties at the k-th boundary included
                # (L1 lattice distances tie constantly)
                sel = _row_topk(d, cid_w, kk)
                rows = np.repeat(np.arange(nq), kk)
                dsel = d[rows, sel.ravel()]
                kth = dsel.reshape(nq, kk)[:, -1]
                resolved = (kk == k) & (kth <= halo_w)
                outs.append(pd.DataFrame({
                    "src": qid[lo + rows], "dst": cid_w[sel.ravel()],
                    "distance": dsel,
                    "resolved": np.repeat(resolved, kk),
                    "qx": qx[lo + rows], "qy": qy[lo + rows]}))
            if not outs:
                return _round_empty()
            return pd.concat(outs)

        from city2graph_ray.exchange import cell_halo_exchange
        if implicit_queries:
            result = cell_halo_exchange(ts, cs, hw, kernel)
        else:
            qs = queries.map_batches(
                lambda b: b[["id", "x", "y"]].assign(is_query=True),
                batch_format="pandas")
            result = cell_halo_exchange(qs.union(ts), cs, hw, kernel,
                                        extra_cols=("is_query",))
        result = result.materialize()
        resolved = result.filter(expr="resolved == True").drop_columns(
            ["resolved", "qx", "qy"])
        unresolved = result.filter(expr="resolved == False").map_batches(
            lambda b: pd.DataFrame({"id": b["src"], "x": b["qx"], "y": b["qy"]}),
            batch_format="pandas")
        # unresolved remainder is small: driver-side dedup beats a shuffle
        return resolved, unresolved.to_pandas().drop_duplicates("id")

    few = False
    for rnd in range(max_rounds):
        if rnd == max_rounds - 1 or hw >= extent or few:
            # FINAL: broadcast the query set over the full candidate
            # stream; per-block top-k partials, exact merge.
            edge_parts.append(_knn_broadcast(queries, cand, k, bipartite,
                                             metric=metric))
            break
        resolved, udf = tiled_round(queries, cs, hw, prefilter=rnd > 0)
        edge_parts.append(resolved)
        if udf.empty:
            break
        queries = ray.data.from_pandas(udf)
        # no more queries than one round-0 cell holds: the broadcast's
        # nq·n distances cost no more than round 0's kernel did.  The
        # dominant extent² over-states the area, so a degenerate axis
        # errs towards the tiled rounds.
        few = len(udf) * extent ** 2 <= n * float(cell_size) ** 2
        hw *= 2.0
        cs = max(cs, 2.0 * hw)

    return _union_all(edge_parts)


def _union_all(parts: list[ray.data.Dataset]) -> ray.data.Dataset:
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out


def _knn_broadcast(queries: ray.data.Dataset, cand: ray.data.Dataset, k: int,
                   bipartite: bool, metric: str = "euclidean") -> ray.data.Dataset:
    """Exact kNN for a query set small enough to broadcast: per-candidate-
    block top-k partials (map_batches over the streaming candidate side)
    merged by a per-query top-k shuffle.  knn_graph's final round, taken
    once the unresolved queries fit in one cell (or the rounds run out):
    its nq·n distances then cost no more than round 0's kernel.  Emits
    Arrow blocks, like the tiled rounds it is unioned with."""
    qdf = queries.select_columns(["id", "x", "y"]).to_pandas()
    if qdf.empty:
        return ray.data.from_arrow(_to_arrow(_empty_edges()))

    dist = _METRICS[metric]

    def block_topk(batch: pd.DataFrame, q: tuple) -> pd.DataFrame:
        qid, qx, qy = q
        cid = batch["id"].to_numpy()
        cx = batch["x"].to_numpy()
        cy = batch["y"].to_numpy()
        outs = []
        for lo in range(0, len(qid), 512):
            hi = min(lo + 512, len(qid))
            nq = hi - lo
            d = dist(qx[lo:hi, None], qy[lo:hi, None], cx[None, :], cy[None, :])
            if not bipartite:
                d[cid[None, :] == qid[lo:hi, None]] = np.inf
            kk = min(k, d.shape[1])
            if kk <= 0:
                continue
            sel = _row_topk(d, cid, kk)
            rows = np.repeat(np.arange(nq), kk)
            dsel = d[rows, sel.ravel()]
            keep = np.isfinite(dsel)  # self-only blocks emit nothing
            outs.append(pd.DataFrame({"src": qid[lo + rows][keep],
                                      "dst": cid[sel.ravel()][keep],
                                      "distance": dsel[keep]}))
        return pd.concat(outs) if outs else _empty_edges()

    partials = broadcast_map(cand, (qdf["id"].to_numpy(), qdf["x"].to_numpy(),
                                    qdf["y"].to_numpy()), block_topk)
    merged = shuffle.topk_in_group(partials, ["src"], k,
                                   ["distance", "dst"], [True, True])
    return merged.map_batches(_to_arrow, batch_format="pandas")


# ------------------------------------------------------------------ Delaunay family

def _gather_points(points: ray.data.Dataset) -> pd.DataFrame:
    """Exact-mode gather: the Delaunay-family builders run the global
    triangulation in one task when the point table fits (the reference is
    O(n log n) single-process anyway); the tiled variant is
    delaunay_graph(tiled=True) — see docstring for its boundary caveat."""
    df = points.select_columns(["id", "x", "y"]).to_pandas()
    return df.sort_values("id", kind="stable").reset_index(drop=True)


def _delaunay_edges_df(df: pd.DataFrame) -> pd.DataFrame:
    pts = df[["x", "y"]].to_numpy()
    e = delaunay_edges(pts)
    ids = df["id"].to_numpy()
    src = ids[e[:, 0]]
    dst = ids[e[:, 1]]
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    d = _dist(df["x"].to_numpy()[e[:, 0]], df["y"].to_numpy()[e[:, 0]],
              df["x"].to_numpy()[e[:, 1]], df["y"].to_numpy()[e[:, 1]])
    out = pd.DataFrame({"src": lo, "dst": hi, "distance": d})
    return out.sort_values(["src", "dst"]).reset_index(drop=True)


def delaunay_graph(points: ray.data.Dataset, tiled: bool = False,
                   cell_size: float | None = None, max_rounds: int = 3) -> ray.data.Dataset:
    """Delaunay triangulation edges (reference proximity.py:890-982).

    exact (default): single-group triangulation; fine up to ~10M points
    per task.

    tiled: EXACT distributed construction via per-tile triangulation
    with *circumcircle certification* + escalation.  Each tile
    triangulates its window (home cell + one-ring halo).  A home point
    is **certified** when it is not on the local hull and every incident
    triangle's circumcircle lies inside the window — then its local
    star equals its global Delaunay star (the window contains every
    point that could invalidate it), so all its incident edges are true
    global edges.  Uncertified points escalate to a doubled cell size;
    any survivors after ``max_rounds`` (typically just the global hull)
    are resolved by one global group that emits only their incident
    edges.  Matches exact mode bit-for-bit (tests/test_proximity.py).
    """
    if not tiled:
        df = _gather_points(points)
        return ray.data.from_pandas(_delaunay_edges_df(df))

    from city2graph_ray.geom.delaunay import Delaunator

    n, x0, x1, y0, y1 = _bbox_count(points)
    extent = max(x1 - x0, y1 - y0, 1e-9)
    cs = cell_size or _auto_cell_size(points, per_cell=4096.0)
    if cs >= extent:
        # one tile would cover everything — tiling degenerates to exact
        df = _gather_points(points)
        return ray.data.from_pandas(_delaunay_edges_df(df))
    edge_parts: list[ray.data.Dataset] = []
    queries = points  # points still needing their star computed

    def tag(flag):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch[["id", "x", "y"]].copy()
            out["is_query"] = flag
            return out
        return fn

    for rnd in range(max_rounds + 1):
        # once a cell would cover the whole extent, per-tile certification
        # can't beat the global pass — go straight to it
        final = rnd == max_rounds or cs >= extent
        if final:
            # global group: emit edges incident to the remaining queries
            qids = set(queries.select_columns(["id"]).to_pandas()["id"])
            if not qids:
                break
            df = _gather_points(points)
            e = _delaunay_edges_df(df)
            mask = e["src"].isin(qids) | e["dst"].isin(qids)
            edge_parts.append(ray.data.from_pandas(e[mask].reset_index(drop=True)))
            break

        qs = queries.map_batches(tag(True), batch_format="pandas")
        ts = points.map_batches(tag(False), batch_format="pandas")

        def kernel(g: pd.DataFrame, cs=cs) -> pd.DataFrame:
            def empty():
                return pd.DataFrame({"src": pd.Series(dtype=np.int64),
                                     "dst": pd.Series(dtype=np.int64),
                                     "distance": pd.Series(dtype=np.float64),
                                     "resolved": pd.Series(dtype=bool),
                                     "qx": pd.Series(dtype=np.float64),
                                     "qy": pd.Series(dtype=np.float64)})

            qmask = (g["is_query"] & ~g["is_halo"]).to_numpy()
            if not qmask.any():
                return empty()
            # candidate set: dedup points by id (queries duplicate candidates)
            u = g.drop_duplicates("id").reset_index(drop=True)
            ids = u["id"].to_numpy()
            xs = u["x"].to_numpy()
            ys = u["y"].to_numpy()
            home_q = np.unique(g.loc[qmask, "id"].to_numpy())
            qpos = np.isin(ids, home_q)

            def unresolved(sel: np.ndarray) -> pd.DataFrame:
                return pd.DataFrame({"src": ids[sel], "dst": np.int64(-1),
                                     "distance": np.inf, "resolved": False,
                                     "qx": xs[sel], "qy": ys[sel]})

            if len(u) < 3:
                return unresolved(qpos)
            # window bounds = home cell expanded by one ring
            cell = int(g["cell"].iloc[np.argmax(~g["is_halo"].to_numpy())])
            cix, ciy = cells.cell_xy(np.array([cell]))
            wx0 = (cix[0] - 1) * cs
            wx1 = (cix[0] + 2) * cs
            wy0 = (ciy[0] - 1) * cs
            wy1 = (ciy[0] + 2) * cs

            d = Delaunator(np.stack([xs, ys], axis=1))
            tri = d.triangles.reshape(-1, 3)
            if len(tri) == 0:
                return unresolved(qpos)
            # vectorized circumcenters over the triangle array
            ax_, ay_ = xs[tri[:, 0]], ys[tri[:, 0]]
            dx, dy = xs[tri[:, 1]] - ax_, ys[tri[:, 1]] - ay_
            ex, ey = xs[tri[:, 2]] - ax_, ys[tri[:, 2]] - ay_
            bl = dx * dx + dy * dy
            cl = ex * ex + ey * ey
            denom = dx * ey - dy * ex
            with np.errstate(divide="ignore", invalid="ignore"):
                half = np.where(denom != 0, 0.5 / denom, np.inf)
            ccx = ax_ + (ey * bl - dy * cl) * half
            ccy = ay_ + (dx * cl - ex * bl) * half
            rr = np.sqrt((xs[tri[:, 0]] - ccx) ** 2 + (ys[tri[:, 0]] - ccy) ** 2)
            eps = 1e-9
            safe_tri = ((ccx - rr >= wx0 + eps) & (ccx + rr <= wx1 - eps) &
                        (ccy - rr >= wy0 + eps) & (ccy + rr <= wy1 - eps))
            # point certified: off-hull and all incident triangles safe
            certified = np.zeros(len(u), dtype=bool)
            certified[:] = True
            certified[d.hull] = False
            unsafe_pts = np.unique(tri[~safe_tri].ravel())
            certified[unsafe_pts] = False

            cert_q = qpos & certified
            uncert_q = qpos & ~certified
            out = [unresolved(np.nonzero(uncert_q)[0])] if uncert_q.any() else []
            if cert_q.any():
                e = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
                e.sort(axis=1)
                e = np.unique(e, axis=0)
                inc = cert_q[e[:, 0]] | cert_q[e[:, 1]]
                e = e[inc]
                src = ids[e[:, 0]]
                dst = ids[e[:, 1]]
                lo = np.minimum(src, dst)
                hi = np.maximum(src, dst)
                dd = _dist(xs[e[:, 0]], ys[e[:, 0]], xs[e[:, 1]], ys[e[:, 1]])
                out.append(pd.DataFrame({"src": lo, "dst": hi, "distance": dd,
                                         "resolved": True, "qx": 0.0, "qy": 0.0}))
            return pd.concat(out) if out else empty()

        from city2graph_ray.exchange import cell_halo_exchange
        result = cell_halo_exchange(qs.union(ts), cs, cs, kernel,
                                    extra_cols=("is_query",)).materialize()
        edge_parts.append(
            result.filter(expr="resolved == True").drop_columns(["resolved", "qx", "qy"]))
        unresolved_ds = result.filter(expr="resolved == False").map_batches(
            lambda b: pd.DataFrame({"id": b["src"], "x": b["qx"], "y": b["qy"]}),
            batch_format="pandas")
        nxt = shuffle.distinct(unresolved_ds, ["id"]).materialize()
        if nxt.count() == 0:
            break
        queries = nxt
        cs *= 2.0

    out = edge_parts[0]
    for part in edge_parts[1:]:
        out = out.union(part)
    # an edge may be emitted by both endpoints' tiles (and by the final
    # global pass) → distinct on the pair
    return shuffle.distinct(out, ["src", "dst"])


def gabriel_graph(points: ray.data.Dataset,
                  cell_size: float | None = None) -> ray.data.Dataset:
    """Delaunay subset where the open disc on (u,v) as diameter is empty
    (reference proximity.py:985-1081: dot-product test vs all points).

    Fully distributed: candidates come from the certified tiled
    Delaunay; each edge's emptiness probe runs cell-bucketed against
    only the points inside the diametral disc's bbox (witness must lie
    within d/2 of the midpoint) — no driver gather, no O(E·n) loop."""
    edges = delaunay_graph(points, tiled=True, cell_size=cell_size)
    return _lune_filter_tiled(points, edges, "gabriel", cell_size)


def relative_neighborhood_graph(points: ray.data.Dataset,
                                cell_size: float | None = None,
                                ) -> ray.data.Dataset:
    """Delaunay subset with empty lune: no w with
    max(d(u,w), d(v,w)) < d(u,v) (reference proximity.py:1084-1184).
    Distributed like :func:`gabriel_graph`; the lune ⊆ disc(midpoint,
    √3/2·d), so the witness probe is bounded by that bbox."""
    edges = delaunay_graph(points, tiled=True, cell_size=cell_size)
    return _lune_filter_tiled(points, edges, "rng", cell_size)


def _lune_filter_tiled(points: ray.data.Dataset, edges: ray.data.Dataset,
                       mode: str, cell_size: float | None = None,
                       chunk: int = 512) -> ray.data.Dataset:
    """Cell-bucketed per-edge emptiness probe (SURVEY.md §2.8).

    Plan: attach endpoint coords to the edge stream (two bucketed hash
    joins), replicate each edge to the grid cells covered by its witness
    region's bbox (radius d/2 for gabriel, √3/2·d for rng around the
    midpoint), keep points in their home cell, group by cell, count
    witnesses with a chunked numpy kernel, then a (src, dst) sum —
    edges with zero witnesses anywhere survive.  Long edges replicate
    to more cells; they are O(hull) few in a Delaunay candidate set
    (the documented partitioning assumption)."""
    from city2graph_ray.joins import bucketed_join

    cs = cell_size or _auto_cell_size(points, per_cell=4096.0)
    rfac = 0.5 if mode == "gabriel" else 0.8661  # lune ⊆ disc(m, √3/2·d)
    eps = 1e-12

    def rename(kc, xc, yc):
        def fn(t: pa.Table) -> pa.Table:
            return t.select(["id", "x", "y"]).rename_columns([kc, xc, yc])
        return fn

    pu = points.map_batches(rename("src", "ux", "uy"), batch_format="pyarrow")
    pv = points.map_batches(rename("dst", "vx", "vy"), batch_format="pyarrow")
    e = bucketed_join(edges, pu, on="src")
    e = bucketed_join(e, pv, on="dst")

    cols = ["cell", "kind", "id", "x", "y", "src", "dst", "distance",
            "ux", "uy", "vx", "vy"]

    def edge_rows(b: pd.DataFrame) -> pd.DataFrame:
        mx = (b["ux"].to_numpy() + b["vx"].to_numpy()) * 0.5
        my = (b["uy"].to_numpy() + b["vy"].to_numpy()) * 0.5
        r = b["distance"].to_numpy() * rfac
        rows, cell = cells.covering_cells(mx - r, my - r, mx + r, my + r, cs)
        out = b.iloc[rows].reset_index(drop=True)
        out["cell"] = cell
        out["kind"] = np.int8(1)
        out["id"] = np.int64(0)
        out["x"] = 0.0
        out["y"] = 0.0
        return out[cols]

    def point_rows(b: pd.DataFrame) -> pd.DataFrame:
        out = b[["id", "x", "y"]].copy()
        out["cell"] = cells.cell_id(b["x"].to_numpy(), b["y"].to_numpy(), cs)
        out["kind"] = np.int8(0)
        for c in ("src", "dst"):
            out[c] = np.int64(0)
        for c in ("distance", "ux", "uy", "vx", "vy"):
            out[c] = 0.0
        return out[cols]

    combined = e.map_batches(edge_rows, batch_format="pandas").union(
        points.map_batches(point_rows, batch_format="pandas"))

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        eg = g[g["kind"] == 1]
        if len(eg) == 0:
            return pd.DataFrame({"src": pd.Series(dtype=np.int64),
                                 "dst": pd.Series(dtype=np.int64),
                                 "distance": pd.Series(dtype=np.float64),
                                 "witness": pd.Series(dtype=np.int64)})
        pts = g[g["kind"] == 0]
        pid = pts["id"].to_numpy()
        px = pts["x"].to_numpy()
        py = pts["y"].to_numpy()
        src = eg["src"].to_numpy()
        dst = eg["dst"].to_numpy()
        d = eg["distance"].to_numpy()
        ux, uy = eg["ux"].to_numpy(), eg["uy"].to_numpy()
        vx, vy = eg["vx"].to_numpy(), eg["vy"].to_numpy()
        wit = np.zeros(len(eg), dtype=np.int64)
        if len(pts):
            for lo in range(0, len(eg), chunk):
                hi = min(lo + chunk, len(eg))
                dwu2 = ((px[None, :] - ux[lo:hi, None]) ** 2
                        + (py[None, :] - uy[lo:hi, None]) ** 2)
                dwv2 = ((px[None, :] - vx[lo:hi, None]) ** 2
                        + (py[None, :] - vy[lo:hi, None]) ** 2)
                d2 = (d[lo:hi] * d[lo:hi])[:, None]
                if mode == "gabriel":
                    inside = (dwu2 + dwv2) < d2 - eps
                else:
                    inside = np.maximum(dwu2, dwv2) < d2 - eps
                inside &= (pid[None, :] != src[lo:hi, None])
                inside &= (pid[None, :] != dst[lo:hi, None])
                wit[lo:hi] = inside.sum(axis=1)
        return pd.DataFrame({"src": src, "dst": dst, "distance": d,
                             "witness": wit})

    probe = keyed_exchange(combined, ["cell"], kernel)
    tot = shuffle.group_agg(probe, ["src", "dst"],
                            {"distance": ("distance", "max"),
                             "witness": ("witness", "sum")})
    return tot.filter(expr="witness == 0").drop_columns(["witness"])


def _boruvka_mst(cand: ray.data.Dataset, max_rounds: int = 40,
                 ) -> ray.data.Dataset:
    """Distributed Borůvka over a candidate edge Dataset (src, dst,
    distance) — exact MST/forest of the candidate graph under the
    deterministic (distance, src, dst) total order (all-distinct edge
    keys ⇒ no tie cycles, Borůvka's classic requirement).  Per round:
    one per-component min-incident-edge shuffle (``topk_in_group`` k=1
    over the doubled edge stream), a ``connected_components``
    contraction of the ≤|components|-row min-edge pointer graph, and
    two bucketed relabel joins; components at least halve per round, so
    O(log n) rounds and the edge set never touches the driver."""
    from city2graph_ray.joins import bucketed_join
    from city2graph_ray.ops.topology import connected_components

    def init(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "src": b["src"].to_numpy(np.int64),
            "dst": b["dst"].to_numpy(np.int64),
            "distance": b["distance"].to_numpy(np.float64),
            "cu": b["src"].to_numpy(np.int64),
            "cv": b["dst"].to_numpy(np.int64)})

    edges = cand.map_batches(init, batch_format="pandas").materialize()
    picked: list[ray.data.Dataset] = []
    for _ in range(max_rounds):
        edges = edges.map_batches(
            lambda b: b[b["cu"].to_numpy() != b["cv"].to_numpy()],
            batch_format="pandas").materialize()
        if edges.count() == 0:
            break

        def double(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "comp": np.concatenate([b["cu"].to_numpy(np.int64),
                                        b["cv"].to_numpy(np.int64)]),
                "src": np.tile(b["src"].to_numpy(np.int64), 2),
                "dst": np.tile(b["dst"].to_numpy(np.int64), 2),
                "distance": np.tile(b["distance"].to_numpy(np.float64), 2),
                "cu": np.tile(b["cu"].to_numpy(np.int64), 2),
                "cv": np.tile(b["cv"].to_numpy(np.int64), 2)})

        f = shuffle.topk_in_group(
            edges.map_batches(double, batch_format="pandas"),
            ["comp"], 1, ["distance", "src", "dst"],
            [True, True, True]).materialize()
        picked.append(f.select_columns(["src", "dst", "distance"]))
        lab = connected_components(f.map_batches(
            lambda b: pd.DataFrame({"src": b["cu"].to_numpy(np.int64),
                                    "dst": b["cv"].to_numpy(np.int64)}),
            batch_format="pandas"))
        for col in ("cu", "cv"):
            def proj(b: pd.DataFrame, c=col) -> pd.DataFrame:
                return pd.DataFrame(
                    {c: b["node_id"].to_numpy(np.int64),
                     "__new": b["component"].to_numpy(np.int64)})

            def relab(b: pd.DataFrame, c=col) -> pd.DataFrame:
                new = b["__new"].to_numpy(np.float64)
                out = np.where(np.isnan(new), b[c].to_numpy(np.int64),
                               new).astype(np.int64)
                b = b.drop(columns=["__new"])
                b[c] = out
                return b

            edges = bucketed_join(
                edges, lab.map_batches(proj, batch_format="pandas"),
                on=col, how="left"
            ).map_batches(relab, batch_format="pandas")
        edges = edges.materialize()
    if not picked:
        return cand.limit(0)
    out = picked[0].union(*picked[1:]) if len(picked) > 1 else picked[0]
    return shuffle.distinct(out, ["src", "dst"]).sort(["src", "dst"])


def euclidean_minimum_spanning_tree(points: ray.data.Dataset,
                                    cell_size: float | None = None,
                                    ) -> ray.data.Dataset:
    """EMST over Delaunay-pruned candidates (reference
    proximity.py:1187-1300).  Candidate generation is the certified
    tiled Delaunay (distributed); the spanning pass is driver Kruskal
    when the candidates fit the driver budget (fast, union-find over
    ≤~3n small rows) and distributed Borůvka (:func:`_boruvka_mst`)
    otherwise.  Both use the same (distance, src, dst) total order, so
    their edge sets are identical (cross-checked in tests)."""
    cand = (delaunay_graph(points, tiled=True, cell_size=cell_size)
            .materialize())
    # the candidate frame and its kept-row copy (2× as stored) + per
    # row the lexsort order 8, a keep-list entry ~16 and a share of the
    # boxed-int parent dict ~40: 64 B per row
    if not fits_driver(2 * cand.size_bytes() + cand.count() * 64):
        return _boruvka_mst(cand)
    edges = cand.to_pandas()
    order = np.lexsort((edges["dst"].to_numpy(), edges["src"].to_numpy(),
                        edges["distance"].to_numpy()))
    parent: dict[int, int] = {}

    def find(a: int) -> int:
        while parent.setdefault(a, a) != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    srcs = edges["src"].to_numpy()
    dsts = edges["dst"].to_numpy()
    keep = []
    for idx in order:
        ru, rv = find(int(srcs[idx])), find(int(dsts[idx]))
        if ru != rv:
            parent[ru] = rv
            keep.append(idx)
    out = (edges.iloc[keep].sort_values(["src", "dst"])
           .reset_index(drop=True))
    return ray.data.from_pandas(out)


# ------------------------------------------------------------ edge decoration

def _joined_endpoint_coords(edges: ray.data.Dataset,
                            points: ray.data.Dataset) -> ray.data.Dataset:
    """Attach (ux, uy, vx, vy) endpoint coords to an edge stream with
    two bucketed hash joins (the edge stream is what moves; no point
    table broadcast)."""
    from city2graph_ray.joins import bucketed_join

    def rn(kc, xc, yc):
        def fn(t: pa.Table) -> pa.Table:
            return t.select(["id", "x", "y"]).rename_columns([kc, xc, yc])
        return fn

    e = bucketed_join(edges, points.map_batches(rn("src", "ux", "uy"),
                                                batch_format="pyarrow"),
                      on="src")
    return bucketed_join(e, points.map_batches(rn("dst", "vx", "vy"),
                                               batch_format="pyarrow"),
                         on="dst")


def attach_edge_geometry(edges: ray.data.Dataset, points: ray.data.Dataset,
                         metric: str = "euclidean") -> ray.data.Dataset:
    """Edge LineString geometries per the reference's _compute_edge_data
    (proximity.py:580-628): euclidean → the straight segment
    (p1, p2); manhattan → the L-shaped path (p1, (p2.x, p1.y), p2).
    Output = the edge stream + a ``geometry`` WKT column (endpoint
    coords joined in, never broadcast).  Network-metric edges get their
    path polyline from ops.network.attach_network_path_geometry."""
    if metric not in ("euclidean", "manhattan"):
        raise ValueError(f"unsupported metric for edge geometry: {metric}")
    withxy = _joined_endpoint_coords(edges, points)
    keep = [c for c in edges.schema().names]

    def emit(b: pd.DataFrame) -> pd.DataFrame:
        ux, uy = b["ux"].to_numpy(), b["uy"].to_numpy()
        vx, vy = b["vx"].to_numpy(), b["vy"].to_numpy()
        if metric == "manhattan":
            wkt = [f"LINESTRING ({a} {c}, {e} {c}, {e} {f})"
                   for a, c, e, f in zip(ux, uy, vx, vy)]
        else:
            wkt = [f"LINESTRING ({a} {c}, {e} {f})"
                   for a, c, e, f in zip(ux, uy, vx, vy)]
        out = b[keep].copy()
        out["geometry"] = wkt
        return out

    return withxy.map_batches(emit, batch_format="pandas")


def attach_node_attrs(edges: ray.data.Dataset, nodes: ray.data.Dataset,
                      attrs: list[str],
                      endpoints: tuple[str, str] = ("src", "dst"),
                      ) -> ray.data.Dataset:
    """Carry node attributes onto graph edges (the reference keeps node
    gdf columns on both endpoints, proximity.py:300-340): each attr in
    ``attrs`` joins in as ``{endpoint}_{attr}`` via bucketed hash joins
    keyed on the endpoint id columns."""
    from city2graph_ray.joins import bucketed_join

    out = edges
    for ep in endpoints:
        def rn(t: pa.Table, ep=ep) -> pa.Table:
            cols = ["id", *attrs]
            return t.select(cols).rename_columns(
                [ep, *[f"{ep}_{a}" for a in attrs]])
        out = bucketed_join(out, nodes.map_batches(rn, batch_format="pyarrow"),
                            on=ep)
    return out


# ------------------------------------------------------------------ Waxman

def waxman_graph(points: ray.data.Dataset, beta: float, r0: float,
                 seed: int = 42, radius_cutoff: float | None = None) -> ray.data.Dataset:
    """Seeded random geometric graph, P(u,v) = beta * exp(-d/r0)
    (reference proximity.py:1440-1567).

    The reference draws one dense n×n random matrix; that draw order
    cannot be reproduced distributed (SURVEY.md §2.6), so the engine
    uses a documented *per-pair deterministic* uniform
    u = ((src*48271 + dst*69621 + seed*9973) % 99991) / 99991 — identical in
    the SQL oracle.  Pairs are generated cell-bucketed within
    ``radius_cutoff`` (default r0 * ln(1/1e-6) — beyond it P < beta*1e-6)
    or exactly all-pairs when cutoff=inf fits one tile.
    """
    cutoff = radius_cutoff if radius_cutoff is not None else r0 * 13.8
    pairs = fixed_radius_graph(points, cutoff)

    def flt(batch: pd.DataFrame) -> pd.DataFrame:
        p = beta * np.exp(-batch["distance"].to_numpy() / r0)
        u = ((batch["src"].to_numpy() * 48271 + batch["dst"].to_numpy() * 69621
              + seed * 9973) % 99991) / 99991.0
        return batch[u < p]

    return pairs.map_batches(flt, batch_format="pandas")


# ------------------------------------------------------------------ contiguity

def contiguity_graph(polys: ray.data.Dataset, contiguity: str = "queen",
                     quant: float = 1e7) -> ray.data.Dataset:
    """Queen/Rook polygon adjacency from scratch (libpysal is not
    distributable; semantics of reference proximity.py:1968-2108,
    weights :2630-2657): queen = polygons sharing ≥1 boundary vertex,
    rook = polygons sharing ≥1 boundary segment.  Weight = centroid
    distance (euclidean).

    Shuffle plan: explode rings → (quantized key, id, centroid) rows →
    groupby(key) pairs → groupby(pair) distinct.  Exact keys (no hash
    collisions): vertex key = (qx, qy) int64 pair; segment key = sorted
    endpoint pair (4 ints).
    """
    if contiguity not in ("queen", "rook"):
        raise ValueError(contiguity)

    from city2graph_ray.geom.kernels import polygon_area_centroid

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        # fully vectorized over the ragged rings: flat vertex array +
        # per-ring offsets (Arrow list layout), reduceat shoelace
        # centroids, per-vertex/segment keys by repeat — no Python loop
        # over polygons
        rings = []
        for c in batch["coords"]:
            r = np.asarray(c, np.float64).reshape(-1, 2)
            if len(r) and (r[0] == r[-1]).all():
                r = r[:-1]
            rings.append(r)
        lens = np.fromiter((len(r) for r in rings), np.int64, len(rings))
        if lens.sum() == 0:
            return pd.DataFrame({k: [] for k in
                                 ("id", "k1", "k2", "k3", "k4", "cx", "cy")})
        V = np.concatenate(rings)
        x, y = V[:, 0], V[:, 1]
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        ends = starts + lens - 1
        nxt = np.arange(len(V)) + 1
        nxt[ends] = starts  # wrap within each ring
        cross = x * y[nxt] - x[nxt] * y
        a2 = np.add.reduceat(cross, starts)
        sx = np.add.reduceat((x + x[nxt]) * cross, starts)
        sy = np.add.reduceat((y + y[nxt]) * cross, starts)
        with np.errstate(divide="ignore", invalid="ignore"):
            cx = np.where(a2 != 0, sx / (3.0 * a2),
                          np.add.reduceat(x, starts) / np.maximum(lens, 1))
            cy = np.where(a2 != 0, sy / (3.0 * a2),
                          np.add.reduceat(y, starts) / np.maximum(lens, 1))
        pid = np.repeat(batch["id"].to_numpy().astype(np.int64), lens)
        pcx = np.repeat(cx, lens)
        pcy = np.repeat(cy, lens)
        q = np.round(V * quant).astype(np.int64)
        if contiguity == "queen":
            return pd.DataFrame({"id": pid, "k1": q[:, 0], "k2": q[:, 1],
                                 "k3": np.int64(0), "k4": np.int64(0),
                                 "cx": pcx, "cy": pcy})
        qn = q[nxt]
        swap = (q[:, 0] > qn[:, 0]) | ((q[:, 0] == qn[:, 0])
                                       & (q[:, 1] > qn[:, 1]))
        lo = np.where(swap[:, None], qn, q)
        hi = np.where(swap[:, None], q, qn)
        return pd.DataFrame({"id": pid, "k1": lo[:, 0], "k2": lo[:, 1],
                             "k3": hi[:, 0], "k4": hi[:, 1],
                             "cx": pcx, "cy": pcy})

    inc = polys.map_batches(explode, batch_format="pandas")

    keys = ["k1", "k2", "k3", "k4"]

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized per bucket: self-join on the exact vertex/segment
        # key; ordered id pairs sharing a key are contiguity candidates
        u = g.drop_duplicates([*keys, "id"])
        m = u.merge(u, on=keys)
        m = m[m["id_x"] < m["id_y"]]
        out = pd.DataFrame({"src": m["id_x"].to_numpy(),
                            "dst": m["id_y"].to_numpy(),
                            "distance": _dist(m["cx_x"].to_numpy(),
                                              m["cy_x"].to_numpy(),
                                              m["cx_y"].to_numpy(),
                                              m["cy_y"].to_numpy())})
        return out.drop_duplicates(["src", "dst"])

    cand = shuffle.grouped_transform(inc, keys, pairs)
    return shuffle.distinct(cand, ["src", "dst"])


# ------------------------------------------------------------------ group_nodes (PIP)

def group_nodes(polys: ray.data.Dataset, points: ray.data.Dataset,
                cell_size: float = 50.0) -> ray.data.Dataset:
    """Polygon → contained-point bipartite edges, predicate covered_by
    (boundary inclusive), reference proximity.py:1830-1965 / 2554-2595.

    Plan: polygons replicated to every grid cell their bbox covers;
    points live in exactly one cell → each (poly, point) pair is tested
    in exactly one group (no post-dedup).  Per-group refine is an
    even-odd ray-cast against the exterior ring (geom.kernels).
    """
    from city2graph_ray.geom import kernels

    def poly_cells(batch: pd.DataFrame) -> pd.DataFrame:
        coords_list = [np.asarray(c, np.float64) for c in batch["coords"]]
        bb = np.array([[c.reshape(-1, 2)[:, 0].min(), c.reshape(-1, 2)[:, 1].min(),
                        c.reshape(-1, 2)[:, 0].max(), c.reshape(-1, 2)[:, 1].max()]
                       for c in coords_list])
        rows, cell = cells.covering_cells(bb[:, 0], bb[:, 1], bb[:, 2], bb[:, 3], cell_size)
        # ship ring coords as raw BYTES, not numpy objects: object-dtype
        # cells sort/pickle ~10× slower through the shuffle
        blobs = [coords_list[i].tobytes() for i in rows]
        return pd.DataFrame({"poly_id": batch["id"].to_numpy()[rows],
                             "id": np.int64(-1), "x": 0.0, "y": 0.0,
                             "cell": cell, "is_poly": True, "ring": blobs})

    def point_cells(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[["id", "x", "y"]].copy()
        out["cell"] = cells.cell_id(batch["x"].to_numpy(), batch["y"].to_numpy(), cell_size)
        out["is_poly"] = False
        out["poly_id"] = np.int64(-1)
        out["ring"] = b""
        return out

    cols = ["poly_id", "id", "x", "y", "cell", "is_poly", "ring"]
    pc = polys.map_batches(lambda b: poly_cells(b)[cols], batch_format="pandas")
    tc = points.map_batches(lambda b: point_cells(b)[cols], batch_format="pandas")

    def refine(g: pd.DataFrame) -> pd.DataFrame:
        ps = g[g["is_poly"]]
        ts = g[~g["is_poly"]]
        if len(ps) == 0 or len(ts) == 0:
            return pd.DataFrame({"poly_id": pd.Series(dtype=np.int64),
                                 "point_id": pd.Series(dtype=np.int64)})
        px = ts["x"].to_numpy()
        py = ts["y"].to_numpy()
        tids = ts["id"].to_numpy()
        out_p, out_t = [], []
        for pid, blob in zip(ps["poly_id"], ps["ring"]):
            ring = np.frombuffer(blob, np.float64)
            mask = kernels.points_in_polygon(px, py, ring)
            out_p.extend([pid] * int(mask.sum()))
            out_t.extend(tids[mask])
        return pd.DataFrame({"poly_id": np.array(out_p, np.int64),
                             "point_id": np.array(out_t, np.int64)})

    return keyed_exchange(pc.union(tc), ["cell"], refine)


# ------------------------------------------------------------------ bridge_nodes

def bridge_nodes(layers: dict[str, ray.data.Dataset], method: str = "knn",
                 k: int = 1, radius: float = 1.0,
                 **kwargs) -> dict[tuple[str, str, str], ray.data.Dataset]:
    """Directed kNN / fixed-radius edges for every ordered pair of node
    layers, relation "is_nearby" (reference proximity.py:1609-1827)."""
    out: dict[tuple[str, str, str], ray.data.Dataset] = {}
    for a, da in layers.items():
        for b, db in layers.items():
            if a == b:
                continue
            if method == "knn":
                e = knn_graph(da, k=k, targets=db, **kwargs)
            elif method == "fixed_radius":
                e = fixed_radius_graph(da, radius=radius, targets=db, **kwargs)
            else:
                raise ValueError(method)
            out[(a, "is_nearby", b)] = e
    return out


def dwithin_point_segment_join(points: ray.data.Dataset,
                               segments: ray.data.Dataset,
                               d: float, cell_size: float | None = None,
                               num_buckets: int = shuffle.DEFAULT_BUCKETS,
                               ) -> ray.data.Dataset:
    """Point↔segment dwithin join: every (point, 2-point segment) pair
    whose point-to-segment distance (perpendicular foot clamped to the
    segment, the reference's place↔movement access predicate,
    morphology.py dwithin join) is ≤ ``d``.

    Points (id, x, y); segments (seg_id, ax, ay, bx, by) — assumed
    non-degenerate (ll > 0).  Output (id, seg_id, distance) with the
    raw float distance: the clamp/foot arithmetic is the same
    expression tree the SQL twin evaluates, so it compares bit-exact.

    Exactly-once with NO dedup shuffle: a point lives in exactly ONE
    cell; each segment is duplicated into the cells its d-expanded
    bbox covers (a qualifying point is inside that expansion, so its
    cell is among them); pairs are only formed in the point's cell.
    Per-cell work is a blockwise-broadcast numpy distance kernel."""
    cs = cell_size if cell_size is not None else 4.0 * d

    def seg_cells(b: pd.DataFrame) -> pd.DataFrame:
        ax = b["ax"].to_numpy(np.float64)
        ay = b["ay"].to_numpy(np.float64)
        bx = b["bx"].to_numpy(np.float64)
        by = b["by"].to_numpy(np.float64)
        rows, cl = cells.covering_cells(
            np.minimum(ax, bx) - d, np.minimum(ay, by) - d,
            np.maximum(ax, bx) + d, np.maximum(ay, by) + d, cs)
        out = b.iloc[rows][["seg_id", "ax", "ay", "bx", "by"]].copy()
        out["cell"] = cl
        out["id"] = np.int64(-1)
        out["x"] = 0.0
        out["y"] = 0.0
        out["is_pt"] = False
        return out[_DW_COLS]

    def pt_cells(b: pd.DataFrame) -> pd.DataFrame:
        out = b[["id", "x", "y"]].copy()
        out["cell"] = cells.cell_id(b["x"].to_numpy(np.float64),
                                    b["y"].to_numpy(np.float64), cs)
        out["seg_id"] = np.int64(-1)
        out["ax"] = 0.0
        out["ay"] = 0.0
        out["bx"] = 0.0
        out["by"] = 0.0
        out["is_pt"] = True
        return out[_DW_COLS]

    tagged = segments.map_batches(seg_cells, batch_format="pandas").union(
        points.map_batches(pt_cells, batch_format="pandas"))

    empty = pd.DataFrame({"id": pd.Series(dtype=np.int64),
                          "seg_id": pd.Series(dtype=np.int64),
                          "distance": pd.Series(dtype=np.float64)})

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        outs = [empty]
        for _, grp in g.groupby("cell", sort=False):
            ps = grp[grp["is_pt"]]
            ss = grp[~grp["is_pt"]]
            if len(ps) == 0 or len(ss) == 0:
                continue
            pid = ps["id"].to_numpy(np.int64)
            px = ps["x"].to_numpy(np.float64)[:, None]
            py = ps["y"].to_numpy(np.float64)[:, None]
            sid = ss["seg_id"].to_numpy(np.int64)
            ax = ss["ax"].to_numpy(np.float64)[None, :]
            ay = ss["ay"].to_numpy(np.float64)[None, :]
            bx = ss["bx"].to_numpy(np.float64)[None, :]
            by = ss["by"].to_numpy(np.float64)[None, :]
            bs = max(1, 4_000_000 // max(len(ss), 1))
            for s0 in range(0, len(ps), bs):
                s1 = min(s0 + bs, len(ps))
                qx, qy = px[s0:s1], py[s0:s1]
                ll = (bx - ax) * (bx - ax) + (by - ay) * (by - ay)
                t = ((qx - ax) * (bx - ax) + (qy - ay) * (by - ay)) / ll
                t = np.minimum(np.maximum(t, 0.0), 1.0)
                fx = ax + t * (bx - ax)
                fy = ay + t * (by - ay)
                dist = np.sqrt((qx - fx) * (qx - fx)
                               + (qy - fy) * (qy - fy))
                ii, jj = np.nonzero(dist <= d)
                if len(ii) == 0:
                    continue
                outs.append(pd.DataFrame({
                    "id": pid[ii + s0], "seg_id": sid[jj],
                    "distance": dist[ii, jj]}))
        return pd.concat(outs, ignore_index=True)

    return shuffle.grouped_transform(tagged, ["cell"], kernel,
                                     num_buckets=num_buckets)


_DW_COLS = ["id", "x", "y", "seg_id", "ax", "ay", "bx", "by", "cell",
            "is_pt"]


def ungrouped_nodes(polygons: ray.data.Dataset, points: ray.data.Dataset,
                    num_buckets: int = shuffle.DEFAULT_BUCKETS,
                    ) -> ray.data.Dataset:
    """Spatial ANTI-join: the points covered by NO polygon — the
    complement of :func:`group_nodes` (reference semantics: the
    `group_nodes` assignment's leftovers; the reference reaches the
    same set via its unenclosed-buildings anti-join,
    /root/reference/city2graph/morphology.py — here it is a
    first-class operator).  Output ``(id, x, y)``.

    Shape: the PIP matches stream out of :func:`group_nodes` (cell-
    bucketed, vectorized ray-casts), collapse to distinct matched
    point ids (8 B rows), and one bucketed LEFT join + null filter
    keeps the complement — the polygon set is never broadcast and the
    point payload shuffles once."""
    from city2graph_ray.joins import bucketed_join

    matched = group_nodes(polygons, points)
    hit = shuffle.distinct(
        matched.map_batches(
            lambda b: pd.DataFrame({"id": b["point_id"].to_numpy(),
                                    "__hit": np.ones(len(b), np.int64)}),
            batch_format="pandas"),
        ["id"], num_buckets=num_buckets)
    pts = points.map_batches(lambda b: b[["id", "x", "y"]],
                             batch_format="pandas")
    j = bucketed_join(
        pts, hit, on="id", how="left", num_buckets=num_buckets,
        left_schema=pa.schema([("id", pa.int64()), ("x", pa.float64()),
                               ("y", pa.float64())]),
        right_schema=pa.schema([("id", pa.int64()),
                                ("__hit", pa.int64())]))
    return j.map_batches(
        lambda b: b.loc[b["__hit"].isna(), ["id", "x", "y"]],
        batch_format="pandas")


def mutual_knn_graph(points: ray.data.Dataset, k: int,
                     num_buckets: int = 16) -> ray.data.Dataset:
    """Mutual (reciprocal) kNN graph: undirected pairs (src < dst)
    where BOTH endpoints list each other among their k nearest —
    the standard density-robust sparsification of the kNN graph
    (mutual-kNN clustering).  One :func:`knn_graph` build, then a
    single keyed shuffle on the canonical pair: a pair survives iff
    both directions arrived.  Distance is the shared symmetric
    double, so output matches the SQL self-join twin bit-for-bit."""
    from city2graph_ray import shuffle

    edges = knn_graph(points, k)

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        s = b["src"].to_numpy(np.int64)
        d = b["dst"].to_numpy(np.int64)
        return pd.DataFrame({"u": np.minimum(s, d),
                             "v": np.maximum(s, d),
                             "fwd": (s < d).astype(np.int8),
                             "distance": b["distance"].to_numpy()})

    def keep_mutual(g: pd.DataFrame) -> pd.DataFrame:
        grp = g.groupby(["u", "v"], sort=False)["fwd"]
        both = grp.transform("nunique") == 2
        out = g[both & (g["fwd"] == 1)]
        return pd.DataFrame({"src": out["u"].to_numpy(np.int64),
                             "dst": out["v"].to_numpy(np.int64),
                             "distance": out["distance"].to_numpy()})

    return shuffle.grouped_transform(
        edges.map_batches(canon, batch_format="pandas"),
        ["u", "v"], keep_mutual, num_buckets=num_buckets)
