"""Topology operators: segments→graph, dual graph, edge canonicalization /
symmetrization, connected components, clip.

Reference semantics: segments_to_graph
(/root/reference/city2graph/morphology.py:1545-1829 — endpoint dedup +
dense node ids morphology.py:1741-1756, multigraph keys via cumcount
:1810), dual_graph (utils/topology.py:163-325, sorted pairs :92-132),
canonicalize_edges (utils/topology.py:328-471), symmetrize_edges
(:474-568, self-loop skip :559-561), remove_isolated_components
(:775-825), clip_graph (:698-772).

Engine differences (documented contracts):

- Node ids from coordinate dedup are assigned by global (x, y) sort
  order, not input-appearance order (the reference enumerates in input
  order; ids are labels — the edge *structure* is identical, and (x, y)
  order is reproducible by both the distributed prefix-sum scheme and
  the SQL oracle: ``dense_rank() over (order by x, y)``).
- Multigraph edge keys are assigned by a deterministic within-pair sort
  on ``row_seq`` (an explicit ingest-order column) rather than implicit
  pandas row order, making cumcount reproducible under parallelism.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data

from city2graph_ray import shuffle
from city2graph_ray.budget import fits_driver
from city2graph_ray.joins import broadcast_map


def _coord_bucket(x: np.ndarray, width: float = 64.0) -> np.ndarray:
    return np.floor(np.asarray(x, np.float64) / width).astype(np.int64)


def dedup_coords_with_ids(
    endpoints: ray.data.Dataset, bucket_width: float = 64.0
) -> ray.data.Dataset:
    """Distinct (x, y) → dense int64 ``node_id`` by global (x, y) order.

    Distributed scheme (no full materialization): bucket by floor(x/w)
    — monotone in x, so global (x, y) order == (bucket, x, y) order —
    dedup per bucket, count per bucket, prefix-sum offsets on the driver
    (tiny), then id = offset + within-bucket rank.
    """
    def to_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[["x", "y"]].copy()
        out["bucket"] = _coord_bucket(batch["x"].to_numpy(), bucket_width)
        return out

    bucketed = endpoints.map_batches(to_bucket, batch_format="pandas")

    def distinct(g: pd.DataFrame) -> pd.DataFrame:
        u = g.drop_duplicates(["bucket", "x", "y"]).sort_values(
            ["bucket", "x", "y"], kind="stable").reset_index(drop=True)
        u["rank"] = u.groupby("bucket", sort=False).cumcount().astype(np.int64)
        return u

    uniq = shuffle.grouped_transform(bucketed, ["bucket"], distinct)
    uniq = uniq.materialize()

    counts = shuffle.group_agg(uniq, ["bucket"], {"n": ("bucket", "size")})
    counts = counts.to_pandas().sort_values("bucket").reset_index(drop=True)
    offsets = dict(zip(counts["bucket"],
                       np.concatenate(([0], np.cumsum(counts["n"].to_numpy())[:-1]))))

    def assign_ids(batch: pd.DataFrame, offsets: dict) -> pd.DataFrame:
        off = batch["bucket"].map(offsets).to_numpy(dtype=np.int64)
        out = batch[["x", "y"]].copy()
        out["node_id"] = off + batch["rank"].to_numpy(dtype=np.int64)
        return out

    return broadcast_map(uniq, offsets, assign_ids)


def segments_to_graph(
    segments: ray.data.Dataset, multigraph: bool = True, directed: bool = False,
    on_duplicate: str = "first",
) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """LineString table → (nodes, edges).

    Input: ``seg_id`` (int64), ``coords`` (list<double>), optional
    ``row_seq`` (defaults to seg_id) and attribute columns.
    Output nodes: (node_id, x, y); edges: original columns +
    (src, dst, edge_key) where src/dst are endpoint node ids and
    edge_key = rank of row_seq within each (src, dst) group (the
    reference's groupby([from,to]).cumcount(), morphology.py:1810).
    Undirected mode canonicalizes (src,dst) unordered first
    (utils/topology.py:328-471).
    """
    def endpoints(batch: pd.DataFrame) -> pd.DataFrame:
        c0 = np.array([np.asarray(c, np.float64)[:2] for c in batch["coords"]])
        c1 = np.array([np.asarray(c, np.float64)[-2:] for c in batch["coords"]])
        return pd.DataFrame({
            "x": np.concatenate([c0[:, 0], c1[:, 0]]),
            "y": np.concatenate([c0[:, 1], c1[:, 1]])})

    eps = segments.map_batches(endpoints, batch_format="pandas")
    nodes = dedup_coords_with_ids(eps).materialize()

    # broadcast the (coord → id) map: node table ≪ segments; at larger
    # scale this becomes a bucketed join on the same x-bucket key.
    def coord_lookup(nd: pd.DataFrame) -> dict:
        return {(xx, yy): ii for xx, yy, ii in
                zip(nd["x"], nd["y"], nd["node_id"])}

    def resolve(batch: pd.DataFrame, lookup: dict) -> pd.DataFrame:
        coords = [np.asarray(c, np.float64) for c in batch["coords"]]
        src = np.fromiter((lookup[(c[0], c[1])] for c in coords),
                          np.int64, len(coords))
        dst = np.fromiter((lookup[(c[-2], c[-1])] for c in coords),
                          np.int64, len(coords))
        out = batch.copy()
        if not directed:
            lo = np.minimum(src, dst)
            hi = np.maximum(src, dst)
            src, dst = lo, hi
        out["src"] = src
        out["dst"] = dst
        if "row_seq" not in out.columns:
            out["row_seq"] = out["seg_id"].to_numpy(dtype=np.int64)
        return out

    resolved = broadcast_map(segments, nodes.to_pandas(), resolve,
                             prepare=coord_lookup)

    if multigraph:
        edges = shuffle.rank_in_group(resolved, ["src", "dst"], "row_seq",
                                      rank_col="edge_key")
    elif on_duplicate == "error":
        # the reference raises on duplicate pairs when multigraph=False
        # (morphology.py:1807-1828)
        def check(g: pd.DataFrame) -> pd.DataFrame:
            dup = g.duplicated(["src", "dst"])
            if dup.any():
                r = g[dup].iloc[0]
                raise ValueError(
                    f"duplicate segment pair {r['src']}-{r['dst']} with "
                    f"multigraph=False")
            g = g.copy()
            g["edge_key"] = np.int64(0)
            return g
        edges = shuffle.grouped_transform(resolved, ["src", "dst"], check)
    else:
        edges = shuffle.first_by(resolved, ["src", "dst"], "row_seq")
        edges = edges.map_batches(lambda b: b.assign(edge_key=np.int64(0)),
                                  batch_format="pandas")
    return nodes, edges


def dual_graph(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Primal edges → dual edges between primal edges sharing an endpoint
    (reference utils/topology.py:163-325; deterministic sorted pairs
    :92-132).  Input: (edge_id, src, dst); output: (src, dst) of
    edge_ids with src < dst, distinct."""
    def incidence(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "node": np.concatenate([batch["src"].to_numpy(), batch["dst"].to_numpy()]),
            "edge_id": np.concatenate([batch["edge_id"].to_numpy()] * 2)})

    inc = edges.map_batches(incidence, batch_format="pandas")

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized per bucket: self-join on node, keep ordered pairs
        m = g.merge(g, on="node")
        m = m[m["edge_id_x"] < m["edge_id_y"]]
        return pd.DataFrame({"src": m["edge_id_x"].to_numpy(),
                             "dst": m["edge_id_y"].to_numpy()}).drop_duplicates()

    cand = shuffle.grouped_transform(inc, ["node"], pairs)
    return shuffle.distinct(cand, ["src", "dst"])


def canonicalize_edges(edges: ray.data.Dataset, policy: str = "first") -> ray.data.Dataset:
    """Reorder (src,dst) to unordered canonical (src ≤ dst) and resolve
    duplicates: 'first' keeps the lowest row_seq, 'key' assigns
    edge_key = rank, 'error' raises (reference utils/topology.py:328-471)."""
    def canon(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        src = out["src"].to_numpy()
        dst = out["dst"].to_numpy()
        out["src"] = np.minimum(src, dst)
        out["dst"] = np.maximum(src, dst)
        return out

    c = edges.map_batches(canon, batch_format="pandas")
    sort_col = "row_seq" if "row_seq" in edges.schema().names else "src"

    if policy == "first":
        return shuffle.first_by(c, ["src", "dst"], sort_col)
    if policy == "key":
        return shuffle.rank_in_group(c, ["src", "dst"], sort_col)
    if policy == "error":
        def check(g: pd.DataFrame) -> pd.DataFrame:
            dup = g.duplicated(["src", "dst"])
            if dup.any():
                r = g[dup].iloc[0]
                raise ValueError(f"duplicate undirected edge {r['src']}-{r['dst']}")
            return g
        return shuffle.grouped_transform(c, ["src", "dst"], check)
    raise ValueError(policy)


def symmetrize_edges(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Append (dst,src) reverse rows; idempotent (skip when the reverse
    already exists), skip self-loops (reference utils/topology.py:474-568).

    One shuffle on the unordered pair: per unordered pair, emit the
    distinct directed rows present plus missing reverses (attributes
    copied from the forward row, 'first' wins per direction)."""
    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        src = out["src"].to_numpy()
        dst = out["dst"].to_numpy()
        out["u"] = np.minimum(src, dst)
        out["v"] = np.maximum(src, dst)
        return out

    t = edges.map_batches(tag, batch_format="pandas")
    sort_col = "row_seq" if "row_seq" in edges.schema().names else "src"

    def complete(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized over many (u,v) pairs per bucket:
        # keep first row per directed edge, then mirror pairs that have
        # only one direction; self-loops keep a single row
        g = (g.sort_values(sort_col, kind="stable")
             .drop_duplicates(["u", "v", "src"], keep="first"))
        loops = g[g["u"] == g["v"]].drop_duplicates(["u", "v"])
        g = g[g["u"] != g["v"]]
        counts = g.groupby(["u", "v"], sort=False)["src"].transform("size")
        missing = g[counts == 1].copy()
        missing["src"], missing["dst"] = missing["dst"].copy(), missing["src"].copy()
        out = pd.concat([g, missing, loops])
        return out.drop(columns=["u", "v"])

    return shuffle.grouped_transform(t, ["u", "v"], complete)


def clip_graph(nodes: ray.data.Dataset, edges: ray.data.Dataset,
               ring: np.ndarray, strict: bool = True,
               ) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """Clip a graph to a polygon (reference clip_graph,
    utils/topology.py:698-772): strict keeps edges with BOTH endpoint
    coordinates inside; nodes are then filtered to those still
    referenced by a surviving edge (edge-connected filter :757-770).

    ``edges`` needs endpoint coords (sx, sy, dx_, dy_) plus src/dst ids;
    ``nodes`` needs node_id.

    Clip output is O(input) rows for a city-scale window, so the
    endpoint keep-set is gated (VERDICT r4 #2): when the kept edges
    and their id sets fit the driver budget a driver set is fastest;
    past it the endpoint ids go through a distinct shuffle first and
    only the DISTINCT ids (≪ edges) reach the driver as the broadcast
    semi-filter array.  Both branches keep identical rows
    (parity-tested)."""
    from city2graph_ray.joins import semi_filter
    kept_edges = clip_edges(edges, ring, strict=strict).materialize()
    n_kept = kept_edges.count()
    if n_kept == 0:
        return nodes.limit(0), kept_edges
    # the kept edge frame as stored + the src and dst id sets and their
    # union, ~64 B per boxed id and 3 per edge: 192 B per edge
    if fits_driver(kept_edges.size_bytes() + n_kept * 192):
        edf = kept_edges.to_pandas()
        keep_ids = set(edf["src"]) | set(edf["dst"])
        return semi_filter(nodes, keep_ids, "node_id"), kept_edges
    ids = shuffle.distinct(
        kept_edges.map_batches(
            lambda b: pd.DataFrame({"node_id": np.concatenate(
                [b["src"].to_numpy(), b["dst"].to_numpy()])}),
            batch_format="pandas"),
        ["node_id"])
    arr = ids.to_pandas()["node_id"].to_numpy()
    return semi_filter(nodes, arr, "node_id"), kept_edges


def connected_components(edges: ray.data.Dataset, max_iters: int = 50,
                         ) -> ray.data.Dataset:
    """Component label per node via alternating large-star / small-star
    (Kiveris et al., "Connected Components in MapReduce and Beyond" —
    public algorithm): each round is two bucketed groupby shuffles over
    the edge set, no node-label broadcast anywhere, converging in
    O(log n) rounds.  Returns (node_id, component) with component =
    min node id reachable.  Reference keeps the largest component
    (utils/topology.py:775-825) — compose with a count + semi-filter.

    When its union-find fits the driver budget (160 B per distinct
    edge) a driver union-find produces the IDENTICAL (node, min-id)
    labeling without the O(log n) shuffle rounds (pagerank/k-core
    pattern; parity-tested) — post-filter edge sets (DBSCAN core
    graphs, near-dup pair streams) are routinely that small even when
    the corpus is not.  Output: (node_id, component) for every node
    incident to a non-self edge."""

    def canon(batch: pd.DataFrame) -> pd.DataFrame:
        s = batch["src"].to_numpy(np.int64)
        d = batch["dst"].to_numpy(np.int64)
        m = s != d
        u = np.maximum(s[m], d[m])
        v = np.minimum(s[m], d[m])
        return pd.DataFrame({"u": u, "v": v})

    e = shuffle.distinct(
        edges.map_batches(canon, batch_format="pandas"), ["u", "v"])
    e = e.materialize()
    n_edges = e.count()
    if n_edges == 0:
        # no (non-self) edges: empty component table (all-empty pandas
        # blocks lose their columns, so build it typed)
        return ray.data.from_pandas(pd.DataFrame(
            {"node_id": pd.Series(dtype=np.int64),
             "component": pd.Series(dtype=np.int64)}))

    # collect 16 + endpoint concat 16 + np.unique's sort, argsort and
    # inverse 48 + the inverse halves as Python int lists 72 + parent
    # vector 8: 160 B per edge
    if fits_driver(n_edges * 160):
        edf = e.to_pandas()
        u = edf["u"].to_numpy(np.int64)
        v = edf["v"].to_numpy(np.int64)
        ids, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
        parent = np.arange(len(ids), dtype=np.int64)

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in zip(inv[:len(u)].tolist(), inv[len(u):].tolist()):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        # full path compression; union always keeps the smaller root and
        # ids are sorted, so root index == min member index == min id
        while True:
            nxt = parent[parent]
            if np.array_equal(nxt, parent):
                break
            parent = nxt
        return ray.data.from_pandas(pd.DataFrame(
            {"node_id": ids, "component": ids[parent]}))

    def edge_checksum(ds: ray.data.Dataset) -> tuple[int, int]:
        def part(b: pd.DataFrame) -> pd.DataFrame:
            u = b["u"].to_numpy(np.uint64)
            v = b["v"].to_numpy(np.uint64)
            h = (u * np.uint64(0x9E3779B97F4A7C15)) ^ (v + np.uint64(0x85EB))
            return pd.DataFrame({"n": [np.int64(len(b))],
                                 "h": [np.int64(int(h.sum()) & 0x7FFFFFFFFFFFFFF)]})
        agg = ds.map_batches(part, batch_format="pandas").to_pandas()
        return int(agg["n"].sum()), int(agg["h"].sum() & 0x7FFFFFFFFFFFFFF)

    def large_star(ds: ray.data.Dataset) -> ray.data.Dataset:
        # neighborhoods of BOTH endpoints: emit each edge both ways
        def both(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "c": np.concatenate([b["u"].to_numpy(), b["v"].to_numpy()]),
                "n": np.concatenate([b["v"].to_numpy(), b["u"].to_numpy()])})

        doubled = ds.map_batches(both, batch_format="pandas")

        def kernel(g: pd.DataFrame) -> pd.DataFrame:
            # per center c: m = min(neighbors ∪ {c}); link every
            # LARGER neighbor to m
            gm = g.groupby("c", sort=False)["n"].min()
            m = np.minimum(gm.to_numpy(), gm.index.to_numpy())
            mmap = pd.Series(m, index=gm.index)
            big = g[g["n"] > g["c"]]
            return pd.DataFrame({
                "u": big["n"].to_numpy(np.int64),
                "v": mmap[big["c"]].to_numpy(np.int64)})

        return shuffle.grouped_transform(doubled, ["c"], kernel)

    def small_star(ds: ray.data.Dataset) -> ray.data.Dataset:
        # edges already point large→small (u > v): group by u over its
        # small neighbors; link them (and u) to the minimum
        def kernel(g: pd.DataFrame) -> pd.DataFrame:
            gm = g.groupby("u", sort=False)["v"].min()
            mmap = pd.Series(gm.to_numpy(), index=gm.index)
            mv = mmap[g["u"]].to_numpy(np.int64)
            vs = g["v"].to_numpy(np.int64)
            keep = vs != mv
            out_u = np.concatenate([vs[keep], gm.index.to_numpy(np.int64)])
            out_v = np.concatenate([mv[keep], gm.to_numpy(np.int64)])
            m2 = out_u != out_v
            return pd.DataFrame({"u": out_u[m2], "v": out_v[m2]})

        return shuffle.grouped_transform(ds, ["u"], kernel)

    prev = edge_checksum(e)
    for _ in range(max_iters):
        e = shuffle.distinct(large_star(e), ["u", "v"])
        e = shuffle.distinct(small_star(e), ["u", "v"]).materialize()
        cur = edge_checksum(e)
        if cur == prev:
            break
        prev = cur

    # converged: every edge is (node → root); roots label themselves
    def labels(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "node_id": np.concatenate([b["u"].to_numpy(), b["v"].to_numpy()]),
            "component": np.concatenate([b["v"].to_numpy(), b["v"].to_numpy()])})

    lab = e.map_batches(labels, batch_format="pandas")
    return shuffle.group_agg(lab, ["node_id"], {"component": ("component", "min")})


def largest_component_filter(edges: ray.data.Dataset,
                             ) -> ray.data.Dataset:
    """Keep edges of the largest connected component
    (reference utils/topology.py:775-825).  Ties on size break to the
    smallest component id (pandas idxmax-on-sorted-groupby contract).

    The finish is gated (VERDICT r4 #2): when the labeled nodes fit
    the driver budget the component table is collected and reduced in
    pandas; past it component SIZES come
    from a keyed shuffle (component-count-sized — only the winning id
    reaches the driver as a scalar) and membership filters the edges
    via a bucketed semi-join keyed by src, so nothing node- or
    edge-sized is ever collected.  Both branches keep identical rows
    (parity-tested)."""
    from city2graph_ray.joins import bucketed_join, semi_filter
    comp = connected_components(edges).materialize()
    n_nodes = comp.count()
    if n_nodes == 0:
        return edges.limit(0)
    # collect 16 + the groupby's codes and sizes ~32 + the member mask
    # and the boxed-id keep set ~64: 112 B per labeled node
    if fits_driver(n_nodes * 112):
        cdf = comp.to_pandas()
        top = cdf.groupby("component").size().idxmax()
        keep = set(cdf.loc[cdf["component"] == top, "node_id"])
        return semi_filter(edges, keep, "src")
    sizes = shuffle.group_agg(
        comp, ["component"],
        {"sz": ("component", "size")}).to_pandas()
    sizes = sizes.sort_values(["sz", "component"],
                              ascending=[False, True])
    top = int(sizes["component"].iloc[0])
    members = comp.map_batches(
        lambda b: pd.DataFrame({"src": b["node_id"].to_numpy(np.int64)[
            b["component"].to_numpy(np.int64) == top]}),
        batch_format="pandas")
    import pyarrow as pa
    return bucketed_join(
        edges, members, on="src", how="inner",
        right_schema=pa.schema([("src", pa.int64())]))


def clip_edges(edges: ray.data.Dataset, ring: np.ndarray, strict: bool = True) -> ray.data.Dataset:
    """Keep edges whose endpoints fall inside a broadcast polygon
    (reference clip_graph utils/topology.py:698-772: strict = both
    endpoints inside).  Input needs sx, sy, dx_, dy_ endpoint coords."""
    from city2graph_ray.geom.kernels import points_in_polygon

    def clip(batch: pd.DataFrame, ring: np.ndarray) -> pd.DataFrame:
        a = points_in_polygon(batch["sx"].to_numpy(), batch["sy"].to_numpy(), ring)
        b = points_in_polygon(batch["dx_"].to_numpy(), batch["dy_"].to_numpy(), ring)
        return batch[(a & b) if strict else (a | b)]

    return broadcast_map(edges, np.asarray(ring, np.float64), clip)
