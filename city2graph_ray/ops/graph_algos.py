"""Distributed iterative graph algorithms over edge-list Datasets.

PageRank is the canonical iterative join+aggregate workload: each
iteration is one bucketed hash join (ranks → edges on src) and one
keyed sum (contributions → dst), both streaming — the rank table is
node-sized, lives in the object store between iterations
(``materialize()``, never collected to the driver), and every shuffle
key is the same node id so bucket locality is reused.

No reference counterpart (the reference is a single-process geospatial
package); this is one of the engine-added scale operators.  Semantics
follow the classic Page et al. formulation with a FIXED iteration
count and per-iteration rounding so a SQL twin (unrolled CTEs) can
reproduce the result bit-for-bit: dangling-node mass is dropped (not
redistributed), documented below.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data

from city2graph_ray import shuffle
from city2graph_ray.budget import fits_driver
from city2graph_ray.joins import broadcast_map, bucketed_join

# harmonic_centrality's per-slice cur[tails] gather scratch
_GATHER_BYTES = 8 * 2**20

# Driver bytes per node of the broadcast node-vector loops (pagerank,
# personalized_pagerank, sssp_bounded): the sorted ids and their
# pd.Index hash table, then the degree, rank, rank/degree,
# contribution and one block partial, all 8-byte vectors.
_RANK_VECTOR_BYTES = 96


def _node_column(edges: ray.data.Dataset, col: str) -> ray.data.Dataset:
    return edges.map_batches(
        lambda b, c=col: pd.DataFrame({"node": b[c].to_numpy()}),
        batch_format="pandas")


def pagerank(edges: ray.data.Dataset, num_iters: int = 5,
             damping: float = 0.85, src: str = "src", dst: str = "dst",
             round_iter: int = 10, round_to: int = 6,
             num_buckets: int = shuffle.DEFAULT_BUCKETS,
             ) -> ray.data.Dataset:
    """PageRank with a fixed ``num_iters`` over a directed edge list.

    - init ``r0 = round(1/n, round_iter)`` for every node (n = distinct
      endpoints of either side);
    - per iteration ``r' = round((1-d)/n + d * Σ_{(u,v)∈E} r_u/deg_u,
      round_iter)`` where ``deg_u`` is u's out-degree; nodes with no
      in-edges get the ``(1-d)/n`` floor; out-mass of dangling nodes is
      dropped (no redistribution) so the SQL twin stays a pure
      join+group-by per iteration.

    Intermediate ranks round to ``round_iter`` decimals each iteration
    — float sum order then cannot leak into the result, so the DuckDB
    unrolled-CTE oracle agrees bit-for-bit.  Output
    (node, rank) with the final rank rounded to ``round_to``.

    Scale: when the driver's node vectors fit the budget
    (:func:`_pagerank_broadcast`), the edge stream stays distributed
    and only n-length vectors meet on the driver.  Otherwise per
    iteration one bucketed join (edge stream × node-sized rank table,
    same hash key every round) + one partial-aggregated keyed sum; the
    rank table is materialized in the object store between rounds and
    nothing touches the driver except the scalar n.
    """
    nodes = shuffle.distinct(
        _node_column(edges, src).union(_node_column(edges, dst)),
        ["node"], num_buckets=num_buckets).materialize()
    n = float(nodes.count())

    if fits_driver(n * _RANK_VECTOR_BYTES):
        return _pagerank_broadcast(edges, nodes, int(n), num_iters,
                                   damping, src, dst, round_iter,
                                   round_to)

    deg = shuffle.group_agg(edges, [src], {"d": (dst, "size")},
                            num_buckets=num_buckets)
    # (src, dst, d) — static across iterations, join once and pin.
    ed = bucketed_join(
        edges.map_batches(
            lambda b: pd.DataFrame({src: b[src].to_numpy(),
                                    dst: b[dst].to_numpy()}),
            batch_format="pandas"),
        deg, on=src, num_buckets=num_buckets).materialize()

    r0 = float(np.round(1.0 / n, round_iter))
    ranks = nodes.map_batches(
        lambda b, v=r0: pd.DataFrame({"node": b["node"].to_numpy(),
                                      "r": np.full(len(b), v)}),
        batch_format="pandas").materialize()

    floor = (1.0 - damping) / n
    for _ in range(num_iters):
        rsrc = ranks.map_batches(
            lambda b: pd.DataFrame({src: b["node"].to_numpy(),
                                    "r": b["r"].to_numpy()}),
            batch_format="pandas")
        contrib = bucketed_join(ed, rsrc, on=src,
                                num_buckets=num_buckets).map_batches(
            lambda b: pd.DataFrame({
                "node": b[dst].to_numpy(),
                "c": b["r"].to_numpy() / b["d"].to_numpy()}),
            batch_format="pandas")
        sums = shuffle.group_agg(contrib, ["node"], {"s": ("c", "sum")},
                                 num_buckets=num_buckets)
        joined = bucketed_join(nodes, sums, on="node", how="left",
                               num_buckets=num_buckets)
        ranks = joined.map_batches(
            lambda b, f=floor, d=damping, q=round_iter: pd.DataFrame({
                "node": b["node"].to_numpy(),
                "r": np.round(
                    f + d * np.nan_to_num(
                        b["s"].to_numpy(np.float64), nan=0.0), q)}),
            batch_format="pandas").materialize()

    return ranks.map_batches(
        lambda b, q=round_to: pd.DataFrame({
            "node": b["node"].to_numpy(),
            "rank": np.round(b["r"].to_numpy(np.float64), q)}),
        batch_format="pandas")


def _pagerank_broadcast(edges: ray.data.Dataset, nodes: ray.data.Dataset,
                        n: int, num_iters: int, damping: float,
                        src: str, dst: str, round_iter: int,
                        round_to: int) -> ray.data.Dataset:
    """Small-node-table fast path: the rank VECTOR (n floats) is
    broadcast per iteration while the EDGE STREAM stays distributed —
    each edge block is re-indexed once against the broadcast node
    index, then every iteration is one streaming pass emitting a
    node-length partial contribution array per block (``bincount`` on
    dst with rank/deg weights), streamed back and summed on the driver
    one block at a time (``iter_batches``, O(n) driver memory).
    :func:`pagerank` takes this path only when n × ``_RANK_VECTOR_BYTES``
    fits the driver budget; beyond it the join rounds run with no
    node-sized driver state."""
    node_arr = np.sort(nodes.to_pandas()["node"].to_numpy())
    index = pd.Index(node_arr)
    idx_ref = ray.put(index)

    def reindex(batch: pd.DataFrame) -> pd.DataFrame:
        ix = ray.get(idx_ref)
        return pd.DataFrame({
            "si": ix.get_indexer(batch[src].to_numpy()).astype(np.int32),
            "di": ix.get_indexer(batch[dst].to_numpy()).astype(np.int32)})

    indexed = edges.map_batches(reindex, batch_format="pandas").materialize()

    def partial_deg(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"w": [np.bincount(batch["si"].to_numpy(),
                               minlength=n).astype(np.int64).tobytes()]})

    deg = np.zeros(n, dtype=np.int64)
    for b in indexed.map_batches(partial_deg,
                                 batch_format="pandas").iter_batches(
                                     batch_size=None,
                                     batch_format="pandas"):
        for w in b["w"]:
            deg += np.frombuffer(w, dtype=np.int64)
    deg_safe = np.maximum(deg, 1).astype(np.float64)

    rank = np.full(n, np.round(1.0 / n, round_iter))
    floor = (1.0 - damping) / n
    for _ in range(num_iters):
        rd_ref = ray.put(rank / deg_safe)

        def partial_contrib(batch: pd.DataFrame, ref=rd_ref) -> pd.DataFrame:
            rd = ray.get(ref)
            si = batch["si"].to_numpy()
            return pd.DataFrame(
                {"w": [np.bincount(batch["di"].to_numpy(),
                                   weights=rd[si],
                                   minlength=n).tobytes()]})

        contrib = np.zeros(n, dtype=np.float64)
        for b in indexed.map_batches(partial_contrib,
                                     batch_format="pandas").iter_batches(
                                         batch_size=None,
                                         batch_format="pandas"):
            for w in b["w"]:
                contrib += np.frombuffer(w, dtype=np.float64)
        rank = np.round(floor + damping * contrib, round_iter)

    out = pd.DataFrame({"node": node_arr,
                        "rank": np.round(rank, round_to)})
    return ray.data.from_pandas(out)


def degree_histogram(edges: ray.data.Dataset, src: str = "src",
                     dst: str = "dst",
                     num_buckets: int = shuffle.DEFAULT_BUCKETS,
                     ) -> ray.data.Dataset:
    """Total-degree histogram of an edge list: (degree, n_nodes).

    Two keyed sums, both with per-batch partial aggregation — the
    first shuffles (node, partial count) rows, the second (degree,
    partial count); output is histogram-sized."""
    ends = _node_column(edges, src).union(_node_column(edges, dst))
    deg = shuffle.group_agg(ends, ["node"], {"degree": ("node", "size")},
                            num_buckets=num_buckets)
    return shuffle.group_agg(deg, ["degree"],
                             {"n_nodes": ("node", "size")},
                             num_buckets=num_buckets)


def kcore(edges: ray.data.Dataset, k: int, src: str = "src",
          dst: str = "dst",
          num_buckets: int = shuffle.DEFAULT_BUCKETS,
          max_rounds: int = 200) -> ray.data.Dataset:
    """k-core of the UNDIRECTED simplification of an edge list
    (self-loops dropped, direction and multiplicity ignored): the
    maximal subgraph in which every node has degree ≥ ``k``.  Output
    ``(node, deg)`` — one row per core node with its degree INSIDE the
    core (all ≥ k); empty (typed) when the core is empty.

    Classic iterative peel (Seidman 1983, public literature), run as a
    monotone fixed point.  The heavy lifting — deduping the raw
    (possibly multi-)edge stream into the distinct undirected edge set
    — is one distributed keyed shuffle on either branch; the
    peel itself then picks by measured cost:

    * the driver peel fits the budget (96 B per distinct edge):
      collect the deduped edge list once and peel with vectorized
      ``np.bincount`` rounds
      (microseconds/round).  Same pattern as the EMST driver-Kruskal
      finish: iterative keyed joins cost ~1-5 s of shuffle latency
      PER ROUND, i.e. ~30× a broadcast pass on node-sized graphs
      (measured: the join peel took 310 s on a 2 500-node graph where
      the driver peel takes < 1 s end-to-end).
    * otherwise: distributed rounds — one partial-aggregated
      keyed degree sum plus two bucketed semi-joins of the surviving
      edge set against the node-sized alive table (same hash key every
      round); the driver sees only the scalar alive count.

    Peeling only ever SHRINKS the alive set, so an unchanged count
    means the exact fixed point was reached — which is also why a
    DuckDB twin unrolled to ≥ the converged round count reproduces the
    result bit-for-bit (extra unrolled rounds are identity).  Both
    branches compute the identical fixed point (cross-checked in
    tests).

    Scale: edge set and alive table live in the object store between
    rounds (``materialize()``); round count on real graphs is small
    (degeneracy peeling converges in a handful of rounds away from the
    critical density), and ``max_rounds`` guards the adversarial
    long-path case.
    """
    if k < 1:
        raise ValueError("kcore requires k >= 1")

    import pyarrow as pa

    ntype = pa.int64()
    for name, typ in zip(edges.schema().names, edges.schema().types):
        if name == src:
            ntype = typ
    e_schema = pa.schema([("a", ntype), ("b", ntype)])
    alive_a_schema = pa.schema([("a", ntype)])
    alive_b_schema = pa.schema([("b", ntype)])

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src].to_numpy()
        c = b[dst].to_numpy()
        keep = a != c
        a, c = a[keep], c[keep]
        return pd.DataFrame({"a": np.minimum(a, c), "b": np.maximum(a, c)})

    und = shuffle.distinct(
        edges.map_batches(canon, batch_format="pandas"), ["a", "b"],
        num_buckets=num_buckets).materialize()

    def _degrees(e: ray.data.Dataset) -> ray.data.Dataset:
        ends = e.map_batches(
            lambda b: pd.DataFrame({"node": np.concatenate(
                [b["a"].to_numpy(), b["b"].to_numpy()])}),
            batch_format="pandas")
        return shuffle.group_agg(ends, ["node"], {"deg": ("node", "size")},
                                 num_buckets=num_buckets)

    def _empty() -> ray.data.Dataset:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], ntype), "deg": pa.array([], pa.int64())}))

    # (a, b) collect 16 + endpoint concat 16 + np.unique's sort, argsort
    # and inverse 48 + one round's masks and gathers 16: 96 B per edge
    if fits_driver(und.count() * 96):
        df = und.to_pandas()
        if df.empty:
            return _empty()
        a_raw = df["a"].to_numpy()
        b_raw = df["b"].to_numpy()
        nodes, inv = np.unique(np.concatenate([a_raw, b_raw]),
                               return_inverse=True)
        ai, bi = inv[:len(a_raw)], inv[len(a_raw):]
        alive_edge = np.ones(len(a_raw), dtype=bool)
        for _ in range(max_rounds):
            deg = (np.bincount(ai[alive_edge], minlength=len(nodes))
                   + np.bincount(bi[alive_edge], minlength=len(nodes)))
            ok = deg >= k
            nxt = alive_edge & ok[ai] & ok[bi]
            if nxt.sum() == alive_edge.sum():
                break
            alive_edge = nxt
        deg = (np.bincount(ai[alive_edge], minlength=len(nodes))
               + np.bincount(bi[alive_edge], minlength=len(nodes)))
        core = deg >= k
        if not core.any():
            return _empty()
        return ray.data.from_arrow(pa.table({
            "node": pa.array(nodes[core], ntype),
            "deg": pa.array(deg[core].astype(np.int64), pa.int64())}))

    n_prev: int | None = None
    for _ in range(max_rounds):
        alive = _degrees(und).map_batches(
            lambda b, kk=k: b[b["deg"].to_numpy() >= kk][["node"]],
            batch_format="pandas").materialize()
        n = alive.count()
        if n == 0:
            return _empty()
        if n_prev is not None and n == n_prev:
            break  # monotone ⇒ equal count ⇒ equal set ⇒ fixed point
        n_prev = n
        und = bucketed_join(
            bucketed_join(
                und,
                alive.map_batches(
                    lambda b: b.rename(columns={"node": "a"}),
                    batch_format="pandas"),
                on="a", num_buckets=num_buckets,
                left_schema=e_schema, right_schema=alive_a_schema),
            alive.map_batches(
                lambda b: b.rename(columns={"node": "b"}),
                batch_format="pandas"),
            on="b", num_buckets=num_buckets,
            left_schema=e_schema, right_schema=alive_b_schema,
        ).materialize()

    if und.count() == 0:
        return _empty()
    return _degrees(und).map_batches(
        lambda b: pd.DataFrame({"node": b["node"].to_numpy(),
                                "deg": b["deg"].to_numpy(np.int64)}),
        batch_format="pandas")


def _pack_pair(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Single-int64 key for a node pair (requires 0 ≤ id < 2^31)."""
    return (v.astype(np.int64) << np.int64(32)) | w.astype(np.int64)


def _pair_packable(und: ray.data.Dataset) -> bool:
    """True when every node id of the canonical edge set fits a packed
    (v << 32 | w) int64 key — one cheap edge-set scan, no shuffle."""
    mm = und.map_batches(
        lambda b: pd.DataFrame({
            "lo": [min(int(b["a"].min()), int(b["b"].min()))],
            "hi": [max(int(b["a"].max()), int(b["b"].max()))]})
        if len(b) else pd.DataFrame({"lo": [0], "hi": [0]}),
        batch_format="pandas").to_pandas()
    if mm.empty:
        return False
    return int(mm["lo"].min()) >= 0 and int(mm["hi"].max()) < 2 ** 31


def triangle_count(edges: ray.data.Dataset, src: str = "src",
                   dst: str = "dst",
                   num_buckets: int = shuffle.DEFAULT_BUCKETS,
                   ) -> ray.data.Dataset:
    """Exact global triangle count of the UNDIRECTED simplification of
    an edge list (self-loops dropped, direction and multiplicity
    ignored).  Output: one row ``(n_triangles: int64)``.

    Distributed shape is the degree-ordered node-iterator (Suri &
    Vassilvitskii, WWW'11 — public literature): every edge is oriented
    from its lower-(degree, id) endpoint to the higher, wedges are
    generated per out-neighborhood, and a wedge (v, w) closes a
    triangle iff the oriented edge (v, w) exists — each triangle is
    counted exactly once, and the orientation bounds every
    out-neighborhood by O(√m), so wedge volume is O(m^1.5) worst-case
    with NO hot-vertex blowup (a Zipfian hub fans its wedges across
    the many low-degree orientation sources instead of itself).

    Pipeline: distinct canonical edges → degree group-sum → two
    bucketed joins to attach endpoint degrees → per-source wedge
    explode (vectorized triu per group) → one bucketed hash join of
    wedges against oriented edges on (v, w) → block-count partials,
    driver adds a handful of ints."""
    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src].to_numpy()
        c = b[dst].to_numpy()
        keep = a != c
        a, c = a[keep], c[keep]
        return pd.DataFrame({"a": np.minimum(a, c), "b": np.maximum(a, c)})

    # both fan-out points below are pinned: Ray Data has no common-
    # subexpression elimination, so an unpinned two-consumer dataset
    # re-executes its whole upstream once per consumer
    und = shuffle.distinct(
        edges.map_batches(canon, batch_format="pandas"), ["a", "b"],
        num_buckets=num_buckets).materialize()

    ends = und.map_batches(
        lambda b: pd.DataFrame({"node": np.concatenate(
            [b["a"].to_numpy(), b["b"].to_numpy()])}),
        batch_format="pandas")
    deg = shuffle.group_agg(ends, ["node"], {"d": ("node", "size")},
                            num_buckets=num_buckets).materialize()

    # schema hints: a loops-only input leaves every intermediate empty
    import pyarrow as pa
    ntype = pa.int64()
    for name, typ in zip(edges.schema().names, edges.schema().types):
        if name == src and isinstance(typ, pa.DataType):
            ntype = typ
    und_schema = pa.schema([("a", ntype), ("b", ntype)])
    dega_schema = pa.schema([("a", ntype), ("da", pa.int64())])
    degb_schema = pa.schema([("b", ntype), ("db", pa.int64())])

    w_a = bucketed_join(
        und, deg.map_batches(lambda b: b.rename(columns={"node": "a",
                                                         "d": "da"}),
                             batch_format="pandas"),
        on="a", num_buckets=num_buckets,
        left_schema=und_schema, right_schema=dega_schema)
    w_ab = bucketed_join(
        w_a, deg.map_batches(lambda b: b.rename(columns={"node": "b",
                                                         "d": "db"}),
                             batch_format="pandas"),
        on="b", num_buckets=num_buckets,
        left_schema=pa.schema([("a", ntype), ("b", ntype),
                               ("da", pa.int64())]),
        right_schema=degb_schema)

    def orient(b: pd.DataFrame) -> pd.DataFrame:
        a = b["a"].to_numpy()
        bb = b["b"].to_numpy()
        da = b["da"].to_numpy(np.int64)
        db = b["db"].to_numpy(np.int64)
        # total order key (degree, id); edge points low → high
        a_first = (da < db) | ((da == db) & (a < bb))
        return pd.DataFrame({
            "u": np.where(a_first, a, bb),
            "v": np.where(a_first, bb, a),
            "kd": np.where(a_first, db, da),   # order key of the head
        })

    oriented = w_ab.map_batches(orient, batch_format="pandas").materialize()
    packable = pa.types.is_int64(ntype) and _pair_packable(und)

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        # ragged vectorized triu per sorted out-neighborhood (same
        # arithmetic as adamic_adar's wedge kernel — no Python loop);
        # sorting by (u, kd, v) keeps each pair (v, w) in head order,
        # matching the closure edges' low→high orientation
        g = g.sort_values(["u", "kd", "v"], kind="stable")
        vv = g["v"].to_numpy()
        uu = g["u"].to_numpy()
        _, starts, sizes = np.unique(uu, return_index=True,
                                     return_counts=True)
        pos = np.arange(len(uu)) - np.repeat(starts, sizes)
        reps = np.repeat(sizes, sizes) - 1 - pos
        total = int(reps.sum())
        if total == 0:
            i_idx = j_off = np.zeros(0, np.int64)
        else:
            i_idx = np.repeat(np.arange(len(uu)), reps)
            j_off = np.arange(total) - np.repeat(
                np.cumsum(reps) - reps, reps) + 1
        v_, w_ = vv[i_idx], vv[i_idx + j_off]
        if packable:
            return pd.DataFrame({"vw": _pack_pair(v_, w_)})
        return pd.DataFrame({"v": v_, "w": w_})

    wedge_ds = shuffle.grouped_transform(oriented, ["u"], wedges,
                                         num_buckets=num_buckets)
    if packable:  # single-int64 shuffle key: halves exchange width
        closure = oriented.map_batches(
            lambda b: pd.DataFrame({"vw": _pack_pair(
                b["u"].to_numpy(np.int64), b["v"].to_numpy(np.int64))}),
            batch_format="pandas")
        key_schema = pa.schema([("vw", pa.int64())])
        tri = bucketed_join(wedge_ds, closure, on="vw",
                            num_buckets=num_buckets,
                            left_schema=key_schema,
                            right_schema=key_schema)
    else:
        closure = oriented.map_batches(
            lambda b: b.rename(columns={"u": "v", "v": "w"})
            [["v", "w"]], batch_format="pandas")
        pair_schema = pa.schema([("v", ntype), ("w", ntype)])
        tri = bucketed_join(wedge_ds, closure, on=["v", "w"],
                            num_buckets=num_buckets,
                            left_schema=pair_schema,
                            right_schema=pair_schema)
    parts = tri.map_batches(
        lambda b: pd.DataFrame({"n": [np.int64(len(b))]}),
        batch_format="pandas").to_pandas()
    total = int(parts["n"].sum()) if len(parts) else 0
    return ray.data.from_arrow(pa.table({"n_triangles":
                                         pa.array([total], pa.int64())}))


def label_propagation(edges: ray.data.Dataset, num_iters: int = 4,
                      src: str = "src", dst: str = "dst",
                      num_buckets: int = shuffle.DEFAULT_BUCKETS,
                      ) -> ray.data.Dataset:
    """Synchronous label propagation (Raghavan et al. 2007, public
    literature) over the UNDIRECTED simplification of an edge list,
    made fully deterministic: every node starts labelled with its own
    id, and each round EVERY node simultaneously adopts the modal
    label of its neighbourhood with ties broken toward the SMALLEST
    label.  A FIXED ``num_iters`` round count (no convergence test)
    means an unrolled SQL twin reproduces the result bit-for-bit even
    on the bipartite-ish structures where synchronous LPA oscillates.
    Output ``(node, label)``.

    Branches mirror :func:`kcore` — the distinct-edge dedup is one
    distributed keyed shuffle either way, then:

    * the driver rounds fit the budget (272 B per distinct edge): one
      collect, then vectorized rounds (factorized ``node*n+label``
      bincount mode) on the driver;
    * otherwise: per round, one bucketed join of the node-sized label
      table onto the directed half-edge set, one keyed (node, label)
      count, one per-node top-1 merge — all on the same node-id hash
      key.
    """
    import pyarrow as pa

    ntype = pa.int64()
    for name, typ in zip(edges.schema().names, edges.schema().types):
        if name == src:
            ntype = typ

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src].to_numpy()
        c = b[dst].to_numpy()
        keep = a != c
        a, c = a[keep], c[keep]
        return pd.DataFrame({"a": np.minimum(a, c), "b": np.maximum(a, c)})

    und = shuffle.distinct(
        edges.map_batches(canon, batch_format="pandas"), ["a", "b"],
        num_buckets=num_buckets).materialize()

    if und.count() == 0:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], ntype), "label": pa.array([], ntype)}))

    # collect, concat and np.unique as in kcore 80 + the doubled tgt/nbr
    # arcs 32 + per round ~10 2m-long int64 temporaries (key, its sort,
    # counts, tv/tl, lexsort order, gathers) 160: 272 B per edge
    if fits_driver(und.count() * 272):
        df = und.to_pandas()
        a_raw = df["a"].to_numpy()
        b_raw = df["b"].to_numpy()
        nodes, inv = np.unique(np.concatenate([a_raw, b_raw]),
                               return_inverse=True)
        n = len(nodes)
        ai, bi = inv[:len(a_raw)], inv[len(a_raw):]
        # dense index order == value order (np.unique sorts), so the
        # smallest-dense-label tie-break equals the smallest-value one
        lab = np.arange(n, dtype=np.int64)
        tgt = np.concatenate([ai, bi])
        nbr = np.concatenate([bi, ai])
        for _ in range(num_iters):
            key = tgt * n + lab[nbr]
            uniq, cnt = np.unique(key, return_counts=True)
            tv = uniq // n
            tl = uniq % n
            order = np.lexsort((tl, -cnt, tv))
            _, first = np.unique(tv[order], return_index=True)
            new_lab = lab.copy()  # isolated nodes keep theirs (none here)
            new_lab[tv[order][first]] = tl[order][first]
            lab = new_lab
        return ray.data.from_arrow(pa.table({
            "node": pa.array(nodes, ntype),
            "label": pa.array(nodes[lab], ntype)}))

    half = und.map_batches(
        lambda b: pd.DataFrame({
            "u": np.concatenate([b["a"].to_numpy(), b["b"].to_numpy()]),
            "v": np.concatenate([b["b"].to_numpy(), b["a"].to_numpy()])}),
        batch_format="pandas").materialize()
    labels = shuffle.distinct(
        half.map_batches(lambda b: pd.DataFrame({"node": b["u"]}),
                         batch_format="pandas"),
        ["node"], num_buckets=num_buckets).map_batches(
        lambda b: b.assign(label=b["node"]),
        batch_format="pandas").materialize()
    for _ in range(num_iters):
        contrib = bucketed_join(
            half,
            labels.map_batches(
                lambda b: b.rename(columns={"node": "u"}),
                batch_format="pandas"),
            on="u", num_buckets=num_buckets).map_batches(
            lambda b: pd.DataFrame({"node": b["v"], "label": b["label"]}),
            batch_format="pandas")
        counts = shuffle.group_agg(
            contrib, ["node", "label"], {"n": ("label", "size")},
            num_buckets=num_buckets)
        labels = shuffle.topk_in_group(
            counts, ["node"], 1, ["n", "label"], [False, True],
            num_buckets=num_buckets).map_batches(
            lambda b: b[["node", "label"]],
            batch_format="pandas").materialize()
    return labels


def adamic_adar(edges: ray.data.Dataset, src: str = "src",
                dst: str = "dst", exclude_edges: bool = True,
                scale: int = 10 ** 9,
                num_buckets: int = shuffle.DEFAULT_BUCKETS,
                max_degree: int | None = None) -> ray.data.Dataset:
    """Adamic–Adar link-prediction scores (Adamic & Adar 2003, public
    literature) over the UNDIRECTED simplification of an edge list:
    for every node pair (x < y) with at least one common neighbour,
    ``AA(x,y) = Σ_v 1/ln(deg v)`` over common neighbours ``v`` (only
    centres with degree ≥ 2 can be common neighbours, so ln is never
    0).  ``exclude_edges=True`` (the link-prediction convention) drops
    pairs that are already edges.  Output ``(src, dst, aa_score)``.

    Exactness: each centre's contribution is quantized ONCE to the
    integer ``floor(scale/ln(deg) + 0.5)`` — per-pair sums are then
    int64 and immune to float addition order across the shuffle; the
    single final divide by ``scale`` is reproduced verbatim by the SQL
    twin (ln/floor parity between numpy and DuckDB is the same libm
    contract the bm25/Q10 oracles rely on).

    Scale: degrees are one keyed sum; wedge enumeration groups the
    half-edge set by centre (one shuffle on the node key) and expands
    each centre's C(deg,2) pairs with a ragged vectorized triu — that
    quadratic fan-out is inherent to AA, so hub centres dominate cost;
    ``max_degree`` (optional, documented approximation) skips centres
    above a degree cap the way LSH-bucketed near-dup caps hot buckets.
    The per-pair sum and the edge anti-join are bucketed on the pair
    key."""
    import pyarrow as pa

    ntype = pa.int64()
    for name, typ in zip(edges.schema().names, edges.schema().types):
        if name == src:
            ntype = typ

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src].to_numpy()
        c = b[dst].to_numpy()
        keep = a != c
        a, c = a[keep], c[keep]
        return pd.DataFrame({"a": np.minimum(a, c), "b": np.maximum(a, c)})

    und = shuffle.distinct(
        edges.map_batches(canon, batch_format="pandas"), ["a", "b"],
        num_buckets=num_buckets).materialize()

    def _empty() -> ray.data.Dataset:
        return ray.data.from_arrow(pa.table({
            "src": pa.array([], ntype), "dst": pa.array([], ntype),
            "aa_score": pa.array([], pa.float64())}))

    if und.count() == 0:
        return _empty()

    half = und.map_batches(
        lambda b: pd.DataFrame({
            "u": np.concatenate([b["a"].to_numpy(), b["b"].to_numpy()]),
            "v": np.concatenate([b["b"].to_numpy(), b["a"].to_numpy()])}),
        batch_format="pandas")

    deg = shuffle.group_agg(half, ["u"], {"c": ("u", "size")},
                            num_buckets=num_buckets)

    def to_wt(b: pd.DataFrame) -> pd.DataFrame:
        c = b["c"].to_numpy(np.int64)
        keep = c >= 2
        if max_degree is not None:
            keep &= c <= max_degree
        c = c[keep].astype(np.float64)
        return pd.DataFrame({
            "u": b["u"].to_numpy()[keep],
            "wt": np.floor(scale / np.log(c) + 0.5).astype(np.int64)})

    wt = deg.map_batches(to_wt, batch_format="pandas")
    half_schema = pa.schema([("u", ntype), ("v", ntype)])
    wt_schema = pa.schema([("u", ntype), ("wt", pa.int64())])
    centers = bucketed_join(half, wt, on="u", num_buckets=num_buckets,
                            left_schema=half_schema,
                            right_schema=wt_schema)

    def wedge_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["u", "v"], kind="stable")
        uu = g["u"].to_numpy()
        vv = g["v"].to_numpy()
        ww = g["wt"].to_numpy(np.int64)
        # ragged vectorized triu over each centre's sorted neighbours
        _, starts, sizes = np.unique(uu, return_index=True,
                                     return_counts=True)
        pos = np.arange(len(uu)) - np.repeat(starts, sizes)
        reps = np.repeat(sizes, sizes) - 1 - pos
        total = int(reps.sum())
        if total == 0:
            return pd.DataFrame({"x": vv[:0], "y": vv[:0],
                                 "wt": ww[:0]})
        i_idx = np.repeat(np.arange(len(uu)), reps)
        j_off = np.arange(total) - np.repeat(np.cumsum(reps) - reps,
                                             reps) + 1
        j_idx = i_idx + j_off
        return pd.DataFrame({"x": vv[i_idx], "y": vv[j_idx],
                             "wt": ww[i_idx]})

    pairs = shuffle.grouped_transform(centers, ["u"], wedge_pairs,
                                      num_buckets=num_buckets)

    scores = shuffle.group_agg(pairs, ["x", "y"], {"s": ("wt", "sum")},
                               num_buckets=num_buckets)

    if exclude_edges:
        mark = und.map_batches(
            lambda b: pd.DataFrame({"x": b["a"], "y": b["b"]})
            .assign(is_edge=np.int64(1)), batch_format="pandas")
        pair_schema = pa.schema([("x", ntype), ("y", ntype),
                                 ("s", pa.int64())])
        mark_schema = pa.schema([("x", ntype), ("y", ntype),
                                 ("is_edge", pa.int64())])
        scores = bucketed_join(
            scores, mark, on=["x", "y"], how="left",
            num_buckets=num_buckets, left_schema=pair_schema,
            right_schema=mark_schema).map_batches(
            lambda b: b.loc[b["is_edge"].isna(), ["x", "y", "s"]],
            batch_format="pandas")

    out = scores.map_batches(
        lambda b: pd.DataFrame({
            "src": b["x"].to_numpy(),
            "dst": b["y"].to_numpy(),
            "aa_score": b["s"].to_numpy(np.int64) / float(scale)}),
        batch_format="pandas").materialize()
    if out.count() == 0:
        return _empty()
    return out


def cooccurrence_graph(table: ray.data.Dataset, key: str, item: str,
                       num_buckets: int = shuffle.DEFAULT_BUCKETS,
                       ) -> ray.data.Dataset:
    """Bipartite co-occurrence projection: an undirected weighted graph
    over ``item`` values where the weight of (a < b) is the number of
    DISTINCT ``key`` values that touch both — the classic
    user×item → item×item projection (co-view / co-purchase graphs,
    term co-occurrence).  Output ``(item_a, item_b, n_keys)``.

    One distinct shuffle on (key, item), one bucketed group on the key
    with a ragged vectorized triu pair expansion (each key contributes
    each pair at most once post-distinct, so the per-pair keyed SIZE
    is exactly the distinct-key count — no count-distinct pass), one
    keyed sum on the pair.  Per-key fan-out is C(items_per_key, 2):
    quadratic in basket size, linear in key count — the honest cost of
    the projection."""
    di = shuffle.distinct(
        table.map_batches(
            lambda b, k=key, i=item: pd.DataFrame(
                {"k": b[k].to_numpy(), "i": b[i].to_numpy()}),
            batch_format="pandas"),
        ["k", "i"], num_buckets=num_buckets)

    def pair_expand(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["k", "i"], kind="stable")
        kk = g["k"].to_numpy()
        ii = g["i"].to_numpy()
        _, starts, sizes = np.unique(kk, return_index=True,
                                     return_counts=True)
        pos = np.arange(len(kk)) - np.repeat(starts, sizes)
        reps = np.repeat(sizes, sizes) - 1 - pos
        total = int(reps.sum())
        if total == 0:
            return pd.DataFrame({"item_a": ii[:0], "item_b": ii[:0]})
        a = np.repeat(np.arange(len(kk)), reps)
        off = np.arange(total) - np.repeat(np.cumsum(reps) - reps,
                                           reps) + 1
        return pd.DataFrame({"item_a": ii[a], "item_b": ii[a + off]})

    pairs = shuffle.grouped_transform(di, ["k"], pair_expand,
                                      num_buckets=num_buckets)
    return shuffle.group_agg(pairs, ["item_a", "item_b"],
                             {"n_keys": ("item_a", "size")},
                             num_buckets=num_buckets)


def bipartite_butterflies(table: ray.data.Dataset, key: str, item: str,
                          num_buckets: int = shuffle.DEFAULT_BUCKETS,
                          ) -> ray.data.Dataset:
    """Per-item butterfly counts over a bipartite key×item relation —
    a butterfly (2×2 biclique / bipartite 4-cycle) is the bipartite
    cohesion primitive (Sanei-Mehri et al., KDD'18).  For each item
    pair sharing ``w`` distinct keys there are C(w, 2) butterflies;
    an item's count is the sum over its pairs.  Output
    ``(item, butterflies)`` for items in ≥1 butterfly.

    Composition: the :func:`cooccurrence_graph` projection (distinct →
    ragged triu pair expansion → keyed sum) followed by one vectorized
    C(w,2) scatter to both endpoints and a keyed sum — all integer,
    SQL-twinnable exactly."""
    co = cooccurrence_graph(table, key, item, num_buckets=num_buckets)

    def scatter(b: pd.DataFrame) -> pd.DataFrame:
        w = b["n_keys"].to_numpy(np.int64)
        bf = w * (w - 1) // 2
        keep = bf > 0
        return pd.DataFrame({
            "item": np.concatenate([b["item_a"].to_numpy()[keep],
                                    b["item_b"].to_numpy()[keep]]),
            "bf": np.concatenate([bf[keep], bf[keep]])})

    return shuffle.group_agg(
        co.map_batches(scatter, batch_format="pandas"),
        ["item"], {"butterflies": ("bf", "sum")},
        num_buckets=num_buckets)


def clustering_coefficient(edges: ray.data.Dataset, src: str = "src",
                           dst: str = "dst",
                           num_buckets: int = shuffle.DEFAULT_BUCKETS,
                           max_degree: int | None = None,
                           ) -> ray.data.Dataset:
    """Exact per-node local clustering coefficient of the UNDIRECTED
    simplification of an edge list: ``coeff = 2·t / (d·(d−1))`` where
    ``t`` is the node's triangle count and ``d`` its degree (0.0 when
    d < 2).  Output (node, triangles, degree, coeff), one row per node
    appearing in any non-loop edge.

    Same degree-ordered orientation as `triangle_count` (Suri &
    Vassilvitskii, WWW'11) — wedge volume O(m^1.5), hot vertices fan
    across low-degree sources — but each wedge carries its source
    through the closure join, so every matched triangle (u, v, w)
    credits all three vertices via one flat explode + keyed count.
    The coefficient divides exact int64s (2t, d(d−1)) so both engines
    produce the identical double.

    ``max_degree`` (the 100-TB hub cap, VERDICT r4 #6): drop every
    node whose FULL-graph degree exceeds the cap and compute exactly
    on the remaining subgraph — the celebrity-removal approximation.
    Semantics are pure edge filtering (degrees/triangles/coeff all
    re-measured on the capped subgraph), so the SQL twin is the same
    query over the filtered edge set — exactly mirrorable, unlike an
    orientation-dependent wedge skip."""
    import pyarrow as pa

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src].to_numpy()
        c = b[dst].to_numpy()
        keep = a != c
        a, c = a[keep], c[keep]
        return pd.DataFrame({"a": np.minimum(a, c),
                             "b": np.maximum(a, c)})

    und = shuffle.distinct(
        edges.map_batches(canon, batch_format="pandas"), ["a", "b"],
        num_buckets=num_buckets).materialize()

    def _degrees(e: ray.data.Dataset) -> ray.data.Dataset:
        ends = e.map_batches(
            lambda b: pd.DataFrame({"node": np.concatenate(
                [b["a"].to_numpy(), b["b"].to_numpy()])}),
            batch_format="pandas")
        return shuffle.group_agg(ends, ["node"], {"d": ("node", "size")},
                                 num_buckets=num_buckets).materialize()

    ntype = pa.int64()
    for name, typ in zip(edges.schema().names, edges.schema().types):
        if name == src and isinstance(typ, pa.DataType):
            ntype = typ

    if max_degree is not None:
        from city2graph_ray.joins import semi_filter
        degf = _degrees(und)
        hubs = degf.map_batches(
            lambda b: b.loc[b["d"].to_numpy(np.int64) > max_degree,
                            ["node"]],
            batch_format="pandas").to_pandas()
        if len(hubs):                      # hub ids ≪ edges: broadcast
            harr = hubs["node"].to_numpy()
            und = semi_filter(
                semi_filter(und, harr, "a", keep=False),
                harr, "b", keep=False).materialize()
        if und.count() == 0:
            # cap removed every edge: typed empty (all-empty pandas
            # blocks lose their columns — the repo-wide gotcha)
            return ray.data.from_arrow(pa.table({
                "node": pa.array([], ntype),
                "triangles": pa.array([], pa.int64()),
                "degree": pa.array([], pa.int64()),
                "coeff": pa.array([], pa.float64())}))

    deg = _degrees(und)
    und_schema = pa.schema([("a", ntype), ("b", ntype)])

    w_a = bucketed_join(
        und, deg.map_batches(lambda b: b.rename(columns={"node": "a",
                                                         "d": "da"}),
                             batch_format="pandas"),
        on="a", num_buckets=num_buckets,
        left_schema=und_schema,
        right_schema=pa.schema([("a", ntype), ("da", pa.int64())]))
    w_ab = bucketed_join(
        w_a, deg.map_batches(lambda b: b.rename(columns={"node": "b",
                                                         "d": "db"}),
                             batch_format="pandas"),
        on="b", num_buckets=num_buckets,
        left_schema=pa.schema([("a", ntype), ("b", ntype),
                               ("da", pa.int64())]),
        right_schema=pa.schema([("b", ntype), ("db", pa.int64())]))

    def orient(b: pd.DataFrame) -> pd.DataFrame:
        a = b["a"].to_numpy()
        bb = b["b"].to_numpy()
        da = b["da"].to_numpy(np.int64)
        db = b["db"].to_numpy(np.int64)
        a_first = (da < db) | ((da == db) & (a < bb))
        return pd.DataFrame({
            "u": np.where(a_first, a, bb),
            "v": np.where(a_first, bb, a),
            "kd": np.where(a_first, db, da)})

    oriented = w_ab.map_batches(orient,
                                batch_format="pandas").materialize()
    packable = pa.types.is_int64(ntype) and _pair_packable(und)

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        # ragged vectorized triu carrying the wedge source (see
        # triangle_count — same arithmetic, no Python loop)
        g = g.sort_values(["u", "kd", "v"], kind="stable")
        vv = g["v"].to_numpy()
        uu = g["u"].to_numpy()
        _, starts, sizes = np.unique(uu, return_index=True,
                                     return_counts=True)
        pos = np.arange(len(uu)) - np.repeat(starts, sizes)
        reps = np.repeat(sizes, sizes) - 1 - pos
        total = int(reps.sum())
        if total == 0:
            i_idx = j_off = np.zeros(0, np.int64)
        else:
            i_idx = np.repeat(np.arange(len(uu)), reps)
            j_off = np.arange(total) - np.repeat(
                np.cumsum(reps) - reps, reps) + 1
        wu, v_, w_ = uu[i_idx], vv[i_idx], vv[i_idx + j_off]
        if packable:
            return pd.DataFrame({"wu": wu, "vw": _pack_pair(v_, w_)})
        return pd.DataFrame({"wu": wu, "v": v_, "w": w_})

    wedge_ds = shuffle.grouped_transform(oriented, ["u"], wedges,
                                         num_buckets=num_buckets)
    if packable:
        closure = oriented.map_batches(
            lambda b: pd.DataFrame({"vw": _pack_pair(
                b["u"].to_numpy(np.int64), b["v"].to_numpy(np.int64))}),
            batch_format="pandas")
        tri = bucketed_join(
            wedge_ds, closure, on="vw", num_buckets=num_buckets,
            left_schema=pa.schema([("wu", ntype),
                                   ("vw", pa.int64())]),
            right_schema=pa.schema([("vw", pa.int64())]))
        tri_nodes = tri.map_batches(
            lambda b: pd.DataFrame({"node": np.concatenate(
                [b["wu"].to_numpy(np.int64),
                 b["vw"].to_numpy(np.int64) >> np.int64(32),
                 b["vw"].to_numpy(np.int64)
                 & np.int64((1 << 32) - 1)])}),
            batch_format="pandas")
    else:
        closure = oriented.map_batches(
            lambda b: b.rename(columns={"u": "v", "v": "w"})
            [["v", "w"]], batch_format="pandas")
        tri = bucketed_join(
            wedge_ds, closure, on=["v", "w"], num_buckets=num_buckets,
            left_schema=pa.schema([("wu", ntype), ("v", ntype),
                                   ("w", ntype)]),
            right_schema=pa.schema([("v", ntype), ("w", ntype)]))
        tri_nodes = tri.map_batches(
            lambda b: pd.DataFrame({"node": np.concatenate(
                [b["wu"].to_numpy(), b["v"].to_numpy(),
                 b["w"].to_numpy()])}),
            batch_format="pandas")
    tcounts = shuffle.group_agg(
        tri_nodes, ["node"], {"triangles": ("node", "size")},
        num_buckets=num_buckets)

    out = bucketed_join(
        deg, tcounts, on="node", how="left", num_buckets=num_buckets,
        left_schema=pa.schema([("node", ntype), ("d", pa.int64())]),
        right_schema=pa.schema([("node", ntype),
                                ("triangles", pa.int64())]))

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        d = b["d"].to_numpy(np.int64)
        t = np.nan_to_num(b["triangles"].to_numpy(np.float64),
                          nan=0.0).astype(np.int64)
        denom = d * (d - 1)
        coeff = np.where(denom > 0, 2.0 * t / np.maximum(denom, 1),
                         0.0)
        return pd.DataFrame({"node": b["node"].to_numpy(),
                             "triangles": t, "degree": d,
                             "coeff": coeff})

    return out.map_batches(finish, batch_format="pandas")


def jaccard_link_prediction(edges: ray.data.Dataset, src: str = "src",
                            dst: str = "dst",
                            exclude_edges: bool = True,
                            num_buckets: int = shuffle.DEFAULT_BUCKETS,
                            max_degree: int | None = None,
                            ) -> ray.data.Dataset:
    """Jaccard neighbourhood-similarity link prediction over the
    UNDIRECTED simplification: for node pairs (x < y) with ≥1 common
    neighbour, ``J = cn / (deg x + deg y − cn)`` where ``cn`` is the
    common-neighbour count.  Every term is an exact int64 (wedge
    counts and degrees), so the single final division is the identical
    double on both engines — no quantization needed (contrast
    `adamic_adar`'s scaled-integer log weights).

    Same wedge shape as AA: per-centre ragged triu (inherently
    C(deg,2); ``max_degree`` caps hub centres, documented
    approximation), pair-keyed count, two bucketed joins to attach
    endpoint degrees.  Output (src, dst, cn, jaccard)."""
    import pyarrow as pa

    ntype = pa.int64()
    for name, typ in zip(edges.schema().names, edges.schema().types):
        if name == src:
            ntype = typ

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src].to_numpy()
        c = b[dst].to_numpy()
        keep = a != c
        a, c = a[keep], c[keep]
        return pd.DataFrame({"a": np.minimum(a, c),
                             "b": np.maximum(a, c)})

    und = shuffle.distinct(
        edges.map_batches(canon, batch_format="pandas"), ["a", "b"],
        num_buckets=num_buckets).materialize()

    def _empty() -> ray.data.Dataset:
        return ray.data.from_arrow(pa.table({
            "src": pa.array([], ntype), "dst": pa.array([], ntype),
            "cn": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64())}))

    if und.count() == 0:
        return _empty()

    half = und.map_batches(
        lambda b: pd.DataFrame({
            "u": np.concatenate([b["a"].to_numpy(), b["b"].to_numpy()]),
            "v": np.concatenate([b["b"].to_numpy(), b["a"].to_numpy()])}),
        batch_format="pandas")
    deg = shuffle.group_agg(half, ["u"], {"c": ("u", "size")},
                            num_buckets=num_buckets).materialize()

    # attach the HEAD's degree to each half-edge (node-sized join),
    # so wedge pairs carry both endpoint degrees and the pair-sized
    # result needs no degree joins afterwards — only the center cap
    # filters here, the head degree rides along untouched
    half = bucketed_join(
        half, deg.map_batches(
            lambda b: b.rename(columns={"u": "v", "c": "dv"}),
            batch_format="pandas"),
        on="v", num_buckets=num_buckets,
        left_schema=pa.schema([("u", ntype), ("v", ntype)]),
        right_schema=pa.schema([("v", ntype), ("dv", pa.int64())]))
    if max_degree is not None:
        ok = deg.map_batches(
            lambda b: b.loc[b["c"].to_numpy(np.int64) <= max_degree,
                            ["u"]], batch_format="pandas")
        half = bucketed_join(
            half, ok, on="u", num_buckets=num_buckets,
            left_schema=pa.schema([("u", ntype), ("v", ntype),
                                   ("dv", pa.int64())]),
            right_schema=pa.schema([("u", ntype)]))

    def wedge_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["u", "v"], kind="stable")
        uu = g["u"].to_numpy()
        vv = g["v"].to_numpy()
        dd = g["dv"].to_numpy(np.int64)
        _, starts, sizes = np.unique(uu, return_index=True,
                                     return_counts=True)
        pos = np.arange(len(uu)) - np.repeat(starts, sizes)
        reps = np.repeat(sizes, sizes) - 1 - pos
        total = int(reps.sum())
        if total == 0:
            return pd.DataFrame({"x": vv[:0], "y": vv[:0],
                                 "dx": dd[:0], "dy": dd[:0]})
        i_idx = np.repeat(np.arange(len(uu)), reps)
        j_off = np.arange(total) - np.repeat(np.cumsum(reps) - reps,
                                             reps) + 1
        return pd.DataFrame({"x": vv[i_idx], "y": vv[i_idx + j_off],
                             "dx": dd[i_idx], "dy": dd[i_idx + j_off]})

    pairs = shuffle.grouped_transform(half, ["u"], wedge_pairs,
                                      num_buckets=num_buckets)
    cn = shuffle.group_agg(
        pairs.map_batches(
            lambda b: b.assign(one=np.ones(len(b), np.int64)),
            batch_format="pandas"),
        ["x", "y"], {"cn": ("one", "sum"), "dx": ("dx", "max"),
                     "dy": ("dy", "max")}, num_buckets=num_buckets)

    pair_schema = pa.schema([("x", ntype), ("y", ntype),
                             ("cn", pa.int64()), ("dx", pa.int64()),
                             ("dy", pa.int64())])
    if exclude_edges:
        mark = und.map_batches(
            lambda b: pd.DataFrame({"x": b["a"], "y": b["b"]})
            .assign(is_edge=np.int64(1)), batch_format="pandas")
        cn = bucketed_join(
            cn, mark, on=["x", "y"], how="left",
            num_buckets=num_buckets, left_schema=pair_schema,
            right_schema=pa.schema([("x", ntype), ("y", ntype),
                                    ("is_edge", pa.int64())])
        ).map_batches(
            lambda b: b.loc[b["is_edge"].isna(),
                            ["x", "y", "cn", "dx", "dy"]],
            batch_format="pandas")

    out = cn.map_batches(
        lambda b: pd.DataFrame({
            "src": b["x"].to_numpy(),
            "dst": b["y"].to_numpy(),
            "cn": b["cn"].to_numpy(np.int64),
            "jaccard": b["cn"].to_numpy(np.int64) /
            (b["dx"].to_numpy(np.int64) + b["dy"].to_numpy(np.int64)
             - b["cn"].to_numpy(np.int64))}),
        batch_format="pandas").materialize()
    if out.count() == 0:
        return _empty()
    return out


def harmonic_centrality(edges: ray.data.Dataset, hops: int = 3,
                        src: str = "src", dst: str = "dst",
                        sources: ray.data.Dataset | None = None,
                        num_buckets: int = shuffle.DEFAULT_BUCKETS,
                        ) -> ray.data.Dataset:
    """Bounded-hop harmonic centrality over the UNDIRECTED
    simplification: ``H(v) = Σ_{u ≠ v, d(v,u) ≤ hops} 1/d(v,u)`` with
    unweighted hop distances (Boldi & Vigna's harmonic variant of
    closeness, public literature; the hop bound makes it
    SQL-expressible like the other bounded network ops).

    Exactness: hop distances are small integers, so the per-node
    reachability histogram (n_1 … n_hops) is exact int64; the final
    score is the FIXED left-to-right expression ``n_1/1 + n_2/2 + …``
    — identical IEEE ops on both engines, no summation-order freedom.

    Scale: the histogram needs per-node COUNTS, not the (src, dst)
    pair table, so when its bytes fit the driver budget an exact
    driver bitset-BFS computes it: n×(n/8) uint8 reachability
    matrices (14·n²/8 bytes live with the int64 popcount temporary),
    per hop a gather + ``bitwise_or.reduceat`` over edge slices of
    at most ``_GATHER_BYTES`` and a popcount of the newly-seen bits —
    identical integer n_k by construction (parity-tested vs the
    distributed branch).  The edge collect is checked before it runs,
    the bitset bytes once n is known.  This is the r5 fix for a real
    10× bomb: the sf0.1 zone graph (2.5k nodes, avg degree ~110)
    pushed the pair-table Bellman-Ford to ~700M round-3 relaxation
    rows = a 48-minute wall; the bitset path runs it in
    milliseconds.  Past the budget the relaxation path runs
    unchanged (one frontier × edges bucketed join + keyed min per
    hop); all-sources exact centrality there is O(Σ|B_hops(v)|·deg)
    relaxations — on dense graphs pass ``sources`` (a (node_id)
    Dataset subset) for the standard sampled variant.  Output
    (node, n_reach, harmonic)."""
    import pyarrow as pa

    from city2graph_ray.ops.network import bounded_hop_paths

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src].to_numpy(np.int64)
        c = b[dst].to_numpy(np.int64)
        keep = a != c
        a, c = a[keep], c[keep]
        return pd.DataFrame({"a": np.minimum(a, c),
                             "b": np.maximum(a, c)})

    und = shuffle.distinct(
        edges.map_batches(canon, batch_format="pandas"), ["a", "b"],
        num_buckets=num_buckets).materialize()
    if und.count() == 0:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "n_reach": pa.array([], pa.int64()),
            "harmonic": pa.array([], pa.float64())}))

    n_edges = und.count()
    # edge side, per undirected edge: collect 16, endpoint concat and
    # np.unique 32, ai/bi 16, heads/tails 32, their argsort 16 and
    # sorted copies 32, slice boundary scratch 32: 176 B
    edge_bytes = n_edges * 176
    if sources is None and fits_driver(edge_bytes):
        edf = und.to_pandas()
        a = edf["a"].to_numpy(np.int64)
        bb = edf["b"].to_numpy(np.int64)
        ids = np.unique(np.concatenate([a, bb]))
        n = len(ids)
        w = (n + 7) // 8
        rows = max(1, _GATHER_BYTES // w)
        # eye, seen, cur, nxt, ~seen, new (6·n·w) + the int64 pop[new]
        # (8·n·w) + one slice's cur[tails] gather and its reduceat
        if fits_driver(edge_bytes + 14 * n * w
                       + 2 * min(2 * n_edges, rows) * w):
            ai = np.searchsorted(ids, a)
            bi = np.searchsorted(ids, bb)
            heads = np.concatenate([ai, bi])
            tails = np.concatenate([bi, ai])
            order = np.argsort(heads, kind="stable")
            heads, tails = heads[order], tails[order]
            pop = np.array([bin(i).count("1") for i in range(256)],
                           np.int64)
            eye = np.zeros((n, w), np.uint8)
            eye[np.arange(n), np.arange(n) // 8] = \
                (1 << (np.arange(n) % 8)).astype(np.uint8)
            seen = eye.copy()
            cur = eye
            nk = np.zeros((hops + 1, n), np.int64)
            for k in range(1, hops + 1):
                nxt = np.zeros((n, w), np.uint8)
                # OR each head's neighbor rows, one edge slice at a time
                # (a head split across slices is OR'd twice: idempotent)
                for lo in range(0, len(tails), rows):
                    hs = heads[lo:lo + rows]
                    first = np.flatnonzero(np.r_[True, hs[1:] != hs[:-1]])
                    nxt[hs[first]] |= np.bitwise_or.reduceat(
                        cur[tails[lo:lo + rows]], first, axis=0)
                new = nxt & ~seen
                nk[k] = pop[new].sum(axis=1)
                seen |= nxt
                cur = nxt
            h = np.zeros(n, np.float64)
            total = np.zeros(n, np.int64)
            for k in range(1, hops + 1):
                h = h + nk[k] / float(k)   # fixed order: k ascending
                total += nk[k]
            # every node in the non-self edge set has >=1 neighbor,
            # so no zero-reach rows to drop (distributed-path parity)
            return ray.data.from_pandas(pd.DataFrame({
                "node": ids, "n_reach": total, "harmonic": h}))

    directed = und.map_batches(
        lambda b: pd.DataFrame({
            "src": np.concatenate([b["a"].to_numpy(np.int64),
                                   b["b"].to_numpy(np.int64)]),
            "dst": np.concatenate([b["b"].to_numpy(np.int64),
                                   b["a"].to_numpy(np.int64)]),
            "weight": np.ones(2 * len(b), np.float64)}),
        batch_format="pandas")
    nodes = sources if sources is not None else shuffle.distinct(
        und.map_batches(
            lambda b: pd.DataFrame({"node_id": np.concatenate(
                [b["a"].to_numpy(np.int64),
                 b["b"].to_numpy(np.int64)])}),
            batch_format="pandas"),
        ["node_id"], num_buckets=num_buckets)

    dist = bounded_hop_paths(directed, nodes, hops=hops,
                             num_buckets=num_buckets)

    hist = shuffle.group_agg(
        dist.map_batches(
            lambda b: (lambda m: pd.DataFrame({
                "node": b.loc[m, "src"].to_numpy(np.int64),
                "k": b.loc[m, "distance"].to_numpy(np.float64)
                .astype(np.int64)}))(b["src"] != b["dst"]),
            batch_format="pandas"),
        ["node", "k"], {"n": ("k", "size")}, num_buckets=num_buckets)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        piv = g.pivot_table(index="node", columns="k", values="n",
                            aggfunc="sum", fill_value=0)
        out = pd.DataFrame({"node": piv.index.to_numpy(np.int64)})
        h = np.zeros(len(piv), np.float64)
        total = np.zeros(len(piv), np.int64)
        for k in range(1, hops + 1):
            nk = (piv[k].to_numpy(np.int64) if k in piv.columns
                  else np.zeros(len(piv), np.int64))
            h = h + nk / float(k)   # fixed order: k ascending
            total += nk
        out["n_reach"] = total
        out["harmonic"] = h
        return out

    return shuffle.grouped_transform(hist, ["node"], finish,
                                     num_buckets=num_buckets)


def hits(edges: ray.data.Dataset, num_iters: int = 3,
         src: str = "src", dst: str = "dst", scale: int = 10 ** 6,
         num_buckets: int = shuffle.DEFAULT_BUCKETS) -> ray.data.Dataset:
    """HITS hubs-and-authorities (Kleinberg 1999, public literature)
    over a directed edge list, with L1 normalization carried in
    INTEGER units so every iteration is bit-reproducible:

      auth_k(v) = Σ_{u→v} hub_{k-1}(u)      (int64 unit sum — exact)
      hub_k(u)  = Σ_{u→v} auth_k(v)          (int64 unit sum — exact)

    after each phase scores renormalize to ``scale`` L1 mass via
    ``floor(units/total · scale + 0.5)`` — ``units`` and ``total``
    are exact int64 below 2⁵³, so the double division and floor are
    identical on both engines (the SQL twin unrolls the iterations as
    chained CTEs).  Classic HITS uses L2; the L1 variant keeps the
    normalizer an exact integer sum (L2 would need a float
    sum-of-squares whose addition order is free).  Output
    (node, auth, hub) with unit scores divided once by ``scale``.

    Scale: per phase one bucketed join (edge stream × node-sized score
    table, same node hash key every round) + one keyed sum; the
    normalizer is a driver scalar folded from per-block partial int
    sums."""
    import pyarrow as pa

    eds = edges.map_batches(
        lambda b: pd.DataFrame({
            "src": b[src].to_numpy(np.int64),
            "dst": b[dst].to_numpy(np.int64)}),
        batch_format="pandas").materialize()
    nodes = shuffle.distinct(
        eds.map_batches(
            lambda b: pd.DataFrame({"node": np.concatenate(
                [b["src"].to_numpy(), b["dst"].to_numpy()])}),
            batch_format="pandas"),
        ["node"], num_buckets=num_buckets).materialize()

    if nodes.count() == 0:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "auth": pa.array([], pa.float64()),
            "hub": pa.array([], pa.float64())}))

    # collect 16 + endpoint concat and np.unique 32 + si/di 16 + one
    # phase's hub_u[si]/auth_u[di] gathers 16 + node vectors 16: 96 B
    if fits_driver(eds.count() * 96):
        # driver fast path (same pattern as pagerank/k-core): the
        # int64 unit recurrences are order-free, so np.add.at partial
        # sums + the identical floor(u/t·sc+0.5) renormalization give
        # BIT-IDENTICAL scores to the distributed rounds (parity test
        # in tests/test_graph_algos.py).  Past the budget: the
        # bucketed-join rounds below.
        edf = eds.to_pandas()
        nid = np.unique(np.concatenate(
            [edf["src"].to_numpy(np.int64), edf["dst"].to_numpy(np.int64)]))
        si = np.searchsorted(nid, edf["src"].to_numpy(np.int64))
        di = np.searchsorted(nid, edf["dst"].to_numpy(np.int64))
        n = len(nid)
        hub_u = np.full(n, scale, np.int64)
        auth_u = hub_u.copy()

        def renorm(u: np.ndarray) -> np.ndarray:
            t = int(u.sum())
            if t == 0:
                return u
            return np.floor(u / t * scale + 0.5).astype(np.int64)

        for _ in range(num_iters):
            a = np.zeros(n, np.int64)
            np.add.at(a, di, hub_u[si])
            auth_u = renorm(a)
            h = np.zeros(n, np.int64)
            np.add.at(h, si, auth_u[di])
            hub_u = renorm(h)
        return ray.data.from_arrow(pa.table({
            "node": pa.array(nid, pa.int64()),
            "auth": pa.array(auth_u / float(scale), pa.float64()),
            "hub": pa.array(hub_u / float(scale), pa.float64())}))

    node_schema = pa.schema([("node", pa.int64())])
    score_schema = pa.schema([("node", pa.int64()),
                              ("u", pa.int64())])

    def _normalize(summed: ray.data.Dataset) -> ray.data.Dataset:
        """(node, s) partial units → zero-filled, L1-renormalized
        (node, u) over ALL nodes."""
        filled = bucketed_join(
            nodes, summed, on="node", how="left",
            num_buckets=num_buckets, left_schema=node_schema,
            right_schema=pa.schema([("node", pa.int64()),
                                    ("s", pa.int64())])).map_batches(
            lambda b: pd.DataFrame({
                "node": b["node"].to_numpy(np.int64),
                "u": np.nan_to_num(b["s"].to_numpy(np.float64),
                                   nan=0.0).astype(np.int64)}),
            batch_format="pandas").materialize()
        parts = filled.map_batches(
            lambda b: pd.DataFrame({"t": [int(b["u"].sum())]}),
            batch_format="pandas").to_pandas()
        total = int(parts["t"].sum())
        if total == 0:
            return filled
        return filled.map_batches(
            lambda b, t=total, sc=scale: pd.DataFrame({
                "node": b["node"].to_numpy(np.int64),
                "u": np.floor(b["u"].to_numpy(np.int64) / t * sc
                              + 0.5).astype(np.int64)}),
            batch_format="pandas").materialize()

    hub = nodes.map_batches(
        lambda b, sc=scale: pd.DataFrame({
            "node": b["node"].to_numpy(np.int64),
            "u": np.full(len(b), sc, np.int64)}),
        batch_format="pandas").materialize()
    auth = hub

    for _ in range(num_iters):
        a_sum = shuffle.group_agg(
            bucketed_join(
                eds, hub.map_batches(
                    lambda b: b.rename(columns={"node": "src"}),
                    batch_format="pandas"),
                on="src", num_buckets=num_buckets,
                left_schema=pa.schema([("src", pa.int64()),
                                       ("dst", pa.int64())]),
                right_schema=pa.schema([("src", pa.int64()),
                                        ("u", pa.int64())])
            ).map_batches(
                lambda b: pd.DataFrame({
                    "node": b["dst"].to_numpy(np.int64),
                    "u": b["u"].to_numpy(np.int64)}),
                batch_format="pandas"),
            ["node"], {"s": ("u", "sum")}, num_buckets=num_buckets)
        auth = _normalize(a_sum)

        h_sum = shuffle.group_agg(
            bucketed_join(
                eds, auth.map_batches(
                    lambda b: b.rename(columns={"node": "dst"}),
                    batch_format="pandas"),
                on="dst", num_buckets=num_buckets,
                left_schema=pa.schema([("src", pa.int64()),
                                       ("dst", pa.int64())]),
                right_schema=pa.schema([("dst", pa.int64()),
                                        ("u", pa.int64())])
            ).map_batches(
                lambda b: pd.DataFrame({
                    "node": b["src"].to_numpy(np.int64),
                    "u": b["u"].to_numpy(np.int64)}),
                batch_format="pandas"),
            ["node"], {"s": ("u", "sum")}, num_buckets=num_buckets)
        hub = _normalize(h_sum)

    both = bucketed_join(
        auth.map_batches(lambda b: b.rename(columns={"u": "au"}),
                         batch_format="pandas"),
        hub.map_batches(lambda b: b.rename(columns={"u": "hu"}),
                        batch_format="pandas"),
        on="node", num_buckets=num_buckets,
        left_schema=pa.schema([("node", pa.int64()),
                               ("au", pa.int64())]),
        right_schema=pa.schema([("node", pa.int64()),
                                ("hu", pa.int64())]))
    return both.map_batches(
        lambda b, sc=float(scale): pd.DataFrame({
            "node": b["node"].to_numpy(np.int64),
            "auth": b["au"].to_numpy(np.int64) / sc,
            "hub": b["hu"].to_numpy(np.int64) / sc}),
        batch_format="pandas")


def _truss_support_local(e: pd.DataFrame) -> pd.DataFrame:
    """Per-edge triangle support of a canonical (a < b) edge frame —
    wedges enumerate at each triangle's MIN vertex, so every triangle
    appears once; support fans back to its three edges.  Vectorized
    pandas merges throughout."""
    w = e.merge(e, on="a")
    w = w[w["b_x"] < w["b_y"]]
    tri = w.merge(e.rename(columns={"a": "b_x", "b": "b_y"}),
                  on=["b_x", "b_y"])
    if tri.empty:
        return pd.DataFrame({"a": pd.Series(dtype=e["a"].dtype),
                             "b": pd.Series(dtype=e["b"].dtype),
                             "support": pd.Series(dtype=np.int64)})
    sides = pd.concat([
        tri[["a", "b_x"]].rename(columns={"b_x": "b"}),
        tri[["a", "b_y"]].rename(columns={"b_y": "b"}),
        tri[["b_x", "b_y"]].rename(columns={"b_x": "a", "b_y": "b"})],
        ignore_index=True)
    return (sides.groupby(["a", "b"], sort=False).size()
            .rename("support").reset_index())


def ktruss(edges: ray.data.Dataset, k: int, src: str = "src",
           dst: str = "dst",
           num_buckets: int = shuffle.DEFAULT_BUCKETS,
           max_rounds: int = 100) -> ray.data.Dataset:
    """k-truss of the UNDIRECTED simplification of an edge list: the
    maximal subgraph whose every edge closes ≥ k−2 triangles within
    the subgraph (Cohen 2008, public literature).  Output
    ``(a, b, support)`` — the surviving canonical edges with their
    in-truss triangle support; typed-empty when nothing survives.

    Branches mirror :func:`kcore`'s measured cost split:

    * the merge rounds fit the driver budget (128 B per distinct
      edge): collect once, peel with vectorized pandas merge rounds
      (the min-vertex wedge enumeration touches each triangle once per
      round).
    * otherwise: distributed rounds — per-round wedge explode inside a
      keyed grouped-transform on the min vertex, one bucketed hash
      join closing wedges against the edge set, a keyed support sum,
      and a support filter; the surviving edge set re-materializes
      each round (same hash key every round), the driver sees only
      the scalar edge count.  Each round's wedge volume is the local
      algorithm's, sharded by min vertex — a Zipfian hub's wedges
      land on its many lower neighbors, not on itself.

    Peeling only shrinks the edge set, so an unchanged count is the
    exact fixed point.
    """
    if k < 3:
        # k=2 is the whole graph (every edge closes >= 0 triangles) but
        # the support stream only carries triangle edges — keep the
        # implementation honest and reject the degenerate order
        raise ValueError("ktruss requires k >= 3 (k=2 is the input graph)")
    need = k - 2
    import pyarrow as pa
    ntype = pa.int64()
    for name, typ in zip(edges.schema().names, edges.schema().types):
        if name == src:
            ntype = typ

    def _empty() -> ray.data.Dataset:
        return ray.data.from_arrow(pa.table({
            "a": pa.array([], ntype), "b": pa.array([], ntype),
            "support": pa.array([], pa.int64())}))

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src].to_numpy()
        c = b[dst].to_numpy()
        keep = a != c
        a, c = a[keep], c[keep]
        return pd.DataFrame({"a": np.minimum(a, c), "b": np.maximum(a, c)})

    und = shuffle.distinct(
        edges.map_batches(canon, batch_format="pandas"), ["a", "b"],
        num_buckets=num_buckets).materialize()
    n_edges = und.count()

    if n_edges == 0:
        return _empty()

    # (a, b) frame 16 + the self-merge's key factorization and index
    # arrays ~48 + wedges and triangles as 3-int64-column frames at
    # about one per edge ~64: 128 B per edge (wedge-heavy graphs use
    # more)
    if fits_driver(n_edges * 128):
        e = und.to_pandas()
        for _ in range(max_rounds):
            sup = _truss_support_local(e)
            keep = sup[sup["support"] >= need]
            if len(keep) == len(e):
                if not len(keep):
                    return _empty()
                return ray.data.from_pandas(keep.reset_index(drop=True))
            e = keep[["a", "b"]].reset_index(drop=True)
            if e.empty:
                break
        return _empty()

    cur = und
    cur_n = n_edges
    for _ in range(max_rounds):
        def wedges(g: pd.DataFrame) -> pd.DataFrame:
            w = g[["a", "b"]].merge(g[["a", "b"]], on="a")
            w = w[w["b_x"] < w["b_y"]]
            return w.rename(columns={"b_x": "v", "b_y": "w"})

        wed = shuffle.grouped_transform(cur, ["a"], wedges,
                                        num_buckets=num_buckets)
        closing = cur.map_batches(
            lambda b: b.rename(columns={"a": "v", "b": "w"}),
            batch_format="pandas")
        tri = bucketed_join(
            wed, closing, on=["v", "w"], num_buckets=num_buckets,
            left_schema=pa.schema([("a", ntype), ("v", ntype),
                                   ("w", ntype)]),
            right_schema=pa.schema([("v", ntype), ("w", ntype)]))

        def explode_sides(b: pd.DataFrame) -> pd.DataFrame:
            return pd.concat([
                b[["a", "v"]].rename(columns={"v": "b"}),
                b[["a", "w"]].rename(columns={"w": "b"}),
                b[["v", "w"]].rename(columns={"v": "a", "w": "b"})],
                ignore_index=True)

        sides = tri.map_batches(explode_sides, batch_format="pandas")
        sup = shuffle.group_agg(sides, ["a", "b"],
                                {"support": ("a", "size")},
                                num_buckets=num_buckets)
        keep = sup.filter(expr=f"support >= {int(need)}").materialize()
        keep_n = keep.count()
        if keep_n == cur_n:
            return keep
        cur = keep.map_batches(lambda b: b[["a", "b"]],
                               batch_format="pandas").materialize()
        cur_n = keep_n
        if cur_n == 0:
            break
    return _empty()


def _cliques4_local(e: pd.DataFrame) -> pd.DataFrame:
    """4-cliques of a canonical (a < b) edge frame via vectorized
    pandas merges: triangles enumerate once at their min vertex, then
    each extends by a 4th vertex adjacent to all three (d > n3 by
    canonical edge direction, so every clique appears exactly once)."""
    w = e.merge(e, on="a")
    w = w[w["b_x"] < w["b_y"]]
    tri = (w.merge(e.rename(columns={"a": "b_x", "b": "b_y"}),
                   on=["b_x", "b_y"])
           .rename(columns={"a": "n1", "b_x": "n2", "b_y": "n3"}))
    cand = tri.merge(e.rename(columns={"a": "n3", "b": "n4"}), on="n3")
    cand = cand.merge(e.rename(columns={"a": "n2", "b": "n4"}),
                      on=["n2", "n4"])
    cand = cand.merge(e.rename(columns={"a": "n1", "b": "n4"}),
                      on=["n1", "n4"])
    return cand[["n1", "n2", "n3", "n4"]].reset_index(drop=True)


def four_cliques(edges: ray.data.Dataset, src: str = "src",
                 dst: str = "dst",
                 num_buckets: int = shuffle.DEFAULT_BUCKETS,
                 ) -> ray.data.Dataset:
    """Exact enumeration of the 4-cliques of the UNDIRECTED
    simplification of an edge list (Chiba–Nishizeki clique listing,
    public literature).  Output ``(n1 < n2 < n3 < n4)``, one row per
    clique, typed-empty when there are none.

    Follows :func:`ktruss`'s measured branch split:

    * the merge cascade fits the driver budget (:func:`ktruss`'s 128 B
      per distinct edge): one collect, the vectorized merge cascade
      above.
    * otherwise: fully distributed — min-vertex wedge explode (ragged
      triu inside a keyed grouped-transform), one bucketed pair join
      closing triangles, then three bucketed joins growing the 4th
      vertex and confirming its two remaining edges.  Every join is
      hash-bucketed on its key; nothing rides the driver.  Wedge
      volume is the min-vertex enumeration's — adequate for sparse
      derived graphs; a degree-ordered orientation (as in
      :func:`triangle_count`) is the documented upgrade for Zipfian
      hubs.
    """
    import pyarrow as pa
    ntype = pa.int64()
    for name, typ in zip(edges.schema().names, edges.schema().types):
        if name == src:
            ntype = typ

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src].to_numpy()
        c = b[dst].to_numpy()
        keep = a != c
        a, c = a[keep], c[keep]
        return pd.DataFrame({"a": np.minimum(a, c), "b": np.maximum(a, c)})

    und = shuffle.distinct(
        edges.map_batches(canon, batch_format="pandas"), ["a", "b"],
        num_buckets=num_buckets).materialize()

    def _empty() -> ray.data.Dataset:
        return ray.data.from_arrow(pa.table(
            {c: pa.array([], ntype) for c in ("n1", "n2", "n3", "n4")}))

    n_edges = und.count()
    if n_edges == 0:
        return _empty()

    # the same merge cascade as ktruss's support: 128 B per edge
    if fits_driver(n_edges * 128):
        out = _cliques4_local(und.to_pandas())
        if out.empty:
            return _empty()
        return ray.data.from_pandas(out)

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        # ragged vectorized triu over each sorted min-vertex
        # neighborhood (same arithmetic as triangle_count's kernel)
        g = g.sort_values(["a", "b"], kind="stable")
        aa = g["a"].to_numpy()
        bb = g["b"].to_numpy()
        _, starts, sizes = np.unique(aa, return_index=True,
                                     return_counts=True)
        pos = np.arange(len(aa)) - np.repeat(starts, sizes)
        reps = np.repeat(sizes, sizes) - 1 - pos
        total = int(reps.sum())
        if total == 0:
            i_idx = j_off = np.zeros(0, np.int64)
        else:
            i_idx = np.repeat(np.arange(len(aa)), reps)
            j_off = np.arange(total) - np.repeat(
                np.cumsum(reps) - reps, reps) + 1
        return pd.DataFrame({"n1": aa[i_idx], "n2": bb[i_idx],
                             "n3": bb[i_idx + j_off]})

    wed = shuffle.grouped_transform(und, ["a"], wedges,
                                    num_buckets=num_buckets)
    pair = pa.schema([("n2", ntype), ("n3", ntype)])
    tri = bucketed_join(
        wed, und.map_batches(
            lambda b: b.rename(columns={"a": "n2", "b": "n3"}),
            batch_format="pandas"),
        on=["n2", "n3"], num_buckets=num_buckets,
        left_schema=pa.schema([("n1", ntype), ("n2", ntype),
                               ("n3", ntype)]),
        right_schema=pair)

    tri_schema = pa.schema([("n1", ntype), ("n2", ntype), ("n3", ntype)])
    cand = bucketed_join(
        tri, und.map_batches(
            lambda b: b.rename(columns={"a": "n3", "b": "n4"}),
            batch_format="pandas"),
        on="n3", num_buckets=num_buckets,
        left_schema=tri_schema,
        right_schema=pa.schema([("n3", ntype), ("n4", ntype)]))
    cand_schema = pa.schema([("n1", ntype), ("n2", ntype),
                             ("n3", ntype), ("n4", ntype)])
    cand = bucketed_join(
        cand, und.map_batches(
            lambda b: b.rename(columns={"a": "n2", "b": "n4"}),
            batch_format="pandas"),
        on=["n2", "n4"], num_buckets=num_buckets,
        left_schema=cand_schema,
        right_schema=pa.schema([("n2", ntype), ("n4", ntype)]))
    cand = bucketed_join(
        cand, und.map_batches(
            lambda b: b.rename(columns={"a": "n1", "b": "n4"}),
            batch_format="pandas"),
        on=["n1", "n4"], num_buckets=num_buckets,
        left_schema=cand_schema,
        right_schema=pa.schema([("n1", ntype), ("n4", ntype)]))
    return cand.map_batches(lambda b: b[["n1", "n2", "n3", "n4"]],
                            batch_format="pandas")


def eccentricity(edges: ray.data.Dataset, src: str = "src",
                 dst: str = "dst",
                 num_buckets: int = shuffle.DEFAULT_BUCKETS,
                 max_rounds: int = 64) -> ray.data.Dataset:
    """Exact per-node eccentricity of the UNDIRECTED simplification:
    ``ecc(v) = max_u dist(v, u)`` over v's reachable set, plus the
    reachable-set size (so disconnected components are explicit, and
    diameter/radius are one aggregate away).  Output
    ``(node, ecc, n_reached)``.

    This is an ALL-PAIRS op — the distance relation is O(n²) rows on
    a connected graph, so the node count is the budget, not the edge
    count (for corpus-scale graphs use sampled sources, as
    :func:`harmonic_centrality` does).  Branch split on the n² bytes
    of the driver kernel (the O(n²) output bound, NOT the edge count):

    * the n×n matrices fit the driver budget: one adjacency collect, all-
      sources BFS as uint8 frontier-matrix products (n³ per level via
      BLAS — measured ~10⁴× faster than shuffle rounds at these
      sizes, where per-round exchange overhead dwarfs the 10⁴-row
      relation).
    * otherwise: distributed BFS relaxation — the (src, node, d)
      relation lives in the object store, each round joins it against
      the adjacency on a hash bucket, unions, and min-reduces per
      (src, node).  Monotone: rows only append and distances only
      shrink, so an unchanged (count, Σd) pair is the exact fixed
      point — the driver sees two scalars per round.
    """
    import pyarrow as pa
    ntype = pa.int64()
    for name, typ in zip(edges.schema().names, edges.schema().types):
        if name == src:
            ntype = typ

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src].to_numpy()
        c = b[dst].to_numpy()
        keep = a != c
        a, c = a[keep], c[keep]
        return pd.DataFrame({"u": np.concatenate([np.minimum(a, c),
                                                  np.maximum(a, c)]),
                             "v": np.concatenate([np.maximum(a, c),
                                                  np.minimum(a, c)])})

    adj = shuffle.distinct(
        edges.map_batches(canon, batch_format="pandas"), ["u", "v"],
        num_buckets=num_buckets).materialize()

    def _empty() -> ray.data.Dataset:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], ntype),
            "ecc": pa.array([], pa.int64()),
            "n_reached": pa.array([], pa.int64())}))

    if adj.count() == 0:
        return _empty()

    nodes = shuffle.distinct(
        adj.map_batches(lambda b: b[["u"]], batch_format="pandas"),
        ["u"], num_buckets=num_buckets)
    n_nodes = nodes.count()

    # A, reached, frontier, its uint8 cast, the product and one level's
    # boolean temporaries: 8 one-byte n×n matrices; plus the doubled
    # adjacency collect and its two position maps: 48 B per arc
    if fits_driver(8 * n_nodes * n_nodes + 48 * adj.count()):
        ap = adj.to_pandas()
        ids = np.unique(ap["u"].to_numpy())
        pos = {v: i for i, v in enumerate(ids)}
        n = len(ids)
        A = np.zeros((n, n), np.uint8)
        A[ap["u"].map(pos).to_numpy(), ap["v"].map(pos).to_numpy()] = 1
        reached = np.eye(n, dtype=bool)
        frontier = reached.copy()
        ecc_v = np.zeros(n, np.int64)
        d = 0
        while frontier.any():
            nxt = ((frontier.astype(np.uint8) @ A) > 0) & ~reached
            if not nxt.any():
                break
            d += 1
            ecc_v[nxt.any(axis=1)] = d
            reached |= nxt
            frontier = nxt
        return ray.data.from_pandas(pd.DataFrame({
            "node": ids,
            "ecc": ecc_v,
            "n_reached": reached.sum(axis=1).astype(np.int64)}))

    dist = nodes.map_batches(
        lambda b: pd.DataFrame({"s": b["u"].to_numpy(),
                                "node": b["u"].to_numpy(),
                                "d": np.zeros(len(b), np.int64)}),
        batch_format="pandas").materialize()
    prev = (dist.count(), 0)

    d_schema = pa.schema([("s", ntype), ("node", ntype),
                          ("d", pa.int64())])
    adj_schema = pa.schema([("node", ntype), ("v", ntype)])
    for _ in range(max_rounds):
        relax = bucketed_join(
            dist, adj.map_batches(
                lambda b: b.rename(columns={"u": "node"}),
                batch_format="pandas"),
            on="node", num_buckets=num_buckets,
            left_schema=d_schema, right_schema=adj_schema)
        stepped = relax.map_batches(
            lambda b: pd.DataFrame({
                "s": b["s"].to_numpy(),
                "node": b["v"].to_numpy(),
                "d": b["d"].to_numpy(np.int64) + 1}),
            batch_format="pandas")
        dist = shuffle.group_agg(dist.union(stepped), ["s", "node"],
                                 {"d": ("d", "min")},
                                 num_buckets=num_buckets).materialize()
        cur = (dist.count(), int(dist.sum("d")))
        if cur == prev:
            break
        prev = cur

    ecc = shuffle.group_agg(dist, ["s"],
                            {"ecc": ("d", "max"),
                             "n_reached": ("d", "size")},
                            num_buckets=num_buckets)
    return ecc.map_batches(
        lambda b: b.rename(columns={"s": "node"}),
        batch_format="pandas")


def betweenness_centrality(edges: ray.data.Dataset, src: str = "src",
                           dst: str = "dst",
                           sources: ray.data.Dataset | None = None,
                           num_buckets: int = shuffle.DEFAULT_BUCKETS,
                           source_batch: int = 64) -> ray.data.Dataset:
    """Brandes betweenness centrality (Brandes 2001, public
    literature) of the UNDIRECTED simplification, unweighted, exact
    per-source: output ``(node, bc)`` where ``bc`` sums the pair
    dependencies over the given ``sources`` (all nodes by default —
    then ``bc`` equals networkx's unnormalized value; pass a sampled
    source subset for the estimator and scale by n/|sources|
    downstream).

    Scale shape — the SOURCE dimension is the parallel axis, the
    graph is the broadcast small side (same contract as the network-
    Dijkstra stage in ops/network.py, and the reference's NetworkX
    ops): CSR arrays ship once through ``broadcast_map``, tasks map
    over batches of sources, each batch accumulates its sources'
    dependency vectors locally and emits ONE partial row per touched
    node per batch; a keyed sum reduces across batches.  Per-source
    work is the vectorized level-BFS (np.add.at over level edge
    lists), not a Python per-edge loop.

    Floats: per-source dependencies are exact rationals evaluated in
    float64; the cross-source partial sum is association-order
    dependent at the 1e-15 level (documented — no SQL twin claims
    bit-exactness).
    """
    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src].to_numpy()
        c = b[dst].to_numpy()
        keep = a != c
        a, c = a[keep], c[keep]
        return pd.DataFrame({"a": np.minimum(a, c), "b": np.maximum(a, c)})

    und = shuffle.distinct(
        edges.map_batches(canon, batch_format="pandas"), ["a", "b"],
        num_buckets=num_buckets).to_pandas()
    import pyarrow as pa
    if und.empty:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "bc": pa.array([], pa.float64())}))

    ids = np.unique(np.concatenate([und["a"].to_numpy(),
                                    und["b"].to_numpy()]))
    pos = pd.Series(np.arange(len(ids)), index=ids)
    ai = pos[und["a"]].to_numpy()
    bi = pos[und["b"]].to_numpy()
    heads = np.concatenate([ai, bi])
    tails = np.concatenate([bi, ai])
    order = np.argsort(heads, kind="stable")
    nbrs = tails[order]
    indptr = np.zeros(len(ids) + 1, np.int64)
    np.add.at(indptr, heads + 1, 1)
    indptr = np.cumsum(indptr)
    if sources is None:
        sources = ray.data.from_pandas(
            pd.DataFrame({"source": ids.astype(np.int64)}))

    def one(s: int, indptr: np.ndarray, nbrs: np.ndarray,
            delta_acc: np.ndarray) -> None:
        n = len(delta_acc)
        dist = np.full(n, -1, np.int64)
        sigma = np.zeros(n, np.float64)
        dist[s] = 0
        sigma[s] = 1.0
        frontier = np.array([s], np.int64)
        level_edges = []
        d = 0
        while len(frontier):
            # all CSR out-edges of the frontier, vectorized
            cnt = indptr[frontier + 1] - indptr[frontier]
            v = np.repeat(frontier, cnt)
            starts = np.repeat(indptr[frontier], cnt)
            offs = (np.arange(len(v))
                    - np.repeat(np.cumsum(cnt) - cnt, cnt))
            w = nbrs[starts + offs]
            new_mask = dist[w] == -1
            dist[w[new_mask]] = d + 1
            tree = dist[w] == d + 1
            np.add.at(sigma, w[tree], sigma[v[tree]])
            level_edges.append((v[tree], w[tree]))
            frontier = np.unique(w[new_mask])
            d += 1
        delta = np.zeros(n, np.float64)
        for v, w in reversed(level_edges):
            np.add.at(delta, v,
                      sigma[v] / sigma[w] * (1.0 + delta[w]))
        delta[s] = 0.0
        delta_acc += delta

    def with_pos(graph: tuple) -> tuple:
        ids_ = graph[2]
        return graph + (pd.Series(np.arange(len(ids_)), index=ids_),)

    def brandes(batch: pd.DataFrame, graph: tuple) -> pd.DataFrame:
        indptr_, nbrs_, ids_, pos_ = graph
        acc = np.zeros(len(ids_), np.float64)
        for s in pos_[batch["source"].to_numpy()].to_numpy():
            one(int(s), indptr_, nbrs_, acc)
        nz = np.nonzero(acc)[0]
        return pd.DataFrame({"node": ids_[nz].astype(np.int64),
                             "bc": acc[nz]})

    parts = broadcast_map(sources, (indptr, nbrs, ids), brandes,
                          prepare=with_pos, batch_size=source_batch)
    out = shuffle.group_agg(parts, ["node"], {"bc": ("bc", "sum")},
                            num_buckets=num_buckets)
    # undirected: each (s,t) pair contributes from both endpoints
    return out.map_batches(
        lambda b: pd.DataFrame({"node": b["node"].to_numpy(),
                                "bc": b["bc"].to_numpy(np.float64)
                                / 2.0}),
        batch_format="pandas")


def personalized_pagerank(edges: ray.data.Dataset, seeds,
                          num_iters: int = 5, damping: float = 0.85,
                          src: str = "src", dst: str = "dst",
                          round_iter: int = 10, round_to: int = 6,
                          num_buckets: int = shuffle.DEFAULT_BUCKETS,
                          ) -> ray.data.Dataset:
    """Personalized PageRank: teleport mass concentrates on ``seeds``
    (uniform over the seeds present in the graph) instead of all
    nodes — the seed-expansion / related-entity primitive.  Same
    exactness contract as :func:`pagerank`: ranks round to
    ``round_iter`` decimals each iteration so float association order
    cannot leak, and the unrolled-CTE SQL twin agrees bit-for-bit.

    Broadcast loop only (rank vector is O(n) driver memory, edge
    stream distributed — ``pagerank``'s measured fast path); graphs
    whose node vectors do not fit the driver budget need the join
    loop of :func:`pagerank` with a seed-flag column on the rank
    table — raised explicitly rather than silently collected."""
    nodes = shuffle.distinct(
        _node_column(edges, src).union(_node_column(edges, dst)),
        ["node"], num_buckets=num_buckets).materialize()
    n = nodes.count()
    if n == 0:
        import pyarrow as pa
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "rank": pa.array([], pa.float64())}))
    if not fits_driver(n * _RANK_VECTOR_BYTES):
        raise ValueError(
            f"personalized_pagerank's {n} node vectors do not fit the "
            f"driver budget; extend with the join loop of pagerank() "
            f"for larger graphs")

    node_arr = np.sort(nodes.to_pandas()["node"].to_numpy())
    seed_mask = np.isin(node_arr, np.asarray(list(seeds)))
    ns = int(seed_mask.sum())
    if ns == 0:
        raise ValueError("no seed appears in the graph")
    t_vec = np.where(seed_mask, 1.0 / ns, 0.0)

    index = pd.Index(node_arr)
    idx_ref = ray.put(index)

    def reindex(batch: pd.DataFrame) -> pd.DataFrame:
        ix = ray.get(idx_ref)
        return pd.DataFrame({
            "si": ix.get_indexer(batch[src].to_numpy()).astype(np.int32),
            "di": ix.get_indexer(batch[dst].to_numpy()).astype(np.int32)})

    indexed = edges.map_batches(reindex,
                                batch_format="pandas").materialize()

    def partial_deg(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"w": [np.bincount(batch["si"].to_numpy(),
                               minlength=n).astype(np.int64).tobytes()]})

    deg = np.zeros(n, dtype=np.int64)
    for b in indexed.map_batches(partial_deg, batch_format="pandas"
                                 ).iter_batches(batch_size=None,
                                                batch_format="pandas"):
        for w in b["w"]:
            deg += np.frombuffer(w, dtype=np.int64)
    deg_safe = np.maximum(deg, 1).astype(np.float64)

    rank = np.round(t_vec, round_iter)
    for _ in range(num_iters):
        rd_ref = ray.put(rank / deg_safe)

        def partial_contrib(batch: pd.DataFrame,
                            ref=rd_ref) -> pd.DataFrame:
            rd = ray.get(ref)
            si = batch["si"].to_numpy()
            return pd.DataFrame(
                {"w": [np.bincount(batch["di"].to_numpy(),
                                   weights=rd[si],
                                   minlength=n).tobytes()]})

        contrib = np.zeros(n, dtype=np.float64)
        for b in indexed.map_batches(partial_contrib,
                                     batch_format="pandas"
                                     ).iter_batches(batch_size=None,
                                                    batch_format="pandas"):
            for w in b["w"]:
                contrib += np.frombuffer(w, dtype=np.float64)
        rank = np.round(damping * contrib + (1.0 - damping) * t_vec,
                        round_iter)

    return ray.data.from_pandas(pd.DataFrame(
        {"node": node_arr, "rank": np.round(rank, round_to)}))


def modularity(edges: ray.data.Dataset, labels: ray.data.Dataset,
               src: str = "src", dst: str = "dst",
               num_buckets: int = shuffle.DEFAULT_BUCKETS,
               ) -> ray.data.Dataset:
    """Newman modularity of a node partition over the UNDIRECTED
    simplification — the community-quality score for LPA/components:

        Q = Σ_c [ e_c/m − (d_c/2m)² ]
          = (4·m·Σe_c − Σd_c²) / (4m²)     (exact int64 numerator)

    ``labels`` must be ``(node, label)``.  Output one row
    ``(n_communities, m, intra_edges, modularity)`` — the double is
    the same int→float division in numpy and SQL.

    Shape: two bucketed joins attach endpoint labels to the distinct
    edge stream (intra-edge count = keyed partial sums), degrees and
    per-label degree sums are partial-combined keyed aggregations,
    and the driver sees four scalars."""
    import pyarrow as pa

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src].to_numpy()
        c = b[dst].to_numpy()
        keep = a != c
        a, c = a[keep], c[keep]
        return pd.DataFrame({"a": np.minimum(a, c), "b": np.maximum(a, c)})

    und = shuffle.distinct(
        edges.map_batches(canon, batch_format="pandas"), ["a", "b"],
        num_buckets=num_buckets).materialize()
    m = und.count()
    if m == 0:
        return ray.data.from_pandas(pd.DataFrame({
            "n_communities": [np.int64(0)], "m": [np.int64(0)],
            "intra_edges": [np.int64(0)], "modularity": [0.0]}))

    ntype = pa.int64()
    lab_a = labels.map_batches(
        lambda b: pd.DataFrame({"a": b["node"].to_numpy(),
                                "la": b["label"].to_numpy()}),
        batch_format="pandas")
    lab_b = labels.map_batches(
        lambda b: pd.DataFrame({"b": b["node"].to_numpy(),
                                "lb": b["label"].to_numpy()}),
        batch_format="pandas")
    e1 = bucketed_join(und, lab_a, on="a", num_buckets=num_buckets,
                       left_schema=pa.schema([("a", ntype),
                                              ("b", ntype)]),
                       right_schema=pa.schema([("a", ntype),
                                               ("la", ntype)]))
    e2 = bucketed_join(e1, lab_b, on="b", num_buckets=num_buckets,
                       left_schema=pa.schema([("a", ntype), ("b", ntype),
                                              ("la", ntype)]),
                       right_schema=pa.schema([("b", ntype),
                                               ("lb", ntype)]))
    intra = int(e2.map_batches(
        lambda b: pd.DataFrame({"n": [np.int64(
            (b["la"].to_numpy() == b["lb"].to_numpy()).sum())]}),
        batch_format="pandas").sum("n") or 0)

    ends = und.map_batches(
        lambda b: pd.DataFrame({"node": np.concatenate(
            [b["a"].to_numpy(), b["b"].to_numpy()])}),
        batch_format="pandas")
    deg = shuffle.group_agg(ends, ["node"], {"d": ("node", "size")},
                            num_buckets=num_buckets)
    degl = bucketed_join(
        deg, labels.map_batches(lambda b: b[["node", "label"]],
                                batch_format="pandas"),
        on="node", num_buckets=num_buckets,
        left_schema=pa.schema([("node", ntype), ("d", pa.int64())]),
        right_schema=pa.schema([("node", ntype), ("label", ntype)]))
    dsum = shuffle.group_agg(degl, ["label"], {"dsum": ("d", "sum")},
                             num_buckets=num_buckets).materialize()
    n_comm = dsum.count()
    sum_d2 = int(dsum.map_batches(
        lambda b: pd.DataFrame({"q": [np.int64(
            (b["dsum"].to_numpy(np.int64) ** 2).sum())]}),
        batch_format="pandas").sum("q") or 0)

    q = (4 * m * intra - sum_d2) / (4.0 * m * m)
    return ray.data.from_pandas(pd.DataFrame({
        "n_communities": [np.int64(n_comm)], "m": [np.int64(m)],
        "intra_edges": [np.int64(intra)], "modularity": [q]}))


def degree_assortativity(edges: ray.data.Dataset, src: str = "src",
                         dst: str = "dst",
                         num_buckets: int = shuffle.DEFAULT_BUCKETS,
                         ) -> ray.data.Dataset:
    """Degree assortativity (Newman 2002): the Pearson correlation of
    endpoint degrees over the undirected edge multiset (each edge
    counted in both orientations).  Every moment is an int64 sum —
    Σx, Σx², Σxy over 2m (deg_u, deg_v) samples — so the final

        r = (n·Σxy − Σx·Σy) / (n·Σx² − (Σx)²)        (x/y symmetric)

    is one exact int→double ratio, bit-identical in numpy and SQL.
    Output one row ``(m, r)``; r = NaN/NULL on degree-regular graphs
    (zero variance).

    Shape: distinct canonical edges, two bucketed joins attaching the
    endpoint degrees, integer moment partials per block, five driver
    scalars."""
    import pyarrow as pa

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src].to_numpy()
        c = b[dst].to_numpy()
        keep = a != c
        a, c = a[keep], c[keep]
        return pd.DataFrame({"a": np.minimum(a, c), "b": np.maximum(a, c)})

    und = shuffle.distinct(
        edges.map_batches(canon, batch_format="pandas"), ["a", "b"],
        num_buckets=num_buckets).materialize()
    m = und.count()
    if m == 0:
        return ray.data.from_pandas(pd.DataFrame(
            {"m": [np.int64(0)], "r": [np.nan]}))

    ends = und.map_batches(
        lambda b: pd.DataFrame({"node": np.concatenate(
            [b["a"].to_numpy(), b["b"].to_numpy()])}),
        batch_format="pandas")
    deg = shuffle.group_agg(ends, ["node"], {"d": ("node", "size")},
                            num_buckets=num_buckets)
    ntype = pa.int64()
    da = bucketed_join(
        und, deg.map_batches(lambda b: b.rename(
            columns={"node": "a", "d": "da"}), batch_format="pandas"),
        on="a", num_buckets=num_buckets,
        left_schema=pa.schema([("a", ntype), ("b", ntype)]),
        right_schema=pa.schema([("a", ntype), ("da", pa.int64())]))
    dab = bucketed_join(
        da, deg.map_batches(lambda b: b.rename(
            columns={"node": "b", "d": "db"}), batch_format="pandas"),
        on="b", num_buckets=num_buckets,
        left_schema=pa.schema([("a", ntype), ("b", ntype),
                               ("da", pa.int64())]),
        right_schema=pa.schema([("b", ntype), ("db", pa.int64())]))

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        x = b["da"].to_numpy(np.int64)
        y = b["db"].to_numpy(np.int64)
        # both orientations: samples (x,y) and (y,x)
        return pd.DataFrame({
            "sx": [np.int64(x.sum() + y.sum())],
            "sx2": [np.int64((x * x).sum() + (y * y).sum())],
            "sxy": [np.int64(2 * (x * y).sum())],
            "n": [np.int64(2 * len(b))]})

    p = dab.map_batches(moments, batch_format="pandas").to_pandas()
    sx = int(p["sx"].sum())
    sx2 = int(p["sx2"].sum())
    sxy = int(p["sxy"].sum())
    n = int(p["n"].sum())
    num = n * sxy - sx * sx
    den = n * sx2 - sx * sx
    r = np.nan if den == 0 else num / den
    return ray.data.from_pandas(pd.DataFrame(
        {"m": [np.int64(m)], "r": [r]}))


def _mis_local(a: np.ndarray, b: np.ndarray, nodes: np.ndarray,
               keys: np.ndarray) -> np.ndarray:
    """Driver kernel: greedy-by-priority MIS via Luby rounds over
    index arrays (a, b = edge endpoints as positions into nodes)."""
    n = len(nodes)
    remaining = np.ones(n, bool)
    selected = np.zeros(n, bool)
    heads = np.concatenate([a, b])
    tails = np.concatenate([b, a])
    while remaining.any():
        live = remaining[heads] & remaining[tails]
        h, t = heads[live], tails[live]
        # lexicographic neighbor-min of (key, node): min key first,
        # then min node among key-ties
        min_p = np.full(n, np.iinfo(np.uint64).max, np.uint64)
        np.minimum.at(min_p, t, keys[h])
        min_u = np.full(n, np.iinfo(np.int64).max, np.int64)
        at_min = keys[h] == min_p[t]
        np.minimum.at(min_u, t[at_min], nodes[h[at_min]])
        win = remaining & ((keys < min_p)
                           | ((keys == min_p) & (nodes < min_u)))
        if not win.any():
            break
        selected |= win
        dead = win.copy()
        dead_t = win[heads]
        np.logical_or.at(dead, tails[dead_t], True)
        remaining &= ~dead
    return selected


def maximal_independent_set(edges: ray.data.Dataset, src: str = "src",
                            dst: str = "dst",
                            num_buckets: int = shuffle.DEFAULT_BUCKETS,
                            max_rounds: int = 64) -> ray.data.Dataset:
    """Deterministic maximal independent set — Luby's parallel MIS
    (Luby 1986, public literature) with FIXED md5 priorities, which
    makes the result the greedy MIS in priority order (and therefore
    reproducible and SQL-twinnable): a node joins when its
    ``(md5_lower64(str(node)) >> 12, node)`` pair is lexicographically
    smaller than every remaining neighbor's (52-bit priorities stay
    exact through the float64 that pandas LEFT joins force on nullable
    ints; key ties — ~2⁻⁵² — break on the node id, identically in
    SQL); winners and their
    neighborhoods leave; repeat to the fixed point (O(log n) rounds
    w.h.p.).  Output ``(node, in_mis)`` for every node.

    Branch split as in :func:`kcore`: graphs whose index-array kernel
    fits the driver budget run it on the driver; larger graphs run the
    same rounds distributed — per
    round one bucketed join attaching priorities, one keyed
    lexicographic-min reduction, and an anti-join removing closed
    neighborhoods; the driver sees the remaining-count scalar."""
    import pyarrow as pa

    from city2graph_ray.text.dedup import _md5_lower64

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        x = b[src].to_numpy()
        y = b[dst].to_numpy()
        keep = x != y
        x, y = x[keep], y[keep]
        return pd.DataFrame({"a": np.minimum(x, y),
                             "b": np.maximum(x, y)})

    und = shuffle.distinct(
        edges.map_batches(canon, batch_format="pandas"), ["a", "b"],
        num_buckets=num_buckets).materialize()
    n_edges = und.count()
    if n_edges == 0:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "in_mis": pa.array([], pa.bool_())}))

    # per edge: collect 16, concat and np.unique 32, a/b 16,
    # _mis_local's heads/tails 32 and one round's live/h/t/keys[h]
    # gathers ~56; per node (at most 2 per edge) the md5'd id string
    # and its index entry ~100: 352 B per edge
    if fits_driver(n_edges * 352):
        e = und.to_pandas()
        nodes = np.unique(np.concatenate([e["a"].to_numpy(),
                                          e["b"].to_numpy()]))
        pos = pd.Series(np.arange(len(nodes)), index=nodes)
        a = pos[e["a"]].to_numpy()
        b = pos[e["b"]].to_numpy()
        keys = _md5_lower64([str(int(v)) for v in nodes]) >> np.uint64(12)
        sel = _mis_local(a, b, nodes.astype(np.int64), keys)
        return ray.data.from_pandas(pd.DataFrame(
            {"node": nodes.astype(np.int64), "in_mis": sel}))

    # distributed rounds -------------------------------------------
    def with_keys(colmap):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame({v: b[k].to_numpy()
                                for k, v in colmap.items()})
            return out
        return fn

    nodes = shuffle.distinct(
        und.map_batches(lambda b: pd.DataFrame({"node": np.concatenate(
            [b["a"].to_numpy(), b["b"].to_numpy()])}),
            batch_format="pandas"),
        ["node"], num_buckets=num_buckets)
    rem = nodes.map_batches(
        lambda b: pd.DataFrame({
            "node": b["node"].to_numpy(np.int64),
            "p": (_md5_lower64([str(int(v)) for v in b["node"]])
                  >> np.uint64(12)).astype(np.int64)}),
        batch_format="pandas").materialize()
    cur_edges = und.materialize()
    mis_parts = []
    node_schema = pa.schema([("node", pa.int64()), ("p", pa.int64())])
    for _ in range(max_rounds):
        if rem.count() == 0:
            break
        half = cur_edges.map_batches(
            lambda b: pd.DataFrame({
                "u": np.concatenate([b["a"].to_numpy(),
                                     b["b"].to_numpy()]),
                "v": np.concatenate([b["b"].to_numpy(),
                                     b["a"].to_numpy()])}),
            batch_format="pandas")
        withp = bucketed_join(
            half.map_batches(lambda b: b.rename(columns={"u": "node"}),
                             batch_format="pandas"),
            rem, on="node", num_buckets=num_buckets,
            left_schema=pa.schema([("node", pa.int64()),
                                   ("v", pa.int64())]),
            right_schema=node_schema)

        def nbrmin(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(["v", "p", "node"], kind="stable")
            f = g.groupby("v", sort=False).first().reset_index()
            return pd.DataFrame({"node": f["v"].to_numpy(np.int64),
                                 "mp": f["p"].to_numpy(np.int64),
                                 "mu": f["node"].to_numpy(np.int64)})

        nm = shuffle.grouped_transform(withp, ["v"], nbrmin,
                                       num_buckets=num_buckets)
        joined = bucketed_join(
            rem, nm, on="node", how="left", num_buckets=num_buckets,
            left_schema=node_schema,
            right_schema=pa.schema([("node", pa.int64()),
                                    ("mp", pa.int64()),
                                    ("mu", pa.int64())]))

        def pick(b: pd.DataFrame) -> pd.DataFrame:
            # 52-bit priorities and sub-2^53 node ids stay exact in
            # the float64 the LEFT join forces on nullable ints
            nomin = b["mp"].isna().to_numpy()
            p = b["p"].to_numpy(np.int64)
            node = b["node"].to_numpy(np.int64)
            mp = b["mp"].to_numpy(np.float64)
            mu = b["mu"].to_numpy(np.float64)
            win = nomin | (p < mp) | ((p == mp) & (node < mu))
            return pd.DataFrame({"node": node[win]})

        winners = joined.map_batches(pick,
                                     batch_format="pandas").materialize()
        if winners.count() == 0:
            break
        mis_parts.append(winners)
        wflag = winners.map_batches(
            lambda b: pd.DataFrame({"node": b["node"].to_numpy(np.int64),
                                    "__w": np.ones(len(b), np.int64)}),
            batch_format="pandas")
        # dead = winners + their neighbors
        nbr_dead = bucketed_join(
            half.map_batches(lambda b: b.rename(columns={"u": "node"}),
                             batch_format="pandas"),
            wflag, on="node", num_buckets=num_buckets,
            left_schema=pa.schema([("node", pa.int64()),
                                   ("v", pa.int64())]),
            right_schema=pa.schema([("node", pa.int64()),
                                    ("__w", pa.int64())]))
        dead = shuffle.distinct(
            nbr_dead.map_batches(
                lambda b: pd.DataFrame({"node": b["v"].to_numpy(np.int64)}),
                batch_format="pandas").union(
                winners.map_batches(lambda b: b[["node"]],
                                    batch_format="pandas")),
            ["node"], num_buckets=num_buckets)
        dflag = dead.map_batches(
            lambda b: pd.DataFrame({"node": b["node"].to_numpy(np.int64),
                                    "__d": np.ones(len(b), np.int64)}),
            batch_format="pandas")
        rem = bucketed_join(
            rem, dflag, on="node", how="left", num_buckets=num_buckets,
            left_schema=node_schema,
            right_schema=pa.schema([("node", pa.int64()),
                                    ("__d", pa.int64())])
        ).map_batches(
            lambda b: b.loc[b["__d"].isna(), ["node", "p"]],
            batch_format="pandas").materialize()
        # prune edges to remaining nodes on both endpoints
        rflag = rem.map_batches(
            lambda b: pd.DataFrame({"node": b["node"].to_numpy(np.int64),
                                    "__r": np.ones(len(b), np.int64)}),
            batch_format="pandas")
        ea = bucketed_join(
            cur_edges.map_batches(
                lambda b: b.rename(columns={"a": "node"}),
                batch_format="pandas"),
            rflag, on="node", num_buckets=num_buckets,
            left_schema=pa.schema([("node", pa.int64()),
                                   ("b", pa.int64())]),
            right_schema=pa.schema([("node", pa.int64()),
                                    ("__r", pa.int64())]))
        cur_edges = bucketed_join(
            ea.map_batches(
                lambda b: pd.DataFrame({"a": b["node"].to_numpy(np.int64),
                                        "node": b["b"].to_numpy(np.int64)}),
                batch_format="pandas"),
            rflag, on="node", num_buckets=num_buckets,
            left_schema=pa.schema([("a", pa.int64()),
                                   ("node", pa.int64())]),
            right_schema=pa.schema([("node", pa.int64()),
                                    ("__r", pa.int64())])
        ).map_batches(
            lambda b: pd.DataFrame({"a": b["a"].to_numpy(np.int64),
                                    "b": b["node"].to_numpy(np.int64)}),
            batch_format="pandas").materialize()

    allnodes = nodes.materialize()
    if mis_parts:
        mis = shuffle.distinct(
            mis_parts[0].union(*mis_parts[1:]) if len(mis_parts) > 1
            else mis_parts[0], ["node"], num_buckets=num_buckets)
    else:
        mis = ray.data.from_pandas(pd.DataFrame(
            {"node": pd.Series(dtype=np.int64)}))
    mflag = mis.map_batches(
        lambda b: pd.DataFrame({"node": b["node"].to_numpy(np.int64),
                                "__m": np.ones(len(b), np.int64)}),
        batch_format="pandas")
    out = bucketed_join(
        allnodes.map_batches(
            lambda b: pd.DataFrame({"node": b["node"].to_numpy(np.int64)}),
            batch_format="pandas"),
        mflag, on="node", how="left", num_buckets=num_buckets,
        left_schema=pa.schema([("node", pa.int64())]),
        right_schema=pa.schema([("node", pa.int64()),
                                ("__m", pa.int64())]))
    return out.map_batches(
        lambda b: pd.DataFrame({"node": b["node"].to_numpy(np.int64),
                                "in_mis": ~b["__m"].isna().to_numpy()}),
        batch_format="pandas")


def deterministic_walks(edges: ray.data.Dataset, steps: int = 3,
                        src: str = "src", dst: str = "dst",
                        num_buckets: int = 16) -> ray.data.Dataset:
    """Deterministic pseudo-random walks (the reproducible stand-in
    for node2vec/DeepWalk sampling in a training-data pipeline): from
    every node, ``steps`` hops where the successor at step ``s`` from
    node ``u`` is the out-neighbor ``v`` minimizing
    ``md5_number_lower(f"{s}:{u}:{v}") >> 12`` (tie: smallest ``v``).

    The successor is a pure function of (step, node) — a pseudorandom
    function family keyed by step — so each step materializes one
    next-hop table (per-src argmin over out-edges: a keyed top-1
    merge) and advances every walk with one bucketed hash join.  Walks
    reaching a node with no out-edges are dropped (inner-join
    semantics), matching the SQL twin.

    Output: (start, v1, …, v{steps}) int64."""
    from city2graph_ray.joins import bucketed_join
    from city2graph_ray.text.dedup import _md5_lower64

    # iterative algorithm: pin the edge table once (object-store
    # resident, spillable — the same discipline as MIS/LPA rounds) so
    # the per-step next-hop pass doesn't re-execute the upstream
    # lineage; walks re-pin per hop to truncate the growing join chain
    edges = edges.materialize()
    nodes = shuffle.distinct(
        edges.map_batches(
            lambda b: pd.DataFrame({"start": np.concatenate(
                [b[src].to_numpy(np.int64), b[dst].to_numpy(np.int64)])}),
            batch_format="pandas"),
        ["start"], num_buckets=num_buckets)

    walks = nodes.map_batches(
        lambda b: pd.DataFrame({"start": b["start"].to_numpy(np.int64),
                                "cur": b["start"].to_numpy(np.int64)}),
        batch_format="pandas")

    for s in range(1, steps + 1):
        def hop_hash(b: pd.DataFrame, s_=s) -> pd.DataFrame:
            u = b[src].to_numpy(np.int64)
            v = b[dst].to_numpy(np.int64)
            h = (_md5_lower64(
                [f"{s_}:{a}:{c}" for a, c in zip(u, v)])
                >> np.uint64(12)).astype(np.int64)
            return pd.DataFrame({"u": u, f"v{s_}": v, "h": h})

        nh = shuffle.topk_in_group(
            edges.map_batches(hop_hash, batch_format="pandas"),
            ["u"], 1, ["h", f"v{s}"], [True, True],
            num_buckets=num_buckets).drop_columns(["h"])
        walks = bucketed_join(
            walks.map_batches(
                lambda b: b.rename(columns={"cur": "u"}),
                batch_format="pandas"),
            nh, on="u", num_buckets=num_buckets) \
            .map_batches(
                lambda b, s_=s: b.drop(columns=["u"]).assign(
                    cur=b[f"v{s_}"].to_numpy(np.int64)),
                batch_format="pandas").materialize()

    return walks.map_batches(
        lambda b: b.drop(columns=["cur"]), batch_format="pandas")


def sssp_bounded(edges: ray.data.Dataset, source: int, rounds: int = 4,
                 src: str = "src", dst: str = "dst", weight: str = "w",
                 num_buckets: int = shuffle.DEFAULT_BUCKETS,
                 ) -> ray.data.Dataset:
    """Bounded-hop single-source shortest path (Bellman–Ford rounds)
    over a weighted digraph with INTEGER weights: after ``rounds``
    relaxations, dist(v) = min total weight over paths source→v with
    ≤ ``rounds`` edges — the bounded form is deterministic, shuffle-
    friendly, and exactly unrollable as a SQL CTE ladder (all-integer
    mins, no float anywhere).  Output (node, dist) for reached nodes.

    Branches (same split as :func:`pagerank`): when the node vectors
    fit the driver budget, the node-sized dist VECTOR stays on the
    driver and the edge blocks stream once per round (per-block
    ``minimum.at`` partials, O(n) driver memory); otherwise one
    bucketed join (dist × edges on src, same hash key every round)
    + one keyed min per round with no node-sized driver state."""

    edges = edges.materialize()  # consumed twice (node set + rounds)
    nodes = shuffle.distinct(
        _node_column(edges, src).union(_node_column(edges, dst)),
        ["node"], num_buckets=num_buckets).materialize()
    n = nodes.count()

    if fits_driver(n * _RANK_VECTOR_BYTES):
        node_arr = np.sort(nodes.to_pandas()["node"].to_numpy(np.int64))
        index = pd.Index(node_arr)
        idx_ref = ray.put(index)

        def reindex(batch: pd.DataFrame) -> pd.DataFrame:
            ix = ray.get(idx_ref)
            return pd.DataFrame({
                "si": ix.get_indexer(batch[src].to_numpy())
                .astype(np.int32),
                "di": ix.get_indexer(batch[dst].to_numpy())
                .astype(np.int32),
                "w": batch[weight].to_numpy(np.int64)})

        indexed = edges.map_batches(reindex,
                                    batch_format="pandas").materialize()
        INF = np.iinfo(np.int64).max // 4
        dist = np.full(len(node_arr), INF, np.int64)
        pos = index.get_indexer([source])
        if pos[0] >= 0:
            dist[pos[0]] = 0

        for _ in range(rounds):
            d_ref = ray.put(dist)

            def relax(batch: pd.DataFrame, ref=d_ref,
                      m=len(node_arr)) -> pd.DataFrame:
                d = ray.get(ref)
                cand = d[batch["si"].to_numpy()] \
                    + batch["w"].to_numpy(np.int64)
                out = np.full(m, INF, np.int64)
                np.minimum.at(out, batch["di"].to_numpy(), cand)
                return pd.DataFrame({"v": [out.tobytes()]})

            new = dist.copy()
            for b in indexed.map_batches(
                    relax, batch_format="pandas").iter_batches(
                        batch_size=None, batch_format="pandas"):
                for v in b["v"]:
                    new = np.minimum(new, np.frombuffer(v, np.int64))
            dist = new

        reached = dist < INF
        out_nodes = node_arr[reached]
        out_dist = dist[reached]
        if pos[0] < 0:
            # source isn't an edge endpoint: still report dist 0
            # (matches the join rounds and the SQL ladder's d0 seed)
            out_nodes = np.concatenate(
                [np.asarray([source], np.int64), out_nodes])
            out_dist = np.concatenate(
                [np.asarray([0], np.int64), out_dist])
        return ray.data.from_pandas(pd.DataFrame(
            {"node": out_nodes, "dist": out_dist}))

    # join rounds: dist table is a Dataset, edges stay put
    ew = edges.map_batches(
        lambda b: pd.DataFrame({src: b[src].to_numpy(np.int64),
                                dst: b[dst].to_numpy(np.int64),
                                "w": b[weight].to_numpy(np.int64)}),
        batch_format="pandas").materialize()
    dist = ray.data.from_pandas(pd.DataFrame(
        {"node": np.asarray([source], np.int64),
         "dist": np.asarray([0], np.int64)}))
    for _ in range(rounds):
        frontier = dist.map_batches(
            lambda b: b.rename(columns={"node": src}),
            batch_format="pandas")
        relaxed = bucketed_join(ew, frontier, on=src,
                                num_buckets=num_buckets).map_batches(
            lambda b: pd.DataFrame({
                "node": b[dst].to_numpy(np.int64),
                "dist": b["dist"].to_numpy(np.int64)
                + b["w"].to_numpy(np.int64)}),
            batch_format="pandas")
        dist = shuffle.group_agg(dist.union(relaxed), ["node"],
                                 {"dist": ("dist", "min")},
                                 num_buckets=num_buckets).materialize()
    return dist


def _tarjan_scc_local(a: np.ndarray, b: np.ndarray) -> pd.DataFrame:
    """Iterative Tarjan over dense-remapped int ids; returns
    (node, scc_id) with scc_id = min original node id in the SCC."""
    nodes = np.unique(np.concatenate([a, b]))
    n = len(nodes)
    ai = np.searchsorted(nodes, a)
    bi = np.searchsorted(nodes, b)
    order = np.argsort(ai, kind="stable")
    ai, bi = ai[order], bi[order]
    starts = np.searchsorted(ai, np.arange(n))
    ends = np.searchsorted(ai, np.arange(n), side="right")
    index = np.full(n, -1, np.int64)
    low = np.zeros(n, np.int64)
    on_stack = np.zeros(n, bool)
    comp = np.full(n, -1, np.int64)
    counter = 0
    stack: list[int] = []
    for v0 in range(n):
        if index[v0] != -1:
            continue
        work = [(v0, int(starts[v0]))]
        while work:
            v, pi = work[-1]
            if pi == starts[v]:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < ends[v]:
                w = int(bi[pi])
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, int(starts[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    members.append(w)
                    if w == v:
                        break
                comp[np.array(members)] = nodes[np.array(members)].min()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
    return pd.DataFrame({"node": nodes, "scc_id": comp})


def strongly_connected_components(
        edges: ray.data.Dataset, src: str = "src", dst: str = "dst",
        num_buckets: int = shuffle.DEFAULT_BUCKETS,
        max_rounds: int = 256) -> ray.data.Dataset:
    """SCCs of a DIRECTED graph: ``(node, scc_id)`` with
    ``scc_id = min node id in the component`` — the directed
    counterpart of ``connected_components``
    (reference consumes NetworkX ``strongly_connected_components``;
    this is from-scratch).

    Branch split, same contract as :func:`pagerank` /
    :func:`eccentricity` — graph tables are node/edge-scale, far
    smaller than the data they index:

    * Tarjan fits the driver budget (416 B per distinct edge): one
      distinct-edge collect, iterative Tarjan on the driver — exact,
      linear, no recursion.
    * otherwise: distributed forward–backward min-label peeling
      (Orzan; Slota et al.): repeat { forward-propagate min ancestor
      label to fixpoint (bucketed join + keyed min per round, labels
      monotone ↓ so an unchanged sum is the exact fixpoint); each
      color's root r (``label(r) = r``) anchors one SCC =
      same-colored nodes that reach r backwards (restricted reverse
      BFS); settle those, drop their rows, repeat }.  Rounds scale
      with the SCC condensation depth — fine for social/web-style
      graphs, worst-case linear on a pure chain (documented).
    """
    ed = shuffle.distinct(
        edges.map_batches(
            lambda b: pd.DataFrame({"s": b[src].to_numpy(np.int64),
                                    "d": b[dst].to_numpy(np.int64)}),
            batch_format="pandas"),
        ["s", "d"], num_buckets=num_buckets).materialize()

    # per edge: collect 16, concat and np.unique 32, ai/bi, their order
    # and sorted copies 40: 88; per node (at most 2 per edge) starts,
    # ends, index, low, comp 40 + the Python work/stack entries ~120:
    # 416 B per edge
    if fits_driver(ed.count() * 416):
        df = ed.to_pandas()
        if not len(df):
            return ray.data.from_pandas(pd.DataFrame(
                {"node": np.array([], np.int64),
                 "scc_id": np.array([], np.int64)}))
        return ray.data.from_pandas(
            _tarjan_scc_local(df["s"].to_numpy(np.int64),
                              df["d"].to_numpy(np.int64)))

    from city2graph_ray.joins import bucketed_join
    import pyarrow as pa
    i64 = pa.int64()

    def _nodes_of(e: ray.data.Dataset) -> ray.data.Dataset:
        both = e.map_batches(
            lambda b: pd.DataFrame(
                {"node": np.concatenate([b["s"].to_numpy(np.int64),
                                         b["d"].to_numpy(np.int64)])}),
            batch_format="pandas")
        return shuffle.distinct(both, ["node"], num_buckets=num_buckets)

    settled_parts: list[ray.data.Dataset] = []
    live = ed
    for _outer in range(max_rounds):
        nodes = _nodes_of(live).materialize()
        n_live = nodes.count()
        if n_live == 0:
            break
        # forward min-label fixpoint
        labels = nodes.map_batches(
            lambda b: pd.DataFrame({"node": b["node"],
                                    "lbl": b["node"]}),
            batch_format="pandas").materialize()
        prev_sum = labels.sum("lbl")
        for _inner in range(max_rounds):
            inc = bucketed_join(
                live.map_batches(lambda b: b.rename(columns={"s": "node"}),
                                 batch_format="pandas"),
                labels, on="node", num_buckets=num_buckets,
                left_schema=pa.schema([("node", i64), ("d", i64)]),
                right_schema=pa.schema([("node", i64), ("lbl", i64)]),
            ).map_batches(
                lambda b: pd.DataFrame({"node": b["d"], "lbl": b["lbl"]}),
                batch_format="pandas")
            labels = shuffle.group_agg(
                labels.union(inc), ["node"], {"lbl": ("lbl", "min")},
                num_buckets=num_buckets
            ).repartition(num_buckets).materialize()
            # repartition: iterative unions otherwise double the block
            # count every round (exponential per-block overhead)
            cur_sum = labels.sum("lbl")
            if cur_sum == prev_sum:
                break
            prev_sum = cur_sum
        # edge table annotated with both endpoint labels (same-color)
        elab = bucketed_join(
            bucketed_join(
                live, labels.map_batches(
                    lambda b: b.rename(columns={"node": "s",
                                                "lbl": "ls"}),
                    batch_format="pandas"),
                on="s", num_buckets=num_buckets,
                left_schema=pa.schema([("s", i64), ("d", i64)]),
                right_schema=pa.schema([("s", i64), ("ls", i64)])),
            labels.map_batches(
                lambda b: b.rename(columns={"node": "d", "lbl": "ld"}),
                batch_format="pandas"),
            on="d", num_buckets=num_buckets,
            left_schema=pa.schema([("s", i64), ("d", i64), ("ls", i64)]),
            right_schema=pa.schema([("d", i64), ("ld", i64)]),
        ).map_batches(
            lambda b: b.loc[b["ls"].to_numpy(np.int64)
                            == b["ld"].to_numpy(np.int64),
                            ["s", "d", "ls"]],
            batch_format="pandas").materialize()
        # reverse BFS from roots within color
        marked = labels.map_batches(
            lambda b: b.loc[b["node"].to_numpy(np.int64)
                            == b["lbl"].to_numpy(np.int64)],
            batch_format="pandas").materialize()
        m_cnt = marked.count()
        for _bfs in range(max_rounds):
            grow = bucketed_join(
                elab.map_batches(
                    lambda b: b.rename(columns={"d": "node"}),
                    batch_format="pandas"),
                marked, on="node", num_buckets=num_buckets,
                left_schema=pa.schema([("s", i64), ("node", i64),
                                       ("ls", i64)]),
                right_schema=pa.schema([("node", i64), ("lbl", i64)]),
            ).map_batches(
                lambda b: pd.DataFrame({"node": b["s"], "lbl": b["ls"]}),
                batch_format="pandas")
            marked = shuffle.distinct(
                marked.union(grow), ["node"], num_buckets=num_buckets
            ).repartition(num_buckets).materialize()
            new_cnt = marked.count()
            if new_cnt == m_cnt:
                break
            m_cnt = new_cnt
        settled_parts.append(marked.map_batches(
            lambda b: pd.DataFrame({"node": b["node"],
                                    "scc_id": b["lbl"]}),
            batch_format="pandas").materialize())
        # peel: drop settled nodes' rows from the live edge set
        live = bucketed_join(
            bucketed_join(
                live, marked.map_batches(
                    lambda b: pd.DataFrame({"s": b["node"],
                                            "ms": np.ones(len(b),
                                                          np.int64)}),
                    batch_format="pandas"),
                on="s", how="left", num_buckets=num_buckets,
                left_schema=pa.schema([("s", i64), ("d", i64)]),
                right_schema=pa.schema([("s", i64), ("ms", i64)])),
            marked.map_batches(
                lambda b: pd.DataFrame({"d": b["node"],
                                        "md": np.ones(len(b), np.int64)}),
                batch_format="pandas"),
            on="d", how="left", num_buckets=num_buckets,
            left_schema=pa.schema([("s", i64), ("d", i64), ("ms", i64)]),
            right_schema=pa.schema([("d", i64), ("md", i64)]),
        ).map_batches(
            lambda b: b.loc[b["ms"].isna() & b["md"].isna(), ["s", "d"]]
            .astype(np.int64),
            batch_format="pandas").repartition(num_buckets).materialize()
        # isolated-after-peel nodes (all their edges settled but they
        # were not marked) keep flowing: they reappear via live edges;
        # nodes with NO remaining edges and not marked are singleton
        # SCCs of the peeled graph — catch them by difference
        rest = _nodes_of(live)
        gone = bucketed_join(
            nodes, rest.map_batches(
                lambda b: pd.DataFrame({"node": b["node"],
                                        "keep": np.ones(len(b),
                                                        np.int64)}),
                batch_format="pandas"),
            on="node", how="left", num_buckets=num_buckets,
            left_schema=pa.schema([("node", i64)]),
            right_schema=pa.schema([("node", i64), ("keep", i64)]),
        ).map_batches(
            lambda b: b.loc[b["keep"].isna(), ["node"]].astype(np.int64),
            batch_format="pandas")
        lost = bucketed_join(
            gone, settled_parts[-1].map_batches(
                lambda b: pd.DataFrame({"node": b["node"],
                                        "st": np.ones(len(b), np.int64)}),
                batch_format="pandas"),
            on="node", how="left", num_buckets=num_buckets,
            left_schema=pa.schema([("node", i64)]),
            right_schema=pa.schema([("node", i64), ("st", i64)]),
        ).map_batches(
            lambda b: pd.DataFrame(
                {"node": b.loc[b["st"].isna(), "node"].to_numpy(np.int64),
                 "scc_id": b.loc[b["st"].isna(), "node"]
                 .to_numpy(np.int64)}),
            batch_format="pandas").materialize()
        if lost.count():
            settled_parts.append(lost)
    if not settled_parts:
        return ray.data.from_pandas(pd.DataFrame(
            {"node": np.array([], np.int64),
             "scc_id": np.array([], np.int64)}))
    out = settled_parts[0]
    for part in settled_parts[1:]:
        out = out.union(part)
    return out


def dyad_census(edges: ray.data.Dataset, src: str = "src",
                dst: str = "dst",
                num_buckets: int = shuffle.DEFAULT_BUCKETS,
                ) -> ray.data.Dataset:
    """Holland–Leinhardt dyad census of a simple digraph (public
    social-network-analysis literature): every unordered node pair is
    MUTUAL (both directions present), ASYMMETRIC (exactly one), or
    NULL.  Self-loops and duplicate arcs are dropped first.  Output:
    one row ``(n_nodes, n_mutual, n_asym, n_null)`` — all int64;
    ``n_null = C(n,2) - mutual - asym`` so only the present dyads are
    ever shuffled.

    Scale: one distinct on the arc key, one keyed count on the
    canonical pair key (mutual dyads are the pairs seen twice), one
    distinct-count for the node set — every exchange is keyed by a
    single 8/16-byte id, nothing is collected but four counters.
    """
    def arcs(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src].to_numpy()
        c = b[dst].to_numpy()
        keep = a != c
        return pd.DataFrame({"s": a[keep], "d": c[keep]})

    dedup = shuffle.distinct(
        edges.map_batches(arcs, batch_format="pandas"), ["s", "d"],
        num_buckets=num_buckets).materialize()

    pair_counts = shuffle.group_agg(
        dedup.map_batches(
            lambda b: pd.DataFrame({
                "a": np.minimum(b["s"].to_numpy(), b["d"].to_numpy()),
                "b": np.maximum(b["s"].to_numpy(), b["d"].to_numpy())}),
            batch_format="pandas"),
        ["a", "b"], {"n_dir": ("a", "size")}, num_buckets=num_buckets)
    # per-block partials of the two dyad classes, then one tiny sum
    kinds = shuffle.group_agg(
        pair_counts.map_batches(
            lambda b: pd.DataFrame({
                "k": np.zeros(1, np.int64),
                "mut": [int((b["n_dir"].to_numpy() == 2).sum())],
                "asym": [int((b["n_dir"].to_numpy() == 1).sum())]}),
            batch_format="pandas"),
        ["k"], {"n_mutual": ("mut", "sum"), "n_asym": ("asym", "sum")},
        num_buckets=1).to_pandas()

    n_nodes = shuffle.distinct(
        dedup.map_batches(
            lambda b: pd.DataFrame({"node": np.concatenate(
                [b["s"].to_numpy(), b["d"].to_numpy()])}),
            batch_format="pandas"),
        ["node"], num_buckets=num_buckets).count()

    mut = int(kinds["n_mutual"].iloc[0]) if len(kinds) else 0
    asym = int(kinds["n_asym"].iloc[0]) if len(kinds) else 0
    null = n_nodes * (n_nodes - 1) // 2 - mut - asym
    return ray.data.from_pandas(pd.DataFrame({
        "n_nodes": np.array([n_nodes], np.int64),
        "n_mutual": np.array([mut], np.int64),
        "n_asym": np.array([asym], np.int64),
        "n_null": np.array([null], np.int64)}))


def rich_club(edges: ray.data.Dataset, ks: "list[int]",
              src: str = "src", dst: str = "dst",
              num_buckets: int = shuffle.DEFAULT_BUCKETS,
              ) -> ray.data.Dataset:
    """Rich-club profile (Zhou & Mondragón 2004, public literature)
    of the undirected simplification: for each degree threshold ``k``,
    the number of nodes with degree > k and the number of edges with
    BOTH endpoints above the threshold.  Output rows
    ``(k, n_nodes, n_edges)`` int64, sorted by k — the float
    coefficient 2E/(N(N-1)) is left to the caller so the result stays
    all-integer.

    Scale: degrees are one keyed sum; endpoint degrees are attached by
    two bucketed joins (same machinery as triangle_count); the
    per-threshold counts are per-block partials over ONE pass of the
    joined edge list — len(ks) never multiplies the shuffle volume.
    """
    import pyarrow as pa

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src].to_numpy()
        c = b[dst].to_numpy()
        keep = a != c
        a, c = a[keep], c[keep]
        return pd.DataFrame({"a": np.minimum(a, c), "b": np.maximum(a, c)})

    und = shuffle.distinct(
        edges.map_batches(canon, batch_format="pandas"), ["a", "b"],
        num_buckets=num_buckets).materialize()

    deg = shuffle.group_agg(
        und.map_batches(
            lambda b: pd.DataFrame({"node": np.concatenate(
                [b["a"].to_numpy(), b["b"].to_numpy()])}),
            batch_format="pandas"),
        ["node"], {"deg": ("node", "size")},
        num_buckets=num_buckets).materialize()

    ks_arr = np.sort(np.asarray(ks, np.int64))

    def node_partial(b: pd.DataFrame) -> pd.DataFrame:
        d = b["deg"].to_numpy(np.int64)
        return pd.DataFrame({
            "k": ks_arr,
            "nn": [int((d > k).sum()) for k in ks_arr]})

    n_nodes_k = shuffle.group_agg(
        deg.map_batches(node_partial, batch_format="pandas"),
        ["k"], {"n_nodes": ("nn", "sum")}, num_buckets=1)

    i64 = pa.int64()
    with_da = bucketed_join(
        und,
        deg.map_batches(
            lambda b: pd.DataFrame({"a": b["node"].to_numpy(np.int64),
                                    "da": b["deg"].to_numpy(np.int64)}),
            batch_format="pandas"),
        on="a", num_buckets=num_buckets,
        left_schema=pa.schema([("a", i64), ("b", i64)]),
        right_schema=pa.schema([("a", i64), ("da", i64)]))
    with_db = bucketed_join(
        with_da,
        deg.map_batches(
            lambda b: pd.DataFrame({"b": b["node"].to_numpy(np.int64),
                                    "db": b["deg"].to_numpy(np.int64)}),
            batch_format="pandas"),
        on="b", num_buckets=num_buckets,
        left_schema=pa.schema([("a", i64), ("b", i64), ("da", i64)]),
        right_schema=pa.schema([("b", i64), ("db", i64)]))

    def edge_partial(b: pd.DataFrame) -> pd.DataFrame:
        lo = np.minimum(b["da"].to_numpy(np.int64),
                        b["db"].to_numpy(np.int64))
        return pd.DataFrame({
            "k": ks_arr,
            "ne": [int((lo > k).sum()) for k in ks_arr]})

    n_edges_k = shuffle.group_agg(
        with_db.map_batches(edge_partial, batch_format="pandas"),
        ["k"], {"n_edges": ("ne", "sum")}, num_buckets=1)

    out = bucketed_join(n_nodes_k, n_edges_k, on="k", num_buckets=1,
                        left_schema=pa.schema([("k", i64),
                                               ("n_nodes", i64)]),
                        right_schema=pa.schema([("k", i64),
                                                ("n_edges", i64)]))
    return out.map_batches(
        lambda b: b.sort_values("k")[["k", "n_nodes", "n_edges"]],
        batch_format="pandas")


def attack_robustness(edges: ray.data.Dataset, n_remove: int,
                      src: str = "src", dst: str = "dst",
                      num_buckets: int = shuffle.DEFAULT_BUCKETS,
                      ) -> ray.data.Dataset:
    """Targeted-attack robustness probe (Albert, Jeong & Barabási 2000,
    public literature): remove the ``n_remove`` highest-degree nodes of
    the undirected simplification (ties by smaller node id) and report
    the surviving giant-component size and total component count —
    singleton survivors (nodes whose every edge died) count as size-1
    components.  Output: one row
    ``(n_removed, giant_size, n_components)`` int64.

    Scale: degrees are one keyed sum; the removal set is ``n_remove``
    ids (per-block partial top-k then one tiny merge — never the
    degree table itself); the filtered edge set streams through a
    broadcast membership check; components are the large-star /
    small-star rounds of :func:`connected_components`."""
    from city2graph_ray.ops.topology import connected_components

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src].to_numpy()
        c = b[dst].to_numpy()
        keep = a != c
        a, c = a[keep], c[keep]
        return pd.DataFrame({"a": np.minimum(a, c), "b": np.maximum(a, c)})

    und = shuffle.distinct(
        edges.map_batches(canon, batch_format="pandas"), ["a", "b"],
        num_buckets=num_buckets).materialize()

    deg = shuffle.group_agg(
        und.map_batches(
            lambda b: pd.DataFrame({"node": np.concatenate(
                [b["a"].to_numpy(), b["b"].to_numpy()])}),
            batch_format="pandas"),
        ["node"], {"deg": ("node", "size")},
        num_buckets=num_buckets).materialize()

    def block_topk(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["deg", "node"],
                             ascending=[False, True]).head(n_remove)

    removed = (deg.map_batches(block_topk, batch_format="pandas")
               .to_pandas()
               .sort_values(["deg", "node"], ascending=[False, True])
               .head(n_remove))
    removed_set = set(removed["node"].tolist())
    removed_ref = ray.put(np.array(sorted(removed_set), np.int64))

    def survive(b: pd.DataFrame) -> pd.DataFrame:
        rm = ray.get(removed_ref)
        keep = (~np.isin(b["a"].to_numpy(), rm)
                & ~np.isin(b["b"].to_numpy(), rm))
        out = b[keep]
        return pd.DataFrame({"src": out["a"].to_numpy(),
                             "dst": out["b"].to_numpy()})

    kept_edges = und.map_batches(survive, batch_format="pandas")
    comp = connected_components(kept_edges)
    sizes = shuffle.group_agg(comp, ["component"],
                              {"sz": ("component", "size")},
                              num_buckets=num_buckets)
    summ = shuffle.group_agg(
        sizes.map_batches(
            lambda b: pd.DataFrame({
                "k": np.zeros(1, np.int64),
                "mx": [int(b["sz"].max()) if len(b) else 0],
                "nc": [len(b)],
                "nn": [int(b["sz"].sum()) if len(b) else 0]}),
            batch_format="pandas"),
        ["k"], {"giant": ("mx", "max"), "ncomp": ("nc", "sum"),
                "nconn": ("nn", "sum")}, num_buckets=1).to_pandas()

    n_nodes = deg.count()
    giant = int(summ["giant"].iloc[0]) if len(summ) else 0
    ncomp = int(summ["ncomp"].iloc[0]) if len(summ) else 0
    nconn = int(summ["nconn"].iloc[0]) if len(summ) else 0
    singletons = (n_nodes - len(removed_set)) - nconn
    giant = max(giant, 1 if singletons > 0 else 0)
    return ray.data.from_pandas(pd.DataFrame({
        "n_removed": np.array([len(removed_set)], np.int64),
        "giant_size": np.array([giant], np.int64),
        "n_components": np.array([ncomp + singletons], np.int64)}))


def condensation_edges(edges: ray.data.Dataset, src: str = "src",
                       dst: str = "dst",
                       num_buckets: int = shuffle.DEFAULT_BUCKETS,
                       ) -> ray.data.Dataset:
    """Condensation DAG of a digraph: one edge (scc_src → scc_dst) per
    pair of DISTINCT strongly connected components joined by at least
    one original arc.  Output ``(scc_src, scc_dst)`` int64 — acyclic
    by construction (standard condensation result).

    Scale: SCC labels come from
    :func:`strongly_connected_components`; the label table is joined
    onto each endpoint with two bucketed hash joins keyed by node id,
    then one distinct on the (scc_src, scc_dst) pair — no driver
    collection anywhere."""
    import pyarrow as pa

    scc = strongly_connected_components(edges).materialize()
    i64 = pa.int64()

    arcs = edges.map_batches(
        lambda b: pd.DataFrame({"s": b[src].to_numpy(np.int64),
                                "d": b[dst].to_numpy(np.int64)}),
        batch_format="pandas").materialize()

    # per arc: collect 16, relabeled ss/dd 16, mask and output frame 24,
    # drop_duplicates' hashing ~40: 96; per node the label frame 16 and
    # the boxed-int dict and its Series ~164: 180
    if fits_driver(arcs.count() * 96 + scc.count() * 180):
        # driver fast path (hits/CC pattern): relabel + distinct in
        # pandas — same (scc_src, scc_dst) pair set as the two
        # bucketed joins + distinct below (parity-tested)
        adf = arcs.to_pandas()
        sdf = scc.to_pandas()
        lab = dict(zip(sdf["node"].to_numpy(np.int64),
                       sdf["scc_id"].to_numpy(np.int64)))
        ss = adf["s"].map(lab).to_numpy(np.int64)
        dd = adf["d"].map(lab).to_numpy(np.int64)
        m = ss != dd
        out = (pd.DataFrame({"scc_src": ss[m], "scc_dst": dd[m]})
               .drop_duplicates().reset_index(drop=True))
        # typed Arrow block so an all-in-one-SCC (empty) result keeps
        # its schema through downstream unions/joins
        return ray.data.from_arrow(pa.table({
            "scc_src": pa.array(out["scc_src"].to_numpy(np.int64)),
            "scc_dst": pa.array(out["scc_dst"].to_numpy(np.int64))}))
    j1 = bucketed_join(
        arcs,
        scc.map_batches(
            lambda b: pd.DataFrame({"s": b["node"].to_numpy(np.int64),
                                    "scc_src": b["scc_id"]
                                    .to_numpy(np.int64)}),
            batch_format="pandas"),
        on="s", num_buckets=num_buckets,
        left_schema=pa.schema([("s", i64), ("d", i64)]),
        right_schema=pa.schema([("s", i64), ("scc_src", i64)]))
    j2 = bucketed_join(
        j1,
        scc.map_batches(
            lambda b: pd.DataFrame({"d": b["node"].to_numpy(np.int64),
                                    "scc_dst": b["scc_id"]
                                    .to_numpy(np.int64)}),
            batch_format="pandas"),
        on="d", num_buckets=num_buckets,
        left_schema=pa.schema([("s", i64), ("d", i64),
                               ("scc_src", i64)]),
        right_schema=pa.schema([("d", i64), ("scc_dst", i64)]))
    pairs = j2.map_batches(
        lambda b: b.loc[b["scc_src"].to_numpy(np.int64)
                        != b["scc_dst"].to_numpy(np.int64),
                        ["scc_src", "scc_dst"]],
        batch_format="pandas")
    return shuffle.distinct(pairs, ["scc_src", "scc_dst"],
                            num_buckets=num_buckets)


def katz_walk_counts(edges: ray.data.Dataset, rounds: int = 3,
                     beta_den: int = 3, src: str = "src",
                     dst: str = "dst",
                     num_buckets: int = shuffle.DEFAULT_BUCKETS,
                     ) -> ray.data.Dataset:
    """Katz-style centrality as EXACT integer walk counts: per node v,
    ``katz_num(v) = Σ_{k=1..rounds} beta_den^(rounds-k) · w_k(v)`` where
    ``w_k(v)`` is the number of directed walks of length k ending at v
    — i.e. the Katz sum with attenuation ``β = 1/beta_den``, scaled by
    ``beta_den^rounds`` so no float ever appears (int64 overflow is the
    caller's bound: counts grow like (max in-degree)^rounds).

    Distributed shape: ``w_1`` is the in-degree keyed sum;
    each further round is ONE bucketed hash join (walk table → edges on
    ``src``) plus one keyed sum to ``dst`` — the walk table is
    node-sized and object-store-resident between rounds, the edge table
    is pinned once and re-read per round (same device as pagerank's
    join rounds above).  Every shuffle reuses the node id key.
    """
    import pyarrow as pa

    if rounds < 1:
        raise ValueError("rounds >= 1")
    e = edges.map_batches(
        lambda b: pd.DataFrame({"src": b[src].to_numpy(np.int64),
                                "dst": b[dst].to_numpy(np.int64)}),
        batch_format="pandas").materialize()

    i64 = pa.int64()
    w = shuffle.group_agg(
        _node_column(e, "dst"), ["node"], {"w": ("node", "size")},
        num_buckets=num_buckets).materialize()
    per_round = [w]
    for _ in range(rounds - 1):
        nxt = bucketed_join(
            e, w.map_batches(
                lambda b: b.rename(columns={"node": "src"}),
                batch_format="pandas"),
            on="src", num_buckets=num_buckets,
            left_schema=pa.schema([("src", i64), ("dst", i64)]),
            right_schema=pa.schema([("src", i64), ("w", i64)]))
        w = shuffle.group_agg(
            nxt.map_batches(
                lambda b: pd.DataFrame({"node": b["dst"].to_numpy(np.int64),
                                        "w": b["w"].to_numpy(np.int64)}),
                batch_format="pandas"),
            ["node"], {"w": ("w", "sum")},
            num_buckets=num_buckets).materialize()
        per_round.append(w)

    # katz_num = Σ beta_den^(rounds-k) · w_k — node-keyed sum over the
    # union of the (tiny, node-sized) per-round tables
    parts = []
    for k, wk in enumerate(per_round, start=1):
        scale = beta_den ** (rounds - k)
        parts.append(wk.map_batches(
            lambda b, s=scale: pd.DataFrame({
                "node": b["node"].to_numpy(np.int64),
                "katz_num": b["w"].to_numpy(np.int64) * np.int64(s)}),
            batch_format="pandas"))
    u = parts[0]
    for p in parts[1:]:
        u = u.union(p)
    return shuffle.group_agg(u, ["node"], {"katz_num": ("katz_num", "sum")},
                             num_buckets=num_buckets)


def circuit_rank(edges: ray.data.Dataset, src: str = "src",
                 dst: str = "dst",
                 num_buckets: int = shuffle.DEFAULT_BUCKETS,
                 ) -> ray.data.Dataset:
    """Cycle-space dimension of the undirected simple graph:
    ``circuit_rank = m − n + c`` (edges − nodes + connected
    components).  One distinct pass for m, one for n, and the
    large-star/small-star component labelling for c — all counts are
    scalar folds of per-block partials; nothing node-sized reaches the
    driver.  Output: one row (m, n, c, circuit_rank)."""
    from city2graph_ray.ops.topology import connected_components

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src].to_numpy(np.int64)
        d = b[dst].to_numpy(np.int64)
        m = a != d  # self-loops contribute no cycle-space dimension here
        lo, hi = np.minimum(a[m], d[m]), np.maximum(a[m], d[m])
        return pd.DataFrame({"src": lo, "dst": hi})

    und = shuffle.distinct(
        edges.map_batches(canon, batch_format="pandas"), ["src", "dst"],
        num_buckets=num_buckets).materialize()
    m = und.count()
    comp = connected_components(und)
    n = comp.count()
    c = shuffle.distinct(comp.map_batches(
        lambda b: pd.DataFrame({"component": b["component"]}),
        batch_format="pandas"), ["component"],
        num_buckets=num_buckets).count()
    return ray.data.from_pandas(pd.DataFrame({
        "m": [np.int64(m)], "n": [np.int64(n)], "c": [np.int64(c)],
        "circuit_rank": [np.int64(m - n + c)]}))


def khop_ball_sizes(edges: ray.data.Dataset, hops: int = 2,
                    ) -> ray.data.Dataset:
    """k-hop neighbourhood (ball) size per node over a directed edge
    list — the classic local-expansion graph feature (distinct nodes
    reachable in ≤ ``hops`` steps, self excluded).

    Distributed shape: frontier widening by repeated bucketed hash
    joins on the hop boundary (reachable ⋈ edges on the frontier
    node), a distinct shuffle per round to collapse multiplicity
    (keeps each round's table ≤ nodes × reach, never path counts),
    and ONE keyed count at the end.  Exactness: pure int64 set
    algebra.  Output ``(node, ball_size)`` int64, only nodes with
    outgoing reach.
    """
    from city2graph_ray import shuffle
    from city2graph_ray.joins import bucketed_join

    import pyarrow as pa

    pair_schema = pa.schema([("root", pa.int64()), ("cur", pa.int64())])
    reach = shuffle.distinct(
        edges.map_batches(
            lambda b: pd.DataFrame({
                "root": b["src"].to_numpy(np.int64),
                "cur": b["dst"].to_numpy(np.int64)}),
            batch_format="pandas"), ["root", "cur"])
    frontier = reach
    for _ in range(hops - 1):
        ext = bucketed_join(
            frontier.map_batches(
                lambda b: b.rename(columns={"cur": "src"}),
                batch_format="pandas"),
            edges.map_batches(
                lambda b: pd.DataFrame({
                    "src": b["src"].to_numpy(np.int64),
                    "nxt": b["dst"].to_numpy(np.int64)}),
                batch_format="pandas"), on="src",
            left_schema=pa.schema([("root", pa.int64()),
                                   ("src", pa.int64())]),
            right_schema=pa.schema([("src", pa.int64()),
                                    ("nxt", pa.int64())]))
        frontier = shuffle.distinct(
            ext.map_batches(
                lambda b: pd.DataFrame({
                    "root": b["root"].to_numpy(np.int64),
                    "cur": b["nxt"].to_numpy(np.int64)}),
                batch_format="pandas"), ["root", "cur"])
        reach = shuffle.distinct(reach.union(frontier),
                                 ["root", "cur"])

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["root"].to_numpy(np.int64)
              != b["cur"].to_numpy(np.int64)]
        g = b.groupby("root", sort=False).size().reset_index(name="n")
        return pd.DataFrame({"node": g["root"].to_numpy(np.int64),
                             "ball_size": g["n"].to_numpy(np.int64)})

    return shuffle.group_agg(
        reach.map_batches(count_partial, batch_format="pandas"),
        ["node"], {"ball_size": ("ball_size", "sum")}, num_buckets=1)


def hash_walks(edges: ray.data.Dataset, seed_mod: int, length: int,
               num_buckets: int = shuffle.DEFAULT_BUCKETS,
               ) -> ray.data.Dataset:
    """Deterministic DeepWalk-style corpus generation (Perozzi et al.
    2014 semantics, public literature) with hash-driven choices so the
    SQL twin is bit-exact: one walk per seed node (``node % seed_mod
    == 0``); at step ``t`` on node ``v`` the walk moves to
    ``sorted_neighbors(v)[ md5_lower64(f"{walk}|{t}|{v}") % deg(v) ]``
    (DuckDB ``md5_number_lower`` convention).  Undirected adjacency.
    Output ``(walk_id, step, node)`` including step 0.

    Distributed shape: each step is ONE hash shuffle of the tagged
    union (adjacency rows + walk-frontier rows, all-int64 sentinel
    columns — no nulls cross the exchange); the kernel derives degree,
    neighbour rank and the hash pick in place, so no adjacency
    broadcast, no precomputed rank table, and one row per walk per
    step of fan-out.  The adjacency does reshuffle once per step —
    inherent to expressing a stateful frontier in pure Dataset ops;
    an actor pool pinning sharded adjacency is the constant-factor
    alternative when steps ≫ 10.
    """
    from city2graph_ray.text.decontam import _md5_lower64

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        s = b["src"].to_numpy(np.int64)
        d = b["dst"].to_numpy(np.int64)
        m = s != d
        return pd.DataFrame({
            "v": np.concatenate([s[m], d[m]]),
            "nb": np.concatenate([d[m], s[m]])})

    und = shuffle.distinct(
        edges.map_batches(canon, batch_format="pandas"), ["v", "nb"],
        num_buckets=num_buckets)
    adj = und.map_batches(
        lambda b: pd.DataFrame({"v": b["v"].to_numpy(np.int64),
                                "nb": b["nb"].to_numpy(np.int64),
                                "walk_id": np.full(len(b), -1,
                                                   np.int64)}),
        batch_format="pandas").materialize()

    frontier = shuffle.distinct(
        adj.map_batches(
            lambda b: pd.DataFrame(
                {"v": b["v"].to_numpy(np.int64),
                 "nb": np.full(len(b), -1, np.int64),
                 "walk_id": b["v"].to_numpy(np.int64)})
            [b["v"].to_numpy(np.int64) % seed_mod == 0],
            batch_format="pandas"),
        ["walk_id"], num_buckets=num_buckets)

    def emit(step: int):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "walk_id": b["walk_id"].to_numpy(np.int64),
                "step": np.full(len(b), step, np.int64),
                "node": b["v"].to_numpy(np.int64)})
        return fn

    out_parts = [frontier.map_batches(emit(0), batch_format="pandas")]
    for t in range(length):
        def step_kernel(g: pd.DataFrame, t=t) -> pd.DataFrame:
            fr = g[g["nb"] < 0]
            ad = g[g["nb"] >= 0].sort_values(["v", "nb"],
                                             kind="stable")
            if not len(fr):
                return pd.DataFrame({"v": np.zeros(0, np.int64),
                                     "nb": np.zeros(0, np.int64),
                                     "walk_id": np.zeros(0, np.int64)})
            va = ad["v"].to_numpy(np.int64)
            nba = ad["nb"].to_numpy(np.int64)
            uniq, starts, sizes = np.unique(va, return_index=True,
                                            return_counts=True)
            fv = fr["v"].to_numpy(np.int64)
            fw = fr["walk_id"].to_numpy(np.int64)
            idx = np.searchsorted(uniq, fv)
            keys = np.char.add(
                np.char.add(fw.astype("U20"), f"|{t}|"),
                fv.astype("U20"))
            h = _md5_lower64(keys)
            pick = starts[idx] + (
                h % sizes[idx].astype(np.uint64)).astype(np.int64)
            return pd.DataFrame({"v": nba[pick],
                                 "nb": np.full(len(fw), -1, np.int64),
                                 "walk_id": fw})

        tagged = adj.union(frontier)
        frontier = shuffle.grouped_transform(
            tagged, ["v"], step_kernel,
            num_buckets=num_buckets).materialize()
        out_parts.append(frontier.map_batches(emit(t + 1),
                                              batch_format="pandas"))

    out = out_parts[0]
    for p in out_parts[1:]:
        out = out.union(p)
    return out


def dag_longest_path(edges: ray.data.Dataset, rounds: int = 12,
                     src: str = "src", dst: str = "dst",
                     num_buckets: int = shuffle.DEFAULT_BUCKETS,
                     ) -> ray.data.Dataset:
    """Longest-path-ending-at-each-node over a DAG (critical-path /
    topological-depth — the classic scheduling metric) by ``rounds``
    max-relaxation sweeps: ``d_{r+1}[v] = max(d_r[v], max_{u→v}
    d_r[u] + 1)`` from ``d_0 ≡ 0``.  Converges once ``rounds`` ≥ DAG
    depth; bounded and unrolled identically in the SQL twin, so the
    output is deterministic either way.  Output ``(node, depth)``.

    Distributed shape: the label table is node-sized and carried as a
    Dataset; each sweep is one bucketed edge⋈label join keyed by the
    edge SOURCE plus one keyed max — the same frontier-join pattern
    as the k-hop balls.  Cycles would make the relaxation climb
    forever; feed condensation output (acyclic by construction).
    """
    import pyarrow as pa

    nodes = shuffle.distinct(
        edges.map_batches(
            lambda b: pd.DataFrame({"node": np.concatenate(
                [b[src].to_numpy(np.int64),
                 b[dst].to_numpy(np.int64)])}),
            batch_format="pandas"),
        ["node"], num_buckets=num_buckets)

    edges = edges.materialize()
    # the collected edge frame as stored, plus per edge si/di 16 and a
    # round's depth[si] + 1 8, and per node (at most 2 per edge) the
    # node collect, nid, depth and nxt 32: 88 B per edge
    if fits_driver(edges.size_bytes() + edges.count() * 88):
        # driver fast path (pagerank/k-core/hits pattern): the max
        # recurrence is order-free integers, so np.maximum.at rounds
        # are BIT-IDENTICAL to the bucketed-join sweeps (parity test)
        edf = edges.to_pandas()
        nid = np.sort(nodes.to_pandas()["node"].to_numpy(np.int64))
        si = np.searchsorted(nid, edf[src].to_numpy(np.int64))
        di = np.searchsorted(nid, edf[dst].to_numpy(np.int64))
        depth = np.zeros(len(nid), np.int64)
        for _ in range(rounds):
            nxt = depth.copy()
            np.maximum.at(nxt, di, depth[si] + 1)
            depth = nxt
        return ray.data.from_arrow(pa.table({
            "node": pa.array(nid, pa.int64()),
            "depth": pa.array(depth, pa.int64())}))

    dist = nodes.map_batches(
        lambda b: pd.DataFrame({"node": b["node"].to_numpy(np.int64),
                                "depth": np.zeros(len(b), np.int64)}),
        batch_format="pandas").materialize()
    e = edges.map_batches(
        lambda b: pd.DataFrame({"node": b[src].to_numpy(np.int64),
                                "to": b[dst].to_numpy(np.int64)}),
        batch_format="pandas").materialize()
    dist_schema = pa.schema([("node", pa.int64()),
                             ("depth", pa.int64())])
    for _ in range(rounds):
        cand = bucketed_join(e, dist, "node",
                             num_buckets=num_buckets,
                             right_schema=dist_schema).map_batches(
            lambda b: pd.DataFrame({
                "node": b["to"].to_numpy(np.int64),
                "depth": b["depth"].to_numpy(np.int64) + 1}),
            batch_format="pandas")
        # coalesce before pinning: the union-groupby chain otherwise
        # doubles the label table's block count every sweep (109 →
        # 2299 blocks by round 4 on the gate fixture — task-count
        # explosion), while the row count stays node-sized
        dist = (shuffle.group_agg(dist.union(cand), ["node"],
                                  {"depth": ("depth", "max")},
                                  num_buckets=num_buckets)
                .repartition(min(num_buckets, 16)).materialize())
    return dist


def markov_power(edges: ray.data.Dataset, iters: int = 4,
                 src: str = "src", dst: str = "dst", w: str = "w",
                 round_iter: int = 10, round_to: int = 6,
                 num_buckets: int = shuffle.DEFAULT_BUCKETS,
                 ) -> ray.data.Dataset:
    """Markov-chain state distribution after ``iters`` steps of the
    row-stochastic transition matrix built from integer edge weights
    (``P_ij = w_ij / Σ_j w_ij``), from the uniform start — the
    power-iteration approximation of the stationary distribution.
    Per-iteration rounding to ``round_iter`` decimals quenches float
    association-order divergence between the driver path (``np.add.at``
    in edge order), the distributed rounds (group_agg partial sums)
    and the SQL twin (the pagerank rounding contract).  As with
    pagerank, this is a rounding contract, not a guarantee: a partial
    sum landing within ~1e-16 of a round_iter boundary could still
    round differently across association orders (never observed at
    the gate; the int64 recurrences in hits/dag_longest_path are the
    order-free alternatives when a hard guarantee is needed).  States
    with no in-edges decay to 0 (no teleport floor).  Output
    ``(node, prob)`` rounded to ``round_to``.

    Distributed shape per iteration: one bucketed join of the edge
    stream against the state-sized probability table keyed by
    ``src`` + one keyed sum by ``dst`` — identical to pagerank's
    join rounds; works unchanged from a 6-state event-type chain
    to a billion-state click graph."""
    import pyarrow as pa

    nodes = shuffle.distinct(
        edges.map_batches(
            lambda b: pd.DataFrame({"node": np.concatenate(
                [b[src].to_numpy(), b[dst].to_numpy()])}),
            batch_format="pandas"),
        ["node"], num_buckets=num_buckets).materialize()
    n = nodes.count()
    if n == 0:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], pa.string()),
            "prob": pa.array([], pa.float64())}))
    edges = edges.materialize()
    # the collected edge frame as stored, plus per edge the endpoint
    # concat, pd.unique's hash table and sort 40, si/di 16, ww, ratio
    # and dw[si] 24, a round's ratio * pr[si] 16, and per node (at most
    # 2 per edge) dw, pr and s 48: 144 B per edge
    if fits_driver(edges.size_bytes() + edges.count() * 144):
        # driver fast path (hits/pagerank pattern): identical ratio
        # division, per-iteration round_iter rounding quenches the
        # only float-association surface (gate re-verified bit-exact;
        # parity test vs the distributed rounds)
        edf = edges.to_pandas()
        sv = edf[src].to_numpy()
        dv = edf[dst].to_numpy()
        nid = pd.unique(np.concatenate([sv, dv]))
        nid = np.sort(nid)
        si = np.searchsorted(nid, sv)
        di = np.searchsorted(nid, dv)
        ww = edf[w].to_numpy(np.int64)
        dw = np.zeros(len(nid), np.int64)
        np.add.at(dw, si, ww)
        ratio = ww / dw[si]
        pr = np.full(len(nid), round(1.0 / n, round_iter))
        for _ in range(iters):
            s = np.zeros(len(nid), np.float64)
            np.add.at(s, di, ratio * pr[si])
            pr = np.round(s, round_iter)
        return ray.data.from_pandas(pd.DataFrame({
            "node": nid, "prob": np.round(pr, round_to)}))

    deg = shuffle.group_agg(
        edges.map_batches(
            lambda b: pd.DataFrame({src: b[src],
                                    "dw": b[w].to_numpy(np.int64)}),
            batch_format="pandas"),
        [src], {"dw": ("dw", "sum")}, num_buckets=num_buckets)
    ew = bucketed_join(
        edges.map_batches(
            lambda b: pd.DataFrame({src: b[src], dst: b[dst],
                                    "w": b[w].to_numpy(np.int64)}),
            batch_format="pandas"),
        deg, src, num_buckets=num_buckets).map_batches(
        lambda b: pd.DataFrame({
            "node": b[src], dst: b[dst],
            "ratio": b["w"].to_numpy(np.int64)
            / b["dw"].to_numpy(np.int64)}),
        batch_format="pandas").materialize()

    prob = nodes.map_batches(
        lambda b: pd.DataFrame({"node": b["node"],
                                "r": np.full(len(b),
                                             round(1.0 / n,
                                                   round_iter))}),
        batch_format="pandas").materialize()
    for _ in range(iters):
        contrib = bucketed_join(ew, prob, "node",
                                num_buckets=num_buckets).map_batches(
            lambda b: pd.DataFrame({
                "node": b[dst],
                "s": b["ratio"].to_numpy(np.float64)
                * b["r"].to_numpy(np.float64)}),
            batch_format="pandas")
        sums = shuffle.group_agg(contrib, ["node"],
                                 {"s": ("s", "sum")},
                                 num_buckets=num_buckets)
        # schema().types may be numpy dtypes on pandas-block datasets
        ntype = pa.string()
        for name, typ in zip(edges.schema().names,
                             edges.schema().types):
            if name == src:
                if isinstance(typ, pa.DataType):
                    ntype = typ
                else:
                    try:
                        dt = np.dtype(typ)
                        ntype = (pa.string() if dt == object
                                 else pa.from_numpy_dtype(dt))
                    except TypeError:
                        ntype = pa.string()
        s_schema = pa.schema([("node", ntype), ("s", pa.float64())])
        prob = (bucketed_join(nodes, sums, "node",
                              num_buckets=num_buckets, how="left",
                              right_schema=s_schema)
                .map_batches(
            lambda b: pd.DataFrame({
                "node": b["node"],
                "r": np.round(np.nan_to_num(
                    b["s"].to_numpy(np.float64)), round_iter)}),
            batch_format="pandas")
            .repartition(min(num_buckets, 16)).materialize())
    return prob.map_batches(
        lambda b: pd.DataFrame({
            "node": b["node"],
            "prob": np.round(b["r"].to_numpy(np.float64), round_to)}),
        batch_format="pandas")


def bowtie_structure(edges: ray.data.Dataset, rounds: int = 12,
                     src: str = "src", dst: str = "dst",
                     num_buckets: int = shuffle.DEFAULT_BUCKETS,
                     ) -> pd.DataFrame:
    """Web-graph bow-tie decomposition (Broder et al. 2000, public
    literature): CORE = the largest SCC (ties → smallest scc_id), IN =
    nodes reaching the core within ``rounds`` forward hops (excluding
    it), OUT = nodes the core reaches within ``rounds`` (excluding
    it), TENDRILS+DISCONNECTED = the rest.  Bounded-round BFS on both
    sides (unrolled identically in the SQL twin, so the split is
    deterministic even unconverged).  Output one row
    ``(n_core, n_in, n_out, n_other, core_id)``.

    Distributed shape: SCC labels (driver Tarjan when it fits the
    budget, FW-BW otherwise), one keyed count for the largest SCC,
    then per round ONE frontier⋈edges bucketed join + distinct per
    direction —
    frontier tables are node-sized; nothing but five scalars reaches
    the driver."""
    import pyarrow as pa

    labels = strongly_connected_components(
        edges, src=src, dst=dst,
        num_buckets=num_buckets).materialize()
    sizes = shuffle.group_agg(
        labels.map_batches(
            lambda b: pd.DataFrame({"scc_id": b["scc_id"],
                                    "n": np.ones(len(b), np.int64)}),
            batch_format="pandas"),
        ["scc_id"], {"n": ("n", "sum")},
        num_buckets=num_buckets).to_pandas()
    if len(sizes) == 0:  # empty edge input (ADVICE r3): zeros row
        return pd.DataFrame({
            "n_core": np.array([0], np.int64),
            "n_in": np.array([0], np.int64),
            "n_out": np.array([0], np.int64),
            "n_other": np.array([0], np.int64),
            "core_id": np.array([-1], np.int64)})
    sizes = sizes.sort_values(["n", "scc_id"],
                              ascending=[False, True])
    core_id = int(sizes["scc_id"].iloc[0])
    n_core = int(sizes["n"].iloc[0])
    n_total = int(sizes["n"].sum())

    core = labels.filter(lambda r: r["scc_id"] == core_id) \
        .map_batches(lambda b: pd.DataFrame(
            {"node": b["node"].to_numpy(np.int64)}),
            batch_format="pandas").materialize()
    e = edges.map_batches(
        lambda b: pd.DataFrame({"u": b[src].to_numpy(np.int64),
                                "v": b[dst].to_numpy(np.int64)}),
        batch_format="pandas").materialize()
    node_schema = pa.schema([("node", pa.int64())])

    # collect 16 + endpoint concat and np.unique 32 + ui/vi 16 + a
    # sweep's reach[si] mask and di gather 16 + node vectors 16: 96 B
    if fits_driver(e.count() * 96):
        # driver fast path (hits/dag pattern): bounded-round boolean
        # BFS over the collected int64 edge list is set-identical to
        # the union+distinct sweeps (counts parity-tested)
        edf = e.to_pandas()
        cu = core.to_pandas()["node"].to_numpy(np.int64)
        nid = np.unique(np.concatenate(
            [edf["u"].to_numpy(np.int64), edf["v"].to_numpy(np.int64), cu]))
        ui = np.searchsorted(nid, edf["u"].to_numpy(np.int64))
        vi = np.searchsorted(nid, edf["v"].to_numpy(np.int64))
        ci = np.searchsorted(nid, cu)

        def np_sweep(si: np.ndarray, di: np.ndarray) -> int:
            reach = np.zeros(len(nid), bool)
            reach[ci] = True
            for _ in range(rounds):
                nxt = reach.copy()
                nxt[di[reach[si]]] = True
                if (nxt == reach).all():
                    break
                reach = nxt
            return int(reach.sum())

        n_out = np_sweep(ui, vi) - n_core
        n_in = np_sweep(vi, ui) - n_core
        n_other = n_total - n_core - n_in - n_out
        return pd.DataFrame({
            "n_core": np.array([n_core], np.int64),
            "n_in": np.array([n_in], np.int64),
            "n_out": np.array([n_out], np.int64),
            "n_other": np.array([n_other], np.int64),
            "core_id": np.array([core_id], np.int64)})

    def sweep(forward: bool) -> int:
        reach = core
        for _ in range(rounds):
            if forward:
                probe = e.map_batches(
                    lambda b: pd.DataFrame({"node": b["u"],
                                            "nxt": b["v"]}),
                    batch_format="pandas")
            else:
                probe = e.map_batches(
                    lambda b: pd.DataFrame({"node": b["v"],
                                            "nxt": b["u"]}),
                    batch_format="pandas")
            stepped = bucketed_join(
                probe, reach, "node", num_buckets=num_buckets,
                right_schema=node_schema).map_batches(
                lambda b: pd.DataFrame({"node": b["nxt"]
                                        .to_numpy(np.int64)}),
                batch_format="pandas")
            reach = shuffle.distinct(
                reach.union(stepped), ["node"],
                num_buckets=num_buckets).repartition(
                min(num_buckets, 8)).materialize()
        return reach.count()

    n_out = sweep(True) - n_core
    n_in = sweep(False) - n_core
    n_other = n_total - n_core - n_in - n_out
    return pd.DataFrame({
        "n_core": np.array([n_core], np.int64),
        "n_in": np.array([n_in], np.int64),
        "n_out": np.array([n_out], np.int64),
        "n_other": np.array([n_other], np.int64),
        "core_id": np.array([core_id], np.int64)})
