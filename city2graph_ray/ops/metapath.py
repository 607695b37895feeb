"""Metapath composition — multi-hop typed-edge joins.

Reference semantics (/root/reference/city2graph/metapath.py):
``add_metapaths`` :40-166/:662-1000 — compose a sequence of edge tables
by joining hop i's dst to hop i+1's src (:758-769), then aggregate per
terminal (src, dst) pair: weight = path count, per-path attribute
reduction sum/mean/callable (:479-605, :943-1000).
``add_metapaths_by_weight`` :169-312 — same-type pairs within a
shortest-path cost band via multi-source Dijkstra over a broadcast CSR
graph.

Engine shape: iterated partitioned hash joins (the classic distributed
multi-hop), each hop key-partitioned on the shared node id; terminal
aggregation is a partial+final groupby.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data

from city2graph_ray import shuffle
from city2graph_ray.joins import broadcast_map, bucketed_join
from city2graph_ray.ops.network import nx_graph


def add_metapaths(
    hops: list[ray.data.Dataset],
    attr_cols: tuple[str, ...] = (),
    agg="sum",
    undirected: bool = False,
    round_to: int = 6,
) -> ray.data.Dataset:
    """Compose ≥2 edge tables into terminal (src, dst) metapath edges.

    Each hop Dataset has (src, dst) plus optional numeric attr columns.
    Per path, each attr is summed across hops; per terminal pair, paths
    reduce by ``agg`` ('sum' | 'mean' | callable(np.ndarray)->float,
    the reference's pluggable reducer, metapath.py:429-476) and
    ``weight`` = number of distinct paths.

    ``undirected=True`` reproduces the reference's path-level dedup
    (metapath.py:956-991, canonicalize :1023-1090): the full node
    sequence of each path is canonicalized (forward vs reversed, lexmin)
    and duplicate signatures collapse to one path BEFORE terminal
    aggregation; terminal pairs are unordered (src ≤ dst).
    Output: (src, dst, weight, <attr>_{agg} ...)."""
    if len(hops) < 2:
        raise ValueError("metapath needs >= 2 hops")
    L = len(hops)

    def project(i: int, ds: ray.data.Dataset) -> ray.data.Dataset:
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame({f"n{i}": batch["src"].to_numpy(),
                                f"n{i+1}": batch["dst"].to_numpy()})
            for a in attr_cols:
                out[f"a{i}_{a}"] = (batch[a].to_numpy(np.float64)
                                    if a in batch else 0.0)
            return out
        return ds.map_batches(fn, batch_format="pandas")

    cur = project(0, hops[0])
    for i in range(1, L):
        nxt = project(i, hops[i])
        cur = bucketed_join(cur, nxt, on=f"n{i}")

    path_cols = [f"n{i}" for i in range(L + 1)]

    def per_path(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({c: batch[c].to_numpy() for c in path_cols})
        for a in attr_cols:
            cols = [c for c in batch.columns
                    if c.startswith("a") and c.endswith(f"_{a}")]
            out[a] = batch[cols].sum(axis=1)
        if undirected:
            fwd = out[path_cols].to_numpy()
            rev = fwd[:, ::-1]
            # lexicographic min of forward vs reversed node sequence
            take_rev = np.zeros(len(out), dtype=bool)
            undecided = np.ones(len(out), dtype=bool)
            for j in range(L + 1):
                lt = undecided & (rev[:, j] < fwd[:, j])
                gt = undecided & (rev[:, j] > fwd[:, j])
                take_rev |= lt
                undecided &= ~(lt | gt)
            canon = np.where(take_rev[:, None], rev, fwd)
            for j, c in enumerate(path_cols):
                out[c] = canon[:, j]
        return out

    paths = cur.map_batches(per_path, batch_format="pandas")
    if undirected:
        # duplicate path signatures collapse to one (the reference's
        # drop_duplicates on path_signature); winner deterministic via
        # a stable order column, not partition order
        order_col = attr_cols[0] if attr_cols else path_cols[0]
        paths = shuffle.first_by(paths, path_cols, order_col)

    src_col, dst_col = path_cols[0], path_cols[-1]
    mergeable = isinstance(agg, str) and agg in ("sum", "mean")

    if mergeable:
        def partial(batch: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame({"src": batch[src_col], "dst": batch[dst_col]})
            for a in attr_cols:
                out[a] = batch[a]
            out["npaths"] = np.int64(1)
            return (out.groupby(["src", "dst"], sort=False)
                    .agg({**{a: "sum" for a in attr_cols}, "npaths": "sum"})
                    .reset_index())

        partials = paths.map_batches(partial, batch_format="pandas")
        summed = shuffle.group_agg(
            partials, ["src", "dst"],
            {**{a: (a, "sum") for a in attr_cols},
             "weight": ("npaths", "sum")}, partial=False)

        def post(batch: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame({"src": batch["src"], "dst": batch["dst"],
                                "weight": batch["weight"].astype(np.int64)})
            for a in attr_cols:
                v = batch[a].to_numpy()
                if agg == "mean":
                    v = v / batch["weight"].to_numpy()
                out[f"{a}_{agg}"] = np.round(v, round_to)
            return out

        return summed.map_batches(post, batch_format="pandas")

    # custom callable reducer: per-terminal-group apply (non-mergeable)
    fn = agg
    name = getattr(fn, "__name__", "agg")

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for (a, b), sub in g.groupby([src_col, dst_col], sort=False):
            row = {"src": a, "dst": b, "weight": np.int64(len(sub))}
            for c in attr_cols:
                row[f"{c}_{name}"] = round(float(fn(sub[c].to_numpy())),
                                           round_to)
            rows.append(row)
        return pd.DataFrame(rows)

    return shuffle.grouped_transform(paths, [src_col, dst_col], kernel)


def add_metapaths_by_weight(
    nodes: ray.data.Dataset,
    edges: pd.DataFrame,
    min_cost: float,
    max_cost: float,
    weight_col: str = "weight",
    batch_size: int = 256,
) -> ray.data.Dataset:
    """Connect node pairs whose network shortest-path cost lies in
    [min_cost, max_cost] (reference metapath.py:169-312).

    The edge list (the *network*, small side) is broadcast once; each
    batch of source nodes runs bounded Dijkstra (cutoff=max_cost) —
    the adjacency is built once per worker."""
    def dijkstra(batch: pd.DataFrame, g) -> pd.DataFrame:
        import networkx as nx
        rows = []
        for nid in batch["id"]:
            if nid not in g:
                continue
            lengths = nx.single_source_dijkstra_path_length(
                g, nid, cutoff=max_cost, weight="weight")
            for tgt, cost in lengths.items():
                if tgt != nid and cost >= min_cost:
                    rows.append((nid, tgt, cost))
        return (pd.DataFrame(rows, columns=["src", "dst", "cost"]) if rows
                else pd.DataFrame({"src": pd.Series(dtype=np.int64),
                                   "dst": pd.Series(dtype=np.int64),
                                   "cost": pd.Series(dtype=np.float64)}))

    return broadcast_map(nodes, edges[["src", "dst", weight_col]], dijkstra,
                         prepare=nx_graph, batch_size=batch_size)
