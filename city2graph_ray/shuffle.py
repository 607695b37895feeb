"""Keyed shuffle primitives.

A per-key Python call (pandas slice + fn call) dominates wall time with
millions of keys (edge pairs, node ids).  These helpers hash the key
columns to a partition of the engine's one keyed shuffle
(``exchange.keyed_exchange``) and run a VECTORIZED pandas kernel once
per partition (drop_duplicates, groupby().agg, cumcount), so the
per-key cost is C, not Python.

Every distributed dedup / first-wins / rank / aggregate in the engine
routes through here.  ``num_buckets`` caps the partition count, which
is otherwise twice the cluster's CPUs (at least 16).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pandas as pd
import ray.data

from city2graph_ray.exchange import keyed_exchange

DEFAULT_BUCKETS = 64


def _keyed(ds: ray.data.Dataset, keys: Sequence[str],
           kernel: Callable[[pd.DataFrame], pd.DataFrame],
           num_buckets: int) -> ray.data.Dataset:
    return keyed_exchange(ds, keys, kernel, per_group=False,
                          num_buckets=num_buckets)


def distinct(ds: ray.data.Dataset, keys: Sequence[str],
             num_buckets: int = DEFAULT_BUCKETS) -> ray.data.Dataset:
    """Distinct rows by key columns (arbitrary winner among duplicates —
    use first_by for a deterministic one). One shuffle."""
    keys = list(keys)
    return _keyed(ds, keys, lambda g: g.drop_duplicates(keys), num_buckets)


def first_by(ds: ray.data.Dataset, keys: Sequence[str], order_col: str,
             num_buckets: int = DEFAULT_BUCKETS) -> ray.data.Dataset:
    """Per key, the row with the smallest ``order_col`` (deterministic
    first-wins — the reference's keep='first' in stable input order,
    with order_col playing the explicit row_seq role)."""
    keys = list(keys)

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        return (g.sort_values(order_col, kind="stable")
                .drop_duplicates(keys, keep="first"))

    return _keyed(ds, keys, kernel, num_buckets)


def last_by(ds: ray.data.Dataset, keys: Sequence[str], order_col: str,
            num_buckets: int = DEFAULT_BUCKETS) -> ray.data.Dataset:
    """Per key, the row with the LARGEST ``order_col`` — last-occurrence
    wins (the reference's _get_last_occurrence_indexer,
    graph.py:133-163)."""
    keys = list(keys)

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        return (g.sort_values(order_col, kind="stable")
                .drop_duplicates(keys, keep="last"))

    return _keyed(ds, keys, kernel, num_buckets)


def count_distinct(ds: ray.data.Dataset, keys: Sequence[str], value_col: str,
                   out_col: str = "n_distinct",
                   num_buckets: int = DEFAULT_BUCKETS) -> ray.data.Dataset:
    """Per key, COUNT(DISTINCT value): two-stage — distinct on
    (key, value) (first shuffle, pre-deduped per batch), then a size
    aggregation per key (the reference's per-service active-date counts,
    transportation.py:965-972)."""
    keys = list(keys)

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        return df[[*keys, value_col]].drop_duplicates()

    dd = distinct(ds.map_batches(pre, batch_format="pandas"),
                  [*keys, value_col], num_buckets)
    return group_agg(dd, keys, {out_col: (value_col, "size")}, num_buckets)


def rank_in_group(ds: ray.data.Dataset, keys: Sequence[str], order_col: str,
                  rank_col: str = "edge_key",
                  num_buckets: int = DEFAULT_BUCKETS) -> ray.data.Dataset:
    """Per key, dense 0..n-1 rank by ``order_col`` (the reference's
    groupby().cumcount() multigraph keys, morphology.py:1810)."""
    keys = list(keys)

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order_col, kind="stable")
        g[rank_col] = g.groupby(keys, sort=False).cumcount().astype(np.int64)
        return g

    return _keyed(ds, keys, kernel, num_buckets)


def group_agg(ds: ray.data.Dataset, keys: Sequence[str],
              aggs: dict[str, tuple[str, str]],
              num_buckets: int = DEFAULT_BUCKETS,
              partial: bool = True) -> ray.data.Dataset:
    """Distributed named aggregation: ``aggs`` maps output column →
    (input column, 'sum'|'min'|'max'|'size').  With ``partial`` (the
    default) each input batch pre-aggregates before the shuffle, so
    bytes moved scale with distinct keys per batch, not rows."""
    keys = list(keys)

    mergeable = {"sum": "sum", "min": "min", "max": "max", "size": "sum"}
    for _, (_, how) in aggs.items():
        if how not in mergeable:
            raise ValueError(f"non-mergeable agg {how}; use a custom kernel")

    def partial_fn(df: pd.DataFrame) -> pd.DataFrame:
        named = {out: (col, how) for out, (col, how) in aggs.items()}
        return df.groupby(keys, sort=False).agg(**named).reset_index()

    src = ds.map_batches(partial_fn, batch_format="pandas") if partial else ds

    def final_fn(g: pd.DataFrame) -> pd.DataFrame:
        named = {out: (out if partial else aggs[out][0], mergeable[aggs[out][1]])
                 for out in aggs}
        return g.groupby(keys, sort=False).agg(**named).reset_index()

    return _keyed(src, keys, final_fn, num_buckets)


def grouped_transform(ds: ray.data.Dataset, keys: Sequence[str],
                      kernel: Callable[[pd.DataFrame], pd.DataFrame],
                      num_buckets: int = DEFAULT_BUCKETS) -> ray.data.Dataset:
    """General per-partition kernel: ``kernel`` receives ALL rows of the
    keys hashed to one partition, sorted by key, and must handle the
    grouping itself with vectorized pandas (and accept an empty frame).
    The escape hatch when distinct/first/rank/agg don't fit (e.g.
    symmetrize's per-pair completion)."""
    return _keyed(ds, list(keys), kernel, num_buckets)


def topk_in_group(ds: ray.data.Dataset, keys: Sequence[str], k: int,
                  order_cols: Sequence[str], ascending: Sequence[bool],
                  num_buckets: int = DEFAULT_BUCKETS) -> ray.data.Dataset:
    """Per key, the k smallest rows by ``order_cols`` — the distributed
    top-k-per-key merge (kNN candidate merge, ANN partial merge)."""
    keys = list(keys)

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(list(order_cols), ascending=list(ascending),
                          kind="stable")
        return g.groupby(keys, sort=False).head(k)

    return _keyed(ds, keys, kernel, num_buckets)


def mode_by(ds: ray.data.Dataset, keys: Sequence[str], value_col: str,
            num_buckets: int = DEFAULT_BUCKETS) -> ray.data.Dataset:
    """Per-key modal value with a deterministic tie-break (highest
    count, then smallest value): one partial-aggregated keyed count on
    (keys, value) followed by a per-key top-1 merge — the SQL twin is
    QUALIFY row_number() OVER (PARTITION BY keys ORDER BY n DESC,
    value) = 1.  Output (keys…, value_col, n)."""
    keys = list(keys)
    counts = group_agg(ds, keys + [value_col], {"n": (value_col, "size")},
                       num_buckets=num_buckets)
    return topk_in_group(counts, keys, 1, ["n", value_col],
                         [False, True], num_buckets=num_buckets)


def global_row_number(ds: ray.data.Dataset, order_cols: Sequence[str],
                      descending: Sequence[bool] | bool = False,
                      out_col: str = "rn") -> ray.data.Dataset:
    """Distributed ``row_number() OVER (ORDER BY order_cols)`` — the
    global-window primitive under ECDF / percentile-rank / take-while
    selections.  Include a unique column (an id) as the LAST order key
    for a deterministic result.

    Two-pass scan, no driver rows: a range sort fixes the global
    order, pass 1 reduces each sorted block to its ROW COUNT (the
    driver holds #blocks integers), pass 2 adds
    ``offset + arange + 1`` per block — the same shape as the packing
    module's distributed prefix sum, generalized to any ordering.
    """
    import pyarrow as pa
    import ray

    if isinstance(descending, bool):
        descending = [descending] * len(list(order_cols))
    s = ds.sort(list(order_cols), descending=list(descending))
    refs = s.to_arrow_refs()
    if not refs:
        return s

    @ray.remote
    def _n(t: pa.Table) -> int:
        return t.num_rows

    @ray.remote
    def _stamp(t: pa.Table, off: int, col: str) -> pa.Table:
        return t.append_column(col, pa.array(
            off + np.arange(1, t.num_rows + 1, dtype=np.int64)))

    counts = ray.get([_n.remote(r) for r in refs])
    offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
    return ray.data.from_arrow_refs(
        [_stamp.remote(r, int(o), out_col)
         for r, o in zip(refs, offsets)])


def global_ntile(ds: ray.data.Dataset, order_cols: Sequence[str], k: int,
                 descending: Sequence[bool] | bool = False,
                 rn_col: str = "rn",
                 out_col: str = "tile") -> ray.data.Dataset:
    """Distributed ``ntile(k) OVER (ORDER BY order_cols)`` with SQL
    semantics (the first ``n % k`` tiles get ``ceil(n/k)`` rows):
    one `global_row_number` pass plus a single driver scalar (the
    total count); the tile id is then a per-block closed-form stamp."""
    rn_ds = global_row_number(ds, order_cols, descending,
                              out_col=rn_col).materialize()
    n = rn_ds.count()
    if n == 0:
        return rn_ds
    q, r = divmod(n, k)
    big = (q + 1) * r

    def stamp(b: pd.DataFrame) -> pd.DataFrame:
        rn = b[rn_col].to_numpy(np.int64)
        in_big = rn <= big
        tile = np.where(
            in_big,
            (rn - 1) // max(q + 1, 1) + 1,
            r + (rn - big - 1) // max(q, 1) + 1)
        b = b.copy()
        b[out_col] = tile.astype(np.int64)
        return b

    return rn_ds.map_batches(stamp, batch_format="pandas")


def pivot_counts(ds: ray.data.Dataset, keys: Sequence[str], col: str,
                 values: Sequence[str], prefix: str = "n_",
                 num_buckets: int = DEFAULT_BUCKETS) -> ray.data.Dataset:
    """Pivot-to-wide occurrence counts: one output row per key with a
    ``{prefix}{value}`` int64 column per pivot value (Spark's
    ``pivot(col, values).count()``; SQL twin = conditional SUMs).
    ``values`` must be explicit — an engine can't stream an unknown
    output schema.  Each input batch pre-aggregates to a wide partial
    (vectorized == comparisons), so the shuffle carries one row per
    (key, batch), not per event; unlisted values are ignored."""
    keys = list(keys)
    values = list(values)
    cols = [f"{prefix}{v}" for v in values]

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        out = b[keys].copy()
        cv = b[col].to_numpy()
        for v, c in zip(values, cols):
            out[c] = (cv == v).astype(np.int64)
        return out.groupby(keys, sort=False).sum().reset_index()

    wide = ds.map_batches(partial, batch_format="pandas")
    return group_agg(wide, keys, {c: (c, "sum") for c in cols},
                     num_buckets=num_buckets, partial=False)


def melt(ds: ray.data.Dataset, id_cols: Sequence[str],
         value_cols: Sequence[str], var_col: str = "metric",
         val_col: str = "value") -> ray.data.Dataset:
    """Unpivot wide → long (``pd.melt`` per batch): one output row per
    (input row, value column), columns ``id_cols + [var_col, val_col]``.
    Pure map stage — no shuffle, streams at any scale; the SQL twin is
    a UNION ALL of one SELECT per value column."""
    id_cols = list(id_cols)
    value_cols = list(value_cols)

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        return b.melt(id_vars=id_cols, value_vars=value_cols,
                      var_name=var_col, value_name=val_col)

    return ds.map_batches(fn, batch_format="pandas")
