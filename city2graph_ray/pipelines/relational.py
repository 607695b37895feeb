"""Multi-way relational pipelines over the TPC-H-ish tables.

The engine's joins/aggregates are exercised by the graph operators
query-by-query; these compose them into the classic multi-join + agg +
global-top-k shape (TPC-H Q3 "shipping priority") to demonstrate the
full relational path at scale: column-pruned reads → filter at the
read → two bucketed hash joins (small side reduced first) → partial
per-batch aggregation → keyed merge → per-block top-k → tiny driver
merge.  Every stage streams; nothing wider than the final k rows ever
reaches the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from city2graph_ray import shuffle
from city2graph_ray.joins import bucketed_join


def shipping_priority(sf_dir: str, segment: str = "BUILDING",
                      cutoff: str = "1996-01-01", k: int = 10,
                      num_buckets: int = shuffle.DEFAULT_BUCKETS,
                      ) -> ray.data.Dataset:
    """TPC-H-Q3-shaped pipeline: revenue per open order in one customer
    market segment, top-``k`` by revenue.

    Output (l_orderkey, revenue, o_orderdate, o_orderpriority), revenue
    rounded to 4dp, ordered ties broken by (revenue DESC, o_orderdate,
    l_orderkey) — fully deterministic, bit-exact against the SQL twin.

    Scale shape: `customer` reduces to the qualifying keys BEFORE the
    join (one column); `orders` is filtered at the read on the date
    predicate; both joins are bucketed hash joins keyed on int64;
    revenue partials are combined per batch before the keyed merge, and
    the global top-k is per-block partial top-k + a k-row driver merge
    (never a full sort)."""
    cut = pd.Timestamp(cutoff)

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment"]).map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], segment))
        .select(["c_custkey"]), batch_format="pyarrow")

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate",
                 "o_orderpriority"]).map_batches(
        lambda t: t.filter(pc.less(t["o_orderdate"], cut.to_datetime64())),
        batch_format="pyarrow")

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_shipdate"]).map_batches(
        lambda t: t.filter(pc.greater(t["l_shipdate"], cut.to_datetime64())),
        batch_format="pyarrow")

    # customer ⋈ orders on custkey (segment side already reduced)
    o_cust = bucketed_join(
        orders.map_batches(
            lambda b: b.rename(columns={"o_custkey": "c_custkey"}),
            batch_format="pandas"),
        cust, on="c_custkey", num_buckets=num_buckets)

    # ⋈ lineitem on orderkey; partial revenue per (orderkey) per batch
    def li_partial(b: pd.DataFrame) -> pd.DataFrame:
        rev = b["l_extendedprice"].to_numpy() * \
            (1.0 - b["l_discount"].to_numpy())
        return (pd.DataFrame({"l_orderkey": b["l_orderkey"], "rev": rev})
                .groupby("l_orderkey", sort=False).agg(rev=("rev", "sum"))
                .reset_index())

    li_agg = li.map_batches(li_partial, batch_format="pandas")
    joined = bucketed_join(
        li_agg,
        o_cust.map_batches(
            lambda b: b.rename(columns={"o_orderkey": "l_orderkey"})[
                ["l_orderkey", "o_orderdate", "o_orderpriority"]],
            batch_format="pandas"),
        on="l_orderkey", num_buckets=num_buckets)

    per_order = shuffle.grouped_transform(
        joined, ["l_orderkey"],
        lambda g: (g.groupby(["l_orderkey", "o_orderdate",
                              "o_orderpriority"], sort=False)
                   .agg(revenue=("rev", "sum")).reset_index()),
        num_buckets=num_buckets)

    def block_topk(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["revenue"] = np.round(b["revenue"].to_numpy(np.float64), 4)
        return b.sort_values(["revenue", "o_orderdate", "l_orderkey"],
                             ascending=[False, True, True]).head(k)

    top = (per_order.map_batches(block_topk, batch_format="pandas")
           .to_pandas()
           .sort_values(["revenue", "o_orderdate", "l_orderkey"],
                        ascending=[False, True, True])
           .head(k).reset_index(drop=True))
    return ray.data.from_pandas(
        top[["l_orderkey", "revenue", "o_orderdate", "o_orderpriority"]])


def regional_revenue(sf_dir: str, region: str = "ASIA") -> ray.data.Dataset:
    """TPC-H Q5-style rollup: lineitem revenue by customer nation for
    one region.  Dimension tables (region ⋈ nation, dozens of rows) are
    broadcast once via ``ray.put`` into the customer stream
    (`joins.broadcast_join`) — the canonical small-side pattern — while
    the two big joins (orders→customer on custkey, lineitem→orders on
    orderkey) are bucketed hash joins.  Output
    (n_name, revenue) with revenue rounded to 2dp (nation-level sums
    accumulate ~1e-6 float noise across summation orders; 2dp keeps
    the SQL twin bit-stable)."""
    import numpy as np
    import pandas as pd
    import ray.data

    from city2graph_ray import shuffle
    from city2graph_ray.joins import broadcast_join, bucketed_join

    nation = pd.read_parquet(f"{sf_dir}/nation.parquet",
                             columns=["n_nationkey", "n_name",
                                      "n_regionkey"])
    reg = pd.read_parquet(f"{sf_dir}/region.parquet",
                          columns=["r_regionkey", "r_name"])
    dims = nation.merge(reg, left_on="n_regionkey",
                        right_on="r_regionkey")
    dims = dims.loc[dims["r_name"] == region,
                    ["n_nationkey", "n_name"]].rename(
        columns={"n_nationkey": "c_nationkey"})

    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey", "c_nationkey"])
    cust = broadcast_join(cust, dims, on="c_nationkey").map_batches(
        lambda b: b.rename(columns={"c_custkey": "o_custkey"})
        [["o_custkey", "n_name"]], batch_format="pandas")

    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_orderkey", "o_custkey"])
    ordn = bucketed_join(orders, cust, on="o_custkey").map_batches(
        lambda b: b.rename(columns={"o_orderkey": "l_orderkey"})
        [["l_orderkey", "n_name"]], batch_format="pandas")

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"])
    li = li.map_batches(
        lambda b: pd.DataFrame({
            "l_orderkey": b["l_orderkey"].to_numpy(np.int64),
            "rev": b["l_extendedprice"].to_numpy(np.float64)
                   * (1.0 - b["l_discount"].to_numpy(np.float64))}),
        batch_format="pandas")

    joined = bucketed_join(li, ordn, on="l_orderkey")
    out = shuffle.group_agg(joined, ["n_name"], {"revenue": ("rev", "sum")})
    return out.map_batches(
        lambda b: pd.DataFrame({"n_name": b["n_name"],
                                "revenue": np.round(
                                    b["revenue"].to_numpy(np.float64), 2)}),
        batch_format="pandas")


def revenue_forecast(sf_dir: str, date_from: str = "1995-01-01",
                     date_to: str = "1996-01-01",
                     disc_lo: float = 0.05, disc_hi: float = 0.07,
                     max_qty: float = 24.0) -> ray.data.Dataset:
    """TPC-H-Q6-shaped forecast: one filtered scan + one global sum.

    The scan-dominant archetype: only the four referenced columns leave
    storage (`columns=`), the predicate runs as vectorized
    pyarrow.compute on zero-copy Arrow batches, each batch reduces to a
    single (revenue, rows) partial, and the driver merges the
    block-count-sized partials.  Nothing shuffles.  Output one row
    (revenue 2dp, qualifying row count)."""
    lo = pd.Timestamp(date_from).to_datetime64()
    hi = pd.Timestamp(date_to).to_datetime64()

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_shipdate", "l_discount", "l_quantity",
                 "l_extendedprice"])

    def partial(t):
        mask = pc.and_(
            pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                    pc.less(t["l_shipdate"], hi)),
            pc.and_(pc.and_(pc.greater_equal(t["l_discount"], disc_lo),
                            pc.less_equal(t["l_discount"], disc_hi)),
                    pc.less(t["l_quantity"], max_qty)))
        f = t.filter(mask)
        rev = pc.sum(pc.multiply(f["l_extendedprice"], f["l_discount"]))
        return pa.table({
            "rev": pa.array([rev.as_py() or 0.0], pa.float64()),
            "rows": pa.array([f.num_rows], pa.int64())})

    parts = li.map_batches(partial, batch_format="pyarrow").to_pandas()
    return ray.data.from_pandas(pd.DataFrame({
        "revenue": [round(float(parts["rev"].sum()), 2)],
        "qualifying_rows": [int(parts["rows"].sum())]}))


def order_priority_check(sf_dir: str, date_from: str = "1995-01-01",
                         date_to: str = "1995-07-01",
                         num_buckets: int = shuffle.DEFAULT_BUCKETS,
                         ) -> ray.data.Dataset:
    """TPC-H-Q4-shaped "order priority checking": orders in a date
    window having at least one returned lineitem (EXISTS semi-join;
    the testdata lineitem carries no commit/receipt dates, so the
    correlated predicate is ``l_returnflag = 'R'``), counted per
    o_orderpriority.

    Scale shape of the EXISTS: lineitem is filtered at the scan and
    reduced to DISTINCT qualifying orderkeys — per-batch dedup first
    (shuffle bytes ∝ distinct keys per batch), then one keyed merge —
    so the semi-join's build side is keys-only; the probe is one
    bucketed hash join against the date-windowed orders (inner join ≡
    semi-join because the build side is unique); the final count is a
    partial-aggregated groupby over ≤5 priority values."""
    lo = pd.Timestamp(date_from).to_datetime64()
    hi = pd.Timestamp(date_to).to_datetime64()

    li_keys = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag"]).map_batches(
        lambda t: t.filter(pc.equal(t["l_returnflag"], "R"))
        .select(["l_orderkey"]), batch_format="pyarrow").map_batches(
        lambda b: b.drop_duplicates(["l_orderkey"]),
        batch_format="pandas")
    qual = shuffle.group_agg(li_keys, ["l_orderkey"],
                             {"n_ret": ("l_orderkey", "size")},
                             num_buckets=num_buckets).map_batches(
        lambda b: b.rename(columns={"l_orderkey": "o_orderkey"})
        [["o_orderkey"]], batch_format="pandas")

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(
        lambda t: t.filter(pc.and_(pc.greater_equal(t["o_orderdate"], lo),
                                   pc.less(t["o_orderdate"], hi)))
        .select(["o_orderkey", "o_orderpriority"]), batch_format="pyarrow")

    sj = bucketed_join(orders, qual, on="o_orderkey",
                       num_buckets=num_buckets)
    return shuffle.group_agg(sj, ["o_orderpriority"],
                             {"order_count": ("o_orderkey", "size")},
                             num_buckets=num_buckets)


def large_volume_orders(sf_dir: str, min_qty: float = 250.0,
                        k: int = 100,
                        num_buckets: int = shuffle.DEFAULT_BUCKETS,
                        ) -> ray.data.Dataset:
    """TPC-H-Q18-shaped "large volume customers": orders whose total
    lineitem quantity exceeds ``min_qty``, with customer names, top-k
    by (o_totalprice DESC, o_orderdate, o_orderkey).

    Scale shape: the HAVING pre-aggregation runs as partial per-batch
    sums combined by a keyed merge (bytes shuffled ∝ distinct orderkeys
    per batch), the qualifying set — tiny by construction — then drives
    two bucketed hash joins against orders and customer; the global
    top-k is per-block partial top-k + a k-row driver merge.  sum_qty
    is rounded to 4dp before the threshold compare so the float
    summation order can never flip a boundary row vs the SQL twin."""
    li = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_orderkey", "l_quantity"])
    per_order = shuffle.group_agg(
        li, ["l_orderkey"], {"sum_qty": ("l_quantity", "sum")},
        num_buckets=num_buckets)
    # emit Arrow with a declared schema so an all-filtered (empty)
    # qualifier set still joins cleanly downstream
    qual_schema = pa.schema([("o_orderkey", pa.int64()),
                             ("sum_qty", pa.float64())])

    def qual_fn(b: pd.DataFrame) -> "pa.Table":
        q = np.round(b["sum_qty"].to_numpy(np.float64), 4)
        keep = q > min_qty
        return pa.Table.from_arrays(
            [pa.array(b["l_orderkey"].to_numpy(np.int64)[keep]),
             pa.array(q[keep])], schema=qual_schema)

    qual = per_order.map_batches(qual_fn, batch_format="pandas")

    # rename o_custkey→c_custkey at the (never-empty) read so the
    # possibly-empty qualifier stream flows join→join with no map in
    # between — Ray loses block schemas when a map runs over an
    # all-empty dataset, and bucketed_join needs a derivable schema
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate",
                 "o_totalprice"]).map_batches(
        lambda t: t.rename_columns(
            ["o_orderkey", "c_custkey", "o_orderdate", "o_totalprice"]),
        batch_format="pyarrow")
    oq = bucketed_join(orders, qual, on="o_orderkey",
                       num_buckets=num_buckets)

    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey", "c_name"])
    joined = bucketed_join(oq, cust, on="c_custkey",
                           num_buckets=num_buckets)

    def block_topk(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["o_totalprice", "o_orderdate", "o_orderkey"],
                             ascending=[False, True, True]).head(k)

    cols = ["c_name", "c_custkey", "o_orderkey", "o_orderdate",
            "o_totalprice", "sum_qty"]
    top = joined.map_batches(block_topk, batch_format="pandas").to_pandas()
    if len(top) == 0:  # typed empty frame: maps over empty drop schema
        top = pd.DataFrame({"c_name": pd.Series(dtype=object),
                            "c_custkey": pd.Series(dtype=np.int64),
                            "o_orderkey": pd.Series(dtype=np.int64),
                            "o_orderdate": pd.Series(dtype="datetime64[us]"),
                            "o_totalprice": pd.Series(dtype=np.float64),
                            "sum_qty": pd.Series(dtype=np.float64)})
    top = (top.sort_values(["o_totalprice", "o_orderdate", "o_orderkey"],
                           ascending=[False, True, True])
           .head(k).reset_index(drop=True))
    import pyarrow as pa2
    return ray.data.from_arrow(pa2.Table.from_pandas(
        top[cols], preserve_index=False))


def returned_item_report(sf_dir: str, date_from: str = "1995-01-01",
                         date_to: str = "1995-04-01", k: int = 20,
                         num_buckets: int = shuffle.DEFAULT_BUCKETS,
                         ) -> ray.data.Dataset:
    """TPC-H-Q10-shaped "returned item reporting": revenue lost to
    returned lineitems per customer in a quarter, top-``k`` customers
    with name / account balance / nation.

    Scale shape: lineitem reduces to per-orderkey revenue partials at
    the scan (returnflag filter pushed into the batch kernel); the
    date-windowed orders drive one bucketed join to re-key revenue by
    customer; a keyed merge sums per customer BEFORE the (small)
    customer-attribute join; the nation dimension is a broadcast
    lookup; the global top-k is per-block partial top-k + a k-row
    driver merge.  Revenue is carried in EXACT integer 1e-4 units —
    round(price*100) * (100 - round(disc*100)) — summed as int64 and
    converted once at the end via floor-plus-half to cents: no float
    summation order and no rounding-tie rule anywhere (the former
    per-term 2dp rounding flipped a cent at sf0.1 where a 4-decimal
    product landed on a .xx5 tie that numpy half-even and DuckDB
    half-away resolve differently — r5 finding)."""
    lo = pd.Timestamp(date_from).to_datetime64()
    hi = pd.Timestamp(date_to).to_datetime64()

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_returnflag"]).map_batches(
        lambda t: t.filter(pc.equal(t["l_returnflag"], "R")),
        batch_format="pyarrow")

    def li_partial(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(b["l_extendedprice"].to_numpy(np.float64)
                         * 100.0).astype(np.int64)
        dh = np.round(b["l_discount"].to_numpy(np.float64)
                      * 100.0).astype(np.int64)
        rev = cents * (100 - dh)          # exact 1e-4 units, int64
        return (pd.DataFrame({"o_orderkey": b["l_orderkey"], "rev": rev})
                .groupby("o_orderkey", sort=False).agg(rev=("rev", "sum"))
                .reset_index())

    li_agg = li.map_batches(li_partial, batch_format="pandas")

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        lambda t: t.filter(pc.and_(pc.greater_equal(t["o_orderdate"], lo),
                                   pc.less(t["o_orderdate"], hi)))
        .select(["o_orderkey", "o_custkey"]), batch_format="pyarrow")

    per_cust = shuffle.group_agg(
        bucketed_join(li_agg, orders, on="o_orderkey",
                      num_buckets=num_buckets).map_batches(
            lambda b: b.rename(columns={"o_custkey": "c_custkey"})
            [["c_custkey", "rev"]], batch_format="pandas"),
        ["c_custkey"], {"revenue": ("rev", "sum")},
        num_buckets=num_buckets)

    nation = pd.read_parquet(f"{sf_dir}/nation.parquet",
                             columns=["n_nationkey", "n_name"]).rename(
        columns={"n_nationkey": "c_nationkey"})
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"])
    from city2graph_ray.joins import broadcast_join
    cust = broadcast_join(cust, nation, on="c_nationkey")

    joined = bucketed_join(per_cust, cust, on="c_custkey",
                           num_buckets=num_buckets)

    def block_topk(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        units = b["revenue"].to_numpy(np.float64)   # int64 units
        b["revenue"] = np.floor(units / 100.0 + 0.5) / 100.0
        return b.sort_values(["revenue", "c_custkey"],
                             ascending=[False, True]).head(k)

    cols = ["c_custkey", "c_name", "revenue", "c_acctbal", "n_name"]
    top = (joined.map_batches(block_topk, batch_format="pandas")
           .to_pandas()
           .sort_values(["revenue", "c_custkey"],
                        ascending=[False, True])
           .head(k).reset_index(drop=True))
    return ray.data.from_pandas(top[cols])


def promo_revenue(sf_dir: str, prefix: str = "PROMO",
                  num_buckets: int = shuffle.DEFAULT_BUCKETS,
                  ) -> ray.data.Dataset:
    """TPC-H-Q14-shaped promotion effect: the percentage of lineitem
    revenue from parts whose type starts with ``prefix``.  One bucketed
    join (lineitem→part on partkey, part side reduced to key + a
    boolean at the read), per-batch fused (promo, total) partials, a
    block-count-sized driver merge.  Output one row, 4dp both sides."""
    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_type"]).map_batches(
        lambda b: pd.DataFrame({
            "l_partkey": b["p_partkey"].to_numpy(np.int64),
            "is_promo": b["p_type"].astype(str).str.startswith(prefix)
            .to_numpy()}),
        batch_format="pandas")
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount"])

    joined = bucketed_join(li, part, on="l_partkey",
                           num_buckets=num_buckets)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        rev = b["l_extendedprice"].to_numpy(np.float64) * \
            (1.0 - b["l_discount"].to_numpy(np.float64))
        promo = rev[b["is_promo"].to_numpy(bool)].sum()
        return pd.DataFrame({"promo": [promo], "total": [rev.sum()]})

    parts = joined.map_batches(partial, batch_format="pandas").to_pandas()
    total = float(parts["total"].sum())
    promo = float(parts["promo"].sum())
    return ray.data.from_pandas(pd.DataFrame({
        "promo_pct": [round(100.0 * promo / total, 4) if total else 0.0]}))


def customer_distribution(sf_dir: str, exclude_status: str = "F",
                          num_buckets: int = shuffle.DEFAULT_BUCKETS,
                          ) -> ray.data.Dataset:
    """TPC-H Q13-shaped customer-order distribution: how many customers
    placed exactly c_count qualifying orders — INCLUDING the
    zero-order customers, which is the whole point of the query (a
    LEFT OUTER join of the customer key table against the per-customer
    order counts, zero-filled, then a histogram of the counts).

    The synthetic orders table has no o_comment, so the qualifying
    predicate is ``o_orderstatus <> exclude_status`` (same shape:
    filter at the read, then count).  Output
    (c_count, custdist) — all int64, bit-exact.

    Scale: orders reduce to per-customer partial counts inside each
    batch before the keyed merge; the LEFT join is bucketed on the
    customer key; the histogram re-aggregates a customers-sized table
    on a tiny key space."""
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"])
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderstatus"]).map_batches(
        lambda t: t.filter(
            pc.not_equal(t["o_orderstatus"], exclude_status))
        .select(["o_custkey"]), batch_format="pyarrow")

    per_cust = shuffle.group_agg(
        orders, ["o_custkey"], {"c_count": ("o_custkey", "size")},
        num_buckets=num_buckets).map_batches(
        lambda b: b.rename(columns={"o_custkey": "c_custkey"}),
        batch_format="pandas")

    joined = bucketed_join(cust, per_cust, on="c_custkey",
                           how="left", num_buckets=num_buckets)
    counts = joined.map_batches(
        lambda b: pd.DataFrame({
            "c_count": np.nan_to_num(
                b["c_count"].to_numpy(np.float64), nan=0.0)
            .astype(np.int64)}),
        batch_format="pandas")
    hist = shuffle.group_agg(
        counts, ["c_count"], {"custdist": ("c_count", "size")},
        num_buckets=num_buckets)
    return hist.map_batches(
        lambda b: pd.DataFrame({
            "c_count": b["c_count"].to_numpy(np.int64),
            "custdist": b["custdist"].to_numpy(np.int64)}),
        batch_format="pandas")


def part_supplier_diversity(sf_dir: str, brand_excl: str = "Brand#1",
                            sizes: tuple = (1, 4, 7, 10, 13, 16, 19,
                                            22, 25),
                            num_buckets: int = shuffle.DEFAULT_BUCKETS,
                            ) -> ray.data.Dataset:
    """TPC-H Q16-shaped supplier-diversity count: per (p_brand, p_type,
    p_size) over a filtered part slice, the number of DISTINCT
    suppliers that ship the part — excluding a "complaints" supplier
    list (here ``s_acctbal < 0``; the synthetic schema has no
    s_comment), which enters as an ANTI join.

    The part↔supplier relation is the distinct (l_partkey, l_suppkey)
    projection of lineitem (the synthetic schema has no partsupp).
    Output (p_brand, p_type, p_size, supplier_cnt) — ints + strings,
    bit-exact.

    Scale: the relation is deduped by one keyed shuffle; the anti join
    is a bucketed LEFT join against the (small, key-only) complaint
    list with a null-mask filter — no broadcast of the big side; the
    final COUNT(DISTINCT) reuses the two-shuffle count_distinct
    primitive."""
    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_type", "p_size"])
    sz = list(sizes)
    part = part.map_batches(
        lambda b: b[(b["p_brand"].astype(str) != brand_excl)
                    & b["p_size"].isin(sz)],
        batch_format="pandas")

    ps = shuffle.distinct(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_suppkey"]),
        ["l_partkey", "l_suppkey"], num_buckets=num_buckets)

    bad = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_acctbal"]).map_batches(
        lambda b: pd.DataFrame({
            "l_suppkey": b.loc[b["s_acctbal"].to_numpy(np.float64) < 0.0,
                               "s_suppkey"].to_numpy(np.int64),
        }).assign(bad_mark=np.int64(1)),
        batch_format="pandas")

    anti = bucketed_join(
        ps, bad, on="l_suppkey", how="left", num_buckets=num_buckets,
        right_schema=pa.schema([("l_suppkey", pa.int64()),
                                ("bad_mark", pa.int64())])).map_batches(
        lambda b: b.loc[b["bad_mark"].isna(),
                        ["l_partkey", "l_suppkey"]],
        batch_format="pandas")

    joined = bucketed_join(
        anti,
        part.map_batches(
            lambda b: b.rename(columns={"p_partkey": "l_partkey"}),
            batch_format="pandas"),
        on="l_partkey", num_buckets=num_buckets)

    out = shuffle.count_distinct(
        joined, ["p_brand", "p_type", "p_size"], "l_suppkey",
        num_buckets=num_buckets)
    return out.map_batches(
        lambda b: pd.DataFrame({
            "p_brand": b["p_brand"].astype(str),
            "p_type": b["p_type"].astype(str),
            "p_size": b["p_size"].to_numpy(np.int64),
            "supplier_cnt": b[b.columns[-1]].to_numpy(np.int64)}),
        batch_format="pandas")


def inactive_customer_balance(sf_dir: str,
                              nations: tuple = (1, 3, 5, 7, 9, 11, 13),
                              order_status: str = "F",
                              num_buckets: int = shuffle.DEFAULT_BUCKETS,
                              ) -> ray.data.Dataset:
    """TPC-H Q22-shaped "global customers without orders": per nation
    (the synthetic schema has no c_phone country code), the count and
    total balance of customers whose balance exceeds the global mean
    positive balance of the nation slice AND who placed no
    ``order_status`` orders (default: no fulfilled orders — the
    synthetic orders table gives every customer at least one order of
    SOME status, so the status slice keeps the anti-join non-trivial
    at small scale, exactly where Q22's "no orders in 7 years" window
    sits in real TPC-H).

    Exactness: balances are carried as integer CENTS
    (``floor(x*100 + 0.5)`` — the same expression on both engines, no
    round-mode divergence), the scalar-subquery threshold compares
    cross-multiplied integers (``cents * n_pos > sum_cents``) so NO
    float enters the membership decision, and the final total is an
    integer cent sum divided once by 100.

    Scale: the threshold is two scalars from per-batch partials; the
    "no orders" predicate is a bucketed ANTI join (LEFT + null mask)
    against the distinct order-customer keys; everything else is one
    keyed sum."""
    nat = list(nations)
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey", "c_acctbal"]).map_batches(
        lambda b: pd.DataFrame({
            "c_custkey": b.loc[b["c_nationkey"].isin(nat),
                               "c_custkey"].to_numpy(np.int64),
            "c_nationkey": b.loc[b["c_nationkey"].isin(nat),
                                 "c_nationkey"].to_numpy(np.int64),
            "cents": np.floor(
                b.loc[b["c_nationkey"].isin(nat),
                      "c_acctbal"].to_numpy(np.float64) * 100.0 + 0.5)
            .astype(np.int64)}),
        batch_format="pandas").materialize()

    parts = cust.map_batches(
        lambda b: pd.DataFrame({
            "s": [b.loc[b["cents"] > 0, "cents"].sum()],
            "n": [np.int64((b["cents"] > 0).sum())]}),
        batch_format="pandas").to_pandas()
    sum_cents = int(parts["s"].sum())
    n_pos = int(parts["n"].sum())

    eligible = cust.map_batches(
        lambda b, sc=sum_cents, np_=n_pos:
            b[b["cents"].to_numpy(np.int64) * np_ > sc],
        batch_format="pandas")

    okeys = shuffle.distinct(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_custkey", "o_orderstatus"]).map_batches(
            lambda t: t.filter(
                pc.equal(t["o_orderstatus"], order_status))
            .select(["o_custkey"]), batch_format="pyarrow"),
        ["o_custkey"], num_buckets=num_buckets).map_batches(
        lambda b: b.rename(columns={"o_custkey": "c_custkey"})
        .assign(has_ord=np.int64(1)), batch_format="pandas")

    anti = bucketed_join(
        eligible, okeys, on="c_custkey", how="left",
        num_buckets=num_buckets,
        left_schema=pa.schema([("c_custkey", pa.int64()),
                               ("c_nationkey", pa.int64()),
                               ("cents", pa.int64())])).map_batches(
        lambda b: b.loc[b["has_ord"].isna(),
                        ["c_nationkey", "cents"]],
        batch_format="pandas")

    agg = shuffle.group_agg(
        anti, ["c_nationkey"], {"numcust": ("cents", "size"),
                                "cent_sum": ("cents", "sum")},
        num_buckets=num_buckets).materialize()
    if agg.count() == 0:  # schema-stable empty (nation-count-sized agg)
        return ray.data.from_arrow(pa.table({
            "cntrycode": pa.array([], pa.int64()),
            "numcust": pa.array([], pa.int64()),
            "totacctbal": pa.array([], pa.float64())}))
    return agg.map_batches(
        lambda b: pd.DataFrame({
            "cntrycode": b["c_nationkey"].to_numpy(np.int64),
            "numcust": b["numcust"].to_numpy(np.int64),
            "totacctbal": b["cent_sum"].to_numpy(np.int64) / 100.0}),
        batch_format="pandas")


def volume_shipping(sf_dir: str, nation_a: str = "NATION_20",
                    nation_b: str = "NATION_11",
                    date_from: str = "1995-01-01",
                    date_to: str = "1997-01-01",
                    num_buckets: int = shuffle.DEFAULT_BUCKETS,
                    ) -> ray.data.Dataset:
    """TPC-H-Q7-shaped "volume shipping": lineitem revenue shipped
    between two nations (either direction), per (supplier nation,
    customer nation, ship year).

    Scale shape: the supplier→nation map is the one genuinely small
    side (supplier is the smallest TPC-H fact-dim) — joined to
    `nation` on the driver and broadcast once via ``ray.put``; the
    nation-pair filter is applied to lineitem BEFORE the wide join, so
    only the two nations' traffic is shuffled.  customer is NOT
    broadcast (it scales with SF): orders⋈customer is a bucketed hash
    join, reduced to (o_orderkey, cust_nation) for the qualifying
    nations only, then lineitem joins it on orderkey.  Revenue rides
    as exact integer 1e-4 units, summed int64 and floored-plus-half
    to cents once (see returned_item_report — the r5 tie-rule fix)."""
    lo = pd.Timestamp(date_from).to_datetime64()
    hi = pd.Timestamp(date_to).to_datetime64()
    pair = [nation_a, nation_b]
    from city2graph_ray.joins import broadcast_join

    nation = pd.read_parquet(f"{sf_dir}/nation.parquet",
                             columns=["n_nationkey", "n_name"])
    supp_map = (pd.read_parquet(f"{sf_dir}/supplier.parquet",
                                columns=["s_suppkey", "s_nationkey"])
                .merge(nation, left_on="s_nationkey",
                       right_on="n_nationkey")
                [["s_suppkey", "n_name"]]
                .rename(columns={"s_suppkey": "l_suppkey",
                                 "n_name": "supp_nation"}))
    supp_map = supp_map[supp_map["supp_nation"].isin(pair)]

    def li_prep(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(b["l_extendedprice"].to_numpy(np.float64)
                         * 100.0).astype(np.int64)
        dh = np.round(b["l_discount"].to_numpy(np.float64)
                      * 100.0).astype(np.int64)
        return pd.DataFrame({
            "l_orderkey": b["l_orderkey"].to_numpy(np.int64),
            "l_suppkey": b["l_suppkey"].to_numpy(np.int64),
            "l_year": b["l_shipdate"].dt.year.to_numpy(np.int64),
            "rev": cents * (100 - dh)})

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount", "l_shipdate"]).map_batches(
        lambda t: t.filter(pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                                   pc.less(t["l_shipdate"], hi))),
        batch_format="pyarrow").map_batches(
        li_prep, batch_format="pandas")
    li = broadcast_join(li, supp_map, on="l_suppkey")

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey"]).map_batches(
        lambda b, nm=nation: pa.Table.from_pandas(pd.DataFrame({
            "c_custkey": b["c_custkey"].to_numpy(np.int64),
            "cust_nation": b["c_nationkey"].map(
                dict(zip(nm["n_nationkey"], nm["n_name"]))).astype(str),
        }).loc[lambda d: d["cust_nation"].isin(pair)],
            preserve_index=False),
        batch_format="pandas")
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey"]).map_batches(
        lambda b: b.rename(columns={"o_custkey": "c_custkey"}),
        batch_format="pandas")
    ord_nat = bucketed_join(
        orders, cust, on="c_custkey", num_buckets=num_buckets,
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("c_custkey", pa.int64())]),
        right_schema=pa.schema([("c_custkey", pa.int64()),
                                ("cust_nation", pa.string())])
    ).map_batches(
        lambda t: t.select(["o_orderkey", "cust_nation"]).rename_columns(
            ["l_orderkey", "cust_nation"]), batch_format="pyarrow")

    joined = bucketed_join(
        li, ord_nat, on="l_orderkey", num_buckets=num_buckets,
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("l_suppkey", pa.int64()),
                               ("l_year", pa.int64()),
                               ("rev", pa.int64()),
                               ("supp_nation", pa.string())]),
        right_schema=pa.schema([("l_orderkey", pa.int64()),
                                ("cust_nation", pa.string())]))
    flows = joined.map_batches(
        lambda t: t.filter(pc.not_equal(t["supp_nation"], t["cust_nation"]))
        .select(["supp_nation", "cust_nation", "l_year", "rev"]),
        batch_format="pyarrow")
    agg = shuffle.group_agg(
        flows, ["supp_nation", "cust_nation", "l_year"],
        {"volume": ("rev", "sum")}, num_buckets=num_buckets)
    out = agg.to_pandas()
    if out.empty:  # empty Datasets drop column names through to_pandas
        out = pd.DataFrame({"supp_nation": pd.Series([], dtype=str),
                            "cust_nation": pd.Series([], dtype=str),
                            "l_year": pd.Series([], dtype=np.int64),
                            "volume": pd.Series([], dtype=np.float64)})
    out["volume"] = np.floor(out["volume"].to_numpy(np.float64)
                             / 100.0 + 0.5) / 100.0
    out = out.sort_values(["supp_nation", "cust_nation", "l_year"]
                          ).reset_index(drop=True)
    return ray.data.from_pandas(out)


def product_profit(sf_dir: str, name_word: str = "red",
                   num_buckets: int = shuffle.DEFAULT_BUCKETS,
                   ) -> ray.data.Dataset:
    """TPC-H-Q9-shaped "product type profit" adapted to the synthetic
    schema (no partsupp): for parts whose name contains ``name_word``,
    profit per (supplier nation, ship year) where the per-lineitem
    amount is revenue minus a retail-price-proportional cost
    ``rint(p_retailprice·10)·l_quantity/100`` (exact 2dp doubles).

    Scale shape: part filters at the read to (key, retailprice) and
    drives ONE bucketed join against lineitem on partkey (part scales
    with SF — never broadcast); the supplier→nation map is broadcast;
    year comes from l_shipdate so no orders join is needed.  Both
    amount terms are rounded to 2dp before the sum (integer-cent
    argument, see returned_item_report)."""
    from city2graph_ray.joins import broadcast_join

    nation = pd.read_parquet(f"{sf_dir}/nation.parquet",
                             columns=["n_nationkey", "n_name"])
    supp_map = (pd.read_parquet(f"{sf_dir}/supplier.parquet",
                                columns=["s_suppkey", "s_nationkey"])
                .merge(nation, left_on="s_nationkey",
                       right_on="n_nationkey")
                [["s_suppkey", "n_name"]]
                .rename(columns={"s_suppkey": "l_suppkey",
                                 "n_name": "nation"}))

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_name", "p_retailprice"]).map_batches(
        lambda b: pd.DataFrame({
            "l_partkey": b.loc[b["p_name"].str.contains(name_word),
                               "p_partkey"].to_numpy(np.int64),
            "p_retailprice": b.loc[b["p_name"].str.contains(name_word),
                                   "p_retailprice"]
            .to_numpy(np.float64)}),
        batch_format="pandas")

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_quantity",
                 "l_extendedprice", "l_discount", "l_shipdate"]
    ).map_batches(
        lambda b: pd.DataFrame({
            "l_partkey": b["l_partkey"].to_numpy(np.int64),
            "l_suppkey": b["l_suppkey"].to_numpy(np.int64),
            "l_quantity": b["l_quantity"].to_numpy(np.float64),
            # integer CENTS via floor(x*100+0.5): the identical
            # expression on both engines, so no half-even/half-away
            # divergence can enter the profit sum (Q22 technique).
            "rev_cents": np.floor(
                b["l_extendedprice"].to_numpy(np.float64) *
                (1.0 - b["l_discount"].to_numpy(np.float64)) * 100.0
                + 0.5).astype(np.int64),
            "l_year": b["l_shipdate"].dt.year.to_numpy(np.int64)}),
        batch_format="pandas")

    joined = bucketed_join(
        li, part, on="l_partkey", num_buckets=num_buckets,
        left_schema=pa.schema([("l_partkey", pa.int64()),
                               ("l_suppkey", pa.int64()),
                               ("l_quantity", pa.float64()),
                               ("rev_cents", pa.int64()),
                               ("l_year", pa.int64())]),
        right_schema=pa.schema([("l_partkey", pa.int64()),
                                ("p_retailprice", pa.float64())]))

    def amount(b: pd.DataFrame) -> pd.DataFrame:
        # retail prices sit on a 0.1 grid and quantities are integral,
        # so floor(p·10+0.5)·qty is an EXACT integer cent count on
        # both engines; the whole profit sum stays in int64.
        cost_cents = (np.floor(b["p_retailprice"].to_numpy(np.float64)
                               * 10.0 + 0.5).astype(np.int64) *
                      b["l_quantity"].to_numpy(np.float64)
                      .astype(np.int64))
        return pd.DataFrame({
            "l_suppkey": b["l_suppkey"].to_numpy(np.int64),
            "l_year": b["l_year"].to_numpy(np.int64),
            "cents": b["rev_cents"].to_numpy(np.int64) - cost_cents})

    flows = broadcast_join(joined.map_batches(amount,
                                              batch_format="pandas"),
                           supp_map, on="l_suppkey")
    agg = shuffle.group_agg(
        flows.map_batches(lambda b: b[["nation", "l_year", "cents"]],
                          batch_format="pandas"),
        ["nation", "l_year"], {"cent_sum": ("cents", "sum")},
        num_buckets=num_buckets)
    out = agg.to_pandas()
    if out.empty:
        out = pd.DataFrame({"nation": pd.Series([], dtype=str),
                            "l_year": pd.Series([], dtype=np.int64),
                            "cent_sum": pd.Series([], dtype=np.int64)})
    out["sum_profit"] = out.pop("cent_sum").to_numpy(np.int64) / 100.0
    out = out.sort_values(["nation", "l_year"],
                          ascending=[True, False]).reset_index(drop=True)
    return ray.data.from_pandas(out)


def top_supplier(sf_dir: str, date_from: str = "1996-01-01",
                 date_to: str = "1996-04-01",
                 num_buckets: int = shuffle.DEFAULT_BUCKETS,
                 ) -> ray.data.Dataset:
    """TPC-H-Q15-shaped "top supplier": the supplier(s) whose quarterly
    shipped revenue equals the global maximum.

    Scale shape: the keyed sum reduces lineitem to one row per
    supplier (partial per-batch combine first); the global max is a
    scalar off that supplier-sized table; the equality slice and the
    attribute join are driver-side on supplier-sized data.  Revenue is
    term-rounded then the per-supplier sum is rounded to 2dp BEFORE
    the max/equality, so both engines compare identical doubles."""
    lo = pd.Timestamp(date_from).to_datetime64()
    hi = pd.Timestamp(date_to).to_datetime64()

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount",
                 "l_shipdate"]).map_batches(
        lambda t: t.filter(pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                                   pc.less(t["l_shipdate"], hi))),
        batch_format="pyarrow").map_batches(
        lambda b: pd.DataFrame({
            "l_suppkey": b["l_suppkey"].to_numpy(np.int64),
            "rev": np.round(b["l_extendedprice"].to_numpy(np.float64) *
                            (1.0 - b["l_discount"].to_numpy(np.float64)),
                            2)}),
        batch_format="pandas")
    per_supp = shuffle.group_agg(
        li, ["l_suppkey"], {"total_revenue": ("rev", "sum")},
        num_buckets=num_buckets).to_pandas()
    per_supp["total_revenue"] = np.round(
        per_supp["total_revenue"].to_numpy(np.float64), 2)
    if per_supp.empty:
        return ray.data.from_pandas(pd.DataFrame({
            "s_suppkey": pd.Series([], dtype=np.int64),
            "s_name": pd.Series([], dtype=str),
            "total_revenue": pd.Series([], dtype=np.float64)}))
    best = per_supp["total_revenue"].max()
    winners = per_supp[per_supp["total_revenue"] == best]
    supp = pd.read_parquet(f"{sf_dir}/supplier.parquet",
                           columns=["s_suppkey", "s_name"])
    out = (winners.rename(columns={"l_suppkey": "s_suppkey"})
           .merge(supp, on="s_suppkey")
           [["s_suppkey", "s_name", "total_revenue"]]
           .sort_values("s_suppkey").reset_index(drop=True))
    return ray.data.from_pandas(out)


def small_quantity_revenue(sf_dir: str, brand: str = "Brand#12",
                           frac: float = 0.2, years: float = 7.0,
                           num_buckets: int = shuffle.DEFAULT_BUCKETS,
                           ) -> ray.data.Dataset:
    """TPC-H-Q17-shaped "small-quantity-order revenue": average yearly
    revenue lost if orders below ``frac`` of a part's mean quantity
    were not taken, for one brand.

    Scale shape: the brand slice of part is a key list that semi-joins
    lineitem via ONE bucketed join; the per-part mean quantity is a
    keyed (sum, count) over that slice (quantities are integral, so
    the sums — hence the threshold ``frac·sum/count`` — are exact
    doubles on both engines and the `<` decision cannot diverge); the
    per-part thresholds re-enter through a second bucketed join.  The
    final scalar is rounded at 2dp (near-integer cents) before the
    division by ``years``."""

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand"]).map_batches(
        lambda t: t.filter(pc.equal(t["p_brand"], brand))
        .select(["p_partkey"]), batch_format="pyarrow").map_batches(
        lambda b: b.rename(columns={"p_partkey": "l_partkey"}),
        batch_format="pandas")

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"])
    sliced = bucketed_join(
        li, part, on="l_partkey", num_buckets=num_buckets,
        left_schema=pa.schema([("l_partkey", pa.int64()),
                               ("l_quantity", pa.float64()),
                               ("l_extendedprice", pa.float64())]),
        right_schema=pa.schema([("l_partkey", pa.int64())])
    ).materialize()

    means = shuffle.group_agg(
        sliced, ["l_partkey"], {"qty_sum": ("l_quantity", "sum"),
                                "n": ("l_quantity", "size")},
        num_buckets=num_buckets).map_batches(
        lambda b, f=frac: pd.DataFrame({
            "l_partkey": b["l_partkey"].to_numpy(np.int64),
            "qty_cut": f * b["qty_sum"].to_numpy(np.float64) /
            b["n"].to_numpy(np.float64)}),
        batch_format="pandas")

    withcut = bucketed_join(
        sliced, means, on="l_partkey", num_buckets=num_buckets,
        left_schema=pa.schema([("l_partkey", pa.int64()),
                               ("l_quantity", pa.float64()),
                               ("l_extendedprice", pa.float64())]),
        right_schema=pa.schema([("l_partkey", pa.int64()),
                                ("qty_cut", pa.float64())]))
    parts = withcut.map_batches(
        lambda b: pd.DataFrame({"s": [np.round(
            b.loc[b["l_quantity"].to_numpy(np.float64) <
                  b["qty_cut"].to_numpy(np.float64),
                  "l_extendedprice"].to_numpy(np.float64), 2).sum()]}),
        batch_format="pandas").to_pandas()
    total = round(float(parts["s"].sum()), 2)
    return ray.data.from_pandas(pd.DataFrame({
        "avg_yearly": [round(total / years, 4)]}))


def disjunctive_revenue(sf_dir: str,
                        clauses: tuple = (("Brand#11", 1, 5, 1, 11),
                                          ("Brand#14", 1, 10, 10, 20),
                                          ("Brand#17", 1, 15, 20, 30)),
                        num_buckets: int = shuffle.DEFAULT_BUCKETS,
                        ) -> ray.data.Dataset:
    """TPC-H-Q19-shaped disjunctive-predicate revenue: one bucketed
    lineitem⋈part join, then a three-way OR of (brand, size-range,
    quantity-range) clauses evaluated vectorized per batch, reduced to
    a single term-rounded revenue scalar.  The part side is pre-pruned
    to rows matching ANY clause's (brand, size) so the join moves only
    candidate parts."""

    brands = {c[0] for c in clauses}

    def part_prune(b: pd.DataFrame) -> pd.DataFrame:
        keep = np.zeros(len(b), bool)
        for br, slo, shi, _, _ in clauses:
            keep |= ((b["p_brand"].to_numpy() == br) &
                     (b["p_size"].to_numpy(np.int64) >= slo) &
                     (b["p_size"].to_numpy(np.int64) <= shi))
        return pd.DataFrame({
            "l_partkey": b.loc[keep, "p_partkey"].to_numpy(np.int64),
            "p_brand": b.loc[keep, "p_brand"].astype(str),
            "p_size": b.loc[keep, "p_size"].to_numpy(np.int64)})

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_size"]).map_batches(
        part_prune, batch_format="pandas")
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice",
                 "l_discount"])
    joined = bucketed_join(
        li, part, on="l_partkey", num_buckets=num_buckets,
        left_schema=pa.schema([("l_partkey", pa.int64()),
                               ("l_quantity", pa.float64()),
                               ("l_extendedprice", pa.float64()),
                               ("l_discount", pa.float64())]),
        right_schema=pa.schema([("l_partkey", pa.int64()),
                                ("p_brand", pa.string()),
                                ("p_size", pa.int64())]))

    def clause_sum(b: pd.DataFrame) -> pd.DataFrame:
        qty = b["l_quantity"].to_numpy(np.float64)
        keep = np.zeros(len(b), bool)
        for br, slo, shi, qlo, qhi in clauses:
            keep |= ((b["p_brand"].to_numpy() == br) &
                     (b["p_size"].to_numpy(np.int64) >= slo) &
                     (b["p_size"].to_numpy(np.int64) <= shi) &
                     (qty >= qlo) & (qty <= qhi))
        # integer cents (floor(x·100+0.5) on both engines) — the sum
        # is exact int64, immune to round-mode and summation order.
        cents = np.floor(
            b.loc[keep, "l_extendedprice"].to_numpy(np.float64) *
            (1.0 - b.loc[keep, "l_discount"].to_numpy(np.float64))
            * 100.0 + 0.5).astype(np.int64)
        return pd.DataFrame({"s": [cents.sum()]})

    parts = joined.map_batches(clause_sum,
                               batch_format="pandas").to_pandas()
    return ray.data.from_pandas(pd.DataFrame({
        "revenue": [int(parts["s"].sum()) / 100.0]}))


def late_shipment_priority(sf_dir: str, late_days: int = 60,
                           high: tuple = ("1-URGENT", "2-HIGH"),
                           num_buckets: int = shuffle.DEFAULT_BUCKETS,
                           ) -> ray.data.Dataset:
    """TPC-H-Q12-shaped conditional aggregation adapted to the
    synthetic schema (no l_shipmode/l_receiptdate): among lineitems
    shipped more than ``late_days`` after their order date, count
    high- vs low-priority orders per return-flag class.

    Scale shape: ONE bucketed join on orderkey (orders reduced to
    key + a precomputed is-high bit and the order date), then the
    CASE-WHEN counts are per-batch integer partials merged by a
    3-row keyed sum."""

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate",
                 "o_orderpriority"]).map_batches(
        lambda b: pd.DataFrame({
            "l_orderkey": b["o_orderkey"].to_numpy(np.int64),
            "o_date": b["o_orderdate"].astype("datetime64[us]")
            .to_numpy().view("i8"),
            "is_high": b["o_orderpriority"].isin(list(high))
            .to_numpy().astype(np.int64)}),
        batch_format="pandas")
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_shipdate",
                 "l_returnflag"]).map_batches(
        lambda b: pd.DataFrame({
            "l_orderkey": b["l_orderkey"].to_numpy(np.int64),
            "s_date": b["l_shipdate"].astype("datetime64[us]")
            .to_numpy().view("i8"),
            "l_returnflag": b["l_returnflag"].astype(str)}),
        batch_format="pandas")

    joined = bucketed_join(
        li, orders, on="l_orderkey", num_buckets=num_buckets,
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("s_date", pa.int64()),
                               ("l_returnflag", pa.string())]),
        right_schema=pa.schema([("l_orderkey", pa.int64()),
                                ("o_date", pa.int64()),
                                ("is_high", pa.int64())]))

    late_us = np.int64(late_days) * 86400_000_000

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        late = (b["s_date"].to_numpy(np.int64) -
                b["o_date"].to_numpy(np.int64)) > late_us
        sel = b.loc[late]
        hi = sel["is_high"].to_numpy(np.int64)
        return (pd.DataFrame({"l_returnflag": sel["l_returnflag"],
                              "high_count": hi,
                              "low_count": 1 - hi})
                .groupby("l_returnflag", sort=False).sum()
                .reset_index())

    agg = shuffle.group_agg(
        joined.map_batches(partial, batch_format="pandas"),
        ["l_returnflag"], {"high_count": ("high_count", "sum"),
                           "low_count": ("low_count", "sum")},
        num_buckets=num_buckets, partial=False)
    out = agg.to_pandas()
    if out.empty:
        out = pd.DataFrame({"l_returnflag": pd.Series([], dtype=str),
                            "high_count": pd.Series([], dtype=np.int64),
                            "low_count": pd.Series([], dtype=np.int64)})
    return ray.data.from_pandas(
        out.sort_values("l_returnflag").reset_index(drop=True))


def important_parts(sf_dir: str, nations: tuple = (1, 3, 5),
                    frac_num: int = 12, frac_den: int | None = None,
                    num_buckets: int = shuffle.DEFAULT_BUCKETS,
                    ) -> ray.data.Dataset:
    """TPC-H-Q11-shaped "important stock" adapted (no partsupp): parts
    whose lineitem revenue from suppliers in ``nations`` exceeds
    ``frac_num/frac_den`` of that slice's total revenue.

    ``frac_den`` defaults to ``5 · #parts`` — the SCALE-AWARE form of
    TPC-H's 0.0001/SF convention (#parts ∝ SF, so the threshold stays
    ``frac_num``-fold above the average part share at every SF; at
    sf0.01 this is exactly the former fixed 12/10000, while the fixed
    denominator went degenerate-empty at sf0.1 — r5 finding, same
    class as the capped-wedge node space).

    Exactness: revenue rides integer cents (floor(x·100+0.5)); the
    HAVING threshold is the integer cross-product
    ``part_cents · frac_den > total_cents · frac_num`` — no float ever
    enters the membership decision (same device as Q22's threshold).
    Scale: supplier-key set broadcast (smallest dim), one keyed sum
    per partkey, the global total is a Python-int fold of per-batch
    partials (int64 overflow impossible on the driver)."""
    if frac_den is None:
        n_parts = ray.data.read_parquet(
            f"{sf_dir}/part.parquet", columns=["p_partkey"]).count()
        frac_den = 5 * n_parts
    supp = pd.read_parquet(f"{sf_dir}/supplier.parquet",
                           columns=["s_suppkey", "s_nationkey"])
    keys = set(supp.loc[supp["s_nationkey"].isin(list(nations)),
                        "s_suppkey"].tolist())

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey",
                 "l_extendedprice"]).map_batches(
        lambda b, ks=keys: (lambda m: pd.DataFrame({
            "l_partkey": b.loc[m, "l_partkey"].to_numpy(np.int64),
            "cents": np.floor(
                b.loc[m, "l_extendedprice"].to_numpy(np.float64)
                * 100.0 + 0.5).astype(np.int64)}))(
            b["l_suppkey"].isin(ks).to_numpy()),
        batch_format="pandas").materialize()

    per_part = shuffle.group_agg(
        li, ["l_partkey"], {"cent_sum": ("cents", "sum")},
        num_buckets=num_buckets)
    totals = li.map_batches(
        lambda b: pd.DataFrame({"s": [b["cents"].sum()]}),
        batch_format="pandas").to_pandas()
    total = int(totals["s"].sum())

    out = per_part.map_batches(
        lambda b, t=total, n=frac_num, d=frac_den:
            b[b["cent_sum"].to_numpy(np.int64).astype(object) * d
              > t * n], batch_format="pandas").to_pandas()
    if out.empty:
        out = pd.DataFrame({"l_partkey": pd.Series([], dtype=np.int64),
                            "cent_sum": pd.Series([], dtype=np.int64)})
    out["value"] = out.pop("cent_sum").to_numpy(np.int64) / 100.0
    return ray.data.from_pandas(
        out.sort_values(["value", "l_partkey"],
                        ascending=[False, True]).reset_index(drop=True))


def waiting_suppliers(sf_dir: str, late_days: int = 60, k: int = 20,
                      num_buckets: int = shuffle.DEFAULT_BUCKETS,
                      ) -> ray.data.Dataset:
    """TPC-H-Q21-shaped "suppliers who kept orders waiting" adapted
    (no l_commitdate/receiptdate — lateness is shipping more than
    ``late_days`` after the order date): for multi-supplier orders
    where EXACTLY ONE supplier shipped late, count such orders per
    late supplier; top-``k`` by (numwait DESC, s_name).

    Scale shape: one bucketed lineitem⋈orders join on orderkey, a
    per-(orderkey, suppkey) any-late reduction, then a per-orderkey
    reduction computing (supplier count, late count, conditional-min
    late supplier) in one keyed pass — the exists/not-exists pair of
    Q21 collapses into two counters and a sentinel-min, all mergeable
    aggregates.  The final per-supplier count is supplier-sized."""

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate"]).map_batches(
        lambda b: pd.DataFrame({
            "l_orderkey": b["o_orderkey"].to_numpy(np.int64),
            "o_date": b["o_orderdate"].astype("datetime64[us]")
            .to_numpy().view("i8")}),
        batch_format="pandas")
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate"]).map_batches(
        lambda b: pd.DataFrame({
            "l_orderkey": b["l_orderkey"].to_numpy(np.int64),
            "l_suppkey": b["l_suppkey"].to_numpy(np.int64),
            "s_date": b["l_shipdate"].astype("datetime64[us]")
            .to_numpy().view("i8")}),
        batch_format="pandas")

    joined = bucketed_join(
        li, orders, on="l_orderkey", num_buckets=num_buckets,
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("l_suppkey", pa.int64()),
                               ("s_date", pa.int64())]),
        right_schema=pa.schema([("l_orderkey", pa.int64()),
                                ("o_date", pa.int64())]))

    late_us = np.int64(late_days) * 86400_000_000
    sentinel = np.int64(2**62)

    per_os = shuffle.group_agg(
        joined.map_batches(
            lambda b: pd.DataFrame({
                "l_orderkey": b["l_orderkey"].to_numpy(np.int64),
                "l_suppkey": b["l_suppkey"].to_numpy(np.int64),
                "late": ((b["s_date"].to_numpy(np.int64) -
                          b["o_date"].to_numpy(np.int64)) > late_us)
                .astype(np.int64)}),
            batch_format="pandas"),
        ["l_orderkey", "l_suppkey"], {"any_late": ("late", "max")},
        num_buckets=num_buckets)

    per_o = shuffle.group_agg(
        per_os.map_batches(
            lambda b: pd.DataFrame({
                "l_orderkey": b["l_orderkey"].to_numpy(np.int64),
                "one": np.ones(len(b), np.int64),
                "is_late": b["any_late"].to_numpy(np.int64),
                "late_key": np.where(
                    b["any_late"].to_numpy(np.int64) == 1,
                    b["l_suppkey"].to_numpy(np.int64), sentinel)}),
            batch_format="pandas"),
        ["l_orderkey"], {"n_supp": ("one", "sum"),
                         "n_late": ("is_late", "sum"),
                         "late_supp": ("late_key", "min")},
        num_buckets=num_buckets)

    waits = per_o.map_batches(
        lambda b: pd.DataFrame({
            "s_suppkey": b.loc[
                (b["n_supp"].to_numpy(np.int64) > 1) &
                (b["n_late"].to_numpy(np.int64) == 1),
                "late_supp"].to_numpy(np.int64),
            "one": np.ones(int(((b["n_supp"].to_numpy(np.int64) > 1) &
                                (b["n_late"].to_numpy(np.int64) == 1))
                               .sum()), np.int64)}),
        batch_format="pandas")
    counts = shuffle.group_agg(
        waits, ["s_suppkey"], {"numwait": ("one", "sum")},
        num_buckets=num_buckets).to_pandas()
    if counts.empty:
        counts = pd.DataFrame({"s_suppkey": pd.Series([], dtype=np.int64),
                               "numwait": pd.Series([], dtype=np.int64)})
    supp = pd.read_parquet(f"{sf_dir}/supplier.parquet",
                           columns=["s_suppkey", "s_name"])
    out = (counts.merge(supp, on="s_suppkey")
           .sort_values(["numwait", "s_name"], ascending=[False, True])
           .head(k).reset_index(drop=True))
    return ray.data.from_pandas(out[["s_name", "numwait"]])


def market_share(sf_dir: str, target_nation: str = "NATION_12",
                 region: str = "ASIA", p_type: str = "PROMO",
                 date_from: str = "1995-01-01",
                 date_to: str = "1997-01-01",
                 num_buckets: int = shuffle.DEFAULT_BUCKETS,
                 ) -> ray.data.Dataset:
    """TPC-H-Q8-shaped "national market share": the fraction of
    one part-type's revenue (orders from customers in ``region``)
    supplied by ``target_nation``, per order year.

    Scale shape: part reduces to a key list at the read and drives a
    bucketed join; the supplier→nation map broadcasts; the
    region-filtered customer keys reduce orders through a bucketed
    join (customer scales with SF — not broadcast); the final ratio's
    numerator and denominator are integer cents, so both engines
    divide the SAME exact doubles (cent totals < 2^53) and the 6dp
    round cannot diverge."""
    from city2graph_ray.joins import broadcast_join

    lo = pd.Timestamp(date_from).to_datetime64()
    hi = pd.Timestamp(date_to).to_datetime64()

    nation = pd.read_parquet(f"{sf_dir}/nation.parquet")
    reg = pd.read_parquet(f"{sf_dir}/region.parquet")
    asia_keys = set(nation.merge(
        reg[reg["r_name"] == region], left_on="n_regionkey",
        right_on="r_regionkey")["n_nationkey"].tolist())
    supp_map = (pd.read_parquet(f"{sf_dir}/supplier.parquet",
                                columns=["s_suppkey", "s_nationkey"])
                .merge(nation[["n_nationkey", "n_name"]],
                       left_on="s_nationkey", right_on="n_nationkey")
                [["s_suppkey", "n_name"]]
                .rename(columns={"s_suppkey": "l_suppkey",
                                 "n_name": "supp_nation"}))

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_type"]).map_batches(
        lambda t: t.filter(pc.equal(t["p_type"], p_type))
        .select(["p_partkey"]), batch_format="pyarrow").map_batches(
        lambda b: b.rename(columns={"p_partkey": "l_partkey"}),
        batch_format="pandas")

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey"]).map_batches(
        lambda b, ks=asia_keys: pd.DataFrame({
            "c_custkey": b.loc[b["c_nationkey"].isin(ks),
                               "c_custkey"].to_numpy(np.int64)}),
        batch_format="pandas")
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        lambda t: t.filter(pc.and_(pc.greater_equal(t["o_orderdate"], lo),
                                   pc.less(t["o_orderdate"], hi))),
        batch_format="pyarrow").map_batches(
        lambda b: pd.DataFrame({
            "c_custkey": b["o_custkey"].to_numpy(np.int64),
            "l_orderkey": b["o_orderkey"].to_numpy(np.int64),
            "o_year": b["o_orderdate"].dt.year.to_numpy(np.int64)}),
        batch_format="pandas")
    ord_asia = bucketed_join(
        orders, cust, on="c_custkey", num_buckets=num_buckets,
        left_schema=pa.schema([("c_custkey", pa.int64()),
                               ("l_orderkey", pa.int64()),
                               ("o_year", pa.int64())]),
        right_schema=pa.schema([("c_custkey", pa.int64())])
    ).map_batches(lambda b: b[["l_orderkey", "o_year"]],
                  batch_format="pandas")

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey",
                 "l_extendedprice", "l_discount"]).map_batches(
        lambda b: pd.DataFrame({
            "l_orderkey": b["l_orderkey"].to_numpy(np.int64),
            "l_partkey": b["l_partkey"].to_numpy(np.int64),
            "l_suppkey": b["l_suppkey"].to_numpy(np.int64),
            "cents": np.floor(
                b["l_extendedprice"].to_numpy(np.float64) *
                (1.0 - b["l_discount"].to_numpy(np.float64)) * 100.0
                + 0.5).astype(np.int64)}),
        batch_format="pandas")
    li = bucketed_join(
        li, part, on="l_partkey", num_buckets=num_buckets,
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("l_partkey", pa.int64()),
                               ("l_suppkey", pa.int64()),
                               ("cents", pa.int64())]),
        right_schema=pa.schema([("l_partkey", pa.int64())]))
    li = broadcast_join(li, supp_map, on="l_suppkey")

    joined = bucketed_join(
        li.map_batches(
            lambda b, t=target_nation: pd.DataFrame({
                "l_orderkey": b["l_orderkey"].to_numpy(np.int64),
                "cents": b["cents"].to_numpy(np.int64),
                "nat_cents": np.where(
                    b["supp_nation"].to_numpy() == t,
                    b["cents"].to_numpy(np.int64), np.int64(0))}),
            batch_format="pandas"),
        ord_asia, on="l_orderkey", num_buckets=num_buckets,
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("cents", pa.int64()),
                               ("nat_cents", pa.int64())]),
        right_schema=pa.schema([("l_orderkey", pa.int64()),
                                ("o_year", pa.int64())]))

    agg = shuffle.group_agg(
        joined.map_batches(
            lambda b: b[["o_year", "cents", "nat_cents"]],
            batch_format="pandas"),
        ["o_year"], {"total": ("cents", "sum"),
                     "nat": ("nat_cents", "sum")},
        num_buckets=num_buckets)
    out = agg.to_pandas()
    if out.empty:
        out = pd.DataFrame({"o_year": pd.Series([], dtype=np.int64),
                            "total": pd.Series([], dtype=np.int64),
                            "nat": pd.Series([], dtype=np.int64)})
    out["mkt_share"] = np.round(
        out.pop("nat").to_numpy(np.int64).astype(np.float64) /
        out.pop("total").to_numpy(np.int64).astype(np.float64), 6)
    return ray.data.from_pandas(
        out.sort_values("o_year").reset_index(drop=True))


def min_cost_supplier(sf_dir: str, region: str = "ASIA",
                      size_lo: int = 10, size_hi: int = 30, k: int = 100,
                      num_buckets: int = shuffle.DEFAULT_BUCKETS,
                      ) -> ray.data.Dataset:
    """TPC-H-Q2-shaped minimum-cost supplier (adapted: this corpus has
    no partsupp, so the (part, supplier) supply cost is the MINIMUM
    lineitem price in integer cents over their shipments — a derived
    supply catalog with identical join/correlated-min shape).

    Per part in the size band, find the region's suppliers achieving
    the per-part minimum cost; report the top-``k`` by account balance
    (full deterministic tie-break: acctbal desc, n_name, s_name,
    p_partkey — (part, supp) pairs are unique so the order is total).

    Exactness: costs ride integer cents (floor(x·100+0.5)); the
    min-equality membership test is integer==integer.  Scale: region
    suppliers and nation names are broadcast dims; the part slice is a
    key-only semi filter (at 100 TB swap the set for a Bloom
    broadcast); the cost table shuffles ONCE keyed by partkey for both
    the per-part min and the winner equi-join (bucketed).
    """

    from city2graph_ray.joins import semi_filter

    nat = pd.read_parquet(f"{sf_dir}/nation.parquet")
    reg = pd.read_parquet(f"{sf_dir}/region.parquet")
    rkeys = reg.loc[reg["r_name"] == region, "r_regionkey"]
    nat = nat[nat["n_regionkey"].isin(rkeys)]
    supp = pd.read_parquet(f"{sf_dir}/supplier.parquet")
    rs = supp.merge(nat.rename(columns={"n_nationkey": "s_nationkey"}),
                    on="s_nationkey")[
        ["s_suppkey", "s_name", "s_acctbal", "n_name"]]

    part = pd.read_parquet(f"{sf_dir}/part.parquet",
                           columns=["p_partkey", "p_size"])
    pkeys = part.loc[part["p_size"].between(size_lo, size_hi),
                     "p_partkey"].to_numpy(np.int64)

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice"])
    li = semi_filter(li, set(rs["s_suppkey"].tolist()), "l_suppkey")
    li = semi_filter(li, pkeys, "l_partkey").map_batches(
        lambda b: pd.DataFrame({
            "l_partkey": b["l_partkey"].to_numpy(np.int64),
            "l_suppkey": b["l_suppkey"].to_numpy(np.int64),
            "cents": np.floor(b["l_extendedprice"].to_numpy(np.float64)
                              * 100.0 + 0.5).astype(np.int64)}),
        batch_format="pandas")

    # cost fans out (per-part min AND the winner join): pin it once —
    # without this the semi-filter lineage is duplicated per consumer
    cost = shuffle.group_agg(
        li, ["l_partkey", "l_suppkey"], {"cost_cents": ("cents", "min")},
        num_buckets=num_buckets).materialize()
    best = shuffle.group_agg(
        cost, ["l_partkey"], {"best_cents": ("cost_cents", "min")},
        num_buckets=num_buckets)
    i64 = pa.int64()
    winners = bucketed_join(
        cost, best, on="l_partkey", num_buckets=num_buckets,
        left_schema=pa.schema([("l_partkey", i64), ("l_suppkey", i64),
                               ("cost_cents", i64)]),
        right_schema=pa.schema([("l_partkey", i64), ("best_cents", i64)]),
    ).map_batches(
        lambda b: b.loc[b["cost_cents"].to_numpy(np.int64)
                        == b["best_cents"].to_numpy(np.int64),
                        ["l_partkey", "l_suppkey", "cost_cents"]],
        batch_format="pandas")

    out = winners.to_pandas().merge(
        rs.rename(columns={"s_suppkey": "l_suppkey"}), on="l_suppkey")
    if out.empty:
        out = pd.DataFrame({
            "s_acctbal": pd.Series([], dtype=np.float64),
            "s_name": pd.Series([], dtype=object),
            "n_name": pd.Series([], dtype=object),
            "p_partkey": pd.Series([], dtype=np.int64),
            "supply_cost": pd.Series([], dtype=np.float64)})
        return ray.data.from_pandas(out)
    out["s_acctbal"] = np.round(out["s_acctbal"].to_numpy(np.float64), 2)
    out["supply_cost"] = out.pop("cost_cents").to_numpy(np.int64) / 100.0
    out = out.rename(columns={"l_partkey": "p_partkey"})
    out = out.sort_values(["s_acctbal", "n_name", "s_name", "p_partkey"],
                          ascending=[False, True, True, True],
                          kind="stable").head(k)
    return ray.data.from_pandas(
        out[["s_acctbal", "s_name", "n_name", "p_partkey",
             "supply_cost"]].reset_index(drop=True))


def promotable_suppliers(sf_dir: str, name_prefix: str = "small",
                         date_from: str = "1996-01-01",
                         date_to: str = "1997-01-01",
                         region: str = "ASIA",
                         num_buckets: int = shuffle.DEFAULT_BUCKETS,
                         ) -> ray.data.Dataset:
    """TPC-H-Q20-shaped "potential part promotion" (adapted: no
    partsupp availqty — a supplier qualifies for a part when its
    shipped quantity of that ``name_prefix`` part INSIDE the window
    exceeds half its all-time shipped quantity of the part, i.e.
    ``2·qty_window > qty_total``; same two-level correlated-sum shape).

    Output: the qualifying suppliers of ``region``, (s_name, n_name),
    ordered by s_name.

    Exactness: quantities ride integer centi-units; the threshold is
    the integer cross-product.  Scale: ONE keyed sum over the pruned
    lineitem slice computes both window and total quantities (the
    window mask is a CASE column, not a second scan); supplier/nation
    dims broadcast; distinct suppliers ≪ corpus.
    """
    part = pd.read_parquet(f"{sf_dir}/part.parquet",
                           columns=["p_partkey", "p_name"])
    pkeys = part.loc[part["p_name"].str.startswith(name_prefix),
                     "p_partkey"].to_numpy(np.int64)

    from city2graph_ray.joins import semi_filter

    t0 = pd.Timestamp(date_from)
    t1 = pd.Timestamp(date_to)
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"])
    li = semi_filter(li, pkeys, "l_partkey").map_batches(
        lambda b: (lambda q, m: pd.DataFrame({
            "l_partkey": b["l_partkey"].to_numpy(np.int64),
            "l_suppkey": b["l_suppkey"].to_numpy(np.int64),
            "qwin": np.where(m, q, np.int64(0)),
            "qtot": q}))(
            np.floor(b["l_quantity"].to_numpy(np.float64) * 100.0
                     + 0.5).astype(np.int64),
            (b["l_shipdate"] >= t0).to_numpy()
            & (b["l_shipdate"] < t1).to_numpy()),
        batch_format="pandas")

    sums = shuffle.group_agg(
        li, ["l_partkey", "l_suppkey"],
        {"qwin": ("qwin", "sum"), "qtot": ("qtot", "sum")},
        num_buckets=num_buckets)
    qual = sums.map_batches(
        lambda b: b.loc[2 * b["qwin"].to_numpy(np.int64)
                        > b["qtot"].to_numpy(np.int64), ["l_suppkey"]],
        batch_format="pandas")
    sup_ids = shuffle.distinct(qual, ["l_suppkey"],
                               num_buckets=num_buckets).to_pandas()

    nat = pd.read_parquet(f"{sf_dir}/nation.parquet")
    reg = pd.read_parquet(f"{sf_dir}/region.parquet")
    rkeys = reg.loc[reg["r_name"] == region, "r_regionkey"]
    nat = nat[nat["n_regionkey"].isin(rkeys)]
    supp = pd.read_parquet(f"{sf_dir}/supplier.parquet")
    rs = supp.merge(nat.rename(columns={"n_nationkey": "s_nationkey"}),
                    on="s_nationkey")[["s_suppkey", "s_name", "n_name"]]

    out = (sup_ids.rename(columns={"l_suppkey": "s_suppkey"})
           .merge(rs, on="s_suppkey")[["s_name", "n_name"]]
           .sort_values("s_name", kind="stable").reset_index(drop=True))
    if out.empty:
        out = pd.DataFrame({"s_name": pd.Series([], dtype=object),
                            "n_name": pd.Series([], dtype=object)})
    return ray.data.from_pandas(out)


def rfm_segments(sf_dir: str, k: int = 5) -> ray.data.Dataset:
    """RFM (recency / frequency / monetary) customer segmentation
    (Hughes 1994, public literature) — the standard marketing-
    analytics scoring: each customer gets three ntile(k) ranks over
    (last order date DESC, order count DESC, lifetime cents DESC).

    Distributed shape: ONE customer-keyed fold produces the int64
    per-customer triple (max epoch-µs, count, Σcents); each score is a
    :func:`~city2graph_ray.shuffle.global_ntile` pass (block-sorted
    sample-ranged row numbers + a closed-form tile stamp — no full
    materialized sort on the driver); ties break on customer id so
    both sides assign identical tiles.  Output ``(cust, last_us,
    n_orders, cents, r_tile, f_tile, m_tile, rfm)`` with
    ``rfm = 100·r + 10·f + m``.
    """
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        us = b["o_orderdate"].astype("datetime64[us]").astype(np.int64)
        cents = np.floor(b["o_totalprice"].to_numpy(np.float64) * 100
                         + 0.5).astype(np.int64)
        g = (pd.DataFrame({"cust": b["o_custkey"].to_numpy(np.int64),
                           "last_us": us, "cents": cents,
                           "n_orders": np.ones(len(b), np.int64)})
             .groupby("cust", sort=False)
             .agg(last_us=("last_us", "max"), cents=("cents", "sum"),
                  n_orders=("n_orders", "sum")).reset_index())
        return g

    per_cust = shuffle.group_agg(
        orders.map_batches(partial, batch_format="pandas"),
        ["cust"], {"last_us": ("last_us", "max"),
                   "cents": ("cents", "sum"),
                   "n_orders": ("n_orders", "sum")})
    ds = shuffle.global_ntile(per_cust, ["last_us", "cust"], k,
                              descending=[True, False],
                              rn_col="__rn_r", out_col="r_tile")
    ds = shuffle.global_ntile(ds, ["n_orders", "cust"], k,
                              descending=[True, False],
                              rn_col="__rn_f", out_col="f_tile")
    ds = shuffle.global_ntile(ds, ["cents", "cust"], k,
                              descending=[True, False],
                              rn_col="__rn_m", out_col="m_tile")

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["rfm"] = (100 * b["r_tile"].to_numpy(np.int64)
                    + 10 * b["f_tile"].to_numpy(np.int64)
                    + b["m_tile"].to_numpy(np.int64))
        return b[["cust", "last_us", "n_orders", "cents",
                  "r_tile", "f_tile", "m_tile", "rfm"]]

    return ds.map_batches(finish, batch_format="pandas")


def last_touch_attribution(events: ray.data.Dataset,
                           conversion_type: str = "purchase",
                           ) -> ray.data.Dataset:
    """Last-touch conversion attribution — the standard marketing
    analytics allocation: each conversion's value is credited to the
    user's most recent touch event at or before the conversion
    (conversions with no prior touch fall into ``'none'``).

    Distributed shape: touches first reduce to one row per
    ``(user, ts)`` (largest event_id wins — as-of engines need a
    unique right side to be deterministic) through the keyed
    ``last_by`` shuffle; the credit assignment IS the distributed
    as-of join (:func:`~city2graph_ray.ops.asof.asof_join`, backward,
    exact matches allowed); the rollup is one ≤|types|-row keyed sum.
    Exactness: values quantize once to integer cents; counts and sums
    are int64.  Output ``(touch_type, n_conversions, total_cents)``.
    """
    from city2graph_ray.ops.asof import asof_join

    def split_conv(b: pd.DataFrame) -> pd.DataFrame:
        m = b["event_type"].to_numpy() == conversion_type
        c = b.loc[m]
        return pd.DataFrame({
            "user_id": c["user_id"].to_numpy(np.int64),
            "ts": c["ts"].to_numpy(),
            "cents": np.floor(c["value"].to_numpy(np.float64) * 100
                              + 0.5).astype(np.int64)})

    def split_touch(b: pd.DataFrame) -> pd.DataFrame:
        m = b["event_type"].to_numpy() != conversion_type
        t = b.loc[m]
        return pd.DataFrame({
            "user_id": t["user_id"].to_numpy(np.int64),
            "ts": t["ts"].to_numpy(),
            "event_id": t["event_id"].to_numpy(np.int64),
            "touch_type": t["event_type"].to_numpy()})

    conv = events.map_batches(split_conv, batch_format="pandas")
    touch = shuffle.last_by(
        events.map_batches(split_touch, batch_format="pandas"),
        ["user_id", "ts"], "event_id").map_batches(
            lambda b: b[["user_id", "ts", "touch_type"]],
            batch_format="pandas")
    joined = asof_join(conv, touch, on="ts", by="user_id",
                       direction="backward")

    def rollup(b: pd.DataFrame) -> pd.DataFrame:
        tt = b["touch_type"].astype(object).where(
            b["touch_type"].notna(), "none")
        g = (pd.DataFrame({"touch_type": tt,
                           "cents": b["cents"].to_numpy(np.int64)})
             .groupby("touch_type", sort=False)
             .agg(n_conversions=("cents", "size"),
                  total_cents=("cents", "sum")).reset_index())
        return g

    return shuffle.group_agg(
        joined.map_batches(rollup, batch_format="pandas"),
        ["touch_type"],
        {"n_conversions": ("n_conversions", "sum"),
         "total_cents": ("total_cents", "sum")}, num_buckets=1)
