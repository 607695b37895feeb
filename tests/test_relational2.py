"""DuckDB twins for the session-5 relational pipelines (Q7/Q9/Q15/
Q17/Q19 shapes) at sf0.001 — the gate re-runs the same comparisons at
sf0.01."""

import duckdb
import numpy as np

from tests.conftest import SF_DIR, oracle_df


def _con():
    con = duckdb.connect()
    for t in ["lineitem", "orders", "customer", "supplier", "part",
              "nation"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF_DIR}/{t}.parquet')")
    return con


def test_volume_shipping_matches_duckdb():
    from city2graph_ray.pipelines.relational import volume_shipping
    out = volume_shipping(SF_DIR).to_pandas()
    want = oracle_df("tpch_q7_volume")
    assert out["volume"].tolist() == want["volume"].tolist()
    assert out["supp_nation"].tolist() == want["supp_nation"].tolist()


def test_product_profit_matches_duckdb():
    from city2graph_ray.pipelines.relational import product_profit
    out = product_profit(SF_DIR).to_pandas()
    want = _con().execute("""
        SELECT nation, l_year, sum(cents)/100.0 AS sum_profit
        FROM (SELECT n_name nation, year(l_shipdate) l_year,
                     CAST(floor(l_extendedprice*(1-l_discount)*100
                                + 0.5) AS BIGINT)
                     - CAST(floor(p_retailprice*10+0.5) AS BIGINT)
                       * CAST(l_quantity AS BIGINT) AS cents
              FROM lineitem JOIN part ON p_partkey = l_partkey
              JOIN supplier ON s_suppkey = l_suppkey
              JOIN nation ON n_nationkey = s_nationkey
              WHERE p_name LIKE '%red%')
        GROUP BY 1,2 ORDER BY nation, l_year DESC""").df()
    assert out["sum_profit"].tolist() == want["sum_profit"].tolist()
    assert out["l_year"].tolist() == want["l_year"].tolist()


def test_top_supplier_matches_duckdb():
    from city2graph_ray.pipelines.relational import top_supplier
    out = top_supplier(SF_DIR).to_pandas()
    want = _con().execute("""
        WITH r AS (SELECT l_suppkey s_suppkey,
                          round(sum(round(l_extendedprice
                                          *(1-l_discount),2)),2)
                            AS total_revenue
                   FROM lineitem
                   WHERE l_shipdate >= DATE '1996-01-01'
                     AND l_shipdate < DATE '1996-04-01'
                   GROUP BY 1)
        SELECT s.s_suppkey, s_name, total_revenue
        FROM r JOIN supplier s USING (s_suppkey)
        WHERE total_revenue = (SELECT max(total_revenue) FROM r)
        ORDER BY s.s_suppkey""").df()
    assert out["s_suppkey"].tolist() == want["s_suppkey"].tolist()
    assert out["total_revenue"].tolist() == want["total_revenue"].tolist()


def test_small_quantity_revenue_matches_duckdb():
    from city2graph_ray.pipelines.relational import small_quantity_revenue
    out = small_quantity_revenue(SF_DIR).to_pandas()
    want = _con().execute("""
        WITH sliced AS (SELECT l_partkey, l_quantity, l_extendedprice
                        FROM lineitem JOIN part
                          ON p_partkey = l_partkey
                        WHERE p_brand = 'Brand#12'),
        cuts AS (SELECT l_partkey,
                        0.2*sum(l_quantity)/count(*) AS qty_cut
                 FROM sliced GROUP BY 1)
        SELECT round(round(sum(round(l_extendedprice,2)),2)/7.0, 4)
          AS avg_yearly
        FROM sliced JOIN cuts USING (l_partkey)
        WHERE l_quantity < qty_cut""").df()
    got = out["avg_yearly"].iloc[0]
    exp = want["avg_yearly"].iloc[0]
    if np.isnan(exp):  # brand slice can be all-above-cut at tiny sf
        assert got == 0.0
    else:
        assert got == exp


def test_disjunctive_revenue_matches_duckdb():
    from city2graph_ray.pipelines.relational import disjunctive_revenue
    out = disjunctive_revenue(SF_DIR).to_pandas()
    want = _con().execute("""
        SELECT coalesce(sum(CAST(floor(l_extendedprice*(1-l_discount)
                                       *100+0.5) AS BIGINT)),0)/100.0
          AS revenue
        FROM lineitem JOIN part ON p_partkey = l_partkey
        WHERE (p_brand='Brand#11' AND p_size BETWEEN 1 AND 5
               AND l_quantity BETWEEN 1 AND 11)
           OR (p_brand='Brand#14' AND p_size BETWEEN 1 AND 10
               AND l_quantity BETWEEN 10 AND 20)
           OR (p_brand='Brand#17' AND p_size BETWEEN 1 AND 15
               AND l_quantity BETWEEN 20 AND 30)""").df()
    assert out["revenue"].iloc[0] == want["revenue"].iloc[0]


def test_late_shipment_priority_matches_duckdb():
    from city2graph_ray.pipelines.relational import late_shipment_priority
    out = late_shipment_priority(SF_DIR).to_pandas()
    want = _con().execute("""
        SELECT l_returnflag,
               sum(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH')
                   THEN 1 ELSE 0 END) AS high_count,
               sum(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH')
                   THEN 0 ELSE 1 END) AS low_count
        FROM lineitem JOIN orders ON o_orderkey = l_orderkey
        WHERE l_shipdate > o_orderdate + INTERVAL 60 DAY
        GROUP BY 1 ORDER BY 1""").df()
    assert out["l_returnflag"].tolist() == want["l_returnflag"].tolist()
    assert out["high_count"].tolist() == want["high_count"].tolist()
    assert out["low_count"].tolist() == want["low_count"].tolist()


def test_important_parts_matches_duckdb():
    from city2graph_ray.pipelines.relational import important_parts
    out = important_parts(SF_DIR).to_pandas()
    want = oracle_df("tpch_q11_important")
    assert len(out) > 0  # threshold chosen to be non-trivial here
    assert out["l_partkey"].tolist() == want["l_partkey"].tolist()
    assert out["value"].tolist() == want["value"].tolist()


def test_waiting_suppliers_matches_duckdb():
    from city2graph_ray.pipelines.relational import waiting_suppliers
    out = waiting_suppliers(SF_DIR).to_pandas()
    want = _con().execute("""
        WITH j AS (SELECT l_orderkey, l_suppkey,
                          max(CASE WHEN l_shipdate >
                                   o_orderdate + INTERVAL 60 DAY
                              THEN 1 ELSE 0 END) AS any_late
                   FROM lineitem JOIN orders
                     ON o_orderkey = l_orderkey GROUP BY 1,2),
        o AS (SELECT l_orderkey, count(*) n_supp, sum(any_late) n_late,
                     min(CASE WHEN any_late=1 THEN l_suppkey END)
                       late_supp
              FROM j GROUP BY 1)
        SELECT s_name, count(*) AS numwait
        FROM o JOIN supplier ON s_suppkey = late_supp
        WHERE n_supp > 1 AND n_late = 1
        GROUP BY 1 ORDER BY numwait DESC, s_name LIMIT 20""").df()
    assert out["s_name"].tolist() == want["s_name"].tolist()
    assert out["numwait"].tolist() == want["numwait"].tolist()


def test_market_share_matches_duckdb():
    from city2graph_ray.pipelines.relational import market_share
    out = market_share(SF_DIR).to_pandas()
    con = _con()
    con.execute(f"CREATE VIEW region AS SELECT * FROM "
                f"read_parquet('{SF_DIR}/region.parquet')")
    want = con.execute("""
        WITH base AS (
          SELECT year(o_orderdate) AS o_year,
                 CAST(floor(l_extendedprice*(1-l_discount)*100+0.5)
                      AS BIGINT) AS cents,
                 ns.n_name AS supp_nation
          FROM lineitem
          JOIN part ON p_partkey = l_partkey
          JOIN supplier s ON s_suppkey = l_suppkey
          JOIN nation ns ON ns.n_nationkey = s.s_nationkey
          JOIN orders ON o_orderkey = l_orderkey
          JOIN customer c ON c_custkey = o_custkey
          JOIN nation nc ON nc.n_nationkey = c.c_nationkey
          JOIN region ON r_regionkey = nc.n_regionkey
          WHERE p_type = 'PROMO' AND r_name = 'ASIA'
            AND o_orderdate >= DATE '1995-01-01'
            AND o_orderdate < DATE '1997-01-01')
        SELECT o_year,
               round(CAST(sum(CASE WHEN supp_nation='NATION_12'
                              THEN cents ELSE 0 END) AS DOUBLE)
                     / CAST(sum(cents) AS DOUBLE), 6) AS mkt_share
        FROM base GROUP BY 1 ORDER BY 1""").df()
    assert len(out) > 0
    assert out["o_year"].tolist() == want["o_year"].tolist()
    assert out["mkt_share"].tolist() == want["mkt_share"].tolist()


def test_min_cost_supplier_matches_duckdb():
    from city2graph_ray.pipelines.relational import min_cost_supplier
    out = min_cost_supplier(SF_DIR).to_pandas()
    con = _con()
    con.execute(f"CREATE VIEW region AS SELECT * FROM "
                f"read_parquet('{SF_DIR}/region.parquet')")
    want = con.execute("""
        WITH rs AS (
          SELECT s_suppkey, s_name, round(s_acctbal, 2) AS s_acctbal,
                 n_name
          FROM supplier JOIN nation ON n_nationkey = s_nationkey
          JOIN region ON r_regionkey = n_regionkey
          WHERE r_name = 'ASIA'),
        cost AS (
          SELECT l_partkey, l_suppkey,
                 min(CAST(floor(l_extendedprice*100+0.5) AS BIGINT))
                   AS cost_cents
          FROM lineitem JOIN part ON p_partkey = l_partkey
          JOIN rs ON s_suppkey = l_suppkey
          WHERE p_size BETWEEN 10 AND 30
          GROUP BY 1, 2),
        best AS (SELECT l_partkey, min(cost_cents) AS best_cents
                 FROM cost GROUP BY 1)
        SELECT s_acctbal, s_name, n_name, l_partkey AS p_partkey,
               cost_cents / 100.0 AS supply_cost
        FROM cost JOIN best USING (l_partkey)
        JOIN rs ON rs.s_suppkey = cost.l_suppkey
        WHERE cost_cents = best_cents
        ORDER BY s_acctbal DESC, n_name, s_name, p_partkey
        LIMIT 100""").df()
    assert len(out) > 0
    for c in ["s_acctbal", "s_name", "n_name", "p_partkey",
              "supply_cost"]:
        assert out[c].tolist() == want[c].tolist(), c


def test_promotable_suppliers_matches_duckdb():
    from city2graph_ray.pipelines.relational import promotable_suppliers
    out = promotable_suppliers(SF_DIR).to_pandas()
    con = _con()
    con.execute(f"CREATE VIEW region AS SELECT * FROM "
                f"read_parquet('{SF_DIR}/region.parquet')")
    want = con.execute("""
        WITH q AS (
          SELECT l_partkey, l_suppkey,
                 sum(CASE WHEN l_shipdate >= DATE '1996-01-01'
                           AND l_shipdate < DATE '1997-01-01'
                      THEN CAST(floor(l_quantity*100+0.5) AS BIGINT)
                      ELSE 0 END) AS qwin,
                 sum(CAST(floor(l_quantity*100+0.5) AS BIGINT)) AS qtot
          FROM lineitem JOIN part ON p_partkey = l_partkey
          WHERE p_name LIKE 'small%'
          GROUP BY 1, 2),
        s AS (SELECT DISTINCT l_suppkey FROM q WHERE 2*qwin > qtot)
        SELECT s_name, n_name
        FROM s JOIN supplier ON s_suppkey = l_suppkey
        JOIN nation ON n_nationkey = s_nationkey
        JOIN region ON r_regionkey = n_regionkey
        WHERE r_name = 'ASIA' ORDER BY s_name""").df()
    assert len(out) > 0
    assert out["s_name"].tolist() == want["s_name"].tolist()
    assert out["n_name"].tolist() == want["n_name"].tolist()
