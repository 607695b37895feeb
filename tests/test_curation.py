"""Curation operators: decontamination, stratified sampling, global
quantile cutoff, relational top-k — brute-force Python oracles."""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import ray.data as rd

from tests.conftest import SF_DIR, oracle_df


def _grams(text: str, n: int = 3) -> set[str]:
    t = text.split(" ")
    return {" ".join(t[i:i + n]) for i in range(len(t) - n + 1)}


def test_ngram_overlap_bruteforce():
    from city2graph_ray.text.decontam import ngram_overlap
    docs = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": ["a b c d e", "c d e f g", "x y z w q",
                 "a b c", "q", "d e f g h"]})
    bench = docs[docs["doc_id"] % 2 == 0]
    out = ngram_overlap(rd.from_pandas(docs), rd.from_pandas(bench),
                        n=3).to_pandas()
    bg = set().union(*(_grams(t) for t in bench["text"]))
    want = {int(r.doc_id): len(_grams(r.text) & bg)
            for r in docs.itertuples() if _grams(r.text) & bg}
    got = dict(zip(out["doc_id"].astype(int), out["hits"].astype(int)))
    assert got == want


def test_ngram_overlap_short_docs_no_grams():
    from city2graph_ray.text.decontam import word_ngram_hashes
    b = pd.DataFrame({"doc_id": [1, 2], "text": ["one two", "a b c d"]})
    out = word_ngram_hashes(b, 3, "text", "doc_id")
    assert set(out["doc_id"]) == {2}
    assert len(out) == 2  # "a b c", "b c d"


def test_stratified_sample_matches_md5_order():
    from city2graph_ray.text.analysis import stratified_sample
    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "doc_id": np.arange(200, dtype=np.int64),
        "lang": rng.choice(["en", "fr", "de"], 200)})
    out = stratified_sample(rd.from_pandas(df), ["lang"], 5).to_pandas()

    def h(i):
        return int.from_bytes(
            hashlib.md5(str(i).encode()).digest()[8:16], "little")

    for lang, sub in df.groupby("lang"):
        want = sub.assign(h=[h(i) for i in sub["doc_id"]]) \
            .sort_values(["h", "doc_id"]).head(5)["doc_id"].tolist()
        got = sorted(out[out["lang"] == lang]["doc_id"],
                     key=lambda i: (h(i), i))
        assert got == want


def test_global_quantile_matches_numpy():
    from city2graph_ray.ops.stats import (global_quantile,
                                          quantile_threshold_filter)
    rng = np.random.default_rng(11)
    v = rng.integers(10, 5000, 500)
    df = pd.DataFrame({"doc_id": np.arange(500, dtype=np.int64),
                       "n": v.astype(np.int64)})
    thr = global_quantile(rd.from_pandas(df), "n", 0.9)
    assert thr == float(np.quantile(v.astype(np.float64), 0.9,
                                    method="linear"))
    kept = quantile_threshold_filter(rd.from_pandas(df), "n",
                                     0.9, round_to=None).to_pandas()
    assert set(kept["doc_id"]) == set(df[df["n"] > thr]["doc_id"])


def test_shipping_priority_matches_duckdb():
    import duckdb

    from city2graph_ray.pipelines.relational import shipping_priority
    out = shipping_priority(SF_DIR).to_pandas()
    con = duckdb.connect()
    want = con.execute(f"""
        SELECT l_orderkey,
               round(sum(l_extendedprice * (1 - l_discount)), 4) AS revenue
        FROM read_parquet('{SF_DIR}/customer.parquet') c
        JOIN read_parquet('{SF_DIR}/orders.parquet') o
          ON c_custkey = o_custkey
        JOIN read_parquet('{SF_DIR}/lineitem.parquet') l
          ON l_orderkey = o_orderkey
        WHERE c_mktsegment = 'BUILDING'
          AND o_orderdate < DATE '1996-01-01'
          AND l_shipdate > DATE '1996-01-01'
        GROUP BY l_orderkey, o_orderdate, o_orderpriority
        ORDER BY revenue DESC, o_orderdate, l_orderkey LIMIT 10""").df()
    assert out["l_orderkey"].tolist() == want["l_orderkey"].tolist()
    assert np.allclose(out["revenue"], want["revenue"], atol=1e-9)


def test_revenue_forecast_matches_duckdb():
    import duckdb

    from city2graph_ray.pipelines.relational import revenue_forecast
    out = revenue_forecast(SF_DIR).to_pandas()
    want = duckdb.execute(f"""
        SELECT round(sum(l_extendedprice * l_discount), 2) AS revenue,
               count(*) AS rows
        FROM read_parquet('{SF_DIR}/lineitem.parquet')
        WHERE l_shipdate >= DATE '1995-01-01'
          AND l_shipdate < DATE '1996-01-01'
          AND l_discount BETWEEN 0.05 AND 0.07
          AND l_quantity < 24""").df()
    assert int(out["qualifying_rows"].iloc[0]) == int(want["rows"].iloc[0])
    assert abs(out["revenue"].iloc[0] - want["revenue"].iloc[0]) < 1e-6


def test_large_volume_orders_matches_duckdb():
    import duckdb

    from city2graph_ray.pipelines.relational import large_volume_orders
    out = large_volume_orders(SF_DIR).to_pandas()
    want = duckdb.execute(f"""
        WITH q AS (
          SELECT l_orderkey, round(sum(l_quantity), 4) AS sum_qty
          FROM read_parquet('{SF_DIR}/lineitem.parquet')
          GROUP BY l_orderkey HAVING round(sum(l_quantity), 4) > 250)
        SELECT c_name, c_custkey, o_orderkey, o_orderdate,
               o_totalprice, sum_qty
        FROM q
        JOIN read_parquet('{SF_DIR}/orders.parquet') o
          ON o_orderkey = q.l_orderkey
        JOIN read_parquet('{SF_DIR}/customer.parquet') c
          ON c_custkey = o_custkey
        ORDER BY o_totalprice DESC, o_orderdate, o_orderkey
        LIMIT 100""").df()
    assert out["o_orderkey"].tolist() == want["o_orderkey"].tolist()
    assert out["c_name"].tolist() == want["c_name"].tolist()
    assert np.allclose(out["sum_qty"], want["sum_qty"])
    # empty-qualifier edge case: impossible threshold -> 0 rows with the
    # full typed schema (Dataset.to_pandas drops columns when empty, so
    # assert on the dataset schema)
    empty = large_volume_orders(SF_DIR, min_qty=1e9)
    assert empty.count() == 0
    assert empty.schema().names == ["c_name", "c_custkey", "o_orderkey",
                                    "o_orderdate", "o_totalprice", "sum_qty"]


def test_order_priority_check_matches_duckdb():
    import duckdb

    from city2graph_ray.pipelines.relational import order_priority_check
    out = (order_priority_check(SF_DIR).to_pandas()
           .sort_values("o_orderpriority").reset_index(drop=True))
    want = duckdb.execute(f"""
        SELECT o_orderpriority, count(*) AS order_count
        FROM read_parquet('{SF_DIR}/orders.parquet')
        WHERE o_orderdate >= DATE '1995-01-01'
          AND o_orderdate < DATE '1995-07-01'
          AND EXISTS (SELECT 1
                      FROM read_parquet('{SF_DIR}/lineitem.parquet')
                      WHERE l_orderkey = o_orderkey
                        AND l_returnflag = 'R')
        GROUP BY o_orderpriority
        ORDER BY o_orderpriority""").df()
    assert out["o_orderpriority"].tolist() == \
        want["o_orderpriority"].tolist()
    assert out["order_count"].tolist() == want["order_count"].tolist()
    # empty date window -> zero groups, schema intact
    empty = order_priority_check(SF_DIR, date_from="2050-01-01",
                                 date_to="2050-02-01")
    assert empty.count() == 0


def test_returned_item_report_matches_duckdb():
    from city2graph_ray.pipelines.relational import returned_item_report
    out = returned_item_report(SF_DIR).to_pandas()
    want = oracle_df("tpch_q10_returns")
    assert out["c_custkey"].tolist() == want["c_custkey"].tolist()
    assert np.array_equal(out["revenue"].to_numpy(),
                          want["revenue"].to_numpy())
    assert out["n_name"].tolist() == want["n_name"].tolist()


def test_promo_revenue_matches_duckdb():
    import duckdb

    from city2graph_ray.pipelines.relational import promo_revenue
    out = promo_revenue(SF_DIR).to_pandas()
    want = duckdb.execute(f"""
        SELECT round(100.0 * sum(CASE WHEN p_type LIKE 'PROMO%'
                     THEN l_extendedprice * (1 - l_discount)
                     ELSE 0 END)
               / sum(l_extendedprice * (1 - l_discount)), 4) AS pct
        FROM read_parquet('{SF_DIR}/lineitem.parquet') li
        JOIN read_parquet('{SF_DIR}/part.parquet') p
          ON p_partkey = l_partkey""").df()
    assert out["promo_pct"].iloc[0] == want["pct"].iloc[0]


def _remove_spans_brute(docs: pd.DataFrame, n: int) -> pd.DataFrame:
    """Driver oracle: owner of a gram = min doc_id containing it;
    tokens covered by a non-owner occurrence are deleted."""
    toks = {int(r.doc_id): r.text.split(" ") for r in docs.itertuples()}
    owner: dict[str, int] = {}
    for d in sorted(toks):
        t = toks[d]
        for i in range(len(t) - n + 1):
            owner.setdefault(" ".join(t[i:i + n]), d)
    rows = []
    for d in sorted(toks):
        t = toks[d]
        cov = [False] * len(t)
        for i in range(len(t) - n + 1):
            if owner[" ".join(t[i:i + n])] < d:
                for k in range(i, i + n):
                    cov[k] = True
        rows.append({"doc_id": d,
                     "text_clean": " ".join(w for w, c in zip(t, cov)
                                            if not c),
                     "n_removed": sum(cov)})
    return pd.DataFrame(rows)


def test_remove_duplicated_spans_bruteforce():
    from city2graph_ray.text.decontam import remove_duplicated_spans
    rng = np.random.default_rng(5)
    vocab = np.array(["a", "b", "c", "d", "e"])
    texts = [" ".join(rng.choice(vocab, size=rng.integers(1, 25)))
             for _ in range(30)]
    texts += ["x y z w q r", "x y z w q r",      # full dup pair
              "only unique tokens here zz"]
    docs = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                         "text": texts})
    out = (remove_duplicated_spans(rd.from_pandas(docs), n=3,
                                   num_buckets=8)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    want = _remove_spans_brute(docs, 3)
    pd.testing.assert_frame_equal(
        out[["doc_id", "text_clean", "n_removed"]], want)
    # the later copy of the full-dup pair is wiped entirely
    assert out.loc[out["doc_id"] == 31, "text_clean"].iloc[0] == ""
    assert out.loc[out["doc_id"] == 30, "text_clean"].iloc[0] == "x y z w q r"
    # unique doc untouched
    assert out.loc[out["doc_id"] == 32, "n_removed"].iloc[0] == 0


def test_remove_duplicated_spans_edges():
    from city2graph_ray.text.decontam import remove_duplicated_spans
    # docs shorter than n, empty text, single doc corpus
    docs = pd.DataFrame({"doc_id": np.array([0, 1, 2], dtype=np.int64),
                         "text": ["", "ab", "ab"]})
    out = (remove_duplicated_spans(rd.from_pandas(docs), n=3,
                                   num_buckets=4)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["n_removed"].tolist() == [0, 0, 0]
    assert out["text_clean"].tolist() == ["", "ab", "ab"]
    one = (remove_duplicated_spans(
        rd.from_pandas(docs.iloc[:1]), n=2, num_buckets=4).to_pandas())
    assert len(one) == 1 and one["n_removed"].iloc[0] == 0


def test_mask_pii_semantics():
    from city2graph_ray.text.pii import mask_pii
    docs = pd.DataFrame({
        "doc_id": np.arange(5, dtype=np.int64),
        "text": ["mail me at a.b+c@site.co.uk today",
                 "server 192.168.0.1 and 10.0.0.255 up",
                 "call +1 555-0147 or 020 7946 0958 now",
                 "no pii here at all",
                 "x@y.org from 1.2.3.4 dial +44 20 7946 0958"]})
    out = (mask_pii(rd.from_pandas(docs)).to_pandas()
           .set_index("doc_id").sort_index())
    assert out.loc[0, "text_masked"] == "mail me at <EMAIL> today"
    assert out.loc[0, "n_email"] == 1 and out.loc[0, "n_ipv4"] == 0
    assert out.loc[1, "text_masked"] == "server <IP> and <IP> up"
    assert out.loc[1, "n_ipv4"] == 2
    assert out.loc[2, "n_phone"] == 2
    assert "<PHONE>" in out.loc[2, "text_masked"]
    assert out.loc[3, "text_masked"] == "no pii here at all"
    assert (out.loc[3, ["n_email", "n_ipv4", "n_phone"]] == 0).all()
    # all three kinds in one doc, masked in order (email, ip, phone)
    assert out.loc[4, "text_masked"] == "<EMAIL> from <IP> dial <PHONE>"
    # original column preserved alongside
    assert out.loc[4, "text"].startswith("x@y.org")


def test_self_overlap_bruteforce():
    from city2graph_ray.text.decontam import self_overlap
    docs = pd.DataFrame({
        "doc_id": np.arange(5, dtype=np.int64),
        "text": ["a b c d e", "z a b c d", "x y z w q",
                 "a b c q r s", "m n o p"]})
    out = self_overlap(rd.from_pandas(docs), n=3).to_pandas()
    gs = {int(r.doc_id): _grams(r.text) for r in docs.itertuples()}
    want = {}
    for i, g in gs.items():
        others = set().union(*(v for j, v in gs.items() if j != i))
        if g & others:
            want[i] = len(g & others)
    got = dict(zip(out["doc_id"].astype(int),
                   out["shared_grams"].astype(int)))
    assert got == want


def test_unigram_logprob_bruteforce():
    import math

    from city2graph_ray.text.analysis import unigram_logprob
    docs = pd.DataFrame({
        "doc_id": np.arange(4, dtype=np.int64),
        "text": ["a b a", "b c", "a a a a", "c c b a"]})
    out = (unigram_logprob(rd.from_pandas(docs)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    all_toks = [t for s in docs["text"] for t in s.split(" ")]
    total = len(all_toks)
    cnt = pd.Series(all_toks).value_counts()
    for i, r in out.iterrows():
        toks = docs["text"].iloc[i].split(" ")
        want = round(sum(math.log(cnt[t] / total) for t in toks)
                     / len(toks), 6)
        assert r["n_tokens"] == len(toks)
        assert abs(r["logprob"] - want) < 2e-6


def test_heuristic_filter_bruteforce():
    from city2graph_ray.text.analysis import heuristic_filter
    docs = pd.DataFrame({
        "doc_id": np.arange(4, dtype=np.int64),
        "text": ["aa bb cc", "bad word here", "x" * 50,
                 "one two three four five"]})
    out = (heuristic_filter(rd.from_pandas(docs), min_words=3,
                            max_words=10, min_mwl=2.0, max_mwl=4.0,
                            blocklist=("bad",)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    for i, r in out.iterrows():
        t = docs["text"].iloc[i]
        words = t.split(" ")
        mwl = round(sum(len(w) for w in words) / len(words), 6)
        blocked = "bad" in words
        kept = (3 <= len(words) <= 10 and 2.0 <= mwl <= 4.0
                and not blocked)
        assert r["n_words"] == len(words)
        assert r["mean_word_len"] == mwl
        assert bool(r["blocked"]) == blocked
        assert bool(r["kept"]) == kept, t


def test_curate_documents_bruteforce():
    from city2graph_ray.pipelines.curation import curate_documents
    rng = np.random.default_rng(11)
    vocab = ["alpha", "beta", "gamma", "delta", "bad"]
    texts = [" ".join(rng.choice(vocab, rng.integers(3, 12)))
             for _ in range(60)]
    texts += texts[:5]  # exact duplicates
    docs = pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64),
        "text": texts,
        "source": "s", "lang": "en",
        "n_chars": [len(t) for t in texts]})
    blocked = docs.loc[docs["doc_id"] % 5 == 0, ["doc_id"]]
    out = curate_documents(
        rd.from_pandas(docs), min_words=4, max_words=10,
        min_mwl=3.0, max_mwl=6.0, blocklist=("bad",),
        blocked_ids=rd.from_pandas(blocked),
        overlap_n=3, max_shared_grams=2).to_pandas()

    # brute-force twin
    def words(t):
        return t.split(" ")

    gated = docs[[4 <= len(words(t)) <= 10
                  and 3.0 <= round(sum(map(len, words(t)))
                                   / len(words(t)), 6) <= 6.0
                  and "bad" not in words(t)
                  for t in docs["text"]]]
    surv = gated.loc[gated.groupby("text")["doc_id"].idxmin()]
    cur = surv[surv["doc_id"] % 5 != 0]
    gr = {int(r.doc_id): {" ".join(words(r.text)[i:i + 3])
                          for i in range(len(words(r.text)) - 2)}
          for r in cur.itertuples()}
    keep = []
    for i, g in gr.items():
        others = set().union(*(v for j, v in gr.items() if j != i)) \
            if len(gr) > 1 else set()
        if len(g & others) <= 2:
            keep.append(i)
    assert sorted(out["doc_id"]) == sorted(keep)
    assert sorted(out.columns) == ["doc_id", "lang", "n_chars", "source"]
