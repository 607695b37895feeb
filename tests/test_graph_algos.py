"""PageRank / degree-histogram / bloom-blocklist vs brute-force and
cross-strategy oracles."""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd


def _edges(n_edges: int = 60, n_nodes: int = 15,
           seed: int = 7) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    df = pd.DataFrame({
        "src": rng.integers(0, n_nodes, n_edges).astype(np.int64),
        "dst": rng.integers(0, n_nodes, n_edges).astype(np.int64)})
    return df.drop_duplicates().reset_index(drop=True)


def _pagerank_numpy(df: pd.DataFrame, iters: int = 5, d: float = 0.85,
                    q: int = 10) -> dict[int, float]:
    nodes = np.unique(np.concatenate([df["src"], df["dst"]]))
    n = len(nodes)
    pos = {v: i for i, v in enumerate(nodes)}
    deg = np.zeros(n)
    for s in df["src"]:
        deg[pos[s]] += 1
    r = np.full(n, round(1.0 / n, q))
    for _ in range(iters):
        s = np.zeros(n)
        for a, b in zip(df["src"], df["dst"]):
            s[pos[b]] += r[pos[a]] / deg[pos[a]]
        r = np.round(0.15 / n + d * s, q)
    return {int(v): round(float(r[pos[v]]), 6) for v in nodes}


def test_pagerank_broadcast_matches_numpy():
    from city2graph_ray.ops.graph_algos import pagerank
    df = _edges()
    out = pagerank(rd.from_pandas(df), num_iters=5).to_pandas()
    got = dict(zip(out["node"].astype(int), out["rank"]))
    want = _pagerank_numpy(df)
    assert got.keys() == want.keys()
    for k in want:
        assert abs(got[k] - want[k]) < 1e-9, k


def test_pagerank_join_strategy_agrees(distributed):
    from city2graph_ray.ops.graph_algos import pagerank
    df = _edges(40, 10)
    a = (pagerank(rd.from_pandas(df), num_iters=3).to_pandas()
         .sort_values("node").reset_index(drop=True))
    with distributed():
        b = (pagerank(rd.from_pandas(df), num_iters=3,
                      num_buckets=2).to_pandas()
             .sort_values("node").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


def test_degree_histogram():
    from city2graph_ray.ops.graph_algos import degree_histogram
    df = _edges()
    out = degree_histogram(rd.from_pandas(df)).to_pandas()
    ends = pd.concat([df["src"], df["dst"]])
    want = ends.value_counts().value_counts().sort_index()
    got = dict(zip(out["degree"].astype(int), out["n_nodes"].astype(int)))
    assert got == dict(zip(want.index.astype(int), want.astype(int)))


def test_blocklist_filter_exact_despite_bloom():
    from city2graph_ray.text.blocklist import blocklist_filter
    docs = pd.DataFrame({"doc_id": np.arange(500, dtype=np.int64),
                         "v": np.arange(500) * 2})
    blocked = pd.DataFrame({"doc_id": np.arange(0, 500, 7,
                                                dtype=np.int64)})
    # tiny bloom (64 bits) → false positives guaranteed; the exact
    # confirm join must still produce the precise anti-join result
    out = blocklist_filter(rd.from_pandas(docs), rd.from_pandas(blocked),
                           num_bits=64, num_hashes=2).to_pandas()
    want = docs[~docs["doc_id"].isin(blocked["doc_id"])]
    assert sorted(out["doc_id"]) == sorted(want["doc_id"])
    assert sorted(out.columns) == ["doc_id", "v"]


def _tri_brute(edges: pd.DataFrame) -> int:
    es = {(min(a, b), max(a, b))
          for a, b in zip(edges["src"], edges["dst"]) if a != b}
    nodes = sorted({n for e in es for n in e})
    return sum((a, b) in es and (b, c) in es and (a, c) in es
               for i, a in enumerate(nodes)
               for j, b in enumerate(nodes[i + 1:], i + 1)
               for c in nodes[j + 1:])


def test_triangle_count_bruteforce():
    from city2graph_ray.ops.graph_algos import triangle_count
    rng = np.random.default_rng(9)
    df = pd.DataFrame({"src": rng.integers(0, 25, 300),
                       "dst": rng.integers(0, 25, 300)})
    out = triangle_count(rd.from_pandas(df), num_buckets=8).to_pandas()
    assert int(out["n_triangles"].iloc[0]) == _tri_brute(df)
    # direction / multiplicity ignored: reversed duplicate edges
    df2 = pd.concat([df, df.rename(columns={"src": "dst", "dst": "src"})])
    out2 = triangle_count(rd.from_pandas(df2), num_buckets=8).to_pandas()
    assert int(out2["n_triangles"].iloc[0]) == _tri_brute(df)


def test_triangle_count_edges():
    from city2graph_ray.ops.graph_algos import triangle_count
    # no triangles: a path; self-loops only; single triangle
    path = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 3]})
    assert int(triangle_count(rd.from_pandas(path), num_buckets=4)
               .to_pandas()["n_triangles"].iloc[0]) == 0
    loops = pd.DataFrame({"src": [0, 1], "dst": [0, 1]})
    assert int(triangle_count(rd.from_pandas(loops), num_buckets=4)
               .to_pandas()["n_triangles"].iloc[0]) == 0
    tri = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 0]})
    assert int(triangle_count(rd.from_pandas(tri), num_buckets=4)
               .to_pandas()["n_triangles"].iloc[0]) == 1


def test_kcore_matches_networkx():
    import networkx as nx
    from city2graph_ray.ops.graph_algos import kcore
    df = _edges(120, 20, seed=3)
    out = kcore(rd.from_pandas(df), k=3).to_pandas()
    g = nx.Graph()
    g.add_edges_from((a, b) for a, b in zip(df["src"], df["dst"]) if a != b)
    core = nx.k_core(g, 3)
    assert set(out["node"].astype(int)) == set(core.nodes)
    for _, row in out.iterrows():
        assert core.degree[int(row["node"])] == int(row["deg"])


def test_kcore_strategies_agree(distributed):
    from city2graph_ray.ops.graph_algos import kcore
    df = _edges(100, 18, seed=11)
    a = (kcore(rd.from_pandas(df), k=3).to_pandas()
         .sort_values("node").reset_index(drop=True))
    with distributed():
        b = (kcore(rd.from_pandas(df), k=3, num_buckets=2).to_pandas()
             .sort_values("node").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


def test_kcore_empty_and_degenerate(distributed):
    from city2graph_ray.ops.graph_algos import kcore
    # all self-loops -> empty core, typed schema (NB: .to_pandas() of a
    # 0-row from_arrow dataset drops columns — assert on the Dataset
    # schema, which is what downstream Ray stages see)
    df = pd.DataFrame({"src": np.int64([1, 2]), "dst": np.int64([1, 2])})
    out = kcore(rd.from_pandas(df), k=1)
    assert out.count() == 0 and out.schema().names == ["node", "deg"]
    # k above max degree -> empty on both strategies
    df2 = _edges(30, 8, seed=5)
    assert kcore(rd.from_pandas(df2), k=50).to_pandas().empty
    with distributed():
        assert kcore(rd.from_pandas(df2), k=50,
                     num_buckets=2).to_pandas().empty


def test_mode_by_tiebreak():
    from city2graph_ray import shuffle
    df = pd.DataFrame({
        "g": np.int64([1, 1, 1, 1, 2, 2]),
        "v": ["b", "b", "a", "a", "z", "y"]})
    out = (shuffle.mode_by(rd.from_pandas(df), ["g"], "v", num_buckets=2)
           .to_pandas().sort_values("g").reset_index(drop=True))
    # group 1: a and b tie at 2 -> smallest value wins
    assert out.loc[0, "v"] == "a" and out.loc[0, "n"] == 2
    # group 2: y and z tie at 1 -> y
    assert out.loc[1, "v"] == "y" and out.loc[1, "n"] == 1


def test_bm25_matches_bruteforce():
    import math
    from city2graph_ray.text.analysis import bm25_topk
    docs = pd.DataFrame({
        "doc_id": [f"d{i}" for i in range(8)],
        "text": ["merge sort is a merge of runs",
                 "hash join beats merge join sometimes",
                 "stream the window over the vector",
                 "plain prose with none of the terms",
                 "vector vector vector",
                 "customer stream hash",
                 "window window merge",
                 "a b c d e f g h i j k l m n o p"]})
    terms = ["merge", "window", "vector", "hash", "stream", "customer"]
    out = bm25_topk(rd.from_pandas(docs), terms, k=5).to_pandas()

    # brute force
    toks = [t.split(" ") for t in docs["text"]]
    n = len(docs)
    avgdl = sum(len(t) for t in toks) / n
    df_t = {t: sum(1 for d in toks if t in d) for t in terms}
    scores = {}
    for did, d in zip(docs["doc_id"], toks):
        s = 0.0
        for t in terms:
            tf = d.count(t)
            if tf == 0:
                continue
            idf = math.log((n - df_t[t] + 0.5) / (df_t[t] + 0.5) + 1.0)
            s += idf * tf * 2.2 / (tf + 1.2 * (0.25 + 0.75 * len(d) / avgdl))
        if s > 0:
            scores[did] = round(s, 6)
    want = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    got = list(zip(out["doc_id"], out["score"]))
    assert [w[0] for w in want] == [g[0] for g in got]
    for (wd, ws), (gd, gs) in zip(want, got):
        assert abs(ws - gs) < 1e-9
    assert list(out["rank"]) == [1, 2, 3, 4, 5]


def _lpa_slow(df: pd.DataFrame, iters: int) -> dict[int, int]:
    """Independent per-node loop oracle for deterministic sync LPA."""
    import collections
    nbrs = collections.defaultdict(set)
    for a, b in zip(df["src"], df["dst"]):
        if a != b:
            nbrs[int(a)].add(int(b))
            nbrs[int(b)].add(int(a))
    lab = {v: v for v in nbrs}
    for _ in range(iters):
        new = {}
        for v in nbrs:
            cnt = collections.Counter(lab[u] for u in nbrs[v])
            best = max(cnt.items(), key=lambda kv: (kv[1], -kv[0]))
            new[v] = best[0]
        lab = new
    return lab


def test_label_propagation_matches_slow_oracle():
    from city2graph_ray.ops.graph_algos import label_propagation
    # two dense clusters + one bridge edge
    rng = np.random.default_rng(2)
    e1 = rng.integers(0, 10, (60, 2))
    e2 = rng.integers(20, 30, (60, 2))
    df = pd.DataFrame(np.vstack([e1, e2, [[5, 25]]]),
                      columns=["src", "dst"]).astype(np.int64)
    out = label_propagation(rd.from_pandas(df), num_iters=4).to_pandas()
    want = _lpa_slow(df, 4)
    got = dict(zip(out["node"].astype(int), out["label"].astype(int)))
    assert got == want


def test_label_propagation_strategies_agree(distributed):
    from city2graph_ray.ops.graph_algos import label_propagation
    df = _edges(80, 16, seed=9)
    a = (label_propagation(rd.from_pandas(df), num_iters=3).to_pandas()
         .sort_values("node").reset_index(drop=True))
    with distributed():
        b = (label_propagation(rd.from_pandas(df), num_iters=3,
                               num_buckets=2)
             .to_pandas().sort_values("node").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


def test_label_propagation_empty_and_cluster():
    from city2graph_ray.ops.graph_algos import label_propagation
    df = pd.DataFrame({"src": np.int64([3]), "dst": np.int64([3])})
    out = label_propagation(rd.from_pandas(df), num_iters=2)
    assert out.count() == 0 and out.schema().names == ["node", "label"]
    # a clique converges to the min node id everywhere
    k = pd.DataFrame([(i, j) for i in range(5) for j in range(5) if i < j],
                     columns=["src", "dst"]).astype(np.int64)
    o = label_propagation(rd.from_pandas(k), num_iters=3).to_pandas()
    assert set(o["label"]) == {0}


def test_adamic_adar_matches_networkx():
    import networkx as nx
    from city2graph_ray.ops.graph_algos import adamic_adar
    df = _edges(90, 14, seed=4)
    out = adamic_adar(rd.from_pandas(df)).to_pandas()
    g = nx.Graph()
    g.add_edges_from((a, b) for a, b in zip(df["src"], df["dst"]) if a != b)
    want = {(min(u, v), max(u, v)): s
            for u, v, s in nx.adamic_adar_index(g)}
    got = {(int(r["src"]), int(r["dst"])): r["aa_score"]
           for _, r in out.iterrows()}
    # networkx scores every non-edge pair incl. zero-common-neighbour
    # ones with score 0 depending on version; compare on the >0 support
    want_pos = {k: v for k, v in want.items() if v > 0}
    assert set(got) == set(want_pos)
    for k, v in want_pos.items():
        assert abs(got[k] - v) < 1e-6, k


def test_adamic_adar_include_edges_bruteforce():
    from city2graph_ray.ops.graph_algos import adamic_adar
    import collections
    import math
    df = _edges(50, 10, seed=13)
    out = adamic_adar(rd.from_pandas(df), exclude_edges=False).to_pandas()
    nbrs = collections.defaultdict(set)
    for a, b in zip(df["src"], df["dst"]):
        if a != b:
            nbrs[int(a)].add(int(b))
            nbrs[int(b)].add(int(a))
    want = collections.Counter()
    for v, ns in nbrs.items():
        if len(ns) < 2:
            continue
        w = math.floor(1e9 / math.log(len(ns)) + 0.5)
        ns = sorted(ns)
        for i in range(len(ns)):
            for j in range(i + 1, len(ns)):
                want[(ns[i], ns[j])] += w
    got = {(int(r["src"]), int(r["dst"])): r["aa_score"]
           for _, r in out.iterrows()}
    assert got == {k: v / 1e9 for k, v in want.items()}


def test_adamic_adar_degenerate():
    from city2graph_ray.ops.graph_algos import adamic_adar
    # single edge -> no centre with deg>=2 -> typed empty
    df = pd.DataFrame({"src": np.int64([0]), "dst": np.int64([1])})
    out = adamic_adar(rd.from_pandas(df))
    assert out.count() == 0
    assert out.schema().names == ["src", "dst", "aa_score"]
    # path a-b-c: one wedge (a,c) through b (deg 2)
    df2 = pd.DataFrame({"src": np.int64([0, 1]), "dst": np.int64([1, 2])})
    o2 = adamic_adar(rd.from_pandas(df2)).to_pandas()
    assert len(o2) == 1
    import math
    assert abs(o2["aa_score"].iloc[0]
               - math.floor(1e9 / math.log(2) + 0.5) / 1e9) < 1e-12
    # max_degree cap removes the hub centre
    star = pd.DataFrame({"src": np.int64([9] * 5),
                         "dst": np.int64([0, 1, 2, 3, 4])})
    assert adamic_adar(rd.from_pandas(star), max_degree=4).count() == 0


def test_clustering_coefficient_matches_networkx():
    import networkx as nx

    from city2graph_ray.ops.graph_algos import clustering_coefficient
    rng = np.random.default_rng(7)
    m = 400
    e = pd.DataFrame({"src": rng.integers(0, 80, m),
                      "dst": rng.integers(0, 80, m)})
    out = clustering_coefficient(rd.from_pandas(e),
                                 num_buckets=8).to_pandas()
    G = nx.Graph()
    G.add_edges_from((a, b) for a, b in zip(e["src"], e["dst"])
                     if a != b)
    cc = nx.clustering(G)
    tr = nx.triangles(G)
    assert set(out["node"]) == set(G.nodes())
    for _, r in out.iterrows():
        assert r["triangles"] == tr[r["node"]]
        assert abs(r["coeff"] - cc[r["node"]]) < 1e-12


def test_clustering_coefficient_triangle_free_and_empty():
    from city2graph_ray.ops.graph_algos import clustering_coefficient
    # a path graph has degree>1 nodes but zero triangles
    e = pd.DataFrame({"src": np.int64([0, 1, 2, 3]),
                      "dst": np.int64([1, 2, 3, 4])})
    out = clustering_coefficient(rd.from_pandas(e),
                                 num_buckets=4).to_pandas()
    assert out["triangles"].sum() == 0
    assert (out["coeff"] == 0.0).all()
    empty = pd.DataFrame({"src": pd.Series([], dtype=np.int64),
                          "dst": pd.Series([], dtype=np.int64)})
    assert clustering_coefficient(rd.from_pandas(empty),
                                  num_buckets=4).count() == 0


def test_jaccard_link_prediction_matches_networkx():
    import networkx as nx

    from city2graph_ray.ops.graph_algos import jaccard_link_prediction
    rng = np.random.default_rng(13)
    e = pd.DataFrame({"src": rng.integers(0, 60, 300),
                      "dst": rng.integers(0, 60, 300)})
    out = jaccard_link_prediction(rd.from_pandas(e),
                                  num_buckets=8).to_pandas()
    G = nx.Graph()
    G.add_edges_from((a, b) for a, b in zip(e["src"], e["dst"])
                     if a != b)
    want = {(min(u, v), max(u, v)): p
            for u, v, p in nx.jaccard_coefficient(G)}
    got = {(r["src"], r["dst"]): r["jaccard"]
           for _, r in out.iterrows()}
    # networkx enumerates ALL non-edge pairs incl. zero-cn; ours emits
    # only cn>=1 pairs — compare on that support
    want_pos = {k: v for k, v in want.items() if v > 0}
    assert set(got) == set(want_pos)
    for k in got:
        assert abs(got[k] - want_pos[k]) < 1e-12


def test_jaccard_empty_and_max_degree():
    from city2graph_ray.ops.graph_algos import jaccard_link_prediction
    empty = pd.DataFrame({"src": pd.Series([], dtype=np.int64),
                          "dst": pd.Series([], dtype=np.int64)})
    assert jaccard_link_prediction(rd.from_pandas(empty),
                                   num_buckets=4).count() == 0
    # star graph: hub degree 5; capping below it kills every wedge
    star = pd.DataFrame({"src": np.int64([0] * 5),
                         "dst": np.int64([1, 2, 3, 4, 5])})
    full = jaccard_link_prediction(rd.from_pandas(star),
                                   num_buckets=4).to_pandas()
    assert len(full) == 10  # C(5,2) leaf pairs share the hub
    capped = jaccard_link_prediction(rd.from_pandas(star),
                                     num_buckets=4, max_degree=4)
    assert capped.count() == 0


def test_harmonic_centrality_matches_networkx():
    import networkx as nx

    from city2graph_ray.ops.graph_algos import harmonic_centrality
    rng = np.random.default_rng(17)
    e = pd.DataFrame({"src": rng.integers(0, 50, 150),
                      "dst": rng.integers(0, 50, 150)})
    hops = 3
    out = harmonic_centrality(rd.from_pandas(e), hops=hops,
                              num_buckets=8).to_pandas()
    G = nx.Graph()
    G.add_edges_from((a, b) for a, b in zip(e["src"], e["dst"])
                     if a != b)
    got = {r["node"]: (r["n_reach"], r["harmonic"])
           for _, r in out.iterrows()}
    assert set(got) == set(G.nodes())
    for v in G.nodes():
        lengths = nx.single_source_shortest_path_length(G, v,
                                                        cutoff=hops)
        want_n = len(lengths) - 1  # drop self
        want_h = sum(1.0 / d for d in lengths.values() if d > 0)
        assert got[v][0] == want_n
        assert abs(got[v][1] - want_h) < 1e-12


def test_harmonic_centrality_empty_and_path():
    from city2graph_ray.ops.graph_algos import harmonic_centrality
    empty = pd.DataFrame({"src": pd.Series([], dtype=np.int64),
                          "dst": pd.Series([], dtype=np.int64)})
    assert harmonic_centrality(rd.from_pandas(empty),
                               num_buckets=4).count() == 0
    # path 0-1-2-3-4, hops=2: node 2 reaches all 4 within 2 hops
    e = pd.DataFrame({"src": np.int64([0, 1, 2, 3]),
                      "dst": np.int64([1, 2, 3, 4])})
    out = harmonic_centrality(rd.from_pandas(e), hops=2,
                              num_buckets=4).to_pandas()
    row = out[out["node"] == 2].iloc[0]
    assert row["n_reach"] == 4 and row["harmonic"] == 2.0 + 2 * 0.5


def test_hits_matches_quantized_reference():
    from city2graph_ray.ops.graph_algos import hits
    rng = np.random.default_rng(29)
    e = pd.DataFrame({"src": rng.integers(0, 40, 200),
                      "dst": rng.integers(0, 40, 200)})
    iters, sc = 3, 10 ** 6
    out = hits(rd.from_pandas(e), num_iters=iters,
               num_buckets=8).to_pandas()
    # local reference of the SAME integer-unit L1-quantized recurrence
    nodes = np.unique(np.concatenate([e["src"], e["dst"]]))
    idx = {n: i for i, n in enumerate(nodes)}
    si = e["src"].map(idx).to_numpy()
    di = e["dst"].map(idx).to_numpy()
    h = np.full(len(nodes), sc, np.int64)
    a = h.copy()
    for _ in range(iters):
        a = np.bincount(di, weights=h[si].astype(np.float64),
                        minlength=len(nodes)).astype(np.int64)
        a = np.floor(a / int(a.sum()) * sc + 0.5).astype(np.int64)
        h = np.bincount(si, weights=a[di].astype(np.float64),
                        minlength=len(nodes)).astype(np.int64)
        h = np.floor(h / int(h.sum()) * sc + 0.5).astype(np.int64)
    got = {r["node"]: (r["auth"], r["hub"]) for _, r in out.iterrows()}
    assert set(got) == set(nodes.tolist())
    for n in nodes:
        assert got[n][0] == a[idx[n]] / sc
        assert got[n][1] == h[idx[n]] / sc


def test_hits_star_and_empty():
    from city2graph_ray.ops.graph_algos import hits
    # star: all edges point 1..4 -> 0, so node 0 is the only authority
    # and the leaves are the hubs
    e = pd.DataFrame({"src": np.int64([1, 2, 3, 4]),
                      "dst": np.int64([0, 0, 0, 0])})
    out = hits(rd.from_pandas(e), num_iters=3,
               num_buckets=4).to_pandas().set_index("node")
    assert out.loc[0, "auth"] == 1.0 and out.loc[0, "hub"] == 0.0
    assert abs(out.loc[1, "hub"] - 0.25) < 1e-6
    empty = pd.DataFrame({"src": pd.Series([], dtype=np.int64),
                          "dst": pd.Series([], dtype=np.int64)})
    assert hits(rd.from_pandas(empty), num_buckets=4).count() == 0


def test_harmonic_centrality_sampled_sources():
    import networkx as nx

    from city2graph_ray.ops.graph_algos import harmonic_centrality
    rng = np.random.default_rng(23)
    e = pd.DataFrame({"src": rng.integers(0, 40, 120),
                      "dst": rng.integers(0, 40, 120)})
    hops = 2
    srcs = pd.DataFrame({"node_id": np.int64([0, 7, 19, 33])})
    out = harmonic_centrality(rd.from_pandas(e), hops=hops,
                              sources=rd.from_pandas(srcs),
                              num_buckets=4).to_pandas()
    G = nx.Graph()
    G.add_edges_from((a, b) for a, b in zip(e["src"], e["dst"])
                     if a != b)
    assert set(out["node"]) <= set(srcs["node_id"])
    got = {r["node"]: (r["n_reach"], r["harmonic"])
           for _, r in out.iterrows()}
    for v in srcs["node_id"]:
        if v not in G.nodes():
            assert v not in got
            continue
        lengths = nx.single_source_shortest_path_length(G, int(v),
                                                        cutoff=hops)
        want_n = len(lengths) - 1
        want_h = sum(1.0 / d for d in lengths.values() if d > 0)
        assert got[v][0] == want_n
        assert abs(got[v][1] - want_h) < 1e-12


def test_ktruss_matches_networkx():
    import networkx as nx
    import ray.data as rd
    from city2graph_ray.ops.graph_algos import ktruss
    rng = np.random.default_rng(17)
    n, m = 60, 400
    a = rng.integers(0, n, m)
    b = rng.integers(0, n, m)
    df = pd.DataFrame({"src": a, "dst": b})
    g = nx.Graph()
    g.add_edges_from((int(x), int(y)) for x, y in zip(a, b) if x != y)
    for k in (3, 4, 5):
        got = ktruss(rd.from_pandas(df), k).to_pandas()
        got_edges = {(int(r.a), int(r.b)) for r in got.itertuples()}
        want = {(min(u, v), max(u, v))
                for u, v in nx.k_truss(g, k).edges()}
        assert got_edges == want, (k, len(got_edges), len(want))


def test_ktruss_strategies_agree_and_empty(distributed):
    import ray.data as rd
    from city2graph_ray.ops.graph_algos import ktruss
    rng = np.random.default_rng(23)
    a = rng.integers(0, 40, 250)
    b = rng.integers(0, 40, 250)
    df = pd.DataFrame({"src": a, "dst": b})
    loc = ktruss(rd.from_pandas(df), 4).to_pandas()
    with distributed():
        dist = ktruss(rd.from_pandas(df), 4, num_buckets=8).to_pandas()
    key = lambda d: sorted(map(tuple, d[["a", "b", "support"]].to_numpy()))
    assert key(loc) == key(dist)
    # triangle-free graph → empty truss, typed columns intact
    path = pd.DataFrame({"src": [1, 2, 3], "dst": [2, 3, 4]})
    out = ktruss(rd.from_pandas(path), 3)
    assert out.count() == 0 and out.schema().names == ["a", "b", "support"]


def test_four_cliques_matches_bruteforce(distributed):
    import contextlib
    from itertools import combinations
    import ray.data as rd
    from city2graph_ray.ops.graph_algos import four_cliques
    rng = np.random.default_rng(31)
    n = 35
    a = rng.integers(0, n, 260)
    b = rng.integers(0, n, 260)
    es = {(min(int(x), int(y)), max(int(x), int(y)))
          for x, y in zip(a, b) if x != y}
    want = sorted(q for q in combinations(range(n), 4)
                  if all(p in es for p in combinations(q, 2)))
    assert want, "fixture must contain 4-cliques"
    df = pd.DataFrame({"src": a, "dst": b})
    for branch, kw in ((contextlib.nullcontext, {}),
                       (distributed, {"num_buckets": 8})):
        with branch():
            got = four_cliques(rd.from_pandas(df), **kw).to_pandas()
        got_q = sorted(map(tuple, got.to_numpy()))
        assert got_q == want, (kw, len(got_q), len(want))


def test_four_cliques_empty():
    import ray.data as rd
    from city2graph_ray.ops.graph_algos import four_cliques
    tri_only = pd.DataFrame({"src": [1, 2, 3], "dst": [2, 3, 1]})
    out = four_cliques(rd.from_pandas(tri_only))
    assert out.count() == 0
    assert out.schema().names == ["n1", "n2", "n3", "n4"]


def test_eccentricity_matches_networkx(distributed):
    import contextlib

    import networkx as nx
    import ray.data as rd
    from city2graph_ray.ops.graph_algos import eccentricity
    rng = np.random.default_rng(41)
    a = rng.integers(0, 30, 90)
    b = rng.integers(0, 30, 90)
    # add a detached triangle component
    df = pd.DataFrame({"src": np.concatenate([a, [100, 101, 102]]),
                       "dst": np.concatenate([b, [101, 102, 100]])})
    g = nx.Graph()
    g.add_edges_from((int(x), int(y))
                     for x, y in zip(df["src"], df["dst"]) if x != y)
    want = {}
    for comp in nx.connected_components(g):
        sub = g.subgraph(comp)
        ecc = nx.eccentricity(sub)
        for v in comp:
            want[v] = (ecc[v], len(comp))
    for branch, kw in ((contextlib.nullcontext, {}),
                       (distributed, {"num_buckets": 4})):
        with branch():
            out = eccentricity(rd.from_pandas(df), **kw).to_pandas()
        got = {int(r.node): (int(r.ecc), int(r.n_reached))
               for r in out.itertuples()}
        assert got == want, kw


def test_eccentricity_degenerate():
    import ray.data as rd
    from city2graph_ray.ops.graph_algos import eccentricity
    loops = pd.DataFrame({"src": [1, 2], "dst": [1, 2]})
    out = eccentricity(rd.from_pandas(loops))
    assert out.count() == 0
    assert out.schema().names == ["node", "ecc", "n_reached"]
    pair = pd.DataFrame({"src": [1], "dst": [2]})
    got = eccentricity(rd.from_pandas(pair)).to_pandas()
    assert sorted(map(tuple, got.to_numpy())) == [(1, 1, 2), (2, 1, 2)]


def test_betweenness_matches_networkx():
    import networkx as nx
    import ray.data as rd
    from city2graph_ray.ops.graph_algos import betweenness_centrality
    rng = np.random.default_rng(19)
    df = pd.DataFrame({"src": rng.integers(0, 25, 70),
                       "dst": rng.integers(0, 25, 70)})
    g = nx.Graph()
    g.add_edges_from((int(a), int(b))
                     for a, b in zip(df["src"], df["dst"]) if a != b)
    out = betweenness_centrality(rd.from_pandas(df),
                                 num_buckets=4).to_pandas()
    got = dict(zip(out["node"].astype(int), out["bc"]))
    want = nx.betweenness_centrality(g, normalized=False)
    for v, bc in want.items():
        assert abs(got.get(v, 0.0) - bc) < 1e-9, v


def test_betweenness_sampled_sources_and_empty():
    import ray.data as rd
    from city2graph_ray.ops.graph_algos import betweenness_centrality
    rng = np.random.default_rng(29)
    df = pd.DataFrame({"src": rng.integers(0, 15, 40),
                       "dst": rng.integers(0, 15, 40)})
    nodes = sorted(set(df["src"]) | set(df["dst"]))
    full = betweenness_centrality(rd.from_pandas(df)).to_pandas()
    expl = betweenness_centrality(
        rd.from_pandas(df),
        sources=rd.from_pandas(pd.DataFrame({"source": nodes}))
    ).to_pandas()
    a = dict(zip(full["node"].astype(int), full["bc"]))
    b = dict(zip(expl["node"].astype(int), expl["bc"]))
    assert a.keys() == b.keys()
    for k in a:
        assert abs(a[k] - b[k]) < 1e-12
    # loops-only graph -> typed empty
    loops = pd.DataFrame({"src": [1], "dst": [1]})
    out = betweenness_centrality(rd.from_pandas(loops))
    assert out.count() == 0 and out.schema().names == ["node", "bc"]


def test_personalized_pagerank_matches_numpy():
    from city2graph_ray.ops.graph_algos import personalized_pagerank
    df = _edges(70, 16, seed=13)
    seeds = [0, 3, 6]
    out = personalized_pagerank(rd.from_pandas(df), seeds,
                                num_iters=4).to_pandas()
    got = dict(zip(out["node"].astype(int), out["rank"]))
    nodes = np.unique(np.concatenate([df["src"], df["dst"]]))
    pos = {v: i for i, v in enumerate(nodes)}
    t = np.zeros(len(nodes))
    present = [s for s in seeds if s in pos]
    for s in present:
        t[pos[s]] = 1.0 / len(present)
    deg = np.zeros(len(nodes))
    for s in df["src"]:
        deg[pos[s]] += 1
    r = np.round(t, 10)
    for _ in range(4):
        acc = np.zeros(len(nodes))
        for a, b in zip(df["src"], df["dst"]):
            acc[pos[b]] += r[pos[a]] / deg[pos[a]]
        r = np.round(0.85 * acc + (1.0 - 0.85) * t, 10)
    for v in nodes:
        assert abs(got[int(v)] - round(float(r[pos[v]]), 6)) < 1e-12
    # mass concentrates near seeds
    assert sum(got[s] for s in present) > 3 * np.median(out["rank"])


def test_personalized_pagerank_no_seed_raises():
    from city2graph_ray.ops.graph_algos import personalized_pagerank
    import pytest as _pt
    df = _edges(20, 6, seed=2)
    with _pt.raises(ValueError):
        personalized_pagerank(rd.from_pandas(df), [999])


def test_modularity_matches_networkx():
    import networkx as nx
    import ray.data as rd
    from city2graph_ray.ops.graph_algos import modularity
    rng = np.random.default_rng(6)
    # two dense blobs + sparse cross edges
    a1 = rng.integers(0, 10, 60)
    b1 = rng.integers(0, 10, 60)
    a2 = rng.integers(10, 20, 60)
    b2 = rng.integers(10, 20, 60)
    ax = rng.integers(0, 10, 5)
    bx = rng.integers(10, 20, 5)
    df = pd.DataFrame({"src": np.concatenate([a1, a2, ax]),
                       "dst": np.concatenate([b1, b2, bx])})
    labels = pd.DataFrame({"node": np.arange(20, dtype=np.int64),
                           "label": np.concatenate(
                               [np.zeros(10, np.int64),
                                np.ones(10, np.int64)])})
    out = modularity(rd.from_pandas(df), rd.from_pandas(labels),
                     num_buckets=4).to_pandas()
    g = nx.Graph()
    g.add_edges_from((int(x), int(y))
                     for x, y in zip(df["src"], df["dst"]) if x != y)
    comms = [set(range(10)) & set(g.nodes),
             set(range(10, 20)) & set(g.nodes)]
    want = nx.algorithms.community.modularity(g, comms)
    assert abs(out["modularity"].iloc[0] - want) < 1e-12
    assert int(out["m"].iloc[0]) == g.number_of_edges()


def test_degree_assortativity_matches_networkx():
    import networkx as nx
    import ray.data as rd
    from city2graph_ray.ops.graph_algos import degree_assortativity
    rng = np.random.default_rng(44)
    df = pd.DataFrame({"src": rng.integers(0, 30, 120),
                       "dst": rng.integers(0, 30, 120)})
    g = nx.Graph()
    g.add_edges_from((int(a), int(b))
                     for a, b in zip(df["src"], df["dst"]) if a != b)
    out = degree_assortativity(rd.from_pandas(df),
                               num_buckets=4).to_pandas()
    want = nx.degree_assortativity_coefficient(g)
    assert abs(out["r"].iloc[0] - want) < 1e-10
    assert int(out["m"].iloc[0]) == g.number_of_edges()
    # regular graph (cycle): zero variance -> NaN
    cyc = pd.DataFrame({"src": np.arange(6), "dst": (np.arange(6)+1) % 6})
    o2 = degree_assortativity(rd.from_pandas(cyc)).to_pandas()
    assert np.isnan(o2["r"].iloc[0])


def test_mis_valid_and_strategies_agree(distributed):
    import networkx as nx
    import ray.data as rd
    from city2graph_ray.ops.graph_algos import maximal_independent_set
    rng = np.random.default_rng(3)
    df = pd.DataFrame({"src": rng.integers(0, 30, 100),
                       "dst": rng.integers(0, 30, 100)})
    g = nx.Graph()
    g.add_edges_from((int(a), int(b))
                     for a, b in zip(df["src"], df["dst"]) if a != b)
    loc = maximal_independent_set(rd.from_pandas(df)).to_pandas()
    mis = set(loc.loc[loc["in_mis"], "node"].astype(int))
    # independent: no edge inside; maximal: every outside node has a
    # neighbor inside
    for u, v in g.edges:
        assert not (u in mis and v in mis)
    for v in g.nodes:
        if v not in mis:
            assert any(w in mis for w in g.neighbors(v)), v
    # distributed cross-check on a smaller graph (each Luby round is
    # several bucketed shuffles; keep the round count low in CI)
    small = pd.DataFrame({"src": rng.integers(0, 12, 25),
                          "dst": rng.integers(0, 12, 25)})
    sl = maximal_independent_set(rd.from_pandas(small)).to_pandas()
    with distributed():
        sd = maximal_independent_set(rd.from_pandas(small),
                                     num_buckets=4).to_pandas()
    key = lambda d: sorted(map(tuple, d[["node", "in_mis"]].to_numpy()))
    assert key(sl) == key(sd)


def test_mis_degenerate():
    import ray.data as rd
    from city2graph_ray.ops.graph_algos import maximal_independent_set
    loops = pd.DataFrame({"src": [1], "dst": [1]})
    out = maximal_independent_set(rd.from_pandas(loops))
    assert out.count() == 0 and out.schema().names == ["node", "in_mis"]
    pair = pd.DataFrame({"src": [1], "dst": [2]})
    got = maximal_independent_set(rd.from_pandas(pair)).to_pandas()
    assert got["in_mis"].sum() == 1


def test_deterministic_walks_argmin_and_dead_ends(ray_session):
    import hashlib

    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.graph_algos import deterministic_walks

    def h(s, u, v):
        d = hashlib.md5(f"{s}:{u}:{v}".encode()).digest()[8:16]
        return int.from_bytes(d, "little") >> 12

    edges = pd.DataFrame({"src": [0, 0, 0, 1, 1, 2, 3],
                          "dst": [1, 2, 3, 2, 3, 3, 4]})
    # node 4 has no out-edges → walks hitting it before the last hop drop
    out = deterministic_walks(rd.from_pandas(edges), steps=2,
                              num_buckets=4).to_pandas() \
        .sort_values("start").reset_index(drop=True)

    # brute-force expectation
    adj = edges.groupby("src")["dst"].apply(list).to_dict()
    exp = []
    for start in [0, 1, 2, 3, 4]:
        cur, path = start, []
        ok = True
        for s in (1, 2):
            nbrs = adj.get(cur)
            if not nbrs:
                ok = False
                break
            cur = min(nbrs, key=lambda v: (h(s, cur, v), v))
            path.append(cur)
        if ok:
            exp.append([start] + path)
    exp_df = pd.DataFrame(exp, columns=["start", "v1", "v2"])
    pd.testing.assert_frame_equal(
        out.astype(np.int64), exp_df.astype(np.int64))


def test_sssp_bounded_strategies_and_networkx(ray_session, distributed):
    import networkx as nx
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.graph_algos import sssp_bounded
    rng = np.random.default_rng(6)
    src = rng.integers(0, 40, 300).astype(np.int64)
    dst = rng.integers(0, 40, 300).astype(np.int64)
    w = ((src * 31 + dst * 17) % 9 + 1).astype(np.int64)
    edges = pd.DataFrame({"src": src, "dst": dst, "w": w}) \
        .drop_duplicates(["src", "dst"])
    ds = rd.from_pandas(edges)
    got_b = sssp_bounded(ds, source=0, rounds=4).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    with distributed():
        got_j = sssp_bounded(ds, source=0, rounds=4,
                             num_buckets=8).to_pandas() \
            .sort_values("node").reset_index(drop=True)
    pd.testing.assert_frame_equal(got_b, got_j)
    # bounded-hop reference: Bellman-Ford rounds in pure python
    INF = 1 << 40
    dist = {0: 0}
    for _ in range(4):
        new = dict(dist)
        for s, d, ww in edges.itertuples(index=False):
            if s in dist and dist[s] + ww < new.get(d, INF):
                new[d] = dist[s] + ww
        dist = new
    want = pd.DataFrame(sorted(dist.items()), columns=["node", "dist"])
    pd.testing.assert_frame_equal(got_b, want.astype(np.int64),
                                  check_dtype=False)


def test_sssp_bounded_source_not_in_graph(ray_session, distributed):
    import contextlib

    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.graph_algos import sssp_bounded
    ds = rd.from_pandas(pd.DataFrame({
        "src": np.asarray([1, 2], np.int64),
        "dst": np.asarray([2, 3], np.int64),
        "w": np.asarray([1, 1], np.int64)}))
    for branch in (contextlib.nullcontext, distributed):
        with branch():
            out = sssp_bounded(ds, source=99, rounds=3).to_pandas()
        assert out["node"].tolist() == [99]
        assert out["dist"].tolist() == [0]


def test_bipartite_butterflies_bruteforce():
    import itertools

    import ray.data as rd
    from city2graph_ray.ops.graph_algos import bipartite_butterflies
    rng = np.random.default_rng(41)
    n = 400
    tbl = pd.DataFrame({
        "k": rng.integers(0, 40, n).astype(np.int64),
        "i": rng.integers(0, 15, n).astype(np.int64)})
    got = (bipartite_butterflies(rd.from_pandas(tbl), "k", "i",
                                 num_buckets=8)
           .to_pandas().set_index("item")["butterflies"].to_dict())
    # brute force: for every item pair, C(shared keys, 2)
    adj = tbl.drop_duplicates().groupby("i")["k"].apply(set)
    want: dict = {}
    for a, b in itertools.combinations(sorted(adj.index), 2):
        w = len(adj[a] & adj[b])
        c = w * (w - 1) // 2
        if c:
            want[a] = want.get(a, 0) + c
            want[b] = want.get(b, 0) + c
    assert got == want


def _scc_nx_oracle(edges_df):
    import networkx as nx
    g = nx.DiGraph()
    g.add_edges_from(zip(edges_df["src"], edges_df["dst"]))
    want = {}
    for comp in nx.strongly_connected_components(g):
        m = min(comp)
        for v in comp:
            want[v] = m
    return want


def test_scc_broadcast_vs_networkx():
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.graph_algos import strongly_connected_components

    rng = np.random.default_rng(31)
    e = pd.DataFrame({"src": rng.integers(0, 40, 160),
                      "dst": rng.integers(0, 40, 160)}).astype(np.int64)
    got = strongly_connected_components(
        rd.from_pandas(e), num_buckets=4).to_pandas()
    want = _scc_nx_oracle(e)
    assert len(got) == len(want)
    for _, r in got.iterrows():
        assert want[r["node"]] == r["scc_id"], r["node"]


def test_scc_coloring_matches_broadcast(distributed):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.graph_algos import strongly_connected_components

    # two cycles joined by a chain, a self-loop, a dangling tail —
    # small condensation depth (each distributed peel is many shuffle
    # rounds, so the coloring test stays deliberately compact)
    e = pd.DataFrame({
        "src": np.array([0, 1, 2, 2, 3, 5, 6, 8, 7], np.int64),
        "dst": np.array([1, 2, 0, 3, 5, 6, 5, 8, 0], np.int64)})
    bc = (strongly_connected_components(rd.from_pandas(e), num_buckets=4)
          .to_pandas().sort_values("node").reset_index(drop=True))
    with distributed():
        cl = (strongly_connected_components(rd.from_pandas(e),
                                            num_buckets=4)
              .to_pandas().sort_values("node").reset_index(drop=True))
    pd.testing.assert_frame_equal(bc, cl)


def test_scc_chain_all_singletons_cycle_one(distributed):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.graph_algos import strongly_connected_components

    chain = pd.DataFrame({"src": np.arange(5, dtype=np.int64),
                          "dst": np.arange(1, 6, dtype=np.int64)})
    got = strongly_connected_components(rd.from_pandas(chain)).to_pandas()
    assert (got["node"] == got["scc_id"]).all()
    cyc = pd.DataFrame({"src": np.array([0, 1, 2], np.int64),
                        "dst": np.array([1, 2, 0], np.int64)})
    with distributed():
        got2 = strongly_connected_components(
            rd.from_pandas(cyc)).to_pandas()
    assert (got2["scc_id"] == 0).all() and len(got2) == 3


def test_katz_walk_counts_matches_matrix_power():
    from city2graph_ray.ops.graph_algos import katz_walk_counts

    df = _edges(80, 12, seed=9).drop_duplicates(["src", "dst"])
    got = (katz_walk_counts(rd.from_pandas(df), rounds=3, beta_den=3,
                            num_buckets=4)
           .to_pandas().sort_values("node").reset_index(drop=True))
    n = 12
    A = np.zeros((n, n), dtype=np.int64)
    A[df["src"].to_numpy(), df["dst"].to_numpy()] = 1
    ones = np.ones(n, dtype=np.int64)
    w1 = ones @ A
    w2 = w1 @ A
    w3 = w2 @ A
    score = 9 * w1 + 3 * w2 + w3
    keep = w1 > 0  # only nodes with in-degree >= 1 are emitted
    want = pd.DataFrame({"node": np.arange(n, dtype=np.int64)[keep],
                         "katz_num": score[keep]})
    assert got["node"].tolist() == want["node"].tolist()
    assert got["katz_num"].tolist() == want["katz_num"].tolist()


def test_circuit_rank_matches_formula():
    from city2graph_ray.ops.graph_algos import circuit_rank

    # two components: a 4-cycle (rank 1) and a tree of 3 (rank 0),
    # plus a self-loop that must be ignored
    df = pd.DataFrame({
        "src": np.array([0, 1, 2, 3, 10, 10, 5], np.int64),
        "dst": np.array([1, 2, 3, 0, 11, 12, 5], np.int64)})
    out = circuit_rank(rd.from_pandas(df), num_buckets=4).to_pandas()
    assert out["m"].iloc[0] == 6
    assert out["n"].iloc[0] == 7
    assert out["c"].iloc[0] == 2
    assert out["circuit_rank"].iloc[0] == 1


def test_khop_ball_sizes_brute():
    import networkx as nx
    import ray.data as rd
    from city2graph_ray.ops.graph_algos import khop_ball_sizes
    rng = np.random.default_rng(17)
    e = pd.DataFrame({"src": rng.integers(0, 30, 120),
                      "dst": rng.integers(0, 30, 120)})
    e = e[e.src != e.dst].drop_duplicates()
    out = (khop_ball_sizes(rd.from_pandas(e).repartition(3), hops=3)
           .to_pandas().set_index("node")["ball_size"])
    g = nx.DiGraph(list(e.itertuples(index=False)))
    for v in g.nodes:
        ball = set(nx.single_source_shortest_path_length(
            g, v, cutoff=3)) - {v}
        if ball:
            assert out.loc[v] == len(ball), v
        else:
            assert v not in out.index
    # hops=1 equals out-degree over distinct edges
    o1 = (khop_ball_sizes(rd.from_pandas(e), hops=1)
          .to_pandas().set_index("node")["ball_size"])
    deg = e.groupby("src").size()
    assert o1.sort_index().equals(deg[deg > 0].sort_index()
                                  .astype(np.int64).rename("ball_size"))


def test_hash_walks_bruteforce():
    import hashlib

    import ray.data as rd

    from city2graph_ray.ops.graph_algos import hash_walks
    rng = np.random.default_rng(23)
    e = pd.DataFrame({"src": rng.integers(0, 20, 60),
                      "dst": rng.integers(0, 20, 60)})
    out = (hash_walks(rd.from_pandas(e).repartition(3), seed_mod=4,
                      length=3, num_buckets=4)
           .to_pandas().sort_values(["walk_id", "step"])
           .reset_index(drop=True))
    # brute force
    adj = {}
    for s, d in zip(e["src"], e["dst"]):
        if s == d:
            continue
        adj.setdefault(int(s), set()).add(int(d))
        adj.setdefault(int(d), set()).add(int(s))
    adj = {v: sorted(nbs) for v, nbs in adj.items()}

    def md5_64(s):
        return int.from_bytes(hashlib.md5(s.encode()).digest()[8:16],
                              "little")

    rows = []
    for seed in sorted(adj):
        if seed % 4:
            continue
        cur = seed
        rows.append((seed, 0, cur))
        for t in range(3):
            nbs = adj[cur]
            cur = nbs[md5_64(f"{seed}|{t}|{cur}") % len(nbs)]
            rows.append((seed, t + 1, cur))
    want = (pd.DataFrame(rows, columns=["walk_id", "step", "node"])
            .sort_values(["walk_id", "step"]).reset_index(drop=True))
    assert out.equals(want.astype(np.int64))


def test_dag_longest_path_bruteforce():
    import ray.data as rd

    from city2graph_ray.ops.graph_algos import dag_longest_path
    rng = np.random.default_rng(31)
    # random DAG: edges only from lower to higher node id
    a = rng.integers(0, 30, 80)
    b = rng.integers(0, 30, 80)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keep = lo != hi
    e = pd.DataFrame({"src": lo[keep], "dst": hi[keep]}
                     ).drop_duplicates()
    out = (dag_longest_path(rd.from_pandas(e).repartition(3),
                            rounds=32, num_buckets=4)
           .to_pandas().sort_values("node").reset_index(drop=True))
    # brute force relaxation until fixpoint
    nodes = sorted(set(e["src"]) | set(e["dst"]))
    d = {n: 0 for n in nodes}
    for _ in range(len(nodes)):
        for s, t in zip(e["src"], e["dst"]):
            d[t] = max(d[t], d[s] + 1)
    want = pd.DataFrame(sorted(d.items()), columns=["node", "depth"])
    assert out["node"].tolist() == want["node"].tolist()
    assert out["depth"].tolist() == want["depth"].tolist()


def test_markov_power_bruteforce():
    import ray.data as rd

    from city2graph_ray.ops.graph_algos import markov_power
    e = pd.DataFrame({"src": ["a", "a", "b", "c"],
                      "dst": ["b", "c", "a", "a"],
                      "w": np.array([3, 1, 2, 5], np.int64)})
    out = (markov_power(rd.from_pandas(e), iters=3, num_buckets=2)
           .to_pandas().sort_values("node").reset_index(drop=True))
    # brute force with identical per-iteration rounding
    nodes = ["a", "b", "c"]
    deg = {"a": 4, "b": 2, "c": 5}
    p = {v: round(1 / 3, 10) for v in nodes}
    for _ in range(3):
        s = {v: 0.0 for v in nodes}
        for _, r in e.iterrows():
            s[r["dst"]] += (r["w"] / deg[r["src"]]) * p[r["src"]]
        p = {v: round(s[v], 10) for v in nodes}
    for _, r in out.iterrows():
        assert abs(r["prob"] - round(p[r["node"]], 6)) <= 2e-9


def test_hits_driver_vs_distributed_parity(distributed):
    """The r4 driver fast path must be bit-identical to the
    distributed bucketed-join rounds (same int64 unit recurrence)."""
    import ray.data as rd

    from city2graph_ray.ops.graph_algos import hits

    rng = np.random.default_rng(3)
    edges = pd.DataFrame({
        "src": rng.integers(0, 60, 400).astype(np.int64),
        "dst": rng.integers(0, 60, 400).astype(np.int64)})
    a = (hits(rd.from_pandas(edges), num_iters=3)
         .to_pandas().sort_values("node").reset_index(drop=True))
    with distributed():
        b = (hits(rd.from_pandas(edges), num_iters=3, num_buckets=4)
             .to_pandas().sort_values("node").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


def test_dag_depth_and_markov_driver_vs_distributed_parity(distributed):
    import ray.data as rd

    from city2graph_ray.ops.graph_algos import dag_longest_path, markov_power

    rng = np.random.default_rng(5)
    # DAG: edges only low -> high
    a = rng.integers(0, 50, 300).astype(np.int64)
    b = rng.integers(1, 30, 300).astype(np.int64)
    dag = pd.DataFrame({"src": a, "dst": a + b})
    x = (dag_longest_path(rd.from_pandas(dag), rounds=8)
         .to_pandas().sort_values("node").reset_index(drop=True))
    with distributed():
        y = (dag_longest_path(rd.from_pandas(dag), rounds=8, num_buckets=4)
             .to_pandas().sort_values("node").reset_index(drop=True))
    pd.testing.assert_frame_equal(x, y)

    mk = pd.DataFrame({
        "src": rng.integers(0, 12, 200).astype(np.int64),
        "dst": rng.integers(0, 12, 200).astype(np.int64),
        "w": rng.integers(1, 9, 200).astype(np.int64)})
    m1 = (markov_power(rd.from_pandas(mk), iters=4)
          .to_pandas().sort_values("node").reset_index(drop=True))
    with distributed():
        m2 = (markov_power(rd.from_pandas(mk), iters=4, num_buckets=4)
              .to_pandas().sort_values("node").reset_index(drop=True))
    pd.testing.assert_frame_equal(m1, m2)


def test_condensation_driver_vs_distributed_parity():
    import ray.data as rd

    from city2graph_ray.ops.graph_algos import condensation_edges

    rng = np.random.default_rng(9)
    # sparse digraph: several nontrivial SCCs and a nonempty DAG
    edges = pd.DataFrame({
        "src": rng.integers(0, 40, 45).astype(np.int64),
        "dst": rng.integers(0, 40, 45).astype(np.int64)})

    def canon(ds):
        return (ds.to_pandas().sort_values(["scc_src", "scc_dst"])
                .reset_index(drop=True))

    a = canon(condensation_edges(rd.from_pandas(edges)))
    # distributed branch: monkey-wise force via a tiny threshold is not
    # parameterized here; instead compare against a networkx oracle
    import networkx as nx
    g = nx.DiGraph()
    g.add_edges_from(edges.values)
    comp = {n: min(c) for c in nx.strongly_connected_components(g)
            for n in c}
    want = sorted({(comp[s], comp[d]) for s, d in edges.values
                   if comp[s] != comp[d]})
    # engine scc ids may differ from min-member ids; compare structure
    # via relabeled-by-member mapping
    sccmap = {}
    import city2graph_ray.ops.graph_algos as ga
    lab = (ga.strongly_connected_components(rd.from_pandas(edges))
           .to_pandas())
    eng = dict(zip(lab["node"], lab["scc_id"]))
    trans = {}
    for n, sid in eng.items():
        trans.setdefault(sid, comp[n])
    got = sorted({(trans[s], trans[d])
                  for s, d in a[["scc_src", "scc_dst"]].to_numpy()})
    assert got == want


def test_condensation_threshold_forces_distributed(distributed):
    """ADVICE r4: a 0-byte driver budget runs condensation_edges'
    bucketed-join branch, which must produce the identical
    (scc_src, scc_dst) pair set."""
    import ray.data as rd

    from city2graph_ray.ops.graph_algos import condensation_edges

    rng = np.random.default_rng(9)
    edges = pd.DataFrame({
        "src": rng.integers(0, 40, 45).astype(np.int64),
        "dst": rng.integers(0, 40, 45).astype(np.int64)})

    def canon(ds):
        return (ds.to_pandas().sort_values(["scc_src", "scc_dst"])
                .reset_index(drop=True))

    a = canon(condensation_edges(rd.from_pandas(edges)))
    with distributed():
        b = canon(condensation_edges(rd.from_pandas(edges)))
    pd.testing.assert_frame_equal(a, b)


def test_bowtie_threshold_forces_distributed(distributed):
    """ADVICE r4: a 0-byte driver budget runs bowtie_structure's
    frontier-join BFS branch; the five summary scalars must match the
    driver sweep."""
    import ray.data as rd

    from city2graph_ray.ops.graph_algos import bowtie_structure

    # core 3-cycle {5,6,7}, IN tail 1->2->5, OUT tail 7->8->9,
    # disconnected pair 30->31
    edges = pd.DataFrame({
        "src": np.array([5, 6, 7, 1, 2, 7, 8, 30], dtype=np.int64),
        "dst": np.array([6, 7, 5, 2, 5, 8, 9, 31], dtype=np.int64)})
    a = bowtie_structure(rd.from_pandas(edges), rounds=6)
    with distributed():
        b = bowtie_structure(rd.from_pandas(edges), rounds=6)
    pd.testing.assert_frame_equal(a.reset_index(drop=True),
                                  b.reset_index(drop=True))
    assert int(a["n_core"].iloc[0]) == 3
    assert int(a["n_in"].iloc[0]) == 2
    assert int(a["n_out"].iloc[0]) == 2
    assert int(a["n_other"].iloc[0]) == 2


def test_clustering_hub_cap_celebrity_removal():
    """VERDICT r4 #6: max_degree on clustering_coefficient = exact
    computation on the hub-removed subgraph (full-graph degrees decide
    the cut, everything re-measured on the subgraph)."""
    import networkx as nx
    import ray.data as rd

    from city2graph_ray.ops.graph_algos import clustering_coefficient

    rng = np.random.default_rng(13)
    edges = pd.DataFrame({
        "src": rng.integers(0, 60, 400).astype(np.int64),
        "dst": rng.integers(0, 60, 400).astype(np.int64)})
    cap = 12
    out = (clustering_coefficient(rd.from_pandas(edges), max_degree=cap)
           .to_pandas().sort_values("node").reset_index(drop=True))

    g = nx.Graph()
    g.add_edges_from(
        (int(s), int(d)) for s, d in edges.values if s != d)
    hubs = {n for n, d in g.degree() if d > cap}
    sub = g.subgraph([n for n in g if n not in hubs]).copy()
    sub.remove_nodes_from([n for n in list(sub) if sub.degree(n) == 0])
    want = nx.clustering(sub)
    assert set(out["node"]) == set(want)
    for _, r in out.iterrows():
        assert abs(r["coeff"] - want[int(r["node"])]) < 1e-12
        assert r["degree"] == sub.degree(int(r["node"]))


def test_harmonic_bitset_driver_vs_distributed_parity(distributed):
    """r5 scale fix: harmonic_centrality's driver bitset-BFS (counts
    via bitwise_or.reduceat + popcount) must match the distributed
    Bellman-Ford histogram path bit-for-bit, and networkx."""
    import networkx as nx
    import ray.data as rd

    from city2graph_ray.ops.graph_algos import harmonic_centrality

    rng = np.random.default_rng(3)
    e = pd.DataFrame({"src": rng.integers(0, 150, 700).astype(np.int64),
                      "dst": rng.integers(0, 150, 700).astype(np.int64)})
    a = (harmonic_centrality(rd.from_pandas(e), hops=3)
         .to_pandas().sort_values("node").reset_index(drop=True))
    with distributed():
        b = (harmonic_centrality(rd.from_pandas(e), hops=3)
             .to_pandas().sort_values("node").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)

    g = nx.Graph()
    g.add_edges_from((s, d) for s, d in e.values if s != d)
    for _, r in a.iterrows():
        ls = nx.single_source_shortest_path_length(
            g, int(r["node"]), cutoff=3)
        n_r = sum(1 for _, d in ls.items() if d > 0)
        want = sum(1.0 / d for _, d in ls.items() if d > 0)
        assert n_r == r["n_reach"]
        assert abs(want - r["harmonic"]) < 1e-9


def test_harmonic_dense_few_nodes_counts_bitset_bytes(monkeypatch):
    """ADVICE: the bitset path allocates a cur[tails] gather of 2·m·w
    bytes, n×w bitsets and an int64 popcount temporary on top of the
    edge collect.  With the budget between the edge-collect estimate
    and that total, a dense graph with few nodes must take the
    distributed relaxation (bounded_hop_paths) and match the
    default-budget output."""
    import ray.data as rd

    from city2graph_ray import budget
    from city2graph_ray.ops import network
    from city2graph_ray.ops.graph_algos import harmonic_centrality

    n = 60
    iu, ju = np.triu_indices(n, 1)          # complete graph
    e = pd.DataFrame({"src": iu.astype(np.int64), "dst": ju.astype(np.int64)})
    m, w = len(e), (n + 7) // 8
    edge_bytes = 176 * m                    # the gate's edge estimate
    bitset_bytes = 14 * n * w + 2 * (2 * m) * w

    calls = []
    real = network.bounded_hop_paths

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(network, "bounded_hop_paths", spy)
    a = (harmonic_centrality(rd.from_pandas(e), hops=2)
         .to_pandas().sort_values("node").reset_index(drop=True))
    assert not calls                        # default budget: bitset path
    monkeypatch.setattr(budget, "DRIVER_BYTES",
                        edge_bytes + bitset_bytes // 2)
    b = (harmonic_centrality(rd.from_pandas(e), hops=2)
         .to_pandas().sort_values("node").reset_index(drop=True))
    assert calls
    pd.testing.assert_frame_equal(a, b)
