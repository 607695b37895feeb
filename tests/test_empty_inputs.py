"""Empty/tiny-input robustness across op families (reference edge-case
parity: empty frames return empty results, singletons cluster to
themselves, no crashes or schema errors)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd


def _pts(**cols):
    return rd.from_pandas(pd.DataFrame(cols))


def test_knn_radius_empty_points():
    from city2graph_ray.ops.proximity import fixed_radius_graph, knn_graph
    empty = _pts(id=pd.Series(dtype=np.int64),
                 x=pd.Series(dtype=np.float64),
                 y=pd.Series(dtype=np.float64))
    assert knn_graph(empty, 3).count() == 0
    assert fixed_radius_graph(empty, 1.0).count() == 0


def test_minhash_singleton_corpus():
    from city2graph_ray.text.dedup import minhash_dedup, ngram_jaccard_pairs
    one = _pts(doc_id=np.array([1], dtype=np.int64), text=["hello world"])
    out = minhash_dedup(one).to_pandas()
    assert out.to_dict("records") == [{"doc_id": 1, "cluster_id": 1}]
    assert ngram_jaccard_pairs(one).count() == 0


def test_misc_tiny_inputs():
    from city2graph_ray.ops.graph_algos import pagerank
    from city2graph_ray.ops.proximity import (delaunay_graph,
                                              euclidean_minimum_spanning_tree,
                                              waxman_graph)
    from city2graph_ray.text.dedup import exact_dedup, simhash_pairs
    single = _pts(id=np.array([0], dtype=np.int64), x=[0.0], y=[0.0])
    two = _pts(id=np.array([0, 1], dtype=np.int64), x=[0.0, 1.0],
               y=[0.0, 0.0])
    assert delaunay_graph(single).count() == 0
    assert euclidean_minimum_spanning_tree(two).count() == 1
    assert waxman_graph(single, beta=0.5, r0=1.0).count() == 0
    one_doc = _pts(doc_id=np.array([1], dtype=np.int64), text=["a b"])
    assert exact_dedup(one_doc).count() == 1
    assert simhash_pairs(one_doc).count() == 0
    e1 = _pts(src=np.array([0], dtype=np.int64),
              dst=np.array([1], dtype=np.int64))
    assert pagerank(e1, num_iters=2).count() == 2


def test_connected_components_empty_edges():
    from city2graph_ray.ops.topology import connected_components
    empty = rd.from_pandas(pd.DataFrame(
        {"src": pd.Series(dtype=np.int64),
         "dst": pd.Series(dtype=np.int64)}))
    assert connected_components(empty).count() == 0


def test_session8_ops_tiny_inputs():
    """Edge-case probes for the session-8 operators: single-row /
    empty / degenerate inputs must not crash and must return the
    structurally-right shape."""
    from city2graph_ray.ops.graph_algos import (dag_longest_path,
                                                hash_walks,
                                                markov_power)
    from city2graph_ray.ops.intervals import allen_relation_census
    from city2graph_ray.ops.mobility import ipf_balance
    from city2graph_ray.ops.segments import strokes
    from city2graph_ray.ops.stats import (mann_kendall, theil_sen,
                                          group_entropy)
    from city2graph_ray.ops.tiling import (compact_cells,
                                           raster_regions,
                                           uncompact_cells)
    from city2graph_ray.ops.windows import scd2_intervals
    from city2graph_ray.text.analysis import (cdc_chunks,
                                              chunk_documents,
                                              oov_rate,
                                              textrank_terms)
    from city2graph_ray.text.decontam import ngram_novelty

    ts1 = pd.to_datetime(["2024-01-01"])
    one_ev = _pts(k=np.array([1], np.int64),
                  id=np.array([1], np.int64), ts=ts1,
                  v=[2.5], attr=["x"])
    assert mann_kendall(one_ev, "k", "ts", "id", "v").count() == 1
    assert theil_sen(
        one_ev.map_batches(lambda b: pd.DataFrame(
            {"k": b["k"], "t": np.array([5], np.int64),
             "v": np.array([3], np.int64)}),
            batch_format="pandas"), "k", "t", "v").count() == 0
    assert scd2_intervals(one_ev, "k", "ts", "id", "attr").count() == 1
    iv = _pts(k=np.array([1], np.int64), id=np.array([1], np.int64),
              s=np.array([0], np.int64), e=np.array([5], np.int64))
    assert allen_relation_census(iv, "k", "s", "e", "id").count() == 0
    assert group_entropy(one_ev, "k", "attr").count() == 1

    empty_docs = _pts(doc_id=pd.Series(dtype=np.int64),
                      text=pd.Series(dtype=str))
    assert chunk_documents(empty_docs).count() == 0
    assert cdc_chunks(empty_docs).count() == 0
    one_doc = _pts(doc_id=np.array([1], np.int64), text=["hi"])
    assert chunk_documents(one_doc).count() == 1
    assert cdc_chunks(one_doc).count() == 1
    assert ngram_novelty(one_doc).count() == 0   # too short for 4-grams
    assert oov_rate(one_doc, vocab_k=5).count() == 1
    tr = textrank_terms(one_doc, k=5, num_iters=2, num_buckets=2)
    assert tr.count() == 0   # single token → no co-occurrence edges

    e1 = _pts(src=np.array([0], np.int64), dst=np.array([1], np.int64))
    assert dag_longest_path(e1, rounds=3, num_buckets=2).count() == 2
    assert hash_walks(e1, seed_mod=1, length=2,
                      num_buckets=2).count() == 6
    w1 = _pts(src=["a"], dst=["b"], w=np.array([2], np.int64))
    assert markov_power(w1, iters=2, num_buckets=2).count() == 2

    one_cell = _pts(ix=np.array([3], np.int64),
                    iy=np.array([4], np.int64))
    comp = compact_cells(one_cell, levels=2, num_buckets=2)
    cdf = comp.to_pandas()
    assert len(cdf) == 1 and cdf["res"].iloc[0] == 0
    assert uncompact_cells(comp).count() == 1
    one_rc = _pts(c=np.array([2], np.int64), r=np.array([9], np.int64))
    assert raster_regions(one_rc, num_buckets=2).count() == 1

    seg1 = _pts(seg_id=np.array([7], np.int64),
                ax=np.array([0], np.int64), ay=np.array([0], np.int64),
                bx=np.array([0], np.int64), by=np.array([0], np.int64))
    # degenerate zero-length segment: inert, self-stroke
    s_out = strokes(seg1, num_buckets=2).to_pandas()
    assert s_out["stroke"].tolist() == [7]

    od1 = _pts(o=np.array([1], np.int64), d=np.array([2], np.int64),
               flow=np.array([5], np.int64))
    b = ipf_balance(od1, 10.0, 10.0, rounds=2,
                    num_buckets=2).to_pandas()
    assert len(b) == 1 and abs(b["flow"].iloc[0] - 10.0) < 1e-6


def test_bowtie_empty_and_ipf_zero_margin():
    """ADVICE r3: bowtie_structure on an empty edge table returns one
    zeros row (no IndexError); ipf_balance leaves all-zero margins
    untouched instead of casting NaN to garbage."""
    from city2graph_ray.ops.graph_algos import bowtie_structure
    from city2graph_ray.ops.mobility import ipf_balance

    empty_edges = _pts(src=pd.Series(dtype=np.int64),
                       dst=pd.Series(dtype=np.int64))
    bt = bowtie_structure(empty_edges, rounds=2, num_buckets=2)
    assert bt.to_dict("records") == [
        {"n_core": 0, "n_in": 0, "n_out": 0, "n_other": 0, "core_id": -1}]

    od = _pts(o=np.array([1, 2], np.int64), d=np.array([2, 3], np.int64),
              flow=np.array([5, 0], np.int64))
    out = (ipf_balance(od, 10.0, 10.0, rounds=2, num_buckets=2)
           .to_pandas().sort_values("o").reset_index(drop=True))
    # zero-flow row (o=2 margin sum 0) stays exactly 0, no NaN garbage
    assert out["flow"].tolist() == [10.0, 0.0]


def test_clustering_cap_removes_all_edges_empty(ray_session):
    """A cap below every degree empties the subgraph: the op must
    short-circuit to an empty result without crashing (this Ray
    version drops ALL empty-Dataset schemas through to_pandas — the
    repo-wide gotcha — so only the row count is assertable), and a
    non-binding cap must leave the exact result untouched."""
    import pyarrow as pa
    import ray.data as rd

    from city2graph_ray.ops.graph_algos import clustering_coefficient

    e = pd.DataFrame({"src": np.array([1, 2, 3], np.int64),
                      "dst": np.array([2, 3, 1], np.int64)})
    out = clustering_coefficient(rd.from_pandas(e), max_degree=1)
    assert len(out.to_pandas()) == 0
    full = (clustering_coefficient(rd.from_pandas(e), max_degree=99)
            .to_pandas().sort_values("node").reset_index(drop=True))
    assert list(full["coeff"]) == [1.0, 1.0, 1.0]
    # int32 node ids: the capped-empty result keeps the node type of
    # the normal path instead of a hardcoded int64
    e32 = e.astype(np.int32)
    empty = clustering_coefficient(rd.from_pandas(e32), max_degree=1)
    normal = clustering_coefficient(rd.from_pandas(e32),
                                    max_degree=99).materialize()

    def fields(ds):
        return list(zip(ds.schema().names, ds.schema().types))

    assert fields(empty) == fields(normal)
    assert dict(fields(empty))["node"] == pa.int32()
