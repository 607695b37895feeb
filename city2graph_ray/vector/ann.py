"""Similarity search over an embedding column (``list<float>``).

- ``ann_topk``: brute-force cosine top-k — the exact baseline: per-batch
  numpy matmul against a *broadcast* normalized query matrix
  (put once, read once per worker), per-batch partial top-k, then a
  tiny per-query top-k merge (``shuffle.topk_in_group``).  The corpus
  streams; nothing materializes.
- ``ivf_topk``: the scale path — IVF-style bucketing by nearest coarse
  centroid (deterministic centroids from seeded corpus rows), probing
  ``nprobe`` buckets; recall < 1 by design, measured in tests.
- ``embedding_neardup``: cosine near-duplicate pairs via the same
  bucketing.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data

from city2graph_ray import shuffle
from city2graph_ray.exchange import keyed_exchange
from city2graph_ray.joins import broadcast_map


def _to_matrix(col) -> np.ndarray:
    return np.asarray([np.asarray(v, np.float64) for v in col])


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.sqrt((m * m).sum(axis=1, keepdims=True))
    return m / np.where(n > 0, n, 1.0)


def ann_topk(corpus: ray.data.Dataset, queries: pd.DataFrame, k: int = 10,
             vec_col: str = "embedding", id_col: str = "vec_id",
             round_to: int | None = 6) -> ray.data.Dataset:
    """Exact cosine top-k of every query over the corpus.

    ``queries``: DataFrame with (query_id, embedding).  Output rows
    (query_id, vec_id, cosine) — top-k per query, ties broken by
    (cosine desc, vec_id asc).  ``round_to`` rounds cosine before
    ranking so results are reproducible against SQL oracles."""
    qm = _normalize(_to_matrix(queries[vec_col]))
    qids = queries["query_id"].to_numpy()

    def score(batch: pd.DataFrame, q: tuple) -> pd.DataFrame:
        qids_, qm_ = q
        cm = _normalize(_to_matrix(batch[vec_col]))
        sims = cm @ qm_.T  # (n_corpus, n_queries)
        if round_to is not None:
            sims = np.round(sims, round_to)
        ids = batch[id_col].to_numpy()
        kk = min(k, len(ids))
        # per-query partial top-k within this batch
        order = np.lexsort((ids[:, None].repeat(sims.shape[1], 1), -sims),
                           axis=0)[:kk]
        rows = order.ravel(order="F")
        qcol = np.repeat(qids_, kk)
        return pd.DataFrame({"query_id": qcol, id_col: ids[rows],
                             "cosine": sims[rows, np.repeat(
                                 np.arange(sims.shape[1]), kk)]})

    partials = broadcast_map(corpus, (qids, qm), score)

    return shuffle.topk_in_group(partials, ["query_id"], k,
                                 ["cosine", id_col], [False, True])


def _centroids(corpus: ray.data.Dataset, n_centroids: int,
               vec_col: str, id_col: str,
               train_iters: int = 3) -> np.ndarray:
    """Trained coarse centroids: deterministic seed rows (id ≡ 0 mod
    ceil(n/n_centroids)) refined by ``train_iters`` Lloyd iterations of
    spherical k-means.  Each iteration is one streaming pass: per-batch
    partial (sum, count) per centroid inside ``map_batches``, then a
    tiny (n_centroids × dim) driver reduce — the corpus never
    materializes."""
    n = corpus.count()
    step = max(n // n_centroids, 1)
    sample = corpus.filter(lambda r: r[id_col] % step == 0).limit(n_centroids)
    cents = _normalize(_to_matrix(sample.to_pandas()[vec_col]))

    def partial(batch: pd.DataFrame, cents_: np.ndarray) -> pd.DataFrame:
        cm = _normalize(_to_matrix(batch[vec_col]))
        a = np.argmax(cm @ cents_.T, axis=1)
        sums = np.zeros_like(cents_)
        np.add.at(sums, a, cm)
        counts = np.bincount(a, minlength=len(cents_))
        return pd.DataFrame({
            "c": np.arange(len(cents_), dtype=np.int64),
            "n": counts.astype(np.int64),
            "vec": list(sums)})

    for _ in range(train_iters):
        parts = broadcast_map(corpus, cents, partial).to_pandas()
        sums = np.zeros_like(cents)
        counts = np.zeros(len(cents), dtype=np.int64)
        for c, cnt, vec in zip(parts["c"], parts["n"], parts["vec"]):
            sums[int(c)] += np.asarray(vec, np.float64)
            counts[int(c)] += int(cnt)
        nonzero = counts > 0
        cents = cents.copy()
        cents[nonzero] = sums[nonzero] / counts[nonzero, None]
        cents = _normalize(cents)
    return cents


def ivf_topk(corpus: ray.data.Dataset, queries: pd.DataFrame, k: int = 10,
             n_centroids: int = 16, nprobe: int = 4,
             vec_col: str = "embedding", id_col: str = "vec_id",
             ) -> ray.data.Dataset:
    """IVF-bucketed approximate top-k: corpus rows shuffle once to their
    nearest-centroid bucket; each query probes its ``nprobe`` nearest
    buckets.  Same output schema as ann_topk; recall measured in tests."""
    cents = _centroids(corpus, n_centroids, vec_col, id_col)
    qm = _normalize(_to_matrix(queries[vec_col]))
    qids = queries["query_id"].to_numpy()
    q_buckets = np.argsort(-(qm @ cents.T), axis=1)[:, :nprobe]
    ref = ray.put((cents, qids, qm, q_buckets))

    def assign(batch: pd.DataFrame, cents_: np.ndarray) -> pd.DataFrame:
        cm = _normalize(_to_matrix(batch[vec_col]))
        b = np.argmax(cm @ cents_.T, axis=1)
        out = batch[[id_col, vec_col]].copy()
        out["bucket"] = b.astype(np.int64)
        return out

    bucketed = broadcast_map(corpus, ref, assign, prepare=lambda st: st[0])

    def probe(g: pd.DataFrame) -> pd.DataFrame:
        _, qids_, qm_, q_buckets_ = ray.get(ref)  # zero-copy object-store read
        b = int(g["bucket"].iloc[0])
        probe_q = np.nonzero((q_buckets_ == b).any(axis=1))[0]
        if len(probe_q) == 0:
            return pd.DataFrame({"query_id": pd.Series(dtype=np.int64),
                                 id_col: pd.Series(dtype=np.int64),
                                 "cosine": pd.Series(dtype=np.float64)})
        cm = _normalize(_to_matrix(g[vec_col]))
        sims = np.round(cm @ qm_[probe_q].T, 6)
        ids = g[id_col].to_numpy()
        kk = min(k, len(ids))
        order = np.lexsort((ids[:, None].repeat(sims.shape[1], 1), -sims),
                           axis=0)[:kk]
        rows = order.ravel(order="F")
        return pd.DataFrame({
            "query_id": np.repeat(qids_[probe_q], kk),
            id_col: ids[rows],
            "cosine": sims[rows, np.repeat(np.arange(sims.shape[1]), kk)]})

    partials = keyed_exchange(bucketed, ["bucket"], probe)
    return shuffle.topk_in_group(partials, ["query_id"], k,
                                 ["cosine", id_col], [False, True])


def _hyperplanes(dim: int, nbits: int, seed: int = 7) -> np.ndarray:
    """Deterministic Gaussian hyperplane matrix (nbits × dim)."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((nbits, dim))
    return h / np.linalg.norm(h, axis=1, keepdims=True)


def _srp_codes(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Signed-random-projection hash codes, packed little-endian int64."""
    bits = (m @ planes.T) >= 0.0
    weights = (1 << np.arange(planes.shape[0], dtype=np.int64))
    return bits.astype(np.int64) @ weights


def lsh_topk(corpus: ray.data.Dataset, queries: pd.DataFrame, k: int = 10,
             nbits: int = 8, nprobe: int = 8, seed: int = 7,
             vec_col: str = "embedding", id_col: str = "vec_id",
             ) -> ray.data.Dataset:
    """LSH-bucketed approximate cosine top-k (the hash-table scale path
    next to the IVF one).

    Signed-random-projection LSH (Charikar, STOC'02 — public
    literature): ``nbits`` Gaussian hyperplanes give every vector a
    sign-bit code; the corpus shuffles ONCE to its code bucket; each
    query multi-probes its own bucket plus the buckets reached by
    flipping its lowest-margin bits (Lv et al., VLDB'07 multi-probe),
    ``nprobe`` buckets total.  Output schema matches ``ann_topk``
    (query_id, vec_id, cosine — ties (cosine desc, id asc)); recall < 1
    by design and measured in tests.  With ``nprobe >= 2**nbits`` every
    bucket is probed and the result is exactly ``ann_topk`` — the
    bit-exact SQL-oracle configuration (same technique as
    ``ivf_ann_exact``)."""
    if not 0 < nbits <= 62:
        raise ValueError("nbits must be in 1..62")
    qm = _normalize(_to_matrix(queries[vec_col]))
    qids = queries["query_id"].to_numpy()
    planes = _hyperplanes(qm.shape[1], nbits, seed)

    # multi-probe set per query: own code, then codes at the subsets of
    # the lowest-|margin| bits (margin = distance to the hyperplane),
    # cheapest-flip-first, capped at nprobe codes.
    margins = qm @ planes.T                      # (nq, nbits) signed
    base = _srp_codes(qm, planes)                # (nq,)
    nprobe_eff = min(nprobe, 1 << nbits)
    order = np.argsort(np.abs(margins), axis=1)  # per-query flip order
    probe_codes = np.empty((len(qm), nprobe_eff), dtype=np.int64)
    # enumerate flip subsets in increasing total-margin order via the
    # standard binary-counter heuristic over the m cheapest bits
    m_bits = min(nbits, max(1, int(np.ceil(np.log2(nprobe_eff))) + 1))
    subsets = np.argsort([bin(s).count("1") for s in range(1 << m_bits)],
                         kind="stable")[:nprobe_eff]
    for qi in range(len(qm)):
        flips = order[qi, :m_bits]
        codes = []
        for s in subsets:
            mask = np.int64(0)
            for b in range(m_bits):
                if s >> b & 1:
                    mask |= np.int64(1) << np.int64(flips[b])
            codes.append(base[qi] ^ mask)
        probe_codes[qi] = codes
    ref = ray.put((planes, qids, qm, probe_codes))

    def assign(batch: pd.DataFrame, planes_: np.ndarray) -> pd.DataFrame:
        cm = _normalize(_to_matrix(batch[vec_col]))
        out = batch[[id_col, vec_col]].copy()
        out["bucket"] = _srp_codes(cm, planes_)
        return out

    bucketed = broadcast_map(corpus, ref, assign, prepare=lambda st: st[0])

    def probe(g: pd.DataFrame) -> pd.DataFrame:
        _, qids_, qm_, probe_codes_ = ray.get(ref)
        b = int(g["bucket"].iloc[0])
        probe_q = np.nonzero((probe_codes_ == b).any(axis=1))[0]
        if len(probe_q) == 0:
            return pd.DataFrame({"query_id": pd.Series(dtype=np.int64),
                                 id_col: pd.Series(dtype=np.int64),
                                 "cosine": pd.Series(dtype=np.float64)})
        cm = _normalize(_to_matrix(g[vec_col]))
        sims = np.round(cm @ qm_[probe_q].T, 6)
        ids = g[id_col].to_numpy()
        kk = min(k, len(ids))
        order_ = np.lexsort((ids[:, None].repeat(sims.shape[1], 1), -sims),
                            axis=0)[:kk]
        rows = order_.ravel(order="F")
        return pd.DataFrame({
            "query_id": np.repeat(qids_[probe_q], kk),
            id_col: ids[rows],
            "cosine": sims[rows, np.repeat(np.arange(sims.shape[1]), kk)]})

    partials = keyed_exchange(bucketed, ["bucket"], probe)
    return shuffle.topk_in_group(partials, ["query_id"], k,
                                 ["cosine", id_col], [False, True])


def embedding_neardup(corpus: ray.data.Dataset, threshold: float = 0.95,
                      n_centroids: int = 16, vec_col: str = "embedding",
                      id_col: str = "vec_id") -> ray.data.Dataset:
    """Cosine near-duplicate pairs (a < b, cosine ≥ threshold).

    Scale path: bucket by nearest centroid and compare within buckets
    (documented recall < 1 across bucket boundaries; high-threshold
    near-dups almost always share the nearest centroid).  For the
    exact small-scale oracle set n_centroids=1."""
    cents = _centroids(corpus, n_centroids, vec_col, id_col)

    def assign(batch: pd.DataFrame, cents_: np.ndarray) -> pd.DataFrame:
        cm = _normalize(_to_matrix(batch[vec_col]))
        out = batch[[id_col, vec_col]].copy()
        out["bucket"] = (np.argmax(cm @ cents_.T, axis=1).astype(np.int64)
                         if len(cents_) > 1 else np.int64(0))
        return out

    bucketed = broadcast_map(corpus, cents, assign)

    # hot-bucket cap: a bucket larger than ``cap`` recursively splits on
    # a deterministic projection with an overlap band of width
    # √(2(1-threshold)) — any pair with cosine ≥ threshold has
    # projection gap ≤ the band, so both members land in at least one
    # common side: NO recall loss, and per-group work stays O(cap²).
    cap = 4096
    band = float(np.sqrt(max(2.0 * (1.0 - threshold), 1e-12)))

    def all_pairs(ids: np.ndarray, cm: np.ndarray) -> pd.DataFrame:
        sims = np.round(cm @ cm.T, 6)
        ii, jj = np.nonzero(np.triu(sims >= threshold, k=1))
        return pd.DataFrame({"a": ids[ii], "b": ids[jj],
                             "cosine": sims[ii, jj]})

    def split_pairs(ids: np.ndarray, cm: np.ndarray,
                    depth: int) -> pd.DataFrame:
        if len(ids) <= cap or depth > 20:
            return all_pairs(ids, cm)
        rng = np.random.default_rng(depth + 7)
        direction = rng.standard_normal(cm.shape[1])
        direction /= np.linalg.norm(direction)
        proj = cm @ direction
        med = float(np.median(proj))
        left = proj <= med + band / 2.0
        right = proj >= med - band / 2.0
        if left.sum() >= 0.95 * len(ids) and right.sum() >= 0.95 * len(ids):
            return all_pairs(ids, cm)  # band covers everything: degenerate
        parts = [split_pairs(ids[side], cm[side], depth + 1)
                 for side in (left, right)]
        return (pd.concat(parts).drop_duplicates(["a", "b"])
                .reset_index(drop=True))

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy()
        o = np.argsort(ids)
        return split_pairs(ids[o], _normalize(_to_matrix(g[vec_col]))[o], 0)

    return keyed_exchange(bucketed, ["bucket"], pairs)
