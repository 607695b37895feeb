"""Bit-exact quantized k-means over an embedding column.

Lloyd's algorithm is float-order-fragile (centroid means sum floats in
block order), so the distributed result would never hash-match a SQL
twin.  This variant is EXACT by construction — the entire iteration
runs in int64:

* embeddings quantize once: ``q = floor(x * scale + 0.5) + offset``
  (the float64 multiply is a single IEEE op, identical in numpy and
  DuckDB; ``offset`` keeps every value positive so integer division
  below is floor in both engines),
* distances are integer sums of squared differences,
* assignment breaks ties by (dist, cid) — numpy ``argmin`` picks the
  first minimum over ascending cid, matching SQL's
  ``row_number() OVER (ORDER BY dist, cid)``,
* the centroid update rounds half-up in integer space:
  ``c_d = (2·S_d + n) // (2·n)`` with positive S — no float mean ever
  exists, so association order cannot matter.

Initial centroids are the quantized vectors of the ``k`` smallest ids
(deterministic, data-defined).  A cluster that loses every member is
dropped (both engines simply stop emitting its cid).

Distributed shape per iteration: the quantized corpus STREAMS through
one ``map_batches`` holding the (k × dim) int64 centroid matrix in the
task closure (a few KiB — rebroadcast per iteration is free); each
block emits ≤ k·dim partial rows ``(cid, dim, sum, count)``; one
partial-combined ``group_agg`` reduces them and the driver folds
≤ k·dim integers into the next centroid matrix.  The corpus itself is
never materialized or collected — iterations re-consume the lazy
quantized Dataset exactly like ``ivf_topk``'s streaming Lloyd
(vector/ann.py:76).

The reference has no clustering operator; this is part of the
training-data-pipeline layer (embedding-space bucketing for curation
and IVF index builds).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from city2graph_ray import shuffle
from city2graph_ray.joins import broadcast_map
from city2graph_ray.vector.ann import _to_matrix

__all__ = ["kmeans_quantized", "kmeans_silhouette", "pq_codes",
           "hard_negatives"]


def _quantize(b: pd.DataFrame, vec_col: str, id_col: str, scale: float,
              offset: int) -> pd.DataFrame:
    m = _to_matrix(b[vec_col])
    q = (np.floor(m * scale + 0.5).astype(np.int64) + offset)
    return pd.DataFrame({id_col: b[id_col].to_numpy(),
                         "__q": list(q)})


def _assign(q: np.ndarray, cents: np.ndarray) -> tuple[np.ndarray,
                                                       np.ndarray]:
    # (n, k) integer squared distances; argmin = first min = min cid
    d = q @ cents.T
    sq_q = (q * q).sum(axis=1, keepdims=True)
    sq_c = (cents * cents).sum(axis=1)
    dist = sq_q - 2 * d + sq_c
    cid = np.argmin(dist, axis=1)
    return cid, dist[np.arange(len(q)), cid]


def kmeans_quantized(ds: ray.data.Dataset, k: int = 4,
                     num_iters: int = 2, scale: float = 10_000.0,
                     offset: int = 100_000,
                     vec_col: str = "embedding", id_col: str = "vec_id",
                     num_buckets: int = shuffle.DEFAULT_BUCKETS,
                     ) -> ray.data.Dataset:
    """Exact integer k-means; output ``(id, cid, dist)`` — the final
    assignment and its integer squared distance after ``num_iters``
    centroid updates.  See module docstring for the exactness
    contract; ``offset`` must exceed ``scale · max|x|`` so quantized
    values stay positive."""
    quant = ds.map_batches(
        lambda b: _quantize(b, vec_col, id_col, scale, offset),
        batch_format="pandas")
    final, final_labels = _fit(quant, k, num_iters, id_col, num_buckets)

    def emit(b: pd.DataFrame) -> pd.DataFrame:
        q = np.stack(b["__q"].to_numpy()).astype(np.int64)
        row, dist = _assign(q, final)
        return pd.DataFrame({id_col: b[id_col].to_numpy(),
                             "cid": final_labels[row],
                             "dist": dist.astype(np.int64)})

    return quant.map_batches(emit, batch_format="pandas")


def _fit(quant: ray.data.Dataset, k: int, num_iters: int, id_col: str,
         num_buckets: int) -> tuple[np.ndarray, np.ndarray]:
    """Streaming Lloyd rounds over a quantized corpus → final
    (centroids, labels); each round's driver state is ≤ k·dim ints."""
    # deterministic init: quantized vectors of the k smallest ids
    seed = quant.sort(id_col).limit(k).to_pandas()
    cents = np.stack(seed["__q"].to_numpy()).astype(np.int64)
    # original cluster labels survive empty-cluster drops (the SQL
    # twin keeps original cids too); centroid rows stay sorted by
    # label so argmin's first-min == smallest surviving cid
    labels = np.arange(len(cents), dtype=np.int64)

    for _ in range(num_iters):
        cur, cur_labels = cents, labels

        def partials(b: pd.DataFrame, cents_=cur,
                     labels_=cur_labels) -> pd.DataFrame:
            q = np.stack(b["__q"].to_numpy()).astype(np.int64)
            row, _ = _assign(q, cents_)
            cid = labels_[row]
            dim = q.shape[1]
            rows = []
            for c in np.unique(cid):
                sel = q[cid == c]
                rows.append(pd.DataFrame({
                    "cid": np.full(dim, c, np.int64),
                    "d": np.arange(dim, dtype=np.int64),
                    "s": sel.sum(axis=0),
                    "n": np.full(dim, len(sel), np.int64)}))
            return pd.concat(rows, ignore_index=True) if rows else \
                pd.DataFrame({"cid": pd.Series(dtype=np.int64),
                              "d": pd.Series(dtype=np.int64),
                              "s": pd.Series(dtype=np.int64),
                              "n": pd.Series(dtype=np.int64)})

        agg = shuffle.group_agg(
            quant.map_batches(partials, batch_format="pandas"),
            ["cid", "d"], {"s": ("s", "sum"), "n": ("n", "sum")},
            num_buckets=num_buckets).to_pandas()
        agg = agg.sort_values(["cid", "d"])
        new, new_labels = [], []
        for c, grp in agg.groupby("cid", sort=True):
            s = grp["s"].to_numpy(np.int64)
            n = grp["n"].to_numpy(np.int64)
            new.append((2 * s + n) // (2 * n))
            new_labels.append(int(c))
        cents = np.stack(new).astype(np.int64)
        labels = np.asarray(new_labels, np.int64)

    return cents, labels


def kmeans_silhouette(ds: ray.data.Dataset, k: int = 4,
                      num_iters: int = 2, scale: float = 10_000.0,
                      offset: int = 100_000,
                      vec_col: str = "embedding",
                      id_col: str = "vec_id",
                      num_buckets: int = shuffle.DEFAULT_BUCKETS,
                      ) -> ray.data.Dataset:
    """Per-point simplified silhouette over the quantized k-means fit,
    exact by the moment identity: for any cluster c,
    ``Σ_{y∈c} ||x−y||² = n_c·||x||² − 2·x·S_c + Q_c`` with integer
    moments ``S_c = Σy`` (per dim) and ``Q_c = Σ||y||²`` — so
    ``a = own-cluster mean sq dist`` (self excluded via n−1) and
    ``b = min other-cluster mean sq dist`` are int64 ratios, and
    ``sil = (b − a) / max(a, b)`` is the same double in numpy and SQL.
    Singleton clusters: ``a`` is NaN/NULL and ``sil = 0`` (standard).

    Output ``(id, cid, a, b, sil)``.  Distributed shape: the fit's
    streaming Lloyd rounds, one moment pass (partial rows per cluster
    per block), moments broadcast (k·(dim+2) ints), one final scoring
    pass — the corpus streams three+ times and never materializes,
    and there is NO corpus-side join."""
    quant = ds.map_batches(
        lambda b: _quantize(b, vec_col, id_col, scale, offset),
        batch_format="pandas")
    cents, labels = _fit(quant, k, num_iters, id_col, num_buckets)

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        q = np.stack(b["__q"].to_numpy()).astype(np.int64)
        row, _ = _assign(q, cents)
        cid = labels[row]
        rows = []
        dim = q.shape[1]
        for c in np.unique(cid):
            sel = q[cid == c]
            # d = dim row carries Q_c (sum of squared norms)
            rows.append(pd.DataFrame({
                "cid": np.full(dim + 1, c, np.int64),
                "d": np.arange(dim + 1, dtype=np.int64),
                "s": np.concatenate([sel.sum(axis=0),
                                     [(sel * sel).sum()]]),
                "n": np.full(dim + 1, len(sel), np.int64)}))
        return pd.concat(rows, ignore_index=True) if rows else \
            pd.DataFrame({"cid": pd.Series(dtype=np.int64),
                          "d": pd.Series(dtype=np.int64),
                          "s": pd.Series(dtype=np.int64),
                          "n": pd.Series(dtype=np.int64)})

    agg = shuffle.group_agg(
        quant.map_batches(moments, batch_format="pandas"),
        ["cid", "d"], {"s": ("s", "sum"), "n": ("n", "sum")},
        num_buckets=num_buckets).to_pandas().sort_values(["cid", "d"])
    dim = int(agg["d"].max())
    # align moment rows to the fit's centroid rows: a centroid can end
    # up empty in the final assignment (no moments) — keep N=0 there
    # and exclude it from the b-minimum below
    kk = len(labels)
    S = np.zeros((kk, dim), np.int64)
    Q = np.zeros(kk, np.int64)
    N = np.zeros(kk, np.int64)
    rowof = {int(c): i for i, c in enumerate(labels)}
    for c, grp in agg.groupby("cid", sort=True):
        vals = grp["s"].to_numpy(np.int64)
        i = rowof[int(c)]
        S[i] = vals[:dim]
        Q[i] = vals[dim]
        N[i] = int(grp["n"].iloc[0])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        q = np.stack(b["__q"].to_numpy()).astype(np.int64)
        row, _ = _assign(q, cents)
        # ssd[i, c] = Σ_{y in c} ||x_i - y||², exact int64
        x2 = (q * q).sum(axis=1, keepdims=True)
        ssd = N[None, :] * x2 - 2 * (q @ S.T) + Q[None, :]
        nb = len(q)
        own = ssd[np.arange(nb), row]
        n_own = N[row]  # own cluster is never empty (this point is in it)
        a = np.where(n_own > 1, own / np.maximum(n_own - 1, 1), np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            others = ssd / N[None, :].astype(np.float64)
        others[:, N == 0] = np.inf
        others[np.arange(nb), row] = np.inf
        b_val = others.min(axis=1)
        b_val = np.where(np.isfinite(b_val), b_val, np.nan)
        with np.errstate(invalid="ignore"):
            sil = np.where(np.isnan(a) | np.isnan(b_val), 0.0,
                           (b_val - a) / np.maximum(a, b_val))
        return pd.DataFrame({id_col: b[id_col].to_numpy(),
                             "cid": labels[row],
                             "a": a, "b": b_val, "sil": sil})

    return quant.map_batches(score, batch_format="pandas")


def pq_codes(ds: ray.data.Dataset, m: int = 8, k: int = 4,
             num_iters: int = 1, scale: float = 10_000.0,
             offset: int = 100_000, vec_col: str = "embedding",
             id_col: str = "vec_id",
             num_buckets: int = shuffle.DEFAULT_BUCKETS,
             ) -> ray.data.Dataset:
    """Product-quantization codes (Jégou et al., PAMI 2011 — public
    literature), bit-exact: the dimension axis splits into ``m``
    contiguous subvectors, each trained with the module's integer
    k-means rules (same quantization, argmin tie-break and
    ``(2S+n)//(2n)`` update), and every vector emits its ``m``
    codebook ids plus the total integer squared quantization error.
    Output ``(id, c0..c{m-1}, dist)``.

    One corpus pass per Lloyd iteration trains ALL subquantizers at
    once (partial rows are (sub, cid, dim, sum, count) — m·k·dim/m =
    k·dim rows per block, same as plain k-means); the driver folds
    k·dim integers per round.  No joins, nothing materializes.
    """
    quant = ds.map_batches(
        lambda b: _quantize(b, vec_col, id_col, scale, offset),
        batch_format="pandas")
    seed = quant.sort(id_col).limit(k).to_pandas()
    full = np.stack(seed["__q"].to_numpy()).astype(np.int64)
    dim = full.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    sub = dim // m
    cents = [full[:, j * sub:(j + 1) * sub].copy() for j in range(m)]
    labels = [np.arange(k, dtype=np.int64) for _ in range(m)]

    for _ in range(num_iters):
        cur = [c.copy() for c in cents]
        cur_l = [l.copy() for l in labels]

        def partials(b: pd.DataFrame, cents_=cur,
                     labels_=cur_l) -> pd.DataFrame:
            q = np.stack(b["__q"].to_numpy()).astype(np.int64)
            rows = []
            for j in range(m):
                qj = q[:, j * sub:(j + 1) * sub]
                row, _ = _assign(qj, cents_[j])
                cid = labels_[j][row]
                for c in np.unique(cid):
                    sel = qj[cid == c]
                    rows.append(pd.DataFrame({
                        "sub": np.full(sub, j, np.int64),
                        "cid": np.full(sub, c, np.int64),
                        "d": np.arange(sub, dtype=np.int64),
                        "s": sel.sum(axis=0),
                        "n": np.full(sub, len(sel), np.int64)}))
            return pd.concat(rows, ignore_index=True) if rows else \
                pd.DataFrame({c: pd.Series(dtype=np.int64)
                              for c in ("sub", "cid", "d", "s", "n")})

        agg = shuffle.group_agg(
            quant.map_batches(partials, batch_format="pandas"),
            ["sub", "cid", "d"], {"s": ("s", "sum"), "n": ("n", "sum")},
            num_buckets=num_buckets).to_pandas()
        cents, labels = [], []
        for j in range(m):
            aj = agg[agg["sub"] == j].sort_values(["cid", "d"])
            new, nl = [], []
            for c, grp in aj.groupby("cid", sort=True):
                s = grp["s"].to_numpy(np.int64)
                n = grp["n"].to_numpy(np.int64)
                new.append((2 * s + n) // (2 * n))
                nl.append(int(c))
            cents.append(np.stack(new).astype(np.int64))
            labels.append(np.asarray(nl, np.int64))

    fc, fl = cents, labels

    def emit(b: pd.DataFrame) -> pd.DataFrame:
        q = np.stack(b["__q"].to_numpy()).astype(np.int64)
        out = {id_col: b[id_col].to_numpy()}
        total = np.zeros(len(q), np.int64)
        for j in range(m):
            row, dist = _assign(q[:, j * sub:(j + 1) * sub], fc[j])
            out[f"c{j}"] = fl[j][row]
            total += dist
        out["dist"] = total
        return pd.DataFrame(out)

    return quant.map_batches(emit, batch_format="pandas")


def hard_negatives(ds: ray.data.Dataset, k: int = 4,
                   num_iters: int = 2, scale: float = 10_000.0,
                   offset: int = 100_000, vec_col: str = "embedding",
                   id_col: str = "vec_id",
                   num_buckets: int = shuffle.DEFAULT_BUCKETS,
                   ) -> ray.data.Dataset:
    """Hard-negative mining over the integer k-means fit: for every
    vector, the NEAREST vector assigned to a DIFFERENT cluster —
    contrastive-training pair generation.  Output
    ``(id, cid, neg_id, neg_cid, neg_dist)`` with integer squared
    distance; ties break on the smaller candidate id.

    Scale note: this exact form broadcasts the quantized corpus
    matrix (``ray.put`` once, streamed batches argmin against it) —
    correct while embeddings fit a node, mirroring ``ann_topk``'s
    exact baseline; beyond that, route candidates through the IVF
    buckets (``ivf_topk``) and verify exactly per bucket, as
    ``embedding_neardup`` does.  Never a per-batch re-ship: the
    matrix ships to each worker once.
    """
    quant = ds.map_batches(
        lambda b: _quantize(b, vec_col, id_col, scale, offset),
        batch_format="pandas")
    cents, labels = _fit(quant, k, num_iters, id_col, num_buckets)

    if len(labels) < 2:
        # one surviving cluster: no cross-cluster negatives exist
        return ray.data.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "cid": pa.array([], pa.int64()),
            "neg_id": pa.array([], pa.int64()),
            "neg_cid": pa.array([], pa.int64()),
            "neg_dist": pa.array([], pa.int64())}))

    corpus = quant.to_pandas()
    qm = np.stack(corpus["__q"].to_numpy()).astype(np.int64)
    row, _ = _assign(qm, cents)
    cids = labels[row]
    ids = corpus[id_col].to_numpy(np.int64)
    # candidate order: ascending id, so the first minimum IS the
    # smallest-id tie-winner
    order = np.argsort(ids, kind="stable")

    def with_norms(cand: tuple) -> tuple:
        return cand + ((cand[0] * cand[0]).sum(axis=1),)

    def mine(b: pd.DataFrame, cand: tuple) -> pd.DataFrame:
        cand_qm, cand_cids, cand_ids, cand_q2 = cand
        q = np.stack(b["__q"].to_numpy()).astype(np.int64)
        rw, _ = _assign(q, cents)
        own = labels[rw]
        x2 = (q * q).sum(axis=1, keepdims=True)
        d = x2 - 2 * (q @ cand_qm.T) + cand_q2[None, :]
        d[own[:, None] == cand_cids[None, :]] = np.iinfo(np.int64).max
        j = np.argmin(d, axis=1)
        return pd.DataFrame({
            id_col: b[id_col].to_numpy(),
            "cid": own,
            "neg_id": cand_ids[j],
            "neg_cid": cand_cids[j],
            "neg_dist": d[np.arange(len(q)), j]})

    return broadcast_map(quant, (qm[order], cids[order], ids[order]), mine,
                         prepare=with_norms)


def sq8_codes(ds: ray.data.Dataset, scale: float = 10_000.0,
              offset: int = 100_000, vec_col: str = "embedding",
              id_col: str = "vec_id") -> ray.data.Dataset:
    """Scalar (per-dimension) uint8 quantization of an embedding
    column — the standard 4× index-compression step before ANN serving
    (FAISS ``SQ8``) — under the repo's exact-integer contract:

    - values quantize to ints ``v = floor(x·scale + 0.5) + offset``
      (same rule as :func:`kmeans_quantized`, double-promoted exactly
      like the SQL twin),
    - pass 1 streams per-dimension ``(min, max)`` partials (one tiny
      d-sized row per block, combined on the driver, broadcast via
      closure — no shuffle),
    - pass 2 maps codes ``(v - mn)·255 // (mx - mn)`` — non-negative
      integer floor division, identical to DuckDB ``//``; constant
      dimensions code to 0,
    - the reconstruction residual is kept cross-multiplied by 255
      (``|v·255 - (mn·255 + code·(mx-mn))|``) so it stays integer.

    Output per vector: (id, code_sum, code_min, code_max, err255) —
    order-insensitive integer summaries of the full code row plus the
    exact ×255 reconstruction L1 error.  At 10^12 vectors both passes
    are single-scan map stages; the only driver state is 2·d ints."""
    quant = ds.map_batches(
        lambda b: _quantize(b, vec_col, id_col, scale, offset),
        batch_format="pandas")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        q = np.stack(b["__q"].to_numpy())
        return pd.DataFrame({"mn": [q.min(axis=0)], "mx": [q.max(axis=0)]})

    parts = quant.map_batches(partial, batch_format="pandas").to_pandas()
    mn = np.stack(parts["mn"].to_numpy()).min(axis=0).astype(np.int64)
    mx = np.stack(parts["mx"].to_numpy()).max(axis=0).astype(np.int64)
    rng = mx - mn
    safe = np.where(rng > 0, rng, 1)

    def emit(b: pd.DataFrame) -> pd.DataFrame:
        q = np.stack(b["__q"].to_numpy()).astype(np.int64)
        code = np.where(rng > 0, ((q - mn) * 255) // safe, 0)
        err = np.abs(q * 255 - (mn * 255 + code * rng))
        return pd.DataFrame({id_col: b[id_col].to_numpy(),
                             "code_sum": code.sum(axis=1),
                             "code_min": code.min(axis=1),
                             "code_max": code.max(axis=1),
                             "err255": err.sum(axis=1)})

    return quant.map_batches(emit, batch_format="pandas")


def kcenter_select(ds: ray.data.Dataset, k: int = 8,
                   scale: float = 10_000.0, offset: int = 100_000,
                   vec_col: str = "embedding", id_col: str = "vec_id",
                   ) -> ray.data.Dataset:
    """Farthest-first traversal (Gonzalez greedy k-center — the 2-approx
    coreset/diversity selector used for training-data subset selection):
    start from the smallest id, then k-1 times add the point whose
    squared distance to the nearest already-selected center is maximal
    (tie-break: smallest id).

    Exact-integer contract: vectors quantize via the shared
    ``floor(x·scale + 0.5) + offset`` rule, all distances are int64
    squared euclidean, so argmax/argmin have no float ambiguity and
    the unrolled SQL twin is bit-exact.

    Each round is ONE streaming map pass emitting a per-block champion
    (max min-distance-to-centers, tie smallest id) plus a k-row
    driver-side reduce — no shuffle, driver state is k·dim ints.  At
    10^12 vectors that is k corpus scans; centers ride along as a
    closure-captured (k, dim) int array.

    Output: (sel_rank, vec_id, dist) — dist is the selection-time distance
    to the nearest earlier center (0 for the seed)."""
    quant = ds.map_batches(
        lambda b: _quantize(b, vec_col, id_col, scale, offset),
        batch_format="pandas")

    seed = quant.sort(id_col).limit(1).to_pandas()
    sel_ids = [int(seed[id_col].iloc[0])]
    sel_dist = [0]
    centers = np.stack(seed["__q"].to_numpy()).astype(np.int64)

    for _ in range(k - 1):
        cur = centers

        def champion(b: pd.DataFrame, cents_=cur) -> pd.DataFrame:
            q = np.stack(b["__q"].to_numpy()).astype(np.int64)
            d = (q * q).sum(axis=1, keepdims=True) \
                - 2 * (q @ cents_.T) + (cents_ * cents_).sum(axis=1)
            md = d.min(axis=1)
            ids = b[id_col].to_numpy(np.int64)
            # per-block champion: max dist, tie smallest id
            order = np.lexsort((ids, -md))
            j = order[0]
            return pd.DataFrame({id_col: [ids[j]], "d": [md[j]],
                                 "__q": [q[j]]})

        cand = quant.map_batches(champion, batch_format="pandas") \
            .to_pandas()
        cand = cand.sort_values(["d", id_col],
                                ascending=[False, True]).iloc[0]
        sel_ids.append(int(cand[id_col]))
        sel_dist.append(int(cand["d"]))
        centers = np.vstack([centers,
                             np.asarray(cand["__q"], np.int64)])

    out = pd.DataFrame({"sel_rank": np.arange(k, dtype=np.int64),
                        id_col: np.asarray(sel_ids, np.int64),
                        "dist": np.asarray(sel_dist, np.int64)})
    return ray.data.from_pandas(out)


def mmr_select(ds: ray.data.Dataset, k: int = 5,
               scale: float = 10_000.0, offset: int = 100_000,
               vec_col: str = "embedding", id_col: str = "vec_id",
               ) -> ray.data.Dataset:
    """Maximal Marginal Relevance selection (Carbonell & Goldstein,
    SIGIR'98 — the classic diversity re-ranker) with λ = 1/2, made
    exact-integer: the query is the min-id vector, relevance is the
    NEGATIVE integer squared distance to it, similarity the negative
    squared distance between candidates, so the doubled MMR objective
    is the all-integer ``m(x) = min_{s∈S} d²(x,s) − d²(x,q)`` —
    argmax/tie-break (smallest id) have no float ambiguity and the
    unrolled SQL ladder is bit-exact.

    Pick 1 is the most relevant candidate (min d² to query, tie min
    id, reported as mmr2 = −d²); picks 2..k maximize m(x).  Same scale
    shape as :func:`kcenter_select`: one streaming champion pass per
    round, selected vectors ride in the closure, driver holds k·dim
    ints.  Output (sel_rank, vec_id, mmr2)."""
    quant = ds.map_batches(
        lambda b: _quantize(b, vec_col, id_col, scale, offset),
        batch_format="pandas").materialize()

    seed = quant.sort(id_col).limit(1).to_pandas()
    qvid = int(seed[id_col].iloc[0])
    qvec = np.asarray(seed["__q"].iloc[0], np.int64)

    def d2(q: np.ndarray, c: np.ndarray) -> np.ndarray:
        return ((q - c[None, :]) ** 2).sum(axis=1)

    # pick 1: most relevant (min d² to query, tie min id)
    def champ_rel(b: pd.DataFrame) -> pd.DataFrame:
        ids = b[id_col].to_numpy(np.int64)
        m = ids != qvid
        if not m.any():
            return pd.DataFrame({id_col: [], "s": [], "__q": []})
        q = np.stack(b["__q"].to_numpy()).astype(np.int64)[m]
        ids = ids[m]
        d = d2(q, qvec)
        order = np.lexsort((ids, d))
        j = order[0]
        return pd.DataFrame({id_col: [ids[j]], "s": [-d[j]],
                             "__q": [q[j]]})

    cand = quant.map_batches(champ_rel, batch_format="pandas").to_pandas()
    cand = cand.sort_values(["s", id_col],
                            ascending=[False, True]).iloc[0]
    sel_ids = [int(cand[id_col])]
    sel_scores = [int(cand["s"])]
    sel = np.asarray(cand["__q"], np.int64)[None, :]

    for _ in range(k - 1):
        cur, excl = sel, np.asarray(sel_ids + [qvid], np.int64)

        def champ(b: pd.DataFrame, sel_=cur,
                  excl_=excl) -> pd.DataFrame:
            ids = b[id_col].to_numpy(np.int64)
            m = ~np.isin(ids, excl_)
            if not m.any():
                return pd.DataFrame({id_col: [], "s": [], "__q": []})
            q = np.stack(b["__q"].to_numpy()).astype(np.int64)[m]
            ids = ids[m]
            dmin = ((q[:, None, :] - sel_[None, :, :]) ** 2) \
                .sum(axis=2).min(axis=1)
            s = dmin - d2(q, qvec)
            order = np.lexsort((ids, -s))
            j = order[0]
            return pd.DataFrame({id_col: [ids[j]], "s": [s[j]],
                                 "__q": [q[j]]})

        cand = quant.map_batches(champ, batch_format="pandas").to_pandas()
        cand = cand.sort_values(["s", id_col],
                                ascending=[False, True]).iloc[0]
        sel_ids.append(int(cand[id_col]))
        sel_scores.append(int(cand["s"]))
        sel = np.vstack([sel, np.asarray(cand["__q"], np.int64)])

    return ray.data.from_pandas(pd.DataFrame({
        "sel_rank": np.arange(k, dtype=np.int64),
        "vec_id": np.asarray(sel_ids, np.int64),
        "mmr2": np.asarray(sel_scores, np.int64)}))
