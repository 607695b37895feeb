"""Blocklist filtering with a broadcast Bloom prefilter.

The standard shape for "drop every document whose key appears in a
(possibly large) removal list" at corpus scale: build a fixed-size
Bloom bitmap from the blocklist (distributed per-block partials,
OR-merged — the bitmap is O(bits), independent of corpus size),
broadcast it once with ``ray.put``, and let every batch drop its
definite-negatives locally with zero shuffle.  Only the Bloom
POSITIVES (true hits + false-positive rate ε of the survivors) pay for
an exact bucketed anti-join confirmation, so the output is EXACT —
the Bloom stage only reduces shuffle bytes, never changes the answer.

No reference counterpart; engine-added LLM-pipeline operator.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.compute as pc
import ray
import ray.data

from city2graph_ray import shuffle
from city2graph_ray.joins import bucketed_join

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = (x + np.uint64(0x9E3779B97F4A7C15))
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def _bloom_positions(keys: np.ndarray, num_bits: int,
                     num_hashes: int) -> np.ndarray:
    """(len(keys), num_hashes) bit positions via double hashing."""
    h1 = _splitmix64(keys.astype(np.uint64))
    h2 = _splitmix64(h1) | np.uint64(1)
    i = np.arange(num_hashes, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None])
            % np.uint64(num_bits))


def build_bloom(blocked: ray.data.Dataset, key_col: str,
                num_bits: int = 1 << 22,
                num_hashes: int = 5) -> "ray.ObjectRef":
    """OR-merge per-block Bloom bitmaps into one broadcast bitmap.

    Each block contributes a packed ``uint64[num_bits/64]`` partial
    (512 KiB at the default 4M bits); the driver ORs the handful of
    block partials — bitmap-sized work, never key-count-sized."""
    words = num_bits // 64

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        pos = _bloom_positions(batch[key_col].to_numpy(), num_bits,
                               num_hashes).ravel()
        bits = np.zeros(words, dtype=np.uint64)
        np.bitwise_or.at(bits, pos // 64,
                         np.uint64(1) << (pos % np.uint64(64)))
        return pd.DataFrame({"w": [bits.tobytes()]})

    parts = blocked.map_batches(partial, batch_format="pandas").take_all()
    bits = np.zeros(words, dtype=np.uint64)
    for p in parts:
        bits |= np.frombuffer(p["w"], dtype=np.uint64)
    return ray.put((bits, num_bits, num_hashes))


def blocklist_filter(docs: ray.data.Dataset, blocked: ray.data.Dataset,
                     key_col: str = "doc_id",
                     num_bits: int = 1 << 22, num_hashes: int = 5,
                     num_buckets: int = shuffle.DEFAULT_BUCKETS,
                     ) -> ray.data.Dataset:
    """EXACT anti-join of ``docs`` against ``blocked`` keys, Bloom-
    accelerated: definite-negatives pass locally (no shuffle); Bloom
    positives are confirmed by a bucketed left join against the
    distinct blocked-key stream and only true hits are dropped."""
    bloom_ref = build_bloom(blocked, key_col, num_bits, num_hashes)

    def split(batch: pd.DataFrame) -> pd.DataFrame:
        bits, nb, nh = ray.get(bloom_ref)
        pos = _bloom_positions(batch[key_col].to_numpy(), nb, nh)
        hit = ((bits[pos // 64] >> (pos % np.uint64(64)))
               & np.uint64(1)).astype(bool).all(axis=1)
        out = batch.copy()
        out["__maybe"] = hit
        return out

    # two consumers (clean/maybe splits) — pin to avoid re-execution.
    # The splits are Arrow stages: an empty pandas batch of object
    # columns makes Ray's block-size estimate log an error per column.
    tagged = docs.map_batches(split, batch_format="pandas").materialize()
    clean = tagged.map_batches(
        lambda t: t.filter(pc.invert(t["__maybe"])).drop_columns(["__maybe"]),
        batch_format="pyarrow")
    maybe = tagged.map_batches(
        lambda t: t.filter(t["__maybe"]).drop_columns(["__maybe"]),
        batch_format="pyarrow")

    bkeys = shuffle.distinct(
        blocked.map_batches(
            lambda b: pd.DataFrame({key_col: b[key_col].to_numpy(),
                                    "__hit": np.ones(len(b), np.int8)}),
            batch_format="pandas"),
        [key_col], num_buckets=num_buckets)
    confirmed = bucketed_join(maybe, bkeys, on=key_col, how="left",
                              num_buckets=num_buckets).map_batches(
        lambda t: t.filter(pc.is_null(t["__hit"])).drop_columns(["__hit"]),
        batch_format="pyarrow")
    return clean.union(confirmed)


class DictionaryCounter:
    """Stateful actor stage: count non-overlapping occurrences of each
    dictionary term in every document (the blocklist-SCORING sibling of
    :func:`blocklist_filter` — keep the doc, measure its exposure).

    The term list is compiled ONCE per actor in ``__init__`` (the
    actor-pool discipline: pass the CLASS to ``map_batches`` with
    ``concurrency=``); each ``__call__`` runs the compiled patterns
    over the batch with pandas' C-level ``str.count``.  Counting is
    greedy left-to-right non-overlapping — exactly SQL's
    ``(length(t) - length(replace(t, p, ''))) / length(p)`` — so the
    op is bit-exact SQL-twinnable for any term list, bordered terms
    included.  Output: one (doc_id, term, n) row per doc×term with
    n > 0.
    """

    def __init__(self, terms: "list[str]", text_col: str = "text",
                 id_col: str = "doc_id"):
        import re
        if not terms or len(set(terms)) != len(terms):
            raise ValueError("terms must be non-empty and distinct")
        self._terms = list(terms)
        self._pats = [re.compile(re.escape(t)) for t in terms]
        self._text_col = text_col
        self._id_col = id_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch[self._text_col].astype(str)
        ids = batch[self._id_col].to_numpy(np.int64)
        out_id, out_term, out_n = [], [], []
        for term, pat in zip(self._terms, self._pats):
            n = texts.str.count(pat).to_numpy(np.int64)
            hit = n > 0
            if hit.any():
                out_id.append(ids[hit])
                out_term.append(np.full(int(hit.sum()), term, object))
                out_n.append(n[hit])
        if not out_id:
            return pd.DataFrame({
                self._id_col: np.array([], np.int64),
                "term": pd.Series([], dtype=str),
                "n": np.array([], np.int64)})
        return pd.DataFrame({
            self._id_col: np.concatenate(out_id),
            "term": np.concatenate(out_term),
            "n": np.concatenate(out_n)})


def dictionary_count(docs: ray.data.Dataset, terms: "list[str]",
                     text_col: str = "text", id_col: str = "doc_id",
                     concurrency: "int | tuple[int, int]" = (1, 8),
                     ) -> ray.data.Dataset:
    """Per-doc dictionary-term occurrence counts via a
    :class:`DictionaryCounter` actor pool (patterns compiled once per
    actor, never per batch)."""
    return docs.map_batches(
        DictionaryCounter, batch_format="pandas",
        fn_constructor_kwargs={"terms": terms, "text_col": text_col,
                               "id_col": id_col},
        concurrency=concurrency)
