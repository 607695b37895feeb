"""End-to-end document-curation pipeline: the composition a real
pretraining-data run would execute, each stage streaming and the whole
chain SQL-twinnable for the driver's bit-exact gate.

    heuristic gate (row-local, no shuffle)
      → exact dedup (8-byte hash shuffle, min-id survivor)
      → id-blocklist anti-join (Bloom prefilter, exact confirm)
      → cross-doc duplicated-span cap (gram-hash shuffle + join back)

Every intermediate is a Dataset — nothing is collected; the stages
reuse the individually-oracled operators (`text/analysis.py`,
`text/dedup.py`, `text/blocklist.py`, `text/decontam.py`), so this
module is composition only.  No reference counterpart; engine-added.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pandas as pd
import pyarrow.compute as pc
import ray.data

from city2graph_ray import shuffle
from city2graph_ray.joins import bucketed_join
from city2graph_ray.text.analysis import heuristic_filter
from city2graph_ray.text.decontam import self_overlap
from city2graph_ray.text.dedup import exact_dedup


def curate_documents(docs: ray.data.Dataset,
                     min_words: int = 30, max_words: int = 120,
                     min_mwl: float = 4.0, max_mwl: float = 5.0,
                     blocklist: Sequence[str] = ("dup",),
                     blocked_ids: ray.data.Dataset | None = None,
                     overlap_n: int = 4,
                     max_shared_grams: int | None = 60,
                     text_col: str = "text", id_col: str = "doc_id",
                     keep_cols: Sequence[str] = ("source", "lang",
                                                 "n_chars"),
                     num_buckets: int = shuffle.DEFAULT_BUCKETS,
                     ) -> ray.data.Dataset:
    """Surviving docs as (id_col, *keep_cols), after the full chain.

    The duplicated-span cap is evaluated WITHIN the already-gated,
    deduped, unblocked subset (order matters and the SQL twin mirrors
    it): a doc is dropped when it shares more than ``max_shared_grams``
    distinct word-``overlap_n``-grams with the rest of the survivors.
    """
    # Note on laziness: Ray Datasets have no common-subexpression
    # reuse, so any intermediate consumed by TWO downstream stages must
    # be pinned with materialize() or its upstream chain re-executes
    # per consumer (first cut of this pipeline: 250 s → 11 s at
    # sf0.01).  The chain below is built so each intermediate has ONE
    # consumer — except `current` before the duplicated-span stage,
    # which both feeds self_overlap and joins with its verdict, and is
    # pinned.  materialize() keeps blocks distributed in the
    # (spillable) object store — a pin, not a driver collect.
    gated = heuristic_filter(docs, min_words, max_words, min_mwl,
                             max_mwl, blocklist, text_col, id_col,
                             emit="docs")

    current = exact_dedup(gated, text_col, id_col, emit="rows")

    if blocked_ids is not None:
        from city2graph_ray.text.blocklist import blocklist_filter
        current = blocklist_filter(current, blocked_ids,
                                   key_col=id_col,
                                   num_buckets=num_buckets)

    if max_shared_grams is not None:
        current = current.materialize()
        overlap = self_overlap(current, overlap_n, text_col, id_col,
                               num_buckets=num_buckets)
        hot = overlap.map_batches(
            lambda b, c=max_shared_grams: pd.DataFrame(
                {id_col: b.loc[b["shared_grams"] > c, id_col].to_numpy(),
                 "__hot": np.ones(int((b["shared_grams"] > c).sum()),
                                  np.int8)}),
            batch_format="pandas")
        # Arrow stages: an empty pandas batch of object columns makes
        # Ray's block-size estimate log an error per column
        current = bucketed_join(current, hot, on=id_col, how="left",
                                num_buckets=num_buckets).map_batches(
            lambda t: t.filter(pc.is_null(t["__hot"])).drop_columns(["__hot"]),
            batch_format="pyarrow")

    cols = [id_col, *keep_cols]
    return current.map_batches(lambda t: t.select(cols),
                               batch_format="pyarrow")


def curate_web_documents(docs: ray.data.Dataset,
                         domain_cap: int = 30,
                         url_col: str = "url",
                         text_col: str = "text",
                         id_col: str = "doc_id",
                         num_buckets: int | None = None,
                         ) -> ray.data.Dataset:
    """Web-corpus curation chain (the RefinedWeb front half), composed
    from the individually-oracled operators:

        URL canonicalization + registered domain  (row-local)
          → per-domain cap (md5-rank stratified, one keyed top-k)
          → survivor join back to payloads (bucketed, ids-only build)
          → text normalization (row-local)
          → exact dedup on the NORMALIZED text (8-byte hash shuffle,
            min-id survivor, emit="rows")

    Output: surviving rows with (id_col, domain, text_norm, norm_len).
    Every stage streams; the only driver-sized object is nothing —
    survivors flow as Datasets end-to-end."""
    from city2graph_ray.text.normalize import normalize_text
    from city2graph_ray.text.urls import canonicalize_urls, per_domain_cap

    nb = num_buckets or shuffle.DEFAULT_BUCKETS
    canon = canonicalize_urls(docs, url_col=url_col)
    survivors = per_domain_cap(canon, domain_cap, id_col=id_col,
                               num_buckets=nb)
    kept = bucketed_join(
        survivors,
        docs.map_batches(lambda b: b[[id_col, text_col]],
                         batch_format="pandas"),
        on=id_col, num_buckets=nb)
    normed = normalize_text(kept, text_col=text_col)
    deduped = exact_dedup(normed, text_col=f"{text_col}_norm",
                          id_col=id_col, emit="rows")
    return deduped.map_batches(
        lambda b: b[[id_col, "domain", f"{text_col}_norm", "norm_len"]],
        batch_format="pandas")
