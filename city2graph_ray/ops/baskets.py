"""Market-basket association mining (Agrawal & Srikant, VLDB 1994,
public literature) — pair support / confidence / lift over an
(basket, item) relation.

No reference counterpart; engine-added analytics primitive for
co-occurrence screens over training corpora (doc × tag, order × part).

Distributed shape: ONE basket-keyed shuffle groups each basket's
items; the per-group kernel emits distinct unordered item pairs
(fan-out bounded by max basket size², a data-model constant, never
corpus size); pair and item supports fold through keyed int64 sums;
the finish joins the items²-bounded pair table against item supports
on the driver.  Exactness: every support is an int64 count; confidence
and lift are each ONE rounded float divide in a fixed form shared with
the SQL twin.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data

from city2graph_ray import shuffle


def association_rules(ds: ray.data.Dataset, basket_col: str,
                      item_col: str, min_support: int = 1,
                      ) -> ray.data.Dataset:
    """Pair rules over ``(basket_col, item_col)`` rows (duplicates
    collapse per basket).  Output one row per unordered item pair with
    ``supp_ab >= min_support``: ``(item_a, item_b, n_baskets, supp_ab,
    supp_a, supp_b, conf_ab, conf_ba, lift)`` where
    ``conf_ab = round(supp_ab/supp_a, 6)``,
    ``lift = round(double(n·supp_ab)/(supp_a·supp_b), 6)``.
    """
    pairs_src = shuffle.distinct(
        ds.select_columns([basket_col, item_col]),
        [basket_col, item_col])

    def emit_pairs(g: pd.DataFrame) -> pd.DataFrame:
        m = g[[basket_col, item_col]].merge(
            g[[basket_col, item_col]], on=basket_col)
        a = m[f"{item_col}_x"].to_numpy(np.int64)
        b = m[f"{item_col}_y"].to_numpy(np.int64)
        keep = a < b
        return pd.DataFrame({"item_a": a[keep], "item_b": b[keep],
                             "supp_ab": np.ones(int(keep.sum()), np.int64)})

    pair_counts = shuffle.group_agg(
        shuffle.grouped_transform(pairs_src, [basket_col], emit_pairs),
        ["item_a", "item_b"], {"supp_ab": ("supp_ab", "sum")},
        num_buckets=1).to_pandas()

    def item_partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = b.groupby(item_col, sort=False).size()
        return pd.DataFrame({"item": vc.index.to_numpy(np.int64),
                             "supp": vc.to_numpy(np.int64)})

    item_counts = shuffle.group_agg(
        pairs_src.map_batches(item_partial, batch_format="pandas"),
        ["item"], {"supp": ("supp", "sum")}, num_buckets=1).to_pandas()
    n_baskets = int(shuffle.distinct(
        pairs_src.select_columns([basket_col]), [basket_col]).count())

    cols = ["item_a", "item_b", "n_baskets", "supp_ab", "supp_a",
            "supp_b", "conf_ab", "conf_ba", "lift"]
    # empty Datasets lose pandas column names via to_pandas()
    if "supp_ab" in pair_counts.columns:
        pair_counts = pair_counts[
            pair_counts["supp_ab"].to_numpy(np.int64) >= min_support]
    if len(pair_counts) == 0:
        z = np.array([], np.int64)
        f = np.array([], np.float64)
        return ray.data.from_pandas(pd.DataFrame(
            {c: (f if c in ("conf_ab", "conf_ba", "lift") else z)
             for c in cols}))
    sup = item_counts.set_index("item")["supp"]
    sa = sup.reindex(pair_counts["item_a"]).to_numpy(np.int64)
    sb = sup.reindex(pair_counts["item_b"]).to_numpy(np.int64)
    sab = pair_counts["supp_ab"].to_numpy(np.int64)
    out = pd.DataFrame({
        "item_a": pair_counts["item_a"].to_numpy(np.int64),
        "item_b": pair_counts["item_b"].to_numpy(np.int64),
        "n_baskets": np.int64(n_baskets),
        "supp_ab": sab, "supp_a": sa, "supp_b": sb,
        "conf_ab": np.round(sab.astype(np.float64)
                            / sa.astype(np.float64), 6),
        "conf_ba": np.round(sab.astype(np.float64)
                            / sb.astype(np.float64), 6),
        "lift": np.round((n_baskets * sab).astype(np.float64)
                         / (sa * sb).astype(np.float64), 6)})
    return ray.data.from_pandas(
        out.sort_values(["item_a", "item_b"]).reset_index(drop=True))
