"""Ordered-funnel and retention-cohort analytics over event streams.

Engine-added scale operators (no reference counterpart — the reference
is a single-process geospatial package); these are the event-log
queries a behavioural pipeline runs next to the LLM-curation ops.

Both group once on the user key and reduce to tiny outputs:

* :func:`funnel` — how many users completed steps 1..i of an ordered
  event-type sequence, each step strictly AFTER the previous one
  (classic min-timestamp cascade).  One bucketed user shuffle; the
  per-bucket kernel runs the cascade vectorized across all users in
  the bucket (pandas groupby-min per step, never a per-user loop);
  the driver merges #steps × #buckets partial counts.
* :func:`retention_cohorts` — users bucketed by their first-activity
  day (cohort), counted distinct per (cohort_day, day_offset).  One
  keyed min (cohort assignment), one bucketed join back onto the
  stream, one distinct-count — all on the user key.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from city2graph_ray import shuffle
from city2graph_ray.joins import bucketed_join


def funnel(events: ray.data.Dataset, steps: list[str],
           key: str = "user_id", ts_col: str = "ts",
           type_col: str = "event_type",
           num_buckets: int = shuffle.DEFAULT_BUCKETS,
           ) -> ray.data.Dataset:
    """Per funnel step i (1-based), the number of ``key`` values with a
    ``steps[0]`` event, then a ``steps[1]`` event strictly after it,
    then … (each step's timestamp is the MINIMAL one satisfying the
    ordering, the standard first-touch funnel).  Output
    ``(step_idx, step, n_users)`` — #steps rows.
    """
    if not steps:
        raise ValueError("funnel needs at least one step")
    steps = list(steps)

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        out = np.zeros(len(steps), dtype=np.int64)
        cur: pd.Series | None = None  # min qualifying ts per user
        for i, s in enumerate(steps):
            sub = g[g[type_col] == s]
            if cur is None:
                t = sub.groupby(key)[ts_col].min()
            else:
                prev = sub[key].map(cur)
                sub = sub[prev.notna() & (sub[ts_col] > prev)]
                t = sub.groupby(key)[ts_col].min()
            out[i] = len(t)
            if t.empty:
                break
            cur = t
        return pd.DataFrame({"step_idx": np.arange(1, len(steps) + 1,
                                                   dtype=np.int64),
                             "n_users": out})

    parts = shuffle.grouped_transform(
        events.map_batches(lambda b: b[[key, ts_col, type_col]],
                           batch_format="pandas"),
        [key], kernel, num_buckets=num_buckets)
    pdf = parts.to_pandas()
    if pdf.empty:  # 0-row stream: no bucket groups at all
        pdf = pd.DataFrame({"step_idx": pd.Series([], dtype=np.int64),
                            "n_users": pd.Series([], dtype=np.int64)})
    totals = pdf.groupby("step_idx", sort=True)["n_users"].sum()
    return ray.data.from_arrow(pa.table({
        "step_idx": pa.array(np.arange(1, len(steps) + 1), pa.int64()),
        "step": pa.array(steps, pa.string()),
        "n_users": pa.array([int(totals.get(i, 0))
                             for i in range(1, len(steps) + 1)],
                            pa.int64())}))


def retention_cohorts(events: ray.data.Dataset, key: str = "user_id",
                      ts_col: str = "ts",
                      num_buckets: int = shuffle.DEFAULT_BUCKETS,
                      ) -> ray.data.Dataset:
    """Cohort-retention matrix: cohort = the user's first activity day
    (days since epoch of ``min(ts)``), ``day_offset`` = activity day −
    cohort day; one row per (cohort_day, day_offset) with the DISTINCT
    user count.  Output ``(cohort_day, day_offset, n_users)``.
    """
    def days(b: pd.DataFrame) -> pd.DataFrame:
        d = (b[ts_col].to_numpy().astype("datetime64[D]")
             .astype(np.int64))
        return pd.DataFrame({key: b[key].to_numpy(), "day": d})

    ktype = pa.int64()
    for name, typ in zip(events.schema().names, events.schema().types):
        if name == key:
            ktype = typ
    stream = events.map_batches(
        lambda b: days(b[[key, ts_col]]), batch_format="pandas")
    first = shuffle.group_agg(stream, [key], {"cohort_day": ("day", "min")},
                              num_buckets=num_buckets)
    joined = bucketed_join(
        stream, first, on=key, num_buckets=num_buckets,
        left_schema=pa.schema([(key, ktype), ("day", pa.int64())]),
        right_schema=pa.schema([(key, ktype),
                                ("cohort_day", pa.int64())]))
    pairs = joined.map_batches(
        lambda b: pd.DataFrame({
            "cohort_day": b["cohort_day"].to_numpy(np.int64),
            "day_offset": b["day"].to_numpy(np.int64)
            - b["cohort_day"].to_numpy(np.int64),
            key: b[key].to_numpy()}),
        batch_format="pandas")
    return shuffle.count_distinct(
        pairs, ["cohort_day", "day_offset"], key,
        num_buckets=num_buckets).map_batches(
        lambda b: pd.DataFrame({
            "cohort_day": b["cohort_day"].to_numpy(np.int64),
            "day_offset": b["day_offset"].to_numpy(np.int64),
            "n_users": b[b.columns[-1]].to_numpy(np.int64)}),
        batch_format="pandas")


def user_paths(events: ray.data.Dataset, key: str = "user_id",
               ts_col: str = "ts", step_col: str = "event_type",
               order_col: str = "event_id", max_steps: int = 12,
               sep: str = "|",
               num_buckets: int = shuffle.DEFAULT_BUCKETS,
               ) -> ray.data.Dataset:
    """Per key, the ordered journey string: the first ``max_steps``
    step values joined by ``sep``, ordered by (ts, order_col) — fully
    deterministic (the secondary key breaks timestamp ties).  One
    keyed shuffle; per-group vectorized sort + head + join.  Output
    (key, path, n_steps)."""
    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            key: b[key].to_numpy(np.int64),
            "t": b[ts_col].astype("datetime64[us]").to_numpy()
            .view("i8"),
            "o": b[order_col].to_numpy(np.int64),
            "step": b[step_col].astype(str)})

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, "t", "o"], kind="stable")
        top = g.groupby(key, sort=False).head(max_steps)
        agg = top.groupby(key, sort=False).agg(
            path=("step", sep.join), n_steps=("step", "size"))
        return agg.reset_index()

    stream = events.map_batches(prep, batch_format="pandas")
    return shuffle.grouped_transform(stream, [key], kernel,
                                     num_buckets=num_buckets)


def transition_counts(events: ray.data.Dataset, key: str = "user_id",
                      ts_col: str = "ts", step_col: str = "event_type",
                      order_col: str = "event_id",
                      num_buckets: int = shuffle.DEFAULT_BUCKETS,
                      ) -> ray.data.Dataset:
    """First-order Markov transition counts over per-key journeys:
    for each key's events ordered by (ts, order_col), count every
    consecutive (step → next step) pair corpus-wide.  The backbone of
    clickstream / session-flow models.

    Shape: ONE keyed shuffle; the per-bucket kernel sorts, shifts, and
    pre-aggregates its transition counts (distinct type-pairs, not
    rows, leave the bucket), then a tiny keyed sum merges buckets.
    Output (src_type, dst_type, n)."""
    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            key: b[key].to_numpy(np.int64),
            "t": b[ts_col].astype("datetime64[us]").to_numpy().view("i8"),
            "o": b[order_col].to_numpy(np.int64),
            "step": b[step_col].astype(str)})

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, "t", "o"], kind="stable")
        k = g[key].to_numpy(np.int64)
        s = g["step"].to_numpy()
        same = k[:-1] == k[1:]
        part = pd.DataFrame({"src_type": s[:-1][same],
                             "dst_type": s[1:][same]})
        out = part.groupby(["src_type", "dst_type"], sort=False) \
            .size().rename("n").reset_index()
        return out

    stream = events.map_batches(prep, batch_format="pandas")
    part = shuffle.grouped_transform(stream, [key], kernel,
                                     num_buckets=num_buckets)
    return shuffle.group_agg(part, ["src_type", "dst_type"],
                             {"n": ("n", "sum")}, num_buckets=8)


def sequence_pattern_count(events: ray.data.Dataset, pattern: str,
                           key: str = "user_id", ts_col: str = "ts",
                           step_col: str = "event_type",
                           order_col: str = "event_id",
                           num_buckets: int = shuffle.DEFAULT_BUCKETS,
                           ) -> ray.data.Dataset:
    """Complex-event pattern matching (the SQL MATCH_RECOGNIZE /
    Flink CEP shape): per key, encode the (ts, order)-ordered step
    sequence as a string of step INITIALS and count non-overlapping
    greedy regex matches of ``pattern`` — e.g. ``v+c+p`` = "one or
    more views, then clicks, then a purchase".  Python ``re`` and
    DuckDB's RE2 agree on non-overlapping greedy scans for this
    pattern class, so the string_agg + regexp_extract_all twin is
    bit-exact.  Step initials must be distinct across step types.
    Output ``(key, seq_len, n_matches)``.

    ONE shuffle keyed by ``key``; the kernel's per-key work is the
    regex scan itself — sequence bytes are the data."""
    import re

    pat = re.compile(pattern)

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            key: b[key].to_numpy(np.int64),
            "t": b[ts_col].astype("datetime64[us]").to_numpy()
            .view("i8"),
            "o": b[order_col].to_numpy(np.int64),
            "ch": b[step_col].astype(str).str[0]})

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, "t", "o"], kind="stable")
        seqs = g.groupby(key, sort=True)["ch"].agg("".join)
        return pd.DataFrame({
            key: seqs.index.to_numpy(np.int64),
            "seq_len": seqs.str.len().to_numpy(np.int64),
            "n_matches": np.fromiter(
                (len(pat.findall(s)) for s in seqs),
                np.int64, count=len(seqs))})

    stream = events.map_batches(prep, batch_format="pandas")
    return shuffle.grouped_transform(stream, [key], kernel,
                                     num_buckets=num_buckets)
