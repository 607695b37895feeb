"""Transportation-graph operators.

Mirrors the reference's GTFS pipeline shapes
(/root/reference/city2graph/transportation.py): per-trip consecutive-stop
legs via bounded windows (LEAD over stop_sequence, :798-799,:1066-1080),
service-weighted aggregation per stop pair (:1109-1117), GTFS time
parsing (:428-507).  Two layers:

- generic *event-leg* operators over the testdata ``events`` stream
  table (partition by key, sort by time within group — Ray Data's
  bounded-window idiom),
- GTFS-specific ``travel_summary_graph`` over GTFS-shaped tables
  (stops/trips/stop_times/calendar/calendar_dates/frequencies), with
  calendar service-day expansion and frequency headway multipliers.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from city2graph_ray import shuffle
from city2graph_ray.exchange import keyed_exchange


# ------------------------------------------------------------------ generic event legs

def consecutive_legs(events: ray.data.Dataset,
                     key_col: str = "user_id", ts_col: str = "ts",
                     order_cols: tuple[str, ...] = ("ts", "event_id"),
                     ) -> ray.data.Dataset:
    """Per-key consecutive event pairs (the LEAD window):
    rows ordered by ``order_cols`` within each key; every adjacent pair
    emits one leg.  Output: (key, from_event_id, to_event_id, from_type,
    to_type, travel_sec, from_value)."""

    def window(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(list(order_cols), kind="stable").reset_index(drop=True)
        if len(g) < 2:
            return pd.DataFrame({
                key_col: pd.Series(dtype=g[key_col].dtype),
                "from_event_id": pd.Series(dtype=np.int64),
                "to_event_id": pd.Series(dtype=np.int64),
                "from_type": pd.Series(dtype=str),
                "to_type": pd.Series(dtype=str),
                "travel_sec": pd.Series(dtype=np.float64),
                "from_value": pd.Series(dtype=np.float64)})
        ts = g[ts_col]
        dt = (ts.shift(-1) - ts).dt.total_seconds() if hasattr(ts.iloc[0], "to_pydatetime") or str(ts.dtype).startswith("datetime") else (ts.shift(-1) - ts)
        return pd.DataFrame({
            key_col: g[key_col].iloc[:-1].to_numpy(),
            "from_event_id": g["event_id"].iloc[:-1].to_numpy(),
            "to_event_id": g["event_id"].iloc[1:].to_numpy(),
            "from_type": g["event_type"].iloc[:-1].to_numpy(),
            "to_type": g["event_type"].iloc[1:].to_numpy(),
            "travel_sec": np.asarray(dt.iloc[:-1], np.float64),
            "from_value": g["value"].iloc[:-1].to_numpy(np.float64)})

    return keyed_exchange(events, [key_col], window)


def leg_summary(events: ray.data.Dataset, round_to: int = 4) -> ray.data.Dataset:
    """GTFS travel-summary shape over event legs: per (from_type,
    to_type) pair, value-weighted mean travel time + total weight + leg
    count (reference SQL SUM(tt*sc)/SUM(sc), SUM(sc),
    transportation.py:1109-1117).  Partial aggregation inside
    map_batches before the pair groupby keeps the shuffle tiny."""
    legs = consecutive_legs(events)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.assign(wt=batch["travel_sec"] * batch["from_value"])
        return (batch.groupby(["from_type", "to_type"], sort=False)
                .agg(sum_wt=("wt", "sum"), sum_w=("from_value", "sum"),
                     n_legs=("travel_sec", "size")).reset_index())

    partials = legs.map_batches(partial, batch_format="pandas")
    summed = shuffle.group_agg(partials, ["from_type", "to_type"],
                               {"sum_wt": ("sum_wt", "sum"),
                                "sum_w": ("sum_w", "sum"),
                                "n_legs": ("n_legs", "sum")}, partial=False)

    def post(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "from_type": batch["from_type"], "to_type": batch["to_type"],
            "wmean_travel_sec": np.round(batch["sum_wt"].to_numpy()
                                         / batch["sum_w"].to_numpy(), round_to),
            "total_weight": np.round(batch["sum_w"].to_numpy(), round_to),
            "n_legs": batch["n_legs"].astype(np.int64)})

    return summed.map_batches(post, batch_format="pandas")


# ------------------------------------------------------------------ GTFS proper

def time_to_seconds(t, strict: bool = False) -> float:
    """GTFS HH:MM:SS (possibly > 24h) → seconds
    (reference transportation.py:428-471).  Numeric input passes
    through and ``None`` is 0.0, as the reference; invalid strings
    raise in ``strict`` mode (reference behavior) or return NaN (the
    streaming default — a bad row must not kill a 100-TB pipeline,
    the validate stage surfaces the count instead)."""
    if t is None:
        return 0.0
    if isinstance(t, float) and pd.isna(t):
        return 0.0  # reference: pd.isna guard before numeric pass-through
    if isinstance(t, (int, float)) and not isinstance(t, bool):
        return float(t)
    t = str(t).strip()
    parts = t.split(":")
    bad = len(parts) != 3
    h = m = s = 0
    if not bad:
        try:
            h, m, s = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            bad = True
    if bad:
        if strict:
            raise ValueError(f"Expected HH:MM:SS time string, got {t!r}")
        return np.nan
    return float(h * 3600 + m * 60 + s)


def times_to_seconds(col: pd.Series) -> np.ndarray:
    """Vectorized :func:`time_to_seconds` over a whole column
    (VERDICT r3 #5): well-formed ``HH:MM:SS`` strings (incl. >24 h)
    take a ``str.split(':', expand=True)`` + int-arithmetic fast path;
    only the residue (numeric pass-through, None/NaN, malformed) falls
    back to the scalar function, so semantics are bit-identical."""
    n = len(col)
    if n == 0:
        return np.empty(0, np.float64)
    if pd.api.types.is_numeric_dtype(col):
        v = col.to_numpy(np.float64, na_value=np.nan)
        return np.where(np.isnan(v), 0.0, v)
    vals = col.to_numpy(object)
    W = 16
    try:
        # Fixed-width byte matrix: stringify EVERY cell (None → b'None',
        # 3600.0 → b'3600.0'); cells that don't match a digit/colon
        # pattern below simply fall back to the scalar fn on the
        # ORIGINAL object, so non-string pass-through semantics hold.
        b = np.asarray(vals, dtype=f"S{W}")
    except (UnicodeEncodeError, TypeError, ValueError):
        return col.map(time_to_seconds).to_numpy(np.float64)
    u = b.view(np.uint8).reshape(n, W)
    # byte count == char count for the ASCII patterns we accept; a
    # cell with interior NULs just miscounts and falls back
    L = (u != 0).sum(axis=1)
    out = np.empty(n, np.float64)
    done = np.zeros(n, bool)
    # (length, hour-digit-count) layouts: H:MM:SS, HH:MM:SS, HHH:MM:SS
    for length, hd in ((7, 1), (8, 2), (9, 3)):
        idx = np.nonzero(L == length)[0]
        if len(idx) == 0:
            continue
        s = u[idx]
        dig = (s >= 48) & (s <= 57)
        d = (s - np.uint8(48)).astype(np.int64)
        ok = (s[:, hd] == 58) & (s[:, hd + 3] == 58)
        h = np.zeros(len(idx), np.int64)
        for j in range(hd):
            ok &= dig[:, j]
            h = h * 10 + d[:, j]
        ok &= (dig[:, hd + 1] & dig[:, hd + 2]
               & dig[:, hd + 4] & dig[:, hd + 5])
        sec = (h * 3600
               + (d[:, hd + 1] * 10 + d[:, hd + 2]) * 60
               + (d[:, hd + 4] * 10 + d[:, hd + 5]))
        w = idx[ok]
        out[w] = sec[ok].astype(np.float64)
        done[w] = True
    for i in np.nonzero(~done)[0]:
        out[i] = time_to_seconds(vals[i])
    return out


def expand_service_days(calendar: pd.DataFrame,
                        calendar_dates: pd.DataFrame | None,
                        start: str | None = None,
                        end: str | None = None) -> pd.DataFrame:
    """service_id → active dates (YYYYMMDD strings): weekday-flag
    expansion over [start_date, end_date] plus calendar_dates add(1)/
    remove(2) exceptions (reference transportation.py:35-77,130-189).
    Small driver-side table (dates × services), broadcast downstream."""
    rows = []
    wd_cols = ["monday", "tuesday", "wednesday", "thursday", "friday",
               "saturday", "sunday"]
    for _, r in calendar.iterrows():
        d0 = pd.Timestamp(str(r["start_date"]))
        d1 = pd.Timestamp(str(r["end_date"]))
        if start:
            d0 = max(d0, pd.Timestamp(start))
        if end:
            d1 = min(d1, pd.Timestamp(end))
        for d in pd.date_range(d0, d1, freq="D"):
            if int(r[wd_cols[d.dayofweek]]) == 1:
                rows.append((r["service_id"], d.strftime("%Y%m%d")))
    active = pd.DataFrame(rows, columns=["service_id", "date"])
    if calendar_dates is not None and len(calendar_dates):
        cd = calendar_dates.astype({"exception_type": int})
        adds = cd[cd["exception_type"] == 1][["service_id", "date"]].astype(str)
        removes = cd[cd["exception_type"] == 2][["service_id", "date"]].astype(str)
        active = pd.concat([active, adds], ignore_index=True)
        active = active.drop_duplicates()
        if len(removes):
            key = active["service_id"].astype(str) + "|" + active["date"]
            rkey = set(removes["service_id"] + "|" + removes["date"])
            active = active[~key.isin(rkey)]
    # calendar_dates ADD exceptions must not escape the requested
    # window (reference bounds the final date set, not just the
    # weekday expansion)
    if start:
        active = active[active["date"] >= pd.Timestamp(start).strftime("%Y%m%d")]
    if end:
        active = active[active["date"] <= pd.Timestamp(end).strftime("%Y%m%d")]
    return active.reset_index(drop=True)


def frequency_multipliers(frequencies: pd.DataFrame | None) -> pd.DataFrame:
    """trip_id → SUM(GREATEST(1, floor((end-start)/headway))) from
    frequencies.txt (reference transportation.py:687-714); headway<=0
    rows dropped."""
    if frequencies is None or not len(frequencies):
        return pd.DataFrame({"trip_id": pd.Series(dtype=str),
                             "multiplier": pd.Series(dtype=np.int64)})
    f = frequencies.copy()
    f["start_s"] = times_to_seconds(f["start_time"])
    f["end_s"] = times_to_seconds(f["end_time"])
    f["headway"] = pd.to_numeric(f["headway_secs"], errors="coerce")
    f = f[(f["headway"] > 0) & f["start_s"].notna() & f["end_s"].notna()]
    f["m"] = np.maximum(1, np.floor((f["end_s"] - f["start_s"]) / f["headway"])
                        ).astype(np.int64)
    out = f.groupby("trip_id", sort=False)["m"].sum().reset_index()
    return out.rename(columns={"m": "multiplier"})


def travel_summary_graph(
    stop_times: ray.data.Dataset,
    trips: pd.DataFrame,
    calendar: pd.DataFrame,
    calendar_dates: pd.DataFrame | None = None,
    frequencies: pd.DataFrame | None = None,
    start_time: str | None = None,
    end_time: str | None = None,
    directed: bool = False,
    round_to: int = 6,
) -> ray.data.Dataset:
    """GTFS → stop-pair travel summary (reference
    transportation.py:1197-1296 semantics):

    consecutive legs per trip (sorted by numeric stop_sequence;
    non-numeric dropped :1082, null-time legs dropped :1060-1076,
    optional inclusive bounds: departure >= start_time AND next-stop
    arrival <= end_time, and zero/negative-duration legs dropped —
    the reference's st_filtered/valid_pairs WHERE clauses
    (:1085-1108)),
    service_count = COUNT(DISTINCT active date) per service ×
    frequency multiplier, then per (from_stop, to_stop):
    weighted mean travel time SUM(tt*sc)/SUM(sc) and frequency SUM(sc).
    Undirected mode canonicalizes the pair before the final groupby
    (pandas re-merge :1144-1156).

    stop_times is the big table and streams; trips/calendar/frequencies
    are dimension tables broadcast via closure capture."""
    no_cal = ((calendar is None or len(calendar) == 0)
              and (calendar_dates is None or len(calendar_dates) == 0))
    if no_cal:
        # reference parity (tests/test_transportation.py:560): a feed
        # without any calendar falls back to counting each trip once
        active = pd.DataFrame({"service_id": [], "date": []})
        svc_counts = pd.Series(dtype=np.int64)
    else:
        active = expand_service_days(
            calendar if calendar is not None else
            pd.DataFrame(columns=["service_id", "start_date", "end_date",
                                  "monday", "tuesday", "wednesday",
                                  "thursday", "friday", "saturday",
                                  "sunday"]),
            calendar_dates)
        svc_counts = (active.groupby("service_id").size()
                      .rename("service_days"))
    trips2 = trips.copy()
    trips2["service_days"] = (
        np.int64(1) if no_cal
        else trips2["service_id"].map(svc_counts).fillna(0).astype(int))
    mult = frequency_multipliers(frequencies).set_index("trip_id")["multiplier"]
    trips2["multiplier"] = trips2["trip_id"].map(mult).fillna(1).astype(int)
    trips2["service_count"] = trips2["service_days"] * trips2["multiplier"]
    sc_map = dict(zip(trips2["trip_id"], trips2["service_count"]))
    t0 = time_to_seconds(start_time) if start_time else None
    t1 = time_to_seconds(end_time) if end_time else None
    if t0 is not None and t1 is not None and t0 > t1:
        # reference parity (:640): an inverted time window is a caller
        # error, not an empty result
        raise ValueError(
            f"start_time {start_time!r} is after end_time {end_time!r}")

    def legs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["seq"] = pd.to_numeric(g["stop_sequence"], errors="coerce")
        g = g[g["seq"].notna()].sort_values("seq", kind="stable")
        arr = times_to_seconds(g["arrival_time"])
        dep = times_to_seconds(g["departure_time"])
        stops = g["stop_id"].to_numpy()
        trip = g["trip_id"].iloc[0] if len(g) else None
        sc = sc_map.get(trip, 0)
        rows = []
        for i in range(len(g) - 1):
            tt = arr[i + 1] - dep[i]
            if np.isnan(tt) or tt <= 0:
                continue
            if t0 is not None and dep[i] < t0:
                continue
            if t1 is not None and arr[i + 1] > t1:
                continue
            rows.append((stops[i], stops[i + 1], tt, sc))
        return pd.DataFrame(rows, columns=["from_stop_id", "to_stop_id",
                                           "travel_time", "service_count"]) \
            if rows else pd.DataFrame({"from_stop_id": pd.Series(dtype=str),
                                       "to_stop_id": pd.Series(dtype=str),
                                       "travel_time": pd.Series(dtype=np.float64),
                                       "service_count": pd.Series(dtype=np.int64)})

    leg_ds = keyed_exchange(stop_times, ["trip_id"], legs)

    def canon(batch: pd.DataFrame) -> pd.DataFrame:
        if directed:
            return batch
        a = batch["from_stop_id"].to_numpy()
        b = batch["to_stop_id"].to_numpy()
        swap = a > b
        out = batch.copy()
        out["from_stop_id"] = np.where(swap, b, a)
        out["to_stop_id"] = np.where(swap, a, b)
        return out

    leg_ds = leg_ds.map_batches(canon, batch_format="pandas")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[batch["service_count"] > 0].copy()
        batch["wtt"] = batch["travel_time"] * batch["service_count"]
        return (batch.groupby(["from_stop_id", "to_stop_id"], sort=False)
                .agg(sum_wtt=("wtt", "sum"), sum_sc=("service_count", "sum"))
                .reset_index())

    partials = leg_ds.map_batches(partial, batch_format="pandas")
    summed = shuffle.group_agg(partials, ["from_stop_id", "to_stop_id"],
                               {"sum_wtt": ("sum_wtt", "sum"),
                                "sum_sc": ("sum_sc", "sum")}, partial=False)

    def post(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "from_stop_id": batch["from_stop_id"],
            "to_stop_id": batch["to_stop_id"],
            "mean_travel_time": np.round(batch["sum_wtt"].to_numpy()
                                         / batch["sum_sc"].to_numpy(), round_to),
            "frequency": batch["sum_sc"].astype(np.int64)})

    return summed.map_batches(post, batch_format="pandas")


def get_od_pairs(stop_times: ray.data.Dataset, trips: pd.DataFrame,
                 calendar: pd.DataFrame,
                 calendar_dates: pd.DataFrame | None = None,
                 start_date: str | None = None,
                 end_date: str | None = None,
                 directed: bool = False,
                 ) -> ray.data.Dataset:
    """Per-trip consecutive stop pairs × active service dates
    (reference transportation.py:717-875): output (trip_id,
    service_id, date, orig_stop_id, dest_stop_id, departure_ts,
    arrival_ts, travel_time_sec) — the reference's column set minus
    the geopandas geometry (stop x/y live on the stops table here).
    ``date`` is a '%Y-%m-%d' string as in the reference; ``directed=
    False`` (reference default) canonicalizes each pair so
    orig_stop_id <= dest_stop_id, swapping departure/arrival
    timestamps too (travel_time_sec stays the pre-swap leg duration).
    ``start_date``/``end_date`` (YYYYMMDD) bound the expanded service
    calendar as in the reference; legacy aliases from_stop_id /
    to_stop_id are kept for composition with older pipelines."""
    active = expand_service_days(calendar, calendar_dates,
                                 start_date, end_date)
    svc_dates = active.groupby("service_id")["date"].apply(list).to_dict()
    trip_svc = dict(zip(trips["trip_id"], trips["service_id"]))

    def legs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["seq"] = pd.to_numeric(g["stop_sequence"], errors="coerce")
        g = g[g["seq"].notna()].sort_values("seq", kind="stable")
        arr = times_to_seconds(g["arrival_time"])
        dep = times_to_seconds(g["departure_time"])
        stops = g["stop_id"].to_numpy()
        trip = g["trip_id"].iloc[0] if len(g) else None
        svc = trip_svc.get(trip)
        dates = svc_dates.get(svc, [])
        rows = []
        for i in range(len(g) - 1):
            tt = arr[i + 1] - dep[i]
            if np.isnan(tt):
                continue
            for d in dates:
                base = pd.Timestamp(f"{d[:4]}-{d[4:6]}-{d[6:8]}")
                rows.append((trip, svc, f"{d[:4]}-{d[4:6]}-{d[6:8]}",
                             stops[i], stops[i + 1],
                             base + pd.Timedelta(seconds=float(dep[i])),
                             base + pd.Timedelta(seconds=float(arr[i + 1])),
                             tt))
        cols = ["trip_id", "service_id", "date", "orig_stop_id",
                "dest_stop_id", "departure_ts", "arrival_ts",
                "travel_time_sec"]
        if rows:
            out = pd.DataFrame(rows, columns=cols)
        else:
            out = pd.DataFrame({c: pd.Series(
                dtype=("datetime64[ns]" if c.endswith("_ts")
                       else np.float64 if c == "travel_time_sec" else str))
                for c in cols})
        if not directed and len(out):
            # reference canonicalization (transportation.py:858-866):
            # swap ids AND timestamps; travel_time_sec is pre-swap
            swap = (out["orig_stop_id"] > out["dest_stop_id"]).to_numpy()
            o = out["orig_stop_id"].to_numpy()
            d_ = out["dest_stop_id"].to_numpy()
            out["orig_stop_id"] = np.where(swap, d_, o)
            out["dest_stop_id"] = np.where(swap, o, d_)
            dts = out["departure_ts"].to_numpy()
            ats = out["arrival_ts"].to_numpy()
            out["departure_ts"] = np.where(swap, ats, dts)
            out["arrival_ts"] = np.where(swap, dts, ats)
        out["from_stop_id"] = out["orig_stop_id"]
        out["to_stop_id"] = out["dest_stop_id"]
        return out

    return keyed_exchange(stop_times, ["trip_id"], legs)


def stop_transfers(stop_times: ray.data.Dataset,
                   min_wait: float = 60.0, max_wait: float = 1800.0,
                   num_buckets: int = shuffle.DEFAULT_BUCKETS,
                   ) -> ray.data.Dataset:
    """Feasible same-stop transfers: for every arriving visit (trip a,
    stop s) and departing visit (trip b ≠ a, stop s) with
    ``min_wait ≤ dep_b − arr_a ≤ max_wait``, one row
    (stop_id, from_trip, to_trip, wait_secs).

    Distributed shape: ONE shuffle keyed by stop_id; within each hash
    bucket, departures are sorted per stop and each arrival's feasible
    window is a searchsorted cut + ragged expansion (the interval-join
    candidate technique keyed by stop).  Partitioning assumption:
    per-stop visit counts are bounded (bucket further by coarse time
    window via a composite key when a mega-hub exceeds worker memory —
    same salting escape as the cell operators)."""
    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "stop_id": b["stop_id"].astype(str),
            "trip_id": b["trip_id"].astype(str),
            "arr": times_to_seconds(b["arrival_time"]),
            "dep": times_to_seconds(b["departure_time"])})

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "stop_id": pd.Series([], dtype=str),
            "from_trip": pd.Series([], dtype=str),
            "to_trip": pd.Series([], dtype=str),
            "wait_secs": pd.Series([], dtype=np.float64)})
        out = [empty]
        for stop, grp in g.groupby("stop_id", sort=False):
            dsorted = grp.sort_values(["dep", "trip_id"],
                                      kind="stable")
            dep = dsorted["dep"].to_numpy(np.float64)
            dtrip = dsorted["trip_id"].to_numpy()
            arr = grp["arr"].to_numpy(np.float64)
            atrip = grp["trip_id"].to_numpy()
            lo = np.searchsorted(dep, arr + min_wait, side="left")
            hi = np.searchsorted(dep, arr + max_wait, side="right")
            cnt = np.maximum(hi - lo, 0)
            total = int(cnt.sum())
            if total == 0:
                continue
            ai = np.repeat(np.arange(len(arr)), cnt)
            off = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt,
                                               cnt)
            bi = lo[ai] + off
            keep = atrip[ai] != dtrip[bi]
            ai, bi = ai[keep], bi[keep]
            out.append(pd.DataFrame({
                "stop_id": np.full(len(ai), stop),
                "from_trip": atrip[ai],
                "to_trip": dtrip[bi],
                "wait_secs": dep[bi] - arr[ai]}))
        return pd.concat(out, ignore_index=True)

    stream = stop_times.map_batches(prep, batch_format="pandas")
    return shuffle.grouped_transform(stream, ["stop_id"], kernel,
                                     num_buckets=num_buckets)


def stop_headways(stop_times: ray.data.Dataset, round_to: int = 4,
                  num_buckets: int = shuffle.DEFAULT_BUCKETS,
                  ) -> ray.data.Dataset:
    """Per-stop service headways from a GTFS ``stop_times`` stream:
    departures at each stop sorted ascending, consecutive gaps in
    integer seconds → ``(stop_id, n_departures, min_headway_sec,
    mean_headway_sec)``.

    One keyed shuffle on stop_id (the per-stop timetable is tiny —
    same co-location contract as the other per-key history kernels);
    gaps stay exact int64, the mean is one int/int division rounded in
    a fixed order so a LEAD window twin reproduces it.  Stops with a
    single departure are dropped (no headway is defined).  Engine
    operator beyond the reference's travel_summary surface (headway
    analysis is standard GTFS tooling; reference has no equivalent)."""
    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        dep = times_to_seconds(g["departure_time"])
        ok = ~np.isnan(dep)
        g = g[ok]
        s = pd.DataFrame({"stop_id": g["stop_id"].to_numpy(),
                          "dep": dep[ok].astype(np.int64)}) \
            .sort_values(["stop_id", "dep"], kind="stable")
        sid = s["stop_id"].to_numpy()
        d = s["dep"].to_numpy(np.int64)
        same = np.zeros(len(s), dtype=bool)
        if len(s) > 1:
            same[:-1] = sid[:-1] == sid[1:]
        gaps = pd.DataFrame({"stop_id": sid[:-1][same[:-1]],
                             "gap": (d[1:] - d[:-1])[same[:-1]]}) \
            if len(s) > 1 else pd.DataFrame({"stop_id": sid[:0],
                                             "gap": d[:0]})
        m = gaps.groupby("stop_id", sort=False).agg(
            n_gaps=("gap", "size"), min_headway_sec=("gap", "min"),
            sum_gap=("gap", "sum")).reset_index()
        m["n_departures"] = m["n_gaps"].to_numpy(np.int64) + 1
        m["mean_headway_sec"] = np.round(
            m["sum_gap"].to_numpy(np.int64)
            / m["n_gaps"].to_numpy(np.int64), round_to)
        return m[["stop_id", "n_departures", "min_headway_sec",
                  "mean_headway_sec"]]

    return shuffle.grouped_transform(stop_times, ["stop_id"], kernel,
                                     num_buckets=num_buckets)


def trip_connections(stop_times: ray.data.Dataset) -> ray.data.Dataset:
    """Timetable → elementary connections (CSA's input relation,
    Dibbelt et al. 2013, public literature): per trip the consecutive
    stop pairs with the departure time AT the from-stop and arrival
    time AT the to-stop, integer seconds.  Vectorized per-trip shift
    after the numeric stop_sequence sort; null-time or non-positive
    rides drop (the travel_summary_graph leg rules)."""

    def legs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["seq"] = pd.to_numeric(g["stop_sequence"], errors="coerce")
        g = g[g["seq"].notna()].sort_values("seq", kind="stable")
        arr = times_to_seconds(g["arrival_time"])
        dep = times_to_seconds(g["departure_time"])
        stops = g["stop_id"].to_numpy()
        if len(g) < 2:
            return pd.DataFrame({
                "from_stop": pd.Series(dtype=str),
                "to_stop": pd.Series(dtype=str),
                "dep_sec": pd.Series(dtype=np.int64),
                "arr_sec": pd.Series(dtype=np.int64)})
        d0, a1 = dep[:-1], arr[1:]
        ok = ~np.isnan(d0) & ~np.isnan(a1) & (a1 > d0)
        return pd.DataFrame({
            "from_stop": stops[:-1][ok], "to_stop": stops[1:][ok],
            "dep_sec": d0[ok].astype(np.int64),
            "arr_sec": a1[ok].astype(np.int64)})

    return keyed_exchange(stop_times, ["trip_id"], legs)


def earliest_arrival(stop_times: ray.data.Dataset, source_stop: str,
                     start_sec: int, rounds: int = 6,
                     ) -> pd.DataFrame:
    """Bounded-round earliest-arrival over timetable connections (the
    profile query of the Connection Scan Algorithm family, bounded to
    ``rounds`` transfers like RAPTOR's round structure — Dibbelt et
    al. 2013 / Delling et al. 2012, public literature).

    Per round the CONNECTION TABLE streams (map_batches partial-min
    per to_stop + one keyed min) against the stop-sized
    earliest-arrival map captured by closure — stops ≪ connections,
    the same broadcast premise as the network Dijkstra stage
    (ops/network.py) and the reference's dimension tables.  The label
    update and convergence check are driver-side over ≤ |stops| rows.
    Returns the (stop_id, ea_sec) table, int64 seconds; deterministic
    — all times integral.  SQL twin: ``rounds`` unrolled
    join-relax-min CTEs.
    """
    conns = trip_connections(stop_times).materialize()
    ea: dict = {source_stop: int(start_sec)}
    for _ in range(rounds):
        snapshot = dict(ea)

        def relax(b: pd.DataFrame, snap=snapshot) -> pd.DataFrame:
            base = b["from_stop"].map(snap)
            ok = base.notna().to_numpy() & (
                b["dep_sec"].to_numpy(np.int64)
                >= base.fillna(np.iinfo(np.int64).max)
                .to_numpy(np.int64))
            cand = pd.DataFrame({
                "stop_id": b["to_stop"].to_numpy()[ok],
                "ea_sec": b["arr_sec"].to_numpy(np.int64)[ok]})
            return (cand.groupby("stop_id", sort=False)["ea_sec"]
                    .min().reset_index())

        upd = shuffle.group_agg(
            conns.map_batches(relax, batch_format="pandas"),
            ["stop_id"], {"ea_sec": ("ea_sec", "min")},
            num_buckets=8).to_pandas()
        changed = False
        for s, t in zip(upd["stop_id"], upd["ea_sec"]):
            t = int(t)
            if t < ea.get(s, np.iinfo(np.int64).max):
                ea[s] = t
                changed = True
        if not changed:
            break
    out = pd.DataFrame(sorted(ea.items()),
                       columns=["stop_id", "ea_sec"])
    out["ea_sec"] = out["ea_sec"].astype(np.int64)
    return out
