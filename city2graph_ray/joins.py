"""Distributed join helpers.

Two strategies, chosen explicitly by the caller (SURVEY.md §2.4):

- ``broadcast_join`` — small side put once in the object store and
  merged per batch by :func:`broadcast_map` (no shuffle).
  This is the engine's default for dimension-table lookups (stops
  geometry, zone-id sets, node-id maps after dedup).
- ``bucketed_join`` — both sides large: tag each side's provenance,
  union, hash-partition on the key (``exchange.keyed_exchange``) and
  merge the two sides once per partition.  An explicit partitioned
  hash join; the partition cap B and hot-key salting are the caller's
  knobs.

``ray.data.Dataset.join`` exists in newer releases; the explicit forms
here keep the shuffle strategy visible and version-independent.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from typing import Sequence

import numpy as np
import pandas as pd
import ray
import ray.data
from ray import cloudpickle

from city2graph_ray.exchange import keyed_exchange


# Per-worker memo of prepared broadcast states, keyed by (object-ref id,
# digest of the pickled ``prepare``).  Plain Ray Data tasks reuse worker
# processes, so a state is fetched and prepared once per worker, as an
# actor's ``__init__`` would, but no process holds a slot after its last
# batch.  The memo keeps the most recently used few states, and a daemon
# thread drops any state no batch has used for ``_PREPARED_IDLE_S``: a
# finished stage's index, and the object-store pages its arrays view,
# are released shortly after its last batch, as an exiting actor's were.
_PREPARED: OrderedDict[tuple, list] = OrderedDict()  # key -> [value, users, last use]
_PREPARED_MAX = 4
_PREPARED_IDLE_S = 5.0
_PREPARED_LOCK = threading.Lock()
_SWEEPER: threading.Thread | None = None


def _sweep() -> None:
    global _SWEEPER
    while True:
        time.sleep(_PREPARED_IDLE_S / 2)
        with _PREPARED_LOCK:
            now = time.monotonic()
            for key in [k for k, (_, users, last) in _PREPARED.items()
                        if users == 0 and now - last >= _PREPARED_IDLE_S]:
                del _PREPARED[key]
            if not _PREPARED:
                _SWEEPER = None
                return


def _run_prepared(fn, batch, ref: ray.ObjectRef, key: tuple, prepare):
    global _SWEEPER
    with _PREPARED_LOCK:
        entry = _PREPARED.get(key)
        if entry is None:
            state = ray.get(ref)
            entry = [prepare(state) if prepare is not None else state, 0, 0.0]
            _PREPARED[key] = entry
            if len(_PREPARED) > _PREPARED_MAX:
                _PREPARED.popitem(last=False)
            if _SWEEPER is None:
                _SWEEPER = threading.Thread(target=_sweep, daemon=True)
                _SWEEPER.start()
        _PREPARED.move_to_end(key)
        entry[1] += 1
    try:
        return fn(batch, entry[0])
    finally:
        with _PREPARED_LOCK:
            entry[1] -= 1
            entry[2] = time.monotonic()


def broadcast_map(
    ds: ray.data.Dataset,
    state,
    fn,
    prepare=None,
    batch_size: int | None = None,
) -> ray.data.Dataset:
    """Run ``fn(batch, prepared)`` over ``ds`` (pandas batches) as plain
    Ray Data tasks.

    ``state`` is put into the object store once per call (an
    ``ObjectRef`` is used as is); ``prepared`` is ``prepare(state)``,
    or the state itself, computed at most once per worker process while
    the stage runs."""
    ref = state if isinstance(state, ray.ObjectRef) else ray.put(state)
    key = (ref.binary(), None if prepare is None
           else hashlib.sha1(cloudpickle.dumps(prepare)).digest())

    def _run(batch):
        return _run_prepared(fn, batch, ref, key, prepare)

    # name the Ray Data operator after the stage: MapBatches(<fn>)
    _run.__name__ = _run.__qualname__ = getattr(fn, "__name__", "_run")
    return ds.map_batches(_run, batch_format="pandas",
                          batch_size=batch_size)


def broadcast_join(
    ds: ray.data.Dataset,
    small_df: pd.DataFrame,
    on: str | Sequence[str],
    how: str = "inner",
    batch_size: int | None = None,
) -> ray.data.Dataset:
    """Merge a small pandas side into every batch (no shuffle)."""
    def merge(batch: pd.DataFrame, small: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(small, on=on, how=how)

    return broadcast_map(ds, small_df, merge, batch_size=batch_size)


def semi_filter(
    ds: ray.data.Dataset,
    keys: np.ndarray | set,
    column: str,
    keep: bool = True,
) -> ray.data.Dataset:
    """Semi (keep=True) / anti (keep=False) join against a broadcast key set."""
    arr = np.asarray(sorted(keys)) if isinstance(keys, set) else np.unique(np.asarray(keys))

    def _filter(batch: pd.DataFrame, keys: np.ndarray) -> pd.DataFrame:
        mask = np.isin(batch[column].to_numpy(), keys)
        return batch[mask if keep else ~mask]

    return broadcast_map(ds, arr, _filter)


def bucketed_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str | Sequence[str],
    num_buckets: int = 64,
    how: str = "inner",
    suffixes: tuple[str, str] = ("", "_r"),
    left_schema=None,
    right_schema=None,
) -> ray.data.Dataset:
    """Partitioned hash join of two large Datasets on equality key(s).

    The union of both sides is hash-partitioned on the key into at most
    ``num_buckets`` partitions, and each partition's two sides are
    merged with pandas.  One shuffle total.

    The padded union stays in Arrow end-to-end: missing columns are
    ``pa.nulls(n, typed)`` so int64 ids survive the exchange, and each
    side is projected to its REAL columns before the pandas merge —
    the padding nulls never reach pandas, so no int→float degradation.

    ``left_schema`` / ``right_schema``: optional ``pyarrow.Schema``
    hints used when a side's schema cannot be derived — Ray Data loses
    block schemas whenever a map stage outputs only empty blocks, so a
    pipeline whose intermediate can legitimately be EMPTY (filters,
    anti-joins, gram explodes over short docs) must declare the shape
    it would have had.  With the hint the join degrades gracefully to
    its typed empty result instead of raising.
    """
    import pyarrow as pa

    keys = [on] if isinstance(on, str) else list(on)

    def _arrow_types(schema) -> dict[str, pa.DataType]:
        out = {}
        for name, typ in zip(schema.names, schema.types):
            if isinstance(typ, pa.DataType):
                out[name] = typ
            else:
                try:
                    out[name] = pa.from_numpy_dtype(np.dtype(typ))
                except (pa.ArrowNotImplementedError, TypeError):
                    out[name] = pa.string()
        return out

    def _schema_of(ds, hint):
        if hint is not None:
            # Trust the hint WITHOUT touching ds.schema(): for an
            # un-materialized upstream ending in an all-to-all stage
            # (groupby/sort), fetch_if_missing executes the ENTIRE
            # upstream just to read the first block's schema — and the
            # join then re-executes it again for real.  A caller-
            # supplied schema makes that probe pure waste (measured 3×
            # wedge-pipeline re-execution in clustering_coefficient).
            return ds, hint  # pa.Schema: same .names/.types surface
        s = ds.schema(fetch_if_missing=True)
        if s is None:  # seen under heavy sessions: force execution once
            ds = ds.materialize()
            s = ds.schema()
        if s is None:
            raise ValueError("bucketed_join: side has no derivable schema "
                             "(empty dataset with unknown columns); pass "
                             "left_schema/right_schema when the side can "
                             "be legitimately empty")
        return ds, s

    left, lschema = _schema_of(left, left_schema)
    right, rschema = _schema_of(right, right_schema)
    lcols, rcols = list(lschema.names), list(rschema.names)
    # union requires aligned schemas: pad each side with typed nulls
    pad_cols = lcols + [c for c in rcols if c not in lcols]
    types = _arrow_types(rschema)
    types.update(_arrow_types(lschema))

    def _tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            arrays = [
                t.column(c).cast(types[c]) if c in t.column_names
                else pa.nulls(t.num_rows, types[c])
                for c in pad_cols
            ]
            arrays.append(pa.array(np.full(t.num_rows, side, np.int8)))
            return pa.Table.from_arrays(arrays, pad_cols + ["__side"])
        return fn

    tagged = left.map_batches(_tag(0), batch_format="pyarrow").union(
        right.map_batches(_tag(1), batch_format="pyarrow"))

    # deterministic output schema (stable across partitions — empty
    # ones and pandas' int→float promotion on non-inner joins otherwise
    # make per-block schemas drift, which Ray's schema dedup chokes on)
    shared = [c for c in lcols if c in rcols and c not in keys]
    out_fields: list[tuple[str, pa.DataType]] = []
    for c in lcols:
        nm = c + suffixes[0] if c in shared else c
        t = types[c]
        if how in ("right", "outer") and pa.types.is_integer(t) and c not in keys:
            t = pa.float64()
        out_fields.append((nm, t))
    for c in rcols:
        if c in keys:
            continue
        nm = c + suffixes[1] if c in shared else c
        t = types[c]
        if how in ("left", "outer") and pa.types.is_integer(t):
            t = pa.float64()
        out_fields.append((nm, t))
    out_schema = pa.schema(out_fields)

    def _merge(group: pa.Table) -> pa.Table:
        side = group.column("__side").to_numpy(zero_copy_only=False)
        l = group.filter(pa.array(side == 0)).select(lcols).to_pandas()
        r = group.filter(pa.array(side == 1)).select(rcols).to_pandas()
        out = l.merge(r, on=keys, how=how, suffixes=suffixes)
        arrays = [pa.array(out[f.name], type=f.type, from_pandas=True)
                  for f in out_schema]
        return pa.Table.from_arrays(arrays, schema=out_schema)

    joined = keyed_exchange(tagged, keys, _merge, per_group=False,
                            batch_format="pyarrow", num_buckets=num_buckets)
    # schema anchor: an empty input never reaches the kernel, which
    # leaves the result with no derivable schema and breaks any further
    # join/union over it; one empty typed block keeps it schema-stable
    return joined.union(ray.data.from_arrow(out_schema.empty_table()))
