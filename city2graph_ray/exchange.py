"""The engine's one keyed shuffle: hash-partition rows on key columns,
then run a kernel per key group or per partition, as a two-stage
map/reduce of plain Ray tasks —

  map:    per input Arrow block, hash the key columns and split the
          block into P shards: a stable partition sort, then one
          ``take`` per shard.  Cell kernels expand rows here first:
          each point is copied into every grid cell within ``halo`` of
          it (flagged ``is_halo``), and the cell is the key.
  reduce: per partition, concatenate its shards and stable-sort them
          by key, then call the kernel once per key group or once on
          the whole partition; kernel outputs concatenate as Arrow.
          Results re-enter Ray Data via ``from_arrow_refs``.

Every ``groupby``-style stage of the engine runs here: the ``shuffle``
helpers, ``joins.bucketed_join``, checkpoint writes and the cell kernels
of the spatial operators.  Ray Data's sort-based
``groupby().map_groups`` pays a sample pass and a global sort and is
latency-bound at interactive sizes; its hash shuffle runs on aggregator
actors that hold slots between stages.  Pure tasks keep lineage-based
fault tolerance and object-store spilling.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from city2graph_ray import cells


def _num_partitions(nbytes: int, num_buckets: int | None = None) -> int:
    # 2× the CPU count: each reduce task's peak memory is dominated by
    # its OUTPUT table (pair dumps run 100×+ the input bytes), and one
    # wave of cpu-count tasks each holding a ~GB output thrashes the
    # page cache (measured at 9.6M pts / 955M pairs on 32 CPUs:
    # P=32 → 81 s, P=64 → 13 s, P=128 → 17 s).  Finer partitions also
    # shorten the straggler tail of the last wave.  One partition per
    # 8 MiB of input at least, so a small session splits a large input
    # too; no more than that, because every partition costs a reduce
    # task (measured on one slot: 16 partitions made the morphology
    # build 1.9× slower than 2).
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    p = max(2, 2 * cpus, -(-nbytes // (8 << 20)))
    return p if num_buckets is None else max(2, min(int(num_buckets), p))


def plain_lists(t: pa.Table) -> pa.Table:
    """Ray's tensor extension columns as ``list<double>`` of each row's
    flattened values.  A pandas stage that emits numpy arrays gets a
    fixed-shape tensor type in blocks whose arrays share a shape and a
    variable-shape one elsewhere; the two cannot be concatenated.  The
    pandas metadata of a table with such a column goes too: it would
    read the lists back as Ray's tensor dtype."""
    for i, field in enumerate(t.schema):
        typ = field.type
        if not (isinstance(typ, pa.ExtensionType)
                and typ.extension_name.startswith("ray.data.arrow_")
                and "tensor" in typ.extension_name):
            continue
        chunks = []
        for c in t.column(i).chunks:
            s = c.storage
            chunks.append((s.field("data") if pa.types.is_struct(s.type)
                           else s).cast(pa.list_(pa.float64())))
        t = t.set_column(i, field.name,
                         pa.chunked_array(chunks, pa.list_(pa.float64())))
        t = t.replace_schema_metadata(None)
    return t


def concat(tables: Sequence[pa.Table]) -> pa.Table:
    """One table from Arrow blocks whose types may differ the way Ray
    Data blocks do (tensor columns, null-typed empty columns, int vs
    float after pandas)."""
    return pa.concat_tables([plain_lists(t) for t in tables],
                            promote_options="permissive")


_FNV = np.uint64(0x100000001B3)


def _mix(v: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: every input bit reaches the low bits that
    ``% P`` keeps."""
    v = v ^ (v >> np.uint64(30))
    v = v * np.uint64(0xBF58476D1CE4E5B9)
    v = v ^ (v >> np.uint64(27))
    v = v * np.uint64(0x94D049BB133111EB)
    return v ^ (v >> np.uint64(31))


def _key_hash(t: pa.Table, keys: Sequence[str]) -> np.ndarray:
    """Per-row uint64 hash of the key columns, equal for equal keys
    across blocks of one dataset: any integer width, an integral float
    as its integer (a pandas block with a null widens ints to float),
    -0.0 as 0.0, string or large string."""
    h = np.zeros(t.num_rows, np.uint64)
    for k in keys:
        col = t.column(k)
        if pa.types.is_dictionary(col.type):
            col = col.cast(col.type.value_type)
        if pa.types.is_integer(col.type) or pa.types.is_boolean(col.type):
            v = (pc.fill_null(col, 0).cast(pa.int64(), safe=False)
                 .to_numpy().view(np.uint64))
        else:
            if pa.types.is_floating(col.type):
                col = col.cast(pa.float64())
            a = col.to_numpy()
            if a.dtype.kind == "f":
                a = a + 0.0
                ints = (a == np.round(a)) & (np.abs(a) < 2.0 ** 63)
            v = pd.util.hash_array(a, categorize=False)
            if a.dtype.kind == "f":
                v[ints] = a[ints].astype(np.int64).view(np.uint64)
        h = _mix(h * _FNV ^ v)
    return h


@ray.remote
def _split(t: pa.Table | pd.DataFrame, keys: tuple, num_partitions: int,
           halo: tuple | None) -> list:
    """Map task: one block → ``num_partitions`` shards by key hash."""
    if isinstance(t, pd.DataFrame):
        # not Ray's block conversion, which types an all-null column as
        # null and so loses a pandas stage's NaT or nullable-int padding
        t = pa.Table.from_pandas(t, preserve_index=False)
    extra: dict[str, np.ndarray] = {}
    if halo is not None:
        cell_size, width, cols = halo
        if "x" not in t.schema.names:
            # schema-less empty block (filtered-out upstream): typed
            # shards, extra columns as float64
            empty = pa.table({
                "id": pa.array([], pa.int64()),
                "x": pa.array([], pa.float64()),
                "y": pa.array([], pa.float64()),
                **{c: pa.array([], pa.float64()) for c in cols[3:]},
                "cell": pa.array([], pa.int64()),
                "is_halo": pa.array([], pa.bool_())})
            return [empty] * num_partitions
        rows, cell, is_halo = cells.halo_assignments(
            t.column("x").to_numpy(), t.column("y").to_numpy(),
            cell_size, width)
        t = t.select(list(cols))
        extra = {"cell": cell, "is_halo": is_halo}
        h = _mix(cell.astype(np.int64).view(np.uint64))
    elif t.num_rows == 0:
        return [t] * num_partitions
    else:
        rows = None
        h = _key_hash(t, keys)
    part = (h % np.uint64(num_partitions)).astype(np.int64)
    order = np.argsort(part, kind="stable")
    src = order if rows is None else rows[order]
    bounds = np.searchsorted(part[order], np.arange(num_partitions + 1))
    # each shard is a fresh `take` of the source block: Arrow pickles a
    # *sliced* table with its FULL parent buffers (measured: a 1k-row
    # slice of a 1M-row block serializes all 24 MB), so zero-copy slice
    # views here would ship P copies of every block into the object
    # store.  Per-shard take copies each row exactly once in total.
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sh = t.take(pa.array(src[lo:hi]))
        for name, v in extra.items():
            sh = sh.append_column(name, pa.array(v[order[lo:hi]]))
        out.append(sh)
    return out


def _group_bounds(t: pa.Table, keys: Sequence[str]):
    """(start, end) row ranges of the equal-key runs of a key-sorted
    table; null and NaN keys form one group each."""
    n = t.num_rows
    if n == 0:
        return []
    change = np.zeros(n - 1, bool)
    for k in keys:
        a = t.column(k).to_numpy()
        ne = a[1:] != a[:-1]
        if a.dtype.kind not in "iub":
            na = pd.isna(a)
            ne &= ~(na[1:] & na[:-1])
        change |= ne
    b = np.flatnonzero(change) + 1
    return zip(np.concatenate([[0], b]).tolist(),
               np.concatenate([b, [n]]).tolist())


def _as_arrow(out) -> pa.Table:
    if isinstance(out, pa.Table):
        return out
    return pa.Table.from_pandas(out, preserve_index=False)


@ray.remote(num_returns=2)
def _reduce(kernel: Callable, keys: tuple, per_group: bool,
            batch_format: str, typed_empty: bool, *shards):
    """Reduce task: (output table, its (rows, columns)).  The kernel
    sees no empty frame, except that ``typed_empty`` gives a partition
    without rows one call on its empty frame, for the output schema."""
    full = [s for s in shards if s.num_rows]
    t = concat(full or [max(shards, key=lambda s: s.num_columns)])
    if t.num_rows > 1:
        t = t.take(pc.sort_indices(t, [(k, "ascending") for k in keys]))
    if per_group:
        parts = [t.slice(lo, hi - lo) for lo, hi in _group_bounds(t, keys)]
    else:
        parts = [t] if t.num_rows else []
    if not parts and typed_empty:
        parts = [t]
    if batch_format == "pandas":
        parts = [p.to_pandas() for p in parts]
    outs = [_as_arrow(o) for o in map(kernel, parts) if o is not None]
    rows = [o for o in outs if o.num_rows]
    out = concat(rows) if rows else (outs[0] if outs else pa.table({}))
    return out, (out.num_rows, out.num_columns)


def _exchange(ds: ray.data.Dataset, keys: Sequence[str], kernel: Callable,
              per_group: bool, batch_format: str,
              num_buckets: int | None = None,
              halo: tuple | None = None) -> ray.data.Dataset:
    bundles = list(ds.iter_internal_ref_bundles())
    P = _num_partitions(sum(b.size_bytes() for b in bundles), num_buckets)
    refs = [r for b in bundles for r in b.block_refs] or [ray.put(pa.table({}))]
    split = _split.options(num_returns=P)
    shards = [split.remote(r, tuple(keys), P, halo) for r in refs]
    kref = ray.put(kernel)
    outs = [_reduce.remote(kref, tuple(keys), per_group, batch_format,
                           halo is not None, *[s[p] for s in shards])
            for p in range(P)]
    sizes = ray.get([m for _, m in outs])
    # drop empty partitions: they would only add blocks, some without
    # columns; keep the widest one when the whole result is empty
    keep = [t for (t, _), (n, _) in zip(outs, sizes) if n]
    if not keep:
        keep = [outs[int(np.argmax([c for _, c in sizes]))][0]]
    return ray.data.from_arrow_refs(keep)


def keyed_exchange(ds: ray.data.Dataset, keys: Sequence[str],
                   kernel: Callable, per_group: bool = True,
                   batch_format: str = "pandas",
                   num_buckets: int | None = None) -> ray.data.Dataset:
    """Run ``kernel`` over the rows of ``ds`` grouped by ``keys``.

    ``per_group=True``: one call per distinct key, with that key's rows
    (the semantics of ``groupby(keys).map_groups(kernel)``).
    ``per_group=False``: one call per partition, with every row of the
    keys hashed there, sorted by key; the kernel groups them itself
    (vectorized pandas).  The kernel never sees an empty frame, so an
    empty input gives an empty result without a schema, as
    ``map_groups`` does.  ``batch_format`` is "pandas" or "pyarrow"; the
    kernel returns a DataFrame, an Arrow table or None.  Partitions:
    twice the CPUs or one per 8 MiB of input, whichever is more, at
    most ``num_buckets`` and at least 2 (a map task with one return
    would return its shard list as one object)."""
    return _exchange(ds, keys, kernel, per_group, batch_format, num_buckets)


def cell_halo_exchange(
    points: ray.data.Dataset,
    cell_size: float,
    halo: float,
    kernel: Callable[[pd.DataFrame], pd.DataFrame],
    extra_cols: tuple = (),
    per_cell: bool = True,
) -> ray.data.Dataset:
    """Run ``kernel`` over every cell group of the halo-expanded points.

    The kernel sees one cell's rows: id, x, y, *extra_cols, cell,
    is_halo — each point in its home cell and, flagged ``is_halo``, in
    every other cell within ``halo`` of it.  The kernel must accept an
    empty frame: a partition with no rows calls it once, so an empty
    input keeps the kernel's output schema.  ``per_cell=False`` declares
    the kernel multi-cell-aware: it is called ONCE per partition with
    the partition's rows sorted by ``cell`` and must restrict pairing to
    equal cells itself.  Use for kernels whose per-cell call overhead
    would dominate at fine grids."""
    cols = ("id", "x", "y", *extra_cols)
    return _exchange(points, ["cell"], kernel, per_cell, "pandas",
                     halo=(cell_size, halo, cols))
