"""Interleaved text+media document ingress (BASELINE.json ``input_hint``).

The engine's authoritative ingress is a table of interleaved documents::

    doc_id: string
    spans:  list<struct<kind: string, text: string,
                        media_ref: string, offset: int32>>

Geometry-bearing spans carry WKT in ``text`` (kind ∈ {geom_point,
geom_segment, geom_building}); ``media`` spans carry an opaque URI in
``media_ref``.  The per-row invariant: the span sequence (kind, text,
media_ref, order) must survive every pipeline — so geometry is
*extracted into sibling tables* keyed (doc_id, span_idx) and the spans
column is never rewritten (SURVEY.md §1.3).

``synthesize_documents`` derives a deterministic corpus from the
TPC-H-ish testdata (city2graph_ray.synth derivations — the same
geometry the SQL oracles describe), standing in for
``ray.data.read_lance`` of the production corpus.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from city2graph_ray import synth
from city2graph_ray.exchange import keyed_exchange
from city2graph_ray.geom import wkt

SPAN_TYPE = pa.list_(pa.struct([
    ("kind", pa.string()),
    ("text", pa.string()),
    ("media_ref", pa.string()),
    ("offset", pa.int32()),
]))

DOC_SCHEMA = pa.schema([("doc_id", pa.string()), ("spans", SPAN_TYPE)])


def _doc_batch(doc_ids: list[str], span_lists: list[list[dict]]) -> pa.Table:
    return pa.Table.from_arrays(
        [pa.array(doc_ids, pa.string()), pa.array(span_lists, SPAN_TYPE)],
        schema=DOC_SCHEMA)


def _g10(a: np.ndarray) -> pa.Array:
    """%.10g float formatting per element (identical to the f-string
    formatting in geom.wkt emitters)."""
    return pa.array(np.char.mod("%.10g", np.asarray(a, np.float64)))


def _spans_table(ids: pa.Array, starts: np.ndarray, kind: np.ndarray,
                 text: np.ndarray, media: np.ndarray,
                 offset: np.ndarray) -> pa.Table:
    struct = pa.StructArray.from_arrays(
        [pa.array(kind, pa.string()), pa.array(text, pa.string()),
         pa.array(media, pa.string()), pa.array(offset, pa.int32())],
        names=["kind", "text", "media_ref", "offset"])
    spans = pa.ListArray.from_arrays(pa.array(starts, pa.int32()), struct)
    return pa.Table.from_arrays([ids, spans], schema=DOC_SCHEMA)


def synthesize_documents(sf_dir: str) -> ray.data.Dataset:
    """Deterministic interleaved-doc corpus from the testdata tables.

    - customer rows → docs with a text span + a geom_point span (the
      customer's derived point) + a media span on every 3rd doc,
    - orders rows → docs with a text span + a geom_segment span (order
      point → customer point),
    - part rows → docs with a text span + a geom_building span (grid
      square polygon).
    """
    # single-file reads default to ONE block → the (python-heavy) doc
    # builders would run serially; force enough blocks to parallelize
    nb = 16
    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey", "c_mktsegment"],
                                 override_num_blocks=nb)
    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_orderkey", "o_custkey"],
                                   override_num_blocks=nb)
    part = ray.data.read_parquet(f"{sf_dir}/part.parquet",
                                 columns=["p_partkey", "p_type"],
                                 override_num_blocks=nb)

    # all three builders are fully vectorized (Arrow string joins +
    # %.10g numpy formatting + flat struct/list assembly) — the
    # previous per-row dict builders dominated the span_extract bench
    # stage; outputs are byte-identical (tests assert WKT round-trip)
    import pyarrow.compute as pc

    def two_span_docs(prefix: str, keys: np.ndarray, txt: pa.Array,
                      g: pa.Array, gkind: str) -> pa.Table:
        n = len(keys)
        tlen = pc.utf8_length(txt).to_numpy().astype(np.int32)
        kind = np.empty(2 * n, dtype=object)
        text = np.empty(2 * n, dtype=object)
        offset = np.zeros(2 * n, dtype=np.int32)
        kind[0::2] = "text"
        kind[1::2] = gkind
        text[0::2] = txt.to_numpy(zero_copy_only=False)
        text[1::2] = g.to_numpy(zero_copy_only=False)
        offset[1::2] = tlen
        media = np.full(2 * n, "", dtype=object)
        ids = pc.binary_join_element_wise(
            prefix, pa.array(keys.astype(str)), "")
        starts = np.arange(0, 2 * n + 1, 2, dtype=np.int64)
        return _spans_table(ids, starts, kind, text, media, offset)

    def cust_docs(batch: pa.Table) -> pa.Table:
        keys = batch["c_custkey"].to_numpy()
        x, y = synth.key_to_xy(keys)
        ks = pa.array(keys.astype(str))
        txt = pc.binary_join_element_wise(
            "customer ", ks, " segment ", batch["c_mktsegment"], "")
        g = pc.binary_join_element_wise(
            "POINT (", _g10(x), " ", _g10(y), ")", "")
        tlen = pc.utf8_length(txt).to_numpy().astype(np.int32)
        glen = pc.utf8_length(g).to_numpy().astype(np.int32)
        has_media = (keys % 3) == 0
        nsp = 2 + has_media.astype(np.int64)
        starts = np.concatenate(([0], np.cumsum(nsp)))
        total = int(starts[-1])
        s = starts[:-1]
        kind = np.empty(total, dtype=object)
        text = np.empty(total, dtype=object)
        media = np.full(total, "", dtype=object)
        offset = np.zeros(total, dtype=np.int32)
        kind[s] = "text"
        kind[s + 1] = "geom_point"
        text[s] = txt.to_numpy(zero_copy_only=False)
        text[s + 1] = g.to_numpy(zero_copy_only=False)
        offset[s + 1] = tlen
        mrows = np.flatnonzero(has_media)
        mpos = s[mrows] + 2
        kind[mpos] = "media"
        text[mpos] = ""
        media[mpos] = np.char.add(
            np.char.add("blob://img/", keys[mrows].astype(str)),
            ".png").astype(object)
        offset[mpos] = tlen[mrows] + glen[mrows]
        ids = pc.binary_join_element_wise("cust-", ks, "")
        return _spans_table(ids, starts, kind, text, media, offset)

    def order_docs(batch: pa.Table) -> pa.Table:
        ok = batch["o_orderkey"].to_numpy()
        ck = batch["o_custkey"].to_numpy()
        ax, ay = synth.key_to_xy(ok)
        bx, by = synth.key_to_xy(ck)
        txt = pc.binary_join_element_wise(
            "order ", pa.array(ok.astype(str)), " by customer ",
            pa.array(ck.astype(str)), "")
        g = pc.binary_join_element_wise(
            "LINESTRING (", _g10(ax), " ", _g10(ay), ", ",
            _g10(bx), " ", _g10(by), ")", "")
        return two_span_docs("ord-", ok, txt, g, "geom_segment")

    def part_docs(batch: pa.Table) -> pa.Table:
        keys = batch["p_partkey"].to_numpy()
        col, row = synth.part_grid_cell(keys)
        rings = synth.grid_square_ring(col, row)
        txt = pc.binary_join_element_wise(
            "building ", pa.array(keys.astype(str)), " type ",
            batch["p_type"], "")
        parts: list = ["POLYGON (("]
        for j in range(0, rings.shape[1], 2):
            if j:
                parts.append(", ")
            parts.extend([_g10(rings[:, j]), " ", _g10(rings[:, j + 1])])
        parts.append("))")
        g = pc.binary_join_element_wise(*parts, "")
        return two_span_docs("part-", keys, txt, g, "geom_building")

    return (cust.map_batches(cust_docs, batch_format="pyarrow")
            .union(orders.map_batches(order_docs, batch_format="pyarrow"))
            .union(part.map_batches(part_docs, batch_format="pyarrow")))


GEOM_KINDS = ("geom_point", "geom_segment", "geom_building")


def _centroid_of(gkind: str, coords: np.ndarray) -> tuple[float, float]:
    c = coords.reshape(-1, 2)
    if gkind == "POINT":
        return float(c[0, 0]), float(c[0, 1])
    if gkind == "LINESTRING":
        return float(c[:, 0].mean()), float(c[:, 1].mean())
    from city2graph_ray.geom.kernels import polygon_area_centroid
    _, cx, cy = polygon_area_centroid(coords)
    return cx, cy


def _extract_slow(texts) -> dict[str, list]:
    """Per-row fallback: multi-ring polygons / malformed WKT only."""
    out = {"coords": [], "x": [], "y": []}
    for tx in texts:
        gkind, coords = wkt.parse(tx)
        cx, cy = _centroid_of(gkind, coords)
        out["coords"].append(coords.tolist())
        out["x"].append(cx)
        out["y"].append(cy)
    return out


def extract_geometry_spans(docs: ray.data.Dataset) -> ray.data.Dataset:
    """The foundational ingest op (SURVEY.md §2.2 last row): decode each
    document's geometry spans into a typed sibling table keyed
    (doc_id, span_idx), leaving the spans column of the source table
    untouched.  Output columns: doc_id, span_idx, kind, coords
    (list<double> flat), x, y (centroid — the point itself for
    geom_point, vertex mean for linestrings, shoelace area centroid
    for polygon exterior rings).

    Fully vectorized: Arrow list kernels flatten the span structs
    (zero-copy), one RE2 pass strips the WKT head + parens, Arrow
    split/cast produce the flat float64 coord stream, and ragged
    reduceat kernels compute the centroids.  Only multi-ring polygons
    and rows the vector parser rejects fall back to the per-row
    parser (VERDICT r2 item 3 — the previous per-doc/per-span Python
    loop was the 10⁹-doc bottleneck)."""
    import pyarrow.compute as pc

    from city2graph_ray.geom.kernels import polygon_area_centroids

    empty = pa.table({
        "doc_id": pa.array([], pa.string()),
        "span_idx": pa.array([], pa.int32()),
        "kind": pa.array([], pa.string()),
        "coords": pa.array([], pa.list_(pa.float64())),
        "x": pa.array([], pa.float64()),
        "y": pa.array([], pa.float64()),
    })

    def extract(batch: pa.Table) -> pa.Table:
        spans = batch.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        lengths = pc.list_value_length(spans).to_numpy().astype(np.int64)
        parent = np.repeat(np.arange(len(batch), dtype=np.int64), lengths)
        starts = np.concatenate(([0], np.cumsum(lengths)))
        span_idx_all = np.arange(parent.size, dtype=np.int64) - starts[parent]
        flat = pc.list_flatten(spans)
        kind_all = pc.struct_field(flat, "kind")
        geom_mask = pc.is_in(kind_all, value_set=pa.array(list(GEOM_KINDS))) \
            .to_numpy(zero_copy_only=False)
        sel = np.flatnonzero(geom_mask)
        if sel.size == 0:
            return empty
        sel_a = pa.array(sel)
        texts = pc.take(pc.struct_field(flat, "text"), sel_a)
        kinds = pc.take(kind_all, sel_a)
        doc_ids = pc.take(batch.column("doc_id"),
                          pa.array(parent[sel]))
        span_idx = span_idx_all[sel].astype(np.int32)

        # slow-path rows: polygons with holes (3+ paren groups)
        slow = pc.count_substring(texts, "(").to_numpy() > 2

        def vector_parse(tx: pa.Array):
            body = pc.replace_substring_regex(
                tx, pattern=r"^\s*[A-Za-z]+\s*|[()]", replacement="")
            pairs = pc.split_pattern(body, ",")
            npts = pc.list_value_length(pairs).to_numpy().astype(np.int64)
            if (npts == 0).any():
                raise ValueError("empty WKT body")
            xy = pc.split_pattern_regex(
                pc.utf8_trim_whitespace(pc.list_flatten(pairs)), r"\s+")
            if not pc.all(pc.equal(pc.list_value_length(xy), 2)).as_py():
                raise ValueError("malformed coordinate pair")
            vals = pc.cast(pc.list_flatten(xy), pa.float64()).to_numpy()
            return vals, npts

        try:
            if slow.any():
                raise ValueError("multi-ring rows present")
            vals, npts = vector_parse(texts)
        except (ValueError, pa.ArrowInvalid):
            # mixed batch: vectorize the clean rows, loop the rest
            fast_idx = np.flatnonzero(~slow)
            slow_idx = np.flatnonzero(slow)
            tx_fast = pc.take(texts, pa.array(fast_idx))
            try:
                vals_f, npts_f = vector_parse(tx_fast)
            except (ValueError, pa.ArrowInvalid):
                # whole batch per-row (malformed rows not pre-detectable)
                slow_idx = np.arange(len(texts))
                fast_idx = np.zeros(0, dtype=np.int64)
                vals_f = np.zeros(0)
                npts_f = np.zeros(0, dtype=np.int64)
            s = _extract_slow(
                pc.take(texts, pa.array(slow_idx)).to_pylist())
            return _assemble_mixed(doc_ids, span_idx, kinds, texts,
                                   fast_idx, vals_f, npts_f, slow_idx, s)

        off_dbl = np.concatenate(([0], np.cumsum(npts * 2)))
        coords = pa.ListArray.from_arrays(
            pa.array(off_dbl, pa.int32()), pa.array(vals, pa.float64()))

        xs, ys = vals[0::2], vals[1::2]
        starts_pt = (off_dbl[:-1] // 2).astype(np.int64)
        mean_x = np.add.reduceat(xs, starts_pt) / npts
        mean_y = np.add.reduceat(ys, starts_pt) / npts
        cx, cy = mean_x, mean_y  # POINT (n=1) and LINESTRING semantics
        poly = pc.starts_with(texts, pattern="POLYGON") \
            .to_numpy(zero_copy_only=False)
        if poly.any():
            pidx = np.flatnonzero(poly)
            # ragged sub-extraction of the polygon rows
            sub_off = np.concatenate(
                ([0], np.cumsum(npts[pidx] * 2))).astype(np.int64)
            take = np.concatenate(
                [np.arange(off_dbl[i], off_dbl[i + 1]) for i in pidx]) \
                if pidx.size else np.zeros(0, dtype=np.int64)
            _, pcx, pcy = polygon_area_centroids(vals[take], sub_off)
            bad = np.isnan(pcx)
            if bad.any():  # degenerate rings → scalar fallback
                for j in np.flatnonzero(bad):
                    i = pidx[j]
                    _, pcx[j], pcy[j] = _centroid_of(
                        "POLYGON",
                        vals[off_dbl[i]:off_dbl[i + 1]])
            cx = cx.copy(); cy = cy.copy()
            cx[pidx] = pcx
            cy[pidx] = pcy

        return pa.table({
            "doc_id": doc_ids,
            "span_idx": pa.array(span_idx, pa.int32()),
            "kind": kinds,
            "coords": coords,
            "x": pa.array(cx, pa.float64()),
            "y": pa.array(cy, pa.float64()),
        })

    return docs.map_batches(extract, batch_format="pyarrow")


def _assemble_mixed(doc_ids, span_idx, kinds, texts, fast_idx, vals_f,
                    npts_f, slow_idx, slow_out) -> pa.Table:
    """Merge vector-parsed rows with per-row-parsed rows back into the
    original span order (rare path: batches containing multi-ring or
    malformed WKT)."""
    import pyarrow.compute as pc
    n = len(texts)
    coords_list: list = [None] * n
    x = np.empty(n); y = np.empty(n)
    off = np.concatenate(([0], np.cumsum(npts_f * 2)))
    for j, i in enumerate(fast_idx):
        c = vals_f[off[j]:off[j + 1]]
        coords_list[i] = c.tolist()
        tx = texts[int(i)].as_py()
        gk = ("POINT" if tx.lstrip().upper().startswith("POINT")
              else "LINESTRING" if tx.lstrip().upper().startswith("LINESTRING")
              else "POLYGON")
        x[i], y[i] = _centroid_of(gk, c)
    for j, i in enumerate(slow_idx):
        coords_list[i] = slow_out["coords"][j]
        x[i] = slow_out["x"][j]
        y[i] = slow_out["y"][j]
    return pa.table({
        "doc_id": doc_ids,
        "span_idx": pa.array(span_idx, pa.int32()),
        "kind": kinds,
        "coords": pa.array(coords_list, pa.list_(pa.float64())),
        "x": pa.array(x, pa.float64()),
        "y": pa.array(y, pa.float64()),
    })


def doc_points(docs: ray.data.Dataset, kind: str = "geom_point") -> ray.data.Dataset:
    """Geometry spans of one kind → a points Dataset (id, x, y) where id
    is the integer suffix of doc_id (deterministic; used so pipelines
    fed from the interleaved corpus are comparable to the SQL oracles
    that derive the same points from the raw keys)."""
    g = extract_geometry_spans(docs)

    def to_points(batch: pa.Table) -> pa.Table:
        pc = pa.compute
        t = batch.filter(pc.equal(batch["kind"], kind))
        # id = integer suffix after the last '-', vectorized (the old
        # per-row str.rsplit loop was a hot-path cost at corpus scale)
        ids = pc.cast(pc.replace_substring_regex(
            t["doc_id"], pattern=r"^.*-", replacement=""), pa.int64())
        return pa.table({"id": ids, "x": t["x"], "y": t["y"]})

    return g.map_batches(to_points, batch_format="pyarrow")


def read_documents(path: str, format: str = "auto",
                   columns: list[str] | None = None,
                   **read_kwargs) -> ray.data.Dataset:
    """Read an interleaved-document corpus (``input_hint`` schema:
    doc_id + spans) from Lance or Parquet.

    ``format="auto"`` picks Lance for ``*.lance`` paths (the
    production corpus format per BASELINE.json) and Parquet otherwise.
    The Lance path delegates to ``ray.data.read_lance`` — a streaming,
    column-pruned scan exactly like ``read_parquet`` — and is gated on
    the ``lance`` package being importable; in environments without it
    (this sandbox) a clear ImportError is raised and the Parquet path
    is the tested stand-in (identical Dataset semantics downstream:
    every operator reads Arrow batches and never sees the source
    format).

    Pass ``columns=["doc_id"]``-style projections so span/media bytes
    never leave storage when a pipeline doesn't need them.
    """
    fmt = format
    if fmt == "auto":
        fmt = "lance" if path.rstrip("/").endswith(".lance") else "parquet"
    if fmt == "lance":
        try:
            import lance  # noqa: F401
        except ImportError as e:
            raise ImportError(
                "read_documents(format='lance') needs the 'lance' "
                "package (pip install pylance); this environment does "
                "not ship it — use the Parquet mirror of the corpus "
                "instead (identical schema, identical pipelines)."
            ) from e
        return ray.data.read_lance(path, columns=columns, **read_kwargs)
    if fmt == "parquet":
        return ray.data.read_parquet(path, columns=columns, **read_kwargs)
    raise ValueError(f"unknown format {format!r} (auto|lance|parquet)")


def rejoin_spans(docs: ray.data.Dataset, results: ray.data.Dataset,
                 on: str = "doc_id") -> ray.data.Dataset:
    """Re-attach the untouched ``spans`` column to a derived result
    table (SURVEY.md §2 "wide rows": media-heavy span payloads are
    projected OUT before heavy shuffles and joined back by ``doc_id``
    at the end, so span bytes never ride through a shuffle).

    One bucketed hash join on doc_id; span-sequence equality of the
    joined rows is asserted by tests/test_interleaved.py."""
    from city2graph_ray.joins import bucketed_join
    spans_side = docs.select_columns([on, "spans"])
    return bucketed_join(results, spans_side, on=on)


def media_spans(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Flatten each document's ``media`` spans into a typed sibling
    table ``(doc_id, span_idx, media_ref)`` — the source spans column
    stays untouched (the per-row span-sequence invariant).  Same
    zero-copy Arrow list-offset flatten as
    :func:`extract_geometry_spans`; no per-row Python loop."""
    import pyarrow.compute as pc

    empty = pa.table({
        "doc_id": pa.array([], pa.string()),
        "span_idx": pa.array([], pa.int32()),
        "media_ref": pa.array([], pa.string()),
    })

    def extract(batch: pa.Table) -> pa.Table:
        spans = batch.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        lengths = pc.list_value_length(spans).to_numpy().astype(np.int64)
        parent = np.repeat(np.arange(len(batch), dtype=np.int64), lengths)
        starts = np.concatenate(([0], np.cumsum(lengths)))
        span_idx_all = np.arange(parent.size, dtype=np.int64) - starts[parent]
        flat = pc.list_flatten(spans)
        mask = pc.equal(pc.struct_field(flat, "kind"), "media") \
            .to_numpy(zero_copy_only=False)
        sel = np.flatnonzero(mask)
        if sel.size == 0:
            return empty
        sel_a = pa.array(sel)
        return pa.table({
            "doc_id": pc.take(batch.column("doc_id"), pa.array(parent[sel])),
            "span_idx": pa.array(span_idx_all[sel].astype(np.int32)),
            "media_ref": pc.take(pc.struct_field(flat, "media_ref"), sel_a),
        })

    return docs.map_batches(extract, batch_format="pyarrow")


def synthesize_caption_docs(sf_dir: str, num_buckets: int = 32) -> ray.data.Dataset:
    """Interleaved corpus with *genuinely* interleaved text/media spans
    (one doc per order, spans from its lineitems in l_linenumber order):

    - lineitem with ``l_linenumber % 3 != 0`` contributes a text span
      ``"item {ln} part {pk}"``,
    - lineitem with ``l_linenumber % 2 == 1`` contributes a media span
      ``blob://img/{pk}.png`` (after its text span, when both exist).

    Some media spans therefore have no text span in their own lineitem
    (ln ∈ {3, 9, …}) — their nearest preceding text span belongs to an
    *earlier* lineitem, which is exactly the non-degenerate structure
    :func:`caption_align` exists for.  Offsets are cumulative text
    lengths within the doc (media spans are zero-width).

    Built with one hash shuffle on the order key (lineitems of one
    order must meet); within a partition everything is flat-array
    vectorized — no per-doc Python loop."""
    import pyarrow.compute as pc

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_partkey"])

    def build(g: pa.Table) -> pa.Table:
        ok = g["l_orderkey"].to_numpy()
        ln = g["l_linenumber"].to_numpy().astype(np.int64)
        pk = g["l_partkey"].to_numpy()
        # (ok, ln, pk) total order; lineitem carries duplicate
        # (ok, ln) and even duplicate (ok, ln, pk) rows — duplicates
        # are byte-identical spans, so any residual tie is harmless
        order = np.lexsort((pk, ln, ok))
        ok, ln, pk = ok[order], ln[order], pk[order]
        has_t = (ln % 3 != 0)
        has_m = (ln % 2 == 1)
        nsp = has_t.astype(np.int64) + has_m
        keep = nsp > 0
        # items contributing no span still belong to their doc, but add
        # nothing to the flat arrays; doc boundaries use the kept rows
        total = int(nsp.sum())
        item_start = np.concatenate(([0], np.cumsum(nsp)))[:-1]
        kind = np.empty(total, dtype=object)
        text = np.empty(total, dtype=object)
        media = np.full(total, "", dtype=object)
        tpos = item_start[has_t]
        mpos = (item_start + has_t)[has_m]
        txt = pc.binary_join_element_wise(
            "item ", pa.array(ln[has_t].astype(str)),
            " part ", pa.array(pk[has_t].astype(str)), "")
        kind[tpos] = "text"
        text[tpos] = txt.to_numpy(zero_copy_only=False)
        kind[mpos] = "media"
        text[mpos] = ""
        media[mpos] = np.char.add(
            np.char.add("blob://img/", pk[has_m].astype(str)),
            ".png").astype(object)
        # per-doc exclusive cumsum of span text lengths → offsets
        flat_len = np.zeros(total, dtype=np.int64)
        flat_len[tpos] = pc.utf8_length(txt).to_numpy()
        excl = np.concatenate(([0], np.cumsum(flat_len)[:-1]))
        doc_first = np.concatenate(([True], ok[1:] != ok[:-1]))
        doc_ids_all = np.cumsum(doc_first) - 1
        n_docs = int(doc_ids_all.max()) + 1 if len(ok) else 0
        # flat index of each doc's first span (first kept item, items
        # are doc-sorted) → per-doc base for the offset cumsum
        first_span_of_doc = np.full(n_docs, -1, np.int64)
        kidx = np.flatnonzero(keep)
        dk = doc_ids_all[kidx]
        firsts = np.concatenate(([True], dk[1:] != dk[:-1]))
        first_span_of_doc[dk[firsts]] = item_start[kidx[firsts]]
        span_doc = np.repeat(doc_ids_all, nsp)
        offset = excl - excl[first_span_of_doc[span_doc]]
        # assemble list<struct> per doc (docs with ≥1 span)
        docs_present = np.unique(dk)
        counts = np.zeros_like(first_span_of_doc)
        np.add.at(counts, doc_ids_all, nsp)
        counts = counts[docs_present]
        starts = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        ok_of_doc = ok[doc_first.nonzero()[0]][docs_present]
        ids = pc.binary_join_element_wise(
            "ord-", pa.array(ok_of_doc.astype(str)), "")
        return _spans_table(ids, starts, kind, text, media,
                            offset.astype(np.int32))

    return keyed_exchange(li, ["l_orderkey"], build, per_group=False,
                          batch_format="pyarrow", num_buckets=num_buckets)


def caption_align(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Caption mining over the interleaved corpus: align every media
    span with its *nearest preceding* text span in the same document
    (the standard image–caption pairing rule for interleaved web docs;
    cf. OBELICS/MMC4-style corpora).  Media spans with no preceding
    text span are dropped.

    Pure map stage — each doc's span list is self-contained, so no
    shuffle is needed at any corpus size.  Vectorized: zero-copy Arrow
    list flatten, one segmented cummax (pandas C groupby) for the
    last-text index, fancy-index take for the caption text.

    Output: (doc_id, media_idx:int64, media_ref, caption_idx:int64,
    caption_text)."""
    import pyarrow.compute as pc

    empty = pa.table({
        "doc_id": pa.array([], pa.string()),
        "media_idx": pa.array([], pa.int64()),
        "media_ref": pa.array([], pa.string()),
        "caption_idx": pa.array([], pa.int64()),
        "caption_text": pa.array([], pa.string()),
    })

    def align(batch: pa.Table) -> pa.Table:
        spans = batch.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        lengths = pc.list_value_length(spans).to_numpy().astype(np.int64)
        parent = np.repeat(np.arange(len(batch), dtype=np.int64), lengths)
        starts = np.concatenate(([0], np.cumsum(lengths)))
        span_idx_all = np.arange(parent.size, dtype=np.int64) - starts[parent]
        flat = pc.list_flatten(spans)
        kind = pc.struct_field(flat, "kind")
        is_text = pc.equal(kind, "text").to_numpy(zero_copy_only=False)
        is_media = pc.equal(kind, "media").to_numpy(zero_copy_only=False)
        if not is_media.any():
            return empty
        pos = np.arange(parent.size, dtype=np.int64)
        lt = np.where(is_text, pos, -1)
        # segmented cummax (reset per doc): C-speed pandas groupby
        last_text = pd.Series(lt).groupby(parent).cummax().to_numpy()
        mpos = np.flatnonzero(is_media)
        cap = last_text[mpos]
        ok = cap >= 0
        mpos, cap = mpos[ok], cap[ok].astype(np.int64)
        texts = pc.struct_field(flat, "text")
        return pa.table({
            "doc_id": pc.take(batch.column("doc_id"), pa.array(parent[mpos])),
            "media_idx": pa.array(span_idx_all[mpos]),
            "media_ref": pc.take(pc.struct_field(flat, "media_ref"),
                                 pa.array(mpos)),
            "caption_idx": pa.array(span_idx_all[cap]),
            "caption_text": pc.take(texts, pa.array(cap)),
        })

    return docs.map_batches(align, batch_format="pyarrow")
