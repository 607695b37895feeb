"""Seeded input generator for the spatial-graph benchmark.

    python3 graphbench/gen.py --workload proximity --seed 1 --out DIR

Writes the workload's interleaved documents as Parquet under
``DIR/docs/`` in the engine's ingress schema (``doc_id`` plus a list of
``spans`` with ``kind``/``text``/``media_ref``/``offset``) and the
ground truth the checks compare against beside them as
``DIR/truth.npz``.  It imports nothing from the engine and runs as one
process; coordinates are written as WKT with ``%.17g`` so they parse
back bit for bit.
"""

from __future__ import annotations

import argparse
import os

# Sizes are fixed per workload: the seed moves only where things are,
# so the work per build stays the same from seed to seed.
PROXIMITY = {"points": 12_000, "extent": 1000.0, "hot_spots": 6,
             "hot_share": 0.4, "hot_sigma": 30.0, "grid": 40,
             "hole_share": 0.15, "outliers": 16, "outlier_x": 1090.0}
MORPHOLOGY = {"blocks": 12, "block": 40.0, "max_buildings": 5,
              "footprint": 2.0, "inset": 1.0}
CORPUS = {"docs": 8_000, "geo_share": 0.2, "min_text": 4, "max_text": 6,
          "extent": 1000.0}

WORDS = ("street", "corner", "market", "river", "bridge", "park", "tower",
         "lane", "square", "harbour", "station", "garden", "museum", "hall",
         "north", "south", "east", "west", "old", "new", "photo", "map")


def _g17(v: float) -> str:
    return "%.17g" % v


def point_wkt(x: float, y: float) -> str:
    return f"POINT ({_g17(x)} {_g17(y)})"


def ring_wkt(kind: str, xy) -> str:
    body = ", ".join(f"{_g17(x)} {_g17(y)}" for x, y in xy)
    return f"POLYGON (({body}))" if kind == "polygon" else f"LINESTRING ({body})"


def _doc(spans: list[tuple[str, str, str]]) -> list[dict]:
    """Spans (kind, text, media_ref) → span structs; offsets are the
    cumulative text length before each span (media spans are
    zero-width)."""
    out, off = [], 0
    for kind, text, media in spans:
        out.append({"kind": kind, "text": text, "media_ref": media,
                    "offset": off})
        off += len(text)
    return out


def _sentence(rng, n_words: int) -> str:
    return " ".join(WORDS[i] for i in rng.integers(0, len(WORDS), n_words))


def gen_proximity(rng) -> tuple[list, dict]:
    import numpy as np
    p = PROXIMITY
    n, ext = p["points"], p["extent"]
    n_hot = int(n * p["hot_share"])
    # hot spots at fixed centres on a 3×2 lattice: the seed moves every
    # point but not where the hot spots sit on the engine's cell grid,
    # so the skew they cause is the same for every seed
    centres = np.stack(np.meshgrid([1 / 6, 1 / 2, 5 / 6], [1 / 4, 3 / 4]),
                       axis=-1).reshape(-1, 2)[:p["hot_spots"]] * ext
    which = rng.integers(0, p["hot_spots"], n_hot)
    hot = centres[which] + rng.normal(0.0, p["hot_sigma"], (n_hot, 2))
    # hot-spot tails that leave the extent are drawn again uniformly
    out = (hot < 0).any(axis=1) | (hot >= ext).any(axis=1)
    hot[out] = rng.uniform(0.0, ext, (int(out.sum()), 2))
    # a sparse column of outliers east of the extent: their 8th
    # neighbour lies beyond kNN's first two halos for every seed, so
    # every build takes the same escalation rounds
    m = p["outliers"]
    out_xy = np.stack([np.full(m, p["outlier_x"]),
                       (np.arange(m) + rng.uniform(0.25, 0.75, m)) * ext / m], axis=1)
    xy = np.concatenate([hot, rng.uniform(0.0, ext, (n - n_hot - m, 2)), out_xy])
    xy = xy[rng.permutation(n)]
    ids, docs = np.arange(n, dtype=np.int64), []
    for i in range(n):
        x, y = float(xy[i, 0]), float(xy[i, 1])
        docs.append((f"pt-{i}", _doc([
            ("text", f"sighting {i} {_sentence(rng, 3)}", ""),
            ("geom_point", point_wkt(x, y), "")])))

    g = p["grid"]
    side = ext / g
    holes = rng.permutation(g * g) < round(p["hole_share"] * g * g)
    occupied = ~holes.reshape(g, g)
    cols, rows = np.nonzero(occupied)
    for j, (c, r) in enumerate(zip(cols.tolist(), rows.tolist())):
        x0, y0, x1, y1 = c * side, r * side, (c + 1) * side, (r + 1) * side
        ring = [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]
        docs.append((f"bldg-{j}", _doc([
            ("text", f"building {j} {_sentence(rng, 4)}", ""),
            ("geom_building", ring_wkt("polygon", ring), "")])))
    truth = {"pt_id": ids, "pt_x": xy[:, 0].copy(), "pt_y": xy[:, 1].copy(),
             "bldg_id": np.arange(len(cols), dtype=np.int64),
             "bldg_col": cols.astype(np.int64),
             "bldg_row": rows.astype(np.int64),
             "grid": np.int64(g), "side": np.float64(side)}
    return docs, truth


def gen_morphology(rng) -> tuple[list, dict]:
    import numpy as np
    p = MORPHOLOGY
    b, size = p["blocks"], p["block"]
    docs, seg_rows = [], []
    # street segments: every grid edge between neighbouring crossings
    for j in range(b + 1):
        for i in range(b):
            seg_rows.append(((i * size, j * size), ((i + 1) * size, j * size)))
    for i in range(b + 1):
        for j in range(b):
            seg_rows.append(((i * size, j * size), (i * size, (j + 1) * size)))
    for s, ends in enumerate(seg_rows):
        docs.append((f"seg-{s}", _doc([
            ("text", f"street {s} {_sentence(rng, 2)}", ""),
            ("geom_segment", ring_wkt("line", ends), "")])))

    # buildings: square footprints on a quarter-metre lattice, so their
    # shoelace centroids are exact binary fractions
    half = p["footprint"] / 2.0
    lo = p["inset"] + half
    steps = int((size - 2 * lo) * 4)
    # every seed has the same number of blocks with 0, 1, ... buildings
    per_block = rng.permutation(np.resize(np.arange(p["max_buildings"] + 1), b * b))
    bx, by, bblk = [], [], []
    for blk in range(b * b):
        ci, cj = blk % b, blk // b
        for _ in range(int(per_block[blk])):
            bx.append(ci * size + lo + rng.integers(0, steps + 1) / 4.0)
            by.append(cj * size + lo + rng.integers(0, steps + 1) / 4.0)
            bblk.append(blk)
    for k, (x, y) in enumerate(zip(bx, by)):
        ring = [(x - half, y - half), (x + half, y - half),
                (x + half, y + half), (x - half, y + half),
                (x - half, y - half)]
        docs.append((f"bldg-{k}", _doc([
            ("text", f"building {k} {_sentence(rng, 3)}", ""),
            ("media", "", f"blob://facade/{k}.jpg"),
            ("geom_building", ring_wkt("polygon", ring), "")])))
    seg = np.asarray(seg_rows, np.float64).reshape(-1, 4)
    truth = {"blocks": np.int64(b), "block": np.float64(size),
             "seg_id": np.arange(len(seg_rows), dtype=np.int64),
             "seg_xy": seg,
             "bldg_id": np.arange(len(bx), dtype=np.int64),
             "bldg_x": np.asarray(bx, np.float64),
             "bldg_y": np.asarray(by, np.float64),
             "bldg_block": np.asarray(bblk, np.int64)}
    return docs, truth


def gen_corpus(rng) -> tuple[list, dict]:
    import numpy as np
    p = CORPUS
    n, ext = p["docs"], p["extent"]
    geo = rng.permutation(n) < round(p["geo_share"] * n)
    docs, gid, gx, gy, gdoc = [], [], [], [], []
    for d in range(n):
        n_text = int(rng.integers(p["min_text"], p["max_text"] + 1))
        spans = [("text", _sentence(rng, int(rng.integers(4, 16))), "")
                 for _ in range(n_text)]
        spans.insert(int(rng.integers(1, n_text + 1)),
                     ("media", "", f"blob://img/{d}-{int(rng.integers(1e9))}.png"))
        if geo[d]:
            x, y = rng.uniform(0.0, ext, 2)
            spans.insert(int(rng.integers(0, len(spans) + 1)),
                         ("geom_point", point_wkt(float(x), float(y)), ""))
            gid.append(d)
            gx.append(x)
            gy.append(y)
            gdoc.append(f"doc-{d}")
        docs.append((f"doc-{d}", _doc(spans)))
    truth = {"geo_id": np.asarray(gid, np.int64),
             "geo_x": np.asarray(gx, np.float64),
             "geo_y": np.asarray(gy, np.float64)}
    return docs, truth


GENERATORS = {"proximity": gen_proximity, "morphology": gen_morphology,
              "corpus": gen_corpus}


def write(docs: list, out_dir: str, files: int = 4) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq
    span_type = pa.list_(pa.struct([("kind", pa.string()),
                                    ("text", pa.string()),
                                    ("media_ref", pa.string()),
                                    ("offset", pa.int32())]))
    schema = pa.schema([("doc_id", pa.string()), ("spans", span_type)])
    os.makedirs(out_dir, exist_ok=True)
    step = -(-len(docs) // files)
    for f in range(files):
        part = docs[f * step:(f + 1) * step]
        table = pa.table({"doc_id": [d for d, _ in part],
                          "spans": [s for _, s in part]}, schema=schema)
        pq.write_table(table, os.path.join(out_dir, f"docs-{f}.parquet"))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    import numpy as np
    import pyarrow as pa
    pa.set_cpu_count(max(1, os.cpu_count() or 1))
    rng = np.random.default_rng([args.seed, sorted(GENERATORS).index(args.workload)])
    docs, truth = GENERATORS[args.workload](rng)
    write(docs, os.path.join(args.out, "docs"))
    truth["docs"] = np.asarray([d for d, _ in docs])
    np.savez(os.path.join(args.out, "truth.npz"), **truth)


if __name__ == "__main__":
    main()
