"""The benchmark's checks pass on right outputs and fail on corrupted ones.

    python3 -m pytest graphbench/test_checks.py -q

Right outputs are made here by brute force, then corrupted the ways a
faulty engine could: a dropped edge, a wrong neighbour, a moved
coordinate, a reordered span, a lost checkpoint partition.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from graphbench import checks

K, R = 4, 0.08


@pytest.fixture
def points():
    rng = np.random.default_rng(7)
    n = 300
    return np.arange(n, dtype=np.int64) * 3 + 5, rng.random(n), rng.random(n)


def _knn(ids, xs, ys, k):
    src, dst, dist = [], [], []
    for i in range(len(ids)):
        d = checks._dist(xs[i], ys[i], xs, ys)
        d[i] = np.inf
        top = np.lexsort((ids, d))[:k]
        src += [ids[i]] * k
        dst += ids[top].tolist()
        dist += d[top].tolist()
    return pa.table({"src": src, "dst": dst, "distance": dist})


def _radius(ids, xs, ys, r):
    i, j = np.triu_indices(len(ids), 1)
    d = checks._dist(xs[i], ys[i], xs[j], ys[j])
    keep = d <= r
    a, b = ids[i[keep]], ids[j[keep]]
    return pa.table({"src": np.minimum(a, b), "dst": np.maximum(a, b),
                     "distance": d[keep]})


def _drop_row(t: pa.Table, row: int) -> pa.Table:
    return pa.concat_tables([t.slice(0, row), t.slice(row + 1)])


def test_knn(points):
    ids, xs, ys = points
    edges = _knn(ids, xs, ys, K)
    assert checks.check_knn(edges, ids, xs, ys, K, samples=len(ids)) == []
    assert checks.check_knn(_drop_row(edges, 17), ids, xs, ys, K)
    dst = edges.column("dst").to_numpy().copy()
    far = np.setdiff1d(ids, dst[:K])
    dst[K - 1] = far[far != edges.column("src")[0].as_py()][-1]
    wrong = edges.set_column(1, "dst", pa.array(dst))
    assert checks.check_knn(wrong, ids, xs, ys, K, samples=len(ids))


def test_radius(points):
    ids, xs, ys = points
    edges = _radius(ids, xs, ys, R)
    assert edges.num_rows > 50
    assert checks.grid_pair_count(xs, ys, R) == edges.num_rows
    assert checks.check_radius(edges, ids, xs, ys, R) == []
    assert checks.check_radius(_drop_row(edges, 3), ids, xs, ys, R)
    assert checks.check_radius(pa.concat_tables([edges, edges.slice(0, 1)]),
                               ids, xs, ys, R)
    moved = xs.copy()
    moved[np.flatnonzero(ids == edges.column("src")[0].as_py())] += 2 * R
    assert checks.check_radius(edges, ids, moved, ys, R)


def _grid():
    occupied = np.ones((5, 5), bool)
    occupied[2, 2] = occupied[0, 4] = False
    col, row = np.nonzero(occupied)
    return np.arange(len(col), dtype=np.int64) + 100, col, row


def test_queen_and_groups(points):
    bid, col, row = _grid()
    cell = dict(zip(zip(col.tolist(), row.tolist()), bid.tolist()))
    pairs = sorted({(min(a, b), max(a, b)) for (c, r), a in cell.items()
                    for dc in (-1, 0, 1) for dr in (-1, 0, 1)
                    for b in [cell.get((c + dc, r + dr))]
                    if b is not None and b != a})
    queen = pa.table({"src": [p[0] for p in pairs], "dst": [p[1] for p in pairs]})
    assert checks.check_queen(queen, bid, col, row) == []
    assert checks.check_queen(_drop_row(queen, 5), bid, col, row)

    ids, xs, ys = points
    side = 0.2
    key = zip(np.floor(xs / side).astype(int).tolist(),
              np.floor(ys / side).astype(int).tolist())
    rows = [(cell[c], p) for c, p in zip(key, ids.tolist()) if c in cell]
    groups = pa.table({"poly_id": [r[0] for r in rows],
                       "point_id": [r[1] for r in rows]})
    assert checks.check_groups(groups, ids, xs, ys, bid, col, row, side) == []
    wrong = groups.set_column(0, "poly_id", pa.array(
        np.roll(groups.column("poly_id").to_numpy(), 1)))
    assert checks.check_groups(wrong, ids, xs, ys, bid, col, row, side)


def test_corpus():
    docs = pa.table({"doc_id": ["doc-0", "doc-1", "doc-2"], "spans": [
        [{"kind": "text", "text": "a b", "media_ref": "", "offset": 0},
         {"kind": "geom_point", "text": "POINT (1 2)", "media_ref": "", "offset": 3},
         {"kind": "media", "text": "", "media_ref": "blob://x", "offset": 14}],
        [{"kind": "text", "text": "c", "media_ref": "", "offset": 0}],
        [{"kind": "media", "text": "", "media_ref": "blob://y", "offset": 0},
         {"kind": "geom_point", "text": "POINT (0.1 3)", "media_ref": "", "offset": 0}],
    ]})
    gid, gx, gy = np.array([0, 2]), np.array([1.0, 0.1]), np.array([2.0, 3.0])
    spans = pa.table({"doc_id": ["doc-2", "doc-0"], "x": [0.1, 1.0], "y": [3.0, 2.0],
                      "coords": [[0.1, 3.0], [1.0, 2.0]],
                      "spans": [docs.column("spans")[2], docs.column("spans")[0]]})
    assert checks.check_corpus(spans, docs, gid, gx, gy) == []
    moved = spans.set_column(1, "x", pa.array([np.nextafter(0.1, 1.0), 1.0]))
    assert checks.check_corpus(moved, docs, gid, gx, gy)
    first = docs.column("spans")[0].as_py()
    reordered = spans.set_column(4, "spans", pa.array(
        [docs.column("spans")[2].as_py(), [first[1], first[0], first[2]]],
        docs.schema.field("spans").type))
    assert checks.check_corpus(reordered, docs, gid, gx, gy)


def test_checkpoint():
    rng = np.random.default_rng(3)
    built = pa.table({"part": np.arange(40) % 8, "src": np.arange(40),
                      "distance": rng.random(40)})
    loaded = built.take(rng.permutation(40))
    assert checks.same_multiset(built, loaded) == []
    lost = loaded.filter(pa.compute.not_equal(loaded["part"], 3))
    assert checks.same_multiset(built, lost)
    nested = pa.table({"k": [1, 2], "s": [[{"a": 1, "b": "x"}], []]})
    assert checks.same_multiset(nested, nested.take([1, 0])) == []
    assert checks.same_multiset(nested, nested.take([1, 1]))

    summary = {"partitions": 8, "skipped": 6, "rows": 40, "bytes": 1}
    assert checks.check_resume({"1", "5"}, {"1", "5"}, summary, 8) == []
    assert checks.check_resume({"1", "5"}, {"1"}, summary, 8)
    assert checks.check_resume({"1", "5"}, {"1", "5"},
                               dict(summary, skipped=8), 8)


def test_morphology():
    b, size, res = 2, 12.0, 2.0
    seg = []
    for j in range(b + 1):
        seg += [(i * size, j * size, (i + 1) * size, j * size) for i in range(b)]
    for i in range(b + 1):
        seg += [(i * size, j * size, i * size, (j + 1) * size) for j in range(b)]
    seg = np.array(seg)
    bx = np.array([3.0, 8.5, 15.0, 2.0])
    by = np.array([3.0, 9.0, 4.0, 20.0])
    blk = np.array([0, 0, 1, 2])
    bid = np.arange(4, dtype=np.int64)
    truth = {"blocks": b, "block": size, "seg_xy": seg, "bldg_x": bx,
             "bldg_y": by, "bldg_id": bid, "bldg_block": blk}
    cap = 3.5
    rows = {"enclosure_index": [], "cell_ix": [], "cell_iy": [], "bldg_id": []}
    pp = {"src": [], "dst": [], "enclosure_index": []}
    for eid, k in enumerate(np.unique(blk)):
        m = blk == k
        ix, iy, rank, owner = checks.brute_tessellation(
            bx[m], by[m], bid[m], (k % b) * size, (k // b) * size, size, res)
        rows["enclosure_index"] += [eid] * len(ix)
        rows["cell_ix"] += ix.tolist()
        rows["cell_iy"] += iy.tolist()
        rows["bldg_id"] += owner.tolist()
        grid = {(a, c): f"{eid}_{s}" for a, c, s in zip(ix.tolist(), iy.tolist(),
                                                         rank.tolist())}
        pairs = {(min(t, u), max(t, u)) for (a, c), t in grid.items()
                 for u in (grid.get((a + 1, c)), grid.get((a, c + 1)))
                 if u is not None and u != t}
        for s, d in sorted(pairs):
            pp["src"].append(s)
            pp["dst"].append(d)
            pp["enclosure_index"].append(eid)
    # nearest block sides: segments 0 (tied with 6), 2, 8 and 7
    pm = pa.table({"id": [0, 1, 2, 3], "seg_id": [0, 2, 8, 7],
                   "distance": [3.0, 3.0, 3.0, 2.0]})
    layers = {
        "segment_nodes": pa.table({"node_id": np.arange((b + 1) ** 2)}),
        "segment_edges": pa.table({"seg_id": np.arange(len(seg))}),
        "movement_movement": pa.table({"src": np.arange(22), "dst": np.arange(22)}),
        "tessellation": pa.table(rows),
        "place_place": pa.table(pp),
        "place_movement": pm,
    }
    assert checks.check_morphology(layers, truth, res, cap) == []
    owners = np.array(rows["bldg_id"])
    owners[np.flatnonzero(owners == 1)[0]] = 0
    bad = dict(layers, tessellation=pa.table(dict(rows, bldg_id=owners)))
    assert checks.check_morphology(bad, truth, res, cap)
    bad = dict(layers, place_place=_drop_row(layers["place_place"], 0))
    assert checks.check_morphology(bad, truth, res, cap)
    bad = dict(layers, place_movement=pm.set_column(2, "distance",
                                                    pa.array([3.0, 3.0, 3.0, 2.5])))
    assert checks.check_morphology(bad, truth, res, cap)
    bad = dict(layers, place_movement=pm.set_column(1, "seg_id",
                                                    pa.array([0, 2, 9, 7])))
    assert checks.check_morphology(bad, truth, res, cap)
    bad = dict(layers, movement_movement=_drop_row(layers["movement_movement"], 0))
    assert checks.check_morphology(bad, truth, res, cap)
