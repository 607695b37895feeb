"""Cell hierarchy (parent / k-ring) and the ring-density operator."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from city2graph_ray import cells
from tests.conftest import SF_DIR


def test_parent_cell_matches_floor_division():
    rng = np.random.default_rng(3)
    ix = rng.integers(-5000, 5000, 500)
    iy = rng.integers(-5000, 5000, 500)
    cell = cells.pack(ix, iy)
    for f in (2, 4, 64):
        got_ix, got_iy = cells.cell_xy(cells.parent_cell(cell, f))
        assert (got_ix == ix // f).all()  # numpy floor-div reference
        assert (got_iy == iy // f).all()


def test_parent_cell_rejects_non_divisor():
    import pytest
    with pytest.raises(ValueError):
        cells.parent_cell(np.array([0]), 3)


def test_ring_cells_covers_chebyshev_ball():
    cell = cells.pack(np.array([10, -7]), np.array([-2, 30]))
    for k in (1, 2):
        idx, members = cells.ring_cells(cell, k)
        assert len(members) == 2 * (2 * k + 1) ** 2
        d = cells.cell_chebyshev(cell[idx], members)
        assert (d <= k).all()
        # each ring is exactly the distinct Chebyshev ball
        for i in (0, 1):
            ring_i = set(members[idx == i].tolist())
            assert len(ring_i) == (2 * k + 1) ** 2


def test_cell_ring_density_matches_brute_force():
    from city2graph_ray.ops.tiling import cell_ring_density
    from city2graph_ray.pipelines.tables import customer_points

    out = (cell_ring_density(customer_points(SF_DIR), 64.0, k=1,
                             factor=4, num_buckets=8)
           .to_pandas().sort_values("id").reset_index(drop=True))
    pts = customer_points(SF_DIR).to_pandas()
    cell = cells.cell_id(pts["x"].to_numpy(), pts["y"].to_numpy(), 64.0)
    counts = pd.Series(cell).value_counts()
    ix, iy = cells.cell_xy(cell)
    want_ring = np.zeros(len(pts), np.int64)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            nb = cells.pack(ix + dx, iy + dy)
            want_ring += counts.reindex(nb).fillna(0).to_numpy(np.int64)
    want = pd.DataFrame({"id": pts["id"].to_numpy(np.int64),
                         "cell": cell,
                         "parent": cells.parent_cell(cell, 4),
                         "ring_n": want_ring}).sort_values("id")
    assert len(out) == len(pts)
    for c in ["id", "cell", "parent", "ring_n"]:
        assert out[c].tolist() == want[c].tolist(), c


def test_bucketed_join_padded_bigint_survives_exchange():
    """Regression: null-padded int64 columns used to roundtrip through
    pandas inside Ray's groupby exchange, promoting to float64 and
    rounding values above 2^53 (packed cell ids).  Padding is now
    typed zeros; big ids must survive bit-exact through a join whose
    other side lacks the column."""
    from city2graph_ray.joins import bucketed_join

    base = np.int64(2305843009213693952)  # 2^61
    k = np.arange(2000, dtype=np.int64)
    left = pd.DataFrame({"big": base + k, "key": k % 97})
    right = pd.DataFrame({"key": np.arange(97, dtype=np.int64),
                          "v": np.arange(97, dtype=np.int64)})
    j = bucketed_join(
        rd.from_pandas(left).repartition(8),
        rd.from_pandas(right).repartition(4),
        on="key", num_buckets=16,
        left_schema=pa.schema([("big", pa.int64()),
                               ("key", pa.int64())]),
        right_schema=pa.schema([("key", pa.int64()),
                                ("v", pa.int64())])).to_pandas()
    assert len(j) == 2000
    assert set(j["big"]) == set((base + k).tolist())


def test_grid_areal_interpolation_quarters():
    from city2graph_ray.ops.tiling import grid_areal_interpolation
    # 2x2 block of unit-area sources valued 10,20,30,40; one target
    # shifted by half a cell overlaps each with a quarter cell...
    # here: sources are 2x2 half-unit squares, target shifted by 1
    src = pd.DataFrame({
        "id": np.int64([0, 1, 2, 3]),
        "x0": np.int64([0, 2, 0, 2]), "y0": np.int64([0, 0, 2, 2]),
        "x1": np.int64([2, 4, 2, 4]), "y1": np.int64([2, 2, 4, 4]),
        "value": [10.0, 20.0, 30.0, 40.0]})
    tgt = pd.DataFrame({
        "id": np.int64([7]),
        "x0": np.int64([1]), "y0": np.int64([1]),
        "x1": np.int64([3]), "y1": np.int64([3])})
    out = grid_areal_interpolation(
        rd.from_pandas(src), rd.from_pandas(tgt), src_area=4,
        value_scale=10, cell_w=4, num_buckets=4).to_pandas()
    assert len(out) == 1
    # each source contributes value * (1/4): (10+20+30+40)/4 = 25
    assert out["interp_value"].iloc[0] == 25.0
    assert out["covered_area"].iloc[0] == 4


def test_grid_areal_interpolation_partial_and_empty():
    from city2graph_ray.ops.tiling import grid_areal_interpolation
    src = pd.DataFrame({
        "id": np.int64([0]), "x0": np.int64([0]), "y0": np.int64([0]),
        "x1": np.int64([2]), "y1": np.int64([2]), "value": [100.0]})
    # target half-covered by the single source
    tgt = pd.DataFrame({
        "id": np.int64([1]), "x0": np.int64([1]), "y0": np.int64([0]),
        "x1": np.int64([3]), "y1": np.int64([2])})
    out = grid_areal_interpolation(
        rd.from_pandas(src), rd.from_pandas(tgt), src_area=4,
        value_scale=10, num_buckets=4).to_pandas()
    assert out["interp_value"].iloc[0] == 50.0  # 100 * (2/4)
    assert out["covered_area"].iloc[0] == 2
    far = tgt.assign(x0=np.int64(100), x1=np.int64(102))
    assert grid_areal_interpolation(
        rd.from_pandas(src), rd.from_pandas(far), src_area=4,
        num_buckets=4).count() == 0


def test_morton_key_matches_bitwise_reference():
    from city2graph_ray.cells import morton_key
    rng = np.random.default_rng(7)
    ix = rng.integers(0, 1 << 31, 200, dtype=np.int64)
    iy = rng.integers(0, 1 << 31, 200, dtype=np.int64)

    def slow(a, b):
        out = 0
        for bit in range(31):
            out |= ((a >> bit) & 1) << (2 * bit)
            out |= ((b >> bit) & 1) << (2 * bit + 1)
        return out

    got = morton_key(ix, iy)
    want = np.array([slow(int(a), int(b)) for a, b in zip(ix, iy)])
    assert (got == want).all()


def test_zorder_rank_orders_by_key():
    import ray.data as rd
    from city2graph_ray.ops.tiling import zorder_rank
    pts = pd.DataFrame({"id": np.arange(50),
                        "x": np.random.default_rng(1).uniform(0, 1000, 50),
                        "y": np.random.default_rng(2).uniform(0, 1000, 50)})
    out = zorder_rank(rd.from_pandas(pts), 64.0).to_pandas()
    out = out.sort_values("rn")
    assert len(out) == 50 and out["rn"].tolist() == list(range(1, 51))
    # rank order must equal (mkey, id) lexicographic order
    expect = out.sort_values(["mkey", "id"], kind="stable")
    assert (out["id"].to_numpy() == expect["id"].to_numpy()).all()


def test_dissolve_cells_perimeter_bruteforce():
    import ray.data as rd
    from city2graph_ray.ops.tiling import dissolve_cells
    rng = np.random.default_rng(13)
    n = 400
    df = pd.DataFrame({
        "zone": rng.integers(0, 4, n).astype(np.int64),
        "x": rng.uniform(-300, 300, n),
        "y": rng.uniform(-300, 300, n)})
    out = dissolve_cells(rd.from_pandas(df).repartition(5), 64.0,
                         "zone").to_pandas()
    for z, grp in df.groupby("zone"):
        cs = {(int(np.floor(r.x / 64.0)), int(np.floor(r.y / 64.0)))
              for r in grp.itertuples()}
        per = 0
        for (ix, iy) in cs:
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                if (ix + dx, iy + dy) not in cs:
                    per += 1
        row = out[out["zone"] == z].iloc[0]
        assert int(row["n_cells"]) == len(cs)
        assert int(row["perimeter_units"]) == per
        assert row["area"] == len(cs) * 4096.0
        assert row["perimeter"] == per * 64.0


def test_dissolve_cells_shapes():
    import ray.data as rd
    from city2graph_ray.ops.tiling import dissolve_cells
    # two zones: a 2x2 block (perimeter 8) and an L-tromino (perimeter 8)
    block = [(0, 0), (0, 1), (1, 0), (1, 1)]
    ell = [(5, 5), (6, 5), (5, 6)]
    rows = ([{"zone": 1, "x": ix * 64.0 + 1, "y": iy * 64.0 + 1}
             for ix, iy in block]
            + [{"zone": 2, "x": ix * 64.0 + 1, "y": iy * 64.0 + 1}
               for ix, iy in ell])
    out = dissolve_cells(rd.from_pandas(pd.DataFrame(rows)), 64.0,
                         "zone").to_pandas().set_index("zone")
    assert int(out.loc[1, "perimeter_units"]) == 8
    assert int(out.loc[2, "perimeter_units"]) == 8
    assert int(out.loc[1, "n_cells"]) == 4
    assert int(out.loc[2, "n_cells"]) == 3


def test_hotspot_cells_bruteforce():
    import ray.data as rd
    from city2graph_ray.ops.tiling import hotspot_cells
    rng = np.random.default_rng(8)
    # uniform background + one dense clump
    bg = rng.uniform(0, 640, (300, 2))
    clump = 320 + rng.uniform(0, 10, (200, 2))
    pts = np.vstack([bg, clump])
    df = pd.DataFrame({"x": pts[:, 0], "y": pts[:, 1]})
    out = hotspot_cells(rd.from_pandas(df).repartition(4), 64.0,
                        mult=2).to_pandas()
    # brute force
    cs = {}
    for xx, yy in pts:
        key = (int(np.floor(xx / 64)), int(np.floor(yy / 64)))
        cs[key] = cs.get(key, 0) + 1
    tot, nc = sum(cs.values()), len(cs)
    want = set()
    for (ix, iy), n in cs.items():
        rn = rc = 0
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if (ix + dx, iy + dy) in cs:
                    rn += cs[(ix + dx, iy + dy)]
                    rc += 1
        if rn * nc > 2 * tot * rc:
            want.add((ix, iy))
    from city2graph_ray import cells as C
    got = set()
    for c in out["cell"]:
        ix, iy = C.cell_xy(np.array([c]))
        got.add((int(ix[0]), int(iy[0])))
    assert got == want and len(want) > 0


def test_focal_mean_hand_grid(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.tiling import focal_mean
    # 2x2 grid, values 1..4: every window covers all 4 cells
    g = rd.from_pandas(pd.DataFrame({
        "c": np.asarray([0, 1, 0, 1], np.int64),
        "r": np.asarray([0, 0, 1, 1], np.int64),
        "v": np.asarray([1.0, 2.0, 3.0, 4.0])}))
    out = focal_mean(g).to_pandas().sort_values(["c", "r"]) \
        .reset_index(drop=True)
    assert len(out) == 4
    assert (out["focal_mean"] == 2.5).all()
    assert (out["n"] == 4).all()
    # isolated cell: window is itself only
    iso = rd.from_pandas(pd.DataFrame({
        "c": np.asarray([10], np.int64), "r": np.asarray([10], np.int64),
        "v": np.asarray([7.0])}))
    o2 = focal_mean(iso).to_pandas()
    assert o2["focal_mean"].tolist() == [7.0] and o2["n"].tolist() == [1]


def test_hex_assign_nearest_center(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.tiling import hex_assign
    rng = np.random.default_rng(3)
    n, size = 500, 7.0
    xy = rng.uniform(-100, 100, (n, 2))
    pts = rd.from_pandas(pd.DataFrame({
        "id": np.arange(n, dtype=np.int64), "x": xy[:, 0], "y": xy[:, 1]}))
    out = hex_assign(pts, size).to_pandas().sort_values("id")
    s3 = np.sqrt(3.0)
    for i, hq, hr in zip(out["id"], out["hq"], out["hr"]):
        best = min(((q, r) for q in range(hq - 2, hq + 3)
                    for r in range(hr - 2, hr + 3)),
                   key=lambda qr: (xy[i, 0] - size * s3 * (qr[0] + qr[1] / 2.0)) ** 2
                   + (xy[i, 1] - size * 1.5 * qr[1]) ** 2)
        assert best == (hq, hr)


def test_hilbert_rank_permutation_and_adjacency():
    from city2graph_ray.ops.tiling import hilbert_rank
    order, side = 4, 16
    gx, gy = np.meshgrid(np.arange(side), np.arange(side))
    pts = pd.DataFrame({
        "id": np.arange(side * side, dtype=np.int64),
        "x": gx.ravel() + 0.5, "y": gy.ravel() + 0.5})
    out = (hilbert_rank(rd.from_pandas(pts), 1.0, order=order)
           .to_pandas().merge(pts, on="id").sort_values("rn"))
    # hkey is a permutation of the full grid
    assert sorted(out["hkey"]) == list(range(side * side))
    # consecutive ranks are edge-adjacent cells (the Hilbert property —
    # Z-order fails this at every power-of-two boundary)
    dx = np.abs(np.diff(np.floor(out["x"].to_numpy())))
    dy = np.abs(np.diff(np.floor(out["y"].to_numpy())))
    assert ((dx + dy) == 1).all()
    assert out["rn"].tolist() == list(range(1, side * side + 1))


def test_hilbert_rank_rejects_out_of_range():
    import pytest as _pytest
    import ray.exceptions
    from city2graph_ray.ops.tiling import hilbert_rank
    pts = pd.DataFrame({"id": np.array([0], np.int64),
                        "x": np.array([-5.0]), "y": np.array([1.0])})
    with _pytest.raises(Exception):
        hilbert_rank(rd.from_pandas(pts), 1.0, order=4).to_pandas()


def test_raster_slope_horn_plane():
    # a perfect plane z = 3c + 5r: Horn gradient recovers (3, 5)/1
    from city2graph_ray.ops.tiling import raster_slope
    cs, rs = np.meshgrid(np.arange(6), np.arange(6))
    c, r = cs.ravel().astype(np.int64), rs.ravel().astype(np.int64)
    g = pd.DataFrame({"c": c, "r": r, "v": 3 * c + 5 * r})
    out = raster_slope(rd.from_pandas(g), cell_size=1.0).to_pandas()
    # only the 4x4 interior has complete windows
    assert len(out) == 16
    assert (out["gx_num"] == 24).all()   # 8 * dz/dc
    assert (out["gy_num"] == 40).all()
    assert np.allclose(out["slope"], np.sqrt(24.0**2 + 40.0**2) / 8.0)


def test_raster_slope_bruteforce_sparse():
    from city2graph_ray.ops.tiling import raster_slope
    rng = np.random.default_rng(31)
    cs, rs = np.meshgrid(np.arange(7), np.arange(7))
    df = pd.DataFrame({"c": cs.ravel().astype(np.int64),
                       "r": rs.ravel().astype(np.int64),
                       "v": rng.integers(0, 100, 49).astype(np.int64)})
    df = df[rng.random(49) > 0.1].reset_index(drop=True)
    out = raster_slope(rd.from_pandas(df)).to_pandas()
    cells = {(c, r): v for c, r, v in zip(df["c"], df["r"], df["v"])}
    for _, row in out.iterrows():
        c, r = row["c"], row["r"]
        win = {(dc, dr): cells.get((c + dc, r + dr))
               for dc in (-1, 0, 1) for dr in (-1, 0, 1)}
        assert all(v is not None for v in win.values())
        gx = (2 * win[(1, 0)] + win[(1, -1)] + win[(1, 1)]
              - 2 * win[(-1, 0)] - win[(-1, -1)] - win[(-1, 1)])
        gy = (2 * win[(0, 1)] + win[(-1, 1)] + win[(1, 1)]
              - 2 * win[(0, -1)] - win[(-1, -1)] - win[(1, -1)])
        assert (row["gx_num"], row["gy_num"]) == (gx, gy)
    # every complete-window cell is present
    n_complete = sum(
        1 for (c, r) in cells
        if all((c + dc, r + dr) in cells
               for dc in (-1, 0, 1) for dr in (-1, 0, 1)))
    assert len(out) == n_complete


def test_kde_grid_bruteforce():
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.tiling import kde_grid

    rng = np.random.default_rng(7)
    x = rng.integers(0, 10000, 300).astype(np.float64) / 100.0
    y = rng.integers(0, 10000, 300).astype(np.float64) / 100.0
    got = (kde_grid(rd.from_pandas(pd.DataFrame({"x": x, "y": y})),
                    cell_size=10.0, bandwidth_cells=2, num_buckets=4)
           .to_pandas().sort_values(["c", "r"]).reset_index(drop=True))

    ux = np.floor(x * 100 + 0.5).astype(np.int64)
    uy = np.floor(y * 100 + 0.5).astype(np.int64)
    cu, h2 = 1000, np.int64(2000) ** 2
    c, r = ux // cu, uy // cu
    occ = sorted(set(zip(c.tolist(), r.tolist())))
    assert len(got) == len(occ)
    for (cc, rr), (_, row) in zip(occ, got.iterrows()):
        assert (row["c"], row["r"]) == (cc, rr)
        dx = ux - (cc * cu + cu // 2)
        dy = uy - (rr * cu + cu // 2)
        d2 = dx * dx + dy * dy
        win = d2 < h2
        assert row["n_win"] == win.sum()
        assert row["n_cell"] == ((c == cc) & (r == rr)).sum()
        assert row["kde_num"] == ((h2 - d2[win]) ** 2).sum()


def test_kde_grid_rejects_odd_cell_units():
    import pandas as pd
    import pytest
    import ray.data as rd
    from city2graph_ray.ops.tiling import kde_grid

    with pytest.raises(ValueError):
        kde_grid(rd.from_pandas(pd.DataFrame({"x": [1.0], "y": [1.0]})),
                 cell_size=0.25)


def _flow_brute(df):
    import numpy as np
    cells = {(c, r): v for c, r, v in zip(df["c"], df["r"], df["v"])}
    off8 = [(1, 0), (1, 1), (0, 1), (-1, 1),
            (-1, 0), (-1, -1), (0, -1), (1, -1)]
    dirs = {}
    for (c, r), v in cells.items():
        nbrs = [(c + dc, r + dr) for dc, dr in off8]
        if not all(n in cells for n in nbrs):
            continue
        best, bd = -1, -1
        for d, n in enumerate(nbrs):
            drop = v - cells[n]
            if drop <= 0:
                continue
            m = drop * drop * (2 if d % 2 == 0 else 1)
            if m > best:
                best, bd = m, d
        dirs[(c, r)] = bd
    acc = {k: 1 for k in dirs}
    for start in dirs:
        cur = start
        while dirs.get(cur, -1) != -1:
            dc, dr = off8[dirs[cur]]
            cur = (cur[0] + dc, cur[1] + dr)
            if cur in acc:
                acc[cur] += 1
            else:
                break
    return dirs, acc, off8


def test_flow_d8_and_accumulation_bruteforce():
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.tiling import (flow_accumulation,
                                           flow_direction_d8)

    rng = np.random.default_rng(5)
    cs, rs = np.meshgrid(np.arange(9), np.arange(8))
    c, r = cs.ravel().astype(np.int64), rs.ravel().astype(np.int64)
    # gradient + noise → realistic mix of channels, pits, ties
    v = (c * 3 + r * 2 + rng.integers(0, 6, len(c))).astype(np.int64)
    df = pd.DataFrame({"c": c, "r": r, "v": v})
    dirs_ds = flow_direction_d8(rd.from_pandas(df),
                                num_buckets=4).materialize()
    got = dirs_ds.to_pandas().sort_values(["c", "r"]).reset_index(drop=True)
    want_dirs, want_acc, off8 = _flow_brute(df)
    assert len(got) == len(want_dirs)
    for _, row in got.iterrows():
        d = want_dirs[(row["c"], row["r"])]
        assert row["dir"] == d
        if d == -1:
            assert (row["next_c"], row["next_r"]) == (row["c"], row["r"])
        else:
            assert (row["next_c"], row["next_r"]) == \
                (row["c"] + off8[d][0], row["r"] + off8[d][1])
    acc = (flow_accumulation(dirs_ds, num_buckets=4).to_pandas()
           .sort_values(["c", "r"]).reset_index(drop=True))
    assert len(acc) == len(want_acc)
    for _, row in acc.iterrows():
        assert row["acc"] == want_acc[(row["c"], row["r"])], \
            (row["c"], row["r"])


def test_flow_accumulation_single_channel():
    # a strictly decreasing 1-wide valley: accumulation = rank along it
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.tiling import (flow_accumulation,
                                           flow_direction_d8)

    cs, rs = np.meshgrid(np.arange(12), np.arange(3))
    c, r = cs.ravel().astype(np.int64), rs.ravel().astype(np.int64)
    # row 1 is the channel, decreasing eastward; rows 0/2 are high walls
    v = np.where(r == 1, 100 - c, 1000 + c).astype(np.int64)
    dirs_ds = flow_direction_d8(
        rd.from_pandas(pd.DataFrame({"c": c, "r": r, "v": v})),
        num_buckets=4).materialize()
    acc = flow_accumulation(dirs_ds, num_buckets=4).to_pandas()
    chan = acc[acc["r"] == 1].sort_values("c")
    # interior channel cells are c=1..10; water entering at c=1 flows
    # east, walls drain into the channel
    assert (np.diff(chan["acc"].to_numpy()) > 0).all()
    assert chan["acc"].iloc[-1] >= len(chan)


def test_flow_accumulation_doubling_matches_broadcast(distributed):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.tiling import (flow_accumulation,
                                           flow_direction_d8)

    rng = np.random.default_rng(17)
    cs, rs = np.meshgrid(np.arange(10), np.arange(9))
    c, r = cs.ravel().astype(np.int64), rs.ravel().astype(np.int64)
    v = (c * 2 + r * 3 + rng.integers(0, 5, len(c))).astype(np.int64)
    dirs_ds = flow_direction_d8(
        rd.from_pandas(pd.DataFrame({"c": c, "r": r, "v": v})),
        num_buckets=4).materialize()
    bc = (flow_accumulation(dirs_ds, num_buckets=4).to_pandas()
          .sort_values(["c", "r"]).reset_index(drop=True))
    with distributed():
        db = (flow_accumulation(dirs_ds, num_buckets=4).to_pandas()
              .sort_values(["c", "r"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(bc, db)


def test_flow_watershed_bruteforce_and_strategies(distributed):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.tiling import flow_direction_d8, flow_watershed

    rng = np.random.default_rng(9)
    cs, rs = np.meshgrid(np.arange(10), np.arange(8))
    c, r = cs.ravel().astype(np.int64), rs.ravel().astype(np.int64)
    v = (c + r * 2 + rng.integers(0, 7, len(c))).astype(np.int64)
    df = pd.DataFrame({"c": c, "r": r, "v": v})
    dirs_ds = flow_direction_d8(rd.from_pandas(df),
                                num_buckets=4).materialize()
    dirs_df = dirs_ds.to_pandas()
    nxt = {(a, b): (x, y) for a, b, x, y in zip(
        dirs_df["c"], dirs_df["r"], dirs_df["next_c"], dirs_df["next_r"])}
    want = {}
    for start in nxt:
        cur = start
        while cur in nxt and nxt[cur] != cur:
            cur = nxt[cur]
        want[start] = cur
    bc = (flow_watershed(dirs_ds, num_buckets=4)
          .to_pandas().sort_values(["c", "r"]).reset_index(drop=True))
    assert len(bc) == len(want)
    for _, row in bc.iterrows():
        assert (row["pit_c"], row["pit_r"]) == want[(row["c"], row["r"])]
    with distributed():
        jp = (flow_watershed(dirs_ds, num_buckets=4)
              .to_pandas().sort_values(["c", "r"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(bc, jp)


def test_distance_transform_bruteforce():
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.tiling import distance_transform

    rng = np.random.default_rng(3)
    occ = pd.DataFrame({"c": rng.integers(0, 12, 8),
                        "r": rng.integers(0, 12, 8)}).astype(np.int64)
    occ = occ.drop_duplicates().reset_index(drop=True)
    got = (distance_transform(rd.from_pandas(occ), max_radius=3,
                              num_buckets=4).to_pandas()
           .set_index(["c", "r"])["d2"].to_dict())
    pts = list(zip(occ["c"], occ["r"]))
    want = {}
    for (oc, orr) in pts:
        for dc in range(-3, 4):
            for dr in range(-3, 4):
                key = (oc + dc, orr + dr)
                d2 = dc * dc + dr * dr
                if key not in want or d2 < want[key]:
                    want[key] = d2
    assert got == want
    assert all(got[p] == 0 for p in pts)


def _seg_square_brute(ax, ay, bx, by, x0, y0, s):
    """Liang-Barsky closed clip: does segment touch [x0,x0+s]x[y0,y0+s]?"""
    dx, dy = bx - ax, by - ay
    t0, t1 = 0.0, 1.0
    for p, q in ((-dx, ax - x0), (dx, x0 + s - ax),
                 (-dy, ay - y0), (dy, y0 + s - ay)):
        if p == 0:
            if q < 0:
                return False
            continue
        t = q / p
        if p < 0:
            t0 = max(t0, t)
        else:
            t1 = min(t1, t)
    return t0 <= t1


def test_segment_cover_cells_generic_matches_clip():
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.tiling import segment_cover_cells

    rng = np.random.default_rng(19)
    n = 40
    ax = rng.integers(3, 400, n)
    ay = rng.integers(3, 400, n)
    segs = pd.DataFrame({"seg_id": np.arange(n, dtype=np.int64),
                         "ax": ax, "ay": ay,
                         "bx": ax + rng.integers(-90, 91, n),
                         "by": ay + rng.integers(-90, 91, n)
                         }).astype(np.int64)
    s = 32
    got = segment_cover_cells(rd.from_pandas(segs), cell_size=s,
                              num_buckets=4).to_pandas()
    have = set(zip(got["seg_id"], got["c"], got["r"]))
    want = set()
    for _, row in segs.iterrows():
        lo_c = min(row["ax"], row["bx"]) // s
        hi_c = max(row["ax"], row["bx"]) // s
        lo_r = min(row["ay"], row["by"]) // s
        hi_r = max(row["ay"], row["by"]) // s
        for c in range(lo_c, hi_c + 1):
            for r in range(lo_r, hi_r + 1):
                if _seg_square_brute(row["ax"], row["ay"], row["bx"],
                                     row["by"], c * s, r * s, s):
                    want.add((row["seg_id"], c, r))
    assert have == want


def test_quadtree_assign_matches_brute_force():
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.tiling import quadtree_assign

    rng = np.random.default_rng(5)
    n = 600
    # clustered: half the points in one corner so deep tiles appear
    x = np.concatenate([rng.uniform(0, 1000, n // 2),
                        rng.uniform(0, 60, n // 2)])
    y = np.concatenate([rng.uniform(0, 1000, n // 2),
                        rng.uniform(0, 60, n // 2)])
    df = pd.DataFrame({"id": np.arange(n, dtype=np.int64),
                       "x": np.round(x, 2), "y": np.round(y, 2)})
    cap, maxd = 40, 4
    got = (quadtree_assign(rd.from_pandas(df), cap=cap, max_depth=maxd,
                           num_buckets=4)
           .to_pandas().sort_values("id").reset_index(drop=True))

    ix = np.floor(df["x"].to_numpy() * 100 + 0.5).astype(np.int64)
    iy = np.floor(df["y"].to_numpy() * 100 + 0.5).astype(np.int64)
    depth = np.full(n, maxd, dtype=np.int64)
    cxo = np.zeros(n, dtype=np.int64)
    cyo = np.zeros(n, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    for d in range(1, maxd + 1):
        s = 100_000 >> d
        cx, cy = ix // s, iy // s
        key = cx * 100_000 + cy
        import collections
        cnt = collections.Counter(key.tolist())
        ok = np.array([cnt[k] <= cap for k in key.tolist()])
        pick = ~done & (ok | (d == maxd))
        depth[pick], cxo[pick], cyo[pick] = d, cx[pick], cy[pick]
        done |= pick
    assert got["depth"].tolist() == depth.tolist()
    assert got["cell_x"].tolist() == cxo.tolist()
    assert got["cell_y"].tolist() == cyo.tolist()
    assert len(set(got["depth"])) >= 2  # the fixture really is adaptive


def test_raster_aspect_plane_and_flat():
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from city2graph_ray.ops.tiling import raster_aspect

    # tilted plane v = 10*c: gradient points +c, downslope -c (west),
    # sector of (ax, ay)=(-gx, 0) with gx>0 -> flipped -> k=4
    cc, rr = np.meshgrid(np.arange(5), np.arange(5))
    plane = pd.DataFrame({"c": cc.ravel().astype(np.int64),
                          "r": rr.ravel().astype(np.int64),
                          "v": (10 * cc.ravel()).astype(np.int64)})
    out = raster_aspect(rd.from_pandas(plane)).to_pandas()
    assert len(out) == 9  # complete windows only
    assert (out["aspect_octant"] == 4).all()

    flat = plane.assign(v=np.int64(7))
    out2 = raster_aspect(rd.from_pandas(flat)).to_pandas()
    assert (out2["aspect_octant"] == -1).all()

    # v = 10*r: gradient +r, downslope -r -> (0, -ay<0) flipped,
    # ux=0, uy>0 -> k=2 -> +4 = 6
    vr = plane.assign(v=(10 * rr.ravel()).astype(np.int64))
    out3 = raster_aspect(rd.from_pandas(vr)).to_pandas()
    assert (out3["aspect_octant"] == 6).all()


def test_raster_regions_bruteforce():
    import ray.data as rd

    from city2graph_ray.ops.tiling import raster_regions
    rng = np.random.default_rng(7)
    cells = set()
    for _ in range(120):
        cells.add((int(rng.integers(0, 12)), int(rng.integers(0, 12))))
    cells = sorted(cells)
    df = pd.DataFrame({"c": [c for c, _ in cells],
                       "r": [r for _, r in cells]})
    out = (raster_regions(rd.from_pandas(df).repartition(4),
                          num_buckets=4)
           .to_pandas().sort_values(["c", "r"]).reset_index(drop=True))
    # brute-force BFS labeling with min-key labels
    key = {p: p[0] * (1 << 20) + p[1] for p in cells}
    lab = {}
    for p in cells:
        if p in lab:
            continue
        comp, stack = [], [p]
        seen = {p}
        while stack:
            q = stack.pop()
            comp.append(q)
            for d in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nb = (q[0] + d[0], q[1] + d[1])
                if nb in key and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        m = min(key[q] for q in comp)
        for q in comp:
            lab[q] = m
    assert len(out) == len(cells)
    for _, row in out.iterrows():
        assert row["region"] == lab[(row["c"], row["r"])]


def test_raster_regions_single_cell_and_empty():
    import ray.data as rd

    from city2graph_ray.ops.tiling import raster_regions
    df = pd.DataFrame({"c": np.array([5], np.int64),
                       "r": np.array([9], np.int64)})
    out = raster_regions(rd.from_pandas(df)).to_pandas()
    assert len(out) == 1 and out["region"].iloc[0] == 5 * (1 << 20) + 9


def test_compact_cells_bruteforce():
    import ray.data as rd

    from city2graph_ray.ops.tiling import compact_cells
    # full 4x4 block (compacts to one res-2 cell), one full 2x2 block
    # (res-1), and scattered singles
    cells = set()
    for ix in range(4):
        for iy in range(4):
            cells.add((ix, iy))
    cells |= {(10, 10), (11, 10), (10, 11), (11, 11)}
    cells |= {(20, 3), (7, 20)}
    df = pd.DataFrame(sorted(cells), columns=["ix", "iy"])
    out = (compact_cells(rd.from_pandas(df).repartition(3), levels=3,
                         num_buckets=4)
           .to_pandas().sort_values(["res", "ix", "iy"])
           .reset_index(drop=True))
    want = {(2, 0, 0), (1, 5, 5), (0, 20, 3), (0, 7, 20)}
    got = set(map(tuple, out[["res", "ix", "iy"]].to_numpy()))
    assert got == want


def test_raster_cost_distance_bruteforce():
    import ray.data as rd

    from city2graph_ray.ops.tiling import raster_cost_distance
    rng = np.random.default_rng(61)
    cells = sorted({(int(rng.integers(0, 7)), int(rng.integers(0, 7)))
                    for _ in range(35)})
    w = {p: int(rng.integers(1, 6)) for p in cells}
    srcs = set(list(cells)[::7])
    df = pd.DataFrame({"c": [c for c, _ in cells],
                       "r": [r for _, r in cells],
                       "w": [w[p] for p in cells],
                       "is_src": [1 if p in srcs else 0
                                  for p in cells]})
    rounds = 20
    out = (raster_cost_distance(rd.from_pandas(df).repartition(3),
                                rounds=rounds, num_buckets=4)
           .to_pandas())
    # brute-force synchronous relaxation with identical rounds
    INF = 999999
    d = {p: (0 if p in srcs else INF) for p in cells}
    for _ in range(rounds):
        nd = dict(d)
        for p in cells:
            best = min((d[(p[0] + dc, p[1] + dr)]
                        for dc, dr in ((1, 0), (-1, 0), (0, 1),
                                       (0, -1))
                        if (p[0] + dc, p[1] + dr) in d), default=INF)
            if best < INF:
                nd[p] = min(nd[p], best + w[p], INF)
        d = nd
    got = {(r["c"], r["r"]): r["d"] for _, r in out.iterrows()}
    assert got == d


def test_raster_regions_empty_mask():
    import ray.data as rd

    from city2graph_ray.ops.tiling import raster_regions
    empty = rd.from_pandas(pd.DataFrame(
        {"c": pd.Series(dtype=np.int64),
         "r": pd.Series(dtype=np.int64)}))
    assert raster_regions(empty, num_buckets=2).count() == 0
