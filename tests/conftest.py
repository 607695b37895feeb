"""Shared fixtures. Ray is initialised ONCE per pytest session."""

from __future__ import annotations

import contextlib
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    import logging
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    yield
    ray.shutdown()


@pytest.fixture
def distributed(monkeypatch):
    """``with distributed():`` runs its body with a 0-byte driver
    budget, so every driver-or-distributed gate takes its distributed
    branch."""
    from city2graph_ray import budget

    @contextlib.contextmanager
    def force():
        with monkeypatch.context() as m:
            m.setattr(budget, "DRIVER_BYTES", 0)
            yield

    return force


@pytest.fixture(scope="session")
def customer_points() -> pd.DataFrame:
    import pyarrow.parquet as pq
    from city2graph_ray.synth import key_to_xy

    keys = pq.read_table(f"{SF_DIR}/customer.parquet",
                         columns=["c_custkey"])["c_custkey"].to_numpy()
    x, y = key_to_xy(keys)
    return pd.DataFrame({"id": keys.astype(np.int64), "x": x, "y": y})


@pytest.fixture(scope="session")
def part_polys() -> pd.DataFrame:
    import pyarrow.parquet as pq
    from city2graph_ray.synth import grid_square_ring, part_grid_cell

    keys = pq.read_table(f"{SF_DIR}/part.parquet",
                         columns=["p_partkey"])["p_partkey"].to_numpy()
    col, row = part_grid_cell(keys)
    rings = grid_square_ring(col, row)
    return pd.DataFrame({"id": keys.astype(np.int64), "coords": list(rings)})


def oracle_df(name: str, sf_dir: str = SF_DIR) -> pd.DataFrame:
    """Evaluate the correctness gate's ``oracle_sql()[name]`` with
    DuckDB over the sf_dir tables: the one SQL oracle per query."""
    import duckdb

    import __ray_entry__

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")
    return con.execute(__ray_entry__.oracle_sql()[name]).df()


def brute_dist(pts: pd.DataFrame) -> np.ndarray:
    x = pts["x"].to_numpy()
    y = pts["y"].to_numpy()
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    return np.sqrt(dx * dx + dy * dy)
