"""broadcast_map: the one way the engine ships a broadcast state to a
per-batch stage (state put once, prepared once per worker process, run
as plain tasks)."""

from __future__ import annotations

import ast
import os
import uuid
from pathlib import Path

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from city2graph_ray.joins import broadcast_map

PKG = Path(__file__).resolve().parents[1] / "city2graph_ray"


def _alive_map_workers() -> list[str]:
    # GCS actor table; ray.util.state.list_actors needs the dashboard,
    # which the test session does not start
    import ray._private.state as gcs
    return [a["ActorClassName"] for a in gcs.actors().values()
            if a["State"] == "ALIVE"
            and a["ActorClassName"].startswith("MapWorker")]


def test_prepare_runs_once_per_worker_process():
    def tag_pid(batch: pd.DataFrame, token: str) -> pd.DataFrame:
        return pd.DataFrame({"pid": np.full(len(batch), os.getpid()),
                             "token": [token] * len(batch)})

    out = broadcast_map(rd.range(256, override_num_blocks=32), 0, tag_pid,
                        prepare=lambda _: uuid.uuid4().hex).to_pandas()
    assert len(out) == 256
    assert out["token"].nunique() == out["pid"].nunique()
    assert (out.groupby("pid")["token"].nunique() == 1).all()


def test_object_ref_state_is_used_as_is():
    arr = np.arange(5, dtype=np.int64)
    ref = ray.put(arr)

    def probe(batch: pd.DataFrame, state) -> pd.DataFrame:
        from city2graph_ray import joins
        return pd.DataFrame({
            "is_array": [isinstance(state, np.ndarray)] * len(batch),
            "total": [int(np.sum(state))] * len(batch),
            "keyed_by_ref": [any(k[0] == ref.binary()
                                 for k in joins._PREPARED)] * len(batch)})

    out = broadcast_map(rd.range(8, override_num_blocks=4), ref,
                        probe).to_pandas()
    assert out["is_array"].all()
    assert (out["total"] == arr.sum()).all()
    assert out["keyed_by_ref"].all()


def test_same_ref_with_two_prepares_gets_each_its_own():
    ref = ray.put(np.arange(4, dtype=np.int64))

    def emit(batch: pd.DataFrame, v) -> pd.DataFrame:
        return pd.DataFrame({"v": [int(v)] * len(batch)})

    ds = rd.range(8, override_num_blocks=4)
    total = broadcast_map(ds, ref, emit, prepare=np.sum).to_pandas()
    peak = broadcast_map(ds, ref, emit, prepare=np.max).to_pandas()
    assert (total["v"] == 6).all() and (peak["v"] == 3).all()


def test_no_map_actor_outlives_a_broadcast_stage():
    before = _alive_map_workers()

    def add_offset(batch: pd.DataFrame, off: int) -> pd.DataFrame:
        return batch.assign(id=batch["id"] + off)

    out = broadcast_map(rd.range(64, override_num_blocks=8), 10,
                        add_offset).to_pandas()
    assert sorted(out["id"]) == list(range(10, 74))
    after = _alive_map_workers()
    assert not [a for a in after if "add_offset" in a]
    assert len(after) <= len(before)


def test_no_engine_stage_passes_a_class_to_map_batches():
    allowed = {PKG / "media" / "stages.py", PKG / "text" / "blocklist.py"}
    bad = []
    for path in sorted(PKG.rglob("*.py")):
        if path in allowed:
            continue
        tree = ast.parse(path.read_text())
        classes = {n.name for n in ast.walk(tree)
                   if isinstance(n, ast.ClassDef)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "map_batches"):
                continue
            first = node.args[0] if node.args else None
            kws = {k.arg for k in node.keywords}
            if ((isinstance(first, ast.Name) and first.id in classes)
                    or kws & {"concurrency", "fn_constructor_args",
                              "fn_constructor_kwargs"}):
                bad.append(f"{path.relative_to(PKG)}:{node.lineno}")
    assert not bad, bad


def test_memo_prepares_once_under_threads():
    import sys
    import threading

    from city2graph_ray import joins

    ref = ray.put(np.arange(3))
    key = (ref.binary(), "once")
    calls = []

    def prepare(state):
        calls.append(1)
        return object()

    seen = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: joins._run_prepared(
            lambda _, v: seen.append(v), None, ref, key, prepare))
            for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 1
    assert len(seen) == 16 and len({id(v) for v in seen}) == 1


def test_memo_is_lru_and_drops_idle_states(monkeypatch):
    import time

    from city2graph_ray import joins

    monkeypatch.setattr(joins, "_PREPARED_IDLE_S", 1.0)
    joins._PREPARED.clear()
    refs = [ray.put(i) for i in range(joins._PREPARED_MAX + 1)]
    keys = [(r.binary(), None) for r in refs]

    def use(i):
        return joins._run_prepared(lambda _, v: v, None, refs[i], keys[i],
                                   None)

    for i in range(joins._PREPARED_MAX):
        use(i)
    use(0)                                   # 0 becomes most recent
    use(joins._PREPARED_MAX)                 # evicts 1, the least recent
    assert keys[0] in joins._PREPARED and keys[1] not in joins._PREPARED
    assert len(joins._PREPARED) == joins._PREPARED_MAX

    deadline = time.monotonic() + 10
    while joins._PREPARED and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not joins._PREPARED
