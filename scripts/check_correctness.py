"""Mimic the driver's correctness gate: run each queries()[name](sf_dir)
and oracle_sql()[name] side-by-side, compare row count + schema +
order-insensitive values (columns sorted by name, rows sorted).

Usage: python scripts/check_correctness.py [--changed] [sf_dir] [name ...]

``--changed`` (VERDICT r3 #7, sweep-cost control): run only queries
whose FINGERPRINT differs from the last green run recorded in
``scripts/sweep_manifest.json``.  A query's fingerprint hashes its
oracle SQL, its ``queries()`` callable source, and the contents of
every ``city2graph_ray`` module that source imports (transitively via
the package's static import graph).  Every green query updates the
manifest, so sessions certify incrementally; the uninterrupted full
sweep stays a per-session event.  Each fingerprint also folds in a
hash of ``__ray_entry__.py`` itself (r5): editing shared entry-file
helpers (synth constants, CTE strings, flatteners) invalidates every
query, forcing the full re-sweep the old manual caveat relied on.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import logging
import os
import re
import sys
import time

import duckdb
import numpy as np
import pandas as pd
import ray

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

MANIFEST = os.path.join(os.path.dirname(__file__), "sweep_manifest.json")
_IMP_RE = re.compile(r"^\s*(?:from|import)\s+(city2graph_ray[.\w]*)",
                     re.M)


def _dep_closure() -> tuple[dict, dict]:
    """Static import graph of the package: module-file → transitive
    set of module-files it imports, plus per-file content hashes."""
    pkg = os.path.join(ROOT, "city2graph_ray")
    texts: dict[str, str] = {}
    for root, _dirs, names in os.walk(pkg):
        for nm in names:
            if nm.endswith(".py"):
                p = os.path.join(root, nm)
                texts[p] = open(p, encoding="utf-8").read()
    mod_of: dict[str, str] = {}
    for p in texts:
        rel = os.path.relpath(p, ROOT)[:-3]
        mod = rel.replace(os.sep, ".")
        if mod.endswith(".__init__"):
            mod = mod[: -len(".__init__")]
        mod_of[mod] = p
    direct: dict[str, set] = {p: set() for p in texts}
    for p, text in texts.items():
        for m in _IMP_RE.findall(text):
            while m and m not in mod_of:
                m = m.rsplit(".", 1)[0] if "." in m else ""
            if m:
                direct[p].add(mod_of[m])
    closure: dict[str, set] = {}

    def dfs(p: str, seen: set) -> set:
        if p in closure:
            return closure[p]
        seen.add(p)
        acc = {p}
        for q in direct.get(p, ()):
            if q not in seen:
                acc |= dfs(q, seen)
            else:
                acc.add(q)
        closure[p] = acc
        return acc

    for p in texts:
        dfs(p, set())
    hashes = {p: hashlib.sha256(t.encode()).hexdigest()
              for p, t in texts.items()}
    return {m: closure[p] for m, p in mod_of.items()}, hashes


def query_fingerprint(fn, sql: str | None, mod_closure: dict,
                      file_hashes: dict, entry_hash: str = "") -> str:
    try:
        src = inspect.getsource(fn)
    except (OSError, TypeError):
        src = repr(fn)
    dep_files: set = set()
    for m in _IMP_RE.findall(src):
        while m and m not in mod_closure:
            m = m.rsplit(".", 1)[0] if "." in m else ""
        if m:
            dep_files |= mod_closure[m]
    h = hashlib.sha256()
    h.update(src.encode())
    h.update((sql or "<rows-only>").encode())
    # every fingerprint includes __ray_entry__.py itself (ADVICE r4):
    # module-level helpers / synth constants / shared CTE strings used
    # by closures are not visible in the callable's own source, so an
    # entry-file edit must invalidate the whole manifest — the cost is
    # one full sweep after entry edits, which the old caveat demanded
    # manually.
    h.update(entry_hash.encode())
    for p in sorted(dep_files):
        h.update(file_hashes[p].encode())
    return h.hexdigest()


def to_df(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data
    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> str:
    if len(ray_df) != len(sql_df):
        return f"ROWS {len(ray_df)} vs {len(sql_df)}"
    a, b = canon(ray_df), canon(sql_df)
    if list(a.columns) != list(b.columns):
        return f"SCHEMA {list(a.columns)} vs {list(b.columns)}"
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        # The driver's value-hash is typed: an int64 Ray column vs a
        # float64 oracle column (DuckDB HUGEINT -> pandas float) hash
        # differently even when numerically identical. Fail on kind
        # divergence so untyped SUM()/COUNT() oracles can't pass here
        # and then red-flag at the driver (round-3 lesson).
        if av.dtype.kind != bv.dtype.kind:
            return f"DTYPE[{c}] {av.dtype} vs {bv.dtype}"
        if av.dtype.kind == "f":
            if not np.allclose(av, bv, rtol=0, atol=0, equal_nan=True):
                bad = np.nonzero(av != bv)[0][:3]
                return f"VALUES[{c}] e.g. {av[bad]} vs {bv[bad]}"
        else:
            if not (av == bv).all():
                bad = np.nonzero(av != bv)[0][:3]
                return f"VALUES[{c}] e.g. {av[bad]} vs {bv[bad]}"
    return "OK"


def main():
    argv = [a for a in sys.argv[1:]]
    changed_only = "--changed" in argv
    if changed_only:
        argv.remove("--changed")
    sf_dir = argv[0] if argv else "/root/testdata/sf0.01"
    only = set(argv[1:])

    ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    mod_closure, file_hashes = _dep_closure()
    entry_hash = hashlib.sha256(
        open(entrymod.__file__, "rb").read()).hexdigest()
    fps = {name: query_fingerprint(fn, oracles.get(name), mod_closure,
                                   file_hashes, entry_hash)
           for name, fn in qs.items()}
    manifest: dict = {}
    if os.path.exists(MANIFEST):
        manifest = json.load(open(MANIFEST))
    if changed_only:
        skip = {n for n, fp in fps.items()
                if manifest.get(n, {}).get("fingerprint") == fp}
        print(f"--changed: {len(qs) - len(skip)} stale, "
              f"{len(skip)} green-at-fingerprint (skipped)")
    else:
        skip = set()

    n_ok = n_bad = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        if name in skip:
            continue
        t0 = time.time()
        try:
            ray_df = to_df(fn(sf_dir))
        except Exception as e:
            print(f"{name:28s} RAY-ERROR {type(e).__name__}: {e}")
            n_bad += 1
            manifest.pop(name, None)
            continue
        t_ray = time.time() - t0
        if name not in oracles:
            print(f"{name:28s} rows-only rows={len(ray_df)} ray={t_ray:.1f}s")
            n_ok += 1
            manifest[name] = {"fingerprint": fps[name],
                              "commit": _head(), "mode": "rows-only"}
            continue
        t0 = time.time()
        try:
            sql_df = con.sql(oracles[name]).df()
        except Exception as e:
            print(f"{name:28s} SQL-ERROR {type(e).__name__}: {e}")
            n_bad += 1
            manifest.pop(name, None)
            continue
        verdict = compare(name, ray_df, sql_df)
        status = "OK " if verdict == "OK" else "FAIL"
        if verdict == "OK":
            n_ok += 1
            manifest[name] = {"fingerprint": fps[name],
                              "commit": _head(), "mode": "bit-exact"}
        else:
            n_bad += 1
            manifest.pop(name, None)
        print(f"{name:28s} {status} rows={len(ray_df)} ray={t_ray:.1f}s "
              f"sql={time.time()-t0:.1f}s {'' if verdict=='OK' else verdict}")
    json.dump(manifest, open(MANIFEST, "w"), indent=1, sort_keys=True)
    print(f"\n{n_ok} ok, {n_bad} bad")
    ray.shutdown()
    sys.exit(1 if n_bad else 0)


_HEAD_CACHE: list = []


def _head() -> str:
    if not _HEAD_CACHE:
        import subprocess
        try:
            _HEAD_CACHE.append(subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True).stdout.strip())
        except OSError:
            _HEAD_CACHE.append("unknown")
    return _HEAD_CACHE[0]


if __name__ == "__main__":
    main()
