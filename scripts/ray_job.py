"""Cluster job entrypoint — the ``ray job submit`` surface of the
north rule ("run via ray job submit on a fixed-size multi-node Ray
cluster").

Usage (multi-node cluster; RAY_ADDRESS set by the job runtime)::

    ray job submit --working-dir /root/repo -- \
        python scripts/ray_job.py --query doc_curation \
        --sf-dir /data/corpus --output /data/out/curation

or locally (owns its Ray session; the sandbox substitute for a
cluster)::

    python scripts/ray_job.py --query pt_knn --num-cpus 8

Every pipeline registered in ``__ray_entry__.queries()`` is runnable.
The result is checkpoint-written as partitioned Parquet via
``state.lineage.checkpointed_write`` (one part file and one manifest
per partition key, manifest-fingerprinted), so a re-submitted job skips
finished partitions — resume semantics on the job boundary, not just
inside a run.  Without ``--output`` the row count and schema are
printed (smoke mode).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--query", default=None,
                    help="pipeline name from __ray_entry__.queries()")
    ap.add_argument("--list", action="store_true",
                    help="print the registered pipeline names and exit")
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.01",
                    help="input table directory (parquet mirrors)")
    ap.add_argument("--output", default=None,
                    help="checkpointed parquet output root; omit to "
                         "smoke-run and print count+schema")
    ap.add_argument("--partition-col", default=None,
                    help="existing column to partition the sink by "
                         "(default: an 8-way hash of the first column)")
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="only for LOCAL runs; on a cluster the job "
                         "inherits the cluster's resources")
    args = ap.parse_args()

    if args.list:
        import __ray_entry__ as entrymod
        print("\n".join(sorted(entrymod.queries())))
        return 0
    if args.query is None:
        ap.error("--query is required (or use --list)")

    import ray

    if not ray.is_initialized():  # cluster jobs arrive pre-initialised
        kwargs = {"include_dashboard": False}
        if args.num_cpus is not None:
            kwargs.update(address="local", num_cpus=args.num_cpus)
        ray.init(**kwargs)

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    if args.query not in qs:
        print(f"unknown query {args.query!r}; available: "
              f"{', '.join(sorted(qs))}", file=sys.stderr)
        return 2

    t0 = time.time()
    res = qs[args.query](args.sf_dir)

    import pandas as pd
    import ray.data

    if not isinstance(res, ray.data.Dataset):
        res = ray.data.from_pandas(
            res if isinstance(res, pd.DataFrame) else res.to_pandas())

    if args.output is None:
        n = res.count()
        print(json.dumps({"query": args.query, "rows": n,
                          "schema": res.schema().names,
                          "sec": round(time.time() - t0, 3)}))
    else:
        from city2graph_ray.state.lineage import checkpointed_write

        part = args.partition_col
        if part is None:
            first = res.schema().names[0]

            def add_part(b: pd.DataFrame) -> pd.DataFrame:
                import numpy as np
                h = pd.util.hash_pandas_object(b[first], index=False)
                return b.assign(__part=(h.to_numpy(np.uint64)
                                        % np.uint64(8)).astype(np.int64))

            res = res.map_batches(add_part, batch_format="pandas")
            part = "__part"
        manifest = checkpointed_write(res, args.output, args.query, part,
                                      fingerprint=args.sf_dir)
        print(json.dumps({"query": args.query, "output": args.output,
                          "partitions": manifest["partitions"],
                          "skipped": manifest["skipped"],
                          "sec": round(time.time() - t0, 3)}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
