#!/bin/bash
# Simulated multi-node Ray cluster evidence (VERDICT r4 #1): one head
# raylet + (NODES-1) worker raylets on this host, each with its OWN
# object store — cross-node object transfer, locality scheduling and
# every ray.put-broadcast assumption run over the real object-manager
# path (loopback TCP) instead of the single-process shortcut.
#
# Usage:  scripts/multinode_bench.sh [suite|query <name> <sf_dir>|job]
#   suite  - bench.py headline suite against the cluster (default)
#   query  - one __ray_entry__ query against the cluster
#   job    - scripts/ray_job.py checkpointed write + resume
#
# Env: NODES (4), CPUS_PER_NODE (8), OBJ_STORE_GB (8)
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH=$PWD         # worker raylets inherit this; on a real
                               # multi-node cluster working_dir does it
NODES=${NODES:-4}
CPUS=${CPUS_PER_NODE:-8}
OBJ=${OBJ_STORE_GB:-8}
PORT=${PORT:-6379}
ADDR=127.0.0.1:$PORT

# The cluster keeps its sessions in a private temp dir (worker raylets
# read it from the head), so cleanup stops exactly the processes whose
# command line names it, not every Ray process on the host.
RAY_TMP=$(mktemp -d "${TMPDIR:-/tmp}/c2g_multinode.XXXXXX")
cleanup() {
  pkill -KILL -f -- "$RAY_TMP" 2>/dev/null || true
  rm -rf "$RAY_TMP"
}
trap cleanup EXIT

ray start --head --num-cpus="$CPUS" --port="$PORT" --temp-dir="$RAY_TMP" \
    --object-store-memory=$((OBJ * 1073741824)) \
    --include-dashboard=false >/dev/null 2>&1
for _ in $(seq 2 "$NODES"); do
  ray start --address="$ADDR" --num-cpus="$CPUS" \
      --object-store-memory=$((OBJ * 1073741824)) >/dev/null 2>&1
done

export RAY_ADDRESS=$ADDR
export RAY_GRAFT_ADDRESS=$ADDR
export RAY_GRAFT_CPUS=$((NODES * CPUS))

python - "$NODES" <<'EOF'
import sys

import ray
ray.init(address="auto", logging_level="ERROR")
nodes = [n for n in ray.nodes() if n["Alive"]]
cpus = sum(int(n["Resources"].get("CPU", 0)) for n in nodes)
stores = {n["ObjectStoreSocketName"] for n in nodes}
print(f"cluster: {len(nodes)} raylets, {cpus} CPUs total, "
      f"{len(stores)} object stores")
want = int(sys.argv[1])
assert len(nodes) == want and len(stores) == want, \
    f"expected {want} raylets with distinct object stores"
ray.shutdown()
EOF

case "${1:-suite}" in
  suite)
    python bench.py
    ;;
  query)
    python - "$2" "${3:-/root/testdata/sf0.01}" <<'EOF'
import json, sys, time
import ray
ray.init(address="auto", logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import logging; logging.getLogger("ray.data").setLevel(logging.ERROR)
import __ray_entry__ as E
name, sf = sys.argv[1], sys.argv[2]
t0 = time.time()
res = E.queries()[name](sf)
import pandas as pd, ray.data
if isinstance(res, ray.data.Dataset):
    df = res.to_pandas()
elif not isinstance(res, pd.DataFrame):
    df = res.to_pandas()
else:
    df = res
import hashlib
canon = df[sorted(df.columns)].copy()
for c in canon.columns:
    if canon[c].dtype == object:
        canon[c] = canon[c].astype(str)
canon = canon.sort_values(list(canon.columns), kind="stable")
h = hashlib.sha256(pd.util.hash_pandas_object(canon, index=False)
                   .to_numpy().tobytes()).hexdigest()[:16]
print(json.dumps({"query": name, "sf": sf, "rows": len(df),
                  "value_hash": h, "sec": round(time.time() - t0, 3)}))
ray.shutdown()
EOF
    ;;
  job)
    OUT=/tmp/graft_mn_job_$$
    python scripts/ray_job.py --query pt_knn --sf-dir /root/testdata/sf0.01 \
        --output "$OUT"
    echo "--- resume (should skip all partitions) ---"
    python scripts/ray_job.py --query pt_knn --sf-dir /root/testdata/sf0.01 \
        --output "$OUT"
    rm -rf "$OUT"
    ;;
  *)
    echo "unknown mode $1" >&2; exit 2;;
esac
