"""Driver-RSS evidence for the distributed enclosure polygonizer
(VERDICT r2 #1 done-criterion): run compute_enclosures over a street
grid at 1x and ~10x segment counts in fresh processes and report the
driver's max RSS — flat RSS across the 10x step shows the barrier
coordinate rows never land on the driver.

Usage: python scripts/enclosure_rss.py [grid1 grid2]   (default 90 285)
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys

CHILD = r"""
import json, resource, sys, time
import numpy as np, pandas as pd
import ray, ray.data as rd
ray.init(address="local", num_cpus=16, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from city2graph_ray import budget
from city2graph_ray.ops.morphology import compute_enclosures

n = int(sys.argv[1])
# n x n cell grid: horizontal + vertical unit segments
ids, coords = [], []
k = 0
for r in range(n + 1):
    for c in range(n):
        ids.append(k); k += 1
        coords.append(np.array([c * 10., r * 10., c * 10. + 10., r * 10.]))
for r in range(n):
    for c in range(n + 1):
        ids.append(k); k += 1
        coords.append(np.array([c * 10., r * 10., c * 10., r * 10. + 10.]))
segs = pd.DataFrame({"seg_id": np.array(ids, np.int64), "coords": coords})
t0 = time.time()
budget.DRIVER_BYTES = 0  # every gate takes its distributed branch
ref = compute_enclosures(rd.from_pandas(segs))
# consume the ref the way pipelines do: in a task, never on the driver
n_enc = ray.get(ray.remote(lambda enc: len(enc)).remote(ref))
del ref
elapsed = time.time() - t0
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"grid": n, "segments": len(segs), "enclosures": n_enc,
                  "driver_rss_mb": round(rss_mb, 1),
                  "sec": round(elapsed, 1)}))
ray.shutdown()
"""


def main() -> None:
    grids = [int(a) for a in sys.argv[1:3]] or [90, 285]
    for g in grids:
        out = subprocess.run(
            [sys.executable, "-c", CHILD, str(g)],
            capture_output=True, text=True, cwd="/root/repo",
            env={"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin",
                 "HOME": "/root", "RAY_ADDRESS": "local"})
        line = [ln for ln in out.stdout.splitlines() if ln.startswith("{")]
        if not line:
            print(out.stdout[-2000:], out.stderr[-2000:])
            sys.exit(1)
        print(line[-1])


if __name__ == "__main__":
    main()
