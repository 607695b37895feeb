"""Benchmark of the spatial-graph engine.

    python3 graphbench/run.py --workload proximity --seed 1 --seconds 10 --trace 0

Generates the workload's documents from the seed (``graphbench/gen.py``,
in a child process), starts a Ray session sized to the machine, builds
the workload's graph layers once cold and then in rounds for
``--seconds``.  Each round builds, writes the checkpointed table through
``state.lineage``, removes a quarter of its partitions and resumes it.
Every output is checked against computations made apart from the engine
(``graphbench/checks.py``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of BENCHMARK.json, or with ``--trace 1`` its
per-layer metrics).  See graphbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "graphbench")
WORKLOADS = ("proximity", "morphology", "corpus")
CHILD_ENV = "GRAPHBENCH_CHILD"
RUN_TIMEOUT_S = 170.0
# Unix socket paths under Ray's temp dir must stay below 108 bytes.
RAY_TMP_MAX = 40
OBJECT_STORE_BYTES = 512 * 1024 * 1024
# Checkpoint write-and-resume cycles per round.  A cycle takes about a
# second or less, so one per round would leave their medians noisy;
# morphology, with one 20 s build per run, gets the most.
CYCLES = {"proximity": 3, "morphology": 7, "corpus": 3}


def _thread_env(env: dict) -> dict:
    from graphbench.proc import nproc
    n = str(nproc())
    return dict(env, OMP_NUM_THREADS=n, OPENBLAS_NUM_THREADS=n,
                MKL_NUM_THREADS=n, ARROW_NUM_THREADS=n)


# ------------------------------------------------------------ supervisor

def _reap_all(grace_s: float = 5.0, limit_s: float = 30.0) -> list[int]:
    """Wait until no process below this one is left: after ``grace_s``
    they are sent SIGTERM, after twice that SIGKILL.  Returns the pids
    that were still there at ``limit_s``."""
    from graphbench.proc import descendants
    t0 = time.monotonic()
    while True:
        while True:
            try:
                if os.waitpid(-1, os.WNOHANG)[0] == 0:
                    break
            except ChildProcessError:
                break
        left = descendants(os.getpid())
        waited = time.monotonic() - t0
        if not left or waited > limit_s:
            return left
        if waited > grace_s:
            sig = signal.SIGKILL if waited > 2 * grace_s else signal.SIGTERM
            for pid in left:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)


def supervise(args) -> int:
    """Generate the inputs, run the measured driver in a child process
    and make sure every process of the run is gone before printing."""
    sys.path.insert(0, ROOT)
    from graphbench.proc import process_start_monotonic
    t0 = process_start_monotonic()
    if not os.path.isfile(os.path.join(ROOT, "city2graph_ray", "__init__.py")):
        print(f"graphbench: no engine at {ROOT}/city2graph_ray", file=sys.stderr)
        return 2
    # orphans of the run (Ray's processes after their parent exits)
    # are re-parented here, so they can be waited for
    ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    runs = os.path.join(ROOT, ".bench_run")
    os.makedirs(runs, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=runs)
    ray_tmp = os.path.join(runs, f"r{os.getpid()}")
    if len(ray_tmp) > RAY_TMP_MAX:
        ray_tmp = tempfile.mkdtemp(prefix="gb")
    result, code = None, 1

    def interrupted(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGINT, interrupted)
    child = None
    try:
        g0 = time.monotonic()
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--out", os.path.join(work, "in")],
                       check=True, timeout=120, cwd=ROOT,
                       env=_thread_env(os.environ))
        gen_s = time.monotonic() - g0
        env = dict(os.environ, **{CHILD_ENV: "1"}, GRAPHBENCH_T0=repr(t0),
                   GRAPHBENCH_GEN_S=repr(gen_s), GRAPHBENCH_WORK=work,
                   GRAPHBENCH_RAY_TMP=ray_tmp)
        child = subprocess.Popen([sys.executable, os.path.abspath(__file__),
                                  *sys.argv[1:]],
                                 cwd=ROOT, env=env, stdout=sys.stderr,
                                 start_new_session=True)
        try:
            code = child.wait(timeout=RUN_TIMEOUT_S - (time.monotonic() - t0))
        except subprocess.TimeoutExpired:
            print("graphbench: run timed out", file=sys.stderr)
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        path = os.path.join(work, "result.json")
        if os.path.exists(path):
            with open(path) as f:
                result = json.load(f)
    except (subprocess.SubprocessError, OSError) as e:
        print(f"graphbench: {e}", file=sys.stderr)
    finally:
        if child is not None and child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        left = _reap_all()
        if left:
            print(f"graphbench: processes {left} outlived the run", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
        try:
            os.rmdir(runs)
        except OSError:
            pass
    if result is None:
        print(f"graphbench: the run ended with code {code} and no result",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------ measured driver

class _WarmActor:
    """Actor-pool warm-up: the engine's operators run some stages on
    Ray Data actor pools."""

    def __call__(self, batch):
        return _warm_batch(batch)


def _warm_batch(batch):
    """Worker warm-up: import the engine's layers in the worker."""
    import city2graph_ray.exchange  # noqa: F401
    import city2graph_ray.ops.morphology  # noqa: F401
    import city2graph_ray.ops.proximity  # noqa: F401
    import city2graph_ray.sources.interleaved  # noqa: F401
    import city2graph_ray.state.lineage  # noqa: F401
    return batch


def start_session(ray_tmp: str):
    import logging

    import ray
    import ray.data
    from graphbench.proc import nproc
    ray.init(address="local", num_cpus=nproc(),
             object_store_memory=OBJECT_STORE_BYTES, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False, _temp_dir=ray_tmp)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    (ray.data.range(256, override_num_blocks=4)
     .map_batches(_warm_batch, batch_format="pyarrow")
     .map_batches(_WarmActor, batch_format="pyarrow", concurrency=(1, 2))
     .groupby("id").count().materialize())


def to_table(ds):
    import pyarrow as pa
    batches = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    return pa.concat_tables(batches, promote_options="default") if batches else None


def check_outputs(name: str, tables: dict, truth, in_dir: str) -> list[str]:
    import pyarrow.parquet as pq

    from graphbench import checks, workloads as wl
    if name == "proximity":
        ids, xs, ys = truth["pt_id"], truth["pt_x"], truth["pt_y"]
        b = (truth["bldg_id"], truth["bldg_col"], truth["bldg_row"])
        return (checks.check_knn(tables["knn"], ids, xs, ys, wl.KNN_K)
                + checks.check_radius(tables["radius"], ids, xs, ys,
                                      wl.PROXIMITY_RADIUS)
                + checks.check_queen(tables["queen"], *b)
                + checks.check_groups(tables["groups"], ids, xs, ys, *b,
                                      float(truth["side"])))
    if name == "morphology":
        return checks.check_morphology(tables, truth, wl.MORPH_RESOLUTION,
                                       wl.MORPH_PM_CAP)
    docs = pq.read_table(os.path.join(in_dir, "docs"))
    ids, xs, ys = truth["geo_id"], truth["geo_x"], truth["geo_y"]
    return (checks.check_corpus(tables["spans"], docs, ids, xs, ys)
            + checks.check_radius(tables["radius"], ids, xs, ys,
                                  wl.CORPUS_RADIUS))


class Run:
    """One measured run: the counters, the per-round figures and the
    failures found."""

    def __init__(self, args, work: str):
        import numpy as np

        from graphbench import proc, workloads
        self.args = args
        self.build, self.edge_layers, self.key = workloads.WORKLOADS[args.workload]
        self.in_dir = os.path.join(work, "in")
        self.ck_root = os.path.join(work, "ckpt")
        self.truth = np.load(os.path.join(self.in_dir, "truth.npz"))
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.rounds: list[dict] = []
        self.counts: dict[str, int] = {}
        self.cpu = proc.CpuMeter()
        self.slots = proc.nproc()
        self.cycles = CYCLES[args.workload]

    def _op(self, what: str, fn):
        """Attempt one operation; a failure is counted and logged and the
        run goes on."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.failed += 1
            print(f"graphbench: {what} failed\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None

    def settle(self, timeout_s: float = 30.0) -> None:
        """Wait, untimed, until every slot of the session is free.

        An actor pool of a finished Ray Data execution keeps its slot
        until the driver's garbage collector drops the pool's handles;
        without this, whether the next timed operation first waits for
        that slot would depend on when the collector last ran."""
        import gc

        import ray
        gc.collect()
        t = time.monotonic()
        while (ray.available_resources().get("CPU", 0) < self.slots
               and time.monotonic() - t < timeout_s):
            time.sleep(0.02)

    def _check(self, fn) -> None:
        """Run a check; a check that raises counts as a failed one."""
        try:
            msgs = fn()
        except Exception:
            msgs = [f"check raised\n{traceback.format_exc()}"]
        self._fail(msgs)

    def _fail(self, msgs: list[str]) -> None:
        for m in msgs:
            print(f"graphbench: CHECK FAILED: {m}", file=sys.stderr)
        self.errors += msgs

    def cold_build(self) -> float:
        self.settle()
        t = time.perf_counter()
        out = self._op("cold build", lambda: self.build(os.path.join(self.in_dir, "docs")))
        elapsed = time.perf_counter() - t
        if out is not None:
            self.counts = {k: v.count() for k, v in out.items()}
            self._check(lambda: check_outputs(
                self.args.workload, {k: to_table(v) for k, v in out.items()},
                self.truth, self.in_dir))
        return elapsed

    def round(self, i: int) -> None:
        """A warm build, then ``CYCLES[workload]`` checkpoint
        write-and-resume cycles of its checkpointed table."""
        self.settle()
        c0, t = self.cpu.total_s(), time.perf_counter()
        out = self._op("build", lambda: self.build(os.path.join(self.in_dir, "docs")))
        rec = {"build_s": time.perf_counter() - t,
               "build_cpu_s": self.cpu.total_s() - c0, "cycles": []}
        if out is None:
            self.attempted += 2 * self.cycles
            self.failed += 2 * self.cycles
            return
        counts = {k: v.count() for k, v in out.items()}
        if counts != self.counts:
            self._fail([f"round {i}: row counts {counts} differ from the cold "
                        f"build's {self.counts}"])
        for c in range(self.cycles):
            cycle = self._checkpoint_cycle(i, c, out["checkpoint"])
            if cycle:
                rec["cycles"].append(cycle)
        self.rounds.append(rec)
        print(f"graphbench: round {i}: build_s={rec['build_s']:.3f} "
              f"build_cpu_s={rec['build_cpu_s']:.3f} " + " ".join(
                  f"write_s={c['write_s']:.3f} resume_s={c.get('resume_s', 0):.3f}"
                  for c in rec["cycles"]), file=sys.stderr)

    def _checkpoint_cycle(self, i: int, c: int, table) -> dict | None:
        """Write ``table`` as checkpoint ``stage``, remove a quarter of its
        partitions (part file and manifest, as an interrupted write
        leaves them), then resume the write and read it back."""
        import numpy as np

        from city2graph_ray.state import lineage
        from graphbench import checks
        fp, stage = f"{self.args.workload}-{self.args.seed}", f"r{i}c{c}"
        self.settle()
        t = time.perf_counter()
        first = self._op("checkpoint write", lambda: lineage.checkpointed_write(
            table, self.ck_root, stage, self.key, fingerprint=fp))
        cycle = {"write_s": time.perf_counter() - t, "write": first}
        if first is None:
            self.attempted += 1
            self.failed += 1
            return None
        stage_dir = os.path.join(self.ck_root, stage)
        keys = sorted(f[:-5] for f in os.listdir(os.path.join(stage_dir, "_manifest"))
                      if f.endswith(".json"))
        rng = np.random.default_rng([self.args.seed, i, c])
        removed = set(rng.choice(keys, max(1, len(keys) // 4), replace=False).tolist())
        for k in removed:
            os.remove(os.path.join(stage_dir, f"part-{k}.parquet"))
            os.remove(os.path.join(stage_dir, "_manifest", f"{k}.json"))
        self.settle()
        since = time.time()

        def resume():
            summary = lineage.checkpointed_write(table, self.ck_root, stage,
                                                 self.key, fingerprint=fp)
            return summary, lineage.load_checkpoint(self.ck_root, stage).materialize()

        t = time.perf_counter()
        res = self._op("resume", resume)
        cycle["resume_s"] = time.perf_counter() - t
        if res is not None:
            summary, loaded = res
            cycle["resume"] = summary

            def verify() -> list[str]:
                rewritten = set()
                for k in keys:
                    with open(os.path.join(stage_dir, "_manifest", f"{k}.json")) as f:
                        if json.load(f)["written_at"] >= since:
                            rewritten.add(k)
                errs = checks.check_resume(removed, rewritten, summary, len(keys))
                if loaded.count() != table.count():
                    errs.append(f"resume: {loaded.count()} rows loaded, "
                                f"{table.count()} built")
                elif i == 0 and c == 0:
                    errs += checks.same_multiset(to_table(table), to_table(loaded))
                return errs

            self._check(verify)
        shutil.rmtree(stage_dir, ignore_errors=True)
        return cycle


def measure(args) -> dict:
    t0 = float(os.environ["GRAPHBENCH_T0"])
    gen_s = float(os.environ["GRAPHBENCH_GEN_S"])
    work = os.environ["GRAPHBENCH_WORK"]
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)

    from graphbench import proc, workloads  # noqa: F401  (imports the engine)
    from graphbench.trace import Tracer
    start_session(os.environ["GRAPHBENCH_RAY_TMP"])
    setup_s = time.monotonic() - t0 - gen_s

    import ray
    host0, wall0 = proc.host_cpu(), time.monotonic()
    run = Run(args, work)
    tracer = Tracer(run.cpu) if args.trace else None
    if tracer:
        tracer.install()
    first_build_s = run.cold_build()
    layer_rounds: list[dict] = []
    begin = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - begin
        # a traced run spends its first half untraced, for the overhead
        traced = bool(tracer) and (elapsed >= args.seconds / 2 and i > 0)
        if tracer:
            tracer.active = traced
        done = len(run.rounds)
        run.round(i)
        if len(run.rounds) > done:
            run.rounds[-1]["traced"] = traced
        if traced:
            layer_rounds.append(tracer.take())
        i += 1
        if time.perf_counter() - begin >= args.seconds and (
                not tracer or layer_rounds):
            break
    if tracer:
        tracer.uninstall()
    peak = proc.peak_rss_mb()
    ray.shutdown()
    (busy, steal), wall = proc.host_cpu(), time.monotonic() - wall0
    print(f"graphbench: host load over the run: {(busy - host0[0]) / wall:.2f} "
          f"busy CPUs, {(steal - host0[1]) / wall:.2f} stolen, of "
          f"{len(os.sched_getaffinity(0))}", file=sys.stderr)

    from graphbench.report import end_to_end, per_layer
    if args.trace:
        metrics = per_layer(run, layer_rounds)
    else:
        metrics = end_to_end(run, setup_s, first_build_s, peak)
    return {"correct": not run.errors and bool(run.rounds),
            "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if os.environ.get(CHILD_ENV) != "1":
        return supervise(args)
    result = measure(args)
    path = os.path.join(os.environ["GRAPHBENCH_WORK"], "result.json")
    with open(path + ".tmp", "w") as f:
        json.dump(result, f)
    os.replace(path + ".tmp", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
