"""Turns a run's rounds into the metrics BENCHMARK.json declares.

The metric names and units come from BENCHMARK.json itself, so the
result line always carries exactly the declared metrics.  Per-layer
figures that are measured but not declared are written to standard
error, with every declared one, as a table.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def declared(kind: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)[kind]


def _median(values: list[float]) -> float:
    """Median; 0 when a run has no value because every attempt failed."""
    return statistics.median(values) if values else 0.0


def _pack(kind: str, values: dict[str, float]) -> dict:
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared(kind)}


def end_to_end(run, setup_s: float, first_build_s: float, peak_mb: float) -> dict:
    rounds = [r for r in run.rounds if not r.get("traced")]
    build_s = _median([r["build_s"] for r in rounds])
    edges = sum(run.counts.get(layer, 0) for layer in run.edge_layers)
    return _pack("end_to_end", {
        "setup_s": setup_s,
        "first_build_s": first_build_s,
        "build_s": build_s,
        "edges_per_s": edges / build_s if build_s else 0.0,
        "build_cpu_s": _median([r["build_cpu_s"] for r in rounds]),
        "checkpoint_write_s": _median([c["write_s"] for r in rounds
                                       for c in r["cycles"]]),
        "resume_s": _median([c["resume_s"] for r in rounds for c in r["cycles"]
                             if "resume" in c]),
        "driver_peak_rss_mb": peak_mb,
    })


def per_layer(run, layer_rounds: list[dict]) -> dict:
    values: dict[str, float] = {}
    names = sorted({q for r in layer_rounds for q in r})
    for q in names:
        for field in ("wall_s", "self_s", "cpu_s", "rows_out", "calls"):
            values[f"{q}.{field}"] = _median(
                [r.get(q, {}).get(field, 0.0) for r in layer_rounds])
    traced = [r for r in run.rounds if r.get("traced")]
    plain = [r for r in run.rounds if not r.get("traced")]
    for phase in ("write", "resume"):
        done = [c[phase] for r in traced for c in r["cycles"] if phase in c]
        pre = f"state.lineage.checkpointed_write.{phase}."
        values[pre + "partitions_written"] = _median(
            [s["partitions"] - s["skipped"] for s in done])
        values[pre + "partitions_skipped"] = _median([s["skipped"] for s in done])
        values[pre + "bytes_written"] = _median([s["bytes"] for s in done])
    values["trace.overhead_s"] = (_median([r["build_s"] for r in traced])
                                  - _median([r["build_s"] for r in plain]))
    names = {m["name"] for m in declared("per_layer")}
    for name in sorted(values):
        mark = " " if name in names else "-"
        print(f"graphbench: layer {mark} {name:70s} {values[name]:.6g}",
              file=sys.stderr)
    return _pack("per_layer", values)
