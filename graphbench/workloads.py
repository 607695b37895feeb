"""The benchmark's workloads: documents on disk → graph layers, built
through the engine's public functions.

Every engine call goes through a module attribute
(``proximity.knn_graph``, not an imported name), so the tracer in
``graphbench.trace`` sees it.  The only code here that is not an engine
call is the glue that turns the extracted geometry table into the
engine's point / polygon / segment inputs and adds a partition key for
the checkpoint.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from city2graph_ray.ops import morphology, proximity
from city2graph_ray.sources import interleaved
from graphbench.gen import CORPUS

KNN_K = 8
PROXIMITY_RADIUS = 6.0
GROUP_CELL = 50.0
PROXIMITY_PARTS = 8
MORPH_RESOLUTION = 2.0
MORPH_PM_CAP = 25.0
CORPUS_RADIUS = 30.0
CORPUS_TILE = 62.5


def _of_kind(kind: str, with_coords: bool, id_col: str = "id"):
    """Extracted geometry rows of one kind → (id, x, y) or (id, coords),
    the id being the integer suffix of ``doc_id``."""
    def fn(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["kind"], kind))
        ids = pc.cast(pc.replace_substring_regex(
            t["doc_id"], pattern=r"^.*-", replacement=""), pa.int64())
        if with_coords:
            return pa.table({id_col: ids, "coords": t["coords"]})
        return pa.table({id_col: ids, "x": t["x"], "y": t["y"]})
    return fn


def _with_key(name: str, fn):
    def add(t: pa.Table) -> pa.Table:
        return t.append_column(name, pa.array(fn(t), pa.int64()))
    return add


def _geometry(docs_dir: str):
    docs = interleaved.read_documents(docs_dir)
    return docs, interleaved.extract_geometry_spans(docs).materialize()


def build_proximity(docs_dir: str) -> dict:
    _, geo = _geometry(docs_dir)
    pts = geo.map_batches(_of_kind("geom_point", False),
                          batch_format="pyarrow").materialize()
    polys = geo.map_batches(_of_kind("geom_building", True),
                            batch_format="pyarrow").materialize()
    knn = proximity.knn_graph(pts, KNN_K).materialize()
    return {
        "knn": knn,
        "radius": proximity.fixed_radius_graph(
            pts, PROXIMITY_RADIUS).materialize(),
        "queen": proximity.contiguity_graph(polys, "queen").materialize(),
        "groups": proximity.group_nodes(polys, pts,
                                        cell_size=GROUP_CELL).materialize(),
        # a few large partitions: the kNN edges split by source id, in
        # a fixed number of blocks (kNN's own block count follows its
        # escalation rounds)
        "checkpoint": knn.repartition(PROXIMITY_PARTS).map_batches(
            _with_key("part", lambda t: pc.bit_wise_and(
                t["src"], PROXIMITY_PARTS - 1)),
            batch_format="pyarrow").materialize(),
    }


def build_morphology(docs_dir: str) -> dict:
    _, geo = _geometry(docs_dir)
    buildings = geo.map_batches(_of_kind("geom_building", False),
                                batch_format="pyarrow").materialize()
    segments = geo.map_batches(_of_kind("geom_segment", True, "seg_id"),
                               batch_format="pyarrow").materialize()
    layers = morphology.morphological_graph(
        buildings, segments, resolution=MORPH_RESOLUTION,
        pm_max_distance=MORPH_PM_CAP)
    out = {name: ds.materialize() for name, ds in layers.items()}
    # one partition per enclosure
    out["checkpoint"] = out["tessellation"]
    return out


def build_corpus(docs_dir: str) -> dict:
    docs, geo = _geometry(docs_dir)
    spans = interleaved.rejoin_spans(docs, geo).materialize()
    pts = geo.map_batches(_of_kind("geom_point", False),
                          batch_format="pyarrow").materialize()
    tiles = int(np.ceil(CORPUS["extent"] / CORPUS_TILE))
    return {
        "spans": spans,
        "radius": proximity.fixed_radius_graph(
            pts, CORPUS_RADIUS).materialize(),
        # many small partitions: the span table split by map tile
        "checkpoint": spans.map_batches(
            _with_key("tile", lambda t: (
                np.floor(t["x"].to_numpy() / CORPUS_TILE) * tiles
                + np.floor(t["y"].to_numpy() / CORPUS_TILE)).astype(np.int64)),
            batch_format="pyarrow").materialize(),
    }


# name → (build function, edge layers counted by edges_per_s, checkpoint key)
WORKLOADS = {
    "proximity": (build_proximity, ("knn", "radius", "queen", "groups"),
                  "part"),
    "morphology": (build_morphology, ("segment_edges", "place_place",
                                      "movement_movement", "place_movement"),
                   "enclosure_index"),
    "corpus": (build_corpus, ("radius",), "tile"),
}
