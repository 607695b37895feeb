"""city2graph_ray — a Ray-Data-native spatial-graph + data-processing engine.

From-scratch reimplementation of the query/transform semantics of
``yu-ta-sato/city2graph`` (reference at /root/reference, studied for
behavior only) as streaming Ray Data pipelines over Arrow batches:

- geometry lives in Arrow-native columns (points as ``x``/``y`` doubles,
  lines/rings as ``list<double>`` interleaved coords; WKB/WKT only at the
  ingress/egress boundary),
- spatial locality is explicit: every geometry row gets a grid cell id
  (H3/S2 stand-in, :mod:`city2graph_ray.cells`); "near each other"
  operators are cell-bucketed ``groupby`` shuffles with neighbor-cell
  halo duplication and hot-cell salting,
- stateful stages (per-tile KD-style indexes, reachability fields) go
  through :func:`city2graph_ray.joins.broadcast_map`: the state is put
  once per call, prepared once per worker process (a fixed-size memo
  that drops states idle for a few seconds), and the stages run as
  plain tasks that give their slot back,
- everything streams; no full materialization in the hot path.
"""

__version__ = "0.1.0"
