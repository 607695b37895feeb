"""Benchmark of the spatial-graph engine; see README.md."""
