"""Benchmark of the osm_intersections_ray engine: see README.md."""
