"""End-to-end intersections pipeline (reference entry point E1,
js/geo.js:1283-1302):

    ways -> wayData (naming/propagation/fake) -> shared-node join ->
    suffixing -> coalescing -> removeJUNCTIONS
         \\-> cell-keyed geometric join -> removeJUNCTIONS
    union -> fix6 -> city PIP tagging -> output rows

Returns a streaming ``ray.data.Dataset`` with schema FIXTURES.md section 5:
(county, lat, lon, streets:list<str>, node_id, node_id_kind, way_ids,
city, source).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..functions.scalar import fix6_np
from ..stages import intersections_geom as geom
from ..stages import intersections_node as nodep
from ..stages import waydata as wd
from ..stages.citytag import CityTagger, load_city_polys
from ..stages.common import map_tasks

OUT_SCHEMA = pa.schema(
    [
        ("county", pa.string()),
        ("lat", pa.float64()),
        ("lon", pa.float64()),
        ("streets", pa.list_(pa.string())),
        ("node_id", pa.int64()),
        ("node_id_kind", pa.string()),
        ("way_ids", pa.list_(pa.int64())),
        ("city", pa.string()),
        ("source", pa.string()),
    ]
)


@dataclass
class PipelineConfig:
    n_buckets: int = 32          # hash buckets per wide stage (per county)
    # no engine reader (CityTagger runs as tasks); kept for callers that
    # size their own CityTagger actor pool
    tag_concurrency: int = 4
    batch_size: int = 4096
    num_blocks: int | None = 16  # input block count (None = Ray's default);
    # small inputs suffer per-task overhead with Ray's default 200 blocks


def load_ways(fixture_dir: str, counties: list[str] | None = None,
              num_blocks: int | None = None):
    ds = rd.read_parquet(os.path.join(fixture_dir, "ways.parquet"),
                         columns=wd.WAYS_COLUMNS,
                         override_num_blocks=num_blocks)
    if counties:
        cset = set(counties)
        ds = ds.map_batches(
            lambda b: b.filter(pa.compute.is_in(b["county"], pa.array(list(cset)))),
            batch_format="pyarrow",
        )
    return ds


def build_waydata(fixture_dir: str, counties: list[str] | None = None,
                  cfg: PipelineConfig | None = None):
    """The distributed wayData table alone (named + adopted + fake rows) —
    the population findClosest (J11) and the geometric path iterate."""
    cfg = cfg or PipelineConfig()
    ways_ds = load_ways(fixture_dir, counties, cfg.num_blocks).materialize()
    state_ref = ray.put(wd.compute_small_state(ways_ds))
    return map_tasks(ways_ds, wd.MakeWayData, state_ref)


def intersections_pipeline(fixture_dir: str, counties: list[str] | None = None,
                           cfg: PipelineConfig | None = None):
    cfg = cfg or PipelineConfig()
    ways_ds = load_ways(fixture_dir, counties, cfg.num_blocks)
    # The ways table is consumed by 6 downstream chains (small-state scans,
    # both explodes, the geometric path); pin the parsed blocks once instead
    # of re-reading parquet per consumer.  Way geometry is the SMALL side of
    # this engine (pages are the 100 TB side) — at cluster scale this is an
    # object-store-resident table, spilled if needed.
    ways_ds = ways_ds.materialize()

    # small-side state (driver fixpoint + parity aggregate), broadcast once
    state_ref = ray.put(wd.compute_small_state(ways_ds))
    waydata_ds = map_tasks(ways_ds, wd.MakeWayData, state_ref).materialize()

    # --- shared-node path
    exploded = nodep.explode_for_join(waydata_ds, ways_ds, cfg.n_buckets)
    cands = nodep.eligible_nodes(exploded)
    ints = nodep.suffixed(cands, cfg.n_buckets)
    ints = nodep.coalesced(ints, state_ref, cfg.n_buckets)
    node_rows = nodep.remove_junctions(ints)

    # --- geometric path
    mot_cells = geom.motorway_cell_set(waydata_ds)
    mot_ref = ray.put(mot_cells)
    geom_rows = nodep.remove_junctions(geom.geometric_intersections(waydata_ds, mot_ref))

    def finish_node(b: pa.Table) -> pa.Table:
        return _finish(b, source="node", node_col=True)

    def finish_geom(b: pa.Table) -> pa.Table:
        return _finish(b, source="geom", node_col=False)

    out = node_rows.map_batches(finish_node, batch_format="pyarrow").union(
        geom_rows.map_batches(finish_geom, batch_format="pyarrow")
    )

    # city PIP tagging (T3): tasks over the broadcast boundary polygons
    bd = pq.read_table(os.path.join(fixture_dir, "boundaries.parquet"))
    cc = pq.read_table(os.path.join(fixture_dir, "county_cities.parquet"))
    polys_ref = ray.put(load_city_polys(bd, cc))
    return map_tasks(out, CityTagger, polys_ref, batch_size=cfg.batch_size)


def geometric_only_pipeline(fixture_dir: str, counties: list[str] | None = None,
                            cfg: PipelineConfig | None = None):
    """The geoturf.js variant entry point (js/geoturf.js:1179-1197, SURVEY
    section 3): geometric path only, older output schema (no wayIds/city) —
    (county, lat, lon, streets:list<string>, node_id, node_id_kind).

    geoturf's makeIntersectionGeoJson (js/geoturf.js:1151-1168) emits RAW
    unrounded coordinates (no fix6 — that is the geo.js writer) and carries
    nodeId; the union-typed nodeId encodes as nullable node_id +
    node_id_kind per SURVEY section 1.4."""
    cfg = cfg or PipelineConfig()
    ways_ds = load_ways(fixture_dir, counties, cfg.num_blocks).materialize()
    state_ref = ray.put(wd.compute_small_state(ways_ds))
    waydata_ds = map_tasks(ways_ds, wd.MakeWayData, state_ref).materialize()
    mot_ref = ray.put(geom.motorway_cell_set(waydata_ds))
    rows = nodep.remove_junctions(geom.geometric_intersections(waydata_ds, mot_ref))

    def finish(b: pa.Table) -> pa.Table:
        has = b["has_node"].to_pylist()
        nid = b["node_id"].to_pylist()
        return pa.table({
            "county": b["county"],
            "lat": b["lat"],  # RAW coordinates: geoturf has no fix6
            "lon": b["lon"],
            "streets": pa.array([s.split("/") for s in b["streets"].to_pylist()],
                                pa.list_(pa.string())),
            "node_id": pa.array([int(n) if h else None for h, n in zip(has, nid)],
                                pa.int64()),
            "node_id_kind": pa.array(["node" if h else "geom" for h in has],
                                     pa.string()),
        })

    return rows.map_batches(finish, batch_format="pyarrow")


def _finish(b: pa.Table, source: str, node_col: bool) -> pa.Table:
    """fix6 rounding + output projection (makeIntersectionGeoJson,
    js/geo.js:1240-1266)."""
    lat = fix6_np(b["lat"].to_numpy(zero_copy_only=False))
    lon = fix6_np(b["lon"].to_numpy(zero_copy_only=False))
    streets = [s.split("/") for s in b["streets"].to_pylist()]
    node_ids = b["node_id"].to_pylist()
    if node_col:
        kinds = ["node"] * b.num_rows
        nid = [int(n) for n in node_ids]
    else:
        has = b["has_node"].to_pylist()
        kinds = ["node" if h else "geom" for h in has]
        nid = [int(n) if h else None for n, h in zip(node_ids, has)]
    return pa.table(
        {
            "county": b["county"],
            "lat": pa.array(lat, pa.float64()),
            "lon": pa.array(lon, pa.float64()),
            "streets": pa.array(streets, pa.list_(pa.string())),
            "node_id": pa.array(nid, pa.int64()),
            "node_id_kind": pa.array(kinds, pa.string()),
            "way_ids": b["way_ids"],
            "source": pa.array([source] * b.num_rows, pa.string()),
        }
    )
