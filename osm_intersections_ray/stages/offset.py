"""Linear-referencing ("offset") tool: walk N meters along a named road
chain — the distributed form of js/offset.js:139-244 (T5/J10/M9/M10).

The per-county way graph (way_id -> way, node -> ways) is built once on the
driver and broadcast; queries stream through ``map_batches`` tasks, each
worker fetching the graph once with ``cached_get``.  Semantics preserved
exactly:

* per-segment distances are fix6-rounded haversine meters (turf.distance,
  R=6371008.8 m) — js/offset.js:107-117;
* interpolation is ``fix6(w1*c1 + w2*c2)`` — js/offset.js:119-131;
* continuation at a chain end picks the UNIQUE other way at the end node
  whose ``name ?? ref`` equals this way's (js/offset.js:146-167); anything
  else ends the walk with null;
* negative meters walk backwards from the start node (js/offset.js:209-239).

A depth guard (absent in the reference, which would recurse forever on a
loop) caps continuation at 1000 hops.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.scalar import fix6, haversine_m, interpolate
from .common import cached_get, map_tasks


def build_way_graph(ways_tbl: pa.Table) -> dict:
    """way_id -> record; node -> [way_id...] (tagged ways, way order)."""
    d = ways_tbl.to_pydict()
    ways = {}
    node_ways: dict[int, list[int]] = {}
    for i in range(len(d["way_id"])):
        wid = d["way_id"][i]
        rec = {
            "way_id": wid,
            "nodes": list(d["nodes"][i]),
            "lats": list(d["lats"][i]),
            "lons": list(d["lons"][i]),
            "name": d["name"][i],
            "ref": d["ref"][i],
            "tagged": d["tagged"][i],
        }
        ways[wid] = rec
        if rec["tagged"]:
            for n in rec["nodes"]:
                lst = node_ways.setdefault(n, [])
                if wid not in lst:
                    lst.append(wid)
    return {"ways": ways, "node_ways": node_ways}


def _name_or_ref(rec) -> str | None:
    return rec["name"] if rec["name"] else rec["ref"]


class OffsetWalker:
    def __init__(self, graph_ref):
        g = cached_get(graph_ref)
        self.ways = g["ways"]
        self.node_ways = g["node_ways"]

    def _find_next(self, rec, node_id):
        target = _name_or_ref(rec)
        cands = [self.ways[w] for w in self.node_ways.get(node_id, [])
                 if w != rec["way_id"]]
        right = [c for c in cands if _name_or_ref(c) == target]
        return right[0] if len(right) == 1 else None

    def offset_gps(self, way_id: int, node_id: int, meters: float,
                   depth: int = 0):
        if depth > 1000:
            return None
        rec = self.ways.get(way_id)
        if rec is None:
            return None
        nodes = rec["nodes"]
        try:
            idx = nodes.index(node_id)
        except ValueError:
            return None
        lats, lons = rec["lats"], rec["lons"]
        dist = [fix6(haversine_m(lats[i], lons[i], lats[i + 1], lons[i + 1]))
                for i in range(len(nodes) - 1)]
        so_far = 0.0
        if meters >= 0:
            for i in range(idx, len(nodes) - 1):
                if dist[i] + so_far >= meters:
                    return interpolate(lats[i], lons[i], lats[i + 1], lons[i + 1],
                                       (meters - so_far) / dist[i])
                so_far += dist[i]
            nxt = self._find_next(rec, nodes[-1])
            if nxt is None:
                return None
            return self.offset_gps(nxt["way_id"], nodes[-1], meters - so_far,
                                   depth + 1)
        pos = -meters
        for i in range(idx - 1, -1, -1):
            if dist[i] + so_far >= pos:
                return interpolate(lats[i + 1], lons[i + 1], lats[i], lons[i],
                                   (pos - so_far) / dist[i])
            so_far += dist[i]
        nxt = self._find_next(rec, nodes[0])
        if nxt is None:
            return None
        return self.offset_gps(nxt["way_id"], nodes[0], meters + so_far, depth + 1)

    def __call__(self, b: pa.Table) -> pa.Table:
        wids = b["way_id"].to_pylist()
        nids = b["node_id"].to_pylist()
        ms = b["meters"].to_pylist()
        lats, lons = [], []
        for w, n, m in zip(wids, nids, ms):
            r = self.offset_gps(w, n, m)
            lats.append(None if r is None else r[0])
            lons.append(None if r is None else r[1])
        from ..functions.scalar import gmap_url

        urls = [None if la is None else gmap_url(la, lo)
                for la, lo in zip(lats, lons)]
        return pa.table({
            "way_id": b["way_id"], "node_id": b["node_id"], "meters": b["meters"],
            "lat": pa.array(lats, pa.float64()),
            "lon": pa.array(lons, pa.float64()),
            # gmapUrl output formatter (js/offset.js:133-137)
            "gmap_url": pa.array(urls, pa.string()),
        })


def offset_queries(ways_ds, query_rows: list[dict]):
    """Run a batch of offset queries as tasks over the broadcast graph."""
    import ray
    import ray.data as rd

    graph_ref = ray.put(build_way_graph(_collect(ways_ds)))
    qt = pa.table({
        "way_id": pa.array([q["way_id"] for q in query_rows], pa.int64()),
        "node_id": pa.array([q["node_id"] for q in query_rows], pa.int64()),
        "meters": pa.array([float(q["meters"]) for q in query_rows], pa.float64()),
    })
    return map_tasks(rd.from_arrow(qt), OffsetWalker, graph_ref)


def _collect(ways_ds) -> pa.Table:
    import pyarrow as pa

    dfs = ways_ds.to_pandas()
    return pa.Table.from_pandas(dfs, preserve_index=False).replace_schema_metadata(None)
