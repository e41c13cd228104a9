"""Ring-expansion kNN nearest-way queries (J11, js/geo.js:1305-1361 —
the reference's commented-but-stated-purpose reverse geocoder), including the
k=2-distinct-name ``findClosest`` semantics (js/geo.js:1319-1361):

* per-way distance = min over its vertices of the L1 "Manhattan meters"
  metric (``distGpsGeometry``, js/geo.js:1305-1312);
* result = ``"min1Name/min2Name"`` — nearest way's name plus the nearest way
  with a DIFFERENT name — with the reference's exact quirks: when no
  distinct-named way exists, min2 stays truthy-infinite and the result is
  ``"name/undefined"``; when the second-nearest distinct-named distance is
  exactly 0, JS's falsy-0 check returns the first name alone.

Index layout (region-sharded, built distributedly):

* way vertices explode in ``map_batches`` (Arrow offsets + np.repeat), keyed
  by 0.01-degree cell and 0.1-degree SUPERCELL;
* a ``groupby(supercell)`` builds one payload (cell -> vertex arrays) per
  supercell; the driver streams the payload rows and ``ray.put``s each — it
  never materializes the whole vertex table, holding one supercell at a time;
* query tasks receive only the {supercell: ObjectRef} dict and fetch, with
  a per-worker ``cached_get``, the supercells their probe rings actually
  touch — the region-routing that replaces a single global broadcast index.

A query probes its own cell, then expands ring by ring; ring r+1's L1 lower
bound is r * 0.01 deg * metersPerDegree, and expansion stops only when the
running answer is strictly below that bound (ties therefore resolve from
fully-explored state).
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.scalar import METERS_PER_DEGREE, get_way_name
from .common import cached_get, map_tasks

SUPER = 10  # 10 x 10 cells (0.1 deg) per supercell
DELTA_M = 0.01 * METERS_PER_DEGREE


def _sc_of(cx: int, cy: int) -> int:
    # |cy // SUPER| <= 900 < 50000: the composite is collision-free
    return (cx // SUPER) * 100000 + (cy // SUPER)


def _explode_named_ways(b: pa.Table) -> pa.Table:
    """ways -> one row per vertex of each named tagged way, carrying
    (county, rank=way_rank, way_id, name)."""
    from .common import explode_lists

    names = b["name"].to_pylist()
    refs = b["ref"].to_pylist()
    tagged = b["tagged"].to_pylist()
    nm = [get_way_name(names[i], refs[i]) if tagged[i] else "" for i in range(b.num_rows)]
    mask = pa.array([bool(x) for x in nm])
    sub = b.append_column("nm", pa.array(nm, pa.string())).filter(mask)
    cols = explode_lists(sub, ["lats", "lons"], ["county", "way_rank", "way_id", "nm"])
    return pa.table({
        "lat": pa.array(cols["lats"], pa.float64()),
        "lon": pa.array(cols["lons"], pa.float64()),
        "county": pa.array(cols["county"], pa.string()),
        "rank": pa.array(cols["way_rank"].astype(np.int64)),
        "way_id": pa.array(cols["way_id"].astype(np.int64)),
        "name": pa.array(cols["nm"], pa.string()),
    })


def _explode_waydata(b: pa.Table) -> pa.Table:
    """wayData rows -> vertices (the reference-faithful population incl.
    adopted/fake-named rows; rank = data_rank = wayData iteration order)."""
    from .common import explode_lists

    cols = explode_lists(b, ["lats", "lons"], ["county", "data_rank", "way_id", "name"])
    return pa.table({
        "lat": pa.array(cols["lats"], pa.float64()),
        "lon": pa.array(cols["lons"], pa.float64()),
        "county": pa.array(cols["county"], pa.string()),
        "rank": pa.array(cols["data_rank"].astype(np.int64)),
        "way_id": pa.array(cols["way_id"].astype(np.int64)),
        "name": pa.array(cols["name"], pa.string()),
    })


def build_region_index_refs(vertices_ds) -> dict:
    """Distributed index build: group vertices by supercell, build each
    supercell's {cell: arrays} payload in the worker, stream payload rows to
    the driver which ``ray.put``s one supercell at a time.  Returns
    {"refs": {sc: ObjectRef}, "span": (min_cx, min_cy, max_cx, max_cy),
    "n_vertices": total vertex count}."""
    import ray

    def add_keys(b: pa.Table) -> pa.Table:
        cx = np.floor(np.asarray(b["lon"].to_numpy(zero_copy_only=False)) * 100).astype(np.int64)
        cy = np.floor(np.asarray(b["lat"].to_numpy(zero_copy_only=False)) * 100).astype(np.int64)
        sc = (cx // SUPER) * 100000 + (cy // SUPER)
        return (b.append_column("cx", pa.array(cx))
                .append_column("cy", pa.array(cy))
                .append_column("sc", pa.array(sc)))

    def per_sc(df: pd.DataFrame) -> pa.Table:
        counties, c_ids = np.unique(df["county"].to_numpy(), return_inverse=True)
        names, n_ids = np.unique(df["name"].to_numpy(), return_inverse=True)
        lat = df["lat"].to_numpy()
        lon = df["lon"].to_numpy()
        wid = df["way_id"].to_numpy().astype(np.int64)
        rank = df["rank"].to_numpy().astype(np.int64)
        cells = {}
        for (cx, cy), idx in df.groupby(["cx", "cy"], sort=False).indices.items():
            cells[(int(cx), int(cy))] = (lat[idx], lon[idx], wid[idx],
                                         rank[idx], c_ids[idx], n_ids[idx])
        payload = pickle.dumps({"cells": cells, "counties": list(counties),
                                "names": list(names)})
        return pa.table({"sc": pa.array([int(df["sc"].iloc[0])], pa.int64()),
                         "cx_min": pa.array([int(df["cx"].min())], pa.int64()),
                         "cy_min": pa.array([int(df["cy"].min())], pa.int64()),
                         "cx_max": pa.array([int(df["cx"].max())], pa.int64()),
                         "cy_max": pa.array([int(df["cy"].max())], pa.int64()),
                         "n": pa.array([len(df)], pa.int64()),
                         "payload": pa.array([payload], pa.binary())})

    rows = (vertices_ds.map_batches(add_keys, batch_format="pyarrow")
            .groupby("sc").map_groups(per_sc, batch_format="pandas"))
    refs: dict = {}
    span = [None, None, None, None]
    n_vertices = 0
    for batch in rows.iter_batches(batch_format="pyarrow", batch_size=8):
        for sc, x0, y0, x1, y1, n, payload in zip(
                batch["sc"].to_pylist(), batch["cx_min"].to_pylist(),
                batch["cy_min"].to_pylist(), batch["cx_max"].to_pylist(),
                batch["cy_max"].to_pylist(), batch["n"].to_pylist(),
                batch["payload"].to_pylist()):
            refs[int(sc)] = ray.put(pickle.loads(payload))
            n_vertices += n
            span[0] = x0 if span[0] is None else min(span[0], x0)
            span[1] = y0 if span[1] is None else min(span[1], y0)
            span[2] = x1 if span[2] is None else max(span[2], x1)
            span[3] = y1 if span[3] is None else max(span[3], y1)
    return {"refs": refs, "span": tuple(span), "n_vertices": n_vertices}


class _RegionIndex:
    """Task-side view: fetches supercell payloads lazily (worker-cached)."""

    def __init__(self, index: dict):
        self.refs = index["refs"]
        self.span = index["span"]

    def payload(self, sc: int):
        return cached_get(self.refs[sc])

    def cell(self, cx: int, cy: int):
        sc = _sc_of(cx, cy)
        if sc not in self.refs:
            return None
        p = self.payload(sc)
        return p, p["cells"].get((cx, cy))

    def max_rings(self, cx: int, cy: int) -> int:
        x0, y0, x1, y1 = self.span
        if x0 is None:
            return 0
        return max(abs(cx - x0), abs(cx - x1), abs(cy - y0), abs(cy - y1)) + 1


def _ring_cells(cx: int, cy: int, r: int):
    if r == 0:
        return [(cx, cy)]
    out = []
    for dx in range(-r, r + 1):
        out.append((cx + dx, cy - r))
        out.append((cx + dx, cy + r))
    for dy in range(-r + 1, r):
        out.append((cx - r, cy + dy))
        out.append((cx + r, cy + dy))
    return out


class NearestWay:
    """k=1 ring-expansion nearest-vertex queries.  Tie-break on
    (distance, way_id) ascending — matching the SQL oracle's ORDER BY."""

    def __init__(self, index_ref):
        self.idx = _RegionIndex(cached_get(index_ref))

    def _query(self, qlat: float, qlon: float) -> int:
        cx = math.floor(qlon * 100)
        cy = math.floor(qlat * 100)
        best_d = math.inf
        best_w = -1
        max_r = self.idx.max_rings(cx, cy)
        r = 0
        while True:
            for key in _ring_cells(cx, cy, r):
                hit = self.idx.cell(*key)
                if hit is None or hit[1] is None:
                    continue
                la, lo, wi = hit[1][0], hit[1][1], hit[1][2]
                d = METERS_PER_DEGREE * (np.abs(la - qlat) + np.abs(lo - qlon))
                j = np.lexsort((wi, d))[0]
                if d[j] < best_d or (d[j] == best_d and wi[j] < best_w):
                    best_d = d[j]
                    best_w = int(wi[j])
            # lower bound for ring r+1: any point there is >= r*0.01 deg away
            lb = r * DELTA_M
            if best_w != -1 and best_d < lb:
                break
            r += 1
            if r > max_r and best_w != -1:
                break
            if r > max_r + 2:  # empty index guard
                break
        return best_w

    def __call__(self, b: pa.Table) -> pa.Table:
        ks = b["k"].to_pylist()
        out = [self._query(la, lo)
               for la, lo in zip(b["qlat"].to_pylist(), b["qlon"].to_pylist())]
        return pa.table({"k": pa.array(ks, pa.int64()),
                         "way_id": pa.array(out, pa.int64())})


# Ring radius past which NearestTwo abandons the cell-by-cell walk and
# scans every remaining supercell wholesale (the sparse / one-name-region
# degenerate case would otherwise probe O(span^2) mostly-empty cells).
_EXHAUST_RINGS = 2 * SUPER


class NearestTwo:
    """findClosest (js/geo.js:1319-1361) — nearest way name plus
    second-nearest DISTINCTLY-named way, with the reference's quirks
    (``/undefined`` when no distinct name exists; bare name when the distinct
    second's distance is falsy 0).  Iteration-order ties resolve by
    (county, rank) ascending — the reference's wayData scan order.

    The reference semantics are an exact FULL SCAN of wayData (min over all
    vertices per row); the ring expansion here is pure pruning with an L1
    lower-bound stop, so processing a superset of cells can never change the
    answer.  Two consequences exploited below: the per-cell update is
    vectorized (``np.minimum.reduceat`` over (county, rank) segments), and
    past ``_EXHAUST_RINGS`` the walk falls back to visiting every remaining
    supercell payload wholesale and answering from complete state."""

    def __init__(self, index_ref):
        self.idx = _RegionIndex(cached_get(index_ref))

    @staticmethod
    def _update_best(best: dict, payload, arrs, qlat: float, qlon: float):
        """Fold one cell's vertex arrays into best: per-(county, rank) min
        distance, one segment reduction instead of a per-vertex loop."""
        la, lo, _wi, rank, c_ids, n_ids = arrs
        d = METERS_PER_DEGREE * (np.abs(la - qlat) + np.abs(lo - qlon))
        # (county_id, rank) composite: county ids are per-supercell-unique
        # indices (tiny); rank is the per-county wayData row number.
        comp = (c_ids.astype(np.int64) << 32) | rank.astype(np.int64)
        order = np.argsort(comp, kind="stable")
        comp_s = comp[order]
        starts = np.flatnonzero(np.r_[True, comp_s[1:] != comp_s[:-1]])
        dmin = np.minimum.reduceat(d[order], starts)
        rep = order[starts]  # (county, rank, name) constant per composite
        counties = payload["counties"]
        names = payload["names"]
        for j in range(len(rep)):
            i0 = rep[j]
            k2 = (counties[c_ids[i0]], int(rank[i0]))
            di = float(dmin[j])
            cur = best.get(k2)
            if cur is None:
                best[k2] = [di, names[n_ids[i0]]]
            elif di < cur[0]:
                cur[0] = di

    def _exhaust(self, best: dict, qlat: float, qlon: float):
        """Fold EVERY cell of every supercell into best (complete state)."""
        for sc in self.idx.refs:
            payload = self.idx.payload(sc)
            for arrs in payload["cells"].values():
                self._update_best(best, payload, arrs, qlat, qlon)

    @staticmethod
    def _answer(nm1: str, second) -> str:
        if second is None:
            return f"{nm1}/undefined"  # min2 stays truthy-infinite
        if second[1][0] == 0.0:
            return nm1  # JS falsy-0 min2 quirk
        return f"{nm1}/{second[1][1]}"

    def _query(self, qlat: float, qlon: float) -> str:
        cx = math.floor(qlon * 100)
        cy = math.floor(qlat * 100)
        best: dict = {}  # (county, rank) -> [d, name]
        max_r = self.idx.max_rings(cx, cy)
        r = 0
        while True:
            for key in _ring_cells(cx, cy, r):
                hit = self.idx.cell(*key)
                if hit is None or hit[1] is None:
                    continue
                payload, arrs = hit
                self._update_best(best, payload, arrs, qlat, qlon)
            lb = r * DELTA_M
            done = False
            second = None
            if best:
                items = sorted(best.items(), key=lambda kv: (kv[1][0], kv[0]))
                d1, nm1 = items[0][1]
                second = next((it for it in items if it[1][1] != nm1), None)
                if second is not None and second[1][0] < lb:
                    done = True
                if r > max_r:  # world exhausted
                    done = True
            elif r > max_r + 2:
                return "undefined/undefined"  # empty index (JS string concat)
            if done:
                return self._answer(nm1, second)
            r += 1
            if r > _EXHAUST_RINGS and r <= max_r:
                self._exhaust(best, qlat, qlon)
                if not best:
                    return "undefined/undefined"
                items = sorted(best.items(), key=lambda kv: (kv[1][0], kv[0]))
                d1, nm1 = items[0][1]
                second = next((it for it in items if it[1][1] != nm1), None)
                return self._answer(nm1, second)

    def __call__(self, b: pa.Table) -> pa.Table:
        ks = b["k"].to_pylist()
        out = [self._query(la, lo)
               for la, lo in zip(b["qlat"].to_pylist(), b["qlon"].to_pylist())]
        return pa.table({"k": pa.array(ks, pa.int64()),
                         "closest": pa.array(out, pa.string())})


def _probe_points(n_queries: int) -> pa.Table:
    return pa.table({
        "k": pa.array(list(range(n_queries)), pa.int64()),
        "qlat": pa.array([36.92 + k * 0.02 for k in range(n_queries)], pa.float64()),
        "qlon": pa.array([-122.39 + k * 0.04 for k in range(n_queries)], pa.float64()),
    })


def nearest_way_queries(ways_ds, n_queries: int = 20):
    """The benchmark query set: n deterministic probe points (expressible in
    SQL via generate_series)."""
    import ray
    import ray.data as rd

    vertices = ways_ds.map_batches(_explode_named_ways, batch_format="pyarrow")
    idx_ref = ray.put(build_region_index_refs(vertices))
    return map_tasks(rd.from_arrow(_probe_points(n_queries)), NearestWay,
                     idx_ref)


def nearest_two_queries(ways_ds, n_queries: int = 20):
    """findClosest over the named tagged ways (the SQL-oracle-able
    population; the reference-faithful full-wayData population is exercised
    by :func:`nearest_two_from_waydata` + the golden pytest)."""
    import ray
    import ray.data as rd

    vertices = ways_ds.map_batches(_explode_named_ways, batch_format="pyarrow")
    idx_ref = ray.put(build_region_index_refs(vertices))
    return map_tasks(rd.from_arrow(_probe_points(n_queries)), NearestTwo,
                     idx_ref)


def nearest_two_from_waydata(waydata_ds, probes: pa.Table):
    """findClosest over the full wayData population (adopted + fake-named
    rows included) — the reference-faithful form, golden-tested against the
    single-process oracle's sequential findClosest."""
    import ray
    import ray.data as rd

    vertices = waydata_ds.map_batches(_explode_waydata, batch_format="pyarrow")
    idx_ref = ray.put(build_region_index_refs(vertices))
    return map_tasks(rd.from_arrow(probes), NearestTwo, idx_ref)


def nearest_way_sql(ways_path: str, n_queries: int = 20) -> str:
    from .queries_spatial import NM_SQL

    return f"""
WITH pts AS (
  SELECT k, 36.92 + k * 0.02 AS qlat, -122.39 + k * 0.04 AS qlon
  FROM UNNEST(generate_series(0, {n_queries - 1})) t(k)
),
raw AS (SELECT *, {NM_SQL} AS nm FROM read_parquet('{ways_path}') WHERE tagged),
named AS (SELECT way_id, lats, lons FROM raw WHERE nm <> ''),
v AS (SELECT way_id, unnest(lats) AS vlat, unnest(lons) AS vlon FROM named),
d AS (SELECT p.k, v.way_id,
             {METERS_PER_DEGREE} * (abs(v.vlat - p.qlat) + abs(v.vlon - p.qlon)) AS dist
      FROM pts p, v),
r AS (SELECT k, way_id,
             row_number() OVER (PARTITION BY k ORDER BY dist, way_id) AS rn
      FROM d)
SELECT k, way_id FROM r WHERE rn = 1
"""


def nearest_two_sql(ways_path: str, n_queries: int = 20) -> str:
    """Window-function oracle for findClosest over named tagged ways:
    per-(query, way) min vertex distance, rank 1 = min1, rank 1 among
    distinct-named = min2; the /undefined and falsy-0 quirks in the CASE."""
    from .queries_spatial import NM_SQL

    return f"""
WITH pts AS (
  SELECT k, 36.92 + k * 0.02 AS qlat, -122.39 + k * 0.04 AS qlon
  FROM UNNEST(generate_series(0, {n_queries - 1})) t(k)
),
raw AS (SELECT *, {NM_SQL} AS nm FROM read_parquet('{ways_path}') WHERE tagged),
named AS (SELECT county, way_rank, nm, lats, lons FROM raw WHERE nm <> ''),
v AS (SELECT county, way_rank, nm, unnest(lats) AS vlat, unnest(lons) AS vlon
      FROM named),
wd AS (SELECT p.k, v.county, v.way_rank, v.nm,
              min({METERS_PER_DEGREE} * (abs(v.vlat - p.qlat) + abs(v.vlon - p.qlon))) AS d
       FROM pts p, v GROUP BY 1, 2, 3, 4),
r1 AS (SELECT k, nm, d,
              row_number() OVER (PARTITION BY k ORDER BY d, county, way_rank) AS rn
       FROM wd),
m1 AS (SELECT k, nm AS nm1, d AS d1 FROM r1 WHERE rn = 1),
r2 AS (SELECT w.k, w.nm, w.d,
              row_number() OVER (PARTITION BY w.k ORDER BY w.d, w.county, w.way_rank) AS rn
       FROM wd w JOIN m1 ON m1.k = w.k AND w.nm <> m1.nm1),
m2 AS (SELECT k, nm AS nm2, d AS d2 FROM r2 WHERE rn = 1)
SELECT m1.k,
       CASE WHEN m2.k IS NULL THEN m1.nm1 || '/undefined'
            WHEN m2.d2 = 0 THEN m1.nm1
            ELSE m1.nm1 || '/' || m2.nm2 END AS closest
FROM m1 LEFT JOIN m2 ON m2.k = m1.k
"""


class PagesNearestWay(NearestWay):
    """The full-table kNN spatial JOIN: nearest named way per
    geotagged PAGE (url-keyed), same ring order + (dist, way_id) tie rule
    as :class:`NearestWay`, but vectorized PER QUERY CELL: pages cluster
    (many queries share a 0.01-degree cell), so the ring walk runs once per
    distinct cell and each visited cell's vertex arrays are scored against
    ALL of the cell's queries in one numpy broadcast.  Expansion stops when
    EVERY query in the cell beats the next ring's L1 lower bound (a
    straggler costs its cellmates at most its own ring count — the walk
    stays O(populated cells round the answers))."""

    def _sc_arrays(self, sc: int):
        # each supercell's CONCATENATED vertex arrays (the exhaustive path
        # scores whole supercells, not cells), kept on the worker-cached
        # payload so a worker concatenates a supercell once, not per batch
        p = self.idx.payload(sc)
        if "cat" not in p:
            las, los, wis = [], [], []
            for la, lo, wi, *_ in p["cells"].values():
                las.append(la); los.append(lo); wis.append(wi)
            p["cat"] = (np.concatenate(las), np.concatenate(los),
                        np.concatenate(wis).astype(np.int64))
        return p["cat"]

    @staticmethod
    def _score(best_d, best_w, la, lo, wi, qlat, qlon):
        # (nq x nv) distance block; per query the (dist, way_id) argmin:
        # min dist, then min way_id — the oracle's ORDER BY
        d = METERS_PER_DEGREE * (np.abs(la[None, :] - qlat[:, None])
                                 + np.abs(lo[None, :] - qlon[:, None]))
        dmin = d.min(axis=1)
        wmin = np.where(d == dmin[:, None], wi[None, :],
                        np.iinfo(np.int64).max).min(axis=1)
        better = (dmin < best_d) | ((dmin == best_d) & (wmin < best_w))
        return (np.where(better, dmin, best_d),
                np.where(better, wmin, best_w))

    def _query_cell(self, cx: int, cy: int, qlat: np.ndarray,
                    qlon: np.ndarray) -> np.ndarray:
        nq = qlat.size
        best_d = np.full(nq, np.inf)
        best_w = np.full(nq, -1, dtype=np.int64)
        max_r = self.idx.max_rings(cx, cy)
        r = 0
        while True:
            for key in _ring_cells(cx, cy, r):
                hit = self.idx.cell(*key)
                if hit is None or hit[1] is None:
                    continue
                best_d, best_w = self._score(
                    best_d, best_w, hit[1][0], hit[1][1], hit[1][2],
                    qlat, qlon)
            lb = r * DELTA_M
            if (best_w != -1).all() and (best_d < lb).all():
                break
            r += 1
            if r > _EXHAUST_RINGS:
                # desert query cell (no road within ~0.2 deg): the cell-by-
                # cell walk would probe O(span^2) empty cells — scan every
                # supercell wholesale instead (superset visiting cannot
                # change an exact full-min answer; same move as NearestTwo)
                for sc in self.idx.refs:
                    la, lo, wi = self._sc_arrays(sc)
                    best_d, best_w = self._score(best_d, best_w, la, lo, wi,
                                                 qlat, qlon)
                break
            if r > max_r + 2:  # empty index guard
                break
        return best_w

    def __call__(self, b: pa.Table) -> pa.Table:  # noqa: D102
        urls = b["url"].to_pylist()
        qlat = np.asarray(b["lat"].to_numpy(zero_copy_only=False))
        qlon = np.asarray(b["lon"].to_numpy(zero_copy_only=False))
        cx = np.floor(qlon * 100).astype(np.int64)
        cy = np.floor(qlat * 100).astype(np.int64)
        out = np.full(len(urls), -1, dtype=np.int64)
        key = cx * 1_000_000 + cy  # cy bounded by +-18000: collision-free
        order = np.argsort(key, kind="stable")
        bnd = np.concatenate([[0], np.flatnonzero(np.diff(key[order])) + 1,
                              [key.size]])
        for s0, s1 in zip(bnd[:-1], bnd[1:]):
            idx = order[s0:s1]
            out[idx] = self._query_cell(int(cx[idx[0]]), int(cy[idx[0]]),
                                        qlat[idx], qlon[idx])
        return pa.table({"url": pa.array(urls, pa.string()),
                         "way_id": pa.array(out, pa.int64())})


def pages_nearest_way(pages_ds, ways_ds):
    """Reverse-geocode EVERY page to its nearest named way — the kNN JOIN
    form of the J11 reverse geocoder (nearest_way answers broadcast probe
    points; this one runs the corpus side of the north-star join through
    the same region-sharded supercell index).

    Scale shape: the ways side builds the supercell index distributedly and
    ships as {supercell: ObjectRef} (pages NEVER shuffle); each task
    geotags its page batch and ring-walks the lazily-fetched
    supercells it actually touches.  Per-query cost is O(populated cells in
    the answer's rings), independent of corpus size; the pages stream keeps
    Ray's backpressure.  Pages without a parseable geotag drop exactly like
    pages_geotag."""
    import ray

    from .pages import geotag_batch

    vertices = ways_ds.map_batches(_explode_named_ways, batch_format="pyarrow")
    idx_ref = ray.put(build_region_index_refs(vertices))
    pts = pages_ds.map_batches(geotag_batch, batch_format="pyarrow",
                               batch_size=4096)
    return map_tasks(pts, PagesNearestWay, idx_ref, batch_size=2048)


def pages_nearest_way_sql(pages_tbl: str, ways_path: str) -> str:
    """Brute-force argmin oracle: same geotag parse as pages_geotag, same
    L1 metric and (dist, way_id) tie order as nearest_way."""
    from .queries_spatial import NM_SQL

    return f"""
WITH g0 AS (
  SELECT url,
         TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 1) AS DOUBLE) AS lat,
         TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 2) AS DOUBLE) AS lon
  FROM {pages_tbl}
), g AS (
  SELECT * FROM g0
  WHERE lat IS NOT NULL AND lon IS NOT NULL AND isfinite(lat) AND isfinite(lon)
),
raw AS (SELECT *, {NM_SQL} AS nm FROM read_parquet('{ways_path}') WHERE tagged),
named AS (SELECT way_id, lats, lons FROM raw WHERE nm <> ''),
v AS (SELECT way_id, unnest(lats) AS vlat, unnest(lons) AS vlon FROM named),
d AS (SELECT g.url, v.way_id,
             {METERS_PER_DEGREE} * (abs(v.vlat - g.lat) + abs(v.vlon - g.lon)) AS dist
      FROM g, v),
r AS (SELECT url, way_id,
             row_number() OVER (PARTITION BY url ORDER BY dist, way_id) AS rn
      FROM d)
SELECT url, way_id FROM r WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# Page -> segment snap (map-matching primitive)
#
# The continuous half of reverse geocoding: after pages_nearest_way picks the
# nearest NAMED way per geotagged page (vertex L1 metric, the reference's
# distGpsGeometry), this op projects the page point onto that way's polyline
# and reports WHICH segment it lands on — the snap a map-matching / address-
# interpolation pipeline needs.  seg_idx is 1-based (segment k joins vertex k
# to vertex k+1, DuckDB list indexing); the projection argmin is squared
# Euclidean in degree space with (d2, seg_idx) tie order, and the SQL oracle
# spells out the IDENTICAL float64 operation order (difference, dot, clamp,
# residual) so engine and DuckDB agree bit-for-bit, ties included.
#
# Cardinality-routed like pages_way_join: below SNAP_BROADCAST_VERTICES_MAX
# the named-way geometry ships once via ray.put as four flat arrays (sorted
# way ids, offsets, flat lats/lons) and the snap happens inside the SAME
# task that answers the kNN — pages never shuffle, zero exchanges.
# Above the cap, the way geometry explodes to segment rows and the snap runs
# as a way_id hash join of SKINNY page rows (url, lat, lon, way_id — html
# never crosses) plus one url-keyed argmin fold; both routes are pinned
# row-identical in pytest.
SNAP_BROADCAST_VERTICES_MAX = 8_000_000   # ~128 MB of flat coords + ids


def _named_geom_rows(b: pa.Table) -> pa.Table:
    """(way_id, lats, lons) of named tagged ways — the snap's geometry side
    (same name filter as _explode_named_ways)."""
    names = b["name"].to_pylist()
    refs = b["ref"].to_pylist()
    tagged = b["tagged"].to_pylist()
    nm = [get_way_name(names[i], refs[i]) if tagged[i] else ""
          for i in range(b.num_rows)]
    mask = pa.array([bool(x) for x in nm])
    sub = b.filter(mask)
    return pa.table({"way_id": sub["way_id"].cast(pa.int64()),
                     "lats": sub["lats"], "lons": sub["lons"]})


def build_named_geom(ways_ds):
    """Collect named-way polylines into four flat numpy arrays (way ids
    sorted, vertex offsets, flat lats/lons) for the broadcast route.  The
    ways table is the DIMENSION side; the caller routes on the region
    index's ``n_vertices`` (the same named-way filter) before calling."""
    df = (ways_ds.map_batches(_named_geom_rows, batch_format="pyarrow")
          .to_pandas())
    df = df.sort_values("way_id", kind="stable").reset_index(drop=True)
    lens = np.array([len(x) for x in df["lats"]], dtype=np.int64)
    offs = np.zeros(len(df) + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    return {
        "wid": df["way_id"].to_numpy(dtype=np.int64),
        "offs": offs,
        "lats": (np.concatenate(df["lats"].to_list())
                 if len(df) else np.empty(0, np.float64)),
        "lons": (np.concatenate(df["lons"].to_list())
                 if len(df) else np.empty(0, np.float64)),
    }


def _project_d2(px, py, x1, y1, x2, y2):
    """Squared point-to-segment distance, EXACT float64 op order shared with
    the SQL oracle: dx/dy diffs, den/num dots, den==0 -> t=0 else clamped
    num/den, residual components, d2 = ex*ex + ey*ey.  Returns (d2, t)."""
    dx = x2 - x1
    dy = y2 - y1
    den = dx * dx + dy * dy
    num = (px - x1) * dx + (py - y1) * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        t = num / den
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    t = np.where(den == 0.0, 0.0, t)
    ex = px - (x1 + t * dx)
    ey = py - (y1 + t * dy)
    return ex * ex + ey * ey, t


def _snap_to_ways(geom: dict, way: np.ndarray, plat: np.ndarray,
                  plon: np.ndarray):
    """Vectorized snap of each (point, way) pair onto the way's polyline.
    Returns (keep_mask, seg_idx 1-based) — rows whose way is unknown or has
    fewer than 2 vertices are dropped (no segment exists), matching the SQL
    inner join against the segment list."""
    wid, offs = geom["wid"], geom["offs"]
    glats, glons = geom["lats"], geom["lons"]
    n = len(way)
    if n == 0 or len(wid) == 0:
        return np.zeros(n, bool), np.empty(0, np.int64), np.empty(0,
                                                                  np.float64)
    pos = np.searchsorted(wid, way)
    pos_c = np.minimum(pos, len(wid) - 1)
    found = wid[pos_c] == way
    starts = offs[pos_c]
    nseg = offs[pos_c + 1] - starts - 1
    keep = found & (nseg >= 1)
    reps = nseg[keep]
    if reps.sum() == 0:
        return keep & False, np.empty(0, np.int64), np.empty(0, np.float64)
    page_idx = np.repeat(np.flatnonzero(keep), reps)
    gstarts = np.cumsum(reps) - reps
    within = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(gstarts,
                                                                    reps)
    vidx = np.repeat(starts[keep], reps) + within
    d2, _ = _project_d2(plon[page_idx], plat[page_idx],
                        glons[vidx], glats[vidx],
                        glons[vidx + 1], glats[vidx + 1])
    dmin = np.minimum.reduceat(d2, gstarts)
    # first (lowest seg) index achieving the exact min per page
    penalty = np.where(d2 == np.repeat(dmin, reps), within,
                       np.iinfo(np.int64).max)
    seg_first = np.minimum.reduceat(penalty, gstarts)
    return keep, seg_first + 1, dmin   # 1-based segment index


class PagesSegmentSnap(PagesNearestWay):
    """Nearest named way per page (inherited ring walk) + in-batch
    segment projection against the broadcast geometry — zero exchanges."""

    def __init__(self, index_ref, geom_ref, with_d2: bool = False):
        super().__init__(index_ref)
        self.geom = cached_get(geom_ref)
        self.with_d2 = with_d2

    def __call__(self, b: pa.Table) -> pa.Table:  # noqa: D102
        nn = super().__call__(b)
        way = np.asarray(nn["way_id"].to_numpy(zero_copy_only=False),
                         np.int64)
        plat = np.asarray(b["lat"].to_numpy(zero_copy_only=False), np.float64)
        plon = np.asarray(b["lon"].to_numpy(zero_copy_only=False), np.float64)
        keep, seg, dmin = _snap_to_ways(self.geom, way, plat, plon)
        sel = pa.array(np.flatnonzero(keep).astype(np.int64))
        cols = {
            "url": nn["url"].take(sel),
            "way_id": pa.array(way[keep], pa.int64()),
            "seg_idx": pa.array(seg, pa.int64()),
        }
        if self.with_d2:
            cols["d2"] = pa.array(dmin, pa.float64())
        return pa.table(cols)


class PagesNearestWayCoords(PagesNearestWay):
    """Join-route stage 1: the kNN answer carrying the page coords."""

    def __call__(self, b: pa.Table) -> pa.Table:  # noqa: D102
        nn = super().__call__(b)
        return pa.table({"url": nn["url"], "way_id": nn["way_id"],
                         "lat": b["lat"], "lon": b["lon"]})


_SEG_SCHEMA = pa.schema([("way_id", pa.int64()), ("seg_idx", pa.int64()),
                         ("x1", pa.float64()), ("y1", pa.float64()),
                         ("x2", pa.float64()), ("y2", pa.float64())])


def _explode_named_segments(b: pa.Table) -> pa.Table:
    """Named ways -> one row per polyline segment (1-based seg_idx)."""
    t = _named_geom_rows(b)
    if t.num_rows == 0:
        return _SEG_SCHEMA.empty_table()
    lats = t["lats"].combine_chunks()
    lens = np.asarray(lats.value_lengths(), dtype=np.int64)
    la = np.asarray(lats.flatten(), dtype=np.float64)
    lo = np.asarray(t["lons"].combine_chunks().flatten(), dtype=np.float64)
    nseg = np.maximum(lens - 1, 0)
    wy = np.repeat(np.asarray(t["way_id"].to_numpy(zero_copy_only=False),
                              np.int64), nseg)
    starts = np.zeros(len(lens), dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:] if len(lens) > 1 else starts[1:])
    gstarts = np.cumsum(nseg) - nseg
    within = (np.arange(int(nseg.sum()), dtype=np.int64)
              - np.repeat(gstarts, nseg))
    vidx = np.repeat(starts, nseg) + within
    return pa.table({"way_id": pa.array(wy),
                     "seg_idx": pa.array(within + 1, pa.int64()),
                     "x1": pa.array(lo[vidx]), "y1": pa.array(la[vidx]),
                     "x2": pa.array(lo[vidx + 1]),
                     "y2": pa.array(la[vidx + 1])}, schema=_SEG_SCHEMA)


def _snap_join_route(nn_ds, ways_ds, with_d2: bool = False):
    """Above-cap route: way_id hash join of skinny page rows against
    exploded segment rows, then one url-keyed (d2, seg_idx) argmin fold."""
    from .common import cap_join_partitions, drop_empty_blocks

    segs = ways_ds.map_batches(_explode_named_segments,
                               batch_format="pyarrow")
    joined = drop_empty_blocks(nn_ds.materialize()).join(
        drop_empty_blocks(segs.materialize()), join_type="inner",
        num_partitions=cap_join_partitions(8), on=("way_id",))

    def score(b: pa.Table) -> pa.Table:
        d2, _ = _project_d2(
            np.asarray(b["lon"].to_numpy(zero_copy_only=False), np.float64),
            np.asarray(b["lat"].to_numpy(zero_copy_only=False), np.float64),
            np.asarray(b["x1"].to_numpy(zero_copy_only=False), np.float64),
            np.asarray(b["y1"].to_numpy(zero_copy_only=False), np.float64),
            np.asarray(b["x2"].to_numpy(zero_copy_only=False), np.float64),
            np.asarray(b["y2"].to_numpy(zero_copy_only=False), np.float64))
        return pa.table({"url": b["url"], "way_id": b["way_id"],
                         "seg_idx": b["seg_idx"],
                         "d2": pa.array(d2, pa.float64())})

    def pick(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["url", "d2", "seg_idx"],
                            kind="stable").drop_duplicates("url")
        cols = {"url": pa.array(df["url"].to_numpy(object), pa.string()),
                "way_id": pa.array(df["way_id"].to_numpy(np.int64)),
                "seg_idx": pa.array(df["seg_idx"].to_numpy(np.int64))}
        if with_d2:
            cols["d2"] = pa.array(df["d2"].to_numpy(np.float64))
        return pa.table(cols)

    return (joined.map_batches(score, batch_format="pyarrow")
            .groupby("url").map_groups(pick, batch_format="pandas"))


def pages_segment_snap(pages_ds, ways_ds,
                       broadcast_vertices_max: int =
                       SNAP_BROADCAST_VERTICES_MAX,
                       with_d2: bool = False):
    """(url, way_id, seg_idx) — every geotagged page snapped to the segment
    of its nearest named way (vertex-L1 nearest way, then squared-Euclidean
    segment projection with (d2, seg_idx) tie order).  ``with_d2`` appends
    the squared projection distance (degree^2) for distance-profile
    consumers."""
    import ray

    from .pages import geotag_batch

    vertices = ways_ds.map_batches(_explode_named_ways,
                                   batch_format="pyarrow")
    index = build_region_index_refs(vertices)
    idx_ref = ray.put(index)
    pts = pages_ds.map_batches(geotag_batch, batch_format="pyarrow",
                               batch_size=4096)
    if index["n_vertices"] <= broadcast_vertices_max:
        geom_ref = ray.put(build_named_geom(ways_ds))
        return map_tasks(pts, PagesSegmentSnap, idx_ref, geom_ref, with_d2,
                         batch_size=2048)
    nn = map_tasks(pts, PagesNearestWayCoords, idx_ref, batch_size=2048)
    return _snap_join_route(nn, ways_ds, with_d2=with_d2)


SNAP_BUCKET_M = 50.0   # distance-profile bucket width (meters)


def snap_distance_profile(pages_ds, ways_ds,
                          broadcast_vertices_max: int =
                          SNAP_BROADCAST_VERTICES_MAX):
    """(bucket, n_pages) — the distribution of page-to-road snap distances
    in 50 m buckets (bucket k covers [50k, 50(k+1)) meters): the geotag-
    quality validation metric of the snap join.  dist = METERS_PER_DEGREE *
    sqrt(d2) with the exact float chain shared with the SQL oracle.

    Scale shape: the snap's own routes (broadcast or join) produce skinny
    (url, d2) rows; one more map folds per-batch bucket partials and the
    only added exchange is the buckets-bounded groupby-sum."""
    from ray.data.aggregate import Sum

    snapped = pages_segment_snap(pages_ds, ways_ds,
                                 broadcast_vertices_max=broadcast_vertices_max,
                                 with_d2=True)

    def bucket_partial(b: pa.Table) -> pa.Table:
        d2 = np.asarray(b["d2"].to_numpy(zero_copy_only=False), np.float64)
        bk = np.floor(METERS_PER_DEGREE * np.sqrt(d2)
                      / SNAP_BUCKET_M).astype(np.int64)
        u, c = np.unique(bk, return_counts=True)
        return pa.table({"bucket": pa.array(u, pa.int64()),
                         "n": pa.array(c.astype(np.int64), pa.int64())})

    # materialize the buckets-bounded histogram BEFORE the empty-guard
    # count(): otherwise the consumer re-executes the entire snap (the
    # count() already ran it once — measured 11.0 s vs 5.5 s at sf0.1)
    out = (snapped.map_batches(bucket_partial, batch_format="pyarrow")
           .groupby("bucket").aggregate(Sum("n", alias_name="n_pages"))
           .materialize())
    _OUT = pa.schema([("bucket", pa.int64()), ("n_pages", pa.int64())])
    if out.count() == 0:
        import ray.data as rd

        return rd.from_arrow(_OUT.empty_table())
    return out


def _snap_sql_cte(pages_tbl: str, ways_path: str) -> str:
    """Shared oracle CTE chain: the pages_nearest_way argmin (vertex L1,
    (dist, way_id) order) carrying coords, then the segment projection with
    the engine's EXACT float64 op order and (d2, seg_idx) tie rule, ending
    at ``pick`` (rn = 1 is the snap row, d2 carried)."""
    from .queries_spatial import NM_SQL

    return f"""g0 AS (
  SELECT url,
         TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 1) AS DOUBLE) AS lat,
         TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 2) AS DOUBLE) AS lon
  FROM {pages_tbl}
), g AS (
  SELECT * FROM g0
  WHERE lat IS NOT NULL AND lon IS NOT NULL AND isfinite(lat) AND isfinite(lon)
),
raw AS (SELECT *, {NM_SQL} AS nm FROM read_parquet('{ways_path}') WHERE tagged),
named AS (SELECT way_id, lats, lons FROM raw WHERE nm <> ''),
v AS (SELECT way_id, unnest(lats) AS vlat, unnest(lons) AS vlon FROM named),
d AS (SELECT g.url, g.lat, g.lon, v.way_id,
             {METERS_PER_DEGREE} * (abs(v.vlat - g.lat) + abs(v.vlon - g.lon)) AS dist
      FROM g, v),
r AS (SELECT url, lat, lon, way_id,
             row_number() OVER (PARTITION BY url ORDER BY dist, way_id) AS rn
      FROM d),
nn AS (SELECT url, lat, lon, way_id FROM r WHERE rn = 1),
seg AS (SELECT way_id, s.k AS seg_idx,
               lons[s.k] AS x1, lats[s.k] AS y1,
               lons[s.k + 1] AS x2, lats[s.k + 1] AS y2
        FROM named,
             LATERAL (SELECT unnest(generate_series(1, len(lats) - 1)) AS k) s),
sc AS (SELECT nn.url, nn.way_id, seg.seg_idx, nn.lon, nn.lat,
              seg.x1, seg.y1, seg.x2 - seg.x1 AS dx, seg.y2 - seg.y1 AS dy
       FROM nn JOIN seg ON seg.way_id = nn.way_id),
sc2 AS (SELECT url, way_id, seg_idx, lon, lat, x1, y1, dx, dy,
               dx * dx + dy * dy AS den,
               (lon - x1) * dx + (lat - y1) * dy AS num
        FROM sc),
sc3 AS (SELECT url, way_id, seg_idx, lon, lat, x1, y1, dx, dy,
               CASE WHEN den = 0 THEN 0.0
                    ELSE least(greatest(num / den, 0.0), 1.0) END AS t
        FROM sc2),
sc4 AS (SELECT url, way_id, seg_idx,
               lon - (x1 + t * dx) AS ex, lat - (y1 + t * dy) AS ey
        FROM sc3),
sc5 AS (SELECT url, way_id, seg_idx, ex * ex + ey * ey AS d2 FROM sc4),
pick AS (SELECT url, way_id, seg_idx, d2,
                row_number() OVER (PARTITION BY url ORDER BY d2, seg_idx)
                  AS rn
         FROM sc5)"""


def pages_segment_snap_sql(pages_tbl: str, ways_path: str) -> str:
    return f"""
WITH {_snap_sql_cte(pages_tbl, ways_path)}
SELECT url, way_id, seg_idx::BIGINT AS seg_idx FROM pick WHERE rn = 1
"""


def snap_distance_profile_sql(pages_tbl: str, ways_path: str) -> str:
    return f"""
WITH {_snap_sql_cte(pages_tbl, ways_path)}
SELECT CAST(floor({METERS_PER_DEGREE} * sqrt(d2) / {SNAP_BUCKET_M}) AS BIGINT)
         AS bucket,
       count(*)::BIGINT AS n_pages
FROM pick WHERE rn = 1 GROUP BY 1
"""
