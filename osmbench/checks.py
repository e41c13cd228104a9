"""Checks of every output a round makes, each against a computation that
does not go through the engine's code path under test.

Every check returns a list of failure messages (empty = pass) and is pure
(pyarrow/numpy in, messages out), so ``test_checks.py`` can show that each
one fails on a corrupted output.  Float comparisons are exact: the brute
force computations below use the same float64 operation order the engine's
documented contracts state, so any difference is a real difference.
"""

from __future__ import annotations

import json
import os
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

METERS_PER_DEGREE = 100000.0
MAX_REPORTED = 3


def _fail(name: str, bad: list) -> list[str]:
    if not bad:
        return []
    return [f"{name}: {len(bad)} mismatches, e.g. {bad[:MAX_REPORTED]}"]


def _multiset_diff(name: str, got: Counter, want: Counter) -> list[str]:
    missing = list((want - got).elements())
    extra = list((got - want).elements())
    out = []
    if missing:
        out.append(f"{name}: {len(missing)} expected rows missing, "
                   f"e.g. {missing[:MAX_REPORTED]}")
    if extra:
        out.append(f"{name}: {len(extra)} unexpected rows, "
                   f"e.g. {extra[:MAX_REPORTED]}")
    return out


# --------------------------------------------------------------------------
# intersections_job

def oracle_row_key(county: str, r: dict) -> tuple:
    return (county, r["lat"], r["lon"], tuple(r["streets"]), r["node_id"],
            r["node_id_kind"], tuple(r["way_ids"]), r["city"], r["source"])


def oracle_expectation(ways: pa.Table, boundaries: pa.Table,
                       county_cities: pa.Table) -> dict[str, Counter]:
    """county -> multiset of rows, from the single-process reference
    oracle run one county at a time (the reference's execution model)."""
    from osm_intersections_ray.oracle.reference_oracle import run_oracle

    out = {}
    for county in sorted(set(ways["county"].to_pylist())):
        out[county] = Counter(oracle_row_key(county, r) for r in
                              run_oracle(ways, boundaries, county_cities,
                                         county))
    return out


def _row_keys(tbl: pa.Table) -> list[tuple]:
    d = tbl.to_pydict()
    return [(d["county"][i], d["lat"][i], d["lon"][i], tuple(d["streets"][i]),
             d["node_id"][i], d["node_id_kind"][i], tuple(d["way_ids"][i]),
             d["city"][i], d["source"][i]) for i in range(tbl.num_rows)]


def snapshot_output(out_dir: str) -> dict:
    """Manifest bytes and parquet file list of every partition dir."""
    snap = {}
    if not os.path.isdir(out_dir):
        return snap
    for part in sorted(os.listdir(out_dir)):
        pdir = os.path.join(out_dir, part)
        if part.startswith(".") or not os.path.isdir(pdir):
            continue
        man = os.path.join(pdir, "_MANIFEST.json")
        snap[part] = {
            "manifest": (open(man, "rb").read() if os.path.exists(man)
                         else None),
            "files": sorted(f for f in os.listdir(pdir)
                            if f.endswith(".parquet")),
        }
    return snap


def check_written_rows(out_dir: str, expected: dict[str, Counter]) -> list[str]:
    """The rows written under ``out_dir``, read back with pyarrow, equal
    the oracle's rows as a multiset; partition counts agree three ways
    (manifest, parquet metadata, oracle)."""
    fails = []
    got: Counter = Counter()
    seen_counties = set()
    for part, info in snapshot_output(out_dir).items():
        pdir = os.path.join(out_dir, part)
        if info["manifest"] is None:
            fails.append(f"partition {part}: no manifest")
            continue
        man = json.loads(info["manifest"])
        tables = [pq.read_table(os.path.join(pdir, f)) for f in info["files"]]
        meta_rows = sum(pq.read_metadata(os.path.join(pdir, f)).num_rows
                        for f in info["files"])
        rows = [k for t in tables for k in _row_keys(t)]
        counties = {k[0] for k in rows}
        if len(counties) > 1:
            fails.append(f"partition {part}: holds counties {sorted(counties)}")
        county = next(iter(counties)) if counties else None
        seen_counties |= counties
        want_n = sum(expected.get(county, Counter()).values())
        if not (man.get("rows") == meta_rows == len(rows) == want_n):
            fails.append(f"partition {part}: manifest {man.get('rows')}, "
                         f"parquet {meta_rows}, read {len(rows)}, "
                         f"oracle {want_n} rows")
        got.update(rows)
    want: Counter = Counter()
    for c in expected.values():
        want.update(c)
    missing_parts = [c for c, rows in expected.items()
                     if rows and c not in seen_counties]
    if missing_parts:
        fails.append(f"no partition for counties {missing_parts}")
    return fails + _multiset_diff("written rows vs oracle", got, want)


def check_resume(report: dict, before: dict, after: dict) -> list[str]:
    """A resume over a completed output writes nothing and leaves every
    manifest and data file as it was."""
    fails = []
    if report.get("partitions"):
        fails.append(f"resume wrote partitions {report['partitions']}")
    if sorted(report.get("skipped", [])) != sorted(before):
        fails.append(f"resume skipped {report.get('skipped')} "
                     f"of {sorted(before)}")
    if before != after:
        changed = sorted(p for p in set(before) | set(after)
                         if before.get(p) != after.get(p))
        fails.append(f"resume changed partitions {changed}")
    return fails


# --------------------------------------------------------------------------
# pages_geojoin

def way_name(name, ref) -> str:
    """The reference's way name: name, then the ';'-split ref tokens."""
    parts = [name] if name else []
    if ref:
        parts.extend(ref.split(";"))
    return ";".join(parts)


class Geometry:
    """Brute-force views of the ways table for the geojoin checks."""

    def __init__(self, ways: pa.Table, boundaries: pa.Table):
        d = ways.to_pydict()
        self.way_id = np.asarray(d["way_id"], np.int64)
        self.bbox = tuple(np.asarray(d[c], np.float64)
                          for c in ("minlat", "minlon", "maxlat", "maxlon"))
        named = [i for i in range(ways.num_rows)
                 if d["tagged"][i] and way_name(d["name"][i], d["ref"][i])]
        self.polyline = {int(d["way_id"][i]): (np.asarray(d["lats"][i]),
                                               np.asarray(d["lons"][i]))
                         for i in named}
        self.v_way = np.concatenate(
            [np.full(len(d["lats"][i]), d["way_id"][i], np.int64)
             for i in named])
        self.v_lat = np.concatenate([np.asarray(d["lats"][i]) for i in named])
        self.v_lon = np.concatenate([np.asarray(d["lons"][i]) for i in named])
        b = boundaries.to_pydict()
        order = sorted(range(boundaries.num_rows),
                       key=lambda i: b["file_order"][i])
        self.cities = [(b["name"][i],
                        [np.asarray(r, np.float64)
                         for r in json.loads(b["geom_json"][i])])
                       for i in order if b["kind"][i] == "city"]

    def bbox_ways(self, lat: float, lon: float) -> list[int]:
        minlat, minlon, maxlat, maxlon = self.bbox
        m = ((lat >= minlat) & (lat <= maxlat)
             & (lon >= minlon) & (lon <= maxlon))
        return self.way_id[m].tolist()

    def nearest(self, lat: np.ndarray, lon: np.ndarray,
                chunk: int = 2048) -> np.ndarray:
        """L1 'Manhattan meters' argmin over every named vertex, ties by
        (distance, way_id)."""
        out = np.empty(lat.size, np.int64)
        big = np.iinfo(np.int64).max
        for s in range(0, lat.size, chunk):
            qa, qo = lat[s:s + chunk, None], lon[s:s + chunk, None]
            d = METERS_PER_DEGREE * (np.abs(self.v_lat[None, :] - qa)
                                     + np.abs(self.v_lon[None, :] - qo))
            dmin = d.min(axis=1, keepdims=True)
            out[s:s + chunk] = np.where(d == dmin, self.v_way[None, :],
                                        big).min(axis=1)
        return out

    def snap(self, way: int, lat: float, lon: float) -> int:
        """1-based index of the segment of ``way`` nearest the point:
        squared distance in degree space, ties to the lowest index."""
        lats, lons = self.polyline[way]
        best_k, best_d2 = -1, np.inf
        for k in range(len(lats) - 1):
            x1, y1, x2, y2 = lons[k], lats[k], lons[k + 1], lats[k + 1]
            dx, dy = x2 - x1, y2 - y1
            den = dx * dx + dy * dy
            num = (lon - x1) * dx + (lat - y1) * dy
            t = 0.0 if den == 0.0 else min(max(num / den, 0.0), 1.0)
            ex = lon - (x1 + t * dx)
            ey = lat - (y1 + t * dy)
            d2 = ex * ex + ey * ey
            if d2 < best_d2:
                best_k, best_d2 = k, d2
        return best_k + 1

    def city(self, lat: float, lon: float) -> str:
        """First city in boundary-file order whose polygon holds the point
        (even-odd ray cast, outer ring minus holes), else Unincorporated."""
        for name, rings in self.cities:
            ins = [_ray_cast(r, lat, lon) for r in rings]
            if ins[0] and not any(ins[1:]):
                return name
        return "Unincorporated"


def _ray_cast(ring: np.ndarray, lat: float, lon: float) -> bool:
    inside = False
    j = len(ring) - 1
    for i in range(len(ring)):
        xi, yi = ring[i]
        xj, yj = ring[j]
        if (yi > lat) != (yj > lat):
            if lon < (xj - xi) * (lat - yi) / (yj - yi) + xi:
                inside = not inside
        j = i
    return inside


def check_exactly_once(name: str, tbl: pa.Table, urls: list) -> list[str]:
    got = Counter(tbl["url"].to_pylist())
    want = set(urls)
    dup = [u for u, c in got.items() if c > 1]
    missing = [u for u in urls if u not in got]
    extra = [u for u in got if u not in want]
    return (_fail(f"{name}: urls output more than once", dup)
            + _fail(f"{name}: geotagged pages missing", missing)
            + _fail(f"{name}: urls not in the input", extra))


def check_geotags(tbl: pa.Table, urls: list, lat: np.ndarray,
                  lon: np.ndarray) -> list[str]:
    want = {u: (a, o) for u, a, o in zip(urls, lat.tolist(), lon.tolist())}
    got = zip(tbl["url"].to_pylist(), tbl["lat"].to_pylist(),
              tbl["lon"].to_pylist())
    bad = [(u, a, o) for u, a, o in got if want.get(u) != (a, o)]
    return (check_exactly_once("geotag", tbl, urls)
            + _fail("geotag vs generator coordinate", bad))


def sample_rows(n: int, k: int, seed: int) -> np.ndarray:
    return np.sort(np.random.default_rng(seed).choice(n, min(n, k),
                                                      replace=False))


def check_way_join(tbl: pa.Table, geo: Geometry, urls: list, lat: np.ndarray,
                   lon: np.ndarray, sample: np.ndarray) -> list[str]:
    """For the sampled pages, the joined (url, way_id) multiset equals
    numpy bbox containment over every way."""
    pick = {urls[i] for i in sample}
    got = Counter((u, w) for u, w in zip(tbl["url"].to_pylist(),
                                         tbl["way_id"].to_pylist())
                  if u in pick)
    want = Counter((urls[i], w) for i in sample
                   for w in geo.bbox_ways(lat[i], lon[i]))
    fails = _multiset_diff("way join vs bbox containment", got, want)
    unknown = set(tbl["url"].to_pylist()) - set(urls)
    return fails + _fail("way join: urls not in the input", sorted(unknown))


def check_nearest(tbl: pa.Table, geo: Geometry, urls: list, lat: np.ndarray,
                  lon: np.ndarray, sample: np.ndarray) -> list[str]:
    got = dict(zip(tbl["url"].to_pylist(), tbl["way_id"].to_pylist()))
    want = geo.nearest(lat[sample], lon[sample])
    bad = [(urls[i], got.get(urls[i]), int(w))
           for i, w in zip(sample, want) if got.get(urls[i]) != w]
    return (check_exactly_once("nearest way", tbl, urls)
            + _fail("nearest way vs brute-force L1 argmin", bad))


def check_snap(tbl: pa.Table, geo: Geometry, urls: list, lat: np.ndarray,
               lon: np.ndarray, sample: np.ndarray) -> list[str]:
    got = {u: (w, s) for u, w, s in zip(tbl["url"].to_pylist(),
                                         tbl["way_id"].to_pylist(),
                                         tbl["seg_idx"].to_pylist())}
    nearest = geo.nearest(lat[sample], lon[sample])
    bad = []
    for i, w in zip(sample, nearest):
        want = (int(w), geo.snap(int(w), lat[i], lon[i]))
        if got.get(urls[i]) != want:
            bad.append((urls[i], got.get(urls[i]), want))
    return (check_exactly_once("segment snap", tbl, urls)
            + _fail("segment snap vs brute-force projection", bad))


def check_city(tbl: pa.Table, geo: Geometry, urls: list, lat: np.ndarray,
               lon: np.ndarray, sample: np.ndarray) -> list[str]:
    got = dict(zip(tbl["url"].to_pylist(), tbl["city"].to_pylist()))
    want = {urls[i]: geo.city(lat[i], lon[i]) for i in sample}
    bad = [(u, got.get(u), c) for u, c in want.items() if got.get(u) != c]
    return (check_exactly_once("in city", tbl, urls)
            + _fail("city vs ray cast", bad))


# --------------------------------------------------------------------------
# crawl_dedup

def check_extract(tbl: pa.Table, pages: pa.Table) -> list[str]:
    want = dict(zip(pages["url"].to_pylist(), pages["text"].to_pylist()))
    got = list(zip(tbl["url"].to_pylist(), tbl["text_extracted"].to_pylist()))
    bad = [u for u, t in got if want.get(u) != t]
    return (check_exactly_once("extract", tbl, list(want))
            + _fail("extracted text vs generator text", bad))


def check_pairs(tbl: pa.Table, planted: list, n_bands: int) -> list[str]:
    a = tbl["doc_a"].to_pylist()
    b = tbl["doc_b"].to_pylist()
    n = tbl["n_buckets"].to_pylist()
    unordered = [(x, y) for x, y in zip(a, b) if not x < y]
    dup = [p for p, c in Counter(zip(a, b)).items() if c > 1]
    shared = dict(zip(zip(a, b), n))
    lost = [p for p in planted if shared.get(p) != n_bands]
    return (_fail("pairs not ordered", unordered)
            + _fail("pairs not unique", dup)
            + _fail(f"identical-text pairs missing or sharing < {n_bands} "
                    f"bands", lost))


def check_crawl(tbl: pa.Table, oracle: pa.Table, host_cap: int) -> list[str]:
    cols = oracle.column_names
    got = Counter(zip(*[tbl[c].to_pylist() for c in cols]))
    want = Counter(zip(*[oracle[c].to_pylist() for c in cols]))
    per_host = Counter(tbl["host"].to_pylist())
    over = [(h, c) for h, c in per_host.items() if c > host_cap]
    dup = [u for u, c in Counter(tbl["url"].to_pylist()).items() if c > 1]
    return (_multiset_diff("crawl_corpus vs DuckDB crawl_corpus_sql",
                           got, want)
            + _fail(f"hosts over the cap of {host_cap}", over)
            + _fail("crawl_corpus urls not unique", dup))


def crawl_oracle(pages_dir: str) -> pa.Table:
    """DuckDB's one-statement crawl_corpus_sql over the same parquet."""
    import duckdb

    from osm_intersections_ray.pipelines.crawl_corpus import crawl_corpus_sql

    con = duckdb.connect()
    try:
        con.execute("SET threads TO 1")
        con.execute("CREATE VIEW pages AS SELECT * FROM read_parquet("
                    f"'{os.path.join(pages_dir, '*.parquet')}')")
        return con.execute(crawl_corpus_sql("pages")).fetch_arrow_table()
    finally:
        con.close()
