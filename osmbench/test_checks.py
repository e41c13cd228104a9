"""Each benchmark check passes on a correct output and fails on a corrupted
one (a dropped row, a moved coordinate, a wrong way_id, a duplicated pair).
No Ray needed:

    python3 -m pytest osmbench/test_checks.py -q
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from osm_intersections_ray.sources import synthetic as syn
from osmbench import checks, inputs, run
from osmbench.workloads import WORKLOADS

OUT_SCHEMA = pa.schema([
    ("county", pa.string()), ("lat", pa.float64()), ("lon", pa.float64()),
    ("streets", pa.list_(pa.string())), ("node_id", pa.int64()),
    ("node_id_kind", pa.string()), ("way_ids", pa.list_(pa.int64())),
    ("city", pa.string()), ("source", pa.string()),
])


# --------------------------------------------------------------------------
# intersections_job

@pytest.fixture(scope="module")
def expected():
    return checks.oracle_expectation(syn.build_ways(0.001),
                                     syn.build_boundaries(),
                                     syn.build_county_cities())


def write_output(out_dir, rows_by_county):
    """An output laid out like state.checkpoint.write_partitioned's."""
    for county, keys in rows_by_county.items():
        pdir = os.path.join(out_dir, county.replace(" ", "_"))
        os.makedirs(pdir)
        cols = list(zip(*keys)) if keys else [[]] * len(OUT_SCHEMA)
        tbl = pa.table({f.name: pa.array([list(v) if isinstance(v, tuple)
                                          else v for v in col], f.type)
                        for f, col in zip(OUT_SCHEMA, cols)},
                       schema=OUT_SCHEMA)
        pq.write_table(tbl, os.path.join(pdir, "part-0.parquet"))
        with open(os.path.join(pdir, "_MANIFEST.json"), "w") as f:
            json.dump({"partition": county, "rows": tbl.num_rows}, f)


def rows_of(expected):
    return {c: sorted(cnt.elements(), key=repr) for c, cnt in expected.items()}


def test_written_rows_pass(tmp_path, expected):
    write_output(str(tmp_path), rows_of(expected))
    assert checks.check_written_rows(str(tmp_path), expected) == []


@pytest.mark.parametrize("corrupt", ["drop_row", "move_coordinate",
                                     "wrong_way_id", "duplicate_row"])
def test_written_rows_fail(tmp_path, expected, corrupt):
    rows = rows_of(expected)
    county = next(c for c in sorted(rows) if rows[c])
    r = list(rows[county][0])
    if corrupt == "drop_row":
        rows[county] = rows[county][1:]
    elif corrupt == "move_coordinate":
        r[1] += 1e-6
        rows[county][0] = tuple(r)
    elif corrupt == "wrong_way_id":
        r[6] = (r[6][0] + 1,) + r[6][1:]
        rows[county][0] = tuple(r)
    else:
        rows[county].append(rows[county][0])
    write_output(str(tmp_path), rows)
    assert checks.check_written_rows(str(tmp_path), expected)


def test_manifest_count_mismatch_fails(tmp_path, expected):
    write_output(str(tmp_path), rows_of(expected))
    part = sorted(os.listdir(tmp_path))[0]
    man = os.path.join(tmp_path, part, "_MANIFEST.json")
    with open(man) as f:
        m = json.load(f)
    m["rows"] += 1
    with open(man, "w") as f:
        json.dump(m, f)
    assert checks.check_written_rows(str(tmp_path), expected)


def test_resume_checks(tmp_path, expected):
    write_output(str(tmp_path), rows_of(expected))
    before = checks.snapshot_output(str(tmp_path))
    clean = {"partitions": {}, "skipped": sorted(before)}
    assert checks.check_resume(clean, before, before) == []
    wrote = {"partitions": {"Alpha_County": 3}, "skipped": sorted(before)}
    assert checks.check_resume(wrote, before, before)
    part = sorted(before)[0]
    with open(os.path.join(tmp_path, part, "_MANIFEST.json"), "a") as f:
        f.write(" ")
    assert checks.check_resume(clean, before,
                               checks.snapshot_output(str(tmp_path)))


# --------------------------------------------------------------------------
# pages_geojoin

@pytest.fixture(scope="module")
def geo_case():
    rng = np.random.default_rng(5)
    ways = syn.build_ways(0.001)
    bd = syn.build_boundaries()
    lat, lon = inputs.draw_page_coords(300, rng, 0.0, 0.0)
    urls = [f"https://example.org/p{i}" for i in range(300)]
    geo = checks.Geometry(ways, bd)
    sample = np.arange(300)
    nearest = geo.nearest(lat, lon)
    good = {
        "join": pa.table({
            "url": [urls[i] for i in sample for _ in geo.bbox_ways(lat[i],
                                                                   lon[i])],
            "way_id": pa.array([w for i in sample
                                for w in geo.bbox_ways(lat[i], lon[i])],
                               pa.int64())}),
        "nearest": pa.table({"url": urls,
                             "way_id": pa.array(nearest, pa.int64())}),
        "snap": pa.table({"url": urls,
                          "way_id": pa.array(nearest, pa.int64()),
                          "seg_idx": pa.array([geo.snap(int(w), lat[i],
                                                        lon[i])
                                               for i, w in enumerate(nearest)],
                                              pa.int64())}),
        "city": pa.table({"url": urls,
                          "city": [geo.city(lat[i], lon[i])
                                   for i in range(300)]}),
        "geotag": pa.table({"url": urls, "lat": lat, "lon": lon}),
    }
    return geo, urls, lat, lon, sample, good


def run_geo_check(kind, tbl, case):
    geo, urls, lat, lon, sample, _good = case
    if kind == "geotag":
        return checks.check_geotags(tbl, urls, lat, lon)
    fn = {"join": checks.check_way_join, "nearest": checks.check_nearest,
          "snap": checks.check_snap, "city": checks.check_city}[kind]
    return fn(tbl, geo, urls, lat, lon, sample)


@pytest.mark.parametrize("kind", ["join", "nearest", "snap", "city",
                                  "geotag"])
def test_geo_checks_pass(kind, geo_case):
    assert run_geo_check(kind, geo_case[-1][kind], geo_case) == []


def _with_column(tbl, name, values):
    i = tbl.schema.get_field_index(name)
    return tbl.set_column(i, name, pa.array(values, tbl.schema.field(i).type))


@pytest.mark.parametrize("kind,corrupt", [
    ("join", "drop_row"), ("join", "duplicate_row"), ("join", "wrong_way_id"),
    ("nearest", "drop_row"), ("nearest", "duplicate_row"),
    ("nearest", "wrong_way_id"),
    ("snap", "drop_row"), ("snap", "wrong_seg_idx"), ("snap", "wrong_way_id"),
    ("city", "drop_row"), ("city", "wrong_city"),
    ("geotag", "drop_row"), ("geotag", "move_coordinate"),
])
def test_geo_checks_fail(kind, corrupt, geo_case):
    tbl = geo_case[-1][kind]
    if corrupt == "drop_row":
        tbl = tbl.slice(1)
    elif corrupt == "duplicate_row":
        tbl = pa.concat_tables([tbl, tbl.slice(0, 1)])
    elif corrupt == "wrong_way_id":
        w = tbl["way_id"].to_pylist()
        w[0] += 1
        tbl = _with_column(tbl, "way_id", w)
    elif corrupt == "wrong_seg_idx":
        s = tbl["seg_idx"].to_pylist()
        s[0] += 1
        tbl = _with_column(tbl, "seg_idx", s)
    elif corrupt == "wrong_city":
        c = tbl["city"].to_pylist()
        c[0] = "Betaville" if c[0] != "Betaville" else "Alphaville"
        tbl = _with_column(tbl, "city", c)
    elif corrupt == "move_coordinate":
        la = tbl["lat"].to_pylist()
        la[0] += 1e-9
        tbl = _with_column(tbl, "lat", la)
    assert run_geo_check(kind, tbl, geo_case)


def test_brute_force_matches_duckdb_oracle(tmp_path, geo_case):
    """The benchmark's nearest-way brute force agrees with the engine's own
    DuckDB oracle for pages_nearest_way on the same pages."""
    import duckdb

    from osm_intersections_ray.stages.knn import pages_nearest_way_sql

    geo, urls, lat, lon, _sample, good = geo_case
    html = inputs.set_geotags(
        [b'<meta name="geo.position" content="0;0">'] * len(urls), lat, lon)
    pq.write_table(pa.table({"url": urls, "html": pa.array(html, pa.binary())}),
                   tmp_path / "pages.parquet")
    pq.write_table(syn.build_ways(0.001), tmp_path / "ways.parquet")
    con = duckdb.connect()
    con.execute(f"CREATE VIEW pages AS SELECT * FROM "
                f"read_parquet('{tmp_path / 'pages.parquet'}')")
    got = dict(con.execute(pages_nearest_way_sql(
        "pages", str(tmp_path / "ways.parquet"))).fetchall())
    want = dict(zip(urls, good["nearest"]["way_id"].to_pylist()))
    assert got == want


# --------------------------------------------------------------------------
# crawl_dedup

def test_extract_check():
    pages = pa.table({"url": ["a", "b", "c"], "text": ["x y", "z", ""]})
    good = pa.table({"url": ["c", "a", "b"],
                     "text_extracted": ["", "x y", "z"]})
    assert checks.check_extract(good, pages) == []
    assert checks.check_extract(good.slice(1), pages)
    bad = _with_column(good, "text_extracted", ["", "x  y", "z"])
    assert checks.check_extract(bad, pages)


def test_pairs_check():
    planted = [(1, 5), (2, 9)]
    good = pa.table({"doc_a": pa.array([1, 2, 3], pa.int64()),
                     "doc_b": pa.array([5, 9, 4], pa.int64()),
                     "n_buckets": pa.array([8, 8, 1], pa.int64())})
    assert checks.check_pairs(good, planted, 8) == []
    assert checks.check_pairs(pa.concat_tables([good, good.slice(2, 1)]),
                              planted, 8)                   # duplicated pair
    assert checks.check_pairs(good.slice(1), planted, 8)     # missing pair
    assert checks.check_pairs(_with_column(good, "doc_a", [5, 2, 3]),
                              planted, 8)                   # unordered pair
    assert checks.check_pairs(_with_column(good, "n_buckets", [7, 8, 1]),
                              planted, 8)                   # not every band


def test_crawl_check():
    oracle = pa.table({"url": ["https://h/1", "https://h/2", "https://g/1"],
                       "host": ["h", "h", "g"],
                       "lang_pred": ["en", "de", "en"],
                       "quality": pa.array([40, 50, 60], pa.int64()),
                       "split": ["train", "test", "train"]})
    assert checks.check_crawl(oracle, oracle, 3) == []
    assert checks.check_crawl(oracle.slice(1), oracle, 3)
    assert checks.check_crawl(pa.concat_tables([oracle, oracle.slice(0, 1)]),
                              oracle, 3)
    assert checks.check_crawl(oracle, oracle, 1)            # over the cap


def test_identical_text_pairs():
    assert inputs.identical_text_pairs(["a", "b", "a", "a"]) == [
        (0, 2), (0, 3), (2, 3)]


# --------------------------------------------------------------------------
# the metric list in BENCHMARK.json is what run.py prints

def test_benchmark_json_matches_run():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == {k: run.unit_of(k) for k in
                   ("setup_s", "round_s", "peak_rss_mb")}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    from osmbench.harness import Tracer

    printed = run._layer_metrics(Tracer(), {}, 0.0)
    assert layers == {k: run.unit_of(k) for k in printed}
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
