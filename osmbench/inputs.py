"""Seeded workload inputs, built from the engine's public
``sources.synthetic`` generators and written under the run's work dir.

The generators themselves take no seed (they are fixed test fixtures), so the
seed varies what the benchmark does with their output:

* the whole world (ways and city boundaries) is translated by a seeded
  offset, which moves every way against the 0.01-degree cells, the res-14..17
  tiles and the kNN supercells;
* page coordinates are redrawn from the generator's own mixture (80% in a
  city, 15% in the city-free southern band, 5% far outside) and written into
  the html ``geo.position`` tag;
* row order is shuffled (pages) or the county blocks are permuted (ways,
  keeping the within-county order the reference semantics depend on);
* the crawl corpus gets seeded hosts from a Zipf draw, planted identical-text
  pages and planted URL variants of other pages.

Sizes are fixed per workload, so timings compare across seeds.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from osm_intersections_ray.sources import synthetic as syn

# Fixed sizes per workload.
JOB_WAYS_SCALE = 0.01        # 804 ways per two-county world
JOB_REPLICAS = 4             # 8 counties, 3,216 ways
GEO_WAYS_SCALE = 0.001       # 136 ways
GEO_PAGES_SCALE = 0.02       # 20,000 pages
CRAWL_PAGES_SCALE = 0.02     # 20,000 pages
CRAWL_HOSTS = 4000           # host ids a Zipf draw folds into
CRAWL_ZIPF_A = 1.3
CRAWL_TEXT_DUP_PAIRS = 600   # pages whose text is copied from another page
CRAWL_URL_DUP_PAIRS = 400    # pages whose url becomes a variant of another's
PAGE_SHARDS = 8

MAX_SHIFT_DEG = 0.3

_GEO_TAG_RE = re.compile(r'<meta name="geo\.position" content="[^"]*">')
_ARTICLE_RE = re.compile(r"<article>.*?</article>", re.S)


def rng_for(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


def _shift_lists(col: pa.ChunkedArray, d: float) -> pa.Array:
    arr = col.combine_chunks()
    # offsets index into .values (not into a sliced flatten())
    vals = pc.add(arr.values, pa.scalar(d, pa.float64()))
    return pa.ListArray.from_arrays(arr.offsets, vals)


def translate_ways(ways: pa.Table, dlat: float, dlon: float) -> pa.Table:
    """Every vertex and bbox bound moved by (dlat, dlon).  Float addition is
    monotone, so the shifted bbox is still the min/max of the shifted
    vertices."""
    cols = {name: ways[name] for name in ways.schema.names}
    for c, d in (("minlat", dlat), ("maxlat", dlat),
                 ("minlon", dlon), ("maxlon", dlon)):
        cols[c] = pc.add(ways[c], pa.scalar(d, pa.float64()))
    cols["lats"] = _shift_lists(ways["lats"], dlat)
    cols["lons"] = _shift_lists(ways["lons"], dlon)
    return pa.table(cols, schema=ways.schema)


def translate_boundaries(bd: pa.Table, dlat: float, dlon: float) -> pa.Table:
    geoms = []
    for g in bd["geom_json"].to_pylist():
        rings = json.loads(g)
        geoms.append(json.dumps(
            [[[xy[0] + dlon, xy[1] + dlat] for xy in ring] for ring in rings]))
    return bd.set_column(bd.schema.get_field_index("geom_json"), "geom_json",
                         pa.array(geoms, pa.string()))


def _world(scale: float, replicas: int, rng: np.random.Generator):
    dlat, dlon = rng.uniform(-MAX_SHIFT_DEG, MAX_SHIFT_DEG, 2)
    ways = syn.replicate_world(syn.build_ways(scale), replicas, "ways")
    bd = syn.replicate_world(syn.build_boundaries(), replicas, "boundaries")
    cc = syn.replicate_world(syn.build_county_cities(), replicas,
                             "county_cities")
    ways = translate_ways(ways, float(dlat), float(dlon))
    bd = translate_boundaries(bd, float(dlat), float(dlon))
    # permute whole county blocks; the order inside a county is input order
    counties = list(dict.fromkeys(ways["county"].to_pylist()))
    order = [counties[i] for i in rng.permutation(len(counties))]
    ways = pa.concat_tables(
        [ways.filter(pc.equal(ways["county"], c)) for c in order])
    return ways, bd, cc, (float(dlat), float(dlon))


def _write_pages(tbl: pa.Table, out_dir: str) -> None:
    os.makedirs(out_dir)
    step = -(-tbl.num_rows // PAGE_SHARDS)
    for i in range(PAGE_SHARDS):
        pq.write_table(tbl.slice(i * step, step),
                       os.path.join(out_dir, f"part-{i:05d}.parquet"),
                       row_group_size=8192)


def _city_rects(dlat: float, dlon: float) -> list[tuple]:
    rects = [c["rect"] for county in syn.WORLD["counties"]
             for c in county["cities"]]
    return [(la0 + dlat, lo0 + dlon, la1 + dlat, lo1 + dlon)
            for la0, lo0, la1, lo1 in rects]


def draw_page_coords(n: int, rng: np.random.Generator, dlat: float,
                     dlon: float) -> tuple[np.ndarray, np.ndarray]:
    """The generator's coordinate mixture (synthetic.build_pages), drawn
    from ``rng`` and translated with the world."""
    rects = _city_rects(dlat, dlon)
    kind = rng.random(n)
    ci = rng.integers(0, len(rects), n)
    u1, u2 = rng.random(n), rng.random(n)
    lat = np.empty(n)
    lon = np.empty(n)
    for k, (la0, lo0, la1, lo1) in enumerate(rects):
        m = ci == k
        lat[m] = la0 + u1[m] * (la1 - la0)
        lon[m] = lo0 + u2[m] * (lo1 - lo0)
    band = kind > 0.80
    lat[band] = 36.905 + dlat + u1[band] * 0.11
    lon[band] = -122.39 + dlon + u2[band] * 0.85
    outside = kind > 0.95
    lat[outside] = 35.0 + dlat + u1[outside] * 1.0
    lon[outside] = -120.0 + dlon + u2[outside] * 1.0
    return lat, lon


def set_geotags(html: list[bytes], lat: np.ndarray, lon: np.ndarray) -> list:
    out = []
    for h, la, lo in zip(html, lat.tolist(), lon.tolist()):
        tag = f'<meta name="geo.position" content="{la!r};{lo!r}">'
        out.append(_GEO_TAG_RE.sub(tag, h.decode("utf-8"), count=1)
                   .encode("utf-8"))
    return out


@dataclass
class JobInputs:
    fixture_dir: str
    ways: pa.Table
    boundaries: pa.Table
    county_cities: pa.Table


@dataclass
class GeoInputs:
    ways_path: str
    pages_dir: str
    boundaries: pa.Table
    ways: pa.Table
    urls: list
    lat: np.ndarray
    lon: np.ndarray


@dataclass
class CrawlInputs:
    pages_dir: str
    pages: pa.Table
    doc_ids: dict                     # url -> doc_id (input row)
    planted_pairs: list = field(default_factory=list)  # (doc_a, doc_b)


def make_job_inputs(work: str, seed: int) -> JobInputs:
    ways, bd, cc, _shift = _world(JOB_WAYS_SCALE, JOB_REPLICAS,
                                 rng_for(seed, "intersections_job"))
    fx = os.path.join(work, "fixture")
    os.makedirs(fx)
    pq.write_table(ways, os.path.join(fx, "ways.parquet"), row_group_size=4096)
    pq.write_table(bd, os.path.join(fx, "boundaries.parquet"))
    pq.write_table(cc, os.path.join(fx, "county_cities.parquet"))
    return JobInputs(fx, ways, bd, cc)


def make_geo_inputs(work: str, seed: int) -> GeoInputs:
    rng = rng_for(seed, "pages_geojoin")
    ways, bd, _cc, (dlat, dlon) = _world(GEO_WAYS_SCALE, 1, rng)
    pages = syn.build_pages(GEO_PAGES_SCALE)
    lat, lon = draw_page_coords(pages.num_rows, rng, dlat, dlon)
    html = set_geotags(pages["html"].to_pylist(), lat, lon)
    pages = pages.set_column(pages.schema.get_field_index("html"), "html",
                             pa.array(html, pa.binary()))
    perm = rng.permutation(pages.num_rows)
    pages = pages.take(pa.array(perm))
    lat, lon = lat[perm], lon[perm]
    ways_path = os.path.join(work, "ways.parquet")
    pq.write_table(ways, ways_path, row_group_size=4096)
    pages_dir = os.path.join(work, "pages.parquet")
    _write_pages(pages, pages_dir)
    return GeoInputs(ways_path, pages_dir, bd, ways,
                     pages["url"].to_pylist(), lat, lon)


_URL_VARIANTS = (
    lambda host, path: f"https://{host.upper()}{path}",
    lambda host, path: f"https://{host}:443{path}",
    lambda host, path: f"https://{host}{path}/",
    lambda host, path: f"HTTPS://{host}{path}",
)


def make_crawl_inputs(work: str, seed: int) -> CrawlInputs:
    rng = rng_for(seed, "crawl_dedup")
    pages = syn.build_pages(CRAWL_PAGES_SCALE)
    n = pages.num_rows
    # skewed hosts: Zipf ranks folded into CRAWL_HOSTS ids, then a seeded
    # relabelling so the heavy hosts differ per seed
    rank = (rng.zipf(CRAWL_ZIPF_A, n) - 1) % CRAWL_HOSTS
    label = rng.permutation(CRAWL_HOSTS)[rank]
    paths = [u.split("/", 3)[3] for u in pages["url"].to_pylist()]
    hosts = [f"site{h:04d}.example.net" for h in label]
    urls = [f"https://{h}/{p}" for h, p in zip(hosts, paths)]
    texts = pages["text"].to_pylist()
    html = [h.decode("utf-8") for h in pages["html"].to_pylist()]

    picks = rng.permutation(n)
    nt, nu = CRAWL_TEXT_DUP_PAIRS, CRAWL_URL_DUP_PAIRS
    # planted identical text: page dst takes src's article text
    for src, dst in zip(picks[:nt], picks[nt:2 * nt]):
        texts[dst] = texts[src]
        html[dst] = _ARTICLE_RE.sub(f"<article>{texts[src]}</article>",
                                    html[dst], count=1)
    # planted url variants: page dst's url becomes a variant of src's url
    off = 2 * nt
    kinds = rng.integers(0, len(_URL_VARIANTS), nu)
    for src, dst, k in zip(picks[off:off + nu], picks[off + nu:off + 2 * nu],
                           kinds):
        urls[dst] = _URL_VARIANTS[k](hosts[src], "/" + paths[src])

    tbl = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pages["warc_ts"],
        "html": pa.array([h.encode("utf-8") for h in html], pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pages["lang"],
    })
    tbl = tbl.take(pa.array(rng.permutation(n)))
    urls = tbl["url"].to_pylist()
    if len(set(urls)) != n:
        raise RuntimeError("crawl input urls are not unique")
    doc_ids = {u: i for i, u in enumerate(urls)}
    pages_dir = os.path.join(work, "pages.parquet")
    _write_pages(tbl, pages_dir)
    return CrawlInputs(pages_dir, tbl, doc_ids,
                       identical_text_pairs(tbl["text"].to_pylist()))


def identical_text_pairs(texts: list[str]) -> list[tuple[int, int]]:
    """Every (a < b) pair of docs with byte-identical text — the planted
    duplicates plus any the generator made by chance."""
    groups: dict[str, list[int]] = {}
    for i, t in enumerate(texts):
        groups.setdefault(t, []).append(i)
    return [(g[i], g[j]) for g in groups.values() if len(g) > 1
            for i in range(len(g)) for j in range(i + 1, len(g))]
