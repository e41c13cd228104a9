"""The three workloads: their plain rounds, traced round and checks.

A round is a closed loop: the benchmark calls the engine's public entry
points one after another from this one process, each call starting when the
previous one has returned and its result is materialized, so at most one
call is in flight.  Calls are timed from outside the engine.

The traced round re-runs the same work from this file, one layer at a time,
materializing at each layer boundary inside a span around the call into the
layer's public function.  Where an entry point materializes internally, the
tracer turns that ``materialize()`` into a child span, splitting the entry
point (see ``harness.Tracer.split``).
"""

from __future__ import annotations

import functools
import os
import shutil
import time

import pyarrow as pa

from . import checks, inputs

SAMPLE_PAGES = 2000   # pages per round checked by brute force


class Round:
    """Times the calls of one round; a call that raises counts as failed."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, name: str, fn):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as e:  # a failed engine call is counted, not fatal
            self.failed += 1
            self.errors.append(f"{name}: {type(e).__name__}: {e}")
            return None
        self.times[name] = time.perf_counter() - t0
        return out

    @property
    def total(self) -> float:
        return sum(self.times.values())


def to_table(ds, columns: list[str]) -> pa.Table:
    """Pull a materialized dataset into this process (untimed, for checks)."""
    import ray

    blocks = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not blocks:
        return pa.table({c: pa.array([]) for c in columns})
    return pa.concat_tables(blocks, promote_options="default").select(columns)


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _dirs, files in os.walk(path) for f in files)


def no_augment(b: pa.Table) -> pa.Table:
    """lsh_candidate_pairs augments its input with synthetic near-copies by
    default; the crawl input carries its own planted duplicates."""
    return b


def to_docs(b: pa.Table, doc_ids: dict) -> pa.Table:
    return pa.table({
        "doc_id": pa.array([doc_ids[u] for u in b["url"].to_pylist()],
                           pa.int64()),
        "text": b["text_extracted"]})


class Workload:
    """Inputs made in ``__init__`` (part of set-up); ``ops`` names the
    timed calls of :meth:`round` in order."""

    name = ""
    ops: tuple = ()

    def __init__(self, work: str, seed: int):
        self.work = work
        self.seed = seed

    def expect(self) -> None:
        """Compute what the checks compare against (after set-up)."""

    def round(self, rnd: Round, k: int) -> dict:
        raise NotImplementedError

    def traced(self, tr) -> dict:
        raise NotImplementedError

    def check(self, out: dict) -> list[str]:
        raise NotImplementedError


# --------------------------------------------------------------------------

class IntersectionsJob(Workload):
    """Ways in, city-tagged intersection table out, written resumably per
    county; then the same job again over the finished output."""

    name = "intersections_job"
    ops = ("job_s", "resume_s")

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.inp = inputs.make_job_inputs(work, seed)
        self.expected = None

    def expect(self):
        self.expected = checks.oracle_expectation(
            self.inp.ways, self.inp.boundaries, self.inp.county_cities)

    def _job(self, out_dir: str):
        from osm_intersections_ray.pipelines.intersections import (
            intersections_pipeline)
        from osm_intersections_ray.state.checkpoint import write_partitioned

        return write_partitioned(intersections_pipeline(self.inp.fixture_dir),
                                 out_dir, "county")

    def round(self, rnd, k):
        out_dir = os.path.join(self.work, f"out-{k}")
        rnd.call("job_s", lambda: self._job(out_dir))
        before = checks.snapshot_output(out_dir)
        report = rnd.call("resume_s", lambda: self._job(out_dir))
        return {"out": out_dir, "resume": report or {}, "before": before,
                "after": checks.snapshot_output(out_dir)}

    def traced(self, tr):
        import ray

        from osm_intersections_ray.pipelines import intersections as ip
        from osm_intersections_ray.stages import intersections_geom as geom
        from osm_intersections_ray.stages import intersections_node as nodep
        from osm_intersections_ray.stages import waydata as wd
        from osm_intersections_ray.stages.citytag import (CityTagger,
                                                           load_city_polys)
        from osm_intersections_ray.state.checkpoint import write_partitioned

        cfg = ip.PipelineConfig()
        fx = self.inp.fixture_dir
        with tr.span("waydata.small_state"):
            ways_ds = tr.materialize(ip.load_ways(fx, None, cfg.num_blocks))
            state_ref = ray.put(wd.compute_small_state(ways_ds))

        def make_waydata(b):
            return wd.MakeWayData(state_ref)(b)

        with tr.span("waydata.make"):
            waydata_ds = tr.materialize(
                ways_ds.map_batches(make_waydata, batch_format="pyarrow"))
        tr.count("waydata.rows", waydata_ds.count())

        with tr.span("intersections_node.join"):
            cands = tr.materialize(nodep.eligible_nodes(
                nodep.explode_for_join(waydata_ds, ways_ds, cfg.n_buckets)))
        with tr.span("intersections_node.coalesce"):
            ints = nodep.suffixed(cands, cfg.n_buckets)
            node_rows = tr.materialize(nodep.remove_junctions(
                nodep.coalesced(ints, state_ref, cfg.n_buckets)))
        tr.count("intersections_node.candidates", cands.count())
        tr.count("intersections_node.rows", node_rows.count())

        with tr.span("intersections_geom"):
            mot_ref = ray.put(geom.motorway_cell_set(waydata_ds))
            cells = tr.materialize(geom.explode_cells(waydata_ds, mot_ref))
            geom_rows = tr.materialize(nodep.remove_junctions(
                cells.groupby("gkey").map_groups(geom.pair_kernel,
                                                 batch_format="pandas")))
        tr.count("intersections_geom.pairs_tested", pairs_tested(
            to_table(cells, ["gkey", "highway", "name", "data_rank"])))
        tr.count("intersections_geom.rows", geom_rows.count())

        def finish_node(b):
            return ip._finish(b, source="node", node_col=True)

        def finish_geom(b):
            return ip._finish(b, source="geom", node_col=False)

        with tr.span("citytag"):
            polys_ref = ray.put(load_city_polys(self.inp.boundaries,
                                                self.inp.county_cities))
            tagged = tr.materialize(
                node_rows.map_batches(finish_node, batch_format="pyarrow")
                .union(geom_rows.map_batches(finish_geom,
                                             batch_format="pyarrow"))
                .map_batches(CityTagger, batch_format="pyarrow",
                             concurrency=(1, cfg.tag_concurrency),
                             batch_size=cfg.batch_size,
                             fn_constructor_args=(polys_ref,)))
        tr.count("citytag.rows", tagged.count())

        out_dir = os.path.join(self.work, "out-traced")
        with tr.span("checkpoint.write"):
            rep = write_partitioned(tagged, out_dir, "county")
        tr.count("checkpoint.bytes_written", dir_bytes(out_dir))
        tr.count("checkpoint.partitions_written", len(rep["partitions"]))
        before = checks.snapshot_output(out_dir)
        # the resume exactly as a user reruns the job: the writer is handed
        # the lazy pipeline, so whatever it recomputes is in this span
        with tr.span("checkpoint.resume"):
            rep2 = self._job(out_dir)
        tr.count("checkpoint.resume_partitions_skipped", len(rep2["skipped"]))
        return {"out": out_dir, "resume": rep2, "before": before,
                "after": checks.snapshot_output(out_dir)}

    def check(self, out):
        try:
            return (checks.check_written_rows(out["out"], self.expected)
                    + checks.check_resume(out["resume"], out["before"],
                                          out["after"]))
        finally:
            shutil.rmtree(out["out"], ignore_errors=True)


def pairs_tested(cells: pa.Table) -> int:
    """Crossing tests ``intersections_geom.pair_kernel`` makes: per cell,
    every named motorway row against every other named row."""
    import pandas as pd

    df = cells.to_pandas()
    if df.empty:
        return 0
    named = df["name"].fillna("") != ""
    df = df.assign(named=named, mot=named & (df["highway"] == "motorway"))
    g = df.groupby("gkey").agg(n=("named", "sum"), m=("mot", "sum"))
    return int((g["m"] * (g["n"] - 1)).clip(lower=0).sum())


# --------------------------------------------------------------------------

class PagesGeojoin(Workload):
    """A page corpus many times larger than its ways table: tile join,
    city tagging, nearest way and segment snap."""

    name = "pages_geojoin"
    ops = ("tile_join_s", "in_city_s", "nearest_way_s", "segment_snap_s")

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.inp = inputs.make_geo_inputs(work, seed)
        self.geo = None
        self.sample = None

    def expect(self):
        self.geo = checks.Geometry(self.inp.ways, self.inp.boundaries)
        self.sample = checks.sample_rows(len(self.inp.urls), SAMPLE_PAGES,
                                         self.seed)

    def _pages(self):
        import ray.data as rd

        return rd.read_parquet(self.inp.pages_dir, columns=["url", "html"],
                               override_num_blocks=32)

    def _ways(self):
        import ray.data as rd

        return rd.read_parquet(self.inp.ways_path, override_num_blocks=16)

    def round(self, rnd, k):
        from osm_intersections_ray.stages import knn
        from osm_intersections_ray.stages import pages as pg

        out = {}
        for op, key, cols, fn in (
                ("tile_join_s", "join", ["url", "way_id"],
                 lambda: pg.pages_way_join(self._pages(), self._ways())),
                ("in_city_s", "city", ["url", "city"],
                 lambda: pg.pages_in_city(self._pages(), self.inp.boundaries)),
                ("nearest_way_s", "nearest", ["url", "way_id"],
                 lambda: knn.pages_nearest_way(self._pages(), self._ways())),
                ("segment_snap_s", "snap", ["url", "way_id", "seg_idx"],
                 lambda: knn.pages_segment_snap(self._pages(), self._ways()))):
            ds = rnd.call(op, lambda: fn().materialize())
            out[key] = to_table(ds, cols) if ds is not None else None
        return out

    def traced(self, tr):
        from osm_intersections_ray.stages import knn
        from osm_intersections_ray.stages import pages as pg

        with tr.span("pages.read"):
            pages_ds = tr.materialize(self._pages())
        tr.count("pages.read_bytes", pages_ds.size_bytes())
        ways_ds = tr.materialize(self._ways())
        with tr.span("pages.geotag"):
            geo = tr.materialize(pages_ds.map_batches(
                pg.geotag_batch, batch_format="pyarrow", batch_size=4096))
        tr.count("pages.geotagged", geo.count())
        out = {"geotag": to_table(geo, ["url", "lat", "lon"])}

        orig_build = knn.build_region_index_refs

        def build_index(vertices_ds):
            with tr.span("knn.index_build"):
                vertices = tr.materialize(vertices_ds)
                tr.count("knn.index_builds", 1)
                tr.count("knn.vertices", vertices.count())
                return orig_build(vertices)

        with tr.span("pages.way_join"), tr.split(["pages.cover_index"]):
            join = tr.materialize(pg.pages_way_join(pages_ds, ways_ds))
        with tr.span("pages.in_city"):
            city = tr.materialize(pg.pages_in_city(pages_ds,
                                                   self.inp.boundaries))
        knn.build_region_index_refs = build_index
        try:
            with tr.span("knn.probe"):
                nearest = tr.materialize(
                    knn.pages_nearest_way(pages_ds, ways_ds))
            with tr.span("knn.snap"):
                snap = tr.materialize(
                    knn.pages_segment_snap(pages_ds, ways_ds))
        finally:
            knn.build_region_index_refs = orig_build
        tr.count("pages.join_rows", join.count())
        out.update({
            "join": to_table(join, ["url", "way_id"]),
            "city": to_table(city, ["url", "city"]),
            "nearest": to_table(nearest, ["url", "way_id"]),
            "snap": to_table(snap, ["url", "way_id", "seg_idx"]),
        })
        return out

    def check(self, out):
        inp = self.inp
        args = (self.geo, inp.urls, inp.lat, inp.lon, self.sample)
        fails = []
        for key, check in (("join", checks.check_way_join),
                           ("city", checks.check_city),
                           ("nearest", checks.check_nearest),
                           ("snap", checks.check_snap)):
            if out[key] is not None:  # a failed call is counted in `failed`
                fails += check(out[key], *args)
        if "geotag" in out:
            fails += checks.check_geotags(out["geotag"], inp.urls, inp.lat,
                                          inp.lon)
        return fails


# --------------------------------------------------------------------------

class CrawlDedup(Workload):
    """Seeded crawl pages over many skewed hosts with planted duplicates:
    html extraction, MinHash-LSH pairs and the crawl-to-corpus pipeline."""

    name = "crawl_dedup"
    ops = ("extract_s", "minhash_s", "crawl_corpus_s")
    oracle_columns = ["url", "host", "lang_pred", "quality", "split"]

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.inp = inputs.make_crawl_inputs(work, seed)
        self.oracle = None

    def expect(self):
        self.oracle = checks.crawl_oracle(self.inp.pages_dir)

    def _pages(self, columns):
        import ray.data as rd

        return rd.read_parquet(self.inp.pages_dir, columns=columns,
                               override_num_blocks=32)

    @staticmethod
    def _extract(pages_ds):
        from osm_intersections_ray.stages.pages import Extractor

        return pages_ds.map_batches(Extractor, batch_format="pyarrow",
                                    concurrency=(1, 8), batch_size=4096)

    def _pairs(self, extracted):
        from osm_intersections_ray.stages.dedup import lsh_candidate_pairs

        docs = extracted.map_batches(
            functools.partial(to_docs, doc_ids=self.inp.doc_ids),
            batch_format="pyarrow")
        return lsh_candidate_pairs(docs, augment_fn=no_augment)

    def round(self, rnd, k):
        from osm_intersections_ray.pipelines.crawl_corpus import crawl_corpus

        out = {"extract": None, "pairs": None, "crawl": None}
        ex = rnd.call("extract_s", lambda: self._extract(
            self._pages(["url", "html"])).materialize())
        if ex is not None:
            out["extract"] = to_table(ex, ["url", "text_extracted"])
            pairs = rnd.call("minhash_s",
                             lambda: self._pairs(ex).materialize())
            if pairs is not None:
                out["pairs"] = to_table(pairs, ["doc_a", "doc_b",
                                                "n_buckets"])
        cc = rnd.call("crawl_corpus_s", lambda: crawl_corpus(
            self._pages(["url", "warc_ts", "html"])).materialize())
        if cc is not None:
            out["crawl"] = to_table(cc, self.oracle_columns)
        return out

    def traced(self, tr):
        from osm_intersections_ray.pipelines.crawl_corpus import crawl_corpus

        with tr.span("pages.read"):
            pages_ds = tr.materialize(self._pages(["url", "warc_ts", "html"]))
        tr.count("pages.read_bytes", pages_ds.size_bytes())
        with tr.span("pages.extract"):
            ex = tr.materialize(self._extract(pages_ds))
        tr.count("pages.extract_bytes", ex.size_bytes())
        with tr.span("dedup.pairs"), tr.split(["dedup.bands"]):
            pairs = tr.materialize(self._pairs(ex))
        tr.count("dedup.candidate_pairs", pairs.count())
        with tr.span("crawl_corpus.join"), \
                tr.split(["crawl_corpus.winners"]):
            cc = tr.materialize(crawl_corpus(pages_ds))
        tr.count("crawl_corpus.rows_out", cc.count())
        return {"extract": to_table(ex, ["url", "text_extracted"]),
                "pairs": to_table(pairs, ["doc_a", "doc_b", "n_buckets"]),
                "crawl": to_table(cc, self.oracle_columns)}

    def check(self, out):
        from osm_intersections_ray.stages import curation, dedup

        fails = []
        if out["extract"] is not None:
            fails += checks.check_extract(out["extract"], self.inp.pages)
        if out["pairs"] is not None:
            fails += checks.check_pairs(out["pairs"], self.inp.planted_pairs,
                                        dedup.NUM_PERM // dedup.BAND_ROWS)
        if out["crawl"] is not None:
            fails += checks.check_crawl(out["crawl"], self.oracle,
                                        curation.HOST_CAP)
        return fails


WORKLOADS = {w.name: w for w in (IntersectionsJob, PagesGeojoin, CrawlDedup)}
