"""Run one benchmark workload and print one JSON result line.

    python3 osmbench/run.py --workload intersections_job --seed 1 \
        --seconds 15 --trace 0

Run from anywhere; the engine is imported from the checkout that holds this
file.  With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced round.  Progress
and errors go to stderr; the last stdout line is the result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WATCHDOG_S = 170.0
WORK_DIR = ".osmb"

# per-layer metric -> span or count it is read from (see _layer_metrics)
SPAN_TOTALS = {
    "waydata.small_state_s": "waydata.small_state",
    "waydata.make_s": "waydata.make",
    "intersections_node.join_s": "intersections_node.join",
    "intersections_node.coalesce_s": "intersections_node.coalesce",
    "intersections_geom.s": "intersections_geom",
    "citytag.s": "citytag",
    "checkpoint.write_s": "checkpoint.write",
    "checkpoint.resume_s": "checkpoint.resume",
    "pages.read_s": "pages.read",
    "pages.geotag_s": "pages.geotag",
    "pages.cover_index_s": "pages.cover_index",
    "pages.in_city_s": "pages.in_city",
    "pages.extract_s": "pages.extract",
    "knn.index_build_s": "knn.index_build",
    "dedup.bands_s": "dedup.bands",
    "crawl_corpus.winners_s": "crawl_corpus.winners",
}
SPAN_SELF = {
    "pages.way_join_s": "pages.way_join",
    "knn.probe_s": "knn.probe",
    "knn.snap_s": "knn.snap",
    "dedup.pairs_s": "dedup.pairs",
    "crawl_corpus.join_s": "crawl_corpus.join",
}
COUNTS = {
    "waydata.rows": "waydata.rows",
    "intersections_node.candidates": "intersections_node.candidates",
    "intersections_node.rows": "intersections_node.rows",
    "intersections_geom.pairs_tested": "intersections_geom.pairs_tested",
    "intersections_geom.rows": "intersections_geom.rows",
    "citytag.rows": "citytag.rows",
    "checkpoint.bytes_written": "checkpoint.bytes_written",
    "checkpoint.partitions_written": "checkpoint.partitions_written",
    "checkpoint.resume_partitions_skipped":
        "checkpoint.resume_partitions_skipped",
    "pages.read_bytes": "pages.read_bytes",
    "pages.geotagged": "pages.geotagged",
    "pages.cover_rows": "pages.cover_index.rows",
    "pages.join_rows": "pages.join_rows",
    "pages.extract_bytes": "pages.extract_bytes",
    "knn.index_builds": "knn.index_builds",
    "knn.vertices": "knn.vertices",
    "dedup.band_rows": "dedup.bands.rows",
    "dedup.candidate_pairs": "dedup.candidate_pairs",
    "crawl_corpus.rows_out": "crawl_corpus.rows_out",
}
RATIOS = {  # name -> (numerator count, denominator count)
    "intersections_node.yield": ("intersections_node.rows",
                                 "intersections_node.candidates"),
    "intersections_geom.yield": ("intersections_geom.rows",
                                 "intersections_geom.pairs_tested"),
}
CALL_TIMES = ("job_s", "resume_s", "tile_join_s", "in_city_s",
              "nearest_way_s", "segment_snap_s", "extract_s", "minhash_s",
              "crawl_corpus_s")


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s") or name in ("intersections_geom.s", "citytag.s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("yield") or name.endswith("skew"):
        return "ratio"
    return "count"


def _layer_metrics(tr, call_medians: dict, round_s: float) -> dict:
    vals = {}
    for name, span in SPAN_TOTALS.items():
        vals[name] = tr.total(span)
    for name, span in SPAN_SELF.items():
        vals[name] = tr.self_time(span)
    for name, key in COUNTS.items():
        vals[name] = tr.counts.get(key, 0)
    for name, (num, den) in RATIOS.items():
        d = tr.counts.get(den, 0)
        vals[name] = tr.counts.get(num, 0) / d if d else 0.0
    vals.update(tr.ray_metrics())
    vals["trace.total_s"] = tr.total("round")
    vals["trace.overhead_s"] = vals["trace.total_s"] - round_s
    for name in CALL_TIMES:
        vals[name] = call_medians.get(name, 0.0)
    return vals


def log(msg: str) -> None:
    print(f"[osmbench] {msg}", file=sys.stderr, flush=True)


def engine_present() -> bool:
    return os.path.isfile(os.path.join(ROOT, "osm_intersections_ray",
                                       "__init__.py"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not engine_present():
        log(f"no osm_intersections_ray package next to {HERE}; "
            f"run from a checkout of the engine")
        return 2
    # Ray workers do not inherit this process's sys.path: hand them the
    # checkout through the environment the local cluster is started with.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p])
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    sys.path.insert(0, ROOT)

    from osmbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        return 2

    import ray  # noqa: F401  (psutil ships inside Ray's thirdparty_files)
    import psutil

    t_start = psutil.Process().create_time()
    # kept short: it is also Ray's temp dir, and Ray's unix socket paths
    # under it must fit in 107 bytes
    work = os.path.join(ROOT, WORK_DIR, str(os.getpid()))
    os.makedirs(work)

    from osmbench import harness

    def on_timeout():
        log(f"run exceeded {WATCHDOG_S:.0f} s; stopping")
        harness.stop_processes(harness.descendants(), grace=0)
        shutil.rmtree(work, ignore_errors=True)
        os._exit(3)

    try:
        with harness.watchdog(WATCHDOG_S, on_timeout):
            result = _run(args, work, t_start, harness,
                          WORKLOADS[args.workload])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print(json.dumps(result))
    return 0


def _run(args, work, t_start, harness, workload_cls) -> dict:
    from osmbench.workloads import Round

    session = harness.Session(ROOT, work)
    sampler = harness.RssSampler()
    rounds, outputs = [], []

    def run_round():
        rnd = Round()
        outputs.append(wl.round(rnd, len(rounds)))
        rounds.append(rnd)
        return rnd

    try:
        wl = workload_cls(work, args.seed)
        session.open()
        log(f"workers import the engine from {session.engine_file}")
        sampler.start()
        run_round()  # warm-up: worker spawn, actor pools, imports
        setup_s = time.time() - t_start
        wl.expect()
        timed = []
        t0 = time.perf_counter()
        while not timed or time.perf_counter() - t0 < args.seconds:
            timed.append(run_round())
        traced = None
        if args.trace:
            traced = harness.Tracer()
            try:
                with traced.span("round"):
                    outputs.append(wl.traced(traced))
            except Exception as e:  # counted like a failed plain call
                log(f"traced round failed: {type(e).__name__}: {e}")
                traced = None
        sampler.stop()
        failures = [f for out in outputs for f in wl.check(out)]
    finally:
        sampler.stop()
        session.close()
    for f in failures:
        log(f"CHECK FAILED: {f}")
    for e in (e for r in rounds for e in r.errors):
        log(f"CALL FAILED: {e}")
    log(f"{len(timed)} timed rounds: {[round(r.total, 3) for r in timed]} s")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    round_s = harness.median([r.total for r in timed])
    if args.trace:
        attempted += 1
        failed += traced is None
        calls = {op: harness.median([r.times[op] for r in timed
                                     if op in r.times]) for op in wl.ops}
        vals = _layer_metrics(traced or harness.Tracer(), calls, round_s)
    else:
        vals = {"setup_s": setup_s, "round_s": round_s,
                "peak_rss_mb": sampler.peak / 1e6}
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)}
                        for k, v in vals.items()}}


if __name__ == "__main__":
    sys.exit(main())
