"""Common-Crawl-style pages pipeline (the web-scale graft, BASELINE.json
input_hint): text extraction, geotagging, quadkey tile assignment, and the
pages<->ways spatial join.

* **Extractor (T6)**: a stateless ``map_batches`` task stage; the per-row
  invariant is byte-identical extracted text per url (verified row-wise
  against the ``text`` column and by the DuckDB regexp oracle).
* **Geotag**: compiled-regex parse of the geo.position meta tag ->
  (lat, lon) + res-17 quadkey tile.  Vectorized over the batch.
* **Tile join (J12)**: pages probe their res-14..17 ancestor-tile chain
  against compacted mixed-resolution covers of the way bboxes (H3-compact
  analogue); a bbox containment test refines — the cover is a superset of
  the bbox, so the join result equals exact bbox containment (the SQL
  oracle).  Below the ways-cardinality crossover this is a map-side
  BROADCAST join (cover index ray.put once, searchsorted lookup per batch,
  zero shuffle); above it, a salted native hash join where only
  (cell, url/way_id, coords, bbox) rows shuffle — never html.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from ..functions.cells import compacted_cover, tile_of, tile_parent, tile_res
from ..functions.hashing import DUCK_LOWER_TRANS
from .common import n_shards
from .intersections_node import SEP

TILE_RES_MIN = 14
TILE_RES_MAX = 17

_GEO_RE = re.compile(r'<meta name="geo\.position" content="([^;]+);([^"]+)">')


def extract_batch(b: pa.Table) -> pa.Table:
    """html -> (url, text_extracted): the first <article> body, else ''."""
    # zero-copy binary->utf8 cast, then a vectorized (C) regex extract
    ser = b["html"].cast(pa.string()).to_pandas()
    texts = ser.str.extract(r"(?s)<article>(.*?)</article>", expand=False).fillna("")
    return pa.table({"url": b["url"],
                     "text_extracted": pa.array(texts.tolist(), pa.string())})


class Extractor:
    """:func:`extract_batch` as a callable class, for callers that run it in
    an actor pool of their own; the stub shape for a heavier model-based
    extractor whose weights would justify one."""

    def __call__(self, b: pa.Table) -> pa.Table:
        return extract_batch(b)


def extract_sql(table: str = "pages") -> str:
    # non-greedy + dotall, exactly like the engine's '(?s)<article>(.*?)</article>'
    # (greedy '(.*)' would span first-open to last-close on multi-article html,
    # and RE2 '.' excludes newlines without the (?s) flag)
    return (f"SELECT url, regexp_extract(decode(html), "
            f"'(?s)<article>(.*?)</article>', 1) AS text_extracted FROM {table}")


def geotag_batch(b: pa.Table, carry: tuple = ()) -> pa.Table:
    """Pages whose geo.position tag is absent or does not parse to two
    FINITE doubles are DROPPED (they cannot be placed on a tile) — the SQL
    mirrors this with TRY_CAST + isfinite.  ``carry`` names extra input
    columns to pass through for the surviving rows (e.g. ``lang`` for the
    geo-by-content crosses); the default output is unchanged."""
    import pandas as pd

    ser = b["html"].cast(pa.string()).to_pandas()
    ext = ser.str.extract(_GEO_RE.pattern)
    # to_numeric only builds the validity MASK; the kept values re-parse via
    # numpy's strtod (astype), whose last-ulp rounding matches DuckDB's cast
    # (pandas' to_numeric parser can differ in the final bit)
    lat_m = pd.to_numeric(ext[0], errors="coerce").to_numpy(dtype=np.float64)
    lon_m = pd.to_numeric(ext[1], errors="coerce").to_numpy(dtype=np.float64)
    keep = np.isfinite(lat_m) & np.isfinite(lon_m)
    url = b["url"].combine_chunks()
    if isinstance(url, pa.ChunkedArray):
        url = url.chunk(0) if url.num_chunks else pa.array([], pa.string())
    extras = {c: b[c] for c in carry}
    if not keep.all():
        sel = pa.array(np.nonzero(keep)[0].astype(np.int64))
        url, ext = url.take(sel), ext[keep]
        extras = {c: v.take(sel) for c, v in extras.items()}
    lat = ext[0].astype(np.float64).to_numpy()
    lon = ext[1].astype(np.float64).to_numpy()
    n = 1 << TILE_RES_MAX
    ix = np.clip(np.floor((lon + 180.0) / 360.0 * n), 0, n - 1).astype(np.int64)
    iy = np.clip(np.floor((lat + 90.0) / 180.0 * n), 0, n - 1).astype(np.int64)
    tile = (np.int64(TILE_RES_MAX) << 58) | (ix << 29) | iy
    cols = {
        "url": url,
        "lat": pa.array(lat, pa.float64()),
        "lon": pa.array(lon, pa.float64()),
        "tile17": pa.array(tile, pa.int64()),
    }
    cols.update(extras)
    return pa.table(cols)


def geotag_sql(table: str = "pages") -> str:
    n = 1 << TILE_RES_MAX
    return f"""
WITH g0 AS (
  SELECT url,
         TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 1) AS DOUBLE) AS lat,
         TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 2) AS DOUBLE) AS lon
  FROM {table}
), g AS (
  SELECT * FROM g0
  WHERE lat IS NOT NULL AND lon IS NOT NULL AND isfinite(lat) AND isfinite(lon)
)
SELECT url, lat, lon,
       ({TILE_RES_MAX}::BIGINT << 58)
     + (least(greatest(CAST(floor((lon + 180.0) / 360.0 * {n}) AS BIGINT), 0), {n - 1}) << 29)
     + least(greatest(CAST(floor((lat + 90.0) / 180.0 * {n}) AS BIGINT), 0), {n - 1}) AS tile17
FROM g
"""


# Broadcast-regime bounds.  The broadcast is the exploded COVER index:
# 6 x 8-byte columns = 48 B per cover row (ray.put once = one copy per NODE
# in the shared object store, not per worker), and a way bbox compacts to
# ~2-8 cells, so the binding budget is COVER ROWS (~96 MB at the 2M-row cap,
# double-checked on the actual built index before ray.put).  The ways-count
# pre-screen excludes only CERTAIN overflow: every way has >= 1 cover cell,
# so ways > BROADCAST_COVER_ROWS_MAX guarantees the cover count would
# exceed the budget — anything below builds the (distributed, bounded)
# cover index and lets the EXACT ncov guard decide.  Session 17 measured
# why the pre-screen must not be tighter: at r128 (1M ways, 2.5M covers)
# the old 800k pre-screen forced the native route at 63.6 s / 8 cpus while
# the sharded-block-refs index runs the identical join in 15.5 s (4.1x,
# rows identical).  Above either bound the join routes to the native
# variant that carries bboxes through the shuffle instead of broadcasting
# — strictly a memory-bound escape hatch (measured 8-20x slower at every
# size this sandbox can hold).
BROADCAST_WAYS_MAX = 8_000_000  # == BROADCAST_COVER_ROWS_MAX (certain overflow)
BROADCAST_COVER_ROWS_MAX = 8_000_000  # ~384 MB index: one object-store copy
BROADCAST_COVER_SHARDED_MIN = 1_000_000  # above this, sorted-block-refs index
                                         # (driver-side build stops scaling)
# per NODE — trivial against a worker node's memory, and measured 8-20x
# faster than the native shuffle route at every size this sandbox can hold


def pages_way_join(pages_ds, ways_ds, broadcast_ways_max: int = BROADCAST_WAYS_MAX,
                   sharded_min: int | None = None):
    """Cell-keyed join of geotagged pages against way-bbox tile covers,
    refined by exact bbox containment.  Returns (url, way_id).

    Strategy is picked by ways cardinality (``ways_ds.count()`` — metadata
    only for a plain parquet read):

    * ways <= ``broadcast_ways_max`` (the declared-small regime): a TRUE
      map-side broadcast join — the (cellkey -> way, bbox) cover index is
      built distributedly (vectorized :func:`_cover_explode_index`) and
      every pages task does searchsorted lookup + bbox refine inside
      ``map_batches``.  NO all-to-all: the join is embarrassingly parallel
      over pages, which is what the N->4N scaling criterion measures.  The
      index SHIPPING route splits again by cover count:

      - covers <= ``BROADCAST_COVER_SHARDED_MIN``: collected once to the
        driver (48 B/cover row, Arrow-native assembly), argsorted, ONE
        ``ray.put``.
      - covers above that: the driver-side collect+sort+put is
        single-threaded and was the parallelism-independent floor of the
        4x-workload scaling draw (~30 s flat at 8M covers) — instead the
        cover rows are sorted DISTRIBUTEDLY by cellkey and only the sorted
        block refs + per-block key fences broadcast; workers read blocks
        zero-copy from plasma (once per NODE) and two-level searchsorted
        (:func:`_sharded_probe`, straddle-safe across block fences).

    * ways > ``broadcast_ways_max`` or covers past
      ``BROADCAST_COVER_ROWS_MAX``: route to
      :func:`pages_way_join_native` — bboxes ride a salted hash-join
      shuffle, no driver collect, no per-worker O(ways) structure.  All
      three routes produce the identical (url, way_id) set
      (``test_native_join_matches_broadcast``).

    A page's ancestor cells are distinct resolutions of one point and a
    way's compacted cover cells are disjoint regions, so each (page, way)
    pair matches in at most one cell — no post-join dedup is needed."""
    import ray

    from .common import cached_get

    if ways_ds.count() > broadcast_ways_max:
        return pages_way_join_native(pages_ds, ways_ds)

    def cover_rows(b: pa.Table) -> pa.Table:
        idx, cells = _cover_explode_index(b)
        sub = b.select(["way_id", "minlat", "minlon", "maxlat", "maxlon"]).take(
            pa.array(idx, pa.int64()))
        return sub.add_column(0, "cellkey", pa.array(cells, pa.int64()))

    cover_ds = (ways_ds.map_batches(cover_rows, batch_format="pyarrow")
                .materialize())
    ncov = cover_ds.count()  # metadata only after materialize
    if ncov > BROADCAST_COVER_ROWS_MAX:
        # pathological bboxes exploded past the broadcast budget: fall back
        # (at real scale the ways-count pre-screen routes to the native
        # variant before ever getting here)
        return pages_way_join_native(pages_ds, ways_ds)

    if ncov > (BROADCAST_COVER_SHARDED_MIN if sharded_min is None
               else sharded_min):
        # Sharded sorted-block index: the driver-side collect + argsort +
        # ray.put of the whole index is single-threaded AND pays this
        # hypervisor's fresh-page first-touch cost twice (measured ~30 s
        # flat at 8M covers — it was the parallelism-independent floor of
        # the r64 scaling draw).  Instead, sort the cover rows
        # DISTRIBUTEDLY by cellkey and broadcast only the list of sorted
        # block refs + per-block key fences; workers read the blocks
        # zero-copy from plasma (once per NODE, not per worker) and
        # searchsorted within the fenced block.  Nothing index-sized ever
        # passes through the driver.
        sorted_ds = cover_ds.sort("cellkey").materialize()
        refs = sorted_ds.to_arrow_refs()

        @ray.remote(num_cpus=0)
        def _fences(t: pa.Table):
            if t.num_rows == 0 or "cellkey" not in t.column_names:
                return None
            c = t["cellkey"]
            return int(c[0].as_py()), int(c[-1].as_py())

        stats = ray.get([_fences.remote(r) for r in refs])
        keep = [(r, s) for r, s in zip(refs, stats) if s is not None]
        idx_ref = ray.put({
            "mode": "sharded",
            "refs": [r for r, _ in keep],
            "mins": np.array([s[0] for _, s in keep], dtype=np.int64),
            "maxs": np.array([s[1] for _, s in keep], dtype=np.int64),
        })
    else:
        # small regime: one driver pass is cheaper than a distributed sort.
        # Arrow-native assembly — gather straight from the concatenated
        # columns (`to_pandas` consolidation doubled the copies).
        _COV_SCHEMA = pa.schema([
            ("cellkey", pa.int64()), ("way_id", pa.int64()),
            ("minlat", pa.float64()), ("minlon", pa.float64()),
            ("maxlat", pa.float64()), ("maxlon", pa.float64())])
        blocks = [t for t in ray.get(cover_ds.to_arrow_refs())
                  if t.num_rows > 0]  # empty blocks can be schema-less
        cov = (pa.concat_tables(blocks) if blocks else _COV_SCHEMA.empty_table())
        cells = cov["cellkey"].to_numpy(zero_copy_only=False)
        order = np.argsort(cells, kind="stable")
        idx_ref = ray.put({
            "mode": "flat",
            "cells": cells[order],
            "way_id": cov["way_id"].to_numpy(zero_copy_only=False)[order].astype(np.int64),
            "minlat": cov["minlat"].to_numpy(zero_copy_only=False)[order],
            "minlon": cov["minlon"].to_numpy(zero_copy_only=False)[order],
            "maxlat": cov["maxlat"].to_numpy(zero_copy_only=False)[order],
            "maxlon": cov["maxlon"].to_numpy(zero_copy_only=False)[order],
        })

    def lookup(b: pa.Table) -> pa.Table:
        """Map-side join: ancestor-chain cell keys -> searchsorted ranges in
        the broadcast cover index -> vectorized bbox containment."""
        ix = cached_get(idx_ref)
        g = geotag_batch(b)
        n = g.num_rows
        lat = g["lat"].to_numpy(zero_copy_only=False)
        lon = g["lon"].to_numpy(zero_copy_only=False)
        t17 = g["tile17"].to_numpy(zero_copy_only=False).astype(np.int64)
        tx = (t17 >> 29) & ((1 << 29) - 1)
        ty = t17 & ((1 << 29) - 1)
        keys = []
        for res in range(TILE_RES_MAX, TILE_RES_MIN - 1, -1):
            s = TILE_RES_MAX - res
            keys.append((np.int64(res) << 58) | ((tx >> s) << 29) | (ty >> s))
        k = len(keys)
        all_keys = np.concatenate(keys)
        pidx = np.tile(np.arange(n, dtype=np.int64), k)
        if ix["mode"] == "sharded":
            pg, way = _sharded_probe(ix, all_keys, pidx, lat, lon)
        else:
            pg, way = _flat_probe(ix, all_keys, pidx, lat, lon)
        if pg.size == 0:
            return pa.table({"url": pa.array([], pa.string()),
                             "way_id": pa.array([], pa.int64())})
        url = g["url"].combine_chunks()
        if isinstance(url, pa.ChunkedArray):
            url = url.chunk(0) if url.num_chunks else pa.array([], pa.string())
        return pa.table({
            "url": url.take(pa.array(pg)),         # Arrow gather, no Python strings
            "way_id": pa.array(way),
        })

    return pages_ds.map_batches(lookup, batch_format="pyarrow")


def _flat_probe(ix, all_keys, pidx, lat, lon):
    """Probe the single-object sorted index: (page rows, way ids) of every
    bbox-refined hit."""
    lo = np.searchsorted(ix["cells"], all_keys, side="left")
    hi = np.searchsorted(ix["cells"], all_keys, side="right")
    cnt = hi - lo
    tot = int(cnt.sum())
    if tot == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    expand = np.arange(tot, dtype=np.int64) - np.repeat(
        np.cumsum(cnt) - cnt, cnt)
    pos = np.repeat(lo, cnt) + expand          # cover-index row
    pg = np.repeat(pidx, cnt)                  # page row
    plat = lat[pg]
    plon = lon[pg]
    hit = ((plat >= ix["minlat"][pos]) & (plat <= ix["maxlat"][pos])
           & (plon >= ix["minlon"][pos]) & (plon <= ix["maxlon"][pos]))
    return pg[hit], ix["way_id"][pos[hit]]


_COVER_BLOCK_CACHE: dict = {}


def _cover_block(ref):
    """Zero-copy per-process view of one sorted cover block (plasma-backed;
    the Arrow table is pinned in the cache so the numpy views stay valid)."""
    import ray

    key = ref.hex()
    v = _COVER_BLOCK_CACHE.get(key)
    if v is None:
        t = ray.get(ref)
        v = _COVER_BLOCK_CACHE[key] = {
            "_pin": t,
            "cells": t["cellkey"].to_numpy(zero_copy_only=False),
            "way_id": t["way_id"].to_numpy(zero_copy_only=False).astype(
                np.int64, copy=False),
            "minlat": t["minlat"].to_numpy(zero_copy_only=False),
            "minlon": t["minlon"].to_numpy(zero_copy_only=False),
            "maxlat": t["maxlat"].to_numpy(zero_copy_only=False),
            "maxlon": t["maxlon"].to_numpy(zero_copy_only=False),
        }
    return v


def _sharded_probe(ix, all_keys, pidx, lat, lon):
    """Probe the sorted-block-refs index.  A query key's run of equal
    cellkeys normally lives in ONE block (range-partitioned sort) but can
    straddle block boundaries; round r probes block ``first + r`` for the
    keys whose run could continue there (mins fence check), so every row of
    every matching run is visited exactly once."""
    mins, maxs, refs = ix["mins"], ix["maxs"], ix["refs"]
    nb = mins.size
    if nb == 0 or all_keys.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    first = np.searchsorted(maxs, all_keys, side="left")
    out_pg: list = []
    out_way: list = []
    r = 0
    act = np.flatnonzero(first < nb)
    while act.size:
        blk = first[act] + r
        ok = blk < nb
        act, blk = act[ok], blk[ok]
        if r:  # continue into the next block only if its fence admits the key
            ok = mins[blk] <= all_keys[act]
            act, blk = act[ok], blk[ok]
        if act.size == 0:
            break
        order = np.argsort(blk, kind="stable")
        act_o, blk_o = act[order], blk[order]
        bounds = np.flatnonzero(np.diff(blk_o)) + 1
        for s0, s1 in zip(np.concatenate([[0], bounds]),
                          np.concatenate([bounds, [blk_o.size]])):
            bi = int(blk_o[s0])
            v = _cover_block(refs[bi])
            qk = all_keys[act_o[s0:s1]]
            qp = pidx[act_o[s0:s1]]
            lo = np.searchsorted(v["cells"], qk, side="left")
            hi = np.searchsorted(v["cells"], qk, side="right")
            cnt = hi - lo
            tot = int(cnt.sum())
            if tot == 0:
                continue
            expand = np.arange(tot, dtype=np.int64) - np.repeat(
                np.cumsum(cnt) - cnt, cnt)
            pos = np.repeat(lo, cnt) + expand
            pg = np.repeat(qp, cnt)
            plat = lat[pg]
            plon = lon[pg]
            hit = ((plat >= v["minlat"][pos]) & (plat <= v["maxlat"][pos])
                   & (plon >= v["minlon"][pos]) & (plon <= v["maxlon"][pos]))
            if hit.any():
                out_pg.append(pg[hit])
                out_way.append(v["way_id"][pos[hit]])
        # every key continues to round r+1; the NEXT block's min fence at
        # the top of the loop prunes the (overwhelmingly common) keys whose
        # run cannot straddle into it
        r += 1
        act = act_o
    if not out_pg:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(out_pg), np.concatenate(out_way)


def _cover_explode_index(b: pa.Table):
    """(row index array, flat cell array) for the per-way clamped covers,
    fully vectorized.

    Closed form of the clamped compacted cover: a bbox covers an axis-aligned
    rectangle of res-17 tiles, and compacting a tile-rectangle (then
    re-expanding anything coarser than res 14) yields exactly the cells at
    res r in [14, 17] whose res-17 block lies INSIDE the rectangle and
    (r == 14 or the parent's block does NOT lie inside) — maximal-compaction
    by induction on the quartet-merge rule.
    ``tests/test_ops.py::test_cover_explode_vectorized_parity`` asserts
    per-way set-equality with the recursive :func:`_cover_explode_index_ref`
    on random bboxes.
    Per-way cell sets are unchanged (disjoint covers), only emission order
    differs — the downstream cell-keyed join is order-free."""
    minlat = np.asarray(b["minlat"].to_numpy(zero_copy_only=False), np.float64)
    minlon = np.asarray(b["minlon"].to_numpy(zero_copy_only=False), np.float64)
    maxlat = np.asarray(b["maxlat"].to_numpy(zero_copy_only=False), np.float64)
    maxlon = np.asarray(b["maxlon"].to_numpy(zero_copy_only=False), np.float64)
    nw = len(minlat)
    if nw == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    n17 = 1 << TILE_RES_MAX
    # res-17 tile rectangle of each bbox — bit-identical floor/clamp math to
    # cover_bbox_tiles (min bounds clamp at 0, max bounds clamp at n-1)
    x0 = np.maximum(0, np.floor((minlon + 180.0) / 360.0 * n17).astype(np.int64))
    x1 = np.minimum(n17 - 1, np.floor((maxlon + 180.0) / 360.0 * n17).astype(np.int64))
    y0 = np.maximum(0, np.floor((minlat + 90.0) / 180.0 * n17).astype(np.int64))
    y1 = np.minimum(n17 - 1, np.floor((maxlat + 90.0) / 180.0 * n17).astype(np.int64))

    def inner(s: int):
        """Index range [a, b] of res-(17-s) cells whose block fits inside."""
        ax = (x0 + (1 << s) - 1) >> s
        bx = ((x1 + 1) >> s) - 1
        ay = (y0 + (1 << s) - 1) >> s
        by = ((y1 + 1) >> s) - 1
        return ax, bx, ay, by

    idx_parts, cell_parts = [], []
    for res in range(TILE_RES_MIN, TILE_RES_MAX + 1):
        s = TILE_RES_MAX - res
        ax, bx, ay, by = inner(s)
        nx = np.maximum(0, bx - ax + 1)
        ny = np.maximum(0, by - ay + 1)
        tot = nx * ny
        total = int(tot.sum())
        if total == 0:
            continue
        widx = np.repeat(np.arange(nw, dtype=np.int64), tot)
        off = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(tot) - tot, tot)
        X = ax[widx] + off // ny[widx]
        Y = ay[widx] + off % ny[widx]
        if res > TILE_RES_MIN:
            pax, pbx, pay, pby = inner(s + 1)
            par_in = ((X >> 1 >= pax[widx]) & (X >> 1 <= pbx[widx])
                      & (Y >> 1 >= pay[widx]) & (Y >> 1 <= pby[widx]))
            keep = ~par_in
            widx, X, Y = widx[keep], X[keep], Y[keep]
        idx_parts.append(widx)
        cell_parts.append((np.int64(res) << 58) | (X << 29) | Y)
    if not idx_parts:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(idx_parts), np.concatenate(cell_parts)


def _cover_explode_index_ref(b: pa.Table):
    """Recursive-compaction reference implementation (test parity anchor for
    the vectorized :func:`_cover_explode_index`)."""
    minlat = b["minlat"].to_numpy(zero_copy_only=False)
    minlon = b["minlon"].to_numpy(zero_copy_only=False)
    maxlat = b["maxlat"].to_numpy(zero_copy_only=False)
    maxlon = b["maxlon"].to_numpy(zero_copy_only=False)
    idx: list[int] = []
    cells: list[int] = []
    for i in range(b.num_rows):
        cov = _clamped_cover((minlat[i], minlon[i], maxlat[i], maxlon[i]))
        idx.extend([i] * len(cov))
        cells.extend(cov)
    return idx, cells


def _clamped_cover(bb) -> list[int]:
    """Compacted cover of a bbox at res TILE_RES_MAX, with any cell compacted
    coarser than TILE_RES_MIN re-expanded to TILE_RES_MIN children (pages
    probe only the res 14..17 ancestor chain)."""
    from ..functions.cells import tile_children

    out = []
    stack = list(compacted_cover(*bb, TILE_RES_MAX))
    while stack:
        c = stack.pop()
        if tile_res(c) >= TILE_RES_MIN:
            out.append(c)
        else:
            stack.extend(tile_children(c))
    return out


def pages_way_join_native(pages_ds, ways_ds, num_partitions: int = 32,
                          n_salt: int = 4):
    """Scale-path implementation on Ray Data's native hash join
    (``Dataset.join``, Ray >= 2.46): same cell-keyed semantics as
    :func:`pages_way_join` (which routes here above the broadcast-bbox
    cardinality crossover), with bboxes carried THROUGH the shuffle — no
    driver collect, no per-worker O(ways) broadcast.  Hot-cell skew is
    salted the same way as the bucketed variant: the join key is
    (cellkey, salt); pages spread over ``n_salt`` sub-keys, way cover rows
    (the tiny side of each cell) replicate into every sub-key."""

    def pages_cells(b: pa.Table) -> pa.Table:
        g = geotag_batch(b)
        n = g.num_rows
        t17 = g["tile17"].to_numpy(zero_copy_only=False).astype(np.int64)
        ix = (t17 >> 29) & ((1 << 29) - 1)
        iy = t17 & ((1 << 29) - 1)
        cells = []
        for res in range(TILE_RES_MAX, TILE_RES_MIN - 1, -1):
            s = TILE_RES_MAX - res
            cells.append((np.int64(res) << 58) | ((ix >> s) << 29) | (iy >> s))
        k = len(cells)
        idx = np.tile(np.arange(n, dtype=np.int64), k)
        salt = np.arange(n * k, dtype=np.int64) % n_salt
        return pa.table({
            "cellkey": pa.array(np.concatenate(cells), pa.int64()),
            "salt": pa.array(salt),
            "url": g["url"].combine_chunks().take(pa.array(idx)),
            "plat": pa.array(np.tile(g["lat"].to_numpy(zero_copy_only=False), k)),
            "plon": pa.array(np.tile(g["lon"].to_numpy(zero_copy_only=False), k)),
        })

    def ways_cells(b: pa.Table) -> pa.Table:
        idx, cells = _cover_explode_index(b)
        sub = b.select(["way_id", "minlat", "minlon", "maxlat", "maxlon"]).take(
            pa.array(idx, pa.int64()))
        one = sub.add_column(0, "cellkey", pa.array(cells, pa.int64()))
        return pa.concat_tables(
            one.add_column(1, "salt", pa.array(np.full(len(cells), s, np.int64)))
            for s in range(n_salt))

    p = pages_ds.map_batches(pages_cells, batch_format="pyarrow")
    w = ways_ds.map_batches(ways_cells, batch_format="pyarrow")
    from .common import cap_join_partitions

    joined = p.join(w, join_type="inner",
                    num_partitions=cap_join_partitions(num_partitions),
                    on=("cellkey", "salt"))

    def refine(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = pc.and_(
            pc.and_(pc.greater_equal(b["plat"], b["minlat"]),
                    pc.less_equal(b["plat"], b["maxlat"])),
            pc.and_(pc.greater_equal(b["plon"], b["minlon"]),
                    pc.less_equal(b["plon"], b["maxlon"])))
        return b.filter(m).select(["url", "way_id"])

    return joined.map_batches(refine, batch_format="pyarrow")


def pages_way_join_sql(pages_table: str, ways_path: str) -> str:
    """Oracle: exact bbox containment (the cover join + refinement equals it)."""
    return f"""
WITH g0 AS (
  SELECT url,
         TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 1) AS DOUBLE) AS lat,
         TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 2) AS DOUBLE) AS lon
  FROM {pages_table}
), g AS (
  SELECT * FROM g0
  WHERE lat IS NOT NULL AND lon IS NOT NULL AND isfinite(lat) AND isfinite(lon)
)
SELECT g.url, w.way_id
FROM g JOIN read_parquet('{ways_path}') w
  ON g.lat BETWEEN w.minlat AND w.maxlat
 AND g.lon BETWEEN w.minlon AND w.maxlon
"""


_URL_PARTS_RE = r"^https?://([^/]+)/([^/]+)"
_HOST_PARTIAL_SCHEMA = pa.schema([
    ("host", pa.string()), ("section", pa.string()),
    ("n_pages", pa.int64()), ("sum_chars", pa.int64()),
    ("min_ts_us", pa.int64()), ("max_ts_us", pa.int64()),
])


def host_section_stats(pages_ds):
    """Crawl-manifest aggregation: parse (host, first path segment) out of
    every url and reduce to per-(host, section) page counts, total extracted
    chars and the warc_ts coverage window — the per-domain accounting pass a
    Common-Crawl-style pipeline runs before sampling.  Per-batch partial
    combine (pandas C regex extract + groupby) so the shuffle moves one row
    per (host, section) per batch; urls that don't parse are dropped on both
    sides (engine dropna == oracle regexp-miss filter)."""
    import pandas as pd

    from ray.data.aggregate import Max, Min, Sum

    def partial(b: pa.Table) -> pa.Table:
        url = b["url"].to_pandas()
        parts = url.str.extract(_URL_PARTS_RE)
        df = pd.DataFrame({
            "host": parts[0], "section": parts[1],
            "chars": b["text"].to_pandas().str.len().fillna(0).astype("int64"),
            "ts": b["warc_ts"].to_pandas().astype("int64"),
        }).dropna(subset=["host", "section"])
        g = df.groupby(["host", "section"], sort=False).agg(
            n_pages=("ts", "size"), sum_chars=("chars", "sum"),
            min_ts_us=("ts", "min"), max_ts_us=("ts", "max")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False,
                                    schema=_HOST_PARTIAL_SCHEMA).replace_schema_metadata(None)

    partials = pages_ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(["host", "section"]).aggregate(
        Sum("n_pages", alias_name="n_pages"),
        Sum("sum_chars", alias_name="sum_chars"),
        Min("min_ts_us", alias_name="min_ts_us"),
        Max("max_ts_us", alias_name="max_ts_us"),
    )


def host_section_stats_sql(table: str = "pages") -> str:
    return f"""
WITH p AS (
  SELECT regexp_extract(url, '{_URL_PARTS_RE}', 1) AS host,
         regexp_extract(url, '{_URL_PARTS_RE}', 2) AS section,
         length(text) AS chars, epoch_us(warc_ts) AS ts_us
  FROM {table}
)
SELECT host, section, count(*)::BIGINT AS n_pages,
       sum(chars)::BIGINT AS sum_chars,
       min(ts_us)::BIGINT AS min_ts_us, max(ts_us)::BIGINT AS max_ts_us
FROM p
WHERE coalesce(host, '') <> '' AND coalesce(section, '') <> ''
GROUP BY 1, 2
"""


# --- URL canonicalization + canonical-url dedup ----------------------------
# The fixture urls are already clean, so (like the dedup family's augmented
# documents) the query runs over a deterministic messy-twin augmentation
# derived IDENTICALLY in the engine and in SQL: ~19% of clean urls (md5
# first hex digit in 0-2) gain a twin with uppercased scheme+host, explicit
# default port, trailing slashes and a fragment, stamped one hour later.
# Charsets are deliberately ASCII-restricted so Python and DuckDB case
# folding cannot diverge on exotic unicode.
_AUG_URL_RE = r"^https://([a-z0-9.-]+)(/[A-Za-z0-9/._-]*)$"
_CANON_RE = r"^([A-Za-z]+)://([A-Za-z0-9.:_-]*)([^?#]*)(\?[^#]*)?"
N_CANON_SHARDS = 64
_URL_CANON_PARTIAL_SCHEMA = pa.schema([
    ("canon", pa.string()), ("n", pa.int64()), ("key", pa.string()),
    ("cshard", pa.int64()),
])


def url_canonical_dedup(pages_ds):
    """Canonical-URL dedup — the crawl-frontier normalization every web-scale
    pipeline runs before content dedup: lowercase scheme+host, strip the
    scheme's default port, collapse trailing slashes ('' -> '/'), drop the
    fragment, keep the query.  Emits one row per canonical url with the
    duplicate count and the first-seen (warc_ts, url) representative.

    Distributed shape: per-batch partial combine (pandas C-regex parse,
    then sort + drop_duplicates — ~20x faster than a per-group string
    ``min``) so the shuffle moves one row per canonical per batch; the
    first-seen representative rides the shuffle as a zero-padded
    ``ts|url`` string whose minimum IS argmin-by-(ts, url) — no custom
    aggregate, no driver-side state.  The wide step is an integer-sharded
    groupby (canon-hash % {N_CANON_SHARDS}) with the same vectorized
    sort-dedup per shard, not a string-keyed sort exchange.  Urls that
    don't parse as http(s) are dropped on both sides."""
    N_CANON_SHARDS = n_shards()  # cluster-derived (VERDICT r3 #3)
    import hashlib

    import pandas as pd

    def partial(b: pa.Table) -> pa.Table:
        url = b["url"].to_pandas()
        ts = b["warc_ts"].to_pandas().astype("int64")

        # deterministic messy twins
        parts = url.str.extract(_AUG_URL_RE)
        cand = parts[0].notna()
        if cand.any():
            keep = pd.Series(
                [hashlib.md5(u.encode()).hexdigest()[0] in "012"
                 for u in url[cand]], index=url[cand].index)
            cand &= keep
        twin_url = ("HTTPS://" + parts[0][cand].str.upper() + ":443"
                    + parts[1][cand] + "///#dup")
        url = pd.concat([url, twin_url], ignore_index=True)
        ts = pd.concat([ts, ts[cand] + 3_600_000_000], ignore_index=True)

        # canonicalize
        g = url.str.extract(_CANON_RE)
        scheme = g[0].str.translate(DUCK_LOWER_TRANS)
        ok = scheme.isin(["http", "https"])
        scheme, host = scheme[ok], g[1][ok].str.translate(DUCK_LOWER_TRANS)
        path, query = g[2][ok], g[3][ok].fillna("")
        url, ts = url[ok], ts[ok]
        host = host.mask((scheme == "http") & host.str.endswith(":80"),
                         host.str[:-3])
        host = host.mask((scheme == "https") & host.str.endswith(":443"),
                         host.str[:-4])
        path = path.str.replace(r"/+$", "", regex=True)
        path = path.mask(path == "", "/")
        df = pd.DataFrame({
            "canon": scheme + "://" + host + path + query,
            "key": ts.astype(str).str.zfill(20) + "|" + url,
        })
        s = df.sort_values(["canon", "key"], kind="stable")
        g2 = s.drop_duplicates("canon", keep="first").copy()
        g2["n"] = g2["canon"].map(
            s.groupby("canon", sort=False).size()).astype("int64")
        g2["cshard"] = (pd.util.hash_pandas_object(g2["canon"], index=False)
                        .to_numpy() % N_CANON_SHARDS).astype("int64")
        return pa.Table.from_pandas(g2[["canon", "n", "key", "cshard"]],
                                    preserve_index=False,
                                    schema=_URL_CANON_PARTIAL_SCHEMA).replace_schema_metadata(None)

    def per_shard(df: "pd.DataFrame") -> pa.Table:
        s = df.sort_values(["canon", "key"], kind="stable")
        first = s.drop_duplicates("canon", keep="first").copy()
        first["n_urls"] = first["canon"].map(
            s.groupby("canon", sort=False)["n"].sum()).astype("int64")
        key = pa.array(first["key"], pa.string())
        import pyarrow.compute as pc

        return pa.table({
            "canonical_url": pa.array(first["canon"], pa.string()),
            "n_urls": pa.array(first["n_urls"].to_numpy(), pa.int64()),
            "first_ts_us": pc.cast(pc.utf8_slice_codeunits(key, 0, 20), pa.int64()),
            "first_url": pc.utf8_slice_codeunits(key, 21, 2**30),
        })

    return (pages_ds.map_batches(partial, batch_format="pyarrow")
            .groupby("cshard").map_groups(per_shard, batch_format="pandas"))


def url_canonical_dedup_sql(table: str = "pages") -> str:
    return f"""
WITH aug AS (
  SELECT url, epoch_us(warc_ts) AS ts_us FROM {table}
  UNION ALL
  SELECT 'HTTPS://' || upper(regexp_extract(url, '{_AUG_URL_RE}', 1)) || ':443'
           || regexp_extract(url, '{_AUG_URL_RE}', 2) || '///#dup',
         epoch_us(warc_ts) + 3600000000
  FROM {table}
  WHERE regexp_matches(url, '{_AUG_URL_RE}')
    AND substr(md5(url), 1, 1) IN ('0', '1', '2')
),
parsed AS (
  SELECT url, ts_us,
         lower(regexp_extract(url, '{_CANON_RE}', 1)) AS scheme,
         lower(regexp_extract(url, '{_CANON_RE}', 2)) AS hostport,
         regexp_extract(url, '{_CANON_RE}', 3) AS path,
         regexp_extract(url, '{_CANON_RE}', 4) AS query
  FROM aug
),
canon AS (
  SELECT url, ts_us,
         scheme || '://' ||
         CASE WHEN scheme = 'http'  AND hostport LIKE '%:80'
                THEN substr(hostport, 1, length(hostport) - 3)
              WHEN scheme = 'https' AND hostport LIKE '%:443'
                THEN substr(hostport, 1, length(hostport) - 4)
              ELSE hostport END ||
         CASE WHEN regexp_replace(path, '/+$', '') = '' THEN '/'
              ELSE regexp_replace(path, '/+$', '') END ||
         query AS canonical_url
  FROM parsed
  WHERE scheme IN ('http', 'https')
),
agg AS (
  SELECT canonical_url, count(*)::BIGINT AS n_urls,
         min(lpad(ts_us::VARCHAR, 20, '0') || '|' || url) AS mk
  FROM canon GROUP BY 1
)
SELECT canonical_url, n_urls,
       substr(mk, 1, 20)::BIGINT AS first_ts_us,
       substr(mk, 22) AS first_url
FROM agg
"""


# --- Training-mixture domain weights ----------------------------------------
_SITE_RE = r"^[a-z][a-z0-9+.-]*://([^/?#]+/[^/?#]+)"
_MIX_PARTIAL_SCHEMA = pa.schema([
    ("site", pa.string()), ("n_pages", pa.int64()), ("token_mass", pa.int64()),
])


def domain_mix_weights(pages_ds):
    """Per-source sampling weights for training-data mixing: token mass per
    site, square-root temperature smoothing (the standard de-emphasis of
    mega-sources when composing a corpus mix, alpha = 0.5), and each site's
    resulting share in parts-per-million.

    The "site" unit is ``host/<first path segment>`` — the registrable
    source unit of this crawl layout (the fixture serves every section from
    one host, exactly like a CC crawl fronted by one CDN host); at
    planet-crawl scale the same operator runs keyed on the bare host by
    swapping the regex, nothing else changes.

    Distribution shape: per-batch partial (site, n_pages, token_mass) rows
    (pandas C extract + groupby) -> one (site)-keyed groupby -> the global
    weight total is a single scalar aggregate broadcast into a final
    stateless map.  Nothing site-cardinality-sized ever sits on the driver.

    Exactness: ``weight = floor(sqrt(token_mass))`` is bit-identical in
    numpy and DuckDB because IEEE-754 sqrt is correctly rounded and every
    mass here is an exactly-representable int < 2^53 (mis-rounding of
    floor(sqrt) needs the true sqrt within half an ulp of an integer;
    below 2^52 the gap to the nearest integer is >= ~2^-27 >> ulp).
    share_ppm is pure int64 floor division."""
    import pandas as pd
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        url = b["url"].to_pandas()
        site = url.str.extract(_SITE_RE, expand=False)
        toks = b["text"].to_pandas().fillna("").str.count(r"[^\t\n\f\r ]+")
        df = (pd.DataFrame({"site": site,
                            "mass": toks.to_numpy(dtype=np.int64)})
              .dropna(subset=["site"]))
        g = df.groupby("site", sort=False).agg(
            n_pages=("mass", "size"), token_mass=("mass", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False,
                                    schema=_MIX_PARTIAL_SCHEMA).replace_schema_metadata(None)

    sites = (pages_ds.map_batches(partial, batch_format="pyarrow")
             .groupby("site").aggregate(
                 Sum("n_pages", alias_name="n_pages"),
                 Sum("token_mass", alias_name="token_mass"))
             .materialize())

    def add_weight(b: pa.Table) -> pa.Table:
        mass = np.asarray(b["token_mass"].to_numpy(zero_copy_only=False),
                          dtype=np.int64)
        w = np.floor(np.sqrt(mass.astype(np.float64))).astype(np.int64)
        return b.append_column("weight", pa.array(w, pa.int64()))

    weighted = sites.map_batches(add_weight, batch_format="pyarrow").materialize()
    total_w = int(weighted.sum("weight"))  # one scalar, broadcast by closure

    def add_share(b: pa.Table) -> pa.Table:
        w = np.asarray(b["weight"].to_numpy(zero_copy_only=False),
                       dtype=np.int64)
        share = (w * 1_000_000) // max(total_w, 1)
        return b.append_column("share_ppm", pa.array(share, pa.int64()))

    return weighted.map_batches(add_share, batch_format="pyarrow")


def _mix_cte(table: str) -> str:
    """Shared CTE chain ending in ``mixs(site, n_pages, token_mass, weight,
    share_ppm)`` — the single source of truth for the mix arithmetic, nested
    by both the weights query and the resampler."""
    return f"""p AS (
  SELECT regexp_extract(url, '{_SITE_RE}', 1) AS site,
         len(list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> ''))
             AS mass
  FROM {table}
),
h AS (SELECT site, count(*)::BIGINT AS n_pages,
             sum(mass)::BIGINT AS token_mass
      FROM p WHERE coalesce(site, '') <> '' GROUP BY 1),
w AS (SELECT *, CAST(floor(sqrt(token_mass)) AS BIGINT) AS weight FROM h),
mixs AS (
  SELECT site, n_pages, token_mass, weight,
         (weight * 1000000 // greatest(sum(weight) OVER (), 1))::BIGINT
             AS share_ppm
  FROM w
)"""


def domain_mix_weights_sql(table: str = "pages") -> str:
    return f"""
WITH {_mix_cte(table)}
SELECT site, n_pages, token_mass, weight, share_ppm FROM mixs
"""


# --- multi-zoom tile aggregation pyramid ------------------------------------

PYRAMID_RES_MIN = 10
_PYR_PARTIAL_SCHEMA = pa.schema([("tile", pa.int64()), ("n_pages", pa.int64())])
_PYR_XY_MASK = (1 << 29) - 1


def tile_pyramid(pages_ds):
    """Multi-resolution tile aggregation pyramid: page counts per quadkey
    tile at every zoom level res 10..17 — the rollup a map-rendering /
    heatmap backend derives from a geotagged corpus (the tiling half of the
    north star; cf. the reference's bins index, js/geo.js grid stats).

    Distributed shape: parent tiles are PURE int64 arithmetic on the res-17
    tile (``(res<<58) | ((ix>>s)<<29) | (iy>>s)``), so one geotag pass emits
    all 8 levels per batch, partial-combined with ``np.unique`` before the
    single (tile) groupby — the exchange carries one row per distinct tile
    per batch (bounded by world tile count, not page count), and no page row
    crosses the shuffle.  At 10^12 pages the rollup never touches a page
    twice; skewed urban tiles cost one partial row per batch like any other.
    """
    NS = n_shards()  # cluster-derived (VERDICT r3 #3)
    g = pages_ds.map_batches(geotag_batch, batch_format="pyarrow",
                             batch_size=4096)

    def partial(b: pa.Table) -> pa.Table:
        t = np.asarray(b["tile17"].to_numpy(zero_copy_only=False),
                       dtype=np.int64)
        ix, iy = (t >> 29) & _PYR_XY_MASK, t & _PYR_XY_MASK
        levels = [
            (np.int64(res) << 58) | ((ix >> (TILE_RES_MAX - res)) << 29)
            | (iy >> (TILE_RES_MAX - res))
            for res in range(PYRAMID_RES_MIN, TILE_RES_MAX + 1)
        ]
        u, c = np.unique(np.concatenate(levels) if levels else t,
                         return_counts=True)
        return pa.table({"tile": pa.array(u, pa.int64()),
                         "n_pages": pa.array(c.astype(np.int64), pa.int64())}
                        ).cast(_PYR_PARTIAL_SCHEMA)

    def add_shard(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "tile" not in b.column_names:
            return pa.schema([("tshard", pa.int64()), ("tile", pa.int64()),
                              ("n_pages", pa.int64())]).empty_table()
        shard = (np.asarray(b["tile"].to_numpy(zero_copy_only=False))
                 % NS).astype(np.int64)
        return b.add_column(0, "tshard", pa.array(shard))

    def shard_fold(df: pd.DataFrame) -> pa.Table:
        # exchange keyed on tile % 64, per-shard C hash fold — the
        # big_orders move: a 64-value sort instead of the distinct-tile
        # domain (~89k tiles x blocks partial rows at sf0.1)
        gg = df.groupby("tile", sort=False)["n_pages"].sum().reset_index()
        return pa.Table.from_pandas(gg, preserve_index=False, schema=pa.schema(
            [("tile", pa.int64()), ("n_pages", pa.int64())])
        ).replace_schema_metadata(None)

    agg = (g.map_batches(partial, batch_format="pyarrow")
           .map_batches(add_shard, batch_format="pyarrow")
           .groupby("tshard").map_groups(shard_fold, batch_format="pandas"))

    def finalize(b: pa.Table) -> pa.Table:
        t = np.asarray(b["tile"].to_numpy(zero_copy_only=False),
                       dtype=np.int64)
        return pa.table({
            "tile": pa.array(t, pa.int64()),
            "res": pa.array(t >> 58, pa.int64()),
            "ix": pa.array((t >> 29) & _PYR_XY_MASK, pa.int64()),
            "iy": pa.array(t & _PYR_XY_MASK, pa.int64()),
            "n_pages": b["n_pages"],
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


def tile_pyramid_sql(table: str = "pages") -> str:
    n = 1 << TILE_RES_MAX
    return f"""
WITH g0 AS (
  SELECT TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 1) AS DOUBLE) AS lat,
         TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 2) AS DOUBLE) AS lon
  FROM {table}
), g AS (
  SELECT * FROM g0
  WHERE lat IS NOT NULL AND lon IS NOT NULL AND isfinite(lat) AND isfinite(lon)
), xy AS (
  SELECT least(greatest(CAST(floor((lon + 180.0) / 360.0 * {n}) AS BIGINT), 0), {n - 1}) AS ix,
         least(greatest(CAST(floor((lat + 90.0) / 180.0 * {n}) AS BIGINT), 0), {n - 1}) AS iy
  FROM g
), lv AS (
  SELECT CAST(r AS BIGINT) AS res
  FROM range({PYRAMID_RES_MIN}, {TILE_RES_MAX + 1}) t(r)
)
SELECT (res << 58) + ((ix >> ({TILE_RES_MAX} - res)) << 29)
           + (iy >> ({TILE_RES_MAX} - res)) AS tile,
       res,
       ix >> ({TILE_RES_MAX} - res) AS ix,
       iy >> ({TILE_RES_MAX} - res) AS iy,
       count(*)::BIGINT AS n_pages
FROM xy CROSS JOIN lv
GROUP BY 1, 2, 3, 4
"""


# --- pages-per-way density (the north-star join, aggregated) ----------------

_DENSITY_PARTIAL_SCHEMA = pa.schema([("way_id", pa.int64()),
                                     ("n_pages", pa.int64())])


def way_page_density(pages_ds, ways_ds):
    """Per-way page density: how many geotagged pages land on each road's
    bbox — the aggregate a coverage/demand map reads straight off the
    north-star pages<->ways join.  Returns (county, way_id, name, n_pages)
    for every way with at least one page.

    Distributed shape: the join's (url, way_id) pairs partial-combine per
    batch (``np.unique``) before ONE (way_id) groupby, so the exchange
    carries way-count rows, not page-count rows; (county, name) then attach
    via a way_id-keyed hash ``Dataset.join`` against the projected ways
    table — both sides are O(ways), the 10^12 pages never re-shuffle."""
    NS = n_shards()  # cluster-derived (VERDICT r3 #3)
    from .common import cap_join_partitions, drop_empty_blocks

    joined = pages_way_join(pages_ds, ways_ds)

    def partial(b: pa.Table) -> pa.Table:
        w = np.asarray(b["way_id"].to_numpy(zero_copy_only=False),
                       dtype=np.int64)
        u, c = np.unique(w, return_counts=True)
        return pa.table({"way_id": pa.array(u, pa.int64()),
                         "n_pages": pa.array(c.astype(np.int64), pa.int64())}
                        ).cast(_DENSITY_PARTIAL_SCHEMA)

    def add_shard(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "way_id" not in b.column_names:
            return pa.schema([("wshard", pa.int64()), ("way_id", pa.int64()),
                              ("n_pages", pa.int64())]).empty_table()
        shard = (np.asarray(b["way_id"].to_numpy(zero_copy_only=False))
                 % NS).astype(np.int64)
        return b.add_column(0, "wshard", pa.array(shard))

    def shard_fold(df: pd.DataFrame) -> pa.Table:
        # way_id % 64 shard exchange + per-shard C hash fold (the
        # big_orders move — no sort over the way-id domain)
        gg = df.groupby("way_id", sort=False)["n_pages"].sum().reset_index()
        return pa.Table.from_pandas(gg, preserve_index=False, schema=pa.schema(
            [("way_id", pa.int64()), ("n_pages", pa.int64())])
        ).replace_schema_metadata(None)

    counts = drop_empty_blocks(
        joined.map_batches(partial, batch_format="pyarrow")
        .map_batches(add_shard, batch_format="pyarrow")
        .groupby("wshard").map_groups(shard_fold, batch_format="pandas")
        .materialize())

    meta = ways_ds.map_batches(
        lambda b: b.select(["way_id", "county", "name"]).replace_schema_metadata(None),
        batch_format="pyarrow")
    out = counts.join(meta, join_type="inner",
                      num_partitions=cap_join_partitions(16), on=("way_id",))
    return out.map_batches(
        lambda b: b.select(["county", "way_id", "name", "n_pages"]),
        batch_format="pyarrow")


def way_page_density_sql(pages_table: str, ways_path: str) -> str:
    return f"""
WITH g0 AS (
  SELECT url,
         TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 1) AS DOUBLE) AS lat,
         TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 2) AS DOUBLE) AS lon
  FROM {pages_table}
), g AS (
  SELECT * FROM g0
  WHERE lat IS NOT NULL AND lon IS NOT NULL AND isfinite(lat) AND isfinite(lon)
)
SELECT w.county, w.way_id, w.name, count(*)::BIGINT AS n_pages
FROM g JOIN read_parquet('{ways_path}') w
  ON g.lat BETWEEN w.minlat AND w.maxlat
 AND g.lon BETWEEN w.minlon AND w.maxlon
GROUP BY 1, 2, 3
"""


# --- Bloom-filter URL membership sketch --------------------------------------

BLOOM_M = 1 << 18          # filter bits
BLOOM_K = 4                # double-hashed probe positions per element
_BLOOM_BIT_SCHEMA = pa.schema([("bit", pa.int64()), ("n_contrib", pa.int64())])
_BLOOM_PROBE_SCHEMA = pa.schema([("probe", pa.string()), ("n_hit", pa.int64()),
                                 ("is_member", pa.int64())])


def _bloom_h60(prefix: str, urls) -> np.ndarray:
    import hashlib

    return np.fromiter(
        (int(hashlib.md5((prefix + u).encode("utf-8")).hexdigest()[:15], 16)
         for u in urls), np.int64, len(urls))


def _bloom_positions(urls) -> np.ndarray:
    """(n, K) bit positions via Kirsch-Mitzenmacher double hashing:
    bit_j = (h1 + j*h2) mod M, h1/h2 = md5-h60 with distinct salts (the
    DuckDB-reproducible hash idiom used across the sketch family)."""
    h1, h2 = _bloom_h60("bf1|", urls), _bloom_h60("bf2|", urls)
    j = np.arange(BLOOM_K, dtype=np.int64)
    return (h1[:, None] + j[None, :] * h2[:, None]) % BLOOM_M


def bloom_url_filter(pages_ds):
    """Bloom-filter membership over the corpus urls — the crawl-frontier
    "seen set" next to the CMS / HLL sketches: the filter builds as a
    mergeable partial aggregate (per-batch DISTINCT set-bit rows -> one
    (bit) groupby; the exchange is bounded by the FIXED filter size M, not
    the corpus), is collected once (2^18 bits — fixed-size by construction,
    like the decontaminate suite), broadcast via ``ray.put``, and a probe
    set (a deterministic ~1/8 url sample, plus a known-absent twin per
    probe) streams through a searchsorted membership test.  Returns one row
    per distinct probe: (probe, n_hit of K positions, is_member).

    The one-sidedness invariant (present => all K bits hit) is structural;
    absent probes measure the real false-positive rate at this fill.  The
    SQL oracle rebuilds the filter exactly (same salted md5-h60 positions),
    so every register bit — and therefore every false positive — matches."""
    import ray

    from ray.data.aggregate import Sum

    from .common import cached_get, drop_empty_blocks

    def bit_partial(b: pa.Table) -> pa.Table:
        urls = b["url"].to_pylist()
        if not urls:
            return _BLOOM_BIT_SCHEMA.empty_table()
        pos = _bloom_positions(urls).ravel()
        u, c = np.unique(pos, return_counts=True)
        return pa.table({"bit": pa.array(u, pa.int64()),
                         "n_contrib": pa.array(c.astype(np.int64), pa.int64())}
                        ).cast(_BLOOM_BIT_SCHEMA)

    bits = drop_empty_blocks(
        pages_ds.map_batches(bit_partial, batch_format="pyarrow")
        .groupby("bit").aggregate(Sum("n_contrib", alias_name="n_contrib"))
        .materialize())
    set_bits = np.sort(np.asarray(
        bits.select_columns(["bit"]).to_pandas()["bit"].to_numpy(),
        dtype=np.int64))
    bits_ref = ray.put(set_bits)

    def probe_partial(b: pa.Table) -> pa.Table:
        import hashlib

        filt = cached_get(bits_ref)
        urls = b["url"].to_pylist()
        probes = [u for u in urls
                  if hashlib.md5(("probe|" + u).encode("utf-8")).hexdigest()[0]
                  in "01"]
        probes = probes + [p + "#absent" for p in probes]
        if not probes:
            return _BLOOM_PROBE_SCHEMA.empty_table()
        pos = _bloom_positions(probes)
        idx = np.searchsorted(filt, pos)
        idx[idx >= len(filt)] = max(len(filt) - 1, 0)
        hit = (filt[idx] == pos) if len(filt) else np.zeros_like(pos, bool)
        n_hit = hit.sum(axis=1).astype(np.int64)
        return pa.table({"probe": pa.array(probes, pa.string()),
                         "n_hit": pa.array(n_hit, pa.int64()),
                         "is_member": pa.array((n_hit == BLOOM_K).astype(np.int64),
                                               pa.int64())}
                        ).cast(_BLOOM_PROBE_SCHEMA)

    from ray.data.aggregate import Max

    # Max dedups exact replicas (n_hit is a pure function of the probe)
    return (pages_ds.map_batches(probe_partial, batch_format="pyarrow")
            .groupby("probe").aggregate(Max("n_hit", alias_name="n_hit"),
                                        Max("is_member", alias_name="is_member")))


def bloom_url_filter_sql(table: str = "pages") -> str:
    h1 = "('0x' || substr(md5('bf1' || chr(124) || u), 1, 15))::BIGINT"
    h2 = "('0x' || substr(md5('bf2' || chr(124) || u), 1, 15))::BIGINT"
    return f"""
WITH el AS (SELECT url AS u FROM {table}),
bits AS (
  SELECT DISTINCT ({h1} + r.j * {h2}) % {BLOOM_M} AS bit
  FROM el CROSS JOIN (SELECT CAST(range AS BIGINT) AS j
                      FROM range(0, {BLOOM_K})) r
),
probes AS (
  SELECT DISTINCT url AS probe FROM {table}
  WHERE substr(md5('probe' || chr(124) || url), 1, 1) IN ('0', '1')
),
allp AS (
  SELECT probe FROM probes
  UNION ALL SELECT probe || '#absent' FROM probes
),
pb AS (
  SELECT p.probe AS u, r.j
  FROM allp p CROSS JOIN (SELECT CAST(range AS BIGINT) AS j
                          FROM range(0, {BLOOM_K})) r
),
hits AS (
  SELECT pb.u AS probe,
         CASE WHEN b.bit IS NULL THEN 0 ELSE 1 END AS hit
  FROM pb LEFT JOIN bits b
    ON ({h1.replace("|| u", "|| pb.u")} + pb.j * {h2.replace("|| u", "|| pb.u")})
           % {BLOOM_M} = b.bit
)
SELECT probe, sum(hit)::BIGINT AS n_hit,
       (sum(hit) = {BLOOM_K})::BIGINT AS is_member
FROM hits GROUP BY 1
"""


# --- mixture resampling (apply the mix weights to the corpus) ----------------

_RESAMPLE_SCHEMA = pa.schema([("url", pa.string()), ("site", pa.string()),
                              ("repeats", pa.int64())])


def mixture_resample(pages_ds):
    """Apply the domain mix to the corpus: per-page epoch repeat counts that
    realize each site's :func:`domain_mix_weights` share over the total
    token budget — the "repeat under-represented sources, subsample
    over-represented ones" step of composing a training mix (cf. the
    sqrt-temperature mixes of the Pile / CCNet lineage).

    Exact integer policy: a site's token target is
    ``T = total_mass * share_ppm // 1e6``; its per-page epoch factor in ppm
    is ``q = T * 1e6 // token_mass``; a page repeats ``q // 1e6`` times plus
    one more iff ``md5-h60('rs|'+url) % 1e6 < q % 1e6`` — deterministic
    fractional epochs with no RNG, so the expected site mass is T exactly
    and the SQL oracle reproduces every row.

    Distributed shape: the site table (bounded by source count) reduces via
    the domain_mix_weights partial-combine, the factor map broadcasts once
    via ``ray.put`` (driver arithmetic is arbitrary-precision Python int —
    no overflow at any scale; the oracle casts through HUGEINT), and the
    corpus streams through one stateless map.  Pages with no parseable site
    are dropped, like the weights query."""
    import hashlib

    import pandas as pd
    import ray

    from .common import cached_get

    sites = domain_mix_weights(pages_ds).to_pandas()
    total_mass = int(sites["token_mass"].sum())
    fmap = {}
    for site, mass, share in zip(sites["site"], sites["token_mass"],
                                 sites["share_ppm"]):
        t_site = total_mass * int(share) // 1_000_000
        fmap[site] = t_site * 1_000_000 // max(int(mass), 1)
    fref = ray.put(fmap)

    def per_batch(b: pa.Table) -> pa.Table:
        fm = cached_get(fref)
        url = b["url"].to_pandas()
        site = url.str.extract(_SITE_RE, expand=False)
        keep = site.notna().to_numpy()
        url, site = url[keep], site[keep]
        q = site.map(fm).to_numpy(dtype=np.int64)
        h = np.fromiter(
            (int(hashlib.md5(("rs|" + u).encode("utf-8")).hexdigest()[:15], 16)
             for u in url), np.int64, len(url)) % 1_000_000
        rep = q // 1_000_000 + (h < q % 1_000_000)
        return pa.table({"url": pa.array(url.tolist(), pa.string()),
                         "site": pa.array(site.tolist(), pa.string()),
                         "repeats": pa.array(rep.astype(np.int64), pa.int64())}
                        ).cast(_RESAMPLE_SCHEMA)

    return pages_ds.map_batches(per_batch, batch_format="pyarrow")


def mixture_resample_sql(table: str = "pages") -> str:
    return f"""
WITH {_mix_cte(table)},
tot AS (SELECT sum(token_mass)::BIGINT AS total FROM mixs),
f AS (
  SELECT site,
         (((total::HUGEINT * share_ppm // 1000000) * 1000000)
              // greatest(token_mass, 1))::BIGINT AS factor_ppm
  FROM mixs, tot
),
pg AS (
  SELECT url, regexp_extract(url, '{_SITE_RE}', 1) AS site FROM {table}
)
SELECT pg.url, pg.site,
       (f.factor_ppm // 1000000
        + CASE WHEN ('0x' || substr(md5('rs' || chr(124) || pg.url), 1, 15))::BIGINT
                    % 1000000 < f.factor_ppm % 1000000
               THEN 1 ELSE 0 END)::BIGINT AS repeats
FROM pg JOIN f USING (site)
"""


# --- outlink extraction + anchor-text index + frontier discovery -----------
# The fixture html carries a deterministic <p class="links"> section (one
# <a href>anchor</a> per outlink; see sources/synthetic.py build_pages) —
# the crawl-graph surface a web-scale training pipeline mines for anchor
# text and frontier URLs.
_LINK_RE = re.compile(r'<a href="([^"]+)">([^<]*)</a>')
_LINK_SQL_RE = '<a href="([^"]+)">([^<]*)</a>'
_SECTION_RE = r"^https://[^/]+/([^/]+)/"


def _link_rows(b: pa.Table) -> tuple:
    """Per-batch outlink explode: (src urls repeated, dst_url, anchor)."""
    urls = b["url"].to_pylist()
    htmls = b["html"].to_pylist()
    src, dst, anc = [], [], []
    for u, h in zip(urls, htmls):
        for m in _LINK_RE.finditer(h.decode("utf-8")):
            src.append(u)
            dst.append(m.group(1))
            anc.append(m.group(2))
    return src, dst, anc


def page_links(pages_ds):
    """Outlink extraction: one row per <a href> in every page — (url,
    dst_url, anchor).  Stateless compiled-regex flat map; zero shuffle.
    At 100 TB this is the link-graph edge dump that feeds anchor_text_index
    and link_frontier (both re-extract rather than materializing the edge
    table — regenerate-don't-carry, like graph_pagerank's edges)."""

    def extract(b: pa.Table) -> pa.Table:
        src, dst, anc = _link_rows(b)
        return pa.table({"url": pa.array(src, pa.string()),
                         "dst_url": pa.array(dst, pa.string()),
                         "anchor": pa.array(anc, pa.string())})

    return pages_ds.map_batches(extract, batch_format="pyarrow")


def page_links_sql(table: str = "pages") -> str:
    # parallel unnests zip positionally; both lists come from the same
    # regexp so they are always the same length
    return f"""
SELECT url,
       unnest(regexp_extract_all(decode(html), '{_LINK_SQL_RE}', 1)) AS dst_url,
       unnest(regexp_extract_all(decode(html), '{_LINK_SQL_RE}', 2)) AS anchor
FROM {table}
"""


_ANCHOR_PARTIAL_SCHEMA = pa.schema([
    ("ushard", pa.int64()), ("dst_url", pa.string()), ("anchor", pa.string()),
    ("n", pa.int64()), ("is_page", pa.int8()),
])


def _url_shard(s, ns: int):
    import pandas as pd

    return (pd.util.hash_pandas_object(s, index=False).to_numpy()
            % ns).astype(np.int64)


def anchor_text_index(pages_ds):
    """Anchor-text aggregation — the classic search/LLM training signal:
    for every page IN the corpus, the number of inbound links and the most
    common inbound anchor text (ties -> lexicographically smallest).

    This is a big-big semi-join (the link table and the corpus are both
    corpus-sized), done as ONE url-hash-sharded exchange: link partials
    (dst_url, anchor, n) and page-presence rows ride the same union keyed
    by hash(url) % n_shards, and each shard folds locally — counts by
    (dst, anchor), the (n desc, anchor asc) argmax, and the presence
    filter.  No broadcast, no driver state, nothing corpus-sized in any
    single process."""
    import pandas as pd

    NS = n_shards()

    def link_partial(b: pa.Table) -> pa.Table:
        _, dst, anc = _link_rows(b)
        df = pd.DataFrame({"dst_url": dst, "anchor": anc})
        g = (df.groupby(["dst_url", "anchor"], sort=False)
             .size().reset_index(name="n"))
        g["n"] = g["n"].astype("int64")
        g["ushard"] = _url_shard(g["dst_url"], NS)
        g["is_page"] = np.int8(0)
        return pa.Table.from_pandas(
            g[["ushard", "dst_url", "anchor", "n", "is_page"]],
            preserve_index=False,
            schema=_ANCHOR_PARTIAL_SCHEMA).replace_schema_metadata(None)

    def page_marker(b: pa.Table) -> pa.Table:
        u = b["url"].to_pandas()
        return pa.Table.from_pandas(
            pd.DataFrame({"ushard": _url_shard(u, NS), "dst_url": u,
                          "anchor": "", "n": np.int64(0),
                          "is_page": np.int8(1)}),
            preserve_index=False,
            schema=_ANCHOR_PARTIAL_SCHEMA).replace_schema_metadata(None)

    links = pages_ds.map_batches(link_partial, batch_format="pyarrow")
    marks = pages_ds.map_batches(page_marker, batch_format="pyarrow")

    def per_shard(df: pd.DataFrame) -> pa.Table:
        present = df.loc[df["is_page"] == 1, "dst_url"]
        l = df[df["is_page"] == 0]
        l = l[l["dst_url"].isin(set(present))]
        if not len(l):
            return pa.schema([("url", pa.string()),
                              ("n_inlinks", pa.int64()),
                              ("top_anchor", pa.string())]).empty_table()
        g = (l.groupby(["dst_url", "anchor"], sort=False)["n"]
             .sum().reset_index())
        tot = g.groupby("dst_url", sort=False)["n"].sum()
        g = g.sort_values(["dst_url", "n", "anchor"],
                          ascending=[True, False, True], kind="stable")
        top = g.drop_duplicates("dst_url", keep="first")
        return pa.table({
            "url": pa.array(top["dst_url"].to_numpy(dtype=object), pa.string()),
            "n_inlinks": pa.array(top["dst_url"].map(tot).to_numpy(
                dtype=np.int64), pa.int64()),
            "top_anchor": pa.array(top["anchor"].to_numpy(dtype=object),
                                   pa.string())})

    return (links.union(marks)
            .groupby("ushard").map_groups(per_shard, batch_format="pandas"))


def frontier_priority(pages_ds):
    """Crawl-scheduler priority manifest: for every outlink target NOT in
    the corpus, the inbound-link count and the most common anchor text —
    link_frontier's discovery ranked by demand (the inverse of
    anchor_text_index's presence filter).  Same ONE url-hash-sharded
    exchange: link partials and page-presence markers ride a single union
    keyed by hash(dst_url) % n_shards; each shard folds counts, the
    (n desc, anchor asc) argmax and the ANTI filter locally — nothing
    corpus-sized in any single process."""
    import pandas as pd

    NS = n_shards()

    def link_partial(b: pa.Table) -> pa.Table:
        _, dst, anc = _link_rows(b)
        df = pd.DataFrame({"dst_url": dst, "anchor": anc})
        g = (df.groupby(["dst_url", "anchor"], sort=False)
             .size().reset_index(name="n"))
        g["n"] = g["n"].astype("int64")
        g["ushard"] = _url_shard(g["dst_url"], NS)
        g["is_page"] = np.int8(0)
        return pa.Table.from_pandas(
            g[["ushard", "dst_url", "anchor", "n", "is_page"]],
            preserve_index=False,
            schema=_ANCHOR_PARTIAL_SCHEMA).replace_schema_metadata(None)

    def page_marker(b: pa.Table) -> pa.Table:
        u = b["url"].to_pandas()
        return pa.Table.from_pandas(
            pd.DataFrame({"ushard": _url_shard(u, NS), "dst_url": u,
                          "anchor": "", "n": np.int64(0),
                          "is_page": np.int8(1)}),
            preserve_index=False,
            schema=_ANCHOR_PARTIAL_SCHEMA).replace_schema_metadata(None)

    links = pages_ds.map_batches(link_partial, batch_format="pyarrow")
    marks = pages_ds.map_batches(page_marker, batch_format="pyarrow")

    def per_shard(df: pd.DataFrame) -> pa.Table:
        present = set(df.loc[df["is_page"] == 1, "dst_url"])
        l = df[df["is_page"] == 0]
        l = l[~l["dst_url"].isin(present)]  # ANTI: frontier targets only
        if not len(l):
            return pa.schema([("dst_url", pa.string()),
                              ("n_inlinks", pa.int64()),
                              ("top_anchor", pa.string())]).empty_table()
        g = (l.groupby(["dst_url", "anchor"], sort=False)["n"]
             .sum().reset_index())
        tot = g.groupby("dst_url", sort=False)["n"].sum()
        g = g.sort_values(["dst_url", "n", "anchor"],
                          ascending=[True, False, True], kind="stable")
        top = g.drop_duplicates("dst_url", keep="first")
        return pa.table({
            "dst_url": pa.array(top["dst_url"].to_numpy(dtype=object),
                                pa.string()),
            "n_inlinks": pa.array(top["dst_url"].map(tot).to_numpy(
                dtype=np.int64), pa.int64()),
            "top_anchor": pa.array(top["anchor"].to_numpy(dtype=object),
                                   pa.string())})

    return (links.union(marks)
            .groupby("ushard").map_groups(per_shard, batch_format="pandas"))


def frontier_priority_sql(table: str = "pages") -> str:
    return f"""
WITH l AS (
  SELECT unnest(regexp_extract_all(decode(html), '{_LINK_SQL_RE}', 1)) AS dst_url,
         unnest(regexp_extract_all(decode(html), '{_LINK_SQL_RE}', 2)) AS anchor
  FROM {table}
),
agg AS (SELECT dst_url, anchor, count(*)::BIGINT AS n FROM l GROUP BY 1, 2),
r AS (
  SELECT dst_url, anchor, n,
         sum(n) OVER (PARTITION BY dst_url)::BIGINT AS n_inlinks,
         row_number() OVER (PARTITION BY dst_url
                            ORDER BY n DESC, anchor) AS rn
  FROM agg
)
SELECT r.dst_url, r.n_inlinks, r.anchor AS top_anchor
FROM r ANTI JOIN {table} p ON p.url = r.dst_url
WHERE r.rn = 1
"""


def anchor_text_index_sql(table: str = "pages") -> str:
    return f"""
WITH l AS (
  SELECT unnest(regexp_extract_all(decode(html), '{_LINK_SQL_RE}', 1)) AS dst_url,
         unnest(regexp_extract_all(decode(html), '{_LINK_SQL_RE}', 2)) AS anchor
  FROM {table}
),
agg AS (SELECT dst_url, anchor, count(*)::BIGINT AS n FROM l GROUP BY 1, 2),
r AS (
  SELECT dst_url, anchor, n,
         sum(n) OVER (PARTITION BY dst_url)::BIGINT AS n_inlinks,
         row_number() OVER (PARTITION BY dst_url
                            ORDER BY n DESC, anchor) AS rn
  FROM agg
)
SELECT r.dst_url AS url, r.n_inlinks, r.anchor AS top_anchor
FROM r JOIN {table} p ON p.url = r.dst_url
WHERE r.rn = 1
"""


def link_frontier(pages_ds):
    """Frontier discovery: distinct outlink targets NOT in the corpus,
    counted per url section (the crawl scheduler's next-fetch manifest).
    Same one-exchange union shape as anchor_text_index but an ANTI join per
    shard; distinct-per-shard == globally distinct because the shard key is
    a function of dst_url."""
    import pandas as pd

    from ray.data.aggregate import Sum

    NS = n_shards()

    def link_partial(b: pa.Table) -> pa.Table:
        _, dst, _ = _link_rows(b)
        df = pd.DataFrame({"dst_url": dst}).drop_duplicates()
        df["ushard"] = _url_shard(df["dst_url"], NS)
        df["anchor"] = ""
        df["n"] = np.int64(0)
        df["is_page"] = np.int8(0)
        return pa.Table.from_pandas(
            df[["ushard", "dst_url", "anchor", "n", "is_page"]],
            preserve_index=False,
            schema=_ANCHOR_PARTIAL_SCHEMA).replace_schema_metadata(None)

    def page_marker(b: pa.Table) -> pa.Table:
        u = b["url"].to_pandas()
        return pa.Table.from_pandas(
            pd.DataFrame({"ushard": _url_shard(u, NS), "dst_url": u,
                          "anchor": "", "n": np.int64(0),
                          "is_page": np.int8(1)}),
            preserve_index=False,
            schema=_ANCHOR_PARTIAL_SCHEMA).replace_schema_metadata(None)

    def per_shard(df: pd.DataFrame) -> pa.Table:
        present = set(df.loc[df["is_page"] == 1, "dst_url"])
        l = df[df["is_page"] == 0].drop_duplicates("dst_url")
        l = l[~l["dst_url"].isin(present)]
        sec = l["dst_url"].str.extract(_SECTION_RE)[0].dropna()
        g = sec.value_counts()
        return pa.table({
            "section": pa.array(g.index.to_numpy(dtype=object), pa.string()),
            "n_frontier": pa.array(g.to_numpy(dtype=np.int64), pa.int64())})

    links = pages_ds.map_batches(link_partial, batch_format="pyarrow")
    marks = pages_ds.map_batches(page_marker, batch_format="pyarrow")
    return (links.union(marks)
            .groupby("ushard").map_groups(per_shard, batch_format="pandas")
            .groupby("section").aggregate(Sum("n_frontier",
                                              alias_name="n_frontier")))


def link_frontier_sql(table: str = "pages") -> str:
    return f"""
WITH l AS (
  SELECT DISTINCT unnest(regexp_extract_all(decode(html), '{_LINK_SQL_RE}', 1)) AS dst_url
  FROM {table}
),
f AS (
  SELECT l.dst_url FROM l LEFT JOIN {table} p ON p.url = l.dst_url
  WHERE p.url IS NULL
)
SELECT regexp_extract(dst_url, '{_SECTION_RE}', 1) AS section,
       count(*)::BIGINT AS n_frontier
FROM f
WHERE coalesce(regexp_extract(dst_url, '{_SECTION_RE}', 1), '') <> ''
GROUP BY 1
"""


def section_link_graph(pages_ds):
    """Crawl section graph: aggregate the page-level outlink edges up to
    (src_section -> dst_section) with total link count and DISTINCT target
    count — the contraction a crawl scheduler uses to budget per-silo
    fetch rates (all fixture pages share one host, so the section is the
    natural graph node; with multi-host input the same kernel keys on
    (host, section)).

    Scale shape: edges regenerate inside the batch (regenerate-don't-carry
    like graph_pagerank); per-batch pre-reduction to one row per (src_sec,
    dst_sec, dst_url); ONE exchange keyed by hash(src_sec, dst_sec) makes
    the per-shard distinct-target fold globally exact.  Output is
    sections^2-bounded."""
    import pandas as pd

    NS = n_shards()
    import re as _re

    sec_re = _re.compile(_SECTION_RE)

    _P = pa.schema([("gshard", pa.int64()), ("src_section", pa.string()),
                    ("dst_section", pa.string()), ("dst_url", pa.string()),
                    ("n", pa.int64())])

    def partial(b: pa.Table) -> pa.Table:
        src, dst, _ = _link_rows(b)
        if not src:
            return _P.empty_table()
        df = pd.DataFrame({"src_url": src, "dst_url": dst})
        df["src_section"] = df["src_url"].str.extract(_SECTION_RE)[0]
        df["dst_section"] = df["dst_url"].str.extract(_SECTION_RE)[0]
        df = df.dropna(subset=["src_section", "dst_section"])
        g = (df.groupby(["src_section", "dst_section", "dst_url"],
                        sort=False).size().reset_index(name="n"))
        g.insert(0, "gshard", _url_shard(
            g["src_section"] + "\x00" + g["dst_section"], NS))
        return pa.Table.from_pandas(g, preserve_index=False,
                                    schema=_P).replace_schema_metadata(None)

    _O = pa.schema([("src_section", pa.string()),
                    ("dst_section", pa.string()),
                    ("n_links", pa.int64()), ("n_unique_dst", pa.int64())])

    def fold(df: pd.DataFrame) -> pa.Table:
        g = (df.groupby(["src_section", "dst_section"], sort=False)
             .agg(n_links=("n", "sum"), n_unique_dst=("dst_url", "nunique"))
             .reset_index())
        return pa.Table.from_pandas(g, preserve_index=False,
                                    schema=_O).replace_schema_metadata(None)

    return (pages_ds.map_batches(partial, batch_format="pyarrow")
            .groupby("gshard").map_groups(fold, batch_format="pandas"))


def section_link_graph_sql(table: str = "pages") -> str:
    return f"""
WITH l AS (
  SELECT regexp_extract(url, '{_SECTION_RE}', 1) AS src_section,
         unnest(regexp_extract_all(decode(html), '{_LINK_SQL_RE}', 1)) AS dst_url
  FROM {table}
)
SELECT src_section,
       regexp_extract(dst_url, '{_SECTION_RE}', 1) AS dst_section,
       count(*)::BIGINT AS n_links,
       count(DISTINCT dst_url)::BIGINT AS n_unique_dst
FROM l
WHERE coalesce(src_section, '') <> ''
  AND coalesce(regexp_extract(dst_url, '{_SECTION_RE}', 1), '') <> ''
GROUP BY 1, 2
"""


# --- CDX-style SURT capture index -------------------------------------------
# The web-archive lookup key: host labels reversed and comma-joined, then
# ')' + lowercased path + query (Sort-friendly URI Reordering Transform) —
# prefix-scanning a SURT-sorted index enumerates a whole domain subtree.
# Default ports strip and trailing slashes collapse exactly like
# url_canonical_dedup; non-default ports stay inside their label (a
# documented, deterministic simplification on both sides).

_SURT_PARTIAL_SCHEMA = pa.schema([
    ("surt", pa.string()), ("url", pa.string()), ("n", pa.int64()),
    ("min_ts", pa.int64()), ("max_ts", pa.int64()), ("sshard", pa.int64()),
])


def surt_index(pages_ds):
    """Per-SURT capture index: n_captures, distinct-url count and the
    capture time window — the CDX accounting table a web archive serves
    lookups from.

    Distributed shape: per-batch partial combine to one row per (surt, url)
    (C-regex parse; counts and the ts window fold locally), then ONE
    surt-hash-sharded exchange where per-shard (surt, url) re-merge makes
    the distinct-url count globally exact — nothing corpus-sized crosses
    the wire twice and no global string sort happens anywhere."""
    N = n_shards()
    import pandas as pd

    def partial(b: pa.Table) -> pa.Table:
        url = b["url"].to_pandas()
        ts = b["warc_ts"].to_pandas().astype("int64")
        g = url.str.extract(_CANON_RE)
        scheme = g[0].str.translate(DUCK_LOWER_TRANS)
        ok = scheme.isin(["http", "https"])
        scheme, host = scheme[ok], g[1][ok].str.translate(DUCK_LOWER_TRANS)
        path = g[2][ok].str.translate(DUCK_LOWER_TRANS)
        query = g[3][ok].fillna("").str.translate(DUCK_LOWER_TRANS)
        url, ts = url[ok], ts[ok]
        host = host.mask((scheme == "http") & host.str.endswith(":80"),
                         host.str[:-3])
        host = host.mask((scheme == "https") & host.str.endswith(":443"),
                         host.str[:-4])
        path = path.str.replace(r"/+$", "", regex=True)
        path = path.mask(path == "", "/")
        rev = host.str.split(".").str[::-1].str.join(",")
        df = pd.DataFrame({"surt": rev + ")" + path + query, "url": url,
                           "ts": ts})
        gb = df.groupby(["surt", "url"], sort=False)
        out = gb.agg(n=("ts", "size"), min_ts=("ts", "min"),
                     max_ts=("ts", "max")).reset_index()
        out["sshard"] = (pd.util.hash_pandas_object(out["surt"], index=False)
                         .to_numpy() % N).astype("int64")
        return pa.Table.from_pandas(out[["surt", "url", "n", "min_ts",
                                         "max_ts", "sshard"]],
                                    preserve_index=False,
                                    schema=_SURT_PARTIAL_SCHEMA).replace_schema_metadata(None)

    def per_shard(df: "pd.DataFrame") -> pa.Table:
        m = df.groupby(["surt", "url"], sort=False).agg(
            n=("n", "sum"), min_ts=("min_ts", "min"),
            max_ts=("max_ts", "max")).reset_index()
        g = m.groupby("surt", sort=False).agg(
            n_captures=("n", "sum"), n_urls=("url", "size"),
            first_ts_us=("min_ts", "min"),
            last_ts_us=("max_ts", "max")).reset_index()
        return pa.table({
            "surt": pa.array(g["surt"], pa.string()),
            "n_captures": pa.array(g["n_captures"].to_numpy(), pa.int64()),
            "n_urls": pa.array(g["n_urls"].to_numpy(), pa.int64()),
            "first_ts_us": pa.array(g["first_ts_us"].to_numpy(), pa.int64()),
            "last_ts_us": pa.array(g["last_ts_us"].to_numpy(), pa.int64()),
        })

    return (pages_ds.map_batches(partial, batch_format="pyarrow")
            .groupby("sshard").map_groups(per_shard, batch_format="pandas"))


def surt_index_sql(table: str = "pages") -> str:
    return f"""
WITH parsed AS (
  SELECT url, epoch_us(warc_ts) AS ts_us,
         lower(regexp_extract(url, '{_CANON_RE}', 1)) AS scheme,
         lower(regexp_extract(url, '{_CANON_RE}', 2)) AS hostport,
         lower(regexp_extract(url, '{_CANON_RE}', 3)) AS path,
         lower(regexp_extract(url, '{_CANON_RE}', 4)) AS query
  FROM {table}
), surted AS (
  SELECT url, ts_us,
         array_to_string(list_reverse(string_split(
           CASE WHEN scheme = 'http'  AND hostport LIKE '%:80'
                  THEN substr(hostport, 1, length(hostport) - 3)
                WHEN scheme = 'https' AND hostport LIKE '%:443'
                  THEN substr(hostport, 1, length(hostport) - 4)
                ELSE hostport END, '.')), ',')
         || ')' ||
         CASE WHEN regexp_replace(path, '/+$', '') = '' THEN '/'
              ELSE regexp_replace(path, '/+$', '') END || query AS surt
  FROM parsed
  WHERE scheme IN ('http', 'https')
)
SELECT surt, count(*)::BIGINT AS n_captures,
       count(DISTINCT url)::BIGINT AS n_urls,
       min(ts_us)::BIGINT AS first_ts_us, max(ts_us)::BIGINT AS last_ts_us
FROM surted GROUP BY 1
"""


# --- Z-order (Morton) tile index --------------------------------------------
# The space-filling-curve key family (S2 cell ids are face-local Morton
# codes): interleaving the bits of a 16-bit-per-axis grid coordinate gives
# a 32-bit key whose SORT ORDER is spatial locality — contiguous key
# ranges are compact screen-space blocks, which is what makes range-scans
# over a key-sorted 100-TB page table answer box queries without a
# spatial index.  Resolution matches the geotag grid family (equirect
# scaling, clip-to-domain).

MORTON_BITS = 16                 # per axis -> 32-bit key
MORTON_TILE_SHIFT = 20           # coarse tile = morton >> 20 (64x64 z-block)
_MORTON_PARTIAL_SCHEMA = pa.schema([
    ("m_tile", pa.int64()), ("n_pages", pa.int64()),
    ("min_morton", pa.int64()), ("max_morton", pa.int64()),
])


def _part1by1(v: np.ndarray) -> np.ndarray:
    """Spread the low 16 bits of each int64 to even bit positions."""
    v = (v | (v << 8)) & 0x00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F
    v = (v | (v << 2)) & 0x33333333
    v = (v | (v << 1)) & 0x55555555
    return v


def morton_tiles(pages_ds):
    """Per coarse z-block: page count and the occupied Morton key range.

    Row-local encode (magic-mask bit spread, no Python loop) over the
    shared geotag parse, per-batch partial combine, ONE grid-bounded
    groupby — the same scale shape as the raster census: output
    cardinality is capped by the 4096-tile coarse grid, not the input."""
    from ray.data.aggregate import Max, Min, Sum

    def partial(b: pa.Table) -> pa.Table:
        import pandas as pd

        g = geotag_batch(b)
        lat = g["lat"].to_numpy(zero_copy_only=False)
        lon = g["lon"].to_numpy(zero_copy_only=False)
        n = 1 << MORTON_BITS
        ix = np.clip(np.floor((lon + 180.0) / 360.0 * n), 0, n - 1).astype(np.int64)
        iy = np.clip(np.floor((lat + 90.0) / 180.0 * n), 0, n - 1).astype(np.int64)
        morton = _part1by1(ix) | (_part1by1(iy) << 1)
        df = pd.DataFrame({"m_tile": morton >> MORTON_TILE_SHIFT,
                           "morton": morton})
        out = df.groupby("m_tile", sort=False).agg(
            n_pages=("morton", "size"), min_morton=("morton", "min"),
            max_morton=("morton", "max")).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False,
                                    schema=_MORTON_PARTIAL_SCHEMA).replace_schema_metadata(None)

    return (pages_ds.map_batches(partial, batch_format="pyarrow")
            .groupby("m_tile").aggregate(
                Sum("n_pages", alias_name="n_pages"),
                Min("min_morton", alias_name="min_morton"),
                Max("max_morton", alias_name="max_morton")))


def morton_tiles_sql(table: str = "pages") -> str:
    n = 1 << MORTON_BITS
    return f"""
WITH g0 AS (
  SELECT TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 1) AS DOUBLE) AS lat,
         TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 2) AS DOUBLE) AS lon
  FROM {table}
), g AS (
  SELECT least(greatest(CAST(floor((lon + 180.0) / 360.0 * {n}) AS BIGINT), 0), {n - 1}) AS ix,
         least(greatest(CAST(floor((lat + 90.0) / 180.0 * {n}) AS BIGINT), 0), {n - 1}) AS iy
  FROM g0
  WHERE lat IS NOT NULL AND lon IS NOT NULL AND isfinite(lat) AND isfinite(lon)
), m AS (
  SELECT CAST(list_sum(list_transform(generate_series(0, {MORTON_BITS - 1}, 1), i ->
           (((ix >> i) & 1) << (2 * i)) + (((iy >> i) & 1) << (2 * i + 1))))
         AS BIGINT) AS morton
  FROM g
)
SELECT morton >> {MORTON_TILE_SHIFT} AS m_tile, count(*)::BIGINT AS n_pages,
       min(morton)::BIGINT AS min_morton, max(morton)::BIGINT AS max_morton
FROM m GROUP BY 1
"""


# --- Re-crawl politeness scheduler -------------------------------------------
_SCHED_HOST_RE = r"(?i)^https?://([^/?#]+)"
CRAWL_DELAY_US = 5_000_000  # one fetch per host per 5 s
_SCHED_PARTIAL_SCHEMA = pa.schema([
    ("host", pa.string()), ("url", pa.string()), ("last_ts", pa.int64()),
    ("hshard", pa.int64()),
])


def fetch_schedule(pages_ds):
    """The crawl scheduler's politeness queue: per host, re-fetch the
    stalest urls first, one slot per CRAWL_DELAY so no host is hammered.

    Per url the LAST capture wins; per host urls rank by (last_ts asc,
    url asc) into slots and eta = host's newest capture + slot * delay.
    Distributed shape: per-batch (host, url, max ts) partials under ONE
    host-hash-sharded exchange — a host's whole queue lands in one shard
    (the partition key IS the politeness domain), ranks fold locally."""
    N = n_shards()
    import pandas as pd

    def partial(b: pa.Table) -> pa.Table:
        url = b["url"].to_pandas()
        ts = b["warc_ts"].to_pandas().astype("int64")
        host = url.str.extract(_SCHED_HOST_RE)[0].str.translate(
            DUCK_LOWER_TRANS)
        df = pd.DataFrame({"host": host, "url": url, "last_ts": ts}).dropna(
            subset=["host"])
        g = df.groupby(["host", "url"], sort=False)["last_ts"].max().reset_index()
        g["hshard"] = (pd.util.hash_pandas_object(g["host"], index=False)
                       .to_numpy() % N).astype("int64")
        return pa.Table.from_pandas(g[["host", "url", "last_ts", "hshard"]],
                                    preserve_index=False,
                                    schema=_SCHED_PARTIAL_SCHEMA).replace_schema_metadata(None)

    def per_shard(df: "pd.DataFrame") -> pa.Table:
        m = df.groupby(["host", "url"], sort=False)["last_ts"].max().reset_index()
        m = m.sort_values(["host", "last_ts", "url"], kind="stable")
        m["slot"] = m.groupby("host", sort=False).cumcount() + 1
        m["eta_us"] = (m.groupby("host", sort=False)["last_ts"].transform("max")
                       + m["slot"] * CRAWL_DELAY_US)
        return pa.table({
            "url": pa.array(m["url"], pa.string()),
            "host": pa.array(m["host"], pa.string()),
            "slot": pa.array(m["slot"].to_numpy(np.int64)),
            "eta_us": pa.array(m["eta_us"].to_numpy(np.int64)),
        })

    return (pages_ds.map_batches(partial, batch_format="pyarrow")
            .groupby("hshard").map_groups(per_shard, batch_format="pandas"))


def fetch_schedule_sql(table: str = "pages") -> str:
    return f"""
WITH p AS (
  SELECT url, lower(regexp_extract(url, '{_SCHED_HOST_RE}', 1)) AS host,
         epoch_us(warc_ts) AS ts FROM {table}
), u AS (
  SELECT host, url, max(ts) AS last_ts FROM p
  WHERE host <> '' GROUP BY 1, 2
), r AS (
  SELECT host, url, last_ts,
         row_number() OVER (PARTITION BY host ORDER BY last_ts, url) AS slot,
         max(last_ts) OVER (PARTITION BY host) AS hmax
  FROM u
)
SELECT url, host, slot::BIGINT AS slot,
       (hmax + slot * {CRAWL_DELAY_US})::BIGINT AS eta_us
FROM r
"""


# --- URL blocklist filter (Dolma-style curation) -----------------------------
# The rule table is a module-literal (host suffix, path prefix) list shared
# verbatim by the engine and the SQL oracle; real pipelines broadcast a
# rules file the same way (ray.put once — the list is KB-sized by nature).
URL_BLOCKLIST = [
    ("ads.example", "/"),            # whole host (any path)
    ("example.org", "/fr/page-00000"),  # narrow path-prefix ban (fires on
                                        # the fixture's fr pages id < 100)
    ("tracker.net", "/pixel"),
    ("example.com", "/private"),
]


def url_blocklist_filter(pages_ds):
    """Drop pages whose (host, path) matches a blocklist rule: the host
    equals the rule host OR ends with '.'+host (subdomain match), AND the
    path starts with the rule prefix.  Row-local vectorized startswith
    checks against the tiny rule table — zero shuffle; emits the kept rows'
    (url, host) plus a blocked flag so the curation report and the filter
    share one pass."""
    import pandas as pd

    def fn(b: pa.Table) -> pa.Table:
        url = b["url"].to_pandas()
        g = url.str.extract(_CANON_RE)
        scheme = g[0].str.translate(DUCK_LOWER_TRANS)
        ok = scheme.isin(["http", "https"]).to_numpy()
        host = g[1].str.translate(DUCK_LOWER_TRANS).fillna("")
        path = g[2].fillna("")
        blocked = np.zeros(len(url), dtype=bool)
        for rh, rp in URL_BLOCKLIST:
            hm = (host == rh) | host.str.endswith("." + rh)
            blocked |= (hm & path.str.startswith(rp)).to_numpy()
        keep = ok & ~blocked
        return pa.table({
            "url": pa.array(url[keep], pa.string()),
            "host": pa.array(host[keep], pa.string()),
        })

    return pages_ds.map_batches(fn, batch_format="pyarrow")


def url_blocklist_filter_sql(table: str = "pages") -> str:
    # prefix()/suffix() are literal string matches — no LIKE metacharacters,
    # so a rule path containing '%'/'_' (common in URLs) matches exactly the
    # same rows as the engine's startswith/endswith (ADVICE r4).
    esc = lambda s: s.replace("'", "''")
    conds = " OR ".join(
        f"((host = '{esc(h)}' OR suffix(host, '.{esc(h)}'))"
        f" AND prefix(path, '{esc(p)}'))"
        for h, p in URL_BLOCKLIST)
    return f"""
WITH p AS (
  SELECT url,
         lower(regexp_extract(url, '{_CANON_RE}', 1)) AS scheme,
         lower(regexp_extract(url, '{_CANON_RE}', 2)) AS host,
         regexp_extract(url, '{_CANON_RE}', 3) AS path
  FROM {table}
)
SELECT url, host FROM p
WHERE scheme IN ('http', 'https') AND NOT ({conds})
"""


# --- per-site KMV distinct-URL sketch (sketch #4: HLL/CMS/Bloom + KMV) ------
# K-minimum-values (Bar-Yossef et al., "Counting distinct elements in a data
# stream"): keep the K smallest distinct 60-bit url hashes per site (site =
# lowercased host + first path segment, the same key family as
# host_section_stats); if fewer than K survive the count is EXACT, else
# estimate (K-1) * 2^60 / kth_min.  The sketch is mergeable (union of
# candidate sets -> K smallest again), so per-batch partials fold under ONE
# site-sharded exchange carrying at most K rows per (site, batch) — the
# grouped-sketch shape for a HIGH-cardinality key (hosts x sections at web
# scale), where the per-lang HLL's dense 256-register grid per group would
# waste 256x the exchange on sparse groups.
KMV_K = 32
_KMV_EST_CAP = 1 << 62  # kth_min can be adversarially tiny; both sides cap
_KMV_PARTIAL_SCHEMA = pa.schema([
    ("hshard", pa.int64()), ("site", pa.string()), ("hk", pa.int64()),
])


def host_distinct_kmv(pages_ds, k: int = KMV_K):
    """(site, n_kept, kth_hash, est) per (host, first path segment).  Scale
    shape: per-batch per-site K-smallest-distinct-hash partials (the
    batch-local sketch), one hash(site) % n_shards exchange, per-shard
    final fold — a site's whole candidate set lands in one shard, so the
    shard-local K-minimum is the global K-minimum.  Nothing anywhere is
    proportional to the number of urls; the exchange is bounded by
    K x sites x batches."""
    import pandas as pd

    from ..functions.hashing import h60
    from .common import n_shards

    N = n_shards()

    def partial(b: pa.Table) -> pa.Table:
        url = b["url"].to_pandas()
        parts = url.str.extract(_URL_PARTS_RE)
        site = (parts[0].str.translate(DUCK_LOWER_TRANS) + "/" + parts[1])
        df = pd.DataFrame({"site": site, "url": url}).dropna(subset=["site"])
        df["hk"] = np.array([h60(f"kmv|{u}") for u in df["url"]],
                            dtype=np.int64)
        # batch-local sketch: distinct hashes, K smallest per site
        df = (df[["site", "hk"]].drop_duplicates()
              .sort_values(["site", "hk"], kind="stable")
              .groupby("site", sort=False).head(k))
        df["hshard"] = (pd.util.hash_pandas_object(df["site"], index=False)
                        .to_numpy() % N).astype("int64")
        return pa.Table.from_pandas(df[["hshard", "site", "hk"]],
                                    preserve_index=False,
                                    schema=_KMV_PARTIAL_SCHEMA).replace_schema_metadata(None)

    def per_shard(df: "pd.DataFrame") -> pa.Table:
        m = (df[["site", "hk"]].drop_duplicates()
             .sort_values(["site", "hk"], kind="stable")
             .groupby("site", sort=False).head(k))
        g = m.groupby("site", sort=False)["hk"]
        out = g.agg(n_kept="size", kth_hash="max").reset_index()
        n_kept = out["n_kept"].to_numpy(np.int64)
        kth = out["kth_hash"].to_numpy(np.int64)
        est = np.array([int(n) if n < k
                        else min((k - 1) * (1 << 60) // max(int(h), 1),
                                 _KMV_EST_CAP)
                        for n, h in zip(n_kept, kth)], dtype=np.int64)
        return pa.table({
            "site": pa.array(out["site"], pa.string()),
            "n_kept": pa.array(n_kept),
            "kth_hash": pa.array(kth),
            "est": pa.array(est),
        })

    return (pages_ds.map_batches(partial, batch_format="pyarrow")
            .groupby("hshard").map_groups(per_shard, batch_format="pandas"))


def host_distinct_kmv_sql(table: str = "pages", k: int = KMV_K) -> str:
    return f"""
WITH p AS (
  SELECT lower(regexp_extract(url, '{_URL_PARTS_RE}', 1)) || '/' ||
         regexp_extract(url, '{_URL_PARTS_RE}', 2) AS site, url
  FROM {table}
  WHERE regexp_extract(url, '{_URL_PARTS_RE}', 1) <> ''
    AND regexp_extract(url, '{_URL_PARTS_RE}', 2) <> ''
), d AS (
  SELECT DISTINCT site,
         ('0x' || substr(md5('kmv' || chr(124) || url), 1, 15))::BIGINT AS hk
  FROM p
), r AS (
  SELECT site, hk,
         row_number() OVER (PARTITION BY site ORDER BY hk) AS rk
  FROM d
), s AS (
  SELECT site, count(*)::BIGINT AS n_kept, max(hk)::BIGINT AS kth_hash
  FROM r WHERE rk <= {k} GROUP BY site
)
SELECT site, n_kept, kth_hash,
       CASE WHEN n_kept < {k} THEN n_kept
            ELSE least(({k - 1}::HUGEINT * (1::HUGEINT << 60))
                         // greatest(kth_hash, 1), {_KMV_EST_CAP}::HUGEINT)
                   ::BIGINT
       END AS est
FROM s
"""


# --- grid-density hotspot clustering (DBSCAN on the page raster) ------------
# The density-based spatial clustering a web-geo pipeline runs to find page
# hotspots: rasterize geotags onto a fixed global grid, keep cells with at
# least MINPTS pages ("core" cells), and connect 8-adjacent core cells into
# clusters — grid-cell DBSCAN (eps = one cell, minPts on the cell count),
# fully deterministic and engine-independent because the grid is fixed.
HOTSPOT_RES = 14     # 16384 x 16384 global grid (~2.4 km/cell at the equator)
HOTSPOT_MINPTS = 8   # core-cell threshold
# Below this dense-cell count the component pass runs as ONE single-block
# union-find task (the pareto_parts frontier move: the dense-cell table is
# grid-bounded, so collapsing it to one block is not a corpus-sized
# materialization — 2M cells = three int64 columns = ~48 MB).  Above it the
# distributed hash-min kernel takes over; both routes emit identical labels
# (min packed cell id per 8-connected component).
HOTSPOT_LOCAL_MAX = 2_000_000


def page_hotspots(pages_ds, res: int = HOTSPOT_RES,
                  minpts: int = HOTSPOT_MINPTS,
                  local_max: int = HOTSPOT_LOCAL_MAX):
    """(cell, cx, cy, n_pages, cluster_id) for every dense cell; cluster_id
    = the smallest packed cell id in its 8-connected component.

    Scale shape: the corpus is touched ONCE (geotag -> per-batch np.unique
    cell partials), then every later step runs on the DENSE-CELL table,
    whose size is bounded by the grid (and in practice by the populated
    world): one grid-bounded (cell) groupby, an 8-neighbor candidate
    explode joined back against the dense set (hash join, dense x 9 rows),
    and the same distributed hash-min component kernel the dedup family
    uses — pages themselves never shuffle and never reach the driver."""
    from ray.data.aggregate import Sum

    from .common import cap_join_partitions, drop_empty_blocks
    from .dedup import hash_min_components

    n = 1 << res

    def cell_partial(b: pa.Table) -> pa.Table:
        lat = np.asarray(b["lat"].to_numpy(zero_copy_only=False), np.float64)
        lon = np.asarray(b["lon"].to_numpy(zero_copy_only=False), np.float64)
        cx = np.clip(np.floor((lon + 180.0) / 360.0 * n), 0, n - 1).astype(np.int64)
        cy = np.clip(np.floor((lat + 90.0) / 180.0 * n), 0, n - 1).astype(np.int64)
        u, c = np.unique(cx * n + cy, return_counts=True)
        return pa.table({"cell": pa.array(u, pa.int64()),
                         "n": pa.array(c.astype(np.int64), pa.int64())})

    counts = (pages_ds.map_batches(geotag_batch, batch_format="pyarrow")
              .map_batches(cell_partial, batch_format="pyarrow")
              .groupby("cell").aggregate(Sum("n", alias_name="n_pages")))

    def dense_only(b: pa.Table) -> pa.Table:
        keep = np.asarray(b["n_pages"].to_numpy(zero_copy_only=False),
                          np.int64) >= minpts
        return b.filter(pa.array(keep))

    # the dense-cell table is grid-bounded and reused three times (edge
    # source, edge target, final label join) — materialize ONCE; the filter
    # leaves schema-less empty blocks that would break the Acero hash join
    dense = drop_empty_blocks(
        counts.map_batches(dense_only, batch_format="pyarrow").materialize())

    _HOTSPOT_SCHEMA = pa.schema([
        ("cell", pa.int64()), ("cx", pa.int64()), ("cy", pa.int64()),
        ("n_pages", pa.int64()), ("cluster_id", pa.int64()),
    ])

    n_dense = dense.count()
    if n_dense == 0:
        # no dense cells anywhere: an empty RESULT must still carry the
        # schema (a 0-block dataset loses it, breaking downstream compares)
        import ray.data as rd

        return rd.from_arrow(_HOTSPOT_SCHEMA.empty_table())

    if n_dense <= local_max:
        # single-task route: the whole dense table fits one block, so the
        # 8-connectivity union-find runs locally — no joins, no CC rounds
        def finish_local(b: pa.Table) -> pa.Table:
            cell = np.asarray(b["cell"].to_numpy(zero_copy_only=False),
                              np.int64)
            npg = np.asarray(b["n_pages"].to_numpy(zero_copy_only=False),
                             np.int64)
            order = np.argsort(cell, kind="stable")
            cell, npg = cell[order], npg[order]
            cx, cy = cell // n, cell % n
            m = len(cell)
            parent = np.arange(m, dtype=np.int64)

            def find(i: int) -> int:
                while parent[i] != i:
                    parent[i] = parent[parent[i]]  # path halving
                    i = parent[i]
                return i

            # forward half of the 8-neighborhood; the backward half is the
            # same union seen from the other endpoint
            for dx, dy in ((0, 1), (1, -1), (1, 0), (1, 1)):
                nx, ny = cx + dx, cy + dy
                valid = (nx >= 0) & (nx < n) & (ny >= 0) & (ny < n)
                ncell = nx * n + ny
                idx = np.searchsorted(cell, ncell)
                idx_c = np.minimum(idx, m - 1)
                hit = valid & (cell[idx_c] == ncell)
                for i, j in zip(np.nonzero(hit)[0], idx_c[hit]):
                    ri, rj = find(int(i)), find(int(j))
                    if ri != rj:
                        parent[max(ri, rj)] = min(ri, rj)
            roots = np.fromiter((find(int(i)) for i in range(m)),
                                dtype=np.int64, count=m)
            # cluster id = min cell id per root; roots are min-index by
            # construction and cell is sorted, so cell[root] IS the min
            return pa.table({
                "cell": pa.array(cell, pa.int64()),
                "cx": pa.array(cx, pa.int64()),
                "cy": pa.array(cy, pa.int64()),
                "n_pages": pa.array(npg, pa.int64()),
                "cluster_id": pa.array(cell[roots], pa.int64()),
            })

        return dense.repartition(1).map_batches(
            finish_local, batch_format="pyarrow", batch_size=None)

    def candidates(b: pa.Table) -> pa.Table:
        cell = np.asarray(b["cell"].to_numpy(zero_copy_only=False), np.int64)
        cx, cy = cell // n, cell % n
        us, vs = [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                nx, ny = cx + dx, cy + dy
                m = (nx >= 0) & (nx < n) & (ny >= 0) & (ny < n)
                us.append(cell[m])
                vs.append((nx * n + ny)[m])
        return pa.table({"u": pa.array(np.concatenate(us), pa.int64()),
                         "cell": pa.array(np.concatenate(vs), pa.int64())})

    # keep candidate edges whose target is dense (self-edges always survive,
    # so isolated dense cells still get a component label)
    edges = (dense.map_batches(candidates, batch_format="pyarrow")
             .join(dense.select_columns(["cell"]), join_type="inner",
                   num_partitions=cap_join_partitions(8), on=("cell",))
             .map_batches(lambda b: pa.table({"u": b["u"], "v": b["cell"]}),
                          batch_format="pyarrow"))

    labels = hash_min_components(edges, node_col="u", nbr_col="v").map_batches(
        lambda b: pa.table({"cell": b["node"], "cluster_id": b["label"]}),
        batch_format="pyarrow")

    def finish(b: pa.Table) -> pa.Table:
        cell = np.asarray(b["cell"].to_numpy(zero_copy_only=False), np.int64)
        return pa.table({
            "cell": pa.array(cell, pa.int64()),
            "cx": pa.array(cell // n, pa.int64()),
            "cy": pa.array(cell % n, pa.int64()),
            "n_pages": b["n_pages"],
            "cluster_id": b["cluster_id"],
        })

    return (labels.join(dense, join_type="inner",
                        num_partitions=cap_join_partitions(8), on=("cell",))
            .map_batches(finish, batch_format="pyarrow"))


def _hotspot_cte(table: str, res: int, minpts: int) -> str:
    """Shared CTE chain: geotag parse -> per-cell counts -> dense cells ->
    8-adjacency edges -> recursive closure -> (node, cluster_id) labels."""
    n = 1 << res
    return f"""g0 AS (
  SELECT url,
         TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 1) AS DOUBLE) AS lat,
         TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 2) AS DOUBLE) AS lon
  FROM {table}
), g AS (
  SELECT url,
         least(greatest(CAST(floor((lon + 180.0) / 360.0 * {n}) AS BIGINT), 0), {n - 1}) AS cx,
         least(greatest(CAST(floor((lat + 90.0) / 180.0 * {n}) AS BIGINT), 0), {n - 1}) AS cy
  FROM g0
  WHERE lat IS NOT NULL AND lon IS NOT NULL AND isfinite(lat) AND isfinite(lon)
), c AS (
  SELECT cx, cy, count(*)::BIGINT AS n_pages FROM g GROUP BY 1, 2
), d AS (
  SELECT cx * {n} + cy AS cell, cx, cy, n_pages FROM c WHERE n_pages >= {minpts}
), e AS (
  SELECT a.cell AS u, b.cell AS v FROM d a JOIN d b
  ON abs(a.cx - b.cx) <= 1 AND abs(a.cy - b.cy) <= 1
), reach AS (
  SELECT u AS node, u AS r FROM e
  UNION
  SELECT reach.node, e.v FROM reach JOIN e ON e.u = reach.r
), lab AS (
  SELECT node, min(r)::BIGINT AS cluster_id FROM reach GROUP BY node
)"""


def page_hotspots_sql(table: str = "pages", res: int = HOTSPOT_RES,
                      minpts: int = HOTSPOT_MINPTS) -> str:
    return f"""
WITH RECURSIVE {_hotspot_cte(table, res, minpts)}
SELECT d.cell, d.cx, d.cy, d.n_pages, lab.cluster_id
FROM d JOIN lab ON lab.node = d.cell
"""


# Broadcast cap for the dense-cell label map in page_hotspot_assign: two
# int64 columns, so 16 B/cell — 50M dense cells = 800 MB, well past the
# repo's broadcast budget.  The populated-world dense-cell count at res 14
# is orders of magnitude below this; the guard exists so the op can never
# be silently pointed at a configuration (tiny minpts, huge res) where the
# map stops being broadcast-sized (same contract as knn_graph's cap).
HOTSPOT_ASSIGN_BROADCAST_MAX = 20_000_000


def page_hotspot_assign(pages_ds, res: int = HOTSPOT_RES,
                        minpts: int = HOTSPOT_MINPTS,
                        local_max: int = HOTSPOT_LOCAL_MAX):
    """Grid-DBSCAN classification: every geotagged page gets the cluster_id
    of its cell (NULL = noise, the cell is not core).  Completes the
    hotspot family: ``page_hotspots`` builds the cluster table,
    this op joins the corpus against it.

    Scale shape: the corpus streams twice (both passes column-pruned, the
    cell-count pass via ``page_hotspots``); the dense-cell label map —
    grid/world-bounded, NOT corpus-bounded — ships once via ``ray.put`` as
    two sorted int64 arrays and each batch classifies by searchsorted.
    Pages never shuffle; the only exchange is the grid-bounded (cell)
    groupby inside ``page_hotspots``."""
    import ray

    from .common import cached_get

    n = 1 << res
    lab = page_hotspots(pages_ds, res=res, minpts=minpts,
                        local_max=local_max).to_pandas()
    if len(lab) > HOTSPOT_ASSIGN_BROADCAST_MAX:
        raise ValueError(
            f"dense-cell label map has {len(lab)} rows, past the "
            f"{HOTSPOT_ASSIGN_BROADCAST_MAX} broadcast cap; raise minpts or "
            f"lower res so the map stays broadcast-sized")
    if len(lab):
        lab = lab.sort_values("cell", kind="stable")
        map_ref = ray.put((lab["cell"].to_numpy(np.int64),
                           lab["cluster_id"].to_numpy(np.int64)))
    else:  # no dense cells: to_pandas drops the schema of the empty table
        map_ref = ray.put((np.empty(0, np.int64), np.empty(0, np.int64)))

    def assign(b: pa.Table) -> pa.Table:
        cells_sorted, clusters = cached_get(map_ref)
        lat = np.asarray(b["lat"].to_numpy(zero_copy_only=False), np.float64)
        lon = np.asarray(b["lon"].to_numpy(zero_copy_only=False), np.float64)
        cx = np.clip(np.floor((lon + 180.0) / 360.0 * n), 0, n - 1).astype(np.int64)
        cy = np.clip(np.floor((lat + 90.0) / 180.0 * n), 0, n - 1).astype(np.int64)
        cell = cx * n + cy
        m = len(cells_sorted)
        if m == 0:  # no dense cells anywhere: every page is noise
            hit = np.zeros(len(cell), dtype=bool)
            cl = np.zeros(len(cell), dtype=np.int64)
        else:
            idx_c = np.minimum(np.searchsorted(cells_sorted, cell), m - 1)
            hit = cells_sorted[idx_c] == cell
            cl = clusters[idx_c]
        return pa.table({
            "url": b["url"],
            "cell": pa.array(cell, pa.int64()),
            "cluster_id": pa.array(cl, pa.int64(), mask=~hit),
        })

    return (pages_ds.map_batches(geotag_batch, batch_format="pyarrow")
            .map_batches(assign, batch_format="pyarrow"))


def page_hotspot_assign_sql(table: str = "pages", res: int = HOTSPOT_RES,
                            minpts: int = HOTSPOT_MINPTS) -> str:
    n = 1 << res
    return f"""
WITH RECURSIVE {_hotspot_cte(table, res, minpts)}
SELECT g.url, g.cx * {n} + g.cy AS cell, lab.cluster_id
FROM g LEFT JOIN lab ON lab.node = g.cx * {n} + g.cy
"""


# --- pages -> city boundary PIP join (J4 semantics over the corpus) ---------
def pages_in_city(pages_ds, bounds_tbl: pa.Table):
    """Every geotagged page tagged with its city: first city polygon (in
    boundary-file order) containing the point, else 'Unincorporated' — the
    reference's city-tag semantics (js/geo.js:60-70,1246-1266) applied to
    the web corpus instead of way nodes.

    Scale shape: boundaries are dimension data (a whole planet's admin
    polygons are ~GB, a region's ~MB) — parsed ONCE on the driver, shipped
    via ``ray.put``, cached per worker; pages stream through geotag + a
    vectorized even-odd ray cast per polygon with first-match short-circuit.
    Zero shuffle; nothing corpus-sized anywhere.  The SQL oracle replays
    the exact ray cast (same float op order) per (page, polygon, ring)."""
    import ray

    from ..functions.geometry import first_match_city_np, parse_geom_json
    from .common import cached_get

    bd = bounds_tbl.to_pydict()
    order = sorted(range(len(bd["name"])), key=lambda i: bd["file_order"][i])
    citys = [(bd["name"][i], parse_geom_json(bd["geom_json"][i]))
             for i in order if bd["kind"][i] == "city"]
    polys_ref = ray.put(citys)

    def tag(b: pa.Table) -> pa.Table:
        polys = cached_get(polys_ref)
        city = first_match_city_np(
            np.asarray(b["lon"].to_numpy(zero_copy_only=False), np.float64),
            np.asarray(b["lat"].to_numpy(zero_copy_only=False), np.float64),
            polys)
        return pa.table({"url": b["url"],
                         "city": pa.array(city.tolist(), pa.string())})

    return (pages_ds.map_batches(geotag_batch, batch_format="pyarrow")
            .map_batches(tag, batch_format="pyarrow"))


def pages_in_city_sql(table: str, bounds_path: str) -> str:
    # Edge orientation matches functions/geometry.py::points_in_ring_np
    # exactly (i = later vertex, j = earlier), so x_at is computed with the
    # identical float64 operation order and the strict '<' compares bit-
    # for-bit.  Horizontal edges: the crossing test is FALSE, and DuckDB's
    # NULL-on-zero-divide x_at dies inside FALSE AND ... -> FALSE, like the
    # engine's masked errstate divide.  Ring 1 is the outer ring; rings
    # 2..n are holes (even-odd, outer AND NOT hole), matching
    # points_in_shape_np on the Polygon encoding.
    x = lambda r, k: f"b.poly[{r}][{k}][1]"
    y = lambda r, k: f"b.poly[{r}][{k}][2]"
    xat = (f"({x('r.ri', 'k')} - {x('r.ri', 'k+1')})"
           f" * (g.lat - {y('r.ri', 'k+1')})"
           f" / ({y('r.ri', 'k')} - {y('r.ri', 'k+1')})"
           f" + {x('r.ri', 'k+1')}")
    return f"""
WITH g0 AS (
  SELECT url,
         TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 1) AS DOUBLE) AS lat,
         TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 2) AS DOUBLE) AS lon
  FROM {table}
), g AS (
  SELECT * FROM g0
  WHERE lat IS NOT NULL AND lon IS NOT NULL AND isfinite(lat) AND isfinite(lon)
), b AS (
  SELECT name, file_order, CAST(geom_json AS DOUBLE[][][]) AS poly
  FROM read_parquet('{bounds_path}') WHERE kind = 'city'
), pr AS (
  SELECT g.url, b.name, b.file_order, r.ri,
         list_sum(list_transform(range(1, len(b.poly[r.ri])), k ->
           CASE WHEN ({y('r.ri', 'k+1')} > g.lat) <> ({y('r.ri', 'k')} > g.lat)
                 AND g.lon < {xat}
                THEN 1 ELSE 0 END)) % 2 = 1 AS par
  FROM g CROSS JOIN b,
       LATERAL (SELECT unnest(generate_series(1, len(b.poly))) AS ri) r
), ins AS (
  SELECT url, name, file_order,
         bool_or(CASE WHEN ri = 1 THEN par END)
           AND NOT coalesce(bool_or(CASE WHEN ri > 1 THEN par END), FALSE)
           AS inside
  FROM pr GROUP BY url, name, file_order
), pick AS (
  SELECT url, min_by(name, file_order) AS city FROM ins WHERE inside GROUP BY url
)
SELECT g.url, coalesce(pick.city, 'Unincorporated') AS city
FROM g LEFT JOIN pick USING (url)
"""


# ---------------------------------------------------------------------------
# Hexagonal binning (H3-style density grid over page geotags)
#
# The north-star's index family is H3/S2; the square tile pyramid
# (morton_tiles / tile_pyramid) covers the S2-ish quadtree side, and this op
# is the hexagonal side: pages binned onto a pointy-top axial hex grid
# (Red-Blobs cube-round assignment — the same cell shape H3 uses, minus the
# icosahedron projection, which needs no spherical machinery at binning
# resolution).  Hexes are the preferred density grid because every neighbor
# shares an edge (no corner-adjacency ambiguity) and cell area is uniform.
#
# Determinism contract: the (lon, lat) -> (q, r) assignment is pure float64
# arithmetic (two linear forms, floor-rounding, and an exclusive three-way
# CASE on the rounding residuals); the SQL oracle spells out the IDENTICAL
# operation order, so engine and DuckDB agree bit-for-bit on every page,
# including points on hex boundaries.
HEX_SIZE_DEG = 0.02  # hex circumradius in degrees (~2.2 km N-S)


def _hex_qr(lat: np.ndarray, lon: np.ndarray, size: float):
    """(lat, lon) -> integer axial hex coords (q, r), cube-rounded.

    Pointy-top axial basis: xf = (sqrt(3)/3 * lon - 1/3 * lat) / size,
    zf = (2/3 * lat) / size; rounding = floor(v + 0.5) (not banker's — the
    SQL mirrors floor(v + 0.5) exactly), then the standard cube-round fixup
    re-derives the axis with the largest residual from the other two."""
    c1 = np.float64(np.sqrt(3.0) / 3.0)
    c2 = np.float64(1.0 / 3.0)
    c3 = np.float64(2.0 / 3.0)
    xf = (c1 * lon - c2 * lat) / size
    zf = (c3 * lat) / size
    yf = -xf - zf
    rx = np.floor(xf + 0.5)
    ry = np.floor(yf + 0.5)
    rz = np.floor(zf + 0.5)
    dx = np.abs(rx - xf)
    dy = np.abs(ry - yf)
    dz = np.abs(rz - zf)
    cond1 = (dx > dy) & (dx > dz)           # x residual largest -> rederive x
    cond3 = ~cond1 & ~(dy > dz)             # else-branch -> rederive z
    q = np.where(cond1, -ry - rz, rx)
    r = np.where(cond3, -rx - ry, rz)       # cond3 excludes cond1: rx is raw
    return q.astype(np.int64), r.astype(np.int64)


# packing base for the (q, r) -> single-int64 groupby key; covers any size
# down to ~1e-4 degrees (|q| < 2^20 needs size > ~1.4e-4)
_HEX_PACK_B = np.int64(1 << 20)


def page_hex_density(pages_ds, size: float = HEX_SIZE_DEG):
    """(q, r, n_pages) for every hex cell holding at least one geotagged
    page.

    Scale shape: the corpus is touched ONCE (column-pruned read -> geotag
    parse -> per-batch np.unique hex partials); the single exchange is the
    grid-bounded (hex) groupby over per-batch partial counts — pages never
    shuffle and never reach the driver.  The hex id packs (q, r) into one
    int64 so the exchange key is a scalar."""
    from ray.data.aggregate import Sum

    B2 = np.int64(2) * _HEX_PACK_B

    def hex_partial(b: pa.Table) -> pa.Table:
        lat = np.asarray(b["lat"].to_numpy(zero_copy_only=False), np.float64)
        lon = np.asarray(b["lon"].to_numpy(zero_copy_only=False), np.float64)
        q, r = _hex_qr(lat, lon, size)
        u, c = np.unique((q + _HEX_PACK_B) * B2 + (r + _HEX_PACK_B),
                         return_counts=True)
        return pa.table({"hex": pa.array(u, pa.int64()),
                         "n": pa.array(c.astype(np.int64), pa.int64())})

    counts = (pages_ds.map_batches(geotag_batch, batch_format="pyarrow")
              .map_batches(hex_partial, batch_format="pyarrow")
              .groupby("hex").aggregate(Sum("n", alias_name="n_pages")))

    _SCHEMA = pa.schema([("q", pa.int64()), ("r", pa.int64()),
                         ("n_pages", pa.int64())])

    def unpack(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return _SCHEMA.empty_table()
        h = np.asarray(b["hex"].to_numpy(zero_copy_only=False), np.int64)
        return pa.table({"q": pa.array(h // B2 - _HEX_PACK_B, pa.int64()),
                         "r": pa.array(h % B2 - _HEX_PACK_B, pa.int64()),
                         "n_pages": b["n_pages"]}, schema=_SCHEMA)

    # materialize the grid-bounded result BEFORE the empty-guard count():
    # count() executes the plan, and returning the un-materialized dataset
    # would re-execute the whole corpus pass for the consumer (measured 2x)
    out = counts.map_batches(unpack, batch_format="pyarrow").materialize()
    if out.count() == 0:
        # an all-empty aggregation loses its schema; rebuild it explicitly
        import ray.data as rd

        return rd.from_arrow(_SCHEMA.empty_table())
    return out


def _hex_cte(table: str, size: float, extra: str = "") -> str:
    # Same operation ORDER as _hex_qr: the two linear forms, floor(v+0.5)
    # rounding, residuals, and the exclusive CASE fixup; sqrt(3.0)/3.0 etc.
    # are correctly-rounded doubles in both engines, so every intermediate
    # is bit-identical.  ``extra`` (e.g. ", lang") carries passthrough
    # columns into h5 for the geo-by-content crosses.
    s = repr(float(size))
    return f"""g0 AS (
  SELECT TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 1) AS DOUBLE) AS lat,
         TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 2) AS DOUBLE) AS lon{extra}
  FROM {table}
), g AS (
  SELECT * FROM g0
  WHERE lat IS NOT NULL AND lon IS NOT NULL AND isfinite(lat) AND isfinite(lon)
), h1 AS (
  SELECT ((sqrt(3.0) / 3.0) * lon - (1.0 / 3.0) * lat) / {s} AS xf,
         ((2.0 / 3.0) * lat) / {s} AS zf{extra}
  FROM g
), h2 AS (
  SELECT xf, zf, -xf - zf AS yf{extra} FROM h1
), h3 AS (
  SELECT xf, yf, zf,
         floor(xf + 0.5) AS rx, floor(yf + 0.5) AS ry, floor(zf + 0.5) AS rz{extra}
  FROM h2
), h4 AS (
  SELECT rx, ry, rz,
         abs(rx - xf) AS dx, abs(ry - yf) AS dy, abs(rz - zf) AS dz{extra}
  FROM h3
), h5 AS (
  SELECT CAST(CASE WHEN dx > dy AND dx > dz THEN -ry - rz ELSE rx END AS BIGINT) AS q,
         CAST(CASE WHEN NOT (dx > dy AND dx > dz) AND NOT (dy > dz)
                   THEN -rx - ry ELSE rz END AS BIGINT) AS r{extra}
  FROM h4
)"""


def page_hex_density_sql(table: str = "pages",
                         size: float = HEX_SIZE_DEG) -> str:
    return f"""
WITH {_hex_cte(table, size)}
SELECT q, r, count(*)::BIGINT AS n_pages FROM h5 GROUP BY q, r
"""


def hex_kring_smooth(pages_ds, size: float = HEX_SIZE_DEG):
    """(q, r, n_pages, n_ring) per occupied hex: own count plus the k=1
    ring-smoothed count (sum over the hex and its six axial neighbors) —
    the hex-grid density surface a heatmap/siting layer renders, and the
    hex-adjacency counterpart of the square-grid hotspot family.

    Scale shape: ``page_hex_density`` touches the corpus once; everything
    after runs on the OCCUPIED-HEX table (grid/world-bounded): each hex
    emits 7 (target, count) contribution rows and ONE hex-keyed groupby
    folds them; occupied-membership rides the same exchange as a marker
    row, so hexes only reachable as neighbors (never occupied) drop without
    a second pass."""
    from ray.data.aggregate import Max, Sum

    B2 = np.int64(2) * _HEX_PACK_B
    dense = page_hex_density(pages_ds, size=size)

    _SCHEMA = pa.schema([("hex", pa.int64()), ("n", pa.int64()),
                         ("own", pa.int64())])

    def contribute(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return _SCHEMA.empty_table()
        q = np.asarray(b["q"].to_numpy(zero_copy_only=False), np.int64)
        r = np.asarray(b["r"].to_numpy(zero_copy_only=False), np.int64)
        n = np.asarray(b["n_pages"].to_numpy(zero_copy_only=False), np.int64)
        hx, cnt, own = [], [], []
        for dq, dr in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
                       (1, -1), (-1, 1)):
            hx.append((q + dq + _HEX_PACK_B) * B2 + (r + dr + _HEX_PACK_B))
            cnt.append(n)
            # the (0,0) row doubles as the occupied marker (own = n_pages)
            own.append(n if (dq, dr) == (0, 0) else np.zeros(len(n),
                                                            np.int64))
        return pa.table({"hex": pa.array(np.concatenate(hx)),
                         "n": pa.array(np.concatenate(cnt)),
                         "own": pa.array(np.concatenate(own))},
                        schema=_SCHEMA)

    agg = (dense.map_batches(contribute, batch_format="pyarrow")
           .groupby("hex").aggregate(Sum("n", alias_name="n_ring"),
                                     Max("own", alias_name="n_pages")))

    _OUT = pa.schema([("q", pa.int64()), ("r", pa.int64()),
                      ("n_pages", pa.int64()), ("n_ring", pa.int64())])

    def finish(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return _OUT.empty_table()
        keep = np.asarray(b["n_pages"].to_numpy(zero_copy_only=False),
                          np.int64) > 0
        t = b.filter(pa.array(keep))
        h = np.asarray(t["hex"].to_numpy(zero_copy_only=False), np.int64)
        return pa.table({"q": pa.array(h // B2 - _HEX_PACK_B, pa.int64()),
                         "r": pa.array(h % B2 - _HEX_PACK_B, pa.int64()),
                         "n_pages": t["n_pages"], "n_ring": t["n_ring"]},
                        schema=_OUT)

    out = agg.map_batches(finish, batch_format="pyarrow").materialize()
    if out.count() == 0:
        import ray.data as rd

        return rd.from_arrow(_OUT.empty_table())
    return out


def hex_kring_smooth_sql(table: str = "pages",
                         size: float = HEX_SIZE_DEG) -> str:
    # occupied hexes from the shared assignment chain, then a 7-neighbor
    # self-join (the hex and its six axial neighbors) folded per hex
    base = page_hex_density_sql(table, size).strip().rstrip()
    return f"""
WITH dense AS ({base})
SELECT a.q, a.r, a.n_pages, sum(b.n_pages)::BIGINT AS n_ring
FROM dense a
CROSS JOIN (VALUES (0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
                   (1, -1), (-1, 1)) AS d(dq, dr)
JOIN dense b ON b.q = a.q + d.dq AND b.r = a.r + d.dr
GROUP BY a.q, a.r, a.n_pages
"""


# ---------------------------------------------------------------------------
# Batched bbox range queries (the "ways_in_viewport" / tile-server shape)
#
# A fixed, deterministic set of query rectangles answered in ONE streaming
# pass over the corpus: 4x4 tiles over the base synthetic world, one
# all-covering box, one box over the first replica shift, and one empty
# ocean box (result rows drop when a box matches nothing — both sides use
# inner-join semantics).  Boxes are HALF-OPEN [min, max) so a point on a
# shared tile edge counts in exactly one tile; the literal floats are
# repr-round-tripped into the SQL so every comparison is bit-identical.
def _bbox_queries() -> list:
    out = []
    bid = 0
    for i in range(4):
        for j in range(4):
            out.append((bid,
                        round(36.90 + 0.125 * i, 6),
                        round(-122.40 + 0.225 * j, 6),
                        round(36.90 + 0.125 * (i + 1), 6),
                        round(-122.40 + 0.225 * (j + 1), 6)))
            bid += 1
    out.append((bid, 36.0, -123.0, 38.0, -120.0))       # whole base world
    out.append((bid + 1, 36.0, -121.5, 38.0, -120.4))   # first replica band
    out.append((bid + 2, 10.0, 10.0, 11.0, 11.0))       # empty ocean box
    return out


BBOX_QUERIES = _bbox_queries()


def bbox_range_count(pages_ds):
    """(box_id, n_pages) for every query box holding at least one geotagged
    page.  Overlapping boxes each count the page (a multi-viewport query,
    not a partition).

    Scale shape: the query set is a module constant (a broadcast would ship
    identically); the corpus is touched ONCE — per-batch vectorized
    point-in-bbox masks fold to (box_id, n) partials, and the single
    exchange is the boxes-bounded groupby-sum."""
    from ray.data.aggregate import Sum

    boxes = np.array([b[1:] for b in BBOX_QUERIES], np.float64)
    ids = np.array([b[0] for b in BBOX_QUERIES], np.int64)

    def partial(b: pa.Table) -> pa.Table:
        lat = np.asarray(b["lat"].to_numpy(zero_copy_only=False), np.float64)
        lon = np.asarray(b["lon"].to_numpy(zero_copy_only=False), np.float64)
        hit = ((lat[:, None] >= boxes[None, :, 0])
               & (lat[:, None] < boxes[None, :, 2])
               & (lon[:, None] >= boxes[None, :, 1])
               & (lon[:, None] < boxes[None, :, 3]))
        n = hit.sum(axis=0).astype(np.int64)
        nz = n > 0
        return pa.table({"box_id": pa.array(ids[nz], pa.int64()),
                         "n": pa.array(n[nz], pa.int64())})

    out = (pages_ds.map_batches(geotag_batch, batch_format="pyarrow")
           .map_batches(partial, batch_format="pyarrow")
           .groupby("box_id").aggregate(Sum("n", alias_name="n_pages"))
           .materialize())
    _OUT = pa.schema([("box_id", pa.int64()), ("n_pages", pa.int64())])
    if out.count() == 0:
        import ray.data as rd

        return rd.from_arrow(_OUT.empty_table())
    return out


def bbox_range_count_sql(table: str = "pages") -> str:
    rows = ",\n         ".join(
        f"({bid}, {repr(a)}, {repr(b)}, {repr(c)}, {repr(d)})"
        for bid, a, b, c, d in BBOX_QUERIES)
    return f"""
WITH g0 AS (
  SELECT TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 1) AS DOUBLE) AS lat,
         TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 2) AS DOUBLE) AS lon
  FROM {table}
), g AS (
  SELECT * FROM g0
  WHERE lat IS NOT NULL AND lon IS NOT NULL AND isfinite(lat) AND isfinite(lon)
), boxes(box_id, minlat, minlon, maxlat, maxlon) AS (
  VALUES {rows}
)
SELECT box_id::BIGINT AS box_id, count(*)::BIGINT AS n_pages
FROM g JOIN boxes
  ON g.lat >= boxes.minlat AND g.lat < boxes.maxlat
 AND g.lon >= boxes.minlon AND g.lon < boxes.maxlon
GROUP BY box_id
"""


def hex_mode_lang(pages_ds, size: float = HEX_SIZE_DEG):
    """(q, r, top_lang, n_top, n_pages) — the dominant document language per
    occupied hex cell (ties break lang-ascending; NULL lang folds to '').
    The geo-by-content cross a multilingual crawl curates with: where does
    each language's web live?

    Scale shape: one column-pruned corpus pass (geotag + lang carried) into
    per-batch (hex, lang) count partials; the single exchange is the
    hex-keyed groupby, whose per-hex fold (sum by lang, argmax) sees only
    partial rows — bounded by |langs| per hex per input block."""

    B2 = np.int64(2) * _HEX_PACK_B

    def partial(b: pa.Table) -> pa.Table:
        import pandas as pd

        lat = np.asarray(b["lat"].to_numpy(zero_copy_only=False), np.float64)
        lon = np.asarray(b["lon"].to_numpy(zero_copy_only=False), np.float64)
        q, r = _hex_qr(lat, lon, size)
        lang = pd.Series(b["lang"].to_pylist(), dtype=object).fillna("")
        df = pd.DataFrame({"hex": (q + _HEX_PACK_B) * B2 + (r + _HEX_PACK_B),
                           "lang": lang})
        g = df.groupby(["hex", "lang"], sort=False).size().reset_index(name="n")
        return pa.table({"hex": pa.array(g["hex"].to_numpy(np.int64)),
                         "lang": pa.array(g["lang"].to_numpy(object),
                                          pa.string()),
                         "n": pa.array(g["n"].to_numpy(np.int64))})

    _OUT = pa.schema([("q", pa.int64()), ("r", pa.int64()),
                      ("top_lang", pa.string()), ("n_top", pa.int64()),
                      ("n_pages", pa.int64())])

    def per_hex(df) -> pa.Table:
        import pandas as pd

        g = (df.groupby(["hex", "lang"], sort=False)["n"].sum()
             .reset_index())
        g = g.sort_values(["hex", "n", "lang"],
                          ascending=[True, False, True], kind="stable")
        total = g.groupby("hex", sort=False)["n"].sum()
        top = g.drop_duplicates("hex")
        h = top["hex"].to_numpy(np.int64)
        return pa.table({
            "q": pa.array(h // np.int64(2 * _HEX_PACK_B) - _HEX_PACK_B,
                          pa.int64()),
            "r": pa.array(h % np.int64(2 * _HEX_PACK_B) - _HEX_PACK_B,
                          pa.int64()),
            "top_lang": pa.array(top["lang"].to_numpy(object), pa.string()),
            "n_top": pa.array(top["n"].to_numpy(np.int64)),
            "n_pages": pa.array(total[h].to_numpy(np.int64)),
        }, schema=_OUT)

    out = (pages_ds.map_batches(
        lambda b: geotag_batch(b, carry=("lang",)), batch_format="pyarrow")
        .map_batches(partial, batch_format="pyarrow")
        .groupby("hex").map_groups(per_hex, batch_format="pandas")
        .materialize())
    if out.count() == 0:
        import ray.data as rd

        return rd.from_arrow(_OUT.empty_table())
    return out


def hex_mode_lang_sql(table: str = "pages",
                      size: float = HEX_SIZE_DEG) -> str:
    return f"""
WITH {_hex_cte(table, size, extra=", lang")},
c AS (
  SELECT q, r, coalesce(lang, '') AS lang, count(*)::BIGINT AS n
  FROM h5 GROUP BY 1, 2, 3
), t AS (
  SELECT q, r, sum(n)::BIGINT AS n_pages FROM c GROUP BY 1, 2
), p AS (
  SELECT q, r, lang, n,
         row_number() OVER (PARTITION BY q, r ORDER BY n DESC, lang) AS rn
  FROM c
)
SELECT p.q, p.r, p.lang AS top_lang, p.n AS n_top, t.n_pages
FROM p JOIN t USING (q, r) WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# Geofencing: pages near a city boundary line
#
# The proximity-alert primitive (geofence entry/exit, "within X m of an
# admin border"): every geotagged page within GEOFENCE_RADIUS_M meters of
# any city boundary EDGE (outer rings and holes alike), with the set of
# cities whose border it approaches.  Distance = point-to-segment squared
# Euclidean in degree space (the snap op's exact _project_d2 chain); the
# threshold constant is computed ONCE driver-side and embedded verbatim in
# both the engine compare and the SQL literal, so the d2 <= D2 comparison
# is bit-identical.
GEOFENCE_RADIUS_M = 100.0


def _geofence_d2(radius_m: float) -> float:
    d = np.float64(radius_m) / np.float64(100000.0)  # METERS_PER_DEGREE
    return float(d * d)


def pages_near_boundary(pages_ds, bounds_tbl: pa.Table,
                        radius_m: float = GEOFENCE_RADIUS_M):
    """(url, n_near, cities) for every geotagged page within ``radius_m``
    of at least one city boundary edge; cities = '/'-joined sorted names.

    Scale shape: boundaries are dimension data — segment arrays built once
    on the driver, shipped via ray.put, cached per worker; pages stream
    through ONE pass with a per-city bbox prescreen before the vectorized
    projection block.  Zero shuffle.  (A planet-scale boundary set would
    bucket segments by grid cell exactly like pages_way_join's cover index;
    the per-region segment count this engine targets is dimension-bounded.)"""
    import ray

    from ..functions.geometry import parse_geom_json
    from .common import cached_get
    from .knn import _project_d2

    d_deg = float(np.float64(radius_m) / np.float64(100000.0))
    d2_max = _geofence_d2(radius_m)

    bd = bounds_tbl.to_pydict()
    by_name: dict = {}
    for i in range(len(bd["name"])):
        if bd["kind"][i] != "city":
            continue
        segs = by_name.setdefault(bd["name"][i], [[], [], [], []])
        for rings in parse_geom_json(bd["geom_json"][i]):
            for ring in rings:
                if len(ring) < 2:
                    continue
                segs[0].append(np.asarray(ring[:-1, 0], np.float64))
                segs[1].append(np.asarray(ring[:-1, 1], np.float64))
                segs[2].append(np.asarray(ring[1:, 0], np.float64))
                segs[3].append(np.asarray(ring[1:, 1], np.float64))
    cities = []
    for name in sorted(by_name):
        if not by_name[name][0]:
            continue  # only degenerate rings: no segments, no rows
        x1, y1, x2, y2 = (np.concatenate(a) for a in by_name[name])
        bbox = (min(x1.min(), x2.min()) - d_deg,
                min(y1.min(), y2.min()) - d_deg,
                max(x1.max(), x2.max()) + d_deg,
                max(y1.max(), y2.max()) + d_deg)
        cities.append((name, x1, y1, x2, y2, bbox))
    ref = ray.put(cities)

    _OUT = pa.schema([("url", pa.string()), ("n_near", pa.int64()),
                      ("cities", pa.string())])

    def near(b: pa.Table) -> pa.Table:
        cs = cached_get(ref)
        lon = np.asarray(b["lon"].to_numpy(zero_copy_only=False), np.float64)
        lat = np.asarray(b["lat"].to_numpy(zero_copy_only=False), np.float64)
        n = len(lon)
        hits = []   # per city: bool mask over pages
        names = []
        for name, x1, y1, x2, y2, (bx0, by0, bx1, by1) in cs:
            pre = (lon >= bx0) & (lon <= bx1) & (lat >= by0) & (lat <= by1)
            mask = np.zeros(n, bool)
            if pre.any():
                idx = np.nonzero(pre)[0]
                d2, _ = _project_d2(lon[idx, None], lat[idx, None],
                                    x1[None, :], y1[None, :],
                                    x2[None, :], y2[None, :])
                mask[idx] = (d2 <= d2_max).any(axis=1)
            hits.append(mask)
            names.append(name)
        if not hits:
            return _OUT.empty_table()
        hm = np.stack(hits, axis=1)          # (pages, cities), city-name asc
        cnt = hm.sum(axis=1).astype(np.int64)
        keep = cnt >= 1
        if not keep.any():
            return _OUT.empty_table()
        urls = b["url"].to_pylist()
        out_u, out_c, out_s = [], [], []
        for i in np.nonzero(keep)[0]:
            out_u.append(urls[i])
            out_c.append(int(cnt[i]))
            out_s.append("/".join(names[j] for j in np.nonzero(hm[i])[0]))
        return pa.table({"url": pa.array(out_u, pa.string()),
                         "n_near": pa.array(out_c, pa.int64()),
                         "cities": pa.array(out_s, pa.string())},
                        schema=_OUT)

    out = (pages_ds.map_batches(geotag_batch, batch_format="pyarrow")
           .map_batches(near, batch_format="pyarrow"))
    return out


def pages_near_boundary_sql(table: str, bounds_path: str,
                            radius_m: float = GEOFENCE_RADIUS_M) -> str:
    d2_max = repr(_geofence_d2(radius_m))
    return f"""
WITH g0 AS (
  SELECT url,
         TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 1) AS DOUBLE) AS lat,
         TRY_CAST(regexp_extract(decode(html),
              '<meta name="geo\\.position" content="([^;]+);([^"]+)">', 2) AS DOUBLE) AS lon
  FROM {table}
), g AS (
  SELECT * FROM g0
  WHERE lat IS NOT NULL AND lon IS NOT NULL AND isfinite(lat) AND isfinite(lon)
), b AS (
  SELECT name, CAST(geom_json AS DOUBLE[][][]) AS poly
  FROM read_parquet('{bounds_path}') WHERE kind = 'city'
), seg AS (
  SELECT b.name,
         b.poly[r.ri][s.k][1] AS x1, b.poly[r.ri][s.k][2] AS y1,
         b.poly[r.ri][s.k + 1][1] AS x2, b.poly[r.ri][s.k + 1][2] AS y2
  FROM b,
       LATERAL (SELECT unnest(generate_series(1, len(b.poly))) AS ri) r,
       LATERAL (SELECT unnest(generate_series(1, len(b.poly[r.ri]) - 1))
                  AS k) s
), sc AS (
  SELECT g.url, seg.name, g.lon, g.lat, seg.x1, seg.y1,
         seg.x2 - seg.x1 AS dx, seg.y2 - seg.y1 AS dy
  FROM g CROSS JOIN seg
), sc2 AS (
  SELECT url, name, lon, lat, x1, y1, dx, dy,
         dx * dx + dy * dy AS den,
         (lon - x1) * dx + (lat - y1) * dy AS num
  FROM sc
), sc3 AS (
  SELECT url, name, lon, lat, x1, y1, dx, dy,
         CASE WHEN den = 0 THEN 0.0
              ELSE least(greatest(num / den, 0.0), 1.0) END AS t
  FROM sc2
), sc4 AS (
  SELECT url, name,
         lon - (x1 + t * dx) AS ex, lat - (y1 + t * dy) AS ey
  FROM sc3
), near AS (
  SELECT DISTINCT url, name FROM sc4 WHERE ex * ex + ey * ey <= {d2_max}
)
SELECT url, count(*)::BIGINT AS n_near,
       array_to_string(list_sort(list(name)), '/') AS cities
FROM near GROUP BY url
"""
