"""Spatial cell schemes.

Two schemes live here:

1. **Reference grid cells** (0.01 degree, ``FRACTION_DIGITS=2``) — the exact
   bbox-cover semantics of the reference's ``classGpsbins``
   (js/gpsBins.js:53-74,94-116).  In the reference this is an in-process
   spatial index; in the Ray engine the cell id becomes the *shuffle key* of
   the geometric segment-crossing join (the join IS the shuffle, no shared
   index).  The reference's per-cell emission multiplicity is part of its
   observable output (one geometric intersection row per shared cover cell),
   so the cover computation must be bit-compatible.

2. **Quadkey tiles** — an H3-substitute hierarchical cell scheme (the
   environment has no h3/s2 libraries) used for the grafted pages<->road-tile
   spatial join.  A cell id packs (resolution, ix, iy) into an int64; children
   nest exactly inside parents, and covers can be compacted to mixed
   resolutions (res 8-11 by default) like H3 ``compact``.  The arithmetic is
   plain floor math so DuckDB oracles can reproduce it.
"""

from __future__ import annotations

import math

# --- reference 0.01-degree grid -------------------------------------------------

DELTA = 0.01  # 1 / 10**FRACTION_DIGITS, js/gpsBins.js:53-54
_LNG_OFF = 18001  # make packed indices positive
_LAT_OFF = 9001


def _k(v: float) -> int:
    """Cell index of an accumulated loop value: the reference maps the loop
    variable back to a key with ``toFixed(2)`` (js/gpsBins.js:60-63), which
    snaps float drift to the intended 2-decimal cell; floor(v*100+0.5)
    reproduces that for values within ~1e-9 of a cell boundary multiple."""
    return math.floor(v * 100.0 + 0.5)


def pack_cell(k_lng: int, k_lat: int) -> int:
    return (k_lng + _LNG_OFF) * 100000 + (k_lat + _LAT_OFF)


def unpack_cell(cell: int) -> tuple[int, int]:
    return cell // 100000 - _LNG_OFF, cell % 100000 - _LAT_OFF


def cover_cells(minlat: float, minlon: float, maxlat: float, maxlon: float) -> list[int]:
    """Packed cell ids covering a way bbox, replicating the reference loop
    (js/gpsBins.js:94-116): floor/ceil the bounds to 0.01, then iterate by
    float accumulation ``v += 0.01`` while ``v <= max`` — longitude outer,
    latitude inner.  Python floats are the same IEEE doubles as JS numbers, so
    the accumulation (and any boundary-drop it causes) is reproduced exactly.
    """
    min_lat = math.floor(minlat * 100.0) / 100.0
    max_lat = math.ceil(maxlat * 100.0) / 100.0
    min_lng = math.floor(minlon * 100.0) / 100.0
    max_lng = math.ceil(maxlon * 100.0) / 100.0
    out: list[int] = []
    lng = min_lng
    while lng <= max_lng:
        lat = min_lat
        k_lng = _k(lng)
        while lat <= max_lat:
            out.append(pack_cell(k_lng, _k(lat)))
            lat += DELTA
        lng += DELTA
    return out


def cover_cells_int(minlat: float, minlon: float, maxlat: float, maxlon: float) -> list[int]:
    """Integer-stepped equivalent of :func:`cover_cells` (floor(min*100) ..
    ceil(max*100) inclusive).  Used by the DuckDB oracles (generate_series);
    a unit test asserts it agrees with the float-loop version on fixture data
    (they can only diverge when a bound sits within float drift of a cell
    edge)."""
    la0 = math.floor(minlat * 100.0)
    la1 = math.ceil(maxlat * 100.0)
    lo0 = math.floor(minlon * 100.0)
    lo1 = math.ceil(maxlon * 100.0)
    return [
        pack_cell(klng, klat)
        for klng in range(lo0, lo1 + 1)
        for klat in range(la0, la1 + 1)
    ]


# --- quadkey tiles (H3-substitute) ---------------------------------------------

MAX_RES = 20


def tile_id(res: int, ix: int, iy: int) -> int:
    """Pack (res, ix, iy) into an int64: res<<58 | ix<<29 | iy.

    DuckDB equivalent: ``res * 2**58 + ix * 2**29 + iy``.
    """
    return (res << 58) | (ix << 29) | iy


def tile_of(lat: float, lon: float, res: int) -> int:
    n = 1 << res
    ix = min(n - 1, max(0, int(math.floor((lon + 180.0) / 360.0 * n))))
    iy = min(n - 1, max(0, int(math.floor((lat + 90.0) / 180.0 * n))))
    return tile_id(res, ix, iy)


def tile_res(cell: int) -> int:
    return cell >> 58


def tile_xy(cell: int) -> tuple[int, int]:
    return (cell >> 29) & ((1 << 29) - 1), cell & ((1 << 29) - 1)


def tile_parent(cell: int, res: int) -> int:
    r = tile_res(cell)
    if res > r:
        raise ValueError("parent res must be <= cell res")
    ix, iy = tile_xy(cell)
    s = r - res
    return tile_id(res, ix >> s, iy >> s)


def tile_children(cell: int) -> list[int]:
    r = tile_res(cell)
    ix, iy = tile_xy(cell)
    return [
        tile_id(r + 1, (ix << 1) + dx, (iy << 1) + dy)
        for dx in (0, 1)
        for dy in (0, 1)
    ]


def tile_bounds(cell: int) -> tuple[float, float, float, float]:
    """(minlat, minlon, maxlat, maxlon) of a tile."""
    r = tile_res(cell)
    n = 1 << r
    ix, iy = tile_xy(cell)
    minlon = ix / n * 360.0 - 180.0
    minlat = iy / n * 180.0 - 90.0
    return minlat, minlon, minlat + 180.0 / n, minlon + 360.0 / n


def cover_bbox_tiles(
    minlat: float, minlon: float, maxlat: float, maxlon: float, res: int
) -> list[int]:
    """All res-``res`` tiles intersecting a bbox (closed lower, open upper —
    a point on the max edge falls in the next tile, matching floor math)."""
    n = 1 << res
    x0 = max(0, int(math.floor((minlon + 180.0) / 360.0 * n)))
    x1 = min(n - 1, int(math.floor((maxlon + 180.0) / 360.0 * n)))
    y0 = max(0, int(math.floor((minlat + 90.0) / 180.0 * n)))
    y1 = min(n - 1, int(math.floor((maxlat + 90.0) / 180.0 * n)))
    return [tile_id(res, ix, iy) for ix in range(x0, x1 + 1) for iy in range(y0, y1 + 1)]


def compact_tiles(cells: list[int]) -> list[int]:
    """H3-style ``compact``: repeatedly replace any complete quartet of
    siblings by their parent.  Input cells must share one resolution; output
    is mixed-resolution, sorted."""
    cur = set(cells)
    res = {tile_res(c) for c in cur}
    if len(res) > 1:
        raise ValueError("compact expects uniform input resolution")
    r = res.pop() if res else 0
    while r > 0:
        by_parent: dict[int, list[int]] = {}
        for c in cur:
            if tile_res(c) == r:
                by_parent.setdefault(tile_parent(c, r - 1), []).append(c)
        changed = False
        for p, kids in by_parent.items():
            if len(kids) == 4:
                cur.difference_update(kids)
                cur.add(p)
                changed = True
        if not changed:
            break
        r -= 1
    return sorted(cur)


def compacted_cover(
    minlat: float, minlon: float, maxlat: float, maxlon: float, res: int
) -> list[int]:
    """Compacted mixed-resolution cover of a bbox at finest resolution ``res``
    (the engine's analogue of H3 compacted covers at res 8-11)."""
    return compact_tiles(cover_bbox_tiles(minlat, minlon, maxlat, maxlon, res))
