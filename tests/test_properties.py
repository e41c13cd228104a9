"""Property tests (hypothesis) for the exactness-critical kernels."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from osm_intersections_ray.functions import cells, scalar

coord = st.floats(min_value=-179.99, max_value=179.99,
                  allow_nan=False, allow_infinity=False)
lat = st.floats(min_value=-89.99, max_value=89.99,
                allow_nan=False, allow_infinity=False)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_fix6_is_floor_half(x):
    assert scalar.fix6(x) == math.floor(x * 1e6 + 0.5) / 1e6


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
               max_size=40))
def test_clean_idempotent_after_first_pass(raw):
    """clean() applied to an already-clean string without underscore+digit
    is idempotent (sort+dedup stability)."""
    once = scalar.clean_streets(raw)
    if "_" not in once:
        assert scalar.clean_streets(once) == once


@given(st.lists(st.text(alphabet="abcXYZ 123", min_size=1, max_size=8),
                min_size=1, max_size=6))
def test_intersection_string_order_invariant(names):
    import random

    s1 = scalar.make_intersection_string(list(names))
    shuffled = list(names)
    random.Random(0).shuffle(shuffled)
    assert scalar.make_intersection_string(shuffled) == s1


@settings(max_examples=200)
@given(lat, coord,
       st.floats(min_value=0, max_value=0.2, allow_nan=False),
       st.floats(min_value=0, max_value=0.2, allow_nan=False))
def test_cover_cells_contains_bbox_corners(la0, lo0, dla, dlo):
    """Every bbox corner's truncated cell is in the float-loop cover unless
    the accumulation drop hit that max edge (then the int cover has it)."""
    la1, lo1 = la0 + dla, lo0 + dlo
    f = set(cells.cover_cells(la0, lo0, la1, lo1))
    i = set(cells.cover_cells_int(la0, lo0, la1, lo1))
    assert f <= i
    corner = cells.pack_cell(math.floor(lo0 * 100), math.floor(la0 * 100))
    assert corner in i


@settings(max_examples=100)
@given(lat, coord, st.integers(min_value=10, max_value=17))
def test_tile_parent_contains_point(la, lo, res):
    """Parent tiles contain the point up to 1 ulp of the division at tile
    edges: floor((x+off)/span*n) can land a point one cell right of its
    mathematical cell when (x+off)/span rounds up — the engine and its SQL
    oracle share the identical formula, so the behavior is consistent."""
    t = cells.tile_of(la, lo, res)
    p = cells.tile_parent(t, res - 2)
    minlat, minlon, maxlat, maxlon = cells.tile_bounds(p)
    n = 1 << (res - 2)
    eps_lat = 180.0 / n * 1e-9
    eps_lon = 360.0 / n * 1e-9
    assert minlat - eps_lat <= la <= maxlat + eps_lat
    assert minlon - eps_lon <= lo <= maxlon + eps_lon


@settings(max_examples=50, deadline=None)
@given(lat, coord,
       st.floats(min_value=0, max_value=2.0, allow_nan=False),
       st.floats(min_value=0, max_value=2.0, allow_nan=False))
def test_compact_roundtrip(la0, lo0, dla, dlo):
    la1 = min(89.99, la0 + dla)
    lo1 = min(179.99, lo0 + dlo)
    cover = cells.cover_bbox_tiles(la0, lo0, la1, lo1, 10)
    compacted = cells.compact_tiles(cover)
    expanded = set()

    def expand(c):
        if cells.tile_res(c) == 10:
            expanded.add(c)
        else:
            for ch in cells.tile_children(c):
                expand(ch)

    for c in compacted:
        expand(c)
    assert expanded == set(cover)


@given(st.floats(-1e4, 1e4, allow_nan=False), st.floats(-1e4, 1e4, allow_nan=False))
def test_round_half_away_matches_sql(a, b):
    import numpy as np

    from osm_intersections_ray.functions.scalar import round_half_away_np

    x = np.array([a, b])
    got = round_half_away_np(x)
    for v, g in zip(x, got):
        expect = math.floor(v + 0.5) if v >= 0 else math.ceil(v - 0.5)
        assert g == expect


_UNI_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),  # any non-surrogate
    max_size=60)


@settings(max_examples=150, deadline=None)
@given(_UNI_TEXT)
def test_duck_lower_matches_duckdb(s):
    """duck_lower == DuckDB lower() on arbitrary unicode (incl. U+0130 and
    Σ/ς contexts — the two Python full-case divergences it pre-translates)."""
    import duckdb

    from osm_intersections_ray.functions.hashing import duck_lower

    got = duckdb.execute("SELECT lower(?)", [s]).fetchone()[0]
    assert duck_lower(s) == got, (s, duck_lower(s), got)


@settings(max_examples=150, deadline=None)
@given(_UNI_TEXT)
def test_tokens_match_toks_sql(s):
    """The engine tokenizer == the shared TOKS_SQL expression on arbitrary
    unicode text (whitespace classes, empty-token dropping, case mapping)."""
    import duckdb

    from osm_intersections_ray.stages.text import TOKS_SQL, _tokens

    if "\x00" in s:  # DuckDB VARCHAR cannot carry NUL
        s = s.replace("\x00", "")
    got = duckdb.execute(f"SELECT {TOKS_SQL} FROM (SELECT ? AS text)",
                         [s]).fetchone()[0]
    assert _tokens(s) == list(got), (s, _tokens(s), got)


@given(st.integers(0, 65535), st.integers(0, 65535))
def test_morton_interleave_roundtrip(ix, iy):
    """Bit-spread interleave is invertible and order-embeds each axis."""
    import numpy as np

    from osm_intersections_ray.stages.pages import _part1by1

    m = int((_part1by1(np.array([ix], np.int64))
             | (_part1by1(np.array([iy], np.int64)) << 1))[0])
    rx = ry = 0
    for k in range(16):
        rx |= ((m >> (2 * k)) & 1) << k
        ry |= ((m >> (2 * k + 1)) & 1) << k
    assert (rx, ry) == (ix, iy)
    assert 0 <= m < 2**32


@settings(max_examples=60, deadline=None)
@given(lat, coord, lat, coord)
def test_supercover_subset_of_bbox_cover_and_hits_endpoints(y0, x0, y1, x1):
    """The exact segment supercover is a SUBSET of the bbox cell cover and
    always contains both endpoint cells (closed-square semantics)."""
    import numpy as np

    from osm_intersections_ray.stages.queries_spatial import (
        RASTER_CELL_UDEG as S)

    X = np.floor(np.array([x0, x1]) * 1e6 + 0.5).astype(np.int64)
    Y = np.floor(np.array([y0, y1]) * 1e6 + 0.5).astype(np.int64)
    mnx, mxx = X.min(), X.max()
    mny, mxy = Y.min(), Y.max()
    xs = range(int(-((-mnx) // S) - 1), int(mxx // S) + 1)
    ys = range(int(-((-mny) // S) - 1), int(mxy // S) + 1)
    if len(xs) * len(ys) > 400:  # keep the property cheap (count before building)
        return
    cands = [(cx, cy) for cx in xs for cy in ys]
    dx, dy = int(X[1] - X[0]), int(Y[1] - Y[0])
    hits = set()
    for cx, cy in cands:
        ss = [dx * (cy * S + oy - int(Y[0])) - dy * (cx * S + ox - int(X[0]))
              for ox in (0, S) for oy in (0, S)]
        if min(ss) <= 0 <= max(ss):
            hits.add((cx, cy))
    assert hits <= set(cands)
    for px, py in zip(X, Y):
        assert any(cx * S <= px <= (cx + 1) * S
                   and cy * S <= py <= (cy + 1) * S
                   for cx, cy in hits)


@given(st.lists(st.tuples(st.integers(-10**8, 10**8),
                          st.integers(-10**8, 10**8)),
                min_size=1, max_size=12))
def test_simplify_endpoints_always_survive(pts):
    """The area stencil never drops endpoints: n_kept >= 2 on any way with
    >= 2 vertices, == 1 on a single vertex, and never exceeds n_points."""
    import pyarrow as pa

    from osm_intersections_ray.stages.queries_spatial import simplify_batch

    lats = [p[1] / 1e6 for p in pts]
    lons = [p[0] / 1e6 for p in pts]
    tbl = pa.table({"way_id": pa.array([1], pa.int64()),
                    "lats": pa.array([lats], pa.list_(pa.float64())),
                    "lons": pa.array([lons], pa.list_(pa.float64()))})
    out = simplify_batch(tbl).to_pandas()
    n_kept = int(out.loc[0, "n_kept"])
    assert int(out.loc[0, "n_points"]) == len(pts)
    assert (n_kept == 1) if len(pts) == 1 else (2 <= n_kept <= len(pts))
