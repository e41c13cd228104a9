"""Scalar kernels mirroring the reference's string/number semantics.

Every function documents the reference location (file:line in
jw997/osm-intersections) whose observable behavior it reproduces.  These are
deliberately *exact* re-expressions — including quirks like first-match-only
``_[0-9]`` stripping — because the correctness gate is row-level equality.

JS numeric notes (js = Node.js V8 doubles = IEEE-754 float64 = numpy float64):

* ``Math.round(x)``  = floor(x + 0.5)   (half toward +inf, NOT banker's)
* ``Array.sort()``   = UTF-16 code-unit order; identical to Python's
  code-point sort for BMP-only strings (street names here are ASCII).
"""

from __future__ import annotations

import numpy as np

SLASH = "/"
SEMICOLON = ";"
UNDERSCORE = "_"
JUNCTION = "JUNCTION"
MOTORWAY = "motorway"
MOTORWAY_LINK = "motorway_link"
GEOM_SENTINEL = "Geom"  # ALGGEOM, js/geo.js:11

METERS_PER_DEGREE = 100000.0  # js/geo.js:23

_DIGITS = set("0123456789")


def get_way_name(name: str | None, ref: str | None) -> str:
    """Canonical way name (js/geo.js:171-186).

    tokens = [name if truthy] + ref.split(';') if ref truthy; joined with ';'.
    Empty string counts as missing (JS truthiness).
    """
    parts: list[str] = []
    if name:
        parts.append(name)
    if ref:
        parts.extend(ref.split(SEMICOLON))
    return SEMICOLON.join(parts)


def strip_first_suffix(raw: str) -> str:
    """Remove the FIRST occurrence of underscore+digit (js/geo.js:683-684).

    The reference regex ``/_[0-9]/`` has no global flag, so only the first
    match anywhere in the string is removed.
    """
    for i in range(len(raw) - 1):
        if raw[i] == UNDERSCORE and raw[i + 1] in _DIGITS:
            return raw[:i] + raw[i + 2 :]
    return raw


def clean_streets(raw: str) -> str:
    """``clean`` (js/geo.js:674-691): strip first ``_<digit>``, split on '/',
    dedup via set, sort, re-join with '/'.

    JS ``new Set(arr)`` preserves first-occurrence order but the subsequent
    sort makes order canonical; JS default sort == Python sort for ASCII.
    """
    trimmed = strip_first_suffix(raw)
    return SLASH.join(sorted(set(trimmed.split(SLASH))))


def make_intersection_string(names) -> str:
    """Sorted '/'-join of a name collection (js/geo.js:668-672)."""
    return SLASH.join(sorted(names))


def fix6(x: float) -> float:
    """JS ``Math.round(x*1e6)/1e6`` (js/geo.js:1240-1244).

    JS Math.round is floor(x+0.5) — half toward +infinity — which differs from
    Python round() (banker's) for exact .5 products.
    """
    import math

    return math.floor(x * 1000000.0 + 0.5) / 1000000.0


def fix6_np(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`fix6` for float64 arrays."""
    return np.floor(np.asarray(x, dtype=np.float64) * 1e6 + 0.5) / 1e6


def round_half_away_np(x: np.ndarray) -> np.ndarray:
    """Round-half-away-from-zero, matching DuckDB/SQL ``round()`` (numpy's
    rint is banker's and would diverge on exact .5 products).  Used for all
    integer-cents aggregates so engine and oracle hash identically."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, np.floor(x + 0.5), np.ceil(x - 0.5)).astype(np.int64)


def dist_l1_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Reference distance metric: L1 degrees * 100000 m/deg (js/geo.js:661-666).

    Deliberately NOT haversine — the 50 m coalescing threshold
    (js/geo.js:943) is calibrated against this metric.
    """
    return METERS_PER_DEGREE * (abs(lat1 - lat2) + abs(lon1 - lon2))


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters (turf.distance semantics,
    js/offset.js:107-117 uses it for the linear-referencing tool only).
    turf uses earth radius 6371008.8 m."""
    import math

    r = 6371008.8
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dphi = p2 - p1
    dlmb = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dlmb / 2) ** 2
    return 2 * r * math.asin(math.sqrt(a))


def interpolate(lat1, lon1, lat2, lon2, w2: float) -> tuple[float, float]:
    """Linear interpolation with weight w2 toward point 2, fix6-rounded.
    Exactly ``w1*c1 + w2*c2`` (js/offset.js:119-131) — NOT c1 + w*(c2-c1),
    which differs in float."""
    if w2 < 0 or w2 > 1:
        raise ValueError(f"unexpected weight {w2}")
    w1 = 1.0 - w2
    return (fix6(w1 * lat1 + w2 * lat2), fix6(w1 * lon1 + w2 * lon2))


def file_name_ize(name: str) -> str:
    """Partition-name sanitizer: spaces and '/' -> '_' (js/util.js:26-28)."""
    return name.replace(" ", "_").replace("/", "_")


def check_highway_types(h1: str | None, h2: str | None, has_common_node: bool) -> bool:
    """Type-compatibility of a candidate geometric crossing (js/geo.js:217-235).

    * motorway x motorway: only allowed WITHOUT a common node (flyover);
    * motorway x motorway_link (either order): never;
    * everything else: allowed.
    """
    n_link = (h1 == MOTORWAY_LINK) + (h2 == MOTORWAY_LINK)
    n_mot = (h1 == MOTORWAY) + (h2 == MOTORWAY)
    if n_mot == 2:
        return not has_common_node
    if n_link > 0 and n_mot > 0:
        return False
    return True


def js_num_str(v: float) -> str:
    """JS Number-to-string (ECMA-262 Number::toString, base 10): shortest
    round-trip digits (Python repr supplies those), re-notated per the JS
    rules — integer-valued doubles < 1e21 print without '.0'; fixed notation
    for 1e-6 <= |v| < 1e21; exponential outside with unpadded exponent and
    explicit '+' ('1.5e-7', '1.2e+21' — where Python repr says '1.5e-07')."""
    if v != v:
        return "NaN"
    if v == float("inf"):
        return "Infinity"
    if v == float("-inf"):
        return "-Infinity"
    if v == 0:
        return "0"  # also maps -0.0 -> '0', as JS does
    neg = v < 0
    # shortest round-trip digits d1..dk (dk != 0) and scale n such that
    # value = 0.d1..dk * 10^n — ECMA-262's (k, n) decomposition
    s = repr(abs(v))
    mant, _, exp = s.partition("e")
    ip, _, fp = mant.partition(".")
    alldig = ip + fp
    stripped = alldig.lstrip("0")
    n = len(ip) - (len(alldig) - len(stripped)) + (int(exp) if exp else 0)
    digits = stripped.rstrip("0")
    k = len(digits)
    if k <= n <= 21:
        out = digits + "0" * (n - k)
    elif 0 < n <= 21:
        out = digits[:n] + "." + digits[n:]
    elif -6 < n <= 0:
        out = "0." + "0" * (-n) + digits
    else:
        m = digits[0] + ("." + digits[1:] if k > 1 else "")
        out = f"{m}e{'+' if n - 1 >= 0 else '-'}{abs(n - 1)}"
    return ("-" if neg else "") + out


def gmap_url(lat: float, lon: float) -> str:
    """The offset tool's output formatter (js/offset.js:133-137):
    three leading spaces, '<lat>,<lon>', two trailing spaces."""
    return f"   {js_num_str(lat)},{js_num_str(lon)}  "
