"""City tagging: point-in-polygon against city boundaries, first match in
boundary-file order, else 'Unincorporated' (js/geo.js:60-70,1246-1266 — J4/T3).

A stateless task stage over broadcast polygons: they are parsed once on the
driver and ``ray.put``; each worker fetches them once with ``cached_get``,
and each batch is tagged with a vectorized ray-cast per polygon (cheap:
cities per county are few).  At cluster scale the boundary set for a whole
planet is still small (dimension data), so broadcast beats any shuffle join.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.geometry import first_match_city_np, parse_geom_json


def load_city_polys(boundaries_tbl: pa.Table, county_cities_tbl: pa.Table) -> dict:
    """county -> [(city_name, polygons)] in boundary-file order (loadBorders,
    js/geo.js:72-123: only the county's expected cities are searched)."""
    cc = county_cities_tbl.to_pydict()
    expected = {cc["county"][i]: set(cc["cities"][i]) for i in range(len(cc["county"]))}
    bd = boundaries_tbl.to_pydict()
    order = sorted(range(len(bd["name"])), key=lambda i: bd["file_order"][i])
    out: dict = {county: [] for county in expected}
    for i in order:
        if bd["kind"][i] != "city":
            continue
        for county, cities in expected.items():
            if bd["name"][i] in cities:
                out[county].append((bd["name"][i], parse_geom_json(bd["geom_json"][i])))
    return out


class CityTagger:
    def __init__(self, polys_ref):
        from .common import cached_get

        self.polys = cached_get(polys_ref)

    def __call__(self, b: pa.Table) -> pa.Table:
        lats = b["lat"].to_numpy(zero_copy_only=False)
        lons = b["lon"].to_numpy(zero_copy_only=False)
        counties = b["county"].to_numpy(zero_copy_only=False)
        city = np.full(b.num_rows, "Unincorporated", dtype=object)
        for county in np.unique(counties):
            m = counties == county
            polys = self.polys.get(county, [])
            city[m] = first_match_city_np(lons[m], lats[m], polys)
        return b.append_column("city", pa.array(city.tolist(), pa.string()))
