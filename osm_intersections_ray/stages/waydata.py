"""wayData construction: naming, motorway_link propagation, fake naming,
dead-end parity — the distributed re-expression of ``initWayData`` +
``findDeadEnds`` (js/geo.js:392-651, SURVEY.md T2/T4/J7/J8).

Scale design
------------
* The **bulk** path (named ways -> wayData rows) is a stateless vectorized
  ``map_batches`` projection — streams at any scale.
* **Link name propagation (J7)** is an iterative fixpoint over unnamed
  motorway_links and the ways touching their endpoints.  Links are a tiny
  fraction of ways (<1% on OSM extracts), so the engine filters that closure
  down distributedly and runs the exact order-sensitive fixpoint on the
  driver, then broadcasts the rename table (``ray.put`` once) into the bulk
  projection.  This is the canonical small-side/broadcast pattern; the filter
  itself is a full scan, not a collect of the input.
* **Fake naming (J8)** needs node->names lookups only at nodes of unnamed
  tagged ways — the same filtered closure provides them.
* **Dead ends (T4)** are an odd-parity count per (county, node, name) over
  way endpoints — a distributed ``groupby().count()`` whose result (a few
  rows per street) is collected and broadcast for the coalescing stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.scalar import MOTORWAY, MOTORWAY_LINK, JUNCTION, get_way_name
from .common import RANK_FAKE, RANK_PROPAGATED

WAYS_COLUMNS = [
    "county", "way_id", "way_rank", "minlat", "minlon", "maxlat", "maxlon",
    "nodes", "lats", "lons", "tagged", "name", "ref", "highway", "bridge",
]

WAYDATA_SCHEMA = pa.schema(
    [
        ("county", pa.string()),
        ("data_rank", pa.int64()),
        ("way_id", pa.int64()),
        ("way_rank", pa.int32()),
        ("name", pa.string()),
        ("highway", pa.string()),
        ("minlat", pa.float64()),
        ("minlon", pa.float64()),
        ("maxlat", pa.float64()),
        ("maxlon", pa.float64()),
        ("nodes", pa.list_(pa.int64())),
        ("lats", pa.list_(pa.float64())),
        ("lons", pa.list_(pa.float64())),
    ]
)


@dataclass
class SmallState:
    """Driver-computed small-side state, broadcast into the bulk stages."""

    # (county, way_rank) -> (adopted_name, adoption_seq)  [J7 result]
    # The reference MUTATES way.tags.name (js/geo.js:518) and pushes an
    # ADDITIONAL wayData row with the adopted name ALONE (js/geo.js:533) —
    # a ref-only link keeps its pass-1 row named getWayName(name, ref) AND
    # gains the adopted row; downstream consumers of the mutated tags
    # (findDeadEnds, J5/J6) see getWayName(adopted, ref).
    renames: dict
    # (county, way_rank) -> fake_name                      [J8 result]
    fake_names: dict
    # county -> {node_id -> set(names)}                    [T4 result]
    dead_ends: dict
    # county -> {dead_node -> list[frozenset(nodes)]} wayData ROWS containing
    # the dead node whose row-name is in the node's dead-end set — the
    # existence index behind onSameWay/findNeighbor (js/geo.js:359-387)
    neighbor_index: dict


def emitted_names(name, ref, highway, rename, fake) -> list[str]:
    """The wayData row names a way contributes (js/geo.js:413-593): its
    pass-1 getWayName row if nonempty, plus the adopted-name row if J7
    renamed it, else its fake-name row."""
    out = []
    nm1 = get_way_name(name, ref)
    if nm1:
        out.append(nm1)
    if rename is not None:
        out.append(rename[0])
    elif not nm1 and fake is not None:
        out.append(fake)
    return out


def compute_small_state(ways_ds) -> SmallState:
    """Distributed filter -> driver fixpoint, in THREE passes over the
    (materialized, small-side) ways table instead of five:

    A. seed-node collect;
    B. one fused scan emitting closure rows (role=0) AND dead-end endpoint
       rows (role=1, or role=2 for raw-name-less links whose mutated name
       is only known post-fixpoint).  The driver collects ONLY roles 0/2
       (both O(links)); role-1 parity (O(ways) rows) folds distributedly
       via the shard-fold exchange and only the ODD rows — actual dead
       ends — reach the driver, where they XOR-merge with the post-fixpoint
       link parity;
    C. the neighbor-index collect (needs dead_ends).
    """
    import pandas as pd

    # A. closure seed nodes: (a) ALL nodes of getWayName-unnamed tagged ways
    #    (fake-naming donors/consumers), and (b) endpoint nodes of
    #    raw-name-less motorway_links (adoption sites — the reference keys
    #    adoption on tags.name alone, js/geo.js:447, so a ref-only link IS
    #    an adoption candidate).
    def seed_nodes(b: pa.Table) -> pa.Table:
        name = b["name"].to_pylist()
        ref = b["ref"].to_pylist()
        hwy = b["highway"].to_pylist()
        tagged = np.asarray(b["tagged"])
        out = []
        for i, lst in enumerate(b["nodes"].to_pylist()):
            if not tagged[i]:
                continue
            if not get_way_name(name[i], ref[i]):
                out.extend(int(n) for n in lst)
            elif hwy[i] == MOTORWAY_LINK and not name[i]:
                out.append(int(lst[0]))
                out.append(int(lst[-1]))
        return pa.table({"node": pa.array(sorted(set(out)), pa.int64())})

    seeds = ways_ds.map_batches(seed_nodes, batch_format="pyarrow").to_pandas()
    nodeset = set(int(n) for n in seeds["node"])

    # B. fused scan: closure rows + endpoint-parity rows
    def fused(b: pa.Table) -> pa.Table:
        tagged = np.asarray(b["tagged"])
        name = b["name"].to_pylist()
        ref = b["ref"].to_pylist()
        hwy = b["highway"].to_pylist()
        ranks = b["way_rank"].to_pylist()
        counties = b["county"].to_pylist()
        nodes = b["nodes"].to_pylist()
        rows = {"role": [], "county": [], "way_rank": [], "name": [],
                "ref": [], "highway": [], "nodes": [], "node": []}

        def add(role, i, nm=None, node=-1, with_nodes=False):
            rows["role"].append(role)
            rows["county"].append(counties[i])
            rows["way_rank"].append(ranks[i])
            rows["name"].append(name[i] if role == 0 else nm)
            rows["ref"].append(ref[i])
            rows["highway"].append(hwy[i])
            rows["nodes"].append(nodes[i] if with_nodes else [])
            rows["node"].append(node)

        for i in range(b.num_rows):
            if not tagged[i]:
                continue
            lst = nodes[i]
            if any(n in nodeset for n in lst):
                add(0, i, with_nodes=True)  # closure row
            is_unnamed_link = hwy[i] == MOTORWAY_LINK and not name[i]
            if len(lst) < 2:
                continue
            if is_unnamed_link:
                for n in (lst[0], lst[-1]):  # name resolved post-fixpoint
                    add(2, i, node=int(n))
            else:
                nm = get_way_name(name[i], ref[i])
                if nm:
                    for n in (lst[0], lst[-1]):
                        add(1, i, nm=nm, node=int(n))
        return pa.table({
            "role": pa.array(rows["role"], pa.int8()),
            "county": pa.array(rows["county"], pa.string()),
            "way_rank": pa.array(rows["way_rank"], pa.int32()),
            "name": pa.array(rows["name"], pa.string()),
            "ref": pa.array(rows["ref"], pa.string()),
            "highway": pa.array(rows["highway"], pa.string()),
            "nodes": pa.array(rows["nodes"], pa.list_(pa.int64())),
            "node": pa.array(rows["node"], pa.int64()),
        })

    import pyarrow.compute as pc

    from .common import n_shards

    # One scan, two consumers: the driver collect keeps ONLY roles 0/2
    # (closure rows + raw-name-less links — both O(links), genuinely tiny),
    # while the role-1 endpoint rows (2 per NAMED way — O(ways), a multi-GB
    # driver table at planet scale) fold their dead-end parity
    # DISTRIBUTEDLY; only the odd rows (actual dead ends, orders of
    # magnitude fewer) ever reach the driver (VERDICT r3 finding #1).
    fused_ds = ways_ds.map_batches(fused, batch_format="pyarrow").materialize()

    small_df = fused_ds.map_batches(
        lambda b: b.filter(pc.not_equal(b["role"], 1)),
        batch_format="pyarrow").to_pandas()
    touching = small_df[small_df["role"] == 0]
    el_rows = small_df[small_df["role"] == 2]

    ns = n_shards()
    _PAR_SCHEMA = pa.schema([("shard", pa.int64()), ("county", pa.string()),
                             ("node", pa.int64()), ("name", pa.string()),
                             ("n", pa.int64())])

    def e_parity_partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["role"], 1))
        if t.num_rows == 0:
            return _PAR_SCHEMA.empty_table()
        df = t.select(["county", "node", "name"]).to_pandas()
        g = (df.groupby(["county", "node", "name"], sort=False)
             .size().reset_index(name="n"))
        g.insert(0, "shard", (g["node"].to_numpy() % ns).astype(np.int64))
        return pa.Table.from_pandas(g, preserve_index=False,
                                    schema=_PAR_SCHEMA)

    def parity_fold(df) -> pa.Table:
        g = (df.groupby(["county", "node", "name"], sort=False)["n"].sum()
             .reset_index())
        odd = g[g["n"] % 2 == 1]
        return pa.table({"county": pa.array(odd["county"].to_numpy(dtype=object),
                                            pa.string()),
                         "node": pa.array(odd["node"].to_numpy(), pa.int64()),
                         "name": pa.array(odd["name"].to_numpy(dtype=object),
                                          pa.string())})

    e_odd = (fused_ds.map_batches(e_parity_partial, batch_format="pyarrow")
             .groupby("shard").map_groups(parity_fold, batch_format="pandas")
             .to_pandas())

    renames: dict = {}
    fake_names: dict = {}
    for county, cdf in touching.groupby("county", sort=False):
        cdf = cdf.sort_values("way_rank")
        # node -> ways (insertion order = way order), restricted closure;
        # complete for adoption lookups: every way touching a link endpoint
        # is in the closure by construction
        node_ways: dict = {}
        recs = cdf.to_dict("records")
        for r in recs:
            for n in r["nodes"]:
                node_ways.setdefault(n, []).append(r)
        # live tags.name (the field the reference mutates), NOT getWayName
        live = {r["way_rank"]: r["name"] for r in recs}

        links = [r for r in recs
                 if r["highway"] == MOTORWAY_LINK and not r["name"]]
        pending = list(links)
        seq = 0
        while pending:
            still = []
            for r in pending:
                # wayNameFirst ?? wayNameLast: the full first-node scan wins
                # over any last-node match (js/geo.js:477-507)
                adopted = None
                for endpoint in (r["nodes"][0], r["nodes"][-1]):
                    for cand in node_ways.get(endpoint, []):
                        if cand["highway"] == MOTORWAY and cand["ref"]:
                            adopted = cand["ref"]
                            break
                        if cand["highway"] == MOTORWAY_LINK and live[cand["way_rank"]]:
                            adopted = live[cand["way_rank"]]
                            break
                    if adopted is not None:
                        break
                if adopted is None:
                    still.append(r)
                else:
                    live[r["way_rank"]] = adopted
                    renames[(county, int(r["way_rank"]))] = (adopted, seq)
                    seq += 1
            if len(still) == len(pending):
                break
            pending = still

        # node -> names: pass-1 getWayName of named ways PLUS the adopted
        # name alone at adopted links' nodes (note_nodes runs twice for a
        # ref-only adopted link, js/geo.js:430-437 + :524-531)
        node_names: dict = {}
        for r in recs:
            nm1 = get_way_name(r["name"], r["ref"])
            rn = renames.get((county, int(r["way_rank"])))
            for nm in ([nm1] if nm1 else []) + ([rn[0]] if rn is not None else []):
                for n in r["nodes"]:
                    node_names.setdefault(n, set()).add(nm)
        for r in recs:
            if rename_aware_name(r, renames, county):
                continue
            seed = {MOTORWAY_LINK} if r["highway"] == MOTORWAY_LINK else {JUNCTION}
            for n in r["nodes"]:
                seed |= node_names.get(n, set())
            fake_names[(county, int(r["way_rank"]))] = "/".join(sorted(seed))

    # dead-end parity (toggleValueSet, js/geo.js:599-651).  e-rows (named
    # ways) folded distributedly above; el-rows (raw-name-less links)
    # resolve through the mutated tags, getWayName(adopted, ref), which is
    # only known after the driver fixpoint — their parity folds here
    # (links are tiny).  A key's total toggle count = e + el, so
    # odd(total) = odd_e XOR odd_el: the dead-end set is the symmetric
    # difference of the two odd-key sets.
    e_odd_keys = {(c, int(n), m) for c, n, m in
                  zip(e_odd["county"], e_odd["node"], e_odd["name"])}
    el_odd_keys: set = set()
    if len(el_rows):
        nm = [get_way_name((renames.get((c, int(w))) or (None,))[0], rf)
              for c, w, rf in zip(el_rows["county"], el_rows["way_rank"],
                                  el_rows["ref"])]
        eldf = pd.DataFrame({"county": el_rows["county"].to_numpy(),
                             "node": el_rows["node"].to_numpy(), "name": nm})
        eldf = eldf[eldf["name"].astype(bool)]
        cnt = eldf.groupby(["county", "node", "name"], sort=False).size()
        odd = cnt[cnt % 2 == 1].reset_index()
        el_odd_keys = {(c, int(n), m) for c, n, m in
                       zip(odd["county"], odd["node"], odd["name"])}
    dead_ends: dict = {}
    for county, node, name in sorted(e_odd_keys ^ el_odd_keys):
        dead_ends.setdefault(county, {}).setdefault(int(node), set()).add(name)

    neighbor_index = compute_neighbor_index(ways_ds, renames, fake_names, dead_ends)
    return SmallState(renames, fake_names, dead_ends, neighbor_index)


def rename_aware_name(rec: dict, renames: dict, county: str) -> str:
    """getWayName over the MUTATED tags: name = adopted if renamed else raw."""
    rn = renames.get((county, int(rec["way_rank"])))
    return get_way_name(rn[0] if rn is not None else rec["name"], rec["ref"])


def compute_neighbor_index(ways_ds, renames: dict, fake_names: dict,
                           dead_ends: dict) -> dict:
    """For each dead-end node, the node-sets of wayData ROWS containing it
    whose row-name is one of the names dead-ending there — the only rows
    ``onSameWay`` (js/geo.js:359-372, iterating wayData) can ever return
    true through.  A renamed link contributes BOTH its pass-1 name and its
    adopted-row name.  Small: O(#dead ends)."""

    def collect(b: pa.Table) -> pa.Table:
        c_out, n_out, ns_out = [], [], []
        names = b["name"].to_pylist()
        refs = b["ref"].to_pylist()
        ranks = b["way_rank"].to_pylist()
        counties = b["county"].to_pylist()
        tagged = b["tagged"].to_pylist()
        for i, lst in enumerate(b["nodes"].to_pylist()):
            if not tagged[i]:
                continue
            cd = dead_ends.get(counties[i])
            if not cd:
                continue
            key = (counties[i], ranks[i])
            row_names = emitted_names(names[i], refs[i], None,
                                      renames.get(key), fake_names.get(key))
            if not row_names:
                continue
            for n in lst:
                s = cd.get(n)
                if s and any(nm in s for nm in row_names):
                    c_out.append(counties[i])
                    n_out.append(n)
                    ns_out.append(list(lst))
        return pa.table({"county": c_out,
                         "dead_node": pa.array(n_out, pa.int64()),
                         "way_nodes": pa.array(ns_out, pa.list_(pa.int64()))})

    df = ways_ds.map_batches(collect, batch_format="pyarrow").to_pandas()
    out: dict = {}
    for county, dn, ns in zip(df["county"], df["dead_node"], df["way_nodes"]):
        out.setdefault(county, {}).setdefault(int(dn), []).append(frozenset(int(x) for x in ns))
    return out


class MakeWayData:
    """Projects raw ways to wayData rows with explicit data_rank.  Stateless
    task form: the broadcast SmallState is fetched once per worker process
    via ``cached_get`` (no actor-pool CPU reservation needed for a pure
    lookup table)."""

    def __init__(self, state_ref):
        from .common import cached_get

        st: SmallState = cached_get(state_ref)
        self.renames = st.renames
        self.fake_names = st.fake_names

    def __call__(self, b: pa.Table) -> pa.Table:
        cols = {f.name: [] for f in WAYDATA_SCHEMA}
        names = b["name"].to_pylist()
        refs = b["ref"].to_pylist()
        ranks = b["way_rank"].to_pylist()
        counties = b["county"].to_pylist()
        tagged = b["tagged"].to_pylist()
        hwy = b["highway"].to_pylist()
        way_ids = b["way_id"].to_pylist()
        nodes = b["nodes"].to_pylist()
        lats = b["lats"].to_pylist()
        lons = b["lons"].to_pylist()
        bounds = [b[c].to_pylist() for c in ("minlat", "minlon", "maxlat", "maxlon")]
        def emit(i, name, rank):
            cols["county"].append(counties[i])
            cols["data_rank"].append(rank)
            cols["way_id"].append(way_ids[i])
            cols["way_rank"].append(ranks[i])
            cols["name"].append(name)
            cols["highway"].append(hwy[i])
            cols["minlat"].append(bounds[0][i])
            cols["minlon"].append(bounds[1][i])
            cols["maxlat"].append(bounds[2][i])
            cols["maxlon"].append(bounds[3][i])
            cols["nodes"].append(nodes[i])
            cols["lats"].append(lats[i])
            cols["lons"].append(lons[i])

        for i in range(b.num_rows):
            if not tagged[i]:
                continue
            key = (counties[i], ranks[i])
            rn = self.renames.get(key)
            nm1 = get_way_name(names[i], refs[i])
            # pass-1 row: every way with a nonempty getWayName (js/geo.js:413-441)
            if nm1:
                emit(i, nm1, ranks[i])
            # adopted row: the ADDITIONAL wayData push with the adopted name
            # ALONE (js/geo.js:533) — kept alongside any pass-1 row
            if rn is not None:
                emit(i, rn[0], RANK_PROPAGATED + rn[1])
            elif not nm1:
                fake = self.fake_names.get(key)
                if fake is not None:
                    emit(i, fake, RANK_FAKE + ranks[i])
        return pa.table(cols, schema=WAYDATA_SCHEMA)
