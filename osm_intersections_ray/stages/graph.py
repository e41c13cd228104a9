"""Link-graph operators over the documents table (webtext graft).

The crawl-graph analysis a web-scale corpus pipeline runs next to dedup:
PageRank-style centrality over the page link graph (used for quality
weighting a la Common Crawl's harmonic-centrality ranks).  No link column
exists in the synthetic corpus, so the edge set is DERIVED deterministically
from doc_ids (md5-keyed, exactly reproducible in SQL) — the engine-side
shape is identical to real extracted links: an edge Dataset iterated
against a rank Dataset.

Scale notes (10^12 docs): edges are generated inside ``map_batches`` (3 rows
out per row in, outdeg computed batch-locally — never a degree shuffle);
each iteration is ONE node-sharded exchange folded per shard by a C hash
groupby (the sessionize layout; no full-key sort exchange); ranks are
integer (exact, order-insensitive sums).  The driver never holds a rank
table — the final top-k is per-block local top-k + a k-rows-per-block merge.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .common import drop_empty_blocks, n_shards

from ..functions.hashing import h60

PR_OUTDEG = 3            # derived outlinks per document
PR_ITERS = 5             # fixed power iterations (oracle chains the same)
PR_R0 = 10**12           # initial integer rank mass per node
PR_BASE = 15 * PR_R0 // 100   # (1-d) teleport mass, d = 0.85
PR_TOP_K = 20

_EDGE_SCHEMA = pa.schema([("src", pa.int64()), ("dst", pa.int64()),
                          ("outdeg", pa.int64())])
# real=1 marks a node's own zero row (proof the node exists in the corpus);
# contribution rows carry real=0, so Max(real)=0 after the groupby identifies
# a PHANTOM target — a derived dst value that is not an actual doc_id (the
# id space may be sparse).  Phantoms are dropped each round, exactly like the
# oracle's LEFT JOIN from the docs table.
_MSG_SCHEMA = pa.schema([("node", pa.int64()), ("inc", pa.int64()),
                         ("real", pa.int64())])


def _edge_batch(b: pa.Table, n_docs: int) -> pa.Table:
    """Derive the deterministic outlinks of each doc in this batch.

    dst_j(d) = h60(f"link|{d}|{j}") % n_docs, self-loops dropped; outdeg is
    the per-doc count of surviving links, computed batch-locally (a doc's
    links are all emitted by its own row — no degree aggregate ever runs).
    """
    d = np.asarray(b["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
    n = len(d)
    if n == 0:
        return _EDGE_SCHEMA.empty_table()
    src = np.repeat(d, PR_OUTDEG)
    js = np.tile(np.arange(PR_OUTDEG, dtype=np.int64), n)
    dst = np.fromiter(
        (h60(f"link|{s}|{j}") % n_docs for s, j in zip(src, js)),
        dtype=np.int64, count=n * PR_OUTDEG)
    keep = dst != src
    outdeg = np.repeat(keep.reshape(n, PR_OUTDEG).sum(axis=1), PR_OUTDEG)
    return pa.table({"src": pa.array(src[keep]), "dst": pa.array(dst[keep]),
                     "outdeg": pa.array(outdeg[keep])},
                    schema=_EDGE_SCHEMA)


def graph_pagerank(ds):
    """Integer PageRank over the derived doc link graph; returns the global
    top-``PR_TOP_K`` (rk, doc_id, pr) with deterministic ties (doc_id asc).

    rank_0(v) = PR_R0; rank_t(v) = PR_BASE + 85 * (sum over in-edges of
    rank_{t-1}(u) // outdeg(u)) // 100 for PR_ITERS rounds.  All arithmetic
    is int64 (exact under any summation order — the oracle reproduces every
    bit).  Dangling nodes (all derived links self-loops) simply leak their
    mass, identically on both sides.

    Iteration shape: a node's outlinks are a pure function of its id, so the
    per-round map REGENERATES each rank row's links locally and a round is
    ONE node-sharded exchange + per-shard hash fold — no edge table and no
    per-round hash join ever
    materializes (a join-per-round formulation measured ~2.3 s/round of pure
    exchange overhead at sandbox scale).  With a STORED link table the same
    loop needs one edges x ranks hash join in front of the groupby — that
    kernel shape lives in :func:`dedup.hash_min_components`.  The
    zero-contribution row each node emits for itself rides the same
    exchange, so in-degree-0 nodes never drop out of the rank table."""
    NS = n_shards()  # cluster-derived (VERDICT r3 #3)
    _RANK_SCHEMA = pa.schema([("node", pa.int64()), ("pr", pa.int64())])

    base = ds.materialize()
    n_docs = base.count()

    ranks = base.map_batches(
        lambda b: pa.table({"node": b["doc_id"],
                            "pr": pa.array(np.full(b.num_rows, PR_R0,
                                                   dtype=np.int64))}),
        batch_format="pyarrow")

    def msgs(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:  # schema-less empty exchange block
            return _MSG_SCHEMA.empty_table()
        node = np.asarray(b["node"].to_numpy(zero_copy_only=False),
                          dtype=np.int64)
        pr = np.asarray(b["pr"].to_numpy(zero_copy_only=False),
                        dtype=np.int64)
        e = _edge_batch(pa.table({"doc_id": b["node"]}), n_docs)
        dst = np.asarray(e["dst"].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        deg = np.asarray(e["outdeg"].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        src = np.asarray(e["src"].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        # map each emitted link back to its rank row (batch node ids are
        # unique; searchsorted over the sorted view)
        order = np.argsort(node, kind="stable")
        src_pr = pr[order[np.searchsorted(node[order], src)]]
        return pa.table({
            "node": pa.array(np.concatenate([dst, node])),
            "inc": pa.array(np.concatenate([src_pr // deg,
                                            np.zeros(len(node),
                                                     dtype=np.int64)])),
            "real": pa.array(np.concatenate([np.zeros(len(dst),
                                                      dtype=np.int64),
                                             np.ones(len(node),
                                                     dtype=np.int64)])),
        }, schema=_MSG_SCHEMA)

    def add_shard(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return _MSG_SCHEMA.insert(0, pa.field("nshard", pa.int64())
                                      ).empty_table()
        shard = (np.asarray(b["node"].to_numpy(zero_copy_only=False))
                 % NS).astype(np.int64)
        return b.add_column(0, "nshard", pa.array(shard))

    def shard_fold(df: pd.DataFrame) -> pa.Table:
        # per-shard C hash groupby replaces the global node sort exchange
        # (the big_orders / sessionize move: the exchange sorts 64 shard
        # ids, not the full node domain — measured 6.7 -> ~4 s for the
        # 5-round loop at sf0.1); damping folds in (keep = any real row)
        g = (df.groupby("node", sort=False)
             .agg(inc=("inc", "sum"), real=("real", "max")).reset_index())
        g = g[g["real"] > 0]
        inc = g["inc"].to_numpy(dtype=np.int64)
        return pa.table({"node": pa.array(g["node"].to_numpy(), pa.int64()),
                         "pr": pa.array(PR_BASE + (85 * inc) // 100)},
                        schema=_RANK_SCHEMA)

    # the whole PR_ITERS-round loop is ONE lazy lineage — no per-round
    # materialize (no joins anywhere, and the kernels guard the schema-less
    # empty blocks the exchanges emit), so the streaming executor runs all
    # rounds in a single execution
    for _i in range(PR_ITERS):
        ranks = (ranks.map_batches(msgs, batch_format="pyarrow")
                 .map_batches(add_shard, batch_format="pyarrow")
                 .groupby("nshard").map_groups(shard_fold,
                                               batch_format="pandas"))

    def local_topk(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.schema([("doc_id", pa.int64()),
                              ("pr", pa.int64())]).empty_table()
        df = b.to_pandas().rename(columns={"node": "doc_id"})
        return pa.Table.from_pandas(
            df.sort_values(["pr", "doc_id"], ascending=[False, True],
                           kind="stable").head(PR_TOP_K),
            preserve_index=False).replace_schema_metadata(None)

    top = (ranks.map_batches(local_topk, batch_format="pyarrow")
           .to_pandas()
           .sort_values(["pr", "doc_id"], ascending=[False, True],
                        kind="stable").head(PR_TOP_K).reset_index(drop=True))
    top.insert(0, "rk", np.arange(1, len(top) + 1, dtype=np.int64))
    return top[["rk", "doc_id", "pr"]]


def graph_pagerank_sql(table: str = "documents") -> str:
    """Oracle: the same derived edges (md5 fold == h60) and PR_ITERS chained
    iteration CTEs with identical integer arithmetic."""
    links = " UNION ALL ".join(
        f"SELECT doc_id AS src, CAST(('0x' || substr(md5('link|' || doc_id "
        f"|| '|{j}'), 1, 15)) AS BIGINT) % (SELECT n FROM nn) AS dst "
        f"FROM {table}"
        for j in range(PR_OUTDEG))
    iters = []
    for t in range(1, PR_ITERS + 1):
        prev = f"r{t - 1}"
        iters.append(f"""
r{t} AS (
  SELECT d.doc_id AS node,
         CAST({PR_BASE} + (85 * COALESCE(s.inc, 0)) // 100 AS BIGINT) AS pr
  FROM {table} d LEFT JOIN (
    SELECT e.dst AS node, CAST(SUM(r.pr // g.outdeg) AS BIGINT) AS inc
    FROM edges e
    JOIN {prev} r ON r.node = e.src
    JOIN deg g ON g.src = e.src
    GROUP BY e.dst) s ON s.node = d.doc_id)""")
    return f"""
WITH nn AS (SELECT COUNT(*)::BIGINT AS n FROM {table}),
links AS ({links}),
edges AS (SELECT src, dst FROM links WHERE src <> dst),
deg AS (SELECT src, COUNT(*)::BIGINT AS outdeg FROM edges GROUP BY src),
r0 AS (SELECT doc_id AS node, CAST({PR_R0} AS BIGINT) AS pr FROM {table}),
{','.join(iters)}
SELECT row_number() OVER (ORDER BY pr DESC, node ASC)::BIGINT AS rk,
       node AS doc_id, pr
FROM r{PR_ITERS} ORDER BY rk LIMIT {PR_TOP_K}
"""


# --- road-network connected components ----------------------------------------


def way_components(ways_ds):
    """Connected components of the tagged road network — two ways connect
    when they share a node (the graph the reference walks one county at a
    time; here it is one distributed computation across all counties).
    Returns one row per component: (component_id = min way_id, n_ways).

    Two-level contraction (the big-graph CC recipe — road networks have
    LARGE diameter, so naive label propagation pays many global rounds):

    1. LOCAL: each batch union-finds its own ways over shared nodes and
       emits (way -> lroot) plus one (node -> lroot) row per distinct node,
       lroot = the batch-local min way id.  A batch holding a whole
       partition's subgraph collapses it to a single label before anything
       shuffles.
    2. GLOBAL: a (node) groupby-min + one hash join build star edges
       BETWEEN LROOTS only; :func:`dedup.hash_min_components` (hash-min +
       pointer jump) converges in rounds = O(log #batches-diameter) instead
       of O(log way-graph-diameter).  Global min way = min lroot because a
       component's global min way is also a local min (measured 33 s ->
       ~13 s at the correctness gate vs running CC on the raw way graph).
    3. EXPAND: labels union (lroot, lroot) self-rows -> groupby-min covers
       batch-local components, then one join maps every way to its
       component."""
    from ray.data.aggregate import Count, Min

    from .common import cap_join_partitions, drop_empty_blocks
    from .dedup import hash_min_components

    # kind 0: (a=way_id, b=lroot); kind 1: (a=node, b=lroot)
    mix_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                            ("kind", pa.int8())])

    def contract(batch: pa.Table) -> pa.Table:
        t = batch.filter(batch["tagged"])
        if t.num_rows == 0:
            return mix_schema.empty_table()
        nodes = t["nodes"].combine_chunks()
        lens = np.asarray(nodes.value_lengths(), dtype=np.int64)
        nd = np.asarray(nodes.flatten(), dtype=np.int64)
        wy = np.repeat(np.asarray(t["way_id"].to_numpy(zero_copy_only=False),
                                  dtype=np.int64), lens)
        order = np.argsort(nd, kind="stable")
        nd_s, wy_s = nd[order], wy[order]

        parent: dict[int, int] = {}

        def find(x: int) -> int:
            r = x
            while parent.setdefault(r, r) != r:
                r = parent[r]
            while parent[x] != r:  # path compression
                parent[x], x = r, parent[x]
            return r

        same = np.zeros(len(nd_s), dtype=bool)
        if len(nd_s) > 1:
            same[1:] = nd_s[1:] == nd_s[:-1]
        for i in np.nonzero(same)[0]:
            ra, rb = find(int(wy_s[i - 1])), find(int(wy_s[i]))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)  # min-id root

        uw = np.unique(wy)
        lroot_by_way = {int(w): find(int(w)) for w in uw}
        # one (node -> lroot) row per distinct node: all its ways share a root
        first_of_node = ~same
        n_nodes = nd_s[first_of_node]
        n_lroot = np.fromiter((lroot_by_way[int(w)]
                               for w in wy_s[first_of_node]),
                              dtype=np.int64, count=int(first_of_node.sum()))
        return pa.table({
            "a": pa.array(np.concatenate([uw, n_nodes])),
            "b": pa.array(np.concatenate(
                [np.fromiter((lroot_by_way[int(w)] for w in uw),
                             dtype=np.int64, count=len(uw)), n_lroot])),
            "kind": pa.array(np.concatenate(
                [np.zeros(len(uw), dtype=np.int8),
                 np.ones(len(n_nodes), dtype=np.int8)])),
        }, schema=mix_schema)

    import pyarrow.compute as pc

    mixed = drop_empty_blocks(
        ways_ds.map_batches(contract, batch_format="pyarrow").materialize())
    wl = mixed.map_batches(
        lambda b: pa.table({"way_id": b.filter(pc.equal(b["kind"], 0))["a"],
                            "lroot": b.filter(pc.equal(b["kind"], 0))["b"]}),
        batch_format="pyarrow")
    nl = drop_empty_blocks(mixed.map_batches(
        lambda b: pa.table({"node": b.filter(pc.equal(b["kind"], 1))["a"],
                            "lroot": b.filter(pc.equal(b["kind"], 1))["b"]}),
        batch_format="pyarrow").materialize())

    roots = drop_empty_blocks(
        nl.groupby("node").aggregate(Min("lroot", alias_name="nroot"))
        .materialize())

    def to_edges(b: pa.Table) -> pa.Table:
        lr = np.asarray(b["lroot"].to_numpy(zero_copy_only=False),
                        dtype=np.int64)
        nr = np.asarray(b["nroot"].to_numpy(zero_copy_only=False),
                        dtype=np.int64)
        m = lr != nr
        return pa.table({"u": pa.array(nr[m]), "v": pa.array(lr[m])})

    edges = (nl.join(roots, join_type="inner",
                     num_partitions=cap_join_partitions(4), on=("node",))
             .map_batches(to_edges, batch_format="pyarrow"))

    labels = hash_min_components(edges, num_partitions=2)

    lfull = (labels.map_batches(
        lambda b: pa.table({"lroot": b["node"], "lbl": b["label"]}),
        batch_format="pyarrow")
        .union(wl.map_batches(
            lambda b: pa.table({"lroot": b["lroot"], "lbl": b["lroot"]}),
            batch_format="pyarrow"))
        .groupby("lroot").aggregate(Min("lbl", alias_name="component_id")))
    lfull = drop_empty_blocks(lfull.materialize())

    expanded = wl.join(lfull, join_type="inner",
                       num_partitions=cap_join_partitions(4), on=("lroot",))

    return (expanded.map_batches(
        lambda b: pa.table({"component_id": b["component_id"]}),
        batch_format="pyarrow")
        .groupby("component_id").aggregate(Count(alias_name="n_ways")))


def way_components_sql(ways_path: str) -> str:
    return f"""
WITH RECURSIVE w AS (
  SELECT way_id, nodes FROM read_parquet('{ways_path}') WHERE tagged
),
nw AS (SELECT way_id, unnest(nodes) AS node FROM w),
root AS (SELECT node, min(way_id) AS r FROM nw GROUP BY node),
edges AS (
  SELECT DISTINCT root.r AS u, nw.way_id AS v
  FROM nw JOIN root USING (node) WHERE nw.way_id <> root.r
),
eu AS (SELECT u, v FROM edges UNION ALL SELECT v, u FROM edges),
reach(node, r) AS (
  SELECT way_id, way_id FROM w
  UNION
  SELECT eu.v, reach.r FROM reach JOIN eu ON reach.node = eu.u
),
lbl AS (SELECT node AS way_id, min(r) AS comp FROM reach GROUP BY node)
SELECT comp::BIGINT AS component_id, count(*)::BIGINT AS n_ways
FROM lbl GROUP BY comp
"""


# --- triangle census over the road-adjacency graph -------------------------

def _pairs_within_segments(vals: np.ndarray, seg_lens: np.ndarray):
    """All ordered index pairs (i<j) WITHIN each segment of a concatenated
    sorted array, vectorized by distinct segment length: segments with the
    same length k share one ``np.triu_indices(k, 1)`` template, broadcast
    across all of them at once — no per-segment Python.  Road-network node /
    neighbor-list degrees take only a handful of distinct values, so this is
    a few numpy calls total.  Returns (left, right, seg_idx) — seg_idx maps
    each emitted pair back to its segment (pairs are NOT in segment order:
    they come out grouped by segment length)."""
    z = np.empty(0, dtype=np.int64)
    if len(vals) == 0 or len(seg_lens) == 0:
        return z, z, z
    offs = np.concatenate([[0], np.cumsum(seg_lens)[:-1]])
    left_parts, right_parts, seg_parts = [], [], []
    for k in np.unique(seg_lens):
        if k < 2:
            continue
        sel = np.nonzero(seg_lens == k)[0]
        ii, jj = np.triu_indices(int(k), 1)          # template for length k
        base = offs[sel][:, None]                    # (n_seg, 1)
        left_parts.append(vals[(base + ii[None, :]).ravel()])
        right_parts.append(vals[(base + jj[None, :]).ravel()])
        seg_parts.append(np.repeat(sel, len(ii)))
    if not left_parts:
        return z, z, z
    return (np.concatenate(left_parts).astype(np.int64),
            np.concatenate(right_parts).astype(np.int64),
            np.concatenate(seg_parts).astype(np.int64))


def _dedup_pairs(a: np.ndarray, b: np.ndarray):
    """Distinct (a, b) rows (lexsort + boundary mask — no Python sets)."""
    if len(a) == 0:
        return a, b
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return a[keep], b[keep]


_PAIR_MIX = np.uint64(0x9E3779B97F4A7C15)  # splitmix golden-ratio constant


def _pair_shard(u: np.ndarray, w: np.ndarray, ns: int) -> np.ndarray:
    """Deterministic shard id for an (u, w) pair — routing only, so the
    result hashes are shard-count-invariant by construction."""
    h = (u.astype(np.uint64) * _PAIR_MIX) ^ w.astype(np.uint64)
    h ^= h >> np.uint64(29)
    return (h % np.uint64(ns)).astype(np.int64)


def way_triangles(ways_ds):
    """Triangle census + degree per way of the road-adjacency graph (two
    TAGGED ways are adjacent when they share a node): one row per way with
    >= 1 neighbor, ``(way_id, degree, n_triangles)``.

    The classic distributed triangle count (node-iterator with minimum-id
    orientation — cf. Cohen, "Graph Twiddling in a MapReduce World", CiSE
    2009), expressed as three keyed exchanges; reference parity: the way
    graph the reference walks per county (js/geo.js offset walker's
    neighbor structure) here gets a whole-graph clustering census.

    1. NODE-keyed: (node, way) rows co-locate per node; each node emits its
       adjacent-way pairs (a < b).  Road-network node degrees are small
       (an intersection joins a handful of ways) so the pair explosion is
       bounded; a hub-heavy graph would orient by (degree, id) first — the
       standard skew hedge, unnecessary for road topology.
    2. PIVOT-keyed (a % NS): every copy of edge (a, b) shares pivot a, so
       per-shard dedup IS global dedup.  Each pivot's neighbor list (all
       > a by construction) emits wedges (u < w), one edge-marker row per
       distinct edge, and local degree partials for both endpoints.
    3. PAIR-keyed (hash(u, w) % NS): markers flag which wedges close; a
       closed wedge is one triangle found exactly once (at its minimum
       vertex) -> three (way, 1) partials, pre-combined per shard.

    The final (way) groupby folds degree + triangle partials.  Exchange
    volume is O(edges + wedges); nothing graph-sized ever sits on the
    driver, and no stage enumerates all-pairs."""
    from ray.data.aggregate import Sum

    NS = n_shards()  # cluster-derived; captured into the closures below

    nw_schema = pa.schema([("node", pa.int64()), ("way", pa.int64()),
                           ("shard", pa.int64())])

    def explode(b: pa.Table) -> pa.Table:
        t = b.filter(b["tagged"])
        if t.num_rows == 0:
            return nw_schema.empty_table()
        nodes = t["nodes"].combine_chunks()
        lens = np.asarray(nodes.value_lengths(), dtype=np.int64)
        nd = np.asarray(nodes.flatten(), dtype=np.int64)
        wy = np.repeat(np.asarray(t["way_id"].to_numpy(zero_copy_only=False),
                                  dtype=np.int64), lens)
        # distinct (node, way): a closed ring repeats its first node
        nd, wy = _dedup_pairs(nd, wy)
        return pa.table({"node": pa.array(nd), "way": pa.array(wy),
                         "shard": pa.array(nd % NS)}, schema=nw_schema)

    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                             ("shard", pa.int64())])

    def node_pairs(df: pd.DataFrame) -> pa.Table:
        # rows of one node shard: group by node, emit adjacent-way pairs
        nd = df["node"].to_numpy()
        wy = df["way"].to_numpy()
        order = np.lexsort((wy, nd))
        nd, wy = nd[order], wy[order]
        # (node, way) rows are globally distinct already (explode dedups
        # within a way; a (node, way) pair exists once across ways)
        starts = np.ones(len(nd), dtype=bool)
        starts[1:] = nd[1:] != nd[:-1]
        seg_lens = np.diff(np.append(np.nonzero(starts)[0], len(nd)))
        a, b, _ = _pairs_within_segments(wy, seg_lens)  # sorted -> a < b
        a, b = _dedup_pairs(a, b)                       # local pre-dedup
        return pa.table({"a": pa.array(a), "b": pa.array(b),
                         "shard": pa.array(a % NS)}, schema=pair_schema)

    # wedge/marker rows: pivot = -1 marks a real edge (u, w)
    wm_schema = pa.schema([("u", pa.int64()), ("w", pa.int64()),
                           ("pivot", pa.int64()), ("shard", pa.int64())])
    # (way, deg_n, tri_n) partial rows for the final fold
    part_schema = pa.schema([("way_id", pa.int64()), ("deg_n", pa.int64()),
                             ("tri_n", pa.int64())])

    def pivot_stage(df: pd.DataFrame) -> pa.Table:
        a = df["a"].to_numpy()
        b = df["b"].to_numpy()
        a, b = _dedup_pairs(a, b)  # same (a,b) always lands here: global dedup
        # wedges per pivot: neighbor lists are the b-runs of sorted a
        starts = np.ones(len(a), dtype=bool)
        starts[1:] = a[1:] != a[:-1]
        seg_lens = np.diff(np.append(np.nonzero(starts)[0], len(a)))
        u, w, seg_idx = _pairs_within_segments(b, seg_lens)
        pivots = a[starts][seg_idx]
        wedges = pa.table({"u": pa.array(u), "w": pa.array(w),
                           "pivot": pa.array(pivots),
                           "shard": pa.array(_pair_shard(u, w, NS))},
                          schema=wm_schema)
        markers = pa.table({"u": pa.array(a), "w": pa.array(b),
                            "pivot": pa.array(np.full(len(a), -1)),
                            "shard": pa.array(_pair_shard(a, b, NS))},
                           schema=wm_schema)
        # local degree partials: each distinct edge lives in exactly one
        # pivot shard, so summing both endpoints here is exact.  map_groups
        # emits ONE schema, so degree rows pack into the wedge schema as
        # pivot = -2 rows (way id in u, count in w) and RIDE the pair
        # exchange (spread by way id) — close_stage passes them through.
        # This keeps the wedge table lazy: one consumer, no materialize.
        ways, counts = np.unique(np.concatenate([a, b]), return_counts=True)
        deg_rows = pa.table({"u": pa.array(ways),
                             "w": pa.array(counts.astype(np.int64)),
                             "pivot": pa.array(np.full(len(ways), -2)),
                             "shard": pa.array(_pair_shard(ways, ways, NS))},
                            schema=wm_schema)
        return pa.concat_tables([wedges, markers, deg_rows])

    def close_stage(df: pd.DataFrame) -> pa.Table:
        u = df["u"].to_numpy()
        w = df["w"].to_numpy()
        pv = df["pivot"].to_numpy()
        is_deg = pv == -2
        deg_tbl = part_schema.empty_table()
        if is_deg.any():
            deg_tbl = pa.table(
                {"way_id": pa.array(u[is_deg]), "deg_n": pa.array(w[is_deg]),
                 "tri_n": pa.array(np.zeros(int(is_deg.sum()), np.int64))},
                schema=part_schema)
            u, w, pv = u[~is_deg], w[~is_deg], pv[~is_deg]
        is_query = pv != -1
        if len(pv) == 0 or is_query.all() or not is_query.any():
            return deg_tbl
        # membership test without packing (way ids are arbitrary int64):
        # lexsort markers and wedges TOGETHER on (u, w); a (u, w) run is
        # "closed" iff it contains a marker row — runs found by boundary
        # mask, marker presence folded per run with logical_or.at.  Fully
        # vectorized, exact for any id range.
        order = np.lexsort((is_query, w, u))
        u_s, w_s, pv_s, q_s = u[order], w[order], pv[order], is_query[order]
        run_start = np.ones(len(u_s), dtype=bool)
        run_start[1:] = (u_s[1:] != u_s[:-1]) | (w_s[1:] != w_s[:-1])
        run_id = np.cumsum(run_start) - 1
        has_marker = np.zeros(run_id[-1] + 1, dtype=bool)
        np.logical_or.at(has_marker, run_id[~q_s], True)
        closed = q_s & has_marker[run_id]
        tri_ways = np.concatenate([pv_s[closed], u_s[closed], w_s[closed]])
        ways, counts = np.unique(tri_ways, return_counts=True)
        tri_tbl = pa.table({"way_id": pa.array(ways.astype(np.int64)),
                            "deg_n": pa.array(np.zeros(len(ways), np.int64)),
                            "tri_n": pa.array(counts.astype(np.int64))},
                           schema=part_schema)
        return pa.concat_tables([deg_tbl, tri_tbl])

    nw = ways_ds.map_batches(explode, batch_format="pyarrow")
    pairs = nw.groupby("shard").map_groups(node_pairs, batch_format="pandas")
    mixed = pairs.groupby("shard").map_groups(pivot_stage,
                                              batch_format="pandas")
    parts = mixed.groupby("shard").map_groups(close_stage,
                                              batch_format="pandas")

    return (parts.groupby("way_id")
            .aggregate(Sum("deg_n", alias_name="degree"),
                       Sum("tri_n", alias_name="n_triangles")))


def way_triangles_sql(ways_path: str) -> str:
    return f"""
WITH w AS (SELECT way_id, nodes FROM read_parquet('{ways_path}') WHERE tagged),
nw AS (SELECT DISTINCT way_id, unnest(nodes) AS node FROM w),
e AS (SELECT DISTINCT x.way_id AS u, y.way_id AS v
      FROM nw x JOIN nw y USING (node) WHERE x.way_id < y.way_id),
deg AS (SELECT way_id, count(*)::BIGINT AS degree FROM
        (SELECT u AS way_id FROM e UNION ALL SELECT v FROM e)
        GROUP BY way_id),
tri AS (SELECT e1.u AS a, e1.v AS b, e2.v AS c
        FROM e e1
        JOIN e e2 ON e2.u = e1.v
        JOIN e e3 ON e3.u = e1.u AND e3.v = e2.v),
tcnt AS (SELECT way_id, count(*)::BIGINT AS n_triangles FROM
         (SELECT unnest([a, b, c]) AS way_id FROM tri) GROUP BY way_id)
SELECT deg.way_id, deg.degree, coalesce(tcnt.n_triangles, 0)::BIGINT
         AS n_triangles
FROM deg LEFT JOIN tcnt USING (way_id)
"""


# ---------------------------------------------------------------------------
# Bounded-hops relaxation over the way graph: way_bfs_hops, way_reach_meters
#
# "How far is every road from the motorway network?" — the reach/coverage
# query a routing or siting pipeline asks of the road graph (and the graph
# analogue of the kNN family's distance-to-feature queries).  Two ways are
# adjacent when they share a node (the same graph way_components contracts).
# Both ops are ONE label-correcting (Bellman-Ford shape) walk from the seed
# set (highway = 'motorway', cost 0), bounded by max_hops steps rather than
# run to fixpoint: stepping onto way v adds v's weight, and a way is
# re-expanded only when a cheaper label arrives.  Hops weigh every way 1
# (labels then never improve after their first round, i.e. BFS layers);
# reach weighs it by its fix6-microdegree L1 polyline length (the
# way_l1_lengths metric — INTEGER, so every min/plus is exact).  The weight
# rides on the (node, way_id, w) incidence rows, so nothing per-way is ever
# collected to the driver.
#
# Cardinality-routed like pages_way_join: the reached ball IS the result the
# driver returns, so while it fits ``broadcast_max`` each round is two
# STREAMING passes over the materialized incidence with the frontier shipped
# via ray.put and driver-merged integer min-folds (no exchange).  Once the
# ball would outgrow the budget, the current labels and frontier are handed
# to the sharded rounds as one dataset and only the remaining rounds run
# there: per round one way-keyed exchange (relabel against the labeled set,
# then emit the improved ways' node costs) and one node-keyed exchange
# (node costs + the weights -> candidate way costs), plus a final relabel.
BFS_MAX_HOPS = 4
BFS_SEED_HIGHWAY = "motorway"
BFS_BROADCAST_MAX = 2_000_000   # ball budget for the broadcast route (ways)
REACH_MAX_HOPS = BFS_MAX_HOPS

_NW = pa.schema([("node", pa.int64()), ("way_id", pa.int64()),
                 ("w", pa.int64())])
# one row layout for every exchange; ``kind`` says what a row carries
_MIX = pa.schema([("shard", pa.int64()), ("key", pa.int64()),
                  ("aux", pa.int64()), ("cost", pa.int64()),
                  ("kind", pa.int8())])
_CAND, _LABEL, _WAY_NODE = 0, 1, 2   # way-keyed: (way, cost) / (way, node)
_NODE, _NODE_WAY = 3, 4              # node-keyed: (node, cost) / (node, way, w)


def _col(b: pa.Table, name: str) -> np.ndarray:
    return np.asarray(b[name].to_numpy(zero_copy_only=False), np.int64)


def _mix(key: np.ndarray, cost: np.ndarray, kind: int, ns,
         aux: np.ndarray | None = None) -> pa.Table:
    zeros = np.zeros(len(key), np.int64)
    return pa.table({"shard": pa.array(key % ns), "key": pa.array(key),
                     "aux": pa.array(zeros if aux is None else aux),
                     "cost": pa.array(cost),
                     "kind": pa.array(np.full(len(key), kind, np.int8))},
                    schema=_MIX)


def _way_lengths(t: pa.Table) -> np.ndarray:
    """Per-row fix6-µdeg L1 polyline length — the way_l1_lengths metric."""
    lats = t["lats"].combine_chunks()
    lons = t["lons"].combine_chunks()
    lens = np.asarray(lats.value_lengths(), dtype=np.int64)
    la6 = np.floor(np.asarray(lats.flatten(), np.float64) * 1e6
                   + 0.5).astype(np.int64)
    lo6 = np.floor(np.asarray(lons.flatten(), np.float64) * 1e6
                   + 0.5).astype(np.int64)
    out = np.zeros(len(lens), dtype=np.int64)
    if len(la6):
        d = np.abs(np.diff(la6)) + np.abs(np.diff(lo6))
        starts = np.concatenate([[0], np.cumsum(lens)])
        cross = starts[1:-1] - 1
        d[cross[(cross >= 0) & (cross < len(d))]] = 0
        if len(d):
            idx = np.minimum(starts[:-1], len(d) - 1)
            out = np.add.reduceat(d, idx)
            out[lens < 2] = 0
    return out


def _incidence(b: pa.Table, weighted: bool) -> pa.Table:
    """Distinct (node, way_id, w) rows of the tagged ways; w = the way's
    length when ``weighted``, else 1."""
    t = b.filter(b["tagged"])
    if t.num_rows == 0:
        return _NW.empty_table()
    nodes = t["nodes"].combine_chunks()
    lens = np.asarray(nodes.value_lengths(), dtype=np.int64)
    w = _way_lengths(t) if weighted else np.ones(t.num_rows, np.int64)
    rows = np.unique(np.stack([np.asarray(nodes.flatten(), dtype=np.int64),
                               np.repeat(_col(t, "way_id"), lens),
                               np.repeat(w, lens)], axis=1), axis=0)
    return pa.table({"node": pa.array(rows[:, 0]),
                     "way_id": pa.array(rows[:, 1]),
                     "w": pa.array(rows[:, 2])}, schema=_NW)


def _merge_min(keys: np.ndarray, vals: np.ndarray):
    """Sorted-unique keys with the min value per key."""
    if len(keys) == 0:
        return keys, vals
    order = np.lexsort((vals, keys))
    k, v = keys[order], vals[order]
    first = np.concatenate([[True], k[1:] != k[:-1]])
    return k[first], v[first]


def _lookup(keys: np.ndarray, q: np.ndarray):
    """(position, found) of each ``q`` in the sorted-unique ``keys``."""
    if len(keys) == 0:
        return np.zeros(len(q), np.int64), np.zeros(len(q), bool)
    pos = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
    return pos, keys[pos] == q


def _step(keys, costs, src, dst, add=None):
    """Min-merged (dst, cost [+ add]) over the rows whose src is a key."""
    pos, hit = _lookup(keys, src)
    c = costs[pos[hit]]
    if add is not None:
        c = c + add[hit]
    return _merge_min(dst[hit], c)


def _relabel(lab_k, lab_c, cand_k, cand_c):
    """Fold sorted-unique candidates into the labels; returns the new labels
    and the frontier (the candidates that were new or cheaper)."""
    pos, known = _lookup(lab_k, cand_k)
    better = ~known
    better[known] = cand_c[known] < lab_c[pos[known]]
    fr_k, fr_c = cand_k[better], cand_c[better]
    lab_k, lab_c = _merge_min(np.concatenate([lab_k, fr_k]),
                              np.concatenate([lab_c, fr_c]))
    return lab_k, lab_c, fr_k, fr_c


def _broadcast_pass(nw, src_col, dst_col, keys, costs, add_w: bool):
    """One streaming pass of :func:`_step` over the incidence with the
    sorted keys/costs broadcast, min-merged on the driver."""
    import ray

    from .common import cached_get

    ref = ray.put((keys, costs))

    def fn(b: pa.Table) -> pa.Table:
        k, c = cached_get(ref)
        u, v = _step(k, c, _col(b, src_col), _col(b, dst_col),
                     _col(b, "w") if add_w else None)
        return pa.table({"k": pa.array(u, pa.int64()),
                         "c": pa.array(v, pa.int64())})

    df = nw.map_batches(fn, batch_format="pyarrow").to_pandas()
    if len(df) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return _merge_min(df["k"].to_numpy(np.int64), df["c"].to_numpy(np.int64))


def _sharded_rounds(nw, state, rounds: int, ns):
    """The above-budget route: continue from ``state`` (label and candidate
    rows in the _MIX layout) for ``rounds`` more expansions, then a final
    relabel; returns the label rows."""
    import pyarrow.compute as pc

    def of_kind(kind: int):
        return lambda b: b.filter(pc.equal(b["kind"], kind))

    def relabel_emit(t: pa.Table) -> pa.Table:
        # way-keyed: fold candidates into labels, then the improved ways'
        # incidence rows give their nodes' costs for the next exchange
        kind, key = _col(t, "kind"), _col(t, "key")
        cost, aux = _col(t, "cost"), _col(t, "aux")
        lab_k, lab_c, fr_k, fr_c = _relabel(
            *_merge_min(key[kind == _LABEL], cost[kind == _LABEL]),
            *_merge_min(key[kind == _CAND], cost[kind == _CAND]))
        m = kind == _WAY_NODE
        nd_k, nd_c = _step(fr_k, fr_c, key[m], aux[m])
        return pa.concat_tables([_mix(lab_k, lab_c, _LABEL, ns),
                                 _mix(nd_k, nd_c, _NODE, ns)])

    def expand(t: pa.Table) -> pa.Table:
        # node-keyed: node cost + the neighbour way's weight
        kind, key = _col(t, "kind"), _col(t, "key")
        cost, aux = _col(t, "cost"), _col(t, "aux")
        m = kind == _NODE_WAY
        cw_k, cw_c = _step(*_merge_min(key[kind == _NODE], cost[kind == _NODE]),
                           key[m], aux[m], cost[m])
        return _mix(cw_k, cw_c, _CAND, ns)

    by_way = nw.map_batches(
        lambda b: _mix(_col(b, "way_id"), np.zeros(b.num_rows, np.int64),
                       _WAY_NODE, ns, aux=_col(b, "node")),
        batch_format="pyarrow")
    by_node = nw.map_batches(
        lambda b: _mix(_col(b, "node"), _col(b, "w"), _NODE_WAY, ns,
                       aux=_col(b, "way_id")),
        batch_format="pyarrow")

    for r in range(rounds + 1):
        last = r == rounds
        # the sort exchange emits one block per input block, most of them
        # empty; the labels feed the next round's exchange, so without the
        # drop the block count (and the round's time) doubles every round
        out = drop_empty_blocks(
            (state if last else state.union(by_way)).groupby("shard")
            .map_groups(relabel_emit, batch_format="pyarrow").materialize())
        labels = out.map_batches(of_kind(_LABEL), batch_format="pyarrow")
        if last:
            break
        nodes = out.map_batches(of_kind(_NODE),
                                batch_format="pyarrow").materialize()
        if nodes.count() == 0:
            break
        state = (nodes.union(by_node).groupby("shard")
                 .map_groups(expand, batch_format="pyarrow").union(labels))
    return labels


def _relax(ways_ds, weighted: bool, out_col: str, max_hops: int,
           seed_highway: str, broadcast_max: int):
    """(way_id, ``out_col``): the min summed weight over walks of at most
    ``max_hops`` steps from a ``seed_highway`` way (seeds 0)."""
    import pyarrow.compute as pc

    import ray.data as rd

    ns = np.int64(n_shards())
    out_schema = pa.schema([("way_id", pa.int64()), (out_col, pa.int64())])

    def seeds_fn(b: pa.Table) -> pa.Table:
        m = pc.and_kleene(b["tagged"], pc.equal(b["highway"], seed_highway))
        k = _col(b.filter(m), "way_id")
        return _mix(k, np.zeros(len(k), np.int64), _CAND, ns)

    def result(lab_k, lab_c):
        return rd.from_arrow(pa.table({"way_id": pa.array(lab_k, pa.int64()),
                                       out_col: pa.array(lab_c, pa.int64())},
                                      schema=out_schema))

    nw = ways_ds.map_batches(_incidence, fn_kwargs={"weighted": weighted},
                             batch_format="pyarrow").materialize()
    seeds = ways_ds.map_batches(seeds_fn, batch_format="pyarrow").materialize()
    n_seeds = seeds.count()
    if n_seeds == 0:
        return rd.from_arrow(out_schema.empty_table())

    state, rounds = seeds, max_hops
    if n_seeds <= broadcast_max:
        lab_k = lab_c = np.empty(0, np.int64)
        cand_k = np.unique(seeds.to_pandas()["key"].to_numpy(np.int64))
        cand_c = np.zeros(len(cand_k), np.int64)
        for h in range(max_hops + 1):
            new_k, new_c, fr_k, fr_c = _relabel(lab_k, lab_c, cand_k, cand_c)
            if len(new_k) > broadcast_max:
                # the ball outgrew the budget: hand the live labels and
                # frontier to the sharded rounds for the hops that remain
                state = rd.from_arrow(pa.concat_tables(
                    [_mix(lab_k, lab_c, _LABEL, ns),
                     _mix(fr_k, fr_c, _CAND, ns)]))
                rounds = max_hops - h
                break
            lab_k, lab_c = new_k, new_c
            if h == max_hops or len(fr_k) == 0:
                return result(lab_k, lab_c)
            nd_k, nd_c = _broadcast_pass(nw, "way_id", "node", fr_k, fr_c,
                                         add_w=False)
            cand_k, cand_c = _broadcast_pass(nw, "node", "way_id", nd_k, nd_c,
                                             add_w=True)

    return _sharded_rounds(nw, state, rounds, ns).map_batches(
        lambda b: pa.table({"way_id": b["key"], out_col: b["cost"]},
                           schema=out_schema),
        batch_format="pyarrow")


def way_bfs_hops(ways_ds, max_hops: int = BFS_MAX_HOPS,
                 seed_highway: str = BFS_SEED_HIGHWAY,
                 broadcast_max: int = BFS_BROADCAST_MAX):
    """(way_id, hops) for every tagged way within ``max_hops`` shared-node
    steps of a ``seed_highway`` way; hops = the minimum step count (BFS
    layer).  Seeds carry hops = 0."""
    return _relax(ways_ds, False, "hops", max_hops, seed_highway,
                  broadcast_max)


def way_bfs_hops_sql(ways_path: str, max_hops: int = BFS_MAX_HOPS,
                     seed_highway: str = BFS_SEED_HIGHWAY) -> str:
    return f"""
WITH RECURSIVE
w AS (SELECT way_id, nodes, highway FROM read_parquet('{ways_path}')
      WHERE tagged),
nw AS (SELECT DISTINCT way_id, unnest(nodes) AS node FROM w),
seeds AS (SELECT way_id FROM w WHERE highway = '{seed_highway}'),
bfs(way_id, hops) AS (
  SELECT way_id, 0 FROM seeds
  UNION
  SELECT b.way_id, bfs.hops + 1
  FROM bfs JOIN nw a ON a.way_id = bfs.way_id
           JOIN nw b ON b.node = a.node
  WHERE bfs.hops < {max_hops}
)
SELECT way_id, min(hops)::BIGINT AS hops FROM bfs GROUP BY way_id
"""


def way_reach_meters(ways_ds, max_hops: int = REACH_MAX_HOPS,
                     seed_highway: str = BFS_SEED_HIGHWAY,
                     broadcast_max: int = BFS_BROADCAST_MAX):
    """(way_id, cost_udeg) — minimum summed fix6-µdeg length of the ways
    traversed to reach each way from a ``seed_highway`` way in at most
    ``max_hops`` steps (seeds cost 0; stepping onto way v adds v's
    length)."""
    return _relax(ways_ds, True, "cost_udeg", max_hops, seed_highway,
                  broadcast_max)


def way_reach_meters_sql(ways_path: str, max_hops: int = REACH_MAX_HOPS,
                         seed_highway: str = BFS_SEED_HIGHWAY) -> str:
    return f"""
WITH RECURSIVE
w AS (SELECT way_id, nodes, lats, lons, highway
      FROM read_parquet('{ways_path}') WHERE tagged),
nw AS (SELECT DISTINCT way_id, unnest(nodes) AS node FROM w),
pts AS (
  SELECT way_id, i AS idx,
         CAST(floor(lats[i] * 1000000 + 0.5) AS BIGINT) AS la6,
         CAST(floor(lons[i] * 1000000 + 0.5) AS BIGINT) AS lo6
  FROM w, UNNEST(generate_series(1, len(lats))) AS u(i)
),
seg AS (
  SELECT way_id,
         abs(la6 - lag(la6) OVER win) + abs(lo6 - lag(lo6) OVER win) AS d
  FROM pts WINDOW win AS (PARTITION BY way_id ORDER BY idx)
),
wl AS (SELECT way_id, coalesce(sum(d), 0)::BIGINT AS len_udeg
       FROM seg GROUP BY way_id),
seeds AS (SELECT way_id FROM w WHERE highway = '{seed_highway}'),
reach(way_id, cost, hops) AS (
  SELECT way_id, 0::BIGINT, 0 FROM seeds
  UNION
  SELECT b.way_id, reach.cost + wl.len_udeg, reach.hops + 1
  FROM reach
  JOIN nw a ON a.way_id = reach.way_id
  JOIN nw b ON b.node = a.node
  JOIN wl ON wl.way_id = b.way_id
  WHERE reach.hops < {max_hops}
)
SELECT way_id, min(cost)::BIGINT AS cost_udeg FROM reach GROUP BY way_id
"""
