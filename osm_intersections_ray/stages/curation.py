"""Corpus-curation operators: deterministic dataset splitting, per-host crawl
caps, exact proportional stratified sampling, and embedding quantization —
the assemble-the-training-set stage that follows dedup/quality filtering in
an LLM data pipeline.

Everything is hash-derived (md5), never RNG-based, so every result is
reproducible across runs, partitionings and engines, and every operator has
a bit-exact DuckDB oracle.

Scale shapes (100-TB design notes are per function):
* ``dataset_split`` is row-local — zero shuffle.
* ``host_capped_pages`` is the HIGH-cardinality grouped top-k (millions of
  hosts): per-batch pre-reduction under one host-sharded exchange, unlike
  ``text.stratified_sample``'s driver-merge which is right only for
  enum-sized groups (languages).
* ``proportional_sample`` needs each group's COUNT before it can rank, so
  it is the grouped distributed-selection problem: a bounded (lang, bucket)
  histogram picks the hash-threshold bucket per language and only the
  boundary bucket's rows are ever collected (the ``acctbal_quantiles``
  targeted-bucket move, grouped).
* ``embedding_quantize`` is row-local float->int8 — zero shuffle, numpy
  kernels over the flattened Arrow list buffers.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import DUCK_LOWER_TRANS, h60
from .common import n_shards

# --- deterministic train/valid/test split ----------------------------------
SPLIT_CUTS = (800_000, 900_000)  # ppm cutoffs: <80% train, <90% valid, rest test


def dataset_split(ds):
    """Assign every document to train/valid/test by a pure hash of its id —
    the canonical "split before you train" op.  Hash-based (not RNG) so the
    assignment is stable under re-runs, re-partitioning, engine changes and
    incremental ingest (a new doc never moves an old one between splits).

    Scale shape: row-local map, zero shuffle, no state."""

    def assign(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        buckets = np.array([h60(f"split|{i}") % 1_000_000 for i in ids],
                           dtype=np.int64)
        split = np.where(buckets < SPLIT_CUTS[0], "train",
                         np.where(buckets < SPLIT_CUTS[1], "valid", "test"))
        return pa.table({
            "doc_id": b["doc_id"],
            "bucket": pa.array(buckets, pa.int64()),
            "split": pa.array(split.tolist(), pa.string()),
        })

    return ds.map_batches(assign, batch_format="pyarrow")


def dataset_split_sql(table: str = "documents") -> str:
    b = (f"('0x' || substr(md5('split' || chr(124) || "
         f"CAST(doc_id AS VARCHAR)), 1, 15))::BIGINT % 1000000")
    return f"""
SELECT doc_id, {b} AS bucket,
       CASE WHEN {b} < {SPLIT_CUTS[0]} THEN 'train'
            WHEN {b} < {SPLIT_CUTS[1]} THEN 'valid'
            ELSE 'test' END AS split
FROM {table}
"""


# --- per-host crawl cap (high-cardinality grouped top-k) --------------------
HOST_CAP = 3
# scheme matched case-insensitively and the host LOWERCASED for grouping —
# hosts are case-insensitive per RFC 3986, and a crawl cap that treated
# HTTPS://A.EXAMPLE and https://a.example as different hosts would leak
# double quota (found via the crawl_corpus composite's edge world)
_HOST_RE = r"(?i)^https?://([^/]+)"
_CAP_PARTIAL_SCHEMA = pa.schema([
    ("hshard", pa.int64()), ("host", pa.string()), ("url", pa.string()),
    ("hkey", pa.string()),
])
_CAP_OUT_SCHEMA = pa.schema([
    ("host", pa.string()), ("url", pa.string()), ("rank", pa.int64()),
])


def host_capped_pages(pages_ds, cap: int = HOST_CAP):
    """Cap the corpus at ``cap`` pages per host, chosen by deterministic
    hash order (md5 of the url) — the crawl-diversity cap every web-corpus
    build applies so no single site dominates the mixture.

    Scale shape: hosts are HIGH-cardinality (millions), so the driver-merge
    top-k used for enum-sized strata does not apply.  Instead: (1) each
    batch locally keeps at most ``cap`` candidates per host it sees (a
    global top-cap row is a top-cap row of its own batch, so the
    pre-reduction is lossless and bounds the exchange at cap x hosts-per-
    batch rows — never the corpus); (2) ONE host-hash-sharded exchange;
    (3) each shard owns its hosts outright and finishes the rank locally.
    Nothing host-cardinality-sized ever sits on the driver."""
    NS = n_shards()

    def local_cap(b: pa.Table) -> pa.Table:
        u = b["url"].to_pandas()
        host = u.str.extract(_HOST_RE, expand=False).str.translate(
            DUCK_LOWER_TRANS)
        df = pd.DataFrame({"host": host, "url": u}).dropna(subset=["host"])
        df = df[df["host"] != ""]
        if not len(df):
            return _CAP_PARTIAL_SCHEMA.empty_table()
        df["hkey"] = [hashlib.md5(f"cap|{x}".encode("utf-8")).hexdigest()
                      for x in df["url"]]
        df = (df.sort_values(["host", "hkey", "url"], kind="stable")
              .groupby("host", sort=False).head(cap))
        df["hshard"] = (pd.util.hash_pandas_object(df["host"], index=False)
                        .to_numpy() % NS).astype(np.int64)
        return pa.Table.from_pandas(
            df[["hshard", "host", "url", "hkey"]], preserve_index=False,
            schema=_CAP_PARTIAL_SCHEMA).replace_schema_metadata(None)

    def per_shard(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["host", "hkey", "url"], kind="stable")
        df["rank"] = df.groupby("host", sort=False).cumcount() + 1
        df = df[df["rank"] <= cap]
        return pa.Table.from_pandas(
            df[["host", "url", "rank"]], preserve_index=False,
            schema=_CAP_OUT_SCHEMA).replace_schema_metadata(None)

    return (pages_ds.map_batches(local_cap, batch_format="pyarrow")
            .groupby("hshard").map_groups(per_shard, batch_format="pandas"))


def host_capped_pages_sql(table: str = "pages", cap: int = HOST_CAP) -> str:
    return f"""
WITH h AS (
  SELECT url, lower(regexp_extract(url, '{_HOST_RE}', 1)) AS host,
         md5('cap' || chr(124) || url) AS hkey
  FROM {table}
)
SELECT host, url,
       row_number() OVER (PARTITION BY host ORDER BY hkey, url)::BIGINT AS rank
FROM h
WHERE coalesce(host, '') <> ''
QUALIFY rank <= {cap}
"""


# --- exact proportional stratified sample (grouped distributed selection) ---
PROP_NUM, PROP_DEN = 1, 10  # keep ceil(n/10) docs per language (10%)
_NULL_LANG = "\x00<null-lang>"  # driver-dict sentinel; never leaves the driver
_HIST_SCHEMA = pa.schema([("langk", pa.string()), ("bucket", pa.int64()),
                          ("n", pa.int64())])
_PROP_OUT_SCHEMA = pa.schema([("lang", pa.string()), ("doc_id", pa.int64())])


def _prop_keys(ids) -> np.ndarray:
    return np.array([h60(f"prop|{i}") for i in ids], dtype=np.int64)


def proportional_sample(ds):
    """Keep EXACTLY ceil(n/10) documents per language, chosen by global
    (md5-hash, doc_id) order within the language — proportional stratified
    sampling where the per-group quota depends on the group's (unknown)
    count, i.e. the grouped distributed-selection problem.

    Scale shape (3 streaming passes, nothing corpus-sized anywhere):
    1. histogram pass: per-batch (lang, bucket) counts, bucket = top 16
       bits of the 60-bit row hash -> a <= 65536 x |langs| driver table,
       independent of corpus size.  The driver turns each language's
       cumulative histogram into (threshold bucket b*, rows-still-needed m).
    2. boundary pass: only rows whose bucket == b*[lang] are collected
       (expected n_lang/65536 rows) and the driver picks the m smallest by
       (hash, doc_id) — the ``acctbal_quantiles`` targeted-bucket move,
       per group.
    3. emit pass: broadcast {lang: (b*, boundary picks)}; a row-local
       filter keeps bucket < b* outright plus the picked boundary rows.
    At larger corpora widen the bucket space (more hash bits) so the
    boundary collect stays tiny; everything else is unchanged."""
    import ray

    from .common import cached_get

    def hist_partial(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        langs = [l if l is not None else _NULL_LANG
                 for l in b["lang"].to_pylist()]
        bk = _prop_keys(ids) >> 44
        g = (pd.DataFrame({"langk": langs, "bucket": bk})
             .groupby(["langk", "bucket"], sort=False).size()
             .reset_index(name="n"))
        g["n"] = g["n"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False,
                                    schema=_HIST_SCHEMA).replace_schema_metadata(None)

    from ray.data.aggregate import Sum

    hist = (ds.map_batches(hist_partial, batch_format="pyarrow")
            .groupby(["langk", "bucket"])
            .aggregate(Sum("n", alias_name="n"))
            .to_pandas())  # <= 65536 x |langs| rows — corpus-size-free
    if not len(hist):
        return ray.data.from_arrow(_PROP_OUT_SCHEMA.empty_table())

    plan: dict = {}  # langk -> (b_star, m_needed)
    for langk, g in hist.groupby("langk", sort=False):
        g = g.sort_values("bucket", kind="stable")
        n = int(g["n"].sum())
        k = -(-n * PROP_NUM // PROP_DEN)  # ceil(n * NUM / DEN), pure ints
        cum = g["n"].cumsum().to_numpy()
        j = int(np.searchsorted(cum, k, side="left"))
        b_star = int(g["bucket"].iloc[j])
        before = int(cum[j - 1]) if j else 0
        plan[str(langk)] = (b_star, k - before)

    plan_ref = ray.put(plan)

    def boundary_rows(b: pa.Table) -> pa.Table:
        p = cached_get(plan_ref)
        ids = b["doc_id"].to_pylist()
        langs = [l if l is not None else _NULL_LANG
                 for l in b["lang"].to_pylist()]
        hk = _prop_keys(ids)
        bk = hk >> 44
        keep = np.array([lk in p and bkv == p[lk][0]
                         for lk, bkv in zip(langs, bk)], dtype=bool)
        sel = pa.array(np.nonzero(keep)[0].astype(np.int64))
        return pa.table({
            "langk": pa.array([langs[i] for i in np.nonzero(keep)[0]],
                              pa.string()),
            "doc_id": b["doc_id"].take(sel),
            "hkey": pa.array(hk[keep], pa.int64()),
        })

    bdf = (ds.map_batches(boundary_rows, batch_format="pyarrow")
           .to_pandas())  # expected n/65536 rows per language — tiny
    picks: dict = {}
    for langk, g in bdf.groupby("langk", sort=False):
        m = plan[str(langk)][1]
        g = g.sort_values(["hkey", "doc_id"], kind="stable").head(m)
        picks[str(langk)] = frozenset(int(i) for i in g["doc_id"])
    final = {lk: (b, picks.get(lk, frozenset())) for lk, (b, _) in plan.items()}
    final_ref = ray.put(final)

    def emit(b: pa.Table) -> pa.Table:
        p = cached_get(final_ref)
        ids = b["doc_id"].to_pylist()
        langs = [l if l is not None else _NULL_LANG
                 for l in b["lang"].to_pylist()]
        bk = _prop_keys(ids) >> 44
        keep = np.array(
            [lk in p and (bkv < p[lk][0] or int(i) in p[lk][1])
             for lk, bkv, i in zip(langs, bk, ids)], dtype=bool)
        sel = pa.array(np.nonzero(keep)[0].astype(np.int64))
        return pa.table({
            "lang": b["lang"].take(sel),
            "doc_id": b["doc_id"].take(sel),
        }).cast(_PROP_OUT_SCHEMA)

    return ds.map_batches(emit, batch_format="pyarrow")


def proportional_sample_sql(table: str = "documents") -> str:
    return f"""
WITH h AS (
  SELECT lang, doc_id,
         ('0x' || substr(md5('prop' || chr(124) ||
                              CAST(doc_id AS VARCHAR)), 1, 15))::BIGINT AS hkey
  FROM {table}
), r AS (
  SELECT lang, doc_id,
         row_number() OVER (PARTITION BY lang ORDER BY hkey, doc_id) AS rk,
         count(*) OVER (PARTITION BY lang) AS n
  FROM h
)
SELECT lang, doc_id FROM r
WHERE rk <= (n * {PROP_NUM} + {PROP_DEN - 1}) // {PROP_DEN}
"""


# --- per-language token-budget subset (weighted distributed selection) ------
TOKEN_BUDGET = 2000  # tokens kept per language (greedy: last doc may overshoot)
_TB_HIST_SCHEMA = pa.schema([("langk", pa.string()), ("bucket", pa.int64()),
                             ("toks", pa.int64())])
_TB_OUT_SCHEMA = pa.schema([("lang", pa.string()), ("doc_id", pa.int64()),
                            ("n_tokens", pa.int64())])
# token runs exactly as DuckDB RE2 '\s' splits them (tab/nl/ff/cr/space —
# probed; see stages/text.py::_WS_SPLIT)
_TOKEN_RUN_RE = r"[^\t\n\f\r ]+"


def _budget_keys(ids) -> np.ndarray:
    return np.array([h60(f"budget|{i}") for i in ids], dtype=np.int64)


def _tb_cols(b: pa.Table):
    """(langk sentinel list, doc_ids, hkeys, buckets, token counts as float
    with NaN for NULL text) — the shared projection of all three passes."""
    ids = b["doc_id"].to_pylist()
    langs = [l if l is not None else _NULL_LANG for l in b["lang"].to_pylist()]
    hk = _budget_keys(ids)
    toks = b["text"].to_pandas().str.count(_TOKEN_RUN_RE)
    return langs, ids, hk, hk >> 44, toks


def token_budget_sample(ds, budget: int = TOKEN_BUDGET):
    """Fill a per-language TOKEN budget: walk the language's documents in
    deterministic hash order and keep each doc whose cumulative token count
    *before* it is under the budget (greedy — the boundary doc may
    overshoot; a doc is never split).  This is the "take N tokens per
    language" subset builder, i.e. WEIGHTED distributed selection: the
    threshold is on a running SUM of a per-row weight, not a row count.

    Scale shape (same targeted-bucket plan as :func:`proportional_sample`,
    with token-mass histograms instead of row counts):
    1. one pass folds (lang, hash-bucket) -> token-mass partials into a
       <= 65536 x |langs| driver histogram; the driver finds each
       language's threshold bucket b* (first bucket where cumulative mass
       reaches the budget — languages under budget keep everything, no
       boundary).
    2. only bucket-b* rows are collected; the driver walks them in (hash,
       doc_id) order from the pre-b* cumulative base and picks until the
       budget fills.
    3. a row-local emit pass keeps bucket < b* plus the picks.
    NULL-text docs are never kept and contribute nothing to the running
    sum — the engine mirror of SQL's NULL window arithmetic (cum -
    n_tokens IS NULL fails the predicate; sum() skips NULL)."""
    import ray

    from ray.data.aggregate import Sum

    from .common import cached_get

    def hist_partial(b: pa.Table) -> pa.Table:
        langs, _, _, bk, toks = _tb_cols(b)
        df = (pd.DataFrame({"langk": langs, "bucket": bk, "toks": toks})
              .dropna(subset=["toks"]))
        g = (df.groupby(["langk", "bucket"], sort=False)["toks"].sum()
             .astype("int64").reset_index(name="toks"))
        return pa.Table.from_pandas(g, preserve_index=False,
                                    schema=_TB_HIST_SCHEMA).replace_schema_metadata(None)

    hist = (ds.map_batches(hist_partial, batch_format="pyarrow")
            .groupby(["langk", "bucket"])
            .aggregate(Sum("toks", alias_name="toks"))
            .to_pandas())  # bounded by 65536 x |langs| — corpus-size-free
    if not len(hist):
        return ray.data.from_arrow(_TB_OUT_SCHEMA.empty_table())

    # langk -> (b_star, base_before); b_star = None when the whole language
    # fits inside the budget (every non-NULL doc kept, no boundary walk)
    plan: dict = {}
    for langk, g in hist.groupby("langk", sort=False):
        g = g.sort_values("bucket", kind="stable")
        cum = g["toks"].cumsum().to_numpy()
        j = int(np.searchsorted(cum, budget, side="left"))
        if j >= len(cum):
            plan[str(langk)] = (None, 0)
            continue
        before = int(cum[j - 1]) if j else 0
        plan[str(langk)] = (int(g["bucket"].iloc[j]), before)

    plan_ref = ray.put(plan)

    def boundary_rows(b: pa.Table) -> pa.Table:
        p = cached_get(plan_ref)
        langs, ids, hk, bk, toks = _tb_cols(b)
        keep = np.array(
            [lk in p and p[lk][0] is not None and bkv == p[lk][0]
             and not np.isnan(t)
             for lk, bkv, t in zip(langs, bk, toks)], dtype=bool)
        idx = np.nonzero(keep)[0]
        return pa.table({
            "langk": pa.array([langs[i] for i in idx], pa.string()),
            "doc_id": pa.array([ids[i] for i in idx], pa.int64()),
            "hkey": pa.array(hk[keep], pa.int64()),
            "toks": pa.array(toks.to_numpy()[keep].astype(np.int64),
                             pa.int64()),
        })

    bdf = (ds.map_batches(boundary_rows, batch_format="pyarrow")
           .to_pandas())  # one bucket per language — tiny
    picks: dict = {}
    if bdf.empty or "langk" not in bdf.columns:
        # every language fits inside its budget: no boundary to walk (an
        # all-empty collect comes back schema-less from this Ray)
        bdf = pd.DataFrame(columns=["langk", "doc_id", "hkey", "toks"])
    for langk, g in bdf.groupby("langk", sort=False):
        base = plan[str(langk)][1]
        g = g.sort_values(["hkey", "doc_id"], kind="stable")
        cum_before = base + np.concatenate(
            [[0], np.cumsum(g["toks"].to_numpy())[:-1]])
        picks[str(langk)] = frozenset(
            int(i) for i, cb in zip(g["doc_id"], cum_before) if cb < budget)
    final = {lk: (b, picks.get(lk, frozenset())) for lk, (b, _) in plan.items()}
    final_ref = ray.put(final)

    def emit(b: pa.Table) -> pa.Table:
        p = cached_get(final_ref)
        langs, ids, _, bk, toks = _tb_cols(b)
        keep = np.array(
            [lk in p and not np.isnan(t)
             and ((p[lk][0] is None) or bkv < p[lk][0]
                  or int(i) in p[lk][1])
             for lk, bkv, t, i in zip(langs, bk, toks, ids)], dtype=bool)
        sel = pa.array(np.nonzero(keep)[0].astype(np.int64))
        return pa.table({
            "lang": b["lang"].take(sel),
            "doc_id": b["doc_id"].take(sel),
            "n_tokens": pa.array(toks.to_numpy()[keep].astype(np.int64),
                                 pa.int64()),
        }).cast(_TB_OUT_SCHEMA)

    return ds.map_batches(emit, batch_format="pyarrow")


def token_budget_sample_sql(table: str = "documents",
                            budget: int = TOKEN_BUDGET) -> str:
    return f"""
WITH h AS (
  SELECT lang, doc_id,
         len(list_filter(regexp_split_to_array(text, '\\s+'),
                         x -> x <> ''))::BIGINT AS n_tokens,
         ('0x' || substr(md5('budget' || chr(124) ||
                              CAST(doc_id AS VARCHAR)), 1, 15))::BIGINT AS hkey
  FROM {table}
), r AS (
  SELECT lang, doc_id, n_tokens,
         sum(n_tokens) OVER (PARTITION BY lang ORDER BY hkey, doc_id
                             ROWS BETWEEN UNBOUNDED PRECEDING
                             AND CURRENT ROW) AS cum
  FROM h
)
SELECT lang, doc_id, n_tokens FROM r WHERE cum - n_tokens < {budget}
"""


# --- int8 embedding quantization (row-local, bit-exact) ---------------------
_QUANT_SCHEMA = pa.schema([
    ("vec_id", pa.int64()), ("scale", pa.float64()),
    ("q_str", pa.string()), ("max_abs_err", pa.float64()),
])


def embedding_quantize(ds):
    """Symmetric int8 quantization of every embedding: per-vector scale =
    max(|x|), q_i = floor(x_i * 127 / scale + 0.5), plus the max absolute
    dequantization error — the "shrink the vector store 4x before ANN"
    step.  Bit-exact vs DuckDB because every step is elementwise IEEE-754
    double arithmetic evaluated in the same order on both sides (probed
    float-for-float over the full fixture).

    Scale shape: row-local numpy over the flattened Arrow list buffers
    (one abs/max reduceat + one fused elementwise pass per batch); zero
    shuffle, no state, no driver data.  NULL embeddings pass through as
    NULL; empty lists mirror DuckDB (scale NULL, q_str NULL, err NULL);
    all-zero vectors quantize to zeros with err 0."""

    def quantize(b: pa.Table) -> pa.Table:
        col = b["embedding"]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        nrows = len(arr)
        valid = np.asarray(arr.is_valid())
        lens = np.zeros(nrows, dtype=np.int64)
        vl = arr.value_lengths().to_numpy(zero_copy_only=False)
        lens[valid] = np.asarray(vl[valid], dtype=np.int64)
        vals = np.asarray(arr.flatten().to_numpy(zero_copy_only=False),
                          dtype=np.float64)
        ends = np.cumsum(lens)
        starts = ends - lens
        nz = valid & (lens > 0)

        scale_row = np.full(nrows, np.nan)
        if nz.any():
            scale_row[nz] = np.maximum.reduceat(np.abs(vals), starts[nz])

        # elementwise scale (repeat per row), guarded for zero vectors
        escale = np.repeat(np.where(np.isnan(scale_row), 1.0, scale_row), lens)
        ezero = np.repeat(np.where(valid, scale_row == 0, False), lens)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.floor(vals * 127.0 / escale + 0.5)
        q = np.where(ezero, 0.0, q).astype(np.int64)
        err_el = np.abs(vals - q.astype(np.float64) * escale / 127.0)
        err_el = np.where(ezero, 0.0, err_el)

        err_row = np.full(nrows, np.nan)
        if nz.any():
            err_row[nz] = np.maximum.reduceat(err_el, starts[nz])

        q_str, scale_out, err_out = [], [], []
        for i in range(nrows):
            if not valid[i]:
                q_str.append(None); scale_out.append(None); err_out.append(None)
            elif lens[i] == 0:
                # DuckDB: list_max([]) = NULL, array_to_string([]) = NULL
                q_str.append(None); scale_out.append(None); err_out.append(None)
            else:
                q_str.append(",".join(map(str, q[starts[i]:ends[i]])))
                scale_out.append(float(scale_row[i]))
                err_out.append(float(err_row[i]))
        return pa.table({
            "vec_id": b["vec_id"],
            "scale": pa.array(scale_out, pa.float64()),
            "q_str": pa.array(q_str, pa.string()),
            "max_abs_err": pa.array(err_out, pa.float64()),
        }).cast(_QUANT_SCHEMA)

    return ds.map_batches(quantize, batch_format="pyarrow")


def embedding_quantize_sql(table: str = "embeddings") -> str:
    return f"""
WITH s AS (
  SELECT vec_id, embedding,
         list_max(list_transform(embedding, x -> abs(CAST(x AS DOUBLE))))
             AS scale
  FROM {table}
)
SELECT vec_id, scale,
  CASE WHEN embedding IS NULL THEN NULL
       ELSE array_to_string(list_transform(embedding, x ->
         CAST(CASE WHEN scale = 0 THEN 0
              ELSE floor(CAST(x AS DOUBLE) * 127.0 / scale + 0.5)
              END AS BIGINT)), ',')
  END AS q_str,
  CASE WHEN scale = 0 THEN 0.0 ELSE
    list_max(list_transform(embedding, x ->
      abs(CAST(x AS DOUBLE)
          - CAST(floor(CAST(x AS DOUBLE) * 127.0 / scale + 0.5) AS BIGINT)
            * scale / 127.0)))
  END AS max_abs_err
FROM s
"""


# --- one-pass table profiler (data-quality census) --------------------------

def _canon_distinct(arr: pa.ChunkedArray | pa.Array):
    """Distinct non-null values of one batch column as canonical strings.

    Canonical forms are chosen so engine distinctness == DuckDB value
    distinctness: integers/timestamps print as int64 (timestamps as epoch
    us), doubles as C99 hex floats with -0.0 normalized to 0.0 and NaNs
    collapsed to one token, strings as themselves.  Only the per-batch
    DISTINCT values are ever stringified, so the Python cost is bounded by
    batch cardinality, not batch size."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    arr = arr.drop_null()
    if pa.types.is_timestamp(t):
        u = np.unique(arr.cast(pa.int64()).to_numpy(zero_copy_only=False))
        return [str(int(v)) for v in u]
    if pa.types.is_integer(t):
        u = np.unique(arr.to_numpy(zero_copy_only=False))
        return [str(int(v)) for v in u]
    if pa.types.is_floating(t):
        v = arr.to_numpy(zero_copy_only=False).astype(np.float64)
        nan = np.isnan(v)
        u = np.unique(v[~nan] + 0.0)  # +0.0 folds -0.0 into 0.0
        out = [float(x).hex() for x in u]
        if nan.any():
            out.append("nan")
        return out
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        import pyarrow.compute as pc

        return pc.unique(arr).to_pylist()
    raise TypeError(f"unprofiled column type: {t}")


def table_profile(ds):
    """Per-column data-quality census of ANY flat table — one row per
    column: ``(col, n_rows, n_null, n_distinct)`` with n_distinct EXACT
    (what schema-drift monitoring and ingest validation read first).

    Scale shape: row/null counts are per-batch integer partials.  Exact
    distinct counts are the hard part at 100 TB — here each batch emits its
    DISTINCT (col, value) rows only (pre-dedup bounded by batch
    cardinality), one (col, value)-hash-keyed exchange makes per-shard
    distinct counts globally exact (every copy of a value lands in one
    shard), and shards emit (col, count) partials.  Both partial kinds ride
    one final |columns|-bounded groupby.  Nothing value-cardinality-sized
    ever sits on the driver or in any single process beyond one shard's
    distinct values; a unique-key column (the worst case) spreads its
    values evenly over all shards."""
    from ray.data.aggregate import Sum

    NS = n_shards()  # cluster-derived; captured into the closures below

    part_schema = pa.schema([("col", pa.string()), ("shard", pa.int64()),
                             ("val", pa.large_string()), ("n", pa.int64()),
                             ("n_null", pa.int64()), ("nd", pa.int64())])

    def partial(b: pa.Table) -> pa.Table:
        cols, shards, vals, ns, nns, nds = [], [], [], [], [], []
        for name in b.schema.names:
            arr = b[name]
            # counts partial (one row; shard -1 marks it)
            cols.append(name)
            shards.append(-1)
            vals.append("")
            ns.append(b.num_rows)
            nns.append(arr.null_count)
            nds.append(0)
            # distinct-value rows
            for v in _canon_distinct(arr):
                cols.append(name)
                shards.append(h60(f"{name}\x00{v}") % NS)
                vals.append(v)
                ns.append(0)
                nns.append(0)
                nds.append(0)
        return pa.table({"col": pa.array(cols, pa.string()),
                         "shard": pa.array(shards, pa.int64()),
                         "val": pa.array(vals, pa.large_string()),
                         "n": pa.array(ns, pa.int64()),
                         "n_null": pa.array(nns, pa.int64()),
                         "nd": pa.array(nds, pa.int64())}, schema=part_schema)

    def shard_fold(df: pd.DataFrame) -> pa.Table:
        if (df["shard"] == -1).all():
            # the counts shard: pass the integer partials through
            g = df.groupby("col", sort=False).agg(
                n=("n", "sum"), n_null=("n_null", "sum")).reset_index()
            return pa.table({"col": pa.array(g["col"], pa.string()),
                             "n": pa.array(g["n"].to_numpy(), pa.int64()),
                             "n_null": pa.array(g["n_null"].to_numpy(),
                                                pa.int64()),
                             "nd": pa.array(np.zeros(len(g), np.int64))})
        g = (df.drop_duplicates(["col", "val"])
             .groupby("col", sort=False).size().reset_index(name="nd"))
        return pa.table({"col": pa.array(g["col"], pa.string()),
                         "n": pa.array(np.zeros(len(g), np.int64)),
                         "n_null": pa.array(np.zeros(len(g), np.int64)),
                         "nd": pa.array(g["nd"].to_numpy(), pa.int64())})

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("shard").map_groups(shard_fold, batch_format="pandas")
            .groupby("col").aggregate(Sum("n", alias_name="n_rows"),
                                      Sum("n_null", alias_name="n_null"),
                                      Sum("nd", alias_name="n_distinct")))


def table_profile_sql(table: str, columns: list[str]) -> str:
    legs = []
    for c in columns:
        legs.append(
            f"SELECT '{c}' AS col, count(*)::BIGINT AS n_rows, "
            f"(count(*) - count({c}))::BIGINT AS n_null, "
            f"count(DISTINCT {c})::BIGINT AS n_distinct FROM {table}")
    return "\nUNION ALL\n".join(legs)


# --- leakage-safe host-grouped split ----------------------------------------

def host_split(pages_ds):
    """Train/valid/test assignment for WEB data, grouped by URL host: every
    page of a host lands in the same split, because near-duplicate and
    templated content cluster by site — a row-hash split (``dataset_split``)
    leaks a host's boilerplate from train into test and inflates eval.  The
    standard web-corpus leakage guard.

    Scale shape: STILL row-local zero-shuffle — the group key (host) is a
    pure function of the row, so grouping needs no exchange at all; the
    bucket hashes the lowercased host (RFC 3986 case-insensitive, same rule
    as the crawl cap).  Pages with no parseable host drop, mirroring the
    oracle's filter."""

    def assign(b: pa.Table) -> pa.Table:
        u = b["url"].to_pandas()
        host = u.str.extract(_HOST_RE, expand=False).str.translate(
            DUCK_LOWER_TRANS)
        m = host.notna() & (host != "")
        u, host = u[m], host[m]
        buckets = np.array([h60(f"hsplit|{h}") % 1_000_000 for h in host],
                           dtype=np.int64)
        split = np.where(buckets < SPLIT_CUTS[0], "train",
                         np.where(buckets < SPLIT_CUTS[1], "valid", "test"))
        return pa.table({
            "url": pa.array(u.to_numpy(dtype=object), pa.string()),
            "host": pa.array(host.to_numpy(dtype=object), pa.string()),
            "bucket": pa.array(buckets, pa.int64()),
            "split": pa.array(split.tolist(), pa.string()),
        })

    return pages_ds.map_batches(assign, batch_format="pyarrow")


def host_split_sql(table: str = "pages") -> str:
    b = (f"('0x' || substr(md5('hsplit' || chr(124) || host), 1, 15))"
         f"::BIGINT % 1000000")
    return f"""
WITH h AS (
  SELECT url, lower(regexp_extract(url, '{_HOST_RE}', 1)) AS host
  FROM {table}
)
SELECT url, host, {b} AS bucket,
       CASE WHEN {b} < {SPLIT_CUTS[0]} THEN 'train'
            WHEN {b} < {SPLIT_CUTS[1]} THEN 'valid'
            ELSE 'test' END AS split
FROM h WHERE coalesce(host, '') <> ''
"""


# --- weighted corpus sampling without replacement ---------------------------
# K documents chosen by deterministic weighted priority (weight = doc length
# in chars): priority_i = h60("wsamp|doc_id") // w_i, keep the K smallest by
# (priority, doc_id).  Dividing a uniform 60-bit hash by the weight makes a
# heavier doc's priority stochastically smaller (inclusion odds rise with
# w — the integer-exact analogue of Efraimidis-Spirakis u^(1/w) keys), and
# floor division + the doc_id tie-break keep every comparison exact integer
# arithmetic, so engine and oracle agree bit-for-bit with no pow()/log()
# float parity risk.  Hash-derived, never RNG: stable under re-runs,
# re-partitioning and incremental ingest, like every sampler in this module.
WSAMP_K = 150
_WS_OUT_SCHEMA = pa.schema([("doc_id", pa.int64()), ("w", pa.int64()),
                            ("priority", pa.int64())])


def _wsamp_cols(b: pa.Table):
    """(doc_ids, weights>=1, priorities) — the shared projection."""
    ids = b["doc_id"].to_pylist()
    w = pd.to_numeric(b["n_chars"].to_pandas(), errors="coerce").fillna(0)
    w = np.maximum(w.to_numpy(dtype=np.int64), 1)
    hk = np.array([h60(f"wsamp|{i}") for i in ids], dtype=np.int64)
    return np.array(ids, dtype=np.int64), w, hk // w


def weighted_sample(ds, k: int = WSAMP_K):
    """Global top-K selection by weighted priority — the distributed-
    selection problem WITHOUT a group key (``proportional_sample`` is the
    grouped form).  Same corpus-size-free 3-pass shape:

    1. histogram pass: per-batch counts over ``bucket = priority >> 44``
       (<= 65536 driver rows regardless of corpus size); the driver finds
       the threshold bucket b* with cum(b*-1) < K <= cum(b*).
    2. boundary pass: ONLY bucket == b* rows are collected (expected
       n/65536) and the K - cum(b*-1) smallest by (priority, doc_id) picked.
    3. emit pass: row-local keep of bucket < b* plus the picked boundary
       doc_ids (broadcast once via ``ray.put``).
    A corpus smaller than K short-circuits to keep-everything.  At larger
    corpora widen the bucket space; nothing else changes."""
    import ray

    from ray.data.aggregate import Sum

    from .common import cached_get

    def hist_partial(b: pa.Table) -> pa.Table:
        _, _, pr = _wsamp_cols(b)
        u, c = np.unique(pr >> 44, return_counts=True)
        return pa.table({"bucket": pa.array(u, pa.int64()),
                         "n": pa.array(c.astype(np.int64), pa.int64())})

    hist = (ds.map_batches(hist_partial, batch_format="pyarrow")
            .groupby("bucket").aggregate(Sum("n", alias_name="n"))
            .to_pandas())
    if not len(hist):
        return ray.data.from_arrow(_WS_OUT_SCHEMA.empty_table())
    hist = hist.sort_values("bucket", kind="stable")
    cum = hist["n"].cumsum().to_numpy()
    if int(cum[-1]) <= k:           # corpus smaller than the sample: keep all
        b_star, m_needed = None, 0
    else:
        j = int(np.searchsorted(cum, k, side="left"))
        b_star = int(hist["bucket"].iloc[j])
        m_needed = k - (int(cum[j - 1]) if j else 0)

    picks: frozenset = frozenset()
    if b_star is not None and m_needed:
        def boundary_rows(b: pa.Table) -> pa.Table:
            ids, w, pr = _wsamp_cols(b)
            keep = (pr >> 44) == b_star
            return pa.table({"doc_id": pa.array(ids[keep], pa.int64()),
                             "priority": pa.array(pr[keep], pa.int64())})

        bdf = (ds.map_batches(boundary_rows, batch_format="pyarrow")
               .to_pandas())  # expected n/65536 rows — tiny
        bdf = bdf.sort_values(["priority", "doc_id"], kind="stable").head(m_needed)
        picks = frozenset(int(i) for i in bdf["doc_id"])
    plan_ref = ray.put((b_star, picks))

    def emit(b: pa.Table) -> pa.Table:
        bs, pk = cached_get(plan_ref)
        ids, w, pr = _wsamp_cols(b)
        if bs is None:
            keep = np.ones(len(ids), dtype=bool)
        else:
            bk = pr >> 44
            keep = (bk < bs) | ((bk == bs)
                                & np.array([int(i) in pk for i in ids]))
        return pa.table({"doc_id": pa.array(ids[keep], pa.int64()),
                         "w": pa.array(w[keep], pa.int64()),
                         "priority": pa.array(pr[keep], pa.int64())})

    return ds.map_batches(emit, batch_format="pyarrow")


def weighted_sample_sql(table: str = "documents", k: int = WSAMP_K) -> str:
    return f"""
WITH h AS (
  SELECT doc_id,
         greatest(coalesce(n_chars, 0), 1)::BIGINT AS w,
         ('0x' || substr(md5('wsamp' || chr(124) ||
                              CAST(doc_id AS VARCHAR)), 1, 15))::BIGINT AS hkey
  FROM {table}
)
SELECT doc_id, w, hkey // w AS priority
FROM h ORDER BY priority, doc_id LIMIT {k}
"""
