"""Full-text retrieval over the documents table: BM25 top-k search for a
fixed broadcast query set — the keyword-retrieval primitive next to the
embedding kNN in ``stages/similarity.py`` (hybrid search fuses the two; see
``similarity.rrf_fusion`` for the fusion step over ranked lists).

Scoring is a RATIONAL-arithmetic BM25 (k1 = 6/5, b = 3/4, avgdl rounded to
milli-token precision) so every score is an exact int64 the DuckDB oracle
reproduces bit-for-bit — no float comparison anywhere in the ranking.

Scale shape (10^12 docs):
* Pass 1 (corpus stats): per-batch partials (df per query term, total
  token count, doc count) combine into <= |terms|+1 rows through one tiny
  groupby — the corpus itself never shuffles.
* The stats broadcast once via ``ray.put``; queries are fixed-small by
  definition (a search workload's query batch), like the decontamination
  suite.
* Pass 2 (score): stateless map over the corpus; only docs containing at
  least one query term emit candidate rows, and each batch emits at most
  k rows per query (local top-k), so the final per-query merge sees
  k x blocks rows.  No join, no global sort.

Integer bounds: idf = (N * 10^6) // df and the saturated-tf factor is
<= 2.2 * 10^6, so a score term is < 2^63 while N/df <= ~4 * 10^5.  For
corpora beyond that (rare term at planet scale) drop IDF_SCALE to 10^3 —
the constant is shared by engine and oracle, so both move together.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import DUCK_LOWER_TRANS
from .text import TOKS_SQL

# fixed query workload: query_id -> whitespace-tokenized terms (distinct
# within each query by construction; shared verbatim with the SQL oracle)
BM25_QUERIES: dict[int, str] = {
    0: "hash join",
    1: "fast scan filter",
    2: "customer order line",
    3: "vector data stream",
}
BM25_K = 10          # results kept per query
K1_NUM, K1_DEN = 6, 5    # k1 = 1.2
B_NUM, B_DEN = 3, 4      # b = 0.75
IDF_SCALE = 10**6
TF_SCALE = 10**6
AVGDL_MILLI = 1000   # avgdl carried as (tot * 1000) // n


def _query_terms() -> list[tuple[int, str]]:
    return [(qid, t) for qid, q in sorted(BM25_QUERIES.items())
            for t in q.split()]


_STATS_SCHEMA = pa.schema([("term", pa.string()), ("df", pa.int64()),
                           ("dl", pa.int64()), ("n", pa.int64())])
_OUT_SCHEMA = pa.schema([("query_id", pa.int64()), ("rk", pa.int64()),
                         ("doc_id", pa.int64()), ("score", pa.int64())])


def _tok_frame(b: pa.Table) -> pd.DataFrame:
    """(doc_id, token) rows for this batch plus the per-doc token count —
    the shared vectorized tokenize (C regex, matches TOKS_SQL exactly)."""
    ser = b["text"].to_pandas().fillna("")
    toks = ser.str.translate(DUCK_LOWER_TRANS).str.findall(r"[^\t\n\f\r ]+")
    dl = toks.str.len().to_numpy(dtype=np.int64)
    df = (pd.DataFrame({"doc_id": b["doc_id"].to_pandas(), "token": toks})
          .explode("token").dropna(subset=["token"]))
    return df, dl


def bm25_search(ds):
    """BM25 top-``BM25_K`` docs per query in ``BM25_QUERIES``; ties break by
    doc_id ascending.  Returns (query_id, rk, doc_id, score)."""
    import ray
    from ray.data.aggregate import Sum

    from .common import cached_get, drop_empty_blocks

    terms = sorted({t for _, t in _query_terms()})
    term_set = set(terms)

    mat = ds.materialize()

    def stats_partial(b: pa.Table) -> pa.Table:
        tf, dl = _tok_frame(b)
        hit = tf[tf["token"].isin(term_set)]
        df_p = hit.groupby("token", sort=False)["doc_id"].nunique()
        rows = {"term": list(df_p.index) + [""],
                "df": list(df_p.to_numpy(dtype=np.int64)) + [0],
                "dl": [0] * len(df_p) + [int(dl.sum())],
                "n": [0] * len(df_p) + [b.num_rows]}
        return pa.table(rows, schema=_STATS_SCHEMA)

    # NOTE df partials sum per-batch distinct-doc counts; exact because a
    # doc's rows never split across batches (batch_size=None whole blocks
    # upstream keeps doc rows intact — one row per doc in this table).
    stats = (mat.map_batches(stats_partial, batch_format="pyarrow")
             .groupby("term").aggregate(Sum("df", alias_name="df"),
                                        Sum("dl", alias_name="dl"),
                                        Sum("n", alias_name="n"))
             .to_pandas())
    n_docs = int(stats["n"].sum())
    tot = int(stats["dl"].sum())
    df_map = {t: int(v) for t, v in zip(stats["term"], stats["df"]) if t}
    avg_m = (tot * AVGDL_MILLI) // max(1, n_docs)
    qterms = _query_terms()
    stats_ref = ray.put((df_map, n_docs, avg_m, qterms))

    def score_batch(b: pa.Table) -> pa.Table:
        df_map, n_docs, avg_m, qterms = cached_get(stats_ref)
        tf_rows, dl = _tok_frame(b)
        doc_ids = b["doc_id"].to_pandas().to_numpy(dtype=np.int64)
        dl_by_doc = pd.Series(dl, index=doc_ids)
        hit = tf_rows[tf_rows["token"].isin(df_map)]
        if hit.empty:
            return _OUT_SCHEMA.empty_table()
        tf = (hit.groupby(["doc_id", "token"], sort=False).size()
              .reset_index(name="tf"))
        out = []
        for qid, term in qterms:
            dfq = df_map.get(term, 0)
            if dfq == 0:
                continue
            m = tf[tf["token"] == term]
            if m.empty:
                continue
            d = m["doc_id"].to_numpy(dtype=np.int64)
            t = m["tf"].to_numpy(dtype=np.int64)
            dld = dl_by_doc.loc[d].to_numpy(dtype=np.int64)
            # tf*(k1+1) / (tf + k1*(1-b + b*dl/avg)) with k1=6/5, b=3/4 and
            # avg = avg_m/1000, cleared of denominators (x 20*avg_m):
            num = 44 * t * avg_m
            den = 20 * t * avg_m + 6 * avg_m + 18_000 * dld
            tf_sat = (num * TF_SCALE) // den
            idf = (n_docs * IDF_SCALE) // dfq
            out.append(pd.DataFrame({"query_id": qid, "doc_id": d,
                                     "score": idf * tf_sat}))
        if not out:
            return _OUT_SCHEMA.empty_table()
        cand = (pd.concat(out).groupby(["query_id", "doc_id"], sort=False)
                ["score"].sum().reset_index())
        cand = cand.sort_values(["query_id", "score", "doc_id"],
                                ascending=[True, False, True], kind="stable")
        cand = cand.groupby("query_id", sort=False).head(BM25_K)
        cand["rk"] = 0
        return pa.Table.from_pandas(
            cand[["query_id", "rk", "doc_id", "score"]],
            preserve_index=False, schema=_OUT_SCHEMA).replace_schema_metadata(None)

    def final_topk(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["score", "doc_id"], ascending=[False, True],
                          kind="stable").head(BM25_K).reset_index(drop=True)
        g["rk"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return pa.Table.from_pandas(
            g[["query_id", "rk", "doc_id", "score"]],
            preserve_index=False, schema=_OUT_SCHEMA).replace_schema_metadata(None)

    cands = drop_empty_blocks(
        mat.map_batches(score_batch, batch_format="pyarrow").materialize())
    if cands.count() == 0:
        # an empty Ray dataset loses its schema through to_pandas — hand the
        # schema-complete empty table back directly
        return _OUT_SCHEMA.empty_table()
    return cands.groupby("query_id").map_groups(final_topk,
                                                batch_format="pandas")


def bm25_search_sql(table: str = "documents") -> str:
    qvals = ", ".join(f"({qid}, '{t}')" for qid, t in _query_terms())
    return f"""
WITH toks AS (SELECT doc_id, unnest({TOKS_SQL}) AS tok FROM {table}),
dl AS (SELECT doc_id, COUNT(*)::BIGINT AS dl FROM toks GROUP BY doc_id),
st AS (SELECT (SELECT COUNT(*) FROM {table})::BIGINT AS n,
              (SELECT COALESCE(SUM(dl), 0) FROM dl)::BIGINT AS tot),
qterms(query_id, term) AS (VALUES {qvals}),
dfx AS (SELECT t.tok AS term, COUNT(DISTINCT t.doc_id)::BIGINT AS df
        FROM toks t WHERE t.tok IN (SELECT DISTINCT term FROM qterms)
        GROUP BY t.tok),
tf AS (SELECT q.query_id, t.doc_id, q.term, COUNT(*)::BIGINT AS tf
       FROM toks t JOIN qterms q ON q.term = t.tok
       GROUP BY 1, 2, 3),
scored AS (
  SELECT tf.query_id, tf.doc_id,
         SUM(((st.n * {IDF_SCALE}) // dfx.df) *
             ((44 * tf.tf * ((st.tot * {AVGDL_MILLI}) // st.n) * {TF_SCALE})
              // (20 * tf.tf * ((st.tot * {AVGDL_MILLI}) // st.n)
                  + 6 * ((st.tot * {AVGDL_MILLI}) // st.n)
                  + 18000 * dl.dl)))::BIGINT AS score
  FROM tf
  JOIN dl ON dl.doc_id = tf.doc_id
  JOIN dfx ON dfx.term = tf.term
  CROSS JOIN st
  GROUP BY 1, 2),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, doc_id ASC)::BIGINT AS rk
  FROM scored)
SELECT query_id::BIGINT AS query_id, rk, doc_id, score
FROM ranked WHERE rk <= {BM25_K}
"""


# --- inverted index build -----------------------------------------------------
POSTINGS_PREVIEW = 20  # doc ids materialized per token row (df stays exact)


def inverted_index(ds):
    """Posting-list construction — the index-build half of the retrieval
    story (BM25 above is the query half).  Returns one row per token:
    (token, df, postings) with postings = the first ``POSTINGS_PREVIEW``
    doc_ids ascending, comma-joined (a bounded preview; a production sink
    would ``write_parquet`` the full lists partitioned by token hash, same
    layout).

    Shape: a doc's row lives in exactly one batch, so the per-batch
    (token, doc_id) dedup IS the global dedup — the single exchange carries
    one row per distinct (token, doc) pair, and the per-token kernel runs
    inside ``groupby(token).map_groups``."""
    td_schema = pa.schema([("token", pa.string()), ("doc_id", pa.int64())])
    out_schema = pa.schema([("token", pa.string()), ("df", pa.int64()),
                            ("postings", pa.string())])

    def td_partial(b: pa.Table) -> pa.Table:
        ser = b["text"].to_pandas().fillna("")
        toks = ser.str.translate(DUCK_LOWER_TRANS).str.findall(r"[^\t\n\f\r ]+")
        df = (pd.DataFrame({"doc_id": b["doc_id"].to_pandas(),
                            "token": toks})
              .explode("token").dropna(subset=["token"])
              .drop_duplicates())
        return pa.Table.from_pandas(df[["token", "doc_id"]],
                                    preserve_index=False,
                                    schema=td_schema).replace_schema_metadata(None)

    def per_token(g: pd.DataFrame) -> pa.Table:
        ids = np.sort(g["doc_id"].to_numpy(dtype=np.int64))
        return pa.table({
            "token": pa.array([g["token"].iloc[0]]),
            "df": pa.array([len(ids)], pa.int64()),
            "postings": pa.array([",".join(
                str(i) for i in ids[:POSTINGS_PREVIEW])]),
        }, schema=out_schema)

    return (ds.map_batches(td_partial, batch_format="pyarrow")
            .groupby("token").map_groups(per_token, batch_format="pandas"))


def inverted_index_sql(table: str = "documents") -> str:
    return f"""
WITH td AS (
  SELECT DISTINCT doc_id, unnest({TOKS_SQL}) AS token FROM {table}
)
SELECT token, count(*)::BIGINT AS df,
       array_to_string(list_slice(list_sort(list(doc_id)), 1,
                                  {POSTINGS_PREVIEW}), ',') AS postings
FROM td GROUP BY token
"""
