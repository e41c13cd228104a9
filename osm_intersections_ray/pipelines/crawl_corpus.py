"""Composite crawl-to-corpus pipeline — the PAGES-side flagship composition
(the webtext mirror of ``corpus_clean``): raw crawl pages in, a curated
per-url training manifest out, chaining the standard crawl curation legs:

1. **extract** — byte-identical html -> text (the input_hint invariant),
   then LANGUAGE-ID + QUALITY scored row-locally and the text DROPPED —
   no later stage ever moves document text;
2. **canonical-URL dedup** — first-seen (warc_ts, url) representative per
   canonical url (scheme/host case-fold, default-port strip, trailing-slash
   collapse, fragment drop);
3. **per-host cap** — at most ``curation.HOST_CAP`` survivors per host in
   deterministic hash order (crawl diversity);
4. **quality floor + split** — drop low-quality pages and assign the
   hash-derived train/valid/test split.

Scale shape: leg 1 is zero-shuffle (stateless extract + row-local
annotate); legs 2 and 3 exchange SKINNY (url, ts)-derived rows only; the
final assembly is ONE url-keyed hash join between the annotation rows and
the surviving capped urls.  Text crosses no exchange anywhere.  Every leg
is also individually hash-verified by its own driver query
(pages_extract, url_canonical_dedup, host_capped_pages, dataset_split).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ..stages import curation, pages as pg, text as tx
from ..stages.common import cap_join_partitions, drop_empty_blocks, n_shards
from ..stages.text import DUCK_LOWER_TRANS

CRAWL_QUALITY_MIN = 30

_ANN_SCHEMA = pa.schema([("url", pa.string()), ("lang_pred", pa.string()),
                         ("quality", pa.int64())])
_WIN_PARTIAL_SCHEMA = pa.schema([("canon", pa.string()), ("key", pa.string()),
                                 ("cshard", pa.int64())])
_OUT_SCHEMA = pa.schema([("url", pa.string()), ("host", pa.string()),
                         ("lang_pred", pa.string()), ("quality", pa.int64()),
                         ("split", pa.string())])


def crawl_corpus(pages_ds):
    """See module docstring.  ``pages_ds`` must carry (url, warc_ts, html).
    Returns (url, host, lang_pred, quality, split) for the surviving pages."""
    N_CANON_SHARDS = n_shards()

    # --- leg 1: extract + annotate (zero shuffle; text dies here)
    def annotate(b: pa.Table) -> pa.Table:
        shim = pa.table({"doc_id": pa.array(np.zeros(b.num_rows, np.int64)),
                         "text": b["text_extracted"]})
        lang = tx.lang_id_batch(shim)["lang_pred"]
        q = tx.quality_score_batch(shim)["quality"]
        keep = pa.array(
            np.asarray(q.to_numpy(zero_copy_only=False)) >= CRAWL_QUALITY_MIN)
        return pa.table({"url": b["url"], "lang_pred": lang,
                         "quality": q}).filter(keep).cast(_ANN_SCHEMA)

    ann = (pages_ds.map_batches(pg.extract_batch, batch_format="pyarrow",
                                batch_size=4096)
           .map_batches(annotate, batch_format="pyarrow"))

    # --- leg 2: canonical first-seen winners (skinny (url, ts) rows only;
    # same canonicalization as url_canonical_dedup, WITHOUT its synthetic
    # messy-twin augmentation — this is the production path)
    def canon_partial(b: pa.Table) -> pa.Table:
        url = b["url"].to_pandas()
        ts = b["warc_ts"].to_pandas().astype("int64")
        g = url.str.extract(pg._CANON_RE)
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
        g2["cshard"] = (pd.util.hash_pandas_object(g2["canon"], index=False)
                        .to_numpy() % N_CANON_SHARDS).astype("int64")
        return pa.Table.from_pandas(g2[["canon", "key", "cshard"]],
                                    preserve_index=False,
                                    schema=_WIN_PARTIAL_SCHEMA).replace_schema_metadata(None)

    def canon_per_shard(df: pd.DataFrame) -> pa.Table:
        s = df.sort_values(["canon", "key"], kind="stable")
        first = s.drop_duplicates("canon", keep="first")
        import pyarrow.compute as pc

        key = pa.array(first["key"], pa.string())
        return pa.table({"url": pc.utf8_slice_codeunits(key, 21, 2**30)})

    winners = (pages_ds.map_batches(canon_partial, batch_format="pyarrow")
               .groupby("cshard").map_groups(canon_per_shard,
                                             batch_format="pandas"))

    # --- leg 3: per-host cap over the winners (the host_capped_pages shape)
    capped = curation.host_capped_pages(winners)

    # --- leg 4: ONE url-keyed hash join + split assignment (row-local).
    # The shard-fold's empty shards emit schema-less blocks that poison the
    # hash join's key resolution — strip them (the jaccard-join guard).
    capped = drop_empty_blocks(capped.materialize())
    joined = capped.join(ann, join_type="inner",
                         num_partitions=cap_join_partitions(16), on=("url",))

    def finish(b: pa.Table) -> pa.Table:
        urls = b["url"].to_pylist()
        buckets = np.array(
            [int(hashlib.md5(f"split|{u}".encode("utf-8")).hexdigest()[:15], 16)
             % 1_000_000 for u in urls], dtype=np.int64)
        split = np.where(buckets < curation.SPLIT_CUTS[0], "train",
                         np.where(buckets < curation.SPLIT_CUTS[1], "valid",
                                  "test"))
        return pa.table({
            "url": b["url"], "host": b["host"],
            "lang_pred": b["lang_pred"], "quality": b["quality"],
            "split": pa.array(split.tolist(), pa.string()),
        }).cast(_OUT_SCHEMA)

    return joined.map_batches(finish, batch_format="pyarrow")


def crawl_corpus_sql(pages_tbl: str) -> str:
    """One-statement oracle composing the shared leg SQL: extract text,
    lang/quality via the key-parameterized generators, canonical winners,
    host-cap QUALIFY, split CASE — bit-exact vs the engine."""
    lang_sub = tx.lang_id_sql("ex", key="url").strip()
    qual_sub = tx.quality_score_sql("ex", cte_prefix="cq_", key="url").strip()
    split_b = (f"('0x' || substr(md5('split' || chr(124) || a.url), 1, 15))"
               f"::BIGINT % 1000000")
    return f"""
WITH ex AS (
  SELECT url, regexp_extract(decode(html),
              '(?s)<article>(.*?)</article>', 1) AS text
  FROM {pages_tbl}
),
ann AS (
  SELECT l.url, l.lang_pred, q.quality
  FROM (SELECT * FROM ({lang_sub}) t1) l
  JOIN (SELECT * FROM ({qual_sub}) t2) q USING (url)
  WHERE q.quality >= {CRAWL_QUALITY_MIN}
),
parsed AS (
  SELECT url, epoch_us(warc_ts) AS ts_us,
         lower(regexp_extract(url, '{pg._CANON_RE}', 1)) AS scheme,
         lower(regexp_extract(url, '{pg._CANON_RE}', 2)) AS hostport,
         regexp_extract(url, '{pg._CANON_RE}', 3) AS path,
         regexp_extract(url, '{pg._CANON_RE}', 4) AS query
  FROM {pages_tbl}
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
win AS (
  SELECT substr(min(lpad(ts_us::VARCHAR, 20, '0') || '|' || url), 22) AS url
  FROM canon GROUP BY canonical_url
),
h AS (
  SELECT url, lower(regexp_extract(url, '{curation._HOST_RE}', 1)) AS host,
         md5('cap' || chr(124) || url) AS hkey
  FROM win
),
capd AS (
  SELECT url, host,
         row_number() OVER (PARTITION BY host ORDER BY hkey, url) AS rnk
  FROM h WHERE coalesce(host, '') <> ''
  QUALIFY rnk <= {curation.HOST_CAP}
)
SELECT a.url, c.host, a.lang_pred, a.quality,
       CASE WHEN {split_b} < {curation.SPLIT_CUTS[0]} THEN 'train'
            WHEN {split_b} < {curation.SPLIT_CUTS[1]} THEN 'valid'
            ELSE 'test' END AS split
FROM ann a JOIN capd c USING (url)
"""
