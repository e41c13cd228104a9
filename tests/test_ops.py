"""Unit/integration tests for the webtext ops, checkpointing, multimodal
plumbing, offset tool, and similarity search."""

import os

import numpy as np
import pyarrow as pa
import pytest


def test_minhash_det():
    from osm_intersections_ray.functions.hashing import h60, minhash_signature

    s1 = minhash_signature(["a b c", "b c d"], 8)
    s2 = minhash_signature(["b c d", "a b c"], 8)
    assert s1 == s2
    assert all(0 <= v < (1 << 64) for v in s1)
    assert h60("0|a b c") in [None, h60("0|a b c")]  # deterministic

    # the scalar reference must agree with the vectorized batch kernel
    import pyarrow as pa

    from osm_intersections_ray.stages.dedup import (
        NUM_PERM, _PERM_A, _PERM_B, minhash_bands_batch, _shingle_hashes_per_doc,
    )

    text = "the quick brown fox jumps over the lazy dog again and again"
    shingles = [" ".join(text.split()[i:i + 3]) for i in range(len(text.split()) - 2)]
    sig_scalar = minhash_signature(shingles, NUM_PERM)
    import numpy as np

    sh = _shingle_hashes_per_doc([text])[0]
    v = sh[:, None] * _PERM_A[None, :] + _PERM_B[None, :]
    sig_vec = v.min(axis=0)
    assert [int(x) for x in sig_vec] == sig_scalar


def test_simhash_similarity():
    from osm_intersections_ray.functions.hashing import hamming64, simhash64

    a = simhash64("the quick brown fox jumps over the lazy dog".split())
    b = simhash64("the quick brown fox jumps over the lazy cat".split())
    c = simhash64("völlig anderes dokument mit anderen wörtern hier".split())
    assert hamming64(a, b) < hamming64(a, c)


def test_checkpoint_resume(ray_session, tmp_path):
    import ray.data as rd

    from osm_intersections_ray.state.checkpoint import (
        completed_partitions,
        read_partitioned,
        write_partitioned,
    )

    ds = rd.from_arrow(pa.table({
        "part": ["a"] * 5 + ["b"] * 3,
        "x": list(range(8)),
    }))
    out = str(tmp_path / "out")
    rep = write_partitioned(ds, out, "part")
    assert rep["partitions"] == {"a": 5, "b": 3}
    assert completed_partitions(out) == {"a", "b"}
    # rerun skips everything
    rep2 = write_partitioned(ds, out, "part")
    assert rep2["partitions"] == {} and sorted(rep2["skipped"]) == ["a", "b"]
    back = read_partitioned(out)
    assert back.count() == 8


def test_multimodal_plumbing(ray_session):
    from osm_intersections_ray.stages.multimodal import (
        AudioFrameSample,
        ImageDecode,
        fake_image_dataset,
    )

    ds = fake_image_dataset(20)
    out = ds.map_batches(ImageDecode, batch_format="pyarrow", batch_size=8,
                         concurrency=(1, 2)).take_all()
    assert len(out) == 20
    assert all(64 <= r["width"] <= 1024 and 0 <= r["mean_px"] < 256 for r in out)
    # real formats refuse loudly
    dec = ImageDecode()
    with pytest.raises(NotImplementedError):
        dec(pa.table({"image_id": pa.array([1], pa.int64()),
                      "image": pa.array([b"\x89PNG..."], pa.binary())}))
    aud = AudioFrameSample(every=10)
    t = aud(pa.table({"audio_id": pa.array([1], pa.int64()),
                      "audio": pa.array([b"FAKEAUD1" + (100).to_bytes(4, "little")],
                                        pa.binary())}))
    assert t["frame_idx"].to_pylist() == [list(range(0, 100, 10))]


def test_offset_walker(ray_session, fixtures_dir):
    import ray.data as rd

    from osm_intersections_ray.stages.offset import offset_queries

    ways = rd.read_parquet(os.path.join(fixtures_dir, "ways.parquet"))
    # Special Boulevard runs along lat 36.96 from lon -122.3100 to -122.3000;
    # start at its first node and walk east
    tbl = __import__("pyarrow.parquet", fromlist=["read_table"]).read_table(
        os.path.join(fixtures_dir, "ways.parquet"))
    import pyarrow.compute as pc

    row = tbl.filter(pc.equal(tbl["name"], "Special Boulevard")).to_pylist()[0]
    wid, first = row["way_id"], row["nodes"][0]
    res = offset_queries(ways, [
        {"way_id": wid, "node_id": first, "meters": 100.0},
        {"way_id": wid, "node_id": first, "meters": 1e7},   # off the end -> null
        {"way_id": wid, "node_id": row["nodes"][-1], "meters": -100.0},
    ]).take_all()
    assert res[0]["lat"] == pytest.approx(36.96, abs=1e-6)
    assert res[0]["lon"] > -122.3100 and res[0]["lon"] < -122.3000
    assert res[1]["lat"] is None
    assert res[2]["lon"] < -122.3000


def test_ann_recall(ray_session):
    """LSH-bucketed ANN finds the true top-1 for most queries on clustered
    data (approximate by design: same-bucket probing only)."""
    import ray
    import ray.data as rd

    from osm_intersections_ray.stages.similarity import (
        ann_bucketed,
        knn_brute,
        load_queries,
    )

    rng = np.random.default_rng(3)
    centers = rng.standard_normal((5, 32)) * 5
    vecs = np.vstack([c + rng.standard_normal((40, 32)) * 0.05 for c in centers])
    tbl = pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32())),
    })
    qref = ray.put(load_queries(tbl))
    ds = rd.from_arrow(tbl)
    brute = knn_brute(ds, qref)
    approx = ann_bucketed(rd.from_arrow(tbl), qref)
    b1 = {q: n for q, n, r in zip(brute["qid"], brute["nid"], brute["rk"]) if r == 1}
    a1 = {q: n for q, n, r in zip(approx["qid"], approx["nid"], approx["rk"]) if r == 1}
    hits = sum(1 for q in b1 if a1.get(q) == b1[q])
    assert hits >= len(b1) * 0.6


def test_knn_local_tie_break(ray_session):
    """More than TOP_K+1 tied similarities inside ONE batch must keep the
    lowest nids (oracle order: cos desc, nid asc) — argpartition-style local
    top-k drops an arbitrary tied subset.  Repro: zero query + many zero DB
    vectors in a single 40-row block."""
    import duckdb
    import ray
    import ray.data as rd

    from osm_intersections_ray.stages.similarity import knn_brute, load_queries

    rng = np.random.default_rng(11)
    vecs = rng.standard_normal((40, 8))
    vecs[0] = 0.0                    # qid 0 is a zero QUERY vector
    vecs[20:30] = 0.0                # ten tied zero DB vectors
    tbl = pa.table({
        "vec_id": pa.array(range(40), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32())),
    })
    qref = ray.put(load_queries(tbl))
    out = knn_brute(rd.from_arrow(tbl), qref)   # from_arrow = ONE block
    import tempfile, os
    import pyarrow.parquet as pq_

    from osm_intersections_ray.stages.similarity import knn_sql

    d = tempfile.mkdtemp()
    pq_.write_table(tbl, os.path.join(d, "embeddings.parquet"))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{d}/embeddings.parquet')")
    orc = con.sql(knn_sql()).df()
    e = out.sort_values(["qid", "rk"]).reset_index(drop=True)
    o = orc.sort_values(["qid", "rk"]).reset_index(drop=True)
    assert (e["nid"].to_numpy() == o["nid"].to_numpy()).all()


def test_ann_ivf_recall(ray_session):
    """IVF-flat ANN (k-means inverted lists, nprobe probing) finds the true
    top-1 for most queries on clustered data."""
    import ray
    import ray.data as rd

    from osm_intersections_ray.stages.similarity import (
        ann_ivf,
        knn_brute,
        load_queries,
    )

    rng = np.random.default_rng(7)
    centers = rng.standard_normal((5, 32)) * 5
    vecs = np.vstack([c + rng.standard_normal((40, 32)) * 0.05 for c in centers])
    tbl = pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32())),
    })
    qref = ray.put(load_queries(tbl))
    brute = knn_brute(rd.from_arrow(tbl), qref)
    approx = ann_ivf(rd.from_arrow(tbl), qref)
    b1 = {q: n for q, n, r in zip(brute["qid"], brute["nid"], brute["rk"]) if r == 1}
    a1 = {q: n for q, n, r in zip(approx["qid"], approx["nid"], approx["rk"]) if r == 1}
    hits = sum(1 for q in b1 if a1.get(q) == b1[q])
    assert hits >= len(b1) * 0.6


def test_text_kernels_roundtrip():
    from osm_intersections_ray.stages.text import (
        doc_stats_batch,
        fingerprint_batch,
        lang_id_batch,
    )

    b = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": ["the quick fox, and the dog!",
                           "der schnelle fuchs und der hund"]})
    st = doc_stats_batch(b)
    assert st["n_tokens"].to_pylist() == [6, 6]
    assert st["punct_cnt"].to_pylist() == [2, 0]
    lid = lang_id_batch(b)
    assert lid["lang_pred"].to_pylist() == ["en", "de"]
    fp = fingerprint_batch(b)
    assert len(fp["fp"][0].as_py()) == 32


def test_pages_byte_identical_extraction(ray_session, fixtures_dir):
    """input_hint invariant: byte-identical extracted text per url."""
    import os

    import ray.data as rd

    from osm_intersections_ray.stages.pages import Extractor

    ds = rd.read_parquet(os.path.join(fixtures_dir, "pages.parquet"))
    out = ds.map_batches(Extractor, batch_format="pyarrow", batch_size=256,
                         concurrency=(1, 2)).take_all()
    import pyarrow.parquet as pq

    truth = dict(zip(*[pq.read_table(os.path.join(fixtures_dir, "pages.parquet"),
                                     columns=["url", "text"])[c].to_pylist()
                       for c in ("url", "text")]))
    assert len(out) == len(truth)
    for r in out:
        assert r["text_extracted"] == truth[r["url"]]


def test_native_join_matches_broadcast(ray_session, fixtures_dir):
    """Ray's native Dataset.join variant produces the same (url, way_id)
    set as the engine's map-side broadcast cell join."""
    import os

    import ray.data as rd

    from osm_intersections_ray.stages.pages import pages_way_join, pages_way_join_native

    def p():
        return rd.read_parquet(os.path.join(fixtures_dir, "pages.parquet"))

    def w():
        return rd.read_parquet(os.path.join(fixtures_dir, "ways.parquet"))

    a = sorted((r["url"], r["way_id"]) for r in pages_way_join(p(), w()).take_all())
    b = sorted((r["url"], r["way_id"])
               for r in pages_way_join_native(p(), w(), num_partitions=4).take_all())
    assert a == b and len(a) > 0
    # third route: the sorted-block-refs sharded index (forced by a tiny
    # threshold) must produce the identical pair set, including any runs of
    # equal cellkeys that the distributed sort splits across block fences
    c = sorted((r["url"], r["way_id"])
               for r in pages_way_join(p(), w(), sharded_min=0).take_all())
    assert a == c


def test_extract_regex_edge_cases():
    """Engine Extractor and the DuckDB oracle regex must agree on
    multi-article html (non-greedy) and newline-containing bodies (dotall)."""
    import duckdb
    import pyarrow as pa

    from osm_intersections_ray.stages.pages import Extractor, extract_sql

    htmls = [
        b"<article>first</article><article>second</article>",
        b"<article>line one\nline two</article>",
        b"no article here",
        b"<article></article>",
    ]
    b = pa.table({"url": pa.array([f"u{i}" for i in range(len(htmls))]),
                  "html": pa.array(htmls, pa.binary())})
    eng = Extractor()(b).to_pandas().sort_values("url").reset_index(drop=True)
    con = duckdb.connect()
    con.register("pages_tbl", b)
    orc = (con.sql(extract_sql("pages_tbl")).df()
           .sort_values("url").reset_index(drop=True))
    assert eng["text_extracted"].tolist() == orc["text_extracted"].tolist()
    assert eng["text_extracted"][0] == "first"          # non-greedy
    assert eng["text_extracted"][1] == "line one\nline two"  # dotall


def test_jaccard_no_candidates(ray_session):
    """Distributed Jaccard verification short-circuits cleanly when LSH
    yields zero candidate pairs (empty lazy datasets have no join schema)."""
    import ray.data as rd

    from osm_intersections_ray.stages import dedup

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "text": pa.array([f"unique doc {i} words {i*7} {i*13} {i*17}"
                          for i in range(5)]),
    })
    out = dedup.jaccard_verified_pairs(rd.from_arrow(tbl))
    assert out.count() == 0


def test_cover_explode_vectorized_parity():
    """The closed-form vectorized cover (`_cover_explode_index`) yields the
    same per-way CELL SET as the recursive compaction reference
    (`_cover_explode_index_ref`) on random and edge-case bboxes — including
    sub-tile slivers, antimeridian-adjacent clamps, and bounds landing
    exactly on res-14 block edges."""
    import numpy as np

    from osm_intersections_ray.stages.pages import (
        _cover_explode_index, _cover_explode_index_ref)

    rng = np.random.default_rng(7)
    lat0 = rng.uniform(-89.9, 89.5, 60)
    lon0 = rng.uniform(-179.9, 179.5, 60)
    rows = [(a, o, a + dl, o + dn)
            for a, o, dl, dn in zip(lat0, lon0,
                                    rng.uniform(0, 0.3, 60),
                                    rng.uniform(0, 0.3, 60))]
    # edge cases: degenerate point bbox, bounds on exact res-14 tile edges,
    # high-latitude clamp, bbox entirely past the pole clamp
    rows += [
        (37.0, -122.0, 37.0, -122.0),
        (-90.0 + 180.0 / (1 << 14) * 3, -180.0 + 360.0 / (1 << 14) * 5,
         -90.0 + 180.0 / (1 << 14) * 7, -180.0 + 360.0 / (1 << 14) * 9),
        (89.9, 179.9, 95.0, 185.0),
        (91.0, 181.0, 95.0, 185.0),
    ]
    import pyarrow as pa

    b = pa.table({
        "minlat": pa.array([r[0] for r in rows], pa.float64()),
        "minlon": pa.array([r[1] for r in rows], pa.float64()),
        "maxlat": pa.array([r[2] for r in rows], pa.float64()),
        "maxlon": pa.array([r[3] for r in rows], pa.float64()),
    })
    vi, vc = _cover_explode_index(b)
    ri, rc = _cover_explode_index_ref(b)
    vec = {}
    for i, c in zip(vi.tolist(), vc.tolist()):
        vec.setdefault(i, set()).add(c)
    ref = {}
    for i, c in zip(ri, rc):
        ref.setdefault(i, set()).add(c)
    assert vec == ref
    # and within a way the cover cells are distinct (no double emission)
    assert len(vi) == sum(len(s) for s in vec.values())


def test_real_ppm_wav_decode():
    """The pure-Python netpbm and RIFF/WAVE decoders handle the real specs:
    header comments and arbitrary whitespace (PPM), P5 single-channel,
    chunk-list walking past extra/odd-sized chunks (WAV)."""
    import numpy as np
    import struct

    from osm_intersections_ray.stages.multimodal import (
        decode_ppm, decode_wav, encode_ppm, encode_wav_pcm16)

    # round-trip P6
    px = (np.arange(4 * 2 * 3) % 256).astype(np.uint8)
    w, h, c, s = decode_ppm(encode_ppm(4, 2, px))
    assert (w, h, c, s) == (4, 2, 3, int(px.sum()))
    # P5 grayscale
    g = np.full(6, 9, np.uint8)
    assert decode_ppm(encode_ppm(3, 2, g)) == (3, 2, 1, 54)
    # hand-written header: comments between tokens, multi-space/CR whitespace
    raster = bytes(range(2 * 1 * 3))
    blob = b"P6 # inline comment\n# full line\n 2\t1 # dims\n255\n" + raster
    assert decode_ppm(blob) == (2, 1, 3, sum(raster))
    # WAV: encoder inserts a LIST chunk before data; add an odd-sized chunk
    # too (word-aligned padding) by splicing
    samples = np.array([100, -100, 2000, -2000], np.int16)
    blob = encode_wav_pcm16(16000, 2, samples)
    rate, ch, frames, sabs = decode_wav(blob)
    assert (rate, ch, frames, sabs) == (16000, 2, 2, 4200)
    # splice an odd-length junk chunk right after WAVE; decoder must skip it
    junk = b"junk" + struct.pack("<I", 3) + b"abc" + b"\x00"
    spliced = blob[:12] + junk + blob[12:]
    spliced = spliced[:4] + struct.pack("<I", len(spliced) - 8) + spliced[8:]
    assert decode_wav(spliced) == (16000, 2, 2, 4200)


def test_media_decode_matches_generator():
    """End-to-end: synthesize deterministic media from doc_ids, decode with
    the REAL decoders, check the closed-form invariants the SQL oracle uses."""
    from osm_intersections_ray.stages.multimodal import (
        PPMDecode, WavDecode, ppm_media_batch, wav_media_batch)

    ids = pa.table({"doc_id": pa.array([0, 1, 7, 123, 4567], pa.int64())})
    img = PPMDecode()(ppm_media_batch(ids))
    for r in img.to_pylist():
        d = r["doc_id"]
        assert r["width"] == 8 + d % 24 and r["height"] == 8 + (d // 7) % 16
        npx = r["width"] * r["height"] * 3
        seed = (d * 2654435761) % 256
        assert r["sum_px"] == int(((seed + np.arange(npx)) % 256).sum())
    aud = WavDecode()(wav_media_batch(ids))
    for r in aud.to_pylist():
        d = r["doc_id"]
        assert r["sample_rate"] == 8000 + (d % 4) * 4000
        assert r["n_channels"] == 1 + d % 2
        assert r["n_frames"] == 256 + d % 512
        assert r["n_sampled"] == (r["n_frames"] + 99) // 100


def test_hash_min_components(ray_session):
    """Distributed CC kernel: long chain (multi-round convergence), clique,
    disjoint pair, and an edge list whose orientations disagree with the
    min direction."""
    import pyarrow as pa
    import ray.data as rd

    from osm_intersections_ray.stages.dedup import hash_min_components

    # chain 10-11-...-17 (diameter 7, forces >2 rounds), clique {1,2,3},
    # pair {100, 5}, reversed orientation edge (40, 30)
    chain = [(i, i + 1) for i in range(10, 17)]
    edges = chain + [(1, 2), (2, 3), (1, 3), (100, 5), (40, 30)]
    tbl = pa.table({"u": pa.array([e[0] for e in edges], pa.int64()),
                    "v": pa.array([e[1] for e in edges], pa.int64())})
    out = hash_min_components(rd.from_arrow(tbl)).to_pandas()
    got = dict(zip(out["node"], out["label"]))
    # brute-force union-find
    parent = {}
    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x
    for u, v in edges:
        parent[find(u)] = find(v)
    want = {n: min(m for m in parent if find(m) == find(n)) for n in parent}
    assert got == want


def test_hash_min_components_empty(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from osm_intersections_ray.stages.dedup import hash_min_components

    tbl = pa.table({"u": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    assert hash_min_components(rd.from_arrow(tbl)).count() == 0


def test_png_codec_roundtrip_and_hostiles():
    """REAL PNG path: encode->decode identity over rasters tall enough to
    exercise ALL FIVE scanline filters; corrupt-CRC / truncated / non-PNG
    payloads rejected; unsupported color types refused, not mis-decoded."""
    import numpy as np
    import pytest as _pt

    from osm_intersections_ray.stages import multimodal as m

    rng = np.random.default_rng(11)
    for w, h in [(1, 7), (8, 8), (23, 13), (2, 5)]:
        px = rng.integers(0, 256, size=w * h * 3).astype(np.uint8)
        blob = m.encode_png(w, h, px)
        dw, dh, dc, ds = m.decode_png(blob)
        assert (dw, dh, dc) == (w, h, 3)
        assert ds == int(px.astype(np.int64).sum())
    blob = m.encode_png(4, 6, rng.integers(0, 256, 72).astype(np.uint8))
    bad = bytearray(blob)
    bad[40] ^= 0xFF  # flip a byte inside IDAT -> CRC must catch it
    with _pt.raises(ValueError):
        m.decode_png(bytes(bad))
    with _pt.raises(ValueError):
        m.decode_png(b"NOTAPNG" + blob)
    # 16-bit / grayscale IHDR refused
    import struct as _s
    import zlib as _z
    ihdr = _s.pack(">IIBBBBB", 2, 2, 16, 0, 0, 0, 0)
    hostile = (b"\x89PNG\r\n\x1a\n" + _s.pack(">I", len(ihdr)) + b"IHDR" + ihdr
               + _s.pack(">I", _z.crc32(b"IHDR" + ihdr) & 0xFFFFFFFF))
    with _pt.raises(NotImplementedError):
        m.decode_png(hostile)

    def chunk(tag, data):
        return (_s.pack(">I", len(data)) + tag + data
                + _s.pack(">I", _z.crc32(tag + data) & 0xFFFFFFFF))

    # IDAT before IHDR (legal-CRC chunk-order attack) and missing IHDR
    with _pt.raises(ValueError):
        m.decode_png(b"\x89PNG\r\n\x1a\n" + chunk(b"IDAT", b"x")
                     + chunk(b"IEND", b""))
    # CRC-consistent but invalid filter byte (5) must error, not mis-decode
    ihdr1 = _s.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 0)
    raw = b"\x05\x01\x02\x03"  # filter 5 + one RGB pixel
    bad_filter = (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr1)
                  + chunk(b"IDAT", _z.compress(raw)) + chunk(b"IEND", b""))
    with _pt.raises(ValueError):
        m.decode_png(bad_filter)


def test_png_media_matches_generator():
    """The synthesized PNG decodes back to the generator's closed-form
    raster (pixel[i] = (seed+i) % 256) — pins encoder/oracle agreement."""
    import numpy as np
    import pyarrow as pa

    from osm_intersections_ray.stages import multimodal as m

    ids = [0, 1, 5, 7, 104, 499]
    out = m.png_media_batch(pa.table({"doc_id": pa.array(ids, pa.int64())}))
    for d, blob in zip(ids, out["image"].to_pylist()):
        w, h, c, s = m.decode_png(blob)
        ew, eh = 8 + d % 21, 8 + (d // 5) % 13
        seed = (d * 1103515245) % 256
        want = int(((seed + np.arange(ew * eh * 3, dtype=np.int64)) % 256).sum())
        assert (w, h, c, s) == (ew, eh, 3, want)


def test_warc_roundtrip_and_hostiles():
    """WARC.gz source: record encode -> multi-member parse identity (incl.
    empty payloads, CRLF and 8-bit bytes inside payloads, microsecond
    timestamps); malformed record starts rejected."""
    import pytest as _pt

    from osm_intersections_ray.sources import warc as w

    recs = [
        ("https://a.example/x", 1_706_000_000_123_456, b"<html>\xc3\xa9</html>"),
        ("https://b.example/y", 5, b""),
        ("https://c.example/z", 0, b"a\r\n\r\nb" * 10),  # separator INSIDE payload
    ]
    blob = b"".join(w.encode_warc_record(*r) for r in recs)
    parsed = list(w.parse_warc_members(blob))
    assert [p[:3] for p in parsed] == recs
    # the 4th member is the raw header dict (quarantine reads the digest off
    # it); every record carries the mandatory fields
    for _, _, payload, hdrs in parsed:
        assert hdrs["content-length"] == str(len(payload))
        assert "warc-target-uri" in hdrs and "warc-date" in hdrs
    # already-inflated stream parses too (Ray auto-decompresses .gz reads)
    import gzip as _g
    assert [p[:3] for p in w.parse_warc_members(_g.decompress(blob))] == recs
    with _pt.raises(ValueError):
        list(w.parse_warc_members(b"NOT A WARC"))


def test_hash_min_components_long_chain(ray_session):
    """Pointer jumping: a diameter-200 chain converges (O(log d) rounds,
    far under the 64-round cap) with every node labeled by the chain head."""
    import pyarrow as pa
    import ray.data as rd

    from osm_intersections_ray.stages.dedup import hash_min_components

    edges = [(1000 + i, 1000 + i + 1) for i in range(200)]
    tbl = pa.table({"u": pa.array([e[0] for e in edges], pa.int64()),
                    "v": pa.array([e[1] for e in edges], pa.int64())})
    out = hash_min_components(rd.from_arrow(tbl)).to_pandas()
    assert len(out) == 201
    assert (out["label"] == 1000).all()


def test_popcount_swar():
    from osm_intersections_ray.stages.dedup import _popcount_u64

    rng = np.random.default_rng(7)
    vals = rng.integers(0, 2**63, size=2000, dtype=np.int64).astype(np.uint64)
    vals[:4] = [0, 1, 2**63, 2**64 - 1]
    got = _popcount_u64(vals)
    want = np.array([int(v).bit_count() for v in vals], dtype=np.int64)
    assert (got == want).all()


def test_simhash_band_pigeonhole(ray_session):
    """simhash_near_pairs == brute-force all-pairs hamming <= 3 over the
    SAME signatures: the 4x15-bit band join must find every qualifying pair
    (pigeonhole) and the popcount verify must drop every non-qualifying
    bucket collision."""
    import pyarrow.parquet as pq

    import ray.data as rd

    from osm_intersections_ray.stages import dedup

    tbl = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                        columns=["doc_id", "text"])
    aug = dedup.augment_near_batch(tbl)
    sigs = dedup.simhash_batch(aug)
    ids = np.asarray(sigs["doc_id"].to_numpy())
    s = np.asarray(sigs["simhash"].to_numpy()).astype(np.uint64)
    ham = dedup._popcount_u64(np.bitwise_xor(s[:, None], s[None, :]).ravel()
                              ).reshape(len(ids), len(ids))
    ii, jj = np.nonzero(np.triu(ham <= dedup.SIMHASH_HAM_MAX, k=1))
    lo = np.minimum(ids[ii], ids[jj])
    hi = np.maximum(ids[ii], ids[jj])
    want = {(int(a), int(b), int(ham[i, j]))
            for a, b, i, j in zip(lo, hi, ii, jj)}
    out = dedup.simhash_near_pairs(rd.from_arrow(tbl)).to_pandas()
    got = {(int(r.doc_a), int(r.doc_b), int(r.hamming)) for r in out.itertuples()}
    assert want, "fixture produced no near pairs; test is vacuous"
    assert got == want


def test_hll_estimate_accuracy(ray_session):
    """The HLL estimate tracks the TRUE distinct-shingle count per lang
    within the m=256 error regime (~6.5% relative; assert a 3-sigma 20%)."""
    import pyarrow.parquet as pq

    import ray.data as rd

    from osm_intersections_ray.stages import text
    from osm_intersections_ray.stages.dedup import _shingle_hashes_per_doc

    tbl = pq.read_table("/root/testdata/sf0.01/documents.parquet",
                        columns=["text", "lang"])
    exact: dict = {}
    for lang, t in zip(tbl["lang"].to_pylist(), tbl["text"].to_pylist()):
        exact.setdefault(lang, set())
        for h in _shingle_hashes_per_doc([t])[0]:
            exact[lang].add(int(h))
    out = text.hll_distinct_shingles(rd.from_arrow(tbl)).to_pandas()
    assert set(out["lang"]) == set(exact)
    for r in out.itertuples():
        true_n = len(exact[r.lang])
        assert true_n > 2.5 * text.HLL_M / 4, "fixture left raw-HLL regime"
        assert abs(r.est - true_n) <= 0.20 * true_n, (r.lang, r.est, true_n)


def test_decontaminate_flags_twins(ray_session):
    """Non-vacuity + semantics: every near-dup twin of a benchmark doc with
    >= DECON_K tokens is contaminated, and its hit count covers the shared
    prefix; docs sharing no 8-gram with the suite stay clean."""
    import pyarrow.parquet as pq

    import ray.data as rd

    from osm_intersections_ray.stages import dedup
    from osm_intersections_ray.stages.text import ascii_tokens

    tbl = pq.read_table("/root/testdata/sf0.01/documents.parquet",
                        columns=["doc_id", "text"])
    out = dedup.decontaminate(rd.from_arrow(tbl)).to_pandas().set_index("doc_id")
    ids = tbl["doc_id"].to_pylist()
    texts = dict(zip(ids, tbl["text"].to_pylist()))
    twin_of_bench = [i + 1_000_000 for i in ids
                     if i % dedup.NEAR_DUP_MOD == 0 and i % dedup.DECON_MOD == 0
                     and len(ascii_tokens(texts[i])) >= dedup.DECON_K]
    assert twin_of_bench, "fixture produced no contaminated twins; vacuous"
    for t in twin_of_bench:
        r = out.loc[t]
        assert r["contaminated"] == 1 and r["n_hits"] >= 1, (t, dict(r))
    # suite docs themselves are excluded from the corpus output
    assert not any(i % dedup.DECON_MOD == 0 and i < 1_000_000 for i in out.index)


def test_pack_sequences_prefix_sum(ray_session):
    """The distributed exclusive scan equals the single-process scan: offsets
    are the exact cumulative token counts in doc_id order, chunks partition
    the token stream, straddles mark boundary crossings."""
    import numpy as np
    import pyarrow.parquet as pq

    import ray.data as rd

    from osm_intersections_ray.stages import text
    from osm_intersections_ray.stages.text import PACK_BUDGET, _tokens

    tbl = pq.read_table("/root/testdata/sf0.01/documents.parquet",
                        columns=["doc_id", "text"])
    out = (text.pack_sequences(rd.from_arrow(tbl)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    order = sorted(zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()))
    n = np.array([len(_tokens(t)) for _, t in order], dtype=np.int64)
    off = np.concatenate([[0], np.cumsum(n[:-1])])
    assert (out["doc_id"].to_numpy() == [i for i, _ in order]).all()
    assert (out["n_tokens"].to_numpy() == n).all()
    assert (out["tok_offset"].to_numpy() == off).all()
    assert (out["chunk_id"].to_numpy() == off // PACK_BUDGET).all()
    want_straddle = ((n > 0) & ((off + np.maximum(n, 1) - 1) // PACK_BUDGET
                                != off // PACK_BUDGET)).astype(np.int64)
    assert (out["straddle"].to_numpy() == want_straddle).all()
    assert out["straddle"].sum() > 0, "fixture crosses no chunk boundary; vacuous"


def test_dup_ngram_stats_exact(ray_session):
    """Distributed corpus-wide dup-gram stats == a single-process
    recomputation over the augmented corpus, and every near-dup twin (plus
    its original's shared prefix) shows duplicated grams."""
    import collections

    import pyarrow.parquet as pq

    import ray.data as rd

    from osm_intersections_ray.stages import dedup

    tbl = pq.read_table("/root/testdata/sf0.01/documents.parquet",
                        columns=["doc_id", "text"])
    out = (dedup.dup_ngram_stats(rd.from_arrow(tbl)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))

    aug = dedup.augment_near_batch(tbl)
    ids = aug["doc_id"].to_pylist()
    grams = dedup._kgram_hashes_per_doc(aug["text"].to_pylist(),
                                        dedup.DUPGRAM_K)
    total = collections.Counter()
    for g in grams:
        total.update(g.tolist())
    want = {}
    for i, g in zip(ids, grams):
        if g.size == 0:
            continue
        n = int(g.size)
        d = int(sum(1 for h in g.tolist() if total[h] > 1))
        want[i] = (n, d, d * 1000 // n)
    got = {int(r.doc_id): (int(r.n_grams), int(r.n_dup_grams), int(r.dup_pm))
           for r in out.itertuples()}
    assert got == want
    twins = [i for i in got if i >= 1_000_000]
    assert twins and all(got[t][1] > 0 for t in twins), "twins must show dups"
    assert any(v[1] == 0 for v in got.values()), "some doc must be clean"


def test_embedding_dup_clusters_union_find(ray_session):
    """Cluster labels == union-find over the verified embedding near-dup
    pair graph (min vec_id per component)."""
    import pyarrow.parquet as pq

    import ray.data as rd

    from osm_intersections_ray.stages import similarity

    tbl = pq.read_table("/root/testdata/sf0.01/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    pairs = (similarity.near_dup_pairs(rd.from_arrow(tbl)).to_pandas()
             .sort_values(["vec_a", "vec_b"]))
    assert len(pairs) > 0, "fixture produced no near-dup pairs; vacuous"
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["vec_a"], pairs["vec_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = {x: find(x) for x in parent}
    got_df = similarity.embedding_dup_clusters(rd.from_arrow(tbl)).to_pandas()
    got = dict(zip(got_df["vec_id"].astype(int), got_df["cluster_id"].astype(int)))
    assert got == want
    assert any(k != v for k, v in got.items()), "no non-trivial cluster"


def test_shipping_priority_semantics(ray_session):
    """Tiny hostile Q3: strict cutoff boundaries on BOTH date filters,
    revenue ties broken by orderkey asc, segment filter applied."""
    import ray.data as rd

    from osm_intersections_ray.stages import relational as rel

    C = rel.Q3_CUTOFF_US
    us = pa.timestamp("us")
    cust = pa.table({"c_custkey": pa.array([1, 2, 3], pa.int64()),
                     "c_mktsegment": [rel.Q3_SEGMENT, "OTHER", rel.Q3_SEGMENT]})
    orders = pa.table({
        "o_orderkey": pa.array([10, 11, 12, 13, 14], pa.int64()),
        "o_custkey": pa.array([1, 1, 2, 3, 3], pa.int64()),
        # 13 sits EXACTLY at the cutoff -> excluded (strict <)
        "o_orderdate": pa.array([C - 10, C - 10, C - 10, C, C - 10], us),
        "o_orderpriority": ["1-URGENT", "2-HIGH", "3-LOW", "4-X", "5-Y"],
    })
    lineitem = pa.table({
        "l_orderkey": pa.array([10, 10, 11, 12, 13, 14, 14], pa.int64()),
        # one shipment of order 10 is exactly at the cutoff -> excluded
        "l_shipdate": pa.array([C + 1, C, C + 1, C + 1, C + 1, C + 1, C + 1], us),
        "l_extendedprice": pa.array([100.0, 999.0, 100.0, 50.0, 50.0, 30.0, 70.0]),
        "l_discount": pa.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
    })
    # both routes must agree: broadcast semi-join (default at this scale)
    # and the above-crossover hash-join path (forced via broadcast_cust_max=0)
    for bmax in (rel.BROADCAST_CUST_MAX, 0):
        out = rel.shipping_priority(rd.from_arrow(cust), rd.from_arrow(orders),
                                    rd.from_arrow(lineitem),
                                    broadcast_cust_max=bmax)
        # order 12: wrong segment; order 13: orderdate at cutoff; 10 and 11
        # tie at 10000 cents -> orderkey asc; 14 sums two lines
        assert out["o_orderkey"].tolist() == [10, 11, 14]
        assert out["revenue_cents"].tolist() == [10000, 10000, 10000]
        assert out["rk"].tolist() == [1, 2, 3]
        assert out["o_orderpriority"].tolist() == ["1-URGENT", "2-HIGH", "5-Y"]


def test_shuffle_assignment_permutation(ray_session):
    """Shuffle assignment is a permutation: every doc exactly once, pos is
    1..len(shard) per shard, order within a shard follows (hkey, doc_id),
    and the md5 key spreads docs across all shards."""
    import pyarrow.parquet as pq

    import ray.data as rd

    from osm_intersections_ray.functions.hashing import h60
    from osm_intersections_ray.stages import text

    tbl = pq.read_table("/root/testdata/sf0.01/documents.parquet",
                        columns=["doc_id"])
    out = text.shuffle_assignment(rd.from_arrow(tbl)).to_pandas()
    ids = sorted(tbl["doc_id"].to_pylist())
    assert sorted(out["doc_id"]) == ids
    assert set(out["shard"]) == set(range(text.SHUFFLE_N_SHARDS))
    for shard, g in out.groupby("shard"):
        g = g.sort_values("pos")
        assert g["pos"].tolist() == list(range(1, len(g) + 1))
        want = sorted(g["doc_id"], key=lambda i: (h60(str(i)), i))
        assert g["doc_id"].tolist() == want
        assert all(h60(str(i)) % text.SHUFFLE_N_SHARDS == shard
                   for i in g["doc_id"])


def test_cms_one_sided_and_histogram_mass(ray_session):
    """CMS estimates are one-sided (est >= exact, both integer-exact
    aggregates) and the Zipf histogram partitions the vocabulary: bucket
    masses sum to the exact total occurrence / distinct-token counts."""
    import collections

    import pyarrow.parquet as pq

    import ray.data as rd

    from osm_intersections_ray.stages import text

    tbl = pq.read_table("/root/testdata/sf0.01/documents.parquet",
                        columns=["text"])
    cms = text.cms_token_counts(rd.from_arrow(tbl)).to_pandas()
    assert set(cms["token"]) == set(text.CMS_PROBES)
    assert (cms["est"] >= cms["exact"]).all()
    present = cms[cms["token"] != "zzz-absent-token"]
    assert (present["exact"] > 0).all(), "probe words missing from fixture"
    cnt = collections.Counter()
    for t in tbl["text"].to_pylist():
        cnt.update(text._tokens(t))
    exact_map = dict(zip(cms["token"], cms["exact"]))
    for p in text.CMS_PROBES:
        assert exact_map[p] == cnt.get(p, 0)

    hist = text.token_freq_histogram(rd.from_arrow(tbl)).to_pandas()
    assert hist["n_occurrences"].sum() == sum(cnt.values())
    assert hist["n_tokens"].sum() == len(cnt)
    for r in hist.itertuples():
        lo, hi = 2 ** int(r.bucket), 2 ** (int(r.bucket) + 1)
        want = [c for c in cnt.values() if lo <= c < hi]
        assert r.n_tokens == len(want) and r.n_occurrences == sum(want)


def test_retention_cohorts_exact(ray_session):
    """Cohort matrix == single-process recomputation: first-activity day per
    user, distinct active days, offset counts; total day-0 users == distinct
    users."""
    import collections

    import pyarrow.parquet as pq

    import ray.data as rd

    from osm_intersections_ray.stages import events

    tbl = pq.read_table("/root/testdata/sf0.01/events.parquet",
                        columns=["user_id", "ts"])
    out = events.retention_cohorts(rd.from_arrow(tbl)).to_pandas()
    days = collections.defaultdict(set)
    for u, t in zip(tbl["user_id"].to_pylist(), tbl["ts"].to_pylist()):
        days[u].add(int(t.timestamp() * 1_000_000) // events.DAY_US)
    want = collections.Counter()
    for u, ds_ in days.items():
        c = min(ds_)
        for d in ds_:
            want[(c, d - c)] += 1
    got = {(int(r.cohort_day), int(r.day_offset)): int(r.n_users)
           for r in out.itertuples()}
    assert got == dict(want)
    day0 = out[out["day_offset"] == 0]["n_users"].sum()
    assert day0 == len(days)
    assert (out["day_offset"] > 0).any(), "no retention beyond day 0; vacuous"


def test_clean_corpus_composition(ray_session):
    """clean_corpus == set algebra over its three independently-verified
    legs: corpus ids minus contaminated (decontaminate) minus near-dedup
    losers (jaccard doc_b) minus below-median quality — and every criterion
    removes at least one doc (non-vacuity)."""
    import pyarrow.parquet as pq

    import ray.data as rd

    from osm_intersections_ray.pipelines.corpus_clean import clean_corpus
    from osm_intersections_ray.stages import dedup
    from osm_intersections_ray.stages.text import (
        QUALITY_FILTER_PCT, quality_score_batch)

    tbl = pq.read_table("/root/testdata/sf0.01/documents.parquet",
                        columns=["doc_id", "text", "lang"])
    got = set(clean_corpus(rd.from_arrow(tbl)).to_pandas()["doc_id"])

    decon = dedup.decontaminate(rd.from_arrow(tbl)).to_pandas()
    contaminated = set(decon[decon["contaminated"] == 1]["doc_id"])
    corpus_ids = set(decon["doc_id"])  # same corpus definition
    pairs = dedup.jaccard_verified_pairs(rd.from_arrow(tbl)).to_pandas()
    losers = set(pairs["doc_b"])

    # per-lang medians over ORIGINAL docs + corpus quality, in-process
    q_orig = quality_score_batch(tbl)["quality"].to_numpy()
    import numpy as np
    import pandas as pd

    df = pd.DataFrame({"lang": tbl["lang"].to_pylist(), "q": q_orig})
    cuts = {}
    for lang, g in df.groupby("lang"):
        v = np.sort(g["q"].to_numpy())
        cuts[lang] = int(v[int(np.searchsorted(
            np.arange(1, len(v) + 1) * 100,
            QUALITY_FILTER_PCT * len(v), side="left"))])
    aug_t, aug_l = {}, {}
    for i, t, lg in zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist(),
                        tbl["lang"].to_pylist()):
        aug_t[i], aug_l[i] = t, lg
        if i % dedup.NEAR_DUP_MOD == 0:
            aug_t[i + 1_000_000] = t + dedup.NEAR_DUP_SUFFIX
            aug_l[i + 1_000_000] = lg
    qmap = {}
    ids = sorted(corpus_ids)
    qv = quality_score_batch(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array([aug_t[i] for i in ids], pa.string()),
    }))["quality"].to_numpy()
    qmap = dict(zip(ids, qv))
    low_q = {i for i in corpus_ids if qmap[i] < cuts[aug_l[i]]}
    want = corpus_ids - contaminated - losers - low_q
    assert got == want
    assert contaminated & corpus_ids, "vacuous: nothing contaminated"
    assert losers & corpus_ids, "vacuous: no near-dup losers"
    assert low_q - contaminated - losers, "vacuous: quality removes nothing"


def test_cap_join_partitions(ray_session):
    """Join partition counts clamp to the cluster CPU count: Ray's hash
    join wedges when its aggregator pool reserves more CPUs than exist
    (observed live: num_partitions=32 on a 2-CPU cluster, zero blocks for
    50+ minutes)."""
    import ray

    from osm_intersections_ray.stages.common import cap_join_partitions

    cpus = int(ray.cluster_resources()["CPU"])
    assert cap_join_partitions(32) == min(32, max(2, cpus))
    assert cap_join_partitions(2) == 2


def test_graph_pagerank_matches_numpy_reference(ray_session):
    """Distributed join-free PageRank == an independent single-process numpy
    power iteration over the same derived edge set (non-contiguous doc_ids
    exercise the searchsorted rank-row mapping)."""
    import numpy as np
    import pyarrow as pa

    import ray.data as rd

    from osm_intersections_ray.functions.hashing import h60
    from osm_intersections_ray.stages import graph

    ids = np.array(sorted({(i * 7) % 400 for i in range(301)}), dtype=np.int64)
    n = len(ids)
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(ids)})).repartition(5)
    out = graph.graph_pagerank(ds)

    # reference: dense power iteration keyed by doc_id value
    pos = {int(d): k for k, d in enumerate(ids)}
    edges = []
    for d in ids:
        dsts = [h60(f"link|{d}|{j}") % n for j in range(graph.PR_OUTDEG)]
        dsts = [t for t in dsts if t != d]
        for t in dsts:
            edges.append((int(d), int(t), len(dsts)))
    pr = {int(d): graph.PR_R0 for d in ids}
    for _ in range(graph.PR_ITERS):
        inc = {int(d): 0 for d in ids}
        for s, t, deg in edges:
            if t in inc:  # derived dst is mod n over VALUE space; ids here
                inc[t] += pr[s] // deg
        pr = {d: graph.PR_BASE + (85 * v) // 100 for d, v in inc.items()}
    ref = sorted(pr.items(), key=lambda kv: (-kv[1], kv[0]))[: graph.PR_TOP_K]
    assert list(out["doc_id"]) == [d for d, _ in ref]
    assert list(out["pr"]) == [v for _, v in ref]
    assert list(out["rk"]) == list(range(1, len(ref) + 1))


def test_way_l1_lengths_degenerate_ways(ray_session):
    """The reduceat segment-sum handles 0/1-point ways and batch boundaries
    exactly like a per-way scalar loop."""
    import numpy as np
    import pyarrow as pa

    import ray.data as rd

    from osm_intersections_ray.stages.queries_spatial import way_l1_lengths

    lats = [[1.0, 1.000002, 1.000001], [2.0], [], [3.0, 3.0000005],
            [4.0, 4.000001]]
    lons = [[5.0, 5.000001, 5.000004], [6.0], [], [7.0, 7.0000004],
            [8.0, 8.000002]]
    county = ["A", "A", "B", "B", "B"]
    tbl = pa.table({
        "county": pa.array(county),
        "tagged": pa.array([True] * 5),
        "lats": pa.array(lats, pa.list_(pa.float64())),
        "lons": pa.array(lons, pa.list_(pa.float64())),
    })
    out = way_l1_lengths(rd.from_arrow(tbl).repartition(3)).to_pandas()

    def fix6(x):
        import math
        return math.floor(x * 1e6 + 0.5)

    ref = {}
    for c, la, lo in zip(county, lats, lons):
        l1 = sum(abs(fix6(la[i + 1]) - fix6(la[i]))
                 + abs(fix6(lo[i + 1]) - fix6(lo[i]))
                 for i in range(len(la) - 1))
        n, tot, mx = ref.get(c, (0, 0, 0))
        ref[c] = (n + 1, tot + l1, max(mx, l1))
    got = {r.county: (r.n_ways, r.total_l1_udeg, r.max_l1_udeg)
           for r in out.itertuples()}
    assert got == ref


def test_late_shipment_routes_equal(ray_session):
    """Broadcast semi-join route == hash-join route on a table with orphan
    lineitems, lineitem-less orders, boundary-exact (NOT late) shipments,
    and multi-late-item orders (EXISTS dedup)."""
    import numpy as np
    import pyarrow as pa

    import ray.data as rd

    from osm_intersections_ray.stages import relational

    D = 86_400 * 1_000_000
    base = 1_750_000_000_000_000
    orders = pa.table({
        "o_orderkey": pa.array([1, 2, 3, 4], pa.int64()),
        "o_orderdate": pa.array(
            np.array([base] * 4, dtype="datetime64[us]")),
        "o_orderpriority": pa.array(["1-URGENT", "2-HIGH", "1-URGENT",
                                     "3-MEDIUM"]),
    })
    cutoff = relational.LATE_SHIP_DAYS * D
    li = pa.table({
        "l_orderkey": pa.array([1, 1, 1, 2, 3, 99], pa.int64()),
        "l_shipdate": pa.array(np.array([
            base + cutoff + D,      # late
            base + cutoff + 2 * D,  # late again (same order: counts once)
            base,                   # on time
            base + cutoff,          # boundary: NOT late (strict >)
            base + cutoff + D,      # late
            base + cutoff + 9 * D,  # orphan key: ignored
        ], dtype="datetime64[us]")),
    })
    # order 4 has no lineitems at all
    expect = {"1-URGENT": 2}

    for bmax in (10**9, 0):
        out = relational.late_shipment_priority(
            rd.from_arrow(orders).repartition(2),
            rd.from_arrow(li).repartition(3),
            broadcast_orders_max=bmax).to_pandas()
        got = dict(zip(out["o_orderpriority"], out["n_late"]))
        assert got == expect, (bmax, got)


def test_collocations_routes_equal(ray_session):
    """Broadcast-vocab route == double-hash-join route, including the
    doc-last sentinel bookkeeping (unigram totals must count final tokens)."""
    import pyarrow as pa

    import ray.data as rd

    from osm_intersections_ray.stages.text import collocations

    docs = ["a b a b c", "b c b c", "a b", "c", "", "b c a b"]
    tbl = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                    "text": pa.array(docs)})
    a = collocations(rd.from_arrow(tbl).repartition(3),
                     vocab_broadcast_max=10**9)
    b = collocations(rd.from_arrow(tbl).repartition(3),
                     vocab_broadcast_max=0)
    pd_a = a.sort_values(["w1", "w2"]).reset_index(drop=True)
    pd_b = b.sort_values(["w1", "w2"]).reset_index(drop=True)
    assert pd_a.equals(pd_b)
    # unigram sanity on a hand-countable corpus: n('b') = 7, n('c') = 5
    row = pd_a[(pd_a.w1 == "b") & (pd_a.w2 == "c")]
    assert not row.empty and int(row.n_x.iloc[0]) == 7 \
        and int(row.n_y.iloc[0]) == 5


def test_way_components_cross_batch_chain(ray_session):
    """A single chain component split across many batches must merge through
    the global contraction rounds; plus isolated ways as size-1 components."""
    import pyarrow as pa

    import ray.data as rd

    from osm_intersections_ray.stages.graph import way_components

    # chain: way i shares node 1000+i with way i+1  (component of 30, min=0)
    n = 30
    ways, nodes = [], []
    for i in range(n):
        ways.append(i)
        nodes.append([1000 + i, 1000 + i + 1])
    # two singletons and one separate pair
    ways += [100, 101, 200, 201]
    nodes += [[5000], [5001], [6000, 6001], [6001, 6002]]
    tbl = pa.table({
        "way_id": pa.array(ways, pa.int64()),
        "nodes": pa.array(nodes, pa.list_(pa.int64())),
        "tagged": pa.array([True] * len(ways)),
    })
    out = way_components(rd.from_arrow(tbl).repartition(7)).to_pandas()
    got = dict(zip(out["component_id"], out["n_ways"]))
    assert got == {0: n, 100: 1, 101: 1, 200: 2}


def test_gif_codec_roundtrip_and_hostiles():
    """Real LZW: width-boundary flush sweep, CLEAR resets on deep tables,
    KwKwK runs, an INDEPENDENT uncompressed-style stream (literal codes +
    periodic CLEAR, never written by our encoder), and hostile payloads."""
    import struct

    import numpy as np
    import pytest

    from osm_intersections_ray.stages.multimodal import (
        _GIF_CLEAR, _GIF_EOI, _GIF_MIN_CODE, _BitWriter, _gif_palette,
        decode_gif, encode_gif)

    pal = _gif_palette()
    cases = [
        (200, 150, np.zeros(200 * 150, dtype=np.uint8)),          # KwKwK + CLEARs
        (100, 80, (np.arange(100 * 80) % 7).astype(np.uint8)),    # deep table
        (50, 40, ((np.arange(50 * 40) * 97 + 13) % 256).astype(np.uint8)),
    ]
    for length in range(1, 300, 13):  # flush-on-width-boundary sweep
        cases.append((length, 1,
                      ((np.arange(length) * 5 + 1) % 256).astype(np.uint8)))
    for w, h, idx in cases:
        gw, gh, c, s = decode_gif(encode_gif(w, h, idx))
        assert (gw, gh, c) == (w, h, 3)
        assert s == int(pal[idx.astype(np.int64)].sum())

    # independent writer: literal codes only, CLEAR every 200 so the width
    # never grows — pins bit unpacking + CLEAR handling without our encoder
    def uncompressed(w, h, idx):
        bw = _BitWriter()
        width = _GIF_MIN_CODE + 1
        bw.put(_GIF_CLEAR, width)
        for k, v in enumerate(idx):
            if k and k % 200 == 0:
                bw.put(_GIF_CLEAR, width)
            bw.put(int(v), width)
        bw.put(_GIF_EOI, width)
        lzw = bw.done()
        head = (b"GIF87a" + struct.pack("<HH", w, h)
                + bytes([0x80 | (7 << 4) | 7, 0, 0])
                + pal.astype(np.uint8).tobytes())
        img = (b"\x2C" + struct.pack("<HHHH", 0, 0, w, h) + b"\x00"
               + bytes([_GIF_MIN_CODE]))
        blocks = bytearray()
        for off in range(0, len(lzw), 255):
            ch = lzw[off:off + 255]
            blocks += bytes([len(ch)]) + ch
        return head + img + bytes(blocks) + b"\x00" + b"\x3B"

    idx = ((np.arange(37 * 23) * 11 + 5) % 256).astype(np.uint8)
    gw, gh, c, s = decode_gif(uncompressed(37, 23, idx))
    assert (gw, gh, s) == (37, 23, int(pal[idx.astype(np.int64)].sum()))

    blob = encode_gif(4, 4, np.arange(16, dtype=np.uint8))
    with pytest.raises(ValueError):
        decode_gif(b"NOTAGIF" + blob[6:])
    with pytest.raises(ValueError):
        decode_gif(blob[:40])  # truncated mid-palette / no descriptor
    # truncated LZW stream (cut the sub-blocks, keep structure)
    cut = blob[: blob.index(b"\x2C") + 11] + b"\x01" + blob[-3:-2] + b"\x00\x3B"
    with pytest.raises(ValueError):
        decode_gif(cut)


def test_bloom_filter_one_sided(ray_session):
    """Bloom structural invariants on real corpus urls: every PRESENT probe
    is a member (no false negatives, by construction), absent twins are
    mostly non-members (false-positive rate bounded well under the
    theoretical (1-e^{-kn/m})^k at this fill), and n_hit==K iff member."""
    import pyarrow.parquet as pq

    import ray.data as rd

    from osm_intersections_ray.sources.synthetic import ensure_fixtures
    from osm_intersections_ray.stages import pages

    fx = ensure_fixtures("/root/testdata/sf0.01")
    tbl = pq.read_table(f"{fx}/pages.parquet", columns=["url"])
    out = pages.bloom_url_filter(rd.from_arrow(tbl)).to_pandas()
    present = out[~out["probe"].str.endswith("#absent")]
    absent = out[out["probe"].str.endswith("#absent")]
    assert len(present) > 100 and len(absent) == len(present)
    assert (present["is_member"] == 1).all()
    assert (present["n_hit"] == pages.BLOOM_K).all()
    assert ((out["n_hit"] == pages.BLOOM_K) == (out["is_member"] == 1)).all()
    # m=2^18, k=4, n=10k urls -> fp ~ (1-exp(-4*10000/262144))^4 ~ 4e-4;
    # allow an order of magnitude of slack before calling it broken
    assert absent["is_member"].mean() < 0.01


def test_mixture_resample_policy(ray_session):
    """Resample semantics: every page of a site repeats either floor(q) or
    floor(q)+1 epochs (q = the site's exact integer epoch factor), and the
    realized token mass per site lands within one page's mass of the
    sqrt-temperature target implied by domain_mix_weights."""
    import pyarrow.parquet as pq

    import ray.data as rd

    from osm_intersections_ray.sources.synthetic import ensure_fixtures
    from osm_intersections_ray.stages import pages

    fx = ensure_fixtures("/root/testdata/sf0.01")
    tbl = pq.read_table(f"{fx}/pages.parquet", columns=["url", "text"])
    sites = pages.domain_mix_weights(rd.from_arrow(tbl)).to_pandas()
    out = pages.mixture_resample(rd.from_arrow(tbl)).to_pandas()
    total = int(sites["token_mass"].sum())
    for r in sites.itertuples():
        t_site = total * int(r.share_ppm) // 1_000_000
        q = t_site * 1_000_000 // max(int(r.token_mass), 1)
        got = out.loc[out["site"] == r.site, "repeats"]
        assert set(got.unique()) <= {q // 1_000_000, q // 1_000_000 + 1}, r.site
        # fractional-epoch draws are md5-uniform: realized floor+bernoulli
        # mean matches q within a loose binomial bound
        frac = (got == q // 1_000_000 + 1).mean()
        assert abs(frac - (q % 1_000_000) / 1e6) < 0.25
    assert len(out) == len(tbl)  # every fixture url has a parseable site


def test_jpeg_codec_roundtrip_and_hostiles():
    """Baseline JPEG codec: (1) the DC-only corpus decodes losslessly to the
    closed-form sum; (2) a RANDOM image with a real quant table + restart
    intervals decodes to the independently-computed quantized-coefficient
    roundtrip (exercises AC run/size codes, ZRL, EOB, byte stuffing, RSTn
    predictor resets); (3) hostile payloads are refused loudly."""
    import numpy as np
    import pytest

    from osm_intersections_ray.stages.multimodal import (
        _JPG_B, decode_jpeg, encode_jpeg,
    )

    # (1) corpus shape, with and without restarts
    for d in (0, 5, 13):
        w, h = 8 * (2 + d % 5), 8 * (2 + (d // 3) % 4)
        seed = (d * 2654435761) % 256
        lv = ((seed + 37 * np.arange((w // 8) * (h // 8))) % 256
              ).reshape(h // 8, w // 8)
        img = np.kron(lv, np.ones((8, 8), int)).astype(np.uint8)
        blob = encode_jpeg(w, h, img, restart_interval=3 if d % 4 == 0 else 0)
        assert decode_jpeg(blob) == (w, h, 1, 64 * int(lv.sum()))

    # (2) lossy AC roundtrip vs an independent numpy coefficient pipeline
    rng = np.random.default_rng(5)
    q = np.array([
        16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55,
        14, 13, 16, 24, 40, 57, 69, 56, 14, 17, 22, 29, 51, 87, 80, 62,
        18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113, 92,
        49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99,
    ], np.int64)
    img = rng.integers(0, 256, (24, 32), dtype=np.uint8)
    blob = encode_jpeg(32, 24, img, quant=q, restart_interval=2)
    tot = 0
    for by in range(3):
        for bx in range(4):
            blk = img[by * 8:by * 8 + 8, bx * 8:bx * 8 + 8].astype(float) - 128.0
            zz = np.round((_JPG_B @ blk @ _JPG_B.T).ravel() / q) * q
            rec = _JPG_B.T @ zz.reshape(8, 8) @ _JPG_B
            tot += int(np.clip(np.round(rec) + 128.0, 0, 255).sum())
    assert decode_jpeg(blob) == (32, 24, 1, tot)

    # (3) hostiles
    with pytest.raises(ValueError):
        decode_jpeg(b"\x89PNG not a jpeg")
    with pytest.raises(NotImplementedError):  # progressive SOF2
        bad = bytearray(blob)
        sof = bad.find(b"\xFF\xC0")
        bad[sof + 1] = 0xC2
        decode_jpeg(bytes(bad))
    with pytest.raises(ValueError):           # truncated entropy stream
        decode_jpeg(blob[:len(blob) - 8] + b"\xFF\xD9")
    with pytest.raises((ValueError, NotImplementedError)):  # 16-bit precision
        bad = bytearray(blob)
        sof = bad.find(b"\xFF\xC0")
        bad[sof + 4] = 16
        decode_jpeg(bytes(bad))


def test_avi_mjpeg_demux_and_hostiles():
    """AVI/MJPEG video path: the demuxer finds exactly the '00dc' frames,
    sampling decodes only every Nth frame, and hostile containers (bad
    magic, non-MJPG handler, frame-count lies, wrong frame dims) fail
    loudly."""
    import struct

    import numpy as np
    import pytest

    from osm_intersections_ray.stages.multimodal import (
        decode_avi_mjpeg, encode_avi_mjpeg, encode_jpeg,
    )

    lv = np.arange(4).reshape(2, 2) * 50
    img = np.kron(lv, np.ones((8, 8), int)).astype(np.uint8)
    frames = [encode_jpeg(16, 16, (img + 3 * f) % 256) for f in range(5)]
    blob = encode_avi_mjpeg(16, 16, frames)
    w, h, nf, ns, s = decode_avi_mjpeg(blob, every=2)
    assert (w, h, nf, ns) == (16, 16, 5, 3)
    want = sum(64 * int(((lv + 3 * f) % 256).sum()) for f in (0, 2, 4))
    assert s == want
    # every=1 decodes all frames; every=5 decodes only frame 0
    assert decode_avi_mjpeg(blob, every=1)[3] == 5
    assert decode_avi_mjpeg(blob, every=5)[3] == 1

    with pytest.raises(ValueError):
        decode_avi_mjpeg(b"RIFFxxxxWAVE" + blob[12:])
    with pytest.raises(NotImplementedError):   # non-MJPG handler
        decode_avi_mjpeg(blob.replace(b"vidsMJPG", b"vidsXVID"))
    with pytest.raises(ValueError):            # avih frame-count lie
        i = blob.find(b"avih") + 8 + 16
        decode_avi_mjpeg(blob[:i] + struct.pack("<I", 99) + blob[i + 4:])
    with pytest.raises(ValueError):            # frame dims vs header
        bad_frames = [encode_jpeg(24, 16, np.zeros((16, 24), np.uint8))] * 2
        decode_avi_mjpeg(encode_avi_mjpeg(16, 16, bad_frames))


def test_jsonl_source_hostiles(ray_session, tmp_path):
    """JSONL.gz ingest: unicode text, embedded quotes/newlines-as-escapes,
    empty text, and a raw (uncompressed) shard all parse to the exact
    projection."""
    import gzip
    import json

    import pandas as pd

    from osm_intersections_ray.sources.jsonl import read_jsonl_pages

    rows = [
        {"url": "https://e.org/a", "ts": 1, "lang": "en", "text": "plain"},
        {"url": "https://e.org/b", "ts": 2, "lang": "fr",
         "text": 'quotes " and \\ backslash and\nnewline and tab\t'},
        {"url": "https://e.org/c", "ts": 3, "lang": "de", "text": ""},
        {"url": "https://e.org/d", "ts": 4, "lang": "en", "text": "héllo 世界"},
    ]
    body = "\n".join(json.dumps(r, ensure_ascii=False, separators=(",", ":"))
                     for r in rows) + "\n"
    with gzip.open(tmp_path / "part-0000.jsonl.gz", "wb") as f:
        f.write(body.encode("utf-8"))
    out = read_jsonl_pages(str(tmp_path)).to_pandas()
    out = out.sort_values("ts_us").reset_index(drop=True)
    want = pd.DataFrame({
        "url": [r["url"] for r in rows],
        "ts_us": [r["ts"] for r in rows],
        "lang": [r["lang"] for r in rows],
        "n_chars": [len(r["text"]) for r in rows],
    })
    assert (out["url"] == want["url"]).all()
    assert (out["n_chars"].to_numpy() == want["n_chars"].to_numpy()).all()
    assert (out["lang"] == want["lang"]).all()


def test_paragraph_dedup_semantics(ray_session):
    """Corpus-level paragraph scrub: each injected boilerplate banner
    survives in exactly ONE doc (its globally-first occurrence); all other
    docs lose it (n_kept < n_pars); docs keep their own unique body."""
    import hashlib

    import pyarrow.parquet as pq

    import ray.data as rd

    from osm_intersections_ray.stages import dedup

    tbl = pq.read_table("/root/testdata/sf0.01/documents.parquet",
                        columns=["doc_id", "text"])
    out = dedup.paragraph_dedup(rd.from_arrow(tbl)).to_pandas()
    ids = tbl["doc_id"].to_pylist()
    texts = tbl["text"].to_pylist()
    aug = dedup._augment_paragraphs(ids, texts)
    # single-process reference: first occurrence by (doc_id, pos)
    seen, ref = {}, {}
    for d, t in sorted(zip(ids, aug)):
        pars = t.split(dedup._PAR_SEP)
        kept = []
        for i, p in enumerate(pars, start=1):
            if p not in seen:
                seen[p] = (d, i)
                kept.append(p)
        if kept:
            ref[d] = (len(pars), len(kept),
                      hashlib.md5(dedup._PAR_SEP.join(kept).encode()).hexdigest())
    got = {int(r.doc_id): (int(r.n_pars), int(r.n_kept), r.clean_md5)
           for r in out.itertuples()}
    assert got == ref
    # non-vacuous: boilerplate was injected AND dropped somewhere
    dropped = out[out["n_kept"] < out["n_pars"]]
    assert len(dropped) > 50
    multi = out[out["n_pars"] > 1]
    assert len(multi) > 100


def test_quality_rank_permutation(ray_session):
    """Global rank is a permutation of 1..n consistent with
    (quality DESC, doc_id ASC), computed without a global sort."""
    import pyarrow.parquet as pq

    import ray.data as rd

    from osm_intersections_ray.stages import text

    tbl = pq.read_table("/root/testdata/sf0.01/documents.parquet",
                        columns=["doc_id", "text"])
    out = text.quality_rank(rd.from_arrow(tbl)).to_pandas()
    n = len(out)
    assert sorted(out["rank"]) == list(range(1, n + 1))
    srt = out.sort_values("rank")
    key = list(zip(-srt["quality"].to_numpy(), srt["doc_id"].to_numpy()))
    assert key == sorted(key)
    assert out["quality"].nunique() > 1  # non-vacuous ordering


def test_flac_codec_roundtrip_and_hostiles():
    """FLAC-subset codec: lossless roundtrip on random audio across rice
    partition orders 0/2/3 and multi-frame streams with a short tail block;
    UTF-8 frame-number coding round-trips multi-byte values; hostile
    payloads (bad magic, flipped residual bit -> CRC-16, truncated stream,
    stereo refusal) fail loudly."""
    import numpy as np
    import pytest

    from osm_intersections_ray.stages.multimodal import (
        _FlacBitReader, _read_utf8_number, _utf8_number,
        decode_flac, encode_flac,
    )

    rng = np.random.default_rng(21)
    s = rng.integers(-30000, 30000, 3000).astype(np.int64)  # full int16 range
    for po in (0, 2, 3):
        blob = encode_flac(s, partition_order=po)
        assert decode_flac(blob) == (8000, 1, 3000, int(np.abs(s).sum()))
    # the predictor actually compresses smooth audio (noise won't)
    saw = (np.arange(4000, dtype=np.int64) * 7) % 2048 - 1024
    assert len(encode_flac(saw)) < 2 * len(saw) * 0.6

    # UTF-8 frame numbers: single and multi-byte
    for n in (0, 127, 128, 5000, 1 << 20):
        br = _FlacBitReader(_utf8_number(n))
        assert _read_utf8_number(br) == n

    with pytest.raises(ValueError):
        decode_flac(b"RIFF not flac")
    with pytest.raises(NotImplementedError):   # stereo STREAMINFO
        bad = bytearray(encode_flac(s))
        bad[8 + 12] |= 0x0E                    # channels-1 bits in STREAMINFO
        decode_flac(bytes(bad))
    with pytest.raises(ValueError):            # flipped bit deep in residuals
        bad = bytearray(encode_flac(s))
        bad[len(bad) // 2] ^= 0x10
        decode_flac(bytes(bad))
    with pytest.raises(ValueError):            # truncated
        decode_flac(encode_flac(s)[:-40])


def test_partitioned_sink_single_pass(ray_session, tmp_path):
    """The sink must consume its input exactly ONCE regardless of partition
    count (round 3 re-scanned the dataset once per partition value)."""
    import ray
    import ray.data as rd

    from osm_intersections_ray.state.checkpoint import write_partitioned

    @ray.remote
    class Counter:
        def __init__(self):
            self.n = 0

        def inc(self, k):
            self.n += k

        def get(self):
            return self.n

    c = Counter.remote()

    ds = rd.from_arrow(pa.table({
        "part": ["Alpha County"] * 5 + ["Beta County"] * 3 + ["Gamma"] * 4,
        "x": list(range(12)),
    })).repartition(4)

    def count_rows(b: pa.Table) -> pa.Table:
        ray.get(c.inc.remote(b.num_rows))
        return b

    counted = ds.map_batches(count_rows, batch_format="pyarrow")
    rep = write_partitioned(counted, str(tmp_path / "out"), "part")
    assert rep["partitions"] == {"Alpha_County": 5, "Beta_County": 3,
                                 "Gamma": 4}
    assert ray.get(c.get.remote()) == 12  # every input row scanned once
    # read-back keeps the original partition column in the data files
    from osm_intersections_ray.state.checkpoint import read_partitioned

    back = read_partitioned(str(tmp_path / "out")).to_pandas()
    assert sorted(back.columns) == ["part", "x"] and len(back) == 12


def test_bpe_train_carry_equivalence(ray_session):
    """The carry-forward path (segmented column persisted between rounds,
    one new merge applied per round) must produce bit-identical merges to
    the regenerate path at a merge count past BPE_CARRY_THRESHOLD — and the
    default auto-switch must route there."""
    import pandas as pd
    import ray.data as rd

    from osm_intersections_ray.stages import text as T

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "pack my box with five dozen liquor jugs",
        "how vexingly quick daft zebras jump",
        "sphinx of black quartz judge my vow",
        "aaa aab aba abb baa bab bba bbb abab baba",
        "İstanbul ΑΣ σς mixed ünïcødé lettèrs here",
    ] * 3
    tbl = pa.table({"text": pa.array(texts, pa.string())})
    n = T.BPE_CARRY_THRESHOLD + 8
    regen = T.bpe_train(rd.from_arrow(tbl), n, carry=False)
    auto = T.bpe_train(rd.from_arrow(tbl), n)  # > threshold -> carry path
    pd.testing.assert_frame_equal(regen.reset_index(drop=True),
                                  auto.reset_index(drop=True))
    assert len(auto) == n  # corpus is rich enough that no early stop fired


def test_warc_quarantine_routing(ray_session, tmp_path):
    """Quarantine mechanics: a corrupted payload routes to ok=0 with the
    ARRIVED digest (not the declared one), a clean digested record and a
    digest-less record both trust through as ok=1, and an empty payload is
    never corrupted by the fixture writer."""
    import hashlib

    import pyarrow as pa
    import ray.data as rd

    from osm_intersections_ray.sources import warc as W

    good, bad = b"<html>good</html>", b"<html>bad</html>"
    recs = [
        W.encode_warc_record("https://ok.example/", 1_000_000, good,
                             digest=hashlib.md5(good).hexdigest()),
        # declared digest of the INTENDED payload, corrupted in flight
        W.encode_warc_record("https://bad.example/", 2_000_000,
                             b"#" + bad[1:],
                             digest=hashlib.md5(bad).hexdigest()),
        W.encode_warc_record("https://nodigest.example/", 3_000_000, good),
        W.encode_warc_record("https://empty.example/", 4_000_000, b"",
                             digest=hashlib.md5(b"").hexdigest()),
    ]
    with open(tmp_path / "0000.warc.gz", "wb") as f:
        for r in recs:
            f.write(r)
    out = (W.read_warc_quarantine(str(tmp_path)).to_pandas()
           .set_index("url"))
    assert out.loc["https://ok.example/", "ok"] == 1
    assert out.loc["https://bad.example/", "ok"] == 0
    assert (out.loc["https://bad.example/", "arrived_md5"]
            == hashlib.md5(b"#" + bad[1:]).hexdigest())
    assert out.loc["https://nodigest.example/", "ok"] == 1
    assert out.loc["https://empty.example/", "ok"] == 1
    # the deterministic fixture writer corrupts a nonzero, predictable set
    qdir = W.ensure_warc_corrupt("/root/testdata/sf0.001")
    q = W.read_warc_quarantine(qdir).to_pandas()
    assert (q["ok"] == 0).sum() > 0
    frac = (q["ok"] == 0).mean()
    assert 0.05 < frac < 0.40  # ~3/16 by construction


def test_compact_partitioned(ray_session, tmp_path):
    """Compaction merges a partition's small files without moving a row,
    re-verifies rows against the manifest, respects target_rows (splits
    into several output files), skips single-file partitions, and the
    crash-recovery sweep restores a '.old.X' leftover when X is missing."""
    import os
    import shutil

    import ray.data as rd

    from osm_intersections_ray.state.checkpoint import (
        compact_partitioned,
        completed_partitions,
        read_partitioned,
        write_partitioned,
    )

    ds = rd.from_arrow(pa.table({
        "part": ["a"] * 90 + ["b"] * 10,
        "x": list(range(100)),
    })).repartition(8)  # many small files per partition
    out = str(tmp_path / "out")
    write_partitioned(ds, out, "part")
    a_files = [f for f in os.listdir(out + "/a") if f.endswith(".parquet")]
    assert len(a_files) >= 2

    rep = compact_partitioned(out, target_rows=40)
    assert rep["compacted"]["a"]["files_in"] == len(a_files)
    assert rep["compacted"]["a"]["files_out"] == 3      # ceil(90/40)
    back = read_partitioned(out).to_pandas().sort_values("x")
    assert list(back["x"]) == list(range(100))
    assert completed_partitions(out) == {"a", "b"}

    # idempotent: everything is already at single/3-file layout
    rep2 = compact_partitioned(out, target_rows=40)
    assert rep2["compacted"].get("a", {}).get("files_out", 3) == 3

    # crash recovery: simulate a crash between the two swap renames
    shutil.move(out + "/b", out + "/.old.b")
    assert "b" not in completed_partitions(out)
    compact_partitioned(out, target_rows=40)
    assert "b" in completed_partitions(out)
    assert read_partitioned(out).count() == 100


def test_ann_ivf_pq_recall(ray_session):
    """IVF-PQ (packed 4-bit product-quantized codes, ADC lookup-table
    search) finds the true top-1 for most queries on clustered data, and
    its inverted lists really do drop the embeddings (codes pack into one
    int64 per vector)."""
    import ray
    import ray.data as rd

    from osm_intersections_ray.stages.similarity import (
        PQ_M,
        ann_ivf_pq,
        knn_brute,
        load_queries,
        pq_codebooks,
    )

    rng = np.random.default_rng(13)
    centers = rng.standard_normal((5, 32)) * 5
    vecs = np.vstack([c + rng.standard_normal((40, 32)) * 0.05 for c in centers])
    tbl = pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32())),
    })
    qref = ray.put(load_queries(tbl))
    brute = knn_brute(rd.from_arrow(tbl), qref)
    approx = ann_ivf_pq(rd.from_arrow(tbl), qref)
    b1 = {q: n for q, n, r in zip(brute["qid"], brute["nid"], brute["rk"]) if r == 1}
    a1 = {q: n for q, n, r in zip(approx["qid"], approx["nid"], approx["rk"]) if r == 1}
    hits = sum(1 for q in b1 if a1.get(q) == b1[q])
    assert hits >= len(b1) * 0.6

    cb = pq_codebooks(rd.from_arrow(tbl))
    assert cb.shape == (PQ_M, 16, 32 // PQ_M)
    assert np.isfinite(cb).all()


def _relax_routes(fixtures_dir, op, col):
    """Check that ``op``'s three routes (broadcast, mid-walk hand-off, fully
    sharded) emit identical (way_id, ``col``) rows and that an empty seed set
    keeps the schema; returns the sorted rows."""
    import ray.data as rd

    from osm_intersections_ray.stages.graph import BFS_MAX_HOPS, way_bfs_hops

    ways = lambda: rd.read_parquet(  # noqa: E731
        os.path.join(fixtures_dir, "ways.parquet"), override_num_blocks=8)

    def rows(ds, c=col):
        return sorted(map(tuple, ds.to_pandas()[["way_id", c]].to_numpy()))

    hops = rows(way_bfs_hops(ways()), "hops")
    broadcast = hops if op is way_bfs_hops else rows(op(ways()))
    assert broadcast, "fixture must reach at least the seeds"
    assert [w for w, _ in broadcast] == [w for w, _ in hops]  # one ball
    # the ball within BFS_MAX_HOPS - 2 steps fits the budget and one step
    # more does not: the hand-off leaves exactly one round to the shards
    budget = sum(1 for _, h in hops if h <= BFS_MAX_HOPS - 2)
    assert budget < sum(1 for _, h in hops if h <= BFS_MAX_HOPS - 1)
    assert rows(op(ways(), broadcast_max=budget)) == broadcast
    # seeds alone overflow -> fully sharded from round 0
    assert rows(op(ways(), broadcast_max=0)) == broadcast
    # no seeds at all -> empty result that still carries the schema
    empty = op(ways(), seed_highway="no_such_highway")
    assert empty.count() == 0
    assert empty.schema().names == ["way_id", col]
    return broadcast


def test_way_bfs_hops_routes_and_empty(ray_session, fixtures_dir):
    """BFS hops: route identity and empty-seed schema; seeds are hop 0."""
    from osm_intersections_ray.stages.graph import way_bfs_hops

    broadcast = _relax_routes(fixtures_dir, way_bfs_hops, "hops")
    assert any(h == 0 for _, h in broadcast)


def test_page_hex_density_edges(ray_session):
    """Hex binning vs the DuckDB oracle on adversarial points: exact hex
    centers, cube-round boundary points, negative coords, origin, missing
    and malformed geotags."""
    import duckdb
    import ray.data as rd

    from osm_intersections_ray.stages.pages import (
        HEX_SIZE_DEG,
        _hex_qr,
        page_hex_density,
        page_hex_density_sql,
    )

    s = HEX_SIZE_DEG
    pts = [
        (0.0, 0.0),                      # origin
        (s * 2.0 / 3.0 * 1.5, 0.0),      # boundary-ish between (0,0)/(0,1)
        (37.2, -122.1),                  # realistic positive/negative
        (-37.2, 122.1),                  # southern hemisphere
        (s, s * 0.5),                    # near a corner of three hexes
        (89.99, 179.99), (-89.99, -179.99),
        (37.2, -122.1),                  # duplicate -> n_pages = 2
    ]
    htmls = [f'<meta name="geo.position" content="{la};{lo}">'.encode()
             for la, lo in pts]
    htmls += [b"<html>no geotag at all</html>",
              b'<meta name="geo.position" content="nan;1.0">',
              b'<meta name="geo.position" content="bogus;alsobogus">']
    tbl = pa.table({
        "url": pa.array([f"http://e{i}.com/p" for i in range(len(htmls))]),
        "html": pa.array(htmls, pa.binary()),
    })

    eng = page_hex_density(rd.from_arrow(tbl)).to_pandas()
    con = duckdb.connect()
    con.register("pages", tbl)
    orc = con.execute(page_hex_density_sql("pages")).fetchdf()
    key = ["q", "r", "n_pages"]
    assert (sorted(map(tuple, eng[key].to_numpy()))
            == sorted(map(tuple, orc[key].to_numpy())))
    # finite points only: 8 geotags -> total page mass 8
    assert eng["n_pages"].sum() == 8

    # the kernel itself: a hex center must round to its own (q, r)
    q0, r0 = 3, -2
    c1 = np.sqrt(3.0) / 3.0
    # invert the axial transform for the center of (q0, r0)
    lat_c = (r0 * s) / (2.0 / 3.0)
    lon_c = (q0 * s + (1.0 / 3.0) * lat_c) / c1
    qq, rr = _hex_qr(np.array([lat_c]), np.array([lon_c]), s)
    assert (qq[0], rr[0]) == (q0, r0)

    # no geotagged pages at all -> empty result that still carries schema
    empty_tbl = pa.table({"url": pa.array(["http://x.com/"]),
                          "html": pa.array([b"<html></html>"], pa.binary())})
    empty = page_hex_density(rd.from_arrow(empty_tbl))
    assert empty.count() == 0
    assert empty.schema().names == ["q", "r", "n_pages"]


def test_pages_segment_snap_routes_and_edges(ray_session, tmp_path):
    """Segment snap vs the DuckDB oracle on projection hostiles (t-clamp
    both ends, on-segment zero distance, shared-vertex tie -> lower seg_idx,
    1-vertex nearest way dropped), plus broadcast/join route identity."""
    import duckdb
    import ray.data as rd

    import pyarrow.parquet as pq

    from osm_intersections_ray.stages.knn import (
        pages_segment_snap,
        pages_segment_snap_sql,
    )

    ways = pa.table({
        "way_id": pa.array([1, 2, 3, 4], pa.int64()),
        "name": ["Alpha Road", "Beta Street", "Gamma Ave", "Hidden"],
        "ref": pa.array([None, None, None, None], pa.string()),
        "tagged": [True, True, True, False],
        "county": ["X"] * 4,
        "way_rank": pa.array([0, 1, 2, 3], pa.int64()),
        # L-shape; single vertex; short horizontal; untagged decoy
        "lats": [[0.0, 0.01, 0.01], [1.0], [2.0, 2.0], [0.0, 0.001]],
        "lons": [[0.0, 0.0, 0.01], [1.0], [0.0, 0.01], [0.0005, 0.0005]],
    })
    ways_path = str(tmp_path / "ways.parquet")
    pq.write_table(ways, ways_path)

    pts = [
        (0.01, 0.0),     # exactly the shared vertex of segs 1|2 -> seg 1
        (0.0105, 0.005), # above the middle of seg 2 (interior t)
        (2.001, 0.02),   # beyond Gamma's end -> t clamps to 1
        (2.001, -0.01),  # before Gamma's start -> t clamps to 0
        (1.0001, 1.0),   # nearest is 1-vertex Beta -> dropped
    ]
    htmls = [f'<meta name="geo.position" content="{la};{lo}">'.encode()
             for la, lo in pts] + [b"<html>nothing</html>"]
    pages = pa.table({
        "url": pa.array([f"http://s{i}.com/" for i in range(len(htmls))]),
        "html": pa.array(htmls, pa.binary()),
    })

    def rows(ds):
        df = ds.to_pandas()
        return sorted(map(tuple,
                          df[["url", "way_id", "seg_idx"]].to_numpy()))

    eng = rows(pages_segment_snap(rd.from_arrow(pages),
                                  rd.from_arrow(ways)))
    con = duckdb.connect()
    con.register("pages", pages)
    orc = con.execute(pages_segment_snap_sql("pages", ways_path)).fetchdf()
    assert eng == sorted(map(tuple,
                             orc[["url", "way_id", "seg_idx"]].to_numpy()))
    by_url = {u: (w, s) for u, w, s in eng}
    assert by_url["http://s0.com/"] == (1, 1)   # tie -> lower seg
    assert by_url["http://s2.com/"] == (3, 1)
    assert by_url["http://s3.com/"] == (3, 1)
    assert "http://s4.com/" not in by_url       # 1-vertex way: no segment
    assert "http://s5.com/" not in by_url       # no geotag

    # join route (cap 0) emits the identical rows
    joined = rows(pages_segment_snap(rd.from_arrow(pages),
                                     rd.from_arrow(ways),
                                     broadcast_vertices_max=0))
    assert joined == eng


def test_hex_kring_smooth_adjacency(ray_session):
    """k=1 ring sums: the six axial neighbors contribute, the (+1,+1)
    cube-diagonal does NOT, isolated hexes smooth to their own count, and
    never-occupied neighbor hexes emit no row."""
    import duckdb
    import ray.data as rd

    from osm_intersections_ray.stages.pages import (
        HEX_SIZE_DEG,
        hex_kring_smooth,
        hex_kring_smooth_sql,
    )

    s = HEX_SIZE_DEG
    c1 = np.sqrt(3.0) / 3.0

    def center(q, r):
        lat = (r * s) / (2.0 / 3.0)
        lon = (q * s + (1.0 / 3.0) * lat) / c1
        return lat, lon

    # hex (0,0) x2; neighbors (1,0) and (1,-1); NON-neighbor (1,1);
    # isolated far hex (40,40)
    pts = [center(0, 0), center(0, 0), center(1, 0), center(1, -1),
           center(1, 1), center(40, 40)]
    tbl = pa.table({
        "url": pa.array([f"http://k{i}.com/" for i in range(len(pts))]),
        "html": pa.array([
            f'<meta name="geo.position" content="{la};{lo}">'.encode()
            for la, lo in pts], pa.binary()),
    })

    eng = hex_kring_smooth(rd.from_arrow(tbl)).to_pandas()
    got = {(q, r): (n, ring) for q, r, n, ring in
           eng[["q", "r", "n_pages", "n_ring"]].to_numpy()}
    assert got[(0, 0)] == (2, 4)    # own 2 + (1,0) + (1,-1); (1,1) excluded
    assert got[(1, 0)] == (1, 5)    # (0,0)=2 + (1,-1) + (1,1) + own
    assert got[(1, -1)] == (1, 4)   # (0,0)=2 + (1,0) + own
    assert got[(1, 1)] == (1, 2)    # (1,0) + own only
    assert got[(40, 40)] == (1, 1)  # isolated
    assert len(got) == 5            # no rows for never-occupied neighbors

    con = duckdb.connect()
    con.register("pages", tbl)
    orc = con.execute(hex_kring_smooth_sql("pages")).fetchdf()
    cols = ["q", "r", "n_pages", "n_ring"]
    assert (sorted(map(tuple, eng[cols].to_numpy()))
            == sorted(map(tuple, orc[cols].to_numpy())))


def test_bbox_range_count_boundaries(ray_session):
    """Half-open boxes: a point on a shared tile edge counts in exactly one
    tile; overlapping boxes double-count; the ocean box emits no row."""
    import duckdb
    import ray.data as rd

    from osm_intersections_ray.stages.pages import (
        BBOX_QUERIES,
        bbox_range_count,
        bbox_range_count_sql,
    )

    # tile 0 spans lat [36.90, 37.025), lon [-122.40, -122.175)
    pts = [
        (36.90, -122.40),    # inclusive min corner -> tile 0
        (37.025, -122.40),   # lat on the shared edge -> tile 4, NOT tile 0
        (36.95, -122.175),   # lon on the shared edge -> tile 1, NOT tile 0
        (37.0, -121.0),      # replica band only (boxes 16 and 17 overlap it? )
        (50.0, 50.0),        # outside every box
    ]
    tbl = pa.table({
        "url": pa.array([f"http://b{i}.com/" for i in range(len(pts))]),
        "html": pa.array([
            f'<meta name="geo.position" content="{la};{lo}">'.encode()
            for la, lo in pts], pa.binary()),
    })
    eng = bbox_range_count(rd.from_arrow(tbl)).to_pandas()
    got = dict(map(tuple, eng[["box_id", "n_pages"]].to_numpy()))
    wide = len(BBOX_QUERIES) - 3     # the whole-world box id
    replica = len(BBOX_QUERIES) - 2
    ocean = len(BBOX_QUERIES) - 1
    assert got[0] == 1 and got[4] == 1 and got[1] == 1
    assert got[wide] == 4            # every point except (50, 50)
    assert got[replica] == 1
    assert ocean not in got          # zero boxes drop

    con = duckdb.connect()
    con.register("pages", tbl)
    orc = con.execute(bbox_range_count_sql("pages")).fetchdf()
    cols = ["box_id", "n_pages"]
    assert (sorted(map(tuple, eng[cols].to_numpy()))
            == sorted(map(tuple, orc[cols].to_numpy())))


def test_task_crash_retry_exactness(ray_session, tmp_path):
    """Fault tolerance: a map_batches worker that DIES (process exit, not a
    Python exception) on its first attempt is retried by Ray and the
    pipeline still completes with the exact result — the single-node stand-
    in for a node loss on the production cluster."""
    import os

    import ray.data as rd

    flag = str(tmp_path / "crashed_once")

    def fn(b: pa.Table) -> pa.Table:
        if not os.path.exists(flag):
            open(flag, "w").close()
            os._exit(1)   # hard worker death -> Ray task retry
        return b

    ds = rd.range(400, override_num_blocks=4).map_batches(
        fn, batch_format="pyarrow")
    assert ds.sum("id") == 400 * 399 // 2
    assert os.path.exists(flag)


def test_hex_mode_lang_ties_and_nulls(ray_session):
    """Dominant-language-per-hex: tie breaks lang-ascending, NULL lang
    folds to '', geotag-less pages drop, totals count every resident."""
    import duckdb
    import ray.data as rd

    from osm_intersections_ray.stages.pages import (
        HEX_SIZE_DEG,
        hex_mode_lang,
        hex_mode_lang_sql,
    )

    s = HEX_SIZE_DEG
    c1 = np.sqrt(3.0) / 3.0

    def center(q, r):
        lat = (r * s) / (2.0 / 3.0)
        lon = (q * s + (1.0 / 3.0) * lat) / c1
        return lat, lon

    # hex (0,0): de x2, en x2 (tie -> 'de'), fr x1; hex (5,5): NULL lang
    rows = [(center(0, 0), "de"), (center(0, 0), "de"),
            (center(0, 0), "en"), (center(0, 0), "en"),
            (center(0, 0), "fr"), (center(5, 5), None)]
    htmls = [f'<meta name="geo.position" content="{la};{lo}">'.encode()
             for (la, lo), _ in rows] + [b"<html>no tag</html>"]
    langs = [l for _, l in rows] + ["en"]
    tbl = pa.table({
        "url": pa.array([f"http://m{i}.com/" for i in range(len(htmls))]),
        "html": pa.array(htmls, pa.binary()),
        "lang": pa.array(langs, pa.string()),
    })
    eng = hex_mode_lang(rd.from_arrow(tbl)).to_pandas()
    got = {(q, r): (tl, nt, np_) for q, r, tl, nt, np_ in
           eng[["q", "r", "top_lang", "n_top", "n_pages"]].to_numpy()}
    assert got[(0, 0)] == ("de", 2, 5)
    assert got[(5, 5)] == ("", 1, 1)
    assert len(got) == 2

    con = duckdb.connect()
    con.register("pages", tbl)
    orc = con.execute(hex_mode_lang_sql("pages")).fetchdf()
    cols = ["q", "r", "top_lang", "n_top", "n_pages"]
    assert (sorted(map(tuple, eng[cols].to_numpy()))
            == sorted(map(tuple, orc[cols].to_numpy())))


def test_snap_distance_profile_buckets(ray_session, tmp_path):
    """Snap-distance histogram: an on-segment page lands in bucket 0, a
    ~0.001-degree offset (~100 m L2) in bucket 2, and the engine matches
    the SQL chain bit-for-bit."""
    import duckdb
    import pyarrow.parquet as pq

    import ray.data as rd

    from osm_intersections_ray.stages.knn import (
        snap_distance_profile,
        snap_distance_profile_sql,
    )

    ways = pa.table({
        "way_id": pa.array([1], pa.int64()),
        "name": ["Alpha Road"],
        "ref": pa.array([None], pa.string()),
        "tagged": [True],
        "county": ["X"],
        "way_rank": pa.array([0], pa.int64()),
        "lats": [[0.0, 0.0]],
        "lons": [[0.0, 0.01]],
    })
    ways_path = str(tmp_path / "ways.parquet")
    pq.write_table(ways, ways_path)
    pts = [(0.0, 0.005),      # exactly on the segment -> bucket 0
           (0.001, 0.005),    # 0.001 deg above -> 100 m -> bucket 2
           (0.0003, 0.002)]   # 30 m -> bucket 0
    tbl = pa.table({
        "url": pa.array([f"http://d{i}.com/" for i in range(len(pts))]),
        "html": pa.array([
            f'<meta name="geo.position" content="{la};{lo}">'.encode()
            for la, lo in pts], pa.binary()),
    })
    eng = snap_distance_profile(rd.from_arrow(tbl),
                                rd.from_arrow(ways)).to_pandas()
    got = dict(map(tuple, eng[["bucket", "n_pages"]].to_numpy()))
    assert got == {0: 2, 2: 1}

    con = duckdb.connect()
    con.register("pages", tbl)
    orc = con.execute(snap_distance_profile_sql("pages", ways_path)).fetchdf()
    assert (sorted(map(tuple, eng[["bucket", "n_pages"]].to_numpy()))
            == sorted(map(tuple, orc[["bucket", "n_pages"]].to_numpy())))

    # the join route (cap 0) folds the identical histogram
    eng_j = snap_distance_profile(rd.from_arrow(tbl), rd.from_arrow(ways),
                                  broadcast_vertices_max=0).to_pandas()
    assert dict(map(tuple, eng_j[["bucket", "n_pages"]].to_numpy())) == got


def test_pages_near_boundary_geofence(ray_session):
    """Geofence hostiles: inclusive exact-radius hit, just-outside miss,
    two-city shared border (n_near=2), hole edges count as boundary, deep
    interior excluded."""
    import json

    import duckdb
    import pyarrow.parquet as pq

    import ray.data as rd

    from osm_intersections_ray.stages.pages import (
        pages_near_boundary,
        pages_near_boundary_sql,
    )

    def poly(*rings):
        return json.dumps([[list(p) for p in r + (r[0],)] for r in rings])

    bounds = pa.table({
        "name": ["Aville", "Bville", "Cville", "County"],
        "kind": ["city", "city", "city", "county"],
        "file_order": pa.array([0, 1, 2, 3], pa.int64()),
        # A and B share the x=0.01 border; C has a hole
        "geom_json": [
            poly(((0.0, 0.0), (0.01, 0.0), (0.01, 0.01), (0.0, 0.01))),
            poly(((0.01, 0.0), (0.02, 0.0), (0.02, 0.01), (0.01, 0.01))),
            poly(((1.0, 1.0), (1.1, 1.0), (1.1, 1.1), (1.0, 1.1)),
                 ((1.04, 1.04), (1.06, 1.04), (1.06, 1.06), (1.04, 1.06))),
            poly(((0.0, 0.0), (5.0, 0.0), (5.0, 5.0), (0.0, 5.0))),
        ],
    })
    pts = [
        (0.005, -0.001),   # exactly 100 m west of A's x=0 edge -> in (<=)
        (0.005, -0.0011),  # 110 m -> out
        (0.005, 0.0101),   # 10 m east of the shared border -> A and B
        (1.05, 1.0601),    # 10 m outside C's hole edge (inside outer) -> C
        (0.005, 0.005),    # deep interior of A, 500 m from every edge -> out
    ]
    tbl = pa.table({
        "url": pa.array([f"http://g{i}.com/" for i in range(len(pts))]),
        "html": pa.array([
            f'<meta name="geo.position" content="{la};{lo}">'.encode()
            for la, lo in pts], pa.binary()),
    })
    eng = pages_near_boundary(rd.from_arrow(tbl),
                              bounds).to_pandas()
    got = {u: (n, c) for u, n, c in
           eng[["url", "n_near", "cities"]].to_numpy()}
    assert got["http://g0.com/"] == (1, "Aville")
    assert "http://g1.com/" not in got
    assert got["http://g2.com/"] == (2, "Aville/Bville")
    assert got["http://g3.com/"] == (1, "Cville")   # hole edge counts
    assert "http://g4.com/" not in got              # county kind excluded too

    import tempfile, os
    with tempfile.TemporaryDirectory() as td:
        bp = os.path.join(td, "boundaries.parquet")
        pq.write_table(bounds, bp)
        con = duckdb.connect()
        con.register("pages", tbl)
        orc = con.execute(pages_near_boundary_sql("pages", bp)).fetchdf()
    cols = ["url", "n_near", "cities"]
    assert (sorted(map(tuple, eng[cols].to_numpy()))
            == sorted(map(tuple, orc[cols].to_numpy())))


def test_pages_near_boundary_degenerate_city(ray_session, tmp_path):
    """A city whose only ring is a single point has no boundary segments:
    it yields no rows (as in the oracle) instead of failing the whole op."""
    import duckdb
    import pyarrow.parquet as pq

    import ray.data as rd

    from osm_intersections_ray.stages.pages import (
        pages_near_boundary,
        pages_near_boundary_sql,
    )

    bounds = pa.table({
        "name": ["Aville", "Dot"],
        "kind": ["city", "city"],
        "file_order": pa.array([0, 1], pa.int64()),
        "geom_json": [
            "[[[0.0, 0.0], [0.01, 0.0], [0.01, 0.01], [0.0, 0.01], "
            "[0.0, 0.0]]]",
            "[[[0.005, -0.0005]]]",
        ],
    })
    pts = [(-0.0005, 0.005), (0.005, 0.005)]   # near A's edge; interior
    tbl = pa.table({
        "url": pa.array([f"http://d{i}.com/" for i in range(len(pts))]),
        "html": pa.array([
            f'<meta name="geo.position" content="{la};{lo}">'.encode()
            for la, lo in pts], pa.binary()),
    })
    eng = pages_near_boundary(rd.from_arrow(tbl), bounds).to_pandas()
    bp = str(tmp_path / "boundaries.parquet")
    pq.write_table(bounds, bp)
    con = duckdb.connect()
    con.register("pages", tbl)
    orc = con.execute(pages_near_boundary_sql("pages", bp)).fetchdf()
    cols = ["url", "n_near", "cities"]
    got = sorted(map(tuple, eng[cols].to_numpy()))
    assert got == [("http://d0.com/", 1, "Aville")]
    assert got == sorted(map(tuple, orc[cols].to_numpy()))


def test_way_reach_meters_routes(ray_session, fixtures_dir):
    """Weighted reach: route identity and empty-seed schema; seeds cost 0;
    costs are exact non-negative integers."""
    from osm_intersections_ray.stages.graph import way_reach_meters

    broadcast = _relax_routes(fixtures_dir, way_reach_meters, "cost_udeg")
    zero = [c for _, c in broadcast if c == 0]
    assert zero, "seeds must carry cost 0"
    assert all(isinstance(c, np.integer) and c >= 0 for _, c in broadcast)
