"""Stable, SQL-reproducible hashing for dedup/sketch operators.

All content hashes are md5-derived so every engine result can be checked by a
DuckDB oracle (`md5(...)` is available there); no dependency on Python's
randomized `hash()` or on xxhash/mmh3 (absent in this environment).

`h60(s)` = first 15 hex chars of md5(s) as an integer (60 bits — safely inside
both int64 and DuckDB UBIGINT/BIGINT when cast from 15 hex digits).
DuckDB equivalent::

    CAST(('0x' || substr(md5(s), 1, 15)) AS BIGINT)
"""

from __future__ import annotations

import hashlib

import numpy as np


def h60(s: str) -> int:
    # first 15 hex chars == first 7.5 bytes big-endian >> 4 (faster than
    # hexdigest slicing + int parse)
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "big") >> 4


MIX_C = 6364136223846793005  # odd 63-bit mixing multiplier (Knuth MMIX LCG)


def shingle_hash(shingle: str) -> int:
    """Word-shingle hash: per-token h60 rolled with MIX_C mod 2^64 — the
    scalar form of the vectorized kernel in ``stages/dedup.py`` (and its
    DuckDB HUGEINT oracle)."""
    mask = (1 << 64) - 1
    toks = shingle.split()
    acc = h60(toks[0]) if toks else 0
    for t in toks[1:]:
        acc = (acc * MIX_C + h60(t)) & mask
    return acc


def minhash_signature(shingles: set[str] | list[str], num_perm: int) -> list[int]:
    """Scalar reference MinHash: shingle_hash per shingle, permutation j's
    value is (A_j * h + B_j) mod 2^64 with A_j = (h60(f"minhash-a|{j}") << 1)
    | 1 and B_j = h60(f"minhash-b|{j}") — the same scheme the vectorized
    kernel in ``stages/dedup.py`` and its DuckDB oracle (HUGEINT % 2^64)
    compute.  Empty shingle sets map to 2^64 - 1."""
    mask = (1 << 64) - 1
    empty = mask
    a = [((h60(f"minhash-a|{j}") << 1) | 1) for j in range(num_perm)]
    b = [h60(f"minhash-b|{j}") for j in range(num_perm)]
    sig = [empty] * num_perm
    for s in set(shingles):
        h = shingle_hash(s)
        for j in range(num_perm):
            v = (a[j] * h + b[j]) & mask
            if v < sig[j]:
                sig[j] = v
    return sig


# DuckDB/utf8proc ``lower()`` parity.  DuckDB's lower() is utf8proc's SIMPLE
# case mapping: pure per-codepoint, context-free, never one-to-many — so one
# ``str.translate`` with the full probed table reproduces it bit-exactly on
# ANY input.  Round 3 approximated this as a 2-entry pre-translate (U+0130,
# U+03A3) followed by Python ``.lower()``; that missed 40+ codepoints added
# in Unicode 14+ which Python lowercases and DuckDB 1.0.0 leaves unchanged
# (ADVICE r3).  The table is now generated by probing the INSTALLED DuckDB
# over every codepoint (tools/gen_duck_lower.py) — no hand-derived claims.
# NOTE: sites must apply the translate ALONE (no trailing .lower(), which
# would re-introduce Python's full/contextual mappings).
from ._duck_lower_table import ARROW_DIVERGENT, DUCK_LOWER_MAP  # noqa: E402

DUCK_LOWER_TRANS = str.maketrans(DUCK_LOWER_MAP)


def duck_lower(s: str) -> str:
    """Lowercase exactly as DuckDB/utf8proc's simple mapping does."""
    return s.translate(DUCK_LOWER_TRANS)


def simhash64(tokens: list[str]) -> int:
    """64-bit SimHash over token md5 hashes (unweighted).

    Uses the low 60 bits of md5 per token (so a DuckDB oracle can reproduce it
    bit-for-bit with the same h60) and packs the sign vector of the 60
    counters; bits 60-63 are zero.
    """
    if not tokens:
        return 0
    counts = np.zeros(60, dtype=np.int64)
    for t in tokens:
        h = h60(t)
        for b in range(60):
            counts[b] += 1 if (h >> b) & 1 else -1
    out = 0
    for b in range(60):
        if counts[b] > 0:
            out |= 1 << b
    return out


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")
