"""Stable, vectorized hashing for shuffle keys.

Every bucket id that decides WHERE a row shuffles must be identical on
every worker of a (possibly mixed-version, multi-node) cluster. Library
hashes (polars' ahash, pandas' siphash) may change across versions, so a
heterogeneous fleet could route the same key to different buckets —
silently breaking joins and dedup. These kernels depend only on numpy's
wrapping uint64 arithmetic, which is fixed by the platform, and are
asserted against golden constants in tests/test_ops.py.

String hashing is a polynomial over 8-byte little-endian words

    H_seed(s) = Σ_j (w_j + 1) · Q_seed^j      (mod 2^64)

where w_j packs bytes 8j..8j+7 of the string (zero-padded tail; the
length is mixed into the splitmix64 finisher, so tail padding cannot
collide with explicit NUL bytes) and Q_seed is a seed-derived odd base.
The SEED ENTERS THE POLYNOMIAL BASE, not just the finisher: two seeds
give two polynomial evaluations at independent points, so a pair of
seeded hashes forms a genuinely ~128-bit composite key (a finisher-only
seed would make every seed a bijection of one seed-independent rowsum —
equal-length 64-bit collisions would collide under EVERY seed at once).
Working at word granularity does 8× fewer uint64 operations than a byte
polynomial and replaces the buffer-long serial prefix chain with one
word-level cumsum — measured several-GB/s-class instead of ~100 MB/s;
``hash_strings_pair`` shares the word gather between two seeds.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_Q = np.uint64(0x9E3779B185EBCA87)  # odd ⇒ full-period word weight
_NULL_SALT = np.uint64(0x9AE16A3B2F90404F)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _seed_mix(seed: int) -> np.ndarray:
    return _splitmix64(np.full(1, seed, np.uint64) * _Q)


def hash_int64(vals: np.ndarray, seed: int = 0) -> np.ndarray:
    """uint64 hash of an int64/uint64 array (bit-pattern, sign-safe)."""
    v = np.asarray(vals)
    if v.dtype != np.uint64:
        v = v.astype(np.int64, copy=False).view(np.uint64)
    return _splitmix64(v ^ _seed_mix(seed))


def _powers(n: int, base: np.uint64) -> np.ndarray:
    """[base^0 .. base^n] mod 2^64 by doubling-fill: each step multiplies a
    whole slice by a scalar (SIMD-vectorizable), unlike cumprod whose
    serial carry chain caps throughput."""
    pw = np.empty(n + 1, np.uint64)
    pw[0] = 1
    step, val = 1, int(base)
    while step <= n:
        end = min(2 * step, n + 1)
        np.multiply(pw[: end - step], np.uint64(val), out=pw[step:end])
        val = (val * val) & 0xFFFFFFFFFFFFFFFF
        step *= 2
    return pw


def _word_base(seed: int) -> np.uint64:
    """Seed-derived odd polynomial base (odd ⇒ full period mod 2^64)."""
    if seed == 0:
        return _Q  # seed-0 keeps the documented canonical base
    return np.uint64(int(_splitmix64(np.full(1, seed, np.uint64) * _Q)[0]) | 1)


def _hash_string_array(a: pa.Array, seed: int) -> np.ndarray:
    return _hash_string_array_multi(a, (seed,))[0]


def _hash_string_array_multi(a: pa.Array, seeds: tuple) -> list[np.ndarray]:
    """One word-gather pass, one weighted cumsum PER SEED (the gather —
    offsets, fancy index, tail masking — dominates; sharing it nearly
    halves a two-seed key build)."""
    if len(a) == 0:
        return [np.empty(0, np.uint64) for _ in seeds]
    if pa.types.is_large_string(a.type) or pa.types.is_large_binary(a.type):
        off_dtype = np.int64
    else:
        off_dtype = np.int32
    bufs = a.buffers()
    off_all = np.frombuffer(bufs[1], off_dtype)
    off = off_all[a.offset : a.offset + len(a) + 1].astype(np.int64, copy=False)
    data = (
        np.frombuffer(bufs[2], np.uint8) if bufs[2] is not None else np.empty(0, np.uint8)
    )

    starts = off[:-1]
    lens = off[1:] - starts
    nwords = (lens + 7) >> 3  # 8-byte words per row, zero-padded tail
    wstart = np.empty(len(a) + 1, np.int64)
    wstart[0] = 0
    np.cumsum(nwords, out=wstart[1:])
    total = int(wstart[-1])

    if total:
        # flat word table: local word index + absolute byte position per word
        local = np.arange(total, dtype=np.int64) - np.repeat(wstart[:-1], nwords)
        pos = np.repeat(starts, nwords) + (local << 3)
        # one unaligned little-endian uint64 gather per word (zero padding
        # guards tail reads past the buffer); byte-stride view keeps it a
        # single fancy-index pass instead of 8 byte-lane gathers
        padded = np.concatenate([data, np.zeros(8, np.uint8)])
        unaligned = np.ndarray(
            shape=(len(padded) - 7,), dtype=np.dtype("<u8"), buffer=padded.data, strides=(1,)
        )
        w = unaligned[pos]
        # zero the bytes beyond each row's end in its tail word
        rem = (lens & 7).astype(np.uint64)
        tail = wstart[1:] - 1
        sel = (rem != 0).nonzero()[0]  # rem==0 ⇒ full tail word, no mask
        if len(sel):
            mask = (np.uint64(1) << (rem[sel] << np.uint64(3))) - np.uint64(1)
            w[tail[sel]] &= mask
        w += np.uint64(1)  # distinguish all-zero words from absent words
        rowsums = []
        max_deg = int(nwords.max()) - 1
        csum = np.empty(total + 1, np.uint64)
        csum[0] = 0
        for seed in seeds:
            ws = w * _powers(max_deg, _word_base(seed))[local]
            np.cumsum(ws, out=csum[1:])
            rowsums.append(csum[wstart[1:]] - csum[wstart[:-1]])
    else:
        rowsums = [np.zeros(len(a), np.uint64) for _ in seeds]

    null_mask = np.asarray(a.is_null()) if a.null_count else None
    outs = []
    for seed, rowsum in zip(seeds, rowsums):
        out = _splitmix64(rowsum ^ _splitmix64(lens.view(np.uint64) + _seed_mix(seed)))
        if null_mask is not None:
            out[null_mask] = _splitmix64(
                np.full(int(null_mask.sum()), _NULL_SALT) ^ _seed_mix(seed)
            )
        outs.append(out)
    return outs


def hash_strings(arr, seed: int = 0) -> np.ndarray:
    """uint64 hash per element of a string Array/ChunkedArray/list.
    Nulls hash to a fixed (seeded) constant distinct from any string."""
    if isinstance(arr, (list, np.ndarray)):
        arr = pa.array(arr, pa.string())
    if isinstance(arr, pa.ChunkedArray):
        if arr.num_chunks == 0:
            return np.empty(0, np.uint64)
        return np.concatenate([_hash_string_array(c, seed) for c in arr.chunks])
    return _hash_string_array(arr, seed)


def hash_strings_pair(arr, seed1: int, seed2: int) -> tuple[np.ndarray, np.ndarray]:
    """Two independently-seeded hashes of one string column sharing the
    word-gather pass — the 128-bit composite-key builder for dedup."""
    if isinstance(arr, (list, np.ndarray)):
        arr = pa.array(arr, pa.string())
    if isinstance(arr, pa.ChunkedArray):
        if arr.num_chunks == 0:
            return np.empty(0, np.uint64), np.empty(0, np.uint64)
        parts = [_hash_string_array_multi(c, (seed1, seed2)) for c in arr.chunks]
        return (
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
        )
    outs = _hash_string_array_multi(arr, (seed1, seed2))
    return outs[0], outs[1]


def combine_hashes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Order-sensitive combine of two hash columns."""
    return _splitmix64((a * _Q) ^ b)


def _hash_column(col, seed: int) -> np.ndarray:
    t = col.type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return hash_strings(col, seed)
    if pa.types.is_integer(t) or pa.types.is_boolean(t):
        # unsafe cast: a uint64 ≥ 2^63 keeps its bit pattern (hash_int64
        # hashes bits); every other integer width fits int64 exactly
        filled = pc.fill_null(pc.cast(col, pa.int64(), safe=False), -(1 << 62) + 12345)
        return hash_int64(filled.to_numpy(zero_copy_only=False), seed)
    if pa.types.is_timestamp(t):
        filled = pc.fill_null(
            pc.cast(pc.cast(col, pa.timestamp("us")), pa.int64()), -(1 << 62) + 12345
        )
        return hash_int64(filled.to_numpy(zero_copy_only=False), seed)
    if pa.types.is_floating(t):
        # +0.0 canonicalizes -0.0; null and NaN collapse to the canonical
        # NaN bit pattern (acceptable for bucket assignment)
        v = pc.add(pc.cast(col, pa.float64()), pa.scalar(0.0))
        arr = np.array(v.to_numpy(zero_copy_only=False), dtype=np.float64)
        arr[np.isnan(arr)] = np.nan
        return hash_int64(arr.view(np.uint64), seed)
    # fallback: cast through string
    return hash_strings(pc.cast(col, pa.string()), seed)


def hash_columns(tbl: pa.Table, cols: list[str], seed: int = 0) -> np.ndarray:
    """uint64 hash per row over the named key columns — the stable
    replacement for polars ``hash_rows``. Integer widths and timestamp
    units are canonicalized so both sides of a join bucket identically."""
    h = None
    for c in cols:
        hc = _hash_column(tbl.column(c), seed)
        h = hc if h is None else combine_hashes(h, hc)
    assert h is not None, "hash_columns needs at least one column"
    return h


def bucket_ids(tbl: pa.Table, cols: list[str], num_buckets: int) -> pa.Array:
    """Int32 shuffle-bucket column from the key columns."""
    h = hash_columns(tbl, cols)
    return pa.array((h % np.uint64(num_buckets)).astype(np.int32))


import threading as _threading

_DUCK = None
_DUCK_LOCK = _threading.Lock()  # created eagerly — lazy creation would itself race


def md5_hex(col, null_as: str = "None") -> pa.ChunkedArray:
    """Vectorized md5 hex digests of a string column (DuckDB's C kernel —
    no per-row Python loop). Used where the engine's outputs are defined
    as SQL ``md5()`` (fingerprints, split assignment, deterministic
    sampling ranks). Nulls are digested as ``null_as`` (default "None",
    matching the previous per-row ``str(v)`` behaviour; fingerprints pass
    ""). One lazily-built connection per worker process, pinned to a
    single thread so Ray's ``num_cpus`` accounting stays honest. The
    register/execute/unregister sequence on the shared connection is
    serialized under a lock — Ray map_batches workers are
    single-threaded today, but a threaded caller would otherwise clobber
    another thread's registration mid-query."""
    global _DUCK
    import duckdb

    with _DUCK_LOCK:
        if _DUCK is None:
            _DUCK = duckdb.connect()
            _DUCK.execute("SET threads TO 1")
        if not isinstance(col, (pa.Array, pa.ChunkedArray)):
            col = pa.array(col)
        if not pa.types.is_string(col.type):
            col = pc.cast(col, pa.string())
        tbl = pa.table({"v": pc.fill_null(col, null_as)})
        _DUCK.register("__md5_in", tbl)
        try:
            out = _DUCK.execute("SELECT md5(v) AS h FROM __md5_in").arrow().column("h")
        finally:
            _DUCK.unregister("__md5_in")
    return out


def sha256_quads(col) -> pa.Table:
    """Vectorized SHA-256 of a string column as four nullable uint64
    words (big-endian digest order) — DuckDB's C kernel, no per-row
    Python hashing. NULL inputs yield NULL words (callers group nulls
    as their own identity class, like SQL ``GROUP BY``). Same
    single-threaded locked-connection discipline as :func:`md5_hex`;
    DuckDB CSEs the repeated ``sha256(v)`` so the digest is computed
    once per row."""
    global _DUCK
    import duckdb

    with _DUCK_LOCK:
        if _DUCK is None:
            _DUCK = duckdb.connect()
            _DUCK.execute("SET threads TO 1")
        if not isinstance(col, (pa.Array, pa.ChunkedArray)):
            col = pa.array(col)
        if not pa.types.is_string(col.type) and not pa.types.is_large_string(col.type):
            col = pc.cast(col, pa.string())
        _DUCK.register("__sha_in", pa.table({"v": col}))
        try:
            out = _DUCK.execute(
                "SELECT "
                "('0x' || substr(sha256(v), 1, 16))::UBIGINT AS d0, "
                "('0x' || substr(sha256(v), 17, 16))::UBIGINT AS d1, "
                "('0x' || substr(sha256(v), 33, 16))::UBIGINT AS d2, "
                "('0x' || substr(sha256(v), 49, 16))::UBIGINT AS d3 "
                "FROM __sha_in"
            ).arrow()
        finally:
            _DUCK.unregister("__sha_in")
    return out


def sha256_hex(col, null_as: str = "") -> pa.ChunkedArray:
    """Vectorized SHA-256 hex digests of a string column (DuckDB's C
    kernel — no per-row Python hashing). This is the SAME digest the
    extraction stage mints per file (hashlib over utf-8 bytes;
    DuckDB strings are utf-8, so the two agree — pytest-pinned in
    test_round5_ops). Null handling mirrors :func:`md5_hex`."""
    global _DUCK
    import duckdb

    with _DUCK_LOCK:
        if _DUCK is None:
            _DUCK = duckdb.connect()
            _DUCK.execute("SET threads TO 1")
        if not isinstance(col, (pa.Array, pa.ChunkedArray)):
            col = pa.array(col)
        if not pa.types.is_string(col.type) and not pa.types.is_large_string(col.type):
            col = pc.cast(col, pa.string())
        _DUCK.register("__sha_in", pa.table({"v": pc.fill_null(col, null_as)}))
        try:
            out = _DUCK.execute("SELECT sha256(v) AS h FROM __sha_in").arrow().column("h")
        finally:
            _DUCK.unregister("__sha_in")
    return out


def levenshtein_nearest(col, candidates: list[str]):
    """For each string, the candidate with the smallest Levenshtein
    distance (ties → lexicographically smallest candidate) — DuckDB's C
    kernel over one batch×candidates cross join, no per-row Python.
    NULL inputs yield NULL (best, dist), matching SQL ``levenshtein``
    propagation. Same locked single-threaded shared-connection
    discipline as :func:`md5_hex`. Returns ``(best, dist)`` arrays."""
    global _DUCK
    import duckdb

    # fail fast on the driver with a clear message — an empty or
    # None-bearing vocabulary otherwise surfaces as an opaque arrow
    # length-mismatch / TypeError deep inside a Ray worker task
    if not candidates or any(not isinstance(c, str) for c in candidates):
        raise ValueError("candidates must be a non-empty list of strings")

    with _DUCK_LOCK:
        if _DUCK is None:
            _DUCK = duckdb.connect()
            _DUCK.execute("SET threads TO 1")
        if not isinstance(col, (pa.Array, pa.ChunkedArray)):
            col = pa.array(col, pa.string())
        n = len(col)
        valid = pc.is_valid(col)
        tbl = pa.table(
            {"i": pa.array(range(n), pa.int64()), "v": pc.fill_null(col, "")}
        )
        cand = pa.table({"c": pa.array(sorted(set(candidates)), pa.string())})
        _DUCK.register("__lev_in", tbl)
        _DUCK.register("__lev_cand", cand)
        try:
            out = _DUCK.execute(
                """SELECT i, c, d FROM (
                     SELECT t.i, c.c, levenshtein(t.v, c.c) AS d,
                            row_number() OVER (PARTITION BY t.i
                                ORDER BY levenshtein(t.v, c.c), c.c) AS rn
                     FROM __lev_in t CROSS JOIN __lev_cand c
                   ) WHERE rn = 1 ORDER BY i"""
            ).arrow()
        finally:
            _DUCK.unregister("__lev_in")
            _DUCK.unregister("__lev_cand")
    invalid = pc.invert(valid)
    null_s, null_i = pa.scalar(None, pa.string()), pa.scalar(None, pa.int64())
    best = pc.if_else(invalid, null_s, out.column("c").combine_chunks())
    dist = pc.if_else(invalid, null_i, pc.cast(out.column("d"), pa.int64()).combine_chunks())
    return best, dist


def hex8_to_u32(arr) -> np.ndarray:
    """Vectorized parse of 8-char lowercase-hex strings to uint32 — the
    numeric view of an md5 digest's first 32 bits, bit-identical to SQL
    ``CAST('0x' || substr(md5(x), 1, 8) AS BIGINT)``. No per-row Python:
    the char buffer is indexed as one (n, 8) uint8 matrix and folded
    with a power-of-16 dot product. Inputs must be non-null (callers
    digest a non-null id column)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.zeros(0, np.uint32)
    if arr.null_count:
        raise ValueError("hex8_to_u32: null digests")
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    offs = np.frombuffer(arr.buffers()[1], off_dtype)[arr.offset : arr.offset + n + 1]
    buf = np.frombuffer(arr.buffers()[2], np.uint8)
    if not ((offs[1:] - offs[:-1]) == 8).all():
        raise ValueError("hex8_to_u32: expected exactly 8 chars per value")
    idx = offs[:-1, None].astype(np.int64) + np.arange(8, dtype=np.int64)
    codes = buf[idx].astype(np.uint32)
    digits = codes - 48 - 39 * (codes >= 97)  # '0'-'9' then 'a'-'f'
    weights = (np.uint32(16) ** np.arange(7, -1, -1, dtype=np.uint32)).astype(np.uint64)
    return digits.astype(np.uint64).dot(weights).astype(np.uint32)
