"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Ray-Data-first shapes:

- exact:   digest key rows → one bucketed shuffle on the digest
           (ops/shuffle.py) → keep min-doc_id per key VECTORIZED inside
           each bucket.
- minhash: shingle → minhash signature (numpy, vectorized) → banding:
           emit ``(band, band_hash, doc_id)`` rows — 20 bytes/row, no
           text and no signature in the shuffle (the signature already
           did its job producing band_hash; verification is exact either
           way, so an estimated-Jaccard prefilter would only re-ship
           redundant bytes) → one bucketed shuffle on ``band_hash``
           (collision runs found inside each bucket) emits candidate
           pairs → texts are fetched
           ONLY for the candidate ids (a tiny broadcast lookup) and pairs
           are verified with TRUE shingle Jaccard → min-reduce keeps one
           ``dup_of`` per doc (in-hand below ``_DRIVER_VERIFY_MAX``
           pairs, distributed beyond).
           Partitioning assumption: verified-candidate ids are a small
           fraction of the corpus (the point of LSH banding).
- simhash: 64-bit signature; pigeonhole banding on (max_hamming+1) chunks
           → bucketed shuffle on the chunk value → vectorized Hamming
           verify inside the bucket.

All signatures are deterministic (fixed seeds), so retried tasks reproduce
identical buckets.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from .joins import filter_by_keys
from .shuffle import aggregate, arrow_schema, bucketed, key_runs

_MERSENNE61 = np.uint64((1 << 61) - 1)
_GRAM_PRIME = np.uint64(1099511628211)  # FNV prime, wrapping 64-bit mix

# word → 64-bit hash memo (per worker process; words are zipfian so the
# hit rate is high). Bounded to keep worker heaps flat.
_WORD_CACHE: dict[str, int] = {}
_WORD_CACHE_CAP = 2_000_000


def _hash64(s: str) -> int:
    return int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "big")


def _word_hashes(words: list[str]) -> np.ndarray:
    if len(_WORD_CACHE) > _WORD_CACHE_CAP:
        _WORD_CACHE.clear()
    out = np.empty(len(words), dtype=np.uint64)
    cache = _WORD_CACHE
    for i, w in enumerate(words):
        h = cache.get(w)
        if h is None:
            h = _hash64(w)
            cache[w] = h
        out[i] = h
    return out


def _batch_word_hashes(texts) -> tuple[np.ndarray, np.ndarray]:
    """(word_hashes_flat, words_per_doc) for a whole Arrow string column.

    Tokenization is one Arrow ``utf8_split_whitespace`` pass (Python
    ``str.split()`` semantics: empty tokens from edge whitespace dropped);
    per-word hashing runs the cached blake2b only over the batch's
    DISTINCT words (dictionary encode), then fans out by indices — values
    are bit-identical to the per-doc ``_word_hashes`` path."""
    import pyarrow.compute as pc

    if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = pa.array(texts, pa.string())
    t = pc.fill_null(texts, "")
    words = pc.utf8_split_whitespace(t)
    flat = pc.list_flatten(words)
    parents = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
    keep = pc.greater(pc.utf8_length(flat), 0)
    flat = flat.filter(keep)
    counts = np.bincount(
        parents[keep.to_numpy(zero_copy_only=False)], minlength=len(t)
    ).astype(np.int64)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    enc = flat.dictionary_encode()
    uniq_h = _word_hashes(enc.dictionary.to_pylist())
    idx = enc.indices.to_numpy(zero_copy_only=False)
    return uniq_h[idx], counts


def _segment_shingles(
    wh: np.ndarray, counts: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rolling k-gram hashes for every document of a batch in one pass.

    Returns ``(shingles_flat, shingles_per_doc)`` with per-doc semantics
    identical to ``_shingles``: a doc with no words contributes the single
    shingle 0; a doc with fewer than ``k`` words contributes one shingle
    over all its words; duplicates within a doc are NOT removed here (the
    min-hash reduction is duplicate-invariant)."""
    n_docs = len(counts)
    eff_k = np.minimum(counts, k)  # per-doc gram width (0 for empty docs)
    n_sh = np.maximum(counts - eff_k + 1, 1)  # ≥1: empty docs emit shingle 0
    total = int(n_sh.sum())
    out = np.zeros(total, np.uint64)

    wstart = np.empty(n_docs + 1, np.int64)
    wstart[0] = 0
    np.cumsum(counts, out=wstart[1:])
    sstart = np.empty(n_docs + 1, np.int64)
    sstart[0] = 0
    np.cumsum(n_sh, out=sstart[1:])

    # local shingle index + absolute word position of each shingle's start
    local = np.arange(total, dtype=np.int64) - np.repeat(sstart[:-1], n_sh)
    base = np.repeat(wstart[:-1], n_sh) + local
    ek = np.repeat(eff_k, n_sh)
    # acc = Σ_j wh[base+j]·P^(eff_k-1-j): j-loop is over the tiny gram
    # width only; docs whose gram is shorter than the global k simply stop
    # accumulating (mask), so variable-width docs ride the same pass
    for j in range(int(eff_k.max()) if n_docs else 0):
        m = ek > j
        out[m] = out[m] * _GRAM_PRIME + wh[base[m] + j]
    return out, n_sh


# chunk width: (num_perm × chunk) uint64 scratch ×4 ≈ 2 MB — the whole
# working set stays in L2/L3; large chunks measured 2-4× SLOWER (every
# elementwise pass round-trips DRAM and reallocates 100 MB temporaries)
_MINHASH_CHUNK_SHINGLES = 1000

_U3, _U29, _U32, _U61 = (np.uint64(v) for v in (3, 29, 32, 61))
_MASK29 = np.uint64((1 << 29) - 1)
_MASK32 = np.uint64(0xFFFFFFFF)


def _minhash_chunk(a_hi, a_lo, b, x_hi, x_lo, out, s1, s3):
    """out = ((a·x) mod 2^61-1 + b) fully reduced, elementwise over the
    broadcast (num_perm, chunk) matrix with every operation writing into
    preallocated scratch — zero allocations per chunk, the dominant cost
    of the naive temporary-per-op version. ``x_hi``/``x_lo`` are the
    1-D 32-bit limbs of the shingle row (computed once, broadcast into
    the row-wise multiplies). Same 32-bit-limb / 2^64 ≡ 8 decomposition
    as ``_mulmod61`` (docstring there), with the one unnecessary fold
    dropped: ``t2_lo << 32 < 2^61`` needs none."""
    np.multiply(a_hi, x_hi, out=out)  # t1 = a_hi·x_hi < 2^61
    np.left_shift(out, _U3, out=out)  # t1·8 (2^64 ≡ 8)
    np.right_shift(out, _U61, out=s3)
    np.bitwise_and(out, _MERSENNE61, out=out)
    np.add(out, s3, out=out)  # fold61(t1·8)
    np.multiply(a_hi, x_lo, out=s3)
    np.multiply(a_lo, x_hi, out=s1)
    np.add(s3, s1, out=s3)  # t2 = a_hi·x_lo + a_lo·x_hi
    np.right_shift(s3, _U29, out=s1)
    np.add(out, s1, out=out)  # + t2_hi
    np.bitwise_and(s3, _MASK29, out=s1)
    np.left_shift(s1, _U32, out=s1)
    np.add(out, s1, out=out)  # + t2_lo·2^32 (< 2^61, no fold)
    np.multiply(a_lo, x_lo, out=s3)  # t3 = a_lo·x_lo
    np.right_shift(s3, _U61, out=s1)
    np.bitwise_and(s3, _MERSENNE61, out=s3)
    np.add(out, s3, out=out)
    np.add(out, s1, out=out)  # + fold61(t3); total < 2^63
    np.add(out, b, out=out)  # + b, still < 2^63
    for _ in range(2):
        np.right_shift(out, _U61, out=s1)
        np.bitwise_and(out, _MERSENNE61, out=out)
        np.add(out, s1, out=out)
    np.subtract(out, _MERSENNE61, out=out, where=out >= _MERSENNE61)


def minhash_signatures_batch(
    texts, num_perm: int = 64, shingle_k: int = 3
) -> np.ndarray:
    """(n_docs, num_perm) minhash signature matrix for a whole batch —
    bit-identical to calling ``minhash_signature`` per document, computed
    with zero per-document Python: one Arrow tokenize pass, one segmented
    rolling-shingle pass, then cache-sized chunks of the
    ``(num_perm × shingles)`` universal-hash matrix (fused in-place
    kernel) with a ``np.minimum.reduceat`` per-doc min."""
    a, b = _perm_params_cached(num_perm)
    wh, counts = _batch_word_hashes(texts)
    sh_flat, n_sh = _segment_shingles(wh, counts, shingle_k)
    sh_flat = _fold61(sh_flat)
    n_docs = len(counts)
    sstart = np.empty(n_docs + 1, np.int64)
    sstart[0] = 0
    np.cumsum(n_sh, out=sstart[1:])

    a_hi = (a >> _U32)[:, None]
    a_lo = (a & _MASK32)[:, None]
    b_col = b[:, None]
    W = _MINHASH_CHUNK_SHINGLES
    scratch = [np.empty((num_perm, W), np.uint64) for _ in range(3)]
    # fixed-width windows over the flat shingle array (never doc-aligned:
    # partial-width scratch views are non-contiguous and lose SIMD); a doc
    # spanning windows min-combines its partials into the accumulator
    sig = np.full((n_docs, num_perm), np.iinfo(np.uint64).max, np.uint64)
    total = int(sstart[-1])
    for w0 in range(0, total, W):
        w1 = min(w0 + W, total)
        m = w1 - w0
        out, s1, s3 = (s[:, :m] for s in scratch) if m < W else scratch
        seg = sh_flat[w0:w1]
        x_hi = (seg >> _U32)[None, :]
        x_lo = (seg & _MASK32)[None, :]
        _minhash_chunk(a_hi, a_lo, b_col, x_hi, x_lo, out, s1, s3)
        d0 = int(np.searchsorted(sstart, w0, "right")) - 1
        d1 = int(np.searchsorted(sstart, w1, "left"))  # docs d0..d1-1 touched
        starts = np.maximum(sstart[d0:d1] - w0, 0).astype(np.int64)
        partial = np.minimum.reduceat(out, starts, axis=1).T
        np.minimum(sig[d0:d1], partial, out=sig[d0:d1])
    return sig


def simhash64_batch(texts) -> np.ndarray:
    """uint64 simhash per document for a whole batch — same values as
    ``simhash64`` per doc, one segmented ±1 bit-sum (``np.add.reduceat``)
    instead of a per-document loop. Empty docs hash to 0."""
    wh, counts = _batch_word_hashes(texts)
    n_docs = len(counts)
    out = np.zeros(n_docs, np.uint64)
    nonempty = counts > 0
    if not nonempty.any():
        return out
    wstart = np.empty(n_docs + 1, np.int64)
    wstart[0] = 0
    np.cumsum(counts, out=wstart[1:])
    ne_idx = np.flatnonzero(nonempty)
    ne_starts = wstart[:-1][nonempty]
    # chunk by word budget so the (words × 64) bit matrix stays ~100 MB
    budget = 200_000
    lo = 0
    while lo < len(ne_idx):
        hi = int(np.searchsorted(ne_starts, ne_starts[lo] + budget, "right"))
        hi = max(hi, lo + 1)
        w_lo = ne_starts[lo]
        w_hi = wstart[ne_idx[hi - 1] + 1]
        bits = ((wh[w_lo:w_hi, None] >> _BITS64[None, :]) & np.uint64(1)).astype(np.int32)
        acc = np.add.reduceat(2 * bits - 1, (ne_starts[lo:hi] - w_lo), axis=0)
        out[ne_idx[lo:hi]] = ((acc > 0).astype(np.uint64) << _BITS64[None, :]).sum(
            axis=1, dtype=np.uint64
        )
        lo = hi
    return out


def _perm_params_cached(num_perm: int, _params={}):
    if num_perm not in _params:
        _params[num_perm] = _perm_params(num_perm)
    return _params[num_perm]


def _shingles(text: str, k: int) -> np.ndarray:
    """Unique 64-bit hashes of the word k-grams — vectorized rolling
    combination of per-word hashes (no per-gram string building).
    Tokenization is ``str.split()``, which matches Arrow's
    ``utf8_split_whitespace`` + empty-drop exactly — verified including
    the \\x1c-\\x1f separators (utf8proc splits on them too), see
    test_batch_and_perdoc_tokenization_parity."""
    words = (text or "").split()
    if not words:
        return np.array([0], dtype=np.uint64)
    wh = _word_hashes(words)
    if len(wh) < k:
        k = len(wh)
    n = len(wh) - k + 1
    acc = np.zeros(n, dtype=np.uint64)
    for j in range(k):
        acc = acc * _GRAM_PRIME + wh[j : j + n]
    return np.unique(acc)


def _fold61(x: np.ndarray) -> np.ndarray:
    """Reduce uint64 values mod 2^61-1 (one fold + conditional subtract)."""
    y = (x & _MERSENNE61) + (x >> np.uint64(61))
    return np.where(y >= _MERSENNE61, y - _MERSENNE61, y)


def _mulmod61(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(a * x) mod 2^61-1 with full 122-bit intermediate precision via
    32-bit limb decomposition (2^64 ≡ 8, 2^61 ≡ 1 mod p) — a correct
    universal hash family, unlike a wrapping 64-bit multiply."""
    mask32 = np.uint64(0xFFFFFFFF)
    a_hi, a_lo = a >> np.uint64(32), a & mask32
    x_hi, x_lo = x >> np.uint64(32), x & mask32
    t1 = a_hi * x_hi  # × 2^64 ≡ × 8
    t2 = a_hi * x_lo + a_lo * x_hi  # × 2^32
    t3 = a_lo * x_lo
    t2_hi, t2_lo = t2 >> np.uint64(29), t2 & np.uint64((1 << 29) - 1)
    total = _fold61(t1 * np.uint64(8)) + t2_hi + _fold61(t2_lo << np.uint64(32)) + _fold61(t3)
    return _fold61(_fold61(total))


def _perm_params(num_perm: int, seed: int = 7):
    rng = np.random.RandomState(seed)
    p = int(_MERSENNE61)
    a = rng.randint(1, p, size=num_perm, dtype=np.int64).astype(np.uint64)
    b = rng.randint(0, p, size=num_perm, dtype=np.int64).astype(np.uint64)
    return a, b


def minhash_signature(text: str, num_perm: int = 64, shingle_k: int = 3, _params={}) -> np.ndarray:
    key = num_perm
    if key not in _params:
        _params[key] = _perm_params(num_perm)
    a, b = _params[key]
    sh = _fold61(_shingles(text, shingle_k))
    # (num_perm, n_shingles) universal hashing mod 2^61-1, min over shingles
    vals = _fold61(_mulmod61(a[:, None], sh[None, :]) + b[:, None])
    return vals.min(axis=1)


def optimal_bands(threshold: float, num_perm: int = 64, fp_weight: float = 0.5) -> tuple[int, int]:
    """(bands, rows_per_band) minimizing the weighted false-positive /
    false-negative integrals of the LSH S-curve ``1-(1-s^r)^b`` around
    ``threshold`` (the standard datasketch-style tuning, reimplemented).

    NOTE: the engine's dedup defaults deliberately stay recall-heavy
    (more, narrower bands than this optimum) because candidate pairs are
    verified EXACTLY afterwards — false positives only cost shuffle
    bytes, while a false negative is a missed duplicate. Use a higher
    ``fp_weight`` when candidate volume (not recall) is the constraint."""
    s = np.linspace(0.0, 1.0, 501)
    best: tuple[float, int, int] | None = None
    for r in range(1, num_perm + 1):
        b = num_perm // r
        if b < 1:
            break
        p = 1.0 - (1.0 - s**r) ** b
        fp = np.trapz(np.where(s < threshold, p, 0.0), s)
        fn = np.trapz(np.where(s >= threshold, 1.0 - p, 0.0), s)
        e = fp_weight * fp + (1.0 - fp_weight) * fn
        if best is None or e < best[0]:
            best = (e, b, r)
    assert best is not None
    return best[1], best[2]


def jaccard(text_a: str, text_b: str, shingle_k: int = 3) -> float:
    sa, sb = set(_shingles(text_a, shingle_k).tolist()), set(_shingles(text_b, shingle_k).tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def exact_dedup(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    verify: "str | bool" = "digest",
):
    """Keep the min-id row per distinct text. Returns the surviving rows.

    Scale shape (all modes): the CORPUS NEVER SHUFFLES. Only fixed-width
    key rows (digest words or hash words, plus the id) take the one
    bucketed shuffle (ops/shuffle.py); each bucket emits the ids that
    LOSE their identity group (id ≠ per-group min), and the documents
    pass one ``filter_by_keys`` anti-filter on those ids (ops/joins.py):
    the loser set is broadcast when it fits the one gate's budget, and
    a mostly-duplicate corpus takes the bucketed anti join instead. Both
    paths drop the same loser set, so the survivors never depend on
    which path ran.

    ``verify`` selects how document identity is decided:

    - ``"digest"`` (default): identity is the FULL 256-bit SHA-256 of
      the text, computed vectorized (DuckDB kernel, ops/hashing.py
      ``sha256_quads``) in the SAME pruned key scan and carried as four
      uint64 words (~44 B/row shuffle). The trade: no second corpus scan
      confirms identity by literal value, so two DIFFERENT texts merge
      only on a real SHA-256 collision (adversarially infeasible). NULL
      texts form their own identity group (SQL ``GROUP BY`` semantics).
    - ``False``: two cheap polynomial hashes at independently-seeded
      bases, no confirmation — for trusted closed corpora where even the
      digest pass is unwanted (~2⁻¹²⁸-class accidental risk; crafted
      mod-2^64 collisions are feasible, so never use this on untrusted
      training data)."""

    import polars as pl

    from .hashing import hash_strings_pair, sha256_quads

    if verify not in ("digest", False, None):
        raise ValueError(f"verify must be 'digest' or False, got {verify!r}")
    use_digest = verify == "digest"
    group_cols = ["__d0", "__d1", "__d2", "__d3"] if use_digest else ["__k1", "__k2"]

    def key_rows(batch: pa.Table) -> pa.Table:
        if use_digest:
            q = sha256_quads(batch.column(text_col))
            t = pa.table(
                {
                    "__d0": q.column("d0"),
                    "__d1": q.column("d1"),
                    "__d2": q.column("d2"),
                    "__d3": q.column("d3"),
                    id_col: batch.column(id_col),
                }
            )
        else:
            # two polynomial bases over one shared word-gather (hashing.py):
            # a real 128-bit composite key at half the previous cost
            k1, k2 = hash_strings_pair(batch.column(text_col), 11, 12)
            t = pa.table(
                {
                    "__k1": pa.array(k1, pa.uint64()),
                    "__k2": pa.array(k2, pa.uint64()),
                    id_col: batch.column(id_col),
                }
            )
        # every row flows (a block-local loser is already a global loser —
        # its block's min id bounds the global min — and must be REPORTED,
        # not silently dropped); no combiner here, the rows are ≤44 bytes
        return t

    def bucket_pairs(group: pa.Table) -> pa.Table:
        # per identity group: winner = min id; emit every other id.
        # Digest groups ARE the identity (SHA-256); polynomial groups are
        # trusted as identity (verify=False). polars windows
        # group null keys together, so all-NULL digest rows (null text)
        # form one identity group like SQL GROUP BY.
        out = (
            pl.from_arrow(group.select([*group_cols, id_col]))
            .with_columns(pl.col(id_col).min().over(group_cols).alias("__w"))
            .filter(pl.col(id_col) != pl.col("__w"))
            .select(pl.col(id_col).alias("loser"))
        )
        return out.to_arrow()

    # the pair pass scans the corpus a FIRST time and a broadcast loser
    # filter rescans it rather than shuffling it (a shuffle is
    # read+write+network of every byte, a rescan is a read); prune the
    # first scan to the two needed columns
    keys = ds.select_columns([text_col, id_col]).map_batches(
        key_rows, batch_format="pyarrow", zero_copy_batch=True
    )
    losers = bucketed(keys, group_cols[:1], bucket_pairs)
    return filter_by_keys(
        ds, losers, on=id_col, keys_on="loser", anti=True,
        op="exact_dedup",
    )


# ---------------------------------------------------------------------------
# MinHash + LSH near-dedup (signature-only shuffle)
# ---------------------------------------------------------------------------


def _band_rows(ds, *, num_perm: int, bands: int, shingle_k: int, text_col: str, id_col: str):
    """(band, band_hash, doc_id) rows — ~20 bytes/row; neither text nor
    signature enters the shuffle."""
    rows_per_band = num_perm // bands

    def emit(batch: pa.Table) -> pa.Table:
        from .hashing import combine_hashes, hash_int64

        sig = minhash_signatures_batch(
            batch.column(text_col), num_perm, shingle_k
        )  # (n, num_perm), zero per-doc Python
        n = sig.shape[0]
        # vectorized band hash: seeded mix-chain over the band's rows —
        # equality iff the sig chunk is equal (mod 64-bit collisions),
        # which is all band_hash is for
        hashes = np.empty((bands, n), np.uint64)
        for b in range(bands):
            h = hash_int64(sig[:, b * rows_per_band], seed=b + 1)
            for r in range(1, rows_per_band):
                h = combine_hashes(h, sig[:, b * rows_per_band + r])
            hashes[b] = h
        ids = batch.column(id_col)
        return pa.table(
            {
                "band": pa.array(np.repeat(np.arange(bands, dtype=np.int32), n)),
                "band_hash": pa.array(hashes.reshape(-1), pa.uint64()),
                id_col: pa.concat_arrays(
                    [ids.combine_chunks() if isinstance(ids, pa.ChunkedArray) else ids]
                    * bands
                ),
            }
        )

    return ds.map_batches(emit, batch_format="pyarrow", zero_copy_batch=True)


# collision runs at or below this size emit ALL pairs (exact recall of the
# classic LSH candidate set); larger runs emit STAR + CHAIN pairs — min-id
# representative vs every member, plus each consecutive id pair. Emission
# is O(run) instead of O(run²): a boilerplate cluster of 10^6 identical
# docs emits ~2·10^6 pairs per band, not 5·10^11. Recall caveat (inherent
# to ANY sub-quadratic run emission): a member of a >cap run whose pairwise
# jaccard clears the threshold only against some OTHER non-adjacent member
# can be missed when both its star and chain pairs fail verification —
# large band-collision runs are near-identical clusters in practice, which
# is why the star survives verification there. Keep-min `dup_of`
# consumers get transitive closure via ops.graph.connected_components
# (see __ray_entry__._q_dedup_clusters); raw PAIR mining beyond the cap
# under-reports intra-run pairs, which is the documented cap behaviour.
_ALL_PAIRS_RUN_CAP = 32


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``0..c-1`` for every ``c`` in ``counts``, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


def _bucket_candidate_pairs(group: pa.Table, id_col: str) -> pa.Table:
    """The candidate pairs of one ``band_hash`` bucket of band rows: one
    arrow sort on ``(band, band_hash, id)`` lays every collision run out
    contiguously, ids ascending (NULL last); a doc repeated inside a run
    counts once (NULL ids are one doc). Runs of at most
    ``_ALL_PAIRS_RUN_CAP`` docs emit all their pairs — one
    ``triu_indices`` per distinct run size — and larger runs star + chain
    pairs. → (doc_a, doc_b), doc_a < doc_b, ids in their input dtype."""
    import pyarrow.compute as pc

    order = pc.sort_indices(
        group, sort_keys=[("band", "ascending"), ("band_hash", "ascending"), (id_col, "ascending")]
    )
    g = group.take(order)
    pos, _ = key_runs(g, ["band", "band_hash", id_col])  # one row per doc and run
    starts = np.searchsorted(pos, key_runs(g, ["band", "band_hash"])[0])
    sizes = np.diff(np.r_[starts, pos.size])
    a_parts, b_parts = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for size in np.unique(sizes[(sizes >= 2) & (sizes <= _ALL_PAIRS_RUN_CAP)]):
        first = starts[sizes == size][:, None]
        xs, ys = np.triu_indices(size, k=1)
        a_parts.append((first + xs).ravel())
        b_parts.append((first + ys).ravel())
    big = sizes > _ALL_PAIRS_RUN_CAP
    if big.any():
        # star (min-id rep vs rest) + chain (consecutive ids): 2(n-1)
        # pairs — the chain recovers clusters whose members resemble
        # their neighbours more than the representative
        first, n = starts[big], sizes[big]
        star = np.repeat(first, n - 1)
        chain = np.repeat(first + 1, n - 2) + _ragged_arange(n - 2)
        a_parts += [star, chain]
        b_parts += [star + 1 + _ragged_arange(n - 1), chain + 1]
        import logging

        logging.getLogger(__name__).info(
            "LSH: %d collision runs > %d members emitted star + chain pairs",
            int(big.sum()),
            _ALL_PAIRS_RUN_CAP,
        )
    ids = g.column(id_col)
    return pa.table(
        {
            "doc_a": ids.take(pa.array(pos[np.concatenate(a_parts)], pa.int64())),
            "doc_b": ids.take(pa.array(pos[np.concatenate(b_parts)], pa.int64())),
        }
    )


def _candidate_pairs(band_ds, *, id_col: str):
    """Band-bucket collision mining with one bucketed shuffle on
    ``band_hash`` (ops/shuffle.py); each bucket's pairs come from
    :func:`_bucket_candidate_pairs` — all pairs for runs ≤
    ``_ALL_PAIRS_RUN_CAP``, star + chain pairs beyond it.
    → (doc_a, doc_b), doc_a < doc_b."""
    return bucketed(band_ds, ["band_hash"], lambda group: _bucket_candidate_pairs(group, id_col))


def _dedup_pairs(pairs_ds):
    """Distinct (doc_a, doc_b) rows without driver materialization: one
    bucketed shuffle on ``doc_a`` (a pair appears with the same doc_a in
    every band, so all copies co-locate), vectorized drop_duplicates
    inside each bucket."""

    def bucket_distinct(group: pa.Table) -> pa.Table:
        df = group.to_pandas().drop_duplicates(["doc_a", "doc_b"])
        return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata()

    return bucketed(pairs_ds, ["doc_a"], bucket_distinct)


# at or below this many candidate pairs, exact verification runs in-hand
# on the driver (pairs collected ONLY after a distributed count proves the
# set small); above it, verification is a fully distributed two-sided
# bucketed join of texts onto pairs — neither pairs nor texts ever land
# on the driver.
_DRIVER_VERIFY_MAX = 100_000


def _fetch_texts(ds, ids: set, *, text_col: str, id_col: str) -> dict:
    """Texts for ONLY the candidate ids — a streaming filter over the
    corpus collecting a result bounded by the candidate count. Driver-path
    helper: callers gate on the (counted-small) candidate set first."""
    import ray

    ids_ref = ray.put(pa.array(sorted(ids)))

    def pick(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.is_in(batch.column(id_col), value_set=ray.get(ids_ref))
        return batch.filter(keep).select([id_col, text_col])

    picked = ds.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    return dict(zip(picked[id_col], picked[text_col]))


def _verify_pairs_driver(ds, cand_df, *, shingle_k, threshold, text_col, id_col):
    """Counted-small path: verify pairs in-hand with a per-doc shingle
    cache (clusters of dups create many pairs per doc — per-pair
    re-shingling is quadratic work). → pandas (doc_a, doc_b, jaccard)."""
    import pandas as pd

    texts = _fetch_texts(
        ds, set(cand_df.doc_a) | set(cand_df.doc_b), text_col=text_col, id_col=id_col
    )
    cache = {
        i: set(_shingles(texts.get(i, ""), shingle_k).tolist())
        for i in set(cand_df.doc_a) | set(cand_df.doc_b)
    }

    def j(a, b):
        sa, sb = cache[a], cache[b]
        if not sa and not sb:
            return 1.0
        return len(sa & sb) / len(sa | sb)

    scores = [round(j(a, b), 6) for a, b in zip(cand_df.doc_a, cand_df.doc_b)]
    out = cand_df[["doc_a", "doc_b"]].copy()
    out["jaccard"] = scores
    return out[pd.Series(scores, index=out.index) >= threshold]


def _verify_pairs_joined(ds, pairs_ds, *, shingle_k, threshold, text_col, id_col):
    """Scale path: attach both texts to each pair via two bucketed
    two-large-sides joins (texts shuffled once per side, never collected),
    then verify TRUE shingle-Jaccard per batch with an in-batch shingle
    cache. → Dataset(doc_a, doc_b, jaccard)."""
    from .joins import hash_join_bucketed

    def texts_as(key: str, text_out: str):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table(
                {key: batch.column(id_col), text_out: batch.column(text_col)}
            )

        return fn

    texts_a = ds.map_batches(
        texts_as("__ja", "__text_a"), batch_format="pyarrow", zero_copy_batch=True
    )
    texts_b = ds.map_batches(
        texts_as("__jb", "__text_b"), batch_format="pyarrow", zero_copy_batch=True
    )
    with_a = hash_join_bucketed(
        pairs_ds, texts_a, left_on="doc_a", right_on="__ja", right_cols=["__text_a"]
    )
    with_ab = hash_join_bucketed(
        with_a, texts_b, left_on="doc_b", right_on="__jb", right_cols=["__text_b"]
    )

    def verify(batch: pa.Table) -> pa.Table:
        a_ids = batch.column("doc_a").to_pylist()
        b_ids = batch.column("doc_b").to_pylist()
        a_txt = batch.column("__text_a").to_pylist()
        b_txt = batch.column("__text_b").to_pylist()
        cache: dict = {}
        for i, t in zip(a_ids + b_ids, a_txt + b_txt):
            if i not in cache:
                cache[i] = set(_shingles(t or "", shingle_k).tolist())

        def j(a, b):
            sa, sb = cache[a], cache[b]
            if not sa and not sb:
                return 1.0
            return len(sa & sb) / len(sa | sb)

        # gate on the ROUNDED score, exactly like the driver path — the
        # same corpus must yield the same dup set whichever side of the
        # count gate it lands on (a raw-value gate here kept 0.7999996
        # at threshold 0.8 only when the corpus was small)
        scores = [round(j(a, b), 6) for a, b in zip(a_ids, b_ids)]
        keep = pa.array([s >= threshold for s in scores])
        out = pa.table(
            {
                "doc_a": batch.column("doc_a"),
                "doc_b": batch.column("doc_b"),
                "jaccard": pa.array(scores, pa.float64()),
            }
        )
        return out.filter(keep)

    return with_ab.map_batches(verify, batch_format="pyarrow", zero_copy_batch=True)


def _min_dup_per_doc(pairs_ds, id_col: str):
    """(doc_id, dup_of[, …]): per doc keep the row with the smallest
    dup_of — bucketed min-reduce on the doc id (ops/shuffle.py)."""

    def bucket_min(group: pa.Table) -> pa.Table:
        df = group.to_pandas()
        out = df.sort_values([id_col, "dup_of"]).drop_duplicates(id_col, keep="first")
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata()

    return bucketed(pairs_ds, [id_col], bucket_min)


def minhash_lsh_duplicates(
    ds,
    *,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    threshold: float = 0.8,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """→ Dataset(doc_id, dup_of): docs judged near-duplicates of a
    smaller-id doc (verified TRUE shingle-Jaccard ≥ threshold).

    Stage 1 (map): signatures → id-only band rows. Stage 2 (bounded
    shuffle): collision pairs (star-capped runs), distinct-ed
    distributively and materialized in the OBJECT STORE (never the
    driver). Stage 3: a distributed count gates verification — in-hand
    below ``_DRIVER_VERIFY_MAX`` pairs, bucketed text-join beyond.
    Stage 4: min-reduce per doc."""
    band_ds = _band_rows(
        ds, num_perm=num_perm, bands=bands, shingle_k=shingle_k, text_col=text_col, id_col=id_col
    )
    # gate on the RAW (pre-distinct) pair count — an upper bound, so the
    # driver path is only ever taken for provably small sets, and the
    # distributed distinct shuffle is paid ONLY on the large path (the
    # small path dedups in-hand on rows it collected anyway)
    raw_pairs = _candidate_pairs(band_ds, id_col=id_col).materialize()
    n_pairs = raw_pairs.count()
    if n_pairs == 0:
        return _empty_dups(ds, id_col)
    if n_pairs <= _DRIVER_VERIFY_MAX:
        verified = _verify_pairs_driver(
            ds,
            raw_pairs.to_pandas().drop_duplicates(["doc_a", "doc_b"]),
            shingle_k=shingle_k, threshold=threshold,
            text_col=text_col, id_col=id_col,
        )
        out = (
            verified.rename(columns={"doc_b": id_col, "doc_a": "dup_of"})
            .sort_values([id_col, "dup_of"])
            .drop_duplicates(id_col, keep="first")[[id_col, "dup_of"]]
        )
        import ray.data

        if len(out) == 0:
            return _empty_dups(ds, id_col)
        return ray.data.from_pandas(out.reset_index(drop=True))

    verified_ds = _verify_pairs_joined(
        ds, _dedup_pairs(raw_pairs), shingle_k=shingle_k, threshold=threshold,
        text_col=text_col, id_col=id_col,
    )

    def as_dup(batch: pa.Table) -> pa.Table:
        return pa.table(
            {id_col: batch.column("doc_b"), "dup_of": batch.column("doc_a")}
        )

    dups = verified_ds.map_batches(as_dup, batch_format="pyarrow", zero_copy_batch=True)
    return _min_dup_per_doc(dups, id_col)


def _empty_dups(ds, id_col: str):
    """Empty (id, dup_of) result preserving the corpus id dtype."""
    import ray.data

    try:
        id_type = ds.schema().base_schema.field(id_col).type
    except Exception:
        id_type = pa.int64()
    return ray.data.from_arrow(
        pa.table({id_col: pa.array([], id_type), "dup_of": pa.array([], id_type)})
    )


def ngram_jaccard_pairs(
    ds,
    *,
    threshold: float = 0.5,
    shingle_k: int = 3,
    num_perm: int = 64,
    bands: int = 32,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """All near-duplicate PAIRS with their TRUE n-gram Jaccard scores.

    Candidate generation via id-only MinHash banding (more bands than the
    dedup path → recall at lower thresholds), exact verification over
    texts joined (scale path) or fetched for only the candidates
    (counted-small path). Runs beyond ``_ALL_PAIRS_RUN_CAP`` contribute
    star pairs only (see ``_candidate_pairs``).
    → Dataset(doc_a, doc_b, jaccard), doc_a < doc_b."""
    import ray.data

    band_ds = _band_rows(
        ds, num_perm=num_perm, bands=bands, shingle_k=shingle_k, text_col=text_col, id_col=id_col
    )
    # same raw-count gate as minhash_lsh_duplicates: distinct shuffle only
    # on the large path, in-hand drop_duplicates on the small one
    raw_pairs = _candidate_pairs(band_ds, id_col=id_col).materialize()
    n_pairs = raw_pairs.count()
    if n_pairs == 0:
        try:
            id_type = ds.schema().base_schema.field(id_col).type
        except Exception:
            id_type = pa.int64()
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_a": pa.array([], id_type),
                    "doc_b": pa.array([], id_type),
                    "jaccard": pa.array([], pa.float64()),
                }
            )
        )
    if n_pairs <= _DRIVER_VERIFY_MAX:
        verified = _verify_pairs_driver(
            ds,
            raw_pairs.to_pandas().drop_duplicates(["doc_a", "doc_b"]),
            shingle_k=shingle_k, threshold=threshold,
            text_col=text_col, id_col=id_col,
        )
        return ray.data.from_pandas(
            verified.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
        )
    return _verify_pairs_joined(
        ds, _dedup_pairs(raw_pairs), shingle_k=shingle_k, threshold=threshold,
        text_col=text_col, id_col=id_col,
    )


# ---------------------------------------------------------------------------
# Cross-split decontamination
# ---------------------------------------------------------------------------


def decontaminate(
    train_ds,
    test_ds,
    *,
    ngram: int = 8,
    min_hits: int = 1,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Per-train-document contamination report against a held-out set:
    how many of the doc's word ``ngram``-grams also appear in ANY test
    document, and whether that reaches ``min_hits`` (the standard
    n-gram-overlap decontamination rule used for pre-training corpora).

    Ray shape: the test side's distinct n-gram hashes are built once,
    sorted, and BROADCAST via ``ray.put`` (read per task, never re-shipped
    per batch); the train side streams through one ``map_batches`` doing a
    segmented shingle pass + ``np.searchsorted`` membership — no shuffle
    at all. Partitioning assumption: the held-out set is small relative
    to the corpus (the normal case — benchmarks vs a 100-TB crawl); a
    huge test side would need the bucketed-join variant instead.

    → Dataset(doc_id, n_ngrams, n_contaminated, contaminated:bool).
    """
    import ray
    import ray.data  # noqa: F401

    def test_grams(batch: pa.Table) -> pa.Table:
        wh, counts = _batch_word_hashes(batch.column(text_col))
        sh, n_sh = _segment_shingles(wh, counts, ngram)
        sh = sh[np.repeat(counts >= ngram, n_sh)]  # drop short-doc sentinels
        return pa.table({"g": pa.array(np.unique(sh), pa.uint64())})

    # materialized first: on a lazy plan, to_arrow_refs runs it again for its schema
    gram_refs = test_ds.map_batches(
        test_grams, batch_format="pyarrow", zero_copy_batch=True
    ).materialize().to_arrow_refs()
    gram_tbls = ray.get(gram_refs)
    arrays = [t.column("g").to_numpy(zero_copy_only=False) for t in gram_tbls if t.num_rows]
    test_set = (
        np.unique(np.concatenate(arrays)) if arrays else np.empty(0, np.uint64)
    )
    ref = ray.put(test_set)  # one object-store copy, zero per-batch reships

    def score(batch: pa.Table) -> pa.Table:
        grams = ray.get(ref)
        wh, counts = _batch_word_hashes(batch.column(text_col))
        sh, n_sh = _segment_shingles(wh, counts, ngram)
        # docs shorter than the gram width have no real n-grams: their
        # single truncated shingle must not count, nor the empty-doc 0
        real = np.repeat(counts >= ngram, n_sh)
        hit = np.zeros(len(sh), bool)
        if len(grams):
            idx = np.searchsorted(grams, sh)
            idx[idx == len(grams)] = 0
            hit = (grams[idx] == sh) & real
        starts = np.r_[0, np.cumsum(n_sh)][:-1]
        n_hits = np.add.reduceat(hit.astype(np.int64), starts) if len(sh) else np.zeros(0, np.int64)
        n_grams = np.where(counts >= ngram, counts - ngram + 1, 0)
        return pa.table(
            {
                id_col: batch.column(id_col),  # output keeps the caller's id name
                "n_ngrams": pa.array(n_grams, pa.int64()),
                "n_contaminated": pa.array(n_hits, pa.int64()),
                "contaminated": pa.array(n_hits >= min_hits),
            }
        )

    return train_ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# SimHash near-dedup
# ---------------------------------------------------------------------------

_BITS64 = np.arange(64, dtype=np.uint64)


def simhash64(text: str) -> int:
    """Vectorized: per-word 64-bit hashes → bit matrix via one broadcasted
    shift → ±1 column sums."""
    words = (text or "").split()
    if not words:
        return 0
    wh = _word_hashes(words)
    bits = ((wh[:, None] >> _BITS64[None, :]) & np.uint64(1)).astype(np.int64)
    acc = (2 * bits - 1).sum(axis=0)
    return int(((acc > 0).astype(np.uint64) << _BITS64).sum())


def simhash_duplicates(ds, *, max_hamming: int = 3, text_col: str = "text", id_col: str = "doc_id"):
    """Pigeonhole banding: hamming ≤ k ⇒ at least one of k+1 chunks is
    bit-identical, so grouping by each chunk finds every candidate pair.
    → Dataset(doc_id, dup_of, hamming)."""
    n_chunks = max_hamming + 1
    width = 64 // n_chunks

    def chunk_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        sigs = simhash64_batch(batch.column(text_col))
        n = len(ids)
        out_chunk = np.repeat(np.arange(n_chunks, dtype=np.int32), n)
        out_ids = np.tile(np.asarray(ids), n_chunks)
        out_sig = np.tile(sigs, n_chunks)
        vals = []
        for c in range(n_chunks):
            lo = c * width
            hi = 64 if c == n_chunks - 1 else lo + width  # last chunk absorbs remainder
            vals.append(((sigs >> np.uint64(lo)) & np.uint64((1 << (hi - lo)) - 1)).astype(np.int64))
        out_vals = np.concatenate(vals)
        return pa.table(
            {
                "chunk": pa.array(out_chunk),
                "chunk_val": pa.array(out_vals),
                id_col: pa.array(out_ids.tolist()),
                "sig": pa.array(out_sig),
            }
        )

    def verify_bucket(group: pa.Table) -> pa.Table:
        df = group.to_pandas()
        sizes = df.groupby(["chunk", "chunk_val"])[id_col].transform("size")
        coll = df[sizes > 1]
        did, dof, out_h = [], [], []
        for (_c, _v), sub in coll.groupby(["chunk", "chunk_val"]):
            sub = sub.sort_values(id_col)
            ids = sub[id_col].to_numpy()
            sigs = sub["sig"].to_numpy().astype(np.uint64)
            # drop duplicate-id rows (same doc emitted twice) so a doc
            # never matches only itself and gets skipped
            keep = np.ones(len(ids), dtype=bool)
            keep[1:] = ids[1:] != ids[:-1]
            ids, sigs = ids[keep], sigs[keep]
            n = len(ids)
            if n < 2:
                continue
            # Collapse identical signatures FIRST: a boilerplate cluster
            # of k identical docs has 1 distinct sig, so the pairwise
            # matrix is m×m over DISTINCT sigs (m ≪ n for skewed runs),
            # not n×n over docs. min-id semantics are preserved exactly:
            # the old per-doc "first earlier row within hamming" equals
            # min over neighbor sigs of that sig's min id (rows are
            # id-sorted, min_id(s) ≤ every id with sig s).
            uniq, inv = np.unique(sigs, return_inverse=True)
            m = len(uniq)
            # first (== min-id) row position per distinct sig
            _, first_pos = np.unique(inv, return_index=True)
            xor = uniq[:, None] ^ uniq[None, :]
            ham = np.unpackbits(
                xor.view(np.uint8).reshape(m, m, 8), axis=2
            ).sum(axis=2)
            nbr = ham <= max_hamming
            # per distinct sig: the earliest row position among neighbor
            # sigs' representatives, and the hamming to that neighbor
            posmat = np.where(nbr, first_pos[None, :], n)
            best_pos = posmat.min(axis=1)
            best_nbr = posmat.argmin(axis=1)
            for i in range(1, n):
                u = inv[i]
                bp = int(best_pos[u])
                if bp < i:
                    did.append(ids[i])
                    dof.append(ids[bp])
                    out_h.append(int(ham[u, best_nbr[u]]))
        id_type = group.schema.field(id_col).type
        return pa.table(
            {
                id_col: pa.array(did, id_type),
                "dup_of": pa.array(dof, id_type),
                "hamming": pa.array(out_h, pa.int32()),
            }
        )

    chunks = ds.map_batches(chunk_rows, batch_format="pyarrow", zero_copy_batch=True)
    return _min_dup_per_doc(bucketed(chunks, ["chunk", "chunk_val"], verify_bucket), id_col)


# ---------------------------------------------------------------------------
# C4-style global line dedup
# ---------------------------------------------------------------------------


def dedup_lines(ds, *, text_col: str = "text", id_col: str = "doc_id"):
    """Corpus-global line deduplication (the C4 rule): every distinct
    line is kept only at its FIRST occurrence — ordered by (doc_id,
    line_no) — and documents are rebuilt from their surviving lines
    (documents whose every line lost are dropped).

    Ray shape: explode to line rows → one bucketed shuffle on the line
    (ops/shuffle.py; winners decided by EXACT string compare inside the
    bucket) → one bucketed shuffle back on the doc id reassembling
    surviving lines in order. Line text rides both shuffles — inherent
    to line-level dedup (the corpus itself must move); at 100 TB budget
    this op like a full repartition ×2.
    Packing assumption: doc ids and per-doc line counts fit 32 bits each
    (the (doc, line_no) order key is one packed uint64 min).
    → Dataset(doc_id, text) of surviving documents.
    """
    import pyarrow.compute as pc

    def explode(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch.column(text_col), "")
        lines = pc.split_pattern(text, "\n")
        flat = lines.values if isinstance(lines, pa.ListArray) else pc.list_flatten(lines)
        parents = pc.list_parent_indices(lines)
        n_lines = pc.list_value_length(lines).to_numpy(zero_copy_only=False)
        # per-line ordinal within its doc
        starts = np.r_[0, np.cumsum(n_lines)][:-1]
        line_no = np.arange(int(n_lines.sum()), dtype=np.int64) - np.repeat(starts, n_lines)
        return pa.table(
            {
                "__doc": batch.column(id_col).take(parents),
                "__line_no": pa.array(line_no, pa.int64()),
                "__line": flat,
            }
        )

    def keep_first(group: pa.Table) -> pa.Table:
        doc = group.column("__doc").to_numpy(zero_copy_only=False)
        if not np.issubdtype(doc.dtype, np.integer):
            raise TypeError(
                f"dedup_lines requires integer {id_col!r} ids (got {doc.dtype}); "
                "the (doc, line_no) order key packs into one uint64"
            )
        lno = group.column("__line_no").to_numpy(zero_copy_only=False).astype(np.uint64)
        if (doc < 0).any() or int(doc.max(initial=0)) >= (1 << 32) or int(lno.max(initial=0)) >= (1 << 32):
            # silent uint64 wrap would crown the WRONG first occurrence
            raise ValueError(
                "dedup_lines packed order key needs doc ids and line counts "
                "in [0, 2^32); got values outside that range"
            )
        doc = doc.astype(np.uint64)
        packed = (doc << np.uint64(32)) | lno
        import polars as pl

        df = pl.DataFrame(
            {
                "line": pl.Series(group.column("__line").to_pandas(), dtype=pl.Utf8),
                "packed": packed,
            }
        )
        winner = df.group_by("line").agg(pl.col("packed").min().alias("w"))
        joined = df.join(winner, on="line", how="left")
        mask = (joined["packed"] == joined["w"]).to_numpy()
        return group.filter(pa.array(mask))

    def rebuild(group: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            group, sort_keys=[("__doc", "ascending"), ("__line_no", "ascending")]
        )
        t = group.take(idx)
        starts, _ends = key_runs(t, ["__doc"])
        lines_arr = t.column("__line")
        if isinstance(lines_arr, pa.ChunkedArray):
            lines_arr = lines_arr.combine_chunks()
        lists = pa.ListArray.from_arrays(
            pa.array(np.r_[starts, t.num_rows], pa.int32()), lines_arr
        )
        joined = pc.binary_join(lists, "\n")
        return pa.table(
            {
                id_col: t.column("__doc").take(pa.array(starts, pa.int64())),
                text_col: joined,
            }
        )

    lines = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    survivors = bucketed(lines, ["__line"], keep_first)
    return bucketed(survivors, ["__doc"], rebuild)


def _span_schema(id_col: str, id_type, *, with_offset: bool) -> pa.Schema:
    fields = [(id_col, id_type)]
    if with_offset:
        fields.append(("off", pa.int64()))
    fields.append(("h", pa.string()))
    return pa.schema(fields)


def _make_span_emitter(window: int, stride: int, text_col: str, id_col: str, span_schema: pa.Schema, *, with_offset: bool):
    """Span-hash emission shared by duplicate_spans and the cut pass: a
    per-batch loop over STRIDE OFFSETS — each iteration one vectorized
    arrow slice + md5 over the whole batch, never per-row Python. The
    per-offset parts leave as one chunk per column."""
    import pyarrow.compute as pc

    from .hashing import md5_hex

    def spans(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch.column(text_col), "")
        ids = batch.column(id_col)
        lens = pc.utf8_length(text).to_numpy(zero_copy_only=False)
        parts = []
        max_len = int(lens.max()) if len(lens) else 0
        for off in range(0, max(max_len - window + 1, 0), stride):
            mask = pa.array(lens >= off + window)
            sub_text = pc.utf8_slice_codeunits(text.filter(mask), off, off + window)
            cols = {id_col: ids.filter(mask)}
            if with_offset:
                cols["off"] = pa.nulls(len(sub_text), pa.int64()).fill_null(off)
            cols["h"] = md5_hex(sub_text)
            parts.append(pa.table(cols, schema=span_schema))
        if not parts:
            return span_schema.empty_table()
        return pa.concat_tables(parts).combine_chunks()

    return spans


def _check_span_args(window: int, stride: int, min_docs: int) -> None:
    if window <= 0 or stride <= 0:
        raise ValueError(f"window and stride must be positive, got {window}, {stride}")
    if min_docs < 2:
        raise ValueError(f"min_docs must be >= 2, got {min_docs}")


def _flagged_spans(
    ds, id_type, *, window, stride, min_docs, text_col, id_col, with_offset
):
    """The span rows (``id_col``[, ``off``], ``h``) of ``ds`` whose hash
    ``h`` occurs in at least ``min_docs`` distinct documents: one md5
    span scan, ONE bucketed shuffle on ``h``, and inside each bucket one
    arrow ``count_distinct`` of ids per hash (a NULL id counts as one
    document, like SQL's ``SELECT DISTINCT h, doc_id``). ``id_type`` comes
    from the input's schema, which is metadata-cheap (parquet read /
    in-memory source); the lazy span dataset's would execute the whole
    extraction. → (Dataset, its schema)."""
    import pyarrow.compute as pc

    span_schema = _span_schema(id_col, id_type, with_offset=with_offset)
    span_ds = ds.map_batches(
        _make_span_emitter(window, stride, text_col, id_col, span_schema, with_offset=with_offset),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def flag(group: pa.Table) -> pa.Table:
        n = aggregate(group, ["h"], [(id_col, "count_distinct", pc.CountOptions(mode="all"))])
        dup_h = n.column("h").filter(pc.greater_equal(n.column(f"{id_col}_count_distinct"), min_docs))
        return group.filter(pc.is_in(group.column("h"), value_set=dup_h))

    return bucketed(span_ds, ["h"], flag), span_schema


def duplicate_spans(
    ds,
    *,
    window: int = 64,
    stride: int = 32,
    min_docs: int = 2,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Exact duplicated-substring detection — the per-span signal behind
    suffix-array substring dedup (Lee et al. 2022, "Deduplicating
    Training Data Makes Language Models Better"; public method), made
    shuffle-friendly by fixed ``window``-char spans at ``stride``:
    every span is content-hashed, spans whose text occurs in at least
    ``min_docs`` DISTINCT documents are flagged, and the op returns the
    per-document count of flagged spans (the input to a "cut duplicated
    runs" pass or a doc-level boilerplate score).

    Ray shape: span emission is a per-batch loop over STRIDE OFFSETS —
    each iteration is one vectorized arrow slice + md5 (DuckDB C
    kernel) over the whole batch, so total work is O(total chars /
    stride × window) with never a per-row Python loop. Only
    ``(doc_id, span_hash)`` rows shuffle; the corpus text never does.
    Two bounded shuffles: the span rows meet bucketed on the hash, where
    each bucket keeps the rows whose hash has ≥ ``min_docs`` distinct
    docs (one arrow ``count_distinct``), then a per-doc count. The
    corpus is scanned once.

    Hash caveat (same contract as the minhash family): md5 identity is
    a FLAGGING signal, not a deletion decision — a caller deleting
    content should value-verify like ``exact_dedup`` does.

    Spans are codepoint-based: arrow ``utf8_slice_codeunits`` and SQL
    ``substr`` agree on characters, so the op is oracle-checkable.
    Docs shorter than ``window`` contribute no spans.

    → Dataset(``id_col``, ``n_dup_spans``); docs with zero duplicated
    spans are omitted. An input with no schema (an empty stream) comes
    back as it is: it has no rows.
    """
    from jsonld_ex_ray.ops.agg import groupby_agg

    _check_span_args(window, stride, min_docs)
    in_schema = arrow_schema(ds)
    if in_schema is None:
        return ds
    flagged, _ = _flagged_spans(
        ds, in_schema.field(id_col).type, window=window, stride=stride, min_docs=min_docs,
        text_col=text_col, id_col=id_col, with_offset=False,
    )
    return groupby_agg(
        flagged, [id_col], [("h", "count", "n_dup_spans")]
    )


def lsh_exactdup_candidate_pairs(
    ds,
    *,
    num_perm: int = 64,
    bands: int = 32,
    shingle_k: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """LSH candidate-superset invariant, as an ORACLE-CHECKABLE query:
    the exact-duplicate pairs (byte-identical text) that the MinHash/LSH
    banding surfaces as candidates. Identical texts produce identical
    signatures, hence identical band hashes in EVERY band — so every
    exact-dup pair MUST appear in the candidate set, and this op's
    result equals the full exact-dup pair set (SQL: self-join on
    ``md5(text)``, ``a < b``). A missing pair means the banding /
    signature / pair-emission machinery dropped a guaranteed collision —
    exactly the regression this query exists to catch.

    SCOPE: the pair-set EQUALITY holds while every duplicate group has
    ≤ ``_ALL_PAIRS_RUN_CAP`` (32) members — ``_candidate_pairs`` emits
    all pairs of a band run up to the cap and star+chain above it, so a
    text duplicated 33+ times yields a candidate set that still CONNECTS
    the group (the dedup guarantee) but omits some non-star pairs of the
    md5 self-join. The oracle corpus (natural docs plus the planted
    2-member clone pairs) stays far below the cap; re-scope the oracle
    to a connectivity check before pointing it at a corpus with mega
    dup groups.

    Ray shape: band rows and candidate mining are the production LSH
    path (``_band_rows`` → ``_candidate_pairs`` → ``_dedup_pairs``,
    bounded shuffles, id-only rows); exact-dup pairs come from a
    bucketed shuffle on ``md5(text)`` of (digest, id) rows with
    per-run pair emission (dup runs are real duplicate groups — rare by
    nature); the intersection is one bucketed SEMI join on the packed
    pair key. → Dataset(doc_a, doc_b)."""
    import pyarrow.compute as pc

    from .hashing import md5_hex
    from jsonld_ex_ray.ops.joins import hash_join_bucketed

    in_schema = ds.schema()
    id_type = dict(zip(in_schema.names, in_schema.types))[id_col]
    band_ds = _band_rows(
        ds, num_perm=num_perm, bands=bands, shingle_k=shingle_k,
        text_col=text_col, id_col=id_col,
    )
    cand = _dedup_pairs(_candidate_pairs(band_ds, id_col=id_col))

    def digest_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "h": md5_hex(pc.fill_null(batch.column(text_col), "")),
                id_col: batch.column(id_col),
            }
        )

    def pairs_in_bucket(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[("h", "ascending"), (id_col, "ascending")])
        g = g.take(idx)
        ids = g.column(id_col)
        a_idx: list[int] = []
        b_idx: list[int] = []
        for s, e in zip(*key_runs(g, ["h"])):
            n = e - s
            if n >= 2:  # a real duplicate group — rare by nature
                xs, ys = np.triu_indices(n, k=1)
                a_idx.extend((s + xs).tolist())
                b_idx.extend((s + ys).tolist())
        return pa.table(
            {
                "doc_a": ids.take(pa.array(a_idx, pa.int64())),
                "doc_b": ids.take(pa.array(b_idx, pa.int64())),
            }
        )

    digests = ds.map_batches(digest_rows, batch_format="pyarrow", zero_copy_batch=True)
    exact = bucketed(digests, ["h"], pairs_in_bucket)

    def pack(batch: pa.Table) -> pa.Table:
        # "<len(a)>:<a>:<b>" — the length prefix makes the key unambiguous
        # for ids that contain the separator ('a:b','c' vs 'a','b:c')
        a = pc.cast(batch.column("doc_a"), pa.string())
        key = pc.binary_join_element_wise(
            pc.cast(pc.utf8_length(a), pa.string()),
            a,
            pc.cast(batch.column("doc_b"), pa.string()),
            ":",
        )
        return batch.append_column("__pk", key)

    exact_p = exact.map_batches(pack, batch_format="pyarrow", zero_copy_batch=True)
    cand_p = cand.map_batches(
        lambda b: pack(b).select(["__pk"]), batch_format="pyarrow", zero_copy_batch=True
    )
    kept = hash_join_bucketed(
        exact_p,
        cand_p,
        left_on="__pk",
        right_on="__pk",
        right_cols=[],
        join_type="semi",
        left_schema=pa.schema(
            [("doc_a", id_type), ("doc_b", id_type), ("__pk", pa.string())]
        ),
        right_schema=pa.schema([("__pk", pa.string())]),
    )
    return kept.map_batches(
        lambda b: b.drop_columns(["__pk"]), batch_format="pyarrow", zero_copy_batch=True
    )


def cut_duplicate_spans(
    ds,
    *,
    window: int = 64,
    stride: int = 32,
    min_docs: int = 2,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """The CUT pass over :func:`duplicate_spans`' signal — Lee et al.
    2022's actual intervention: every document is rewritten with its
    duplicated runs REMOVED (the union of all flagged
    ``[off, off+window)`` codepoint ranges), not just scored.

    Ray shape: two bounded shuffles. The same span-hash stream as
    ``duplicate_spans`` (one vectorized md5 scan per stride offset) meets
    bucketed on the hash, which keeps the flagged ``(doc_id, off)`` rows;
    then docs (every column) + their flagged offsets meet in ONE
    ``hash(doc_id)`` bucketed shuffle where the rewrite happens. The
    rewrite is fully vectorized for ASCII documents (one numpy +1/−1
    interval counter over the bucket's concatenated text bytes, one
    boolean gather, arrow offsets rebuilt from cumulative kept counts);
    non-ASCII documents — where codepoint ≠ byte — fall back to per-doc
    Python slicing, bounded to the flagged non-ASCII docs in the bucket.

    Spans are codepoint-based (arrow ``utf8_slice_codeunits`` and SQL
    ``substr`` agree), so the op is oracle-checkable: the SQL twin cuts
    ``substr`` positions covered by any flagged window. NULL text
    canonicalizes to ``""`` (SQL ``coalesce`` parity). Overlapping
    flagged windows merge naturally via the interval counter. A doc
    whose every codepoint is flagged comes back as ``""``, never
    dropped.

    Precondition: ``id_col`` values are unique. A repeated id among the
    documents being cut raises ``ValueError`` naming it.

    → Dataset of every input column, ``text_col`` rewritten — every
    input doc exactly once. The other columns ride the same shuffle
    unchanged, so a column derived from the text (a length, a score)
    still describes the uncut text.
    """
    import pyarrow.compute as pc

    _check_span_args(window, stride, min_docs)
    in_schema = arrow_schema(ds)
    if in_schema is None:  # an empty stream: nothing to cut
        return ds
    flagged, span_schema = _flagged_spans(
        ds, in_schema.field(id_col).type, window=window, stride=stride, min_docs=min_docs,
        text_col=text_col, id_col=id_col, with_offset=True,
    )

    # docs (every column, full text) and their flagged offsets meet
    # bucketed on hash(doc_id) — the only shuffle the corpus text rides
    text_i = in_schema.get_field_index(text_col)
    out_schema = in_schema.set(text_i, pa.field(text_col, pa.string()))

    def canon_docs(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(pc.cast(batch.column(text_col), pa.string()), "")
        return batch.set_column(batch.schema.get_field_index(text_col), text_col, text)

    def with_text(docs: pa.Table, text: pa.Array) -> pa.Table:
        return docs.set_column(text_i, text_col, text)

    def _cut_ascii(texts: pa.Array, starts_idx: np.ndarray, offs: np.ndarray, window: int) -> pa.Array:
        """Vectorized byte surgery over the bucket's ASCII docs: texts is
        the (combined) string array, (starts_idx, offs) are the flagged
        spans as (doc index, codepoint offset)."""
        off_buf = np.frombuffer(texts.buffers()[1], np.int32)
        starts = off_buf[texts.offset : texts.offset + len(texts) + 1].astype(np.int64)
        vals = np.frombuffer(texts.buffers()[2], np.uint8)
        base, end = int(starts[0]), int(starts[-1])
        total = end - base
        delta = np.zeros(total + 1, np.int64)
        gs = starts[starts_idx] - base + offs
        np.add.at(delta, gs, 1)
        np.add.at(delta, gs + window, -1)
        keep = np.cumsum(delta[:-1]) == 0
        seg = vals[base:end][keep]
        csum0 = np.r_[np.int64(0), np.cumsum(keep)]
        cnt = csum0[starts[1:] - base] - csum0[starts[:-1] - base]
        new_offsets = np.r_[np.int64(0), np.cumsum(cnt)].astype(np.int32)
        return pa.Array.from_buffers(
            pa.utf8(),
            len(texts),
            [None, pa.py_buffer(new_offsets.tobytes()), pa.py_buffer(seg.tobytes())],
        )

    def cut_bucket(docs: pa.Table, flags: pa.Table) -> pa.Table:
        if docs.num_rows == 0 or flags.num_rows == 0:
            return docs
        flag_ids = pc.unique(flags.column(id_col))
        touched = pc.is_in(docs.column(id_col), value_set=flag_ids)
        passthrough = docs.filter(pc.invert(touched))
        work = docs.filter(touched)
        work = work.take(pc.sort_indices(work, sort_keys=[(id_col, "ascending")]))
        texts = work.column(text_col)
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        nbytes = pc.binary_length(texts).to_numpy(zero_copy_only=False)
        nchars = pc.utf8_length(texts).to_numpy(zero_copy_only=False)
        ascii_doc = nbytes == nchars
        w_ids = work.column(id_col).to_numpy(zero_copy_only=False)
        dup = np.flatnonzero(w_ids[1:] == w_ids[:-1])
        if dup.size:
            # searchsorted below would cut only the first copy
            raise ValueError(
                f"cut_duplicate_spans needs unique {id_col} values; "
                f"{w_ids[dup[0]]!r} appears more than once"
            )
        f_ids = flags.column(id_col).to_numpy(zero_copy_only=False)
        f_off = flags.column("off").to_numpy(zero_copy_only=False)
        f_idx = np.searchsorted(w_ids, f_ids)
        parts = [passthrough]
        a_mask = ascii_doc[f_idx]
        if ascii_doc.all():
            parts.append(with_text(work, _cut_ascii(texts, f_idx, f_off, window)))
        else:
            # mixed bucket: vectorized path for the ASCII docs, per-doc
            # Python slicing only for the flagged NON-ASCII docs
            ascii_sel = np.flatnonzero(ascii_doc)
            if ascii_sel.size:
                sel = pa.array(ascii_sel, pa.int64())
                remap = np.full(len(w_ids), -1, np.int64)
                remap[ascii_sel] = np.arange(ascii_sel.size)
                cut_arr = _cut_ascii(texts.take(sel), remap[f_idx[a_mask]], f_off[a_mask], window)
                parts.append(with_text(work.take(sel), cut_arr))
            nonascii_sel = pa.array(np.flatnonzero(~ascii_doc), pa.int64())
            py_texts = texts.take(nonascii_sel).to_pylist()
            out_txt = []
            for local_i, doc_i in enumerate(nonascii_sel.to_numpy()):
                s = py_texts[local_i]
                m = np.zeros(len(s), bool)
                for o in f_off[f_idx == doc_i]:
                    m[o : o + window] = True
                out_txt.append("".join(np.array(list(s), dtype=object)[~m].tolist()) if len(s) else s)
            parts.append(with_text(work.take(nonascii_sel), pa.array(out_txt, pa.string())))
        return pa.concat_tables(parts)

    sides = [
        (ds.map_batches(canon_docs, batch_format="pyarrow", zero_copy_batch=True), [id_col], out_schema),
        (flagged, [id_col], span_schema.remove(span_schema.get_field_index("h"))),
    ]
    return bucketed(sides, None, cut_bucket)
