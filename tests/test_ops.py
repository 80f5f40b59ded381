"""Training-data ops: dedup (exact/minhash/simhash), similarity search,
text analysis, multimodal plumbing — over the driver testdata tables."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data

    return ray.data.read_parquet(f"{SF}/documents.parquet")


def test_exact_dedup_matches_pandas(ray_session, docs_ds):
    from jsonld_ex_ray.ops.dedup import exact_dedup

    got = exact_dedup(docs_ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    src = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    want = (
        src.sort_values("doc_id").drop_duplicates("text", keep="first").sort_values("doc_id").reset_index(drop=True)
    )
    assert list(got.doc_id) == list(want.doc_id)


def test_minhash_self_similarity():
    from jsonld_ex_ray.ops.dedup import jaccard, minhash_signature

    a = "the quick brown fox jumps over the lazy dog again and again"
    b = "the quick brown fox jumps over the lazy dog again and again today"
    assert jaccard(a, a) == 1.0
    sa, sb = minhash_signature(a), minhash_signature(b)
    est = (sa == sb).mean()
    true = jaccard(a, b)
    assert abs(est - true) < 0.35  # 64 perms → coarse but correlated
    # determinism across calls
    assert (minhash_signature(a) == sa).all()


def test_minhash_lsh_finds_near_dups(ray_session):
    import ray.data
    from jsonld_ex_ray.ops.dedup import minhash_lsh_duplicates

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 6
    texts = [base, base + "lambda", "totally different content here " * 10, base]
    tbl = pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64()), "text": texts})
    dups = minhash_lsh_duplicates(ray.data.from_arrow(tbl), threshold=0.7).to_pandas()
    pairs = set(zip(dups.doc_id, dups.dup_of))
    assert (3, 0) in pairs  # exact copy detected
    assert (1, 0) in pairs  # near copy detected
    assert 2 not in set(dups.doc_id)  # distinct doc untouched


def test_lsh_boilerplate_cluster_bounded_pairs(ray_session):
    """A planted 5k-member identical-doc cluster must emit star+chain
    pairs — ≤ 2·bands·(run−1) candidates, not O(run²) — and still dedup
    every member to the min-id representative."""
    import ray.data
    from jsonld_ex_ray.ops.dedup import (
        _band_rows,
        _candidate_pairs,
        minhash_lsh_duplicates,
    )

    n, bands = 5000, 16
    base = "the same boilerplate sentence repeated in every document " * 4
    tbl = pa.table(
        {"doc_id": pa.array(range(n), pa.int64()), "text": pa.array([base] * n)}
    )
    ds = ray.data.from_arrow(tbl)
    band_ds = _band_rows(
        ds, num_perm=64, bands=bands, shingle_k=3, text_col="text", id_col="doc_id"
    )
    raw_pairs = _candidate_pairs(band_ds, id_col="doc_id").count()
    assert 0 < raw_pairs <= 2 * bands * (n - 1)  # star+chain, not run²

    dups = minhash_lsh_duplicates(ds, bands=bands, threshold=0.8).to_pandas()
    assert len(dups) == n - 1
    assert set(dups.dup_of) == {0}
    assert set(dups.doc_id) == set(range(1, n))


def _reference_run_pairs(rows, cap):
    """Plain-Python candidate pairs of (band, band_hash, id) rows: each
    collision run's distinct ids sorted (NULL last, counted once), all
    pairs up to ``cap`` ids, star + chain pairs above it."""
    import itertools
    from collections import Counter, defaultdict

    runs = defaultdict(set)
    for band, h, doc in rows:
        runs[(band, h)].add(doc)
    out = Counter()
    for docs in runs.values():
        docs = sorted(docs, key=lambda d: (d is None, d))
        if len(docs) <= cap:
            out.update(itertools.combinations(docs, 2))
        else:
            out.update((docs[0], d) for d in docs[1:])
            out.update(zip(docs[1:-1], docs[2:]))
    return out


@pytest.mark.parametrize("id_kind", ["int", "str"])
def test_bucket_candidate_pairs_match_reference(id_kind):
    """The vectorized run emission gives the reference's pair multiset:
    runs of at most the cap and above it, ids repeated inside a run,
    NULL ids, int and string ids, rows in no particular order."""
    from collections import Counter

    from jsonld_ex_ray.ops.dedup import _ALL_PAIRS_RUN_CAP, _bucket_candidate_pairs

    cap = _ALL_PAIRS_RUN_CAP
    rng = np.random.RandomState(9)
    rows = []
    for run, size in enumerate([1, 2, 3, 7, cap - 1, cap, cap + 1, 40, 75, 2, 5]):
        docs = [int(d) for d in rng.choice(500, size, replace=False)]
        if run % 3 == 0:
            docs[0] = None
        docs += [docs[i] for i in rng.choice(size, run % 4)]  # repeated ids
        if id_kind == "str":
            docs = [None if d is None else f"d{d}" for d in docs]
        rows += [(run % 3, 1000 + run // 3, d) for d in docs]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    id_type = pa.int64() if id_kind == "int" else pa.string()
    table = pa.table(
        {
            "band": pa.array([r[0] for r in rows], pa.int32()),
            "band_hash": pa.array([r[1] for r in rows], pa.uint64()),
            "doc_id": pa.array([r[2] for r in rows], id_type),
        }
    )
    out = _bucket_candidate_pairs(table, "doc_id")
    assert out.schema.field("doc_a").type == id_type
    got = Counter(zip(out.column("doc_a").to_pylist(), out.column("doc_b").to_pylist()))
    assert got == _reference_run_pairs(rows, cap)
    assert _bucket_candidate_pairs(table.slice(0, 0), "doc_id").num_rows == 0


def test_minhash_string_ids(ray_session):
    """id_col is configurable — string-keyed corpora must survive the
    whole minhash path with ids untouched (no int casts)."""
    import ray.data
    from jsonld_ex_ray.ops.dedup import minhash_lsh_duplicates

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 6
    tbl = pa.table(
        {
            "doc_id": pa.array(["doc-b", "doc-a", "doc-c"]),
            "text": [base, base, "totally different content here " * 10],
        }
    )
    dups = minhash_lsh_duplicates(ray.data.from_arrow(tbl), threshold=0.7).to_pandas()
    assert set(zip(dups.doc_id, dups.dup_of)) == {("doc-b", "doc-a")}


def test_simhash_duplicates(ray_session):
    import ray.data
    from jsonld_ex_ray.ops.dedup import simhash64, simhash_duplicates

    base = "one two three four five six seven eight nine ten " * 8
    tbl = pa.table(
        {
            "doc_id": pa.array([10, 11, 12], pa.int64()),
            "text": [base, base + " eleven", "unrelated words entirely " * 12],
        }
    )
    assert simhash64(base) == simhash64(base)
    dups = simhash_duplicates(ray.data.from_arrow(tbl), max_hamming=6).to_pandas()
    assert (11, 10) in set(zip(dups.doc_id, dups.dup_of))


def test_simhash_duplicate_id_rows(ray_session):
    """A doc whose nearest bucket neighbour is a row with ITS OWN id
    (duplicate-id input) must still match the other distinct-id
    candidate instead of being skipped."""
    import ray.data
    from jsonld_ex_ray.ops.dedup import simhash_duplicates

    base = "one two three four five six seven eight nine ten " * 8
    tbl = pa.table(
        {
            "doc_id": pa.array([20, 21, 21], pa.int64()),
            "text": [base, base, base],
        }
    )
    dups = simhash_duplicates(ray.data.from_arrow(tbl), max_hamming=3).to_pandas()
    assert set(zip(dups.doc_id, dups.dup_of)) == {(21, 20)}


def test_simhash_boilerplate_cluster(ray_session):
    """Identical-signature clusters collapse to one distinct sig before
    the pairwise hamming matrix — a 3k identical cluster must finish
    fast and mark every member dup_of the min id."""
    import ray.data
    from jsonld_ex_ray.ops.dedup import simhash_duplicates

    n = 3000
    base = "the same boilerplate sentence in every doc " * 5
    tbl = pa.table(
        {"doc_id": pa.array(range(n), pa.int64()), "text": pa.array([base] * n)}
    )
    dups = simhash_duplicates(ray.data.from_arrow(tbl), max_hamming=3).to_pandas()
    assert len(dups) == n - 1
    assert set(dups.dup_of) == {0}
    assert (dups.hamming == 0).all()


def test_brute_force_topk_matches_numpy(ray_session):
    import ray.data
    from jsonld_ex_ray.ops.similarity import brute_force_topk

    emb = pq.read_table(f"{SF}/embeddings.parquet")
    rows = emb.to_pylist()
    q = rows[0]["embedding"]
    got = brute_force_topk(ray.data.read_parquet(f"{SF}/embeddings.parquet"), q, k=5).to_pandas()
    m = np.asarray([r["embedding"] for r in rows], dtype=np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    qn = np.asarray(q) / np.linalg.norm(q)
    sims = m @ qn
    want_ids = [rows[i]["vec_id"] for i in np.argsort(-sims)[:5]]
    assert list(got.vec_id) == want_ids
    assert got.sim.iloc[0] == pytest.approx(1.0, abs=1e-3)


def test_ivf_recall_vs_brute_force(ray_session):
    import ray.data
    from jsonld_ex_ray.ops.similarity import brute_force_topk, fit_centroids, ivf_topk

    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pylist()
    cents = fit_centroids(np.asarray([r["embedding"] for r in emb]))
    q = emb[3]["embedding"]
    bf = brute_force_topk(ray.data.read_parquet(f"{SF}/embeddings.parquet"), q, k=10).to_pandas()
    ivf = ivf_topk(
        ray.data.read_parquet(f"{SF}/embeddings.parquet"), q, cents, k=10, nprobe=8
    ).to_pandas()
    recall = len(set(bf.vec_id) & set(ivf.vec_id)) / 10
    assert recall >= 0.7


def test_text_ops_deterministic_and_sane(ray_session, docs_ds):
    from jsonld_ex_ray.ops.text import (
        fingerprint_batch,
        lang_id_batch,
        quality_score_batch,
        token_count_batch,
    )

    tbl = pq.read_table(f"{SF}/documents.parquet")
    tokens = token_count_batch(tbl)
    assert tokens.num_rows == tbl.num_rows
    texts = tbl.column("text").to_pylist()
    assert tokens.column("n_tokens_ws").to_pylist()[0] == len(texts[0].split(" "))
    q = quality_score_batch(tbl)
    assert all(0.0 <= v <= 1.0 for v in q.column("quality").to_pylist())
    langs = lang_id_batch(tbl)
    assert set(langs.column("lang_pred").to_pylist()) <= {"en", "de", "fr", "es", "und"}
    fp1 = fingerprint_batch(tbl).column("fp_rolling").to_pylist()
    fp2 = fingerprint_batch(tbl).column("fp_rolling").to_pylist()
    assert fp1 == fp2


def test_media_decode_real_png_wav(ray_session):
    import json as _json

    import ray.data
    from jsonld_ex_ray.ops.multimodal import FEATURE_DIM, decode_media, synth_media_table

    tbl = synth_media_table(50)
    feats = decode_media(ray.data.from_arrow(tbl)).to_pandas()
    assert len(feats) == 50
    src = tbl.to_pandas().set_index("media_id")
    images = feats[feats.kind == "image"]
    assert len(images) > 0
    for r in images.itertuples():
        meta = _json.loads(src.loc[r.media_id, "meta"])
        # REAL decode: dimensions come from the PNG IHDR, not the metadata
        assert (r.width, r.height) == (meta["width"], meta["height"])
    audio = feats[feats.kind == "audio"]
    assert len(audio) > 0
    assert (audio.duration_ms > 0).all()
    assert (audio.duration_ms <= 400).all()
    # video/unknown: no stdlib codec → honest error rows, never fake values
    errs = feats[feats.kind.isin(["video", "unknown"])]
    assert (errs.width == -1).all() and (errs.duration_ms == -1).all()
    assert all(len(f) == FEATURE_DIM for f in feats.feature)
    # deterministic features from payload bytes
    feats2 = decode_media(ray.data.from_arrow(tbl)).to_pandas()
    assert list(map(list, feats.sort_values("media_id").feature)) == list(
        map(list, feats2.sort_values("media_id").feature)
    )


def test_png_codec_roundtrip_filters():
    """Encoder round-trip (filter 0) + a hand-filtered image covering the
    other four PNG filter types (Sub/Up/Average/Paeth)."""
    import struct
    import zlib

    import numpy as np
    from jsonld_ex_ray.ops.multimodal import _PNG_MAGIC, _png_decode, _png_encode

    rng = np.random.RandomState(2)
    px = rng.randint(0, 256, size=(9, 7, 3), dtype=np.uint8)
    w, h, got = _png_decode(_png_encode(px))
    assert (w, h) == (7, 9)
    assert (got == px).all()

    # hand-filter rows with types 1..4 per the PNG spec and decode back
    px = rng.randint(0, 256, size=(4, 5, 3), dtype=np.uint8)
    stride, bpp = 5 * 3, 3
    rows = px.reshape(4, stride).astype(np.int64)
    raw = bytearray()
    prev = np.zeros(stride, dtype=np.int64)
    for y, ftype in enumerate([1, 2, 3, 4]):
        cur = rows[y]
        filt = np.zeros(stride, dtype=np.int64)
        for x in range(stride):
            left = cur[x - bpp] if x >= bpp else 0
            up = prev[x]
            ul = prev[x - bpp] if x >= bpp else 0
            if ftype == 1:
                pred = left
            elif ftype == 2:
                pred = up
            elif ftype == 3:
                pred = (left + up) // 2
            else:
                p = left + up - ul
                pa_, pb, pc_ = abs(p - left), abs(p - up), abs(p - ul)
                pred = left if (pa_ <= pb and pa_ <= pc_) else (up if pb <= pc_ else ul)
            filt[x] = (cur[x] - pred) % 256
        raw.append(ftype)
        raw.extend(filt.astype(np.uint8).tobytes())
        prev = cur

    def chunk(ctype, data):
        return (
            struct.pack(">I", len(data)) + ctype + data
            + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)
        )

    payload = (
        _PNG_MAGIC
        + chunk(b"IHDR", struct.pack(">IIBBBBB", 5, 4, 8, 2, 0, 0, 0))
        + chunk(b"IDAT", zlib.compress(bytes(raw)))
        + chunk(b"IEND", b"")
    )
    w2, h2, got2 = _png_decode(payload)
    assert (w2, h2) == (5, 4)
    assert (got2 == px).all()


def test_wav_codec_roundtrip():
    import numpy as np
    from jsonld_ex_ray.ops.multimodal import _wav_decode, _wav_encode

    t = np.arange(800) / 8000.0
    s = 0.25 * np.sin(2 * np.pi * 440 * t)
    rate, n, back = _wav_decode(_wav_encode(s, 8000))
    assert rate == 8000 and n == 800
    assert np.abs(back - s).max() < 1e-3


def test_minhash_distributed_verify_path(ray_session, monkeypatch):
    """Force the >_DRIVER_VERIFY_MAX branch: distributed true-Jaccard
    verification + bucketed min-reduce must give the same duplicates as
    the driver path."""
    import ray.data

    from jsonld_ex_ray.ops import dedup as dd

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 6
    texts = [base, base + "lambda", "totally different content here " * 10, base]
    tbl = pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64()), "text": texts})
    want = dd.minhash_lsh_duplicates(
        ray.data.from_arrow(tbl), threshold=0.7
    ).to_pandas()
    monkeypatch.setattr(dd, "_DRIVER_VERIFY_MAX", 0)
    got = dd.minhash_lsh_duplicates(
        ray.data.from_arrow(tbl), threshold=0.7
    ).to_pandas()
    key = lambda df: sorted(map(tuple, df[["doc_id", "dup_of"]].values.tolist()))
    assert key(got) == key(want)


def test_media_decode_survives_corrupt_payloads(ray_session):
    """Truncated / bit-flipped / garbage payloads labeled as decodable
    kinds must yield error rows, never a task crash."""
    import numpy as np
    import ray.data
    from jsonld_ex_ray.ops.multimodal import (
        _PNG_MAGIC,
        _png_encode,
        _wav_encode,
        decode_media,
    )

    rng = np.random.RandomState(8)
    px = rng.randint(0, 256, size=(6, 6, 3), dtype=np.uint8)
    good_png = _png_encode(px)
    good_wav = _wav_encode(np.zeros(100), 8000)
    corrupt = [
        good_png[:20],                                   # truncated mid-IHDR
        good_png[: len(good_png) // 2],                   # truncated mid-IDAT
        _PNG_MAGIC + b"\x00" * 40,                        # magic + garbage
        good_wav[:12],                                    # RIFF header only
        b"RIFF" + rng.bytes(64),                           # fake RIFF
        rng.bytes(128),                                    # pure noise
    ]
    tbl = pa.table(
        {
            "media_id": pa.array(range(len(corrupt) + 2), pa.int64()),
            "kind": ["image", "image", "image", "audio", "audio", "image", "image", "audio"],
            "payload": corrupt + [good_png, good_wav],
            "meta": ["{}"] * (len(corrupt) + 2),
        }
    )
    feats = decode_media(ray.data.from_arrow(tbl)).to_pandas()
    assert len(feats) == 8
    bad = feats[feats.media_id < 6]
    assert (bad.width == -1).all()
    good = feats[feats.media_id >= 6].sort_values("media_id")
    assert good.iloc[0].width == 6  # the intact PNG still decodes
    assert good.iloc[1].duration_ms > 0  # the intact WAV still decodes


def test_optimal_bands_s_curve_midpoint():
    """The tuned (b, r) put the LSH S-curve's 50% collision point near
    the threshold, and a recall-weighted tuning collides near-certainly
    ON near-duplicates."""
    from jsonld_ex_ray.ops.dedup import optimal_bands

    for t in (0.5, 0.7, 0.8, 0.9):
        b, r = optimal_bands(t, 64)
        assert b * r <= 64
        midpoint = (1.0 / b) ** (1.0 / r)
        assert abs(midpoint - t) < 0.15, (t, b, r, midpoint)
    # recall-weighted: detection probability at J slightly above the
    # threshold must be high
    b, r = optimal_bands(0.8, 64, fp_weight=0.1)
    p_detect = 1 - (1 - 0.9**r) ** b
    assert p_detect > 0.95


def test_stable_hash_golden_constants():
    """Shuffle-bucket hashes must be identical on every worker of a
    mixed-version cluster: the kernels depend only on numpy wrapping
    uint64 arithmetic, pinned here against golden constants."""
    from jsonld_ex_ray.ops.hashing import bucket_ids, hash_int64, hash_strings

    assert [int(x) for x in hash_strings(pa.array(["graft", "probe", ""]), 0)] == [
        5853780815913848858,
        17365558120526259047,
        2558736989570252433,
    ]
    assert [int(x) for x in hash_int64(np.array([0, 1, -1, 12345]), 0)] == [
        12035550249420947055,
        627405149472732430,
        3303439293501059696,
        8814202233882078983,
    ]
    t32 = pa.table(
        {"k": pa.array([1, 2, None, -5], pa.int32()), "s": pa.array(["a", "b", "c", None])}
    )
    assert bucket_ids(t32, ["k", "s"], 64).to_pylist() == [14, 10, 31, 51]
    # key-type canonicalization: int32 and int64 sides bucket identically
    t64 = pa.table(
        {"k": pa.array([1, 2, None, -5], pa.int64()), "s": pa.array(["a", "b", "c", None])}
    )
    assert bucket_ids(t64, ["k", "s"], 64).to_pylist() == bucket_ids(t32, ["k", "s"], 64).to_pylist()
    # slices, chunked arrays and large_string hash identically
    strs = pa.array(["", "alpha", None, "beta", "x" * 4000])
    base = [int(x) for x in hash_strings(strs, 3)]
    assert [int(x) for x in hash_strings(strs.slice(1, 3), 3)] == base[1:4]
    chunked = pa.chunked_array([strs.slice(0, 2), strs.slice(2)])
    assert [int(x) for x in hash_strings(chunked, 3)] == base
    assert [int(x) for x in hash_strings(strs.cast(pa.large_string()), 3)] == base


def test_uint64_keys_hash_by_bit_pattern(ray_session):
    """uint64 keys at or above 2^63 (digest words, band hashes, user ids)
    route like the int64 with the same bits instead of failing the
    int64 cast, so a bucketed groupby on such a key runs."""
    from jsonld_ex_ray.ops.agg import groupby_agg
    from jsonld_ex_ray.ops.hashing import bucket_ids
    import ray.data

    big = [1, 2**63 + 5, 2**64 - 1, None]
    u = pa.table({"h": pa.array(big, pa.uint64())})
    bits = pa.table({"h": pa.array([1, -(2**63) + 5, -1, None], pa.int64())})
    assert bucket_ids(u, ["h"], 8).to_pylist() == bucket_ids(bits, ["h"], 8).to_pylist()

    tbl = pa.table({"k": pa.array(big * 3, pa.uint64()), "v": pa.array(range(12), pa.int64())})
    out = groupby_agg(
        ray.data.from_arrow(tbl), ["k"], [("v", "sum", "s")]
    ).take_all()
    got = {r["k"]: r["s"] for r in out}
    assert len(out) == 4 and got == {1: 12, 2**63 + 5: 15, 2**64 - 1: 18, None: 21}


def test_repetition_stats_exact_fractions():
    """Tiny docs with hand-computable word stats (incl. empty + short)."""
    from jsonld_ex_ray.ops.text import repetition_stats_batch

    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "a a a b",          # 4 words, 2 distinct, top=3
                    "x y z",            # all distinct
                    "",                 # empty
                    "  spaced   out ",  # irregular whitespace: 2 words
                ]
            ),
        }
    )
    out = repetition_stats_batch(batch)
    assert out.column("n_words").to_pylist() == [4, 3, 0, 2]
    assert out.column("dup_word_frac").to_pylist() == [0.5, 0.0, 0.0, 0.0]
    assert out.column("top_word_frac").to_pylist() == [0.75, pytest.approx(0.333333), 0.0, 0.5]


def test_repetition_filter_drops_planted(ray_session):
    import ray.data
    from jsonld_ex_ray.ops.text import filter_repetition

    rows = [
        {"doc_id": 1, "text": "spam " * 50},  # top_word_frac = 1.0
        {"doc_id": 2, "text": " ".join(f"w{i}" for i in range(50))},  # clean
    ]
    ds = ray.data.from_items(rows)
    kept = filter_repetition(ds, max_dup_word_frac=0.62, max_top_word_frac=0.12).to_pandas()
    assert list(kept.doc_id) == [2]


def test_decontaminate_flags_shared_ngram(ray_session):
    import ray.data
    from jsonld_ex_ray.ops.dedup import decontaminate

    shared = "the quick brown fox jumps"  # the 5-gram planted in both splits
    train = ray.data.from_items(
        [
            {"doc_id": 1, "text": f"intro words {shared} trailing words here"},
            {"doc_id": 2, "text": " ".join(f"t{i}" for i in range(12))},  # clean
            {"doc_id": 3, "text": "too short"},  # < 5 words: zero n-grams
        ]
    )
    test = ray.data.from_items(
        [{"doc_id": 100, "text": f"held out doc with {shared} inside it"}]
    )
    out = (
        decontaminate(train, test, ngram=5)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(out.doc_id) == [1, 2, 3]
    assert list(out.contaminated) == [True, False, False]
    assert out.n_ngrams.tolist() == [6, 8, 0]
    assert out.n_contaminated.tolist()[0] == 1


def test_decontaminate_runs_the_test_side_once(ray_session, tmp_path):
    """The test side's plan runs once: on a lazy plan ``to_arrow_refs``
    runs it a second time, under a limit, to read its schema."""
    import uuid

    import ray.data
    from jsonld_ex_ray.ops.dedup import decontaminate

    def mark(batch: pa.Table) -> pa.Table:
        (tmp_path / uuid.uuid4().hex).touch()  # one file per call
        return batch

    rows = [{"doc_id": i, "text": f"held out document number {i} of the set"} for i in range(8)]
    test = ray.data.from_items(rows).repartition(4).map_batches(mark, batch_format="pyarrow", batch_size=None)
    train = ray.data.from_items([{"doc_id": 0, "text": "held out document number 0 of the set"}])
    out = decontaminate(train, test, ngram=3).to_pandas()
    assert out.contaminated.tolist() == [True]
    assert len(list(tmp_path.iterdir())) == 4  # one call per input block


def test_top_ngrams_counts(ray_session):
    import ray.data
    from jsonld_ex_ray.ops.text import top_ngrams

    ds = ray.data.from_items(
        [
            {"doc_id": 1, "text": "a b c a b"},
            {"doc_id": 2, "text": "b c d"},
            {"doc_id": 3, "text": "c"},  # too short for a bigram
        ]
    )
    out = top_ngrams(ds, n=2, k=3).to_pandas()
    # grams never cross document boundaries ("b b" must not appear)
    assert list(out.gram) == ["a b", "b c", "c a"]
    assert list(out.cnt) == [2, 2, 1]


def test_redact_pii_masks_and_preserves(ray_session):
    import ray.data
    from jsonld_ex_ray.ops.text import redact_pii

    ds = ray.data.from_items(
        [
            {"id": 1, "note": "mail a.b+c@x-y.co or 10.2.3.4 or 40-555-123-0042"},
            {"id": 2, "note": "nothing to hide"},
            {"id": 3, "note": None},
        ]
    )
    out = redact_pii(ds, ["note"]).to_pandas().sort_values("id")
    assert list(out.note) == [
        "mail <EMAIL> or <IP> or <PHONE>",
        "nothing to hide",
        "",
    ]


def test_doc_top_tfidf_hand_computed(ray_session):
    """3-doc corpus with a hand-checkable top term: 'rare' appears only
    in doc 1 (high idf), common words appear everywhere (idf 0)."""
    import math

    import ray.data
    from jsonld_ex_ray.ops.text import doc_top_tfidf

    ds = ray.data.from_items(
        [
            {"doc_id": 1, "text": "common common rare"},
            {"doc_id": 2, "text": "common solo"},
            {"doc_id": 3, "text": "common"},
        ]
    )
    out = doc_top_tfidf(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(out.doc_id) == [1, 2, 3]
    assert list(out.top_term) == ["rare", "solo", "common"]
    assert out.tfidf[0] == pytest.approx((1 / 3) * math.log(3 / 1), abs=1e-6)
    assert out.tfidf[2] == pytest.approx(0.0, abs=1e-9)  # ln(3/3) = 0


def test_ordered_prefix_sum_and_packing(ray_session):
    """Distributed scan equals a serial cumsum; packs follow the
    exclusive-prefix rule even when docs straddle boundaries."""
    import ray.data
    from jsonld_ex_ray.ops.agg import ordered_prefix_sum, pack_sequences

    toks = [5, 3, 8, 2, 7, 1, 9, 4, 6, 2]
    tbl = pa.table({"doc_id": pa.array(range(10), pa.int64()), "tok": pa.array(toks, pa.int64())})
    ds = ray.data.from_arrow(tbl)
    out = (
        ordered_prefix_sum(ds, "doc_id", "tok")
        .to_pandas()
        .sort_values("doc_id")
    )
    expect = np.r_[0, np.cumsum(toks)[:-1]]
    assert (out.prefix_sum.to_numpy() == expect).all()
    packs = (
        pack_sequences(ds, "tok", "doc_id", budget=10)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert packs.pack_id.tolist() == (expect // 10).tolist()


def test_top_per_group_matches_pandas(ray_session):
    import pandas as pd
    import ray.data
    from jsonld_ex_ray.ops.agg import top_per_group

    rng = np.random.RandomState(7)
    df = pd.DataFrame(
        {
            "g": rng.choice(["a", "b", "c"], 200),
            "k": rng.randint(0, 20, 200),
            "v": rng.randint(1, 100, 200).astype("int64"),
        }
    )
    got = (
        top_per_group(ray.data.from_pandas(df), "g", "k", "v", 3)
        .to_pandas()
        .sort_values(["g", "k"])
        .reset_index(drop=True)
    )
    want = (
        df.groupby(["g", "k"], as_index=False)["v"].sum()
        .rename(columns={"v": "sum_v"})
        .sort_values(["g", "sum_v", "k"], ascending=[True, False, True])
        .groupby("g")
        .head(3)
        .sort_values(["g", "k"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sample_per_group_many_groups_and_null(ray_session):
    """Stratified sampler over 2000 distinct groups plus a NULL group:
    exact deterministic md5-rank winners per group (SQL PARTITION BY
    parity — NULL forms a real partition), via the BUCKETED final
    selection (≤ NUM_BUCKETS tasks, never one per group)."""
    import pandas as pd
    import ray.data
    from jsonld_ex_ray.ops.agg import sample_per_group

    rng = np.random.RandomState(11)
    n = 6000
    groups = pd.Series(rng.randint(0, 2000, n)).astype("string")
    groups[rng.rand(n) < 0.01] = None
    df = pd.DataFrame({"g": groups, "doc_id": np.arange(n).astype("int64")})
    got = (
        sample_per_group(
            ray.data.from_pandas(df).repartition(8), "g", "doc_id", 2
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    import hashlib

    df["__rk"] = df.doc_id.map(lambda i: hashlib.md5(str(i).encode()).hexdigest())
    want = (
        df.sort_values(["g", "__rk"], na_position="last")
        .groupby("g", sort=False, dropna=False)
        .head(2)
        .drop(columns="__rk")
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["g", "doc_id"]], want[["g", "doc_id"]], check_dtype=False)


def test_samplers_drop_pandas_schema_metadata(ray_session):
    """Parquet written from pandas carries ``b'pandas'`` schema metadata.
    Ray's sort hashes its blocks' schemas and fails on that metadata's
    dict values, so the samplers drop it before they sort."""
    import pandas as pd
    import ray
    import ray.data
    from jsonld_ex_ray.ops.agg import sample_per_group
    from jsonld_ex_ray.ops.text import weighted_hash_sample

    df = pd.DataFrame({"doc_id": range(40), "lang": ["en", "de"] * 20, "n": range(1, 41)})
    tbl = pa.Table.from_pandas(df, preserve_index=False)
    assert b"pandas" in tbl.schema.metadata
    ds = ray.data.from_arrow(tbl).repartition(4)
    for out in (
        sample_per_group(ds, "lang", "doc_id", 3).sort("doc_id"),
        weighted_hash_sample(ds, 5, weight_col="n"),
    ):
        blocks = [b for b in ray.get(out.materialize().to_arrow_refs()) if b.num_rows]
        assert blocks and all(not b.schema.metadata for b in blocks)


def test_dedup_lines_c4_rule(ray_session):
    """Global first-occurrence line dedup: shared lines survive only in
    the earliest (doc_id, line_no) position; fully-deduped docs drop;
    within-doc line order is preserved."""
    import ray.data
    from jsonld_ex_ray.ops.dedup import dedup_lines

    docs = [
        {"doc_id": 1, "text": "alpha\nbeta\ngamma"},
        {"doc_id": 2, "text": "beta\ndelta"},
        {"doc_id": 3, "text": "alpha"},
        {"doc_id": 4, "text": "epsilon\nalpha\nzeta"},
    ]
    out = (
        dedup_lines(ray.data.from_items(docs))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(out.doc_id) == [1, 2, 4]
    assert list(out.text) == ["alpha\nbeta\ngamma", "delta", "epsilon\nzeta"]


def test_exact_dedup_loser_paths_equivalent(ray_session, monkeypatch, gate_paths):
    """Planted duplicates: the loser-broadcast path (corpus never
    shuffles) and the bucketed anti join must select identical
    survivors."""
    import ray.data
    from jsonld_ex_ray.ops import dedup as dd
    from jsonld_ex_ray.ops import joins

    texts = [f"unique text {i}" for i in range(300)] + ["copied boilerplate"] * 50
    ids = list(range(350))
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})

    def run():
        return sorted(
            dd.exact_dedup(ray.data.from_arrow(tbl)).to_pandas().doc_id.tolist()
        )

    got_broadcast = run()  # 49 losers → broadcast path
    monkeypatch.setattr(joins, "_BROADCAST_MAX_BYTES", 0)
    got_fallback = run()  # forced bucketed anti join
    want = sorted(ids[:300] + [300])  # first copy of the boilerplate wins
    assert got_broadcast == want
    assert got_fallback == want
    assert gate_paths("exact_dedup") == ["broadcast", "bucketed"]


def test_assign_clusters_nearest_centroid(ray_session):
    """Every vector lands on its argmax-cosine centroid (checked against
    a numpy recomputation), clusters cover all centroids that own data."""
    import ray.data
    from jsonld_ex_ray.ops.similarity import assign_clusters, fit_centroids

    emb = pq.read_table(f"{SF}/embeddings.parquet")
    mat = np.asarray(emb.column("embedding").to_pylist(), dtype=np.float64)
    cents = fit_centroids(mat, n_clusters=8)
    got = (
        assign_clusters(
            ray.data.read_parquet(f"{SF}/embeddings.parquet"), cents
        )
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    norm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    want = np.argmax(norm @ cents.T, axis=1)
    ids = emb.column("vec_id").to_numpy()
    order = np.argsort(ids)
    assert (got.cluster.to_numpy() == want[order]).all()


def test_corpus_clean_near_dup_branch(ray_session):
    """The near_dup=True flagship chain drops planted minhash duplicates
    on top of the exact/quality/repetition gates, and assigns splits."""
    import ray.data
    from jsonld_ex_ray.pipelines.corpus_clean import clean_corpus

    base = "the quick brown fox jumps over a lazy dog and then " + " ".join(
        f"w{i}" for i in range(40)
    )
    rows = [
        {"doc_id": 1, "text": base, "lang": "en", "source": "s", "n_chars": len(base)},
        {"doc_id": 2, "text": base + " extra", "lang": "en", "source": "s", "n_chars": 5},
        {"doc_id": 3, "text": "spam " * 60, "lang": "en", "source": "s", "n_chars": 5},  # repetition gate
    ]
    out = (
        clean_corpus(ray.data.from_items(rows), near_dup=True)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert list(out.doc_id) == [1]  # 2 = near-dup of 1, 3 = repetitive
    assert set(out.columns) >= {"doc_id", "text", "split"}


def test_keyed_running_sum_same_second_ordering(ray_session):
    """Same-second events within one user must accumulate in full-µs
    (ts, id) order, matching SQL window semantics."""
    from datetime import datetime

    import ray.data
    from jsonld_ex_ray.ops.window import keyed_running_sum

    rows = [
        {"event_id": 2, "user_id": 1, "ts": datetime(2024, 1, 1, 0, 0, 0, 900000), "value": 10.0},
        {"event_id": 1, "user_id": 1, "ts": datetime(2024, 1, 1, 0, 0, 0, 100000), "value": 1.0},
        {"event_id": 3, "user_id": 1, "ts": datetime(2024, 1, 1, 0, 0, 1), "value": 0.5},
    ]
    out = (
        keyed_running_sum(
            ray.data.from_items(rows), "user_id", "ts", "event_id", "value"
        )
        .to_pandas()
        .sort_values("event_id")
    )
    assert out.running_sum.tolist() == [1.0, 11.0, 11.5]


def test_grouped_hll_accuracy_and_null_group(ray_session):
    """Per-group HLL estimates land within 5% of each group's TRUE
    distinct count at p=12 (expected σ≈1.6%), across 4 orders of group
    magnitude, with a NULL group forming its own row and duplicate
    values collapsing."""
    import ray.data
    from jsonld_ex_ray.ops.agg import grouped_approx_distinct_hll

    rng = np.random.default_rng(0)
    groups, vals = [], []
    sizes = {"a": 10, "b": 1000, "c": 50000, None: 137}
    true: dict = {}
    for g, n in sizes.items():
        ids = rng.choice(n, size=n * 3)  # duplicates included
        true[g] = len(np.unique(ids))
        groups += [g] * len(ids)
        vals += [f"{g}-{i}" for i in ids]
    tbl = pa.table({"g": pa.array(groups, pa.string()), "v": pa.array(vals, pa.string())})
    out = (
        grouped_approx_distinct_hll(ray.data.from_arrow(tbl).repartition(8), "g", "v")
        .to_pandas()
    )
    assert len(out) == 4
    for _, row in out.iterrows():
        g = row["g"] if isinstance(row["g"], str) else None
        err = abs(row["n_distinct_approx"] - true[g]) / true[g]
        assert err < 0.05, (g, true[g], row["n_distinct_approx"])


def test_keyed_shift_lag_lead_nulls(ray_session):
    """LAG/LEAD per key in (ts, id) order: each key's boundary rows get
    NULL (never another key's value — key isolation across the hash
    shuffle), same-second rows order by full µs then id, and
    periods=-1 is LEAD."""
    from datetime import datetime

    import ray.data
    from jsonld_ex_ray.ops.window import keyed_shift

    rows = [
        {"event_id": 1, "user_id": 1, "ts": datetime(2024, 1, 1, 0, 0, 0, 100000), "value": 1.0},
        {"event_id": 2, "user_id": 1, "ts": datetime(2024, 1, 1, 0, 0, 0, 900000), "value": 2.0},
        {"event_id": 3, "user_id": 2, "ts": datetime(2024, 1, 1, 0, 0, 0, 500000), "value": 30.0},
        {"event_id": 4, "user_id": 2, "ts": datetime(2024, 1, 1, 0, 0, 1), "value": 40.0},
        {"event_id": 5, "user_id": 3, "ts": datetime(2024, 1, 1), "value": 99.0},
    ]

    def run(periods):
        return (
            keyed_shift(
                ray.data.from_items(rows), "user_id", "ts", "event_id", "value",
                periods=periods,
            )
            .to_pandas()
            .sort_values("event_id")
            .prev_value
        )

    lag = run(1)
    assert lag.isna().tolist() == [True, False, True, False, True]
    assert lag.dropna().tolist() == [1.0, 30.0]
    lead = run(-1)
    assert lead.isna().tolist() == [False, True, False, True, True]
    assert lead.dropna().tolist() == [2.0, 40.0]


def test_bloom_filter_semantics(ray_session):
    """No false negatives ever; false-positive rate near the target; the
    semi-join keeps every true match."""
    import ray.data
    from jsonld_ex_ray.ops.bloom import BloomFilter, semi_join_bloom

    keys = pa.array(np.arange(0, 20000, 2, dtype=np.int64))  # evens
    bf = BloomFilter.sized(len(keys), 0.01)
    bf.add(keys)
    assert bf.contains(keys).all()  # zero false negatives
    probes = pa.array(np.arange(1, 20001, 2, dtype=np.int64))  # odds
    fp = bf.contains(probes).mean()
    assert fp < 0.03  # near the 1% target

    big = ray.data.from_arrow(
        pa.table({"k": pa.array(np.arange(1000, dtype=np.int64)), "v": np.arange(1000)})
    )
    small = ray.data.from_arrow(pa.table({"k": pa.array([5, 10, 999], pa.int64())}))
    out = semi_join_bloom(big, small, big_on="k", small_on="k").to_pandas()
    assert {5, 10, 999} <= set(out.k)  # all true matches survive
    assert len(out) <= 3 + 30  # fp-bounded

    # string keys route through the stable string hash
    sbf = BloomFilter.sized(3, 0.01)
    sbf.add(pa.array(["alpha", "beta", "gamma"]))
    assert sbf.contains(pa.array(["alpha", "beta", "gamma"])).all()
    assert not sbf.contains(pa.array(["delta"])).any() or True


def test_build_bloom_tolerates_empty_passthrough_blocks(ray_session):
    """Round-3 driver crash regression: Ray passes zero-row blocks
    through map_batches with their ORIGINAL schema, so a filtered small
    side at high parallelism produced blocks without the fold's schema
    and build_bloom KeyError'd. Force many mostly-empty blocks."""
    import ray.data
    from jsonld_ex_ray.ops.bloom import build_bloom, semi_join_bloom

    small = (
        ray.data.from_arrow(pa.table({"k": pa.array(np.arange(4096, dtype=np.int64))}))
        .repartition(16)
        .filter(lambda r: r["k"] < 3)  # most blocks end up empty
    )
    bf = build_bloom(small, "k")
    assert bf.contains(pa.array([0, 1, 2], pa.int64())).all()

    big = ray.data.from_arrow(
        pa.table({"k": pa.array(np.arange(100, dtype=np.int64)), "v": np.arange(100)})
    )
    out = semi_join_bloom(big, small, big_on="k", small_on="k").to_pandas()
    assert {0, 1, 2} <= set(out.k)
    assert len(out) <= 3 + 10


def test_build_bloom_position_encoding_roundtrip(ray_session):
    """Sparse blocks ship set-bit positions, dense blocks ship the
    bitmap — both must reconstruct the same filter as a driver-side
    add of all keys."""
    import ray.data
    from jsonld_ex_ray.ops.bloom import BloomFilter, build_bloom

    keys = pa.array(np.arange(5000, dtype=np.int64))
    ds = ray.data.from_arrow(pa.table({"k": keys})).repartition(8)
    got = build_bloom(ds, "k")
    want = BloomFilter(got.n_bits, got.k)
    want.add(keys)
    assert np.array_equal(got.bits, want.bits)


def test_exact_dedup_value_exact_under_hash_collision(ray_session, monkeypatch):
    """ADVICE r3: a crafted (k1,k2) collision must NOT delete a distinct
    document. Force EVERY text onto one polynomial key and check
    SQL-value-dedup semantics on both identity paths: the default digest
    mode (identity = SHA-256, poly hashes unused) and the bucketed
    loser filter — including the key group that mixes a distinct winner
    text with a duplicated loser text."""
    import ray.data
    from jsonld_ex_ray.ops import dedup as dd
    from jsonld_ex_ray.ops import hashing as hh
    from jsonld_ex_ray.ops import joins

    def all_collide(col, s1, s2):
        n = len(col)
        return np.zeros(n, np.uint64), np.zeros(n, np.uint64)

    monkeypatch.setattr(hh, "hash_strings_pair", all_collide)

    texts = ["t-one", "t-two", "t-two", "t-three", "t-one", "t-four"]
    ids = [1, 2, 3, 4, 5, 6]
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})
    want = [1, 2, 4, 6]  # min id per distinct text

    def run(**kw):
        return sorted(
            dd.exact_dedup(ray.data.from_arrow(tbl), **kw).to_pandas().doc_id.tolist()
        )

    # path 0: digest mode (default) — crafted poly collisions are
    # irrelevant, identity is the full SHA-256 carried in the key rows
    assert run() == want

    # path 1: bucketed loser filter (a zero broadcast budget, as for a
    # mostly-duplicate corpus) — the same digest identity
    monkeypatch.setattr(joins, "_BROADCAST_MAX_BYTES", 0)
    assert run() == want


def test_exact_dedup_digest_rescan_parity_and_nulls(ray_session):
    """The digest (fused SHA-256) mode and the hash-trusted verify=False
    path pick identical survivors, and NULL texts form ONE identity group
    (SQL GROUP BY semantics: min-id null row survives)."""
    import ray.data
    from jsonld_ex_ray.ops import dedup as dd

    texts = ["a", None, "b", "a", None, "", "b", "c", ""]
    ids = [10, 11, 12, 13, 14, 15, 16, 17, 18]
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})
    want = [10, 11, 12, 15, 17]  # min id per distinct text, NULL ≠ ""

    def run(**kw):
        return sorted(
            dd.exact_dedup(ray.data.from_arrow(tbl), **kw).to_pandas().doc_id.tolist()
        )

    assert run() == want  # digest (default)
    assert run(verify=False) == want


def test_zscore_null_group_matches_sql(ray_session):
    """ADVICE r3: a NULL group key must never borrow another group's
    moments. With the arrow-native lowcard combine, NULL forms a real
    partition exactly like SQL GROUP BY — z over (5, 7) is ±1."""
    import ray.data
    from jsonld_ex_ray.ops.agg import zscore_by_group

    t = pa.table(
        {
            "g": pa.array(["a", "a", "b", "b", None, None]),
            "v": pa.array([1.0, 3.0, 10.0, 30.0, 5.0, 7.0]),
        }
    )
    out = zscore_by_group(ray.data.from_arrow(t), "g", "v").to_pandas()
    nulls = out[out.g.isna()].sort_values("v").z.tolist()
    assert nulls == [-1.0, 1.0], nulls
    a = out[out.g == "a"].sort_values("v").z.tolist()
    assert a == [-1.0, 1.0]


def test_floor_div_negative_epochs():
    """ADVICE r3: µs→s and window-start math must floor (SQL), not
    truncate toward zero — pre-1970 timestamps were off by one."""
    from jsonld_ex_ray.ops.window import _epoch_seconds, _floor_div

    us = pa.chunked_array([pa.array([-1, -1_000_000, -1_500_000, 0, 1, 1_500_000], pa.int64())])
    got = _floor_div(us, 1_000_000).to_pylist()
    want = [v // 1_000_000 for v in us.to_pylist()]
    assert got == want

    ts = pa.chunked_array(
        [pa.array([-1, -3600_000_000, -3599_999_999, 7200_000_001], pa.timestamp("us"))]
    )
    secs = _epoch_seconds(ts).to_pylist()
    assert secs == [-1, -3600, -3600, 7200]


def test_tfidf_bucketed_matches_broadcast(ray_session, monkeypatch, gate_paths):
    """The open-vocabulary bucketed-join variant (forced via a zero
    broadcast budget — no driver/object-store vocab object is
    built) must produce row-identical output to the broadcast variant,
    including raw-score ranking and lexicographic tie-breaks."""
    import ray.data
    from jsonld_ex_ray.ops import joins
    from jsonld_ex_ray.ops.text import doc_top_tfidf

    rows = [
        {"doc_id": 1, "text": "common common rare tie1 tie2"},
        {"doc_id": 2, "text": "common solo"},
        {"doc_id": 3, "text": "common"},
        {"doc_id": 4, "text": ""},  # no words → no output row
    ]
    # open-vocab tail: every doc contributes unique terms
    rows += [
        {"doc_id": 100 + i, "text": f"uniq{i}a uniq{i}b common"} for i in range(40)
    ]
    ds = ray.data.from_items(rows)

    def run(**kw):
        return (
            doc_top_tfidf(ds, **kw)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )

    a = run()
    monkeypatch.setattr(joins, "_BROADCAST_MAX_BYTES", 0)
    b = run()
    assert gate_paths("doc_top_tfidf") == ["broadcast", "bucketed"]
    assert list(a.doc_id) == list(b.doc_id)
    assert list(a.top_term) == list(b.top_term)
    assert np.allclose(a.tfidf, b.tfidf)
    assert 4 not in set(a.doc_id)
    # every unique-term doc tops on one of its own terms (idf max)
    tail = a[a.doc_id >= 100]
    assert all(t.startswith("uniq") for t in tail.top_term)


def test_tfidf_bucketed_duplicate_ids_per_row(ray_session, monkeypatch, gate_paths):
    """Duplicate doc_id values: BOTH variants emit one output row per
    physical input row (the bucketed path groups its argmax by an
    internal per-row tag, not by the id value), and each row's top term
    comes from its OWN text."""
    import ray.data
    from jsonld_ex_ray.ops import joins
    from jsonld_ex_ray.ops.text import doc_top_tfidf

    rows = [
        {"doc_id": 7, "text": "alpha alpha beta"},
        {"doc_id": 7, "text": "gamma gamma delta"},
        {"doc_id": 8, "text": "beta delta"},
    ]
    ds = ray.data.from_items(rows)

    def run(**kw):
        return (
            doc_top_tfidf(ds, **kw)
            .to_pandas()
            .sort_values(["doc_id", "top_term"])
            .reset_index(drop=True)
        )

    a = run()
    monkeypatch.setattr(joins, "_BROADCAST_MAX_BYTES", 0)
    b = run()
    assert gate_paths("doc_top_tfidf") == ["broadcast", "bucketed"]
    assert len(a) == 3 and len(b) == 3
    assert list(a.doc_id) == list(b.doc_id)
    assert list(a.top_term) == list(b.top_term)
    assert np.allclose(a.tfidf, b.tfidf)
    # the two doc_id=7 rows top on their own texts' dominant terms
    assert set(a[a.doc_id == 7].top_term) == {"alpha", "gamma"}
