"""Round-3 analytics ops: rolling time windows, grouped quantiles,
distinct/anti join, pivot, funnel, kNN join, z-score."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def _events_df():
    return pq.read_table(f"{SF}/events.parquet").to_pandas()


def test_rolling_time_agg_matches_pandas(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.window import rolling_time_agg

    ds = ray.data.read_parquet(
        f"{SF}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )
    got = (
        rolling_time_agg(ds, "user_id", "ts", "event_id", "value", 3600, round_to=None)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    df = _events_df()[["event_id", "user_id", "ts", "value"]]
    rows = []
    for _uid, sub in df.groupby("user_id"):
        sub = sub.sort_values(["ts", "event_id"])
        t = sub.ts.to_numpy()
        v = sub.value.to_numpy()
        for i in range(len(sub)):
            in_win = (t <= t[i]) & (t >= t[i] - np.timedelta64(3600, "s"))
            rows.append((sub.event_id.iloc[i], v[in_win].sum(), int(in_win.sum())))
    want = (
        pd.DataFrame(rows, columns=["event_id", "rolling_sum", "rolling_n"])
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert (got.rolling_n.to_numpy() == want.rolling_n.to_numpy()).all()
    np.testing.assert_allclose(got.rolling_sum.to_numpy(), want.rolling_sum.to_numpy(), rtol=1e-9)


def test_rolling_time_agg_includes_timestamp_peers(ray_session):
    """SQL RANGE frame semantics: rows tied on the CURRENT timestamp are
    peers and count in each other's frame."""
    import ray.data

    from jsonld_ex_ray.ops.window import rolling_time_agg

    base = np.datetime64("2024-01-01T00:00:00", "us")
    t = pa.table(
        {
            "id": pa.array([1, 2, 3, 4], pa.int64()),
            "k": pa.array(["a", "a", "a", "a"]),
            "ts": pa.array([base, base, base + np.timedelta64(10, "s"), base + np.timedelta64(10, "s")]),
            "v": pa.array([1.0, 2.0, 4.0, 8.0]),
        }
    )
    out = (
        rolling_time_agg(ray.data.from_arrow(t), "k", "ts", "id", "v", 5, round_to=None)
        .to_pandas()
        .sort_values("id")
    )
    # rows 1,2 are peers (frame = both); rows 3,4 are peers 10s later
    assert out.rolling_n.tolist() == [2, 2, 2, 2]
    assert out.rolling_sum.tolist() == [3.0, 3.0, 12.0, 12.0]


def test_grouped_exact_quantiles_matches_numpy(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.agg import grouped_exact_quantiles

    ds = ray.data.read_parquet(f"{SF}/events.parquet", columns=["event_type", "value"])
    got = grouped_exact_quantiles(ds, "event_type", "value", [0.25, 0.5, 0.9]).to_pandas()
    df = _events_df()
    for _, row in got.iterrows():
        vals = df[df.event_type == row.event_type].value.to_numpy()
        for q, col in [(0.25, "q25"), (0.5, "q50"), (0.9, "q90")]:
            assert abs(row[col] - np.quantile(vals, q)) < 1e-6


def test_distinct_rows_and_anti_join(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.agg import distinct_rows
    from jsonld_ex_ray.ops.joins import filter_by_keys

    events = ray.data.read_parquet(
        f"{SF}/events.parquet", columns=["user_id", "event_type", "value"]
    )
    uniq = distinct_rows(events, ["user_id"]).to_pandas()
    df = _events_df()
    assert sorted(uniq.user_id) == sorted(df.user_id.unique())

    big = ray.data.read_parquet(f"{SF}/events.parquet", columns=["event_id", "user_id", "value"])
    small = events.filter(lambda r: r["event_type"] == "error" and r["value"] > 150.0)
    got = filter_by_keys(big, small, on="user_id", keys_on="user_id", anti=True).to_pandas()
    hot_users = set(df[(df.event_type == "error") & (df.value > 150.0)].user_id)
    want = df[~df.user_id.isin(hot_users)]
    assert 0 < len(want) < len(df)  # non-degenerate on this corpus
    assert sorted(got.event_id) == sorted(want.event_id)


def test_pivot_agg_matches_pandas_crosstab(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.agg import pivot_agg

    ds = ray.data.read_parquet(f"{SF}/events.parquet", columns=["event_type", "user_id", "value"])
    got = pivot_agg(ds, "user_id", "event_type", "value", ["click", "view"], round_to=6)
    df = _events_df()
    for _, row in got.to_pandas().head(20).iterrows():
        sub = df[df.user_id == row.user_id]
        for t in ["click", "view"]:
            m = sub[sub.event_type == t]
            assert row[f"n_{t}"] == len(m)
            assert abs(row[f"sum_{t}"] - m.value.sum()) < 1e-5


def test_funnel_stages_matches_reference(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.window import funnel_stages

    ds = ray.data.read_parquet(f"{SF}/events.parquet", columns=["user_id", "ts", "event_type"])
    got = (
        funnel_stages(ds, "user_id", "ts", "event_type", ["view", "click", "purchase"])
        .to_pandas()
        .set_index("user_id")
        .sort_index()
    )
    df = _events_df()
    assert set(got.index) == set(df.user_id.unique())
    for uid, sub in df.groupby("user_id"):
        t1 = sub[sub.event_type == "view"].ts.min()
        t2 = sub[(sub.event_type == "click") & (sub.ts > t1)].ts.min() if pd.notna(t1) else pd.NaT
        t3 = sub[(sub.event_type == "purchase") & (sub.ts > t2)].ts.min() if pd.notna(t2) else pd.NaT
        stage = sum(pd.notna(x) for x in (t1, t2, t3))
        assert got.loc[uid, "stage"] == stage
        if pd.notna(t1):
            assert got.loc[uid, "step1_us"] == t1.value // 1000  # ns → µs


def test_knn_join_matches_numpy_bruteforce(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.similarity import knn_join

    tbl = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    qt = tbl.slice(0, 10)
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    got = knn_join(ds, qt, k=3).to_pandas()
    assert len(got) == 30

    m = np.asarray(tbl.column("embedding").to_pylist(), dtype=np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    ids = np.asarray(tbl.column("vec_id").to_pylist())
    sims = m[:10] @ m.T
    for qi in range(10):
        s = sims[qi].copy()
        s[ids == ids[qi]] = -np.inf
        order = np.lexsort((ids, -np.round(s, 4)))[:3]
        want = set(ids[order])
        have = set(got[got.query_id == ids[qi]].neighbor_id)
        assert have == want


def test_zscore_by_group_matches_numpy(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.agg import zscore_by_group

    ds = ray.data.read_parquet(f"{SF}/events.parquet", columns=["event_id", "event_type", "value"])
    got = zscore_by_group(ds, "event_type", "value").to_pandas().sort_values("event_id")
    df = _events_df().sort_values("event_id")
    want = df.groupby("event_type").value.transform(lambda v: (v - v.mean()) / v.std(ddof=0))
    np.testing.assert_allclose(got.z.to_numpy(), want.to_numpy(), atol=2e-6)


def test_heavy_hitters_exact_and_fallback(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.agg import heavy_hitters

    ds = ray.data.read_parquet(f"{SF}/events.parquet", columns=["user_id"])
    df = _events_df()
    want = (
        df.groupby("user_id").size().reset_index(name="n")
        .sort_values(["n", "user_id"], ascending=[False, True])
        .head(5).reset_index(drop=True)
    )
    got = heavy_hitters(ds, "user_id", 5).to_pandas().reset_index(drop=True)
    assert got.user_id.tolist() == want.user_id.tolist()
    assert got.n.tolist() == want.n.tolist()

    # a second run over the same input: the counts and their top-k order
    # are deterministic
    got_fb = heavy_hitters(ds, "user_id", 5).to_pandas().reset_index(drop=True)
    assert got_fb.user_id.tolist() == want.user_id.tolist()
    assert got_fb.n.tolist() == want.n.tolist()


def test_left_join_bucketed_preserves_unmatched(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.joins import hash_join_bucketed

    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2, 3, 4], pa.int64()), "x": pa.array(list("abcd"))})
    )
    right = ray.data.from_arrow(
        pa.table({"rk": pa.array([2, 4], pa.int64()), "y": pa.array([20.0, 40.0])})
    )
    out = (
        hash_join_bucketed(left, right, left_on="k", right_on="rk", right_cols=["y"], join_type="left")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out.k.tolist() == [1, 2, 3, 4]
    assert out.y.isna().tolist() == [True, False, True, False]


def test_bucketed_semi_and_anti_join(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.joins import hash_join_bucketed

    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2, 3, 4, 5], pa.int64()), "x": pa.array(list("abcde"))})
    )
    # duplicate right keys: semi must NOT duplicate left rows
    right = ray.data.from_arrow(
        pa.table({"rk": pa.array([2, 2, 4], pa.int64()), "y": pa.array([1.0, 2.0, 3.0])})
    )
    semi = (
        hash_join_bucketed(left, right, left_on="k", right_on="rk", right_cols=[], join_type="semi")
        .to_pandas().sort_values("k")
    )
    assert semi.k.tolist() == [2, 4]
    assert list(semi.columns) == ["k", "x"]
    anti = (
        hash_join_bucketed(left, right, left_on="k", right_on="rk", right_cols=[], join_type="anti")
        .to_pandas().sort_values("k")
    )
    assert anti.k.tolist() == [1, 3, 5]


def test_image_resize_real_bilinear_roundtrip(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.multimodal import (
        _bilinear_resize,
        _png_decode,
        resize_images,
        synth_media_table,
    )

    # kernel: 2x2 checker -> 4x4, corners must keep their source colors
    px = np.array([[[0], [255]], [[255], [0]]], dtype=np.uint8)
    up = _bilinear_resize(px, 4, 4)
    assert up.shape == (4, 4, 1)
    assert up[0, 0, 0] == 0 and up[0, 3, 0] == 255
    assert up[3, 0, 0] == 255 and up[3, 3, 0] == 0
    # identity resize is exact
    assert (_bilinear_resize(px, 2, 2) == px).all()

    tbl = synth_media_table(40)
    out = resize_images(ray.data.from_arrow(tbl), target_size=(16, 16)).to_pandas()
    assert len(out) == 40
    src = tbl.to_pandas().set_index("media_id")
    ok = out[out.error_code.isna()]
    bad = out[out.error_code.notna()]
    # every PNG row resizes; every non-PNG row error-rows with null payload
    assert set(ok.media_id) == set(src[src.kind == "image"].index)
    assert bad.payload.isna().all()
    for _, r in ok.head(5).iterrows():
        w, h, px2 = _png_decode(r.payload)
        assert (w, h, px2.shape[:2]) == (16, 16, (16, 16))


def test_frame_sampler_grid_and_honest_stub(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.multimodal import sample_frames, synth_media_table

    tbl = synth_media_table(60)
    src = tbl.to_pandas()
    vids = src[src.kind == "video"]
    import json as _json

    ds = ray.data.from_arrow(tbl.filter(
        pa.compute.equal(tbl.column("kind"), pa.scalar("video"))
    ))
    out = sample_frames(ds, every_ms=200).to_pandas()
    # one frame row per 200ms tick per video, capped; all honest error rows
    want_n = sum(
        min(int(_json.loads(m).get("duration_ms", 0)) // 200 + 1, 32)
        for m in vids.meta
    )
    assert len(out) == want_n
    assert out.payload.isna().all()
    assert (out.error_code == "NotImplementedError").all()
    assert (out.ts_ms == out.frame_idx * 200).all()


def test_chunk_documents_overlap_unicode_empty(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.text import chunk_documents

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["abcdefghij", "", "héllo wörld ünïcode"]),
        }
    )
    out = (
        chunk_documents(ray.data.from_arrow(docs), size=6, stride=4)
        .to_pandas()
        .sort_values(["doc_id", "chunk_id"])
        .reset_index(drop=True)
    )
    d1 = out[out.doc_id == 1]
    assert d1.chunk_text.tolist() == ["abcdef", "efghij", "ij"]  # overlap of 2
    d2 = out[out.doc_id == 2]
    assert d2.chunk_text.tolist() == [""]  # empty doc keeps one row
    d3 = out[out.doc_id == 3]
    # codepoint (not byte) windows: chunks re-join to the source text
    assert d3.chunk_text.iloc[0] == "héllo "
    assert (d3.n_chunk_chars <= 6).all()
    joined = "".join(t[: min(4, len(t))] for t in d3.chunk_text[:-1]) + d3.chunk_text.iloc[-1]
    assert joined == "héllo wörld ünïcode"


def test_dedup_clusters_transitive_chain(ray_session):
    """Pairwise keep-min output chained through connected components:
    a chain a~b, b~c (a and c NOT direct LSH pairs is fine) must land in
    ONE cluster labeled by the smallest member."""
    import ray.data

    from jsonld_ex_ray.ops.dedup import minhash_lsh_duplicates
    from jsonld_ex_ray.ops.graph import connected_components

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 6
    texts = [base, base + " lambda", base + " lambda mu", "unrelated words entirely " * 12]
    tbl = pa.table({"doc_id": pa.array([10, 11, 12, 13], pa.int64()), "text": texts})
    dups = minhash_lsh_duplicates(ray.data.from_arrow(tbl), threshold=0.7)

    def as_edges(batch):
        return pa.table({"src": batch.column("doc_id"), "dst": batch.column("dup_of")})

    comps = (
        connected_components(dups.map_batches(as_edges, batch_format="pyarrow"))
        .to_pandas()
    )
    clustered = dict(zip(comps.node.astype(str), comps.component.astype(str)))
    assert clustered.get("11") == "10" and clustered.get("12") == "10"
    assert "13" not in clustered  # unrelated doc joins no cluster


def test_knn_join_rounded_tie_at_boundary(ray_session):
    """Same-block rounded tie exactly at the k boundary: selection must
    follow (rounded sim desc, id asc) — the duplicate-vector pair ties at
    sim 1.0 and the SMALLER id must win the k=1 slot."""
    import ray.data

    from jsonld_ex_ray.ops.similarity import knn_join

    v = [1.0, 0.0, 0.0]
    tbl = pa.table(
        {
            "vec_id": pa.array([1, 2, 3], pa.int64()),
            # ids 3 and 2 are both exact duplicates of the query vector 1
            "embedding": pa.array([v, v, v], pa.list_(pa.float32())),
        }
    )
    got = knn_join(ray.data.from_arrow(tbl), tbl.slice(0, 1), k=1).to_pandas()
    assert got.neighbor_id.tolist() == [2]  # smaller id wins the tie


def test_normalize_text_idempotent_and_unicode(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.text import normalize_text

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            # decomposed e + combining acute; control char; whitespace runs
            "text": pa.array(["Café  \t du\x07  MONDE ", "  A\n\nB  "]),
        }
    )
    out = normalize_text(ray.data.from_arrow(docs)).to_pandas().sort_values("doc_id")
    assert out.text_norm.tolist() == ["café du monde", "a b"]
    assert out.n_chars_norm.tolist() == [13, 3]
    # idempotence
    again = (
        normalize_text(
            ray.data.from_arrow(
                pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                          "text": pa.array(out.text_norm.tolist())})
            )
        )
        .to_pandas().sort_values("doc_id")
    )
    assert again.text_norm.tolist() == out.text_norm.tolist()


def test_review_fixes_edge_cases(ray_session):
    """Review-found edges: empty/null-key anti join, constant-group
    z-score nulls, chunk fan-out cap raises instead of truncating."""
    import pytest
    import ray.data

    from jsonld_ex_ray.ops.agg import zscore_by_group
    from jsonld_ex_ray.ops.joins import filter_by_keys
    from jsonld_ex_ray.ops.text import chunk_documents

    big = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2, None], pa.int64()), "x": pa.array([1.0, 2.0, 3.0])})
    )
    # empty small side: NOT EXISTS keeps everything
    empty = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
    assert filter_by_keys(big, empty, on="k", keys_on="k", anti=True).count() == 3
    # null keys: a null small-side key matches nothing; null big rows survive
    nulls = ray.data.from_arrow(pa.table({"k": pa.array([2, None], pa.int64())}))
    out = filter_by_keys(big, nulls, on="k", keys_on="k", anti=True).to_pandas()
    assert sorted(out.x) == [1.0, 3.0]

    # constant group: SQL x/0 is NULL, never inf
    t = pa.table({"g": pa.array(["a", "a", "b", "b"]), "v": pa.array([5.0, 5.0, 1.0, 3.0])})
    z = zscore_by_group(ray.data.from_arrow(t), "g", "v").to_pandas()
    assert z[z.g == "a"].z.isna().all()
    assert z[z.g == "b"].z.notna().all()

    # chunk cap: loud failure, not silent truncation
    giant = pa.table({"doc_id": pa.array([1], pa.int64()), "text": pa.array(["x" * 100])})
    with pytest.raises(Exception, match="max_chunks"):
        chunk_documents(
            ray.data.from_arrow(giant), size=4, stride=2, max_chunks=3
        ).to_pandas()


def test_seeded_string_hashes_are_decorrelated():
    """Regression (review-found): the seed must enter the polynomial BASE.
    An engineered base-Q (seed-0) collision between two equal-length
    strings must NOT collide under other seeds — otherwise the '128-bit'
    two-seed dedup key degrades to 64 bits (every rowsum collision kills
    both halves at once)."""
    from jsonld_ex_ray.ops.hashing import _Q, hash_strings, hash_strings_pair

    Q, M = int(_Q), 1 << 64
    a, c, b = 0x1111111111111111, 0x2222222222222222, 0x3333333333333333
    d = (b + (a - c) * pow(Q, -1, M)) % M  # (a+1)+(b+1)Q == (c+1)+(d+1)Q
    s1 = a.to_bytes(8, "little") + b.to_bytes(8, "little")
    s2 = c.to_bytes(8, "little") + d.to_bytes(8, "little")
    arr = pa.array([s1, s2], pa.binary())
    h0 = hash_strings(arr, 0)
    assert h0[0] == h0[1]  # the engineered seed-0 collision
    h11, h12 = hash_strings_pair(arr, 11, 12)
    assert h11[0] != h11[1] and h12[0] != h12[1]
    # pair path == two independent single-seed calls
    assert (h11 == hash_strings(arr, 11)).all()
    assert (h12 == hash_strings(arr, 12)).all()


def test_batch_and_perdoc_tokenization_parity():
    """The batch kernels tokenize with arrow utf8_split_whitespace, the
    per-doc paths with str.split(): both must agree — including the
    \\x1c-\\x1f separators utf8proc also treats as whitespace."""
    import pyarrow.compute as pc

    probes = ["a\x1cb c", " x y ", "a\x85b", "tab\tsep", "", "  ",
              "a\xa0b", "　z　", "a\x1d\x1e\x1fb"]
    arrow = [
        [t for t in row if t]
        for row in pc.utf8_split_whitespace(pa.array(probes)).to_pylist()
    ]
    assert arrow == [p.split() for p in probes]


def test_png_roundtrip_gray_and_rgba_resize(ray_session):
    """Review-found: the encoder was RGB-only, so valid gray/RGBA PNGs
    always became error rows in the resize stage."""
    from jsonld_ex_ray.ops.multimodal import _png_decode, _png_encode, resize_batch

    gray = ((np.arange(36).reshape(6, 6, 1) * 7) % 256).astype(np.uint8)
    rgba = np.dstack([gray[..., 0]] * 4).astype(np.uint8)
    for px in (gray, rgba):
        payload = _png_encode(px)
        batch = pa.table(
            {"media_id": pa.array([1], pa.int64()), "payload": pa.array([payload], pa.binary())}
        )
        out = resize_batch(batch, target_size=(3, 3)).to_pandas()
        assert out.error_code.isna().all(), out.error_code.tolist()
        w, h, px2 = _png_decode(out.payload.iloc[0])
        assert (w, h, px2.shape[2]) == (3, 3, px.shape[2])


def test_tiny_png_features_never_nan(ray_session):
    """Images smaller than the 3x4 luminance grid must emit 0.0 for the
    empty cells, not NaN."""
    import ray.data

    from jsonld_ex_ray.ops.multimodal import MEDIA_SCHEMA, _png_encode, decode_media

    px = np.array([[[10, 20, 30], [40, 50, 60]]], dtype=np.uint8)  # 1x2 RGB
    tbl = pa.Table.from_pydict(
        {
            "media_id": [1], "kind": ["image"],
            "payload": [_png_encode(px)], "meta": ['{"width":2,"height":1}'],
        },
        schema=MEDIA_SCHEMA,
    )
    out = decode_media(ray.data.from_arrow(tbl)).to_pandas()
    assert out.width.iloc[0] == 2 and out.height.iloc[0] == 1
    assert not any(np.isnan(v) for v in out.feature.iloc[0])


def test_frame_sampler_survives_non_object_meta(ray_session):
    from jsonld_ex_ray.ops.multimodal import frame_batch

    batch = pa.table(
        {
            "media_id": pa.array([1, 2, 3, 4], pa.int64()),
            "payload": pa.array([b"x"] * 4, pa.binary()),
            "meta": pa.array(["null", '"str"', "[1]", '{"duration_ms": null}']),
        }
    )
    out = frame_batch(batch, every_ms=100).to_pandas()
    # every row degrades to duration 0 → exactly one frame row each
    assert sorted(out.media_id) == [1, 2, 3, 4]
    assert (out.frame_idx == 0).all()


def test_grouped_quantiles_ignore_nan(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.agg import grouped_exact_quantiles

    t = pa.table(
        {
            "g": pa.array(["a"] * 3 + ["b"] * 4),
            "v": pa.array([1.0, 2.0, float("nan"), 10.0, 20.0, 30.0, float("nan")]),
        }
    )
    out = grouped_exact_quantiles(ray.data.from_arrow(t), "g", "v", [0.5, 1.0]).to_pandas()
    a = out[out.g == "a"].iloc[0]
    b = out[out.g == "b"].iloc[0]
    assert (a.q50, a.q100) == (1.5, 2.0)  # NaN excluded from n AND values
    assert (b.q50, b.q100) == (20.0, 30.0)


def test_keyed_running_sum_exact_at_large_magnitudes(ray_session, buckets):
    """Per-key sums must be SERIAL within the key (polars cum_sum.over),
    not global-cumsum-minus-offset — the subtraction loses the small
    key's precision once a preceding key's total is huge."""
    import ray.data

    from jsonld_ex_ray.ops.window import keyed_running_sum

    base = np.datetime64("2024-01-01T00:00:00", "us")
    rows = {
        "k": pa.array(["a", "a", "b", "b", "b"]),
        "ts": pa.array([base + np.timedelta64(i, "s") for i in range(5)]),
        "id": pa.array(list(range(5)), pa.int64()),
        "v": pa.array([1e14, 1e14, 0.01, 0.01, 0.01]),
    }
    buckets(1)
    out = (
        keyed_running_sum(
            ray.data.from_arrow(pa.table(rows)), "k", "ts", "id", "v",
            round_to=None,
        )
        .to_pandas()
        .sort_values("id")
    )
    b = out[out.k == "b"].running_sum.tolist()
    assert b == [0.01, 0.02, 0.03]  # exact — no cancellation residue
