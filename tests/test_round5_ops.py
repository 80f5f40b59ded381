"""Round-5 tests: segmented_head null-int regression, vectorized
interval-join probe, cardinality-gated group-stats fallbacks, the
substring-dedup CUT pass, and the new oracled kernels (first/last,
ntile, LSH exact-dup recall)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


# ---------------------------------------------------------------------------
# segmented_head: NULL numeric group keys form ONE run (ADVICE r4)
# ---------------------------------------------------------------------------


def test_segmented_head_null_int_group_one_run():
    """A nullable int64 group column must treat ALL null rows as one
    partition (SQL row_number PARTITION BY parity), not NaN-per-row runs
    that let every null row pass rank < k."""
    from jsonld_ex_ray.ops.agg import segmented_head

    t = pa.table(
        {
            "g": pa.array([1, 1, 1, None, None, None], type=pa.int64()),
            "v": [3, 1, 2, 6, 4, 5],
        }
    )
    out = segmented_head(t, "g", [("v", "ascending")], 1)
    assert out.num_rows == 2
    assert out.to_pydict() == {"g": [1, None], "v": [1, 4]}


def test_segmented_head_null_group_types_matrix():
    from jsonld_ex_ray.ops.agg import segmented_head

    for typ, vals in [
        (pa.float64(), [1.5, 1.5, None, None]),
        (pa.string(), ["a", "a", None, None]),
        (pa.timestamp("us"), [1000, 1000, None, None]),
    ]:
        t = pa.table(
            {"g": pa.array(vals, type=typ), "v": pa.array([2, 1, 9, 3])}
        )
        out = segmented_head(t, "g", [("v", "ascending")], 1)
        assert out.num_rows == 2, typ
        assert out.column("v").to_pylist() == [1, 3], typ


# ---------------------------------------------------------------------------
# interval_join_banded: vectorized bucket probe (no per-interval Python)
# ---------------------------------------------------------------------------


def test_interval_join_many_intervals_one_band(ray_session):
    """50k intervals all landing in ONE band, plus values spread across
    it: the batched searchsorted/repeat-expand probe must produce exactly
    the brute-force BETWEEN matches (and do so loop-free — this sizing
    finishes fast only if the kernel is vectorized)."""
    import ray.data
    from jsonld_ex_ray.ops.joins import interval_join_banded

    rng = np.random.RandomState(7)
    n_iv = 50_000
    lo = rng.uniform(0, 999, n_iv)
    hi = lo + rng.uniform(0, 0.6, n_iv)  # narrow: every interval in band 0
    vals = rng.uniform(0, 1000, 400)
    left = pd.DataFrame({"v": vals, "lid": np.arange(400, dtype=np.int64)})
    right = pd.DataFrame(
        {"lo": lo, "hi": hi, "rid": np.arange(n_iv, dtype=np.int64)}
    )
    out = (
        interval_join_banded(
            ray.data.from_pandas(left).repartition(4),
            ray.data.from_pandas(right).repartition(4),
            left_val="v",
            right_lo="lo",
            right_hi="hi",
            right_cols=["rid"],
            band_width=1000.0,  # one band for everything
            num_buckets=4,
        )
        .to_pandas()
        .sort_values(["lid", "rid"])
        .reset_index(drop=True)
    )
    # brute force oracle
    m = (vals[:, None] >= lo[None, :]) & (vals[:, None] <= hi[None, :])
    li, ri = np.nonzero(m)
    want = (
        pd.DataFrame({"lid": li.astype(np.int64), "rid": ri.astype(np.int64)})
        .sort_values(["lid", "rid"])
        .reset_index(drop=True)
    )
    assert len(out) == len(want) > 0
    pd.testing.assert_frame_equal(out[["lid", "rid"]], want)


# ---------------------------------------------------------------------------
# empty-schema divergence filter: Ray's artifact dropped, real drift kept
# ---------------------------------------------------------------------------


def test_empty_schema_warning_filter_is_selective():
    import logging

    import jsonld_ex_ray  # noqa: F401  (import installs the filter)

    lg = logging.getLogger("ray.data._internal.execution.streaming_executor_state")
    filters = [f for f in lg.filters if type(f).__name__ == "_EmptyNewSchemaFilter"]
    assert filters, "package import must install the filter"
    f = filters[0]

    def rec(msg):
        return logging.LogRecord("x", logging.WARNING, "p", 1, msg, None, None)

    # the Ray empty-merge artifact (empty schema prints as ""): dropped
    assert not f.filter(
        rec(
            "Operator produced a RefBundle with a different schema than the "
            "previous one. Previous schema: a: int64, "
            "new schema: . This may lead to unexpected behavior."
        )
    )
    # REAL schema drift (non-empty new schema): kept
    assert f.filter(
        rec(
            "Operator produced a RefBundle with a different schema than the "
            "previous one. Previous schema: a: int64, "
            "new schema: b: string. This may lead to unexpected behavior."
        )
    )


# ---------------------------------------------------------------------------
# group_first_last: arg-extreme aggregate
# ---------------------------------------------------------------------------


def test_group_first_last_matches_pandas(ray_session):
    import ray.data
    from jsonld_ex_ray.ops.agg import group_first_last

    rng = np.random.RandomState(13)
    n = 5000
    df = pd.DataFrame(
        {
            "g": rng.randint(0, 300, n).astype("int64"),
            "o": rng.randint(0, 50, n).astype("int64"),  # ties guaranteed
            "i": np.arange(n, dtype=np.int64),
            "p": rng.choice(list("xyz"), n),
        }
    )
    got = (
        group_first_last(
            ray.data.from_pandas(df).repartition(8),
            "g",
            ["o", "i"],
            ["p", "o"],
            num_buckets=8,
        )
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    s = df.sort_values(["g", "o", "i"])
    first = s.groupby("g").head(1).set_index("g")
    last = s.groupby("g").tail(1).set_index("g")
    assert got["first_p"].tolist() == first["p"].tolist()
    assert got["first_o"].tolist() == first["o"].tolist()
    assert got["last_p"].tolist() == last["p"].tolist()
    assert got["last_o"].tolist() == last["o"].tolist()


def test_lsh_exactdup_candidate_pairs_finds_all(ray_session):
    """Every byte-identical pair must surface as an LSH candidate —
    identical text means identical signature in every band."""
    import ray.data
    from jsonld_ex_ray.ops.dedup import lsh_exactdup_candidate_pairs

    rng = np.random.RandomState(21)
    base = ["".join(rng.choice(list("abcdefg "), 120)) for _ in range(30)]
    # dup groups: docs 0/30 identical, 1/31/61 identical (triple)
    texts = base + [base[0], base[1]] + [base[1]]
    ids = list(range(len(texts)))
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})
    ).repartition(4)
    got = (
        lsh_exactdup_candidate_pairs(ds, num_buckets=8)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    want = [(0, 30), (1, 31), (1, 32), (31, 32)]
    assert list(map(tuple, got.to_numpy())) == want


def test_lsh_exactdup_pair_key_unambiguous(ray_session, monkeypatch):
    """String ids containing the old '|' separator: the candidate pair
    ('a|b', 'c') must not stand in for the exact-dup pair ('a', 'b|c')."""
    import ray.data
    from jsonld_ex_ray.ops import dedup as dd

    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": ["a", "b|c", "a|b", "c"],
                "text": ["same text " * 8, "same text " * 8, "other one " * 8, "third " * 8],
            }
        )
    )

    def only(pair):
        cand = ray.data.from_arrow(pa.table({"doc_a": [pair[0]], "doc_b": [pair[1]]}))
        monkeypatch.setattr(dd, "_dedup_pairs", lambda *a, **k: cand)
        out = dd.lsh_exactdup_candidate_pairs(ds, num_buckets=4).take_all()
        return [(r["doc_a"], r["doc_b"]) for r in out]

    assert only(("a|b", "c")) == []
    assert only(("a", "b|c")) == [("a", "b|c")]


# ---------------------------------------------------------------------------
# substring-dedup CUT pass
# ---------------------------------------------------------------------------


def _cut_oracle(docs, window, stride, min_docs=2):
    """Reference implementation in plain Python: flag windows whose text
    occurs in >= min_docs distinct docs, remove the union of flagged
    codepoint ranges."""
    spans = {}
    for did, text in docs:
        for off in range(0, max(len(text) - window + 1, 0), stride):
            spans.setdefault(text[off : off + window], set()).add(did)
    dup = {t for t, ids in spans.items() if len(ids) >= min_docs}
    out = []
    for did, text in docs:
        m = np.zeros(len(text), bool)
        for off in range(0, max(len(text) - window + 1, 0), stride):
            if text[off : off + window] in dup:
                m[off : off + window] = True
        out.append((did, "".join(c for c, cut in zip(text, m) if not cut)))
    return out


def test_cut_duplicate_spans_matches_reference(ray_session):
    """Mixed corpus: shared boilerplate block across docs (cut), unique
    text (kept), overlapping flagged windows (merged), a doc that is all
    boilerplate (becomes \"\"), a non-ASCII doc sharing the duplicated
    run (per-doc fallback path), and a doc shorter than the window
    (untouched)."""
    import ray.data
    from jsonld_ex_ray.ops.dedup import cut_duplicate_spans

    w, s = 16, 8
    boiler = "REPEATED-BLOCK-" + "x" * 17  # 32 chars → several windows
    rng = np.random.RandomState(2)

    def rand(n):
        return "".join(rng.choice(list("abcdefgh "), n))

    docs = [
        (1, rand(40) + boiler + rand(30)),
        (2, boiler + rand(55)),
        (3, boiler),  # all flagged → ""
        (4, rand(70)),  # unique → untouched
        (5, "héllo wörld " + boiler + " ünïqué tail here"),  # non-ASCII
        (6, "short"),  # < window → untouched
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([d for d, _ in docs], pa.int64()),
                "text": pa.array([t for _, t in docs], pa.string()),
            }
        )
    ).repartition(3)
    got = (
        cut_duplicate_spans(ds, window=w, stride=s, num_buckets=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = pd.DataFrame(_cut_oracle(docs, w, s), columns=["doc_id", "text"])
    assert len(got) == len(docs)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # sanity on the interesting rows
    row = dict(zip(got.doc_id, got.text))
    assert boiler not in row[1] and boiler not in row[2]
    assert row[4] == docs[3][1]
    assert row[6 - 1 + 0] is not None  # doc 5 processed through fallback
    assert row[6] == "short"


def test_cut_duplicate_spans_no_dups_passthrough(ray_session):
    import ray.data
    from jsonld_ex_ray.ops.dedup import cut_duplicate_spans

    rng = np.random.RandomState(4)
    texts = ["".join(rng.choice(list("abcdefghij"), 100)) for _ in range(20)]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(20), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    ).repartition(4)
    got = (
        cut_duplicate_spans(ds, window=32, stride=16, num_buckets=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got["text"].tolist() == texts


def test_clean_corpus_cut_spans_stage(ray_session):
    """clean_corpus(cut_spans=True) keeps the same survivors as the
    plain pipeline, rewrites text in place, and retains the split
    column and the side columns."""
    import ray.data
    from jsonld_ex_ray.pipelines.corpus_clean import clean_corpus

    ds = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")
    plain = clean_corpus(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    ds2 = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")
    cut = (
        clean_corpus(ds2, cut_spans=True)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(cut.doc_id) == list(plain.doc_id)
    assert set(plain.columns) == set(cut.columns)
    assert "split" in cut.columns
    # the rewrite never grows a doc
    assert (cut.text.str.len() <= plain.text.str.len()).all()


# ---------------------------------------------------------------------------
# cardinality-gated group-stats family (share / zscore / pivot)
# ---------------------------------------------------------------------------


def _share_oracle(df):
    s = df.groupby("g", dropna=True)["v"].transform("sum")
    share = df["v"] / s
    share[df["g"].isna() | (s == 0)] = np.nan
    return share


def test_share_of_group_bucketed_matches_broadcast(ray_session):
    """120k distinct groups — above the default broadcast gate, so the
    stats must join back via the bucketed hash join with O(1) driver
    state — against the pandas windowed-sum oracle; and a tiny-gate run
    must agree with the broadcast path bit-for-bit."""
    import ray.data
    from jsonld_ex_ray.ops.agg import share_of_group

    rng = np.random.RandomState(3)
    n = 360_000
    df = pd.DataFrame(
        {
            "g": rng.randint(0, 120_000, n).astype("int64"),
            "v": rng.uniform(-5, 5, n),
            "rid": np.arange(n, dtype=np.int64),
        }
    )
    out = (
        share_of_group(ray.data.from_pandas(df).repartition(8), "g", "v", num_buckets=16)
        .to_pandas()
        .sort_values("rid")
        .reset_index(drop=True)
    )
    assert len(out) == n
    want = np.round(_share_oracle(df), 6)
    got = out["share"].to_numpy()
    assert np.allclose(got, want, atol=1e-6, equal_nan=True)


def test_share_and_zscore_paths_agree_with_null_keys(ray_session):
    """Forcing the join-back path with a tiny gate must give the same
    rows as the broadcast path — and on BOTH paths the NULL group key is
    ONE real partition (SQL PARTITION BY parity): share over (9, 1) is
    0.9/0.1, z over (9, 1) is ±1."""
    import ray.data
    from jsonld_ex_ray.ops.agg import share_of_group, zscore_by_group

    tbl = pa.table(
        {
            "g": pa.array([1, 1, 2, 2, 2, None, None, 3], type=pa.int64()),
            "v": pa.array([1.0, 3.0, 2.0, 2.0, 6.0, 9.0, 1.0, 5.0]),
            "rid": pa.array(np.arange(8, dtype=np.int64)),
        }
    )
    df = tbl.to_pandas()
    null_mask = df["g"].isna().to_numpy()
    expect_null = {"share": [0.9, 0.1], "z": [1.0, -1.0]}
    for fn, col in [(share_of_group, "share"), (zscore_by_group, "z")]:
        ds = ray.data.from_arrow(tbl).repartition(3)
        wide = fn(ds, "g", "v").to_pandas().sort_values("rid").reset_index(drop=True)
        ds = ray.data.from_arrow(tbl).repartition(3)
        narrow = (
            fn(ds, "g", "v", max_broadcast_groups=1)
            .to_pandas()
            .sort_values("rid")
            .reset_index(drop=True)
        )
        assert np.allclose(
            wide[col].to_numpy(np.float64),
            narrow[col].to_numpy(np.float64),
            equal_nan=True,
        ), col
        for out in (wide, narrow):
            got = out.loc[null_mask, col].tolist()
            assert got == expect_null[col], (col, got)


def test_zscore_bucketed_many_groups(ray_session):
    import ray.data
    from jsonld_ex_ray.ops.agg import zscore_by_group

    rng = np.random.RandomState(5)
    n = 330_000
    df = pd.DataFrame(
        {
            "g": rng.randint(0, 110_000, n).astype("int64"),
            "v": rng.normal(0, 2, n),
            "rid": np.arange(n, dtype=np.int64),
        }
    )
    out = (
        zscore_by_group(ray.data.from_pandas(df).repartition(8), "g", "v", num_buckets=16)
        .to_pandas()
        .sort_values("rid")
        .reset_index(drop=True)
    )
    grp = df.groupby("g")["v"]
    mu = grp.transform("mean")
    sd = grp.transform(lambda x: x.std(ddof=0))
    want = ((df["v"] - mu) / sd).where(sd > 0, np.nan)
    assert np.allclose(
        out["z"].to_numpy(), np.round(want, 6), atol=1e-6, equal_nan=True
    )


def test_pivot_agg_gate_returns_dataset_above(ray_session):
    """pivot_agg stays a distributed Dataset above the gate (a
    per-domain feature table must not land in driver memory) and an
    identical pandas frame below it."""
    import ray.data
    from jsonld_ex_ray.ops.agg import pivot_agg

    rng = np.random.RandomState(9)
    n = 40_000
    df = pd.DataFrame(
        {
            "k": rng.randint(0, 5_000, n).astype("int64"),
            "p": rng.choice(["a", "b"], n),
            "v": rng.uniform(0, 10, n),
        }
    )
    small = pivot_agg(
        ray.data.from_pandas(df).repartition(4), "k", "p", "v", ["a", "b"]
    )
    assert isinstance(small, pd.DataFrame)
    big = pivot_agg(
        ray.data.from_pandas(df).repartition(4),
        "k",
        "p",
        "v",
        ["a", "b"],
        max_broadcast_groups=10,
    )
    assert not isinstance(big, pd.DataFrame)  # stays a Dataset
    big_df = big.to_pandas().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        small, big_df, check_dtype=False, check_exact=False, rtol=1e-9
    )


# ---------------------------------------------------------------------------
# brute_force_dup_pairs: exact all-pairs cosine baseline (oracled query)
# ---------------------------------------------------------------------------


def test_brute_force_dup_pairs_matches_numpy(ray_session):
    """Exactly-once pair emission vs a driver-side O(n^2) reference:
    every (a<b) pair at-or-above threshold, none below, sims rounded
    half-away like the DuckDB oracle."""
    import ray.data

    from jsonld_ex_ray.ops.similarity import _normalize, brute_force_dup_pairs

    rng = np.random.default_rng(7)
    n, d = 300, 16
    base = rng.normal(size=(n, d))
    # plant 10 near-dup rows: row i copies row i-10 with tiny noise
    base[-10:] = base[:10] + rng.normal(scale=0.01, size=(10, d))
    ids = np.arange(n, dtype=np.int64)
    tbl = pa.table(
        {"vec_id": ids, "embedding": pa.array(base.tolist(), pa.list_(pa.float32()))}
    )
    ds = ray.data.from_arrow(tbl).repartition(7)
    got = (
        brute_force_dup_pairs(ds, threshold=0.9)
        .to_pandas()
        .sort_values(["vec_id_a", "vec_id_b"])
        .reset_index(drop=True)
    )
    m = _normalize(base.astype(np.float32).astype(np.float64))
    g = m @ m.T
    iu = np.triu_indices(n, k=1)
    keep = g[iu] >= 0.9
    want = pd.DataFrame(
        {
            "vec_id_a": iu[0][keep].astype(np.int64),
            "vec_id_b": iu[1][keep].astype(np.int64),
        }
    )
    assert len(want) >= 10  # the planted dups are present
    pd.testing.assert_frame_equal(got[["vec_id_a", "vec_id_b"]], want)
    # sims are the rounded cosines of those pairs
    assert np.allclose(got["sim"].to_numpy(), np.round(g[iu][keep], 4), atol=5e-5)


def test_brute_force_dup_pairs_broadcast_guard(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.similarity import brute_force_dup_pairs

    tbl = pa.table(
        {"vec_id": [1, 2, 3], "embedding": pa.array([[1.0], [2.0], [3.0]], pa.list_(pa.float32()))}
    )
    with pytest.raises(ValueError, match="broadcast guard"):
        brute_force_dup_pairs(ray.data.from_arrow(tbl), max_broadcast_rows=2)


# ---------------------------------------------------------------------------
# sha256_hex: the lineage-audit kernel equals the extract stage's digest
# ---------------------------------------------------------------------------


def test_sha256_hex_matches_extract_stage_hashlib():
    """kg_lineage's oracle checks the engine's vectorized sha kernel;
    this pins that kernel byte-equal to the hashlib digest the
    extraction stage mints per file (stages/extract.py), including
    non-ASCII content and the null->'' convention."""
    import hashlib

    from jsonld_ex_ray.ops.hashing import sha256_hex

    vals = ["", "abc", "snowman ☃ utf-8", '{"@id": "x"}', None]
    got = sha256_hex(pa.array(vals, pa.string())).to_pylist()
    want = [hashlib.sha256(((v or "")).encode("utf-8")).hexdigest() for v in vals]
    assert got == want


# ---------------------------------------------------------------------------
# graph-kernel oracles: the chain-graph CC / PageRank queries match their
# recursive-CTE SQL oracles (the driver comparison, pinned in pytest)
# ---------------------------------------------------------------------------

SF0001 = "/root/testdata/sf0.001"


def _duckdb_oracle(name, sf_dir, tables=("events",)):
    import duckdb

    import __ray_entry__ as entry

    con = duckdb.connect()
    for t in tables:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con.execute(entry.oracle_sql()[name]).df()


def test_events_click_cc_matches_recursive_cte(ray_session):
    """Pointer-doubling CC over the SQL-derivable click chain graph is
    bit-exact against the DuckDB WITH RECURSIVE min-label closure —
    the same comparison the driver runs, kept under pytest so a kernel
    regression surfaces before the next driver round."""
    import __ray_entry__ as entry

    got = entry.queries()["events_click_cc"](SF0001).to_pandas()
    want = _duckdb_oracle("events_click_cc", SF0001)
    pd.testing.assert_frame_equal(
        got.sort_values("node").reset_index(drop=True),
        want.sort_values("node").reset_index(drop=True),
        check_dtype=False,
    )


def test_events_pagerank_matches_recursive_cte(ray_session):
    """Damped PageRank (5 iterations, symmetric chain graph — zero
    dangling mass) agrees with the DuckDB recursive-CTE recurrence to
    6dp on every node."""
    import __ray_entry__ as entry

    got = entry.queries()["events_pagerank"](SF0001).to_pandas()
    want = _duckdb_oracle("events_pagerank", SF0001)
    got = got.sort_values("node").reset_index(drop=True)
    want = want.sort_values("node").reset_index(drop=True)
    assert got["node"].tolist() == want["node"].tolist()
    assert np.allclose(got["rank"].to_numpy(), want["rank"].to_numpy(), atol=1.5e-6)
    # ranks are a probability distribution (no dangling leakage)
    assert abs(got["rank"].sum() - 1.0) < 1e-3


# ---------------------------------------------------------------------------
# UNION (distinct) set op + correlated-subquery filter (TPC-H Q17 shape)
# ---------------------------------------------------------------------------


def test_set_op_union_matches_duckdb_incl_nulls(ray_session):
    """SQL UNION collapses duplicates within AND across sides, and one
    all-NULL row survives (IS NOT DISTINCT FROM semantics — arrow
    group_by hashes null as its own single group)."""
    import duckdb
    import ray.data

    from jsonld_ex_ray.ops.setops import set_op

    lt = pa.table({"k": pa.array([1, 1, None, 2, None], pa.int64()),
                   "s": pa.array(["a", "a", None, "b", "c"], pa.string())})
    rt = pa.table({"k": pa.array([1, None, 3], pa.int64()),
                   "s": pa.array(["a", None, "d"], pa.string())})
    got = (
        set_op(
            ray.data.from_arrow(lt).repartition(3),
            ray.data.from_arrow(rt).repartition(2),
            left_cols=["k", "s"],
            op="union",
            num_buckets=4,
        )
        .to_pandas().sort_values(["k", "s"]).reset_index(drop=True)
    )
    lt_df, rt_df = lt.to_pandas(), rt.to_pandas()
    want = duckdb.sql(
        "SELECT * FROM lt_df UNION SELECT * FROM rt_df ORDER BY k, s"
    ).fetchdf()
    assert len(got) == len(want) == 5
    pd.testing.assert_frame_equal(
        got.astype({"k": "float64"}), want.astype({"k": "float64"})
    )


def test_filter_vs_group_mean_both_paths(ray_session):
    """Correlated filter v < (1/2)·avg(v) per group: broadcast and
    join-back (max_broadcast_groups=1) paths keep the identical row set;
    a NULL group key is one real partition; NULL values never pass."""
    import ray.data

    from jsonld_ex_ray.ops.agg import filter_vs_group_mean

    tbl = pa.table(
        {
            # group a: values 1..8 (mean 4.5, half 2.25 → keep 1,2)
            # group b: values 10,30 (half-mean 10 → keep nothing, strict <)
            # NULL group: 1, 100, None (mean over COUNT(*)=3 is 33.67 →
            #   half 16.83 → keep the 1; the None value row never passes)
            "g": pa.array(list("aaaaaaaa") + ["b", "b"] + [None] * 3),
            "v": pa.array(
                [1, 2, 3, 4, 5, 6, 7, 8, 10, 30, 1, 100, None], pa.int64()
            ),
        }
    )
    want_v = {("a", 1), ("a", 2), (None, 1)}
    for mbg in (100_000, 1):
        ds = ray.data.from_arrow(tbl).repartition(4)
        out = filter_vs_group_mean(
            ds, "g", "v", mult_num=1, mult_den=2, cmp="lt",
            max_broadcast_groups=mbg, num_buckets=4,
        ).to_pandas()
        got = {(None if pd.isna(g) else g, int(v)) for g, v in zip(out["g"], out["v"])}
        assert got == want_v, (mbg, got)


def test_gated_family_all_null_group_keys(ray_session):
    """Regression (review-found IndexError): when EVERY group key is
    NULL the non-null broadcast stats table is empty but batches aren't —
    the shared _gated_lookup must fall back to the null_row scalars
    instead of indexing an empty stats array. All three gated consumers
    must treat the NULL partition as one real group."""
    import ray.data

    from jsonld_ex_ray.ops.agg import (
        filter_vs_group_mean,
        share_of_group,
        zscore_by_group,
    )

    tbl = pa.table(
        {
            "g": pa.array([None, None, None, None], pa.string()),
            "v": pa.array([1, 2, 9, 4], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(2)
    kept = filter_vs_group_mean(ds, "g", "v", mult_num=1, mult_den=1, cmp="lt").to_pandas()
    assert sorted(kept["v"]) == [1, 2]  # mean 4 → strict below keeps 1,2

    ds = ray.data.from_arrow(tbl).repartition(2)
    shares = share_of_group(ds, "g", "v").to_pandas()
    assert np.allclose(sorted(shares["share"]), [1 / 16, 2 / 16, 4 / 16, 9 / 16])

    ds = ray.data.from_arrow(tbl).repartition(2)
    z = zscore_by_group(ds, "g", "v").to_pandas()
    v = np.array([1.0, 2.0, 9.0, 4.0])
    want = np.sort((v - v.mean()) / v.std())
    assert np.allclose(np.sort(z["z"].to_numpy(np.float64)), np.round(want, 6), atol=1e-6)


def test_unigram_logprob_both_paths_match_oracle(ray_session):
    """Corpus-trained unigram LM score: broadcast and vocabulary-gated
    join-back paths both equal the DuckDB oracle bit-for-bit at sf0.001
    (single-space string_split tokenization parity, 6dp rounding)."""
    import ray.data

    import __ray_entry__ as entry
    from jsonld_ex_ray.ops.text import unigram_logprob

    want = _duckdb_oracle("doc_unigram_lp", SF0001, tables=("documents",))
    docs = ray.data.read_parquet(
        f"{SF0001}/documents.parquet", columns=["doc_id", "text"]
    )
    for mbv in (100_000, 1):
        got = (
            unigram_logprob(docs, max_broadcast_vocab=mbv)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[["doc_id", "n_tokens", "mean_logprob"]], want, check_dtype=False
        )


def test_group_first_last_null_order_keys_match_sql(ray_session):
    """Regression (review-found): SQL last(x ORDER BY ts) under the
    default ASC NULLS LAST order returns the NULL-ts row when one
    exists; the descending pass must rank NULL as largest
    (null_placement=at_start), not skip it. first is unaffected."""
    import duckdb
    import ray.data

    from jsonld_ex_ray.ops.agg import group_first_last

    df = pd.DataFrame(
        {
            "g": ["a", "a", "a", "b", "b", "c"],
            "ts": pd.array([1, 2, None, 5, 4, None], dtype="Int64"),
            "rid": np.arange(6, dtype=np.int64),
            "v": ["p", "q", "r", "s", "t", "u"],
        }
    )
    got = (
        group_first_last(
            ray.data.from_pandas(df).repartition(3), "g", ["ts", "rid"], ["v"],
            num_buckets=4,
        )
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    want = duckdb.sql(
        """SELECT g, first(v ORDER BY ts, rid) AS first_v,
                  last(v ORDER BY ts, rid) AS last_v
           FROM df GROUP BY g ORDER BY g"""
    ).fetchdf()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_filter_vs_group_mean_rejects_bad_args():
    from jsonld_ex_ray.ops.agg import filter_vs_group_mean

    with pytest.raises(ValueError, match="cmp"):
        filter_vs_group_mean(None, "g", "v", cmp="ne")
    with pytest.raises(ValueError, match="mult_den"):
        filter_vs_group_mean(None, "g", "v", mult_den=0)


def test_lineitem_below_avg_matches_oracle(ray_session):
    """The Q17-shape query agrees with its window-SQL oracle bit-exactly
    at sf0.001 — the same comparison the driver runs."""
    import __ray_entry__ as entry

    got = entry.queries()["lineitem_below_avg"](SF0001).to_pandas()
    want = _duckdb_oracle("lineitem_below_avg", SF0001, tables=("lineitem",))
    pd.testing.assert_frame_equal(
        got.sort_values("l_partkey").reset_index(drop=True)[want.columns.tolist()],
        want,
        check_dtype=False,
    )


def test_users_customers_union_matches_oracle(ray_session):
    import __ray_entry__ as entry

    got = entry.queries()["users_customers_union"](SF0001).to_pandas()
    want = _duckdb_oracle(
        "users_customers_union", SF0001, tables=("events", "customer")
    )
    assert sorted(got["user_id"].tolist()) == sorted(want["user_id"].tolist())


def test_set_op_union_inclusion_exclusion_property(ray_session):
    """|A ∪ B| = |distinct A| + |distinct B| − |A ∩ B| across randomized
    multisets with nulls — ties the new union op to the already-proven
    intersect op (hypothesis-style sweep, seeded draws)."""
    import ray.data

    from jsonld_ex_ray.ops.setops import set_op

    rng = np.random.default_rng(17)
    for trial in range(6):
        a_vals = rng.integers(0, 40, rng.integers(1, 120)).astype(object)
        b_vals = rng.integers(20, 60, rng.integers(1, 120)).astype(object)
        if trial % 2:  # plant nulls on one or both sides
            a_vals[:: 7] = None
        if trial % 3 == 0:
            b_vals[:: 5] = None
        at = pa.table({"k": pa.array(list(a_vals), pa.int64())})
        bt = pa.table({"k": pa.array(list(b_vals), pa.int64())})
        a_ds, b_ds = ray.data.from_arrow(at).repartition(3), ray.data.from_arrow(bt).repartition(2)
        n_union = set_op(a_ds, b_ds, left_cols=["k"], op="union", num_buckets=4).count()
        n_inter = set_op(a_ds, b_ds, left_cols=["k"], op="intersect", num_buckets=4).count()
        da = len(pd.unique(pd.Series(list(a_vals))))
        db = len(pd.unique(pd.Series(list(b_vals))))
        assert n_union == da + db - n_inter, (trial, n_union, da, db, n_inter)


def test_filter_vs_group_mean_matches_pandas_transform(ray_session):
    """Randomized integral data: the cross-multiplied membership equals
    the naive v < (num/den)·group-mean computed serially by pandas."""
    import ray.data

    from jsonld_ex_ray.ops.agg import filter_vs_group_mean

    rng = np.random.default_rng(23)
    for num, den, cmp_name, op in [(1, 2, "lt", np.less), (3, 4, "ge", np.greater_equal)]:
        n = 4000
        df = pd.DataFrame(
            {
                "g": rng.integers(0, 80, n).astype("int64"),
                "v": rng.integers(0, 1000, n).astype("int64"),
                "rid": np.arange(n, dtype=np.int64),
            }
        )
        out = filter_vs_group_mean(
            ray.data.from_pandas(df).repartition(5),
            "g",
            "v",
            mult_num=num,
            mult_den=den,
            cmp=cmp_name,
            num_buckets=8,
        ).to_pandas()
        grp = df.groupby("g")
        s = grp["v"].transform("sum").to_numpy(np.int64)
        cnt = grp["v"].transform("size").to_numpy(np.int64)
        keep = op(df["v"].to_numpy(np.int64) * den * cnt, num * s)
        want = set(df.loc[keep, "rid"])
        assert set(out["rid"]) == want, (cmp_name, len(out), int(keep.sum()))


def test_unigram_logprob_duplicate_ids_merge_on_both_paths(ray_session):
    """Regression (review-found gate divergence): duplicate doc_ids —
    e.g. md5(text) ids over byte-identical docs — must GROUP BY doc_id
    identically on the broadcast and join-back paths, matching the SQL
    oracle's aggregation."""
    import ray.data

    from jsonld_ex_ray.ops.text import unigram_logprob

    tbl = pa.table(
        {
            "doc_id": pa.array(["a", "a", "b"], pa.string()),
            "text": pa.array(["x y", "x y", "z"], pa.string()),
        }
    )
    outs = []
    for mbv in (100_000, 1):
        ds = ray.data.from_arrow(tbl).repartition(2)
        out = (
            unigram_logprob(ds, max_broadcast_vocab=mbv)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert out["doc_id"].tolist() == ["a", "b"]
        assert out["n_tokens"].tolist() == [4, 1]
        outs.append(out)
    pd.testing.assert_frame_equal(outs[0], outs[1], check_dtype=False)


def test_unigram_logprob_unique_ids_fast_path_identical(ray_session):
    """unique_ids=True (streaming, no closing shuffle) returns exactly
    the grouped default for a unique-id corpus."""
    import ray.data

    from jsonld_ex_ray.ops.text import unigram_logprob

    docs = ray.data.read_parquet(
        f"{SF0001}/documents.parquet", columns=["doc_id", "text"]
    )
    a = (
        unigram_logprob(docs)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    b = (
        unigram_logprob(docs, unique_ids=True)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a[b.columns.tolist()], b, check_dtype=False)


def test_cut_duplicate_spans_rejects_repeated_ids(ray_session):
    """A repeated doc id would leave all but one copy uncut: refuse it."""
    import ray.data
    from jsonld_ex_ray.ops.dedup import cut_duplicate_spans

    text = "REPEATED-BLOCK-" * 6
    ds = ray.data.from_arrow(
        pa.table({"doc_id": ["x", "x", "y"], "text": [text, text, text]})
    )
    with pytest.raises(ValueError, match="'x' appears more than once"):
        cut_duplicate_spans(ds, window=16, stride=8, num_buckets=4).to_pandas()
