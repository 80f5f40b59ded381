"""Round-4 operators: moment aggregates (var/std/corr/covar), ROLLUP,
ranking windows, set ops, hash sampling, fixed-width histograms.

Every test checks against DuckDB computing the same SQL a driver oracle
would run, over synthetic frames that include the nasty cases: NULLs on
one or both sides of a pair, singleton and all-null groups, ties in the
ranking order, and empty buckets."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _frame(n=4000, seed=3):
    rng = np.random.default_rng(seed)
    df = pd.DataFrame(
        {
            "g": rng.integers(0, 5, n).astype("int64"),
            "id": np.arange(n, dtype="int64"),
            "x": rng.normal(50, 9, n),
            "y": rng.normal(-2, 4, n),
        }
    )
    df.loc[rng.random(n) < 0.07, "x"] = None
    df.loc[rng.random(n) < 0.07, "y"] = None
    # singleton group + group where x is always null (std/corr → NULL)
    extra = pd.DataFrame(
        {"g": [90, 91, 91], "id": [n, n + 1, n + 2], "x": [3.0, None, None], "y": [1.0, 2.0, 4.0]}
    )
    return pd.concat([df, extra], ignore_index=True)


def test_moment_aggs_match_duckdb(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.agg import groupby_agg

    df = _frame()
    ds = ray.data.from_pandas(df).repartition(6)
    aggs = [
        ("x", "std", "sx", 6),
        ("x", "var", "vx", 6),
        ("y", "mean", "my", 6),
        (("x", "y"), "corr", "cxy", 6),
        (("x", "y"), "covar", "vxy", 6),
    ]
    want = duckdb.sql(
        """SELECT g, round(stddev_samp(x),6) sx, round(var_samp(x),6) vx,
                  round(avg(y),6) my, round(corr(x,y),6) cxy,
                  round(covar_samp(x,y),6) vxy
           FROM df GROUP BY g ORDER BY g"""
    ).fetchdf()
    got = groupby_agg(ds, ["g"], aggs).to_pandas().sort_values("g").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)
    got_b = (
        groupby_agg(ds, ["g"], aggs)
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got_b[want.columns], want, check_dtype=False)


def test_moment_aggs_validate_specs():
    from jsonld_ex_ray.ops.agg import _norm_aggs

    with pytest.raises(ValueError, match="tuple"):
        _norm_aggs([("x", "corr", "c")])
    with pytest.raises(ValueError, match="single column"):
        _norm_aggs([(("x", "y"), "std", "s")])


def _with_null_keys(df):
    """``df`` plus rows whose ``g``, ``h`` or both are NULL: a source
    NULL-key group and the subtotal level are then both NULL there, and
    both are rows of SQL's ROLLUP/CUBE output."""
    n = len(df)
    extra = pd.DataFrame(
        {
            "g": [None, None, 1, None, None],
            "h": [0, 0, None, None, None],
            "id": np.arange(n, n + 5),
            "x": [1.5, 2.5, 4.0, 8.0, 16.0],
            "y": [0.0] * 5,
        }
    )
    return pd.concat([df, extra], ignore_index=True).astype({"g": "Int64", "h": "Int64"})


def test_rollup_matches_duckdb(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.agg import rollup_agg

    base = _frame()
    base["h"] = (base["id"] % 3).astype("int64")
    for df in (base, _with_null_keys(base)):
        ds = ray.data.from_pandas(df).repartition(5)
        got = rollup_agg(
            ds, ["g", "h"], [("x", "sum", "sx", 4), ("x", "count", "n"), ("x", "std", "sd", 6)]
        ).to_pandas()
        want = duckdb.sql(
            """SELECT g, h, round(sum(x),4) sx, count(*) n, round(stddev_samp(x),6) sd
               FROM df GROUP BY ROLLUP(g, h) ORDER BY g, h"""
        ).fetchdf()
        # NULL-key rows: compare via a sortable fill; the filled keys tie,
        # so sort on every column
        for f in (got, want):
            f["g"] = f["g"].fillna(-1).astype("int64")
            f["h"] = f["h"].fillna(-1).astype("int64")
        got = got.sort_values(list(want.columns)).reset_index(drop=True)
        want = want.sort_values(list(want.columns)).reset_index(drop=True)
        pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)


def test_rollup_empty(ray_session):
    import ray
    import ray.data

    from jsonld_ex_ray.ops.agg import rollup_agg

    ds = ray.data.from_pandas(pd.DataFrame({"g": [], "x": []})).repartition(2)
    # Ray's to_pandas drops an empty Dataset's columns; its Arrow blocks keep them
    refs = rollup_agg(ds, ["g"], [("x", "sum", "s")]).to_arrow_refs()
    out = pa.concat_tables(ray.get(refs)).to_pandas()
    assert len(out) == 0 and list(out.columns) == ["g", "s"]


def test_ranked_matches_duckdb(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.window import ranked

    rng = np.random.default_rng(11)
    n = 3000
    df = pd.DataFrame(
        {
            "k": rng.choice(["a", "b", "c"], n),
            "id": np.arange(n, dtype="int64"),
            # integer values → guaranteed ties inside partitions
            "v": rng.integers(0, 40, n).astype("float64"),
        }
    )
    # singleton partition: percent_rank must be 0.0, ntile 1
    df = pd.concat(
        [df, pd.DataFrame({"k": ["solo"], "id": [n], "v": [5.0]})], ignore_index=True
    )
    ds = ray.data.from_pandas(df).repartition(7)
    got = (
        ranked(ds, "k", "v", "id", descending=True, ntile_n=4)
        .to_pandas()
        .sort_values(["k", "id"])
        .reset_index(drop=True)
    )
    want = duckdb.sql(
        """SELECT k, id, v,
             row_number() OVER (PARTITION BY k ORDER BY v DESC, id) AS "row_number",
             rank() OVER (PARTITION BY k ORDER BY v DESC) AS "rank",
             dense_rank() OVER (PARTITION BY k ORDER BY v DESC) AS "dense_rank",
             percent_rank() OVER (PARTITION BY k ORDER BY v DESC) AS "percent_rank",
             cume_dist() OVER (PARTITION BY k ORDER BY v DESC) AS "cume_dist",
             ntile(4) OVER (PARTITION BY k ORDER BY v DESC, id) AS "ntile"
           FROM df ORDER BY k, id"""
    ).fetchdf()
    pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)


def test_ranked_null_order_values(ray_session):
    """NULL order values form one tie run (SQL groups them in ordering)."""
    import ray.data

    from jsonld_ex_ray.ops.window import ranked

    df = pd.DataFrame(
        {"k": ["a"] * 4, "id": [1, 2, 3, 4], "v": [2.0, None, None, 1.0]}
    )
    got = (
        ranked(ray.data.from_pandas(df), "k", "v", "id")
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    want = duckdb.sql(
        """SELECT k, id, v,
             rank() OVER (PARTITION BY k ORDER BY v) AS "rank",
             dense_rank() OVER (PARTITION BY k ORDER BY v) AS "dense_rank"
           FROM df ORDER BY id"""
    ).fetchdf()
    pd.testing.assert_frame_equal(
        got[["k", "id", "v", "rank", "dense_rank"]], want, check_dtype=False
    )


def test_set_ops_match_duckdb(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.setops import set_op

    rng = np.random.default_rng(5)
    lf = pd.DataFrame({"u": rng.integers(0, 120, 2000).astype("int64")})
    rf = pd.DataFrame({"c": rng.integers(60, 200, 500).astype("int64")})
    lds = ray.data.from_pandas(lf).repartition(4)
    rds = ray.data.from_pandas(rf).repartition(3)
    for op, sql_op in (("intersect", "INTERSECT"), ("except", "EXCEPT")):
        got = (
            set_op(lds, rds, left_cols=["u"], right_cols=["c"], op=op)
            .to_pandas()
            .sort_values("u")
            .reset_index(drop=True)
        )
        want = duckdb.sql(
            f"SELECT u FROM lf {sql_op} SELECT c FROM rf ORDER BY u"
        ).fetchdf()
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_set_ops_null_multi_key_match_duckdb(ray_session):
    """Two key columns holding NULLs, thousands of rows over 16 blocks:
    each NULL-holding row comes back once, as in SQL (NULL is not
    distinct from NULL in set operations)."""
    import ray.data

    from jsonld_ex_ray.ops.setops import set_op

    rng = np.random.default_rng(11)

    def side(n, lo, hi):
        a = pd.Series(rng.choice(["x", "y", None], n, p=[0.2, 0.2, 0.6]), dtype="object")
        b = pd.array(rng.integers(lo, hi, n), dtype="Int64")
        b[rng.random(n) < 0.3] = pd.NA
        return pd.DataFrame({"a": a, "b": b})

    lf, rf = side(4000, 0, 4), side(3000, 2, 6)
    lds = ray.data.from_pandas(lf).repartition(16)
    rds = ray.data.from_pandas(rf).repartition(16)
    for op in ("union", "intersect", "except"):
        got = (
            set_op(lds, rds, left_cols=["a", "b"], op=op)
            .to_pandas()
            .sort_values(["a", "b"], na_position="first")
            .reset_index(drop=True)
        )
        want = duckdb.sql(
            f"SELECT a, b FROM lf {op.upper()} SELECT a, b FROM rf "
            "ORDER BY a NULLS FIRST, b NULLS FIRST"
        ).fetchdf()
        assert len(got) == len(want), (op, len(got), len(want))
        pd.testing.assert_frame_equal(
            got.astype(object).where(got.notna(), None),
            want.astype(object).where(want.notna(), None),
            check_dtype=False,
        )


def test_set_op_multi_column(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.setops import set_op

    left = pd.DataFrame({"a": [1, 1, 2, 2, 3], "b": ["x", "x", "y", "z", "x"]})
    right = pd.DataFrame({"a": [1, 2], "b": ["x", "y"]})
    got = (
        set_op(
            ray.data.from_pandas(left),
            ray.data.from_pandas(right),
            left_cols=["a", "b"],
            op="except",
        )
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    want = pd.DataFrame({"a": [2, 3], "b": ["z", "x"]})
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_set_op_rejects_bad_args():
    from jsonld_ex_ray.ops.setops import set_op

    with pytest.raises(ValueError, match="intersect"):
        set_op(None, None, left_cols=["a"], op="minus")
    with pytest.raises(ValueError, match="equal length"):
        set_op(None, None, left_cols=["a"], right_cols=["x", "y"], op="except")


def test_hash_sample_deterministic_and_fractional(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.text import hash_sample

    df = pd.DataFrame({"doc_id": np.arange(5000, dtype="int64")})
    ds = ray.data.from_pandas(df).repartition(5)
    got = hash_sample(ds, "doc_id", fraction=0.25, salt="t").to_pandas()
    got2 = hash_sample(ds, "doc_id", fraction=0.25, salt="t").to_pandas()
    assert sorted(got["doc_id"]) == sorted(got2["doc_id"])  # reproducible
    assert abs(len(got) / 5000 - 0.25) < 0.03  # close to the asked rate
    thr = format(int(0.25 * 16**8), "08x")
    want = duckdb.sql(
        f"""SELECT doc_id FROM df
            WHERE substr(md5('t' || CAST(doc_id AS VARCHAR)), 1, 8) < '{thr}'"""
    ).fetchdf()
    assert sorted(got["doc_id"]) == sorted(want["doc_id"])
    # different salt → a different (independent) draw
    other = hash_sample(ds, "doc_id", fraction=0.25, salt="u").to_pandas()
    assert sorted(other["doc_id"]) != sorted(got["doc_id"])
    with pytest.raises(ValueError):
        hash_sample(ds, "doc_id", fraction=1.5)


def test_histogram_matches_duckdb(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.agg import histogram_fixed

    rng = np.random.default_rng(9)
    df = pd.DataFrame({"v": rng.uniform(-10, 110, 8000)})
    df.loc[rng.random(8000) < 0.05, "v"] = None
    ds = ray.data.from_pandas(df).repartition(6)
    got = histogram_fixed(ds, "v", 0.0, 100.0, 10).reset_index(drop=True)
    want = duckdb.sql(
        """SELECT CAST(floor((v - 0.0) / 10.0) AS BIGINT) AS bin,
                  0.0 + floor((v - 0.0) / 10.0) * 10.0 AS lo_edge,
                  count(*) AS n
           FROM df WHERE v >= 0.0 AND v < 100.0
           GROUP BY 1, 2 ORDER BY 1"""
    ).fetchdf()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_grouped_string_agg_matches_duckdb(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.agg import grouped_string_agg

    rng = np.random.default_rng(2)
    n = 1500
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 40, n).astype("int64"),
            "o": rng.permutation(n).astype("int64"),
            "v": rng.choice(["a", "bb", "ccc"], n),
        }
    )
    df.loc[rng.random(n) < 0.08, "v"] = None  # string_agg drops NULLs
    ds = ray.data.from_pandas(df).repartition(5)
    got = (
        grouped_string_agg(ds, "k", "v", ["o"], sep="|", out_col="s")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = duckdb.sql(
        """SELECT k, string_agg(v, '|' ORDER BY o) AS s FROM df
           WHERE v IS NOT NULL GROUP BY k ORDER BY k"""
    ).fetchdf()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_explode_lines_ordinality(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.text import explode_lines

    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": ["a\nb\nc", "", "single", "trail\n"],
        }
    )
    got = (
        explode_lines(ray.data.from_pandas(df))
        .to_pandas()
        .sort_values(["doc_id", "line_no"])
        .reset_index(drop=True)
    )
    want = duckdb.sql(
        """WITH d AS (SELECT doc_id, string_split(text, chr(10)) AS ls FROM df)
           SELECT doc_id, CAST(i.g AS BIGINT) AS line_no,
                  ls[CAST(i.g AS BIGINT)] AS line
           FROM d, unnest(range(1, len(ls) + 1)) AS i(g)
           ORDER BY doc_id, line_no"""
    ).fetchdf()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # empty text is ONE empty line; trailing newline adds one empty line
    assert len(got[got.doc_id == 2]) == 1 and got[got.doc_id == 2].line.iloc[0] == ""
    assert len(got[got.doc_id == 4]) == 2


def test_unpivot(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.agg import unpivot

    df = pd.DataFrame({"id": [1, 2], "a": [1.5, 2.5], "b": [10, 20]})
    got = (
        unpivot(ray.data.from_pandas(df), ["id"], ["a", "b"])
        .to_pandas()
        .sort_values(["id", "measure"])
        .reset_index(drop=True)
    )
    want = pd.DataFrame(
        {
            "id": [1, 1, 2, 2],
            "measure": ["a", "b", "a", "b"],
            "value": [1.5, 10.0, 2.5, 20.0],
        }
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_fuzzy_nearest_ties_and_nulls(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.text import fuzzy_nearest

    df = pd.DataFrame({"id": [1, 2, 3], "t": ["abx", None, "zzz"]})
    got = (
        fuzzy_nearest(
            ray.data.from_pandas(df), "t", ["abc", "abd", "zz"], out_col="m", dist_col="d"
        )
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    # 'abx' ties abc/abd at distance 1 → lexicographically smallest wins
    assert got.loc[0, "m"] == "abc" and got.loc[0, "d"] == 1
    assert pd.isna(got.loc[1, "m"]) and pd.isna(got.loc[1, "d"])
    assert got.loc[2, "m"] == "zz" and got.loc[2, "d"] == 1


def test_interval_join_banded_matches_duckdb(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.joins import interval_join_banded

    rng = np.random.default_rng(7)
    left = pd.DataFrame(
        {
            "row_id": np.arange(500, dtype="int64"),
            "v": rng.uniform(-30, 70, 500),
        }
    )
    left.loc[rng.random(500) < 0.05, "v"] = None  # NULL never matches
    # heavily OVERLAPPING intervals, some spanning many bands, some
    # inverted (lo > hi → never match), some null-bounded, one point
    # interval sitting exactly on a left value
    ivl = pd.DataFrame(
        {
            "ivl_id": np.arange(40, dtype="int64"),
            "lo": rng.uniform(-35, 60, 40),
        }
    )
    ivl["hi"] = ivl["lo"] + rng.uniform(0.1, 45, 40)
    ivl.loc[0, ["lo", "hi"]] = [10.0, 5.0]  # inverted
    ivl.loc[1, "lo"] = None
    ivl.loc[2, "hi"] = None
    ivl.loc[3, ["lo", "hi"]] = [left["v"].iloc[7], left["v"].iloc[7]]  # point hit
    out = interval_join_banded(
        ray.data.from_pandas(left).repartition(8),
        ray.data.from_pandas(ivl).repartition(4),
        left_val="v",
        right_lo="lo",
        right_hi="hi",
        right_cols=["ivl_id"],
        band_width=6.0,
    ).to_pandas()
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", ivl)
    exp = con.execute(
        "SELECT l.row_id, l.v, r.lo, r.hi, r.ivl_id FROM l JOIN r ON l.v BETWEEN r.lo AND r.hi"
    ).fetchdf()
    key = ["row_id", "ivl_id"]
    got_s = out.sort_values(key).reset_index(drop=True)
    exp_s = exp.sort_values(key).reset_index(drop=True)
    assert len(got_s) == len(exp_s) > 0
    assert (got_s["row_id"].values == exp_s["row_id"].values).all()
    assert (got_s["ivl_id"].values == exp_s["ivl_id"].values).all()
    assert np.allclose(got_s["v"], exp_s["v"])  # exactly one copy per pair
    # point interval matched
    assert ((got_s["row_id"] == 7) & (got_s["ivl_id"] == 3)).any()


def test_interval_join_banded_empty_sides(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.joins import interval_join_banded

    left = pd.DataFrame({"row_id": [1, 2], "v": [1.0, 2.0]})
    ivl = pd.DataFrame({"ivl_id": pd.array([], dtype="int64"),
                        "lo": pd.array([], dtype="float64"),
                        "hi": pd.array([], dtype="float64")})
    out = interval_join_banded(
        ray.data.from_pandas(left),
        ray.data.from_pandas(ivl),
        left_val="v", right_lo="lo", right_hi="hi", right_cols=["ivl_id"],
        band_width=1.0,
    ).to_pandas()
    assert len(out) == 0
    # Ray drops the schema when EVERY output block is empty; when any
    # block is non-empty the column layout is the documented one (the
    # matches test asserts it)
    assert list(out.columns) in ([], ["row_id", "v", "lo", "hi", "ivl_id"])
    with pytest.raises(ValueError):
        interval_join_banded(
            ray.data.from_pandas(left), ray.data.from_pandas(ivl),
            left_val="v", right_lo="lo", right_hi="hi", right_cols=["ivl_id"],
            band_width=0.0,
        )
    with pytest.raises(ValueError):
        interval_join_banded(
            ray.data.from_pandas(left),
            ray.data.from_pandas(left.rename(columns={"row_id": "a"})),
            left_val="v", right_lo="v", right_hi="v", right_cols=["a"],
            band_width=1.0,
        )  # column clash: v on both sides


def test_winsorize_matches_duckdb(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.agg import winsorize

    rng = np.random.default_rng(11)
    df = pd.DataFrame({"x": rng.lognormal(1.0, 1.2, 3000)})
    df.loc[rng.random(3000) < 0.04, "x"] = None
    out = (
        winsorize(ray.data.from_pandas(df).repartition(8), "x", 0.05, 0.95, out_col="w")
        .to_pandas()
        .sort_values("x")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    exp = con.execute(
        """WITH q AS (SELECT round(quantile_cont(x, 0.05), 6) AS qlo,
                             round(quantile_cont(x, 0.95), 6) AS qhi FROM t)
           SELECT x, CASE WHEN x IS NULL THEN NULL
                          ELSE least(greatest(x, qlo), qhi) END AS w
           FROM t, q ORDER BY x"""
    ).fetchdf()
    # nulls stay null, sort_values puts them last in both
    assert len(out) == len(exp)
    assert np.allclose(out["w"].dropna(), exp["w"].dropna())
    assert out["w"].isna().sum() == exp["w"].isna().sum() == df["x"].isna().sum()


def test_winsorize_empty_and_validation(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.agg import winsorize

    empty = pd.DataFrame({"x": pd.array([None, None], dtype="float64")})
    out = winsorize(ray.data.from_pandas(empty), "x", 0.1, 0.9).to_pandas()
    assert out["x"].isna().all()
    with pytest.raises(ValueError):
        winsorize(ray.data.from_pandas(empty), "x", 0.9, 0.1)


def test_weighted_hash_sample_matches_duckdb(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.text import weighted_hash_sample

    rng = np.random.default_rng(13)
    df = pd.DataFrame(
        {
            "doc_id": [f"d{i}" for i in range(800)],
            "w": rng.integers(1, 500, 800).astype("float64"),
        }
    )
    # excluded rows: zero, negative and null weights
    df.loc[5, "w"] = 0.0
    df.loc[6, "w"] = -3.0
    df.loc[7, "w"] = None
    got = (
        weighted_hash_sample(
            ray.data.from_pandas(df).repartition(6), 50, weight_col="w", id_col="doc_id"
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute(
        """SELECT doc_id, w FROM t WHERE w > 0
           ORDER BY ln((CAST('0x' || substr(md5(doc_id), 1, 8) AS BIGINT) + 0.5)
                       / 4294967296.0) / w DESC, doc_id
           LIMIT 50"""
    ).fetchdf().sort_values("doc_id").reset_index(drop=True)
    assert list(got["doc_id"]) == list(want["doc_id"])
    # determinism: identical selection on a re-run
    got2 = (
        weighted_hash_sample(
            ray.data.from_pandas(df).repartition(3), 50, weight_col="w", id_col="doc_id"
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(got2["doc_id"]) == list(got["doc_id"])
    # a different salt gives a different (independent) draw
    got3 = weighted_hash_sample(
        ray.data.from_pandas(df), 50, weight_col="w", id_col="doc_id", salt="s1"
    ).to_pandas()
    assert set(got3["doc_id"]) != set(got["doc_id"])
    with pytest.raises(ValueError):
        weighted_hash_sample(ray.data.from_pandas(df), 0, weight_col="w")


def test_weighted_hash_sample_is_weighted(ray_session):
    """Heavy rows must be selected far more often than light ones."""
    import ray.data

    from jsonld_ex_ray.ops.text import weighted_hash_sample

    df = pd.DataFrame(
        {
            "doc_id": [f"h{i}" for i in range(100)] + [f"l{i}" for i in range(900)],
            "w": [1000.0] * 100 + [1.0] * 900,
        }
    )
    got = weighted_hash_sample(
        ray.data.from_pandas(df).repartition(4), 100, weight_col="w", id_col="doc_id"
    ).to_pandas()
    heavy = got["doc_id"].str.startswith("h").sum()
    assert heavy > 80  # expectation ~99; light-only selection would be ~10


def test_median_abs_deviation(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.agg import median_abs_deviation

    rng = np.random.default_rng(17)
    df = pd.DataFrame({"x": rng.normal(10, 3, 5000)})
    df.loc[rng.random(5000) < 0.05, "x"] = None
    got = median_abs_deviation(ray.data.from_pandas(df).repartition(5), "x")
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute(
        """WITH m AS (SELECT round(quantile_cont(x, 0.5), 6) AS med FROM t)
           SELECT m.med, round(quantile_cont(abs(t.x - m.med), 0.5), 6) AS mad
           FROM t, m GROUP BY m.med"""
    ).fetchone()
    assert got["median"].iloc[0] == want[0]
    assert got["mad"].iloc[0] == want[1]
    empty = pd.DataFrame({"x": pd.array([None], dtype="float64")})
    out = median_abs_deviation(ray.data.from_pandas(empty), "x")
    assert out["median"].iloc[0] is None and out["mad"].iloc[0] is None


def test_interval_join_replication_valve(ray_session):
    """A single interval spanning >100k bands must fail loudly (mis-sized
    band_width), not materialize millions of replicated rows."""
    import ray.data

    from jsonld_ex_ray.ops.joins import interval_join_banded

    left = pd.DataFrame({"row_id": [1], "v": [0.5]})
    ivl = pd.DataFrame({"ivl_id": [1], "lo": [0.0], "hi": [1e9]})
    ds = interval_join_banded(
        ray.data.from_pandas(left),
        ray.data.from_pandas(ivl),
        left_val="v", right_lo="lo", right_hi="hi", right_cols=["ivl_id"],
        band_width=1.0,
    )
    with pytest.raises(Exception, match="bands"):
        ds.to_pandas()


def test_weighted_sample_per_group_matches_duckdb(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.text import weighted_sample_per_group

    rng = np.random.default_rng(19)
    df = pd.DataFrame(
        {
            "doc_id": [f"d{i}" for i in range(1200)],
            "g": rng.choice(["en", "de", "fr", "rare"], 1200, p=[0.6, 0.25, 0.14, 0.01]),
            "w": rng.integers(1, 300, 1200).astype("float64"),
        }
    )
    df.loc[3, "w"] = 0.0   # excluded
    df.loc[4, "w"] = None  # excluded
    got = (
        weighted_sample_per_group(
            ray.data.from_pandas(df).repartition(7), "g", 15,
            weight_col="w", id_col="doc_id",
        )
        .to_pandas()
        .sort_values(["g", "doc_id"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute(
        """SELECT doc_id, g, w FROM (
             SELECT doc_id, g, w,
                    row_number() OVER (PARTITION BY g
                        ORDER BY ln((CAST('0x' || substr(md5(doc_id), 1, 8) AS BIGINT) + 0.5)
                                    / 4294967296.0) / w DESC, doc_id) AS rn
             FROM t WHERE w > 0
           ) WHERE rn <= 15
           ORDER BY g, doc_id"""
    ).fetchdf()
    assert list(got["doc_id"]) == list(want["doc_id"])
    # small strata keep everything they have (rare group < 15 members)
    rare_n = ((df["g"] == "rare") & (df["w"] > 0)).sum()
    assert (got["g"] == "rare").sum() == min(15, rare_n)
    with pytest.raises(ValueError):
        weighted_sample_per_group(ray.data.from_pandas(df), "g", 0, weight_col="w")


def test_duplicate_spans_matches_duckdb(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.dedup import duplicate_spans

    rng = np.random.default_rng(23)
    shared = "the quick brown fox jumps over the lazy dog again and again padding"
    docs = []
    for i in range(200):
        filler = "".join(rng.choice(list("abcdefgh "), 80))
        # ~40% of docs embed the shared 68-char run at a stride-aligned spot
        docs.append(filler + (shared if i % 5 < 2 else filler) + f" tail{i}")
    docs.append("short")       # < window → no spans
    docs.append("")            # empty
    df = pd.DataFrame({"doc_id": np.arange(len(docs), dtype="int64"), "text": docs})
    got = (
        duplicate_spans(
            ray.data.from_pandas(df).repartition(6), window=32, stride=16
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", df)
    want = con.execute(
        """WITH pos AS (
             SELECT doc_id, text,
                    unnest(generate_series(1, greatest(length(text) - 31, 0), 16)) AS i
             FROM documents
           ),
           spans AS (SELECT doc_id, md5(substr(text, CAST(i AS INTEGER), 32)) AS h FROM pos),
           duph AS (
             SELECT h FROM (SELECT DISTINCT h, doc_id FROM spans)
             GROUP BY h HAVING count(*) >= 2
           )
           SELECT s.doc_id, count(*) AS n_dup_spans
           FROM spans s JOIN duph USING (h)
           GROUP BY s.doc_id ORDER BY doc_id"""
    ).fetchdf()
    assert len(got) == len(want) > 0
    assert list(got["doc_id"]) == list(want["doc_id"])
    assert list(got["n_dup_spans"]) == list(want["n_dup_spans"])
    with pytest.raises(ValueError):
        duplicate_spans(ray.data.from_pandas(df), window=0)
    with pytest.raises(ValueError):
        duplicate_spans(ray.data.from_pandas(df), min_docs=1)


def test_keyed_rolling_rows_matches_duckdb(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.window import keyed_rolling_rows

    rng = np.random.default_rng(29)
    n = 3000
    df = pd.DataFrame(
        {
            "k": rng.choice(["a", "b", "c"], n),
            "ts": pd.to_datetime("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 86400, n), unit="s"),
            "id": np.arange(n, dtype="int64"),
            "v": rng.uniform(0, 100, n),
        }
    )
    ds = ray.data.from_pandas(df).repartition(5)
    for agg, sql in (("mean", "avg(v)"), ("sum", "sum(v)"), ("max", "max(v)")):
        got = (
            keyed_rolling_rows(ds, "k", "ts", "id", "v", 7, agg=agg)
            .to_pandas()
            .sort_values("id")
            .reset_index(drop=True)
        )
        want = duckdb.sql(
            f"""SELECT id, round({sql} OVER (PARTITION BY k ORDER BY ts, id
                  ROWS BETWEEN 6 PRECEDING AND CURRENT ROW), 6) AS r
                FROM df ORDER BY id"""
        ).fetchdf()
        col = f"roll_{agg}"
        if agg == "max":  # unrounded: exact values
            assert np.allclose(got[col], want["r"])
        else:
            assert (got[col].values == want["r"].values).all(), agg
    with pytest.raises(ValueError):
        keyed_rolling_rows(ds, "k", "ts", "id", "v", 0)
    with pytest.raises(ValueError):
        keyed_rolling_rows(ds, "k", "ts", "id", "v", 5, agg="median")


def test_share_of_group_matches_duckdb(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.agg import share_of_group

    rng = np.random.default_rng(31)
    df = pd.DataFrame(
        {
            "g": rng.choice(["x", "y", "z"], 2000),
            "id": np.arange(2000, dtype="int64"),
            "v": rng.uniform(-5, 50, 2000),
        }
    )
    df.loc[3, "v"] = None        # null value -> null share
    df.loc[df["g"] == "z", "v"] = 0.0  # zero-sum group -> null share (x/0)
    got = (
        share_of_group(ray.data.from_pandas(df).repartition(4), "g", "v")
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    want = duckdb.sql(
        """SELECT id, round(v / nullif(sum(v) OVER (PARTITION BY g), 0), 6) AS share
           FROM df ORDER BY id"""
    ).fetchdf()
    gm, wm = got["share"].isna(), want["share"].isna()
    assert (gm.values == wm.values).all()
    assert np.allclose(got["share"].dropna(), want["share"].dropna())


def test_stratified_sample_fraction_one_keeps_all(ray_session):
    """fraction=1.0 must keep EVERY row of its stratum (regression: the
    9-char hex threshold '100000000' compared below most digests)."""
    import ray.data

    from jsonld_ex_ray.ops.text import stratified_sample

    df = pd.DataFrame({"doc_id": np.arange(400), "lang": ["en", "fr"] * 200})
    got = stratified_sample(
        ray.data.from_pandas(df).repartition(4),
        "lang",
        {"fr": 1.0, "en": 0.25},
        id_col="doc_id",
    ).to_pandas()
    assert (got.lang == "fr").sum() == 200
    n_en = (got.lang == "en").sum()
    assert 20 < n_en < 80  # ~25% of 200
    # default_fraction=1.0 keeps groups absent from the dict too
    got2 = stratified_sample(
        ray.data.from_pandas(df), "lang", {}, id_col="doc_id", default_fraction=1.0
    ).to_pandas()
    assert len(got2) == 400


def test_explode_lines_null_text(ray_session):
    """NULL text emits no rows (SQL UNNEST semantics), instead of the
    NaN→negative-repeat crash."""
    import ray.data

    from jsonld_ex_ray.ops.text import explode_lines

    t = pa.table({"doc_id": [1, 2, 3], "text": ["a\nb", None, "c"]})
    got = (
        explode_lines(ray.data.from_arrow(t))
        .to_pandas()
        .sort_values(["doc_id", "line_no"])
        .reset_index(drop=True)
    )
    want = duckdb.sql(
        """SELECT doc_id,
                  CAST(generate_subscripts(string_split(text, chr(10)), 1) AS BIGINT)
                      AS line_no,
                  unnest(string_split(text, chr(10))) AS line
           FROM t ORDER BY doc_id, line_no"""
    ).fetchdf()
    pd.testing.assert_frame_equal(got, want)


def test_set_op_null_rows_match_sql(ray_session):
    """SQL set ops treat NULL as equal to NULL (IS NOT DISTINCT FROM);
    the arrow join alone never matches null keys."""
    import ray.data

    from jsonld_ex_ray.ops.setops import set_op

    lt = pa.table({"k": pa.array([1, None, 2, None], pa.int64()),
                   "s": pa.array(["a", None, "b", "c"], pa.string())})
    rt = pa.table({"k": pa.array([1, None], pa.int64()),
                   "s": pa.array(["a", None], pa.string())})
    l_ds, r_ds = ray.data.from_arrow(lt), ray.data.from_arrow(rt)
    inter = (
        set_op(l_ds, r_ds, left_cols=["k", "s"], op="intersect")
        .to_pandas().sort_values(["k", "s"]).reset_index(drop=True)
    )
    exc = (
        set_op(l_ds, r_ds, left_cols=["k", "s"], op="except")
        .to_pandas().sort_values(["k", "s"]).reset_index(drop=True)
    )
    lt_df, rt_df = lt.to_pandas(), rt.to_pandas()
    want_i = duckdb.sql(
        "SELECT * FROM lt_df INTERSECT SELECT * FROM rt_df ORDER BY k, s"
    ).fetchdf()
    want_e = duckdb.sql(
        "SELECT * FROM lt_df EXCEPT SELECT * FROM rt_df ORDER BY k, s"
    ).fetchdf()
    assert len(inter) == len(want_i) == 2
    assert len(exc) == len(want_e) == 2
    pd.testing.assert_frame_equal(inter.astype({"k": "float64"}), want_i.astype({"k": "float64"}))
    pd.testing.assert_frame_equal(exc.astype({"k": "float64"}), want_e.astype({"k": "float64"}))


def test_keyed_rolling_rows_all_null_frame_is_null(ray_session):
    """A frame with zero non-null values emits arrow NULL, not NaN."""
    import ray.data

    from jsonld_ex_ray.ops.window import keyed_rolling_rows

    t = pa.table(
        {
            "k": ["u"] * 3,
            "ts": pa.array([1, 2, 3], pa.timestamp("us")),
            "id": pa.array([1, 2, 3], pa.int64()),
            "v": pa.array([None, 2.0, 4.0], pa.float64()),
        }
    )
    got = (
        keyed_rolling_rows(ray.data.from_arrow(t), "k", "ts", "id", "v", 2)
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    assert pd.isna(got.roll_mean.iloc[0])
    assert got.roll_mean.iloc[1] == 2.0 and got.roll_mean.iloc[2] == 3.0


def test_winsorize_subpercent_quantiles(ray_session):
    """p_lo/p_hi that round to the same integer percent must not collide
    on the q<pct> column name and collapse the column to a constant."""
    import ray.data

    from jsonld_ex_ray.ops.agg import winsorize

    df = pd.DataFrame({"x": np.arange(1000, dtype="float64")})
    got = winsorize(ray.data.from_pandas(df), "x", 0.095, 0.10).to_pandas()
    want = duckdb.sql(
        """SELECT least(greatest(x,
                    round((SELECT quantile_cont(x, 0.095) FROM df), 6)),
                    round((SELECT quantile_cont(x, 0.10) FROM df), 6)) AS x
           FROM df"""
    ).fetchdf()
    assert np.allclose(np.sort(got.x), np.sort(want.x))
    # p_lo == p_hi clamps everything to the single quantile
    same = winsorize(ray.data.from_pandas(df), "x", 0.5, 0.5).to_pandas()
    assert same.x.nunique() == 1


def test_fuzzy_nearest_rejects_bad_candidates(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.text import fuzzy_nearest

    ds = ray.data.from_pandas(pd.DataFrame({"text": ["abc"]}))
    with pytest.raises(ValueError, match="non-empty"):
        fuzzy_nearest(ds, "text", [])
    with pytest.raises(ValueError, match="non-empty"):
        fuzzy_nearest(ds, "text", ["ok", None])


def test_cube_matches_duckdb(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.agg import cube_agg

    base = _frame()
    base["h"] = (base["id"] % 3).astype("int64")
    for df in (base, _with_null_keys(base)):
        ds = ray.data.from_pandas(df).repartition(5)
        got = cube_agg(
            ds, ["g", "h"], [("x", "sum", "sx", 4), ("x", "count", "n"), ("x", "min", "mn")]
        ).to_pandas()
        want = duckdb.sql(
            """SELECT g, h, round(sum(x),4) sx, count(*) n, min(x) mn
               FROM df GROUP BY CUBE(g, h) ORDER BY g, h"""
        ).fetchdf()
        # CUBE has the (NULL, h) level that ROLLUP lacks — check it exists
        assert (got["g"].isna() & got["h"].notna()).any()
        for f in (got, want):
            f["g"] = f["g"].fillna(-1).astype("int64")
            f["h"] = f["h"].fillna(-1).astype("int64")
        got = got.sort_values(list(want.columns)).reset_index(drop=True)
        want = want.sort_values(list(want.columns)).reset_index(drop=True)
        pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)
