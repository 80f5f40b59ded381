"""Unit tests for the aggregation layer (partial-spec dedup, COUNT(*)
semantics, rounding, high-cardinality bucketed path) and the bucketed
two-large-sides joins — locking in the round-1 ADVICE fixes."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _ds(tbl):
    import ray.data

    return ray.data.from_arrow(tbl)


def test_sum_and_mean_share_column_no_collision(ray_session):
    from jsonld_ex_ray.ops.agg import groupby_agg

    tbl = pa.table(
        {
            "k": ["a", "a", "b", "b", "b"],
            "v": [1.0, 3.0, 10.0, 20.0, 30.0],
        }
    )
    out = (
        groupby_agg(_ds(tbl), ["k"], [("v", "sum", "total"), ("v", "mean", "avg")])
        .to_pandas()
        .sort_values("k")
    )
    assert out.total.tolist() == [4.0, 60.0]
    assert out.avg.tolist() == [2.0, 20.0]


def test_count_star_with_null_keys_and_values(ray_session):
    from jsonld_ex_ray.ops.agg import groupby_agg

    tbl = pa.table(
        {
            "k": ["a", "a", "b"],
            "v": pa.array([1.0, None, 2.0], pa.float64()),
        }
    )
    out = (
        groupby_agg(_ds(tbl), ["k"], [("v", "count", "n"), ("v", "mean", "avg")])
        .to_pandas()
        .sort_values("k")
    )
    # COUNT(*) counts rows; mean ignores the null (SQL avg semantics)
    assert out.n.tolist() == [2, 1]
    assert out.avg.tolist() == [1.0, 2.0]


def test_bucketed_matches_lowcard_on_high_card_keys(ray_session):
    from jsonld_ex_ray.ops.agg import groupby_agg

    rng = np.random.RandomState(5)
    n = 5000
    tbl = pa.table(
        {
            "k": rng.randint(0, 900, n),
            "v": np.round(rng.rand(n) * 100, 2),
        }
    )
    aggs = [("v", "sum", "s", 2), ("v", "count", "n"), ("v", "max", "mx")]
    want = (
        tbl.to_pandas()
        .groupby("k", as_index=False)
        .agg(s=("v", "sum"), n=("v", "size"), mx=("v", "max"))
        .round({"s": 2})
    )
    got = (
        groupby_agg(_ds(tbl), ["k"], aggs)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)[["k", "s", "n", "mx"]]
    )
    pd.testing.assert_frame_equal(got, want[["k", "s", "n", "mx"]], check_dtype=False)


def test_round_half_away_matches_duckdb():
    import duckdb

    from jsonld_ex_ray.ops.agg import round_half_away

    vals = [0.0078125, 1.0 / 128, 3.0 / 128, 0.1234565, 2.5e-7, 123.455, -0.0078125]
    con = duckdb.connect()
    for v in vals:
        want = con.execute("SELECT round(?::DOUBLE, 6)", [v]).fetchone()[0]
        got = float(round_half_away(np.array([v]), 6)[0])
        assert got == want, (v, got, want)


def test_hash_join_bucketed_inner_and_left(ray_session):
    from jsonld_ex_ray.ops.joins import hash_join_bucketed

    left = pa.table({"lk": [1, 2, 3, 4, 2], "lv": ["a", "b", "c", "d", "e"]})
    right = pa.table({"rk": [1, 2, 2, 5], "rv": ["x", "y", "z", "w"]})
    inner = (
        hash_join_bucketed(
            _ds(left), _ds(right), left_on="lk", right_on="rk", right_cols=["rv"]
        )
        .to_pandas()
        .sort_values(["lk", "lv", "rv"])
        .reset_index(drop=True)
    )
    want = (
        left.to_pandas()
        .merge(right.to_pandas(), left_on="lk", right_on="rk")
        .drop(columns="rk")
        .sort_values(["lk", "lv", "rv"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(inner, want, check_dtype=False)

    left_out = (
        hash_join_bucketed(
            _ds(left), _ds(right), left_on="lk", right_on="rk", right_cols=["rv"],
            join_type="left",
        )
        .to_pandas()
        .sort_values(["lk", "lv"], kind="stable")
    )
    # unmatched keys survive with null rv
    assert set(left_out[left_out.rv.isna()].lk) == {3, 4}


def test_hash_join_bucketed_full_outer(ray_session):
    """FULL OUTER: matched rows join, left-unmatched survive with null
    right columns, right-unmatched survive with null left columns and
    their key COALESCED into the left key column (SQL projection), and
    NULL keys never match each other (SQL semantics) — each null-key
    row survives unmatched on its own side."""
    from jsonld_ex_ray.ops.joins import hash_join_bucketed

    left = pa.table(
        {"lk": pa.array([1, 2, 3, None], pa.int64()), "lv": ["a", "b", "c", "n"]}
    )
    right = pa.table(
        {"rk": pa.array([2, 2, 5, None], pa.int64()), "rv": ["x", "y", "w", "m"]}
    )
    out = (
        hash_join_bucketed(
            _ds(left), _ds(right), left_on="lk", right_on="rk", right_cols=["rv"],
            join_type="full",
        )
        .to_pandas()
        .sort_values(["lk", "lv", "rv"], na_position="last")
        .reset_index(drop=True)
    )
    # matched: (2,b,x), (2,b,y); left-only: (1,a,null), (3,c,null),
    # (null,n,null); right-only: (5,null,w), (null,null,m)
    assert len(out) == 7
    matched = out[out.lv.notna() & out.rv.notna()]
    assert sorted(zip(matched.lk, matched.lv, matched.rv)) == [(2, "b", "x"), (2, "b", "y")]
    left_only = out[out.rv.isna()]
    assert sorted(left_only.lv) == ["a", "c", "n"]
    assert left_only[left_only.lv == "n"].lk.isna().all()  # null key unmatched
    right_only = out[out.lv.isna()]
    assert sorted(right_only.rv) == ["m", "w"]
    # right-unmatched key coalesces into lk; null right key stays null
    assert right_only[right_only.rv == "w"].lk.tolist() == [5]
    assert right_only[right_only.rv == "m"].lk.isna().all()


def test_asof_join_bucketed_matches_pandas(ray_session):
    from jsonld_ex_ray.ops.joins import asof_join_bucketed

    rng = np.random.RandomState(3)
    n = 400
    left = pa.table(
        {
            "g": rng.randint(0, 12, n),
            "t": np.sort(rng.randint(0, 10_000, n)).astype("int64"),
            "lid": np.arange(n),
        }
    )
    m = 150
    right = pa.table(
        {
            "g": rng.randint(0, 12, m),
            "t": np.sort(rng.randint(0, 10_000, m)).astype("int64"),
            "rv": np.arange(m).astype("float64"),
        }
    )
    got = (
        asof_join_bucketed(
            _ds(left), _ds(right), on="t", by="g", right_value_cols=["rv"]
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    want = pd.merge_asof(
        left.to_pandas().sort_values("t"),
        right.to_pandas().sort_values("t"),
        on="t",
        by="g",
        allow_exact_matches=False,
    ).sort_values("lid").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["lid", "rv"]], want[["lid", "rv"]], check_dtype=False)


def test_asof_bucket_with_empty_right_side(ray_session, buckets):
    from jsonld_ex_ray.ops.joins import asof_join_bucketed

    left = pa.table({"g": [1, 2], "t": [10, 20], "lid": [0, 1]})
    right = pa.table(
        {"g": pa.array([], pa.int64()), "t": pa.array([], pa.int64()), "rv": pa.array([], pa.float64())}
    )
    buckets(2)
    got = (
        asof_join_bucketed(
            _ds(left), _ds(right), on="t", by="g", right_value_cols=["rv"]
        )
        .to_pandas()
        .sort_values("lid")
    )
    assert len(got) == 2 and got.rv.isna().all()


def test_distinct_count_exact_and_hll(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.agg import approx_distinct_hll, distinct_count

    rng = np.random.RandomState(9)
    vals = rng.randint(0, 3000, 20000)
    ds = ray.data.from_arrow(pa.table({"u": vals}))
    exact_n = len(set(vals.tolist()))
    got = distinct_count(ds, "u")
    assert got.n_distinct.iloc[0] == exact_n
    approx = approx_distinct_hll(ds, "u").n_distinct_approx.iloc[0]
    assert abs(approx - exact_n) / exact_n < 0.05  # p=12 → ~1.6% std err


def test_hll_null_values_excluded(ray_session):
    """NULL values update no HLL register, matching SQL COUNT(DISTINCT):
    a half-NULL column estimates the non-null cardinality, an all-NULL
    column estimates exactly 0, and a group whose values are all NULL
    still emits its row with estimate 0."""
    import ray.data

    from jsonld_ex_ray.ops.agg import approx_distinct_hll, grouped_approx_distinct_hll

    vals = [f"v{i}" for i in range(500)] + [None] * 500
    ds = ray.data.from_arrow(pa.table({"u": pa.array(vals, pa.string())})).repartition(4)
    approx = approx_distinct_hll(ds, "u").n_distinct_approx.iloc[0]
    assert abs(approx - 500) / 500 < 0.05

    all_null = ray.data.from_arrow(
        pa.table({"u": pa.array([None] * 100, pa.string())})
    )
    assert approx_distinct_hll(all_null, "u").n_distinct_approx.iloc[0] == 0

    tbl = pa.table(
        {
            "g": pa.array(["a"] * 300 + ["b"] * 50, pa.string()),
            "v": pa.array([f"x{i}" for i in range(300)] + [None] * 50, pa.string()),
        }
    )
    out = (
        grouped_approx_distinct_hll(ray.data.from_arrow(tbl).repartition(4), "g", "v")
        .to_pandas()
        .set_index("g")
    )
    assert abs(out.loc["a", "n_distinct_approx"] - 300) / 300 < 0.05
    assert out.loc["b", "n_distinct_approx"] == 0


def test_compact_docs_stage(ray_session):
    import json as _json

    import ray.data

    from jsonld_ex_ray.pipeline import compact_docs

    expanded = [[{"@id": "https://x/s", "https://x/name": [{"@value": "n"}]}]]
    tbl = pa.table({"doc": [_json.dumps(d) for d in expanded]})
    ctx = {"@context": {"@vocab": "https://x/"}}
    out = compact_docs(ray.data.from_arrow(tbl), ctx).to_pandas()
    compacted = _json.loads(out.compacted.iloc[0])
    assert compacted["name"] == "n"
    assert compacted["@id"] == "https://x/s"


def test_hash_join_bucketed_mixed_key_widths(ray_session):
    """int32 keys on one side, int64 on the other: bucket assignment must
    agree or matches silently vanish."""
    from jsonld_ex_ray.ops.joins import hash_join_bucketed

    left = pa.table({"lk": pa.array([1, 2, 3], pa.int32()), "lv": ["a", "b", "c"]})
    right = pa.table({"rk": pa.array([1, 2, 3], pa.int64()), "rv": ["x", "y", "z"]})
    out = (
        hash_join_bucketed(
            _ds(left), _ds(right), left_on="lk", right_on="rk", right_cols=["rv"]
        )
        .to_pandas()
        .sort_values("lk")
    )
    assert len(out) == 3 and out.rv.tolist() == ["x", "y", "z"]


def test_grouped_quantiles_match_sql_with_nulls(ray_session, buckets):
    """Grouped quantiles agree with DuckDB quantile_cont, including null
    values and an all-null group, whether the groups spread over many
    buckets or share one."""
    import duckdb
    import ray.data
    from jsonld_ex_ray.ops.agg import grouped_exact_quantiles

    rng = np.random.default_rng(7)
    n = 4000
    g = rng.integers(0, 37, n)
    v = np.round(rng.normal(50, 20, n), 3)
    tbl = pa.table(
        {
            "g": pa.array([f"grp{x:02d}" for x in g]),
            "v": pa.array(v, pa.float64()),
        }
    )
    # null values inside a group + one all-null group
    extra = pa.table(
        {
            "g": pa.array(["grp00", "nullgrp", "nullgrp"]),
            "v": pa.array([None, None, None], pa.float64()),
        }
    )
    tbl = pa.concat_tables([tbl, extra])
    ds = ray.data.from_arrow(tbl)
    qs = [0.25, 0.5, 0.9]

    spread = grouped_exact_quantiles(ds, "g", "v", qs).to_pandas()
    buckets(1)
    one_bucket = grouped_exact_quantiles(ds, "g", "v", qs).to_pandas()

    con = duckdb.connect()
    con.register("t", tbl)
    sql = con.execute(
        """SELECT g, round(quantile_cont(v, 0.25), 6) AS q25,
                  round(quantile_cont(v, 0.50), 6) AS q50,
                  round(quantile_cont(v, 0.90), 6) AS q90
           FROM t GROUP BY g ORDER BY g""",
    ).fetchdf()
    import pandas as pd

    for got, label in ((spread, "64 buckets"), (one_bucket, "1 bucket")):
        got = got.sort_values("g").reset_index(drop=True)
        assert list(got.g) == list(sql.g), label
        for c in ("q25", "q50", "q90"):
            a = got[c].astype(float).to_numpy()
            b = sql[c].astype(float).to_numpy()
            assert np.allclose(a, b, equal_nan=True), (label, c)


def test_multi_key_null_groups_stay_one_group(ray_session):
    """A NULL key is one group per combination of the other keys, as in
    SQL's GROUP BY, however many rows meet in one block (Arrow's fast
    multi-key grouper splits such a group once a few dozen rows meet)."""
    import duckdb

    from jsonld_ex_ray.ops.agg import distinct_rows, groupby_agg

    rng = np.random.default_rng(4)
    n = 2000
    g = rng.choice(np.array(["a", "b", None], dtype=object), n)
    tbl = pa.table(
        {
            "g": pa.array(g, pa.string()),
            "h": pa.array(rng.integers(0, 3, n)),
            "v": pa.array(np.ones(n)),
        }
    )
    want = duckdb.sql("SELECT g, h, count(*) AS n FROM tbl GROUP BY g, h").fetchdf()
    got = groupby_agg(_ds(tbl), ["g", "h"], [("v", "count", "n")]).to_pandas()
    key = ["g", "h"]
    for f in (got, want):
        f["g"] = f["g"].fillna("-")
    pd.testing.assert_frame_equal(
        got.sort_values(key).reset_index(drop=True)[["g", "h", "n"]],
        want.sort_values(key).reset_index(drop=True),
        check_dtype=False,
    )
    assert len(distinct_rows(_ds(tbl), key).to_pandas()) == len(want)


def test_grouped_aggs_return_a_dataset_on_empty_input(ray_session):
    """Every grouped aggregate returns a Dataset for an empty input too,
    with no rows and its output columns (null-typed: there are no values
    to type them by)."""
    import ray.data

    from jsonld_ex_ray.ops.agg import (
        cube_agg,
        groupby_agg,
        grouped_exact_quantiles,
        heavy_hitters,
        rollup_agg,
    )
    from jsonld_ex_ray.ops.window import tumbling_window_agg

    empty = ray.data.from_arrow(
        pa.table(
            {
                "g": pa.array([], pa.string()),
                "h": pa.array([], pa.int64()),
                "ts": pa.array([], pa.timestamp("us")),
                "x": pa.array([], pa.float64()),
            }
        )
    )
    aggs = [("x", "sum", "s"), ("x", "count", "n")]
    cases = {
        "groupby_agg": (groupby_agg(empty, ["g"], aggs), ["g", "s", "n"]),
        "rollup_agg": (rollup_agg(empty, ["g", "h"], aggs), ["g", "h", "s", "n"]),
        "cube_agg": (cube_agg(empty, ["g", "h"], aggs), ["g", "h", "s", "n"]),
        "tumbling_window_agg": (
            tumbling_window_agg(empty, "ts", 60, aggs),
            ["window_start", "s", "n"],
        ),
        "grouped_exact_quantiles": (
            grouped_exact_quantiles(empty, "g", "x", [0.5, 0.9]),
            ["g", "q50", "q90"],
        ),
        "heavy_hitters": (heavy_hitters(empty, "g", 3), ["g", "n"]),
    }
    for name, (out, cols) in cases.items():
        assert isinstance(out, ray.data.Dataset), name
        assert out.count() == 0, name
        assert out.schema().names == cols, name


def test_grouped_quantiles_high_cardinality(ray_session):
    """10⁵ groups must run through the bucketed path (the histogram
    path's per-block partial would be groups×bins×8 B) and return one
    exact row per group."""
    import ray.data
    from jsonld_ex_ray.ops.agg import grouped_exact_quantiles

    n_groups = 100_000
    ids = np.repeat(np.arange(n_groups, dtype=np.int64), 3)
    vals = np.tile(np.array([1.0, 2.0, 10.0]), n_groups)
    ds = ray.data.from_arrow(pa.table({"g": pa.array(ids), "v": pa.array(vals)}))
    out = grouped_exact_quantiles(ds, "g", "v", [0.5]).to_pandas()
    assert len(out) == n_groups
    assert (out.q50 == 2.0).all()
