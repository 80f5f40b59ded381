"""Windowed aggregates + as-of join operators."""

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def test_tumbling_covers_every_event_once(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.window import tumbling_window_agg

    ds = ray.data.read_parquet(f"{SF}/events.parquet", columns=["ts", "value"])
    out = tumbling_window_agg(ds, "ts", 3600, [("value", "count", "n")]).to_pandas()
    total = pq.read_metadata(f"{SF}/events.parquet").num_rows
    assert out.n.sum() == total
    assert (out.window_start % 3600 == 0).all()


def test_sliding_covers_every_event_fanout_times(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.window import sliding_window_agg

    ds = ray.data.read_parquet(f"{SF}/events.parquet", columns=["ts", "value"])
    out = sliding_window_agg(ds, "ts", 3600, 1800, [("value", "count", "n")]).to_pandas()
    total = pq.read_metadata(f"{SF}/events.parquet").num_rows
    assert out.n.sum() == total * 2  # window/slide = 2 windows per event
    assert (out.window_start % 1800 == 0).all()


def test_asof_join_matches_pandas(ray_session):
    import pyarrow.compute as pc
    import ray.data

    from jsonld_ex_ray.ops.joins import asof_join_bucketed

    events = pq.read_table(f"{SF}/events.parquet")
    views = events.filter(pc.equal(events.column("event_type"), pa.scalar("view")))
    right = pa.table(
        {"user_id": views.column("user_id"), "ts": views.column("ts"), "view_ts": views.column("ts")}
    )
    left = ray.data.read_parquet(f"{SF}/events.parquet", columns=["event_id", "user_id", "ts"])
    got = (
        asof_join_bucketed(
            left,
            ray.data.from_arrow(right),
            on="ts",
            by="user_id",
            right_value_cols=["view_ts"],
            allow_exact_matches=False,
        )
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)[["event_id", "view_ts"]]
    )
    ldf = events.to_pandas()[["event_id", "user_id", "ts"]].sort_values("ts")
    rdf = right.to_pandas().sort_values("ts")
    want = (
        pd.merge_asof(ldf, rdf, on="ts", by="user_id", allow_exact_matches=False)
        .sort_values("event_id")
        .reset_index(drop=True)[["event_id", "view_ts"]]
    )
    pd.testing.assert_frame_equal(got, want)
    assert got.view_ts.notna().any()  # some events do have a prior view


def test_sessionize_matches_pandas_reference(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from jsonld_ex_ray.ops.window import sessionize

    rng = np.random.RandomState(4)
    n = 2000
    base = pd.Timestamp("2024-01-01")
    df = pd.DataFrame(
        {
            "user_id": rng.randint(0, 40, n),
            "ts": base + pd.to_timedelta(np.sort(rng.randint(0, 500_000, n)), unit="s"),
        }
    )
    got = (
        sessionize(ray.data.from_arrow(pa.Table.from_pandas(df)), "ts", "user_id", 1800)
        .to_pandas()
        .sort_values(["user_id", "session_seq"])
        .reset_index(drop=True)
    )
    # reference: per-user gap > 1800s starts a session
    ref = df.sort_values(["user_id", "ts"]).copy()
    gap = ref.groupby("user_id")["ts"].diff().dt.total_seconds()
    ref["new"] = (gap.isna() | (gap > 1800)).astype(int)
    ref["sid"] = ref.groupby("user_id")["new"].cumsum()
    want = (
        ref.groupby(["user_id", "sid"])
        .agg(n_events=("ts", "size"), session_start=("ts", "min"), session_end=("ts", "max"))
        .reset_index()
        .rename(columns={"sid": "session_seq"})
        .sort_values(["user_id", "session_seq"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["user_id", "session_seq", "n_events", "session_start", "session_end"]],
        want[["user_id", "session_seq", "n_events", "session_start", "session_end"]],
        check_dtype=False,
    )


def test_exact_quantiles_matches_numpy(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from jsonld_ex_ray.ops.agg import exact_quantiles

    rng = np.random.RandomState(11)
    # lognormal: heavy skew exercises the bin-refinement path
    vals = rng.lognormal(0, 1.5, 30_000)
    ds = ray.data.from_arrow(pa.table({"v": vals}))
    out = exact_quantiles(ds, "v", [0.25, 0.5, 0.9], bins=512)
    for q, colname in [(0.25, "q25"), (0.5, "q50"), (0.9, "q90")]:
        want = round(float(np.quantile(vals, q, method="linear")), 6)
        assert out[colname].iloc[0] == want, (q, out[colname].iloc[0], want)
    # constant column edge
    ds2 = ray.data.from_arrow(pa.table({"v": np.full(100, 7.25)}))
    out2 = exact_quantiles(ds2, "v", [0.5])
    assert out2.q50.iloc[0] == 7.25
