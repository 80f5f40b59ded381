"""Event-time window aggregates — operators Ray Data lacks natively.

- Tumbling windows: vectorized window-id assignment (epoch floor), then
  the bucketed grouped aggregate (``ops.agg.groupby_agg``) — no
  per-event Python.
- Sliding windows: each event fans out to its ``window/slide`` covering
  windows inside ``map_batches`` (bounded expansion), then the same
  grouped aggregate.

Batch semantics (SURVEY.md §2.9): no watermarks/late data — the input is a
bounded table with an event-time column.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .agg import _empty_result, groupby_agg
from .shuffle import bucketed, key_runs


def _epoch_seconds(col: pa.ChunkedArray) -> pa.ChunkedArray:
    # unit-robust: normalize to µs FIRST (a timestamp[s]/[ms]/[ns] column
    # cast straight to int64 would scale every window by up to 10⁶)
    us = pc.cast(pc.cast(col, pa.timestamp("us"), safe=False), pa.int64())
    return _floor_div(us, 1_000_000)


def _floor_div(col, divisor: int):
    # pc.divide truncates toward zero; SQL floor(epoch(ts)) and numpy //
    # floor — pre-1970 timestamps with a remainder would land one
    # second/window too late under truncation. Fix up with the sign of
    # the remainder.
    q = pc.divide(col, divisor)
    r = pc.subtract(col, pc.multiply(q, divisor))
    return pc.subtract(q, pc.cast(pc.less(r, 0), pa.int64()))


def tumbling_window_agg(
    ds,
    ts_col: str,
    window_s: int,
    aggs: list[tuple[str, str, str]],
    extra_keys: list[str] | None = None,
):
    """→ Dataset keyed by ``window_start`` (epoch seconds) [+ extra_keys]
    with the requested aggregates, one row per window, in no order."""
    extra_keys = extra_keys or []
    empty = _empty_result(ds, ["window_start", *extra_keys, *(a[2] for a in aggs)])
    if empty is not None:
        return empty

    def assign(batch: pa.Table) -> pa.Table:
        secs = _epoch_seconds(batch.column(ts_col))
        ws = pc.multiply(_floor_div(secs, window_s), window_s)
        return batch.append_column("window_start", pc.cast(ws, pa.int64()))

    keyed = ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
    return groupby_agg(keyed, ["window_start", *extra_keys], aggs)


def sessionize(
    ds,
    ts_col: str,
    key_col: str,
    gap_s: int,
):
    """Session windows: per key, consecutive events whose gap exceeds
    ``gap_s`` start a new session. One bucketed shuffle on the key
    (ops/shuffle.py); inside each bucket the session assignment is a
    vectorized sort + diff + cumsum. → Dataset(key, session_seq, n_events,
    session_start, session_end) with ``session_seq`` numbered per key in
    time order (deterministic, SQL-reproducible via lag/over)."""
    import polars as pl

    import numpy as np

    def sessions_in_bucket(group: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(group)
            .sort([key_col, ts_col])
            .with_columns(
                (
                    # microsecond precision: truncating to whole seconds
                    # would merge sessions split by fractional-second gaps
                    (
                        pl.col(ts_col).diff().dt.total_microseconds().fill_null(
                            (gap_s + 1) * 1_000_000
                        )
                        > gap_s * 1_000_000
                    )
                    | (pl.col(key_col) != pl.col(key_col).shift(1)).fill_null(True)
                )
                .cum_sum()
                .alias("__sid")
            )
        )
        out = (
            df.group_by([key_col, "__sid"], maintain_order=True)
            .agg(
                pl.len().cast(pl.Int64).alias("n_events"),
                pl.col(ts_col).min().alias("session_start"),
                pl.col(ts_col).max().alias("session_end"),
            )
            .with_columns(
                pl.col("__sid").rank("dense").over(key_col).cast(pl.Int64).alias("session_seq")
            )
            .drop("__sid")
            .select([key_col, "session_seq", "n_events", "session_start", "session_end"])
        )
        return out.to_arrow()

    return bucketed(ds, [key_col], sessions_in_bucket)


def sliding_window_agg(
    ds,
    ts_col: str,
    window_s: int,
    slide_s: int,
    aggs: list[tuple[str, str, str]],
    extra_keys: list[str] | None = None,
):
    """Overlapping windows of ``window_s`` advancing every ``slide_s``:
    an event at t belongs to windows starting in
    (t - window_s, t] aligned to slide_s — fan-out is window_s/slide_s
    rows per event, emitted vectorized-ish per batch.
    → Dataset keyed by ``window_start`` [+ extra_keys] with the requested
    aggregates, one row per window, in no order."""
    if window_s % slide_s != 0:
        raise ValueError("window_s must be a multiple of slide_s")
    fanout = window_s // slide_s
    extra_keys = extra_keys or []
    empty = _empty_result(ds, ["window_start", *extra_keys, *(a[2] for a in aggs)])
    if empty is not None:
        return empty

    def expand_windows(batch: pa.Table) -> pa.Table:
        import numpy as np

        secs = np.asarray(
            _epoch_seconds(batch.column(ts_col)).to_numpy(zero_copy_only=False),
            dtype=np.int64,
        )
        last = (secs // slide_s) * slide_s  # latest window containing s
        # (n, fanout) candidate window starts; keep s ∈ [w, w+window_s) —
        # fully vectorized (np.nonzero row-major preserves per-event order)
        w = last[:, None] - np.arange(fanout, dtype=np.int64)[None, :] * slide_s
        valid = (secs[:, None] >= w) & (secs[:, None] < w + window_s)
        take_idx, kidx = np.nonzero(valid)
        out = batch.take(pa.array(take_idx, pa.int32()))
        return out.append_column(
            "window_start", pa.array(w[take_idx, kidx], pa.int64())
        )

    keyed = ds.map_batches(expand_windows, batch_format="pyarrow", zero_copy_batch=True)
    return groupby_agg(keyed, ["window_start", *extra_keys], aggs)


def _range_frame_bounds(keys, usv, range_us: int, *, _force_fallback: bool = False):
    """Per-row [left, right] frame bounds for the SQL RANGE frame
    ``[ts − range_us, ts]`` over rows sorted by (key, ts, …): frame start
    is the key's first row with ts ≥ ts_i − range_us, frame end the last
    PEER (ties included). One combined monotonic key ``key_index · base +
    ts_rel`` makes both bounds two global ``np.searchsorted`` calls; a
    per-key-segment fallback covers the (astronomical) int64-overflow
    case. Pure kernel — property-tested against the O(n²) definition."""
    import numpy as np

    n = len(usv)
    if n == 0:
        z = np.zeros(0, np.int64)
        return z, z
    newkey = np.r_[True, keys[1:] != keys[:-1]]
    kidx = np.cumsum(newkey) - 1  # dense key index, 0-based
    rel = usv - usv.min()
    base = int(rel.max()) + range_us + 2
    if not _force_fallback and int(kidx[-1]) < (2**62) // base:
        combined = kidx * base + rel
        left = np.searchsorted(combined, kidx * base + np.maximum(rel - range_us, 0), side="left")
        right = np.searchsorted(combined, combined, side="right") - 1
        return left, right
    left = np.empty(n, np.int64)
    right = np.empty(n, np.int64)
    starts = np.r_[np.flatnonzero(newkey), n]
    for s, e in zip(starts[:-1], starts[1:]):
        seg = usv[s:e]
        left[s:e] = s + np.searchsorted(seg, seg - range_us, side="left")
        right[s:e] = s + np.searchsorted(seg, seg, side="right") - 1
    return left, right


def rolling_time_agg(
    ds,
    key_col: str,
    ts_col: str,
    id_col: str,
    value_col: str,
    range_s: int,
    *,
    sum_col: str = "rolling_sum",
    n_col: str = "rolling_n",
    round_to: int | None = 2,
):
    """Per-key TIME-RANGE rolling aggregate: for each row, sum/count of
    ``value_col`` over the key's rows with ``ts`` in
    ``[ts_i - range_s, ts_i]`` — SQL's ``RANGE BETWEEN <range_s>
    PRECEDING AND CURRENT ROW`` frame (ties at the current timestamp are
    peers and included, matching the SQL frame-end rule).

    Ray shape: one bucketed shuffle on the key (ops/shuffle.py), then a
    fully vectorized per-bucket kernel — sort by (key, ts, id), build a
    single monotonic combined key ``key_index * base + ts_rel`` so BOTH
    frame boundaries for every row come from two global
    ``np.searchsorted`` calls (no per-key Python), and read the sums off
    one prefix-sum array. Falls back to per-key-segment searchsorted only
    if ``n_keys_in_bucket × time_span`` would overflow int64. Emits ``ts_s``
    (epoch-second BIGINT) for representation-stable hashing.
    """
    import numpy as np

    range_us = int(range_s) * 1_000_000

    def roll_bucket(group: pa.Table) -> pa.Table:
        from .agg import round_half_away

        us = pc.cast(pc.cast(group.column(ts_col), pa.timestamp("us"), safe=False), pa.int64())
        g = group.drop_columns([ts_col]).append_column("__us", us)
        idx = pc.sort_indices(
            g,
            sort_keys=[(key_col, "ascending"), ("__us", "ascending"), (id_col, "ascending")],
        )
        g = g.take(idx)
        usv = g.column("__us").to_numpy()
        keys = g.column(key_col).to_numpy(zero_copy_only=False)
        n = len(usv)
        vals = g.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        left, right = _range_frame_bounds(keys, usv, range_us)
        pref = np.r_[0.0, np.cumsum(vals)]
        rsum = pref[right + 1] - pref[left]
        if round_to is not None:
            rsum = round_half_away(rsum, round_to)
        secs = usv // 1_000_000 if n else np.zeros(0, np.int64)
        return (
            g.drop_columns(["__us"])
            .append_column("ts_s", pa.array(secs, pa.int64()))
            .append_column(sum_col, pa.array(rsum, pa.float64()))
            .append_column(n_col, pa.array(right - left + 1, pa.int64()))
        )

    return bucketed(ds, [key_col], roll_bucket)


def _sort_keyed(group: pa.Table, key_col: str, ts_col: str, id_col: str) -> pa.Table:
    """Shared ordered-scan prologue of :func:`keyed_running_sum` and
    :func:`keyed_shift` — ONE home for the ordering/epoch semantics.
    Unit-robust epoch seconds: normalize to µs first (from_items yields
    timestamp[s], parquet yields timestamp[us]). The ORDER uses full µs
    precision (same-second events must sort exactly like the SQL
    window's ORDER BY ts); only the EMITTED ``ts_s`` column is truncated
    to seconds (floor division: pre-1970 rows match SQL) for
    representation-stable hashing."""
    us = pc.cast(group.column(ts_col), pa.timestamp("us"), safe=False)
    us_i = pc.cast(us, pa.int64())
    secs = _floor_div(us_i, 1_000_000)
    g = (
        group.drop_columns([ts_col])
        .append_column("ts_s", pc.cast(secs, pa.int64()))
        .append_column("__us", us_i)
    )
    idx = pc.sort_indices(
        g,
        sort_keys=[(key_col, "ascending"), ("__us", "ascending"), (id_col, "ascending")],
    )
    return g.take(idx).drop_columns(["__us"])


def keyed_running_sum(
    ds,
    key_col: str,
    ts_col: str,
    id_col: str,
    value_col: str,
    *,
    out_col: str = "running_sum",
    round_to: int | None = 2,
):
    """Per-key cumulative sum in (ts, id) order — the per-key ordered
    scan (running balances, per-user counters, session progress).

    Ray shape: one bucketed shuffle on the key (ops/shuffle.py), then a
    vectorized segmented cumsum per bucket (sort by (key, ts, id), polars
    ``cum_sum().over`` — zero per-key Python). Within a key the addition
    order is the SAME serial order a SQL window ``sum() OVER (PARTITION
    BY key ORDER BY ts, id)`` uses, so values match bitwise before the
    final rounding. Emits ``ts_s`` (epoch-second BIGINT) instead of the raw
    timestamp for representation-stable hashing.
    """
    import numpy as np

    def scan_bucket(group: pa.Table) -> pa.Table:
        from .agg import round_half_away

        g = _sort_keyed(group, key_col, ts_col, id_col)
        # SEGMENTED per-key cumsum (polars cum_sum().over) — the additions
        # run serially within each key in row order, exactly like SQL's
        # window sum. The previous global-cumsum-minus-offset trick
        # computed (T + v + …) − T, whose cancellation error grows with
        # the bucket's cumulative total T and would break the 2dp oracle
        # parity once T reaches ~1e14 at corpus scale.
        import polars as pl

        out = (
            pl.from_arrow(g.select([key_col, value_col]))
            .select(pl.col(value_col).cast(pl.Float64).cum_sum().over(key_col))
            .to_series()
            .to_numpy()
        )
        if round_to is not None:
            out = round_half_away(out, round_to)
        return g.append_column(out_col, pa.array(out, pa.float64()))

    return bucketed(ds, [key_col], scan_bucket)


def keyed_shift(
    ds,
    key_col: str,
    ts_col: str,
    id_col: str,
    value_col: str,
    *,
    periods: int = 1,
    out_col: str = "prev_value",
):
    """Per-key LAG/LEAD in (ts, id) order — SQL ``LAG(value, n) OVER
    (PARTITION BY key ORDER BY ts, id)`` (``periods`` > 0) or ``LEAD``
    (``periods`` < 0). Rows without a neighbor get NULL, like SQL.
    Values move verbatim (no arithmetic), so parity needs no rounding.

    Ray shape: the same bucketed shuffle as :func:`keyed_running_sum`,
    then one vectorized sort + segmented shift per bucket (polars
    ``shift().over``; zero per-key Python). Emits ``ts_s``
    (epoch-second BIGINT) instead of the raw timestamp for
    representation-stable hashing; ordering uses full µs precision.
    """
    def shift_bucket(group: pa.Table) -> pa.Table:
        import polars as pl

        g = _sort_keyed(group, key_col, ts_col, id_col)
        shifted = (
            pl.from_arrow(g.select([key_col, value_col]))
            .select(pl.col(value_col).shift(periods).over(key_col))
            .to_series()
            .to_arrow()
        )
        return g.append_column(out_col, shifted.cast(g.column(value_col).type))

    return bucketed(ds, [key_col], shift_bucket)


def funnel_stages(
    ds,
    key_col: str,
    ts_col: str,
    type_col: str,
    steps: list[str],
):
    """Ordered funnel: per key, the earliest timestamp of step 1, the
    earliest step-2 event strictly AFTER it, the earliest step-3 event
    strictly after that, … ``stage`` = number of steps reached (0 when
    the key never performed step 1). The strict-ordering semantics (each
    step must happen after the previous step's chosen event) is what
    product funnels mean and what a per-step min-timestamp chain in SQL
    reproduces.

    Ray shape: one bucketed shuffle on the key (ops/shuffle.py), then a
    vectorized per-bucket chain —
    ``len(steps)`` polars filter+groupby+join rounds over the bucket, no
    per-key Python. Emits epoch-µs BIGINT step times (nullable) for
    representation-stable hashing: Dataset(key, step1_us…stepN_us,
    stage)."""
    import polars as pl

    def funnel_bucket(group: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(group.column(ts_col), pa.timestamp("us"), safe=False), pa.int64())
        df = pl.from_arrow(
            pa.table(
                {
                    key_col: group.column(key_col),
                    "__t": group.column(type_col),
                    "__us": us,
                }
            )
        )
        reached = df.select(key_col).unique()
        prev_col = None
        for i, step in enumerate(steps, start=1):
            ev = df.filter(pl.col("__t") == step)
            if prev_col is not None:
                ev = ev.join(
                    reached.select([key_col, prev_col]), on=key_col, how="inner"
                ).filter(pl.col("__us") > pl.col(prev_col))
            col = f"step{i}_us"
            firsts = ev.group_by(key_col).agg(pl.col("__us").min().alias(col))
            reached = reached.join(firsts, on=key_col, how="left")
            prev_col = col
        stage = pl.sum_horizontal(
            [pl.col(f"step{i}_us").is_not_null().cast(pl.Int64) for i in range(1, len(steps) + 1)]
        )
        out = reached.with_columns(stage.alias("stage")).sort(key_col)
        return out.to_arrow()

    return bucketed(ds, [key_col], funnel_bucket)


def ranked(
    ds,
    key_col: str,
    order_col: str,
    id_col: str,
    *,
    descending: bool = False,
    ntile_n: int = 4,
):
    """Per-partition ranking family — ``row_number`` / ``rank`` /
    ``dense_rank`` / ``percent_rank`` / ``cume_dist`` / ``ntile(n)`` in
    ONE pass (the reference has no windowed ranking; this is part of the
    training-data surface, e.g. per-domain quality ranks for curriculum
    mixes).

    Ray shape: one bucketed shuffle on the key (ops/shuffle.py), then
    each bucket runs one vectorized sort by (key, order, id) + segmented
    numpy rank kernels — zero per-group Python.

    Tie semantics match SQL: rank/dense_rank/percent_rank/cume_dist see
    ties on ``order_col`` (``OVER (... ORDER BY val [DESC])``);
    row_number and ntile use the deterministic total order
    (``ORDER BY val [DESC], id``), so results are reproducible and
    oracle-checkable. percent_rank/cume_dist are exact IEEE ratios of
    small integers — no rounding needed for oracle parity."""
    import numpy as np

    order_dir = "descending" if descending else "ascending"

    def rank_bucket(group: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            group,
            sort_keys=[
                (key_col, "ascending"),
                (order_col, order_dir),
                (id_col, "ascending"),
            ],
        )
        g = group.take(idx)
        n = g.num_rows
        if n == 0:
            sch = g.schema
            for name in ("row_number", "rank", "dense_rank", "ntile"):
                sch = sch.append(pa.field(name, pa.int64()))
            for name in ("percent_rank", "cume_dist"):
                sch = sch.append(pa.field(name, pa.float64()))
            return sch.empty_table()
        key_change = np.zeros(n, bool)
        key_change[key_runs(g, [key_col])[0]] = True
        run_change = np.zeros(n, bool)
        run_change[key_runs(g, [key_col, order_col])[0]] = True
        ar = np.arange(n, dtype=np.int64)
        ss = np.maximum.accumulate(np.where(key_change, ar, 0))  # seg start idx
        rn = ar - ss + 1
        tie_start = np.maximum.accumulate(np.where(run_change, ar, 0))
        rank = tie_start - ss + 1
        runs = np.cumsum(run_change)  # 1-based run id
        dense = runs - runs[ss] + 1
        sid = np.cumsum(key_change) - 1
        nk = np.bincount(sid)[sid]
        with np.errstate(invalid="ignore", divide="ignore"):
            pr = np.where(nk > 1, (rank - 1) / np.maximum(nk - 1, 1), 0.0)
        tid = runs - 1
        run_last = (np.cumsum(np.bincount(tid)) - 1)[tid]
        cd = (run_last - ss + 1) / nk
        t = ntile_n
        q, r = nk // t, nk % t
        pos = rn - 1
        cut = r * (q + 1)
        tile = np.where(
            pos < cut, pos // (q + 1) + 1, r + (pos - cut) // np.maximum(q, 1) + 1
        )
        return (
            g.append_column("row_number", pa.array(rn))
            .append_column("rank", pa.array(rank))
            .append_column("dense_rank", pa.array(dense))
            .append_column("percent_rank", pa.array(pr, pa.float64()))
            .append_column("cume_dist", pa.array(cd, pa.float64()))
            .append_column("ntile", pa.array(tile.astype(np.int64)))
        )

    return bucketed(ds, [key_col], rank_bucket)


def keyed_rolling_rows(
    ds,
    key_col: str,
    ts_col: str,
    id_col: str,
    value_col: str,
    n_rows: int,
    *,
    agg: str = "mean",
    out_col: str | None = None,
    round_to: int = 6,
):
    """Per-key ROWS-frame rolling aggregate — SQL ``agg(value) OVER
    (PARTITION BY key ORDER BY ts, id ROWS BETWEEN n_rows-1 PRECEDING
    AND CURRENT ROW)`` (the count-based sibling of the RANGE-frame
    :func:`rolling_time_agg`): smoothed per-user signals, n-event moving
    averages. Partial leading windows aggregate over the rows available
    so far, like SQL.

    Ray shape (same as :func:`keyed_running_sum`): one bucketed shuffle
    on the key, then a vectorized segmented rolling kernel per bucket (polars ``rolling_*(window_size).over(key)``) —
    zero per-key Python. Emits ``ts_s`` (epoch-second BIGINT, floor
    division) for representation-stable hashing. ``agg``: ``mean`` |
    ``sum`` | ``min`` | ``max``. Rounded on both sides for the float
    aggs: the windowed additions associate differently than the
    oracle's."""
    import numpy as np

    if agg not in ("mean", "sum", "min", "max"):
        raise ValueError(f"unsupported agg {agg!r}")
    if n_rows <= 0:
        raise ValueError(f"n_rows must be positive, got {n_rows}")
    name = out_col or f"roll_{agg}"

    def scan_bucket(group: pa.Table) -> pa.Table:
        from .agg import round_half_away

        g = _sort_keyed(group, key_col, ts_col, id_col)
        import polars as pl

        col = pl.col(value_col).cast(pl.Float64)
        expr = {
            "mean": col.rolling_mean(window_size=n_rows, min_samples=1),
            "sum": col.rolling_sum(window_size=n_rows, min_samples=1),
            "min": col.rolling_min(window_size=n_rows, min_samples=1),
            "max": col.rolling_max(window_size=n_rows, min_samples=1),
        }[agg]
        s = (
            pl.from_arrow(g.select([key_col, value_col]))
            .select(expr.over(key_col))
            .to_series()
        )
        # A frame with zero non-null values yields polars null; keep it a
        # real arrow NULL (SQL windowed agg semantics), not the NaN that
        # .to_numpy() would coerce it to — keyed_shift preserves nulls the
        # same way.
        null_mask = s.is_null().to_numpy()
        out = s.to_numpy()
        if round_to is not None and agg in ("mean", "sum"):
            out = round_half_away(out, round_to)
        return g.append_column(
            name, pa.array(np.asarray(out, np.float64), pa.float64(), mask=null_mask)
        )

    return bucketed(ds, [key_col], scan_bucket)
