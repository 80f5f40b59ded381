"""Aggregation helpers that avoid all-to-all shuffles.

``groupby_agg``: the one grouped aggregate — map-side arrow partials per
block (a combiner inside ``map_batches``), then one bucketed shuffle on
the keys (ops/shuffle.py) with a vectorized per-bucket final combine.
Only partial rows shuffle, nothing is materialized on the driver, and
the result is a distributed Dataset (one row per key) at any key
cardinality. ROLLUP/CUBE, grouped quantiles and heavy hitters run on the
same bucketed combine.

``topk``: per-block top-k inside ``map_batches`` + global sort+limit over
the tiny per-block survivors (k × n_blocks rows), replacing a full sort.

Float determinism: parallel partial sums add doubles in a different order
than a serial scan, so exact bit-equality with any single-threaded oracle
is unattainable. Aggregate specs therefore accept an optional 4th element
``round_digits``; pair it with ``round(expr, n)`` in the oracle SQL.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .shuffle import aggregate, bucketed, key_runs

_SUPPORTED = ("sum", "count", "mean", "min", "max", "var", "std", "covar", "corr")
# two-column ops take a (x_col, y_col) tuple as the column spec
_PAIRED = ("covar", "corr")


def round_half_away(x, nd: int):
    """Round half away from zero — bit-matches DuckDB/C++ ``round()``
    for oracle comparison (numpy's ``round`` is banker's, which differs
    on exact-dyadic halves like 1/128 at 6 decimals). Already-integer
    scaled values pass through untouched: adding ±0.5 to an integer at
    ≥2^52 is not representable and would bump a ULP."""
    p = 10.0 ** nd
    scaled = np.asarray(x, dtype=np.float64) * p
    fl = np.floor(scaled)
    shifted = np.where(scaled >= 0, np.floor(scaled + 0.5), np.ceil(scaled - 0.5))
    return np.where(scaled == fl, scaled, shifted) / p

# partial column name -> how partials combine across blocks
_COMBINE_SUM = "sum"
_COMBINE_MIN = "min"
_COMBINE_MAX = "max"


def _norm_aggs(aggs):
    """Normalize specs to (col, op, alias, round_digits|None)."""
    out = []
    seen_aliases = set()
    for spec in aggs:
        col, op, alias = spec[0], spec[1], spec[2]
        nd = spec[3] if len(spec) > 3 else None
        if op not in _SUPPORTED:
            raise ValueError(f"unsupported op {op!r}")
        if op in _PAIRED:
            if not (isinstance(col, tuple) and len(col) == 2):
                raise ValueError(f"{op} needs a (x_col, y_col) tuple, got {col!r}")
        elif isinstance(col, tuple):
            raise ValueError(f"{op} takes a single column, got tuple {col!r}")
        if alias in seen_aliases:
            raise ValueError(f"duplicate alias {alias!r}")
        seen_aliases.add(alias)
        out.append((col, op, alias, nd))
    return out


def _plan_partials(aggs):
    """partial_name -> (arrow aggregate spec, combine op). Partials shared
    by several aliases (e.g. sum+mean of one column) are emitted once and
    fanned out at finalize time — no name collisions. Moment-based ops
    (var/std/covar/corr) also register derived input columns in
    ``_plan_derived`` — sums of squares/products are mergeable across
    blocks and buckets, so these ride the exact same partial machinery."""
    partials: dict[str, tuple[tuple, str]] = {}
    for col, op, _alias, _nd in aggs:
        if op == "count":
            # COUNT(*) semantics: row count, independent of nulls anywhere
            partials["__cnt_all"] = (([], "count_all"), _COMBINE_SUM)
        elif op in ("sum", "mean"):
            partials[f"__sum_{col}"] = ((col, "sum"), _COMBINE_SUM)
            if op == "mean":
                # SQL avg ignores nulls: denominator = non-null count of col
                partials[f"__cnt_{col}"] = ((col, "count"), _COMBINE_SUM)
        elif op == "min":
            partials[f"__min_{col}"] = ((col, "min"), _COMBINE_MIN)
        elif op == "max":
            partials[f"__max_{col}"] = ((col, "max"), _COMBINE_MAX)
        elif op in ("var", "std"):
            partials[f"__sum_{col}"] = ((col, "sum"), _COMBINE_SUM)
            partials[f"__cnt_{col}"] = ((col, "count"), _COMBINE_SUM)
            partials[f"__ssq_{col}"] = ((f"__sq_{col}", "sum"), _COMBINE_SUM)
        elif op in _PAIRED:
            x, y = col
            p = f"{x}__{y}"
            # SQL covar/corr drop a row when EITHER side is null: all five
            # sums run over pair-masked columns, and the pair count is the
            # non-null count of the masked x
            partials[f"__spx_{p}"] = ((f"__px_{p}", "sum"), _COMBINE_SUM)
            partials[f"__spy_{p}"] = ((f"__py_{p}", "sum"), _COMBINE_SUM)
            partials[f"__sxx_{p}"] = ((f"__pxx_{p}", "sum"), _COMBINE_SUM)
            partials[f"__syy_{p}"] = ((f"__pyy_{p}", "sum"), _COMBINE_SUM)
            partials[f"__sxy_{p}"] = ((f"__pxy_{p}", "sum"), _COMBINE_SUM)
            partials[f"__cnt_p_{p}"] = ((f"__px_{p}", "count"), _COMBINE_SUM)
    return partials


def _plan_derived(aggs):
    """Derived input columns the moment ops need: name -> recipe."""
    derived: dict[str, tuple] = {}
    for col, op, _alias, _nd in aggs:
        if op in ("var", "std"):
            derived[f"__sq_{col}"] = ("sq", col)
        elif op in _PAIRED:
            x, y = col
            p = f"{x}__{y}"
            derived[f"__px_{p}"] = ("pair_x", x, y)
            derived[f"__py_{p}"] = ("pair_y", x, y)
            derived[f"__pxx_{p}"] = ("pair_xx", x, y)
            derived[f"__pyy_{p}"] = ("pair_yy", x, y)
            derived[f"__pxy_{p}"] = ("pair_xy", x, y)
    return derived


def _add_derived(batch: pa.Table, derived) -> pa.Table:
    if not derived:
        return batch
    masked: dict[tuple, tuple] = {}

    def pair(x, y):
        if (x, y) not in masked:
            valid = pc.and_(pc.is_valid(batch.column(x)), pc.is_valid(batch.column(y)))
            null_f64 = pa.scalar(None, pa.float64())
            xm = pc.if_else(valid, pc.cast(batch.column(x), pa.float64()), null_f64)
            ym = pc.if_else(valid, pc.cast(batch.column(y), pa.float64()), null_f64)
            masked[(x, y)] = (xm, ym)
        return masked[(x, y)]

    for name, recipe in derived.items():
        kind = recipe[0]
        if kind == "sq":
            c = pc.cast(batch.column(recipe[1]), pa.float64())
            batch = batch.append_column(name, pc.multiply(c, c))
        else:
            xm, ym = pair(recipe[1], recipe[2])
            val = {
                "pair_x": lambda: xm,
                "pair_y": lambda: ym,
                "pair_xx": lambda: pc.multiply(xm, xm),
                "pair_yy": lambda: pc.multiply(ym, ym),
                "pair_xy": lambda: pc.multiply(xm, ym),
            }[kind]()
            batch = batch.append_column(name, val)
    return batch


def _arrow_out_name(spec: tuple) -> str:
    col, op = spec
    return op if col == [] or col == "" else f"{col}_{op}"


def _partial_table(batch: pa.Table, keys: list[str], partials, derived=None) -> pa.Table:
    batch = _add_derived(batch, derived)
    specs = []
    seen = set()
    for _name, (spec, _comb) in partials.items():
        key = (str(spec[0]), spec[1])
        if key not in seen:
            seen.add(key)
            specs.append(spec)
    tbl = aggregate(batch, keys, specs)
    rename = {}
    for name, (spec, _comb) in partials.items():
        rename[_arrow_out_name(spec)] = name
    return tbl.rename_columns([rename.get(n, n) for n in tbl.schema.names])


def _finalize_arrow(tbl: pa.Table, keys: list[str], aggs, partials) -> pa.Table:
    """Arrow-native combine of partial rows → final aliased columns (the
    per-bucket step of ``groupby_agg`` — key columns stay in arrow, no
    pandas conversion)."""
    specs = [(name, comb) for name, (_spec, comb) in partials.items()]
    out = aggregate(tbl, keys, specs)
    rename = {f"{name}_{comb}": name for name, comb in specs}
    out = out.rename_columns([rename.get(n, n) for n in out.schema.names])
    def _np(name):
        return pc.cast(out.column(name), pa.float64()).to_numpy(zero_copy_only=False)

    cols: dict = {k: out.column(k) for k in keys}
    for col, op, alias, nd in aggs:
        if op == "count":
            vals = out.column("__cnt_all")
        elif op == "sum":
            vals = out.column(f"__sum_{col}")
        elif op == "mean":
            vals = pc.divide(
                pc.cast(out.column(f"__sum_{col}"), pa.float64()),
                pc.cast(out.column(f"__cnt_{col}"), pa.float64()),
            )
        elif op in ("var", "std"):
            # sample variance from mergeable moments; SQL yields NULL for
            # n < 2. Tiny negative residue from cancellation clamps to 0.
            n, s, ss = _np(f"__cnt_{col}"), _np(f"__sum_{col}"), _np(f"__ssq_{col}")
            ok = n >= 2
            with np.errstate(invalid="ignore", divide="ignore"):
                v = np.maximum(0.0, (ss - s * s / np.maximum(n, 1)) / np.maximum(n - 1, 1))
                if op == "std":
                    v = np.sqrt(v)
            vals = pa.array(v, pa.float64(), mask=~ok)
        elif op in _PAIRED:
            x, y = col
            p = f"{x}__{y}"
            n = _np(f"__cnt_p_{p}")
            sx, sy = _np(f"__spx_{p}"), _np(f"__spy_{p}")
            sxx, syy, sxy = _np(f"__sxx_{p}"), _np(f"__syy_{p}"), _np(f"__sxy_{p}")
            with np.errstate(invalid="ignore", divide="ignore"):
                if op == "covar":
                    ok = n >= 2
                    v = (sxy - sx * sy / np.maximum(n, 1)) / np.maximum(n - 1, 1)
                else:  # corr: NULL when n < 2 or either side has 0 variance
                    vx = np.maximum(0.0, n * sxx - sx * sx)
                    vy = np.maximum(0.0, n * syy - sy * sy)
                    ok = (n >= 2) & (vx > 0) & (vy > 0)
                    v = np.where(ok, (n * sxy - sx * sy) / np.sqrt(np.where(ok, vx * vy, 1.0)), np.nan)
            vals = pa.array(v, pa.float64(), mask=~ok)
        else:
            vals = out.column(f"__{op}_{col}")
        if nd is not None:
            vals = pa.array(
                round_half_away(
                    pc.cast(vals, pa.float64()).to_numpy(zero_copy_only=False), nd
                )
            )
        cols[alias] = vals
    return pa.table(cols)


def _empty_result(ds, columns: list[str]):
    """A 0-row Dataset of ``columns`` when ``ds``' plan metadata already
    says it holds no rows (an empty in-memory or parquet source; nothing
    runs to find out), else None. Ray
    drops the schema of an empty stream at its first map, so an op over
    such an input would come back with no columns at all. An empty input
    has no values to type the columns by, so they are null-typed."""
    if ds._meta_count() != 0:
        return None
    import ray.data

    return ray.data.from_arrow(pa.table({c: pa.nulls(0) for c in columns}))


_LEVEL = "__level"


def _combine_partials(ds, keys: list[str], aggs, level_sets=None):
    """The bucketed combine under every grouped aggregate: map-side arrow
    partials per block, one bucketed shuffle (ops/shuffle.py), vectorized
    per-bucket combine + finalize. With ``level_sets`` (ROLLUP/CUBE) each
    block's partial rows are emitted once per grouping set, its rolled-up
    keys as typed NULLs and the set's index in ``__level``; the combine
    groups on ``keys + __level``, so a source NULL key and a subtotal never
    merge."""
    aggs = _norm_aggs(aggs)
    empty = _empty_result(ds, [*keys, *(a[2] for a in aggs)])
    if empty is not None:
        return empty
    partials = _plan_partials(aggs)
    derived = _plan_derived(aggs)
    group_keys = keys if level_sets is None else [*keys, _LEVEL]

    def partial(batch: pa.Table) -> pa.Table:
        t = _partial_table(batch, keys, partials, derived)
        if level_sets is None:
            return t
        levels = []
        for i, lvl in enumerate(level_sets):
            lt = t
            for k in keys:
                if k not in lvl:
                    j = lt.schema.get_field_index(k)
                    lt = lt.set_column(j, k, pa.nulls(t.num_rows, lt.schema.field(k).type))
            levels.append(lt.append_column(_LEVEL, pa.array(np.full(t.num_rows, i, np.int32))))
        return pa.concat_tables(levels)

    def combine(group: pa.Table) -> pa.Table:
        # arrow-native combine+finalize: strings never leave arrow
        out = _finalize_arrow(group, group_keys, aggs, partials)
        return out if level_sets is None else out.drop_columns([_LEVEL])

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return bucketed(parts, group_keys, combine)


def groupby_agg(ds, keys: list[str], aggs):
    """The one grouped aggregate, at any key cardinality: map-side arrow
    partials per block, one bucketed shuffle on the keys
    (ops/shuffle.py), vectorized per-bucket combine — only partial rows
    shuffle and the driver sees nothing. ``aggs``: ``[(column, op,
    alias[, round_digits])]``, op in ``sum|count|mean|min|max|var|std``
    or ``covar|corr`` over an ``(x_col, y_col)`` tuple; ``count`` is
    SQL's ``COUNT(*)``. NULL keys form one group, as in SQL's GROUP BY.
    → Dataset(keys + aliases), one row per distinct key, in no order."""
    return _combine_partials(ds, keys, aggs)


def grouped_string_agg(
    ds,
    key_col: str,
    value_col: str,
    order_cols: list[str],
    *,
    sep: str = ",",
    out_col: str = "agg",
):
    """SQL ``string_agg(value, sep ORDER BY order_cols)`` per key — the
    sequence-reconstruction op (per-user event strings for behavioural
    models, per-doc chunk reassembly).

    Ray shape: one bucketed shuffle on the key (ops/shuffle.py); each
    bucket sorts once by (key, *order_cols) and concatenates with a
    vectorized polars ``str.join`` over a maintain-order group_by — zero
    per-key Python. NULL
    values are dropped before joining (SQL string_agg semantics); a key
    whose values are ALL NULL therefore vanishes from the output (SQL
    would keep it with a NULL aggregate) — filter upstream if that
    distinction matters. → Dataset(key_col, out_col)."""

    def join_bucket(group: pa.Table) -> pa.Table:
        import polars as pl

        g = group.filter(pc.is_valid(group.column(value_col)))
        if g.num_rows == 0:
            return pa.table(
                {key_col: pa.array([], g.schema.field(key_col).type),
                 out_col: pa.array([], pa.string())}
            )
        idx = pc.sort_indices(
            g, sort_keys=[(key_col, "ascending"), *[(c, "ascending") for c in order_cols]]
        )
        g = g.take(idx)
        out = (
            pl.from_arrow(g.select([key_col, value_col]))
            .group_by(key_col, maintain_order=True)
            .agg(pl.col(value_col).cast(pl.String).str.join(sep).alias(out_col))
        )
        return out.to_arrow().cast(
            pa.schema([g.schema.field(key_col), pa.field(out_col, pa.string())])
        )

    return bucketed(ds, [key_col], join_bucket)


def unpivot(ds, id_cols: list[str], value_cols: list[str], *, var_col: str = "measure", value_col: str = "value"):
    """Wide→long reshape (SQL UNPIVOT / pandas melt): each input row
    emits one output row per entry of ``value_cols``, tagged with the
    source column name. Embarrassingly parallel per-batch concat of
    column slices — no shuffle, no driver involvement; values are cast
    to float64 (the common UNPIVOT type)."""

    def melt(batch: pa.Table) -> pa.Table:
        pieces = []
        for v in value_cols:
            cols = {c: batch.column(c) for c in id_cols}
            cols[var_col] = pa.array([v] * batch.num_rows, pa.string())
            cols[value_col] = pc.cast(batch.column(v), pa.float64())
            pieces.append(pa.table(cols))
        return pa.concat_tables(pieces)

    return ds.map_batches(melt, batch_format="pyarrow", zero_copy_batch=True)


def rollup_agg(ds, keys: list[str], aggs):
    """``GROUP BY ROLLUP(*keys)``: the levels ``keys``, ``keys[:-1]`` …
    grand total in ONE scan — each block's partial rows are emitted once
    per level (rolled-up keys NULL) into one bucketed combine (see
    :func:`groupby_agg`), so extra levels replicate partial rows, never
    data. A NULL in a key column marks a rolled-up level, as in SQL
    ROLLUP output; a source row whose key is itself NULL keeps its own
    row beside the subtotal, as in SQL (which tells them apart only
    through ``GROUPING()``). → Dataset(keys + aliases), in no order."""
    level_sets = [keys[:i] for i in range(len(keys), -1, -1)]
    return _combine_partials(ds, keys, aggs, level_sets)


def cube_agg(ds, keys: list[str], aggs):
    """``GROUP BY CUBE(*keys)``: like :func:`rollup_agg` but every SUBSET
    of the key set gets a level (2^k levels) — still one scan and one
    bucketed combine, with 2^k copies of each block's partial rows. Same
    NULL semantics as ``rollup_agg``. Keep ``len(keys)`` small (2-4):
    2^k levels is the SQL CUBE contract, not an engine limit.
    → Dataset(keys + aliases), in no order."""
    from itertools import combinations

    level_sets = [
        list(c) for r in range(len(keys), -1, -1) for c in combinations(keys, r)
    ]
    return _combine_partials(ds, keys, aggs, level_sets)


def grouped_entropy(
    ds,
    key_col: str,
    value_col: str,
    *,
    out_col: str = "entropy",
    digits: int = 6,
):
    """Shannon entropy (natural log) of the ``value_col`` distribution
    within each ``key_col`` group — the behavioural-diversity /
    label-balance statistic (e.g. per-user event-type entropy, per-domain
    topic spread in a curriculum mix).

    Ray shape: per-batch ``(key, value) → count`` partials (polars
    group_by, so each block leaves pre-aggregated), one bucketed shuffle
    on the key (ops/shuffle.py), then each bucket merges counts and
    computes ``-Σ p·ln p`` with segmented numpy — zero per-key Python.
    NULL values count as a real category (SQL ``GROUP BY`` keeps a NULL
    value group); the entropy is rounded to ``digits`` on both engine and
    oracle sides because Σ p·ln p is order-sensitive in IEEE arithmetic.
    → Dataset(key_col, out_col:float64)."""

    def part(batch: pa.Table) -> pa.Table:
        import polars as pl

        t = (
            pl.from_arrow(batch.select([key_col, value_col]))
            .group_by([key_col, value_col])
            .agg(pl.len().cast(pl.Int64).alias("__cnt"))
            .to_arrow()
        )
        return t.cast(
            pa.schema(
                [
                    batch.schema.field(key_col),
                    batch.schema.field(value_col),
                    pa.field("__cnt", pa.int64()),
                ]
            )
        )

    def entropy_bucket(group: pa.Table) -> pa.Table:
        import polars as pl

        merged = (
            pl.from_arrow(group)
            .group_by([key_col, value_col])
            .agg(pl.col("__cnt").sum())
            .to_arrow()
        )
        # sort by (key, value) so the Σ p·ln p accumulation order is
        # deterministic run-to-run (rounding then makes it oracle-stable)
        merged = merged.take(
            pc.sort_indices(
                merged,
                sort_keys=[(key_col, "ascending"), (value_col, "ascending")],
            )
        )
        cnt = merged.column("__cnt").to_numpy(zero_copy_only=False).astype(np.float64)
        starts, ends = key_runs(merged, [key_col])
        sid = np.repeat(np.arange(len(starts)), ends - starts)
        totals = np.bincount(sid, weights=cnt)
        p = cnt / totals[sid]
        h = -np.bincount(sid, weights=p * np.log(p))
        # -0.0 from single-category groups → 0.0 for hash parity
        h = np.round(h, digits) + 0.0
        return pa.table(
            {
                key_col: merged.column(key_col).take(pa.array(starts)),
                out_col: pa.array(h, pa.float64()),
            }
        )

    parts = ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True)
    return bucketed(parts, [key_col], entropy_bucket)


def histogram_fixed(ds, col: str, lo: float, hi: float, nbins: int):
    """Fixed-width histogram: per-block ``np.bincount`` partials (one
    ``nbins`` vector per block) + a tiny driver sum — no shuffle at any
    scale. Bins are left-closed ``[lo + i·w, lo + (i+1)·w)`` with
    ``w = (hi-lo)/nbins``; rows outside ``[lo, hi)`` and NULLs are
    dropped; only non-empty bins are emitted (matching a SQL GROUP BY over
    ``floor((x-lo)/w)`` — both sides compute the same IEEE expression).
    → pandas DataFrame(bin, lo_edge, n) sorted by bin."""
    import pandas as pd

    w = (hi - lo) / nbins

    def part(batch: pa.Table) -> pa.Table:
        x = pc.cast(batch.column(col), pa.float64()).to_numpy(zero_copy_only=False)
        x = x[~np.isnan(x)]
        x = x[(x >= lo) & (x < hi)]
        bins = np.floor((x - lo) / w).astype(np.int64)
        # float edge: x just below hi can floor to exactly nbins after the
        # division — keep that bin rather than clamping, so the engine and
        # a SQL oracle computing the SAME floor expression stay identical
        counts = np.bincount(bins, minlength=nbins + 1)
        return pa.table({"__hist": [counts.tolist()]})

    parts = ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    total = np.zeros(nbins + 1, np.int64)
    for v in parts["__hist"]:
        total += np.asarray(v, np.int64)
    nz = np.nonzero(total)[0]
    return pd.DataFrame(
        {"bin": nz.astype(np.int64), "lo_edge": lo + nz * w, "n": total[nz]}
    )


def segmented_head(
    t: pa.Table, group_col: str, sort_keys, k: int, *, null_placement: str = "at_end"
) -> pa.Table:
    """Vectorized per-group top-k over ONE table: sort by
    ``(group_col, *sort_keys)``, compute each row's rank within its group
    run via a segmented arange, keep ``rank < k`` — zero per-group Python.
    Shared by top_per_group, knn_join and the per-group samplers so the
    tie-break and null-group semantics stay identical everywhere. Run
    boundaries come from dictionary codes of the sorted group column, so
    NULL group keys (any type — nullable ints included) coalesce into ONE
    run exactly like SQL ``PARTITION BY`` treats them, instead of the
    NaN-per-row splitting a raw ``to_numpy`` comparison would produce.
    ``null_placement`` orders NULL sort-key values: the default
    ``at_end`` matches SQL's default NULLS LAST for both directions
    (the null group run lands last but stays one run either way);
    ``at_start`` makes a DESCENDING pass treat NULL as the LARGEST
    value — what a reversed ASC-NULLS-LAST order (SQL ``last(x ORDER
    BY …)``) needs."""
    idx = pc.sort_indices(
        t,
        sort_keys=[(group_col, "ascending"), *sort_keys],
        null_placement=null_placement,
    )
    t = t.take(idx)
    if t.num_rows == 0:
        return t
    # dictionary codes: equal values (adjacent after the sort) share a
    # code; nulls get a null index → fill with -1 so they form one run.
    enc = t.column(group_col).combine_chunks().dictionary_encode()
    g = pc.fill_null(enc.indices, -1).to_numpy(zero_copy_only=False)
    starts = np.r_[0, np.flatnonzero(g[1:] != g[:-1]) + 1]
    rank = np.arange(len(g)) - np.repeat(starts, np.diff(np.r_[starts, len(g)]))
    return t.filter(pa.array(rank < k))


def group_first_last(
    ds,
    group_col: str,
    order_cols: list[str],
    value_cols: list[str],
):
    """Arg-extreme aggregate: for every group, the ``value_cols`` of the
    FIRST and LAST row under the deterministic total order
    ``ORDER BY *order_cols`` (include a unique id as the final order col
    so ties are stable and the op is oracle-checkable — SQL
    ``first(x ORDER BY …)`` / ``last(x ORDER BY …)``). The classic
    "user's first/last event" shape.

    Ray shape: a map-side combiner keeps ONE first and ONE last row per
    group per block (``segmented_head`` k=1, ascending and descending),
    so only 2 × |groups-per-block| tagged rows ride the one bucketed
    shuffle on the group (ops/shuffle.py); each bucket re-runs the same
    kernel over its partial rows and zips the two sides into one row per
    group — zero per-group Python anywhere. NULL group keys form one real
    group (SQL GROUP BY), courtesy of segmented_head's null-coalescing
    runs.
    → Dataset(group_col, first_<v>…, last_<v>…), one row per group."""
    keep = [group_col] + [c for c in dict.fromkeys(order_cols + value_cols)]
    asc = [(c, "ascending") for c in order_cols]
    desc = [(c, "descending") for c in order_cols]

    def local_ends(batch: pa.Table) -> pa.Table:
        t = batch.select(keep)
        firsts = segmented_head(t, group_col, asc, 1)
        # SQL last(x ORDER BY …) is the FINAL row of an ASC NULLS LAST
        # order, so a NULL order key is the LAST row, not skipped: the
        # descending pass must rank NULL as largest (at_start).
        lasts = segmented_head(t, group_col, desc, 1, null_placement="at_start")
        side = pa.chunked_array(
            [
                pa.nulls(firsts.num_rows, pa.int8()).fill_null(0),
                pa.nulls(lasts.num_rows, pa.int8()).fill_null(1),
            ]
        )
        return pa.concat_tables([firsts, lasts]).append_column("__side", side)

    def zip_bucket(g: pa.Table) -> pa.Table:
        side = g.column("__side")
        f = g.filter(pc.equal(side, pa.scalar(0, pa.int8()))).drop_columns(["__side"])
        l = g.filter(pc.equal(side, pa.scalar(1, pa.int8()))).drop_columns(["__side"])
        f = segmented_head(f, group_col, asc, 1)
        l = segmented_head(l, group_col, desc, 1, null_placement="at_start")
        # one row per group on each side, same group set — align by key
        f = f.take(pc.sort_indices(f, sort_keys=[(group_col, "ascending")]))
        l = l.take(pc.sort_indices(l, sort_keys=[(group_col, "ascending")]))
        cols = {group_col: f.column(group_col)}
        for v in value_cols:
            cols[f"first_{v}"] = f.column(v)
        for v in value_cols:
            cols[f"last_{v}"] = l.column(v)
        return pa.table(cols)

    ends = ds.map_batches(local_ends, batch_format="pyarrow", zero_copy_batch=True)
    return bucketed(ends, [group_col], zip_bucket)


def sample_per_group(ds, group_col: str, id_col: str, n: int):
    """Deterministic stratified sampling: keep the ``n`` rows per group
    with the smallest ``md5(id)`` — reproducible across runs/retries and
    oracle-checkable (unlike RNG sampling). Map-side per-group top-n
    (combiner) → one bucketed shuffle on the group (ops/shuffle.py) with
    a vectorized multi-group final selection per bucket."""
    from .hashing import md5_hex

    def add_rank_key(batch: pa.Table) -> pa.Table:
        return batch.append_column("__rk", md5_hex(batch.column(id_col)))

    def local_topn(batch: pa.Table) -> pa.Table:
        return segmented_head(batch, group_col, [("__rk", "ascending")], n)

    def final_topn(group: pa.Table) -> pa.Table:
        # a BUCKET of groups, not one group: same vectorized kernel as
        # the combiner, then drop the rank column
        return local_topn(group).drop_columns(["__rk"])

    pre = ds.map_batches(add_rank_key, batch_format="pyarrow", zero_copy_batch=True).map_batches(
        local_topn, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucketed(pre, [group_col], final_topn)


def distinct_count(ds, col: str):
    """EXACT count-distinct that never ships raw values twice: per-block
    arrow ``unique`` (combiner) → one bucketed shuffle on the value
    (ops/shuffle.py) → per-bucket vectorized unique counts → tiny sum.
    → pandas DataFrame(n_distinct). SQL oracle: ``count(DISTINCT col)``."""

    def local_unique(batch: pa.Table) -> pa.Table:
        # SQL count(DISTINCT col) ignores NULL — drop it before counting
        return pa.table({col: pc.drop_null(pc.unique(batch.column(col).combine_chunks()))})

    def bucket_count(group: pa.Table) -> pa.Table:
        n = len(pc.unique(group.column(col)))
        return pa.table({"n": pa.array([n], pa.int64())})

    uniq = ds.map_batches(local_unique, batch_format="pyarrow", zero_copy_batch=True)
    parts = bucketed(uniq, [col], bucket_count)
    import pandas as pd

    total = int(parts.to_pandas()["n"].sum())  # ≤ NUM_BUCKETS tiny rows
    return pd.DataFrame({"n_distinct": [total]})


def distinct_rows(ds, cols: list[str]):
    """EXACT ``SELECT DISTINCT cols`` that never ships a value twice:
    per-block arrow ``group_by(cols)`` dedup (combiner) → one bucketed
    shuffle on ``cols`` (ops/shuffle.py) → per-bucket vectorized dedup.
    Result stays a distributed Dataset (one row per distinct key
    combination) — the set-building primitive under anti/semi joins and
    dimension extraction."""

    def distinct(batch: pa.Table) -> pa.Table:
        return aggregate(batch.select(cols), cols, [])

    local = ds.map_batches(distinct, batch_format="pyarrow", zero_copy_batch=True)
    return bucketed(local, cols, distinct)


def _hll_ranks(h: np.ndarray, precision: int) -> tuple[np.ndarray, np.ndarray]:
    """(register index, rank) per hash — shared by the global and
    per-group HLL ops so the rank math has exactly one home."""
    idx = (h >> np.uint64(64 - precision)).astype(np.int64)
    rest = h << np.uint64(precision)  # remaining 64-p bits, top-aligned
    # rank = leading zeros of rest + 1 (capped); vectorized via log2
    nz = rest != 0
    lz = np.full(len(h), 64 - precision, dtype=np.int64)
    lz[nz] = 63 - np.floor(np.log2(rest[nz].astype(np.float64))).astype(np.int64)
    rank = np.minimum(lz + 1, 64 - precision + 1)
    return idx, rank


def _hll_estimate(regs: np.ndarray) -> np.ndarray:
    """Row-wise HLL estimate over an (n_groups, m) int8 register matrix
    (pass a (1, m) view for the global case): harmonic-mean estimator
    with linear-counting small-range correction. An all-zero register
    row estimates exactly 0 (SQL COUNT(DISTINCT) over no values)."""
    m = regs.shape[1]
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(2.0 ** (-regs.astype(np.float64)), axis=1)
    zeros = (regs == 0).sum(axis=1)
    small = (est <= 2.5 * m) & (zeros > 0)
    lin = m * np.log(m / np.where(zeros > 0, zeros, 1))
    return np.where(small, lin, est)


def _binary_matrix(col, width: int) -> np.ndarray:
    """(n, width) int8 view over a binary column whose every value is
    exactly ``width`` bytes — zero-copy from the arrow data buffer (no
    per-element Python bytes objects). Falls back to a joining copy if
    the column is sliced/offset in a way that breaks the direct view."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    if n == 0:
        return np.zeros((0, width), np.int8)
    off_dt = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
    bufs = arr.buffers()
    offsets = np.frombuffer(
        bufs[1], off_dt, count=n + 1, offset=arr.offset * np.dtype(off_dt).itemsize
    )
    start, end = int(offsets[0]), int(offsets[-1])
    if end - start == n * width and (np.diff(offsets) == width).all():
        return np.frombuffer(bufs[2], np.int8, count=n * width, offset=start).reshape(
            n, width
        )
    return np.frombuffer(b"".join(arr.to_pylist()), np.int8).reshape(n, width)


def approx_distinct_hll(ds, col: str, precision: int = 12):
    """HyperLogLog count-distinct sketch: each block builds a 2^precision
    register array (vectorized numpy), registers MERGE by elementwise max
    — a few KB per block regardless of cardinality, the shape that
    replaces exact distinct at 100 TB. Standard HLL bias correction for
    the mid range. NULL values are excluded, like SQL
    ``COUNT(DISTINCT col)``. → pandas DataFrame(n_distinct_approx)."""
    from .hashing import hash_columns

    m = 1 << precision

    def local_registers(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch.column(col)))
        regs = np.zeros(m, dtype=np.int8)
        if batch.num_rows:
            h = hash_columns(batch.select([col]), [col], seed=7)
            idx, rank = _hll_ranks(h, precision)
            np.maximum.at(regs, idx, rank.astype(np.int8))
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    parts = ds.map_batches(
        local_registers, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()  # one 4 KB row per block
    regs = np.zeros(m, dtype=np.int8)
    for blob in parts["regs"]:
        regs = np.maximum(regs, np.frombuffer(blob, dtype=np.int8))
    est = float(_hll_estimate(regs.reshape(1, m))[0])
    import pandas as pd

    return pd.DataFrame({"n_distinct_approx": [int(round(est))]})


def grouped_approx_distinct_hll(
    ds,
    group_col: str,
    col: str,
    precision: int = 12,
):
    """Per-group HyperLogLog count-distinct — the approx-distinct that
    replaces a per-key exact distinct at 100 TB (per-domain URL counts,
    per-language vocabulary sizes). Standard error ≈ 1.04/√(2^precision)
    (~1.6% at the default p=12).

    Ray shape: each block builds one register array PER GROUP PRESENT IN
    THE BLOCK in a single vectorized pass (groups dictionary-encoded,
    ``np.maximum.at`` over a flattened (group, register) index — zero
    per-group Python), emitting (group, 2^p-byte registers) rows. One
    bucketed shuffle on the group (ops/shuffle.py) co-locates each
    group's partials; per bucket the rows stack into a matrix and merge
    by segmented elementwise max (``np.maximum.reduceat``), then the
    HLL estimate (with linear-counting small-range correction) is
    computed vectorized across all groups at once. The driver never
    sees a register.

    Memory note: a block contributes ``groups_in_block × 2^p`` bytes of
    partials (4 KB/group at p=12). For very-high-cardinality group
    columns drop ``precision`` (p=10 → 1 KB/group, ~3.2% error) or use
    the exact ``distinct_rows``+count composition instead.

    → Dataset(group_col, n_distinct_approx int64), one row per group
    (NULL groups form a real group; NULL values are excluded — both
    exactly like SQL ``GROUP BY`` + ``COUNT(DISTINCT col)``, so an
    all-NULL-values group reports 0)."""
    from .hashing import hash_columns

    m = 1 << precision

    def local_registers(batch: pa.Table) -> pa.Table:
        gcol = batch.column(group_col)
        if isinstance(gcol, pa.ChunkedArray):
            gcol = gcol.combine_chunks()
        enc = gcol.dictionary_encode()
        # null group -> its own trailing slot (arrow encodes null as a
        # null INDEX, which to_numpy would float-upcast; fill first)
        has_null = enc.null_count > 0
        n_groups = len(enc.dictionary) + int(has_null)
        gi = (
            pc.fill_null(enc.indices, len(enc.dictionary))
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )

        # NULL values update no register (SQL COUNT(DISTINCT) excludes
        # them); the group itself still emits its (possibly all-zero)
        # register row, so all-NULL groups stay visible and estimate 0
        vmask = np.asarray(pc.is_valid(batch.column(col)))
        regs = np.zeros(n_groups * m, dtype=np.int8)
        if vmask.any():
            sub = batch.filter(pa.array(vmask))
            h = hash_columns(sub.select([col]), [col], seed=7)
            idx, rank = _hll_ranks(h, precision)
            np.maximum.at(regs, gi[vmask] * m + idx, rank.astype(np.int8))
        groups_out = enc.dictionary
        if has_null:
            groups_out = pa.concat_arrays(
                [groups_out, pa.nulls(1, groups_out.type)]
            )
        payload = [regs[g * m : (g + 1) * m].tobytes() for g in range(n_groups)]
        return pa.table({group_col: groups_out, "regs": pa.array(payload, pa.binary())})

    def merge_bucket(group: pa.Table) -> pa.Table:
        g = group.sort_by(group_col)  # nulls last, contiguous
        mat = _binary_matrix(g.column("regs"), m)
        starts, _ends = key_runs(g, [group_col])
        merged = np.maximum.reduceat(mat, starts, axis=0)
        est = _hll_estimate(merged)
        return pa.table(
            {
                group_col: g.column(group_col).take(pa.array(starts, pa.int64())),
                "n_distinct_approx": pa.array(
                    np.rint(est).astype(np.int64), pa.int64()
                ),
            }
        )

    regs = ds.map_batches(local_registers, batch_format="pyarrow", zero_copy_batch=True)
    return bucketed(regs, [group_col], merge_bucket)


def _q_names(qs: list[float]) -> list[str]:
    """Output column names for quantile requests: ``q<percent>`` ints when
    distinct (the oracle-facing convention), else high-resolution labels
    (``q9.5``) — two requests that rounded to the same integer percent used
    to silently overwrite each other in the output dict."""
    names = [f"q{int(round(q * 100))}" for q in qs]
    if len(set(names)) < len(names):
        names = [f"q{q * 100:g}" for q in qs]
        if len(set(names)) < len(names):
            raise ValueError(f"duplicate quantile requests: {qs}")
    return names


def exact_quantiles(ds, col: str, qs: list[float], bins: int = 8192, round_to: int = 6):
    """EXACT ``quantile_cont`` values without a global sort and without
    materializing the column: three streaming passes with tiny driver
    state —

    1. per-block (count, min, max) → driver combine;
    2. per-block fixed-width histogram over [min, max] (``bins`` × 8
       bytes per block) → driver sum locates each target order
       statistic's bin;
    3. stream ONLY the values inside the needed bins to the driver
       (bounded by the occupancy of those bins — raise ``bins`` for
       heavily skewed distributions) and interpolate exactly like SQL
       ``quantile_cont``.

    → pandas DataFrame with one ``q<percent>`` column per quantile."""
    import pandas as pd

    def stats(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        if len(v) == 0:
            return pa.table({"n": pa.array([0], pa.int64()), "lo": pa.array([np.inf]), "hi": pa.array([-np.inf])})
        return pa.table(
            {"n": pa.array([len(v)], pa.int64()), "lo": pa.array([v.min()]), "hi": pa.array([v.max()])}
        )

    qnames = _q_names(qs)
    st = ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    n = int(st.n.sum())
    if n == 0:
        return pd.DataFrame({name: [None] for name in qnames})
    lo, hi = float(st.lo.min()), float(st.hi.max())
    if lo == hi:
        return pd.DataFrame({name: [round(lo, round_to)] for name in qnames})
    width = (hi - lo) / bins

    def hist(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        idx = np.clip(((v - lo) / width).astype(np.int64), 0, bins - 1)
        counts = np.bincount(idx, minlength=bins).astype(np.int64)
        return pa.table({"h": pa.array([counts.tobytes()], pa.binary())})

    hb = ds.map_batches(hist, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    counts = np.zeros(bins, dtype=np.int64)
    for blob in hb["h"]:
        counts += np.frombuffer(blob, dtype=np.int64)
    cum = np.cumsum(counts)

    # order statistics needed for continuous interpolation
    need_ranks: set[int] = set()
    plan = []
    for q in qs:
        h = (n - 1) * q
        k0 = int(np.floor(h))
        k1 = min(k0 + 1, n - 1)
        need_ranks.update((k0, k1))
        plan.append((q, k0, k1, h - k0))
    need_bins = sorted({int(np.searchsorted(cum, k, side="right")) for k in need_ranks})

    def pick(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        idx = np.clip(((v - lo) / width).astype(np.int64), 0, bins - 1)
        keep = np.isin(idx, need_bins)
        return pa.table({col: pa.array(v[keep])})

    picked = np.sort(
        ds.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()[col]
        .to_numpy()
    )
    # ranks inside the collected bins: offset by counts below each bin
    rank_of = {}
    for k in need_ranks:
        b = int(np.searchsorted(cum, k, side="right"))
        below_collected = sum(counts[x] for x in need_bins if x < b)
        below_total = int(cum[b - 1]) if b > 0 else 0
        rank_of[k] = below_collected + (k - below_total)
    out = {}
    for name, (q, k0, k1, frac) in zip(qnames, plan):
        v0 = picked[rank_of[k0]]
        v1 = picked[rank_of[k1]]
        val = v0 + (v1 - v0) * frac
        out[name] = [float(round_half_away(np.array([val]), round_to)[0])]
    return pd.DataFrame(out)


def grouped_exact_quantiles(
    ds,
    group_col: str,
    col: str,
    qs: list[float],
    *,
    round_to: int = 6,
):
    """EXACT per-group ``quantile_cont`` at any group cardinality: one
    bucketed shuffle (ops/shuffle.py) of ~16-byte (group, value) rows on
    the group, vectorized per-group linear interpolation inside each
    bucket (polars group_by.quantile — the same (n−1)·q rule as SQL
    ``quantile_cont``). NaN canonicalizes to NULL and is skipped, like
    every SQL aggregate; an all-NULL group emits NULL quantiles. The
    driver sees nothing. Partitioning assumption: a single group's values
    fit in one bucket's memory — salt the group key upstream if one group
    dominates the corpus.
    → Dataset(group_col, q<percent>…), one row per group, in no order."""
    import polars as pl

    qcols = _q_names(qs)
    empty = _empty_result(ds, [group_col, *qcols])
    if empty is not None:
        return empty

    def emit(batch: pa.Table) -> pa.Table:
        t = batch.select([group_col, col])
        v = t.column(col)
        if pa.types.is_floating(v.type):
            v = pc.if_else(pc.is_nan(v), pa.scalar(None, v.type), v)
            t = t.set_column(t.schema.get_field_index(col), col, v)
        return t

    def per_bucket(t: pa.Table) -> pa.Table:
        aggs = [
            pl.col(col).quantile(q, interpolation="linear").alias(c)
            for q, c in zip(qs, qcols)
        ]
        out = pl.from_arrow(t).group_by(group_col).agg(aggs).to_arrow()
        cols = {group_col: out.column(group_col)}
        for c in qcols:
            vals = out.column(c).to_numpy(zero_copy_only=False).astype(np.float64)
            mask = np.isnan(vals)
            cols[c] = pa.array(round_half_away(vals, round_to), mask=mask)
        return pa.table(cols)

    rows = ds.map_batches(emit, batch_format="pyarrow", zero_copy_batch=True)
    return bucketed(rows, [group_col], per_bucket)


def topk(ds, sort_cols: list[str], descending: list[bool], k: int):
    """Global top-k without a full sort: per-block top-k, then sort+limit
    over the k×n_blocks survivors."""

    def local(batch: pa.Table) -> pa.Table:
        order = [
            (c, "descending" if d else "ascending")
            for c, d in zip(sort_cols, descending)
        ]
        idx = pc.sort_indices(batch, sort_keys=order)[:k]
        # drop pandas metadata: the sort hashes schemas and fails on its dicts
        return batch.take(idx).replace_schema_metadata()

    return (
        ds.map_batches(local, batch_format="pyarrow", zero_copy_batch=True)
        .sort(sort_cols, descending=descending)
        .limit(k)
    )


_NUM_RANGES = 256  # id ranges of ordered_prefix_sum's scan


def ordered_prefix_sum(
    ds,
    order_col: str,
    value_col: str,
    *,
    out_col: str = "prefix_sum",
):
    """Exclusive prefix sum of ``value_col`` in ``order_col`` order — the
    distributed scan primitive (sequence packing, offset assignment,
    watermarking all reduce to it).

    Ray shape (textbook two-phase scan, no global sort): fixed-width id
    ranges from one (min, max) aggregate → phase 1 computes per-range
    sums with a map-side combiner + one bucketed shuffle on the range
    (``_NUM_RANGES`` rows on the driver — independent of data size) →
    driver prefixes the range sums → offsets broadcast via ``ray.put`` →
    phase 2 streams each row once through a second bucketed shuffle on
    the range: local in-range exclusive cumsum + its range's offset.
    ``order_col`` must be unique per row (an id), making the result
    deterministic.
    """
    import ray  # noqa: F401
    from ray.data.aggregate import Max, Min

    # the scan consumes its input THREE times (bounds, per-range sums,
    # final scan); materialize it once so upstream lineage (e.g.
    # tokenization over full text) doesn't re-execute per pass — callers
    # pass a projected (order, value, …) table that is a small fraction
    # of the source, and the object store spills as needed
    ds = ds.materialize()

    lohi = ds.aggregate(Min(order_col), Max(order_col))
    lo, hi = lohi[f"min({order_col})"], lohi[f"max({order_col})"]
    width = max((int(hi) - int(lo)) // _NUM_RANGES + 1, 1)

    def add_range(batch: pa.Table) -> pa.Table:
        rng = pc.cast(
            pc.divide(pc.subtract(batch.column(order_col), pa.scalar(int(lo))), width),
            pa.int32(),
        )
        return batch.append_column("__range", rng)

    ranged = ds.map_batches(add_range, batch_format="pyarrow", zero_copy_batch=True)

    def range_sums(t: pa.Table, col: str) -> pa.Table:
        t = aggregate(t, ["__range"], [(col, "sum")])
        return pa.table({"__range": t.column(0), "__rsum": pc.fill_null(t.column(1), 0).cast(pa.int64())})

    partials = ranged.map_batches(
        lambda batch: range_sums(batch, value_col), batch_format="pyarrow", zero_copy_batch=True
    )
    sums = (
        bucketed(partials, ["__range"], lambda part: range_sums(part, "__rsum"))
        .to_pandas()
        .sort_values("__range")
    )
    offsets = np.zeros(_NUM_RANGES + 2, np.int64)
    idx = sums["__range"].to_numpy() + 1
    offsets[idx] = sums["__rsum"].to_numpy()
    np.cumsum(offsets, out=offsets)
    import ray as _ray

    off_ref = _ray.put(offsets)

    def local_scan(part: pa.Table) -> pa.Table:
        import ray as _r

        g = part.sort_by([("__range", "ascending"), (order_col, "ascending")])
        vals = g.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        pre = np.cumsum(vals) - vals
        # restart the exclusive cumsum at every range, from its offset
        starts, ends = key_runs(g, ["__range"])
        rng = g.column("__range").to_numpy()[starts]
        pre += np.repeat(_r.get(off_ref)[rng] - pre[starts], ends - starts)
        return g.drop_columns(["__range"]).append_column(
            out_col, pa.array(pre, pa.int64())
        )

    return bucketed(ranged, ["__range"], local_scan)


def pack_sequences(ds, token_col: str, id_col: str, budget: int):
    """Assign each document to a fixed-token-budget pack: pack_id =
    floor(exclusive_prefix_sum(tokens in id order) / budget) — the
    deterministic contiguous-packing rule (documents may straddle pack
    boundaries; a straddling doc belongs to the pack its first token
    falls in). One distributed scan + one vectorized divide."""

    scanned = ordered_prefix_sum(
        ds, id_col, token_col, out_col="__pre"
    )

    def assign(batch: pa.Table) -> pa.Table:
        pack = pc.cast(pc.divide(batch.column("__pre"), budget), pa.int64())
        return batch.drop_columns(["__pre"]).append_column("pack_id", pack)

    return scanned.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def top_per_group(
    ds,
    group_col: str,
    agg_key: str,
    value_col: str,
    k: int,
    *,
    agg: str = "sum",
    round_digits: int | None = None,
):
    """Top-``k`` ``agg_key`` rows per ``group_col`` by ``agg(value_col)``
    (e.g. top-3 users per event_type by total value) — the grouped-leaderboard
    pattern.

    Ray shape: one bucketed high-cardinality aggregate over (group,
    key), then a per-block top-k-per-group pre-filter and a final
    selection bucketed on the group (ops/shuffle.py) with a vectorized
    segmented-rank kernel inside.
    Ties broken by ``agg_key`` ascending for determinism; pass
    ``round_digits`` so ranking happens on the ROUNDED aggregate (float
    partial sums add in a different order than a serial oracle — ranking
    on rounded values keeps the selection oracle-stable).
    → Dataset(group_col, agg_key, alias) with alias = ``{agg}_{value_col}``."""
    alias = f"{agg}_{value_col}"
    spec = (
        (value_col, agg, alias, round_digits)
        if round_digits is not None
        else (value_col, agg, alias)
    )
    totals = groupby_agg(ds, [group_col, agg_key], [spec])

    def local_head(batch: pa.Table) -> pa.Table:
        return segmented_head(
            batch, group_col, [(alias, "descending"), (agg_key, "ascending")], k
        )

    # a BUCKET of groups: the same segmented-rank kernel applies
    pre = totals.map_batches(local_head, batch_format="pyarrow", zero_copy_batch=True)
    return bucketed(pre, [group_col], local_head)


def pivot_agg(
    ds,
    key_col: str,
    pivot_col: str,
    value_col: str,
    pivot_values: list[str],
    *,
    round_to: int = 2,
):
    """Pivot/wide aggregate: one ``n_<v>`` count and ``sum_<v>`` sum
    column per pivot value, grouped by ``key_col`` — the
    crosstab/feature-table shape. Pivot columns are materialized as
    vectorized indicator columns inside ``map_batches`` (absent
    combinations aggregate to 0, SQL ``coalesce(sum(CASE …), 0)``), then
    everything rides the map-side combiner into the bucketed groupby —
    no shuffle beyond the tiny partial rows. ``pivot_values`` is
    explicit (schema must be static); values outside the list are
    ignored. → Dataset with one row per key, in no particular order: a
    per-domain feature table over tens of millions of domains never
    lands in driver memory."""

    def widen(batch: pa.Table) -> pa.Table:
        p = batch.column(pivot_col)
        v = pc.cast(batch.column(value_col), pa.float64())
        out = batch.select([key_col])
        for val in pivot_values:
            hit = pc.equal(p, pa.scalar(val))
            out = out.append_column(
                f"__c_{val}", pc.cast(hit, pa.int64())
            ).append_column(
                f"__v_{val}",
                pc.if_else(hit, v, pa.scalar(0.0, pa.float64())),
            )
        return out

    aggs = []
    for val in pivot_values:
        aggs.append((f"__c_{val}", "sum", f"n_{val}"))
        aggs.append((f"__v_{val}", "sum", f"sum_{val}", round_to))
    wide = ds.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True)
    return groupby_agg(wide, [key_col], aggs)


def zscore_by_group(
    ds,
    group_col: str,
    value_col: str,
    *,
    out_col: str = "z",
    round_to: int = 6,
):
    """Per-group standardization: ``(x − mean_g) / stddev_pop_g`` — the
    feature-normalization transform. Group moments (sum, sum-of-squares,
    count) ride the map-side combiner into the bucketed combine and are
    looked up per row through the one broadcast-or-bucketed gate
    (``_with_group_stats``), then closed into (mean, σ) in one streaming
    pass. A NULL group key is ONE real partition (SQL parity) whose
    moments ride as driver scalars; a constant-valued group emits null
    (SQL x/0). Assumes non-null values (SQL COUNT(*) semantics in the
    denominator)."""

    def add_sq(batch: pa.Table) -> pa.Table:
        v = pc.cast(batch.column(value_col), pa.float64())
        return batch.select([group_col, value_col]).append_column(
            "__sq", pc.multiply(v, v)
        )

    stat_cols = ["__s", "__s2", "__n"]
    joined, null_row = _with_group_stats(
        ds,
        ds.map_batches(add_sq, batch_format="pyarrow", zero_copy_batch=True),
        group_col,
        [(value_col, "sum", "__s"), ("__sq", "sum", "__s2"), (value_col, "count", "__n")],
        "zscore_by_group",
    )

    def finish(batch: pa.Table) -> pa.Table:
        s, s2, n = (
            pc.fill_null(batch.column(c), 0).to_numpy(zero_copy_only=False).astype(np.float64)
            for c in stat_cols
        )
        seen = pc.is_valid(batch.column("__n")).to_numpy(zero_copy_only=False)
        if null_row is not None:
            nm = ~pc.is_valid(batch.column(group_col)).to_numpy(zero_copy_only=False)
            s, s2, n = (np.where(nm, float(null_row[c]), x) for c, x in zip(stat_cols, (s, s2, n)))
            seen = seen | nm
        # (sum, sumsq, count) → (mean, stddev_pop); n == 0 → (nan, 0)
        with np.errstate(invalid="ignore", divide="ignore"):
            mu = np.divide(s, n, out=np.full_like(s, np.nan), where=n > 0)
            var = np.maximum(np.divide(s2, n, out=np.zeros_like(s2), where=n > 0) - mu * mu, 0.0)
        sd = np.sqrt(var)
        v = batch.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        ok = seen & (sd > 0.0)
        z = np.zeros_like(v)
        np.divide(v - np.where(seen, mu, 0.0), sd, out=z, where=ok)
        # constant-valued group: SQL x/0 is NULL, never inf/nan
        return batch.append_column(
            out_col, pa.array(round_half_away(z, round_to), mask=~ok)
        ).drop_columns(stat_cols)

    return joined.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def heavy_hitters(ds, col: str, k: int):
    """Global top-``k`` values of ``col`` by row count: a
    :func:`groupby_agg` count (one bucketed shuffle of per-block partial
    counts), then :func:`topk` over the one-row-per-value counts. A NULL
    value counts as one value, as in SQL's GROUP BY.
    → Dataset(col, n) sorted by (n desc, value)."""
    empty = _empty_result(ds, [col, "n"])
    if empty is not None:
        return empty
    counts = groupby_agg(ds, [col], [(col, "count", "n")])
    return topk(counts, ["n", col], [True, False], k)


def winsorize(
    ds,
    col: str,
    p_lo: float = 0.05,
    p_hi: float = 0.95,
    *,
    bins: int = 8192,
    round_to: int = 6,
    out_col: str | None = None,
):
    """Winsorize (outlier-clip) ``col`` to its exact [``p_lo``, ``p_hi``]
    ``quantile_cont`` bounds — the standard robust-statistics
    preprocessing step before training on heavy-tailed signals.

    Ray shape: the bounds come from :func:`exact_quantiles` (three
    streaming passes, driver state = one histogram of ``bins`` int64s —
    never the column), then the clamp is an embarrassingly parallel
    per-batch arrow kernel. Nothing materializes; the corpus streams
    through once more with backpressure. The bounds are ROUNDED to
    ``round_to`` digits before clamping so the op is oracle-stable
    (SQL: ``least(greatest(col, round(quantile_cont(col, p_lo), r)),
    round(quantile_cont(col, p_hi), r))``).

    → the input Dataset with ``out_col`` (default: ``col`` replaced)
    holding the clamped float64 values; null stays null.
    """
    if not 0.0 <= p_lo <= p_hi <= 1.0:
        raise ValueError(f"need 0 <= p_lo <= p_hi <= 1, got {p_lo}, {p_hi}")
    # pass distinct requests and index POSITIONALLY — two percentiles that
    # round to the same integer percent used to collide on the q<pct>
    # column name and clamp the whole column to one constant
    ps = [p_lo] if p_lo == p_hi else [p_lo, p_hi]
    qdf = exact_quantiles(ds, col, ps, bins=bins, round_to=round_to)
    qlo = qdf.iloc[0, 0]
    qhi = qdf.iloc[0, -1]
    name = out_col or col
    if qlo is None or qhi is None:  # empty / all-null input: nothing to clamp
        qlo, qhi = -np.inf, np.inf
    qlo, qhi = float(qlo), float(qhi)

    def clamp(batch: pa.Table) -> pa.Table:
        x = pc.cast(batch.column(col), pa.float64())
        # skip_nulls=False: SQL least/greatest PROPAGATE null (the default
        # arrow behavior would clamp a null row to the bound instead)
        y = pc.min_element_wise(
            pc.max_element_wise(x, pa.scalar(qlo), skip_nulls=False),
            pa.scalar(qhi),
            skip_nulls=False,
        )
        if name in batch.schema.names:
            return batch.set_column(batch.schema.get_field_index(name), name, y)
        return batch.append_column(name, y)

    return ds.map_batches(clamp, batch_format="pyarrow", zero_copy_batch=True)


def median_abs_deviation(ds, col: str, *, bins: int = 8192, round_to: int = 6):
    """Median absolute deviation — the robust scale estimate
    (``median(|x - median(x)|)``) used for outlier gates where stddev is
    poisoned by the outliers themselves.

    Ray shape: two :func:`exact_quantiles` phases (each three streaming
    passes, driver holds one ``bins``-int64 histogram — never the
    column), with the deviation column computed by an embarrassingly
    parallel arrow kernel between them. The inner median is ROUNDED to
    ``round_to`` before the deviation pass so the op is oracle-stable
    (SQL mirror: ``quantile_cont(abs(x - round(quantile_cont(x, .5),
    r)), .5)`` — NOT DuckDB's ``mad()``, whose inner median is unrounded).

    → pandas DataFrame with one row: ``median`` and ``mad`` (both
    rounded to ``round_to``); both null on empty/all-null input.
    """
    import pandas as pd

    med = exact_quantiles(ds, col, [0.5], bins=bins, round_to=round_to)["q50"].iloc[0]
    if med is None:
        return pd.DataFrame({"median": [None], "mad": [None]})
    m = float(med)

    def absdev(batch: pa.Table) -> pa.Table:
        x = pc.cast(batch.column(col), pa.float64())
        return pa.table({"__ad": pc.abs(pc.subtract(x, pa.scalar(m)))})

    dev = ds.map_batches(absdev, batch_format="pyarrow", zero_copy_batch=True)
    mad = exact_quantiles(dev, "__ad", [0.5], bins=bins, round_to=round_to)["q50"].iloc[0]
    return pd.DataFrame({"median": [m], "mad": [mad]})


def _with_group_stats(ds, stats_input, group_col: str, stat_aggs, op: str):
    """Shared stats step of the window family (share_of_group,
    zscore_by_group, filter_vs_group_mean): per-group stats of
    ``stats_input`` from the bucketed combine (the driver sees nothing
    of them), looked up onto every row of ``ds`` through
    ``lookup_by_key`` — broadcast when the stats table fits the one
    gate's budget, joined back via ``hash_join_bucketed`` above it, so
    driver state stays bounded at any group cardinality. → (``ds`` with
    the stat columns, the NULL-key group's stats row or None). The
    NULL-key group (SQL GROUP BY keeps one) rides as that driver-held
    row: the lookup reads null for a NULL key on both paths, so callers
    resolve the NULL partition from it."""
    from .joins import lookup_by_key

    stats_ds = groupby_agg(
        stats_input, [group_col], stat_aggs
    ).materialize()

    def only_null(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_null(b.column(group_col)))

    null_stats = stats_ds.map_batches(
        only_null, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    joined = lookup_by_key(
        ds, stats_ds, on=group_col, cols=[a[2] for a in stat_aggs],
        op=op,
    )
    return joined, None if null_stats.empty else null_stats.iloc[0]


def share_of_group(
    ds,
    group_col: str,
    value_col: str,
    *,
    out_col: str = "share",
    round_to: int = 6,
):
    """Ratio-to-report: each row's ``value / sum(value) OVER (PARTITION
    BY group)`` — the per-domain/per-source contribution transform
    (corpus-mix reporting, per-type traffic shares).

    Ray shape: group sums ride the map-side combiner into the bucketed
    combine (one tiny partial per block, one bounded shuffle of partial
    rows) and are looked up per row through the one broadcast-or-bucketed
    gate (``_with_group_stats``); a streaming pass divides. Null values
    and groups absent from the stats pass emit null; a zero-sum group
    emits null (SQL x/0). A NULL group key is ONE real partition (SQL
    parity) whose sum rides as a driver scalar. Rounded on both sides:
    the parallel partial sums reorder float additions vs the oracle's
    serial windowed sum."""
    joined, null_row = _with_group_stats(
        ds, ds, group_col, [(value_col, "sum", "__s")], "share_of_group"
    )

    def finish(batch: pa.Table) -> pa.Table:
        sarr = batch.column("__s")
        seen = pc.is_valid(sarr).to_numpy(zero_copy_only=False)
        denom = pc.fill_null(sarr, 0.0).to_numpy(zero_copy_only=False).astype(np.float64)
        varr = batch.column(value_col)
        v = pc.cast(varr, pa.float64()).to_numpy(zero_copy_only=False)
        if null_row is not None:
            nm = ~pc.is_valid(batch.column(group_col)).to_numpy(zero_copy_only=False)
            denom = np.where(nm, float(null_row["__s"]), denom)
            seen = seen | nm
        ok = seen & (denom != 0.0) & pc.is_valid(varr).to_numpy(zero_copy_only=False)
        share = np.zeros_like(v)
        np.divide(v, denom, out=share, where=ok)
        return batch.append_column(
            out_col, pa.array(round_half_away(share, round_to), mask=~ok)
        ).drop_columns(["__s"])

    return joined.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


_CMP_FNS = {"lt": np.less, "le": np.less_equal, "gt": np.greater, "ge": np.greater_equal}


def filter_vs_group_mean(
    ds,
    group_col: str,
    value_col: str,
    *,
    mult_num: int = 1,
    mult_den: int = 1,
    cmp: str = "lt",
):
    """Correlated-subquery filter: keep rows where ``value <cmp>
    (mult_num/mult_den) · avg(value) OVER (PARTITION BY group)`` — the
    TPC-H Q17 shape (``l_quantity < 0.2 * avg(l_quantity) per part``),
    and the per-group outlier/band filter of corpus curation ("drop docs
    shorter than half their language's mean length").

    The comparison is evaluated in cross-multiplied form,
    ``v · mult_den · n  <cmp>  mult_num · s`` (``s``/``n`` the group's
    sum and COUNT(*)), never as a division: for integral values all four
    operands are exact integers in float64 (below 2^53), so row
    membership is EXACT and independent of partial-sum addition order —
    no boundary-flip risk against a serial SQL oracle. For fractional
    values the sum's addition order can differ from SQL's by ulps;
    membership of rows within an ulp of the threshold is then
    order-dependent (document-level curation tolerates this; exact
    parity needs integral values). Requires ``mult_den > 0``.

    Ray shape: group (sum, count) partials ride the map-side combiner
    into the bucketed combine and are looked up per row through the one
    broadcast-or-bucketed gate (``_with_group_stats``, as in
    share_of_group); a streaming pass filters. A NULL group key is ONE
    real partition (window-function SQL parity) riding as driver
    scalars. NULL values never pass (SQL: NULL <cmp> x is
    not TRUE). Assumes non-null values inside the mean (COUNT(*)
    denominator — SQL parity via ``sum(v) OVER w / count(*) OVER w``)."""
    if cmp not in _CMP_FNS:
        raise ValueError(f"cmp must be one of {sorted(_CMP_FNS)}, got {cmp!r}")
    if mult_den <= 0:
        raise ValueError("mult_den must be positive")
    cmp_fn = _CMP_FNS[cmp]

    joined, null_row = _with_group_stats(
        ds,
        ds,
        group_col,
        [(value_col, "sum", "__s"), (value_col, "count", "__n")],
        "filter_vs_group_mean",
    )

    def finish(batch: pa.Table) -> pa.Table:
        narr = batch.column("__n")
        seen = pc.is_valid(narr).to_numpy(zero_copy_only=False)
        n = pc.fill_null(narr, 0).to_numpy(zero_copy_only=False).astype(np.float64)
        s = pc.fill_null(batch.column("__s"), 0.0).to_numpy(zero_copy_only=False).astype(np.float64)
        varr = batch.column(value_col)
        v = pc.cast(varr, pa.float64()).to_numpy(zero_copy_only=False)
        if null_row is not None:
            nm = ~pc.is_valid(batch.column(group_col)).to_numpy(zero_copy_only=False)
            s = np.where(nm, float(null_row["__s"]), s)
            n = np.where(nm, float(null_row["__n"]), n)
            seen = seen | nm
        ok = seen & pc.is_valid(varr).to_numpy(zero_copy_only=False)
        keep = np.zeros(len(v), dtype=bool)
        np.copyto(
            keep,
            cmp_fn(np.where(ok, v, 0.0) * (mult_den * n), mult_num * s),
            where=ok,
        )
        return batch.filter(pa.array(keep)).drop_columns(["__s", "__n"])

    return joined.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
