"""Join operators Ray Data lacks: equi-join, as-of join, range join —
and the ONE gate that decides between broadcasting a side and shuffling
both sides.

The gate, :func:`broadcast_side`: materialize the side, read its Arrow
size from the block metadata, and compare it with one budget,
``_BROADCAST_MAX_BYTES``. At or below it the side is collected and
shipped once via ``ray.put`` — zero corpus shuffle; above it the caller
takes its bucketed path. Every decision is logged as one structured
event on logger ``jsonld_ex_ray.gate`` (op, side rows, side bytes,
budget, path), so a run can say which side of each gate it took. The
keyed ops built on it — :func:`filter_by_keys` (semi / anti) and
:func:`lookup_by_key` (left lookup) — give the same rows on both paths.

The bucketed shape: both sides go to the several-input
``ops/shuffle.bucketed``, each routed on its join key; one bounded
shuffle co-locates matching keys and hands each bucket's merge one
table per side — a vectorized ``pyarrow.Table.join`` /
``pandas.merge_asof``. ``ops/shuffle.py`` alone sizes the buckets and
reduce partitions. Partitioning assumption: the largest single bucket
(both sides) fits in a worker's heap; heavily skewed equi-join keys
should be pre-salted by the caller.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.state import worker_state
from .shuffle import arrow_schema, bucketed

# the one broadcast budget: a side whose Arrow size is at most this many
# bytes ships once to every worker (16 MiB = 2M int64 keys)
_BROADCAST_MAX_BYTES = 16 << 20

_log = logging.getLogger("jsonld_ex_ray.gate")


def _normalize_key_type(t: pa.DataType) -> pa.DataType:
    """Widen key columns to canonical types before hashing: the two join
    sides may carry different physical types for the same logical key
    (int32 vs int64, timestamp units) and a raw-dtype hash would bucket
    them differently — silently dropping matches."""
    if pa.types.is_integer(t):
        return pa.int64()
    if pa.types.is_floating(t):
        return pa.float64()
    if pa.types.is_timestamp(t):
        return pa.timestamp("us")
    return t


def _narrow(schema: pa.Schema, names: list[str]) -> pa.Schema:
    return pa.schema([schema.field(n) for n in names])


def _cast_cols(tbl: pa.Table, types: dict) -> pa.Table:
    for name, t in types.items():
        tbl = tbl.set_column(tbl.schema.get_field_index(name), name, tbl.column(name).cast(t))
    return tbl


def _empty_join(left: pa.Table, right: pa.Table, names: list[str]) -> pa.Table:
    """No rows; ``names`` typed as in ``left``, else as in ``right``."""
    types = dict(zip(right.column_names, right.schema.types))
    types.update(zip(left.column_names, left.schema.types))
    return pa.schema([(c, types[c]) for c in names]).empty_table()


def hash_join_bucketed(
    left_ds,
    right_ds,
    *,
    left_on: str,
    right_on: str,
    right_cols: list[str],
    join_type: str = "inner",
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
):
    """Two-large-sides equi-join: bucket both datasets by the hashed join
    key, join inside each bucket with the vectorized arrow hash join.
    → Dataset(left columns + right_cols).

    ``join_type``: ``inner`` | ``left`` (outer) | ``semi`` | ``anti``.
    The semi/anti modes are the EXACT two-large-sides filter joins that
    ``filter_by_keys`` takes when the key side is over the broadcast
    budget; their output carries left columns only.

    Pass ``left_schema``/``right_schema`` when the caller knows them:
    ``Dataset.schema()`` on a lazy input triggers execution of its plan,
    which iterative callers (connected_components, pagerank) would pay
    once per loop step."""
    right_schema = arrow_schema(right_ds, right_schema)
    right_keep = [right_on] + [c for c in right_cols if c != right_on]
    filter_join = join_type in ("semi", "anti")
    arrow_join = {
        "left": "left outer",
        "full": "full outer",
        "semi": "left semi",
        "anti": "left anti",
    }.get(join_type, join_type)

    def join_bucket(left_tbl: pa.Table, right_tbl: pa.Table) -> pa.Table:
        left_names = left_tbl.column_names
        out_cols = left_names if filter_join else left_names + [c for c in right_cols if c not in left_names]
        # arrow's hash join requires identical key types on both sides
        kt = _normalize_key_type(left_tbl.schema.field(left_on).type)
        left_tbl = _cast_cols(left_tbl, {left_on: kt})
        right_tbl = _cast_cols(right_tbl, {right_on: kt})
        if left_tbl.num_rows == 0 and join_type != "full":
            # full outer must NOT early-return here: arrow's full outer
            # join of an empty left correctly emits the right-only rows
            # (null left columns, key coalesced into left_on)
            return _empty_join(left_tbl, right_tbl, out_cols)
        joined = left_tbl.join(
            right_tbl,
            keys=[left_on],
            right_keys=[right_on],
            join_type=arrow_join,
            # full outer coalesces the key columns into left_on, so
            # right-unmatched rows carry their key there (SQL's
            # COALESCE(l.k, r.k) projection)
            coalesce_keys=True,
        )
        return joined.select(out_cols)

    sides = [
        (left_ds, [left_on], left_schema),
        (right_ds, [right_on], _narrow(right_schema, right_keep)),
    ]
    return bucketed(sides, None, join_bucket)


def asof_join_bucketed(
    left_ds,
    right_ds,
    *,
    on: str,
    by: str,
    right_value_cols: list[str],
    allow_exact_matches: bool = False,
    direction: str = "backward",
):
    """Two-large-sides as-of join. Both sides bucket on ``hash(by)`` so
    every ``by`` group lands whole in exactly one bucket; the per-bucket
    merge is a vectorized ``pandas.merge_asof``. → Dataset(left columns +
    right_value_cols)."""
    import pandas as pd

    right_keep = [by, on] + [c for c in right_value_cols if c not in (by, on)]

    def merge_bucket(left_tbl: pa.Table, right_tbl: pa.Table) -> pa.Table:
        left_names = left_tbl.column_names
        out_cols = left_names + [c for c in right_value_cols if c not in left_names]
        if left_tbl.num_rows == 0:
            return _empty_join(left_tbl, right_tbl, out_cols)
        # merge_asof needs the right side's keys in the left side's types
        right_tbl = _cast_cols(right_tbl, {c: left_tbl.schema.field(c).type for c in (by, on)})
        merged = pd.merge_asof(
            left_tbl.to_pandas().sort_values(on),
            right_tbl.to_pandas().sort_values(on),
            on=on,
            by=by,
            direction=direction,
            allow_exact_matches=allow_exact_matches,
            suffixes=("", "_right"),
        )
        return pa.Table.from_pandas(merged[out_cols], preserve_index=False).replace_schema_metadata()

    sides = [(left_ds, [by]), (right_ds, [by], _narrow(arrow_schema(right_ds), right_keep))]
    return bucketed(sides, None, merge_bucket)


def range_join_broadcast(
    left_ds,
    bands: list[tuple[float, float, str]],
    *,
    value_col: str,
    label_col: str = "band",
):
    """Range join against non-overlapping sorted [lo, hi) bands: broadcast
    the band table and assign per batch via ``numpy.searchsorted`` —
    O(log B) per row, fully vectorized, no shuffle. Rows outside every
    band get null."""
    bands = sorted(bands)
    lows = np.asarray([b[0] for b in bands], dtype=np.float64)
    highs = np.asarray([b[1] for b in bands], dtype=np.float64)
    labels = np.asarray([b[2] for b in bands], dtype=object)

    def assign(batch: pa.Table) -> pa.Table:
        vals = batch.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        idx = np.searchsorted(lows, vals, side="right") - 1
        safe = np.clip(idx, 0, len(bands) - 1)
        hit = (idx >= 0) & (vals < highs[safe])
        out = np.where(hit, labels[safe], None)
        return batch.append_column(label_col, pa.array(out.tolist(), pa.string()))

    return left_ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def broadcast_side(op: str, side_ds) -> pa.Table | None:
    """THE broadcast-or-bucketed decision. Materializes ``side_ds``,
    reads its Arrow size from the block metadata, and logs one event on
    logger ``jsonld_ex_ray.gate`` — ``record.gate`` holds ``op``,
    ``side_rows``, ``side_bytes``, ``budget`` and ``path``
    (``broadcast`` | ``bucketed``). → the collected side table when it
    fits ``_BROADCAST_MAX_BYTES``, else None (take the bucketed path).
    Pass an already-materialized side when the bucketed path reuses it:
    materializing it again is free."""
    import ray

    side = side_ds.materialize()
    nbytes = side.size_bytes() or 0
    event = {
        "op": op,
        "side_rows": side.count(),
        "side_bytes": nbytes,
        "budget": _BROADCAST_MAX_BYTES,
        "path": "broadcast" if nbytes <= _BROADCAST_MAX_BYTES else "bucketed",
    }
    _log.info(
        "%(op)s: %(path)s (side %(side_rows)d rows, %(side_bytes)d bytes, budget %(budget)d)",
        event,
        extra={"gate": event},
    )
    if event["path"] == "bucketed":
        return None
    tables = [t for t in ray.get(side.to_arrow_refs()) if t.num_rows]
    # an empty side may have no schema at all: callers check num_rows
    return pa.concat_tables(tables) if tables else pa.table({})


def filter_by_keys(
    ds,
    keys_ds,
    *,
    on: str,
    keys_on: str,
    anti: bool = False,
    op: str = "filter_by_keys",
):
    """Keep the rows of ``ds`` whose ``on`` value is (semi) or is NOT
    (``anti=True``, SQL ``NOT EXISTS``) among ``keys_ds[keys_on]``.

    Through :func:`broadcast_side`: a key set within budget is
    de-duplicated, shipped once, and each batch filters with one
    vectorized ``is_in`` — ``ds`` never shuffles; a larger key set runs
    the exact ``hash_join_bucketed`` semi/anti join. The key set is
    exact on both paths (a Bloom filter cannot serve anti semantics:
    false positives would drop valid rows). NULLs follow SQL: a NULL key
    matches nothing, so a NULL ``on`` row survives anti and is dropped
    by semi. An empty key set keeps everything (anti) or nothing (semi).
    """
    import ray

    keys_ds = keys_ds.select_columns([keys_on]).materialize()
    side = broadcast_side(op, keys_ds)
    if side is None:
        return hash_join_bucketed(
            ds,
            keys_ds,
            left_on=on,
            right_on=keys_on,
            right_cols=[],
            join_type="anti" if anti else "semi",
        )
    if side.num_rows == 0:
        return ds if anti else ds.limit(0)
    ref = ray.put(pc.drop_null(pc.unique(side.column(keys_on).combine_chunks())))

    def keep(batch: pa.Table) -> pa.Table:
        # is_in never returns NULL: a NULL row reads False (no match)
        hit = pc.is_in(batch.column(on), value_set=ray.get(ref))
        return batch.filter(pc.invert(hit) if anti else hit)

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def lookup_by_key(
    ds,
    side_ds,
    *,
    on: str,
    cols: list[str],
    op: str = "lookup_by_key",
):
    """Left lookup: append ``side_ds``'s ``cols`` to every row of ``ds``
    by equal ``on`` (side keys unique). A missing or NULL key reads null
    in every looked-up column, on both paths.

    Through :func:`broadcast_side`: a side within budget is shipped once
    and each worker builds its key index once (``stages/state.py``), so
    every batch costs one ``get_indexer`` + one ``take`` per column and
    ``ds`` never shuffles (row order kept); a larger side runs
    ``hash_join_bucketed(join_type="left")``."""
    import pandas as pd
    import ray

    side_ds = side_ds.select_columns([on, *cols]).materialize()
    side = broadcast_side(op, side_ds)
    if side is None:
        return hash_join_bucketed(
            ds, side_ds, left_on=on, right_on=on, right_cols=cols,
            join_type="left",
        )
    if side.num_rows == 0:
        side = pa.table({c: pa.nulls(0) for c in [on, *cols]})
    ref = ray.put(side.filter(pc.is_valid(side.column(on))))

    def build():
        tbl = ray.get(ref)
        return pd.Index(tbl.column(on).to_numpy(zero_copy_only=False)), tbl

    def probe(batch: pa.Table) -> pa.Table:
        index, tbl = worker_state("lookup_by_key", ref, build)
        gi = index.get_indexer(batch.column(on).to_numpy(zero_copy_only=False))
        idx = pa.array(gi, mask=gi < 0)
        for c in cols:
            batch = batch.append_column(c, tbl.column(c).take(idx))
        return batch

    return ds.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)


def interval_join_banded(
    left_ds,
    right_ds,
    *,
    left_val: str,
    right_lo: str,
    right_hi: str,
    right_cols: list[str],
    band_width: float,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
):
    """Interval join with OVERLAPPING intervals and two LARGE sides:
    emit (left row, right row) for every ``left.val BETWEEN right.lo AND
    right.hi`` (inclusive, SQL ``BETWEEN``). This is the join class the
    broadcast band assigner (``range_join_broadcast``) cannot serve:
    intervals may overlap arbitrarily and the interval table may not fit
    in worker memory.

    Ray shape (banded replication — the standard distributed interval
    join): the value domain is cut into fixed bands of ``band_width``;
    a left row goes to the ONE band containing its value, a right
    interval is replicated to EVERY band it overlaps, and both banded
    sides are bucketed on ``band`` — one bounded
    shuffle, no global sort. Each (row, interval) pair meets in exactly
    one band (the row's), so no output dedup pass is needed. Inside a
    bucket the match is vectorized: left rows are sorted by band once,
    each interval probes its band's slice via ``searchsorted`` and a
    numpy range mask.

    Partitioning assumptions (document per call site): ``band_width``
    should be on the order of the median interval width — much smaller
    and wide intervals replicate to many bands; much larger and a band
    degenerates toward a cross join. Null or non-finite values / null,
    non-finite or inverted bounds never match (SQL BETWEEN semantics for
    NULL; ±inf has no band) and are dropped at the tag step. Left and
    right column names must be disjoint.

    → Dataset(left columns + [right_lo, right_hi] + right_cols).
    """
    if band_width <= 0:
        raise ValueError(f"band_width must be positive, got {band_width}")
    left_schema = arrow_schema(left_ds, left_schema)
    right_schema = arrow_schema(right_ds, right_schema)
    left_names = list(left_schema.names)
    right_keep = [right_lo, right_hi] + [
        c for c in right_cols if c not in (right_lo, right_hi)
    ]
    clash = set(left_names) & set(right_keep)
    if clash:
        raise ValueError(f"left/right column names must be disjoint, both have {sorted(clash)}")
    left_side = _narrow(left_schema, left_names)
    right_side = _narrow(right_schema, right_keep)
    out_schema = pa.schema([*left_side, *right_side])
    band = pa.field("__band", pa.int64())
    w = float(band_width)

    def tag_left(batch: pa.Table) -> pa.Table:
        v = batch.column(left_val).to_numpy(zero_copy_only=False).astype(np.float64)
        # non-finite values have no band (int64 cast of ±inf is UB);
        # like SQL NULL they never match — documented contract
        keep = np.isfinite(v)
        if not keep.all():
            batch = batch.filter(pa.array(keep))
            v = v[keep]
        return batch.append_column(band, pa.array(np.floor(v / w).astype(np.int64)))

    def expand_right(batch: pa.Table) -> pa.Table:
        lo = batch.column(right_lo).to_numpy(zero_copy_only=False).astype(np.float64)
        hi = batch.column(right_hi).to_numpy(zero_copy_only=False).astype(np.float64)
        keep = np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)
        if not keep.all():
            batch = batch.filter(pa.array(keep))
            lo, hi = lo[keep], hi[keep]
        blo = np.floor(lo / w).astype(np.int64)
        bhi = np.floor(hi / w).astype(np.int64)
        reps = bhi - blo + 1
        if len(reps) and int(reps.max()) > 100_000:
            # replication safety valve: a single interval spanning 100k+
            # bands means band_width is catastrophically mis-sized for
            # this interval distribution — fail loudly instead of
            # materializing millions of copies
            raise ValueError(
                f"interval spans {int(reps.max())} bands (band_width={w}); "
                "choose band_width on the order of the median interval width"
            )
        idx = np.repeat(np.arange(len(blo), dtype=np.int64), reps)
        total = int(reps.sum())
        starts = np.r_[np.int64(0), np.cumsum(reps)[:-1]] if len(reps) else reps
        bands = np.arange(total, dtype=np.int64) - np.repeat(starts, reps) + np.repeat(blo, reps)
        out = batch.select(right_keep).take(pa.array(idx, pa.int64()))
        return out.append_column(band, pa.array(bands, pa.int64()))

    def join_bucket(left_tbl: pa.Table, right_tbl: pa.Table) -> pa.Table:
        if left_tbl.num_rows == 0 or right_tbl.num_rows == 0:
            return out_schema.empty_table()
        v = left_tbl.column(left_val).to_numpy(zero_copy_only=False).astype(np.float64)
        lband = left_tbl.column("__band").to_numpy(zero_copy_only=False)
        order = np.argsort(lband, kind="stable")
        lband_sorted = lband[order]
        v_sorted = v[order]
        lo = right_tbl.column(right_lo).to_numpy(zero_copy_only=False).astype(np.float64)
        hi = right_tbl.column(right_hi).to_numpy(zero_copy_only=False).astype(np.float64)
        rband = right_tbl.column("__band").to_numpy(zero_copy_only=False)
        # fully vectorized probe: ONE batched searchsorted locates every
        # interval's band slice, then the candidate (row, interval) pairs
        # are repeat-expanded and masked in bulk — no per-interval Python.
        # Chunked by a candidate budget so a hot band (many rows × many
        # intervals) expands at most ~8M index pairs at a time.
        s_all = np.searchsorted(lband_sorted, rband, side="left")
        e_all = np.searchsorted(lband_sorted, rband, side="right")
        cnt = e_all - s_all
        nz = np.flatnonzero(cnt)
        if nz.size == 0:
            return out_schema.empty_table()
        budget = 8_000_000
        csum = np.cumsum(cnt[nz])
        total_all = int(csum[-1])
        if total_all <= budget:
            bounds = [0, nz.size]
        else:
            targets = np.arange(budget, total_all, budget, dtype=np.int64)
            cuts = np.searchsorted(csum, targets, side="left") + 1
            bounds = np.unique(np.r_[0, cuts, nz.size]).tolist()
        li, ri = [], []
        for b0, b1 in zip(bounds[:-1], bounds[1:]):
            ivs = nz[b0:b1]
            c = cnt[ivs]
            total = int(c.sum())
            ridx_exp = np.repeat(ivs, c)
            starts = np.r_[np.int64(0), np.cumsum(c)[:-1]]
            pos = np.arange(total, dtype=np.int64) - np.repeat(starts, c) + np.repeat(s_all[ivs], c)
            m = (v_sorted[pos] >= lo[ridx_exp]) & (v_sorted[pos] <= hi[ridx_exp])
            if m.any():
                li.append(order[pos[m]])
                ri.append(ridx_exp[m])
        if not li:
            return out_schema.empty_table()
        lidx = pa.array(np.concatenate(li), pa.int64())
        ridx = pa.array(np.concatenate(ri), pa.int64())
        lt = left_tbl.select(left_names).take(lidx)
        rt = right_tbl.select(right_keep).take(ridx)
        return pa.Table.from_arrays([*lt.columns, *rt.columns], schema=out_schema)

    sides = [
        (left_ds.map_batches(tag_left, batch_format="pyarrow", zero_copy_batch=True), ["__band"], left_side.append(band)),
        (right_ds.map_batches(expand_right, batch_format="pyarrow", zero_copy_batch=True), ["__band"], right_side.append(band)),
    ]
    return bucketed(sides, None, join_bucket)
