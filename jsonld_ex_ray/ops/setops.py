"""Distributed SQL set operations (UNION / INTERSECT / EXCEPT, distinct
semantics) as ONE bounded shuffle.

Reference parity: the reference engine exposes set semantics only through
its triple-set dedup (lib/json/ld/flattening.ex merges node maps
set-wise); generic dataset INTERSECT/EXCEPT is part of the
training-data-pipeline surface this engine adds on top.

Shape at scale: each side is reduced to per-block DISTINCT rows inside
``map_batches`` (combiner — duplicate values never leave the block), both
sides meet in the several-input ``ops/shuffle.bucketed``, routed by a
version-stable hash of the VALUE columns, and each bucket resolves
membership from its two side tables with the vectorized arrow semi/anti
join. Nothing lands on the driver; the result stays a
distributed Dataset. Duplicate-preserving INTERSECT ALL is out of scope
(SQL's multiset semantics need per-value counts — ``groupby_agg``
covers that shape if ever needed).
"""

from __future__ import annotations

import pyarrow as pa

from .shuffle import aggregate, bucketed


def set_op(
    left_ds,
    right_ds,
    *,
    left_cols: list[str],
    right_cols: list[str] | None = None,
    op: str = "intersect",
):
    """``op``: ``union`` | ``intersect`` | ``except``. Output columns
    carry the LEFT side's names (SQL convention: the first SELECT names
    the result). ``right_cols`` defaults to ``left_cols`` (same names on
    both sides); the right side's values are cast to the left side's
    types inside each bucket. ``union`` is SQL UNION (distinct): both
    sides ride the same per-block-distinct combiner and value-hash
    shuffle, and each bucket resolves to one arrow hash-distinct over the
    concatenated side tables — no join probe at all, and NULL rows
    collapse to one because ``shuffle.aggregate`` keeps one group per
    NULL key."""
    if op not in ("union", "intersect", "except"):
        raise ValueError(f"op must be union|intersect|except, got {op!r}")
    right_cols = right_cols or left_cols
    if len(right_cols) != len(left_cols):
        raise ValueError("left_cols and right_cols must have equal length")

    def side(ds, cols: list[str]):
        # per-block DISTINCT (combiner), renamed to the result's names
        def prep(batch: pa.Table) -> pa.Table:
            return aggregate(batch.select(cols), cols, []).rename_columns(left_cols)

        return ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True), left_cols

    def resolve(left: pa.Table, right: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        def fill_value(typ):
            if pa.types.is_string(typ) or pa.types.is_large_string(typ):
                return ""
            if pa.types.is_binary(typ) or pa.types.is_large_binary(typ):
                return b""
            if pa.types.is_boolean(typ):
                return False
            return 0

        def null_safe(t: pa.Table):
            # SQL set ops treat NULL as equal to NULL (IS NOT DISTINCT
            # FROM), but the arrow hash join never matches null keys —
            # join instead on (null-filled shadow, validity flag) pairs,
            # which are never null and distinguish a filled NULL from a
            # genuine sentinel value.
            keys = []
            for i, c in enumerate(left_cols):
                col = t.column(c)
                typ = col.type
                t = t.append_column(
                    f"__k{i}", pc.fill_null(col, pa.scalar(fill_value(typ), typ))
                ).append_column(f"__v{i}", pc.is_valid(col))
                keys += [f"__k{i}", f"__v{i}"]
            return t, keys

        right = right.cast(left.schema)
        if op == "union":
            return aggregate(pa.concat_tables([left, right]), left_cols, [])

        # per-block distinct can still collide across blocks of one side
        left = aggregate(left, left_cols, [])
        right = aggregate(right, left_cols, [])
        join_type = "left semi" if op == "intersect" else "left anti"
        if right.num_rows == 0:
            return left.schema.empty_table() if op == "intersect" else left
        left_e, keys = null_safe(left)
        right_e, _ = null_safe(right)
        out = left_e.join(right_e.select(keys), keys=keys, join_type=join_type)
        return out.select(left_cols)

    sides = [side(left_ds, left_cols), side(right_ds, right_cols)]
    return bucketed(sides, None, resolve)
