"""The one bucketed shuffle every keyed op runs on, with one input or
several.

Shape: route each row to ``hash(keys) % NUM_BUCKETS`` with the
version-stable :func:`~jsonld_ex_ray.ops.hashing.bucket_ids` (identical
on every worker of a mixed-version cluster), run ONE bounded shuffle on
the bucket id, and let the op loop its keys inside each bucket with
vectorized kernels. The group count is ``NUM_BUCKETS``, never
the key cardinality: a ``map_groups`` call per distinct key (per
document, per user, per triple) is the anti-pattern at corpus scale.
Routing decides only WHERE a row goes — ops decide identity by the key
values themselves, so a hash collision merely co-locates two keys.

Layout: this module alone decides it, so no op takes a bucket, shard
or block count and the blocks follow the machines: the constant
:data:`NUM_BUCKETS` and P = :func:`partitions`, from the Ray CPUs.

Engine: Ray's sort-based shuffle on the bucket id with EXPLICIT
boundaries. Bucket ids are known to lie in ``[0, NUM_BUCKETS)``, so
there is no sample wave: the ids are cut into P contiguous ranges, and
ONE reduce wave of P tasks merges each range and calls ``fn`` once per
bucket in the same task. The trade: a reduce partition holds about 1/P
of the shuffled bytes, where a sampled sort held about 1/(input
blocks), never less than one bucket's 1/NUM_BUCKETS. With
``NUM_BUCKETS`` CPUs or more nothing changes; on a small cluster fed
many input blocks each partition is larger, and its reduce task peaks
higher. ``HASH_SHUFFLE`` (Ray 2.49, ``repartition(keys=…)``) did not
finish the canonicalize → dedup → materialize chain at 1 or 2 Ray CPUs
where the sort shuffle took 13–15 s.

Chunk policy: ``fn`` receives each bucket as ONE contiguous table per
input without the routing column, and each reduce task returns its
buckets' outputs as one combined block. An op that concatenates
one slice per key (per document, per graph) therefore cannot hand
downstream stages one Arrow chunk per key: chunks are bounded by
blocks.

Several inputs (joins, set ops, span cutting): pass a list of sides,
each ``(dataset, keys)`` or ``(dataset, keys, schema)``. Every side is
routed on its own key columns with the same ``bucket_ids`` seed — key
types are canonicalized in the hash, so int32 meets int64 and NULL
meets NULL — and ``fn(*tables)`` receives one table per side, in input
order, holding only that side's own columns with its own types (empty
when the bucket holds none of its rows). A side's schema names the
columns it carries; pass it when known, because ``Dataset.schema()``
executes part of a lazy plan. Inside, the sides travel as one union
padded to a shared schema with a side tag; callers never see either.

A map-side combine or any per-side preparation stays an ordinary
``map_batches`` placed before :func:`bucketed`; Ray fuses it with the
routing step into one task.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .hashing import bucket_ids

_BUCKET = "__bucket"
_SIDE = "__side"

NUM_BUCKETS = 64


def partitions() -> int:
    """P, the reduce tasks of one shuffle and the block count the graph
    loops keep: ``min(NUM_BUCKETS, the cluster's Ray CPUs)``, the signal
    Ray itself uses to size read parallelism."""
    import ray

    return max(1, min(NUM_BUCKETS, int(ray.cluster_resources().get("CPU", 1))))


def bucketed(ds, keys: list[str] | None, fn: Callable[..., pa.Table]):
    """Apply ``fn`` to every bucket of ``ds`` routed on ``keys``: all rows
    sharing a key value reach the same ``fn`` call, together with the
    other keys of their bucket. → Dataset of ``fn``'s outputs.

    Several inputs: ``ds`` is a list of sides ``(dataset, keys)`` or
    ``(dataset, keys, schema)`` and ``keys`` is None; the rows of every
    side sharing a key value reach the same ``fn(*tables)`` call."""
    # read on the driver: the closures below carry it to the workers
    num_buckets = NUM_BUCKETS
    if keys is not None:

        def route(batch: pa.Table) -> pa.Table:
            # drop pandas metadata: the sort hashes schemas and fails on its dicts
            batch = batch.replace_schema_metadata()
            return batch.append_column(_BUCKET, bucket_ids(batch, keys, num_buckets))

        routed = ds.map_batches(route, batch_format="pyarrow", zero_copy_batch=True)

        def call(group: pa.Table) -> pa.Table:
            return fn(group.drop_columns([_BUCKET]))

    else:
        sides = [(d, k, arrow_schema(d, *schema)) for d, k, *schema in ds]
        # one slot per (side, column), named apart so equal names on two
        # sides never meet; a row fills its own side's slots, NULL elsewhere
        slots = [(i, f) for i, (_, _, sch) in enumerate(sides) for f in sch]
        union = pa.schema(
            [pa.field(f"__{n}", f.type) for n, (_, f) in enumerate(slots)]
            + [pa.field(_SIDE, pa.int8()), pa.field(_BUCKET, pa.int32())]
        )

        def router(side: int, side_keys: list[str]):
            def route(batch: pa.Table) -> pa.Table:
                n = batch.num_rows
                cols = [batch.column(f.name).cast(f.type) if i == side else pa.nulls(n, f.type) for i, f in slots]
                tag = pa.nulls(n, pa.int8()).fill_null(side)
                return pa.Table.from_arrays([*cols, tag, bucket_ids(batch, side_keys, num_buckets)], schema=union)

            return route

        parts = [
            d.map_batches(router(i, k), batch_format="pyarrow", zero_copy_batch=True)
            for i, (d, k, _) in enumerate(sides)
        ]
        routed = parts[0].union(*parts[1:])
        names = [sch.names for _, _, sch in sides]  # not the sides: a UDF must not capture a Dataset

        def call(group: pa.Table) -> pa.Table:
            tag = group.column(_SIDE)
            return fn(
                *(
                    group.filter(pc.equal(tag, pa.scalar(side, pa.int8())))
                    .select([n for n, (i, _) in enumerate(slots) if i == side])
                    .rename_columns(own)
                    .combine_chunks()
                    for side, own in enumerate(names)
                )
            )

    # P contiguous ranges of bucket ids; one boundary at least, since Ray
    # samples when given none
    parts = partitions()
    bounds = [num_buckets * i // parts for i in range(1, parts)] or [num_buckets]

    # a generator, so Ray re-raises fn's own exceptions with their type
    def reduce(block: pa.Table):
        block = block.combine_chunks()
        starts, ends = key_runs(block, [_BUCKET])
        if len(starts):
            outs = [call(block.slice(s, e - s)) for s, e in zip(starts, ends)]
            yield pa.concat_tables(outs, promote_options="permissive").combine_chunks()

    return routed.sort(_BUCKET, boundaries=bounds).map_batches(reduce, batch_format="pyarrow", batch_size=None)


def arrow_schema(ds, schema=None) -> pa.Schema | None:
    """``ds``' schema as a ``pa.Schema`` (``schema``, a ``pa.Schema`` or
    ``ray.data.Schema``, when the caller knows it; None reads it). A
    pandas-backed block types its text columns as Python ``object``, so
    such a schema is read again from one Arrow batch. None when ``ds``
    has no schema: an empty stream's blocks carry none."""
    if schema is None:
        schema = ds.schema()
        if schema is None:
            return None
    if isinstance(schema, pa.Schema):
        return schema
    if not all(isinstance(t, pa.DataType) for t in schema.types):
        schema = ds.map_batches(_combine, batch_format="pyarrow").schema()
    return pa.schema(zip(schema.names, schema.types))


def _combine(block: pa.Table) -> pa.Table:
    return block.combine_chunks()


def _neq_prev(arr: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Boolean mask: row differs from the previous row (row 0 = True).
    NULL==NULL counts as equal, so NULLs form one run like SQL's
    ``GROUP BY`` / window ``PARTITION BY``."""
    n = len(arr)
    out = np.ones(n, bool)
    if n <= 1:
        return out
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    a, b = arr.slice(1), arr.slice(0, n - 1)
    both_null = pc.and_(pc.is_null(a), pc.is_null(b))
    ne = pc.if_else(both_null, False, pc.fill_null(pc.not_equal(a, b), True))
    out[1:] = ne.to_numpy(zero_copy_only=False)
    return out


def key_runs(table: pa.Table, cols: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, ends)`` of the runs of equal ``cols`` values in a table
    already sorted on them — run ``i`` is rows ``starts[i]:ends[i]``."""
    n = table.num_rows
    change = np.zeros(n, bool)
    for c in cols:
        change |= _neq_prev(table.column(c))
    starts = np.flatnonzero(change)
    return starts, np.r_[starts[1:], n][: len(starts)]


_NULL_SAFE = "__null_safe"


def aggregate(t: pa.Table, keys: list[str], specs) -> pa.Table:
    """``t.group_by(keys).aggregate(specs)`` with one group per NULL key:
    the only Arrow ``group_by`` in the package. pyarrow 16's fast grouper
    splits a NULL-key group into several once two or more key columns
    meet a few dozen rows; a large_string key column sends the grouping
    to the generic grouper, which does not."""
    if len(keys) > 1 and any(t.column(k).null_count for k in keys):
        tag = pa.nulls(t.num_rows, pa.large_string())
        out = t.append_column(_NULL_SAFE, tag).group_by([*keys, _NULL_SAFE]).aggregate(specs)
        return out.drop_columns([_NULL_SAFE])
    return t.group_by(keys).aggregate(specs)
