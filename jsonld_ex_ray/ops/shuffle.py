"""The one bucketed shuffle every single-input keyed op runs on.

Shape: route each row to ``hash(keys) % num_buckets`` with the
version-stable :func:`~jsonld_ex_ray.ops.hashing.bucket_ids` (identical
on every worker of a mixed-version cluster), run ONE bounded
``groupby(bucket).map_groups``, and let the op loop its keys inside each
bucket with vectorized kernels. The group count is ``num_buckets``, never
the key cardinality: a ``map_groups`` call per distinct key (per
document, per user, per triple) is the anti-pattern at corpus scale.
Routing decides only WHERE a row goes — ops decide identity by the key
values themselves, so a hash collision merely co-locates two keys.

Engine: Ray's default sort-based shuffle. ``HASH_SHUFFLE`` (Ray 2.49,
``repartition(keys=…)``) did not finish the canonicalize → dedup →
materialize chain at 1 or 2 Ray CPUs where the sort shuffle took
13–15 s, so the choice lives here and a later Ray is a one-line trial.

Chunk policy: ``fn`` receives each bucket as ONE contiguous table
(``combine_chunks``) without the routing column, and every output block
is combined again before it leaves the task. An op that concatenates
one slice per key (per document, per graph) therefore cannot hand
downstream stages one Arrow chunk per key: chunks are bounded by
blocks.

A map-side combine stays an ordinary ``map_batches`` placed before
:func:`bucketed`; Ray fuses it with the routing step into one task.
Two-sided shuffles (joins, set ops, span cutting) tag each side and
group on their own bucket column — see ops/joins.py.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .hashing import bucket_ids

_BUCKET = "__bucket"


def bucketed(ds, keys: list[str], fn: Callable[[pa.Table], pa.Table], *, num_buckets: int = 64):
    """Apply ``fn`` to every bucket of ``ds`` routed on ``keys``: all rows
    sharing a key value reach the same ``fn`` call, together with the
    other keys of their bucket. → Dataset of ``fn``'s outputs."""

    def route(batch: pa.Table) -> pa.Table:
        return batch.append_column(_BUCKET, bucket_ids(batch, keys, num_buckets))

    def call(group: pa.Table) -> pa.Table:
        return fn(group.drop_columns([_BUCKET]).combine_chunks())

    # an output block holds several buckets, concatenated by Ray: combine
    # each whole block (fused into the same task) so it leaves as one chunk
    return (
        ds.map_batches(route, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(_BUCKET)
        .map_groups(call, batch_format="pyarrow")
        .map_batches(_combine, batch_format="pyarrow", batch_size=None)
    )


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
