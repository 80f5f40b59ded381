"""Vectorized Bloom filter for broadcast semi-joins.

The engine's semi-join pattern broadcasts the small side's EXACT key set
(``ray.put`` + ``pc.is_in``). When the "small" side stops being small —
10⁹ join keys is ~8 GB of int64, far past sane broadcast size — the
scale path swaps in a Bloom filter: ~1.2 GB for 10⁹ keys at 1% false
positives, still one object-store copy, probed vectorized per batch.
False positives admit extra rows only, so it composes as a PREFILTER in
front of an exact verifier (or a bucketed join) — exactly how
``semi_join_bloom`` wires it.

Hashing: double hashing h1 + i·h2 over the engine's stable hash kernels
(ops/hashing.py) — version-independent across a mixed-version cluster,
deterministic across retries.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _bit_positions(col, n_bits: int, k: int) -> np.ndarray:
    """(k, len(col)) bit positions via double hashing — a free function
    so the fold can compute a block's positions WITHOUT allocating a
    full zeroed bitmap (at the 10⁹-key design point that allocation is
    ~1.2 GB per block, pure waste on the sparse positions path)."""
    from .hashing import _hash_column

    h1 = _hash_column(col, seed=101)
    h2 = _hash_column(col, seed=202) | np.uint64(1)  # odd → full-period
    i = np.arange(k, dtype=np.uint64)[:, None]
    return (h1[None, :] + i * h2[None, :]) % np.uint64(n_bits)


class BloomFilter:
    __slots__ = ("bits", "n_bits", "k")

    def __init__(self, n_bits: int, k: int, bits: np.ndarray | None = None):
        self.n_bits = int(n_bits)
        self.k = int(k)
        self.bits = bits if bits is not None else np.zeros((self.n_bits + 63) // 64, np.uint64)

    @classmethod
    def sized(cls, n_items: int, fp_rate: float = 0.01) -> "BloomFilter":
        n_items = max(n_items, 1)
        n_bits = int(-n_items * np.log(fp_rate) / (np.log(2) ** 2)) + 64
        k = max(1, round(np.log(2) * n_bits / n_items))
        return cls(n_bits, min(k, 16))

    def _positions(self, col) -> np.ndarray:
        return _bit_positions(col, self.n_bits, self.k)

    def add(self, col) -> None:
        pos = self._positions(col).ravel()
        np.bitwise_or.at(self.bits, pos >> np.uint64(6), np.uint64(1) << (pos & np.uint64(63)))

    def contains(self, col) -> np.ndarray:
        pos = self._positions(col)
        word = self.bits[(pos >> np.uint64(6)).astype(np.int64)]
        hit = (word >> (pos & np.uint64(63))) & np.uint64(1)
        return hit.all(axis=0).astype(bool)


def build_bloom(ds, col: str, *, n_items: int | None = None, fp_rate: float = 0.01):
    """One streaming pass over ``ds[col]`` → a BloomFilter (driver holds
    only the bit array; per-block key sets are folded in as they
    arrive). ``n_items`` defaults to ``ds.count()`` — for a TRANSFORMED
    lazy input the dataset is materialized first so the sizing count and
    the fold pass don't each re-execute the upstream plan (for raw
    parquet reads count() is metadata-only and materialization is
    skipped by passing ``n_items`` explicitly)."""
    import ray

    if n_items is None:
        ds = ds.materialize()
        n_items = ds.count()
    bf = BloomFilter.sized(n_items, fp_rate)
    # close over the two ints, NOT bf — a closure referencing bf would
    # cloudpickle the driver's full zeroed bit array (~1.2 GB at the
    # 10⁹-key design point) into every task spec
    n_bits, k = bf.n_bits, bf.k
    bitmap_bytes = ((n_bits + 63) // 64) * 8

    def fold(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {"kind": pa.array([], pa.string()), "payload": pa.array([], pa.large_binary())}
            )
        pos = np.unique(_bit_positions(batch.column(col), n_bits, k).ravel())
        # A block with few keys ships its set-bit POSITIONS (8 B each),
        # not the full bitmap — at the 10⁹-key/1.2 GB design point a
        # full zeroed bitmap per block would overwhelm both workers and
        # the driver fold. Dense blocks (positions ≥ bitmap size) fall
        # back to the bitmap encoding; only THEY allocate a bitmap.
        if pos.nbytes < bitmap_bytes:
            return pa.table(
                {"kind": pa.array(["pos"]), "payload": pa.array([pos.tobytes()], pa.large_binary())}
            )
        local = BloomFilter(n_bits, k)
        np.bitwise_or.at(
            local.bits, pos >> np.uint64(6), np.uint64(1) << (pos & np.uint64(63))
        )
        return pa.table(
            {"kind": pa.array(["bitmap"]), "payload": pa.array([local.bits.tobytes()], pa.large_binary())}
        )

    for t in ray.get(
        # materialized first: on a lazy plan, to_arrow_refs runs it again for its schema
        ds.map_batches(fold, batch_format="pyarrow", zero_copy_batch=True).materialize().to_arrow_refs()
    ):
        # Ray passes zero-row blocks through map_batches with their
        # ORIGINAL schema (the filtered small side produces many at high
        # parallelism) — skip anything that isn't a fold output.
        if t.num_rows == 0 or "payload" not in t.column_names or "kind" not in t.column_names:
            continue
        for kind, chunk in zip(t.column("kind").to_pylist(), t.column("payload").to_pylist()):
            if kind == "pos":
                pos = np.frombuffer(chunk, np.uint64)
                np.bitwise_or.at(
                    bf.bits, pos >> np.uint64(6), np.uint64(1) << (pos & np.uint64(63))
                )
            else:
                bf.bits |= np.frombuffer(chunk, np.uint64)
    return bf


def semi_join_bloom(big_ds, small_ds, *, big_on: str, small_on: str, fp_rate: float = 0.01):
    """Keep big-side rows whose key is (probably) in the small side:
    Bloom prefilter broadcast once via ``ray.put``, probed vectorized per
    batch. False positives pass through (callers needing exactness chain
    a bucketed join or exact set on the SURVIVORS, which the prefilter
    has already shrunk)."""
    import ray

    bf = build_bloom(small_ds, small_on, fp_rate=fp_rate)
    ref = ray.put((bf.n_bits, bf.k, bf.bits))

    def probe(batch: pa.Table) -> pa.Table:
        n_bits, k, bits = ray.get(ref)
        f = BloomFilter(n_bits, k, bits)
        return batch.filter(pa.array(f.contains(batch.column(big_on))))

    return big_ds.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)
