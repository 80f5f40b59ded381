"""Similarity search over an embedding column (``list<float>``).

- Brute-force cosine top-k: the query matrix is broadcast ONCE (``ray.put``)
  and each batch does one numpy matmul; per-batch local top-k rows flow to a
  tiny global sort+limit. O(N·d) scan, zero shuffle of the corpus.
- IVF variant (the scale path): deterministic k-means-lite centroids fitted
  on a driver-side sample, then batches are pruned to the ``nprobe``
  nearest centroid buckets before scoring — same output schema, large
  corpora only score a fraction of rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .agg import round_half_away
from .shuffle import bucketed, key_runs


def _to_matrix(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """list<float> column → (n, d) float64 matrix. Uniform-length lists
    (the embedding-table invariant) take the zero-copy path: flatten the
    arrow child array and reshape — no per-row Python. Ragged input
    falls back to the Python conversion (and will fail the reshape-free
    matmul paths loudly if dimensions disagree)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if isinstance(arr, (pa.ListArray, pa.LargeListArray)) and arr.null_count == 0:
        offsets = arr.offsets.to_numpy()
        widths = np.diff(offsets)
        if len(widths) and (widths == widths[0]).all():
            # flatten() already honours slicing offsets
            flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
            return flat.reshape(len(arr), int(widths[0]))
    return np.asarray(arr.to_pylist(), dtype=np.float64)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def brute_force_topk(
    ds,
    query_vec,
    k: int = 10,
    *,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    round_to: int = 4,
):
    """→ Dataset(vec_id, sim) of the global top-k by cosine similarity."""
    q = np.asarray(query_vec, dtype=np.float64)
    qn = q / (np.linalg.norm(q) or 1.0)

    def local_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({id_col: batch.column(id_col), "sim": pa.array([], pa.float64())})
        m = _normalize(_to_matrix(batch.column(emb_col)))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        r = round_half_away(m @ qn, round_to)
        # rank on the SAME key as the global sort — (rounded desc, id
        # asc) — so a rounded tie at the k boundary keeps the id winner
        idx = np.lexsort((ids, -r))[:k]
        return pa.table(
            {
                id_col: pa.array(ids[idx].tolist()),
                "sim": pa.array(r[idx].tolist(), pa.float64()),
            }
        )

    # per-batch top-k (bounded rows) → global sort + limit over tiny data
    return (
        ds.map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["sim", id_col], descending=[True, False])
        .limit(k)
    )


def fit_centroids(sample: np.ndarray, n_clusters: int = 16, iters: int = 10, seed: int = 11) -> np.ndarray:
    """Deterministic k-means-lite on a sample (runs on the driver over a
    few thousand rows; centroids are then broadcast)."""
    rng = np.random.RandomState(seed)
    sample = _normalize(np.asarray(sample, dtype=np.float64))
    idx = rng.choice(len(sample), size=min(n_clusters, len(sample)), replace=False)
    cents = sample[idx].copy()
    for _ in range(iters):
        assign = np.argmax(sample @ cents.T, axis=1)
        for c in range(len(cents)):
            members = sample[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cents[c] = v / n
    return cents


def ivf_topk(
    ds,
    query_vec,
    centroids: np.ndarray,
    k: int = 10,
    nprobe: int = 4,
    *,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    round_to: int = 4,
):
    """IVF-pruned cosine top-k: only rows whose nearest centroid is among
    the query's ``nprobe`` closest centroids are scored."""
    q = np.asarray(query_vec, dtype=np.float64)
    qn = q / (np.linalg.norm(q) or 1.0)
    probe = set(np.argsort(-(centroids @ qn))[:nprobe].tolist())

    def local(batch: pa.Table) -> pa.Table:
        # empty outputs keep the CORPUS id type (hardcoded int64 would
        # schema-clash with string-id blocks at union/sort time)
        empty = pa.table(
            {id_col: batch.column(id_col).slice(0, 0), "sim": pa.array([], pa.float64())}
        )
        if batch.num_rows == 0:
            return empty
        m = _normalize(_to_matrix(batch.column(emb_col)))
        assign = np.argmax(m @ centroids.T, axis=1)
        mask = np.isin(assign, list(probe))
        if not mask.any():
            return empty
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)[mask]
        r = round_half_away(m[mask] @ qn, round_to)
        idx = np.lexsort((ids, -r))[:k]  # same key as the global sort
        return pa.table(
            {
                id_col: pa.array(ids[idx].tolist()),
                "sim": pa.array(r[idx].tolist(), pa.float64()),
            }
        )

    return (
        ds.map_batches(local, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["sim", id_col], descending=[True, False])
        .limit(k)
    )


def embedding_cosine_duplicates(
    ds,
    threshold: float = 0.995,
    *,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    n_clusters: int = 16,
    sample_size: int = 2000,
):
    """Embedding-cosine near-dup detection: bucket by nearest centroid
    (one bucketed shuffle), then exact pairwise cosine inside each
    centroid.
    → Dataset(vec_id, dup_of, sim)."""
    sample = ds.limit(sample_size).to_pandas()[emb_col].tolist()
    cents = fit_centroids(np.asarray(sample), n_clusters=n_clusters)

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("__centroid", pa.array([], pa.int32()))
        m = _normalize(_to_matrix(batch.column(emb_col)))
        a = np.argmax(m @ cents.T, axis=1)
        return batch.append_column("__centroid", pa.array(a.tolist(), pa.int32()))

    def verify(part: pa.Table) -> pa.Table:
        part = part.sort_by("__centroid")
        starts, ends = key_runs(part, ["__centroid"])
        return pa.concat_tables([verify_centroid(part.slice(s, e - s)) for s, e in zip(starts, ends)])

    def verify_centroid(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        m = _normalize(_to_matrix(group.column(emb_col)))
        order = np.argsort(ids, kind="stable")
        ids, m = ids[order], m[order]
        did, dof, sims = [], [], []
        # chunked gram: memory is chunk×n, not n×n, so a hot centroid
        # bucket can't blow a worker's heap
        chunk = 512
        for lo in range(1, len(ids), chunk):
            hi = min(lo + chunk, len(ids))
            g = m[lo:hi] @ m.T  # rows lo..hi vs ALL earlier+later columns
            for r in range(hi - lo):
                i = lo + r
                js = np.nonzero(g[r, :i] >= threshold)[0]
                if len(js):
                    j = int(js[0])
                    did.append(int(ids[i]))
                    dof.append(int(ids[j]))
                    sims.append(round(float(g[r, j]), 6))
        return pa.table(
            {
                id_col: pa.array(did, pa.int64()),
                "dup_of": pa.array(dof, pa.int64()),
                "sim": pa.array(sims, pa.float64()),
            }
        )

    assigned = ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
    return bucketed(assigned, ["__centroid"], verify)


def brute_force_dup_pairs(
    ds,
    threshold: float = 0.42,
    *,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    round_to: int = 4,
    max_broadcast_rows: int = 2_000_000,
):
    """EXACT all-pairs cosine near-duplicate detection — the brute-force
    baseline that ``embedding_cosine_duplicates`` (centroid-bucketed, can
    miss cross-bucket pairs) approximates, and the exact-recall anchor
    for it. → Dataset(vec_id_a, vec_id_b, sim) with vec_id_a < vec_id_b.

    Brute-force contract (same as ``brute_force_topk``'s query side): the
    normalized (id, vector) matrix is gathered once on the driver and
    broadcast via ``ray.put`` — O(n·d) memory, guarded by
    ``max_broadcast_rows``; each batch then does ONE numpy matmul against
    it (O(n_batch·n) per batch, zero shuffle, pairs emitted where the
    broadcast id < the batch id so every pair surfaces exactly once).
    Above the guard use ``embedding_cosine_duplicates`` /
    ``ivf_recall_at_k`` — quadratic scoring is the wrong tool there by
    definition, not an engine limitation."""
    import ray

    # refuse BEFORE gathering: the guard exists to keep an oversized
    # matrix out of driver memory
    n_rows = ds.count()
    if n_rows > max_broadcast_rows:
        raise ValueError(
            f"brute_force_dup_pairs: {n_rows} rows exceed the "
            f"broadcast guard ({max_broadcast_rows}); use "
            "embedding_cosine_duplicates for corpora this size"
        )
    side = pa.concat_tables(
        list(ds.select_columns([id_col, emb_col]).iter_batches(batch_format="pyarrow"))
    )
    all_ids = side.column(id_col).to_numpy(zero_copy_only=False)
    all_m = _normalize(_to_matrix(side.column(emb_col)))
    id_type = side.schema.field(id_col).type  # propagate the caller's id dtype
    ref = ray.put((all_ids, all_m))

    def local_pairs(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "vec_id_a": pa.array([], id_type),
                "vec_id_b": pa.array([], id_type),
                "sim": pa.array([], pa.float64()),
            }
        )
        if batch.num_rows == 0:
            return empty
        ids_all, m_all = ray.get(ref)
        bids = batch.column(id_col).to_numpy(zero_copy_only=False)
        bm = _normalize(_to_matrix(batch.column(emb_col)))
        g = bm @ m_all.T  # (n_batch, n_all)
        mask = (g >= threshold) & (ids_all[None, :] < bids[:, None])
        rows, cols = np.nonzero(mask)
        if not len(rows):
            return empty
        return pa.table(
            {
                "vec_id_a": pa.array(ids_all[cols].tolist(), id_type),
                "vec_id_b": pa.array(bids[rows].tolist(), id_type),
                "sim": pa.array(
                    round_half_away(g[rows, cols], round_to).tolist(), pa.float64()
                ),
            }
        )

    return ds.map_batches(local_pairs, batch_format="pyarrow", zero_copy_batch=True)


def ivf_recall_at_k(
    ds,
    queries,
    centroids: np.ndarray,
    k: int = 10,
    nprobe: int = 8,
    *,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
):
    """recall@k of the IVF-pruned search vs the exact brute force, as ONE
    streaming pass: each batch emits its local top-k per query for BOTH
    the exact and the pruned scan (bounded: 2·k·n_queries rows per block);
    the driver combines only those survivors. Never materializes the
    corpus. → pandas DataFrame(n_queries, recall_at_{k})."""
    import pandas as pd

    Q = _normalize(np.asarray(queries, dtype=np.float64))
    nq = len(Q)
    probe = np.argsort(-(centroids @ Q.T), axis=0)[:nprobe].T  # (nq, nprobe)

    def local(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "q": pa.array([], pa.int32()),
                    id_col: batch.column(id_col).slice(0, 0),
                    "sim": pa.array([], pa.float64()),
                    "kind": pa.array([], pa.string()),
                }
            )
        m = _normalize(_to_matrix(batch.column(emb_col)))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        assign = np.argmax(m @ centroids.T, axis=1)
        sims = m @ Q.T  # (n, nq)
        out_q, out_id, out_sim, out_kind = [], [], [], []
        for qi in range(nq):
            top = np.argsort(-sims[:, qi], kind="stable")[:k]
            out_q.extend([qi] * len(top))
            out_id.extend(ids[top].tolist())
            out_sim.extend(sims[top, qi].tolist())
            out_kind.extend(["exact"] * len(top))
            mask = np.isin(assign, probe[qi])
            if mask.any():
                cid = ids[mask]
                cs = sims[mask, qi]
                top2 = np.argsort(-cs, kind="stable")[:k]
                out_q.extend([qi] * len(top2))
                out_id.extend(cid[top2].tolist())
                out_sim.extend(cs[top2].tolist())
                out_kind.extend(["ivf"] * len(top2))
        return pa.table(
            {
                "q": pa.array(out_q, pa.int32()),
                id_col: pa.array(out_id, pa.int64()),
                "sim": pa.array(out_sim, pa.float64()),
                "kind": pa.array(out_kind, pa.string()),
            }
        )

    surv = ds.map_batches(local, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    recalls = []
    for qi in range(nq):
        sq = surv[surv.q == qi]
        exact = sq[sq.kind == "exact"].nlargest(k, "sim")[id_col]
        approx = sq[sq.kind == "ivf"].nlargest(k, "sim")[id_col]
        recalls.append(len(set(exact) & set(approx)) / k)
    return pd.DataFrame(
        {
            "n_queries": [nq],
            f"recall_at_{k}": [round(float(np.mean(recalls)), 4)],
        }
    )


def assign_clusters(
    ds,
    centroids: np.ndarray | None = None,
    *,
    n_clusters: int = 16,
    sample_size: int = 2000,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
):
    """Corpus clustering (topic bucketing / stratified-by-content
    sampling): assign every vector to its nearest (cosine) centroid.
    Centroids are fit once on a deterministic ``ds.limit(sample_size)``
    sample and broadcast through the closure — one streaming pass, no
    shuffle. → Dataset(id_col, cluster:int32, sim:double rounded 6dp)."""
    from .agg import round_half_away

    if centroids is None:
        import pyarrow as _pa

        sample = ds.limit(sample_size).to_pandas()[emb_col].tolist()
        centroids = fit_centroids(np.asarray(sample, dtype=np.float64), n_clusters)
    cents = np.asarray(centroids, dtype=np.float64)

    def local(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    id_col: batch.column(id_col).slice(0, 0),
                    "cluster": pa.array([], pa.int32()),
                    "sim": pa.array([], pa.float64()),
                }
            )
        m = _normalize(_to_matrix(batch.column(emb_col)))
        sims = m @ cents.T
        assign = np.argmax(sims, axis=1)
        best = sims[np.arange(len(assign)), assign]
        return pa.table(
            {
                id_col: batch.column(id_col),
                "cluster": pa.array(assign.astype(np.int32)),
                "sim": pa.array(round_half_away(best, 6), pa.float64()),
            }
        )

    return ds.map_batches(local, batch_format="pyarrow", zero_copy_batch=True)


def knn_join(
    ds,
    query_table: pa.Table,
    k: int = 5,
    *,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    query_id_col: str | None = None,
    round_to: int = 4,
):
    """Batch kNN join: for EVERY query vector, the global top-``k``
    corpus neighbors by cosine (self-matches by id excluded) — the
    nearest-neighbor-table primitive under retrieval eval and semantic
    dedup.

    Ray shape: the (q × d) query matrix broadcasts ONCE via ``ray.put``;
    each corpus batch does one (b × d)·(d × q) matmul and emits only its
    per-query top-k survivor rows (``q·k`` rows per block, independent of
    block height); survivors combine in a final head bucketed on
    ``query_id`` (ops/shuffle.py) with a vectorized segmented-rank
    kernel. The corpus never shuffles. Ranking uses the ROUNDED
    similarity with
    ``neighbor_id`` tiebreak so the selection is reproducible against a
    serial oracle. → Dataset(query_id, neighbor_id, sim)."""
    import pyarrow.compute as pc
    import ray

    query_id_col = query_id_col or id_col
    if query_table.num_rows == 0:
        raise ValueError("knn_join: query_table has no rows")
    q_ids = query_table.column(query_id_col).to_numpy(zero_copy_only=False)
    q_mat = _normalize(_to_matrix(query_table.column(emb_col)))
    ref = ray.put((q_ids, q_mat))

    def local_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "query_id": pa.array([], query_table.schema.field(query_id_col).type),
                    "neighbor_id": pa.array([], query_table.schema.field(query_id_col).type),
                    "sim": pa.array([], pa.float64()),
                }
            )
        ids_q, qm = ray.get(ref)
        m = _normalize(_to_matrix(batch.column(emb_col)))
        ids_c = batch.column(id_col).to_numpy(zero_copy_only=False)
        sims = m @ qm.T  # (b, q)
        sims[np.equal.outer(ids_c, ids_q)] = -np.inf  # self-match excluded
        r = round_half_away(sims, round_to)
        kk = min(k, sims.shape[0])
        # block-level survivors must be chosen by the SAME key the final
        # head (and the oracle) ranks on — (rounded sim desc, id asc) —
        # or a same-block rounded tie at the k boundary could drop the
        # id-tiebreak winner; one lexsort per query, q is broadcast-sized
        qs_out, cs_out, ss_out = [], [], []
        for qi in range(sims.shape[1]):
            idx = np.lexsort((ids_c, -r[:, qi]))[:kk]
            fin = np.isfinite(r[idx, qi])
            idx = idx[fin]
            qs_out.append(np.full(len(idx), ids_q[qi]))
            cs_out.append(ids_c[idx])
            ss_out.append(r[idx, qi])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(qs_out).tolist()),
                "neighbor_id": pa.array(np.concatenate(cs_out).tolist()),
                "sim": pa.array(np.concatenate(ss_out), pa.float64()),
            }
        )

    def final_head(group: pa.Table) -> pa.Table:
        # a BUCKET of queries: segmented per-query rank < k (vectorized,
        # shared kernel — keeps the tie-break identical to top_per_group)
        from .agg import segmented_head

        return segmented_head(
            group, "query_id", [("sim", "descending"), ("neighbor_id", "ascending")], k
        )

    survivors = ds.map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True)
    return bucketed(survivors, ["query_id"], final_head)
