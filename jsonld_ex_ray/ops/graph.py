"""Iterative graph analytics over the triple table — the pattern for
algorithms the Dataset API can't express in one pass: a bounded number of
iterations, each built from the SAME bucketed-shuffle primitives as the
rest of the engine (hash-bucketed join + bucketed aggregation), so every
iteration is two bounded shuffles regardless of graph size.

PageRank here is the standard damped formulation with dangling-mass
redistribution; ranks sum to 1 every iteration (asserted in tests).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .shuffle import bucketed, partitions


def triples_to_edges(ds):
    """Triple Dataset → (src, dst) edge Dataset (IRI/bnode objects only —
    literals are not nodes)."""

    def edges(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(
            batch.column("obj_kind"), value_set=pa.array(["iri", "bnode"])
        )
        e = batch.filter(keep)
        return pa.table({"src": e.column("subj"), "dst": e.column("obj")})

    return ds.map_batches(edges, batch_format="pyarrow", zero_copy_batch=True)


def connected_components(
    edges_ds,
    *,
    max_iterations: int = 25,
    stats: dict | None = None,
):
    """Min-label propagation WITH pointer doubling → Dataset(node,
    component) where ``component`` is the LEXICOGRAPHICALLY smallest node
    id in the connected component (undirected; ids are compared as
    strings — numeric-id callers wanting numeric-min labels must
    zero-pad, see __ray_entry__._q_dedup_clusters). Each iteration is (a) one min-label
    propagation over edges (bucketed join + bucketed min-agg) and (b) one
    path-shortcutting step ``label[v] ← label[label[v]]`` (a bucketed
    self-join of the label table): propagation alone needs O(diameter)
    rounds, while shortcutting compresses label chains geometrically, so
    a length-L chain converges in ~log2(L) iterations — the property that
    matters for long-chain graphs at corpus scale. Convergence is a
    scalar changed-count. The transitive closure of near-duplicate PAIRS
    into clusters — pairwise keep-min alone misses chains (a~b, b~c but
    not a~c). Labels only decrease and every label is a member of the
    node's own component, so the fixpoint is exactly min-of-component."""
    from .agg import groupby_agg
    from .joins import hash_join_bucketed

    # symmetrize once: propagation must flow both ways
    def sym(batch: pa.Table) -> pa.Table:
        src = batch.column("src").combine_chunks()
        dst = batch.column("dst").combine_chunks()
        return pa.table(
            {
                "src": pa.concat_arrays([src.cast(pa.string()), dst.cast(pa.string())]),
                "dst": pa.concat_arrays([dst.cast(pa.string()), src.cast(pa.string())]),
            }
        )

    edges = edges_ds.map_batches(sym, batch_format="pyarrow", zero_copy_batch=True).materialize()

    def init_labels(batch: pa.Table) -> pa.Table:
        u = pc.unique(batch.column("src").combine_chunks())
        return pa.table({"node": u, "component": u})

    def bucket_first(group: pa.Table) -> pa.Table:
        import polars as pl2

        mask = (
            pl2.from_arrow(group.select(["node"]))
            .select(pl2.col("node").is_first_distinct())
            .to_arrow()
            .column(0)
            .cast(pa.bool_())
        )
        return group.filter(mask)

    def with_zero_changed(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__changed", pa.array(np.zeros(batch.num_rows, np.int64))
        )

    labels = (
        bucketed(
            edges.map_batches(init_labels, batch_format="pyarrow", zero_copy_batch=True),
            ["node"],
            bucket_first,
        )
        .map_batches(with_zero_changed, batch_format="pyarrow", zero_copy_batch=True)
        .materialize()
    )

    # static schemas so the per-iteration joins never call Dataset.schema()
    # (which triggers a full plan execution on lazy inputs — one extra
    # execution per loop step)
    edges_schema = pa.schema([("src", pa.string()), ("dst", pa.string())])
    label_schema = pa.schema(
        [("node", pa.string()), ("component", pa.string()), ("__changed", pa.int64())]
    )
    incoming_schema = pa.schema([("node", pa.string()), ("cand_min", pa.string())])
    parent_schema = pa.schema([("__pnode", pa.string()), ("__pcomp", pa.string())])

    for it in range(max_iterations):
        if stats is not None:
            stats["iterations"] = it + 1
        # neighbor labels flow along edges; min per destination
        flowed = hash_join_bucketed(
            edges,
            labels,
            left_on="src",
            right_on="node",
            right_cols=["component"],
            left_schema=edges_schema,
            right_schema=label_schema,
        )
        incoming = groupby_agg(
            flowed.map_batches(
                lambda b: pa.table({"node": b.column("dst"), "cand": b.column("component")}),
                batch_format="pyarrow",
                zero_copy_batch=True,
            ),
            ["node"],
            [("cand", "min", "cand_min")],
        )
        merged = hash_join_bucketed(
            labels,
            incoming,
            left_on="node",
            right_on="node",
            right_cols=["cand_min"],
            join_type="left",
            left_schema=label_schema,
            right_schema=incoming_schema,
        )

        def take_min(batch: pa.Table) -> pa.Table:
            cur = batch.column("component")
            cand = batch.column("cand_min").cast(pa.string())
            # null-aware elementwise min (no string sentinel: a label
            # above U+FFFF would sort past one and corrupt the compare)
            new = pc.min_element_wise(cand, cur, skip_nulls=True)
            changed = pc.not_equal(new, cur)
            return pa.table(
                {
                    "node": batch.column("node"),
                    "component": new,
                    "__changed": changed.cast(pa.int64()),
                }
            )

        # ONE materialization for the propagation chain: it feeds both
        # sides of the shortcut self-join below (lazy lineage would
        # execute the whole chain twice, once per union branch). The
        # repartition BOUNDS the block count (to the shuffle's P): each
        # join unions its two inputs (blocks add) and the sort keeps them, so
        # without a coalesce the label table's block count would ~double
        # every iteration — thousands of tiny blocks by iteration 10,
        # per-task overhead dwarfing the (small) data.
        prop = (
            merged.map_batches(take_min, batch_format="pyarrow", zero_copy_batch=True)
            .repartition(partitions())
            .materialize()
        )

        # pointer doubling: label[v] ← label[label[v]] — one bucketed
        # self-join; compresses a depth-d label chain to ~d/2. The
        # propagation step's __changed flag rides along so one scan at
        # the end counts both phases.
        parents = prop.map_batches(
            lambda b: pa.table(
                {"__pnode": b.column("node"), "__pcomp": b.column("component")}
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        shortcut = hash_join_bucketed(
            prop,
            parents,
            left_on="component",
            right_on="__pnode",
            right_cols=["__pcomp"],
            join_type="left",
            left_schema=label_schema,
            right_schema=parent_schema,
        )

        def apply_shortcut(batch: pa.Table) -> pa.Table:
            cur = batch.column("component")
            par = batch.column("__pcomp").cast(pa.string())
            new = pc.min_element_wise(par, cur, skip_nulls=True)
            changed = pc.not_equal(new, cur).cast(pa.int64())
            return pa.table(
                {
                    "node": batch.column("node"),
                    "component": new,
                    "__changed": pc.add(batch.column("__changed"), changed),
                }
            )

        labels = (
            shortcut.map_batches(
                apply_shortcut, batch_format="pyarrow", zero_copy_batch=True
            )
            .repartition(partitions())  # bound blocks (see prop above)
            .materialize()
        )
        if _sum_col(labels, "__changed") == 0:
            break
    return labels.drop_columns(["__changed"])


def _sum_col(ds, col: str) -> int:
    return int(
        ds.map_batches(
            lambda b: pa.table({"s": pa.array([pc.sum(b.column(col)).as_py() or 0])}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).to_pandas()["s"].sum()
    )


def pagerank(
    edges_ds,
    *,
    iterations: int = 10,
    damping: float = 0.85,
):
    """→ Dataset(node, rank). Each iteration:

    1. contributions: edges bucket-joined with current ranks on ``src``
       (broadcast is NOT assumed — ranks can be as large as the node
       set), emitting ``rank/out_degree`` per edge;
    2. bucketed sum by ``dst`` + damping + dangling-mass redistribution.

    The rank table is re-broadcast per iteration ONLY in the sense of
    being one side of a bucketed join — nothing materializes on the
    driver except the scalar dangling mass."""
    from .agg import groupby_agg
    from .joins import hash_join_bucketed

    edges = edges_ds.materialize()  # reused every iteration

    # node set = union of endpoints (bucketed distinct)
    def endpoints(batch: pa.Table) -> pa.Table:
        both = pa.concat_arrays(
            [batch.column("src").combine_chunks(), batch.column("dst").combine_chunks()]
        )
        return pa.table({"node": pc.unique(both)})

    def bucket_unique(group: pa.Table) -> pa.Table:
        return pa.table({"node": pc.unique(group.column("node"))})

    nodes = bucketed(
        edges.map_batches(endpoints, batch_format="pyarrow", zero_copy_batch=True),
        ["node"],
        bucket_unique,
    ).materialize()
    n = nodes.count()
    if n == 0:
        # empty edge set (all-literal objects / empty corpus): empty
        # ranks, not a ZeroDivisionError in 1/n
        import ray.data

        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.string()), "rank": pa.array([], pa.float64())})
        )

    degrees = groupby_agg(
        edges, ["src"], [("dst", "count", "out_degree")]
    ).materialize()

    # ranks start uniform; schema (node, rank)
    def init_rank(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": batch.column("node"),
                "rank": pa.array(np.full(batch.num_rows, 1.0 / n)),
            }
        )

    ranks = nodes.map_batches(init_rank, batch_format="pyarrow", zero_copy_batch=True).materialize()

    for _ in range(iterations):
        # rank + out_degree per node (left join: dangling nodes keep null degree)
        with_deg = hash_join_bucketed(
            ranks,
            degrees,
            left_on="node",
            right_on="src",
            right_cols=["out_degree"],
            join_type="left",
        )

        def split_mass(batch: pa.Table) -> pa.Table:
            deg = batch.column("out_degree").to_numpy(zero_copy_only=False).astype(np.float64)
            rank = batch.column("rank").to_numpy(zero_copy_only=False)
            dangling = np.isnan(deg) | (deg == 0)
            share = np.where(dangling, 0.0, rank / np.where(dangling, 1.0, deg))
            return pa.table(
                {
                    "node": batch.column("node"),
                    "share": pa.array(share),
                    "dangling_mass": pa.array(np.where(dangling, rank, 0.0)),
                }
            )

        mass = (
            with_deg.map_batches(split_mass, batch_format="pyarrow", zero_copy_batch=True)
            .repartition(partitions())  # bound blocks: joins add their inputs'
            .materialize()  # block counts each iteration (see CC loop)
        )
        dangling_total = float(
            mass.map_batches(
                lambda b: pa.table({"s": pa.array([pc.sum(b.column("dangling_mass")).as_py() or 0.0])}),
                batch_format="pyarrow",
                zero_copy_batch=True,
            ).to_pandas()["s"].sum()
        )

        contribs = hash_join_bucketed(
            edges,
            mass,
            left_on="src",
            right_on="node",
            right_cols=["share"],
        )
        summed = groupby_agg(
            contribs.map_batches(
                lambda b: pa.table({"dst": b.column("dst"), "share": b.column("share")}),
                batch_format="pyarrow",
                zero_copy_batch=True,
            ),
            ["dst"],
            [("share", "sum", "incoming")],
        )
        # nodes with no inbound edges need rank rows too → left join from
        # nodes (summed is lazy: pass its schema so the join doesn't
        # trigger an extra execution just to read it)
        joined = hash_join_bucketed(
            nodes,
            summed,
            left_on="node",
            right_on="dst",
            right_cols=["incoming"],
            join_type="left",
            left_schema=pa.schema([("node", pa.string())]),
            right_schema=pa.schema([("dst", pa.string()), ("incoming", pa.float64())]),
        )
        base = (1.0 - damping) / n + damping * dangling_total / n

        def apply_rank(batch: pa.Table) -> pa.Table:
            inc = batch.column("incoming").to_numpy(zero_copy_only=False).astype(np.float64)
            inc = np.nan_to_num(inc, nan=0.0)
            return pa.table(
                {"node": batch.column("node"), "rank": pa.array(base + damping * inc)}
            )

        ranks = (
            joined.map_batches(apply_rank, batch_format="pyarrow", zero_copy_batch=True)
            .repartition(partitions())  # bound blocks (see CC loop)
            .materialize()
        )

    return ranks
