"""The flagship KG-construction pipeline, Ray-Data-first.

    read_parquet(source_repos)                     # column-pruned scan
      → map_batches(extract_batch)                 # file → payload rows
      → map_batches(triples_batch)                 # resolve+expand+
                                                   # node-map+toRdf
      → [map_batches(link_batch)]                  # broadcast dictionary
      → [dedup / canonicalize / materialize]       # explicit shuffles
      → write_parquet(out, partitioned)            # resumable shards

Design notes (SURVEY.md §4): zero shuffles until the optional wide stages;
every per-batch stage is a plain Ray task, fused by Ray Data into one; the
only cross-row state is the per-worker-process context cache and linker
index (stages/state.py); shards (= input file groups) are the
checkpoint/resume unit.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .stages.linker import link_entities
from .stages.triples import make_triples_batch


def build_triples(
    source: "Any",
    *,
    context_registry: dict | None = None,
    options=None,
    concurrency=None,
    batch_size: int = 256,
    linker_dict_ref=None,
    override_num_blocks: int | None = None,
):
    """source: path(s) to the source-repo Parquet table, or a Dataset.

    Returns a lazy Dataset of TRIPLE_SCHEMA rows (triples + error records,
    distinguished by ``pred IS NULL``). ``context_registry`` / ``options``
    replace the offline context registry and the JSON-LD options of the
    kernel; ``linker_dict_ref`` (``ray.put(alias_to_iri)``) adds the
    entity-linker columns. ``concurrency`` is accepted and ignored:
    ``perfbench/workloads.py`` still passes it.
    """
    import ray.data

    if isinstance(source, (str, list)):
        ds = ray.data.read_parquet(
            source,
            columns=["repo", "path", "commit", "lang", "content"],
            override_num_blocks=override_num_blocks,
        )
    else:
        ds = source
    # snapshot the DRIVER's detector registry into the task closure —
    # register_detector mutations never reach worker processes otherwise
    from .stages.extract import make_extract_batch

    ds = ds.map_batches(
        make_extract_batch(), batch_format="pyarrow", zero_copy_batch=True
    )
    state_ref = None
    if context_registry is not None or options is not None:
        state_ref = ray.put((context_registry, options))
    ds = ds.map_batches(
        make_triples_batch(state_ref),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )
    if linker_dict_ref is not None:
        ds = ds.map_batches(
            link_entities(linker_dict_ref),
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=4096,
        )
    return ds


def triples_only(ds):
    """Drop error records (pred IS NULL) — vectorized filter, no shuffle."""
    return ds.map_batches(
        lambda b: b.filter(pc.is_valid(b.column("pred"))),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def errors_only(ds):
    return ds.map_batches(
        lambda b: b.filter(pc.is_null(b.column("pred"))),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


# ---------------------------------------------------------------------------
# wide stages (explicit shuffles — SURVEY.md §2.5)
# ---------------------------------------------------------------------------


def _triple_key_cols(batch: pa.Table, num_buckets: int) -> pa.Table:
    """Append a compact 128-bit dedup key (two independently-seeded 64-bit
    vectorized hashes of the identity columns) + its shuffle bucket, so the
    shuffle moves 17 bytes/row instead of six wide string columns' worth of
    group-by state. The hash is the version-stable kernel from
    ops/hashing.py — identical on every worker of a mixed-version
    cluster, unlike library (polars/pandas) hashes."""
    from .ops.hashing import hash_strings_pair

    cols = ["graph", "subj", "pred", "obj", "obj_datatype", "obj_lang"]
    # \x00 keeps null distinct from empty string; \x1f guards boundaries
    joined = pc.binary_join_element_wise(
        *[pc.fill_null(batch.column(c).cast(pa.string()), "\x00") for c in cols],
        "\x1f",
    )
    # two seeds = two polynomial BASES (ops/hashing.py): a genuine 128-bit
    # composite key, computed over one shared word-gather pass
    k1, k2 = hash_strings_pair(joined, 1, 2)
    bucket = (k1 % np.uint64(num_buckets)).astype(np.int32)
    batch = batch.append_column("tk1", pa.array(k1, pa.uint64()))
    batch = batch.append_column("tk2", pa.array(k2, pa.uint64()))
    return batch.append_column("bucket", pa.array(bucket, pa.int32()))


_TRIPLE_ID_COLS = ["graph", "subj", "pred", "obj", "obj_datatype", "obj_lang"]


def dedup_triples(ds, num_buckets: int = 64):
    """Exact global triple dedup (set semantics of RDF.Graph.add,
    reference decoder.ex:98-99, lifted cross-document): hash the triple
    for BUCKET ROUTING only, map-side pre-dedup within each block
    (combiner), then ONE shuffle keyed on ``hash % num_buckets`` — a
    bounded number of groups, each deduped VECTORIZED inside its
    map_groups call. (groupby on the raw key spawns one Python call per
    distinct triple — the wrong shape at any scale.)

    Identity is decided by the ACTUAL column values (polars row-encoded
    first-distinct over the six identity columns — full rows ride the
    shuffle anyway), never by the hash: a hash-only identity would let a
    crafted 128-bit collision in ingested repo content silently delete a
    distinct triple. The hash only routes, where a collision is harmless
    co-location."""

    import polars as pl

    def _first_mask(tbl: pa.Table) -> pa.Array:
        # boolean keep-mask computed in polars (vectorized, row-encoded
        # value equality — null distinct from ""), applied as an arrow
        # filter — zero table conversion, strings never copied
        m = pl.from_arrow(tbl.select(_TRIPLE_ID_COLS)).select(
            pl.struct(_TRIPLE_ID_COLS).is_first_distinct()
        )
        return m.to_arrow().column(0).cast(pa.bool_())

    def local_dedup(batch: pa.Table) -> pa.Table:
        batch = _triple_key_cols(batch, num_buckets)
        # map-side combine: first VALUE-distinct occurrence in the block
        return batch.filter(_first_mask(batch))

    ds = triples_only(ds).map_batches(
        local_dedup, batch_format="pyarrow", zero_copy_batch=True
    )

    def bucket_dedup(group: pa.Table) -> pa.Table:
        return group.filter(_first_mask(group)).drop_columns(["tk1", "tk2", "bucket"])

    return ds.groupby("bucket").map_groups(bucket_dedup, batch_format="pyarrow")


def _relabel_doc(group: pa.Table) -> pa.Table:
    """URDNA2015-relabel the triples of ONE document (rows of a single
    doc_id)."""
    from .core.rdf_generation import RDF_LANGSTRING, XSD_STRING
    from .core.urdna2015 import canonicalize

    doc_id = group.column("doc_id")[0].as_py()
    dh = hashlib.sha1(doc_id.encode()).hexdigest()[:16]
    subs = group.column("subj").to_pylist()
    preds = group.column("pred").to_pylist()
    objs = group.column("obj").to_pylist()
    kinds = group.column("obj_kind").to_pylist()
    dts = group.column("obj_datatype").to_pylist()
    lgs = group.column("obj_lang").to_pylist()
    graphs = group.column("graph").to_pylist()

    def term(v, kind=None, dt=None, lang=None):
        if v is None:
            return None
        if kind == "literal":
            return ("lit", v, dt or (RDF_LANGSTRING if lang else XSD_STRING), lang)
        if v.startswith("_:"):
            return ("bnode", v[2:])
        return ("iri", v)

    quads = [
        (term(s), term(p), term(o, k, dt, lg), term(g))
        for s, p, o, k, dt, lg, g in zip(subs, preds, objs, kinds, dts, lgs, graphs)
    ]
    mapping = canonicalize(quads)

    def canon(v: str | None, is_bnode: bool) -> str | None:
        if v is None or not is_bnode or not v.startswith("_:"):
            return v
        return f"_:{dh}-{mapping.get(v[2:], v[2:])}"

    new_sub = [canon(v, True) for v in subs]
    new_obj = [canon(v, k == "bnode") for v, k in zip(objs, kinds)]
    new_graph = [canon(v, True) for v in graphs]
    rows = group
    for col, vals in (("subj", new_sub), ("obj", new_obj), ("graph", new_graph)):
        rows = rows.set_column(
            rows.schema.get_field_index(col), col, pa.array(vals, pa.string())
        )
    # linker-produced canon columns (EntityLinker runs BEFORE this stage)
    # carry pass-through bnode labels — rewrite them too, or they dangle
    # against the relabeled subj/obj
    for col, is_obj in (("subj_canon", False), ("obj_canon", True)):
        if col in rows.schema.names:
            old = rows.column(col).to_pylist()
            vals = [
                canon(v, True if not is_obj else k == "bnode")
                for v, k in zip(old, kinds)
            ]
            rows = rows.set_column(
                rows.schema.get_field_index(col), col, pa.array(vals, pa.string())
            )
    return rows.sort_by(
        [("graph", "ascending"), ("subj", "ascending"), ("pred", "ascending"), ("obj", "ascending")]
    )


def canonicalize_bnodes(ds, num_buckets: int = 64):
    """URDNA2015 blank-node canonicalization (north rule): per document,
    the real RDFC-1.0 algorithm (core/urdna2015.py) assigns ``c14n<n>``
    labels that are invariant under any input relabeling; the doc hash
    prefixes them for global uniqueness before cross-document union.

    Shuffle shape: ONE bounded groupby on ``hash(doc_id) % num_buckets``
    (≤ num_buckets Python group calls), looping documents INSIDE each
    bucket — never one shuffle group per document (millions of single-doc
    groups at corpus scale)."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        from .ops.hashing import hash_strings

        h = hash_strings(batch.column("doc_id"), seed=0)
        return batch.append_column(
            "__bucket", pa.array((h % np.uint64(num_buckets)).astype(np.int32))
        )

    def relabel_bucket(group: pa.Table) -> pa.Table:
        group = group.drop_columns(["__bucket"]).combine_chunks()
        group = group.sort_by([("doc_id", "ascending")])
        doc_ids = np.asarray(group.column("doc_id").to_pylist())
        # contiguous per-doc runs after the sort → one slice per document
        starts = np.flatnonzero(np.r_[True, doc_ids[1:] != doc_ids[:-1]])
        bounds = np.r_[starts, len(doc_ids)]
        parts = [
            _relabel_doc(group.slice(bounds[i], bounds[i + 1] - bounds[i]))
            for i in range(len(starts))
        ]
        return pa.concat_tables(parts)

    return (
        triples_only(ds)
        .map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__bucket")
        .map_groups(relabel_bucket, batch_format="pyarrow")
    )


def materialize_graph(ds, num_buckets: int = 64):
    """Graph materialize: adjacency per subject (SURVEY.md §2.5) as a
    map-side combine + ONE bounded shuffle.

    Phase 1 is shuffle-free: each input block locally sorts its triples
    and emits one partial-adjacency row per (block, subj) — the classic
    map-side combiner, so the only all-to-all exchange moves the far
    smaller partial rows, never the raw triples. Phase 2 merges partials
    per subj inside ``hash(subj) % num_buckets`` groups (bounded group
    count, vectorized in-group merge). A hot subject's phase-1 work is
    naturally split across the blocks that contain it, and its phase-2
    merge concatenates pre-built lists — the same skew posture the
    earlier salt-split design had (whose second phase also merged all
    salts of a subject into one row), minus one full shuffle of the
    triples.
    """

    def bucket_partials(group: pa.Table) -> pa.Table:
        # arrow sort + run slicing; only the per-subject JSON dump stays
        # Python (it must escape arbitrary literal content)
        g = group.select(["subj", "pred", "obj"]).combine_chunks().sort_by(
            [("subj", "ascending"), ("pred", "ascending"), ("obj", "ascending")]
        )
        subjs_arr = np.asarray(g.column("subj").to_pylist(), dtype=object)
        preds = g.column("pred").to_pylist()
        objs = g.column("obj").to_pylist()
        starts = np.flatnonzero(np.r_[True, subjs_arr[1:] != subjs_arr[:-1]])
        bounds = np.r_[starts, len(subjs_arr)]
        subjs, degrees, adjs = [], [], []
        for i in range(len(starts)):
            lo, hi = bounds[i], bounds[i + 1]
            pairs = [[preds[j], objs[j]] for j in range(lo, hi)]
            subjs.append(subjs_arr[lo])
            degrees.append(hi - lo)
            adjs.append(json.dumps(pairs, separators=(",", ":")))
        return pa.table(
            {
                "subj": pa.array(subjs, pa.string()),
                "degree": pa.array(degrees, pa.int64()),
                "adjacency": pa.array(adjs, pa.string()),
            }
        )

    def add_merge_bucket(batch: pa.Table) -> pa.Table:
        from .ops.hashing import hash_strings

        h = hash_strings(batch.column("subj"), seed=0)
        return batch.append_column(
            "bucket", pa.array((h % np.uint64(num_buckets)).astype(np.int32))
        )

    def bucket_merge(group: pa.Table) -> pa.Table:
        g = group.select(["subj", "adjacency"]).combine_chunks().sort_by(
            [("subj", "ascending")]
        )
        subjs_arr = np.asarray(g.column("subj").to_pylist(), dtype=object)
        blobs = g.column("adjacency").to_pylist()
        starts = np.flatnonzero(np.r_[True, subjs_arr[1:] != subjs_arr[:-1]])
        bounds = np.r_[starts, len(subjs_arr)]
        subjs, degrees, adjs = [], [], []
        for i in range(len(starts)):
            lo, hi = bounds[i], bounds[i + 1]
            merged: list = []
            for j in range(lo, hi):
                merged.extend(json.loads(blobs[j]))
            merged.sort()
            subjs.append(subjs_arr[lo])
            degrees.append(len(merged))
            adjs.append(json.dumps(merged, separators=(",", ":")))
        return pa.table(
            {
                "subj": pa.array(subjs, pa.string()),
                "degree": pa.array(degrees, pa.int64()),
                "adjacency": pa.array(adjs, pa.string()),
            }
        )

    partials = triples_only(ds).map_batches(
        bucket_partials, batch_format="pyarrow", zero_copy_batch=True
    )
    partials = partials.map_batches(
        add_merge_bucket, batch_format="pyarrow", zero_copy_batch=True
    )
    return partials.groupby("bucket").map_groups(bucket_merge, batch_format="pyarrow")


def _quads_of(group: pa.Table) -> list:
    from .core.rdf_generation import RDF_LANGSTRING, XSD_STRING

    def term(v, kind=None, dtype=None, lang=None):
        if kind == "literal":
            return ("lit", v, dtype or (RDF_LANGSTRING if lang else XSD_STRING), lang)
        if v.startswith("_:"):
            return ("bnode", v[2:])
        return ("iri", v)

    return [
        (term(s), term(p), term(o, k, dt, lg), None)
        for s, p, o, k, dt, lg in zip(
            group.column("subj").to_pylist(),
            group.column("pred").to_pylist(),
            group.column("obj").to_pylist(),
            group.column("obj_kind").to_pylist(),
            group.column("obj_datatype").to_pylist(),
            group.column("obj_lang").to_pylist(),
        )
    ]


def triples_to_jsonld(ds, num_shards: int = 32):
    """Inverse direction (SURVEY.md §2.5 fromRdf grouping): triple rows →
    expanded JSON-LD node documents, one row per graph.
    → Dataset(graph, doc[json string], n_nodes).

    Skew-safe shape: the only cross-subject semantics in RDF→JSON-LD
    conversion is rdf:first/rdf:rest list reconstruction (bare
    ``{"@id"}`` reference nodes are never emitted — see
    core/rdf_serialization.py:232), so:

    - every subject OUTSIDE the list closure shards by
      ``hash(subj) % num_shards`` and serializes independently (exact:
      its output is a function of its own triples);
    - only the LIST CLOSURE of each graph routes whole to that graph's
      shard 0: the rdf:first/rest chain nodes plus every subject holding
      a reference to one (the referencing subject's full triple set must
      co-serialize so reference counts and @list inlining are exact).
      A list IN THE DEFAULT GRAPH therefore no longer drags the whole
      cross-document union into one group — only its chain + referrers.
      Partitioning assumption: the list closure is a small fraction of
      the corpus (lists are document-structure, not bulk data);
    - a final bucketed merge combines the ≤ num_shards node-array parts
      per graph.

    Both shuffles key on a BOUNDED bucket (hash(graph) % num_buckets
    crossed with the subject shard), never the raw graph name — named
    graphs have per-document cardinality at corpus scale, and a
    Python map_groups call per graph is the same anti-pattern as one per
    document. Graphs are looped INSIDE each bucket. The default graph
    holding 90%+ of the corpus never lands in a single call either (its
    subject shards spread across buckets)."""
    from .core.options import JsonLdOptions
    from .core.rdf_serialization import serialize_rdf

    num_buckets = num_shards * 2
    sharded = _sharded_triples(ds, num_shards)

    def build_shards(group: pa.Table) -> pa.Table:
        # loop the distinct (graph, shard) cells INSIDE the bounded bucket
        group = group.combine_chunks().sort_by(
            [("__g", "ascending"), ("__shard", "ascending")]
        )
        gs = np.asarray(group.column("__g").to_pylist(), dtype=object)
        sh = group.column("__shard").to_numpy(zero_copy_only=False)
        change = np.r_[True, (gs[1:] != gs[:-1]) | (sh[1:] != sh[:-1])]
        starts = np.flatnonzero(change)
        bounds = np.r_[starts, len(gs)]
        names, parts_out, counts = [], [], []
        for i in range(len(starts)):
            cell = group.slice(bounds[i], bounds[i + 1] - bounds[i])
            docs = serialize_rdf(_quads_of(cell), JsonLdOptions(ordered=True))
            names.append(gs[bounds[i]])
            parts_out.append(json.dumps(docs))
            counts.append(len(docs))
        return pa.table(
            {
                "graph": pa.array(names, pa.string()),
                "part": pa.array(parts_out, pa.string()),
                "n_nodes": pa.array(counts, pa.int64()),
            }
        )

    def add_merge_bucket(batch: pa.Table) -> pa.Table:
        from .ops.hashing import hash_strings

        gh = hash_strings(batch.column("graph"), seed=3)
        return batch.append_column(
            "__bucket", pa.array((gh % np.uint64(num_buckets)).astype(np.int32))
        )

    def merge_graphs(group: pa.Table) -> pa.Table:
        group = group.combine_chunks().sort_by([("graph", "ascending")])
        gs = np.asarray(group.column("graph").to_pylist(), dtype=object)
        blobs = group.column("part").to_pylist()
        change = np.r_[True, gs[1:] != gs[:-1]]
        starts = np.flatnonzero(change)
        bounds = np.r_[starts, len(gs)]
        names, docs_out, counts = [], [], []
        for i in range(len(starts)):
            nodes: list = []
            for blob in blobs[bounds[i] : bounds[i + 1]]:
                nodes.extend(json.loads(blob))
            nodes.sort(key=lambda n: n["@id"])  # same order as sorted node-map keys
            names.append(gs[bounds[i]])
            docs_out.append(json.dumps(nodes, sort_keys=True))
            counts.append(len(nodes))
        return pa.table(
            {
                "graph": pa.array(names, pa.string()),
                "doc": pa.array(docs_out, pa.string()),
                "n_nodes": pa.array(counts, pa.int64()),
            }
        )

    parts = sharded.groupby("__bucket").map_groups(build_shards, batch_format="pyarrow")
    return (
        parts.map_batches(add_merge_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__bucket")
        .map_groups(merge_graphs, batch_format="pyarrow")
    )


def _sharded_triples(ds, num_shards: int):
    """Shard assignment for ``triples_to_jsonld`` (split out for direct
    testing): → Dataset(triple columns + __g, __shard, __bucket)."""
    from .core.rdf_generation import RDF_FIRST, RDF_REST

    # three consumers (list-key scan, closure scan, the returned shard
    # pipeline) — checkpoint once or a lazy input (a full build_triples
    # chain!) re-executes extraction per pass
    t = triples_only(ds).materialize()

    def _gkey(g: pa.Array, node: pa.Array) -> pa.Array:
        # (graph, node) composite key — list semantics are per-graph
        return pc.binary_join_element_wise(g, node, "\x00")

    # Pass A — (graph, subj) keys of rdf:first/rest chain nodes. Small by
    # assumption (list closure ≪ corpus); collected once, broadcast once.
    def list_node_keys(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch.column("pred"), value_set=pa.array([RDF_FIRST, RDF_REST]))
        hit = batch.filter(mask)
        g = pc.fill_null(hit.column("graph").cast(pa.string()), "")
        return pa.table({"key": pc.unique(_gkey(g, hit.column("subj").cast(pa.string())))})

    ln_df = t.map_batches(
        list_node_keys, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    list_nodes = sorted(set(ln_df["key"])) if len(ln_df) else []

    closure_keys: list = list_nodes
    if list_nodes:
        import ray as _ray

        ln_ref = _ray.put(pa.array(list_nodes, pa.string()))

        # Pass B — subjects holding a reference to a chain node: their
        # FULL triple set must co-serialize with the chain (@list inlining
        # and referenced-once counting read the referrer's node).
        def referrer_keys(batch: pa.Table) -> pa.Table:
            kind = batch.column("obj_kind")
            is_node = pc.or_(
                pc.equal(kind, pa.scalar("iri")), pc.equal(kind, pa.scalar("bnode"))
            )
            hit = batch.filter(pc.fill_null(is_node, False))
            g = pc.fill_null(hit.column("graph").cast(pa.string()), "")
            ok = pc.is_in(
                _gkey(g, hit.column("obj").cast(pa.string())),
                value_set=_ray.get(ln_ref),
            )
            hit = hit.filter(ok)
            g2 = pc.fill_null(hit.column("graph").cast(pa.string()), "")
            return pa.table(
                {"key": pc.unique(_gkey(g2, hit.column("subj").cast(pa.string())))}
            )

        rf_df = t.map_batches(
            referrer_keys, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas()
        closure_keys = sorted(set(list_nodes) | set(rf_df["key"]))
        closure_ref = _ray.put(pa.array(closure_keys, pa.string()))

    num_buckets = num_shards * 2

    def add_shard(batch: pa.Table) -> pa.Table:
        from .ops.hashing import hash_strings

        g = pc.fill_null(batch.column("graph").cast(pa.string()), "")
        shard = (hash_strings(batch.column("subj"), seed=0) % np.uint64(num_shards)).astype(
            np.int64
        )
        if closure_keys:
            import ray as _ray

            in_closure = pc.is_in(
                _gkey(g, batch.column("subj").cast(pa.string())),
                value_set=_ray.get(closure_ref),
            )
            shard = np.where(in_closure.to_numpy(zero_copy_only=False), 0, shard)
        gh = hash_strings(g, seed=3)
        bucket = ((gh * np.uint64(num_shards) + shard.astype(np.uint64)) % np.uint64(num_buckets)).astype(np.int32)
        batch = batch.append_column("__g", g)
        batch = batch.append_column("__shard", pa.array(shard.astype(np.int32), pa.int32()))
        return batch.append_column("__bucket", pa.array(bucket, pa.int32()))

    return t.map_batches(add_shard, batch_format="pyarrow", zero_copy_batch=True)


def compact_docs(ds, context: dict, *, doc_col: str = "doc", options=None):
    """Compaction as a pipeline stage: apply a JSON-LD context to a column
    of (expanded) JSON document strings — shuffle-free per-row kernel,
    context shipped once in the task closure.
    → Dataset(original columns + compacted[json])."""
    from .core.api import compact as compact_api
    from .core.options import to_options

    opts = to_options(options)

    def apply(batch: pa.Table) -> pa.Table:
        out = []
        for blob in batch.column(doc_col).to_pylist():
            doc = json.loads(blob)
            out.append(json.dumps(compact_api(doc, context, opts), sort_keys=True))
        return batch.append_column("compacted", pa.array(out, pa.string()))

    return ds.map_batches(apply, batch_format="pyarrow", zero_copy_batch=True)


def frame_docs(ds, frame_doc: dict, *, doc_col: str = "doc", options=None):
    """Optional framing stage: apply a JSON-LD frame to a column of JSON
    document strings (e.g. ``triples_to_jsonld`` output) — pure per-row
    kernel, no shuffle; the frame itself is a small constant shipped in
    the task closure. → Dataset(original key columns + framed[json])."""
    from .core.api import frame as frame_api
    from .core.options import to_options

    opts = to_options(options)

    def apply(batch: pa.Table) -> pa.Table:
        framed = []
        for blob in batch.column(doc_col).to_pylist():
            doc = json.loads(blob)
            framed.append(json.dumps(frame_api(doc, frame_doc, opts), sort_keys=True))
        return batch.append_column("framed", pa.array(framed, pa.string()))

    return ds.map_batches(apply, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# checkpointed, resumable runs (SURVEY.md §4)
# ---------------------------------------------------------------------------


def _manifest_records(manifest_path: str) -> list[dict]:
    """Parse manifest lines, SKIPPING torn/partial ones: a writer killed
    mid-append leaves a truncated JSON line, and crashing on it would
    permanently break resume — the exact failure the checkpoint layer
    exists to survive. A shard whose 'done' record was torn is simply
    reprocessed (rmtree-on-rerun keeps that safe)."""
    recs: list[dict] = []
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            for line in f:
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue  # torn line from a killed writer
                if isinstance(rec, dict):
                    recs.append(rec)
    return recs


def _read_done_shards(manifest_path: str) -> set[int]:
    return {
        r["shard"]
        for r in _manifest_records(manifest_path)
        if r.get("status") == "done" and "shard" in r
    }


def _claim_shard(state_dir: str, shard: int, token: str) -> bool:
    """Exclusive per-shard claim so concurrent writers on one host never
    double-process a shard: an atomic hard-link wins the claim; a
    stale claim (its writer pid is dead — e.g. kill -9 mid-shard) is
    broken and taken over. ``token`` is ``pid:uuid`` per run_checkpointed
    call — liveness is judged by the pid alone, so two writer THREADS of
    one process see each other's claims as live instead of "stale own
    pid". At multi-node scale each node owns a disjoint shard list (the
    driver partitions the inputs), so host-local claim semantics are the
    deliberate design point here."""
    claim = os.path.join(state_dir, f"shard={shard}.claim")
    # the claim must never be visible without its token: a bare
    # O_CREAT|O_EXCL + write leaves a window where a concurrent writer
    # reads an EMPTY claim, parses pid 0, declares it stale and unlinks a
    # live claim (observed as a double-processed shard under thread
    # races). Write the token to a private temp file and hard-link it
    # into place — link() is atomic and fails with EEXIST when held.
    tmp = os.path.join(state_dir, f".claim-tmp-{token.replace(':', '-')}-{shard}")
    with open(tmp, "w") as f:
        f.write(token)
    try:
        # the whole examine-and-break sequence runs under the host-local
        # claims mutex: an unlink-based stale-break WITHOUT it races (two
        # stealers both diagnose stale → both unlink → the second unlink
        # removes the first's freshly-linked LIVE claim → double-claim).
        # flock serializes stealers across processes AND threads (each
        # holder has its own open file description); claim files still
        # carry the pid so staleness survives process crashes, and the
        # lock itself evaporates with its holder.
        with _claims_mutex(state_dir):
            for _ in range(2):
                try:
                    os.link(tmp, claim)
                    return True
                except FileExistsError:
                    content = _read_claim(claim)
                    if content == token:
                        return True  # already ours (re-entry)
                    if _claim_alive(content):
                        return False  # live concurrent writer
                    # stale claim from a killed run: safe to break — no
                    # other examiner can interleave under the mutex
                    try:
                        os.unlink(claim)
                    except FileNotFoundError:
                        pass
            return False
    finally:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass


class _claims_mutex:
    """Host-local advisory lock serializing claim examination/breaking
    (``flock`` on one lockfile per state dir). Multi-node clusters
    partition shards per node by design (see _claim_shard), so host-local
    exclusion is exactly the needed scope."""

    def __init__(self, state_dir: str):
        self._path = os.path.join(state_dir, ".claims.lock")

    def __enter__(self):
        import fcntl

        self._f = open(self._path, "a+")
        fcntl.flock(self._f.fileno(), fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc):
        import fcntl

        fcntl.flock(self._f.fileno(), fcntl.LOCK_UN)
        self._f.close()
        return False


def _read_claim(path: str) -> str:
    try:
        return open(path).read().strip()
    except OSError:
        return ""


def _claim_pid(content: str) -> int:
    try:
        return int(content.split(":", 1)[0] or "0")
    except ValueError:
        return 0


def _proc_start(pid: int) -> int:
    """Process start time (clock ticks since boot, /proc stat field 22) —
    disambiguates a RECYCLED pid from the original claim holder. 0 when
    /proc is unavailable (non-Linux): liveness then degrades to
    pid-only."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            data = f.read()
        return int(data.rsplit(b")", 1)[1].split()[19])
    except (OSError, IndexError, ValueError):
        return 0


def _claim_alive(content: str) -> bool:
    """A claim is live iff its pid exists AND (when recorded) the pid's
    start time matches — a pid recycled onto an unrelated long-lived
    process must not make a dead run's claim immortal (the shard would
    be skipped forever with no error)."""
    pid = _claim_pid(content)
    if not pid or not _pid_alive(pid):
        return False
    parts = content.split(":")
    if len(parts) >= 3 and parts[1].isdigit():
        recorded = int(parts[1])
        actual = _proc_start(pid)
        if recorded and actual and recorded != actual:
            return False  # same pid number, different process
    return True


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def _sweep_stale_claims(state_dir: str) -> None:
    """Unlink claim files whose writer died (kill -9 leaves them behind).
    Runs under the claims mutex: an unguarded sweep could interleave with
    a concurrent steal and remove a just-relinked live claim."""
    with _claims_mutex(state_dir):
        for name in os.listdir(state_dir):
            if not name.endswith(".claim"):
                continue
            path = os.path.join(state_dir, name)
            if not _claim_alive(_read_claim(path)):
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass


def _release_claim(state_dir: str, shard: int) -> None:
    try:
        os.unlink(os.path.join(state_dir, f"shard={shard}.claim"))
    except FileNotFoundError:
        pass


def run_checkpointed(
    input_files: list[str],
    out_dir: str,
    *,
    shard_size: int = 1,
    context_registry: dict | None = None,
    max_error_rate: float | None = None,
) -> dict:
    """Process input files in shards of ``shard_size`` files; each shard
    writes ``out/triples/shard={i}/`` + a manifest line. A killed run
    resumes by skipping shards already marked done (partial shard dirs
    from a kill -9 are cleared before rewrite, so rows never double
    count); concurrent writers on the same out_dir coordinate through
    per-shard claim files. ``max_error_rate`` is the errors-budget gate:
    when the cumulative error-row fraction exceeds it, the run raises
    after recording the finished shard — a corrupted input corpus fails
    fast instead of burning the cluster. Returns run metrics."""
    import uuid

    state_dir = os.path.join(out_dir, "_state")
    os.makedirs(state_dir, exist_ok=True)
    manifest_path = os.path.join(state_dir, "manifest.jsonl")
    # per-call claim identity: pid + process START TIME (recycled-pid
    # disambiguation) + uuid (thread disambiguation within one process)
    token = f"{os.getpid()}:{_proc_start(os.getpid())}:{uuid.uuid4().hex}"
    _sweep_stale_claims(state_dir)
    done = _read_done_shards(manifest_path)

    shards = [
        input_files[i : i + shard_size] for i in range(0, len(input_files), shard_size)
    ]
    # seed the error-budget counters from ALREADY-DONE shards so the gate
    # is genuinely cumulative across resumes (a fresh-counter resume
    # would forget a prior run's 9.9% error mass and never trip)
    metrics = {"shards_total": len(shards), "shards_skipped": len(done), "triples": 0, "errors": 0}
    for rec in _manifest_records(manifest_path):
        if rec.get("status") == "done" and rec.get("shard") in done:
            metrics["triples"] += int(rec.get("triples", 0))
            metrics["errors"] += int(rec.get("errors", 0))
    for i, files in enumerate(shards):
        if i in done:
            continue
        # re-read the manifest so shards completed by a CONCURRENT writer
        # since this run started are skipped, not reprocessed
        if i in _read_done_shards(manifest_path):
            metrics["shards_skipped"] += 1
            continue
        if not _claim_shard(state_dir, i, token):
            metrics["shards_skipped"] += 1
            continue
        try:
            if i in _read_done_shards(manifest_path):
                # completed between the manifest check and the claim
                metrics["shards_skipped"] += 1
                continue
            t0 = time.monotonic()
            ds = build_triples(files, context_registry=context_registry)
            shard_dir = os.path.join(out_dir, "triples", f"shard={i}")
            if os.path.isdir(shard_dir):
                # a previous attempt died mid-write: clear the partial shard or
                # the rerun's UUID-named files would double-count rows
                import shutil

                shutil.rmtree(shard_dir)
            ds.write_parquet(shard_dir)
            # cheap driver-side stats from the written shard footers
            import pyarrow.dataset as pads

            written = pads.dataset(shard_dir)
            n = written.count_rows()
            n_err = written.count_rows(filter=pads.field("pred").is_null())
            metrics["triples"] += n - n_err
            metrics["errors"] += n_err
            rec = {
                "shard": i,
                "status": "done",
                "files": files,
                "rows": n,
                "triples": n - n_err,
                "errors": n_err,
                "error_rate": round(n_err / n, 6) if n else 0.0,
                "wall_ms": int((time.monotonic() - t0) * 1000),
            }
            with open(manifest_path, "a") as f:
                f.write(json.dumps(rec) + "\n")
        finally:
            _release_claim(state_dir, i)
        total_rows = metrics["triples"] + metrics["errors"]
        if (
            max_error_rate is not None
            and total_rows
            and metrics["errors"] / total_rows > max_error_rate
        ):
            _write_metrics_parquet(manifest_path, state_dir)
            raise RuntimeError(
                f"error budget exceeded: {metrics['errors']}/{total_rows} rows "
                f"({metrics['errors'] / total_rows:.4f} > {max_error_rate}) — "
                f"finished shards are checkpointed; fix inputs and resume"
            )
    _write_metrics_parquet(manifest_path, state_dir)
    return metrics


def _write_metrics_parquet(manifest_path: str, state_dir: str) -> None:
    """Materialize the manifest as a metrics parquet (SURVEY.md §4:
    per-partition metrics alongside checkpoints, queryable by any engine)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    recs = _manifest_records(manifest_path)  # tolerant of a missing file
    if not recs:
        return
    table = pa.table(
        {
            "shard": pa.array([r["shard"] for r in recs], pa.int32()),
            "status": pa.array([r["status"] for r in recs], pa.string()),
            "n_files": pa.array([len(r["files"]) for r in recs], pa.int32()),
            "rows": pa.array([r["rows"] for r in recs], pa.int64()),
            "triples": pa.array([r["triples"] for r in recs], pa.int64()),
            "errors": pa.array([r["errors"] for r in recs], pa.int64()),
            "error_rate": pa.array(
                [
                    r.get("error_rate", (r["errors"] / r["rows"]) if r["rows"] else 0.0)
                    for r in recs
                ],
                pa.float64(),
            ),
            "wall_ms": pa.array([r["wall_ms"] for r in recs], pa.int64()),
        }
    )
    pq.write_table(table, os.path.join(state_dir, "metrics.parquet"))


def read_triples(out_dir: str):
    """Read back a checkpointed run's triples (error rows filtered at scan
    time via parquet predicate pushdown). Only shards the manifest marks
    DONE are read: a shard dir left by a writer killed mid-write (or one
    a concurrent writer is writing right now) would otherwise leak
    partial rows into the result with no error."""
    import ray.data

    base = os.path.join(out_dir, "triples")
    manifest = os.path.join(out_dir, "_state", "manifest.jsonl")
    done = _read_done_shards(manifest)
    paths: list[str] = []
    if os.path.isdir(base):
        for d in sorted(os.listdir(base)):
            if not d.startswith("shard=") or int(d.split("=", 1)[1]) not in done:
                continue
            shard_dir = os.path.join(base, d)
            paths.extend(
                os.path.join(shard_dir, f)
                for f in sorted(os.listdir(shard_dir))
                if f.endswith(".parquet")
            )
    if not paths:
        return ray.data.from_arrow(
            pa.table({c: pa.array([], pa.string()) for c in _TRIPLE_ID_COLS})
        )
    ds = ray.data.read_parquet(paths)
    return triples_only(ds)
