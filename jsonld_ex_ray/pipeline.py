"""The flagship KG-construction pipeline, Ray-Data-first.

    parquet footers of source_repos                # one item per row group
      → map_batches(emit_batch)                    # per item: read the row
                                                   # group, then per file
                                                   # extract → expand →
                                                   # node-map → toRdf
                                                   # [+URDNA2015 labels]
      → [map_batches(link_batch)]                  # broadcast dictionary
      → [dedup / canonicalize / materialize]       # explicit shuffles
      or → write shard={i}/ from the emit task     # run_checkpointed

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
import shutil
import time
from itertools import chain
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .columns import pylist
from .core.rdf_generation import RDF_LANGSTRING, XSD_STRING
from .ops.shuffle import bucketed, key_runs, without_reservation
from .stages.linker import link_entities
from .stages.extract import SOURCE_COLS
from .stages.triples import TRIPLE_SCHEMA, canonical_labels, doc_hash, make_emit_batch


_BATCH_ROWS = 1024  # source rows per emit call


def build_triples(
    source: "Any",
    *,
    context_registry: dict | None = None,
    options=None,
    concurrency=None,
    batch_size: int = _BATCH_ROWS,
    linker_dict_ref=None,
    canonical: bool = False,
):
    """source: path(s) to the source-repo Parquet table, or a Dataset.

    Returns a lazy Dataset of TRIPLE_SCHEMA rows (triples + error records,
    distinguished by ``pred IS NULL``), emitted per ``batch_size`` source
    rows (``stages/triples.make_emit_batch``: extract → expand → node-map
    → toRdf → Arrow). A path source is read inside the emit task, one
    task per parquet row group (:func:`_row_groups`), so no source block
    crosses the object store; the trade is that a file of one row group
    is one task. No row group gives an empty ``TRIPLE_SCHEMA`` Dataset.
    1024-row batches cut build+materialize CPU by a fifth against 256;
    1024 heavy documents (``gen`` ``heavy_fraction=1.0``) build about
    150 MiB of rows, so pass a smaller ``batch_size`` there.
    ``context_registry`` / ``options`` replace the kernel's offline
    context registry and JSON-LD options; ``linker_dict_ref``
    (``ray.put(alias_to_iri)``) adds the entity-linker columns;
    ``canonical=True`` gives blank nodes their URDNA2015 labels in the
    emit task (see :func:`canonicalize_bnodes`), else they keep the
    kernel's ``_:{doc_hash}-b<n>``. ``concurrency`` is accepted and
    ignored: ``perfbench/workloads.py`` still passes it.
    """
    import ray.data

    state_ref = None
    if context_registry is not None or options is not None:
        state_ref = ray.put((context_registry, options))
    # the detector registry is snapshotted here, on the driver:
    # register_detector mutations never reach worker processes otherwise
    emit = make_emit_batch(state_ref, canonical=canonical)
    if isinstance(source, (str, list)):
        items = [{"path": path, "row_group": group} for path, group, _ in _row_groups(source)]
        if not items:
            return ray.data.from_arrow(TRIPLE_SCHEMA.empty_table())
        ds = _emit_tasks(items, emit, batch_size, lambda item, k, n_src, out: out)
    else:
        ds = source.map_batches(emit, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)
    if linker_dict_ref is not None:
        link = link_entities(linker_dict_ref)
        ds = ds.map_batches(link, batch_format="pyarrow", zero_copy_batch=True, batch_size=4096)
    return ds


def _row_groups(source) -> list[tuple[str, int, int]]:
    """(path, row group, rows) of each non-empty row group, from the
    footers of the parquet files that ``source`` (a path or a list of
    paths) names: directories walked as ``ray.data.read_parquet`` walks
    them (``_``/``.`` names skipped) and stage markers skipped too
    (:func:`_is_marker`), a file named twice read twice, every path
    absolute for the worker that reads it."""
    import pyarrow.dataset as pads

    groups = []
    for top in [source] if isinstance(source, str) else source:
        # an explicit schema lists the files without opening the first one,
        # which may be a marker
        files = pads.dataset(os.path.abspath(top), format="parquet", schema=pa.schema([])).files
        for path in [f for f in files if not _is_marker(f)]:
            meta = pq.read_metadata(path)
            groups += [(path, g, n) for g in range(meta.num_row_groups) if (n := meta.row_group(g).num_rows)]
    return groups


def _emit_tasks(items: list[dict], emit, batch_size: int, per_slice):
    """One task per work item (a dict naming a parquet ``path`` and
    ``row_group``; a one-row block, taken with ``batch_size=1``) that
    reads the row group and yields ``per_slice(item, k, source rows,
    emit(slice))`` per ``batch_size``-row slice ``k``."""
    import ray.data

    def emit_batch(block: pa.Table):
        item = {c: block.column(c)[0].as_py() for c in block.column_names}
        rows = pq.ParquetFile(item["path"]).read_row_group(item["row_group"], columns=list(SOURCE_COLS))
        for k, lo in enumerate(range(0, rows.num_rows, batch_size)):
            part = rows.slice(lo, batch_size)
            yield per_slice(item, k, part.num_rows, emit(part))

    blocks = [pa.table({k: [v] for k, v in item.items()}) for item in items]
    source = without_reservation(ray.data.from_arrow(blocks))
    return source.map_batches(emit_batch, batch_format="pyarrow", batch_size=1)


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


_TRIPLE_ID_COLS = ["graph", "subj", "pred", "obj", "obj_datatype", "obj_lang"]


_DEDUP_ORDER = [(c, "ascending") for c in ("subj", "pred", "obj", "graph", "obj_datatype", "obj_lang", "doc_id")]


def _distinct_triples(tbl: pa.Table) -> pa.Table:
    """``tbl``'s distinct triples (the six identity columns), sorted on
    (subj, pred, obj, graph, obj_datatype, obj_lang). Of a triple found in
    several documents the copy with the smallest ``doc_id`` is kept. The
    keep-mask is computed in polars (vectorized, row-encoded value
    equality: NULL distinct from "") and applied as an Arrow filter, so
    no table is converted and no string copied."""
    import polars as pl

    tbl = tbl.sort_by(_DEDUP_ORDER)
    m = pl.from_arrow(tbl.select(_TRIPLE_ID_COLS)).select(
        pl.struct(_TRIPLE_ID_COLS).is_first_distinct()
    )
    return tbl.filter(m.to_arrow().column(0).cast(pa.bool_()))


def dedup_triples(ds):
    """Exact global triple dedup (set semantics of RDF.Graph.add,
    reference decoder.ex:98-99, lifted cross-document): one bucketed
    shuffle (ops/shuffle.py) routed on ``subj``, each bucket deduped
    vectorized by :func:`_distinct_triples`. So the kept copy of a
    triple is always the one with the smallest ``doc_id``, and every
    bucket leaves sorted on (subj, pred, obj), the order
    :func:`adjacency_rows` reads.

    Routing on ``subj`` alone is exact because ``subj`` is one of the six
    identity columns: equal triples share it. The trade is skew: every
    triple of a hot subject lands in one bucket, as it does in
    :func:`materialize_graph`, and ``full_kg_run`` gets both results from
    the one routing. There is no map-side pre-dedup: a block's first copy
    of a triple need not be its smallest ``doc_id``.

    Identity is decided by the ACTUAL column values, never by the hash: a
    hash-only identity would let a crafted collision in ingested repo
    content silently delete a distinct triple. The hash only routes,
    where a collision is harmless co-location."""
    return bucketed(triples_only(ds), ["subj"], _distinct_triples)


_QUAD_COLS = ("subj", "pred", "obj", "obj_kind", "obj_datatype", "obj_lang")
_NUM_SHARDS = 32  # subject shards per graph in triples_to_jsonld


def _term(v, kind=None, dt=None, lang=None):
    """A triple-table value → the core's term tuple."""
    if v is None:
        return None
    if kind == "literal":
        return ("lit", v, dt or (RDF_LANGSTRING if lang else XSD_STRING), lang)
    return ("bnode", v[2:]) if v.startswith("_:") else ("iri", v)


def _relabel_docs(table: pa.Table) -> pa.Table:
    """URDNA2015-relabel every document of ``table``, which holds all rows
    of each of its doc_ids: a blank node in subj, pred, graph, a
    bnode-kind obj, or passed through to the linker's subj_canon/obj_canon
    becomes ``_:{sha1(doc_id)[:16]}-c14n<n>`` (``stages/triples
    .canonical_labels``, as in the emit task). Only documents holding one
    run the algorithm, and only columns holding one are rebuilt. Rows leave
    sorted on (doc_id, graph, subj, pred, obj)."""
    table = table.sort_by([("doc_id", "ascending")])
    bnode_obj = pc.equal(table.column("obj_kind"), "bnode")
    hits = {}  # column → mask of the rows whose value is relabeled
    for c in ("subj", "pred", "obj", "graph", "subj_canon", "obj_canon"):
        if c in table.schema.names:
            m = pc.starts_with(table.column(c), "_:")
            m = pc.and_(m, bnode_obj) if c.startswith("obj") else m
            hits[c] = pc.fill_null(m, False).to_numpy(zero_copy_only=False)
    any_hit = np.logical_or.reduce(list(hits.values()))
    starts, ends = key_runs(table, ["doc_id"])
    docs = [(a, b) for a, b in zip(starts.tolist(), ends.tolist()) if any_hit[a:b].any()]
    names = ["doc_id", "pred", "obj_kind", "obj_datatype", "obj_lang", *hits]
    cols = {c: pylist(table.column(c)) for c in names} if docs else {}
    for a, b in docs:
        rows = zip(*(cols[c][a:b] for c in (*_QUAD_COLS, "graph")))
        dh = doc_hash(cols["doc_id"][a])
        labels = canonical_labels(
            [(_term(s), _term(p), _term(o, k, dt, lg), _term(g)) for s, p, o, k, dt, lg, g in rows], dh
        )
        for c, m in hits.items():
            vals = cols[c]
            for i in (np.flatnonzero(m[a:b]) + a).tolist():
                vals[i] = labels.get(vals[i][2:]) or f"_:{dh}-{vals[i][2:]}"
    for c, m in hits.items():
        if m.any():
            f = table.schema.field(c)
            table = table.set_column(table.schema.get_field_index(c), f, pa.array(cols[c], f.type))
    return table.sort_by([(c, "ascending") for c in ("doc_id", "graph", "subj", "pred", "obj")])


def canonicalize_bnodes(ds):
    """URDNA2015 blank-node canonicalization (north rule): per document,
    the real RDFC-1.0 algorithm (core/urdna2015.py) assigns ``c14n<n>``
    labels that are invariant under any input relabeling; the doc hash
    prefixes them for global uniqueness before cross-document union.

    Two placements give the same labels (``stages/triples
    .canonical_labels``). Fresh emission should use
    ``build_triples(..., canonical=True)``: the emit task labels each
    document's quads before it writes them, with no shuffle. This
    function is for inputs without document locality, such as triples
    read back from parquet: one bucketed shuffle on ``doc_id``
    (ops/shuffle.py) gathers each document for :func:`_relabel_docs`.
    Error records are dropped."""
    return bucketed(triples_only(ds), ["doc_id"], _relabel_docs)


def materialize_graph(ds):
    """Graph materialize: one adjacency row per subject (SURVEY.md §2.5)
    from one bucketed shuffle (ops/shuffle.py) of the ``(subj, pred,
    obj)`` columns routed on ``subj``, each bucket sorted and built by
    :func:`adjacency_rows`. There is no map-side combine: the triples
    themselves cross the shuffle, and every triple of a hot subject lands
    in one bucket, as in :func:`dedup_triples`. ``full_kg_run`` calls the
    same kernel on the already sorted buckets of its dedup."""
    spo = triples_only(ds).select_columns(["subj", "pred", "obj"])
    return bucketed(spo, ["subj"], _sorted_adjacency)


_SPO_ORDER = [("subj", "ascending"), ("pred", "ascending"), ("obj", "ascending")]


def _sorted_adjacency(triples: pa.Table) -> pa.Table:
    return adjacency_rows(triples.sort_by(_SPO_ORDER))


def adjacency_rows(triples: pa.Table) -> pa.Table:
    """``(subj, degree, adjacency)`` rows, one per subject of ``triples``,
    which holds every triple of each of its subjects, sorted on (subj,
    pred, obj) or at least grouped on ``subj`` and in (pred, obj) order
    within each subject. ``adjacency`` is the JSON list of the subject's
    ``[pred, obj]`` pairs; only that dump stays Python (it must escape
    arbitrary literal content)."""
    preds = pylist(triples.column("pred"))
    objs = pylist(triples.column("obj"))
    starts, ends = key_runs(triples, ["subj"])
    adjs = [
        json.dumps([[preds[j], objs[j]] for j in range(lo, hi)], separators=(",", ":"))
        for lo, hi in zip(starts, ends)
    ]
    return pa.table(
        {
            "subj": triples.column("subj").take(pa.array(starts, pa.int64())),
            "degree": pa.array(ends - starts, pa.int64()),
            "adjacency": pa.array(adjs, pa.string()),
        }
    )


def _quads_of(group: pa.Table) -> list:
    return [
        (_term(s), _term(p), _term(o, k, dt, lg), None)
        for s, p, o, k, dt, lg in zip(*(pylist(group.column(c)) for c in _QUAD_COLS))
    ]


def triples_to_jsonld(ds):
    """Inverse direction (SURVEY.md §2.5 fromRdf grouping): triple rows →
    expanded JSON-LD node documents, one row per graph.
    → Dataset(graph, doc[json string], n_nodes).

    Skew-safe shape: the only cross-subject semantics in RDF→JSON-LD
    conversion is rdf:first/rdf:rest list reconstruction (bare
    ``{"@id"}`` reference nodes are never emitted — see
    core/rdf_serialization.py:232), so:

    - every subject OUTSIDE the list closure shards by
      ``hash(subj) % _NUM_SHARDS`` and serializes independently (exact:
      its output is a function of its own triples);
    - only the LIST CLOSURE of each graph routes whole to that graph's
      shard 0: the rdf:first/rest chain nodes plus every subject holding
      a reference to one (the referencing subject's full triple set must
      co-serialize so reference counts and @list inlining are exact).
      A list IN THE DEFAULT GRAPH therefore no longer drags the whole
      cross-document union into one group — only its chain + referrers.
      Partitioning assumption: the list closure is a small fraction of
      the corpus (lists are document-structure, not bulk data);
    - a final bucketed merge combines the ≤ _NUM_SHARDS node-array parts
      per graph.

    Both shuffles are bucketed (ops/shuffle.py) — on (graph, subject
    shard), then on graph — with graphs looped inside each bucket. The
    default graph holding 90%+ of the corpus never lands in a single
    call (its subject shards spread across buckets)."""
    from .core.options import JsonLdOptions
    from .core.rdf_serialization import serialize_rdf

    sharded = _sharded_triples(ds, _NUM_SHARDS)

    def build_shards(group: pa.Table) -> pa.Table:
        # loop the distinct (graph, shard) cells INSIDE the bucket
        group = group.sort_by([("__g", "ascending"), ("__shard", "ascending")])
        starts, ends = key_runs(group, ["__g", "__shard"])
        parts_out, counts = [], []
        for lo, hi in zip(starts, ends):
            docs = serialize_rdf(_quads_of(group.slice(lo, hi - lo)), JsonLdOptions(ordered=True))
            parts_out.append(json.dumps(docs))
            counts.append(len(docs))
        return pa.table(
            {
                "graph": group.column("__g").take(pa.array(starts, pa.int64())),
                "part": pa.array(parts_out, pa.string()),
                "n_nodes": pa.array(counts, pa.int64()),
            }
        )

    def merge_graphs(group: pa.Table) -> pa.Table:
        group = group.sort_by([("graph", "ascending")])
        blobs = pylist(group.column("part"))
        starts, ends = key_runs(group, ["graph"])
        docs_out, counts = [], []
        for lo, hi in zip(starts, ends):
            nodes: list = []
            for blob in blobs[lo:hi]:
                nodes.extend(json.loads(blob))
            nodes.sort(key=lambda n: n["@id"])  # same order as sorted node-map keys
            docs_out.append(json.dumps(nodes, sort_keys=True))
            counts.append(len(nodes))
        return pa.table(
            {
                "graph": group.column("graph").take(pa.array(starts, pa.int64())),
                "doc": pa.array(docs_out, pa.string()),
                "n_nodes": pa.array(counts, pa.int64()),
            }
        )

    parts = bucketed(sharded, ["__g", "__shard"], build_shards)
    return bucketed(parts, ["graph"], merge_graphs)


def _sharded_triples(ds, num_shards: int):
    """Shard assignment for ``triples_to_jsonld`` (split out for direct
    testing): → Dataset(triple columns + __g, __shard)."""
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
        batch = batch.append_column("__g", g)
        return batch.append_column("__shard", pa.array(shard.astype(np.int32), pa.int32()))

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
        for blob in pylist(batch.column(doc_col)):
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
        for blob in pylist(batch.column(doc_col)):
            doc = json.loads(blob)
            framed.append(json.dumps(frame_api(doc, frame_doc, opts), sort_keys=True))
        return batch.append_column("framed", pa.array(framed, pa.string()))

    return ds.map_batches(apply, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# checkpointed, resumable runs (SURVEY.md §4)
# ---------------------------------------------------------------------------


def run_stamp(source, *options) -> str | None:
    """What a checkpoint was built from: every source file's absolute
    path, size and ``mtime_ns`` (directories walked, in source order),
    ``options``' ``repr``, and the engine digest. None for a
    Dataset source: its rows cannot be stamped, so nothing built from
    one is ever reused."""
    if not isinstance(source, (str, list)):
        return None
    from .gen import _source_digest

    h = hashlib.sha256()
    for top in [source] if isinstance(source, str) else source:
        top = os.path.abspath(top)
        paths = [top]
        if os.path.isdir(top):
            paths = sorted(os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            st = os.stat(path)
            h.update(f"{path}\0{st.st_size}\0{st.st_mtime_ns}\n".encode())
    # a dict's repr follows insertion order: an equal dict built in
    # another order only costs a rebuild
    h.update(repr(options).encode())
    h.update(_source_digest("**/*.py").encode())
    return h.hexdigest()


def _stage_dir(out_dir: str, name: str, stamp: str | None) -> tuple[str, bool]:
    """(path, already_done): done iff the sibling marker holds ``stamp``;
    otherwise the marker and any directory are cleared. The marker is a
    SIBLING file so the stage dir stays pure parquet for readers."""
    path = os.path.join(out_dir, name)
    marker = path + "._SUCCESS"
    try:
        with open(marker) as f:
            if stamp is not None and f.read() == stamp:
                return path, True
        os.unlink(marker)  # first: a torn rebuild must never look done
    except FileNotFoundError:
        pass
    if os.path.isdir(path):
        shutil.rmtree(path)
    return path, False


def _mark_done(path: str, stamp: str | None) -> None:
    """Write ``path``'s marker via a per-process temp file and a rename:
    concurrent writers of one stamp never tear it."""
    tmp = f"{path}._SUCCESS.{os.getpid()}"
    with open(tmp, "w") as f:
        f.write(stamp or "")
    os.replace(tmp, path + "._SUCCESS")


def _is_marker(path: str) -> bool:
    """Whether ``path`` is a stage marker or a marker's temp file
    (:func:`_mark_done`): an output directory keeps them beside its stage
    directories, so a walk for parquet files skips them."""
    return "._SUCCESS" in os.path.basename(path)


def _then(stamp: str | None, *parts) -> str | None:
    """A downstream stage's stamp: its upstream ``stamp`` plus ``parts``."""
    if stamp is None:
        return None
    return hashlib.sha256(repr((stamp, *parts)).encode()).hexdigest()


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
    return {r["shard"] for r in _manifest_records(manifest_path) if r.get("status") == "done" and "shard" in r}


_held: dict[str, int] = {}  # claim path → the descriptor holding its lock


def _claim(path: str, *, wait: bool = False) -> bool:
    """Take an exclusive ``flock`` on ``path`` (created if missing) and
    hold it until :func:`_release`; False when another descriptor holds
    it and ``wait`` is False. The kernel drops the lock when its
    descriptor closes, also when its process is killed, so a claim is
    held exactly as long as its writer lives (``os.open`` descriptors
    are not inherited by exec'd children). A lock taken on a file its
    releaser unlinked meanwhile guards nothing: the locked inode must be
    the one now at ``path``, else the claim is retried."""
    import fcntl

    while True:
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | (0 if wait else fcntl.LOCK_NB))
        except BlockingIOError:
            os.close(fd)
            return False
        try:
            if os.path.samestat(os.fstat(fd), os.stat(path)):
                _held[path] = fd
                return True
        except FileNotFoundError:
            pass  # unlinked by its releaser since the open
        os.close(fd)


def _release(path: str) -> None:
    """Drop the claim on ``path``: unlink the file while still holding
    it, then close, so whoever locks the old file next sees it gone."""
    fd = _held.pop(path)
    try:
        os.unlink(path)
    finally:
        os.close(fd)


def _claim_shard(state_dir: str, shard: int, token: str) -> bool:
    """Claim ``shard`` so concurrent writers on one host never
    double-process it; False while another writer, thread or process,
    holds it. ``token`` is written into the claim file as a label for a
    reader of ``_state/``; nothing decides on it. At multi-node scale
    each node owns a disjoint shard list (the driver partitions the
    inputs), so host-local claims are the deliberate design point."""
    path = os.path.join(state_dir, f"shard={shard}.claim")
    if not _claim(path):
        return False
    fd = _held[path]
    os.ftruncate(fd, 0)
    os.write(fd, token.encode())
    return True


def _release_claim(state_dir: str, shard: int) -> None:
    _release(os.path.join(state_dir, f"shard={shard}.claim"))


def _sweep_stale_claims(state_dir: str) -> None:
    """Remove the claim files of dead writers (kill -9 leaves them
    behind): claim and release every one nobody holds."""
    for name in os.listdir(state_dir):
        path = os.path.join(state_dir, name)
        if name.endswith(".claim") and _claim(path):
            _release(path)


def _land_shard(state_dir: str, manifest_path: str, rec: dict) -> None:
    """Append the manifest line ``rec``, then drop its shard's claim."""
    with open(manifest_path, "a") as f:
        f.write(json.dumps(rec) + "\n")
    _release_claim(state_dir, rec["shard"])


def _write_shards(items: list[dict], triples_dir: str, context_registry):
    """One Ray Data execution over the work items (path, row_group,
    shard, part), yielding (shard, source rows, rows, error rows) per
    slice a task emitted and wrote to ``shard={shard}/part-{part}-{k}``.
    Names come from the item, never the task, so a retried task, or one
    of a stopped run still finishing, rewrites its own files with the
    same rows. Closing the generator stops the execution."""
    import ray

    if not items:
        return
    cols = ("shard", "source_rows", "rows", "errors")
    emit = make_emit_batch(None if context_registry is None else ray.put((context_registry, None)))

    def write_part(item: dict, k: int, n_src: int, out: pa.Table) -> pa.Table:
        if out.num_rows:
            name = f"shard={item['shard']}/part-{item['part']:05d}-{k:05d}.parquet"
            pq.write_table(out, os.path.join(triples_dir, name))
        return pa.table(dict(zip(cols, ([item["shard"]], [n_src], [out.num_rows], [out.column("pred").null_count]))))

    ds = _emit_tasks(items, emit, _BATCH_ROWS, write_part)
    batches = iter(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    try:
        for batch in batches:
            yield from zip(*(pylist(batch.column(c)) for c in cols))
    finally:
        batches.close()


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
    per-shard ``flock`` claims, which the kernel releases when a writer
    dies. Resume needs the same run: the ``triples._SUCCESS`` marker
    holds the :func:`run_stamp` of the inputs, ``shard_size`` and
    ``context_registry``, and a call with another stamp clears
    ``triples/`` and the manifest before any shard runs.

    Every shard not yet done is claimed first, and its source rows are
    summed from the parquet footers. One Ray Data execution then writes
    all claimed shards (:func:`_write_shards`). A shard lands when its
    counted source rows reach that sum (at once for a shard of no rows):
    :func:`_land_shard` appends its manifest line and drops its claim.
    ``wall_ms`` runs from the execution's start to the landing.

    ``max_error_rate`` is the errors-budget gate, checked as each shard
    lands: when the cumulative error-row fraction exceeds it, the
    execution stops, ``metrics.parquet`` is written and the run raises,
    so a corrupted corpus fails fast; a resume redoes the shards that
    had not landed. Returns run metrics."""
    state_dir = os.path.join(out_dir, "_state")
    os.makedirs(state_dir, exist_ok=True)
    manifest_path = os.path.join(state_dir, "manifest.jsonl")
    _sweep_stale_claims(state_dir)
    _adopt_or_clear(out_dir, run_stamp(input_files, shard_size, context_registry))
    recs = [r for r in _manifest_records(manifest_path) if r.get("status") == "done" and "shard" in r]
    done = {r["shard"] for r in recs}
    shards = [input_files[i : i + shard_size] for i in range(0, len(input_files), shard_size)]
    token = f"pid {os.getpid()}"
    claimed = [i for i in range(len(shards)) if i not in done and _claim_shard(state_dir, i, token)]
    # re-read the manifest under the claims: a shard a concurrent writer
    # finished since the read above is released, not reprocessed
    late = _read_done_shards(manifest_path)
    for i in late.intersection(claimed):
        _release_claim(state_dir, i)
    claimed = [i for i in claimed if i not in late]
    # seed the error-budget counters from ALREADY-DONE shards so the gate
    # is genuinely cumulative across resumes
    metrics = {"shards_total": len(shards), "shards_skipped": len(shards) - len(claimed)}
    metrics |= {k: sum(int(r.get(k, 0)) for r in recs) for k in ("triples", "errors")}

    held, tripped, counts = set(claimed), False, None
    try:
        todo, items = {}, []  # shard → [source rows not yet counted, rows, error rows]
        for i in claimed:
            shard_dir = os.path.join(out_dir, "triples", f"shard={i}")
            shutil.rmtree(shard_dir, ignore_errors=True)  # a died attempt's partial shard
            os.makedirs(shard_dir)
            groups = _row_groups(shards[i])
            todo[i] = [sum(n for *_, n in groups), 0, 0]
            items += [{"path": p, "row_group": g, "shard": i, "part": k} for k, (p, g, _) in enumerate(groups)]
        t0 = time.monotonic()
        counts = _write_shards(items, os.path.join(out_dir, "triples"), context_registry)
        for i, n_src, n, n_err in chain(((i, 0, 0, 0) for i in claimed if not todo[i][0]), counts):
            c = todo[i]
            c[:] = c[0] - n_src, c[1] + n, c[2] + n_err
            if c[0]:
                continue
            _, n, n_err = c
            rec = {"shard": i, "status": "done", "files": shards[i], "rows": n, "triples": n - n_err, "errors": n_err}
            rec["error_rate"] = round(n_err / n, 6) if n else 0.0
            _land_shard(state_dir, manifest_path, dict(rec, wall_ms=int((time.monotonic() - t0) * 1000)))
            held.discard(i)
            metrics["triples"] += n - n_err
            metrics["errors"] += n_err
            total = metrics["triples"] + metrics["errors"]
            if max_error_rate is not None and total and metrics["errors"] / total > max_error_rate:
                tripped = True
                break
    finally:
        if counts is not None:
            counts.close()
        for i in held:
            _release_claim(state_dir, i)
    _write_metrics_parquet(manifest_path, state_dir)
    if tripped:
        raise RuntimeError(
            f"error budget exceeded: {metrics['errors']}/{total} rows ({metrics['errors'] / total:.4f} > "
            f"{max_error_rate}) — finished shards are checkpointed; fix inputs and resume"
        )
    return metrics


def _adopt_or_clear(out_dir: str, stamp: str | None) -> None:
    """Keep ``out_dir``'s shards only when the ``triples`` marker holds
    ``stamp``; otherwise clear them, the manifest and the metrics, and
    mark ``triples`` with ``stamp``. Under one waiting claim, so
    concurrent writers of one run check and mark it once; a ``.claim``
    file, so the sweep removes one a killed writer left."""
    state_dir = os.path.join(out_dir, "_state")
    lock = os.path.join(state_dir, "adopt.claim")
    _claim(lock, wait=True)
    try:
        path, adopted = _stage_dir(out_dir, "triples", stamp)
        if adopted:
            return
        for name in ("manifest.jsonl", "metrics.parquet"):
            try:
                os.unlink(os.path.join(state_dir, name))
            except FileNotFoundError:
                pass
        _mark_done(path, stamp)
    finally:
        _release(lock)


_METRICS_SCHEMA = pa.schema(
    {"shard": pa.int32(), "status": pa.string(), "n_files": pa.int32(), "rows": pa.int64()}
    | {"triples": pa.int64(), "errors": pa.int64(), "error_rate": pa.float64(), "wall_ms": pa.int64()}
)


def _write_metrics_parquet(manifest_path: str, state_dir: str) -> None:
    """Materialize the manifest as a metrics parquet (SURVEY.md §4:
    per-partition metrics alongside checkpoints, queryable by any engine)."""
    recs = _manifest_records(manifest_path)  # tolerant of a missing file
    if recs:
        rows = [dict(r, n_files=len(r["files"])) for r in recs]
        pq.write_table(pa.Table.from_pylist(rows, _METRICS_SCHEMA), os.path.join(state_dir, "metrics.parquet"))


def read_triples(out_dir: str):
    """Read back a checkpointed run's triples as ``TRIPLE_SCHEMA`` rows,
    error rows filtered, whether or not any shard is done. Only shards
    the manifest marks DONE are read: a shard dir left by a writer killed mid-write (or one
    a concurrent writer is writing right now) would otherwise leak
    partial rows into the result with no error."""
    import ray.data

    done = _read_done_shards(os.path.join(out_dir, "_state", "manifest.jsonl"))
    dirs = [os.path.join(out_dir, "triples", f"shard={i}") for i in sorted(done)]
    dirs = [d for d in dirs if os.path.isdir(d)]
    paths = [os.path.join(d, f) for d in dirs for f in sorted(os.listdir(d)) if f.endswith(".parquet")]
    if not paths:
        return ray.data.from_arrow(TRIPLE_SCHEMA.empty_table())
    return triples_only(ray.data.read_parquet(paths, partitioning=None))
