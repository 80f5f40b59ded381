"""The flagship KG-construction pipeline, Ray-Data-first.

    read_parquet(source_repos)                     # column-pruned scan
      → map_batches(emit_batch)                    # per file: extract →
                                                   # resolve+expand+
                                                   # node-map+toRdf
                                                   # [+URDNA2015 labels]
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

from .columns import pylist
from .core.rdf_generation import RDF_LANGSTRING, XSD_STRING
from .ops.shuffle import bucketed, key_runs
from .stages.linker import link_entities
from .stages.extract import SOURCE_COLS
from .stages.triples import TRIPLE_SCHEMA, canonical_labels, doc_hash, make_emit_batch


def build_triples(
    source: "Any",
    *,
    context_registry: dict | None = None,
    options=None,
    concurrency=None,
    batch_size: int = 1024,
    linker_dict_ref=None,
    override_num_blocks: int | None = None,
    canonical: bool = False,
):
    """source: path(s) to the source-repo Parquet table, or a Dataset.

    Returns a lazy Dataset of TRIPLE_SCHEMA rows (triples + error records,
    distinguished by ``pred IS NULL``) from one task per ``batch_size``
    source rows (``stages/triples.make_emit_batch``: extract → expand →
    node-map → toRdf → Arrow). 1024 rows span several of the parquet
    reader's blocks, so the task emits fewer, larger blocks: on 2000-file
    inputs that cut the CPU of build+materialize by a fifth against 256.
    A batch of 1024 heavy documents (``gen`` ``heavy_fraction=1.0``, about
    400 triples each) builds about 150 MiB of rows; pass a smaller
    ``batch_size`` for such corpora. ``context_registry`` / ``options``
    replace the offline context registry and the JSON-LD options of the
    kernel; ``linker_dict_ref`` (``ray.put(alias_to_iri)``) adds the
    entity-linker columns. ``canonical=True`` gives blank nodes their
    URDNA2015 labels inside the emit task (see
    :func:`canonicalize_bnodes`); otherwise they keep the kernel's
    ``_:{doc_hash}-b<n>`` labels. ``concurrency`` is accepted and
    ignored: ``perfbench/workloads.py`` still passes it.
    """
    import ray.data

    if isinstance(source, (str, list)):
        ds = ray.data.read_parquet(
            source,
            columns=list(SOURCE_COLS),
            override_num_blocks=override_num_blocks,
        )
    else:
        ds = source
    state_ref = None
    if context_registry is not None or options is not None:
        state_ref = ray.put((context_registry, options))
    # the detector registry is snapshotted here, on the driver:
    # register_detector mutations never reach worker processes otherwise
    ds = ds.map_batches(
        make_emit_batch(state_ref, canonical=canonical),
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
    import shutil

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
    return {
        r["shard"]
        for r in _manifest_records(manifest_path)
        if r.get("status") == "done" and "shard" in r
    }


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
    ``context_registry`` (it stamps the directory; the manifest says
    which shards are done), and a call with another stamp clears
    ``triples/`` and the manifest before any shard runs.

    Two shards are in flight at once, each on its own driver thread with
    its own Ray Data execution: the next shard's tasks fill the CPUs
    while the other starts up or drains (one shard's execution leaves
    the cluster idle for most of its wall). The first shard of a call
    runs alone, so the error budget judges one shard before two take the
    cluster, and a run killed soon after its first shard lands leaves
    the rest unfinished. A manifest line's ``wall_ms`` includes time
    shared with the other shard in flight.

    ``max_error_rate`` is the errors-budget gate: when the cumulative
    error-row fraction exceeds it, no further shard starts; the shard
    still in flight lands and is counted, ``metrics.parquet`` is
    written, and the run raises — a corrupted input corpus fails fast
    instead of burning the cluster. Returns run metrics."""
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

    state_dir = os.path.join(out_dir, "_state")
    os.makedirs(state_dir, exist_ok=True)
    manifest_path = os.path.join(state_dir, "manifest.jsonl")
    _sweep_stale_claims(state_dir)
    _adopt_or_clear(out_dir, run_stamp(input_files, shard_size, context_registry))
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

    def run_shard(i: int) -> tuple[int, int] | None:
        """Build and record shard ``i`` → (rows, error rows); None when a
        concurrent writer has done or holds it."""
        files = shards[i]
        # re-read the manifest so shards completed by a CONCURRENT writer
        # since this run started are skipped, not reprocessed
        if i in _read_done_shards(manifest_path) or not _claim_shard(state_dir, i, f"pid {os.getpid()}"):
            return None
        try:
            if i in _read_done_shards(manifest_path):
                # completed between the manifest check and the claim
                return None
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
            # one append per line, so the two threads' lines never interleave
            with open(manifest_path, "a") as f:
                f.write(json.dumps(rec) + "\n")
        finally:
            _release_claim(state_dir, i)
        return n, n_err

    def error_rate() -> float:
        total = metrics["triples"] + metrics["errors"]
        return metrics["errors"] / total if total else 0.0

    todo = (i for i in range(len(shards)) if i not in done)
    width = 1  # the first shard runs alone; two once one has landed
    tripped = False
    with ThreadPoolExecutor(max_workers=2) as pool:
        running: set = set()
        while True:
            while not tripped and len(running) < width:
                i = next(todo, None)
                if i is None:
                    break
                running.add(pool.submit(run_shard, i))
            if not running:
                break
            finished, running = wait(running, return_when=FIRST_COMPLETED)
            for fut in finished:
                counts = fut.result()
                if counts is None:
                    metrics["shards_skipped"] += 1
                    continue
                width = 2
                metrics["triples"] += counts[0] - counts[1]
                metrics["errors"] += counts[1]
                tripped = tripped or (max_error_rate is not None and error_rate() > max_error_rate)
    _write_metrics_parquet(manifest_path, state_dir)
    if tripped:
        raise RuntimeError(
            f"error budget exceeded: {metrics['errors']}/{metrics['triples'] + metrics['errors']} "
            f"rows ({error_rate():.4f} > {max_error_rate}) — "
            f"finished shards are checkpointed; fix inputs and resume"
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
            "error_rate": pa.array([r["error_rate"] for r in recs], pa.float64()),
            "wall_ms": pa.array([r["wall_ms"] for r in recs], pa.int64()),
        }
    )
    pq.write_table(table, os.path.join(state_dir, "metrics.parquet"))


def read_triples(out_dir: str):
    """Read back a checkpointed run's triples as ``TRIPLE_SCHEMA`` rows,
    error rows filtered, whether or not any shard is done. Only shards
    the manifest marks DONE are read: a shard dir left by a writer killed mid-write (or one
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
        return ray.data.from_arrow(TRIPLE_SCHEMA.empty_table())
    return triples_only(ray.data.read_parquet(paths, partitioning=None))
