"""Triple-emission stage: JSON-LD documents → (subj, pred, obj) triple rows.

One kernel (resolver + expand + node-map + toRdf fused per SURVEY.md §3.1
"engine shape") run as a plain ``map_batches`` task: the remote-context
loader cache is built ONCE per worker process (``stages/state.py``) and
reused across batches; everything else is pure per-document CPU.

Two entry points share :meth:`JsonLdToTriples.emit`, the per-document
step. :func:`make_emit_batch` is the task ``pipeline.build_triples`` runs:
per batch of source rows it extracts each file (``stages/extract.py``)
and passes the parsed documents straight to ``emit``, so no payload table
is built and no document is written to JSON and parsed again.
:func:`triples_batch` takes a ``PAYLOAD_SCHEMA`` table
(``make_extract_batch``'s output) and parses each payload first.

Blank-node labels: the kernel prefixes the node-map issuer's ``_:b{n}``
as ``_:{doc_hash}-b{n}`` (doc_hash = sha1(doc_id)[:16]). That makes them
unique across documents and deterministic for one input, but they are
issuer labels, not canonical ones: the same graph written another way gets
other labels. With ``canonical=True`` the emit task runs URDNA2015 on each
document's quads that hold a blank node and writes ``_:{doc_hash}-c14n{n}``
(:func:`canonical_labels`); ``pipeline.canonicalize_bnodes`` gives read-back
triples the same labels through a doc_id shuffle.
"""

from __future__ import annotations

import hashlib
import json

import pyarrow as pa

from ..columns import pylist
from ..core.api import expand
from ..core.errors import JsonLdError
from ..core.flattening import node_map_generation
from ..core.loader import CachingLoader, StaticLoader
from ..core.options import JsonLdOptions
from ..core.rdf_generation import node_map_to_rdf
from ..core.urdna2015 import canonicalize
from ..extract import DETECTORS
from ..gen import CONTEXT_REGISTRY
from .extract import SOURCE_COLS, extract_file
from .state import worker_state

TRIPLE_SCHEMA = pa.schema(
    [
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("obj_kind", pa.string()),  # iri | bnode | literal
        ("obj_datatype", pa.string()),
        ("obj_lang", pa.string()),
        ("graph", pa.string()),
        ("doc_id", pa.string()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("content_sha256", pa.string()),
        ("error_code", pa.string()),
        ("error_message", pa.string()),
    ]
)

_META_COLS = ("doc_id", "repo", "path", "commit", "content_sha256")
_ROW_COLS = [n for n in TRIPLE_SCHEMA.names if n not in _META_COLS]


def doc_hash(doc_id: str) -> str:
    return hashlib.sha1(doc_id.encode("utf-8")).hexdigest()[:16]


def canonical_labels(quads: list, dh: str) -> dict[str, str]:
    """One document's blank-node label → ``_:{dh}-c14n<n>``, its URDNA2015
    label prefixed with the document hash. The one labelling of both
    placements: the emit task (``canonical=True``) and
    ``pipeline._relabel_docs``."""
    return {b: f"_:{dh}-{c}" for b, c in canonicalize(quads).items()}


class _Rows:
    """One batch's output being built: the triple-level columns as Python
    lists and, per row, the index of its document. The five lineage
    columns are taken per row from document-level arrays at the end
    (Arrow ``take``): per-row Python strings for them would dominate
    allocator traffic at 20M+ triples/run."""

    def __init__(self, canonical: bool = False):
        self.canonical = canonical
        self.cols: dict[str, list] = {name: [] for name in _ROW_COLS}
        self.doc: list[int] = []

    def error(self, d: int, code: str | None, msg: str | None) -> None:
        for name in ("subj", "pred", "obj", "obj_kind", "obj_datatype", "obj_lang", "graph"):
            self.cols[name].append(None)
        self.cols["error_code"].append(code or "unknown")
        self.cols["error_message"].append(msg or "")
        self.doc.append(d)

    def quads(self, d: int, quads: list, doc_id: str) -> None:
        dh = doc_hash(doc_id)
        labels = None
        if self.canonical and any(t is not None and t[0] == "bnode" for q in quads for t in q):
            labels = canonical_labels(quads, dh)

        def term(t: tuple) -> str:
            if t[0] != "bnode":
                return t[1]
            return labels[t[1]] if labels is not None else f"_:{dh}-{t[1]}"

        c = self.cols
        subj, pred, obj, kind = c["subj"], c["pred"], c["obj"], c["obj_kind"]
        dt, lang, graph = c["obj_datatype"], c["obj_lang"], c["graph"]
        for s, p, o, g in quads:
            subj.append(term(s))
            pred.append(term(p))
            if o[0] == "lit":
                obj.append(o[1])
                kind.append("literal")
                dt.append(o[2])
                lang.append(o[3])
            else:
                obj.append(term(o))
                kind.append(o[0])
                dt.append(None)
                lang.append(None)
            graph.append(term(g) if g is not None else None)
        n = len(quads)
        c["error_code"].extend([None] * n)
        c["error_message"].extend([None] * n)
        self.doc.extend([d] * n)

    def table(self, lineage: dict) -> pa.Table:
        """``lineage`` maps each lineage column to a document-level array."""
        idx = pa.array(self.doc, pa.int32())
        return pa.Table.from_arrays(
            [
                lineage[n].take(idx).cast(pa.string())
                if n in lineage
                else pa.array(self.cols[n], pa.string())
                for n in TRIPLE_SCHEMA.names
            ],
            schema=TRIPLE_SCHEMA,
        )


class JsonLdToTriples:
    """The kernel: :meth:`emit` turns one document into rows;
    :meth:`__call__` runs it over a payload batch.

    ``context_registry`` maps URL → document for the offline resolver; in
    production this would be an HTTP-backed loader behind the same
    ``DocumentLoader`` protocol (reference lib/json/ld/document_loader.ex).
    """

    def __init__(
        self,
        context_registry: dict | None = None,
        options: JsonLdOptions | None = None,
        cache_size: int = 4096,
    ):
        registry = CONTEXT_REGISTRY if context_registry is None else context_registry
        self.loader = CachingLoader(StaticLoader(registry), maxsize=cache_size)
        base = options or JsonLdOptions()
        self.options = base.with_(document_loader=self.loader)
        # processed-context cache: real corpora repeat a handful of
        # @context values (schema.org etc.) across millions of documents —
        # reprocessing term definitions per document is pure waste. Keyed
        # by the repr of the top-level @context, which is injective on
        # parsed JSON values: the same context written in another key
        # order only costs a miss. Only valid when no document base
        # applies (the pipeline never sets one).
        self._ctx_cache: dict[str, object] = {}
        self._ctx_cache_max = cache_size

    def _expand_cached(self, doc):
        if (
            isinstance(doc, dict)
            and "@context" in doc
            and self.options.base is None
            # options that alter expansion semantics force the full
            # expand() path: the cached fast path never applies
            # expand_context and fixes ordered=False, so taking it for
            # such options would expand @context-bearing docs differently
            # from @context-free ones
            and self.options.expand_context is None
            and not self.options.ordered
        ):
            key = repr(doc["@context"])
            active = self._ctx_cache.get(key)
            if active is None:
                from ..core.context import Context

                active = Context(self.options).process(doc["@context"], None)
                if len(self._ctx_cache) >= self._ctx_cache_max:
                    self._ctx_cache.clear()
                self._ctx_cache[key] = active
            from ..core.expansion import expand_element

            body = {k: v for k, v in doc.items() if k != "@context"}
            expanded = expand_element(active, None, body, None, ordered=False)
            if isinstance(expanded, dict) and set(expanded) == {"@graph"}:
                expanded = expanded["@graph"]
            if expanded is None:
                return []
            return expanded if isinstance(expanded, list) else [expanded]
        return expand(doc, self.options)

    def emit(self, rows: _Rows, d: int, doc, doc_id: str, parse: bool) -> None:
        """Document ``d`` → its triple rows, or one error row. ``parse``:
        ``doc`` is JSON text, parsed here so invalid text is an error row."""
        try:
            if parse:
                doc = json.loads(doc)
            expanded = self._expand_cached(doc)
            node_map, issuer = node_map_generation(expanded)
            quads = node_map_to_rdf(node_map, issuer, self.options)
        except JsonLdError as e:
            rows.error(d, e.code, e.message[:500])
            return
        except (ValueError, RecursionError) as e:
            rows.error(d, "processing failed", str(e)[:500])
            return
        rows.quads(d, quads, doc_id)

    def __call__(self, batch: pa.Table) -> pa.Table:
        """A ``PAYLOAD_SCHEMA`` batch → ``TRIPLE_SCHEMA`` rows; extraction
        error rows (null payload) pass through."""
        rows = _Rows()
        payloads = pylist(batch.column("payload"))
        doc_ids = pylist(batch.column("doc_id"))
        in_err_code = pylist(batch.column("error_code"))
        in_err_msg = pylist(batch.column("error_message"))
        for i, payload in enumerate(payloads):
            if payload is None:
                rows.error(i, in_err_code[i], in_err_msg[i])
            else:
                self.emit(rows, i, payload, doc_ids[i], parse=True)
        return rows.table({n: batch.column(n) for n in _META_COLS})


def _kernel(state_ref) -> JsonLdToTriples:
    """This worker process's kernel for ``state_ref``
    (``ray.put((context_registry, options))``, or None for the default
    registry), built once per ref."""

    def build() -> JsonLdToTriples:
        if state_ref is None:
            return JsonLdToTriples()
        import ray

        return JsonLdToTriples(*ray.get(state_ref))

    return worker_state("triples", state_ref, build)


def make_emit_batch(state_ref=None, canonical: bool = False):
    """The one emit task of ``pipeline.build_triples``: a batch of source
    rows (``repo, path, commit, lang, content``) → ``TRIPLE_SCHEMA`` rows.
    Extraction and the kernel run per file in one loop; ``repo``, ``path``
    and ``commit`` are taken from the input's columns. The detector
    registry is snapshotted here, on the driver, as in
    ``make_extract_batch``."""
    snapshot = list(DETECTORS)

    def emit_batch(batch: pa.Table) -> pa.Table:
        kernel = _kernel(state_ref)
        rows = _Rows(canonical)
        doc_ids: list[str] = []
        doc_file: list[int] = []  # document → its row in ``batch``
        shas: list[str] = []
        for f, row in enumerate(zip(*(pylist(batch.column(c)) for c in SOURCE_COLS))):
            sha, docs, errors, parsed = extract_file(*row, snapshot)
            shas.append(sha)
            for doc_id, doc in docs:
                kernel.emit(rows, len(doc_ids), doc, doc_id, parse=not parsed)
                doc_ids.append(doc_id)
                doc_file.append(f)
            for doc_id, msg in errors:
                rows.error(len(doc_ids), "extraction failed", msg)
                doc_ids.append(doc_id)
                doc_file.append(f)
        files = pa.array(doc_file, pa.int32())
        lineage = {c: batch.column(c).take(files) for c in ("repo", "path", "commit")}
        lineage["doc_id"] = pa.array(doc_ids, pa.string())
        lineage["content_sha256"] = pa.array(shas, pa.string()).take(files)
        return rows.table(lineage)

    return emit_batch


def triples_batch(batch: pa.Table) -> pa.Table:
    """The default-registry kernel over one ``PAYLOAD_SCHEMA`` batch."""
    return _kernel(None)(batch)
