"""Triple-emission stage: payload rows → (subj, pred, obj) triple rows.

One kernel (resolver + expand + node-map + toRdf fused per SURVEY.md §3.1
"engine shape") run as a plain ``map_batches`` task: the remote-context
loader cache is built ONCE per worker process (``stages/state.py``) and
reused across batches; everything else is pure per-document CPU.

Blank-node labels: the kernel prefixes the node-map issuer's ``_:b{n}``
as ``_:{doc_hash}-b{n}`` (doc_hash = sha1(doc_id)[:16]). That makes them
unique across documents and deterministic for one input, but they are
issuer labels, not canonical ones: the same graph written another way gets
other labels. ``pipeline.build_triples(..., canonical=True)`` adds real
URDNA2015 in the same task, with no shuffle, because extraction keeps one
payload per row (SURVEY.md §2.3); ``pipeline.canonicalize_bnodes`` does the
same through a doc_id shuffle for triples without document locality.
"""

from __future__ import annotations

import hashlib
import json

import pyarrow as pa

from ..core.context import is_well_formed_language  # noqa: F401 (re-export for kernels)
from ..core.api import expand
from ..core.errors import JsonLdError
from ..core.flattening import node_map_generation
from ..core.loader import CachingLoader, StaticLoader
from ..core.options import JsonLdOptions
from ..core.rdf_generation import node_map_to_rdf
from ..gen import CONTEXT_REGISTRY
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


def _doc_hash(doc_id: str) -> str:
    return hashlib.sha1(doc_id.encode("utf-8")).hexdigest()[:16]


def _term_str(term: tuple, doc_hash: str) -> str:
    if term[0] == "bnode":
        return f"_:{doc_hash}-{term[1]}"
    return term[1]


class JsonLdToTriples:
    """The kernel, called on one payload batch; :func:`make_triples_batch`
    wraps it as a Ray task function.

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
        # by the canonical JSON of the top-level @context; only valid when
        # no document base applies (the pipeline never sets one).
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
            key = json.dumps(doc["@context"], sort_keys=True, separators=(",", ":"))
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

    def __call__(self, batch: pa.Table) -> pa.Table:
        # triple-level columns built as Python lists (values originate in
        # the kernel); the 5 lineage columns are materialized via Arrow
        # `take` over doc-level arrays — per-row Python strings for them
        # would dominate allocator traffic at 20M+ triples/run
        tcols: dict[str, list] = {
            name: []
            for name in (
                "subj", "pred", "obj", "obj_kind", "obj_datatype", "obj_lang",
                "graph", "error_code", "error_message",
            )
        }
        doc_idx: list[int] = []  # row → input-payload index

        payloads = batch.column("payload").to_pylist()
        doc_ids = batch.column("doc_id").to_pylist()
        in_err_code = batch.column("error_code").to_pylist()
        in_err_msg = batch.column("error_message").to_pylist()

        for i, payload in enumerate(payloads):
            if payload is None:  # pass extraction error rows through
                self._emit_error(tcols, doc_idx, i, in_err_code[i], in_err_msg[i])
                continue
            try:
                doc = json.loads(payload)
                expanded = self._expand_cached(doc)
                node_map, issuer = node_map_generation(expanded)
                quads = node_map_to_rdf(node_map, issuer, self.options)
            except JsonLdError as e:
                self._emit_error(tcols, doc_idx, i, e.code, e.message[:500])
                continue
            except (ValueError, RecursionError) as e:
                self._emit_error(tcols, doc_idx, i, "processing failed", str(e)[:500])
                continue
            dh = _doc_hash(doc_ids[i])
            for s, p, o, g in quads:
                tcols["subj"].append(_term_str(s, dh))
                tcols["pred"].append(_term_str(p, dh))
                if o[0] == "lit":
                    tcols["obj"].append(o[1])
                    tcols["obj_kind"].append("literal")
                    tcols["obj_datatype"].append(o[2])
                    tcols["obj_lang"].append(o[3])
                else:
                    tcols["obj"].append(_term_str(o, dh))
                    tcols["obj_kind"].append(o[0])
                    tcols["obj_datatype"].append(None)
                    tcols["obj_lang"].append(None)
                tcols["graph"].append(_term_str(g, dh) if g is not None else None)
                tcols["error_code"].append(None)
                tcols["error_message"].append(None)
                doc_idx.append(i)

        indices = pa.array(doc_idx, pa.int32())
        arrays = []
        for name in TRIPLE_SCHEMA.names:
            if name in _META_COLS:
                arrays.append(batch.column(name).take(indices))
            else:
                arrays.append(pa.array(tcols[name], pa.string()))
        return pa.Table.from_arrays(arrays, schema=TRIPLE_SCHEMA)

    @staticmethod
    def _emit_error(
        tcols: dict, doc_idx: list[int], i: int, code: str | None, msg: str | None
    ) -> None:
        for name in ("subj", "pred", "obj", "obj_kind", "obj_datatype", "obj_lang", "graph"):
            tcols[name].append(None)
        tcols["error_code"].append(code or "unknown")
        tcols["error_message"].append(msg or "")
        doc_idx.append(i)


def make_triples_batch(state_ref=None):
    """The kernel as a ``map_batches`` task function. ``state_ref`` is
    ``ray.put((context_registry, options))``, or None for the default
    registry; each worker process builds the kernel once per ref."""

    def build() -> JsonLdToTriples:
        if state_ref is None:
            return JsonLdToTriples()
        import ray

        return JsonLdToTriples(*ray.get(state_ref))

    def triples_batch(batch: pa.Table) -> pa.Table:
        return worker_state("triples", state_ref, build)(batch)

    return triples_batch


triples_batch = make_triples_batch()
