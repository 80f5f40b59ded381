"""Extraction stage: one source-repo file → its JSON-LD documents.

:func:`extract_file` is the per-file step. It mints the lineage every
triple row carries (``doc_id``, ``content_sha256``, computed once per file;
BASELINE.json per-row invariant) and returns the file's documents as
parsed JSON values. ``pipeline.build_triples`` runs it inside the one emit
task (``stages/triples.make_emit_batch``), which hands the parsed
documents straight to the kernel. :func:`make_extract_batch` is the same
step as a task of its own, writing each document as compact JSON into a
``PAYLOAD_SCHEMA`` table for ``stages/triples.triples_batch``: the
two-step form perfbench's kernel probe and the tests call.
"""

from __future__ import annotations

import hashlib
import json

import pyarrow as pa

from ..columns import pylist
from ..extract import DETECTORS, extract_documents

PAYLOAD_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("content_sha256", pa.string()),
        ("payload", pa.string()),  # compact JSON; null on error rows
        ("error_code", pa.string()),
        ("error_message", pa.string()),
    ]
)

SOURCE_COLS = ("repo", "path", "commit", "lang", "content")


def extract_file(repo, path, commit, lang, content, detectors: list):
    """One file → ``(content_sha256, docs, errors, parsed)``: ``docs`` is a
    list of ``(doc_id, document)``, ``errors`` of ``(doc_id, message)``,
    and ``parsed`` says whether the documents are parsed JSON values or a
    detector's JSON text (see ``extract.extract_documents``)."""
    sha = hashlib.sha256((content or "").encode("utf-8")).hexdigest()
    docs, errors, parsed = extract_documents(content, lang, path, detectors=detectors)
    base = f"{repo}@{commit}:{path}"
    return (
        sha,
        [(f"{base}#{i}", doc) for i, doc in enumerate(docs)],
        # '#!{i}' keeps error lineage unique per file (a shared '#!' id
        # conflated multiple errors from one file)
        [(f"{base}#!{i}", msg[:500]) for i, msg in enumerate(errors)],
        parsed,
    )


def make_extract_batch(detectors: list | None = None):
    """The extraction step as a ``map_batches`` task: source rows →
    ``PAYLOAD_SCHEMA`` rows. The detector registry is snapshotted here, on
    the caller's side (a module-global registry mutated by
    register_detector never reaches Ray worker processes on its own — the
    snapshot rides the task closure instead)."""
    snapshot = list(DETECTORS) if detectors is None else list(detectors)

    def extract_batch(batch: pa.Table) -> pa.Table:
        rows = []
        for row in zip(*(pylist(batch.column(c)) for c in SOURCE_COLS)):
            repo, path, commit = row[:3]
            sha, docs, errors, parsed = extract_file(*row, snapshot)
            for doc_id, doc in docs:
                payload = json.dumps(doc, separators=(",", ":")) if parsed else doc
                rows.append((doc_id, repo, path, commit, sha, payload, None, None))
            for doc_id, msg in errors:
                rows.append((doc_id, repo, path, commit, sha, None, "extraction failed", msg))
        cols = list(zip(*rows)) or [()] * len(PAYLOAD_SCHEMA)
        return pa.Table.from_arrays([pa.array(c, pa.string()) for c in cols], schema=PAYLOAD_SCHEMA)

    return extract_batch


# worker-local default (uses whatever registry the importing process has):
# pipelines prefer make_extract_batch(), which snapshots the DRIVER registry
extract_batch = make_extract_batch()
