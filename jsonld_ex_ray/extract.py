"""JSON-LD payload extraction from source-repo file content.

The reference scopes HTML/script extraction out (README.md:29-32); the north
rule makes it ours: scan each file's ``content`` for embedded JSON-LD —

- whole-file ``.jsonld`` / ``.json`` payloads,
- HTML ``<script type="application/ld+json">`` blocks,
- fenced code blocks in markdown,
- ``@context``-bearing JSON objects embedded in source text.

Pure per-row function; the pipeline runs it per file inside its emit
task (``stages/``), which takes the parsed documents as they are.
Extraction failures yield error records, never exceptions (per-row errors
must not kill a 10^12-file job).
"""

from __future__ import annotations

import json
import re
from typing import Any

# case-insensitive; tolerates attribute order/whitespace and media-type
# parameters (e.g. ";profile=...#context", remote-doc #t0013); non-greedy body
_SCRIPT_RE = re.compile(
    r"<script[^>]*type\s*=\s*[\"']application/ld\+json[^\"']*[\"'][^>]*>(.*?)</script\s*>",
    re.IGNORECASE | re.DOTALL,
)
_FENCE_RE = re.compile(r"```(?:json(?:ld)?|json-ld)\s*\n(.*?)```", re.DOTALL)
_CONTEXT_TOKEN = '"@context"'

# scan caps — bound worst-case cost per row at corpus scale
MAX_CONTENT_BYTES = 8 * 1024 * 1024  # CHARACTER cap; beyond: error record

_SCRIPT_CLOSE_RE = re.compile(r"</script", re.IGNORECASE)
MAX_EMBEDDED_CANDIDATES = 64  # "@context" occurrences scanned per file
MAX_BACKTRACK = 16384  # chars walked back to find the enclosing "{"

_WHOLE_FILE_LANGS = frozenset({"jsonld", "json", "json-ld"})
_HTML_LANGS = frozenset({"html", "htm", "xhtml"})
_FENCE_LANGS = frozenset({"markdown", "md", "rst", "text"})

_decoder = json.JSONDecoder()


def _jsonld_like(doc: Any) -> bool:
    """Does a parsed JSON value look like JSON-LD? (precision filter for
    noise rows — FIXTURES.md archetype A10)."""
    if isinstance(doc, dict):
        return any(k in doc for k in ("@context", "@id", "@type", "@graph"))
    if isinstance(doc, list):
        return len(doc) > 0 and all(isinstance(d, dict) for d in doc) and any(
            _jsonld_like(d) for d in doc
        )
    return False


# Pluggable detector registry (the engine's counterpart of the reference's
# RDF.Serialization.Format registration, lib/json_ld.ex:10 / SURVEY.md
# §2.10): entries are (name, fn(content, lang, ext) -> (payloads, errors) |
# None). A detector returning None passes to the next; a tuple ends the
# chain. register_detector(prepend=True) lets deployments add file-kind
# detectors (e.g. notebook cells, YAML frontmatter) without forking.
DETECTORS: list[tuple[str, object]] = []


def register_detector(name: str, fn, prepend: bool = False) -> None:
    entry = (name, fn)
    if prepend:
        DETECTORS.insert(0, entry)
    else:
        DETECTORS.append(entry)


def extract_payloads(
    content: str, lang: str, path: str, detectors: list | None = None
) -> tuple[list[str], list[str]]:
    """→ (payload_json_strings, errors): :func:`extract_documents` with
    every parsed document written as compact JSON."""
    docs, errors, parsed = extract_documents(content, lang, path, detectors)
    return ([json.dumps(d, separators=(",", ":")) for d in docs] if parsed else docs), errors


def extract_documents(
    content: str, lang: str, path: str, detectors: list | None = None
) -> tuple[list, list[str], bool]:
    """→ (documents, errors, parsed). Deterministic, bounded. The built-in
    scanners return parsed JSON values (``parsed`` True). A registered
    detector's payloads are JSON text and come back as they are
    (``parsed`` False): the emit task parses them inside its per-document
    error handling. ``detectors`` overrides the module registry (pipelines
    snapshot the DRIVER's registry and ship it to workers — a bare module
    global never leaves the driver process)."""
    errors: list[str] = []
    if content is None:
        # a null content cell is data loss the lineage must record, not
        # silently skip (per-row errors must never vanish)
        return [], ["missing content (null cell or undecodable source)"], True
    if len(content) > MAX_CONTENT_BYTES:
        # the cap counts CHARACTERS (UTF-8 byte length would cost an
        # extra full encode on the hot path; multibyte content may reach
        # ~4x this in bytes — the bound exists to catch pathological
        # inputs, not to be a precise byte quota)
        return [], [f"content exceeds {MAX_CONTENT_BYTES} characters; skipped"], True

    lang = (lang or "").lower()
    path = path or ""
    ext = path.rsplit(".", 1)[-1].lower() if "." in path else ""

    for _, detector in DETECTORS if detectors is None else detectors:
        result = detector(content, lang, ext)
        if result is not None:
            payloads, detector_errors = result
            return payloads, detector_errors, False

    # 1. whole-file JSON / JSON-LD
    if lang in _WHOLE_FILE_LANGS or ext in ("jsonld", "json"):
        try:
            doc = json.loads(content)
        except ValueError as e:
            return [], [f"invalid JSON: {e}"], True
        if _jsonld_like(doc):
            return [doc], errors, True
        return [], errors, True  # plain JSON without JSON-LD markers: noise

    docs: list = []

    # 2. HTML script blocks
    # gate: bounded-prefix check, then a compiled IGNORECASE search — never
    # content.lower(), which allocates a full copy of an up-to-8M string
    # per row just to answer a yes/no
    if (
        lang in _HTML_LANGS
        or ext in ("html", "htm", "xhtml")
        or "<script" in content[:4096].lower()
        or _SCRIPT_CLOSE_RE.search(content) is not None
    ):
        for m in _SCRIPT_RE.finditer(content):
            block = m.group(1).strip()
            if not block:
                continue
            try:
                doc = json.loads(block)
            except ValueError as e:
                errors.append(f"invalid script JSON at {m.start()}: {e}")
                continue
            docs.append(doc)
        if docs or errors:
            return docs, errors, True

    # 3. fenced code blocks (markdown-ish)
    if lang in _FENCE_LANGS or ext in ("md", "markdown", "rst"):
        for m in _FENCE_RE.finditer(content):
            block = m.group(1).strip()
            try:
                doc = json.loads(block)
            except ValueError:
                continue  # fences legitimately hold non-JSON; not an error
            if _jsonld_like(doc):
                docs.append(doc)
        if docs:
            return docs, errors, True

    # 4. @context-bearing objects embedded in source text
    spans: list[tuple[int, int]] = []
    idx = 0
    candidates = 0
    while candidates < MAX_EMBEDDED_CANDIDATES:
        pos = content.find(_CONTEXT_TOKEN, idx)
        if pos == -1:
            break
        candidates += 1
        idx = pos + len(_CONTEXT_TOKEN)
        if any(s <= pos < e for s, e in spans):
            continue  # already captured by an earlier object
        span = _enclosing_json_object(content, pos)
        if span is None:
            continue
        start, end, doc = span
        if _jsonld_like(doc):
            spans.append((start, end))
            docs.append(doc)
    return docs, errors, True


def _enclosing_json_object(content: str, pos: int) -> tuple[int, int, Any] | None:
    """Find the outermost valid JSON object enclosing the token at ``pos``:
    walk back over candidate "{" positions (bounded) and keep the earliest
    one that parses past ``pos``."""
    lo = max(0, pos - MAX_BACKTRACK)
    starts = [i for i in range(lo, pos + 1) if content[i] == "{"]
    starts = starts[-512:]  # bound parse attempts; nearest 512 braces
    # earliest start = outermost object; try from the outside in
    for start in starts:
        try:
            doc, end = _decoder.raw_decode(content, start)  # end is absolute
        except ValueError:
            continue
        if end > pos and isinstance(doc, dict):
            return (start, end, doc)
    return None
