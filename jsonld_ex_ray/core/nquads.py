"""Minimal N-Quads reader/writer for test goldens and text output.

Used to load W3C ``*-out.nq`` expected files (reference loads them with
``RDF.NQuads.read_file!``, test/support/test_suite.ex:38-42) and to emit
N-Quads text from the pipeline when a manifest-diffable form is needed.
Terms use the tuple encoding of to_rdf.py.
"""

from __future__ import annotations

import re

from .rdf_generation import RDF_LANGSTRING, XSD_STRING

_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}

_TERM_RE = re.compile(
    r"""\s*(?:
        <(?P<iri>[^>]*)>
      | (?P<bnode>_:[^\s]+)
      | "(?P<lit>(?:[^"\\]|\\.)*)"
        (?:\^\^<(?P<dt>[^>]*)>|@(?P<lang>[A-Za-z0-9\-]+))?
    )""",
    re.VERBOSE,
)


def _unescape(s: str) -> str:
    out = []
    i = 0
    while i < len(s):
        c = s[i]
        if c == "\\" and i + 1 < len(s):
            n = s[i + 1]
            if n in _ESCAPES:
                out.append(_ESCAPES[n])
                i += 2
                continue
            if n == "u":
                out.append(chr(int(s[i + 2 : i + 6], 16)))
                i += 6
                continue
            if n == "U":
                out.append(chr(int(s[i + 2 : i + 10], 16)))
                i += 10
                continue
        out.append(c)
        i += 1
    return "".join(out)


def _escape(s: str) -> str:
    out = []
    for c in s:
        if c == "\\":
            out.append("\\\\")
        elif c == '"':
            out.append('\\"')
        elif c == "\n":
            out.append("\\n")
        elif c == "\r":
            out.append("\\r")
        elif c == "\t":
            out.append("\\t")
        elif ord(c) < 0x20:
            # other control chars are legal raw in N-Quads but break
            # line-oriented tooling (\f is a str.splitlines boundary!)
            out.append(f"\\u{ord(c):04X}")
        else:
            out.append(c)
    return "".join(out)


_IRI_ESCAPE_RE = re.compile(r'[<>"{}|^`\\\x00-\x20]')


def _escape_iri(s: str) -> str:
    """IRIREF escaping (N-Triples grammar): characters that terminate or
    corrupt a <...> token become \\uXXXX. Plain IRIs pass through
    untouched (the common case allocates nothing new)."""
    if _IRI_ESCAPE_RE.search(s) is None:
        return s
    return _IRI_ESCAPE_RE.sub(lambda m: f"\\u{ord(m.group()):04X}", s)


def parse_nquads(text: str) -> list[tuple]:
    """Parse N-Quads text → list of (subj, pred, obj, graph|None) term tuples."""
    quads = []
    # split on real newlines only — str.splitlines also breaks on \f/\v/
    #   etc., which are legal raw inside literals
    for raw_line in text.split("\n"):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.endswith("."):
            line = line[:-1]
        else:
            raise ValueError(f"N-Quads line missing terminating '.': {raw_line!r}")
        terms = []
        pos = 0
        while pos < len(line):
            m = _TERM_RE.match(line, pos)
            if m is None:
                break
            pos = m.end()
            if m.group("iri") is not None:
                terms.append(("iri", _unescape(m.group("iri"))))
            elif m.group("bnode") is not None:
                terms.append(("bnode", m.group("bnode")[2:]))
            else:
                lex = _unescape(m.group("lit"))
                dt = m.group("dt")
                lang = m.group("lang")
                if lang:
                    terms.append(("lit", lex, RDF_LANGSTRING, lang))
                else:
                    terms.append(("lit", lex, dt or XSD_STRING, None))
        # strict: a malformed trailing term used to silently TRUNCATE a
        # quad into a well-formed triple, and stray term counts silently
        # dropped the whole line — both corrupt ingested data invisibly
        if line[pos:].strip():
            raise ValueError(f"malformed N-Quads term at col {pos}: {raw_line!r}")
        if len(terms) == 3:
            quads.append((terms[0], terms[1], terms[2], None))
        elif len(terms) == 4:
            quads.append((terms[0], terms[1], terms[2], terms[3]))
        else:
            raise ValueError(
                f"N-Quads line has {len(terms)} terms (want 3 or 4): {raw_line!r}"
            )
    return quads


def term_to_nquads(term: tuple) -> str:
    kind = term[0]
    if kind == "iri":
        # IRIs need escaping too (parse unescapes them): a raw '>' or
        # control char would emit malformed N-Quads that re-parse as a
        # DIFFERENT term — and urdna2015 hashes these serializations
        return f"<{_escape_iri(term[1])}>"
    if kind == "bnode":
        return f"_:{term[1]}"
    _, lex, dt, lang = term
    s = f'"{_escape(lex)}"'
    if lang is not None:
        return f"{s}@{lang}"
    if dt and dt != XSD_STRING and dt != RDF_LANGSTRING:
        return f"{s}^^<{dt}>"
    return s


def serialize_nquads(quads: list[tuple]) -> str:
    lines = []
    for s, p, o, g in quads:
        parts = [term_to_nquads(s), term_to_nquads(p), term_to_nquads(o)]
        if g is not None:
            parts.append(term_to_nquads(g))
        lines.append(" ".join(parts) + " .")
    return "\n".join(sorted(lines)) + ("\n" if lines else "")
