"""IRI utilities: RFC 3986 resolution, compact-IRI split, keyword tests.

The reference delegates relative-IRI resolution to Elixir's ``URI.merge``
(reference: lib/json/ld/utils.ex:31-44) which implements only the RFC 3986
basic algorithm without syntax normalization; its known divergences are
catalogued at reference test/acceptance/w3c/to_rdf_test.exs:38-57. Python's
``urllib.parse.urljoin`` has its own divergences (scheme allowlists,
dot-segment handling for unknown schemes), so we implement RFC 3986 §5.2-5.3
directly — ~80 lines, fully deterministic and scheme-agnostic.
"""

from __future__ import annotations

import re

# JSON-LD keywords (JSON-LD 1.1 §1.7; cf. reference lib/json_ld.ex:33-59).
KEYWORDS = frozenset(
    {
        "@base",
        "@container",
        "@context",
        "@default",
        "@direction",
        "@graph",
        "@id",
        "@import",
        "@included",
        "@index",
        "@json",
        "@language",
        "@list",
        "@nest",
        "@none",
        "@prefix",
        "@propagate",
        "@protected",
        "@reverse",
        "@set",
        "@type",
        "@value",
        "@version",
        "@vocab",
        ":",
    }
)

_KEYWORD_FORM_RE = re.compile(r"^@[A-Za-z]+$")
# scheme ":" hier-part — pragmatic absolute-IRI test: valid scheme, no
# whitespace / angle brackets, and at most one "#" (a second "#" cannot
# appear in query or fragment per RFC 3987; cf. toRdf #te111/#te112).
_ABSOLUTE_IRI_RE = re.compile(
    r"^[A-Za-z][A-Za-z0-9+.\-]*:[^\s<>\"{}|\\^`#]*(?:#[^\s<>\"{}|\\^`#]*)?$"
)
_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*$")

_URI_RE = re.compile(
    r"^(?:([A-Za-z][A-Za-z0-9+.\-]*):)?(//[^/?#]*)?([^?#]*)(\?[^#]*)?(#.*)?$"
)


def is_keyword(value: object) -> bool:
    return isinstance(value, str) and value in KEYWORDS


def has_keyword_form(value: object) -> bool:
    """``@``-prefixed alpha string that is not a registered keyword."""
    return (
        isinstance(value, str)
        and value not in KEYWORDS
        and _KEYWORD_FORM_RE.match(value) is not None
    )


_ABS_CACHE: dict[str, bool] = {}


def is_absolute_iri(value: object) -> bool:
    # IRIs repeat massively across a corpus (predicates, datatypes, types):
    # a bounded memo removes ~3/4 of regex evaluations in the hot kernel
    if not isinstance(value, str):
        return False
    hit = _ABS_CACHE.get(value)
    if hit is None:
        hit = _ABSOLUTE_IRI_RE.match(value) is not None
        if len(_ABS_CACHE) > 65536:
            _ABS_CACHE.clear()
        _ABS_CACHE[value] = hit
    return hit


def is_blank_node_id(value: object) -> bool:
    return isinstance(value, str) and value.startswith("_:")


def compact_iri_parts(value: str) -> tuple[str, str] | None:
    """Split ``prefix:suffix`` unless blank node or ``//`` suffix.

    Mirrors reference lib/json/ld/utils.ex:50-60.
    """
    idx = value.find(":")
    if idx <= 0:
        return None
    prefix, suffix = value[:idx], value[idx + 1 :]
    if suffix.startswith("//") or prefix == "_":
        return None
    return prefix, suffix


def parse(iri: str) -> tuple[str | None, str | None, str, str | None, str | None]:
    """Split an IRI reference into (scheme, authority, path, query, fragment).

    ``authority`` includes the leading ``//``; ``query`` the ``?``;
    ``fragment`` the ``#``.
    """
    m = _URI_RE.match(iri)
    if m is None:  # cannot happen: regex matches everything
        return None, None, iri, None, None
    scheme, authority, path, query, fragment = m.groups()
    return scheme, authority, path, query, fragment


def remove_dot_segments(path: str) -> str:
    """RFC 3986 §5.2.4."""
    output: list[str] = []
    while path:
        if path.startswith("../"):
            path = path[3:]
        elif path.startswith("./"):
            path = path[2:]
        elif path.startswith("/./"):
            path = "/" + path[3:]
        elif path == "/.":
            path = "/"
        elif path.startswith("/../"):
            path = "/" + path[4:]
            if output:
                output.pop()
        elif path == "/..":
            path = "/"
            if output:
                output.pop()
        elif path in (".", ".."):
            path = ""
        else:
            if path.startswith("/"):
                idx = path.find("/", 1)
            else:
                idx = path.find("/")
            if idx == -1:
                output.append(path)
                path = ""
            else:
                output.append(path[:idx])
                path = path[idx:]
    return "".join(output)


def resolve(base: str | None, reference: str) -> str:
    """RFC 3986 §5.2.2 transform references (strict), scheme-agnostic."""
    if base is None:
        return reference
    r_scheme, r_auth, r_path, r_query, r_frag = parse(reference)
    if r_scheme is not None:
        path = remove_dot_segments(r_path) if r_path else r_path
        return _recompose(r_scheme, r_auth, path, r_query, r_frag)
    b_scheme, b_auth, b_path, b_query, _ = parse(base)
    if r_auth is not None:
        t_auth, t_path, t_query = r_auth, remove_dot_segments(r_path), r_query
    elif not r_path:
        t_auth, t_path = b_auth, b_path
        t_query = r_query if r_query is not None else b_query
    else:
        t_auth = b_auth
        if r_path.startswith("/"):
            t_path = remove_dot_segments(r_path)
        else:
            t_path = remove_dot_segments(_merge_paths(b_auth, b_path, r_path))
        t_query = r_query
    return _recompose(b_scheme, t_auth, t_path, t_query, r_frag)


def _merge_paths(base_authority: str | None, base_path: str, ref_path: str) -> str:
    """RFC 3986 §5.2.3."""
    if base_authority is not None and not base_path:
        return "/" + ref_path
    idx = base_path.rfind("/")
    if idx == -1:
        return ref_path
    return base_path[: idx + 1] + ref_path


def _recompose(
    scheme: str | None,
    authority: str | None,
    path: str,
    query: str | None,
    fragment: str | None,
) -> str:
    out = []
    if scheme is not None:
        out.append(scheme + ":")
    if authority is not None:
        out.append(authority)
    out.append(path)
    if query is not None:
        out.append(query)
    if fragment is not None:
        out.append(fragment)
    return "".join(out)


def relativize(base: str | None, iri: str) -> str:
    """Rewrite ``iri`` relative to ``base`` for compaction.

    Mirrors reference lib/json/ld/compaction.ex:1180-1237 (remove_base):
    emit the shortest of suffix / ``../`` chains / query-fragment forms;
    return the IRI unchanged when no shortening is possible.
    """
    if base is None:
        return iri
    b_scheme, b_auth, b_path, b_query, _ = parse(base)
    i_scheme, i_auth, i_path, i_query, i_frag = parse(iri)
    if b_scheme != i_scheme or b_auth != i_auth:
        return iri
    if b_path == i_path:
        if b_query == i_query:
            # same document: fragment-only (or empty) reference
            if i_frag is not None:
                return i_frag
            if b_query is not None:
                # query must be repeated to avoid inheriting base's query
                return (i_query or "") + (i_frag or "")
        else:
            # same path, new query: "?query" form keeps the base path
            return (i_query or "") + (i_frag or "")
    # split paths into segments
    b_segs = b_path.split("/")
    i_segs = i_path.split("/")
    b_dir, b_segs = b_segs[:-1], b_segs
    # common prefix of directory segments
    common = 0
    while (
        common < len(b_dir)
        and common < len(i_segs) - 1
        and b_dir[common] == i_segs[common]
    ):
        common += 1
    ups = len(b_dir) - common
    rel_segs = [".."] * ups + i_segs[common:]
    rel = "/".join(rel_segs)
    if not rel:
        rel = "./"
    tail = (i_query or "") + (i_frag or "")
    candidate = rel + tail
    # never emit something that parses as absolute (scheme-looking first
    # segment) or keyword-like ("@special" → "./@special", compact #t0111)
    first = candidate.split("/", 1)[0]
    if ":" in first or candidate.startswith("@"):
        candidate = "./" + candidate
    return candidate if len(candidate) < len(iri) else iri
