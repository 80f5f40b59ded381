"""Targeted unit tests for pieces the W3C suite doesn't exercise:
loader caching, warn routing, RFC3986 edge cases, JCS numbers."""

import pytest

from jsonld_ex_ray.core.errors import JsonLdError
from jsonld_ex_ray.core.iri import relativize, resolve
from jsonld_ex_ray.core.loader import CachingLoader, StaticLoader
from jsonld_ex_ray.core.options import JsonLdOptions, JsonLdWarningError
from jsonld_ex_ray.core.rdf_generation import canonical_double, jcs_canonicalize


def test_caching_loader_caches_hits_and_failures():
    inner = StaticLoader({"https://a/ctx": {"@context": {}}})
    calls = {"n": 0}
    orig = inner.load

    def counting(url, options=None):
        calls["n"] += 1
        return orig(url, options)

    inner.load = counting
    c = CachingLoader(inner, maxsize=2)
    c.load("https://a/ctx")
    c.load("https://a/ctx")
    assert calls["n"] == 1 and c.hits == 1
    with pytest.raises(JsonLdError):
        c.load("https://missing/x")
    with pytest.raises(JsonLdError):
        c.load("https://missing/x")
    assert calls["n"] == 2  # failure cached too: second bad load hits cache
    assert c.hits == 2


def test_caching_loader_lru_eviction():
    inner = StaticLoader({f"https://u/{i}": {"@context": {}} for i in range(4)})
    c = CachingLoader(inner, maxsize=2)
    for i in range(4):
        c.load(f"https://u/{i}")
    assert c.misses == 4
    c.load("https://u/3")  # still cached
    assert c.hits == 1
    c.load("https://u/0")  # evicted → miss again
    assert c.misses == 5


def test_warn_routing():
    seen = []
    opts = JsonLdOptions(warn=lambda m: seen.append(m))
    opts.emit_warning("hello")
    assert seen == ["hello"]
    with pytest.raises(JsonLdWarningError):
        JsonLdOptions(warn="raise").emit_warning("boom")
    JsonLdOptions(warn="ignore").emit_warning("silent")  # no effect


@pytest.mark.parametrize(
    "base,ref,expected",
    [
        # RFC 3986 §5.4 normal examples
        ("http://a/b/c/d;p?q", "g", "http://a/b/c/g"),
        ("http://a/b/c/d;p?q", "./g", "http://a/b/c/g"),
        ("http://a/b/c/d;p?q", "g/", "http://a/b/c/g/"),
        ("http://a/b/c/d;p?q", "/g", "http://a/g"),
        ("http://a/b/c/d;p?q", "//g", "http://g"),
        ("http://a/b/c/d;p?q", "?y", "http://a/b/c/d;p?y"),
        ("http://a/b/c/d;p?q", "#s", "http://a/b/c/d;p?q#s"),
        ("http://a/b/c/d;p?q", "../../g", "http://a/g"),
        # abnormal
        ("http://a/b/c/d;p?q", "../../../g", "http://a/g"),
        ("http://a/b/c/d;p?q", "g;x=1/../y", "http://a/b/c/y"),
        # the URI.merge divergences listed at reference to_rdf_test.exs:38-57
        ("http://example/", "../../x", "http://example/x"),
        ("http://example/base/", ".", "http://example/base/"),
        ("urn:ex:s001", "#foo", "urn:ex:s001#foo"),
    ],
)
def test_rfc3986_resolution(base, ref, expected):
    assert resolve(base, ref) == expected


def test_relativize_inverse_of_resolve():
    base = "https://h/a/b/doc.json?x=1"
    for iri in [
        "https://h/a/b/doc.json?x=1#frag",
        "https://h/a/b/other",
        "https://h/a/",
        "https://h/zzz",
        "https://other/abs",
    ]:
        rel = relativize(base, iri)
        assert resolve(base, rel) == iri


def test_canonical_double():
    assert canonical_double(1.0e21) == "1.0E21"
    assert canonical_double(5.3) == "5.3E0"
    assert canonical_double(-0.25) == "-2.5E-1"
    assert canonical_double(float("inf")) == "INF"


def test_urdna2015_relabel_invariance():
    import random

    from jsonld_ex_ray.core import to_rdf
    from jsonld_ex_ray.core.urdna2015 import canonical_quads

    doc = {
        "@context": {"@vocab": "https://x/", "knows": {"@type": "@id"}},
        "@graph": [
            {"@id": "_:a", "knows": [{"@id": "_:b"}], "name": "n1"},
            {"@id": "_:b", "knows": [{"@id": "_:a"}], "name": "n1"},  # automorphic pair
            {"@id": "_:c", "knows": [{"@id": "_:c"}]},
            {"name": "anon leaf"},
        ],
    }
    quads = to_rdf(doc, JsonLdOptions())
    canon = canonical_quads(quads)

    def relabel(qs, seed):
        rng = random.Random(seed)
        labels = sorted({t[1] for q in qs for t in q if t and t[0] == "bnode"})
        new = {l: f"x{rng.randrange(10**9)}" for l in labels}
        m = lambda t: ("bnode", new[t[1]]) if (t and t[0] == "bnode") else t
        return [(m(s), m(p), m(o), m(g)) for s, p, o, g in qs]

    for seed in (1, 2, 3, 4):
        assert canonical_quads(relabel(quads, seed)) == canon
    labels = {t[1] for q in canon for t in q if t and t[0] == "bnode"}
    assert all(l.startswith("c14n") for l in labels)


def test_jcs_numbers_and_key_order():
    assert jcs_canonicalize({"b": 1, "a": [True, None, 2.5]}) == '{"a":[true,null,2.5],"b":1}'
    assert jcs_canonicalize({"x": 1e21}) == '{"x":1e+21}'
    assert jcs_canonicalize({"x": 56.0}) == '{"x":56}'


def test_urdna2015_golden_vectors():
    """Lock in canonical output on small known graphs (regression guard:
    any change to the hashing/issuing order shows up here)."""
    from jsonld_ex_ray.core.urdna2015 import canonicalize

    XS = "http://www.w3.org/2001/XMLSchema#string"
    chain = [
        (("bnode", "e0"), ("iri", "http://example.com/#p1"), ("bnode", "e1"), None),
        (("bnode", "e1"), ("iri", "http://example.com/#p2"), ("lit", "Foo", XS, None), None),
    ]
    assert canonicalize(chain) == {"e0": "c14n0", "e1": "c14n1"}
    # and invariance of the same graph under relabeling
    relabeled = [
        (("bnode", "zz"), ("iri", "http://example.com/#p1"), ("bnode", "qq"), None),
        (("bnode", "qq"), ("iri", "http://example.com/#p2"), ("lit", "Foo", XS, None), None),
    ]
    assert canonicalize(relabeled) == {"zz": "c14n0", "qq": "c14n1"}
    # 3-cycle: exercises hash-n-degree with identical first-degree hashes
    cyc = [
        (("bnode", "a"), ("iri", "http://x/p"), ("bnode", "b"), None),
        (("bnode", "b"), ("iri", "http://x/p"), ("bnode", "c"), None),
        (("bnode", "c"), ("iri", "http://x/p"), ("bnode", "a"), None),
    ]
    got = canonicalize(cyc)
    assert sorted(got.values()) == ["c14n0", "c14n1", "c14n2"]
    rot = [
        (("bnode", "b"), ("iri", "http://x/p"), ("bnode", "c"), None),
        (("bnode", "c"), ("iri", "http://x/p"), ("bnode", "a"), None),
        (("bnode", "a"), ("iri", "http://x/p"), ("bnode", "b"), None),
    ]
    assert canonicalize(rot) == got


def test_http_loader_against_local_server():
    """Real-transport DocumentLoader (HttpLoader) against a local socket
    server: content-type dispatch, Link context header, redirect cap."""
    import http.server
    import threading

    from jsonld_ex_ray.core.errors import JsonLdError
    from jsonld_ex_ray.core.remote import JSONLD_CONTEXT_REL, HttpLoader

    class Handler(http.server.BaseHTTPRequestHandler):
        def log_message(self, *a):
            pass

        def do_GET(self):
            if self.path == "/doc.jsonld":
                assert "application/ld+json" in self.headers["Accept"]
                body = b'{"@context": {"name": "https://x/name"}, "name": "n"}'
                self.send_response(200)
                self.send_header("Content-Type", "application/ld+json")
                self.end_headers()
                self.wfile.write(body)
            elif self.path == "/plain.json":
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header(
                    "Link", f'</ctx.jsonld>; rel="{JSONLD_CONTEXT_REL}"'
                )
                self.end_headers()
                self.wfile.write(b'{"name": "n"}')
            elif self.path == "/redir":
                self.send_response(302)
                self.send_header("Location", "/doc.jsonld")
                self.end_headers()
            elif self.path == "/loop":
                self.send_response(302)
                self.send_header("Location", "/loop2")
                self.end_headers()
            elif self.path == "/loop2":
                self.send_response(302)
                self.send_header("Location", "/loop")
                self.end_headers()
            else:
                self.send_response(404)
                self.end_headers()

    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    port = srv.server_address[1]
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    try:
        loader = HttpLoader()
        base = f"http://127.0.0.1:{port}"
        doc = loader.load(f"{base}/doc.jsonld")
        assert doc.document["name"] == "n"
        assert doc.content_type == "application/ld+json"

        plain = loader.load(f"{base}/plain.json")
        assert plain.context_url == f"{base}/ctx.jsonld"

        redirected = loader.load(f"{base}/redir")
        assert redirected.document_url == f"{base}/doc.jsonld"

        import pytest as _pytest

        with _pytest.raises(JsonLdError) as ei:
            loader.load(f"{base}/loop")
        assert ei.value.code == "loading document failed"

        with _pytest.raises(JsonLdError):
            loader.load(f"{base}/missing")
    finally:
        srv.shutdown()
        srv.server_close()


def test_urdna2015_adversarial_symmetric_graphs():
    """Poison graphs for canonicalization: structures whose first-degree
    hashes are all identical so the N-degree/permutation path does the
    work — two disjoint 4-rings (swap automorphism between rings) and
    K3,3 (every node looks like every other). Canonical quads must be
    invariant under random relabeling AND quad-order shuffling."""
    import random

    from jsonld_ex_ray.core.urdna2015 import canonical_quads

    P = ("iri", "http://x/p")

    def ring(names):
        return [
            (("bnode", names[i]), P, ("bnode", names[(i + 1) % len(names)]), None)
            for i in range(len(names))
        ]

    def k33(a, b):
        return [(("bnode", x), P, ("bnode", y), None) for x in a for y in b]

    for quads in (
        ring(["r0", "r1", "r2", "r3"]) + ring(["s0", "s1", "s2", "s3"]),
        k33(["a0", "a1", "a2"], ["b0", "b1", "b2"]),
        ring(["t0", "t1", "t2", "t3", "t4", "t5"]),
    ):
        canon = canonical_quads(quads)
        labels = {t[1] for q in canon for t in q if t and t[0] == "bnode"}
        assert all(l.startswith("c14n") for l in labels)
        for seed in (11, 22, 33):
            rng = random.Random(seed)
            names = sorted({t[1] for q in quads for t in q if t and t[0] == "bnode"})
            new = {n: f"z{rng.randrange(10**9)}" for n in names}
            m = lambda t: ("bnode", new[t[1]]) if (t and t[0] == "bnode") else t
            shuffled = [(m(s), p, m(o), g) for s, p, o, g in quads]
            rng.shuffle(shuffled)
            assert canonical_quads(shuffled) == canon


def test_urdna2015_reads_quads_as_a_set():
    """An RDF dataset is a set: the quads of a document given twice (one
    file ingested from two inputs) must canonicalize like one copy."""
    import json

    from jsonld_ex_ray.core import to_rdf
    from jsonld_ex_ray.core.urdna2015 import canonicalize
    from jsonld_ex_ray.extract import extract_payloads
    from jsonld_ex_ray.gen import CONTEXT_REGISTRY, generate_rows

    opts = JsonLdOptions(document_loader=StaticLoader(CONTEXT_REGISTRY))
    rows = generate_rows(100, seed=3)
    docs = []
    for content, lang, path in zip(rows["content"], rows["lang"], rows["path"]):
        for payload in extract_payloads(content, lang, path)[0]:
            try:
                quads = to_rdf(json.loads(payload), opts)
            except (JsonLdError, ValueError, RecursionError):
                continue
            if any(t is not None and t[0] == "bnode" for q in quads for t in q):
                docs.append(quads)
    assert len(docs) >= 10
    for quads in docs:
        assert canonicalize(quads + quads) == canonicalize(quads)


def test_urdna_same_triple_in_default_and_named_graph():
    """Regression (review-found): sorting quads whose graph slot mixes
    None (default graph) and tuples (named graphs) raised TypeError when
    an identical (s,p,o) appeared in both."""
    from jsonld_ex_ray.core.urdna2015 import canonical_quads

    s = ("bnode", "b0")
    p = ("iri", "http://ex/p")
    o = ("iri", "http://ex/o")
    quads = [(s, p, o, None), (s, p, o, ("iri", "http://ex/g"))]
    out = canonical_quads(quads)
    assert len(out) == 2
    graphs = {q[3] for q in out}
    assert None in graphs and ("iri", "http://ex/g") in graphs


def test_nquads_parse_rejects_malformed_lines():
    """Strict parsing: a malformed trailing term must raise, not silently
    truncate a quad into a well-formed triple (review-found)."""
    import pytest

    from jsonld_ex_ray.core.nquads import parse_nquads

    with pytest.raises(ValueError, match="malformed"):
        parse_nquads('<http://s> <http://p> <http://o> "unterminated .')
    with pytest.raises(ValueError, match="terms"):
        parse_nquads("<http://s> <http://p> .")
    with pytest.raises(ValueError, match="terminating"):
        parse_nquads("<http://s> <http://p> <http://o>")
    # comments and blanks still fine
    assert parse_nquads("# comment\n\n<http://s> <http://p> <http://o> .") != []


def test_nquads_iri_escaping_round_trips():
    from jsonld_ex_ray.core.nquads import parse_nquads, serialize_nquads

    weird = ("iri", 'http://e/a>b <c> "d\\e')
    quads = [(weird, ("iri", "http://p"), ("lit", "x", "http://www.w3.org/2001/XMLSchema#string", None), None)]
    text = serialize_nquads(quads)
    back = parse_nquads(text)
    assert back[0][0] == weird  # exact IRI survives


def test_file_loader_blocks_path_traversal(tmp_path):
    import pytest

    from jsonld_ex_ray.core import JsonLdError
    from jsonld_ex_ray.core.loader import FileLoader

    (tmp_path / "doc.jsonld").write_text('{"@context": {}}')
    secret = tmp_path.parent / f"{tmp_path.name}-secret.txt"
    secret.write_text("secret")
    fl = FileLoader("https://ex/tests/", str(tmp_path))
    assert fl.load("https://ex/tests/doc.jsonld").document == {"@context": {}}
    with pytest.raises(JsonLdError):
        fl.load(f"https://ex/tests/../{secret.name}")


def test_static_loader_strips_fragment():
    from jsonld_ex_ray.core.loader import StaticLoader

    sl = StaticLoader({"https://a/doc": {"@context": {}}})
    assert sl.load("https://a/doc#frag").document == {"@context": {}}


def test_http_loader_rejects_file_scheme():
    import pytest

    from jsonld_ex_ray.core import JsonLdError
    from jsonld_ex_ray.core.remote import HttpLoader

    with pytest.raises(JsonLdError, match="scheme"):
        HttpLoader().load("file:///etc/passwd")


def test_redirect_without_location_and_bad_json_are_jsonld_errors():
    import pytest

    from jsonld_ex_ray.core import JsonLdError
    from jsonld_ex_ray.core.remote import SimResponse, SimulatedHTTPLoader

    loader = SimulatedHTTPLoader(
        {
            "https://a/redir": SimResponse(status=301, location=None),
            "https://a/bad": SimResponse(
                status=200, content_type="application/ld+json", body="{bad"
            ),
        }
    )
    with pytest.raises(JsonLdError, match="Location"):
        loader.load("https://a/redir")
    with pytest.raises(JsonLdError, match="invalid JSON body"):
        loader.load("https://a/bad")


def test_link_rel_matching_is_case_insensitive_multivalue():
    from jsonld_ex_ray.core.remote import SimResponse, SimulatedHTTPLoader

    loader = SimulatedHTTPLoader(
        {
            "https://a/doc": SimResponse(
                status=200,
                content_type="text/turtle",
                body="",
                link_headers=['<alt.jsonld>; rel="Alternate stylesheet"; type="application/ld+json"'],
            ),
            "https://a/alt.jsonld": SimResponse(
                status=200, content_type="application/ld+json", body='{"@context": {}}'
            ),
        }
    )
    doc = loader.load("https://a/doc")
    assert doc.document == {"@context": {}}


def test_script_type_attr_requires_exact_media_type():
    from jsonld_ex_ray.core.remote import extract_html_document

    html = (
        '<script type="application/ld+json-ext">not ld</script>'
        '<script type="application/ld+json">{"@context":{},"@id":"http://x"}</script>'
    )
    doc = extract_html_document(html, None, False)
    assert doc.get("@id") == "http://x"  # first REAL ld+json script wins


def test_compact_value_preserves_index_without_index_container():
    """Review-found (shared with the Elixir reference): unwrapping a
    typed/language-matched value object to a bare scalar must not drop a
    surviving @index."""
    from jsonld_ex_ray.core import compact, expand

    ctx = {"p": {"@id": "http://ex/p", "@type": "http://ex/T"}}
    doc = [{"http://ex/p": [{"@value": "v", "@type": "http://ex/T", "@index": "idx"}]}]
    c = compact(doc, {"@context": ctx})
    assert expand(c) == expand(doc)  # @index round-trips


def test_aliased_none_index_key_injects_nothing():
    """Property-valued index maps must compare the EXPANDED index against
    @none: an aliased key must leave items untouched."""
    import json

    from jsonld_ex_ray.core import expand

    out = expand(
        {
            "@context": {
                "none": "@none",
                "prop": {"@id": "http://ex/prop", "@container": "@index", "@index": "http://ex/name"},
            },
            "prop": {"none": {"@id": "http://ex/item"}},
        }
    )
    assert "http://ex/name" not in json.dumps(out)


def test_protected_prefix_created_as_dependency():
    """A compact-IRI prefix materialized as a DEPENDENCY of a @protected
    term inherits the context's protection — a later context must not
    silently redefine it."""
    import pytest

    from jsonld_ex_ray.core import JsonLdError, expand

    with pytest.raises(JsonLdError, match="protected term redefinition"):
        expand(
            {
                "@context": [
                    {"@protected": True, "foo:bar": "http://foo/bar", "foo": "http://foo/"},
                    {"foo": "http://other/"},
                ],
                "foo:x": "v",
            }
        )


def test_two_char_trailing_colon_term():
    """'a:' must pass re-expansion validation exactly like 'ab:' (the
    interior-colon check excludes the trailing char at every length)."""
    from jsonld_ex_ray.core import expand

    out = expand({"@context": {"a": "http://other/", "a:": "http://ex/y"}, "a:": "v"})
    assert out == [{"http://ex/y": [{"@value": "v"}]}]


def _scan_values(quads, options):
    """The values each (subject, predicate) keeps under the linear
    ``strict_equal`` scan: the dedup rule ``serialize_rdf`` must keep."""
    from jsonld_ex_ray.core.flattening import strict_equal
    from jsonld_ex_ray.core.rdf_serialization import _rdf_to_object

    kept: dict = {}
    for s, p, o, _ in quads:
        value = _rdf_to_object(o, options)
        values = kept.setdefault((s[1], p[1]), [])
        if not any(strict_equal(value, v) for v in values):
            values.append(value)
    return kept


def test_from_rdf_value_dedup_matches_strict_equal_scan():
    """``serialize_rdf`` dedups a property's values through hashable keys;
    over duplicated literals it keeps exactly what the ``strict_equal``
    scan keeps: ``true`` apart from ``1``, ``1`` merged with ``1.0``,
    language and direction variants apart, equal ``@json`` values merged
    whatever their spelling."""
    import math

    from jsonld_ex_ray.core.flattening import strict_equal
    from jsonld_ex_ray.core.rdf_generation import (
        I18N,
        RDF_JSON,
        RDF_LANGSTRING,
        XSD_BOOLEAN,
        XSD_DOUBLE,
        XSD_INTEGER,
        XSD_STRING,
    )
    from jsonld_ex_ray.core.rdf_serialization import _rdf_to_object, _value_key, serialize_rdf

    s, p = ("iri", "https://x.example/s"), ("iri", "https://x.example/p")
    native = [
        ("true", XSD_BOOLEAN), ("1", XSD_INTEGER), ("1.0E0", XSD_DOUBLE), ("1", XSD_INTEGER),
        ("false", XSD_BOOLEAN), ("0", XSD_INTEGER), ("true", XSD_BOOLEAN), ("1", XSD_STRING),
        ("NaN", XSD_DOUBLE), ("NaN", XSD_DOUBLE), ("yes", XSD_BOOLEAN), ("yes", XSD_BOOLEAN),
    ]
    langs = [
        ("hi", RDF_LANGSTRING, "en"), ("hi", RDF_LANGSTRING, "fr"), ("hi", XSD_STRING, None), ("hi", RDF_LANGSTRING, "en")
    ]
    directed = [("hi", I18N + "en_ltr"), ("hi", I18N + "en_rtl"), ("hi", I18N + "_rtl"), ("hi", I18N + "en_ltr")]
    jsons = ['{"a":1}', '{"a": 1}', '{"a":true}', '{"a":1.0}', "[1,true]", "[true,1]", "[1,true]", "true", "1", "null"]
    cases = [
        (JsonLdOptions(use_native_types=True), [(lex, dt, None) for lex, dt in native] + langs),
        (JsonLdOptions(rdf_direction="i18n-datatype"), [(lex, dt, None) for lex, dt in directed] + langs),
        (JsonLdOptions(), [(lex, RDF_JSON, None) for lex in jsons] + langs),
    ]
    for options, literals in cases:
        quads = [(s, p, ("lit", lex, dt, lang), None) for lex, dt, lang in literals]
        (node,) = serialize_rdf(quads, options)
        want = _scan_values(quads, options)[(s[1], p[1])]
        assert node[p[1]] == want
        assert len(want) < len(literals)  # the corpus holds duplicates
        # the key decides equality as strict_equal does, pair by pair
        values = [_rdf_to_object(o, options) for _, _, o, _ in quads]
        for a in values:
            for b in values:
                assert (_value_key(a) == _value_key(b)) == strict_equal(a, b)
    assert _value_key(True) != _value_key(1) and _value_key(1) == _value_key(1.0)
    assert _value_key([{"@value": 0}]) != _value_key([{"@value": False}])
    nan = math.nan
    assert _value_key(nan) != _value_key(nan) and not strict_equal(nan, nan)


def test_run_w3c_without_the_suite_exits_with_one_line(monkeypatch):
    """``python tests/run_w3c.py`` without the vendored W3C suite exits
    non-zero with a one-line message (``tests/test_w3c.py`` skips), not
    with a ``FileNotFoundError`` traceback."""
    from tests import run_w3c

    monkeypatch.setattr(run_w3c, "suite_available", lambda: False)
    for argv in (["fromRdf"], [], ["--pr"]):
        with pytest.raises(SystemExit) as exit_:
            run_w3c.main(argv)
        assert isinstance(exit_.value.code, str) and "\n" not in exit_.value.code
