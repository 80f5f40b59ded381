"""Property-based round-trips (hypothesis): randomly generated JSON-LD
documents through the full kernel chain. The reference has no property
tests (SURVEY.md §5) — these guard invariants the W3C suite samples only
pointwise."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from jsonld_ex_ray.core import JsonLdOptions, compact, expand, from_rdf, to_rdf
from jsonld_ex_ray.core.isomorphism import isomorphic
from jsonld_ex_ray.core.nquads import parse_nquads, serialize_nquads

_VOCAB = "https://p.example/"

_scalar = st.one_of(
    st.text(max_size=12),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)

_iri = st.sampled_from(
    [f"https://e.example/{i}" for i in range(4)] + [f"_:b{i}" for i in range(3)]
)

_prop = st.sampled_from(["p1", "p2", "p3", "name"])


@st.composite
def node_objects(draw, depth=2):
    node = {}
    if draw(st.booleans()):
        node["@id"] = draw(_iri)
    if draw(st.booleans()):
        node["@type"] = draw(st.sampled_from(["T1", "T2"]))
    for prop in draw(st.lists(_prop, max_size=3, unique=True)):
        if depth > 0 and draw(st.booleans()):
            node[prop] = draw(node_objects(depth=depth - 1))
        else:
            node[prop] = draw(st.one_of(_scalar, st.lists(_scalar, max_size=3)))
    return node


def docs():
    return node_objects().map(
        lambda n: {"@context": {"@vocab": _VOCAB, "p2": {"@container": "@list"}}, **n}
    )


@settings(max_examples=60, deadline=None)
@given(docs())
def test_expand_idempotent(doc):
    e1 = expand(doc)
    e2 = expand(e1)
    assert e1 == e2


@settings(max_examples=60, deadline=None)
@given(docs())
def test_compact_expand_roundtrip(doc):
    """expand(compact(expand(d))) == expand(d) under the same context."""
    ctx = {"@context": doc["@context"]}
    e1 = expand(doc)
    c = compact(e1, ctx)
    e2 = expand(c)
    assert e1 == e2


@settings(max_examples=60, deadline=None)
@given(docs())
def test_tordf_fromrdf_tordf_fixpoint(doc):
    """to_rdf(from_rdf(to_rdf(d))) isomorphic to to_rdf(d)."""
    q1 = to_rdf(doc, JsonLdOptions())
    back = from_rdf(q1, JsonLdOptions(ordered=True))
    q2 = to_rdf(back, JsonLdOptions())
    assert isomorphic(q1, q2)


@settings(max_examples=60, deadline=None)
@given(docs())
def test_nquads_roundtrip(doc):
    q1 = to_rdf(doc, JsonLdOptions())
    text = serialize_nquads(q1)
    q2 = parse_nquads(text)
    assert sorted(map(repr, set(q1))) == sorted(map(repr, set(q2)))


@settings(max_examples=40, deadline=None)
@given(docs())
def test_expansion_json_serializable(doc):
    json.dumps(expand(doc))


@settings(max_examples=400, deadline=None)
@given(
    st.floats(
        allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
    ),
    st.integers(min_value=0, max_value=8),
)
def test_round_half_away_matches_duckdb_property(value, nd):
    import duckdb
    import numpy as np

    from jsonld_ex_ray.ops.agg import round_half_away

    con = duckdb.connect()
    want = con.execute(f"SELECT round(?::DOUBLE, {nd})", [value]).fetchone()[0]
    got = float(round_half_away(np.array([value]), nd)[0])
    assert got == want, (value, nd, got, want)


@settings(max_examples=40, deadline=None)
@given(docs())
def test_frame_wildcard_never_crashes_and_serializes(doc):
    """Wildcard framing legitimately re-emits embedded nodes as top-level
    trees (each tree re-embeds its children), so triple-set equality is
    NOT an invariant; what must hold: no crash, JSON output, and every
    named (non-blank) node id survives into the framed output."""
    from jsonld_ex_ray.core import JsonLdError, frame

    try:
        out = frame(doc, {"@context": doc["@context"]})
    except JsonLdError as e:
        # legitimate spec error: merging re-used @ids can give a node two
        # @list values, which cannot compact under a @list container
        assert e.code == "compaction to list of lists"
        return
    json.dumps(out)

    def ids_of(element, acc):
        if isinstance(element, list):
            for e in element:
                ids_of(e, acc)
        elif isinstance(element, dict):
            v = element.get("@id")
            if isinstance(v, str) and not v.startswith("_:"):
                acc.add(v)
            for k, val in element.items():
                if k != "@id":
                    ids_of(val, acc)
        return acc

    want = ids_of(expand(doc), set())
    got = ids_of(out, set())
    assert want <= got


@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),          # key
            st.integers(min_value=0, max_value=40),     # coarse ts → many ties
        ),
        min_size=1,
        max_size=60,
    ),
    range_us=st.integers(min_value=0, max_value=15),
)
@settings(max_examples=120, deadline=None)
def test_range_frame_bounds_match_bruteforce(rows, range_us):
    """The two-searchsorted RANGE-frame kernel equals the O(n²) frame
    definition (same key, ts ∈ [ts_i − range, ts_i], ties included) on
    adversarially tie-heavy inputs — including the per-segment fallback
    path, which must agree with the fast path."""
    import numpy as np

    from jsonld_ex_ray.ops.window import _range_frame_bounds

    order = sorted(range(len(rows)), key=lambda i: rows[i])
    keys = np.array([rows[i][0] for i in order], dtype=object)
    usv = np.array([rows[i][1] for i in order], dtype=np.int64)
    left, right = _range_frame_bounds(keys, usv, range_us)
    fb_left, fb_right = _range_frame_bounds(keys, usv, range_us, _force_fallback=True)
    assert (left == fb_left).all() and (right == fb_right).all()
    for i in range(len(rows)):
        mask = (keys == keys[i]) & (usv >= usv[i] - range_us) & (usv <= usv[i])
        idxs = np.flatnonzero(mask)
        assert left[i] == idxs[0]
        assert right[i] == idxs[-1]


@given(doc=docs())
@settings(max_examples=60, deadline=None)
def test_frame_embed_never_emits_only_references(doc):
    """With ``@embed: @never`` every node VALUE inside a framed property
    must be a bare reference (an ``{@id}``-only object or scalar), never
    an embedded node object carrying its own properties — json-ld11-
    framing §3 (@embed flag) as an invariant over random documents."""
    from jsonld_ex_ray.core import JsonLdError, frame

    try:
        out = frame(doc, {"@context": doc["@context"], "@embed": "@never"})
    except JsonLdError as e:
        assert e.code == "compaction to list of lists"
        return

    def check_values(element, depth):
        if isinstance(element, list):
            for e in element:
                check_values(e, depth)
        elif isinstance(element, dict):
            node_keys = [
                k for k in element if k not in ("@id", "@context", "@graph", "@list")
            ]
            if depth > 0 and "@value" not in element:
                # a nested node object must be a pure reference
                assert node_keys == [], f"embedded node at depth {depth}: {element}"
            for k, v in element.items():
                if k == "@context":
                    continue
                check_values(v, depth + (0 if k in ("@graph", "@list") else 1))

    top = out.get("@graph", out)
    for node in top if isinstance(top, list) else [top]:
        for k, v in node.items():
            if k in ("@id", "@context"):
                continue
            check_values(v, 1)


@given(doc=docs())
@settings(max_examples=60, deadline=None)
def test_frame_explicit_prunes_unframed_properties(doc):
    """With OPTION-level ``explicit=True`` and a frame naming only
    ``p1``, no other data property may appear anywhere in the output —
    including inside embedded nodes and framed lists. (Option-level, not
    frame-level: per spec an explicit ``{}`` subframe's flags fall back
    to the API options, so a frame-level @explicit legitimately stops at
    explicitly-framed children.)"""
    from jsonld_ex_ray.core import JsonLdError, JsonLdOptions, frame

    try:
        out = frame(
            doc,
            {"@context": doc["@context"], "p1": [{}]},
            JsonLdOptions(explicit=True),
        )
    except JsonLdError as e:
        assert e.code == "compaction to list of lists"
        return

    banned = {"p2", "p3", "name"}

    def walk(element):
        if isinstance(element, list):
            for e in element:
                walk(e)
        elif isinstance(element, dict):
            for k, v in element.items():
                if k == "@context":
                    continue
                assert k not in banned, f"unframed property {k!r} survived @explicit"
                walk(v)

    walk(out.get("@graph", out))


@settings(max_examples=40, deadline=None)
@given(
    n_keys=st.integers(min_value=1, max_value=5000),
    fp_target=st.sampled_from([0.01, 0.03, 0.1]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_bloom_filter_bounds(n_keys, fp_target, seed):
    """Property: (a) ZERO false negatives for any key set; (b) observed
    false-positive rate on disjoint probes stays within ~3× the sizing
    target (the classic bound is loose for tiny filters, so the margin
    absorbs small-n variance); (c) sizing formula yields sane k."""
    import numpy as np
    import pyarrow as pa

    from jsonld_ex_ray.ops.bloom import BloomFilter

    rng = np.random.default_rng(seed)
    keys = rng.choice(np.arange(0, 10_000_000, dtype=np.int64), size=n_keys, replace=False)
    bf = BloomFilter.sized(n_keys, fp_target)
    assert 1 <= bf.k <= 16
    bf.add(pa.array(keys))
    assert bf.contains(pa.array(keys)).all()  # no false negatives, ever

    probes = np.setdiff1d(
        rng.choice(np.arange(10_000_000, 20_000_000, dtype=np.int64), size=4000, replace=False),
        keys,
    )
    fp = bf.contains(pa.array(probes)).mean()
    assert fp <= max(3 * fp_target, 0.02), (n_keys, fp_target, fp)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_bloom_position_and_bitmap_encodings_agree(seed):
    """Property: build_bloom's two wire encodings (set-bit positions for
    sparse blocks, bitmap for dense) reconstruct the exact same filter a
    single-process add would produce."""
    import numpy as np
    import pyarrow as pa

    from jsonld_ex_ray.ops.bloom import BloomFilter

    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 2**62, size=rng.integers(1, 2000), dtype=np.int64)
    bf = BloomFilter.sized(len(keys), 0.01)
    bf.add(pa.array(keys))

    # simulate the fold: positions encoding over two half-blocks
    half = len(keys) // 2
    rebuilt = BloomFilter(bf.n_bits, bf.k)
    for part in (keys[:half], keys[half:]):
        if len(part) == 0:
            continue
        local = BloomFilter(bf.n_bits, bf.k)
        pos = np.unique(local._positions(pa.array(part)).ravel())
        np.bitwise_or.at(
            rebuilt.bits, pos >> np.uint64(6), np.uint64(1) << (pos & np.uint64(63))
        )
    assert np.array_equal(rebuilt.bits, bf.bits)


# --- URDNA2015 invariance (core/urdna2015.py) -----------------------------

_P = [("iri", f"https://p.example/{i}") for i in range(2)]
_OBJ = [("iri", "https://e.example/0"), ("lit", "v", "http://www.w3.org/2001/XMLSchema#string", None)]


@st.composite
def bnode_graphs(draw):
    """Small datasets over blank nodes: random edges plus 0-2 rings
    (optionally anchored to one IRI). Rings tie every first-degree hash,
    so their labels come from the n-degree path."""
    quads = []
    n = draw(st.integers(min_value=1, max_value=4))
    node = st.integers(min_value=0, max_value=n - 1).map(lambda i: ("bnode", f"r{i}"))
    graph = st.sampled_from([None, ("iri", "https://g.example/0"), ("bnode", "g0")])
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        obj = draw(st.one_of(node, st.sampled_from(_OBJ)))
        quads.append((draw(node), draw(st.sampled_from(_P)), obj, draw(graph)))
    for k, size in enumerate(draw(st.lists(st.integers(min_value=2, max_value=5), max_size=2))):
        ring = [("bnode", f"k{k}_{i}") for i in range(size)]
        quads += [(ring[i], _P[0], ring[(i + 1) % size], None) for i in range(size)]
        if draw(st.booleans()):
            quads.append((("iri", "https://e.example/anchor"), _P[1], ring[0], None))
    return quads


def _canon_text(quads) -> str:
    from jsonld_ex_ray.core.urdna2015 import canonical_quads

    return serialize_nquads(canonical_quads(quads))


@settings(max_examples=80, deadline=None)
@given(bnode_graphs(), st.randoms(use_true_random=False))
def test_urdna2015_invariant_under_relabel_shuffle_and_repeats(quads, rng):
    from jsonld_ex_ray.core.urdna2015 import canonical_quads

    expected = _canon_text(quads)
    names = sorted({t[1] for q in quads for t in q if t is not None and t[0] == "bnode"})
    fresh = rng.sample(range(10**6), len(names))
    new = {b: f"x{v}" for b, v in zip(names, fresh)}

    def m(t):
        return ("bnode", new[t[1]]) if t is not None and t[0] == "bnode" else t

    relabeled = [tuple(m(t) for t in q) for q in quads]
    shuffled = list(quads)
    rng.shuffle(shuffled)
    repeated = quads + rng.sample(quads, rng.randrange(1, len(quads) + 1))
    assert _canon_text(relabeled) == expected
    assert _canon_text(shuffled) == expected
    assert _canon_text(repeated) == expected
    # an independent check that relabeling kept the graph
    assert isomorphic(canonical_quads(quads), quads)


# ---------------------------------------------------------------------------
# MentionLinker: the counted Jaccard scorer against a brute-force oracle
# ---------------------------------------------------------------------------

_NAME_TOKENS = ["widget", "Widget", "WIDGET", "thing", "actor", "red", "blue", "7", "42"]
_MIN_SCORES = [0.0, 0.2, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0, 1.5]


def _brute_force_score(names: dict, mention: str, min_score: float):
    """The documented rule, by brute force: an exact lowercase match
    scores 1.0; else frozenset Jaccard against every name, the first
    best name in dictionary order winning."""
    m = mention.lower().strip()
    exact = {k.lower(): v for k, v in names.items()}
    if m in exact:
        return exact[m], 1.0
    tokens = frozenset(m.split())
    if not tokens:
        return None, 0.0
    best_iri, best = None, 0.0
    for name, iri in names.items():
        cand = frozenset(name.lower().split())
        score = len(tokens & cand) / len(tokens | cand)
        if score > best:
            best_iri, best = iri, score
    return (best_iri, round(best, 6)) if best >= min_score else (None, 0.0)


@st.composite
def _name_dicts(draw):
    """Names over a small vocabulary in mixed case, most holding the
    dominant token ``widget``, so shared tokens and ties are common."""
    names = {}
    for i in range(draw(st.integers(min_value=0, max_value=30))):
        tokens = draw(st.lists(st.sampled_from(_NAME_TOKENS), max_size=3))
        if draw(st.integers(min_value=0, max_value=3)):
            tokens = ["Widget", *tokens]
        names[" ".join(tokens)] = f"https://kb.example/{i}"
    return names


@st.composite
def _mentions(draw, names):
    """A name of ``names`` re-cased, or tokens (repeated ones and ones no
    name holds among them) joined by runs of whitespace, or blank."""
    if names and draw(st.integers(min_value=0, max_value=4)) == 0:
        return draw(st.sampled_from(sorted(names))).upper()
    tokens = draw(st.lists(st.sampled_from([*_NAME_TOKENS, "zzz", "unknown"]), max_size=5))
    seps = draw(st.lists(st.sampled_from([" ", "  ", "\t"]), min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return seps[0] + "".join(t + s for t, s in zip(tokens, seps[1:]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mention_scorer_matches_brute_force_jaccard(data):
    from jsonld_ex_ray.stages.linker import MentionLinker

    names = data.draw(_name_dicts())
    min_score = data.draw(st.sampled_from(_MIN_SCORES))
    linker = MentionLinker(names, min_score=min_score)
    for mention in data.draw(st.lists(_mentions(names), min_size=1, max_size=8)):
        assert linker._score(mention) == _brute_force_score(names, mention, min_score), mention


def test_mention_scorer_on_a_dominant_token_matches_brute_force():
    """Seeded dictionaries where one token posts most names (the kg
    workloads' ``Widget N`` shape): every mention and ``min_score`` edge
    scores as the brute force does, ties going to the first name."""
    import random

    from jsonld_ex_ray.stages.linker import MentionLinker

    for seed in range(3):
        rng = random.Random(seed)
        names = {f"Widget {k}": f"https://kb.example/w{k}" for k in rng.sample(range(10_000), 2_000)}
        names.update({"red widget": "https://kb.example/red", "thing 7": "https://kb.example/t7"})
        mentions = ["", "   ", "widget", "WIDGET widget", "zzz", "red", "thing zzz", "widget 7 red"]
        mentions += [f"widget {rng.randrange(10_000)}{rng.choice(['', ' x', ' red'])}" for _ in range(60)]
        for min_score in _MIN_SCORES:
            linker = MentionLinker(names, min_score=min_score)
            for mention in mentions:
                assert linker._score(mention) == _brute_force_score(names, mention, min_score), (mention, min_score)


# sha256 over the sorted ``seed \x1f json(row)`` lines of the rows below,
# as the frozenset scorer this one replaced gave them
_KG_FULL_MENTIONS_SHA = "9ac25cc3068d5553e47bf4aa1309c5aedae573c727d17568485690e4700eb94e"


def test_mention_linker_rows_on_kg_full_inputs_are_pinned():
    """The MentionLinker rows of the kg_full benchmark's seeds 6001–6008
    (its corpus's triples through the kernel, its mention names) are the
    ones the frozenset scorer gave."""
    import hashlib

    import pyarrow as pa
    import pyarrow.compute as pc

    from jsonld_ex_ray.gen import generate_rows
    from jsonld_ex_ray.stages.extract import make_extract_batch
    from jsonld_ex_ray.stages.linker import MentionLinker
    from jsonld_ex_ray.stages.triples import triples_batch
    from perfbench.workloads import KgFull, mention_names

    lines = []
    for seed in range(6001, 6009):
        triples = triples_batch(make_extract_batch()(pa.table(generate_rows(KgFull.sizes["full"], seed))))
        triples = triples.filter(pc.is_valid(triples.column("pred")))
        rows = MentionLinker(mention_names(seed))(triples).to_pylist()
        lines += [f"{seed}\x1f{json.dumps(r, sort_keys=True)}" for r in rows]
    assert len(lines) == 182
    assert hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest() == _KG_FULL_MENTIONS_SHA
