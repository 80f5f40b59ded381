"""End-to-end Ray Data pipeline tests: lineage invariant, error isolation,
dedup idempotence, bnode canonicalization, skew-safe materialize,
checkpoint/resume (SURVEY.md §7 steps 3-6)."""

import hashlib
import json
import os
import shutil

import pyarrow.parquet as pq
import pytest

from jsonld_ex_ray.gen import generate_rows, write_corpus
from jsonld_ex_ray.pipeline import (
    build_triples,
    canonicalize_bnodes,
    dedup_triples,
    errors_only,
    materialize_graph,
    read_triples,
    run_checkpointed,
    triples_only,
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("corpus") / "repos.parquet")
    write_corpus(path, 200, seed=7)
    return path


def test_generator_deterministic():
    a = generate_rows(50, seed=3)
    b = generate_rows(50, seed=3)
    assert a == b
    c = generate_rows(50, seed=4)
    assert a != c


def test_pipeline_triples_and_lineage(ray_session, corpus):
    df = triples_only(build_triples(corpus)).to_pandas()
    assert len(df) > 100
    # lineage invariant: content_sha256 equals sha256 of the input row's content
    src = pq.read_table(corpus).to_pandas()
    expected = {
        (r.repo, r.path, r.commit): hashlib.sha256(r.content.encode()).hexdigest()
        for r in src.itertuples()
    }
    for r in df.itertuples():
        assert r.content_sha256 == expected[(r.repo, r.path, r.commit)]
    # triple rows have no error payload, all kinds valid
    assert df.error_code.isna().all()
    assert set(df.obj_kind.unique()) <= {"iri", "bnode", "literal"}
    # bnodes carry the per-document namespace prefix
    bnodes = [s for s in df.subj if s.startswith("_:")]
    assert bnodes and all("-b" in b for b in bnodes)


def test_pipeline_errors_have_spec_codes(ray_session, corpus):
    errs = errors_only(build_triples(corpus)).to_pandas()
    assert len(errs) > 0
    assert {"invalid @id value", "context overflow"} <= set(errs.error_code)
    assert errs.subj.isna().all()


def test_dedup_idempotent(ray_session, corpus):
    once = dedup_triples(build_triples(corpus)).to_pandas()
    twice_input = build_triples(corpus)
    doubled = twice_input.union(build_triples(corpus))
    deduped = dedup_triples(doubled).to_pandas()
    key_cols = ["graph", "subj", "pred", "obj", "obj_datatype", "obj_lang"]
    k1 = set(map(tuple, once[key_cols].fillna("").values.tolist()))
    k2 = set(map(tuple, deduped[key_cols].fillna("").values.tolist()))
    assert k1 == k2


def test_canonicalize_bnodes_deterministic(ray_session, corpus):
    a = canonicalize_bnodes(build_triples(corpus)).to_pandas()
    b = canonicalize_bnodes(build_triples(corpus)).to_pandas()
    cols = ["doc_id", "graph", "subj", "pred", "obj"]
    sa = sorted(map(tuple, a[cols].fillna("").values.tolist()))
    sb = sorted(map(tuple, b[cols].fillna("").values.tolist()))
    assert sa == sb
    # every relabeled bnode is namespaced by the doc hash
    assert all(s.startswith("_:") is False or "-c" in s for s in a.subj)


def test_materialize_graph_merges_hot_subjects(ray_session, corpus):
    adj = materialize_graph(build_triples(corpus), num_buckets=4).to_pandas()
    # one row per subject even for salted hot subjects
    assert adj.subj.is_unique
    flat = triples_only(build_triples(corpus)).to_pandas()
    degrees = flat.groupby("subj").size()
    for r in adj.itertuples():
        assert r.degree == degrees[r.subj]
        assert len(json.loads(r.adjacency)) == r.degree


def test_entity_linker_broadcast(ray_session, corpus):
    import ray

    mapping = {"https://kg.example/hot/0": "https://kg.example/canonical/hot-0"}
    df = triples_only(
        build_triples(corpus, linker_dict_ref=ray.put(mapping))
    ).to_pandas()
    assert "subj_canon" in df.columns
    hot = df[df.subj == "https://kg.example/hot/0"]
    assert len(hot) > 0
    assert (hot.subj_canon == "https://kg.example/canonical/hot-0").all()
    # everything else passes through unchanged
    cold = df[df.subj != "https://kg.example/hot/0"]
    assert (cold.subj_canon == cold.subj).all()


def test_custom_context_registry_changes_only_its_predicates(ray_session, corpus):
    """A custom registry in which the person context maps ``knows`` to
    another IRI changes exactly those predicates; a default build run
    after it in the same session (same long-lived workers, per-worker
    kernel cache) equals the default build run before it."""
    import copy

    from jsonld_ex_ray.gen import CONTEXT_REGISTRY

    old_iri, new_iri = "https://schema.example/knows", "https://alt.example/knows"
    registry = copy.deepcopy(CONTEXT_REGISTRY)
    person = registry["https://ctx.example/person"]["@context"]
    assert person["knows"]["@id"] == old_iri
    person["knows"]["@id"] = new_iri

    cols = ["doc_id", "graph", "subj", "pred", "obj"]

    def rows(**kw):
        df = triples_only(build_triples(corpus, **kw)).to_pandas()
        return sorted(map(tuple, df[cols].fillna("").values.tolist()))

    default_before = rows()
    custom = rows(context_registry=registry)
    default_after = rows()

    moved = [r for r in custom if r[3] == new_iri]
    assert moved and not [r for r in default_before if r[3] == new_iri]
    # the only difference is the remapped predicate
    assert custom != default_before
    restored = sorted(r[:3] + (old_iri,) + r[4:] if r[3] == new_iri else r for r in custom)
    assert restored == default_before
    assert default_after == default_before


def test_pipeline_rows_match_core_kernel(ray_session, corpus):
    """End-to-end integrity: for sampled documents, the pipeline's triple
    rows equal the core to_rdf() output (modulo the doc-hash bnode
    namespace the kernel adds)."""
    import json as _json

    from jsonld_ex_ray.core import JsonLdOptions, to_rdf
    from jsonld_ex_ray.core.loader import CachingLoader, StaticLoader
    from jsonld_ex_ray.extract import extract_payloads
    from jsonld_ex_ray.gen import CONTEXT_REGISTRY

    df = triples_only(build_triples(corpus)).to_pandas()
    src = pq.read_table(corpus).to_pandas()
    opts = JsonLdOptions(document_loader=CachingLoader(StaticLoader(CONTEXT_REGISTRY)))
    checked = 0
    for r in src.itertuples():
        payloads, _ = extract_payloads(r.content, r.lang, r.path)
        for i, payload in enumerate(payloads):
            doc_id = f"{r.repo}@{r.commit}:{r.path}#{i}"
            rows = df[df.doc_id == doc_id]
            try:
                quads = to_rdf(_json.loads(payload), opts)
            except Exception:
                assert len(rows) == 0
                continue
            def strip(v):
                if isinstance(v, str) and v.startswith("_:"):
                    return "_:" + v.split("-", 1)[-1]
                return v
            got = {
                (strip(t.subj), t.pred, strip(t.obj) if t.obj_kind == "bnode" else t.obj)
                for t in rows.itertuples()
            }
            want = {
                (
                    f"_:{s[1]}" if s[0] == "bnode" else s[1],
                    p[1],
                    (f"_:{o[1]}" if o[0] == "bnode" else o[1]),
                )
                for s, p, o, g in quads
            }
            assert got == want, doc_id
            checked += 1
            if checked >= 25:
                return
    assert checked > 0


def test_mention_linker_scoring():
    from jsonld_ex_ray.stages.linker import MentionLinker

    linker = MentionLinker(
        name_to_iri={
            "Acme Rocket Skates": "https://kb/acme-skates",
            "Acme Giant Magnet": "https://kb/acme-magnet",
        },
        min_score=0.4,
    )
    assert linker._score("acme rocket skates") == ("https://kb/acme-skates", 1.0)
    iri, score = linker._score("rocket skates by acme")
    assert iri == "https://kb/acme-skates" and 0.4 <= score < 1.0
    assert linker._score("totally unrelated words") == (None, 0.0)
    # the higher-overlap candidate wins
    iri, _ = linker._score("acme giant magnet deluxe")
    assert iri == "https://kb/acme-magnet"


def test_checkpoint_resume(ray_session, tmp_path):
    files = []
    for i in range(3):
        f = str(tmp_path / f"shard_{i}.parquet")
        write_corpus(f, 60, seed=20 + i)
        files.append(f)
    out = str(tmp_path / "out")
    m1 = run_checkpointed(files, out, shard_size=1)
    assert m1["shards_skipped"] == 0 and m1["triples"] > 0
    total = read_triples(out).count()
    assert total == m1["triples"]
    # metrics side output (SURVEY.md §4)
    metrics = pq.read_table(os.path.join(out, "_state", "metrics.parquet"))
    assert metrics.num_rows == 3
    assert sum(metrics.column("triples").to_pylist()) == total

    # simulate a mid-run kill: drop one shard's outputs + manifest line
    manifest = os.path.join(out, "_state", "manifest.jsonl")
    lines = [json.loads(line) for line in open(manifest)]
    victim = lines[-1]["shard"]
    shutil.rmtree(os.path.join(out, "triples", f"shard={victim}"))
    with open(manifest, "w") as f:
        for rec in lines:
            if rec["shard"] != victim:
                f.write(json.dumps(rec) + "\n")

    m2 = run_checkpointed(files, out, shard_size=1)
    assert m2["shards_skipped"] == 2  # only the victim re-ran
    assert read_triples(out).count() == total

    # kill DURING a shard write: partial files exist but no manifest line —
    # the rerun must replace them, not append duplicates
    lines = [json.loads(line) for line in open(manifest)]
    victim = lines[-1]["shard"]
    shard_dir = os.path.join(out, "triples", f"shard={victim}")
    leftover = os.path.join(shard_dir, "partial_leftover.parquet")
    src_table = pq.read_table(os.path.join(shard_dir, os.listdir(shard_dir)[0]))
    pq.write_table(src_table, leftover)  # simulate a torn write
    with open(manifest, "w") as f:
        for rec in lines:
            if rec["shard"] != victim:
                f.write(json.dumps(rec) + "\n")
    m3 = run_checkpointed(files, out, shard_size=1)
    assert m3["shards_skipped"] == 2
    assert read_triples(out).count() == total  # no double counting


def test_triples_to_jsonld_default_graph_sharded(ray_session):
    """A corpus where the default graph holds >90% of triples must NOT
    collapse into one serializer call: shard assignment spreads it, the
    merged output still matches a single whole-graph serialize_rdf."""
    import json as _json

    import pyarrow as pa
    import ray.data

    from jsonld_ex_ray.core.options import JsonLdOptions
    from jsonld_ex_ray.core.rdf_serialization import serialize_rdf
    from jsonld_ex_ray.pipeline import _quads_of, triples_to_jsonld

    n = 400
    rows = {
        "subj": [f"https://x.example/s{i}" for i in range(n)],
        "pred": ["https://x.example/p"] * n,
        "obj": [f"v{i}" for i in range(n)],
        "obj_kind": ["literal"] * n,
        "obj_datatype": ["http://www.w3.org/2001/XMLSchema#string"] * n,
        "obj_lang": [None] * n,
        "graph": [None] * n,  # everything in the default graph
        "doc_id": [f"d{i}" for i in range(n)],
    }
    tbl = pa.table(rows)
    num_shards = 8
    out = triples_to_jsonld(
        ray.data.from_arrow(tbl), num_shards=num_shards
    ).to_pandas()
    assert len(out) == 1  # one row per graph — unchanged output contract
    got = _json.loads(out.doc.iloc[0])
    want = serialize_rdf(_quads_of(tbl), JsonLdOptions(ordered=True))
    want.sort(key=lambda node: node["@id"])
    assert got == _json.loads(_json.dumps(want, sort_keys=True))
    # shard spread: the subjects of the big graph hash to many shards, so
    # no single serializer group saw more than a fraction of the triples
    import numpy as np

    from jsonld_ex_ray.pipeline import _sharded_triples

    sharded = _sharded_triples(ray.data.from_arrow(tbl), num_shards).to_pandas()
    counts = sharded.groupby("__shard").size().reindex(range(num_shards), fill_value=0)
    assert (counts > 0).sum() >= num_shards - 1
    assert counts.max() < n  # never one group holding the whole graph


def test_triples_to_jsonld_default_graph_list_closure_only(ray_session):
    """A list in the DEFAULT graph must route only its closure (chain
    nodes + the referencing subject) to shard 0 — the other 10k subjects
    of the same graph keep spreading over shards, so no serializer group
    sees more than a bounded slice of the corpus."""
    import json as _json

    import pyarrow as pa
    import ray.data

    from jsonld_ex_ray.core.options import JsonLdOptions
    from jsonld_ex_ray.core.rdf_serialization import serialize_rdf
    from jsonld_ex_ray.pipeline import _quads_of, _sharded_triples, triples_to_jsonld

    RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
    XS = "http://www.w3.org/2001/XMLSchema#string"
    n = 10_000
    rows = [
        (f"https://x.example/s{i}", "https://x.example/p", f"v{i}", "literal", XS)
        for i in range(n)
    ]
    closure = [
        ("https://x.example/s0", "https://x.example/items", "_:l0", "bnode", None),
        ("_:l0", RDF + "first", "a", "literal", XS),
        ("_:l0", RDF + "rest", "_:l1", "bnode", None),
        ("_:l1", RDF + "first", "b", "literal", XS),
        ("_:l1", RDF + "rest", RDF + "nil", "iri", None),
    ]
    rows += closure
    tbl = pa.table(
        {
            "subj": [r[0] for r in rows],
            "pred": [r[1] for r in rows],
            "obj": [r[2] for r in rows],
            "obj_kind": [r[3] for r in rows],
            "obj_datatype": [r[4] for r in rows],
            "obj_lang": [None] * len(rows),
            "graph": [None] * len(rows),  # the default graph — the union
            "doc_id": ["d"] * len(rows),
        }
    )
    num_shards = 16
    sharded = _sharded_triples(ray.data.from_arrow(tbl), num_shards).to_pandas()
    cell_sizes = sharded.groupby(["__g", "__shard"]).size()
    assert cell_sizes.max() < len(rows) // 4  # no group holds the graph
    # the closure landed whole in shard 0
    closure_subjects = {"https://x.example/s0", "_:l0", "_:l1"}
    in_closure = sharded[sharded.subj.isin(closure_subjects)]
    assert set(in_closure.__shard) == {0}

    out = triples_to_jsonld(ray.data.from_arrow(tbl), num_shards=num_shards).to_pandas()
    assert len(out) == 1
    got = _json.loads(out.doc.iloc[0])
    want = serialize_rdf(_quads_of(tbl), JsonLdOptions(ordered=True))
    want.sort(key=lambda node: node["@id"])
    assert got == _json.loads(_json.dumps(want, sort_keys=True))
    s0 = [nd for nd in got if nd["@id"] == "https://x.example/s0"][0]
    assert s0["https://x.example/items"] == [
        {"@list": [{"@value": "a"}, {"@value": "b"}]}
    ]


def test_triples_to_jsonld_list_graph_routes_whole(ray_session):
    """Graphs containing rdf:first/rest chains serialize whole (list
    reconstruction crosses subjects) and still produce correct @list."""
    import json as _json

    import pyarrow as pa
    import ray.data

    from jsonld_ex_ray.pipeline import triples_to_jsonld

    RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
    XS = "http://www.w3.org/2001/XMLSchema#string"
    rows = [
        ("https://x.example/s", "https://x.example/items", "_:l0", "bnode", None),
        ("_:l0", RDF + "first", "a", "literal", XS),
        ("_:l0", RDF + "rest", "_:l1", "bnode", None),
        ("_:l1", RDF + "first", "b", "literal", XS),
        ("_:l1", RDF + "rest", RDF + "nil", "iri", None),
    ]
    tbl = pa.table(
        {
            "subj": [r[0] for r in rows],
            "pred": [r[1] for r in rows],
            "obj": [r[2] for r in rows],
            "obj_kind": [r[3] for r in rows],
            "obj_datatype": [r[4] for r in rows],
            "obj_lang": [None] * len(rows),
            "graph": [None] * len(rows),
            "doc_id": ["d0"] * len(rows),
        }
    )
    out = triples_to_jsonld(ray.data.from_arrow(tbl), num_shards=8).to_pandas()
    assert len(out) == 1
    doc = _json.loads(out.doc.iloc[0])
    assert doc == [
        {
            "@id": "https://x.example/s",
            "https://x.example/items": [{"@list": [{"@value": "a"}, {"@value": "b"}]}],
        }
    ]


def test_linker_canon_columns_follow_bnode_relabeling(ray_session, tmp_path):
    """Review-found: EntityLinker's subj_canon/obj_canon passed bnode
    labels through BEFORE canonicalization rewrote subj/obj — the canon
    columns dangled. After canonicalize_bnodes, a bnode row's canon
    columns must equal its relabeled identifiers."""
    from jsonld_ex_ray.gen import write_corpus
    from jsonld_ex_ray.pipeline import build_triples, canonicalize_bnodes, triples_only
    import ray

    corpus = str(tmp_path / "repos.parquet")
    write_corpus(corpus, 60, seed=33)
    linked = triples_only(build_triples(corpus, linker_dict_ref=ray.put({})))
    out = canonicalize_bnodes(linked).to_pandas()
    bn = out[out.subj.str.startswith("_:")]
    assert len(bn) > 0  # corpus plants bnodes
    assert (bn.subj == bn.subj_canon).all()
    ob = out[(out.obj_kind == "bnode") & out.obj.str.startswith("_:")]
    if len(ob):
        assert (ob.obj == ob.obj_canon).all()
    assert bn.subj.str.contains("-c14n").all()  # actually relabeled
