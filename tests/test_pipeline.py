"""End-to-end Ray Data pipeline tests: lineage invariant, error isolation,
dedup idempotence, bnode canonicalization, skew-safe materialize,
checkpoint/resume (SURVEY.md §7 steps 3-6)."""

import hashlib
import json
import os
import shutil
import time
from collections import Counter

import pyarrow.compute as pc
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


@pytest.fixture(scope="module")
def corpus320(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("corpus320") / "repos.parquet")
    write_corpus(path, 320, seed=7)
    return path


LINKER = {"https://kg.example/hot/0": "https://kg.example/canonical/hot-0"}


def _row_multiset(rows) -> Counter:
    return Counter(tuple(sorted(r.items())) for r in rows)


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


def test_dedup_triples_keeps_the_smallest_doc_id(ray_session):
    """Of a triple found in several documents, dedup_triples keeps the
    copy with the smallest doc_id, wherever the copies sit: first in a
    block, in two blocks, beside a NULL graph."""
    import pyarrow as pa
    import ray.data

    def block(rows):
        cols = ["doc_id", "graph", "subj", "pred", "obj", "obj_datatype", "obj_lang"]
        return pa.table({c: pa.array([r[i] for r in rows], pa.string()) for i, c in enumerate(cols)})

    t = ("s", "p", "o", None, None)
    u = ("s", "p", "o2", None, None)
    blocks = [
        block([("d2", None, *t), ("d1", None, *t), ("d5", "g", *t), ("d7", None, *u)]),
        block([("d3", None, *t), ("d4", "g", *t), ("d0", None, *t), ("d6", None, *u)]),
    ]
    got = dedup_triples(ray.data.from_arrow(blocks)).to_pandas()
    kept = sorted(zip(got.doc_id, got.graph.fillna(""), got.obj))
    assert kept == [("d0", "", "o"), ("d4", "g", "o"), ("d6", "", "o2")]


def test_canonicalize_bnodes_deterministic(ray_session, corpus):
    a = canonicalize_bnodes(build_triples(corpus)).to_pandas()
    b = canonicalize_bnodes(build_triples(corpus)).to_pandas()
    # the same relabel placed inside the kernel task
    c = triples_only(build_triples(corpus, canonical=True)).to_pandas()
    cols = ["doc_id", "graph", "subj", "pred", "obj"]
    sa = sorted(map(tuple, a[cols].fillna("").values.tolist()))
    sb = sorted(map(tuple, b[cols].fillna("").values.tolist()))
    sc = sorted(map(tuple, c[cols].fillna("").values.tolist()))
    assert sa == sb
    assert sc == sa
    # every relabeled bnode is namespaced by the doc hash
    for df in (a, c):
        assert all(s.startswith("_:") is False or "-c" in s for s in df.subj)


def test_canonicalize_chunks_bounded_by_blocks(ray_session, corpus320):
    """canonicalize_bnodes relabels many documents per bucket; its output
    must still leave as one Arrow chunk per block, not one per document,
    or dedup_triples pays a per-chunk cost for every document."""
    import ray

    blocks = ray.get(canonicalize_bnodes(build_triples(corpus320)).to_arrow_refs())
    docs = {d for b in blocks if b.num_rows for d in b.column("doc_id").to_pylist()}
    assert len(docs) >= 200
    assert all(c.num_chunks <= 1 for b in blocks for c in b.columns)


@pytest.mark.parametrize("kw", [{"batch_size": 1}, {}], ids=["batch1", "default"])
def test_map_side_canonical_matches_shuffle(ray_session, corpus320, kw):
    """Both placements of the URDNA2015 relabel give the same rows, every
    column included: inside the kernel task (``canonical=True``, before
    the linker) and in the doc_id shuffle (after it)."""
    import ray

    ref = ray.put(LINKER)
    map_side = triples_only(build_triples(corpus320, canonical=True, linker_dict_ref=ref, **kw))
    shuffled = canonicalize_bnodes(build_triples(corpus320, linker_dict_ref=ref, **kw))
    got, want = map_side.take_all(), shuffled.take_all()
    assert sum(r["subj"].startswith("_:") and "-c14n" in r["subj"] for r in want) >= 50
    assert sum(r["subj_canon"] != r["subj"] for r in want) > 0
    assert _row_multiset(got) == _row_multiset(want)


def test_relabel_docs_matches_per_document_urdna2015(corpus320):
    """One _relabel_docs call over a table of many documents equals core
    URDNA2015 run document by document, with the labels
    ``_:{sha1(doc_id)[:16]}-c14n<n>`` also in the linker's canon
    columns; rows leave sorted on (doc_id, graph, subj, pred, obj)."""
    import pyarrow as pa

    from jsonld_ex_ray.core.rdf_generation import RDF_LANGSTRING, XSD_STRING
    from jsonld_ex_ray.core.urdna2015 import canonicalize
    from jsonld_ex_ray.pipeline import _relabel_docs
    from jsonld_ex_ray.stages.extract import extract_batch
    from jsonld_ex_ray.stages.linker import EntityLinker
    from jsonld_ex_ray.stages.triples import triples_batch

    raw = EntityLinker(LINKER)(triples_batch(extract_batch(pq.read_table(corpus320))))
    raw = raw.filter(pc.is_valid(raw.column("pred")))
    # a literal that merely looks like a blank node keeps its value
    row = next(r for r in raw.to_pylist() if r["subj"].startswith("_:"))
    lit = dict(row, obj="_:lit", obj_kind="literal", obj_datatype=XSD_STRING, obj_canon="_:lit")
    raw = pa.concat_tables([raw, pa.Table.from_pylist([lit], schema=raw.schema)])
    got = _relabel_docs(raw)

    def term(v, kind=None, dt=None, lang=None):
        if v is None:
            return None
        if kind == "literal":
            return ("lit", v, dt or (RDF_LANGSTRING if lang else XSD_STRING), lang)
        return ("bnode", v[2:]) if v.startswith("_:") else ("iri", v)

    by_doc: dict[str, list[dict]] = {}
    for r in raw.to_pylist():
        by_doc.setdefault(r["doc_id"], []).append(r)
    want, relabeled = [], 0
    for doc_id, rows in by_doc.items():
        dh = hashlib.sha1(doc_id.encode()).hexdigest()[:16]
        mapping = canonicalize(
            [
                (term(r["subj"]), term(r["pred"]), term(r["obj"], r["obj_kind"], r["obj_datatype"], r["obj_lang"]), term(r["graph"]))
                for r in rows
            ]
        )
        relabeled += bool(mapping)

        def canon(v, bnode):
            return f"_:{dh}-{mapping[v[2:]]}" if bnode and v and v.startswith("_:") else v

        for r in rows:
            ob = r["obj_kind"] == "bnode"
            want.append(
                dict(
                    r,
                    subj=canon(r["subj"], True),
                    obj=canon(r["obj"], ob),
                    graph=canon(r["graph"], True),
                    subj_canon=canon(r["subj_canon"], True),
                    obj_canon=canon(r["obj_canon"], ob),
                )
            )
    assert relabeled >= 20
    assert _row_multiset(got.to_pylist()) == _row_multiset(want)
    keys = ["doc_id", "graph", "subj", "pred", "obj"]
    assert got.select(keys).equals(got.sort_by([(k, "ascending") for k in keys]).select(keys))


def test_materialize_graph_merges_hot_subjects(ray_session, corpus):
    adj = materialize_graph(build_triples(corpus)).to_pandas()
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


def test_checkpoint_never_resumes_another_runs_shards(ray_session, tmp_path):
    """The resume manifest belongs to one run: other input files in the
    same directory clear it and give the triples of a fresh directory;
    the same inputs again skip every shard."""

    def corpus(name, n_files, n_docs, seed):
        files = [str(tmp_path / f"{name}_{i}.parquet") for i in range(n_files)]
        for i, f in enumerate(files):
            write_corpus(f, n_docs, seed=seed + i)
        return files

    def rows(out):
        return sorted(map(tuple, read_triples(out).to_pandas().astype(str).values.tolist()))

    a, b = corpus("a", 2, 20, 30), corpus("b", 3, 30, 40)
    out, fresh = str(tmp_path / "out"), str(tmp_path / "fresh")
    run_checkpointed(a, out, shard_size=1)
    m = run_checkpointed(b, out, shard_size=1)
    want = run_checkpointed(b, fresh, shard_size=1)
    assert m["shards_skipped"] == 0 and m["triples"] == want["triples"]
    assert rows(out) == rows(fresh)
    m = run_checkpointed(b, out, shard_size=1)
    assert m["shards_skipped"] == 3 and m["triples"] == want["triples"]


def test_read_triples_has_one_schema(ray_session, tmp_path):
    """read_triples gives TRIPLE_SCHEMA whether or not any shard is done."""
    from jsonld_ex_ray.stages.triples import TRIPLE_SCHEMA

    f = str(tmp_path / "in.parquet")
    write_corpus(f, 20, seed=50)
    done, empty = str(tmp_path / "done"), str(tmp_path / "empty")
    run_checkpointed([f], done, shard_size=1)
    run_checkpointed([], empty, shard_size=1)
    schemas = [read_triples(out).schema() for out in (done, empty)]
    assert schemas[0].names == schemas[1].names == TRIPLE_SCHEMA.names
    assert schemas[0].types == schemas[1].types == TRIPLE_SCHEMA.types


def _files(tmp_path, n, n_docs=20):
    files = [str(tmp_path / f"in_{i}.parquet") for i in range(n)]
    for i, f in enumerate(files):
        write_corpus(f, n_docs, seed=60 + i)
    return files


def _prose(path, n=20):
    """A parquet file of ``n`` source rows that emit no row at all."""
    import pyarrow as pa

    rows = generate_rows(n, seed=5)
    rows["lang"] = ["text"] * n
    rows["path"] = [f"notes/note_{i}.txt" for i in range(n)]
    rows["content"] = ["Plain prose about widgets, with no linked data in it."] * n
    pq.write_table(pa.table(rows), path)
    return path


def test_checkpoint_is_one_execution(ray_session, tmp_path, monkeypatch):
    """One call over 5 shards runs exactly one Ray Data execution and
    lands every shard once."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    runs = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        runs.append(self)
        return execute(self, *args, **kwargs)

    files = _files(tmp_path, 5)
    out = str(tmp_path / "out")
    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    m = run_checkpointed(files, out, shard_size=1)
    monkeypatch.undo()
    assert len(runs) == 1
    assert m["shards_skipped"] == 0 and m["shards_total"] == 5
    recs = [json.loads(line) for line in open(os.path.join(out, "_state", "manifest.jsonl"))]
    assert sorted(r["shard"] for r in recs) == [0, 1, 2, 3, 4]
    assert read_triples(out).count() == m["triples"] == sum(r["triples"] for r in recs)


def test_checkpoint_budget_trip_records_every_landed_shard(ray_session, tmp_path, monkeypatch):
    """The budget trips at the first shard with error rows to land, and
    the execution stops: every shard landed before the raise is in both
    the manifest and metrics.parquet, and a resume skips exactly those
    and finishes the rest with a fresh run's rows."""
    import jsonld_ex_ray.pipeline as pipeline

    # two shards of rows that emit nothing, so no error rows, then three with some
    files = [_prose(str(tmp_path / f"prose_{i}.parquet")) for i in range(2)] + _files(tmp_path, 3, n_docs=40)
    out, fresh = str(tmp_path / "out"), str(tmp_path / "fresh")
    landed = []
    land = pipeline._land_shard

    def spy(state_dir, manifest_path, rec):
        land(state_dir, manifest_path, rec)
        landed.append((rec["shard"], rec["errors"]))

    monkeypatch.setattr(pipeline, "_land_shard", spy)
    with pytest.raises(RuntimeError, match="error budget exceeded"):
        run_checkpointed(files, out, shard_size=1, max_error_rate=1e-9)
    monkeypatch.undo()
    assert [e for _, e in landed[:-1]] == [0] * (len(landed) - 1) and landed[-1][1] > 0
    assert {i for i, _ in landed[:-1]} <= {0, 1}  # nothing lands after the trip
    state = os.path.join(out, "_state")
    manifest = os.path.join(state, "manifest.jsonl")
    assert [json.loads(line)["shard"] for line in open(manifest)] == [i for i, _ in landed]
    metrics = pq.read_table(os.path.join(state, "metrics.parquet"))
    assert metrics.column("shard").to_pylist() == [i for i, _ in landed]

    m = run_checkpointed(files, out, shard_size=1)
    want = run_checkpointed(files, fresh, shard_size=1)
    assert m["shards_skipped"] == len(landed)
    assert sorted(json.loads(line)["shard"] for line in open(manifest)) == [0, 1, 2, 3, 4]
    assert (m["triples"], m["errors"]) == (want["triples"], want["errors"])
    assert read_triples(out).count() == want["triples"]


def test_checkpoint_lands_a_shard_of_no_rows(ray_session, tmp_path):
    """A 0-row parquet file as a shard lands with ``rows == 0``; the other
    shards land as usual."""
    import pyarrow as pa

    empty = str(tmp_path / "empty.parquet")
    pq.write_table(pa.table(generate_rows(1, seed=1)).slice(0, 0), empty)
    files = [empty] + _files(tmp_path, 2)
    out = str(tmp_path / "out")
    m = run_checkpointed(files, out, shard_size=1)
    recs = {r["shard"]: r for r in map(json.loads, open(os.path.join(out, "_state", "manifest.jsonl")))}
    assert sorted(recs) == [0, 1, 2]
    assert (recs[0]["rows"], recs[0]["triples"], recs[0]["errors"]) == (0, 0, 0)
    assert read_triples(out).count() == m["triples"] > 0


def test_build_triples_reads_what_read_parquet_reads(ray_session, tmp_path):
    """A directory source of several files of several row groups, beside
    a ``_SUCCESS`` and a hidden file: the emit task reads the rows that
    ``ray.data.read_parquet(dir, columns=SOURCE_COLS)`` reads."""
    import ray.data

    from jsonld_ex_ray.stages.extract import SOURCE_COLS

    d = str(tmp_path / "corpus")
    write_corpus(d, 300, seed=3, row_group_size=64, shards=3)
    for name in ("_SUCCESS", ".hidden"):
        with open(os.path.join(d, name), "w") as f:
            f.write("not parquet")
    got = build_triples(d, batch_size=50).take_all()
    want = build_triples(ray.data.read_parquet(d, columns=list(SOURCE_COLS))).take_all()
    assert len(got) > 300
    assert _row_multiset(got) == _row_multiset(want)


def test_build_triples_skips_stage_markers(ray_session, tmp_path):
    """A source directory that holds stage markers beside its parquet
    file, as an output directory of ``full_kg_run`` does: the markers
    (one first in listing order, one a marker's temp file) are skipped,
    so the rows are the file's own."""
    from jsonld_ex_ray.pipeline import _mark_done

    d = tmp_path / "out"
    d.mkdir()
    write_corpus(str(d / "part-0.parquet"), 40, seed=3)
    for stage in ("a", "raw"):
        _mark_done(str(d / stage), "stamp")
    (d / "raw._SUCCESS.123").write_text("torn")
    got = build_triples(str(d)).take_all()
    assert len(got) > 40
    assert _row_multiset(got) == _row_multiset(build_triples(str(d / "part-0.parquet")).take_all())


def test_build_triples_of_no_row_is_typed_empty(ray_session, tmp_path):
    """No input file, a file of no row group and a file of one 0-row row
    group each give an empty Dataset of ``TRIPLE_SCHEMA``."""
    import pyarrow as pa

    from jsonld_ex_ray.stages.triples import TRIPLE_SCHEMA

    schema = pa.table(generate_rows(1, seed=1)).schema
    no_group, empty_group = str(tmp_path / "no_group.parquet"), str(tmp_path / "empty_group.parquet")
    pq.ParquetWriter(no_group, schema).close()
    pq.write_table(schema.empty_table(), empty_group)
    assert pq.read_metadata(no_group).num_row_groups == 0
    for source in ([], no_group, [no_group, empty_group]):
        ds = build_triples(source)
        assert ds.count() == 0
        assert ds.schema().names == TRIPLE_SCHEMA.names and ds.schema().types == TRIPLE_SCHEMA.types


def _plan_op_types(ds) -> list[str]:
    seen, stack, names = set(), [ds._logical_plan.dag], []
    while stack:
        op = stack.pop()
        if id(op) not in seen:
            seen.add(id(op))
            names.append(type(op).__name__)
            stack.extend(op.input_dependencies)
    return names


def test_build_triples_plan_has_no_read_operator(ray_session, corpus):
    """A path source is read inside the emit task: the plan holds the
    work items and the emit, and no ``Read`` operator whose blocks would
    cross the object store first."""
    ops = _plan_op_types(build_triples([corpus, corpus]))
    assert "Read" not in ops
    assert ops == ["MapBatches", "FromArrow"]


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
    out = triples_to_jsonld(ray.data.from_arrow(tbl)).to_pandas()
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

    out = triples_to_jsonld(ray.data.from_arrow(tbl)).to_pandas()
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
    out = triples_to_jsonld(ray.data.from_arrow(tbl)).to_pandas()
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
    ref = ray.put({})
    linked = triples_only(build_triples(corpus, linker_dict_ref=ref))
    # relabeled in the shuffle after the linker, or in the kernel task
    # before it (the linker then passes the canonical labels through)
    for ds in (
        canonicalize_bnodes(linked),
        triples_only(build_triples(corpus, linker_dict_ref=ref, canonical=True)),
    ):
        out = ds.to_pandas()
        bn = out[out.subj.str.startswith("_:")]
        assert len(bn) > 0  # corpus plants bnodes
        assert (bn.subj == bn.subj_canon).all()
        ob = out[(out.obj_kind == "bnode") & out.obj.str.startswith("_:")]
        if len(ob):
            assert (ob.obj == ob.obj_canon).all()
        assert bn.subj.str.contains("-c14n").all()  # actually relabeled


# --- the one emit task (stages/triples.make_emit_batch) --------------------

_CORPORA = {"plain": dict(num_files=240, seed=5), "heavy": dict(num_files=30, seed=5, heavy_fraction=1.0)}


def _two_step(table, canonical: bool):
    from jsonld_ex_ray.pipeline import _relabel_docs
    from jsonld_ex_ray.stages.extract import make_extract_batch
    from jsonld_ex_ray.stages.triples import triples_batch

    out = triples_batch(make_extract_batch()(table))
    return _relabel_docs(out) if canonical else out


@pytest.mark.parametrize("canonical", [False, True], ids=["issuer", "canonical"])
@pytest.mark.parametrize("corpus_name", sorted(_CORPORA))
def test_emit_task_matches_two_step(ray_session, tmp_path, corpus_name, canonical):
    """build_triples' one emit task gives the rows of extract → payload
    table → triples_batch (→ _relabel_docs when canonical), as a multiset
    over every column; in process, without canonical, the very same table."""
    import pyarrow as pa

    from jsonld_ex_ray.stages.triples import make_emit_batch

    path = str(tmp_path / "repos.parquet")
    write_corpus(path, **_CORPORA[corpus_name])
    table = pq.read_table(path)
    want = _two_step(table, canonical)
    got = build_triples(path, canonical=canonical, batch_size=16).take_all()
    assert len(got) == want.num_rows > 0
    assert _row_multiset(got) == _row_multiset(want.to_pylist())
    if canonical:
        assert any("-c14n" in r["subj"] for r in got if r["subj"])
    else:
        assert make_emit_batch()(table).equals(want)
        assert make_emit_batch()(table.slice(0, 0)).equals(want.slice(0, 0))
    assert pa.Table.from_pylist(got).schema.names == want.schema.names


def _notebook_detector(payload: str):
    def detect(content, lang, ext):
        return ([payload], []) if ext == "ipynb" else None

    return detect


_NOTEBOOK = {"repo": ["r"], "path": ["nb.ipynb"], "commit": ["c"], "lang": ["json"], "content": ["{}"]}


def test_driver_detector_reaches_emit_task(ray_session):
    """build_triples snapshots the driver's detector registry into the emit
    task: the Ray workers never see the module global."""
    import pyarrow as pa
    import ray.data

    from jsonld_ex_ray.extract import DETECTORS, register_detector

    register_detector("notebook", _notebook_detector('{"@id":"http://ex/nb","http://ex/p":"v"}'))
    try:
        ds = build_triples(ray.data.from_arrow(pa.table(_NOTEBOOK)))
    finally:
        DETECTORS.clear()
    rows = ds.take_all()
    assert [(r["subj"], r["pred"], r["obj"]) for r in rows] == [("http://ex/nb", "http://ex/p", "v")]
    assert rows[0]["doc_id"] == "r@c:nb.ipynb#0"


def test_invalid_detector_payload_is_an_error_row(ray_session):
    """A detector's payload is JSON text, parsed inside the per-document
    error handling: invalid text gives a ``processing failed`` row on both
    entry points."""
    import pyarrow as pa
    import ray.data

    from jsonld_ex_ray.extract import DETECTORS, register_detector
    from jsonld_ex_ray.stages.extract import make_extract_batch
    from jsonld_ex_ray.stages.triples import make_emit_batch, triples_batch

    table = pa.table(_NOTEBOOK)
    register_detector("notebook", _notebook_detector('{"@id": "http://ex/nb",'))
    try:
        fused, two_step = make_emit_batch(), make_extract_batch()
        ds = build_triples(ray.data.from_arrow(table))
    finally:
        DETECTORS.clear()
    out = fused(table)
    assert out.equals(triples_batch(two_step(table)))
    assert out.column("error_code").to_pylist() == ["processing failed"]
    assert out.column("pred").to_pylist() == [None]
    assert [r["error_code"] for r in ds.take_all()] == ["processing failed"]


def test_empty_map_type_is_an_error_row():
    """``"@type": {}`` is a frame-expansion wildcard only: in a document
    it is an ``invalid type value``, one error row of the emit task."""
    import pyarrow as pa

    from jsonld_ex_ray.core import JsonLdOptions, expand
    from jsonld_ex_ray.stages.triples import make_emit_batch

    doc = '{"@context": {"@vocab": "http://ex/"}, "@type": {}}'
    table = pa.table({"repo": ["r"], "path": ["a.jsonld"], "commit": ["c"], "lang": ["jsonld"], "content": [doc]})
    out = make_emit_batch()(table)
    assert out.column("error_code").to_pylist() == ["invalid type value"]
    assert out.column("pred").to_pylist() == [None]
    framed = expand({"@id": "http://ex/a", "@type": {}}, JsonLdOptions(frame_expansion=True))
    assert framed == [{"@id": "http://ex/a", "@type": [{}]}]


def test_build_triples_plan_has_one_emit_task(ray_session, corpus):
    """Source scan → one emit ``MapBatches`` → the linker: no separate
    extraction or relabel task."""
    import ray

    ds = build_triples(corpus, canonical=True, linker_dict_ref=ray.put(LINKER))
    names, op = [], ds._logical_plan.dag
    while op is not None:
        names.append(op.name)
        op = op.input_dependencies[0] if op.input_dependencies else None
    assert names[:2] == ["MapBatches(link_batch)", "MapBatches(emit_batch)"]
    assert sum(n.startswith("MapBatches") for n in names) == 2


def test_pylist_matches_to_pylist():
    """jsonld_ex_ray.columns.pylist: equal to ``to_pylist()`` on string
    columns (nulls, chunks, empty, large_string) and on other types, where
    numpy would give floats and NaN."""
    import pyarrow as pa

    from jsonld_ex_ray.columns import pylist

    cols = [
        pa.array(["a", None, "", "é"]),
        pa.chunked_array([["a", None], [], ["x"]]),
        pa.chunked_array([], pa.string()),
        pa.array(["q", None], pa.large_string()),
        pa.array([1, None, 3]),
        pa.chunked_array([[1.5, None]]),
        pa.array([True, None]),
    ]
    for col in cols:
        got = pylist(col)
        assert got == col.to_pylist() and [type(v) for v in got] == [type(v) for v in col.to_pylist()]


def _to_pylist_calls(source: str) -> list[int]:
    import ast

    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "to_pylist"
    ]


def test_no_to_pylist_in_stages_or_pipeline():
    """Arrow → Python in stages/ and pipeline.py goes through
    ``columns.pylist``; ``.to_pylist()`` is many times slower on strings."""
    import glob

    import jsonld_ex_ray

    pkg = os.path.dirname(jsonld_ex_ray.__file__)
    files = sorted(glob.glob(os.path.join(pkg, "stages", "*.py"))) + [os.path.join(pkg, "pipeline.py")]
    found = {}
    for path in files:
        with open(path) as f:
            lines = _to_pylist_calls(f.read())
        if lines:
            found[os.path.relpath(path, pkg)] = lines
    assert found == {}
    assert _to_pylist_calls("xs = batch.column('a').to_pylist()\n") == [1]  # the guard sees one
