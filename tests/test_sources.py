"""File source + N-Quads sink round-trip."""

import glob
import json
import os

from jsonld_ex_ray.core.isomorphism import isomorphic
from jsonld_ex_ray.core.nquads import parse_nquads
from jsonld_ex_ray.pipeline import triples_only
from jsonld_ex_ray.sources import read_jsonld_files, write_nquads


def test_file_source_and_nquads_roundtrip(ray_session, tmp_path):
    d = tmp_path / "files"
    d.mkdir()
    (d / "a.jsonld").write_text(
        json.dumps(
            {
                "@context": {"@vocab": "https://x/", "knows": {"@type": "@id"}},
                "@id": "https://x/1",
                "name": "A",
                "knows": "https://x/2",
                "nested": {"label": "anon"},
            }
        )
    )
    (d / "b.html").write_text(
        '<html><script type="application/ld+json">'
        '{"@context":{"@vocab":"https://y/"},"@id":"https://y/3","label":"B"}'
        "</script></html>"
    )
    (d / "c.txt").write_text("no jsonld here at all")

    ds = triples_only(read_jsonld_files(str(d), batch_size=64))
    df = ds.to_pandas()
    assert len(df) == 5
    assert set(df.path.apply(os.path.basename)) == {"a.jsonld", "b.html"}

    out = str(tmp_path / "nq")
    write_nquads(ds, out)
    text = "".join(open(f).read() for f in glob.glob(f"{out}/*"))
    quads = parse_nquads(text)
    assert len(quads) == 5
    # round-trip: written N-Quads isomorphic to the dataset's triples
    want = []
    for r in df.itertuples():
        def term(v, kind=None, dt=None, lang=None):
            if kind == "literal":
                from jsonld_ex_ray.core.rdf_generation import RDF_LANGSTRING, XSD_STRING

                return ("lit", v, dt or XSD_STRING, lang)
            if v.startswith("_:"):
                return ("bnode", v[2:])
            return ("iri", v)

        want.append(
            (
                term(r.subj),
                term(r.pred),
                term(r.obj, r.obj_kind, r.obj_datatype, r.obj_lang),
                None,
            )
        )
    assert isomorphic(quads, want)


def test_nquads_roundtrip_via_reader(ray_session, tmp_path):
    """write_nquads → read_nquads round-trips the triple set exactly."""
    import pyarrow as pa
    import ray.data

    from jsonld_ex_ray.sources import read_nquads, write_nquads

    XS = "http://www.w3.org/2001/XMLSchema#string"
    rows = {
        "subj": ["https://x/s1", "_:b0", "https://x/s1"],
        "pred": ["https://x/p", "https://x/p", "https://x/q"],
        "obj": ['say "hi"\nplease', "https://x/o", "_:b0"],
        "obj_kind": ["literal", "iri", "bnode"],
        "obj_datatype": [XS, None, None],
        "obj_lang": [None, None, None],
        "graph": [None, "https://x/g", None],
    }
    ds = ray.data.from_arrow(pa.table(rows))
    out = str(tmp_path / "nq")
    write_nquads(ds, out)
    back = read_nquads(out).to_pandas()
    key = lambda df: sorted(
        map(tuple, df.fillna("").astype(str).values.tolist())
    )
    import pandas as pd

    src = pd.DataFrame(rows)
    back = back[src.columns]
    assert key(back) == key(src)


def test_kg_export_reimport_roundtrip(ray_session, tmp_path):
    """Full-pipeline integration: triples → N-Quads shards → re-imported
    triples are the same quad multiset (the RDF interchange contract)."""
    from jsonld_ex_ray.gen import write_corpus
    from jsonld_ex_ray.pipeline import build_triples, triples_only
    from jsonld_ex_ray.sources import read_nquads, write_nquads

    corpus = str(tmp_path / "repos.parquet")
    write_corpus(corpus, 120, seed=21)
    triples = triples_only(build_triples(corpus)).to_pandas()
    out = str(tmp_path / "nq")

    import ray.data
    import pyarrow as pa

    cols = ["subj", "pred", "obj", "obj_kind", "obj_datatype", "obj_lang", "graph"]
    write_nquads(ray.data.from_pandas(triples), out)
    back = read_nquads(out).to_pandas()

    def key(df):
        return sorted(map(tuple, df[cols].fillna("").astype(str).values.tolist()))

    src = triples[cols].copy()
    # serialization canonicalizes the implicit xsd:string datatype
    src["obj_datatype"] = src.apply(
        lambda r: (
            "http://www.w3.org/2001/XMLSchema#string"
            if r.obj_kind == "literal" and not r.obj_datatype
            else r.obj_datatype
        ),
        axis=1,
    )
    assert key(back) == key(src)


def test_read_nquads_scope_bnodes_per_file(ray_session, tmp_path):
    """Two independent dumps both using _:b0 name DIFFERENT nodes:
    per-file scoping keeps them apart; the default (shards of one
    dataset) keeps labels verbatim."""
    from jsonld_ex_ray.sources import read_nquads

    (tmp_path / "a.nq").write_text('_:b0 <http://x/p> "1" .\n')
    (tmp_path / "b.nq").write_text('_:b0 <http://x/p> "2" .\n')
    merged = read_nquads([str(tmp_path / "a.nq"), str(tmp_path / "b.nq")]).to_pandas()
    assert set(merged.subj) == {"_:b0"}  # default: verbatim labels
    scoped = read_nquads(
        [str(tmp_path / "a.nq"), str(tmp_path / "b.nq")], scope_bnodes_per_file=True
    ).to_pandas()
    assert len(set(scoped.subj)) == 2  # two distinct nodes survive
    assert all(s.startswith("_:") and "-b0" in s for s in scoped.subj)


def test_jsonl_roundtrip_strict(ray_session, tmp_path):
    """documents → write_jsonl → read_jsonl_docs (strict, arrow C++
    NDJSON reader) round-trips text + kept fields; doc_id rides through
    as the declared id field."""
    import pandas as pd
    import ray.data

    from jsonld_ex_ray.sources.files import read_jsonl_docs, write_jsonl

    df = pd.DataFrame(
        {
            "doc_id": [f"d{i}" for i in range(40)],
            "text": [f"text {i} with unicode é{i}" for i in range(40)],
            "lang": ["en", "fr"] * 20,
        }
    )
    out = str(tmp_path / "docs_jsonl")
    write_jsonl(ray.data.from_pandas(df).repartition(4), out)
    back = (
        read_jsonl_docs(out, id_field="doc_id", keep_fields=["lang"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = df.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(back[["doc_id", "text", "lang"]], want)


def test_jsonl_tolerant_path_and_md5_ids(ray_session, tmp_path):
    """strict=False survives malformed lines (error_code rows, raw line
    kept) and id_field=None derives doc_id = md5(text) — the
    exact-dedup identity."""
    import hashlib

    from jsonld_ex_ray.sources.files import read_jsonl_docs

    p = tmp_path / "wild.jsonl"
    p.write_text(
        '{"text": "good one"}\n'
        "this is not json\n"
        '{"text": "another", "extra": {"nested": 1}}\n'
        '[1, 2, 3]\n',
        encoding="utf-8",
    )
    got = read_jsonl_docs(str(p), strict=False).to_pandas()
    assert len(got) == 4
    ok = got[got["error_code"].isna()].sort_values("text").reset_index(drop=True)
    bad = got[got["error_code"].notna()]
    assert sorted(bad["text"]) == ["[1, 2, 3]", "this is not json"]
    assert set(bad["error_code"]) == {"invalid json"}
    assert ok["text"].tolist() == ["another", "good one"]
    for _, row in ok.iterrows():
        assert row["doc_id"] == hashlib.md5(row["text"].encode()).hexdigest()


def test_jsonl_gzip_strict(ray_session, tmp_path):
    """.jsonl.gz reads transparently on the strict path (arrow infers
    the codec from the extension) — the common corpus interchange."""
    import gzip

    from jsonld_ex_ray.sources.files import read_jsonl_docs

    p = tmp_path / "docs.jsonl.gz"
    with gzip.open(p, "wt") as f:
        for i in range(100):
            f.write('{"doc_id": "d%03d", "text": "hello %d"}\n' % (i, i))
    df = read_jsonl_docs(str(p), id_field="doc_id").to_pandas()
    assert len(df) == 100 and set(df.columns) == {"doc_id", "text"}


def test_jsonl_tolerant_non_string_scalars_and_blank_lines(ray_session, tmp_path):
    """Regression (review-found): a valid-JSON line with a non-string
    scalar in a declared field must not kill the read — scalars keep
    their JSON text; blank lines surface as error rows instead of
    silently vanishing (row-count parity with wc -l)."""
    from jsonld_ex_ray.sources.files import read_jsonl_docs

    p = tmp_path / "scalars.jsonl"
    p.write_text(
        '{"text": 42, "score": 1.5}\n'
        "\n"
        '{"text": "real", "score": true}\n',
        encoding="utf-8",
    )
    got = (
        read_jsonl_docs(str(p), strict=False, keep_fields=["score"])
        .to_pandas()
    )
    assert len(got) == 3  # wc -l parity
    bad = got[got["error_code"].notna()]
    assert len(bad) == 1 and bad["text"].iloc[0] == ""
    ok = got[got["error_code"].isna()].sort_values("text").reset_index(drop=True)
    assert ok["text"].tolist() == ["42", "real"]
    assert ok["score"].tolist() == ["1.5", "true"]  # JSON text, stringly


def test_write_jsonl_nan_roundtrips_as_null(ray_session, tmp_path):
    """Regression (review-found): NaN floats must emit JSON null (bare
    NaN literals break the strict pyarrow reader on re-ingest)."""
    import numpy as np
    import pandas as pd
    import ray.data

    from jsonld_ex_ray.sources.files import read_jsonl_docs, write_jsonl

    df = pd.DataFrame(
        {"doc_id": ["a", "b"], "text": ["x", "y"], "score": [1.5, np.nan]}
    )
    out = str(tmp_path / "nan_jsonl")
    write_jsonl(ray.data.from_pandas(df), out)
    back = (
        read_jsonl_docs(out, id_field="doc_id", keep_fields=["score"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert back["score"].tolist()[0] == 1.5
    assert pd.isna(back["score"].iloc[1])


def test_csv_docs_source(ray_session, tmp_path):
    """CSV corpus normalizes to the documents-table shape (shared
    normalizer with the JSONL reader): declared id passes through,
    absent id derives md5(text); TSV via parse_options."""
    import hashlib

    from pyarrow import csv as pacsv

    from jsonld_ex_ray.sources.files import read_csv_docs

    p = tmp_path / "docs.csv"
    p.write_text(
        'doc_id,text,lang\nd1,"hello world",en\nd2,"bonjour monde",fr\n',
        encoding="utf-8",
    )
    got = (
        read_csv_docs(str(p), id_field="doc_id", keep_fields=["lang"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got["doc_id"].tolist() == ["d1", "d2"]
    assert got["text"].tolist() == ["hello world", "bonjour monde"]
    assert got["lang"].tolist() == ["en", "fr"]

    t = tmp_path / "docs.tsv"
    t.write_text("text\nalpha beta\n", encoding="utf-8")
    got2 = read_csv_docs(
        str(t), parse_options=pacsv.ParseOptions(delimiter="\t")
    ).to_pandas()
    assert got2["doc_id"].iloc[0] == hashlib.md5(b"alpha beta").hexdigest()


def test_write_jsonl_nested_nan_in_list_column(ray_session, tmp_path):
    """Regression (review-found): NaN nested inside a list<float> column
    (embedding shape) must also emit JSON null, not a bare NaN literal
    the strict reader rejects."""
    import json as jsonlib
    import os

    import numpy as np
    import pandas as pd
    import ray.data

    from jsonld_ex_ray.sources.files import write_jsonl

    df = pd.DataFrame(
        {
            "doc_id": ["a", "b"],
            "emb": [[1.0, float("nan")], [np.inf, 2.0]],
        }
    )
    out = str(tmp_path / "nested_nan")
    write_jsonl(ray.data.from_pandas(df), out)
    rows = []
    for f in sorted(os.listdir(out)):
        with open(os.path.join(out, f)) as fh:
            for line in fh:
                rows.append(jsonlib.loads(line))  # parse=strictness proxy
    rows.sort(key=lambda r: r["doc_id"])
    assert rows[0]["emb"] == [1.0, None]
    assert rows[1]["emb"] == [None, 2.0]
