"""The duplicated-span operators (ops/dedup.duplicate_spans and
cut_duplicate_spans): their edge cases against the DuckDB oracles of
their ``__ray_entry__`` queries, the span emitter's chunk bound, plan
guards on how many shuffles each op and ``clean_corpus``'s cut stage
cost, and the cut's pass-through of every other column."""

import re

import duckdb
import pyarrow as pa
import pytest

import __ray_entry__

W, S = 8, 4  # span window and stride of the tiny corpus below

# 7 docs, one with a NULL id and one with NULL text:
# - 1 repeats "ABCDEFGH" at two stride offsets and nowhere else: not flagged;
# - None and 2 share "sharedXY", 3 and 4 share "common-1"; both are flagged
#   (the NULL id counts as one document, like SQL's SELECT DISTINCT);
# - 5 is shorter than the window, 6 has NULL text: neither has a span.
_DOCS = [
    (1, "ABCDEFGHABCDEFGH-own-text-1"),
    (None, "sharedXY-unique-null-doc"),
    (2, "zzzzsharedXY-zz-two"),
    (3, "common-1" * 2 + "three"),
    (4, "abcdcommon-1four"),
    (5, "short"),
    (6, None),
]


def _corpus():
    return pa.table(
        {
            "doc_id": pa.array([d for d, _ in _DOCS], pa.int64()),
            "text": pa.array([t for _, t in _DOCS], pa.string()),
        }
    )


def _oracle(name: str) -> list[dict]:
    """The registry's DuckDB oracle of query ``name``, rewritten
    from its 64/32 windows to ``W``/``S`` and run over the tiny corpus."""
    sql = __ray_entry__._ORACLES[name]
    for old, new in [
        ("length(text) - 63, 0), 32)", f"length(text) - {W - 1}, 0), {S})"),
        ("CAST(i AS INTEGER), 64)", f"CAST(i AS INTEGER), {W})"),
        ("f.i + 63", f"f.i + {W - 1}"),
    ]:
        sql = sql.replace(old, new)
    assert not re.search(r"\b(32|63|64)\b", sql), sql  # every window literal rewritten
    con = duckdb.connect()
    con.register("documents", _corpus())
    return con.execute(sql).arrow().to_pylist()


def _key(row: dict):
    return tuple((v is None, v) for v in row.values())


def test_duplicate_spans_edge_cases_match_oracle(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.dedup import duplicate_spans

    ds = ray.data.from_arrow(_corpus()).repartition(3)
    got = duplicate_spans(ds, window=W, stride=S).take_all()
    want = _oracle("doc_dup_spans")
    assert sorted(got, key=_key) == sorted(want, key=_key)
    assert {r["doc_id"] for r in got} == {None, 2, 3, 4}  # never doc 1


def test_cut_duplicate_spans_edge_cases_match_oracle(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.dedup import cut_duplicate_spans

    ds = ray.data.from_arrow(_corpus()).repartition(3)
    got = cut_duplicate_spans(ds, window=W, stride=S).take_all()
    want = _oracle("doc_dedup_cut")
    by_id = {r["doc_id"]: r["text"] for r in got}
    assert sorted(got, key=_key) == sorted(want, key=_key)
    # the NULL id is one document: its shared span is cut like any other
    # (the SQL joins it with IS NOT DISTINCT FROM)
    assert by_id[None] == "-unique-null-doc"
    assert by_id[1] == _DOCS[0][1]  # repeated inside one doc only: kept
    assert by_id[2] == "zzzz-zz-two"
    assert by_id[5] == "short" and by_id[6] == ""


def test_span_emitter_one_chunk_per_column():
    from jsonld_ex_ray.ops.dedup import _make_span_emitter, _span_schema

    batch = pa.table(
        {
            "doc_id": pa.array(range(200), pa.int64()),
            "text": pa.array([f"doc {i} " * (i % 40 + 3) for i in range(200)]),
        }
    )
    schema = _span_schema("doc_id", pa.int64(), with_offset=True)
    spans = _make_span_emitter(16, 4, "text", "doc_id", schema, with_offset=True)(batch)
    assert spans.num_rows > 200
    assert spans.schema == schema
    assert all(c.num_chunks <= 1 for c in spans.columns)


def _plan_ops(ds, name: str) -> int:
    """How many logical operators of type ``name`` ``ds``' plan holds,
    walking the DAG through ``input_dependencies``."""
    seen, stack = set(), [ds._logical_plan.dag]
    n = 0
    while stack:
        op = stack.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        n += type(op).__name__ == name
        stack.extend(op.input_dependencies)
    return n


@pytest.mark.parametrize("op", ["duplicate_spans", "cut_duplicate_spans"])
def test_span_ops_plan_two_shuffles(ray_session, op):
    """Each span op is one shuffle on the span hash plus one on the doc
    id: a ``Sort`` is the sort-based shuffle under every
    ``groupby().map_groups``."""
    import ray.data

    from jsonld_ex_ray.ops import dedup

    ds = ray.data.from_arrow(_corpus())
    assert _plan_ops(getattr(dedup, op)(ds, window=W, stride=S), "Sort") == 2


def test_clean_corpus_cut_spans_plans_two_shuffles(ray_session):
    """With ``cut_spans=True`` the stage after its checkpoint is the cut
    alone: its two shuffles, and no join putting the other columns back."""
    import ray.data

    from jsonld_ex_ray.pipelines.corpus_clean import clean_corpus

    ds = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")
    assert _plan_ops(clean_corpus(ds, cut_spans=True), "Sort") == 2


@pytest.mark.parametrize("source", ["from_items", "from_pandas"])
def test_cut_duplicate_spans_carries_every_column(ray_session, source):
    """Columns other than the text ride the cut's doc_id shuffle
    unchanged — int, string and all-NULL alike — also when the input
    blocks are pandas-backed (text typed as Python ``object``)."""
    import pandas as pd
    import ray.data

    from jsonld_ex_ray.ops.dedup import cut_duplicate_spans

    # the stride-aligned "shared-boilerplate-run!!" is cut from docs 0-2
    # (ASCII and non-ASCII paths); doc 3 is untouched
    texts = [f"own-{i}---" + "shared-boilerplate-run!!" + "é" * i for i in range(3)] + ["unique text"]
    rows = [{"doc_id": i, "text": t, "n": 10 * i, "s": f"s{i}", "z": None} for i, t in enumerate(texts)]
    if source == "from_items":
        ds = ray.data.from_items(rows)
    else:
        ds = ray.data.from_pandas(pd.DataFrame(rows))
    out = cut_duplicate_spans(ds.repartition(2), window=W, stride=S)
    got = sorted(out.take_all(), key=lambda r: r["doc_id"])
    assert out.schema().names == ["doc_id", "text", "n", "s", "z"]
    assert [{k: v for k, v in r.items() if k != "text"} for r in got] == [
        {k: v for k, v in r.items() if k != "text"} for r in rows
    ]
    assert [r["text"] for r in got] == ["own-0---", "own-1---é", "own-2---éé", "unique text"]


def test_span_ops_on_a_stream_the_gates_empty(ray_session):
    """Two documents of repeated single letters fail the quality and
    repetition gates; the materialized empty stream has no schema, and
    the cut stage still returns 0 rows like the plain pipeline, as does
    duplicate_spans over that stream."""
    import ray.data

    from jsonld_ex_ray.ops.dedup import duplicate_spans
    from jsonld_ex_ray.ops.text import filter_quality, filter_repetition
    from jsonld_ex_ray.pipelines.corpus_clean import clean_corpus

    texts = [" ".join("a" * 300), " ".join("b" * 300)]
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en", "en"]),
            "source": pa.array(["web", "web"]),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    assert clean_corpus(ray.data.from_arrow(docs)).take_all() == []
    assert clean_corpus(ray.data.from_arrow(docs), cut_spans=True).take_all() == []
    gated = filter_repetition(filter_quality(ray.data.from_arrow(docs))).materialize()
    assert duplicate_spans(gated).take_all() == []


def test_clean_corpus_cut_spans_keeps_null_id(ray_session):
    """The cut keeps a document whose id is NULL, like the plain pipeline:
    both settings give the same doc_id multiset, NULL included."""
    from collections import Counter

    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data

    from jsonld_ex_ray.pipelines.corpus_clean import clean_corpus

    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    kept = sorted(clean_corpus(ray.data.from_arrow(docs)).to_pandas().doc_id)[:21]
    docs = docs.filter(pc.is_in(docs.column("doc_id"), pa.array(kept)))
    ids = docs.column("doc_id").to_pylist()
    ids[0] = None
    docs = docs.set_column(docs.schema.get_field_index("doc_id"), "doc_id", pa.array(ids, pa.int64()))

    def doc_ids(cut_spans: bool) -> Counter:
        ds = ray.data.from_arrow(docs).repartition(3)
        return Counter(r["doc_id"] for r in clean_corpus(ds, cut_spans=cut_spans).take_all())

    plain = doc_ids(False)
    assert plain[None] == 1 and sum(plain.values()) == 21
    assert doc_ids(True) == plain
