"""The duplicated-span operators (ops/dedup.duplicate_spans and
cut_duplicate_spans): their edge cases against the DuckDB oracles of
their ``__ray_entry__`` queries, the span emitter's chunk bound, and a
plan guard on how many shuffles each op costs."""

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
    got = duplicate_spans(ds, window=W, stride=S, num_buckets=4).take_all()
    want = _oracle("doc_dup_spans")
    assert sorted(got, key=_key) == sorted(want, key=_key)
    assert {r["doc_id"] for r in got} == {None, 2, 3, 4}  # never doc 1


def test_cut_duplicate_spans_edge_cases_match_oracle(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.dedup import cut_duplicate_spans

    ds = ray.data.from_arrow(_corpus()).repartition(3)
    got = cut_duplicate_spans(ds, window=W, stride=S, num_buckets=4).take_all()
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
    assert _plan_ops(getattr(dedup, op)(ds, window=W, stride=S, num_buckets=4), "Sort") == 2
