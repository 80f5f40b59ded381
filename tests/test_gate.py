"""The one broadcast-or-bucketed gate (ops/joins.py): its event, the
two keyed ops built on it, and the sites that take it on a
mostly-duplicate corpus."""

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from tests.test_ops import SF

# far above every side in these tests, and zero: below every non-empty side
_PATHS = {"broadcast": 1 << 40, "bucketed": 0}


def _rows(ds, key):
    return ds.to_pandas().sort_values(key).reset_index(drop=True)


def test_gate_event_fields(ray_session, caplog):
    import ray.data

    from jsonld_ex_ray.ops import joins

    caplog.set_level(logging.INFO, logger="jsonld_ex_ray.gate")
    side = ray.data.from_arrow(pa.table({"k": pa.array(range(1000), pa.int64())}))
    got = joins.broadcast_side("probe", side)
    assert got.num_rows == 1000
    (event,) = [r.gate for r in caplog.records if hasattr(r, "gate")]
    assert event == {
        "op": "probe",
        "side_rows": 1000,
        "side_bytes": 8000,
        "budget": joins._BROADCAST_MAX_BYTES,
        "path": "broadcast",
    }


@pytest.mark.parametrize("path", sorted(_PATHS))
def test_filter_by_keys_sql_semantics(ray_session, monkeypatch, gate_paths, path):
    """Semi and anti (NOT EXISTS) on both paths: NULL keys match nothing,
    duplicate keys filter once, key widths may differ; an empty key set
    keeps everything (anti) or nothing (semi)."""
    import ray.data

    from jsonld_ex_ray.ops import joins

    monkeypatch.setattr(joins, "_BROADCAST_MAX_BYTES", _PATHS[path])
    big = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 2, None, 3, 2, 4], pa.int32()),
                "rid": pa.array(range(6), pa.int64()),
            }
        )
    ).repartition(3)
    keys = ray.data.from_arrow(pa.table({"key": pa.array([2, 2, None, 4, 9], pa.int64())}))

    semi = joins.filter_by_keys(big, keys, on="k", keys_on="key")
    anti = joins.filter_by_keys(big, keys, on="k", keys_on="key", anti=True)
    assert sorted(semi.to_pandas()["rid"]) == [1, 4, 5]
    assert sorted(anti.to_pandas()["rid"]) == [0, 2, 3]  # the NULL row survives anti
    assert gate_paths("filter_by_keys") == [path, path]

    empty = ray.data.from_arrow(pa.table({"key": pa.array([], pa.int64())}))
    assert joins.filter_by_keys(big, empty, on="k", keys_on="key", anti=True).count() == 6
    assert joins.filter_by_keys(big, empty, on="k", keys_on="key").count() == 0


def test_lookup_by_key_paths_agree(ray_session, monkeypatch, gate_paths):
    """Both paths append the same values; a missing key and a NULL key
    read null, even when the side itself carries a NULL key."""
    import ray.data

    from jsonld_ex_ray.ops import joins

    ds = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array(["a", "b", "c", None, "e", "a"]),
                "rid": pa.array(range(6), pa.int64()),
            }
        )
    ).repartition(3)
    side = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array(["a", "b", None, "e"]),
                "x": pa.array([1.5, 2.5, 9.0, 4.5]),
                "y": pa.array([10, 20, 90, 40], pa.int64()),
            }
        )
    )
    outs = {}
    for path, budget in _PATHS.items():
        monkeypatch.setattr(joins, "_BROADCAST_MAX_BYTES", budget)
        out = joins.lookup_by_key(ds, side, on="k", cols=["x", "y"])
        outs[path] = _rows(out, "rid")
    assert gate_paths("lookup_by_key") == list(_PATHS)
    pd.testing.assert_frame_equal(outs["broadcast"], outs["bucketed"], check_dtype=False)
    got = outs["broadcast"].set_index("rid")
    assert got["x"].tolist()[:2] == [1.5, 2.5] and got.loc[4, "x"] == 4.5
    assert got.loc[[0, 5], "y"].tolist() == [10, 10]
    assert got.loc[[2, 3], ["x", "y"]].isna().all().all()  # missing "c", NULL key


def _mostly_duplicate_docs(n_base: int = 60, copies: int = 4):
    """``n_base`` real documents, each with ``copies`` exact copies and
    one near copy under fresh ids: 1 row in ``copies + 2`` is original."""
    base = pq.read_table(f"{SF}/documents.parquet").slice(0, n_base)
    parts = [base]
    for c in range(1, copies + 1):
        parts.append(
            base.set_column(0, "doc_id", pa.array(np.arange(n_base) + 10_000 * c, pa.int64()))
        )
    near = base.set_column(
        0, "doc_id", pa.array(np.arange(n_base) + 90_000, pa.int64())
    ).set_column(1, "text", pc.binary_join_element_wise(base.column("text"), " near copy", ""))
    parts.append(near)
    return pa.concat_tables(parts)


def test_exact_dedup_mostly_duplicate_corpus(ray_session, monkeypatch, gate_paths):
    """Four in five rows are exact copies: under a budget below the loser
    set's size the loser filter runs bucketed, and the survivors equal
    the default (broadcast) run and the min-id-per-text reference."""
    import ray.data

    from jsonld_ex_ray.ops import joins
    from jsonld_ex_ray.ops.dedup import exact_dedup

    tbl = _mostly_duplicate_docs()
    df = tbl.to_pandas()
    want = sorted(df.groupby("text")["doc_id"].min())

    def run():
        ds = ray.data.from_arrow(tbl).repartition(4)
        return sorted(exact_dedup(ds).to_pandas()["doc_id"])

    default = run()
    monkeypatch.setattr(joins, "_BROADCAST_MAX_BYTES", 0)
    forced = run()
    assert gate_paths("exact_dedup") == ["broadcast", "bucketed"]
    assert default == forced == want
    assert len(want) < len(df) / 2


def test_clean_corpus_mostly_duplicate_corpus(ray_session, monkeypatch, caplog, gate_paths):
    """clean_corpus(near_dup=True) on a mostly-duplicate corpus with the
    budget below each side's size: both drops (exact-dup losers, near-dup
    ids) run bucketed, and the output equals the default-budget run."""
    import ray.data

    from jsonld_ex_ray.ops import joins
    from jsonld_ex_ray.pipelines.corpus_clean import clean_corpus

    tbl = _mostly_duplicate_docs()

    def run():
        ds = ray.data.from_arrow(tbl).repartition(4)
        out = clean_corpus(ds, near_dup=True).to_pandas()
        return sorted(zip(out["doc_id"], out["split"]))

    default = run()
    ops = ("exact_dedup", "clean_corpus.near_dup")
    assert [gate_paths(op) for op in ops] == [["broadcast"], ["broadcast"]]
    sides = {r.gate["op"]: r.gate["side_bytes"] for r in caplog.records if hasattr(r, "gate")}
    assert all(sides[op] > 0 for op in ops)
    monkeypatch.setattr(joins, "_BROADCAST_MAX_BYTES", min(sides.values()) - 1)
    forced = run()
    assert [gate_paths(op) for op in ops] == [["broadcast", "bucketed"]] * 2
    assert forced == default
    assert len(default) <= 60  # at most one row per original document
