"""The bucketed-shuffle helper (ops/shuffle.py): its contract, and a
structural guard that keeps hand-written single-input bucket shuffles
from growing back in the package."""

import ast
import pathlib
from collections import Counter

import pyarrow as pa
import pytest

from jsonld_ex_ray.ops.shuffle import bucketed, key_runs

_KEYS = {
    "string": pa.array(["a", "b", None, "c", "a", None, "b", "d"] * 25, pa.string()),
    "int64": pa.array([3, -1, None, 7, 3, None, -1, 2**40] * 25, pa.int64()),
}


def _one_row_per_key_run(group: pa.Table) -> pa.Table:
    """What a bucket call saw: one row per key, with a per-call id."""
    import uuid

    g = group.sort_by("k")
    starts, ends = key_runs(g, ["k"])
    n = len(starts)
    return pa.table(
        {
            "k": g.column("k").take(pa.array(starts)),
            "n": pa.array(ends - starts),
            "call": pa.array([uuid.uuid4().hex] * n),
            "chunks": pa.array([max(c.num_chunks for c in group.columns)] * n),
            "cols": pa.array([",".join(group.column_names)] * n),
        }
    )


@pytest.mark.parametrize("num_buckets", [1, 7])
@pytest.mark.parametrize("kind", sorted(_KEYS))
def test_bucketed_contract(ray_session, kind, num_buckets):
    import ray
    import ray.data

    keys = _KEYS[kind]
    tbl = pa.table({"k": keys, "v": pa.array(range(len(keys)), pa.int64())})
    ds = ray.data.from_arrow(tbl).repartition(5)

    blocks = ray.get(
        bucketed(ds, ["k"], _one_row_per_key_run, num_buckets=num_buckets).to_arrow_refs()
    )
    assert all(c.num_chunks <= 1 for b in blocks for c in b.columns)
    out = pa.concat_tables([b for b in blocks if b.num_rows]).to_pylist()
    assert {r["cols"] for r in out} == {"k,v"}  # no routing column
    assert {r["chunks"] for r in out} == {1}  # fn sees one contiguous table
    # every key — NULL included — arrives whole in exactly one call
    assert len(out) == len(set(keys.to_pylist()))
    assert {r["k"]: r["n"] for r in out} == Counter(keys.to_pylist())
    assert len({r["call"] for r in out}) <= num_buckets

    empty = ray.data.from_arrow(tbl.slice(0, 0))
    assert bucketed(empty, ["k"], _one_row_per_key_run, num_buckets=num_buckets).count() == 0


def test_key_runs_splits_at_key_changes():
    t = pa.table(
        {
            "a": pa.array(["x", "x", "y", None, None], pa.string()),
            "b": pa.array([1, 2, 2, None, None], pa.int64()),
        }
    )
    starts, ends = key_runs(t, ["a"])
    assert starts.tolist() == [0, 2, 3] and ends.tolist() == [2, 3, 5]
    starts, ends = key_runs(t, ["a", "b"])
    assert starts.tolist() == [0, 1, 2, 3] and ends.tolist() == [1, 2, 3, 5]
    starts, ends = key_runs(t.slice(0, 1), ["a"])
    assert starts.tolist() == [0] and ends.tolist() == [1]
    starts, ends = key_runs(t.slice(0, 0), ["a"])
    assert len(starts) == 0 and len(ends) == 0


# Two-sided shuffles tag each input with a side and group on their own
# bucket column; they are the only hand-written bucket groupbys allowed.
_TWO_SIDED = {
    ("ops/joins.py", "hash_join_bucketed"),
    ("ops/joins.py", "asof_join_bucketed"),
    ("ops/joins.py", "interval_join_banded"),
    ("ops/setops.py", "set_op"),
    ("ops/dedup.py", "cut_duplicate_spans"),
}
_BUCKET_COLS = {"__bucket", "bucket", "__dbucket"}


def _bucket_groupbys(root: pathlib.Path):
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "groupby"
                ):
                    continue
                args = list(node.args) + [k.value for k in node.keywords if k.arg == "key"]
                if any(isinstance(a, ast.Constant) and a.value in _BUCKET_COLS for a in args):
                    yield rel, getattr(top, "name", None), node.lineno


def test_no_hand_written_bucket_shuffles():
    root = pathlib.Path(__file__).resolve().parents[1] / "jsonld_ex_ray"
    found = list(_bucket_groupbys(root))
    stray = [f for f in found if f[0] != "ops/shuffle.py" and f[:2] not in _TWO_SIDED]
    assert not stray, f"route these through ops/shuffle.bucketed: {stray}"
    # the guard itself still sees the allowed two-sided sites
    assert {f[:2] for f in found} == _TWO_SIDED


# The one broadcast-or-bucketed budget lives in ops/joins.py; the only
# other broadcast knob is a refusal guard, which chooses no path.
_BROADCAST_GUARDS = {("ops/similarity.py", "brute_force_dup_pairs", "max_broadcast_rows")}


def _broadcast_knobs(root: pathlib.Path):
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel == "ops/joins.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                for arg in a.posonlyargs + a.args + a.kwonlyargs:
                    if arg.arg.startswith("max_broadcast_"):
                        yield rel, node.name, arg.arg
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name) and "BROADCAST" in t.id:
                        yield rel, None, t.id


def test_one_broadcast_budget():
    root = pathlib.Path(__file__).resolve().parents[1] / "jsonld_ex_ray"
    found = set(_broadcast_knobs(root))
    stray = found - _BROADCAST_GUARDS
    assert not stray, f"decide broadcast vs bucketed through ops/joins.broadcast_side: {sorted(stray, key=str)}"
    # the guard itself still sees the allowed refusal guard
    assert found == _BROADCAST_GUARDS
