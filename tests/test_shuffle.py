"""The bucketed-shuffle helper (ops/shuffle.py): its one- and two-input
contracts, and a structural guard that keeps hand-written bucket
shuffles from growing back in the package."""

import ast
import pathlib
import random
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
def test_bucketed_contract(ray_session, buckets, kind, num_buckets):
    import ray
    import ray.data

    buckets(num_buckets)
    keys = _KEYS[kind]
    tbl = pa.table({"k": keys, "v": pa.array(range(len(keys)), pa.int64())})
    ds = ray.data.from_arrow(tbl).repartition(5)

    blocks = ray.get(
        bucketed(ds, ["k"], _one_row_per_key_run).to_arrow_refs()
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
    assert bucketed(empty, ["k"], _one_row_per_key_run).count() == 0


def test_bucketed_knows_its_boundaries(ray_session, monkeypatch):
    """Bucket ids lie in ``[0, NUM_BUCKETS)``, so the shuffle never samples
    its input for range boundaries, and it runs one reduce task per Ray
    CPU at most: the output has no more blocks than that."""
    import ray
    import ray.data
    from ray.data._internal.planner.exchange.sort_task_spec import SortTaskSpec

    def no_sampling(*args, **kwargs):
        raise AssertionError("bucketed sampled its input for boundaries")

    monkeypatch.setattr(SortTaskSpec, "sample_boundaries", staticmethod(no_sampling))
    keys = _KEYS["string"]
    tbl = pa.table({"k": keys, "v": pa.array(range(len(keys)), pa.int64())})
    ds = ray.data.from_arrow(tbl).repartition(16)

    out = bucketed(ds, ["k"], _one_row_per_key_run).materialize()
    rows = out.take_all()
    assert len(rows) == len(set(keys.to_pylist()))  # each key in exactly one call
    assert {r["k"]: r["n"] for r in rows} == Counter(keys.to_pylist())  # and whole
    assert out.num_blocks() <= min(64, int(ray.cluster_resources()["CPU"]))


def _per_side_key_runs(left: pa.Table, right: pa.Table) -> pa.Table:
    """What a two-input bucket call saw: one row per (side, key)."""
    import uuid

    call, parts = uuid.uuid4().hex, []
    cols = "|".join(",".join(t.column_names) for t in (left, right))
    for side, t, key in (("L", left, "k"), ("R", right, "key")):
        g = t.sort_by(key)
        starts, ends = key_runs(g, [key])
        n = len(starts)
        parts.append(
            pa.table(
                {
                    "side": pa.array([side] * n, pa.string()),
                    "k": g.column(key).take(pa.array(starts)).cast(pa.int64()),
                    "n": pa.array(ends - starts, pa.int64()),
                    "call": pa.array([call] * n, pa.string()),
                    "chunks": pa.array([max(c.num_chunks for c in t.columns)] * n, pa.int64()),
                    "cols": pa.array([cols] * n, pa.string()),
                }
            )
        )
    return pa.concat_tables(parts)


@pytest.mark.parametrize("num_buckets", [1, 7])
def test_bucketed_two_inputs_contract(ray_session, buckets, num_buckets):
    import ray
    import ray.data

    buckets(num_buckets)
    lk = pa.array([1, 2, None, 3, 1, None, 5] * 20, pa.int32())
    rk = pa.array([2, None, 3, 3, 4, 2**40] * 15, pa.int64())
    left = pa.table({"k": lk, "a": pa.array([str(i) for i in range(len(lk))])})
    right = pa.table({"key": rk, "b": pa.array(range(len(rk)), pa.float64()), "extra": pa.array([0] * len(rk))})
    right_schema = pa.schema([("key", pa.int64()), ("b", pa.float64())])  # names the columns it carries
    lds = ray.data.from_arrow(left).repartition(4)
    rds = ray.data.from_arrow(right).repartition(3)

    def run(lds, rds):
        sides = [(lds, ["k"]), (rds, ["key"], right_schema)]
        blocks = ray.get(bucketed(sides, None, _per_side_key_runs).to_arrow_refs())
        assert all(c.num_chunks <= 1 for b in blocks for c in b.columns)  # one chunk per block
        return pa.concat_tables([b for b in blocks if b.num_rows]).to_pylist()

    out = run(lds, rds)
    assert {r["cols"] for r in out} == {"k,a|key,b"}  # each side only its own columns
    assert {r["chunks"] for r in out} == {1}  # each side one contiguous table
    for side, keys in (("L", lk), ("R", rk)):
        seen = [(r["k"], r["n"]) for r in out if r["side"] == side]
        # every key — NULL included — arrives whole in exactly one call
        assert len(seen) == len(set(keys.to_pylist()))
        assert dict(seen) == Counter(keys.to_pylist())
    # both sides' rows of a key (int32 against int64, NULL against NULL)
    # reach the same call
    calls = {}
    for r in out:
        calls.setdefault(r["k"], set()).add(r["call"])
    assert set(lk.to_pylist()) & set(rk.to_pylist()) == {2, 3, None}
    assert all(len(c) == 1 for c in calls.values())
    assert len({r["call"] for r in out}) <= num_buckets

    # an empty side still reaches fn, as an empty table with its columns
    out = run(lds, ray.data.from_arrow(right.slice(0, 0)))
    assert {r["side"] for r in out} == {"L"} and {r["cols"] for r in out} == {"k,a|key,b"}
    assert dict((r["k"], r["n"]) for r in out) == Counter(lk.to_pylist())


def test_patched_bucket_count_reaches_the_workers(ray_session, buckets):
    """``buckets(1)`` sends every key to one ``fn`` call, for one input
    and for two: the workers route by the patched constant. At the
    default the same inputs take several calls, so a test that patches
    the constant does run with fewer buckets."""
    import ray.data

    tbl = pa.table({"k": pa.array(range(50), pa.int64())})
    left = ray.data.from_arrow(tbl).repartition(4)
    right = ray.data.from_arrow(tbl.rename_columns(["key"]))

    def calls():
        one = bucketed(left, ["k"], _one_row_per_key_run)
        two = bucketed([(left, ["k"]), (right, ["key"])], None, _per_side_key_runs)
        return [len({r["call"] for r in ds.take_all()}) for ds in (one, two)]

    assert min(calls()) > 1
    buckets(1)
    assert calls() == [1, 1]


def test_two_sided_joins_accept_pandas_backed_sides(ray_session, buckets):
    """A ``from_pandas`` side types its text columns as Python ``object``
    in ``Dataset.schema()``; the joins read its Arrow schema instead when
    no schema is passed."""
    import pandas as pd
    import ray.data

    from jsonld_ex_ray.ops.joins import asof_join_bucketed, hash_join_bucketed, interval_join_banded

    left = ray.data.from_pandas(pd.DataFrame({"k": [1, 2, 3], "s": ["a", "b", "c"], "v": [1.0, 2.0, 3.0]}))
    right = ray.data.from_pandas(pd.DataFrame({"k": [1, 2, 4], "t": ["x", "y", "z"], "w": [0.5, 2.0, 9.0]}))
    bands = ray.data.from_pandas(pd.DataFrame({"lo": [0.5, 2.5], "hi": [1.5, 9.0], "t": ["p", "q"]}))

    def rows(ds):
        return sorted(ds.take_all(), key=lambda r: r["k"])

    buckets(2)
    assert rows(hash_join_bucketed(left, right, left_on="k", right_on="k", right_cols=["t"])) == [
        {"k": 1, "s": "a", "v": 1.0, "t": "x"},
        {"k": 2, "s": "b", "v": 2.0, "t": "y"},
    ]
    probes = ray.data.from_pandas(pd.DataFrame({"k": [1, 2, 3], "s": ["a", "b", "c"], "w": [1.0, 2.0, 3.0]}))
    asof = asof_join_bucketed(
        probes, right, on="w", by="k", right_value_cols=["t"], allow_exact_matches=True
    )
    assert [(r["k"], r["t"]) for r in rows(asof)] == [(1, "x"), (2, "y"), (3, None)]
    banded = interval_join_banded(
        left, bands, left_val="v", right_lo="lo", right_hi="hi", right_cols=["t"], band_width=1.0
    )
    assert [(r["k"], r["t"]) for r in rows(banded)] == [(1, "p"), (3, "q")]


# One routing constant: ops/shuffle.py alone decides the bucket count and
# the block counts. Only the hashing primitive takes a count.
_COUNT_PARAMS = {"num_buckets", "num_shards", "num_ranges"}
_COUNT_TAKERS = {
    ("jsonld_ex_ray/ops/hashing.py", "bucket_ids", "num_buckets"),
}


def _layout_knobs_in(source: str):
    """(function, what) for each def taking a ``num_buckets``,
    ``num_shards`` or ``num_ranges`` parameter (``function`` is that def)
    and each ``.repartition(`` call not given exactly ``partitions()``
    (``function`` is the enclosing top-level def)."""
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                for arg in a.posonlyargs + a.args + a.kwonlyargs:
                    if arg.arg in _COUNT_PARAMS:
                        yield node.name, arg.arg
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "repartition":
                args = [*node.args, *(k.value for k in node.keywords)]
                p = args[0] if len(args) == 1 else None
                if not (isinstance(p, ast.Call) and getattr(p.func, "id", None) == "partitions" and not p.args):
                    yield getattr(top, "name", None), "repartition"


_LAYOUT_KNOBS = """
def join(left, right, *, num_buckets=64):
    return left.repartition(32).union(right.repartition(num_buckets))

def loop(ds):
    return ds.repartition(partitions())
"""


def test_one_routing_constant():
    root = pathlib.Path(__file__).resolve().parents[1]
    paths = [*sorted((root / "jsonld_ex_ray").rglob("*.py")), root / "__ray_entry__.py"]
    found = {
        (path.relative_to(root).as_posix(), *site) for path in paths for site in _layout_knobs_in(path.read_text())
    }
    stray = found - _COUNT_TAKERS
    assert not stray, f"take the layout from ops/shuffle (NUM_BUCKETS, partitions()): {sorted(stray, key=str)}"
    assert found == _COUNT_TAKERS
    # the guard itself flags a count parameter and literal or parameter
    # block counts, and passes partitions()
    assert sorted(_layout_knobs_in(_LAYOUT_KNOBS)) == [
        ("join", "num_buckets"),
        ("join", "repartition"),
        ("join", "repartition"),
    ]


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


_BUCKET_COLS = {"__bucket", "bucket", "__dbucket"}


def _bucket_groupbys(root: pathlib.Path):
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for site in _bucket_groupbys_in(path.read_text()):
            yield (rel, *site)


def _bucket_groupbys_in(source: str):
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "groupby"
            ):
                continue
            args = list(node.args) + [k.value for k in node.keywords if k.arg == "key"]
            if any(isinstance(a, ast.Constant) and a.value in _BUCKET_COLS for a in args):
                yield getattr(top, "name", None), node.lineno


_HAND_WRITTEN = """
def join(left, right, fn):
    both = left.union(right)
    return both.groupby("__bucket").map_groups(fn, batch_format="pyarrow")
"""


def test_no_hand_written_bucket_shuffles():
    root = pathlib.Path(__file__).resolve().parents[1] / "jsonld_ex_ray"
    stray = [f for f in _bucket_groupbys(root) if f[0] != "ops/shuffle.py"]
    assert not stray, f"route these through ops/shuffle.bucketed: {stray}"
    # the guard itself still flags a hand-written bucket shuffle
    assert list(_bucket_groupbys_in(_HAND_WRITTEN)) == [("join", 4)]



def _map_groups_chains_in(source: str):
    """(function, line) of each ``.groupby(...).map_groups(`` chain in
    ``source``; a pandas ``df.groupby(...)`` without ``map_groups`` is
    not counted."""
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_groups"
                and isinstance(node.func.value, ast.Call)
                and getattr(node.func.value.func, "attr", None) == "groupby"
            ):
                yield getattr(top, "name", None), node.lineno


_MAP_GROUPS = """
def per_user(ds, fn):
    return (
        ds.groupby("user")
        .map_groups(fn, batch_format="pyarrow")
    )

def sizes(df):
    return df.groupby(["a", "b"])["c"].transform("size")
"""


def test_no_map_groups_outside_shuffle():
    """Every keyed shuffle runs through ops/shuffle.bucketed: no other
    ``Dataset.groupby(...).map_groups`` in the package or entry points."""
    root = pathlib.Path(__file__).resolve().parents[1]
    paths = [*sorted((root / "jsonld_ex_ray").rglob("*.py")), root / "__ray_entry__.py", root / "bench.py"]
    stray = [
        (path.relative_to(root).as_posix(), *site)
        for path in paths
        for site in _map_groups_chains_in(path.read_text())
        if path.relative_to(root).as_posix() != "jsonld_ex_ray/ops/shuffle.py"
    ]
    assert not stray, f"route these through ops/shuffle.bucketed: {stray}"
    # the guard itself flags a groupby().map_groups chain, not a pandas groupby
    assert list(_map_groups_chains_in(_MAP_GROUPS)) == [("per_user", 4)]


def _arrow_group_bys_in(source: str):
    """(function, line) of each Arrow ``.group_by(`` call in ``source``;
    a Polars one (``.group_by(...).agg(...)``) is not counted."""
    tree = ast.parse(source)
    polars = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "agg"
    }
    for top in tree.body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "group_by"
                and id(node) not in polars
            ):
                yield getattr(top, "name", None), node.lineno


_GROUP_BYS = """
def distinct(t, cols):
    return t.group_by(cols).aggregate([])

def counts(df, col):
    return df.group_by(col, maintain_order=True).agg(pl.len())
"""


def test_arrow_group_by_only_in_aggregate():
    root = pathlib.Path(__file__).resolve().parents[1] / "jsonld_ex_ray"
    found = {
        (path.relative_to(root).as_posix(), fn)
        for path in sorted(root.rglob("*.py"))
        for fn, _line in _arrow_group_bys_in(path.read_text())
    }
    stray = found - {("ops/shuffle.py", "aggregate")}
    assert not stray, f"group through ops/shuffle.aggregate (one group per NULL key): {sorted(stray, key=str)}"
    assert found == {("ops/shuffle.py", "aggregate")}
    # the guard itself flags an Arrow group_by and passes a Polars one
    assert list(_arrow_group_bys_in(_GROUP_BYS)) == [("distinct", 3)]

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


# Driver collects in the grouped-aggregate modules: only these are
# bounded by construction (one fixed-size row per block, one row per
# bucket or range, the single NULL-key stats row); every other grouped
# result stays a Dataset. No size knob (``capacity``, ``max_*``) picks a
# driver path.
_BOUNDED_COLLECTS = {
    ("ops/agg.py", "histogram_fixed"),
    ("ops/agg.py", "distinct_count"),
    ("ops/agg.py", "approx_distinct_hll"),
    ("ops/agg.py", "exact_quantiles"),
    ("ops/agg.py", "ordered_prefix_sum"),
    ("ops/agg.py", "_with_group_stats"),
}
_COLLECTS = {"to_pandas", "to_arrow_refs"}


def _is_size_knob(param: str) -> bool:
    return param == "capacity" or param.startswith("max_")


def _driver_collects_in(source: str):
    """(function, what) for each collect call and each driver-path size
    parameter in ``source``; ``function`` is the enclosing top-level def."""
    for top in ast.parse(source).body:
        name = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in _COLLECTS:
                yield name, node.func.attr
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                for arg in a.posonlyargs + a.args + a.kwonlyargs:
                    if _is_size_knob(arg.arg):
                        yield name, arg.arg


_DRIVER_COMBINE = """
def groupby_small(ds, keys, aggs):
    return ds.map_batches(partial).to_pandas().groupby(keys).sum()

def hitters(ds, col, k, *, capacity=2048):
    refs = ds.to_arrow_refs()

def quantiles(ds, col, qs, max_groups=16):
    pass
"""


def test_grouped_aggregates_collect_nothing_unbounded():
    root = pathlib.Path(__file__).resolve().parents[1] / "jsonld_ex_ray"
    found = set()
    for rel in ("ops/agg.py", "ops/window.py"):
        found |= {(rel, fn, what) for fn, what in _driver_collects_in((root / rel).read_text())}
    stray = {f for f in found if f[:2] not in _BOUNDED_COLLECTS or _is_size_knob(f[2])}
    assert not stray, f"return a Dataset from the bucketed combine: {sorted(stray, key=str)}"
    # every allowlisted collect is still there, and the guard still sees
    # a driver combine and a size knob
    assert {f[:2] for f in found} == _BOUNDED_COLLECTS
    assert sorted(_driver_collects_in(_DRIVER_COMBINE)) == [
        ("groupby_small", "to_pandas"),
        ("hitters", "capacity"),
        ("hitters", "to_arrow_refs"),
        ("quantiles", "max_groups"),
    ]


# One checkpoint primitive: the claim helper is the only flock, the
# stamped-marker helpers (writing, checking and recognising a marker) the
# only places that spell a marker's name, and no claim is judged by pid
# liveness.
_CHECKPOINT_SITES = {
    ("pipeline.py", "_claim", "fcntl.flock"),
    ("pipeline.py", "_stage_dir", "._SUCCESS"),
    ("pipeline.py", "_mark_done", "._SUCCESS"),
    ("pipeline.py", "_is_marker", "._SUCCESS"),
}


def _checkpoint_sites_in(source: str):
    """(function, what) for each ``fcntl.flock`` or ``os.kill`` reference
    and each non-docstring string constant holding ``._SUCCESS`` or
    ``/proc/`` in ``source``; ``function`` is the enclosing top-level def."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    for top in tree.body:
        name = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                what = f"{node.value.id}.{node.attr}"
                if what in ("fcntl.flock", "os.kill"):
                    yield name, what
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
                yield from ((name, s) for s in ("._SUCCESS", "/proc/") if s in node.value)


_PID_LIVENESS = '''
def claim(path):
    """Break the claim unless its pid in /proc/ is alive."""
    fcntl.flock(lock, fcntl.LOCK_EX)
    pid = int(open(path).read())
    return os.path.exists(f"/proc/{pid}/stat") and os.kill(pid, 0)

def done(path):
    return os.path.exists(path + "._SUCCESS")
'''


def test_one_checkpoint_primitive():
    root = pathlib.Path(__file__).resolve().parents[1] / "jsonld_ex_ray"
    found = set()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for fn, what in _checkpoint_sites_in(path.read_text()):
            # os.kill and /proc/ are checked where the checkpoints live
            if what in ("fcntl.flock", "._SUCCESS") or rel == "pipeline.py" or rel.startswith("pipelines/"):
                found.add((rel, fn, what))
    stray = found - _CHECKPOINT_SITES
    assert not stray, f"claim through pipeline._claim, name markers in _stage_dir/_mark_done: {sorted(stray, key=str)}"
    assert found == _CHECKPOINT_SITES
    # the guard itself flags a pid-liveness claim and a hand-spelled
    # marker, and skips the docstring
    assert sorted(_checkpoint_sites_in(_PID_LIVENESS)) == [
        ("claim", "/proc/"),
        ("claim", "fcntl.flock"),
        ("claim", "os.kill"),
        ("done", "._SUCCESS"),
    ]


def test_library_lineages_run_without_reservation(ray_session, tmp_path, monkeypatch):
    """Ray Data's per-operator resource reservation is off on every
    Dataset the library builds from a source it first touches (the emit
    of ``build_triples`` over paths, one- and two-sided ``bucketed`` ops,
    ``clean_corpus``), and in every execution ``full_kg_run`` and
    ``clean_corpus`` run (ops/shuffle.without_reservation)."""
    import ray.data
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from jsonld_ex_ray.gen import write_corpus
    from jsonld_ex_ray.ops.agg import groupby_agg
    from jsonld_ex_ray.ops.joins import hash_join_bucketed
    from jsonld_ex_ray.pipeline import build_triples
    from jsonld_ex_ray.pipelines import full_kg_run
    from jsonld_ex_ray.pipelines.corpus_clean import clean_corpus

    def reserved(ds) -> bool:
        return ds.context.op_resource_reservation_enabled

    runs, execute = [], StreamingExecutor.execute

    def recorded(self, *args, **kwargs):
        runs.append(self._data_context.op_resource_reservation_enabled)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", recorded)
    corpus = str(tmp_path / "repos.parquet")
    write_corpus(corpus, 30, seed=3)
    assert reserved(build_triples(corpus)) is False

    tbl = pa.table({"k": [1, 2, 1, 3], "v": [1.0, 2.0, 3.0, 4.0]})
    assert reserved(ray.data.from_arrow(tbl))  # the library's default source is untouched
    assert reserved(groupby_agg(ray.data.from_arrow(tbl), ["k"], [("v", "sum", "s")])) is False
    joined = hash_join_bucketed(
        ray.data.from_arrow(tbl), ray.data.from_arrow(tbl.rename_columns(["k", "w"])),
        left_on="k", right_on="k", right_cols=["w"],
    )
    assert reserved(joined) is False

    # prose documents that pass both gates, every fifth one a duplicate
    rng = random.Random(5)
    words = "the of and to in graph node triple context value term store list map base".split()
    words += [f"{w}{i}" for w in ("iri", "blank", "quad") for i in range(10)]
    texts = [" ".join(rng.choice(words) for _ in range(60)) + "." for _ in range(20)]
    texts += texts[::5]
    docs = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": texts,
        "lang": ["en"] * len(texts),
        "source": ["web"] * len(texts),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    cleaned = clean_corpus(ray.data.from_arrow(docs), cut_spans=True)
    assert reserved(cleaned) is False
    assert cleaned.count() == 20
    full_kg_run(corpus, str(tmp_path / "kg"))
    assert len(runs) > 2 and not any(runs)


def test_only_shuffle_spells_the_reservation():
    """ops/shuffle.py alone decides how many tasks an operator may run:
    no other module of the package or the entry scripts sets Ray Data's
    reservation."""
    root = pathlib.Path(__file__).resolve().parents[1]
    sources = [*(root / "jsonld_ex_ray").rglob("*.py"), root / "__ray_entry__.py", root / "bench.py"]
    spelled = {p.relative_to(root).as_posix() for p in sources if "op_resource_reservation" in p.read_text()}
    assert spelled == {"jsonld_ex_ray/ops/shuffle.py"}


class _Decoder:
    """An actor-pool stage: the library's stages are plain tasks, a
    caller's may be an actor class."""

    def __call__(self, batch):
        from jsonld_ex_ray.ops.multimodal import decode_batch

        return decode_batch(batch)


def test_actor_pool_stage_feeds_a_bucketed_op(ray_session):
    """An actor-pool stage feeding a bucketed aggregate finishes with the
    reservation off, which otherwise keeps an actor pool from holding
    every CPU; its groups match a pandas groupby of the decoded table."""
    import ray.data

    from jsonld_ex_ray.ops.agg import groupby_agg
    from jsonld_ex_ray.ops.multimodal import decode_batch, synth_media_table

    tbl = synth_media_table(60)
    # several blocks, so both actors of the pool get work
    blocks = [tbl.slice(lo, 10) for lo in range(0, tbl.num_rows, 10)]
    decoded = ray.data.from_arrow(blocks).map_batches(
        _Decoder, batch_format="pyarrow", batch_size=8, concurrency=2
    )
    aggs = [("n_bytes", "sum", "bytes"), ("width", "max", "width"), ("media_id", "count", "n")]
    got = groupby_agg(decoded, ["kind"], aggs).to_pandas().sort_values("kind").reset_index(drop=True)
    want = (
        decode_batch(tbl).to_pandas().groupby("kind")
        .agg(bytes=("n_bytes", "sum"), width=("width", "max"), n=("media_id", "size"))
        .reset_index()
    )
    assert got[["kind", "bytes", "width", "n"]].astype(str).values.tolist() == want.astype(str).values.tolist()
