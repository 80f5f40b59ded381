"""The driver contract's query registry and the cached fixtures behind it."""

import os
import subprocess
import sys

import pytest

import __ray_entry__ as entry
from jsonld_ex_ray import gen

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_queries_builds_nothing_and_needs_no_ray(tmp_path):
    script = (
        "import sys\n"
        "from jsonld_ex_ray import gen\n"
        f"gen.FIXTURE_ROOT = {str(tmp_path)!r}\n"
        "import __ray_entry__ as entry\n"
        "print(len(entry.queries()), 'ray' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=REPO, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["119", "False"]
    assert list(tmp_path.iterdir()) == []


def test_window_leads_and_oracled_precede_rows_only():
    names = list(entry.queries())
    assert len(names) == len(set(names)) == 119
    assert len(entry._WINDOW) == len(set(entry._WINDOW)) == 50
    assert names[:50] == list(entry._WINDOW)
    assert set(entry._WINDOW) <= set(entry._ORACLES)
    oracled = [name in entry._ORACLES for name in names]
    assert oracled == sorted(oracled, reverse=True)


def test_every_query_function_registered_once():
    defined = {
        name.removeprefix("_q_"): fn
        for name, fn in vars(entry).items()
        if name.startswith("_q_") and callable(fn)
    }
    assert entry._QUERIES == defined
    assert len(entry._ORACLES) == 96
    assert set(entry._ORACLES) <= set(entry._QUERIES)
    with pytest.raises(AssertionError, match="registered twice"):
        entry.query(entry._q_top_orders)


def test_cached_dir_rebuilds_on_other_stamp(tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "FIXTURE_ROOT", str(tmp_path))
    builds = []

    def build(d):
        builds.append(d)
        with open(os.path.join(d, "data"), "w") as fh:
            fh.write(str(len(builds)))

    out = gen.cached_dir("fx", "v1", build)
    assert out == str(tmp_path / "fx")
    assert gen.cached_dir("fx", "v1", build) == out and len(builds) == 1
    with open(os.path.join(out, ".done"), "w") as fh:
        fh.write("another code version")
    gen.cached_dir("fx", "v1", build)
    assert len(builds) == 2
    assert (tmp_path / "fx" / "data").read_text() == "2"
    assert (tmp_path / "fx" / ".done").read_text() == "v1"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fx"]


def test_cached_dir_failed_build_leaves_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "FIXTURE_ROOT", str(tmp_path))

    def build(d):
        with open(os.path.join(d, "half"), "w") as fh:
            fh.write("x")
        raise RuntimeError("build died")

    with pytest.raises(RuntimeError, match="build died"):
        gen.cached_dir("fx", "v1", build)
    assert list(tmp_path.iterdir()) == []


def test_corpus_build_that_dies_after_one_shard_is_not_adopted(tmp_path, monkeypatch):
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    monkeypatch.setattr(gen, "FIXTURE_ROOT", str(tmp_path))
    write_table = pq.write_table
    written = []

    def die_after_first_shard(*args, **kwargs):
        if written:
            raise RuntimeError("killed mid-build")
        written.append(args[1])
        write_table(*args, **kwargs)

    monkeypatch.setattr(pq, "write_table", die_after_first_shard)
    with pytest.raises(RuntimeError, match="killed mid-build"):
        gen.corpus_fixture(0.0005, shards=4)
    assert len(written) == 1 and list(tmp_path.iterdir()) == []

    monkeypatch.setattr(pq, "write_table", write_table)
    path = gen.corpus_fixture(0.0005, shards=4)
    assert pads.dataset(path).count_rows() == gen.files_for_sf(0.0005) == 200


def test_triples_stamp_is_corpus_stamp_plus_engine_digest(monkeypatch):
    stamps = {}

    def record(name, stamp, build):
        stamps[name] = stamp
        return name

    monkeypatch.setattr(gen, "cached_dir", record)
    monkeypatch.setattr(gen, "_stamp_of", lambda path: f"<{path}>")
    gen.triples_fixture()
    corpus = "jsonld_ex_ray_corpus_4000_42_s16"
    engine = gen._source_digest("**/*.py")
    assert stamps["jsonld_ex_ray_triples_4000"] == f"<{corpus}> engine:{engine}"
    assert engine != gen._source_digest("gen.py")
