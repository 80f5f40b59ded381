"""End-to-end full KG run: all outputs, canonical labels, no duplicates."""

import json
import os
import signal
import subprocess
import sys
from collections import Counter

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from jsonld_ex_ray.gen import generate_rows, write_corpus
from jsonld_ex_ray.pipeline import build_triples, errors_only, materialize_graph, triples_only
from jsonld_ex_ray.pipelines import full_kg_run
from jsonld_ex_ray.stages.linker import detect_and_link_mentions

LINKER = {"https://kg.example/hot/1": "https://kg.example/canonical/h1"}
NAMES = {f"Widget {i}": f"https://kb/w{i}" for i in range(10000)}


def test_full_kg_run(ray_session, tmp_path):
    corpus = str(tmp_path / "repos.parquet")
    write_corpus(corpus, 150, seed=77)
    out = str(tmp_path / "kg")
    metrics = full_kg_run(
        out_dir=out,
        source=corpus,
        linker_dict=LINKER,
        mention_names=NAMES,
    )
    assert metrics["n_triples"] > 0
    assert set(os.listdir(out)) >= {"raw", "triples", "adjacency", "mentions", "metrics.json"}
    assert json.load(open(os.path.join(out, "metrics.json"))) == metrics

    triples = pads.dataset(os.path.join(out, "triples")).to_table().to_pandas()
    # canonical URDNA labels, doc-namespaced
    bnodes = [s for s in triples.subj if s.startswith("_:")]
    assert bnodes and all("-c14n" in b for b in bnodes)
    # exact dedup held
    key_cols = ["graph", "subj", "pred", "obj", "obj_datatype", "obj_lang"]
    assert not triples[key_cols].fillna("").duplicated().any()
    # linker rewrote the hot subject
    assert "subj_canon" in triples.columns
    adjacency = pads.dataset(os.path.join(out, "adjacency")).to_table().to_pandas()
    assert adjacency.subj.is_unique and adjacency.degree.sum() == len(triples)


def test_full_kg_run_repeated_input_same_triples(ray_session, tmp_path):
    """The same files read twice yield the triples of one read: canonical
    labels do not depend on how often a document was ingested, and dedup
    folds the copies."""
    corpus = str(tmp_path / "repos.parquet")
    write_corpus(corpus, 150, seed=77)

    def triples(source, name):
        out = str(tmp_path / name)
        metrics = full_kg_run(source, out, linker_dict=LINKER)
        assert "dedup_wall_s" in metrics
        rows = pads.dataset(os.path.join(out, "triples")).to_table().to_pylist()
        return {tuple(sorted(r.items())) for r in rows}

    once = triples(corpus, "once")
    assert any(isinstance(v, str) and "-c14n" in v for row in once for _, v in row)
    assert triples([corpus, corpus], "twice") == once


def test_full_kg_run_resume_skips_and_never_double_counts(ray_session, tmp_path):
    """Rerun semantics: completed stages (sibling _SUCCESS markers) are
    skipped; a torn stage (marker missing) is cleared and rewritten —
    UUID-named parquet from a dead attempt can't double-count rows."""
    corpus = str(tmp_path / "repos.parquet")
    write_corpus(corpus, 80, seed=13)
    out = str(tmp_path / "kg")
    m1 = full_kg_run(out_dir=out, source=corpus)
    n1 = m1["n_triples"]
    assert m1["raw_skipped"] is False

    # clean rerun: every stage skipped, counts identical
    m2 = full_kg_run(out_dir=out, source=corpus)
    assert m2["raw_skipped"] is True
    assert m2["n_triples"] == n1

    # simulate a torn triples stage: marker gone, stale files present
    os.remove(os.path.join(out, "triples._SUCCESS"))
    m3 = full_kg_run(out_dir=out, source=corpus)
    assert m3["n_triples"] == n1  # stale shard cleared, not double-counted

    triples = pads.dataset(os.path.join(out, "triples")).to_table().to_pandas()
    key_cols = ["graph", "subj", "pred", "obj", "obj_datatype", "obj_lang"]
    assert not triples[key_cols].fillna("").duplicated().any()

def test_full_kg_run_never_adopts_stages_built_from_other_inputs(ray_session, tmp_path):
    """Stage markers carry a stamp of what built them: another corpus or
    another linker dictionary in the same directory rebuilds every stage
    and gives the rows of a fresh directory; the same inputs skip all."""
    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    write_corpus(a, 30, seed=1)
    write_corpus(b, 60, seed=2)

    def rows(out):
        tbl = pads.dataset(os.path.join(out, "triples")).to_table()
        return {tuple(sorted(r.items())) for r in tbl.to_pylist()}

    out = str(tmp_path / "kg")
    full_kg_run(a, out)
    m = full_kg_run(b, out)
    assert rows(out) == rows(_fresh(tmp_path, "b", b)) and m["reused"] == []
    m = full_kg_run(b, out, linker_dict=LINKER)
    assert rows(out) == rows(_fresh(tmp_path, "b_linked", b, linker_dict=LINKER)) and m["reused"] == []
    m = full_kg_run(b, out, linker_dict=LINKER)
    assert m["raw_skipped"] is True and m["reused"] == ["raw", "triples", "adjacency"]


def test_full_kg_run_of_error_rows_only_writes_every_stage(ray_session, tmp_path):
    """Files that yield only error records give empty triples, adjacency
    and mentions stages that a rerun reuses, not a missing directory."""
    rows = generate_rows(40, seed=5)
    rows["content"] = ["{not json"] * 40
    corpus = str(tmp_path / "errors.parquet")
    pq.write_table(pa.table(rows), corpus)
    n_errors = errors_only(build_triples(corpus)).count()
    assert n_errors > 0

    out = str(tmp_path / "kg")
    m = full_kg_run(corpus, out, mention_names=NAMES)
    assert (m["n_triples"], m["n_errors"]) == (0, n_errors)
    for stage in ("raw", "triples", "adjacency", "mentions"):
        assert os.path.isdir(os.path.join(out, stage))
    m = full_kg_run(corpus, out, mention_names=NAMES)
    assert m["reused"] == ["raw", "triples", "adjacency", "mentions"]
    assert (m["n_triples"], m["n_errors"]) == (0, n_errors)


def _rows(rows) -> Counter:
    return Counter(tuple(sorted(r.items())) for r in rows)


def _stage_rows(out: str, stage: str) -> Counter:
    return _rows(pads.dataset(os.path.join(out, stage)).to_table().to_pylist())


def test_full_kg_run_graph_outputs_match_the_stage_calls(ray_session, tmp_path):
    """adjacency/ and mentions/ come from the same execution as triples/
    and equal materialize_graph and detect_and_link_mentions over the
    run's own triples/. A rerun missing only the adjacency marker leaves
    triples/ as it was and rebuilds adjacency/ equal."""
    import ray
    import ray.data

    corpus = str(tmp_path / "repos.parquet")
    write_corpus(corpus, 150, seed=77)
    out = str(tmp_path / "kg")
    full_kg_run([corpus, corpus], out, linker_dict=LINKER, mention_names=NAMES)

    triples = ray.data.read_parquet(os.path.join(out, "triples"))
    adjacency = _rows(materialize_graph(triples).take_all())
    mentions = _rows(detect_and_link_mentions(triples_only(triples), ray.put(NAMES)).take_all())
    assert mentions and _stage_rows(out, "adjacency") == adjacency
    assert _stage_rows(out, "mentions") == mentions

    files = sorted(os.listdir(os.path.join(out, "triples")))
    triple_rows = _stage_rows(out, "triples")
    os.remove(os.path.join(out, "adjacency._SUCCESS"))
    m = full_kg_run([corpus, corpus], out, linker_dict=LINKER, mention_names=NAMES)
    assert m["reused"] == ["raw", "triples", "mentions"]
    assert sorted(os.listdir(os.path.join(out, "triples"))) == files
    assert _stage_rows(out, "triples") == triple_rows
    assert _stage_rows(out, "adjacency") == adjacency


def test_graph_sink_slices_keep_subjects_whole(monkeypatch):
    """The graph sink walks a task's triples in bounded slices cut where a
    subject starts: the slices cover the table in order, none splits a
    subject, only a single-subject slice exceeds the slice size, and the
    adjacency built per slice equals the adjacency of the whole."""
    from jsonld_ex_ray.pipeline import adjacency_rows
    from jsonld_ex_ray.pipelines import full_kg

    monkeypatch.setattr(full_kg, "_SLICE_ROWS", 4)
    degrees = [1, 3, 2, 9, 1, 1, 1, 4, 2, 5]
    subj = [f"s{i}" for i, d in enumerate(degrees) for _ in range(d)]
    spo = pa.table({"subj": subj, "pred": ["p"] * len(subj), "obj": [str(j) for j in range(len(subj))]})
    spo = pa.concat_tables([spo.slice(0, 7), spo.slice(7)])  # two blocks, s3 split between them
    slices = list(full_kg._subject_slices(spo))
    assert pa.concat_tables(slices).equals(spo)
    seen = [set(s.column("subj").to_pylist()) for s in slices]
    assert sum(map(len, seen)) == len(degrees)
    assert all(s.num_rows <= 4 or len(subjs) == 1 for s, subjs in zip(slices, seen))
    assert len(slices) > 2
    per_slice = pa.concat_tables([adjacency_rows(s) for s in slices])
    assert per_slice.equals(adjacency_rows(spo.combine_chunks()))


def test_full_kg_run_is_one_execution_with_one_shuffle(ray_session, tmp_path, monkeypatch):
    """Emit, the raw tee, dedup, adjacency and mentions are one Ray Data
    execution around a single sort-shuffle; a rerun missing only a later
    stage is one execution reading raw/, without the emit. The sink runs
    inside the shuffle's reduce task, so each write call holds whole
    reduce partitions and no subject's triples are split between two calls."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    def op_names(op) -> list[str]:
        return [op.name, *(n for dep in op.input_dependencies for n in op_names(dep))]

    plans, execute = [], StreamingExecutor.execute

    def counting(self, dag, *args, **kwargs):
        plans.append(op_names(dag))
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    corpus = str(tmp_path / "repos.parquet")
    write_corpus(corpus, 60, seed=3)
    out = str(tmp_path / "kg")
    full_kg_run(corpus, out, linker_dict=LINKER, mention_names=NAMES)
    assert len(plans) == 1
    assert sum(name == "Sort" for name in plans[0]) == 1
    assert "MapBatches(reduce)->Write" in plans[0]
    assert any("emit_batch" in name and "tee" in name for name in plans[0])

    plans.clear()
    os.remove(os.path.join(out, "adjacency._SUCCESS"))
    m = full_kg_run(corpus, out, linker_dict=LINKER, mention_names=NAMES)
    assert m["reused"] == ["raw", "triples", "mentions"]
    assert len(plans) == 1
    assert sum(name == "Sort" for name in plans[0]) == 1
    assert not any("emit_batch" in name for name in plans[0])


def test_full_kg_run_of_a_corpus_without_rows(ray_session, tmp_path):
    """Files that yield neither triples nor error records (plain prose)
    give four empty stages, not a missing raw/: a rerun reuses them all,
    and a rerun adding mention names reads the empty raw/ as 0 rows."""
    rows = generate_rows(10, seed=5)
    rows["lang"] = ["text"] * 10
    rows["path"] = [f"notes/note_{i}.txt" for i in range(10)]
    rows["content"] = ["Plain prose about widgets, with no linked data in it."] * 10
    corpus = str(tmp_path / "prose.parquet")
    pq.write_table(pa.table(rows), corpus)
    assert build_triples(corpus, canonical=True).count() == 0

    out = str(tmp_path / "kg")
    m = full_kg_run(corpus, out)
    assert (m["n_triples"], m["n_errors"]) == (0, 0)
    for stage in ("raw", "triples", "adjacency"):
        assert os.path.isdir(os.path.join(out, stage))
    m = full_kg_run(corpus, out)
    assert m["reused"] == ["raw", "triples", "adjacency"]
    m = full_kg_run(corpus, out, mention_names=NAMES)
    assert m["reused"] == ["raw", "triples", "adjacency"]
    assert (m["n_triples"], m["n_errors"]) == (0, 0)
    for stage in ("raw", "triples", "adjacency", "mentions"):
        assert os.path.isdir(os.path.join(out, stage))
    assert pads.dataset(os.path.join(out, "mentions")).count_rows() == 0
    m = full_kg_run(corpus, out, mention_names=NAMES)
    assert m["reused"] == ["raw", "triples", "adjacency", "mentions"]


def test_full_kg_run_keeps_raw_when_the_graph_pass_fails(ray_session, tmp_path):
    """raw/ is marked done once every emit task has landed: a graph pass
    that fails after emit (mention names the worker cannot index) leaves
    raw._SUCCESS holding the raw stamp, and the corrected rerun skips the
    emit and gives the outputs of a fresh directory."""
    from jsonld_ex_ray.pipeline import run_stamp

    corpus = str(tmp_path / "repos.parquet")
    write_corpus(corpus, 80, seed=21)
    out = str(tmp_path / "kg")
    with pytest.raises(AttributeError):  # int.lower, in the worker's MentionLinker
        full_kg_run(corpus, out, linker_dict=LINKER, mention_names={1: "https://kb/not-a-name"})
    with open(os.path.join(out, "raw._SUCCESS")) as f:
        assert f.read() == run_stamp(corpus, LINKER)
    assert not os.path.exists(os.path.join(out, "triples._SUCCESS"))

    m = full_kg_run(corpus, out, linker_dict=LINKER, mention_names=NAMES)
    assert m["raw_skipped"] is True and m["reused"] == ["raw"]
    fresh = _fresh(tmp_path, "kg", corpus, linker_dict=LINKER, mention_names=NAMES)
    for stage in ("raw", "triples", "adjacency", "mentions"):
        assert _stage_rows(out, stage) == _stage_rows(fresh, stage), stage


def test_full_kg_run_tees_every_copy_of_a_repeated_source(ray_session, tmp_path):
    """raw/ file names come from the emit task, not from the rows: a file
    given twice lands twice in raw/, error records included. The file
    holds one emit batch (1024 rows), so the two copies are two emit
    tasks with equal output blocks."""
    corpus = str(tmp_path / "repos.parquet")
    write_corpus(corpus, 1024, seed=9)
    once = build_triples(corpus, canonical=True)
    n_rows, n_errors = once.count(), errors_only(once).count()
    assert n_errors > 0

    out = str(tmp_path / "kg")
    m = full_kg_run([corpus, corpus], out)
    assert pads.dataset(os.path.join(out, "raw")).count_rows() == 2 * n_rows
    assert m["n_errors"] == 2 * n_errors


def _fresh(tmp_path, name, source, **kw):
    out = str(tmp_path / f"fresh_{name}")
    full_kg_run(source, out, **kw)
    return out


_ONE_CPU_CHILD = """
import json, sys
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False)
from jsonld_ex_ray.pipelines import full_kg_run
from tests.test_full_pipeline import LINKER, NAMES
print(json.dumps(full_kg_run({corpus!r}, {out!r}, linker_dict=LINKER, mention_names=NAMES)))
ray.shutdown()
"""


def _kg_counts(m: dict, out: str) -> tuple:
    return m["n_triples"], m["n_errors"], pads.dataset(os.path.join(out, "mentions")).count_rows()


def test_full_kg_run_completes_on_one_cpu(ray_session, tmp_path):
    """With a linker dictionary and mention names, a 1-CPU Ray session
    must finish and match the multi-CPU session: every stage is a task,
    so no stage can hold the only CPU while its input waits."""
    corpus = str(tmp_path / "repos.parquet")
    write_corpus(corpus, 150, seed=77)
    out = str(tmp_path / "kg")
    want = _kg_counts(
        full_kg_run(corpus, out, linker_dict=LINKER, mention_names=NAMES), out
    )
    assert want[2] > 0

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    child_out = str(tmp_path / "kg_1cpu")
    script = _ONE_CPU_CHILD.format(repo=repo, corpus=corpus, out=child_out)
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)  # child owns its own local Ray instance
    child = subprocess.Popen(
        [sys.executable, "-c", script],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
        text=True,
    )
    try:
        stdout, _ = child.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait(timeout=60)
        pytest.fail("full_kg_run did not finish within 150 s on 1 CPU")
    assert child.returncode == 0
    m = json.loads(stdout.strip().splitlines()[-1])
    assert _kg_counts(m, child_out) == want
