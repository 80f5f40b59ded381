"""End-to-end full KG run: all outputs, canonical labels, no duplicates."""

import json
import os
import signal
import subprocess
import sys

import pyarrow.dataset as pads
import pytest

from jsonld_ex_ray.gen import write_corpus
from jsonld_ex_ray.pipelines import full_kg_run

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
