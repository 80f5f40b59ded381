"""Chaos/robustness tests for the checkpointed chain (SURVEY.md §4):
a REAL kill -9 mid-shard, concurrent writers on one out_dir, and the
errors-budget gate."""

import json
import os
import signal
import subprocess
import sys
import time

import pyarrow.parquet as pq
import pytest

from jsonld_ex_ray.gen import write_corpus
from jsonld_ex_ray.pipeline import read_triples, run_checkpointed

_CHILD_SCRIPT = """
import sys, time
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False)
from jsonld_ex_ray import pipeline
land = pipeline._land_shard


def land_then_hold(*args):
    # the driver stops after its first shard lands, so the kill always
    # comes mid-run, with later shards' files written but not marked done
    land(*args)
    time.sleep(600)


pipeline._land_shard = land_then_hold
pipeline.run_checkpointed({files!r}, {out!r}, shard_size=1)
ray.shutdown()
"""


def _corpus(tmp_path, n_shards=4, files_per=40):
    files = []
    for i in range(n_shards):
        f = str(tmp_path / f"in_{i}.parquet")
        write_corpus(f, files_per, seed=100 + i)
        files.append(f)
    return files


def test_kill9_mid_run_resume_no_double_counts(ray_session, tmp_path):
    """SIGKILL the worker process after its first shard lands (the child
    holds its driver there), resume in-process: totals must equal a clean
    run's, every shard appears in the manifest exactly once, and the dead
    run's stale claim files must not block the takeover."""
    files = _corpus(tmp_path)
    out = str(tmp_path / "out_chaos")
    clean_out = str(tmp_path / "out_clean")

    # reference totals from an uninterrupted run (same inputs)
    m_clean = run_checkpointed(files, clean_out, shard_size=1)

    script = _CHILD_SCRIPT.format(
        repo=os.path.dirname(os.path.dirname(os.path.abspath(__file__))), files=files, out=out
    )
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)  # child owns its own local Ray instance
    child = subprocess.Popen([sys.executable, "-c", script], env=env)
    manifest = os.path.join(out, "_state", "manifest.jsonl")
    try:
        deadline = time.monotonic() + 180
        while time.monotonic() < deadline:
            if os.path.exists(manifest) and sum(1 for _ in open(manifest)) >= 1:
                break
            if child.poll() is not None:
                break
            time.sleep(0.2)
        else:
            pytest.fail("child never completed a shard")
        if child.poll() is None:
            os.kill(child.pid, signal.SIGKILL)  # the actual chaos
    finally:
        child.wait(timeout=60)

    done_before = sum(1 for _ in open(manifest)) if os.path.exists(manifest) else 0
    assert done_before < len(files)  # the kill really interrupted the run

    m2 = run_checkpointed(files, out, shard_size=1)
    assert m2["shards_skipped"] >= done_before
    # read_triples filters error rows; raw parquet carries both
    assert read_triples(out).count() == m_clean["triples"]
    raw = sum(
        pq.read_metadata(os.path.join(root, f)).num_rows
        for root, _, fs in os.walk(os.path.join(out, "triples"))
        for f in fs
        if f.endswith(".parquet")
    )
    assert raw == m_clean["triples"] + m_clean["errors"]
    recs = [json.loads(line) for line in open(manifest)]
    shards = [r["shard"] for r in recs]
    assert sorted(shards) == sorted(set(shards)) == list(range(len(files)))
    assert sum(r["triples"] for r in recs) == m_clean["triples"]
    # stale claims were cleaned up
    state = os.path.join(out, "_state")
    assert not [f for f in os.listdir(state) if f.endswith(".claim")]


def test_concurrent_writers_each_shard_once(ray_session, tmp_path):
    """Two writers racing on one out_dir: per-shard claims + manifest
    re-reads mean every shard is processed exactly once and totals match
    a solo run."""
    import threading

    files = _corpus(tmp_path, n_shards=6, files_per=25)
    out = str(tmp_path / "out_race")
    solo_out = str(tmp_path / "out_solo")
    m_solo = run_checkpointed(files, solo_out, shard_size=1)

    results = []
    errors = []

    def writer():
        try:
            results.append(run_checkpointed(files, out, shard_size=1))
        except Exception as e:  # surfaced below
            errors.append(e)

    threads = [threading.Thread(target=writer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
    assert not errors, errors

    manifest = os.path.join(out, "_state", "manifest.jsonl")
    recs = [json.loads(line) for line in open(manifest)]
    shards = [r["shard"] for r in recs]
    assert sorted(shards) == list(range(len(files)))  # exactly once each
    assert read_triples(out).count() == m_solo["triples"]
    processed = sum(len(files) - m["shards_skipped"] for m in results)
    assert processed == len(files)


def test_error_budget_gate(ray_session, tmp_path):
    """The corpus contains malformed payloads (error rows): a tiny
    max_error_rate must fail the run AFTER checkpointing finished shards;
    a lenient budget passes; metrics parquet carries error_rate."""
    files = _corpus(tmp_path, n_shards=3, files_per=40)
    out_ok = str(tmp_path / "out_ok")
    m = run_checkpointed(files, out_ok, shard_size=1, max_error_rate=0.99)
    assert m["errors"] > 0  # the generator plants malformed payloads

    out_gate = str(tmp_path / "out_gate")
    with pytest.raises(RuntimeError, match="error budget exceeded"):
        run_checkpointed(
            files, out_gate, shard_size=1, max_error_rate=1e-9
        )
    # the finished shard is checkpointed — a later (fixed-budget) resume
    # skips it rather than redoing work
    manifest = os.path.join(out_gate, "_state", "manifest.jsonl")
    assert sum(1 for _ in open(manifest)) >= 1
    metrics = pq.read_table(os.path.join(out_gate, "_state", "metrics.parquet"))
    assert "error_rate" in metrics.schema.names
    assert max(metrics.column("error_rate").to_pylist()) > 0


def test_claim_never_stolen_while_live(tmp_path):
    """Regression for the empty-claim race: many threads hammering
    _claim_shard on ONE shard must yield exactly one winner per cycle —
    the pre-fix window (claim visible before its token is written) let a
    reader parse pid 0, declare the live claim stale and steal it."""
    import threading
    import uuid

    from jsonld_ex_ray.pipeline import _claim_shard, _release_claim

    state = str(tmp_path)
    for _ in range(50):
        winners = []
        barrier = threading.Barrier(8)

        def claimer():
            token = f"{os.getpid()}:{uuid.uuid4().hex}"
            barrier.wait()
            if _claim_shard(state, 0, token):
                winners.append(token)

        threads = [threading.Thread(target=claimer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(winners) == 1, winners
        _release_claim(state, 0)


def test_claim_held_once_while_holders_release(tmp_path):
    """Threads claiming and releasing one shard in a loop: a thread that
    locks the file a releaser has just unlinked must not count as a second
    holder, so at most one thread holds the claim at any moment."""
    import threading

    from jsonld_ex_ray.pipeline import _claim_shard, _release_claim

    state = str(tmp_path)
    mu = threading.Lock()
    holders, most, wins, errors = [0], [0], [0], []
    stop = time.monotonic() + 2

    def claimer():
        try:
            while time.monotonic() < stop:
                if _claim_shard(state, 0, "t"):
                    with mu:
                        holders[0] += 1
                        most[0] = max(most[0], holders[0])
                        wins[0] += 1
                    time.sleep(0.0001)
                    with mu:
                        holders[0] -= 1
                    _release_claim(state, 0)
        except Exception as e:  # surfaced below
            errors.append(e)

    threads = [threading.Thread(target=claimer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    assert wins[0] > 20 and most[0] == 1


_HOLDER_SCRIPT = """
import sys, time
sys.path.insert(0, {repo!r})
from jsonld_ex_ray.pipeline import _claim_shard
assert _claim_shard({state!r}, 0, "child") and _claim_shard({state!r}, 7, "child")
print("held", flush=True)
time.sleep(600)
"""


def test_dead_holders_claim_is_free_at_once(tmp_path):
    """A claim is held exactly as long as its holder lives: refused while
    the child holding it runs, free as soon as the child is SIGKILLed,
    and a claim file the dead child left is gone after the next
    run_checkpointed."""
    from jsonld_ex_ray.pipeline import _claim_shard, _release_claim

    out = str(tmp_path / "out")
    state = os.path.join(out, "_state")
    os.makedirs(state)
    script = _HOLDER_SCRIPT.format(
        repo=os.path.dirname(os.path.dirname(os.path.abspath(__file__))), state=state
    )
    child = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline().strip() == "held"
        assert not _claim_shard(state, 0, "parent")
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=60)
        assert _claim_shard(state, 0, "parent")
        _release_claim(state, 0)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=60)
        child.stdout.close()
    assert os.path.exists(os.path.join(state, "shard=7.claim"))
    run_checkpointed([], out, shard_size=1)
    assert not [f for f in os.listdir(state) if f.endswith(".claim")]


def test_torn_manifest_line_does_not_break_resume(ray_session, tmp_path):
    """A writer killed mid-append leaves a truncated JSON line; resume
    must skip it (reprocessing that shard) instead of dying forever in
    json.loads — and the metrics writer must tolerate it too."""
    files = _corpus(tmp_path, n_shards=3, files_per=20)
    out = str(tmp_path / "out")
    m1 = run_checkpointed(files, out, shard_size=1)
    manifest = os.path.join(out, "_state", "manifest.jsonl")
    with open(manifest, "a") as f:
        f.write('{"shard": 9, "status": "do')  # torn mid-append
    m2 = run_checkpointed(files, out, shard_size=1)
    assert m2["shards_skipped"] == len(files)
    assert read_triples(out).count() == m1["triples"]


def test_empty_input_and_missing_manifest(ray_session, tmp_path):
    """run_checkpointed([]) on a fresh dir must not crash writing metrics
    for a manifest that never existed."""
    out = str(tmp_path / "out_empty")
    m = run_checkpointed([], out, shard_size=1)
    assert m["shards_total"] == 0
    assert read_triples(out).count() == 0  # and reading back is safe


def test_error_budget_is_cumulative_across_resume(ray_session, tmp_path):
    """The gate seeds its counters from done shards: a resume must see
    the PRIOR run's error mass, not start from zero."""
    files = _corpus(tmp_path, n_shards=3, files_per=40)
    out = str(tmp_path / "out_budget")
    m1 = run_checkpointed(files, out, shard_size=1, max_error_rate=0.99)
    assert m1["errors"] > 0
    # resume over the SAME (fully done) corpus with a tiny budget: all
    # shards skip, but the seeded cumulative counters still reflect the
    # true error mass in the returned metrics
    m2 = run_checkpointed(files, out, shard_size=1, max_error_rate=0.99)
    assert m2["shards_skipped"] == len(files)
    assert m2["errors"] == m1["errors"] and m2["triples"] == m1["triples"]


def test_read_triples_skips_unfinished_shards(ray_session, tmp_path):
    """A shard dir without a 'done' manifest record (killed mid-write or
    a concurrent writer's work-in-progress) must not leak partial rows
    into read_triples."""
    files = _corpus(tmp_path, n_shards=3, files_per=20)
    out = str(tmp_path / "out_partial")
    m = run_checkpointed(files, out, shard_size=1)
    manifest = os.path.join(out, "_state", "manifest.jsonl")
    recs = [json.loads(l) for l in open(manifest)]
    victim = recs[-1]["shard"]
    with open(manifest, "w") as f:
        for r in recs:
            if r["shard"] != victim:
                f.write(json.dumps(r) + "\n")
    # shard dir still on disk, but no longer marked done
    kept = read_triples(out).count()
    dropped = [r for r in recs if r["shard"] == victim][0]["triples"]
    assert kept == m["triples"] - dropped
