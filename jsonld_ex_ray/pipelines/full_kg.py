"""The complete north-star KG-construction run, chained end-to-end, in
one Ray Data execution:

    read(source repos) → extract → expand/node-map/toRdf
      → URDNA2015 canonicalize (in the kernel task, no shuffle)
      (+ entity link) → tee each block into raw (triples + error records)
      → dedup_triples: one bucketed shuffle on subj
      → per bucket: sort, exact dedup on the six identity columns
      → per reduce task, one sink writes triples, adjacency (the
        materialize_graph kernel) and mentions
      → metrics

Ray fuses emit, link, tee and routing into one task, so raw/ is written
but never read back. Routing on ``subj`` serves all three outputs: it is
one of the six identity columns, so the per-bucket dedup is exact, and
every triple of a subject meets its adjacency row in the same task. The
sink walks its task's triples in slices of at most ``_SLICE_ROWS`` rows
(adjacency slices cut where a subject starts), so the Python lists of
the adjacency and mention kernels stay bounded.

Each output lands under its own directory with a sibling
``<name>._SUCCESS`` marker holding the stage's stamp: the raw stage's
covers the source files (path, size, mtime), ``linker_dict`` and the
engine digest (``pipeline.run_stamp``), and every later stage's covers
its upstream stamp (plus ``mention_names`` for mentions). A rerun SKIPS
a stage whose marker holds its stamp and CLEARS any other (torn, or
built from other inputs), so files of a died attempt never double-count.
A reused raw/ is the execution's source for the missing stages; a
rebuilt one rebuilds them all. raw/ is the checkpoint: the shuffle's
sort waits for every emit task, so the sink's first write marks raw
done, and a graph pass failing after it never repeats the emit. A
Dataset source has no stamp, so nothing is reused.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from ..ops.shuffle import key_runs
from ..pipeline import adjacency_rows, build_triples, dedup_triples, run_stamp
from ..stages.linker import link_mentions


def _stage_dir(out_dir: str, name: str, stamp: str | None) -> tuple[str, bool]:
    """(path, already_done): done iff the sibling marker holds ``stamp``;
    otherwise the marker and any directory are cleared. The marker is a
    SIBLING file so the stage dir stays pure parquet for readers."""
    path = os.path.join(out_dir, name)
    marker = path + "._SUCCESS"
    try:
        with open(marker) as f:
            if stamp is not None and f.read() == stamp:
                return path, True
        os.unlink(marker)  # first: a torn rebuild must never look done
    except FileNotFoundError:
        pass
    if os.path.isdir(path):
        shutil.rmtree(path)
    return path, False


def _mark_done(path: str, stamp: str | None) -> None:
    """Write ``path``'s marker via a per-process temp file and a rename:
    concurrent writers of one stamp never tear it."""
    tmp = f"{path}._SUCCESS.{os.getpid()}"
    with open(tmp, "w") as f:
        f.write(stamp or "")
    os.replace(tmp, path + "._SUCCESS")


def _then(stamp: str | None, *parts) -> str | None:
    """A downstream stage's stamp: its upstream ``stamp`` plus ``parts``."""
    if stamp is None:
        return None
    return hashlib.sha256(repr((stamp, *parts)).encode()).hexdigest()


_SLICE_ROWS = 4096


def _subject_slices(triples: pa.Table):
    """``triples``, grouped on ``subj``, in slices of at most
    ``_SLICE_ROWS`` rows, each cut where a subject starts, so no subject
    is split; a longer subject is a slice of its own."""
    starts, ends = key_runs(triples, ["subj"])
    lo = 0
    for start, end in zip(starts.tolist(), ends.tolist()):
        if end - lo > _SLICE_ROWS and start > lo:
            yield triples.slice(lo, start - lo)
            lo = start
    yield triples.slice(lo)


def _write_parts(path: str, tables) -> None:
    """Stream the non-empty ``tables`` into one parquet file at ``path``;
    no file when all are empty."""
    writer = None
    try:
        for t in tables:
            if t.num_rows:
                writer = writer or pq.ParquetWriter(path, t.schema)
                writer.write_table(t)
    finally:
        if writer is not None:
            writer.close()


def _tee(raw_dir: str):
    """A ``map_batches`` function writing each block it is given into
    ``raw_dir`` and passing it on unchanged. A file is named by its task's
    index and a per-task block counter, never by its content, so a retried
    task overwrites its own files and equal blocks of two tasks both land."""

    def tee(block: pa.Table) -> pa.Table:
        from ray.data._internal.execution.interfaces.task_context import TaskContext

        ctx = TaskContext.get_current()
        k = ctx.kwargs["tee_blocks"] = ctx.kwargs.get("tee_blocks", -1) + 1
        if block.num_rows:
            pq.write_table(block, os.path.join(raw_dir, f"part-{ctx.task_idx:05d}-{k:05d}.parquet"))
        return block

    return tee


def _graph_sink(dirs: dict[str, str], names_ref, raw_mark: tuple[str, str | None] | None):
    """A Datasink writing the deduped triples of each write task, their
    adjacency rows and their mention rows into the stage directories in
    ``dirs`` (stage name → path; only the stages still to build). A task's
    blocks are whole reduce partitions, each sorted on subj per bucket;
    they are joined so no subject is split, then walked in bounded slices.
    One file per stage and task, named by the task index, so a retried
    task overwrites its own files. ``raw_mark`` (path, stamp) is the raw
    stage teed in the same execution: every write call runs after the
    shuffle's sort, so after every emit task, and marks it done first."""
    from ray.data import Datasink

    class GraphSink(Datasink):
        def on_write_start(self) -> None:
            for path in dirs.values():
                os.makedirs(path, exist_ok=True)

        def write(self, blocks, ctx) -> None:
            if raw_mark is not None:
                _mark_done(*raw_mark)
            blocks = [b for b in blocks if len(b)]  # an empty block may lack the columns
            if not blocks:
                return
            triples = pa.concat_tables(blocks)
            n = triples.num_rows
            parts = {
                "triples": lambda: [triples],
                "adjacency": lambda: map(adjacency_rows, _subject_slices(triples)),
                "mentions": lambda: map(
                    link_mentions(names_ref), (triples.slice(lo, _SLICE_ROWS) for lo in range(0, n, _SLICE_ROWS))
                ),
            }
            for name, path in dirs.items():
                _write_parts(os.path.join(path, f"part-{ctx.task_idx:05d}.parquet"), parts[name]())

    return GraphSink()


def full_kg_run(
    source,
    out_dir: str,
    *,
    linker_dict: dict | None = None,
    mention_names: dict | None = None,
    concurrency=None,
    override_num_blocks: int | None = None,
) -> dict:
    """Run every stage into ``out_dir`` and return the run metrics, also
    written to ``metrics.json``: ``dedup_wall_s`` (the one execution,
    which builds raw, triples, adjacency and mentions; about 0 when every
    stage is reused), ``total_wall_s``, ``n_triples``, ``n_errors``,
    ``raw_skipped`` and ``reused`` (the stages a rerun skipped).
    ``concurrency`` is accepted and ignored: ``perfbench/workloads.py``
    still passes it."""
    import ray
    import ray.data

    os.makedirs(out_dir, exist_ok=True)
    metrics: dict = {}
    t0 = time.monotonic()

    raw_stamp = run_stamp(source, linker_dict)
    raw_dir, raw_done = _stage_dir(out_dir, "raw", raw_stamp)
    triples_stamp = _then(raw_stamp, "triples")
    stamps = {"triples": triples_stamp, "adjacency": _then(triples_stamp, "adjacency")}
    if mention_names:
        stamps["mentions"] = _then(triples_stamp, "mentions", mention_names)
    dirs, reused = {}, {"raw": raw_done}
    for name, stamp in stamps.items():
        # a rebuilt raw/ rebuilds every later stage, whose stamps derive from it
        path, reused[name] = _stage_dir(out_dir, name, stamp if raw_done else None)
        if not reused[name]:
            dirs[name] = path
    if dirs:
        if raw_done:
            ds = ray.data.read_parquet(raw_dir)
        else:
            os.makedirs(raw_dir)
            ds = build_triples(
                source,
                linker_dict_ref=ray.put(linker_dict) if linker_dict else None,
                override_num_blocks=override_num_blocks,
                canonical=True,
            ).map_batches(_tee(raw_dir), batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
        names_ref = ray.put(mention_names) if mention_names else None
        raw_mark = None if raw_done else (raw_dir, raw_stamp)
        dedup_triples(ds).write_datasink(_graph_sink(dirs, names_ref, raw_mark))
        if raw_mark is not None:
            _mark_done(*raw_mark)
        for name, path in dirs.items():
            _mark_done(path, stamps[name])
    metrics["dedup_wall_s"] = round(time.monotonic() - t0, 2)
    metrics["raw_skipped"] = raw_done

    metrics["n_triples"] = pads.dataset(os.path.join(out_dir, "triples")).count_rows()
    raw = pads.dataset(raw_dir)  # no file, so no pred column, when emit gave no row
    metrics["n_errors"] = raw.count_rows(filter=pads.field("pred").is_null()) if "pred" in raw.schema.names else 0
    metrics["reused"] = [name for name, done in reused.items() if done]
    metrics["total_wall_s"] = round(time.monotonic() - t0, 2)
    with open(os.path.join(out_dir, "metrics.json"), "w") as f:
        json.dump(metrics, f)
    return metrics
