"""The complete north-star KG-construction run, chained end-to-end:

    read(source repos) → extract → expand/node-map/toRdf
      → URDNA2015 canonicalize (in the kernel task, no shuffle)
      (+ entity link) → write raw (triples + error records)
      → exact dedup (bucketed hash)                 [shuffle 1]
      → write triples (partitioned parquet)
      → graph materialize (salted, two-phase)       [shuffle 2+3, on the
        deduped triples read back from the partitioned output]
      → write adjacency + mentions + metrics

Each output lands under its own directory with a sibling
``<name>._SUCCESS`` marker written after the stage completes. The marker
holds the stage's stamp: the raw stage's covers the source files (path,
size, mtime), ``linker_dict`` and the engine digest
(``pipeline.run_stamp``), and every later stage's covers its upstream
stamp (plus ``mention_names`` for mentions). A rerun SKIPS a stage whose
marker holds its stamp and CLEARS any other (torn, or built from other
inputs) before rewriting — UUID-named parquet files from a died attempt
can never double-count, and a stage built from other inputs is never
adopted. A Dataset source has no stamp, so nothing is reused. The triple
write is the checkpoint boundary (everything after reads back from
parquet instead of recomputing).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time


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
    with open(path + "._SUCCESS", "w") as f:
        f.write(stamp or "")


def _then(stamp: str | None, *parts) -> str | None:
    """A downstream stage's stamp: its upstream ``stamp`` plus ``parts``."""
    if stamp is None:
        return None
    return hashlib.sha256(repr((stamp, *parts)).encode()).hexdigest()


def full_kg_run(
    source,
    out_dir: str,
    *,
    linker_dict: dict | None = None,
    mention_names: dict | None = None,
    concurrency=None,
    override_num_blocks: int | None = None,
) -> dict:
    """Run every stage into ``out_dir`` and return the run metrics
    (``reused`` names the stages a rerun skipped). ``concurrency`` is accepted and ignored: ``perfbench/workloads.py``
    still passes it."""
    import ray

    from ..pipeline import (
        build_triples,
        dedup_triples,
        materialize_graph,
        run_stamp,
        triples_only,
    )
    from ..stages.linker import detect_and_link_mentions

    os.makedirs(out_dir, exist_ok=True)
    metrics: dict = {}
    t0 = time.monotonic()

    linker_ref = ray.put(linker_dict) if linker_dict else None

    # persist the raw emission (triples + error records) ONCE — the
    # checkpoint boundary; every wide stage reads back from parquet so the
    # expensive extract/expand pass runs exactly once
    import ray.data

    raw_stamp = run_stamp(source, linker_dict)
    raw_dir, raw_done = _stage_dir(out_dir, "raw", raw_stamp)
    if not raw_done:
        triples = build_triples(
            source,
            linker_dict_ref=linker_ref,
            override_num_blocks=override_num_blocks,
            canonical=True,
        )
        triples.write_parquet(raw_dir)
        _mark_done(raw_dir, raw_stamp)
    metrics["emit_wall_s"] = round(time.monotonic() - t0, 2)
    metrics["raw_skipped"] = raw_done
    raw = ray.data.read_parquet(raw_dir)

    t1 = time.monotonic()
    triples_stamp = _then(raw_stamp, "triples")
    triples_dir, triples_done = _stage_dir(out_dir, "triples", triples_stamp)
    if not triples_done:
        deduped = dedup_triples(raw)
        deduped.write_parquet(triples_dir)
        _mark_done(triples_dir, triples_stamp)
    metrics["dedup_wall_s"] = round(time.monotonic() - t1, 2)

    persisted = ray.data.read_parquet(triples_dir)
    metrics["n_triples"] = persisted.count()
    import pyarrow.dataset as pads

    metrics["n_errors"] = pads.dataset(raw_dir).count_rows(
        filter=pads.field("pred").is_null()
    )

    # adjacency materialize over the persisted triples
    t2 = time.monotonic()
    adj_stamp = _then(triples_stamp, "adjacency")
    adj_dir, adj_done = _stage_dir(out_dir, "adjacency", adj_stamp)
    if not adj_done:
        adjacency = materialize_graph(persisted)
        adjacency.write_parquet(adj_dir)
        _mark_done(adj_dir, adj_stamp)
    metrics["materialize_wall_s"] = round(time.monotonic() - t2, 2)

    # scored mention links (side output)
    if mention_names:
        t3 = time.monotonic()
        men_stamp = _then(triples_stamp, "mentions", mention_names)
        men_dir, men_done = _stage_dir(out_dir, "mentions", men_stamp)
        if not men_done:
            mentions = detect_and_link_mentions(
                triples_only(persisted), ray.put(mention_names)
            )
            mentions.write_parquet(men_dir)
            _mark_done(men_dir, men_stamp)
        metrics["mentions_wall_s"] = round(time.monotonic() - t3, 2)

    reused = {"raw": raw_done, "triples": triples_done, "adjacency": adj_done}
    if mention_names:
        reused["mentions"] = men_done
    metrics["reused"] = [name for name, done in reused.items() if done]
    metrics["total_wall_s"] = round(time.monotonic() - t0, 2)
    with open(os.path.join(out_dir, "metrics.json"), "w") as f:
        json.dump(metrics, f)
    return metrics
