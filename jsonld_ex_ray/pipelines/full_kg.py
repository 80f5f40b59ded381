"""The complete north-star KG-construction run, chained end-to-end:

    read(source repos) → extract → expand/node-map/toRdf
      → URDNA2015 canonicalize (in the kernel task, no shuffle)
      (+ entity link) → write raw (triples + error records)
      → exact dedup (bucketed hash)                 [shuffle 1]
      → write triples (partitioned parquet)
      → graph materialize (salted, two-phase)       [shuffle 2+3, on the
        deduped triples read back from the partitioned output]
      → write adjacency + mentions + metrics

Each output lands under its own directory with a ``_SUCCESS`` marker
written after the stage completes; a rerun SKIPS marked stages and
CLEARS unmarked (torn) ones before rewriting — UUID-named parquet files
from a died attempt can never double-count. The triple write is the
checkpoint boundary (everything after reads back from parquet instead of
recomputing).
"""

from __future__ import annotations

import json
import os
import shutil
import time


def _stage_dir(out_dir: str, name: str) -> tuple[str, bool]:
    """(path, already_done). Clears a partial (marker-less) directory.
    The marker is a SIBLING file (``<name>._SUCCESS``) so the stage dir
    stays pure parquet for readers."""
    path = os.path.join(out_dir, name)
    if os.path.exists(path + "._SUCCESS"):
        return path, True
    if os.path.isdir(path):
        shutil.rmtree(path)
    return path, False


def _mark_done(path: str) -> None:
    with open(path + "._SUCCESS", "w") as f:
        f.write("")


def full_kg_run(
    source,
    out_dir: str,
    *,
    linker_dict: dict | None = None,
    mention_names: dict | None = None,
    concurrency=None,
    override_num_blocks: int | None = None,
) -> dict:
    """Run every stage into ``out_dir`` and return the run metrics.
    ``concurrency`` is accepted and ignored: ``perfbench/workloads.py``
    still passes it."""
    import ray

    from ..pipeline import (
        build_triples,
        dedup_triples,
        materialize_graph,
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

    raw_dir, raw_done = _stage_dir(out_dir, "raw")
    if not raw_done:
        triples = build_triples(
            source,
            linker_dict_ref=linker_ref,
            override_num_blocks=override_num_blocks,
            canonical=True,
        )
        triples.write_parquet(raw_dir)
        _mark_done(raw_dir)
    metrics["emit_wall_s"] = round(time.monotonic() - t0, 2)
    metrics["raw_skipped"] = raw_done
    raw = ray.data.read_parquet(raw_dir)

    t1 = time.monotonic()
    triples_dir, triples_done = _stage_dir(out_dir, "triples")
    if not triples_done:
        deduped = dedup_triples(raw)
        deduped.write_parquet(triples_dir)
        _mark_done(triples_dir)
    metrics["dedup_wall_s"] = round(time.monotonic() - t1, 2)

    persisted = ray.data.read_parquet(triples_dir)
    metrics["n_triples"] = persisted.count()
    import pyarrow.dataset as pads

    metrics["n_errors"] = pads.dataset(raw_dir).count_rows(
        filter=pads.field("pred").is_null()
    )

    # adjacency materialize over the persisted triples
    t2 = time.monotonic()
    adj_dir, adj_done = _stage_dir(out_dir, "adjacency")
    if not adj_done:
        adjacency = materialize_graph(persisted)
        adjacency.write_parquet(adj_dir)
        _mark_done(adj_dir)
    metrics["materialize_wall_s"] = round(time.monotonic() - t2, 2)

    # scored mention links (side output)
    if mention_names:
        t3 = time.monotonic()
        men_dir, men_done = _stage_dir(out_dir, "mentions")
        if not men_done:
            mentions = detect_and_link_mentions(
                triples_only(persisted), ray.put(mention_names)
            )
            mentions.write_parquet(men_dir)
            _mark_done(men_dir)
        metrics["mentions_wall_s"] = round(time.monotonic() - t3, 2)

    metrics["total_wall_s"] = round(time.monotonic() - t0, 2)
    with open(os.path.join(out_dir, "metrics.json"), "w") as f:
        json.dump(metrics, f)
    return metrics
