"""Per-layer measurement: spans around calls into each layer, in-process
probes of the kernel and the linker, and ``Dataset.stats()`` summaries.

A span records name, start, end, parent and run id. Spans stay in memory
and are written once, when the benchmark ends. A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import re
import statistics
import time
from contextlib import contextmanager

import pyarrow as pa
import pyarrow.compute as pc


class Tracer:
    """Spans and counters of one traced iteration."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict = {}
        self.ray_stats: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None, "parent": parent, "run": self.run_id})
        idx = len(self.spans) - 1
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx]["end"] = time.perf_counter()

    def count(self, **values) -> None:
        self.counters.update(values)

    def stats(self, name: str, ds) -> None:
        self.ray_stats.append({"span": name, "operators": parse_stats(ds.stats())})

    def self_times(self) -> dict[str, float]:
        """Self seconds summed per span name. Children run one after another
        in the driver thread, so the time they cover is their summed length."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - c
        return out

    def to_json(self) -> dict:
        return {"run": self.run_id, "spans": self.spans, "counters": self.counters, "ray_stats": self.ray_stats}


_OP = re.compile(r"^Operator \d+ (.+?): (\d+) tasks executed, (\d+) blocks produced in ([\d.]+)s", re.M)
_FIELD = re.compile(r"^\* (Remote wall time|Remote cpu time|Output num rows per block|Output size bytes per block): .*?([\d.]+)(us|ms|s)? total", re.M)
_SPILL = re.compile(r"Spilled to disk: (\d+)MB")
_SCALE = {"us": 1e-6, "ms": 1e-3, "s": 1.0, None: 1.0}


def parse_stats(text: str) -> dict:
    """Per-operator wall, CPU, rows and bytes from ``Dataset.stats()``."""
    ops = []
    starts = [m for m in _OP.finditer(text)]
    for i, m in enumerate(starts):
        body = text[m.end() : starts[i + 1].start() if i + 1 < len(starts) else len(text)]
        rec = {"op": m.group(1), "tasks": int(m.group(2)), "blocks": int(m.group(3)), "wall_s": float(m.group(4))}
        for f in _FIELD.finditer(body):
            key = {"Remote wall time": "remote_wall_s", "Remote cpu time": "remote_cpu_s",
                   "Output num rows per block": "rows_out", "Output size bytes per block": "bytes_out"}[f.group(1)]
            rec[key] = float(f.group(2)) * _SCALE[f.group(3)] if key.endswith("_s") else int(float(f.group(2)))
        ops.append(rec)
    spilled = [int(x) for x in _SPILL.findall(text)]
    return {"ops": ops, "spilled_mb": max(spilled, default=0)}


def _cpu(fn) -> float:
    t = time.process_time()
    fn()
    return time.process_time() - t


def kernel_probe(table: pa.Table, reps: int = 3) -> dict:
    """Process CPU per file/document of each kernel layer, in this process
    without Ray: extract, json.loads, expand, node-map, toRdf and the fused
    triples_batch. Median of ``reps`` passes over the whole sample."""
    import json as _json

    from jsonld_ex_ray.core.api import expand
    from jsonld_ex_ray.core.errors import JsonLdError
    from jsonld_ex_ray.core.flattening import node_map_generation
    from jsonld_ex_ray.core.loader import CachingLoader, StaticLoader
    from jsonld_ex_ray.core.options import JsonLdOptions
    from jsonld_ex_ray.core.rdf_generation import node_map_to_rdf
    from jsonld_ex_ray.gen import CONTEXT_REGISTRY
    from jsonld_ex_ray.stages.extract import make_extract_batch
    from jsonld_ex_ray.stages.triples import triples_batch

    opts = JsonLdOptions().with_(document_loader=CachingLoader(StaticLoader(CONTEXT_REGISTRY)))
    extract = make_extract_batch()
    payload_tbl = extract(table)
    payloads = [p for p in payload_tbl.column("payload").to_pylist() if p is not None]
    failures = (JsonLdError, ValueError, RecursionError)

    def each(fn, items):
        out = []
        for x in items:
            try:
                out.append(fn(x))
            except failures:
                pass
        return out

    phases: dict[str, list[float]] = {k: [] for k in ("extract", "loads", "expand", "node_map", "to_rdf", "batch")}
    triples = 0
    for _ in range(reps):
        phases["extract"].append(_cpu(lambda: extract(table)))
        box: dict = {}
        phases["loads"].append(_cpu(lambda: box.update(docs=[_json.loads(p) for p in payloads])))
        phases["expand"].append(_cpu(lambda: box.update(exp=each(lambda d: expand(d, opts), box["docs"]))))
        phases["node_map"].append(_cpu(lambda: box.update(nm=each(node_map_generation, box["exp"]))))
        phases["to_rdf"].append(_cpu(lambda: each(lambda m: node_map_to_rdf(m[0], m[1], opts), box["nm"])))
        phases["batch"].append(_cpu(lambda: box.update(out=triples_batch(payload_tbl))))
        triples = box["out"].num_rows - box["out"].column("pred").null_count
    med = {k: statistics.median(v) for k, v in phases.items()}
    docs = max(len(payloads), 1)
    return {
        "kernel.extract_us_per_file": med["extract"] / table.num_rows * 1e6,
        "kernel.payloads_per_file": len(payloads) / table.num_rows,
        "kernel.json_loads_us_per_doc": med["loads"] / docs * 1e6,
        "kernel.expand_us_per_doc": med["expand"] / docs * 1e6,
        "kernel.node_map_us_per_doc": med["node_map"] / docs * 1e6,
        "kernel.to_rdf_us_per_doc": med["to_rdf"] / docs * 1e6,
        "kernel.triples_batch_us_per_doc": med["batch"] / docs * 1e6,
        "kernel.triples_per_doc": triples / docs,
    }


def link_probe(triples: pa.Table, linker: dict, reps: int = 3) -> dict:
    """EntityLinker in this process over emitted triples: CPU per triple and
    the share of looked-up identifiers (subjects, IRI objects) it rewrote."""
    from jsonld_ex_ray.stages.linker import EntityLinker

    link = EntityLinker(alias_to_iri=linker)
    secs = statistics.median(_cpu(lambda: link(triples)) for _ in range(reps))
    out = link(triples)
    iri = pc.equal(out.column("obj_kind"), "iri")
    lookups = out.column("subj").length() - out.column("subj").null_count + pc.sum(pc.cast(iri, pa.int64())).as_py()
    hits = pc.sum(pc.cast(pc.not_equal(out.column("subj"), out.column("subj_canon")), pa.int64())).as_py() or 0
    hits += pc.sum(pc.cast(pc.and_(iri, pc.not_equal(out.column("obj"), out.column("obj_canon"))), pa.int64())).as_py() or 0
    return {
        "link.us_per_triple": secs / max(triples.num_rows, 1) * 1e6,
        "link.hit_ratio": hits / max(lookups, 1),
    }


def write_trace(path: str, tracers: list[Tracer], extra: dict) -> None:
    with open(path, "w") as f:
        json.dump({"traced_iterations": [t.to_json() for t in tracers], **extra}, f, indent=1, default=str)
