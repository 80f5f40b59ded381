"""The benchmark's workloads.

Each workload builds its inputs from the seed, runs one pipeline call as a
timed iteration, runs a staged replica of that call for the traced run, and
checks what either wrote. The package is only called through its public
functions; nothing here changes how it works.

    kg_build    run_checkpointed(shard_size=1) over the plain corpus
    kg_full     full_kg_run over the plain corpus, with linker + mentions
    clean_docs  clean_corpus(near_dup=True, cut_spans=True) over documents
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import random

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")
DOCUMENTS = os.path.join(HERE, "data", "documents_sf0.1.parquet")

# Actor pools get one actor each: at 2 logical CPUs a larger pool starves
# the read tasks (see BENCHMARK.json, kg_full).
CONCURRENCY = (1, 1)
IDENTITY = ["graph", "subj", "pred", "obj", "obj_datatype", "obj_lang"]
CANON = ["subj_canon", "obj_canon"]
BUILD_COLS = ["doc_id", "subj", "pred", "obj", "obj_kind", "obj_datatype", "obj_lang", "graph", "error_code"]


def load_pins() -> dict:
    with open(PINS_PATH) as f:
        return json.load(f)


def digest(rows) -> str:
    """Order-independent digest of a multiset of rows (tuples of str/None)."""
    lines = sorted("\x1f".join("\x00" if v is None else str(v) for v in r) for r in rows)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def table_rows(tbl: pa.Table, cols: list[str]) -> list[tuple]:
    return list(zip(*(tbl.column(c).to_pylist() for c in cols)))


def write_stats(path: str) -> dict:
    """Bytes, files and row groups of the parquet files under ``path``."""
    files = [os.path.join(d, n) for d, _, names in os.walk(path) for n in names if n.endswith(".parquet")]
    return {
        "bytes": sum(os.path.getsize(f) for f in files),
        "files": len(files),
        "row_groups": sum(pq.ParquetFile(f).metadata.num_row_groups for f in files),
    }


def duckdb_distinct(path: str, cols: list[str], where: str = "") -> int:
    import duckdb

    glob = os.path.join(path, "**", "*.parquet")
    sql = (
        f"SELECT COUNT(*) FROM (SELECT DISTINCT {', '.join(cols)} "
        f"FROM read_parquet('{glob}', hive_partitioning = false) {where})"
    )
    con = duckdb.connect()
    try:
        return con.execute(sql).fetchone()[0]
    finally:
        con.close()


def write_sharded(table: pa.Table, out_dir: str, n_files: int) -> list[str]:
    """Write ``table`` as ``n_files`` contiguous parquet slices."""
    os.makedirs(out_dir, exist_ok=True)
    per = -(-table.num_rows // n_files)
    paths = []
    for i in range(n_files):
        part = table.slice(i * per, per)
        if part.num_rows:
            paths.append(os.path.join(out_dir, f"part-{i:02d}.parquet"))
            pq.write_table(part, paths[-1], row_group_size=2048)
    return paths


class Workload:
    """One workload at one (seed, size). ``prepare`` makes the inputs,
    ``run`` is the timed pipeline call, ``run_traced`` its staged replica,
    and ``check`` lists every way an output differs from what is expected."""

    name = ""
    sizes = {"full": 0, "smoke": 0}
    input_files = {"full": 4, "smoke": 2}
    always_reference = False

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.n = self.sizes[scale]
        self.n_files = self.input_files[scale]
        self.pin = load_pins().get(self.pin_key())
        self.expected: dict | None = None

    def pin_key(self) -> str:
        return f"{self.name}:{self.seed}:{self.n}"

    def prepare(self, in_dir: str) -> None:
        raise NotImplementedError

    def warm(self, out: str) -> None:
        """One untimed call, so the workers have imported the package and
        the first timed call is not a cold one."""
        self.run(out)

    def run(self, out: str) -> dict:
        raise NotImplementedError

    def run_traced(self, out: str, tracer) -> dict:
        raise NotImplementedError

    def check(self, out: str, result: dict) -> list[str]:
        raise NotImplementedError

    def reference(self) -> dict | None:
        """Expected counts and digest, computed in this process without Ray."""
        raise NotImplementedError

    def compute_expected(self) -> None:
        """Run the reference unless a pin already holds its result."""
        if self.pin is None or self.always_reference:
            self.expected = self.reference()

    def compare(self, got: dict, fields: list[str]) -> list[str]:
        """Compare against the in-process reference and, if pinned, the pin."""
        problems = []
        for source, want in (("reference", self.expected), ("pin", self.pin)):
            if want is None:
                continue
            for k in fields:
                if k in want and got.get(k) != want[k]:
                    problems.append(f"{k}: got {got.get(k)!r}, {source} {want[k]!r}")
        return problems


# ---------------------------------------------------------------------------
# KG workloads
# ---------------------------------------------------------------------------


def linker_dictionary(seed: int) -> dict[str, str]:
    """Alias → canonical IRI: the four hot subjects, 20k exact entity IRIs
    and 20k upper-cased, slash-terminated aliases that only the linker's
    normalised fallback resolves."""
    rng = random.Random(f"linker:{seed}")
    d = {f"https://kg.example/hot/{i}": f"https://canon.example/hot/{i}" for i in range(4)}
    for k in rng.sample(range(1_000_000), 20_000):
        d[f"https://kg.example/entity/{k}"] = f"https://canon.example/entity/{k}"
    for k in rng.sample(range(1_000_000), 20_000):
        d[f"HTTPS://KG.EXAMPLE/ENTITY/{k}/"] = f"https://canon.example/entity/{k}"
    return d


def mention_names(seed: int) -> dict[str, str]:
    """Canonical names for the mention linker, in the corpus's own name
    patterns (``Widget N``, ``thing N``, ``actor N``)."""
    rng = random.Random(f"mentions:{seed}")
    out = {}
    for stem in ("Widget", "thing", "actor"):
        for k in rng.sample(range(10_000), 300):
            out[f"{stem} {k}"] = f"https://canon.example/{stem.lower()}/{k}"
    return out


def kernel_triples(table: pa.Table, linker: dict | None = None) -> pa.Table:
    """The emit layers without Ray: extract → triples_batch (→ linker)."""
    from jsonld_ex_ray.stages.extract import make_extract_batch
    from jsonld_ex_ray.stages.linker import EntityLinker
    from jsonld_ex_ray.stages.triples import triples_batch

    out = triples_batch(make_extract_batch()(table))
    return EntityLinker(alias_to_iri=linker)(out) if linker is not None else out


def _term(v, kind=None, dt=None, lang=None):
    from jsonld_ex_ray.core.rdf_generation import RDF_LANGSTRING, XSD_STRING

    if v is None:
        return None
    if kind == "literal":
        return ("lit", v, dt or (RDF_LANGSTRING if lang else XSD_STRING), lang)
    return ("bnode", v[2:]) if v.startswith("_:") else ("iri", v)


def canonical_triple_set(triples: pa.Table) -> set[tuple]:
    """Reference for canonicalize + dedup: URDNA2015 per document (the
    package's core.urdna2015), then set semantics over the identity columns
    (plus the linker's canon columns, which follow from subj/obj)."""
    from jsonld_ex_ray.core.urdna2015 import canonicalize

    triples = triples.filter(pc.is_valid(triples.column("pred")))
    cols = IDENTITY + ["obj_kind", "doc_id"] + CANON
    by_doc: dict[str, list[dict]] = {}
    for row in triples.select(cols).to_pylist():
        by_doc.setdefault(row["doc_id"], []).append(row)
    out = set()
    for doc_id, rows in by_doc.items():
        dh = hashlib.sha1(doc_id.encode()).hexdigest()[:16]
        mapping = canonicalize(
            [
                (_term(r["subj"]), _term(r["pred"]), _term(r["obj"], r["obj_kind"], r["obj_datatype"], r["obj_lang"]), _term(r["graph"]))
                for r in rows
            ]
        )

        def canon(v, is_bnode):
            if v is None or not is_bnode or not v.startswith("_:"):
                return v
            return f"_:{dh}-{mapping.get(v[2:], v[2:])}"

        for r in rows:
            obj_bnode = r["obj_kind"] == "bnode"
            out.add(
                (canon(r["graph"], True), canon(r["subj"], True), r["pred"], canon(r["obj"], obj_bnode), r["obj_datatype"], r["obj_lang"],
                 canon(r["subj_canon"], True), canon(r["obj_canon"], obj_bnode))
            )
    return out


class KgWorkload(Workload):
    def prepare(self, in_dir: str) -> None:
        self.corpus = self.make_corpus(self.n, self.seed)
        self.inputs = write_sharded(self.corpus, in_dir, self.n_files)

    def make_corpus(self, n: int, seed: int) -> pa.Table:
        from jsonld_ex_ray.gen import generate_rows

        return pa.table(generate_rows(n, seed))

    def spot_check_sha(self, tbl: pa.Table) -> list[str]:
        """Sampled rows: content_sha256 must equal sha256 of the seeded input."""
        from jsonld_ex_ray.gen import sha256_hex

        content = {
            (r, c, p): x
            for r, c, p, x in zip(*(self.corpus.column(k).to_pylist() for k in ("repo", "commit", "path", "content")))
        }
        rng = random.Random(self.seed)
        idx = sorted(rng.sample(range(tbl.num_rows), min(64, tbl.num_rows)))
        sample = tbl.take(pa.array(idx, pa.int64())).select(["repo", "commit", "path", "content_sha256"])
        bad = [
            r for r in sample.to_pylist()
            if sha256_hex(content[(r["repo"], r["commit"], r["path"])] or "") != r["content_sha256"]
        ]
        return [f"content_sha256 mismatch on {len(bad)} of {sample.num_rows} sampled rows"] if bad else []

    def rows_out(self, result: dict) -> int:
        return result["triples"]


class KgBuild(KgWorkload):
    name = "kg_build"
    sizes = {"full": 8000, "smoke": 400}
    always_reference = True  # its digest is checked against a Ray-free pass

    def reference(self) -> dict:
        ref = kernel_triples(self.corpus)
        n_err = ref.filter(pc.is_null(ref.column("pred"))).num_rows
        return {
            "triples": ref.num_rows - n_err,
            "errors": n_err,
            "digest": digest(table_rows(ref, BUILD_COLS)),
        }

    def run(self, out: str) -> dict:
        from jsonld_ex_ray.pipeline import run_checkpointed

        m = run_checkpointed(self.inputs, out, shard_size=1)
        return {"triples": m["triples"], "errors": m["errors"]}

    def run_traced(self, out: str, tracer) -> dict:
        """run_checkpointed's per-shard work, one stage at a time, then the
        real call twice: once for the shard walls, once as a resume no-op."""
        from jsonld_ex_ray.pipeline import build_triples, run_checkpointed

        rows = errors = blocks = 0
        staged = os.path.join(out, "staged")
        for i, f in enumerate(self.inputs):
            with tracer.span("emit"):
                ds = build_triples([f]).materialize()
            tracer.stats("emit", ds)
            blocks += ds.num_blocks()
            rows += ds.count()
            errors += _count_null_pred(ds)
            with tracer.span("write"):
                ds.write_parquet(os.path.join(staged, "triples", f"shard={i}"))
        real = os.path.join(out, "real")
        with tracer.span("run_checkpointed"):
            run_checkpointed(self.inputs, real, shard_size=1)
        with tracer.span("resume_noop"):
            run_checkpointed(self.inputs, real, shard_size=1)
        with open(os.path.join(real, "_state", "manifest.jsonl")) as f:
            walls = [json.loads(line)["wall_ms"] for line in f if line.strip()]
        tracer.count(
            **{
                "emit.rows_out": rows,
                "emit.error_rows": errors,
                "emit.blocks": blocks,
                "build.shard_wall_ms": walls,
                **{f"write.{k}": v for k, v in write_stats(os.path.join(staged, "triples")).items()},
            }
        )
        return {"out": staged, "triples": rows - errors, "errors": errors}

    def check(self, out: str, result: dict) -> list[str]:
        tdir = os.path.join(out, "triples")
        tbl = pads.dataset(tdir, partitioning="hive").to_table(columns=BUILD_COLS + ["repo", "commit", "path", "content_sha256"])
        got = dict(result, digest=digest(table_rows(tbl, BUILD_COLS)))
        problems = self.compare(got, ["triples", "errors", "digest"])
        distinct = duckdb_distinct(tdir, ["doc_id"] + IDENTITY, "WHERE pred IS NOT NULL")
        if distinct != result["triples"]:
            problems.append(f"duckdb distinct {distinct} != triples {result['triples']}")
        return problems + self.spot_check_sha(tbl)


def _count_null_pred(ds) -> int:
    import ray

    return sum(t.column("pred").null_count for t in ray.get(ds.to_arrow_refs()) if t.num_rows)


class KgFull(KgWorkload):
    name = "kg_full"
    sizes = {"full": 1200, "smoke": 100}

    def prepare(self, in_dir: str) -> None:
        self.linker = linker_dictionary(self.seed)
        self.names = mention_names(self.seed)
        super().prepare(in_dir)

    def reference(self) -> dict:
        from jsonld_ex_ray.stages.linker import MentionLinker

        ref = kernel_triples(self.corpus, self.linker)
        final = canonical_triple_set(ref)
        tbl = pa.table({c: [r[i] for r in final] for i, c in enumerate(IDENTITY + CANON)})
        tbl = tbl.append_column("obj_kind", pc.if_else(pc.is_null(tbl.column("obj_datatype")), "iri", "literal"))
        tbl = tbl.append_column("doc_id", pa.nulls(tbl.num_rows, pa.string()))
        return {
            "triples": len(final),
            "errors": ref.filter(pc.is_null(ref.column("pred"))).num_rows,
            "digest": digest(final),
            "mentions": MentionLinker(name_to_iri=self.names)(tbl).num_rows,
        }

    def warm(self, out: str) -> None:
        """A tenth-size corpus of the same kind, task path only: a full-size
        call would cost another iteration, and the actor pools start afresh
        in every call anyway."""
        from jsonld_ex_ray.pipelines import full_kg_run

        tiny = write_sharded(self.make_corpus(max(self.n // 10, 16), self.seed + 1), os.path.join(out, "in"), 2)
        full_kg_run(tiny, os.path.join(out, "run"), concurrency=CONCURRENCY)

    def run(self, out: str) -> dict:
        from jsonld_ex_ray.pipelines import full_kg_run

        m = full_kg_run(self.inputs, out, linker_dict=self.linker, mention_names=self.names, concurrency=CONCURRENCY)
        return {"triples": m["n_triples"], "errors": m["n_errors"]}

    def run_traced(self, out: str, tracer) -> dict:
        """full_kg_run's stages in its order, each materialized on its own."""
        import ray
        import ray.data

        from jsonld_ex_ray.pipeline import (
            build_triples,
            canonicalize_bnodes,
            dedup_triples,
            materialize_graph,
            triples_only,
        )
        from jsonld_ex_ray.stages.linker import detect_and_link_mentions

        with tracer.span("emit"):
            emitted = build_triples(
                self.inputs, concurrency=CONCURRENCY, linker_dict_ref=ray.put(self.linker)
            ).materialize()
        tracer.stats("emit", emitted)
        n_emit, n_err = emitted.count(), _count_null_pred(emitted)
        with tracer.span("write"):
            emitted.write_parquet(os.path.join(out, "raw"))
        raw = ray.data.read_parquet(os.path.join(out, "raw"))
        with tracer.span("canonicalize"):
            canon = canonicalize_bnodes(raw).materialize()
        tracer.stats("canonicalize", canon)
        tables = [t for t in ray.get(canon.to_arrow_refs()) if t.num_rows]
        chunks = sum(t.column(0).num_chunks for t in tables)
        docs = len({d for t in tables for d in t.column("doc_id").to_pylist()})
        canon_rows = sum(t.num_rows for t in tables)
        del tables
        with tracer.span("dedup"):
            deduped = dedup_triples(canon).materialize()
        tracer.stats("dedup", deduped)
        with tracer.span("write"):
            deduped.write_parquet(os.path.join(out, "triples"))
        with tracer.span("read_back"):
            persisted = ray.data.read_parquet(os.path.join(out, "triples")).materialize()
        n_triples = persisted.count()
        with tracer.span("materialize"):
            adj = materialize_graph(persisted).materialize()
        tracer.stats("materialize", adj)
        degrees = [d for t in ray.get(adj.to_arrow_refs()) if t.num_rows for d in t.column("degree").to_pylist()]
        with tracer.span("write"):
            adj.write_parquet(os.path.join(out, "adjacency"))
        with tracer.span("mentions"):
            men = detect_and_link_mentions(
                triples_only(persisted), ray.put(self.names), concurrency=CONCURRENCY
            ).materialize()
        tracer.stats("mentions", men)
        with tracer.span("write"):
            men.write_parquet(os.path.join(out, "mentions"))
        tracer.count(
            **{
                "emit.rows_out": n_emit,
                "emit.error_rows": n_err,
                "emit.blocks": emitted.num_blocks(),
                "canonicalize.docs": docs,
                "canonicalize.out_chunks": chunks,
                "dedup.rows_in": canon_rows,
                "dedup.rows_out": deduped.count(),
                "dedup.in_chunks": chunks,
                "materialize.in_blocks": persisted.num_blocks(),
                "materialize.subjects": len(degrees),
                "materialize.max_degree": max(degrees, default=0),
                "mentions.rows_out": men.count(),
                **{f"write.{k}": v for k, v in write_stats(out).items()},
            }
        )
        return {"out": out, "triples": n_triples, "errors": n_err}

    def check(self, out: str, result: dict) -> list[str]:
        cols = IDENTITY + CANON
        tdir = os.path.join(out, "triples")
        tbl = pads.dataset(tdir).to_table(columns=cols + ["repo", "commit", "path", "content_sha256"])
        got = dict(
            result,
            digest=digest(table_rows(tbl, cols)),
            mentions=pads.dataset(os.path.join(out, "mentions")).count_rows(),
        )
        problems = self.compare(got, ["triples", "errors", "digest", "mentions"])
        distinct = duckdb_distinct(tdir, IDENTITY)
        if distinct != result["triples"]:
            problems.append(f"duckdb distinct {distinct} != n_triples {result['triples']}")
        degrees = pc.sum(pads.dataset(os.path.join(out, "adjacency")).to_table(columns=["degree"]).column("degree")).as_py() or 0
        if degrees != result["triples"]:
            problems.append(f"adjacency degree sum {degrees} != n_triples {result['triples']}")
        return problems + self.spot_check_sha(tbl)


# ---------------------------------------------------------------------------
# documents cleaning
# ---------------------------------------------------------------------------


class CleanDocs(Workload):
    """The fixed sf0.1 documents table; the seed does not change it."""

    name = "clean_docs"
    unit_label = "documents"
    sizes = {"full": 5000, "smoke": 1000}

    def pin_key(self) -> str:
        return f"{self.name}:{self.n}"

    def prepare(self, in_dir: str) -> None:
        table = pq.read_table(DOCUMENTS).slice(0, self.n)
        self.inputs = write_sharded(table, in_dir, self.n_files)
        self.in_dir = in_dir

    def reference(self) -> None:
        return None  # no in-process reference: the pin decides

    def run(self, out: str) -> dict:
        import ray.data

        from jsonld_ex_ray.pipelines.corpus_clean import clean_corpus

        ds = clean_corpus(ray.data.read_parquet(self.inputs), near_dup=True, cut_spans=True)
        ds.write_parquet(out)
        return {"kept": pads.dataset(out).count_rows()}

    def run_traced(self, out: str, tracer) -> dict:
        """clean_corpus's stages in its order, each materialized on its own
        (the same calls and defaults as clean_corpus itself)."""
        import ray
        import ray.data

        from jsonld_ex_ray.ops.dedup import cut_duplicate_spans, exact_dedup, minhash_lsh_duplicates
        from jsonld_ex_ray.ops.joins import hash_join_bucketed
        from jsonld_ex_ray.ops.text import assign_splits, filter_quality, filter_repetition
        from jsonld_ex_ray.pipelines.corpus_clean import clean_corpus

        p = {k: v.default for k, v in inspect.signature(clean_corpus).parameters.items() if k != "ds"}
        ds = ray.data.read_parquet(self.inputs)
        with tracer.span("clean.quality"):
            ds = filter_quality(ds, min_quality=p["min_quality"]).materialize()
        with tracer.span("clean.repetition"):
            ds = filter_repetition(
                ds, max_dup_word_frac=p["max_dup_word_frac"], max_top_word_frac=p["max_top_word_frac"]
            ).materialize()
        before = ds.count()
        with tracer.span("clean.exact_dedup"):
            ds = exact_dedup(ds).materialize()
        tracer.stats("clean.exact_dedup", ds)
        losers = before - ds.count()
        with tracer.span("clean.cut_spans"):
            keep_cols = [c for c in ds.schema().names if c != "text"]
            cut = cut_duplicate_spans(ds, window=p["cut_window"], stride=p["cut_stride"])
            ds = hash_join_bucketed(
                cut,
                ds.select_columns(keep_cols),
                left_on="doc_id",
                right_on="doc_id",
                right_cols=[c for c in keep_cols if c != "doc_id"],
                left_schema=pa.schema(
                    [("doc_id", ds.schema().base_schema.field("doc_id").type), ("text", pa.string())]
                ),
            ).materialize()
        tracer.stats("clean.cut_spans", ds)
        with tracer.span("clean.near_dup"):
            dups = minhash_lsh_duplicates(ds).materialize()
            tbls = [t for t in ray.get(dups.to_arrow_refs()) if t.num_rows]
            near = sum(t.num_rows for t in tbls)
            if near:
                ref = ray.put(pa.concat_tables(tbls).column("doc_id").combine_chunks())

                def drop_dups(batch: pa.Table) -> pa.Table:
                    return batch.filter(pc.invert(pc.is_in(batch.column("doc_id"), value_set=ray.get(ref))))

                ds = ds.map_batches(drop_dups, batch_format="pyarrow", zero_copy_batch=True)
            ds = ds.materialize()
        tracer.stats("clean.near_dup", ds)
        with tracer.span("clean.splits"):
            ds = assign_splits(ds).materialize()
        with tracer.span("write"):
            ds.write_parquet(os.path.join(out, "clean"))
        tracer.count(**{"clean.exact_dup_losers": losers, "clean.near_dup_ids": near})
        return {"out": os.path.join(out, "clean"), "kept": ds.count()}

    def check(self, out: str, result: dict) -> list[str]:
        tbl = pads.dataset(out).to_table(columns=["doc_id", "split"])
        got = dict(result, digest=digest((d,) for d in tbl.column("doc_id").to_pylist()))
        if self.pin is None:
            return [f"no pin for {self.pin_key()}"]
        problems = self.compare(got, ["kept", "digest"])
        if tbl.num_rows != result["kept"] or tbl.column("split").null_count:
            problems.append("split column missing values")
        return problems

    def rows_out(self, result: dict) -> int:
        return result["kept"]


WORKLOADS = {w.name: w for w in (KgBuild, KgFull, CleanDocs)}
