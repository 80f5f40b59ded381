"""Deterministic synthetic ``source_repos`` corpus generator.

Implements FIXTURES.md §1: seeded rows ``(repo, path, commit, lang,
content)`` whose content embeds JSON-LD per archetypes A1-A12, with skew
knobs (mega-repos, hot subject IRIs). Used by tests and by ``bench.py``
at larger scale factors. No external data; everything derives from the seed.
``cached_dir`` builds the cached fixtures (corpora, the triples parquet)
that the driver queries, their oracles and ``bench.py`` read.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import os
import random
import shutil
from collections.abc import Callable

# Offline remote-context registry (archetype A7). The resolver actor uses a
# StaticLoader over this dict — the sandbox stand-in for HTTP contexts.
CONTEXT_REGISTRY: dict[str, dict] = {
    "https://ctx.example/product": {
        "@context": {
            "@vocab": "https://schema.example/",
            "name": {"@language": "en"},
            "sku": "https://schema.example/sku",
            "related": {"@type": "@id"},
        }
    },
    "https://ctx.example/person": {
        "@context": {
            "name": "https://schema.example/name",
            "knows": {"@id": "https://schema.example/knows", "@type": "@id"},
            "homepage": {"@id": "https://schema.example/homepage", "@type": "@id"},
        }
    },
    # chained context: chain → product
    "https://ctx.example/chain": {"@context": ["https://ctx.example/product", {"price": "https://schema.example/price"}]},
    # deliberate cycle: cyc-a ↔ cyc-b (exercises "context overflow")
    "https://ctx.example/cyc-a": {"@context": "https://ctx.example/cyc-b"},
    "https://ctx.example/cyc-b": {"@context": "https://ctx.example/cyc-a"},
}

_LANGS = ["en", "de", "fr", "ja"]


def _commit(rng: random.Random) -> str:
    return "".join(rng.choice("0123456789abcdef") for _ in range(40))


def _entity(rng: random.Random, hot_subjects: list[str]) -> str:
    # ~10% of references hit a hot subject (skew knob)
    if rng.random() < 0.10:
        return rng.choice(hot_subjects)
    return f"https://kg.example/entity/{rng.randrange(1_000_000)}"


def _doc_a1(rng, hot):
    return {
        "@context": {
            "@vocab": "https://schema.example/",
            "related": {"@id": "https://schema.example/related", "@type": "@id"},
        },
        "@id": _entity(rng, hot),
        "@type": "Product",
        "name": f"Widget {rng.randrange(10_000)}",
        "related": _entity(rng, hot),
    }


def _doc_a2(rng, hot):
    return {
        "@context": {
            "steps": {"@id": "https://schema.example/steps", "@container": "@list"},
            "tags": {"@id": "https://schema.example/tags", "@container": "@set"},
        },
        "@id": _entity(rng, hot),
        "steps": [rng.randrange(100), True, f"step-{rng.randrange(50)}"],
        "tags": [f"t{rng.randrange(20)}" for _ in range(3)],
    }


def _doc_a3(rng, hot):
    child = _entity(rng, hot)
    return {
        "@context": {"@vocab": "https://schema.example/"},
        "@id": f"https://kg.example/graph/{rng.randrange(10_000)}",
        "@graph": [
            {
                "@id": _entity(rng, hot),
                "partOf": {"@id": child, "label": f"part {rng.randrange(100)}"},
                "@reverse": {"owns": {"@id": _entity(rng, hot)}},
            }
        ],
    }


def _doc_a4(rng, hot):
    return {
        "@context": {"@vocab": "https://schema.example/"},
        "@id": f"_:root{rng.randrange(100)}",
        "child": {"label": f"anon-{rng.randrange(1000)}"},
        "sibling": {"@id": f"_:s{rng.randrange(10)}", "label": "named bnode"},
    }


def _doc_a5(rng, hot):
    return {
        "@context": {
            "@vocab": "https://schema.example/",
            "title": {"@container": "@language"},
            "note": {"@language": "de", "@direction": "ltr"},
        },
        "@id": _entity(rng, hot),
        "title": {lang: f"title-{lang}-{rng.randrange(100)}" for lang in _LANGS[:2]},
        "note": f"notiz {rng.randrange(100)}",
    }


def _doc_a6(rng, hot):
    return {
        "@context": {"@vocab": "https://schema.example/"},
        "@id": _entity(rng, hot),
        "count": rng.randrange(1_000_000),
        "ratio": rng.randrange(1, 100) / 8.0,
        "whole": float(rng.randrange(100)),
        "huge": 1.0e21,
        "flag": rng.random() < 0.5,
        "blob": {"@value": {"k": [1, 2.5, None, True]}, "@type": "@json"},
    }


def _doc_a7(rng, hot):
    url = rng.choice(["https://ctx.example/product", "https://ctx.example/person", "https://ctx.example/chain"])
    doc = {
        "@context": url,
        "@id": _entity(rng, hot),
        "name": f"thing {rng.randrange(10_000)}",
    }
    if "person" in url:
        doc["knows"] = _entity(rng, hot)
    else:
        doc["related"] = _entity(rng, hot)
        if "chain" in url:
            doc["price"] = rng.randrange(1, 500)
    return doc


def _doc_a11(rng, hot):
    bad = rng.choice(
        [
            {"@context": {"@vocab": "https://x.example/"}, "@id": 42},
            {"@context": {"t": {"@id": "https://x.example/t", "@container": "@bogus"}}, "t": 1},
            {"@context": "https://ctx.example/cyc-a", "x": 1},
            {"@id": "https://x.example/1", "@value": "both"},
        ]
    )
    return bad


def _doc_a12(rng, hot):
    # litepub-ish: big multi-part context
    return {
        "@context": [
            "https://ctx.example/person",
            {
                "sc": "https://schema.example/",
                "sensitive": "sc:sensitive",
                "Hashtag": "sc:Hashtag",
                "quoteUrl": {"@id": "sc:quoteUrl", "@type": "@id"},
            },
        ],
        "@id": _entity(rng, hot),
        "name": f"actor {rng.randrange(10_000)}",
        "sensitive": False,
        "quoteUrl": _entity(rng, hot),
    }


def _doc_heavy(rng, hot):
    """Large multi-entity document (~50 nested nodes): weights the corpus
    toward realistic per-file compute for scaling measurements."""
    return {
        "@context": {
            "@vocab": "https://schema.example/",
            "related": {"@id": "https://schema.example/related", "@type": "@id"},
            "items": {"@id": "https://schema.example/items", "@container": "@list"},
            "title": {"@container": "@language"},
        },
        "@id": _entity(rng, hot),
        "@type": "Catalog",
        "title": {lang: f"cat-{lang}-{rng.randrange(100)}" for lang in _LANGS},
        "items": [
            {
                "@id": _entity(rng, hot),
                "@type": "Product",
                "name": f"item {i}-{rng.randrange(10_000)}",
                "sku": f"sku-{rng.randrange(100_000)}",
                "price": rng.randrange(1, 10_000) / 4.0,
                "related": _entity(rng, hot),
                "maker": {"name": f"maker {rng.randrange(500)}", "country": rng.choice(_LANGS)},
            }
            for i in range(40)
        ],
    }


def _html_page(rng, hot):
    n = 1 + (rng.random() < 0.3)
    blocks = "\n".join(
        f'<script type="application/ld+json">\n{json.dumps(_doc_a1(rng, hot), indent=1)}\n</script>'
        for _ in range(n)
    )
    return f"<!DOCTYPE html>\n<html><head><title>p{rng.randrange(100)}</title>\n{blocks}\n</head><body><p>text</p></body></html>"


def _python_file(rng, hot):
    doc = json.dumps(_doc_a1(rng, hot), indent=2)
    return (
        f"import json\n\n# schema for service {rng.randrange(100)}\n"
        f"SCHEMA = json.loads('''{doc}''')\n\n"
        f"def load():\n    return SCHEMA\n"
    )


def _markdown_file(rng, hot):
    doc = json.dumps(_doc_a7(rng, hot), indent=1)
    return (
        f"# Service {rng.randrange(100)}\n\nExample payload:\n\n```json\n{doc}\n```\n\nMore prose.\n"
    )


def _noise(rng, hot):
    return rng.choice(
        [
            json.dumps({"name": "no jsonld here", "v": rng.randrange(100)}),
            "{this is not json at all",
            "binary\x00ish\x01content" * 10,
            "plain text readme with nothing to extract " * 5,
        ]
    )


def generate_rows(
    num_files: int, seed: int = 42, heavy_fraction: float = 0.0
) -> dict[str, list]:
    """Generate ``num_files`` rows as a dict of columns (Arrow-friendly).

    Deterministic in (num_files, seed, heavy_fraction). ~20% of rows live
    in 2 mega-repos (skew); ~15% are noise rows with no JSON-LD.
    ``heavy_fraction`` replaces that share of rows with large multi-entity
    documents (scaling benchmarks need compute-dominated runs).
    """
    rng = random.Random(seed)
    hot = [f"https://kg.example/hot/{i}" for i in range(4)]
    repos, paths, commits, langs, contents = [], [], [], [], []

    mega = ["org-mega/monorepo-a", "org-mega/monorepo-b"]
    for i in range(num_files):
        r = rng.random()
        if r < 0.20:
            repo = mega[i % 2]
        else:
            repo = f"org-{rng.randrange(200):03d}/proj-{rng.randrange(50)}"
        commit = _commit(rng)
        kind = rng.random()
        if kind < heavy_fraction:
            lang, path = "jsonld", f"data/catalog_{i}.jsonld"
            content = json.dumps(_doc_heavy(rng, hot))
        elif kind < 0.35:
            maker = rng.choice([_doc_a1, _doc_a2, _doc_a3, _doc_a4, _doc_a5, _doc_a6, _doc_a7, _doc_a12])
            lang, path = "jsonld", f"data/doc_{i}.jsonld"
            content = json.dumps(maker(rng, hot), indent=rng.choice([None, 1]))
        elif kind < 0.50:
            lang, path = "html", f"docs/page_{i}.html"
            content = _html_page(rng, hot)
        elif kind < 0.62:
            lang, path = "python", f"src/schema_{i}.py"
            content = _python_file(rng, hot)
        elif kind < 0.72:
            lang, path = "markdown", f"docs/readme_{i}.md"
            content = _markdown_file(rng, hot)
        elif kind < 0.80:
            lang, path = "jsonld", f"data/bad_{i}.jsonld"
            content = json.dumps(_doc_a11(rng, hot))
        else:
            lang = rng.choice(["text", "javascript", "json"])
            path = f"misc/file_{i}.{'json' if lang == 'json' else 'txt'}"
            content = (
                json.dumps({"plain": True, "i": i}) if lang == "json" else _noise(rng, hot)
            )
        repos.append(repo)
        paths.append(path)
        commits.append(commit)
        langs.append(lang)
        contents.append(content)
    return {
        "repo": repos,
        "path": paths,
        "commit": commits,
        "lang": langs,
        "content": contents,
    }


def write_corpus(
    out_path: str,
    num_files: int,
    seed: int = 42,
    row_group_size: int = 2048,
    heavy_fraction: float = 0.0,
    shards: int | None = None,
) -> str:
    """``shards=None`` writes one parquet file; ``shards=N`` writes a
    DIRECTORY of N files (identical rows, contiguous split), each in row
    groups of ``row_group_size`` rows. ``pipeline.build_triples`` runs one
    emit task per ROW GROUP, so a corpus of one row group serializes the
    whole pipeline behind one task: keep several row groups, or shards,
    in any corpus meant for multi-CPU runs."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    table = pa.table(generate_rows(num_files, seed, heavy_fraction))
    if shards:
        os.makedirs(out_path, exist_ok=True)
        per = (table.num_rows + shards - 1) // shards
        for i in range(shards):
            part = table.slice(i * per, per)
            if part.num_rows == 0:
                break
            pq.write_table(
                part,
                os.path.join(out_path, f"part-{i:04d}.parquet"),
                row_group_size=row_group_size,
            )
        return out_path
    pq.write_table(table, out_path, row_group_size=row_group_size)
    return out_path


def sha256_hex(content: str) -> str:
    return hashlib.sha256(content.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# cached fixtures
# ---------------------------------------------------------------------------

# Where cached fixtures live; tests point it at a temporary directory.
FIXTURE_ROOT = "/tmp"


def _stamp_of(path: str) -> str | None:
    try:
        with open(os.path.join(path, ".done")) as fh:
            return fh.read()
    except OSError:
        return None


def cached_dir(name: str, stamp: str, build: Callable[[str], object]) -> str:
    """``FIXTURE_ROOT/name``, rebuilt by ``build(dir)`` unless its ``.done``
    holds ``stamp``. The build fills a private temporary directory that is
    renamed into place only after ``.done`` is written, so a killed or
    failed build leaves nothing a later call could adopt. The stamp is
    taken before the build: inputs that change during it are caught by
    the next call's stamp."""
    out = os.path.join(FIXTURE_ROOT, name)
    if _stamp_of(out) == stamp:
        return out
    shutil.rmtree(out, ignore_errors=True)  # partial, or built from another stamp
    tmp = f"{out}.tmp.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        build(tmp)
        with open(os.path.join(tmp, ".done"), "w") as fh:
            fh.write(stamp)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    try:
        os.rename(tmp, out)
    except OSError:
        # rename collision: a concurrent builder installed a dir, or a
        # stale `out` survived the rmtree above. Adopt theirs iff it holds
        # our stamp, else replace it.
        if _stamp_of(out) == stamp:
            shutil.rmtree(tmp, ignore_errors=True)
        else:
            shutil.rmtree(out, ignore_errors=True)
            try:
                os.rename(tmp, out)
            except OSError:
                # three-way race: a third process just installed — adopt
                # theirs iff current, else this host is genuinely broken
                if _stamp_of(out) != stamp:
                    raise
                shutil.rmtree(tmp, ignore_errors=True)
    return out


@functools.cache  # the code this process runs: fixed at first use
def _source_digest(pattern: str) -> str:
    """sha256 over this package's ``pattern`` files (paths and bytes)."""
    root = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, pattern), recursive=True)):
        h.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def files_for_sf(sf: float, heavy: float = 0.0) -> int:
    """Corpus size for a scale factor: sf0.001→400 files, sf0.01→4000,
    sf0.1→40000. Heavy corpora are 5x larger, so that compute dominates."""
    return max(2000, int(2_000_000 * sf)) if heavy else max(200, int(400_000 * sf))


def corpus_fixture(sf: float, heavy: float = 0.0, shards: int = 16) -> str:
    """The cached seed-42 corpus for ``sf`` as a directory of ``shards``
    files (one emit task per row group of 2048 rows). ``heavy`` is the
    share of large multi-entity documents. Rebuilt when the generator
    changes."""
    n = files_for_sf(sf, heavy)
    tag = f"{n}_42" + (f"_h{int(heavy * 100)}" if heavy else "") + f"_s{shards}"
    return cached_dir(
        f"jsonld_ex_ray_corpus_{tag}",
        f"{tag} gen:{_source_digest('gen.py')}",
        lambda d: write_corpus(d, n, seed=42, heavy_fraction=heavy, shards=shards),
    )


def triples_fixture() -> str:
    """The sf0.01 corpus's triples through the real pipeline
    (``build_triples`` → ``triples_only``): the shared input of the kg_*
    queries whose DuckDB oracle reads the same parquet. Rebuilt when the
    corpus or any engine module changes. Needs a Ray session."""
    corpus = corpus_fixture(0.01)

    def build(d: str) -> None:
        from .pipeline import build_triples, triples_only

        triples_only(build_triples(corpus)).write_parquet(d)

    return cached_dir(
        "jsonld_ex_ray_triples_4000",
        f"{_stamp_of(corpus)} engine:{_source_digest('**/*.py')}",
        build,
    )
