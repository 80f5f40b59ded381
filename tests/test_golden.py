"""Golden snapshot of the JSON-LD core, URDNA2015 and the emit kernel.

The W3C suites are not vendored, so the core's current output, which was
W3C-verified when it last changed meaning, is the oracle. For each input
set this recomputes three sha256 digests and compares them with
``tests/golden_core.json``:

- ``expanded``: every document's expanded form (sorted-key JSON) or the
  JsonLdError code it raised;
- ``nquads``: every document's URDNA2015 canonical N-Quads
  (``core/urdna2015.py``), so blank-node labels do not matter;
- ``rows`` (generated corpora only): the sorted rows of
  ``triples_batch(make_extract_batch()(table))``, the emit kernel's exact
  output including its ``_:{doc_hash}-b<n>`` labels.

Input sets: seeded ``gen.py`` corpora (plain and heavy), every literal
JSON-LD document in ``tests/test_framing.py``, and a few edge documents
(a blank-node ring that needs the n-degree hash, an IRI with a control
character that N-Quads must escape, canonical XSD number forms).

After a change that is meant to alter the output, rewrite the file with
``python -m tests.test_golden`` and say why in the commit.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os

import pyarrow as pa
import pytest

from jsonld_ex_ray.core import JsonLdError, JsonLdOptions, StaticLoader, expand, to_rdf
from jsonld_ex_ray.core.nquads import serialize_nquads
from jsonld_ex_ray.core.urdna2015 import canonical_quads
from jsonld_ex_ray.extract import extract_payloads
from jsonld_ex_ray.gen import CONTEXT_REGISTRY, generate_rows

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_core.json")

_EX = "http://ex.org/"
EDGE_DOCS = [
    # 4-ring hung off one IRI: b, c, d tie on first-degree hashes but are
    # not automorphic, so their labels come from hash-n-degree
    {
        "@context": {"@vocab": _EX},
        "@graph": [
            {"@id": _EX + "x", "p": {"@id": "_:a"}},
            {"@id": "_:a", "next": {"@id": "_:b"}},
            {"@id": "_:b", "next": {"@id": "_:c"}},
            {"@id": "_:c", "next": {"@id": "_:d"}},
            {"@id": "_:d", "next": {"@id": "_:a"}},
        ],
    },
    # two symmetric 3-rings in a named graph
    {
        "@context": {"@vocab": _EX},
        "@id": "_:g",
        "@graph": [
            {"@id": f"_:{r}{i}", "next": {"@id": f"_:{r}{(i + 1) % 3}"}}
            for r in "uv"
            for i in range(3)
        ],
    },
    # a control character is a legal IRI character here but must leave
    # N-Quads as \\u0001
    {"@id": "urn:x:a\u0001b", _EX + "p": {"@id": "urn:y:\u0002"}},
    {
        "@context": {"@vocab": _EX},
        "@id": _EX + "n",
        "n": [1.5e-7, -0.0, 1e21, 3.0, 12345678901234567890, 0.1, -42, True],
        "s": {"@value": "5", "@type": "http://www.w3.org/2001/XMLSchema#integer"},
    },
]


def _options() -> JsonLdOptions:
    return JsonLdOptions(document_loader=StaticLoader(CONTEXT_REGISTRY))


def _framing_docs() -> list:
    """Every outermost dict literal of tests/test_framing.py that looks like
    JSON-LD, in source order (inputs and frames alike: both are documents
    the core must expand)."""
    with open(os.path.join(HERE, "test_framing.py")) as f:
        tree = ast.parse(f.read())
    docs: list = []

    def visit(node):
        if isinstance(node, ast.Dict):
            try:
                value = ast.literal_eval(node)
            except ValueError:
                value = None
            if isinstance(value, dict) and any(k.startswith("@") for k in value if isinstance(k, str)):
                docs.append(value)
                return
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return docs


def _corpus_docs(rows: dict) -> list:
    docs = []
    for content, lang, path in zip(rows["content"], rows["lang"], rows["path"]):
        payloads, _ = extract_payloads(content, lang, path)
        docs.extend(json.loads(p) for p in payloads)
    return docs


def _outcome(fn) -> str:
    try:
        return fn()
    except JsonLdError as e:
        return f"!{e.code}"
    except Exception as e:  # pinned too: a crash is output the net must notice changing
        return f"!{type(e).__name__}"


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8", "surrogatepass"))
        h.update(b"\x1e")
    return h.hexdigest()


def _core_digests(docs: list) -> dict:
    opts = _options()
    expanded = [
        _outcome(lambda d=d: json.dumps(expand(d, opts), sort_keys=True, separators=(",", ":")))
        for d in docs
    ]
    nquads = [_outcome(lambda d=d: serialize_nquads(canonical_quads(to_rdf(d, opts)))) for d in docs]
    return {"docs": len(docs), "expanded": _digest(expanded), "nquads": _digest(nquads)}


def _rows_digest(rows: dict) -> str:
    from jsonld_ex_ray.stages.extract import make_extract_batch
    from jsonld_ex_ray.stages.triples import triples_batch

    out = triples_batch(make_extract_batch()(pa.table(rows)))
    return _digest(sorted(json.dumps(r, sort_keys=True) for r in out.to_pylist()))


def _input_sets() -> dict:
    return {
        "gen_plain": generate_rows(1000, seed=11),
        "gen_heavy": generate_rows(40, seed=11, heavy_fraction=1.0),
        "framing": _framing_docs(),
        "edge": EDGE_DOCS,
    }


def compute() -> dict:
    out = {}
    for name, data in _input_sets().items():
        if isinstance(data, dict):  # a generated corpus
            entry = _core_digests(_corpus_docs(data))
            entry["rows"] = _rows_digest(data)
        else:
            entry = _core_digests(data)
        out[name] = entry
    return out


@pytest.fixture(scope="module")
def current() -> dict:
    return compute()


@pytest.mark.parametrize("name", ["gen_plain", "gen_heavy", "framing", "edge"])
def test_golden_digests(current, name):
    with open(GOLDEN) as f:
        golden = json.load(f)
    assert current[name] == golden[name]


def test_golden_inputs_cover_the_hard_paths(current):
    """The net is only as good as its inputs: the framing set is non-trivial
    and the corpora produce documents."""
    assert current["framing"]["docs"] >= 40
    assert current["gen_plain"]["docs"] >= 500
    assert current["gen_heavy"]["docs"] == 40


if __name__ == "__main__":
    with open(GOLDEN, "w") as f:
        json.dump(compute(), f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN}")
