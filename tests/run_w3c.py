"""Standalone W3C suite runner for fast iteration (not pytest).

Usage: python tests/run_w3c.py [expand|flatten|toRdf|compact|fromRdf] [-v]
"""

from __future__ import annotations

import json
import os
import sys
import traceback

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from jsonld_ex_ray.core import api
from jsonld_ex_ray.core.errors import JsonLdError
from jsonld_ex_ray.core.isomorphism import isomorphic
from jsonld_ex_ray.core.nquads import parse_nquads
from tests.w3c_support import (
    SUITE_BASE,
    SUITE_DIR,
    case_options,
    json_equal_unordered,
    load_manifest,
    make_loader,
    make_remote_doc_loader,
    should_skip,
    suite_available,
)


def run_suite(name: str, verbose: bool = False, only: str | None = None):
    manifest_name = "remote-doc" if name == "remote-doc" else name
    cases = load_manifest(manifest_name)
    loader = make_loader()
    passed = failed = skipped = 0
    failures = []
    for case in cases:
        cid = case["@id"]
        if only and cid != only:
            continue
        if should_skip(case):
            skipped += 1
            continue
        options = case_options(case, loader)
        input_url = SUITE_BASE + case["input"]
        negative = "jld:NegativeEvaluationTest" in case["@type"]
        syntax = "jld:PositiveSyntaxTest" in case["@type"]
        try:
            if name == "remote-doc":
                sim = make_remote_doc_loader(case)
                opt = case.get("option", {})
                result = api.expand(
                    input_url,
                    options.with_(
                        document_loader=sim,
                        base=None,
                        ordered=True,
                        extract_all_scripts=opt.get("extractAllScripts", False),
                    ),
                )
            elif name == "expand":
                result = api.expand(input_url, options.with_(ordered=True))
            elif name == "flatten":
                context = None
                if "context" in case:
                    with open(os.path.join(SUITE_DIR, case["context"])) as f:
                        context = json.load(f)
                result = api.flatten(input_url, context, options.with_(ordered=True))
            elif name == "toRdf":
                result = api.to_rdf(input_url, options)
            elif name == "compact":
                with open(os.path.join(SUITE_DIR, case["context"])) as f:
                    context = json.load(f)
                result = api.compact(input_url, context, options.with_(ordered=True))
            elif name == "fromRdf":
                with open(os.path.join(SUITE_DIR, case["input"])) as f:
                    quads = parse_nquads(f.read())
                result = api.from_rdf(quads, options.with_(ordered=True))
            elif name == "html":
                opt = case.get("option", {})
                options = options.with_(
                    extract_all_scripts=opt.get("extractAllScripts", False),
                    ordered=True,
                )
                if "jld:ToRDFTest" in case["@type"]:
                    result = api.to_rdf(input_url, options)
                elif "jld:CompactTest" in case["@type"]:
                    with open(os.path.join(SUITE_DIR, case["context"])) as f:
                        context = json.load(f)
                    result = api.compact(input_url, context, options)
                elif "jld:FlattenTest" in case["@type"]:
                    context = None
                    if "context" in case:
                        with open(os.path.join(SUITE_DIR, case["context"])) as f:
                            context = json.load(f)
                    result = api.flatten(input_url, context, options)
                else:
                    result = api.expand(input_url, options)
            else:
                raise SystemExit(f"unknown suite {name}")
            if negative:
                failed += 1
                failures.append((cid, case["name"], f"expected error {case['expectErrorCode']!r}, got result"))
                continue
            if syntax:
                passed += 1
                continue
            with open(os.path.join(SUITE_DIR, case["expect"])) as f:
                if case["expect"].endswith(".nq"):
                    expected = parse_nquads(f.read())
                    ok = isomorphic(result, expected)
                else:
                    expected = json.load(f)
                    ok = json_equal_unordered(result, expected)
            if ok:
                passed += 1
            else:
                failed += 1
                failures.append((cid, case["name"], _diff(result, expected, name)))
        except JsonLdError as e:
            if negative:
                if e.code == case["expectErrorCode"]:
                    passed += 1
                else:
                    failed += 1
                    failures.append((cid, case["name"], f"expected {case['expectErrorCode']!r} got {e.code!r}"))
            else:
                failed += 1
                failures.append((cid, case["name"], f"raised {e.code}: {e.message}"))
        except Exception as e:
            failed += 1
            failures.append((cid, case["name"], f"CRASH {type(e).__name__}: {e}\n{traceback.format_exc() if verbose else ''}"))
    print(f"{name}: {passed} passed, {failed} failed, {skipped} skipped / {len(cases)}")
    for cid, nm, msg in failures[: (1000 if verbose else 40)]:
        print(f"  FAIL {cid} [{nm}]: {msg[:600]}")
    return passed, failed, skipped


def _diff(result, expected, name):
    if name == "toRdf":
        from jsonld_ex_ray.core.nquads import serialize_nquads

        return "\n--- got ---\n" + serialize_nquads(result) + "--- want ---\n" + serialize_nquads(expected)
    return "\n--- got ---\n" + json.dumps(result, indent=1, sort_keys=True)[:800] + "\n--- want ---\n" + json.dumps(expected, indent=1, sort_keys=True)[:800]


def triple_precision_recall() -> dict:
    """Micro-averaged triple-level precision/recall of this engine's toRdf
    output vs the W3C expected N-Quads (the north rule's P/R ≥ 0.95 gate).
    Blank nodes are aligned per case via the isomorphism mapping when the
    graphs match; on mismatch, ground (bnode-erased) triples are compared."""
    from jsonld_ex_ray.core.isomorphism import _signature

    cases = load_manifest("toRdf")
    loader = make_loader()
    tp = fp = fn = 0
    for case in cases:
        if should_skip(case) or "jld:PositiveEvaluationTest" not in case["@type"]:
            continue
        options = case_options(case, loader)
        try:
            got = set(api.to_rdf(SUITE_BASE + case["input"], options))
        except Exception:
            got = set()
        with open(os.path.join(SUITE_DIR, case["expect"])) as f:
            want = set(parse_nquads(f.read()))
        if isomorphic(list(got), list(want)):
            tp += len(want)
            continue
        # fall back to bnode-erased comparison for partial credit
        g = _signature(list(got))
        w = _signature(list(want))
        tp += len(g & w)
        fp += len(g - w)
        fn += len(w - g)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return {
        "metric": "toRdf_triple_pr",
        "precision": round(precision, 5),
        "recall": round(recall, 5),
        "tp": tp,
        "fp": fp,
        "fn": fn,
    }


def main(argv: list[str]) -> None:
    """Run the named suites (all five core ones by default). Without the
    vendored W3C suite, exit non-zero with a one-line message, where
    ``tests/test_w3c.py`` skips."""
    if not suite_available():
        raise SystemExit(f"W3C JSON-LD suite not vendored ({SUITE_DIR} missing): nothing to run")
    if "--pr" in argv:
        print(json.dumps(triple_precision_recall()))
        return
    args = [a for a in argv if not a.startswith("-")]
    verbose = "-v" in argv
    only = None
    for a in list(args):
        if a.startswith("#"):
            only = a
            args.remove(a)
    suites = args or ["expand", "flatten", "toRdf", "compact", "fromRdf"]
    for s in suites:
        run_suite(s, verbose, only)


if __name__ == "__main__":
    main(sys.argv[1:])
