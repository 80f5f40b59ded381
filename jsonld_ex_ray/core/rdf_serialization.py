"""Serialize RDF as JSON-LD (API §7; reference lib/json/ld/encoder.ex).

Input: quads in the tuple encoding of to_rdf.py. Output: expanded JSON-LD.
Covers native-type conversion (encoder.ex:515-585), rdf:first/rest list
reconstruction via referenced-once tracking (encoder.ex:103-199, 373-505),
i18n-datatype and compound-literal direction decoding (encoder.ex:587-601).

In the engine's dataflow this is the inverse direction (triples → JSON-LD),
run once per whole graph inside a bucketed shuffle routed on the graph
(``pipeline.triples_to_jsonld``; SURVEY.md §2.5 fromRdf grouping), so a
hot subject's values are deduplicated through a set of hashable keys
(:func:`_value_key`), not a scan of every earlier value.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable

from .errors import JsonLdError
from .options import JsonLdOptions
from .rdf_generation import (
    I18N,
    RDF,
    RDF_DIRECTION,
    RDF_FIRST,
    RDF_JSON,
    RDF_LANGUAGE,
    RDF_LANGSTRING,
    RDF_NIL,
    RDF_REST,
    RDF_TYPE,
    RDF_VALUE,
    XSD_BOOLEAN,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)

RDF_LIST = RDF + "List"


def _term_id(term: tuple) -> str:
    return f"_:{term[1]}" if term[0] == "bnode" else term[1]


def _literal_to_object(term: tuple, options: JsonLdOptions) -> dict:
    _, lex, dt, lang = term
    result: dict[str, Any] = {}
    converted: Any = lex
    dt = dt or XSD_STRING
    if options.use_native_types:
        if dt == XSD_STRING:
            pass
        elif dt == XSD_BOOLEAN:
            if lex == "true":
                converted = True
                dt = None
            elif lex == "false":
                converted = False
                dt = None
            else:
                result["@type"] = XSD_BOOLEAN
        elif dt == XSD_INTEGER:
            try:
                converted = int(lex)
                dt = None
            except ValueError:
                result["@type"] = XSD_INTEGER
        elif dt == XSD_DOUBLE:
            try:
                converted = float(lex)
                dt = None
                if math.isnan(converted) or math.isinf(converted):
                    converted = lex
                    result["@type"] = XSD_DOUBLE
            except ValueError:
                result["@type"] = XSD_DOUBLE
        else:
            if dt not in (RDF_LANGSTRING,):
                result["@type"] = dt
    elif options.processing_mode != "json-ld-1.0" and dt == RDF_JSON:
        try:
            converted = json.loads(lex)
        except ValueError as e:
            raise JsonLdError("invalid JSON literal", f"{lex[:100]!r}: {e}")
        result["@type"] = "@json"
    elif (
        options.rdf_direction == "i18n-datatype"
        and options.processing_mode != "json-ld-1.0"
        and dt.startswith(I18N)
    ):
        lang_dir = dt[len(I18N):]
        language, _, direction = lang_dir.partition("_")
        result["@value"] = lex
        if language:
            result["@language"] = language
        if direction:
            result["@direction"] = direction
        return result
    elif lang is not None:
        result["@language"] = lang
    elif dt != XSD_STRING:
        result["@type"] = dt
    result["@value"] = converted
    if lang is not None and "@language" not in result and "@type" not in result:
        result["@language"] = lang
    return result


def _value_key(value: Any) -> Any:
    """A hashable key; two values have equal keys exactly when
    ``flattening.strict_equal`` holds: a bool stays apart from 0 and 1,
    1 equals 1.0, and a NaN equals nothing. A dict or list becomes one
    flat tuple, its members' keys behind a tag."""
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return ("{", *(x for k, v in sorted(value.items()) for x in (k, _value_key(v))))
    if isinstance(value, list):
        return ("[", *(_value_key(v) for v in value))
    if isinstance(value, bool):
        return ("b", value)
    if value != value:  # NaN: a set would match it by identity
        return object()
    return value


def _rdf_to_object(term: tuple, options: JsonLdOptions) -> dict:
    if term[0] in ("iri", "bnode"):
        return {"@id": _term_id(term)}
    return _literal_to_object(term, options)


def serialize_rdf(quads: Iterable[tuple], options: JsonLdOptions | None = None) -> list:
    options = options or JsonLdOptions()
    graph_map: dict[str, dict] = {"@default": {}}
    referenced_once: dict[str, Any] = {}
    compound_subjects: dict[str, dict] = {}
    seen: set = set()  # (id of a value list, key of a value in it)

    # 2-5. build node maps per graph
    for s, p, o, g in quads:
        name = "@default" if g is None else _term_id(g)
        node_map = graph_map.setdefault(name, {})
        if name != "@default":
            graph_map["@default"].setdefault(name, {"@id": name})
        sid, pid = _term_id(s), _term_id(p)
        if options.rdf_direction == "compound-literal" and pid == RDF_DIRECTION:
            compound_subjects.setdefault(name, {})[sid] = True
        node = node_map.setdefault(sid, {"@id": sid})
        if o[0] in ("iri", "bnode"):
            node_map.setdefault(_term_id(o), {"@id": _term_id(o)})
        if pid == RDF_TYPE and not options.use_rdf_type and o[0] in ("iri", "bnode"):
            types = node.setdefault("@type", [])
            if _term_id(o) not in types:
                types.append(_term_id(o))
            continue
        value = _rdf_to_object(o, options)
        values = node.setdefault(pid, [])
        # the lists live as long as this call, so id() names one
        key = (id(values), _value_key(value))
        is_new = key not in seen
        if is_new:
            seen.add(key)
            values.append(value)
        if o[0] in ("iri", "bnode"):
            oid = _term_id(o)
            # duplicate triples collapse to ONE usage, so they must not
            # demote a bnode to multiply-referenced (fromRdf #t0022)
            if oid == RDF_NIL:
                if is_new:
                    usages = node_map[oid].setdefault("usages", [])
                    usages.append({"node": node, "property": pid, "value": value})
            elif oid in referenced_once:
                if is_new:
                    referenced_once[oid] = False
            elif o[0] == "bnode":
                referenced_once[oid] = {"node": node, "property": pid, "value": value}

    # 6. compound-literal reconstruction
    if options.rdf_direction == "compound-literal":
        for name, subjects in compound_subjects.items():
            node_map = graph_map.get(name, {})
            for cl in list(subjects):
                entry = referenced_once.get(cl)
                if not isinstance(entry, dict):
                    continue
                cl_node = node_map.pop(cl, None)
                if cl_node is None:
                    continue
                value = entry["value"]
                value.pop("@id", None)
                rdf_value = cl_node.get(RDF_VALUE, [{}])[0].get("@value")
                value["@value"] = rdf_value
                langs = cl_node.get(RDF_LANGUAGE)
                if langs:
                    value["@language"] = langs[0].get("@value")
                dirs = cl_node.get(RDF_DIRECTION)
                if dirs:
                    value["@direction"] = dirs[0].get("@value")

    # 6/7. list reconstruction from rdf:nil usages
    for name, node_map in graph_map.items():
        nil = node_map.get(RDF_NIL)
        if nil is None:
            continue
        for usage in nil.get("usages", []):
            node, prop, head = usage["node"], usage["property"], usage["value"]
            lst: list = []
            list_nodes: list[str] = []
            while (
                prop == RDF_REST
                and isinstance(node, dict)
                and node.get("@id", "").startswith("_:")
                and isinstance(referenced_once.get(node.get("@id")), dict)
                and isinstance(node.get(RDF_FIRST), list)
                and len(node.get(RDF_FIRST, [])) == 1
                and isinstance(node.get(RDF_REST), list)
                and len(node.get(RDF_REST, [])) == 1
                and set(node) <= {"@id", "@type", RDF_FIRST, RDF_REST, "usages"}
                and (node.get("@type") in (None, [RDF_LIST]))
            ):
                lst.append(node[RDF_FIRST][0])
                list_nodes.append(node["@id"])
                next_usage = referenced_once[node["@id"]]
                node, prop, head = (
                    next_usage["node"],
                    next_usage["property"],
                    next_usage["value"],
                )
                if not node.get("@id", "").startswith("_:"):
                    break
            head.pop("@id", None)
            lst.reverse()
            head["@list"] = lst
            for ln in list_nodes:
                node_map.pop(ln, None)

    # 8-9. emit
    result = []
    default_graph = graph_map["@default"]
    for subject in sorted(default_graph.keys()):
        node = default_graph[subject]
        if subject in graph_map and subject != "@default":
            graph_nodes = []
            for s in sorted(graph_map[subject].keys()):
                n = graph_map[subject][s]
                n.pop("usages", None)
                if set(n) != {"@id"}:
                    graph_nodes.append(n)
            node["@graph"] = graph_nodes
        node.pop("usages", None)
        if set(node) != {"@id"}:
            result.append(node)
    return result
