"""JSON-LD 1.1 Expansion (API §5.1) and Value Expansion (§5.2).

Semantics mirror the reference (lib/json/ld/expansion.ex:20-856): scalar →
value object, array flatmap, property-/type-scoped and local contexts,
previous-context reversion, keyword handling 13.4.*, language/index/id/type
maps, @list/@graph wrapping, @reverse maps, @nest merging, value-object
validation, free-floating-node dropping.

Pure per-document function: in the pipeline this runs inside ``map_batches``
(one call per extracted payload), with remote contexts pre-resolved by the
resolver actor's cached loader.
"""

from __future__ import annotations

from typing import Any

from .context import NOT_PRESENT, Context, expand_iri, is_well_formed_language
from .errors import JsonLdError
from .iri import is_absolute_iri, is_keyword

_VALUE_OBJECT_KEYS = frozenset({"@value", "@language", "@type", "@index", "@direction"})


def _as_array(v: Any) -> list:
    if v is None:
        return []
    return v if isinstance(v, list) else [v]


def _is_list_object(v: Any) -> bool:
    return isinstance(v, dict) and "@list" in v


def _is_value_object(v: Any) -> bool:
    return isinstance(v, dict) and "@value" in v


def _is_graph_object(v: Any) -> bool:
    return (
        isinstance(v, dict)
        and "@graph" in v
        and not (set(v) - {"@graph", "@id", "@index", "@context"})
    )


def _is_node_object(v: Any) -> bool:
    return isinstance(v, dict) and "@value" not in v and "@list" not in v and "@set" not in v


def expand_element(
    active: Context,
    active_property: str | None,
    element: Any,
    base_url: str | None,
    *,
    from_map: bool = False,
    ordered: bool = False,
) -> Any:
    # 1.
    if element is None:
        return None

    # 3. property-scoped context
    td = active.term_definitions.get(active_property) if active_property else None
    property_scoped = td.local_context if td is not None and td.local_context is not NOT_PRESENT else NOT_PRESENT

    # 4. scalar
    if isinstance(element, (str, int, float, bool)):
        if active_property is None or active_property == "@graph":
            return None
        if property_scoped is not NOT_PRESENT:
            active = active.process(property_scoped, td.base_url)
        return expand_value(active, active_property, element)

    # 5. array
    if isinstance(element, list):
        result: list = []
        container = td.container_mapping if td is not None else frozenset()
        for item in element:
            expanded = expand_element(
                active, active_property, item, base_url, from_map=from_map, ordered=ordered
            )
            if "@list" in container and isinstance(expanded, list):
                expanded = {"@list": expanded}
            if isinstance(expanded, list):
                result.extend(x for x in expanded if x is not None)
            elif expanded is not None:
                result.append(expanded)
        return result

    if not isinstance(element, dict):
        raise JsonLdError("invalid local context", f"unexpected element {type(element)}")

    # 7. previous-context reversion
    if active.previous_context is not None and not from_map:
        expanded_keys = {
            expand_iri(active, k, vocab=True) for k in element if k != "@context"
        }
        single_id = len(element) == 1 and expanded_keys == {"@id"}
        if "@value" not in expanded_keys and not single_id:
            active = active.previous_context

    # 8. property-scoped context
    if property_scoped is not NOT_PRESENT:
        active = active.process(
            property_scoped, td.base_url, override_protected=True
        )

    # 9. local context
    if "@context" in element:
        active = active.process(element["@context"], base_url)

    # 10-11. type-scoped contexts
    type_scoped = active
    input_type: str | None = None
    for key in sorted(element.keys()):
        if expand_iri(active, key, vocab=True) != "@type":
            continue
        values = _as_array(element[key])
        if input_type is None and values:
            last = values[-1]
            if isinstance(last, str):
                input_type = expand_iri(active, last, vocab=True)
        for term in sorted(v for v in values if isinstance(v, str)):
            term_def = type_scoped.term_definitions.get(term)
            if term_def is not None and term_def.local_context is not NOT_PRESENT:
                active = active.process(
                    term_def.local_context, term_def.base_url, propagate=False
                )

    result: dict[str, Any] = {}
    _expand_entries(
        active,
        type_scoped,
        active_property,
        element,
        result,
        input_type,
        base_url,
        ordered=ordered,
    )

    # 15. value-object validation
    if "@value" in result:
        keys = set(result)
        if not keys <= _VALUE_OBJECT_KEYS:
            raise JsonLdError("invalid value object", f"extra keys {sorted(keys - _VALUE_OBJECT_KEYS)}")
        if "@type" in result and ("@language" in result or "@direction" in result):
            raise JsonLdError("invalid value object", "@type with @language/@direction")
        if result.get("@type") == "@json":
            pass  # any JSON value allowed
        else:
            value = result["@value"]
            if value is None or (isinstance(value, list) and not value):
                return None
            if "@language" in result and not isinstance(value, str):
                raise JsonLdError("invalid language-tagged value", repr(value))
            if "@type" in result and not (
                isinstance(result["@type"], str) and is_absolute_iri(result["@type"])
            ):
                raise JsonLdError("invalid typed value", repr(result.get("@type")))
    # 16. @type normalization
    elif "@type" in result and not isinstance(result["@type"], list):
        result["@type"] = [result["@type"]]
    # 17. @set / @list
    elif "@set" in result or "@list" in result:
        if not set(result) <= {"@set", "@list", "@index"}:
            raise JsonLdError("invalid set or list object", str(sorted(result)))
        if "@set" in result:
            return result["@set"]

    # 18. only @language
    if isinstance(result, dict) and set(result) == {"@language"}:
        return None

    # 19. free-floating filtering
    if active_property is None or active_property == "@graph":
        if isinstance(result, dict):
            if not result or "@value" in result or "@list" in result:
                return None
            if set(result) == {"@id"}:
                return None

    return result


def _expand_entries(
    active: Context,
    type_scoped: Context,
    active_property: str | None,
    element: dict,
    result: dict,
    input_type: str | None,
    base_url: str | None,
    *,
    ordered: bool,
) -> None:
    """Steps 13-14 of the Expansion Algorithm (shared by @nest recursion)."""
    nests: list[str] = []
    keys = sorted(element.keys()) if ordered else list(element.keys())
    for key in keys:
        if key == "@context":
            continue
        value = element[key]
        expanded_property = expand_iri(active, key, vocab=True)
        if expanded_property is None or (
            ":" not in expanded_property and not is_keyword(expanded_property)
        ):
            continue

        if is_keyword(expanded_property):
            # 13.4.1
            if active_property == "@reverse":
                raise JsonLdError("invalid reverse property map", key)
            # 13.4.2
            if expanded_property in result and expanded_property not in ("@included", "@type"):
                raise JsonLdError("colliding keywords", expanded_property)

            expanded_value: Any = None
            if expanded_property == "@id":
                if not isinstance(value, str):
                    raise JsonLdError("invalid @id value", repr(value))
                expanded_value = expand_iri(active, value, document_relative=True)
            elif expanded_property == "@type":
                if isinstance(value, str):
                    expanded_value = expand_iri(
                        type_scoped, value, vocab=True, document_relative=True
                    )
                elif isinstance(value, list) and all(isinstance(v, str) for v in value):
                    expanded_value = [
                        expand_iri(type_scoped, v, vocab=True, document_relative=True)
                        for v in value
                    ]
                elif value == {} and active.options.frame_expansion:
                    expanded_value = value
                else:
                    raise JsonLdError("invalid type value", repr(value))
                if "@type" in result:
                    expanded_value = _as_array(result["@type"]) + _as_array(expanded_value)
            elif expanded_property == "@graph":
                expanded_value = _as_array(
                    expand_element(active, "@graph", value, base_url, ordered=ordered)
                )
            elif expanded_property == "@included":
                if active.options.processing_mode == "json-ld-1.0":
                    continue
                expanded_value = expand_element(
                    active, None, value, base_url, ordered=ordered
                )
                # reference wraps nil → [nil] here so non-node input errors
                # (expansion.ex:342 to_list + node? check)
                if not isinstance(expanded_value, list):
                    expanded_value = [expanded_value]
                if not all(_is_node_object(v) for v in expanded_value):
                    raise JsonLdError("invalid @included value", repr(value))
                if "@included" in result:
                    expanded_value = result["@included"] + expanded_value
            elif expanded_property == "@value":
                if input_type == "@json" and active.options.processing_mode != "json-ld-1.0":
                    expanded_value = value
                elif value is None or isinstance(value, (str, int, float, bool)):
                    expanded_value = value
                else:
                    raise JsonLdError("invalid value object value", repr(value))
                if expanded_value is None:
                    result["@value"] = None
                    continue
            elif expanded_property == "@language":
                if not isinstance(value, str):
                    raise JsonLdError("invalid language-tagged string", repr(value))
                if not is_well_formed_language(value):
                    active.options.emit_warning(f"@language not well-formed: {value!r}")
                expanded_value = (
                    value.lower() if active.options.lowercase_language else value
                )
            elif expanded_property == "@direction":
                if active.options.processing_mode == "json-ld-1.0":
                    continue
                if value not in ("ltr", "rtl"):
                    raise JsonLdError("invalid base direction", repr(value))
                expanded_value = value
            elif expanded_property == "@index":
                if not isinstance(value, str):
                    raise JsonLdError("invalid @index value", repr(value))
                expanded_value = value
            elif expanded_property == "@list":
                if active_property is None or active_property == "@graph":
                    continue
                expanded_value = _as_array(
                    expand_element(active, active_property, value, base_url, ordered=ordered)
                )
            elif expanded_property == "@set":
                expanded_value = expand_element(
                    active, active_property, value, base_url, ordered=ordered
                )
            elif expanded_property == "@reverse":
                if not isinstance(value, dict):
                    raise JsonLdError("invalid @reverse value", repr(value))
                expanded_value = expand_element(
                    active, "@reverse", value, base_url, ordered=ordered
                )
                if isinstance(expanded_value, dict):
                    if "@reverse" in expanded_value:
                        for prop, items in expanded_value["@reverse"].items():
                            result.setdefault(prop, []).extend(items)
                    others = {
                        k: v for k, v in expanded_value.items() if k != "@reverse"
                    }
                    if others:
                        reverse_map = result.setdefault("@reverse", {})
                        for prop, items in others.items():
                            for item in items:
                                if _is_value_object(item) or _is_list_object(item):
                                    raise JsonLdError(
                                        "invalid reverse property value", prop
                                    )
                                reverse_map.setdefault(prop, []).append(item)
                continue
            elif expanded_property == "@nest":
                nests.append(key)
                continue
            elif expanded_property == "@annotation":
                continue  # not supported (neither in reference)
            else:
                expanded_value = value  # other keywords pass through? (none)

            # 13.4.16: set unless (null AND @value AND input type not @json)
            # — null values of e.g. @id ARE retained (reference
            # expansion.ex:509-510; expand test #t0122)
            if not (
                expanded_value is None
                and expanded_property == "@value"
                and input_type != "@json"
            ):
                result[expanded_property] = expanded_value
            continue

        td = active.term_definitions.get(key)
        container = td.container_mapping if td is not None else frozenset()

        # 13.6 @json type
        if td is not None and td.type_mapping == "@json":
            expanded_value = {"@value": value, "@type": "@json"}
        # 13.7 language map
        elif "@language" in container and isinstance(value, dict):
            expanded_value = []
            for lang in sorted(value.keys()) if ordered else value.keys():
                lang_values = _as_array(value[lang])
                expanded_lang = expand_iri(active, lang, vocab=True)
                for item in lang_values:
                    if item is None:
                        continue
                    if not isinstance(item, str):
                        raise JsonLdError("invalid language map value", repr(item))
                    v: dict[str, Any] = {"@value": item}
                    if expanded_lang != "@none":
                        if not is_well_formed_language(lang):
                            active.options.emit_warning(
                                f"@language not well-formed: {lang!r}"
                            )
                        v["@language"] = (
                            lang.lower() if active.options.lowercase_language else lang
                        )
                    direction = (
                        td.direction_mapping
                        if td.direction_mapping is not NOT_PRESENT
                        else active.base_direction
                    )
                    if direction is not None:
                        v["@direction"] = direction
                    expanded_value.append(v)
        # 13.8 index/id/type maps
        elif (
            ("@index" in container or "@type" in container or "@id" in container)
            and isinstance(value, dict)
        ):
            expanded_value = []
            index_keys = sorted(value.keys()) if ordered else list(value.keys())
            for index in index_keys:
                index_value = value[index]
                # spec 13.8.3: map context initializes to the PREVIOUS
                # context for @id/@type containers, but is only ever USED
                # (≠ active) when a @type index term carries a scoped
                # context — which is processed AGAINST the previous
                # context (13.8.3.2); every other path resets to active
                # (13.8.3.3, including @type without a scoped context)
                map_context = active
                if ("@id" in container or "@type" in container) and active.previous_context is not None:
                    map_context = active.previous_context
                if "@type" in container:
                    index_td = map_context.term_definitions.get(index)
                    if index_td is not None and index_td.local_context is not NOT_PRESENT:
                        map_context = map_context.process(
                            index_td.local_context, index_td.base_url
                        )
                    else:
                        map_context = active
                else:
                    map_context = active
                expanded_index = expand_iri(active, index, vocab=True)
                index_value = expand_element(
                    map_context,
                    key,
                    _as_array(index_value),
                    base_url,
                    from_map=True,
                    ordered=ordered,
                )
                for item in index_value:
                    # graph wrapping inside index maps
                    if "@graph" in container and not _is_graph_object(item):
                        item = {"@graph": _as_array(item)}
                    if "@index" in container:
                        # guard on the EXPANDED index: an aliased @none key
                        # ({"none": "@none"}) must leave the item untouched,
                        # not inject a bogus index property (ref
                        # expansion.ex:622)
                        if td is not None and td.index_mapping is not None and expanded_index != "@none":
                            # property-valued index
                            index_prop = expand_iri(active, td.index_mapping, vocab=True)
                            re_expanded = expand_value(active, td.index_mapping, index)
                            if not _is_node_object(item):
                                raise JsonLdError("invalid value object", "@index property on non-node")
                            item[index_prop] = [re_expanded] + _as_array(
                                item.get(index_prop)
                            )
                        elif expanded_index != "@none" and "@index" not in item:
                            item["@index"] = index
                    elif "@id" in container:
                        if expanded_index != "@none" and "@id" not in item:
                            item["@id"] = expand_iri(
                                active, index, document_relative=True
                            )
                    elif "@type" in container:
                        if expanded_index != "@none":
                            item["@type"] = [expanded_index] + _as_array(
                                item.get("@type")
                            )
                    expanded_value.append(item)
        else:
            # 13.9
            expanded_value = expand_element(
                active, key, value, base_url, ordered=ordered
            )

        if expanded_value is None:
            continue

        # 13.11 list wrapping
        if "@list" in container and not _is_list_object(expanded_value):
            expanded_value = {"@list": _as_array(expanded_value)}

        # 13.12 graph wrapping
        if "@graph" in container and "@id" not in container and "@index" not in container:
            expanded_value = [
                {"@graph": _as_array(ev)} for ev in _as_array(expanded_value)
            ]

        # 13.13 reverse properties
        if td is not None and td.reverse_property:
            reverse_map = result.setdefault("@reverse", {})
            target = reverse_map.setdefault(expanded_property, [])
            for item in _as_array(expanded_value):
                if _is_value_object(item) or _is_list_object(item):
                    raise JsonLdError("invalid reverse property value", expanded_property)
                target.append(item)
        else:
            result.setdefault(expanded_property, []).extend(_as_array(expanded_value))

    # 14. nests
    for nesting_key in sorted(nests) if ordered else nests:
        # SPEC ISSUE kept from reference (expansion.ex:753-766): apply the
        # nesting key's property-scoped context — unspecified but required
        # to pass #tc037/#tc038.
        nest_td = active.term_definitions.get(nesting_key)
        if nest_td is not None and nest_td.local_context is not NOT_PRESENT:
            nest_context = active.process(
                nest_td.local_context, nest_td.base_url, override_protected=True
            )
        else:
            nest_context = active
        for nested_value in _as_array(element[nesting_key]):
            if not isinstance(nested_value, dict):
                raise JsonLdError("invalid @nest value", repr(nested_value))
            if any(
                expand_iri(nest_context, k, vocab=True) == "@value"
                for k in nested_value
            ):
                raise JsonLdError("invalid @nest value", repr(nested_value))
            _expand_entries(
                nest_context,
                type_scoped,
                active_property,
                nested_value,
                result,
                input_type,
                base_url,
                ordered=ordered,
            )


def expand_value(active: Context, active_property: str, value: Any) -> dict:
    """Value Expansion (§5.2; reference lib/json/ld/expansion.ex:815-856)."""
    td = active.term_definitions.get(active_property)
    type_mapping = td.type_mapping if td is not None else None
    if type_mapping == "@id" and isinstance(value, str):
        return {"@id": expand_iri(active, value, document_relative=True)}
    if type_mapping == "@vocab" and isinstance(value, str):
        return {"@id": expand_iri(active, value, vocab=True, document_relative=True)}
    result: dict[str, Any] = {"@value": value}
    if type_mapping not in (None, "@id", "@vocab", "@none"):
        result["@type"] = type_mapping
    elif isinstance(value, str):
        if td is not None and td.language_mapping is not NOT_PRESENT:
            language = td.language_mapping
        else:
            language = active.default_language
        if td is not None and td.direction_mapping is not NOT_PRESENT:
            direction = td.direction_mapping
        else:
            direction = active.base_direction
        if language is not None:
            result["@language"] = language
        if direction is not None:
            result["@direction"] = direction
    return result
