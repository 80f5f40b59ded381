"""URDNA2015 / RDFC-1.0 blank-node canonicalization (W3C RDF Dataset
Canonicalization, public spec).

The north rule calls for "URDNA2015-style blank-node canonicalization
executed as a groupby(document) shuffle": this module provides the real
algorithm — hash-first-degree quads, canonical issuer, hash-n-degree with
related-hash grouping and permutation search — over the engine's term-tuple
quads. Per-document graphs are small, so the (worst-case exponential)
n-degree step is bounded in practice; a permutation cap guards pathological
inputs (falls back to deterministic-order labels).

The reference has no equivalent (its GenServer issuer is insertion-ordered,
lib/json/ld/node_identifier_map.ex); this exceeds it.
"""

from __future__ import annotations

import hashlib
from itertools import permutations

from .nquads import term_to_nquads


def _sha256(s: str) -> str:
    return hashlib.sha256(s.encode("utf-8")).hexdigest()


class IdentifierIssuer:
    def __init__(self, prefix: str = "c14n"):
        self.prefix = prefix
        self.counter = 0
        self.issued: dict[str, str] = {}

    def issue(self, identifier: str) -> str:
        if identifier in self.issued:
            return self.issued[identifier]
        label = f"{self.prefix}{self.counter}"
        self.counter += 1
        self.issued[identifier] = label
        return label

    def has(self, identifier: str) -> bool:
        return identifier in self.issued

    def clone(self) -> "IdentifierIssuer":
        c = IdentifierIssuer(self.prefix)
        c.counter = self.counter
        c.issued = dict(self.issued)
        return c


def _serialize_quad_for_hash(parts: list, bnode: str) -> str:
    """First-degree serialization of one quad whose non-blank terms are
    already N-Quads text (``parts`` keeps blank nodes as term tuples): the
    reference bnode → ``_:a``, every other bnode → ``_:z`` (spec §4.6
    step 3.1)."""
    return " ".join(
        p if type(p) is str else ("_:a" if p[1] == bnode else "_:z") for p in parts
    ) + " ."


def canonicalize(quads: list[tuple], max_permutations: int = 40320) -> dict[str, str]:
    """→ mapping original bnode label → canonical ``c14n<n>`` label.
    ``quads`` is read as a set (an RDF dataset): a repeated quad counts
    once, so the labels do not depend on how often a document was
    ingested."""
    bnode_quads: dict[str, list[tuple]] = {}
    serials: dict[str, list[list]] = {}  # parallel to bnode_quads
    for q in dict.fromkeys(quads):
        parts = None
        for term in q:
            if term is not None and term[0] == "bnode":
                if parts is None:  # each non-blank term serialized once
                    parts = [t if t[0] == "bnode" else term_to_nquads(t) for t in q if t is not None]
                bnode_quads.setdefault(term[1], []).append(q)
                serials.setdefault(term[1], []).append(parts)
    if not bnode_quads:
        return {}

    # 1. hash first-degree quads
    h1: dict[str, str] = {}
    for b, ps in serials.items():
        lines = sorted(_serialize_quad_for_hash(parts, b) for parts in ps)
        h1[b] = _sha256("\n".join(lines))

    canonical = IdentifierIssuer()
    by_hash: dict[str, list[str]] = {}
    for b, h in h1.items():
        by_hash.setdefault(h, []).append(b)

    # 2. unique first-degree hashes get canonical ids in hash order
    nonunique: list[tuple[str, list[str]]] = []
    for h in sorted(by_hash):
        group = by_hash[h]
        if len(group) == 1:
            canonical.issue(group[0])
        else:
            nonunique.append((h, sorted(group)))

    # 3. hash-n-degree for shared hashes
    def hash_related(related: str, quad: tuple, issuer: IdentifierIssuer, position: str) -> str:
        ident = (
            "_:" + canonical.issued[related]
            if canonical.has(related)
            else ("_:" + issuer.issued[related] if issuer.has(related) else h1[related])
        )
        return _sha256(position + ("<" + quad[1][1] + ">" if position != "g" else "") + ident)

    def hash_n_degree(identifier: str, issuer: IdentifierIssuer) -> tuple[str, IdentifierIssuer]:
        related_map: dict[str, list[str]] = {}
        for quad in bnode_quads[identifier]:
            for pos, term in zip("spog", quad):
                if pos == "p" or term is None or term[0] != "bnode" or term[1] == identifier:
                    continue
                rh = hash_related(term[1], quad, issuer, pos)
                related_map.setdefault(rh, []).append(term[1])
        data = ""
        for rh in sorted(related_map):
            data += rh
            chosen_path = ""
            chosen_issuer = None
            group = related_map[rh]
            if _fact(len(set(group))) > max_permutations:
                # pathological: deterministic fallback keeps the run alive.
                # Order by (first-degree hash, sorted position) — the hash
                # is label-invariant, so the fallback stays stable under
                # input relabeling wherever first-degree hashes differ
                for rel in sorted(set(group), key=lambda b: (h1[b], b)):
                    issuer.issue(rel)
                continue
            for perm in permutations(sorted(set(group))):
                issuer_copy = issuer.clone()
                path = ""
                recursion: list[str] = []
                skip = False
                for related in perm:
                    if canonical.has(related):
                        path += "_:" + canonical.issued[related]
                    else:
                        if not issuer_copy.has(related):
                            recursion.append(related)
                        path += "_:" + issuer_copy.issue(related)
                    if chosen_path and len(path) >= len(chosen_path) and path > chosen_path:
                        skip = True
                        break
                if skip:
                    continue
                for related in recursion:
                    rhash, issuer_copy2 = hash_n_degree(related, issuer_copy)
                    path += "_:" + issuer_copy.issue(related)
                    path += f"<{rhash}>"
                    issuer_copy = issuer_copy2
                    if chosen_path and len(path) >= len(chosen_path) and path > chosen_path:
                        skip = True
                        break
                if skip:
                    continue
                if not chosen_path or path < chosen_path:
                    chosen_path = path
                    chosen_issuer = issuer_copy
            data += chosen_path
            if chosen_issuer is not None:
                issuer = chosen_issuer
        return _sha256(data), issuer

    for _, group in nonunique:
        results = []
        for b in group:
            if canonical.has(b):
                continue
            temp = IdentifierIssuer("b")
            temp.issue(b)
            h, iss = hash_n_degree(b, temp)
            results.append((h, iss))
        for h, iss in sorted(results, key=lambda r: r[0]):
            for existing in iss.issued:
                canonical.issue(existing)

    return dict(canonical.issued)


def _fact(n: int) -> int:
    r = 1
    for i in range(2, n + 1):
        r *= i
    return r


def canonical_quads(quads: list[tuple]) -> list[tuple]:
    """Quads with bnodes relabeled to their canonical c14n labels."""
    mapping = canonicalize(quads)

    def m(term):
        if term is not None and term[0] == "bnode":
            return ("bnode", mapping.get(term[1], term[1]))
        return term

    # sort key: a default-graph quad carries graph=None, a named-graph
    # quad a ("iri"|"bnode", label) tuple — mixed shapes reach the graph
    # slot whenever (s,p,o) tie (same triple asserted in both graphs) and
    # None<tuple comparison raises TypeError; () orders before any tuple
    return sorted(
        {(m(s), m(p), m(o), m(g)) for s, p, o, g in quads},
        key=lambda q: (q[0], q[1], q[2], q[3] if q[3] is not None else ()),
    )
