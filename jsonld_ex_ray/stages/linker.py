"""Entity-linking stage: extracted node identifiers → canonical IRIs.

North-rule addition (not in the reference; SURVEY.md §2.3): a batched
mention-detect + link scorer. The canonical dictionary is broadcast ONCE
via ``ray.put`` and each linker runs as a plain ``map_batches`` task that
builds its index once per worker process (``stages/state.py``) — the
dictionary is never shipped per batch. Linking itself is a vectorized
dictionary lookup with a deterministic normalization-based fallback
scorer.
"""

from __future__ import annotations

import pyarrow as pa

from ..columns import pylist
from .state import worker_state


class EntityLinker:
    """Adds ``subj_canon`` / ``obj_canon`` columns: the canonical IRI when
    the identifier (or its normalized form) is in the dictionary, else the
    original identifier. Literals pass through untouched.
    :func:`link_entities` runs it as a Ray task.
    """

    def __init__(self, alias_to_iri: dict[str, str] | None = None):
        self.mapping = alias_to_iri or {}
        # normalized index for the fallback scorer (lowercase, no trailing /)
        self.norm_index = {self._norm(k): v for k, v in self.mapping.items()}

    @staticmethod
    def _norm(iri: str) -> str:
        return iri.lower().rstrip("/").replace("https://", "http://")

    def _link_one(self, value: str | None) -> str | None:
        if value is None:
            return None
        hit = self.mapping.get(value)
        if hit is not None:
            return hit
        return self.norm_index.get(self._norm(value), value)

    def __call__(self, batch: pa.Table) -> pa.Table:
        subjs = pylist(batch.column("subj"))
        objs = pylist(batch.column("obj"))
        kinds = pylist(batch.column("obj_kind"))
        subj_canon = [self._link_one(s) for s in subjs]
        obj_canon = [
            self._link_one(o) if k == "iri" else o for o, k in zip(objs, kinds)
        ]
        batch = batch.append_column("subj_canon", pa.array(subj_canon, pa.string()))
        batch = batch.append_column("obj_canon", pa.array(obj_canon, pa.string()))
        return batch


def link_entities(dict_ref):
    """``map_batches`` task function for :class:`EntityLinker` over
    ``dict_ref = ray.put(alias_to_iri)``."""

    def build() -> EntityLinker:
        import ray

        return EntityLinker(alias_to_iri=ray.get(dict_ref))

    def link_batch(batch: pa.Table) -> pa.Table:
        return worker_state("entity_linker", dict_ref, build)(batch)

    return link_batch


_NAME_PREDICATE_SUFFIXES = ("/name", "#name", "/label", "#label", "/title")


class MentionLinker:
    """Batched mention-detect + link scorer (the north rule's stateful
    linker stage): detects textual mentions in name-like literal triples
    and scores them against a canonical-name dictionary. Scoring =
    token-set Jaccard over lowercased word sets with an exact-match fast
    path. Returns (doc_id, subj, mention, candidate_iri, link_score) rows;
    :func:`detect_and_link_mentions` runs it as a Ray task.
    """

    def __init__(self, name_to_iri: dict[str, str] | None = None, min_score: float = 0.5):
        mapping = name_to_iri or {}
        self.min_score = min_score
        # index built once: exact lowercase map + token postings
        self.exact = {k.lower(): v for k, v in mapping.items()}
        self.token_sets = [(frozenset(k.lower().split()), k.lower(), v) for k, v in mapping.items()]
        self.postings: dict[str, list[int]] = {}
        for i, (tokens, _, _) in enumerate(self.token_sets):
            for t in tokens:
                self.postings.setdefault(t, []).append(i)

    def _score(self, mention: str) -> tuple[str | None, float]:
        m = mention.lower().strip()
        hit = self.exact.get(m)
        if hit is not None:
            return hit, 1.0
        tokens = frozenset(m.split())
        if not tokens:
            return None, 0.0
        candidates: set[int] = set()
        for t in tokens:
            candidates.update(self.postings.get(t, ()))
        best_iri, best = None, 0.0
        for i in candidates:
            cand_tokens, _, iri = self.token_sets[i]
            inter = len(tokens & cand_tokens)
            score = inter / len(tokens | cand_tokens)
            if score > best:
                best_iri, best = iri, score
        if best >= self.min_score:
            return best_iri, round(best, 6)
        return None, 0.0

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = pylist(batch.column("doc_id"))
        subjs = pylist(batch.column("subj"))
        preds = pylist(batch.column("pred"))
        objs = pylist(batch.column("obj"))
        kinds = pylist(batch.column("obj_kind"))
        out = {"doc_id": [], "subj": [], "mention": [], "candidate_iri": [], "link_score": []}
        for d, s, p, o, k in zip(doc_ids, subjs, preds, objs, kinds):
            if k != "literal" or p is None or not p.endswith(_NAME_PREDICATE_SUFFIXES):
                continue
            iri, score = self._score(o or "")
            if iri is not None:
                out["doc_id"].append(d)
                out["subj"].append(s)
                out["mention"].append(o)
                out["candidate_iri"].append(iri)
                out["link_score"].append(score)
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.string()),
                "subj": pa.array(out["subj"], pa.string()),
                "mention": pa.array(out["mention"], pa.string()),
                "candidate_iri": pa.array(out["candidate_iri"], pa.string()),
                "link_score": pa.array(out["link_score"], pa.float64()),
            }
        )


def link_mentions(dict_ref, min_score: float = 0.5):
    """The :class:`MentionLinker` over ``dict_ref = ray.put(name_to_iri)``
    as a batch function, its index built once per worker process."""

    def build() -> MentionLinker:
        import ray

        return MentionLinker(name_to_iri=ray.get(dict_ref), min_score=min_score)

    def mention_batch(batch: pa.Table) -> pa.Table:
        return worker_state("mention_linker", (dict_ref, min_score), build)(batch)

    return mention_batch


def detect_and_link_mentions(triples_ds, dict_ref, concurrency=None, min_score: float = 0.5):
    """Wire the mention linker over a triple Dataset; ``dict_ref`` is
    ``ray.put(name_to_iri)``. ``concurrency`` is accepted and ignored:
    ``perfbench/workloads.py`` still passes it."""
    return triples_ds.map_batches(
        link_mentions(dict_ref, min_score),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=4096,
    )
