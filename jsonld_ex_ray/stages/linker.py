"""Entity-linking stage: extracted node identifiers → canonical IRIs.

North-rule addition (not in the reference; SURVEY.md §2.3): a batched
mention-detect + link scorer. The canonical dictionary is broadcast via
``ray.put`` once per dictionary content (``stages/state.shared_ref``)
and each linker runs as a plain ``map_batches`` task that builds its
index once per worker process and dictionary content
(``stages/state.worker_state``) — the dictionary is never shipped per
batch, nor indexed again per call. Entity linking is a dictionary lookup
with a deterministic normalization-based fallback; mention linking
counts token overlaps over per-token numpy postings.
"""

from __future__ import annotations

import numpy as np
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
    token-set Jaccard over lowercased word sets, with an exact-match fast
    path: the overlaps of a mention with every name sharing one of its
    tokens are counted over per-token numpy postings, and Jaccard =
    overlap / (|mention| + |name| − overlap). Of the names with the best
    score, the first in dictionary order wins. Returns (doc_id, subj,
    mention, candidate_iri, link_score) rows;
    :func:`detect_and_link_mentions` runs it as a Ray task.
    """

    def __init__(self, name_to_iri: dict[str, str] | None = None, min_score: float = 0.5):
        mapping = name_to_iri or {}
        self.min_score = min_score
        # index built once: exact lowercase map, each name's token count
        # and IRI in dictionary order, and per token the ascending ids of
        # the names holding it
        self.exact = {k.lower(): v for k, v in mapping.items()}
        self.iris = list(mapping.values())
        sizes, postings = [], {}
        for i, name in enumerate(mapping):
            tokens = set(name.lower().split())
            sizes.append(len(tokens))
            for t in tokens:
                postings.setdefault(t, []).append(i)
        self.sizes = np.array(sizes, np.int64)
        self.postings = {t: np.array(ids, np.int64) for t, ids in postings.items()}

    def _score(self, mention: str) -> tuple[str | None, float]:
        m = mention.lower().strip()
        hit = self.exact.get(m)
        if hit is not None:
            return hit, 1.0
        tokens = set(m.split())
        if not tokens:
            return None, 0.0
        lists = [p for t in tokens if (p := self.postings.get(t)) is not None]
        best_iri, best = None, 0.0
        if lists:
            ids, overlap = np.unique(np.concatenate(lists), return_counts=True)
            jaccard = overlap / (len(tokens) + self.sizes[ids] - overlap)
            i = int(jaccard.argmax())  # the first maximum: ids ascend
            best_iri, best = self.iris[ids[i]], float(jaccard[i])
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
    ``ray.put(name_to_iri)``. It runs over each block as it comes: fused
    into ``build_triples``' emit task, a bundle size would put many row
    groups in one task. ``concurrency`` is accepted and ignored:
    ``perfbench/workloads.py`` still passes it."""
    return triples_ds.map_batches(
        link_mentions(dict_ref, min_score),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )
