"""The training-data corpus-cleaning pipeline, chained end-to-end —
what a 100-TB pre-training ingest actually runs over the documents
table:

    read(documents) → quality gate → repetition gate (Gopher rules)
      → exact dedup (key-only shuffle + gated loser anti-filter)
      → deterministic split assignment (md5 boundaries)

Every stage is one of the engine's oracled operators, so the WHOLE
composed pipeline is SQL-checkable (see ``corpus_clean`` in
``__ray_entry__.oracle_sql``). The gates fuse into a single streaming
pass, checkpointed once in the object store because exact_dedup reads
it twice (its bounded key shuffle and the anti-filter); splits are
another fused map — no driver collect anywhere. Both drops (exact-dup
losers, near-dup ids) go through the one broadcast-or-bucketed gate in
``ops/joins.py``, so a mostly-duplicate corpus never broadcasts a set
larger than its budget.

Near-dup (MinHash) and decontamination stages compose the same way —
``clean_corpus(..., near_dup=True)`` — but sit behind a flag because
their outputs are rows-only checkable (LSH banding is not
SQL-expressible). ``cut_spans=True`` additionally rewrites every
surviving doc with duplicated 64-char substring runs removed (the Lee
et al. 2022 intervention, itself an oracled operator — see
``doc_dedup_cut``) before splits are assigned; the cut carries every
other column through its one ``doc_id`` shuffle, so the corpus text
moves once and nothing is joined back.
"""

from __future__ import annotations


def clean_corpus(
    ds,
    *,
    min_quality: float = 0.51,
    max_dup_word_frac: float = 0.62,
    max_top_word_frac: float = 0.12,
    near_dup: bool = False,
    cut_spans: bool = False,
    cut_window: int = 64,
    cut_stride: int = 32,
):
    """documents Dataset → cleaned Dataset with a ``split`` column."""
    from ..ops.dedup import cut_duplicate_spans, exact_dedup, minhash_lsh_duplicates
    from ..ops.shuffle import without_reservation
    from ..ops.text import assign_splits, filter_quality, filter_repetition

    # every materialize below builds from this lineage: let its operators
    # run several tasks at once (ops/shuffle.without_reservation)
    ds = filter_quality(without_reservation(ds), min_quality=min_quality)
    ds = filter_repetition(
        ds, max_dup_word_frac=max_dup_word_frac, max_top_word_frac=max_top_word_frac
    )
    # exact_dedup consumes the gated stream twice (its key scan and the
    # loser anti-filter): checkpoint it so the read and gates run once
    ds = exact_dedup(ds.materialize())
    if cut_spans:
        # the cut pass consumes its input twice (the span scan and the
        # doc side of its doc_id shuffle) — checkpoint the survivors so
        # the anti-filter runs once, then rewrite; every survivor column
        # rides the cut's one doc_id shuffle (a carried n_chars still
        # counts the uncut text)
        ds = cut_duplicate_spans(ds.materialize(), window=cut_window, stride=cut_stride)
    if near_dup:
        from ..ops.joins import filter_by_keys

        # the near-dup branch consumes the cleaned stream three times
        # (band rows, candidate-text fetch, final drop filter) —
        # checkpoint it once in the object store or the quality +
        # repetition + exact-dedup chain re-executes per consumer
        ds = ds.materialize()
        ds = filter_by_keys(
            ds, minhash_lsh_duplicates(ds), on="doc_id", keys_on="doc_id",
            anti=True, op="clean_corpus.near_dup",
        )
    return assign_splits(ds)
