"""Text-analysis operators for large-scale training-data pipelines:
language-ID, quality scoring, token counting, document fingerprinting.

All are stateless vectorized ``map_batches`` kernels over the ``documents``
table (``doc_id:int64, text:string, ...``). Regexes/tables are compiled at
module import — once per worker process, zero per-batch setup.
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from .shuffle import bucketed

# BPE-ish tokenizer: word pieces, numbers, punctuation runs (GPT-2-style
# coarse approximation, public pattern family)
_BPE_RE = re.compile(r"[A-Za-z]+|\d+|[^\sA-Za-z\d]+")

_STOPWORDS = frozenset(
    "the a an and or of to in is are was were be been it this that for on with as at by".split()
)

# tiny trigram tables for the n-gram language heuristic (top trigrams of
# common words per language; deterministic, self-contained)
_LANG_TRIGRAMS = {
    "en": {"the", "and", "ing", "ion", "tio", "ent", "for", "her", "ter", "hat"},
    "de": {"der", "die", "und", "ein", "ich", "den", "sch", "che", "gen", "ung"},
    "fr": {"les", "des", "ent", "que", "ons", "ait", "eur", "our", "ion", "ais"},
    "es": {"que", "los", "ent", "ión", "ado", "con", "por", "una", "las", "del"},
}


def token_count_batch(batch: pa.Table) -> pa.Table:
    """doc_id, n_tokens_ws (single-space split — matches the SQL oracle's
    string_split semantics), n_tokens_bpe (regex word pieces). Fully
    vectorized: Arrow substring counts, no per-document Python."""
    text = pc.fill_null(batch.column("text"), "")
    nonempty = pc.greater(pc.utf8_length(text), 0)
    spaces = pc.count_substring(text, " ")
    ws = pc.if_else(nonempty, pc.add(spaces, 1), pa.scalar(0, pa.int64()))
    bpe = pc.count_substring_regex(text, _BPE_RE.pattern)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_tokens_ws": ws.cast(pa.int64()),
            "n_tokens_bpe": bpe.cast(pa.int64()),
        }
    )


_STOPWORD_RE = "(?i)\\b(" + "|".join(sorted(_STOPWORDS)) + ")\\b"


def quality_score_batch(batch: pa.Table) -> pa.Table:
    """Length / punctuation / stopword-ratio heuristics (doc_id + features +
    a composite score in [0,1]). Fully vectorized: Arrow RE2 match counts +
    numpy arithmetic — no per-document Python."""
    import numpy as np

    from .agg import round_half_away

    def _r6(x):
        return round_half_away(x, 6)

    text = pc.fill_null(batch.column("text"), "")
    nc = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.float64)
    nw = pc.count_substring_regex(text, r"\S+").to_numpy(zero_copy_only=False).astype(np.float64)
    nonspace = pc.count_substring_regex(text, r"\S").to_numpy(zero_copy_only=False).astype(np.float64)
    punct = pc.count_substring_regex(text, r"[^\w\s]").to_numpy(zero_copy_only=False).astype(np.float64)
    stops = pc.count_substring_regex(text, _STOPWORD_RE).to_numpy(zero_copy_only=False).astype(np.float64)

    with np.errstate(divide="ignore", invalid="ignore"):
        pr = np.where(nc > 0, punct / nc, 0.0)
        sr = np.where(nw > 0, stops / nw, 0.0)
        mwl = np.where(nw > 0, nonspace / nw, 0.0)
    # composite: in-range length, some stopwords, low punct, sane words
    score = np.ones_like(nc)
    score *= np.where((nc < 32) | (nc > 100_000), 0.3, 1.0)
    score *= np.where(pr > 0.3, 0.4, 1.0)
    score *= np.where((mwl < 2) | (mwl > 14), 0.5, 1.0)
    score *= np.minimum(1.0, 0.5 + sr)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_chars": pa.array(nc.astype(np.int64)),
            "punct_ratio": pa.array(_r6(pr)),
            "stopword_ratio": pa.array(_r6(sr)),
            "mean_word_len": pa.array(_r6(mwl)),
            "quality": pa.array(_r6(score)),
        }
    )


def lang_id_batch(batch: pa.Table) -> pa.Table:
    """Trigram-overlap language heuristic → doc_id, lang_pred, lang_conf.
    Vectorized: one Arrow presence test per table trigram (40 RE2-free
    substring scans across the whole batch) instead of a per-document
    Python set build."""
    import numpy as np

    from .agg import round_half_away

    lower = pc.utf8_lower(pc.fill_null(batch.column("text"), ""))
    langs = list(_LANG_TRIGRAMS)
    hits = np.zeros((batch.num_rows, len(langs)), dtype=np.int64)
    for li, lang in enumerate(langs):
        for tri in _LANG_TRIGRAMS[lang]:
            present = pc.greater(pc.count_substring(lower, tri), 0)
            hits[:, li] += present.to_numpy(zero_copy_only=False)
    best = hits.argmax(axis=1)
    best_hits = hits[np.arange(len(hits)), best]
    lang_arr = np.asarray(langs, dtype=object)
    preds = np.where(best_hits > 0, lang_arr[best], "und")
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "lang_pred": pa.array(preds.tolist(), pa.string()),
            "lang_conf": pa.array(round_half_away(best_hits / 10.0, 6)),
        }
    )


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """doc_id, fp_md5 (content hash — matches SQL md5()), fp_rolling
    (64-bit polynomial rolling hash over words, order-sensitive:
    Σ wh_i · P^(n-1-i) mod 2^64). Fully vectorized: DuckDB's md5 kernel
    plus one whitespace-split / word-hash / segmented-polynomial pass
    over the whole batch — no per-document Python loop."""
    import numpy as np

    from .hashing import _powers, hash_strings, md5_hex

    _P = np.uint64(1099511628211)
    text = pc.fill_null(batch.column("text"), "")
    md5s = md5_hex(text, null_as="")

    # Python str.split() semantics: Arrow's split emits empty tokens at
    # leading/trailing whitespace — drop them, then re-count per doc
    words = pc.utf8_split_whitespace(text)
    flat = pc.list_flatten(words)
    parents = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
    keep = pc.greater(pc.utf8_length(flat), 0)
    keep_np = keep.to_numpy(zero_copy_only=False)
    wh = hash_strings(flat.filter(keep))
    counts = np.bincount(parents[keep_np], minlength=batch.num_rows).astype(np.int64)

    total = int(counts.sum())
    rolls = np.zeros(batch.num_rows, np.uint64)
    if total:
        starts = np.empty(batch.num_rows + 1, np.int64)
        starts[0] = 0
        np.cumsum(counts, out=starts[1:])
        local = np.arange(total, dtype=np.int64) - np.repeat(starts[:-1], counts)
        pos_from_end = np.repeat(counts - 1, counts) - local
        wh *= _powers(int(counts.max()) - 1, _P)[pos_from_end]
        csum = np.empty(total + 1, np.uint64)
        csum[0] = 0
        np.cumsum(wh, out=csum[1:])
        rolls = csum[starts[1:]] - csum[starts[:-1]]
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "fp_md5": md5s,
            "fp_rolling": pa.array(rolls, pa.uint64()),
        }
    )


def assign_splits(ds, id_col: str = "doc_id", boundaries: list[tuple[str, str]] | None = None):
    """Deterministic dataset splitting for training pipelines: split by the
    md5 of the id against hex-lexicographic boundaries — stable across
    runs, machines and retries (never RNG). Default: train <'c0' (75%),
    val <'e0' (12.5%), test otherwise (12.5%)."""
    from .hashing import md5_hex

    boundaries = boundaries or [("c0", "train"), ("e0", "val"), ("￿", "test")]

    fallback = boundaries[-1][1]  # caller boundaries may not cover the
    # full md5 hex range: unmatched ids take the last label instead of
    # silently shortening the column (length-mismatch crash downstream)

    def assign(batch: pa.Table) -> pa.Table:
        h = md5_hex(batch.column(id_col))
        # successive vectorized boundary comparisons, narrowest bound wins
        split = pa.array([fallback] * batch.num_rows, pa.string())
        for bound, name in reversed(boundaries):
            split = pc.if_else(pc.less(h, bound), pa.scalar(name), split)
        return batch.append_column("split", split.combine_chunks() if isinstance(split, pa.ChunkedArray) else split)

    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def hash_sample(ds, id_col: str = "doc_id", fraction: float = 0.1, salt: str = ""):
    """Deterministic corpus subsampling: keep rows whose ``md5(salt ||
    id)`` falls in the first ``fraction`` of the hex space — stable
    across runs, machines and retries (never RNG), so a resumed 100-TB
    job re-selects the identical sample. Different salts give independent
    samples (ablation draws), and the op composes with
    :func:`assign_splits`. Embarrassingly parallel: a pure per-batch
    filter, no shuffle, nothing on the driver. The threshold compare is
    hex-lexicographic on the first 8 digest chars — identical to SQL
    ``substr(md5(...), 1, 8) < '<hex>'``, so it is oracle-checkable."""
    from .hashing import md5_hex

    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if fraction == 1.0:
        return ds
    thr = format(int(fraction * 16**8), "08x")

    def keep(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch.column(id_col), pa.string())
        if salt:
            ids = pc.binary_join_element_wise(pa.scalar(salt), ids, "")
        h = pc.utf8_slice_codeunits(md5_hex(ids), 0, 8)
        return batch.filter(pc.less(h, pa.scalar(thr)))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def stratified_sample(
    ds,
    group_col: str,
    fractions: dict,
    *,
    id_col: str = "doc_id",
    default_fraction: float = 0.0,
    salt: str = "",
):
    """Deterministic per-stratum subsampling: each group keeps the rows
    whose ``md5(salt || id)`` falls in the first ``fractions[group]`` of
    the hex space — the corpus-mixing primitive (e.g. keep 100% of rare
    languages, 5% of English). Same stable-hash contract as
    :func:`hash_sample`: never RNG, identical selection on resume/retry,
    independent draws per salt. Groups absent from ``fractions`` use
    ``default_fraction``. Embarrassingly parallel per-batch filter — the
    fraction table is a tiny closure constant (strata counts are small
    by nature: languages, sources, splits), never a shuffle.

    Oracle-checkable: the per-row threshold compare is hex-lexicographic
    on the first 8 digest chars, identical to SQL ``substr(md5(...),1,8)
    < CASE group WHEN ... END``."""
    from .hashing import md5_hex

    for g, f in fractions.items():
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"fraction for {g!r} must be in [0, 1], got {f}")
    if not 0.0 <= default_fraction <= 1.0:
        raise ValueError(f"default_fraction must be in [0, 1], got {default_fraction}")

    def thr_hex(f: float) -> str:
        # f == 1.0 must keep EVERY row. format(16**8, "08x") is the
        # 9-char "100000000", which compares lexicographically BELOW
        # almost every 8-char digest prefix ('1' < '2'..'f') and would
        # silently keep ~6% of the stratum; "g" sorts above all hex.
        if f >= 1.0:
            return "g"
        return format(int(f * 16**8), "08x")

    groups = sorted(fractions)
    group_arr = pa.array([str(g) for g in groups], pa.string())
    thr_arr = pa.array([thr_hex(fractions[g]) for g in groups], pa.string())
    default_thr = thr_hex(default_fraction)

    def keep(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch.column(id_col), pa.string())
        if salt:
            ids = pc.binary_join_element_wise(pa.scalar(salt), ids, "")
        h = pc.utf8_slice_codeunits(md5_hex(ids), 0, 8)
        gi = pc.index_in(
            pc.cast(batch.column(group_col), pa.string()), value_set=group_arr
        )
        thr = pc.fill_null(pc.take(thr_arr, gi), default_thr)
        return batch.filter(pc.less(h, thr))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def explode_lines(ds, id_col: str = "doc_id", text_col: str = "text"):
    """UNNEST-with-ordinality over newline splits: one output row per
    line, carrying ``(id, line_no, line)`` with 1-based line numbers —
    the flat-map primitive under line-level dedup and per-line quality
    filters, exposed as its own operator. Fully vectorized: one Arrow
    ``split_pattern`` + ``list_flatten`` and a segmented-arange for the
    ordinals; embarrassingly parallel per batch, no shuffle."""
    import numpy as np

    def explode(batch: pa.Table) -> pa.Table:
        # NULL text emits no rows — matching SQL UNNEST(string_split(..))
        # semantics; without the filter the null list length becomes NaN
        # → a negative int64 that crashes np.repeat.
        batch = batch.filter(pc.is_valid(batch.column(text_col)))
        lists = pc.split_pattern(batch.column(text_col), pattern="\n")
        parents = pc.list_parent_indices(lists)
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False).astype(np.int64)
        total = int(lens.sum())
        # segmented 1..len arange: global arange minus each row's start
        starts = np.repeat(np.cumsum(lens) - lens, lens)
        line_no = np.arange(total, dtype=np.int64) - starts + 1
        return pa.table(
            {
                id_col: pc.take(batch.column(id_col), parents),
                "line_no": pa.array(line_no),
                "line": pc.list_flatten(lists),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)


def fuzzy_nearest(
    ds,
    text_col: str,
    candidates: list[str],
    *,
    out_col: str = "best_match",
    dist_col: str = "dist",
):
    """Nearest candidate string by Levenshtein distance (ties → smallest
    candidate) — the entity-canonicalization / label-normalization shape
    (map free-text variants onto a controlled vocabulary). The candidate
    list must be SMALL (a vocabulary, not a corpus — it is captured in
    the task closure and scanned per row); for corpus×corpus fuzzy
    matching use the LSH family in ops/dedup.py instead. Distances come
    from DuckDB's C levenshtein kernel via one cross-join per batch
    (``ops/hashing.py`` connection discipline) — no per-row Python."""
    from .hashing import levenshtein_nearest

    # validate on the driver at call time, not inside a worker task
    if not candidates or any(not isinstance(c, str) for c in candidates):
        raise ValueError("candidates must be a non-empty list of strings")

    def attach(batch: pa.Table) -> pa.Table:
        best, dist = levenshtein_nearest(batch.column(text_col), candidates)
        return batch.append_column(out_col, best).append_column(dist_col, dist)

    return ds.map_batches(attach, batch_format="pyarrow", zero_copy_batch=True)


def filter_quality(ds, min_quality: float = 0.5):
    """Quality-gate a documents Dataset (keeps original columns)."""

    def gate(batch: pa.Table) -> pa.Table:
        q = quality_score_batch(batch)
        return batch.filter(pc.greater_equal(q.column("quality"), pa.scalar(min_quality)))

    return ds.map_batches(gate, batch_format="pyarrow", zero_copy_batch=True)


def repetition_stats_batch(batch: pa.Table) -> pa.Table:
    """Gopher-style repetition signals per document (Rae et al. 2021's
    repetition family, word-granularity): ``n_words``, ``dup_word_frac``
    (1 − distinct/total) and ``top_word_frac`` (most frequent word's
    share). Fully vectorized: one Arrow whitespace tokenize, dictionary
    encode, then a single lexsort over (doc, word-code) gives per-(doc,
    word) run lengths — distinct counts and per-doc max frequency fall
    out of run masks with zero per-document Python. Fractions are
    half-away-rounded to 6 dp to bit-match the DuckDB oracle."""
    import numpy as np

    from .agg import round_half_away

    n = batch.num_rows
    text = pc.fill_null(batch.column("text"), "")
    words = pc.utf8_split_whitespace(text)
    flat = pc.list_flatten(words)
    parents = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
    keep = pc.greater(pc.utf8_length(flat), 0)
    flat = flat.filter(keep)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    par = parents[keep.to_numpy(zero_copy_only=False)]
    codes = flat.dictionary_encode().indices.to_numpy(zero_copy_only=False)

    counts = np.bincount(par, minlength=n).astype(np.int64)
    order = np.lexsort((codes, par))
    pd_, cd_ = par[order], codes[order]
    newrun = np.r_[True, (pd_[1:] != pd_[:-1]) | (cd_[1:] != cd_[:-1])] if len(pd_) else np.empty(0, bool)
    run_len = np.diff(np.r_[np.flatnonzero(newrun), len(pd_)]) if len(pd_) else np.empty(0, np.int64)
    run_doc = pd_[newrun] if len(pd_) else np.empty(0, np.int64)
    distinct = np.bincount(run_doc, minlength=n).astype(np.int64)

    top = np.zeros(n, np.int64)
    if len(run_len):
        # runs are doc-sorted: per-doc max run length via one reduceat
        doc_run_start = np.r_[0, np.cumsum(np.bincount(run_doc, minlength=n))][:-1]
        nonempty = distinct > 0
        top[nonempty] = np.maximum.reduceat(run_len, doc_run_start[nonempty])

    denom = np.maximum(counts, 1).astype(np.float64)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_words": pa.array(counts, pa.int64()),
            "dup_word_frac": pa.array(
                round_half_away((counts - distinct) / denom, 6), pa.float64()
            ),
            "top_word_frac": pa.array(round_half_away(top / denom, 6), pa.float64()),
        }
    )


def filter_repetition(ds, max_dup_word_frac: float = 0.9, max_top_word_frac: float = 0.3):
    """Drop repetitive documents (Gopher-rule style gate); keeps the
    original columns of the survivors."""

    def gate(batch: pa.Table) -> pa.Table:
        s = repetition_stats_batch(batch)
        ok = pc.and_(
            pc.less_equal(s.column("dup_word_frac"), pa.scalar(max_dup_word_frac)),
            pc.less_equal(s.column("top_word_frac"), pa.scalar(max_top_word_frac)),
        )
        return batch.filter(ok)

    return ds.map_batches(gate, batch_format="pyarrow", zero_copy_batch=True)


def ngram_count_batch(batch: pa.Table, n: int, text_col: str = "text") -> pa.Table:
    """Per-batch word n-gram combiner: tokenize (Arrow whitespace split,
    empty tokens dropped), build gram strings by element-wise joining the
    n shifted token arrays (grams never cross a document boundary), then
    one ``pc.value_counts`` — the map-side partial for the global count.
    → Table(gram:string, cnt:int64)."""
    import numpy as np

    text = pc.fill_null(batch.column(text_col), "")
    words = pc.utf8_split_whitespace(text)
    flat = pc.list_flatten(words)
    parents = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
    keep = pc.greater(pc.utf8_length(flat), 0)
    flat = flat.filter(keep)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    par = parents[keep.to_numpy(zero_copy_only=False)]

    m = len(flat) - n + 1
    if m <= 0:
        return pa.table({"gram": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())})
    # a window is a real n-gram iff its first and last token share a doc
    same_doc = par[: m] == par[n - 1 :]
    shifted = [flat.slice(i, m) for i in range(n)]
    grams = pc.binary_join_element_wise(*shifted, " ")
    grams = grams.filter(pa.array(same_doc))
    vc = pc.value_counts(grams)
    return pa.table(
        {
            "gram": vc.field("values"),
            "cnt": vc.field("counts").cast(pa.int64()),
        }
    )


def top_ngrams(ds, n: int = 2, k: int = 20, text_col: str = "text"):
    """Global top-``k`` most frequent word ``n``-grams of the corpus —
    the vocabulary/corpus-statistics pass of a training-data pipeline.

    Ray shape: per-batch value_counts combiner (gram cardinality leaves
    each block already aggregated) → ONE bounded bucket shuffle summing
    per gram (``groupby_agg``) → per-block top-k survivors →
    tiny global sort+limit. Ties broken by gram text ascending, so the
    result is deterministic and oracle-checkable."""
    from .agg import groupby_agg, topk

    parts = ds.map_batches(
        lambda b: ngram_count_batch(b, n, text_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    totals = groupby_agg(parts, ["gram"], [("cnt", "sum", "cnt")])
    return topk(totals, ["cnt", "gram"], [True, False], k)


# email / phone / IPv4 patterns (RE2-safe: no backrefs/lookaround, so the
# Arrow kernel and the DuckDB oracle compile the exact same regex family)
_PII_PATTERNS = [
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\b\d{2,4}[- .]\d{3}[- .]\d{3}[- .]\d{4}\b", "<PHONE>"),
    (r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
]


def redact_pii_batch(batch: pa.Table, cols: list[str]) -> pa.Table:
    """Mask emails, phone-shaped numbers and IPv4s in ``cols`` (other
    columns pass through untouched). One Arrow RE2 pass per pattern per
    column — vectorized, order fixed (email before phone so an address
    containing digits is not half-masked)."""
    out = batch
    for col in cols:
        # an all-null block arrives as type null: cast before fill so the
        # regex kernel always sees a string column
        arr = pc.fill_null(pc.cast(out.column(col), pa.string()), "")
        for pat, repl in _PII_PATTERNS:
            arr = pc.replace_substring_regex(arr, pat, repl)
        out = out.set_column(out.schema.get_field_index(col), col, arr)
    return out


def redact_pii(ds, cols: list[str]):
    """PII-redaction stage over any Dataset (see redact_pii_batch)."""
    return ds.map_batches(
        lambda b: redact_pii_batch(b, cols), batch_format="pyarrow", zero_copy_batch=True
    )


def _doc_term_tf(batch: pa.Table, text_col: str):
    """Distinct (row, term) runs with tf = run_len / row_word_count — the
    shared pass-2 kernel of both TF-IDF variants (dictionary-encode +
    lexsort run-length, zero per-doc Python). Returns
    ``(run_doc_idx int64[], run_terms object[], tf float64[])``."""
    import numpy as np

    n = batch.num_rows
    text = pc.fill_null(batch.column(text_col), "")
    words = pc.utf8_split_whitespace(text)
    flat = pc.list_flatten(words)
    parents = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
    keep = pc.greater(pc.utf8_length(flat), 0)
    flat = flat.filter(keep)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    par = parents[keep.to_numpy(zero_copy_only=False)]
    codes = flat.dictionary_encode()
    ci = codes.indices.to_numpy(zero_copy_only=False)
    n_words = np.bincount(par, minlength=n).astype(np.float64)

    order = np.lexsort((ci, par))
    pd_, cd_ = par[order], ci[order]
    if len(pd_):
        newrun = np.r_[True, (pd_[1:] != pd_[:-1]) | (cd_[1:] != cd_[:-1])]
        starts = np.flatnonzero(newrun)
        run_len = np.diff(np.r_[starts, len(pd_)]).astype(np.float64)
        run_doc = pd_[newrun].astype(np.int64)
        run_code = cd_[newrun]
    else:
        run_len = np.zeros(0)
        run_doc = np.zeros(0, np.int64)
        run_code = np.zeros(0, np.int64)
    dict_terms = np.asarray(codes.dictionary.to_pylist(), dtype=object)
    run_terms = dict_terms[run_code] if len(run_code) else np.zeros(0, object)
    tf = run_len / n_words[run_doc] if len(run_doc) else np.zeros(0)
    return run_doc, run_terms, tf


def doc_top_tfidf(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Per-document top TF-IDF term: the classic two-pass corpus job.

    Pass 1 builds the document-frequency table — per-batch DISTINCT
    (term) sets per doc (combiner) → ``groupby_agg`` over terms
    (ONE bounded shuffle) — plus the corpus doc count from the same pass.
    The variant is then picked by the df table's size, through the one
    broadcast-or-bucketed gate (``ops/joins.broadcast_side``):

    - within its budget (natural-language corpora): the vocabulary is
      broadcast once via ``ray.put`` (sorted terms + df, a few MB) and
      pass 2 streams documents once — tf·idf = (count/n_words)·ln(N/df),
      per-doc argmax with lexicographic-term tie-break.
    - above it (open vocabularies: code, multilingual, synthetic ids):
      no driver/object-store vocab object is ever built — per-(doc,
      term, tf) run rows take a bucketed equi-join against the df table
      (``hash_join_bucketed`` on the term), then one bounded shuffle on
      hash(doc) selects each document's argmax. Two bounded shuffles of
      ~(distinct doc-term pair) rows, corpus text never shuffles.

    Both variants produce identical rows (same kernel, same tie-break).

    → Dataset(doc_id, top_term, tfidf) over docs with ≥1 word.
    """
    import numpy as np
    import ray

    from .agg import groupby_agg, round_half_away
    from .joins import broadcast_side

    def distinct_terms(batch: pa.Table) -> pa.Table:
        import numpy as np

        text = pc.fill_null(batch.column(text_col), "")
        words = pc.utf8_split_whitespace(text)
        flat = pc.list_flatten(words)
        parents = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
        keep = pc.greater(pc.utf8_length(flat), 0)
        flat = flat.filter(keep)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        par = parents[keep.to_numpy(zero_copy_only=False)]
        codes = flat.dictionary_encode()
        ci = codes.indices.to_numpy(zero_copy_only=False)
        pairs = par.astype(np.uint64) * np.uint64(len(codes.dictionary) + 1) + ci.astype(np.uint64)
        uniq = np.unique(pairs)
        term_idx = (uniq % np.uint64(len(codes.dictionary) + 1)).astype(np.int64)
        terms = codes.dictionary.take(pa.array(term_idx))
        vc = pc.value_counts(terms)
        out = pa.table(
            {"term": vc.field("values"), "df": vc.field("counts").cast(pa.int64())}
        )
        # ride the doc count through the same shuffle as a sentinel term
        # (empty string never survives whitespace tokenization)
        return pa.concat_tables(
            [out, pa.table({"term": pa.array([""]), "df": pa.array([batch.num_rows], pa.int64())})]
        )

    parts = ds.map_batches(
        distinct_terms, batch_format="pyarrow", zero_copy_batch=True
    )
    df_ds = groupby_agg(
        parts, ["term"], [("df", "sum", "df")]
    ).materialize()
    vocab = broadcast_side("doc_top_tfidf", df_ds)
    if vocab is None:
        return _tfidf_bucketed(
            ds, df_ds, text_col=text_col, id_col=id_col
        )
    if vocab.num_rows == 0:
        vocab = pa.table({"term": pa.array([], pa.string()), "df": pa.array([], pa.int64())})
    terms = vocab.column("term").to_pylist()
    dfs = np.asarray(vocab.column("df").to_pylist(), dtype=np.float64)
    n_docs = 0.0
    order = np.argsort(np.asarray(terms, dtype=object))
    terms_sorted = np.asarray(terms, dtype=object)[order]
    dfs_sorted = dfs[order]
    if len(terms_sorted) and terms_sorted[0] == "":
        n_docs = float(dfs_sorted[0])
        terms_sorted, dfs_sorted = terms_sorted[1:], dfs_sorted[1:]
    # broadcast as OBJECT arrays: .astype(str) builds a fixed-width <U
    # matrix padded to the longest term, so one 4096-char token would
    # multiply the whole vocabulary broadcast by its length
    ref = ray.put((terms_sorted, dfs_sorted, n_docs))

    def score(batch: pa.Table) -> pa.Table:
        import numpy as np

        tsort, dsort, nd = ray.get(ref)
        run_doc, run_terms, tf = _doc_term_tf(batch, text_col)
        # map each run's term to its global df via the broadcast vocab
        pos = np.searchsorted(tsort, run_terms) if len(run_terms) else np.zeros(0, np.int64)
        pos = np.clip(pos, 0, max(len(tsort) - 1, 0))
        if len(run_terms) and len(tsort):
            # loud on vocabulary misses (a nondeterministic upstream would
            # otherwise borrow a NEIGHBOR term's df and score plausibly
            # wrong tfidf values)
            if not (tsort[pos] == run_terms).all():
                missing = run_terms[tsort[pos] != run_terms][:3]
                raise ValueError(
                    f"terms missing from the pass-1 vocabulary: {missing!r} — "
                    "is the upstream pipeline nondeterministic between passes?"
                )
        run_df = dsort[pos] if len(tsort) else np.ones(len(run_terms))
        s = tf * np.log(nd / run_df)

        # per-doc argmax with lexicographic tie-break: sort runs by
        # (doc, -score, term) and take the first run of each doc
        if len(s):
            o3 = np.lexsort((run_terms, -s, run_doc))
            first = np.r_[True, run_doc[o3][1:] != run_doc[o3][:-1]]
            sel = o3[first]
            out_doc_idx = run_doc[sel]
            out_terms = run_terms[sel]
            out_scores = round_half_away(s[sel], 6)
        else:
            out_doc_idx = np.zeros(0, np.int64)
            out_terms = np.zeros(0, object)
            out_scores = np.zeros(0)
        return pa.table(
            {
                "doc_id": batch.column(id_col).take(pa.array(out_doc_idx, pa.int64())),
                "top_term": pa.array(list(out_terms), pa.string()),
                "tfidf": pa.array(out_scores, pa.float64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def _tfidf_bucketed(ds, df_ds, *, text_col: str, id_col: str):
    """Open-vocabulary TF-IDF: the df table NEVER lands on the driver or
    in a single broadcast object. Per-(row, term, tf) run rows take a
    bucketed LEFT join against the df Dataset on hash(term) — left, not
    inner, so a term missing from the pass-1 vocabulary raises the same
    loud ValueError as the broadcast variant instead of silently
    dropping the run — then one bucketed shuffle (ops/shuffle.py) on a
    per-physical-row tag selects each row's argmax (duplicate ``id_col``
    values emit one output row per input row, exactly like the broadcast
    variant).
    Identical output to the broadcast variant (same kernel, same raw-
    score ranking with lexicographic-term tie-break, same rounding)."""
    import numpy as np
    import ray

    from .agg import round_half_away
    from .joins import hash_join_bucketed

    # corpus doc count rides pass 1 as the "" sentinel term (empty string
    # never survives whitespace tokenization) — pull it with a streaming
    # vectorized filter over the materialized df table, no driver vocab
    def sentinel_only(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(pc.fill_null(batch.column("term"), ""), ""))

    sent = [
        t
        for t in ray.get(
            df_ds.map_batches(
                sentinel_only, batch_format="pyarrow", zero_copy_batch=True
            ).materialize().to_arrow_refs()  # one run: a lazy plan runs again for its schema
        )
        if t.num_rows
    ]
    n_docs = float(pa.concat_tables(sent).column("df")[0].as_py()) if sent else 0.0

    sch = ds.schema()  # ray.data Schema wrapper: parallel names/types lists
    id_type = dict(zip(sch.names, sch.types))[id_col]

    def emit_runs(batch: pa.Table) -> pa.Table:
        import os

        run_doc, run_terms, tf = _doc_term_tf(batch, text_col)
        # __rid: a PHYSICAL-ROW tag (random 64-bit batch tag + row index)
        # so the downstream argmax groups per input row, not per id value
        # — duplicate ids must emit one output row each, like the
        # broadcast variant. Internal only; never in the output.
        tag = np.frombuffer(os.urandom(8), np.uint64)[0]
        rid = tag + run_doc.astype(np.uint64)
        return pa.table(
            {
                id_col: batch.column(id_col).take(pa.array(run_doc, pa.int64())),
                "__rid": pa.array(rid, pa.uint64()),
                "term": pa.array(list(run_terms), pa.string()),
                "tf": pa.array(tf, pa.float64()),
            }
        )

    runs = ds.select_columns([id_col, text_col]).map_batches(
        emit_runs, batch_format="pyarrow", zero_copy_batch=True
    )
    joined = hash_join_bucketed(
        runs,
        df_ds,
        left_on="term",
        right_on="term",
        right_cols=["df"],
        join_type="left",
        left_schema=pa.schema(
            [
                pa.field(id_col, id_type),
                pa.field("__rid", pa.uint64()),
                pa.field("term", pa.string()),
                pa.field("tf", pa.float64()),
            ]
        ),
        right_schema=pa.schema(
            [pa.field("term", pa.string()), pa.field("df", pa.int64())]
        ),
    )

    def score_rows(batch: pa.Table) -> pa.Table:
        dfc = batch.column("df")
        if dfc.null_count:  # left join: null df = term absent from pass 1
            missing = batch.filter(pc.is_null(dfc)).column("term").to_pylist()[:3]
            raise ValueError(
                f"terms missing from the pass-1 vocabulary: {missing!r} — "
                "is the upstream pipeline nondeterministic between passes?"
            )
        tf = batch.column("tf").to_numpy(zero_copy_only=False)
        dfv = dfc.to_numpy(zero_copy_only=False).astype(np.float64)
        s = tf * np.log(n_docs / dfv)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "__rid": batch.column("__rid"),
                "term": batch.column("term"),
                "__s": pa.array(s, pa.float64()),
            }
        )

    def pick_top(group: pa.Table) -> pa.Table:
        import polars as pl

        top = (
            pl.from_arrow(group)
            .sort(["__rid", "__s", "term"], descending=[False, True, False])
            .unique(subset=["__rid"], keep="first", maintain_order=True)
        ).to_arrow()
        scores = round_half_away(
            top.column("__s").to_numpy(zero_copy_only=False).astype(np.float64), 6
        )
        return pa.table(
            {
                "doc_id": top.column(id_col),
                "top_term": top.column("term").cast(pa.string()),
                "tfidf": pa.array(scores, pa.float64()),
            }
        )

    scored = joined.map_batches(score_rows, batch_format="pyarrow", zero_copy_batch=True)
    return bucketed(scored, ["__rid"], pick_top)


def chunk_documents(
    ds,
    size: int,
    stride: int,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_chunks: int = 10_000,
):
    """Split documents into fixed-size overlapping character windows —
    the chunk-for-embedding transform. chunk i covers characters
    ``[i·stride, i·stride + size)``; a document emits chunks until one
    starts at-or-past its end (every doc emits chunk 0, even when empty).

    Fully vectorized despite per-row lengths: one loop over the CHUNK
    INDEX (bounded by the longest doc in the batch), each iteration a
    single arrow ``utf8_slice_codeunits`` + filter over the whole batch —
    no per-document Python. Stays a streaming map (no shuffle); the
    fan-out is size-bounded per batch. ``max_chunks`` bounds the fan-out
    of a pathological document — exceeding it RAISES (no silent
    truncation): raise the limit or pre-filter giants. → Dataset(id,
    chunk_id, chunk_text, n_chunk_chars)."""
    if stride <= 0 or size <= 0:
        raise ValueError("size and stride must be positive")

    def chunk(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col)
        text = pc.cast(batch.column(text_col), pa.string())
        nchars = pc.utf8_length(text)
        out_parts = []
        i = 0
        max_len = pc.max(nchars).as_py() or 0
        if max_len > max_chunks * stride:
            raise ValueError(
                f"document of {max_len} chars exceeds max_chunks={max_chunks} "
                f"at stride={stride}; raise max_chunks or pre-filter giants "
                "(refusing to truncate silently)"
            )
        while i * stride < max(max_len, 1) and i < max_chunks:
            start = i * stride
            # docs still emitting at this index: start < n_chars (chunk 0
            # always emits so empty docs keep one row)
            alive = pc.greater(nchars, start) if i else pa.array([True] * len(text))
            sliced = pc.utf8_slice_codeunits(text, start=start, stop=start + size)
            part = pa.table(
                {
                    id_col: ids,
                    "chunk_id": pa.nulls(len(text), pa.int64()).fill_null(i),
                    "chunk_text": sliced,
                    "n_chunk_chars": pc.cast(pc.utf8_length(sliced), pa.int64()),
                }
            ).filter(alive)
            out_parts.append(part)
            i += 1
        return pa.concat_tables(out_parts)

    return ds.map_batches(chunk, batch_format="pyarrow", zero_copy_batch=True)


_CTRL_RE = r"[\x00-\x08\x0B\x0C\x0E-\x1F\x7F]"


def normalize_text(ds, *, text_col: str = "text", out_col: str = "text_norm"):
    """Canonical text normalization for training corpora: Unicode NFC →
    control-character strip → whitespace-run collapse → trim → lowercase.
    One streaming ``map_batches``, no shuffle. NFC itself: pure-ASCII
    rows (the overwhelming majority of a code/web corpus) skip it — NFC
    is the identity there — and only the non-ASCII minority pays a
    Python ``unicodedata`` pass, because this pyarrow build's
    ``utf8_normalize`` DECOMPOSES regardless of the requested form
    (verified: form="NFC" emits e+U+0301 for U+00E9 on pyarrow 16.1).
    Everything else is arrow RE2/utf8proc kernels. Idempotent."""
    import unicodedata

    def norm(batch: pa.Table) -> pa.Table:
        t = pc.cast(batch.column(text_col), pa.string()).combine_chunks()
        mask = pc.fill_null(pc.match_substring_regex(t, r"[^\x00-\x7F]"), False)
        if pc.any(mask).as_py():
            # only the flagged rows cross into Python; the ASCII majority
            # stays in arrow (replace_with_mask scatters the fixed rows)
            flagged = t.filter(mask)
            fixed = pa.array(
                [
                    unicodedata.normalize("NFC", v) if v is not None else None
                    for v in flagged.to_pylist()
                ],
                pa.string(),
            )
            t = pc.replace_with_mask(t, mask, fixed)
        t = pc.replace_substring_regex(t, pattern=_CTRL_RE, replacement="")
        t = pc.replace_substring_regex(t, pattern=r"\s+", replacement=" ")
        t = pc.utf8_trim_whitespace(t)
        t = pc.utf8_lower(t)
        return batch.append_column(out_col, t).append_column(
            "n_chars_norm", pc.cast(pc.utf8_length(t), pa.int64())
        )

    return ds.map_batches(norm, batch_format="pyarrow", zero_copy_batch=True)


def weighted_hash_sample(
    ds,
    k: int,
    *,
    weight_col: str,
    id_col: str = "doc_id",
    salt: str = "",
    key_col: str | None = None,
):
    """Deterministic weighted sampling WITHOUT replacement (Efraimidis–
    Spirakis A-ES): each row gets selection key ``ln(u) / w`` with ``u =
    (first 32 md5 bits of salt||id + 0.5) / 2^32``; the k LARGEST keys
    are exactly a weighted sample without replacement. Like
    :func:`hash_sample`, the uniform comes from a hash, never RNG — the
    same rows are selected on every run/retry/resume, and different
    salts give independent draws.

    Ray shape: per-batch key kernel (vectorized md5 via DuckDB's C
    kernel + one numpy log) → per-block top-k prefilter → tiny global
    selection (ops/agg.topk) — the corpus never shuffles and the driver
    never sees more than k × n_blocks candidate rows.

    Rows with null, zero or negative weight are excluded (SQL ``WHERE
    w > 0``). Ties (astronomically unlikely across distinct md5s) break
    by ``id_col`` ascending. Oracle-checkable: the key equals SQL
    ``ln((CAST('0x' || substr(md5(salt || id), 1, 8) AS BIGINT) + 0.5)
    / 4294967296.0) / w`` — both sides compute the identical float64
    ops, so the selection is bit-stable.

    → Dataset of the selected rows (input columns, plus the key as
    ``key_col`` if given)."""
    from jsonld_ex_ray.ops.agg import topk

    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    kc = key_col or "__wkey"
    keyed_ds = ds.map_batches(
        _make_aes_keyer(weight_col, id_col, salt, kc),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    out = topk(keyed_ds, [kc, id_col], [True, False], k)
    if key_col is None:
        out = out.drop_columns(["__wkey"])
    return out


def _make_aes_keyer(weight_col: str, id_col: str, salt: str, kc: str):
    """Per-batch Efraimidis–Spirakis key kernel shared by the global and
    per-group weighted samplers: filters to w > 0 with a valid id, then
    appends ``kc`` = ln(u)/w with the hash-derived uniform described in
    :func:`weighted_hash_sample`."""
    import numpy as np

    from .hashing import hex8_to_u32, md5_hex

    def keyed(batch: pa.Table) -> pa.Table:
        w = pc.cast(batch.column(weight_col), pa.float64())
        keep = pc.fill_null(pc.greater(w, 0.0), False)
        ids_ok = pc.is_valid(batch.column(id_col))
        keep = pc.and_(keep, ids_ok)
        batch = batch.filter(keep)
        if batch.num_rows == 0:
            return batch.append_column(kc, pa.array([], pa.float64()))
        ids = pc.cast(batch.column(id_col), pa.string())
        if salt:
            ids = pc.binary_join_element_wise(pa.scalar(salt), ids, "")
        u32 = hex8_to_u32(pc.utf8_slice_codeunits(md5_hex(ids), 0, 8))
        u = (u32.astype(np.float64) + 0.5) / 4294967296.0
        wv = pc.cast(batch.column(weight_col), pa.float64()).to_numpy(zero_copy_only=False)
        key = np.log(u) / wv
        return batch.append_column(kc, pa.array(key, pa.float64()))

    return keyed


def weighted_sample_per_group(
    ds,
    group_col: str,
    n: int,
    *,
    weight_col: str,
    id_col: str = "doc_id",
    salt: str = "",
):
    """Deterministic per-stratum WEIGHTED sampling without replacement:
    within each ``group_col`` value, keep the ``n`` rows with the
    LARGEST Efraimidis–Spirakis keys ``ln(u)/w`` (hash-derived uniform —
    see :func:`weighted_hash_sample`) — e.g. "200 docs per language,
    drawn proportional to length". Stable across runs/retries/resumes;
    different salts give independent draws; rows with null/<=0 weight
    are excluded.

    Ray shape (same selection machinery as ops/agg.sample_per_group):
    per-batch key kernel → map-side per-group top-n combiner → one
    bucketed shuffle on the group (ops/shuffle.py) with a vectorized
    multi-group final selection per bucket.

    Oracle-checkable: selection equals SQL ``row_number() OVER
    (PARTITION BY group ORDER BY ln(u)/w DESC, id) <= n``.

    → Dataset of the selected rows (input columns only)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    kc = "__wk"

    def local_topn(batch: pa.Table) -> pa.Table:
        from jsonld_ex_ray.ops.agg import segmented_head

        return segmented_head(
            batch, group_col, [(kc, "descending"), (id_col, "ascending")], n
        )

    def final_topn(group: pa.Table) -> pa.Table:
        return local_topn(group).drop_columns([kc])

    pre = ds.map_batches(
        _make_aes_keyer(weight_col, id_col, salt, kc),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).map_batches(local_topn, batch_format="pyarrow", zero_copy_batch=True)
    return bucketed(pre, [group_col], final_topn)


def _split_single_space(batch: pa.Table, text_col: str):
    """Single-space tokenize with SQL ``string_split(coalesce(text,''),
    ' ')`` parity: empty tokens KEPT (consecutive/trailing spaces), empty
    or null text → one '' token. Returns (flat tokens, parent row index,
    per-row token count)."""
    text = pc.fill_null(batch.column(text_col), "")
    words = pc.split_pattern(text, " ")
    flat = pc.list_flatten(words)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    parents = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
    lengths = pc.list_value_length(words).to_numpy(zero_copy_only=False)
    return flat, parents, lengths


def unigram_logprob(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    alpha: float = 0.5,
    round_to: int = 6,
    unique_ids: bool = False,
):
    """Corpus-trained unigram language-model score per document — the
    exactly-computable core of CCNet/Gopher-style perplexity filtering
    (docs whose tokens are improbable under the corpus's own unigram
    distribution score low; no external LM, so the whole thing is
    SQL-oracle-checkable). For every doc: ``n_tokens`` and
    ``mean_logprob = avg(ln((c_tok + α) / (N + α·V)))`` over its tokens,
    where ``c_tok`` is the token's corpus count, ``N`` total tokens, and
    ``V`` vocabulary size (additive smoothing — every token was seen in
    pass 1, but the smoothed form keeps the score well-defined for
    filtered re-use on held-out shards).

    Ray shape: pass 1 builds global token counts — per-block
    ``value_counts`` partials (duplicate tokens never leave the block)
    into ONE bounded ``hash(token)`` shuffle; ``N`` and ``V`` close to
    two driver scalars. Pass 2 takes the one broadcast-or-bucketed gate
    (``ops/joins.broadcast_side``) on the token-count table: within its
    budget the (token → logprob) table broadcasts and a second streaming pass
    scores each batch with one ``get_indexer`` + segmented ``bincount``
    into per-row (Σ lp, n) partials — only ONE tiny row per input doc
    rides the closing ``hash(doc_id)`` combine, never the corpus; above
    the budget the corpus explodes to (doc, token) rows joined back to
    the DISTRIBUTED logprob table via ``hash_join_bucketed`` and
    re-aggregated per doc — driver state stays O(1) at any vocabulary
    size. BOTH paths GROUP BY ``id_col`` (duplicate ids merge exactly
    like the SQL oracle). ``unique_ids=True`` is the caller's promise
    that ``id_col`` is unique: the broadcast path then emits per-row
    results directly — identical output, no closing hash(doc_id)
    combine, fully streaming (the original zero-shuffle fast path). Tokenization is single-space
    split with SQL ``string_split`` parity (empty tokens kept, null
    text = ''), so the oracle is exact; the mean is rounded on both
    sides because parallel summation reorders float additions.
    → Dataset(id_col, n_tokens:int64, mean_logprob:float64)."""
    import math

    import numpy as np
    import pandas as pd

    from .agg import groupby_agg, round_half_away
    from .joins import broadcast_side, hash_join_bucketed

    def count_part(batch: pa.Table) -> pa.Table:
        flat, _, _ = _split_single_space(batch, text_col)
        vc = pc.value_counts(flat)
        return pa.table(
            {"tok": vc.field("values"), "c": vc.field("counts").cast(pa.int64())}
        )

    counts_ds = groupby_agg(
        ds.map_batches(count_part, batch_format="pyarrow", zero_copy_batch=True),
        ["tok"],
        [("c", "sum", "c")],
    ).materialize()
    n_total = float(counts_ds.sum("c") or 0.0)
    vocab = counts_ds.count()
    denom = n_total + alpha * vocab
    oov_lp = math.log(alpha / denom) if denom > 0 else 0.0

    def finish_mean(batch: pa.Table) -> pa.Table:
        # both gate paths converge here: per-doc (Σ lp, n) → rounded mean,
        # so the output is GROUP BY doc_id regardless of path (duplicate
        # ids — e.g. md5(text) ids over byte-identical docs — merge
        # identically to the SQL oracle; review-found divergence fix)
        s = batch.column("__s").to_numpy(zero_copy_only=False)
        n = batch.column("n_tokens").to_numpy(zero_copy_only=False)
        mean = s / np.maximum(n, 1)  # n ≥ 1 always ('' splits to one token)
        return batch.drop_columns(["__s"]).append_column(
            "mean_logprob", pa.array(round_half_away(mean, round_to))
        )

    st = broadcast_side("unigram_logprob", counts_ds)
    if st is not None:
        st = st.to_pandas()
        toks = pd.Index(st["tok"])
        lp = np.log((st["c"].to_numpy(np.float64) + alpha) / denom)

        def score(batch: pa.Table) -> pa.Table:
            flat, parents, lengths = _split_single_space(batch, text_col)
            idx = toks.get_indexer(flat.to_numpy(zero_copy_only=False))
            seen = idx >= 0
            vals = lp[np.where(seen, idx, 0)] if len(lp) else np.zeros(len(idx))
            tok_lp = np.where(seen, vals, oov_lp)
            sums = np.bincount(parents, weights=tok_lp, minlength=batch.num_rows)
            return pa.table(
                {
                    id_col: batch.column(id_col),
                    "__n": pa.array(lengths.astype(np.int64)),
                    "__s": pa.array(sums),
                }
            )

        partials = ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
        if unique_ids:
            # caller-promised unique ids: one input row IS one doc —
            # finish per row, no closing shuffle, fully streaming
            return partials.map_batches(
                lambda b: finish_mean(b.rename_columns([id_col, "n_tokens", "__s"])),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        per_doc = groupby_agg(
            partials,
            [id_col],
            [("__n", "sum", "n_tokens"), ("__s", "sum", "__s")],
        )
        return per_doc.map_batches(
            finish_mean, batch_format="pyarrow", zero_copy_batch=True
        )

    def add_lp(batch: pa.Table) -> pa.Table:
        c = pc.cast(batch.column("c"), pa.float64()).to_numpy(zero_copy_only=False)
        return batch.select(["tok"]).append_column(
            "__lp", pa.array(np.log((c + alpha) / denom))
        )

    lp_ds = counts_ds.map_batches(add_lp, batch_format="pyarrow", zero_copy_batch=True)

    def explode(batch: pa.Table) -> pa.Table:
        flat, parents, _ = _split_single_space(batch, text_col)
        ids = batch.column(id_col).take(pa.array(parents))
        return pa.table({id_col: ids, "tok": flat})

    exploded = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    joined = hash_join_bucketed(
        exploded,
        lp_ds,
        left_on="tok",
        right_on="tok",
        right_cols=["__lp"],
        join_type="left",
    )

    def fill_oov(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("__lp"),
            "__lp",
            pc.fill_null(batch.column("__lp"), oov_lp),
        )

    scored = joined.map_batches(fill_oov, batch_format="pyarrow", zero_copy_batch=True)
    return groupby_agg(
        scored,
        [id_col],
        [("tok", "count", "n_tokens"), ("__lp", "mean", "mean_logprob", round_to)],
    )
