"""Text-analysis operators over a (doc_id, text) Dataset — the
training-data-pipeline layer: token counting, inverted term stats, quality
scoring, language ID, fingerprinting, exact content dedup. All per-batch
bodies are Arrow/numpy-vectorized; language ID and fingerprints hold their
tables/permutations as module constants (compiled once per process)."""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data.aggregate import Sum

from ..text.tokenize import doc_term_counts, tokenize_column
from .relational import arrow_refs, exchange


# ---------------------------------------------------------------------------
# token counting
# ---------------------------------------------------------------------------

def token_count(ds, id_col: str = "doc_id", text_col: str = "text"):
    def f(batch: pa.Table) -> pa.Table:
        _, doc_idx, _, tf = doc_term_counts(batch[text_col])
        n = np.zeros(batch.num_rows, dtype=np.int64)
        if doc_idx.size:
            np.add.at(n, doc_idx, tf)
        return pa.table({id_col: batch[id_col], "n_tokens": pa.array(n, pa.int64())})

    return ds.map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# inverted term statistics (the flagship's df/cf as a standalone operator)
# ---------------------------------------------------------------------------

def term_stats(ds, text_col: str = "text"):
    """(term, df, cf) via per-batch partials -> groupby(term) sum (A6)."""

    def partial(batch: pa.Table) -> pa.Table:
        vocab, _, codes, tf = doc_term_counts(batch[text_col])
        if len(vocab) == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64()),
                             "cf": pa.array([], pa.int64())})
        df = np.bincount(codes, minlength=len(vocab)).astype(np.int64)
        cf = np.zeros(len(vocab), dtype=np.int64)
        np.add.at(cf, codes, tf)
        return pa.table({"term": vocab, "df": pa.array(df, pa.int64()), "cf": pa.array(cf, pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby("term").aggregate(Sum("df", alias_name="df"), Sum("cf", alias_name="cf"))


# ---------------------------------------------------------------------------
# quality scoring (alpha ratio; matches the SQL oracle exactly: one division)
# ---------------------------------------------------------------------------

def quality_score(ds, id_col: str = "doc_id", text_col: str = "text"):
    def f(batch: pa.Table) -> pa.Table:
        alpha = pc.utf8_length(pc.replace_substring_regex(batch[text_col], pattern="[^a-zA-Z]", replacement=""))
        total = pc.utf8_length(batch[text_col])
        a = alpha.to_numpy(zero_copy_only=False).astype(np.float64)
        t = np.maximum(total.to_numpy(zero_copy_only=False).astype(np.float64), 1.0)
        return pa.table({id_col: batch[id_col], "alpha_ratio": pa.array(a / t, pa.float64())})

    return ds.map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# language ID (n-gram/function-word heuristic — deterministic, no model dep)
# ---------------------------------------------------------------------------

_LANG_MARKERS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "with", "that", "for"},
    "de": {"der", "die", "das", "und", "ist", "mit", "ein", "nicht", "von", "zu"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "des", "que", "pour"},
}


_LANG_MARKER_ARRAYS = {
    lang: pa.array(sorted(marks)) for lang, marks in _LANG_MARKERS.items()
}


def lang_id(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Best marker-hit-rate language; 'und' when nothing matches.
    Ties broken by language code order (deterministic). Fully vectorized:
    one ``pc.is_in`` per language over the flat token array + bincount."""

    def f(batch: pa.Table) -> pa.Table:
        flat, doc_idx = tokenize_column(batch[text_col])
        langs = sorted(_LANG_MARKERS)
        n = batch.num_rows
        mat = np.zeros((len(langs), n), dtype=np.int64)
        if len(flat):
            for li, lang in enumerate(langs):
                m = pc.is_in(flat, value_set=_LANG_MARKER_ARRAYS[lang]).to_numpy(
                    zero_copy_only=False
                )
                if m.any():
                    mat[li] = np.bincount(doc_idx[m], minlength=n)
        best = np.argmax(mat, axis=0)
        score = mat[best, np.arange(n)]
        pred = np.where(score > 0, np.array(langs, dtype=object)[best], "und")
        return pa.table({id_col: batch[id_col], "lang_pred": pa.array(pred.tolist(), pa.string())})

    return ds.map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# document fingerprinting (winnowing over rolling token-hash k-grams)
# ---------------------------------------------------------------------------

def _token_hashes(tokens: list[str]) -> np.ndarray:
    from .dedup import _hash64_strings

    return _hash64_strings(tokens) & np.uint64((1 << 63) - 1)


def fingerprint_doc(tokens: list[str], k: int = 4, window: int = 8,
                    _h: np.ndarray | None = None) -> list[int]:
    """Winnowing (Schleimer et al., SIGMOD 2003): k-gram rolling hashes, min
    per sliding window, dedup consecutive. Deterministic. ``_h`` lets the
    batch path pass precomputed token hashes (same values as
    ``_token_hashes``)."""
    h = _token_hashes(tokens) if _h is None else _h
    if h.size < k:
        return []
    # k-gram hash = blake-combined via multiply-xor rolling (vectorized)
    kg = h[: h.size - k + 1].copy()
    for i in range(1, k):
        kg = (kg * np.uint64(1099511628211)) ^ h[i : h.size - k + 1 + i]
    if kg.size <= window:
        return [int(kg.min()) & ((1 << 63) - 1)]
    sw = np.lib.stride_tricks.sliding_window_view(kg, window)
    mins = sw.min(axis=1)
    keep = np.r_[True, mins[1:] != mins[:-1]]  # dedup consecutive (raw values)
    return (mins[keep] & np.uint64((1 << 63) - 1)).astype(np.int64).tolist()


def fingerprints(ds, id_col: str = "doc_id", text_col: str = "text", k: int = 4, window: int = 8):
    def f(batch: pa.Table) -> pa.Table:
        from .dedup import _token_hashes_flat

        flat, doc_idx = tokenize_column(batch[text_col])
        # one dictionary-encoded hashing pass for the whole batch (the
        # Python blake2b loop runs per UNIQUE token); per-doc slices reuse it
        hflat = _token_hashes_flat(flat) & np.uint64((1 << 63) - 1)
        bounds = np.searchsorted(doc_idx, np.arange(batch.num_rows + 1))
        fps = [fingerprint_doc((), k, window, _h=hflat[bounds[i]:bounds[i + 1]])
               for i in range(batch.num_rows)]
        return pa.table(
            {
                id_col: batch[id_col],
                "fingerprints": pa.array(fps, pa.list_(pa.int64())),
                "n_fingerprints": pa.array([len(x) for x in fps], pa.int64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# exact content dedup (D3 on text)
# ---------------------------------------------------------------------------

def _md5_pairs(col) -> np.ndarray:
    """md5 of each string row as an (n, 2) uint64 array, hashed straight
    off the Arrow utf-8 buffers (no per-row str/encode round trip). Nulls
    get the (0, 0) sentinel — its own group, distinct from md5(b'') like
    SQL GROUP BY md5(text) (2^-128 collision odds, same class as md5
    collisions the scheme already accepts)."""
    import pyarrow as pa

    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    out = np.empty((len(col), 2), dtype=np.uint64)
    pos = 0
    for ch in chunks:
        n = len(ch)
        if n == 0:
            continue
        off_dt = np.int64 if pa.types.is_large_string(ch.type) else np.int32
        offs = np.frombuffer(ch.buffers()[1], off_dt)[ch.offset:ch.offset + n + 1]
        mv = memoryview(ch.buffers()[2]) if ch.buffers()[2] is not None else memoryview(b"")
        digests = bytearray(16 * n)
        dv = memoryview(digests)
        for i in range(n):
            dv[16 * i:16 * (i + 1)] = hashlib.md5(mv[offs[i]:offs[i + 1]]).digest()
        pairs = np.frombuffer(digests, np.uint64).reshape(n, 2)
        if ch.null_count:
            pairs[np.asarray(ch.is_null()), :] = 0
        out[pos:pos + n] = pairs
        pos += n
    return out


def _digest_partial(tbl: pa.Table, id_col: str, text_col: str):
    """Per-batch exact-dedup partial shared by exact_text_dedup and
    exact_dedup_incremental: md5 pairs straight off the Arrow buffers,
    one lexsort, per-distinct-digest (h1, h2, min_id, n_copies) arrays.
    Both callers MUST keep identical run-boundary/tie-break math — that
    is why there is exactly one copy of it."""
    ids = tbl[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    h = _md5_pairs(tbl[text_col])
    order = np.lexsort((ids, h[:, 1], h[:, 0]))
    h1, h2, si = h[order, 0], h[order, 1], ids[order]
    starts = np.flatnonzero(
        np.r_[True, (h1[1:] != h1[:-1]) | (h2[1:] != h2[:-1])])
    return (h1[starts], h2[starts], si[starts],
            np.diff(np.r_[starts, h1.size]))


def exact_text_dedup(ds, id_col: str = "doc_id", text_col: str = "text", n_buckets: int = 64):
    """Group by content hash; keep min id per distinct text. Returns
    (keep_id, n_copies). Arrow/numpy end-to-end: md5 runs on zero-copy
    buffer slices, the local min/count partial is a lexsort+reduceat, and
    only (h1, h2, keep_id, n_copies) rows — 32 B/distinct-text — cross the
    exchange. The hash+partial pass runs fused inside the exchange's
    partition tasks."""
    import pyarrow as pa

    def pre(tbl: pa.Table) -> pa.Table:
        h1, h2, keep, n = _digest_partial(tbl, id_col, text_col)
        return pa.table({
            "__h1": pa.array(h1.view(np.int64), pa.int64()),
            "__h2": pa.array(h2.view(np.int64), pa.int64()),
            "keep_id": pa.array(keep, pa.int64()),  # ids sorted in-group
            "n_copies": pa.array(n, pa.int64()),
            "__bucket": pa.array((h1 % np.uint64(n_buckets)).astype(np.int32)),
        })

    def combine(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:  # _apply_empty probes fn with a 0-row table
            return pa.table({"keep_id": pa.array([], pa.int64()),
                             "n_copies": pa.array([], pa.int64())})
        h1 = tbl["__h1"].to_numpy(zero_copy_only=False)
        h2 = tbl["__h2"].to_numpy(zero_copy_only=False)
        keep = tbl["keep_id"].to_numpy(zero_copy_only=False)
        n = tbl["n_copies"].to_numpy(zero_copy_only=False)
        order = np.lexsort((keep, h2, h1))
        h1s, h2s = h1[order], h2[order]
        starts = np.flatnonzero(
            np.r_[True, (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1])])
        return pa.table({
            "keep_id": pa.array(keep[order][starts], pa.int64()),
            "n_copies": pa.array(np.add.reduceat(n[order], starts), pa.int64()),
        })

    return exchange(ds, combine, by="__bucket", pre=pre, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# unicode normalization (training-corpus canonicalization)
# ---------------------------------------------------------------------------


def _normalize_one(s: str) -> str:
    """NFC -> strip combining marks (accents) -> casefold to lower; the
    canonicalization applied before hashing/dedup so visually-identical
    texts (composed vs decomposed accents, case) collapse."""
    import unicodedata

    nfc = unicodedata.normalize("NFC", s)
    stripped = "".join(c for c in unicodedata.normalize("NFD", nfc)
                       if not unicodedata.combining(c))
    return stripped.lower()


def normalize_text(ds, *, id_col: str = "doc_id", text_col: str = "text",
                   out_col: str = "norm_text"):
    """Vectorized-per-unique unicode normalization: dictionary-encode the
    column so the Python normalization runs once per DISTINCT value, then
    scatter back by index (the same vocabulary-sized-cost pattern as the
    token hashers and smart-alpha keys). Nulls stay null."""
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if len(col) == 0:
            return pa.table({id_col: batch[id_col],
                             out_col: pa.array([], pa.string())})
        dic = pc.dictionary_encode(col)
        vals = [None if s is None else _normalize_one(s)
                for s in dic.dictionary.to_pylist()]
        if not vals:  # ALL-null batch: empty dictionary, nothing to gather
            return pa.table({id_col: batch[id_col],
                             out_col: pa.nulls(len(col), pa.string())})
        nulls = dic.indices.is_null().to_numpy(zero_copy_only=False)
        idx = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        idx[nulls] = 0  # null indices surface as INT64_MIN — clamp, then mask
        out = np.asarray(vals, dtype=object)[idx]
        out[nulls] = None
        return pa.table({id_col: batch[id_col], out_col: pa.array(out, pa.string())})

    return ds.map_batches(f, batch_format="pyarrow")


# (pattern, replacement) pairs applied IN ORDER. RE2 syntax so the Arrow
# kernels and the DuckDB oracle (both RE2-backed) match byte-for-byte.
PII_PATTERNS: list[tuple[str, str]] = [
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    # separators between groups are REQUIRED and the match must end on a
    # word boundary: an unanchored all-optional-separator phone pattern
    # would swallow any 11+-digit run (order ids, card numbers)
    (r"(?:\+?\d{1,2}[-. ])?\(?\d{3}\)?[-. ]\d{3}[-. ]\d{4}\b", "<PHONE>"),
    (r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
]


def redact_pii(ds, *, id_col: str = "doc_id", text_col: str = "text",
               out_col: str = "clean_text", count_col: str = "n_pii"):
    """Training-corpus PII scrubbing: email / phone / IPv4 patterns are
    replaced with typed placeholder tokens, fully vectorized
    (pc.replace_substring_regex per pattern — compiled RE2 over the whole
    column, no per-row Python). ``count_col`` counts each pattern against
    the RUNNING text (post prior replacements), so the total equals the
    number of replacements actually performed — overlapping patterns
    (a phone-shaped digit run inside an email) are not double-counted.
    The SQL oracle computes the identical staged counts with
    regexp_extract_all. Map-side only; nulls stay null."""

    def f(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = None
        out = col
        for pat, repl in PII_PATTERNS:
            c = pc.count_substring_regex(out, pattern=pat).cast(pa.int64())
            n = c if n is None else pc.add(n, c)
            out = pc.replace_substring_regex(out, pattern=pat, replacement=repl)
        return pa.table({id_col: batch[id_col], out_col: out, count_col: n})

    return ds.map_batches(f, batch_format="pyarrow")


def repetition_ratio(ds, *, id_col: str = "doc_id", text_col: str = "text",
                     out_col: str = "rep_ratio"):
    """Gopher-style repetition quality signal: share of a document's
    bigrams taken by its MOST FREQUENT bigram (1.0 = pure boilerplate
    loop, ~1/n_bigrams = no repetition; docs with < 2 tokens score 0).
    Fully vectorized and EXACT (no hashing): tokens dictionary-encode per
    batch, bigram identity = the (code, code) pair, per-(doc, bigram)
    run counts via one lexsort. Fixed-point rounded to 6 dp with the
    identical floor(x*1e6 + 0.5) formula the SQL oracle uses. Map-side
    only — nothing shuffles."""

    def f(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        rep = np.zeros(n, dtype=np.float64)
        flat, doc_idx = tokenize_column(batch[text_col])
        if len(flat):
            col = flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat
            codes = pc.dictionary_encode(col).indices \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            same = doc_idx[1:] == doc_idx[:-1]
            bg_doc = doc_idx[1:][same]
            if bg_doc.size:
                a, b = codes[:-1][same], codes[1:][same]
                order = np.lexsort((b, a, bg_doc))
                d_s, a_s, b_s = bg_doc[order], a[order], b[order]
                new = np.r_[True, (d_s[1:] != d_s[:-1])
                            | (a_s[1:] != a_s[:-1]) | (b_s[1:] != b_s[:-1])]
                run_counts = np.bincount(np.cumsum(new) - 1)
                run_doc = d_s[new]
                top = np.zeros(n, dtype=np.int64)
                np.maximum.at(top, run_doc, run_counts)
                tot = np.bincount(bg_doc, minlength=n)
                nz = tot > 0
                rep[nz] = np.floor(top[nz] / tot[nz] * 1e6 + 0.5) / 1e6
        return pa.table({id_col: batch[id_col],
                         out_col: pa.array(rep, pa.float64())})

    return ds.map_batches(f, batch_format="pyarrow")


def chunk_tokens(ds, *, id_col: str = "doc_id", text_col: str = "text",
                 size: int = 32, stride: int = 24):
    """Fixed token-window chunking — the context-window preprocessing step
    of an LLM training pipeline: each document becomes overlapping chunks
    of ``size`` tokens starting every ``stride`` tokens (last chunk may be
    shorter; empty docs emit nothing). Output rows are
    (id, chunk_idx, n_tokens, chunk_text) with chunk_text the space-join
    of the frozen-spec tokens, so the DuckDB list_slice oracle matches
    byte-for-byte. Fully vectorized (one gather + one ListArray +
    one binary_join per batch) and map-side only — nothing shuffles; at
    corpus scale the op is embarrassingly parallel and output-bounded."""
    if size < 1 or stride < 1:
        raise ValueError("size and stride must be >= 1")

    def f(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        flat, doc_idx = tokenize_column(batch[text_col])
        empty = pa.table({id_col: pa.array([], batch[id_col].type),
                          "chunk_idx": pa.array([], pa.int64()),
                          "n_tokens": pa.array([], pa.int64()),
                          "chunk_text": pa.array([], pa.string())})
        if len(flat) == 0:
            return empty
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        cnt = np.bincount(doc_idx, minlength=n)          # tokens per row
        flat_start = np.r_[0, np.cumsum(cnt)[:-1]]       # row's first token
        n_chunks = -(-cnt // stride)                     # ceil; 0 stays 0
        total = int(n_chunks.sum())
        if total == 0:
            return empty
        row_of_chunk = np.repeat(np.arange(n), n_chunks)
        chunk_idx = (np.arange(total)
                     - np.repeat(np.r_[0, np.cumsum(n_chunks)[:-1]], n_chunks))
        start = chunk_idx * stride
        clen = np.minimum(size, cnt[row_of_chunk] - start)
        # gather indices: for chunk c, flat_start[row] + start + [0, clen)
        offsets = np.r_[0, np.cumsum(clen)]
        ar = np.arange(offsets[-1], dtype=np.int64)
        ar -= np.repeat(offsets[:-1], clen)              # within-chunk pos
        idx = np.repeat(flat_start[row_of_chunk] + start, clen) + ar
        values = flat.take(pa.array(idx, pa.int64()))
        lists = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), values)
        return pa.table({
            id_col: batch[id_col].take(pa.array(row_of_chunk, pa.int64())),
            "chunk_idx": pa.array(chunk_idx, pa.int64()),
            "n_tokens": pa.array(clen, pa.int64()),
            "chunk_text": pc.binary_join(lists, " ")})

    return ds.map_batches(f, batch_format="pyarrow")


def top_tfidf_terms(ds, *, id_col: str = "doc_id", text_col: str = "text",
                    k: int = 3, n_docs: int | None = None,
                    n_buckets: int = 64):
    """Per-document keyword extraction: the k terms with the highest
    ``tf * ln(n_docs / df)`` (ties broken by term asc), tfidf fixed-point
    rounded to 6 dp on output. Two exchanges, both skinny:

    1. distinct (doc, term, tf) rows hash-partition BY TERM; each bucket
       owns its terms completely, so df is just the per-term group size —
       the corpus-wide statistic costs no extra pass or broadcast, and
       scoring happens in the same reducer.
    2. scored rows re-partition BY DOC with a per-batch partial top-k
       (k rows per doc per batch cross the wire), per-bucket final top-k.

    ``n_docs`` defaults to ``ds.count()`` (metadata-cheap on a raw
    parquet read; pass it explicitly when the input plan is transformed)."""
    if n_docs is None:
        n_docs = ds.count()
    n_f = float(n_docs)

    def tf_rows(batch: pa.Table) -> pa.Table:
        vocab, doc_idx, codes, tf = doc_term_counts(batch[text_col])
        return pa.table({
            id_col: batch[id_col].take(pa.array(doc_idx, pa.int64())),
            "term": (vocab.take(pa.array(codes, pa.int64()))
                     if len(vocab) else pa.array([], pa.string())),
            "tf": pa.array(tf, pa.int64())})

    def score_bucket(tbl: pa.Table) -> pa.Table:
        # rows are distinct (doc, term): df = the term's group size here
        codes = pc.dictionary_encode(tbl["term"].combine_chunks()) \
            .indices.to_numpy(zero_copy_only=False).astype(np.int64)
        df = np.bincount(codes)
        tf = tbl["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        tfidf = tf * np.log(n_f / df[codes])
        return pa.table({id_col: tbl[id_col], "term": tbl["term"],
                         "tfidf": pa.array(tfidf, pa.float64())})

    def topk(df_: pd.DataFrame) -> pd.DataFrame:
        out = (df_.sort_values([id_col, "tfidf", "term"],
                               ascending=[True, False, True])
               .groupby(id_col, sort=False).head(k))
        return out.reset_index(drop=True)

    scored = exchange(ds.map_batches(tf_rows, batch_format="pyarrow"),
                      score_bucket, keys=["term"], n_buckets=n_buckets,
                      batch_format="pyarrow")
    ranked = exchange(scored, topk, keys=[id_col], n_buckets=n_buckets,
                      local=topk)

    def round6(t: pa.Table) -> pa.Table:
        v = t["tfidf"].to_numpy(zero_copy_only=False)
        return t.set_column(t.schema.get_field_index("tfidf"), "tfidf",
                            pa.array(np.floor(v * 1e6 + 0.5) / 1e6))

    return ranked.map_batches(round6, batch_format="pyarrow")


def unigram_logprob_score(ds, *, id_col: str = "doc_id",
                          text_col: str = "text", n_buckets: int = 64,
                          total_tokens: int | None = None,
                          out_col: str = "lm_score"):
    """CCNet-style language-model quality score with the LM reduced to
    order 1 so it is exactly SQL-oracle-able: per-token cross-entropy of
    each document under the corpus's OWN unigram MLE,
    ``score = -sum_t tf_t * ln(cnt_t / T) / len``  (high = improbable
    /noisy text — the public CCNet "perplexity filtering" signal).

    Distributed shape (nothing corpus-sized broadcast or drivered):
    1. map-side distinct (doc, term, tf) rows (Arrow dictionary kernels);
    2. ONE hash exchange BY TERM: a bucket owns each of its terms
       completely, so the corpus-wide count ``cnt_t`` is just the term
       group's tf sum — no global vocab table, no second corpus pass;
       the reducer emits per-(doc, bucket) partials (sum tf*ln cnt,
       sum tf) — one skinny row per doc per bucket;
    3. a doc-keyed combiner-tree aggregate sums the partials; the final
       map uses the algebra ``-sum tf*ln(cnt/T)/L = ln T - (sum tf*ln
       cnt)/L`` so the scalar T enters only at the end.
    ``total_tokens`` (T) is summed from the per-doc aggregate itself when
    not given (the per-doc table is materialized once — skinny rows).
    Output floats are fixed-point rounded to 6 dp."""
    from ray.data.aggregate import Sum

    def tf_rows(batch: pa.Table) -> pa.Table:
        vocab, doc_idx, codes, tf = doc_term_counts(batch[text_col])
        return pa.table({
            id_col: batch[id_col].take(pa.array(doc_idx, pa.int64())),
            "term": (vocab.take(pa.array(codes, pa.int64()))
                     if len(vocab) else pa.array([], pa.string())),
            "tf": pa.array(tf, pa.int64())})

    def bucket_partials(tbl: pa.Table) -> pa.Table:
        # rows are distinct (doc, term): cnt_t = the term's tf-group sum
        codes = pc.dictionary_encode(tbl["term"].combine_chunks()) \
            .indices.to_numpy(zero_copy_only=False).astype(np.int64)
        tf = tbl["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        cnt = np.bincount(codes, weights=tf)
        contrib = tf * np.log(cnt[codes])
        docs = tbl[id_col].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(docs, return_inverse=True)
        return pa.table({
            id_col: pa.array(uniq, tbl.schema.field(id_col).type),
            "s": pa.array(np.bincount(inv, weights=contrib), pa.float64()),
            "L": pa.array(np.bincount(inv, weights=tf).astype(np.int64),
                          pa.int64())})

    partials = exchange(ds.map_batches(tf_rows, batch_format="pyarrow"),
                        bucket_partials, keys=["term"], n_buckets=n_buckets,
                        batch_format="pyarrow")

    def sum_bucket(tbl: pa.Table) -> pa.Table:
        docs = tbl[id_col].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(docs, return_inverse=True)
        return pa.table({
            id_col: pa.array(uniq, tbl.schema.field(id_col).type),
            "s": pa.array(np.bincount(
                inv, weights=tbl["s"].to_numpy(zero_copy_only=False))),
            "L": pa.array(np.bincount(
                inv, weights=tbl["L"].to_numpy(zero_copy_only=False))
                .astype(np.int64), pa.int64())})

    # second keyed exchange instead of a Dataset groupby-aggregate: the
    # int-key zero-copy bucket path + bincount reducer measured 14x
    # faster than the sort-based native Aggregate on ~10M partial rows
    # (46.3s -> 3.3s at 200k 60-token docs, scripts/probe_r5c.py at commit 553a96e)
    per_doc = exchange(partials, sum_bucket, keys=[id_col],
                       n_buckets=n_buckets, batch_format="pyarrow")
    if total_tokens is None:
        per_doc = per_doc.materialize()  # skinny: one row per doc
        total_tokens = per_doc.sum("L")
    ln_t = float(np.log(float(total_tokens)))

    def finish(t: pa.Table) -> pa.Table:
        s = t["s"].to_numpy(zero_copy_only=False)
        ln = t["L"].to_numpy(zero_copy_only=False).astype(np.float64)
        v = ln_t - s / ln
        return pa.table({id_col: t[id_col],
                         out_col: pa.array(np.floor(v * 1e6 + 0.5) / 1e6)})

    return per_doc.map_batches(finish, batch_format="pyarrow")


_FT_TOTAL_SENTINEL = "\x00total"  # tokens are [a-z0-9]+ — cannot collide


def frequent_terms(ds, *, text_col: str = "text", k: int = 20,
                   capacity: int = 4096) -> pd.DataFrame:
    """EXACT global top-k terms by total frequency via the classic
    two-pass heavy-hitter pipeline — never shuffling the full vocabulary
    (the 100-TB trade: two streaming passes beat one vocab-sized
    all-to-all when the vocabulary is huge and the head is what matters).

    Pass 1 (candidate generation, Misra-Gries threshold form): each batch
    keeps only terms with local count * capacity > batch_tokens. Any term
    with GLOBAL count * capacity > N must pass this in at least one batch
    (contrapositive: summing count_b * capacity <= n_b over batches bounds
    the total by N/capacity), so the candidate union is a superset of
    every sufficiently-frequent term. The DISTINCT union is bounded by
    capacity x batches rows (zipf-practically ~capacity) — the only thing
    that ever reaches the driver, re-broadcast sorted for pass 2.

    Pass 2 recounts ONLY candidate terms exactly (map-side partials +
    a candidate-sized groupby) and ranks top-k (count desc, term asc).
    The answer is provably exact iff the k-th count * capacity > N; this
    is CHECKED at runtime and raises with the capacity to use — an
    under-provisioned sketch can never silently return an approximate
    'exact' answer. N rides along as a sentinel-term partial, so the
    total costs no extra pass."""
    cap = np.int64(capacity)

    def cand_batch(batch: pa.Table) -> pa.Table:
        flat, _ = tokenize_column(batch[text_col])
        if len(flat) == 0:
            return pa.table({"term": pa.array([], pa.string())})
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        dic = pc.dictionary_encode(flat)
        counts = np.bincount(
            dic.indices.to_numpy(zero_copy_only=False), minlength=len(dic.dictionary))
        keep = counts * int(cap) > len(flat)
        return pa.table({"term": dic.dictionary.filter(pa.array(keep))})

    cands = np.sort(np.unique(np.concatenate(
        [b["term"].to_numpy(zero_copy_only=False)
         for b in ds.map_batches(cand_batch, batch_format="pyarrow")
         .iter_batches(batch_format="pyarrow", batch_size=65536)]
        or [np.array([], dtype=object)])))
    cref = ray.put(cands)

    def recount(batch: pa.Table) -> pa.Table:
        flat, _ = tokenize_column(batch[text_col])
        nb = len(flat)
        if nb == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        dic = pc.dictionary_encode(flat)
        counts = np.bincount(
            dic.indices.to_numpy(zero_copy_only=False), minlength=len(dic.dictionary))
        terms = dic.dictionary.to_numpy(zero_copy_only=False)
        cand = ray.get(cref)
        sel = (np.flatnonzero(
            cand[np.searchsorted(cand, terms).clip(max=len(cand) - 1)] == terms)
            if len(cand) else np.empty(0, np.int64))
        return pa.table({
            "term": pa.array(np.append(terms[sel], _FT_TOTAL_SENTINEL)),
            "cnt": pa.array(np.append(counts[sel], nb), pa.int64())})

    agg = (ds.map_batches(recount, batch_format="pyarrow")
           .groupby("term").aggregate(Sum("cnt", alias_name="cnt"))
           .to_pandas())
    if agg.empty:  # every batch hit the nb==0 early return: no sentinel row
        raise ValueError(
            "frequent_terms: corpus has no tokens (empty/null text column)")
    total = int(agg.loc[agg["term"] == _FT_TOTAL_SENTINEL, "cnt"].iloc[0])
    out = (agg[agg["term"] != _FT_TOTAL_SENTINEL]
           .sort_values(["cnt", "term"], ascending=[False, True],
                        kind="mergesort")
           .head(k).reset_index(drop=True))
    if len(out) < k or int(out["cnt"].iloc[-1]) * capacity <= total:
        kth = int(out["cnt"].iloc[-1]) if len(out) else 1
        raise ValueError(
            f"capacity {capacity} cannot prove top-{k} exact "
            f"({len(out)} candidates; k-th count {kth} vs N/capacity = "
            f"{total / capacity:.1f}); use capacity >= {total // kth + 1}")
    return out[["term", "cnt"]]


def pmi_collocations(ds, *, text_col: str = "text", k: int = 20,
                     min_count: int = 5, n_buckets: int = 32) -> pd.DataFrame:
    """Top-k adjacent-bigram collocations by pointwise mutual information
    (Church & Hanks 1990): ``pmi = ln(c_xy * N / (c_x * c_y))`` over
    corpus-wide counts, keeping bigrams with ``c_xy >= min_count``,
    ranked (pmi desc, x asc, y asc).

    Scale shape: ONE tokenize pass emits per-batch unigram and bigram
    count partials (distinct terms/pairs per batch — skinny), pinned
    once. Exchange 1 is keyed on the FIRST word: a bucket owns term x
    completely, so both c_x and every c_xy with that x finalize together
    (no unigram join). Exchange 2 re-keys the surviving bigrams on the
    SECOND word against the same pinned unigram partials to attach c_y,
    computes PMI, filters, and emits a per-bucket top-k partial; only
    k x n_buckets rows reach the driver. The corpus is read once; the
    full vocabulary never joins against itself."""
    def partial_rows(batch: pa.Table) -> pa.Table:
        empty = pa.table({"k": pa.array([], pa.string()),
                          "y": pa.array([], pa.string()),
                          "c": pa.array([], pa.int64()),
                          "kind": pa.array([], pa.int8())})
        flat, doc_idx = tokenize_column(batch[text_col])
        if len(flat) == 0:
            return empty
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        dic = pc.dictionary_encode(flat)
        codes = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = dic.dictionary
        ucnt = np.bincount(codes, minlength=len(vocab))
        uterm = vocab
        m = len(flat) - 1
        rows = [pa.table({
            "k": uterm, "y": pa.nulls(len(uterm), pa.string()).fill_null(""),
            "c": pa.array(ucnt, pa.int64()),
            "kind": pa.array(np.zeros(len(uterm), np.int8))})]
        if m > 0:
            valid = doc_idx[:m] == doc_idx[1:]
            cx, cy = codes[:m][valid], codes[1:][valid]
            key = cx * len(vocab) + cy
            uniq, cnt = np.unique(key, return_counts=True)
            rows.append(pa.table({
                "k": vocab.take(pa.array(uniq // len(vocab), pa.int64())),
                "y": vocab.take(pa.array(uniq % len(vocab), pa.int64())),
                "c": pa.array(cnt.astype(np.int64), pa.int64()),
                "kind": pa.array(np.ones(len(uniq), np.int8))}))
        return pa.concat_tables(rows)

    partials = ds.map_batches(
        partial_rows, batch_format="pyarrow").materialize()
    total = float(partials.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], 0)).select(["c"]),
        batch_format="pyarrow").sum("c"))

    def bucket_x(df: pd.DataFrame) -> pd.DataFrame:
        u = df[df["kind"] == 0].groupby("k")["c"].sum()
        b = (df[df["kind"] == 1].groupby(["k", "y"], as_index=False)["c"]
             .sum())
        b = b[b["c"] >= min_count]
        b["cx"] = b["k"].map(u).astype(np.int64)
        return b.rename(columns={"k": "x"})[["x", "y", "c", "cx"]]

    with_cx = exchange(partials, bucket_x, keys=["k"], n_buckets=n_buckets)

    def rekey_y(t: pa.Table) -> pa.Table:
        return pa.table({"k": t["y"], "x": t["x"], "c": t["c"],
                         "cx": t["cx"],
                         "kind": pa.array(np.ones(t.num_rows, np.int8))})

    uni_side = partials.map_batches(
        lambda t: (lambda u: pa.table(
            {"k": u["k"], "x": u["y"], "c": u["c"],
             "cx": pa.array(np.zeros(u.num_rows, np.int64)),
             "kind": pa.array(np.zeros(u.num_rows, np.int8))}))(
            t.filter(pc.equal(t["kind"], 0))),
        batch_format="pyarrow")
    sides = with_cx.map_batches(rekey_y, batch_format="pyarrow").union(uni_side)

    def bucket_y(df: pd.DataFrame) -> pd.DataFrame:
        u = df[df["kind"] == 0].groupby("k")["c"].sum()
        b = df[df["kind"] == 1].copy()
        if not len(b):
            return pd.DataFrame({"x": pd.Series([], dtype=object),
                                 "y": pd.Series([], dtype=object),
                                 "cnt": pd.Series([], dtype=np.int64),
                                 "pmi": pd.Series([], dtype=np.float64)})
        cy = b["k"].map(u).to_numpy(np.float64)
        c = b["c"].to_numpy(np.float64)
        cx = b["cx"].to_numpy(np.float64)
        # same float op grouping as the SQL oracle: (c*N) / (cx*cy)
        pmi = np.log(c * total / (cx * cy))
        out = pd.DataFrame({"x": b["x"].to_numpy(), "y": b["k"].to_numpy(),
                            "cnt": b["c"].to_numpy(np.int64), "pmi": pmi})
        return (out.sort_values(["pmi", "x", "y"],
                                ascending=[False, True, True],
                                kind="mergesort").head(k))

    parts = exchange(sides, bucket_y, keys=["k"], n_buckets=n_buckets) \
        .to_pandas()
    out = (parts.sort_values(["pmi", "x", "y"],
                             ascending=[False, True, True], kind="mergesort")
           .head(k).reset_index(drop=True))
    out["pmi"] = np.floor(out["pmi"].to_numpy() * 1e6 + 0.5) / 1e6
    return out[["x", "y", "cnt", "pmi"]]


# ---------------------------------------------------------------------------
# n-gram corpus analysis (boilerplate catalog, duplicated-substring signal)
# ---------------------------------------------------------------------------

def boilerplate_ngrams(ds, *, text_col: str = "text", n: int = 5,
                       min_docs: int = 5, k: int = 20, n_buckets: int = 64):
    """Boilerplate catalog (the CCNet/C4 frequent-line rule at token-n-gram
    granularity — these docs carry no newlines): token n-grams appearing in
    at least ``min_docs`` DISTINCT documents, top-k by document frequency
    (ties broken by gram string).

    Distributed shape: map-side per-doc DISTINCT grams (dictionary encode +
    composite-key unique — a doc's text is one row, so per-batch distinct IS
    per-doc distinct), ONE gram-keyed exchange whose reducer owns each gram
    completely (df = its group size) and emits only its bucket's qualifying
    top-k; the driver merges k rows per bucket. Nothing vocabulary-sized is
    broadcast or collected."""
    from ..text.tokenize import doc_ngrams
    from .relational import distributed_topk

    def gram_rows(batch: pa.Table) -> pa.Table:
        grams, gdoc = doc_ngrams(batch[text_col], n)
        if len(grams) == 0:
            return pa.table({"gram": pa.array([], pa.string())})
        dic = pc.dictionary_encode(grams)
        codes = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        nv = len(dic.dictionary)
        uniq = np.unique(gdoc * nv + codes)      # distinct (doc, gram)
        return pa.table(
            {"gram": dic.dictionary.take(pa.array(uniq % nv, pa.int64()))})

    def bucket_topk(tbl: pa.Table) -> pa.Table:
        # rows are distinct (doc, gram) pairs; df = per-gram row count
        dic = pc.dictionary_encode(tbl["gram"].combine_chunks())
        codes = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        df = np.bincount(codes)
        keep = np.flatnonzero(df >= min_docs)
        if keep.size == 0:
            return pa.table({"gram": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64())})
        grams = dic.dictionary.take(pa.array(keep, pa.int64()))
        out = pa.table({"gram": grams,
                        "df": pa.array(df[keep], pa.int64())})
        order = pc.sort_indices(out, sort_keys=[("df", "descending"),
                                                ("gram", "ascending")])
        return out.take(order.slice(0, k))

    cands = exchange(ds.map_batches(gram_rows, batch_format="pyarrow"),
                     bucket_topk, keys=["gram"], n_buckets=n_buckets,
                     batch_format="pyarrow")
    return distributed_topk(cands, ["df", "gram"], [False, True], k)


_GH_M1 = np.uint64(0x9E3779B97F4A7C15)   # odd polynomial multipliers for
_GH_M2 = np.uint64(0xC2B2AE3D27D4EB4F)   # the two independent gram streams


def dup_gram_fraction(ds, *, id_col: str = "doc_id", text_col: str = "text",
                      n: int = 8, n_buckets: int = 64,
                      out_col: str = "dup_frac",
                      hash_grams: bool = False):
    """Per-document duplicated-substring fraction at token-n-gram
    granularity (the Lee et al. 2022 exact-substring-dedup signal reduced
    to fixed-width windows so it is exactly SQL-oracle-able): the share of
    a doc's n-gram OCCURRENCES whose gram occurs >= 2 times corpus-wide
    (anywhere — another doc or a repeat within the same doc).

    Same skeleton as unigram_logprob_score: map-side distinct
    (doc, gram, tf) rows; ONE gram-keyed exchange where a bucket owns each
    gram completely (corpus count = the gram group's tf sum) and emits
    skinny per-(doc, bucket) partials; a doc-keyed exchange sums them.
    Docs with fewer than n tokens emit no rows (mirrors the SQL oracle).
    Output fixed-point rounded to 6 dp.

    ``hash_grams=True`` is the 100-TB exchange shape: grams are keyed by a
    128-bit hash pair (two polynomial streams over the two INDEPENDENT
    halves of a per-token blake2b-128 digest — token hashing pays per
    DISTINCT token per batch, via dedup._token_hash_pairs_flat) instead
    of the joined string, cutting exchange bytes ~4x at n=8 and taking
    the zero-copy all-int bucket path. Collision odds at 5e13 grams are
    ~1e-11 (a single 64-bit key would expect ~7e7 collisions there; a
    second stream DERIVED from the first would collapse back to 64-bit
    behavior, hence the split digest). Default stays the exact string
    form — it is what the SQL oracle gates."""
    from ..text.tokenize import doc_ngrams, tokenize_column

    def gram_tf_rows(batch: pa.Table) -> pa.Table:
        grams, gdoc = doc_ngrams(batch[text_col], n)
        id_type = batch.schema.field(id_col).type
        if len(grams) == 0:
            return pa.table({id_col: pa.array([], id_type),
                             "gram": pa.array([], pa.string()),
                             "tf": pa.array([], pa.int64())})
        dic = pc.dictionary_encode(grams)
        codes = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        nv = len(dic.dictionary)
        uniq, tf = np.unique(gdoc * nv + codes, return_counts=True)
        return pa.table({
            id_col: batch[id_col].take(pa.array(uniq // nv, pa.int64())),
            "gram": dic.dictionary.take(pa.array(uniq % nv, pa.int64())),
            "tf": pa.array(tf.astype(np.int64), pa.int64())})

    def hashed_tf_rows(batch: pa.Table) -> pa.Table:
        flat, doc_idx = tokenize_column(batch[text_col])
        id_type = batch.schema.field(id_col).type
        empty = pa.table({id_col: pa.array([], id_type),
                          "g1": pa.array([], pa.int64()),
                          "g2": pa.array([], pa.int64()),
                          "tf": pa.array([], pa.int64())})
        ntok = len(flat)
        if ntok < n:
            return empty
        from .dedup import _token_hash_pairs_flat
        th1, th2 = _token_hash_pairs_flat(flat)
        starts = ntok - n + 1
        h1 = np.zeros(starts, np.uint64)
        h2 = np.zeros(starts, np.uint64)
        for j in range(n):
            h1 = h1 * _GH_M1 + th1[j:j + starts]
            h2 = h2 * _GH_M2 + th2[j:j + starts]
        valid = doc_idx[:starts] == doc_idx[n - 1:]
        if not valid.any():
            return empty
        g1 = h1[valid].view(np.int64)
        g2 = h2[valid].view(np.int64)
        gdoc = doc_idx[:starts][valid]
        order = np.lexsort((g2, g1, gdoc))
        s1, s2, sd = g1[order], g2[order], gdoc[order]
        change = np.empty(order.size, bool)
        change[0] = True
        change[1:] = ((np.diff(sd) != 0) | (np.diff(s1) != 0)
                      | (np.diff(s2) != 0))
        first = np.flatnonzero(change)
        tf = np.diff(np.append(first, order.size))
        return pa.table({
            id_col: batch[id_col].take(pa.array(sd[first], pa.int64())),
            "g1": pa.array(s1[first], pa.int64()),
            "g2": pa.array(s2[first], pa.int64()),
            "tf": pa.array(tf.astype(np.int64), pa.int64())})

    def bucket_partials(tbl: pa.Table) -> pa.Table:
        if hash_grams:
            g1 = tbl["g1"].to_numpy(zero_copy_only=False)
            g2 = tbl["g2"].to_numpy(zero_copy_only=False)
            if g1.size == 0:
                # empty-exchange path (every doc shorter than n): the
                # string branch handles this via dictionary_encode; the
                # lexsort/change path would IndexError on size 0
                return pa.table({
                    id_col: tbl[id_col],
                    "dup": pa.array([], pa.int64()),
                    "tot": pa.array([], pa.int64())})
            order = np.lexsort((g2, g1))
            change = np.empty(order.size, bool)
            change[0] = True
            change[1:] = ((np.diff(g1[order]) != 0)
                          | (np.diff(g2[order]) != 0))
            gidx = np.empty(order.size, np.int64)
            gidx[order] = np.cumsum(change) - 1
            codes = gidx
        else:
            codes = pc.dictionary_encode(tbl["gram"].combine_chunks()) \
                .indices.to_numpy(zero_copy_only=False).astype(np.int64)
        tf = tbl["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        cnt = np.bincount(codes, weights=tf)          # corpus-wide per gram
        dup = np.where(cnt[codes] >= 2.0, tf, 0.0)
        docs = tbl[id_col].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(docs, return_inverse=True)
        return pa.table({
            id_col: pa.array(uniq, tbl.schema.field(id_col).type),
            "dup": pa.array(np.bincount(inv, weights=dup).astype(np.int64),
                            pa.int64()),
            "tot": pa.array(np.bincount(inv, weights=tf).astype(np.int64),
                            pa.int64())})

    if hash_grams:
        partials = exchange(
            ds.map_batches(hashed_tf_rows, batch_format="pyarrow"),
            bucket_partials, keys=["g1", "g2"], n_buckets=n_buckets,
            batch_format="pyarrow")
    else:
        partials = exchange(
            ds.map_batches(gram_tf_rows, batch_format="pyarrow"),
            bucket_partials, keys=["gram"], n_buckets=n_buckets,
            batch_format="pyarrow")

    def sum_and_finish(tbl: pa.Table) -> pa.Table:
        docs = tbl[id_col].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(docs, return_inverse=True)
        dup = np.bincount(inv, weights=tbl["dup"].to_numpy(zero_copy_only=False))
        tot = np.bincount(inv, weights=tbl["tot"].to_numpy(zero_copy_only=False))
        v = np.floor(dup / tot * 1e6 + 0.5) / 1e6
        return pa.table({id_col: pa.array(uniq, tbl.schema.field(id_col).type),
                         out_col: pa.array(v, pa.float64())})

    return exchange(partials, sum_and_finish, keys=[id_col],
                    n_buckets=n_buckets, batch_format="pyarrow")


def dsir_importance(ds, *, id_col: str = "doc_id", text_col: str = "text",
                    domain_col: str = "lang", target_value: str = "en",
                    n_buckets: int = 64, out_col: str = "dsir_w"):
    """DSIR importance weight (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling", reduced to unigram features
    so it is exactly SQL-oracle-able): per-token log-likelihood ratio of
    the doc under the TARGET domain's add-one-smoothed unigram LM vs the
    raw corpus's,

        w = (1/L) * sum_t tf_t * [ln(cnt_target_t + 1) - ln(cnt_t + 1)]
            + ln(T + V) - ln(T_target + V)

    (V = corpus distinct-term count; the +ln terms fold the smoothed
    denominators out of the per-term sum). High w = doc looks like the
    target domain — the public importance-resampling selection signal.

    Distributed shape: ONE term-keyed exchange computes cnt_t and
    cnt_target_t together (a bucket owns each term completely) and emits
    per-(doc, bucket) partials carrying (s, L, L_target) plus ONE
    vocab-count row per bucket under a sentinel id; a doc-keyed exchange
    sums partials; the three scalars (T, T_target, V) come off the skinny
    materialized per-doc table, never a corpus pass."""

    SENTINEL = np.int64(-(2 ** 62))

    def tf_rows(batch: pa.Table) -> pa.Table:
        vocab, doc_idx, codes, tf = doc_term_counts(batch[text_col])
        take = pa.array(doc_idx, pa.int64())
        is_t = pc.equal(batch[domain_col], target_value).take(take)
        return pa.table({
            id_col: batch[id_col].take(take),
            "term": (vocab.take(pa.array(codes, pa.int64()))
                     if len(vocab) else pa.array([], pa.string())),
            "tf": pa.array(tf, pa.int64()),
            "is_t": pc.fill_null(is_t, False)})

    def bucket_partials(tbl: pa.Table) -> pa.Table:
        codes = pc.dictionary_encode(tbl["term"].combine_chunks()) \
            .indices.to_numpy(zero_copy_only=False).astype(np.int64)
        nv = int(codes.max()) + 1 if codes.size else 0
        tf = tbl["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        is_t = tbl["is_t"].to_numpy(zero_copy_only=False).astype(np.float64)
        cnt = np.bincount(codes, weights=tf, minlength=nv)
        cnt_t = np.bincount(codes, weights=tf * is_t, minlength=nv)
        contrib = tf * (np.log(cnt_t[codes] + 1.0) - np.log(cnt[codes] + 1.0))
        docs = tbl[id_col].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(docs, return_inverse=True)
        id_type = tbl.schema.field(id_col).type
        out = pa.table({
            id_col: pa.array(uniq, id_type),
            "s": pa.array(np.bincount(inv, weights=contrib), pa.float64()),
            "L": pa.array(np.bincount(inv, weights=tf).astype(np.int64),
                          pa.int64()),
            "Lt": pa.array(np.bincount(inv, weights=tf * is_t)
                           .astype(np.int64), pa.int64()),
            "v": pa.array(np.zeros(uniq.size, np.int64), pa.int64())})
        sent = pa.table({id_col: pa.array([SENTINEL], id_type),
                         "s": pa.array([0.0], pa.float64()),
                         "L": pa.array([0], pa.int64()),
                         "Lt": pa.array([0], pa.int64()),
                         "v": pa.array([nv], pa.int64())})
        return pa.concat_tables([out, sent])

    partials = exchange(ds.map_batches(tf_rows, batch_format="pyarrow"),
                        bucket_partials, keys=["term"], n_buckets=n_buckets,
                        batch_format="pyarrow")

    def sum_bucket(tbl: pa.Table) -> pa.Table:
        docs = tbl[id_col].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(docs, return_inverse=True)
        cols = {id_col: pa.array(uniq, tbl.schema.field(id_col).type)}
        for c, t in (("s", pa.float64()), ("L", pa.int64()),
                     ("Lt", pa.int64()), ("v", pa.int64())):
            w = np.bincount(inv, weights=tbl[c].to_numpy(zero_copy_only=False))
            cols[c] = pa.array(w if c == "s" else w.astype(np.int64), t)
        return pa.table(cols)

    per_doc = exchange(partials, sum_bucket, keys=[id_col],
                       n_buckets=n_buckets,
                       batch_format="pyarrow").materialize()
    total = float(per_doc.sum("L"))
    total_t = float(per_doc.sum("Lt"))
    vocab_n = float(per_doc.sum("v"))
    shift = float(np.log(total + vocab_n) - np.log(total_t + vocab_n))

    def finish(t: pa.Table) -> pa.Table:
        docs = t[id_col].to_numpy(zero_copy_only=False)
        keep = docs != SENTINEL
        s = t["s"].to_numpy(zero_copy_only=False)[keep]
        ln = t["L"].to_numpy(zero_copy_only=False).astype(np.float64)[keep]
        v = np.floor((s / ln + shift) * 1e6 + 0.5) / 1e6
        return pa.table({id_col: pa.array(docs[keep],
                                          t.schema.field(id_col).type),
                         out_col: pa.array(v, pa.float64())})

    return per_doc.map_batches(finish, batch_format="pyarrow")


def remove_duplicate_spans(ds, *, id_col: str = "doc_id",
                           text_col: str = "text", n: int = 8,
                           min_count: int = 2, n_buckets: int = 64,
                           hash_grams: bool = False):
    """EXACT duplicate-span REMOVAL (the cleanup mode of the Lee et al.
    2022 exact-substring-dedup family, fixed-width form): delete every
    token covered by any n-gram occurring >= ``min_count`` times
    corpus-wide. Output is one row per input doc:
    ``(id_col, clean_text, n_removed)`` where clean_text is the SPACE-JOIN
    of the surviving normalized tokens (tokenizer spec v1) in order.

    Three stages, nothing corpus-sized on the driver or broadcast:
    1. map: per-occurrence (doc, gram, pos) rows off the shared n-gram
       kernel;
    2. ONE gram-keyed exchange — a bucket owns each gram completely, so
       the corpus occurrence count is the group size; occurrences of
       duplicated grams come back as skinny (doc, pos) rows;
    3. ONE doc-keyed TWO-SIDED exchange (dup starts + the docs
       themselves, same id-bucket fn) whose reducer rebuilds each doc:
       coverage via a diff array over the bucket's token stream (spans
       never cross doc boundaries by construction), surviving tokens
       re-joined with a vectorized LargeListArray binary_join — no
       per-token Python. Sides carry an explicit ``__side`` flag (a
       null-text sentinel would misclassify legitimate null-text docs).
       Null-text docs come back as ('', 0) like empty ones.

    ``hash_grams=True`` keys stage 2 by the same 128-bit blake2b-split
    hash pair as dup_gram_fraction's scale path (~3-4x fewer exchange
    bytes at n=8 for occurrence rows: two int64s replace the ~60-byte
    gram string in each (id, gram, pos) row; identical output — pinned
    by pytest)."""
    from ..text.tokenize import doc_ngrams_pos, tokenize_column

    def occ_rows(batch: pa.Table) -> pa.Table:
        grams, gdoc, pos = doc_ngrams_pos(batch[text_col], n)
        id_type = batch.schema.field(id_col).type
        if len(grams) == 0:
            return pa.table({id_col: pa.array([], id_type),
                             "gram": pa.array([], pa.string()),
                             "pos": pa.array([], pa.int64())})
        return pa.table({
            id_col: batch[id_col].take(pa.array(gdoc, pa.int64())),
            "gram": grams,
            "pos": pa.array(pos, pa.int64())})

    def dup_starts(tbl: pa.Table) -> pa.Table:
        codes = pc.dictionary_encode(tbl["gram"].combine_chunks()) \
            .indices.to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = np.bincount(codes) if codes.size else np.empty(0, np.int64)
        keep = cnt[codes] >= min_count if codes.size else codes.astype(bool)
        return pa.table({
            id_col: tbl[id_col].filter(pa.array(keep)),
            "pos": tbl["pos"].filter(pa.array(keep))})

    def occ_rows_hashed(batch: pa.Table) -> pa.Table:
        from .dedup import _token_hash_pairs_flat

        flat, doc_idx = tokenize_column(batch[text_col])
        id_type = batch.schema.field(id_col).type
        empty = pa.table({id_col: pa.array([], id_type),
                          "g1": pa.array([], pa.int64()),
                          "g2": pa.array([], pa.int64()),
                          "pos": pa.array([], pa.int64())})
        ntok = len(flat)
        if ntok < n:
            return empty
        th1, th2 = _token_hash_pairs_flat(flat)
        starts = ntok - n + 1
        h1 = np.zeros(starts, np.uint64)
        h2 = np.zeros(starts, np.uint64)
        for j in range(n):
            h1 = h1 * _GH_M1 + th1[j:j + starts]
            h2 = h2 * _GH_M2 + th2[j:j + starts]
        valid = doc_idx[:starts] == doc_idx[n - 1:]
        if not valid.any():
            return empty
        gidx = np.flatnonzero(valid)
        gdoc = doc_idx[:starts][valid]
        pos = gidx - np.searchsorted(doc_idx, gdoc, side="left")
        return pa.table({
            id_col: batch[id_col].take(pa.array(gdoc, pa.int64())),
            "g1": pa.array(h1[valid].view(np.int64), pa.int64()),
            "g2": pa.array(h2[valid].view(np.int64), pa.int64()),
            "pos": pa.array(pos, pa.int64())})

    def dup_starts_hashed(tbl: pa.Table) -> pa.Table:
        g1 = tbl["g1"].to_numpy(zero_copy_only=False)
        g2 = tbl["g2"].to_numpy(zero_copy_only=False)
        if g1.size == 0:
            return pa.table({id_col: tbl[id_col],
                             "pos": pa.array([], pa.int64())})
        order = np.lexsort((g2, g1))
        change = np.empty(order.size, bool)
        change[0] = True
        change[1:] = ((np.diff(g1[order]) != 0)
                      | (np.diff(g2[order]) != 0))
        codes = np.empty(order.size, np.int64)
        codes[order] = np.cumsum(change) - 1
        cnt = np.bincount(codes)
        keep = cnt[codes] >= min_count
        return pa.table({
            id_col: tbl[id_col].filter(pa.array(keep)),
            "pos": tbl["pos"].filter(pa.array(keep))})

    if hash_grams:
        dups = exchange(
            ds.map_batches(occ_rows_hashed, batch_format="pyarrow"),
            dup_starts_hashed, keys=["g1", "g2"], n_buckets=n_buckets,
            batch_format="pyarrow")
    else:
        dups = exchange(ds.map_batches(occ_rows, batch_format="pyarrow"),
                        dup_starts, keys=["gram"], n_buckets=n_buckets,
                        batch_format="pyarrow")

    def pre_dups(tbl: pa.Table) -> pa.Table:
        return pa.table({
            id_col: tbl[id_col],
            "pos": tbl["pos"].cast(pa.int64()),
            text_col: pa.nulls(tbl.num_rows, pa.string()),
            "__side": pa.array(np.zeros(tbl.num_rows, np.int8))})

    def pre_docs(tbl: pa.Table) -> pa.Table:
        return pa.table({
            id_col: tbl[id_col],
            "pos": pa.nulls(tbl.num_rows, pa.int64()),
            text_col: tbl[text_col],
            "__side": pa.array(np.ones(tbl.num_rows, np.int8))})

    def rebuild(tbl: pa.Table) -> pa.Table:
        is_doc = pc.equal(tbl["__side"], pa.scalar(1, pa.int8()))
        docs = tbl.filter(is_doc)
        marks = tbl.filter(pc.invert(is_doc))
        order = pc.sort_indices(docs[id_col])       # id-type generic
        docs = docs.take(order)
        flat, tok_row = tokenize_column(docs[text_col])
        ntok = len(flat)
        n_tokens = np.bincount(tok_row, minlength=docs.num_rows) \
            .astype(np.int64) if ntok else np.zeros(docs.num_rows, np.int64)
        first = np.concatenate(([0], np.cumsum(n_tokens)[:-1]))
        rows = pc.index_in(marks[id_col], docs[id_col].combine_chunks()) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        m_pos = marks["pos"].to_numpy(zero_copy_only=False).astype(np.int64)
        starts = first[rows] + m_pos
        cover = (np.bincount(starts, minlength=ntok + 1)
                 - np.bincount(starts + n, minlength=ntok + 1)) \
            if starts.size else np.zeros(ntok + 1, np.int64)
        kept = np.cumsum(cover[:-1]) == 0
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        kept_toks = flat.filter(pa.array(kept))
        kept_per_doc = np.bincount(tok_row[kept], minlength=docs.num_rows) \
            .astype(np.int64) if ntok else np.zeros(docs.num_rows, np.int64)
        offsets = np.concatenate(([0], np.cumsum(kept_per_doc)))
        lists = pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()), kept_toks)
        clean = pc.binary_join(lists, " ")
        return pa.table({
            id_col: docs[id_col],
            "clean_text": pc.fill_null(clean, ""),
            "n_removed": pa.array(n_tokens - kept_per_doc, pa.int64())})

    docs_only = ds.map_batches(
        lambda t: t.select([id_col, text_col]), batch_format="pyarrow")
    return exchange(
        [(arrow_refs(dups), pre_dups),
         (arrow_refs(docs_only), pre_docs)],
        rebuild, keys=[id_col], n_buckets=n_buckets, batch_format="pyarrow")


def exact_dedup_incremental(new_ds, prior_ds, *, id_col: str = "doc_id",
                            text_col: str = "text", n_buckets: int = 64):
    """Incremental exact content dedup — the production 100-TB shape
    where yesterday's corpus is NOT re-deduped: keep each NEW doc whose
    content hash appears nowhere in the PRIOR corpus, first-wins (min id)
    within the new batch. Returns (keep_id, n_copies) over the new docs.

    ONE two-sided digest-keyed exchange: both sides reduce to 32-byte
    (h1, h2) rows inside the partition tasks (md5 straight off the Arrow
    buffers, per-batch dedup), so the prior corpus contributes one skinny
    row per distinct text and its TEXT never moves. ``prior_ds`` may be
    the docs themselves or an already-persisted digest table with int64
    columns (h1, h2) — e.g. the output of a previous run's digest dump —
    in which case no hashing happens on the prior side at all."""
    def pre_new(tbl: pa.Table) -> pa.Table:
        h1, h2, keep, n = _digest_partial(tbl, id_col, text_col)
        return pa.table({
            "h1": pa.array(h1.view(np.int64), pa.int64()),
            "h2": pa.array(h2.view(np.int64), pa.int64()),
            "keep_id": pa.array(keep, pa.int64()),
            "n_copies": pa.array(n, pa.int64()),
            "__side": pa.array(np.ones(h1.size, np.int8)),
            "__bucket": pa.array(
                (h1 % np.uint64(n_buckets)).astype(np.int32))})

    def pre_prior(tbl: pa.Table) -> pa.Table:
        if "h1" in tbl.column_names and "h2" in tbl.column_names:
            h1 = tbl["h1"].to_numpy(zero_copy_only=False) \
                .astype(np.int64).view(np.uint64)
            h2 = tbl["h2"].to_numpy(zero_copy_only=False) \
                .astype(np.int64).view(np.uint64)
        else:
            h = _md5_pairs(tbl[text_col])
            h1, h2 = h[:, 0], h[:, 1]
        order = np.lexsort((h2, h1))
        h1, h2 = h1[order], h2[order]
        keep = np.r_[True, (h1[1:] != h1[:-1]) | (h2[1:] != h2[:-1])]
        h1, h2 = h1[keep], h2[keep]
        return pa.table({
            "h1": pa.array(h1.view(np.int64), pa.int64()),
            "h2": pa.array(h2.view(np.int64), pa.int64()),
            "keep_id": pa.array(np.zeros(h1.size, np.int64), pa.int64()),
            "n_copies": pa.array(np.zeros(h1.size, np.int64), pa.int64()),
            "__side": pa.array(np.zeros(h1.size, np.int8)),
            "__bucket": pa.array(
                (h1 % np.uint64(n_buckets)).astype(np.int32))})

    def combine(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table({"keep_id": pa.array([], pa.int64()),
                             "n_copies": pa.array([], pa.int64())})
        h1 = tbl["h1"].to_numpy(zero_copy_only=False)
        h2 = tbl["h2"].to_numpy(zero_copy_only=False)
        keep = tbl["keep_id"].to_numpy(zero_copy_only=False)
        n = tbl["n_copies"].to_numpy(zero_copy_only=False)
        side = tbl["__side"].to_numpy(zero_copy_only=False)
        order = np.lexsort((keep, side, h2, h1))
        h1s, h2s = h1[order], h2[order]
        starts = np.flatnonzero(
            np.r_[True, (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1])])
        # within a digest group rows sort (side asc, keep asc): the first
        # row is a prior row iff the digest exists in the prior corpus,
        # else the min-id new row — the survivor
        lead = order[starts]
        alive = side[lead] == 1
        counts = np.add.reduceat(n[order], starts)   # prior rows carry 0
        return pa.table({
            "keep_id": pa.array(keep[lead][alive], pa.int64()),
            "n_copies": pa.array(counts[alive], pa.int64())})

    return exchange(
        [(arrow_refs(prior_ds), pre_prior),
         (arrow_refs(new_ds), pre_new)],
        combine, by="__bucket", batch_format="pyarrow")


# ---------------------------------------------------------------------------
# URL canonicalization (Common-Crawl prep: canonical-url dedup keys,
# domain rollups)
# ---------------------------------------------------------------------------

_URL_RE = (r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.-]*)://"
           r"(?P<host>[^/:?#]+)(?P<port>:[0-9]+)?(?P<path>/[^?#]*)?")


def canonicalize_urls(ds, *, url_col: str = "url",
                      canon_col: str = "canon_url",
                      domain_col: str = "domain"):
    """Vectorized URL canonicalization — the normalization step before
    per-url dedup (SURVEY.md §2.8 D3) on a real crawl, where the same
    page arrives as ``HTTP://WWW.Site.COM:80/x?utm=...#frag`` and
    ``http://site.com/x``. Rules (all pure Arrow kernels, map-side only):

    - scheme and host lowercased (paths stay case-sensitive per RFC 3986);
    - a leading ``www.`` dropped from the host;
    - explicit ``:80`` / ``:443`` ports dropped (any other port kept);
    - query string and fragment dropped;
    - empty path -> ``/``; a single trailing slash stripped from non-root
      paths.

    Appends ``canon_col`` and ``domain_col`` (the canonical host); rows
    that do not parse as absolute http(s)-style URLs get nulls in both.
    """
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        parts = pc.extract_regex(batch[url_col], _URL_RE)
        ok = parts.is_valid() if isinstance(parts, pa.ChunkedArray) \
            else pc.is_valid(parts)
        scheme = pc.utf8_lower(pc.struct_field(parts, "scheme"))
        host = pc.replace_substring_regex(
            pc.utf8_lower(pc.struct_field(parts, "host")),
            pattern=r"^www\.", replacement="", max_replacements=1)
        port = pc.struct_field(parts, "port")
        port = pc.if_else(pc.is_in(port, value_set=pa.array([":80", ":443"])),
                          "", port)
        path = pc.struct_field(parts, "path")
        path = pc.if_else(pc.equal(path, ""), "/", path)
        path = pc.replace_substring_regex(path, pattern=r"^(.+)/$",
                                          replacement=r"\1",
                                          max_replacements=1)
        # NB: binary_join_element_wise's LAST argument is the separator
        canon = pc.binary_join_element_wise(scheme, "://", host, port,
                                            path, "")
        canon = pc.if_else(ok, canon, pa.nulls(batch.num_rows, pa.string()))
        domain = pc.if_else(ok, host, pa.nulls(batch.num_rows, pa.string()))
        return batch.append_column(canon_col, canon) \
                    .append_column(domain_col, domain)

    return ds.map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# corpus snapshot diff (version comparison for state-carrying pipelines)
# ---------------------------------------------------------------------------

def snapshot_diff(old_ds, new_ds, *, key_col: str = "doc_id",
                  text_col: str = "text", n_buckets: int = 64):
    """Diff two corpus versions by key: emit ``(key_col, status)`` rows
    with status ``added`` (key only in new), ``removed`` (key only in
    old), ``changed`` (key in both, content differs); unchanged keys emit
    nothing. The daily-crawl bookkeeping step that tells a state-carrying
    pipeline (q103/q104 incremental dedup, q46 append/delete) WHICH
    documents to feed it.

    Scale shape: ONE two-sided id-keyed exchange; both sides reduce to
    24-byte ``(key, h1, h2)`` md5-digest rows inside the partition tasks
    (zero-copy off the Arrow buffers), so document text never moves and a
    bucket holds O(ids/n_buckets) skinny rows. Keys must be unique within
    each snapshot (it is a keyed corpus, not a multiset); content
    equality is digest equality (2^-128 collision odds, same contract as
    exact_text_dedup)."""
    def mk_pre(side: int):
        def pre(tbl: pa.Table) -> pa.Table:
            h = _md5_pairs(tbl[text_col])
            ids = tbl[key_col].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            return pa.table({
                key_col: pa.array(ids, pa.int64()),
                "h1": pa.array(h[:, 0].view(np.int64), pa.int64()),
                "h2": pa.array(h[:, 1].view(np.int64), pa.int64()),
                "__side": pa.array(np.full(ids.size, side, np.int8))})
        return pre

    def diff(tbl: pa.Table) -> pa.Table:
        ids = tbl[key_col].to_numpy(zero_copy_only=False)
        side = tbl["__side"].to_numpy(zero_copy_only=False)
        h1 = tbl["h1"].to_numpy(zero_copy_only=False)
        h2 = tbl["h2"].to_numpy(zero_copy_only=False)
        order = np.lexsort((side, ids))
        ids, side, h1, h2 = ids[order], side[order], h1[order], h2[order]
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        sizes = np.diff(np.r_[starts, ids.size])
        one = sizes == 1
        # singletons: side 0 -> removed, side 1 -> added
        s_idx = starts[one]
        s_status = np.where(side[s_idx] == 0, "removed", "added")
        # pairs (sorted old-then-new): changed iff digests differ
        p_idx = starts[~one]
        p_changed = (h1[p_idx] != h1[p_idx + 1]) | (h2[p_idx] != h2[p_idx + 1])
        out_ids = np.concatenate([ids[s_idx], ids[p_idx][p_changed]])
        out_st = np.concatenate([s_status,
                                 np.full(int(p_changed.sum()), "changed")])
        return pa.table({key_col: pa.array(out_ids, pa.int64()),
                         "status": pa.array(out_st.tolist(), pa.string())})

    return exchange(
        [(arrow_refs(old_ds), mk_pre(0)),
         (arrow_refs(new_ds), mk_pre(1))],
        diff, keys=[key_col], n_buckets=n_buckets, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# fuzzy edit-distance join (deletion-neighborhood blocking)
# ---------------------------------------------------------------------------

def _lev_within(a: str, b: str, d: int) -> int:
    """Exact Levenshtein distance if <= ``d``, else ``d + 1`` (row-min
    early exit). Code-point semantics (Python str). Short-key scale: the
    join prunes |len(a)-len(b)| > d before any DP call."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if abs(la - lb) > d:
        return d + 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    prev = list(range(la + 1))
    for j in range(1, lb + 1):
        bj = b[j - 1]
        cur = [j] + [0] * la
        rmin = j
        for i in range(1, la + 1):
            c = prev[i - 1] + (a[i - 1] != bj)
            c2 = prev[i] + 1
            if c2 < c:
                c = c2
            c3 = cur[i - 1] + 1
            if c3 < c:
                c = c3
            cur[i] = c
            if c < rmin:
                rmin = c
        if rmin > d:
            return d + 1
        prev = cur
    return prev[la] if prev[la] <= d else d + 1


def edit_distance_join(ds, *, id_col: str = "doc_id", str_col: str = "key",
                       max_dist: int = 1, n_buckets: int = 64):
    """EXACT fuzzy self-join: all (a, b, dist) pairs with
    ``levenshtein(key_a, key_b) <= max_dist`` (a < b), via SymSpell-style
    DELETION-NEIGHBORHOOD blocking. Completeness: an optimal alignment
    with i inserts / e deletes / s substitutions (i+e+s = dist) leaves a
    common subsequence reachable by e+s <= dist deletions from one side
    and i+s <= dist from the other, so every qualifying pair shares at
    least one <=max_dist-deletion variant — blocking on variant hashes is
    provably complete (same guarantee the spellcheck surface relies on,
    pipelines/search.py::_deletes).

    Scale shape: the map pass emits (variant-hash, id, key) rows — the
    variant fan-out is O(len^max_dist) per row, so this operator is for
    SHORT keys (urls, titles, normalized prefixes; document the cap at the
    call site). Variant generation is vectorized BY DELETION POSITION
    (<= key-length Arrow kernel sweeps per level, no per-row Python); ONE
    variant-hash exchange groups candidates; within a group, pairs come
    from ``blocked_pairs`` (uncapped), pruned by |len_a - len_b| <= max_dist,
    deduped per (a, b), and verified with a memoized full-row Levenshtein
    DP with a row-minimum early exit (``_lev_within``; not banded) — the
    only per-pair Python, bounded by the candidate count, not the corpus.
    Global (a, b) dedup_first finishes (the same pair can surface under
    several shared variants). Distances are code-point based; byte-based
    oracles (DuckDB ``levenshtein``) agree on ASCII keys.

    Ids must be unique: candidates are deduped per (variant, id), so two
    rows sharing an id with different keys keep whichever key arrives
    first and the result depends on input order."""
    from ..index.docid import blake2b_rows
    from .relational import blocked_pairs, dedup_first

    def variants(batch: pa.Table) -> pa.Table:
        empty = pa.table({"vhash": pa.array([], pa.int64()),
                          "id": pa.array([], pa.int64()),
                          "s": pa.array([], pa.string())})
        t = batch.select([id_col, str_col])
        t = t.filter(pc.is_valid(t[str_col]))
        if t.num_rows == 0:
            return empty
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        arr = t[str_col].combine_chunks() if isinstance(
            t[str_col], pa.ChunkedArray) else t[str_col]
        arr = arr.cast(pa.string())
        row_parts = [np.arange(len(arr), dtype=np.int64)]
        str_parts = [arr]
        f_rows, f_strs = row_parts[0], arr
        for _ in range(max_dist):
            nxt_rows, nxt_strs = [], []
            lens = pc.utf8_length(f_strs).to_numpy(zero_copy_only=False)
            for i in range(int(lens.max()) if lens.size else 0):
                sel = np.flatnonzero(lens > i)
                if not sel.size:
                    break
                sub = f_strs.take(pa.array(sel))
                v = pc.binary_join_element_wise(
                    pc.utf8_slice_codeunits(sub, 0, i),
                    pc.utf8_slice_codeunits(sub, i + 1), "")
                nxt_rows.append(f_rows[sel])
                nxt_strs.append(v.combine_chunks()
                                if isinstance(v, pa.ChunkedArray) else v)
            if not nxt_strs:
                break
            f_rows = np.concatenate(nxt_rows)
            f_strs = pa.concat_arrays(nxt_strs)
            row_parts.append(f_rows)
            str_parts.append(f_strs)
        row_idx = np.concatenate(row_parts)
        var_arr = pa.concat_arrays([p.combine_chunks()
                                    if isinstance(p, pa.ChunkedArray) else p
                                    for p in str_parts])
        vh = blake2b_rows(var_arr, 8)[:, 0].view(np.int64)
        # per-row variant-set dedup (deleting different positions of a
        # repeated char yields the same variant): first of each
        # (row, vhash) run — a colliding pair of DISTINCT variants would
        # only drop a redundant blocking key, never a candidate
        order = np.lexsort((vh, row_idx))
        row_idx, vh = row_idx[order], vh[order]
        keep = np.r_[True, (row_idx[1:] != row_idx[:-1]) | (vh[1:] != vh[:-1])]
        row_idx, vh = row_idx[keep], vh[keep]
        return pa.table({"vhash": pa.array(vh),
                         "id": pa.array(ids[row_idx]),
                         "s": arr.take(pa.array(row_idx))})

    pref = ds.map_batches(variants, batch_format="pyarrow")
    p_empty = pd.DataFrame({"a": pd.Series([], dtype=np.int64),
                            "b": pd.Series([], dtype=np.int64),
                            "dist": pd.Series([], dtype=np.int64)})

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        ids_ = group["id"].to_numpy().astype(np.int64)
        ss = group["s"].to_numpy(object)
        ia, ib, _ = blocked_pairs(group["vhash"].to_numpy(), ids_)
        lens = np.fromiter((len(x) for x in ss), np.int64, ss.size)
        ok = np.abs(lens[ia] - lens[ib]) <= max_dist
        if not ok.any():
            return p_empty
        cand = pd.DataFrame({"a": ids_[ia][ok], "b": ids_[ib][ok],
                             "sa": ss[ia][ok], "sb": ss[ib][ok]}) \
            .drop_duplicates(["a", "b"])
        memo: dict[tuple, int] = {}
        dist = np.empty(len(cand), dtype=np.int64)
        for n_, (x, y) in enumerate(zip(cand["sa"].to_numpy(object),
                                        cand["sb"].to_numpy(object))):
            key = (x, y) if x <= y else (y, x)
            d_ = memo.get(key)
            if d_ is None:
                d_ = _lev_within(x, y, max_dist)
                memo[key] = d_
            dist[n_] = d_
        cand = cand.drop(columns=["sa", "sb"])
        cand["dist"] = dist
        return cand[cand["dist"] <= max_dist]

    return dedup_first(exchange(pref, pairs, mod="vhash", n_buckets=n_buckets),
                       ["a", "b"], ["a", "b"])
