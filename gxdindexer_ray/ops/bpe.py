"""Distributed BPE tokenizer training (Sennrich, Haddow & Birch 2016,
"Neural Machine Translation of Rare Words with Subword Units" — the
public byte-pair-encoding merge-learning algorithm), expressed Ray-Data
first.

The working set after the first exchange is the corpus's DISTINCT-WORD
frequency table — at web scale that is a huge Dataset (hundreds of
millions of rows), never driver-resident. Each merge round then costs:

1. one ``map_batches`` pass over the word table emitting adjacent-symbol
   pair counts as per-batch PARTIALS (Counter over the batch's words,
   weighted by word frequency — a loop over distinct VOCABULARY entries,
   not corpus rows; the same per-word sequential scan every public BPE
   trainer performs);
2. a tiny driver-side merge of those partials picking the argmax pair
   (count desc, then lexicographic pair — a fixed deterministic
   tie-break);
3. the winning merge applied map-side to the symbol column next round.

The driver never sees more than the per-batch pair partials (bounded by
the batch's distinct adjacent pairs); the symbol table is re-materialized
per round (it IS the algorithm's working state, exactly the re-pinned
iterate of the k-means/PageRank family here).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa

from ..text.tokenize import doc_term_counts
from .relational import exchange


def word_frequencies(ds, *, text_col: str = "text", n_buckets: int = 32):
    """Corpus distinct-word frequency table as a Dataset (word, freq):
    map-side per-batch (word, tf) partials off the shared tokenizer, ONE
    word-keyed exchange whose reducer owns each word completely."""

    def partial(batch: pa.Table) -> pa.Table:
        vocab, _, codes, tf = doc_term_counts(batch[text_col])
        if len(vocab) == 0:
            return pa.table({"word": pa.array([], pa.string()),
                             "freq": pa.array([], pa.int64())})
        nv = len(vocab)
        agg = np.bincount(codes, weights=tf.astype(np.float64), minlength=nv)
        keep = np.flatnonzero(agg > 0)
        return pa.table({
            "word": vocab.take(pa.array(keep, pa.int64())),
            "freq": pa.array(agg[keep].astype(np.int64), pa.int64())})

    def reduce(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        dic = pc.dictionary_encode(tbl["word"].combine_chunks())
        codes = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        freq = tbl["freq"].to_numpy(zero_copy_only=False).astype(np.float64)
        agg = np.bincount(codes, weights=freq)
        return pa.table({
            "word": dic.dictionary,
            "freq": pa.array(agg.astype(np.int64), pa.int64())})

    return exchange(ds.map_batches(partial, batch_format="pyarrow"), reduce,
                    keys=["word"], n_buckets=n_buckets, batch_format="pyarrow")


def _pair_counts(batch: pa.Table) -> pa.Table:
    freq = batch["freq"].to_numpy(zero_copy_only=False)
    cnt: Counter = Counter()
    for syms, f in zip(batch["symbols"].to_pylist(), freq):
        for i in range(len(syms) - 1):
            cnt[(syms[i], syms[i + 1])] += int(f)
    if not cnt:
        return pa.table({"left": pa.array([], pa.string()),
                         "right": pa.array([], pa.string()),
                         "c": pa.array([], pa.int64())})
    left, right, c = zip(*((l, r, n) for (l, r), n in cnt.items()))
    return pa.table({"left": pa.array(left, pa.string()),
                     "right": pa.array(right, pa.string()),
                     "c": pa.array(c, pa.int64())})


def _apply_merge(left: str, right: str):
    merged = left + right

    def f(batch: pa.Table) -> pa.Table:
        out = []
        for syms in batch["symbols"].to_pylist():
            i, n, acc = 0, len(syms), []
            while i < n:
                if i + 1 < n and syms[i] == left and syms[i + 1] == right:
                    acc.append(merged)
                    i += 2
                else:
                    acc.append(syms[i])
                    i += 1
            out.append(acc)
        return batch.set_column(
            batch.schema.get_field_index("symbols"), "symbols",
            pa.array(out, pa.list_(pa.string())))

    return f


def bpe_train(ds, *, text_col: str = "text", n_merges: int = 8,
              n_buckets: int = 32) -> pd.DataFrame:
    """Learn ``n_merges`` BPE merges from a (text) Dataset. Returns the
    ordered merge table (rank, left, right, count) — the artifact a
    tokenizer would apply. Deterministic: ties on count break
    lexicographically by (left, right)."""
    words = word_frequencies(ds, text_col=text_col, n_buckets=n_buckets)

    def to_symbols(batch: pa.Table) -> pa.Table:
        syms = [list(w) for w in batch["word"].to_pylist()]
        return pa.table({"symbols": pa.array(syms, pa.list_(pa.string())),
                         "freq": batch["freq"]})

    table = words.map_batches(to_symbols,
                              batch_format="pyarrow").materialize()
    merges = []
    for rank in range(n_merges):
        parts = table.map_batches(_pair_counts,
                                  batch_format="pyarrow").to_pandas()
        if parts.empty:
            break
        agg = parts.groupby(["left", "right"], sort=False)["c"].sum() \
            .reset_index()
        # linear argmax (count desc, then lexicographic pair) — no full
        # sort of the pair table per round
        top = agg[agg["c"] == agg["c"].max()]
        best = top.sort_values(["left", "right"], kind="mergesort").iloc[0]
        merges.append((rank, str(best["left"]), str(best["right"]),
                       int(best["c"])))
        table = table.map_batches(
            _apply_merge(str(best["left"]), str(best["right"])),
            batch_format="pyarrow").materialize()
    return pd.DataFrame(merges,
                        columns=["rank", "left", "right", "count"])


def bpe_encode(ds, merges: pd.DataFrame, *, id_col: str = "doc_id",
               text_col: str = "text", out_col: str = "n_bpe_tokens"):
    """Apply a learned merge list (``bpe_train`` output) to a corpus and
    count the resulting subword tokens per document — the tokenizer-apply
    side of the BPE pair. Merges apply in RANK order (the standard greedy
    scheme every public BPE implementation uses).

    Map-side only: the merge list is a tiny closure table; each batch
    encodes its DISTINCT words once (dictionary encode) and recovers
    per-doc totals from the code stream, so the per-word sequential merge
    scan pays per vocabulary entry, not per corpus token."""
    ranked = [(str(l), str(r)) for l, r in
              zip(merges["left"], merges["right"])]

    def encode_word(word: str) -> int:
        syms = list(word)
        for left, right in ranked:
            i, out = 0, []
            n = len(syms)
            while i < n:
                if i + 1 < n and syms[i] == left and syms[i + 1] == right:
                    out.append(left + right)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            syms = out
            if len(syms) == 1:
                break
        return len(syms)

    def f(batch: pa.Table) -> pa.Table:
        from ..text.tokenize import tokenize_column
        import pyarrow.compute as pc

        flat, doc_idx = tokenize_column(batch[text_col])
        n_rows = batch.num_rows
        if len(flat) == 0:
            return pa.table({id_col: batch[id_col],
                             out_col: pa.array(np.zeros(n_rows, np.int64),
                                               pa.int64())})
        dic = pc.dictionary_encode(
            flat.combine_chunks() if isinstance(flat, pa.ChunkedArray)
            else flat)
        codes = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        per_word = np.array([encode_word(w)
                             for w in dic.dictionary.to_pylist()],
                            dtype=np.int64)
        totals = np.bincount(doc_idx, weights=per_word[codes],
                             minlength=n_rows).astype(np.int64)
        return pa.table({id_col: batch[id_col],
                         out_col: pa.array(totals, pa.int64())})

    return ds.map_batches(f, batch_format="pyarrow")
