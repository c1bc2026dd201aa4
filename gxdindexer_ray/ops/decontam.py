"""Benchmark decontamination: exact distinct n-gram overlap between a
candidate corpus and a benchmark/eval set.

The standard LLM-training-data hygiene step (cf. GPT-3 appendix C / PaLM
"data contamination" methodology, both public): a training document is
contaminated if it shares at least one word n-gram with any benchmark
document. This module computes, for every candidate doc, HOW MANY of its
distinct n-grams appear anywhere in the benchmark side — exact (real
n-gram strings compared, no hashing), vectorized, one shuffle.

Shape at 100 TB:
- n-gram generation is map-side Arrow C kernels (``tokenize_column`` →
  sliced ``binary_join_element_wise``), with a per-batch DISTINCT
  (doc, n-gram) pre-reduce so repeated boilerplate inside one document
  crosses the exchange once.
- ONE hash exchange keyed on the n-gram string co-locates candidate and
  benchmark occurrences of the same n-gram; each reducer semi-joins its
  candidates against its benchmark set and emits per-doc partial counts
  (one row per (doc, bucket) — tiny).
- The final per-doc sum is a Dataset combiner-tree aggregate over those
  partials; the corpus itself never leaves the map side un-reduced and
  nothing is broadcast (the benchmark side shuffles WITH the candidates,
  so it may be arbitrarily large — no driver-held set).

Tokenization is the frozen spec in ``text/tokenize.py`` so the DuckDB
oracle (regexp_split_to_array + list_slice n-grams) matches byte-for-byte.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data.aggregate import Sum

from ..text.tokenize import tokenize_column
from .relational import exchange


def ngram_pairs(batch: pa.Table, *, id_col: str, text_col: str,
                n: int) -> pa.Table:
    """Distinct (doc_id, n-gram string) pairs for one batch, vectorized:
    tokens come from ``tokenize_column`` (Arrow C kernels), the i-th
    n-gram is the space-join of token slices [i, i+n), and validity is
    "all n tokens belong to the same row"."""
    flat, doc_idx = tokenize_column(batch[text_col])
    m = len(flat) - n + 1
    if m <= 0:
        return pa.table({id_col: pa.array([], batch[id_col].type),
                         "g": pa.array([], pa.string())})
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    valid = doc_idx[:m] == doc_idx[n - 1:]
    parts = [flat.slice(i, m) for i in range(n)]
    grams = pc.binary_join_element_wise(*parts, " ")
    keep = pa.array(valid)
    ids = batch[id_col].take(pa.array(doc_idx[:m][valid], pa.int64()))
    tbl = pa.table({id_col: ids, "g": grams.filter(keep)})
    # per-batch distinct: repeated n-grams within a doc cross the wire once
    return tbl.group_by([id_col, "g"]).aggregate([])


def ngram_contamination(cand, bench=None, *, id_col: str = "doc_id",
                        text_col: str = "text", n: int = 4,
                        n_buckets: int = 64, out_col: str = "hit_ngrams",
                        bench_mask=None):
    """For each doc in ``cand``, count its DISTINCT n-grams that appear in
    ANY ``bench`` doc; emits only contaminated docs (count >= 1) as
    (id_col, out_col). Exact string comparison — no hash collisions.

    Two input shapes:
    - ``(cand, bench)``: two separate Datasets.
    - ``(corpus, bench_mask=fn)``: ONE Dataset split map-side by
      ``bench_mask(batch) -> bool ndarray`` (True = benchmark row). This
      reads and tokenizes the corpus ONCE instead of executing the shared
      upstream plan per branched side — the 100-TB shape when both splits
      come from the same table."""

    def gen_cand(batch: pa.Table) -> pa.Table:
        tbl = ngram_pairs(batch, id_col=id_col, text_col=text_col, n=n)
        return tbl.append_column(
            "is_bench", pa.array(np.zeros(tbl.num_rows, np.int8)))

    def gen_bench(batch: pa.Table) -> pa.Table:
        tbl = ngram_pairs(batch, id_col=id_col, text_col=text_col, n=n)
        # the benchmark side only needs the DISTINCT n-gram set; doc ids
        # are nulled (in the INPUT's id type, so the union schema matches
        # for string/int32/... ids too)
        g = pc.unique(tbl["g"])
        return pa.table({id_col: pa.nulls(len(g), tbl.schema.field(id_col).type),
                         "g": g,
                         "is_bench": pa.array(np.ones(len(g), np.int8))})

    if bench_mask is not None:
        if bench is not None:
            raise ValueError("pass either bench or bench_mask, not both")

        def gen_both(batch: pa.Table) -> pa.Table:
            m = pa.array(np.asarray(bench_mask(batch), dtype=bool))
            return pa.concat_tables([gen_cand(batch.filter(pc.invert(m))),
                                     gen_bench(batch.filter(m))])

        sides = cand.map_batches(gen_both, batch_format="pyarrow")
    else:
        sides = (cand.map_batches(gen_cand, batch_format="pyarrow")
                 .union(bench.map_batches(gen_bench, batch_format="pyarrow")))

    def bucket_fn(tbl: pa.Table) -> pa.Table:
        is_b = pc.equal(tbl["is_bench"], 1)
        bench_g = pc.unique(tbl.filter(is_b)["g"])
        cand_t = tbl.filter(pc.invert(is_b))
        if len(bench_g) and cand_t.num_rows:
            cand_t = cand_t.filter(
                pc.is_in(cand_t["g"], value_set=bench_g))
        else:
            cand_t = cand_t.slice(0, 0)
        # re-distinct across batches (the map-side distinct is per batch),
        # then count per doc — final for this bucket's n-grams
        hits = cand_t.select([id_col, "g"]).group_by([id_col, "g"]).aggregate([])
        out = hits.group_by([id_col]).aggregate([("g", "count")])
        return out.rename_columns([id_col, out_col])

    partials = exchange(sides, bucket_fn, keys=["g"], n_buckets=n_buckets,
                        batch_format="pyarrow")
    # each n-gram lives in exactly one bucket and was de-duplicated there,
    # so per-bucket counts are disjoint: the cross-bucket sum is exact
    return partials.groupby(id_col).aggregate(
        Sum(out_col, alias_name=out_col))
