"""Exact vectorized BM25 top-k: the one exhaustive kernel that
``brute_force_topk``, ``candidate_topk`` and every serving path that needs
a term's decoded postings (``decoded``) share.

Kernel contract:

- **Batched decode.** All of a query's rows that lack a decoded list are
  decoded in one pass (``codecs.postings.decode_postings_many``: one
  varint pass over the concatenated payloads, one segmented prefix sum for
  the doc ids, each row's ``_dead`` tombstone mask, each row's posting
  count still checked). The list is memoized as ``_pl`` on the row; rows
  are LRU-cached by the reader, so a hot term is decoded once per reader.
- **Memoized tf factor.** Each row also memoizes its dl-normalized
  ``bm25_tf_factor`` array as ``_tf``, keyed on ``(avgdl, k1, b)`` (the
  same row dict may be scored under other parameters). A query only
  multiplies it by the term's idf weight.
- **Accumulation order.** Contributions per doc add in (term asc, shard
  asc) order, starting from 0.0: the oracle's scalar order. Float64
  addition is not associative and rank identity includes scores, so docs
  are grouped by a stable sort and summed by ``np.add.at`` (unbuffered, in
  index order), never by a reduction with its own order
  (``np.add.reduceat``).
- **Top-k by partition.** ``np.partition`` finds the k-th score; only the
  docs scoring at least that much (ties kept) are lexsorted by (score
  desc, doc asc).
"""

from __future__ import annotations

import numpy as np

from ..codecs.postings import PostingList, bm25_tf_factor, decode_postings_many
# the one-row decode, re-exported: perfbench's tracer times this name, so
# its ``codecs.decode`` layer now counts only direct one-row decodes
from ..codecs.postings import decode_postings  # noqa: F401
from .bm25 import idf


def term_rows_df(rows: list[dict]) -> int:
    """Global df of a term = sum of per-shard posting counts."""
    return sum(int(r["n_postings"]) for r in rows)


def _shard_ordered(term_rows: dict[str, list[dict]]) -> dict[str, list[dict]]:
    """Each term's rows in shard order, after decoding every row without a
    memoized ``_pl`` (across all terms) in one batched pass."""
    ordered = {t: sorted(rows, key=lambda r: int(r["shard"]))
               for t, rows in term_rows.items()}
    todo = [r for rows in ordered.values() for r in rows if "_pl" not in r]
    if todo:
        for r, pl in zip(todo, decode_postings_many(todo)):
            r["_pl"] = pl
    return ordered


def decoded(term_rows: dict[str, list[dict]]) -> dict[str, list[PostingList]]:
    """term -> its decoded posting lists in shard order (batched, memoized
    decode; see the module docstring)."""
    return {t: [r["_pl"] for r in rows] for t, rows in _shard_ordered(term_rows).items()}


def _weighted_lists(term_rows: dict[str, list[dict]], N: int, avgdl: float,
                    k1: float, b: float, boosts: dict[str, float] | None,
                    ) -> list[tuple[float, PostingList, np.ndarray]]:
    """(idf weight, posting list, tf factor) per row in (term asc, shard
    asc) order — the accumulation order both scorers share. The factors of
    rows without a memo for ``(avgdl, k1, b)`` are computed in one pass."""
    ordered = _shard_ordered(term_rows)
    key = (avgdl, k1, b)
    out = []
    stale = []
    for term in sorted(ordered):
        rows = ordered[term]
        df = term_rows_df(rows)
        if df == 0:
            continue
        w = idf(N, df) * (boosts.get(term, 1.0) if boosts else 1.0)
        for r in rows:
            out.append((w, r))
            memo = r.get("_tf")
            if memo is None or memo[0] != key:
                stale.append(r)
    if stale:
        f = bm25_tf_factor(np.concatenate([r["_pl"].tfs for r in stale]),
                           np.concatenate([r["_pl"].dls for r in stale]), avgdl, k1, b)
        e = 0
        for r in stale:
            s, e = e, e + len(r["_pl"])
            r["_tf"] = (key, f[s:e])
    return [(w, r["_pl"], r["_tf"][1]) for w, r in out]


def _rank(docs: np.ndarray, scores: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Sum contributions per doc in array order, rank (score desc, doc asc)."""
    if docs.size == 0:
        return []
    order = np.argsort(docs, kind="stable")  # keeps each doc's contribution order
    d = docs[order]
    new = np.empty(d.size, dtype=bool)
    new[0] = True
    np.not_equal(d[1:], d[:-1], out=new[1:])
    uniq = d[np.flatnonzero(new)]
    acc = np.zeros(uniq.size, dtype=np.float64)
    # unbuffered and in index order: each doc's contributions add in
    # array order, as the oracle adds them
    np.add.at(acc, np.cumsum(new) - 1, scores[order])
    if k < acc.size:
        neg = -acc
        kth = np.partition(neg, k - 1)[k - 1]
        keep = np.flatnonzero(~(neg > kth))  # ties with the k-th score stay
        uniq, acc = uniq[keep], acc[keep]
    top = np.lexsort((uniq, -acc))[:k]
    return list(zip(uniq[top].tolist(), acc[top].tolist()))


def brute_force_topk(
    term_rows: dict[str, list[dict]],
    *,
    N: int,
    avgdl: float,
    k1: float,
    b: float,
    block_size: int,
    k: int,
    boosts: dict[str, float] | None = None,
) -> list[tuple[int, float]]:
    """term_rows: term -> segment rows (its shards). Returns [(doc_id, score)]
    ranked by (score desc, doc_id asc); ``k <= 0`` asks for no hits.
    ``boosts`` multiplies a term's idf weight (the reference's per-field
    boost, shr/SolrUtils.java:13-27). ``block_size`` is the block-max WAND
    scorer's; the exhaustive kernel decodes whole rows."""
    if k <= 0:
        return []
    lists = _weighted_lists(term_rows, N, avgdl, k1, b, boosts)
    if not lists:
        return []
    docs = np.concatenate([pl.doc_ids for _, pl, _ in lists])
    scores = np.concatenate([w * f for w, _, f in lists])
    return _rank(docs, scores, k)


def candidate_topk(
    term_rows: dict[str, list[dict]],
    cand: np.ndarray,
    *,
    N: int,
    avgdl: float,
    k1: float,
    b: float,
    block_size: int,
    k: int,
    boosts: dict[str, float] | None = None,
) -> list[tuple[int, float]]:
    """BM25 top-k over a FIXED candidate doc set: per (term, shard) the
    candidates' positions in the decoded (doc-sorted) list come from
    ``np.searchsorted`` and gather the memoized tf factors — O(|cand| log
    df) per shard instead of scoring every posting of every term.
    Contribution order per doc is (term asc, shard asc), identical to
    ``brute_force_topk``, so scores are float-for-float the same as
    scoring everything and filtering."""
    cand = np.unique(np.asarray(cand, dtype=np.uint64))
    if cand.size == 0 or k <= 0:
        return []
    docs: list[np.ndarray] = []
    scores: list[np.ndarray] = []
    for w, pl, f in _weighted_lists(term_rows, N, avgdl, k1, b, boosts):
        ids = pl.doc_ids
        if ids.size == 0:  # every posting tombstoned
            continue
        pos = np.searchsorted(ids, cand)
        pos_c = np.minimum(pos, ids.size - 1)
        valid = (pos < ids.size) & (ids[pos_c] == cand)
        if not valid.any():
            continue
        docs.append(cand[valid])
        scores.append(w * f[pos[valid]])
    if not docs:
        return []
    return _rank(np.concatenate(docs), np.concatenate(scores), k)
