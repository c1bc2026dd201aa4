"""Exact vectorized BM25 top-k (the baseline scorer / cross-check for WAND).

Accumulation order is the contract: contributions are generated term-by-term
in sorted-term order and summed per doc with ``np.add.at`` (unbuffered,
in-order), which reproduces the oracle's scalar accumulation order exactly —
float64 addition is not associative, and rank-identity includes scores.
"""

from __future__ import annotations

import numpy as np

from ..codecs.postings import decode_postings, bm25_tf_factor
from .bm25 import idf


def term_rows_df(rows: list[dict]) -> int:
    """Global df of a term = sum of per-shard posting counts."""
    return sum(int(r["n_postings"]) for r in rows)


def decoded(rows: list[dict], block_size: int) -> list:
    """One term's decoded posting lists in shard order, memoized on each
    segment row (``_pl``; rows are LRU-cached by the reader)."""
    out = []
    for r in sorted(rows, key=lambda r: int(r["shard"])):
        pl = r.get("_pl")
        if pl is None:
            pl = r["_pl"] = decode_postings(r, block_size=block_size)
        out.append(pl)
    return out


def _weighted_postings(term_rows: dict[str, list[dict]], N: int,
                       block_size: int, boosts: dict[str, float] | None):
    """(idf weight, decoded posting list) in (term asc, shard asc) order —
    the accumulation order both scorers share."""
    for term in sorted(term_rows):
        rows = term_rows[term]
        df = term_rows_df(rows)
        if df == 0:
            continue
        w = idf(N, df) * (boosts.get(term, 1.0) if boosts else 1.0)
        for pl in decoded(rows, block_size):
            yield w, pl


def _rank(docs: list[np.ndarray], scores: list[np.ndarray],
          k: int) -> list[tuple[int, float]]:
    """Sum contributions per doc in list order, rank (score desc, doc asc).
    ``k <= 0`` asks for no hits (a negative slice would drop the tail)."""
    if not docs or k <= 0:
        return []
    uniq, inv = np.unique(np.concatenate(docs), return_inverse=True)
    acc = np.zeros(uniq.size, dtype=np.float64)
    np.add.at(acc, inv, np.concatenate(scores))  # in-order, matches oracle accumulation
    order = np.lexsort((uniq, -acc))[:k]
    return [(int(uniq[i]), float(acc[i])) for i in order]


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
    ranked by (score desc, doc_id asc). ``boosts`` multiplies a term's idf
    weight (the reference's per-field boost, shr/SolrUtils.java:13-27)."""
    docs: list[np.ndarray] = []
    scores: list[np.ndarray] = []
    for w, pl in _weighted_postings(term_rows, N, block_size, boosts):
        docs.append(pl.doc_ids.astype(np.int64))
        scores.append(w * bm25_tf_factor(pl.tfs, pl.dls, avgdl, k1, b))
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
    candidates' (tf, dl) are gathered by ``np.searchsorted`` into the
    decoded (doc-sorted) posting arrays — O(|cand| log df) per shard
    instead of scoring every posting of every term (the full-OR cost the
    boolean/phrase paths used to pay). Contribution order per doc is
    (term asc, shard asc), identical to ``brute_force_topk``, so scores
    are float-for-float the same as scoring everything and filtering."""
    cand = np.unique(np.asarray(cand, dtype=np.uint64))
    if cand.size == 0:
        return []
    docs: list[np.ndarray] = []
    scores: list[np.ndarray] = []
    for w, pl in _weighted_postings(term_rows, N, block_size, boosts):
        ids = pl.doc_ids
        if ids.size == 0:  # every posting tombstoned
            continue
        pos = np.searchsorted(ids, cand)
        pos_c = np.minimum(pos, ids.size - 1)
        valid = (pos < ids.size) & (ids[pos_c] == cand)
        if not valid.any():
            continue
        sel = pos[valid]
        docs.append(cand[valid].astype(np.int64))
        scores.append(w * bm25_tf_factor(pl.tfs[sel], pl.dls[sel], avgdl, k1, b))
    return _rank(docs, scores, k)
