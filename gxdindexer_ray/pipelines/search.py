"""Query-time top-k BM25 over a built index.

``SearchEngine`` is driver-side (one reader, for tests/CLI);
``batch_search`` runs a query *dataset* through an actor pool where each
actor opens the index once (``__init__``) and serves many query batches —
the index-loaded-once-per-worker case of SURVEY.md §7.2.
"""

from __future__ import annotations

from pathlib import Path

import pyarrow as pa

from ..index.layout import Generation, IndexState, as_state
from ..index.reader import IndexReader
from ..query.brute import brute_force_topk
from ..query.wand import block_max_wand_topk
from ..text.tokenize import tokenize


def _decoded(rows: list[dict], block_size: int):
    from ..codecs.postings import decode_postings

    out = []
    for r in sorted(rows, key=lambda r: int(r["shard"])):
        pl = r.get("_pl")
        if pl is None:
            pl = decode_postings(r, block_size=block_size)
            r["_pl"] = pl
        out.append(pl)
    return out


class PhraseAndBooleanMixin:
    """Boolean and phrase retrieval over the same segments.

    - boolean: vectorized posting-set algebra (np.intersect1d/setdiff1d on
      docID arrays) -> BM25-score the survivors; ranks/scores match the
      oracle because survivors are scored with the standard scorer.
    - phrase: candidate docs = AND of the phrase terms' postings, then
      exact adjacency verification against the doc-store text (docstore
      files are doc_id-sorted, so the candidate reads are pruned
      row-group reads, not scans). This is the verify-on-candidates design:
      no positions in the postings, exact results, cost bounded by the
      rarest term's df."""

    def _score_candidates(self, terms: list[str], cand, k: int) -> list[tuple[int, float]]:
        """Score ONLY the candidate set (searchsorted tf/dl gather) — cost
        no longer proportional to the terms' total postings."""
        from ..query.brute import candidate_topk

        term_rows = self.reader.fetch_terms(terms)
        return candidate_topk(
            term_rows, cand,
            N=self.reader.N, avgdl=self.reader.avgdl, k1=self.reader.k1,
            b=self.reader.b, block_size=self.reader.block_size, k=k,
        )

    def _candidate_docs(self, terms: list[str]) -> "np.ndarray":
        import numpy as np

        if not terms:
            return np.empty(0, dtype=np.uint64)
        term_rows = self.reader.fetch_terms(sorted(set(terms)))
        if len(term_rows) < len(set(terms)):
            return np.empty(0, dtype=np.uint64)  # some term matches nothing
        sets = []
        for t, rows in term_rows.items():
            pls = _decoded(rows, self.reader.block_size)
            sets.append(np.concatenate([pl.doc_ids for pl in pls]))
        sets.sort(key=len)
        cand = sets[0]
        for s in sets[1:]:
            cand = np.intersect1d(cand, s, assume_unique=True)
            if cand.size == 0:
                break
        return cand

    def boolean_topk(self, must: list[str], k: int, must_not: list[str] | None = None,
                     ) -> list[tuple[int, float]]:
        """AND semantics over ``must`` terms minus ``must_not``, BM25-ranked."""
        import numpy as np

        from ..text.tokenize import tokenize

        must = [t for m in must for t in tokenize(m)]
        must_not = [t for m in (must_not or []) for t in tokenize(m)]
        cand = self._candidate_docs(must)
        if cand.size and must_not:
            for t, rows in self.reader.fetch_terms(sorted(set(must_not))).items():
                excl = np.concatenate([pl.doc_ids for pl in _decoded(rows, self.reader.block_size)])
                cand = np.setdiff1d(cand, excl, assume_unique=True)
        if cand.size == 0:
            return []
        return self._score_candidates(sorted(set(must)), cand, k)

    def phrase_topk(self, phrase: str, k: int) -> list[tuple[int, float]]:
        """Exact phrase match (tokens adjacent in spec order), BM25-ranked
        over the phrase's terms. Uses index-resident positions when the
        index was built with ``store_positions``; otherwise verifies
        adjacency against the doc-store text."""
        from ..text.tokenize import tokenize

        toks = tokenize(phrase)
        if not toks:
            return []
        cand = self._candidate_docs(toks)
        if cand.size == 0:
            return []
        term_rows = self.reader.fetch_terms(sorted(set(toks)))
        has_positions = all(
            r.get("pos_payload") is not None for rows in term_rows.values() for r in rows
        )
        if has_positions:
            matched = self._verify_phrase_positional(cand, toks, term_rows)
        else:
            texts = self._texts_for(cand)
            matched = []
            n = len(toks)
            for did in cand.tolist():
                dtoks = tokenize(texts.get(int(did), ""))
                for i in range(len(dtoks) - n + 1):
                    if dtoks[i:i + n] == toks:
                        matched.append(int(did))
                        break
        if not matched:
            return []
        import numpy as np

        return self._score_candidates(sorted(set(toks)), np.asarray(matched, dtype=np.uint64), k)

    def _verify_phrase_positional(self, cand, toks: list[str], term_rows) -> list[int]:
        """Adjacency check straight from the position streams: doc survives
        iff some position p of toks[0] has p+j in positions(toks[j]) for all
        j — no docstore read at all."""
        import numpy as np

        from ..codecs.postings import decode_positions

        # per term: (sorted doc array, offsets, positions) across shards
        per_term: dict[str, list] = {}
        for t, rows in term_rows.items():
            parts = []
            for r, pl in zip(sorted(rows, key=lambda r: int(r["shard"])),
                             _decoded(rows, self.reader.block_size)):
                off, pos = decode_positions(r, pl)
                parts.append((pl.doc_ids, off, pos))
            per_term[t] = parts

        def positions_of(t: str, did: int) -> np.ndarray:
            for doc_ids, off, pos in per_term[t]:
                i = int(np.searchsorted(doc_ids, did))
                if i < doc_ids.size and int(doc_ids[i]) == did:
                    return pos[off[i]:off[i + 1]]
            return np.empty(0, dtype=np.uint64)

        matched = []
        for did in cand.tolist():
            surv = positions_of(toks[0], int(did))
            for j, t in enumerate(toks[1:], 1):
                if surv.size == 0:
                    break
                pj = positions_of(t, int(did))
                surv = surv[np.isin(surv + np.uint64(j), pj)]
            if surv.size:
                matched.append(int(did))
        return matched

    def _meta_for(self, doc_ids, columns: list[str]) -> pa.Table:
        """Docstore metadata for a match set, read from the reader's
        snapshot with each generation's tombstoned rows masked. Docstore
        files are doc_id-sorted with row-group stats, so the isin filter
        resolves to row-group-pruned reads, not scans. A snapshot with no
        docstore file (every doc deleted, then compacted) gives an empty
        table of the requested columns."""
        import pyarrow.compute as pc
        import pyarrow.dataset as pads

        from .build import DOCSTORE_SCHEMA

        ids = [int(d) for d in doc_ids]
        cols = ["doc_id", *columns]
        parts = [g.live(pads.dataset(list(g.docs), format="parquet").to_table(
                     columns=cols, filter=pc.field("doc_id").isin(ids)))
                 for g in self.reader.state.generations if g.docs]
        if not parts:
            return pa.schema([DOCSTORE_SCHEMA.field(c) for c in cols]).empty_table()
        return pa.concat_tables(parts)

    def _texts_for(self, doc_ids) -> dict[int, str]:
        tbl = self._meta_for(doc_ids, ["text"])
        return dict(zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()))


class DocFilter:
    """A named, cacheable docstore predicate — the reference deployment's
    Solr ``fq`` (filter query). ``columns`` are the docstore columns the
    vectorized ``mask_fn(table) -> pa.BooleanArray`` needs; ``key`` is the
    cache identity (two filters with equal keys are assumed equal)."""

    def __init__(self, key: str, columns: list[str], mask_fn):
        self.key = key
        self.columns = list(columns)
        self.mask_fn = mask_fn


def parse_doc_filter(expr: str) -> DocFilter:
    """Tiny fq minilang for the CLI: ``COL OP VALUE`` with OP one of
    >=, <=, ==, !=, >, < — numeric VALUE compares numerically, anything
    else compares as a string (e.g. ``dl>=50``, ``lang==en``)."""
    import re

    import pyarrow.compute as pc

    m = re.fullmatch(r"\s*(\w+)\s*(>=|<=|==|!=|>|<)\s*(.+?)\s*", expr)
    if not m:
        raise ValueError(f"cannot parse filter {expr!r} (want COL OP VALUE)")
    col, op, raw = m.groups()
    try:
        val: object = int(raw)
    except ValueError:
        try:
            val = float(raw)
        except ValueError:
            val = raw
    fn = {">=": pc.greater_equal, "<=": pc.less_equal, "==": pc.equal,
          "!=": pc.not_equal, ">": pc.greater, "<": pc.less}[op]
    return DocFilter(expr.strip(), [col], lambda t: fn(t[col], val))


# docstores above this many bytes build filter docsets as a Ray Data job
# (cold-filter cost then scales with the cluster, not one process)
DIST_FILTER_MIN_BYTES = 256 * 1024 * 1024


def _passing(t: pa.Table, doc_filter: DocFilter, g: Generation) -> pa.Table:
    """doc_ids of the live rows of ``t`` (generation ``g``'s docstore rows)
    that pass ``doc_filter``: the stale row of a deleted or re-added doc
    can't admit it (the posting decode's per-generation tombstone rule)."""
    return g.live(t.filter(doc_filter.mask_fn(t))).select(["doc_id"])


def build_filter_docset(index: str | Path | IndexState, doc_filter: DocFilter, *,
                        dist_min_bytes: int = DIST_FILTER_MIN_BYTES) -> "np.ndarray":
    """Sorted uint64 array of doc ids passing ``doc_filter`` — the fq
    docset, over one index snapshot. Docstores above ``dist_min_bytes``
    scan as a Ray Data job (column-pruned parallel read; only passing ids,
    8 B each, return to the driver); smaller ones scan locally.
    Module-level so pool serving can build the set ONCE and broadcast it
    instead of paying the scan per actor."""
    import os

    import numpy as np
    import pyarrow.dataset as pads
    import ray

    gens = [g for g in as_state(index).generations if g.docs]
    columns = ["doc_id", *doc_filter.columns]
    parts = [np.empty(0, np.int64)]
    if gens and ray.is_initialized() and sum(
            os.path.getsize(f) for g in gens for f in g.docs) >= dist_min_bytes:
        import ray.data as rd

        parts_ds = []
        for g in gens:
            g_ref = ray.put(g)
            parts_ds.append(rd.read_parquet(list(g.docs), columns=columns).map_batches(
                lambda t, g_ref=g_ref: _passing(t, doc_filter, ray.get(g_ref)),
                batch_format="pyarrow"))
        ds = parts_ds[0].union(*parts_ds[1:]) if len(parts_ds) > 1 else parts_ds[0]
        parts += [b["doc_id"].to_numpy() for b in ds.iter_batches(batch_format="pyarrow")]
    else:
        for g in gens:
            parts += [_passing(pa.Table.from_batches([b]), doc_filter, g)["doc_id"].to_numpy()
                      for b in pads.dataset(list(g.docs), format="parquet")
                      .to_batches(columns=columns)]
    return np.unique(np.concatenate(parts).astype(np.uint64))


def _deletes(term: str, max_dist: int) -> set[str]:
    """All strings reachable from ``term`` by up to ``max_dist`` character
    deletions, including ``term`` itself (the SymSpell neighborhood)."""
    out = {term}
    frontier = {term}
    for _ in range(max_dist):
        nxt = {s[:i] + s[i + 1:] for s in frontier for i in range(len(s))}
        nxt -= out
        if not nxt:
            break
        out |= nxt
        frontier = nxt
    return out


def _symspell_arrays(terms, max_dist: int):
    """In-process SymSpell build: (sorted delete-variant array, aligned
    term-index array). The columnar sorted-array form replaces the old
    dict[str, list] — same exhaustive probe via searchsorted ranges, a
    fraction of the memory, and the exact layout the persisted artifact
    loads into."""
    import numpy as np

    vs: list[str] = []
    tis: list[int] = []
    for ti, t in enumerate(terms):
        for v in _deletes(str(t), max_dist):
            vs.append(v)
            tis.append(ti)
    variants = np.asarray(vs, dtype=object)
    order = np.argsort(variants, kind="mergesort")
    return variants[order], np.asarray(tis, dtype=np.int64)[order]


def _symspell_paths(index_dir, max_dist: int):
    base = Path(index_dir)
    return (base / f"symspell_d{max_dist}",
            base / f"symspell_d{max_dist}_manifest.json")


def build_symspell_index(index_dir, max_dist: int, *, terms=None) -> int:
    """Build and SEAL the deletion-neighborhood (SymSpell) index next to
    the segments (VERDICT r4 #3: the in-process build is minutes per worker
    at a 100M-term lexicon; this builds it once, in the same pass family as
    the lexicon, and every reader loads the columnar artifact instead).

    Distributed shape: the lexicon terms fan out over Ray Data blocks, each
    batch explodes its terms' <=``max_dist``-deletion variants (the only
    per-string Python, parallel across the cluster), one global sort by
    variant, ordered parquet write. Commit is manifest-LAST (same atomic
    discipline as state/manifest.py): data dir is staged under a tmp name,
    renamed, and only then the manifest (term count + variant count) is
    written — a crash leaves no half-artifact a loader would accept.
    Idempotent: a sealed artifact matching the current lexicon is kept.
    Returns the number of (variant, term) entries."""
    import os
    import shutil

    import numpy as np
    import ray.data as rd

    from ..state.manifest import atomic_write_json, read_json

    if terms is None:
        terms = IndexReader(index_dir, warm_top_terms=0).terms_with_prefix("")
    terms = [str(t) for t in terms]
    n_terms = len(terms)
    final, man_path = _symspell_paths(index_dir, max_dist)
    man = read_json(man_path)
    if man and man.get("n_terms") == n_terms \
            and man.get("max_dist") == max_dist and final.is_dir():
        # is_dir(): a manifest without its data dir (crash between rmtree
        # and rename, or manual deletion) must trigger a rebuild, not be
        # trusted forever
        return int(man["n_variants"])

    def explode(batch: pa.Table) -> pa.Table:
        out_v: list[str] = []
        out_ti: list[int] = []
        for ti, t in zip(batch["ti"].to_pylist(), batch["term"].to_pylist()):
            for v in _deletes(t, max_dist):
                out_v.append(v)
                out_ti.append(ti)
        return pa.table({"variant": pa.array(out_v, pa.string()),
                         "ti": pa.array(out_ti, pa.int64())})

    src = rd.from_arrow(pa.table({
        "ti": pa.array(np.arange(n_terms, dtype=np.int64)),
        "term": pa.array(terms, pa.string())}))
    if n_terms > 4096:
        src = src.repartition(min(64, max(2, n_terms // 4096)))
    out = src.map_batches(explode, batch_format="pyarrow") \
        .sort("variant").materialize()
    n_variants = out.count()
    tmp = final.parent / (final.name + f".tmp-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    out.write_parquet(str(tmp))
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    atomic_write_json(man_path, {"max_dist": int(max_dist),
                                 "n_terms": n_terms,
                                 "n_variants": int(n_variants)})
    return int(n_variants)


def load_symspell_index(index_dir, max_dist: int, *, expected_terms=None):
    """Load a sealed SymSpell artifact as (sorted variant array, term-index
    array), or None when absent/stale (manifest missing, or built against a
    different lexicon size — e.g. the index was rebuilt since). Parquet
    files may concatenate out of global order, so sortedness is verified
    and restored with one argsort — still orders of magnitude cheaper than
    re-exploding the lexicon in every process."""
    import numpy as np
    import pyarrow.parquet as pq

    from ..state.manifest import read_json

    path, man_path = _symspell_paths(index_dir, max_dist)
    man = read_json(man_path)
    if not man or not path.is_dir():
        return None
    if expected_terms is not None and man.get("n_terms") != expected_terms:
        return None
    t = pq.read_table(path, columns=["variant", "ti"])
    variants = t["variant"].to_numpy(zero_copy_only=False)
    tis = t["ti"].to_numpy(zero_copy_only=False).astype(np.int64)
    if len(variants) > 1 and np.any(variants[:-1] > variants[1:]):
        order = np.argsort(variants, kind="mergesort")
        variants, tis = variants[order], tis[order]
    return variants, tis


def _levenshtein_vec(term: str, cand, clens):
    """Plain Levenshtein distance of ``term`` against every candidate at
    once: fixed-width unicode char-code matrix + two-row DP, vectorized
    across candidates (no Python loop over candidates)."""
    import numpy as np

    width = int(clens.max())
    M = np.asarray(cand, dtype=f"U{width}").view(np.uint32) \
        .reshape(cand.size, width)
    qcs = np.frombuffer(term.encode("utf-32-le"), dtype=np.uint32)
    prev = np.tile(np.arange(width + 1, dtype=np.int32), (cand.size, 1))
    cur = np.empty_like(prev)
    for i, qc in enumerate(qcs):
        cur[:, 0] = i + 1
        sub = (M != qc).astype(np.int32)
        for j in range(1, width + 1):
            cur[:, j] = np.minimum(
                np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1),
                prev[:, j - 1] + sub[:, j - 1])
        prev, cur = cur, prev
    return prev[np.arange(cand.size), clens]


class ServingFeaturesMixin:
    """Query-time serving features the reference's Solr deployment layers on
    the raw index — filter queries, facets, field collapsing — re-expressed
    over our segments + docstore (semantics parity only, no Solr code):

    - ``filtered_topk``: Solr-fq semantics — BM25 stats stay GLOBAL (df, N,
      avgdl unchanged), only the result set is restricted. The filter's
      doc-id set is computed once by a column-pruned docstore scan and
      cached per ``DocFilter.key`` (Solr's filterCache), so repeated
      queries under the same filter pay zero extra I/O.
    - ``facet_counts``: value counts of a docstore field over the OR match
      set (Solr facet.field).
    - ``collapse_topk``: best-scoring hit per field value (Solr field
      collapsing / group.field), top-k groups.

    Scale bounds (all df-/selectivity-proportional, none corpus-sized):
    match sets are the union of the query terms' postings (tombstone-masked
    at decode); metadata fetches are doc_id-isin reads against the
    docID-range-clustered docstore (row-group pruned); a cached filter
    docset costs 8 B per passing doc."""

    _FILTER_CACHE_MAX = 32

    # class attribute so tests can force either docset path per instance
    DIST_FILTER_MIN_BYTES = DIST_FILTER_MIN_BYTES

    def filter_docset(self, doc_filter: DocFilter):
        """Sorted uint64 doc-id array passing the filter (cached)."""
        cache = getattr(self, "_filter_cache", None)
        if cache is None:
            cache = self._filter_cache = {}
        hit = cache.get(doc_filter.key)
        if hit is not None:
            return hit
        out = build_filter_docset(self.reader.state, doc_filter,
                                  dist_min_bytes=self.DIST_FILTER_MIN_BYTES)
        if len(cache) >= self._FILTER_CACHE_MAX:
            cache.pop(next(iter(cache)))
        cache[doc_filter.key] = out
        return out

    def _union_docs(self, terms: list[str]) -> "np.ndarray":
        """OR match set: sorted union of the terms' posting docIDs
        (already tombstone-masked at decode)."""
        import numpy as np

        if not terms:
            return np.empty(0, dtype=np.uint64)
        term_rows = self.reader.fetch_terms(sorted(set(terms)))
        sets = [pl.doc_ids for rows in term_rows.values()
                for pl in _decoded(rows, self.reader.block_size)]
        if not sets:
            return np.empty(0, dtype=np.uint64)
        return np.unique(np.concatenate(sets))

    def filtered_topk(self, query: str, k: int, doc_filter: DocFilter,
                      ) -> list[tuple[int, float]]:
        """Top-k under a dynamic metadata filter, fq semantics: identical
        scores to an unfiltered query (global stats), restricted results.
        Contrast with ``build_filtered_index`` (q42), which derives a
        sub-corpus index with its OWN stats."""
        return self.topk_in_docset(query, k, self.filter_docset(doc_filter))

    def topk_in_docset(self, query: str, k: int, allowed: "np.ndarray",
                       ) -> list[tuple[int, float]]:
        """Top-k restricted to a precomputed sorted uint64 docset (the fq
        fast path when the docset is already built and broadcast — pool
        actors intersect, they never re-scan)."""
        import numpy as np

        terms = sorted(set(tokenize(query)))
        cand = self._union_docs(terms)
        if cand.size == 0:
            return []
        cand = np.intersect1d(cand, allowed, assume_unique=True)
        if cand.size == 0:
            return []
        return self._score_candidates(terms, cand, k)

    def facet_counts(self, query: str, field: str, value_fn=None,
                     top: int | None = None) -> pa.Table:
        """(value, n_docs) over the OR match set, count-desc then value-asc.
        ``value_fn`` (optional, vectorized ``ChunkedArray -> Array``) derives
        the facet value from the raw column (e.g. site from url)."""
        import pyarrow.compute as pc

        terms = sorted(set(tokenize(query)))
        cand = self._union_docs(terms)
        if cand.size == 0:
            empty = pa.table({"value": pa.array([], pa.string()),
                              "n_docs": pa.array([], pa.int64())})
            return empty
        meta = self._meta_for(cand, [field])
        vals = meta[field]
        if value_fn is not None:
            vals = value_fn(vals)
        vc = pc.value_counts(vals)
        out = pa.table({"value": vc.field("values"),
                        "n_docs": pc.cast(vc.field("counts"), pa.int64())})
        order = pc.sort_indices(out, sort_keys=[("n_docs", "descending"),
                                                ("value", "ascending")])
        out = out.take(order)
        return out.slice(0, top) if top is not None else out

    def suggest(self, prefix: str, k: int = 10) -> list[tuple[str, int, int]]:
        """Term completion (the Solr Suggester re-expressed over the
        lexicon): top-k indexed terms with the prefix, ranked by collection
        frequency desc then term asc. Returns (term, df, cf) tuples. The
        prefix range is a bisect over the reader's sorted term list — no
        lexicon scan per call; df/cf sum across shards and generations."""
        terms = self.reader.terms_with_prefix(prefix)
        stats = self.reader.term_stats(terms)
        rows = sorted(((t, df, cf) for t, (df, cf) in stats.items()),
                      key=lambda r: (-r[2], r[0]))
        return rows[:k]

    def snippets_for(self, doc_ids, terms: list[str], width: int = 12,
                     ) -> dict[int, str]:
        """Best-window highlighting (the Solr highlighter's surface): for
        each doc, the ``width``-token window anchored at a query-term
        occurrence that contains the most query-term occurrences (tie:
        earliest anchor), returned as the tokenizer's view of the text
        (lowercased tokens space-joined — exact parity with the SQL
        oracle). One batched docstore read for all docs; occurrence math
        is numpy (searchsorted over sorted occurrence positions)."""
        import numpy as np

        tset = set(terms)
        texts = self._texts_for([int(d) for d in doc_ids])
        out: dict[int, str] = {}
        for d, text in texts.items():
            toks = tokenize(text or "")
            occ = np.flatnonzero(np.isin(np.asarray(toks, dtype=object),
                                         list(tset)))
            if occ.size == 0:
                out[int(d)] = ""
                continue
            hits_in_window = np.searchsorted(occ, occ + width) \
                - np.arange(occ.size)
            best = int(occ[int(np.argmax(hits_in_window))])  # first max = earliest
            out[int(d)] = " ".join(toks[best:best + width])
        return out

    def field_stats(self, query: str, field: str, value_fn=None) -> dict:
        """Solr stats component over the OR match set: count / min / max /
        sum / mean of a numeric docstore field (vectorized Arrow
        aggregates over the row-group-pruned metadata read)."""
        import pyarrow.compute as pc

        terms = sorted(set(tokenize(query)))
        cand = self._union_docs(terms)
        if cand.size == 0:
            return {"n_docs": 0, "min": None, "max": None,
                    "sum": None, "mean": None}
        vals = self._meta_for(cand, [field])[field]
        if value_fn is not None:
            vals = value_fn(vals)
        return {
            "n_docs": len(vals),
            "min": pc.min(vals).as_py(),
            "max": pc.max(vals).as_py(),
            "sum": pc.sum(vals).as_py(),
            "mean": pc.mean(vals).as_py(),
        }

    def _spell_lexicon(self):
        cache = getattr(self, "_spell_cache", None)
        if cache is None:
            import numpy as np

            keys = self.reader.terms_with_prefix("")
            arr = np.asarray(keys, dtype=object)
            lens = np.fromiter((len(t) for t in keys), dtype=np.int64,
                               count=len(keys))
            cache = self._spell_cache = (arr, lens)
        return cache

    def _symspell_index(self, max_dist: int):
        """Deletion-neighborhood index (SymSpell) as (sorted variant array,
        aligned lexicon term-index array). A sealed on-disk artifact built
        by ``persist_spell_index`` / ``build_symspell_index`` next to the
        segments is LOADED when it matches the current lexicon (the serving
        scale path — no per-process rebuild); otherwise built in process.
        Cached per (engine, max_dist) either way — per-query candidate
        lookup is O(deletes(q)) searchsorted probes instead of an
        O(lexicon) length-window scan."""
        cache = getattr(self, "_symspell_cache", None)
        if cache is None:
            cache = self._symspell_cache = {}  # keyed by max_dist: mixed
            # distances must not evict each other (each is a full rebuild)
        if max_dist in cache:
            return cache[max_dist]
        arr, _ = self._spell_lexicon()
        entry = None
        index_dir = getattr(self.reader, "index_dir", None)
        if index_dir is not None:
            entry = load_symspell_index(index_dir, max_dist,
                                        expected_terms=len(arr))
            self._symspell_from_disk = entry is not None
        if entry is None:
            entry = _symspell_arrays(arr, max_dist)
        while len(cache) >= 2:  # bound the per-engine footprint: higher
            # distances are orders of magnitude larger; keep at most two
            # distances resident (oldest out)
            cache.pop(next(iter(cache)))
        cache[max_dist] = entry
        return entry

    def persist_spell_index(self, max_dist: int) -> int:
        """Build + seal the SymSpell artifact next to this engine's
        segments (idempotent; see build_symspell_index). Invalidate the
        in-memory cache so the next probe exercises the loaded artifact."""
        arr, _ = self._spell_lexicon()
        n = build_symspell_index(self.reader.index_dir, max_dist,
                                 terms=arr)
        getattr(self, "_symspell_cache", {}).pop(max_dist, None)
        return n

    def spellcheck(self, term: str, k: int = 5, max_dist: int = 1,
                   method: str = "symspell") -> list[tuple[str, int, int, int]]:
        """Solr spellcheck component re-expressed over the lexicon: the
        top-k indexed terms within plain Levenshtein distance ``max_dist``
        of ``term``, ranked (distance asc, cf desc, term asc). Returns
        (term, dist, df, cf).

        ``method='symspell'`` (default, the serving scale path): candidates
        come from the precomputed deletion-neighborhood index — if
        lev(q, t) <= d then some <=d-deletion variant of q equals one of t,
        so the probe is EXHAUSTIVE (identical output to the scan) at
        O(deletes(q)) lookups per query. ``method='scan'`` keeps the
        +-max_dist length-window scan (the equivalence oracle in tests).
        Either way the final edit-distance DP runs VECTORIZED across all
        candidates at once (numpy char matrix, two-row DP)."""
        import numpy as np

        arr, lens = self._spell_lexicon()
        qlen = len(term)
        if method == "symspell":
            variants, tis = self._symspell_index(max_dist)
            dels = sorted(_deletes(term, max_dist))
            lo = np.searchsorted(variants, dels, side="left")
            hi = np.searchsorted(variants, dels, side="right")
            parts = [tis[a:b] for a, b in zip(lo, hi) if b > a]
            if not parts:
                return []
            sel = np.unique(np.concatenate(parts))
            # the deletion probe already implies the length window, but a
            # cheap re-check shrinks the DP matrix for long terms
            sel = sel[np.abs(lens[sel] - qlen) <= max_dist]
            cand, clens = arr[sel], lens[sel]
        else:
            window = (lens >= qlen - max_dist) & (lens <= qlen + max_dist)
            cand, clens = arr[window], lens[window]
        if cand.size == 0:
            return []
        dist = _levenshtein_vec(term, cand, clens)
        hit = dist <= max_dist
        if not hit.any():
            return []
        stats = self.reader.term_stats([str(t) for t in cand[hit]])
        rows = sorted(
            ((str(t), int(d), *stats[str(t)]) for t, d in
             zip(cand[hit], dist[hit])),
            key=lambda r: (r[1], -r[3], r[0]))
        return rows[:k]

    def more_like_this(self, doc_id: int, k: int = 10, max_terms: int = 3,
                       ) -> list[tuple[int, float]]:
        """Solr MoreLikeThis re-expressed: rank the source doc's terms by
        tf x idf (the engine's own always-positive BM25 idf), fixed-point
        rounded to 6 dp with term-asc ties (so an SQL oracle picks the
        identical query terms), take the top ``max_terms`` as an OR query,
        BM25 top-k with the source doc excluded. One docstore row read +
        one lexicon stats lookup per call."""
        import math
        from collections import Counter

        text = self._texts_for([int(doc_id)]).get(int(doc_id))
        if not text:
            return []
        tf = Counter(tokenize(text))
        stats = self.reader.term_stats(sorted(tf))
        n_docs = self.reader.N
        scored = []
        for t, (df, _cf) in stats.items():
            idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            m = math.floor(tf[t] * idf * 1_000_000 + 0.5) / 1_000_000
            scored.append((-m, t))
        scored.sort()
        terms = [t for _m, t in scored[:max_terms]]
        if not terms:
            return []
        hits = self.topk(" ".join(terms), k + 1, method="brute")
        return [(d, s) for d, s in hits if d != int(doc_id)][:k]

    def collapse_topk(self, query: str, k: int, field: str, value_fn=None,
                      tie_fn=None, score_round: int | None = None,
                      ) -> list[tuple[object, int, object, float]]:
        """Field collapsing: the best hit per field value, top-k groups.
        Best = max score, ties broken by ascending tie key. ``tie_fn``
        (vectorized, receives the metadata table) supplies the tie key
        (default: index doc_id); ``score_round`` rounds scores fixed-point
        (floor(x*10^r + 0.5) / 10^r) BEFORE collapsing so rank ties resolve
        the way the SQL oracles do. Returns (value, doc_id, tie, score)."""
        import numpy as np
        import pandas as pd

        terms = sorted(set(tokenize(query)))
        cand = self._union_docs(terms)
        if cand.size == 0:
            return []
        hits = self._score_candidates(terms, cand, k=cand.size)
        ids = np.asarray([h for h, _ in hits], dtype=np.uint64)
        scores = np.asarray([s for _, s in hits], dtype=np.float64)
        if score_round is not None:
            m = 10.0 ** score_round
            scores = np.floor(scores * m + 0.5) / m
        meta = self._meta_for(ids, [field])
        vals = meta[field]
        if value_fn is not None:
            vals = value_fn(vals)
        tie = tie_fn(meta) if tie_fn is not None else meta["doc_id"]
        df = pd.DataFrame({"doc_id": np.asarray(meta["doc_id"]).astype(np.uint64),
                           "value": vals.to_pandas(),
                           "tie": tie.to_pandas()}).merge(
            pd.DataFrame({"doc_id": ids, "score": scores}), on="doc_id")
        df = df.sort_values(["value", "score", "tie"],
                            ascending=[True, False, True], kind="mergesort")
        best = df.drop_duplicates("value", keep="first")
        best = best.sort_values(["score", "tie"],
                                ascending=[False, True], kind="mergesort").head(k)
        return list(zip(best["value"], (int(d) for d in best["doc_id"]),
                        best["tie"], best["score"]))


class SearchEngine(PhraseAndBooleanMixin, ServingFeaturesMixin):
    def __init__(self, index_dir: str | Path, warm_top_terms: int = 64,
                 lexicon: dict | None = None):
        self.reader = IndexReader(index_dir, warm_top_terms=warm_top_terms,
                                  lexicon=lexicon)

    # up to this many candidate postings, "auto" scores exhaustively
    # (vectorized numpy) instead of with block-max WAND. The crossover is
    # unmeasured: WAND measured slower than brute at 4k, 20k and 200k docs,
    # so the cut-off only keeps brute for every corpus measured so far.
    AUTO_BRUTE_MAX_POSTINGS = 5_000_000

    def topk(self, query: str, k: int, method: str = "auto",
             boosts: dict[str, float] | None = None) -> list[tuple[int, float]]:
        terms = sorted(set(tokenize(query)))
        term_rows = self.reader.fetch_terms(terms)
        kw = dict(
            N=self.reader.N,
            avgdl=self.reader.avgdl,
            k1=self.reader.k1,
            b=self.reader.b,
            block_size=self.reader.block_size,
            k=k,
            boosts=boosts,
        )
        if method == "auto":
            total = sum(int(r["n_postings"]) for rows in term_rows.values() for r in rows)
            method = "brute" if total <= self.AUTO_BRUTE_MAX_POSTINGS else "bmw"
        if method == "bmw":
            return block_max_wand_topk(term_rows, **kw)
        if method == "brute":
            return brute_force_topk(term_rows, **kw)
        raise ValueError(f"unknown method {method!r}")


class _QueryActor:
    """Callable class for map_batches: index opened once per actor; the
    LEXICON arrives prebuilt from the object store (built once on the
    driver, ray.put) instead of each actor re-parsing every segment's
    metadata — the per-actor load was the pool's QPS bound."""

    def __init__(self, index_dir: str, method: str = "auto", lexicon_ref=None,
                 docset_ref=None):
        import ray

        lexicon = ray.get(lexicon_ref) if lexicon_ref is not None else None
        # no eager warm-up in pool actors: N actors re-reading the hottest
        # row groups concurrently just thrashes shared memory bandwidth
        self.engine = SearchEngine(index_dir, warm_top_terms=0, lexicon=lexicon)
        self.method = method
        # pool-level fq: the docset was built ONCE on the driver and is a
        # zero-copy plasma read here — actors never re-scan the docstore
        self.docset = ray.get(docset_ref) if docset_ref is not None else None

    def _topk(self, q: str, k: int):
        if self.docset is not None:
            return self.engine.topk_in_docset(q, k, self.docset)
        return self.engine.topk(q, k, self.method)

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, ranks, docs, scores = [], [], [], []
        for qid, q, k in zip(
            batch["query_id"].to_pylist(), batch["query"].to_pylist(), batch["k"].to_pylist()
        ):
            for rank, (doc_id, score) in enumerate(self._topk(q, int(k)), 1):
                qids.append(qid)
                ranks.append(rank)
                docs.append(doc_id)
                scores.append(score)
        return pa.table(
            {
                "query_id": pa.array(qids, pa.int64()),
                "rank": pa.array(ranks, pa.int32()),
                "doc_id": pa.array(docs, pa.int64()),
                "score": pa.array(scores, pa.float64()),
            }
        )


def batch_search(queries_ds, index_dir: str | Path, *, method: str = "auto",
                 concurrency=None, doc_filter: DocFilter | None = None):
    """Run a Dataset of (query_id, query, k) through the index actor pool.

    ``doc_filter`` applies one fq filter to the whole pass (the common
    serving shape: "English only", "this partner's sites"): the docset is
    built ONCE on the driver (distributed scan for big docstores) and
    broadcast; actors intersect per query, never re-scan.

    Pool is deliberately modest (each actor amortizes one lexicon load over
    many query batches; query serving is read+decode bound, so a few actors
    saturate a node's memory bandwidth — scale QUERY throughput by adding
    nodes, each with its own reader pool)."""
    import ray

    from ..index import reader

    # built once and shared; the lexicon carries the snapshot it was read
    # from, so every actor's stats and docstore reads match its postings
    lexicon = reader.build_lexicon(index_dir)
    lexicon_ref = ray.put(lexicon)
    docset_ref = (ray.put(build_filter_docset(lexicon["state"], doc_filter))
                  if doc_filter is not None else None)
    ncpu = int(ray.cluster_resources().get("CPU", 4))
    # FIXED pool size: autoscaling ramped actors one-by-one and the whole
    # pass finished before the pool reached size (measured 52-60 qps
    # autoscaled vs 74 qps fixed on the same 1000-query pass). One CPU of
    # headroom stays free for the surrounding operators — a pool equal to
    # the whole cluster deadlocks a small session.
    pool = concurrency or max(1, min(8, ncpu - 1))
    max_actors = pool[1] if isinstance(pool, tuple) else pool
    # a single input block would feed ONE actor no matter the pool size;
    # split so every actor can pull work (queries are tiny rows). Split
    # before the pool starts: inside the streaming plan the driver waits on
    # split tasks that need a CPU while the started pool actors hold every
    # CPU, so a 1-CPU session hung
    queries_ds = queries_ds.repartition(max_actors * 4).materialize()
    return queries_ds.map_batches(
        _QueryActor,
        fn_constructor_kwargs={"index_dir": str(index_dir), "method": method,
                               "lexicon_ref": lexicon_ref,
                               "docset_ref": docset_ref},
        batch_format="pyarrow",
        batch_size=32,
        concurrency=pool,
    )
