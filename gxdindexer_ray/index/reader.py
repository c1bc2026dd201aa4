"""Segment reader: the query-time view of a built index.

Two-level layout, the classic lexicon + postings design (internalizing what
the reference delegated to Solr, reference Indexer.java:55-91):

- **Lexicon (in memory, loaded once per reader)**: columnar. The sorted
  unique terms, each with a ``[start, end)`` range into parallel arrays
  over every segment row (shard, df, cf and its file, row group and row
  within the group), so a term lookup is one ``searchsorted`` and a prefix
  range two. A few dozen bytes per term. Query actors hold one reader each
  (``__init__``-loaded state, SURVEY.md §2.4); at true web scale the
  lexicon itself shards across query actors by term hash, which is why
  locations are per-bucket-file.
- **Postings (on disk, one blob per segment file)**: the docs, tfs and dls
  streams the scorers decode live in the segment file's postings blob
  (index/postfile.py). The lexicon keeps each row's blob start and three
  stream lengths, and the reader maps each blob once, so a fetch is three
  slices per row, with no Parquet read; decoded rows are LRU-cached. Only
  ``fill_columns`` reads segment row groups (256 rows each,
  index/merge.py): the skip table and block-max bounds (block-max WAND)
  and the position stream (positional phrase matching), on demand, once
  per fetched row. An index written before the blob (payload columns, no
  ``.post`` files) is refused at open; ``compact_index`` rewrites its
  segments from the docstore, or a rebuild does.
- **One snapshot per reader**: the lexicon is built from one
  ``index.layout.IndexState``, and its corpus stats, tombstone masks and
  the docstore files the serving paths read all come from that state, so
  deletes and appends after the open stay invisible to it. Compaction
  rewrites files in place and is the snapshot's one gap (reopen after it).
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import postfile
from .layout import IndexState, as_state

# the segment columns ``fill_columns`` adds to fetched rows
EXTRA_COLUMNS = ["skip_last_doc", "skip_doc_off", "skip_tf_off", "skip_dl_off",
                 "block_max", "pos_payload"]

_LEX_SCHEMA = pa.schema([("term", pa.string()), ("shard", pa.int32()),
                         ("df", pa.int64()), ("cf", pa.int64()),
                         ("file", pa.int32()), ("row_group", pa.int32()),
                         ("row", pa.int32()), ("start", pa.int64()),
                         ("docs_len", pa.int64()), ("tfs_len", pa.int64()),
                         ("dls_len", pa.int64())])
# lexicon row arrays, in the order fetch_terms unpacks them (a row's df
# is its posting count: the encoder writes df and n_postings from one count)
_ROW_FIELDS = ("file", "shard", "df", "start", "docs_len", "tfs_len",
               "dls_len", "row_group", "row")


def hottest(df: np.ndarray, k: int, tie: np.ndarray | None = None) -> np.ndarray:
    """Indices of the ``k`` largest ``df`` values, ordered by (-df, tie,
    index): one ``np.partition`` for the k-th value, then a ``lexsort`` of
    only the candidates at or above it (ties at the cut included)."""
    k = min(k, df.size)
    if k <= 0:
        return np.empty(0, np.int64)
    cand = np.flatnonzero(df >= np.partition(df, df.size - k)[df.size - k])
    keys = (-df[cand],) if tie is None else (tie[cand], -df[cand])
    # lexsort is stable and cand ascends, so the index breaks the last ties
    return cand[np.lexsort(keys)][:k]


def build_lexicon(index: str | Path | IndexState) -> dict:
    """Load the lexicon state once: ``terms``, the sorted unique terms (an
    object array), and ``offsets``, so that term ``i`` owns rows
    ``offsets[i]:offsets[i + 1]`` of the parallel row arrays ``shard``,
    ``file``, ``row_group``, ``row`` (int32) and ``df``, ``cf``,
    ``start``, ``docs_len``, ``tfs_len``, ``dls_len`` (int64; the last
    four place the row in its file's postings blob), sorted by (term,
    file, shard); plus the file list, each file's parquet footer
    (``metadata``, so a reader opens each file once) and the index
    snapshot it was read from (an index dir is opened here). Raises
    ``ValueError`` for a segment file without its blob (an index written
    before the blob) or a blob that disagrees with its file. Picklable,
    and mostly flat arrays, so a query actor pool can build it ONCE on the
    driver and broadcast it via ``ray.put`` instead of paying the load per
    actor (the per-actor load was the pool's QPS bound); the actors' stats
    then match their lexicon.

    Multi-generation indexes contribute every generation's segment files.
    Each file carries a ``bm_scale`` factor = max(1, global_avgdl /
    generation_avgdl): stored block-max bounds were encoded with the
    generation's own avgdl, and for BM25's tf factor
    (tf+K_old)/(tf+K_new) <= K_old/K_new <= avgdl_new/avgdl_old, so
    scaling by that ratio keeps every bound a true upper bound under the
    GLOBAL avgdl — block-max WAND stays exact after appends."""
    state = as_state(index)
    files: list[str] = []
    bm_scale: list[float] = []
    dead_by_file: list = []
    for g in state.generations:
        davg = float(g.stats["avgdl"])
        scale = max(1.0, state.stats["avgdl"] / davg) if davg > 0 else 1.0
        # cast once to the decoded doc ids' uint64 (ids are 63-bit, so the
        # int64 order holds), not per decoded row or block
        dead = g.dead.astype(np.uint64) if g.dead.size else None
        for f in g.segments:
            files.append(f)
            bm_scale.append(scale)
            dead_by_file.append(dead)
    parts = [_LEX_SCHEMA.empty_table()]
    metadata = []
    for fi, f in enumerate(files):
        blob = postfile.post_path(f)
        if not blob.exists():
            raise ValueError(
                f"{f} has no postings blob {blob.name}: the index was written in "
                "an older segment layout; run compact_index on it or rebuild it")
        pf = pq.ParquetFile(f)
        metadata.append(pf.metadata)
        # one thread: the four columns are small, and a thread pool per
        # file costs more than it saves (seed-7 index, 1 CPU: 16.6 -> 11.2 ms
        # for its 3 files)
        meta = pf.read(columns=["term", "shard", "df", "cf"], use_threads=False)
        start, lens = postfile.read_lengths(blob, meta.num_rows)
        sizes = np.array([pf.metadata.row_group(g).num_rows
                          for g in range(pf.metadata.num_row_groups)], dtype=np.int64)
        row = np.arange(meta.num_rows) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        parts.append(pa.table([
            *meta.columns,
            np.full(meta.num_rows, fi, np.int32),
            np.repeat(np.arange(sizes.size, dtype=np.int32), sizes),
            row.astype(np.int32), start, *np.ascontiguousarray(lens.T)], schema=_LEX_SCHEMA))
    t = pa.concat_tables(parts).sort_by(
        [("term", "ascending"), ("file", "ascending"), ("shard", "ascending")])
    # Arrow orders strings by UTF-8 bytes, which is code point order: the
    # order of Python str, so searchsorted over the object array agrees
    terms = t["term"].combine_chunks()
    starts = np.zeros(min(len(terms), 1), np.int64)
    if len(terms) > 1:
        changed = pc.not_equal(terms[1:], terms[:-1]).to_numpy(zero_copy_only=False)
        starts = np.concatenate([starts, np.flatnonzero(changed) + 1])
    lex = {"state": state, "files": files, "metadata": metadata, "bm_scale": bm_scale,
           "dead_by_file": dead_by_file,
           "terms": terms.take(starts).to_numpy(zero_copy_only=False),
           "offsets": np.append(starts, len(terms))}
    for c in _LEX_SCHEMA.names[1:]:
        lex[c] = t[c].to_numpy()
    return lex


class IndexReader:
    def __init__(self, index_dir: str | Path, cache_terms: int = 4096,
                 warm_top_terms: int = 64, lexicon: dict | None = None):
        self.index_dir = Path(index_dir)
        # the lexicon (prebuilt + broadcast when given — the actor-pool
        # path) carries the index snapshot every other read of this reader uses
        lex = lexicon if lexicon is not None else build_lexicon(self.index_dir)
        self.state: IndexState = lex["state"]
        stats = self.state.stats
        self.N = int(stats["N"])
        self.avgdl = float(stats["avgdl"])
        self.k1 = float(stats["k1"])
        self.b = float(stats["b"])
        self.block_size = int(stats["block_size"])
        self._pf = [pq.ParquetFile(f, metadata=md)
                    for f, md in zip(lex["files"], lex["metadata"])]
        self._blobs = [postfile.open_blob(postfile.post_path(f)) for f in lex["files"]]
        self._bm_scale = lex["bm_scale"]
        self._dead_by_file = lex["dead_by_file"]
        self._lex = lex
        self._terms = lex["terms"]
        self._offsets = lex["offsets"]
        self._cache: OrderedDict[str, list[dict]] = OrderedDict()
        self._cache_terms = cache_terms
        if warm_top_terms:
            # pre-fetch the highest-df terms once per reader: hot terms are
            # exactly the ones every query mix hits, and a fetch reads no
            # row group. Ties in df go to the term whose first file comes
            # first, then to the smaller term.
            first = self._offsets[:-1]
            df = np.add.reduceat(lex["df"], first)
            warm = hottest(df, warm_top_terms, lex["file"][first])
            self.fetch_terms(self._terms[warm].tolist())

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    def _ranges(self, terms: list[str]) -> list[tuple[str, int, int]]:
        """(term, start, end) of each of ``terms`` the lexicon holds, in
        input order; ``[start, end)`` indexes the parallel row arrays."""
        if not terms or not self.n_terms:
            return []
        q = np.array(terms, dtype=object)
        i = np.minimum(np.searchsorted(self._terms, q), self.n_terms - 1)
        hit = np.flatnonzero(self._terms[i] == q)
        i = i[hit]
        return list(zip([terms[h] for h in hit.tolist()],
                        self._offsets[i].tolist(), self._offsets[i + 1].tolist()))

    def fetch_terms(self, terms: list[str]) -> dict[str, list[dict]]:
        """term -> its segment rows (all shards, in shard order), as dicts
        of ``shard``, ``n_postings`` and the three payloads (``bytes``
        slices of the mapped blob), plus ``_at``, the row's file, row group
        and row, for ``fill_columns``, and ``_dead``, the generation's
        pending tombstones (the codec masks these doc_ids out at decode
        time, codecs.postings). No Parquet read; LRU cache of terms."""
        out: dict[str, list[dict]] = {}
        misses = []
        for t in terms:
            if t in self._cache:
                self._cache.move_to_end(t)
                out[t] = self._cache[t]
            else:
                misses.append(t)
        lex = self._lex
        for t, s, e in self._ranges(misses):
            rows = []
            for fi, shard, n, start, dn, tn, ln, g, row in zip(
                    *(lex[c][s:e].tolist() for c in _ROW_FIELDS)):
                docs, tfs, dls = postfile.payloads(self._blobs[fi], start, dn, tn, ln)
                r = {"shard": shard, "n_postings": n, "docs_payload": docs,
                     "tfs_payload": tfs, "dls_payload": dls, "_at": (fi, g, row)}
                dead = self._dead_by_file[fi]
                if dead is not None:
                    r["_dead"] = dead
                rows.append(r)
            # lexicon rows are in (file, shard) order: now (shard, file)
            rows.sort(key=lambda r: r["shard"])
            self._cache[t] = rows
            if len(self._cache) > self._cache_terms:
                self._cache.popitem(last=False)
            out[t] = rows
        return out

    def fill_columns(self, term_rows: dict[str, list[dict]]) -> dict[str, list[dict]]:
        """Add ``EXTRA_COLUMNS`` (skip table, block-max bounds, positions)
        in place to the rows of a ``fetch_terms`` result that lack them,
        and return ``term_rows``. Each missing (file, row_group) is read
        once, for those columns only; the rows are the cached ones, so a
        row is filled (and its bounds rescaled) once per reader."""
        wanted: dict[tuple[int, int], list[tuple[dict, int]]] = {}
        for rows in term_rows.values():
            for r in rows:
                if "block_max" not in r:
                    fi, g, row = r["_at"]
                    wanted.setdefault((fi, g), []).append((r, row))
        for (fi, g), items in wanted.items():
            scale = self._bm_scale[fi]
            group = self._pf[fi].read_row_group(g, columns=EXTRA_COLUMNS)
            for (r, _), c in zip(items, group.take([row for _, row in items]).to_pylist()):
                if scale != 1.0 and c["block_max"] is not None:
                    # safe-bound rescale for appended generations (see
                    # build_lexicon) — exact scoring is untouched, only
                    # the WAND upper bounds inflate
                    c["block_max"] = [v * scale for v in c["block_max"]]
                r.update(c)
        return term_rows

    def term_stats(self, terms: list[str] | None = None) -> dict[str, tuple[int, int]]:
        """term -> (global df, global cf): sums over the term's lexicon rows
        (every shard and generation)."""
        df, cf = self._lex["df"], self._lex["cf"]
        if terms is None:
            first = self._offsets[:-1]
            return dict(zip(self._terms.tolist(),
                            zip(np.add.reduceat(df, first).tolist(),
                                np.add.reduceat(cf, first).tolist())))
        return {t: (int(df[s:e].sum()), int(cf[s:e].sum()))
                for t, s, e in self._ranges(list(terms))}

    def terms_with_prefix(self, prefix: str) -> list[str]:
        """Lexicon terms starting with ``prefix``, sorted: two
        searchsorted calls over the sorted term array, the second for the
        least string above the prefix range (none for "" or U+10FFFF...)."""
        p = prefix.rstrip(chr(0x10FFFF))
        lo = np.searchsorted(self._terms, prefix)
        hi = np.searchsorted(self._terms, p[:-1] + chr(ord(p[-1]) + 1)) if p else self.n_terms
        return self._terms[lo:hi].tolist()
