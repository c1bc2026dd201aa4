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
- **Postings (on disk, row-group granular)**: payload columns are read only
  for the row groups containing the query terms (segments are written in
  256-row groups — index/merge.py — keeping the read unit small);
  decoded rows are LRU-cached. Each file's row group 0 holds its
  highest-df terms, so the warm-up of the hottest terms on open reads
  about one row group per file. A fetch reads only the columns the scorers
  decode (``SCORER_COLUMNS``); the skip table and block-max bounds
  (block-max WAND) and the position stream (positional phrase matching)
  are read on demand by ``fill_columns``, once per fetched row.
- **One snapshot per reader**: the lexicon is built from one
  ``index.layout.IndexState``, and its corpus stats, tombstone masks and
  the docstore files the serving paths read all come from that state, so
  deletes and appends after the open stay invisible to it. Compaction
  rewrites files in place and is the snapshot's one gap (reopen after it).
"""

from __future__ import annotations

from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .layout import IndexState, as_state
from .merge import hottest

# the segment columns that the consumers of a fetched row (codecs, query,
# serving paths) read; term, df and cf come from the lexicon instead.
# fetch_terms reads what every scorer decodes (codecs.decode_postings);
# fill_columns adds the rest for block-max WAND and phrase positions.
SCORER_COLUMNS = ["shard", "n_postings", "docs_payload", "tfs_payload", "dls_payload"]
EXTRA_COLUMNS = ["skip_last_doc", "skip_doc_off", "skip_tf_off", "skip_dl_off",
                 "block_max", "pos_payload"]
FETCH_COLUMNS = SCORER_COLUMNS + EXTRA_COLUMNS

_LEX_SCHEMA = pa.schema([("term", pa.string()), ("shard", pa.int32()),
                         ("df", pa.int64()), ("cf", pa.int64()),
                         ("file", pa.int32()), ("row_group", pa.int32()),
                         ("row", pa.int32())])


def build_lexicon(index: str | Path | IndexState) -> dict:
    """Load the lexicon state once: ``terms``, the sorted unique terms (an
    object array), and ``offsets``, so that term ``i`` owns rows
    ``offsets[i]:offsets[i + 1]`` of the parallel row arrays ``shard``,
    ``file``, ``row_group``, ``row`` (int32) and ``df``, ``cf`` (int64),
    sorted by (term, file, shard); plus the file list, each file's parquet
    footer (``metadata``, so a reader opens each file once) and the index
    snapshot it was read from (an index dir is opened here). Picklable,
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
        pf = pq.ParquetFile(f)
        metadata.append(pf.metadata)
        meta = pf.read(columns=["term", "shard", "df", "cf"])
        sizes = np.array([pf.metadata.row_group(g).num_rows
                          for g in range(pf.metadata.num_row_groups)], dtype=np.int64)
        row = np.arange(meta.num_rows) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        parts.append(pa.table([
            *meta.columns,
            np.full(meta.num_rows, fi, np.int32),
            np.repeat(np.arange(sizes.size, dtype=np.int32), sizes),
            row.astype(np.int32)], schema=_LEX_SCHEMA))
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
    for c in ("shard", "df", "cf", "file", "row_group", "row"):
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
        self._bm_scale = lex["bm_scale"]
        self._dead_by_file = lex["dead_by_file"]
        self._lex = lex
        self._terms = lex["terms"]
        self._offsets = lex["offsets"]
        self._cache: OrderedDict[str, list[dict]] = OrderedDict()
        self._cache_terms = cache_terms
        self._io_pool = ThreadPoolExecutor(max_workers=8)
        if warm_top_terms:
            # pre-fetch the highest-df terms once per reader: hot terms are
            # exactly the ones every query mix hits, and the merge writes
            # each file's hottest terms into its row group 0, so this is
            # about one read per file. Ties in df go to the term whose
            # first file comes first, then to the smaller term.
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

    def _read_groups(self, keys, columns: list[str]) -> dict:
        """(file, row_group) -> ``columns`` of that row group, one
        ``read_row_group`` per key. Parquet row-group reads release the GIL,
        so a query's groups (it fans out over files and row groups) are
        read concurrently."""
        def read_one(key):
            fi, g = key
            return key, self._pf[fi].read_row_group(g, columns=columns)

        keys = list(keys)
        if len(keys) > 1:
            return dict(self._io_pool.map(read_one, keys))
        return dict(read_one(k) for k in keys)

    def fetch_terms(self, terms: list[str]) -> dict[str, list[dict]]:
        """term -> its segment rows (all shards, in shard order), decoded to
        python dicts of ``SCORER_COLUMNS`` (plus ``_at``, the row's file,
        row group and row, for ``fill_columns``). Row-group granular reads;
        LRU cache of decoded terms."""
        out: dict[str, list[dict]] = {}
        misses = []
        for t in terms:
            if t in self._cache:
                self._cache.move_to_end(t)
                out[t] = self._cache[t]
            else:
                misses.append(t)
        # group the misses' rows by (file, row_group) so each group is read once
        wanted: dict[tuple[int, int], list[tuple[str, int]]] = {}
        fetched: dict[str, list[dict]] = {}
        lex = self._lex
        for t, s, e in self._ranges(misses):
            fetched[t] = []
            for fi, g, row in zip(lex["file"][s:e].tolist(), lex["row_group"][s:e].tolist(),
                                  lex["row"][s:e].tolist()):
                wanted.setdefault((fi, g), []).append((t, row))
        results = self._read_groups(wanted, SCORER_COLUMNS)
        # in (file, row_group) order, so each term's rows arrive in file
        # order and the shard sort below leaves them in (shard, file) order
        for key, items in sorted(wanted.items()):
            dead = self._dead_by_file[key[0]]
            # scalar access per wanted row: a query wants one or two rows
            # of a group, where Table.take + to_pylist costs ~4x as much
            cols = [(c, results[key].column(c)) for c in SCORER_COLUMNS]
            for t, row in items:
                r = {c: col[row].as_py() for c, col in cols}
                r["_at"] = (*key, row)
                if dead is not None:
                    # pending tombstones: the codec masks these doc_ids
                    # out at decode time (codecs.postings)
                    r["_dead"] = dead
                fetched[t].append(r)
        for t, rows in fetched.items():
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
        results = self._read_groups(wanted, EXTRA_COLUMNS)
        for key, items in wanted.items():
            scale = self._bm_scale[key[0]]
            cols = results[key].take([row for _, row in items]).to_pylist()
            for (r, _), c in zip(items, cols):
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
