"""Segment reader: the query-time view of a built index.

Two-level layout, the classic lexicon + postings design (internalizing what
the reference delegated to Solr, reference Indexer.java:55-91):

- **Lexicon (in memory, loaded once per reader)**: metadata columns
  (term, shard, df, cf) of every segment row plus its (file, row_group,
  offset) location — a few dozen bytes per term. Query actors hold one
  reader each (``__init__``-loaded state, SURVEY.md §2.4); at true web
  scale the lexicon itself shards across query actors by term hash, which
  is why locations are per-bucket-file.
- **Postings (on disk, row-group granular)**: payload columns are read only
  for the row groups containing the query terms (segments are written with
  row_group_size=256 — index/merge.py — keeping the read unit small);
  decoded rows are LRU-cached.
- **One snapshot per reader**: the lexicon is built from one
  ``index.layout.IndexState``, and its corpus stats, tombstone masks and
  the docstore files the serving paths read all come from that state, so
  deletes and appends after the open stay invisible to it. Compaction
  rewrites files in place and is the snapshot's one gap (reopen after it).
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path

import pyarrow.parquet as pq

from .layout import IndexState, as_state


def build_lexicon(index: str | Path | IndexState) -> dict:
    """Load the lexicon state once: term -> [(file_idx, row_group,
    row_in_group, df, cf, shard)] plus the file list and the index
    snapshot it was read from (an index dir is opened here). Picklable, so
    a query actor pool can build it ONCE on the driver and broadcast it via
    ``ray.put`` instead of paying the load per actor (the per-actor load
    was the pool's QPS bound); the actors' stats then match their lexicon.

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
        for f in g.segments:
            files.append(f)
            bm_scale.append(scale)
            dead_by_file.append(g.dead if g.dead.size else None)
    lex: dict[str, list[tuple[int, int, int, int, int, int]]] = {}
    for fi, f in enumerate(files):
        pf = pq.ParquetFile(f)
        meta = pf.read(columns=["term", "shard", "df", "cf"])
        terms = meta["term"].to_pylist()
        shards = meta["shard"].to_pylist()
        dfs = meta["df"].to_pylist()
        cfs = meta["cf"].to_pylist()
        rg_sizes = [pf.metadata.row_group(g).num_rows for g in range(pf.metadata.num_row_groups)]
        g = 0
        in_g = 0
        for i in range(len(terms)):
            while in_g >= rg_sizes[g]:
                g += 1
                in_g = 0
            lex.setdefault(terms[i], []).append((fi, g, in_g, dfs[i], cfs[i], shards[i]))
            in_g += 1
    return {"state": state, "files": files, "lex": lex, "bm_scale": bm_scale,
            "dead_by_file": dead_by_file}


class IndexReader:
    def __init__(self, index_dir: str | Path, cache_terms: int = 4096,
                 warm_top_terms: int = 64, lexicon: dict | None = None):
        self.index_dir = Path(index_dir)
        # ---- lexicon: term -> [(file_idx, row_group, row_in_group, df, cf, shard)]
        # (prebuilt + broadcast when given — the actor-pool path); it
        # carries the index snapshot every other read of this reader uses
        lex = lexicon if lexicon is not None else build_lexicon(self.index_dir)
        self.state: IndexState = lex["state"]
        stats = self.state.stats
        self.N = int(stats["N"])
        self.avgdl = float(stats["avgdl"])
        self.k1 = float(stats["k1"])
        self.b = float(stats["b"])
        self.block_size = int(stats["block_size"])
        self._files = [Path(f) for f in lex["files"]]
        self._pf = [pq.ParquetFile(f) for f in self._files]
        self._bm_scale = lex["bm_scale"]
        self._dead_by_file = lex["dead_by_file"]
        self._lex = lex["lex"]
        self._cache: OrderedDict[str, list[dict]] = OrderedDict()
        self._cache_terms = cache_terms
        from concurrent.futures import ThreadPoolExecutor

        self._io_pool = ThreadPoolExecutor(max_workers=8)
        if warm_top_terms:
            # pre-fetch the highest-df terms once per reader: hot terms are
            # exactly the ones every query mix hits, and their shard rows
            # span the most row groups (the cold-tail latency)
            by_df = sorted(self._lex.items(), key=lambda kv: -sum(r[3] for r in kv[1]))
            self.fetch_terms([t for t, _ in by_df[:warm_top_terms]])

    @property
    def n_terms(self) -> int:
        return len(self._lex)

    def fetch_terms(self, terms: list[str]) -> dict[str, list[dict]]:
        """term -> its segment rows (all shards), decoded to python dicts.
        Row-group granular reads; LRU cache of decoded terms."""
        out: dict[str, list[dict]] = {}
        # group cache misses by (file, row_group) so each group is read once
        wanted: dict[tuple[int, int], list[tuple[str, int]]] = {}
        for t in terms:
            if t in self._cache:
                self._cache.move_to_end(t)
                out[t] = self._cache[t]
                continue
            for fi, g, row, _, _, _ in self._lex.get(t, []):
                wanted.setdefault((fi, g), []).append((t, row))
        fetched: dict[str, list[dict]] = {}
        if wanted:
            # parquet row-group reads release the GIL — fetch a query's
            # groups concurrently (a query fans out over files/row groups)
            def read_one(key):
                fi, g = key
                return key, self._pf[fi].read_row_group(g)

            if len(wanted) > 1:
                results = dict(self._io_pool.map(read_one, list(wanted)))
            else:
                results = dict([read_one(next(iter(wanted)))])
            for key, items in wanted.items():
                tbl = results[key]
                scale = self._bm_scale[key[0]]
                dead = self._dead_by_file[key[0]]
                for t, row in items:
                    r = tbl.slice(row, 1).to_pylist()[0]
                    if dead is not None:
                        # pending tombstones: the codec masks these doc_ids
                        # out at decode time (codecs.postings)
                        r["_dead"] = dead
                    if scale != 1.0 and r.get("block_max") is not None:
                        # safe-bound rescale for appended generations (see
                        # build_lexicon) — exact scoring is untouched, only
                        # the WAND upper bounds inflate
                        r["block_max"] = [v * scale for v in r["block_max"]]
                    fetched.setdefault(t, []).append(r)
        for t, rows in fetched.items():
            rows.sort(key=lambda r: int(r["shard"]))
            self._cache[t] = rows
            if len(self._cache) > self._cache_terms:
                self._cache.popitem(last=False)
            out[t] = rows
        return out

    def term_stats(self, terms: list[str] | None = None) -> dict[str, tuple[int, int]]:
        """term -> (global df, global cf) straight from the lexicon."""
        keys = self._lex.keys() if terms is None else terms
        out: dict[str, tuple[int, int]] = {}
        for t in keys:
            rows = self._lex.get(t)
            if rows:
                out[t] = (sum(r[3] for r in rows), sum(r[4] for r in rows))
        return out

    def terms_with_prefix(self, prefix: str) -> list[str]:
        """Lexicon terms starting with ``prefix`` — bisect over a sorted
        key list built lazily once per reader (no full-lexicon scan per
        lookup)."""
        import bisect

        keys = getattr(self, "_sorted_terms", None)
        if keys is None:
            keys = self._sorted_terms = sorted(self._lex.keys())
        lo = bisect.bisect_left(keys, prefix)
        hi = bisect.bisect_left(keys, prefix + "￿")
        return keys[lo:hi]
