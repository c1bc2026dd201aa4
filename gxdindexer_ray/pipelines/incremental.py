"""Incremental (delta) indexing: append new pages to a built index, then
compact generations back into one segment set.

The reference rebuilds every index from scratch on each run (bin/buildIndexes
drives full reindexes; there is no delta path — Solr's own segment model is
hidden behind ``client.add``). At crawl scale a full rebuild per increment is
untenable, so this module adds the classic immutable-generation design over
the existing build machinery:

- ``append_index``: builds a self-contained DELTA generation
  (``gen-NNNN/`` with its own docstore, stats, hot terms and segments)
  from new pages, dropping any doc already owned by an earlier generation
  (first-wins across generations — the temporal analog of the build's
  first-wins url dedup, reference GxdResultIndexer.java:718-756).
- Readers open one snapshot of the layout (index/layout.py, the only code
  that knows generation, tombstone and marker names): the reader sums
  df/cf per term across every generation's segments, scores with GLOBAL
  (N, avgdl), and keeps block-max WAND exact by inflating each
  generation's stored bounds by the provable factor
  max(1, avgdl_global / avgdl_generation). A snapshot never sees a later
  append or delete; compaction, which rewrites files in place, is its one
  gap (reopen after it).
- ``compact_index``: folds all generations' docstores into the base and
  re-runs stats -> hot terms -> segments over the union, restoring the
  single-generation layout (the analog of a Lucene forceMerge / the
  reference's full optimize, Indexer.java:136-148). For delta corpora
  disjoint from the base, the compacted segments are byte-identical to a
  from-scratch build of the concatenated corpus (tested).
- ``delete_docs``: tombstone generations for takedowns — (doc_id,
  upto_gen) batches that readers mask out at posting-decode time (top-k
  stays exact; WAND block-max bounds only loosen) and that compaction
  drops physically (byte-identical to a rebuild without the deleted
  docs, tested). The reference's only delete path is truncate-rebuild
  (Indexer.java:83-89).

Scale notes: cross-generation exclusion has two paths, picked by prior
corpus size (EXCHANGE_EXCLUSION_THRESHOLD, estimated from parquet
metadata). Small bases broadcast: the prior ids ship as one sorted int64
array via ``ray.put`` (8 B/doc) and excluded pages are dropped before
extraction. Large bases stream: prior ids enter the dedup key exchange as
always-win sentinel rows (build.make_prior_keys_fn), so driver memory
stays O(1) in the base size; re-crawled pages then pay extraction and are
dropped by the ordinary loser rewrite. Compaction is one docstore scan
plus the standard segments phase — no decode of existing generation
segments.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

import numpy as np

import ray

from ..config import DEFAULT_CONFIG, IndexConfig
from ..index import layout
from ..index.docid import sorted_member
from ..state.manifest import config_key, fingerprint_inputs, read_json
from .build import build_index, _derive_index


def delete_docs(index_dir: str | Path, doc_ids) -> dict:
    """Tombstone documents (takedowns / robots revocations) without a
    rebuild — the delete path the reference lacks (its only answer is
    truncate-rebuild, Indexer.java:83-89).

    Writes one tombstone batch (layout.write_tombstones): every EXISTING
    occurrence of each doc goes dead, while a later re-append creates a
    new, live occurrence. Readers mask tombstoned postings at decode time
    (top-k exactness preserved — block-max bounds only loosen);
    ``compact_index`` drops them physically. Corpus stats (N, avgdl, df)
    drift until compaction, the standard deleted-docs semantics."""
    ids = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
    return layout.write_tombstones(layout.open_index(index_dir), ids)


# above this many prior docs, append_index switches from the broadcast
# exclusion set (8 B/doc through driver + object store) to streaming prior
# ids into the dedup key exchange (nothing prior-sized leaves the workers)
EXCHANGE_EXCLUSION_THRESHOLD = 20_000_000


def append_index(
    pages_dir: str | Path,
    index_dir: str | Path,
    cfg: IndexConfig = DEFAULT_CONFIG,
    *,
    resume: bool = True,
) -> dict:
    """Index NEW pages as a delta generation of an existing index.

    Returns the delta build's metrics dict plus generation bookkeeping.
    Re-appending the same pages is a no-op for already-owned docs (they
    are excluded by cross-generation first-wins dedup; a delta that adds
    nothing still registers an empty generation), and the phase-manifest
    resume machinery applies within the generation build.

    Prior ownership is enforced one of two ways, reported as
    ``exclusion_mode``; both produce identical indexes (tested):
    - "broadcast" (prior corpus up to EXCHANGE_EXCLUSION_THRESHOLD rows,
      estimated from parquet metadata): collect prior ids (minus
      tombstones) into one sorted array, ``ray.put`` once, filter at the
      extraction door. Cheapest for small bases — excluded docs are never
      extracted.
    - "exchange" (larger priors): stream prior ids into the dedup key
      exchange as always-win sentinel rows (build.make_prior_keys_fn).
      O(1) driver memory regardless of base size; re-crawled docs pay
      extraction and are then dropped by the ordinary loser rewrite."""
    import pyarrow.parquet as pq

    state = layout.open_index(index_dir)
    layout.check_config(state, cfg)
    gen_dir = layout.next_generation_dir(state)
    # exclusion set = prior-owned ids MINUS their pending tombstones, so a
    # deleted doc is re-addable (the tombstone's upto_gen predates the new
    # generation, which therefore serves the fresh copy)
    n_prior = sum(pq.ParquetFile(f).metadata.num_rows for f in state.docs)
    exclusion = "exchange" if n_prior > EXCHANGE_EXCLUSION_THRESHOLD else "broadcast"
    t0 = time.perf_counter()
    if exclusion == "broadcast":
        parts = [np.empty(0, np.int64)]
        for g in state.generations:
            for f in g.docs:
                ids_f = pq.read_table(f, columns=["doc_id"])["doc_id"].to_numpy()
                parts.append(ids_f[~sorted_member(ids_f, g.dead)])
        ids = np.unique(np.concatenate(parts))
        # the exclusion context is part of the delta's checkpoint key: a
        # resume against a CHANGED base must invalidate
        salt = hashlib.blake2b(ids.tobytes(), digest_size=8).hexdigest()
        n_excluded = int(ids.size)
        metrics = build_index(pages_dir, gen_dir, cfg, resume=resume,
                              exclude_ids_ref=ray.put(ids), key_salt=salt)
    else:
        sides = []
        h = hashlib.blake2b(digest_size=8)
        for g in state.generations:
            for f in g.docs:  # exclusion-context fingerprint without reading ids
                st = Path(f).stat()
                h.update(f"{f}|{st.st_size}|{st.st_mtime_ns};".encode())
            h.update(g.dead.tobytes())
            sides.append((list(g.docs), ray.put(g.dead) if g.dead.size else None))
        metrics = build_index(pages_dir, gen_dir, cfg, resume=resume,
                              exclude_prior_docstores=sides,
                              key_salt="ex:" + h.hexdigest())
        n_excluded = int((read_json(gen_dir / "_manifests" /
                                    "phase-docstore.json") or {}).get("n_prior_keys", 0))
    layout.publish_generation(state, gen_dir)
    g = layout.open_index(index_dir).stats
    metrics.update(
        generation=gen_dir.name,
        n_generations=len(state.generations),
        excluded_prior_docs=n_excluded,
        exclusion_mode=exclusion,
        global_N=g["N"],
        global_avgdl=g["avgdl"],
        append_wall_sec=round(time.perf_counter() - t0, 3),
    )
    return metrics


def _drop_dead_rows(path: str, dead: np.ndarray) -> int:
    """Rewrite one docstore file without its tombstoned rows (no-op when
    none are present; file removed entirely when all rows are dead).
    Writer options match the build's docstore writes."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    ids = pq.read_table(path, columns=["doc_id"])["doc_id"].to_numpy(zero_copy_only=False)
    hit = sorted_member(ids, dead)
    n_hit = int(hit.sum())
    if n_hit == 0:
        return 0
    p = Path(path)
    full = pq.read_table(path)
    out = full.filter(pa.array(~hit))
    if out.num_rows == 0:
        p.unlink()
    else:
        tmp = p.with_suffix(".tmp")
        pq.write_table(out, tmp, compression="lz4", row_group_size=1024)
        tmp.rename(p)
    return n_hit


def compact_index(
    index_dir: str | Path,
    cfg: IndexConfig = DEFAULT_CONFIG,
    *,
    resume: bool = True,
) -> dict:
    """Fold every generation into the base: consolidate docstores, drop
    the generation dirs, then re-derive global stats, hot terms and
    segments over the union with the build's shared runner. After
    compaction the index is a plain single-generation layout again."""
    # compaction-in-progress marker (ADVICE r2): between folding the
    # generation docstores and sealing the new segments, the on-disk index
    # is a readable-but-WRONG state (stale base-only segments over a union
    # docstore). Readers refuse while the marker exists; a crash leaves it
    # in place so the gap is loud until compact is re-run to completion.
    state = layout.begin_compaction(index_dir, cfg)
    metrics: dict = {"phases": {}, "n_generations_folded": len(state.generations) - 1}
    t0 = time.perf_counter()

    # ---- physically drop tombstoned docs from each generation's docstore
    # (sparse per-file rewrites, one Ray task per file; a file with no dead
    # rows is untouched). Idempotent: a crash mid-way re-runs the same
    # filters as no-ops. The tombstones go away only after ALL rewrites
    # complete, so every derived artifact below (stats, hot terms,
    # segments) is computed from the post-delete corpus — identical to a
    # from-scratch rebuild without the deleted docs.
    drop = ray.remote(_drop_dead_rows)
    tasks = []
    for g in state.generations:
        if g.dead.size:
            dref = ray.put(g.dead)
            tasks.extend(drop.remote(f, dref) for f in g.docs)
    metrics["tombstoned_dropped"] = int(sum(ray.get(tasks)))
    layout.drop_tombstones(state)

    # ---- fold generation docstores into the base docstore (rename only),
    # then drop the generations. Everything derived (stats, hot terms,
    # segments) is recomputed below from the docstore files actually on
    # disk, never from the generation manifests, so a re-run after a crash
    # anywhere inside compaction converges.
    doc_files = layout.fold_generations(state)
    key = f"{fingerprint_inputs(doc_files)}-{config_key(cfg)}-compact"
    metrics["phases"]["docstore"] = round(time.perf_counter() - t0, 3)

    # the same hash-sample rule as a from-scratch build, so for dedup-free
    # corpora the hot set — and therefore the segment bytes — match a full
    # rebuild
    metrics = _derive_index(state.root, doc_files, cfg, key, resume, metrics)
    layout.end_compaction(state)  # index is consistent again
    return metrics
