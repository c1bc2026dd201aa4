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
- The reader (index/reader.py) globs every generation's segments, sums
  df/cf per term across files, scores with GLOBAL (N, avgdl), and keeps
  block-max WAND exact by inflating each generation's stored bounds by
  the provable factor max(1, avgdl_global / avgdl_generation).
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
from ..index.docid import sorted_member
from ..index.reader import (check_not_compacting, dead_ids_for_gen, load_tombstones,
                            read_global_stats)
from ..state.manifest import atomic_write_json, config_key, fingerprint_inputs, read_json
from .build import build_index, _derive_index


def _docstore_files(dirs: list[Path]) -> list[str]:
    out: list[str] = []
    for d in dirs:
        out.extend(sorted(str(p) for p in (d / "docs").glob("*.parquet")))
    return out


def collect_doc_ids(dirs: list[Path]) -> np.ndarray:
    """Sorted unique doc_ids across the given index dirs' docstores —
    a pruned columnar read (doc_id only; docstore files are doc_id-sorted
    with row-group stats, so this touches one slim column)."""
    import pyarrow.parquet as pq

    parts = []
    for f in _docstore_files(dirs):
        parts.append(pq.read_table(f, columns=["doc_id"])["doc_id"].to_numpy(
            zero_copy_only=False))
    if not parts:
        return np.empty(0, np.int64)
    return np.unique(np.concatenate(parts))


def _check_scoring_config(root: Path, cfg: IndexConfig) -> None:
    stats = read_json(root / "stats.json")
    if not stats:
        raise FileNotFoundError(f"{root} is not a built index (no stats.json)")
    for k in ("k1", "b", "block_size"):
        if getattr(cfg, k) != stats[k]:
            raise ValueError(
                f"append config {k}={getattr(cfg, k)} != base index {k}={stats[k]}; "
                "scoring constants must match across generations")
    # positional postings are an artifact-level capability: a non-positional
    # delta on a positional base would silently downgrade phrase matching to
    # docstore verification, and a mismatched compact would rebuild with
    # different artifacts — require explicit agreement instead.
    if "store_positions" in stats:  # recorded at build time (fast path)
        base_positional = bool(stats["store_positions"])
    else:
        # older index layout: sniff ONE row group of one segment file
        # (never the whole binary column — ADVICE r2)
        import pyarrow.parquet as pq

        base_positional = cfg.store_positions  # vacuous when no segments
        seg_files = sorted((root / "segments").glob("*.parquet"))
        if seg_files:
            pf = pq.ParquetFile(seg_files[0])
            if pf.metadata.num_row_groups:
                meta = pf.read_row_group(0, columns=["pos_payload"])
                base_positional = meta["pos_payload"].null_count < meta.num_rows
    if base_positional != cfg.store_positions:
        raise ValueError(
            f"store_positions={cfg.store_positions} but the base index "
            f"{'has' if base_positional else 'lacks'} positional postings; "
            "generations must agree")


def delete_docs(index_dir: str | Path, doc_ids) -> dict:
    """Tombstone documents (takedowns / robots revocations) without a
    rebuild — the delete path the reference lacks (its only answer is
    truncate-rebuild, Indexer.java:83-89).

    Writes a tombstone batch ``tombstones/del-NNNN.parquet`` of
    (doc_id, upto_gen) rows, where ``upto_gen`` = the current newest
    generation index: every EXISTING occurrence of the doc (first-wins
    ownership puts it in exactly one generation <= upto_gen) goes dead,
    while a later re-append creates a new, live occurrence. Readers mask
    tombstoned postings at decode time (top-k exactness preserved —
    block-max bounds only loosen); ``compact_index`` drops them
    physically. Corpus stats (N, avgdl, df) drift until compaction, the
    standard deleted-docs semantics."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    root = Path(index_dir)
    check_not_compacting(root)
    if not (root / "stats.json").exists():
        raise FileNotFoundError(f"{root} is not a built index (no stats.json)")
    ids = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
    gens = read_json(root / "generations.json") or {"generations": []}
    upto = len(gens["generations"])
    tdir = root / "tombstones"
    tdir.mkdir(exist_ok=True)
    seq = len(list(tdir.glob("del-*.parquet"))) + 1
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()),
                    "upto_gen": pa.array(np.full(ids.size, upto, np.int64), pa.int64())})
    tmp = tdir / f".del-{seq:04d}.parquet.tmp"
    pq.write_table(tbl, tmp)
    tmp.rename(tdir / f"del-{seq:04d}.parquet")
    return {"n_tombstoned": int(ids.size), "upto_gen": upto, "batch": seq}


def _dead_arrays(root: Path, n_gens: int):
    """Per-generation sorted dead-id arrays (index 0 = base), or None."""
    tombs = load_tombstones(root)
    if tombs is None:
        return None
    return [dead_ids_for_gen(tombs, g) for g in range(n_gens + 1)]


# above this many prior docs, append_index switches from the broadcast
# exclusion set (8 B/doc through driver + object store) to streaming prior
# ids into the dedup key exchange (nothing prior-sized leaves the workers)
EXCHANGE_EXCLUSION_THRESHOLD = 20_000_000


def _prior_rows_estimate(dirs: list[Path]) -> int:
    """Prior corpus size from parquet METADATA only (no column reads)."""
    import pyarrow.parquet as pq

    return sum(pq.ParquetFile(f).metadata.num_rows for f in _docstore_files(dirs))


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
    root = Path(index_dir)
    _check_scoring_config(root, cfg)
    gens = read_json(root / "generations.json") or {"generations": []}
    prior = [root] + [root / g for g in gens["generations"]]
    # exclusion set = prior-owned ids MINUS their pending tombstones, so a
    # deleted doc is re-addable (the tombstone's upto_gen predates the new
    # generation, which therefore serves the fresh copy)
    dead = _dead_arrays(root, len(gens["generations"]))
    exclusion = ("exchange" if _prior_rows_estimate(prior) >
                 EXCHANGE_EXCLUSION_THRESHOLD else "broadcast")
    gen_name = f"gen-{len(gens['generations']) + 1:04d}"
    t0 = time.perf_counter()
    n_excluded = 0
    if exclusion == "broadcast":
        parts = []
        for g, d in enumerate(prior):
            ids_g = collect_doc_ids([d])
            if dead is not None and dead[g] is not None:
                ids_g = ids_g[~sorted_member(ids_g, dead[g])]
            parts.append(ids_g)
        ids = np.unique(np.concatenate(parts)) if parts else np.empty(0, np.int64)
        # the exclusion context is part of the delta's checkpoint key: a
        # resume against a CHANGED base must invalidate
        salt = hashlib.blake2b(ids.tobytes(), digest_size=8).hexdigest()
        n_excluded = int(ids.size)
        metrics = build_index(pages_dir, root / gen_name, cfg, resume=resume,
                              exclude_ids_ref=ray.put(ids), key_salt=salt)
    else:
        sides = []
        h = hashlib.blake2b(digest_size=8)
        for g, d in enumerate(prior):
            files = _docstore_files([d])
            for f in files:  # exclusion-context fingerprint without reading ids
                st = Path(f).stat()
                h.update(f"{f}|{st.st_size}|{st.st_mtime_ns};".encode())
            dg = dead[g] if dead is not None else None
            if dg is not None:
                h.update(np.asarray(dg, np.int64).tobytes())
            dref = ray.put(np.asarray(dg, np.int64)) if dg is not None and dg.size else None
            sides.append((files, dref))
        metrics = build_index(pages_dir, root / gen_name, cfg, resume=resume,
                              exclude_prior_docstores=sides,
                              key_salt="ex:" + h.hexdigest())
        n_excluded = int((read_json(root / gen_name / "_manifests" /
                                    "phase-docstore.json") or {}).get("n_prior_keys", 0))
    if gen_name not in gens["generations"]:
        gens["generations"].append(gen_name)
        atomic_write_json(root / "generations.json", gens)
    g = read_global_stats(root)
    metrics.update(
        generation=gen_name,
        n_generations=len(gens["generations"]),
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
    import shutil

    root = Path(index_dir)
    _check_scoring_config(root, cfg)
    gens = read_json(root / "generations.json") or {"generations": []}
    metrics: dict = {"phases": {}, "n_generations_folded": len(gens["generations"])}
    t0 = time.perf_counter()

    # compaction-in-progress marker (ADVICE r2): between deleting the
    # generation dirs and sealing the new segments, the on-disk index is a
    # readable-but-WRONG state (stale base-only segments over a union
    # docstore). Readers refuse while this marker exists; a crash leaves it
    # in place so the gap is loud until compact is re-run to completion.
    marker = root / "compacting.json"
    atomic_write_json(marker, {"started_at": time.time(),
                               "generations": list(gens["generations"])})

    # ---- physically drop tombstoned docs from each generation's docstore
    # (sparse per-file rewrites, one Ray task per file; a file with no dead
    # rows is untouched). Idempotent: a crash mid-way re-runs the same
    # filters as no-ops. The tombstones dir goes away only after ALL
    # rewrites complete, so every derived artifact below (stats, hot
    # terms, segments) is computed from the post-delete corpus — identical
    # to a from-scratch rebuild without the deleted docs.
    dead = _dead_arrays(root, len(gens["generations"]))
    n_dropped = 0
    if dead is not None:
        drop = ray.remote(_drop_dead_rows)
        tasks = []
        for g, d in enumerate([root] + [root / x for x in gens["generations"]]):
            dg = dead[g]
            if dg is None:
                continue
            dref = ray.put(np.asarray(dg, dtype=np.int64))
            for f in sorted((d / "docs").glob("*.parquet")):
                tasks.append(drop.remote(str(f), dref))
        n_dropped = int(sum(ray.get(tasks)))
        shutil.rmtree(root / "tombstones", ignore_errors=True)
    metrics["tombstoned_dropped"] = n_dropped

    # ---- fold generation docstores into the base docstore (rename only;
    # gen- prefix keeps names collision-free and lineage-readable), then
    # drop the generations. Everything derived (stats, hot terms,
    # segments) is recomputed below from the docstore files actually on
    # disk, never from the generation manifests: a crash anywhere inside
    # compaction leaves a state a re-run converges from, because the
    # (idempotent) moves made the docstore complete before anything was
    # deleted.
    docs_dir = root / "docs"
    for g in gens["generations"]:
        gdocs = root / g / "docs"
        if gdocs.exists():
            for f in sorted(gdocs.glob("*.parquet")):
                f.rename(docs_dir / f"{g}-{f.name}")
    for g in gens["generations"]:
        shutil.rmtree(root / g, ignore_errors=True)
    (root / "generations.json").unlink(missing_ok=True)
    doc_files = sorted(str(p) for p in docs_dir.glob("*.parquet"))
    key = f"{fingerprint_inputs(doc_files)}-{config_key(cfg)}-compact"
    metrics["phases"]["docstore"] = round(time.perf_counter() - t0, 3)

    # the same hash-sample rule as a from-scratch build, so for dedup-free
    # corpora the hot set — and therefore the segment bytes — match a full
    # rebuild
    metrics = _derive_index(root, doc_files, cfg, key, resume, metrics)
    marker.unlink(missing_ok=True)  # index is consistent again
    return metrics
