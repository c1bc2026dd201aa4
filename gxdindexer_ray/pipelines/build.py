"""The flagship pipeline: pages parquet -> inverted index segments.

Phase structure (each phase seals an atomic manifest; a re-run with the same
input fingerprint + config skips completed phases — the checkpoint-resume
the reference lacks, see state/manifest.py):

  P0 docstore : read pages -> HTML extract (html dropped immediately) ->
                docID + doc length -> in-batch pre-dedup -> docstore file
                written MAP-SIDE per batch (doc_id-sorted) -> only ~50-byte
                KEY rows (doc_id, warc_ts, text-hash, file, row) cross the
                dedup shuffle -> per-bucket first-wins winner selection
                (dedup-rule v2: min (warc_ts, blake2b128(text))) -> the few
                duplicate LOSER rows are dropped from their files in a
                sparse per-file rewrite ("ship keys, not payloads": at
                <1%% duplicates the payload never moves twice)
  P1 stats    : N, avgdl -> stats.json (from P0's key rows, no scan)
  P2 hotterms : deterministic doc_id hash-sample -> sampled df -> hot set
                (from pairs P0 sampled while the text was in memory)
  P3 segments : tokenize + SPIMI partial tasks writing a per-bucket file
                exchange -> one merge task per bucket -> segment files
                + per-bucket lineage rows -> segments_manifest.json

P1-P3 and metrics.json are one runner, _derive_index, shared with the
filtered sub-index build and compaction: those start from a docstore that
is already on disk, so their P1/P2 are scans of it.

Reference parity: this is GxdResultIndexer.index()'s scan->derive->write
spine (GxdResultIndexer.java:935-1266) with the index build internalized
instead of delegated to Solr. Scale notes are inline per stage.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..config import DEFAULT_CONFIG, IndexConfig
from ..index.docid import doc_id_column, sorted_member
from ..index.merge import merge_bucket_files
from ..index.spimi import make_spimi_writer_fn
from ..state.manifest import PhaseManifest, atomic_write_json, config_key, fingerprint_inputs, read_json
from ..text.extract import extract_column
from ..text.tokenize import doc_term_counts

DOCSTORE_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.int64()),
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("lang", pa.string()),
        pa.field("text", pa.string()),
        pa.field("dl", pa.int64()),
    ]
)

_DEDUP_RANGE_BITS = 6  # 64 doc-range dedup buckets -> one docstore file per
                       # doc_id range (file + row-group stats prune lookups).
                       # Scale note: bucket bytes ~= slim_corpus/2^bits; raise
                       # the bits with corpus size so one reducer's bucket
                       # stays in worker memory (64 suits the 1-16M-doc tier).


_KEY_SORT = ["doc_id", "warc_ts", "th_hi", "th_lo"]


def _tiebreak_cols(text: pa.Array) -> tuple[pa.Array, pa.Array]:
    """dedup-rule v2 tie-break (shared with oracle.engine.dedup_tiebreak_hash):
    blake2b-128 of the text, as two big-endian int64 halves (two's-
    complement reinterpretation, value-identical to the original
    ``(int.from_bytes ^ 2^63) - 2^63`` formulation). Hashing goes through
    the buffer-level batch loop in index.docid.blake2b_rows — no per-row
    Python string construction."""
    from ..index.docid import blake2b_rows

    d = blake2b_rows(text, 16)
    return (pa.array(d[:, 0].view(np.int64), pa.int64()),
            pa.array(d[:, 1].view(np.int64), pa.int64()))


def _extract_slim(batch: pa.Table) -> pa.Table:
    """Extract text (frozen spec) FIRST, drop the wide html column, assign
    docIDs and doc lengths, compute the dedup tie-break hash, then in-batch
    pre-dedup (first row per doc_id after the _KEY_SORT). Output rows are
    doc_id-sorted — ready to write as a docstore partial."""
    batch = batch.combine_chunks()
    text = extract_column(batch["html"])
    # dl = number of tokenizer matches — one C kernel, no token
    # materialization (the full tokenize happens once, in the SPIMI phase)
    from ..text.tokenize import TOKEN_PATTERN

    dl = pc.count_substring_regex(pc.utf8_lower(text), pattern=TOKEN_PATTERN)
    th_hi, th_lo = _tiebreak_cols(text)
    slim = pa.table(
        {
            "doc_id": doc_id_column(batch["url"]),
            "url": batch["url"],
            "warc_ts": batch["warc_ts"],
            "lang": batch["lang"],
            "text": text,
            "dl": dl.cast(pa.int64()),
            "th_hi": th_hi,
            "th_lo": th_lo,
        }
    )
    order = pc.sort_indices(slim, sort_keys=[(k, "ascending") for k in _KEY_SORT])
    slim = slim.take(order)
    ids = slim["doc_id"].combine_chunks()
    n = len(ids)
    if n <= 1:
        first = pa.array([True] * n)
    else:
        same_as_prev = pc.equal(ids.slice(1, n - 1), ids.slice(0, n - 1))
        first = pa.concat_arrays([pa.array([True]), pc.invert(same_as_prev)])
    return slim.filter(first)


_KEYS_SCHEMA = pa.schema(
    [
        pa.field("bucket", pa.int32()),
        pa.field("doc_id", pa.int64()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("th_hi", pa.int64()),
        pa.field("th_lo", pa.int64()),
        pa.field("dl", pa.int64()),
        pa.field("file", pa.string()),
        pa.field("row", pa.int32()),
    ]
)


def make_docstore_writer_fn(docs_tmp: str, sample_tmp: str | None = None,
                            sample_cut: int = 0, exclude_ids_ref=None):
    """Map side of P0: extract + pre-dedup a pages batch, write the batch's
    docstore file (doc_id-sorted, lz4) straight to its FINAL directory, and
    return only ~50-byte key rows for the dedup exchange. Measured rationale
    (1M docs, 8 CPUs): shuffling slim text rows through Ray Data's
    sort-based groupby cost 18.7s of a 20.7s P0; per-(batch,bucket) partial
    files cost ~1 ms/file x 64k files. Shipping keys only makes the
    exchange ~50 MB/1M docs and the payload is written exactly once."""
    import os
    import uuid

    import pyarrow.parquet as pq

    def write(batch: pa.Table) -> pa.Table:
        if exclude_ids_ref is not None:
            # incremental append: docs already present in an earlier
            # generation are dropped BEFORE extraction (first-wins across
            # generations — the earliest generation keeps the doc). The
            # exclusion set is a sorted int64 array broadcast once via
            # ray.put; at 10^12-doc scale swap it for per-doc-range bloom
            # filters keyed by the same range buckets as the docstore.
            hit = sorted_member(doc_id_column(batch["url"]).to_numpy(zero_copy_only=False),
                                ray.get(exclude_ids_ref))
            if hit.any():
                batch = batch.filter(pa.array(~hit))
            if batch.num_rows == 0:
                return _KEYS_SCHEMA.empty_table()
        tbl = _extract_slim(batch)
        fname = f"part-{os.getpid()}-{uuid.uuid4().hex[:8]}.parquet"
        # small row groups + per-file doc_id sort -> row-group-stat pruning
        # for the P2 hash-sample scan and point lookups
        pq.write_table(tbl.drop_columns(["th_hi", "th_lo"]).cast(DOCSTORE_SCHEMA),
                       Path(docs_tmp) / fname, compression="lz4", row_group_size=1024)
        ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
        if sample_tmp is not None:
            # hot-term sample pairs computed HERE, while the text is already
            # in memory — P2 then never re-reads the docstore. The cut is a
            # pure function of the input metadata row count, and P2 excludes
            # dedup-loser rows via the persisted loser list, so the sampled
            # df stays invariant to batching/parallelism.
            smask = ids < sample_cut
            if smask.any():
                sub = tbl.filter(pa.array(smask))
                vocab, doc_idx, codes, _tf = doc_term_counts(sub["text"])
                rows_in_file = np.flatnonzero(smask).astype(np.int32)
                pair_term = vocab.take(pa.array(codes)) if len(vocab) else pa.array([], pa.string())
                pair_row = rows_in_file[doc_idx] if len(vocab) else np.empty(0, np.int32)
                n_sub = sub.num_rows
                pq.write_table(pa.table({
                    "term": pa.concat_arrays([pair_term.combine_chunks() if isinstance(pair_term, pa.ChunkedArray) else pair_term,
                                              pa.array(["\x00__doc__"] * n_sub, pa.string())]),
                    "file": pa.array([fname] * (len(pair_row) + n_sub), pa.string()),
                    "row": pa.array(np.concatenate([pair_row, rows_in_file]), pa.int32()),
                }), Path(sample_tmp) / fname, compression="lz4")
        rb = (ids >> (63 - _DEDUP_RANGE_BITS)).astype(np.int32)
        return pa.table({
            "bucket": pa.array(rb, pa.int32()),
            "doc_id": tbl["doc_id"],
            "warc_ts": tbl["warc_ts"],
            "th_hi": tbl["th_hi"],
            "th_lo": tbl["th_lo"],
            "dl": tbl["dl"],  # lets P1 derive corpus stats with no re-scan
            "file": pa.array([fname] * tbl.num_rows, pa.string()),
            "row": pa.array(np.arange(tbl.num_rows, dtype=np.int32), pa.int32()),
        }).cast(_KEYS_SCHEMA)

    return write


_PRIOR_TS_SENTINEL = -(1 << 62)  # epoch-us far before any real warc_ts


def make_prior_keys_fn(dead_ref):
    """Map a prior generation's docstore batches (doc_id column only) to
    dedup-exchange key rows that ALWAYS WIN: warc_ts/th sentinels sort
    before any real row in _KEY_SORT, so a re-crawled doc becomes the
    loser and is dropped by the ordinary sparse-rewrite path. This is the
    scale path for incremental appends — prior ownership is co-partitioned
    through the same exchange as intra-build dedup instead of being
    collected on the driver and broadcast (O(prior N) driver memory).
    ``dead_ref``: optional ray.put ref of the generation's SORTED
    tombstoned ids — a deleted doc must NOT exclude a fresh copy."""

    def f(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if dead_ref is not None:
            ids = ids[~sorted_member(ids, ray.get(dead_ref))]
        n = ids.size
        i64_min = np.iinfo(np.int64).min
        return pa.table({
            "bucket": pa.array((ids >> (63 - _DEDUP_RANGE_BITS)).astype(np.int32)),
            "doc_id": pa.array(ids),
            "warc_ts": pa.array(np.full(n, _PRIOR_TS_SENTINEL, np.int64),
                                pa.timestamp("us")),
            "th_hi": pa.array(np.full(n, i64_min, np.int64)),
            "th_lo": pa.array(np.full(n, i64_min, np.int64)),
            "dl": pa.array(np.zeros(n, np.int64)),
            "file": pa.array([""] * n, pa.string()),
            "row": pa.array(np.full(n, -1, np.int32)),
        }).cast(_KEYS_SCHEMA)

    return f


def _find_losers(g: pa.Table) -> pa.Table:
    """Reduce side of the key exchange: within one doc-range bucket, the
    winner per doc_id is min (warc_ts, th_hi, th_lo) — dedup-rule v2,
    first-wins (D3, SURVEY.md §2.8; the reference's first-write-wins
    GxdResultIndexer.java:718-756). Emits the (file, row) addresses of
    every LOSER row. Content-deterministic: ties beyond the hash can only
    occur for byte-equal text, where either copy is the same document."""
    n = g.num_rows
    if n <= 1:  # also the column-less table an exchange with no keys hands over
        return _KEYS_SCHEMA.empty_table().select(["file", "row", "dl"])
    order = pc.sort_indices(g, sort_keys=[(k, "ascending")
                                          for k in _KEY_SORT + ["file", "row"]])
    g = g.take(order)
    ids = g["doc_id"].combine_chunks()
    dup = pa.concat_arrays([pa.array([False]),
                            pc.equal(ids.slice(1, n - 1), ids.slice(0, n - 1))])
    return g.select(["file", "row", "dl"]).filter(dup)


def make_loser_dropper(docs_tmp: str):
    """Per-file sparse rewrite: drop the loser rows from one docstore file
    (order — and therefore doc_id-sortedness — preserved). Only files that
    actually contain duplicates are touched."""
    import pyarrow.parquet as pq

    def drop(g: pa.Table) -> pa.Table:
        empty = pa.table({"file": pa.array([], pa.string()),
                          "dropped": pa.array([], pa.int64()),
                          "dropped_dl": pa.array([], pa.int64())})
        if g.num_rows == 0:  # no duplicate losers anywhere
            return empty
        fname = g["file"][0].as_py()
        if fname == "":  # prior-generation sentinel rows can never lose,
            return empty  # but guard the rewrite path regardless
        path = Path(docs_tmp) / fname
        rows = np.sort(g["row"].to_numpy(zero_copy_only=False).astype(np.int64))
        tbl = pq.read_table(path)
        mask = np.ones(tbl.num_rows, bool)
        mask[rows] = False
        tmp = path.with_name("." + fname + ".tmp")
        pq.write_table(tbl.filter(pa.array(mask)), tmp, compression="lz4",
                       row_group_size=1024)
        tmp.rename(path)
        return pa.table({"file": pa.array([fname], pa.string()),
                         "dropped": pa.array([int(rows.size)], pa.int64()),
                         "dropped_dl": pa.array([int(g["dl"].to_numpy(zero_copy_only=False).sum())], pa.int64())})

    return drop


def _hot_from_partials(pair_ds, hot_df_ratio: float) -> tuple[list[str], int]:
    """Final-merge per-block (term, df) partials into the hot-term set,
    fully vectorized: per-block partial aggregation already ran in the map
    tasks, so what reaches the driver is one row per (term, block) — the
    Arrow C++ group-by here replaces the former Python Counter loop over
    ``to_pylist`` (measured: the Counter merge was the whole phase cost
    once the scan was fused into P0). The ``\\x00__doc__`` sentinel rows
    carry per-block sampled-doc counts."""
    import ray as _ray

    refs = pair_ds.to_arrow_refs()
    parts = [t for t in _ray.get(refs) if t.num_rows] if refs else []
    if not parts:
        return [], 0
    tbl = pa.concat_tables(parts).combine_chunks()
    agg = pa.TableGroupBy(tbl, "term").aggregate([("df", "sum")])
    terms = agg["term"]
    dfs = agg["df_sum"]
    doc_mask = pc.equal(terms, "\x00__doc__")
    sampled_docs = int(pc.sum(pc.filter(dfs, doc_mask)).as_py() or 0)
    if not sampled_docs:
        return [], 0
    hot_mask = pc.and_(pc.invert(doc_mask),
                       pc.greater(dfs, hot_df_ratio * sampled_docs))
    hot = sorted(pc.filter(terms, hot_mask).to_pylist())
    return hot, sampled_docs


_REQUIRED_INPUT = {
    "url": pa.string(),
    "warc_ts": pa.timestamp("us"),
    "html": pa.binary(),
    "lang": pa.string(),
}


def _validate_pages_schema(path: str) -> None:
    """Fail fast with a precise message when the input is not the
    BASELINE.json input_hint shape (explicit-schema stance, SURVEY.md §1.3:
    the reference lets Solr type fields server-side; we validate at the
    door instead)."""
    import pyarrow.parquet as pq

    schema = pq.read_schema(path)
    problems = []
    for name, typ in _REQUIRED_INPUT.items():
        if name not in schema.names:
            problems.append(f"missing column {name!r} ({typ})")
        else:
            got = schema.field(name).type
            ok = got == typ or (name == "html" and got in (pa.binary(), pa.large_binary()))
            if not ok:
                problems.append(f"column {name!r} is {got}, expected {typ}")
    if problems:
        raise ValueError(
            f"input corpus schema mismatch in {path}: " + "; ".join(problems)
            + " (expected pages shape: url string, warc_ts timestamp[us], html binary, "
              "text string, lang string)"
        )


def _n_cpus() -> int:
    return int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4


def _save_exec_stats(out: Path, tag: str, ds) -> None:
    """Persist Ray Data's per-stage execution stats (wall/cpu/memory
    breakdown) for capacity planning — the analog of the reference's
    per-indexer timing files (bin/buildIndexes:262)."""
    try:
        (out / "_manifests").mkdir(parents=True, exist_ok=True)
        (out / "_manifests" / f"exec-stats-{tag}.txt").write_text(ds.stats())
    except Exception:
        pass  # stats are advisory; never fail a build over them


def build_index(
    pages_dir: str | Path,
    out_dir: str | Path,
    cfg: IndexConfig = DEFAULT_CONFIG,
    *,
    resume: bool = True,
    parallelism: int | None = None,
    exclude_ids_ref=None,
    exclude_prior_docstores=None,
    key_salt: str = "",
) -> dict:
    """Build the full index; returns the metrics dict (also metrics.json).

    ``exclude_ids_ref``: optional ``ray.put`` ref of a SORTED int64 numpy
    array of doc_ids to drop at the door (incremental append: docs already
    owned by an earlier generation). ``key_salt`` folds the exclusion
    context into the checkpoint key so a resume against a changed base
    invalidates.

    ``exclude_prior_docstores``: the broadcast-free alternative for LARGE
    prior corpora — a list of (parquet file list, dead_ids ray ref or
    None) per prior generation. Prior doc_ids are streamed into the dedup
    key exchange as always-win sentinel rows (see make_prior_keys_fn), so
    exclusion is co-partitioned with the exchange and nothing prior-sized
    ever lands on the driver or is broadcast. Mutually exclusive with
    ``exclude_ids_ref``; results are identical (tested)."""
    pages_dir, out = Path(pages_dir), Path(out_dir)
    input_files = sorted(str(p) for p in pages_dir.glob("*.parquet"))
    if not input_files:
        raise FileNotFoundError(f"no parquet files in {pages_dir}")
    _validate_pages_schema(input_files[0])
    from ..text.extract import EXTRACT_SPEC_VERSION

    # frozen-spec versions are part of the checkpoint key: a spec bump must
    # invalidate resume state even though it isn't an IndexConfig field
    # (d2 = dedup-rule v2: hash tie-break + key-exchange docstore layout)
    key = f"{fingerprint_inputs(input_files)}-{config_key(cfg)}-x{EXTRACT_SPEC_VERSION}-d2"
    if key_salt:
        key += f"-xk:{key_salt}"
    out.mkdir(parents=True, exist_ok=True)
    docs_dir = out / "docs"
    metrics: dict = {"phases": {}}

    # ---------------- P0: docstore ------------------------------------
    p0 = PhaseManifest(out, "docstore", key)
    t0 = time.perf_counter()
    if not (resume and p0.is_complete()):
        import shutil

        # "Ship keys, not payloads": the docstore payload is written once,
        # map-side; only (doc_id, warc_ts, hash, file, row) key rows cross
        # the dedup exchange, and only files holding duplicate losers are
        # rewritten. On re-crawls whose storage is already
        # url-range-partitioned, the dedup stays entirely map-side.
        tmp_docs = out / ".docs.tmp"
        tmp_sample = out / ".hotsample.tmp"
        for d in (tmp_docs, tmp_sample):
            if d.exists():
                shutil.rmtree(d)
            d.mkdir(parents=True)
        # hot-sample cut from input METADATA row counts (pre-dedup N is
        # within dup-rate of post-dedup N — a sampling knob, not semantics)
        import pyarrow.parquet as _pq

        n0 = sum(_pq.ParquetFile(f).metadata.num_rows for f in input_files)
        sample_cut = _sample_cut(n0, cfg)
        # one block per extract batch + batch_size=None -> Ray FUSES the
        # read into the map task, so the wide html column goes straight
        # from the parquet reader into extract without an object-store
        # round trip (at 1M docs that skips ~9 GB of put+get)
        n_blocks = max(1, -(-n0 // cfg.batch_size))
        ds = rd.read_parquet(input_files, columns=["url", "warc_ts", "html", "lang"],
                             override_num_blocks=n_blocks)
        keys = ds.map_batches(make_docstore_writer_fn(str(tmp_docs), str(tmp_sample),
                                                      sample_cut, exclude_ids_ref),
                              batch_format="pyarrow", batch_size=None)
        # coalesce key blocks before the exchange: keys are ~50 B/doc, so
        # one block per extract batch would make the sort all per-block
        # overhead (keys stay a distributed Dataset — at crawl scale this
        # groupby is the only part of dedup that shuffles at all).
        # materialize() here is deliberate and cheap (key rows only): it
        # splits the extract map from the downstream all-to-all stages so
        # the streaming executor's per-operator memory reservations don't
        # throttle the expensive extract (measured: fused lineage 45.5s vs
        # split 16-20s for the same P0 at 8 CPUs / 1M docs)
        from ..ops.relational import exchange

        # extra materialize BEFORE the repartition all-to-all: any
        # all-to-all in the same lineage as the extract map makes the
        # executor's per-operator reservations throttle the map (measured
        # ~44% map utilization at 8 CPUs with the fused variant)
        keys = keys.materialize()
        n_prior = 0
        if exclude_prior_docstores:
            prior_parts = []
            for files, dead_ref in exclude_prior_docstores:
                if not files:
                    continue
                prior_parts.append(
                    rd.read_parquet(files, columns=["doc_id"]).map_batches(
                        make_prior_keys_fn(dead_ref), batch_format="pyarrow"))
            if prior_parts:
                pk = (prior_parts[0].union(*prior_parts[1:])
                      if len(prior_parts) > 1 else prior_parts[0]).materialize()
                n_prior = int(pk.count())
                keys = keys.union(pk)
        keys = keys.repartition(max(8, _n_cpus() // 2)).materialize()
        # whole-group integrity is load-bearing here (a split bucket would
        # silently keep duplicate docs) -> explicit exchange, not map_groups
        losers = exchange(keys, _find_losers, by="bucket",
                          batch_format="pyarrow").materialize()
        dropped = exchange(losers, make_loser_dropper(str(tmp_docs)), by="file",
                           batch_format="pyarrow").to_pandas()
        _save_exec_stats(out, "p0-docstore", keys)
        # persist the loser addresses: P2 excludes them from the hot sample
        losers_dir = out / "losers"
        if losers_dir.exists():
            shutil.rmtree(losers_dir)
        if losers.count() > 0:
            losers.write_parquet(str(losers_dir))
        else:
            losers_dir.mkdir(parents=True)
        sample_dir = out / "hotsample"
        if sample_dir.exists():
            shutil.rmtree(sample_dir)
        tmp_sample.rename(sample_dir)
        if docs_dir.exists():
            shutil.rmtree(docs_dir)
        tmp_docs.rename(docs_dir)
        n_losers = int(dropped["dropped"].sum()) if len(dropped) else 0
        losers_dl = int(dropped["dropped_dl"].sum()) if len(dropped) else 0
        # corpus stats fall out of the key rows for free (P1 needs no scan)
        # prior sentinel rows carry dl=0, so only the count needs adjusting
        p0.seal(files=len(list(docs_dir.glob("*.parquet"))),
                dup_losers_dropped=n_losers,
                sample_cut=sample_cut,
                n_prior_keys=n_prior,
                n_docs=int(keys.count()) - n_prior - n_losers,
                total_dl=int(keys.sum("dl") or 0) - losers_dl)
    metrics["phases"]["docstore"] = round(time.perf_counter() - t0, 3)
    doc_files = sorted(str(p) for p in docs_dir.glob("*.parquet"))
    return _derive_index(out, doc_files, cfg, key, resume, metrics,
                         from_p0=read_json(p0.path))


def _derive_index(out: Path, doc_files: list[str], cfg: IndexConfig, key: str,
                  resume: bool, metrics: dict, from_p0: dict | None = None) -> dict:
    """Everything after the docstore, in one place for every entry point
    (build_index, build_filtered_index, compact_index; append_index builds
    through build_index): P1 corpus stats -> P2 hot terms -> P3 segments ->
    metrics.json. Each phase seals its manifest under ``key`` and is
    skipped on a resume with the same key. ``from_p0`` is the sealed P0
    manifest of a build from pages: its key-row counts give the stats with
    no scan, and the pairs P0 sampled give the hot terms with no docstore
    re-read. Without it (a filtered subset, a compaction's union) both are
    scans of ``doc_files`` — the files on disk are the only truth."""
    import shutil

    phases = metrics["phases"]

    # ---------------- P1: corpus stats --------------------------------
    p1 = PhaseManifest(out, "stats", key)
    t0 = time.perf_counter()
    if not (resume and p1.is_complete()):
        if from_p0 is not None:
            N, total_dl = int(from_p0["n_docs"]), int(from_p0["total_dl"])
        elif doc_files:  # columnar scan of dl only
            dls = rd.read_parquet(doc_files, columns=["dl"])
            N, total_dl = int(dls.count()), int(dls.sum("dl") or 0)
        else:
            N = total_dl = 0
        stats = {
            "N": N,
            "total_dl": total_dl,
            "avgdl": (total_dl / N) if N else 0.0,
            "k1": cfg.k1,
            "b": cfg.b,
            "block_size": cfg.block_size,
            # artifact capability flag: appends/compacts check this instead
            # of sniffing a segment's pos_payload column (ADVICE r2: that
            # sniff read an entire binary column per append)
            "store_positions": bool(cfg.store_positions),
        }
        atomic_write_json(out / "stats.json", stats)
        p1.seal(**stats)
    stats = read_json(out / "stats.json")
    phases["stats"] = round(time.perf_counter() - t0, 3)

    p2 = PhaseManifest(out, "hotterms", key)
    hot_path = out / "hot_terms.json"
    if not stats["N"]:
        # empty corpus (a re-append of pages the index already owns, a
        # predicate that matches nothing, a compaction after every doc was
        # deleted): nothing to sample or post, but every artifact a reader
        # opens is still written
        shutil.rmtree(out / "segments", ignore_errors=True)
        (out / "segments").mkdir(parents=True)
        atomic_write_json(out / "segments_manifest.json", {"buckets": []})
        PhaseManifest(out, "segments", key).seal(n_buckets=0)
        hot_terms = []
        atomic_write_json(hot_path, {"hot_terms": hot_terms, "sampled_docs": 0})
        p2.seal(n_hot=0, sampled_docs=0)
        phases.update(hotterms=0.0, segments=0.0)
    else:
        # ------------ P2: hot-term detection --------------------------
        # Deterministic hash-sample: doc_id < cut. Partition-invariant, so
        # the hot set (and therefore segment bytes) never depends on
        # parallelism.
        t0 = time.perf_counter()
        if not (resume and p2.is_complete()):
            hot, sampled_docs = (_hot_from_p0_sample(out, cfg) if from_p0 is not None
                                 else _hot_from_scan(doc_files, stats["N"], cfg))
            atomic_write_json(hot_path, {"hot_terms": hot, "sampled_docs": sampled_docs})
            p2.seal(n_hot=len(hot), sampled_docs=sampled_docs)
        hot_terms = read_json(hot_path)["hot_terms"]
        phases["hotterms"] = round(time.perf_counter() - t0, 3)

        # ------------ P3: SPIMI partials -> exchange -> merged segments
        t0 = time.perf_counter()
        _segments_phase(out, doc_files, stats, hot_terms, cfg, key, resume)
        phases["segments"] = round(time.perf_counter() - t0, 3)

    buckets = read_json(out / "segments_manifest.json")["buckets"]
    metrics.update(
        N=stats["N"],
        avgdl=stats["avgdl"],
        n_hot_terms=len(hot_terms),
        n_postings=sum(r["n_postings"] for r in buckets),
        bytes_shuffled=sum(r["bytes_in"] for r in buckets),
        bytes_segments=sum(r["bytes_out"] for r in buckets),
    )
    total = sum(phases.values())
    metrics["wall_sec"] = round(total, 3)
    metrics["docs_per_sec"] = round(stats["N"] / total, 1) if total else None
    metrics["postings_per_sec"] = round(metrics["n_postings"] / total, 1) if total else None
    atomic_write_json(out / "metrics.json", metrics)
    return metrics


def _sample_cut(n_docs: int, cfg: IndexConfig) -> int:
    """doc_id cut of the hot-term hash sample: doc_id < cut keeps about
    ``hot_sample_target`` of ``n_docs`` docs."""
    frac = min(1.0, cfg.hot_sample_target / max(1, n_docs))
    return min(int((1 << 63) * frac), (1 << 63) - 1)


def _hot_from_p0_sample(out: Path, cfg: IndexConfig) -> tuple[list[str], int]:
    """Hot terms from the (term, file, row) pairs P0 emitted into
    ``hotsample/`` while the text was in memory, minus the pairs of the
    dedup-loser rows listed in ``losers/``, so the sample covers winners
    only."""
    import pyarrow.parquet as pq

    sample_files = sorted(str(p) for p in (out / "hotsample").glob("*.parquet"))
    if not sample_files:
        return [], 0
    loser_keys: set[tuple[str, int]] = set()
    for f in (out / "losers").glob("*.parquet"):
        lt = pq.read_table(f, columns=["file", "row"])
        loser_keys.update(zip(lt["file"].to_pylist(), lt["row"].to_pylist()))
    loser_files = sorted({f for f, _ in loser_keys})

    def _pair_df(batch: pa.Table) -> pa.Table:
        if loser_files:
            # file-level prefilter (losers touch few files), then a
            # row-level check on only the matching rows
            fmask = pc.is_in(batch["file"], value_set=pa.array(loser_files))
            hit = np.flatnonzero(pc.fill_null(fmask, False).to_numpy(zero_copy_only=False))
            if hit.size:
                files = batch["file"].take(pa.array(hit)).to_pylist()
                rows = batch["row"].take(pa.array(hit)).to_pylist()
                drop = hit[[(f, r) in loser_keys for f, r in zip(files, rows)]]
                if drop.size:
                    keep = np.ones(batch.num_rows, bool)
                    keep[drop] = False
                    batch = batch.filter(pa.array(keep))
        vc = pc.value_counts(batch["term"].combine_chunks())
        return pa.table({"term": vc.field("values"),
                         "df": vc.field("counts").cast(pa.int64())})

    # coalesce the pair files into a few big blocks first: the driver
    # merges one vocab-sized partial per BLOCK, so block count — not file
    # count — sets the merge cost
    sample = rd.read_parquet(sample_files).repartition(max(8, _n_cpus()))
    return _hot_from_partials(sample.map_batches(_pair_df, batch_format="pyarrow",
                                                 batch_size=None),
                              cfg.hot_df_ratio)


def _hot_from_scan(doc_files: list[str], n_docs: int, cfg: IndexConfig) -> tuple[list[str], int]:
    """Hot terms from one scan of the docstore rows under the sample cut
    (row-group stats on the doc_id-sorted files prune the rest)."""
    sample = rd.read_parquet(doc_files, columns=["doc_id", "text"],
                             filter=pc.field("doc_id") < _sample_cut(n_docs, cfg))

    def _sample_df(batch: pa.Table) -> pa.Table:
        # df per term = count of distinct (doc, term) pairs in batch
        vocab, _, codes, _ = doc_term_counts(batch["text"])
        df = np.bincount(codes, minlength=len(vocab)).astype(np.int64) if codes.size else np.empty(0, np.int64)
        tbl = pa.table({"term": vocab, "df": pa.array(df, pa.int64())})
        meta = pa.table({"term": pa.array(["\x00__doc__"]),
                         "df": pa.array([batch.num_rows], pa.int64())})
        return pa.concat_tables([tbl, meta])

    return _hot_from_partials(sample.map_batches(_sample_df, batch_format="pyarrow",
                                                 batch_size=1024),
                              cfg.hot_df_ratio)


def _segments_phase(out: Path, doc_files: list[str], stats: dict, hot_terms: list[str],
                    cfg: IndexConfig, key: str, resume: bool) -> None:
    """P3 of _derive_index: tokenize + SPIMI partials -> per-bucket file
    exchange -> largest-first merges -> atomic segment swap."""
    if cfg.n_buckets == 0:
        # auto bucket count: ~31k docs (~2M postings) per bucket, power of
        # two, clamped [32, 4096]. Pure function of post-dedup N — the
        # parallelism-invariance contract survives; checkpoint keys carry
        # the literal 0 plus the input fingerprint that N derives from.
        from dataclasses import replace

        eff = 32
        while eff < 4096 and stats["N"] / eff > 31_250:
            eff *= 2
        cfg = replace(cfg, n_buckets=eff)
    segments_dir = out / "segments"
    p3 = PhaseManifest(out, "segments", key)
    if not (resume and p3.is_complete()):
        import shutil

        hot_ref = ray.put(hot_terms)
        partials_dir = out / ".partials.tmp"
        if partials_dir.exists():
            shutil.rmtree(partials_dir)

        # map side: SPIMI tasks write compressed partials straight into
        # per-bucket directories (hash exchange through storage — no global
        # sort; see make_spimi_writer_fn)
        docs = rd.read_parquet(doc_files, columns=["doc_id", "text"])
        writes = docs.map_batches(
            make_spimi_writer_fn(hot_ref, cfg, str(partials_dir)),
            batch_format="pyarrow",
            batch_size=cfg.spimi_batch_size,
        )
        by_bucket: dict[int, list[str]] = {}
        bucket_postings: dict[int, int] = {}
        for w in writes.take_all():
            bk = int(w["bucket"])
            by_bucket.setdefault(bk, []).append(w["path"])
            bucket_postings[bk] = bucket_postings.get(bk, 0) + int(w.get("postings") or 0)
        _save_exec_stats(out, "p3-spimi-map", writes)

        # reduce side: one task per bucket. On wide single boxes more than
        # ~16 concurrent merges just thrash shared memory bandwidth (see
        # BASELINE.md §3), so each task claims extra CPU slots to cap
        # effective concurrency without changing results.
        ncpu = int(ray.cluster_resources().get("CPU", 4))
        # merge into a fresh tmp dir, then swap atomically: a rebuild whose
        # new bucket set doesn't cover the old one (n_buckets reduced, input
        # shrank) must never leave stale bucket files for the reader's glob
        # to pick up alongside fresh ones (mirrors the P0 docstore pattern)
        seg_tmp = out / ".segments.tmp"
        if seg_tmp.exists():
            shutil.rmtree(seg_tmp)
        seg_tmp.mkdir(parents=True)  # no merge task runs if no doc has a token
        # largest bucket first: the biggest merge sets the tail latency, so
        # schedule it before the small ones (the reference's longest-first
        # subprocess scheduling, bin/buildIndexes:175-207, applied to the
        # reduce wave)
        bucket_bytes = {bk: sum(Path(f).stat().st_size for f in files)
                        for bk, files in by_bucket.items()}
        # concurrent-merge cap scales with BUCKET SIZE, not CPU count: each
        # merge streams ~2.5x its compressed input through decode/sort/
        # encode, and concurrent merges contend on one node's memory system
        # (measured at 32 CPUs on 2M docs: 8 concurrent 41.7s, 16
        # concurrent 59-102s, 32 concurrent 81.6s; on 1M docs ~14-16
        # concurrent is optimal). Budget ~768 MB of decoded working set in
        # flight per node.
        max_bucket = max(bucket_bytes.values(), default=1)
        target_conc = max(4, min(ncpu, int((768 << 20) // max(1, max_bucket * 2.5))))
        merge_cpus = max(1, ncpu // target_conc)
        merge_task = ray.remote(num_cpus=merge_cpus)(merge_bucket_files)
        futs = [
            merge_task.remote(by_bucket[bk], str(seg_tmp), stats["avgdl"], cfg,
                              total_postings=bucket_postings[bk] or None)
            for bk in sorted(by_bucket, key=lambda b: -bucket_bytes[b])
        ]
        rows = ray.get(futs)
        rows.sort(key=lambda r: r["bucket"])
        shutil.rmtree(partials_dir, ignore_errors=True)
        if segments_dir.exists():
            shutil.rmtree(segments_dir)
        seg_tmp.rename(segments_dir)
        for r in rows:  # lineage paths must point at the final location
            r["path"] = ";".join(str(segments_dir / Path(p).name)
                                 for p in r["path"].split(";"))
        atomic_write_json(out / "segments_manifest.json", {"buckets": rows})
        p3.seal(
            n_buckets=len(rows),
            n_postings=sum(r["n_postings"] for r in rows),
            bytes_shuffled=sum(r["bytes_in"] for r in rows),
            bytes_segments=sum(r["bytes_out"] for r in rows),
        )


def build_filtered_index(
    base_index_dir: str | Path,
    out_dir: str | Path,
    predicate,
    cfg: IndexConfig = DEFAULT_CONFIG,
    *,
    predicate_tag: str,
    resume: bool = True,
) -> dict:
    """Derived FILTERED sub-index: a predicate-restricted index built by
    REUSING the base index's docstore — no re-crawl read, no re-extract,
    no re-dedup. This is the reference's hasImage motivation made generic
    (GxdResultHasImageIndexer.java:27-32: a hot predicate earned its own
    index after >18 s queries against the big one): filter the docstore,
    recompute corpus stats / hot terms over the SUBSET (BM25 idf and
    salting must reflect the sub-corpus), then run the shared SPIMI ->
    exchange -> merge phases.

    ``predicate`` is a pyarrow dataset filter expression over docstore
    columns (doc_id, url, warc_ts, lang, text, dl); ``predicate_tag`` is
    its stable string form, part of the checkpoint key (expressions don't
    hash stably)."""
    base, out = Path(base_index_dir), Path(out_dir)
    base_docs = sorted(str(p) for p in (base / "docs").glob("*.parquet"))
    if not base_docs:
        raise FileNotFoundError(f"no docstore under {base}")
    key = f"{fingerprint_inputs(base_docs)}-{config_key(cfg)}-flt:{predicate_tag}"
    out.mkdir(parents=True, exist_ok=True)
    docs_dir = out / "docs"
    metrics: dict = {"phases": {}}

    # P0f: filtered docstore view (slim rows; one pass over the base)
    p0 = PhaseManifest(out, "docstore-filtered", key)
    t0 = time.perf_counter()
    if not (resume and p0.is_complete()):
        import shutil

        tmp_docs = out / ".docs.tmp"
        if tmp_docs.exists():
            shutil.rmtree(tmp_docs)
        tmp_docs.mkdir(parents=True)  # Ray writes no file for an empty subset
        ds = rd.read_parquet(base_docs, filter=predicate)
        ds.write_parquet(str(tmp_docs), compression="lz4")
        if docs_dir.exists():
            shutil.rmtree(docs_dir)
        tmp_docs.rename(docs_dir)
        p0.seal(files=len(list(docs_dir.glob("*.parquet"))))
    metrics["phases"]["docstore"] = round(time.perf_counter() - t0, 3)
    doc_files = sorted(str(p) for p in docs_dir.glob("*.parquet"))

    # the subset defines idf/avgdl and the hot set: both are scanned
    return _derive_index(out, doc_files, cfg, key, resume, metrics)
