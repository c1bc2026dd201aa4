"""Per-partition SPIMI posting construction as a stateful ``map_batches`` stage.

One batch of (doc_id, text) rows in, one Arrow table of compressed posting
*partials* out — the partial/combiner before the groupby-bucket shuffle
(SURVEY.md §2.6 A6): postings are gap+varint-compressed per (term[, shard])
*before* they move, so the all-to-all exchange ships bytes, not exploded
(term, doc, tf) rows.

Skew handling: terms in the broadcast hot set (detected from a deterministic
doc_id hash-sample) are sharded by the top ``shard_bits`` bits of doc_id.
Shards are docID-range-disjoint, so a hot term's merged shards concatenate
in shard order with globally ascending docIDs — no second merge pass
(SURVEY.md §7.3). The shuffle key is ``bucket = blake2b(term, shard) %
n_buckets`` which also spreads one hot term's shards across reducers.

The actor receives the hot-term set once in ``__init__`` (ray.put broadcast
— the reference's cache-loaded-once pattern, shr/TermAssociationCache.java:1-83).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codecs.varint import varint_encode_segments
from ..config import IndexConfig
from ..text.tokenize import doc_term_counts

PARTIAL_SCHEMA = pa.schema(
    [
        pa.field("bucket", pa.int32()),
        pa.field("rslot", pa.int32()),
        pa.field("term", pa.string()),
        pa.field("shard", pa.int32()),
        pa.field("n_postings", pa.int64()),
        pa.field("docs_payload", pa.large_binary()),
        pa.field("tfs_payload", pa.large_binary()),
        pa.field("dls_payload", pa.large_binary()),
        pa.field("pos_payload", pa.large_binary()),  # null when positions disabled
    ]
)

# bit-reversal of the 6-bit term-slot byte. Oversized buckets are merged in
# 2^k term-hash SLOTS (k <= 6, decided at merge time from the bucket's
# posting count); a slot is {terms : slot_byte & (2^k - 1) == s}, i.e. the
# LOW k bits are fixed — not a contiguous slot_byte range. Bit-reversing
# makes every such set a contiguous ``rslot`` range, so partials sorted by
# rslot let the merge read ONLY the row groups of the slot it is merging
# (parquet min/max stats) instead of holding the whole bucket's compressed
# payloads across slots.
_REV6 = np.array([int(f"{i:06b}"[::-1], 2) for i in range(64)], dtype=np.int32)

# partial-file row-group floor (rows). Execution knob only — artifact bytes
# are row-group-invariant (tested); env override for A/B timing on a box.
_RG_FLOOR = int(__import__("os").environ.get("GXDRAY_PARTIAL_RG_FLOOR", "4096"))


def bucket_of(term: str, shard: int, n_buckets: int) -> int:
    h = hashlib.blake2b(f"{term}\x00{shard}".encode(), digest_size=4).digest()
    return int.from_bytes(h, "big") % n_buckets


def slot_byte_of(term: str) -> int:
    """The 6-bit term-slot byte (shared definition with index.merge)."""
    return hashlib.blake2b(term.encode(), digest_size=2).digest()[0] & 63


def make_spimi_fn(hot_terms_ref, cfg: IndexConfig):
    """Task-pool variant: a plain function with a worker-process-local
    builder cache. SPIMI's per-worker state (the hot-term set + bucket
    cache) is tiny, so stateless TASKS — which scale to every free CPU
    without actor-pool ramp-up — beat an actor pool here. (Stages with
    heavy state — extraction models, query readers — stay actor pools.)"""
    _local: dict = {}

    def spimi_partials(batch: pa.Table) -> pa.Table:
        b = _local.get("b")
        if b is None:
            b = SpimiPartialBuilder(hot_terms_ref=hot_terms_ref, cfg=cfg)
            _local["b"] = b
        return b(batch)

    return spimi_partials


# one row per partial file spimi_write wrote
_WRITE_MANIFEST = pa.schema([
    ("bucket", pa.int32()), ("path", pa.string()), ("rows", pa.int64()),
    ("bytes", pa.int64()),
    # per-file posting totals: the merge decides its slot split from
    # these manifest sums without re-reading any column
    ("postings", pa.int64())])


def make_spimi_writer_fn(hot_terms_ref, cfg: IndexConfig, partials_dir: str):
    """File-exchange variant: each task writes its batch's partials split by
    bucket to ``partials_dir/bucket=NNN/part-*.parquet`` and returns one
    tiny manifest row per written file.

    This replaces the groupby sort shuffle with a direct hash exchange
    through storage — the same data movement a sort-based shuffle performs,
    minus the global sort nobody needs (rows only have to be grouped by a
    32-value bucket key, and the merge re-sorts by docID anyway). It is
    also the multi-node shape: bucket directories live on shared storage,
    and each reducer reads exactly its bucket."""
    import os
    import uuid

    from pathlib import Path

    import pyarrow.parquet as pq

    _local: dict = {}

    def spimi_write(batch: pa.Table) -> pa.Table:
        b = _local.get("b")
        if b is None:
            b = SpimiPartialBuilder(hot_terms_ref=hot_terms_ref, cfg=cfg)
            _local["b"] = b
        tbl = b(batch)
        if tbl.num_rows == 0:  # no doc of the batch has a token
            return _WRITE_MANIFEST.empty_table()
        buckets = tbl["bucket"].to_numpy(zero_copy_only=False)
        rslots = tbl["rslot"].to_numpy(zero_copy_only=False)
        # rslot-sorted within each bucket file: oversized-bucket merges can
        # then row-group-prune to exactly the term-hash slot they're merging
        order = np.lexsort((rslots, buckets))
        tbl = tbl.take(pa.array(order))
        buckets = buckets[order]
        bounds = np.concatenate([[0], np.flatnonzero(np.diff(buckets)) + 1, [len(buckets)]])
        npost = tbl["n_postings"].to_numpy(zero_copy_only=False)
        tag = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        out_b, out_path, out_rows, out_bytes, out_post = [], [], [], [], []
        for i in range(bounds.size - 1):
            s, e = int(bounds[i]), int(bounds[i + 1])
            bk = int(buckets[s])
            d = Path(partials_dir) / f"bucket={bk:05d}"
            d.mkdir(parents=True, exist_ok=True)
            f = d / f"part-{tag}-{i}.parquet"
            # row groups floor at 4096 rows: a partial under that writes ONE
            # group (measured: 64 tiny groups cost 2-3x on both write and
            # read, and buckets small enough to produce tiny partials never
            # slot-split anyway); only genuinely large partials — the ones
            # whose bucket can exceed merge_max_postings — carry the <=64
            # groups slot pruning reads selectively via rslot min/max stats
            pq.write_table(tbl.slice(s, e - s), f, compression="lz4",
                           row_group_size=max(_RG_FLOOR, -(-(e - s) // 64)))
            out_b.append(bk)
            out_path.append(str(f))
            out_rows.append(e - s)
            out_bytes.append(f.stat().st_size)
            out_post.append(int(npost[s:e].sum()))
        return pa.table([out_b, out_path, out_rows, out_bytes, out_post],
                        schema=_WRITE_MANIFEST)

    return spimi_write


class SpimiPartialBuilder:
    def __init__(self, hot_terms_ref=None, cfg: IndexConfig | None = None):
        import ray

        self.cfg = cfg or IndexConfig()
        if hot_terms_ref is None:
            self.hot = frozenset()
        else:
            hot = ray.get(hot_terms_ref) if isinstance(hot_terms_ref, ray.ObjectRef) else hot_terms_ref
            self.hot = frozenset(hot)
        self._bucket_cache: dict[tuple[str, int], int] = {}
        self._rslot_cache: dict[str, int] = {}

    def _bucket(self, term: str, shard: int) -> int:
        key = (term, shard)
        b = self._bucket_cache.get(key)
        if b is None:
            b = bucket_of(term, shard, self.cfg.n_buckets)
            self._bucket_cache[key] = b
        return b

    def _rslot(self, term: str) -> int:
        r = self._rslot_cache.get(term)
        if r is None:
            r = int(_REV6[slot_byte_of(term)])
            self._rslot_cache[term] = r
        return r

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        # sort docs so per-term doc_ids come out ascending
        order = pc.sort_indices(batch["doc_id"])
        batch = batch.take(order)
        docs = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)

        if cfg.store_positions:
            from ..text.tokenize import doc_term_positions

            vocab, p_doc, p_code, p_tf, pos_sorted, pair_starts = doc_term_positions(batch["text"])
            if len(vocab) == 0:
                return PARTIAL_SCHEMA.empty_table()
            dls = np.bincount(p_doc, weights=p_tf, minlength=len(docs)).astype(np.int64)
            # pairs arrive already sorted by (code, doc_idx)
            s_codes, doc_idx_pairs, s_tf = p_code, p_doc, p_tf.astype(np.uint64)
            d_all = docs[doc_idx_pairs].astype(np.uint64)
            l_all = dls[doc_idx_pairs].astype(np.uint64)
        else:
            vocab, doc_idx, codes, tf = doc_term_counts(batch["text"])
            if len(vocab) == 0:
                return PARTIAL_SCHEMA.empty_table()
            dls = np.bincount(doc_idx, weights=tf, minlength=len(docs)).astype(np.int64)

            # posting-level arrays sorted by (term code, doc): one lexsort, then
            # all boundaries/gaps/encodes are whole-array numpy ops
            srt = np.lexsort((doc_idx, codes))
            s_codes = codes[srt]
            d_all = docs[doc_idx[srt]].astype(np.uint64)
            s_tf = tf[srt].astype(np.uint64)
            l_all = dls[doc_idx[srt]].astype(np.uint64)
            pos_sorted = pair_starts = None
        vlist = vocab.to_pylist()
        shard_shift = np.uint64(63 - cfg.shard_bits)

        hot_codes = np.fromiter((t in self.hot for t in vlist), dtype=bool, count=len(vlist))
        hot_flag = hot_codes[s_codes]
        shard_all = np.where(hot_flag, (d_all >> shard_shift).astype(np.int64), 0)

        n = s_codes.size
        change = np.empty(n, dtype=bool)
        change[0] = True
        change[1:] = (np.diff(s_codes) != 0) | (np.diff(shard_all) != 0)
        seg_starts = np.flatnonzero(change)
        nseg = seg_starts.size
        seg_ends = np.empty(nseg, dtype=np.int64)
        seg_ends[:-1] = seg_starts[1:]
        seg_ends[-1] = n

        gaps = d_all.copy()
        gaps[1:] -= d_all[:-1]
        gaps[seg_starts] = d_all[seg_starts]  # absolute first gap per partial

        d_buf, d_off = varint_encode_segments(gaps, seg_starts)
        t_buf, t_off = varint_encode_segments(s_tf, seg_starts)
        l_buf, l_off = varint_encode_segments(l_all, seg_starts)

        pos_slices = None
        if cfg.store_positions:
            # position gaps reset at every (term, doc) pair start; segment
            # boundaries map pair-level seg_starts to the position stream
            ps = pos_sorted.astype(np.uint64)
            gaps_p = ps.copy()
            gaps_p[1:] -= ps[:-1]
            gaps_p[pair_starts] = ps[pair_starts]
            pos_seg_starts = pair_starts[seg_starts]
            p_buf, p_off = varint_encode_segments(gaps_p, pos_seg_starts)
            pos_slices = [p_buf[p_off[i]:p_off[i + 1]] for i in range(nseg)]

        seg_codes = s_codes[seg_starts]
        seg_shards = shard_all[seg_starts].astype(np.int64)
        terms_out = [vlist[int(c)] for c in seg_codes]
        buckets = np.fromiter(
            (self._bucket(t, int(s)) for t, s in zip(terms_out, seg_shards)),
            dtype=np.int32, count=nseg,
        )
        rslots = np.fromiter((self._rslot(t) for t in terms_out),
                             dtype=np.int32, count=nseg)
        return pa.table(
            {
                "bucket": pa.array(buckets, pa.int32()),
                "rslot": pa.array(rslots, pa.int32()),
                "term": pa.array(terms_out, pa.string()),
                "shard": pa.array(seg_shards.astype(np.int32), pa.int32()),
                "n_postings": pa.array(seg_ends - seg_starts, pa.int64()),
                "docs_payload": pa.array([d_buf[d_off[i]:d_off[i + 1]] for i in range(nseg)], pa.large_binary()),
                "tfs_payload": pa.array([t_buf[t_off[i]:t_off[i + 1]] for i in range(nseg)], pa.large_binary()),
                "dls_payload": pa.array([l_buf[l_off[i]:l_off[i + 1]] for i in range(nseg)], pa.large_binary()),
                "pos_payload": pa.array(pos_slices if pos_slices is not None else [None] * nseg,
                                        pa.large_binary()),
            },
            schema=PARTIAL_SCHEMA,
        )
