"""Bucket-level posting merge: the reduce side of the posting exchange.

The build's SPIMI map tasks write compressed partial files straight into
one directory per segment bucket (an exchange through storage, no sort
shuffle); the build then runs one ``ray.remote(merge_bucket_files)`` task
per bucket over that bucket's partial files, largest bucket first.
n_buckets is pinned in config or resolved from the generation's N by
``config.segment_layout``, never derived from cluster size, so segment
bytes are parallelism-invariant. Within a bucket the merge is vectorized
per (term, shard): decode partial payloads, concatenate, argsort by docID
(partials from different batches interleave across the hash-docID space;
docs are unique per term after url dedup), re-encode with skip pointers
+ block-max, and write the bucket's immutable segment file tmp+rename.
This k-way merge into immutable segments *is* the reference's delegated
Solr merge/optimize step (reference Indexer.java:136-148).

Returns one manifest row per bucket (lineage + metrics: n_terms,
n_postings, payload bytes in = bytes shuffled, bytes out).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..codecs.postings import encode_postings_bulk_arrow
from ..codecs.varint import varint_decode, varint_encode_segments
from ..config import IndexConfig

SEGMENT_SCHEMA = pa.schema(
    [
        pa.field("term", pa.string()),
        pa.field("shard", pa.int32()),
        pa.field("df", pa.int64()),
        pa.field("cf", pa.int64()),
        pa.field("n_postings", pa.int64()),
        pa.field("min_doc", pa.int64()),
        pa.field("max_doc", pa.int64()),
        pa.field("docs_payload", pa.large_binary()),
        pa.field("tfs_payload", pa.large_binary()),
        pa.field("dls_payload", pa.large_binary()),
        pa.field("skip_last_doc", pa.list_(pa.int64())),
        pa.field("skip_doc_off", pa.list_(pa.int64())),
        pa.field("skip_tf_off", pa.list_(pa.int64())),
        pa.field("skip_dl_off", pa.list_(pa.int64())),
        pa.field("block_max", pa.list_(pa.float32())),
        pa.field("pos_payload", pa.large_binary()),  # null when positions disabled
    ]
)


def merge_bucket_files(bucket_files: list[str], segments_dir: str, avgdl: float,
                       cfg: IndexConfig, *, total_postings: int) -> dict:
    """Reducer for the file-based exchange: read one bucket's partial files,
    merge, write its segment(s). Run as one Ray task per bucket
    (``ray.remote(merge_bucket_files)``) — this is the rare drop below the
    Dataset API: a fixed fan-out of one task per bucket that the groupby
    sort shuffle would only make slower. Returns the bucket's lineage/manifest row.

    Memory bound: the decoded working set (~24 B/posting + sort
    temporaries) is capped by splitting oversized buckets into term-hash
    SLOTS merged one at a time (cfg.merge_max_postings per slot). The
    split count derives from ``total_postings``, the bucket's posting
    count summed from the SPIMI writers' manifest rows — a pure function
    of corpus content, never of batching or parallelism — so the segment
    file set stays deterministic. Compressed payloads are slot-bounded
    too: partials are written rslot-sorted (spimi.py) and each slot reads
    only its own row groups via parquet min/max stats, so nothing
    bucket-sized is ever resident."""
    files = sorted(bucket_files)
    slots = 1
    while slots < 64 and total_postings / slots > cfg.merge_max_postings:
        slots *= 2
    if slots == 1:
        tbl = pa.concat_tables(pq.read_table(f) for f in files)
        return _merge_rows(tbl, segments_dir, avgdl, cfg)

    pfs = [pq.ParquetFile(f) for f in files]
    # slot s = {terms : slot_byte & (slots-1) == s} is the contiguous
    # rslot range [rev_k(s), rev_k(s)+1) << (6-k) — see spimi._REV6
    k = slots.bit_length() - 1
    width = 64 >> k
    rows = []
    for s in range(slots):
        rev = int(f"{s:0{k}b}"[::-1], 2)
        lo, hi = rev * width, rev * width + width
        parts = []
        for pf in pfs:
            ci = pf.schema_arrow.names.index("rslot")
            gs = []
            for g in range(pf.metadata.num_row_groups):
                st = pf.metadata.row_group(g).column(ci).statistics
                if st is None or st.min is None or (st.min < hi and st.max >= lo):
                    gs.append(g)
            if gs:
                parts.append(pf.read_row_groups(gs))
        if not parts:
            continue
        sub = pa.concat_tables(parts)
        rs = sub["rslot"]
        sub = sub.filter(pa.compute.and_(
            pa.compute.greater_equal(rs, lo), pa.compute.less(rs, hi)))
        if sub.num_rows == 0:
            continue
        rows.append(_merge_rows(sub, segments_dir, avgdl, cfg, file_suffix=f"-{s:02d}"))
    agg = dict(rows[0])
    agg.update(
        n_terms=sum(r["n_terms"] for r in rows),
        n_rows=sum(r["n_rows"] for r in rows),
        n_postings=sum(r["n_postings"] for r in rows),
        bytes_in=sum(r["bytes_in"] for r in rows),
        bytes_out=sum(r["bytes_out"] for r in rows),
        path=";".join(r["path"] for r in rows),
    )
    return agg


def _merge_rows(group: pa.Table, segments_dir: str, avgdl: float, cfg: IndexConfig,
                file_suffix: str = "") -> dict:
    """Merge one bucket's (or one slot's) partial rows into a segment file
    and return its manifest row."""
    bucket = int(group["bucket"][0].as_py())
    terms = group["term"].to_pylist()
    shards = group["shard"].to_numpy(zero_copy_only=False).astype(np.int64)
    n_post = group["n_postings"].to_numpy(zero_copy_only=False).astype(np.int64)
    d_pay = group["docs_payload"].to_pylist()
    t_pay = group["tfs_payload"].to_pylist()
    l_pay = group["dls_payload"].to_pylist()
    n_rows = len(terms)
    p_pay = group["pos_payload"].to_pylist()
    bytes_in = sum(len(d_pay[i]) + len(t_pay[i]) + len(l_pay[i]) for i in range(n_rows))
    bytes_in += sum(len(p) for p in p_pay if p is not None)

    # Vectorized bulk decode: 3 varint_decode calls for the WHOLE bucket
    # (per-partial decode costs ~3 numpy calls x millions of partials).
    total = int(n_post.sum())
    gaps_all = varint_decode(b"".join(d_pay), count=total)
    tfs_all = varint_decode(b"".join(t_pay), count=total)
    dls_all = varint_decode(b"".join(l_pay), count=total)
    ends = np.cumsum(n_post)
    starts = ends - n_post
    # per-partial doc_ids: global cumsum minus each partial's base offset
    cs = np.cumsum(gaps_all, dtype=np.uint64)
    base = np.zeros(n_rows, dtype=np.uint64)
    base[1:] = cs[ends[:-1] - 1]
    docs_all = cs - np.repeat(base, n_post)

    # one global posting-level sort by (term, shard, doc): term codes are
    # ranks in the sorted unique-term order, so output row order is the
    # deterministic (term asc, shard asc) regardless of arrival order
    uniq_terms, codes_row = np.unique(np.asarray(terms, dtype=object), return_inverse=True)
    codes_post = np.repeat(codes_row, n_post)
    shards_post = np.repeat(shards, n_post)
    order = np.lexsort((docs_all, shards_post, codes_post))
    docs_s = docs_all[order]
    tfs_s = tfs_all[order]
    dls_s = dls_all[order]
    codes_s = codes_post[order]
    shards_s = shards_post[order]

    # segment boundaries where (term, shard) changes
    change = np.empty(total, dtype=bool)
    change[0] = True
    change[1:] = (np.diff(codes_s) != 0) | (np.diff(shards_s) != 0)
    seg_starts = np.flatnonzero(change)

    cols = encode_postings_bulk_arrow(
        docs_s, tfs_s, dls_s, seg_starts,
        block_size=cfg.block_size, avgdl=avgdl, k1=cfg.k1, b=cfg.b,
    )

    # --- optional position stream: decode, permute per the posting
    # order (variable-length gather via repeat arithmetic), re-encode
    pos_slices = None
    if p_pay and all(p is not None for p in p_pay):
        tfs_i = tfs_all.astype(np.int64)
        total_pos = int(tfs_i.sum())
        gaps_p = varint_decode(b"".join(p_pay), count=total_pos)
        value_starts = np.concatenate([[0], np.cumsum(tfs_i)])[:-1]
        cs_p = np.cumsum(gaps_p, dtype=np.uint64)
        base_p = np.zeros(total, dtype=np.uint64)
        nz = value_starts > 0
        base_p[nz] = cs_p[value_starts[nz] - 1]
        abs_pos = cs_p - np.repeat(base_p, tfs_i)
        tf_o = tfs_i[order]
        out_off = np.concatenate([[0], np.cumsum(tf_o)])
        rep = np.repeat(value_starts[order], tf_o)
        within = np.arange(total_pos, dtype=np.int64) - np.repeat(out_off[:-1], tf_o)
        pos_s = abs_pos[rep + within]
        gaps_n = pos_s.copy()
        gaps_n[1:] -= pos_s[:-1]
        pair_starts_n = out_off[:-1]
        gaps_n[pair_starts_n] = pos_s[pair_starts_n]
        pos_seg_starts = out_off[seg_starts]
        p_buf, p_off = varint_encode_segments(gaps_n, pos_seg_starts)
        pos_slices = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), seg_starts.size,
            [None, pa.py_buffer(np.ascontiguousarray(p_off, dtype=np.int64)),
             pa.py_buffer(p_buf)])
    seg_terms = uniq_terms[codes_s[seg_starts]].tolist()
    seg_shards = shards_s[seg_starts].astype(np.int32)

    seg = pa.table(
        {
            "term": pa.array(seg_terms, pa.string()),
            "shard": pa.array(seg_shards, pa.int32()),
            "df": cols["df"],
            "cf": cols["cf"],
            "n_postings": cols["n_postings"],
            "min_doc": cols["min_doc"],
            "max_doc": cols["max_doc"],
            "docs_payload": cols["docs_payload"],
            "tfs_payload": cols["tfs_payload"],
            "dls_payload": cols["dls_payload"],
            "skip_last_doc": cols["skip_last_doc"],
            "skip_doc_off": cols["skip_doc_off"],
            "skip_tf_off": cols["skip_tf_off"],
            "skip_dl_off": cols["skip_dl_off"],
            "block_max": cols["block_max"],
            "pos_payload": (pos_slices if pos_slices is not None
                            else pa.array([None] * seg_starts.size,
                                          pa.large_binary())),
        },
        schema=SEGMENT_SCHEMA,
    )
    out = Path(segments_dir)
    out.mkdir(parents=True, exist_ok=True)
    final = out / f"bucket-{bucket:05d}{file_suffix}.parquet"
    tmp = out / f".bucket-{bucket:05d}{file_suffix}.parquet.tmp"
    pq.write_table(seg, tmp, compression="zstd", row_group_size=256)
    tmp.rename(final)

    return {"bucket": bucket, "n_terms": len(set(terms)), "n_rows": seg.num_rows,
            "n_postings": total, "bytes_in": bytes_in,
            "bytes_out": final.stat().st_size, "path": str(final)}
