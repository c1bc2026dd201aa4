"""Block-structured posting-list codec: docID gaps + varint, skip pointers,
block-max metadata.

Layout (per term, or per (term, shard) for hot terms):

- postings are split into blocks of ``block_size`` entries;
- ``docs`` stream: per-block LEB128 gaps. The first gap of block *i* is
  relative to the last docID of block *i-1* (0 for the first block), so a
  block can be decoded independently given the skip table;
- ``tfs`` / ``dls`` streams: per-block LEB128 of term frequency and document
  length (dl travels with the posting so BM25 needs no random-access norms
  file — docIDs are url hashes, not dense ordinals);
- skip table (kept as Arrow list columns, not packed bytes):
  ``skip_last_doc[i]`` = last docID of block i, ``skip_{doc,tf,dl}_off[i]`` =
  byte offset of block i in each stream;
- ``block_max[i]`` = max over block i of the dl-normalized BM25 term factor
  ``tf*(k1+1)/(tf + k1*(1-b+b*dl/avgdl))`` (idf is applied at query time, so
  block-max bounds survive df changes from shard summation).

The reference's engine delegated all of this to Solr/Lucene
(reference Indexer.java:236-247 just ships documents); this module is the
from-scratch replacement required by the north rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from .varint import varint_decode, varint_encode_segments


@dataclass
class PostingList:
    """Decoded, in-memory posting list (docIDs strictly ascending).

    ``kept`` is set only when tombstoned docs were masked out at decode
    time: the indices of the surviving postings within the ENCODED list
    (``decode_positions`` needs them to realign the position stream)."""

    doc_ids: np.ndarray  # uint64
    tfs: np.ndarray      # uint64
    dls: np.ndarray      # uint64
    kept: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.doc_ids.size)


def _dead_mask(doc_ids: np.ndarray, dead: np.ndarray) -> np.ndarray | None:
    """Boolean keep-mask for a sorted dead-id array, or None if no hit."""
    if dead is None or len(dead) == 0 or doc_ids.size == 0:
        return None
    # match doc_ids' uint64 dtype: a mixed int64/uint64 searchsorted would
    # go through float64 and lose exactness above 2^53
    dead = np.asarray(dead, dtype=np.int64).astype(np.uint64)
    pos = np.searchsorted(dead, doc_ids)
    pos_c = np.minimum(pos, dead.size - 1)
    hit = dead[pos_c] == doc_ids
    if not hit.any():
        return None
    return ~hit


def bm25_tf_factor(tfs: np.ndarray, dls: np.ndarray, avgdl: float, k1: float, b: float) -> np.ndarray:
    """dl-normalized BM25 term factor (float64; idf excluded)."""
    tf = tfs.astype(np.float64)
    dl = dls.astype(np.float64)
    denom = tf + k1 * (1.0 - b + b * (dl / avgdl))
    return tf * (k1 + 1.0) / denom


def encode_postings_bulk_arrow(
    docs: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    seg_starts: np.ndarray,
    *,
    block_size: int,
    avgdl: float,
    k1: float,
    b: float,
) -> dict:
    """Encode MANY posting lists in one vectorized pass.

    ``docs/tfs/dls`` are the concatenation of all segments' postings (docIDs
    strictly ascending within each segment); ``seg_starts`` marks segment
    boundaries. Gaps, varint streams, block layout, skip offsets and
    block-max are whole-array numpy ops; the per-segment payload/skip
    columns are built as Arrow arrays straight from the shared offset math
    — zero per-segment Python slicing. Payload columns are zero-copy views
    over the single varint buffer. Returns a dict of Arrow columns (the
    segment-row fields)."""
    n_total = docs.size
    docs = np.ascontiguousarray(docs, dtype=np.uint64)
    seg_starts = np.ascontiguousarray(seg_starts, dtype=np.int64)
    nseg = seg_starts.size
    seg_ends = np.empty(nseg, dtype=np.int64)
    seg_ends[:-1] = seg_starts[1:]
    seg_ends[-1] = n_total
    seg_lens = seg_ends - seg_starts
    if np.any(seg_lens <= 0):
        raise ValueError("empty posting segment")

    gaps = docs.copy()
    gaps[1:] -= docs[:-1]
    gaps[seg_starts] = docs[seg_starts]  # first gap of each segment is absolute
    if n_total > 1:
        interior = np.ones(n_total, dtype=bool)
        interior[seg_starts] = False
        if np.any(gaps[interior] == 0):
            raise ValueError("duplicate doc_id within a posting segment")

    # block layout: blocks of `block_size` within each segment
    nb = (seg_lens + block_size - 1) // block_size
    nb_off = np.concatenate([[0], np.cumsum(nb)])
    total_blocks = int(nb_off[-1])
    rep = np.repeat(np.arange(nseg, dtype=np.int64), nb)
    pos_in_seg = np.arange(total_blocks, dtype=np.int64) - np.repeat(nb_off[:-1], nb)
    block_starts = seg_starts[rep] + block_size * pos_in_seg
    block_ends = np.minimum(block_starts + block_size, seg_ends[rep])

    d_buf, d_boff = varint_encode_segments(gaps, block_starts)
    t_buf, t_boff = varint_encode_segments(np.ascontiguousarray(tfs, dtype=np.uint64), block_starts)
    l_buf, l_boff = varint_encode_segments(np.ascontiguousarray(dls, dtype=np.uint64), block_starts)

    factors = bm25_tf_factor(np.asarray(tfs, dtype=np.uint64), np.asarray(dls, dtype=np.uint64), avgdl, k1, b)
    bm64 = np.maximum.reduceat(factors, block_starts)
    block_max = bm64.astype(np.float32)
    # float32 narrowing may round DOWN — bump to keep a valid upper bound
    rounded_low = block_max.astype(np.float64) < bm64
    block_max[rounded_low] = np.nextafter(block_max[rounded_low], np.float32(np.inf))
    skip_last = docs[block_ends - 1].astype(np.int64)
    cf = np.add.reduceat(np.asarray(tfs, dtype=np.uint64), seg_starts).astype(np.int64)

    def payload(buf: bytes, boff: np.ndarray) -> pa.Array:
        seg_off = boff[nb_off].astype(np.int64)
        return pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), nseg,
            [None, pa.py_buffer(np.ascontiguousarray(seg_off)), pa.py_buffer(buf)])

    def skiplist(boff: np.ndarray) -> pa.Array:
        rel = boff[:total_blocks] - np.repeat(boff[nb_off[:-1]], nb)
        return pa.ListArray.from_arrays(pa.array(nb_off, pa.int32()),
                                        pa.array(rel, pa.int64()))

    return {
        "n_postings": pa.array(seg_lens, pa.int64()),
        "min_doc": pa.array(docs[seg_starts].astype(np.int64), pa.int64()),
        "max_doc": pa.array(docs[seg_ends - 1].astype(np.int64), pa.int64()),
        "df": pa.array(seg_lens, pa.int64()),
        "cf": pa.array(cf, pa.int64()),
        "docs_payload": payload(d_buf, d_boff),
        "tfs_payload": payload(t_buf, t_boff),
        "dls_payload": payload(l_buf, l_boff),
        "skip_last_doc": pa.ListArray.from_arrays(
            pa.array(nb_off, pa.int32()), pa.array(skip_last, pa.int64())),
        "skip_doc_off": skiplist(d_boff),
        "skip_tf_off": skiplist(t_boff),
        "skip_dl_off": skiplist(l_boff),
        "block_max": pa.ListArray.from_arrays(
            pa.array(nb_off, pa.int32()), pa.array(block_max, pa.float32())),
    }


def encode_postings(
    pl: PostingList,
    *,
    block_size: int,
    avgdl: float,
    k1: float,
    b: float,
) -> dict:
    """Encode one posting list into the segment-row payload dict (scalar
    wrapper over the bulk path)."""
    n = len(pl)
    if n == 0:
        raise ValueError("empty posting list")
    docs = np.ascontiguousarray(pl.doc_ids, dtype=np.uint64)
    if n > 1 and not bool(np.all(docs[1:] > docs[:-1])):
        raise ValueError("doc_ids must be strictly ascending")
    cols = encode_postings_bulk_arrow(
        docs, pl.tfs, pl.dls, np.array([0], dtype=np.int64),
        block_size=block_size, avgdl=avgdl, k1=k1, b=b,
    )
    return {k: v[0].as_py() for k, v in cols.items() if k not in ("df", "cf")}


def decode_postings(row: dict, *, block_size: int) -> PostingList:
    """Decode a full posting list from a segment-row payload dict.

    If the reader attached a sorted tombstone array under ``row["_dead"]``
    (deleted docs awaiting compaction), those postings are masked out here
    — every scorer and candidate path excludes them automatically, and
    ``kept`` records the surviving encoded indices for position decode."""
    n = int(row["n_postings"])
    gaps = varint_decode(row["docs_payload"], count=n)
    tfs = varint_decode(row["tfs_payload"], count=n)
    dls = varint_decode(row["dls_payload"], count=n)
    doc_ids = np.cumsum(gaps, dtype=np.uint64)
    keep = _dead_mask(doc_ids, row.get("_dead"))
    if keep is None:
        return PostingList(doc_ids=doc_ids, tfs=tfs, dls=dls)
    kept = np.flatnonzero(keep)
    return PostingList(doc_ids=doc_ids[kept], tfs=tfs[kept], dls=dls[kept],
                       kept=kept)


def decode_positions(row: dict, pl: PostingList) -> tuple[np.ndarray, np.ndarray]:
    """Decode a segment row's optional position stream.

    Returns ``(offsets, positions)``: ``positions[offsets[i]:offsets[i+1]]``
    are the ascending 0-based token positions of posting i. Position gaps
    reset per posting (first is absolute), mirroring the docID-gap scheme.
    When ``pl`` was tombstone-masked (``pl.kept``), the stream is decoded
    against the FULL encoded tf layout and then re-gathered to the
    surviving postings, so offsets align with ``pl`` exactly."""
    if pl.kept is None:
        tfs = np.asarray(pl.tfs, dtype=np.int64)
    else:
        tfs = np.asarray(
            varint_decode(row["tfs_payload"], count=int(row["n_postings"])),
            dtype=np.int64)
    total = int(tfs.sum())
    gaps = varint_decode(row["pos_payload"], count=total)
    off = np.concatenate([[0], np.cumsum(tfs)])
    cs = np.cumsum(gaps, dtype=np.uint64)
    base = np.zeros(tfs.size, dtype=np.uint64)
    nz = off[:-1] > 0
    base[nz] = cs[off[:-1][nz] - 1]
    positions = cs - np.repeat(base, tfs)
    if pl.kept is None:
        return off, positions
    lens = tfs[pl.kept]
    starts = off[:-1][pl.kept]
    new_off = np.concatenate([[0], np.cumsum(lens)])
    total_k = int(new_off[-1])
    # ragged gather of the kept postings' position runs
    idx = np.repeat(starts - new_off[:-1], lens) + np.arange(total_k, dtype=np.int64)
    return new_off, positions[idx]


def decode_block(row: dict, block: int, *, block_size: int) -> PostingList:
    """Decode a single block (for block-max WAND's lazy deep pointer moves).
    Tombstoned docs (``row["_dead"]``) are masked out; a block may come
    back EMPTY — WAND cursors skip to the next block (block_max stays a
    true upper bound since removing docs only lowers the real maximum)."""
    n = int(row["n_postings"])
    n_blocks = (n + block_size - 1) // block_size
    if not (0 <= block < n_blocks):
        raise IndexError(block)
    s = block * block_size
    cnt = min(block_size, n - s)
    d_off = row["skip_doc_off"]
    t_off = row["skip_tf_off"]
    l_off = row["skip_dl_off"]

    def sl(payload, offs, i):
        end = offs[i + 1] if i + 1 < n_blocks else len(payload)
        return payload[offs[i]:end]

    gaps = varint_decode(sl(row["docs_payload"], d_off, block), count=cnt)
    tfs = varint_decode(sl(row["tfs_payload"], t_off, block), count=cnt)
    dls = varint_decode(sl(row["dls_payload"], l_off, block), count=cnt)
    base = np.uint64(0) if block == 0 else np.uint64(row["skip_last_doc"][block - 1])
    doc_ids = base + np.cumsum(gaps, dtype=np.uint64)
    keep = _dead_mask(doc_ids, row.get("_dead"))
    if keep is None:
        return PostingList(doc_ids=doc_ids, tfs=tfs, dls=dls)
    return PostingList(doc_ids=doc_ids[keep], tfs=tfs[keep], dls=dls[keep])
