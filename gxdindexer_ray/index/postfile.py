"""The postings blob: the scorer payloads of a segment file's rows, in a
raw sibling file the reader maps and slices.

Each segment file ``bucket-NNNNN[-SS].parquet`` (index/merge.py) has a
``bucket-NNNNN[-SS].post`` beside it::

    [docs|tfs|dls of row 0][docs|tfs|dls of row 1] ...   payload streams
    trailer: one LEB128 stream, three byte lengths per row
             (docs, tfs, dls of row 0, then of row 1, ...)
    footer:  u64 row count, u64 trailer offset, 8-byte magic (little-endian)

Rows follow the Parquet file's row order. Every length is kept, not one
offset per row, so a decode still checks that each of a row's streams
holds exactly its ``n_postings`` values (codecs.varint.varint_decode_runs).
The lexicon (index/reader.py) keeps each row's blob start and three
lengths; a fetch is three slices of the mapped file, with no Parquet read.
This module is the only code that knows the layout.

Background: the split of the term dictionary from the postings file in
Zobel & Moffat, "Inverted files for text search engines" (ACM CSUR 2006).
"""

from __future__ import annotations

import mmap
import struct
from pathlib import Path

import numpy as np
import pyarrow as pa

from ..codecs.varint import varint_decode, varint_encode

MAGIC = b"GXDPOST1"
_FOOTER = struct.Struct("<QQ8s")
PAYLOADS = ("docs_payload", "tfs_payload", "dls_payload")


def post_path(segment_file: str | Path) -> Path:
    """The blob beside a segment file."""
    return Path(segment_file).with_suffix(".post")


def write_post(path: Path, payloads: list[pa.LargeBinaryArray]) -> int:
    """Write the blob of one segment file from its rows' three payload
    arrays (docs, tfs, dls, as the encoder builds them), tmp + rename;
    returns the file's size. The rows' streams are interleaved by one
    Arrow ``take`` over the three arrays (a vectorized ragged gather)."""
    n = len(payloads[0])
    rows = pa.concat_arrays(payloads).take(np.arange(3 * n).reshape(3, n).T.reshape(-1))
    _, o, data = rows.buffers()
    off = np.frombuffer(o, np.int64)[rows.offset:rows.offset + 3 * n + 1]
    tmp = path.with_name(f".{path.name}.tmp")
    with open(tmp, "wb") as f:
        if off[-1] > off[0]:
            f.write(memoryview(data)[off[0]:off[-1]])
        f.write(varint_encode(np.diff(off)))
        f.write(_FOOTER.pack(n, int(off[-1] - off[0]), MAGIC))
    tmp.rename(path)
    return path.stat().st_size


def read_lengths(path: Path, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """``(start, lens)`` of a blob whose segment file has ``n_rows`` rows:
    row i's docs, tfs and dls streams are ``lens[i]`` bytes long (int64,
    shape ``(n_rows, 3)``), back to back from byte ``start[i]``. Raises
    ``ValueError`` when the blob is not one, is cut short, or disagrees
    with its segment file or its own trailer."""
    with open(path, "rb") as f:
        size = f.seek(0, 2)
        if size < _FOOTER.size:
            raise ValueError(f"{path}: {size} bytes, shorter than its footer")
        f.seek(size - _FOOTER.size)
        rows, trailer_at, magic = _FOOTER.unpack(f.read(_FOOTER.size))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a postings blob (cut short or overwritten)")
        if rows != n_rows:
            raise ValueError(f"{path}: {rows} rows, but its segment file has {n_rows}")
        if trailer_at > size - _FOOTER.size:
            raise ValueError(f"{path}: {size} bytes, shorter than its footer says")
        f.seek(trailer_at)
        trailer = f.read(size - _FOOTER.size - trailer_at)
    lens = varint_decode(trailer, count=3 * rows).astype(np.int64)
    ends = np.cumsum(lens)  # stream ends, row-major
    if (int(ends[-1]) if rows else 0) != trailer_at:
        raise ValueError(f"{path}: the trailer's lengths do not add up to its payload bytes")
    return ends[0::3] - lens[0::3], lens.reshape(rows, 3)


def open_blob(path: Path) -> mmap.mmap:
    """The blob mapped read-only (a blob is never empty: it has a footer)."""
    with open(path, "rb") as f:
        return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)


def payloads(blob, start: int, n_docs: int, n_tfs: int, n_dls: int) -> tuple[bytes, bytes, bytes]:
    """One row's docs, tfs and dls streams, as ``bytes`` slices of ``blob``."""
    t = start + n_docs
    l = t + n_tfs
    return blob[start:t], blob[t:l], blob[l:l + n_dls]


def segment_table(segment_file: str | Path) -> pa.Table:
    """A segment file's rows with their three payload columns joined from
    its blob (appended after the Parquet columns): the logical rows, for
    tools and tests that want whole rows."""
    import pyarrow.parquet as pq

    t = pq.read_table(segment_file)
    start, lens = read_lengths(post_path(segment_file), t.num_rows)
    with open(post_path(segment_file), "rb") as f:
        blob = f.read()
    rows = [payloads(blob, *r) for r in zip(start.tolist(), *lens.T.tolist())]
    for j, name in enumerate(PAYLOADS):
        t = t.append_column(name, pa.array([r[j] for r in rows], pa.large_binary()))
    return t
