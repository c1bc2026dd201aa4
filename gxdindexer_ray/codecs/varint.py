"""Vectorized LEB128 (unsigned varint) codec on numpy arrays.

The reference delegates posting-list compression to Solr/Lucene
(SURVEY.md §1.1 "Posting list"); we own it. Pure-Python varint is far too
slow at 1e8+ postings, so both directions are numpy-vectorized:

- encode: byte-count per value via threshold search, then <=10 masked
  passes (one per byte position) writing payload+continuation bits.
- decode: terminator mask -> group starts -> per-byte shift via
  ``arange - repeat(starts)`` -> ``np.add.reduceat``.

Throughput is tens of millions of values per second per core, which keeps
codec time well under tokenize/shuffle time.
"""

from __future__ import annotations

import numpy as np

# thresholds[i] = first value needing more than i+1 bytes
_THRESHOLDS = np.array([1 << (7 * i) for i in range(1, 10)], dtype=np.uint64)


# Cache blocking: whole-array passes allocate ~8x-expanded uint64
# temporaries, and on shared boxes concurrent workers saturate DRAM
# bandwidth long before they saturate cores (measured: identical numpy work
# degrades ~4x per process at 8 concurrent processes here). Chunking keeps
# each pass's working set L2/L3-resident; output bytes are identical.
_ENCODE_CHUNK_VALUES = 1 << 18   # ~256k values -> ~2MB temporaries per pass
_DECODE_CHUNK_BYTES = 1 << 20    # ~1MB of varint bytes -> ~8MB temporaries
_SHORT_BYTES = 4  # values up to this many bytes decode by byte position


def varint_encode(values: np.ndarray) -> bytes:
    """Encode a 1-D array of non-negative ints (< 2**63) as LEB128 bytes."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    if v.size > _ENCODE_CHUNK_VALUES:
        return b"".join(
            _encode_all(v[s:s + _ENCODE_CHUNK_VALUES])
            for s in range(0, v.size, _ENCODE_CHUNK_VALUES)
        )
    return _encode_all(v)


def _encode_all(v: np.ndarray) -> bytes:
    nbytes = (np.searchsorted(_THRESHOLDS, v, side="right") + 1).astype(np.int64)
    ends = np.cumsum(nbytes)
    starts = ends - nbytes
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    max_nb = int(nbytes.max())
    for k in range(max_nb):
        mask = nbytes > k
        idx = starts[mask] + k
        chunk = (v[mask] >> np.uint64(7 * k)) & np.uint64(0x7F)
        cont = (nbytes[mask] - 1) > k
        out[idx] = chunk.astype(np.uint8) | (cont.astype(np.uint8) << 7)
    return out.tobytes()


def varint_byte_lengths(values: np.ndarray) -> np.ndarray:
    v = np.ascontiguousarray(values, dtype=np.uint64)
    return (np.searchsorted(_THRESHOLDS, v, side="right") + 1).astype(np.int64)


def varint_encode_segments(values: np.ndarray, seg_starts: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Encode ALL values in one pass; return (buffer, seg_byte_offsets) where
    ``seg_byte_offsets[i]`` is the byte offset of segment i (length nseg+1).
    One numpy pass replaces one varint_encode call per segment — the
    difference between O(values) and O(segments * numpy-overhead) in the
    SPIMI emit and merge encode hot paths."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    seg_starts = np.ascontiguousarray(seg_starts, dtype=np.int64)
    if v.size == 0:
        return b"", np.zeros(seg_starts.size + 1, dtype=np.int64)
    buf = varint_encode(v)
    nb = varint_byte_lengths(v)
    byte_off = np.concatenate([[0], np.cumsum(nb)])
    seg_off = np.empty(seg_starts.size + 1, dtype=np.int64)
    seg_off[:-1] = byte_off[seg_starts]
    seg_off[-1] = byte_off[-1]
    return buf, seg_off


def varint_decode(buf: bytes | memoryview | np.ndarray, count: int | None = None) -> np.ndarray:
    """Decode LEB128 bytes back to a uint64 array.

    ``count`` (if given) is validated against the decoded length. A stream
    whose last byte has the continuation bit set (cut inside a value)
    raises ``ValueError``.
    """
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size and b[-1] & 0x80:
        raise ValueError("varint stream ends inside a value")
    if b.size > _DECODE_CHUNK_BYTES:
        outs = []
        pos = 0
        n = b.size
        while pos < n:
            end = min(pos + _DECODE_CHUNK_BYTES, n)
            if end < n:
                while b[end - 1] & 0x80:  # cut only at value boundaries
                    end -= 1
                if end == pos:
                    raise ValueError("varint value spans a whole decode chunk")
            outs.append(_decode_all(b[pos:end]))
            pos = end
        vals = np.concatenate(outs)
    else:
        vals = _decode_all(b) if b.size else np.empty(0, dtype=np.uint64)
    if count is not None and vals.size != count:
        raise ValueError(f"varint stream decoded {vals.size} values, expected {count}")
    return vals


def varint_decode_runs(bufs: list, counts: np.ndarray) -> np.ndarray:
    """Decode several LEB128 streams in ONE pass over their concatenation
    (the values of stream i follow those of stream i-1).

    Validated per stream, as one ``varint_decode(buf, count=...)`` call
    per stream would be: raises ``ValueError`` unless stream i holds
    exactly ``counts[i]`` whole values (a stream cut inside a value would
    otherwise lend its tail to the next one)."""
    b = np.frombuffer(b"".join(bufs), dtype=np.uint8)
    stops = np.flatnonzero(b < 0x80)  # each value's last byte
    c = np.cumsum(counts, dtype=np.int64)
    total = int(c[-1]) if c.size else 0
    if stops.size != total:
        raise ValueError(f"varint streams decoded {stops.size} values, expected {total}")
    # stream i must end with the last byte of value c[i] (value 0: byte -1)
    ends = np.cumsum(np.fromiter(map(len, bufs), np.int64, len(bufs)))
    bad = np.flatnonzero(np.concatenate([[-1], stops])[c] != ends - 1)
    if bad.size:
        raise ValueError(f"varint stream {int(bad[0])} does not hold its "
                         f"{int(np.asarray(counts)[bad[0]])} values")
    if b.size > _DECODE_CHUNK_BYTES:
        return varint_decode(b)
    return _decode_all(b, stops) if total else np.empty(0, dtype=np.uint64)


def _decode_all(b: np.ndarray, stops: np.ndarray | None = None) -> np.ndarray:
    """Values of ``b``; ``stops`` (each value's last byte) when known.
    Streams of short values (at most ``_SHORT_BYTES`` bytes each: counts,
    lengths, positions) are decoded one byte position at a time; streams
    with longer values (doc-id gaps) by one segmented sum over all bytes.
    On 1 CPU the first takes 1.1 ms for a segment file's 163 KB length
    trailer (2.4 ms the second way), the second 6.1 ms for 100k doc gaps
    (7.9 ms the first way)."""
    if stops is None:
        stops = np.flatnonzero((b & 0x80) == 0)
    n = stops.size
    starts = np.empty(n, dtype=np.int64)
    starts[0] = 0
    if n > 1:
        starts[1:] = stops[:-1] + 1
    extra = stops - starts  # bytes after each value's first
    top = int(extra.max())
    low = (b & 0x7F).astype(np.uint64)
    if top < _SHORT_BYTES:
        vals = low[starts]
        for k in range(1, top + 1):
            i = np.flatnonzero(extra >= k)
            vals[i] |= low[starts[i] + k] << np.uint64(7 * k)
        return vals
    shifts = (np.arange(b.size, dtype=np.int64) - np.repeat(starts, extra + 1)).astype(np.uint64)
    return np.add.reduceat(low << (np.uint64(7) * shifts), starts)
