import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gxdindexer_ray.codecs.varint import varint_decode, varint_encode
from gxdindexer_ray.codecs.postings import (
    PostingList,
    bm25_tf_factor,
    decode_block,
    decode_postings,
    encode_postings,
)


def test_varint_roundtrip_basic():
    vals = np.array([0, 1, 127, 128, 255, 300, 2**14 - 1, 2**14, 2**35, 2**63 - 1], dtype=np.uint64)
    buf = varint_encode(vals)
    out = varint_decode(buf, count=len(vals))
    assert np.array_equal(out, vals)


def test_varint_empty():
    assert varint_encode(np.array([], dtype=np.uint64)) == b""
    assert varint_decode(b"").size == 0


def test_varint_single_byte_values():
    vals = np.arange(128, dtype=np.uint64)
    buf = varint_encode(vals)
    assert len(buf) == 128  # all single-byte
    assert np.array_equal(varint_decode(buf), vals)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=200))
def test_varint_roundtrip_property(xs):
    vals = np.array(xs, dtype=np.uint64)
    assert np.array_equal(varint_decode(varint_encode(vals), count=len(xs)), vals)


def test_varint_decode_paths_agree():
    """Streams of short values (decoded by byte position) and of long ones
    (one segmented sum) decode exactly, alone and mixed in one stream."""
    rng = np.random.default_rng(5)
    short = rng.integers(0, 1 << 28, 5000).astype(np.uint64)  # <= 4 bytes each
    long_ = rng.integers(1 << 49, 1 << 62, 5000).astype(np.uint64)
    for v in (short, long_, np.concatenate([short, long_]), short[:1], long_[:1]):
        assert np.array_equal(varint_decode(varint_encode(v), count=v.size), v)


def _random_plist(rng, n):
    doc_ids = np.sort(rng.choice(2**62, size=n, replace=False).astype(np.uint64))
    tfs = rng.integers(1, 50, size=n).astype(np.uint64)
    dls = rng.integers(1, 3000, size=n).astype(np.uint64)
    return PostingList(doc_ids=doc_ids, tfs=tfs, dls=dls)


@pytest.mark.parametrize("n", [1, 5, 128, 129, 1000])
def test_postings_roundtrip(n):
    rng = np.random.default_rng(7)
    pl = _random_plist(rng, n)
    row = encode_postings(pl, block_size=128, avgdl=120.0, k1=0.9, b=0.4)
    assert row["n_postings"] == n
    assert "min_doc" not in row and "max_doc" not in row
    out = decode_postings(row, block_size=128)
    assert np.array_equal(out.doc_ids, pl.doc_ids)
    assert np.array_equal(out.tfs, pl.tfs)
    assert np.array_equal(out.dls, pl.dls)


def test_block_decode_matches_full():
    rng = np.random.default_rng(11)
    pl = _random_plist(rng, 513)
    row = encode_postings(pl, block_size=128, avgdl=50.0, k1=0.9, b=0.4)
    n_blocks = len(row["skip_last_doc"])
    assert n_blocks == 5
    pos = 0
    for blk in range(n_blocks):
        part = decode_block(row, blk, block_size=128)
        cnt = len(part)
        assert np.array_equal(part.doc_ids, pl.doc_ids[pos:pos + cnt])
        assert np.array_equal(part.tfs, pl.tfs[pos:pos + cnt])
        pos += cnt
    assert pos == 513


def test_block_max_bounds():
    rng = np.random.default_rng(13)
    pl = _random_plist(rng, 300)
    row = encode_postings(pl, block_size=128, avgdl=100.0, k1=0.9, b=0.4)
    factors = bm25_tf_factor(pl.tfs, pl.dls, 100.0, 0.9, 0.4)
    for blk, bm in enumerate(row["block_max"]):
        s, e = blk * 128, min((blk + 1) * 128, 300)
        # float32 block max must upper-bound all float64 factors in the block
        assert bm >= factors[s:e].max() * (1 - 1e-6)


def test_postings_reject_unsorted():
    pl = PostingList(
        doc_ids=np.array([5, 3], dtype=np.uint64),
        tfs=np.array([1, 1], dtype=np.uint64),
        dls=np.array([1, 1], dtype=np.uint64),
    )
    with pytest.raises(ValueError):
        encode_postings(pl, block_size=128, avgdl=1.0, k1=0.9, b=0.4)


def test_truncated_varint_streams_raise_value_error():
    """A stream cut inside a value (its last byte has the continuation bit
    set) is corrupt: ValueError from varint_decode and the per-block and
    position decoders built on it, never IndexError or a silent value."""
    from gxdindexer_ray.codecs.postings import decode_positions

    for buf in (b"\x80", b"\x80\x80", b"\x05\x80", varint_encode(np.array([5, 300]))[:-1]):
        with pytest.raises(ValueError):
            varint_decode(buf)
    with pytest.raises(ValueError):
        varint_decode(b"\x05\x80", count=1)
    big = varint_encode(np.arange(400_000, dtype=np.uint64) << np.uint64(20))
    with pytest.raises(ValueError):  # the chunked path
        varint_decode(big[:-1])
    with pytest.raises(ValueError):  # no value ends in the first chunk
        varint_decode(b"\x80" * (1 << 20) + b"\x00")

    # WAND's lazy block decode: the last block holds one posting whose
    # doc gap is several bytes; cut its final byte
    pl = _random_plist(np.random.default_rng(3), 129)
    row = encode_postings(pl, block_size=128, avgdl=50.0, k1=0.9, b=0.4)
    assert len(decode_block(row, 1, block_size=128)) == 1
    for col in ("docs_payload", "dls_payload"):
        cut = dict(row, **{col: row[col][:-1]})
        with pytest.raises(ValueError):
            decode_block(cut, 1, block_size=128)

    one = PostingList(doc_ids=np.array([5], np.uint64), tfs=np.array([2], np.uint64),
                      dls=np.array([9], np.uint64))
    pos = varint_encode(np.array([3, 300]))
    off, got = decode_positions({"pos_payload": pos}, one)
    assert off.tolist() == [0, 2] and got.tolist() == [3, 303]
    with pytest.raises(ValueError):
        decode_positions({"pos_payload": pos[:-1]}, one)
