"""The reader's columnar lexicon against a direct scan of the segment files.

Every check reads the segment files with ``pq.read_table``, joins each
row with its payloads parsed from the postings blob by hand, and rebuilds
what the reader must answer in plain Python: the rows ``fetch_terms``
returns per term (shard order, scorer payloads, tombstone masks), the
columns ``fill_columns`` adds (block-max bounds rescaled per generation),
``term_stats``, ``terms_with_prefix`` and ``n_terms``. A fetch reads no
row group; corrupt blobs and indexes written before the blob are refused
with ``ValueError``. The warm-up set is checked against a full sort and
against the earlier row-position rule. Only the built fixtures need Ray."""

import shutil
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from gxdindexer_ray.config import IndexConfig
from gxdindexer_ray.fixtures import generate_pages
from gxdindexer_ray.fixtures.pages import HOT_TERM
from gxdindexer_ray.codecs.varint import varint_decode
from gxdindexer_ray.index import merge, postfile
from gxdindexer_ray.index.layout import open_index
from gxdindexer_ray.index.merge import ROW_GROUP_ROWS, SEGMENT_SCHEMA
from gxdindexer_ray.index.reader import EXTRA_COLUMNS, IndexReader, build_lexicon
from gxdindexer_ray.state.manifest import atomic_write_json, read_json

CFG = IndexConfig()
PAYLOADS = ("docs_payload", "tfs_payload", "dls_payload")
# the fields of a fetched row (besides _at and _dead), then fill_columns'
SCORER = ("shard", "n_postings") + PAYLOADS
FETCH = SCORER + tuple(EXTRA_COLUMNS)
_STATS = {"N": 0, "total_dl": 0, "avgdl": 0.0, "k1": CFG.k1, "b": CFG.b,
          "block_size": CFG.block_size, "store_positions": CFG.store_positions}


@pytest.fixture(scope="module")
def mixed_index(ray_session, pages_1k, tmp_path_factory):
    """A 32-bucket base (hot terms in 32 shards), an auto-layout appended
    generation (one unsharded bucket) and one tombstoned base doc."""
    from gxdindexer_ray.pipelines import append_index, build_index, delete_docs

    root = tmp_path_factory.mktemp("lexicon")
    idx = root / "idx"
    build_index(pages_1k, idx, replace(CFG, n_buckets=32))
    append_index(generate_pages(root / "delta", 300, seed=8), idx, CFG)
    victim = pq.read_table(sorted((idx / "docs").glob("*.parquet"))[0],
                           columns=["doc_id"])["doc_id"][0].as_py()
    delete_docs(idx, [victim])
    return idx, victim


def _parse_blob(path: Path) -> list[tuple[bytes, bytes, bytes]]:
    """Each row's (docs, tfs, dls) payloads of a postings blob, parsed by
    hand: payloads back to back, a LEB128 trailer of three lengths per row,
    then a 24-byte footer (row count, trailer offset, magic)."""
    raw = path.read_bytes()
    rows, at, magic = struct.unpack("<QQ8s", raw[-24:])
    assert magic == b"GXDPOST1"
    out, pos = [], 0
    for d, t, l in varint_decode(raw[at:-24], count=3 * rows).reshape(rows, 3).tolist():
        out.append((raw[pos:pos + d], raw[pos + d:pos + d + t], raw[pos + d + t:pos + d + t + l]))
        pos += d + t + l
    assert pos == at
    return out


def _rows(path: Path) -> list[dict]:
    """A segment file's rows, each joined with its payloads from the blob."""
    rows = pq.read_table(path).to_pylist()
    blob = _parse_blob(path.with_suffix(".post"))
    assert len(rows) == len(blob)
    for r, p in zip(rows, blob):
        r.update(zip(PAYLOADS, p))
    return rows


def _scan(idx: Path):
    """term -> rows of every segment file as the reader must return them,
    plus the files' generation avgdl rescale factors."""
    stats = [read_json(idx / "stats.json")] + [
        read_json(idx / g / "stats.json")
        for g in read_json(idx / "generations.json")["generations"]]
    gavg = sum(s["total_dl"] for s in stats) / sum(s["N"] for s in stats)
    dead = np.unique(pq.read_table(idx / "tombstones")["doc_id"].to_numpy())
    rows: dict[str, list[tuple]] = {}
    scales = []
    files = [(g.stats, f) for g in open_index(idx).generations for f in g.segments]
    for fi, (gstats, path) in enumerate(files):
        scale = max(1.0, gavg / gstats["avgdl"])
        scales.append(scale)
        rows_ = _rows(Path(path))
        assert postfile.segment_table(path).to_pylist() == rows_
        for r in rows_:
            if scale != 1.0:
                r["block_max"] = [v * scale for v in r["block_max"]]
            rows.setdefault(r["term"], []).append((r["shard"], fi, r))
    want = {t: [r for _, _, r in sorted(rs, key=lambda x: x[:2])] for t, rs in rows.items()}
    return want, scales, dead


def test_fetch_terms_match_segment_scan(mixed_index):
    idx, victim = mixed_index
    want, scales, dead = _scan(idx)
    assert dead.tolist() == [victim]
    assert 1.0 in scales and any(s > 1.0 for s in scales)
    reader = IndexReader(idx, warm_top_terms=0)
    terms = sorted(want)
    assert reader.n_terms == len(terms)
    got: dict[str, list[dict]] = {}
    for i in range(0, len(terms), 500):
        got.update(reader.fetch_terms(terms[i:i + 500]))
    assert sorted(got) == terms
    for t in terms:
        g, w = got[t], want[t]
        assert [r["shard"] for r in g] == [r["shard"] for r in w], t
        for gr, wr in zip(g, w):
            assert set(gr) == set(SCORER) | {"_dead", "_at"}
            assert {c: gr[c] for c in SCORER} == {c: wr[c] for c in SCORER}, t
            # the same python types as the scan's, not just equal values:
            # payloads are bytes slices of the mapped blob
            assert [type(gr[c]) for c in SCORER] == [type(wr[c]) for c in SCORER]
            # cast once per generation to the decoded doc ids' dtype
            assert gr["_dead"].dtype == np.uint64 and gr["_dead"].tolist() == [victim]
    # the hot term: 32 base shards then the delta's one unsharded row
    assert [r["shard"] for r in got[HOT_TERM]] == [0] + list(range(32))
    assert reader.fetch_terms(["no-such-term", HOT_TERM])[HOT_TERM] is got[HOT_TERM]

    # the block and position columns, filled in place; a second fill, and
    # a fill of cached rows, must not rescale block_max again
    for i in range(0, len(terms), 500):
        chunk = {t: got[t] for t in terms[i:i + 500]}
        assert reader.fill_columns(chunk) is chunk
    hit = reader.fetch_terms([HOT_TERM])
    assert hit[HOT_TERM] is got[HOT_TERM]
    reader.fill_columns(hit)
    reader.fill_columns(got)
    for t in terms:
        for gr, wr in zip(got[t], want[t]):
            assert set(gr) == set(FETCH) | {"_dead", "_at"}
            assert {c: gr[c] for c in FETCH} == {c: wr[c] for c in FETCH}, t


def test_fill_reads_only_missing_groups_and_columns(mixed_index, monkeypatch):
    """fetch_terms reads no row group; fill_columns reads its columns once
    per (file, row group) of the fetched rows, and nothing for filled rows."""
    idx, _ = mixed_index
    reads: list[tuple] = []
    orig = pq.ParquetFile.read_row_group

    def counting(self, i, columns=None, **kw):
        reads.append((id(self), i, tuple(columns)))
        return orig(self, i, columns=columns, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_group", counting)
    reader = IndexReader(idx, warm_top_terms=0)
    rows = reader.fetch_terms([HOT_TERM, "no-such-term"])
    assert reads == []
    groups = {(id(reader._pf[r["_at"][0]]), r["_at"][1]) for r in rows[HOT_TERM]}
    assert len(groups) > 1
    reader.fill_columns(rows)
    assert {r[2] for r in reads} == {tuple(EXTRA_COLUMNS)}
    assert sorted(r[:2] for r in reads) == sorted(groups)
    del reads[:]
    reader.fill_columns(reader.fetch_terms([HOT_TERM]))
    assert reads == []


def test_old_segment_encoding_reads_the_same(mixed_index, tmp_path):
    """A base whose segment files carry the earlier encoding (zstd, default
    dictionary pages and statistics) under a delta with the current one
    answers every fetch and query path exactly like the current files."""
    from gxdindexer_ray.pipelines import SearchEngine
    from gxdindexer_ray.pipelines.search import DocFilter
    from gxdindexer_ray.text.tokenize import tokenize

    idx, _ = mixed_index
    old = tmp_path / "old"
    shutil.copytree(idx, old)
    base = sorted((old / "segments").glob("*.parquet"))
    assert base
    for f in base:
        pq.write_table(pq.read_table(f), f, compression="zstd", row_group_size=256)
    md = pq.ParquetFile(base[0]).metadata.row_group(0)
    ci = SEGMENT_SCHEMA.names.index("skip_doc_off")
    assert md.column(ci).compression == "ZSTD" and md.column(ci).statistics is not None
    new_md = pq.ParquetFile(sorted((idx / "segments").glob("*.parquet"))[0]).metadata
    assert new_md.row_group(0).column(ci).compression == "LZ4"
    assert new_md.row_group(0).column(ci).statistics is None

    a, b = SearchEngine(idx), SearchEngine(old)
    terms = sorted(a.reader.terms_with_prefix(""))
    assert b.reader.terms_with_prefix("") == terms
    ra = a.reader.fill_columns(a.reader.fetch_terms(terms))
    rb = b.reader.fill_columns(b.reader.fetch_terms(terms))
    for t in terms:
        assert [{c: r[c] for c in FETCH} for r in ra[t]] == \
            [{c: r[c] for c in FETCH} for r in rb[t]], t
    # row 0 of the first docstore file is the tombstoned doc
    docs = pq.read_table(sorted((idx / "docs").glob("*.parquet"))[0], columns=["text"])
    texts = [x for x in docs["text"].to_pylist()[1:] if x and len(tokenize(x)) >= 6][:5]
    flt = DocFilter("dl>=30", ["dl"], lambda t: pc.greater_equal(t["dl"], 30))
    for q in [HOT_TERM, f"{HOT_TERM} {terms[7]}", " ".join(terms[100:103])] + \
            [" ".join(tokenize(x)[:3]) for x in texts]:
        for method in ("brute", "bmw"):
            assert a.topk(q, 10, method=method) == b.topk(q, 10, method=method), (q, method)
        assert a.filtered_topk(q, 10, flt) == b.filtered_topk(q, 10, flt), q
    for x in texts:
        ph = " ".join(tokenize(x)[1:4])
        assert a.phrase_topk(ph, 10) == b.phrase_topk(ph, 10), ph
        assert a.phrase_topk(ph, 10), ph


def test_term_stats_and_prefixes_match_segment_scan(mixed_index):
    idx, _ = mixed_index
    seg = pads.dataset([str(f) for g in open_index(idx).generations for f in g.segments],
                       format="parquet").to_table(columns=["term", "df", "cf"])
    want: dict[str, tuple[int, int]] = {}
    for t, df, cf in zip(*(seg[c].to_pylist() for c in ("term", "df", "cf"))):
        d, c = want.get(t, (0, 0))
        want[t] = (d + df, c + cf)
    reader = IndexReader(idx, warm_top_terms=0)
    assert reader.term_stats() == want
    some = sorted(want)[::97] + [HOT_TERM, "no-such-term", HOT_TERM]
    assert reader.term_stats(some) == {t: want[t] for t in some if t in want}
    assert reader.term_stats([]) == {}
    terms = sorted(want)
    assert reader.terms_with_prefix("") == terms
    for p in ("a", "ze", HOT_TERM, "zz", "0", "é", "日本", "\U00020000", "z\U0010ffff"):
        assert reader.terms_with_prefix(p) == [t for t in terms if t.startswith(p)], p
    assert len(reader.terms_with_prefix("a")) > 1


def _segment_file(path: Path, terms: list[str], first_id: int, df=None,
                  row_group_size: int = 3) -> None:
    """A segment file and its blob with dummy payloads: a row's docs
    payload is its term, and ``df`` (= ``n_postings``, a row's posting
    count) numbers the rows from ``first_id`` unless given."""
    n = len(terms)
    empty = pa.array([[]] * n, pa.list_(pa.int64()))
    pq.write_table(pa.table({
        "term": terms, "shard": pa.array([0] * n, pa.int32()),
        "df": pa.array(range(first_id, first_id + n) if df is None else df, pa.int64()),
        "cf": pa.array([2] * n, pa.int64()),
        "n_postings": pa.array(range(first_id, first_id + n) if df is None else df, pa.int64()),
        "skip_last_doc": empty, "skip_doc_off": empty, "skip_tf_off": empty,
        "skip_dl_off": empty, "block_max": pa.array([[]] * n, pa.list_(pa.float32())),
        "pos_payload": pa.array([None] * n, pa.large_binary()),
    }, schema=SEGMENT_SCHEMA), path, row_group_size=row_group_size)
    postfile.write_post(path.with_suffix(".post"), [
        pa.array([t.encode() for t in terms], pa.large_binary()),
        pa.array([b"\x01"] * n, pa.large_binary()), pa.array([b""] * n, pa.large_binary())])


def test_lexicon_orders_non_ascii_terms_like_python(tmp_path):
    """Arrow sorts strings by UTF-8 bytes; term lookup and prefix ranges
    use Python str order. The two agree on every code point, astral ones
    and U+10FFFF included, and each row keeps its file, row group and row."""
    a = ["b", "z", "é", "éa", "ü", "日本", "日本語", "\U00020000x", "ab"]
    b = ["a", "é", "ﬀ", "z\U0010ffff", "z\U0010ffffa", "\U00020000", "zz", "日"]
    seg = tmp_path / "ix" / "segments"
    seg.mkdir(parents=True)
    _segment_file(seg / "part-00000.parquet", sorted(a), 0)
    _segment_file(seg / "part-00001.parquet", sorted(b), 100)
    atomic_write_json(tmp_path / "ix" / "stats.json", dict(_STATS, N=1, total_dl=1, avgdl=1.0))
    reader = IndexReader(tmp_path / "ix", warm_top_terms=2)
    terms = sorted(set(a) | set(b))
    assert reader.n_terms == len(terms)
    assert reader.terms_with_prefix("") == terms
    for p in ("é", "日本", "\U00020000", "z", "z\U0010ffff", "\U0010ffff", "ﬀ", "q"):
        assert reader.terms_with_prefix(p) == [t for t in terms if t.startswith(p)], p
    ids = {t: [sorted(a).index(t)] if t in a else [] for t in terms}
    for t in b:
        ids[t].append(100 + sorted(b).index(t))
    got = reader.fetch_terms(terms)
    assert {t: [r["n_postings"] for r in rs] for t, rs in got.items()} == ids
    assert all(r["docs_payload"] == t.encode() and r["tfs_payload"] == b"\x01"
               and r["dls_payload"] == b"" for t, rs in got.items() for r in rs)
    assert reader.term_stats(["é", "日"]) == {
        "é": (sorted(a).index("é") + 100 + sorted(b).index("é"), 4), "日": (100 + sorted(b).index("日"), 2)}


def test_lexicon_of_index_without_segments(tmp_path):
    """An index with no segment file (nothing indexed yet) opens to an
    empty lexicon that answers every lookup with nothing."""
    atomic_write_json(tmp_path / "stats.json", _STATS)
    lex = build_lexicon(tmp_path)
    assert lex["files"] == [] and len(lex["terms"]) == 0 and lex["offsets"].tolist() == [0]
    reader = IndexReader(tmp_path, lexicon=lex)
    assert reader.n_terms == 0
    assert reader.fetch_terms(["a", "b"]) == {}
    assert reader.term_stats() == {} and reader.term_stats(["a"]) == {}
    assert reader.terms_with_prefix("") == [] and reader.terms_with_prefix("a") == []


def _warm_pick(index, monkeypatch) -> list[str]:
    """The terms a default ``IndexReader`` warms, in the order it asks."""
    calls = []
    orig = IndexReader.fetch_terms

    def record(self, terms):
        calls.append(list(terms))
        return orig(self, terms)

    with monkeypatch.context() as m:
        m.setattr(IndexReader, "fetch_terms", record)
        IndexReader(index)
    return calls[0] if calls else []


def _row_position_rule(lex: dict, k: int = 64) -> list[str]:
    """The warm-up rule for term-ordered files: (-df, file, row_group,
    row) of each term's first lexicon row."""
    first = lex["offsets"][:-1]
    df = np.add.reduceat(lex["df"], first)
    order = np.lexsort((lex["row"][first], lex["row_group"][first], lex["file"][first], -df))
    return lex["terms"][order[:k]].tolist()


def _term_ordered_copy(src: Path, dst: Path) -> None:
    """``src`` with every segment file (and its blob) rewritten in (term,
    shard) order."""
    shutil.copytree(src, dst)
    for f in dst.rglob("segments/*.parquet"):
        t = postfile.segment_table(f).sort_by([("term", "ascending"), ("shard", "ascending")])
        pq.write_table(t.drop_columns(list(PAYLOADS)), f, row_group_size=ROW_GROUP_ROWS)
        postfile.write_post(f.with_suffix(".post"), [t[c].combine_chunks() for c in PAYLOADS])


def test_warm_set_ties_across_files_and_generations(tmp_path, monkeypatch):
    """Planted df ties across two base files and a generation, one at the
    64th place: the partition pick equals a full lexsort by (-df, first
    file, term), whatever the row order in the files, and equals the
    row-position rule on a term-ordered copy of the same files."""
    rng = np.random.default_rng(3)
    # terms' first files are independent of term order
    vocab = rng.permutation([f"w{i:03d}" for i in range(320)]).tolist()
    ix = tmp_path / "ix"
    (ix / "gen-0001").mkdir(parents=True)
    for d, names, seed in ((ix, ("part-00000", "part-00001"), 0), (ix / "gen-0001", ("part-00000",), 9)):
        (d / "segments").mkdir()
        atomic_write_json(d / "stats.json", dict(_STATS, N=1, total_dl=1, avgdl=1.0))
        for j, name in enumerate(names):
            # overlapping windows, so each file is some terms' first file
            lo = 80 * (j + 2 * (seed > 0))
            terms = sorted(rng.choice(vocab[lo:lo + 160], 120, replace=False).tolist())
            order = rng.permutation(len(terms))  # any row order, not term order
            _segment_file(d / "segments" / f"{name}.parquet", [terms[i] for i in order],
                          100 * (seed + j), df=rng.integers(1, 4, len(terms))[order].tolist(),
                          row_group_size=16)
    atomic_write_json(ix / "generations.json", {"generations": ["gen-0001"]})
    lex = build_lexicon(ix)
    first = lex["offsets"][:-1]
    df = np.add.reduceat(lex["df"], first)
    full = lex["terms"][np.lexsort((np.arange(df.size), lex["file"][first], -df))].tolist()
    got = _warm_pick(ix, monkeypatch)
    assert got == full[:64]
    # the planted ties: at the 64th place, and across first files
    ddf = dict(zip(lex["terms"].tolist(), df.tolist()))
    assert ddf[full[63]] == ddf[full[64]]
    fidx = dict(zip(lex["terms"].tolist(), lex["file"][first].tolist()))
    assert {fidx[t] for t in full if ddf[t] == ddf[full[63]]} == {0, 1, 2}
    # the row-position rule depends on the row order; on term order it is this one
    assert _row_position_rule(lex) != got
    _term_ordered_copy(ix, tmp_path / "sorted")
    assert _row_position_rule(build_lexicon(tmp_path / "sorted")) == got
    assert _warm_pick(tmp_path / "sorted", monkeypatch) == got


def test_warm_up_reads_no_row_group(mixed_index, monkeypatch):
    """The default warm-up fetches its 64 terms from the blobs alone: no
    Parquet row group is read, whatever the files' row order."""
    reads: list[int] = []
    orig = pq.ParquetFile.read_row_group

    def counting(self, i, *a, **kw):
        reads.append(i)
        return orig(self, i, *a, **kw)

    with monkeypatch.context() as m:
        m.setattr(pq.ParquetFile, "read_row_group", counting)
        reader = IndexReader(mixed_index[0])
    assert reads == [] and len(reader._cache) == 64


def _partials(rng, n_terms: int) -> pa.Table:
    """One bucket's SPIMI partial rows for ``n_terms`` terms, each split
    over two partial rows."""
    from gxdindexer_ray.codecs.varint import varint_encode

    rows = []
    for i in range(n_terms):
        docs = np.sort(rng.choice(1 << 40, int(rng.integers(2, 60)), replace=False)).astype(np.uint64)
        for part in np.array_split(docs, 2):
            rows.append({"bucket": 0, "term": f"t{i:04d}", "shard": 0,
                         "n_postings": int(part.size),
                         "docs_payload": varint_encode(np.diff(part, prepend=np.uint64(0))),
                         "tfs_payload": varint_encode(rng.integers(1, 5, part.size)),
                         "dls_payload": varint_encode(rng.integers(5, 90, part.size)),
                         "pos_payload": None})
    return pa.Table.from_pylist(rows, schema=pa.schema([
        ("bucket", pa.int32()), ("term", pa.string()), ("shard", pa.int32()),
        ("n_postings", pa.int64()), ("docs_payload", pa.large_binary()),
        ("tfs_payload", pa.large_binary()), ("dls_payload", pa.large_binary()),
        ("pos_payload", pa.large_binary())]))


def _decode_index(ix: Path) -> list:
    """Every posting list of ``ix``, fetched and decoded."""
    from gxdindexer_ray.codecs.postings import decode_postings_many

    reader = IndexReader(ix, warm_top_terms=0)
    rows = reader.fetch_terms(reader.terms_with_prefix(""))
    return decode_postings_many([r for rs in rows.values() for r in rs])


def test_corrupt_blobs_raise_value_error(tmp_path):
    """A blob that is cut short, disagrees with its segment file, or holds
    a stream of the wrong number of values raises ValueError at open or
    at decode, never a silently wrong posting list (no Ray)."""
    ix = tmp_path / "ix"
    merge._merge_rows(_partials(np.random.default_rng(5), 40), str(ix / "segments"), 40.0, CFG)
    atomic_write_json(ix / "stats.json", dict(_STATS, N=1, total_dl=1, avgdl=40.0))
    seg = ix / "segments" / "bucket-00000.parquet"
    blob = seg.with_suffix(".post")
    good = blob.read_bytes()
    rows = _rows(seg)
    assert len(rows) == 40 and len(_decode_index(ix)) == 40

    def payloads(j=None, i=None, fn=None) -> list[pa.Array]:
        cols = [[r[c] for r in rows] for c in PAYLOADS]
        if fn is not None:
            cols[j][i] = fn(cols[j][i])
        return [pa.array(c, pa.large_binary()) for c in cols]

    corrupt = [good[:-cut] for cut in (1, 8, 24, 25, len(good) // 2)]
    # the footer says the trailer starts past the file's end
    corrupt.append(good[:-24] + struct.pack("<QQ8s", 40, len(good), b"GXDPOST1"))
    # lengths that do not add up to the payload bytes
    corrupt.append(good[:-24] + struct.pack("<QQ8s", 40, 7, b"GXDPOST1"))
    for raw in corrupt:
        blob.write_bytes(raw)
        with pytest.raises(ValueError):
            _decode_index(ix)
    bad = [[pa.concat_arrays([p, p.slice(0, 1)]) for p in payloads()]]  # one row too many
    for j in range(3):
        for i in (0, 17, 39):
            bad.append(payloads(j, i, lambda b: b + b"\x05"))  # one whole value too many
            bad.append(payloads(j, i, lambda b: b[:-1]))  # cut inside its last value
    for cols in bad:
        postfile.write_post(blob, cols)
        with pytest.raises(ValueError):
            _decode_index(ix)
    postfile.write_post(blob, payloads())
    assert blob.read_bytes() == good


def test_old_layout_refused_then_compacted(ray_session, pages_1k, oracle_1k, tmp_path):
    """An index whose segment files carry the payload columns and no blob
    (the layout before the blob) is refused at open with the upgrade
    message; compact_index on it writes blobs and answers like the
    oracle, even when the index's last compaction sealed the same
    docstore (the segments checkpoint names the blob format)."""
    from gxdindexer_ray.fixtures import generate_queries
    from gxdindexer_ray.pipelines import SearchEngine, build_index, compact_index

    idx = tmp_path / "idx"
    build_index(pages_1k, idx, CFG)
    compact_index(idx, CFG)
    for f in sorted((idx / "segments").glob("*.parquet")):
        pq.write_table(postfile.segment_table(f), f)
        f.with_suffix(".post").unlink()
    manifest = idx / "_manifests" / "phase-segments.json"
    m = read_json(manifest)
    atomic_write_json(manifest, dict(m, key=m["key"].rsplit("-", 1)[0]))
    for open_ in (IndexReader, SearchEngine):
        with pytest.raises(ValueError, match="compact_index"):
            open_(idx)
    compact_index(idx, CFG)
    assert sorted(f.suffix for f in (idx / "segments").iterdir()) == [".parquet", ".post"]
    eng = SearchEngine(idx)
    for q in generate_queries(15, seed=5).to_pylist():
        assert eng.topk(q["query"], q["k"]) == oracle_1k.topk(q["query"], q["k"])
