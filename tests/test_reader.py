"""The reader's columnar lexicon against a direct scan of the segment files.

Every check reads the segment files with ``pq.read_table`` and rebuilds
what the reader must answer in plain Python: the rows ``fetch_terms``
returns per term (shard order, scorer columns, tombstone masks), the
columns ``fill_columns`` adds (block-max bounds rescaled per generation),
``term_stats``, ``terms_with_prefix`` and ``n_terms``. The head-first
segment layout (index/merge.py) is checked file by file against a
term-ordered merge of the same postings, and the warm-up set against a
full sort and against the earlier row-position rule. Only building the
multi-generation fixture needs Ray."""

import shutil
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
from gxdindexer_ray.index import merge
from gxdindexer_ray.index.layout import open_index
from gxdindexer_ray.index.merge import ROW_GROUP_ROWS, SEGMENT_SCHEMA
from gxdindexer_ray.index.reader import (EXTRA_COLUMNS, FETCH_COLUMNS, SCORER_COLUMNS,
                                         IndexReader, build_lexicon)
from gxdindexer_ray.state.manifest import atomic_write_json, read_json

CFG = IndexConfig()
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
        for r in pq.read_table(path).to_pylist():
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
            assert set(gr) == set(SCORER_COLUMNS) | {"_dead", "_at"}
            assert {c: gr[c] for c in SCORER_COLUMNS} == {c: wr[c] for c in SCORER_COLUMNS}, t
            # the row is built by scalar access: the same python types as
            # the scan's to_pylist, not just equal values
            assert [type(gr[c]) for c in SCORER_COLUMNS] == [type(wr[c]) for c in SCORER_COLUMNS]
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
            assert set(gr) == set(FETCH_COLUMNS) | {"_dead", "_at"}
            assert {c: gr[c] for c in FETCH_COLUMNS} == {c: wr[c] for c in FETCH_COLUMNS}, t


def test_fill_reads_only_missing_groups_and_columns(mixed_index, monkeypatch):
    """fetch_terms reads the scorer columns; fill_columns reads the other
    columns once per (file, row group), and nothing for filled rows."""
    idx, _ = mixed_index
    reads: list[tuple] = []
    orig = pq.ParquetFile.read_row_group

    def counting(self, i, columns=None, **kw):
        reads.append((id(self), i, tuple(columns)))
        return orig(self, i, columns=columns, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_group", counting)
    reader = IndexReader(idx, warm_top_terms=0)
    rows = reader.fetch_terms([HOT_TERM, "no-such-term"])
    assert reads and {r[2] for r in reads} == {tuple(SCORER_COLUMNS)}
    groups = {r[:2] for r in reads}
    del reads[:]
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
    ci = SEGMENT_SCHEMA.names.index("docs_payload")
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
        assert [{c: r[c] for c in FETCH_COLUMNS} for r in ra[t]] == \
            [{c: r[c] for c in FETCH_COLUMNS} for r in rb[t]], t
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
    """A segment file with dummy payloads; ``n_postings`` numbers the rows
    and ``df`` defaults to 1, 2, ..."""
    n = len(terms)
    empty = pa.array([[]] * n, pa.list_(pa.int64()))
    pq.write_table(pa.table({
        "term": terms, "shard": pa.array([0] * n, pa.int32()),
        "df": pa.array(range(1, n + 1) if df is None else df, pa.int64()),
        "cf": pa.array([2] * n, pa.int64()),
        "n_postings": pa.array(range(first_id, first_id + n), pa.int64()),
        "min_doc": pa.array([0] * n, pa.int64()), "max_doc": pa.array([0] * n, pa.int64()),
        "docs_payload": pa.array([b""] * n, pa.large_binary()),
        "tfs_payload": pa.array([b""] * n, pa.large_binary()),
        "dls_payload": pa.array([b""] * n, pa.large_binary()),
        "skip_last_doc": empty, "skip_doc_off": empty, "skip_tf_off": empty,
        "skip_dl_off": empty, "block_max": pa.array([[]] * n, pa.list_(pa.float32())),
        "pos_payload": pa.array([None] * n, pa.large_binary()),
    }, schema=SEGMENT_SCHEMA), path, row_group_size=row_group_size)


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
    assert reader.term_stats(["é", "日"]) == {
        "é": (sorted(a).index("é") + 1 + sorted(b).index("é") + 1, 4), "日": (sorted(b).index("日") + 1, 2)}


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
    """``src`` with every segment file rewritten in (term, shard) order."""
    shutil.copytree(src, dst)
    for f in dst.rglob("segments/*.parquet"):
        t = pq.read_table(f)
        pq.write_table(t.sort_by([("term", "ascending"), ("shard", "ascending")]), f,
                       row_group_size=ROW_GROUP_ROWS)


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


def _partials(rng, n_terms: int, hot_shards: int = 4) -> pa.Table:
    """One bucket's SPIMI partial rows for ``n_terms`` terms: every 9th
    term has ``hot_shards`` doc-range shards with many postings, and
    every (term, shard) is split over two partial rows."""
    from gxdindexer_ray.codecs.varint import varint_encode

    rows = []
    for i in range(n_terms):
        hot = i % 9 == 0
        for shard in range(hot_shards if hot else 1):
            n = int(rng.integers(20, 60) if hot else rng.integers(1, 12))
            docs = np.sort(rng.choice(1 << 40, n, replace=False)).astype(np.uint64)
            for part in np.array_split(docs, 2):
                if part.size:
                    gaps = np.diff(part, prepend=np.uint64(0))
                    rows.append({"bucket": 0, "term": f"t{i:04d}", "shard": shard,
                                 "n_postings": int(part.size),
                                 "docs_payload": varint_encode(gaps),
                                 "tfs_payload": varint_encode(rng.integers(1, 5, part.size)),
                                 "dls_payload": varint_encode(rng.integers(5, 90, part.size)),
                                 "pos_payload": None})
    return pa.Table.from_pylist(rows, schema=pa.schema([
        ("bucket", pa.int32()), ("term", pa.string()), ("shard", pa.int32()),
        ("n_postings", pa.int64()), ("docs_payload", pa.large_binary()),
        ("tfs_payload", pa.large_binary()), ("dls_payload", pa.large_binary()),
        ("pos_payload", pa.large_binary())]))


def _check_head_first(path: Path, reference: Path) -> int:
    """Check one segment file's head-first layout against ``reference``,
    a term-ordered merge of the same postings; return the head's rows.

    Row group 0 holds whole terms: the longest prefix of the file's terms
    in (-Σdf, term) order whose rows fit one row group, in (term, shard)
    order; every other row follows in (term, shard) order, in full row
    groups but the last; and the rows are the reference's rows."""
    pf = pq.ParquetFile(path)
    t = pf.read()
    terms, shards = t["term"].to_pylist(), t["shard"].to_pylist()
    ref = pq.read_table(reference)
    key = list(zip(ref["term"].to_pylist(), ref["shard"].to_pylist()))
    assert key == sorted(key)
    assert sorted(map(repr, t.to_pylist())) == sorted(map(repr, ref.to_pylist()))
    sizes = [pf.metadata.row_group(g).num_rows for g in range(pf.metadata.num_row_groups)]
    if t.num_rows <= ROW_GROUP_ROWS:
        assert path.read_bytes() == reference.read_bytes()
        return t.num_rows
    h = sizes[0]
    assert set(sizes[1:-1]) <= {ROW_GROUP_ROWS} and sizes[-1] <= ROW_GROUP_ROWS
    head, rest = list(zip(terms, shards))[:h], list(zip(terms, shards))[h:]
    assert head == sorted(head) and rest == sorted(rest)
    assert not {x for x, _ in head} & {x for x, _ in rest}
    df, n_rows = {}, {}
    for x, d in zip(terms, t["df"].to_pylist()):
        df[x] = df.get(x, 0) + d
        n_rows[x] = n_rows.get(x, 0) + 1
    top = sorted(df, key=lambda x: (-df[x], x))
    n_head = len({x for x, _ in head})
    assert {x for x, _ in head} == set(top[:n_head])
    assert h + n_rows[top[n_head]] > ROW_GROUP_ROWS
    return h


def test_head_first_merge_layout(tmp_path, monkeypatch):
    """The merge's head-first layout, without Ray: multi-shard hot terms,
    df ties at the head's cut, a deterministic file whatever the partial
    rows' order, and a file of at most one row group unchanged."""
    cfg = replace(CFG, store_positions=False)
    rng = np.random.default_rng(5)
    big, small = _partials(rng, 700), _partials(rng, 120, hot_shards=2)
    for name, tbl in (("big", big), ("small", small)):
        merge._merge_rows(tbl, str(tmp_path / name), 40.0, cfg)
        merge._merge_rows(tbl.take(rng.permutation(tbl.num_rows)),
                          str(tmp_path / f"{name}-shuffled"), 40.0, cfg)
        with monkeypatch.context() as m:
            m.setattr(merge, "_head_first", lambda *a: (None, 0))
            merge._merge_rows(tbl, str(tmp_path / f"{name}-ref"), 40.0, cfg)
    f = "bucket-00000.parquet"
    for name in ("big", "small"):
        assert (tmp_path / name / f).read_bytes() == (tmp_path / f"{name}-shuffled" / f).read_bytes()
    h = _check_head_first(tmp_path / "big" / f, tmp_path / "big-ref" / f)
    assert 0 < h <= ROW_GROUP_ROWS and pq.ParquetFile(tmp_path / "big" / f).metadata.num_rows > 600
    head = pq.ParquetFile(tmp_path / "big" / f).read_row_group(0, columns=["term"])["term"]
    assert len(pc.unique(head)) < h  # the hot terms' shard rows are in the head
    assert _check_head_first(tmp_path / "small" / f, tmp_path / "small-ref" / f) <= ROW_GROUP_ROWS


@pytest.fixture(scope="module")
def auto_generations(ray_session, tmp_path_factory):
    """An auto-layout base (1,000 docs) and two appended generations of
    300 docs each, all cut from one corpus, so they share its vocabulary."""
    from gxdindexer_ray.pipelines import append_index, build_index

    root = tmp_path_factory.mktemp("generations")
    full = pads.dataset(generate_pages(root / "full", 1600, seed=42), format="parquet").to_table()
    parts = []
    for name, lo, n in (("base", 0, 1000), ("d0", 1000, 300), ("d1", 1300, 300)):
        (root / name).mkdir()
        pq.write_table(full.slice(lo, n), root / name / "part-0.parquet")
        parts.append(root / name)
    idx = root / "idx"
    build_index(parts[0], idx, CFG)
    for d in parts[1:]:
        append_index(d, idx, CFG)
    return idx


def _check_built_head_first(idx: Path, out: Path, monkeypatch) -> list[tuple[int, int, int]]:
    """Check every segment file of ``idx`` with ``_check_head_first``
    against a term-ordered merge of its generation's docstore (one SPIMI
    batch, merged in process), and that it is byte-identical to the
    head-first merge of the same batch; return (n_buckets, head rows,
    rows) per file."""
    from gxdindexer_ray.index.spimi import SpimiPartialBuilder

    heads = []
    for gen in open_index(idx).generations:
        nb = read_json(gen.dir / "_manifests" / "phase-segments.json")["n_buckets"]
        cfg = replace(CFG, n_buckets=nb)
        hot = (read_json(gen.dir / "hot_terms.json") or {}).get("hot_terms", [])
        docs = pa.concat_tables(pq.read_table(f, columns=["doc_id", "text"]) for f in gen.docs)
        part = SpimiPartialBuilder(hot_terms_ref=hot, cfg=cfg)(docs)
        d = out / gen.dir.name
        for f in map(Path, gen.segments):
            sub = part.filter(pc.equal(part["bucket"], int(f.stem.split("-")[1])))
            merge._merge_rows(sub, str(d / "head"), gen.stats["avgdl"], cfg)
            with monkeypatch.context() as m:
                m.setattr(merge, "_head_first", lambda *a: (None, 0))
                merge._merge_rows(sub, str(d / "ref"), gen.stats["avgdl"], cfg)
            assert f.read_bytes() == (d / "head" / f.name).read_bytes(), f
            heads.append((nb, _check_head_first(f, d / "ref" / f.name),
                          pq.ParquetFile(f).metadata.num_rows))
    return heads


def test_built_segments_are_head_first(mixed_index, auto_generations, monkeypatch, tmp_path):
    """Every segment file of a 32-bucket base with sharded hot terms, of
    auto-layout deltas and of an auto-layout base is head-first, is
    byte-identical to an in-process merge of its generation's docstore,
    and holds the rows of a term-ordered merge. On both indexes the
    warm-up picks the row-position rule's terms of a term-ordered copy."""
    mixed = _check_built_head_first(mixed_index[0], tmp_path / "mixed", monkeypatch)
    assert {nb for nb, _, _ in mixed} == {32, 1}
    auto = _check_built_head_first(auto_generations, tmp_path / "auto", monkeypatch)
    assert len(auto) == 3 and {nb for nb, _, _ in auto} == {1}
    assert all(0 < h < n for _, h, n in auto)
    for name, idx in (("mixed", mixed_index[0]), ("auto", auto_generations)):
        got = _warm_pick(idx, monkeypatch)
        assert len(got) == 64
        _term_ordered_copy(idx, tmp_path / f"{name}-sorted")
        assert _row_position_rule(build_lexicon(tmp_path / f"{name}-sorted")) == got, name


def test_warm_up_reads_one_row_group_per_file(auto_generations, monkeypatch):
    """On a multi-generation index whose generations share a vocabulary,
    the default warm-up finds its terms in each file's row group 0."""
    reads: dict[int, list[int]] = {}
    orig = pq.ParquetFile.read_row_group

    def counting(self, i, columns=None, **kw):
        reads.setdefault(id(self), []).append(i)
        return orig(self, i, columns=columns, **kw)

    with monkeypatch.context() as m:
        m.setattr(pq.ParquetFile, "read_row_group", counting)
        reader = IndexReader(auto_generations)
    assert len(reader._pf) == 3
    assert sorted(reads.values()) == [[0], [0], [0]]
    assert len(reader._cache) == 64
