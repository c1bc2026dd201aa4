"""The reader's columnar lexicon against a direct scan of the segment files.

Every check reads the segment files with ``pq.read_table`` and rebuilds
what the reader must answer in plain Python: the rows ``fetch_terms``
returns per term (shard order, block-max bounds rescaled per generation,
tombstone masks), ``term_stats``, ``terms_with_prefix`` and ``n_terms``.
Only building the multi-generation fixture needs Ray."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from gxdindexer_ray.config import IndexConfig
from gxdindexer_ray.fixtures import generate_pages
from gxdindexer_ray.fixtures.pages import HOT_TERM
from gxdindexer_ray.index.layout import open_index
from gxdindexer_ray.index.merge import SEGMENT_SCHEMA
from gxdindexer_ray.index.reader import FETCH_COLUMNS, IndexReader, build_lexicon
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
            assert set(gr) == set(FETCH_COLUMNS) | {"_dead"}
            assert {c: gr[c] for c in FETCH_COLUMNS} == {c: wr[c] for c in FETCH_COLUMNS}, t
            assert gr["_dead"].tolist() == [victim]
    # the hot term: 32 base shards then the delta's one unsharded row
    assert [r["shard"] for r in got[HOT_TERM]] == [0] + list(range(32))
    assert reader.fetch_terms(["no-such-term", HOT_TERM])[HOT_TERM] is got[HOT_TERM]


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


def _segment_file(path: Path, terms: list[str], first_id: int) -> None:
    """A segment file with dummy payloads; ``n_postings`` numbers the rows."""
    n = len(terms)
    empty = pa.array([[]] * n, pa.list_(pa.int64()))
    pq.write_table(pa.table({
        "term": terms, "shard": pa.array([0] * n, pa.int32()),
        "df": pa.array(range(1, n + 1), pa.int64()), "cf": pa.array([2] * n, pa.int64()),
        "n_postings": pa.array(range(first_id, first_id + n), pa.int64()),
        "min_doc": pa.array([0] * n, pa.int64()), "max_doc": pa.array([0] * n, pa.int64()),
        "docs_payload": pa.array([b""] * n, pa.large_binary()),
        "tfs_payload": pa.array([b""] * n, pa.large_binary()),
        "dls_payload": pa.array([b""] * n, pa.large_binary()),
        "skip_last_doc": empty, "skip_doc_off": empty, "skip_tf_off": empty,
        "skip_dl_off": empty, "block_max": pa.array([[]] * n, pa.list_(pa.float32())),
        "pos_payload": pa.array([None] * n, pa.large_binary()),
    }, schema=SEGMENT_SCHEMA), path, row_group_size=3)


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
