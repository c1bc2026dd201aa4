"""Partition-invariance, checkpoint-resume and skew-path tests (SURVEY.md §5
items 3-5)."""

import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from gxdindexer_ray.config import IndexConfig
from gxdindexer_ray.fixtures.pages import HOT_TERM
from gxdindexer_ray.state.manifest import read_json

CFG = IndexConfig()


def _segment_bytes(out: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sorted((out / "segments").glob("*.parquet"))}


def test_segments_invariant_to_batching(ray_session, pages_1k, tmp_path):
    """Same input, different batch sizes / partial granularity -> identical
    segment bytes. (Cross-num_cpus invariance is exercised by
    bench.py --scaling in fresh processes; batching is the in-session proxy
    that changes partial boundaries the same way parallelism does.)"""
    from gxdindexer_ray.pipelines import build_index

    a = tmp_path / "a"
    b = tmp_path / "b"
    build_index(pages_1k, a, replace(CFG, batch_size=64))
    build_index(pages_1k, b, replace(CFG, batch_size=517))
    sa, sb = _segment_bytes(a), _segment_bytes(b)
    assert sa.keys() == sb.keys()
    for name in sa:
        assert sa[name] == sb[name], f"segment {name} differs across batch sizes"
    assert read_json(a / "stats.json") == read_json(b / "stats.json")


def test_one_hot_sample_rule_for_every_entry_point(ray_session, pages_1k, tmp_path):
    """P2 samples the sealed docstore under the cut of the post-dedup N,
    whichever entry point wrote it. A corpus in which every page has a
    later-crawled copy, built from pages, rebuilt through a match-all
    filter, and compacted, gives one hot set, one sampled-doc count and
    byte-identical segments. (When the build cut its sample from the
    pre-dedup row count, it sampled about half the docs the filtered
    build did.)"""
    from datetime import timedelta

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from gxdindexer_ray.pipelines import build_index, compact_index
    from gxdindexer_ray.pipelines.build import build_filtered_index

    pages = pq.read_table(pages_1k)
    later = pages.set_column(
        pages.schema.get_field_index("warc_ts"), "warc_ts",
        pc.add(pages["warc_ts"], pa.scalar(timedelta(days=30), pa.duration("us")))
    ).cast(pages.schema)
    (tmp_path / "pages").mkdir()
    pq.write_table(pa.concat_tables([pages, later]), tmp_path / "pages" / "part-0.parquet")
    cfg = replace(CFG, hot_sample_target=300, n_buckets=32)  # a sharded layout

    built, filtered, compacted = tmp_path / "b", tmp_path / "f", tmp_path / "c"
    build_index(tmp_path / "pages", built, cfg)
    build_filtered_index(built, filtered, pc.field("dl") >= 0, cfg, predicate_tag="all")
    shutil.copytree(built, compacted)
    compact_index(compacted, cfg)

    hot = read_json(built / "hot_terms.json")
    n = read_json(built / "stats.json")["N"]
    assert hot["hot_terms"] and 0 < hot["sampled_docs"] < n
    for other in (filtered, compacted):
        assert read_json(other / "stats.json")["N"] == n
        assert read_json(other / "hot_terms.json") == hot
        assert _segment_bytes(other) == _segment_bytes(built)


def test_resume_skips_completed_phases(ray_session, pages_1k, tmp_path):
    from gxdindexer_ray.pipelines import build_index

    out = tmp_path / "ix"
    build_index(pages_1k, out, CFG)
    ref_segments = _segment_bytes(out)
    docs_mtimes = {f.name: f.stat().st_mtime_ns for f in (out / "docs").glob("*.parquet")}

    # full re-run: everything skipped, docstore untouched
    m = build_index(pages_1k, out, CFG)
    assert {f.name: f.stat().st_mtime_ns for f in (out / "docs").glob("*.parquet")} == docs_mtimes
    assert m["phases"]["docstore"] < 0.5

    # simulate a crash mid-P3: segments gone, manifest unsealed
    shutil.rmtree(out / "segments")
    (out / "_manifests" / "phase-segments.json").unlink()
    m2 = build_index(pages_1k, out, CFG)
    # docstore still skipped...
    assert {f.name: f.stat().st_mtime_ns for f in (out / "docs").glob("*.parquet")} == docs_mtimes
    # ...and rebuilt segments are byte-identical
    assert _segment_bytes(out) == ref_segments
    # per-bucket lineage rows present
    manifest = read_json(out / "segments_manifest.json")
    assert len(manifest["buckets"]) >= 1
    for row in manifest["buckets"]:
        assert Path(row["path"]).exists()
        assert row["n_postings"] > 0


def test_config_change_invalidates_checkpoint(ray_session, pages_1k, tmp_path):
    from gxdindexer_ray.pipelines import build_index

    out = tmp_path / "ix"
    build_index(pages_1k, out, CFG)
    seg_mtimes = {f.name: f.stat().st_mtime_ns for f in (out / "segments").glob("*.parquet")}
    build_index(pages_1k, out, replace(CFG, k1=1.2))  # scoring change -> rebuild
    assert {f.name: f.stat().st_mtime_ns for f in (out / "segments").glob("*.parquet")} != seg_mtimes


def test_no_salting_still_correct(ray_session, pages_1k, tmp_path, oracle_1k):
    """With hot detection disabled the merged index must produce identical
    query results (salting is a performance path, not a semantic one)."""
    from gxdindexer_ray.fixtures import generate_queries
    from gxdindexer_ray.pipelines import SearchEngine, build_index

    out = tmp_path / "nosalt"
    # a sharded layout, so P2 runs, but nothing qualifies as hot
    cfg = replace(CFG, hot_df_ratio=1.1, n_buckets=32)
    build_index(pages_1k, out, cfg)
    assert read_json(out / "hot_terms.json")["hot_terms"] == []
    eng = SearchEngine(out)
    for q in generate_queries(20, seed=42).to_pylist():
        assert eng.topk(q["query"], q["k"]) == oracle_1k.topk(q["query"], q["k"])


def test_salting_engages_on_hot_term(ray_session, pages_1k, tmp_path):
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from gxdindexer_ray.pipelines import build_index

    out = tmp_path / "salted"
    build_index(pages_1k, out, replace(CFG, n_buckets=32))  # 32 shards per hot term
    hot = read_json(out / "hot_terms.json")["hot_terms"]
    assert HOT_TERM in hot
    seg = pads.dataset(str(out / "segments"), format="parquet").to_table(
        filter=pc.field("term") == HOT_TERM, columns=["term", "shard"]
    )
    assert seg.num_rows > 1  # hot term split across doc-range shards


def test_resume_with_leftover_partials_tmp(ray_session, pages_1k, tmp_path):
    """A crash mid-P3 leaves a .partials.tmp directory; the rerun must
    clear it and produce correct segments."""
    from gxdindexer_ray.pipelines import build_index

    out = tmp_path / "ix"
    build_index(pages_1k, out, CFG)
    ref = _segment_bytes(out)

    shutil.rmtree(out / "segments")
    (out / "_manifests" / "phase-segments.json").unlink()
    junk = out / ".partials.tmp" / "bucket=00001"
    junk.mkdir(parents=True)
    (junk / "part-stale.parquet").write_bytes(b"not parquet at all")

    build_index(pages_1k, out, CFG)
    assert _segment_bytes(out) == ref
    assert not (out / ".partials.tmp").exists()


def test_rebuild_with_fewer_buckets_leaves_no_stale_segments(ray_session, pages_1k, tmp_path):
    """Rebuilding into the same out_dir with a smaller n_buckets must not
    leave the old run's extra bucket files behind (they would silently
    inflate df/cf for every term the reader merges across segment files)."""
    from gxdindexer_ray.pipelines import build_index

    out = tmp_path / "ix"
    build_index(pages_1k, out, replace(CFG, n_buckets=8))
    assert len(list((out / "segments").glob("*.parquet"))) == 8

    build_index(pages_1k, out, replace(CFG, n_buckets=4))
    names = sorted(f.name for f in (out / "segments").glob("*.parquet"))
    assert len(names) == 4, f"stale segment files survived the rebuild: {names}"

    # df totals must equal a fresh 4-bucket build (no inflation)
    fresh = tmp_path / "fresh"
    build_index(pages_1k, fresh, replace(CFG, n_buckets=4))
    assert _segment_bytes(out) == _segment_bytes(fresh)


def test_auto_n_buckets_matches_fixed_at_small_n(ray_session, pages_1k, tmp_path):
    """n_buckets=0 (auto) resolves from corpus size: 1k docs get one
    bucket, so one shard per term, no P2 scan and an empty hot set, and
    segments byte-identical to the explicit one-bucket build (the auto
    resolution is content-derived, never parallelism-derived)."""
    from gxdindexer_ray.pipelines import build_index

    a = tmp_path / "auto"
    b = tmp_path / "fixed"
    m = build_index(pages_1k, a, replace(CFG, n_buckets=0))
    build_index(pages_1k, b, replace(CFG, n_buckets=1))
    sa, sb = _segment_bytes(a), _segment_bytes(b)
    assert sa == sb and len(sa) == 1
    for out in (a, b):
        assert read_json(out / "hot_terms.json") == {"hot_terms": [], "sampled_docs": 0}
    assert (m["n_buckets"], m["n_shards"], m["n_hot_terms"]) == (1, 1, 0)
    assert m["phases"]["hotterms"] == 0.0


def _floor32_layout(n_docs: int) -> tuple[int, int]:
    """The auto layout before small generations got fewer buckets: a
    floor of 32 buckets and 32 shards per hot term at every N."""
    eff = 32
    while eff < 4096 and n_docs / eff > 31_250:
        eff *= 2
    return eff, 5


@pytest.mark.parametrize("n_docs,n_buckets,expected", [
    (0, 0, (1, 0)), (440, 0, (1, 0)), (4_096, 0, (1, 0)), (4_097, 0, (2, 1)),
    (65_536, 0, (16, 4)), (65_537, 0, (32, 5)), (2_000_000, 0, (64, 5)),
    (10**9, 0, (4096, 5)), (10**9, 8, (8, 3)), (440, 8, (8, 3)),
    (440, 32, (32, 5)), (440, 1, (1, 0)),
])
def test_segment_layout_table(n_docs, n_buckets, expected):
    from gxdindexer_ray.config import segment_layout

    assert segment_layout(n_docs, replace(CFG, n_buckets=n_buckets)) == expected


def test_segment_layout_above_65536_docs_is_the_floor32_layout():
    """Every N > 65,536 keeps the former auto layout, so those builds stay
    byte-identical: a grid around every bucket-doubling boundary."""
    from gxdindexer_ray.config import segment_layout

    grid = set(range(65_537, 70_000, 97))
    for k in range(17, 40):
        grid.update((2**k - 1, 2**k, 2**k + 1))
    for k in range(1, 9):
        grid.update((31_250 * 2**k - 1, 31_250 * 2**k, 31_250 * 2**k + 1))
    grid.update((10**6, 2 * 10**6, 10**12))
    for n in sorted(g for g in grid if g > 65_536):
        assert segment_layout(n, CFG) == _floor32_layout(n), n


def test_schema_validation_fails_fast(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from gxdindexer_ray.pipelines import build_index

    bad = tmp_path / "bad"
    bad.mkdir()
    pq.write_table(pa.table({"url": ["a"], "body": ["x"]}), bad / "p.parquet")
    with pytest.raises(ValueError, match="schema mismatch"):
        build_index(bad, tmp_path / "out", CFG)


def test_positional_segments_invariant_to_batching(ray_session, pages_1k, tmp_path):
    """Position streams must also be invariant to partial granularity."""
    from gxdindexer_ray.pipelines import build_index

    cfg = replace(CFG, store_positions=True)
    a, b = tmp_path / "pa", tmp_path / "pb"
    build_index(pages_1k, a, replace(cfg, spimi_batch_size=256))
    build_index(pages_1k, b, replace(cfg, spimi_batch_size=3000))
    sa, sb = _segment_bytes(a), _segment_bytes(b)
    assert sa.keys() == sb.keys()
    for name in sa:
        assert sa[name] == sb[name], f"positional segment {name} differs"


def test_merge_slot_split_preserves_index(ray_session, pages_1k, tmp_path, oracle_1k):
    """A tiny merge_max_postings forces the term-hash slot split; the
    resulting multi-file-per-bucket index must serve identical stats and
    rankings (the split is layout-only, keyed on content-invariant
    posting counts)."""
    from gxdindexer_ray.fixtures import generate_queries
    from gxdindexer_ray.pipelines import SearchEngine, build_index

    out = tmp_path / "split"
    cfg = replace(CFG, merge_max_postings=2_000)  # ~60 slot files at 1k docs
    build_index(pages_1k, out, cfg)
    files = list((out / "segments").glob("*.parquet"))
    assert len(files) > 1, "slot split did not engage"  # auto: one bucket

    eng = SearchEngine(out)
    stats = oracle_1k.term_stats()
    got = eng.reader.term_stats()
    assert got == stats
    for q in generate_queries(15, seed=5).to_pylist():
        assert eng.topk(q["query"], q["k"]) == oracle_1k.topk(q["query"], q["k"])
