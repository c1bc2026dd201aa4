"""Incremental indexing (append generations + compact) vs full rebuild.

Gates: global stats and per-term (df, cf) identical to a from-scratch build
of the concatenated corpus; top-k rank- AND score-identical on both scorer
paths (brute and block-max WAND, whose bounds are rescaled per generation);
cross-generation first-wins dedup; compaction restores the byte-identical
single-build segment layout for dedup-free corpora."""

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from gxdindexer_ray.config import IndexConfig
from gxdindexer_ray.fixtures import generate_pages, generate_queries
from gxdindexer_ray.state.manifest import read_json

CFG = IndexConfig()


def _split_corpus(src: Path, dst_a: Path, dst_b: Path, n_a: int) -> None:
    tbl = pa.concat_tables([pq.read_table(f) for f in sorted(src.glob("*.parquet"))])
    dst_a.mkdir(parents=True, exist_ok=True)
    dst_b.mkdir(parents=True, exist_ok=True)
    pq.write_table(tbl.slice(0, n_a), dst_a / "part-0.parquet")
    pq.write_table(tbl.slice(n_a), dst_b / "part-0.parquet")


@pytest.fixture(scope="module")
def corpora(ray_session, tmp_path_factory):
    """full corpus C (1500 docs) split into disjoint A (1000) + B (500)."""
    root = tmp_path_factory.mktemp("inc")
    full = generate_pages(root / "full", 1500, seed=7)
    a, b = root / "a", root / "b"
    _split_corpus(Path(full), a, b, 1000)
    return str(a), str(b), str(full), root


@pytest.fixture(scope="module")
def appended_and_ref(corpora):
    """idx = build(A) + append(B); ref = build(A+B) from scratch."""
    from gxdindexer_ray.pipelines import append_index, build_index

    a, b, full, root = corpora
    idx = root / "idx"
    ref = root / "ref"
    build_index(a, idx, CFG)
    m = append_index(b, idx, CFG)
    build_index(full, ref, CFG)
    return idx, ref, m


def test_append_global_stats_match_full_rebuild(appended_and_ref):
    from gxdindexer_ray.index.layout import open_index

    idx, ref, m = appended_and_ref
    gi = open_index(idx).stats
    gr = read_json(Path(ref) / "stats.json")
    assert gi["N"] == gr["N"]
    assert gi["total_dl"] == gr["total_dl"]
    assert gi["avgdl"] == gr["avgdl"]
    assert m["generation"] == "gen-0001"
    assert (Path(idx) / "gen-0001" / "segments").exists()


def test_append_term_stats_match_full_rebuild(appended_and_ref):
    from gxdindexer_ray.index.reader import IndexReader

    idx, ref, _ = appended_and_ref
    ti = IndexReader(idx, warm_top_terms=0).term_stats()
    tr = IndexReader(ref, warm_top_terms=0).term_stats()
    assert ti == tr


def test_append_topk_identical_both_scorers(appended_and_ref):
    from gxdindexer_ray.pipelines import SearchEngine

    idx, ref, _ = appended_and_ref
    ei = SearchEngine(idx, warm_top_terms=0)
    er = SearchEngine(ref, warm_top_terms=0)
    for q in generate_queries(40, seed=3).to_pylist():
        for method in ("brute", "bmw"):
            hi = ei.topk(q["query"], q["k"], method)
            hr = er.topk(q["query"], q["k"], method)
            assert hi == hr, (q["query"], method)


def test_mixed_layout_lifecycle(corpora, tmp_path):
    """An index built with a sharded layout stays readable and appendable
    without a format version: a 32-bucket base (hot terms in 32 shards)
    plus an auto-layout delta (one unsharded bucket) plus a tombstone
    answers like the oracle on every scorer path, and compaction leaves
    the auto layout."""
    from dataclasses import replace

    import pyarrow.compute as pc

    from gxdindexer_ray.fixtures.pages import HOT_TERM, vocabulary
    from gxdindexer_ray.index.docid import doc_id_of
    from gxdindexer_ray.oracle import OracleIndex
    from gxdindexer_ray.pipelines import (SearchEngine, append_index, build_index,
                                          compact_index, delete_docs)
    from gxdindexer_ray.pipelines.search import DocFilter
    from gxdindexer_ray.text.tokenize import tokenize

    a, b, full, _ = corpora
    idx = tmp_path / "mixed"
    assert build_index(a, idx, replace(CFG, n_buckets=32))["n_shards"] == 32
    m = append_index(b, idx, CFG)
    assert (m["n_buckets"], m["n_shards"], m["n_hot_terms"]) == (1, 1, 0)
    assert len(list((idx / "segments").glob("*.parquet"))) == 32
    assert len(list((idx / "gen-0001" / "segments").glob("*.parquet"))) == 1
    assert HOT_TERM in read_json(idx / "hot_terms.json")["hot_terms"]

    oracle = OracleIndex.build_from_pages(full)
    victim = oracle.topk(HOT_TERM, 1)[0][0]
    delete_docs(idx, [victim])
    common = vocabulary(7)[:3]
    queries = [HOT_TERM, f"{HOT_TERM} {common[0]}"] + [
        q["query"] for q in generate_queries(15, seed=3).to_pylist()]
    phrases = [" ".join(tokenize(t)[2:4]) for t in list(oracle.text_by_url.values())[::300]]
    flt = DocFilter("dl>=40", ["dl"], lambda t: pc.greater_equal(t["dl"], 40))

    def check(eng, ix, dead):
        def want(hits, k=10):  # tombstoned docs count in N and df until compaction
            return [h for h in hits if h[0] not in dead][:k]

        for q in queries:
            for method in ("brute", "bmw"):
                assert eng.topk(q, 10, method) == want(ix.topk(q, ix.N)), (q, method)
        for must in ([HOT_TERM, common[0]], [common[0], common[1]]):
            assert eng.boolean_topk(must, 10) == want(ix.boolean_topk(must, ix.N)), must
        for ph in phrases:
            exp = want(ix.phrase_topk(ph, ix.N))
            assert exp and eng.phrase_topk(ph, 10) == exp, ph
        exp = [h for h in want(ix.topk(HOT_TERM, ix.N), ix.N) if ix.docs[h[0]][1] >= 40][:10]
        assert exp and eng.filtered_topk(HOT_TERM, 10, doc_filter=flt) == exp

    check(SearchEngine(idx, warm_top_terms=0), oracle, {victim})

    mc = compact_index(idx, CFG)
    assert (mc["n_buckets"], mc["n_shards"], mc["n_hot_terms"]) == (1, 1, 0)
    assert len(list((idx / "segments").glob("*.parquet"))) == 1
    pages = pa.concat_tables(pq.read_table(f) for f in sorted(Path(full).glob("*.parquet")))
    compacted = OracleIndex.build_from_rows(
        (u, ts, h) for u, ts, h in zip(pages["url"].to_pylist(),
                                       pages["warc_ts"].cast(pa.int64()).to_pylist(),
                                       pages["html"].to_pylist())
        if doc_id_of(u) != victim)
    engc = SearchEngine(idx, warm_top_terms=0)
    assert engc.reader.N == compacted.N == oracle.N - 1
    check(engc, compacted, set())


def test_append_dedups_across_generations(corpora, tmp_path):
    """A delta that re-crawls docs already owned by the base: the base copy
    wins (first-wins across generations), matching a from-scratch build of
    the concatenation when the re-crawl carries later timestamps."""
    from gxdindexer_ray.pipelines import append_index, build_index
    from gxdindexer_ray.index.layout import open_index
    from gxdindexer_ray.index.reader import IndexReader

    a, b, full, _ = corpora
    # delta B' = all of B plus 200 of A's docs re-stamped one day later
    ta = pa.concat_tables([pq.read_table(f) for f in sorted(Path(a).glob("*.parquet"))])
    tb = pa.concat_tables([pq.read_table(f) for f in sorted(Path(b).glob("*.parquet"))])
    recrawl = ta.slice(0, 200).set_column(
        ta.schema.get_field_index("warc_ts"),
        "warc_ts",
        pa.compute.add(ta.slice(0, 200)["warc_ts"], pa.scalar(86_400_000_000, pa.duration("us"))),
    ).cast(tb.schema)
    bprime = tmp_path / "bprime"
    bprime.mkdir()
    pq.write_table(pa.concat_tables([tb, recrawl]).combine_chunks(),
                   bprime / "part-0.parquet")
    comb = tmp_path / "comb"
    comb.mkdir()
    pq.write_table(ta, comb / "a.parquet")
    pq.write_table(pa.concat_tables([tb, recrawl]).combine_chunks(), comb / "b.parquet")

    idx = tmp_path / "idx2"
    ref = tmp_path / "ref2"
    build_index(a, idx, CFG)
    m = append_index(bprime, idx, CFG)
    build_index(comb, ref, CFG)

    base_n = read_json(idx / "stats.json")["N"]  # < 1000: fixture plants dup urls
    assert m["excluded_prior_docs"] == base_n
    gi = open_index(idx).stats
    gr = read_json(ref / "stats.json")
    assert gi["N"] == gr["N"]
    assert gi["total_dl"] == gr["total_dl"]
    assert IndexReader(idx, warm_top_terms=0).term_stats() == \
        IndexReader(ref, warm_top_terms=0).term_stats()


def test_append_exchange_exclusion_matches_broadcast(ray_session, corpora, tmp_path,
                                                    monkeypatch):
    """The exchange exclusion path (prior ids co-partitioned through the
    dedup key exchange as always-win sentinel rows — the O(1)-driver-memory
    scale path, forced here by lowering EXCHANGE_EXCLUSION_THRESHOLD) must
    produce an index identical to the broadcast path, including when the
    delta re-crawls docs the base already owns."""
    from gxdindexer_ray.index.layout import open_index
    from gxdindexer_ray.index.reader import IndexReader
    from gxdindexer_ray.pipelines import append_index, build_index, incremental

    a, b, full, _ = corpora
    ta = pa.concat_tables([pq.read_table(f) for f in sorted(Path(a).glob("*.parquet"))])
    tb = pa.concat_tables([pq.read_table(f) for f in sorted(Path(b).glob("*.parquet"))])
    recrawl = ta.slice(100, 150).set_column(
        ta.schema.get_field_index("warc_ts"),
        "warc_ts",
        pa.compute.add(ta.slice(100, 150)["warc_ts"],
                       pa.scalar(86_400_000_000, pa.duration("us"))),
    ).cast(tb.schema)
    bprime = tmp_path / "bprime_x"
    bprime.mkdir()
    pq.write_table(pa.concat_tables([tb, recrawl]).combine_chunks(),
                   bprime / "part-0.parquet")

    idx_b, idx_x = tmp_path / "idx_bc", tmp_path / "idx_ex"
    build_index(a, idx_b, CFG)
    build_index(a, idx_x, CFG)
    m_b = append_index(bprime, idx_b, CFG)
    monkeypatch.setattr(incremental, "EXCHANGE_EXCLUSION_THRESHOLD", -1)
    m_x = append_index(bprime, idx_x, CFG)
    assert m_b["exclusion_mode"] == "broadcast"
    assert m_x["exclusion_mode"] == "exchange"
    assert m_b["excluded_prior_docs"] == m_x["excluded_prior_docs"] > 0

    gb, gx = open_index(idx_b).stats, open_index(idx_x).stats
    assert gb["N"] == gx["N"] and gb["total_dl"] == gx["total_dl"]
    assert IndexReader(idx_b, warm_top_terms=0).term_stats() == \
        IndexReader(idx_x, warm_top_terms=0).term_stats()
    # the delta generation's segment artifacts are byte-identical
    sb = sorted((idx_b / "gen-0001" / "segments").glob("*.parquet"))
    sx = sorted((idx_x / "gen-0001" / "segments").glob("*.parquet"))
    assert [p.name for p in sb] == [p.name for p in sx]
    assert all(x.read_bytes() == y.read_bytes() for x, y in zip(sb, sx))


def test_append_exchange_respects_tombstones(ray_session, tmp_path, monkeypatch):
    """A tombstoned doc must be re-addable on the exchange exclusion path:
    the dead-id filter runs inside the prior-keys map, so the sentinel row
    for a deleted doc never enters the exchange."""
    from gxdindexer_ray.pipelines import SearchEngine, append_index, build_index, incremental
    from gxdindexer_ray.pipelines.incremental import delete_docs

    docs = [(f"https://t.example/{i}", f"tango{i % 5} uniform") for i in range(40)]
    base = tmp_path / "base"
    _mini_corpus(base, docs)
    idx = tmp_path / "idx_xt"
    build_index(base, idx, CFG)
    eng = SearchEngine(idx, warm_top_terms=0)
    victim = eng.topk("tango1", 1, "brute")[0][0]
    delete_docs(idx, [victim])
    # fresh copy of the deleted doc, later timestamp + changed body
    redo = tmp_path / "redo"
    _mini_corpus(redo, [(u, body + " redo") for u, body in docs
                        if body.startswith("tango1")],
                 ts0=1_700_000_000_000_000)
    monkeypatch.setattr(incremental, "EXCHANGE_EXCLUSION_THRESHOLD", -1)
    m = append_index(redo, idx, CFG)
    assert m["exclusion_mode"] == "exchange"
    # ONLY the tombstoned doc is re-addable: the other tango1 re-crawls are
    # still owned by the live base copies and lose (first-wins). "redo"
    # exists only in the new generation, so exactly one hit — the victim's
    # url (same doc_id, fresh content).
    hits = SearchEngine(idx, warm_top_terms=0).topk("redo", 10, "brute")
    assert [h for h, _ in hits] == [victim]


def test_compact_restores_single_build_layout(appended_and_ref, corpora):
    from gxdindexer_ray.pipelines import compact_index

    idx, ref, _ = appended_and_ref
    compact_index(idx, CFG)
    assert not (Path(idx) / "generations.json").exists()
    assert not (Path(idx) / "gen-0001").exists()
    si = {f.name: f.read_bytes() for f in sorted((Path(idx) / "segments").glob("*.parquet"))}
    sr = {f.name: f.read_bytes() for f in sorted((Path(ref) / "segments").glob("*.parquet"))}
    assert si.keys() == sr.keys()
    for name in si:
        assert si[name] == sr[name], f"segment {name} differs from full rebuild"
    assert read_json(Path(idx) / "stats.json") == read_json(Path(ref) / "stats.json")


def test_compact_crash_window_recovers(ray_session, corpora, tmp_path):
    """Worst-case mid-compaction crash: generation docstores already folded
    in, generation dirs and generations.json already gone, but stats.json
    still base-only and segments stale. Re-running compact must converge —
    it derives every artifact from the consolidated docstore on disk, not
    from the (now deleted) generation manifests."""
    import shutil

    from gxdindexer_ray.pipelines import SearchEngine, append_index, build_index, compact_index

    a, b, full, _ = corpora
    idx = tmp_path / "crash"
    ref = tmp_path / "crashref"
    build_index(a, idx, CFG)
    append_index(b, idx, CFG)
    build_index(full, ref, CFG)
    # simulate the crash window by hand (mirrors compact's move step)
    g = idx / "gen-0001"
    for f in sorted((g / "docs").glob("*.parquet")):
        f.rename(idx / "docs" / f"gen-0001-{f.name}")
    shutil.rmtree(g)
    (idx / "generations.json").unlink()
    # stats.json is now stale (base-only) and segments cover the base only
    compact_index(idx, CFG)
    assert read_json(idx / "stats.json") == read_json(ref / "stats.json")
    ei = SearchEngine(idx, warm_top_terms=0)
    er = SearchEngine(ref, warm_top_terms=0)
    for q in generate_queries(15, seed=4).to_pylist():
        assert ei.topk(q["query"], q["k"], "brute") == er.topk(q["query"], q["k"], "brute")


def test_compacting_marker_blocks_reads(ray_session, corpora, tmp_path):
    """ADVICE r2: a crash inside compaction's destructive window must leave
    the index LOUDLY unreadable (compacting.json marker), not silently
    missing the delta docs. compact_index clears the marker on success."""
    from gxdindexer_ray.index.layout import open_index
    from gxdindexer_ray.index.reader import build_lexicon
    from gxdindexer_ray.pipelines import append_index, build_index, compact_index

    a, b, _, _ = corpora
    idx = tmp_path / "mark"
    build_index(a, idx, CFG)
    append_index(b, idx, CFG)
    # simulate a crash right after compact wrote its marker
    (idx / "compacting.json").write_text('{"started_at": 0}')
    with pytest.raises(RuntimeError, match="compaction"):
        open_index(idx)
    with pytest.raises(RuntimeError, match="compaction"):
        build_lexicon(idx)
    # re-running compact converges and clears the marker
    compact_index(idx, CFG)
    assert not (idx / "compacting.json").exists()
    assert open_index(idx).stats["N"] > 0


def test_append_after_compact_cycle(ray_session, corpora, tmp_path):
    """Full lifecycle: build -> append -> compact -> append again. The
    second append must see the compacted corpus as its base (its docs are
    excluded) and the reader must span the new generation."""
    from gxdindexer_ray.index.layout import open_index
    from gxdindexer_ray.pipelines import (SearchEngine, append_index,
                                          build_index, compact_index)

    a, b, full, _ = corpora
    idx = tmp_path / "cyc"
    build_index(a, idx, CFG)
    append_index(b, idx, CFG)
    compact_index(idx, CFG)
    n_after_compact = open_index(idx).stats["N"]
    # third corpus: 100 fresh docs
    docs = [(f"https://cycle.example/{i}", f"cycle{i % 7} zulu probe") for i in range(100)]
    c = tmp_path / "c"
    _mini_corpus(c, docs)
    m = append_index(c, idx, CFG)
    assert m["excluded_prior_docs"] == n_after_compact
    g = open_index(idx).stats
    assert g["N"] == n_after_compact + 100
    eng = SearchEngine(idx, warm_top_terms=0)
    hits = eng.topk("zulu", 10, "bmw")
    assert len(hits) == 10  # the post-compact generation is queryable


def _mini_corpus(path: Path, docs: list[tuple[str, str]], ts0: int = 1_600_000_000_000_000):
    """Hand-built pages corpus: (url, body words) pairs."""
    path.mkdir(parents=True, exist_ok=True)
    html = [f"<html><body>{body}</body></html>".encode() for _, body in docs]
    tbl = pa.table({
        "url": pa.array([u for u, _ in docs], pa.string()),
        "warc_ts": pa.array([ts0 + i for i in range(len(docs))], pa.timestamp("us")),
        "html": pa.array(html, pa.binary()),
        "text": pa.array([None] * len(docs), pa.string()),
        "lang": pa.array(["en"] * len(docs), pa.string()),
    })
    pq.write_table(tbl, path / "part-0.parquet")


def test_wand_bounds_stay_safe_when_global_avgdl_grows(ray_session, tmp_path):
    """Adversarial avgdl drift: base = long docs (large avgdl), delta =
    short docs whose stored block-max bounds were encoded at a much smaller
    generation avgdl. Under the GLOBAL avgdl every true score of the short
    docs exceeds its stored bound — without the per-generation rescale,
    WAND would prune them and lose top-k hits. Gate: bmw == brute."""
    from gxdindexer_ray.pipelines import SearchEngine, append_index, build_index

    rng = np.random.default_rng(5)
    filler = [f"w{i}" for i in range(50)]
    long_docs = [
        (f"https://long.example/{i}",
         " ".join(rng.choice(filler, size=300).tolist()) + " zebra")
        for i in range(60)
    ]
    short_docs = [(f"https://short.example/{i}", "zebra quick") for i in range(40)]
    base, delta = tmp_path / "base", tmp_path / "delta"
    _mini_corpus(base, long_docs)
    _mini_corpus(delta, short_docs, ts0=1_700_000_000_000_000)
    idx = tmp_path / "idx"
    build_index(base, idx, CFG)
    append_index(delta, idx, CFG)
    eng = SearchEngine(idx, warm_top_terms=0)
    assert eng.reader.avgdl > 100  # global avgdl dominated by the long docs
    for q, k in (("zebra", 20), ("zebra quick", 10), ("quick", 50)):
        assert eng.topk(q, k, "bmw") == eng.topk(q, k, "brute"), q
    # the short docs (tiny dl -> huge tf factor under global avgdl) must top
    # the ranking for their term
    top = eng.topk("quick", 5, "bmw")
    assert len(top) == 5 and all(s > 0 for _, s in top)


def test_positional_append_and_mismatch_guard(ray_session, tmp_path):
    """Positional generations: phrase matching stays index-resident across
    an append; a non-positional delta on a positional base is refused."""
    from dataclasses import replace

    from gxdindexer_ray.pipelines import SearchEngine, append_index, build_index

    base_docs = [(f"https://p.example/{i}", "alpha beta gamma filler") for i in range(30)]
    delta_docs = [(f"https://q.example/{i}", "gamma alpha beta") for i in range(20)]
    base, delta = tmp_path / "pb", tmp_path / "pd"
    _mini_corpus(base, base_docs)
    _mini_corpus(delta, delta_docs, ts0=1_700_000_000_000_000)
    idx = tmp_path / "pidx"
    pos_cfg = replace(CFG, store_positions=True)
    build_index(base, idx, pos_cfg)
    with pytest.raises(ValueError, match="store_positions"):
        append_index(delta, idx, CFG)  # non-positional delta refused
    append_index(delta, idx, pos_cfg)
    eng = SearchEngine(idx, warm_top_terms=0)
    hits = eng.phrase_topk("alpha beta", 50)
    assert len(hits) == 50  # both generations match the phrase


def test_cli_append_compact(ray_session, corpora, tmp_path):
    from gxdindexer_ray.__main__ import main
    from gxdindexer_ray.pipelines import build_index

    a, b, _, _ = corpora
    idx = tmp_path / "cliidx"
    build_index(a, idx, CFG)
    assert main(["append", "--pages", b, "--index", str(idx)]) == 0
    assert (idx / "generations.json").exists()
    assert main(["compact", "--index", str(idx)]) == 0
    assert not (idx / "generations.json").exists()


def test_tombstone_delete_lifecycle(ray_session, tmp_path):
    """Tombstone deletes (takedowns without rebuild): delete -> every query
    path excludes the docs (bmw == brute, phrase too) -> compact drops them
    physically and the segments are byte-identical to a from-scratch build
    of the corpus without the deleted docs."""
    from gxdindexer_ray.index.docid import doc_id_of
    from gxdindexer_ray.index.layout import open_index
    from gxdindexer_ray.pipelines import (SearchEngine, append_index, build_index,
                                          compact_index, delete_docs)

    base_docs = [(f"https://d.example/{i}", f"zebra common{i % 5} filler{i}")
                 for i in range(40)]
    delta_docs = [(f"https://e.example/{i}", f"zebra common{i % 5} extra{i}")
                  for i in range(20)]
    base, delta = tmp_path / "tb", tmp_path / "td"
    _mini_corpus(base, base_docs)
    _mini_corpus(delta, delta_docs, ts0=1_700_000_000_000_000)
    idx = tmp_path / "tidx"
    build_index(base, idx, CFG)
    append_index(delta, idx, CFG)

    before = {d for d, _ in SearchEngine(idx, warm_top_terms=0).topk("zebra", 100, "brute")}
    dels = {doc_id_of("https://d.example/3"), doc_id_of("https://e.example/7")}
    m = delete_docs(idx, list(dels))
    assert m["n_tombstoned"] == 2

    eng = SearchEngine(idx, warm_top_terms=0)
    brute = eng.topk("zebra", 100, "brute")
    bmw = eng.topk("zebra", 100, "bmw")
    assert bmw == brute  # WAND stays exact over masked postings
    after = {d for d, _ in brute}
    assert after == before - dels
    ph = {d for d, _ in eng.phrase_topk("zebra common3", 50)}
    assert doc_id_of("https://d.example/3") not in ph and ph

    compact_index(idx, CFG)
    assert not (idx / "tombstones").exists()
    assert open_index(idx).stats["N"] == 58

    keep = ([d for d in base_docs if d[0] != "https://d.example/3"]
            + [d for d in delta_docs if d[0] != "https://e.example/7"])
    refc = tmp_path / "trefc"
    _mini_corpus(refc, keep)
    ref = tmp_path / "tref"
    build_index(refc, ref, CFG)
    si = {f.name: f.read_bytes() for f in sorted((idx / "segments").glob("*.parquet"))}
    sr = {f.name: f.read_bytes() for f in sorted((ref / "segments").glob("*.parquet"))}
    assert si.keys() == sr.keys()
    for name in si:
        assert si[name] == sr[name], f"segment {name} differs from delete-free rebuild"


def test_delete_then_reappend_serves_new_copy(ray_session, tmp_path):
    """A tombstone kills only PRIOR occurrences: re-appending the same url
    after a delete serves the fresh copy from the new generation; deleting
    again kills that one too; compaction converges."""
    from gxdindexer_ray.index.docid import doc_id_of
    from gxdindexer_ray.index.layout import open_index
    from gxdindexer_ray.pipelines import (SearchEngine, append_index, build_index,
                                          compact_index, delete_docs)

    docs = [(f"https://r.example/{i}", f"kiwi word{i}") for i in range(20)]
    base = tmp_path / "rb"
    _mini_corpus(base, docs)
    idx = tmp_path / "ridx"
    build_index(base, idx, CFG)
    x = doc_id_of("https://r.example/5")
    delete_docs(idx, [x])
    assert x not in {d for d, _ in SearchEngine(idx, warm_top_terms=0).topk("kiwi", 50)}

    readd = tmp_path / "rreadd"
    _mini_corpus(readd, [("https://r.example/5", "kiwi freshword")],
                 ts0=1_700_000_000_000_000)
    m = append_index(readd, idx, CFG)
    assert m["excluded_prior_docs"] == 19  # the tombstoned doc is re-addable
    eng = SearchEngine(idx, warm_top_terms=0)
    assert x in {d for d, _ in eng.topk("kiwi", 50)}
    assert {d for d, _ in eng.topk("freshword", 5)} == {x}

    delete_docs(idx, [x])  # covers the new generation now
    assert x not in {d for d, _ in SearchEngine(idx, warm_top_terms=0).topk("kiwi", 50)}
    compact_index(idx, CFG)
    assert open_index(idx).stats["N"] == 19


def test_cli_delete(ray_session, tmp_path):
    from gxdindexer_ray.__main__ import main
    from gxdindexer_ray.index.docid import doc_id_of
    from gxdindexer_ray.pipelines import SearchEngine, build_index

    docs = [(f"https://c.example/{i}", f"mango word{i}") for i in range(10)]
    base = tmp_path / "cb"
    _mini_corpus(base, docs)
    idx = tmp_path / "cidx"
    build_index(base, idx, CFG)
    assert main(["delete", "--index", str(idx), "--urls", "https://c.example/4"]) == 0
    assert doc_id_of("https://c.example/4") not in {
        d for d, _ in SearchEngine(idx, warm_top_terms=0).topk("mango", 20)}


def test_serving_features_across_generations(ray_session, tmp_path):
    """fq filters / facets / collapse on a multi-generation index with a
    delete + re-add (same doc_id alive in a NEW generation, its stale row
    still on disk in the base): metadata precedence is the live row, facet
    counts don't double-count, the stale row can't admit/veto the doc in a
    filter docset — and everything equals the compacted index."""
    import pyarrow.compute as pc

    from gxdindexer_ray.index.docid import doc_id_of
    from gxdindexer_ray.pipelines import (SearchEngine, append_index, build_index,
                                          compact_index, delete_docs)
    from gxdindexer_ray.pipelines.search import DocFilter

    docs = [(f"https://s.example/{i}",
             "papaya " + " ".join(f"w{j}" for j in range(i % 4)))
            for i in range(30)]
    base = tmp_path / "sb"
    _mini_corpus(base, docs)
    idx = tmp_path / "sidx"
    build_index(base, idx, CFG)
    x = doc_id_of("https://s.example/5")
    delete_docs(idx, [x])
    readd = tmp_path / "sre"
    # re-added with a much longer body -> different dl than the stale row
    _mini_corpus(readd,
                 [("https://s.example/5",
                   "papaya " + " ".join(f"z{j}" for j in range(20)))],
                 ts0=1_700_000_000_000_000)
    append_index(readd, idx, CFG)

    flt = DocFilter("dl>=10", ["dl"], lambda t: pc.greater_equal(t["dl"], 10))
    eng = SearchEngine(idx, warm_top_terms=0)
    live = eng.facet_counts("papaya", "dl")
    got_f = eng.filtered_topk("papaya", 50, doc_filter=flt)
    got_c = eng.collapse_topk("papaya", 5, "dl")

    counts = dict(zip(live["value"].to_pylist(), live["n_docs"].to_pylist()))
    assert counts.get(21) == 1          # counted once, under its NEW dl
    assert sum(counts.values()) == 30   # 29 base survivors + the re-add
    assert {d for d, _ in got_f} == {x}  # only the re-add passes dl>=10

    # the DISTRIBUTED docset path applies the same per-generation
    # tombstone rule (ships dead arrays to the tasks)
    import numpy as np

    from gxdindexer_ray.pipelines.search import build_filter_docset

    local = build_filter_docset(idx, flt, dist_min_bytes=1 << 60)
    dist = build_filter_docset(idx, flt, dist_min_bytes=0)
    assert np.array_equal(local, dist)

    compact_index(idx, CFG)
    engc = SearchEngine(idx, warm_top_terms=0)
    assert engc.facet_counts("papaya", "dl").to_pylist() == live.to_pylist()
    # doc identity is compaction-invariant; SCORES legitimately drift, as in
    # Lucene: tombstoned docs keep counting in N/avgdl/df until compaction
    assert [d for d, _ in engc.filtered_topk("papaya", 50, doc_filter=flt)] \
        == [d for d, _ in got_f]
    assert [(v, d) for v, d, _t, _s in engc.collapse_topk("papaya", 5, "dl")] \
        == [(v, d) for v, d, _t, _s in got_c]


@pytest.mark.parametrize("case", ["reappend_broadcast", "reappend_exchange",
                                  "filtered_no_match", "compact_all_deleted",
                                  "zero_tokens"])
def test_empty_corpus_lifecycle(ray_session, tmp_path, monkeypatch, case):
    """Every lifecycle entry point must handle a step that leaves nothing
    to index: a re-append of pages the index already owns (both exclusion
    paths), a filtered build whose predicate matches no doc, a
    compaction after every doc was tombstoned, and a build whose pages
    are all punctuation (N docs, zero postings). The result opens in a
    SearchEngine and answers like the oracle."""
    import pyarrow.compute as pc

    from gxdindexer_ray.index.docid import doc_id_of
    from gxdindexer_ray.oracle import OracleIndex
    from gxdindexer_ray.pipelines import (SearchEngine, append_index, build_index,
                                          compact_index, delete_docs, incremental)
    from gxdindexer_ray.pipelines.build import build_filtered_index

    docs = [(f"https://z.example/{i}",
             "!!! ... ---" if case == "zero_tokens" else f"yankee{i % 3} xray")
            for i in range(30)]
    base = tmp_path / "base"
    _mini_corpus(base, docs)
    idx = tmp_path / "idx"
    build_index(base, idx, CFG)
    out, oracle = idx, OracleIndex.build_from_rows([])
    if case == "zero_tokens":
        oracle = OracleIndex.build_from_pages(base)
    elif case.startswith("reappend"):
        mode = case.split("_")[1]
        if mode == "exchange":
            monkeypatch.setattr(incremental, "EXCHANGE_EXCLUSION_THRESHOLD", -1)
        m = append_index(base, idx, CFG)
        assert m["exclusion_mode"] == mode
        assert m["excluded_prior_docs"] == len(docs)
        oracle = OracleIndex.build_from_pages(base)
    elif case == "filtered_no_match":
        out = tmp_path / "flt"
        build_filtered_index(idx, out, pc.field("dl") > 1000, CFG, predicate_tag="dl>1000")
    else:
        delete_docs(idx, [doc_id_of(u) for u, _ in docs])
        compact_index(idx, CFG)
        assert not (idx / "compacting.json").exists()
    eng = SearchEngine(out, warm_top_terms=0)
    n_live = 0 if case in ("filtered_no_match", "compact_all_deleted") else len(docs)
    assert eng.reader.N == oracle.N == n_live
    for q in ("yankee1", "xray", "yankee2 xray"):
        for method in ("brute", "bmw"):
            assert eng.topk(q, 10, method) == oracle.topk(q, 10), (q, method)


def test_docstore_paths_on_index_without_docstore(ray_session, tmp_path):
    """Every doc deleted, then compacted: no generation has a docstore
    file, and more_like_this and snippets_for return empty results (the
    docstore read is an empty table of the asked columns)."""
    from gxdindexer_ray.index.docid import doc_id_of
    from gxdindexer_ray.pipelines import SearchEngine, build_index, compact_index, delete_docs

    docs = [(f"https://m.example/{i}", f"quince word{i}") for i in range(10)]
    base = tmp_path / "mb"
    _mini_corpus(base, docs)
    idx = tmp_path / "midx"
    build_index(base, idx, CFG)
    x = doc_id_of(docs[0][0])
    assert SearchEngine(idx, warm_top_terms=0).snippets_for([x], ["quince"]) == {x: "quince word0"}
    delete_docs(idx, [doc_id_of(u) for u, _ in docs])
    compact_index(idx, CFG)

    eng = SearchEngine(idx, warm_top_terms=0)
    assert not eng.reader.state.docs
    assert eng.more_like_this(x) == []
    assert eng.snippets_for([x], ["quince"]) == {}
    meta = eng._meta_for([x], ["dl", "url"])
    assert meta.num_rows == 0
    assert meta.schema == pa.schema([("doc_id", pa.int64()), ("dl", pa.int64()),
                                     ("url", pa.string())])


def test_snapshot_engine_agrees_across_paths_after_delete(ray_session, tmp_path):
    """An engine answers from the snapshot it opened: a delete after the
    open is invisible to every path alike (topk on both scorers, boolean,
    docstore-verified phrase), and a reopened engine drops the victim from
    all four."""
    from gxdindexer_ray.pipelines import SearchEngine, build_index, delete_docs

    docs = [(f"https://v.example/{i}", f"victor{i % 4} whiskey xray{i}") for i in range(40)]
    base = tmp_path / "vb"
    _mini_corpus(base, docs)
    idx = tmp_path / "vidx"
    build_index(base, idx, CFG)

    def answers(eng):
        return [{d for d, _ in hits} for hits in (
            eng.topk("victor1", 40, "brute"), eng.topk("victor1", 40, "bmw"),
            eng.boolean_topk(["victor1", "whiskey"], 40),
            eng.phrase_topk("victor1 whiskey", 40))]

    old = SearchEngine(idx, warm_top_terms=0)
    victim = old.topk("victor1", 1, "brute")[0][0]
    delete_docs(idx, [victim])
    assert all(victim in s and len(s) == 10 for s in answers(old))
    assert all(victim not in s and len(s) == 9
               for s in answers(SearchEngine(idx, warm_top_terms=0)))


def test_snapshot_snippets_keep_old_text(ray_session, tmp_path):
    """An engine opened before a delete and re-append of doc x ranks x on
    its old text and shows that text in snippets, not the new
    generation's."""
    from gxdindexer_ray.index.docid import doc_id_of
    from gxdindexer_ray.pipelines import SearchEngine, append_index, build_index, delete_docs

    docs = [(f"https://n.example/{i}", f"kiwi oldword{i}") for i in range(20)]
    base = tmp_path / "nb"
    _mini_corpus(base, docs)
    idx = tmp_path / "nidx"
    build_index(base, idx, CFG)
    x = doc_id_of("https://n.example/5")
    old = SearchEngine(idx, warm_top_terms=0)
    delete_docs(idx, [x])
    readd = tmp_path / "nre"
    _mini_corpus(readd, [("https://n.example/5", "kiwi newword")], ts0=1_700_000_000_000_000)
    append_index(readd, idx, CFG)

    assert {d for d, _ in old.topk("oldword5", 5)} == {x}
    assert old.topk("newword", 5) == []
    assert old.snippets_for([x], ["kiwi"]) == {x: "kiwi oldword5"}
    assert SearchEngine(idx, warm_top_terms=0).snippets_for([x], ["kiwi"]) == {x: "kiwi newword"}


def test_filtered_index_spans_generations_and_tombstones(ray_session, tmp_path):
    """A match-all filtered build over a base, an appended generation and
    a tombstone indexes the live corpus: its N and (term, df, cf) lexicon
    equal a build over the live pages."""
    import pyarrow.compute as pc

    from gxdindexer_ray.index.docid import doc_id_of
    from gxdindexer_ray.index.reader import IndexReader
    from gxdindexer_ray.pipelines import append_index, build_index, delete_docs
    from gxdindexer_ray.pipelines.build import build_filtered_index

    base_docs = [(f"https://f.example/{i}", f"lima common{i % 3} base{i}") for i in range(40)]
    delta_docs = [(f"https://g.example/{i}", f"lima common{i % 3} delta{i}") for i in range(10)]
    base, delta = tmp_path / "fb", tmp_path / "fd"
    _mini_corpus(base, base_docs)
    _mini_corpus(delta, delta_docs, ts0=1_700_000_000_000_000)
    idx = tmp_path / "fidx"
    build_index(base, idx, CFG)
    append_index(delta, idx, CFG)
    delete_docs(idx, [doc_id_of("https://f.example/7")])

    out = tmp_path / "fall"
    build_filtered_index(idx, out, pc.field("dl") >= 0, CFG, predicate_tag="all")
    live = tmp_path / "flive"
    _mini_corpus(live, [d for d in base_docs if d[0] != "https://f.example/7"] + delta_docs)
    ref = tmp_path / "fref"
    build_index(live, ref, CFG)
    got, want = IndexReader(out, warm_top_terms=0), IndexReader(ref, warm_top_terms=0)
    assert got.N == want.N == 49
    assert got.term_stats() == want.term_stats()
