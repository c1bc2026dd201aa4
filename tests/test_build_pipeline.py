"""End-to-end Ray build vs the single-process oracle (SURVEY.md §5 gates):
(a) byte-identical extracted text per url, (b) identical (df, cf, postings)
per term, (c) rank-identical top-k docIDs and scores."""

from dataclasses import replace

import numpy as np
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from gxdindexer_ray.codecs.postings import decode_postings
from gxdindexer_ray.config import IndexConfig
from gxdindexer_ray.fixtures import generate_queries
from gxdindexer_ray.fixtures.pages import HOT_TERM

CFG = IndexConfig()


@pytest.fixture(scope="module")
def built(ray_session, pages_1k, tmp_path_factory):
    from gxdindexer_ray.pipelines import build_index

    out = tmp_path_factory.mktemp("index") / "ix1k"
    # 32 buckets pinned: the auto layout gives 1k docs one unsharded
    # bucket, and these tests exist to exercise the hot-term shard path
    metrics = build_index(pages_1k, out, replace(CFG, n_buckets=32))
    return out, metrics


def test_metrics_shape(built):
    _, m = built
    assert m["N"] > 900
    assert m["n_postings"] > 10_000
    assert m["bytes_shuffled"] > 0
    assert m["n_hot_terms"] >= 1
    assert (m["n_buckets"], m["n_shards"]) == (32, 32)


def test_text_byte_identical(built, oracle_1k):
    out, _ = built
    docs = pads.dataset(str(out / "docs"), format="parquet").to_table(columns=["url", "text"])
    got = dict(zip(docs["url"].to_pylist(), docs["text"].to_pylist()))
    assert len(got) == oracle_1k.N  # dedup collapsed to oracle's doc set
    for url, text in oracle_1k.text_by_url.items():
        assert got[url] == text, f"text mismatch for {url}"


def test_postings_identical(built, oracle_1k):
    out, _ = built
    seg = pads.dataset(str(out / "segments"), format="parquet").to_table()
    rows_by_term: dict[str, list[dict]] = {}
    for r in seg.to_pylist():
        rows_by_term.setdefault(r["term"], []).append(r)

    assert set(rows_by_term) == set(oracle_1k.postings)
    stats = oracle_1k.term_stats()
    hot_seen = 0
    for term, rows in rows_by_term.items():
        rows.sort(key=lambda r: r["shard"])
        if len(rows) > 1:
            hot_seen += 1
        got_df = sum(r["df"] for r in rows)
        got_cf = sum(r["cf"] for r in rows)
        assert (got_df, got_cf) == stats[term], term
        docs_all, tfs_all, dls_all = [], [], []
        for r in rows:
            pl = decode_postings(r, block_size=CFG.block_size)
            docs_all.append(pl.doc_ids)
            tfs_all.append(pl.tfs)
            dls_all.append(pl.dls)
        docs = np.concatenate(docs_all).astype(np.int64)
        tfs = np.concatenate(tfs_all)
        dls = np.concatenate(dls_all)
        # shard concatenation must already be globally ascending
        assert np.all(np.diff(docs) > 0), f"{term}: shard order broken"
        expected = oracle_1k.sorted_postings(term)
        assert docs.tolist() == [d for d, _, _ in expected], term
        assert tfs.tolist() == [t for _, t, _ in expected], term
        assert dls.tolist() == [l for _, _, l in expected], term
    assert hot_seen >= 1  # the zerg term must have gone through sharding


def test_stats_match(built, oracle_1k):
    out, _ = built
    from gxdindexer_ray.state.manifest import read_json

    stats = read_json(out / "stats.json")
    assert stats["N"] == oracle_1k.N
    assert stats["total_dl"] == oracle_1k.total_dl
    assert stats["avgdl"] == oracle_1k.avgdl


def test_topk_rank_identical(built, oracle_1k):
    from gxdindexer_ray.pipelines import SearchEngine

    out, _ = built
    eng = SearchEngine(out)
    queries = generate_queries(60, seed=42).to_pylist()
    nonempty = 0
    for q in queries:
        expected = oracle_1k.topk(q["query"], q["k"])
        for method in ("bmw", "brute"):
            got = eng.topk(q["query"], q["k"], method=method)
            assert got == expected, f"{method} mismatch on {q}"
        nonempty += bool(expected)
    assert nonempty > 40


def test_batch_search_matches(built, oracle_1k, ray_session):
    import ray.data as rd

    from gxdindexer_ray.pipelines.search import batch_search

    out, _ = built
    q = generate_queries(30, seed=42)
    res = batch_search(rd.from_arrow(q), out).to_pandas()
    for qrow in q.to_pylist():
        expected = oracle_1k.topk(qrow["query"], qrow["k"])
        sub = res[res.query_id == qrow["query_id"]].sort_values("rank")
        assert sub["doc_id"].tolist() == [d for d, _ in expected]
        assert sub["score"].tolist() == [s for _, s in expected]


_ONE_CPU_BATCH_SEARCH = """
import json, sys
import ray, ray.data as rd
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from gxdindexer_ray.fixtures import generate_queries
from gxdindexer_ray.pipelines import SearchEngine
from gxdindexer_ray.pipelines.search import batch_search
q = generate_queries(8, seed=42)
res = batch_search(rd.from_arrow(q), sys.argv[1]).to_pandas()
eng = SearchEngine(sys.argv[1], warm_top_terms=0)
out = []
for qrow in q.to_pylist():
    sub = res[res.query_id == qrow["query_id"]].sort_values("rank")
    out.append([list(zip(sub["doc_id"].tolist(), sub["score"].tolist())),
                [list(h) for h in eng.topk(qrow["query"], qrow["k"])]])
ray.shutdown()
print(json.dumps(out))
"""


def test_batch_search_one_cpu(built):
    """batch_search finishes on a one-CPU Ray session: the pool actor holds
    the only CPU, so nothing after it may wait on a CPU task (the query
    repartition's split ran on the driver and did). Its own session, in a
    subprocess under a hard timeout, since a hang never returns."""
    import json
    import os
    import signal
    import subprocess
    import sys

    out, _ = built
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    proc = subprocess.Popen([sys.executable, "-c", _ONE_CPU_BATCH_SEARCH, str(out)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, start_new_session=True, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("batch_search did not finish in 180 s on a 1-CPU Ray session")
    assert proc.returncode == 0, stderr[-2000:]
    pairs = json.loads(stdout.strip().splitlines()[-1])
    assert len(pairs) == 8 and sum(len(got) for got, _ in pairs) > 0
    for got, want in pairs:
        assert got == want


def test_phrase_and_boolean_match_oracle(built, oracle_1k):
    from gxdindexer_ray.fixtures.pages import HOT_TERM, vocabulary
    from gxdindexer_ray.pipelines import SearchEngine

    out, _ = built
    eng = SearchEngine(out)
    vocab = vocabulary(42)
    common = vocab[:4]

    # boolean: AND pairs incl. a hot term, with and without NOT
    cases = [
        ([HOT_TERM, common[0]], None),
        ([common[0], common[1]], [common[2]]),
        ([common[0], "doesnotexistxyz"], None),
        ([HOT_TERM], [common[0]]),
    ]
    nonempty = 0
    for must, must_not in cases:
        got = eng.boolean_topk(must, 15, must_not)
        exp = oracle_1k.boolean_topk(must, 15, must_not)
        assert got == exp, (must, must_not)
        nonempty += bool(exp)
    assert nonempty >= 2

    # phrase: take real adjacent token pairs/triples from corpus docs
    texts = list(oracle_1k.text_by_url.values())
    from gxdindexer_ray.text.tokenize import tokenize

    checked = 0
    for txt in texts:
        toks = tokenize(txt)
        if len(toks) >= 6:
            for phrase_toks in (toks[2:4], toks[1:4]):
                phrase = " ".join(phrase_toks)
                got = eng.phrase_topk(phrase, 10)
                exp = oracle_1k.phrase_topk(phrase, 10)
                assert got == exp, phrase
                assert exp, f"phrase from a real doc must match: {phrase}"
                checked += 1
        if checked >= 6:
            break
    assert checked >= 6

    # negative: shuffled unlikely phrase
    assert eng.phrase_topk("zzz yyy xxx", 5) == oracle_1k.phrase_topk("zzz yyy xxx", 5) == []


def test_positional_index(ray_session, pages_1k, tmp_path_factory, oracle_1k):
    """store_positions=True: phrase matching runs entirely from the index's
    position streams, identical to both the oracle and the docstore-verify
    path; scoring artifacts are unchanged."""
    from gxdindexer_ray.fixtures import generate_queries
    from gxdindexer_ray.pipelines import SearchEngine, build_index
    from gxdindexer_ray.text.tokenize import tokenize

    out = tmp_path_factory.mktemp("posix") / "ix"
    build_index(pages_1k, out, replace(CFG, store_positions=True))
    eng = SearchEngine(out)

    # positions present on every segment row
    import pyarrow.dataset as pads

    seg = pads.dataset(str(out / "segments"), format="parquet").to_table(
        columns=["pos_payload"])
    assert seg["pos_payload"].null_count == 0

    # ranked scoring identical to oracle (positions are additive)
    for q in generate_queries(20, seed=42).to_pylist():
        assert eng.topk(q["query"], q["k"]) == oracle_1k.topk(q["query"], q["k"])

    # phrase via positions == oracle == docstore-verify fallback
    checked = 0
    for txt in oracle_1k.text_by_url.values():
        toks = tokenize(txt)
        if len(toks) >= 6:
            phrase = " ".join(toks[1:4])
            exp = oracle_1k.phrase_topk(phrase, 10)
            got = eng.phrase_topk(phrase, 10)
            assert got == exp and exp, phrase
            # force the fallback path and compare
            cand = eng._candidate_docs(tokenize(phrase))
            texts = eng._texts_for(cand)
            assert set(texts) >= {d for d, _ in exp}
            checked += 1
        if checked >= 4:
            break
    assert checked >= 4
    assert eng.phrase_topk("zzz yyy xxx", 5) == []

    # positions round-trip: decoded positions reproduce oracle token offsets
    import numpy as np

    from gxdindexer_ray.codecs.postings import decode_positions

    term = sorted(oracle_1k.postings)[50]
    rows = eng.reader.fetch_terms([term])[term]
    from gxdindexer_ray.pipelines.search import _decoded

    url_of = {d: u for d, (u, _) in oracle_1k.docs.items()}
    for r, pl in zip(sorted(rows, key=lambda r: r["shard"]), _decoded(rows, CFG.block_size)):
        off, pos = decode_positions(r, pl)
        for i, did in enumerate(pl.doc_ids[:20]):
            toks = tokenize(oracle_1k.text_by_url[url_of[int(did)]])
            expected_pos = [j for j, t in enumerate(toks) if t == term]
            assert pos[off[i]:off[i + 1]].tolist() == expected_pos


def test_serving_features_match_brute(built):
    """filtered_topk (fq semantics), facet_counts, collapse_topk vs direct
    reimplementations over the docstore + the (oracle-gated) full scorer."""
    import pandas as pd
    import pyarrow.compute as pc

    from gxdindexer_ray.fixtures.pages import vocabulary
    from gxdindexer_ray.pipelines import SearchEngine
    from gxdindexer_ray.pipelines.search import DocFilter

    out, _ = built
    eng = SearchEngine(out)
    vocab = vocabulary(42)
    query = f"{HOT_TERM} {vocab[0]} {vocab[1]}"

    all_hits = eng.topk(query, k=10**9, method="brute")
    assert len(all_hits) > 50
    docs = pads.dataset(str(out / "docs"), format="parquet").to_table(
        columns=["doc_id", "dl"])
    dl_of = dict(zip(docs["doc_id"].to_pylist(), docs["dl"].to_pylist()))

    # --- filtered_topk: identical scores, restricted results (Solr fq)
    flt = DocFilter("dl>=30", ["dl"], lambda t: pc.greater_equal(t["dl"], 30))
    got = eng.filtered_topk(query, k=5, doc_filter=flt)
    want = [(d, s) for d, s in all_hits if dl_of[d] >= 30][:5]
    assert got == want
    # the filter docset is cached per key (Solr filterCache)
    assert eng.filter_docset(flt) is eng.filter_docset(flt)

    # --- facet_counts over the OR match set, bucketed dl
    bucket = lambda a: pc.divide(a, 10)
    cand = eng._union_docs(sorted(set(query.split())))
    want_counts = pd.Series(
        [dl_of[int(d)] // 10 for d in cand]).value_counts()
    ft = eng.facet_counts(query, "dl", value_fn=bucket)
    got_counts = dict(zip(ft["value"].to_pylist(), ft["n_docs"].to_pylist()))
    assert got_counts == {int(k): int(v) for k, v in want_counts.items()}
    # ordering: count desc, value asc
    pairs = list(zip(ft["n_docs"].to_pylist(), ft["value"].to_pylist()))
    assert pairs == sorted(pairs, key=lambda p: (-p[0], p[1]))

    # --- collapse_topk: best hit per bucket, top-k groups
    rows = eng.collapse_topk(query, k=4, field="dl", value_fn=bucket)
    df = pd.DataFrame([(dl_of[d] // 10, d, s) for d, s in all_hits],
                      columns=["value", "doc_id", "score"])
    df = df.sort_values(["value", "score", "doc_id"],
                        ascending=[True, False, True], kind="mergesort")
    best = df.drop_duplicates("value", keep="first")
    best = best.sort_values(["score", "doc_id"],
                            ascending=[False, True], kind="mergesort").head(4)
    want_rows = [(int(v), int(d), int(d), float(s))
                 for v, d, s in zip(best["value"], best["doc_id"], best["score"])]
    assert [(int(v), int(d), int(t), float(s)) for v, d, t, s in rows] == want_rows


def test_filtered_topk_empty_and_nomatch(built):
    import pyarrow.compute as pc

    from gxdindexer_ray.pipelines import SearchEngine
    from gxdindexer_ray.pipelines.search import DocFilter

    out, _ = built
    eng = SearchEngine(out)
    none = DocFilter("dl<0", ["dl"], lambda t: pc.less(t["dl"], 0))
    assert eng.filtered_topk(HOT_TERM, k=5, doc_filter=none) == []
    assert eng.filtered_topk("doesnotexistxyz", k=5,
                             doc_filter=DocFilter("dl>=0", ["dl"],
                                                  lambda t: pc.greater_equal(t["dl"], 0))) == []


def test_filter_docset_distributed_matches_local(built, ray_session):
    import numpy as np
    import pyarrow.compute as pc

    from gxdindexer_ray.pipelines import SearchEngine
    from gxdindexer_ray.pipelines.search import DocFilter

    out, _ = built
    flt = DocFilter("dl>=25", ["dl"], lambda t: pc.greater_equal(t["dl"], 25))
    local = SearchEngine(out).filter_docset(flt)
    eng = SearchEngine(out)
    eng.DIST_FILTER_MIN_BYTES = 0  # force the Ray Data path
    dist = eng.filter_docset(flt)
    assert np.array_equal(local, dist)
    assert local.size > 0


def test_batch_search_pool_filter(built, ray_session):
    """Pool-level fq: batch_search(doc_filter=...) equals per-query
    filtered_topk (docset built once on the driver, broadcast)."""
    import pyarrow.compute as pc
    import ray.data as rd

    from gxdindexer_ray.pipelines import SearchEngine
    from gxdindexer_ray.pipelines.search import DocFilter, batch_search

    out, _ = built
    flt = DocFilter("dl>=40", ["dl"], lambda t: pc.greater_equal(t["dl"], 40))
    q = generate_queries(20, seed=43)
    res = batch_search(rd.from_arrow(q), out, doc_filter=flt).to_pandas()
    eng = SearchEngine(out, warm_top_terms=0)
    for qrow in q.to_pylist():
        want = eng.filtered_topk(qrow["query"], qrow["k"], doc_filter=flt)
        sub = res[res.query_id == qrow["query_id"]].sort_values("rank")
        assert sub["doc_id"].tolist() == [d for d, _ in want]
        assert sub["score"].tolist() == [s for _, s in want]


def test_suggest_matches_oracle_stats(built, oracle_1k):
    """Term completion: prefix range + (cf desc, term asc) ranking, with
    df/cf equal to the oracle's term stats."""
    from gxdindexer_ray.pipelines import SearchEngine

    out, _ = built
    eng = SearchEngine(out, warm_top_terms=0)
    got = eng.suggest("b", k=8)
    assert got, "prefix 'b' should match fixture vocabulary"
    want = sorted(((t, df, cf) for t, (df, cf) in oracle_1k.term_stats().items()
                   if t.startswith("b")), key=lambda r: (-r[2], r[0]))[:8]
    assert got == want
    assert eng.suggest("zzzznope", k=5) == []


def test_more_like_this_matches_oracle(built, oracle_1k):
    """MLT: deterministic tf-idf term selection + BM25 with source excluded,
    vs a reimplementation over the single-process oracle."""
    import math
    from collections import Counter

    from gxdindexer_ray.index.docid import doc_id_of
    from gxdindexer_ray.pipelines import SearchEngine
    from gxdindexer_ray.text.tokenize import tokenize

    out, _ = built
    eng = SearchEngine(out, warm_top_terms=0)
    url, text = next((u, t) for u, t in oracle_1k.text_by_url.items()
                     if len(tokenize(t)) >= 10)
    src = doc_id_of(url)
    got = eng.more_like_this(src, k=8, max_terms=3)
    assert got, "source doc has terms; MLT must return neighbours"

    tf = Counter(tokenize(text))
    stats = oracle_1k.term_stats()
    sel = sorted(
        ((-(math.floor(tf[t] * math.log(1 + (oracle_1k.N - stats[t][0] + 0.5)
                                        / (stats[t][0] + 0.5)) * 1e6 + 0.5) / 1e6), t)
         for t in tf))
    terms = [t for _m, t in sel[:3]]
    want = [(d, s) for d, s in oracle_1k.topk(" ".join(terms), 9) if d != src][:8]
    assert got == want
    assert src not in {d for d, _ in got}


def test_snippets_best_window(built):
    """Highlighting picks the width-window anchored at a query-term
    occurrence with the most occurrences, tie -> earliest anchor."""
    from gxdindexer_ray.pipelines import SearchEngine
    from gxdindexer_ray.text.tokenize import tokenize

    out, _ = built
    eng = SearchEngine(out, warm_top_terms=0)
    # pick a doc containing the hot term; verify against a brute scan
    hits = eng.topk(HOT_TERM, k=3, method="brute")
    assert hits
    ids = [d for d, _ in hits]
    snips = eng.snippets_for(ids, [HOT_TERM], width=6)
    texts = eng._texts_for(ids)
    for d in ids:
        toks = tokenize(texts[int(d)])
        occ = [i for i, t in enumerate(toks) if t == HOT_TERM]
        best, best_n = None, -1
        for o in occ:
            n = sum(1 for x in occ if o <= x < o + 6)
            if n > best_n:
                best, best_n = o, n
        assert snips[int(d)] == " ".join(toks[best:best + 6])
    # no query terms in doc -> empty snippet
    assert eng.snippets_for(ids[:1], ["doesnotexistxyz"], width=6)[int(ids[0])] == ""


def _timeit(fn):
    import time as _t

    t0 = _t.perf_counter()
    fn()
    return _t.perf_counter() - t0


def test_symspell_persisted_artifact(built):
    """VERDICT r4 #3: the SymSpell deletion-neighborhood index persists
    next to the segments, sealed manifest-last; a fresh engine LOADS it
    (identical suggestions, no per-process rebuild) and a stale artifact
    (wrong lexicon size) is rejected."""

    from gxdindexer_ray.pipelines.search import (SearchEngine,
                                                 load_symspell_index)
    from gxdindexer_ray.state.manifest import atomic_write_json, read_json

    out, _ = built
    cold = SearchEngine(out, warm_top_terms=0)
    baseline = cold.spellcheck("abz", k=5, max_dist=1)  # in-process build
    assert not getattr(cold, "_symspell_from_disk", False)

    n = cold.persist_spell_index(max_dist=1)
    assert n > 0
    man = read_json(out / "symspell_d1_manifest.json")
    assert man["n_variants"] == n and man["max_dist"] == 1
    assert (out / "symspell_d1").is_dir()
    # idempotent: a second persist reuses the sealed artifact
    assert cold.persist_spell_index(max_dist=1) == n

    warm = SearchEngine(out, warm_top_terms=0)
    got = warm.spellcheck("abz", k=5, max_dist=1)
    assert warm._symspell_from_disk
    assert got == baseline
    # cold-start: loading the columnar artifact must beat re-exploding the
    # lexicon (the 100M-term-lexicon cost this artifact exists to remove).
    # Timed in isolation (min of 2 each, same process) so the comparison
    # is build-vs-load, not harness noise.
    from gxdindexer_ray.pipelines.search import _symspell_arrays

    arr, _lens = warm._spell_lexicon()
    build_t = min(_timeit(lambda: _symspell_arrays(arr, 1)) for _ in range(2))
    load_t = min(_timeit(lambda: load_symspell_index(out, 1)) for _ in range(2))
    assert load_t < build_t, (load_t, build_t)

    # stale artifact (built against a different lexicon) is rejected
    man["n_terms"] = man["n_terms"] + 1
    atomic_write_json(out / "symspell_d1_manifest.json", man)
    arr, _l = warm._spell_lexicon()
    assert load_symspell_index(out, 1, expected_terms=len(arr)) is None
    fresh = SearchEngine(out, warm_top_terms=0)
    assert fresh.spellcheck("abz", k=5, max_dist=1) == baseline
    assert not getattr(fresh, "_symspell_from_disk", True)
    # restore the sealed manifest for any later consumer of the fixture
    man["n_terms"] = man["n_terms"] - 1
    atomic_write_json(out / "symspell_d1_manifest.json", man)
