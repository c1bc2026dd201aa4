"""WAND and brute scorers vs the oracle: rank-identical docIDs and
bit-identical scores, including the sharded hot-term path."""

import numpy as np
import pytest

from gxdindexer_ray.codecs.postings import PostingList, encode_postings
from gxdindexer_ray.config import IndexConfig
from gxdindexer_ray.fixtures import generate_queries
from gxdindexer_ray.fixtures.pages import HOT_TERM
from gxdindexer_ray.query.brute import brute_force_topk
from gxdindexer_ray.query.wand import block_max_wand_topk

CFG = IndexConfig()


def _encode_term_rows(ix, term, shard_terms):
    """Encode a term's oracle postings as segment rows (sharded if hot)."""
    plist = ix.sorted_postings(term)
    docs = np.array([d for d, _, _ in plist], dtype=np.uint64)
    tfs = np.array([t for _, t, _ in plist], dtype=np.uint64)
    dls = np.array([l for _, _, l in plist], dtype=np.uint64)
    rows = []
    if term in shard_terms:
        shards = docs >> np.uint64(63 - CFG.shard_bits)
        for s in np.unique(shards):
            m = shards == s
            row = encode_postings(
                PostingList(docs[m], tfs[m], dls[m]),
                block_size=CFG.block_size, avgdl=ix.avgdl, k1=CFG.k1, b=CFG.b,
            )
            row["term"] = term
            row["shard"] = int(s)
            rows.append(row)
    else:
        row = encode_postings(
            PostingList(docs, tfs, dls),
            block_size=CFG.block_size, avgdl=ix.avgdl, k1=CFG.k1, b=CFG.b,
        )
        row["term"] = term
        row["shard"] = 0
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def encoded(oracle_1k):
    ix = oracle_1k
    shard_terms = {t for t, (df, _) in ix.term_stats().items() if df > ix.N * CFG.hot_df_ratio}
    assert HOT_TERM in shard_terms
    store = {t: _encode_term_rows(ix, t, shard_terms) for t in ix.postings}
    return ix, store


def _rows_for(store, query_terms):
    return {t: store[t] for t in query_terms if t in store}


def test_scorers_match_oracle_on_query_set(encoded):
    from gxdindexer_ray.text.tokenize import tokenize

    ix, store = encoded
    queries = generate_queries(60, seed=42).to_pylist()
    checked = 0
    for q in queries:
        terms = sorted(set(tokenize(q["query"])))
        tr = _rows_for(store, terms)
        expected = ix.topk(q["query"], q["k"])
        kw = dict(N=ix.N, avgdl=ix.avgdl, k1=CFG.k1, b=CFG.b,
                  block_size=CFG.block_size, k=q["k"])
        got_brute = brute_force_topk(tr, **kw)
        got_wand = block_max_wand_topk(tr, **kw)
        assert got_brute == expected, f"brute mismatch q={q}"
        assert got_wand == expected, f"wand mismatch q={q}"
        if expected:
            checked += 1
    assert checked > 40  # most queries hit something


def test_wand_equals_brute_random_corpora():
    """Property-style: random small corpora, all scorer paths agree."""
    from gxdindexer_ray.oracle import OracleIndex

    rng = np.random.default_rng(3)
    vocab = [f"t{i}" for i in range(30)]
    for trial in range(5):
        rows = []
        for i in range(200):
            n = int(rng.integers(0, 40))
            body = " ".join(rng.choice(vocab, size=n)) if n else ""
            html = f"<p>{body}</p>".encode()
            rows.append((f"http://x/{trial}/{i}", i, html))
        ix = OracleIndex.build_from_rows(rows)
        shard_terms = {t for t, (df, _) in ix.term_stats().items() if df > ix.N * 0.3}
        store = {t: _encode_term_rows(ix, t, shard_terms) for t in ix.postings}
        for qterms in (["t0"], ["t1", "t2"], ["t3", "t4", "t5", "t29"], ["missing"]):
            for k in (1, 7, 1000):
                expected = ix.topk(" ".join(qterms), k)
                tr = _rows_for(store, sorted(set(qterms)))
                kw = dict(N=ix.N, avgdl=ix.avgdl, k1=0.9, b=0.4, block_size=128, k=k)
                assert brute_force_topk(tr, **kw) == expected
                assert block_max_wand_topk(tr, **kw) == expected


def test_boosted_scoring_matches_oracle(encoded):
    """M12 per-term boost (position-decayed field boost analog,
    shr/SolrUtils.java:13-27): boosted weights flow through brute, WAND and
    the oracle identically, including upper bounds in WAND's skipping."""
    ix, store = encoded
    terms = sorted(ix.postings)[:40:10] + [HOT_TERM]
    query = " ".join(terms)
    boosts = {t: 1.0 + i * 0.75 for i, t in enumerate(sorted(set(terms)))}
    expected = ix.topk(query, 25, boosts=boosts)
    tr = _rows_for(store, sorted(set(terms)))
    kw = dict(N=ix.N, avgdl=ix.avgdl, k1=CFG.k1, b=CFG.b,
              block_size=CFG.block_size, k=25, boosts=boosts)
    assert brute_force_topk(tr, **kw) == expected
    assert block_max_wand_topk(tr, **kw) == expected
    # boost actually changes the ranking vs unboosted
    unboosted = ix.topk(query, 25)
    assert unboosted != expected


def test_spellcheck_vectorized_dp_matches_reference():
    """The candidate-vectorized Levenshtein DP equals a scalar reference on
    random strings (plain Levenshtein, no transposition — DuckDB parity)."""
    import random

    import numpy as np

    def ref_lev(a: str, b: str) -> int:
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i] + [0] * len(b)
            for j, cb in enumerate(b, 1):
                cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                             prev[j - 1] + (ca != cb))
            prev = cur
        return prev[-1]

    class FakeReader:
        def __init__(self, terms):
            self._terms = sorted(terms)
            self.N = 10

        def terms_with_prefix(self, prefix):
            return [t for t in self._terms if t.startswith(prefix)]

        def term_stats(self, terms):
            return {t: (1, len(t)) for t in terms}

    from gxdindexer_ray.pipelines.search import SearchEngine

    rng = random.Random(7)
    alphabet = "abcde"
    terms = sorted({"".join(rng.choice(alphabet) for _ in range(rng.randint(1, 7)))
                    for _ in range(300)})
    eng = SearchEngine.__new__(SearchEngine)
    eng.reader = FakeReader(terms)
    for q in ("abc", "e", "ddddd", "cabba", "zzz"):
        got = {(t, d) for t, d, _df, _cf in eng.spellcheck(q, k=10**9, max_dist=2)}
        want = {(t, ref_lev(q, t)) for t in terms
                if abs(len(t) - len(q)) <= 2 and ref_lev(q, t) <= 2}
        assert got == want, q
        # SymSpell (default) and length-window scan agree exactly — the
        # deletion-neighborhood probe is exhaustive for lev <= max_dist
        assert eng.spellcheck(q, k=10**9, max_dist=2, method="scan") \
            == eng.spellcheck(q, k=10**9, max_dist=2)


def test_symspell_prunes_candidates():
    """The deletion-neighborhood index probes FAR fewer candidates than the
    length-window scan (the serving-latency mechanism), while returning
    identical suggestions; index build happens once and is cached."""
    import random

    class FakeReader:
        def __init__(self, terms):
            self._terms = sorted(terms)

        def terms_with_prefix(self, prefix):
            return [t for t in self._terms if t.startswith(prefix)]

        def term_stats(self, terms):
            return {t: (1, len(t)) for t in terms}

    from gxdindexer_ray.pipelines.search import SearchEngine, _deletes

    rng = random.Random(11)
    alphabet = "abcdefghijklmnop"
    terms = sorted({"".join(rng.choice(alphabet) for _ in range(6))
                    for _ in range(5000)})
    eng = SearchEngine.__new__(SearchEngine)
    eng.reader = FakeReader(terms)
    q = terms[100][:5] + "q"
    assert eng.spellcheck(q, k=10, max_dist=1) \
        == eng.spellcheck(q, k=10, max_dist=1, method="scan")
    import numpy as np

    variants, tis = eng._symspell_index(1)
    probed = set()
    for v in _deletes(q, 1):
        lo = np.searchsorted(variants, v, side="left")
        hi = np.searchsorted(variants, v, side="right")
        probed.update(tis[lo:hi].tolist())
    arr, lens = eng._spell_lexicon()
    window = ((lens >= len(q) - 1) & (lens <= len(q) + 1)).sum()
    assert len(probed) * 20 < int(window), (len(probed), int(window))
    assert 1 in eng._symspell_cache  # cached, not rebuilt per call
    # mixed distances coexist (dict keyed by max_dist, no eviction)
    eng.spellcheck(q, k=10, max_dist=2)
    assert set(eng._symspell_cache) == {1, 2}


# ---- the batched exhaustive kernel -----------------------------------------

def _reference_decode(row):
    """A row decoded the way the scorers did before the batched kernel:
    one varint pass per stream, a plain cumsum, and a Python-set
    tombstone test (exact for any 63-bit id)."""
    from gxdindexer_ray.codecs.varint import varint_decode

    n = int(row["n_postings"])
    docs = np.cumsum(varint_decode(row["docs_payload"], count=n), dtype=np.uint64)
    tfs = varint_decode(row["tfs_payload"], count=n)
    dls = varint_decode(row["dls_payload"], count=n)
    dead = {int(d) for d in row.get("_dead", ())}
    keep = np.array([int(d) not in dead for d in docs], dtype=bool)
    if keep.all():
        return docs, tfs, dls, None
    kept = np.flatnonzero(keep)
    return docs[kept], tfs[kept], dls[kept], kept


def _random_rows(rng, n_rows):
    """Encoded rows of random sizes (1 to ~600 postings, so some span
    several blocks) with ids across the whole 63-bit range, each with a
    tombstone pattern: none, the first posting, the last, every posting,
    a random subset, or ids next to live ones above 2^53 that float64
    could not tell apart."""
    rows = []
    for i in range(n_rows):
        n = int(rng.choice([1, 2, 7, 128, 129, 600]))
        docs = np.unique(rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)).astype(np.uint64)
        tfs = rng.integers(1, 300, size=docs.size).astype(np.uint64)
        dls = rng.integers(1, 5000, size=docs.size).astype(np.uint64)
        row = encode_postings(PostingList(docs, tfs, dls), block_size=128,
                              avgdl=100.0, k1=0.9, b=0.4)
        row["shard"] = 0
        kind = i % 6
        dead = {0: [], 1: docs[:1], 2: docs[-1:], 3: docs,
                4: rng.choice(docs, size=max(1, docs.size // 3), replace=False),
                5: np.concatenate([docs[docs > 2**53] + np.uint64(1),
                                   docs[docs > 2**53] - np.uint64(1)])}[kind]
        dead = np.setdiff1d(dead, docs) if kind == 5 else dead
        if len(dead):
            row["_dead"] = np.unique(np.asarray(dead, dtype=np.uint64))
        rows.append(row)
    return rows


@pytest.mark.parametrize("chunk_bytes", [None, 16])
def test_batched_decode_equals_per_row(chunk_bytes, monkeypatch):
    """The kernel's one-pass decode of many rows equals decoding each row
    on its own: doc ids, tfs, dls and the tombstone ``kept`` indices. With
    ``chunk_bytes`` the concatenated payload takes the chunked varint
    path."""
    from gxdindexer_ray.codecs import varint
    from gxdindexer_ray.codecs.postings import decode_postings, decode_postings_many

    if chunk_bytes is not None:
        monkeypatch.setattr(varint, "_DECODE_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(11)
    for trial in range(12):
        rows = _random_rows(rng, int(rng.integers(1, 14)))
        got = decode_postings_many(rows)
        assert len(got) == len(rows)
        for row, pl in zip(rows, got):
            docs, tfs, dls, kept = _reference_decode(row)
            one = decode_postings(row, block_size=128)
            for x in (pl, one):
                assert x.doc_ids.dtype == np.uint64
                assert np.array_equal(x.doc_ids, docs)
                assert np.array_equal(x.tfs, tfs) and np.array_equal(x.dls, dls)
                assert (x.kept is None) == (kept is None)
                if kept is not None:
                    assert np.array_equal(x.kept, kept)
    assert decode_postings_many([]) == []


def test_batched_decode_rejects_corrupt_rows():
    """A row whose payload does not hold its n_postings values raises
    ValueError in a batch, even when the batch's totals still agree."""
    from gxdindexer_ray.codecs.postings import decode_postings_many

    rows = _random_rows(np.random.default_rng(5), 6)
    for col in ("docs_payload", "tfs_payload", "dls_payload"):
        for i in (0, 3, 5):
            cut = [dict(r) for r in rows]
            cut[i][col] = cut[i][col][:-1]  # truncated inside its last value
            with pytest.raises(ValueError):
                decode_postings_many(cut)
            short = [dict(r) for r in rows]
            short[i]["n_postings"] += 1  # one value missing at a boundary
            with pytest.raises(ValueError):
                decode_postings_many(short)
        # the last byte of row 1 moved to the front of row 2: each row's
        # byte count changes but every value count of the batch still adds up
        moved = [dict(r) for r in rows]
        moved[1][col], moved[2][col] = rows[1][col][:-1], rows[1][col][-1:] + rows[2][col]
        with pytest.raises(ValueError):
            decode_postings_many(moved)


def _dup_rows():
    """Pages with planted duplicate texts: groups of 1-5 identical pages
    under different urls score identically on every query, so ties fall
    across every k-th place."""
    rng = np.random.default_rng(21)
    vocab = ["alpha", "beta", "gamma", "delta", "omega"]
    rows = []
    for g in range(14):
        body = " ".join(rng.choice(vocab, size=int(rng.integers(1, 12))))
        for c in range(int(rng.integers(1, 6))):
            rows.append((f"http://dup.example/{g}/{c}", 1_600_000_000_000_000 + len(rows),
                         f"<p>{body}</p>".encode()))
    return rows


QUERIES = ("alpha", "alpha beta", "beta gamma omega", "delta")


def test_ties_at_every_kth_place_encoded_rows():
    """brute_force_topk and candidate_topk match the oracle for every k
    from 1 to the number of hits, with tied scores across the k-th place
    (no Ray: rows encoded from the oracle's postings)."""
    from gxdindexer_ray.oracle import OracleIndex
    from gxdindexer_ray.query.brute import candidate_topk

    ix = OracleIndex.build_from_rows(_dup_rows())
    store = {t: _encode_term_rows(ix, t, set()) for t in ix.postings}
    for q in QUERIES:
        full = ix.topk(q, 10**6)
        scores = [s for _, s in full]
        assert len(set(scores)) < len(scores)  # the planted ties are there
        tr = _rows_for(store, sorted(set(q.split())))
        every = np.array([d for d, _ in full], dtype=np.uint64)
        half = every[::2]
        for k in range(1, len(full) + 1):
            kw = dict(N=ix.N, avgdl=ix.avgdl, k1=CFG.k1, b=CFG.b,
                      block_size=CFG.block_size, k=k)
            assert brute_force_topk(tr, **kw) == full[:k], (q, k)
            assert candidate_topk(tr, every, **kw) == full[:k], (q, k)
            assert candidate_topk(tr, half, **kw) == \
                [h for h in full if h[0] in set(half.tolist())][:k], (q, k)


def test_ties_at_every_kth_place_engine(ray_session, tmp_path):
    """The same planted ties through a built index: SearchEngine.topk
    (auto, brute and bmw) and the kernel on the reader's rows."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from gxdindexer_ray.oracle import OracleIndex
    from gxdindexer_ray.pipelines import SearchEngine, build_index
    from gxdindexer_ray.query.brute import candidate_topk

    rows = _dup_rows()
    pages = tmp_path / "pages"
    pages.mkdir()
    pq.write_table(pa.table({
        "url": pa.array([u for u, _, _ in rows], pa.string()),
        "warc_ts": pa.array([ts for _, ts, _ in rows], pa.timestamp("us")),
        "html": pa.array([h for _, _, h in rows], pa.binary()),
        "text": pa.array([None] * len(rows), pa.string()),
        "lang": pa.array(["en"] * len(rows), pa.string()),
    }), pages / "part-0.parquet")
    build_index(pages, tmp_path / "idx", CFG)
    ix = OracleIndex.build_from_rows(rows)
    eng = SearchEngine(tmp_path / "idx", warm_top_terms=0)
    r = eng.reader
    for q in QUERIES:
        full = ix.topk(q, 10**6)
        tr = r.fetch_terms(sorted(set(q.split())))
        every = np.array([d for d, _ in full], dtype=np.uint64)
        for k in range(1, len(full) + 1):
            for method in ("auto", "brute", "bmw"):
                assert eng.topk(q, k, method) == full[:k], (q, k, method)
            kw = dict(N=r.N, avgdl=r.avgdl, k1=r.k1, b=r.b, block_size=r.block_size, k=k)
            assert brute_force_topk(tr, **kw) == full[:k], (q, k)
            assert candidate_topk(tr, every, **kw) == full[:k], (q, k)


def test_same_rows_under_two_scoring_settings(encoded):
    """One set of row dicts scored under two (k1, b, avgdl) settings, back
    and forth: each answer matches its own oracle, so the memoized tf
    factor is keyed on the settings, not reused across them."""
    import copy

    from gxdindexer_ray.query.brute import candidate_topk

    ix, store = encoded
    other = copy.copy(ix)
    other.k1, other.b, other.total_dl = 1.7, 0.9, ix.total_dl * 1.37  # avgdl = total_dl / N
    terms = sorted(ix.postings)[:60:12] + [HOT_TERM]
    q = " ".join(terms)
    tr = _rows_for(store, sorted(set(terms)))
    cand = np.array([d for d, _ in ix.topk(q, 10**6)][::3], dtype=np.uint64)
    assert other.avgdl != ix.avgdl
    for oracle in (ix, other, ix, other):
        kw = dict(N=oracle.N, avgdl=oracle.avgdl, k1=oracle.k1, b=oracle.b,
                  block_size=CFG.block_size, k=20)
        full = oracle.topk(q, 10**6)
        assert brute_force_topk(tr, **kw) == full[:20]
        assert candidate_topk(tr, cand, **kw) == \
            [h for h in full if h[0] in set(cand.tolist())][:20]
    assert ix.topk(q, 20) != other.topk(q, 20)  # the settings do differ
