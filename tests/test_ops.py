"""Unit tests for the training-data operator pack (the paths without SQL
oracles: near-dup detection, simhash, IVF ANN, multimodal plumbing)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def neardup_docs(ray_session):
    """Corpus with constructed near-duplicates: docs 100/101 and 200/201 are
    ~95% overlapping token streams; everything else is random."""
    import ray.data as rd

    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(500)]
    rows = []
    for i in range(300):
        toks = list(rng.choice(vocab, size=80))
        rows.append({"doc_id": i, "text": " ".join(toks)})
    base1 = list(np.random.default_rng(1).choice(vocab, size=100))
    near1 = base1[:95] + ["xx1", "xx2", "xx3", "xx4", "xx5"]
    base2 = list(np.random.default_rng(2).choice(vocab, size=100))
    near2 = base2[:96] + ["yy1", "yy2", "yy3", "yy4"]
    rows += [
        {"doc_id": 1100, "text": " ".join(base1)},
        {"doc_id": 1101, "text": " ".join(near1)},
        {"doc_id": 1200, "text": " ".join(base2)},
        {"doc_id": 1201, "text": " ".join(near2)},
    ]
    return rd.from_pandas(pd.DataFrame(rows))


def test_minhash_lsh_finds_neardups(neardup_docs):
    from gxdindexer_ray.ops.dedup import minhash_lsh_candidates, verify_pairs_jaccard

    cand = minhash_lsh_candidates(neardup_docs).to_pandas()
    pairs = set(map(tuple, cand[["a", "b"]].to_numpy()))
    assert (1100, 1101) in pairs
    assert (1200, 1201) in pairs
    verified = verify_pairs_jaccard(neardup_docs, cand, threshold=0.5)
    vp = set(map(tuple, verified[["a", "b"]].to_numpy()))
    assert (1100, 1101) in vp and (1200, 1201) in vp
    # random docs shouldn't survive verification
    assert all(a in (1100, 1200) for a, _ in vp)


def test_exact_jaccard_and_signatures_deterministic():
    from gxdindexer_ray.ops.dedup import (
        _perm_params, exact_jaccard, minhash_signature, minhash_signature_batch,
    )

    toks = ["a", "b", "c", "d", "e", "f"]
    assert exact_jaccard(toks, toks) == 1.0
    assert exact_jaccard(toks, ["z", "q", "r"]) == 0.0
    a, b = _perm_params(16)
    # vectorized batch path must agree exactly with the scalar Python-int
    # reference path, including short docs (whole-doc shingle) and empties
    for doc in (toks, ["a", "b"], ["a"], []):
        sig1 = minhash_signature(doc, a, b)
        sig2 = minhash_signature_batch([doc], a, b)[0]
        assert np.array_equal(sig1, sig2)
    batch = minhash_signature_batch([toks, [], ["x", "y"], toks[:3]], a, b)
    for i, doc in enumerate([toks, [], ["x", "y"], toks[:3]]):
        assert np.array_equal(batch[i], minhash_signature(doc, a, b))


def test_minhash_signatures_dataset_matches_scalar(ray_session):
    """The standalone signature Dataset stage (bench surface) must emit the
    same minima as the scalar reference path, including tokenization."""
    import ray.data as rd
    from gxdindexer_ray.ops.dedup import _perm_params, minhash_signature
    from gxdindexer_ray.ops.dedup import minhash_signatures
    from gxdindexer_ray.text.tokenize import tokenize

    texts = {1: "the quick brown fox jumps over the lazy dog",
             2: "pack my box with five dozen liquor jugs",
             3: "ab", 4: ""}
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(list(texts), pa.int64()),
                                 "text": pa.array(list(texts.values()), pa.string())}))
    out = minhash_signatures(ds, n_perm=16).to_pandas().set_index("doc_id")
    a, b = _perm_params(16)
    for did, text in texts.items():
        want = minhash_signature(tokenize(text), a, b)
        got = np.asarray(out.loc[did, "sig"], dtype=np.int64).view(np.uint64)
        assert np.array_equal(got, want), did


def test_mulmod_m61_exact():
    from gxdindexer_ray.ops.dedup import _MERSENNE, _mulmod_m61, _perm_params

    rng = np.random.default_rng(3)
    h = rng.integers(0, _MERSENNE, size=500, dtype=np.uint64)
    h = np.concatenate([h, np.array([0, 1, _MERSENNE - 1, _MERSENNE - 2], dtype=np.uint64)])
    a, b = _perm_params(8)
    edge = np.array([1, 2, _MERSENNE - 1], dtype=np.uint64)
    for ai, bi in list(zip(a, b)) + [(e, e) for e in edge]:
        got = _mulmod_m61(ai, h, bi)
        want = np.array([(int(ai) * int(x) + int(bi)) % _MERSENNE for x in h],
                        dtype=np.uint64)
        assert np.array_equal(got, want)


def test_simhash_batch_matches_scalar(neardup_docs):
    from gxdindexer_ray.ops.dedup import simhash, simhash_64
    from gxdindexer_ray.text.tokenize import tokenize

    df = neardup_docs.to_pandas()
    out = simhash(neardup_docs).to_pandas().set_index("doc_id")["simhash"]
    for _, row in df.iterrows():
        assert int(out[row["doc_id"]]) == simhash_64(tokenize(row["text"]))


def test_simhash_near_for_neardups(neardup_docs):
    from gxdindexer_ray.ops.dedup import simhash

    out = simhash(neardup_docs).to_pandas().set_index("doc_id")["simhash"]

    def ham(x, y):
        return bin(int(x) ^ int(y)).count("1")

    assert ham(out[1100], out[1101]) <= 12
    assert ham(out[1200], out[1201]) <= 12
    rand_pairs = [(0, 1), (2, 3), (4, 5)]
    assert min(ham(out[a], out[b]) for a, b in rand_pairs) > 12


def test_ivf_knn_recall(ray_session):
    """Clustered synthetic embeddings: IVF with nprobe=4/16 cells must
    recover most of brute-force top-10."""
    import ray.data as rd

    from gxdindexer_ray.ops.similarity import brute_knn, ivf_knn

    rng = np.random.default_rng(9)
    centers = rng.normal(size=(8, 32))
    vecs = []
    for i in range(800):
        c = centers[i % 8]
        vecs.append(c + 0.15 * rng.normal(size=32))
    df = pd.DataFrame({
        "vec_id": np.arange(800, dtype=np.int64),
        "embedding": [v.astype(np.float32).tolist() for v in vecs],
    })
    ds = rd.from_pandas(df)
    qids = np.array([0, 1, 2], dtype=np.int64)
    qmat = np.stack([vecs[0], vecs[1], vecs[2]])
    exact = brute_knn(ds, qids, qmat, k=10)
    approx = ivf_knn(ds, qids, qmat, k=10, n_clusters=16, nprobe=4)
    recall = 0
    for q in qids:
        e = set(exact[exact.qid == q]["nid"])
        a = set(approx[approx.qid == q]["nid"])
        recall += len(e & a) / len(e)
    assert recall / len(qids) >= 0.8


def test_ivf_sharded_cells_identical(ray_session, tmp_path):
    """A forced tiny max_cell_rows splits hot cells into sub-shard files;
    search results must be IDENTICAL to the unsharded layout (same probed
    candidate set, per-file partials merged)."""
    import ray.data as rd

    from gxdindexer_ray.ops.similarity import ivf_knn

    rng = np.random.default_rng(9)
    centers = rng.normal(size=(8, 32))
    vecs = [centers[i % 8] + 0.15 * rng.normal(size=32) for i in range(800)]
    df = pd.DataFrame({
        "vec_id": np.arange(800, dtype=np.int64),
        "embedding": [v.astype(np.float32).tolist() for v in vecs],
    })
    ds = rd.from_pandas(df)
    qids = np.array([0, 1, 2], dtype=np.int64)
    qmat = np.stack([vecs[0], vecs[1], vecs[2]])
    big = ivf_knn(ds, qids, qmat, k=10, n_clusters=16, nprobe=4,
                  index_dir=tmp_path / "ivf-big")
    small = ivf_knn(ds, qids, qmat, k=10, n_clusters=16, nprobe=4,
                    index_dir=tmp_path / "ivf-small", max_cell_rows=40)
    shard_files = [f for f in (tmp_path / "ivf-small").glob("cell-*-*.parquet")
                   if int(f.stem.rsplit("-", 1)[1]) > 0]
    assert shard_files, "forced cap produced no multi-shard cells"
    pd.testing.assert_frame_equal(big.reset_index(drop=True),
                                  small.reset_index(drop=True))


def test_multimodal_stage(ray_session):
    import ray.data as rd

    from gxdindexer_ray.ops.multimodal import (
        ImageMetaStage, blob_metadata, decode_image, fake_features, text_to_blob,
    )

    with pytest.raises(NotImplementedError):
        decode_image(b"\x89PNG...")

    h1 = fake_features(b"hello")
    assert h1 == fake_features(b"hello")  # deterministic
    assert h1 != fake_features(b"hellp")

    df = pd.DataFrame({"doc_id": [1, 2, 3], "text": ["abc", "", "日本語"]})
    out = blob_metadata(text_to_blob(rd.from_pandas(df)), fake=True).to_pandas()
    assert out["n_bytes"].tolist() == [3, 0, 9]
    assert out["width"].between(64, 64 + 1920).all()

    # non-fake stage raises through the actor path too
    stage = ImageMetaStage(fake=False)
    with pytest.raises(NotImplementedError):
        stage(pa.table({"doc_id": [1], "blob": [b"x"]}))


def test_fingerprints_overlap(ray_session):
    from gxdindexer_ray.ops.textops import fingerprint_doc

    a = [f"t{i}" for i in range(50)]
    b = a[:40] + [f"u{i}" for i in range(10)]
    fa, fb = set(fingerprint_doc(a)), set(fingerprint_doc(b))
    assert fa and fb
    assert len(fa & fb) > 0  # shared prefix -> shared fingerprints
    assert fa != fb
    assert fingerprint_doc([]) == []
    assert fingerprint_doc(["one"]) == []  # shorter than k


def test_partitioned_join_matches_pandas(ray_session):
    import ray.data as rd

    from gxdindexer_ray.ops.relational import partitioned_join

    rng = np.random.default_rng(3)
    left = pd.DataFrame({"k": rng.integers(0, 50, 200).astype(np.int64),
                         "lv": rng.normal(200).round(3) if False else rng.normal(size=200)})
    right = pd.DataFrame({"rk": rng.integers(0, 50, 300).astype(np.int64),
                          "rv": rng.integers(0, 9, 300).astype(np.int64)})
    for how in ("inner", "left"):
        got = partitioned_join(rd.from_pandas(left), rd.from_pandas(right),
                               "k", "rk", how=how).to_pandas()
        exp = left.merge(right, left_on="k", right_on="rk", how=how)
        got_s = got.sort_values(list(got.columns)).reset_index(drop=True)
        exp_s = exp[got.columns].sort_values(list(got.columns)).reset_index(drop=True)
        pd.testing.assert_frame_equal(got_s, exp_s, check_dtype=False)


def test_partitioned_join_salted_hot_key(ray_session):
    """Skew salting: 80% of the probe side is ONE key. Joined rows must be
    identical to pandas, and the hot key's probe rows must actually land in
    more than one reduce bucket."""
    import ray.data as rd

    from gxdindexer_ray.ops.relational import (_SALT_PRIME, partitioned_join,
                                               salted_bucket_ids)

    rng = np.random.default_rng(9)
    n = 2000
    hot = 7
    k = np.where(rng.random(n) < 0.8, hot, rng.integers(0, 50, n)).astype(np.int64)
    left = pd.DataFrame({"k": k, "lv": np.arange(n, dtype=np.int64)})
    right = pd.DataFrame({"rk": np.arange(50, dtype=np.int64),
                          "rv": rng.integers(0, 9, 50).astype(np.int64)})
    n_buckets, n_salts = 8, 4
    for how in ("inner", "left"):
        got = partitioned_join(rd.from_pandas(left), rd.from_pandas(right),
                               "k", "rk", how=how, n_buckets=n_buckets,
                               hot_keys={hot}, n_salts=n_salts).to_pandas()
        exp = left.merge(right, left_on="k", right_on="rk", how=how)
        got_s = got.sort_values(list(got.columns)).reset_index(drop=True)
        exp_s = exp[got.columns].sort_values(list(got.columns)).reset_index(drop=True)
        pd.testing.assert_frame_equal(got_s, exp_s, check_dtype=False)
    # the salt formula must spread the hot key across buckets
    jb = np.full(16, hot % n_buckets, np.int32)
    mask = np.ones(16, bool)
    salts = np.arange(16, dtype=np.int64) % n_salts
    spread = set(salted_bucket_ids(jb, mask, salts, n_buckets).tolist())
    assert len(spread) > 1
    assert spread == {(hot % n_buckets + s * _SALT_PRIME) % n_buckets
                      for s in range(n_salts)}
    # guard rails
    with pytest.raises(ValueError):
        partitioned_join(rd.from_pandas(left), rd.from_pandas(right),
                         "k", "rk", how="inner", hot_keys={hot},
                         bucket_post=lambda d: d)
    with pytest.raises(ValueError):
        partitioned_join(rd.from_pandas(left), rd.from_pandas(right),
                         "k", "rk", how="right", hot_keys={hot})


def test_partitioned_join_salts_exceed_buckets(ray_session):
    """ADVICE r2 repro: n_salts > n_buckets used to replicate a hot build
    row into the same bucket twice (duplicate salt residues), duplicating
    its joined rows. Effective salts are now clamped to distinct residues."""
    import ray.data as rd

    from gxdindexer_ray.ops.relational import partitioned_join

    rng = np.random.default_rng(5)
    n = 400
    hot = 3
    k = np.where(rng.random(n) < 0.7, hot, rng.integers(0, 20, n)).astype(np.int64)
    left = pd.DataFrame({"k": k, "lv": np.arange(n, dtype=np.int64)})
    right = pd.DataFrame({"rk": np.arange(20, dtype=np.int64),
                          "rv": np.arange(20, dtype=np.int64) * 10})
    exp = left.merge(right, left_on="k", right_on="rk", how="inner")
    for n_buckets, n_salts in ((4, 8), (6, 12), (8, 64)):
        got = partitioned_join(rd.from_pandas(left), rd.from_pandas(right),
                               "k", "rk", how="inner", n_buckets=n_buckets,
                               hot_keys={hot}, n_salts=n_salts).to_pandas()
        assert len(got) == len(exp), (n_buckets, n_salts)
        got_s = got.sort_values(list(got.columns)).reset_index(drop=True)
        exp_s = exp[got.columns].sort_values(list(got.columns)).reset_index(drop=True)
        pd.testing.assert_frame_equal(got_s, exp_s, check_dtype=False)


def test_detect_hot_keys_with_nulls(ray_session):
    """ADVICE r2: real nulls in the join column must not inflate `total`
    (they previously merged with the batch-count sentinel) and must never
    be flagged hot themselves."""
    import ray.data as rd

    from gxdindexer_ray.ops.relational import detect_hot_keys

    rng = np.random.default_rng(3)
    n = 10_000
    # 40% nulls, 20% the hot key, rest uniform tail
    r = rng.random(n)
    vals = np.where(r < 0.2, "hot", rng.integers(0, 3000, n).astype(str)).astype(object)
    vals[r >= 0.6] = None
    ds = rd.from_pandas(pd.DataFrame({"k": vals})).repartition(8)
    # hot share among ALL rows is 20%; with nulls inflating total it would
    # still pass θ=0.15, but a null-counted total would ALSO admit spurious
    # keys near the bound — assert the exact set and that None is absent
    hot = detect_hot_keys(ds, "k", threshold=0.15)
    assert hot == {"hot"}
    assert None not in hot


def test_detect_hot_keys(ray_session):
    """The θ-share guarantee: a 30%-share key is always caught at θ=0.1;
    uniform tail keys (share ~2e-4) never are."""
    import ray.data as rd

    from gxdindexer_ray.ops.relational import detect_hot_keys

    rng = np.random.default_rng(2)
    n = 20_000
    k = np.where(rng.random(n) < 0.3, -1, rng.integers(0, 5000, n)).astype(np.int64)
    ds = rd.from_pandas(pd.DataFrame({"k": k})).repartition(8)
    hot = detect_hot_keys(ds, "k", threshold=0.1)
    assert -1 in hot
    assert hot == {-1}
    # string keys too (the q45 shape)
    s = np.where(rng.random(n) < 0.5, "hot", rng.integers(0, 5000, n).astype(str))
    ds2 = rd.from_pandas(pd.DataFrame({"k": s})).repartition(8)
    assert detect_hot_keys(ds2, "k", threshold=0.2) == {"hot"}


def test_distributed_topk_matches_sort(ray_session):
    import ray.data as rd

    from gxdindexer_ray.ops.relational import distributed_topk

    rng = np.random.default_rng(11)
    df = pd.DataFrame({"a": rng.normal(size=5000), "b": np.arange(5000, dtype=np.int64)})
    got = distributed_topk(rd.from_pandas(df), ["a", "b"], [False, True], 25)
    exp = df.sort_values(["a", "b"], ascending=[False, True]).head(25).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)


def test_lang_id_markers(ray_session):
    import ray.data as rd

    from gxdindexer_ray.ops.textops import lang_id

    df = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": [
            "the cat and the dog of a house",
            "der hund und die katze ist nicht da",
            "le chat est dans la maison pour les amis",
            "zzz qqq www",
        ],
    })
    out = lang_id(rd.from_pandas(df)).to_pandas().set_index("doc_id")["lang_pred"]
    assert out[0] == "en" and out[1] == "de" and out[2] == "fr" and out[3] == "und"


def test_hll_accuracy_and_merge(ray_session):
    import ray.data as rd

    from gxdindexer_ray.ops.sketches import HLL, approx_distinct, approx_distinct_by_key

    rng = np.random.default_rng(17)
    true_n = 20_000
    vals = [f"user-{i}" for i in rng.integers(0, true_n, size=100_000)]
    actual = len(set(vals))
    df = pd.DataFrame({"v": vals, "k": (np.arange(100_000) % 3)})
    est = approx_distinct(rd.from_pandas(df), "v")
    # plain HLL has a known bias dip around n ~ 2.5m-5m (HLL++ fixes it with
    # empirical tables); allow 8% there
    assert abs(est - actual) / actual < 0.08

    # merge == union
    a, b = HLL(), HLL()
    a.add_strings([f"x{i}" for i in range(5000)])
    b.add_strings([f"x{i}" for i in range(2500, 7500)])
    m = a.merge(b)
    assert abs(m.estimate() - 7500) / 7500 < 0.05

    per_key = approx_distinct_by_key(rd.from_pandas(df), "k", "v")
    assert len(per_key) == 3
    for _, row in per_key.iterrows():
        true_k = df[df.k == row["k"]]["v"].nunique()
        assert abs(row["approx_distinct"] - true_k) / true_k < 0.10


def test_frame_sample_stage(ray_session):
    import ray.data as rd

    from gxdindexer_ray.ops.multimodal import FrameSampleStage, sample_frames, text_to_blob

    with pytest.raises(NotImplementedError):
        sample_frames(b"fake-video")

    df = pd.DataFrame({"doc_id": [1, 2], "text": ["x" * 5000, "y" * 100]})
    blobs = text_to_blob(rd.from_pandas(df))
    out = blobs.map_batches(FrameSampleStage, fn_constructor_kwargs={"fake": True},
                            batch_format="pyarrow", concurrency=2).to_pandas()
    assert set(out.doc_id) == {1, 2}
    assert (out.frame_idx >= 0).all()
    # deterministic
    out2 = blobs.map_batches(FrameSampleStage, fn_constructor_kwargs={"fake": True},
                             batch_format="pyarrow", concurrency=2).to_pandas()
    a = out.sort_values(["doc_id", "frame_idx"]).reset_index(drop=True)
    b = out2.sort_values(["doc_id", "frame_idx"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_transitive_closure_deep_chain(ray_session):
    import ray.data as rd

    from gxdindexer_ray.ops.graph import transitive_closure

    # chain a->b->c->d->e plus a branch and a diamond
    edges = pd.DataFrame({
        "src": ["a", "b", "c", "d", "x", "a", "y"],
        "dst": ["b", "c", "d", "e", "b", "y", "e"],
    })
    out = transitive_closure(rd.from_pandas(edges))
    pairs = set(map(tuple, out.to_numpy()))
    assert ("a", "e") in pairs  # depth-4 reachability
    assert ("x", "e") in pairs
    assert ("a", "c") in pairs and ("a", "d") in pairs
    assert ("e", "a") not in pairs
    # exact closure count: compute reference with floyd-ish python
    adj = {}
    for s, d in edges.itertuples(index=False):
        adj.setdefault(s, set()).add(d)
    ref = set()
    def dfs(start, node):
        for nxt in adj.get(node, ()):
            if (start, nxt) not in ref:
                ref.add((start, nxt))
                dfs(start, nxt)
    for s in list(adj):
        dfs(s, s)
    assert pairs == ref


def test_transitive_closure_cycle_raises(ray_session):
    import ray.data as rd

    from gxdindexer_ray.ops.graph import transitive_closure

    edges = pd.DataFrame({"src": ["a", "b"], "dst": ["b", "a"]})
    # a 2-cycle converges (closure is finite) — must NOT raise
    out = transitive_closure(rd.from_pandas(edges))
    assert set(map(tuple, out.to_numpy())) == {("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")}


class TestNearDupClusterResolution:
    def test_connected_components_min_label(self, ray_session):
        import pandas as pd
        from gxdindexer_ray.ops.dedup import connected_components

        # two chains and one isolated pair: {1-2-3-4}, {10-11}, {20-21}
        edges = pd.DataFrame({"a": [1, 2, 3, 10, 20], "b": [2, 3, 4, 11, 21]})
        comp = connected_components(edges)
        got = dict(zip(comp["node"], comp["comp"]))
        assert got == {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10, 20: 20, 21: 20}

    def test_connected_components_empty(self, ray_session):
        import pandas as pd
        from gxdindexer_ray.ops.dedup import connected_components

        comp = connected_components(pd.DataFrame(columns=["a", "b"]))
        assert len(comp) == 0

    def test_dedup_corpus_first_wins_per_cluster(self, ray_session):
        import pyarrow as pa
        import ray.data as rd
        from gxdindexer_ray.ops.dedup import dedup_corpus

        base = "the quick brown fox jumps over the lazy dog again and again today "
        texts = {
            0: base * 6,                               # cluster A winner
            1: base * 6 + "tiny tail change",          # near-dup of 0
            2: base * 6 + "another tiny tail",         # near-dup of 0
            3: "completely different content about ray data pipelines " * 8,
            4: "completely different content about ray data pipelines " * 8 + "x y",
            5: "an entirely unrelated document with its own words " * 9,
        }
        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array(list(texts), pa.int64()),
            "text": pa.array(list(texts.values()), pa.string()),
        }))
        kept = sorted(r["doc_id"] for r in dedup_corpus(ds, threshold=0.5).take_all())
        assert kept == [0, 3, 5]

    def test_stable_bucket_ids_value_deterministic(self):
        import pandas as pd
        import numpy as np
        from gxdindexer_ray.ops.relational import bucket_ids

        a = pd.DataFrame({"a": [45, 7, 45], "b": [413, 9, 413]})
        b = pd.DataFrame({"a": [45], "b": [413]})
        ba = bucket_ids(pa.table(a), ["a", "b"], 64)
        bb = bucket_ids(pa.table(b), ["a", "b"], 64)
        assert ba[0] == ba[2] == bb[0]
        s1 = pd.DataFrame({"k": ["x\x00y", "zz"]})
        s2 = pd.DataFrame({"k": ["zz"]})
        assert bucket_ids(pa.table(s1), ["k"], 32)[1] == bucket_ids(pa.table(s2), ["k"], 32)[0]
        # pinned literal bucket ids at n=64: every exchange, sink file and
        # co-partitioned iteration depends on these exact values
        ints = pd.DataFrame({"k": [0, 1, 7, 45, 2 ** 53 + 1, -3]})
        assert bucket_ids(pa.table(ints), ["k"], 64).tolist() == [0, 61, 7, 26, 61, 6]
        two = pd.DataFrame({"a": [45, 7, 0], "b": [413, 9, -1]})
        assert bucket_ids(pa.table(two), ["a", "b"], 64).tolist() == [35, 40, 36]
        strs = pd.DataFrame({"k": ["x", "zz", "", "x\x00y", "héllo"]})
        assert bucket_ids(pa.table(strs), ["k"], 64).tolist() == [15, 9, 52, 30, 11]
        mixed = pd.DataFrame({"a": [45, 7], "s": ["x", "zz"]})
        assert bucket_ids(pa.table(mixed), ["a", "s"], 64).tolist() == [24, 34]
        # pinned blake2b token hashes (64-bit, and the two 128-bit halves)
        from gxdindexer_ray.ops.dedup import _token_hash_pairs_flat, _token_hashes_flat
        th = _token_hashes_flat(pa.array(["the", "ray", "the", ""]))
        assert th.tolist() == [0x5EDAAB6C90973A2E, 0x02B8CEC666A8AC26,
                               0x5EDAAB6C90973A2E, 0xE4A6A0577479B2B4]
        h1, h2 = _token_hash_pairs_flat(pa.array(["the", "ray", ""]))
        assert h1.tolist() == [0x35D8713B95E970DE, 0x3E5D0411C5A2B8E4,
                               0xCAE66941D9EFBD40]
        assert h2.tolist() == [0x6322CDE266F89293, 0x16D0F0D4DB316F96,
                               0x4E4D88758EA67670]


def test_simhash_near_dup_hamming_buckets(ray_session):
    """Constructed near-identical docs must pair up (exact recall for
    hamming < bands); unrelated docs must not."""
    import pyarrow as pa
    import ray.data as rd
    from gxdindexer_ray.ops.dedup import simhash, simhash_near_dup

    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon ") * 5
    texts = {
        0: base,
        1: base + "one extra token",
        2: base.replace("gamma", "gamma2", 1),
        3: "wholly different words about distributed indexing engines " * 10,
        4: "yet another unrelated corpus of tokens for the test " * 10,
    }
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(list(texts), pa.int64()),
        "text": pa.array(list(texts.values()), pa.string()),
    }))
    out = simhash_near_dup(ds, max_hamming=3)
    got = set(zip(out["a"], out["b"]))
    assert (0, 1) in got and (0, 2) in got
    assert not any(3 in p or 4 in p for p in got)
    sh = simhash(ds).to_pandas()
    _assert_brute_simhash_pairs(out, sh["doc_id"], sh["simhash"], 3)


def _assert_brute_simhash_pairs(out, ids, vals, max_hamming):
    """``out`` equals brute-force all-pairs popcount <= max_hamming:
    the same (a, b) pairs (a < b) with the same hamming values."""
    ids = np.asarray(ids, np.int64)
    vals = np.asarray(vals, np.int64)
    i, j = np.triu_indices(ids.size, 1)
    x = vals[i] ^ vals[j]
    ham = np.array([bin(int(v)).count("1") for v in x], np.int64)
    hit = ham <= max_hamming
    exp = pd.DataFrame({"a": np.minimum(ids[i], ids[j])[hit],
                        "b": np.maximum(ids[i], ids[j])[hit],
                        "hamming": ham[hit]}) \
        .sort_values(["a", "b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(out.reset_index(drop=True), exp,
                                  check_dtype=False)


def test_simhash_near_dup_exact_pair_set(ray_session, monkeypatch):
    """The vectorized chunk-group pair generator finds exactly the
    brute-force pair set on planted fingerprints, one chunk group above
    the 512-doc cap included. Its members differ at random above their
    shared band-0 chunk; the near-dups planted among them also share a
    band-3 chunk, so the star+chain cap loses none of them."""
    import ray.data as rd

    from gxdindexer_ray.ops import dedup

    rng = np.random.default_rng(11)
    hot = (rng.integers(0, 1 << 47, 600) << 16) | 0xBEEF    # 600 > 512
    cold = rng.integers(0, np.iinfo(np.int64).max, 300)

    def flip(v, lo, hi):
        # 0-3 distinct bit flips inside bits [lo, hi)
        for bit in rng.choice(np.arange(lo, hi), rng.integers(0, 4),
                              replace=False):
            v = v ^ (1 << int(bit))
        return v

    near_hot = [flip(int(v), 16, 48) for v in hot[:40]]     # bands 1-2
    near_cold = [flip(int(v), 0, 63) for v in cold[:60]]
    far_cold = [int(v) ^ 0b1111 << 20 for v in cold[60:70]]  # 4 bits: no pair
    vals = np.array([*hot, *cold, *near_hot, *near_cold, *far_cold], np.int64)
    ids = rng.permutation(vals.size).astype(np.int64) * 3 + 1
    ds = rd.from_pandas(pd.DataFrame({"doc_id": ids, "simhash": vals}))
    monkeypatch.setattr(dedup, "simhash", lambda ds, **kw: ds)
    out = dedup.simhash_near_dup(ds, max_hamming=3)
    assert len(out) >= 100
    _assert_brute_simhash_pairs(out, ids, vals, 3)


def test_hash_exchange_apply_group_integrity(ray_session):
    """Regression for the Ray map_groups split-delivery bug: the same key
    scattered across MANY tiny blocks must reach exactly ONE fn call.
    (groupby().map_groups intermittently delivered a key's rows across two
    calls on this Ray build — reproduced before the explicit exchange.)"""
    import pandas as pd
    import ray.data as rd
    from gxdindexer_ray.ops.relational import exchange

    frames = []
    for i in range(60):  # 60 blocks; key 7 appears in every block
        frames.append(pd.DataFrame({"k": np.array([7, i % 11], dtype=np.int64),
                                    "v": np.array([i, i], dtype=np.int64)}))
    ds = rd.from_pandas(frames)

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": [int(g["k"].iloc[0])], "rows": [len(g)],
                             "calls": [1]})

    for _ in range(3):
        out = exchange(ds, per_group, by="k", batch_format="pandas").to_pandas()
        per_key = out.groupby("k")[["rows", "calls"]].sum()
        assert int(per_key.loc[7, "calls"]) == 1
        assert int(per_key.loc[7, "rows"]) == 60 + sum(1 for i in range(60) if i % 11 == 7)


def test_exchange_runs_upstream_udf_once_per_block(ray_session, tmp_path):
    """exchange() executes a lazy Dataset source exactly once: a UDF
    upstream of it runs once per block. (A lazy ``to_arrow_refs()`` re-ran
    part of the plan afterwards to fetch the unknown schema, so the UDF
    ran more often than there are blocks.)"""
    import uuid

    import pyarrow.compute as pc
    import ray.data as rd
    from gxdindexer_ray.ops.relational import exchange

    calls = tmp_path / "calls"
    calls.mkdir()

    def double(t: pa.Table) -> pa.Table:
        (calls / uuid.uuid4().hex).touch()  # one file per call, any process
        return t.append_column("v2", pc.multiply(t["v"], 2))

    blocks = [pa.table({"k": np.arange(10 * i, 10 * i + 10, dtype=np.int64),
                        "v": np.arange(10, dtype=np.int64)}) for i in range(3)]
    ds = rd.from_arrow(blocks).map_batches(double, batch_format="pyarrow",
                                           batch_size=None)
    out = exchange(ds, lambda g: g, keys=["k"], batch_format="pyarrow").to_pandas()
    assert sorted(out["k"]) == list(range(30))
    assert (out["v2"] == 2 * out["v"]).all()
    assert len(list(calls.iterdir())) == len(blocks)


def test_embedding_lsh_near_dup_recall_and_precision(ray_session):
    """Hyperplane-LSH near-dup vs the exact tile join on constructed
    high-cosine near-dups: output must be a SUBSET of the exact pairs
    (precision 1 by construction — candidates are exactly verified) and
    recall of planted sim~0.98 pairs must meet the banding bound."""
    import ray.data as rd
    from gxdindexer_ray.ops.similarity import embedding_lsh_near_dup, embedding_near_dup

    rng = np.random.default_rng(11)
    base = rng.standard_normal((200, 32))
    planted = base[:25] + 0.12 * rng.standard_normal((25, 32))  # sim ~0.97-0.99
    m = np.concatenate([base, planted]).astype(np.float32)
    ids = np.arange(225, dtype=np.int64)

    def mk():
        vals = pa.array(m.reshape(-1), pa.float32())
        offs = pa.array((np.arange(226) * 32).astype(np.int32), pa.int32())
        return rd.from_arrow(pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.ListArray.from_arrays(offs, vals),
        }))

    exact = embedding_near_dup(mk(), threshold=0.9)
    exact_pairs = set(zip(exact["a"], exact["b"]))
    got = embedding_lsh_near_dup(mk(), mk(), threshold=0.9)
    got_pairs = set(zip(got["a"], got["b"]))
    assert got_pairs <= exact_pairs            # precision 1
    planted_pairs = {(i, 200 + i) for i in range(25)} & exact_pairs
    assert len(planted_pairs) >= 20            # construction sanity
    recall = len(got_pairs & planted_pairs) / len(planted_pairs)
    assert recall >= 0.8, recall


def test_hash_exchange_many_blocks_stress(ray_session):
    """Exchange-metadata scale contract: >=1k input blocks x 64 buckets must
    (a) keep the driver footprint at O(partition tasks + buckets) — blocks are
    chunked ~16 per partition task, so the driver never ray.gets a
    per-(block, bucket) map — and (b) preserve group integrity: every key's
    rows reach exactly ONE fn call, with nothing lost or duplicated."""
    import pandas as pd
    import ray.data as rd
    from gxdindexer_ray.ops.relational import exchange

    n_blocks, rows_per_block, n_keys = 1024, 4, 257
    frames = []
    rng = np.random.default_rng(7)
    for i in range(n_blocks):
        ks = rng.integers(0, n_keys, size=rows_per_block)
        frames.append(pd.DataFrame({"k": ks.astype(np.int64),
                                    "v": np.full(rows_per_block, i, dtype=np.int64)}))
    expect = pd.concat(frames).groupby("k")["v"].agg(["count", "sum"])
    ds = rd.from_pandas(frames)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("k")["v"].agg(["count", "sum"]).reset_index()
        agg["calls"] = 1
        return agg

    out = exchange(ds, per_bucket, keys=["k"], n_buckets=64,
                   batch_format="pandas").to_pandas()
    per_key = out.groupby("k")[["count", "sum", "calls"]].sum()
    assert len(per_key) == len(expect)
    assert (per_key["calls"] == 1).all()          # one fn call saw each key
    assert (per_key["count"] == expect["count"]).all()
    assert (per_key["sum"] == expect["sum"]).all()


def test_transitive_closure_distributed_matches_driver_variant(ray_session):
    """The fully-distributed closure (Dataset-resident seen-set) must equal
    the driver-set variant on the same DAG."""
    import pandas as pd
    import ray.data as rd
    from gxdindexer_ray.ops.graph import transitive_closure, transitive_closure_distributed

    edges = pd.DataFrame({
        "src": ["a", "a", "b", "c", "d", "x"],
        "dst": ["b", "c", "d", "d", "e", "y"],
    })
    want = transitive_closure(rd.from_pandas(edges))
    got = transitive_closure_distributed(rd.from_pandas(edges)).to_pandas()
    got = got.sort_values(["src", "dst"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want.sort_values(["src", "dst"]).reset_index(drop=True))


def test_smart_alpha_key_matches_chunk_comparator():
    """The padded-key order equals a scalar chunk-by-chunk smart-alpha
    comparator (digit runs numeric, alpha runs case-insensitive, original
    string tie-break) on random mixed strings."""
    import functools
    import random
    import re

    import pyarrow as pa

    from gxdindexer_ray.ops.collation import smart_alpha_key_one, smart_alpha_keys

    split = re.compile(r"(\d+)")

    def chunks(s: str):
        return [c for c in split.split(s) if c != ""]

    def cmp_chunks(a: str, b: str) -> int:
        for ca, cb in zip(chunks(a), chunks(b)):
            da, db = ca.isdigit(), cb.isdigit()
            if da and db:
                if int(ca) != int(cb):
                    return -1 if int(ca) < int(cb) else 1
            else:
                la, lb = ca.lower(), cb.lower()
                if la != lb:
                    return -1 if la < lb else 1
        if len(chunks(a)) != len(chunks(b)):
            return -1 if len(chunks(a)) < len(chunks(b)) else 1
        return -1 if a < b else (1 if a > b else 0)

    rng = random.Random(3)
    pool = "abXY 059"
    vals = list({"".join(rng.choice(pool) for _ in range(rng.randint(1, 9)))
                 for _ in range(400)})
    # chunk-type boundaries in this pool are digit/alpha only (no mixed-type
    # chunk comparisons where key order and comparator order can differ on
    # pathological prefixes); plus realistic label shapes
    vals += ["Brand#5-1", "Brand#13-1", "brand#5-2", "fig2", "fig10", "FIG2x"]
    by_cmp = sorted(vals, key=functools.cmp_to_key(cmp_chunks))
    by_key = sorted(vals, key=lambda s: (smart_alpha_key_one(s), s))
    assert by_key == by_cmp
    # vectorized == scalar
    got = smart_alpha_keys(pa.array(vals, pa.string())).to_pylist()
    assert got == [smart_alpha_key_one(s) for s in vals]
    # the headline semantic: numeric-aware, case-insensitive
    assert sorted(["Brand#13", "Brand#5"],
                  key=lambda s: (smart_alpha_key_one(s), s)) == ["Brand#5", "Brand#13"]


class TestBroadcastFreePrimitives:
    """Contracts for the crawl-scale dedup path: the range-sliced id
    semi-join filter, the pinned-bucket connected components, and the
    no-corpus-scale-driver-broadcast guarantee of dedup_corpus."""

    def test_ranged_id_filter_keep_exclude_and_dupes(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from gxdindexer_ray.ops.relational import ranged_id_filter

        n = 5000
        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "payload": pa.array(np.arange(n) * 2, pa.int64()),
        })).repartition(8)
        wanted = np.arange(0, n, 7, dtype=np.int64)
        # duplicated + unordered id set (the verify path concats a||b):
        # membership semantics — dupes must not duplicate output rows
        ids = rd.from_arrow(pa.table({
            "cid": pa.array(np.concatenate([wanted[::-1], wanted[:100]]), pa.int64()),
        })).repartition(3)
        kept = ranged_id_filter(ds, ids, "doc_id", ids_col="cid",
                                keep=True, chunk_rows=100)
        got = np.sort(np.fromiter((r["doc_id"] for r in kept.take_all()), np.int64))
        assert np.array_equal(got, wanted)
        dropped = ranged_id_filter(ds, ids, "doc_id", ids_col="cid",
                                   keep=False, chunk_rows=100)
        gd = np.sort(np.fromiter((r["doc_id"] for r in dropped.take_all()), np.int64))
        assert np.array_equal(gd, np.setdiff1d(np.arange(n), wanted))

    def test_ranged_id_filter_empty_id_set(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from gxdindexer_ray.ops.relational import ranged_id_filter

        ds = rd.from_arrow(pa.table({"doc_id": pa.array(np.arange(50), pa.int64())}))
        empty = rd.from_arrow(pa.table({"cid": pa.array([], pa.int64())}))
        assert ranged_id_filter(ds, empty, "doc_id", ids_col="cid",
                                keep=True).count() == 0
        assert ranged_id_filter(ds, empty, "doc_id", ids_col="cid",
                                keep=False).count() == 50

    _ONE_CPU_RANGED_FILTER = """
import json
import numpy as np, pyarrow as pa, ray, ray.data as rd
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from gxdindexer_ray.ops.relational import ranged_id_filter
ds = rd.from_arrow(pa.table({"doc_id": pa.array(np.arange(5000), pa.int64())})).repartition(8)
ids = rd.from_arrow(pa.table({"cid": pa.array(np.arange(0, 5000, 7)[::-1], pa.int64())}))
out = [sorted(r["doc_id"] for r in ranged_id_filter(
    ds, ids.repartition(3), "doc_id", ids_col="cid", keep=keep, chunk_rows=100).take_all())
       for keep in (True, False)]
ray.shutdown()
print(json.dumps(out))
"""

    def test_ranged_id_filter_one_cpu(self):
        """ranged_id_filter finishes on a one-CPU Ray session (its filter
        runs in tasks; as an actor pool it held the only CPU its upstream
        tasks needed, and q26/q41/q104/q119 hung). Its own session, in a
        subprocess under a hard timeout, since a hang never returns."""
        import json
        import os
        import signal
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=root)
        proc = subprocess.Popen([sys.executable, "-c", self._ONE_CPU_RANGED_FILTER],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env, start_new_session=True, text=True)
        try:
            stdout, stderr = proc.communicate(timeout=180)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("ranged_id_filter did not finish in 180 s on a 1-CPU Ray session")
        assert proc.returncode == 0, stderr[-2000:]
        kept, dropped = json.loads(stdout.strip().splitlines()[-1])
        assert kept == list(range(0, 5000, 7))
        assert dropped == sorted(set(range(5000)) - set(kept))

    def test_connected_components_ds_chain_single_edge_exchange(
            self, ray_session, monkeypatch):
        """A diameter-20 chain needs ~20 propagation rounds; the edge set
        must be hash-partitioned exactly ONCE (pinned buckets) — rounds
        ship only label proposals, never the edges."""
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from gxdindexer_ray.ops import relational
        from gxdindexer_ray.ops.dedup import connected_components_ds

        calls = {"n": 0}
        real = relational.exchange

        def counting(*a, **k):
            calls["n"] += 1
            return real(*a, **k)

        monkeypatch.setattr(relational, "exchange", counting)
        chain = pd.DataFrame({"a": np.arange(20), "b": np.arange(1, 21)})
        extra = pd.DataFrame({"a": [100, 200], "b": [101, 201]})
        edges = rd.from_pandas(pd.concat([chain, extra], ignore_index=True))
        out = connected_components_ds(edges, n_buckets=8).to_pandas()
        got = dict(zip(out["node"], out["comp"]))
        assert all(got[i] == 0 for i in range(21))
        assert got[100] == got[101] == 100 and got[200] == got[201] == 200
        assert calls["n"] == 1

    def test_dedup_corpus_no_corpus_scale_driver_broadcast(
            self, ray_session, monkeypatch):
        """40%-dup-rate fixture: at crawl dup rates the loser id set is
        corpus-scale, so the driver must never ray.put an Arrow container
        (the old loser-broadcast) — only tiny param tuples / functions."""
        import numpy as np
        import pyarrow as pa
        import ray
        import ray.data as rd

        from gxdindexer_ray.ops.dedup import dedup_corpus

        rng = np.random.default_rng(11)
        words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
                 "golf", "hotel", "india", "juliet", "kilo", "lima"]
        n_base, texts, ids = 120, [], []
        for i in range(n_base):
            base = " ".join(rng.choice(words, size=40).tolist())
            texts.append(base)
            ids.append(i)
            if i % 5 < 2:  # 40% of rows are near-dups of a base doc
                texts.append(base + " zulu")
                ids.append(1000 + i)
        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
        })).repartition(4).materialize()

        puts = []
        real_put = ray.put

        def spying_put(obj, **kw):
            puts.append(obj)
            return real_put(obj, **kw)

        monkeypatch.setattr(ray, "put", spying_put)
        kept = sorted(r["doc_id"] for r in dedup_corpus(ds, threshold=0.5).take_all())
        # first-wins: every base id survives, every 1000+ dup loses
        assert [k for k in kept if k < 1000] == list(range(n_base))
        assert not [k for k in kept if k >= 1000]
        offenders = [o for o in puts
                     if isinstance(o, (pa.Table, pa.Array, pa.ChunkedArray))]
        assert not offenders, f"driver broadcast Arrow payloads: {offenders[:3]}"
        big = [o for o in puts if isinstance(o, np.ndarray) and o.nbytes > 8192]
        assert not big, "driver broadcast a corpus-scale numpy array"

    def test_exact_text_dedup_null_and_empty_groups(self, ray_session):
        """SQL GROUP BY md5(text) parity: all-null texts form ONE group,
        distinct from the empty-string group (md5(NULL) IS NULL)."""
        import pyarrow as pa
        import ray.data as rd

        from gxdindexer_ray.ops.textops import exact_text_dedup

        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array([5, 1, 2, 3, 4], pa.int64()),
            "text": pa.array([None, None, "", "", "x"], pa.string()),
        }))
        out = exact_text_dedup(ds).to_pandas().sort_values("keep_id")
        got = dict(zip(out["keep_id"], out["n_copies"]))
        assert got == {1: 2, 2: 2, 4: 1}


class TestTemporalJoins:
    def _sides(self, rd, pd_mod):
        import pandas as pd
        left = pd.DataFrame({
            "k": [1, 1, 1, 2, 2, 3],
            "t": pd.to_datetime(["2024-01-01 10:00", "2024-01-01 11:00",
                                 "2024-01-01 09:00", "2024-01-01 10:30",
                                 "2024-01-01 08:00", "2024-01-01 12:00"]),
            "lid": [10, 11, 12, 20, 21, 30],
        })
        right = pd.DataFrame({
            "k": [1, 1, 1, 2, 9],
            "t": pd.to_datetime(["2024-01-01 09:30", "2024-01-01 09:30",
                                 "2024-01-01 10:30", "2024-01-01 10:00",
                                 "2024-01-01 00:00"]),
            "rid": [100, 101, 102, 200, 900],
        })
        return rd.from_pandas(left), rd.from_pandas(right)

    def test_asof_backward_ties_and_inner(self, ray_session):
        import pandas as pd
        import ray.data as rd
        from gxdindexer_ray.ops.relational import asof_join

        l, r = self._sides(rd, pd)
        out = asof_join(l, r, on="t", by="k", how="inner").to_pandas()
        got = dict(zip(out["lid"], out["rid"]))
        # lid 10 (10:00): latest prior is 09:30 — TIE between rid 100/101,
        # deterministic winner = max remaining tuple (101)
        assert got == {10: 101, 11: 102, 20: 200}
        assert len(out) == 3  # 12, 21, 30 unmatched and dropped

    def test_asof_left_and_exact(self, ray_session):
        import pandas as pd
        import ray.data as rd
        from gxdindexer_ray.ops.relational import asof_join

        l, r = self._sides(rd, pd)
        out = asof_join(l, r, on="t", by="k", how="left",
                        allow_exact=True).to_pandas()
        assert len(out) == 6
        got = dict(zip(out["lid"], out["rid"]))
        assert got[20] == 200  # 10:30 >= 10:00; exact match not needed
        assert got[11] == 102
        assert pd.isna(got[30]) and pd.isna(got[12]) and pd.isna(got[21])

    def test_asof_forward(self, ray_session):
        import pandas as pd
        import ray.data as rd
        from gxdindexer_ray.ops.relational import asof_join

        l, r = self._sides(rd, pd)
        out = asof_join(l, r, on="t", by="k", direction="forward",
                        how="inner").to_pandas()
        got = dict(zip(out["lid"], out["rid"]))
        # forward: earliest strictly-later; lid 12 (09:00) -> 09:30 tie ->
        # min remaining tuple (100); lid 10 (10:00) -> 10:30 (102)
        assert got == {12: 100, 10: 102, 21: 200}

    def test_asof_matches_duckdb_window_on_random(self, ray_session):
        import numpy as np
        import pandas as pd
        import duckdb
        import ray.data as rd
        from gxdindexer_ray.ops.relational import asof_join

        rng = np.random.default_rng(5)
        n_l, n_r = 400, 300
        left = pd.DataFrame({
            "k": rng.integers(0, 20, n_l), "lid": np.arange(n_l),
            "t": rng.integers(0, 1000, n_l).astype(np.int64)})
        right = pd.DataFrame({
            "k": rng.integers(0, 20, n_r), "rid": np.arange(n_r),
            "t": rng.integers(0, 1000, n_r).astype(np.int64)})
        out = asof_join(rd.from_pandas(left).repartition(5),
                        rd.from_pandas(right).repartition(4),
                        on="t", by="k", how="inner").to_pandas()
        con = duckdb.connect()
        con.register("l", left); con.register("r", right)
        orc = con.execute("""
            WITH j AS (SELECT l.lid, r.rid,
                              row_number() OVER (PARTITION BY l.lid
                                  ORDER BY r.t DESC, r.rid DESC) rn
                       FROM l JOIN r ON r.k = l.k AND r.t < l.t)
            SELECT lid, rid FROM j WHERE rn = 1
        """).fetchdf()
        a = out[["lid", "rid"]].sort_values("lid").reset_index(drop=True)
        b = orc.sort_values("lid").reset_index(drop=True).astype({"rid": a["rid"].dtype})
        pd.testing.assert_frame_equal(a, b, check_dtype=False)

    def test_range_band_join_left_and_inner(self, ray_session):
        import numpy as np
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd
        from gxdindexer_ray.ops.relational import range_band_join

        bands = pd.DataFrame({"lo": [0, 10, 20], "hi": [10, 20, 30],
                              "band": ["a", "b", "c"]})
        ds = rd.from_arrow(pa.table({
            "v": pa.array([-5.0, 0.0, 9.99, 10.0, 25.0, 30.0, 99.0], pa.float64()),
            "row": pa.array(list(range(7)), pa.int64())}))
        inner = range_band_join(ds, bands, value_col="v").to_pandas()
        assert dict(zip(inner["row"], inner["band"])) == {1: "a", 2: "a", 3: "b", 4: "c"}
        left = range_band_join(ds, bands, value_col="v", how="left").to_pandas()
        assert len(left) == 7
        assert pd.isna(left.loc[left["row"] == 0, "band"]).all()
        assert pd.isna(left.loc[left["row"] == 6, "band"]).all()

    def test_range_band_join_rejects_overlap(self, ray_session):
        import pandas as pd
        import pytest
        import ray.data as rd
        from gxdindexer_ray.ops.relational import range_band_join

        bands = pd.DataFrame({"lo": [0, 5], "hi": [10, 15], "band": ["a", "b"]})
        with pytest.raises(ValueError):
            range_band_join(rd.from_items([{"v": 1.0}]), bands, value_col="v")


class TestDeterministicSampling:
    def test_hash_sample_partition_invariant_and_rate(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd
        from gxdindexer_ray.ops.sampling import hash_sample

        n = 20000
        tbl = pa.table({"event_id": pa.array(np.arange(n), pa.int64())})
        a = hash_sample(rd.from_arrow(tbl), id_col="event_id", rate=0.2)
        b = hash_sample(rd.from_arrow(tbl).repartition(13), id_col="event_id", rate=0.2)
        ida = sorted(r["event_id"] for r in a.take_all())
        idb = sorted(r["event_id"] for r in b.take_all())
        assert ida == idb  # block split cannot change the sample
        assert abs(len(ida) / n - 0.2) < 0.02  # Bernoulli rate honored
        # seed changes the sample
        c = hash_sample(rd.from_arrow(tbl), id_col="event_id", rate=0.2, seed=7)
        assert sorted(r["event_id"] for r in c.take_all()) != ida

    def test_hash_sample_per_key_exact_k_and_stability(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd
        from gxdindexer_ray.ops.sampling import hash_sample_per_key
        from gxdindexer_ray.ops.relational import _splitmix64

        rng = np.random.default_rng(3)
        df = pd.DataFrame({"k": rng.choice(list("abcd"), 5000),
                           "i": np.arange(5000, dtype=np.int64)})
        df.loc[df["k"] == "d", "k"] = "tiny"
        df = pd.concat([df[df["k"] != "tiny"].iloc[:4000],
                        df[df["k"] == "tiny"].iloc[:2]], ignore_index=True)
        out = hash_sample_per_key(rd.from_pandas(df).repartition(7),
                                  key_col="k", id_col="i", k=5).to_pandas()
        sizes = out.groupby("k").size().to_dict()
        assert sizes.pop("tiny") == 2  # min(k, group size)
        assert all(v == 5 for v in sizes.values())
        # winners = the k smallest splitmix64(i) per key, exactly
        h = _splitmix64(df["i"].to_numpy().view(np.uint64))
        expect = (pd.DataFrame({"k": df["k"], "i": df["i"], "h": h})
                  .sort_values(["k", "h"]).groupby("k").head(5))
        got = set(map(tuple, out[["k", "i"]].to_numpy()))
        assert got == set(map(tuple, expect[["k", "i"]].to_numpy()))


class TestExactQuantiles:
    def test_matches_duckdb_with_duplicates_and_tiny_cap(self, ray_session):
        """Duplicate-heavy spike + forced multi-pass refinement (tiny
        exact_cap) must still equal SQL quantile_disc bit-for-bit."""
        import duckdb
        import numpy as np
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd
        from gxdindexer_ray.ops.sketches import exact_quantiles

        rng = np.random.default_rng(1)
        v = np.concatenate([rng.normal(0, 1, 30000), np.full(15000, 3.25),
                            rng.uniform(50, 60, 200)])
        ds = rd.from_arrow(pa.table({"x": pa.array(v, pa.float64())})).repartition(7)
        qs = [0.0, 0.05, 0.5, 0.66, 0.95, 1.0]
        out = exact_quantiles(ds, "x", qs, n_bins=16, exact_cap=64)
        con = duckdb.connect()
        con.register("t", pd.DataFrame({"x": v}))
        for q, val in zip(out["q"], out["value"]):
            exp = con.execute(f"SELECT quantile_disc(x, {q}) FROM t").fetchone()[0]
            assert val == exp, (q, val, exp)

    def test_nulls_ignored_and_empty(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd
        from gxdindexer_ray.ops.sketches import exact_quantiles

        ds = rd.from_arrow(pa.table({
            "x": pa.array([None, 5.0, None, 1.0, 3.0], pa.float64())}))
        out = exact_quantiles(ds, "x", [0.5])
        assert out["value"].tolist() == [3.0]  # rank ceil(0.5*3)=2 -> 3.0
        empty = rd.from_arrow(pa.table({"x": pa.array([], pa.float64())}))
        out = exact_quantiles(empty, "x", [0.5])
        assert np.isnan(out["value"]).all()

    def test_hash_split_stable_and_filter_invariant(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd
        from gxdindexer_ray.ops.sampling import hash_split

        n = 10000
        tbl = pa.table({"event_id": pa.array(np.arange(n), pa.int64())})
        sp = {"train": 0.8, "valid": 0.1, "test": 0.1}
        full = hash_split(rd.from_arrow(tbl), id_col="event_id", splits=sp).to_pandas()
        fracs = full["split"].value_counts(normalize=True)
        assert abs(fracs["train"] - 0.8) < 0.02
        assert abs(fracs["valid"] - 0.1) < 0.01
        # filter invariance: a row's split is unchanged when the corpus
        # around it shrinks (the anti-leakage property)
        sub = hash_split(rd.from_arrow(tbl.filter(pa.array(np.arange(n) % 3 == 0))),
                         id_col="event_id", splits=sp).to_pandas()
        merged = sub.merge(full, on="event_id", suffixes=("_sub", "_full"))
        assert (merged["split_sub"] == merged["split_full"]).all()

    def test_hash_split_rejects_bad_fractions(self, ray_session):
        import pytest
        import ray.data as rd
        from gxdindexer_ray.ops.sampling import hash_split

        with pytest.raises(ValueError):
            hash_split(rd.from_items([{"event_id": 1}]), id_col="event_id",
                       splits={"a": 0.5, "b": 0.4})


class TestPageRank:
    def test_matches_dense_reference(self, ray_session):
        """Distributed pinned-bucket PageRank == single-process power
        iteration (same damping/iteration semantics, uniform dangling
        redistribution) to 1e-9, on a graph with hubs, dangling nodes and
        a disconnected component; ranks sum to 1."""
        import numpy as np
        import pandas as pd
        import ray.data as rd
        from gxdindexer_ray.ops.graph import pagerank

        rng = np.random.default_rng(8)
        n, m = 300, 1500
        srcs = rng.integers(0, n, m)
        dsts = rng.integers(0, n, m)
        hub = rng.integers(0, n, 200)  # super-hub fan-in
        edges = pd.DataFrame({
            "src": np.r_[srcs, hub, [777, 778]].astype(np.int64) * 13 + 5,
            "dst": np.r_[dsts, np.full(200, 42), [778, 777]].astype(np.int64) * 13 + 5,
        }).drop_duplicates()
        out = pagerank(rd.from_pandas(edges).repartition(6),
                       damping=0.85, iters=25, tol=0.0).to_pandas()

        ids = np.unique(np.r_[edges["src"].to_numpy(), edges["dst"].to_numpy()])
        idx = {v: i for i, v in enumerate(ids)}
        N = ids.size
        u = edges["src"].map(idx).to_numpy()
        v = edges["dst"].map(idx).to_numpy()
        outdeg = np.bincount(u, minlength=N)
        pr = np.full(N, 1.0 / N)
        d = 0.85
        for _ in range(25):
            dang = pr[outdeg == 0].sum()
            new = np.full(N, (1 - d) / N + d * dang / N)
            np.add.at(new, v, d * pr[u] / outdeg[u])
            pr = new
        got = out.set_index("node")["rank"]
        assert len(got) == N
        assert abs(got.sum() - 1.0) < 1e-9
        for nid, i in idx.items():
            assert abs(got[nid] - pr[i]) < 1e-9, nid

    def test_pagerank_empty(self, ray_session):
        import pandas as pd
        import ray.data as rd
        from gxdindexer_ray.ops.graph import pagerank

        empty = rd.from_pandas(pd.DataFrame({"src": [], "dst": []})).materialize()
        assert pagerank(empty).count() == 0


class TestPartitionedSink:
    def test_write_resume_skips_finished(self, ray_session, tmp_path):
        import json
        import os
        from pathlib import Path
        import pandas as pd
        import pyarrow.parquet as pq
        import ray.data as rd
        from gxdindexer_ray.ops.sink import write_partitioned

        df = pd.DataFrame({"k": list(range(2000)), "v": [i * 3 for i in range(2000)]})
        ds = rd.from_pandas(df).repartition(5)
        out = tmp_path / "sink"
        man = write_partitioned(ds, out, key_cols=["k"], n_buckets=8)
        assert man["rows"].sum() == 2000 and len(man) == 8
        files = sorted(out.glob("part-*.parquet"))
        assert len(files) == 8
        full = pd.concat([pq.read_table(f).to_pandas() for f in files])
        assert sorted(full["k"]) == list(range(2000))

        # simulate a crashed partition: remove one data+manifest pair
        victim = man.iloc[3]
        os.remove(victim["path"])
        os.remove(victim["path"].replace(".parquet", ".json"))
        mtimes = {f.name: f.stat().st_mtime_ns for f in out.glob("part-*.parquet")}
        man2 = write_partitioned(ds, out, key_cols=["k"], n_buckets=8)
        assert man2["rows"].sum() == 2000 and len(man2) == 8
        for f in out.glob("part-*.parquet"):
            if f.name != Path(victim["path"]).name:
                # finished partitions untouched by the resume
                assert f.stat().st_mtime_ns == mtimes[f.name], f.name
        re_full = pd.concat([pq.read_table(f).to_pandas()
                             for f in sorted(out.glob("part-*.parquet"))])
        assert sorted(re_full["k"]) == list(range(2000))
        # torn manifest (json without commit content) = not committed
        bad = out / "part-00001.json"
        bad.write_text("{not json")
        man3 = write_partitioned(ds, out, key_cols=["k"], n_buckets=8)
        assert json.loads((out / "part-00001.json").read_text())["bucket"] == 1
        assert man3["rows"].sum() == 2000


class TestReviewRegressions:
    """Regression pins for the round-4 self-review findings."""

    def test_dedup_corpus_clean_corpus_no_candidates(self, ray_session):
        import pyarrow as pa
        import ray.data as rd
        from gxdindexer_ray.ops.dedup import dedup_corpus

        texts = [f"totally unique document number {i} " + " ".join(
            f"w{i}{j}" for j in range(30)) for i in range(40)]
        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array(list(range(40)), pa.int64()),
            "text": pa.array(texts, pa.string())}))
        kept = sorted(r["doc_id"] for r in dedup_corpus(ds).take_all())
        assert kept == list(range(40))

    def test_embedding_lsh_no_candidates(self, ray_session):
        import numpy as np
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd
        from gxdindexer_ray.ops.similarity import embedding_lsh_near_dup

        rng = np.random.default_rng(2)
        vecs = rng.normal(size=(30, 16))
        tbl = pa.table({
            "vec_id": pa.array(np.arange(30), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float64()))})
        ds = rd.from_arrow(tbl)
        out = embedding_lsh_near_dup(ds, ds, threshold=0.999)
        assert len(out) == 0

    def test_write_partitioned_idempotent_rerun(self, ray_session, tmp_path):
        import pandas as pd
        import ray.data as rd
        from gxdindexer_ray.ops.sink import write_partitioned

        ds = rd.from_pandas(pd.DataFrame({"k": range(100), "v": range(100)}))
        out = tmp_path / "sink2"
        m1 = write_partitioned(ds, out, key_cols=["k"], n_buckets=4)
        m2 = write_partitioned(ds, out, key_cols=["k"], n_buckets=4)  # full resume
        assert m1["rows"].sum() == m2["rows"].sum() == 100
        assert len(m2) == 4

    def test_hopping_window_ns_timestamps(self, ray_session):
        import pandas as pd
        import ray.data as rd
        from gxdindexer_ray.ops.windows import hopping_window

        ts = pd.to_datetime(["2024-01-01 10:15", "2024-01-01 10:45"])  # ns unit
        df = pd.DataFrame({"event_type": ["a", "a"], "ts": ts, "value": [1.0, 2.0]})
        out = hopping_window(rd.from_pandas(df), window_s=3600, hop_s=1800).to_pandas()
        base = int(pd.Timestamp("2024-01-01 10:00").timestamp())
        got = dict(zip(out["window_start"], out["n"]))
        # 10:15 -> windows 10:00, 09:30; 10:45 -> 10:30, 10:00
        assert got == {base: 2, base - 1800: 1, base + 1800: 1}

    def test_asof_join_nullable_int_key(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd
        from gxdindexer_ray.ops.relational import asof_join

        left = pd.DataFrame({"k": pd.array([1, 2, 7], dtype="Int64"),
                             "t": [10, 20, 30], "lid": [0, 1, 2]})
        # right split so one batch carries a null (float64 numpy dtype)
        # and the other does not (int64) — both must bucket k=7 identically
        r1 = pd.DataFrame({"k": pd.array([7, None], dtype="Int64"),
                           "t": [5, 1], "rid": [100, 999]})
        r2 = pd.DataFrame({"k": pd.array([1, 2], dtype="Int64"),
                           "t": [5, 15], "rid": [101, 102]})
        right = rd.from_pandas(r1).union(rd.from_pandas(r2))
        out = asof_join(rd.from_pandas(left), right, on="t", by="k",
                        how="inner", n_buckets=16).to_pandas()
        got = dict(zip(out["lid"], out["rid"]))
        assert got == {0: 101, 1: 102, 2: 100}

    def test_exact_quantiles_one_ulp_bracket(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd
        from gxdindexer_ray.ops.sketches import exact_quantiles

        x = 100.0
        y = np.nextafter(x, np.inf)
        v = np.r_[np.full(200, x), np.full(200, y)]
        ds = rd.from_arrow(pa.table({"x": pa.array(v, pa.float64())}))
        out = exact_quantiles(ds, "x", [0.25, 1.0], n_bins=8, exact_cap=50)
        got = dict(zip(out["q"], out["value"]))
        assert got[0.25] == x      # rank 100 <= 200 copies of x
        assert got[1.0] == y       # rank 400 lands in the upper value

    def test_smart_alpha_long_digit_runs_and_zero_ties(self):
        from gxdindexer_ray.ops.collation import smart_alpha_key_one

        big_a = "id" + "9" * 30
        big_b = "id1" + "0" * 30  # 31 digits, numerically larger
        assert smart_alpha_key_one(big_a) < smart_alpha_key_one(big_b)
        # numerically equal runs key EQUAL; original string breaks the tie
        assert smart_alpha_key_one("a007b") == smart_alpha_key_one("a7b")
        assert sorted(["a7b", "a007b"],
                      key=lambda s: (smart_alpha_key_one(s), s)) == ["a007b", "a7b"]


class TestNetpbmDecode:
    def test_roundtrip_p5_p6_and_comments(self):
        import numpy as np
        from gxdindexer_ray.ops.multimodal import (
            decode_image, encode_netpbm, resize_image)

        rng = np.random.default_rng(4)
        gray = rng.integers(0, 256, (17, 9), dtype=np.uint8)
        rgb = rng.integers(0, 256, (5, 7, 3), dtype=np.uint8)
        assert np.array_equal(decode_image(encode_netpbm(gray)), gray)
        assert np.array_equal(decode_image(encode_netpbm(rgb)), rgb)
        # header with comments + extra whitespace still parses
        blob = b"P5\n# a comment\n 9  # trailing\n17\n255\n" + gray.T.copy().tobytes()
        assert decode_image(blob).shape == (17, 9)
        # nearest-neighbor resize: shape + corner fidelity
        small = resize_image(encode_netpbm(gray), 4, 5)
        assert small.shape == (5, 4)
        assert small[0, 0] == gray[0, 0]
        import pytest
        with pytest.raises(NotImplementedError):
            decode_image(b"\x89PNG\r\n\x1a\n....")

    def test_blob_metadata_real_decode(self, ray_session):
        import pandas as pd
        import ray.data as rd
        from gxdindexer_ray.ops.multimodal import blob_metadata, text_to_netpbm

        df = pd.DataFrame({"doc_id": [1, 2, 3],
                           "text": ["x" * 70, "", None]})
        meta = blob_metadata(text_to_netpbm(rd.from_pandas(df), width=32),
                             fake=False).to_pandas().set_index("doc_id")
        assert meta.loc[1, "width"] == 32 and meta.loc[1, "height"] == 3
        assert meta.loc[2, "height"] == 1 and meta.loc[3, "height"] == 1

    def test_asof_join_big_int64_keys_with_null_batch(self, ray_session):
        """ns-scale int64 'on' values above 2^53 must survive exactly even
        when the right side carries nulls (a pandas-side null strip would
        upcast to float64 and corrupt the comparison)."""
        import pandas as pd
        import ray.data as rd
        from gxdindexer_ray.ops.relational import asof_join

        big = 1 << 60
        left = pd.DataFrame({"k": pd.array([1], dtype="Int64"),
                             "t": pd.array([big + 2], dtype="Int64"),
                             "lid": [0]})
        right = pd.DataFrame({"k": pd.array([1, 1], dtype="Int64"),
                              "t": pd.array([big, None], dtype="Int64"),
                              "rid": [100, 999]})
        out = asof_join(rd.from_pandas(left), rd.from_pandas(right),
                        on="t", by="k", how="inner").to_pandas()
        # float64 would round big and big+2 to the same value and the
        # strict backward '<' would drop the match
        assert out["rid"].tolist() == [100]
        assert out["t_r"].tolist() == [big]

    def test_partitioned_join_null_keys_never_match(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd
        from gxdindexer_ray.ops.relational import partitioned_join

        left = pd.DataFrame({"k": pd.array([1, None, 2], dtype="Int64"),
                             "lv": [10, 20, 30]})
        right = pd.DataFrame({"k": pd.array([None, 1], dtype="Int64"),
                              "rv": [100, 200]})
        inner = partitioned_join(rd.from_pandas(left), rd.from_pandas(right),
                                 "k", "k", how="inner").to_pandas()
        assert inner["lv"].tolist() == [10] and inner["rv"].tolist() == [200]
        lj = partitioned_join(rd.from_pandas(left), rd.from_pandas(right),
                              "k", "k", how="left").to_pandas()
        assert sorted(lj["lv"]) == [10, 20, 30]
        assert pd.isna(lj.loc[lj["lv"] == 20, "rv"]).all()  # null key row kept
        assert pd.isna(lj.loc[lj["lv"] == 30, "rv"]).all()  # unmatched kept

    def test_symspell_cache_bounded(self):
        from gxdindexer_ray.pipelines.search import SearchEngine

        class FakeReader:
            def terms_with_prefix(self, prefix):
                return ["alpha", "beta", "gamma"]

            def term_stats(self, terms):
                return {t: (1, 1) for t in terms}

        eng = SearchEngine.__new__(SearchEngine)
        eng.reader = FakeReader()
        for d in (1, 2, 3):
            eng._symspell_index(d)
        assert len(eng._symspell_cache) == 2  # bounded, oldest evicted
        assert 3 in eng._symspell_cache


class TestQuantizedANN:
    def test_int8_knn_recall_and_size(self, ray_session):
        """int8-quantized KNN must recover >= 0.9 of exact top-10 on
        clustered embeddings, with codes 4x smaller than float32."""
        import numpy as np
        import pandas as pd
        import ray.data as rd
        from gxdindexer_ray.ops.similarity import (
            brute_knn, knn_quantized, quantize_embeddings)

        rng = np.random.default_rng(9)
        centers = rng.normal(size=(8, 32))
        vecs = [centers[i % 8] + 0.15 * rng.normal(size=32) for i in range(600)]
        df = pd.DataFrame({
            "vec_id": np.arange(600, dtype=np.int64),
            "embedding": [v.astype(np.float32).tolist() for v in vecs],
        })
        ds = rd.from_pandas(df)
        qds = quantize_embeddings(ds).materialize()
        row = qds.take(1)[0]
        assert np.asarray(row["q"], dtype=np.int8).nbytes == 32  # 4x vs f32
        qids = np.array([0, 1, 2], dtype=np.int64)
        qmat = np.stack([vecs[0], vecs[1], vecs[2]])
        exact = brute_knn(ds, qids, qmat, k=10)
        quant = knn_quantized(qds, qids, qmat, k=10)
        recall = 0.0
        for q in qids:
            e = set(exact[exact.qid == q]["nid"])
            a = set(quant[quant.qid == q]["nid"])
            recall += len(e & a) / len(e)
        assert recall / len(qids) >= 0.9

    def test_quantize_deterministic_and_zero_vector(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd
        from gxdindexer_ray.ops.similarity import quantize_embeddings

        df = pd.DataFrame({"vec_id": [1, 2],
                           "embedding": [[0.0, 0.0, 0.0], [1.0, -2.0, 0.5]]})
        a = quantize_embeddings(rd.from_pandas(df)).to_pandas()
        b = quantize_embeddings(rd.from_pandas(df).repartition(2)).to_pandas()
        pd.testing.assert_frame_equal(
            a.sort_values("vec_id").reset_index(drop=True),
            b.sort_values("vec_id").reset_index(drop=True))
        z = a[a["vec_id"] == 1].iloc[0]
        assert list(z["q"]) == [0, 0, 0] and z["scale"] == 1.0
        v = a[a["vec_id"] == 2].iloc[0]
        assert list(v["q"]) == [64, -127, 32]  # round(v / (2/127))


def test_normalize_text_matches_duckdb_unicode(ray_session):
    """Python unicodedata chain == DuckDB lower(strip_accents(nfc_normalize))
    on accents (composed + decomposed), case, CJK, sharp-s, nulls."""
    import duckdb
    import pandas as pd
    import ray.data as rd
    from gxdindexer_ray.ops.textops import normalize_text

    texts = ["école", "école", "ÉCOLE", "Grüße", "naïve CAFÉ",
             "北京 Beijing", "ß", "İstanbul", None, "", "ÅÄÖ åäö", "plain"]
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    got = normalize_text(rd.from_pandas(df).repartition(3)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.register("t", df)
    exp = con.execute(
        "SELECT doc_id, lower(strip_accents(nfc_normalize(text))) AS norm_text "
        "FROM t ORDER BY doc_id").fetchdf()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_quantize_and_normalize_handle_empty_and_allnull_batches(ray_session):
    """Empty blocks (upstream filters) and all-null text batches must flow
    through quantize_embeddings / knn_quantized / normalize_text."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from gxdindexer_ray.ops.similarity import knn_quantized, quantize_embeddings
    from gxdindexer_ray.ops.textops import normalize_text

    df = pd.DataFrame({"vec_id": np.arange(20, dtype=np.int64),
                       "embedding": [[float(i), 1.0, -2.0] for i in range(20)]})
    ds = rd.from_pandas(df).filter(lambda r: r["vec_id"] >= 10)  # empty blocks
    qds = quantize_embeddings(ds).materialize()
    assert qds.count() == 10
    out = knn_quantized(qds, np.array([19], dtype=np.int64),
                        np.array([[19.0, 1.0, -2.0]]), k=3)
    assert len(out) == 3
    allnull = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                        "text": pa.array([None, None], pa.string())})
    norm = normalize_text(rd.from_arrow(allnull)).to_pandas()
    assert norm["norm_text"].isna().all() and len(norm) == 2


def test_partitioned_join_outer_bigint_payload_exact(ray_session):
    """ADVICE r4: unmatched rows in left/outer shapes used to route
    right-side int64 payloads through a NaN-bearing pandas float64 column,
    rounding values above 2^53. Payloads are now reattached arrow-side."""
    import ray.data as rd

    from gxdindexer_ray.ops.relational import partitioned_join

    big = 2 ** 53 + 1  # not representable in float64 (rounds to 2^53)
    left = pd.DataFrame({"k": np.array([1, 2, 3], np.int64),
                         "lv": np.array([big, big + 2, big + 4], np.int64)})
    right = pd.DataFrame({"rk": np.array([1, 9], np.int64),
                          "rv": np.array([big + 1, big + 9], np.int64)})
    for how in ("left", "outer"):
        out = partitioned_join(rd.from_pandas(left), rd.from_pandas(right),
                               "k", "rk", how=how)
        # assert on ARROW values — a pandas fetch would itself re-inflict
        # the float64 rounding this test pins against
        tbl = pa.concat_tables(
            [b for b in out.iter_batches(batch_format="pyarrow")])
        assert tbl.schema.field("lv").type == pa.int64()
        assert tbl.schema.field("rv").type == pa.int64()
        d = tbl.to_pydict()
        by_k = dict(zip(d["k"], zip(d["lv"], d["rv"])))
        assert by_k[1] == (big, big + 1)
        assert by_k[2] == (big + 2, None)
        assert by_k[3] == (big + 4, None)
        if how == "outer":
            assert (None, big + 9) in by_k.values() or \
                any(lv is None and rv == big + 9 for lv, rv in by_k.values())
            assert tbl.num_rows == 4
        else:
            assert tbl.num_rows == 3


def test_asof_left_bigint_payload_exact(ray_session):
    """ADVICE r4 (asof variant): how='left' unmatched rows must not round
    matched right int64 payloads above 2^53 via a float64 column."""
    import ray.data as rd

    from gxdindexer_ray.ops.relational import asof_join

    big = 2 ** 53 + 1
    l = rd.from_pandas(pd.DataFrame({
        "k": np.array([1, 1, 2], np.int64),
        "t": np.array([10, 5, 10], np.int64),
        "lv": np.array([big, big + 2, big + 4], np.int64)}))
    r = rd.from_pandas(pd.DataFrame({
        "k": np.array([1], np.int64),
        "t": np.array([7], np.int64),
        "rv": np.array([big + 1], np.int64)}))
    out = asof_join(l, r, on="t", by="k", how="left").to_pandas()
    assert len(out) == 3
    hit = out[(out["k"] == 1) & (out["t"] == 10)]
    assert int(hit["rv"].iloc[0]) == big + 1  # exact, not 2^53
    assert sorted(out["lv"].astype(np.int64)) == [big, big + 2, big + 4]
    miss = out[(out["k"] == 2) | (out["t"] == 5)]
    assert miss["rv"].isna().all()


def test_keyed_exchange_null_bigint_keys_bucket_consistently(ray_session):
    """ADVICE r4 (medium): a null in one batch used to flip the int-key
    fast path's numpy conversion to float64, rounding keys > 2^53 so the
    SAME key bucketed differently across batches and split its group."""
    import ray.data as rd

    from gxdindexer_ray.ops.relational import exchange

    big = 2 ** 53 + 1
    clean = pa.table({"k": pa.array([big] * 4 + [7] * 2, pa.int64()),
                      "v": pa.array(range(6), pa.int64())})
    dirty = pa.table({"k": pa.array([big] * 3 + [None, 7], pa.int64()),
                      "v": pa.array(range(6, 11), pa.int64())})
    ds = rd.from_arrow([clean, dirty])  # two blocks -> two partition batches

    def per_key_count(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("k", dropna=False, sort=False).size()
        return pd.DataFrame({"k": g.index.to_numpy(), "n": g.to_numpy()})

    out = exchange(ds, per_key_count, keys=["k"], n_buckets=16,
                   batch_format="pandas").to_pandas()
    # each key must appear EXACTLY once with its FULL count (whole group in
    # one bucket). Before the fix the big key split 4/3 across two buckets
    # (null-free batch hashed exact int64, null-bearing batch hashed the
    # float64-rounded value). Key VALUES are asserted via the group sizes —
    # the pandas reducer format itself renders null-bearing int columns as
    # float64, which is the caller's formatting choice, not the exchange's.
    assert len(out) == 3  # big key, key 7, null key — one row each
    assert sorted(out["n"].astype(int)) == [1, 3, 7]


def test_exchange_local_null_int_key_one_call_per_key(ray_session, tmp_path):
    """A pandas ``local`` pre-reduce renders a null-bearing int key
    float64. Key 1 must still bucket as it does in the null-free block and
    reach exactly ONE fn call (it used to split across buckets 2 and 61);
    the partitioned sink must likewise write key 1 to one part file."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from gxdindexer_ray.ops.relational import exchange
    from gxdindexer_ray.ops.sink import write_partitioned

    def mk():
        return rd.from_arrow([
            pa.table({"k": pa.array([1, None, 2], pa.int64()),
                      "v": pa.array([1, 2, 3], pa.int64())}),
            pa.table({"k": pa.array([1, 3], pa.int64()),
                      "v": pa.array([4, 5], pa.int64())})])

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("k", dropna=False, sort=False).size()
        return pd.DataFrame({"k": g.index.to_numpy(dtype=np.float64),
                             "rows": g.to_numpy(), "calls": 1})

    out = exchange(mk(), per_key, keys=["k"], n_buckets=64,
                   local=lambda df: df).to_pandas()
    got = out.groupby("k", dropna=False)[["rows", "calls"]].sum()
    assert (got["calls"] == 1).all()
    assert dict(zip(got.index.fillna(-1), got["rows"])) == {
        1.0: 2, 2.0: 1, 3.0: 1, -1: 1}

    write_partitioned(mk(), tmp_path, key_cols=["k"], n_buckets=64)
    files_with_1 = [f for f in tmp_path.glob("part-*.parquet")
                    if 1 in pq.read_table(f)["k"].to_pylist()]
    assert len(files_with_1) == 1


def test_exchange_string_key_arrow_fn_keeps_payload_types(ray_session):
    """A string key with a pyarrow fn and no ``local`` must not route the
    batch through pandas: a null-bearing int64 payload keeps its type, and
    2^53+1 stays exact (it came back as 9007199254740992.0)."""
    import ray.data as rd

    from gxdindexer_ray.ops.relational import exchange

    big = 2 ** 53 + 1
    t1 = pa.table({"k": pa.array(["a", "b"]),
                   "v": pa.array([big, None], pa.int64())})
    t2 = pa.table({"k": pa.array(["a", "c"]),
                   "v": pa.array([big + 2, big + 4], pa.int64())})

    def fn(t: pa.Table) -> pa.Table:
        import uuid

        call = uuid.uuid4().hex  # one id per fn invocation
        return t.append_column("call", pa.array([call] * t.num_rows))

    out = exchange(rd.from_arrow([t1, t2]), fn, keys=["k"],
                   batch_format="pyarrow")
    tbl = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow")))
    per_key = pa.TableGroupBy(tbl, "k").aggregate([("call", "count_distinct")])
    assert per_key["call_count_distinct"].to_pylist() == [1, 1, 1]
    assert tbl.schema.field("v").type == pa.int64()
    assert tbl.schema.field("k").type == pa.string()
    assert sorted(zip(tbl["k"].to_pylist(), tbl["v"].to_pylist()),
                  key=str) == sorted([("a", big), ("b", None), ("a", big + 2),
                                      ("c", big + 4)], key=str)


def test_hash_sample_rate_one_keeps_all(ray_session):
    """ADVICE r4: rate=1.0's saturated threshold could drop a row whose
    hash equals 2^64-1; rate >= 1.0 now short-circuits to the identity."""
    import ray.data as rd

    from gxdindexer_ray.ops.sampling import hash_sample

    df = pd.DataFrame({"event_id": np.arange(100, dtype=np.int64)})
    out = hash_sample(rd.from_pandas(df), id_col="event_id", rate=1.0)
    assert out.count() == 100


def test_tumbling_window_multiple_freq(ray_session):
    """ADVICE r4: pandas-style multiples ('15min') must floor correctly
    through pc.floor_temporal's multiple= argument."""
    import ray.data as rd

    from gxdindexer_ray.ops.windows import tumbling_window

    ts = pd.to_datetime(["2024-01-01 00:07", "2024-01-01 00:22",
                         "2024-01-01 00:29", "2024-01-01 01:05"])
    df = pd.DataFrame({"event_type": ["a"] * 4, "ts": ts,
                       "value": [1.0, 2.0, 3.0, 4.0]})
    out = tumbling_window(rd.from_pandas(df), freq="15min").to_pandas()
    out = out.sort_values("window_start").reset_index(drop=True)
    exp = df.groupby(df["ts"].dt.floor("15min"))["value"].agg(["count", "sum"])
    assert len(out) == len(exp) == 3
    assert out["total_value"].tolist() == exp["sum"].tolist()
    assert out["n"].tolist() == exp["count"].tolist()
    assert pd.to_datetime(out["window_start"]).tolist() == exp.index.tolist()


def test_lsh_hot_bucket_pair_cap(ray_session):
    """VERDICT r4: a degenerate LSH band bucket (1k docs sharing one band
    hash) must emit O(n) bounded pairs (star+chain), not O(n^2), while
    still connecting every doc in the bucket for the CC consumers."""
    import ray.data as rd

    from gxdindexer_ray.ops.dedup import band_bucket_pairs

    n = 1000
    sig = pa.table({
        "band": pa.array(np.zeros(n, np.int32)),
        "bhash": pa.array(np.full(n, 12345, np.int64)),
        "doc": pa.array(np.arange(n, dtype=np.int64)),
    })
    out = band_bucket_pairs(rd.from_arrow(sig)).to_pandas()
    assert len(out) == 2 * n - 3  # star (n-1) + chain (n-2), not n*(n-1)/2
    assert (out["a"] < out["b"]).all()
    # connectivity: union-find over the emitted pairs links all n docs
    parent = np.arange(n)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(out["a"], out["b"]):
        parent[find(a)] = find(b)
    assert len({find(i) for i in range(n)}) == 1
    # small groups still emit the full combination set
    small = pa.table({
        "band": pa.array(np.zeros(4, np.int32)),
        "bhash": pa.array(np.full(4, 9, np.int64)),
        "doc": pa.array(np.array([3, 1, 2, 0], np.int64)),
    })
    out2 = band_bucket_pairs(rd.from_arrow(small)).to_pandas()
    assert len(out2) == 6


def test_simhash_hot_bucket_pair_cap(ray_session):
    """Same cap for the SimHash chunk-group pair generator: near-identical
    fingerprints colliding in one chunk group stay O(n) pairs."""
    import ray.data as rd

    from gxdindexer_ray.ops.dedup import simhash_near_dup

    n = 700  # above the 512 cap; identical text -> identical simhash
    df = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64),
                       "text": ["the same boilerplate page body here"] * n})
    out = simhash_near_dup(rd.from_pandas(df), max_hamming=3)
    # identical fingerprints: every emitted pair has hamming 0, and the
    # bounded emission is at most (2n-3) per band x 4 bands before dedup
    assert 2 * n - 3 <= len(out) <= 4 * (2 * n - 3)
    assert (out["hamming"] == 0).all()


def test_exact_quantiles_materializes_transformed_input(ray_session, tmp_path):
    """VERDICT r4 #5: a transform-stacked input must execute its upstream
    plan ONCE (auto-materialize), not once per histogram pass; bare reads
    stream as-is. Executions are counted via marker files written by the
    transform (workers share the fs)."""
    import uuid

    import ray.data as rd

    from gxdindexer_ray.ops.sketches import exact_quantiles

    marks = tmp_path / "marks"
    marks.mkdir()

    def counting(t: pa.Table) -> pa.Table:
        (marks / uuid.uuid4().hex).touch()
        return t

    rng = np.random.default_rng(4)
    df = pd.DataFrame({"x": rng.normal(size=20_000)})
    ds = rd.from_pandas(df).map_batches(counting, batch_format="pyarrow")
    got = exact_quantiles(ds, "x", [0.25, 0.5, 0.9])
    n_execs = len(list(marks.iterdir()))
    assert n_execs == 1, f"upstream transform executed {n_execs} times"
    exp = np.sort(df["x"].to_numpy())
    import math as _m
    for q, v in zip(got["q"], got["value"]):
        assert v == exp[max(1, _m.ceil(q * len(exp))) - 1]


def test_redact_pii_patterns(ray_session):
    """PII scrubbing: emails/phones/IPs replaced with typed placeholders,
    counts match; nulls stay null; DuckDB regexp parity on injected PII."""
    import duckdb
    import ray.data as rd

    from gxdindexer_ray.ops.textops import PII_PATTERNS, redact_pii

    df = pd.DataFrame({
        "doc_id": np.arange(5, dtype=np.int64),
        "text": [
            "contact bob@example.com or +1 (555) 123-4567 now",
            "server at 10.0.0.1 and 192.168.1.255 up",
            "no pii here at all",
            None,
            "a.b-c_d%e+f@sub.domain.org twice: x@y.io",
        ],
    })
    out = redact_pii(rd.from_pandas(df)).to_pandas().sort_values("doc_id")
    assert out.loc[0, "clean_text"] == "contact <EMAIL> or <PHONE> now"
    assert out.loc[1, "clean_text"] == "server at <IP> and <IP> up"
    assert out.loc[2, "clean_text"] == "no pii here at all"
    assert pd.isna(out.loc[3, "clean_text"]) and pd.isna(out.loc[3, "n_pii"])
    assert out.loc[4, "clean_text"] == "<EMAIL> twice: <EMAIL>"
    assert out.loc[[0, 1, 2, 4], "n_pii"].tolist() == [2, 2, 0, 2]
    # byte parity with the DuckDB regexp chain on the same rows
    con = duckdb.connect()
    con.register("documents", df)
    from gxdindexer_ray.pipelines.queries import _q73_sql

    exp = con.execute(_q73_sql()).df().sort_values("doc_id")
    assert out["clean_text"].fillna("~").tolist() == exp["clean_text"].fillna("~").tolist()
    assert out["n_pii"].fillna(-1).tolist() == exp["n_pii"].fillna(-1).tolist()


def test_dedup_first_arrow_parity_ties_and_nulls(ray_session):
    """The Arrow-native first-wins local must match pandas
    sort_values(mergesort)+drop_duplicates semantics: ties on order_cols
    resolved stably, null keys form ONE group, null order values sort
    last, string keys stay on the zero-copy path."""
    import ray.data as rd

    from gxdindexer_ray.ops.relational import dedup_first

    df = pd.DataFrame({
        "k": ["a", "a", None, "b", None, "b", "a"],
        "o": pd.array([3, 1, 2, None, 5, 1, 1], dtype="Int64"),
        "v": np.arange(7, dtype=np.int64),
    })
    out = dedup_first(rd.from_pandas(df), ["k"], ["o", "v"]).to_pandas()
    exp = df.sort_values(["o", "v"], kind="mergesort") \
        .drop_duplicates(["k"], keep="first")
    got = {(k if pd.notna(k) else None): int(v)
           for k, v in zip(out["k"], out["v"])}
    want = {(k if pd.notna(k) else None): int(v)
            for k, v in zip(exp["k"], exp["v"])}
    assert got == want  # a: v=6 (o=1 tie, lower v), b: v=5, null: v=2


def test_repetition_ratio_edges(ray_session):
    """Repetition ratio: pure boilerplate -> 1.0 for a 2-token loop's
    dominant bigram share; <2 tokens / empty / null -> 0.0; mixed doc
    matches the hand count."""
    import ray.data as rd

    from gxdindexer_ray.ops.textops import repetition_ratio

    df = pd.DataFrame({
        "doc_id": np.arange(5, dtype=np.int64),
        "text": ["spam spam spam spam", "the cat the cat the dog",
                 "one", "", None],
    })
    out = repetition_ratio(rd.from_pandas(df)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["rep_ratio"].tolist() == [1.0, 0.4, 0.0, 0.0, 0.0]


def test_dedup_first_null_payload_in_winning_row(ray_session):
    """Review r5: Arrow 'first' must take the winning ROW's value even when
    it is null — skip_nulls would stitch columns from different rows."""
    import ray.data as rd

    from gxdindexer_ray.ops.relational import dedup_first

    df = pd.DataFrame({"k": np.array([1, 1], np.int64),
                       "o": np.array([1, 2], np.int64),
                       "v": pd.array([None, 7], dtype="Int64")})
    out = dedup_first(rd.from_pandas(df), ["k"], ["o"]).to_pandas()
    assert len(out) == 1
    assert int(out["o"].iloc[0]) == 1
    assert pd.isna(out["v"].iloc[0])  # NOT 7 — no franken-row


def test_dedup_first_string_key_bigint_payload(ray_session):
    """Review r5: string-key Arrow local path must not route payloads
    through pandas (int64 > 2^53 with nulls would round / flip schema)."""
    import ray.data as rd

    from gxdindexer_ray.ops.relational import dedup_first

    big = 2 ** 53 + 1
    t1 = pa.table({"k": pa.array(["a", "b"]),
                   "o": pa.array([1, 1], pa.int64()),
                   "v": pa.array([big, None], pa.int64())})
    t2 = pa.table({"k": pa.array(["a", "c"]),
                   "o": pa.array([2, 1], pa.int64()),
                   "v": pa.array([big + 2, big + 4], pa.int64())})
    out = dedup_first(rd.from_arrow([t1, t2]), ["k"], ["o"])
    tbl = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow")))
    assert tbl.schema.field("v").type == pa.int64()
    d = dict(zip(tbl["k"].to_pylist(), tbl["v"].to_pylist()))
    assert d == {"a": big, "b": None, "c": big + 4}


def test_wav_roundtrip_and_decode(ray_session):
    """PCM WAV decode is REAL: round-trip 16-bit mono/stereo, 8-bit, extra
    RIFF chunks and odd-size word alignment; compressed blobs raise."""
    import pytest as _pt
    import struct

    from gxdindexer_ray.ops.multimodal import decode_audio, encode_wav

    mono = (np.arange(100, dtype=np.int16) - 50) * 300
    s, rate = decode_audio(encode_wav(mono, 8000))
    assert rate == 8000 and s.shape == (100, 1)
    assert np.array_equal(s[:, 0], mono)

    stereo = np.stack([mono, mono[::-1]], axis=1)
    s2, r2 = decode_audio(encode_wav(stereo, 44100))
    assert r2 == 44100 and s2.shape == (100, 2)
    assert np.array_equal(s2, stereo)

    # extra LIST chunk with ODD size before data: chunk walk must stay
    # word-aligned
    blob = encode_wav(mono, 8000)
    hdr, chunks = blob[:12], blob[12:]
    extra = b"LIST" + struct.pack("<I", 3) + b"abc" + b"\x00"  # odd + pad
    riff_size = struct.pack("<I", len(chunks) + len(extra) + 4)
    blob2 = hdr[:4] + riff_size + hdr[8:] + extra + chunks
    s3, _ = decode_audio(blob2)
    assert np.array_equal(s3[:, 0], mono)

    # 8-bit PCM
    b8 = (b"RIFF" + struct.pack("<I", 36 + 4) + b"WAVE"
          + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 8000, 1, 8)
          + b"data" + struct.pack("<I", 4) + bytes([0, 128, 255, 64]))
    s4, _ = decode_audio(b8)
    assert s4[:, 0].tolist() == [0, 128, 255, 64]

    with _pt.raises(NotImplementedError):
        decode_audio(b"\xff\xfbmp3 frames go here")
    with _pt.raises(NotImplementedError):
        # non-PCM format tag
        decode_audio(b"RIFF" + struct.pack("<I", 36) + b"WAVE"
                     + b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 8000, 32000, 4, 32)
                     + b"data" + struct.pack("<I", 0))


def test_audio_meta_stage(ray_session):
    """text_to_wav -> AudioMetaStage end to end: n_samples == utf-8 byte
    count, duration from the actual header."""
    import ray.data as rd

    from gxdindexer_ray.ops.multimodal import audio_metadata, text_to_wav

    df = pd.DataFrame({"doc_id": np.arange(3, dtype=np.int64),
                       "text": ["hello world", "", None]})
    out = audio_metadata(text_to_wav(rd.from_pandas(df))).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["sample_rate"].tolist() == [16000] * 3
    assert out["channels"].tolist() == [1] * 3
    assert out["n_samples"].tolist() == [11, 0, 0]
    assert out["duration_ms"].tolist() == [11 * 1000 // 16000, 0, 0]


def test_y4m_roundtrip_and_frame_sampling(ray_session):
    """Y4M video parse is REAL: encode/decode round-trip, every-n frame
    sampling with real frame-byte hashes, compressed blobs raise."""
    import pytest as _pt

    from gxdindexer_ray.ops.multimodal import (FrameSampleStage,
                                               decode_video,
                                               encode_y4m_frames,
                                               sample_frames)

    w, h = 4, 4
    fsize = w * h * 3 // 2
    frames = [bytes([i]) * fsize for i in range(10)]
    blob = encode_y4m_frames(w, h, frames)
    gw, gh, got = decode_video(blob)
    assert (gw, gh) == (w, h) and got == frames
    samp = sample_frames(blob, every_n=3)
    assert [i for i, _ in samp] == [0, 3, 6, 9]
    assert all(f == frames[i] for i, f in samp)
    with _pt.raises(NotImplementedError):
        decode_video(b"\x00\x00\x00 ftypmp42 not a y4m")

    # real (non-fake) FrameSampleStage emits one row per sampled frame
    # with hashes of the actual frame bytes
    batch = pa.table({"doc_id": pa.array([7], pa.int64()),
                      "blob": pa.array([blob], pa.binary())})
    out = FrameSampleStage(every_n=3)(batch)
    assert out["frame_idx"].to_pylist() == [0, 3, 6, 9]
    import hashlib as _h
    assert out["frame_hash"].to_pylist()[1] == \
        _h.blake2b(frames[3], digest_size=8).hexdigest()


def test_video_meta_stage_end_to_end(ray_session):
    """text_to_y4m -> VideoMetaStage: frame counts from the actual
    container, one zero frame for empty/null text."""
    import ray.data as rd

    from gxdindexer_ray.ops.multimodal import text_to_y4m, video_metadata

    df = pd.DataFrame({"doc_id": np.arange(3, dtype=np.int64),
                       "text": ["x" * 900, "", None]})  # 900B -> 3 frames
    out = video_metadata(text_to_y4m(rd.from_pandas(df)), every_n=4) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out["n_frames"].tolist() == [3, 1, 1]
    assert out["n_sampled"].tolist() == [1, 1, 1]
    assert out["width"].tolist() == [16] * 3


def test_ngram_contamination_exact(ray_session):
    """Hand-built corpus: overlap counts are checkable by eye; bench docs
    never appear in the output; docs with < n tokens never flag."""
    import ray.data as rd
    from gxdindexer_ray.ops.decontam import ngram_contamination

    bench = rd.from_items([
        {"doc_id": 100, "text": "the quick brown fox jumps over the lazy dog"},
        {"doc_id": 101, "text": "pack my box with five dozen liquor jugs"},
    ])
    cand = rd.from_items([
        # shares "the quick brown fox" AND "quick brown fox jumps" -> 2
        {"doc_id": 1, "text": "saw the quick brown fox jumps away"},
        # shares exactly one 4-gram (punct splits stop the second)
        {"doc_id": 2, "text": "pack my box with care"},
        # repeated hit n-gram inside one doc still counts ONCE (distinct)
        {"doc_id": 3, "text": "the lazy dog! over the lazy dog? over the lazy dog"},
        # no overlap
        {"doc_id": 4, "text": "completely unrelated words in this row"},
        # too short for any 4-gram
        {"doc_id": 5, "text": "quick brown fox"},
    ])
    out = {r["doc_id"]: r["hit_ngrams"]
           for r in ngram_contamination(cand, bench, n=4, n_buckets=8)
           .take_all()}
    # verify against the scalar ground truth (set intersection of each
    # doc's distinct 4-grams with the union of bench grams)
    from gxdindexer_ray.text.tokenize import tokenize

    def grams(t, n=4):
        ts = tokenize(t)
        return {" ".join(ts[i:i + n]) for i in range(len(ts) - n + 1)}

    bg = grams("the quick brown fox jumps over the lazy dog") | grams(
        "pack my box with five dozen liquor jugs")
    for did, txt in [(1, "saw the quick brown fox jumps away"),
                     (2, "pack my box with care"),
                     (3, "the lazy dog! over the lazy dog? over the lazy dog"),
                     (4, "completely unrelated words in this row"),
                     (5, "quick brown fox")]:
        expect = len(grams(txt) & bg)
        assert out.get(did, 0) == expect


def test_chunk_tokens_layout(ray_session):
    """Chunk starts step by stride, last chunk truncates, text is the
    exact token-slice join, empty/short docs behave."""
    import ray.data as rd
    from gxdindexer_ray.ops.textops import chunk_tokens
    from gxdindexer_ray.text.tokenize import tokenize

    texts = {1: " ".join(f"w{i}" for i in range(10)),   # 10 toks
             2: "only three tokens",                     # 1 chunk
             3: "",                                      # no chunks
             4: " ".join(f"x{i}" for i in range(8))}     # exactly 2 strides
    ds = rd.from_items([{"doc_id": k, "text": v} for k, v in texts.items()])
    rows = chunk_tokens(ds, size=4, stride=4).take_all()
    got = {(r["doc_id"], r["chunk_idx"]): (r["n_tokens"], r["chunk_text"])
           for r in rows}
    expect = {}
    for did, txt in texts.items():
        ts = tokenize(txt)
        for ci, start in enumerate(range(0, len(ts), 4)):
            seg = ts[start:start + 4]
            expect[(did, ci)] = (len(seg), " ".join(seg))
    assert got == expect
    # overlapping windows: stride < size
    rows = chunk_tokens(ds, size=4, stride=2).take_all()
    r1 = sorted((r["chunk_idx"], r["chunk_text"]) for r in rows
                if r["doc_id"] == 1)
    ts = tokenize(texts[1])
    assert r1 == [(i, " ".join(ts[s:s + 4]))
                  for i, s in enumerate(range(0, 10, 2))]


def test_shuffle_shard_is_permutation_and_deterministic(ray_session):
    import ray.data as rd
    from gxdindexer_ray.ops.sampling import shuffle_shard

    ids = list(range(500))
    ds = rd.from_items([{"doc_id": i} for i in ids])
    rows = shuffle_shard(ds, id_col="doc_id", n_shards=7).take_all()
    assert sorted(r["doc_id"] for r in rows) == ids        # every row once
    by_shard = {}
    for r in rows:
        by_shard.setdefault(r["shard"], []).append(r["pos"])
    assert set(by_shard) <= set(range(7))
    for positions in by_shard.values():                    # dense 0..k-1
        assert sorted(positions) == list(range(len(positions)))
    # determinism across a different block split
    rows2 = shuffle_shard(ds.repartition(13), id_col="doc_id",
                          n_shards=7).take_all()
    key = lambda rs: sorted((r["doc_id"], r["shard"], r["pos"]) for r in rs)
    assert key(rows) == key(rows2)
    # a different seed produces a different permutation
    rows3 = shuffle_shard(ds, id_col="doc_id", n_shards=7,
                          seed=99).take_all()
    assert key(rows) != key(rows3)


def test_top_tfidf_terms_scalar_truth(ray_session):
    """Tiny corpus vs a scalar tf-idf computation; rare terms outrank
    common ones, ties break by term asc, k caps per doc."""
    import math

    import ray.data as rd
    from gxdindexer_ray.ops.textops import top_tfidf_terms
    from gxdindexer_ray.text.tokenize import tokenize

    texts = {1: "apple banana apple cherry",
             2: "banana cherry cherry dates",
             3: "apple elderberry elderberry elderberry",
             4: ""}
    ds = rd.from_items([{"doc_id": k, "text": v} for k, v in texts.items()])
    rows = top_tfidf_terms(ds, k=2, n_buckets=4).take_all()

    tfs = {d: {} for d in texts}
    for d, t in texts.items():
        for w in tokenize(t):
            tfs[d][w] = tfs[d].get(w, 0) + 1
    df = {}
    for d in tfs:
        for w in tfs[d]:
            df[w] = df.get(w, 0) + 1
    n = float(len(texts))
    expect = set()
    for d in tfs:
        scored = sorted(((w, c * math.log(n / df[w]))
                         for w, c in tfs[d].items()),
                        key=lambda x: (-x[1], x[0]))[:2]
        for w, s in scored:
            expect.add((d, w, math.floor(s * 1e6 + 0.5) / 1e6))
    got = {(r["doc_id"], r["term"], r["tfidf"]) for r in rows}
    assert got == expect
    # explicit n_docs overrides the input count
    rows2 = top_tfidf_terms(ds, k=1, n_docs=1000, n_buckets=4).take_all()
    assert all(r["tfidf"] > 0 for r in rows2)


def test_running_aggregate_range_frame_ties(ray_session):
    """SQL's default RANGE frame: rows tied on (key, ts, tiebreak) are
    frame peers and ALL receive the tie-group total (DuckDB semantics for
    sum OVER (PARTITION BY key ORDER BY ts, tiebreak))."""
    import ray.data as rd
    from gxdindexer_ray.ops.windows import running_aggregate

    ds = rd.from_items([
        {"user_id": "u", "ts": 1, "event_id": 1, "value": 1.0},
        {"user_id": "u", "ts": 1, "event_id": 1, "value": 2.0},  # tied peer
        {"user_id": "u", "ts": 2, "event_id": 2, "value": 5.0},
        {"user_id": "v", "ts": 1, "event_id": 9, "value": 4.0},
    ])
    rows = running_aggregate(ds, key_col="user_id", ts_col="ts",
                             tiebreak_col="event_id", value_col="value",
                             n_buckets=4).take_all()
    got = {(r["user_id"], r["value"]): r["running_sum"] for r in rows}
    # both tied rows see the full peer total 3.0, not [1.0, 3.0]
    assert got[("u", 1.0)] == 3.0
    assert got[("u", 2.0)] == 3.0
    assert got[("u", 5.0)] == 8.0
    assert got[("v", 4.0)] == 4.0


def test_ngram_contamination_string_ids_and_mask(ray_session):
    """Non-int64 id columns work (bench-side nulls take the INPUT's id
    type), and the single-input bench_mask path matches the two-Dataset
    path on the same split."""
    import ray.data as rd
    from gxdindexer_ray.ops.decontam import ngram_contamination

    corpus = rd.from_items([
        {"url": "bench/1", "text": "the quick brown fox jumps over it"},
        {"url": "cand/1", "text": "saw the quick brown fox jumps away"},
        {"url": "cand/2", "text": "nothing shared with anything here now"},
    ])
    out = {r["url"]: r["hit_ngrams"] for r in ngram_contamination(
        corpus, id_col="url", text_col="text", n=4, n_buckets=4,
        bench_mask=lambda t: [s.startswith("bench/")
                              for s in t["url"].to_pylist()]).take_all()}
    # "the quick brown fox" + "quick brown fox jumps" shared
    assert out == {"cand/1": 2}

    # two-Dataset path agrees
    bench = corpus.filter(lambda r: r["url"].startswith("bench/"))
    cand = corpus.filter(lambda r: not r["url"].startswith("bench/"))
    out2 = {r["url"]: r["hit_ngrams"] for r in ngram_contamination(
        cand, bench, id_col="url", text_col="text", n=4,
        n_buckets=4).take_all()}
    assert out2 == out


def test_video_truncated_frame_raises(ray_session):
    """A blob cut mid-frame is a decode ERROR, not a silent short frame."""
    import pytest as _pt
    from gxdindexer_ray.ops.multimodal import decode_video, encode_y4m_frames

    blob = encode_y4m_frames(4, 4, [bytes(24), bytes(range(24))])
    w, h, frames = decode_video(blob)
    assert (w, h, len(frames)) == (4, 4, 2)
    with _pt.raises(ValueError, match="truncated"):
        decode_video(blob[:-10])


def test_audio_malformed_fmt_raises(ray_session):
    """fmt chunks declaring 0 channels or 0 sample rate raise ValueError
    (not ZeroDivisionError / silent duration_ms=0)."""
    import struct

    import numpy as np
    import pytest as _pt
    from gxdindexer_ray.ops.multimodal import decode_audio, encode_wav

    blob = bytearray(encode_wav(np.zeros(8, np.int16), sample_rate=16000))
    assert blob[12:16] == b"fmt "
    zero_ch = bytes(blob[:22]) + struct.pack("<H", 0) + bytes(blob[24:])
    with _pt.raises(ValueError, match="channels=0"):
        decode_audio(zero_ch)
    zero_rate = bytes(blob[:24]) + struct.pack("<I", 0) + bytes(blob[28:])
    with _pt.raises(ValueError, match="sample_rate=0"):
        decode_audio(zero_rate)


def test_unigram_logprob_score_scalar_truth(ray_session):
    """Tiny corpus vs a scalar cross-entropy computation: common-word docs
    score low, rare-word docs high, empty docs emit nothing; an explicit
    total_tokens skips the in-op corpus total."""
    import collections
    import math

    import ray.data as rd
    from gxdindexer_ray.ops.textops import unigram_logprob_score

    texts = {1: "the cat sat on the mat", 2: "the the the",
             3: "zebra quagga", 4: ""}
    ds = rd.from_items([{"doc_id": k, "text": v} for k, v in texts.items()])
    got = {r["doc_id"]: r["lm_score"]
           for r in unigram_logprob_score(ds, n_buckets=4).take_all()}

    cnt = collections.Counter(w for t in texts.values() for w in t.split())
    total = sum(cnt.values())
    expect = {}
    for d, t in texts.items():
        ws = t.split()
        if ws:
            s = -sum(math.log(cnt[w] / total) for w in ws) / len(ws)
            expect[d] = math.floor(s * 1e6 + 0.5) / 1e6
    assert got == expect
    assert got[2] < got[1] < got[3]  # repetitive < mixed < all-rare

    got2 = {r["doc_id"]: r["lm_score"] for r in unigram_logprob_score(
        ds, n_buckets=4, total_tokens=total).take_all()}
    assert got2 == expect


def test_pq_knn_recall_and_determinism(ray_session):
    """Clustered synthetic embeddings: PQ/ADC top-10 recovers most of
    brute-force top-10 at a 32x at-rest cut (8 uint8 codes vs 32 float32
    dims); codes are deterministic across re-encodes; the einsum LUT path
    equals an explicit reconstructed-vector dot."""
    import ray.data as rd

    from gxdindexer_ray.ops.similarity import (_normalize, _to_matrix,
                                               brute_knn, pq_encode, pq_knn,
                                               pq_train)

    rng = np.random.default_rng(9)
    centers = rng.normal(size=(8, 32))
    vecs = [centers[i % 8] + 0.15 * rng.normal(size=32) for i in range(800)]
    df = pd.DataFrame({
        "vec_id": np.arange(800, dtype=np.int64),
        "embedding": [v.astype(np.float32).tolist() for v in vecs],
    })
    ds = rd.from_pandas(df)
    qids = np.array([0, 1, 2], dtype=np.int64)
    qmat = np.stack([vecs[0], vecs[1], vecs[2]])

    books = pq_train(ds, m=8, n_codes=32, sample_limit=800)
    assert books.shape == (8, 32, 4)
    codes = pq_encode(ds, books).materialize()
    exact = brute_knn(ds, qids, qmat, k=10)

    # candidate-recall contract of the raw ADC scan: the exact top-10 is
    # (almost) contained in the ADC top-100 shortlist
    shortlist = pq_knn(codes, books, qids, qmat, k=100)
    crec = sum(len(set(exact[exact.qid == q]["nid"])
                   & set(shortlist[shortlist.qid == q]["nid"])) / 10
               for q in qids) / len(qids)
    assert crec >= 0.9

    # full ADC+R pipeline: shortlist + exact re-rank over candidate rows
    approx = pq_knn(codes, books, qids, qmat, k=10,
                    rerank_with=ds, rerank_factor=10)
    recall = sum(len(set(exact[exact.qid == q]["nid"])
                     & set(approx[approx.qid == q]["nid"])) / 10
                 for q in qids) / len(qids)
    assert recall >= 0.9

    # deterministic: re-encode yields byte-identical codes
    c1 = codes.to_pandas().sort_values("vec_id")
    c2 = pq_encode(ds, books).to_pandas().sort_values("vec_id")
    assert [list(x) for x in c1["code"]] == [list(x) for x in c2["code"]]

    # ADC LUT score == dot(query, reconstructed vector), checked directly
    row = c1.iloc[5]
    rec_vec = np.concatenate([books[i, int(c), :] for i, c in enumerate(row["code"])])
    qn = _normalize(qmat.astype(np.float64))
    m_ = books.shape[0]
    lut = np.einsum("qms,mcs->qmc", qn.reshape(len(qn), m_, -1), books)
    adc = sum(lut[0, i, int(c)] for i, c in enumerate(row["code"]))
    assert abs(adc - float(qn[0] @ rec_vec)) < 1e-12


def test_source_mix_rates_and_determinism(ray_session):
    """Skewed two-source corpus mixed to 50/50: the smaller source (the
    binding one at equal weights... actually the one with min n/w) keeps
    everything, the larger downsamples toward it; selection is invariant
    to repartitioning; unweighted sources drop."""
    import ray.data as rd
    from gxdindexer_ray.ops.sampling import source_mix

    rows = ([{"doc_id": i, "source": "big"} for i in range(400)]
            + [{"doc_id": 1000 + i, "source": "small"} for i in range(100)]
            + [{"doc_id": 2000 + i, "source": "junk"} for i in range(50)])
    ds = rd.from_items(rows)
    out = source_mix(ds, weights={"big": 0.5, "small": 0.5}).take_all()
    by_src = {}
    for r in out:
        by_src.setdefault(r["source"], set()).add(r["doc_id"])
    # N = min(400/.5, 100/.5) = 200 -> small keeps all 100, big ~100
    assert "junk" not in by_src
    assert len(by_src["small"]) == 100
    assert 70 <= len(by_src["big"]) <= 130  # Bernoulli(0.25) over 400

    out2 = source_mix(ds.repartition(7),
                      weights={"big": 0.5, "small": 0.5}).take_all()
    assert {r["doc_id"] for r in out2} == {r["doc_id"] for r in out}


def test_frequent_terms_exact_and_guarded(ray_session):
    """Zipf-ish corpus: top-k matches an exact scalar count with the
    (count desc, term asc) tie-break; an under-provisioned capacity
    raises instead of silently returning an approximate answer."""
    import collections

    import pytest as _pt
    import ray.data as rd
    from gxdindexer_ray.ops.textops import frequent_terms

    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(200)]
    texts = []
    for d in range(300):
        # quadratic map -> heavy head, plus per-doc noise terms
        idx = (rng.random(40) ** 2 * len(vocab)).astype(int)
        texts.append(" ".join(vocab[i] for i in idx))
    ds = rd.from_items([{"doc_id": i, "text": t} for i, t in enumerate(texts)])

    out = frequent_terms(ds, k=10, capacity=512)
    cnt = collections.Counter(w for t in texts for w in t.split())
    expect = sorted(cnt.items(), key=lambda x: (-x[1], x[0]))[:10]
    assert list(zip(out["term"], out["cnt"])) == expect

    with _pt.raises(ValueError, match="capacity"):
        frequent_terms(ds, k=10, capacity=2)


def test_kmeans_cluster_matches_dense(ray_session):
    """Distributed Lloyd == a dense single-process reference with the
    same init, round count, and update rule (well-separated clusters, so
    float partial-sum order cannot flip an assignment); clusters are
    coherent (every planted group lands in one cluster)."""
    import ray.data as rd
    from gxdindexer_ray.ops.similarity import (_normalize, kmeans_cluster)

    rng = np.random.default_rng(5)
    centers = _normalize(rng.normal(size=(4, 16)))
    vecs = np.stack([centers[i % 4] + 0.05 * rng.normal(size=16)
                     for i in range(600)])
    df = pd.DataFrame({"vec_id": np.arange(600, dtype=np.int64),
                       "embedding": [v.astype(np.float32).tolist()
                                     for v in vecs]})
    ds = rd.from_pandas(df)
    labeled, cents = kmeans_cluster(ds, k=4, iters=6, sample_limit=600,
                                    seed=0)
    got = (labeled.to_pandas().sort_values("vec_id")["cluster"]
           .to_numpy())

    # dense reference: identical init (first-600 sample, same rng), same
    # normalized-mean update
    x = _normalize(np.stack([np.asarray(v, np.float64)
                             for v in df["embedding"]]))
    r2 = np.random.default_rng(0)
    c = x[r2.choice(600, size=4, replace=False)].copy()
    for _ in range(6):
        a = np.argmax(x @ c.T, axis=1)
        for j in range(4):
            m = a == j
            if m.any():
                c[j] = x[m].mean(axis=0)
        c = _normalize(c)
    ref = np.argmax(x @ c.T, axis=1)
    assert (got == ref).all()
    assert np.abs(cents - c).max() < 1e-9

    # planted groups are pure: one cluster per planted center
    planted = np.arange(600) % 4
    for g in range(4):
        assert len(set(got[planted == g])) == 1


def test_semdedup_planted_duplicates(ray_session):
    """Planted near-identical groups collapse to their min id; distinct
    vectors all survive; survivors have no same-cluster pair above the
    threshold (checked against a dense scalar recomputation)."""
    import ray.data as rd
    from gxdindexer_ray.ops.similarity import _normalize, semdedup

    rng = np.random.default_rng(11)
    centers = _normalize(rng.normal(size=(4, 16)))
    rows = []
    vid = 0
    truth_groups = []  # lists of ids that are mutual near-dups
    for g in range(40):
        base = centers[g % 4] + 0.05 * rng.normal(size=16)
        n_copies = 3 if g % 5 == 0 else 1
        ids = []
        for _ in range(n_copies):
            v = base + 1e-4 * rng.normal(size=16)  # cos ~ 0.9999
            rows.append({"vec_id": vid,
                         "embedding": v.astype(np.float32).tolist()})
            ids.append(vid)
            vid += 1
        truth_groups.append(ids)
    ds = rd.from_items(rows)
    surv = semdedup(ds, k=4, iters=6, threshold=0.999, sample_limit=vid,
                    n_buckets=4).take_all()
    kept = {r["vec_id"] for r in surv}
    for ids in truth_groups:
        # each planted dup group keeps exactly its min id
        assert kept & set(ids) == {min(ids)}, ids
    # no surviving same-cluster pair above threshold
    by_cl = {}
    for r in surv:
        by_cl.setdefault(r["cluster"], []).append(r["vec_id"])
    vecs = {r["vec_id"]: np.asarray(r["embedding"], np.float64)
            for r in ds.take_all()}
    for cl, ids in by_cl.items():
        m = _normalize(np.stack([vecs[i] for i in ids]))
        s = m @ m.T
        np.fill_diagonal(s, 0)
        assert (s <= 0.999).all()


def test_pmi_collocations_scalar_truth(ray_session):
    """Tiny corpus vs a scalar PMI computation: exclusive pairs beat
    promiscuous ones, min_count filters, (pmi desc, x, y) tie-break."""
    import collections
    import math

    import ray.data as rd
    from gxdindexer_ray.ops.textops import pmi_collocations

    # "alpha beta" always together (5x); "the cat" frequent but "the"
    # appears everywhere
    texts = (["alpha beta the cat"] * 5 + ["the dog the cat the fish"] * 3)
    ds = rd.from_items([{"doc_id": i, "text": t}
                        for i, t in enumerate(texts)])
    out = pmi_collocations(ds, k=5, min_count=5, n_buckets=4)

    uni = collections.Counter(w for t in texts for w in t.split())
    big = collections.Counter()
    for t in texts:
        ws = t.split()
        for a, b in zip(ws, ws[1:]):
            big[(a, b)] += 1
    n = float(sum(uni.values()))
    exp = sorted(
        ((x, y, c, math.floor(math.log(c * n / (uni[x] * uni[y])) * 1e6
                              + 0.5) / 1e6)
         for (x, y), c in big.items() if c >= 5),
        key=lambda r: (-r[3], r[0], r[1]))[:5]
    got = list(out.itertuples(index=False, name=None))
    assert got == exp
    assert got[0][:2] == ("alpha", "beta")  # exclusive pair ranks first


def test_bloom_semi_join_exact_and_compact(ray_session):
    """Bloom prefilter + ranged verify == exact set membership (checked
    vs a scalar set); a tiny bitmap forced into heavy false positives
    still yields the exact result (the verify stage catches FPs); the
    prefilter demonstrably removes non-members before the verify."""
    import ray.data as rd
    from gxdindexer_ray.ops.relational import (bloom_build, bloom_semi_join,
                                               _bloom_probes)

    keys = rd.from_items([{"k": i} for i in range(0, 4000, 7)])
    big = rd.from_items([{"id": i, "v": i * 2} for i in range(4000)])
    expect = {i for i in range(4000) if i % 7 == 0}

    got = {r["id"] for r in bloom_semi_join(
        big, keys, "id", ids_col="k", bits=1 << 16).take_all()}
    assert got == expect

    # absurdly small bitmap -> many FPs -> still exact after verify
    got2 = {r["id"] for r in bloom_semi_join(
        big, keys, "id", ids_col="k", bits=64, n_hashes=2).take_all()}
    assert got2 == expect

    # the bitmap itself never false-negatives and prunes most non-members
    bm = bloom_build(keys.map_batches(
        lambda t: t.rename_columns(["id"]), batch_format="pyarrow"),
        "id", bits=1 << 16)
    ids = np.arange(4000)
    pos = _bloom_probes(ids, 4, 0, 1 << 16)
    hit = np.ones(len(ids), bool)
    for i in range(4):
        byte = (pos[i] >> np.uint64(3)).astype(np.int64)
        bit = (pos[i] & np.uint64(7)).astype(np.uint8)
        hit &= (bm[byte] >> bit) & 1 == 1
    members = np.isin(ids, np.fromiter(expect, np.int64))
    assert hit[members].all()  # no false negatives
    fp = hit[~members].mean()
    assert fp < 0.05  # bitmap prunes >95% of non-members pre-verify


def test_kmeans_multiblock_matches_single_block(ray_session):
    """Round partials from MANY blocks coalesce into one iter batch with
    repeated cluster ids — the driver merge must accumulate all of them
    (np.add.at), so a 16-block run is bit-identical to a 1-block run."""
    import ray.data as rd
    from gxdindexer_ray.ops.similarity import _normalize, kmeans_cluster

    rng = np.random.default_rng(5)
    centers = _normalize(rng.normal(size=(4, 16)))
    vecs = np.stack([centers[i % 4] + 0.05 * rng.normal(size=16)
                     for i in range(600)])
    df = pd.DataFrame({"vec_id": np.arange(600, dtype=np.int64),
                       "embedding": [v.astype(np.float32).tolist()
                                     for v in vecs]})
    one, c1 = kmeans_cluster(rd.from_pandas(df), k=4, iters=6,
                             sample_limit=600, seed=0)
    # preserve row order under repartition by re-sorting on vec_id later
    many, c16 = kmeans_cluster(rd.from_pandas(df).repartition(16), k=4,
                               iters=6, sample_limit=600, seed=0)
    # float partial-sum ORDER differs across block layouts (~1e-16); the
    # pre-fix dropped-partials bug measured 2.7e-2 here
    assert np.abs(c1 - c16).max() < 1e-12
    g1 = one.to_pandas().sort_values("vec_id")["cluster"].to_numpy()
    g16 = many.to_pandas().sort_values("vec_id")["cluster"].to_numpy()
    assert (g1 == g16).all()


def test_semdedup_chunked_propagation_matches_dense(monkeypatch):
    """_threshold_components_min with a tiny tile size (forcing many
    partial tiles and ragged boundaries) == the dense n x n one-shot."""
    from gxdindexer_ray.ops import similarity as sim

    rng = np.random.default_rng(9)
    base = sim._normalize(rng.normal(size=(12, 8)))
    # chains of near-dups: rows 3i..3i+2 are mutual dups
    m = sim._normalize(np.repeat(base, 3, axis=0)
                       + 1e-5 * rng.normal(size=(36, 8)))
    ids = np.arange(36, dtype=np.int64)

    def dense(ids, m, threshold):
        adj = (m @ m.T) > threshold
        lab = np.arange(ids.size)
        while True:
            new = np.where(adj, lab[None, :], ids.size).min(axis=1)
            if (new == lab).all():
                return lab == np.arange(ids.size)
            lab = new

    expect = dense(ids, m, 0.999)
    monkeypatch.setattr(sim, "_SEMDEDUP_CHUNK", 5)  # ragged 36/5 tiling
    got = sim._threshold_components_min(ids, m, 0.999)
    assert (got == expect).all()
    assert got.sum() == 12  # one survivor per planted group


def test_bloom_bits_validation(ray_session):
    """Non-multiple-of-8 bitmap sizes raise up front instead of
    crashing inside np.bitwise_or.at with an index error."""
    import pytest as _pt
    import ray.data as rd
    from gxdindexer_ray.ops.relational import bloom_build, bloom_semi_join

    keys = rd.from_items([{"id": i} for i in range(10)])
    with _pt.raises(ValueError, match="multiple of 8"):
        bloom_build(keys, "id", bits=100)
    with _pt.raises(ValueError, match="multiple of 8"):
        bloom_semi_join(keys, keys, "id", bits=0)


def test_frequent_terms_empty_corpus(ray_session):
    """An all-empty text column raises a clear 'no tokens' error, not an
    IndexError from the missing total-sentinel row."""
    import pytest as _pt
    import ray.data as rd
    from gxdindexer_ray.ops.textops import frequent_terms

    ds = rd.from_items([{"doc_id": i, "text": ""} for i in range(5)])
    with _pt.raises(ValueError, match="no tokens"):
        frequent_terms(ds, k=5, capacity=64)


# ---------------------------------------------------------------------------
# round-5 extension pack (q91-q100 operator contracts)
# ---------------------------------------------------------------------------

class TestNgramOps:
    def test_doc_ngrams_respects_row_boundaries(self):
        from gxdindexer_ray.text.tokenize import doc_ngrams

        col = pa.array(["a b c d", "x y", None, "", "p q r"])
        g, d = doc_ngrams(col, 3)
        assert g.to_pylist() == ["a b c", "b c d", "p q r"]
        assert d.tolist() == [0, 0, 4]
        g2, d2 = doc_ngrams(pa.array([None, ""]), 2)
        assert len(g2) == 0 and len(d2) == 0

    def test_dup_gram_fraction_counts_within_doc_repeats(self, ray_session):
        import ray.data as rd

        from gxdindexer_ray.ops.textops import dup_gram_fraction

        # doc 1 repeats its own bigram ("a b" twice) -> those occurrences
        # are duplicated even though no other doc shares them; doc 2 and 3
        # share one bigram; doc 4 is all-unique
        df = pd.DataFrame({
            "doc_id": [1, 2, 3, 4],
            "text": ["a b c a b", "p q r", "z p q", "u v w"]})
        out = dup_gram_fraction(rd.from_pandas(df), n=2) \
            .to_pandas().set_index("doc_id")["dup_frac"]
        # doc 1 bigrams: [a b, b c, c a, a b] -> 2/4 duplicated
        assert out[1] == 0.5
        # doc 2: [p q, q r] -> p q shared with doc 3 -> 1/2
        assert out[2] == 0.5
        assert out[3] == 0.5
        assert out[4] == 0.0

    def test_boilerplate_ngrams_empty_result_keeps_schema(self, ray_session):
        import ray.data as rd

        from gxdindexer_ray.ops.textops import boilerplate_ngrams

        df = pd.DataFrame({"text": ["one two three four five six"]})
        out = boilerplate_ngrams(rd.from_pandas(df), n=5, min_docs=99, k=5)
        assert list(out.columns) == ["gram", "df"]
        assert len(out) == 0


class TestBestPerKey:
    def test_ties_null_keys_and_minimize(self, ray_session):
        import ray.data as rd

        from gxdindexer_ray.ops.relational import best_per_key

        df = pd.DataFrame({
            "k": ["a", "a", "b", "b", "b", None, None],
            "v": [1, 5, 2, 2, 0, 7, 9],
            "id": [10, 3, 2, 1, 5, 9, 4]})
        out = best_per_key(rd.from_pandas(df), ["k"], value_col="v",
                           tiebreak_col="id").to_pandas()
        got = {r["k"]: (r["v"], r["id"]) for _, r in out.iterrows()}
        assert got["a"] == (5, 3)
        assert got["b"] == (2, 1)          # tie on v=2 -> min id wins
        assert got[None] == (9, 4)         # null keys form one group
        lo = best_per_key(rd.from_pandas(df), ["k"], value_col="v",
                          tiebreak_col="id", maximize=False).to_pandas()
        got_lo = {r["k"]: (r["v"], r["id"]) for _, r in lo.iterrows()}
        assert got_lo["b"] == (0, 5)


class TestStratifiedSample:
    def test_rates_and_batching_invariance(self, ray_session):
        import ray.data as rd

        from gxdindexer_ray.ops.sampling import stratified_sample

        df = pd.DataFrame({"lang": ["en"] * 4000 + ["de"] * 1000,
                           "doc_id": range(5000)})
        kw = dict(key_col="lang", id_col="doc_id",
                  rates={"en": 0.25}, default_rate=0.75)
        a = stratified_sample(rd.from_pandas(df), **kw).to_pandas()
        b = stratified_sample(
            rd.from_pandas(df).repartition(13), **kw).to_pandas()
        assert sorted(a["doc_id"]) == sorted(b["doc_id"])
        frac = a.groupby("lang").size() / df.groupby("lang").size()
        assert abs(frac["en"] - 0.25) < 0.05
        assert abs(frac["de"] - 0.75) < 0.05

    def test_rejects_saturating_rate(self, ray_session):
        import ray.data as rd

        from gxdindexer_ray.ops.sampling import stratified_sample

        with pytest.raises(ValueError):
            stratified_sample(rd.from_pandas(pd.DataFrame({"k": [], "i": []})),
                              key_col="k", id_col="i", rates={"x": 1.0})


def test_bpe_train_matches_reference(ray_session):
    """q98 exactness contract: the distributed trainer reproduces a plain
    single-process BPE (count-desc, lexicographic tie-break) merge list."""
    import re
    from collections import Counter

    import ray.data as rd

    from gxdindexer_ray.ops.bpe import bpe_train

    rng = np.random.default_rng(7)
    words = ["lower", "lowest", "newer", "newest", "wider", "widest",
             "low", "new", "wide", "data", "database", "databases"]
    texts = [" ".join(rng.choice(words, size=12)) for _ in range(200)]

    wc: Counter = Counter()
    for t in texts:
        wc.update(re.findall("[a-z0-9]+", t.lower()))
    vocab = {w: list(w) for w in wc}
    ref = []
    for r in range(6):
        pcnt: Counter = Counter()
        for w, f in wc.items():
            s = vocab[w]
            for i in range(len(s) - 1):
                pcnt[(s[i], s[i + 1])] += f
        if not pcnt:
            break
        (l, rt), c = min(pcnt.items(), key=lambda kv: (-kv[1], kv[0]))
        ref.append((r, l, rt, c))
        for w in vocab:
            s, acc, i = vocab[w], [], 0
            while i < len(s):
                if i + 1 < len(s) and s[i] == l and s[i + 1] == rt:
                    acc.append(l + rt)
                    i += 2
                else:
                    acc.append(s[i])
                    i += 1
            vocab[w] = acc

    got = bpe_train(rd.from_pandas(pd.DataFrame({"text": texts}))
                    .repartition(8), n_merges=6)
    assert [tuple(x) for x in got.itertuples(index=False)] == ref


def test_session_funnel_semantics(ray_session):
    import ray.data as rd

    from gxdindexer_ray.ops.windows import session_funnel

    T = pd.Timestamp("2024-01-01")
    m = pd.Timedelta(minutes=1)
    rows = [
        # user 1: converted session, then a purchase-only session
        (1, T, "view", 1), (1, T + 5 * m, "purchase", 2),
        (1, T + pd.Timedelta(hours=5), "purchase", 3),
        # user 2: purchase BEFORE view in one session -> not converted
        (2, T, "purchase", 4), (2, T + m, "view", 5),
        # user 3: simultaneous view/purchase -> strict < -> not converted
        (3, T, "view", 6), (3, T, "purchase", 7),
        # user 4: view and purchase in SEPARATE sessions -> not converted
        (4, T, "view", 8), (4, T + pd.Timedelta(hours=2), "purchase", 9),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts", "event_type",
                                     "event_id"])
    out = session_funnel(rd.from_pandas(df)).to_pandas() \
        .set_index("user_id").sort_index()
    assert out.loc[1, "n_sessions"] == 2 and out.loc[1, "n_converted"] == 1
    assert out.loc[2, "n_sessions"] == 1 and out.loc[2, "n_converted"] == 0
    assert out.loc[3, "n_converted"] == 0
    assert out.loc[4, "n_sessions"] == 2 and out.loc[4, "n_converted"] == 0


def test_grouped_zscore_null_keys_and_zero_std(ray_session):
    import ray.data as rd

    from gxdindexer_ray.ops.relational import grouped_zscore

    df = pd.DataFrame({"k": ["a", "a", "c", "c", None],
                       "v": [1.0, 3.0, 5.0, 5.0, 2.0]})
    out = grouped_zscore(rd.from_pandas(df), ["k"], "v").to_pandas()
    za = sorted(out[out["k"] == "a"]["z"])
    assert za == [-1.0, 1.0]
    assert (out[out["k"] == "c"]["z"] == 0.0).all()   # zero std -> 0
    assert (out[out["k"].isna()]["z"] == 0.0).all()   # singleton null group


def test_groups_do_not_prefix_leak():
    """q100 must not leak into GROUPS['relational'] via the old 3-char
    prefix match ('q100'[:3] == 'q10')."""
    from gxdindexer_ray.pipelines.queries import CATALOG, GROUPS

    assert "q100_session_funnel" not in GROUPS["relational"]
    assert "q100_session_funnel" in GROUPS["windows"]
    covered = {m for v in GROUPS.values() for m in v}
    assert covered == set(CATALOG)


def test_grouped_zscore_big_int64_keys_with_null(ray_session):
    """Stats stay Arrow end to end: int64 keys > 2^53 must keep distinct
    group statistics even when a null key forces the old pandas path to
    float64."""
    import ray.data as rd

    from gxdindexer_ray.ops.relational import grouped_zscore

    big = 2 ** 60 + 1
    t = pa.table({"k": pa.array([big, big, big + 2, None], pa.int64()),
                  "v": pa.array([1.0, 3.0, 7.0, 5.0])})
    out = pa.concat_tables(list(
        grouped_zscore(rd.from_arrow(t), ["k"], "v")
        .iter_batches(batch_format="pyarrow")))
    z = dict(zip(out["k"].to_pylist(), out["z"].to_pylist()))
    assert z[big + 2] == 0.0 and z[None] == 0.0
    got = sorted(out["z"].to_pylist()[:2])
    assert got == [-1.0, 1.0]


def test_dup_gram_fraction_hashed_matches_string(ray_session):
    """hash_grams=True (the 100-TB exchange shape: 128-bit hash-pair keys,
    zero-copy int bucket path) must reproduce the exact string-gram result
    on a corpus with real duplicated mass."""
    import ray.data as rd

    from gxdindexer_ray.ops.textops import dup_gram_fraction

    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(30)]
    texts = [" ".join(rng.choice(words, size=20)) for _ in range(120)]
    texts = ["h0 h1 h2 h3 h4 h5 h6 h7 " + t if i % 5 == 0 else t
             for i, t in enumerate(texts)]
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    ds = rd.from_pandas(df).repartition(9)
    a = dup_gram_fraction(ds, n=8).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    b = dup_gram_fraction(ds, n=8, hash_grams=True).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_exact=True)
    assert (a[a["doc_id"] % 5 == 0]["dup_frac"] > 0).all()


def test_remove_duplicate_spans_planted_header(ray_session):
    """q101 contract: a planted shared header is stripped from every doc
    carrying it; unique docs come back byte-identical (normalized join);
    short docs (< n tokens) are untouched."""
    import ray.data as rd

    from gxdindexer_ray.ops.textops import remove_duplicate_spans

    rng = np.random.default_rng(5)
    words = [f"u{i}" for i in range(5000)]   # big vocab -> bodies unique
    bodies = [" ".join(rng.choice(words, size=20, replace=False))
              for _ in range(40)]
    header = "h0 h1 h2 h3 h4 h5 h6 h7"
    texts = [header + " " + b if i % 2 == 0 else b
             for i, b in enumerate(bodies)]
    texts.append("tiny doc")                 # < 8 tokens
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    out = remove_duplicate_spans(rd.from_pandas(df).repartition(5), n=8) \
        .to_pandas().set_index("doc_id").sort_index()
    for i, b in enumerate(bodies):
        if i % 2 == 0:
            assert out.loc[i, "clean_text"] == b
            assert out.loc[i, "n_removed"] == 8
        else:
            assert out.loc[i, "clean_text"] == b
            assert out.loc[i, "n_removed"] == 0
    assert out.loc[len(texts) - 1, "clean_text"] == "tiny doc"
    assert out.loc[len(texts) - 1, "n_removed"] == 0


def test_bpe_encode_counts(ray_session):
    """q102 contract: encoding with learned merges matches a scalar
    reference application (greedy, rank order) and compresses vs chars."""
    import re

    import ray.data as rd

    from gxdindexer_ray.ops.bpe import bpe_encode, bpe_train

    texts = ["the cat sat on the mat", "the hat and the bat",
             "that cat that hat"] * 5
    ds = rd.from_pandas(pd.DataFrame({"doc_id": range(len(texts)),
                                      "text": texts}))
    merges = bpe_train(ds, n_merges=5)
    out = bpe_encode(ds, merges).to_pandas().set_index("doc_id")

    ranked = [(str(l), str(r)) for l, r in
              zip(merges["left"], merges["right"])]

    def ref_encode(word):
        syms = list(word)
        for left, right in ranked:
            i, acc = 0, []
            while i < len(syms):
                if (i + 1 < len(syms) and syms[i] == left
                        and syms[i + 1] == right):
                    acc.append(left + right)
                    i += 2
                else:
                    acc.append(syms[i])
                    i += 1
            syms = acc
        return len(syms)

    for i, t in enumerate(texts):
        words = re.findall("[a-z0-9]+", t.lower())
        expect = sum(ref_encode(w) for w in words)
        assert out.loc[i, "n_bpe_tokens"] == expect
        assert expect < sum(len(w) for w in words)


def test_remove_duplicate_spans_null_text_and_string_ids(ray_session):
    """Review regression: null-text docs must not be misclassified as
    dup-mark rows (explicit __side flag, not a null-text sentinel), and
    non-integer ids route through the string bucket hasher."""
    import ray.data as rd

    from gxdindexer_ray.ops.textops import remove_duplicate_spans

    df = pd.DataFrame({
        "doc_id": ["u1", "u2", "u3", "u4"],
        "text": ["h0 h1 h2 a b c", "h0 h1 h2 d e f", None, ""]})
    out = remove_duplicate_spans(rd.from_pandas(df).repartition(3), n=3) \
        .to_pandas().set_index("doc_id")
    assert out.loc["u1", "clean_text"] == "a b c"
    assert out.loc["u2", "clean_text"] == "d e f"
    assert out.loc["u3", "clean_text"] == "" and out.loc["u3", "n_removed"] == 0
    assert out.loc["u4", "clean_text"] == "" and out.loc["u4", "n_removed"] == 0


def test_dup_gram_fraction_hashed_empty_and_independent_streams(ray_session):
    """Review regressions: the hashed path must survive an all-short-docs
    corpus (empty exchange), and its two hash streams come from the two
    independent halves of one blake2b-128 digest."""
    import ray.data as rd

    from gxdindexer_ray.ops.dedup import _token_hash_pairs_flat
    from gxdindexer_ray.ops.textops import dup_gram_fraction

    df = pd.DataFrame({"doc_id": [1, 2], "text": ["a b", "c"]})
    out = dup_gram_fraction(rd.from_pandas(df), n=8,
                            hash_grams=True).to_pandas()
    assert len(out) == 0

    h1, h2 = _token_hash_pairs_flat(pa.array(["x", "y", "x"]))
    assert h1[0] == h1[2] and h2[0] == h2[2]       # same token, same pair
    assert h1[0] != h2[0]                          # halves differ
    import hashlib
    d = hashlib.blake2b(b"x", digest_size=16).digest()
    assert h1[0] == int.from_bytes(d[:8], "big")
    assert h2[0] == int.from_bytes(d[8:], "big")


def test_exact_dedup_incremental_digest_state_path(ray_session):
    """q103 contracts: (1) survivors = docs absent from prior, first-wins
    within new; (2) passing a persisted DIGEST table as the prior side
    (h1, h2 int64 columns — no text) gives identical results, so state
    can be carried between runs without rehashing the corpus."""
    import ray.data as rd

    from gxdindexer_ray.ops.textops import (_md5_pairs,
                                            exact_dedup_incremental)

    prior = pd.DataFrame({"doc_id": [1, 2],
                          "text": ["old text", "shared text"]})
    new = pd.DataFrame({"doc_id": [10, 11, 12, 13],
                        "text": ["shared text", "brand new", "brand new",
                                 "fresh"]})
    expect = {11: 2, 13: 1}

    out = exact_dedup_incremental(rd.from_pandas(new),
                                  rd.from_pandas(prior)).to_pandas()
    assert dict(zip(out["keep_id"], out["n_copies"])) == expect

    h = _md5_pairs(pa.array(prior["text"]))
    digests = pd.DataFrame({"h1": h[:, 0].view(np.int64),
                            "h2": h[:, 1].view(np.int64)})
    out2 = exact_dedup_incremental(rd.from_pandas(new),
                                   rd.from_pandas(digests)).to_pandas()
    assert dict(zip(out2["keep_id"], out2["n_copies"])) == expect


def test_incremental_near_dup_cross_side_only(ray_session):
    """q104 contracts: flags new docs near-matching prior docs; near-dup
    pairs WITHIN the new batch alone do not flag (the op answers 'seen
    before?', not 'self-duplicated?'); prior-side pairs never pair with
    each other (cross-side candidates only)."""
    import ray.data as rd

    from gxdindexer_ray.ops.dedup import incremental_near_dup

    base = "the quick brown fox jumps over the lazy dog"
    prior = pd.DataFrame({
        "doc_id": [2, 4],
        "text": [base + " today", "databases are structured collections"]})
    new = pd.DataFrame({
        "doc_id": [1, 3, 5, 7],
        "text": [base + " now",                       # near-dup of prior 2
                 "totally novel words appear here",   # clean
                 "totally novel words appear here!",  # dup of 3 (new-only)
                 "databases are structured collections"]})  # == prior 4
    out = incremental_near_dup(rd.from_pandas(new), rd.from_pandas(prior),
                               threshold=0.5)
    got = sorted(out["doc_id"]) if isinstance(out, pd.DataFrame) else \
        sorted(out.to_pandas()["doc_id"])
    assert got == [1, 7]


def test_incremental_near_dup_overlapping_ids_and_sig_state(ray_session):
    """Review regressions: (1) a re-crawled doc (same id on both sides,
    UNRELATED new text) must NOT be flagged — ids are remapped into
    disjoint namespaces so a side never verifies against itself; (2) a
    persisted band-signature table for the prior side gives identical
    flags without re-MinHashing the prior corpus."""
    import ray.data as rd

    from gxdindexer_ray.ops.dedup import (band_signature_rows,
                                          incremental_near_dup)

    base = "the quick brown fox jumps over the lazy dog"
    prior = pd.DataFrame({
        "doc_id": [1, 2],
        "text": [base + " today", "databases are structured collections"]})
    new = pd.DataFrame({
        "doc_id": [1, 3],
        "text": ["entirely unrelated replacement content here",  # re-crawl
                 base + " now"]})                                # matches 1
    out = incremental_near_dup(rd.from_pandas(new), rd.from_pandas(prior),
                               threshold=0.5).to_pandas()
    assert sorted(out["doc_id"]) == [3]

    sig = band_signature_rows(rd.from_pandas(prior)).materialize()
    out2 = incremental_near_dup(rd.from_pandas(new), rd.from_pandas(prior),
                                threshold=0.5,
                                prior_sig_ds=sig).to_pandas()
    assert sorted(out2["doc_id"]) == [3]


def test_band_bucket_cross_pairs_cap_keeps_multiple_reps(ray_session):
    """Review regression: a capped hot bucket pairs each new doc with
    MULTIPLE smallest priors (max_group // n_new), bounded total, never a
    single representative for the whole group."""
    import ray.data as rd

    from gxdindexer_ray.ops.dedup import band_bucket_cross_pairs

    n_prior, n_new = 100, 20            # 2000 cross pairs > max_group=512
    rows = pd.DataFrame({
        "band": np.zeros(n_prior + n_new, np.int32),
        "bhash": np.full(n_prior + n_new, 7, np.int64),
        "doc": np.concatenate([np.arange(n_prior),
                               np.arange(1000, 1000 + n_new)]),
        "side": np.concatenate([np.zeros(n_prior, np.int8),
                                np.ones(n_new, np.int8)])})
    out = band_bucket_cross_pairs(rd.from_pandas(rows),
                                  max_group=512).to_pandas()
    reps = 512 // n_new                  # 25 smallest priors
    assert len(out) == reps * n_new
    per_new = out.groupby("b")["a"].apply(set)
    expect = set(range(reps))
    for b, priors in per_new.items():
        assert priors == expect          # every new doc sees all reps


def test_global_rank_exact_with_ties_and_batching(ray_session):
    """q105 contract: exact 1-indexed row_number() OVER (ORDER BY v, id)
    under heavy ties, invariant to repartitioning; hash buckets holding
    several value ranges rank each range independently."""
    import ray.data as rd

    from gxdindexer_ray.ops.sketches import global_rank

    rng = np.random.default_rng(9)
    df = pd.DataFrame({"doc_id": range(4000),
                       "v": rng.integers(0, 30, 4000)})
    exp = df.sort_values(["v", "doc_id"], kind="mergesort") \
        .reset_index(drop=True)
    exp["rank"] = np.arange(1, len(exp) + 1)
    for parts in (3, 17):
        got = global_rank(rd.from_pandas(df).repartition(parts),
                          "v", "doc_id").to_pandas() \
            .sort_values("rank").reset_index(drop=True)
        pd.testing.assert_frame_equal(got[["doc_id", "v", "rank"]],
                                      exp[["doc_id", "v", "rank"]],
                                      check_dtype=False)


def test_interval_overlap_join_exact(ray_session):
    """q106 contract: keyed and unkeyed interval overlap joins reproduce
    the brute-force pair set exactly, including epoch-microsecond-scale
    axis values (the dynamic composite shift) and repartitioned inputs."""
    import ray.data as rd

    from gxdindexer_ray.ops.relational import interval_overlap_join

    rng = np.random.default_rng(12)
    n = 400
    base = 1_700_000_000_000_000            # epoch-us scale
    L = pd.DataFrame({"k": rng.integers(0, 4, n),
                      "a": base + rng.integers(0, 10 ** 10, n)})
    L["b"] = L["a"] + rng.integers(1, 10 ** 8, n)
    L["lid"] = range(n)
    R = pd.DataFrame({"k": rng.integers(0, 4, n),
                      "a": base + rng.integers(0, 10 ** 10, n)})
    R["b"] = R["a"] + rng.integers(1, 10 ** 8, n)
    R["rid"] = range(n)
    out = interval_overlap_join(
        rd.from_pandas(L).repartition(6), rd.from_pandas(R).repartition(5),
        left_cols=("a", "b"), right_cols=("a", "b"),
        key_cols=["k"]).to_pandas()
    got = set(zip(out["lid"], out["rid"]))
    exp = set()
    for _, l in L.iterrows():
        m = R[(R["k"] == l["k"]) & (R["a"] < l["b"]) & (R["b"] > l["a"])]
        exp.update((l["lid"], r) for r in m["rid"])
    assert got == exp
    out2 = interval_overlap_join(
        rd.from_pandas(L), rd.from_pandas(R),
        left_cols=("a", "b"), right_cols=("a", "b")).to_pandas()
    exp2 = sum(1 for _, l in L.iterrows()
               for _, r in R.iterrows()
               if r["a"] < l["b"] and r["b"] > l["a"])
    assert len(out2) == exp2


def test_interval_overlap_join_null_keys_and_big_payloads(ray_session):
    """Review regressions: (1) NULL-keyed rows match nothing (SQL
    equi-join) and never corrupt the composite ordering; (2) int64
    payloads > 2^53 survive exactly (arrow-native reduce — no pandas
    float64 round trip); (3) zero-width intervals still match when the
    predicate admits them; (4) sparse one-sided buckets return typed
    empty blocks, not schema-less frames."""
    import ray.data as rd

    from gxdindexer_ray.ops.relational import interval_overlap_join

    big = 2 ** 60 + 12345
    L = pa.table({"k": pa.array(["a", None, "b", "c"]),
                  "a": pa.array([0, 0, 100, 500], pa.int64()),
                  "b": pa.array([10, 10, 110, 500], pa.int64()),
                  "pay": pa.array([big, big + 1, big + 2, big + 3],
                                  pa.int64())})
    R = pa.table({"k": pa.array(["a", None, "b", "c"]),
                  "a": pa.array([5, 5, 300, 495], pa.int64()),
                  "b": pa.array([15, 15, 310, 505], pa.int64()),
                  "rpay": pa.array([big + 10, big + 11, big + 12, big + 13],
                                   pa.int64())})
    out = pa.concat_tables(list(
        interval_overlap_join(rd.from_arrow(L), rd.from_arrow(R),
                              left_cols=("a", "b"), right_cols=("a", "b"),
                              key_cols=["k"])
        .iter_batches(batch_format="pyarrow")))
    rows = {(r["k"], r["pay"], r["rpay"]) for r in out.to_pylist()}
    # 'a' overlaps; null keys match nothing; 'b' disjoint; 'c' zero-width
    # left [500,500) inside right [495,505) -> matches
    assert rows == {("a", big, big + 10), ("c", big + 3, big + 13)}
    assert out.schema.field("pay").type == pa.int64()
    assert out.schema.field("rpay").type == pa.int64()


def test_remove_duplicate_spans_hashed_matches_string(ray_session):
    """hash_grams=True (128-bit pair exchange keys for the occurrence
    rows) must reproduce the exact string-gram removal, including the
    planted-header corpus and short docs."""
    import ray.data as rd

    from gxdindexer_ray.ops.textops import remove_duplicate_spans

    rng = np.random.default_rng(13)
    words = [f"u{i}" for i in range(4000)]
    bodies = [" ".join(rng.choice(words, size=16, replace=False))
              for _ in range(60)]
    texts = ["h0 h1 h2 h3 h4 h5 h6 h7 " + b if i % 3 == 0 else b
             for i, b in enumerate(bodies)] + ["tiny", ""]
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    ds = rd.from_pandas(df).repartition(6)
    a = remove_duplicate_spans(ds, n=8).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    b = remove_duplicate_spans(ds, n=8, hash_grams=True).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_exact=True)
    assert (a[a["doc_id"] % 3 == 0]["n_removed"][:20] == 8).all()


def test_session_funnel_steps_order_semantics(ray_session):
    """q108 contract: greedy strictly-increasing step matching — out-of-
    order steps, missing steps, and cross-session splits do not convert;
    repeated step events use the EARLIEST valid one."""
    import ray.data as rd

    from gxdindexer_ray.ops.windows import session_funnel_steps

    T = pd.Timestamp("2024-01-01")
    m = pd.Timedelta(minutes=1)
    rows = [
        (1, T, "view", 1), (1, T + m, "click", 2),
        (1, T + 2 * m, "purchase", 3),                    # converts
        (2, T, "click", 4), (2, T + m, "view", 5),
        (2, T + 2 * m, "purchase", 6),                    # click before view
        (3, T, "view", 7), (3, T + m, "purchase", 8),     # no click
        # user 4: click only in a LATER session -> no conversion
        (4, T, "view", 9), (4, T + pd.Timedelta(hours=2), "click", 10),
        (4, T + pd.Timedelta(hours=2) + m, "purchase", 11),
        # user 5: greedy uses first click after view; purchase after it
        (5, T, "view", 12), (5, T + m, "click", 13),
        (5, T + 5 * m, "click", 14), (5, T + 2 * m, "purchase", 15),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts", "event_type",
                                     "event_id"])
    out = session_funnel_steps(rd.from_pandas(df).repartition(3)) \
        .to_pandas().set_index("user_id").sort_index()
    assert out.loc[1, "n_converted"] == 1
    assert out.loc[2, "n_converted"] == 0
    assert out.loc[3, "n_converted"] == 0
    assert out.loc[4, "n_converted"] == 0 and out.loc[4, "n_sessions"] == 2
    assert out.loc[5, "n_converted"] == 1


class TestSequencePacking:
    """pack_token_stream (q109): concat-and-chunk manifest invariants vs a
    scalar reference, partition invariance, and boundary splits."""

    def _scalar(self, texts, L):
        import re
        off, rows = 0, []
        for did in sorted(texts):
            n = len(re.findall("[a-z0-9]+", texts[did].lower()))
            if n:
                for s in range(off // L, (off + n - 1) // L + 1):
                    lo, hi = max(off, s * L), min(off + n, (s + 1) * L)
                    rows.append((s, did, lo - s * L, hi - lo))
            off += n
        return sorted(rows)

    def _run(self, texts, L, parts):
        import ray.data as rd

        from gxdindexer_ray.ops.packing import pack_token_stream

        tbl = pa.table({
            "doc_id": pa.array(sorted(texts), pa.int64()),
            "text": pa.array([texts[k] for k in sorted(texts)], pa.string()),
        })
        out = pack_token_stream(rd.from_arrow(tbl).repartition(parts),
                                seq_len=L, n_ranges=4, n_buckets=4).to_pandas()
        return sorted(map(tuple, out[["seq_id", "doc_id", "seq_off",
                                      "n_tok"]].itertuples(index=False)))

    def test_matches_scalar_with_splits_and_empties(self, ray_session):
        rng = np.random.default_rng(7)
        texts = {}
        for i in range(60):
            n = int(rng.integers(0, 30))
            texts[i * 3 + 1] = " ".join(f"w{j}" for j in range(n))
        texts[200] = "   "          # zero tokens -> absent from output
        got = self._run(texts, 16, 5)
        assert got == self._scalar(texts, 16)
        # a doc longer than seq_len MUST split across sequences
        assert any(r[3] == 16 for r in got)

    def test_partition_invariant(self, ray_session):
        texts = {i: " ".join(["tok"] * (i % 13)) for i in range(1, 40)}
        assert self._run(texts, 8, 1) == self._run(texts, 8, 7)

    def test_full_coverage(self, ray_session):
        """Every token lands in exactly one segment: per-doc n_tok sums to
        the doc's token count; every sequence except the last is full."""
        import ray.data as rd

        from gxdindexer_ray.ops.packing import pack_token_stream

        texts = {i: " ".join(["x"] * (5 + i % 9)) for i in range(30)}
        tbl = pa.table({"doc_id": pa.array(sorted(texts), pa.int64()),
                        "text": pa.array([texts[k] for k in sorted(texts)])})
        out = pack_token_stream(rd.from_arrow(tbl).repartition(3),
                                seq_len=32, n_ranges=4).to_pandas()
        per_doc = out.groupby("doc_id")["n_tok"].sum()
        for did, t in texts.items():
            assert per_doc.get(did, 0) == len(t.split())
        per_seq = out.groupby("seq_id")["n_tok"].sum().sort_index()
        assert (per_seq.iloc[:-1] == 32).all()
        # segments within one sequence tile it without gap or overlap
        for _, g in out.groupby("seq_id"):
            g = g.sort_values("seq_off")
            assert (g["seq_off"].to_numpy()
                    == np.r_[0, np.cumsum(g["n_tok"].to_numpy())[:-1]]).all()


class TestTopkPerKey:
    """topk_per_key (q110): row_number PARTITION BY semantics — ties,
    short groups, null keys, and pre-reduce correctness across batches."""

    def _run(self, df, k, parts, maximize=True):
        import ray.data as rd

        from gxdindexer_ray.ops.relational import topk_per_key

        out = topk_per_key(rd.from_pandas(df).repartition(parts), ["g"],
                           value_col="v", tiebreak_col="id", k=k,
                           maximize=maximize, n_buckets=4).to_pandas()
        return out.sort_values(["g", "rank"], na_position="first") \
                  .reset_index(drop=True)

    def test_matches_window_semantics(self, ray_session):
        rng = np.random.default_rng(3)
        df = pd.DataFrame({"g": rng.integers(0, 5, 200),
                           "v": rng.integers(0, 9, 200),  # many ties
                           "id": np.arange(200)})
        got = self._run(df, 3, 7)
        exp = df.sort_values(["g", "v", "id"],
                             ascending=[True, False, True])
        exp = exp.groupby("g").head(3).copy()
        exp["rank"] = exp.groupby("g").cumcount() + 1
        pd.testing.assert_frame_equal(
            got, exp.reset_index(drop=True)[got.columns.tolist()],
            check_dtype=False)
        # spread across 7 partitions the winners cross batch boundaries:
        # the local k-row pre-reduce must not lose any global winner
        got1 = self._run(df, 3, 1)
        pd.testing.assert_frame_equal(got, got1, check_dtype=False)

    def test_short_groups_null_keys_minimize(self, ray_session):
        df = pd.DataFrame({"g": [1, 1, None, None, None, 2],
                           "v": [5.0, 3.0, 2.0, 9.0, 4.0, 7.0],
                           "id": [10, 11, 12, 13, 14, 15]})
        got = self._run(df, 2, 3, maximize=False)
        by_g = {(None if pd.isna(g) else g): grp
                for g, grp in got.groupby("g", dropna=False)}
        assert list(by_g[1.0]["id"]) == [11, 10]          # asc by v
        assert list(by_g[None]["id"]) == [12, 14]         # null group kept
        assert list(by_g[2.0]["id"]) == [15]              # short group
        assert list(by_g[None]["rank"]) == [1, 2]


def test_snapshot_diff_semantics(ray_session):
    """snapshot_diff (q113): added/removed/changed classification;
    unchanged keys emit nothing; empty old side -> all added."""
    import ray.data as rd

    from gxdindexer_ray.ops.textops import snapshot_diff

    old = pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                    "text": pa.array(["a", "b", "c", "d"])})
    new = pa.table({"doc_id": pa.array([2, 3, 4, 5], pa.int64()),
                    "text": pa.array(["b", "C2", "d", "e"])})
    out = snapshot_diff(rd.from_arrow(old).repartition(2),
                        rd.from_arrow(new).repartition(3),
                        n_buckets=4).to_pandas()
    got = dict(zip(out["doc_id"], out["status"]))
    assert got == {1: "removed", 3: "changed", 5: "added"}

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "text": pa.array([], pa.string())})
    out2 = snapshot_diff(rd.from_arrow(empty), rd.from_arrow(new),
                         n_buckets=4).to_pandas()
    assert sorted(out2["doc_id"]) == [2, 3, 4, 5]
    assert set(out2["status"]) == {"added"}


def test_moving_aggregate_range_frame(ray_session):
    """moving_aggregate (q114): RANGE-frame semantics vs a scalar
    reference — window edges inclusive, same-ts peers share the frame,
    per-key isolation, multi-key buckets."""
    import ray.data as rd

    from gxdindexer_ray.ops.windows import moving_aggregate

    T = pd.Timestamp("2024-01-01")
    s = pd.Timedelta(seconds=1)
    rows = [
        (1, T, 1.0, 1), (1, T + 5 * s, 2.0, 2),
        (1, T + 10 * s, 4.0, 3),          # exactly W back -> included
        (1, T + 21 * s, 8.0, 4),          # gap > W -> frame resets
        (2, T + 10 * s, 100.0, 5),        # other key, same ts as id 3
        (3, T, 1.0, 6), (3, T, 2.0, 7),   # same-ts peers: shared frame
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts", "value", "event_id"])
    out = moving_aggregate(rd.from_pandas(df).repartition(3), window_s=10,
                           n_buckets=2).to_pandas() \
        .set_index("event_id").sort_index()
    assert out.loc[1, "moving_sum"] == 1.0
    assert out.loc[2, "moving_sum"] == 3.0
    assert out.loc[3, "moving_sum"] == 7.0 and out.loc[3, "moving_cnt"] == 3
    assert out.loc[4, "moving_sum"] == 8.0 and out.loc[4, "moving_cnt"] == 1
    assert out.loc[5, "moving_sum"] == 100.0
    # RANGE peers: both same-ts rows of key 3 see the full tie-group
    assert out.loc[6, "moving_sum"] == 3.0 and out.loc[7, "moving_sum"] == 3.0
    assert out.loc[3, "moving_avg"] == round(7.0 / 3, 2)


def test_retention_cohorts_semantics(ray_session):
    """retention_cohorts (q115): cohort = Monday of first active week;
    one count per user per offset even when the same user-week pair
    arrives in several input blocks; multi-week users spread across
    offsets."""
    import ray.data as rd

    from gxdindexer_ray.ops.windows import retention_cohorts

    W0 = pd.Timestamp("2024-01-01")  # a Monday
    w = pd.Timedelta(days=7)
    rows = [
        # user 1: weeks 0, 1, 3 (several events in week 0 -> still 1 count)
        (1, W0 + pd.Timedelta(hours=3)), (1, W0 + pd.Timedelta(days=2)),
        (1, W0 + w), (1, W0 + 3 * w),
        # user 2: joins week 1, active weeks 1 and 2
        (2, W0 + w + pd.Timedelta(days=4)), (2, W0 + 2 * w),
        # user 3: week 0 only
        (3, W0 + pd.Timedelta(days=6, hours=23)),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts"])
    # duplicate the frame so identical user-weeks arrive in different
    # blocks — in-batch distinct alone would double-count
    ds = rd.from_pandas(pd.concat([df, df])).repartition(4)
    out = retention_cohorts(ds).set_index(["cohort_week", "offset_weeks"]) \
        .sort_index()
    assert out.loc[(W0, 0), "n_users"] == 2          # users 1 and 3
    assert out.loc[(W0, 1), "n_users"] == 1          # user 1
    assert out.loc[(W0, 3), "n_users"] == 1
    assert out.loc[(W0 + w, 0), "n_users"] == 1      # user 2 cohort
    assert out.loc[(W0 + w, 1), "n_users"] == 1
    assert len(out) == 5
    # mid-week timestamps truncate to the Monday: cohort keys are Mondays
    assert set(out.index.get_level_values(0)) == {W0, W0 + w}


def test_robust_outliers_mad_rule(ray_session):
    """robust_outliers (q116): median/MAD flagging — MAD=0 keys flag any
    deviation, the outlier itself doesn't drag the median (robustness),
    keys with all-null values drop."""
    import ray.data as rd

    from gxdindexer_ray.ops.sketches import robust_outliers

    rows = ([("a", float(v), i) for i, v in enumerate([10, 11, 9, 10, 12, 10, 9, 11, 10, 1000])]
            + [("b", 5.0, 100 + i) for i in range(4)] + [("b", 6.0, 104)]
            + [("c", float("nan"), 200)])
    df = pd.DataFrame(rows, columns=["event_type", "value", "event_id"])
    out = robust_outliers(rd.from_pandas(df).repartition(3),
                          "event_type", "value", k=3.0).to_pandas()
    # key a: median 10, MAD 1 -> only the 1000 row flags
    assert set(out[out.event_type == "a"].event_id) == {9}
    # key b: median 5, MAD 0 -> the single 6.0 row flags (any deviation)
    assert set(out[out.event_type == "b"].event_id) == {104}
    # key c has no non-null values -> no rows
    assert (out.event_type == "c").sum() == 0


def test_robust_outliers_materializes_transformed_input(ray_session):
    """A transform-stacked input is pinned once up front (the 3-pass
    consumer must not re-execute upstream transforms per pass)."""
    import ray.data as rd

    from gxdindexer_ray.ops.sketches import robust_outliers

    calls = {"n": 0}

    def bump(b):
        calls["n"] += len(b)
        return b

    df = pd.DataFrame({"event_type": ["a"] * 50, "event_id": range(50),
                       "value": [1.0] * 49 + [100.0]})
    ds = rd.from_pandas(df).repartition(1).map_batches(bump, batch_format="pandas")
    out = robust_outliers(ds, "event_type", "value").to_pandas()
    assert set(out.event_id) == {49}


def test_key_cooccurrence_exact_counts(ray_session):
    """key_cooccurrence (q117): unordered pair counts vs a brute-force
    reference; duplicates across blocks don't double-count; singleton
    groups emit nothing."""
    import itertools

    import ray.data as rd

    from gxdindexer_ray.ops.relational import key_cooccurrence

    rng = np.random.default_rng(11)
    items = [f"i{k}" for k in range(8)]
    rows = []
    for u in range(60):
        basket = rng.choice(items, size=rng.integers(1, 6), replace=False)
        for it in basket:
            # repeated events of the same (user, item): must count once
            for _ in range(int(rng.integers(1, 3))):
                rows.append((u, it))
    df = pd.DataFrame(rows, columns=["user_id", "event_type"])
    # null items/groups can't satisfy a SQL equi-self-join: both reducer
    # paths must drop them, not crash or emit None pairs
    df = pd.concat([df, pd.DataFrame({"user_id": [0, None],
                                      "event_type": [None, "i0"]})],
                   ignore_index=True)
    # brute force (null groups/items excluded, like the SQL self-join)
    want: dict = {}
    for _, grp in df.dropna().drop_duplicates().groupby("user_id"):
        for a, b in itertools.combinations(sorted(grp.event_type), 2):
            want[(a, b)] = want.get((a, b), 0) + 1
    # BOTH reducer paths must agree with brute force: dense gram matmul
    # (default cap) and the triangle fallback (cap=0 forces it)
    for cap in (2048, 0):
        out = key_cooccurrence(rd.from_pandas(df).repartition(5),
                               "user_id", "event_type",
                               dense_items_cap=cap)
        got = {(r.item_a, r.item_b): r.n_groups for r in out.itertuples()}
        assert got == want, f"dense_items_cap={cap}"
        assert all(a < b for a, b in got)


def test_key_cooccurrence_path_by_cost(monkeypatch):
    """Many groups of ~10 items over a 2,000-item vocabulary: the dense
    matmul would cost groups x items^2 against ~45 pairs per group, so the
    reducer takes blocked_pairs although the vocabulary is under the dense
    cap; large baskets over a narrow vocabulary keep the matmul. Both paths
    give identical counts on both shapes."""
    from gxdindexer_ray.ops import relational as R

    rng = np.random.default_rng(5)
    calls = []
    kernel = R.blocked_pairs
    monkeypatch.setattr(R, "blocked_pairs", lambda *a, **kw: calls.append(1) or kernel(*a, **kw))

    def shape(n_groups, lo, hi, vocab):
        sizes = rng.integers(lo, hi, n_groups)
        g = np.repeat(np.arange(n_groups), sizes)
        it = np.concatenate([rng.choice(vocab, s, replace=False) for s in sizes])
        # every (group, item) row twice: the reducer's input is not yet distinct
        return np.r_[g, g], np.array([f"i{x:04d}" for x in np.r_[it, it]], dtype=object)

    def counts(out):
        return sorted(zip(*[x.tolist() for x in out]))

    for (g, it), blocked in ((shape(3000, 5, 16, 2000), True), (shape(300, 100, 200, 300), False)):
        assert np.unique(it).size <= 2048
        del calls[:]
        got = counts(R._pair_counts(g, it, 2048))
        assert bool(calls) == blocked
        forced = counts(R._pair_counts(g, it, 0))  # blocked_pairs
        with monkeypatch.context() as m:
            m.setattr(R, "_GRAM_MADDS_PER_PAIR", 1e30)  # dense
            dense = counts(R._pair_counts(g, it, 2048))
        assert got == forced == dense and got


def test_triangle_count_exact(ray_session):
    """triangle_count (q118): brute-force parity on a random graph;
    duplicate/reversed/self-loop edges collapse; stars have none, K4 has
    four."""
    import ray.data as rd

    from gxdindexer_ray.ops.graph import triangle_count

    # K4 + a star (hub 100 with 6 leaves) + a dangling edge, with every
    # edge also given reversed and duplicated across blocks
    k4 = [(a, b) for a in range(4) for b in range(4) if a < b]
    star = [(100, 200 + i) for i in range(6)]
    edges = k4 + star + [(50, 51)] + [(1, 1)]
    df = pd.DataFrame(edges + [(b, a) for a, b in edges],
                      columns=["src", "dst"])
    out = triangle_count(rd.from_pandas(pd.concat([df, df])).repartition(4))
    assert int(out["n_triangles"].iloc[0]) == 4

    # random graph vs brute force
    rng = np.random.default_rng(7)
    n = 60
    m = rng.integers(0, n, size=(500, 2))
    m = m[m[:, 0] != m[:, 1]]
    df = pd.DataFrame(m, columns=["src", "dst"])
    adj = np.zeros((n, n), dtype=bool)
    adj[m[:, 0], m[:, 1]] = True
    adj = adj | adj.T
    a_i = adj.astype(np.int64)
    want = int(np.einsum("ij,jk,ki->", a_i, a_i, a_i)) // 6
    out = triangle_count(rd.from_pandas(df).repartition(3), n_buckets=4)
    assert int(out["n_triangles"].iloc[0]) == want


def test_jaccard_join_exact_all_pairs(ray_session):
    """jaccard_join (q119): prefix filtering must find EVERY qualifying
    pair — parity against brute-force exact Jaccard over all pairs,
    including boundary pairs near the threshold."""
    import itertools

    import ray.data as rd

    from gxdindexer_ray.ops.dedup import exact_jaccard, jaccard_join

    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(300)]
    docs = {}
    for i in range(80):
        docs[i] = list(rng.choice(vocab, size=40))
    # planted pairs across the threshold: heavy overlap, moderate, light
    base = list(rng.choice(vocab, size=60))
    docs[900] = base
    docs[901] = base[:55] + ["zz1", "zz2", "zz3", "zz4", "zz5"]   # high J
    docs[902] = base[:35] + list(rng.choice(vocab, size=25))      # mid J
    docs[903] = base[:10] + list(rng.choice(vocab, size=50))      # low J
    df = pd.DataFrame({"doc_id": list(docs), 
                       "text": [" ".join(t) for t in docs.values()]})
    tau = 0.3  # low threshold: long prefixes, many candidates — stress
    out = jaccard_join(rd.from_pandas(df).repartition(4), threshold=tau,
                       n_buckets=8)
    got = {(int(r.a), int(r.b)) for r in out.itertuples()}
    want = set()
    toks = {i: t for i, t in docs.items()}
    for a, b in itertools.combinations(sorted(docs), 2):
        j = exact_jaccard(toks[a], toks[b])
        if round(j, 6) >= tau:
            want.add((a, b))
    assert got == want
    assert (900, 901) in got


def test_edit_distance_join_brute_parity(ray_session):
    """edit_distance_join (q120): deletion-neighborhood blocking must find
    EVERY pair within max_dist — brute-force Levenshtein parity over
    planted clusters (exact dupes, 1-edits of each kind, 2-edits, unicode,
    repeated-char variant collisions), at max_dist 1 and 2."""
    import itertools

    import ray.data as rd

    from gxdindexer_ray.ops.textops import _lev_within, edit_distance_join

    keys = {
        0: "abcdef", 1: "abcdef", 2: "abcdef",      # exact-dup cluster
        3: "abcdxf",                                 # 1 substitution
        4: "abcde",                                  # 1 deletion
        5: "abcdefg",                                # 1 insertion
        6: "xbcdxf",                                 # 2 edits from 0
        7: "zzzzzz",                                 # far
        8: "aabb", 9: "abb",                         # repeated-char deletes
        10: "héllo", 11: "hallo", 12: "héllo!",  # unicode
        13: "", 14: "a",                             # tiny keys
    }
    df = pd.DataFrame({"doc_id": list(keys), "k": list(keys.values())})
    for d in (1, 2):
        out = edit_distance_join(rd.from_pandas(df).repartition(3),
                                 str_col="k", max_dist=d,
                                 n_buckets=8).to_pandas()
        got = {(int(r.a), int(r.b)): int(r.dist) for r in out.itertuples()}
        want = {}
        for a, b in itertools.combinations(sorted(keys), 2):
            dd = _lev_within(keys[a], keys[b], d)
            if dd <= d:
                want[(a, b)] = dd
        assert got == want, f"max_dist={d}"
    # _lev_within itself vs a reference DP on random short strings
    rng = np.random.default_rng(7)
    def ref_lev(a, b):
        la, lb = len(a), len(b)
        m = np.zeros((la + 1, lb + 1), dtype=int)
        m[:, 0] = np.arange(la + 1); m[0, :] = np.arange(lb + 1)
        for i in range(1, la + 1):
            for j in range(1, lb + 1):
                m[i, j] = min(m[i - 1, j] + 1, m[i, j - 1] + 1,
                              m[i - 1, j - 1] + (a[i - 1] != b[j - 1]))
        return m[la, lb]
    for _ in range(200):
        a = "".join(rng.choice(list("abc"), size=rng.integers(0, 7)))
        b = "".join(rng.choice(list("abc"), size=rng.integers(0, 7)))
        for d in (1, 2):
            assert _lev_within(a, b, d) == min(ref_lev(a, b), d + 1)


def test_grouped_mode_exact(ray_session):
    """grouped_mode (q121): exact per-key argmax with count-desc /
    value-asc tie-break; partials summed correctly across blocks; null
    keys and values dropped."""
    import ray.data as rd

    from gxdindexer_ray.ops.relational import grouped_mode

    df = pd.DataFrame({
        "k": [1, 1, 1, 2, 2, 2, 2, 3, 3, None, 4],
        "v": ["b", "b", "a", "x", "y", "x", "y", "z", None, "q", "only"],
    })
    # repartition(5) splits key groups across blocks -> reducer must SUM
    # partials per (k, v), not pick a per-block winner
    out = grouped_mode(rd.from_pandas(df).repartition(5), ["k"], "v",
                       out_col="mode_value", n_buckets=4).to_pandas()
    got = {int(r.k): (r.mode_value, int(r.n_occurrences))
           for r in out.itertuples()}
    assert got == {1: ("b", 2),      # plain majority
                   2: ("x", 2),      # tie 2-2 -> smallest value wins
                   3: ("z", 1),      # null value dropped
                   4: ("only", 1)}   # singleton
    assert len(out) == 4             # null key dropped
