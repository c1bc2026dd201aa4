"""Near-duplicate detection operators: MinHash+LSH, SimHash, n-gram Jaccard.

Pipeline shape (the scalable pattern): per-batch signatures (vectorized)
-> explode to (band_id, band_hash, doc_id) rows -> groupby band bucket ->
candidate pairs within band -> exact verification on the pair set. Only
signatures and candidate pairs ever shuffle — never documents.

All hashes are blake2b-derived (deterministic across processes; Python's
builtin ``hash`` is salted and must never feed a shuffle key)."""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ray.data.aggregate import AggregateFn  # noqa: F401  (documented alternative)

from ..index.docid import blake2b_rows
from ..text.tokenize import tokenize_column

_MERSENNE = (1 << 61) - 1

_POPCNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (numpy<2 lacks np.bitwise_count)."""
    return _POPCNT8[x.view(np.uint8).reshape(-1, 8)].sum(axis=1).astype(np.int64)


def _hash64_strings(strings: list[str]) -> np.ndarray:
    out = np.empty(len(strings), dtype=np.uint64)
    b2b = hashlib.blake2b
    for i, s in enumerate(strings):
        out[i] = int.from_bytes(b2b(s.encode(), digest_size=8).digest(), "big")
    return out


def _token_digests(flat: pa.Array | pa.ChunkedArray,
                   digest_size: int) -> np.ndarray:
    """Per-token blake2b digests as big-endian uint64 words, (n,
    digest_size // 8), hashing each UNIQUE token once (dictionary-encode)
    through the buffer-level ``blake2b_rows`` loop."""
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    dic = pc.dictionary_encode(flat)
    idx = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return blake2b_rows(dic.dictionary, digest_size)[idx]


def _token_hashes_flat(flat: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """blake2b-64 per token: identical values to
    ``_hash64_strings(tokens)`` at vocabulary-sized cost."""
    return np.ascontiguousarray(_token_digests(flat, 8)[:, 0])


def _token_hash_pairs_flat(
        flat: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """TWO independent blake2b-64 streams per token (one 128-bit digest
    split in half). The pair gives genuinely independent collision
    behavior — deriving the second stream from the first would reduce the
    combined key to the first stream's 64 bits."""
    d = _token_digests(flat, 16)
    return np.ascontiguousarray(d[:, 0]), np.ascontiguousarray(d[:, 1])


_MASK64 = (1 << 64) - 1


def _splitmix64_int(x: int) -> int:
    """Scalar splitmix64 (same constants as relational._splitmix64) —
    the reference path for the vectorized chain."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _chain_int(hashes: list[int]) -> int:
    h = _splitmix64_int(hashes[0])
    for t in hashes[1:]:
        h = _splitmix64_int(h ^ t)
    return h


def _perm_params(n_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=n_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=n_perm, dtype=np.uint64)
    return a, b


def shingle_set(tokens: list[str], k: int = 3) -> list[str]:
    if len(tokens) < k:
        return [" ".join(tokens)] if tokens else []
    return sorted({" ".join(tokens[i:i + k]) for i in range(len(tokens) - k + 1)})


def shingle_hash_set(tokens: list[str], k: int = 3) -> np.ndarray:
    """Sorted unique shingle hashes of one doc (scalar reference path for
    the vectorized ``_shingle_hashes_per_doc``). Shingle hash = splitmix64
    chain over the k consecutive tokens' blake2b-64 hashes; docs shorter
    than k yield ONE whole-doc chain (mirrors ``shingle_set``'s rule).
    Jaccard over these hashes equals Jaccard over shingle strings (modulo
    64-bit collisions), so verified near-dup outputs are hash-invariant."""
    if not tokens:
        return np.empty(0, dtype=np.uint64)
    th = [int(x) for x in _hash64_strings(tokens)]
    if len(th) < k:
        vals = {_chain_int(th)}
    else:
        vals = {_chain_int(th[i:i + k]) for i in range(len(th) - k + 1)}
    return np.sort(np.fromiter(vals, dtype=np.uint64, count=len(vals)))


_M61 = np.uint64(_MERSENNE)


def _mulmod_m61(a_scalar, h: np.ndarray, b_scalar) -> np.ndarray:
    """(a*h + b) mod 2^61-1, exact, fully vectorized in uint64 via 31/30-bit
    limb splitting (a, b, h all < 2^61; every intermediate < 2^63)."""
    a = int(a_scalar)
    a1 = np.uint64(a >> 31)
    a0 = np.uint64(a & ((1 << 31) - 1))
    h1 = h >> np.uint64(31)
    h0 = h & np.uint64((1 << 31) - 1)
    # a*h = a1*h1*2^62 + (a1*h0 + a0*h1)*2^31 + a0*h0 ; 2^61 = 1 (mod p)
    term1 = (a1 * h1) << np.uint64(1)                     # *2^62 = *2
    mid = a1 * h0 + a0 * h1                               # < 2^62
    mid = (mid >> np.uint64(61)) + (mid & _M61)
    term2 = (mid >> np.uint64(30)) + ((mid & np.uint64((1 << 30) - 1)) << np.uint64(31))
    low = a0 * h0                                         # < 2^62
    low = (low >> np.uint64(61)) + (low & _M61)
    s = term1 + term2 + low + np.uint64(int(b_scalar))    # < 2^63
    s = (s >> np.uint64(61)) + (s & _M61)
    s = (s >> np.uint64(61)) + (s & _M61)
    return np.where(s >= _M61, s - _M61, s)


def _chain_vec(tok_hash: np.ndarray, starts: np.ndarray, length: int) -> np.ndarray:
    from .relational import _splitmix64

    h = _splitmix64(tok_hash[starts])
    for j in range(1, length):
        h = _splitmix64(h ^ tok_hash[starts + j])
    return h


def _shingle_hashes_per_doc(tok_hash: np.ndarray, doc_idx: np.ndarray,
                            n_docs: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(sh_doc, sh_hash): per-doc UNIQUE shingle hashes, sorted by
    (doc, hash), vectorized over the whole flat token stream (no Python
    loop over docs/shingles). Same hash definition as
    ``shingle_hash_set``."""
    n = tok_hash.size
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    bounds = np.searchsorted(doc_idx, np.arange(n_docs + 1))
    lens = np.diff(bounds)
    parts_d: list[np.ndarray] = []
    parts_h: list[np.ndarray] = []
    if n >= k:
        valid = doc_idx[:n - k + 1] == doc_idx[k - 1:]
        starts = np.flatnonzero(valid)
        if starts.size:
            parts_d.append(doc_idx[starts])
            parts_h.append(_chain_vec(tok_hash, starts, k))
    for ell in range(1, k):
        docs = np.flatnonzero(lens == ell)
        if docs.size:
            parts_d.append(docs.astype(np.int64))
            parts_h.append(_chain_vec(tok_hash, bounds[docs], ell))
    if not parts_d:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    d = np.concatenate(parts_d)
    h = np.concatenate(parts_h)
    order = np.lexsort((h, d))
    d = d[order]
    h = h[order]
    keep = np.empty(d.size, dtype=bool)
    keep[0] = True
    keep[1:] = (d[1:] != d[:-1]) | (h[1:] != h[:-1])
    return d[keep], h[keep]


def _sig_matrix(sh_doc: np.ndarray, sh_hash: np.ndarray, n_docs: int,
                a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n_docs, n_perm) signature matrix from per-doc shingle hashes —
    one exact uint64 mulmod + reduceat per permutation, zero Python-object
    arithmetic."""
    n_perm = a.size
    sig = np.full((n_docs, n_perm), _M61, dtype=np.uint64)
    if sh_doc.size == 0:
        return sig
    hmod = sh_hash % _M61
    run_starts = np.flatnonzero(np.r_[True, sh_doc[1:] != sh_doc[:-1]])
    docs_present = sh_doc[run_starts]
    for i in range(n_perm):
        vals = _mulmod_m61(a[i], hmod, b[i])
        sig[docs_present, i] = np.minimum.reduceat(vals, run_starts)
    return sig


def minhash_signature(tokens: list[str], a: np.ndarray, b: np.ndarray,
                      k: int = 3) -> np.ndarray:
    """n_perm minima of (a*h + b) mod 2^61-1 over one doc's shingle-hash
    set (scalar Python-int reference path; the batch path below vectorizes
    across a whole batch and must agree exactly)."""
    sh = shingle_hash_set(tokens, k)
    if sh.size == 0:
        return np.full(a.size, np.uint64(_MERSENNE), dtype=np.uint64)
    h = [int(x) % _MERSENNE for x in sh]
    sig = np.empty(a.size, dtype=np.uint64)
    for i in range(a.size):
        sig[i] = np.uint64(min((int(a[i]) * x + int(b[i])) % _MERSENNE for x in h))
    return sig


def minhash_signature_batch(token_lists: list[list[str]], a: np.ndarray, b: np.ndarray,
                            k: int = 3) -> np.ndarray:
    """(n_docs, n_perm) uint64 signature matrix, vectorized across all
    shingles of a batch at once."""
    n_docs = len(token_lists)
    flat: list[str] = []
    doc_of: list[int] = []
    for d, toks in enumerate(token_lists):
        flat.extend(toks)
        doc_of.extend([d] * len(toks))
    if not flat:
        return np.full((n_docs, a.size), np.uint64(_MERSENNE), dtype=np.uint64)
    tok_hash = _token_hashes_flat(pa.array(flat, pa.string()))
    sh_doc, sh_hash = _shingle_hashes_per_doc(
        tok_hash, np.asarray(doc_of, dtype=np.int64), n_docs, k)
    return _sig_matrix(sh_doc, sh_hash, n_docs, a, b)


def minhash_signatures(ds, *, id_col: str = "doc_id", text_col: str = "text",
                       n_perm: int = 64, shingle_k: int = 3, seed: int = 7):
    """Per-doc MinHash signatures as a Dataset of (id, sig fixed_size_list
    <int64>[n_perm]) — the measurable signature stage of
    ``minhash_lsh_candidates`` exposed on its own, for throughput
    benchmarking and for LSH variants that persist signatures at rest.
    Same kernels, byte-identical minima (uint64 stored as int64 view)."""
    a_p, b_p = _perm_params(n_perm, seed)
    import ray

    ref = ray.put((a_p, b_p))

    def sigs(batch: pa.Table) -> pa.Table:
        ap, bp = ray.get(ref)
        flat, doc_idx = tokenize_column(batch[text_col])
        tok_hash = _token_hashes_flat(flat)
        sh_doc, sh_hash = _shingle_hashes_per_doc(tok_hash, doc_idx,
                                                  batch.num_rows, shingle_k)
        sig = _sig_matrix(sh_doc, sh_hash, batch.num_rows, ap, bp)
        vals = pa.array(sig.reshape(-1).view(np.int64), pa.int64())
        return pa.table({
            id_col: batch[id_col],
            "sig": pa.FixedSizeListArray.from_arrays(vals, n_perm),
        })

    return ds.map_batches(sigs, batch_format="pyarrow")


def band_signature_rows(ds, *, id_col: str = "doc_id",
                        text_col: str = "text", n_perm: int = 64,
                        bands: int = 16, shingle_k: int = 3, seed: int = 7):
    """(band, bhash, doc) LSH band-fingerprint rows for a corpus — the
    shared signature stage of ``minhash_lsh_candidates`` and the
    incremental near-dup probe (identical parameters => identical
    fingerprints, so two corpora hashed separately band-match exactly)."""
    assert n_perm % bands == 0
    rows_per_band = n_perm // bands
    a_p, b_p = _perm_params(n_perm, seed)
    import ray

    ref = ray.put((a_p, b_p))

    def sigs(batch: pa.Table) -> pa.Table:
        from .relational import _splitmix64

        ap, bp = ray.get(ref)
        flat, doc_idx = tokenize_column(batch[text_col])
        tok_hash = _token_hashes_flat(flat)
        sh_doc, sh_hash = _shingle_hashes_per_doc(tok_hash, doc_idx,
                                                  batch.num_rows, shingle_k)
        sig = _sig_matrix(sh_doc, sh_hash, batch.num_rows, ap, bp)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(ids)
        band_ids = np.repeat(np.arange(bands, dtype=np.int32), n)
        doc_ids = np.tile(ids, bands)
        band_hashes = np.empty(bands * n, dtype=np.uint64)
        for bi in range(bands):
            # vectorized band fingerprint: splitmix64 chain over the band's
            # minima, salted by the band id (deterministic, process-stable)
            h = _splitmix64(np.full(n, np.uint64(bi + 1)))
            for c in range(rows_per_band):
                h = _splitmix64(h ^ sig[:, bi * rows_per_band + c])
            band_hashes[bi * n:(bi + 1) * n] = h
        return pa.table({
            "band": pa.array(band_ids, pa.int32()),
            "bhash": pa.array((band_hashes >> np.uint64(1)).astype(np.int64), pa.int64()),
            "doc": pa.array(doc_ids, pa.int64()),
        })

    return ds.map_batches(sigs, batch_format="pyarrow")


def minhash_lsh_candidates(ds, *, id_col: str = "doc_id", text_col: str = "text",
                           n_perm: int = 64, bands: int = 16, shingle_k: int = 3,
                           seed: int = 7):
    """Candidate near-dup pairs via banded MinHash-LSH. Returns a Dataset of
    (a, b) candidate pairs (a < b), deduplicated."""
    sig_ds = band_signature_rows(ds, id_col=id_col, text_col=text_col,
                                 n_perm=n_perm, bands=bands,
                                 shingle_k=shingle_k, seed=seed)
    return band_bucket_pairs(sig_ds)


def _warn_capped(op: str, what: str, capped: int, max_group: int,
                 how: str) -> None:
    if capped:
        import logging

        logging.getLogger(__name__).warning(
            "%s: capped %d %s above max_group=%d to %s", op, capped, what,
            max_group, how)


def band_bucket_pairs(sig_ds, n_buckets: int = 64, max_group: int = 512):
    """Shared LSH candidate generation: (band, bhash, doc) signature rows
    -> deduplicated (a, b) candidate pairs (a < b). One bhash-keyed
    exchange; pairs emitted per (band, bucket) group; used by both
    MinHash-LSH (text) and hyperplane-LSH (embeddings).

    Hot-bucket cap: a degenerate band bucket (boilerplate pages sharing a
    band hash at crawl scale) would emit O(n^2) pairs and stall its
    reducer. Groups above ``max_group`` docs emit a bounded star+chain
    instead (every doc paired with the group minimum, plus consecutive
    sorted neighbors — 2n-3 pairs): full within-bucket connectivity is
    preserved for the connected-components consumers, and a bucket that
    large is one near-dup cluster in practice, so downstream exact-Jaccard
    verification sees representative edges. Capped groups are counted and
    logged per reducer."""
    from .relational import blocked_pairs, dedup_first, exchange

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        # fully vectorized over the bucket (blocked_pairs): the groups are
        # OVERWHELMINGLY singletons at crawl scale, so a per-group Python
        # loop costs more than all the real pair math (A/B at 200k docs /
        # 3.2M signature rows: 27s -> <2s per stage)
        doc = group["doc"].to_numpy().astype(np.int64)
        ia, ib, capped = blocked_pairs(
            (group["band"].to_numpy(), group["bhash"].to_numpy()), doc,
            max_group=max_group)
        _warn_capped("band_bucket_pairs", "bucket group(s)", capped,
                     max_group, "star+chain pair emission")
        return pd.DataFrame({"a": doc[ia], "b": doc[ib]})

    cand = exchange(sig_ds, pairs, mod="bhash", n_buckets=n_buckets)
    return dedup_first(cand, ["a", "b"], ["a", "b"])


def exact_jaccard(tokens_a: list[str], tokens_b: list[str], k: int = 3) -> float:
    sa, sb = set(shingle_set(tokens_a, k)), set(shingle_set(tokens_b, k))
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def _empty_verified() -> pd.DataFrame:
    return pd.DataFrame(columns=["a", "b", "jaccard"]).astype(
        {"a": np.int64, "b": np.int64, "jaccard": np.float64})


def _empty_verified_ds():
    import ray.data as rd

    return rd.from_arrow(pa.table({"a": pa.array([], pa.int64()),
                                   "b": pa.array([], pa.int64()),
                                   "jaccard": pa.array([], pa.float64())}))


def _shingle_hash_rows(ds, cand_ids, id_col: str, text_col: str, k: int,
                       out_id: str, out_sh: str):
    """(doc_id, sorted unique shingle hashes) for the candidate id set —
    hashes (blake2b-64) travel instead of shingle strings; a 64-bit
    collision would need ~2^32 distinct shingles per pair to matter.
    ``cand_ids`` is a Dataset of candidate ids (column 'cid'): the docs
    side is pre-filtered through the range-sliced id filter — no
    candidate-id broadcast, O(chunk) per-task memory at any dup rate."""
    from .relational import ranged_id_filter

    sub_ds = ranged_id_filter(ds, cand_ids, id_col, ids_col="cid", keep=True)

    def grab(sub: pa.Table) -> pa.Table:
        flat, doc_idx = tokenize_column(sub[text_col])
        tok_hash = _token_hashes_flat(flat)
        sh_doc, sh_hash = _shingle_hashes_per_doc(tok_hash, doc_idx,
                                                  sub.num_rows, k)
        # per-doc list array straight from the (doc-sorted) flat hashes
        counts = np.bincount(sh_doc, minlength=sub.num_rows) if sh_doc.size else \
            np.zeros(sub.num_rows, dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        values = pa.array(sh_hash.view(np.int64), pa.int64())
        return pa.table({
            out_id: sub[id_col],
            out_sh: pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), values),
        })

    return sub_ds.map_batches(grab, batch_format="pyarrow")


def verify_pairs_jaccard(ds, pairs, *, id_col: str = "doc_id",
                         text_col: str = "text", k: int = 3,
                         threshold: float = 0.5, as_dataset: bool = False):
    """Exact n-gram Jaccard on candidate pairs, DISTRIBUTED: shingle-hash
    sets for the candidate docs are partitioned-joined onto the pair set
    (two key-hash shuffles of candidate-sized data); the per-bucket reducer
    intersects sorted hash arrays and only (a, b, jaccard) rows survive.
    Nothing document-sized OR candidate-sized ever reaches the driver: the
    docs side is pre-filtered to candidate ids with the range-sliced id
    filter (sorted/chunked id set in the object store; O(chunk) task
    memory — no candidate-id broadcast). ``as_dataset=True`` returns the
    verified pairs as a Dataset (the crawl-scale path feeding connected
    components); default collects the pandas frame for driver-sized uses."""
    import ray.data as rd
    from .relational import partitioned_join

    if isinstance(pairs, pd.DataFrame):
        if pairs.empty:
            return _empty_verified_ds() if as_dataset else _empty_verified()
        pairs_ds = rd.from_pandas(pairs[["a", "b"]].astype(np.int64))
    else:
        pairs_ds = pairs.materialize()  # consumed twice: id set + join input
        if pairs_ds.count() == 0:  # clean corpus: no candidates at all
            return _empty_verified_ds() if as_dataset else _empty_verified()

    cand_ids = pairs_ds.map_batches(
        lambda t: pa.table({"cid": pa.concat_arrays(
            [t["a"].combine_chunks().cast(pa.int64()),
             t["b"].combine_chunks().cast(pa.int64())])}),
        batch_format="pyarrow")

    # shingle-hash rows computed ONCE (tokenize+hash is the expensive
    # part); the b-side is a zero-copy column rename of the same rows
    sh_a = _shingle_hash_rows(ds, cand_ids, id_col, text_col, k,
                              "a_key", "sh_a").materialize()
    j1 = partitioned_join(pairs_ds, sh_a, "a", "a_key", how="inner")
    sh_b = sh_a.map_batches(lambda t: t.rename_columns(["b_key", "sh_b"]),
                            batch_format="pyarrow")

    def jac_post(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return _empty_verified()
        jac = np.empty(len(df), np.float64)
        for i, (sa, sb) in enumerate(zip(df["sh_a"].to_numpy(), df["sh_b"].to_numpy())):
            sa = np.asarray(sa)
            sb = np.asarray(sb)
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            union = sa.size + sb.size - inter
            jac[i] = (inter / union) if union else 1.0
        out = pd.DataFrame({"a": df["a"].to_numpy(np.int64),
                            "b": df["b"].to_numpy(np.int64),
                            "jaccard": np.round(jac, 6)})
        return out[out["jaccard"] >= threshold]

    j2 = partitioned_join(j1, sh_b, "b", "b_key", how="inner", bucket_post=jac_post)
    if as_dataset:
        return j2
    out = j2.to_pandas()
    if out.empty:
        return _empty_verified()
    return out.sort_values(["a", "b"]).reset_index(drop=True).astype(
        {"a": np.int64, "b": np.int64, "jaccard": np.float64})


def _cc_init(edges_tbl: pa.Table) -> pa.Table:
    """Per-bucket initial labels: comp(u) = min(u, min neighbor)."""
    u = edges_tbl["u"].to_numpy(zero_copy_only=False)
    v = edges_tbl["v"].to_numpy(zero_copy_only=False)
    order = np.argsort(u, kind="stable")
    us, vs = u[order], v[order]
    starts = np.flatnonzero(np.r_[True, us[1:] != us[:-1]])
    nodes = us[starts]
    comp = np.minimum(nodes, np.minimum.reduceat(vs, starts))
    return pa.table({"node": pa.array(nodes, pa.int64()),
                     "comp": pa.array(comp, pa.int64())})


def _cc_propose(edges_tbl: pa.Table, labels_tbl: pa.Table, n_buckets: int):
    """One bucket's propagation round: map each edge's u to its current
    label (labels are node-sorted; u is guaranteed present — labels and
    edges share the hash(u) bucketing), emit pre-minned (node=v, comp)
    proposals partitioned by hash(v) % n_buckets. Returns
    (bucket keys, {bucket: table ref}) like _partition_chunk."""
    from .relational import bucket_ids

    u = edges_tbl["u"].to_numpy(zero_copy_only=False)
    v = edges_tbl["v"].to_numpy(zero_copy_only=False)
    nodes = labels_tbl["node"].to_numpy(zero_copy_only=False)
    comp = labels_tbl["comp"].to_numpy(zero_copy_only=False)
    lab_u = comp[np.searchsorted(nodes, u)]
    # local pre-min per v (combiner): one proposal row per (bucket, v)
    order = np.lexsort((lab_u, v))
    vs, ls = v[order], lab_u[order]
    starts = np.flatnonzero(np.r_[True, vs[1:] != vs[:-1]])
    pv = vs[starts]
    pl = ls[starts]  # lexsort put min label first per v
    # a proposal with comp >= v can never lower v's label (labels start at
    # min(v, ...) <= v and only decrease) — drop it before it travels
    keep = pl < pv
    pv, pl = pv[keep], pl[keep]
    if pv.size == 0:
        return [], {}
    import ray as _ray

    buckets = bucket_ids(pa.table({"node": pv.astype(np.int64)}), ["node"],
                         n_buckets)
    border = np.argsort(buckets, kind="stable")
    pv, pl, buckets = pv[border], pl[border], buckets[border]
    bounds = np.concatenate([[0], np.flatnonzero(buckets[1:] != buckets[:-1]) + 1,
                             [buckets.size]])
    keys, out = [], {}
    for i in range(bounds.size - 1):
        s, e = int(bounds[i]), int(bounds[i + 1])
        b = int(buckets[s])
        tbl = pa.table({"node": pa.array(pv[s:e], pa.int64()),
                        "comp": pa.array(pl[s:e], pa.int64())})
        out[b] = _ray.put(tbl)
        keys.append((b, tbl.nbytes))
    return keys, out


def _cc_merge(tb: int, labels_tbl: pa.Table, *prop_dict_refs):
    """Min-merge one bucket's labels with all proposals targeted at it
    (each propose task's dict maps target bucket -> table; only THIS
    bucket's entry is fetched). Returns (changed?, new labels table)."""
    import ray as _ray

    # the dicts arrive resolved (top-level task args are auto-ray.get);
    # their VALUES are still refs to per-bucket proposal tables
    props = [d[tb] for d in prop_dict_refs if tb in d]
    nodes = labels_tbl["node"].to_numpy(zero_copy_only=False)
    old = labels_tbl["comp"].to_numpy(zero_copy_only=False)
    comp = old.copy()
    for tbl in _ray.get(props):
        pn = tbl["node"].to_numpy(zero_copy_only=False)
        pl = tbl["comp"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(nodes, pn)
        np.minimum.at(comp, idx, pl)
    changed = bool((comp != old).any())
    return changed, pa.table({"node": pa.array(nodes, pa.int64()),
                              "comp": pa.array(comp, pa.int64())})


_CC_INIT = _CC_PROPOSE = _CC_MERGE = None


def connected_components_ds(edges, *, n_buckets: int = 64, max_iters: int = 50):
    """Distributed min-label connected components over an (a, b) pair
    Dataset, with ONE PERSISTENT BUCKETING: edges are hash-partitioned by
    u ONCE into pinned object-store tables (labels for node n live in the
    same bucket hash(n), so the label->edge join is always local); each
    round ships only pre-minned label PROPOSALS between buckets. Rounds =
    component diameter (tiny for near-dup clusters). The driver holds
    O(buckets) refs and per-round changed flags — labels never land on it.
    Returns a Dataset of (node, comp); comp is the component's min node id."""
    import ray
    import ray.data as rd

    from .relational import exchange

    global _CC_INIT, _CC_PROPOSE, _CC_MERGE
    if _CC_INIT is None:
        _CC_INIT = ray.remote(_cc_init)
        _CC_PROPOSE = ray.remote(num_returns=2)(_cc_propose)
        _CC_MERGE = ray.remote(num_returns=2)(_cc_merge)

    def undirected(tbl: pa.Table) -> pa.Table:
        a = tbl["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = tbl["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"u": pa.array(np.concatenate([a, b]), pa.int64()),
                         "v": pa.array(np.concatenate([b, a]), pa.int64())})

    # pinned form (no fn): edges and labels share bucket bucket_ids(u), the
    # same bucketing _cc_propose routes proposals by
    ebuckets = exchange(edges, keys=["u"], n_buckets=n_buckets, pre=undirected)
    if not ebuckets:
        return rd.from_arrow(pa.table({"node": pa.array([], pa.int64()),
                                       "comp": pa.array([], pa.int64())}))
    # init labels are node-SORTED per bucket (searchsorted joins rely on it)
    labels = {b: _CC_INIT.remote(t) for b, t in ebuckets.items()}
    for _ in range(max_iters):
        keys_refs, dict_refs = [], []
        for b in ebuckets:
            kr, dr = _CC_PROPOSE.remote(ebuckets[b], labels[b], n_buckets)
            keys_refs.append(kr)
            dict_refs.append(dr)
        hit: dict = {}
        for ti, keys in enumerate(ray.get(keys_refs)):
            for tb, _nb in keys:
                hit.setdefault(tb, []).append(ti)
        if not hit:
            break
        changed_refs, new_labels = [], dict(labels)
        for tb, tis in hit.items():
            if tb not in labels:  # a proposal for a node we never saw as u
                continue  # cannot happen: undirected doubling puts every
                # node in its own bucket's u column
            ch, nl = _CC_MERGE.remote(tb, labels[tb], *[dict_refs[i] for i in sorted(set(tis))])
            changed_refs.append(ch)
            new_labels[tb] = nl
        labels = new_labels
        if not any(ray.get(changed_refs)):
            break
    else:
        raise RuntimeError(f"connected_components did not converge in {max_iters} rounds")
    return rd.from_arrow_refs(list(labels.values()))


def connected_components(edges, *, max_iters: int = 50):
    """pandas-facade over ``connected_components_ds`` for callers whose
    label set is driver-sized (tests, ontology-scale graphs). Returns a
    (node, comp) frame sorted by node."""
    import ray.data as rd

    if isinstance(edges, pd.DataFrame):
        if edges.empty:
            return pd.DataFrame(columns=["node", "comp"]).astype(np.int64)
        edges = rd.from_pandas(edges[["a", "b"]].astype(np.int64))
    out = connected_components_ds(edges).to_pandas()
    return out.astype({"node": np.int64, "comp": np.int64}).sort_values(
        "node").reset_index(drop=True)


def dedup_corpus(ds, *, id_col: str = "doc_id", text_col: str = "text",
                 threshold: float = 0.5, n_perm: int = 64, bands: int = 16,
                 shingle_k: int = 3):
    """Near-dup dedup end-to-end: MinHash-LSH candidates -> distributed
    exact-Jaccard verification -> pinned-bucket connected components ->
    keep the MIN doc_id per cluster (first-wins parity with the reference's
    first-write-wins dedup, GxdResultIndexer.java:718-756). Returns the
    kept-id Dataset (id column only).

    Nothing corpus-scale is broadcast or lands on the driver: component
    labels stay a Dataset; the LOSER ids (node != comp — at crawl dup
    rates 30-50% of the corpus) are excluded via the range-sliced id
    filter (sorted/chunked in the object store, each map task fetches only
    the chunks overlapping its batch's id range; O(chunk) task memory)."""
    from .relational import ranged_id_filter

    cand = minhash_lsh_candidates(ds, id_col=id_col, text_col=text_col,
                                  n_perm=n_perm, bands=bands, shingle_k=shingle_k)
    verified = verify_pairs_jaccard(ds, cand, id_col=id_col, text_col=text_col,
                                    k=shingle_k, threshold=threshold,
                                    as_dataset=True)
    comp = connected_components_ds(verified)
    losers = comp.map_batches(
        lambda t: t.filter(pc.not_equal(t["node"], t["comp"])).select(["node"]),
        batch_format="pyarrow")
    return ranged_id_filter(ds.map_batches(lambda t: t.select([id_col]),
                                           batch_format="pyarrow"),
                            losers, id_col, ids_col="node", keep=False)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def simhash_64(tokens: list[str]) -> int:
    """Charikar SimHash over unigram token hashes weighted by tf."""
    if not tokens:
        return 0
    uniq, counts = np.unique(np.array(tokens, dtype=object), return_counts=True)
    h = blake2b_rows(pa.array([str(u) for u in uniq], pa.string()), 8)[:, 0]
    bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).astype(np.int64)
    v = ((bits * 2 - 1) * counts[:, None]).sum(axis=0)
    out = 0
    for i in range(63):  # 63 bits so the value stays a positive int64
        if v[i] > 0:
            out |= 1 << i
    return out


def simhash(ds, *, id_col: str = "doc_id", text_col: str = "text"):
    """Batch SimHash, fully vectorized (output-identical to simhash_64 per
    row): dictionary-encoded token hashes, per-(doc, token) tf via a
    composite-key sort, one reduceat over the +/-1 bit matrix per doc."""

    def f(batch: pa.Table) -> pa.Table:
        n_docs = batch.num_rows
        flat, doc_idx = tokenize_column(batch[text_col])
        out = np.zeros(n_docs, dtype=np.int64)
        if len(flat):
            dic = pc.dictionary_encode(flat.combine_chunks()
                                       if isinstance(flat, pa.ChunkedArray) else flat)
            uh = blake2b_rows(dic.dictionary, 8)[:, 0]
            codes = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            # tf per (doc, token): sort by composite key, count runs
            key = doc_idx * len(uh) + codes
            order = np.argsort(key, kind="stable")
            sk = key[order]
            starts = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
            tf = np.diff(np.r_[starts, sk.size]).astype(np.int64)
            pair_doc = (sk[starts] // len(uh)).astype(np.int64)
            pair_code = (sk[starts] % len(uh)).astype(np.int64)
            bits = ((uh[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).astype(np.int64)
            signed = bits * 2 - 1                     # (n_uniq, 64)
            contrib = signed[pair_code] * tf[:, None]  # (n_pairs, 64)
            doc_starts = np.flatnonzero(np.r_[True, pair_doc[1:] != pair_doc[:-1]])
            v = np.add.reduceat(contrib, doc_starts, axis=0)
            docs_present = pair_doc[doc_starts]
            # 63 bits so the value stays a positive int64 (matches simhash_64)
            pos = (v[:, :63] > 0).astype(np.int64)
            vals = (pos << np.arange(63, dtype=np.int64)).sum(axis=1)
            out[docs_present] = vals
        return pa.table({id_col: batch[id_col], "simhash": pa.array(out, pa.int64())})

    return ds.map_batches(f, batch_format="pyarrow")


def simhash_near_dup(ds, *, max_hamming: int = 3, bands: int = 4,
                     id_col: str = "doc_id", text_col: str = "text") -> pd.DataFrame:
    """SimHash near-dup pairs: Hamming-bucket candidate search + exact
    popcount verification. Standard pigeonhole blocking: split the 64-bit
    fingerprint into ``bands`` contiguous chunks — any pair within
    ``bands - 1`` differing bits shares at least one identical chunk, so
    recall is EXACT for ``max_hamming < bands``; for larger radii it is
    the usual SimHash approximation. Only (band, chunk, id, simhash) rows
    shuffle — never documents; per-bucket verification is vectorized
    XOR + popcount over the (tiny) colliding groups."""
    assert 64 % bands == 0
    width = 64 // bands
    sh = simhash(ds, id_col=id_col, text_col=text_col)

    def explode(batch: pa.Table) -> pa.Table:
        vals = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(ids)
        band_ids = np.repeat(np.arange(bands, dtype=np.int32), n)
        chunks = np.empty(bands * n, np.int64)
        for b in range(bands):
            chunks[b * n:(b + 1) * n] = ((vals >> np.uint64(b * width))
                                         & np.uint64((1 << width) - 1)).astype(np.int64)
        return pa.table({
            "band": pa.array(band_ids, pa.int32()),
            "chunk": pa.array(chunks, pa.int64()),
            "doc": pa.array(np.tile(ids, bands), pa.int64()),
            "sh": pa.array(np.tile(vals.astype(np.int64), bands), pa.int64()),
        })

    rows = sh.map_batches(explode, batch_format="pyarrow")

    def pairs(group: pd.DataFrame, max_group: int = 512) -> pd.DataFrame:
        # blocked_pairs over (band, chunk) groups; the hot-group cap is
        # band_bucket_pairs' star+chain; verification is XOR + popcount
        doc = group["doc"].to_numpy().astype(np.int64)
        sh = group["sh"].to_numpy().astype(np.int64).view(np.uint64)
        ia, ib, capped = blocked_pairs(
            (group["band"].to_numpy(), group["chunk"].to_numpy()), doc,
            max_group=max_group)
        _warn_capped("simhash_near_dup", "chunk group(s)", capped,
                     max_group, "star+chain pair emission")
        ham = _popcount64(sh[ia] ^ sh[ib])
        hit = ham <= max_hamming
        return pd.DataFrame({"a": doc[ia][hit], "b": doc[ib][hit],
                             "hamming": ham[hit]})

    from .relational import blocked_pairs, exchange
    from ray.data.aggregate import Min

    cand = exchange(rows, pairs, mod="chunk", n_buckets=64)
    out = cand.groupby(["a", "b"]).aggregate(Min("hamming", alias_name="hamming")).to_pandas()
    if out.empty:
        return pd.DataFrame(columns=["a", "b", "hamming"]).astype(np.int64)
    return out.sort_values(["a", "b"]).reset_index(drop=True).astype(np.int64)


def band_bucket_cross_pairs(sig_ds, n_buckets: int = 64,
                            max_group: int = 512):
    """CROSS-SIDE LSH candidate generation: (band, bhash, doc, side) rows
    -> deduplicated (a, b) pairs where a is a side-0 (prior) doc and b a
    side-1 (new) doc sharing a band fingerprint. Same one-exchange shape
    and hot-bucket discipline as ``band_bucket_pairs``: when a group's
    prior x new cross product exceeds ``max_group`` pairs, each new doc
    is paired with ``max(1, max_group // n_new)`` smallest prior docs
    instead of all of them — bounded ~max_group + n_new pairs per group,
    and every new doc keeps MULTIPLE prior representatives so a bucket
    holding more than one near-dup cluster still gives most new docs a
    same-cluster verify partner (a single-representative cap would turn
    every mixed bucket into silent false negatives). Residual risk: a
    new doc whose true match is outside its R representatives is missed;
    capped groups are counted and logged so a crawl-scale run can see
    when to raise max_group."""
    from .relational import blocked_pairs, dedup_first, exchange

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        doc = group["doc"].to_numpy().astype(np.int64)
        ia, ib, capped = blocked_pairs(
            (group["band"].to_numpy(), group["bhash"].to_numpy()), doc,
            max_group=max_group, side=group["side"].to_numpy())
        _warn_capped("band_bucket_cross_pairs", "group(s)", capped,
                     max_group, "representative pairing")
        return pd.DataFrame({"a": doc[ia], "b": doc[ib]})

    cand = exchange(sig_ds, pairs, mod="bhash", n_buckets=n_buckets)
    return dedup_first(cand, ["a", "b"], ["a", "b"])


def incremental_near_dup(new_ds, prior_ds, *, id_col: str = "doc_id",
                         text_col: str = "text", threshold: float = 0.5,
                         n_perm: int = 64, bands: int = 16,
                         shingle_k: int = 3, seed: int = 7,
                         prior_sig_ds=None):
    """Incremental NEAR-dedup — the MinHash analog of
    textops.exact_dedup_incremental: flag each NEW doc whose exact n-gram
    Jaccard against ANY PRIOR doc reaches ``threshold``. Yesterday's
    corpus is never re-paired with itself: both sides produce band
    fingerprints with IDENTICAL parameters, one cross-side exchange emits
    only prior x new candidates, and the distributed exact-Jaccard verify
    reads just the candidate docs (ranged id filter — no broadcast).
    Returns a Dataset of flagged new-doc ids (id_col), deduplicated.

    Overlapping doc ids between the sides are SAFE (the re-crawl case —
    same id, new text): ids are internally remapped into disjoint
    even/odd namespaces before pairing/verify, so a pair (prior i, new i)
    verifies prior-text-vs-new-text, never a side against itself.
    ``prior_sig_ds`` carries persisted (band, bhash, doc) signature rows
    from a previous ``band_signature_rows`` dump so daily runs skip
    re-MinHashing the prior corpus (its dominant cost); ``prior_ds`` text
    is still read — but only for the candidate docs — during verify."""
    from .relational import dedup_first

    def enc(side: int):
        # disjoint id namespaces: prior -> 2*id, new -> 2*id + 1
        def f(t: pa.Table) -> pa.Table:
            ids = t["doc"].to_numpy(zero_copy_only=False).astype(np.int64)
            return t.set_column(
                t.schema.get_field_index("doc"), "doc",
                pa.array(ids * 2 + side, pa.int64())) \
                .append_column(
                    "side", pa.array(np.full(t.num_rows, side, np.int8)))
        return f

    def enc_docs(side: int):
        def f(t: pa.Table) -> pa.Table:
            ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            return t.set_column(
                t.schema.get_field_index(id_col), id_col,
                pa.array(ids * 2 + side, pa.int64()))
        return f

    kw = dict(id_col=id_col, text_col=text_col, n_perm=n_perm, bands=bands,
              shingle_k=shingle_k, seed=seed)
    prior_sig = (prior_sig_ds if prior_sig_ds is not None
                 else band_signature_rows(prior_ds, **kw))
    sig = prior_sig.map_batches(enc(0), batch_format="pyarrow") \
        .union(band_signature_rows(new_ds, **kw)
               .map_batches(enc(1), batch_format="pyarrow"))
    cand = band_bucket_cross_pairs(sig)
    docs = prior_ds.map_batches(enc_docs(0), batch_format="pyarrow") \
        .union(new_ds.map_batches(enc_docs(1), batch_format="pyarrow"))
    verified = verify_pairs_jaccard(docs, cand, id_col=id_col,
                                    text_col=text_col, k=shingle_k,
                                    threshold=threshold, as_dataset=True)

    def new_side(t: pa.Table) -> pa.Table:
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({id_col: pa.array(b // 2, pa.int64())})

    flagged = verified.map_batches(new_side, batch_format="pyarrow")
    return dedup_first(flagged, [id_col], [id_col])


def jaccard_join(ds, *, id_col: str = "doc_id", text_col: str = "text",
                 threshold: float = 0.5, k: int = 3, n_buckets: int = 64):
    """EXACT all-pairs n-gram Jaccard similarity self-join via PREFIX
    FILTERING (Bayardo et al., WWW'07 "Scaling Up All Pairs Similarity
    Search"): under any global token order, two shingle sets with
    J >= tau MUST share a token inside each one's first
    ``n - ceil(tau*n) + 1`` tokens — so indexing only those prefixes
    provably generates EVERY qualifying pair (unlike MinHash-LSH (q26),
    whose candidate recall is probabilistic), while high-frequency
    shingles mostly sit outside prefixes and never fan out.

    Scale shape: one map pass emits (prefix-hash, doc, set-size) rows —
    O(rows * (1 - tau)) of the shingle stream; ONE hash-keyed exchange
    groups prefix hashes and emits candidate pairs through
    ``blocked_pairs`` (uncapped), pruned by the size-ratio bound
    ``min >= tau * max`` (a J >= tau pair always satisfies it); global
    pair dedup; then the distributed exact verifier
    (verify_pairs_jaccard — partitioned joins of shingle-hash sets, no
    broadcasts) keeps (a, b, jaccard >= tau). The global order is
    ascending blake2b shingle hash, so 'prefix' = the first L entries of
    each doc's (already hash-sorted) shingle slice — effectively a random
    order: adversarial boilerplate can't concentrate one shingle into
    every prefix the way natural-language frequency order could.
    ``ds`` is consumed twice (prefix pass + verification).

    Docs with ZERO shingles (empty or whitespace-only text) emit no prefix
    rows, so they pair with nothing — not even each other, although
    ``exact_jaccard`` defines J(empty, empty) = 1.0. This matches the q26
    shared-shingle SQL oracle, which can only pair docs that share a
    shingle."""
    from .relational import blocked_pairs, dedup_first, exchange

    def prefixes(batch: pa.Table) -> pa.Table:
        empty = pa.table({"bhash": pa.array([], pa.int64()),
                          "doc": pa.array([], pa.int64()),
                          "size": pa.array([], pa.int64())})
        if batch.num_rows == 0:
            return empty
        flat, doc_idx = tokenize_column(batch[text_col])
        tok_hash = _token_hashes_flat(flat)
        sh_doc, sh_hash = _shingle_hashes_per_doc(tok_hash, doc_idx,
                                                  batch.num_rows, k)
        if sh_doc.size == 0:
            return empty
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.bincount(sh_doc, minlength=batch.num_rows)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        # conservative ceil (the -1e-9 can only LENGTHEN a prefix): a
        # 1-ULP overshoot of tau*n would shorten it and break exactness
        need = np.ceil(threshold * counts - 1e-9).astype(np.int64)
        pref_len = counts - need + 1
        pos = np.arange(sh_doc.size) - starts[sh_doc]
        keep = pos < pref_len[sh_doc]
        return pa.table({
            "bhash": pa.array(sh_hash[keep].view(np.int64)),
            "doc": pa.array(ids[sh_doc[keep]]),
            "size": pa.array(counts[sh_doc[keep]].astype(np.int64))})

    pref = ds.map_batches(prefixes, batch_format="pyarrow")

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        doc = group["doc"].to_numpy().astype(np.int64)
        sz = group["size"].to_numpy().astype(np.int64)
        ia, ib, _ = blocked_pairs(group["bhash"].to_numpy(), doc)
        # size-ratio prune (exactness-safe: every J >= tau pair passes)
        sa, sb = sz[ia], sz[ib]
        ok = np.minimum(sa, sb) >= threshold * np.maximum(sa, sb) - 1e-9
        return pd.DataFrame({"a": doc[ia][ok], "b": doc[ib][ok]}) \
            .drop_duplicates()

    cand = dedup_first(exchange(pref, pairs, mod="bhash", n_buckets=n_buckets),
                       ["a", "b"], ["a", "b"])
    return verify_pairs_jaccard(ds, cand, id_col=id_col, text_col=text_col,
                                k=k, threshold=threshold)
