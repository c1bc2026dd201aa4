"""Similarity search over an embedding column (list<float>).

- ``brute_knn``: exact cosine top-k. The query matrix is broadcast once
  (``ray.put``); each batch does one float64 matmul against it and emits a
  per-batch partial top-k; the driver merges ~k×n_batches rows. No shuffle,
  no full materialization — the scale path for "score 1e9 docs against a
  handful of queries".
- ``ivf_knn``: IVF-style approximate variant: deterministic k-means
  (fixed seed/iters) on a sample builds centroids; batches are assigned to
  cells map-side; queries probe the top-``nprobe`` cells only. At cluster
  scale the cell assignment becomes the partitioning key for the index
  layout (partition pruning at query time).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from .relational import arrow_refs


def _to_matrix(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(len(col), -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def brute_knn(ds, query_ids: np.ndarray, query_matrix: np.ndarray, *, k: int,
              id_col: str = "vec_id", emb_col: str = "embedding",
              exclude_self: bool = True) -> pd.DataFrame:
    """Exact cosine top-k for each query vector. Returns
    (qid, rank, nid) with rank 1..k by (sim desc, nid asc)."""
    qn = _normalize(np.asarray(query_matrix, dtype=np.float64))
    ref = ray.put((np.asarray(query_ids, dtype=np.int64), qn))

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:  # empty block from an upstream filter
            return pa.table({"qid": pa.array([], pa.int64()),
                             "nid": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        qids, q = ray.get(ref)
        m = _normalize(_to_matrix(batch[emb_col]))
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sims = m @ q.T  # (batch, nq)
        out_q, out_n, out_s = [], [], []
        for j in range(q.shape[0]):
            s = sims[:, j]
            mask = ids != qids[j] if exclude_self else np.ones_like(ids, dtype=bool)
            cand_ids, cand_s = ids[mask], s[mask]
            if cand_ids.size == 0:
                continue
            top = min(k, cand_ids.size)
            sel = np.lexsort((cand_ids, -cand_s))[:top]
            out_q.extend([int(qids[j])] * top)
            out_n.extend(cand_ids[sel].tolist())
            out_s.extend(cand_s[sel].tolist())
        return pa.table({
            "qid": pa.array(out_q, pa.int64()),
            "nid": pa.array(out_n, pa.int64()),
            "sim": pa.array(out_s, pa.float64()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return _rank_merge(parts, k)


def _rank_merge(parts: pd.DataFrame, k: int, dedup_nid: bool = False) -> pd.DataFrame:
    """Vectorized final merge of per-batch/per-cell (qid, nid, sim)
    partials: sort by (qid, sim desc, nid), optional per-qid nid dedup,
    head-k per qid with a cumcount rank — no Python row loop."""
    if parts.empty:
        return pd.DataFrame(columns=["qid", "rank", "nid"]).astype(np.int64)
    parts = parts.sort_values(["qid", "sim", "nid"],
                              ascending=[True, False, True], kind="mergesort")
    if dedup_nid:
        parts = parts.drop_duplicates(["qid", "nid"], keep="first")
    parts = parts.assign(rank=parts.groupby("qid", sort=False).cumcount() + 1)
    parts = parts[parts["rank"] <= k]
    return parts[["qid", "rank", "nid"]].reset_index(drop=True).astype(np.int64)


def _block_pair_sims(tbl_i: pa.Table, tbl_j: pa.Table, same: bool, threshold: float,
                     id_col: str, emb_col: str) -> pa.Table:
    """One (block_i x block_j) tile of the exact similarity join."""
    ids_i = tbl_i[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    ids_j = tbl_j[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    m_i = _normalize(_to_matrix(tbl_i[emb_col]))
    m_j = _normalize(_to_matrix(tbl_j[emb_col]))
    sims = m_i @ m_j.T
    ai, bj = np.nonzero(sims > threshold)
    a, b_ = ids_i[ai], ids_j[bj]
    keep = a < b_ if same else a != b_
    a2, b2 = np.minimum(a, b_)[keep], np.maximum(a, b_)[keep]
    return pa.table({
        "a": pa.array(a2, pa.int64()),
        "b": pa.array(b2, pa.int64()),
        "sim": pa.array(np.round(sims[ai, bj][keep], 6), pa.float64()),
    })


def embedding_near_dup(ds, *, threshold: float, id_col: str = "vec_id",
                       emb_col: str = "embedding",
                       block_rows: int = 4096) -> pd.DataFrame:
    """EXACT all pairs (a < b) with cosine sim > threshold, as a streaming
    block-pair similarity join: vectors stay as Arrow blocks in the object
    store; one Ray task per (block_i, block_j) tile does a single matmul
    and emits only qualifying pairs. No side is ever materialized into one
    process — per-task memory is two blocks (O(block_rows * dim)), and the
    O(n^2) flops are inherent to EXACT all-pairs (the approximate scale
    path past that is the persisted IVF index / MinHash-LSH family; this
    operator is the exact oracle-clean baseline)."""
    ds = ds.map_batches(lambda t: t.select([id_col, emb_col]),
                        batch_format="pyarrow", batch_size=block_rows)
    refs = arrow_refs(ds)
    tile = ray.remote(num_cpus=1)(_block_pair_sims)
    futs = []
    for i in range(len(refs)):
        for j in range(i, len(refs)):
            futs.append(tile.remote(refs[i], refs[j], i == j, threshold, id_col, emb_col))
    if not futs:
        return pd.DataFrame(columns=["a", "b", "sim"]).astype(
            {"a": np.int64, "b": np.int64, "sim": np.float64})
    out = pa.concat_tables(ray.get(futs)).to_pandas()  # qualifying pairs only
    # cross-tile duplicates are impossible (each unordered id pair lives in
    # exactly one tile), so this is a pure sort
    return out.sort_values(["a", "b"]).reset_index(drop=True)


def _embedding_rows(ds, cand_ids, id_col: str, emb_col: str, out_id: str, out_emb: str):
    """(id, embedding) rows for the candidate id set — pre-filtered with
    the range-sliced id filter (sorted/chunked candidate ids in the object
    store; O(chunk) per-task memory — no candidate-id broadcast)."""
    from .relational import ranged_id_filter

    sub_ds = ranged_id_filter(ds, cand_ids, id_col, ids_col="cid", keep=True)
    return sub_ds.map_batches(
        lambda sub: pa.table({out_id: sub[id_col], out_emb: sub[emb_col]}),
        batch_format="pyarrow")


def verify_pairs_cosine(ds, pairs, *, threshold: float, id_col: str = "vec_id",
                        emb_col: str = "embedding") -> pd.DataFrame:
    """EXACT cosine on candidate (a, b) pairs, DISTRIBUTED: candidate
    vectors are partitioned-joined onto the pair set (two key-hash
    shuffles of candidate-sized data); the per-bucket reducer does one
    vectorized row-wise dot and only pairs with sim > threshold survive.
    Mirrors dedup.verify_pairs_jaccard — nothing embedding-sized OR
    candidate-sized reaches the driver (range-sliced id filter, no
    broadcast)."""
    import ray.data as rd

    from .relational import partitioned_join

    empty = pd.DataFrame(columns=["a", "b", "sim"]).astype(
        {"a": np.int64, "b": np.int64, "sim": np.float64})
    if isinstance(pairs, pd.DataFrame):
        if pairs.empty:
            return empty
        pairs_ds = rd.from_pandas(pairs[["a", "b"]].astype(np.int64))
    else:
        pairs_ds = pairs.materialize()  # consumed twice: id set + join input
        if pairs_ds.count() == 0:  # no LSH candidates at all
            return empty

    cand_ids = pairs_ds.map_batches(
        lambda t: pa.table({"cid": pa.concat_arrays(
            [t["a"].combine_chunks().cast(pa.int64()),
             t["b"].combine_chunks().cast(pa.int64())])}),
        batch_format="pyarrow")
    e_a = _embedding_rows(ds, cand_ids, id_col, emb_col, "a_key", "emb_a").materialize()
    j1 = partitioned_join(pairs_ds, e_a, "a", "a_key", how="inner")
    e_b = e_a.map_batches(lambda t: t.rename_columns(["b_key", "emb_b"]),
                          batch_format="pyarrow")

    def cos_post(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return empty
        va = _normalize(np.stack([np.asarray(v, np.float64) for v in df["emb_a"]]))
        vb = _normalize(np.stack([np.asarray(v, np.float64) for v in df["emb_b"]]))
        sims = np.einsum("ij,ij->i", va, vb)
        out = pd.DataFrame({"a": df["a"].to_numpy(np.int64),
                            "b": df["b"].to_numpy(np.int64),
                            "sim": np.round(sims, 6)})
        return out[out["sim"] > threshold]

    j2 = partitioned_join(j1, e_b, "b", "b_key", how="inner", bucket_post=cos_post)
    out = j2.to_pandas()
    if out.empty:
        return empty
    return out.sort_values(["a", "b"]).reset_index(drop=True).astype(
        {"a": np.int64, "b": np.int64, "sim": np.float64})


def hyperplane_signatures(ds, *, n_planes: int = 128, bands: int = 8,
                          id_col: str = "vec_id", emb_col: str = "embedding",
                          seed: int = 7):
    """Random-hyperplane (sign-of-projection) LSH signature rows
    (band, bhash, doc) for an embedding Dataset. The plane matrix is
    regenerated per task from the seed (deterministic, dim x n_planes —
    cheaper than broadcasting for small dims). Collision probability per
    bit is 1 - theta/pi, so banding is selective only in the HIGH-cosine
    regime (near-dup, sim >= ~0.9); for low thresholds use the exact tile
    join (embedding_near_dup) or the IVF index."""
    assert n_planes % bands == 0
    rows = n_planes // bands
    assert rows <= 62, "band hash packs into a 62-bit int"

    def sigs(batch: pa.Table) -> pa.Table:
        from .relational import _splitmix64

        m = _normalize(_to_matrix(batch[emb_col]))
        dim = m.shape[1]
        planes = np.random.default_rng(seed).standard_normal((dim, n_planes))
        bits = (m @ planes) > 0  # (n, n_planes)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n = ids.size
        weights = (np.uint64(1) << np.arange(rows, dtype=np.uint64))
        band_ids = np.repeat(np.arange(bands, dtype=np.int32), n)
        band_hashes = np.empty(bands * n, dtype=np.uint64)
        for bi in range(bands):
            packed = bits[:, bi * rows:(bi + 1) * rows].astype(np.uint64) @ weights
            band_hashes[bi * n:(bi + 1) * n] = _splitmix64(
                packed ^ np.uint64(bi + 1))  # salt: same bits in another band differ
        return pa.table({
            "band": pa.array(band_ids, pa.int32()),
            "bhash": pa.array((band_hashes >> np.uint64(1)).astype(np.int64), pa.int64()),
            "doc": pa.array(np.tile(ids, bands), pa.int64()),
        })

    return ds.map_batches(sigs, batch_format="pyarrow")


def embedding_lsh_near_dup(ds, ds_again, *, threshold: float,
                           n_planes: int = 128, bands: int = 8,
                           id_col: str = "vec_id", emb_col: str = "embedding",
                           seed: int = 7) -> pd.DataFrame:
    """Approximate all-pairs cosine near-dup — the LSH-bucketed SCALE path
    past the exact O(n^2) tile join (embedding_near_dup): hyperplane
    signatures -> banded bucket candidates (shared band_bucket_pairs
    machinery with MinHash-LSH) -> DISTRIBUTED exact-cosine verification.
    Output is a SUBSET of the exact join's pairs (precision 1 by
    construction); recall is the banding probability 1-(1-p^r)^b with
    p = 1 - arccos(sim)/pi — e.g. ~0.97 for sim 0.98 at the 128/8
    defaults, ~1.0 for exact duplicates. ``ds``/``ds_again`` are two
    reads of the same table (signatures and verification each consume
    one pass)."""
    from .dedup import band_bucket_pairs

    sig_ds = hyperplane_signatures(ds, n_planes=n_planes, bands=bands,
                                   id_col=id_col, emb_col=emb_col, seed=seed)
    cand = band_bucket_pairs(sig_ds)
    return verify_pairs_cosine(ds_again, cand, threshold=threshold,
                               id_col=id_col, emb_col=emb_col)


def kmeans_fit(sample: np.ndarray, n_clusters: int, *, iters: int = 10, seed: int = 0) -> np.ndarray:
    """Deterministic Lloyd k-means on normalized vectors (cosine ≈ L2)."""
    rng = np.random.default_rng(seed)
    x = _normalize(sample)
    centroids = x[rng.choice(len(x), size=n_clusters, replace=False)]
    for _ in range(iters):
        assign = np.argmax(x @ centroids.T, axis=1)
        for c in range(n_clusters):
            m = assign == c
            if m.any():
                centroids[c] = x[m].mean(axis=0)
        centroids = _normalize(centroids)
    return centroids


def build_ivf_index(ds, index_dir, *, n_clusters: int = 16, sample_limit: int = 5000,
                    id_col: str = "vec_id", emb_col: str = "embedding",
                    max_cell_rows: int = 100_000) -> dict:
    """Build a PERSISTED IVF index: deterministic k-means centroids
    (centroids.npy) + the vectors re-laid-out as parquet files per cell.
    The cell IS the partition key at rest — a query probing ``nprobe``
    cells reads only those files (partition pruning), which is the IVF
    scale path the query-time-only variant lacked. Atomic tmp+rename.

    HOT cells split into sub-shards of at most ``max_cell_rows`` rows
    (``cell-CCCCC-SSSSSS.parquet``, shard = splitmix64(vec_id) mod
    n_shards), so no single writer/reader task ever has to hold an entire
    skewed cell — the same slot-split idea as index/merge's term-hash
    slots. Queries read every shard file of a probed cell, one task per
    FILE."""
    import json
    import shutil

    import pyarrow.parquet as pq

    from .relational import _splitmix64, exchange, pre_aggregate

    out = Path(index_dir)
    tmp = out.with_name(out.name + ".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    sample = pa.concat_tables([ray.get(r) for r in arrow_refs(ds.limit(sample_limit))])
    centroids = kmeans_fit(_to_matrix(sample[emb_col]), n_clusters)
    cref = ray.put(centroids)

    def assign(batch: pa.Table) -> pa.Table:
        cents = ray.get(cref)
        m = _normalize(_to_matrix(batch[emb_col]))
        cell = np.argmax(m @ cents.T, axis=1).astype(np.int32)
        return batch.select([id_col, emb_col]).append_column("cell", pa.array(cell, pa.int32()))

    assigned = ds.map_batches(assign, batch_format="pyarrow").materialize()

    # per-cell counts (tiny: n_clusters rows) -> shards per cell
    counts = pre_aggregate(assigned.select_columns(["cell"]), ["cell"],
                           counts="rows").to_pandas()
    n_shards = {int(r["cell"]): max(1, -(-int(r["rows"]) // max_cell_rows))
                for _, r in counts.iterrows()}
    shard_lut = np.ones(n_clusters, dtype=np.int64)
    for c, s in n_shards.items():
        shard_lut[c] = s
    lut_ref = ray.put(shard_lut)

    def subshard(batch: pa.Table) -> pa.Table:
        lut = ray.get(lut_ref)
        cells = batch["cell"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sh = (_splitmix64(ids.view(np.uint64))
              % lut[cells].astype(np.uint64)).astype(np.int64)
        # pack as cell << 32 | shard: a cell can hold up to 2^32 sub-shards
        # before aliasing (a fixed *1000 multiplier aliased into the next
        # cell's keyspace past 1000 shards, i.e. 100M rows/cell at defaults)
        assert (sh < (1 << 32)).all()
        key = (cells << 32) | sh
        return batch.append_column("cellshard", pa.array(key, pa.int64()))

    def write_cell(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table({"cell": pa.array([], pa.int32()),
                             "rows": pa.array([], pa.int64())})
        key = int(tbl["cellshard"][0].as_py())
        c, s = key >> 32, key & 0xFFFFFFFF
        pq.write_table(tbl.drop_columns(["cell", "cellshard"]),
                       tmp / f"cell-{c:05d}-{s:06d}.parquet", compression="lz4")
        return pa.table({"cell": pa.array([c], pa.int32()),
                         "rows": pa.array([tbl.num_rows], pa.int64())})

    sharded = assigned.map_batches(subshard, batch_format="pyarrow")
    cells = exchange(sharded, write_cell, by="cellshard",
                     batch_format="pyarrow").to_pandas()
    np.save(tmp / "centroids.npy", centroids)
    rows_per_cell: dict[int, int] = {}
    for _, r in cells.iterrows():
        rows_per_cell[int(r["cell"])] = rows_per_cell.get(int(r["cell"]), 0) + int(r["rows"])
    meta = {"n_clusters": int(n_clusters), "dim": int(centroids.shape[1]),
            "layout": "sharded-v2", "max_cell_rows": int(max_cell_rows),
            "cells": rows_per_cell,
            "shards": {c: int(s) for c, s in sorted(n_shards.items())}}
    (tmp / "meta.json").write_text(json.dumps(meta, sort_keys=True))
    if out.exists():
        shutil.rmtree(out)
    tmp.rename(out)
    return meta


def _search_cell(cell_file: str, q_sub_ids: np.ndarray, q_sub: np.ndarray, k: int,
                 id_col: str, emb_col: str) -> pa.Table:
    import pyarrow.parquet as pq

    tbl = pq.read_table(cell_file)
    ids = tbl[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    m = _normalize(_to_matrix(tbl[emb_col]))
    sims = m @ q_sub.T
    out_q, out_n, out_s = [], [], []
    for j in range(q_sub.shape[0]):
        mask = ids != q_sub_ids[j]
        cand_ids, cand_s = ids[mask], sims[mask, j]
        if cand_ids.size == 0:
            continue
        top = min(k, cand_ids.size)
        sel = np.lexsort((cand_ids, -cand_s))[:top]
        out_q.extend([int(q_sub_ids[j])] * top)
        out_n.extend(cand_ids[sel].tolist())
        out_s.extend(cand_s[sel].tolist())
    return pa.table({"qid": pa.array(out_q, pa.int64()),
                     "nid": pa.array(out_n, pa.int64()),
                     "sim": pa.array(out_s, pa.float64())})


def ivf_search(index_dir, query_ids: np.ndarray, query_matrix: np.ndarray, *,
               k: int, nprobe: int = 4, id_col: str = "vec_id",
               emb_col: str = "embedding") -> pd.DataFrame:
    """Query a persisted IVF index: read ONLY the probed cell files (one
    Ray task per touched cell), merge the per-cell partial top-k on the
    driver (k x nprobe x n_queries rows)."""
    index_dir = Path(index_dir)
    centroids = np.load(index_dir / "centroids.npy")
    qn = _normalize(np.asarray(query_matrix, dtype=np.float64))
    qids = np.asarray(query_ids, dtype=np.int64)
    probe = np.argsort(-(qn @ centroids.T), axis=1, kind="stable")[:, :nprobe]
    by_cell: dict[int, list[int]] = {}
    for qi in range(len(qids)):
        for c in probe[qi]:
            by_cell.setdefault(int(c), []).append(qi)
    task = ray.remote(num_cpus=1)(_search_cell)
    futs = []
    for c, q_idx in sorted(by_cell.items()):
        # sharded-v2 layout (one file per sub-shard of a hot cell) with
        # fallback to the v1 single-file-per-cell layout; one task per
        # FILE bounds per-task memory to max_cell_rows vectors
        files = sorted(index_dir.glob(f"cell-{c:05d}-*.parquet"))
        v1 = index_dir / f"cell-{c:05d}.parquet"
        if v1.exists():
            files.append(v1)
        for f in files:
            futs.append(task.remote(str(f), qids[q_idx], qn[q_idx], k, id_col, emb_col))
    if not futs:
        return pd.DataFrame(columns=["qid", "rank", "nid"]).astype(np.int64)
    parts = pa.concat_tables(ray.get(futs)).to_pandas()
    return _rank_merge(parts, k, dedup_nid=True)


def ivf_knn(ds, query_ids: np.ndarray, query_matrix: np.ndarray, *, k: int,
            n_clusters: int = 16, nprobe: int = 4, sample_limit: int = 5000,
            id_col: str = "vec_id", emb_col: str = "embedding",
            index_dir: str | Path | None = None,
            max_cell_rows: int = 100_000) -> pd.DataFrame:
    """Approximate top-k through the PERSISTED IVF layout: builds (or
    reuses, when ``index_dir`` already holds an index) the cell-partitioned
    index, then probes ``nprobe`` cells."""
    import tempfile

    if index_dir is None:
        index_dir = Path(tempfile.mkdtemp(prefix="gxdray-ivf-")) / "ivf"
    index_dir = Path(index_dir)
    if not (index_dir / "meta.json").exists():
        build_ivf_index(ds, index_dir, n_clusters=n_clusters,
                        sample_limit=sample_limit, id_col=id_col, emb_col=emb_col,
                        max_cell_rows=max_cell_rows)
    return ivf_search(index_dir, query_ids, query_matrix, k=k, nprobe=nprobe,
                      id_col=id_col, emb_col=emb_col)


# ---------------------------------------------------------------------------
# int8 embedding quantization (4x at-rest/in-flight memory for ANN)
# ---------------------------------------------------------------------------


def quantize_embeddings(ds, *, id_col: str = "vec_id",
                        emb_col: str = "embedding"):
    """Symmetric per-vector int8 quantization: code = round(v / scale)
    with scale = max|v| / 127 per row. A 100-TB embedding column is the
    single biggest ANN cost driver — int8 cuts the at-rest bytes, the
    object-store traffic AND the broadcast/query working set 4x vs
    float32 (8x vs float64), at a recall cost bounded by the per-row
    quantization error (≈0.4% of the max component). Returns a Dataset of
    (id, scale float32, q fixed-width list<int8>). Fully deterministic —
    the same vector quantizes identically on any node."""

    def f(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:  # empty block from an upstream filter
            return pa.table({
                id_col: batch[id_col],
                "scale": pa.array([], pa.float32()),
                "q": pa.ListArray.from_arrays(pa.array([0], pa.int32()),
                                              pa.array([], pa.int8())),
            })
        m = _to_matrix(batch[emb_col])
        scale = np.abs(m).max(axis=1) / 127.0
        scale[scale == 0] = 1.0
        # floor(x + 0.5) — deterministic half-up, reproducible in SQL
        # (np.round's half-to-even and SQL round's half-away disagree)
        codes = np.clip(np.floor(m / scale[:, None] + 0.5), -127, 127).astype(np.int8)
        n, width = codes.shape
        # variable list (not fixed-size): a zero-row block has no width to
        # declare, and mixed widths would fail block-schema unification
        offsets = pa.array(np.arange(0, (n + 1) * width, width, dtype=np.int32))
        return pa.table({
            id_col: batch[id_col],
            "scale": pa.array(scale.astype(np.float32), pa.float32()),
            "q": pa.ListArray.from_arrays(offsets,
                                          pa.array(codes.reshape(-1), pa.int8())),
        })

    return ds.map_batches(f, batch_format="pyarrow")


def knn_quantized(qds, query_ids: np.ndarray, query_matrix: np.ndarray, *,
                  k: int, id_col: str = "vec_id",
                  exclude_self: bool = True) -> pd.DataFrame:
    """brute_knn over a quantized (id, scale, q) Dataset. Cosine is
    scale-invariant, so the per-row scale column is NOT read at search
    time — the int8 codes normalize directly (the scale exists to
    dequantize magnitudes for consumers that need them) and the dot runs
    in float64 exactly like the float path; only quantization ROUNDING
    differs from exact — recall contract in tests. Delegates to brute_knn
    with the codes column, so the two paths cannot drift."""
    return brute_knn(qds, query_ids, query_matrix, k=k, id_col=id_col,
                     emb_col="q", exclude_self=exclude_self)


# ---------------------------------------------------------------------------
# Product quantization (PQ) ANN — m sub-codebooks, ADC lookup-table scan
# ---------------------------------------------------------------------------


def _kmeans_l2(x: np.ndarray, n_clusters: int, *, iters: int = 10,
               seed: int = 0) -> np.ndarray:
    """Deterministic Lloyd k-means in plain L2 (PQ quantizes raw subvector
    coordinates — no normalization, unlike the cosine kmeans_fit)."""
    if len(x) < n_clusters:
        raise ValueError(f"sample ({len(x)}) smaller than n_codes ({n_clusters})")
    rng = np.random.default_rng(seed)
    cents = x[rng.choice(len(x), size=n_clusters, replace=False)].copy()
    for _ in range(iters):
        d2 = -2.0 * x @ cents.T + (cents ** 2).sum(axis=1)[None, :]
        assign = np.argmin(d2, axis=1)
        for c in range(n_clusters):
            m = assign == c
            if m.any():
                cents[c] = x[m].mean(axis=0)
    return cents


def pq_train(ds, *, m: int = 4, n_codes: int = 16, sample_limit: int = 5000,
             emb_col: str = "embedding", seed: int = 0) -> np.ndarray:
    """Train PQ codebooks (Jégou et al., "Product Quantization for Nearest
    Neighbor Search", TPAMI 2011): the d dims split into ``m`` contiguous
    subspaces, each with its own ``n_codes``-centroid L2 k-means codebook
    fit on a bounded sample of NORMALIZED vectors (cosine search).
    Codebook training is a bounded-size model fit — the sample (default
    5000 rows) is the only data that touches the driver; size is capped
    regardless of corpus size. Returns (m, n_codes, d/m) float64."""
    sample = pa.concat_tables(
        [ray.get(r) for r in arrow_refs(ds.limit(sample_limit))])
    x = _normalize(_to_matrix(sample[emb_col]))
    d = x.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    sub = d // m
    return np.stack([_kmeans_l2(x[:, i * sub:(i + 1) * sub], n_codes,
                                seed=seed + i) for i in range(m)])


def pq_encode(ds, codebooks: np.ndarray, *, id_col: str = "vec_id",
              emb_col: str = "embedding"):
    """Map-side PQ encoding: each (normalized) vector becomes ``m`` uint8
    centroid indices — at m=4 that is 4 BYTES per vector at rest and
    in-flight vs 4·d float32 (a 64x cut at d=64), the memory lever that
    makes billion-scale ANN fit a cluster. Codebooks broadcast once
    (``ray.put``, tiny: m × n_codes × d/m floats). Deterministic."""
    ref = ray.put(codebooks)

    def f(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        books = ray.get(ref)
        m_ = books.shape[0]
        if n == 0:  # empty block from an upstream filter
            return pa.table({
                id_col: batch[id_col],
                "code": pa.ListArray.from_arrays(
                    pa.array([0], pa.int32()), pa.array([], pa.uint8()))})
        x = _normalize(_to_matrix(batch[emb_col]))
        sub = x.shape[1] // m_
        codes = np.empty((n, m_), np.uint8)
        for i in range(m_):
            xs = x[:, i * sub:(i + 1) * sub]
            d2 = -2.0 * xs @ books[i].T + (books[i] ** 2).sum(axis=1)[None, :]
            codes[:, i] = np.argmin(d2, axis=1)
        offs = pa.array(np.arange(0, (n + 1) * m_, m_, dtype=np.int32))
        return pa.table({
            id_col: batch[id_col],
            "code": pa.ListArray.from_arrays(
                offs, pa.array(codes.reshape(-1), pa.uint8()))})

    return ds.map_batches(f, batch_format="pyarrow")


def pq_knn(codes_ds, codebooks: np.ndarray, query_ids: np.ndarray,
           query_matrix: np.ndarray, *, k: int, id_col: str = "vec_id",
           exclude_self: bool = True, rerank_with=None,
           emb_col: str = "embedding",
           rerank_factor: int = 10) -> pd.DataFrame:
    """Asymmetric-distance (ADC) top-k over a PQ-encoded Dataset: the
    normalized query's inner product with a reconstructed vector
    decomposes across subspaces, so each query precomputes a tiny lookup
    table LUT[sub, code] = q_sub · centroid and a batch scan is ``m``
    uint8 gathers + adds — no float vectors read at all. Same broadcast +
    per-batch partial top-k shape as brute_knn (~k rows per query per
    batch reach the driver). Returns (qid, rank, nid).

    ``rerank_with`` (the original float-vector Dataset) enables the
    standard ADC+R second stage (Jégou et al. §V): the ADC scan shortlists
    ``k * rerank_factor`` candidates per query, then ONE pass over the
    float vectors re-ranks exactly — only candidate rows (matched
    map-side against a sorted id shortlist) ever compute a dot product.
    The shortlist is O(queries × k), never O(corpus), so broadcasting it
    is in-contract; quantization error then only costs recall where a
    true neighbor falls outside the shortlist, not rank precision."""
    qn = _normalize(np.asarray(query_matrix, dtype=np.float64))
    m_, _n_codes, sub = codebooks.shape
    luts = np.einsum("qms,mcs->qmc", qn.reshape(len(qn), m_, sub), codebooks)
    ref = ray.put((np.asarray(query_ids, dtype=np.int64), luts))
    k_eff = k * rerank_factor if rerank_with is not None else k

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"qid": pa.array([], pa.int64()),
                             "nid": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        qids, lut = ray.get(ref)
        col = batch["code"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        codes = col.flatten().to_numpy(zero_copy_only=False) \
            .astype(np.int64).reshape(batch.num_rows, m_)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        scores = np.zeros((batch.num_rows, len(qids)), np.float64)
        for i in range(m_):
            scores += lut[:, i, codes[:, i]].T
        out_q, out_n, out_s = [], [], []
        for j in range(len(qids)):
            s = scores[:, j]
            mask = ids != qids[j] if exclude_self else np.ones_like(ids, bool)
            cand_ids, cand_s = ids[mask], s[mask]
            if cand_ids.size == 0:
                continue
            top = min(k_eff, cand_ids.size)
            sel = np.lexsort((cand_ids, -cand_s))[:top]
            out_q.extend([int(qids[j])] * top)
            out_n.extend(cand_ids[sel].tolist())
            out_s.extend(cand_s[sel].tolist())
        return pa.table({"qid": pa.array(out_q, pa.int64()),
                         "nid": pa.array(out_n, pa.int64()),
                         "sim": pa.array(out_s, pa.float64())})

    parts = codes_ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    adc = _rank_merge(parts, k_eff)
    if rerank_with is None:
        return adc

    qids_arr = np.asarray(query_ids, dtype=np.int64)
    union = np.unique(adc["nid"].to_numpy())
    cand_sets = [adc.loc[adc["qid"] == q, "nid"].to_numpy() for q in qids_arr]
    rref = ray.put((qids_arr, qn, union, [np.sort(c) for c in cand_sets]))

    def exact_partial(batch: pa.Table) -> pa.Table:
        empty = pa.table({"qid": pa.array([], pa.int64()),
                          "nid": pa.array([], pa.int64()),
                          "sim": pa.array([], pa.float64())})
        if batch.num_rows == 0:
            return empty
        qids, q, uni, cands = ray.get(rref)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sel = np.flatnonzero(np.isin(ids, uni))
        if sel.size == 0:
            return empty
        sub = batch.take(pa.array(sel, pa.int64()))
        sids = ids[sel]
        sims = _normalize(_to_matrix(sub[emb_col])) @ q.T
        out_q, out_n, out_s = [], [], []
        for j in range(len(qids)):
            cj = cands[j]
            if cj.size == 0:
                continue
            mask = cj[np.searchsorted(cj, sids).clip(max=len(cj) - 1)] == sids
            if not mask.any():
                continue
            out_q.extend([int(qids[j])] * int(mask.sum()))
            out_n.extend(sids[mask].tolist())
            out_s.extend(sims[mask, j].tolist())
        return pa.table({"qid": pa.array(out_q, pa.int64()),
                         "nid": pa.array(out_n, pa.int64()),
                         "sim": pa.array(out_s, pa.float64())})

    parts2 = rerank_with.map_batches(
        exact_partial, batch_format="pyarrow").to_pandas()
    return _rank_merge(parts2, k)


# ---------------------------------------------------------------------------
# Distributed k-means corpus clustering (SemDeDup-style cluster step)
# ---------------------------------------------------------------------------


def kmeans_cluster(ds, *, id_col: str = "vec_id", emb_col: str = "embedding",
                   k: int = 8, iters: int = 10, sample_limit: int = 5000,
                   seed: int = 0, keep_emb: bool = False):
    """Distributed Lloyd k-means over an embedding column — the corpus
    clustering that SemDeDup-style pipelines (public: Abbas et al. 2023)
    run before per-cluster dedup/mixing. Cosine geometry (normalized
    vectors, same as kmeans_fit).

    Scale shape: centroids init deterministically from a bounded sample;
    each round is ONE map pass emitting per-batch (cluster, sum_vec,
    count) partials — k x d floats per batch, NOT per row — merged
    driver-side into the k x d update (the only thing the driver ever
    holds). The input is materialized once and re-read per round
    (iters passes over pinned blocks, no re-execution of upstream
    transforms); a final map labels rows with broadcast centroids.
    Returns ((id, cluster) Dataset, centroids ndarray); ``keep_emb``
    carries the embedding column through the labeling map so a caller
    (semdedup) can do per-cluster vector work without re-labeling."""
    ds = ds.materialize()
    sample = pa.concat_tables(
        [ray.get(r) for r in arrow_refs(ds.limit(sample_limit))])
    x0 = _normalize(_to_matrix(sample[emb_col]))
    if len(x0) < k:
        raise ValueError(f"sample ({len(x0)}) smaller than k ({k})")
    rng = np.random.default_rng(seed)
    centroids = x0[rng.choice(len(x0), size=k, replace=False)].copy()

    for _ in range(iters):
        cref = ray.put(centroids)

        def round_partial(batch: pa.Table) -> pa.Table:
            cents = ray.get(cref)
            kk, d = cents.shape
            if batch.num_rows == 0:
                return pa.table({"c": pa.array([], pa.int32()),
                                 "n": pa.array([], pa.int64()),
                                 "s": pa.ListArray.from_arrays(
                                     pa.array([0], pa.int32()),
                                     pa.array([], pa.float64()))})
            m = _normalize(_to_matrix(batch[emb_col]))
            assign = np.argmax(m @ cents.T, axis=1)
            sums = np.zeros((kk, d), np.float64)
            np.add.at(sums, assign, m)
            counts = np.bincount(assign, minlength=kk).astype(np.int64)
            offs = pa.array(np.arange(0, (kk + 1) * d, d, dtype=np.int32))
            return pa.table({
                "c": pa.array(np.arange(kk, dtype=np.int32), pa.int32()),
                "n": pa.array(counts, pa.int64()),
                "s": pa.ListArray.from_arrays(
                    offs, pa.array(sums.reshape(-1), pa.float64()))})

        sums = np.zeros_like(centroids, dtype=np.float64)
        counts = np.zeros(k, np.int64)
        for b in (ds.map_batches(round_partial, batch_format="pyarrow")
                  .iter_batches(batch_format="pyarrow", batch_size=4096)):
            cs = b["c"].to_numpy(zero_copy_only=False)
            # one iter batch coalesces MANY per-block partials, so cluster
            # ids repeat within cs — unbuffered np.add.at, never fancy +=
            np.add.at(counts, cs, b["n"].to_numpy(zero_copy_only=False))
            col = b["s"]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            np.add.at(sums, cs,
                      col.flatten().to_numpy(zero_copy_only=False)
                      .reshape(len(cs), -1))
        live = counts > 0
        centroids[live] = _normalize(sums[live] / counts[live, None])

    cref = ray.put(centroids)

    def label(batch: pa.Table) -> pa.Table:
        cents = ray.get(cref)
        cols = {id_col: batch[id_col]}
        if batch.num_rows == 0:
            cols["cluster"] = pa.array([], pa.int32())
        else:
            m = _normalize(_to_matrix(batch[emb_col]))
            cols["cluster"] = pa.array(np.argmax(m @ cents.T, axis=1)
                                       .astype(np.int32), pa.int32())
        if keep_emb:
            cols[emb_col] = batch[emb_col]
        return pa.table(cols)

    return ds.map_batches(label, batch_format="pyarrow"), centroids


_SEMDEDUP_CHUNK = 2048  # rows per tile in the per-cluster matmul/propagation


def _threshold_components_min(ids: np.ndarray, m: np.ndarray,
                              threshold: float) -> np.ndarray:
    """Survivor mask for one cluster: min-label propagation over the
    cosine>threshold graph, with every n x n intermediate built in
    CHUNK x n tiles so peak temp memory is bounded by ~CHUNK*n*8 bytes
    (the n x n bool adjacency, n/8 bytes/row, is the only full-size
    allocation). ids must be sorted ascending; survivors are each
    component's first (min-id) row."""
    n = ids.size
    adj = np.empty((n, n), bool)
    for s in range(0, n, _SEMDEDUP_CHUNK):
        adj[s:s + _SEMDEDUP_CHUNK] = \
            (m[s:s + _SEMDEDUP_CHUNK] @ m.T) > threshold
    lab = np.arange(n)
    new = np.empty_like(lab)
    while True:
        for s in range(0, n, _SEMDEDUP_CHUNK):
            blk = adj[s:s + _SEMDEDUP_CHUNK]
            new[s:s + _SEMDEDUP_CHUNK] = \
                np.where(blk, lab[None, :], n).min(axis=1)
        if (new == lab).all():
            break
        lab, new = new, lab  # buffer swap; next pass overwrites `new` fully
    return lab == np.arange(n)


def semdedup(ds, *, id_col: str = "vec_id", emb_col: str = "embedding",
             k: int = 8, iters: int = 5, threshold: float = 0.95,
             sample_limit: int = 5000, seed: int = 0,
             max_cluster_rows: int = 20_000, n_buckets: int = 16):
    """SemDeDup (Abbas et al. 2023, public): semantic dedup of an
    embedding corpus — k-means cluster, then WITHIN each cluster drop all
    but one of every near-identical group (cosine > threshold), keeping
    the smallest id of each threshold-graph connected component. Pairwise
    work is confined to clusters (the method's point: no global
    all-pairs); rows cross ONE exchange keyed by cluster. Partitioning
    assumption: one cluster's rows fit a reducer — raises above
    ``max_cluster_rows`` (default 20k: a 400 MB bool adjacency + tiled
    float temps; at corpus scale, raise k until clusters fit — the
    reference implementation makes the same assumption). The input is
    materialized ONCE here and shared with the k-means rounds and the
    labeling map (no upstream re-execution). Returns a (id, cluster)
    Dataset of SURVIVORS."""
    from .relational import exchange

    ds = ds.materialize()
    labeled, _cents = kmeans_cluster(
        ds, id_col=id_col, emb_col=emb_col, k=k, iters=iters,
        sample_limit=sample_limit, seed=seed, keep_emb=True)

    def per_bucket(tbl: pa.Table) -> pa.Table:
        ids_all = tbl[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        clusters = tbl["cluster"].to_numpy(zero_copy_only=False)
        m_all = _normalize(_to_matrix(tbl[emb_col]))
        keep_ids, keep_cl = [], []
        for cl in np.unique(clusters):
            sel = clusters == cl
            ids = ids_all[sel]
            if ids.size > max_cluster_rows:
                raise ValueError(
                    f"cluster {cl} has {ids.size} rows > max_cluster_rows="
                    f"{max_cluster_rows}; increase k")
            order = np.argsort(ids, kind="stable")
            ids, m = ids[order], m_all[sel][order]
            surv = _threshold_components_min(ids, m, threshold)
            keep_ids.append(ids[surv])
            keep_cl.append(np.full(int(surv.sum()), cl, np.int32))
        if not keep_ids:
            return pa.table({id_col: pa.array([], tbl.schema.field(id_col).type),
                             "cluster": pa.array([], pa.int32())})
        return pa.table({
            id_col: pa.array(np.concatenate(keep_ids),
                             tbl.schema.field(id_col).type),
            "cluster": pa.array(np.concatenate(keep_cl), pa.int32())})

    return exchange(labeled, per_bucket, keys=["cluster"], n_buckets=n_buckets,
                    batch_format="pyarrow")
