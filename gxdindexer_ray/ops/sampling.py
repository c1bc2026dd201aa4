"""Deterministic sampling operators for training-data pipelines.

Randomness at 100 TB must be REPRODUCIBLE: re-running a failed shard, or
running the same job at a different cluster size / block split, must pick
the same rows. Both operators therefore rank by ``splitmix64(id)`` — a
fixed 64-bit bijection (no hash ties possible) — instead of an RNG, so the
sample is a pure function of the data. The same mixing chain is
expressible in ANSI SQL (HUGEINT multiply mod 2^64 via 32-bit limbs),
which is what the q62/q63 DuckDB oracles run; see
``pipelines/queries.py::_sql_splitmix``.

- ``hash_sample``: Bernoulli(rate) over the whole dataset — a pure
  map-side filter, no shuffle, no state.
- ``hash_sample_per_key``: exactly-k-per-key (k smallest hashes) —
  per-batch partial top-k (k rows per key per batch cross the wire),
  one key-hash exchange, per-bucket final top-k.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .relational import _splitmix64, exchange


def _id_hashes(ids: np.ndarray, seed: int) -> np.ndarray:
    h = ids.astype(np.int64).view(np.uint64)
    if seed:
        h = h ^ np.uint64(seed)
    return _splitmix64(h)


def hash_sample(ds, *, id_col: str, rate: float, seed: int = 0):
    """Deterministic Bernoulli sample: keep rows with
    ``splitmix64(id ^ seed) < rate * 2^64``. Map-side only — the selection
    is identical for any batching/partitioning of the input."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    if rate >= 1.0:
        # full sample: the saturated threshold 2^64-1 would drop any row
        # whose hash equals 2^64-1 (hash < threshold is strict)
        return ds
    threshold = np.uint64(min(int(rate * 2.0 ** 64), 2 ** 64 - 1))

    def f(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        keep = _id_hashes(ids, seed) < threshold
        return batch.filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow")


def hash_sample_per_key(ds, *, key_col: str, id_col: str, k: int,
                        seed: int = 0, n_buckets: int = 32):
    """Exactly min(k, group size) rows per key: the k SMALLEST
    ``splitmix64(id ^ seed)`` values win. Output is (key_col, id_col).
    The per-batch partial keeps k rows per key per batch, so the exchange
    carries O(keys x k x batches), never the dataset."""

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key_col, "__h"], kind="mergesort")
        return df.groupby(key_col, sort=False).head(k)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df[[key_col, id_col]].copy()
        out["__h"] = _id_hashes(df[id_col].to_numpy(), seed)
        return topk(out)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return topk(df)[[key_col, id_col]]

    return exchange(ds, final, keys=[key_col], n_buckets=n_buckets, local=partial)


def hash_split(ds, *, id_col: str, splits: dict[str, float], seed: int = 0,
               label_col: str = "split"):
    """Deterministic train/valid/test assignment: the [0, 2^64) hash line
    is cut at the cumulative split fractions and each row labeled by the
    interval its ``splitmix64(id ^ seed)`` lands in. Map-side only;
    assignment is a pure function of the id — stable across runs, block
    splits, cluster sizes, and UNAFFECTED by upstream filtering (a row
    keeps its split when the corpus around it changes, the property that
    prevents train/test leakage across dataset versions). Fractions must
    sum to 1."""
    if abs(sum(splits.values()) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    names = list(splits)
    cuts, acc = [], 0.0
    for name in names[:-1]:
        acc += splits[name]
        cuts.append(np.uint64(min(int(acc * 2.0 ** 64), 2 ** 64 - 1)))
    cuts_arr = np.array(cuts, dtype=np.uint64)

    def f(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        h = _id_hashes(ids, seed)
        idx = np.searchsorted(cuts_arr, h, side="right")
        lab = pa.DictionaryArray.from_arrays(
            pa.array(idx.astype(np.int32)), pa.array(names, pa.string()))
        return batch.append_column(label_col, lab.cast(pa.string()))

    return ds.map_batches(f, batch_format="pyarrow")


def shuffle_shard(ds, *, id_col: str, n_shards: int = 16, seed: int = 0):
    """Deterministic global shuffle for training-data sharding: every row
    gets (shard, pos) where ``shard = splitmix64(id ^ seed) % n_shards``
    and ``pos`` is the row's rank within its shard ordered by the same
    hash (ties impossible within a shard: splitmix64 is a bijection, and
    equal ids are broken by id). Reading shards in pos order replays a
    uniform pseudo-random permutation of the corpus.

    This is how you "random_shuffle" 100 TB: a true shuffle is an
    all-to-all exchange of every byte with non-deterministic placement;
    here the PAYLOAD never moves — only (id, hash) pairs cross ONE
    mod-shard exchange to be ranked, the assignment is a pure function of
    the data (re-running a failed shard or changing cluster size/block
    split reproduces it exactly), and the downstream trainer fetches rows
    by (shard, pos) order. Output: (id_col, shard, pos)."""
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")

    def pre(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        h = _id_hashes(ids, seed)
        return pa.table({id_col: batch[id_col],
                         "shard": pa.array((h % np.uint64(n_shards))
                                           .astype(np.int64)),
                         "__h": pa.array(h)})

    def rank(tbl: pa.Table) -> pa.Table:
        # a bucket holds whole shards (shard % n_buckets routing), possibly
        # several: rank within each by (hash, id), vectorized
        sh = tbl["shard"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = tbl["__h"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = tbl[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, h, sh))
        sh_s = sh[order]
        starts = np.r_[0, np.flatnonzero(sh_s[1:] != sh_s[:-1]) + 1]
        pos = np.arange(len(sh_s), dtype=np.int64)
        pos -= np.repeat(starts, np.diff(np.r_[starts, len(sh_s)]))
        out = np.empty(len(sh_s), dtype=np.int64)
        out[order] = pos
        return pa.table({id_col: tbl[id_col], "shard": tbl["shard"],
                         "pos": pa.array(out)})

    shards = ds.map_batches(pre, batch_format="pyarrow")
    return exchange(shards, rank, mod="shard", n_buckets=min(n_shards, 64),
                    batch_format="pyarrow")


def source_mix(ds, *, key_col: str = "source", id_col: str = "doc_id",
               weights: dict[str, float], seed: int = 0):
    """Deterministic corpus mixing toward target source proportions — the
    public LLM "data mixing" step (Pile / LLaMA-style source weights):
    source ``s`` keeps ``rate_s = w_s * N / n_s`` where
    ``N = min_s(n_s / w_s)`` is the largest mixed-corpus size no source
    can oversample (the binding source keeps everything; every other
    source downsamples toward the target mix). ONE tiny counts aggregate
    (a row per source) sets the rates; the keep rule is the map-side
    hash-threshold test of ``hash_sample`` (a pure function of the id —
    batching / cluster-size / rerun invariant) and only the O(sources)
    threshold dict ships with the tasks. Sources absent from ``weights``
    are dropped. The threshold compare runs in float64 on BOTH this
    engine and the SQL oracle (hv cast to double, identical IEEE op
    order), so the kept set is exactly reproducible."""
    import pyarrow.compute as pc

    from .relational import pre_aggregate

    counts = pre_aggregate(ds.select_columns([key_col]), [key_col],
                           counts="rows").to_pandas()
    n = {r[key_col]: float(r["rows"]) for _, r in counts.iterrows()}
    common = [s for s in n if s in weights]
    if not common:
        raise ValueError("no key present in both the data and weights")
    big_n = min(n[s] / weights[s] for s in common)
    thr = {s: weights[s] * big_n / n[s] * 2.0 ** 64 for s in common}

    def f(batch: pa.Table) -> pa.Table:
        col = batch[key_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        dic = pc.dictionary_encode(col)
        lut = np.array([thr.get(s, 0.0) for s in dic.dictionary.to_pylist()],
                       dtype=np.float64)
        t = lut[dic.indices.to_numpy(zero_copy_only=False)] \
            if batch.num_rows else np.empty(0, np.float64)
        hv = _id_hashes(batch[id_col].to_numpy(zero_copy_only=False), seed)
        return batch.filter(pa.array(hv.astype(np.float64) < t))

    return ds.map_batches(f, batch_format="pyarrow")


def stratified_sample(ds, *, key_col: str, id_col: str,
                      rates: dict[str, float], default_rate: float = 0.0,
                      seed: int = 0):
    """Per-stratum deterministic Bernoulli sample: a row is kept iff
    ``splitmix64(id ^ seed) < rates[stratum] * 2^64`` — hash_sample with
    the rate looked up per row from a tiny stratum table (rides the task
    closure; it is |strata| floats). Map-side only: like every hash
    sampler here the selection is a pure function of (id, stratum), stable
    across runs, block splits and cluster sizes, and composes with
    hash_split without leakage. Strata absent from ``rates`` use
    ``default_rate``. Rates must be in [0, 1); use a plain filter for
    keep-everything strata (the saturated-threshold edge hash_sample
    short-circuits)."""
    for r in (*rates.values(), default_rate):
        if not 0.0 <= r < 1.0:
            raise ValueError("stratum rates must be in [0, 1)")
    names = list(rates)
    thr = np.array([int(r * 2.0 ** 64) for r in rates.values()]
                   + [int(default_rate * 2.0 ** 64)], dtype=np.uint64)

    def f(batch: pa.Table) -> pa.Table:
        idx = pc.index_in(batch[key_col], pa.array(names, pa.string()))
        idx = pc.fill_null(idx, len(names)).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        keep = _id_hashes(ids, seed) < thr[idx]
        return batch.filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow")
