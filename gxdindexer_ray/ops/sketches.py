"""Mergeable sketches: HyperLogLog approximate distinct count.

The canonical sketch pattern for Ray Data (A7 in SURVEY.md §2.6 — the
reference needs none because the DB computes distincts, but at 1e12 rows an
exact global distinct is an all-to-all): one serialized sketch per batch
from ``map_batches``, merged in a tiny final stage — registers travel, rows
never do.

Plain dense HLL, 2^p registers, blake2b-hashed values (deterministic across
processes — never Python's salted ``hash``). Standard bias-corrected
estimator with linear counting for the low range (Flajolet et al. 2007).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pandas as pd
import pyarrow as pa


class HLL:
    def __init__(self, p: int = 12, registers: np.ndarray | None = None):
        self.p = p
        self.m = 1 << p
        self.registers = registers if registers is not None else np.zeros(self.m, dtype=np.uint8)

    def add_hashes(self, h: np.ndarray) -> None:
        """h: uint64 hashes."""
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = (h << np.uint64(self.p)) | np.uint64((1 << self.p) - 1)  # sentinel low bits
        # rank = leading zeros of rest + 1, vectorized via bit length
        bl = np.zeros(h.size, dtype=np.int64)
        r = rest.copy()
        for shift in (32, 16, 8, 4, 2, 1):
            m = r >= (np.uint64(1) << np.uint64(shift))
            bl[m] += shift
            r[m] >>= np.uint64(shift)
        bl[r > 0] += 1
        rank = (64 - bl + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, rank)

    def add_strings(self, values) -> None:
        b2b = hashlib.blake2b
        h = np.fromiter(
            (int.from_bytes(b2b(str(v).encode(), digest_size=8).digest(), "big") for v in values),
            dtype=np.uint64, count=len(values),
        )
        self.add_hashes(h)

    def merge(self, other: "HLL") -> "HLL":
        assert self.p == other.p
        return HLL(self.p, np.maximum(self.registers, other.registers))

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.power(2.0, -self.registers.astype(np.float64)).sum()
        if est <= 2.5 * m:
            zeros = int((self.registers == 0).sum())
            if zeros:
                est = m * math.log(m / zeros)
        return float(est)

    def to_bytes(self) -> bytes:
        return self.registers.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes, p: int = 12) -> "HLL":
        return cls(p, np.frombuffer(b, dtype=np.uint8).copy())


def approx_distinct(ds, col: str, p: int = 12) -> float:
    """Approximate COUNT(DISTINCT col): per-batch sketches -> driver merge.
    Only 2^p-byte registers leave each batch."""

    def sketch(batch: pa.Table) -> pa.Table:
        h = HLL(p)
        h.add_strings(batch[col].to_pylist())
        return pa.table({"sketch": pa.array([h.to_bytes()], pa.binary())})

    parts = ds.map_batches(sketch, batch_format="pyarrow").take_all()
    acc = HLL(p)
    for row in parts:
        acc = acc.merge(HLL.from_bytes(row["sketch"], p))
    return acc.estimate()


def approx_distinct_by_key(ds, key: str, col: str, p: int = 10) -> pd.DataFrame:
    """Approximate per-key distinct counts: per-batch per-key sketches ->
    driver-side register merge (sketches are tiny and mergeable, so the
    'shuffle' is one row of 2^p bytes per key per batch)."""

    def sketch(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for k, grp in batch.groupby(key, sort=False):
            h = HLL(p)
            h.add_strings(grp[col].tolist())
            rows.append((k, h.to_bytes()))
        return pd.DataFrame(rows, columns=[key, "sketch"])

    parts = ds.map_batches(sketch, batch_format="pandas").to_pandas()
    out = []
    for k, grp in parts.groupby(key, sort=True):
        acc = HLL(p)
        for b in grp["sketch"]:
            acc = acc.merge(HLL.from_bytes(b, p))
        out.append((k, acc.estimate()))
    return pd.DataFrame(out, columns=[key, "approx_distinct"])


# ---------------------------------------------------------------------------
# exact distributed quantiles (order statistics without a sort)
# ---------------------------------------------------------------------------


def _bracket_counts(ds, col: str, brackets: list[tuple[float, float, bool]],
                    n_bins: int):
    """One streaming pass: per active bracket, the histogram of ``col``
    over ``n_bins`` equal bins (numpy right-exclusive semantics; the last
    bracket bin is right-inclusive when the bracket is terminal-right).
    Returns the summed (n_brackets, n_bins) count matrix — the ONLY thing
    that reaches the driver each pass."""
    import ray

    bref = ray.put(brackets)

    def f(batch: pa.Table) -> pa.Table:
        brs = ray.get(bref)
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        rows = np.zeros((len(brs), n_bins), dtype=np.int64)
        for i, (lo, hi, incl) in enumerate(brs):
            edges = np.linspace(lo, hi, n_bins + 1)
            sub = v[(v >= lo) & ((v <= hi) if incl else (v < hi))]
            if sub.size:
                rows[i], _ = np.histogram(sub, bins=edges)
        return pa.table({"counts": pa.array([rows.ravel()],
                                            pa.list_(pa.int64()))})

    parts = ds.map_batches(f, batch_format="pyarrow").take_all()
    total = np.zeros(len(brackets) * n_bins, dtype=np.int64)
    for r in parts:
        total += np.asarray(r["counts"], dtype=np.int64)
    return total.reshape(len(brackets), n_bins)


def _plan_is_source_only(ds) -> bool:
    """True when the Dataset plan is a bare source (read / in-memory
    block list) — re-executing it per pass is a pruned parquet read or a
    free object-store lookup. Falls back to False (callers materialize)
    when the (private) plan introspection is unavailable."""
    try:
        dag = ds._logical_plan.dag
        return not dag.input_dependencies and type(dag).__name__ in (
            "Read", "InputData", "FromArrow", "FromPandas", "FromNumpy",
            "FromItems")
    except Exception:
        return False


def _materialize_if_transformed(ds, col: str):
    """Guard for multi-pass consumers (VERDICT r4 #5): when the input
    plan stacks transforms above its source, every pass would re-execute
    them — materialize the needed column once instead. Bare reads and
    already-materialized inputs pass through untouched."""
    if _plan_is_source_only(ds):
        return ds
    return ds.map_batches(lambda t: t.select([col]),
                          batch_format="pyarrow").materialize()


def exact_quantiles(ds, col: str, qs: list[float], *, n_bins: int = 512,
                    exact_cap: int = 65536, max_passes: int = 64) -> pd.DataFrame:
    """EXACT quantiles (SQL ``quantile_disc``: the value at 1-indexed rank
    ``max(1, ceil(q*n))`` among non-null values) WITHOUT a distributed
    sort: iterative histogram bracketing. Each pass is one map-side scan
    that returns only an (active-brackets x n_bins) count matrix; the
    bracket containing each target rank narrows by n_bins per pass, so
    passes = O(log_bins(value range / final width)) — typically 2-4. When
    a bracket holds <= exact_cap rows its values are collected and the
    order statistic read off exactly. Duplicate-heavy brackets terminate
    via the zero-width check (all-equal values ARE the answer).

    The all-to-all a ``ds.sort(col)`` would cost is replaced by log-passes
    of histogram partials; the driver never holds more than counts and one
    <= exact_cap value slice. Re-scans execute the input plan per pass, so
    an input with upstream TRANSFORMS is auto-materialized once up front
    (pruned to ``col`` — the passes read nothing else); bare reads /
    already-materialized inputs are streamed as-is (re-reading pruned
    parquet per pass is the deliberate trade vs pinning the column)."""
    import ray

    ds = _materialize_if_transformed(ds, col)

    def mm(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        if v.size == 0:
            return pa.table({"lo": pa.array([], pa.float64()),
                             "hi": pa.array([], pa.float64()),
                             "n": pa.array([], pa.int64())})
        return pa.table({"lo": [float(v.min())], "hi": [float(v.max())],
                         "n": [int(v.size)]})

    parts = ds.map_batches(mm, batch_format="pyarrow").take_all()
    if not parts:
        return pd.DataFrame({"q": qs, "value": [np.nan] * len(qs)})
    glo = min(p["lo"] for p in parts)
    ghi = max(p["hi"] for p in parts)
    n = sum(p["n"] for p in parts)
    if n == 0:
        return pd.DataFrame({"q": qs, "value": [np.nan] * len(qs)})

    # state per q: (lo, hi, right-inclusive, rank-within-bracket) — global
    # bracket starts right-inclusive (max value included)
    state = {q: (glo, ghi, True, max(1, math.ceil(q * n))) for q in qs}
    resolved: dict[float, float] = {}

    for _ in range(max_passes):
        active = {q: s for q, s in state.items() if q not in resolved}
        if not active:
            break
        ulp_pending: dict[float, tuple[float, float, int]] = {}
        for q, (lo, hi, incl, rank) in list(active.items()):
            if hi <= np.nextafter(lo, np.inf):  # width underflowed
                if not incl:
                    resolved[q] = lo  # [lo, hi) one ULP wide = {lo}
                else:
                    # right-inclusive one-ULP bracket can hold TWO distinct
                    # values (lo and hi): a count of lo's copies decides
                    # which side of the rank boundary each q lands on —
                    # batched into ONE pass for every such q this round
                    ulp_pending[q] = (lo, hi, rank)
                del active[q]
        if ulp_pending:
            los = np.array(sorted({lo for lo, _h, _r in ulp_pending.values()}),
                           dtype=np.float64)

            def cnt(batch: pa.Table) -> pa.Table:
                v = batch[col].to_numpy(zero_copy_only=False)
                return pa.table({"n": pa.array(
                    [(v[:, None] == los[None, :]).sum(axis=0)
                     if v.size else np.zeros(los.size, np.int64)],
                    pa.list_(pa.int64()))})

            totals = np.zeros(los.size, dtype=np.int64)
            for r in ds.map_batches(cnt, batch_format="pyarrow").take_all():
                totals += np.asarray(r["n"], dtype=np.int64)
            for q, (lo, hi, rank) in ulp_pending.items():
                n_lo = int(totals[int(np.searchsorted(los, lo))])
                resolved[q] = lo if rank <= n_lo else hi
        if not active:
            break
        # dedupe identical brackets across qs into one histogram each
        uniq: list[tuple[float, float, bool]] = []
        slot: dict[float, int] = {}
        for q, (lo, hi, incl, _r) in active.items():
            key = (lo, hi, incl)
            if key not in uniq:
                uniq.append(key)
            slot[q] = uniq.index(key)
        counts = _bracket_counts(ds, col, uniq, n_bins)
        terminal: dict[float, tuple[float, float, bool, int]] = {}
        for q, (lo, hi, incl, rank) in active.items():
            c = counts[slot[q]]
            edges = np.linspace(lo, hi, n_bins + 1)
            cum = np.cumsum(c)
            i = int(np.searchsorted(cum, rank, side="left"))
            below = int(cum[i - 1]) if i else 0
            b = (float(edges[i]), float(edges[i + 1]),
                 incl and i == n_bins - 1, rank - below)
            if int(c[i]) <= exact_cap:
                terminal[q] = b
            else:
                state[q] = b
        if terminal:
            # ONE combined collect pass for every bracket that became
            # terminal this round (not one scan per q)
            tbrs = list({(lo, hi, incl) for lo, hi, incl, _r in terminal.values()})
            import ray

            tref = ray.put(tbrs)

            def grab(batch: pa.Table) -> pa.Table:
                brs = ray.get(tref)
                v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
                outs, slots = [], []
                for si, (lo, hi, incl) in enumerate(brs):
                    sub = v[(v >= lo) & ((v <= hi) if incl else (v < hi))]
                    outs.append(sub)
                    slots.append(np.full(sub.size, si, dtype=np.int32))
                return pa.table({
                    "s": pa.array(np.concatenate(slots) if slots else
                                  np.array([], np.int32)),
                    "v": pa.array(np.concatenate(outs) if outs else
                                  np.array([], np.float64), pa.float64()),
                })

            got_s, got_v = [], []
            for b in ds.map_batches(grab, batch_format="pyarrow") \
                       .iter_batches(batch_format="pandas"):
                got_s.append(b["s"].to_numpy())
                got_v.append(b["v"].to_numpy())
            s_all = np.concatenate(got_s) if got_s else np.array([], np.int32)
            v_all = np.concatenate(got_v) if got_v else np.array([], np.float64)
            for q, (lo, hi, incl, b_rank) in terminal.items():
                vals = np.sort(v_all[s_all == tbrs.index((lo, hi, incl))])
                resolved[q] = float(vals[b_rank - 1])
    else:
        raise RuntimeError("exact_quantiles did not converge")
    return pd.DataFrame({"q": qs, "value": [resolved[q] for q in qs]})


def grouped_quantiles(ds, key_col: str, col: str, qs: list[float],
                      n_buckets: int = 32) -> pd.DataFrame:
    """Per-key EXACT quantile_disc values: one key-hash exchange delivers
    each key's complete row set to one reducer, which reads all order
    statistics from a single in-bucket sort (keys are assumed
    reducer-sized — use exact_quantiles per key when one key's rows exceed
    a worker; same contract as every keyed exchange here). Returns one row
    per (key, q)."""
    from .relational import exchange

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out_k, out_q, out_v = [], [], []
        for k, grp in df.groupby(key_col, sort=False):
            v = np.sort(grp[col].to_numpy(np.float64))
            v = v[~np.isnan(v)]
            if v.size == 0:
                continue
            for q in qs:
                out_k.append(k)
                out_q.append(q)
                out_v.append(float(v[max(1, math.ceil(q * v.size)) - 1]))
        return pd.DataFrame({key_col: out_k, "q": out_q, "value": out_v})

    return exchange(ds, per_bucket, keys=[key_col], n_buckets=n_buckets,
                    pre=lambda t: t.select([key_col, col])).to_pandas()


def global_rank(ds, value_col: str, tiebreak_col: str, *,
                out_col: str = "rank", n_ranges: int = 64,
                n_buckets: int = 64):
    """Distributed total-order position assignment — SQL
    ``row_number() OVER (ORDER BY value, tiebreak)`` — WITHOUT a global
    sort: the all-to-all a ``ds.sort`` would cost is replaced by
    range partitioning on exact order-statistic cutpoints.

    1. exact_quantiles picks ~n_ranges distinct value cutpoints (log-pass
       histogram bracketing, no sort);
    2. one pre-aggregate counts rows per value-range (driver sees
       n_ranges numbers and prefix-sums them into offsets);
    3. one range-keyed exchange lexsorts each range locally and adds its
       offset — every row gets its EXACT 1-indexed global rank.

    All rows sharing a value land in one range (cutpoints are distinct
    observed values, searchsorted side='left'), so ties order purely by
    the in-range (value, tiebreak) lexsort — identical to the SQL window.
    Value skew bound: one range holds at least each distinct value's full
    tie group (the same bound any order-statistic partitioning has)."""
    from .relational import exchange, pre_aggregate

    qs = [i / n_ranges for i in range(1, n_ranges)]
    cuts = np.unique(exact_quantiles(ds, value_col, qs)["value"].to_numpy())

    def add_range(t: pa.Table) -> pa.Table:
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        r = np.searchsorted(cuts, v, side="left").astype(np.int64)
        return t.append_column("__range", pa.array(r, pa.int64()))

    ranged = ds.map_batches(add_range, batch_format="pyarrow")
    counts = pre_aggregate(ranged, ["__range"], counts="n",
                           driver_final=True).sort_values("__range")
    offs = dict(zip(counts["__range"],
                    np.concatenate(([0], np.cumsum(counts["n"].to_numpy())[:-1]))))

    def rank_range(df: pd.DataFrame) -> pd.DataFrame:
        # a hash bucket may hold SEVERAL range values — rank within each
        # range (vectorized boundary arithmetic), offset per range
        df = df.sort_values(["__range", value_col, tiebreak_col],
                            kind="mergesort")
        rng = df["__range"].to_numpy()
        starts = np.flatnonzero(np.r_[True, rng[1:] != rng[:-1]])
        sizes = np.diff(np.r_[starts, rng.size])
        pos = np.arange(rng.size) - np.repeat(starts, sizes)
        base = np.fromiter((offs[int(r)] for r in rng[starts]),
                           np.int64, starts.size)
        out = df.drop(columns=["__range"]).copy()
        out[out_col] = np.repeat(base, sizes) + pos + 1
        return out

    return exchange(ranged, rank_range, keys=["__range"],
                    n_buckets=min(n_buckets, max(1, len(cuts) + 1)))


def robust_outliers(ds, key_col: str, value_col: str, *, k: float = 3.0,
                    n_buckets: int = 32):
    """Per-key ROBUST outlier detection (median / MAD rule): flag rows
    where ``|value - median(key)| > k * MAD(key)`` with
    ``MAD = median(|value - median|)`` — the rule that survives the skewed,
    heavy-tailed quality-score distributions where mean/stddev z-scores
    drown (each extreme doc drags the mean toward itself).

    Three streaming passes, no ROW-sized state on the driver:
      1. per-key exact median (grouped_quantiles — one key-hash exchange),
      2. per-key exact MAD over |value - median| with the median map
         broadcast once (ray.put) into a map-side derivation,
      3. a pure map-side filter against the broadcast (median, MAD) maps.

    Key-cardinality contract: the median and MAD maps are built on the
    driver (``grouped_quantiles`` collects one row per key) and broadcast
    to every task, so the driver and each worker hold two floats per
    DISTINCT KEY. Fine for category-like keys (q116: 24 keys); for keys
    whose cardinality approaches the row count, join the per-key stats
    back with ``partitioned_join`` instead.
    Both medians are ``quantile_disc`` order statistics, so every
    comparison is reproducible double arithmetic (no interpolation).
    Multi-pass: an input with upstream transforms is materialized once up
    front (same guard as exact_quantiles); bare reads re-scan pruned."""
    import pyarrow as pa

    import ray

    if not _plan_is_source_only(ds):
        ds = ds.materialize()
    med = grouped_quantiles(ds, key_col, value_col, [0.5], n_buckets)
    med_map = dict(zip(med[key_col], med["value"]))
    med_ref = ray.put(med_map)

    def absdev(batch: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(med_ref)
        c = batch[key_col].map(m).to_numpy(np.float64)
        return pd.DataFrame({
            key_col: batch[key_col],
            "absdev": np.abs(batch[value_col].to_numpy(np.float64) - c)})

    dev = ds.map_batches(absdev, batch_format="pandas")
    mad = grouped_quantiles(dev, key_col, "absdev", [0.5], n_buckets)
    mad_map = dict(zip(mad[key_col], mad["value"]))
    thr_ref = ray.put((med_map, mad_map, float(k)))

    def flag(batch: pa.Table) -> pa.Table:
        m, s, kk = ray.get(thr_ref)
        keys = batch[key_col].to_pandas()
        med_v = keys.map(m).to_numpy(np.float64)
        mad_v = keys.map(s).to_numpy(np.float64)
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        # NaN med/mad (key never seen with a non-null value) compares
        # False -> dropped, matching the oracle's inner join on the
        # aggregated key set
        return batch.filter(pa.array(np.abs(v - med_v) > kk * mad_v))

    return ds.map_batches(flag, batch_format="pyarrow")
