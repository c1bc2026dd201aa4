"""Reusable Ray-Data-first relational operators — the reference's operator
inventory (SURVEY.md §2) re-expressed as composable Dataset transforms.

Design rules applied throughout:
- columns pruned at the read (``read_table(columns=...)``);
- aggregation is partial/final: per-batch pandas partials, then a small
  ``groupby().aggregate`` over one row per key per batch (A6);
- small join sides are broadcast once via ``ray.put`` and looked up inside
  ``map_batches`` (J1 — the reference's in-heap cache joins,
  GxdResultIndexer.java:91-272); no shuffle;
- per-key exact ops with millions of tiny groups (dedup-first, window
  funcs) go through ONE explicit exchange (``exchange``) keyed by
  ``bucket_ids`` — a vectorized body per bucket, never one Python call
  per key;
- global top-k is per-batch partial top-k + tiny driver-side final merge,
  never a full sort.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd
from ray.data.aggregate import Count, Max, Min, Sum
from ray.data.dataset import MaterializedDataset

from ..index.docid import sorted_member


import threading

# Dataset CREATION (schema inference / filesystem resolution) is serialized:
# Ray's path resolution probes optional fsspec modules under guarded imports,
# and two threads first-touching that probe race a half-initialized module
# (observed: ImportError on fsspec.implementations.http.HTTPFileSystem when
# pipelines run concurrently). Execution stays fully parallel — only the
# ~ms-scale read_parquet() call itself is locked.
_DATASET_CREATE_LOCK = threading.Lock()


def read_table(sf_dir: str | Path, name: str, columns: list[str] | None = None, filter=None):
    with _DATASET_CREATE_LOCK:
        return rd.read_parquet(str(Path(sf_dir) / f"{name}.parquet"), columns=columns, filter=filter)


# ---------------------------------------------------------------------------
# broadcast joins / semi / anti (J1, J3, J4, J5)
# ---------------------------------------------------------------------------

class _BroadcastJoiner:
    """Actor: small side fetched from the object store once per worker.
    The per-batch join is ARROW-NATIVE (Acero hash join — interleaved A/B
    r5: 2.2x the pandas merge round trip at 200k-row batches), so int64
    payloads stay exact through unmatched rows and null keys never match
    (SQL semantics; the old pandas merge matched NaN = NaN)."""

    _HOW = {"inner": "inner", "left": "left outer",
            "right": "right outer", "outer": "full outer"}

    def __init__(self, small_ref, on, how):
        small = ray.get(small_ref) if isinstance(small_ref, ray.ObjectRef) else small_ref
        if isinstance(small, pd.DataFrame):
            small = pa.Table.from_pandas(small, preserve_index=False)
        self.small = small
        self.on = on
        self.how = self._HOW[how]

    def __call__(self, batch: pa.Table) -> pa.Table:
        return batch.join(self.small, keys=self.on, join_type=self.how)


def broadcast_join(ds, small_df: pd.DataFrame, on, how: str = "inner", concurrency=(1, 8)):
    ref = ray.put(small_df)
    return ds.map_batches(
        _BroadcastJoiner,
        fn_constructor_kwargs={"small_ref": ref, "on": on, "how": how},
        batch_format="pyarrow",
        concurrency=concurrency,
    )


def key_set(ds, col: str) -> frozenset:
    """Collect the distinct key set of a (small-cardinality) column."""
    vals = ds.unique(col)
    return frozenset(v[col] if isinstance(v, dict) else v for v in vals)


def semi_join_filter(ds, col: str, keys: frozenset, anti: bool = False):
    ref = ray.put(pa.array(list(keys)))

    def f(batch: pa.Table) -> pa.Table:
        ks = ray.get(ref)
        # fill_null(False): null keys are never members (keep semantics of
        # the previous pandas isin — anti keeps null-key rows)
        mask = pa.compute.fill_null(
            pa.compute.is_in(batch[col], value_set=ks), False)
        return batch.filter(pa.compute.invert(mask) if anti else mask)

    return ds.map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# partitioned hash join (J2) — both sides large
# ---------------------------------------------------------------------------

_SALT_PRIME = 2654435761  # Knuth multiplicative-hash constant


def detect_hot_keys(ds, col: str, *, threshold: float = 0.01,
                    slack: float = 4.0) -> set:
    """One-pass heavy-hitter detection for join-skew salting.

    Per-batch ``value_counts`` emits only candidates whose in-batch share
    is >= threshold/slack (plus one null-keyed sentinel row carrying the
    batch row count); the driver group-sums the candidate partials.
    Guarantee: every key with global share >= threshold is returned — the
    mass a true hot key can lose to sub-cutoff batches is < threshold/slack
    of the total, so its counted share stays >= threshold*(1 - 1/slack),
    which is the acceptance bound. Keys between (1-1/slack)*threshold and
    threshold may also be returned; for salting a false positive costs a
    little replication, never correctness. Partial rows are ~candidates x
    batches — heavy-hitter-sized, not key-cardinality-sized."""
    import ray as _ray

    def partial(batch: pa.Table) -> pa.Table:
        vc = pa.compute.value_counts(batch[col].combine_chunks())
        vals = vc.field("values")
        cnts = vc.field("counts").cast(pa.int64())
        cut = max(1, int(batch.num_rows * threshold / slack))
        # null keys are excluded from candidates: the null-keyed row below is
        # the batch-count sentinel, and a real-null candidate row would merge
        # into `total` and inflate it (weakening the acceptance bound)
        m = pa.compute.and_(pa.compute.greater_equal(cnts, cut),
                            pa.compute.is_valid(vals))
        cand = pa.table({"k": vals.filter(m), "n": cnts.filter(m)})
        sent = pa.table({"k": pa.nulls(1, vals.type),
                         "n": pa.array([batch.num_rows], pa.int64())})
        return pa.concat_tables([cand, sent])

    pds = ds.map_batches(partial, batch_format="pyarrow")
    parts = [t for t in _ray.get(arrow_refs(pds)) if t.num_rows]
    if not parts:
        return set()
    tbl = pa.concat_tables(parts).combine_chunks()
    agg = pa.TableGroupBy(tbl, "k").aggregate([("n", "sum")])
    ks = agg["k"].to_pylist()
    ns = agg["n_sum"].to_pylist()
    total = sum(n for k, n in zip(ks, ns) if k is None)
    if not total:
        return set()
    bound = threshold * (1.0 - 1.0 / slack) * total
    return {k for k, n in zip(ks, ns) if k is not None and n >= bound}


def salted_bucket_ids(jb: np.ndarray, hot_mask: np.ndarray, salts: np.ndarray,
                      n_buckets: int) -> np.ndarray:
    """Bucket ids after salting: hot rows move to (jb + salt*PRIME) mod
    n_buckets; cold rows keep jb. Shared by both join sides (and exposed
    for the skew tests)."""
    out = jb.astype(np.int64, copy=True)
    idx = np.flatnonzero(hot_mask)
    if idx.size:
        out[idx] = (out[idx] + salts.astype(np.int64) * _SALT_PRIME) % n_buckets
    return out.astype(np.int32)


def partitioned_join(left, right, left_on: str, right_on: str, *,
                     n_buckets: int = 32, how: str = "inner", bucket_post=None,
                     hot_keys=None, n_salts: int = 8):
    """Explicit hash-partitioned equi-join on int64 keys: both sides get a
    ``key % n_buckets`` bucket, are unioned under one Arrow schema (missing
    columns as typed nulls), shuffled once by bucket, and joined per bucket
    with a vectorized pandas merge. This is the portable pattern when the
    sides are too large to broadcast; one shuffle total.

    Skew (``hot_keys``): a hot join key maps to one bucket, so one reducer
    receives that key's entire probe side. Passing the hot key set salts
    it: LEFT (probe) rows of a hot key scatter across ``n_salts``
    sub-buckets (round-robin within each batch — any spread is correct,
    the joined row SET is salt-invariant); RIGHT (build) rows of a hot key
    replicate into all ``n_salts`` sub-buckets — the same replicate-the-
    build-side trick as the index build's doc-range sharding of hot terms.
    Restricted to inner/left joins (a replicated right row would duplicate
    in right/full outer) and incompatible with ``bucket_post`` per-key
    finals (a hot key's group now spans buckets, so per-key aggregates
    would be partial — run the final merge downstream instead).

    ``bucket_post`` (pandas->pandas) runs on each bucket's joined frame
    BEFORE it leaves the reducer. Because a bucket holds every row of its
    join keys, any per-key aggregation done here is already final — reuse
    the join's partitioning instead of paying a second shuffle."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if hot_keys:
        if how not in ("inner", "left"):
            raise ValueError("hot-key salting supports inner/left joins only")
        if bucket_post is not None:
            raise ValueError("hot-key salting breaks bucket_post's whole-key "
                             "invariant; aggregate downstream instead")
    hot_arr = np.asarray(sorted(hot_keys)) if hot_keys else None
    # effective salts = the prefix of salt indices whose bucket OFFSETS
    # (s*_SALT_PRIME mod n_buckets) are all distinct. Two salts landing in
    # the same bucket would put two build-side replicas of a hot row in one
    # reducer and silently DUPLICATE its joined rows (n_salts > n_buckets,
    # or gcd(_SALT_PRIME, n_buckets) > 1). For power-of-two n_buckets the
    # odd prime guarantees distinct offsets up to n_buckets salts.
    eff_salts: list[int] = []
    if hot_keys:
        seen_off = set()
        for s in range(n_salts):
            off = (s * _SALT_PRIME) % n_buckets
            if off not in seen_off:
                seen_off.add(off)
                eff_salts.append(s)

    # Execute both sides to block refs (sequentially — the two plans may
    # SHARE lineage, e.g. iterative callers join a dataset against an
    # aggregate derived from it, and concurrent execution of overlapping
    # plans crosses blocks between them), then read each side's Arrow
    # schema from its first block via a tiny remote task instead of two
    # plan-executing .schema() calls.
    l_refs = arrow_refs(left)
    r_refs = arrow_refs(right)
    sch = ray.remote(_block_schema)
    sch_refs, sch_slots = [], []
    for i, refs in enumerate((l_refs, r_refs)):
        if refs:
            sch_refs.append(sch.remote(*refs[:4]))
            sch_slots.append(i)
    got = dict(zip(sch_slots, ray.get(sch_refs)))

    def _resolve_schema(slot, ds):
        s = got.get(slot)
        if s is not None and len(s.names):
            return s
        # zero-block / all-degenerate side: Ray Data's schema (Arrow types)
        return ds.schema()

    l_schema = _resolve_schema(0, left)
    r_schema = _resolve_schema(1, right)
    l_fields = list(zip(l_schema.names, l_schema.types))
    r_fields = [(n, t) for n, t in zip(r_schema.names, r_schema.types) if n not in l_schema.names]
    all_fields = l_fields + r_fields
    l_names = [n for n, _ in l_fields]
    r_names = list(r_schema.names)

    def unify(side: int, key_col: str):
        def f(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            cols = {}
            for name, typ in all_fields:
                if name in batch.column_names:
                    cols[name] = batch[name].combine_chunks().cast(typ)
                else:
                    cols[name] = pa.nulls(n, typ)
            # route on the ARROW type: an int column with nulls converts
            # to float64 and would bucket inconsistently across batches
            # (null keys never match downstream — their bucket is moot)
            if pa.types.is_integer(batch.schema.field(key_col).type):
                keys = batch[key_col].fill_null(0).to_numpy(zero_copy_only=False)
                jb = (keys.astype(np.int64) % n_buckets).astype(np.int32)
            else:  # string/object keys: the deterministic key hasher
                keys = batch[key_col].to_numpy(zero_copy_only=False)
                jb = bucket_ids(batch, [key_col], n_buckets)
            hot_mask = np.isin(keys, hot_arr) if hot_arr is not None else None
            if hot_mask is not None and batch[key_col].null_count:
                # null keys are not hot (fill_null(0) must not make them
                # impersonate a hot key 0 and pay pointless replication)
                hot_mask &= batch[key_col].is_valid().to_numpy(
                    zero_copy_only=False)
            side_col = pa.array(np.full(n, side, dtype=np.int8))
            if hot_mask is None or not hot_mask.any():
                cols["__jb"] = pa.array(jb)
                cols["__side"] = side_col
                return pa.table(cols)
            if side == 0:
                # probe side: scatter hot rows round-robin over the EFFECTIVE
                # salts (the joined row SET is the same for ANY spread)
                idx = np.flatnonzero(hot_mask)
                salts = np.asarray(eff_salts, np.int64)[
                    np.arange(idx.size, dtype=np.int64) % len(eff_salts)]
                cols["__jb"] = pa.array(salted_bucket_ids(jb, hot_mask, salts, n_buckets))
                cols["__side"] = side_col
                return pa.table(cols)
            # build side: replicate hot rows into every salt's sub-bucket
            # (salt 0 == the unsalted bucket, covered by the base copy)
            cols["__jb"] = pa.array(jb)
            cols["__side"] = side_col
            base = pa.table(cols)
            parts = [base]
            hot_idx = pa.array(np.flatnonzero(hot_mask))
            hot_rows = base.take(hot_idx)
            jb_hot = jb[hot_mask].astype(np.int64)
            for s in eff_salts[1:]:  # s=0 == the unsalted base copy
                jb_s = ((jb_hot + s * _SALT_PRIME) % n_buckets).astype(np.int32)
                parts.append(hot_rows.set_column(
                    hot_rows.schema.get_field_index("__jb"), "__jb", pa.array(jb_s)))
            return pa.concat_tables(parts)

        return f

    def join_bucket(group: pa.Table) -> pa.Table:
        side = group["__side"]
        import pyarrow.compute as pc2

        l_tbl = group.filter(pc2.equal(side, 0)).select(l_names)
        r_tbl = group.filter(pc2.equal(side, 1)).select(r_names)
        group = None  # noqa: F841 (release before the merge)
        # SQL join semantics: NULL keys never match (a pandas merge WOULD
        # match NaN = NaN). Strip them ARROW-SIDE, keeping unmatched-side
        # null-key rows only where the join shape preserves them. The merge
        # itself runs on MINIMAL (key, row-index) frames; payload columns
        # are reattached arrow-side by take() with null indices for
        # unmatched rows, so int64 payloads never round-trip through
        # pandas float64 (exact above 2^53 even in left/right/outer
        # shapes — a NaN-bearing pandas column would silently round them).
        l_ok = l_tbl[left_on].is_valid()
        r_ok = r_tbl[right_on].is_valid()
        l_rest = l_tbl.filter(pc2.invert(l_ok)) if how in ("left", "outer") else None
        r_rest = r_tbl.filter(pc2.invert(r_ok)) if how in ("right", "outer") else None
        l_val = l_tbl.filter(l_ok)
        r_val = r_tbl.filter(r_ok)
        l_df = pd.DataFrame({
            left_on: l_val[left_on].to_numpy(zero_copy_only=False),
            "__li": np.arange(l_val.num_rows, dtype=np.int64)})
        r_df = pd.DataFrame({
            right_on: r_val[right_on].to_numpy(zero_copy_only=False),
            "__ri": np.arange(r_val.num_rows, dtype=np.int64)})
        merged = l_df.merge(r_df[[right_on, "__ri"]], left_on=left_on,
                            right_on=right_on, how=how)
        li = pa.Array.from_pandas(merged["__li"], type=pa.int64())
        ri = pa.Array.from_pandas(merged["__ri"], type=pa.int64())
        cols = {}
        for name, _typ in l_fields:
            cols[name] = l_val[name].take(li)
        for name, _typ in r_fields:
            cols[name] = r_val[name].take(ri)
        if left_on == right_on and how in ("right", "outer"):
            # shared key name: the key fills from the matched side;
            # take(li) left it null for right-unmatched rows
            cols[left_on] = pc2.coalesce(cols[left_on],
                                         r_val[right_on].take(ri))
        parts = [pa.table(cols)]
        for rest in (l_rest, r_rest):
            if rest is not None and rest.num_rows:
                parts.append(pa.table({
                    name: (rest[name].combine_chunks()
                           if name in rest.column_names
                           else pa.nulls(rest.num_rows, typ))
                    for name, typ in all_fields}))
        out = pa.concat_tables(parts) if len(parts) > 1 else parts[0]
        if bucket_post is not None:
            # bucket_post is pandas->pandas by contract and must return a
            # frame with stable dtypes (empty buckets included) —
            # from_pandas infers the schema from it
            return pa.Table.from_pandas(bucket_post(out.to_pandas()),
                                        preserve_index=False)
        return out

    # whole-bucket integrity required (a split bucket silently loses join
    # matches) -> explicit exchange, not groupby().map_groups. The per-side
    # unify (typed-null column alignment + bucket ids + salting) is FUSED
    # into the partition tasks — no standalone unify/union passes.
    empty = pa.schema([pa.field(n, t) for n, t in all_fields]
                      + [pa.field("__jb", pa.int32()), pa.field("__side", pa.int8())]).empty_table()
    return exchange([(l_refs, unify(0, left_on)), (r_refs, unify(1, right_on))],
                    join_bucket, by="__jb", batch_format="pyarrow", empty=empty)


# ---------------------------------------------------------------------------
# as-of join / range-band join (temporal joins Ray Data lacks natively)
# ---------------------------------------------------------------------------


def asof_join(left, right, *, on: str, by: str, direction: str = "backward",
              allow_exact: bool = False, how: str = "inner",
              suffix: str = "_r", n_buckets: int = 32):
    """Distributed as-of join: for each LEFT row, the single RIGHT row with
    the same ``by`` key and the greatest ``on`` < (``backward``) / least
    ``on`` > (``forward``) the left row's ``on`` (``allow_exact`` admits
    equality). Ray Data has no as-of join; this is the exchange
    composition: both sides hash-partition by ``by`` (ONE shuffle — the
    only all-to-all), each bucket sorts by ``on`` and runs one vectorized
    ``pandas.merge_asof``. Partitioning assumption: a ``by`` key's rows fit
    one reducer (same contract as partitioned_join's bucket); salt hot
    keys upstream if a single key is corpus-scale.

    Ties on (``by``, ``on``) in the right side resolve DETERMINISTICALLY:
    backward takes the greatest remaining right column tuple, forward the
    least — matching a SQL row_number() window ordered by (``on`` DESC,
    rest DESC) resp. (``on`` ASC, rest ASC).
    ``how='left'`` keeps unmatched left rows with nulls; right columns that
    collide with left names are renamed with ``suffix``."""
    if direction not in ("backward", "forward"):
        raise ValueError(f"unknown direction {direction!r}")
    l_refs = arrow_refs(left)
    r_refs = arrow_refs(right)
    sch = ray.remote(_block_schema)
    l_schema = ray.get(sch.remote(*l_refs[:4])) if l_refs else left.schema()
    r_schema = ray.get(sch.remote(*r_refs[:4])) if r_refs else right.schema()
    l_names = list(l_schema.names)
    r_rename = {n: (n + suffix if n in l_names else n) for n in r_schema.names}
    out_fields = list(zip(l_names, l_schema.types)) + [
        (r_rename[n], t) for n, t in zip(r_schema.names, r_schema.types)
        if r_rename[n] not in l_names]

    def unify(side: int):
        def f(batch: pa.Table) -> pa.Table:
            # route on the ARROW type, not the numpy dtype: an int column
            # with nulls converts to float64, and a per-batch dtype switch
            # would bucket the same key value inconsistently across
            # batches/sides (silently losing matches). Null keys can never
            # match in merge_asof, so their bucket is arbitrary.
            if pa.types.is_integer(batch.schema.field(by).type):
                keys = batch[by].fill_null(0).to_numpy(zero_copy_only=False)
                jb = (keys.astype(np.int64) % n_buckets).astype(np.int32)
            else:
                jb = bucket_ids(batch, [by], n_buckets)
            if side == 1:
                batch = batch.rename_columns([r_rename[n] for n in batch.column_names])
            n = batch.num_rows
            cols = {}
            for name, typ in out_fields:
                cols[name] = (batch[name].combine_chunks().cast(typ)
                              if name in batch.column_names else pa.nulls(n, typ))
            cols["__jb"] = pa.array(jb)
            cols["__side"] = pa.array(np.full(n, side, dtype=np.int8))
            return pa.table(cols)
        return f

    by_r = r_rename[by]
    on_r = r_rename[on]
    r_out = [r_rename[n] for n in r_schema.names]
    r_tiebreak = [c for c in r_out if c not in (by_r, on_r)]

    def asof_bucket(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc2

        l_tbl = group.filter(pc2.equal(group["__side"], 0)).select(l_names)
        r_tbl = group.filter(pc2.equal(group["__side"], 1)).select(r_out)
        # null keys can never match: drop them ARROW-SIDE. The merge_asof
        # runs on MINIMAL (by, on, row-index) frames; payload columns are
        # reattached arrow-side by take() with null indices for unmatched
        # rows, so int64 payloads never pass through pandas float64
        # (exact above 2^53 even in how='left' shapes with NaN rows).
        def valid(t, a, b):
            return pc2.and_kleene(t[a].is_valid(), t[b].is_valid())

        l_ok = valid(l_tbl, on, by)
        l_rest = l_tbl.filter(pc2.invert(l_ok)) if how != "inner" else None
        l_val = l_tbl.filter(l_ok)
        r_val = r_tbl.filter(valid(r_tbl, on_r, by_r))
        # merge_asof picks the LAST in-order candidate going backward and
        # the FIRST going forward, so one ascending sort over the FULL
        # right tuple (on_r + every other column) yields max-tuple ties
        # backward / min-tuple ties forward — i.e. the row a SQL
        # row_number window ordered by (on DESC, rest DESC) resp.
        # (on ASC, rest ASC) selects. Sorted arrow-side (full-tuple keys,
        # so sort stability is irrelevant — equal tuples are identical).
        if r_val.num_rows:
            r_val = r_val.take(pc2.sort_indices(
                r_val, sort_keys=[(on_r, "ascending")]
                + [(c, "ascending") for c in r_tiebreak]))
        l_df = pd.DataFrame({
            by: l_val[by].to_numpy(zero_copy_only=False),
            on: l_val[on].to_numpy(zero_copy_only=False),
            "__li": np.arange(l_val.num_rows, dtype=np.int64)})
        r_df = pd.DataFrame({
            by_r: r_val[by_r].to_numpy(zero_copy_only=False),
            on_r: r_val[on_r].to_numpy(zero_copy_only=False),
            "__ri": np.arange(r_val.num_rows, dtype=np.int64)})
        for lc, rc in ((by, by_r), (on, on_r)):
            lt, rt = l_df[lc].dtype, r_df[rc].dtype
            if lt != rt and lt.kind in "iuf" and rt.kind in "iuf":
                common = np.result_type(lt, rt)  # only when the two
                l_df[lc] = l_df[lc].astype(common)  # schemas genuinely
                r_df[rc] = r_df[rc].astype(common)  # differ (caller's mix)
        l_order = np.argsort(l_df[on].to_numpy(), kind="stable")
        merged = pd.merge_asof(
            l_df.iloc[l_order], r_df, left_on=on, right_on=on_r,
            left_by=by, right_by=by_r, direction=direction,
            allow_exact_matches=allow_exact)
        if how == "inner":
            merged = merged[merged["__ri"].notna()]
        li = pa.Array.from_pandas(merged["__li"], type=pa.int64())
        ri = pa.Array.from_pandas(merged["__ri"], type=pa.int64())
        cols = {}
        for name, _typ in out_fields:
            cols[name] = (l_val[name].take(li) if name in l_names
                          else r_val[name].take(ri))
        out = pa.table(cols)
        if l_rest is not None and l_rest.num_rows:
            out = pa.concat_tables([out, pa.table({
                name: (l_rest[name].combine_chunks() if name in l_names
                       else pa.nulls(l_rest.num_rows, typ))
                for name, typ in out_fields})])
        return out

    empty = pa.schema([pa.field(n, t) for n, t in out_fields]
                      + [pa.field("__jb", pa.int32()), pa.field("__side", pa.int8())]).empty_table()
    return exchange([(l_refs, unify(0)), (r_refs, unify(1))], asof_bucket,
                    by="__jb", batch_format="pyarrow", empty=empty)


def range_band_join(ds, bands: pd.DataFrame, *, value_col: str,
                    lo_col: str = "lo", hi_col: str = "hi",
                    how: str = "inner"):
    """Range join against a SMALL banded side: every row of ``ds`` gets the
    band whose [lo, hi) interval contains ``value_col``. Bands must be
    non-overlapping; they are sorted and broadcast ONCE (``ray.put``), and
    each batch resolves every row with one ``searchsorted`` — the big side
    never shuffles (the canonical broadcast range-join shape; a shuffle
    range join at this shape would be pure overhead). ``how='left'`` keeps
    bandless rows with nulls; default drops them."""
    bands = bands.sort_values(lo_col).reset_index(drop=True)
    los = bands[lo_col].to_numpy()
    his = bands[hi_col].to_numpy()
    if (his[:-1] > los[1:]).any() if len(bands) > 1 else False:
        raise ValueError("bands overlap")
    attach = [c for c in bands.columns if c not in (lo_col, hi_col)]
    band_tbl = pa.Table.from_pandas(bands, preserve_index=False)
    ref = ray.put((los, his, band_tbl))

    def f(batch: pa.Table) -> pa.Table:
        lo_a, hi_a, btbl = ray.get(ref)
        v = batch[value_col].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(lo_a, v, side="right") - 1
        idx_c = np.maximum(idx, 0)
        ok = (idx >= 0) & (v < hi_a[idx_c]) & ~pd.isna(v)
        if how == "inner":
            batch = batch.filter(pa.array(ok))
            take = idx[ok]
            for c in attach + [lo_col, hi_col]:
                batch = batch.append_column(c, btbl[c].take(pa.array(take, pa.int64())))
            return batch
        take = pa.array(idx_c, pa.int64())
        mask = pa.array(~ok)
        for c in attach + [lo_col, hi_col]:
            col = btbl[c].take(take).combine_chunks()
            col = pa.compute.if_else(mask, pa.nulls(len(ok), col.type), col)
            batch = batch.append_column(c, col)
        return batch

    return ds.map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# partial/final aggregation (A1, A6)
# ---------------------------------------------------------------------------

def pre_aggregate(
    ds,
    keys: list[str],
    *,
    sums: dict[str, str] | None = None,    # out_name -> input col
    counts: str | None = None,             # out_name for count(*)
    mins: dict[str, str] | None = None,
    maxs: dict[str, str] | None = None,
    driver_final: bool = False,
):
    """Per-batch ARROW partials -> final merge. Returns a Dataset (or a
    pandas DataFrame when ``driver_final``). The partial runs zero-copy
    via pa.TableGroupBy (interleaved A/B r5: 3.9x the pandas groupby once
    the pandas path's to_pandas cost is counted); null-key groups are KEPT
    (SQL GROUP BY semantics — the old pandas partial dropped them).

    ``driver_final=True`` skips the groupby shuffle and finishes the merge
    with one pandas groupby on the collected partials — correct whenever
    the PARTIAL row count (≈ keys x batches) fits the driver, and much
    faster than a distributed sort for medium key cardinalities. Use the
    shuffle path when the key space itself is too big to collect."""
    sums = sums or {}
    mins = mins or {}
    maxs = maxs or {}

    def partial(batch: pa.Table) -> pa.Table:
        # project each output into its own (prefixed) column so repeated
        # inputs / out-name collisions with keys can't clash in the agg
        cols = {k: batch[k] for k in keys}
        aggs, rename = [], {}
        for fn, spec in (("sum", sums), ("min", mins), ("max", maxs)):
            for out, col in spec.items():
                tmp = f"__{out}"
                cols[tmp] = batch[col]
                aggs.append((tmp, fn))
                rename[f"{tmp}_{fn}"] = out
        if counts:
            aggs.append(([], "count_all"))
            rename["count_all"] = counts
        t = pa.TableGroupBy(pa.table(cols), keys).aggregate(aggs)
        return t.rename_columns([rename.get(n, n) for n in t.column_names])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    if driver_final:
        pdf = partials.to_pandas()
        # dropna=False: the Arrow partial keeps null-key groups (SQL
        # semantics) — the final must not silently drop them
        g = pdf.groupby(keys, sort=False, observed=True, dropna=False)
        agg_map = {}
        for out in sums:
            agg_map[out] = (out, "sum")
        if counts:
            agg_map[counts] = (counts, "sum")
        for out in mins:
            agg_map[out] = (out, "min")
        for out in maxs:
            agg_map[out] = (out, "max")
        return g.agg(**agg_map).reset_index()
    aggs = []
    for out in sums:
        aggs.append(Sum(out, alias_name=out))
    if counts:
        aggs.append(Sum(counts, alias_name=counts))
    for out in mins:
        aggs.append(Min(out, alias_name=out))
    for out in maxs:
        aggs.append(Max(out, alias_name=out))
    return partials.groupby(keys).aggregate(*aggs)


# ---------------------------------------------------------------------------
# the one key -> bucket hasher (every keyed exchange, sink partition and
# co-partitioned iteration derives its bucket ids here)
# ---------------------------------------------------------------------------

def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain mixing constants)."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _key_text(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """Canonical text of one key column: shortest-repr floats (as Python's
    ``str``), Arrow's string cast otherwise, ``"None"`` for null."""
    if pa.types.is_floating(col.type):
        return pa.chunked_array([col.to_numpy().astype(str)])  # null: "nan"
    return col.cast(pa.string()).fill_null("None")


def bucket_ids(tbl: pa.Table, cols: list[str], n_buckets: int) -> np.ndarray:
    """Value-deterministic int32 bucket ids of the key columns ``cols``.
    Reads only those columns, on Arrow — a pandas conversion would make a
    null-bearing int64 key float64 and bucket it differently from the
    same key in a null-free batch.

    - All-integer keys: the splitmix64 chain ``h = splitmix(h ^
      splitmix(k))`` over the columns from ``h = 0``, nulls as 0.
    - Any other key: blake2b-64 of the columns' texts (``_key_text``)
      concatenated without a separator, hashed once per distinct key.
      The pinned bucket ids fix this form. Keys whose texts concatenate
      alike, ("a", "bc") and ("ab", "c"), share a bucket, which is
      harmless: ``fn`` groups by the key columns themselves.

    NEVER ``pd.util.hash_pandas_object`` here: observed on this stack
    (pandas 2.2.2) hashing the IDENTICAL string to two different values in
    different map tasks of one run, which silently breaks any exchange
    keyed on it (duplicate keys land in different buckets). Python's
    builtin ``hash`` is salted and equally forbidden."""
    import pyarrow.compute as pc

    from ..index.docid import blake2b_rows

    key = [tbl[c] for c in cols]
    if all(pa.types.is_integer(k.type) or pa.types.is_null(k.type)
           for k in key):  # an all-null block may type an int key `null`
        h = np.zeros(tbl.num_rows, dtype=np.uint64)
        for k in key:
            v = k.cast(pa.int64(), safe=False).fill_null(0).to_numpy()
            h = _splitmix64(h ^ _splitmix64(v.view(np.uint64)))
        return (h % np.uint64(n_buckets)).astype(np.int32)
    text = [_key_text(k) for k in key]
    joined = (pc.binary_join_element_wise(*text, "") if len(text) > 1
              else text[0]).combine_chunks()
    dic = pc.dictionary_encode(joined)
    uh = blake2b_rows(dic.dictionary, 8)[:, 0]
    idx = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return (uh[idx] % np.uint64(n_buckets)).astype(np.int32)


# ---------------------------------------------------------------------------
# the exchange: group-integral repartitioning on raw Ray tasks (a
# deliberate drop below the Dataset API, see exchange() for the measured
# reason)
# ---------------------------------------------------------------------------


def arrow_refs(ds) -> list:
    """Execute ``ds`` ONCE and return its blocks as Arrow refs. A lazy
    ``Dataset.to_arrow_refs()`` fetches the schema after executing and,
    when the plan's schema is unknown (any ``map_batches``), re-runs part
    of the plan to get it (Ray 2.49: a counting UDF over 3 blocks ran 5
    times); a materialized dataset reads it from its block metadata."""
    if not isinstance(ds, MaterializedDataset):
        ds = ds.materialize()
    return ds.to_arrow_refs()


def _to_arrow(tbl) -> pa.Table:
    """Block to Arrow. Tolerates pandas blocks: to_arrow_refs can return
    them unconverted despite an upstream arrow-format normalization map."""
    if isinstance(tbl, pd.DataFrame):
        return pa.Table.from_pandas(tbl, preserve_index=False)
    return tbl


def _block_schema(*blocks) -> pa.Schema | None:
    """Schema of the first block that HAS columns — aggregates can emit
    0-row blocks with an empty schema, which must not win."""
    best = None
    for tbl in blocks:
        s = _to_arrow(tbl).schema
        if len(s.names):
            return s
        best = s
    return best


def _partition_chunk(col: str, pre, *blocks):
    """Partition a CHUNK of blocks by a bucket column. ``pre`` (optional,
    Arrow table -> Arrow table) is FUSED here — the per-side transform that
    used to be its own map_batches pass runs inside the partition task, so
    a join pays zero extra whole-data passes. One sort + run slicing per
    chunk (not one filter pass per distinct value); one ``ray.put`` per
    (task, bucket). Returns TWO values (``num_returns=2``): the small list
    of (bucket key, nbytes) pairs (the only thing the driver materializes
    — sizes drive reducer grouping) and the {value: ObjectRef} map, which
    stays in the object store for reducers to fetch themselves."""
    import pyarrow.compute as pc

    tables = []
    for tbl in blocks:
        tbl = _to_arrow(tbl)
        if tbl.num_rows == 0:
            # skip BEFORE pre: aggregates can emit 0-row blocks with an
            # EMPTY schema (map_batches never surfaces those to its fn)
            continue
        if pre is not None:
            tbl = pre(tbl)
        if tbl.num_rows:
            tables.append(tbl)
    if not tables:
        return [], {}
    # permissive: an upstream all-null block types its columns `null`
    # (e.g. from_pandas -> repartition with an all-NaN partition); promote
    # instead of failing the whole exchange on that block
    tbl = (pa.concat_tables(tables, promote_options="permissive")
           .combine_chunks() if len(tables) > 1 else tables[0])
    out: dict = {}
    keys: list = []
    order = pc.sort_indices(tbl[col])
    tbl = tbl.take(order)
    vals = tbl[col].to_numpy(zero_copy_only=False)
    bounds = np.concatenate([[0], np.flatnonzero(vals[1:] != vals[:-1]) + 1, [len(vals)]])
    for i in range(bounds.size - 1):
        s, e = int(bounds[i]), int(bounds[i + 1])
        v = vals[s]
        v = v.item() if hasattr(v, "item") else v
        sl = tbl.slice(s, e - s)
        out[v] = ray.put(sl)
        keys.append((v, sl.nbytes))
    return keys, out


def _reduce_group(fn, batch_format: str, drop_col: str | None, values: list,
                  dict_refs: list) -> pa.Table:
    """Reduce a GROUP of bucket values in one task. ``fn`` is applied to
    each value's complete row set SEPARATELY (identical semantics to one
    reducer per value — required for correctness of salted joins, where
    merging two salt-buckets would duplicate replicated build rows), then
    the per-value outputs are concatenated. Partition maps are fetched
    HERE (decentralized exchange metadata: the driver never ray.gets
    them); only this group's slices are pulled."""
    dicts = ray.get(list(dict_refs))
    outs = []
    for v in values:
        tables = ray.get([d[v] for d in dicts if v in d])
        # permissive for the same reason as _partition_block: one task's
        # slice of this bucket may carry null-typed all-null columns
        tbl = pa.concat_tables(tables,
                               promote_options="permissive").combine_chunks()
        if drop_col and drop_col in tbl.column_names:
            tbl = tbl.drop_columns([drop_col])
        batch = tbl.to_pandas() if batch_format == "pandas" else tbl
        out = fn(batch)
        if isinstance(out, pd.DataFrame):
            out = pa.Table.from_pandas(out, preserve_index=False)
        outs.append(out)
    if len(outs) == 1:
        return outs[0]
    try:
        return pa.concat_tables(outs, promote_options="permissive").combine_chunks()
    except (pa.ArrowInvalid, pa.ArrowTypeError, pa.ArrowNotImplementedError):
        # per-value pandas round trips can infer conflicting types for
        # all-null columns; align on the widest via pandas
        return pa.Table.from_pandas(
            pd.concat([t.to_pandas() for t in outs], ignore_index=True),
            preserve_index=False)


# remote-fn wrappers are cached at module level: re-wrapping per exchange
# re-exports the function to every worker on each call (measured ~0.5-1s
# per exchange at 32 workers)
_REMOTE: dict = {}


def _remote(name: str):
    if not _REMOTE:
        _REMOTE["part"] = ray.remote(num_returns=2)(_partition_chunk)
        _REMOTE["reduce"] = ray.remote(_reduce_group)
        _REMOTE["pin"] = ray.remote(_consolidate_bucket)
    return _REMOTE[name]


def _apply_empty(fn, batch_format: str, drop: str | None, empty: pa.Table):
    """Empty-input path: preserve fn's output schema by applying it to a
    typed empty table."""
    if drop and drop in empty.column_names:
        empty = empty.drop_columns([drop])
    out = fn(empty.to_pandas() if batch_format == "pandas" else empty)
    if isinstance(out, pd.DataFrame):
        out = pa.Table.from_pandas(out, preserve_index=False)
    return rd.from_arrow(out)


def _consolidate_bucket(v, drop_col: str | None, dict_refs):
    """Concat one bucket value's slices (ascending task order) into a
    single pinned Arrow table."""
    dicts = ray.get(list(dict_refs))
    tbl = pa.concat_tables(ray.get([d[v] for d in dicts if v in d]),
                           promote_options="permissive").combine_chunks()
    if drop_col and drop_col in tbl.column_names:
        tbl = tbl.drop_columns([drop_col])
    return tbl


def _run_local(local, batch_format: str, tbl: pa.Table,
               key_cols: list[str]) -> pa.Table:
    """Apply the in-batch pre-reduce in fn's batch format. A pandas round
    trip renders a null-bearing int key float64; the key columns are cast
    back to their input type so the key buckets the same in every batch."""
    if batch_format != "pandas":
        return local(tbl)
    out = pa.Table.from_pandas(local(tbl.to_pandas()), preserve_index=False)
    for c in key_cols:
        t = tbl.schema.field(c).type
        if (c in out.column_names and pa.types.is_integer(t)
                and pa.types.is_floating(out.schema.field(c).type)):
            out = out.set_column(out.schema.get_field_index(c), c,
                                 out[c].cast(t))
    return out


def _side_pre(pre, local, batch_format: str, keys, mod, n_buckets: int):
    """One side's partition-task transform: ``pre`` (Arrow), then
    ``local`` (fn's batch format), then the derived ``__bucket``."""
    if local is None and keys is None and mod is None:
        return pre
    key_cols = keys if keys is not None else [mod] if mod is not None else []

    def f(tbl: pa.Table) -> pa.Table:
        if pre is not None:
            tbl = pre(tbl)
        if local is not None:
            tbl = _run_local(local, batch_format, tbl, key_cols)
        if keys is not None:
            b = bucket_ids(tbl, keys, n_buckets)
        elif mod is not None:
            v = tbl[mod].fill_null(0).to_numpy().astype(np.int64)
            b = (v % n_buckets).astype(np.int32)
        else:
            return tbl
        return tbl.append_column("__bucket", pa.array(b))

    return f


def _partition(sides, col: str, cpus: int):
    """Submit the partition tasks of every side (~1 task per CPU, capped at
    16 blocks per task, so slice objects are per (task, bucket), not per
    (block, bucket)). Returns the partition-map refs and, from the tiny key
    lists (the only thing the driver ray.gets), {value: [task index]} in
    task (= block) order and {value: bytes}."""
    n_blocks = sum(len(refs) for refs, _ in sides)
    chunk = max(1, min(16, -(-n_blocks // cpus)))
    part = _remote("part")
    key_refs, dict_refs = [], []
    for refs, pre in sides:
        pre_ref = ray.put(pre) if pre is not None else None
        for i in range(0, len(refs), chunk):
            kr, dr = part.remote(col, pre_ref, *refs[i:i + chunk])
            key_refs.append(kr)
            dict_refs.append(dr)
    by_bucket: dict = {}
    sizes: dict = {}
    for ti, keys in enumerate(ray.get(key_refs)):
        for v, nb in keys:
            by_bucket.setdefault(v, []).append(ti)
            sizes[v] = sizes.get(v, 0) + nb
    return dict_refs, by_bucket, sizes


def exchange(src, fn=None, *, by: str | None = None,
             keys: list[str] | None = None, mod: str | None = None,
             n_buckets: int = 64, pre=None, local=None,
             batch_format: str = "pandas", empty: pa.Table | None = None):
    """Apply ``fn`` to ALL rows of each bucket, with GUARANTEED group
    integrity — the engine's one exchange entry point, an explicit
    object-store exchange built on raw Ray tasks.

    ``src`` is a Dataset, or a list of ``(block_refs, pre)`` sides (joins,
    multi-sided text and graph ops) whose rows meet in shared buckets.
    A side's ``pre`` (Arrow -> Arrow; ``pre=`` for a Dataset ``src``) runs
    FUSED inside the partition tasks: per-side alignment, tagging or a
    derived bucket column cost no standalone map_batches pass.

    Bucketing, exactly one of:

    - ``by=col``: one bucket per distinct value of an existing column (the
      build's dedup ``bucket`` and loser ``file`` exchanges, the sink's
      ``__bucket``, the joins' salted ``__jb``); ``fn`` sees the column;
    - ``keys=[cols]``: ``bucket_ids(tbl, keys, n_buckets)``;
    - ``mod=col``: integer column ``% n_buckets`` (nulls as 0).

    The ``__bucket`` column ``keys``/``mod`` derive is dropped before
    ``fn``. ``local`` is an in-batch pre-reduce (pre-dedup, partial
    aggregate) run in the partition tasks after ``pre`` and before
    bucketing, in ``fn``'s ``batch_format``: the exchange ships its
    output, not the batch.

    ``fn=None`` is the PINNED form: partition ONCE and return {bucket
    value: ObjectRef(Arrow table)} — per-bucket tables pinned in the
    object store for ITERATIVE algorithms (label propagation, PageRank)
    that would otherwise re-exchange static data every round. ``empty``
    is the typed table ``fn`` sees when no row reaches any bucket
    (default: the first input block's schema), so the output keeps fn's
    schema.

    Why not ``groupby(col).map_groups(fn)``: under this Ray build the
    sort-based shuffle can deliver one key's rows across more than one fn
    invocation (reproduced on this machine: a 25-row candidate dataset over
    64 bucket values intermittently yielded one bucket's rows as an 8-copy
    call plus a separate 1-row call, ~1-in-4 runs), which silently breaks
    dedup/join/window semantics. Aggregates (combiner trees) are immune —
    30/30 clean trials — so ``groupby().aggregate`` stays on the Dataset
    API; whole-group applies route through here instead.

    Mechanics: partition tasks split their rows by bucket value (rows stay
    in the object store, one ``ray.put`` per (task, bucket)); reduce tasks
    concatenate each value's slices in block order and apply ``fn`` to the
    complete group; the output is a Dataset over the reduce results.
    Co-location is by construction — the partition map IS the exchange.
    Driver footprint is O(tasks + buckets) ObjectRefs: each partition task
    returns (keys, map) with ``num_returns=2``; the driver ray.gets ONLY
    the tiny key lists to learn which tasks feed which bucket, and hands
    each reducer the map REFS — the O(blocks x buckets) slice refs live in
    the object store (pinned by containment in the map objects, which are
    pinned as reducer arguments) and are fetched by the reducers, never by
    the driver.

    Small buckets are GROUPED into shared reducer tasks (greedy by size,
    in sorted-value order; fn still runs per value — see _reduce_group).
    Every reducer deserializes every partition map it touches, i.e.
    O(tasks-hit x buckets-in-map) nested ObjectRefs, so for tiny inputs
    64 separate reducers would pay ~T x B borrower registrations each;
    grouping bounds reducer count by data volume instead."""
    if sum(x is not None for x in (by, keys, mod)) != 1:
        raise ValueError("exchange: pass exactly one of by=, keys=, mod=")
    sides = src if isinstance(src, list) else [(arrow_refs(src), pre)]
    sides = [(refs, _side_pre(p, local, batch_format, keys, mod, n_buckets))
             for refs, p in sides]
    col, drop = (by, None) if by is not None else ("__bucket", "__bucket")
    cpus = int(ray.cluster_resources().get("CPU", 8))
    dict_refs, by_bucket, sizes = _partition(sides, col, cpus)
    if fn is None:
        pin = _remote("pin")
        return {v: pin.remote(v, drop, [dict_refs[i] for i in sorted(set(idxs))])
                for v, idxs in by_bucket.items()}
    total_bytes = sum(sizes.values())
    min_group = min(64 << 20, max(1 << 20, total_bytes // (4 * cpus)))
    # greedy contiguous grouping over sorted values: big buckets get their
    # own reducer, tiny ones share; output row order (concat of groups in
    # sorted-value order) is identical to one-reducer-per-value
    groups: list = []  # (values, union task idxs in order)
    cur_vals: list = []
    cur_idxs: list = []
    cur_bytes = 0
    for v, idxs in sorted(by_bucket.items(), key=lambda kv: str(kv[0])):
        cur_vals.append(v)
        cur_idxs.append(idxs)
        cur_bytes += sizes[v]
        if cur_bytes >= min_group:
            groups.append((cur_vals, cur_idxs))
            cur_vals, cur_idxs, cur_bytes = [], [], 0
    if cur_vals:
        groups.append((cur_vals, cur_idxs))
    red = _remote("reduce")
    out_refs = []
    for vals, idx_lists in groups:
        # ASCENDING task-index union: _reduce_group walks this list per
        # value, so sorted order preserves the documented 'slices in block
        # order' contract even when values share a grouped reducer (a
        # first-occurrence union could interleave two values' task orders)
        seen = sorted({i for idxs in idx_lists for i in idxs})
        out_refs.append(red.remote(fn, batch_format, drop, vals,
                                   [dict_refs[i] for i in seen]))
    if not out_refs:
        if empty is None:
            first = next((refs[0] for refs, _ in sides if refs), None)
            empty = (_to_arrow(ray.get(first)).schema.empty_table()
                     if first is not None else pa.table({}))
        return _apply_empty(fn, batch_format, drop, empty)
    return rd.from_arrow_refs(out_refs)


# ---------------------------------------------------------------------------
# bucketed per-key ops (D3 dedup-first, O1 ordinals, windows)
# ---------------------------------------------------------------------------

def dedup_first(ds, key_cols: list[str], order_cols: list[str], n_buckets: int = 64):
    """Exact per-key first-wins dedup (D3): hash-bucket by key, sort+drop
    within bucket. The in-batch pre-dedup (shrinks the shuffle) and the
    bucket-id derivation both run fused inside the exchange's partition
    tasks — no standalone passes.

    Arrow-native local (interleaved A/B r5: 2.2x the pandas
    sort_values+drop_duplicates at 200k-row batches): stable sort_indices
    by ``order_cols`` then single-threaded hash 'first' per key — parity
    with the pandas mergesort semantics incl. null keys (one group) and
    null order values (sorted last). Batches with nested-typed payload
    columns fall back to the pandas local per batch ('first' hash agg
    doesn't cover them); the check is per batch so no schema probe ever
    executes the upstream plan."""
    import pyarrow.compute as _pc

    def local_a(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return tbl
        if any(pa.types.is_nested(f.type) for f in tbl.schema):
            df = tbl.to_pandas().sort_values(order_cols, kind="mergesort") \
                .drop_duplicates(key_cols, keep="first")
            return pa.Table.from_pandas(df, preserve_index=False)
        names = tbl.column_names
        s = tbl.take(_pc.sort_indices(
            tbl, sort_keys=[(c, "ascending") for c in order_cols]))
        gb = pa.TableGroupBy(s, key_cols, use_threads=False)
        # skip_nulls=False: 'first' must take the winning ROW's value even
        # when it is null — the default skip_nulls=True would stitch each
        # column's first NON-null value from different rows, synthesizing
        # rows that never existed
        opt = _pc.ScalarAggregateOptions(skip_nulls=False, min_count=0)
        out = gb.aggregate([(c, "first", opt)
                            for c in names if c not in key_cols])
        out = out.rename_columns(
            [c[:-6] if c.endswith("_first") else c for c in out.column_names])
        return out.select(names)

    return exchange(ds, local_a, keys=key_cols, n_buckets=n_buckets,
                    local=local_a, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# range-sliced id semi-join filter (broadcast-free isin)
# ---------------------------------------------------------------------------


def _chunk_minmax(tbl, col: str):
    tbl = _to_arrow(tbl)
    if tbl.num_rows == 0:
        return None
    a = tbl[col].to_numpy(zero_copy_only=False)
    return int(a[0]), int(a[-1])  # globally sorted -> first/last are min/max


class _RangedIdFilter:
    """map_batches callable: membership filter against a SORTED, CHUNKED id
    set living in the object store. Per batch, only the chunks overlapping
    the batch's [min, max] id range are fetched, ONE AT A TIME — per-task
    memory is O(one chunk), never O(id set), unlike a broadcast filter.
    When storage is id-clustered (sorted-ish files — the docstore and every
    at-rest layout here), a task touches only the ids of its own range."""

    def __init__(self, chunk_refs, lows, highs, id_col, keep):
        self.refs = chunk_refs
        self.lows = np.asarray(lows, np.int64)
        self.highs = np.asarray(highs, np.int64)
        self.id_col = id_col
        self.keep = keep

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        ids = batch[self.id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        lo, hi = int(ids.min()), int(ids.max())
        # chunks whose [low, high] intersects [lo, hi]
        first = int(np.searchsorted(self.highs, lo, side="left"))
        last = int(np.searchsorted(self.lows, hi, side="right"))
        hit = np.zeros(ids.size, dtype=bool)
        for ci in range(first, last):
            chunk = ray.get(self.refs[ci])[self.id_col] \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            hit |= sorted_member(ids, chunk)
        mask = hit if self.keep else ~hit
        return batch.filter(pa.array(mask))


def ranged_id_filter(ds, ids_ds, id_col: str, *, ids_col: str | None = None,
                     keep: bool = True, chunk_rows: int = 1 << 20,
                     concurrency=(1, 8)):
    """``ds`` rows whose ``id_col`` is (``keep=True``) / is not
    (``keep=False``) present in ``ids_ds`` — a broadcast-free hash/range
    semi-join filter. The id set is globally SORTED (one candidate-sized
    shuffle), re-chunked to ``chunk_rows``, and pinned in the object store;
    the big side streams map-side and fetches only overlapping chunks (see
    _RangedIdFilter). Replaces ``ray.put(all_ids)`` broadcasts, whose
    per-worker heap cost is O(ids) — this is O(chunk)."""
    ids_col = ids_col or id_col
    ids_sorted = ids_ds.sort(ids_col)
    chunked = ids_sorted.map_batches(
        lambda t: t.select([ids_col]).rename_columns([id_col]),
        batch_format="pyarrow", batch_size=chunk_rows)
    refs = arrow_refs(chunked)
    mm = ray.remote(_chunk_minmax)
    got = [x for x in ray.get([mm.remote(r, id_col) for r in refs])]
    pairs = [(refs[i], lo, hi) for i, x in enumerate(got) if x for lo, hi in [x]]
    if not pairs:
        if keep:
            return ds.map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")
        return ds
    # chunks are globally sorted and non-overlapping except possibly at
    # boundaries (equal ids split across blocks are fine: membership is
    # per-chunk OR). Sort by low for the searchsorted window math.
    pairs.sort(key=lambda p: (p[1], p[2]))
    kwargs = {"fn_constructor_kwargs": {
        "chunk_refs": [p[0] for p in pairs],
        "lows": [p[1] for p in pairs],
        "highs": [p[2] for p in pairs],
        "id_col": id_col, "keep": keep,
    }, "batch_format": "pyarrow", "concurrency": concurrency}
    return ds.map_batches(_RangedIdFilter, **kwargs)


# ---------------------------------------------------------------------------
# distributed top-k (O5)
# ---------------------------------------------------------------------------

def distributed_topk(ds, by: list[str], ascending: list[bool], k: int) -> pd.DataFrame:
    """Per-batch partial top-k, tiny driver-side final merge — no global sort."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(by, ascending=ascending, kind="mergesort").head(k)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if parts.empty and not set(by) <= set(parts.columns):
        # Dataset.to_pandas() drops COLUMNS (not just rows) when every
        # block is empty — rebuild the empty frame from the block schema
        parts = ds.schema().base_schema.empty_table().to_pandas()
    return (
        parts.sort_values(by, ascending=ascending, kind="mergesort").head(k).reset_index(drop=True)
    )


# ---------------------------------------------------------------------------
# Bloom-filter membership (compact-broadcast alternative to ranged_id_filter)
# ---------------------------------------------------------------------------


def _bloom_probes(ids: np.ndarray, n_hashes: int, seed: int,
                  bits: int) -> np.ndarray:
    """(n_hashes, len(ids)) bit positions: independent splitmix64 streams
    per probe (golden-ratio stride seeds, same public constants as the
    sampling family)."""
    h = ids.astype(np.int64).view(np.uint64)
    out = np.empty((n_hashes, len(ids)), np.uint64)
    for i in range(n_hashes):
        out[i] = _splitmix64(
            h ^ np.uint64((seed + i) * 0x9E3779B97F4A7C15 & (2 ** 64 - 1)))
    return (out % np.uint64(bits))


def _block_bitmap(tbl: pa.Table, id_col: str, bits: int, n_hashes: int,
                  seed: int) -> np.ndarray:
    arr = np.zeros(bits >> 3, np.uint8)
    ids = tbl[id_col].to_numpy(zero_copy_only=False)
    if len(ids):
        pos = _bloom_probes(ids, n_hashes, seed, bits).ravel()
        np.bitwise_or.at(arr, (pos >> np.uint64(3)).astype(np.int64),
                         np.left_shift(np.uint8(1),
                                       (pos & np.uint64(7)).astype(np.uint8)))
    return arr


def bloom_build(ids_ds, id_col: str, *, bits: int = 1 << 24,
                n_hashes: int = 4, seed: int = 0) -> np.ndarray:
    """Distributed Bloom-filter build over an int64 id column: one Ray
    task per BLOCK computes a local bitmap (bits/8 bytes), then bitmaps
    OR-reduce in a binary task tree — the driver receives exactly ONE
    bitmap no matter how many blocks, and no task ever sees the id set.
    Size ``bits`` ~16x the expected distinct ids for ~0.1% FP at 4
    hashes; the filter is an over-approximation by construction (no
    false negatives). ``bits`` must be a positive multiple of 8 (the
    bitmap is byte-packed)."""
    if bits <= 0 or bits % 8:
        raise ValueError(f"bits must be a positive multiple of 8, got {bits}")
    bm = ray.remote(_block_bitmap)
    refs = [bm.remote(r, id_col, bits, n_hashes, seed)
            for r in arrow_refs(ids_ds)]
    if not refs:
        return np.zeros(bits >> 3, np.uint8)
    orf = ray.remote(lambda a, b: np.bitwise_or(a, b))
    while len(refs) > 1:
        nxt = [orf.remote(refs[i], refs[i + 1])
               for i in range(0, len(refs) - 1, 2)]
        if len(refs) % 2:
            nxt.append(refs[-1])
        refs = nxt
    return ray.get(refs[0])


def bloom_semi_join(ds, ids_ds, id_col: str, *, ids_col: str | None = None,
                    bits: int = 1 << 24, n_hashes: int = 4, seed: int = 0):
    """EXACT semi-join via Bloom prefilter + exact verify: the bitmap
    (O(bits), id-set-size independent) broadcasts once and removes
    ~all non-members map-side; ranged_id_filter then verifies the
    survivors so Bloom false positives cannot leak into the result.
    The compact broadcast is the point at 100 TB: when the id set is
    billions of rows, shipping a fixed 2 MB bitmap to every task beats
    sorting/fetching id chunks for rows that mostly do not match —
    the verify stage only ever sees pre-passed rows."""
    if bits <= 0 or bits % 8:
        raise ValueError(f"bits must be a positive multiple of 8, got {bits}")
    ids_col = ids_col or id_col
    key_blocks = ids_ds.map_batches(
        lambda t: t.select([ids_col]).rename_columns([id_col]),
        batch_format="pyarrow")
    bitmap = bloom_build(key_blocks, id_col, bits=bits, n_hashes=n_hashes,
                         seed=seed)
    bref = ray.put(bitmap)

    def prefilter(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        bm = ray.get(bref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        pos = _bloom_probes(ids, n_hashes, seed, bits)
        hit = np.ones(len(ids), bool)
        for i in range(n_hashes):
            byte = (pos[i] >> np.uint64(3)).astype(np.int64)
            bit = (pos[i] & np.uint64(7)).astype(np.uint8)
            hit &= (bm[byte] >> bit) & 1 == 1
        return batch.filter(pa.array(hit))

    pre = ds.map_batches(prefilter, batch_format="pyarrow")
    return ranged_id_filter(pre, ids_ds, id_col, ids_col=ids_col, keep=True)


# ---------------------------------------------------------------------------
# arg-max dedup and grouped normalization
# ---------------------------------------------------------------------------

def best_per_key(ds, keys: list[str], *, value_col: str, tiebreak_col: str,
                 maximize: bool = True, n_buckets: int = 64):
    """Arg-max dedup: keep each key group's single BEST row (max/min
    ``value_col``, ties broken by min ``tiebreak_col``) with all its
    columns — the "keep the best version of each page" curation rule
    (vs dedup_first's keep-the-first).

    One keyed exchange; the per-batch local pre-reduce keeps one row per
    key per batch, so the exchange carries O(keys x batches) rows, never
    the dataset. Null keys form their own group (SQL GROUP BY semantics,
    same contract as dedup_first)."""
    asc = [True] * len(keys) + [not maximize, True]

    def best(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([*keys, value_col, tiebreak_col], ascending=asc,
                            kind="mergesort")
        return df.groupby(keys, sort=False, dropna=False).head(1)

    return exchange(ds, best, keys=keys, n_buckets=n_buckets, local=best)


def topk_per_key(ds, keys: list[str], *, value_col: str, tiebreak_col: str,
                 k: int, maximize: bool = True, out_rank: str = "rank",
                 n_buckets: int = 64):
    """Top-N rows per key group — SQL ``row_number() OVER (PARTITION BY
    keys ORDER BY value DESC, tiebreak) <= k`` — the N-generalization of
    best_per_key (N=1): "keep the k best pages per domain / per source"
    curation rule, with the 1-indexed in-group ``out_rank`` emitted.

    Same exchange shape as best_per_key: the per-batch local pre-reduce
    keeps k rows per key per batch, so the exchange carries
    O(k x keys x batches) rows, never the dataset. Deterministic total
    order requires (value, tiebreak) to be unique within a group — use a
    unique id as the tiebreak. Null keys form their own group (SQL GROUP
    BY semantics)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    asc = [True] * len(keys) + [not maximize, True]

    def local(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([*keys, value_col, tiebreak_col], ascending=asc,
                            kind="mergesort")
        return df.groupby(keys, sort=False, dropna=False).head(k)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = local(df).copy()
        df[out_rank] = (df.groupby(keys, sort=False, dropna=False).cumcount()
                        + 1).astype(np.int64)
        return df

    return exchange(ds, final, keys=keys, n_buckets=n_buckets, local=local)


def grouped_zscore(ds, keys: list[str], value_col: str, *,
                   out_col: str = "z", n_buckets: int = 64):
    """Per-group z-score normalization (population std): TWO passes, no
    group-sized shuffle — pass 1 is a tiny (n, sum, sum-of-squares)
    pre-aggregate per group; pass 2 maps the (mean, std) lookup back over
    the stream. The lookup is one row per group — broadcast-by-closure
    here; swap to ray.put + index_in for group cardinalities that dwarf a
    task heap. std == 0 groups emit z = 0 (matches the SQL oracle's CASE).
    Output fixed-point rounded to 6 dp."""
    import pyarrow.compute as pc

    def add_sq(batch: pa.Table) -> pa.Table:
        v = pc.cast(batch[value_col], pa.float64())
        return batch.append_column("__v2", pc.multiply(v, v)) \
                    .append_column("__v", v)

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({**{k: batch[k] for k in keys},
                      "__v": batch["__v"], "__v2": batch["__v2"]})
        g = pa.TableGroupBy(t, keys).aggregate(
            [("__v", "sum"), ("__v2", "sum"), ([], "count_all")])
        names = {"__v_sum": "s", "__v2_sum": "s2", "count_all": "n"}
        return g.rename_columns([names.get(c, c) for c in g.column_names])

    # keep the tiny stats table ARROW end to end: a pandas driver-final
    # frame would promote int64 keys to float64 when any null key is
    # present, rounding keys > 2^53 and merging distinct groups (the same
    # hazard guarded in bucket_ids / the join paths)
    parts = ds.map_batches(add_sq, batch_format="pyarrow") \
        .map_batches(partial, batch_format="pyarrow")
    merged = pa.concat_tables(
        list(parts.iter_batches(batch_format="pyarrow",
                                batch_size=None)))
    stats = pa.TableGroupBy(merged, keys).aggregate(
        [("s", "sum"), ("s2", "sum"), ("n", "sum")]).rename_columns(
        [*keys, "s", "s2", "n"])
    n = stats["n"].to_numpy(zero_copy_only=False).astype(np.float64)
    mean = stats["s"].to_numpy(zero_copy_only=False) / n
    var = np.maximum(stats["s2"].to_numpy(zero_copy_only=False) / n
                     - mean * mean, 0.0)
    std = np.sqrt(var)
    key_index = {t: i for i, t in enumerate(
        zip(*(stats[k].to_pylist() for k in keys)))}
    mean_arr, std_arr = mean, std
    single = keys[0] if len(keys) == 1 else None
    if single is not None:
        # vectorized row->group mapping for the common single-key case:
        # index_in against the non-null stats keys, with a trailing
        # position-map slot routing null keys to their own stats row
        # (index_in propagates null inputs as null, so null never
        # collides with a real value)
        skeys = [t[0] for t in key_index]
        null_pos = skeys.index(None) if None in skeys else 0
        nn = [(v, i) for i, v in enumerate(skeys) if v is not None]
        key_list = pa.array([v for v, _ in nn])
        pos_map = np.array([i for _, i in nn] + [null_pos], dtype=np.int64)

    def apply(batch: pa.Table) -> pa.Table:
        if single is not None:
            pos = pc.index_in(batch[single], key_list)
            filled = pc.fill_null(pos, len(nn)).to_numpy(
                zero_copy_only=False).astype(np.int64)
            idx = pos_map[filled]
        else:
            # multi-key fallback: to_pylist keeps ints exact and nulls as
            # None, matching the Arrow-built key_index
            cols = [batch[k].to_pylist() for k in keys]
            idx = np.fromiter((key_index[t] for t in zip(*cols)),
                              np.int64, batch.num_rows)
        v = pc.cast(batch[value_col], pa.float64()).to_numpy(
            zero_copy_only=False)
        m, s = mean_arr[idx], std_arr[idx]
        z = np.where(s == 0.0, 0.0, (v - m) / np.where(s == 0.0, 1.0, s))
        return batch.append_column(
            out_col, pa.array(np.floor(z * 1e6 + 0.5) / 1e6, pa.float64()))

    return ds.map_batches(apply, batch_format="pyarrow")


def interval_overlap_join(left, right, *, left_cols: tuple[str, str],
                          right_cols: tuple[str, str],
                          key_cols: list[str] | None = None,
                          n_ranges: int = 64, n_buckets: int = 64,
                          suffix: str = "_r"):
    """Interval x interval OVERLAP join (``a.start < b.end AND b.start <
    a.end``, half-open), optionally equi-keyed — the two-sided-range
    class that asof_join (point vs last-before) and range_band_join
    (point vs fixed bands) do not cover.

    Scale shape: the time axis is cut into ``n_ranges`` spans on sampled
    interval starts; each interval REPLICATES to every span it overlaps
    (bounded by interval length / span width), and a span-keyed exchange
    joins locally — but a pair is EMITTED only by the span containing
    ``max(a.start, b.start)`` (the owner-range rule), so no global
    dedup pass is needed. In-span matching is vectorized: rights sorted
    by start, per-left candidate window via searchsorted, emission
    through repeat/cumsum index arithmetic. Equi-keys ride inside the
    span groups (matched with a lexsort key, not a Python loop)."""
    import pyarrow.compute as pc

    ls, le = left_cols
    rs, re_ = right_cols
    key_cols = key_cols or []

    # axis cutpoints: sample starts from both sides (driver-tiny; pruned
    # to the start column so the sampling pass moves one int64 column)
    def sample(ds, col):
        def f(t: pa.Table) -> pa.Table:
            v = t[col].to_numpy(zero_copy_only=False).astype(np.int64)
            step = max(1, v.size // 64)
            return pa.table({"s": pa.array(np.sort(v)[::step], pa.int64())})
        return ds.select_columns([col]) \
            .map_batches(f, batch_format="pyarrow").to_pandas()["s"]

    allstarts = np.sort(np.concatenate([
        sample(left, ls).to_numpy(), sample(right, rs).to_numpy()]))
    if allstarts.size == 0:
        cuts = np.array([], np.int64)
    else:
        idx = np.linspace(0, allstarts.size - 1, n_ranges + 1)[1:-1]
        cuts = np.unique(allstarts[idx.astype(np.int64)])

    # both sides must reach the exchange with ONE schema: the union of
    # left columns and (suffixed-on-collision) right columns, absent side
    # filled with nulls
    def _arrow_schema(ds):
        sch = ds.schema().base_schema
        if not isinstance(sch, pa.Schema):   # pandas-block datasets
            ds = ds.map_batches(lambda t: t, batch_format="pyarrow")
            sch = ds.schema().base_schema
        return ds, sch

    left, l_schema = _arrow_schema(left)
    right, r_schema = _arrow_schema(right)
    l_names = [f.name for f in l_schema]
    r_rename = {c: (c + suffix if (c in l_names and c not in key_cols)
                    else c) for c in r_schema.names}
    l_types = {f.name: f.type for f in l_schema}
    r_types = {r_rename[f.name]: f.type for f in r_schema}
    all_cols = list(dict.fromkeys(
        [*l_names, *[r_rename[c] for c in r_schema.names]]))
    all_types = {**r_types, **l_types}
    rs2, re2 = r_rename[rs], r_rename[re_]

    def replicate(side: int, scol: str, ecol: str, rename: dict):
        def f(t: pa.Table) -> pa.Table:
            if key_cols:
                # SQL equi-join semantics: a NULL key matches nothing —
                # drop those rows map-side (they would also break the
                # in-span composite ordering, where factorize codes NaN
                # as -1 while the sort puts it last)
                for k in key_cols:
                    t = t.filter(pc.is_valid(t[k]))
            s = t[scol].to_numpy(zero_copy_only=False).astype(np.int64)
            e = t[ecol].to_numpy(zero_copy_only=False).astype(np.int64)
            if (s > e).any():
                raise ValueError(
                    "interval_overlap_join: interval start > end")
            lo = np.searchsorted(cuts, s, side="right")
            hi = np.searchsorted(cuts, e, side="left")  # half-open end
            # zero-width intervals whose start sits ON a cutpoint would
            # get hi < lo; they still match the documented predicate, so
            # pin them to their start's span
            reps = np.maximum(hi - lo + 1, 1)
            rid = np.repeat(np.arange(t.num_rows), reps)
            w = np.arange(int(reps.sum())) - np.repeat(
                np.cumsum(reps) - reps, reps)
            rng = lo[rid] + w
            rep = t.take(pa.array(rid, pa.int64()))
            cols = {}
            for c in all_cols:
                src = None
                for orig, new_name in rename.items():
                    if new_name == c:
                        src = orig
                        break
                if src is not None and src in t.column_names:
                    cols[c] = rep[src]
                else:
                    cols[c] = pa.nulls(len(rid), all_types[c])
            cols["__rng"] = pa.array(rng, pa.int64())
            cols["__side"] = pa.array(np.full(len(rid), side, np.int8))
            return pa.table(cols)
        return f

    l_keep = list(l_names)
    r_keep = [r_rename[c] for c in r_schema.names if c not in key_cols]
    out_schema = pa.schema([(c, all_types[c]) for c in (*l_keep, *r_keep)])

    def _key_codes(lf: pa.Table, rf: pa.Table):
        # joint factorization of the (null-free, map-side-filtered) key
        # tuples; key columns only — payload columns never touch pandas
        if len(key_cols) == 1:
            kl = pd.Index(lf[key_cols[0]].to_numpy(zero_copy_only=False))
            kr = pd.Index(rf[key_cols[0]].to_numpy(zero_copy_only=False))
        else:
            kl = pd.MultiIndex.from_arrays(
                [lf[k].to_numpy(zero_copy_only=False) for k in key_cols])
            kr = pd.MultiIndex.from_arrays(
                [rf[k].to_numpy(zero_copy_only=False) for k in key_cols])
        codes, uniq = pd.factorize(kr.append(kl), sort=True)
        return (codes[len(kr):].astype(np.int64),
                codes[:len(kr)].astype(np.int64), len(uniq))

    def join_span(tbl: pa.Table) -> pa.Table:
        # ARROW-NATIVE reduce: sides split and re-attached by take() so
        # the all-null absent-side columns never round-trip int64 payload
        # through a pandas float64 frame (the >2^53 hazard the join paths
        # guard against)
        empty = out_schema.empty_table()
        if tbl.num_rows == 0:
            return empty
        side = tbl["__side"].to_numpy(zero_copy_only=False)
        lmask = side == 0
        lf = tbl.filter(pa.array(lmask))
        rf = tbl.filter(pa.array(~lmask))
        if lf.num_rows == 0 or rf.num_rows == 0:
            return empty
        l_start = lf[ls].to_numpy(zero_copy_only=False).astype(np.int64)
        l_end = lf[le].to_numpy(zero_copy_only=False).astype(np.int64)
        r_start = rf[rs2].to_numpy(zero_copy_only=False).astype(np.int64)
        r_end = rf[re2].to_numpy(zero_copy_only=False).astype(np.int64)
        l_rng = lf["__rng"].to_numpy(zero_copy_only=False)
        r_rng = rf["__rng"].to_numpy(zero_copy_only=False)
        if key_cols:
            lc, rc, n_keys = _key_codes(lf, rf)
        else:
            lc = np.zeros(l_start.size, np.int64)
            rc = np.zeros(r_start.size, np.int64)
            n_keys = 1
        lo_order = np.lexsort((l_start, lc, l_rng))
        ro_order = np.lexsort((r_start, rc, r_rng))
        l_start, l_end = l_start[lo_order], l_end[lo_order]
        r_start, r_end = r_start[ro_order], r_end[ro_order]
        lc, rc = lc[lo_order], rc[ro_order]
        l_rng, r_rng = l_rng[lo_order], r_rng[ro_order]
        axis_min = min(int(min(r_start.min(), l_start.min())),
                       int(l_end.min())) - 1
        span = max(int(r_start.max()), int(l_end.max())) - axis_min + 2
        shift_bits = max(1, int(span - 1).bit_length())
        if (int(cuts.size) + 2) * (n_keys + 1) << shift_bits >= (1 << 62):
            raise ValueError(
                "interval_overlap_join: ranges x key cardinality x axis "
                "span exceeds the 62-bit composite ordering")
        SHIFT = np.int64(1) << np.int64(shift_bits)
        KSHIFT = np.int64(n_keys + 1)
        # one composite ordering over (rng, key, start) for BOTH windows:
        # rights are sorted by exactly this key, so each left's candidate
        # slice is [lo, hi)
        r_key = (r_rng * KSHIFT + rc) * SHIFT + (r_start - axis_min)
        base = (l_rng * KSHIFT + lc) * SHIFT
        lo = np.searchsorted(r_key, base)
        hi = np.searchsorted(r_key, base + (l_end - axis_min), side="left")
        counts = hi - lo
        m = counts > 0
        if not m.any():
            return empty
        lidx = np.repeat(np.flatnonzero(m), counts[m])
        w = np.arange(int(counts[m].sum())) - np.repeat(
            np.cumsum(counts[m]) - counts[m], counts[m])
        ridx = lo[lidx] + w
        keep = r_end[ridx] > l_start[lidx]
        # owner-range rule: emit only where max(starts) falls in this rng
        ms = np.maximum(l_start[lidx], r_start[ridx])
        keep &= np.searchsorted(cuts, ms, side="right") == l_rng[lidx]
        if not keep.any():
            return empty
        l_take = pa.array(lo_order[lidx[keep]], pa.int64())
        r_take = pa.array(ro_order[ridx[keep]], pa.int64())
        cols = {c: lf[c].take(l_take) for c in l_keep}
        for c in r_keep:
            cols[c] = rf[c].take(r_take)
        return pa.table(cols)

    id_map = {c: c for c in l_names}
    tagged = left.map_batches(replicate(0, ls, le, id_map),
                              batch_format="pyarrow") \
        .union(right.map_batches(replicate(1, rs, re_, r_rename),
                                 batch_format="pyarrow"))
    return exchange(tagged, join_span, keys=["__rng"], n_buckets=n_buckets,
                    batch_format="pyarrow")


# ---------------------------------------------------------------------------
# grouped co-occurrence (market-basket pair counting)
# ---------------------------------------------------------------------------


def _triangle_positions(starts: np.ndarray, counts: np.ndarray):
    """Exact-size upper-triangle enumeration over contiguous groups of a
    sorted array: returns (pos_i, pos_j) index arrays covering every
    within-group ordered pair (i < j) — never the n*n grid. Same offset
    algebra as the LSH candidate generator (ops/dedup.py
    band_bucket_pairs), lifted to positions so any payload dtype works."""
    sel = counts >= 2
    if not sel.any():
        e = np.empty(0, np.int64)
        return e, e
    s, n = starts[sel], counts[sel]
    rows = int(n.sum())
    gid_r = np.repeat(np.arange(n.size), n)
    i_r = np.arange(rows) - np.repeat(np.cumsum(n) - n, n)
    rcount = n[gid_r] - 1 - i_r
    total = int(rcount.sum())
    rid = np.repeat(np.arange(rows), rcount)
    w = np.arange(total) - np.repeat(np.cumsum(rcount) - rcount, rcount)
    base = s[gid_r[rid]]
    return base + i_r[rid], base + i_r[rid] + 1 + w


def key_cooccurrence(ds, group_col: str, item_col: str, *,
                     n_buckets: int = 32, dense_items_cap: int = 2048):
    """Market-basket pair counting: for every unordered pair of distinct
    items, the number of groups containing BOTH (item_a < item_b). The
    co-occurrence statistic behind 'users who did X also did Y' /
    same-document term association.

    Scale shape: map-side in-batch distinct cuts (group, item) pairs
    before they move; ONE group-hash exchange delivers each group's item
    set to one reducer. Pair counting per bucket is two-path:

    - item vocabulary <= 2048 in the bucket: DENSE GRAM MATMUL — C = sum
      of M_slab^T @ M_slab over 4096-group slabs of the (group x item)
      0/1 matrix; C[i, j] IS the exact pair count, no pair instance is
      ever materialized (the 20M-event probe spent 90s materializing
      180M triangle rows that this path replaces with ~8 small BLAS
      calls per bucket). Slab products are exact in float32 (<= 4096 <
      2^24) and accumulate exactly in float64 (< 2^53).
    - larger vocabularies: the exact-size vectorized triangle (no
      per-group Python loop, no n*n grid) — pair volume is sum(m_g^2)
      over group item-set sizes, bounded by the vocabulary.

    Per-bucket partial pair counts sum in a final small aggregate
    (groups are disjoint across buckets, so partials never
    double-count)."""
    import pyarrow as pa

    def distinct_pairs(batch: pa.Table) -> pa.Table:
        t = pa.table({group_col: batch[group_col],
                      item_col: batch[item_col]})
        return t.group_by([group_col, item_col]).aggregate([])

    pairs = ds.map_batches(distinct_pairs, batch_format="pyarrow")
    empty = pd.DataFrame({"item_a": pd.Series([], dtype=object),
                          "item_b": pd.Series([], dtype=object),
                          "n_groups": pd.Series([], dtype=np.int64)})

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # in-batch distinct is per-batch only — finish it here; null
        # groups/items can never satisfy a SQL equi-self-join, and
        # np.unique can't order None among strings — drop both
        df = df.dropna(subset=[group_col, item_col]) \
            .drop_duplicates([group_col, item_col])
        if df.empty:
            return empty
        df = df.sort_values([group_col, item_col], kind="mergesort")
        g = df[group_col].to_numpy()
        items = df[item_col].to_numpy()
        starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]]).astype(np.int64)
        counts = np.diff(np.r_[starts, g.size]).astype(np.int64)
        uniq = np.unique(items)
        if uniq.size <= dense_items_cap:
            n_items = int(uniq.size)
            codes = np.searchsorted(uniq, items)
            gid = np.repeat(np.arange(starts.size), counts)
            c_mat = np.zeros((n_items, n_items), np.float64)
            slab = 4096
            for s0 in range(0, starts.size, slab):
                s1 = min(s0 + slab, starts.size)
                r0 = starts[s0]
                r1 = starts[s1] if s1 < starts.size else g.size
                m = np.zeros((s1 - s0, n_items), np.float32)
                m[gid[r0:r1] - s0, codes[r0:r1]] = 1.0
                c_mat += (m.T @ m).astype(np.float64)
            iu, ju = np.triu_indices(n_items, 1)
            cnt = c_mat[iu, ju]
            nz = cnt > 0
            return pd.DataFrame({"item_a": uniq[iu[nz]],
                                 "item_b": uniq[ju[nz]],
                                 "n_groups": cnt[nz].astype(np.int64)})
        pi, pj = _triangle_positions(starts, counts)
        if pi.size == 0:
            return empty
        out = pd.DataFrame({"item_a": items[pi], "item_b": items[pj]})
        return (out.groupby(["item_a", "item_b"], sort=False)
                .size().reset_index(name="n_groups"))

    part = exchange(pairs, per_bucket, keys=[group_col], n_buckets=n_buckets)
    return pre_aggregate(part, ["item_a", "item_b"],
                         sums={"n_groups": "n_groups"}, driver_final=True)


def grouped_mode(ds, key_cols: list[str], val_col: str, *,
                 out_col: str | None = None,
                 count_col: str = "n_occurrences", n_buckets: int = 64):
    """Exact per-key MODE (most frequent value), deterministic tie-break:
    highest count first, then smallest value. Scale shape: map-side
    Arrow (key, value) partial counts shrink each batch to its distinct
    combinations, then ONE key-hash exchange co-locates a key's partials
    — the reducer sums per (key, value) and keeps one argmax row per key,
    so the exchange carries distinct combinations, never raw rows, and
    the driver sees only one row per key. Null keys/values are dropped
    (callers wanting SQL null groups filter upstream explicitly)."""
    out_col = out_col or val_col

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select(key_cols + [val_col]).drop_null()
        t = pa.TableGroupBy(t, key_cols + [val_col]).aggregate(
            [([], "count_all")])
        return t.rename_columns(
            ["__n" if c == "count_all" else c for c in t.column_names])

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        cols = key_cols + [out_col, count_col]
        if df.empty:
            return pd.DataFrame({c: [] for c in cols})
        tot = (df.groupby(key_cols + [val_col], sort=False)["__n"]
               .sum().reset_index())
        tot = tot.sort_values(key_cols + ["__n", val_col],
                              ascending=[True] * len(key_cols)
                              + [False, True], kind="mergesort")
        tot = tot.drop_duplicates(key_cols, keep="first")
        tot.columns = cols
        return tot

    return exchange(ds.map_batches(partial, batch_format="pyarrow"), pick,
                    keys=key_cols, n_buckets=n_buckets)
