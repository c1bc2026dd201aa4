"""Stream-shaped operators over the ordered ``events`` log (SURVEY.md §2.9:
the reference is pure batch, so windows are expressed batch-style: tumbling
windows are partial/final aggregates on a truncated-time key; sessionization
is a bucketed per-user sorted scan — the ordering assumption is explicit:
events are sorted (user_id, ts, event_id) *within each user bucket* before
gap detection)."""

from __future__ import annotations

import numpy as np
import pandas as pd

from .relational import exchange, pre_aggregate


def tumbling_window(ds, *, key: str = "event_type", ts_col: str = "ts",
                    value_col: str = "value", freq: str = "h"):
    """count + sum(value) per (key, window-start). Partial/final — one row
    per (key, hour) per batch crosses the shuffle."""

    import re

    import pyarrow as pa
    import pyarrow.compute as pc

    # accept pandas-style multiples ('15min', '2h') that the old
    # dt.floor(freq) path supported: leading integer -> floor_temporal's
    # ``multiple``, remainder -> its unit name
    m = re.fullmatch(r"(\d*)([a-zA-Z]+)", freq)
    if not m:
        raise ValueError(f"unparseable window freq {freq!r}")
    multiple = int(m.group(1) or 1)
    unit = {"h": "hour", "t": "minute", "min": "minute", "d": "day",
            "s": "second", "ms": "millisecond", "us": "microsecond",
            "ns": "nanosecond"}.get(m.group(2).lower(), m.group(2))

    def add_window(batch: pa.Table) -> pa.Table:
        return pa.table({key: batch[key], value_col: batch[value_col],
                         "window_start": pc.floor_temporal(
                             batch[ts_col], multiple=multiple, unit=unit)})

    ds = ds.map_batches(add_window, batch_format="pyarrow")
    return pre_aggregate(
        ds, [key, "window_start"], sums={"total_value": value_col}, counts="n"
    )


def hopping_window(ds, *, key: str = "event_type", ts_col: str = "ts",
                   value_col: str = "value", window_s: int = 3600,
                   hop_s: int = 1800):
    """Hopping (sliding) window: count + sum(value) per (key, window-start)
    where windows are ``window_s`` long and start every ``hop_s`` seconds,
    so each event lands in ``window_s / hop_s`` windows. Expansion is a
    vectorized in-batch tile (no flat_map, no per-row Python), then the
    same partial/final rollup as tumbling_window — the shuffle still
    carries one row per (key, window) per batch, NOT the duplicated
    events. ``window_start`` is emitted as epoch seconds (int64)."""
    if window_s % hop_s:
        raise ValueError("window_s must be a multiple of hop_s")
    reps = window_s // hop_s

    import pyarrow as pa

    _PER_SEC = {"s": 1, "ms": 1_000, "us": 1_000_000, "ns": 1_000_000_000}

    def expand(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        # floor to epoch seconds (divisor from the column's actual unit —
        # pandas-sourced batches arrive as ns, parquet ones as us) →
        # hop-aligned base window
        div = _PER_SEC[batch.schema.field(ts_col).type.unit]
        e = batch[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False) // div
        base = e // hop_s
        # every j in [0, reps) yields a window containing ts: start =
        # (base - j) * hop_s satisfies start <= ts < start + window_s
        starts = ((base[None, :] - np.arange(reps, dtype=np.int64)[:, None])
                  * hop_s).ravel()
        idx = pa.array(np.tile(np.arange(n, dtype=np.int64), reps))
        return pa.table({
            key: batch[key].take(idx),
            "window_start": pa.array(starts, pa.int64()),
            value_col: batch[value_col].take(idx),
        })

    ds = ds.map_batches(expand, batch_format="pyarrow")
    return pre_aggregate(
        ds, [key, "window_start"], sums={"total_value": value_col}, counts="n"
    )


def sessionize(ds, *, user_col: str = "user_id", ts_col: str = "ts",
               tiebreak_col: str = "event_id", gap_minutes: int = 30,
               n_buckets: int = 64):
    """Session count per user with a fixed inactivity gap. Bucket by user
    hash (derived inside the exchange's partition tasks — no standalone
    bucketing pass), vectorized within bucket (no per-user Python calls)."""
    gap = pd.Timedelta(minutes=gap_minutes)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([user_col, ts_col, tiebreak_col], kind="mergesort")
        new_user = df[user_col].ne(df[user_col].shift())
        gap_break = df[ts_col].diff() > gap
        new_session = (new_user | gap_break).astype(np.int64)
        out = new_session.groupby(df[user_col], sort=False).sum()
        return pd.DataFrame({user_col: out.index.to_numpy(), "n_sessions": out.to_numpy()})

    return exchange(ds, per_bucket, keys=[user_col], n_buckets=n_buckets)


def running_aggregate(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                      tiebreak_col: str = "event_id",
                      value_col: str = "value", n_buckets: int = 64,
                      lag_delta: bool = False):
    """Ordered per-key running window — the windowed-aggregate class Ray
    Data lacks natively, expressed as ONE key-hash exchange + a vectorized
    in-bucket sorted scan (no per-key Python): running_sum = SQL
    ``sum(value) OVER (PARTITION BY key ORDER BY ts, tiebreak)`` and, with
    ``lag_delta``, ``value - lag(value) OVER (...)`` (null on each key's
    first row). running_sum honors SQL's default RANGE frame: rows tied on
    (ts, tiebreak) are frame peers and all receive the tie-group total.
    lag/delta between tied rows follows the stable in-bucket sort order
    (SQL leaves it implementation-defined). Partitioning assumption: one
    key's rows fit a reducer (same contract as every keyed exchange
    here)."""

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key_col, ts_col, tiebreak_col], kind="mergesort")
        g = df.groupby(key_col, sort=False)[value_col]
        out = df[[key_col, tiebreak_col, value_col]].copy()
        # RANGE frame: broadcast each (key, ts, tiebreak) tie-group's last
        # cumsum so peers share the frame total (= SQL sum OVER ORDER BY)
        out["running_sum"] = g.cumsum().groupby(
            [df[key_col], df[ts_col], df[tiebreak_col]],
            sort=False, dropna=False).transform("last")
        if lag_delta:
            out["delta"] = df[value_col] - g.shift()
        return out

    return exchange(ds, per_bucket, keys=[key_col], n_buckets=n_buckets,
                    pre=lambda t: t.select([key_col, ts_col, tiebreak_col,
                                            value_col]))


def moving_aggregate(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                     tiebreak_col: str = "event_id",
                     value_col: str = "value", window_s: int = 3600,
                     n_buckets: int = 64):
    """Time-RANGE moving window per key — SQL ``sum/count/avg(value) OVER
    (PARTITION BY key ORDER BY ts RANGE BETWEEN INTERVAL window_s SECOND
    PRECEDING AND CURRENT ROW)`` — the value-framed sibling of
    running_aggregate's unbounded frame. RANGE semantics: every row whose
    ts lies in ``[r.ts - W, r.ts]`` is in row r's frame, INCLUDING
    same-ts peers sorted after r.

    One key-hash exchange + a fully vectorized in-bucket scan (no per-key
    Python): per-key segments get their timestamps shifted into disjoint
    integer ranges (seg_id * span + rel_ts with span > max_rel + W), so a
    single global searchsorted pair yields every row's frame bounds and a
    prefix-sum difference its frame total. Overflow guard: if n_segs *
    span would leave int64, fall back to a per-segment loop (never at
    realistic us-timestamps: span ~ key activity range + W).

    Output (key_col, tiebreak_col, moving_sum, moving_cnt, moving_avg),
    sum/avg fixed-point rounded to 2 dp (the q78 oracle protocol —
    prefix-difference vs the SQL window's direct sum differ only at
    float64 epsilon)."""
    W = np.int64(window_s) * 1_000_000

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key_col, ts_col, tiebreak_col],
                            kind="mergesort")
        n = len(df)
        if n == 0:
            return pd.DataFrame({key_col: [], tiebreak_col: [],
                                 "moving_sum": [], "moving_cnt": [],
                                 "moving_avg": []})
        ts = df[ts_col].to_numpy().astype("datetime64[us]").view(np.int64)
        keys = df[key_col].to_numpy()
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        sizes = np.diff(np.r_[starts, n])
        rel = ts - np.repeat(ts[starts], sizes)
        span = np.int64(int(rel.max()) + int(W) + 2)
        seg = np.repeat(np.arange(starts.size, dtype=np.int64), sizes)
        if int(starts.size) * int(span) < 2 ** 62:
            comp = seg * span + rel
            lo = np.searchsorted(comp, comp - W, side="left")
            hi = np.searchsorted(comp, comp, side="right")
        else:  # pragma: no cover - needs ~2^62/span segments
            lo = np.empty(n, np.int64)
            hi = np.empty(n, np.int64)
            for i, s in enumerate(starts):
                e = s + sizes[i]
                lo[s:e] = s + np.searchsorted(rel[s:e], rel[s:e] - W, "left")
                hi[s:e] = s + np.searchsorted(rel[s:e], rel[s:e], "right")
        v = df[value_col].to_numpy().astype(np.float64)
        pref = np.r_[0.0, np.cumsum(v)]
        msum = pref[hi] - pref[lo]
        cnt = hi - lo
        out = df[[key_col, tiebreak_col]].copy()
        sum_r = np.floor(msum * 100 + 0.5) / 100
        out["moving_sum"] = sum_r
        out["moving_cnt"] = cnt.astype(np.int64)
        # avg derives from the ROUNDED sum with the identical float chain
        # the SQL oracle uses: sum/cnt of a raw float sum lands exactly on
        # the .xx5 rounding boundary whenever cnt=2 and the sum has odd
        # hundredths, and sub-epsilon prefix-difference noise then flips
        # the 2-dp rounding; the rounded sum is bit-identical on both
        # sides, so the whole chain is
        out["moving_avg"] = np.floor(sum_r / cnt * 100 + 0.5) / 100
        return out

    return exchange(ds, per_bucket, keys=[key_col], n_buckets=n_buckets,
                    pre=lambda t: t.select([key_col, ts_col, tiebreak_col,
                                            value_col]))


def session_funnel(ds, *, user_col: str = "user_id", ts_col: str = "ts",
                   tiebreak_col: str = "event_id",
                   type_col: str = "event_type",
                   first: str = "view", then: str = "purchase",
                   gap_minutes: int = 30, n_buckets: int = 64):
    """Two-step session funnel — the ``steps=[first, then]`` special case
    of ``session_funnel_steps``: ``min(ts | first) < max(ts | then)`` is
    equivalent to greedy two-step existence (both demand a then-event
    strictly after the earliest first-event), so this is a named API over
    the N-step kernel rather than a third copy of the sessionize scan."""
    return session_funnel_steps(ds, user_col=user_col, ts_col=ts_col,
                                tiebreak_col=tiebreak_col,
                                type_col=type_col, steps=[first, then],
                                gap_minutes=gap_minutes,
                                n_buckets=n_buckets)


def session_funnel_steps(ds, *, user_col: str = "user_id",
                         ts_col: str = "ts",
                         tiebreak_col: str = "event_id",
                         type_col: str = "event_type",
                         steps: list[str] | None = None,
                         gap_minutes: int = 30, n_buckets: int = 64):
    """N-step ordered session funnel — the greedy-existence semantics
    (a session converts iff events of the step types occur at strictly
    increasing timestamps: t1 = first step-1 event, t2 = first step-2
    event after t1, ...). Greedy matching is exact for the EXISTENCE
    question, and each step is one vectorized masked groupby-min — no
    per-session Python. Output (user_col, n_sessions, n_converted)."""
    if steps is None:
        steps = ["view", "click", "purchase"]
    if not steps:
        raise ValueError("steps must be a non-empty list")
    gap = pd.Timedelta(minutes=gap_minutes)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([user_col, ts_col, tiebreak_col],
                            kind="mergesort")
        new_user = df[user_col].ne(df[user_col].shift())
        new_session = new_user | (df[ts_col].diff() > gap)
        sess = new_session.cumsum()
        ts = df[ts_col]
        t_prev = None
        for step in steps:
            mask = df[type_col].eq(step)
            if t_prev is not None:
                mask &= ts > t_prev
            t_prev = ts.where(mask).groupby(sess).transform("min")
        firsts = new_session.to_numpy()
        conv = t_prev.notna().groupby(sess).transform("max") \
            .to_numpy()[firsts]
        users = df[user_col].to_numpy()[firsts]
        out = pd.DataFrame({user_col: users,
                            "__c": conv.astype(np.int64)})
        g = out.groupby(user_col, sort=False)["__c"]
        sizes = g.size()
        return pd.DataFrame({user_col: sizes.index.to_numpy(),
                             "n_sessions": sizes.to_numpy(),
                             "n_converted": g.sum().to_numpy()})

    return exchange(ds, per_bucket, keys=[user_col], n_buckets=n_buckets)


def retention_cohorts(ds, *, user_col: str = "user_id", ts_col: str = "ts",
                      n_buckets: int = 32):
    """Cohort retention matrix over the events log: cohort = the Monday
    of each user's FIRST active week, one output row per (cohort_week,
    offset_weeks) with the count of users from that cohort active
    ``offset_weeks`` weeks later — the classic growth-analytics operator
    (SQL shape: distinct user-weeks -> min-week self-join -> grouped
    distinct count).

    Scale shape: the map side truncates ts to the week (Arrow
    ``floor_temporal``, Monday start like SQL ``date_trunc('week')``) and
    pre-distincts (user, week) pairs per batch, so the exchange carries at
    most one skinny row per user per active week — never raw events. One
    user-hash exchange groups each user's weeks on one reducer (cohort =
    min, offsets = distinct weeks, so each (user, offset) contributes
    exactly once); per-bucket partial (cohort, offset) counts sum in a
    final small aggregate because users are disjoint across buckets."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def user_weeks(batch: pa.Table) -> pa.Table:
        t = pa.table({user_col: batch[user_col],
                      "week": pc.floor_temporal(batch[ts_col], unit="week")})
        return t.group_by([user_col, "week"]).aggregate([])

    pairs = ds.map_batches(user_weeks, batch_format="pyarrow")

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # in-batch distinct is per-batch only: duplicates across batches
        # survive to the bucket — drop them here before counting
        df = df.drop_duplicates([user_col, "week"])
        cohort = df.groupby(user_col, sort=False)["week"].transform("min")
        off = ((df["week"] - cohort).dt.days // 7).astype(np.int64)
        out = pd.DataFrame({"cohort_week": cohort, "offset_weeks": off})
        return (out.groupby(["cohort_week", "offset_weeks"], sort=False)
                .size().reset_index(name="n_users"))

    part = exchange(pairs, per_bucket, keys=[user_col], n_buckets=n_buckets)
    return pre_aggregate(part, ["cohort_week", "offset_weeks"],
                         sums={"n_users": "n_users"}, driver_final=True)
