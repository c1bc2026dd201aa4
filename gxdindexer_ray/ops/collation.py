"""Smart-alpha (numeric-aware) string collation — the reference's
SmartAlphaComparator semantic (org.jax.mgi.shr.fe.sort.SmartAlphaComparator,
used for image-meta ordering in GxdImagePaneIndexer.java:37,280-300):
strings split into alternating non-digit/digit runs; digit runs compare by
NUMERIC value, non-digit runs case-insensitively; the original string is
the final tie-break so the order is total and deterministic.

Re-expressed as a KEY function instead of a comparator (a comparator can't
drive a distributed sort): each digit run is encoded as a length-prefixed,
leading-zero-stripped digit string (lexicographic key order == numeric
order for digit runs of ANY length; numerically-equal runs like '007' and
'7' key EQUAL and fall to the original-string tie-break, matching the
comparator) and the rest lowercased. Key computation runs once per UNIQUE
value (dictionary encode) — the same vocabulary-sized-cost pattern as the
token hashers."""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_SPLIT = re.compile(r"(\d+)")
_MAX_RUN = 9999  # digits per run encodable in the 4-char length prefix


def smart_alpha_key_one(s: str) -> str:
    """Scalar reference path: the collation key of one string. Chunks are
    joined with '\\x01' (below every content char), so lexicographic order
    of keys equals CHUNK-TUPLE order — a plain concatenation would diverge
    when one alpha chunk is a strict prefix of another and the following
    characters compare across chunk types. NOT '\\x00': pandas' factorize
    (multi-column sort_values, groupby) hashes object strings as C strings
    and silently truncates at an embedded NUL, collapsing distinct keys."""
    parts = []
    for c in _SPLIT.split(s):
        if c == "":
            continue
        if c.isdigit():
            d = c.lstrip("0") or "0"
            if len(d) > _MAX_RUN:
                raise ValueError(
                    f"digit run of {len(d)} digits exceeds the smart-alpha "
                    f"key's {_MAX_RUN}-digit bound: {c[:32]}...")
            parts.append(f"{len(d):04d}{d}")
        else:
            parts.append(c.lower())
    return "\x01".join(parts)


def smart_alpha_keys(arr: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Vectorized-per-unique collation keys for a string array: dictionary
    encode, key the (small) dictionary in Python, scatter back by index."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if len(arr) == 0:
        return pa.array([], pa.string())
    dic = pc.dictionary_encode(arr)
    keys = [smart_alpha_key_one(s) if s is not None else None
            for s in dic.dictionary.to_pylist()]
    idx = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.array(np.asarray(keys, dtype=object)[idx], pa.string())


def smart_alpha_rank_in_group(ds, group_col: str, value_col: str,
                              rank_col: str = "rnk", n_buckets: int = 32):
    """Per-group smart-alpha ordering (the reference's per-image-pane
    metadata sort, GxdImagePaneIndexer.java:151-161): rows are bucketed by
    group key (whole-group integrity via the hash exchange), each group's
    values sorted by (smart-alpha key, original value) and ranked 1..n.
    Returns a Dataset of (group_col, rank_col, value_col). Key computation
    is fused into the exchange's partition tasks."""
    import pandas as pd

    from .relational import exchange

    def rank(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({group_col: pd.Series([], dtype=df[group_col].dtype),
                                 rank_col: pd.Series([], dtype=np.int64),
                                 value_col: pd.Series([], dtype=object)})
        key = smart_alpha_keys(pa.array(df[value_col].astype(object),
                                        pa.string())).to_numpy(zero_copy_only=False)
        out = df.assign(__key=key).sort_values(
            [group_col, "__key", value_col], kind="mergesort")
        out[rank_col] = out.groupby(group_col, sort=False).cumcount() + 1
        return out[[group_col, rank_col, value_col]]

    return exchange(ds, rank, keys=[group_col], n_buckets=n_buckets,
                    pre=lambda t: t.select([group_col, value_col]))
