"""Token-stream sequence packing — the GPT-style pretraining data layout
step: concatenate every document's token stream in a deterministic global
order (ascending ``id_col``) and cut the stream into fixed-length training
sequences, emitting the (sequence, document, span) manifest a loader needs
to assemble each sequence.

Scale shape (the reason this is not a ``ds.sort`` + driver loop): the
exact global token offset of every document is computed with the
global_rank machinery — range partitioning on exact order-statistic id
cutpoints + per-range token-sum prefix offsets — so

- the all-to-all a global sort would cost is replaced by the quantile
  log-passes (count matrices only) plus ONE skinny range-keyed exchange
  carrying ``(id, n_tokens)`` rows — document text never moves;
- the driver sees ``n_ranges`` numbers (per-range token sums), nothing
  row-sized;
- the output is a pure function of the data (rerun / cluster-size /
  batching invariant), so a failed shard replays identically.

Reference anchor: the ordinal-offset trick is the same cross-stratum
ordering arithmetic the reference uses to place RNA-Seq docs after
classical docs (GxdResultIndexer.java:1310-1319 ``maxSymbol +
byReference``) — here the stratum is an id range and the offset is its
token prefix sum.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .relational import exchange, pre_aggregate
from .sketches import exact_quantiles
from .textops import token_count

def pack_token_stream(ds, *, id_col: str = "doc_id", text_col: str = "text",
                      seq_len: int = 128, n_ranges: int = 32,
                      n_buckets: int = 32):
    """Pack the corpus token stream into ``seq_len``-token sequences.

    Documents are concatenated in ascending ``id_col`` order; sequence
    ``s`` covers global token positions ``[s*seq_len, (s+1)*seq_len)``. A
    document crossing a boundary is SPLIT across sequences (standard
    concat-and-chunk; no padding, no document loss). Zero-token documents
    contribute nothing and are absent from the output.

    Output: one row per (sequence, document) segment —
    ``(seq_id, doc_id, seq_off, n_tok)`` where ``seq_off`` is the
    segment's start position within the sequence and ``n_tok`` its
    length. Equivalent SQL: a cumsum window over token counts ordered by
    id + generate_series over the spanned sequence ids (the q109 oracle).

    Range cutpoints pass through float64 (exact_quantiles' value domain);
    equal ids always map to equal floats, so a >2^53 id space only merges
    adjacent ranges (coarser balance), never splits or misorders one —
    in-range ordering uses the original integer column."""
    if seq_len < 1:
        raise ValueError("seq_len must be >= 1")
    tok = token_count(ds, id_col=id_col, text_col=text_col)

    qs = [i / n_ranges for i in range(1, n_ranges)]
    cuts = np.unique(exact_quantiles(tok, id_col, qs)["value"].to_numpy())

    def add_range(t: pa.Table) -> pa.Table:
        v = t[id_col].to_numpy(zero_copy_only=False).astype(np.float64)
        r = np.searchsorted(cuts, v, side="left").astype(np.int64)
        return t.append_column("__range", pa.array(r, pa.int64()))

    ranged = tok.map_batches(add_range, batch_format="pyarrow")
    # driver sees n_ranges (range, token-sum) rows; prefix-sum -> the
    # global token offset at which each range's stream starts
    sums = pre_aggregate(ranged, ["__range"], sums={"s": "n_tokens"},
                         driver_final=True).sort_values("__range")
    offs = dict(zip(sums["__range"],
                    np.concatenate(([0], np.cumsum(sums["s"].to_numpy())[:-1]))))

    def pack_range(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype=np.int64)
                                 for c in ["seq_id", id_col, "seq_off", "n_tok"]})
        # a hash bucket may hold SEVERAL ranges: exclusive cumsum resets
        # per range, each range adds its own global offset
        df = df.sort_values(["__range", id_col], kind="mergesort")
        rng = df["__range"].to_numpy()
        n = df["n_tokens"].to_numpy().astype(np.int64)
        csum = np.cumsum(n)
        starts = np.flatnonzero(np.r_[True, rng[1:] != rng[:-1]])
        sizes = np.diff(np.r_[starts, rng.size])
        base = np.fromiter((offs[int(r)] for r in rng[starts]),
                           np.int64, starts.size)
        # exclusive prefix within range + range base = global token offset
        seg0 = np.r_[0, csum[:-1]] - np.repeat(csum[starts] - n[starts], sizes)
        off = seg0 + np.repeat(base, sizes)
        ids = df[id_col].to_numpy().astype(np.int64)
        keep = n > 0
        off, n_k, ids = off[keep], n[keep], ids[keep]
        first = off // seq_len
        cnt = (off + n_k - 1) // seq_len - first + 1
        rep = np.repeat(np.arange(ids.size), cnt)
        intra = np.arange(rep.size) - np.repeat(
            np.r_[0, np.cumsum(cnt)[:-1]], cnt)
        seq = first[rep] + intra
        lo = np.maximum(off[rep], seq * seq_len)
        hi = np.minimum(off[rep] + n_k[rep], (seq + 1) * seq_len)
        return pd.DataFrame({"seq_id": seq, id_col: ids[rep],
                             "seq_off": lo - seq * seq_len, "n_tok": hi - lo})

    return exchange(ranged, pack_range, keys=["__range"],
                    n_buckets=min(n_buckets, max(1, len(cuts) + 1)))
