"""Engine configuration.

All constants that affect on-disk artifacts are fixed here so that segment
bytes are a pure function of (input, config) — never of the parallelism
level. This is the determinism contract the reference got for free from
DB-precomputed ordinals (SURVEY.md §2.7 O1; GxdResultIndexer.java:860-891).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class IndexConfig:
    # --- BM25 scoring (Lucene-style, always-positive idf) ---
    k1: float = 0.9
    b: float = 0.4

    # --- posting layout ---
    block_size: int = 128          # postings per skip/block-max block
    n_buckets: int = 0             # segment files (groupby key space).
                                   # 0 (default) = auto: resolved once per
                                   # build by segment_layout() from the
                                   # post-dedup N (content, never cluster
                                   # size/parallelism, so the segment-bytes
                                   # invariance contract holds). One bucket
                                   # per 4,096 docs up to 32, then one per
                                   # 31,250 docs up to 4,096: a small
                                   # generation writes one file, and per-
                                   # bucket merge working sets stay ~constant
                                   # as the corpus grows (measured: 27%
                                   # faster 2M build vs fixed 32, BASELINE.md
                                   # §3). An explicit value pins the bucket
                                   # count and, through it, the shard count.

    # --- skew handling (SURVEY.md §7.3: salt hot terms) ---
    # A term is "hot" when its sampled document frequency exceeds
    # hot_df_ratio of sampled docs; its postings are then sharded by the top
    # bits of doc_id (doc-range sharding -> shards concatenate in shard
    # order with strictly ascending docIDs, no second merge pass).
    hot_df_ratio: float = 0.10
    shard_bits: int = 5            # cap: a hot term splits into
                                   # min(2**shard_bits, n_buckets) shards
                                   # (segment_layout), so a one-bucket
                                   # generation has no shards and no P2 scan
    hot_sample_target: int = 50_000  # deterministic hash-sample size for hot-term detection

    # --- positions (optional; enables index-resident phrase matching) ---
    store_positions: bool = False  # adds a per-posting position-gap stream
                                   # (~cf varints per segment); artifact-affecting

    # --- merge memory bound (artifact-affecting: sets the segment file
    # split; derived ONLY from content-invariant posting counts) ---
    merge_max_postings: int = 32_000_000   # decoded postings per merge slot
                                           # (~24 B each + sort temporaries)

    # --- execution knobs (do NOT affect artifact bytes) ---
    batch_size: int = 8192         # docs per extract batch; one docstore file
                                   # per batch, so this also sets docstore file
                                   # granularity (html can be wide — bytes
                                   # bound it: ~8k x 10 KB ≈ 80 MB per task)
    spimi_batch_size: int = 16384  # docs per SPIMI batch (text only; larger batches
                                   # -> fewer, bigger partials -> cheaper shuffle+merge.
                                   # Interleaved A/B at 2M docs/32 CPUs: 16384 beat 4096
                                   # by 20-40% on the segments phase — 3.5x fewer partial
                                   # files and ~15% less map CPU — with LOWER per-worker
                                   # peak heap, 436 vs 668 MB max, since the builder's
                                   # temporaries amortize over more docs)


DEFAULT_CONFIG = IndexConfig()


def segment_layout(n_docs: int, cfg: IndexConfig) -> tuple[int, int]:
    """(n_buckets, shard_bits) of a generation of ``n_docs`` post-dedup
    docs: a pure function of content and config, never of parallelism.

    Auto buckets (``cfg.n_buckets == 0``) double from 1 while a bucket
    would hold more than 4,096 docs, up to 32, then while it would hold
    more than 31,250, up to 4,096; so every N > 65,536 gets the layout of
    the former 32-bucket floor. An explicit ``cfg.n_buckets`` is kept as
    is, whatever ``n_docs``. A hot term splits into at most one doc-range
    shard per bucket: 2**shard_bits <= min(2**cfg.shard_bits, n_buckets)."""
    n = cfg.n_buckets
    if n == 0:
        n = 1
        while n < 32 and n_docs / n > 4096:
            n *= 2
        while n < 4096 and n_docs / n > 31_250:
            n *= 2
    return n, min(cfg.shard_bits, n.bit_length() - 1)
