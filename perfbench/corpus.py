"""Seeded benchmark inputs: a web-like pages corpus, ingest deltas and queries.

Every input is a pure function of the workload seed. The pages follow the
fixture rules of ``gxdindexer_ray.fixtures.pages`` (duplicate urls, null and
script-only html, a ~512 KB page, the hot term ``zerg`` in 2/3 of pages) but
draw their words from a Zipf vocabulary of 100k words instead of the
fixture's 5,000, so rare-term queries miss the reader's term cache.

Prepared inputs are cached under ``perfbench/.cache/<key>/``. The key hashes
the seed, the sizes below, this file and every ``gxdindexer_ray`` source, so
one checkout never serves another checkout's inputs. Run as a script, this
module prepares one cache entry; the benchmark runs it in a child process so
that generating inputs never inflates the benchmark's own peak RSS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
CACHE = HERE / ".cache"
CACHE_ENTRIES = 8  # oldest entries beyond this are removed

VOCAB_SIZE = 100_000
CORPUS_PAGES = 4_000     # base corpus: what every workload bulk-builds
SETUP_PAGES = 200        # warm-up slice built during set-up
DELTA_PAGES = 400        # fresh pages per ingest append
RECRAWL_PAGES = 40       # re-crawled base urls per append (later warc_ts)
N_DELTAS = 12            # ingest uses 6 at --seconds 25
HEAD_RANKS = 50          # head queries: Zipf ranks [0, 50) plus the hot term
TAIL_FIRST_RANK = 1_000  # tail queries: ranks [1k, 100k) present in the corpus
HOT_TERM = "zerg"


def zipf_vocabulary(seed: int) -> list[str]:
    """VOCAB_SIZE distinct lowercase words; list position is the Zipf rank."""
    rng = np.random.default_rng([seed, 0x766F63])
    letters = rng.integers(ord("a"), ord("z") + 1, size=(2 * VOCAB_SIZE, 9), dtype=np.uint8)
    lengths = rng.integers(3, 10, size=2 * VOCAB_SIZE)
    words: list[str] = []
    seen = {HOT_TERM}
    for row, n in zip(letters, lengths):
        w = row[:n].tobytes().decode("ascii")
        if w not in seen:
            seen.add(w)
            words.append(w)
            if len(words) == VOCAB_SIZE:
                return words
    raise RuntimeError("vocabulary generation ran out of candidates")


def source_hash() -> str:
    h = hashlib.sha256()
    files = sorted((REPO / "gxdindexer_ray").rglob("*.py")) + [Path(__file__).resolve()]
    for f in files:
        h.update(str(f.relative_to(REPO)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def cache_dir(seed: int) -> Path:
    key = json.dumps([seed, VOCAB_SIZE, CORPUS_PAGES, SETUP_PAGES, DELTA_PAGES,
                      RECRAWL_PAGES, N_DELTAS, source_hash()])
    return CACHE / f"s{seed}-{hashlib.sha256(key.encode()).hexdigest()[:16]}"


def _write(tbl, d: Path) -> None:
    import pyarrow.parquet as pq

    d.mkdir(parents=True)
    pq.write_table(tbl, d / "part-00000.parquet", compression="zstd")


def _prepare(out: Path, seed: int) -> None:
    import pyarrow as pa
    import pyarrow.compute as pc

    from gxdindexer_ray.fixtures.pages import _gen_chunk, _zipf_probs

    vocab = zipf_vocabulary(seed)
    probs = _zipf_probs(len(vocab))
    base = _gen_chunk(0, CORPUS_PAGES, seed, vocab, probs)
    _write(base, out / "pages")
    _write(base.slice(0, SETUP_PAGES), out / "setup")

    # ranks >= TAIL_FIRST_RANK that occur in the base corpus: tail queries
    # draw from these, so every tail query matches at least one page
    tokens = pc.list_flatten(pc.split_pattern_regex(
        pc.utf8_lower(base["text"].combine_chunks()), pattern="[^a-z0-9]+"))
    present = set(pc.unique(tokens).to_pylist())
    tail_ranks = [r for r in range(TAIL_FIRST_RANK, VOCAB_SIZE) if vocab[r] in present]

    rng = np.random.default_rng([seed, 0x726563])
    base_urls = pc.unique(base["url"]).to_pylist()
    picks = rng.choice(len(base_urls), size=N_DELTAS * RECRAWL_PAGES, replace=False)
    recrawl_urls = [base_urls[int(i)] for i in picks]
    fresh_end = CORPUS_PAGES + N_DELTAS * DELTA_PAGES
    for d in range(N_DELTAS):
        lo = CORPUS_PAGES + d * DELTA_PAGES
        fresh = _gen_chunk(lo, lo + DELTA_PAGES, seed, vocab, probs)
        # re-crawled pages: new html and a later warc_ts under a base url
        rlo = fresh_end + d * RECRAWL_PAGES
        again = _gen_chunk(rlo, rlo + RECRAWL_PAGES, seed, vocab, probs)
        urls = recrawl_urls[d * RECRAWL_PAGES:(d + 1) * RECRAWL_PAGES]
        urls = (urls * 2)[:again.num_rows]  # a fixture duplicate row may add one
        again = again.set_column(0, again.schema.field("url"), pa.array(urls, pa.string()))
        _write(pa.concat_tables([fresh, again]), out / "deltas" / f"d{d:02d}")
    (out / "meta.json").write_text(json.dumps(
        {"seed": seed, "tail_ranks": tail_ranks, "recrawl_urls": recrawl_urls}))


def prepare(seed: int) -> Path:
    """Return the cache entry for ``seed``, generating it if missing."""
    out = cache_dir(seed)
    if (out / "meta.json").exists():
        out.touch()
        return out
    tmp = out.with_name(out.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    _prepare(tmp, seed)
    tmp.rename(out)
    entries = sorted(CACHE.iterdir(), key=lambda p: p.stat().st_mtime)
    for old in entries[:-CACHE_ENTRIES]:  # a left-over .tmp is oldest too
        shutil.rmtree(old, ignore_errors=True)
    return out


class Queries:
    """Endless seeded query streams. ``head``: 1-4 of the top-50 words plus
    the hot term (long posting lists that stay in the reader's cache).
    ``tail``: 1-4 words drawn uniformly from ranks >= 1k that occur in the
    corpus (short lists, a working set far beyond the cache)."""

    def __init__(self, seed: int, vocab: list[str], tail_ranks: list[int]):
        self.rng = np.random.default_rng([seed, 0x717279])
        self.vocab = vocab
        self.tail_ranks = np.asarray(tail_ranks)

    def next(self, cls: str) -> str:
        n = int(self.rng.integers(1, 5))
        if cls == "head":
            ranks = self.rng.integers(0, HEAD_RANKS, size=n)
            return " ".join([self.vocab[int(r)] for r in ranks] + [HOT_TERM])
        ranks = self.tail_ranks[self.rng.integers(0, self.tail_ranks.size, size=n)]
        return " ".join(self.vocab[int(r)] for r in ranks)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="prepare the seeded benchmark inputs")
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(REPO))
    print(prepare(args.seed))
