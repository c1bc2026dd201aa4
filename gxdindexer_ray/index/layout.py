"""The on-disk layout of an index, read once into a point-in-time snapshot.

An index is a base plus zero or more appended generations::

    <root>/stats.json docs/ segments/      generation 0 (the base)
    <root>/generations.json                {"generations": ["gen-0001", ...]}
    <root>/gen-NNNN/stats.json docs/ segments/
    <root>/tombstones/del-NNNN.parquet     (doc_id, upto_gen) batches
    <root>/compacting.json                 present while compact_index runs

``open_index`` reads all of it into one frozen, picklable ``IndexState``
(the analog of Lucene's point-in-time ``DirectoryReader``): every reader,
serving path and lifecycle writer takes its file lists, dead sets and
corpus stats from one state, so one engine answers every query from one
snapshot. This module is the only code that reads or writes
``generations.json``, ``tombstones/``, ``compacting.json`` and generation
directory names.

Visibility: an append publishes its generation by the atomic rewrite of
``generations.json``, a delete by the rename of its tombstone batch, so a
state opened before either keeps serving what it saw. The one gap is
compaction, which rewrites the base docstore in place and removes the
generation directories: a state opened before ``compact_index`` may find
its files changed or gone, and must be reopened.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..state.manifest import atomic_write_json, read_json
from .docid import sorted_member

_GENERATIONS = "generations.json"
_TOMBSTONES = "tombstones"
_COMPACTING = "compacting.json"


@dataclass(frozen=True)
class Generation:
    """One generation; its place in ``IndexState.generations`` is its
    number (0 = the base, 1 = gen-0001, ...)."""

    dir: Path
    stats: dict               # its own stats.json
    docs: tuple[str, ...]     # docstore parquet files
    segments: tuple[str, ...]
    dead: np.ndarray          # sorted int64 doc_ids tombstoned in it

    def live(self, t: pa.Table) -> pa.Table:
        """``t`` (rows of this generation's docstore) without its
        tombstoned rows."""
        if not self.dead.size or not t.num_rows:
            return t
        hit = sorted_member(t["doc_id"].to_numpy(), self.dead)
        return t.filter(pa.array(~hit)) if hit.any() else t


@dataclass(frozen=True)
class IndexState:
    root: Path
    generations: tuple[Generation, ...]
    # corpus stats over every generation: N and total_dl sum, avgdl is
    # recomputed from the sums; the scoring constants (k1, b, block_size,
    # store_positions) are the base's, checked equal at append time
    stats: dict
    tombstones: tuple[str, ...]  # the batch files, for checkpoint keys

    @property
    def docs(self) -> list[str]:
        """Every generation's docstore files, base first."""
        return [f for g in self.generations for f in g.docs]


def _parquet_files(d: Path) -> tuple[str, ...]:
    return tuple(sorted(str(p) for p in d.glob("*.parquet")))


def _dead_by_gen(root: Path, n_gens: int) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """Tombstone batch files and, per generation, its sorted dead ids: an
    occurrence of ``doc_id`` in generation g is dead iff some tombstone
    has ``upto_gen >= g``, so a doc deleted and later re-appended stays
    visible through its new generation only."""
    files = _parquet_files(root / _TOMBSTONES)
    if not files:
        return files, [np.empty(0, np.int64)] * n_gens
    t = pa.concat_tables(pq.read_table(f, columns=["doc_id", "upto_gen"]) for f in files)
    ids = t["doc_id"].to_numpy().astype(np.int64)
    upto = t["upto_gen"].to_numpy().astype(np.int64)
    return files, [np.unique(ids[upto >= g]) for g in range(n_gens)]


def _scan(root: str | Path) -> IndexState:
    root = Path(root)
    stats = read_json(root / "stats.json")
    if not stats:
        raise FileNotFoundError(f"{root} is not a built index (no stats.json)")
    dirs = [root] + [root / g for g in (read_json(root / _GENERATIONS) or {}).get(
        "generations", [])]
    tombstones, dead = _dead_by_gen(root, len(dirs))
    gens = []
    for g, d in enumerate(dirs):
        gs = stats if g == 0 else read_json(d / "stats.json")
        if not gs:
            raise FileNotFoundError(f"generation {d} has no stats.json")
        gens.append(Generation(d, gs, _parquet_files(d / "docs"),
                               _parquet_files(d / "segments"), dead[g]))
    N = sum(int(g.stats["N"]) for g in gens)
    total_dl = sum(int(g.stats["total_dl"]) for g in gens)
    return IndexState(root, tuple(gens),
                      dict(stats, N=N, total_dl=total_dl,
                           avgdl=(total_dl / N) if N else 0.0),
                      tombstones)


def open_index(root: str | Path) -> IndexState:
    """The index at ``root`` as one snapshot. Refuses while a compaction
    is in flight (or crashed): between its docstore fold and the new
    segment seal the layout is readable but wrong, so ``compact_index``
    writes ``compacting.json`` first and removes it last, and a crash
    leaves it behind until compaction is re-run."""
    marker = Path(root) / _COMPACTING
    if marker.exists():
        raise RuntimeError(
            f"{root} has an in-progress (or crashed) compaction ({marker}); "
            "re-run compact_index to converge before reading")
    return _scan(root)


def as_state(index: str | Path | IndexState) -> IndexState:
    return index if isinstance(index, IndexState) else open_index(index)


def check_config(state: IndexState, cfg) -> None:
    """Scoring constants and positional postings must agree across
    generations: a mismatched delta would score against the wrong
    constants, and a non-positional one would silently downgrade phrase
    matching to docstore verification."""
    base = state.generations[0].stats
    for k in ("k1", "b", "block_size"):
        if getattr(cfg, k) != base[k]:
            raise ValueError(
                f"config {k}={getattr(cfg, k)} != base index {k}={base[k]}; "
                "scoring constants must match across generations")
    if bool(base["store_positions"]) != cfg.store_positions:
        raise ValueError(
            f"store_positions={cfg.store_positions} but the base index "
            f"{'has' if base['store_positions'] else 'lacks'} positional "
            "postings; generations must agree")


def next_generation_dir(state: IndexState) -> Path:
    return state.root / f"gen-{len(state.generations):04d}"


def publish_generation(state: IndexState, gen_dir: Path) -> None:
    """Make a built generation visible (one atomic rewrite)."""
    names = [g.dir.name for g in state.generations[1:]]
    atomic_write_json(state.root / _GENERATIONS, {"generations": names + [gen_dir.name]})


def write_tombstones(state: IndexState, ids: np.ndarray) -> dict:
    """One tombstone batch ``del-NNNN.parquet`` with ``upto_gen`` = the
    newest generation, so every existing occurrence of each doc goes dead
    while a later re-append creates a live one."""
    upto = len(state.generations) - 1
    tdir = state.root / _TOMBSTONES
    tdir.mkdir(exist_ok=True)
    seq = len(list(tdir.glob("del-*.parquet"))) + 1
    tmp = tdir / f".del-{seq:04d}.parquet.tmp"
    pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64()),
                             "upto_gen": pa.array(np.full(ids.size, upto, np.int64))}),
                   tmp)
    tmp.rename(tdir / f"del-{seq:04d}.parquet")
    return {"n_tombstoned": int(ids.size), "upto_gen": upto, "batch": seq}


def begin_compaction(root: str | Path, cfg) -> IndexState:
    """The state to fold, read past the marker of a crashed compaction so
    a re-run can finish it; writes ``compacting.json`` once ``cfg`` is
    checked."""
    state = _scan(root)
    check_config(state, cfg)
    atomic_write_json(state.root / _COMPACTING,
                      {"started_at": time.time(),
                       "generations": [g.dir.name for g in state.generations[1:]]})
    return state


def drop_tombstones(state: IndexState) -> None:
    """After the dead rows are gone from every docstore file."""
    shutil.rmtree(state.root / _TOMBSTONES, ignore_errors=True)


def fold_generations(state: IndexState) -> list[str]:
    """Move every generation's docstore files into the base ``docs/``
    (prefixed with the generation name, so names stay unique), then drop
    the generation list and directories; returns the base docstore files.
    Each step is idempotent and the moves come first, so a re-run after a
    crash anywhere converges. Every ``gen-*`` directory goes, including
    an unpublished one a crashed append left behind."""
    docs = state.root / "docs"
    for g in state.generations[1:]:
        for f in _parquet_files(g.dir / "docs"):
            Path(f).rename(docs / f"{g.dir.name}-{Path(f).name}")
    (state.root / _GENERATIONS).unlink(missing_ok=True)
    for d in state.root.glob("gen-*"):
        if d.is_dir():
            shutil.rmtree(d)
    return list(_parquet_files(docs))


def end_compaction(state: IndexState) -> None:
    (state.root / _COMPACTING).unlink(missing_ok=True)
