"""The benchmark's workloads: rounds of one index lifecycle, weighted two ways.

Every round runs the same steps through the public entry points, so every
metric is measured on every workload:

1. ``build_index`` of the seeded corpus from raw pages into a fresh index;
2. per append: ``append_index`` a delta (fresh pages plus re-crawled base
   urls), reopen a ``SearchEngine``, run a burst of head and tail queries,
   then ``delete_docs`` some of the burst's hits (seen at the next reopen);
3. ``compact_index``, reopen, and one more burst.

``search`` runs three rounds with one append and bursts of 300 queries per
class. ``ingest`` runs two rounds with two appends and bursts of 120, so its
queries run on multi-generation indexes with tombstones, soon after a
reopen. The work per round is fixed: a faster program does the same work in
less time. Rounds spread each metric's samples over the whole run, so one
slow stretch of the host moves a median less than it would move a block of
consecutive samples. One client drives everything in a closed loop: each
operation starts when the previous one returned.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import corpus
import spans

CLASSES = ("head", "tail")
K = 10
PLAN_SECONDS = 45     # the plans below take about this long on one CPU
PLANS = {             # (rounds, appends per round, queries per class per burst)
    "search": (3, 1, 300),
    "ingest": (2, 2, 120),
}
DELETES = 20          # hits tombstoned after each append's burst
SAMPLE_EVERY = 25     # every 25th answer of a class is checked against the oracle
SETUP_REPEATS = 9
BMW_QUERIES = 20      # traced run: head queries forced to block-max WAND
OVERHEAD_QUERIES = 200  # traced run: queries timed both with and without tracing


class Run:
    def __init__(self, workload: str, seed: int, inputs: Path, work: Path,
                 seconds: float, tracer: spans.Tracer | None):
        from gxdindexer_ray.index.docid import doc_id_of

        self.workload, self.inputs, self.work = workload, inputs, work
        rounds, self.appends, self.burst_n = PLANS[workload]
        self.rounds = max(1, round(rounds * seconds / PLAN_SECONDS))
        self.tr = tracer or spans.Tracer()
        self.tr.enabled = tracer is not None
        meta = json.loads((inputs / "meta.json").read_text())
        self.queries = corpus.Queries(seed, corpus.zipf_vocabulary(seed), meta["tail_ranks"])
        self.protected = {doc_id_of(u) for u in meta["recrawl_urls"]}
        self.deltas = sorted((inputs / "deltas").iterdir())
        if self.rounds * self.appends > len(self.deltas):
            raise ValueError(f"--seconds {seconds} needs more than {len(self.deltas)} deltas")
        self.times: dict[str, list[float]] = defaultdict(list)
        self.lat: dict[str, list[float]] = {c: [] for c in CLASSES}
        self.hits = dict.fromkeys(CLASSES, 0)
        self.samples: list[tuple] = []  # (state, cls, query, method, answer)
        self.attempted = self.failed = 0
        self.engine = None
        # what the open engine serves: (round, deltas appended, deleted ids, compacted)
        self.state: tuple = ()
        self.builds: list[dict] = []
        self.delta_rows: list[int] = []
        self.compacted_n: list[int] = []
        self.extra: dict = {}

    # ---- timed operations ------------------------------------------------
    def _op(self, kind: str, fn, *args, **kw):
        self.attempted += 1
        self.tr.request = f"{kind}-{self.attempted}"
        t0 = time.perf_counter()
        try:
            with self.tr.span("op." + kind):
                out = fn(*args, **kw)
        except Exception:
            self.failed += 1
            raise
        self.times[kind].append(time.perf_counter() - t0)
        return out

    def reopen(self, index: Path, state: tuple) -> None:
        from gxdindexer_ray.pipelines import SearchEngine

        self.engine = None
        self.engine = self._op("reopen", SearchEngine, index)
        self.state = state

    def query(self, cls: str, method: str = "auto") -> list:
        q = self.queries.next(cls)
        self.attempted += 1
        self.tr.request = f"q-{self.attempted}"
        t0 = time.perf_counter()
        try:
            with self.tr.span("query", cls=cls if method == "auto" else method):
                res = self.engine.topk(q, K, method=method)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return []
        dt = time.perf_counter() - t0
        if method == "auto":
            self.lat[cls].append(dt)
            self.hits[cls] += bool(res)
        if method != "auto" or len(self.lat[cls]) % SAMPLE_EVERY == 1:
            self.samples.append((self.state, cls, q, method, res))
        return res

    def burst(self) -> list:
        """burst_n queries of each class, alternating; returns the head answers."""
        head = []
        n0 = len(self.lat["head"])
        for _ in range(self.burst_n):
            head.extend(self.query("head"))
            self.query("tail")
        self.extra.setdefault("burst_p50_ms", []).append(
            {c: 1000 * statistics.median(self.lat[c][n0:]) for c in CLASSES})
        return head

    # ---- the workload ----------------------------------------------------
    def setup(self) -> None:
        """Warm up once (the first Ray Data job of a session pays worker
        start-up), then time opening a ``SearchEngine`` on the warm-up index
        and answering one query, SETUP_REPEATS times."""
        from gxdindexer_ray.pipelines import SearchEngine, build_index

        warm = self.work / "warm"
        build_index(self.inputs / "setup", warm)
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            SearchEngine(warm).topk(self.queries.next("head"), K)
            self.times["setup"].append(time.perf_counter() - t0)
        shutil.rmtree(warm)
        self.extra["setup_s"] = self.times["setup"]

    def round(self, r: int) -> None:
        import pyarrow.parquet as pq

        from gxdindexer_ray.pipelines import (append_index, build_index, compact_index,
                                              delete_docs)

        live = self.work / f"round-{r}"
        self.builds.append(self._op("build", build_index, self.inputs / "pages", live))
        if r == 0:  # kept as built, for the lexicon check and the layer replay
            shutil.copytree(live, self.work / "build1")
        applied: tuple = ()
        deleted: frozenset = frozenset()
        for delta in self.deltas[r * self.appends:(r + 1) * self.appends]:
            self._op("append", append_index, delta, live)
            applied += (delta,)
            self.delta_rows.append(sum(pq.ParquetFile(f).metadata.num_rows
                                       for f in delta.glob("*.parquet")))
            if r == 0 and len(applied) == 1 and self.tr.enabled:
                # compaction folds the generation away; the replay needs it
                shutil.copytree(live / "gen-0001", self.work / "gen-0001")
            self.reopen(live, (r, applied, deleted, False))
            hits = [d for d, _ in self.burst() if d not in self.protected and d not in deleted]
            ids = list(dict.fromkeys(hits))[:DELETES]
            self._op("delete", delete_docs, live, ids)
            deleted |= frozenset(ids)
        self._op("compact", compact_index, live)
        self.compacted_n.append(json.loads((live / "stats.json").read_text())["N"])
        self.reopen(live, (r, applied, deleted, True))
        self.burst()

    def measure(self) -> None:
        t0 = time.perf_counter()
        for r in range(self.rounds):
            if r:
                shutil.rmtree(self.work / f"round-{r - 1}")
            self.round(r)
        self.extra["measured_s"] = time.perf_counter() - t0
        self.extra["op_s"] = {k: v for k, v in self.times.items() if k != "setup"}
        self.extra["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # ---- traced-run extras -----------------------------------------------
    def traced_extras(self) -> dict:
        """After the measured phase of a traced run: WAND-forced head
        queries, the tracing overhead, and the build-layer replays."""
        out: dict = {}
        with self.tr.patched():
            for _ in range(BMW_QUERIES):
                self.query("head", method="bmw")
        out.update(spans.wand_layers(self.tr.spans))
        # tracing overhead: each query runs with and without the wrappers,
        # the order alternating so that neither side always runs warm
        on = off = 0.0
        for i in range(OVERHEAD_QUERIES):
            q = self.queries.next(CLASSES[i % 2])
            for traced in ((False, True) if i % 4 < 2 else (True, False)):
                self.tr.enabled = traced
                t0 = time.perf_counter()
                if traced:
                    with self.tr.patched(), self.tr.span("query", cls="overhead"):
                        self.engine.topk(q, K)
                    on += time.perf_counter() - t0
                else:
                    self.engine.topk(q, K)
                    off += time.perf_counter() - t0
        self.tr.enabled = True
        out["trace.overhead_ratio"] = on / off
        b = spans.replay_build(self.tr, self.inputs / "pages", self.work / "build1",
                               self.work / "replay")
        out.update({k: v for k, v in b.items() if k != "layers_s"})
        out["build.orchestration_s"] = self.times["build"][0] - b["layers_s"]
        a = spans.replay_build(self.tr, self.deltas[0], self.work / "gen-0001",
                               self.work / "replay")
        out["append.orchestration_s"] = self.times["append"][0] - a["layers_s"]
        return out

    # ---- results -----------------------------------------------------------
    def end_to_end(self) -> dict[str, float]:
        b1 = self.builds[0]
        # the append rate takes the run's best sample: the host's slow
        # stretches only ever add time (bench.py's least-interference
        # estimator); over ten seeds that was steadier than the median for
        # appends, and less steady for builds and compactions
        m = {
            "setup_s": statistics.median(self.times["setup"]),
            "build_docs_per_s": statistics.median(
                b["N"] / t for b, t in zip(self.builds, self.times["build"])),
            "index_bytes_per_doc": b1["bytes_segments"] / b1["N"],
        }
        for cls in CLASSES:
            lat = self.lat[cls]
            m[f"{cls}_p50_ms"] = 1000 * statistics.median(lat)
            m[f"{cls}_p99_ms"] = 1000 * statistics.quantiles(lat, n=100)[98]
            m[f"{cls}_qps"] = len(lat) / sum(lat)
        m["append_docs_per_s"] = max(n / t for n, t in zip(self.delta_rows, self.times["append"]))
        # a mean: reopens after an append take longer than those after a
        # compaction, and a median would fall between the two
        m["reopen_ms"] = 1000 * statistics.mean(self.times["reopen"])
        m["compact_docs_per_s"] = statistics.median(
            n / t for n, t in zip(self.compacted_n, self.times["compact"]))
        m["peak_rss_mb"] = self.extra["peak_rss_mb"]
        return m

    def per_layer(self, extras: dict) -> dict[str, float]:
        trace = self.tr.spans
        m: dict[str, float] = {}
        for phase in ("docstore", "hotterms", "segments"):
            m[f"build.{phase}_s"] = statistics.median(b["phases"][phase] for b in self.builds)
        m.update(extras)
        m["index.reader.lexicon_s"] = spans.lexicon_seconds(trace)
        for cls in CLASSES:
            layers = spans.query_layers(trace, cls)
            wall = layers.pop(f"{cls}.query.wall_ms")
            m.update(layers)
            m[f"{cls}.query.accounted_share"] = 1 - layers[f"{cls}.query.other_ms"] / wall
        return m

    # ---- correctness -------------------------------------------------------
    def check(self, perturb: bool = False) -> list[str]:
        """Compare the run's outputs with the oracle after the measured
        phase; returns the mismatches."""
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        from gxdindexer_ray.index.docid import doc_id_of
        from gxdindexer_ray.index.reader import IndexReader
        from gxdindexer_ray.oracle.engine import OracleIndex

        bad: list[str] = [f"no {cls} query returned a hit" for cls in CLASSES
                          if not self.hits[cls]]
        b1 = self.builds[0]
        for i, b in enumerate(self.builds[1:], 2):
            for k in ("N", "n_postings", "bytes_segments"):
                if b[k] != b1[k]:
                    bad.append(f"build #{i} {k}={b[k]} differs from build #1 ({b1[k]})")

        def rows_of(dirs) -> list:
            rows = []
            for d in dirs:
                for f in sorted(d.glob("*.parquet")):
                    t = pq.read_table(f, columns=["url", "warc_ts", "html"])
                    rows.extend(zip(t["url"].to_pylist(),
                                    t["warc_ts"].cast(pa.int64()).to_pylist(),
                                    t["html"].to_pylist()))
            return rows

        def lexicon(index_dir: Path, oracle, what: str) -> None:
            r = IndexReader(index_dir, warm_top_terms=0)
            if r.N != oracle.N:
                bad.append(f"{what}: N={r.N}, oracle {oracle.N}")
            if r.term_stats() != oracle.term_stats():
                bad.append(f"{what}: (term, df, cf) lexicon differs from the oracle")

        base = rows_of([self.inputs / "pages"])
        lexicon(self.work / "build1", OracleIndex.build_from_rows(base), "build #1")
        if perturb and self.samples:
            state, cls, q, method, res = self.samples[-1]
            res = ([(res[0][0], float(np.nextafter(res[0][1], np.inf)))] + res[1:]
                   if res else [(0, 1.0)])
            self.samples[-1] = (state, cls, q, method, res)
        # the last round: its last state before compaction (generations and
        # tombstones in effect) and its compacted index, which also served
        # the WAND answers; one oracle each
        last = self.state
        before = max((s[0] for s in self.samples if s[0][0] == last[0] and not s[0][3]),
                     key=lambda st: len(st[1]))
        by_state: dict = defaultdict(list)
        for s in self.samples:
            if s[0] in (before, last):
                by_state[s[0]].append(s)
        for state, samples in by_state.items():
            r, applied, deleted, compacted = state
            rows = base + rows_of(applied)
            if compacted:
                rows = [row for row in rows if doc_id_of(row[0]) not in deleted]
            oracle = OracleIndex.build_from_rows(rows)
            if compacted:
                lexicon(self.work / f"round-{r}", oracle, "compacted index")
            for _, cls, q, method, got in samples:
                if compacted:
                    want = oracle.topk(q, K)
                else:  # tombstoned docs still count in N and df until compaction
                    want = [x for x in oracle.topk(q, oracle.N) if x[0] not in deleted][:K]
                if got != want:
                    bad.append(f"{cls}/{method} {q!r} after {len(applied)} appends "
                               f"(compacted={compacted}): got {got[:3]}, oracle {want[:3]}")
        self.extra["checked_answers"] = sum(len(v) for v in by_state.values())
        self.extra["checked_states"] = len(by_state)
        return bad
