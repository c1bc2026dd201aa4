"""Spans recorded from the benchmark's own code, and the per-layer figures
derived from them.

Query path: while ``Tracer.patched()`` is active, the public functions a
query calls (reader fetch, brute and WAND scorers, posting decode, lexicon
load) are replaced by timing wrappers in their callers' module namespaces.
Build path: Ray runs the build in worker processes, so ``replay_build``
re-runs each build layer's public function in this process over the same
inputs the measured build used (raw pages -> extract; docstore -> tokenize
+ SPIMI; partials -> exchange write -> merge + encode).

A span is (id, name, start, end, parent, request). Spans stay in memory and
are written as JSON lines when the run ends. A layer's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace
from itertools import count
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.request: str | None = None
        self.enabled = True
        self._stack: list[dict] = []
        self._ids = count()
        # counters bumped by wrappers (the reader bumps row_groups from its
        # I/O threads; next() on itertools.count is atomic under the GIL)
        self.row_groups = count()
        self.blocks = count()

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        rec = {"id": next(self._ids), "name": name, "request": self.request,
               "parent": self._stack[-1]["id"] if self._stack else None, **attrs}
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    @contextmanager
    def patched(self):
        """Install the timing wrappers for the duration of the block."""
        import pyarrow.parquet as pq

        from gxdindexer_ray.index import reader
        from gxdindexer_ray.pipelines import search
        from gxdindexer_ray.query import brute, wand

        tr = self
        orig = {
            (reader.IndexReader, "fetch_terms"): reader.IndexReader.fetch_terms,
            (reader, "build_lexicon"): reader.build_lexicon,
            (search, "brute_force_topk"): search.brute_force_topk,
            (search, "block_max_wand_topk"): search.block_max_wand_topk,
            (brute, "decode_postings"): brute.decode_postings,
            (wand, "decode_block"): wand.decode_block,
            (pq.ParquetFile, "read_row_group"): pq.ParquetFile.read_row_group,
        }
        o = {k[1]: v for k, v in orig.items()}

        def fetch_terms(self_, terms):
            # the reader's LRU is keyed by term: a term already in it is a hit
            hits = sum(t in self_._cache for t in terms)
            rg0 = next(tr.row_groups)
            with tr.span("index.reader.fetch", terms=len(terms), hits=hits) as s:
                out = o["fetch_terms"](self_, terms)
            s["row_groups"] = next(tr.row_groups) - rg0 - 1
            s["rows"] = sum(len(v) for v in out.values())
            return out

        def build_lexicon(index_dir):
            with tr.span("index.reader.lexicon"):
                return o["build_lexicon"](index_dir)

        def brute_force_topk(term_rows, **kw):
            n = sum(int(r["n_postings"]) for rows in term_rows.values() for r in rows)
            with tr.span("query.brute", postings=n):
                return o["brute_force_topk"](term_rows, **kw)

        def block_max_wand_topk(term_rows, **kw):
            b0 = next(tr.blocks)
            with tr.span("query.wand") as s:
                out = o["block_max_wand_topk"](term_rows, **kw)
            s["blocks"] = next(tr.blocks) - b0 - 1
            return out

        def decode_postings(row, **kw):
            with tr.span("codecs.decode", postings=int(row["n_postings"])):
                return o["decode_postings"](row, **kw)

        def decode_block(row, block, **kw):
            next(tr.blocks)
            return o["decode_block"](row, block, **kw)

        def read_row_group(self_, *a, **kw):
            next(tr.row_groups)
            return o["read_row_group"](self_, *a, **kw)

        wrappers = {"fetch_terms": fetch_terms, "build_lexicon": build_lexicon,
                    "brute_force_topk": brute_force_topk,
                    "block_max_wand_topk": block_max_wand_topk,
                    "decode_postings": decode_postings, "decode_block": decode_block,
                    "read_row_group": read_row_group}
        for (owner, attr) in orig:
            setattr(owner, attr, wrappers[attr])
        try:
            yield
        finally:
            for (owner, attr), fn in orig.items():
                setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """span id -> duration minus the duration of its direct children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in out:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def query_layers(spans: list[dict], cls: str) -> dict[str, float]:
    """Per-query layer figures for the queries of one class."""
    selft = self_times(spans)
    by_parent: dict[int, list[dict]] = {}
    for s in spans:
        by_parent.setdefault(s["parent"], []).append(s)

    def subtree(root):
        todo = [root]
        while todo:
            s = todo.pop()
            yield s
            todo.extend(by_parent.get(s["id"], []))

    queries = [s for s in spans if s["name"] == "query" and s.get("cls") == cls]
    acc = dict.fromkeys(["wall", "other", "index.reader.fetch", "codecs.decode",
                         "query.brute"], 0.0)
    n = dict.fromkeys(["terms", "hits", "rows", "row_groups", "decoded", "scored"], 0)
    for q in queries:
        acc["wall"] += q["end"] - q["start"]
        acc["other"] += selft[q["id"]]
        for s in subtree(q):
            if s["name"] in acc:
                acc[s["name"]] += selft[s["id"]]
            if s["name"] == "index.reader.fetch":
                for k in ("terms", "hits", "rows", "row_groups"):
                    n[k] += s[k]
            elif s["name"] == "codecs.decode":
                n["decoded"] += s["postings"]
            elif s["name"] == "query.brute":
                n["scored"] += s["postings"]
    nq = max(1, len(queries))
    ms = 1000.0 / nq
    return {
        f"{cls}.index.reader.fetch_ms": acc["index.reader.fetch"] * ms,
        f"{cls}.index.reader.row_groups_read": n["row_groups"] / nq,
        f"{cls}.index.reader.cache_hit_ratio": n["hits"] / max(1, n["terms"]),
        f"{cls}.index.reader.rows_per_term": n["rows"] / max(1, n["terms"]),
        f"{cls}.codecs.decode_ms": acc["codecs.decode"] * ms,
        f"{cls}.codecs.decode_postings": n["decoded"] / nq,
        f"{cls}.query.brute_ms": acc["query.brute"] * ms,
        f"{cls}.query.postings_scored": n["scored"] / nq,
        f"{cls}.query.other_ms": acc["other"] * ms,
        f"{cls}.query.wall_ms": acc["wall"] * ms,
    }


def wand_layers(spans: list[dict]) -> dict[str, float]:
    """Figures of the queries forced to block-max WAND (class ``bmw``)."""
    ids = {s["id"]: s["end"] - s["start"] for s in spans
           if s["name"] == "query" and s.get("cls") == "bmw"}
    blocks = sum(s["blocks"] for s in spans if s["name"] == "query.wand" and s["parent"] in ids)
    n = max(1, len(ids))
    return {"query.wand.ms_per_query": 1000.0 * sum(ids.values()) / n,
            "query.wand.blocks_decoded": blocks / n}


def lexicon_seconds(spans: list[dict]) -> float:
    return statistics.median(s["end"] - s["start"] for s in spans
                             if s["name"] == "index.reader.lexicon")


def replay_build(tr: Tracer, pages_dir: Path, index_dir: Path, scratch: Path) -> dict:
    """Re-run the build layers over one build's inputs in this process.

    ``index_dir`` is the (snapshot of the) build's output: its docstore,
    stats, hot terms and segment manifest. Returns per-layer seconds
    (self time), counts and bytes."""
    import shutil

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from gxdindexer_ray.config import DEFAULT_CONFIG
    from gxdindexer_ray.index.docid import doc_id_column
    from gxdindexer_ray.index import merge, spimi
    from gxdindexer_ray.index.merge import merge_bucket_files
    from gxdindexer_ray.index.spimi import SpimiPartialBuilder
    from gxdindexer_ray.state.manifest import read_json
    from gxdindexer_ray.text.extract import extract_column

    shutil.rmtree(scratch, ignore_errors=True)
    stats = read_json(index_dir / "stats.json")
    hot = read_json(index_dir / "hot_terms.json")["hot_terms"]
    buckets = read_json(index_dir / "segments_manifest.json")["buckets"]
    cfg = replace(DEFAULT_CONFIG, n_buckets=read_json(
        index_dir / "_manifests" / "phase-segments.json")["n_buckets"])
    spans0 = len(tr.spans)
    orig_dtc, orig_enc = spimi.doc_term_counts, merge.encode_postings_bulk_arrow

    def doc_term_counts(text):
        with tr.span("text.tokenize") as s:
            out = orig_dtc(text)
        s["tokens"] = int(np.asarray(out[3]).sum())
        return out

    def encode(docs, *a, **kw):
        with tr.span("codecs.encode", postings=int(len(docs))):
            return orig_enc(docs, *a, **kw)

    spimi.doc_term_counts, merge.encode_postings_bulk_arrow = doc_term_counts, encode
    try:
        with tr.span("build.replay"):
            docs = pa.concat_tables(pq.read_table(f, columns=["doc_id", "text"])
                                    for f in sorted((index_dir / "docs").glob("*.parquet")))
            kept = docs["doc_id"].to_numpy(zero_copy_only=False)
            for f in sorted(pages_dir.glob("*.parquet")):
                t = pq.read_table(f, columns=["url", "html"])
                # an append drops pages of docs an earlier generation owns
                # before extracting them
                ids = doc_id_column(t["url"]).to_numpy(zero_copy_only=False)
                html = t["html"].filter(pa.array(np.isin(ids, kept)))
                for lo in range(0, len(html), cfg.batch_size):
                    batch = html.slice(lo, cfg.batch_size)
                    nbytes = int(pa.compute.sum(pa.compute.binary_length(batch)).as_py() or 0)
                    with tr.span("text.extract", docs=len(batch), html_bytes=nbytes):
                        extract_column(batch)
            builder = SpimiPartialBuilder(hot_terms_ref=hot, cfg=cfg)
            files: dict[int, list[str]] = {}
            postings: dict[int, int] = {}
            for i, lo in enumerate(range(0, docs.num_rows, cfg.spimi_batch_size)):
                with tr.span("index.spimi") as s:
                    part = builder(docs.slice(lo, cfg.spimi_batch_size))
                s["postings"] = int(pa.compute.sum(part["n_postings"]).as_py() or 0)
                with tr.span("exchange.write") as s:
                    bk = part["bucket"].to_numpy(zero_copy_only=False)
                    order = np.lexsort((part["rslot"].to_numpy(zero_copy_only=False), bk))
                    part, bk = part.take(pa.array(order)), bk[order]
                    cuts = np.flatnonzero(np.diff(bk)) + 1
                    nbytes = 0
                    for s0, e0 in zip(np.r_[0, cuts], np.r_[cuts, bk.size]):
                        b = int(bk[s0])
                        path = scratch / "partials" / f"bucket={b:05d}" / f"part-{i}.parquet"
                        path.parent.mkdir(parents=True, exist_ok=True)
                        sub = part.slice(int(s0), int(e0 - s0))
                        pq.write_table(sub, path, compression="lz4")
                        nbytes += path.stat().st_size
                        files.setdefault(b, []).append(str(path))
                        postings[b] = postings.get(b, 0) + int(
                            pa.compute.sum(sub["n_postings"]).as_py() or 0)
                    s["bytes"] = nbytes
            for b in sorted(files):
                with tr.span("index.merge") as s:
                    row = merge_bucket_files(files[b], str(scratch / "segments"),
                                             stats["avgdl"], cfg, total_postings=postings[b])
                s.update(bytes_in=row["bytes_in"], bytes_out=row["bytes_out"])
    finally:
        spimi.doc_term_counts, merge.encode_postings_bulk_arrow = orig_dtc, orig_enc
        shutil.rmtree(scratch, ignore_errors=True)

    spans = tr.spans[spans0:]
    selft = self_times(spans)

    def tot(name, key=None):
        return sum((s[key] if key else selft[s["id"]]) for s in spans if s["name"] == name)

    bytes_in = [b["bytes_in"] for b in buckets]
    layers = ["text.extract", "text.tokenize", "index.spimi", "exchange.write",
              "index.merge", "codecs.encode"]
    return {
        "text.extract.s": tot("text.extract"),
        "text.extract.docs": tot("text.extract", "docs"),
        "text.extract.html_bytes": tot("text.extract", "html_bytes"),
        "text.tokenize.s": tot("text.tokenize"),
        "text.tokenize.tokens": tot("text.tokenize", "tokens"),
        "index.spimi.s": tot("index.spimi"),
        "index.spimi.postings": tot("index.spimi", "postings"),
        "exchange.s": tot("exchange.write"),
        "exchange.bytes": tot("exchange.write", "bytes"),
        "index.merge.s": tot("index.merge"),
        "index.merge.bytes_in": tot("index.merge", "bytes_in"),
        "index.merge.bytes_out": tot("index.merge", "bytes_out"),
        "index.merge.bucket_skew": max(bytes_in) / statistics.median(bytes_in),
        "codecs.encode.s": tot("codecs.encode"),
        "codecs.encode.postings": tot("codecs.encode", "postings"),
        "layers_s": sum(tot(n) for n in layers),
    }
