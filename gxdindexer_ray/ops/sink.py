"""Resumable partitioned-Parquet sink.

The index build already commits per-phase atomically (state/manifest.py);
this is the same discipline as a GENERIC operator for query/pipeline
outputs at 100 TB: rows hash-partition by key into one file per partition,
each partition commits atomically (data written to a tmp name, renamed,
then a manifest row renamed LAST — the manifest is the commit point), and
a re-run SKIPS finished partitions map-side, before any shuffle work is
spent on their rows. Never one giant output file; a failed run resumes
from the partitions that have no manifest.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from .relational import bucket_ids, exchange


def write_partitioned(ds, out_dir: str | Path, *, key_cols: list[str],
                      n_buckets: int = 64, resume: bool = True) -> pd.DataFrame:
    """Write ``ds`` as ``out_dir/part-{bucket:05d}.parquet``, partitioned
    by a value-deterministic hash of ``key_cols`` (splitmix64/blake2b —
    the same rows land in the same partition on every run and cluster
    size). Returns the manifest frame (bucket, rows, bytes, path).

    ``resume=True`` (default): partitions whose manifest exists are
    skipped — their rows are DROPPED in the partition tasks (map-side,
    before the exchange ships anything), so a resumed run pays only for
    unfinished partitions. Commit order per partition: parquet tmp ->
    rename; manifest tmp -> rename (manifest last = commit point), so a
    crash mid-write never leaves a manifest without its data file."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    done: set[int] = set()
    if resume:
        for mf in out.glob("part-*.json"):
            try:
                done.add(int(json.loads(mf.read_text())["bucket"]))
            except (ValueError, KeyError, json.JSONDecodeError):
                pass  # torn manifest = not committed

    done_arr = np.array(sorted(done), dtype=np.int32)
    out_str = str(out)

    def pre(tbl: pa.Table) -> pa.Table:
        bk = bucket_ids(tbl, key_cols, n_buckets)
        tbl = tbl.append_column("__bucket", pa.array(bk))
        if done_arr.size:
            keep = ~np.isin(bk, done_arr)
            tbl = tbl.filter(pa.array(keep))
        return tbl

    def write_bucket(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0 or "__bucket" not in tbl.column_names:
            # _apply_empty schema probe (full resume / empty input):
            # nothing to write, emit the typed empty manifest
            return pa.table({"bucket": pa.array([], pa.int32()),
                             "rows": pa.array([], pa.int64()),
                             "bytes": pa.array([], pa.int64()),
                             "path": pa.array([], pa.string())})
        b = int(tbl["__bucket"][0].as_py())
        tbl = tbl.drop_columns(["__bucket"])
        path = os.path.join(out_str, f"part-{b:05d}.parquet")
        tmp = path + ".tmp"
        pq.write_table(tbl, tmp)
        os.replace(tmp, path)
        man = {"bucket": b, "rows": tbl.num_rows,
               "bytes": os.path.getsize(path), "path": path}
        mtmp = os.path.join(out_str, f"part-{b:05d}.json.tmp")
        with open(mtmp, "w") as f:
            json.dump(man, f)
        os.replace(mtmp, os.path.join(out_str, f"part-{b:05d}.json"))
        return pa.table({"bucket": pa.array([b], pa.int32()),
                         "rows": pa.array([man["rows"]], pa.int64()),
                         "bytes": pa.array([man["bytes"]], pa.int64()),
                         "path": pa.array([path], pa.string())})

    written = exchange(ds, write_bucket, by="__bucket", pre=pre,
                       batch_format="pyarrow").to_pandas()
    # include previously-committed partitions in the returned manifest
    rows = [written] if len(written) else []
    for b in sorted(done):
        man = json.loads((out / f"part-{b:05d}.json").read_text())
        rows.append(pd.DataFrame([{"bucket": b, "rows": man["rows"],
                                   "bytes": man["bytes"], "path": man["path"]}]))
    if not rows:
        return pd.DataFrame(columns=["bucket", "rows", "bytes", "path"])
    return (pd.concat(rows, ignore_index=True)
            .astype({"bucket": np.int32, "rows": np.int64, "bytes": np.int64})
            .sort_values("bucket").reset_index(drop=True))
