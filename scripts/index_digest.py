"""Print a sha256 digest of an index's derived artifacts.

Usage: python scripts/index_digest.py [--values | --rows] INDEX_DIR

One line per file, ``<sha256>  <path relative to INDEX_DIR>``, for the
segment files and their postings blobs (``segments/*.parquet``,
``segments/*.post``), ``stats.json`` and ``hot_terms.json`` of the base
index and of every ``gen-*`` generation. Two builds of the same input
give the same lines exactly when their artifacts are byte-identical, so
``diff`` of two digests is the check for a change that must not move any
byte.

``--values`` hashes each segment file's logical rows instead of its
bytes: the Parquet columns but ``min_doc`` and ``max_doc`` (no longer
written), then the three payloads of each row, joined from its postings
blob or read from the payload columns of a file written before the blob
(schema, then every column's values in row order). The same lines then
mean the same segment values whatever the compression, encodings,
statistics, row-group sizes or blob layout, the check for a change that
only re-encodes segments; it compares an index written before the blob
with one written after. One line per segment file; ``stats.json`` and
``hot_terms.json`` are still hashed as bytes.

``--rows`` hashes each segment file's logical rows as a sorted multiset
(schema, then the sorted hashes of the rows' values): the same lines then
mean the same rows in every file whatever their order and row groups, the
check for a change that only reorders segment rows.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

PAYLOADS = ["docs_payload", "tfs_payload", "dls_payload"]


def _logical_rows(f: Path):
    """A segment file's rows: its columns but min_doc and max_doc, then the
    three payloads, from its blob or from its own columns."""
    import pyarrow.parquet as pq

    from gxdindexer_ray.index import postfile

    names = pq.read_schema(f).names
    t = pq.read_table(f) if "docs_payload" in names else postfile.segment_table(f)
    rest = [c for c in t.column_names if c not in PAYLOADS + ["min_doc", "max_doc"]]
    return t.select(rest + PAYLOADS)


def _segment_hash(f: Path, rows: bool) -> str:
    t = _logical_rows(f)
    h = hashlib.sha256(str(t.schema.remove_metadata()).encode())
    if rows:
        for r in sorted(hashlib.sha256(repr(r).encode()).digest() for r in t.to_pylist()):
            h.update(r)
    else:
        for c in t.columns:
            h.update(repr(c.to_pylist()).encode())
    return h.hexdigest()


def digest(index_dir: Path, mode: str | None = None) -> list[str]:
    lines = []
    for d in [index_dir] + sorted(index_dir.glob("gen-*")):
        seg = d / "segments"
        files = sorted(seg.glob("*.parquet")) if mode else sorted(
            [*seg.glob("*.parquet"), *seg.glob("*.post")])
        files += [f for f in (d / "stats.json", d / "hot_terms.json") if f.exists()]
        for f in files:
            if mode and f.suffix == ".parquet":
                h = _segment_hash(f, rows=mode == "--rows")
            else:
                h = hashlib.sha256(f.read_bytes()).hexdigest()
            lines.append(f"{h}  {f.relative_to(index_dir)}")
    return lines


def main() -> int:
    args = sys.argv[1:]
    modes = [a for a in args if a in ("--values", "--rows")]
    args = [a for a in args if a not in modes]
    if len(args) != 1 or len(modes) > 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root = Path(args[0])
    if not (root / "stats.json").exists():
        print(f"{root}: no stats.json, not an index", file=sys.stderr)
        return 2
    print("\n".join(digest(root, modes[0] if modes else None)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
